//! The GlobalIdMap: system-wide Ebb naming (§2.2, §3.3).
//!
//! "The namespace of Ebbs are shared across all machines in the system
//! (hosted and native)." The hosted instance acts as the naming
//! authority (the paper's facilities for "distributed data storage,
//! messaging, naming and location services"): it hands out
//! machine-unique id ranges, and stores per-id metadata — typically the
//! owner machine's address — that remote representatives fetch when
//! they miss.
//!
//! Protocol (over the messenger, addressed to [`GLOBAL_MAP_EBB_ID`]):
//! `op:u8 …` with op 1 = allocate range, 2 = put(id, data), 3 =
//! get(id), 4 = put_if(id, expected_version, data); every response
//! starts with a tag byte, 1 for applied/found. Requests and responses
//! are marshalled with the shared wire helpers
//! ([`ebbrt_core::iobuf::wire`]); records themselves are small owned
//! vectors (a few addresses).
//!
//! Records are **versioned**: every successful put bumps a per-id
//! `u64`, gets return it, and `put_if` is a compare-and-swap on it.
//! The version is what makes client-driven failover sound — when an
//! owner dies, any caller may propose a new ownership record, and the
//! CAS arbitrates concurrent proposals so exactly one promotion wins
//! per observed version.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use ebbrt_core::ebb::EbbId;
use ebbrt_core::iobuf::wire::{WireReader, WireWriter};
use ebbrt_core::iobuf::{Chain, IoBuf};
use ebbrt_net::types::Ipv4Addr;

use crate::messenger::{Messenger, DEFAULT_RPC_TIMEOUT_NS};

/// Well-known Ebb id of the naming service itself (also its messenger
/// wire id — see [`ebbrt_core::ebb::SystemEbb::GlobalMap`]).
pub const GLOBAL_MAP_EBB_ID: EbbId = ebbrt_core::ebb::SystemEbb::GlobalMap.id();

/// Ids handed out per allocation request.
pub const RANGE_SIZE: u32 = 1024;

const OP_ALLOC_RANGE: u8 = 1;
const OP_PUT: u8 = 2;
const OP_GET: u8 = 3;
const OP_PUT_IF: u8 = 4;

/// Response tags: the request was refused / applied.
const RESP_NO: u8 = 0;
const RESP_OK: u8 = 1;

/// The authoritative naming service (runs on the hosted instance).
pub struct GlobalIdMapServer {
    next_range: Cell<u32>,
    /// id → (version, data). Versions start at 1 and bump per put.
    entries: RefCell<HashMap<u32, (u64, Vec<u8>)>>,
    /// Requests served (diagnostic).
    pub requests: Cell<u64>,
}

impl GlobalIdMapServer {
    /// Starts the service over `messenger`. Global ids begin above the
    /// machine-local dynamic range.
    pub fn start(messenger: &Rc<Messenger>) -> Rc<GlobalIdMapServer> {
        let server = Rc::new(GlobalIdMapServer {
            next_range: Cell::new(1 << 20),
            entries: RefCell::new(HashMap::new()),
            requests: Cell::new(0),
        });
        let s = Rc::clone(&server);
        crate::remote::export_raw(messenger, GLOBAL_MAP_EBB_ID, move |req| s.handle(req));
        server
    }

    fn handle(&self, req: &Chain<IoBuf>) -> Chain<IoBuf> {
        self.requests.set(self.requests.get() + 1);
        let mut r = WireReader::new(req);
        let mut resp = WireWriter::new();
        match (r.u8(), r.u32()) {
            (Some(OP_ALLOC_RANGE), _) => {
                let base = self.next_range.get();
                self.next_range.set(base + RANGE_SIZE);
                resp.u8(RESP_OK).u32(base).u32(RANGE_SIZE);
            }
            (Some(OP_PUT), Some(id)) => {
                let mut entries = self.entries.borrow_mut();
                let version = entries.get(&id).map_or(0, |e| e.0) + 1;
                entries.insert(id, (version, r.tail().contiguous().into_owned()));
                resp.u8(RESP_OK).u64(version);
            }
            (Some(OP_GET), Some(id)) => match self.entries.borrow().get(&id) {
                Some((version, data)) => {
                    resp.u8(RESP_OK).u64(*version).tail(data);
                }
                None => {
                    resp.u8(RESP_NO);
                }
            },
            (Some(OP_PUT_IF), Some(id)) => match r.u64() {
                Some(expected) => {
                    let mut entries = self.entries.borrow_mut();
                    let current = entries.get(&id).map_or(0, |e| e.0);
                    if current == expected {
                        let version = current + 1;
                        entries.insert(id, (version, r.tail().contiguous().into_owned()));
                        resp.u8(RESP_OK).u64(version);
                    } else {
                        // Lost the race: report the winning version.
                        resp.u8(RESP_NO).u64(current);
                    }
                }
                None => {
                    resp.u8(RESP_NO);
                }
            },
            _ => {
                resp.u8(RESP_NO);
            }
        }
        resp.finish()
    }

    /// Entries currently stored (diagnostic).
    pub fn len(&self) -> usize {
        self.entries.borrow().len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.borrow().is_empty()
    }

    /// The authoritative `(lease epoch, data)` record for `id`
    /// (diagnostic: the chaos harness reads ownership records straight
    /// off the server to assert convergence back to ring placement).
    pub fn record(&self, id: EbbId) -> Option<(u64, Vec<u8>)> {
        self.entries.borrow().get(&id.0).cloned()
    }
}

/// Client handle used by any instance (hosted or native) to allocate
/// global ids and resolve id metadata.
pub struct GlobalIdMap {
    messenger: Rc<Messenger>,
    server: Ipv4Addr,
    /// Locally cached range: (next, end).
    range: Cell<(u32, u32)>,
    /// Read cache: id → (version, data). Entries are stable in steady
    /// state; an owner restart re-publishes its record, and the
    /// transport invalidates stale copies ([`GlobalIdMap::invalidate`])
    /// when calls fail.
    cache: RefCell<HashMap<u32, (u64, Vec<u8>)>>,
}

/// The version behind an `OK` tag, with the reader left at whatever
/// follows it; `None` for a refusal or a malformed reply.
fn ok_version(r: &mut WireReader<'_>) -> Option<u64> {
    (r.u8() == Some(RESP_OK)).then(|| r.u64()).flatten()
}

impl GlobalIdMap {
    /// Creates a client of the naming service at `server`.
    pub fn new(messenger: &Rc<Messenger>, server: Ipv4Addr) -> Rc<GlobalIdMap> {
        Rc::new(GlobalIdMap {
            messenger: Rc::clone(messenger),
            server,
            range: Cell::new((0, 0)),
            cache: RefCell::new(HashMap::new()),
        })
    }

    /// One request/response exchange with the naming service; `done`
    /// always runs — `None` covers an unreachable or unresponsive
    /// server.
    fn request(&self, req: WireWriter, done: impl FnOnce(Option<Chain<IoBuf>>) + 'static) {
        self.messenger.call_chain(
            self.server,
            GLOBAL_MAP_EBB_ID,
            req.finish(),
            DEFAULT_RPC_TIMEOUT_NS,
            move |resp| done(resp.ok()),
        );
    }

    /// Allocates a globally unique [`EbbId`], fetching a fresh range
    /// from the server when the local one is exhausted. `done` always
    /// runs (synchronously when the cached range suffices): `None`
    /// covers a refusal, a reply that is not `OK, base, size` with a
    /// non-empty range that fits the id space, and an unreachable or
    /// unresponsive naming service.
    pub fn allocate(self: &Rc<Self>, done: impl FnOnce(Option<EbbId>) + 'static) {
        let (next, end) = self.range.get();
        if next < end {
            self.range.set((next + 1, end));
            done(Some(EbbId(next)));
            return;
        }
        let me = Rc::clone(self);
        self.request(WireWriter::op(OP_ALLOC_RANGE), move |resp| {
            let granted = resp.and_then(|resp| {
                let mut r = WireReader::new(&resp);
                let (Some(RESP_OK), Some(base), Some(size)) = (r.u8(), r.u32(), r.u32()) else {
                    return None;
                };
                if size == 0 {
                    return None;
                }
                let end = base.checked_add(size)?;
                me.range.set((base + 1, end));
                Some(EbbId(base))
            });
            done(granted);
        });
    }

    /// Publishes metadata for `id` (e.g. the owner machine's address).
    /// `done(false)` covers an unreachable/unresponsive naming service
    /// too — the publish never hangs.
    pub fn put(self: &Rc<Self>, id: EbbId, data: &[u8], done: impl FnOnce(bool) + 'static) {
        let mut req = WireWriter::op(OP_PUT);
        req.u32(id.0).tail(data);
        self.request(req, move |resp| {
            done(resp.is_some_and(|r| WireReader::new(&r).u8() == Some(RESP_OK)));
        });
    }

    /// Drops the cached record for `id`, forcing the next [`Self::get`]
    /// back to the server. The remote-representative layer calls this
    /// when a cached owner stops answering: an owner that restarted
    /// re-publishes its record, and the stale copy must not outlive it.
    pub fn invalidate(&self, id: EbbId) {
        self.cache.borrow_mut().remove(&id.0);
    }

    /// Resolves metadata for `id`; cached after first fetch (entries
    /// are re-fetched only after [`Self::invalidate`] — e.g. when a
    /// restarted owner re-publishes its address). `done` **always**
    /// runs: an unreachable or unresponsive naming service resolves to
    /// `None` (uncached, so a later lookup retries) — the remote layer
    /// depends on this to honor its no-hangs contract.
    pub fn get(self: &Rc<Self>, id: EbbId, done: impl FnOnce(Option<Vec<u8>>) + 'static) {
        self.get_versioned(id, move |r| done(r.map(|(_, data)| data)));
    }

    /// As [`Self::get`], delivering the record's server-side version
    /// alongside the data. The version is the CAS token for
    /// [`Self::put_if`] — failover publishes a successor record against
    /// the exact version it observed, so racing promoters cannot both
    /// win.
    pub fn get_versioned(
        self: &Rc<Self>,
        id: EbbId,
        done: impl FnOnce(Option<(u64, Vec<u8>)>) + 'static,
    ) {
        if let Some(e) = self.cache.borrow().get(&id.0) {
            done(Some(e.clone()));
            return;
        }
        let me = Rc::clone(self);
        let mut req = WireWriter::op(OP_GET);
        req.u32(id.0);
        self.request(req, move |resp| {
            let record = resp.and_then(|resp| {
                let mut r = WireReader::new(&resp);
                let version = ok_version(&mut r)?;
                Some((version, r.tail().contiguous().into_owned()))
            });
            if let Some(record) = &record {
                me.cache.borrow_mut().insert(id.0, record.clone());
            }
            done(record);
        });
    }

    /// Compare-and-swap publish: replaces `id`'s record with `data`
    /// only if its server-side version is still `expected` (0 = record
    /// absent). `done` receives the new version on success, `None` on a
    /// lost race or an unreachable naming service. On success the local
    /// cache is refreshed to the new record; on a lost race it is
    /// invalidated so the next read observes the winner.
    pub fn put_if(
        self: &Rc<Self>,
        id: EbbId,
        expected: u64,
        data: &[u8],
        done: impl FnOnce(Option<u64>) + 'static,
    ) {
        let record = data.to_vec();
        let me = Rc::clone(self);
        let mut req = WireWriter::op(OP_PUT_IF);
        req.u32(id.0).u64(expected).tail(data);
        self.request(req, move |resp| {
            // An unanswered CAS leaves the cache alone: nothing was
            // learned about the record.
            let Some(resp) = resp else {
                done(None);
                return;
            };
            let version = ok_version(&mut WireReader::new(&resp));
            match version {
                Some(version) => {
                    me.cache.borrow_mut().insert(id.0, (version, record));
                }
                None => me.invalidate(id),
            }
            done(version);
        });
    }
}

/// Encodes an ownership record: the ordered owner list (primary
/// first) as concatenated 4-byte addresses — one entry for an
/// unreplicated id.
pub fn encode_owners(ips: &[Ipv4Addr]) -> Vec<u8> {
    let mut out = Vec::with_capacity(ips.len() * 4);
    for ip in ips {
        out.extend_from_slice(&ip.0);
    }
    out
}

/// Decodes an ownership record: any positive multiple of 4 bytes.
pub fn decode_owners(data: &[u8]) -> Option<Vec<Ipv4Addr>> {
    if data.is_empty() || !data.len().is_multiple_of(4) {
        return None;
    }
    Some(
        data.chunks_exact(4)
            .map(|c| Ipv4Addr([c[0], c[1], c[2], c[3]]))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebbrt_net::netif::NetIf;
    use ebbrt_net::Lan;
    use ebbrt_sim::{CostProfile, SimMachine};

    use crate::on_core0;
    #[test]
    fn allocate_put_get_across_machines() {
        let lan = Lan::new();
        let vm = CostProfile::ebbrt_vm;
        let w = &lan.world;
        let linux = CostProfile::linux_vm;
        let hosted_ip = Ipv4Addr::new(10, 0, 0, 1);
        let (_hosted, h_if) = lan.machine("hosted", 1, linux(), [0x01; 6], hosted_ip);
        let (native1, n1_if) = lan.machine("n1", 1, vm(), [0x02; 6], Ipv4Addr::new(10, 0, 0, 2));
        let (native2, n2_if) = lan.machine("n2", 1, vm(), [0x03; 6], Ipv4Addr::new(10, 0, 0, 3));
        w.run_to_idle();

        let h_msgr = Messenger::start(&h_if);
        let n1_msgr = Messenger::start(&n1_if);
        let n2_msgr = Messenger::start(&n2_if);
        let server = GlobalIdMapServer::start(&h_msgr);
        let map1 = GlobalIdMap::new(&n1_msgr, hosted_ip);
        let map2 = GlobalIdMap::new(&n2_msgr, hosted_ip);

        // native1 allocates a global id and publishes itself as owner.
        let published = Rc::new(Cell::new(None));
        let p2 = Rc::clone(&published);
        on_core0(&native1, Rc::clone(&map1), move |map| {
            let m2 = Rc::clone(&map);
            map.allocate(move |id| {
                let id = id.expect("naming service answers");
                m2.put(
                    id,
                    &encode_owners(&[Ipv4Addr::new(10, 0, 0, 2)]),
                    move |ok| {
                        assert!(ok);
                    },
                );
                p2.set(Some(id));
            });
        });
        w.run_to_idle();
        let id = published.get().expect("allocation completed");
        assert!(id.0 >= 1 << 20, "global ids live above the local range");

        // native2 resolves the owner.
        let owner = Rc::new(Cell::new(None));
        let o2 = Rc::clone(&owner);
        on_core0(&native2, Rc::clone(&map2), move |map| {
            map.get(id, move |data| {
                o2.set(decode_owners(&data.unwrap()));
            });
        });
        w.run_to_idle();
        assert_eq!(owner.take(), Some(vec![Ipv4Addr::new(10, 0, 0, 2)]));
        assert_eq!(server.len(), 1);

        // Second allocation on native1 is served from the cached range:
        // no extra server round trip.
        let before = server.requests.get();
        let second = Rc::new(Cell::new(None));
        let s2 = Rc::clone(&second);
        on_core0(&native1, map1, move |map| {
            map.allocate(move |id| s2.set(id));
        });
        w.run_to_idle();
        assert_eq!(second.get(), Some(EbbId(id.0 + 1)));
        assert_eq!(
            server.requests.get(),
            before,
            "range must be cached locally"
        );
    }

    /// The naming service on a hosted machine and one native client of
    /// it (plus what must outlive the test).
    type Keep = ([Rc<NetIf>; 2], Rc<GlobalIdMapServer>);
    fn one_client() -> (Lan, Rc<SimMachine>, Rc<GlobalIdMap>, Keep) {
        let lan = Lan::new();
        let hosted_ip = Ipv4Addr::new(10, 0, 0, 1);
        let (_hosted, h_if) =
            lan.machine("hosted", 1, CostProfile::linux_vm(), [0x01; 6], hosted_ip);
        let (native, n_if) = lan.machine(
            "n",
            1,
            CostProfile::ebbrt_vm(),
            [0x02; 6],
            Ipv4Addr::new(10, 0, 0, 2),
        );
        lan.world.run_to_idle();
        let server = GlobalIdMapServer::start(&Messenger::start(&h_if));
        let map = GlobalIdMap::new(&Messenger::start(&n_if), hosted_ip);
        (lan, native, map, ([h_if, n_if], server))
    }

    #[test]
    fn allocate_survives_a_hostile_or_silent_naming_service() {
        // `done` always runs and no reply panics the caller: a naming
        // service answering anything but `OK, base, size` with a usable
        // range, and one cut off at the switch, both resolve to `None`.
        let lan = Lan::new();
        let hosted_ip = Ipv4Addr::new(10, 0, 0, 1);
        let (_hosted, h_if) =
            lan.machine("hosted", 1, CostProfile::linux_vm(), [0x01; 6], hosted_ip);
        let (native, n_if) = lan.machine(
            "n",
            1,
            CostProfile::ebbrt_vm(),
            [0x02; 6],
            Ipv4Addr::new(10, 0, 0, 2),
        );
        lan.world.run_to_idle();
        let reply = Rc::new(RefCell::new(Vec::new()));
        let h_msgr = Messenger::start(&h_if);
        let r2 = Rc::clone(&reply);
        crate::remote::export_raw(&h_msgr, GLOBAL_MAP_EBB_ID, move |_| {
            let mut w = WireWriter::new();
            w.tail(&r2.borrow());
            w.finish()
        });
        let n_msgr = Messenger::start(&n_if);
        let allocate = |bytes: &[u8]| {
            *reply.borrow_mut() = bytes.to_vec();
            // A fresh client each time: no cached range to serve from.
            let map = GlobalIdMap::new(&n_msgr, hosted_ip);
            let got = Rc::new(Cell::new(None));
            let g2 = Rc::clone(&got);
            on_core0(&native, map, move |map| {
                map.allocate(move |id| g2.set(Some(id)))
            });
            // Bounded: an established connection to a silenced peer
            // retransmits for as long as the world runs.
            lan.world.run_for(2 * DEFAULT_RPC_TIMEOUT_NS);
            got.get().expect("done always runs")
        };
        assert_eq!(allocate(&[]), None, "empty reply");
        assert_eq!(allocate(&[RESP_NO]), None, "refusal");
        assert_eq!(allocate(&[RESP_OK, 0, 0x10]), None, "truncated");
        assert_eq!(
            allocate(&[7, 0, 0x10, 0, 0, 0, 0, 4, 0]),
            None,
            "unknown tag"
        );
        assert_eq!(
            allocate(&[RESP_OK, 0, 0x10, 0, 0, 0, 0, 0, 0]),
            None,
            "empty range"
        );
        assert_eq!(
            allocate(&[RESP_OK, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 2]),
            None,
            "a range past the id space"
        );
        assert_eq!(
            allocate(&[RESP_OK, 0, 0x10, 0, 0, 0, 0, 4, 0]),
            Some(EbbId(1 << 20)),
            "a well-formed grant still works"
        );
        lan.switch.isolate(0);
        assert_eq!(
            allocate(&[RESP_OK, 0, 0x10, 0, 0, 0, 0, 4, 0]),
            None,
            "silent"
        );
    }

    #[test]
    fn get_missing_id_is_none() {
        let (lan, native, map, _keep) = one_client();
        let w = &lan.world;
        let missing = Rc::new(Cell::new(false));
        let m2 = Rc::clone(&missing);
        on_core0(&native, map, move |map| {
            map.get(EbbId(999_999), move |d| m2.set(d.is_none()));
        });
        w.run_to_idle();
        assert!(missing.get());
    }

    #[test]
    fn put_if_arbitrates_racing_promoters() {
        let (lan, native, map, _keep) = one_client();
        let w = &lan.world;
        let id = EbbId(1 << 20);
        let log = Rc::new(RefCell::new(Vec::new()));

        // Publish v1, read it versioned, then two CASes against the
        // same observed version: the first wins, the second loses.
        let l = Rc::clone(&log);
        on_core0(&native, Rc::clone(&map), move |map| {
            let a = Ipv4Addr::new(10, 0, 0, 2);
            let b = Ipv4Addr::new(10, 0, 0, 3);
            let m1 = Rc::clone(&map);
            map.put(id, &encode_owners(&[a, b]), move |ok| {
                assert!(ok);
                let m2 = Rc::clone(&m1);
                let l = Rc::clone(&l);
                m1.get_versioned(id, move |r| {
                    let (v, data) = r.unwrap();
                    assert_eq!(v, 1);
                    assert_eq!(decode_owners(&data), Some(vec![a, b]));
                    let m3 = Rc::clone(&m2);
                    let l2 = Rc::clone(&l);
                    m2.put_if(id, v, &encode_owners(&[b, a]), move |r| {
                        l2.borrow_mut().push(("first", r));
                        let l3 = Rc::clone(&l2);
                        m3.put_if(id, v, &encode_owners(&[a]), move |r| {
                            l3.borrow_mut().push(("second", r));
                        });
                    });
                });
            });
        });
        w.run_to_idle();
        assert_eq!(
            *log.borrow(),
            vec![("first", Some(2)), ("second", None)],
            "exactly one promotion wins per observed version"
        );

        // The lost race invalidated the cache; a re-read sees the
        // winner's record and version.
        let seen = Rc::new(Cell::new(None));
        let s2 = Rc::clone(&seen);
        on_core0(&native, map, move |map| {
            map.get_versioned(id, move |r| {
                let (v, data) = r.unwrap();
                s2.set(Some((v, decode_owners(&data).unwrap()[0])));
            });
        });
        w.run_to_idle();
        assert_eq!(seen.get(), Some((2, Ipv4Addr::new(10, 0, 0, 3))));
    }
}
