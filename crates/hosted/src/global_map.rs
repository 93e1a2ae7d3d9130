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
use ebbrt_core::qos::Counter;
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
    /// Requests served ("global_map.requests").
    pub requests: Counter,
}

impl GlobalIdMapServer {
    /// Starts the service over `messenger`. Global ids begin above the
    /// machine-local dynamic range.
    pub fn start(messenger: &Rc<Messenger>) -> Rc<GlobalIdMapServer> {
        let server = Rc::new(GlobalIdMapServer {
            next_range: Cell::new(1 << 20),
            entries: RefCell::new(HashMap::new()),
            requests: Counter::new(messenger.netif().runtime(), "global_map.requests"),
        });
        let s = Rc::clone(&server);
        crate::remote::export_raw(messenger, GLOBAL_MAP_EBB_ID, move |req| s.handle(req));
        server
    }

    fn handle(&self, req: &Chain<IoBuf>) -> Chain<IoBuf> {
        self.requests.bump();
        let mut r = WireReader::new(req);
        let mut resp = WireWriter::new();
        match (r.u8(), r.u32()) {
            // A range is granted only while its exclusive end fits the
            // id space (the client checks the same bound); after that
            // every request is refused — wrapping would hand out the
            // well-known and machine-local ids as "global".
            (Some(OP_ALLOC_RANGE), _) => {
                let base = self.next_range.get();
                match base.checked_add(RANGE_SIZE) {
                    Some(next) => {
                        self.next_range.set(next);
                        resp.u8(RESP_OK).u32(base).u32(RANGE_SIZE);
                    }
                    None => {
                        resp.u8(RESP_NO);
                    }
                }
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
mod tests;
