use super::*;
use crate::global_map::GlobalIdMapServer;
use crate::messenger::{FRAME_HEADER_LEN, MESSENGER_PORT};
use ebbrt_core::cpu::CoreId;
use ebbrt_core::ebb::{EbbManager, MulticoreEbb, RemoteResult, RemoteShipper};
use ebbrt_core::iobuf::Buf;
use ebbrt_core::qos;
use ebbrt_net::netif::{ConnHandler, NetIf, TcpConn};
use ebbrt_sim::{CostProfile, Lan, LinkParams, SimMachine, SimWorld, Switch};
use std::sync::Arc;

/// A versioned naming record captured from an async `get_versioned`.
type RecordCell = Rc<Cell<Option<(u64, Vec<u8>)>>>;

use crate::on_core0;
/// A distributed counter Ebb used across the failure tests: the
/// owner's rep counts pokes; proxies function-ship them.
struct CounterEbb {
    kind: Kind,
}
enum Kind {
    Local(Arc<std::sync::atomic::AtomicU64>),
    Proxy(RemoteShipper),
}
impl MulticoreEbb for CounterEbb {
    type Root = Arc<std::sync::atomic::AtomicU64>;
    fn create_rep(root: &Arc<Self::Root>, _: CoreId) -> Self {
        CounterEbb {
            kind: Kind::Local(Arc::clone(root)),
        }
    }
    fn handle_fault(ebbs: &EbbManager, id: EbbId, core: CoreId) -> Self {
        match ebbs.root::<Self>(id) {
            Some(root) => Self::create_rep(&root, core),
            None => CounterEbb {
                kind: Kind::Proxy(ebbs.shipper(core, id)),
            },
        }
    }
}
impl DistributedEbb for CounterEbb {
    fn handle_remote(&self, _payload: Chain<IoBuf>, respond: impl FnOnce(Chain<IoBuf>) + 'static) {
        match &self.kind {
            Kind::Local(hits) => {
                let n = hits.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
                let mut resp = wire::WireWriter::new();
                resp.u32(n as u32);
                respond(resp.finish());
            }
            Kind::Proxy(_) => unreachable!("proxy asked to serve"),
        }
    }
}
impl CounterEbb {
    fn poke(&self, done: impl FnOnce(RemoteResult<u32>) + 'static) {
        match &self.kind {
            Kind::Local(hits) => {
                let n = hits.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
                done(Ok(n as u32));
            }
            Kind::Proxy(sh) => sh.call(Chain::new(), |r| {
                done(r.map(|resp| resp.cursor().read_u32_be().unwrap_or(0)))
            }),
        }
    }
}

struct Cluster {
    w: Rc<SimWorld>,
    _sw: Rc<Switch>,
    naming: Rc<SimMachine>,
    owner: Rc<SimMachine>,
    standby: Rc<SimMachine>,
    client: Rc<SimMachine>,
    naming_msgr: Rc<Messenger>,
    owner_msgr: Rc<Messenger>,
    standby_msgr: Rc<Messenger>,
    client_msgr: Rc<Messenger>,
    owner_map: Rc<GlobalIdMap>,
    standby_map: Rc<GlobalIdMap>,
    client_transport: Rc<MessengerTransport>,
}

const NAMING_IP: Ipv4Addr = Ipv4Addr([10, 0, 0, 1]);
const OWNER_IP: Ipv4Addr = Ipv4Addr([10, 0, 0, 2]);
const CLIENT_IP: Ipv4Addr = Ipv4Addr([10, 0, 0, 3]);
const STANDBY_IP: Ipv4Addr = Ipv4Addr([10, 0, 0, 4]);

fn cluster() -> Cluster {
    let lan = Lan::new();
    let (naming, naming_if) =
        lan.machine("naming", 1, CostProfile::linux_vm(), [0x01; 6], NAMING_IP);
    let (owner, owner_if) = lan.machine("owner", 1, CostProfile::ebbrt_vm(), [0x02; 6], OWNER_IP);
    let (client, client_if) =
        lan.machine("client", 1, CostProfile::ebbrt_vm(), [0x03; 6], CLIENT_IP);
    let (standby, standby_if) =
        lan.machine("standby", 1, CostProfile::ebbrt_vm(), [0x04; 6], STANDBY_IP);
    let (w, sw) = (lan.world, lan.switch);
    w.run_to_idle();
    let naming_msgr = Messenger::start(&naming_if);
    let owner_msgr = Messenger::start(&owner_if);
    let client_msgr = Messenger::start(&client_if);
    let standby_msgr = Messenger::start(&standby_if);
    let _server = GlobalIdMapServer::start(&naming_msgr);
    let owner_map = GlobalIdMap::new(&owner_msgr, NAMING_IP);
    let standby_map = GlobalIdMap::new(&standby_msgr, NAMING_IP);
    let client_map = GlobalIdMap::new(&client_msgr, NAMING_IP);
    let client_transport = MessengerTransport::install(&client_msgr, Rc::clone(&client_map));
    Cluster {
        w,
        _sw: sw,
        naming,
        owner,
        standby,
        client,
        naming_msgr,
        owner_msgr,
        standby_msgr,
        client_msgr,
        owner_map,
        standby_map,
        client_transport,
    }
}

#[test]
fn proxy_resolves_owner_through_global_map_and_ships() {
    let c = cluster();
    let hits = Arc::new(std::sync::atomic::AtomicU64::new(0));

    // Owner: allocate a global id, register the root, publish.
    let id_cell = Rc::new(Cell::new(None));
    let i2 = Rc::clone(&id_cell);
    let map = Rc::clone(&c.owner_map);
    let msgr = Rc::clone(&c.owner_msgr);
    let rt = Arc::clone(c.owner.runtime());
    let h2 = Arc::clone(&hits);
    on_core0(&c.owner, (map, msgr, rt, h2), move |(map, msgr, rt, h2)| {
        let m2 = Rc::clone(&map);
        map.allocate(move |id| {
            let id = id.expect("naming service answers");
            rt.ebbs().register_root::<CounterEbb>(id, h2);
            publish::<CounterEbb>(&msgr, &m2, EbbRef::from_id(id), OWNER_IP, |ok| {
                assert!(ok);
            });
            i2.set(Some(id));
        });
    });
    c.w.run_to_idle();
    let id = id_cell.get().expect("id allocated");
    assert!(id.0 >= 1 << 20, "a real global id");

    // Client: the same EbbRef, dereferenced on a machine that does
    // not own the id — miss → GlobalIdMap → proxy → function-ship.
    let got = Rc::new(Cell::new(None));
    let g2 = Rc::clone(&got);
    on_core0(&c.client, g2, move |g2| {
        EbbRef::<CounterEbb>::from_id(id).with(|rep| rep.poke(move |r| g2.set(Some(r))));
    });
    c.w.run_to_idle();
    assert_eq!(got.get(), Some(Ok(1)), "shipped to the owner and back");
    assert_eq!(hits.load(std::sync::atomic::Ordering::Relaxed), 1);
    assert!(
        c.client.runtime().ebbs().has_rep(id, CoreId(0)),
        "the proxy rep stays installed for the fast path"
    );
    // Steady state: a second call reuses the proxy and the cached
    // owner — one naming round trip total.
    let naming_reqs = c.naming_msgr.dispatched.get();
    let g3 = Rc::clone(&got);
    on_core0(&c.client, g3, move |g3| {
        EbbRef::<CounterEbb>::from_id(id).with(|rep| rep.poke(move |r| g3.set(Some(r))));
    });
    c.w.run_to_idle();
    assert_eq!(got.get(), Some(Ok(2)));
    assert_eq!(
        c.naming_msgr.dispatched.get(),
        naming_reqs,
        "owner resolution must be cached"
    );
    let _ = (&c.naming, &c.client_msgr, &c.client_transport);
}

#[test]
fn calls_shipped_in_one_pass_coalesce_into_one_batch_frame() {
    let c = cluster();
    let hits = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let id = EbbId((1 << 20) + 7);
    c.owner
        .runtime()
        .ebbs()
        .register_root::<CounterEbb>(id, Arc::clone(&hits));
    let msgr = Rc::clone(&c.owner_msgr);
    let map = Rc::clone(&c.owner_map);
    on_core0(&c.owner, (msgr, map), move |(msgr, map)| {
        publish::<CounterEbb>(&msgr, &map, EbbRef::from_id(id), OWNER_IP, |ok| assert!(ok));
    });
    c.w.run_to_idle();

    // Three calls issued inside ONE event: all resolve to the same
    // owner, so they must leave as one multi-call frame. The replies
    // resolve in staging order (the counter values prove it), and
    // the per-call failure contract is untouched.
    let got = Rc::new(RefCell::new(Vec::new()));
    let g2 = Rc::clone(&got);
    on_core0(&c.client, g2, move |g2| {
        for _ in 0..3 {
            let g3 = Rc::clone(&g2);
            EbbRef::<CounterEbb>::from_id(id)
                .with(|rep| rep.poke(move |r| g3.borrow_mut().push(r)));
        }
    });
    c.w.run_to_idle();
    assert_eq!(
        *got.borrow(),
        vec![Ok(1), Ok(2), Ok(3)],
        "all three sub-calls answered, in staging order"
    );
    assert_eq!(hits.load(std::sync::atomic::Ordering::Relaxed), 3);
    assert_eq!(c.client_transport.shipped.get(), 3, "three logical calls");
    assert_eq!(
        c.client_transport.batch_flushes.get(),
        1,
        "one multi-call frame"
    );
    assert_eq!(c.client_transport.batched_calls.get(), 3);
    assert_eq!(c.client_transport.max_batch.get(), 3);
    assert_eq!(c.client_msgr.pending_rpcs(), 0, "one waiter, resolved");
    // The first call's resolution queue and the later calls' staging
    // must not double-deliver anything under the batch path.
    assert_eq!(c.client_transport.retries.get(), 0);
}

#[test]
fn batched_sub_call_for_torn_down_id_fails_over_like_a_single_call() {
    // Two ids published by the owner; it tears one down — unregisters
    // it, or leaves it a raw handler, which answers direct frames only.
    // A pass shipping one call to each coalesces into a batch; the
    // served sub-call answers normally, the unserved one must surface
    // an error through the normal failover path (bounded retries
    // against the invalidated record), never hang.
    let tear_downs: [fn(&Messenger, EbbId); 2] = [
        |msgr, id| msgr.unregister(id),
        |msgr, id| msgr.register(id, |_, _, _| {}),
    ];
    for tear_down in tear_downs {
        let c = cluster();
        let hits = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let live = EbbId((1 << 20) + 61);
        let dead = EbbId((1 << 20) + 62);
        for id in [live, dead] {
            c.owner
                .runtime()
                .ebbs()
                .register_root::<CounterEbb>(id, Arc::clone(&hits));
            let msgr = Rc::clone(&c.owner_msgr);
            let map = Rc::clone(&c.owner_map);
            on_core0(&c.owner, (msgr, map), move |(msgr, map)| {
                publish::<CounterEbb>(&msgr, &map, EbbRef::from_id(id), OWNER_IP, |ok| assert!(ok));
            });
        }
        c.w.run_to_idle();
        tear_down(&c.owner_msgr, dead);
        c.client_transport.set_timeout(2_000_000);
        c.client_transport.set_retry_policy(RetryPolicy {
            budget: 2,
            ..RetryPolicy::default()
        });

        let live_got = Rc::new(Cell::new(None));
        let dead_got = Rc::new(Cell::new(None));
        let (l2, d2) = (Rc::clone(&live_got), Rc::clone(&dead_got));
        on_core0(&c.client, (l2, d2), move |(l2, d2)| {
            EbbRef::<CounterEbb>::from_id(live).with(|rep| rep.poke(move |r| l2.set(Some(r))));
            EbbRef::<CounterEbb>::from_id(dead).with(|rep| rep.poke(move |r| d2.set(Some(r))));
        });
        c.w.run_to_idle();
        assert_eq!(live_got.get(), Some(Ok(1)), "served sub-call unaffected");
        assert!(
            matches!(
                dead_got.get(),
                Some(Err(RemoteError::Timeout | RemoteError::Unreachable))
            ),
            "unserved sub-call fails after its retry budget: {:?}",
            dead_got.get()
        );
        assert!(c.client_transport.batch_flushes.get() >= 1);
        assert!(
            c.client_transport.retries.get() >= 1,
            "the unserved slot was retried before surfacing"
        );
        assert_eq!(c.client_msgr.pending_rpcs(), 0, "no leaked waiter");
    }
}

#[test]
fn unregistered_id_fails_unresolved_not_hangs() {
    let c = cluster();
    let got = Rc::new(Cell::new(None));
    let g2 = Rc::clone(&got);
    let bogus = EbbId((1 << 20) + 999);
    on_core0(&c.client, g2, move |g2| {
        EbbRef::<CounterEbb>::from_id(bogus).with(|rep| rep.poke(move |r| g2.set(Some(r))));
    });
    c.w.run_to_idle();
    assert_eq!(
        got.get(),
        Some(Err(RemoteError::Unresolved)),
        "an id nobody published must fail, not hang"
    );
    assert_eq!(c.client_msgr.pending_rpcs(), 0);
    // The id was not negatively cached: publishing later works.
    let hits = Arc::new(std::sync::atomic::AtomicU64::new(0));
    c.owner
        .runtime()
        .ebbs()
        .register_root::<CounterEbb>(bogus, Arc::clone(&hits));
    let msgr = Rc::clone(&c.owner_msgr);
    let map = Rc::clone(&c.owner_map);
    on_core0(&c.owner, (msgr, map), move |(msgr, map)| {
        publish::<CounterEbb>(&msgr, &map, EbbRef::from_id(bogus), OWNER_IP, |ok| {
            assert!(ok)
        });
    });
    c.w.run_to_idle();
    let g3 = Rc::clone(&got);
    on_core0(&c.client, g3, move |g3| {
        EbbRef::<CounterEbb>::from_id(bogus).with(|rep| rep.poke(move |r| g3.set(Some(r))));
    });
    c.w.run_to_idle();
    assert_eq!(got.get(), Some(Ok(1)), "late registration is found");
}

#[test]
fn naming_service_down_fails_unresolved_not_hangs() {
    // The client's naming client points at an address where nothing
    // answers: owner resolution itself must fail the shipped calls
    // (Unresolved) instead of parking them in the Resolving queue
    // forever — and must not negatively cache, so recovery of the
    // naming service heals the path.
    let c = cluster();
    let dead_naming = Ipv4Addr([10, 0, 0, 88]);
    let id = EbbId((1 << 20) + 33);
    let got = Rc::new(Cell::new(None));
    let g2 = Rc::clone(&got);
    let msgr = Rc::clone(&c.client_msgr);
    on_core0(&c.client, (msgr, g2), move |(msgr, g2)| {
        // Hand-build a map-backed transport without installing it
        // (the machine already has its real one installed).
        let map = GlobalIdMap::new(&msgr, dead_naming);
        let t = MessengerTransport::new(&msgr, map);
        t.ship(
            id,
            Chain::single(IoBuf::copy_from(b"anyone?")),
            RemoteReply::new(move |r| g2.set(Some(r.map(|_| ())))),
        );
        // Keep the transport alive until the world quiesces.
        std::mem::forget(t);
    });
    c.w.run_to_idle();
    assert_eq!(
        got.get(),
        Some(Err(RemoteError::Unresolved)),
        "an unreachable naming service must fail resolution, not hang"
    );
    assert_eq!(c.client_msgr.pending_rpcs(), 0);
}

#[test]
fn preset_owner_survives_owner_failures() {
    // A preset owner is configuration, not a cache: a failed call must
    // NOT strip it — the next call retries the configured address
    // instead of going to a naming service that has no record for the
    // id and resolving to Unresolved forever.
    let c = cluster();
    let dead_owner = Ipv4Addr([10, 0, 0, 89]);
    let id = EbbId((1 << 20) + 44);
    let got = Rc::new(RefCell::new(Vec::new()));
    let g2 = Rc::clone(&got);
    c.client_transport.preset_owner(id, dead_owner);
    let t = Rc::clone(&c.client_transport);
    on_core0(&c.client, (t, g2), move |(t, g2)| {
        let g3 = Rc::clone(&g2);
        let t2 = Rc::clone(&t);
        t.ship(
            id,
            Chain::new(),
            RemoteReply::new(move |r| {
                g3.borrow_mut().push(r.map(|_| ()));
                // Second call after the first failure: must retry
                // the preset owner, not report Unresolved.
                let g4 = Rc::clone(&g3);
                t2.ship(
                    id,
                    Chain::new(),
                    RemoteReply::new(move |r| g4.borrow_mut().push(r.map(|_| ()))),
                );
            }),
        );
    });
    c.w.run_to_idle();
    let got = got.borrow();
    assert_eq!(got.len(), 2, "both calls must resolve");
    assert_eq!(c.client_transport.resolved_primary(id), Some(dead_owner));
    assert_eq!(c.client_transport.invalidations.get(), 0);
    for r in got.iter() {
        assert!(
            matches!(r, Err(RemoteError::Unreachable) | Err(RemoteError::Timeout)),
            "a dead preset owner fails Unreachable/Timeout, never Unresolved: {r:?}"
        );
    }
}

#[test]
fn owner_teardown_mid_call_times_out_without_leaks() {
    let c = cluster();
    let hits = Arc::new(std::sync::atomic::AtomicU64::new(0));
    // Publish an owner record pointing at an address where no
    // machine answers the messenger port — the "owner torn down
    // between resolution and call" shape.
    let dead = EbbId((1 << 20) + 5);
    let map = Rc::clone(&c.owner_map);
    on_core0(&c.owner, map, move |map| {
        map.put(
            dead,
            &global_map::encode_owners(&[Ipv4Addr([10, 0, 0, 99])]),
            |ok| assert!(ok),
        );
    });
    c.w.run_to_idle();
    c.client_transport.set_timeout(2_000_000); // 2 virtual ms
    let got = Rc::new(Cell::new(None));
    let g2 = Rc::clone(&got);
    on_core0(&c.client, g2, move |g2| {
        EbbRef::<CounterEbb>::from_id(dead).with(|rep| rep.poke(move |r| g2.set(Some(r))));
    });
    c.w.run_to_idle();
    let outcome = got.get().expect("the waiter must resolve");
    assert!(
        matches!(
            outcome,
            Err(RemoteError::Timeout) | Err(RemoteError::Unreachable)
        ),
        "teardown mid-call surfaces as Err, never a hang: {outcome:?}"
    );
    assert_eq!(c.client_msgr.pending_rpcs(), 0, "waiter removed");
    {
        let _b = ebbrt_core::cpu::bind(CoreId(0));
        assert_eq!(
            c.client
                .runtime()
                .event_manager(CoreId(0))
                .timer_stats()
                .live,
            0,
            "no leaked timeout entry in the wheel"
        );
    }
    assert_eq!(hits.load(std::sync::atomic::Ordering::Relaxed), 0);
    // The failure invalidated the dead owner record.
    assert!(c.client_transport.invalidations.get() >= 1);
}

#[test]
fn stale_owner_record_recovers_after_restart() {
    let c = cluster();
    let hits = Arc::new(std::sync::atomic::AtomicU64::new(0));
    // Owner publishes and serves one call (the proxy caches the
    // owner address).
    let id = EbbId((1 << 20) + 17);
    c.owner
        .runtime()
        .ebbs()
        .register_root::<CounterEbb>(id, Arc::clone(&hits));
    let msgr = Rc::clone(&c.owner_msgr);
    let map = Rc::clone(&c.owner_map);
    on_core0(&c.owner, (msgr, map), move |(msgr, map)| {
        publish::<CounterEbb>(&msgr, &map, EbbRef::from_id(id), OWNER_IP, |ok| assert!(ok));
    });
    c.w.run_to_idle();
    let got = Rc::new(Cell::new(None));
    let g2 = Rc::clone(&got);
    on_core0(&c.client, g2, move |g2| {
        EbbRef::<CounterEbb>::from_id(id).with(|rep| rep.poke(move |r| g2.set(Some(r))));
    });
    c.w.run_to_idle();
    assert_eq!(got.get(), Some(Ok(1)));

    // "Restart": the old owner tears its service down and the
    // standby machine takes the id over, re-publishing itself. The
    // client's proxy and transport still cache the old owner.
    c.owner_msgr.unregister(id);
    let restart_hits = Arc::new(std::sync::atomic::AtomicU64::new(100));
    c.standby
        .runtime()
        .ebbs()
        .register_root::<CounterEbb>(id, Arc::clone(&restart_hits));
    let msgr = Rc::clone(&c.standby_msgr);
    let map = Rc::clone(&c.standby_map);
    on_core0(&c.standby, (msgr, map), move |(msgr, map)| {
        publish::<CounterEbb>(&msgr, &map, EbbRef::from_id(id), STANDBY_IP, |ok| {
            assert!(ok)
        });
    });
    c.w.run_to_idle();

    // First call after the restart: the stale attempt times out,
    // the transport invalidates and *retries in place* —
    // re-resolving through the map and landing on the restarted
    // owner inside the same call. The caller never sees the
    // failure, and the proxy rep was never reinstalled.
    c.client_transport.set_timeout(2_000_000);
    let g3 = Rc::clone(&got);
    on_core0(&c.client, g3, move |g3| {
        EbbRef::<CounterEbb>::from_id(id).with(|rep| rep.poke(move |r| g3.set(Some(r))));
    });
    c.w.run_to_idle();
    assert_eq!(
        got.get(),
        Some(Ok(101)),
        "retry-in-place absorbs the stale record: the first call succeeds"
    );
    assert!(c.client_transport.retries.get() >= 1, "a retry happened");
    assert!(
        c.client_transport.invalidations.get() >= 1,
        "the stale record was invalidated"
    );
    assert_eq!(hits.load(std::sync::atomic::Ordering::Relaxed), 1);
    assert_eq!(restart_hits.load(std::sync::atomic::Ordering::Relaxed), 101);
}

#[test]
fn replicated_record_promotes_standby_inside_the_call() {
    // A replicated ownership record [owner, standby]: both machines
    // export the id, the record lists the owner as primary. Killing
    // the owner mid-traffic must not surface an error — the
    // transport rotates the record (CAS-promoting the standby) and
    // re-ships the same call to it.
    let c = cluster();
    let hits = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let standby_hits = Arc::new(std::sync::atomic::AtomicU64::new(100));
    let id = EbbId((1 << 20) + 21);
    c.owner
        .runtime()
        .ebbs()
        .register_root::<CounterEbb>(id, Arc::clone(&hits));
    c.standby
        .runtime()
        .ebbs()
        .register_root::<CounterEbb>(id, Arc::clone(&standby_hits));
    // Standby exports (serves if promoted); owner exports and
    // publishes the replica list.
    let msgr = Rc::clone(&c.standby_msgr);
    on_core0(&c.standby, msgr, move |msgr| {
        export::<CounterEbb>(&msgr, EbbRef::from_id(id));
    });
    let msgr = Rc::clone(&c.owner_msgr);
    let map = Rc::clone(&c.owner_map);
    on_core0(&c.owner, (msgr, map), move |(msgr, map)| {
        publish_replicated::<CounterEbb>(
            &msgr,
            &map,
            EbbRef::from_id(id),
            &[OWNER_IP, STANDBY_IP],
            |ok| assert!(ok),
        );
    });
    c.w.run_to_idle();

    // Warm the client's proxy and owner cache.
    let got = Rc::new(Cell::new(None));
    let g2 = Rc::clone(&got);
    on_core0(&c.client, g2, move |g2| {
        EbbRef::<CounterEbb>::from_id(id).with(|rep| rep.poke(move |r| g2.set(Some(r))));
    });
    c.w.run_to_idle();
    assert_eq!(got.get(), Some(Ok(1)), "primary serves in steady state");
    assert_eq!(
        c.client_transport.resolved_primary(id),
        Some(OWNER_IP),
        "record resolved with the owner as primary"
    );

    // Kill the owner (its messenger stops serving the id) and call
    // again: the attempt times out, the transport promotes the
    // standby via CAS and re-ships inside the call.
    c.owner_msgr.unregister(id);
    c.client_transport.set_timeout(2_000_000);
    let g3 = Rc::clone(&got);
    on_core0(&c.client, g3, move |g3| {
        EbbRef::<CounterEbb>::from_id(id).with(|rep| rep.poke(move |r| g3.set(Some(r))));
    });
    c.w.run_to_idle();
    assert_eq!(
        got.get(),
        Some(Ok(101)),
        "the standby answered the same call the owner dropped"
    );
    assert_eq!(c.client_transport.promotions.get(), 1, "one CAS promotion");
    assert!(c.client_transport.retries.get() >= 1);
    assert_eq!(
        c.client_transport.resolved_primary(id),
        Some(STANDBY_IP),
        "the promoted replica now fronts the record"
    );
    // Steady state after failover: calls flow to the standby
    // without further retries.
    let retries_before = c.client_transport.retries.get();
    let g4 = Rc::clone(&got);
    on_core0(&c.client, g4, move |g4| {
        EbbRef::<CounterEbb>::from_id(id).with(|rep| rep.poke(move |r| g4.set(Some(r))));
    });
    c.w.run_to_idle();
    assert_eq!(got.get(), Some(Ok(102)));
    assert_eq!(c.client_transport.retries.get(), retries_before);
    assert_eq!(hits.load(std::sync::atomic::Ordering::Relaxed), 1);

    // The transport's and the messengers' counters are their machines'
    // registry counters.
    let t = &c.client_transport;
    let snap = qos::snapshot(c.client.runtime());
    for (name, counter) in [
        ("remote.shipped", &t.shipped),
        ("remote.invalidations", &t.invalidations),
        ("remote.retries", &t.retries),
        ("remote.promotions", &t.promotions),
        ("remote.batch_flushes", &t.batch_flushes),
        ("remote.batched_calls", &t.batched_calls),
        ("messenger.dispatched", &c.client_msgr.dispatched),
        ("messenger.rpc_failures", &c.client_msgr.rpc_failures),
    ] {
        assert_eq!(snap.get(name), counter.get(), "{name}");
    }
    assert!(t.shipped.get() >= 3 && c.client_msgr.rpc_failures.get() >= 1);
    for (m, msgr) in [(&c.owner, &c.owner_msgr), (&c.standby, &c.standby_msgr)] {
        let snap = qos::snapshot(m.runtime());
        assert_eq!(snap.get("messenger.dispatched"), msgr.dispatched.get());
        assert!(msgr.dispatched.get() >= 1);
    }
    let naming = qos::snapshot(c.naming.runtime());
    assert!(naming.get("global_map.requests") >= 1);
    assert_eq!(
        naming.get("messenger.dispatched"),
        c.naming_msgr.dispatched.get()
    );
}

/// An Ebb whose owner records every request payload it is handed.
/// Root-only policy: it is addressed through the transport directly and
/// has no proxy flavor.
struct RecorderEbb(Arc<RecorderRoot>);
type RecorderRoot = std::sync::Mutex<Vec<Vec<u8>>>;
impl MulticoreEbb for RecorderEbb {
    type Root = RecorderRoot;
    fn create_rep(root: &Arc<Self::Root>, _: CoreId) -> Self {
        RecorderEbb(Arc::clone(root))
    }
}
impl DistributedEbb for RecorderEbb {
    fn handle_remote(&self, payload: Chain<IoBuf>, respond: impl FnOnce(Chain<IoBuf>) + 'static) {
        self.0
            .lock()
            .unwrap()
            .push(payload.iter().flat_map(|s| s.bytes().to_vec()).collect());
        respond(wire::WireWriter::op(1).finish());
    }
}

/// Registers a [`RecorderEbb`] on the standby and publishes the
/// replicated record `[primary, standby]` for `id`: every call a client
/// ships reaches `primary` first and, once that fails over, the standby.
fn standby_behind(c: &Cluster, id: EbbId, primary: Ipv4Addr) -> Arc<RecorderRoot> {
    let seen = Arc::new(RecorderRoot::default());
    c.standby
        .runtime()
        .ebbs()
        .register_root_arc::<RecorderEbb>(id, Arc::clone(&seen));
    let (msgr, map) = (Rc::clone(&c.standby_msgr), Rc::clone(&c.standby_map));
    on_core0(&c.standby, (msgr, map), move |(msgr, map)| {
        publish_replicated::<RecorderEbb>(
            &msgr,
            &map,
            EbbRef::from_id(id),
            &[primary, STANDBY_IP],
            |ok| assert!(ok),
        );
    });
    c.w.run_to_idle();
    seen
}

/// A request as a proxy marshals one — a small head *and* a linked
/// value, distinct per `tag` — with the linked value (to check that
/// every descriptor comes home) and the bytes the owner must see.
fn marshalled(tag: u8) -> (Chain<IoBuf>, Chain<IoBuf>, Vec<u8>) {
    let value: Vec<u8> = (0..2000u32).map(|i| (i * 13) as u8 ^ tag).collect();
    let linked = Chain::single(IoBuf::copy_from(&value));
    let mut req = wire::WireWriter::op(0x42);
    req.u64(0xDEAD_BEEF_0BAD_F00D)
        .bytes16(&[b'k', tag])
        .bytes32_chain(&linked)
        .u8(0x99);
    let payload = req.finish();
    assert!(payload.segment_count() >= 3, "head, linked value, trailer");
    let want = payload.iter().flat_map(|s| s.bytes().to_vec()).collect();
    (payload, linked, want)
}

/// Ships `payloads` to `id` inside one event on the client — so they
/// stage together — and returns where their outcomes land.
fn ship_in_one_pass(
    c: &Cluster,
    id: EbbId,
    payloads: Vec<Chain<IoBuf>>,
) -> Rc<RefCell<Vec<Result<(), RemoteError>>>> {
    let got = Rc::new(RefCell::new(Vec::new()));
    let transport = Rc::clone(&c.client_transport);
    let g2 = Rc::clone(&got);
    on_core0(
        &c.client,
        (transport, payloads, g2),
        move |(t, payloads, g2)| {
            for payload in payloads {
                let g3 = Rc::clone(&g2);
                t.ship(
                    id,
                    payload,
                    RemoteReply::new(move |r| g3.borrow_mut().push(r.map(|_| ()))),
                );
            }
        },
    );
    got
}

#[test]
fn retried_payload_reaches_the_promoted_owner_byte_identical() {
    // The record's primary is an address nobody answers at: the
    // first attempt's connection dies in ARP (Unreachable), the
    // transport promotes the standby and re-ships. What it re-ships
    // is the descriptor clone it kept of the request — a small
    // marshalled head *and* a linked value — after the first
    // attempt's frame and connection are gone.
    let c = cluster();
    let id = EbbId((1 << 20) + 88);
    let seen = standby_behind(&c, id, Ipv4Addr([10, 0, 0, 66]));
    let (payload, linked, want) = marshalled(0);
    let got = ship_in_one_pass(&c, id, vec![payload]);
    c.w.run_to_idle();
    assert_eq!(*got.borrow(), [Ok(())], "the retry was served");
    assert!(c.client_transport.retries.get() >= 1, "a retry happened");
    assert_eq!(
        c.client_transport.promotions.get(),
        1,
        "the standby was promoted"
    );
    assert_eq!(c.client_transport.resolved_primary(id), Some(STANDBY_IP));
    assert_eq!(
        seen.lock().unwrap().as_slice(),
        [want],
        "one delivery, every byte"
    );
    assert_eq!(linked.seg(0).ref_count(), 1, "no descriptor left behind");
    assert_eq!(c.client_msgr.pending_rpcs(), 0);
}

#[test]
fn a_batch_to_an_unreachable_primary_fails_every_call_over_once() {
    // Three calls staged in one pass leave as one batch to a primary
    // nobody answers at. The batch gets no verdict but its timeout, and
    // every call fails over on its own: one promotion between them,
    // each re-shipped from its own payload.
    let c = cluster();
    let id = EbbId((1 << 20) + 89);
    let seen = standby_behind(&c, id, Ipv4Addr([10, 0, 0, 67]));
    let (payloads, kept): (Vec<_>, Vec<_>) = (1..=3)
        .map(marshalled)
        .map(|(payload, linked, want)| (payload, (linked, want)))
        .unzip();
    let got = ship_in_one_pass(&c, id, payloads);
    c.w.run_to_idle();
    let t = &c.client_transport;
    assert_eq!(*got.borrow(), [Ok(()), Ok(()), Ok(())], "every call served");
    assert_eq!(t.max_batch.get(), 3, "the three left as one batch");
    assert_eq!(t.promotions.get(), 1, "one CAS promotion between them");
    assert_eq!(t.retries.get(), 3, "each call retried once");
    let mut delivered = seen.lock().unwrap().clone();
    delivered.sort();
    let mut want: Vec<Vec<u8>> = kept.iter().map(|(_, want)| want.clone()).collect();
    want.sort();
    assert_eq!(delivered, want, "one delivery per call, every byte");
    for (linked, _) in &kept {
        assert_eq!(linked.seg(0).ref_count(), 1, "no descriptor left behind");
    }
    assert_eq!(c.client_msgr.pending_rpcs(), 0, "no waiter left behind");
    assert!(
        t.flights.borrow().iter().all(|f| f.calls.is_empty()),
        "no flight left behind"
    );
}

/// A machine on the messenger port that answers every request frame
/// with a one-slot batch reply: a table that matches no request of two
/// or more calls. It speaks raw TCP (there is no messenger on it to be
/// correct with).
struct MismatchedOwner {
    rx: RefCell<Vec<u8>>,
    answered: Cell<u32>,
    closed: Cell<bool>,
}

impl MismatchedOwner {
    fn start(c: &Cluster, ip: Ipv4Addr) -> Rc<MismatchedOwner> {
        let m = SimMachine::create(&c.w, "mismatched", 1, CostProfile::ebbrt_vm(), [0x05; 6]);
        c._sw.attach(m.nic(), LinkParams::default());
        let netif = NetIf::attach(&m, ip, Ipv4Addr::new(255, 255, 255, 0));
        let owner = Rc::new(MismatchedOwner {
            rx: RefCell::new(Vec::new()),
            answered: Cell::new(0),
            closed: Cell::new(false),
        });
        let o2 = Rc::clone(&owner);
        netif
            .listen(MESSENGER_PORT, move |_| {
                Rc::clone(&o2) as Rc<dyn ConnHandler>
            })
            .expect("port free");
        c.w.run_to_idle();
        owner
    }
}

impl ConnHandler for MismatchedOwner {
    fn on_receive(&self, conn: &TcpConn, data: Chain<IoBuf>) {
        let mut rx = self.rx.borrow_mut();
        rx.extend(data.iter().flat_map(|s| s.bytes().to_vec()));
        while rx.len() >= FRAME_HEADER_LEN {
            let len = 4 + u32::from_be_bytes(rx[0..4].try_into().unwrap()) as usize;
            if rx.len() < len {
                break;
            }
            let rpc_id: Vec<u8> = rx[9..17].to_vec();
            rx.drain(..len);
            // n = 1 | status OK | an empty body
            let table = [0, 0, 0, 1, batch::STATUS_OK, 0, 0, 0, 0];
            let mut reply = ((FRAME_HEADER_LEN - 4 + table.len()) as u32)
                .to_be_bytes()
                .to_vec();
            reply.extend(SystemEbb::RemoteBatch.id().0.to_be_bytes());
            reply.push(1); // a response
            reply.extend(rpc_id);
            reply.extend(table);
            conn.send(Chain::single(IoBuf::copy_from(&reply)))
                .expect("window open");
            self.answered.set(self.answered.get() + 1);
        }
    }

    fn on_close(&self, _conn: &TcpConn) {
        self.closed.set(true);
    }
}

#[test]
fn a_batch_reply_that_does_not_match_its_request_fails_every_call_over_fenced() {
    // Three calls leave as one batch to a primary that answers with a
    // table of one slot. That reply is no answer for any of them: every
    // call fails over, the connection it came on is reset (the zombie
    // fence), and the standby serves all three.
    let c = cluster();
    let primary_ip = Ipv4Addr([10, 0, 0, 5]);
    let primary = MismatchedOwner::start(&c, primary_ip);
    let id = EbbId((1 << 20) + 90);
    let seen = standby_behind(&c, id, primary_ip);
    let (payloads, wants): (Vec<_>, Vec<_>) = (4..=6)
        .map(marshalled)
        .map(|(payload, _, want)| (payload, want))
        .unzip();
    let got = ship_in_one_pass(&c, id, payloads);
    c.w.run_to_idle();
    let t = &c.client_transport;
    assert_eq!(*got.borrow(), [Ok(()), Ok(()), Ok(())], "every call served");
    let mut delivered = seen.lock().unwrap().clone();
    delivered.sort();
    let mut wants = wants;
    wants.sort();
    assert_eq!(delivered, wants, "by the standby");
    assert_eq!(primary.answered.get(), 1, "one batch reached the primary");
    assert_eq!(t.max_batch.get(), 3);
    assert!(
        primary.closed.get(),
        "the connection it answered on was reset"
    );
    assert_eq!(t.promotions.get(), 1, "one CAS promotion");
    assert_eq!(t.retries.get(), 3, "each call retried once");
    assert_eq!(c.client_msgr.pending_rpcs(), 0);
    assert!(t.flights.borrow().iter().all(|f| f.calls.is_empty()));
}

#[test]
fn unpromote_cas_loses_cleanly_to_a_concurrent_promotion() {
    let c = cluster();
    let gid = EbbId((1 << 20) + 77);
    let ring_order = vec![OWNER_IP, STANDBY_IP];
    let promoted = vec![STANDBY_IP, OWNER_IP];

    // The record as a retry-in-place promotion left it: rotated,
    // standby first. First put → lease epoch 1.
    let sm = Rc::clone(&c.standby_map);
    let p = promoted.clone();
    on_core0(&c.standby, sm, move |sm| {
        sm.put(gid, &global_map::encode_owners(&p), |ok| assert!(ok));
    });
    c.w.run_to_idle();

    // Warm the owner↔naming connection so the raced GET below
    // pays no TCP handshake (which would reorder it after the
    // standby's CAS).
    let om = Rc::clone(&c.owner_map);
    on_core0(&c.owner, om, move |om| {
        om.get_versioned(gid, |_| {});
    });
    c.w.run_to_idle();

    // The ring-home machine un-promotes while the standby bumps
    // the lease again (a concurrent promotion against the same
    // epoch). The standby's CAS is timed to land at the naming
    // service *between* the un-promote's epoch read and its CAS —
    // the interleaving where exactly one writer must win.
    let unpromote_won: Rc<Cell<Option<bool>>> = Rc::new(Cell::new(None));
    let promo_won: Rc<Cell<Option<Option<u64>>>> = Rc::new(Cell::new(None));
    let om = Rc::clone(&c.owner_map);
    let u2 = Rc::clone(&unpromote_won);
    let ring = ring_order.clone();
    on_core0(&c.owner, (om, u2), move |(om, u2)| {
        unpromote(&om, gid, ring, move |won| u2.set(Some(won)));
    });
    let sm = Rc::clone(&c.standby_map);
    let p2 = Rc::clone(&promo_won);
    let promoted2 = promoted.clone();
    on_core0(&c.standby, (sm, p2), move |(sm, p2)| {
        // Depart just after the un-promote's GET, well before its
        // put_if (which waits a full round-trip for the GET reply).
        ebbrt_core::clock::charge(500);
        sm.put_if(gid, 1, &global_map::encode_owners(&promoted2), move |won| {
            p2.set(Some(won))
        });
    });
    c.w.run_to_idle();

    assert_eq!(
        promo_won.get(),
        Some(Some(2)),
        "the concurrent promotion won the epoch-1 CAS"
    );
    assert_eq!(
        unpromote_won.get(),
        Some(false),
        "the un-promote lost cleanly"
    );

    // Losing must not clobber: the record still carries the
    // winner's owners at epoch 2 (the loser only invalidated its
    // cache, so this read goes back to the naming service).
    let record: RecordCell = Rc::new(Cell::new(None));
    let om = Rc::clone(&c.owner_map);
    let r2 = Rc::clone(&record);
    on_core0(&c.owner, (om, r2), move |(om, r2)| {
        om.get_versioned(gid, move |r| r2.set(r));
    });
    c.w.run_to_idle();
    let (epoch, data) = record.take().expect("record resolves");
    assert_eq!(epoch, 2, "lease epoch bumped once, by the winner");
    assert_eq!(
        global_map::decode_owners(&data).as_deref(),
        Some(&promoted[..]),
        "winner's record intact"
    );

    // With the race over, the un-promote converges: it re-reads
    // epoch 2 and wins, returning ownership to ring order.
    let om = Rc::clone(&c.owner_map);
    let u3 = Rc::clone(&unpromote_won);
    let ring = ring_order.clone();
    on_core0(&c.owner, (om, u3), move |(om, u3)| {
        unpromote(&om, gid, ring, move |won| u3.set(Some(won)));
    });
    c.w.run_to_idle();
    assert_eq!(unpromote_won.get(), Some(true), "quiet retry converges");
    let record: RecordCell = Rc::new(Cell::new(None));
    let om = Rc::clone(&c.owner_map);
    let r3 = Rc::clone(&record);
    on_core0(&c.owner, (om, r3), move |(om, r3)| {
        om.invalidate(gid);
        om.get_versioned(gid, move |r| r3.set(r));
    });
    c.w.run_to_idle();
    let (epoch, data) = record.take().expect("record resolves");
    assert_eq!(epoch, 3);
    assert_eq!(
        global_map::decode_owners(&data).as_deref(),
        Some(&ring_order[..]),
        "ownership converged back to ring placement"
    );
}

#[test]
fn retry_backoff_never_decreases_and_saturates_at_its_cap() {
    for base in [0, 1, 3, 1_000_000, 7_777_777, u64::MAX / 3, u64::MAX] {
        for max in [16_000_000, u64::MAX] {
            let policy = RetryPolicy {
                budget: 256,
                backoff_base_ns: base,
                backoff_max_ns: max,
            };
            let mut prev = 0;
            for attempt in 0..=200 {
                let b = policy.backoff_ns(attempt);
                assert!(
                    b >= prev && b <= max,
                    "base {base}, max {max}: attempt {attempt} backs off {b} after {prev}"
                );
                prev = b;
            }
            let expect_top = if base == 0 { 0 } else { max };
            assert_eq!(prev, expect_top, "base {base}, max {max}");
        }
    }
    // The default policy's attempts 58–63 used to shift its base's
    // bits off the top and back off 0 ns.
    let default = RetryPolicy::default();
    for attempt in 4..=63 {
        assert_eq!(default.backoff_ns(attempt), default.backoff_max_ns);
    }
}
