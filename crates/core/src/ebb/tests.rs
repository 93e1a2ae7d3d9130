use super::*;
use std::sync::atomic::AtomicUsize;

struct CounterEbb {
    core: CoreId,
    local: std::cell::Cell<usize>,
    _root: Arc<CounterRoot>,
}

#[derive(Default)]
struct CounterRoot {
    reps_created: AtomicUsize,
}

impl MulticoreEbb for CounterEbb {
    type Root = CounterRoot;
    fn create_rep(root: &Arc<CounterRoot>, core: CoreId) -> Self {
        root.reps_created.fetch_add(1, Ordering::SeqCst);
        CounterEbb {
            core,
            local: std::cell::Cell::new(0),
            _root: Arc::clone(root),
        }
    }
}

impl CounterEbb {
    fn bump(&self) -> usize {
        self.local.set(self.local.get() + 1);
        self.local.get()
    }
}

/// The Ebb call against a bare manager, from (bound) core `core`.
fn on<T: MulticoreEbb, R>(mgr: &EbbManager, core: u32, id: EbbId, f: impl FnOnce(&T) -> R) -> R {
    mgr.with_rep_on(CoreId(core), id, f)
}

#[test]
fn lazy_rep_construction_per_core() {
    let mgr = EbbManager::new(2, 128);
    let id = mgr.allocate_id();
    mgr.register_root::<CounterEbb>(id, CounterRoot::default());

    {
        let _b = cpu::bind(CoreId(0));
        assert!(!mgr.has_rep(id, CoreId(0)));
        assert_eq!(on(&mgr, 0, id, CounterEbb::bump), 1);
        assert!(mgr.has_rep(id, CoreId(0)));
        assert_eq!(on(&mgr, 0, id, CounterEbb::bump), 2);
        assert_eq!(on(&mgr, 0, id, |r: &CounterEbb| r.core), CoreId(0));
    }
    {
        let _b = cpu::bind(CoreId(1));
        // Fresh rep, independent counter.
        assert_eq!(on(&mgr, 1, id, CounterEbb::bump), 1);
    }
    let root = mgr.root::<CounterEbb>(id).unwrap();
    assert_eq!(root.reps_created.load(Ordering::SeqCst), 2);
}

#[test]
fn ids_are_unique_and_dynamic() {
    let mgr = EbbManager::new(1, 128);
    let a = mgr.allocate_id();
    let b = mgr.allocate_id();
    assert_ne!(a, b);
    assert!(a.0 >= FIRST_DYNAMIC_ID);
}

#[test]
#[should_panic(expected = "Ebb miss on EbbId(70): no root registered")]
fn miss_without_root_panics() {
    // The root-only policy (the provided fault handler): a miss with no
    // root is a wiring error, named by id.
    let mgr = EbbManager::new(1, 128);
    let _b = cpu::bind(CoreId(0));
    on(&mgr, 0, EbbId(70), CounterEbb::bump);
}

#[test]
#[should_panic(expected = "root already registered")]
fn double_root_registration_panics() {
    let mgr = EbbManager::new(1, 128);
    let id = mgr.allocate_id();
    mgr.register_root::<CounterEbb>(id, CounterRoot::default());
    mgr.register_root::<CounterEbb>(id, CounterRoot::default());
}

struct OtherEbb;
impl MulticoreEbb for OtherEbb {
    type Root = ();
    fn create_rep(_: &Arc<()>, _: CoreId) -> Self {
        OtherEbb
    }
}

#[test]
#[should_panic(expected = "invoked as")]
fn type_mismatch_panics() {
    let mgr = EbbManager::new(1, 128);
    let id = mgr.allocate_id();
    mgr.register_root::<CounterEbb>(id, CounterRoot::default());
    let _b = cpu::bind(CoreId(0));
    on(&mgr, 0, id, |_: &OtherEbb| ());
}

#[test]
fn install_rep_bypasses_root() {
    let mgr = EbbManager::new(1, 128);
    let id = mgr.allocate_id();
    let _b = cpu::bind(CoreId(0));
    mgr.install_rep(
        id,
        CoreId(0),
        CounterEbb {
            core: CoreId(0),
            local: std::cell::Cell::new(41),
            _root: Arc::new(CounterRoot::default()),
        },
    );
    assert_eq!(on(&mgr, 0, id, CounterEbb::bump), 42);
}

/// [`CounterEbb`] under the lazy-registration policy: its fault handler
/// registers `CounterRoot::default()` when the id has no root.
struct LazyCounterEbb(CounterEbb);
impl MulticoreEbb for LazyCounterEbb {
    type Root = CounterRoot;
    fn create_rep(root: &Arc<CounterRoot>, core: CoreId) -> Self {
        LazyCounterEbb(CounterEbb::create_rep(root, core))
    }
    fn handle_fault(ebbs: &EbbManager, id: EbbId, core: CoreId) -> Self {
        Self::create_rep(&ebbs.root_or_default::<Self>(id), core)
    }
}

#[test]
fn concurrent_miss_faults_exactly_one_rep_per_core() {
    // The miss-path race: N threads, bound to N distinct cores of
    // one runtime, fault the same id of a *lazily registered* type at
    // the same moment (no pre-registered root, so root registration
    // races too). Exactly one root and one rep per core may result.
    use crate::clock::ManualClock;
    use crate::runtime::{self, Runtime};
    const N: usize = 8;
    let rt = Runtime::new(N, Arc::new(ManualClock::new()));
    let id = rt.ebbs().allocate_id();
    let barrier = Arc::new(std::sync::Barrier::new(N));
    let handles: Vec<_> = (0..N)
        .map(|i| {
            let rt = Arc::clone(&rt);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let _g = runtime::enter(Arc::clone(&rt), CoreId(i as u32));
                barrier.wait();
                let ebb = EbbRef::<LazyCounterEbb>::from_id(id);
                let mut last = 0;
                for _ in 0..64 {
                    last = ebb.with(|r| r.0.bump());
                }
                last
            })
        })
        .collect();
    for h in handles {
        // Each core's rep counted its own 64 bumps: no sharing, no
        // double-construction clobbering counts.
        assert_eq!(h.join().unwrap(), 64);
    }
    let root = rt
        .ebbs()
        .root::<LazyCounterEbb>(id)
        .expect("root registered");
    assert_eq!(root.reps_created.load(Ordering::SeqCst), N);
    for i in 0..N {
        assert!(rt.ebbs().has_rep(id, CoreId(i as u32)));
    }
}

#[test]
fn lazy_path_registers_default_root_once() {
    use crate::clock::ManualClock;
    use crate::runtime::{self, Runtime};
    let rt = Runtime::new(1, Arc::new(ManualClock::new()));
    let _g = runtime::enter(Arc::clone(&rt), CoreId(0));
    let ebb = EbbRef::<LazyCounterEbb>::from_id(EbbId(33));
    assert!(rt.ebbs().root::<LazyCounterEbb>(EbbId(33)).is_none());
    assert_eq!(ebb.with(|r| r.0.bump()), 1);
    let root = rt
        .ebbs()
        .root::<LazyCounterEbb>(EbbId(33))
        .expect("default root registered by the miss");
    assert_eq!(root.reps_created.load(Ordering::SeqCst), 1);
    // Steady state: the fast path, no second registration/rep.
    assert_eq!(ebb.with(|r| r.0.bump()), 2);
    assert_eq!(root.reps_created.load(Ordering::SeqCst), 1);
}

#[test]
fn well_known_table_is_stable_and_reserved() {
    for w in [
        SystemEbb::BufferPool,
        SystemEbb::Fs,
        SystemEbb::GlobalMap,
        SystemEbb::NetStats,
        SystemEbb::EventManager,
        SystemEbb::Messenger,
        SystemEbb::Remote,
        SystemEbb::RemoteBatch,
        SystemEbb::Counters,
        SystemEbb::Qos,
        SystemEbb::ConnCold,
    ] {
        assert!(w.id().0 < FIRST_DYNAMIC_ID, "{w:?} must be well-known");
    }
    assert_eq!(SystemEbb::Fs.id(), EbbId(2), "wire id: messenger fs");
    assert_eq!(SystemEbb::GlobalMap.id(), EbbId(3), "wire id: naming");
    assert_eq!(
        SystemEbb::RemoteBatch.id(),
        EbbId(8),
        "wire id: batched remote calls"
    );
    assert!(SystemEbb::is_wire_id(SystemEbb::Fs.id()));
    assert!(SystemEbb::is_wire_id(SystemEbb::GlobalMap.id()));
    assert!(SystemEbb::is_wire_id(SystemEbb::RemoteBatch.id()));
    assert!(!SystemEbb::is_wire_id(SystemEbb::EventManager.id()));
    assert!(!SystemEbb::is_wire_id(SystemEbb::Counters.id()));
    assert!(!SystemEbb::is_wire_id(SystemEbb::Qos.id()));
    assert!(!SystemEbb::is_wire_id(SystemEbb::ConnCold.id()));
    assert!(!SystemEbb::is_wire_id(EbbId(FIRST_DYNAMIC_ID)));
}

#[test]
fn global_ids_resolve_through_the_overflow_table() {
    // A GlobalIdMap-minted id lives far beyond the dense table
    // (1 << 20 vs capacity 128); reps must install, resolve, be
    // visited by for_each_rep, and drop with the manager.
    let drops = Arc::new(AtomicUsize::new(0));
    struct ExtRep(Arc<AtomicUsize>, std::cell::Cell<usize>);
    impl Drop for ExtRep {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }
    impl MulticoreEbb for ExtRep {
        type Root = Arc<AtomicUsize>;
        fn create_rep(root: &Arc<Arc<AtomicUsize>>, _: CoreId) -> Self {
            ExtRep(Arc::clone(root), std::cell::Cell::new(0))
        }
    }
    let gid = EbbId((1 << 20) + 7);
    {
        let mgr = EbbManager::new(2, 128);
        mgr.register_root::<ExtRep>(gid, Arc::clone(&drops));
        for core in 0..2u32 {
            let _b = cpu::bind(CoreId(core));
            assert!(!mgr.has_rep(gid, CoreId(core)));
            on(&mgr, core, gid, |r: &ExtRep| r.1.set(r.1.get() + 1));
            assert!(mgr.has_rep(gid, CoreId(core)));
            on(&mgr, core, gid, |r: &ExtRep| r.1.set(r.1.get() + 1));
        }
        let mut seen = Vec::new();
        mgr.for_each_rep::<ExtRep>(gid, |core, r| seen.push((core, r.1.get())));
        assert_eq!(seen, vec![(CoreId(0), 2), (CoreId(1), 2)]);
    }
    assert_eq!(
        drops.load(Ordering::SeqCst),
        2,
        "ext reps freed with manager"
    );
}

use crate::iobuf::wire::WireWriter;

/// A distributed counter under the proxy-capable policy: real rep where
/// the root is registered, shipping proxy elsewhere. The mock transport echoes the payload length back.
struct DistEbb {
    kind: DistKind,
}
enum DistKind {
    Local(Arc<AtomicUsize>),
    Proxy(RemoteShipper),
}
impl MulticoreEbb for DistEbb {
    type Root = Arc<AtomicUsize>;
    fn create_rep(root: &Arc<Arc<AtomicUsize>>, _: CoreId) -> Self {
        DistEbb {
            kind: DistKind::Local(Arc::clone(root)),
        }
    }
    fn handle_fault(ebbs: &EbbManager, id: EbbId, core: CoreId) -> Self {
        match ebbs.root::<Self>(id) {
            Some(root) => Self::create_rep(&root, core),
            None => DistEbb {
                kind: DistKind::Proxy(ebbs.shipper(core, id)),
            },
        }
    }
}
impl DistributedEbb for DistEbb {
    fn handle_remote(&self, payload: Payload, respond: impl FnOnce(Payload) + 'static) {
        match &self.kind {
            DistKind::Local(hits) => {
                hits.fetch_add(1, Ordering::SeqCst);
                respond(WireWriter::op(payload.len() as u8).finish());
            }
            DistKind::Proxy(_) => unreachable!("proxy asked to serve"),
        }
    }
}
impl DistEbb {
    fn poke(&self, n: usize, done: impl FnOnce(RemoteResult<u8>) + 'static) {
        match &self.kind {
            DistKind::Local(hits) => {
                hits.fetch_add(1, Ordering::SeqCst);
                done(Ok(n as u8));
            }
            DistKind::Proxy(sh) => {
                let mut req = WireWriter::new();
                req.tail(&vec![0; n]);
                sh.call(req.finish(), |r| {
                    done(r.map(|resp| resp.cursor().read_u8().unwrap_or(0)))
                })
            }
        }
    }
}

/// A transport that "delivers" to an owner manager living in the
/// same process: ships by invoking the owner rep's handle_remote
/// with the very chain the proxy marshalled.
struct LoopbackTransport {
    owner: Arc<crate::runtime::Runtime>,
}
impl RemoteTransport for LoopbackTransport {
    fn ship(&self, id: EbbId, payload: Payload, reply: RemoteReply) {
        let _g = crate::runtime::enter(Arc::clone(&self.owner), CoreId(0));
        self.owner
            .ebbs()
            .with_rep_on::<DistEbb, _>(CoreId(0), id, |rep| {
                rep.handle_remote(payload, move |resp| reply.call(Ok(resp)))
            });
    }
}

#[test]
fn distributed_miss_installs_function_shipping_proxy() {
    use crate::clock::ManualClock;
    use crate::runtime::{self, Runtime};
    let owner = Runtime::new(1, Arc::new(ManualClock::new()));
    let client = Runtime::new(1, Arc::new(ManualClock::new()));
    let gid = EbbId((1 << 20) + 42);
    let hits = Arc::new(AtomicUsize::new(0));
    owner
        .ebbs()
        .register_root::<DistEbb>(gid, Arc::clone(&hits));

    // Install the transport on the client machine.
    runtime::install_on_all_cores(&client, SystemEbb::Remote.id(), |_| {
        RemoteTransportEbb::new(std::rc::Rc::new(LoopbackTransport {
            owner: Arc::clone(&owner),
        }))
    });

    let ebb = EbbRef::<DistEbb>::from_id(gid);
    let got = std::rc::Rc::new(std::cell::Cell::new(None));
    {
        let _g = runtime::enter(Arc::clone(&client), CoreId(0));
        let g2 = std::rc::Rc::clone(&got);
        ebb.with(|rep| rep.poke(5, move |r| g2.set(Some(r))));
        assert!(client.ebbs().has_rep(gid, CoreId(0)), "proxy installed");
    }
    assert_eq!(got.get(), Some(Ok(5)), "call function-shipped to the owner");
    assert_eq!(hits.load(Ordering::SeqCst), 1, "served by the owner rep");
    // On the owner machine the same ref dispatches locally.
    {
        let _g = runtime::enter(Arc::clone(&owner), CoreId(0));
        let g2 = std::rc::Rc::clone(&got);
        ebb.with(|rep| rep.poke(9, move |r| g2.set(Some(r))));
    }
    assert_eq!(got.get(), Some(Ok(9)));
    assert_eq!(hits.load(Ordering::SeqCst), 2);
}

#[test]
#[should_panic(expected = "installed by the hosted layer's MessengerTransport::install")]
fn distributed_miss_without_transport_panics_clearly() {
    // The proxy-capable fault handler reaches for the transport, whose
    // own (installed-only) fault policy names the attach call.
    use crate::clock::ManualClock;
    use crate::runtime::{self, Runtime};
    let rt = Runtime::new(1, Arc::new(ManualClock::new()));
    let _g = runtime::enter(Arc::clone(&rt), CoreId(0));
    EbbRef::<DistEbb>::from_id(EbbId((1 << 20) + 1)).with(|_| ());
}

#[test]
fn reps_are_dropped_with_manager() {
    struct DropTracker(Arc<AtomicUsize>);
    impl Drop for DropTracker {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }
    impl MulticoreEbb for DropTracker {
        type Root = Arc<AtomicUsize>;
        fn create_rep(root: &Arc<Arc<AtomicUsize>>, _: CoreId) -> Self {
            DropTracker(Arc::clone(root))
        }
    }
    let drops = Arc::new(AtomicUsize::new(0));
    {
        let mgr = EbbManager::new(1, 128);
        let id = mgr.allocate_id();
        mgr.register_root::<DropTracker>(id, Arc::clone(&drops));
        let _b = cpu::bind(CoreId(0));
        on(&mgr, 0, id, |_: &DropTracker| ());
        assert_eq!(drops.load(Ordering::SeqCst), 0);
    }
    assert_eq!(drops.load(Ordering::SeqCst), 1);
}

#[test]
fn hash_ring_is_deterministic_and_total() {
    let a = HashRing::new(4, 16);
    let b = HashRing::new(4, 16);
    for key in [&b"alpha"[..], b"beta", b"", b"a-much-longer-key-0123456789"] {
        let r = a.range_of(key);
        assert!(r < 4);
        assert_eq!(r, b.range_of(key), "same ring, same placement");
    }
}

#[test]
fn hash_ring_spreads_keys_across_ranges() {
    let ring = HashRing::new(4, 32);
    let mut hits = [0usize; 4];
    for i in 0..1000u32 {
        hits[ring.range_of(format!("key-{i}").as_bytes()) as usize] += 1;
    }
    for (r, &n) in hits.iter().enumerate() {
        assert!(n > 0, "range {r} received no keys");
    }
}

#[test]
fn hash_ring_successors_are_distinct_and_start_at_range() {
    let ring = HashRing::new(5, 8);
    for range in 0..5 {
        let succ = ring.successors(range, 3);
        assert_eq!(succ.len(), 3);
        assert_eq!(succ[0], range, "replica set starts at the range itself");
        let mut sorted = succ.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 3, "replicas are distinct: {succ:?}");
    }
    // Asking for more replicas than ranges caps at nranges.
    assert_eq!(ring.successors(0, 99).len(), 5);
    // R=1 degenerates to the range itself.
    assert_eq!(ring.successors(2, 1), vec![2]);
}

#[test]
fn hash_ring_grown_bumps_epoch_and_adds_one_range() {
    let ring = HashRing::new(3, 16);
    assert_eq!((ring.nranges(), ring.epoch()), (3, 1));
    let big = ring.grown();
    assert_eq!((big.nranges(), big.epoch(), big.vnodes()), (4, 2, 16));
    // Epoch does not perturb placement: only the point set matters.
    let twin = HashRing::with_epoch(4, 16, 99);
    for i in 0..200u32 {
        let key = format!("epoch-key-{i}");
        assert_eq!(big.range_of(key.as_bytes()), twin.range_of(key.as_bytes()));
    }
}

proptest::proptest! {
    #[test]
    fn hash_ring_placement_is_balanced_within_bounds(
        nranges in 2u32..8,
        seed in 0u64..1000,
    ) {
        let ring = HashRing::new(nranges, 32);
        let nkeys = 2000usize;
        let mut hits = vec![0usize; nranges as usize];
        for i in 0..nkeys {
            let key = format!("bal-{seed}-{i}");
            hits[ring.range_of(key.as_bytes()) as usize] += 1;
        }
        // With 32 vnodes per range the arc lengths concentrate well
        // enough that no range holds more than 4x its fair share —
        // and every range holds something.
        let fair = nkeys / nranges as usize;
        for (r, &n) in hits.iter().enumerate() {
            proptest::prop_assert!(n > 0, "range {} received no keys", r);
            proptest::prop_assert!(
                n < fair * 4,
                "range {} holds {} of {} keys (fair share {})",
                r, n, nkeys, fair
            );
        }
    }

    #[test]
    fn hash_ring_successors_are_disjoint_for_any_shape(
        nranges in 1u32..10,
        vnodes in 1u32..24,
        count in 1usize..12,
    ) {
        let ring = HashRing::new(nranges, vnodes);
        for range in 0..nranges {
            let succ = ring.successors(range, count);
            proptest::prop_assert_eq!(succ[0], range);
            proptest::prop_assert_eq!(
                succ.len(),
                count.clamp(1, nranges as usize),
                "replica set size for range {}", range
            );
            let mut sorted = succ.clone();
            sorted.sort_unstable();
            sorted.dedup();
            proptest::prop_assert_eq!(
                sorted.len(), succ.len(),
                "replica set for range {} repeats a member", range
            );
        }
    }

    #[test]
    fn hash_ring_growth_moves_keys_only_to_the_new_range(
        nranges in 1u32..8,
        vnodes in 1u32..24,
        seed in 0u64..1000,
    ) {
        // Consistent hashing's minimal-movement guarantee, both
        // directions: comparing the n-range ring with its grown
        // (n+1)-range ring, every key whose placement differs moved
        // *to* the added range — no key moved between surviving
        // ranges. Read right-to-left the same check covers remove.
        let small = HashRing::new(nranges, vnodes);
        let big = small.grown();
        let mut moved = 0usize;
        for i in 0..1500usize {
            let key = format!("move-{seed}-{i}");
            let before = small.range_of(key.as_bytes());
            let after = big.range_of(key.as_bytes());
            if before != after {
                proptest::prop_assert_eq!(
                    after, nranges,
                    "key {} moved from {} to {}, not to the new range",
                    key, before, after
                );
                moved += 1;
            }
        }
        // The new range captures roughly 1/(n+1) of the keyspace;
        // it must capture *something* and nowhere near all of it.
        proptest::prop_assert!(moved > 0, "growth moved no keys at all");
        proptest::prop_assert!(moved < 1500, "growth moved every key");
    }
}
