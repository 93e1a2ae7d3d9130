//! N-core RSS sweep: the multi-queue, multi-size-class steady-state
//! workload.
//!
//! PR 1 proved the zero-copy/zero-allocation property for one size
//! class on one core. This module drives the production-shaped version
//! of the same claim: `cores`-core server and client machines, many
//! connections sharded across event cores by RSS, **deliberately
//! skewed** traffic (one hot connection issuing several times the
//! requests of the warm ones), and a workload that exercises *both*
//! buffer size classes — 512-byte values served from the small (2 KiB)
//! class and multi-kilobyte values staged and served through the large
//! (64 KiB) class.
//!
//! The run is phased, with a barrier between phases so the per-core
//! IOBuf counters can be snapshotted at quiescent points:
//!
//! 1. **Warmup** — explicit per-core pool prewarm, then every
//!    connection cycles SET(large) → GET(large) → GET(small) until the
//!    per-core pools reach their steady working set. (The sweep used
//!    to need an unmeasured *dry run before each measured phase* to
//!    reach that phase's pool fixpoint; the flux-adaptive depot
//!    watermark plus home-core mailboxes for cross-machine frees made
//!    them unnecessary — both dry passes are gone.)
//! 2. **Steady GETs** (measured) — every connection alternates
//!    GET(large) / GET(small) with the hot-connection skew. Asserts
//!    the full property: **0 payload bytes copied and 0 fresh buffer
//!    allocations** — which covers both size classes — with the small
//!    class actively recycling.
//! 3. **SET refresh** (measured) — every connection re-SETs its large
//!    value, the hot connection many times more than the warm ones.
//!    Asserts that no `> 2 KiB` SET takes the one-shot-allocation
//!    fallback: the large class serves every staging buffer
//!    (`fallback_allocs == 0`, `hits > 0`) and no fresh region is
//!    allocated at all.
//!
//! Pools are owned per machine (the buffer-pool Ebb), so the skewed
//! buffer flows surface two kinds of migration the report quantifies:
//! same-machine cross-core rebalancing through the depot, and
//! cross-machine home-returns through the owning core's mailbox (a
//! frame allocated on the client, freed under the server's runtime,
//! posts back to its allocating core). The per-queue NIC load split
//! proves the skew was real.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::Arc;

use ebbrt_apps::memcached::{self, Client, Header, Workload};
use ebbrt_apps::spawn_with;
use ebbrt_core::clock::Ns;
use ebbrt_core::cpu::CoreId;
use ebbrt_core::iobuf::pool::SizeClass;
use ebbrt_core::iobuf::{stats, Chain, IoBuf, MutIoBuf};
use ebbrt_core::runtime::Runtime;
use ebbrt_net::netif::TcpConn;
use ebbrt_net::types::Ipv4Addr;
use ebbrt_sim::{CostProfile, Lan, SimMachine};

/// Sweep parameters.
#[derive(Clone)]
pub struct SweepConfig {
    /// Event cores per machine (server and client).
    pub cores: usize,
    /// TCP connections, round-robined over client cores.
    pub conns: usize,
    /// Small-class value size (served via the 2 KiB class).
    pub small_value: usize,
    /// Large-class value size (staged and served via the 64 KiB
    /// class; must exceed the small class's capacity).
    pub large_value: usize,
    /// Warmup cycles per connection (SET + GET large + GET small).
    pub warmup_cycles: u32,
    /// Measured requests per *warm* connection in each measured phase.
    pub warm_requests: u32,
    /// Skew factor: the hot connection issues this many times the
    /// warm quota.
    pub hot_multiplier: u32,
}

impl SweepConfig {
    /// The default shape for `cores` cores: 2 connections per core,
    /// 512 B / 20 KiB values, 8× skew on the hot connection.
    pub fn for_cores(cores: usize) -> SweepConfig {
        SweepConfig {
            cores,
            conns: 2 * cores,
            small_value: 512,
            large_value: 20 * 1024,
            warmup_cycles: 16,
            warm_requests: 32,
            hot_multiplier: 8,
        }
    }
}

/// Per-class measured-phase deltas.
#[derive(Clone, Copy, Debug)]
pub struct ClassReport {
    /// Pool hits during the phase.
    pub hits: u64,
    /// Pool-missed (fallback) allocations during the phase.
    pub fallback_allocs: u64,
    /// Regions pulled from the depot (cross-core migration, consumer
    /// side).
    pub depot_out: u64,
    /// Regions flushed to the depot (producer side).
    pub depot_in: u64,
}

impl ClassReport {
    fn from_delta(d: &stats::ClassCounters) -> ClassReport {
        ClassReport {
            hits: d.hits,
            fallback_allocs: d.fallback_allocs,
            depot_out: d.depot_out,
            depot_in: d.depot_in,
        }
    }
}

/// One measured phase's outcome.
#[derive(Clone, Copy, Debug)]
pub struct PhaseReport {
    /// Requests completed in the phase.
    pub requests: u64,
    /// Virtual nanoseconds the phase took.
    pub elapsed_ns: u64,
    /// Payload bytes copied.
    pub bytes_copied: u64,
    /// Fresh buffer-storage allocations.
    pub bufs_allocated: u64,
    /// Small-class activity.
    pub small: ClassReport,
    /// Large-class activity.
    pub large: ClassReport,
}

/// The whole sweep's outcome for one core count.
#[derive(Clone, Debug)]
pub struct SweepReport {
    /// Cores per machine.
    pub cores: usize,
    /// Connections driven.
    pub conns: usize,
    /// Connections whose server-side RSS core differs from their
    /// client core (the flows that force cross-core buffer migration).
    pub cross_core_conns: usize,
    /// The measured SET-refresh phase.
    pub set_phase: PhaseReport,
    /// The measured steady-GET phase.
    pub get_phase: PhaseReport,
    /// Frames delivered per server NIC queue over the whole run
    /// (quantifies the RSS skew).
    pub server_queue_frames: Vec<u64>,
}

/// Phase indices. The per-phase dry runs are gone (see module docs):
/// prewarmed per-core cushions, the flux-adaptive watermark and the
/// cross-machine home-core mailboxes bring each phase to pool
/// fixpoint straight out of warmup.
const WARMUP: usize = 0;
const STEADY_GET: usize = 1;
const SET_REFRESH: usize = 2;
const DONE: usize = 3;
const NPHASES: usize = DONE;

struct Controller {
    phase: Cell<usize>,
    waiting: Cell<usize>,
    nconns: usize,
    /// Stats snapshot and virtual time at each phase boundary.
    marks: RefCell<Vec<(stats::Snapshot, u64)>>,
    /// Requests completed per phase.
    completed: [Cell<u64>; NPHASES],
    client: Rc<SimMachine>,
    /// Server + client runtimes: pool counters are per machine (the
    /// pool is a runtime-owned Ebb); the sweep's properties are world
    /// totals.
    world: Vec<Arc<Runtime>>,
    conns: RefCell<Vec<Rc<Client<SweepConn>>>>,
}

impl Controller {
    fn mark(&self) {
        // Read virtual time through the machine handle: the first mark
        // happens from the driving thread, outside any event.
        let now = self.client.runtime().now_ns();
        let snap = stats::world_snapshot(self.world.iter().map(Arc::as_ref));
        self.marks.borrow_mut().push((snap, now));
    }

    /// Called by a connection that finished its quota for the current
    /// phase. When the last one arrives, the phase advances and every
    /// connection is kicked — on its own affinity core — to start the
    /// next one.
    fn phase_done(self: &Rc<Self>) {
        self.waiting.set(self.waiting.get() + 1);
        if self.waiting.get() < self.nconns {
            return;
        }
        self.waiting.set(0);
        self.mark();
        let next = self.phase.get() + 1;
        self.phase.set(next);
        if next >= DONE {
            return;
        }
        for sc in self.conns.borrow().iter() {
            let core = sc.conn().and_then(|c| c.core()).expect("live connection");
            spawn_with(&self.client, core, Rc::clone(sc), |sc| {
                sc.workload.start_phase(&sc)
            });
        }
    }
}

/// The closed-loop workload steps.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Step {
    SetLarge,
    GetLarge,
    GetSmall,
}

struct SweepConn {
    idx: usize,
    ctrl: Rc<Controller>,
    cfg: SweepConfig,
    /// Frozen GET request frames, cloned per send (no allocation).
    get_small: IoBuf,
    get_large: IoBuf,
    /// SET request template, staged into a pooled large buffer per
    /// send — the allocation the large class must absorb.
    set_template: Rc<Vec<u8>>,
    /// Remaining full cycles/requests in the current phase.
    quota: Cell<u32>,
    step: Cell<Step>,
}

impl SweepConn {
    fn quota_for(&self, phase: usize) -> u32 {
        let skew = if self.idx == 0 {
            self.cfg.hot_multiplier
        } else {
            1
        };
        // Warmup has the same skewed shape as the measured phases, so
        // the per-core working set it grows covers the hot
        // connection's burst demand.
        match phase {
            WARMUP => self.cfg.warmup_cycles * skew,
            STEADY_GET | SET_REFRESH => self.cfg.warm_requests * skew,
            _ => 0,
        }
    }

    fn start_phase(&self, client: &Client<Self>) {
        let phase = self.ctrl.phase.get();
        self.quota.set(self.quota_for(phase));
        self.step.set(match phase {
            STEADY_GET => Step::GetLarge,
            _ => Step::SetLarge,
        });
        self.fire(client);
    }

    /// Sends the current step's request (closed loop: exactly one
    /// outstanding).
    fn fire(&self, client: &Client<Self>) {
        let frame = match self.step.get() {
            Step::SetLarge => {
                // Stage the pre-encoded frame into a pooled buffer of
                // the large class — the per-request allocation that
                // previously fell back to a one-shot heap allocation.
                let t = &*self.set_template;
                let mut buf = MutIoBuf::with_capacity(t.len());
                buf.append_slice(t);
                debug_assert_eq!(buf.size_class(), Some(SizeClass::LARGE));
                buf.freeze()
            }
            Step::GetLarge => self.get_large.clone(),
            Step::GetSmall => self.get_small.clone(),
        };
        let _ = client.send(Chain::single(frame));
    }

    /// Advances the cycle after a full response; returns false when
    /// the phase quota is exhausted.
    fn advance(&self) -> bool {
        let phase = self.ctrl.phase.get();
        let (next, cycle_done) = match (phase, self.step.get()) {
            (WARMUP, Step::SetLarge) => (Step::GetLarge, false),
            (WARMUP, Step::GetLarge) => (Step::GetSmall, false),
            (WARMUP, Step::GetSmall) => (Step::SetLarge, true),
            (SET_REFRESH, _) => (Step::SetLarge, true),
            (STEADY_GET, Step::GetLarge) => (Step::GetSmall, false),
            (STEADY_GET, _) => (Step::GetLarge, true),
            _ => return false,
        };
        self.ctrl.completed[phase].set(self.ctrl.completed[phase].get() + 1);
        self.step.set(next);
        if cycle_done {
            let left = self.quota.get() - 1;
            self.quota.set(left);
            if left == 0 {
                return false;
            }
        }
        true
    }
}

impl Workload for SweepConn {
    // The controller kicks every connection into the warmup phase once
    // all of them are connected; nothing to do on connect.

    fn on_reply(&self, client: &Client<Self>, _h: &Header, _value: Chain<IoBuf>, _latency: Ns) {
        if self.advance() {
            self.fire(client);
        } else {
            self.ctrl.phase_done();
        }
    }
}

/// Runs the sweep for one configuration and returns the report; the
/// caller asserts on it.
pub fn run(cfg: &SweepConfig) -> SweepReport {
    assert!(cfg.conns >= 1 && cfg.cores >= 1);
    let lan = Lan::new();
    let w = &lan.world;
    let vm = CostProfile::ebbrt_vm;
    let server_ip = Ipv4Addr::new(10, 0, 0, 1);
    let (server, _s_if) = lan.machine("server", cfg.cores, vm(), [0xAA, 0, 0, 0, 0, 1], server_ip);
    let (client, _c_if) = lan.machine(
        "client",
        cfg.cores,
        vm(),
        [0xBB, 0, 0, 0, 0, 1],
        Ipv4Addr::new(10, 0, 0, 2),
    );
    w.run_to_idle();

    let store = memcached::serve_on(&server);
    // The shared small-class key; each connection owns its large key
    // and keeps re-SETting it over the network.
    store.insert_raw(
        b"sweep-small".to_vec(),
        IoBuf::copy_from(&vec![0x5A; cfg.small_value]),
    );
    // Pre-grow every core's small-class cushion: phase compositions
    // differ (a pure-GET phase wants many more per-segment header
    // buffers on the server than the mixed warmup), and explicitly
    // prewarming replaces the per-phase dry runs the sweep used to
    // need to reach each phase's pool fixpoint. The allocations are
    // real and counted — which is why they happen before the first
    // measurement mark.
    for machine in [&server, &client] {
        for c in 0..cfg.cores {
            machine.spawn(CoreId(c as u32), || {
                ebbrt_core::iobuf::pool::prewarm(64);
            });
        }
    }
    w.run_to_idle();

    let ctrl = Rc::new(Controller {
        phase: Cell::new(WARMUP),
        waiting: Cell::new(0),
        nconns: cfg.conns,
        marks: RefCell::new(Vec::new()),
        completed: Default::default(),
        client: Rc::clone(&client),
        world: vec![Arc::clone(server.runtime()), Arc::clone(client.runtime())],
        conns: RefCell::new(Vec::new()),
    });

    for i in 0..cfg.conns {
        let key = format!("sweep-large-{i:04}").into_bytes();
        let sc = SweepConn {
            idx: i,
            ctrl: Rc::clone(&ctrl),
            cfg: cfg.clone(),
            get_small: MutIoBuf::from_vec(memcached::encode_get(b"sweep-small", 1)).freeze(),
            get_large: MutIoBuf::from_vec(memcached::encode_get(&key, 2)).freeze(),
            set_template: Rc::new(memcached::encode_set(&key, &vec![0xA5; cfg.large_value], 3)),
            quota: Cell::new(0),
            step: Cell::new(Step::SetLarge),
        };
        let core = CoreId((i % cfg.cores) as u32);
        let sc = Client::spawn(&client, core, server_ip, sc);
        ctrl.conns.borrow_mut().push(sc);
    }
    w.run_to_idle(); // all handshakes complete

    // How many flows actually cross cores (client core != the server
    // core RSS steers their requests to) — these are the flows whose
    // buffers migrate through the depot.
    let cross_core_conns = ctrl
        .conns
        .borrow()
        .iter()
        .map(|sc| {
            let tuple = sc
                .conn()
                .as_ref()
                .and_then(TcpConn::tuple)
                .expect("established");
            let server_q = ebbrt_net::nic::rss_hash(
                tuple.local.0.to_u32(),
                tuple.remote.0.to_u32(),
                tuple.local.1,
                tuple.remote.1,
            ) as usize
                % cfg.cores;
            usize::from(server_q != sc.workload.idx % cfg.cores)
        })
        .sum();

    // Kick off warmup on every connection, then run the phased
    // workload to completion (the controller's barrier advances the
    // phases).
    ctrl.mark();
    for sc in ctrl.conns.borrow().iter() {
        let core = CoreId((sc.workload.idx % cfg.cores) as u32);
        spawn_with(&client, core, Rc::clone(sc), |sc| {
            sc.workload.start_phase(&sc)
        });
    }
    w.run_to_idle();
    assert_eq!(ctrl.phase.get(), DONE, "sweep did not complete");

    let marks = ctrl.marks.borrow();
    let phase_report = |phase: usize| {
        let (ref before, t0) = marks[phase];
        let (ref after, t1) = marks[phase + 1];
        let d = after.since(before);
        PhaseReport {
            requests: ctrl.completed[phase].get(),
            elapsed_ns: t1 - t0,
            bytes_copied: d.bytes_copied,
            bufs_allocated: d.bufs_allocated,
            small: ClassReport::from_delta(d.class(SizeClass::SMALL)),
            large: ClassReport::from_delta(d.class(SizeClass::LARGE)),
        }
    };
    SweepReport {
        cores: cfg.cores,
        conns: cfg.conns,
        cross_core_conns,
        set_phase: phase_report(SET_REFRESH),
        get_phase: phase_report(STEADY_GET),
        server_queue_frames: (0..server.nic().nqueues())
            .map(|q| server.nic().rx_queue_stats(q).0)
            .collect(),
    }
}

/// Asserts the production-shaped zero-copy claim on a report (the
/// `iobuf_path` bench at every core count, and the lib test at 4).
pub fn assert_properties(r: &SweepReport) {
    // Steady-state GETs: the full property, covering both classes.
    assert_eq!(
        r.get_phase.bytes_copied, 0,
        "steady-state GETs must copy zero payload bytes"
    );
    assert_eq!(
        r.get_phase.bufs_allocated, 0,
        "steady-state GETs must allocate zero fresh buffers (both classes)"
    );
    assert_eq!(
        (
            r.get_phase.small.fallback_allocs,
            r.get_phase.large.fallback_allocs
        ),
        (0, 0),
        "no size class may miss its pool in steady state"
    );
    assert!(
        r.get_phase.small.hits > 0,
        "steady-state GETs must recycle small-class buffers"
    );
    // SET refresh: > 2 KiB SETs are served by the large class — no
    // one-shot-allocation fallback, no fresh regions at all.
    assert_eq!(
        r.set_phase.bufs_allocated, 0,
        "pool-hot SET staging must allocate zero fresh buffers"
    );
    assert_eq!(
        r.set_phase.large.fallback_allocs, 0,
        "> 2 KiB SETs must not take the one-shot-allocation fallback"
    );
    assert!(
        r.set_phase.large.hits > 0,
        "> 2 KiB SET staging must be served by the large class"
    );
    // The skew must be real: the hottest server queue saw more
    // traffic than the coolest.
    if r.cores > 1 {
        let hot = r.server_queue_frames.iter().max().unwrap();
        let cold = r.server_queue_frames.iter().min().unwrap();
        assert!(
            hot > cold,
            "the deliberately skewed workload must load queues unevenly"
        );
    }
    // Cross-core flows exist, so the per-core pools must have
    // rebalanced through the depot rather than growing fresh storage.
    if r.cross_core_conns > 0 {
        let migrated = r.set_phase.large.depot_out
            + r.set_phase.small.depot_out
            + r.get_phase.large.depot_out
            + r.get_phase.small.depot_out;
        assert!(
            migrated > 0,
            "cross-core flows must drive depot migration, not fresh allocation"
        );
    }
}

/// Formats one report as human-readable lines (the `iobuf_path` bench
/// prints one per core count).
pub fn format_report(r: &SweepReport) -> String {
    let gp = &r.get_phase;
    let sp = &r.set_phase;
    let get_us = gp.elapsed_ns as f64 / gp.requests.max(1) as f64 / 1000.0;
    format!(
        "cores={} conns={} (cross-core {})\n\
         \x20 SET refresh : {:>6} reqs  alloc={} large[hits={} fallback={} depot out/in={}/{}]\n\
         \x20 steady GETs : {:>6} reqs  {:.2} vus/req  copied={} alloc={} \
         small[hits={} depot out/in={}/{}] large[hits={} depot out/in={}/{}]\n\
         \x20 server queue frames: {:?}",
        r.cores,
        r.conns,
        r.cross_core_conns,
        sp.requests,
        sp.bufs_allocated,
        sp.large.hits,
        sp.large.fallback_allocs,
        sp.large.depot_out,
        sp.large.depot_in,
        gp.requests,
        get_us,
        gp.bytes_copied,
        gp.bufs_allocated,
        gp.small.hits,
        gp.small.depot_out,
        gp.small.depot_in,
        gp.large.hits,
        gp.large.depot_out,
        gp.large.depot_in,
        r.server_queue_frames,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_core_skewed_sweep_holds_zero_copy_property() {
        let r = run(&SweepConfig::for_cores(4));
        println!("{}", format_report(&r));
        assert!(r.cross_core_conns > 0, "RSS must split flows across cores");
        assert_properties(&r);
    }
}
