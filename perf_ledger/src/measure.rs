//! Running one phase of a workload and reading every layer's public
//! counters around it, from outside the program.

use std::time::Instant;

use ebbrt_core::cpu::{self, CoreId};
use ebbrt_core::iobuf::stats as iostats;
use ebbrt_core::qos;

use crate::alloc;
use crate::load::{PhaseKind, Tally, WINDOWS};
use crate::trace;
use crate::worlds::World;

/// A reading of every public counter the ledger uses, summed over the
/// machines of the world.
#[derive(Clone, Default)]
pub struct Counts {
    pub ev_interrupts: u64,
    pub ev_synthetic: u64,
    pub ev_timers: u64,
    pub ev_idle: u64,
    pub timer_cascades: u64,
    /// Largest timer slab on any core (a high-water mark).
    pub timer_slab_hwm: u64,
    /// Live timer entries on the busiest server core.
    pub timer_live: u64,
    pub io: iostats::Snapshot,
    pub rx_frames: u64,
    pub tx_frames: u64,
    pub rx_bursts: u64,
    pub coalesced: u64,
    pub rx_drops: u64,
    pub retransmits: u64,
    pub conns_established: u64,
    pub embryonic_evicted: u64,
    pub pcb_slab_hwm: u64,
    pub server_rxq_hwm: u64,
    pub link_frames: u64,
    pub server_cpu_ns: u64,
    pub client_cpu_ns: u64,
    pub msg_dispatched: u64,
    pub msg_failures: u64,
    pub shipped: u64,
    pub retries: u64,
    pub promotions: u64,
    pub batch_flushes: u64,
    pub batched_calls: u64,
}

impl Counts {
    /// What happened since `earlier`: counters are differences,
    /// high-water marks and gauges are this reading's.
    pub fn since(&self, earlier: &Counts) -> Counts {
        let b = earlier;
        Counts {
            ev_interrupts: self.ev_interrupts - b.ev_interrupts,
            ev_synthetic: self.ev_synthetic - b.ev_synthetic,
            ev_timers: self.ev_timers - b.ev_timers,
            ev_idle: self.ev_idle - b.ev_idle,
            timer_cascades: self.timer_cascades - b.timer_cascades,
            timer_slab_hwm: self.timer_slab_hwm,
            timer_live: self.timer_live,
            io: self.io.since(&b.io),
            rx_frames: self.rx_frames - b.rx_frames,
            tx_frames: self.tx_frames - b.tx_frames,
            rx_bursts: self.rx_bursts - b.rx_bursts,
            coalesced: self.coalesced - b.coalesced,
            rx_drops: self.rx_drops - b.rx_drops,
            retransmits: self.retransmits - b.retransmits,
            conns_established: self.conns_established - b.conns_established,
            embryonic_evicted: self.embryonic_evicted - b.embryonic_evicted,
            pcb_slab_hwm: self.pcb_slab_hwm,
            server_rxq_hwm: self.server_rxq_hwm,
            link_frames: self.link_frames - b.link_frames,
            server_cpu_ns: self.server_cpu_ns - b.server_cpu_ns,
            client_cpu_ns: self.client_cpu_ns - b.client_cpu_ns,
            msg_dispatched: self.msg_dispatched - b.msg_dispatched,
            msg_failures: self.msg_failures - b.msg_failures,
            shipped: self.shipped - b.shipped,
            retries: self.retries - b.retries,
            promotions: self.promotions - b.promotions,
            batch_flushes: self.batch_flushes - b.batch_flushes,
            batched_calls: self.batched_calls - b.batched_calls,
        }
    }
}

fn cpu_ns(nodes: &[crate::worlds::Node]) -> u64 {
    nodes
        .iter()
        .map(|n| {
            (0..n.m.runtime().ncores())
                .map(|c| n.m.cpu_time(CoreId(c as u32)))
                .sum::<u64>()
        })
        .sum()
}

pub fn read_counts(world: &World) -> Counts {
    use std::sync::atomic::Ordering::Relaxed;
    let mut c = Counts::default();
    for n in world.nodes() {
        let rt = n.m.runtime();
        for (i, em) in rt.event_managers().iter().enumerate() {
            c.ev_interrupts += em.stats.interrupts.load(Relaxed);
            c.ev_synthetic += em.stats.synthetic.load(Relaxed);
            c.ev_timers += em.stats.timers.load(Relaxed);
            c.ev_idle += em.stats.idle.load(Relaxed);
            // The wheel is owned by its core: read it as that core.
            let _bound = cpu::bind(CoreId(i as u32));
            let ts = em.timer_stats();
            c.timer_cascades += ts.cascades;
            c.timer_slab_hwm = c.timer_slab_hwm.max(ts.slab as u64);
        }
        let s = &n.nif.stats;
        c.rx_frames += s.rx_frames.get();
        c.tx_frames += s.tx_frames.get();
        c.rx_drops += s.rx_drops.get();
        c.retransmits += s.retransmits.get();
        c.conns_established += s.conns_established.get();
        c.rx_bursts += n.nif.rx_bursts();
        c.coalesced += n.nif.coalesced_callbacks();
        c.pcb_slab_hwm = c.pcb_slab_hwm.max(n.nif.conn_high_water() as u64);
        c.embryonic_evicted += qos::snapshot(rt).get("net.embryonic_evicted");
    }
    c.io = iostats::world_snapshot(world.nodes().map(|n| &**n.m.runtime()));
    for n in &world.servers {
        for q in 0..n.m.nic().nqueues() {
            c.server_rxq_hwm = c.server_rxq_hwm.max(n.m.nic().rx_queue_depth_hwm(q) as u64);
        }
        for (i, em) in n.m.runtime().event_managers().iter().enumerate() {
            let _bound = cpu::bind(CoreId(i as u32));
            c.timer_live = c.timer_live.max(em.timer_stats().live as u64);
        }
    }
    let (fwd, flooded) = world.sw.stats();
    c.link_frames = fwd + flooded;
    c.server_cpu_ns = cpu_ns(&world.servers);
    c.client_cpu_ns = cpu_ns(&world.clients);
    for m in &world.messengers {
        c.msg_dispatched += m.dispatched.get();
        c.msg_failures += m.rpc_failures.get();
    }
    for t in &world.transports {
        c.shipped += t.shipped.get();
        c.retries += t.retries.get();
        c.promotions += t.promotions.get();
        c.batch_flushes += t.batch_flushes.get();
        c.batched_calls += t.batched_calls.get();
    }
    c
}

/// Everything one measured phase produced.
pub struct PhaseResult {
    pub tally: Tally,
    pub requests: u64,
    pub steps: u64,
    pub host_ns: u64,
    pub virt_ns: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
    /// Every layer's counters over the phase.
    pub counts: Counts,
    /// Host ns per request of each of the phase's equal windows.
    pub window_ns_per_req: Vec<f64>,
}

/// Virtual time a phase may take before its missing replies are
/// declared unanswered.
const PHASE_VIRT_LIMIT_NS: u64 = 120_000_000_000;
/// Virtual time the world runs on after a phase's last reply.
const SETTLE_NS: u64 = 1_000_000;

/// Arms a phase of `n` requests, starts the clients, and steps the
/// world until every request has completed (or the world goes idle, or
/// the virtual time limit passes — what is missing then is booked as
/// unanswered).
pub fn run_phase(world: &World, kind: PhaseKind, n: u64) -> PhaseResult {
    let sh = &world.sh;
    sh.begin_phase(kind, n);
    let before = read_counts(world);
    let (a0, b0) = alloc::snapshot();
    let v0 = world.w.now();
    let t0 = Instant::now();
    world.kick();
    let mut steps = 0u64;
    let traced = trace::enabled();
    while !sh.done() && world.w.now() - v0 < PHASE_VIRT_LIMIT_NS {
        let more = if traced {
            trace::scope(trace::SPAN_STEP, trace::NO_OPAQUE, || world.w.step())
        } else {
            world.w.step()
        };
        if !more {
            break;
        }
        steps += 1;
    }
    let host_ns = t0.elapsed().as_nanos() as u64;
    let (a1, b1) = alloc::snapshot();
    let after = read_counts(world);
    // Let delayed ACKs of the last replies go out before the next
    // phase. Not a drain to idle: on `conn_churn` closed connections
    // linger for an RTO, and steady state includes them.
    world.w.run_for(SETTLE_NS);
    let tally = sh.begin_phase(PhaseKind::Warm, 0);
    let virt_ns = tally.last_done_virt.saturating_sub(v0).max(1);
    let per_window = (n / WINDOWS as u64).max(1) as f64;
    let mut prev = t0;
    let window_ns_per_req = tally
        .stamps
        .iter()
        .map(|&s| {
            let d = s.duration_since(prev).as_nanos() as f64 / per_window;
            prev = s;
            d
        })
        .collect();
    PhaseResult {
        requests: tally.attempted,
        tally,
        steps,
        host_ns,
        virt_ns,
        allocs: a1 - a0,
        alloc_bytes: b1 - b0,
        counts: after.since(&before),
        window_ns_per_req,
    }
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    v
}

/// `q` in 0..=1 of sorted values (nearest rank).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

/// Median, first and third quartile, as Python's
/// `statistics.quantiles(v, n=4)` gives them (exclusive method) — the
/// quartiles the driver judges spread by.
pub fn median_quartiles(v: &[f64]) -> (f64, f64, f64) {
    let d = sorted(v.to_vec());
    let ld = d.len();
    if ld < 2 {
        let x = d.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
    };
    (q(2), q(1), q(3))
}

/// `q` in 0..=1 of a set of virtual durations, in µs (nearest rank).
fn percentile_us(ns: &[u32], q: f64) -> f64 {
    if ns.is_empty() {
        return 0.0;
    }
    let mut v = ns.to_vec();
    let i = ((v.len() - 1) as f64 * q).round() as usize;
    *v.select_nth_unstable(i).1 as f64 / 1000.0
}

impl PhaseResult {
    /// Virtual request latency percentile in µs.
    pub fn latency_us(&self, q: f64) -> f64 {
        percentile_us(&self.tally.lat_ns, q)
    }

    /// How late the open loop's 99th-percentile send was, in µs.
    pub fn late_p99_us(&self) -> f64 {
        percentile_us(&self.tally.late_ns, 0.99)
    }

    pub fn per_req(&self, delta: u64) -> f64 {
        delta as f64 / self.requests.max(1) as f64
    }
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
