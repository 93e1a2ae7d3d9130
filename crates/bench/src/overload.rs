//! Overload control, measured: a well-behaved tenant sharing one
//! server core with an 8× hotter misbehaving tenant, with and without
//! per-class fair scheduling.
//!
//! Both tenants run closed-loop pipelined memcached GETs against the
//! same single-core server; the hot tenant keeps 8× the pipeline depth
//! outstanding and fetches large values, so the paced transmit link is
//! the contended resource. The two runs differ **only** in the
//! installed [`QosMode`]: [`Fair`](QosMode::Fair) gives the
//! well-behaved tenant a real-time service curve plus the dominant
//! link share; [`Fifo`](QosMode::Fifo) paces the identical link with
//! no fairness — the no-QoS control. The CI gate asserts the
//! well-behaved tenant's p99 stays under a fixed virtual-time ceiling
//! with zero request failures under Fair, **and** that the Fifo
//! control violates the same ceiling — if it stops violating, the
//! bench has lost its contention and must be re-tuned, not waved
//! through.
//!
//! All latency is virtual time from the deterministic cost model, so
//! the gate cannot flake on a noisy runner. The steady phase also
//! re-asserts the dataplane invariant under overload: admitted GET
//! traffic copies zero payload bytes and allocates zero fresh buffers.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use ebbrt_apps::memcached::{self, Client, Header, Workload};
use ebbrt_apps::spawn_with;
use ebbrt_apps::stats::LatencyRecorder;
use ebbrt_core::clock::Ns;
use ebbrt_core::cpu::CoreId;
use ebbrt_core::iobuf::{stats, Chain, IoBuf, MutIoBuf};
use ebbrt_core::qos::{self, ClassConfig, QosConfig, QosMode};
use ebbrt_net::netif::QosMatch;
use ebbrt_net::types::Ipv4Addr;
use ebbrt_net::Lan;
use ebbrt_sim::CostProfile;

/// Paced link rate the per-core scheduler enforces (bits/sec). Slower
/// than the simulated wire, so the scheduler — not the switch — is the
/// contended queue.
const LINK_BPS: u64 = 1_000_000_000;
/// Bytes in the well-behaved tenant's value.
const GOLD_VALUE: usize = 64;
/// Bytes in the hot tenant's value: large responses monopolize a FIFO
/// link.
const HOT_VALUE: usize = 4096;
/// Well-behaved tenant's pipeline depth.
const GOLD_PIPELINE: u32 = 4;
/// Hot tenant's pipeline depth — 8× the well-behaved tenant.
const HOT_PIPELINE: u32 = 8 * GOLD_PIPELINE;
/// Well-behaved responses consumed before measurement starts.
const GOLD_WARMUP: u32 = 64;
/// Well-behaved responses measured.
const GOLD_STEADY: u32 = 256;
/// Hot-tenant responses in each phase — 8× the well-behaved tenant's,
/// so the aggressor stays saturated for the whole measured window.
const HOT_WARMUP: u32 = 8 * GOLD_WARMUP;
const HOT_STEADY: u32 = 8 * GOLD_STEADY;

/// The fixed virtual-time ceiling (ns) on the well-behaved tenant's
/// p99 under Fair — and the floor the Fifo control must violate.
///
/// Geometry: at the 1 Gbps paced link rate one hot MSS-sized segment
/// occupies the link ~12 µs, so a fair scheduler delays a gold
/// response by at most a frame in flight plus its own service; FIFO
/// queues it behind up to 32 × 3 large segments (~1 ms). The ceiling
/// sits well clear of both.
pub const GOLD_P99_CEILING_NS: u64 = 200_000;

/// One mode's results.
pub struct OverloadReport {
    /// Scheduler mode the run used.
    pub mode: QosMode,
    /// Measured well-behaved responses.
    pub gold_responses: u32,
    /// Well-behaved tenant's mean request latency (virtual ns).
    pub gold_mean_ns: f64,
    /// Well-behaved tenant's p99 request latency (virtual ns).
    pub gold_p99_ns: u64,
    /// Well-behaved request failures: unexpected closes, short or
    /// misframed responses. The Fair gate requires exactly zero.
    pub gold_failures: u32,
    /// Hot-tenant responses completed over the whole run.
    pub hot_responses: u32,
    /// Connections each class admitted (from the counter registry).
    pub gold_admitted: u64,
    /// See [`OverloadReport::gold_admitted`].
    pub bulk_admitted: u64,
    /// Payload bytes memcpy'd during the measured phase (all
    /// machines). Must be zero: descriptor clones end to end.
    pub steady_bytes_copied: u64,
    /// Fresh buffer allocations during the measured phase (all
    /// machines). Must be zero: pool-hot after warmup.
    pub steady_bufs_allocated: u64,
}

/// Closed-loop pipelined GET tenant. Latency is recorded per request
/// as virtual send-to-full-response time; the driver resets the
/// recorder after warmup and re-kicks the steady phase.
struct Tenant {
    request: IoBuf,
    value_len: usize,
    pipeline: u32,
    to_send: Cell<u32>,
    to_recv: Cell<u32>,
    recorder: RefCell<LatencyRecorder>,
    failures: Cell<u32>,
    done_expected: Cell<bool>,
}

impl Tenant {
    fn new(request: Vec<u8>, value_len: usize, pipeline: u32, warmup: u32) -> Self {
        Tenant {
            request: MutIoBuf::from_vec(request).freeze(),
            value_len,
            pipeline,
            to_send: Cell::new(warmup),
            to_recv: Cell::new(warmup),
            recorder: RefCell::new(LatencyRecorder::new()),
            failures: Cell::new(0),
            done_expected: Cell::new(false),
        }
    }

    fn fire(&self, client: &Client<Self>) {
        self.to_send.set(self.to_send.get() - 1);
        let _ = client.send(Chain::single(self.request.clone()));
    }

    /// Starts a phase: `count` more responses, pipeline primed. Runs
    /// in an event on the tenant's core.
    fn kick(&self, client: &Client<Self>, count: u32) {
        self.to_send.set(count);
        self.to_recv.set(count);
        for _ in 0..self.pipeline.min(count) {
            self.fire(client);
        }
    }
}

impl Workload for Tenant {
    fn on_connected(&self, client: &Client<Self>) {
        self.kick(client, self.to_send.get());
    }

    fn on_reply(&self, client: &Client<Self>, h: &Header, value: Chain<IoBuf>, latency_ns: Ns) {
        // A short, misframed or unrequested reply is a failure.
        if h.status != memcached::STATUS_OK || value.len() != self.value_len {
            self.failures.set(self.failures.get() + 1);
        }
        self.to_recv.set(self.to_recv.get() - 1);
        self.recorder.borrow_mut().record(latency_ns);
        if self.to_send.get() > 0 {
            self.fire(client);
        }
    }

    fn on_close(&self, _client: &Client<Self>) {
        if !self.done_expected.get() {
            self.failures.set(self.failures.get() + 1);
        }
    }
}

/// Runs the two-tenant overload workload under `mode`.
pub fn run(mode: QosMode) -> OverloadReport {
    let lan = Lan::new();
    let w = &lan.world;
    let vm = CostProfile::ebbrt_vm;
    let server_ip = Ipv4Addr::new(10, 0, 0, 1);
    let (gold_ip, hot_ip) = (Ipv4Addr::new(10, 0, 0, 2), Ipv4Addr::new(10, 0, 0, 3));
    let (server, s_if) = lan.machine("server", 1, vm(), [0xAA; 6], server_ip);
    let (gold_m, _g_if) = lan.machine("gold", 1, vm(), [0xBB; 6], gold_ip);
    let (hot_m, _h_if) = lan.machine("hot", 1, vm(), [0xCC; 6], hot_ip);

    // The policy under test: the well-behaved tenant gets a real-time
    // service curve plus the dominant link share; the hot tenant rides
    // the residue. The Fifo control installs the identical classes and
    // paced link with fairness switched off.
    let mut cfg = QosConfig::new(LINK_BPS)
        .class(ClassConfig::new("gold").rt_bps(400_000_000).ls_weight(8))
        .class(ClassConfig::new("bulk").ls_weight(1));
    if mode == QosMode::Fifo {
        cfg = cfg.fifo();
    }
    let policy = s_if.install_qos(cfg);
    let gold_class = policy.config().class_id("gold").unwrap();
    let bulk_class = policy.config().class_id("bulk").unwrap();
    policy.add_rule(QosMatch::Peer(gold_ip), gold_class);
    policy.add_rule(QosMatch::Peer(hot_ip), bulk_class);
    w.run_to_idle();

    let store = memcached::serve_on(&server);
    store.insert_raw(b"gold_key".to_vec(), IoBuf::copy_from(&[0x11; GOLD_VALUE]));
    store.insert_raw(b"hot_key".to_vec(), IoBuf::copy_from(&[0x22; HOT_VALUE]));
    w.run_to_idle();

    let gold = Tenant::new(
        memcached::encode_get(b"gold_key", 1),
        GOLD_VALUE,
        GOLD_PIPELINE,
        GOLD_WARMUP,
    );
    let hot = Tenant::new(
        memcached::encode_get(b"hot_key", 2),
        HOT_VALUE,
        HOT_PIPELINE,
        HOT_WARMUP,
    );
    let gold_c = Client::spawn(&gold_m, CoreId(0), server_ip, gold);
    let hot_c = Client::spawn(&hot_m, CoreId(0), server_ip, hot);
    let (gold, hot) = (&gold_c.workload, &hot_c.workload);
    w.run_to_idle();
    assert_eq!(gold.to_recv.get(), 0, "gold warmup did not complete");
    assert_eq!(hot.to_recv.get(), 0, "hot warmup did not complete");

    // Steady phase: measured from a pool-hot start. The hot tenant is
    // kicked first so its backlog is already queued when the
    // well-behaved tenant's first measured request arrives.
    gold.recorder.borrow_mut().reset();
    hot.recorder.borrow_mut().reset();
    let rts = [server.runtime(), gold_m.runtime(), hot_m.runtime()];
    let before = stats::world_snapshot(rts.iter().map(|rt| &***rt));
    for (machine, c, count) in [
        (&hot_m, &hot_c, HOT_STEADY),
        (&gold_m, &gold_c, GOLD_STEADY),
    ] {
        spawn_with(machine, CoreId(0), Rc::clone(c), move |c| {
            c.workload.kick(&c, count)
        });
    }
    w.run_to_idle();
    let steady = stats::world_snapshot(rts.iter().map(|rt| &***rt)).since(&before);
    assert_eq!(gold.to_recv.get(), 0, "gold steady phase did not complete");
    assert_eq!(hot.to_recv.get(), 0, "hot steady phase did not complete");

    gold.done_expected.set(true);
    hot.done_expected.set(true);
    let snap = qos::snapshot(server.runtime());
    let mut rec = gold.recorder.borrow_mut();
    OverloadReport {
        mode,
        gold_responses: GOLD_STEADY,
        gold_mean_ns: rec.mean(),
        gold_p99_ns: rec.percentile(99.0),
        gold_failures: gold.failures.get(),
        hot_responses: HOT_WARMUP + HOT_STEADY,
        gold_admitted: snap.get(&qos::names::admitted("gold")),
        bulk_admitted: snap.get(&qos::names::admitted("bulk")),
        steady_bytes_copied: steady.bytes_copied,
        steady_bufs_allocated: steady.bufs_allocated,
    }
}

/// One table row (virtual-time columns only — deterministic).
pub fn format_report(r: &OverloadReport) -> String {
    format!(
        "{:>6} {:>10} {:>12.1} {:>12.1} {:>9} {:>10} {:>9} {:>10}",
        match r.mode {
            QosMode::Fair => "fair",
            QosMode::Fifo => "fifo",
        },
        r.gold_responses,
        r.gold_mean_ns / 1000.0,
        r.gold_p99_ns as f64 / 1000.0,
        r.gold_failures,
        r.hot_responses,
        r.steady_bytes_copied,
        r.steady_bufs_allocated,
    )
}

/// Header matching [`format_report`].
pub fn table_header() -> String {
    format!(
        "{:>6} {:>10} {:>12} {:>12} {:>9} {:>10} {:>9} {:>10}",
        "mode", "gold reqs", "mean us", "p99 us", "failures", "hot reqs", "copied", "fresh bufs"
    )
}

/// The CI gate: fair scheduling must hold the well-behaved tenant's
/// p99 under [`GOLD_P99_CEILING_NS`] with zero failures and a
/// zero-copy, pool-hot steady phase — while the Fifo control run
/// violates the same ceiling, proving the contention is real.
pub fn assert_fair_isolates(fair: &OverloadReport, fifo: &OverloadReport) {
    assert_eq!(fair.mode, QosMode::Fair);
    assert_eq!(fifo.mode, QosMode::Fifo);
    assert_eq!(
        fair.gold_failures, 0,
        "well-behaved tenant must see zero request failures under Fair"
    );
    assert!(
        fair.gold_p99_ns <= GOLD_P99_CEILING_NS,
        "well-behaved p99 {} ns exceeds the {} ns ceiling despite fair scheduling",
        fair.gold_p99_ns,
        GOLD_P99_CEILING_NS,
    );
    assert!(
        fifo.gold_p99_ns > GOLD_P99_CEILING_NS,
        "the Fifo control run stayed under the ceiling ({} ns): the bench \
         lost its contention and no longer demonstrates isolation",
        fifo.gold_p99_ns,
    );
    assert_eq!(
        (fair.steady_bytes_copied, fair.steady_bufs_allocated),
        (0, 0),
        "admitted steady-state traffic must stay zero-copy and pool-hot \
         under overload"
    );
    assert_eq!(fair.gold_admitted, 1, "one well-behaved connection");
    assert_eq!(fair.bulk_admitted, 1, "one hot connection");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance gate, in-tree: the same assertions CI runs via
    /// the `overload_path` bench binary.
    #[test]
    fn fair_scheduling_isolates_the_well_behaved_tenant() {
        let fair = run(QosMode::Fair);
        let fifo = run(QosMode::Fifo);
        println!("{}", table_header());
        println!("{}", format_report(&fair));
        println!("{}", format_report(&fifo));
        assert_fair_isolates(&fair, &fifo);
    }
}
