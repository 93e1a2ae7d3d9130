//! The benchmark's fixed vocabulary: end-to-end metrics with their
//! bounds and per-layer metrics (the workloads are in `worlds.rs`).
//! `BENCHMARK.json` is printed from these tables
//! (`--print-benchmark-json`), so the file and the program cannot
//! drift apart.

/// What a number is made of. Host numbers are wall-clock on this
/// machine; virtual numbers are simulated time charged from
/// `sim/src/costs.rs`; counts are event counts (exact for a seed).
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Host,
    Virtual,
    Count,
}

impl Kind {
    pub fn label(self) -> &'static str {
        match self {
            Kind::Host => "host",
            Kind::Virtual => "virtual",
            Kind::Count => "count",
        }
    }
}

#[derive(Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; 0 for per-layer metrics (they carry no bound).
    pub bound: f64,
    pub kind: Kind,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    lower_is_better: bool,
    bound: f64,
    kind: Kind,
) -> Metric {
    Metric {
        name,
        unit,
        lower_is_better,
        bound,
        kind,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    lower_is_better: bool,
    kind: Kind,
) -> Metric {
    Metric {
        name,
        unit,
        lower_is_better,
        bound: 0.0,
        kind,
    }
}

/// The end-to-end metrics, reported per workload with tracing off.
///
/// `ok_frac` stands in for ISSUE's `failed_frac`: the driver's
/// contract forbids a metric whose healthy value is 0 (a relative
/// bound on 0 means nothing), so the same ledger is reported as the
/// verified share, and the raw failure count travels in the result
/// line's `failed` field.
pub const END_TO_END: [Metric; 9] = [
    e2e("host_ns_per_req", "ns", true, 0.25, Kind::Host),
    e2e("virt_req_per_s", "1/s", false, 0.02, Kind::Virtual),
    e2e("virt_p50_us", "us", true, 0.02, Kind::Virtual),
    e2e("virt_p99_us", "us", true, 0.03, Kind::Virtual),
    e2e("allocs_per_req", "count", true, 0.08, Kind::Count),
    e2e("alloc_bytes_per_req", "B", true, 0.04, Kind::Count),
    e2e("ok_frac", "fraction", false, 0.001, Kind::Count),
    e2e("peak_rss_mib", "MiB", true, 0.05, Kind::Host),
    e2e("setup_s", "s", true, 0.25, Kind::Host),
];

/// The per-layer ledger, reported by the traced run.
pub const PER_LAYER: [Metric; 58] = [
    // sim
    layer("sim.world.steps_per_req", "count", true, Kind::Count),
    layer("sim.world.step_ns", "ns", true, Kind::Host),
    layer("sim.world.est_ns_per_req", "ns", true, Kind::Host),
    layer(
        "sim.machine.server_busy_frac",
        "fraction",
        true,
        Kind::Virtual,
    ),
    layer(
        "sim.machine.client_busy_frac",
        "fraction",
        true,
        Kind::Virtual,
    ),
    layer("sim.nic.server_rxq_depth_hwm", "count", true, Kind::Count),
    layer("sim.link.frames_per_req", "count", true, Kind::Count),
    // core
    layer("core.event.interrupts_per_req", "count", true, Kind::Count),
    layer("core.event.synthetic_per_req", "count", true, Kind::Count),
    layer("core.event.timers_per_req", "count", true, Kind::Count),
    layer("core.event.idle_per_req", "count", true, Kind::Count),
    layer("core.event.dispatch_ns", "ns", true, Kind::Host),
    layer("core.timer.cascades_per_req", "count", true, Kind::Count),
    layer("core.timer.slab_hwm", "count", true, Kind::Count),
    layer("core.timer.arm_cancel_ns", "ns", true, Kind::Host),
    layer("core.iobuf.bytes_copied_per_req", "B", true, Kind::Count),
    layer(
        "core.iobuf.bufs_allocated_per_req",
        "count",
        true,
        Kind::Count,
    ),
    layer("core.iobuf.pool_hit_frac", "fraction", false, Kind::Count),
    layer("core.iobuf.depot_moves_per_req", "count", true, Kind::Count),
    layer("core.iobuf.cycle_ns", "ns", true, Kind::Host),
    layer("core.rcu_hash.get_ns", "ns", true, Kind::Host),
    layer("core.ebb.dispatch_ns", "ns", true, Kind::Host),
    // net
    layer("net.netif.rx_frames_per_req", "count", true, Kind::Count),
    layer("net.netif.tx_frames_per_req", "count", true, Kind::Count),
    layer("net.netif.rx_bursts_per_req", "count", true, Kind::Count),
    layer("net.netif.frames_per_burst", "count", false, Kind::Count),
    layer("net.netif.coalesced_per_req", "count", false, Kind::Count),
    layer("net.netif.rx_drops_per_req", "count", true, Kind::Count),
    layer("net.tcp.retransmits_per_req", "count", true, Kind::Count),
    layer("net.netif.conns_per_req", "count", true, Kind::Count),
    layer("net.netif.pcb_slab_hwm", "count", true, Kind::Count),
    layer("net.netif.embryonic_evicted", "count", true, Kind::Count),
    layer("net.netif.bytes_per_idle_conn", "B", true, Kind::Count),
    layer("net.conn_slab.get_ns", "ns", true, Kind::Host),
    layer("net.conn_slab.insert_remove_ns", "ns", true, Kind::Host),
    layer("net.wire.parse_ns", "ns", true, Kind::Host),
    layer("net.wire.build_ns", "ns", true, Kind::Host),
    // apps
    layer(
        "apps.memcached.server_span_ns_per_req",
        "ns",
        true,
        Kind::Host,
    ),
    layer("apps.memcached.codec_ns", "ns", true, Kind::Host),
    layer("apps.memcached.store_get_ns", "ns", true, Kind::Host),
    layer("apps.memcached.store_set_ns", "ns", true, Kind::Host),
    layer("apps.memcached.busy_per_req", "count", true, Kind::Count),
    layer(
        "apps.memcached.remote_error_per_req",
        "count",
        true,
        Kind::Count,
    ),
    // hosted
    layer(
        "hosted.messenger.dispatched_per_req",
        "count",
        true,
        Kind::Count,
    ),
    layer(
        "hosted.messenger.rpc_failures_per_req",
        "count",
        true,
        Kind::Count,
    ),
    layer("hosted.remote.shipped_per_req", "count", true, Kind::Count),
    layer("hosted.remote.calls_per_flush", "count", false, Kind::Count),
    layer("hosted.remote.retries_per_req", "count", true, Kind::Count),
    layer("hosted.remote.promotions", "count", true, Kind::Count),
    layer("hosted.messenger.rtt_host_ns", "ns", true, Kind::Host),
    layer("hosted.messenger.rtt_virt_us", "us", true, Kind::Virtual),
    // the benchmark's own load generator
    layer("loadgen.span_ns_per_req", "ns", true, Kind::Host),
    layer("loadgen.late_p99_us", "us", true, Kind::Virtual),
    // traced run and host-time spread
    layer("trace.step_self_ns_per_req", "ns", true, Kind::Host),
    layer("trace.layer_sum_frac", "fraction", false, Kind::Host),
    layer("trace.overhead_frac", "fraction", true, Kind::Host),
    layer("host.ns_per_req_p95_window", "ns", true, Kind::Host),
    layer("host.ns_per_req_iqr", "ns", true, Kind::Host),
];

/// How long one driver run measures (the `--seconds` default and
/// `BENCHMARK.json`'s `run_seconds`).
pub const RUN_SECONDS: u64 = 10;
