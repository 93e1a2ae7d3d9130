//! The child side: one round of one workload in this process. It
//! reports on standard output, one line per fact: `M name value note`
//! for a metric, `I key value` for ledger totals and context, and
//! `S name count total self` (per request) for a span aggregate.

use std::process::ExitCode;
use std::time::Instant;

use ebbrt_core::iobuf::{Chain, IoBuf};

use crate::load::{PhaseKind, Tally};
use crate::measure::{self, median_quartiles, quantile, sorted, PhaseResult};
use crate::spec::PER_LAYER;
use crate::worlds::{self, Node, Params, World};
use crate::{kernels, trace, OUT_DIR, ROUND_SECONDS};

/// Requests of one round lasting `seconds` (at most
/// [`ROUND_SECONDS`]: a longer run is more rounds, never longer rounds,
/// so per-request figures do not depend on `--seconds`).
fn scaled(per_round: u64, seconds: f64) -> u64 {
    ((per_round as f64 * (seconds / ROUND_SECONDS).min(1.0)) as u64).max(400)
}

/// Builds the world, fills it, and warms it up. Returns the frames
/// captured on their way to the server during warm-up.
fn set_up(p: &Params, seed: u64, seconds: f64) -> (World, Vec<Chain<IoBuf>>) {
    let world = worlds::build(p, seed);
    if world.needs_populate {
        let r = measure::run_phase(&world, PhaseKind::Populate, p.nkeys as u64);
        assert_eq!(
            r.tally.verified, p.nkeys as u64,
            "every key must be written before the run"
        );
    }
    let frames = world.start_capture(64);
    // A short round needs no more warm-up than it measures.
    measure::run_phase(&world, PhaseKind::Warm, scaled(p.warmup, seconds));
    world.stop_capture();
    let frames = frames.take();
    (world, frames)
}

fn print_metric(name: &str, value: f64, note: &str) {
    println!("M {name} {value} {note}");
}

fn print_tally(phases: &[&PhaseResult]) -> bool {
    let sum = |f: fn(&Tally) -> u64| phases.iter().map(|r| f(&r.tally)).sum::<u64>();
    let balanced = phases.iter().all(|r| r.tally.balanced());
    println!("I attempted {}", sum(|t| t.attempted));
    println!("I verified {}", sum(|t| t.verified));
    println!("I failed {}", sum(|t| t.failed()));
    println!("I unanswered {}", sum(|t| t.unanswered()));
    println!("I bad_status {}", sum(|t| t.bad_status));
    println!("I wrong_bytes {}", sum(|t| t.wrong_bytes));
    println!("I over_limit {}", sum(|t| t.over_limit));
    // 52 bits: the parent reads values as f64.
    println!("I stream_hash {}", phases[0].tally.stream_hash >> 12);
    println!("I balanced {}", balanced as u8);
    balanced
}

fn child_measure(p: &Params, seed: u64, seconds: f64, started: Instant) -> bool {
    let (world, _) = set_up(p, seed, seconds);
    println!("I setup_s {}", started.elapsed().as_secs_f64());
    let r = measure::run_phase(
        &world,
        PhaseKind::Measured,
        scaled(p.reqs_per_round, seconds),
    );
    print_metric(
        "host_ns_per_req",
        r.host_ns as f64 / r.requests.max(1) as f64,
        "",
    );
    print_metric(
        "virt_req_per_s",
        r.tally.verified as f64 / (r.virt_ns as f64 / 1e9),
        &format!("n={} requests", r.tally.verified),
    );
    let n = r.tally.lat_ns.len();
    print_metric("virt_p50_us", r.latency_us(0.5), &format!("n={n}"));
    print_metric("virt_p99_us", r.latency_us(0.99), &format!("n={n}"));
    print_metric("allocs_per_req", r.per_req(r.allocs), "");
    print_metric("alloc_bytes_per_req", r.per_req(r.alloc_bytes), "");
    print_metric(
        "ok_frac",
        r.tally.verified as f64 / r.tally.attempted.max(1) as f64,
        &format!("failed={} of {}", r.tally.failed(), r.tally.attempted),
    );
    print_metric("peak_rss_mib", measure::peak_rss_mib(), "VmHWM");
    print_tally(&[&r])
}

fn child_trace(p: &Params, seed: u64, seconds: f64) -> bool {
    let n = scaled(p.reqs_per_round, seconds);
    // Two fresh worlds of one round each, same seed: one untraced
    // (counts, host time), one traced (spans). They differ in nothing
    // but the tracing, so their host-time ratio is its overhead.
    let (world, frames) = set_up(p, seed, seconds);
    let plain = measure::run_phase(&world, PhaseKind::Measured, n);
    let (traced, aggs) = {
        let (world, _) = set_up(p, seed, seconds);
        trace::start();
        let traced = measure::run_phase(&world, PhaseKind::Measured, n);
        trace::stop();
        (traced, trace::aggregates())
    };
    if let Err(e) = std::fs::create_dir_all(OUT_DIR).and_then(|_| {
        std::fs::write(
            format!("{OUT_DIR}/{}.trace.json", p.name),
            trace::to_json(p.name, seed),
        )
    }) {
        eprintln!("perf_ledger: cannot write trace file: {e}");
    }

    let c = &plain.counts;
    let sizing = kernels::Sizing {
        queue_depth: world.nodes().map(|n| n.m.runtime().ncores()).sum::<usize>()
            + p.conns * p.depth,
        timer_live: c.timer_live as usize,
        conns: world.servers[0].nif.conn_count(),
        frames,
    };
    let kern = kernels::run(&world.sh, &sizing);
    let k = |name: &str| {
        kern.iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    };

    let req = plain.requests.max(1) as f64;
    let treq = traced.requests.max(1) as f64;
    let per_req = |count: u64| count as f64 / req;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let virt = plain.virt_ns as f64;
    let cores = |nodes: &[Node]| nodes.iter().map(|n| n.m.runtime().ncores()).sum::<usize>() as f64;
    let fallbacks: u64 = c.io.classes.iter().map(|k| k.fallback_allocs).sum();
    let depot: u64 = c.io.classes.iter().map(|k| k.depot_in + k.depot_out).sum();

    let steps_per_req = per_req(plain.steps);
    let events_per_req = per_req(c.ev_interrupts + c.ev_synthetic + c.ev_timers + c.ev_idle);
    let plain_ns = plain.host_ns as f64 / req;
    let traced_ns = traced.host_ns as f64 / treq;
    // Overhead from the medians of each run's windows: a noisy
    // neighbour during one of the two runs should not read as overhead.
    let overhead = ratio(
        median_quartiles(&traced.window_ns_per_req).0,
        median_quartiles(&plain.window_ns_per_req).0,
    ) - 1.0;
    let windows = sorted(plain.window_ns_per_req.clone());
    let span_self = |i: u8| aggs[i as usize].self_ns as f64 / treq;
    // Work outside the application spans is estimated from kernels;
    // transmit-side work runs inside the spans and is not added again.
    let attributed = span_self(trace::SPAN_SERVER_RX)
        + span_self(trace::SPAN_CLIENT_RX)
        + span_self(trace::SPAN_CLIENT_SEND)
        + span_self(trace::SPAN_CLIENT_ARRIVAL)
        + steps_per_req * k("sim.world.step_ns")
        + events_per_req * k("core.event.dispatch_ns")
        + per_req(c.rx_frames)
            * (k("net.wire.parse_ns") + k("core.rcu_hash.get_ns") + k("net.conn_slab.get_ns"))
        + per_req(c.ev_timers) * k("core.timer.arm_cancel_ns");

    #[rustfmt::skip]
    let values: Vec<(&str, f64)> = vec![
        ("sim.world.steps_per_req", steps_per_req),
        ("sim.world.est_ns_per_req", steps_per_req * k("sim.world.step_ns")),
        ("sim.machine.server_busy_frac", ratio(c.server_cpu_ns as f64, virt * cores(&world.servers))),
        ("sim.machine.client_busy_frac", ratio(c.client_cpu_ns as f64, virt * cores(&world.clients))),
        ("sim.nic.server_rxq_depth_hwm", c.server_rxq_hwm as f64),
        ("sim.link.frames_per_req", per_req(c.link_frames)),
        ("core.event.interrupts_per_req", per_req(c.ev_interrupts)),
        ("core.event.synthetic_per_req", per_req(c.ev_synthetic)),
        ("core.event.timers_per_req", per_req(c.ev_timers)),
        ("core.event.idle_per_req", per_req(c.ev_idle)),
        ("core.timer.cascades_per_req", per_req(c.timer_cascades)),
        ("core.timer.slab_hwm", c.timer_slab_hwm as f64),
        ("core.iobuf.bytes_copied_per_req", per_req(c.io.bytes_copied)),
        ("core.iobuf.bufs_allocated_per_req", per_req(c.io.bufs_allocated)),
        ("core.iobuf.pool_hit_frac", ratio(c.io.pool_hits as f64, (c.io.pool_hits + fallbacks) as f64)),
        ("core.iobuf.depot_moves_per_req", per_req(depot)),
        ("net.netif.rx_frames_per_req", per_req(c.rx_frames)),
        ("net.netif.tx_frames_per_req", per_req(c.tx_frames)),
        ("net.netif.rx_bursts_per_req", per_req(c.rx_bursts)),
        ("net.netif.frames_per_burst", ratio(c.rx_frames as f64, c.rx_bursts as f64)),
        ("net.netif.coalesced_per_req", per_req(c.coalesced)),
        ("net.netif.rx_drops_per_req", per_req(c.rx_drops)),
        ("net.tcp.retransmits_per_req", per_req(c.retransmits)),
        ("net.netif.conns_per_req", per_req(c.conns_established)),
        ("net.netif.pcb_slab_hwm", c.pcb_slab_hwm as f64),
        ("net.netif.embryonic_evicted", c.embryonic_evicted as f64),
        ("net.netif.bytes_per_idle_conn", ebbrt_net::netif::NetIf::bytes_per_idle_conn() as f64),
        ("apps.memcached.server_span_ns_per_req", aggs[trace::SPAN_SERVER_RX as usize].total_ns as f64 / treq),
        ("apps.memcached.busy_per_req", per_req(plain.tally.busy)),
        ("apps.memcached.remote_error_per_req", per_req(plain.tally.remote_error)),
        ("hosted.messenger.dispatched_per_req", per_req(c.msg_dispatched)),
        ("hosted.messenger.rpc_failures_per_req", per_req(c.msg_failures)),
        ("hosted.remote.shipped_per_req", per_req(c.shipped)),
        ("hosted.remote.calls_per_flush", ratio(c.batched_calls as f64, c.batch_flushes as f64)),
        ("hosted.remote.retries_per_req", per_req(c.retries)),
        ("hosted.remote.promotions", c.promotions as f64),
        ("loadgen.span_ns_per_req", span_self(trace::SPAN_CLIENT_RX) + span_self(trace::SPAN_CLIENT_ARRIVAL)),
        ("loadgen.late_p99_us", plain.late_p99_us()),
        ("trace.step_self_ns_per_req", span_self(trace::SPAN_STEP)),
        ("trace.layer_sum_frac", ratio(attributed, plain_ns)),
        ("trace.overhead_frac", overhead),
        ("host.ns_per_req_p95_window", quantile(&windows, 0.95)),
        ("host.ns_per_req_iqr", quantile(&windows, 0.75) - quantile(&windows, 0.25)),
    ];
    for m in &PER_LAYER {
        let v = values
            .iter()
            .chain(kern.iter())
            .find(|(n, _)| *n == m.name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("per-layer metric {} not computed", m.name));
        print_metric(m.name, v, "");
    }
    // Context for the ledger table, not metrics of their own.
    println!("I untraced_host_ns_per_req {plain_ns}");
    println!("I traced_host_ns_per_req {traced_ns}");
    println!("I events_per_req {events_per_req}");
    for (i, name) in trace::NAMES.iter().enumerate() {
        println!(
            "S {name} {} {} {}",
            aggs[i].count as f64 / treq,
            aggs[i].total_ns as f64 / treq,
            aggs[i].self_ns as f64 / treq
        );
    }
    print_tally(&[&plain, &traced])
}

pub fn run(mode: &str, workload: &str, seed: u64, seconds: f64, started: Instant) -> ExitCode {
    let p = worlds::params(workload).expect("known workload");
    let ok = match mode {
        "measure" => child_measure(p, seed, seconds, started),
        "trace" => child_trace(p, seed, seconds),
        other => {
            eprintln!("perf_ledger: unknown child mode {other}");
            false
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perf_ledger: ledger out of balance: attempted != verified + failed + unanswered"
        );
        ExitCode::from(3)
    }
}
