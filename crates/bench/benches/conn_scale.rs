//! One million connections, gated: the conns-vs-latency sweep.
//!
//! Runs [`ebbrt_bench::conn_scale`] across 1k → 1M established
//! connections (the 1M point only under `--release`; a debug build
//! stops at 64k so the gate stays runnable everywhere), prints the
//! curve, writes `target/repro/conn_scale.csv`, and fails the process
//! (and CI) unless [`ebbrt_bench::conn_scale::assert_scales`] holds:
//! flat p99 across the sweep, accounted and *measured* bytes per idle
//! connection under budget, no timer-wheel entry live at quiesce, and a
//! zero-copy pool-hot measured phase.
//!
//! The measured footprint comes from a byte-counting global allocator:
//! `alloc` adds `layout.size()` to a live counter, `dealloc` subtracts
//! it, and the harness reads the delta across connection
//! establishment. Latency is virtual time from the deterministic cost
//! model, so neither figure of merit can flake on a loaded runner.

use ebbrt_bench::conn_scale;

use test_alloc::live_bytes as live_heap_bytes;

/// Tracks live heap bytes so the sweep can measure what one idle
/// connection actually costs the process.
#[global_allocator]
static ALLOC: test_alloc::CountingAlloc = test_alloc::CountingAlloc;

fn main() {
    let sweep: &[usize] = if cfg!(debug_assertions) {
        &[1_000, 16_000, 64_000]
    } else {
        &[1_000, 16_000, 64_000, 250_000, 1_000_000]
    };
    println!(
        "Connection scale: idle herd + {}-conn sparse GET probe set",
        conn_scale::SAMPLED_MAX
    );
    println!("{}", conn_scale::table_header());
    let probe: &dyn Fn() -> u64 = &live_heap_bytes;
    let mut points = Vec::with_capacity(sweep.len());
    for &conns in sweep {
        let r = conn_scale::run(conns, Some(probe));
        println!("{}", conn_scale::format_report(&r));
        points.push(r);
    }

    let rows: Vec<String> = points
        .iter()
        .map(|r| {
            format!(
                "{},{},{:.1},{},{},{},{:.0},{},{},{}",
                r.conns,
                r.sampled,
                r.mean_ns,
                r.p99_ns,
                r.failures,
                r.accounted_bytes_per_idle_conn,
                r.measured_bytes_per_conn.unwrap_or(0.0),
                r.steady_bytes_copied,
                r.steady_bufs_allocated,
                r.timer_live,
            )
        })
        .collect();
    match ebbrt_bench::write_csv(
        "conn_scale.csv",
        "conns,sampled,mean_ns,p99_ns,failures,accounted_bytes_per_conn,measured_bytes_per_conn,steady_bytes_copied,steady_bufs_allocated,timer_live",
        &rows,
    ) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => println!("csv write skipped: {e}"),
    }

    conn_scale::assert_scales(&points);
    let bottom = &points[0];
    let top = &points[points.len() - 1];
    println!(
        "gate: p99 {} ns at {} conns <= {}x p99 {} ns at {} conns; \
         idle conn <= {} accounted / {} measured bytes (+ {} per world); \
         steady phase zero-copy",
        top.p99_ns,
        top.conns,
        conn_scale::P99_DEGRADATION_X,
        bottom.p99_ns,
        bottom.conns,
        conn_scale::IDLE_CONN_BUDGET_BYTES,
        conn_scale::MEASURED_CONN_BUDGET_BYTES,
        conn_scale::MEASURED_WORLD_BUDGET_BYTES,
    );
}
