//! One million connections, gated: the conns-vs-latency sweep.
//!
//! Runs [`ebbrt_bench::conn_scale`] across 1k → 1M established
//! connections (the 1M point only under `--release`; a debug build
//! stops at 64k so the gate stays runnable everywhere), prints the
//! curve, writes `target/repro/conn_scale.csv`, and fails the process
//! (and CI) unless [`ebbrt_bench::conn_scale::assert_scales`] holds:
//! flat p99 across the sweep, accounted and *measured* bytes per idle
//! connection under budget, and a zero-copy pool-hot measured phase.
//!
//! The measured footprint comes from a byte-counting global allocator:
//! `alloc` adds `layout.size()` to a live counter, `dealloc` subtracts
//! it, and the harness reads the delta across connection
//! establishment. Latency is virtual time from the deterministic cost
//! model, so neither figure of merit can flake on a loaded runner.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use ebbrt_bench::conn_scale;

/// Tracks live heap bytes so the sweep can measure what one idle
/// connection actually costs the process.
struct LiveBytesAlloc;

static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates to System; only maintains a relaxed byte counter.
unsafe impl GlobalAlloc for LiveBytesAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: LiveBytesAlloc = LiveBytesAlloc;

fn live_heap_bytes() -> u64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}

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
                "{},{},{:.1},{},{},{},{:.0},{},{}",
                r.conns,
                r.sampled,
                r.mean_ns,
                r.p99_ns,
                r.failures,
                r.accounted_bytes_per_idle_conn,
                r.measured_bytes_per_conn.unwrap_or(0.0),
                r.steady_bytes_copied,
                r.steady_bufs_allocated,
            )
        })
        .collect();
    match ebbrt_bench::write_csv(
        "conn_scale.csv",
        "conns,sampled,mean_ns,p99_ns,failures,accounted_bytes_per_conn,measured_bytes_per_conn,steady_bytes_copied,steady_bufs_allocated",
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
         idle conn <= {} accounted / {} measured bytes; steady phase \
         zero-copy",
        top.p99_ns,
        top.conns,
        conn_scale::P99_DEGRADATION_X,
        bottom.p99_ns,
        bottom.conns,
        conn_scale::IDLE_CONN_BUDGET_BYTES,
        conn_scale::MEASURED_CONN_BUDGET_BYTES,
    );
}
