//! Figure 3 — per-core allocation latency vs core count (§4.1.2).
//!
//! Each core repeatedly times ten take+give pairs of an 8 B object; we
//! report the wall-clock mean ns per ten pairs, averaged over cores.
//! The loop is [`ebbrt_bench::fig3`]. The EbbRT column is the per-core
//! cache the product runs (`ebbrt_core::cache::ObjCache` over a
//! `Depot`, reached through `EbbRef::with` on the threaded native
//! backend). The System column is `Box::new` + drop through
//! `std::alloc::System` (glibc's malloc on Linux) on plain threads.
//!
//! This binary installs no `#[global_allocator]`: a counting one shares
//! a counter between threads and skews the multi-core System column.
//!
//! The paper's third column, jemalloc (Evans, "A Scalable Concurrent
//! malloc(3) Implementation for FreeBSD", BSDCan 2006), is not run: it
//! cannot be built without a crate registry.
//!
//! A core count above the machine's hardware threads is labelled
//! oversubscribed: its threads share CPUs, so the row times the OS
//! scheduler as well as the allocator.

use ebbrt_bench::fig3::{self, PAIRS};

/// Timed samples per core.
const SAMPLES: usize = 100_000;

fn main() {
    let avail = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let core_counts: Vec<usize> = [1usize, 2, 4, 8, 12, 24]
        .iter()
        .copied()
        .filter(|&c| c <= avail.max(2) * 2)
        .collect();
    println!(
        "Figure 3: ns per {PAIRS} take+give pairs of an 8 B object, mean over cores ({avail} hw threads available)"
    );
    println!(
        "{:<7} {:>10} {:>10} {:>13}",
        "cores", "EbbRT", "System", "System/EbbRT"
    );
    let mut rows = Vec::new();
    for &n in &core_counts {
        let ebbrt = fig3::mean_ns(&fig3::run_cache(n, SAMPLES, || 0).cores);
        let system = fig3::mean_ns(&fig3::run_system(n, SAMPLES));
        let oversubscribed = n > avail;
        let label = if oversubscribed {
            "  oversubscribed"
        } else {
            ""
        };
        println!(
            "{n:<7} {ebbrt:>10.1} {system:>10.1} {:>12.2}x{label}",
            system / ebbrt
        );
        rows.push(format!("{n},{ebbrt:.1},{system:.1},{oversubscribed}"));
    }
    let path = ebbrt_bench::write_csv("fig3.csv", "cores,ebbrt_ns,system_ns,oversubscribed", &rows)
        .expect("write csv");
    println!("wrote {}", path.display());
    println!("paper shape: EbbRT flat; glibc 3.8x EbbRT at 24 cores; jemalloc (not run) ~42% slower than EbbRT");
}
