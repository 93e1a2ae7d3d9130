//! Figure 3 — per-core memory allocation throughput vs core count.
//!
//! Each core repeatedly measures the time to allocate and free an 8 B
//! object ten times; we report the mean cycles per 10-op measurement,
//! exactly as §4.1.2 describes. The EbbRT allocator runs on the
//! threaded native backend (per-core slab reps, no synchronization);
//! the glibc and jemalloc models run on plain threads. The paper's
//! shape: EbbRT flat/linear; glibc's latency climbing (3.8× EbbRT at
//! 24 cores); jemalloc linear but ~42% slower than EbbRT.

use std::sync::Arc;
use std::time::Instant;

use ebbrt_core::cpu::CoreId;
use ebbrt_core::native::NativeMachine;
use ebbrt_core::runtime;
use ebbrt_core::spinlock::SpinBarrier;
use ebbrt_mem::baseline::{GlibcModel, JemallocModel};
use ebbrt_mem::gp::{self, EbbrtMalloc};
use ebbrt_mem::{MallocLike, Topology};

const MEASUREMENTS: usize = 100_000;
const CYCLES_PER_NS: f64 = 2.6;

/// One core's benchmark loop: mean cycles for 10×(alloc+free 8 B).
fn core_loop(m: &dyn MallocLike, barrier: &SpinBarrier) -> f64 {
    // Warmup fills the caches.
    for _ in 0..1000 {
        let a = m.alloc(8);
        m.free(a, 8);
    }
    barrier.wait();
    let start = Instant::now();
    for _ in 0..MEASUREMENTS {
        for _ in 0..10 {
            let a = m.alloc(8);
            m.free(a, 8);
        }
    }
    let total_ns = start.elapsed().as_nanos() as f64;
    total_ns / MEASUREMENTS as f64 * CYCLES_PER_NS
}

fn run_ebbrt(ncores: usize) -> f64 {
    NativeMachine::run(ncores, move || {
        let rt = runtime::current();
        let gp = gp::setup(
            Topology {
                ncores,
                nnodes: 2.min(ncores),
            },
            14,
        );
        let barrier = Arc::new(SpinBarrier::new(ncores));
        let futures: Vec<_> = (0..ncores)
            .map(|i| {
                let (p, f) = ebbrt_core::future::promise::<f64>();
                let barrier = Arc::clone(&barrier);
                rt.spawn(CoreId(i as u32), move || {
                    let m = EbbrtMalloc::new(gp);
                    p.set_value(core_loop(&m, &barrier));
                });
                f
            })
            .collect();
        let results: Vec<f64> = futures
            .into_iter()
            .map(ebbrt_core::event::block_on)
            .collect();
        results.iter().sum::<f64>() / results.len() as f64
    })
}

fn run_threads(m: Arc<dyn MallocLike>, ncores: usize) -> f64 {
    let barrier = Arc::new(SpinBarrier::new(ncores));
    let handles: Vec<_> = (0..ncores)
        .map(|_| {
            let m = Arc::clone(&m);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || core_loop(&*m, &barrier))
        })
        .collect();
    let results: Vec<f64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    results.iter().sum::<f64>() / results.len() as f64
}

fn main() {
    let avail = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let core_counts: Vec<usize> = [1usize, 2, 4, 8, 12, 24]
        .iter()
        .copied()
        .filter(|&c| c <= avail.max(2) * 2)
        .collect();
    println!("Figure 3: 10x(alloc+free 8B) mean cycles per core ({avail} hw threads available)");
    println!(
        "{:<7} {:>12} {:>12} {:>12}",
        "cores", "EbbRT", "glibc-model", "jemalloc"
    );
    let mut rows = Vec::new();
    for &n in &core_counts {
        let ebbrt = run_ebbrt(n);
        let glibc = run_threads(GlibcModel::new(GlibcModel::DEFAULT_ARENAS), n);
        // jemalloc sizes its arena pool to the CPU count (4x cores);
        // with thread-sticky shards the central path stays uncontended.
        let jemalloc = run_threads(JemallocModel::new(4 * n), n);
        println!("{n:<7} {ebbrt:>12.0} {glibc:>12.0} {jemalloc:>12.0}");
        rows.push(format!("{n},{ebbrt:.0},{glibc:.0},{jemalloc:.0}"));
    }
    let path = ebbrt_bench::write_csv(
        "fig3.csv",
        "cores,ebbrt_cycles,glibc_cycles,jemalloc_cycles",
        &rows,
    )
    .expect("write csv");
    println!("wrote {}", path.display());
    println!(
        "paper shape: EbbRT flat; jemalloc flat but ~42% slower; glibc 3.8x EbbRT at 24 cores"
    );
}
