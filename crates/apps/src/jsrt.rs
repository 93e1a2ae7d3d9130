//! A managed-runtime model standing in for node.js/V8 (§4.3, Figure 7).
//!
//! Porting V8 is out of scope (the paper itself stresses that it reused
//! a million lines); what Figure 7 measures is **environmental**: the
//! same JavaScript engine runs 4–14% faster on EbbRT because
//!
//! 1. "EbbRT aggressively maps in memory allocated by V8 and therefore
//!    suffers no page faults" — Linux demand-pages the heap, and V8's
//!    semispace collector keeps returning and re-touching memory;
//! 2. "our non-preemptive execution environment prevents unnecessary
//!    timer interrupts and cache pollution due to OS execution".
//!
//! This module builds exactly those mechanisms: [`JsHeap`] is a
//! semispace-collected bump allocator over a virtual region with a
//! per-page mapped bit, whose paging policy depends on the environment
//! (EbbRT pre-maps and never returns pages; Linux demand-faults and
//! releases the evacuated semispace after each GC), plus a
//! preemption-overhead model (1 kHz tick + cache pollution).
//! The eight V8-suite kernels are re-implemented against the heap with
//! their characteristic allocation behaviour — Splay is the
//! allocation-heaviest, Crypto/NavierStokes barely allocate — so the
//! *shape* of Figure 7 emerges from the mechanism, not from dialed-in
//! per-benchmark numbers.

use std::cell::{Cell, RefCell};

use crate::rng::SplitMix64;

/// Size of one page of the heap's virtual region.
pub const PAGE_SIZE: usize = 4096;

/// Environment knobs affecting the managed runtime.
#[derive(Clone, Copy, Debug)]
pub struct JsEnv {
    /// Display name.
    pub name: &'static str,
    /// Pre-map the whole heap (EbbRT) vs demand paging (Linux).
    pub aggressive_map: bool,
    /// Release the evacuated semispace every N collections (V8's
    /// memory reducer + madvise behaviour on Linux; 0 = never, EbbRT
    /// keeps everything mapped).
    pub release_every: u32,
    /// Cost of one page fault (kernel entry + handler + zeroing).
    pub fault_cost_ns: u64,
    /// Scheduler tick: period (0 = none) and cost.
    pub tick_period_ns: u64,
    /// Per-tick cost.
    pub tick_cost_ns: u64,
    /// Cache/TLB pollution from OS activity, as a fraction of compute
    /// time (e.g. 0.015 = 1.5%).
    pub pollution: f64,
}

impl JsEnv {
    /// The EbbRT native environment.
    pub fn ebbrt() -> JsEnv {
        JsEnv {
            name: "EbbRT",
            aggressive_map: true,
            release_every: 0,
            fault_cost_ns: 0, // never faults: pre-mapped, never released
            tick_period_ns: 0,
            tick_cost_ns: 0,
            pollution: 0.0,
        }
    }

    /// Linux (the paper's comparison baseline).
    pub fn linux() -> JsEnv {
        JsEnv {
            name: "Linux",
            aggressive_map: false,
            release_every: 4,
            fault_cost_ns: 800,        // minor fault (page present, zeroed)
            tick_period_ns: 1_000_000, // CONFIG_HZ=1000
            tick_cost_ns: 4000,
            pollution: 0.012,
        }
    }
}

/// A semispace-collected bump-allocator heap over an environment's
/// virtual memory.
pub struct JsHeap {
    env: JsEnv,
    /// One bit per page of the two semispaces: touching an unmapped
    /// page faults and maps it.
    mapped: RefCell<Vec<bool>>,
    /// Page faults taken so far.
    faults: Cell<u64>,
    /// Pages per semispace.
    semi_pages: usize,
    /// Current allocation offset within the active semispace.
    bump: Cell<usize>,
    /// Which semispace is active (0/1).
    space: Cell<usize>,
    /// Fraction of the heap that survives a collection.
    survival: f64,
    /// Accumulated compute time (ns).
    work_ns: Cell<u64>,
    /// GC copy work accumulated (ns).
    gc_ns: Cell<u64>,
    /// Collections performed.
    pub gcs: Cell<u64>,
    /// Objects allocated.
    pub allocs: Cell<u64>,
}

/// Copy cost of evacuating one byte during GC (memcpy + forwarding).
const GC_COPY_NS_PER_KB: u64 = 150;

impl JsHeap {
    /// Creates a heap with `semi_pages` pages per semispace in `env`.
    pub fn new(env: JsEnv, semi_pages: usize, survival: f64) -> JsHeap {
        // EbbRT maps everything up front: no faults, ever.
        let mapped = vec![env.aggressive_map; 2 * semi_pages];
        JsHeap {
            env,
            mapped: RefCell::new(mapped),
            faults: Cell::new(0),
            semi_pages,
            bump: Cell::new(0),
            space: Cell::new(0),
            survival,
            work_ns: Cell::new(0),
            gc_ns: Cell::new(0),
            gcs: Cell::new(0),
            allocs: Cell::new(0),
        }
    }

    /// Allocates `bytes`, touching the backing pages (faulting if
    /// unmapped) and collecting when the semispace fills.
    pub fn alloc(&self, bytes: usize) {
        self.allocs.set(self.allocs.get() + 1);
        let semi_bytes = self.semi_pages * PAGE_SIZE;
        if self.bump.get() + bytes > semi_bytes {
            self.collect();
        }
        let start = self.space.get() * semi_bytes + self.bump.get();
        self.touch_range(start, bytes.min(semi_bytes));
        self.bump.set(self.bump.get() + bytes);
    }

    /// Pure compute (no allocation) — the JS interpreter/JIT running.
    pub fn work(&self, ns: u64) {
        self.work_ns.set(self.work_ns.get() + ns);
    }

    /// Reads `bytes` at `offset` in the live semispace (touch only).
    pub fn read(&self, offset: usize, bytes: usize) {
        let semi_bytes = self.semi_pages * PAGE_SIZE;
        let base = self.space.get() * semi_bytes;
        self.touch_range(base + offset % semi_bytes, bytes.min(semi_bytes));
    }

    fn touch_range(&self, start: usize, bytes: usize) {
        let first = start / PAGE_SIZE;
        let last = (start + bytes.max(1) - 1) / PAGE_SIZE;
        let mut mapped = self.mapped.borrow_mut();
        for page in mapped.iter_mut().take(last + 1).skip(first) {
            if !*page {
                *page = true;
                self.faults.set(self.faults.get() + 1);
            }
        }
    }

    /// Semispace collection: evacuate survivors into the other space.
    fn collect(&self) {
        self.gcs.set(self.gcs.get() + 1);
        let semi_bytes = self.semi_pages * PAGE_SIZE;
        let live = (self.bump.get() as f64 * self.survival) as usize;
        // Copy cost (identical in both environments).
        self.gc_ns
            .set(self.gc_ns.get() + (live as u64 / 1024 + 1) * GC_COPY_NS_PER_KB);
        let old_space = self.space.get();
        let new_space = 1 - old_space;
        // Touch the target pages for the survivors.
        self.space.set(new_space);
        self.bump.set(0);
        self.touch_range(new_space * semi_bytes, live.max(1));
        self.bump.set(live);
        // V8-on-Linux periodically returns the evacuated space to the
        // kernel; the next cycle re-faults it. EbbRT keeps it mapped.
        if self.env.release_every > 0
            && self.gcs.get().is_multiple_of(self.env.release_every as u64)
        {
            let first = old_space * self.semi_pages;
            self.mapped.borrow_mut()[first..first + self.semi_pages].fill(false);
        }
    }

    /// Page faults taken so far.
    pub fn faults(&self) -> u64 {
        self.faults.get()
    }

    /// Total virtual runtime: compute + GC, inflated by OS pollution,
    /// plus fault handling, plus scheduler-tick time.
    pub fn elapsed_ns(&self) -> u64 {
        let base = self.work_ns.get() + self.gc_ns.get();
        let polluted = (base as f64 * (1.0 + self.env.pollution)) as u64;
        let with_faults = polluted + self.faults() * self.env.fault_cost_ns;
        if self.env.tick_period_ns == 0 {
            return with_faults;
        }
        // Ticks occur throughout the (stretched) runtime; solve
        // t = with_faults + (t / period) * tick_cost.
        let frac = self.env.tick_cost_ns as f64 / self.env.tick_period_ns as f64;
        (with_faults as f64 / (1.0 - frac)) as u64
    }
}

/// One V8-suite kernel: name plus its characteristic behaviour.
pub struct Kernel {
    /// Benchmark name (as in Figure 7).
    pub name: &'static str,
    run: fn(&JsHeap, &mut SplitMix64),
}

/// The eight kernels of V8 benchmark suite version 7, modelled by their
/// documented workload characters (allocation rate is what matters to
/// the environment comparison).
pub fn kernels() -> Vec<Kernel> {
    vec![
        Kernel {
            name: "Crypto",
            run: |h, _rng| {
                // Bignum arithmetic: compute-bound, tiny allocation.
                for _ in 0..400 {
                    h.work(20_000);
                    h.alloc(256);
                }
            },
        },
        Kernel {
            name: "DeltaBlue",
            run: |h, rng| {
                // Constraint solver: many small short-lived objects.
                for _ in 0..800 {
                    h.work(8_000);
                    for _ in 0..rng.range(4..10) {
                        h.alloc(64);
                    }
                }
            },
        },
        Kernel {
            name: "EarleyBoyer",
            run: |h, rng| {
                // Symbolic lists: allocation-heavy classic GC benchmark.
                for _ in 0..900 {
                    h.work(6_000);
                    for _ in 0..rng.range(10..24) {
                        h.alloc(48);
                    }
                }
            },
        },
        Kernel {
            name: "NavierStokes",
            run: |h, _rng| {
                // Double-array stencil: one big allocation, re-read.
                h.alloc(512 * 1024);
                for i in 0..500 {
                    h.work(14_000);
                    h.read(i * 4096, 64 * 1024);
                }
            },
        },
        Kernel {
            name: "RayTrace",
            run: |h, rng| {
                // Vector objects per ray: moderate allocation.
                for _ in 0..700 {
                    h.work(9_000);
                    for _ in 0..rng.range(6..12) {
                        h.alloc(96);
                    }
                }
            },
        },
        Kernel {
            name: "RegExp",
            run: |h, rng| {
                // Match result strings: bursty medium allocations.
                for _ in 0..600 {
                    h.work(10_000);
                    h.alloc(rng.range(100..800));
                }
            },
        },
        Kernel {
            name: "Richards",
            run: |h, _rng| {
                // OS-scheduler simulation: compute with light allocation.
                for _ in 0..700 {
                    h.work(11_000);
                    h.alloc(128);
                }
            },
        },
        Kernel {
            name: "Splay",
            run: |h, rng| {
                // "The memory intensive Splay benchmark": constant node
                // churn at high rate — the allocation-heaviest kernel.
                for _ in 0..1200 {
                    h.work(3_000);
                    for _ in 0..rng.range(24..40) {
                        h.alloc(rng.range(80..200));
                    }
                }
            },
        },
    ]
}

/// Figure 7 scores for one kernel.
#[derive(Clone, Copy, Debug)]
pub struct BenchScore {
    /// Benchmark name.
    pub name: &'static str,
    /// EbbRT runtime (ns).
    pub ebbrt_ns: u64,
    /// Linux runtime (ns).
    pub linux_ns: u64,
}

impl BenchScore {
    /// Normalized score: EbbRT relative to Linux (scores are inverse
    /// runtimes, so >1.0 means EbbRT is faster).
    pub fn normalized(&self) -> f64 {
        self.linux_ns as f64 / self.ebbrt_ns as f64
    }
}

/// Runs every kernel under both environments; `semi_pages` sets the V8
/// young-generation size.
pub fn run_suite(seed: u64) -> Vec<BenchScore> {
    kernels()
        .into_iter()
        .map(|k| {
            let run_one = |env: JsEnv| {
                let heap = JsHeap::new(env, 256, 0.25);
                let mut rng = SplitMix64::new(seed);
                (k.run)(&heap, &mut rng);
                heap.elapsed_ns()
            };
            BenchScore {
                name: k.name,
                ebbrt_ns: run_one(JsEnv::ebbrt()),
                linux_ns: run_one(JsEnv::linux()),
            }
        })
        .collect()
}

/// Geometric mean of the normalized scores (the suite's "total score").
pub fn geometric_mean(scores: &[BenchScore]) -> f64 {
    let log_sum: f64 = scores.iter().map(|s| s.normalized().ln()).sum();
    (log_sum / scores.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ebbrt_heap_never_faults() {
        let h = JsHeap::new(JsEnv::ebbrt(), 64, 0.25);
        for _ in 0..10_000 {
            h.alloc(128);
        }
        assert!(h.gcs.get() > 0, "allocation must trigger collections");
        assert_eq!(h.faults(), 0, "aggressive mapping means no faults");
    }

    #[test]
    fn linux_heap_faults_and_refaults_after_gc() {
        let h = JsHeap::new(JsEnv::linux(), 64, 0.25);
        for _ in 0..10_000 {
            h.alloc(128);
        }
        assert!(h.gcs.get() >= 2);
        // Released semispaces refault: faults exceed the total page
        // count of the region.
        assert!(
            h.faults() > 128,
            "expected refaults, got {} faults",
            h.faults()
        );
    }

    #[test]
    fn identical_work_runs_faster_on_ebbrt() {
        for score in run_suite(42) {
            assert!(
                score.normalized() > 1.0,
                "{} must favour EbbRT (got {:.3})",
                score.name,
                score.normalized()
            );
        }
    }

    #[test]
    fn splay_shows_the_largest_gap() {
        let scores = run_suite(42);
        let splay = scores.iter().find(|s| s.name == "Splay").unwrap();
        for s in &scores {
            if s.name != "Splay" {
                assert!(
                    splay.normalized() >= s.normalized(),
                    "Splay ({:.3}) must exceed {} ({:.3})",
                    splay.normalized(),
                    s.name,
                    s.normalized()
                );
            }
        }
        // Paper: +13.9% on Splay; accept the right ballpark.
        let gain = splay.normalized() - 1.0;
        assert!(
            gain > 0.05 && gain < 0.35,
            "Splay gain {:.1}% out of plausible range",
            gain * 100.0
        );
    }

    #[test]
    fn overall_improvement_is_single_digit_percent() {
        let scores = run_suite(42);
        let total = geometric_mean(&scores);
        // Paper: +4.09% overall.
        assert!(
            total > 1.01 && total < 1.15,
            "overall normalized score {total:.3} out of range"
        );
    }

    #[test]
    fn determinism() {
        let a: Vec<u64> = run_suite(7).iter().map(|s| s.linux_ns).collect();
        let b: Vec<u64> = run_suite(7).iter().map(|s| s.linux_ns).collect();
        assert_eq!(a, b);
    }
}
