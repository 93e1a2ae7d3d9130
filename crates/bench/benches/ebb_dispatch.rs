//! Ebb dispatch — the paper's Table 1 measurement, as an enforced
//! property.
//!
//! Measures an empty method invoked through every dispatch mechanism
//! the system offers:
//!
//! * an inlinable direct call and a never-inlined call (the baselines),
//! * a virtual (`dyn`) call,
//! * `EbbRef::with` — the Ebb call: the translation-table fast path
//!   (one thread-local read, one indexed load, one null check), and
//! * a hash-table dispatcher replicating the deleted
//!   `ebbrt-hosted::table` mechanism (the paper's "roughly 19×"
//!   hosted configuration), kept here bench-locally so the Table 1
//!   comparison survives the system's migration to `EbbManager`.
//!
//! `verify_dispatch_overhead` runs in CI's bench-smoke step and
//! **fails** if `EbbRef::with` drifts more than a generous threshold
//! away from a direct call — the guard against accidental rep-lookup
//! deoptimization.

use std::sync::Arc;
use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ebbrt_bench::dispatch::{Callable, HashTableDispatch, Obj};
use ebbrt_core::clock::ManualClock;
use ebbrt_core::cpu::CoreId;
use ebbrt_core::ebb::EbbRef;
use ebbrt_core::runtime::{self, Runtime};

const INVOCATIONS: usize = 1000;

fn bench_dispatch(c: &mut Criterion) {
    let rt = Runtime::new(1, Arc::new(ManualClock::new()));
    let _g = runtime::enter(rt, CoreId(0));
    let obj = Obj::default();
    let dyn_obj: &dyn Callable = &obj;
    let ebb = EbbRef::<Obj>::create(());
    ebb.with(|o| o.call_inline()); // fault in the rep
    let mut hosted = HashTableDispatch::default();
    hosted.install(ebb.id(), Obj::default());

    let mut g = c.benchmark_group("dispatch_1000_invocations");
    g.bench_function("inline", |b| {
        b.iter(|| {
            for _ in 0..INVOCATIONS {
                black_box(&obj).call_inline();
            }
        })
    });
    g.bench_function("no_inline", |b| {
        b.iter(|| {
            for _ in 0..INVOCATIONS {
                black_box(&obj).call_no_inline();
            }
        })
    });
    g.bench_function("virtual", |b| {
        b.iter(|| {
            for _ in 0..INVOCATIONS {
                black_box(dyn_obj).call_virtual();
            }
        })
    });
    g.bench_function("ebb", |b| {
        b.iter(|| {
            for _ in 0..INVOCATIONS {
                black_box(ebb).with(|o| o.call_inline());
            }
        })
    });
    g.bench_function("hashtable_ebb", |b| {
        b.iter(|| {
            for _ in 0..INVOCATIONS {
                hosted.with_rep::<Obj, _>(black_box(ebb.id()), |o| o.call_inline());
            }
        })
    });
    g.finish();
}

/// Nanoseconds per call of `f` (each `f()` performs [`INVOCATIONS`]
/// calls), minimum over several measurement rounds — the minimum is
/// the right estimator for an empty-call cost on a noisy CI box.
fn ns_per_call(mut f: impl FnMut()) -> f64 {
    const ROUNDS: usize = 30;
    const REPS: usize = 2000;
    // Warmup.
    for _ in 0..REPS / 2 {
        f();
    }
    let mut best = f64::INFINITY;
    for _ in 0..ROUNDS {
        let start = Instant::now();
        for _ in 0..REPS {
            f();
        }
        let ns = start.elapsed().as_nanos() as f64 / (REPS * INVOCATIONS) as f64;
        best = best.min(ns);
    }
    best
}

/// The enforced Table 1 property: steady-state `EbbRef::with`
/// dispatch must stay within a small constant of a direct call. The
/// paper's own bound is ~0.4 cycles over an inlined call for native
/// Ebb dispatch; we allow a generous margin so CI hardware variance
/// doesn't flake, while still catching any accidental reintroduction
/// of per-call table walks or locking.
fn verify_dispatch_overhead(_c: &mut Criterion) {
    /// Absolute floor of the ceiling on (Ebb call − direct call),
    /// in ns/call; the effective ceiling also scales with the
    /// measured direct-call cost so a throttled CI box (where *every*
    /// empty call is slower) doesn't flake, while a genuine
    /// rep-lookup deoptimization (an order of magnitude, not a
    /// constant) still fails everywhere.
    const MAX_OVERHEAD_NS: f64 = 5.0;

    let rt = Runtime::new(1, Arc::new(ManualClock::new()));
    let _g = runtime::enter(rt, CoreId(0));
    let obj = Obj::default();
    let ebb = EbbRef::<Obj>::create(());
    ebb.with(|o| o.call_inline()); // fault in the rep

    let direct = ns_per_call(|| {
        for _ in 0..INVOCATIONS {
            black_box(&obj).call_inline();
        }
    });
    let ebb_ns = ns_per_call(|| {
        for _ in 0..INVOCATIONS {
            black_box(ebb).with(|o| o.call_inline());
        }
    });
    let overhead = ebb_ns - direct;
    let ceiling = MAX_OVERHEAD_NS.max(4.0 * direct);
    println!(
        "ebb dispatch: direct {direct:.2} ns/call, ebb {ebb_ns:.2} ns/call \
         (overhead {overhead:.2} ns vs direct, ceiling {ceiling:.2} ns)"
    );
    assert!(
        overhead <= ceiling,
        "Ebb dispatch regressed: {overhead:.2} ns over a direct call \
         (ceiling {ceiling:.2} ns) — a rep-lookup deoptimization?"
    );
}

criterion_group!(benches, bench_dispatch, verify_dispatch_overhead);
criterion_main!(benches);
