//! Table 1 — object dispatch costs for 1000 invocations.
//!
//! Measures, in real machine cycles (scaled to the paper's 2.6 GHz),
//! 1000 invocations of an empty method through: an inlinable call, a
//! never-inlined call, a virtual (dyn) call, the translation-table Ebb
//! dispatch (`EbbRef::with` — the one way the system calls an Ebb), and
//! a hash-table dispatcher replicating the paper's hosted environment (its "roughly 19 times" configuration —
//! kept bench-locally now that the system itself dispatches every
//! environment through the native translation array).

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use ebbrt_bench::dispatch::{Callable, HashTableDispatch, Obj};
use ebbrt_core::clock::ManualClock;
use ebbrt_core::cpu::CoreId;
use ebbrt_core::ebb::EbbRef;
use ebbrt_core::runtime::{self, Runtime};

const INVOCATIONS: usize = 1000;
const REPEATS: usize = 20_000;
const CYCLES_PER_NS: f64 = 2.6; // the paper's 2.6 GHz Xeon E5-2690

fn measure(mut f: impl FnMut()) -> f64 {
    // Warmup.
    for _ in 0..REPEATS / 10 {
        f();
    }
    let start = Instant::now();
    for _ in 0..REPEATS {
        f();
    }
    let ns = start.elapsed().as_nanos() as f64 / REPEATS as f64;
    ns * CYCLES_PER_NS
}

fn main() {
    let rt = Runtime::new(1, Arc::new(ManualClock::new()));
    let _g = runtime::enter(rt, CoreId(0));

    let obj = Obj::default();
    let dyn_obj: &dyn Callable = &obj;
    let ebb = EbbRef::<Obj>::create(());
    ebb.with(|o| o.call_inline()); // fault in the rep
    let mut hosted = HashTableDispatch::default();
    hosted.install(ebb.id(), Obj::default());

    let inline = measure(|| {
        for _ in 0..INVOCATIONS {
            black_box(&obj).call_inline();
        }
    });
    let no_inline = measure(|| {
        for _ in 0..INVOCATIONS {
            black_box(&obj).call_no_inline();
        }
    });
    let virt = measure(|| {
        for _ in 0..INVOCATIONS {
            black_box(dyn_obj).call_virtual();
        }
    });
    let ebb_cycles = measure(|| {
        for _ in 0..INVOCATIONS {
            black_box(ebb).with(|o| o.call_inline());
        }
    });
    let hosted_cycles = measure(|| {
        for _ in 0..INVOCATIONS {
            hosted.with_rep::<Obj, _>(black_box(ebb.id()), |o| o.call_inline());
        }
    });

    println!("Table 1: object dispatch costs for {INVOCATIONS} invocations (cycles @2.6GHz)");
    println!("{:<14} {:>10} {:>10}", "Method", "Paper", "Measured");
    println!("{:<14} {:>10} {:>10.0}", "Inline", 1052, inline);
    println!("{:<14} {:>10} {:>10.0}", "No Inline", 4047, no_inline);
    println!("{:<14} {:>10} {:>10.0}", "Virtual", 5038, virt);
    println!("{:<14} {:>10} {:>10.0}", "Inline Ebb", 1448, ebb_cycles);
    println!(
        "{:<14} {:>10} {:>10.0}  ({:.1}x native Ebb; paper ~19x)",
        "Hosted Ebb",
        "-",
        hosted_cycles,
        hosted_cycles / ebb_cycles
    );

    let rows = vec![
        format!("Inline,1052,{inline:.0}"),
        format!("No Inline,4047,{no_inline:.0}"),
        format!("Virtual,5038,{virt:.0}"),
        format!("Inline Ebb,1448,{ebb_cycles:.0}"),
        format!("Hosted Ebb,,{hosted_cycles:.0}"),
    ];
    let path = ebbrt_bench::write_csv("table1.csv", "method,paper_cycles,measured_cycles", &rows)
        .expect("write csv");
    println!("wrote {}", path.display());
}
