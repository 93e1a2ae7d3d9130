//! Figure 7 — V8 benchmark suite scores, normalized to Linux.
//!
//! Paper anchors: EbbRT wins every kernel, +13.9% on the
//! memory-intensive Splay, +4.09% overall (geometric mean).

use ebbrt_bench::jsrt;

fn main() {
    let scores = jsrt::run_suite(0xEBB7);
    println!("Figure 7: V8 suite normalized scores (EbbRT / Linux; >1.0 = EbbRT faster)");
    println!(
        "{:<14} {:>12} {:>12} {:>12}",
        "benchmark", "ebbrt_ms", "linux_ms", "normalized"
    );
    let mut rows = Vec::new();
    for s in &scores {
        println!(
            "{:<14} {:>12.2} {:>12.2} {:>12.3}",
            s.name,
            s.ebbrt_ns as f64 / 1e6,
            s.linux_ns as f64 / 1e6,
            s.normalized()
        );
        rows.push(format!(
            "{},{:.3},{:.3},{:.4}",
            s.name,
            s.ebbrt_ns as f64 / 1e6,
            s.linux_ns as f64 / 1e6,
            s.normalized()
        ));
    }
    let total = jsrt::geometric_mean(&scores);
    println!("{:<14} {:>12} {:>12} {:>12.3}", "Overall", "", "", total);
    rows.push(format!("Overall,,,{total:.4}"));
    let path = ebbrt_bench::write_csv("fig7.csv", "benchmark,ebbrt_ms,linux_ms,normalized", &rows)
        .expect("write csv");
    println!("wrote {}", path.display());
    println!("paper anchors: +13.9% Splay, +4.09% overall");
}
