//! Table 2 — node.js webserver latency under moderate load.
//!
//! Paper: EbbRT 90.54 µs mean / 123.00 µs 99th; Linux 112.83 µs mean /
//! 199.00 µs 99th (Linux +24.6% mean, +61.8% p99).

use ebbrt_bench::webserver;
use ebbrt_sim::CostProfile;

fn main() {
    // Moderate load: 8 keep-alive connections with 1 ms think time
    // (~50% single-core utilization on the EbbRT server).
    let e = webserver::run(&CostProfile::ebbrt_vm(), 8, 1_000_000);
    let l = webserver::run(&CostProfile::linux_vm(), 8, 1_000_000);
    println!("Table 2: node.js webserver latency (148 B static response)");
    println!(
        "{:<8} {:>12} {:>16} {:>12}",
        "system", "mean_us", "99th_pct_us", "rps"
    );
    println!(
        "{:<8} {:>12.2} {:>16.2} {:>12.0}   (paper: 90.54 / 123.00)",
        "EbbRT", e.mean_us, e.p99_us, e.rps
    );
    println!(
        "{:<8} {:>12.2} {:>16.2} {:>12.0}   (paper: 112.83 / 199.00)",
        "Linux", l.mean_us, l.p99_us, l.rps
    );
    println!(
        "Linux/EbbRT: mean +{:.1}% (paper +24.6%), p99 +{:.1}% (paper +61.8%)",
        (l.mean_us / e.mean_us - 1.0) * 100.0,
        (l.p99_us / e.p99_us - 1.0) * 100.0
    );
    let rows = vec![
        format!("EbbRT,{:.2},{:.2},{:.0}", e.mean_us, e.p99_us, e.rps),
        format!("Linux,{:.2},{:.2},{:.0}", l.mean_us, l.p99_us, l.rps),
    ];
    let path =
        ebbrt_bench::write_csv("table2.csv", "system,mean_us,p99_us,rps", &rows).expect("csv");
    println!("wrote {}", path.display());
}
