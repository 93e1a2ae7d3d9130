//! memcached under load, in the simulated cluster.
//!
//! Boots an EbbRT memcached server and a Linux-VM one, drives both with
//! the mutilate-style ETC workload at the same offered load, and prints
//! the latency difference — a single point of Figure 5.
//!
//! Run with: `cargo run --release --example memcached_sim`

use ebbrt_bench::mutilate::{self, ExperimentConfig};
use ebbrt_sim::CostProfile;

fn main() {
    let load = 120_000;
    println!("memcached, single core, ETC workload, {load} offered RPS");
    for profile in [
        CostProfile::ebbrt_vm(),
        CostProfile::linux_vm(),
        CostProfile::linux_native(),
    ] {
        let name = profile.name;
        let cfg = ExperimentConfig::new(1, profile, load);
        let s = mutilate::run(&cfg);
        println!(
            "  {:<16} achieved {:>8.0} rps   mean {:>7.1} us   p99 {:>7.1} us",
            name, s.achieved_rps, s.mean_us, s.p99_us
        );
    }
    println!("(see `cargo run --release -p ebbrt-bench --bin repro_fig5` for the full sweep)");
}
