//! Figure 5 — memcached single-core latency vs throughput.
//!
//! Four lines: EbbRT (VM), Linux (VM), Linux native, OSv (VM). Paper
//! anchors at a 500 µs 99th-percentile SLA: EbbRT +58% throughput over
//! Linux-VM and +11.7% over Linux native; OSv uncompetitive.

use ebbrt_apps::mutilate::ExperimentConfig;
use ebbrt_sim::CostProfile;

fn main() {
    let systems = [
        ("EbbRT", CostProfile::ebbrt_vm()),
        ("Linux", CostProfile::linux_vm()),
        ("LinuxNative", CostProfile::linux_native()),
        ("OSv", CostProfile::osv_vm()),
    ];
    let loads = [
        20_000, 60_000, 100_000, 140_000, 180_000, 220_000, 260_000, 300_000,
    ];
    println!("Figure 5: memcached single-core latency vs throughput (ETC, pipeline 4)");
    ebbrt_bench::load_sweep("fig5", &systems, &loads, |profile, load| {
        ExperimentConfig::new(1, profile.clone(), load)
    });
    println!("paper anchors @500us p99 SLA: EbbRT +58% vs Linux-VM, +11.7% vs native; OSv worst");
}
