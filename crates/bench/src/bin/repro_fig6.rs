//! Figure 6 — memcached four-core latency vs throughput.
//!
//! Paper anchors at a 500 µs 99th-percentile SLA: EbbRT +58% over
//! Linux-VM, −5% vs Linux native, but the highest peak throughput (the
//! 20-core client cannot saturate the EbbRT server).

use ebbrt_apps::mutilate::ExperimentConfig;
use ebbrt_sim::CostProfile;

fn main() {
    let systems = [
        ("EbbRT", CostProfile::ebbrt_vm()),
        ("Linux", CostProfile::linux_vm()),
        ("LinuxNative", CostProfile::linux_native()),
    ];
    let loads = [150_000, 350_000, 550_000, 750_000, 950_000];
    println!("Figure 6: memcached four-core latency vs throughput (ETC, pipeline 4)");
    ebbrt_bench::load_sweep("fig6", &systems, &loads, |profile, load| {
        let mut cfg = ExperimentConfig::new(4, profile.clone(), load);
        // Shorter window: the 4-core sweep is 4x the event volume.
        cfg.duration_ns = 120_000_000;
        cfg.warmup_ns = 30_000_000;
        cfg
    });
    println!("paper anchors @500us p99 SLA: EbbRT +58% vs Linux-VM, -5% vs native, highest peak");
}
