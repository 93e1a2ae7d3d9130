//! Figure 4 — NetPIPE: goodput as a function of message size.
//!
//! Paper anchors: EbbRT one-way 9.7 µs at 64 B, 4 Gbps goodput with
//! 64 kB messages; Linux 15.9 µs at 64 B, needing 384 kB to reach
//! 4 Gbps; both near wire speed for very large messages.
//!
//! Two companion sections run the same stack the figure measures: a
//! pool-hot steady state that asserts the zero-copy property, and a
//! memcached run at rising connection counts. Every other harness has
//! its own runner (see the harness table in docs/ARCHITECTURE.md).

use ebbrt_bench::netpipe;
use ebbrt_sim::CostProfile;

fn main() {
    let sizes: &[usize] = &[
        64,
        256,
        1024,
        4 * 1024,
        16 * 1024,
        64 * 1024,
        128 * 1024,
        256 * 1024,
        384 * 1024,
        512 * 1024,
        800 * 1024,
    ];
    println!("Figure 4: NetPIPE goodput vs message size");
    println!(
        "{:>9} {:>14} {:>14} {:>14} {:>14}",
        "bytes", "EbbRT us", "EbbRT Mbps", "Linux us", "Linux Mbps"
    );
    let mut rows = Vec::new();
    for &size in sizes {
        let rounds = if size <= 4096 { 50 } else { 8 };
        let e = netpipe::run(&CostProfile::ebbrt_vm(), size, rounds);
        let l = netpipe::run(&CostProfile::linux_vm(), size, rounds);
        println!(
            "{:>9} {:>14.1} {:>14.0} {:>14.1} {:>14.0}",
            size, e.one_way_us, e.goodput_mbps, l.one_way_us, l.goodput_mbps
        );
        rows.push(format!(
            "{},{:.2},{:.0},{:.2},{:.0}",
            size, e.one_way_us, e.goodput_mbps, l.one_way_us, l.goodput_mbps
        ));
    }
    let path = ebbrt_bench::write_csv(
        "fig4.csv",
        "message_bytes,ebbrt_oneway_us,ebbrt_mbps,linux_oneway_us,linux_mbps",
        &rows,
    )
    .expect("write csv");
    println!("wrote {}", path.display());
    println!("paper anchors: EbbRT 9.7us @64B, 4Gbps @64kB; Linux 15.9us @64B, 4Gbps @384kB");

    // Steady-state pooled-throughput mode: warm the per-core buffer
    // pools, then measure — and verify — the zero-copy property of the
    // hot path via the IOBuf counters.
    println!();
    println!("Steady state (pool-hot, post-warmup measurement):");
    println!(
        "{:>9} {:>14} {:>14} {:>12} {:>10}",
        "bytes", "EbbRT Mbps", "copied bytes", "fresh bufs", "pool hits"
    );
    for &size in &[4 * 1024, 64 * 1024, 256 * 1024] {
        let s = netpipe::run_steady(&CostProfile::ebbrt_vm(), size, 8, 16);
        println!(
            "{:>9} {:>14.0} {:>14} {:>12} {:>10}",
            size, s.goodput_mbps, s.bytes_copied, s.bufs_allocated, s.pool_hits
        );
        assert_eq!(
            (s.bytes_copied, s.bufs_allocated),
            (0, 0),
            "steady-state pipeline must be zero-copy and pool-hot"
        );
    }

    // High-connection-count dispatch: every TCP segment sets, restarts
    // or cancels the connection's RTO (and often its delayed-ACK)
    // timer, so this is where the O(1) timer wheel shows up end-to-end
    // — per-request latency stays flat as the number of connections
    // (each with timers in flight) grows.
    println!();
    println!("High-connection-count dispatch (memcached GET-heavy, EbbRT profile):");
    println!(
        "{:>9} {:>14} {:>12} {:>12}",
        "conns", "achieved rps", "mean us", "p99 us"
    );
    for &conns in &[16usize, 64, 256] {
        let mut cfg =
            ebbrt_bench::mutilate::ExperimentConfig::new(1, CostProfile::ebbrt_vm(), 150_000);
        cfg.connections = conns;
        cfg.warmup_ns = 20_000_000;
        cfg.duration_ns = 50_000_000;
        let s = ebbrt_bench::mutilate::run(&cfg);
        println!(
            "{:>9} {:>14.0} {:>12.1} {:>12.1}",
            conns, s.achieved_rps, s.mean_us, s.p99_us
        );
        assert!(
            s.achieved_rps > 0.0,
            "high-connection-count run served no requests"
        );
    }
}
