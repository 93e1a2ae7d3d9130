//! Ablations of two of the paper's design choices.
//!
//! 1. **Adaptive polling** (§3.2): the memcached saturation behaviour
//!    with the driver forced to interrupt-only mode vs adaptive. The
//!    per-interrupt entry cost at high load is what polling removes.
//! 2. **Function-offload caching** (§4.3's future-work note): RPC
//!    round trips for repeated FileSystem reads, naïve vs caching
//!    representative.

use std::cell::Cell;
use std::rc::Rc;

use ebbrt_apps::spawn_with;
use ebbrt_bench::mutilate::{self, ExperimentConfig};
use ebbrt_core::cpu::CoreId;
use ebbrt_hosted::fs::{fs_ref, CachingFsClient, FsServer, FS_EBB_ID};
use ebbrt_hosted::global_map::GlobalIdMap;
use ebbrt_hosted::messenger::Messenger;
use ebbrt_hosted::remote::MessengerTransport;
use ebbrt_net::driver::POLL_ENTER_BURST;
use ebbrt_net::types::Ipv4Addr;
use ebbrt_sim::{CostProfile, Lan};

fn ablation_polling() {
    println!("-- ablation 1: adaptive polling vs interrupt-only (memcached, 1 core) --");
    println!(
        "{:<16} {:>10} {:>12} {:>10} {:>10}",
        "driver", "offered", "achieved", "mean_us", "p99_us"
    );
    for load in [200_000u64, 260_000] {
        // Interrupt-only mode: an enter threshold no burst reaches.
        for (name, threshold) in [
            ("adaptive", POLL_ENTER_BURST),
            ("interrupt-only", usize::MAX),
        ] {
            let profile = CostProfile {
                poll_enter_burst: threshold,
                ..CostProfile::ebbrt_vm()
            };
            let cfg = ExperimentConfig::new(1, profile, load);
            let s = mutilate::run(&cfg);
            println!(
                "{:<16} {:>10} {:>12.0} {:>10.1} {:>10.1}",
                name, load, s.achieved_rps, s.mean_us, s.p99_us
            );
        }
    }
}

fn ablation_fs_caching() {
    println!("\n-- ablation 2: FileSystem offload, naive vs caching representative --");
    let reads = 32;
    for caching in [false, true] {
        let lan = Lan::new();
        let vm = CostProfile::ebbrt_vm;
        let w = &lan.world;
        let linux = CostProfile::linux_vm;
        let hosted_ip = Ipv4Addr::new(10, 0, 0, 1);
        let (_hosted, h_if) = lan.machine("hosted", 1, linux(), [0x01; 6], hosted_ip);
        let (native, n_if) = lan.machine("native", 1, vm(), [0x02; 6], Ipv4Addr::new(10, 0, 0, 2));
        w.run_to_idle();
        let h_msgr = Messenger::start(&h_if);
        let n_msgr = Messenger::start(&n_if);
        let server = FsServer::start(&h_msgr);
        server.put("/lib/app.js", vec![b'x'; 4096]);
        MessengerTransport::install(&n_msgr, GlobalIdMap::new(&n_msgr, hosted_ip))
            .preset_owner(FS_EBB_ID, hosted_ip);
        let cache = Rc::new(CachingFsClient::default());

        let start = Rc::new(Cell::new(0u64));
        let end = Rc::new(Cell::new(0u64));
        let s2 = Rc::clone(&start);
        let e2 = Rc::clone(&end);
        // Chain `reads` sequential reads.
        fn next(cache: Rc<CachingFsClient>, caching: bool, left: usize, end: Rc<Cell<u64>>) {
            if left == 0 {
                end.set(ebbrt_core::runtime::with_current(|rt| rt.now_ns()));
                return;
            }
            let cache2 = Rc::clone(&cache);
            let done = move |_d: Option<Vec<u8>>| {
                next(cache2, caching, left - 1, end);
            };
            if caching {
                cache.read("/lib/app.js", done);
            } else {
                fs_ref().with(|fs| fs.read("/lib/app.js", done));
            }
        }
        spawn_with(&native, CoreId(0), cache, move |cache| {
            s2.set(ebbrt_core::runtime::with_current(|rt| rt.now_ns()));
            next(cache, caching, reads, e2);
        });
        w.run_to_idle();
        let elapsed = end.get().saturating_sub(start.get());
        println!(
            "  {:<8} {} reads: {:>8.1} us total, {} remote RPCs",
            if caching { "caching" } else { "naive" },
            reads,
            elapsed as f64 / 1000.0,
            server.requests()
        );
    }
}

fn main() {
    ablation_polling();
    ablation_fs_caching();
}
