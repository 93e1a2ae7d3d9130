//! The zero-copy request pipeline, measured and *proven*.
//!
//! Three parts:
//!
//! 1. A steady-state memcached GET workload over the full simulated
//!    path (client → NIC → TCP → parse → RCU store → response chain →
//!    NIC → client) that warms the per-core buffer pools and then
//!    asserts, via [`ebbrt_core::iobuf::stats`], that the measured
//!    phase copies **0 payload bytes** and allocates **0 fresh
//!    buffers** — pool hits only. This is §3.6's IOBuf discipline as a
//!    checked invariant rather than a design intention.
//! 2. The N-core RSS sweep ([`ebbrt_bench::rss_sweep`]) at 1, 2, 4 and
//!    8 event cores: the same property across both buffer size classes
//!    (2 KiB and 64 KiB), deliberately skewed traffic, and cross-core
//!    depot migration from 4 cores up — plus the guarantee that a
//!    > 2 KiB SET never takes the one-shot-allocation fallback.
//! 3. Criterion microbenchmarks of the primitives that make it true:
//!    pooled vs fresh buffer acquisition (both classes), zero-copy
//!    cursor reads vs copying reads, and descriptor-chain splitting.

use std::cell::Cell;
use std::rc::Rc;
use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ebbrt_apps::memcached::{self, Client, Header};
use ebbrt_bench::script::GetLoop;
use ebbrt_core::cpu::CoreId;
use ebbrt_core::iobuf::{pool, stats, Chain, IoBuf, MutIoBuf};
use ebbrt_core::runtime::Runtime;
use ebbrt_net::types::Ipv4Addr;
use ebbrt_sim::{CostProfile, Lan};

/// Bytes in the benched value.
const VALUE_LEN: usize = 512;
/// Requests before measurement starts (pool + ARP + TCP state warm).
const WARMUP_GETS: u32 = 64;
/// Measured requests.
const STEADY_GETS: u32 = 256;

/// Runs the steady-state GET workload and asserts the zero-copy
/// property over the measured phase.
fn verify_zero_copy_get_path(_c: &mut Criterion) {
    let lan = Lan::new();
    let w = &lan.world;
    let vm = CostProfile::ebbrt_vm;
    let server_ip = Ipv4Addr::new(10, 0, 0, 1);
    let (server, _s_if) = lan.machine("server", 1, vm(), [0xAA; 6], server_ip);
    let (client, _c_if) = lan.machine("client", 1, vm(), [0xBB; 6], Ipv4Addr::new(10, 0, 0, 2));
    w.run_to_idle();

    let store = memcached::serve_on(&server);
    store.insert_raw(b"bench_key".to_vec(), IoBuf::copy_from(&[0xAB; VALUE_LEN]));
    w.run_to_idle();

    // Pool counters are per machine, so the zero-copy property is read
    // as the world total over both ends of the wire.
    let world = [Arc::clone(server.runtime()), Arc::clone(client.runtime())];
    let snapshot = move || stats::world_snapshot(world.iter().map(Arc::as_ref));
    let base: Rc<Cell<Option<stats::Snapshot>>> = Rc::default();
    let (base2, snapshot2) = (Rc::clone(&base), snapshot.clone());
    let gets = GetLoop::new(b"bench_key", 1, WARMUP_GETS, STEADY_GETS, move |start| {
        if start {
            base2.set(Some(snapshot2()));
        }
    });
    let conn = Client::spawn(&client, CoreId(0), server_ip, gets);
    w.run_to_idle();
    let handler = &conn.workload;

    assert_eq!(handler.remaining.get(), 0, "workload did not complete");
    let delta = snapshot().since(&base.get().expect("warmup completed"));
    let elapsed_ns = handler.steady_ns[1].get() - handler.steady_ns[0].get();
    let us_per_get = elapsed_ns as f64 / STEADY_GETS as f64 / 1000.0;
    let (server_free, server_depot) =
        pool::runtime_free_counts(server.runtime(), pool::SizeClass::SMALL);
    println!(
        "steady-state memcached GET x{STEADY_GETS}: {us_per_get:.2} virtual-us/req, \
         {} payload bytes copied, {} fresh buffer allocations, {} pool hits \
         (server free {server_free}, depot {server_depot})",
        delta.bytes_copied, delta.bufs_allocated, delta.pool_hits,
    );
    assert_eq!(
        delta.bytes_copied, 0,
        "steady-state GET path must copy zero payload bytes"
    );
    assert_eq!(
        delta.bufs_allocated, 0,
        "steady-state GET path must allocate zero fresh buffers"
    );
    assert!(
        delta.pool_hits > 0,
        "steady-state GET path must be served by the buffer pool"
    );
}

/// Runs the skewed RSS sweep at 1, 2, 4 and 8 cores and asserts the
/// production-shaped zero-copy claim at every point: 0 copies / 0
/// fresh allocations in both size classes, no large-SET fallback,
/// depot migration under cross-core skew.
fn verify_rss_sweep_multi_class(_c: &mut Criterion) {
    for cores in [1, 2, 4, 8] {
        let cfg = ebbrt_bench::rss_sweep::SweepConfig::for_cores(cores);
        let report = ebbrt_bench::rss_sweep::run(&cfg);
        println!("{}", ebbrt_bench::rss_sweep::format_report(&report));
        if cores >= 4 {
            assert!(
                report.cross_core_conns > 0,
                "RSS must split flows across cores at N >= 4"
            );
        }
        ebbrt_bench::rss_sweep::assert_properties(&report);
    }
}

/// Pool ops **outside any entered runtime**: these resolve the
/// thread's private ambient context. Since the distributed-Ebbs PR the
/// leased (runtime, core) pair is cached in TLS, so the unentered path
/// is one `Cell` read away from the entered one instead of paying
/// `OnceLock` + `Arc`-clone + `RefCell` accounting per operation —
/// compare this group against `buffer_acquisition` below.
fn bench_unentered_pool_ops(c: &mut Criterion) {
    assert!(
        !ebbrt_core::runtime::is_entered(),
        "this group must measure the ambient fast path"
    );
    let mut g = c.benchmark_group("buffer_acquisition_unentered");
    pool::prewarm(4);
    g.bench_function("pooled_acquire_release_1500B_unentered", |b| {
        b.iter(|| {
            let mut buf = MutIoBuf::with_capacity(1500);
            buf.append(64);
            black_box(&mut buf);
            // drop: recycles into the ambient core's free list
        })
    });
    g.finish();
}

fn bench_buffer_acquisition(c: &mut Criterion) {
    // Enter a runtime so the pool Ebb resolves through the paper's
    // fast path (the production configuration), not the ambient
    // fallback test threads use.
    let rt = Runtime::new(1, Arc::new(ebbrt_core::clock::ManualClock::new()));
    let _g = ebbrt_core::runtime::enter(rt, CoreId(0));
    let mut g = c.benchmark_group("buffer_acquisition");
    // Heat the pools so the pooled cases measure recycling, not growth.
    pool::prewarm(4);
    pool::prewarm_class(pool::SizeClass::LARGE, 4);
    g.bench_function("pooled_acquire_release_1500B", |b| {
        b.iter(|| {
            let mut buf = MutIoBuf::with_capacity(1500);
            buf.append(64);
            black_box(&mut buf);
            // drop: recycles into the per-core free list
        })
    });
    g.bench_function("fresh_zeroed_acquire_release_1500B", |b| {
        b.iter(|| {
            let mut buf = MutIoBuf::from_vec(vec![0u8; 1500]);
            buf.trim_end(1500 - 64);
            black_box(&mut buf);
            // drop: storage freed, next iteration re-allocates
        })
    });
    g.bench_function("pooled_acquire_release_20KiB", |b| {
        b.iter(|| {
            let mut buf = MutIoBuf::with_capacity(20 * 1024);
            buf.append(64);
            black_box(&mut buf);
            // drop: recycles into the large class's free list
        })
    });
    g.bench_function("fresh_zeroed_acquire_release_20KiB", |b| {
        b.iter(|| {
            let mut buf = MutIoBuf::from_vec(vec![0u8; 20 * 1024]);
            buf.trim_end(20 * 1024 - 64);
            black_box(&mut buf);
            // drop: storage freed, next iteration re-allocates
        })
    });
    g.finish();
}

fn bench_cursor_reads(c: &mut Criterion) {
    let rt = Runtime::new(1, Arc::new(ebbrt_core::clock::ManualClock::new()));
    let _g = ebbrt_core::runtime::enter(rt, CoreId(0));
    // A chain shaped like a segmented request stream.
    let mut chain: Chain<IoBuf> = Chain::new();
    for _ in 0..8 {
        chain.push_back(IoBuf::copy_from(&vec![7u8; 512]));
    }
    let mut g = c.benchmark_group("cursor_reads");
    g.bench_function("read_exact_zero_copy_4k", |b| {
        b.iter(|| {
            let mut cur = chain.cursor();
            black_box(cur.read_exact_zero_copy(4096).unwrap())
        })
    });
    g.bench_function("read_vec_copying_4k", |b| {
        b.iter(|| {
            let mut cur = chain.cursor();
            black_box(cur.read_vec(4096).unwrap())
        })
    });
    g.finish();
}

fn bench_chain_ops(c: &mut Criterion) {
    let rt = Runtime::new(1, Arc::new(ebbrt_core::clock::ManualClock::new()));
    let _g = ebbrt_core::runtime::enter(rt, CoreId(0));
    let big = IoBuf::copy_from(&vec![7u8; 64 * 1024]);
    let mut g = c.benchmark_group("chain_ops");
    g.bench_function("split_to_mss_from_64k", |b| {
        b.iter(|| {
            let mut chain = Chain::single(big.clone());
            let head = chain.split_to(1460);
            black_box((head, chain))
        })
    });
    let value = IoBuf::copy_from(&vec![3u8; VALUE_LEN]);
    g.bench_function("get_response_assembly", |b| {
        b.iter(|| {
            // The server's response path: pooled header + value clone.
            let mut rbuf = MutIoBuf::with_capacity(Header::SIZE + 4);
            rbuf.append(Header::SIZE + 4).fill(0);
            let mut out: Chain<IoBuf> = Chain::new();
            out.push_back(rbuf.freeze());
            out.push_back(value.clone());
            black_box(out)
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    verify_zero_copy_get_path,
    verify_rss_sweep_multi_class,
    bench_unentered_pool_ops,
    bench_buffer_acquisition,
    bench_cursor_reads,
    bench_chain_ops
);
criterion_main!(benches);
