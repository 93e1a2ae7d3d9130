//! Microbenchmarks of the remaining core primitives: IOBuf chain
//! operations, RCU hash map reads vs a locked map, and event
//! spawn/dispatch — the "fine-grained decomposition without
//! loss of performance" claim (§3).

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ebbrt_core::clock::ManualClock;
use ebbrt_core::cpu::{self, CoreId};
use ebbrt_core::iobuf::{Chain, IoBuf, MutIoBuf};
use ebbrt_core::rcu::RcuDomain;
use ebbrt_core::rcu_hash::RcuHashMap;

fn bench_iobuf(c: &mut Criterion) {
    let mut g = c.benchmark_group("iobuf");
    g.bench_function("header_prepend_tx_path", |b| {
        b.iter(|| {
            let mut buf = MutIoBuf::with_headroom(64, 128);
            buf.append(64);
            buf.prepend(20); // TCP
            buf.prepend(20); // IPv4
            buf.prepend(14); // Ethernet
            black_box(buf.freeze())
        })
    });
    let big = IoBuf::copy_from(&vec![7u8; 64 * 1024]);
    g.bench_function("chain_split_64k_zero_copy", |b| {
        b.iter(|| {
            let mut chain = Chain::single(big.clone());
            let head = chain.split_to(1448);
            black_box((head, chain))
        })
    });
    g.finish();
}

fn bench_rcu_map(c: &mut Criterion) {
    let domain = Arc::new(RcuDomain::new(1));
    let map: RcuHashMap<u64, u64> = RcuHashMap::new(Arc::clone(&domain));
    let locked = parking_lot::Mutex::new(std::collections::HashMap::new());
    for i in 0..1000u64 {
        map.insert(i, i * 3);
        locked.lock().insert(i, i * 3);
    }
    let _guard = domain.read_guard(CoreId(0));
    let mut g = c.benchmark_group("connection_lookup");
    g.bench_function("rcu_hash_get", |b| {
        let mut k = 0u64;
        b.iter(|| {
            k = (k + 7) % 1000;
            black_box(map.get(&k, |v| *v))
        })
    });
    g.bench_function("mutex_hash_get", |b| {
        let mut k = 0u64;
        b.iter(|| {
            k = (k + 7) % 1000;
            black_box(locked.lock().get(&k).copied())
        })
    });
    g.finish();
}

fn bench_events(c: &mut Criterion) {
    use ebbrt_core::event::EventManager;
    use ebbrt_core::rcu::CoreEpoch;
    let em = EventManager::new(
        CoreId(0),
        Arc::new(ManualClock::new()),
        Arc::new(CoreEpoch::new()),
    );
    let _b = cpu::bind(CoreId(0));
    let mut g = c.benchmark_group("events");
    g.bench_function("spawn_plus_dispatch", |b| {
        b.iter(|| {
            em.spawn_local(|| {});
            em.drain()
        })
    });
    g.finish();
}

criterion_group!(benches, bench_iobuf, bench_rcu_map, bench_events);
criterion_main!(benches);
