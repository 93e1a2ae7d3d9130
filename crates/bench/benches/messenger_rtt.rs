//! Messenger round-trip + multi-machine sharded memcached, property
//! benches for the distributed-Ebb layer.
//!
//! 1. A closed-loop RPC ping-pong between two machines measures the
//!    messenger's virtual-time round trip (call → handler → respond →
//!    waiter), and asserts a **regression ceiling**: virtual time is
//!    deterministic, so the ceiling is exact, not flaky. It also
//!    proves the failure bookkeeping is clean in steady state: no
//!    waiter or armed timeout entry survives the run.
//! 2. The multi-machine sharded memcached ([`ebbrt_bench::dist_memcached`])
//!    runs end to end: cross-shard GETs function-ship to their owner,
//!    the local-shard phase stays zero-copy / zero-allocation, a dead
//!    shard answers `STATUS_REMOTE_ERROR` promptly, and both measured
//!    latencies sit under deterministic ceilings.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use criterion::{criterion_group, criterion_main, Criterion};
use ebbrt_core::cpu::CoreId;
use ebbrt_core::ebb::EbbId;
use ebbrt_hosted::messenger::{local_messenger, Messenger};
use ebbrt_net::types::Ipv4Addr;
use ebbrt_net::Lan;
use ebbrt_sim::CostProfile;

/// Calls per ping-pong run.
const RPC_ROUNDS: u32 = 256;
/// Ceiling on the mean messenger RPC round trip (virtual µs) between
/// two EbbRT-profile machines. Measured ≈21 µs; deterministic, so a
/// modest margin suffices to catch real regressions.
const RPC_RTT_CEILING_US: f64 = 35.0;
/// Ceiling on the sharded cluster's mean local-shard GET (virtual µs).
const LOCAL_GET_CEILING_US: f64 = 30.0;
/// Ceiling on the mean function-shipped GET (virtual µs): one
/// memcached hop plus one messenger hop.
const REMOTE_GET_CEILING_US: f64 = 70.0;

fn now_ns() -> u64 {
    ebbrt_core::runtime::with_current(|rt| rt.now_ns())
}

fn fire(left: u32, dst: Ipv4Addr, id: EbbId, lat: Rc<RefCell<Vec<u64>>>, done: Rc<Cell<bool>>) {
    let t0 = now_ns();
    let msgr = local_messenger();
    msgr.call_with_timeout(dst, id, &[0u8; 32], 10_000_000, move |r| {
        r.expect("echo peer must answer");
        lat.borrow_mut().push(now_ns() - t0);
        if left > 1 {
            fire(left - 1, dst, id, lat, done);
        } else {
            done.set(true);
        }
    });
}

fn verify_messenger_round_trip(_c: &mut Criterion) {
    let lan = Lan::new();
    let vm = CostProfile::ebbrt_vm;
    let w = &lan.world;
    let (_server, s_if) = lan.machine("server", 1, vm(), [0xA1; 6], Ipv4Addr::new(10, 0, 2, 1));
    let (client, c_if) = lan.machine("client", 1, vm(), [0xB1; 6], Ipv4Addr::new(10, 0, 2, 2));
    w.run_to_idle();
    let s_msgr = Messenger::start(&s_if);
    let c_msgr = Messenger::start(&c_if);
    let echo_id = EbbId(4000);
    let s2 = Rc::clone(&s_msgr);
    s_msgr.register(echo_id, move |src, rpc_id, payload| {
        s2.respond(src, echo_id, rpc_id, &payload.copy_to_vec());
    });

    let lat = Rc::new(RefCell::new(Vec::new()));
    let done = Rc::new(Cell::new(false));
    let (l2, d2) = (Rc::clone(&lat), Rc::clone(&done));
    client.spawn_local(CoreId(0), move || {
        fire(RPC_ROUNDS, Ipv4Addr::new(10, 0, 2, 1), echo_id, l2, d2);
    });
    w.run_to_idle();

    assert!(done.get(), "the ping-pong must complete — no hang");
    let lat = lat.borrow();
    assert_eq!(lat.len() as u32, RPC_ROUNDS);
    // Drop the connection-establishment warmup (first call carries the
    // TCP handshake + ARP).
    let steady = &lat[8..];
    let mean_us = steady.iter().sum::<u64>() as f64 / steady.len() as f64 / 1000.0;
    println!(
        "messenger rpc round trip x{RPC_ROUNDS}: mean {mean_us:.1} virtual-us \
         (ceiling {RPC_RTT_CEILING_US} us)"
    );
    assert!(
        mean_us <= RPC_RTT_CEILING_US,
        "messenger RTT regressed: {mean_us:.1} us > {RPC_RTT_CEILING_US} us"
    );
    // Steady-state hygiene: nothing pending, nothing armed.
    assert_eq!(c_msgr.pending_rpcs(), 0, "no leaked rpc waiter");
    {
        let _b = ebbrt_core::cpu::bind(CoreId(0));
        assert_eq!(
            client
                .runtime()
                .event_manager(CoreId(0))
                .timer_stats()
                .pending,
            0,
            "no leaked rpc timeout entry"
        );
    }
}

fn verify_sharded_memcached_e2e(_c: &mut Criterion) {
    let r = ebbrt_bench::dist_memcached::run(&ebbrt_bench::dist_memcached::DistConfig::default());
    println!("{}", ebbrt_bench::dist_memcached::format_report(&r));
    ebbrt_bench::dist_memcached::assert_properties(&r);
    assert!(
        r.local_mean_us <= LOCAL_GET_CEILING_US,
        "local-shard GET regressed: {:.1} us > {LOCAL_GET_CEILING_US} us",
        r.local_mean_us
    );
    assert!(
        r.remote_mean_us <= REMOTE_GET_CEILING_US,
        "function-shipped GET regressed: {:.1} us > {REMOTE_GET_CEILING_US} us",
        r.remote_mean_us
    );
}

criterion_group!(
    benches,
    verify_messenger_round_trip,
    verify_sharded_memcached_e2e
);
criterion_main!(benches);
