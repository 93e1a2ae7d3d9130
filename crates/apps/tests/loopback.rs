//! memcached on two bare runtimes joined by a loopback pair: the
//! product request path — driver, `rx_burst`, TCP, the server, the
//! reply's transmit — with no simulator under it. The test drives each
//! machine's one event manager in turn on a frozen [`ManualClock`]
//! (no timer fires, so no retransmission can hide in the count).
//!
//! Four connections each keep eight GETs of one 128-byte value in
//! flight. After a warm-up at least as long as the measured phase,
//! every measured reply is checked and counted, and the phase makes no
//! allocator call.

use std::rc::Rc;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use ebbrt_apps::memcached::{encode_get, serve_on, Client, ClosedLoop};
use ebbrt_apps::spawn_with;
use ebbrt_core::clock::ManualClock;
use ebbrt_core::cpu::CoreId;
use ebbrt_core::iobuf::IoBuf;
use ebbrt_core::runtime::{self, Runtime};
use ebbrt_net::loopback::LoopNic;
use ebbrt_net::types::Ipv4Addr;
use ebbrt_net::NetIf;

#[global_allocator]
static ALLOCATOR: test_alloc::CountingAlloc = test_alloc::CountingAlloc;

const SERVER_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
const MASK: Ipv4Addr = Ipv4Addr::new(255, 255, 255, 0);
const CONNS: usize = 4;
const DEPTH: usize = 8;
const VALUE_LEN: usize = 128;
/// GETs per connection in each phase: 20 000 measured in all.
const GETS: u32 = 5_000;
/// Event-loop passes a phase may take before the test gives up.
const MAX_PASSES: usize = 1_000_000;

/// One pass of each machine's event manager, in turn.
fn pass(machines: &[&Arc<Runtime>]) {
    for rt in machines {
        let _on = runtime::enter(Arc::clone(rt), CoreId(0));
        rt.event_manager(CoreId(0)).run_once();
    }
}

/// Runs both machines until `done`, or panics.
fn run_until(machines: &[&Arc<Runtime>], done: impl Fn() -> bool) {
    for _ in 0..MAX_PASSES {
        if done() {
            return;
        }
        pass(machines);
    }
    panic!("no quiescence in {MAX_PASSES} passes");
}

#[test]
fn memcached_serves_gets_over_a_loopback_pair_without_allocating_once_warm() {
    let clock = Arc::new(ManualClock::new());
    let server = Runtime::new(1, Arc::clone(&clock) as _);
    let client = Runtime::new(1, clock as _);
    let (s_nic, c_nic) = LoopNic::pair(&server, &client);
    let _s_if = NetIf::attach(&s_nic, SERVER_IP, MASK);
    let _c_if = NetIf::attach(&c_nic, CLIENT_IP, MASK);
    let machines = [&server, &client];

    let store = serve_on(&server);
    let loops: Vec<Rc<Client<ClosedLoop>>> = (0..CONNS)
        .map(|i| {
            let key = format!("key{i}");
            store.insert_raw(
                key.clone().into_bytes(),
                IoBuf::copy_from(&[i as u8; VALUE_LEN]),
            );
            let get = ClosedLoop::new(encode_get(key.as_bytes(), i as u32), DEPTH, VALUE_LEN);
            Client::spawn(&client, CoreId(0), SERVER_IP, get)
        })
        .collect();
    let kick = |n: u32| {
        for c in &loops {
            spawn_with(&client, CoreId(0), Rc::clone(c), move |c| {
                c.workload.kick(&c, n)
            });
        }
    };
    // A phase is over once every loop has its `GETS` replies and nothing
    // is queued or in flight (before its kick event runs, a loop is idle
    // with no replies).
    let done = || {
        loops
            .iter()
            .all(|c| c.workload.idle(c) && c.workload.lat.borrow().count() == GETS as usize)
    };

    // Warm-up: handshakes, ARP, and the pools, caches and recorders
    // grown to the measured phase's size.
    kick(GETS);
    run_until(&machines, done);
    for c in &loops {
        assert_eq!(c.workload.failures.get(), 0, "warm-up replies");
        c.workload.lat.borrow_mut().reset();
    }
    let gets_before = store.gets.load(Ordering::Relaxed);

    // Counted from once the kicks are queued: a kick is the harness's
    // event, boxed when spawned, not part of the request path.
    kick(GETS);
    let calls_before = test_alloc::thread_calls();
    run_until(&machines, done);
    let calls = test_alloc::thread_calls() - calls_before;

    for (i, c) in loops.iter().enumerate() {
        assert_eq!(
            c.workload.failures.get(),
            0,
            "connection {i}: every reply OK, {VALUE_LEN} value bytes"
        );
        assert_eq!(
            c.workload.lat.borrow().count(),
            GETS as usize,
            "connection {i}: replies"
        );
    }
    let served = store.gets.load(Ordering::Relaxed) - gets_before;
    assert_eq!(
        served,
        CONNS as u64 * GETS as u64,
        "GETs the server answered"
    );
    assert_eq!(calls, 0, "allocator calls in {served} measured GETs");
}
