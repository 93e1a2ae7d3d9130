//! memcached on two bare runtimes joined by a loopback pair: the
//! product request path — driver, `rx_burst`, TCP, the server, the
//! reply's transmit — with no simulator under it. The test drives each
//! machine's one event manager in turn on a frozen [`ManualClock`]
//! (no timer fires, so no retransmission can hide in the count).
//!
//! A shape is a number of connections, each keeping a number of
//! requests of one value in flight. After a warm-up as long as the
//! measured phase, every measured reply is checked and counted, and
//! the phase's allocator calls and copied bytes (both machines) are
//! read back. Four connections eight deep on a 128-byte value make no
//! allocator call; the depth sweep pins every shape's exact count.

use std::rc::Rc;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use ebbrt_apps::memcached::{encode_get, encode_set, serve_on, Client, ClosedLoop};
use ebbrt_apps::spawn_with;
use ebbrt_core::clock::ManualClock;
use ebbrt_core::cpu::CoreId;
use ebbrt_core::iobuf::{stats, IoBuf};
use ebbrt_core::runtime::{self, Runtime};
use ebbrt_net::loopback::LoopNic;
use ebbrt_net::types::Ipv4Addr;
use ebbrt_net::NetIf;

#[global_allocator]
static ALLOCATOR: test_alloc::CountingAlloc = test_alloc::CountingAlloc;

const SERVER_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
const MASK: Ipv4Addr = Ipv4Addr::new(255, 255, 255, 0);
/// Requests in each phase, over all connections.
const REQUESTS: u32 = 20_000;
/// Event-loop passes a phase may take before the test gives up.
const MAX_PASSES: usize = 1_000_000;

/// One pass of each machine's core, in turn.
fn pass(machines: &[&Arc<Runtime>]) {
    for rt in machines {
        let _on = runtime::enter(Arc::clone(rt), CoreId(0));
        rt.pass(CoreId(0), |_| false);
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

/// `conns` connections, each keeping `depth` requests of its own key
/// in flight; the first `sets` connections SET a `value_len`-byte
/// value, the others GET one.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Shape {
    conns: usize,
    depth: usize,
    value_len: usize,
    sets: usize,
}

/// What a shape's measured phase cost, both machines together.
#[derive(Debug, PartialEq)]
struct Cost {
    allocator_calls: u64,
    bytes_copied: u64,
}

/// Runs `shape` on a thread of its own (a thread's spare chain spines
/// would otherwise carry from one shape to the next) and returns what
/// its measured phase cost.
fn measure(shape: Shape) -> Cost {
    std::thread::spawn(move || measure_here(shape))
        .join()
        .unwrap_or_else(|_| panic!("{shape:?}: the run panicked"))
}

fn measure_here(shape: Shape) -> Cost {
    let per_conn = REQUESTS / shape.conns as u32;
    let clock = Arc::new(ManualClock::new());
    let server = Runtime::new(1, Arc::clone(&clock) as _);
    let client = Runtime::new(1, clock as _);
    let (s_nic, c_nic) = LoopNic::pair(&server, &client);
    let _s_if = NetIf::attach(&s_nic, SERVER_IP, MASK);
    let _c_if = NetIf::attach(&c_nic, CLIENT_IP, MASK);
    let machines = [&server, &client];

    let store = serve_on(&server);
    let value = vec![7u8; shape.value_len];
    let loops: Vec<Rc<Client<ClosedLoop>>> = (0..shape.conns)
        .map(|i| {
            let key = format!("key{i}").into_bytes();
            store.insert_raw(key.clone(), IoBuf::copy_from(&value));
            let (request, reply_len) = match i < shape.sets {
                true => (encode_set(&key, &value, i as u32), 0),
                false => (encode_get(&key, i as u32), shape.value_len),
            };
            let workload = ClosedLoop::new(request, shape.depth, reply_len);
            Client::spawn(&client, CoreId(0), SERVER_IP, workload)
        })
        .collect();
    let kick = || {
        for c in &loops {
            spawn_with(&client, CoreId(0), Rc::clone(c), move |c| {
                c.workload.kick(&c, per_conn)
            });
        }
    };
    // A phase is over once every loop has its replies and nothing is
    // queued or in flight (before its kick event runs, a loop is idle
    // with no replies).
    let done = || {
        loops
            .iter()
            .all(|c| c.workload.idle(c) && c.workload.lat.borrow().count() == per_conn as usize)
    };
    let served = || store.gets.load(Ordering::Relaxed) + store.sets.load(Ordering::Relaxed);
    let copied = || stats::world_snapshot([&*server, &*client]).bytes_copied;

    // Warm-up: handshakes, ARP, and the pools, caches and recorders
    // grown to the measured phase's size.
    kick();
    run_until(&machines, done);
    for c in &loops {
        assert_eq!(c.workload.failures.get(), 0, "{shape:?}: warm-up replies");
        c.workload.lat.borrow_mut().reset();
    }
    let (served_before, copied_before) = (served(), copied());

    // Counted from once the kicks are queued: a kick is the harness's
    // event, boxed when spawned, not part of the request path.
    kick();
    let calls_before = test_alloc::thread_calls();
    run_until(&machines, done);
    let allocator_calls = test_alloc::thread_calls() - calls_before;
    let bytes_copied = copied() - copied_before;

    for (i, c) in loops.iter().enumerate() {
        assert_eq!(
            c.workload.failures.get(),
            0,
            "{shape:?}, connection {i}: every reply OK, with its value"
        );
        assert_eq!(
            c.workload.lat.borrow().count(),
            per_conn as usize,
            "{shape:?}, connection {i}: replies"
        );
    }
    assert_eq!(
        served() - served_before,
        shape.conns as u64 * per_conn as u64,
        "{shape:?}: requests the server answered"
    );
    Cost {
        allocator_calls,
        bytes_copied,
    }
}

#[test]
fn memcached_serves_gets_over_a_loopback_pair_without_allocating_once_warm() {
    let shape = gets(4, 8, 128);
    let cost = measure(shape);
    assert_eq!(
        cost,
        Cost {
            allocator_calls: 0,
            bytes_copied: 0
        },
        "{shape:?}: {REQUESTS} measured GETs"
    );
}

/// A GET shape.
const fn gets(conns: usize, depth: usize, value_len: usize) -> Shape {
    Shape {
        conns,
        depth,
        value_len,
        sets: 0,
    }
}

/// Chain spines the per-thread free list misses: `Spine::take` under
/// `Chain::regrow`, from `Pcb::on_data`'s and `NetIf::tcp_emit`'s
/// `append_chain`, `Pcb::transmit`'s `Chain::clone` and `push_hit`.
const SPINES: &str = "chain spines the per-thread free list misses: ROADMAP `[zero-alloc]` (c)";
/// Per-core vectors and pools first reaching a new peak in the
/// measured phase: `ObjCache::absorb`/`give` and the pool's mailboxes,
/// `add_idle_once`, `classify_tcp`'s runs, `RxQueue::deliver`, a
/// fresh `SMALL` region.
const PEAKS: &str = "vectors and pools first reaching a new peak: ROADMAP `[zero-alloc]` (d)";
/// Both.
const BOTH: &str = "chain spines and new peaks: ROADMAP `[zero-alloc]` (c) and (d)";

/// Shapes whose measured phase makes allocator calls, with the count
/// and its cause (one backtrace per call); every other shape makes
/// none.
const CALLING: &[(Shape, u64, &str)] = &[
    (gets(1, 16, 1024), 5, PEAKS),
    (gets(1, 16, 4096), 5, PEAKS),
    (gets(1, 32, 1024), 4380, BOTH),
    (gets(1, 32, 4096), 6, PEAKS),
    (gets(1, 64, 8), 312, SPINES),
    (gets(1, 64, 128), 1255, BOTH),
    (gets(1, 64, 1024), 8490, SPINES),
    (gets(1, 64, 4096), 5, PEAKS),
    (gets(4, 2, 1024), 1, PEAKS),
    (gets(4, 8, 4096), 2, BOTH),
    (gets(4, 16, 8), 2, PEAKS),
    (gets(4, 16, 128), 3, SPINES),
    (gets(4, 16, 1024), 4385, BOTH),
    (gets(4, 32, 8), 2, PEAKS),
    (gets(4, 32, 128), 635, BOTH),
    (gets(4, 32, 1024), 5960, BOTH),
    (gets(4, 64, 8), 322, BOTH),
    (gets(4, 64, 128), 1573, BOTH),
    (gets(4, 64, 1024), 7697, BOTH),
    (gets(4, 64, 4096), 3, PEAKS),
];

/// Runs every shape with `conns` connections: depths 1 to 64, values of
/// 8 B to 4 KiB. Prints a table, then asserts 0 bytes copied and, per
/// shape, 0 allocator calls or the count [`CALLING`] names.
fn sweep(conns: usize, extra: &[Shape]) {
    let mut shapes = Vec::new();
    for value_len in [8, 128, 1024, 4096] {
        for depth in [1, 2, 4, 8, 16, 32, 64] {
            shapes.push(gets(conns, depth, value_len));
        }
    }
    shapes.extend_from_slice(extra);
    let mut wrong = Vec::new();
    for shape in shapes {
        let cost = measure(shape);
        println!("{shape:?}: {cost:?}");
        let (calls, why) = CALLING.iter().find(|(s, _, _)| *s == shape).map_or(
            (0, "the request path allocates nothing once warm"),
            |&(_, n, why)| (n, why),
        );
        if cost.allocator_calls != calls || cost.bytes_copied != 0 {
            wrong.push(format!(
                "{shape:?}: {cost:?}, want {calls} allocator calls ({why}) and 0 bytes copied"
            ));
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

#[test]
fn a_depth_sweep_over_one_connection() {
    sweep(1, &[]);
}

#[test]
fn a_depth_sweep_over_four_connections_and_a_set_heavy_mix() {
    let mix = Shape {
        conns: 4,
        depth: 8,
        value_len: 1024,
        sets: 3,
    };
    sweep(4, &[mix]);
}
