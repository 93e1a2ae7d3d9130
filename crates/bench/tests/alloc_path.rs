//! Allocator calls on the data path, counted by a `#[global_allocator]`
//! (per thread, so the harness's other test threads do not leak in).
//!
//! 1. **A data frame's trip performs none.** From `TcpConn::send` on
//!    one machine to `on_receive` on the other — header buffer from the
//!    pool, `freeze`, the switch's typed delivery entry, the NIC ring,
//!    the interrupt wake, `rx_burst`'s reused vectors, reassembly into
//!    the run's delivery chain — the allocator is not called once.
//! 2. **A warmed memcached world stays under a fixed ceiling per
//!    request**, arrival timers and client bookkeeping included.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

use ebbrt_apps::mutilate::{self, ExperimentConfig};
use ebbrt_apps::spawn_with;
use ebbrt_core::cpu::CoreId;
use ebbrt_core::iobuf::{Chain, IoBuf, MutIoBuf};
use ebbrt_net::netif::{local_netif, ConnHandler, NetIf, TcpConn};
use ebbrt_net::types::Ipv4Addr;
use ebbrt_sim::{CostProfile, LinkParams, SimMachine, SimWorld, Switch};

struct Counting;

thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the allocator outlives a thread's locals.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

/// `alloc` + `alloc_zeroed` + `realloc` calls made by this thread.
fn alloc_calls() -> u64 {
    CALLS.with(Cell::get)
}

// SAFETY: every method forwards to `System` unchanged; the counter is a
// const-initialised thread-local `Cell`, which allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Receiver: notes the allocator count on entry to every delivery.
#[derive(Default)]
struct Sink {
    deliveries: Cell<u32>,
    bytes: Cell<usize>,
    calls_at_delivery: Cell<u64>,
}

impl ConnHandler for Sink {
    fn on_receive(&self, _conn: &TcpConn, data: Chain<IoBuf>) {
        self.calls_at_delivery.set(alloc_calls());
        self.deliveries.set(self.deliveries.get() + 1);
        self.bytes.set(self.bytes.get() + data.len());
    }
}

/// Sender: holds the connection; never receives.
#[derive(Default)]
struct Source {
    conn: RefCell<Option<TcpConn>>,
}

impl ConnHandler for Source {
    fn on_connected(&self, conn: &TcpConn) {
        *self.conn.borrow_mut() = Some(conn.clone());
    }

    fn on_receive(&self, _conn: &TcpConn, _data: Chain<IoBuf>) {}
}

#[test]
fn a_data_frames_trip_calls_the_allocator_zero_times() {
    const PAYLOAD: usize = 1200;
    const WARM: u32 = 64;
    const MEASURED: u32 = 16;
    let w = SimWorld::new();
    let sw = Switch::new(&w);
    let rx_m = SimMachine::create(&w, "rx", 1, CostProfile::ebbrt_vm(), [0xA0; 6]);
    let tx_m = SimMachine::create(&w, "tx", 1, CostProfile::ebbrt_vm(), [0xB0; 6]);
    sw.attach(rx_m.nic(), LinkParams::default());
    sw.attach(tx_m.nic(), LinkParams::default());
    let mask = Ipv4Addr::new(255, 255, 255, 0);
    let rx_ip = Ipv4Addr::new(10, 0, 9, 1);
    let _rx_if = NetIf::attach(&rx_m, rx_ip, mask);
    let _tx_if = NetIf::attach(&tx_m, Ipv4Addr::new(10, 0, 9, 2), mask);
    w.run_to_idle();

    let sink = Rc::new(Sink::default());
    spawn_with(&rx_m, CoreId(0), Rc::clone(&sink), |sink| {
        local_netif()
            .listen(7000, move |_| Rc::clone(&sink) as Rc<dyn ConnHandler>)
            .expect("port free");
    });
    let source = Rc::new(Source::default());
    spawn_with(&tx_m, CoreId(0), Rc::clone(&source), move |source| {
        local_netif().connect(rx_ip, 7000, source as Rc<dyn ConnHandler>);
    });
    w.run_to_idle();
    assert!(source.conn.borrow().is_some(), "handshake completed");

    let mut body = MutIoBuf::with_capacity(PAYLOAD);
    body.append(PAYLOAD).fill(0x5a);
    let body = body.freeze();
    // One trip: the count is read inside the sending event, right
    // before `send`, and again on entry to the receiver's `on_receive`.
    let calls_at_send = Rc::new(Cell::new(0u64));
    let trip = || {
        let seen = sink.deliveries.get();
        let args = (Rc::clone(&source), body.clone(), Rc::clone(&calls_at_send));
        spawn_with(&tx_m, CoreId(0), args, |(source, body, calls_at_send)| {
            let frame = Chain::single(body);
            let conn = source.conn.borrow();
            calls_at_send.set(alloc_calls());
            conn.as_ref()
                .expect("connected")
                .send(frame)
                .expect("window open");
        });
        while sink.deliveries.get() == seen {
            assert!(w.step(), "frame lost");
        }
        let calls = sink.calls_at_delivery.get() - calls_at_send.get();
        // Let the ACK and the timers it moves settle before the next.
        w.run_to_idle();
        calls
    };
    for _ in 0..WARM {
        trip();
    }
    let calls: Vec<u64> = (0..MEASURED).map(|_| trip()).collect();
    assert_eq!(sink.bytes.get(), (WARM + MEASURED) as usize * PAYLOAD);
    assert_eq!(
        calls,
        vec![0; MEASURED as usize],
        "allocator calls between send() and on_receive(), per trip"
    );
}

/// Measured on this tree: 1.198 calls per request (the load
/// generator's boxed arrival timer is one of them). The parent of the
/// change that added this test measures 13.351 with the same test, and
/// 6 per frame in the trip above. The ceiling is the measured value
/// plus one, which is under half the parent's.
const CALLS_PER_REQ_CEILING: f64 = 2.198;

#[test]
fn a_warmed_get_world_stays_under_the_per_request_ceiling() {
    const WARM: u64 = 4_000;
    const MEASURED: u64 = 8_000;
    // One server core, one client core, four connections of eight
    // outstanding GETs, offered just under what the server sustains so
    // the pipeline depth, not the arrival clock, paces the loop.
    let mut cfg = ExperimentConfig::new(1, CostProfile::ebbrt_vm(), 600_000);
    cfg.client_cores = 1;
    cfg.connections = 4;
    cfg.pipeline = 8;
    cfg.get_ratio = 1.0;
    cfg.nkeys = 1024;
    cfg.warmup_ns = 1_000_000;
    cfg.duration_ns = u64::MAX / 2; // the request count ends the run
    let experiment = mutilate::build(&cfg);
    let w = experiment.world();
    let run_to = |completed: u64| {
        while experiment.completed() < completed {
            assert!(w.step(), "world went idle under load");
        }
    };
    run_to(WARM);
    let before = alloc_calls();
    run_to(WARM + MEASURED);
    let per_req = (alloc_calls() - before) as f64 / MEASURED as f64;
    println!("allocator calls per request: {per_req:.3}");
    assert!(
        per_req <= CALLS_PER_REQ_CEILING,
        "{per_req:.3} allocator calls per request, ceiling {CALLS_PER_REQ_CEILING}"
    );
}
