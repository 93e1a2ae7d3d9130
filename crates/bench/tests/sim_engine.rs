//! The simulation engine's two promises to every macro bench built on
//! it, checked on whole mutilate↔memcached worlds:
//!
//! 1. **Host cost per request does not depend on the age of a world.**
//!    `SimWorld` keeps at most one live poll per core; a superseded
//!    poll that still serviced its core would re-arm itself, and the
//!    `step()` calls behind one request would grow without bound.
//! 2. **Engine changes are invisible in model time.** A fixed-seed
//!    closed-loop world ends at the same virtual nanosecond, with the
//!    same request count, as it did when the constants below were
//!    recorded — a closed loop feeds every reordering of same-instant
//!    events back into its own arrival times, so it is the sensitive
//!    case.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::Arc;

use ebbrt_apps::memcached::{self, Header, Store};
use ebbrt_apps::mutilate::{self, ExperimentConfig};
use ebbrt_apps::spawn_with;
use ebbrt_core::cpu::CoreId;
use ebbrt_core::iobuf::{Buf, Chain, IoBuf, MutIoBuf};
use ebbrt_net::netif::{local_netif, ConnHandler, NetIf, TcpConn};
use ebbrt_net::types::Ipv4Addr;
use ebbrt_sim::{CostProfile, LinkParams, SimMachine, SimWorld, Switch};

/// Open loop, the paper's Fig. 5 set-up at 200 k req/s: 16 connections
/// from an 8-core client, so RTO/delayed-ACK/arrival timers are pending
/// on nine cores throughout.
#[test]
fn steps_per_request_do_not_grow_with_world_age() {
    const TENTH: u64 = 5_000;
    let mut cfg = ExperimentConfig::new(1, CostProfile::ebbrt_vm(), 200_000);
    cfg.warmup_ns = 1_000_000;
    cfg.duration_ns = u64::MAX / 2; // the request count ends the run
    let experiment = mutilate::build(&cfg);
    let w = experiment.world();
    let steps: Vec<u64> = (1..=10)
        .map(|tenth| {
            let mut steps = 0;
            while experiment.completed() < tenth * TENTH {
                assert!(w.step(), "world went idle under an open loop");
                steps += 1;
            }
            steps
        })
        .collect();
    println!(
        "step() calls per tenth of {} requests: {steps:?}",
        10 * TENTH
    );
    assert!(
        steps[9] as f64 <= 1.25 * steps[0] as f64,
        "steps per request grew with world age: {steps:?}"
    );
}

/// splitmix64, the workload's only source of randomness.
fn mix64(state: &Cell<u64>) -> u64 {
    state.set(state.get().wrapping_add(0x9e37_79b9_7f4a_7c15));
    let mut z = state.get();
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// State shared by the closed loop's connections.
struct Loop {
    /// One frozen GET frame per key.
    requests: Vec<IoBuf>,
    rng: Cell<u64>,
    /// Requests still to send / replies received.
    to_send: Cell<u32>,
    replies: Cell<u32>,
}

/// One closed-loop connection: `DEPTH` GETs outstanding, the next one
/// sent when a reply completes.
struct LoopConn {
    shared: Rc<Loop>,
    rx: RefCell<Vec<u8>>,
}

impl LoopConn {
    fn fire(&self, conn: &TcpConn) {
        let l = &self.shared;
        if l.to_send.get() == 0 {
            return;
        }
        l.to_send.set(l.to_send.get() - 1);
        let key = mix64(&l.rng) as usize % l.requests.len();
        conn.send(Chain::single(l.requests[key].clone()))
            .expect("a GET fits the send window");
    }
}

impl ConnHandler for LoopConn {
    fn on_connected(&self, conn: &TcpConn) {
        for _ in 0..golden::DEPTH {
            self.fire(conn);
        }
    }

    fn on_receive(&self, conn: &TcpConn, data: Chain<IoBuf>) {
        let mut rx = self.rx.borrow_mut();
        for seg in data.iter() {
            rx.extend_from_slice(seg.bytes());
        }
        while let Some(hb) = rx.first_chunk::<{ Header::SIZE }>() {
            let total = Header::SIZE + Header::decode(hb).total_body as usize;
            if rx.len() < total {
                break;
            }
            rx.drain(..total);
            self.shared.replies.set(self.shared.replies.get() + 1);
            self.fire(conn);
        }
    }
}

/// The golden world's shape and the figures it produced on the parent
/// of the one-live-poll change (commit 210ba0c).
mod golden {
    pub const SEED: u64 = 0xEBB7;
    pub const CORES: usize = 2;
    pub const CONNS: usize = 4;
    pub const DEPTH: u32 = 4;
    pub const KEYS: usize = 64;
    pub const REQUESTS: u32 = 4_000;
    /// Replies received by virtual time `MID_NS`.
    pub const MID_NS: u64 = 2_000_000;
    pub const REPLIES_AT_MID: u32 = 1_014;
    /// Virtual time at which reply number `REQUESTS` arrived.
    pub const FINAL_VIRTUAL_NS: u64 = 7_874_813;
}

#[test]
fn closed_loop_virtual_time_matches_the_recorded_golden() {
    let w = SimWorld::new();
    let sw = Switch::new(&w);
    let profile = CostProfile::ebbrt_vm;
    let server = SimMachine::create(&w, "server", golden::CORES, profile(), [0xAA; 6]);
    let client = SimMachine::create(&w, "client", golden::CORES, profile(), [0xBB; 6]);
    sw.attach(server.nic(), LinkParams::default());
    sw.attach(client.nic(), LinkParams::default());
    let mask = Ipv4Addr::new(255, 255, 255, 0);
    let server_ip = Ipv4Addr::new(10, 0, 0, 1);
    let _s_if = NetIf::attach(&server, server_ip, mask);
    let _c_if = NetIf::attach(&client, Ipv4Addr::new(10, 0, 0, 2), mask);
    w.run_to_idle();

    let rng = Cell::new(golden::SEED);
    let store = Store::new(Arc::clone(server.runtime().rcu()));
    let requests = (0..golden::KEYS)
        .map(|i| {
            let key = format!("golden-key-{i:04}").into_bytes();
            let value = vec![b'v'; 16 + mix64(&rng) as usize % 985];
            store.insert_raw(key.clone(), IoBuf::copy_from(&value));
            MutIoBuf::from_vec(memcached::encode_get(&key, i as u32)).freeze()
        })
        .collect();
    let store_ref = store.register(server.runtime());
    server.spawn_on(CoreId(0), move || memcached::serve(store_ref));
    w.run_to_idle();

    let shared = Rc::new(Loop {
        requests,
        rng,
        to_send: Cell::new(golden::REQUESTS),
        replies: Cell::new(0),
    });
    for i in 0..golden::CONNS {
        let handler = Rc::new(LoopConn {
            shared: Rc::clone(&shared),
            rx: RefCell::new(Vec::new()),
        });
        let core = CoreId((i % golden::CORES) as u32);
        spawn_with(&client, core, handler, move |h| {
            local_netif().connect(server_ip, memcached::MEMCACHED_PORT, h);
        });
    }
    w.run_until(golden::MID_NS);
    assert_eq!(shared.replies.get(), golden::REPLIES_AT_MID);
    while shared.replies.get() < golden::REQUESTS {
        assert!(w.step(), "world went idle before the loop finished");
    }
    assert_eq!(w.now(), golden::FINAL_VIRTUAL_NS);
}
