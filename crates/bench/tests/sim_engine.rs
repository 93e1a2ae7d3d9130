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

use std::cell::Cell;
use std::rc::Rc;

use ebbrt_apps::memcached::{self, Client, Header, Workload};
use ebbrt_apps::mutilate::{self, ExperimentConfig};
use ebbrt_core::clock::Ns;
use ebbrt_core::cpu::CoreId;
use ebbrt_core::iobuf::{Chain, IoBuf, MutIoBuf};
use ebbrt_net::types::Ipv4Addr;
use ebbrt_net::Lan;
use ebbrt_sim::CostProfile;

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
}

impl LoopConn {
    fn fire(&self, client: &Client<Self>) {
        let l = &self.shared;
        if l.to_send.get() == 0 {
            return;
        }
        l.to_send.set(l.to_send.get() - 1);
        let key = mix64(&l.rng) as usize % l.requests.len();
        client
            .send(Chain::single(l.requests[key].clone()))
            .expect("a GET fits the send window");
    }
}

impl Workload for LoopConn {
    fn on_connected(&self, client: &Client<Self>) {
        for _ in 0..golden::DEPTH {
            self.fire(client);
        }
    }

    fn on_reply(&self, client: &Client<Self>, _h: &Header, _value: Chain<IoBuf>, _latency: Ns) {
        self.shared.replies.set(self.shared.replies.get() + 1);
        self.fire(client);
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
    let lan = Lan::new();
    let w = &lan.world;
    let profile = CostProfile::ebbrt_vm;
    let server_ip = Ipv4Addr::new(10, 0, 0, 1);
    let client_ip = Ipv4Addr::new(10, 0, 0, 2);
    let (server, _s_if) = lan.machine("server", golden::CORES, profile(), [0xAA; 6], server_ip);
    let (client, _c_if) = lan.machine("client", golden::CORES, profile(), [0xBB; 6], client_ip);
    w.run_to_idle();

    let rng = Cell::new(golden::SEED);
    let store = memcached::serve_on(&server);
    let requests = (0..golden::KEYS)
        .map(|i| {
            let key = format!("golden-key-{i:04}").into_bytes();
            let value = vec![b'v'; 16 + mix64(&rng) as usize % 985];
            store.insert_raw(key.clone(), IoBuf::copy_from(&value));
            MutIoBuf::from_vec(memcached::encode_get(&key, i as u32)).freeze()
        })
        .collect();
    w.run_to_idle();

    let shared = Rc::new(Loop {
        requests,
        rng,
        to_send: Cell::new(golden::REQUESTS),
        replies: Cell::new(0),
    });
    for i in 0..golden::CONNS {
        let conn = LoopConn {
            shared: Rc::clone(&shared),
        };
        let core = CoreId((i % golden::CORES) as u32);
        Client::spawn(&client, core, server_ip, conn);
    }
    w.run_until(golden::MID_NS);
    assert_eq!(shared.replies.get(), golden::REPLIES_AT_MID);
    while shared.replies.get() < golden::REQUESTS {
        assert!(w.step(), "world went idle before the loop finished");
    }
    assert_eq!(w.now(), golden::FINAL_VIRTUAL_NS);
}
