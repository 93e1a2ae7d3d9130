//! [`ClosedLoop`]'s rules, one test each, on a one-core server and a
//! one-core client.

use std::cell::Cell;
use std::rc::Rc;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use ebbrt_core::clock::Ns;
use ebbrt_core::cpu::CoreId;
use ebbrt_core::iobuf::{Chain, IoBuf};
use ebbrt_net::types::Ipv4Addr;
use ebbrt_sim::{CostProfile, Lan, SimMachine};

use super::*;
use crate::memcached::{encode_get, serve_on, Store};

const SERVER_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
/// Bytes in the stored value of key `k`.
const VALUE_LEN: usize = 64;

/// A server holding `k` and a client machine, connected to nothing yet.
struct Pair {
    lan: Lan,
    client: Rc<SimMachine>,
    store: Arc<Store>,
}

fn pair() -> Pair {
    let lan = Lan::new();
    let vm = CostProfile::ebbrt_vm;
    let (server, _) = lan.machine("server", 1, vm(), [0xAA; 6], SERVER_IP);
    let (client, _) = lan.machine("client", 1, vm(), [0xBB; 6], Ipv4Addr::new(10, 0, 0, 2));
    let store = serve_on(&server);
    store.insert_raw(b"k".to_vec(), IoBuf::copy_from(&[0x5A; VALUE_LEN]));
    lan.world.run_to_idle();
    Pair { lan, client, store }
}

impl Pair {
    /// A connected client driving `workload`.
    fn open<W: Workload>(&self, workload: W) -> Rc<Client<W>> {
        let c = Client::spawn(&self.client, CoreId(0), SERVER_IP, workload);
        self.lan.world.run_to_idle();
        c
    }

    /// Runs `f` in an event on the client's core, then the world dry.
    fn on_client<T: 'static>(&self, v: T, f: impl FnOnce(T) + 'static) {
        crate::spawn_with(&self.client, CoreId(0), v, f);
        self.lan.world.run_to_idle();
    }

    fn kick(&self, c: &Rc<Client<ClosedLoop>>, n: u32) {
        self.on_client(Rc::clone(c), move |c| c.workload.kick(&c, n));
    }

    fn gets_served(&self) -> u64 {
        self.store.gets.load(Ordering::Relaxed)
    }
}

/// A loop that notes the most requests it ever had in flight.
struct Watched {
    get: ClosedLoop,
    most: Cell<usize>,
}

impl Watched {
    fn note(&self, client: &Client<Self>) {
        self.most.set(self.most.get().max(client.in_flight()));
    }
}

impl Workload for Watched {
    fn on_connected(&self, client: &Client<Self>) {
        self.get.connected(client);
        self.note(client);
    }

    fn on_reply(&self, client: &Client<Self>, h: &Header, value: Chain<IoBuf>, latency_ns: Ns) {
        self.get.replied(client, h, &value, latency_ns);
        self.note(client);
    }
}

#[test]
fn never_more_than_depth_requests_in_flight() {
    let p = pair();
    let c = p.open(Watched {
        get: ClosedLoop::new(encode_get(b"k", 1), 3, VALUE_LEN),
        most: Cell::new(0),
    });
    p.on_client(Rc::clone(&c), |c| {
        c.workload.get.kick(&c, 20);
        c.workload.note(&c);
    });
    assert_eq!(c.workload.most.get(), 3);
    assert_eq!(c.workload.get.lat.borrow().count(), 20);
    assert_eq!(c.workload.get.failures.get(), 0);
}

#[test]
fn a_kick_of_n_gets_exactly_n_replies_and_sends_nothing_after() {
    let p = pair();
    let c = p.open(ClosedLoop::new(encode_get(b"k", 1), 4, VALUE_LEN));
    for (n, total) in [(10, 10), (3, 13)] {
        p.kick(&c, n);
        let get = &c.workload;
        assert!(get.idle(&c));
        assert_eq!(get.lat.borrow().count(), total);
        assert_eq!(
            p.gets_served(),
            total as u64,
            "the server saw a request past the kick"
        );
        assert_eq!(get.failures.get(), 0);
    }
}

#[test]
fn a_kick_before_connect_goes_out_on_connect() {
    let p = pair();
    let c = Client::spawn(
        &p.client,
        CoreId(0),
        SERVER_IP,
        ClosedLoop::new(encode_get(b"k", 1), 2, VALUE_LEN),
    );
    c.workload.kick(&c, 5);
    assert_eq!(c.in_flight(), 0, "nothing leaves before the handshake");
    p.lan.world.run_to_idle();
    assert!(c.workload.idle(&c));
    assert_eq!(c.workload.lat.borrow().count(), 5);
    assert_eq!(c.workload.failures.get(), 0);
}

#[test]
fn a_wrong_status_or_value_length_counts_one_failure_each() {
    let p = pair();
    // (key, expected value length, kicked, failures): a miss carries
    // no value, so only its status is wrong at length 0, and both are
    // wrong at VALUE_LEN — still one failure per reply.
    for (key, len, n, failures) in [
        (&b"k"[..], VALUE_LEN, 3, 0),
        (b"k", VALUE_LEN + 1, 3, 3),
        (b"missing", 0, 2, 2),
        (b"missing", VALUE_LEN, 2, 2),
    ] {
        let c = p.open(ClosedLoop::new(encode_get(key, 1), 2, len));
        p.kick(&c, n);
        assert_eq!(c.workload.lat.borrow().count(), n as usize);
        assert_eq!(
            c.workload.failures.get(),
            failures,
            "GET {key:?}, expecting {len} bytes"
        );
    }
}

#[test]
fn a_close_with_replies_owed_counts_a_failure() {
    let p = pair();
    // A close with nothing owed is no failure.
    let clean = p.open(ClosedLoop::new(encode_get(b"k", 1), 2, VALUE_LEN));
    p.kick(&clean, 4);
    p.on_client(Rc::clone(&clean), |c| c.close());
    assert_eq!(clean.workload.failures.get(), 0);

    // A request the server cannot frame (no request magic) makes it
    // reset the connection with the reply owed: one failure for the
    // close, then one per send the dead connection refuses.
    let mut garbled = encode_get(b"k", 1);
    garbled[0] = 0;
    let torn = p.open(ClosedLoop::new(garbled, 2, VALUE_LEN));
    p.kick(&torn, 1);
    assert_eq!(torn.in_flight(), 1, "the reply is still owed");
    assert_eq!(torn.workload.failures.get(), 1);
    p.kick(&torn, 2);
    assert_eq!(torn.workload.failures.get(), 3);
}
