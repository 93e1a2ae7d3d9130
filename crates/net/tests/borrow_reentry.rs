//! Regression tests for the `RefCell` side tables consulted during
//! callbacks: `udp_bindings` and `arp_retries`. Both are borrowed on
//! the receive/timer path that *invokes* application code, so the
//! discipline is transient borrows only — a handler that re-enters
//! `udp_bind`, or whose send triggers a fresh ARP resolution, must
//! find a released table, not a panic.

use std::cell::Cell;
use std::rc::Rc;

use ebbrt_core::iobuf::{Chain, IoBuf};
use ebbrt_net::types::Ipv4Addr;

mod common;
use common::{on_core0, two_machines};

#[test]
fn udp_handler_may_rebind_its_own_port_reentrantly() {
    let (w, _sw, (server, s_if), (client, c_if)) = two_machines();

    // The first handler re-enters `udp_bind` *from inside delivery*:
    // it rebinds its own port (the held borrow would panic here if
    // `rx_udp` kept the table borrowed across the call) and binds a
    // second port for good measure.
    let first_hits = Rc::new(Cell::new(0u32));
    let second_hits = Rc::new(Cell::new(0u32));
    let side_hits = Rc::new(Cell::new(0u32));
    {
        let first_hits = Rc::clone(&first_hits);
        let second_hits = Rc::clone(&second_hits);
        let side_hits = Rc::clone(&side_hits);
        let s_if2 = Rc::clone(&s_if);
        on_core0(&server, Rc::clone(&s_if), move |s_if| {
            s_if.udp_bind(9, move |_src, _sport, _data| {
                first_hits.set(first_hits.get() + 1);
                let second_hits = Rc::clone(&second_hits);
                s_if2.udp_bind(9, move |_src, _sport, _data| {
                    second_hits.set(second_hits.get() + 1);
                });
                let side_hits = Rc::clone(&side_hits);
                s_if2.udp_bind(10, move |_src, _sport, _data| {
                    side_hits.set(side_hits.get() + 1);
                });
            });
        });
    }
    w.run_to_idle();

    let dst = Ipv4Addr::new(10, 0, 0, 1);
    for port in [9u16, 9, 10] {
        let c_if = Rc::clone(&c_if);
        on_core0(&client, (), move |_| {
            c_if.udp_send(7777, dst, port, Chain::single(IoBuf::copy_from(b"x")));
        });
        w.run_to_idle();
    }

    assert_eq!(
        first_hits.get(),
        1,
        "first datagram hits the original handler"
    );
    assert_eq!(
        second_hits.get(),
        1,
        "rebind from within delivery must take effect"
    );
    assert_eq!(
        side_hits.get(),
        1,
        "sibling bind from within delivery must work"
    );
}

#[test]
fn udp_handler_triggering_fresh_arp_resolution_does_not_reenter_tables() {
    let (w, _sw, (server, s_if), (client, c_if)) = two_machines();

    // The server's handler answers every datagram by sending to an
    // address nobody owns: delivery (a `udp_bindings` borrow just
    // released) immediately drives `udp_send` → ARP miss →
    // `arp_retries` insert. The resolution then retries to exhaustion
    // on its timer — `arp_retry_fire` removes/re-inserts around its
    // own output — while more datagrams keep arriving.
    let hits = Rc::new(Cell::new(0u32));
    {
        let hits = Rc::clone(&hits);
        let s_if2 = Rc::clone(&s_if);
        on_core0(&server, Rc::clone(&s_if), move |s_if| {
            s_if.udp_bind(9, move |_src, _sport, data| {
                hits.set(hits.get() + 1);
                // A dead address: ARP will retry and fail.
                s_if2.udp_send(8888, Ipv4Addr::new(10, 0, 0, 99), 1, data);
            });
        });
    }
    w.run_to_idle();

    let dst = Ipv4Addr::new(10, 0, 0, 1);
    for _ in 0..3 {
        let c_if = Rc::clone(&c_if);
        on_core0(&client, (), move |_| {
            c_if.udp_send(7777, dst, 9, Chain::single(IoBuf::copy_from(b"y")));
        });
    }
    w.run_to_idle();

    assert_eq!(hits.get(), 3, "every datagram must be delivered");
    assert!(
        s_if.stats.arp_failures.get() >= 1,
        "the dead-address resolution must exhaust its retries"
    );
}

#[test]
fn connect_to_dead_address_fails_conns_queued_behind_one_resolution() {
    // Two connects to the same unresolvable address share one
    // `arp_retries` entry; exhaustion must fail *both* handshakes
    // (on_close without on_connected), not leak one in SynSent.
    use ebbrt_net::netif::{ConnHandler, TcpConn};

    struct Probe {
        connected: Rc<Cell<bool>>,
        closed: Rc<Cell<bool>>,
    }
    impl ConnHandler for Probe {
        fn on_connected(&self, _c: &TcpConn) {
            self.connected.set(true);
        }
        fn on_receive(&self, _c: &TcpConn, _d: Chain<IoBuf>) {}
        fn on_close(&self, _c: &TcpConn) {
            self.closed.set(true);
        }
    }

    type Flags = (Rc<Cell<bool>>, Rc<Cell<bool>>);
    let (w, _sw, _server, (client, c_if)) = two_machines();
    let mut results: Vec<Flags> = Vec::new();
    for _ in 0..2 {
        let connected = Rc::new(Cell::new(false));
        let closed = Rc::new(Cell::new(false));
        results.push((Rc::clone(&connected), Rc::clone(&closed)));
        let c_if = Rc::clone(&c_if);
        on_core0(&client, (), move |_| {
            c_if.connect(
                Ipv4Addr::new(10, 0, 0, 99),
                7,
                Rc::new(Probe { connected, closed }),
            );
        });
    }
    w.run_to_idle();

    for (i, (connected, closed)) in results.iter().enumerate() {
        assert!(!connected.get(), "conn {i} must never report connected");
        assert!(closed.get(), "conn {i} must fail fast when ARP exhausts");
    }
    assert_eq!(
        c_if.conn_count(),
        0,
        "no PCB may survive the failed resolution"
    );
    assert_eq!(
        c_if.stats.arp_failures.get(),
        1,
        "one shared resolution failed"
    );
}
