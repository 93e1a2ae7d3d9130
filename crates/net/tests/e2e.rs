//! End-to-end tests: the full stack (ARP, IPv4, TCP, UDP, DHCP,
//! adaptive driver) over the simulated switch between machines.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use ebbrt_core::cpu::CoreId;
use ebbrt_core::iobuf::{Chain, IoBuf};
use ebbrt_core::qos;
use ebbrt_net::netif::{ConnHandler, NetIf, SendError, TcpConn, BURST_BUCKET_LO};
use ebbrt_net::tcp::TcpState;
use ebbrt_net::types::Ipv4Addr;
use ebbrt_sim::{CostProfile, Lan, LinkParams, SimMachine, SimWorld, Switch};

const MASK: Ipv4Addr = Ipv4Addr::new(255, 255, 255, 0);

mod common;
use common::{on_core0, open_conn, two_machines, Echo, Opened, SERVER_IP};

#[test]
fn tcp_connect_send_echo_close() {
    let (w, _sw, (_server, s_if), (client, c_if)) = two_machines();
    s_if.listen(7, |_conn| Rc::new(Echo) as Rc<dyn ConnHandler>)
        .unwrap();

    let Opened {
        conn: conn_slot,
        connected,
        got,
        ..
    } = open_conn(&client, &c_if);
    w.run_to_idle();
    assert!(connected.get(), "handshake must complete");

    // Send a payload and expect the echo.
    let payload: Vec<u8> = (0..5000u32).map(|i| (i % 251) as u8).collect();
    {
        let conn = conn_slot.borrow().clone().unwrap();
        let p = payload.clone();
        on_core0(&client, conn, move |conn| {
            conn.send(Chain::single(IoBuf::copy_from(&p))).unwrap();
        });
    }
    w.run_to_idle();
    assert_eq!(*got.borrow(), payload, "echoed bytes must match");

    // Close from the client; server sees FIN, client reaches Closed.
    {
        let conn = conn_slot.borrow().clone().unwrap();
        on_core0(&client, conn, move |conn| conn.close());
    }
    w.run_to_idle();
    let conn = conn_slot.borrow().clone().unwrap();
    // Server echoes nothing more; its conn saw our FIN (on_close ran on
    // the Echo side implicitly). Client state winds down.
    assert!(matches!(
        conn.state(),
        TcpState::FinWait2 | TcpState::Closed
    ));
    assert_eq!(
        s_if.conn_count(),
        1,
        "server side in CloseWait until it closes"
    );
}

#[test]
fn the_stacks_counters_are_the_registrys() {
    let (w, _sw, (_server, s_if), (client, c_if)) = two_machines();
    s_if.listen(7, |_conn| Rc::new(Echo) as Rc<dyn ConnHandler>)
        .unwrap();
    let opened = open_conn(&client, &c_if);
    w.run_to_idle();
    let conn = opened.conn.borrow().clone().expect("opened");
    on_core0(&client, conn, |conn| {
        conn.send(Chain::single(IoBuf::copy_from(&[7u8; 3000])))
            .unwrap();
    });
    w.run_to_idle();
    assert_eq!(opened.got.borrow().len(), 3000);
    for nif in [&s_if, &c_if] {
        let s = &nif.stats;
        let snap = qos::snapshot(nif.runtime());
        let mut fields = vec![
            ("rx_frames", &s.rx_frames),
            ("tx_frames", &s.tx_frames),
            ("rx_tcp", &s.rx_tcp),
            ("conns_established", &s.conns_established),
            ("retransmits", &s.retransmits),
            ("rx_drops", &s.rx_drops),
            ("arp_failures", &s.arp_failures),
            ("rx_bursts", &s.rx_bursts),
            ("coalesced_callbacks", &s.coalesced_callbacks),
        ];
        let buckets = BURST_BUCKET_LO.map(|lo| format!("frames_per_burst.{lo}"));
        fields.extend(buckets.iter().map(String::as_str).zip(&s.frames_per_burst));
        for (name, counter) in fields {
            assert_eq!(
                snap.get(&format!("net.{name}")),
                counter.get(),
                "net.{name}"
            );
        }
        assert!(s.rx_frames.get() > 0 && s.tx_frames.get() > 0);
        assert_eq!(s.conns_established.get(), 1);
        let histogram: u64 = nif.frames_per_burst().iter().sum();
        assert_eq!(histogram, nif.rx_bursts(), "one bucket per burst");
    }
}

#[test]
fn crossing_aborts_settle() {
    // Both ends abort in the same instant, so each RST finds its
    // connection already gone. An RST is never answered with an RST
    // (RFC 793 §3.4): the two stacks would trade them forever.
    let (w, sw, (server, s_if), (client, c_if)) = two_machines();
    let accepted = Rc::new(RefCell::new(None));
    let slot = Rc::clone(&accepted);
    s_if.listen(7, move |conn| {
        *slot.borrow_mut() = Some(conn.clone());
        Rc::new(Echo) as Rc<dyn ConnHandler>
    })
    .unwrap();
    let opened = open_conn(&client, &c_if);
    w.run_to_idle();
    assert!(opened.connected.get());

    let frames = |sw: &Switch| sw.stats().0 + sw.stats().1;
    let before = frames(&sw);
    let s_conn = accepted.borrow().clone().expect("accepted");
    let c_conn = opened.conn.borrow().clone().expect("opened");
    on_core0(&server, s_conn, |conn| conn.abort());
    on_core0(&client, c_conn, |conn| conn.abort());
    let mut steps = 0;
    while w.step() {
        steps += 1;
        assert!(steps < 10_000, "the world must go idle");
    }
    assert_eq!((s_if.conn_count(), c_if.conn_count()), (0, 0));
    assert!(frames(&sw) - before <= 2, "one RST each way, no replies");
    let drops = s_if.stats.rx_drops.get() + c_if.stats.rx_drops.get();
    assert_eq!(drops, 2, "each stray RST is a counted drop");
}

#[test]
fn large_transfer_is_segmented_and_reassembled() {
    let (w, _sw, (_server, s_if), (client, c_if)) = two_machines();
    s_if.listen(7, |_conn| Rc::new(Echo) as Rc<dyn ConnHandler>)
        .unwrap();

    let got = Rc::new(RefCell::new(Vec::new()));
    let connected = Rc::new(Cell::new(false));
    let payload: Vec<u8> = (0..40_000u32).map(|i| (i % 253) as u8).collect();

    // Connect and stream the payload respecting the window.
    struct Streamer {
        got: Rc<RefCell<Vec<u8>>>,
        connected: Rc<Cell<bool>>,
        pending: RefCell<Chain<IoBuf>>,
    }
    impl Streamer {
        fn pump(&self, conn: &TcpConn) {
            let mut pending = self.pending.borrow_mut();
            while !pending.is_empty() {
                let window = conn.send_window();
                if window == 0 {
                    break;
                }
                let take = window.min(pending.len());
                let chunk = pending.split_to(take);
                conn.send(chunk).unwrap();
            }
        }
    }
    impl ConnHandler for Streamer {
        fn on_connected(&self, conn: &TcpConn) {
            self.connected.set(true);
            self.pump(conn);
        }
        fn on_receive(&self, _c: &TcpConn, data: Chain<IoBuf>) {
            self.got.borrow_mut().extend(data.copy_to_vec());
        }
        fn on_window_open(&self, conn: &TcpConn) {
            self.pump(conn);
        }
    }

    let handler = Streamer {
        got: Rc::clone(&got),
        connected: Rc::clone(&connected),
        pending: RefCell::new(Chain::single(IoBuf::copy_from(&payload))),
    };
    on_core0(&client, c_if, move |c_if| {
        c_if.connect(Ipv4Addr::new(10, 0, 0, 1), 7, Rc::new(handler));
    });
    w.run_to_idle();
    assert!(connected.get());
    assert_eq!(got.borrow().len(), payload.len());
    assert_eq!(*got.borrow(), payload);
    // Transfer must have used many MSS-sized segments.
    assert!(s_if.stats.rx_tcp.get() > 25);
}

#[test]
fn window_full_is_refused_not_buffered() {
    let (w, _sw, (_server, s_if), (client, c_if)) = two_machines();
    s_if.listen(9, |_conn| Rc::new(Echo) as Rc<dyn ConnHandler>)
        .unwrap();
    let result = Rc::new(RefCell::new(None));
    let r2 = Rc::clone(&result);

    struct Greedy {
        result: Rc<RefCell<Option<Result<(), SendError>>>>,
    }
    impl ConnHandler for Greedy {
        fn on_connected(&self, conn: &TcpConn) {
            // Try to send more than the peer's advertised window.
            let too_big = conn.send_window() + 1;
            let data = Chain::single(IoBuf::copy_from(&vec![0u8; too_big]));
            *self.result.borrow_mut() = Some(conn.send(data));
        }
        fn on_receive(&self, _c: &TcpConn, _d: Chain<IoBuf>) {}
    }

    on_core0(&client, c_if, move |c_if| {
        c_if.connect(
            Ipv4Addr::new(10, 0, 0, 1),
            9,
            Rc::new(Greedy { result: r2 }),
        );
    });
    w.run_to_idle();
    let outcome = result.borrow_mut().take();
    match outcome {
        Some(Err(SendError::WindowFull(avail))) => assert!(avail > 0),
        other => panic!("expected WindowFull, got {other:?}"),
    }
}

#[test]
fn udp_roundtrip_between_machines() {
    let (w, _sw, (server, s_if), (client, c_if)) = two_machines();
    let got = Rc::new(RefCell::new(Vec::new()));
    let g2 = Rc::clone(&got);
    // Server: UDP echo on port 53.
    let s_if2 = Rc::clone(&s_if);
    s_if.udp_bind(53, move |src, sport, payload| {
        s_if2.udp_send(53, src, sport, payload);
    });
    drop(server);
    // Client: bind a port and fire a datagram.
    let c2 = Rc::clone(&c_if);
    c_if.udp_bind(5353, move |_src, _sport, payload| {
        g2.borrow_mut().extend(payload.copy_to_vec());
    });
    on_core0(&client, c2, move |c_if| {
        c_if.udp_send(
            5353,
            Ipv4Addr::new(10, 0, 0, 1),
            53,
            Chain::single(IoBuf::copy_from(b"ping!")),
        );
    });
    w.run_to_idle();
    assert_eq!(*got.borrow(), b"ping!");
}

#[test]
fn dhcp_configures_client() {
    let lan = Lan::new();
    let vm = CostProfile::ebbrt_vm;
    let w = &lan.world;
    let infra_ip = Ipv4Addr::new(10, 0, 0, 1);
    let (_infra, infra_if) = lan.machine("infra", 1, CostProfile::linux_vm(), [0x01; 6], infra_ip);
    let (node, node_if) = lan.machine("node", 1, vm(), [0x02; 6], Ipv4Addr::UNSPECIFIED);
    w.run_to_idle();
    let _server = ebbrt_net::dhcp::DhcpServer::start(&infra_if, Ipv4Addr::new(10, 0, 0, 100), MASK);
    let assigned = Rc::new(Cell::new(None));
    let a2 = Rc::clone(&assigned);
    let n2 = Rc::clone(&node_if);
    on_core0(&node, n2, move |node_if| {
        ebbrt_net::dhcp::configure(&node_if, move |res| {
            a2.set(Some(res.expect("dhcp must succeed").0));
        });
    });
    w.run_to_idle();
    assert_eq!(assigned.get(), Some(Ipv4Addr::new(10, 0, 0, 100)));
    assert_eq!(node_if.ip(), Ipv4Addr::new(10, 0, 0, 100));
}

#[test]
#[should_panic(expected = "set_mtu after NetIf::attach has no effect")]
fn set_mtu_after_attach_panics_instead_of_silently_not_applying() {
    // The foot-gun: the stack derives its MSS from the device MTU at
    // attach time, so a later set_mtu changed nothing — silently. It
    // must refuse loudly instead.
    let lan = Lan::new();
    let vm = CostProfile::ebbrt_vm;
    let (server, _s_if) = lan.machine("server", 1, vm(), [0xAA; 6], Ipv4Addr::new(10, 0, 0, 1));
    server.nic().set_mtu(9000);
}

#[test]
fn jumbo_mtu_raises_mss_and_roundtrips() {
    // Jumbo-configured NICs: the stack derives its MSS from the
    // device MTU at attach, so a large transfer uses ~6× fewer
    // segments and still round-trips byte-exactly.
    let w = SimWorld::new();
    let sw = Switch::new(&w);
    let server = SimMachine::create(&w, "server", 1, CostProfile::ebbrt_vm(), [0xAA; 6]);
    let client = SimMachine::create(&w, "client", 1, CostProfile::ebbrt_vm(), [0xBB; 6]);
    server.nic().set_mtu(9000);
    client.nic().set_mtu(9000);
    sw.attach(server.nic(), LinkParams::default());
    sw.attach(client.nic(), LinkParams::default());
    let s_if = NetIf::attach(&server, Ipv4Addr::new(10, 0, 0, 1), MASK);
    let c_if = NetIf::attach(&client, Ipv4Addr::new(10, 0, 0, 2), MASK);
    w.run_to_idle();
    assert_eq!(s_if.mss(), 9000 - 40);
    assert_eq!(c_if.mss(), 9000 - 40);

    s_if.listen(7, |_c| Rc::new(Echo) as Rc<dyn ConnHandler>)
        .unwrap();
    struct SendOnConnect {
        payload: Vec<u8>,
        got: Rc<RefCell<Vec<u8>>>,
        connected: Rc<Cell<bool>>,
    }
    impl ConnHandler for SendOnConnect {
        fn on_connected(&self, conn: &TcpConn) {
            self.connected.set(true);
            conn.send(Chain::single(IoBuf::copy_from(&self.payload)))
                .expect("40 KB fits the default window");
        }
        fn on_receive(&self, _c: &TcpConn, data: Chain<IoBuf>) {
            self.got.borrow_mut().extend(data.copy_to_vec());
        }
    }
    let got = Rc::new(RefCell::new(Vec::new()));
    let connected = Rc::new(Cell::new(false));
    let payload: Vec<u8> = (0..40_000u32).map(|i| (i % 251) as u8).collect();
    let handler = SendOnConnect {
        payload: payload.clone(),
        got: Rc::clone(&got),
        connected: Rc::clone(&connected),
    };
    let c2 = Rc::clone(&c_if);
    on_core0(&client, c2, move |c_if| {
        c_if.connect(Ipv4Addr::new(10, 0, 0, 1), 7, Rc::new(handler));
    });
    w.run_to_idle();
    assert!(connected.get());
    assert_eq!(*got.borrow(), payload);
    // 40_000 bytes at 8960-byte MSS: 5 data segments each way, not 28.
    let jumbo_segments = s_if.stats.rx_tcp.get();
    assert!(
        jumbo_segments <= 20,
        "jumbo MSS must cut segment count (got {jumbo_segments} rx segments)"
    );
}

#[test]
fn arp_failure_tears_down_synsent_connection() {
    // Connect to an address nobody answers for: ARP retries exhaust
    // and the embryonic connection must be torn down promptly (the
    // handler sees on_close) instead of hanging in SynSent.
    let (w, _sw, _server, (client, c_if)) = two_machines();
    let handler = Opened::default();
    let (connected, closed) = (Rc::clone(&handler.connected), Rc::clone(&handler.closed));
    let c2 = Rc::clone(&c_if);
    on_core0(&client, c2, move |c_if| {
        // 10.0.0.99 does not exist on the switch.
        c_if.connect(Ipv4Addr::new(10, 0, 0, 99), 7, Rc::new(handler));
    });
    w.run_to_idle();
    assert!(!connected.get(), "nothing should ever connect");
    assert!(closed.get(), "ARP failure must deliver on_close");
    assert_eq!(c_if.conn_count(), 0, "the SynSent PCB must be reclaimed");
    assert_eq!(c_if.stats.arp_failures.get(), 1);
}

#[test]
fn a_resolution_begun_again_is_driven_by_its_own_retries_alone() {
    // A resolution ends while its retry timer is still pending, and a
    // new one of the same address begins: the old timer must leave it
    // alone, so the new one fails its whole backoff ladder (1 + 2 + 4
    // retry intervals) after it began — not sooner, as it would with
    // two timers driving it, nor on the old one's schedule.
    use ebbrt_core::runtime;
    use ebbrt_net::arp::ARP_RETRY_NS;

    struct CloseTime(Rc<Cell<Option<u64>>>);
    impl ConnHandler for CloseTime {
        fn on_receive(&self, _c: &TcpConn, _d: Chain<IoBuf>) {}
        fn on_close(&self, _c: &TcpConn) {
            self.0.set(Some(runtime::with_current(|rt| rt.now_ns())));
        }
    }

    let (w, _sw, _server, (client, c_if)) = two_machines();
    let dead = Ipv4Addr::new(10, 0, 0, 99);
    let (began, closed_at) = (Rc::new(Cell::new(0)), Rc::new(Cell::new(None)));
    let (b2, c2) = (Rc::clone(&began), Rc::clone(&closed_at));
    on_core0(&client, Rc::clone(&c_if), move |c_if| {
        // The first resolution: its first retry is due in ARP_RETRY_NS.
        c_if.udp_send(9, dead, 9, Chain::single(IoBuf::copy_from(b"x")));
        runtime::with_current(|rt| {
            rt.local_event_manager()
                .set_timer(ARP_RETRY_NS / 10, move || {
                    c_if.arp.fail(dead);
                    b2.set(runtime::with_current(|rt| rt.now_ns()));
                    c_if.connect(dead, 7, Rc::new(CloseTime(c2)));
                })
        });
    });
    w.run_to_idle();
    let ladder = closed_at.get().expect("the connect must fail") - began.get();
    assert!(
        (7 * ARP_RETRY_NS..7 * ARP_RETRY_NS + 1_000_000).contains(&ladder),
        "the second resolution failed {ladder} ns after it began"
    );
    assert_eq!(c_if.stats.arp_failures.get(), 1);
}

#[test]
fn dhcp_timeout_reports_failure() {
    // No DHCP server on the network: the client must report the
    // terminal failure through `done` instead of never calling it.
    let lan = Lan::new();
    let vm = CostProfile::ebbrt_vm;
    let w = &lan.world;
    let (node, node_if) = lan.machine("node", 1, vm(), [0x02; 6], Ipv4Addr::UNSPECIFIED);
    w.run_to_idle();
    let outcome = Rc::new(Cell::new(None));
    let o2 = Rc::clone(&outcome);
    let n2 = Rc::clone(&node_if);
    on_core0(&node, n2, move |node_if| {
        ebbrt_net::dhcp::configure(&node_if, move |res| o2.set(Some(res)));
    });
    w.run_to_idle();
    assert_eq!(
        outcome.get(),
        Some(Err(ebbrt_net::dhcp::DhcpTimeout)),
        "exhausted retries must surface as a terminal error"
    );
    assert_eq!(node_if.ip(), Ipv4Addr::UNSPECIFIED);
}

#[test]
fn rss_steers_connections_to_distinct_cores() {
    let lan = Lan::new();
    let vm = CostProfile::ebbrt_vm;
    let w = &lan.world;
    let (_server, s_if) = lan.machine("server", 4, vm(), [0xAA; 6], Ipv4Addr::new(10, 0, 0, 1));
    let (client, c_if) = lan.machine("client", 4, vm(), [0xBB; 6], Ipv4Addr::new(10, 0, 0, 2));
    w.run_to_idle();

    let cores = Rc::new(RefCell::new(Vec::new()));
    struct CoreRecorder {
        cores: Rc<RefCell<Vec<u32>>>,
    }
    impl ConnHandler for CoreRecorder {
        fn on_connected(&self, _c: &TcpConn) {
            self.cores.borrow_mut().push(ebbrt_core::cpu::current().0);
        }
        fn on_receive(&self, _c: &TcpConn, _d: Chain<IoBuf>) {}
    }
    let cores2 = Rc::clone(&cores);
    s_if.listen(7, move |_conn| {
        Rc::new(CoreRecorder {
            cores: Rc::clone(&cores2),
        }) as Rc<dyn ConnHandler>
    })
    .unwrap();

    // Open many connections from different client cores.
    struct Quiet;
    impl ConnHandler for Quiet {
        fn on_receive(&self, _c: &TcpConn, _d: Chain<IoBuf>) {}
    }
    for i in 0..8u32 {
        let c_if = Rc::clone(&c_if);
        client.spawn_local(CoreId(i % 4), move || {
            c_if.connect(Ipv4Addr::new(10, 0, 0, 1), 7, Rc::new(Quiet));
        });
    }
    w.run_to_idle();
    let cores = cores.borrow();
    assert_eq!(cores.len(), 8, "all connections must establish");
    let distinct: std::collections::HashSet<_> = cores.iter().collect();
    assert!(
        distinct.len() > 1,
        "RSS should spread connections across server cores: {cores:?}"
    );
}

#[test]
fn retransmission_recovers_from_loss() {
    let (w, sw, (server, s_if), (client, c_if)) = two_machines();
    let server_port = server.index();
    s_if.listen(7, |_conn| Rc::new(Echo) as Rc<dyn ConnHandler>)
        .unwrap();
    let first = open_conn(&client, &c_if);
    let c_if_stats = Rc::clone(&c_if);
    w.run_to_idle();
    assert!(first.connected.get());

    // Drop the first data-bearing frame headed to the server (pure ACKs
    // are 54 bytes; anything longer carries payload).
    let dropped = Rc::new(Cell::new(0u32));
    let d2 = Rc::clone(&dropped);
    sw.set_drop_filter(server_port, move |frame| {
        if frame.len() > 60 && d2.get() == 0 {
            d2.set(1);
            true
        } else {
            false
        }
    });
    // Open a second connection that sends as soon as it establishes;
    // its first data frame is the one the filter drops.
    let handler2 = Opened::default();
    let got2 = Rc::clone(&handler2.got);
    struct SendOnConnect {
        inner: Opened,
    }
    impl ConnHandler for SendOnConnect {
        fn on_connected(&self, conn: &TcpConn) {
            self.inner.on_connected(conn);
            conn.send(Chain::single(IoBuf::copy_from(b"must arrive")))
                .unwrap();
        }
        fn on_receive(&self, c: &TcpConn, d: Chain<IoBuf>) {
            self.inner.on_receive(c, d);
        }
    }
    let c3 = Rc::clone(&c_if_stats);
    on_core0(&client, c3, move |c_if| {
        c_if.connect(
            Ipv4Addr::new(10, 0, 0, 1),
            7,
            Rc::new(SendOnConnect { inner: handler2 }),
        );
    });
    w.run_to_idle();
    assert_eq!(dropped.get(), 1, "exactly one frame must have been dropped");
    assert_eq!(*got2.borrow(), b"must arrive", "RTO must recover the loss");
    assert!(c_if_stats.stats.retransmits.get() >= 1);
}

#[test]
fn a_wrapped_ephemeral_range_skips_the_port_a_live_connection_holds() {
    // 33 000 ..= 60 000: what `NetIf::connect` rotates through.
    const RANGE: usize = 27_001;
    let (w, _sw, (_server, s_if), (client, c_if)) = two_machines();
    s_if.listen(7, |_conn| Rc::new(Echo) as Rc<dyn ConnHandler>)
        .unwrap();
    let held = open_conn(&client, &c_if);
    w.run_to_idle();
    assert!(held.connected.get());

    // Spend every other port of the range on connections nobody keeps
    // (to a port nobody listens on: the server answers each SYN with
    // one RST and builds nothing).
    for _ in 0..(RANGE - 1) / 100 {
        on_core0(&client, Rc::clone(&c_if), |c_if| {
            for _ in 0..100 {
                c_if.connect(SERVER_IP, 9, Rc::new(Opened::default()))
                    .abort();
            }
        });
        w.run_to_idle();
    }
    assert_eq!(c_if.conn_count(), 1, "only the held connection is left");

    // The rotation is back at the held connection's port. Taking it
    // would file the new connection under the old one's four-tuple.
    let fresh = open_conn(&client, &c_if);
    w.run_to_idle();
    assert!(fresh.connected.get(), "second connection established");
    let port = |o: &Opened| o.conn.borrow().as_ref().unwrap().tuple().unwrap().local.1;
    assert_ne!(port(&fresh), port(&held));
    assert_eq!(c_if.conn_count(), 2);
    assert_eq!(s_if.conn_count(), 2);
    for (o, msg) in [(&held, b"held"), (&fresh, b"new!")] {
        let conn = o.conn.borrow().clone().unwrap();
        on_core0(&client, conn, move |conn| {
            conn.send(Chain::single(IoBuf::copy_from(msg))).unwrap();
        });
    }
    w.run_to_idle();
    assert_eq!(*held.got.borrow(), b"held");
    assert_eq!(*fresh.got.borrow(), b"new!");
}
