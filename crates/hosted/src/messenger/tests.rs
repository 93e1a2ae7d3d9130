use super::*;
use ebbrt_core::cpu::CoreId;
use ebbrt_sim::{CostProfile, LinkParams, SimMachine, SimWorld, Switch};

use crate::on_core0;
type Pair = (
    Rc<SimWorld>,
    Rc<Switch>,
    Rc<SimMachine>,
    Rc<SimMachine>,
    Rc<Messenger>,
    Rc<Messenger>,
);

fn two_machines() -> Pair {
    let lan = ebbrt_net::Lan::new();
    let vm = CostProfile::ebbrt_vm;
    let linux = CostProfile::linux_vm;
    let hosted_ip = Ipv4Addr::new(10, 0, 0, 1);
    let (hosted, h_if) = lan.machine("hosted", 1, linux(), [0x01; 6], hosted_ip);
    let (native, n_if) = lan.machine("native", 1, vm(), [0x02; 6], Ipv4Addr::new(10, 0, 0, 2));
    let (w, sw) = (lan.world, lan.switch);
    w.run_to_idle();
    let h_msgr = Messenger::start(&h_if);
    let n_msgr = Messenger::start(&n_if);
    (w, sw, hosted, native, h_msgr, n_msgr)
}

#[test]
fn one_way_message_and_rpc() {
    let (w, _sw, _hosted, native, h_msgr, n_msgr) = two_machines();

    // Hosted side: an "adder" Ebb handler that doubles the payload
    // length and responds.
    let fs_id = EbbId(100);
    let got_oneway = Rc::new(Cell::new(false));
    let g2 = Rc::clone(&got_oneway);
    let h2 = Rc::clone(&h_msgr);
    h_msgr.register(fs_id, move |src, rpc_id, payload| {
        if rpc_id == 0 {
            g2.set(true);
        } else {
            let n = payload.len() as u32 * 2;
            h2.respond(src, fs_id, rpc_id, &n.to_be_bytes());
        }
    });

    let reply = Rc::new(Cell::new(0u32));
    let r2 = Rc::clone(&reply);
    // The native side resolves its messenger through the
    // well-known id — no messenger handle threaded into the spawn.
    on_core0(&native, r2, move |r2| {
        let msgr = local_messenger();
        msgr.send(Ipv4Addr::new(10, 0, 0, 1), fs_id, b"hello");
        msgr.call(Ipv4Addr::new(10, 0, 0, 1), fs_id, &[0u8; 21], move |resp| {
            let v = resp.cursor().read_u32_be().unwrap();
            r2.set(v);
        });
    });
    w.run_to_idle();
    assert!(got_oneway.get(), "one-way message must arrive");
    assert_eq!(reply.get(), 42, "rpc response must round-trip");
    assert!(h_msgr.dispatched.get() >= 2);
    assert!(n_msgr.dispatched.get() >= 1, "response dispatch");
    assert_eq!(n_msgr.pending_rpcs(), 0, "no waiter left behind");
    // The per-call timeout timer was cancelled on response: the
    // caller core's wheel holds no leaked entries for it.
    let _b = ebbrt_core::cpu::bind(CoreId(0));
    assert_eq!(
        native
            .runtime()
            .event_manager(CoreId(0))
            .timer_stats()
            .pending,
        0,
        "rpc timeout entries must be cancelled on response"
    );
}

#[test]
fn unanswered_rpc_times_out_with_err_and_no_leaked_timer() {
    let (w, _sw, _hosted, native, h_msgr, n_msgr) = two_machines();
    // A handler that swallows requests: the caller's only exit is
    // its timeout.
    let dead_id = EbbId(200);
    h_msgr.register(dead_id, move |_src, _rpc_id, _payload| {});
    let outcome = Rc::new(Cell::new(None));
    let o2 = Rc::clone(&outcome);
    let started = Rc::new(Cell::new(0));
    let s2 = Rc::clone(&started);
    on_core0(&native, (o2, s2), move |(o2, s2)| {
        s2.set(ebbrt_core::runtime::with_current(|rt| rt.now_ns()));
        local_messenger().call_with_timeout(
            Ipv4Addr::new(10, 0, 0, 1),
            dead_id,
            b"anyone home?",
            1_000_000, // 1 ms
            move |r| o2.set(Some(r.map(|_| ()))),
        );
    });
    w.run_to_idle();
    assert_eq!(
        outcome.get(),
        Some(Err(RemoteError::Timeout)),
        "the waiter must be failed, not parked forever"
    );
    assert_eq!(n_msgr.pending_rpcs(), 0, "timed-out waiter removed");
    assert_eq!(n_msgr.rpc_failures.get(), 1);
    let _b = ebbrt_core::cpu::bind(CoreId(0));
    let em = native.runtime().event_manager(CoreId(0));
    // `live` still counts the TCP connection's parked persistent
    // timers; what must be gone is any *armed* entry — a leaked
    // RPC timeout would sit pending forever.
    assert_eq!(em.timer_stats().pending, 0, "no leaked timer token");
    // A late response for the dead rpc id is a no-op (the waiter is
    // gone), not a crash or a double resolution.
    w.run_to_idle();
}

#[test]
fn unreachable_peer_fails_waiters_via_close_path() {
    let (w, _sw, _hosted, native, _h_msgr, n_msgr) = two_machines();
    // 10.0.0.77 does not exist: ARP exhausts its retries, the
    // SynSent connection is torn down, and the close path must
    // deliver Unreachable to the waiter before any timeout.
    let outcome = Rc::new(Cell::new(None));
    let o2 = Rc::clone(&outcome);
    on_core0(&native, o2, move |o2| {
        local_messenger().call_with_timeout(
            Ipv4Addr::new(10, 0, 0, 77),
            EbbId(300),
            b"void",
            // Effectively infinite: only the close path can resolve.
            10_000_000_000,
            move |r| o2.set(Some(r.map(|_| ()))),
        );
    });
    w.run_to_idle();
    assert_eq!(outcome.get(), Some(Err(RemoteError::Unreachable)));
    assert_eq!(n_msgr.pending_rpcs(), 0);
    let _b = ebbrt_core::cpu::bind(CoreId(0));
    assert_eq!(
        native.runtime().event_manager(CoreId(0)).timer_stats().live,
        0,
        "the (cancelled) timeout entry must be freed"
    );
    // The peer is forgotten: a later call may reconnect cleanly.
    assert!(n_msgr.peers.borrow().is_empty());
}

#[test]
fn oversized_burst_parks_frames_until_window_opens() {
    let (w, _sw, _hosted, native, h_msgr, _n_msgr) = two_machines();
    let echo_id = EbbId(400);
    let h2 = Rc::clone(&h_msgr);
    h_msgr.register(echo_id, move |src, rpc_id, payload| {
        h2.respond(src, echo_id, rpc_id, &[payload.len() as u8]);
    });
    // A burst far beyond the 64 KiB send window: the messenger must
    // park frames and drain them on window openings, not panic.
    let done = Rc::new(Cell::new(0u32));
    let d2 = Rc::clone(&done);
    on_core0(&native, d2, move |d2| {
        let msgr = local_messenger();
        for _ in 0..8 {
            let d3 = Rc::clone(&d2);
            msgr.call(
                Ipv4Addr::new(10, 0, 0, 1),
                echo_id,
                &vec![7u8; 20 * 1024],
                move |_| d3.set(d3.get() + 1),
            );
        }
    });
    w.run_to_idle();
    assert_eq!(done.get(), 8, "every parked frame must eventually ship");
}

/// A machine that speaks raw TCP to a messenger port: no messenger
/// of its own, so it can put any byte sequence on the connection.
struct RawPeer {
    conn: RefCell<Option<TcpConn>>,
    closed: Cell<bool>,
}

impl ConnHandler for RawPeer {
    fn on_connected(&self, conn: &TcpConn) {
        *self.conn.borrow_mut() = Some(conn.clone());
    }
    fn on_receive(&self, _conn: &TcpConn, _data: Chain<IoBuf>) {}
    fn on_close(&self, _conn: &TcpConn) {
        self.closed.set(true);
    }
}

const VICTIM_IP: Ipv4Addr = Ipv4Addr([10, 0, 0, 1]);
const RAW_IP: Ipv4Addr = Ipv4Addr([10, 0, 0, 9]);

/// [`two_machines`] plus a raw peer connected to the hosted
/// machine's messenger port.
fn with_raw_peer() -> (Pair, Rc<SimMachine>, Rc<RawPeer>) {
    let pair = two_machines();
    let raw_m = SimMachine::create(&pair.0, "raw", 1, CostProfile::ebbrt_vm(), [0x09; 6]);
    pair.1.attach(raw_m.nic(), LinkParams::default());
    let raw_if = NetIf::attach(&raw_m, RAW_IP, Ipv4Addr::new(255, 255, 255, 0));
    pair.0.run_to_idle();
    let raw = Rc::new(RawPeer {
        conn: RefCell::new(None),
        closed: Cell::new(false),
    });
    on_core0(&raw_m, (raw_if, Rc::clone(&raw)), |(raw_if, raw)| {
        raw_if.connect(VICTIM_IP, MESSENGER_PORT, raw as Rc<dyn ConnHandler>);
    });
    pair.0.run_to_idle();
    assert!(raw.conn.borrow().is_some(), "raw peer connected");
    (pair, raw_m, raw)
}

/// Sends `pieces` from the raw peer, one `send` (so at least one
/// TCP segment) each.
fn raw_send(raw_m: &Rc<SimMachine>, raw: &Rc<RawPeer>, pieces: Vec<Vec<u8>>) {
    on_core0(raw_m, Rc::clone(raw), move |raw| {
        let conn = raw.conn.borrow();
        let conn = conn.as_ref().expect("connected");
        for piece in pieces {
            conn.send(Chain::single(IoBuf::copy_from(&piece)))
                .expect("window open");
        }
    });
}

fn flat(c: &Chain<IoBuf>) -> Vec<u8> {
    c.iter().flat_map(|s| s.bytes().to_vec()).collect()
}

/// The three wire-reachable ways a peer used to be able to take the
/// machine down: a `len` shorter than the header fields it covers
/// (indexing past the frame), a `len` with no bound (buffering
/// without limit), and a batch count sized from the wire (a
/// 100 GiB `with_capacity`). Each must cost the peer its connection
/// and nothing else.
#[test]
fn malformed_frames_drop_the_peer_not_the_machine() {
    let batch_id = SystemEbb::RemoteBatch.id();
    let cases: Vec<(&str, Vec<u8>)> = vec![
        ("empty body", vec![0, 0, 0, 0]),
        ("body shorter than its header", {
            let mut v = 12u32.to_be_bytes().to_vec();
            v.extend([0xAB; 12]);
            v
        }),
        (
            "body over the cap",
            ((FRAME_BODY_MAX + 1) as u32).to_be_bytes().to_vec(),
        ),
        ("4 GiB body", vec![0xFF; 9]),
        (
            "batch count the payload cannot hold",
            flat(&frame_bytes(batch_id, KIND_SEND, 7, &[0xFF; 4])),
        ),
        (
            "batch entry longer than the payload",
            flat(&frame_bytes(
                batch_id,
                KIND_SEND,
                7,
                &[0, 0, 0, 1, 0, 0, 0, 99, 0xFF, 0xFF, 0xFF, 0xF0],
            )),
        ),
    ];
    for (what, bytes) in cases {
        let ((w, _sw, hosted, native, h_msgr, _n_msgr), raw_m, raw) = with_raw_peer();
        let echo_id = EbbId(500);
        let h2 = Rc::clone(&h_msgr);
        h_msgr.register(echo_id, move |src, rpc_id, payload| {
            h2.respond(src, echo_id, rpc_id, &flat(&payload));
        });
        // An RPC riding the raw peer's connection (the inbound
        // connection is the one registered for its address): it can
        // only end by the connection being dropped.
        let outcome = Rc::new(Cell::new(None));
        let o2 = Rc::clone(&outcome);
        on_core0(&hosted, o2, move |o2| {
            local_messenger().call_with_timeout(
                RAW_IP,
                EbbId(501),
                b"are you there?",
                10_000_000_000,
                move |r| o2.set(Some(r.map(|_| ()))),
            );
        });
        // (Not to idle: that would run the call's timeout out.)
        w.run_for(1_000_000);
        assert_eq!(outcome.get(), None, "{what}: still waiting");

        raw_send(&raw_m, &raw, vec![bytes]);
        w.run_for(1_000_000);
        let counters = qos::snapshot(hosted.runtime());
        assert_eq!(counters.get(BAD_FRAME_COUNTER), 1, "{what}: counted");
        assert_eq!(
            outcome.get(),
            Some(Err(RemoteError::Unreachable)),
            "{what}: the peer's waiters fail at once"
        );
        assert_eq!(h_msgr.pending_rpcs(), 0, "{what}");
        assert!(h_msgr.peers.borrow().is_empty(), "{what}: peer forgotten");
        assert!(raw.closed.get(), "{what}: the connection was reset");

        // A healthy peer is served as before.
        let echoed = Rc::new(RefCell::new(None));
        let e2 = Rc::clone(&echoed);
        on_core0(&native, e2, move |e2| {
            local_messenger().call(VICTIM_IP, echo_id, b"still here", move |resp| {
                *e2.borrow_mut() = Some(flat(&resp));
            });
        });
        w.run_to_idle();
        assert_eq!(
            echoed.borrow().as_deref(),
            Some(b"still here".as_slice()),
            "{what}: healthy peers unaffected"
        );
    }
}

/// However the TCP stream is cut — whole, one byte at a time, at
/// the MSS, across frame boundaries — the same frames come out, in
/// order, with the same payloads.
#[test]
fn reassembly_is_independent_of_how_the_stream_is_cut() {
    let big: Vec<u8> = (0..3000u32).map(|i| (i * 7) as u8).collect();
    let mid: Vec<u8> = (0..300u32).map(|i| (i * 3) as u8).collect();
    let id = EbbId(600);
    // Responses are for the two calls the victim issues below (a
    // fresh messenger numbers its calls from 1).
    let frames: Vec<(EbbId, u8, u64, Vec<u8>)> = vec![
        (id, KIND_SEND, 0, Vec::new()),
        (id, KIND_SEND, 77, mid.clone()),
        (id, KIND_RESPONSE, 1, b"first".to_vec()),
        (id, KIND_SEND, 78, big.clone()),
        (id, KIND_RESPONSE, 2, Vec::new()),
        (id, KIND_SEND, 79, vec![0xEE]),
    ];
    let stream: Vec<u8> = frames
        .iter()
        .flat_map(|(id, kind, rpc, payload)| flat(&frame_bytes(*id, *kind, *rpc, payload)))
        .collect();
    let ends: Vec<usize> = frames
        .iter()
        .scan(0, |at, f| {
            *at += FRAME_HEADER_LEN + f.3.len();
            Some(*at)
        })
        .collect();
    let cut_at = |points: Vec<usize>| -> Vec<Vec<u8>> {
        let mut points: Vec<usize> = points.into_iter().filter(|&p| p < stream.len()).collect();
        points.extend([0, stream.len()]);
        points.sort_unstable();
        points.dedup();
        points
            .windows(2)
            .map(|w| stream[w[0]..w[1]].to_vec())
            .collect()
    };
    let cuttings: Vec<(&str, Vec<Vec<u8>>)> = vec![
        ("whole", cut_at(vec![])),
        ("one byte at a time", cut_at((0..stream.len()).collect())),
        (
            "MSS-sized",
            cut_at((0..stream.len()).step_by(1460).collect()),
        ),
        (
            "straddling every frame boundary",
            cut_at(ends.iter().flat_map(|&e| [e - 3, e + 2, e + 9]).collect()),
        ),
        ("at every frame boundary", cut_at(ends.clone())),
    ];
    let mut seen: Vec<Vec<(u8, u64, Vec<u8>)>> = Vec::new();
    for (how, pieces) in cuttings {
        let ((w, _sw, hosted, _native, h_msgr, _n_msgr), raw_m, raw) = with_raw_peer();
        let log = Rc::new(RefCell::new(Vec::new()));
        let l2 = Rc::clone(&log);
        h_msgr.register(id, move |src, rpc_id, payload| {
            assert_eq!(src, RAW_IP);
            l2.borrow_mut().push((KIND_SEND, rpc_id, flat(&payload)));
        });
        let l3 = Rc::clone(&log);
        on_core0(&hosted, l3, move |log| {
            for _ in 0..2 {
                let l = Rc::clone(&log);
                let rpc_id = local_messenger().next_rpc.get();
                local_messenger().call(RAW_IP, id, b"?", move |resp| {
                    l.borrow_mut().push((KIND_RESPONSE, rpc_id, flat(&resp)));
                });
            }
        });
        // (Not to idle: that would run the calls' timeouts out.)
        w.run_for(1_000_000);
        raw_send(&raw_m, &raw, pieces);
        w.run_for(20_000_000);
        let got = log.borrow().clone();
        let want: Vec<(u8, u64, Vec<u8>)> = frames
            .iter()
            .map(|(_, kind, rpc, payload)| (*kind, *rpc, payload.clone()))
            .collect();
        assert_eq!(got, want, "{how}");
        assert_eq!(h_msgr.dispatched.get(), frames.len() as u64, "{how}");
        assert_eq!(h_msgr.pending_rpcs(), 0, "{how}");
        let counters = qos::snapshot(hosted.runtime());
        assert_eq!(counters.get(BAD_FRAME_COUNTER), 0, "{how}");
        seen.push(got);
    }
    assert!(seen.windows(2).all(|w| w[0] == w[1]));
}

/// A chain payload rides the connection as the descriptors it was
/// handed in: framed in place when the first buffer is the
/// caller's alone, behind a header buffer when it is shared.
#[test]
fn chain_payloads_are_framed_without_copying_them() {
    use ebbrt_core::iobuf::wire::WireWriter;
    let (w, _sw, _hosted, native, h_msgr, _n_msgr) = two_machines();
    let id = EbbId(700);
    let got = Rc::new(RefCell::new(Vec::new()));
    let g2 = Rc::clone(&got);
    h_msgr.register_call(id, move |_src, payload, respond| {
        g2.borrow_mut().push(flat(&payload));
        respond.send(payload); // echo, by descriptor
    });
    let value = Chain::single(IoBuf::copy_from(&[0x5A; 1000]));
    let request = || {
        let mut req = WireWriter::op(3);
        req.bytes16(b"key").tail_chain(&value);
        req.finish()
    };
    // [op | key] in a pooled buffer, then the value by descriptor.
    assert_eq!(request().segment_count(), 2);
    assert_eq!(
        frame(id, KIND_SEND, 1, request()).segment_count(),
        2,
        "sole owner of the first buffer: header in its headroom"
    );
    let retained = request();
    assert_eq!(
        frame(id, KIND_SEND, 1, retained.clone()).segment_count(),
        3,
        "a clone is alive (a retry's): header in a buffer of its own"
    );
    drop(retained);

    let mut want = vec![3, 0, 3, b'k', b'e', b'y'];
    want.extend([0x5A; 1000]);
    // Twice: the first call warms the connection and the pools.
    for round in 0..2 {
        let echoed = Rc::new(RefCell::new(None));
        let e2 = Rc::clone(&echoed);
        let before = ebbrt_core::iobuf::stats::runtime_snapshot(native.runtime());
        on_core0(&native, (request(), e2), move |(payload, e2)| {
            local_messenger().call_chain(
                VICTIM_IP,
                id,
                payload,
                DEFAULT_RPC_TIMEOUT_NS,
                move |r| *e2.borrow_mut() = Some(flat(&r.expect("echo"))),
            );
        });
        w.run_to_idle();
        assert_eq!(got.borrow().last(), Some(&want));
        assert_eq!(echoed.borrow().as_deref(), Some(want.as_slice()));
        if round == 1 {
            let delta = ebbrt_core::iobuf::stats::runtime_snapshot(native.runtime()).since(&before);
            assert_eq!(delta.bytes_copied, 0, "no payload byte copied to send it");
            assert_eq!(delta.bufs_allocated, 0, "framing buffers are pooled");
        }
    }
    assert_eq!(value.seg(0).ref_count(), 1, "every descriptor came home");
}

#[test]
#[should_panic(expected = "reserved SystemEbb range")]
fn registering_a_non_wire_well_known_id_panics() {
    let (_w, _sw, _hosted, _native, h_msgr, _n_msgr) = two_machines();
    // EventManager (id 5) is machine-local: making it addressable
    // from the wire would be an id-collision bug.
    h_msgr.register(SystemEbb::EventManager.id(), |_, _, _| {});
}
