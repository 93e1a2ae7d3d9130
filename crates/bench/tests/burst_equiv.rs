//! Property tests: the vectorized burst receive path is
//! observationally equivalent to per-packet processing.
//!
//! Two layers of evidence:
//!
//! 1. **End to end** — the same randomly generated multi-connection
//!    workload is run twice through the full simulated stack, once
//!    with the driver forced to per-packet delivery
//!    (`set_rx_burst_frames(1)`) and once with the full burst vector.
//!    Every connection must see byte-identical deliveries on both
//!    sides and end in the same TCP state. (Known, accepted
//!    divergences — fewer bare ACKs per pass, callbacks coalesced and
//!    deferred to end-of-run — are invisible at this level by design.)
//!
//! 2. **PCB reassembly** — random segmentation, duplication, and
//!    reordering of a byte stream fed through [`Pcb::on_data`] must
//!    reconstruct the exact stream and land on the same cumulative
//!    ACK point (`rcv_nxt`) as in-order per-segment delivery. This is
//!    the invariant that lets a per-PCB run send one cumulative ACK
//!    for the whole pass instead of one per segment.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use ebbrt_apps::spawn_with;
use ebbrt_core::cpu::CoreId;
use ebbrt_core::iobuf::{Chain, IoBuf};
use ebbrt_net::driver::RX_BURST;
use ebbrt_net::netif::{ConnHandler, TcpConn};
use ebbrt_net::tcp::{FourTuple, Pcb, TcpState};
use ebbrt_net::types::Ipv4Addr;
use ebbrt_net::Lan;
use ebbrt_sim::CostProfile;
use proptest::strategy::Strategy;

/// One generated workload: per connection, the message sent in each
/// round (empty = this connection sits the round out). All of a
/// round's sends are issued in one event so their frames share
/// receive bursts.
struct Scenario {
    /// `msgs[conn][round]` — payload bytes, possibly empty.
    msgs: Vec<Vec<Vec<u8>>>,
}

/// Echo server handler that also records the received stream.
struct RecordEcho {
    rx: Rc<RefCell<Vec<u8>>>,
}
impl ConnHandler for RecordEcho {
    fn on_receive(&self, conn: &TcpConn, data: Chain<IoBuf>) {
        self.rx.borrow_mut().extend(data.copy_to_vec());
        let _ = conn.send(data);
    }
}

/// Client handler collecting the echoed stream.
struct Collect {
    rx: Rc<RefCell<Vec<u8>>>,
    connected: Rc<Cell<bool>>,
}
impl ConnHandler for Collect {
    fn on_connected(&self, _c: &TcpConn) {
        self.connected.set(true);
    }
    fn on_receive(&self, _c: &TcpConn, data: Chain<IoBuf>) {
        self.rx.borrow_mut().extend(data.copy_to_vec());
    }
}

/// What a run of the scenario looks like from the application: the
/// per-connection byte streams seen by each side and the final client
/// TCP states.
#[derive(PartialEq, Eq, Debug)]
struct Observation {
    server_rx: Vec<Vec<u8>>,
    client_rx: Vec<Vec<u8>>,
    final_states: Vec<TcpState>,
}

fn run_scenario(burst: usize, sc: &Scenario) -> Observation {
    let _guard = ebbrt_bench::burst_path::force_rx_burst(burst);

    let lan = Lan::new();
    let vm = CostProfile::ebbrt_vm;
    let w = &lan.world;
    let (_server, s_if) = lan.machine("server", 1, vm(), [0xAA; 6], Ipv4Addr::new(10, 0, 0, 1));
    let (client, c_if) = lan.machine("client", 1, vm(), [0xBB; 6], Ipv4Addr::new(10, 0, 0, 2));
    w.run_to_idle();

    let n = sc.msgs.len();
    // One listener port per connection keeps the streams separated
    // without in-band tagging.
    let server_rx: Vec<Rc<RefCell<Vec<u8>>>> =
        (0..n).map(|_| Rc::new(RefCell::new(Vec::new()))).collect();
    for (i, rx) in server_rx.iter().enumerate() {
        let rx = Rc::clone(rx);
        s_if.listen(7000 + i as u16, move |_c| {
            Rc::new(RecordEcho { rx: Rc::clone(&rx) }) as Rc<dyn ConnHandler>
        })
        .unwrap();
    }

    let client_rx: Vec<Rc<RefCell<Vec<u8>>>> =
        (0..n).map(|_| Rc::new(RefCell::new(Vec::new()))).collect();
    let connected: Vec<Rc<Cell<bool>>> = (0..n).map(|_| Rc::new(Cell::new(false))).collect();
    let conns: Rc<RefCell<Vec<TcpConn>>> = Rc::new(RefCell::new(Vec::new()));
    {
        let handlers: Vec<Collect> = (0..n)
            .map(|i| Collect {
                rx: Rc::clone(&client_rx[i]),
                connected: Rc::clone(&connected[i]),
            })
            .collect();
        let conns = Rc::clone(&conns);
        spawn_with(
            &client,
            CoreId(0),
            (c_if, handlers),
            move |(c_if, handlers)| {
                for (i, h) in handlers.into_iter().enumerate() {
                    let c = c_if.connect(Ipv4Addr::new(10, 0, 0, 1), 7000 + i as u16, Rc::new(h));
                    conns.borrow_mut().push(c);
                }
            },
        );
    }
    w.run_to_idle();
    for c in &connected {
        assert!(c.get(), "handshakes must complete");
    }

    let rounds = sc.msgs.iter().map(Vec::len).max().unwrap_or(0);
    for r in 0..rounds {
        // Fire every connection's message for this round in a single
        // event: the resulting frames interleave on the wire and
        // arrive within shared bursts.
        let batch: Vec<(usize, Vec<u8>)> = sc
            .msgs
            .iter()
            .enumerate()
            .filter_map(|(i, per_round)| {
                let m = per_round.get(r)?;
                (!m.is_empty()).then(|| (i, m.clone()))
            })
            .collect();
        if batch.is_empty() {
            continue;
        }
        let conns = Rc::clone(&conns);
        spawn_with(&client, CoreId(0), batch, move |batch| {
            for (i, msg) in batch {
                let conn = conns.borrow()[i].clone();
                conn.send(Chain::single(IoBuf::copy_from(&msg)))
                    .expect("send within window");
            }
        });
        w.run_to_idle();
    }

    {
        let conns = Rc::clone(&conns);
        spawn_with(&client, CoreId(0), (), move |()| {
            for c in conns.borrow().iter() {
                c.close();
            }
        });
    }
    w.run_to_idle();

    let final_states = conns.borrow().iter().map(TcpConn::state).collect();
    Observation {
        server_rx: server_rx.iter().map(|r| r.borrow().clone()).collect(),
        client_rx: client_rx.iter().map(|r| r.borrow().clone()).collect(),
        final_states,
    }
}

/// Deterministic filler so mismatches show *where* streams diverge.
fn fill(conn: usize, round: usize, len: usize) -> Vec<u8> {
    (0..len)
        .map(|k| (conn.wrapping_mul(131) ^ round.wrapping_mul(31) ^ k) as u8)
        .collect()
}

#[test]
fn burst_path_is_observationally_equivalent_to_per_packet() {
    // A full simulated two-machine world per case and per burst
    // setting: bound the case count rather than inheriting the
    // 64-case default.
    if std::env::var("PROPTEST_CASES").is_err() {
        std::env::set_var("PROPTEST_CASES", "6");
    }
    proptest::test_runner::run(
        "burst_path_is_observationally_equivalent_to_per_packet",
        |rng| {
            let (nconns, rounds) = (2usize..5, 1usize..5).generate(rng);
            let mut msgs = Vec::new();
            for conn in 0..nconns {
                let mut per_round = Vec::new();
                for round in 0..rounds {
                    // Mix of empty rounds, sub-MSS messages, and
                    // multi-segment messages (MSS is 1460).
                    let len = (0usize..6000).generate(rng);
                    let len = if len < 500 { 0 } else { len };
                    per_round.push(fill(conn, round, len));
                }
                msgs.push(per_round);
            }
            let sc = Scenario { msgs };

            let per_packet = run_scenario(1, &sc);
            let per_burst = run_scenario(RX_BURST, &sc);

            // The ground truth: each side must have seen exactly the
            // concatenation of that connection's messages.
            for (i, per_round) in sc.msgs.iter().enumerate() {
                let expect: Vec<u8> = per_round.iter().flatten().copied().collect();
                proptest::prop_assert_eq!(
                    &per_burst.server_rx[i],
                    &expect,
                    "conn {} server stream",
                    i
                );
                proptest::prop_assert_eq!(
                    &per_burst.client_rx[i],
                    &expect,
                    "conn {} echoed stream",
                    i
                );
            }
            // And the burst path must be indistinguishable from the
            // per-packet path.
            proptest::prop_assert_eq!(
                per_packet,
                per_burst,
                "burst processing must be observationally equivalent"
            );
            Ok(())
        },
    );
}

/// Splits `stream` into segments at random boundaries, then disturbs
/// the arrival order within a bounded window and duplicates a few
/// segments — the worst traffic a burst can hand one PCB's run.
#[test]
fn reassembly_is_order_insensitive_and_acks_cumulatively() {
    proptest::test_runner::run(
        "reassembly_is_order_insensitive_and_acks_cumulatively",
        |rng| {
            let (len, iss) = (1usize..20_000, proptest::arbitrary::any::<u32>()).generate(rng);
            let stream: Vec<u8> = (0..len).map(|k| (k * 7 + 3) as u8).collect();

            // Random segmentation.
            let mut segs: Vec<(u32, Vec<u8>)> = Vec::new();
            let mut off = 0usize;
            while off < len {
                let take = (1usize..1461).generate(rng).min(len - off);
                segs.push((
                    iss.wrapping_add(off as u32),
                    stream[off..off + take].to_vec(),
                ));
                off += take;
            }

            // Bounded reordering: swap adjacent-ish segments.
            let swaps = (0usize..8).generate(rng);
            for _ in 0..swaps {
                if segs.len() >= 2 {
                    let a = (0usize..segs.len() - 1).generate(rng);
                    segs.swap(a, a + 1);
                }
            }
            // Duplicate a couple of segments (retransmit lookalikes).
            let dups = (0usize..3).generate(rng).min(segs.len());
            for _ in 0..dups {
                let a = (0usize..segs.len()).generate(rng);
                let dup = segs[a].clone();
                segs.push(dup);
            }

            let tuple = FourTuple {
                local: (Ipv4Addr::new(10, 0, 0, 1), 7),
                remote: (Ipv4Addr::new(10, 0, 0, 2), 40000),
            };
            let run_pcb = |order: &[(u32, Vec<u8>)]| {
                let mut p = Pcb::new(tuple, TcpState::Established, 0, CoreId(0));
                p.rcv_nxt = iss;
                let mut got = Chain::new();
                for (seq, bytes) in order {
                    p.on_data(*seq, Chain::single(IoBuf::copy_from(bytes)), &mut got);
                }
                (got.copy_to_vec(), p.rcv_nxt)
            };

            // In-order, one segment at a time (the per-packet baseline)…
            let mut in_order = segs.clone();
            in_order.sort_by_key(|(seq, _)| seq.wrapping_sub(iss));
            let (base_bytes, base_ack) = run_pcb(&in_order);
            // …vs the disturbed order a burst may deliver.
            let (burst_bytes, burst_ack) = run_pcb(&segs);

            proptest::prop_assert_eq!(&base_bytes, &stream, "baseline must reassemble");
            proptest::prop_assert_eq!(&burst_bytes, &stream, "disturbed order must reassemble");
            proptest::prop_assert_eq!(
                base_ack,
                burst_ack,
                "cumulative ACK point must not depend on arrival order"
            );
            proptest::prop_assert_eq!(burst_ack, iss.wrapping_add(len as u32), "ACK covers stream");
            Ok(())
        },
    );
}
