use super::*;

fn chain(data: &[u8]) -> Chain<IoBuf> {
    Chain::single(IoBuf::copy_from(data))
}

fn pcb() -> Pcb {
    let t = FourTuple {
        local: (Ipv4Addr::new(10, 0, 0, 1), 80),
        remote: (Ipv4Addr::new(10, 0, 0, 2), 5555),
    };
    let mut p = Pcb::new(t, TcpState::Established, 1000, CoreId(0));
    p.rcv_nxt = 5000;
    p.snd_wnd = 8000;
    p
}

#[test]
fn seq_arithmetic_wraps() {
    assert!(seq::lt(u32::MAX - 1, u32::MAX));
    assert!(seq::lt(u32::MAX, 0)); // wrap
    assert!(seq::gt(5, u32::MAX - 5));
    assert!(seq::ge(7, 7));
    assert!(seq::le(0, 1));
}

#[test]
fn send_window_tracks_inflight() {
    let mut p = pcb();
    assert_eq!(p.send_window(), 8000);
    p.record_sent(1000, 3000, 0, chain(&vec![0; 3000]));
    assert_eq!(p.snd_nxt, 4000);
    assert_eq!(p.send_window(), 5000);
    let r = p.process_ack(2500, 8000);
    assert_eq!(r.acked, 1500);
    assert_eq!(p.send_window(), 6500);
}

#[test]
fn ack_drops_covered_segments_only() {
    let mut p = pcb();
    p.record_sent(1000, 100, 0, chain(&[0; 100]));
    p.record_sent(1100, 100, 0, chain(&[0; 100]));
    p.record_sent(1200, 100, 0, chain(&[0; 100]));
    let r = p.process_ack(1150, 8000);
    assert_eq!(r.acked, 150);
    // Middle segment only partially acked: stays queued.
    assert_eq!(p.unacked.len(), 2);
    assert!(!r.queue_empty);
    let r = p.process_ack(1300, 8000);
    assert!(r.queue_empty);
    assert_eq!(p.unacked.len(), 0);
}

#[test]
fn ack_beyond_snd_nxt_ignored() {
    let mut p = pcb();
    p.record_sent(1000, 100, 0, chain(&[0; 100]));
    let r = p.process_ack(5000, 8000);
    assert_eq!(r.acked, 0);
    assert_eq!(p.snd_una, 1000);
}

#[test]
fn window_opened_signalled_on_ack() {
    let mut p = pcb();
    p.snd_wnd = 100;
    p.record_sent(1000, 100, 0, chain(&[0; 100]));
    assert_eq!(p.send_window(), 0);
    let r = p.process_ack(1100, 100);
    assert!(r.window_opened);
    assert_eq!(p.send_window(), 100);
}

/// Feeds one segment; returns `(chunks, bytes delivered)`.
fn feed(p: &mut Pcb, seq: u32, data: &[u8]) -> (usize, Vec<u8>) {
    let mut delivery = Chain::new();
    let chunks = p.on_data(seq, chain(data), &mut delivery);
    (chunks, delivery.copy_to_vec())
}

#[test]
fn in_order_data_delivers_immediately() {
    let mut p = pcb();
    let (chunks, out) = feed(&mut p, 5000, b"hello");
    assert_eq!(chunks, 1);
    assert_eq!(out, b"hello");
    assert_eq!(p.rcv_nxt, 5005);
    assert!(p.ack_pending);
}

#[test]
fn out_of_order_held_until_gap_fills() {
    let mut p = pcb();
    let (chunks, out) = feed(&mut p, 5005, b"world");
    assert!(chunks == 0 && out.is_empty(), "future segment must wait");
    assert_eq!(p.rcv_nxt, 5000);
    let (chunks, out) = feed(&mut p, 5000, b"hello");
    assert_eq!(chunks, 2);
    assert_eq!(out, b"helloworld");
    assert_eq!(p.rcv_nxt, 5010);
    assert!(p.ooo_is_empty());
}

#[test]
fn duplicate_data_trimmed() {
    let mut p = pcb();
    feed(&mut p, 5000, b"hello");
    // Retransmission overlapping old + new data.
    let (chunks, out) = feed(&mut p, 5002, b"llo, world");
    assert_eq!(chunks, 1);
    assert_eq!(out, b", world");
    assert_eq!(p.rcv_nxt, 5012);
}

#[test]
fn fully_duplicate_data_just_acks() {
    let mut p = pcb();
    feed(&mut p, 5000, b"hello");
    p.ack_pending = false;
    let (chunks, out) = feed(&mut p, 5000, b"hello");
    assert!(chunks == 0 && out.is_empty());
    assert!(p.ack_pending, "duplicate must trigger an ACK");
    assert_eq!(p.rcv_nxt, 5005);
}

#[test]
fn interleaved_ooo_segments_reassemble_in_order() {
    let mut p = pcb();
    assert_eq!(feed(&mut p, 5010, b"cc").0, 0);
    assert_eq!(feed(&mut p, 5005, b"bbbbb").0, 0);
    let (_, all) = feed(&mut p, 5000, b"aaaaa");
    assert_eq!(all, b"aaaaabbbbbcc");
    assert_eq!(p.rcv_nxt, 5012);
}

#[test]
fn the_out_of_order_stash_holds_at_most_the_window() {
    // Future segments beyond the window are dropped, whatever their
    // number, and each still owes an ACK.
    let mut p = pcb();
    p.rcv_wnd = 4096;
    let beyond = 5000 + p.rcv_wnd as u32;
    for i in 0..1_000u32 {
        p.ack_pending = false;
        assert_eq!(feed(&mut p, beyond + i * 100, b"x").0, 0);
        assert!(p.ack_pending, "a dropped segment owes an ACK");
    }
    assert!(p.ooo_is_empty(), "nothing beyond the window is stashed");
    // A segment straddling the window's edge is beyond it too.
    feed(&mut p, beyond - 1, b"xy");
    assert!(p.ooo_is_empty());
    // Overlapping in-window segments at distinct sequence numbers: the
    // stash keeps at most a window's worth of bytes.
    for i in 0..1_000u32 {
        feed(&mut p, 5001 + i % 3000, &[7; 100]);
    }
    let held = |p: &Pcb| -> usize {
        p.cold
            .as_ref()
            .map_or(0, |c| c.ooo.values().map(Chain::len).sum())
    };
    assert!(
        held(&p) > 0 && held(&p) <= p.rcv_wnd as usize,
        "{} bytes held",
        held(&p)
    );
    // The gap fills: the stash drains into one in-order delivery, and
    // then holds a whole window again.
    let (_, out) = feed(&mut p, 5000, b"a");
    assert_eq!(out.len() as u32, p.rcv_nxt - 5000);
    assert!(p.ooo_is_empty());
    let next = p.rcv_nxt;
    for i in 0..4u32 {
        feed(&mut p, next + 1 + i * 1000, &[8; 1000]);
    }
    assert_eq!(held(&p), 4000);
}

#[test]
fn syn_fin_occupy_sequence_space() {
    let mut p = pcb();
    p.record_sent(1000, 1, crate::wire::tcp_flags::SYN, Chain::new());
    assert_eq!(p.snd_nxt, 1001);
    let r = p.process_ack(1001, 1000);
    assert!(r.queue_empty);
}

// --- The state machine, with no world -----------------------------------

use ebbrt_core::timer::TimerWheel;
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use tcp_flags::{ACK, FIN, PSH, RST, SYN};
use TcpState::*;

/// [`TcpIo`] for tests: emitted segments queue up, and the timers sit
/// on a wheel driven by a manual clock.
struct TestIo {
    sent: VecDeque<SegOut>,
    wheel: TimerWheel<Timer>,
    now: Ns,
}

impl TestIo {
    fn new() -> TestIo {
        TestIo {
            sent: VecDeque::new(),
            wheel: TimerWheel::new(0),
            now: 0,
        }
    }

    /// `(flags, payload length)` of everything emitted since the last
    /// call.
    fn take_sent(&mut self) -> Vec<(u8, usize)> {
        let sent = self.sent.drain(..);
        sent.map(|s| (s.flags, s.payload.len())).collect()
    }

    /// Moves the clock to the next armed timer, takes it off the wheel
    /// and returns it.
    fn next_timer(&mut self) -> Option<Timer> {
        loop {
            // A lower bound on the deadline, exact once it is near.
            self.now = self.now.max(self.wheel.next_deadline(self.now)?);
            if let Some((timer, _)) = self.wheel.pop_expired() {
                return Some(timer);
            }
        }
    }
}

impl TcpIo for TestIo {
    fn emit(&mut self, seg: SegOut) {
        self.sent.push_back(seg);
    }

    fn arm(&mut self, timer: Timer, delay: Ns) -> TimerToken {
        self.wheel.schedule(self.now + delay, timer)
    }

    fn restart(&mut self, token: TimerToken, delay: Ns) {
        assert!(
            self.wheel.arm(token, self.now + delay),
            "restarted a stale timer"
        );
    }

    fn cancel(&mut self, token: TimerToken) {
        assert!(
            self.wheel.remove(token).is_some(),
            "cancelled a stale timer"
        );
    }
}

const A: (Ipv4Addr, u16) = (Ipv4Addr::new(10, 0, 0, 1), 40000);
const B: (Ipv4Addr, u16) = (Ipv4Addr::new(10, 0, 0, 2), 80);
const A_ISS: u32 = 1000;
const B_ISS: u32 = 5000;

fn header(seq: u32, ack: u32, flags: u8) -> TcpHeader {
    TcpHeader {
        src_port: B.1,
        dst_port: A.1,
        seq,
        ack,
        flags,
        window: DEFAULT_RCV_WND,
        header_len: crate::wire::TCP_HLEN,
    }
}

/// What one row of the transition table does to the PCB.
#[derive(Clone, Copy, Debug)]
enum Stim {
    /// The peer's next segment, in sequence, acknowledging everything
    /// we have sent (`Seg`) or nothing new (`SegNoAck`); then the
    /// caller's ACK decision.
    Seg(u8, &'static [u8]),
    SegNoAck(u8, &'static [u8]),
    Open,
    Send(&'static [u8]),
    Close,
    Abort,
    ConnectFailed,
    Fire(Timer),
}

/// A PCB under test with its I/O and a scripted peer.
struct Rig {
    p: Pcb,
    io: TestIo,
    /// The peer's next sequence number.
    peer_seq: u32,
    delivered: Vec<u8>,
}

impl Rig {
    /// A PCB driven into `state` through real transitions from an
    /// active open (or, for SynReceived, a passive one).
    fn in_state(state: TcpState) -> Rig {
        let (tuple, io) = (
            FourTuple {
                local: A,
                remote: B,
            },
            TestIo::new(),
        );
        let mut rig = Rig {
            p: Pcb::new(tuple, SynSent, A_ISS, CoreId(0)),
            io,
            peer_seq: B_ISS,
            delivered: Vec::new(),
        };
        let path: &[Stim] = match state {
            SynSent => &[Stim::Open],
            SynReceived => {
                rig.p = Pcb::from_syn(tuple, A_ISS, CoreId(0), &header(B_ISS, 0, SYN));
                rig.p.embryonic = true;
                rig.peer_seq += 1;
                &[Stim::Open]
            }
            Established => &[Stim::Open, Stim::Seg(SYN | ACK, b"")],
            FinWait1 => &[Stim::Open, Stim::Seg(SYN | ACK, b""), Stim::Close],
            FinWait2 => &[
                Stim::Open,
                Stim::Seg(SYN | ACK, b""),
                Stim::Close,
                Stim::Seg(ACK, b""),
            ],
            CloseWait => &[
                Stim::Open,
                Stim::Seg(SYN | ACK, b""),
                Stim::Seg(FIN | ACK, b""),
            ],
            LastAck => &[
                Stim::Open,
                Stim::Seg(SYN | ACK, b""),
                Stim::Seg(FIN | ACK, b""),
                Stim::Close,
            ],
            Closed => unreachable!("nothing starts from Closed"),
        };
        for &stim in path {
            rig.apply(stim);
        }
        assert_eq!(rig.p.state(), state, "setup path");
        rig.io.take_sent();
        rig.delivered.clear();
        rig
    }

    fn apply(&mut self, stim: Stim) -> Outcome {
        let (p, io) = (&mut self.p, &mut self.io);
        match stim {
            Stim::Seg(flags, data) | Stim::SegNoAck(flags, data) => {
                let ack = match stim {
                    Stim::Seg(..) => p.snd_nxt,
                    _ => p.snd_una,
                };
                let mut segs = vec![Segment {
                    hdr: header(self.peer_seq, ack, flags),
                    payload: chain(data),
                }];
                let syn_fin = (flags & SYN != 0) as u32 + (flags & FIN != 0) as u32;
                self.peer_seq = self.peer_seq.wrapping_add(data.len() as u32 + syn_fin);
                let mut out = p.input(io, &mut segs);
                assert!(segs.is_empty(), "input drains its run");
                self.delivered
                    .extend(std::mem::take(&mut out.delivery).copy_to_vec());
                p.flush_ack(io);
                out
            }
            Stim::Open => {
                p.open(io);
                Outcome::default()
            }
            Stim::Send(data) => {
                p.send(io, chain(data), 1460).expect("send");
                Outcome::default()
            }
            Stim::Close => p.close(io),
            Stim::Abort => p.abort(io),
            Stim::ConnectFailed => p.connect_failed(),
            Stim::Fire(timer) => p.on_timer(io, timer),
        }
    }
}

/// The outcome's flags, one letter each: **E**stablished, **W**indow
/// opened, **P**eer closed, **R**eset, pro**M**oted, re**T**ransmitted.
fn letters(out: &Outcome) -> String {
    [
        (out.established, 'E'),
        (out.window_opened, 'W'),
        (out.peer_closed, 'P'),
        (out.reset, 'R'),
        (out.promoted, 'M'),
        (out.retransmitted, 'T'),
    ]
    .iter()
    .filter_map(|&(set, c)| set.then_some(c))
    .collect()
}

/// `(from, stimulus, to, segments emitted as (flags, len), outcome
/// letters, bytes delivered)`. `None` for the segments: not asserted
/// (the row where the last ACK of a close is due — ROADMAP `[tcp]` (a)
/// decides what it should be).
type Row = (
    TcpState,
    Stim,
    TcpState,
    Option<&'static [(u8, usize)]>,
    &'static str,
    &'static [u8],
);

#[rustfmt::skip]
const TRANSITIONS: &[Row] = &[
    // Active open: the SYN-ACK is acknowledged at once, never delayed.
    (SynSent, Stim::Seg(SYN | ACK, b""), Established, Some(&[(ACK, 0)]), "E", b""),
    (SynSent, Stim::Seg(ACK, b""), SynSent, Some(&[]), "", b""),
    (SynSent, Stim::Close, Closed, Some(&[]), "", b""),
    (SynSent, Stim::ConnectFailed, Closed, Some(&[]), "R", b""),
    (SynSent, Stim::Fire(Timer::Rto), SynSent, Some(&[(SYN, 0)]), "T", b""),
    // Passive open; data may ride on the handshake's last ACK.
    (SynReceived, Stim::Seg(ACK, b""), Established, Some(&[]), "EM", b""),
    (SynReceived, Stim::Seg(ACK | PSH, b"hi"), Established, Some(&[]), "EM", b"hi"),
    (SynReceived, Stim::SegNoAck(SYN, b""), SynReceived, Some(&[]), "", b""),
    // An ACK of nothing we sent is refused, and the embryo stays.
    (SynReceived, Stim::SegNoAck(ACK, b""), SynReceived, Some(&[(RST, 0)]), "", b""),
    (SynReceived, Stim::Fire(Timer::Rto), SynReceived, Some(&[(SYN | ACK, 0)]), "T", b""),
    (SynReceived, Stim::Close, FinWait1, Some(&[(FIN | ACK, 0)]), "", b""),
    (SynReceived, Stim::ConnectFailed, SynReceived, Some(&[]), "", b""),
    // Data both ways: a lone segment's ACK waits for the timer.
    (Established, Stim::Send(b"hello"), Established, Some(&[(ACK | PSH, 5)]), "", b""),
    (Established, Stim::Seg(ACK | PSH, b"world"), Established, Some(&[]), "", b"world"),
    (Established, Stim::Fire(Timer::DelAck), Established, Some(&[]), "", b""),
    // FIN from the peer, alone and carrying data.
    (Established, Stim::Seg(FIN | ACK, b""), CloseWait, Some(&[]), "P", b""),
    (Established, Stim::Seg(FIN | ACK | PSH, b"bye"), CloseWait, Some(&[]), "P", b"bye"),
    (CloseWait, Stim::Send(b"tail"), CloseWait, Some(&[(ACK | PSH, 4)]), "", b""),
    (CloseWait, Stim::Close, LastAck, Some(&[(FIN | ACK, 0)]), "", b""),
    (LastAck, Stim::Seg(ACK, b""), Closed, Some(&[]), "", b""),
    (LastAck, Stim::Fire(Timer::Rto), LastAck, Some(&[(FIN | ACK, 0)]), "T", b""),
    // FIN from us; the peer's arrives after, with, or before its ACK.
    (Established, Stim::Close, FinWait1, Some(&[(FIN | ACK, 0)]), "", b""),
    (FinWait1, Stim::Seg(ACK, b""), FinWait2, Some(&[]), "", b""),
    (FinWait1, Stim::Seg(ACK | PSH, b"late"), FinWait2, Some(&[]), "", b"late"),
    (FinWait1, Stim::Seg(FIN | ACK, b""), Closed, None, "P", b""),
    (FinWait1, Stim::SegNoAck(FIN | ACK, b""), LastAck, Some(&[]), "P", b""),
    (FinWait1, Stim::Close, FinWait1, Some(&[]), "", b""),
    (FinWait2, Stim::Seg(FIN | ACK, b""), Closed, None, "P", b""),
    (FinWait2, Stim::Seg(FIN | ACK | PSH, b"end"), Closed, None, "P", b"end"),
    (FinWait2, Stim::Seg(ACK | PSH, b"more"), FinWait2, Some(&[]), "", b"more"),
    // Abort: one RST from anywhere.
    (SynReceived, Stim::Abort, Closed, Some(&[(RST | ACK, 0)]), "", b""),
    (Established, Stim::Abort, Closed, Some(&[(RST | ACK, 0)]), "", b""),
    (FinWait2, Stim::Abort, Closed, Some(&[(RST | ACK, 0)]), "", b""),
    // RST in each state: Closed, reported, never answered.
    (SynSent, Stim::Seg(RST, b""), Closed, Some(&[]), "R", b""),
    (SynReceived, Stim::Seg(RST, b""), Closed, Some(&[]), "R", b""),
    (Established, Stim::Seg(RST, b""), Closed, Some(&[]), "R", b""),
    (FinWait1, Stim::Seg(RST | ACK, b""), Closed, Some(&[]), "R", b""),
    (FinWait2, Stim::Seg(RST, b""), Closed, Some(&[]), "R", b""),
    (CloseWait, Stim::Seg(RST, b""), Closed, Some(&[]), "R", b""),
    (LastAck, Stim::Seg(RST, b""), Closed, Some(&[]), "R", b""),
];

#[test]
fn every_transition() {
    for (i, &(from, stim, to, emits, flags, delivered)) in TRANSITIONS.iter().enumerate() {
        let row = format!("row {i}: {from:?} --{stim:?}-->");
        let mut rig = Rig::in_state(from);
        let out = rig.apply(stim);
        assert_eq!(rig.p.state(), to, "{row} state");
        assert_eq!(letters(&out), flags, "{row} outcome");
        assert_eq!(rig.delivered, delivered, "{row} delivery");
        let sent = rig.io.take_sent();
        if let Some(emits) = emits {
            assert_eq!(sent, emits, "{row} segments");
        }
    }
}

#[test]
fn acks_are_delayed_for_one_segment_and_immediate_for_two() {
    let mut rig = Rig::in_state(Established);
    rig.apply(Stim::Seg(ACK | PSH, b"one"));
    assert_eq!(rig.io.take_sent(), [], "a lone segment waits");
    assert_eq!(rig.io.next_timer(), Some(Timer::DelAck));
    assert_eq!(rig.io.now, DELACK_NS);
    rig.apply(Stim::Fire(Timer::DelAck));
    assert_eq!(rig.io.take_sent(), [(ACK, 0)]);
    // A run of two is acknowledged as it ends; a reply sent first
    // carries the ACK and parks the timer.
    let mut run: Vec<Segment> = [&b"two"[..], b"three"]
        .iter()
        .map(|data| {
            let hdr = header(rig.peer_seq, rig.p.snd_nxt, ACK | PSH);
            rig.peer_seq += data.len() as u32;
            Segment {
                hdr,
                payload: chain(data),
            }
        })
        .collect();
    let out = rig.p.input(&mut rig.io, &mut run);
    assert_eq!(
        (out.chunks, out.delivery.copy_to_vec()),
        (2, b"twothree".to_vec())
    );
    rig.p.flush_ack(&mut rig.io);
    assert_eq!(rig.io.take_sent(), [(ACK, 0)]);
    rig.apply(Stim::Seg(ACK | PSH, b"four"));
    rig.apply(Stim::Send(b"reply"));
    assert_eq!(rig.io.take_sent(), [(ACK | PSH, 5)]);
    assert_eq!(
        rig.io.next_timer(),
        Some(Timer::Rto),
        "the delayed ACK was parked"
    );
}

// --- The retransmission box ----------------------------------------------

/// Counts this thread's allocator calls, for the warm-box test below.
#[global_allocator]
static ALLOCATOR: test_alloc::CountingAlloc = test_alloc::CountingAlloc;

impl RetxQueue {
    /// `(seq, len, flags, payload length)` of every segment in flight,
    /// oldest first.
    fn segs(&self) -> Vec<(u32, u32, u8, usize)> {
        match self {
            RetxQueue::Empty => Vec::new(),
            RetxQueue::Bare { seq, len, flags } => vec![(*seq, *len, *flags, 0)],
            RetxQueue::Boxed(q) => q
                .iter()
                .map(|s| (s.seq, s.len, s.flags, s.payload.len()))
                .collect(),
        }
    }

    fn len(&self) -> usize {
        self.segs().len()
    }

    /// The box's address, while the queue holds one.
    fn box_addr(&self) -> Option<*const RetxBox> {
        match self {
            RetxQueue::Boxed(q) => Some(&**q),
            _ => None,
        }
    }
}

/// The peer acknowledges up to `ack` and sends nothing.
fn ack_to(rig: &mut Rig, ack: u32) {
    let hdr = header(rig.peer_seq, ack, ACK);
    let payload = Chain::new();
    rig.p
        .input(&mut rig.io, &mut vec![Segment { hdr, payload }]);
    rig.p.flush_ack(&mut rig.io);
}

#[test]
fn a_connection_holds_a_retransmission_box_only_while_payload_is_in_flight() {
    // A lone SYN, SYN-ACK or FIN stays inline; idle holds nothing.
    for (state, in_flight) in [
        (SynSent, 1),
        (SynReceived, 1),
        (Established, 0),
        (LastAck, 1),
    ] {
        let rig = Rig::in_state(state);
        assert_eq!(rig.p.unacked.len(), in_flight, "{state:?}");
        assert_eq!(rig.p.unacked.box_addr(), None, "{state:?} holds a box");
    }

    // Payload takes a box; a FIN behind it joins the box, and the ACK
    // of the payload alone moves the lone FIN back inline.
    let mut rig = Rig::in_state(Established);
    rig.apply(Stim::Send(b"get k"));
    let held = rig
        .p
        .unacked
        .box_addr()
        .expect("payload in flight holds a box");
    rig.apply(Stim::Close);
    assert_eq!(rig.p.unacked.len(), 2);
    assert_eq!(rig.p.unacked.box_addr(), Some(held));
    ack_to(&mut rig, A_ISS + 1 + 5);
    assert_eq!(rig.p.unacked.segs(), [(A_ISS + 6, 1, FIN | ACK, 0)]);
    assert_eq!(
        rig.p.unacked.box_addr(),
        None,
        "the lone FIN moved back inline"
    );
    rig.io.take_sent();
    assert!(rig.apply(Stim::Fire(Timer::Rto)).retransmitted);
    assert_eq!(rig.io.take_sent(), [(FIN | ACK, 0)]);

    // Go-back-N from the box starts at the oldest segment; the ACK of
    // everything gives the box back.
    let mut rig = Rig::in_state(Established);
    rig.apply(Stim::Send(b"first"));
    rig.apply(Stim::Send(b"second"));
    rig.io.take_sent();
    assert!(rig.apply(Stim::Fire(Timer::Rto)).retransmitted);
    assert_eq!(rig.io.take_sent(), [(ACK | PSH, 5)]);
    rig.apply(Stim::Seg(ACK, b""));
    assert!(rig.p.unacked.is_empty());
    assert_eq!(rig.p.unacked.box_addr(), None);

    // Cleanup gives a held box back, and the next connection on the
    // core takes that same box without calling the allocator.
    let mut first = Rig::in_state(Established);
    first.apply(Stim::Send(b"first"));
    first.apply(Stim::Send(b"second"));
    let held = first.p.unacked.box_addr().expect("held");
    first.p.release_retx();
    assert!(first.p.unacked.is_empty());
    assert_eq!(first.p.unacked.box_addr(), None);
    let mut next = Rig::in_state(Established);
    let data = chain(b"third");
    let calls = test_alloc::thread_calls();
    next.p.send(&mut next.io, data, 1460).expect("send");
    assert_eq!(test_alloc::thread_calls() - calls, 0, "allocator calls");
    assert_eq!(
        next.p.unacked.box_addr(),
        Some(held),
        "the core's newest box"
    );
    next.p.release_retx();
}

/// One step of the retransmission-queue model: send `n` bytes, ACK up
/// to a point in flight, fire the RTO, or close.
fn model_step(rig: &mut Rig, model: &mut VecDeque<(u32, u32, u8, usize)>, op: u8, n: u32) {
    const MSS: usize = 100;
    match op % 4 {
        0 => {
            let data = vec![7; n as usize % 300 + 1];
            let seq = rig.p.snd_nxt;
            if rig.p.send(&mut rig.io, chain(&data), MSS).is_ok() {
                for (i, piece) in data.chunks(MSS).enumerate() {
                    let at = seq.wrapping_add((i * MSS) as u32);
                    model.push_back((at, piece.len() as u32, ACK | PSH, piece.len()));
                }
            }
        }
        1 => {
            let in_flight = rig.p.snd_nxt.wrapping_sub(rig.p.snd_una);
            let ack = rig.p.snd_una.wrapping_add(n % (in_flight + 1));
            ack_to(rig, ack);
            while model
                .front()
                .is_some_and(|s| seq::le(s.0.wrapping_add(s.1), ack))
            {
                model.pop_front();
            }
        }
        2 => {
            // An active open's RTO outlives its SYN and fires into
            // nothing.
            if rig.p.rto.is_some() {
                assert_eq!(rig.io.next_timer(), Some(Timer::Rto));
                rig.io.take_sent();
                let out = rig.p.on_timer(&mut rig.io, Timer::Rto);
                let resent: Vec<_> = rig
                    .io
                    .sent
                    .drain(..)
                    .map(|s| (s.seq, s.flags, s.payload.len()))
                    .collect();
                let oldest = model.front().map(|&(seq, _, flags, len)| (seq, flags, len));
                assert_eq!(resent, Vec::from_iter(oldest), "the oldest segment again");
                assert_eq!(out.retransmitted, oldest.is_some());
            }
        }
        _ => {
            let (state, seq) = (rig.p.state(), rig.p.snd_nxt);
            rig.apply(Stim::Close);
            if state == Established {
                model.push_back((seq, 1, FIN | ACK, 0));
            }
        }
    }
}

proptest! {
    /// Random sends, ACKs, timeouts and a close against a `VecDeque`
    /// model: the queue holds the model's segments, a timeout resends
    /// the model's oldest, and a box is held iff payload is in flight.
    #[test]
    fn the_retransmission_queue_matches_a_deque_model(
        ops in prop::collection::vec((0u8..4, 0u32..1000), 1..48),
    ) {
        let mut rig = Rig::in_state(Established);
        let mut model = VecDeque::new();
        for (op, n) in ops {
            model_step(&mut rig, &mut model, op, n);
            prop_assert_eq!(rig.p.unacked.segs(), Vec::from(model.clone()));
            let payload = model.iter().any(|s| s.3 > 0);
            prop_assert_eq!(rig.p.unacked.box_addr().is_some(), payload);
        }
        rig.p.release_retx();
        prop_assert_eq!(rig.p.unacked.box_addr(), None);
    }
}

#[test]
fn send_refuses_what_the_window_or_the_state_will_not_take() {
    let mut rig = Rig::in_state(Established);
    let window = rig.p.send_window();
    let too_big = chain(&vec![0; window + 1]);
    assert_eq!(
        rig.p.send(&mut rig.io, too_big, 1460),
        Err(SendError::WindowFull(window))
    );
    rig.p
        .send(&mut rig.io, chain(&vec![0; window]), 1460)
        .unwrap();
    assert_eq!(
        rig.io.take_sent().len(),
        window.div_ceil(1460),
        "cut to the MSS"
    );
    assert_eq!(
        rig.p.send(&mut rig.io, chain(b"x"), 1460),
        Err(SendError::WindowFull(0))
    );
    assert_eq!(letters(&rig.apply(Stim::Seg(ACK, b""))), "W");
    for state in [SynSent, SynReceived, FinWait1, FinWait2, LastAck] {
        let mut rig = Rig::in_state(state);
        assert_eq!(
            rig.p.send(&mut rig.io, chain(b"x"), 1460),
            Err(SendError::NotConnected)
        );
    }
}

#[test]
fn handshakes_give_up_after_the_backoff_ladder() {
    for (state, last_words, reset) in [
        (SynSent, vec![], "R"),
        (SynReceived, vec![(RST | ACK, 0)], ""),
    ] {
        let mut rig = Rig::in_state(state);
        let opening = if state == SynSent { SYN } else { SYN | ACK };
        let mut fired_at = Vec::new();
        let out = loop {
            assert_eq!(rig.io.next_timer(), Some(Timer::Rto));
            fired_at.push(rig.io.now / RTO_NS);
            let out = rig.apply(Stim::Fire(Timer::Rto));
            if rig.p.is_closed() {
                break out;
            }
            assert_eq!(
                (letters(&out).as_str(), rig.io.take_sent()),
                ("T", vec![(opening, 0)])
            );
        };
        // 1 + 2 + 4 + 8 + 16 RTOs of retries, then 32 more of silence.
        assert_eq!(fired_at, [1, 3, 7, 15, 31, 63], "{state:?}");
        assert_eq!(
            (letters(&out).as_str(), rig.io.take_sent()),
            (reset, last_words)
        );
        assert_eq!(rig.p.retransmits(), 5);
    }
    // An established connection never gives up: the timeout caps.
    let mut rig = Rig::in_state(Established);
    rig.apply(Stim::Send(b"into the void"));
    let mut gaps = Vec::new();
    for _ in 0..9 {
        let before = rig.io.now;
        assert_eq!(rig.io.next_timer(), Some(Timer::Rto));
        gaps.push((rig.io.now - before) / RTO_NS);
        assert_eq!(letters(&rig.apply(Stim::Fire(Timer::Rto))), "T");
    }
    assert_eq!(gaps, [1, 2, 4, 8, 16, 32, 64, 64, 64]);
    assert_eq!(rig.p.state(), Established);
}

#[test]
fn a_reset_is_never_answered_with_a_reset() {
    let tuple = FourTuple {
        local: A,
        remote: B,
    };
    // RFC 9293 §3.10.7.1: an ACK names the sequence number the reset
    // takes; without one, the reset acknowledges the segment, its SYN
    // and FIN included.
    let seg = |seq, ack, flags| Segment {
        hdr: header(seq, ack, flags),
        payload: Chain::single(IoBuf::copy_from(b"hello")),
    };
    let rst = rst_reply(tuple, [2; 6], &seg(77, 99, ACK | PSH)).expect("data gets an RST");
    assert_eq!((rst.flags, rst.seq, rst.ack), (RST, 99, 0));
    let rst = rst_reply(tuple, [2; 6], &seg(77, 99, SYN | FIN)).expect("a SYN gets an RST");
    assert_eq!((rst.flags, rst.seq, rst.ack), (RST | ACK, 0, 77 + 5 + 2));
    assert!(rst_reply(tuple, [2; 6], &seg(77, 99, RST | ACK)).is_none());
    assert!(is_syn(&header(0, 0, SYN)) && !is_syn(&header(0, 0, SYN | ACK)));
}

// --- Two PCBs, one lossy pipe --------------------------------------------

/// One end of a connection: its PCB and I/O, and the application on
/// top — a stream to send (then close), a record of what arrived.
struct End {
    p: Pcb,
    io: TestIo,
    to_send: Chain<IoBuf>,
    got: Vec<u8>,
    mss: usize,
}

impl End {
    fn new(p: Pcb, stream: &[u8], mss: usize) -> End {
        End {
            p,
            io: TestIo::new(),
            to_send: chain(stream),
            got: Vec::new(),
            mss,
        }
    }

    /// What [`crate::netif::NetIf::drive`] does around a call into the
    /// machine, with this end's application as the handler.
    fn drive(&mut self, now: Ns, f: impl FnOnce(&mut Pcb, &mut TestIo) -> Outcome) {
        self.io.now = now;
        let mut out = f(&mut self.p, &mut self.io);
        self.got
            .extend(std::mem::take(&mut out.delivery).copy_to_vec());
        // The application: once connected, send what the window takes,
        // then close.
        if matches!(self.p.state(), Established | CloseWait) {
            let take = self.p.send_window().min(self.to_send.len());
            if take > 0 {
                let piece = self.to_send.split_to(take);
                self.p
                    .send(&mut self.io, piece, self.mss)
                    .expect("fits the window");
            }
            if self.to_send.is_empty() {
                self.p.close(&mut self.io);
            }
        }
        self.p.flush_ack(&mut self.io);
        if self.p.is_closed() {
            for tok in self.p.timers().into_iter().flatten() {
                self.io.wheel.remove(tok);
            }
        }
    }

    /// A segment arrives. A closed end is no connection: it answers as
    /// the stack's demux would.
    fn receive(&mut self, now: Ns, seg: Segment) {
        if self.p.is_closed() {
            self.io.sent.extend(rst_reply(self.p.tuple, [0; 6], &seg));
        } else {
            self.drive(now, |p, io| p.input(io, &mut vec![seg]));
        }
    }
}

/// What the pipe does to the next segment.
enum Fault {
    Pass,
    Drop,
    /// Arrives this much later than it should: behind its successors,
    /// past a delayed ACK, or past a retransmission timeout.
    Late(Ns),
    /// Arrives twice, the second copy this much later.
    Twice(Ns),
}

/// Draws the plan one segment at a time. Losses are budgeted: a
/// handshake gives up only after six round trips fail, so five drops
/// can never make a connection legitimately fail to open, and after
/// that nothing gives up.
fn next_fault(rng: &mut TestRng, drops_left: &mut u32) -> Fault {
    let late = [30_000, DELACK_NS + 50_000, RTO_NS + 50_000][(rng.next_u64() % 3) as usize];
    match rng.next_u64() % 16 {
        0 | 1 if *drops_left > 0 => {
            *drops_left -= 1;
            Fault::Drop
        }
        2 | 3 => Fault::Late(late),
        4 | 5 => Fault::Twice(late),
        _ => Fault::Pass,
    }
}

proptest! {
    /// Drop, reorder and duplicate: every byte either side sends is
    /// delivered to the other once, in order, and both ends reach
    /// Closed. (Whether the close handshake's last ACK is sent is not
    /// asserted here; what happens is that the end that closes first
    /// answers the other's retransmitted FIN with an RST.)
    #[test]
    fn two_pcbs_across_a_faulty_pipe_deliver_every_byte_once(
        seed in any::<u64>(),
        a_len in 0usize..6000,
        b_len in 0usize..6000,
        small_window in any::<bool>(),
    ) {
        let mut rng = TestRng::new(seed);
        let stream = |len: usize, salt: u8| -> Vec<u8> {
            (0..len).map(|i| (i % 251) as u8 ^ salt).collect()
        };
        let (a_stream, b_stream) = (stream(a_len, 0), stream(b_len, 0xA5));
        let a_tuple = FourTuple { local: A, remote: B };
        let b_tuple = FourTuple { local: B, remote: A };
        let mut a = End::new(Pcb::new(a_tuple, SynSent, A_ISS, CoreId(0)), &a_stream, 536);
        // The passive end exists once the first SYN arrives.
        let mut b: Option<End> = None;
        // Segments in flight: (arrival time, tiebreak, destination is B, segment).
        let mut wire: Vec<(Ns, u64, bool, Segment)> = Vec::new();
        let (mut now, mut order, mut drops_left) = (0, 0u64, 5);
        a.drive(now, |p, io| {
            p.open(io);
            Outcome::default()
        });
        for step in 0.. {
            prop_assert!(step < 100_000, "no progress: a {:?}", a.p.state());
            // Put what both ends emitted on the wire, through the plan.
            for to_b in [true, false] {
                let from = if to_b { Some(&mut a) } else { b.as_mut() };
                for out in from.into_iter().flat_map(|end| end.io.sent.drain(..)) {
                    let hdr = TcpHeader {
                        window: out.window,
                        ..header(out.seq, out.ack, out.flags)
                    };
                    let mut carry = |delay: Ns| {
                        order += 1;
                        let seg = Segment { hdr, payload: out.payload.clone() };
                        wire.push((now + 10_000 + delay, order, to_b, seg));
                    };
                    match next_fault(&mut rng, &mut drops_left) {
                        Fault::Pass => carry(0),
                        Fault::Drop => {}
                        Fault::Late(by) => carry(by),
                        Fault::Twice(by) => {
                            carry(0);
                            carry(by);
                        }
                    }
                }
            }
            // The next thing to happen: an arrival or a timer.
            let arrival = wire.iter().map(|w| (w.0, w.1)).min();
            let timer = |end: &mut End| end.io.wheel.next_deadline(end.io.now.max(now));
            let (ta, tb) = (timer(&mut a), b.as_mut().and_then(timer));
            let next_timer = ta.into_iter().chain(tb).min();
            match (arrival, next_timer) {
                (Some((at, ord)), t) if t.is_none_or(|t| at <= t) => {
                    now = now.max(at);
                    let i = wire.iter().position(|w| (w.0, w.1) == (at, ord)).expect("found above");
                    let (_, _, to_b, seg) = wire.swap_remove(i);
                    if !to_b {
                        a.receive(now, seg);
                    } else if let Some(b) = b.as_mut() {
                        b.receive(now, seg);
                    } else if is_syn(&seg.hdr) {
                        let mut p = Pcb::from_syn(b_tuple, B_ISS, CoreId(0), &seg.hdr);
                        if small_window {
                            p.rcv_wnd = 1000;
                        }
                        let end = b.insert(End::new(p, &b_stream, 1460));
                        end.drive(now, |p, io| {
                            p.open(io);
                            Outcome::default()
                        });
                    }
                }
                (_, Some(t)) => {
                    now = now.max(t);
                    for end in [Some(&mut a), b.as_mut()].into_iter().flatten() {
                        end.io.now = now;
                        end.io.wheel.advance(now);
                        while let Some((timer, _)) = end.io.wheel.pop_expired() {
                            end.drive(now, |p, io| p.on_timer(io, timer));
                        }
                    }
                }
                (None, None) => break,
                (Some(_), None) => unreachable!("the first arm takes it"),
            }
        }
        let b = b.expect("the passive end opened");
        prop_assert_eq!((a.p.state(), b.p.state()), (Closed, Closed));
        prop_assert!(a.got == b_stream, "a got {} of {} bytes", a.got.len(), b_stream.len());
        prop_assert!(b.got == a_stream, "b got {} of {} bytes", b.got.len(), a_stream.len());
    }
}
