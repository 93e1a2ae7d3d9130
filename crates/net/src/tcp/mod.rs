//! TCP: the protocol's one home (§3.6).
//!
//! Every TCP rule lives here: the protocol control block ([`Pcb`]),
//! sequence arithmetic, acknowledgment processing, reassembly, window
//! accounting, and the state machine — segment-run input, `send` /
//! `close` / `abort`, retransmission and the delayed-ACK policy are
//! methods on [`Pcb`], whose state is private, so no other module can
//! write a transition.
//!
//! The machine knows no world. It reaches out through one
//! statically-dispatched parameter, [`TcpIo`], and reports back in one
//! plain [`Outcome`]. [`crate::netif`] implements [`TcpIo`] with the
//! frame builder and the timer wheel and turns outcomes into
//! [`ConnHandler`](crate::netif::ConnHandler) callbacks; the unit tests
//! implement it with a `VecDeque` and a manual clock.
//!
//! Two of the paper's design points live here:
//!
//! * **Application-managed send buffering** — the stack keeps *no* send
//!   buffer. [`Pcb::send_window`] exposes exactly how much the peer
//!   will accept; the application "must check that outgoing TCP data
//!   fits within the currently advertised sender window before telling
//!   the network stack to send it or buffer it otherwise". Sends beyond
//!   the window are refused, not queued (no Nagle).
//! * **Application-managed receive windowing** — the advertised window
//!   is set by the application ([`Pcb::rcv_wnd`]); an overwhelmed
//!   application shrinks it to pace the remote sender.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, VecDeque};

use ebbrt_core::cache::BoxCache;
use ebbrt_core::clock::Ns;
use ebbrt_core::cpu::CoreId;
use ebbrt_core::ebb::SystemEbb;
use ebbrt_core::event::TimerToken;
use ebbrt_core::iobuf::{Chain, IoBuf};

use crate::types::{Ipv4Addr, Mac};
use crate::wire::{tcp_flags, TcpHeader};

/// Base retransmission timeout (exponentially backed off).
pub const RTO_NS: Ns = 200_000_000;

/// Delayed-ACK timeout: a lone data segment is acknowledged within this
/// bound; a second segment forces an immediate ACK (RFC 1122 style).
pub const DELACK_NS: Ns = 200_000;

/// RTO backoff multiplier at which an unanswered SYN or SYN-ACK gives
/// up: the ladder of 1+2+4+8+16 RTOs (≈ 6 s of silence) is exhausted.
const HANDSHAKE_GIVE_UP: u32 = 32;

/// Sequence-number arithmetic (RFC 793 comparisons, wrapping).
pub mod seq {
    /// `a < b` in sequence space.
    #[inline]
    pub fn lt(a: u32, b: u32) -> bool {
        (a.wrapping_sub(b) as i32) < 0
    }

    /// `a <= b` in sequence space.
    #[inline]
    pub fn le(a: u32, b: u32) -> bool {
        a == b || lt(a, b)
    }

    /// `a > b` in sequence space.
    #[inline]
    pub fn gt(a: u32, b: u32) -> bool {
        lt(b, a)
    }

    /// `a >= b` in sequence space.
    #[inline]
    pub fn ge(a: u32, b: u32) -> bool {
        le(b, a)
    }
}

/// The 4-tuple identifying a connection.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct FourTuple {
    /// Local address and port.
    pub local: (Ipv4Addr, u16),
    /// Remote address and port.
    pub remote: (Ipv4Addr, u16),
}

/// TCP connection states (TIME_WAIT is collapsed into Closed; the
/// simulated network cannot produce wandering duplicates after both
/// FINs are acknowledged).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TcpState {
    /// Active open sent, awaiting SYN-ACK.
    SynSent,
    /// Passive open received SYN, sent SYN-ACK.
    SynReceived,
    /// Data transfer.
    Established,
    /// Active close: FIN sent, awaiting its ACK.
    FinWait1,
    /// Active close: our FIN acknowledged, awaiting peer FIN.
    FinWait2,
    /// Passive close: peer FIN received; local side may still send.
    CloseWait,
    /// Passive close: our FIN sent, awaiting its ACK.
    LastAck,
    /// Fully closed.
    Closed,
}

/// One TCP segment as the state machine sees it: the parsed header and
/// the payload behind it (headers already advanced past).
pub struct Segment {
    /// The TCP header.
    pub hdr: TcpHeader,
    /// The payload (empty for bare SYN/ACK/FIN/RST).
    pub payload: Chain<IoBuf>,
}

/// A segment on its way out: everything [`TcpIo::emit`] puts in the
/// frame.
pub struct SegOut {
    /// Next-hop MAC.
    pub dst_mac: Mac,
    /// The connection (ours is `local`).
    pub tuple: FourTuple,
    /// Traffic class the transmit scheduler queues it under.
    pub class: u8,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgment number.
    pub ack: u32,
    /// Flag bits.
    pub flags: u8,
    /// Advertised receive window.
    pub window: u16,
    /// The payload.
    pub payload: Chain<IoBuf>,
}

/// A connection's two timers. Each is a one-shot: the PCB holds its
/// token exactly while it is armed and decides when it runs; the
/// [`TcpIo`] implementation owns the entries, calls [`Pcb::on_timer`]
/// when one fires and cancels the armed ones ([`Pcb::timers`]) at
/// teardown. An idle connection holds none.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Timer {
    /// Retransmission timeout.
    Rto,
    /// Delayed ACK.
    DelAck,
}

/// The state machine's only way out. Generic at every use, so the
/// stack's implementation inlines into the segment path.
pub trait TcpIo {
    /// Puts one segment on the wire.
    fn emit(&mut self, seg: SegOut);
    /// Sets a one-shot `timer` to fire `delay` from now; returns its
    /// token.
    fn arm(&mut self, timer: Timer, delay: Ns) -> TimerToken;
    /// Moves an armed timer to fire `delay` from now.
    fn restart(&mut self, token: TimerToken, delay: Ns);
    /// Cancels an armed timer.
    fn cancel(&mut self, token: TimerToken);
}

/// What a call into the state machine asks of its caller — once per
/// call, however many segments the run held.
#[derive(Default)]
pub struct Outcome {
    /// The handshake completed.
    pub established: bool,
    /// Acknowledgments opened usable send window.
    pub window_opened: bool,
    /// The peer's FIN arrived in sequence.
    pub peer_closed: bool,
    /// The network ended the connection (an RST, or a connect that
    /// could not complete): the PCB is Closed.
    pub reset: bool,
    /// An inbound connection completed its handshake (and leaves the
    /// syncache ledger).
    pub promoted: bool,
    /// The oldest unacknowledged segment went out again.
    pub retransmitted: bool,
    /// Everything now deliverable, in order, as one zero-copy chain.
    pub delivery: Chain<IoBuf>,
    /// How many segments' payloads `delivery` coalesced.
    pub chunks: usize,
}

/// A transmitted-but-unacknowledged segment (retransmission queue
/// entry). The payload chain shares storage with what was handed to the
/// NIC — retransmission clones descriptors, never bytes.
struct UnackedSeg {
    /// First sequence number of the segment.
    seq: u32,
    /// Sequence span (payload bytes, +1 for SYN and/or FIN).
    len: u32,
    /// TCP flags the segment carried.
    flags: u8,
    /// Payload (empty for bare SYN/FIN).
    payload: Chain<IoBuf>,
}

/// The segments in flight once a box holds them, oldest first. An
/// emptied box keeps its capacity in the core's cache.
type RetxBox = VecDeque<UnackedSeg>;

/// The core's cache of emptied [`RetxBox`]es.
type RetxBoxes = BoxCache<RetxBox>;

/// The retransmission queue: segments sent and not yet acknowledged,
/// oldest first. A lone segment with no payload — a SYN, a SYN-ACK or a
/// FIN — stays inline as its sequence span and flags. Anything more
/// lives in a box from the core's cache ([`SystemEbb::RetxBoxes`]),
/// taken when payload (or a second segment) goes in flight and given
/// back on the ACK that leaves a lone bare segment or nothing, and at
/// cleanup ([`Pcb::release_retx`]). So a connection holds a box iff
/// payload is unacknowledged, or a close overtook its passive handshake
/// (a SYN-ACK and a FIN in flight): an idle, handshaking or LastAck
/// connection holds none.
#[derive(Default)]
enum RetxQueue {
    /// Nothing in flight.
    #[default]
    Empty,
    /// One segment with no payload.
    Bare { seq: u32, len: u32, flags: u8 },
    /// Never empty, and never a lone segment with no payload.
    Boxed(Box<RetxBox>),
}

impl RetxQueue {
    /// Whether nothing is in flight.
    fn is_empty(&self) -> bool {
        matches!(self, RetxQueue::Empty)
    }

    /// The oldest unacknowledged segment's seq, flags and payload (a
    /// descriptor clone).
    fn oldest(&self) -> Option<(u32, u8, Chain<IoBuf>)> {
        match self {
            RetxQueue::Empty => None,
            RetxQueue::Bare { seq, flags, .. } => Some((*seq, *flags, Chain::new())),
            RetxQueue::Boxed(q) => q.front().map(|s| (s.seq, s.flags, s.payload.clone())),
        }
    }

    fn push_back(&mut self, seg: UnackedSeg) {
        match self {
            RetxQueue::Empty if seg.payload.is_empty() => {
                let (seq, len, flags) = (seg.seq, seg.len, seg.flags);
                *self = RetxQueue::Bare { seq, len, flags };
            }
            RetxQueue::Boxed(q) => q.push_back(seg),
            _ => {
                let mut q =
                    RetxBoxes::on(SystemEbb::RetxBoxes, RetxBoxes::take).unwrap_or_default();
                if let RetxQueue::Bare { seq, len, flags } = *self {
                    let payload = Chain::new();
                    q.push_back(UnackedSeg {
                        seq,
                        len,
                        flags,
                        payload,
                    });
                }
                q.push_back(seg);
                *self = RetxQueue::Boxed(q);
            }
        }
    }

    /// Drops the segments `ack` covers entirely. A box left holding
    /// nothing, or one bare segment, goes back to the core's cache.
    fn drop_acked(&mut self, ack: u32) {
        let covered = |seq: u32, len: u32| seq::le(seq.wrapping_add(len), ack);
        let rest = match self {
            RetxQueue::Empty => return,
            RetxQueue::Bare { seq, len, .. } if covered(*seq, *len) => RetxQueue::Empty,
            RetxQueue::Bare { .. } => return,
            RetxQueue::Boxed(q) => {
                while q.front().is_some_and(|s| covered(s.seq, s.len)) {
                    q.pop_front();
                }
                match q.front() {
                    None => RetxQueue::Empty,
                    Some(s) if q.len() == 1 && s.payload.is_empty() => {
                        let (seq, len, flags) = (s.seq, s.len, s.flags);
                        q.clear();
                        RetxQueue::Bare { seq, len, flags }
                    }
                    Some(_) => return,
                }
            }
        };
        if let RetxQueue::Boxed(q) = std::mem::replace(self, rest) {
            RetxBoxes::on(SystemEbb::RetxBoxes, |c| c.give(q));
        }
    }

    /// Drops everything in flight and gives the box, if any, back.
    fn clear(&mut self) {
        if let RetxQueue::Boxed(mut q) = std::mem::take(self) {
            q.clear();
            RetxBoxes::on(SystemEbb::RetxBoxes, |c| c.give(q));
        }
    }
}

/// Result of processing an incoming acknowledgment.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct AckResult {
    /// Sequence space newly acknowledged.
    pub acked: u32,
    /// Whether usable send window opened (app may send more).
    pub window_opened: bool,
    /// Whether the retransmission queue emptied.
    pub queue_empty: bool,
}

/// Errors from [`Pcb::send`] (the application sees them through
/// [`TcpConn::send`](crate::netif::TcpConn::send)).
#[derive(Debug, PartialEq, Eq)]
pub enum SendError {
    /// The payload exceeds the usable send window; the application must
    /// buffer and retry on
    /// [`on_window_open`](crate::netif::ConnHandler::on_window_open).
    /// Carries the currently usable window.
    WindowFull(usize),
    /// The connection is not in a data-transfer state.
    NotConnected,
}

/// Default receive window advertised until the application overrides
/// it.
pub const DEFAULT_RCV_WND: u16 = u16::MAX;

/// Cold per-connection state: fields an idle (or well-behaved)
/// established connection never touches. Boxed lazily on first use so
/// the common case — in-order traffic, no loss — pays one `Option`
/// word in [`Pcb`] instead of carrying the reassembly map and loss
/// diagnostics inline. See the "Connection scale" section of
/// `docs/ARCHITECTURE.md` for the per-connection byte budget this
/// split is part of.
#[derive(Default)]
pub struct PcbCold {
    /// Out-of-order segments awaiting the gap to fill, keyed by seq.
    ooo: BTreeMap<u32, Chain<IoBuf>>,
    /// Payload bytes held in `ooo` (at most the receive window).
    ooo_bytes: usize,
    /// Total retransmitted segments (diagnostic).
    pub retransmits: u64,
}

/// The protocol control block.
pub struct Pcb {
    /// Connection identity.
    pub tuple: FourTuple,
    /// Current state. Written only in this module.
    state: TcpState,
    /// Oldest unacknowledged sequence.
    pub snd_una: u32,
    /// Next sequence to send.
    pub snd_nxt: u32,
    /// Peer's advertised window.
    pub snd_wnd: u32,
    /// Next expected receive sequence.
    pub rcv_nxt: u32,
    /// Our advertised window (application-controlled).
    pub rcv_wnd: u16,
    /// Resolved peer MAC.
    pub remote_mac: Mac,
    /// The single core this connection lives on.
    pub core: CoreId,
    /// Retransmission queue.
    unacked: RetxQueue,
    /// Lazily-allocated cold state (reassembly, loss diagnostics).
    /// `None` until the connection first sees out-of-order data or a
    /// retransmit.
    cold: Option<Box<PcbCold>>,
    /// An ACK is owed to the peer.
    pub ack_pending: bool,
    /// Data segments received since the last ACK we sent (delayed-ACK
    /// accounting: every second segment forces an immediate ACK).
    segs_since_ack: u32,
    /// The [`Timer::DelAck`] entry, while it is armed.
    delack: Option<TimerToken>,
    /// The [`Timer::Rto`] entry, while it is armed.
    rto: Option<TimerToken>,
    /// Exponential backoff multiplier for the RTO.
    rto_backoff: u32,
    /// True once the application asked to close (FIN queued or sent).
    close_requested: bool,
    /// Traffic class ([`ebbrt_core::qos::ClassId`] index), assigned by
    /// the classifier at accept/connect time. Everything the
    /// connection transmits is scheduled under this class; the
    /// application reads it back to pick per-class serve policy.
    pub class: u8,
    /// Whether this connection holds a unit of its class's admission
    /// budget (inbound connections admitted under an installed QoS
    /// policy); released at cleanup.
    pub admitted: bool,
    /// True for an inbound connection whose handshake has not yet
    /// completed — it occupies a unit of its class's syncache budget
    /// and is evictable under SYN pressure. Cleared on promotion to
    /// Established (or by the evictor before teardown).
    pub embryonic: bool,
}

/// Whether a segment that matched no connection may open one: a SYN
/// without ACK.
pub fn is_syn(hdr: &TcpHeader) -> bool {
    hdr.flags & (tcp_flags::SYN | tcp_flags::ACK) == tcp_flags::SYN
}

/// The RST answering a segment nothing here wants, back along `tuple`
/// (ours is `local`) to the MAC it came from, shaped as RFC 9293
/// §3.10.7.1 says: a segment with an ACK gets `<SEQ=SEG.ACK><CTL=RST>`,
/// one without gets `<SEQ=0><ACK=SEG.SEQ+SEG.LEN><CTL=RST,ACK>` (SEG.LEN
/// counts a SYN and a FIN). `None` for a segment that itself carries
/// RST: answering one would have two stacks trade resets forever
/// (RFC 793 §3.4).
pub fn rst_reply(tuple: FourTuple, dst_mac: Mac, seg: &Segment) -> Option<SegOut> {
    let (hdr, acked) = (&seg.hdr, seg.hdr.flags & tcp_flags::ACK != 0);
    let ctl = (hdr.flags & (tcp_flags::SYN | tcp_flags::FIN)).count_ones();
    let ack = hdr.seq.wrapping_add(seg.payload.len() as u32 + ctl);
    (hdr.flags & tcp_flags::RST == 0).then(|| SegOut {
        dst_mac,
        tuple,
        class: 0,
        seq: if acked { hdr.ack } else { 0 },
        ack: if acked { 0 } else { ack },
        flags: tcp_flags::RST | if acked { 0 } else { tcp_flags::ACK },
        window: DEFAULT_RCV_WND,
        payload: Chain::new(),
    })
}

impl Pcb {
    /// Creates a PCB in the given state with an initial send sequence.
    pub fn new(tuple: FourTuple, state: TcpState, iss: u32, core: CoreId) -> Self {
        Pcb {
            tuple,
            state,
            snd_una: iss,
            snd_nxt: iss,
            snd_wnd: 0,
            rcv_nxt: 0,
            rcv_wnd: DEFAULT_RCV_WND,
            remote_mac: [0; 6],
            core,
            unacked: RetxQueue::default(),
            cold: None,
            ack_pending: false,
            segs_since_ack: 0,
            delack: None,
            rto: None,
            rto_backoff: 1,
            close_requested: false,
            class: 0,
            admitted: false,
            embryonic: false,
        }
    }

    /// A passive open: the PCB answering `syn` (which [`is_syn`]);
    /// [`Pcb::open`] sends its SYN-ACK.
    pub fn from_syn(tuple: FourTuple, iss: u32, core: CoreId, syn: &TcpHeader) -> Self {
        let mut p = Pcb::new(tuple, TcpState::SynReceived, iss, core);
        p.rcv_nxt = syn.seq.wrapping_add(1);
        p.snd_wnd = syn.window as u32;
        p
    }

    /// Current state.
    pub fn state(&self) -> TcpState {
        self.state
    }

    /// Whether the connection has fully terminated.
    pub fn is_closed(&self) -> bool {
        self.state == TcpState::Closed
    }

    /// The connection's armed timers (RTO, delayed ACK), for whoever
    /// owns them to cancel at teardown.
    pub fn timers(&self) -> [Option<TimerToken>; 2] {
        [self.rto, self.delack]
    }

    /// Drops the retransmission queue and gives its box back to the
    /// core's cache: the connection is gone. Called at cleanup, on the
    /// connection's core.
    pub fn release_retx(&mut self) {
        self.unacked.clear();
    }

    /// Whether reassembly has stashed out-of-order segments.
    pub fn ooo_is_empty(&self) -> bool {
        self.cold.as_ref().is_none_or(|c| c.ooo.is_empty())
    }

    /// Total retransmitted segments.
    pub fn retransmits(&self) -> u64 {
        self.cold.as_ref().map_or(0, |c| c.retransmits)
    }

    fn cold_mut(&mut self) -> &mut PcbCold {
        self.cold.get_or_insert_with(Default::default)
    }

    /// How many payload bytes the application may send right now
    /// (usable window). This is the paper's application-facing check.
    pub fn send_window(&self) -> usize {
        let in_flight = self.snd_nxt.wrapping_sub(self.snd_una);
        (self.snd_wnd as u64).saturating_sub(in_flight as u64) as usize
    }

    /// Records a transmitted segment occupying `len` sequence space.
    pub fn record_sent(&mut self, seq: u32, len: u32, flags: u8, payload: Chain<IoBuf>) {
        if len > 0 {
            self.unacked.push_back(UnackedSeg {
                seq,
                len,
                flags,
                payload,
            });
        }
        let end = seq.wrapping_add(len);
        if seq::gt(end, self.snd_nxt) {
            self.snd_nxt = end;
        }
    }

    /// Processes an incoming acknowledgment + window advertisement.
    pub fn process_ack(&mut self, ack: u32, wnd: u16) -> AckResult {
        let mut result = AckResult::default();
        if seq::gt(ack, self.snd_nxt) {
            // Acks data we never sent: ignore (peer confusion).
            return result;
        }
        let old_usable = self.send_window();
        if seq::gt(ack, self.snd_una) {
            result.acked = ack.wrapping_sub(self.snd_una);
            self.snd_una = ack;
            self.rto_backoff = 1;
            self.unacked.drop_acked(ack);
        }
        self.snd_wnd = wnd as u32;
        result.queue_empty = self.unacked.is_empty();
        result.window_opened = self.send_window() > old_usable;
        result
    }

    /// Processes arriving payload at `seg_seq`: appends whatever is now
    /// deliverable to the application, in order, to `delivery` (the
    /// run's one chain — descriptor moves, no allocation) and returns
    /// how many chunks that was. Handles duplicates (trimmed), old
    /// data, and out-of-order arrival (stashed until the gap fills).
    pub fn on_data(
        &mut self,
        seg_seq: u32,
        mut payload: Chain<IoBuf>,
        delivery: &mut Chain<IoBuf>,
    ) -> usize {
        if payload.is_empty() {
            return 0;
        }
        let mut chunks = 0;
        let mut seg_seq = seg_seq;
        // Trim bytes we already received.
        if seq::lt(seg_seq, self.rcv_nxt) {
            let dup = self.rcv_nxt.wrapping_sub(seg_seq) as usize;
            if dup >= payload.len() {
                // Entirely old: just owe an ACK.
                self.ack_pending = true;
                return 0;
            }
            payload.advance(dup);
            seg_seq = self.rcv_nxt;
        }
        if seg_seq == self.rcv_nxt {
            self.rcv_nxt = self.rcv_nxt.wrapping_add(payload.len() as u32);
            delivery.append_chain(payload);
            chunks += 1;
            // Drain any out-of-order segments that now fit. The cold
            // box only exists if this connection ever went out of
            // order; the in-order fast path never touches it.
            if let Some(cold) = self.cold.as_mut() {
                while let Some((&s, _)) = cold.ooo.iter().next() {
                    if seq::gt(s, self.rcv_nxt) {
                        break;
                    }
                    let mut chain = cold.ooo.remove(&s).expect("peeked key");
                    cold.ooo_bytes -= chain.len();
                    if seq::lt(s, self.rcv_nxt) {
                        let dup = self.rcv_nxt.wrapping_sub(s) as usize;
                        if dup >= chain.len() {
                            continue;
                        }
                        chain.advance(dup);
                    }
                    self.rcv_nxt = self.rcv_nxt.wrapping_add(chain.len() as u32);
                    delivery.append_chain(chain);
                    chunks += 1;
                }
            }
        } else {
            // Future data: stashed only if it ends inside the advertised
            // window and the stash stays within it, so no peer can grow
            // it past the window; otherwise dropped, and the ACK owed
            // below re-states the window (RFC 9293 §3.10.7.4). The first
            // stashed segment allocates the cold box.
            let (len, wnd) = (payload.len(), self.rcv_wnd as usize);
            let end = seg_seq.wrapping_add(len as u32).wrapping_sub(self.rcv_nxt) as usize;
            let held = self.cold.as_ref().map_or(0, |c| c.ooo_bytes);
            if end <= wnd && held + len <= wnd {
                let cold = self.cold_mut();
                if let Entry::Vacant(v) = cold.ooo.entry(seg_seq) {
                    cold.ooo_bytes += len;
                    v.insert(payload);
                }
            }
        }
        self.ack_pending = true;
        chunks
    }

    // --- The state machine: input ----------------------------------------

    /// Processes one connection's run of segments, in arrival order,
    /// draining `segs`. Emits nothing: the caller delivers the
    /// [`Outcome`] to the application — whose reply, sent from the
    /// callback, piggybacks the ACK — and then calls
    /// [`Pcb::flush_ack`] for whatever is still owed. An RST ends the
    /// run; what was reassembled before it is still in the outcome.
    //
    // `#[inline]` here and on `send` / `transmit` / `output`: each has
    // one hot caller in the stack and compiles into it, as the code it
    // replaced did.
    #[inline]
    pub fn input(&mut self, io: &mut impl TcpIo, segs: &mut Vec<Segment>) -> Outcome {
        let mut out = Outcome::default();
        for seg in segs.drain(..) {
            let hdr = seg.hdr;
            if hdr.flags & tcp_flags::RST != 0 {
                self.state = TcpState::Closed;
                out.reset = true;
                break;
            }
            match self.state {
                TcpState::SynSent => {
                    const SYN_ACK: u8 = tcp_flags::SYN | tcp_flags::ACK;
                    if hdr.flags & SYN_ACK != SYN_ACK
                        || (hdr.ack != self.snd_nxt.wrapping_add(1) && hdr.ack != self.snd_nxt)
                    {
                        continue;
                    }
                    self.rcv_nxt = hdr.seq.wrapping_add(1);
                    self.process_ack(hdr.ack, hdr.window);
                    self.state = TcpState::Established;
                    out.established = true;
                    // The handshake completes with an immediate ACK,
                    // never a delayed one: the SYN-ACK counts as the
                    // second segment.
                    self.ack_pending = true;
                    self.segs_since_ack = 2;
                }
                TcpState::SynReceived => {
                    if hdr.flags & tcp_flags::ACK != 0 {
                        // SND.UNA < SEG.ACK <= SND.NXT, or the ACK is
                        // refused with an RST and the embryo stays
                        // (RFC 9293 §3.10.7.4).
                        if !(seq::lt(self.snd_una, hdr.ack) && seq::le(hdr.ack, self.snd_nxt)) {
                            io.emit(
                                rst_reply(self.tuple, self.remote_mac, &seg)
                                    .expect("an RST ended the run above"),
                            );
                            continue;
                        }
                        self.process_ack(hdr.ack, hdr.window);
                        self.state = TcpState::Established;
                        out.established = true;
                        if self.embryonic {
                            self.embryonic = false;
                            out.promoted = true;
                        }
                        // Piggybacked data falls through.
                        self.data_seg(io, &hdr, seg.payload, &mut out);
                    }
                }
                TcpState::Closed => {}
                _ => self.data_seg(io, &hdr, seg.payload, &mut out),
            }
        }
        out
    }

    /// Data-phase work for one segment (Established and the closing
    /// states): ACK processing, reassembly into the run's delivery,
    /// FIN in either direction.
    fn data_seg(
        &mut self,
        io: &mut impl TcpIo,
        hdr: &TcpHeader,
        payload: Chain<IoBuf>,
        out: &mut Outcome,
    ) {
        let mut fin_acked = false;
        if hdr.flags & tcp_flags::ACK != 0 {
            let r = self.process_ack(hdr.ack, hdr.window);
            // Window-open matters in every state where the app may
            // still send ([`Pcb::send`] accepts Established and
            // CloseWait): a peer that half-closes while a large reply
            // is parked must still receive the tail.
            out.window_opened |= r.window_opened
                && matches!(self.state, TcpState::Established | TcpState::CloseWait);
            if r.queue_empty {
                // Nothing in flight: no RTO.
                if let Some(tok) = self.rto.take() {
                    io.cancel(tok);
                }
                fin_acked = self.close_requested && self.snd_una == self.snd_nxt;
            } else if r.acked > 0 {
                // Progress with data still outstanding: restart the RTO
                // for the (new) oldest unacked segment — the per-ACK
                // re-arm, an O(1) wheel relink.
                if let Some(tok) = self.rto {
                    io.restart(tok, self.rto_delay());
                }
            }
        }
        let seg_len = payload.len() as u32;
        out.chunks += self.on_data(hdr.seq, payload, &mut out.delivery);
        if seg_len > 0 {
            self.segs_since_ack += 1;
        }
        // The peer's FIN consumes one sequence number, only when it is
        // the next expected byte.
        if hdr.flags & tcp_flags::FIN != 0 && hdr.seq.wrapping_add(seg_len) == self.rcv_nxt {
            self.rcv_nxt = self.rcv_nxt.wrapping_add(1);
            self.ack_pending = true;
            out.peer_closed = true;
            self.state = match self.state {
                TcpState::Established => TcpState::CloseWait,
                // Simultaneous close unless our FIN is already acked.
                TcpState::FinWait1 if self.snd_una == self.snd_nxt => TcpState::Closed,
                TcpState::FinWait1 => TcpState::LastAck,
                TcpState::FinWait2 => TcpState::Closed,
                s => s,
            };
        }
        // Our FIN acknowledged.
        if fin_acked {
            self.state = match self.state {
                TcpState::FinWait1 => TcpState::FinWait2,
                TcpState::LastAck => TcpState::Closed,
                s => s,
            };
        }
    }

    // --- The state machine: application calls ----------------------------

    /// Sends the opening segment of the state the PCB was created in —
    /// SYN for an active open, SYN-ACK for a passive one — and starts
    /// its retransmission clock.
    pub fn open(&mut self, io: &mut impl TcpIo) {
        let flags = match self.state {
            TcpState::SynSent => tcp_flags::SYN,
            TcpState::SynReceived => tcp_flags::SYN | tcp_flags::ACK,
            _ => return,
        };
        self.transmit(io, flags, Chain::new(), 1);
        self.arm_rto(io);
    }

    /// Sends `data`, cut to `mss`. Refuses — does not buffer — what
    /// the peer's window will not take.
    #[inline]
    pub fn send(
        &mut self,
        io: &mut impl TcpIo,
        data: Chain<IoBuf>,
        mss: usize,
    ) -> Result<(), SendError> {
        match self.state {
            TcpState::Established | TcpState::CloseWait => {}
            _ => return Err(SendError::NotConnected),
        }
        if data.len() > self.send_window() {
            return Err(SendError::WindowFull(self.send_window()));
        }
        // Each segment is recorded for retransmission (descriptor
        // clones — no byte copies).
        let mut remaining = data;
        while !remaining.is_empty() {
            let take = remaining.len().min(mss);
            let seg = remaining.split_to(take);
            let len = seg.len() as u32;
            self.transmit(io, tcp_flags::ACK | tcp_flags::PSH, seg, len);
        }
        self.arm_rto(io);
        Ok(())
    }

    /// Closes our half: FIN from the states that can still send; an
    /// unanswered active open just ends. Idempotent.
    pub fn close(&mut self, io: &mut impl TcpIo) -> Outcome {
        if self.close_requested {
            return Outcome::default();
        }
        let next = match self.state {
            TcpState::Established | TcpState::SynReceived => TcpState::FinWait1,
            TcpState::CloseWait => TcpState::LastAck,
            TcpState::SynSent => {
                self.state = TcpState::Closed;
                return Outcome::default();
            }
            _ => return Outcome::default(),
        };
        self.close_requested = true;
        self.transmit(io, tcp_flags::FIN | tcp_flags::ACK, Chain::new(), 1);
        self.state = next;
        self.arm_rto(io);
        Outcome::default()
    }

    /// Hard teardown: one RST out, straight to Closed — no FIN
    /// handshake, no waiting for in-flight data.
    pub fn abort(&mut self, io: &mut impl TcpIo) -> Outcome {
        if self.state != TcpState::Closed {
            self.output(
                io,
                tcp_flags::RST | tcp_flags::ACK,
                self.snd_nxt,
                Chain::new(),
            );
            self.state = TcpState::Closed;
        }
        Outcome::default()
    }

    /// An active open that cannot complete (its next hop never
    /// resolved, or its SYN went unanswered) ends as if reset. Anything
    /// past SynSent got there by other means and carries on.
    pub fn connect_failed(&mut self) -> Outcome {
        let reset = self.state == TcpState::SynSent;
        if reset {
            self.state = TcpState::Closed;
        }
        Outcome {
            reset,
            ..Outcome::default()
        }
    }

    // --- The state machine: ACK policy and timers -------------------------

    /// The ACK decision, once per run after the application has had
    /// its chance to piggyback: nothing if no ACK is owed (or the
    /// connection is gone); now if two segments — or the handshake —
    /// await one; otherwise within [`DELACK_NS`], by the timer.
    pub fn flush_ack(&mut self, io: &mut impl TcpIo) {
        if !self.ack_pending || self.state == TcpState::Closed {
            return;
        }
        if self.segs_since_ack >= 2 {
            self.output(io, tcp_flags::ACK, self.snd_nxt, Chain::new());
        } else if self.delack.is_none() {
            self.delack = Some(io.arm(Timer::DelAck, DELACK_NS));
        }
    }

    /// One of the connection's timers fired. Its entry is gone, so its
    /// token is dropped before anything can re-arm it.
    pub fn on_timer(&mut self, io: &mut impl TcpIo, timer: Timer) -> Outcome {
        match timer {
            Timer::DelAck => {
                self.delack = None;
                if self.ack_pending && self.state != TcpState::Closed {
                    self.output(io, tcp_flags::ACK, self.snd_nxt, Chain::new());
                }
                Outcome::default()
            }
            Timer::Rto => {
                self.rto = None;
                self.on_rto(io)
            }
        }
    }

    /// Go-back-N: retransmits the oldest unacknowledged segment and
    /// doubles the timeout. Handshake retries are bounded — once the
    /// backoff ladder is exhausted an unanswered SYN or SYN-ACK gives
    /// up, so a budgeted syncache never nurses half-open connections
    /// forever. Established connections are exempt: they retransmit
    /// indefinitely and ride out partitions (the chaos suite depends on
    /// it).
    fn on_rto(&mut self, io: &mut impl TcpIo) -> Outcome {
        let Some((seq, flags, payload)) = self.unacked.oldest() else {
            return Outcome::default();
        };
        if self.rto_backoff >= HANDSHAKE_GIVE_UP {
            match self.state {
                TcpState::SynSent => return self.connect_failed(),
                TcpState::SynReceived => return self.abort(io),
                _ => {}
            }
        }
        // First loss allocates the cold box — a retransmitting
        // connection is not idle.
        self.cold_mut().retransmits += 1;
        self.output(io, flags, seq, payload);
        self.rto_backoff = (self.rto_backoff * 2).min(64);
        self.arm_rto(io);
        Outcome {
            retransmitted: true,
            ..Outcome::default()
        }
    }

    fn rto_delay(&self) -> Ns {
        RTO_NS * self.rto_backoff as u64
    }

    /// Starts the RTO if something is in flight and it is not already
    /// running.
    fn arm_rto(&mut self, io: &mut impl TcpIo) {
        if self.rto.is_none() && !self.unacked.is_empty() {
            self.rto = Some(io.arm(Timer::Rto, self.rto_delay()));
        }
    }

    // --- Egress -----------------------------------------------------------

    /// Emits a segment at `snd_nxt` occupying `seq_len` of sequence
    /// space (payload, +1 for SYN or FIN) and queues it for
    /// retransmission.
    #[inline]
    fn transmit(&mut self, io: &mut impl TcpIo, flags: u8, payload: Chain<IoBuf>, seq_len: u32) {
        let seq = self.snd_nxt;
        self.output(io, flags, seq, payload.clone());
        self.record_sent(seq, seq_len, flags, payload);
    }

    /// Emits one segment carrying the current ACK point and window.
    /// Every segment acknowledges, so whatever ACK was owed rides on it
    /// and a pending delayed ACK is cancelled instead of firing into a
    /// no-op.
    #[inline]
    fn output(&mut self, io: &mut impl TcpIo, flags: u8, seq: u32, payload: Chain<IoBuf>) {
        self.ack_pending = false;
        self.segs_since_ack = 0;
        if let Some(tok) = self.delack.take() {
            io.cancel(tok);
        }
        io.emit(SegOut {
            dst_mac: self.remote_mac,
            tuple: self.tuple,
            class: self.class,
            seq,
            ack: self.rcv_nxt,
            flags,
            window: self.rcv_wnd,
            payload,
        });
    }
}

#[cfg(test)]
mod tests;
