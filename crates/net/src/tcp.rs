//! TCP protocol state (§3.6).
//!
//! This module holds the per-connection protocol control block
//! ([`Pcb`]) and the pure state-machine logic: sequence arithmetic,
//! acknowledgment processing, in-order reassembly, and window
//! accounting. The I/O glue (header construction, ARP, timers, demux)
//! lives in [`crate::netif`].
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

use std::collections::{BTreeMap, VecDeque};

use ebbrt_core::cpu::CoreId;
use ebbrt_core::event::TimerToken;
use ebbrt_core::iobuf::{Chain, IoBuf};

use crate::types::{Ipv4Addr, Mac};

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

/// A transmitted-but-unacknowledged segment (retransmission queue
/// entry). The payload chain shares storage with what was handed to the
/// NIC — retransmission clones descriptors, never bytes.
pub struct UnackedSeg {
    /// First sequence number of the segment.
    pub seq: u32,
    /// Sequence span (payload bytes, +1 for SYN and/or FIN).
    pub len: u32,
    /// TCP flags the segment carried.
    pub flags: u8,
    /// Payload (empty for bare SYN/FIN).
    pub payload: Chain<IoBuf>,
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
    /// Whether the ack was a pure duplicate.
    pub duplicate: bool,
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
    pub ooo: BTreeMap<u32, Chain<IoBuf>>,
    /// Total retransmitted segments (diagnostic).
    pub retransmits: u64,
}

/// The protocol control block.
pub struct Pcb {
    /// Connection identity.
    pub tuple: FourTuple,
    /// Current state.
    pub state: TcpState,
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
    pub unacked: VecDeque<UnackedSeg>,
    /// Lazily-allocated cold state (reassembly, loss diagnostics).
    /// `None` until the connection first sees out-of-order data or a
    /// retransmit.
    cold: Option<Box<PcbCold>>,
    /// An ACK is owed to the peer.
    pub ack_pending: bool,
    /// Data segments received since the last ACK we sent (delayed-ACK
    /// accounting: every second segment forces an immediate ACK).
    pub segs_since_ack: u32,
    /// The connection's *persistent* delayed-ACK timer: allocated once
    /// on first use, then re-armed/disarmed in O(1) per segment. The
    /// timer outlives individual firings; `delack_armed` tracks whether
    /// it is currently scheduled.
    pub delack_timer: Option<TimerToken>,
    /// Whether the delayed-ACK timer is armed.
    pub delack_armed: bool,
    /// The connection's persistent RTO timer (same lifecycle as
    /// `delack_timer`): the per-ACK disarm/re-arm dance costs an O(1)
    /// wheel relink, not a fresh boxed closure per segment.
    pub rto_timer: Option<TimerToken>,
    /// Whether the RTO timer is armed (netif bookkeeping).
    pub rto_armed: bool,
    /// Exponential backoff multiplier for the RTO.
    pub rto_backoff: u32,
    /// True once the application asked to close (FIN queued or sent).
    pub close_requested: bool,
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
            unacked: VecDeque::new(),
            cold: None,
            ack_pending: false,
            segs_since_ack: 0,
            delack_timer: None,
            delack_armed: false,
            rto_timer: None,
            rto_armed: false,
            rto_backoff: 1,
            close_requested: false,
            class: 0,
            admitted: false,
            embryonic: false,
        }
    }

    /// Whether the cold box has been allocated (diagnostic; idle
    /// well-behaved connections keep this `false` for life).
    pub fn has_cold(&self) -> bool {
        self.cold.is_some()
    }

    /// Whether reassembly has stashed out-of-order segments.
    pub fn ooo_is_empty(&self) -> bool {
        self.cold.as_ref().is_none_or(|c| c.ooo.is_empty())
    }

    /// Total retransmitted segments.
    pub fn retransmits(&self) -> u64 {
        self.cold.as_ref().map_or(0, |c| c.retransmits)
    }

    /// Bumps the retransmit diagnostic (allocates the cold box on
    /// first loss — a retransmitting connection is not idle).
    pub fn note_retransmit(&mut self) {
        self.cold_mut().retransmits += 1;
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
            // Drop fully acknowledged segments.
            while let Some(seg) = self.unacked.front() {
                let end = seg.seq.wrapping_add(seg.len);
                if seq::le(end, ack) {
                    self.unacked.pop_front();
                } else {
                    break;
                }
            }
        } else {
            result.duplicate = true;
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
            // Future data: stash (bounded by the advertised window, so a
            // well-behaved peer cannot flood this). First out-of-order
            // segment allocates the cold box.
            self.cold_mut().ooo.entry(seg_seq).or_insert(payload);
        }
        self.ack_pending = true;
        chunks
    }

    /// Whether the connection has fully terminated.
    pub fn is_closed(&self) -> bool {
        self.state == TcpState::Closed
    }
}

#[cfg(test)]
mod tests {
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
    fn duplicate_ack_flagged() {
        let mut p = pcb();
        p.record_sent(1000, 100, 0, chain(&[0; 100]));
        p.process_ack(1100, 8000);
        let r = p.process_ack(1100, 8000);
        assert!(r.duplicate);
        assert_eq!(r.acked, 0);
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
    fn syn_fin_occupy_sequence_space() {
        let mut p = pcb();
        p.record_sent(1000, 1, crate::wire::tcp_flags::SYN, Chain::new());
        assert_eq!(p.snd_nxt, 1001);
        let r = p.process_ack(1001, 1000);
        assert!(r.queue_empty);
    }
}
