//! Interface statistics: the stack's counters, each a named counter on
//! the machine's registry (per-core cells, summed at quiescence).

use std::sync::Arc;

use ebbrt_core::qos::Counter;
use ebbrt_core::runtime::Runtime;

/// Number of frames-per-burst histogram buckets:
/// 1, 2–3, 4–7, 8–15, 16–31, 32–63, 64+.
pub const BURST_BUCKETS: usize = 7;

/// Lower bound (inclusive) of each frames-per-burst bucket, for
/// printing.
pub const BURST_BUCKET_LO: [usize; BURST_BUCKETS] = [1, 2, 4, 8, 16, 32, 64];

/// Interface statistics. Every field is a [`Counter`] named `net.<field>`
/// (the histogram `net.frames_per_burst.<lo>`), so any
/// [`ebbrt_core::qos::snapshot`] of the machine shows them too.
pub struct NetStats {
    /// Frames received (counted once per receive burst).
    pub rx_frames: Counter,
    /// Frames transmitted.
    pub tx_frames: Counter,
    /// TCP segments received.
    pub rx_tcp: Counter,
    /// Connections fully established.
    pub conns_established: Counter,
    /// Segments retransmitted.
    pub retransmits: Counter,
    /// Received frames dropped: a malformed Ethernet, ARP, IPv4, UDP or
    /// TCP header, a truncated packet, a failed TCP checksum, an
    /// unknown IP protocol, an unbound UDP port, or a stray RST (one
    /// that nothing here wants is answered with silence).
    pub rx_drops: Counter,
    /// ARP resolutions that exhausted their retries (each one failed
    /// its queued waiters and tore down any connection still in
    /// `SynSent` behind it).
    pub arp_failures: Counter,
    /// Receive bursts handed up by the driver.
    pub rx_bursts: Counter,
    /// Burst-size histogram, power-of-two buckets ([`BURST_BUCKET_LO`]).
    pub frames_per_burst: [Counter; BURST_BUCKETS],
    /// Coalesced `on_receive` deliveries.
    pub coalesced_callbacks: Counter,
}

impl NetStats {
    pub(crate) fn new(rt: &Arc<Runtime>) -> NetStats {
        let c = |name: &str| Counter::new(rt, &format!("net.{name}"));
        NetStats {
            rx_frames: c("rx_frames"),
            tx_frames: c("tx_frames"),
            rx_tcp: c("rx_tcp"),
            conns_established: c("conns_established"),
            retransmits: c("retransmits"),
            rx_drops: c("rx_drops"),
            arp_failures: c("arp_failures"),
            rx_bursts: c("rx_bursts"),
            frames_per_burst: std::array::from_fn(|i| {
                c(&format!("frames_per_burst.{}", BURST_BUCKET_LO[i]))
            }),
            coalesced_callbacks: c("coalesced_callbacks"),
        }
    }

    /// Records one receive burst of `n` frames (on the calling core —
    /// `rx_burst` runs on the RSS core).
    pub(crate) fn note_burst(&self, n: usize) {
        self.rx_bursts.bump();
        if n == 0 {
            return;
        }
        self.rx_frames.add(n as u64);
        let bucket = (usize::BITS - 1 - n.leading_zeros()).min(BURST_BUCKETS as u32 - 1) as usize;
        self.frames_per_burst[bucket].bump();
    }
}
