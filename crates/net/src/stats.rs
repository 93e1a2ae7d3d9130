//! Interface statistics: plain cells for the per-frame counts, handles
//! into the machine's counter registry for burst shape and the slab.

use std::cell::Cell;

use ebbrt_core::qos::{self, CounterHandle};
use ebbrt_core::runtime::Runtime;

#[cfg(doc)]
use crate::NetIf;

/// Number of frames-per-burst histogram buckets:
/// 1, 2–3, 4–7, 8–15, 16–31, 32–63, 64+.
pub const BURST_BUCKETS: usize = 7;

/// Lower bound (inclusive) of each frames-per-burst bucket, for
/// printing.
pub const BURST_BUCKET_LO: [usize; BURST_BUCKETS] = [1, 2, 4, 8, 16, 32, 64];

/// Interface statistics (single-threaded cells). The burst-shape
/// counters live on the machine's [`qos::CounterRegistryEbb`]
/// (per-core cells, summed at quiescence), so the stack and the
/// applications count through one mechanism; read them back through
/// [`NetIf::rx_bursts`], [`NetIf::frames_per_burst`] and
/// [`NetIf::coalesced_callbacks`] or any [`qos::snapshot`].
pub struct NetStats {
    /// Frames received / transmitted.
    pub rx_frames: Cell<u64>,
    /// Frames transmitted.
    pub tx_frames: Cell<u64>,
    /// TCP segments received.
    pub rx_tcp: Cell<u64>,
    /// TCP segments transmitted.
    pub tx_tcp: Cell<u64>,
    /// Connections fully established.
    pub conns_established: Cell<u64>,
    /// Connections closed.
    pub conns_closed: Cell<u64>,
    /// Segments retransmitted.
    pub retransmits: Cell<u64>,
    /// Segments dropped for checksum or demux failure.
    pub rx_drops: Cell<u64>,
    /// ARP resolutions that exhausted their retries (each one failed
    /// its queued waiters and tore down any connection still in
    /// `SynSent` behind it).
    pub arp_failures: Cell<u64>,
    /// Receive bursts handed up by the driver ("net.rx_bursts").
    pub(crate) rx_bursts_h: CounterHandle,
    /// Burst-size histogram, power-of-two buckets
    /// (`net.frames_per_burst.{lo}`, [`BURST_BUCKET_LO`]).
    pub(crate) frames_per_burst_h: [CounterHandle; BURST_BUCKETS],
    /// Coalesced `on_receive` deliveries ("net.coalesced_callbacks").
    pub(crate) coalesced_h: CounterHandle,
    /// Live PCB slab entries ("net.pcb_slab_live", a gauge:
    /// incremented on insert, decremented on cleanup).
    pub(crate) pcb_slab_live_h: CounterHandle,
    /// PCB slab high-water mark ("net.pcb_slab_high_water", monotone;
    /// carried as cross-core deltas so the quiescent sum reads the
    /// peak).
    pub(crate) pcb_slab_high_water_h: CounterHandle,
    /// Accounted idle-connection footprint in bytes
    /// ("net.bytes_per_idle_conn", set once at attach from
    /// [`NetIf::bytes_per_idle_conn`]).
    pub(crate) bytes_per_idle_conn_h: CounterHandle,
}

impl NetStats {
    pub(crate) fn new(rt: &Runtime) -> NetStats {
        NetStats {
            rx_frames: Cell::new(0),
            tx_frames: Cell::new(0),
            rx_tcp: Cell::new(0),
            tx_tcp: Cell::new(0),
            conns_established: Cell::new(0),
            conns_closed: Cell::new(0),
            retransmits: Cell::new(0),
            rx_drops: Cell::new(0),
            arp_failures: Cell::new(0),
            rx_bursts_h: qos::register_in(rt, "net.rx_bursts"),
            frames_per_burst_h: std::array::from_fn(|i| {
                qos::register_in(rt, &format!("net.frames_per_burst.{}", BURST_BUCKET_LO[i]))
            }),
            coalesced_h: qos::register_in(rt, "net.coalesced_callbacks"),
            pcb_slab_live_h: qos::register_in(rt, "net.pcb_slab_live"),
            pcb_slab_high_water_h: qos::register_in(rt, "net.pcb_slab_high_water"),
            bytes_per_idle_conn_h: qos::register_in(rt, "net.bytes_per_idle_conn"),
        }
    }

    /// Records one receive burst of `n` frames (on the calling core's
    /// registry rep — `rx_burst` runs on the RSS core).
    pub(crate) fn note_burst(&self, n: usize) {
        qos::bump(self.rx_bursts_h);
        if n == 0 {
            return;
        }
        let bucket = (usize::BITS - 1 - n.leading_zeros()).min(BURST_BUCKETS as u32 - 1) as usize;
        qos::bump(self.frames_per_burst_h[bucket]);
    }
}
