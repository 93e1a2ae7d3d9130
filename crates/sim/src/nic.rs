//! A virtio-net-style simulated NIC.
//!
//! The guest side (the `ebbrt-net` driver, or the modelled Linux stack)
//! sees receive queues it can pop frames from, per-queue interrupts it
//! can enable or disable (adaptive polling), and a transmit function.
//! The network side (the [`crate::link::Switch`]) delivers frames into
//! receive queues with RSS flow steering: the queue is chosen by
//! hashing the IPv4/port 5-tuple, so a TCP connection consistently
//! lands on one queue/core — the paper's "multiqueue receive flow
//! steering" configuration.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

use ebbrt_core::event::InterruptLine;
use ebbrt_core::iobuf::{Buf, Chain, IoBuf};

/// A MAC address.
pub type Mac = [u8; 6];

/// The RSS hash over an IPv4 5-tuple as computed by the NIC for
/// arriving frames. Exposed so guests can pick ephemeral ports that
/// steer reply traffic to a chosen core (queue = hash % nqueues).
pub fn rss_hash(src_ip: u32, dst_ip: u32, src_port: u16, dst_port: u16) -> u32 {
    let ports = ((src_port as u32) << 16) | dst_port as u32;
    let mut h = src_ip
        .wrapping_mul(0x9e37_79b9)
        .wrapping_add(dst_ip.wrapping_mul(0x85eb_ca6b))
        .wrapping_add(ports.wrapping_mul(0xc2b2_ae35));
    // murmur3 finalizer: queue selection uses `hash % nqueues`, so the
    // low bits must depend on every input bit (like a Toeplitz hash).
    h ^= h >> 16;
    h = h.wrapping_mul(0x85eb_ca6b);
    h ^= h >> 13;
    h = h.wrapping_mul(0xc2b2_ae35);
    h ^= h >> 16;
    h
}

/// An Ethernet frame in flight: a zero-copy segment chain.
pub struct Frame {
    /// Frame contents, starting at the Ethernet header.
    pub data: Chain<IoBuf>,
}

impl Frame {
    /// Wraps a chain (must contain at least a 14-byte Ethernet header).
    pub fn new(data: Chain<IoBuf>) -> Self {
        Frame { data }
    }

    /// Total frame length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the frame is empty (malformed).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The first `min(len, HEAD_MAX)` bytes of the frame — everything
    /// the switch and the NIC look at. Read in place when the first
    /// segment holds them all (it does for every frame the stack
    /// builds: the three headers are one prepend); gathered into
    /// `scratch` otherwise.
    fn head<'a>(&'a self, scratch: &'a mut [u8; HEAD_MAX]) -> &'a [u8] {
        let want = self.data.len().min(HEAD_MAX);
        match self.data.iter().next() {
            Some(first) if first.len() >= want => &first.bytes()[..want],
            _ => {
                let gathered = &mut scratch[..want];
                self.data
                    .cursor()
                    .read_exact(gathered)
                    .expect("want <= frame length");
                gathered
            }
        }
    }

    /// Destination MAC (first 6 bytes).
    pub fn dst_mac(&self) -> Option<Mac> {
        let mut scratch = [0u8; HEAD_MAX];
        Some(*self.head(&mut scratch).first_chunk()?)
    }

    /// Source MAC (bytes 6..12).
    pub fn src_mac(&self) -> Option<Mac> {
        let mut scratch = [0u8; HEAD_MAX];
        Some(*self.head(&mut scratch).get(6..)?.first_chunk()?)
    }

    /// RSS hash over the IPv4 5-tuple (falls back to 0 for non-IPv4 or
    /// truncated frames, which then land on queue 0).
    pub fn flow_hash(&self) -> u32 {
        let mut scratch = [0u8; HEAD_MAX];
        let head = self.head(&mut scratch);
        let be32 = |at: usize| {
            head.get(at..)
                .and_then(|b| b.first_chunk())
                .map_or(0, |b| u32::from_be_bytes(*b))
        };
        // Ethertype at 12; then the IPv4 header: IHL (byte 0), protocol
        // (byte 9), addresses (bytes 12..20), ports right after it.
        const IP: usize = 14;
        if head.len() < IP + 12 || head[12..14] != 0x0800u16.to_be_bytes() {
            return 0;
        }
        let ihl = ((head[IP] & 0x0f) as usize) * 4;
        let proto = head[IP + 9];
        let ports = if (proto == 6 || proto == 17) && ihl >= 20 {
            be32(IP + ihl)
        } else {
            0
        };
        rss_hash(
            be32(IP + 12),
            be32(IP + 16),
            (ports >> 16) as u16,
            ports as u16,
        )
    }
}

/// Longest prefix [`Frame::head`] serves: Ethernet header, the longest
/// IPv4 header, and the L4 ports.
const HEAD_MAX: usize = 14 + 60 + 4;

struct RxQueue {
    frames: RefCell<VecDeque<Frame>>,
    irq: RefCell<Option<InterruptLine>>,
    irq_enabled: Cell<bool>,
    /// Frames ever delivered into this queue (RSS skew diagnostic).
    delivered_frames: Cell<u64>,
    /// Bytes ever delivered into this queue.
    delivered_bytes: Cell<u64>,
    /// High-water mark of queued frames (backlog skew diagnostic).
    depth_hwm: Cell<usize>,
}

/// Installed by the switch; carries a transmitted frame onto the wire.
type TxHandler = Box<dyn Fn(Frame)>;

/// Default device MTU (standard Ethernet).
pub const DEFAULT_MTU: usize = 1500;

/// The simulated NIC device.
pub struct SimNic {
    mac: Mac,
    queues: Vec<RxQueue>,
    /// Device MTU: the largest IP packet the device carries. Jumbo
    /// configurations (9000) raise the guest stack's MSS accordingly.
    mtu: Cell<usize>,
    /// Set once a guest network stack derives state (MSS, pool size
    /// classes) from this device's MTU; freezes [`Self::set_mtu`].
    stack_attached: Cell<bool>,
    /// Installed by the switch at attach time; carries frames onto the
    /// wire.
    tx_handler: RefCell<Option<TxHandler>>,
    rx_frames: Cell<u64>,
    rx_bytes: Cell<u64>,
}

impl SimNic {
    /// Creates a NIC with `nqueues` receive queues and the
    /// [`DEFAULT_MTU`].
    pub fn new(mac: Mac, nqueues: usize) -> Rc<Self> {
        assert!(nqueues > 0);
        Rc::new(SimNic {
            mac,
            queues: (0..nqueues)
                .map(|_| RxQueue {
                    frames: RefCell::new(VecDeque::new()),
                    irq: RefCell::new(None),
                    irq_enabled: Cell::new(true),
                    delivered_frames: Cell::new(0),
                    delivered_bytes: Cell::new(0),
                    depth_hwm: Cell::new(0),
                })
                .collect(),
            mtu: Cell::new(DEFAULT_MTU),
            stack_attached: Cell::new(false),
            tx_handler: RefCell::new(None),
            rx_frames: Cell::new(0),
            rx_bytes: Cell::new(0),
        })
    }

    /// The NIC's MAC address.
    pub fn mac(&self) -> Mac {
        self.mac
    }

    /// Number of receive queues.
    pub fn nqueues(&self) -> usize {
        self.queues.len()
    }

    /// The device MTU.
    pub fn mtu(&self) -> usize {
        self.mtu.get()
    }

    /// Reconfigures the device MTU (jumbo frames). Must happen before
    /// the guest stack attaches — the stack derives its MSS from this
    /// at attach time, as a real driver negotiates it at probe.
    ///
    /// # Panics
    ///
    /// Panics if a guest stack has already attached: its MSS and
    /// buffer-pool size classes are derived from the MTU at attach
    /// time, so a later change would silently not take effect — the
    /// classic foot-gun this refuses to load.
    pub fn set_mtu(&self, mtu: usize) {
        assert!(mtu >= 576, "MTU below the IPv4 minimum");
        assert!(
            !self.stack_attached.get(),
            "set_mtu after NetIf::attach has no effect: the stack derived its MSS \
             from the old MTU ({}); set the MTU before attaching",
            self.mtu.get()
        );
        self.mtu.set(mtu);
    }

    /// Marks the device as owned by an attached guest stack (called by
    /// `NetIf::attach`), freezing the MTU.
    pub fn mark_stack_attached(&self) {
        self.stack_attached.set(true);
    }

    // --- Guest (driver) side --------------------------------------------

    /// Transmits a frame onto the wire.
    ///
    /// # Panics
    ///
    /// Panics if the NIC is not attached to a switch.
    pub fn transmit(&self, frame: Frame) {
        let h = self.tx_handler.borrow();
        let h = h.as_ref().expect("NIC not attached to a switch");
        h(frame);
    }

    /// Pops the next received frame from `queue`.
    pub fn rx_pop(&self, queue: usize) -> Option<Frame> {
        self.queues[queue].frames.borrow_mut().pop_front()
    }

    /// Frames waiting in `queue`.
    pub fn rx_len(&self, queue: usize) -> usize {
        self.queues[queue].frames.borrow().len()
    }

    /// Binds `queue`'s interrupt line (raised on frame arrival while
    /// interrupts are enabled).
    pub fn set_irq(&self, queue: usize, line: InterruptLine) {
        *self.queues[queue].irq.borrow_mut() = Some(line);
    }

    /// Enables or disables `queue`'s interrupt — the driver's polling
    /// switch. Re-enabling does *not* retroactively fire for queued
    /// frames; the driver must drain after re-enabling (as with real
    /// hardware).
    pub fn set_irq_enabled(&self, queue: usize, enabled: bool) {
        self.queues[queue].irq_enabled.set(enabled);
    }

    /// Whether `queue`'s interrupt is enabled.
    pub fn irq_enabled(&self, queue: usize) -> bool {
        self.queues[queue].irq_enabled.get()
    }

    /// (frames, bytes) received.
    pub fn rx_stats(&self) -> (u64, u64) {
        (self.rx_frames.get(), self.rx_bytes.get())
    }

    /// (frames, bytes) ever delivered into `queue` — the per-queue
    /// load split RSS produced, used by multi-queue benchmarks to
    /// verify (and quantify) deliberate skew.
    pub fn rx_queue_stats(&self, queue: usize) -> (u64, u64) {
        let q = &self.queues[queue];
        (q.delivered_frames.get(), q.delivered_bytes.get())
    }

    /// High-water mark of frames simultaneously backed up in `queue`.
    pub fn rx_queue_depth_hwm(&self, queue: usize) -> usize {
        self.queues[queue].depth_hwm.get()
    }

    // --- Network (switch) side -------------------------------------------

    /// Installs the transmit handler (switch attach).
    pub(crate) fn install_tx_handler(&self, h: Box<dyn Fn(Frame)>) {
        *self.tx_handler.borrow_mut() = Some(h);
    }

    /// Delivers an arriving frame into the RSS-selected queue, raising
    /// its interrupt if enabled.
    pub fn deliver(&self, frame: Frame) {
        self.rx_frames.set(self.rx_frames.get() + 1);
        self.rx_bytes.set(self.rx_bytes.get() + frame.len() as u64);
        let queue = (frame.flow_hash() as usize) % self.queues.len();
        let q = &self.queues[queue];
        q.delivered_frames.set(q.delivered_frames.get() + 1);
        q.delivered_bytes
            .set(q.delivered_bytes.get() + frame.len() as u64);
        let mut frames = q.frames.borrow_mut();
        frames.push_back(frame);
        if frames.len() > q.depth_hwm.get() {
            q.depth_hwm.set(frames.len());
        }
        drop(frames);
        if q.irq_enabled.get() {
            if let Some(line) = q.irq.borrow().as_ref() {
                line.raise();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebbrt_core::iobuf::MutIoBuf;

    fn eth_frame(dst: Mac, src: Mac, payload: &[u8]) -> Frame {
        let mut b = MutIoBuf::with_capacity(14 + payload.len());
        b.append(6).copy_from_slice(&dst);
        b.append(6).copy_from_slice(&src);
        b.append(2).copy_from_slice(&0x0800u16.to_be_bytes());
        b.append_slice(payload);
        Frame::new(Chain::single(b.freeze()))
    }

    fn ipv4_tcp_frame(src_port: u16, dst_port: u16) -> Frame {
        let mut ip = vec![0u8; 40];
        ip[0] = 0x45; // v4, ihl 5
        ip[9] = 6; // TCP
        ip[12..16].copy_from_slice(&[10, 0, 0, 1]);
        ip[16..20].copy_from_slice(&[10, 0, 0, 2]);
        ip[20..22].copy_from_slice(&src_port.to_be_bytes());
        ip[22..24].copy_from_slice(&dst_port.to_be_bytes());
        eth_frame([1; 6], [2; 6], &ip)
    }

    #[test]
    fn frame_macs() {
        let f = eth_frame([1, 2, 3, 4, 5, 6], [7, 8, 9, 10, 11, 12], b"hi");
        assert_eq!(f.dst_mac(), Some([1, 2, 3, 4, 5, 6]));
        assert_eq!(f.src_mac(), Some([7, 8, 9, 10, 11, 12]));
        assert_eq!(f.len(), 16);
    }

    #[test]
    fn flow_hash_stable_per_connection() {
        let a1 = ipv4_tcp_frame(5555, 80).flow_hash();
        let a2 = ipv4_tcp_frame(5555, 80).flow_hash();
        let b = ipv4_tcp_frame(5556, 80).flow_hash();
        assert_eq!(a1, a2, "same 5-tuple must hash identically");
        assert_ne!(a1, b, "different ports should (almost surely) differ");
    }

    #[test]
    fn split_and_short_frames_read_like_contiguous_ones() {
        let whole = ipv4_tcp_frame(40000, 11211);
        let bytes = whole.data.copy_to_vec();
        let (dst, src, hash) = (whole.dst_mac(), whole.src_mac(), whole.flow_hash());
        assert_ne!(hash, 0);
        for cut in 1..bytes.len() {
            let mut data = Chain::single(IoBuf::copy_from(&bytes[..cut]));
            data.push_back(IoBuf::copy_from(&bytes[cut..]));
            let f = Frame::new(data);
            assert_eq!((f.dst_mac(), f.src_mac(), f.flow_hash()), (dst, src, hash));
        }
        // Cut short: what is there still reads; the hash falls back.
        let short = |n: usize| Frame::new(Chain::single(IoBuf::copy_from(&bytes[..n])));
        assert_eq!((short(5).dst_mac(), short(11).src_mac()), (None, None));
        assert_eq!((short(6).dst_mac(), short(12).src_mac()), (dst, src));
        assert_eq!(short(25).flow_hash(), 0, "no protocol byte yet");
        assert_eq!(
            short(14 + 20).flow_hash(),
            rss_hash(0x0a00_0001, 0x0a00_0002, 0, 0),
            "addresses without ports"
        );
    }

    #[test]
    fn rss_steers_to_queues_and_respects_irq_enable() {
        let nic = SimNic::new([1; 6], 4);
        // Many connections spread across queues.
        let mut seen = std::collections::HashSet::new();
        for port in 0..64 {
            let f = ipv4_tcp_frame(10000 + port, 80);
            let q = (f.flow_hash() as usize) % 4;
            seen.insert(q);
            nic.deliver(f);
        }
        assert!(seen.len() > 1, "RSS should use multiple queues");
        let total: usize = (0..4).map(|q| nic.rx_len(q)).sum();
        assert_eq!(total, 64);
        assert_eq!(nic.rx_stats().0, 64);
    }

    #[test]
    fn irq_raised_only_when_enabled() {
        use ebbrt_core::clock::ManualClock;
        use ebbrt_core::cpu::CoreId;
        use ebbrt_core::event::EventManager;
        use ebbrt_core::rcu::CoreEpoch;
        use std::sync::Arc;

        let em = EventManager::new(
            CoreId(0),
            Arc::new(ManualClock::new()),
            Arc::new(CoreEpoch::new()),
        );
        let _b = ebbrt_core::cpu::bind(CoreId(0));
        let hits = Rc::new(Cell::new(0));
        let h = Rc::clone(&hits);
        let v = em.allocate_vector(move || h.set(h.get() + 1));
        let nic = SimNic::new([1; 6], 1);
        nic.set_irq(0, em.interrupt_line(v));

        nic.deliver(eth_frame([1; 6], [2; 6], b"a"));
        em.drain();
        assert_eq!(hits.get(), 1);

        nic.set_irq_enabled(0, false);
        nic.deliver(eth_frame([1; 6], [2; 6], b"b"));
        em.drain();
        assert_eq!(hits.get(), 1, "no interrupt while disabled");
        assert_eq!(nic.rx_len(0), 2, "frames still queued for polling");

        nic.set_irq_enabled(0, true);
        assert_eq!(nic.rx_pop(0).unwrap().len(), 15);
    }

    #[test]
    #[should_panic(expected = "not attached")]
    fn transmit_unattached_panics() {
        let nic = SimNic::new([1; 6], 1);
        nic.transmit(eth_frame([1; 6], [2; 6], b"x"));
    }
}
