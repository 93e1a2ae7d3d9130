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
//!
//! The guest side is `ebbrt_net::Nic`, implemented here for
//! [`SimMachine`]: this impl is the one place that charges a frame's
//! device costs — per frame and per drain on receive, per frame with
//! kick suppression on transmit — against the machine's cost profile.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::Arc;

use ebbrt_core::clock::{charge, Ns};
use ebbrt_core::event::InterruptLine;
use ebbrt_core::iobuf::{Buf, Chain, IoBuf};
use ebbrt_core::runtime::Runtime;
pub(crate) use ebbrt_net::nic::Mac;
use ebbrt_net::nic::{rss_hash, Nic, RxQueue};

use crate::machine::SimMachine;

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

/// What a fresh device's last-activity stamps read. `now` minus it
/// saturates to 0, so a device's first drain and first transmit count
/// as back to back with an earlier one.
const LONG_AGO: Ns = u64::MAX / 2;

/// A receive queue and the device's own accounting around it.
struct Queue {
    rx: RxQueue,
    /// When a drain last took a frame (receive interrupt suppression).
    last_drain: Cell<Ns>,
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
    pub(crate) mac: Mac,
    queues: Vec<Queue>,
    /// Device MTU: the largest IP packet the device carries. Jumbo
    /// configurations (9000) raise the guest stack's MSS accordingly.
    mtu: Cell<usize>,
    /// Set once a guest network stack derives state (MSS, pool size
    /// classes) from this device's MTU; freezes [`Self::set_mtu`].
    stack_attached: Cell<bool>,
    /// Installed by the switch at attach time; carries frames onto the
    /// wire.
    tx_handler: RefCell<Option<TxHandler>>,
    /// When the last frame left (transmit kick suppression).
    last_tx: Cell<Ns>,
}

impl SimNic {
    /// Creates a NIC with `nqueues` receive queues and the
    /// [`DEFAULT_MTU`].
    pub fn new(mac: Mac, nqueues: usize) -> Rc<Self> {
        assert!(nqueues > 0);
        Rc::new(SimNic {
            mac,
            queues: (0..nqueues)
                .map(|_| Queue {
                    rx: RxQueue::default(),
                    last_drain: Cell::new(LONG_AGO),
                    delivered_frames: Cell::new(0),
                    delivered_bytes: Cell::new(0),
                    depth_hwm: Cell::new(0),
                })
                .collect(),
            mtu: Cell::new(DEFAULT_MTU),
            stack_attached: Cell::new(false),
            tx_handler: RefCell::new(None),
            last_tx: Cell::new(LONG_AGO),
        })
    }

    /// Number of receive queues.
    pub fn nqueues(&self) -> usize {
        self.queues.len()
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

    /// Frames waiting in `queue`.
    pub fn rx_len(&self, queue: usize) -> usize {
        self.queues[queue].rx.queued()
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
        let queue = (frame.flow_hash() as usize) % self.queues.len();
        let q = &self.queues[queue];
        q.delivered_frames.set(q.delivered_frames.get() + 1);
        q.delivered_bytes
            .set(q.delivered_bytes.get() + frame.len() as u64);
        let depth = q.rx.deliver(frame.data);
        q.depth_hwm.set(q.depth_hwm.get().max(depth));
    }
}

/// The simulated machine as the stack's device, and the device half of
/// the cost model: receive and transmit charge the machine's profile
/// here, at the points a guest pays them.
impl Nic for SimMachine {
    fn runtime(&self) -> &Arc<Runtime> {
        SimMachine::runtime(self)
    }

    fn mac(&self) -> Mac {
        self.nic().mac
    }

    fn mtu(&self) -> usize {
        self.nic().mtu.get()
    }

    fn mark_stack_attached(&self) {
        self.nic().stack_attached.set(true);
    }

    fn nqueues(&self) -> usize {
        self.nic().queues.len()
    }

    fn set_irq(&self, queue: usize, line: InterruptLine) {
        self.nic().queues[queue].rx.set_irq(line);
    }

    fn set_irq_enabled(&self, queue: usize, enabled: bool) {
        self.nic().queues[queue].rx.set_irq_enabled(enabled);
    }

    fn rx_len(&self, queue: usize) -> usize {
        self.nic().rx_len(queue)
    }

    /// Charges each frame the profile's per-packet receive path, and a
    /// drain that takes any its per-batch costs: the wakeup and syscall
    /// pair, plus interrupt entry and hypervisor delivery when the
    /// queue's interrupt entered the drain while the guest was cold.
    /// Back-to-back drains (within the batch window: NAPI/vhost
    /// suppressing notifications) pay only the amortized share.
    fn rx_burst(
        &self,
        queue: usize,
        from_interrupt: bool,
        max_frames: usize,
        max_bytes: usize,
        out: &mut Vec<Chain<IoBuf>>,
    ) -> usize {
        let (p, q) = (self.profile(), &self.nic().queues[queue]);
        let n = q.rx.take(max_frames, max_bytes, out);
        if n > 0 {
            let now = self.runtime().now_ns();
            let last = q.last_drain.replace(now);
            if from_interrupt && now.saturating_sub(last) > p.virtio_batch_window_ns {
                charge(p.rx_batch_cost());
            }
            charge(p.rx_wakeup_ns + p.syscall_ns);
        }
        for frame in &out[out.len() - n..] {
            charge(p.rx_cost_per_packet(frame.len()));
        }
        n
    }

    /// Charges the profile's transmit path; the virtio kick is
    /// suppressed while the ring is hot (a frame left within the batch
    /// window).
    fn transmit(&self, frame: Chain<IoBuf>) {
        let (p, now) = (self.profile(), self.runtime().now_ns());
        let since = now.saturating_sub(self.nic().last_tx.replace(now));
        charge(p.tx_cost_batched(frame.len(), since <= p.virtio_batch_window_ns));
        self.nic().transmit(Frame::new(frame));
    }

    fn rx_burst_frames(&self) -> usize {
        self.profile().rx_burst_frames
    }

    fn poll_enter_burst(&self) -> usize {
        self.profile().poll_enter_burst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costs::CostProfile;
    use crate::world::SimWorld;
    use ebbrt_core::clock::take_charge;
    use ebbrt_core::iobuf::MutIoBuf;
    use ebbrt_net::driver::RX_BURST_BYTES;

    fn bytes(len: usize) -> Chain<IoBuf> {
        Chain::single(IoBuf::copy_from(&vec![0u8; len]))
    }

    /// A one-core Linux-VM machine (its receive wakeup, syscall and
    /// copies cost something) on a switch, so it can transmit.
    fn device() -> (Rc<SimWorld>, Rc<crate::Switch>, Rc<SimMachine>) {
        let w = SimWorld::new();
        let sw = crate::Switch::new(&w);
        let m = SimMachine::create(&w, "m", 1, CostProfile::linux_vm(), [1; 6]);
        sw.attach(m.nic(), crate::LinkParams::default());
        (w, sw, m)
    }

    /// Hands `lens` frames to the queue, drains it once and returns the
    /// time the drain charged.
    fn drain_charge(m: &SimMachine, from_interrupt: bool, lens: &[usize]) -> Ns {
        for &len in lens {
            m.nic().deliver(Frame::new(bytes(len)));
        }
        take_charge();
        let mut out = Vec::new();
        let n = m.rx_burst(0, from_interrupt, 64, RX_BURST_BYTES, &mut out);
        assert_eq!(n, lens.len());
        take_charge()
    }

    #[test]
    fn a_transmit_inside_the_batch_window_is_charged_without_the_kick() {
        let (w, _sw, m) = device();
        let p = m.profile().clone();
        m.transmit(bytes(60)); // first frame
        let window = p.virtio_batch_window_ns;
        w.clock().set(window + 1);
        take_charge();
        m.transmit(bytes(100)); // outside the window: the kick is paid
        assert_eq!(take_charge(), p.tx_cost_batched(100, false));
        w.clock().set(2 * window + 1);
        m.transmit(bytes(700)); // exactly the window after: still hot
        assert_eq!(take_charge(), p.tx_cost_batched(700, true));
        assert!(p.tx_cost_batched(700, true) < p.tx_cost_batched(700, false));
    }

    #[test]
    fn only_an_interrupt_on_a_cold_queue_pays_the_batch_cost() {
        let (w, _sw, m) = device();
        let p = m.profile().clone();
        let per_drain = p.rx_wakeup_ns + p.syscall_ns;
        let frames = |lens: &[usize]| lens.iter().map(|&l| p.rx_cost_per_packet(l)).sum::<Ns>();
        drain_charge(&m, true, &[64]); // primes the queue's last drain
        let cold = 10 * p.virtio_batch_window_ns;
        w.clock().set(cold);
        let lens = [64, 1514, 300];
        let expect = p.rx_batch_cost() + per_drain + frames(&lens);
        assert_eq!(drain_charge(&m, true, &lens), expect, "cold interrupt");
        assert_eq!(
            drain_charge(&m, true, &[200]),
            per_drain + frames(&[200]),
            "hot: drained at this instant already"
        );
        w.clock().set(2 * cold);
        assert_eq!(
            drain_charge(&m, false, &[200, 9000]),
            per_drain + frames(&[200, 9000]),
            "a poll"
        );
        assert_eq!(drain_charge(&m, true, &[]), 0, "an empty drain is free");
    }

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
        assert_eq!((0..4).map(|q| nic.rx_queue_stats(q).0).sum::<u64>(), 64);
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
        let w = SimWorld::new();
        let m = SimMachine::create(&w, "m", 1, CostProfile::ebbrt_vm(), [1; 6]);
        m.set_irq(0, em.interrupt_line(v));

        m.nic().deliver(eth_frame([1; 6], [2; 6], b"a"));
        em.drain();
        assert_eq!(hits.get(), 1);

        m.set_irq_enabled(0, false);
        m.nic().deliver(eth_frame([1; 6], [2; 6], b"b"));
        em.drain();
        assert_eq!(hits.get(), 1, "no interrupt while disabled");
        assert_eq!(m.rx_len(0), 2, "frames still queued for polling");

        m.set_irq_enabled(0, true);
        let mut out = Vec::new();
        m.rx_burst(0, false, 1, RX_BURST_BYTES, &mut out);
        assert_eq!(out[0].len(), 15);
    }

    #[test]
    #[should_panic(expected = "not attached")]
    fn transmit_unattached_panics() {
        let nic = SimNic::new([1; 6], 1);
        nic.transmit(eth_frame([1; 6], [2; 6], b"x"));
    }
}
