//! The cost model: every virtual-time constant, with provenance.
//!
//! These constants parameterize the per-environment
//! [`CostProfile`]s. They are calibrated so the *microbenchmark-level*
//! behaviour matches published numbers (the paper's own measurements
//! where available, common folklore measurements otherwise); the
//! macro results (Figures 4–6, Table 2) then *emerge* from composition
//! and queueing rather than being dialed in directly.
//!
//! Provenance notes:
//! * Paper §4.1.3: EbbRT one-way 64 B latency 9.7 µs, Linux 15.9 µs,
//!   both through virtio on directly connected 10 GbE X520s. The ~6 µs
//!   gap is attributed to Linux's longer path (softirq, socket wakeup,
//!   two copies, syscalls).
//! * virtio/vhost per-packet overhead of a KVM guest (exit, vhost
//!   kick, irq injection) is commonly measured at 1.5–3 µs per
//!   direction; we use 2.2 µs.
//! * A kernel/user `memcpy` sustains roughly 4–8 GB/s on that era's
//!   Xeons → ~0.2 ns/B; the hypervisor's skb copy on rx similar.
//! * Syscall entry/exit (pre-KPTI era, Linux 3.16): ~150–300 ns; the
//!   full send/recv socket call costs ~1–2 µs including socket-layer
//!   locking — we charge stack costs separately and keep the bare
//!   crossing at 250 ns.
//! * Scheduler wakeup + context switch to a blocked task: 1.5–3 µs
//!   (pipe-pingpong folklore); we use 2.0 µs.
//! * The 1 kHz scheduler tick costs a few µs of handler plus cache
//!   pollution; we use 4 µs per tick.

use ebbrt_core::clock::Ns;
use ebbrt_net::driver::{POLL_ENTER_BURST, RX_BURST};

/// Wire speed of the 10 GbE links: 0.8 ns per byte.
pub const WIRE_NS_PER_BYTE_X1000: u64 = 800;

/// One-way propagation + PHY/serialization latency of the
/// direct-attached link (cable + both NICs' MAC/PHY).
pub const LINK_LATENCY_NS: Ns = 600;

/// Ethernet preamble + inter-frame gap + CRC overhead per frame.
pub const WIRE_FRAME_OVERHEAD_BYTES: u64 = 24;

/// Per-environment path-length model. All values are virtual CPU time
/// charged on the core that performs the work.
#[derive(Clone, Debug)]
pub struct CostProfile {
    /// Display name.
    pub name: &'static str,
    /// Hypervisor cost of a transmit *kick* (VM exit + vhost wakeup)
    /// when the ring was idle. Zero for unvirtualized profiles.
    pub virtio_tx_ns: Ns,
    /// Hypervisor cost of delivering a receive interrupt (vhost + irq
    /// injection) when the guest was idle.
    pub virtio_rx_ns: Ns,
    /// Amortized hypervisor cost per additional packet while the ring
    /// is hot (vhost processes rings in batches; exits are suppressed).
    pub virtio_amortized_ns: Ns,
    /// Ring considered hot if the previous packet was within this
    /// window.
    pub virtio_batch_window_ns: Ns,
    /// Hypervisor per-byte copy on reception (the copy "both systems
    /// must suffer ... due to the hypervisor", §4.1.3), in picoseconds
    /// per byte.
    pub virtio_rx_copy_ps_per_byte: u64,
    /// Guest interrupt entry → driver handler.
    pub rx_irq_ns: Ns,
    /// Guest protocol processing per received packet (driver + eth/ip/
    /// tcp demux).
    pub rx_stack_ns: Ns,
    /// Kernel→user copy on receive, ps/byte (zero where the app reads
    /// DMA memory directly).
    pub rx_copy_ps_per_byte: u64,
    /// Scheduler wakeup + context switch to deliver data to a blocked
    /// app thread (zero where the app runs on the event/interrupt path).
    pub rx_wakeup_ns: Ns,
    /// Syscall crossings per request (recv+send pair where applicable).
    pub syscall_ns: Ns,
    /// Guest protocol processing per transmitted packet.
    pub tx_stack_ns: Ns,
    /// User→kernel copy on transmit, ps/byte.
    pub tx_copy_ps_per_byte: u64,
    /// Periodic scheduler tick: period (0 = none) and per-tick cost
    /// (handler + cache-pollution effect).
    pub tick_period_ns: Ns,
    /// Cost charged per tick.
    pub tick_cost_ns: Ns,
    /// Whether the NIC is limited to a single receive queue regardless
    /// of core count (the OSv virtio driver's missing multiqueue
    /// support, §4.2).
    pub single_queue: bool,
    /// Frames the guest driver drains per burst (1: per-packet receive
    /// through the same path).
    pub rx_burst_frames: usize,
    /// Frames one interrupt must find for the driver to switch its
    /// queue to polling (`usize::MAX`: interrupts only).
    pub poll_enter_burst: usize,
}

impl CostProfile {
    /// EbbRT native library OS inside a KVM guest: interrupt → handler →
    /// application, zero copies, no syscalls, no scheduler.
    pub fn ebbrt_vm() -> Self {
        CostProfile {
            name: "EbbRT (VM)",
            virtio_tx_ns: 3300,
            virtio_rx_ns: 3300,
            virtio_amortized_ns: 350,
            virtio_batch_window_ns: 3000,
            virtio_rx_copy_ps_per_byte: 200,
            rx_irq_ns: 250,   // exception frame + vector dispatch
            rx_stack_ns: 350, // driver + zero-copy stack demux
            rx_copy_ps_per_byte: 0,
            rx_wakeup_ns: 0,
            syscall_ns: 0,
            tx_stack_ns: 350,
            tx_copy_ps_per_byte: 0,
            tick_period_ns: 0, // no preemption ⇒ no timer ticks
            tick_cost_ns: 0,
            single_queue: false,
            rx_burst_frames: RX_BURST,
            poll_enter_burst: POLL_ENTER_BURST,
        }
    }

    /// Linux guest (virtio-net + vhost, multiqueue): the paper's
    /// "Linux" line in Figures 4–6. Same hypervisor and NIC as the
    /// EbbRT guest; the guest's own path is Linux's.
    pub fn linux_vm() -> Self {
        CostProfile {
            name: "Linux (VM)",
            rx_irq_ns: 900,    // irq + NAPI entry
            rx_stack_ns: 1500, // netif_receive_skb → tcp_v4_rcv
            rx_copy_ps_per_byte: 200,
            rx_wakeup_ns: 2000, // wake + schedule epoll waiter
            syscall_ns: 500,    // recv + send crossings
            tx_stack_ns: 1500,  // tcp_sendmsg → dev_queue_xmit
            tx_copy_ps_per_byte: 200,
            tick_period_ns: 1_000_000, // CONFIG_HZ=1000
            tick_cost_ns: 4000,
            ..Self::ebbrt_vm()
        }
    }

    /// Linux directly on the host ("Linux Native"): same kernel path
    /// lengths without the hypervisor.
    pub fn linux_native() -> Self {
        CostProfile {
            virtio_tx_ns: 0,
            virtio_rx_ns: 0,
            virtio_amortized_ns: 0,
            virtio_rx_copy_ps_per_byte: 0,
            name: "Linux (native)",
            ..Self::linux_vm()
        }
    }

    /// OSv guest: single address space removes the user/kernel copy and
    /// cheapens the syscall, but the socket/scheduler path remains and
    /// the virtio driver has one receive queue (§4.2: "a lack of
    /// multiqueue support in their virtio-net device driver").
    pub fn osv_vm() -> Self {
        CostProfile {
            name: "OSv (VM)",
            rx_copy_ps_per_byte: 0,
            tx_copy_ps_per_byte: 0,
            syscall_ns: 120,    // function call, same address space
            rx_wakeup_ns: 2600, // OSv's scheduler wakeup path (unoptimized)
            rx_stack_ns: 2000,  // ported BSD-derived stack, heavier locking
            tx_stack_ns: 2000,
            single_queue: true,
            ..Self::linux_vm()
        }
    }

    /// Virtual time to copy `bytes` at `ps_per_byte`.
    pub fn copy_cost(ps_per_byte: u64, bytes: usize) -> Ns {
        (ps_per_byte * bytes as u64) / 1000
    }

    /// Per-packet receive charge *excluding* the one-time interrupt and
    /// hypervisor-delivery costs (those amortize over a drain batch).
    pub fn rx_cost_per_packet(&self, bytes: usize) -> Ns {
        self.rx_stack_ns
            + Self::copy_cost(self.rx_copy_ps_per_byte, bytes)
            + Self::copy_cost(self.virtio_rx_copy_ps_per_byte, bytes)
            + self.virtio_amortized_ns
    }

    /// One-time receive charge per interrupt/drain batch.
    pub fn rx_batch_cost(&self) -> Ns {
        self.rx_irq_ns + self.virtio_rx_ns.saturating_sub(self.virtio_amortized_ns)
    }

    /// Transmit-side CPU charge for a packet of `bytes`. `ring_hot` is
    /// true when a packet was sent within the batch window (the kick is
    /// suppressed and vhost picks the packet up in its current pass).
    pub fn tx_cost_batched(&self, bytes: usize, ring_hot: bool) -> Ns {
        let virtio = if ring_hot {
            self.virtio_amortized_ns
        } else {
            self.virtio_tx_ns
        };
        self.tx_stack_ns + Self::copy_cost(self.tx_copy_ps_per_byte, bytes) + virtio
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Cold-path receive cost of one packet: a drain of one.
    fn rx_cost(p: &CostProfile, bytes: usize) -> Ns {
        p.rx_batch_cost() + p.rx_cost_per_packet(bytes)
    }

    #[test]
    fn ebbrt_rx_is_cheaper_than_linux() {
        let e = CostProfile::ebbrt_vm();
        let l = CostProfile::linux_vm();
        for &bytes in &[64usize, 1500, 9000] {
            assert!(rx_cost(&e, bytes) < rx_cost(&l, bytes));
            assert!(e.tx_cost_batched(bytes, false) < l.tx_cost_batched(bytes, false));
        }
    }

    #[test]
    fn native_drops_hypervisor_costs_only() {
        let vm = CostProfile::linux_vm();
        let native = CostProfile::linux_native();
        assert_eq!(native.virtio_tx_ns, 0);
        assert_eq!(native.rx_irq_ns, vm.rx_irq_ns);
        assert!(rx_cost(&native, 64) < rx_cost(&vm, 64));
    }

    #[test]
    fn per_byte_costs_scale() {
        let l = CostProfile::linux_vm();
        let small = rx_cost(&l, 64);
        let large = rx_cost(&l, 64 * 1024);
        // Two copies at 0.2 ns/B each over 64 KiB ≈ 26 µs extra.
        assert!(large > small + 20_000);
        let e = CostProfile::ebbrt_vm();
        // EbbRT pays only the hypervisor copy.
        assert!(rx_cost(&e, 64 * 1024) - rx_cost(&e, 64) < large - small);
    }

    #[test]
    fn wire_cost_includes_overhead() {
        // 64 B + 24 B overhead at 0.8 ns/B = 70.4 ns.
        let wire = crate::LinkParams::default();
        assert_eq!(wire.serialize_ns(64), 70);
        // ~1.2 µs for a full-size frame.
        let full = wire.serialize_ns(1514);
        assert!((1200..1300).contains(&full));
    }

    #[test]
    fn osv_is_single_queue() {
        assert!(CostProfile::osv_vm().single_queue);
        assert!(!CostProfile::linux_vm().single_queue);
        // OSv avoids the user/kernel copies.
        assert_eq!(CostProfile::osv_vm().rx_copy_ps_per_byte, 0);
    }
}
