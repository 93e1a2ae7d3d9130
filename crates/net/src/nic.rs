//! The device boundary: everything the stack asks of its NIC.
//!
//! The stack reaches its device only through [`Nic`]: the driver
//! ([`crate::driver`]) binds the receive queues' interrupts and drains
//! them, and [`crate::NetIf`] transmits. A frame crosses as a zero-copy
//! [`Chain`] starting at the Ethernet header. What a frame costs the
//! device is the device's own business: a device model that bills
//! virtual time charges it inside these calls. Every device keeps its
//! receive queues as [`RxQueue`]s, the one place the queue-and-interrupt
//! rule is written.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::sync::Arc;

use ebbrt_core::event::InterruptLine;
use ebbrt_core::iobuf::{Chain, IoBuf};
use ebbrt_core::runtime::Runtime;

use crate::driver::{POLL_ENTER_BURST, RX_BURST};

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

/// A virtio-style NIC as the stack sees it: receive queues owned by the
/// cores of [`Nic::runtime`] (queue `q` by core `q`), each with its own
/// interrupt line, and a transmit call.
pub trait Nic {
    /// The machine whose cores own the receive queues.
    fn runtime(&self) -> &Arc<Runtime>;

    /// The device's MAC address.
    fn mac(&self) -> Mac;

    /// The largest IP packet the device carries.
    fn mtu(&self) -> usize;

    /// Freezes the MTU: an attached stack derived its MSS from it.
    fn mark_stack_attached(&self);

    /// Number of receive queues.
    fn nqueues(&self) -> usize;

    /// Binds `queue`'s interrupt line, raised on frame arrival while
    /// the interrupt is enabled.
    fn set_irq(&self, queue: usize, line: InterruptLine);

    /// Enables or disables `queue`'s interrupt — the driver's polling
    /// switch. Re-enabling does not fire for frames already queued.
    fn set_irq_enabled(&self, queue: usize, enabled: bool);

    /// Frames waiting in `queue`.
    fn rx_len(&self, queue: usize) -> usize;

    /// One drain of `queue`: moves frames into `out` (empty on entry)
    /// until `max_frames` are taken, `max_bytes` are reached or the
    /// queue is empty, and returns how many. `from_interrupt` says the
    /// queue's interrupt entered the drain rather than a poll.
    fn rx_burst(
        &self,
        queue: usize,
        from_interrupt: bool,
        max_frames: usize,
        max_bytes: usize,
        out: &mut Vec<Chain<IoBuf>>,
    ) -> usize;

    /// Hands a frame to the wire.
    fn transmit(&self, frame: Chain<IoBuf>);

    /// Frames the driver takes per drain (1: per-packet receive through
    /// the same path). Fixed before attach.
    fn rx_burst_frames(&self) -> usize {
        RX_BURST
    }

    /// Frames an interrupt must find, drained or still queued, to move
    /// its queue to polling (`usize::MAX`: interrupts only). Fixed
    /// before attach.
    fn poll_enter_burst(&self) -> usize {
        POLL_ENTER_BURST
    }
}

/// One receive queue as a device keeps it: the frames waiting, the
/// interrupt line the driver bound, and whether that interrupt is
/// enabled. A device answers [`Nic::set_irq`], [`Nic::set_irq_enabled`]
/// and [`Nic::rx_len`] from here, and takes [`Nic::rx_burst`]'s frames
/// with [`RxQueue::take`].
#[derive(Default)]
pub struct RxQueue {
    frames: RefCell<VecDeque<Chain<IoBuf>>>,
    irq: RefCell<Option<InterruptLine>>,
    /// Set while the driver has the interrupt disabled.
    irq_masked: Cell<bool>,
}

impl RxQueue {
    /// Binds the queue's interrupt line.
    pub fn set_irq(&self, line: InterruptLine) {
        *self.irq.borrow_mut() = Some(line);
    }

    /// Enables or disables the interrupt. Re-enabling does not fire for
    /// frames already queued: the driver drains after re-enabling, as
    /// with real hardware.
    pub fn set_irq_enabled(&self, enabled: bool) {
        self.irq_masked.set(!enabled);
    }

    /// Frames waiting.
    pub fn queued(&self) -> usize {
        self.frames.borrow().len()
    }

    /// Queues an arriving frame and raises the line if the interrupt is
    /// enabled. Returns the frames now waiting.
    pub fn deliver(&self, frame: Chain<IoBuf>) -> usize {
        self.frames.borrow_mut().push_back(frame);
        if !self.irq_masked.get() {
            if let Some(line) = self.irq.borrow().as_ref() {
                line.raise();
            }
        }
        self.queued()
    }

    /// Moves frames into `out` until `max_frames` are taken,
    /// `max_bytes` are reached or the queue is empty, and returns how
    /// many: [`Nic::rx_burst`]'s bounds.
    pub fn take(&self, max_frames: usize, max_bytes: usize, out: &mut Vec<Chain<IoBuf>>) -> usize {
        let (mut n, mut bytes, mut frames) = (0, 0, self.frames.borrow_mut());
        while n < max_frames && bytes < max_bytes {
            let Some(frame) = frames.pop_front() else {
                break;
            };
            bytes += frame.len();
            out.push(frame);
            n += 1;
        }
        n
    }
}
