//! The virtio-net guest driver with adaptive polling — the worked
//! example of §3.2.
//!
//! Each receive queue is owned by one core. The driver allocates an
//! interrupt vector from that core's `EventManager` and programs the
//! NIC to raise it on arrival. The interrupt handler drains frames to
//! completion. If, after a burst, the queue is still backed up (the
//! interrupt rate exceeds the threshold), the driver **disables the
//! interrupt and installs an `IdleHandler`** that polls the queue; once
//! the arrival rate drops (several consecutive empty polls), it
//! re-enables the interrupt and removes the idle handler, returning to
//! interrupt-driven execution.
//!
//! What a drain costs is the device's to charge ([`Nic::rx_burst`](crate::Nic::rx_burst));
//! the driver decides only when to drain, how much, and in which mode.
//! Its two settings — frames per drain and the backlog that moves a
//! queue to polling — are the device's, fixed before attach.

use std::cell::{Cell, RefCell};
use std::rc::{Rc, Weak};

use ebbrt_core::cpu::CoreId;
use ebbrt_core::event::IdleToken;
use ebbrt_core::iobuf::{Chain, IoBuf};

use crate::netif::NetIf;

/// Default frames drained per interrupt/poll invocation
/// ([`Nic::rx_burst_frames`](crate::Nic::rx_burst_frames)).
pub const RX_BURST: usize = 64;

/// Byte budget per drain burst. With standard 1500-byte frames the
/// frame count binds first (64 × ~1.5 KiB ≈ 96 KiB), so behaviour is
/// unchanged; with jumbo frames (9000-byte MTU) the byte budget binds
/// instead, so a burst of large messages yields the core after the
/// same amount of receive *work* rather than 6× more.
pub const RX_BURST_BYTES: usize = 256 * 1024;

/// Default frames drained by a single interrupt that signal overload
/// (the paper's "interrupt rate exceeds a configurable threshold"
/// proxy: a big backlog per interrupt means interrupts can't keep up;
/// [`Nic::poll_enter_burst`](crate::Nic::poll_enter_burst)).
pub const POLL_ENTER_BURST: usize = 12;

/// Consecutive empty polls before returning to interrupts.
pub const POLL_EXIT_STREAK: u32 = 16;

struct QueueState {
    queue: usize,
    polling: Cell<bool>,
    empty_streak: Cell<u32>,
    idle_token: Cell<Option<IdleToken>>,
    /// The queue's poll hook, built once at attach and registered as
    /// the idle handler on every switch to polling. It holds the state
    /// weakly, so the state and its hook form no `Rc` cycle.
    poll: Rc<dyn Fn()>,
    /// Reusable per-queue frame vector: each drain collects its whole
    /// burst here and hands it to the stack in one `rx_burst` call.
    /// Taken (not borrowed) for the duration of a drain so re-entrant
    /// drains see an independent vector.
    burst: RefCell<Vec<Chain<IoBuf>>>,
}

/// Attaches the driver: one receive queue per core (or all on core 0
/// for single-queue NICs). Runs as events on each owning core, since
/// vector allocation is owner-core-only.
pub fn attach(netif: &Rc<NetIf>) {
    let rt = netif.runtime();
    for q in 0..netif.nic.nqueues() {
        let netif2 = Rc::clone(netif);
        rt.spawn_local(CoreId(q as u32), move || setup_queue(&netif2, q));
    }
}

fn setup_queue(netif: &Rc<NetIf>, q: usize) {
    let state = Rc::new_cyclic(|weak: &Weak<QueueState>| {
        let (netif, weak) = (Rc::clone(netif), weak.clone());
        QueueState {
            queue: q,
            polling: Cell::new(false),
            empty_streak: Cell::new(0),
            idle_token: Cell::new(None),
            poll: Rc::new(move || {
                if let Some(s) = weak.upgrade() {
                    drain(&netif, &s, false);
                }
            }),
            burst: RefCell::new(Vec::with_capacity(RX_BURST)),
        }
    });
    let em = netif.runtime().local_event_manager();
    let netif2 = Rc::clone(netif);
    let state2 = Rc::clone(&state);
    let vector = em.allocate_vector(move || {
        drain(&netif2, &state2, true);
    });
    let nic = &netif.nic;
    assert!(nic.rx_burst_frames() > 0, "a zero-frame drain budget");
    nic.set_irq(q, em.interrupt_line(vector));
    // Drain anything that arrived before attach.
    drain(netif, &state, false);
}

/// Drains one burst of the queue into its reusable frame vector
/// ([`Nic::rx_burst`](crate::Nic::rx_burst)) and hands it to the stack in one
/// [`NetIf::rx_burst`] call before running the adaptive-mode state
/// machine. Returns frames processed.
fn drain(netif: &Rc<NetIf>, state: &Rc<QueueState>, from_interrupt: bool) -> usize {
    let nic = &netif.nic;
    let mut burst = state.burst.take();
    let (q, max) = (state.queue, nic.rx_burst_frames());
    let n = nic.rx_burst(q, from_interrupt, max, RX_BURST_BYTES, &mut burst);
    netif.rx_burst(&mut burst);
    *state.burst.borrow_mut() = burst;
    if !state.polling.get() {
        let threshold = nic.poll_enter_burst();
        if from_interrupt && (n >= threshold || nic.rx_len(q) >= threshold) {
            // Arrival rate exceeds what interrupt-mode keeps up with:
            // switch to polling.
            enter_polling(netif, state);
        }
    } else if n == 0 {
        // Only genuine idle polls count toward leaving poll mode; stale
        // interrupt entries queued before the irq was disabled do not.
        if !from_interrupt {
            let streak = state.empty_streak.get() + 1;
            state.empty_streak.set(streak);
            if streak >= POLL_EXIT_STREAK {
                exit_polling(netif, state);
            }
        }
    } else {
        state.empty_streak.set(0);
    }
    n
}

fn enter_polling(netif: &Rc<NetIf>, state: &Rc<QueueState>) {
    netif.nic.set_irq_enabled(state.queue, false);
    state.polling.set(true);
    state.empty_streak.set(0);
    let em = netif.runtime().local_event_manager();
    let token = em.add_idle_handler(Rc::clone(&state.poll));
    state.idle_token.set(Some(token));
}

fn exit_polling(netif: &Rc<NetIf>, state: &Rc<QueueState>) {
    state.polling.set(false);
    if let Some(token) = state.idle_token.take() {
        netif
            .runtime()
            .local_event_manager()
            .remove_idle_handler(token);
    }
    netif.nic.set_irq_enabled(state.queue, true);
    // Drain the race window: frames that arrived between the last poll
    // and interrupt re-enable would otherwise sit unprocessed.
    drain(netif, state, false);
}
