//! Time sources.
//!
//! The runtime reads time through the [`Clock`] trait so the same code
//! runs against wall-clock time (threaded backend) or a virtual
//! nanosecond clock advanced by the discrete-event scheduler (simulated
//! backend). All times are nanoseconds since an arbitrary per-instance
//! epoch. A handler declares the virtual CPU time its work costs with
//! [`charge`].

use std::cell::Cell;
use std::sync::Arc;
use std::time::Instant;

/// Nanoseconds since a clock-specific epoch.
pub type Ns = u64;

/// Tick granularity used by the event manager's timer wheel
/// ([`crate::timer`]): deadlines are quantized to ticks of
/// `2^shift` nanoseconds. The default of `0` keeps exact-nanosecond
/// semantics (a timer fires at the first dispatch with
/// `now >= deadline`, as the old heap did); a coarser shift trades up
/// to `2^shift - 1` ns of firing lateness for a smaller wheel span —
/// timers never fire early either way, because deadlines round *up*.
pub const DEFAULT_TIMER_TICK_SHIFT: u32 = 0;

/// Converts a deadline to its tick, rounding up so the quantized timer
/// never fires before the requested time.
#[inline]
pub fn deadline_to_tick(deadline_ns: Ns, shift: u32) -> u64 {
    let gran = (1u64 << shift) - 1;
    deadline_ns.saturating_add(gran) >> shift
}

/// The instant (ns) at which a tick begins — the effective deadline of
/// every timer quantized to that tick.
#[inline]
pub fn tick_to_ns(tick: u64, shift: u32) -> Ns {
    tick << shift
}

/// A monotonic nanosecond time source.
pub trait Clock: Send + Sync + 'static {
    /// Current time in nanoseconds since this clock's epoch.
    fn now_ns(&self) -> Ns;
}

/// Wall-clock time relative to clock creation.
pub struct RealClock {
    epoch: Instant,
}

impl RealClock {
    /// Creates a clock whose epoch is "now".
    pub fn new() -> Self {
        RealClock {
            epoch: Instant::now(),
        }
    }
}

impl Default for RealClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for RealClock {
    fn now_ns(&self) -> Ns {
        self.epoch.elapsed().as_nanos() as Ns
    }
}

/// A manually-advanced clock, used by tests and by the discrete-event
/// scheduler (which advances it to each event's timestamp).
pub struct ManualClock {
    now: std::sync::atomic::AtomicU64,
}

impl ManualClock {
    /// Creates a clock reading zero.
    pub fn new() -> Self {
        ManualClock {
            now: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Sets the current time. `t` must be monotonically non-decreasing
    /// across calls; this is debug-asserted.
    pub fn set(&self, t: Ns) {
        let prev = self.now.swap(t, std::sync::atomic::Ordering::Relaxed);
        debug_assert!(t >= prev, "ManualClock moved backwards: {prev} -> {t}");
    }

    /// Advances the clock by `dt` nanoseconds, returning the new time.
    pub fn advance(&self, dt: Ns) -> Ns {
        self.now.fetch_add(dt, std::sync::atomic::Ordering::Relaxed) + dt
    }
}

impl Default for ManualClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for ManualClock {
    fn now_ns(&self) -> Ns {
        self.now.load(std::sync::atomic::Ordering::Relaxed)
    }
}

impl Clock for Arc<ManualClock> {
    fn now_ns(&self) -> Ns {
        (**self).now_ns()
    }
}

thread_local! {
    static CHARGE: Cell<Ns> = const { Cell::new(0) };
}

/// Declares that the currently executing handler consumes `ns` of
/// virtual CPU time. May be called any number of times; charges
/// accumulate. A backend that bills virtual time (the simulator) reads
/// them with [`take_charge`] after each dispatch pass; elsewhere this
/// is an accumulator that nobody reads.
#[inline]
pub fn charge(ns: Ns) {
    CHARGE.with(|c| c.set(c.get() + ns));
}

/// Returns and clears the time [`charge`]d on this thread since the
/// last call.
pub fn take_charge() -> Ns {
    CHARGE.with(|c| c.replace(0))
}

/// Virtual CPU time the currently executing handler has accumulated so
/// far. Devices use this to timestamp outputs correctly: a frame sent
/// after 20 µs of (charged) processing leaves the NIC 20 µs into the
/// event, not at its start.
pub fn charged_so_far() -> Ns {
    CHARGE.with(|c| c.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_accumulates_and_resets() {
        charge(100);
        charge(50);
        assert_eq!(take_charge(), 150);
        assert_eq!(take_charge(), 0);
    }

    #[test]
    fn real_clock_monotonic() {
        let c = RealClock::new();
        let a = c.now_ns();
        let b = c.now_ns();
        assert!(b >= a);
    }

    #[test]
    fn manual_clock_set_and_advance() {
        let c = ManualClock::new();
        assert_eq!(c.now_ns(), 0);
        c.set(100);
        assert_eq!(c.now_ns(), 100);
        assert_eq!(c.advance(50), 150);
        assert_eq!(c.now_ns(), 150);
    }
}
