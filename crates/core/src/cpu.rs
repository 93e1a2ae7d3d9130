//! Core (CPU) identity.
//!
//! EbbRT's execution model binds every event, Ebb representative and
//! per-core data structure to exactly one core. On real hardware that
//! binding is physical; here a *core* is a logical execution context that
//! is either backed by a dedicated OS thread (the threaded backend) or
//! multiplexed onto a discrete-event-scheduler thread (the simulated
//! backend). In both cases the invariant is the same: **at any instant at
//! most one thread executes on behalf of a given core**, and that thread
//! has the core's identity installed in thread-local storage.
//!
//! Per-core state relies on this invariant to be accessed without
//! atomic read-modify-write operations — the paper's claim (§3.2) that
//! non-preemptive per-core execution lets components "use non-atomic
//! operations to access per-core data structures": an Ebb's
//! representatives ([`crate::ebb::MulticoreEbb`]) and the event
//! manager's owner state.

use core::cell::Cell;
use core::fmt;

/// Identifier of a logical core within one EbbRT instance (machine).
///
/// Core ids are dense: a machine with `n` cores uses ids `0..n`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct CoreId(pub u32);

impl CoreId {
    /// Returns the id as a usize index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "core{}", self.0)
    }
}

thread_local! {
    static CURRENT_CORE: Cell<Option<CoreId>> = const { Cell::new(None) };
}

/// Returns the core the calling thread is currently executing on behalf
/// of, or `None` if the thread is not bound to any core (e.g. a plain
/// test thread or a hosted-environment thread outside the event loop).
#[inline]
pub fn try_current() -> Option<CoreId> {
    CURRENT_CORE.with(|c| c.get())
}

/// Returns the current core.
///
/// # Panics
///
/// Panics if the calling thread is not bound to a core. Use
/// [`try_current`] for a fallible variant.
#[inline]
pub fn current() -> CoreId {
    try_current().expect("thread is not bound to an EbbRT core")
}

/// Binds the calling thread to `core` for the duration of the returned
/// guard. Used by the threaded backend when a core thread starts, and by
/// the simulated backend around each delivered event.
///
/// Bindings nest: the guard restores the previous binding on drop.
pub fn bind(core: CoreId) -> CoreBinding {
    let prev = CURRENT_CORE.with(|c| c.replace(Some(core)));
    CoreBinding { prev }
}

/// Guard returned by [`bind`]; restores the previous core binding on drop.
pub struct CoreBinding {
    prev: Option<CoreId>,
}

impl Drop for CoreBinding {
    fn drop(&mut self) {
        CURRENT_CORE.with(|c| c.set(self.prev));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bind_nests_and_restores() {
        assert_eq!(try_current(), None);
        {
            let _b0 = bind(CoreId(0));
            assert_eq!(current(), CoreId(0));
            {
                let _b1 = bind(CoreId(1));
                assert_eq!(current(), CoreId(1));
            }
            assert_eq!(current(), CoreId(0));
        }
        assert_eq!(try_current(), None);
    }
}
