//! # ebbrt-core — the Elastic Building Block Runtime
//!
//! A Rust reproduction of the core runtime described in *EbbRT: A
//! Framework for Building Per-Application Library Operating Systems*
//! (Schatzberg et al., OSDI 2016). It provides the paper's primitives:
//!
//! * [`ebb`] — Elastic Building Blocks: distributed multi-core
//!   fragmented objects with per-core representatives resolved through a
//!   translation table (§3.3).
//! * [`event`] — one non-preemptive event loop per core, with hardware
//!   interrupt vectors, spawned synthetic events, idle handlers and
//!   cooperative context save/restore (§3.2), and [`block_on`], the one
//!   way to wait for a value. Other threads hand a core work through a
//!   [`queue::MutexQueue`], whose emptiness check is one atomic load.
//! * [`cache`] — the per-core object cache (§3.4): one core's free list
//!   and the shared depot it flushes to and refills from in batches,
//!   under the buffer pool's size classes and memcached's cold boxes,
//!   and what Figure 3 times.
//! * [`cpu`] — core identity: which core the calling thread runs for.
//!   Cross-core state is a `std::sync::Mutex` taken through [`lock`];
//!   per-core state needs no lock.
//! * [`future`] — the one-shot promise/future pair `block_on` waits on.
//!   §3.5's other promises (a continuation runs synchronously on a ready
//!   value; an error reaches the final consumer) are kept by the
//!   product's callbacks: `ArpCache::find`, `Messenger::call_chain`,
//!   `RemoteShipper::call`.
//! * [`iobuf`] — zero-copy buffer descriptors with views, headroom and
//!   scatter/gather chains (§3.6), plus per-core buffer pools
//!   ([`iobuf::pool`]) that recycle packet-sized regions and counters
//!   ([`iobuf::stats`]) that let benchmarks assert the zero-copy,
//!   zero-allocation property of a steady-state request path.
//! * [`rcu`] — read-copy-update keyed to event-loop quiescence, plus the
//!   RCU hash map ([`rcu_hash`]) used for connection and key-value
//!   state (§3.6).
//! * [`qos`] — overload control: the named per-core counter registry
//!   and the HFSC-style per-class fair scheduler the network stack
//!   paces its transmit path with.
//! * [`timer`] — the hashed hierarchical timer wheel behind
//!   [`event::EventManager`]'s timers: O(1) arm/cancel/re-arm,
//!   allocation-free in steady state, with immediate reclamation of
//!   cancelled entries.
//! * [`runtime`] — the per-machine instance tying the above together,
//!   and [`native`] — the threaded backend that runs a machine on real
//!   OS threads (one per core).
//!
//! The simulated backend (virtual time, deterministic) lives in the
//! `ebbrt-sim` crate; the network stack in `ebbrt-net`; the hosted
//! environment in `ebbrt-hosted`.

#![warn(missing_docs)]

pub mod cache;
pub mod clock;
pub mod cpu;
pub mod ebb;
pub mod event;
pub mod future;
pub mod iobuf;
pub mod native;
pub mod qos;
pub mod queue;
pub mod rcu;
pub mod rcu_hash;
pub mod runtime;
pub mod timer;

pub use clock::{Clock, ManualClock, Ns, RealClock};
pub use cpu::CoreId;
pub use ebb::{EbbId, EbbRef, MulticoreEbb, SystemEbb};
pub use event::{block_on, EventManager};
pub use future::{Future, Promise};
pub use iobuf::{Buf, Chain, IoBuf, MutIoBuf};
pub use runtime::Runtime;

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks `m`, taking the data even if a holder panicked. Every
/// cross-core lock in the runtime is taken this way: the ambient
/// runtime is process-wide, so a test that panics under one of its
/// Ebb-table locks must not poison them for the next test. This keeps
/// the behaviour of the spinlocks these mutexes replaced, which had no
/// poisoning; the panics under them are type and wiring assertions.
#[inline]
pub fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}
