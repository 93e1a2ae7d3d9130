//! # ebbrt-apps — the paper's memcached, on any runtime
//!
//! * [`memcached`] — the §4.2 re-implementation: a multi-core memcached
//!   speaking the standard binary protocol, written directly to the
//!   EbbRT interfaces (data handled synchronously from the driver,
//!   key-value pairs in an RCU hash table, replies sent zero-copy), and
//!   the one client every load generator drives.
//! * [`stats`] — shared latency-recording utilities.
//!
//! The crate rests on `ebbrt-core` and `ebbrt-net` alone: its helpers
//! take a [`Runtime`], and a machine's device is whatever implements
//! `ebbrt_net::Nic` — the simulator's, or a loopback pair. The
//! simulated experiments that drive it (mutilate, NetPIPE, the
//! webserver, the managed-runtime model) live in `ebbrt-bench`.

#![forbid(unsafe_code)]

use std::sync::Arc;

use ebbrt_core::cpu::CoreId;
use ebbrt_core::runtime::Runtime;

pub mod memcached;
pub mod stats;

/// Spawns `f(v)` as an event on `core` of `rt`; `v` need not be `Send`
/// ([`Runtime::spawn_local`]).
pub fn spawn_with<T: 'static>(rt: &Arc<Runtime>, core: CoreId, v: T, f: impl FnOnce(T) + 'static) {
    rt.spawn_local(core, move || f(v));
}
