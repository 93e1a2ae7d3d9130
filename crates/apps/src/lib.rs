//! # ebbrt-apps — the paper's evaluation applications and workloads
//!
//! * [`memcached`] — the §4.2 re-implementation: a multi-core memcached
//!   speaking the standard binary protocol, written directly to the
//!   EbbRT interfaces (data handled synchronously from the driver,
//!   key-value pairs in an RCU hash table, replies sent zero-copy).
//!   Runs unmodified on every cost profile (EbbRT-VM, Linux-VM, Linux
//!   native, OSv-VM) — the profile is the environment under test.
//! * [`mutilate`] — the load generator: Facebook ETC key/value size
//!   distributions, many TCP connections, pipeline depth 4, open-loop
//!   arrivals, latency percentiles (mean/99th) vs offered load —
//!   regenerating Figures 5 and 6.
//! * [`netpipe`] — the §4.1.3 ping-pong benchmark: one-way latency and
//!   goodput as a function of message size (Figure 4).
//! * [`jsrt`] — the managed-runtime model standing in for node.js/V8
//!   (§4.3): a heap + GC whose paging and preemption behaviour depends
//!   on the environment, plus the eight V8-benchmark kernels (Figure 7).
//! * [`webserver`] — the node.js webserver experiment (Table 2): an
//!   HTTP server with a fixed 148-byte response under a wrk-style
//!   client, measuring mean and 99th-percentile latency.
//! * [`stats`] — shared latency-recording utilities.

#![forbid(unsafe_code)]

pub mod jsrt;
pub mod memcached;
pub mod mutilate;
pub mod netpipe;
mod rng;
pub mod stats;
pub mod webserver;

pub use ebbrt_core::runtime::SendCell;

/// Spawns `f(v)` as an event on `core` of `machine`, smuggling the
/// non-`Send` `v` through a [`SendCell`].
pub fn spawn_with<T: 'static>(
    machine: &std::rc::Rc<ebbrt_sim::SimMachine>,
    core: ebbrt_core::cpu::CoreId,
    v: T,
    f: impl FnOnce(T) + 'static,
) {
    machine.spawn_local(core, move || f(v));
}
