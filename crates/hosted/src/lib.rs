//! # ebbrt-hosted — the hosted environment and function offload
//!
//! The paper's deployments pair native library-OS instances with a
//! *hosted* process inside a general-purpose OS (§2.1): the hosted side
//! provides legacy functionality (filesystem, process management,
//! logging) that the native side offloads over the network, keeping the
//! native environment light. "The most maintainable software is that
//! which was not written."
//!
//! * [`messenger`] — length-prefixed messaging between machines over
//!   the TCP stack, with an RPC layer (request/response correlation)
//!   used by offloaded Ebbs.
//! * [`fs`] — the FileSystem Ebb of §4.3, one distributed Ebb under
//!   `SystemEbb::Fs`: the native representative function-ships every
//!   call to the hosted representative, which serves an in-memory
//!   filesystem. Deliberately naïve (one round trip
//!   per access), exactly as the paper describes its own port — plus an
//!   optional caching representative demonstrating the optimization the
//!   paper leaves as future work.
//! * [`global_map`] — the system-wide Ebb naming service (§2.2's
//!   shared namespace): machine-unique id ranges plus id→owner
//!   resolution, served by the hosted instance over the messenger.
//!
//! The messenger, filesystem and naming service carry **well-known
//! ids** from [`ebbrt_core::ebb::SystemEbb`] (ids 2 and 3 double as the
//! wire ids messages are routed by). The messenger and the filesystem
//! live in the same translation table as everything else:
//! [`messenger::Messenger::start`] installs per-core reps so any event
//! can resolve the local messenger via [`messenger::local_messenger`],
//! and [`fs::FsServer::start`] registers the filesystem's root so
//! [`fs::fs_ref`] serves in place on the hosted machine and faults in a
//! function-shipping proxy on a native one. The naming service is a
//! raw messenger handler — it is what proxies resolve owners
//! *through*. The paper's hosted *hash-table*
//! dispatch (its "roughly 19 times the cost" measurement, §3.3) is no
//! longer a system component — the reproduction dispatches every
//! environment through the native translation array — but the Table 1
//! benchmark (`ebb_dispatch`, `repro_table1`) keeps a faithful
//! hash-table dispatcher locally to reproduce that comparison.

pub mod fs;
pub mod global_map;
pub mod messenger;
pub mod remote;

/// Test helper: runs `f(v)` in an event on core 0 of `m`.
#[cfg(test)]
fn on_core0<T: 'static>(m: &std::rc::Rc<ebbrt_sim::SimMachine>, v: T, f: impl FnOnce(T) + 'static) {
    m.spawn_local(ebbrt_core::cpu::CoreId(0), move || f(v));
}
