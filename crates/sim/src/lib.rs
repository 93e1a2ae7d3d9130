//! # ebbrt-sim — the simulated hardware substrate
//!
//! The paper evaluates EbbRT on two Xeon servers with 10 GbE NICs under
//! KVM/QEMU. None of that hardware is available here, so this crate
//! provides the substitution (documented in DESIGN.md §2): a
//! deterministic discrete-event simulation with a virtual nanosecond
//! clock, in which the *real* EbbRT runtime code (event loops, Ebbs,
//! network stack) executes unmodified.
//!
//! * [`world`] — the discrete-event scheduler ([`world::SimWorld`]): a
//!   time-ordered action queue plus the driver that services each
//!   machine's per-core event managers, charging virtual CPU time that
//!   handlers declare via [`world::charge`].
//! * [`costs`] — every latency constant in one place, each with its
//!   provenance, composed into per-environment [`costs::CostProfile`]s
//!   (EbbRT-in-VM, Linux-in-VM, Linux native, OSv-in-VM). The profiles
//!   encode *path length* differences — interrupt handling, data
//!   copies, syscalls, context switches, scheduler ticks — which is
//!   what the paper attributes its wins to.
//! * [`nic`] — a virtio-style simulated NIC: receive queues with RSS
//!   flow steering, per-queue interrupts that can be disabled for
//!   polling (the adaptive driver of §3.2), and a transmit path that
//!   hands frames to the switch.
//! * [`link`] — links with bandwidth/latency and a learning switch
//!   connecting machine NICs.
//! * [`machine`] — assembles a simulated machine: an
//!   `ebbrt_core::Runtime` on the virtual clock, a NIC, and a cost
//!   profile; includes the Linux scheduler-tick model.
//!
//! Determinism: same inputs ⇒ identical event order and timestamps;
//! every queue is ordered by `(time, sequence)` and all state lives on
//! the single driving thread.

pub mod costs;
pub mod link;
pub mod machine;
pub mod nic;
pub mod world;

pub use costs::CostProfile;
pub use link::{LinkParams, Switch};
pub use machine::{SendCell, SimMachine};
pub use nic::{Frame, Mac, SimNic};
pub use world::{charge, SimWorld};
