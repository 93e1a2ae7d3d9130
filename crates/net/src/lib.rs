//! # ebbrt-net — the EbbRT zero-copy network stack (§3.6)
//!
//! A from-scratch Ethernet/ARP/IPv4/UDP/TCP/DHCP stack written to the
//! paper's design points:
//!
//! * **Zero-copy**: payloads travel as [`ebbrt_core::iobuf::Chain`]s;
//!   headers are *prepended into headroom* on transmit and *advanced
//!   past* on receive. No byte is copied between the (simulated) device
//!   and the application.
//! * **No in-stack buffering**: received data is delivered to the
//!   application handler synchronously from the driver; applications
//!   manage their own transmit buffering against the advertised window
//!   ("EbbRT allows the application to directly manage its own
//!   buffering").
//! * **RCU connection lookup**: the demux table is an
//!   [`ebbrt_core::rcu_hash::RcuHashMap`], so the per-packet lookup
//!   takes no locks and no atomic read-modify-writes.
//! * **Per-connection core affinity**: RSS steers a connection's frames
//!   to one core and all its protocol state is manipulated only there.
//! * **Adaptive polling** ([`driver`]): the virtio driver switches from
//!   interrupts to polling under load and back, exactly as the §3.2
//!   example describes.
//! * **One device boundary** ([`nic`]): the stack reaches its NIC only
//!   through the [`Nic`] trait, so any device — the simulator's, or a
//!   [`loopback`] pair on bare runtimes — can carry it.
//!
//! Figure 2's path (§3.5) runs on a callback, not a future:
//! [`arp::ArpCache::find`] continues synchronously on a cache hit —
//! header fill and transmit run in the caller — and on a miss queues the
//! continuation, delivering `Ok(mac)` on the reply or
//! [`arp::ArpTimeout`] to every queued waiter when retries run out. The
//! other async results in the system are delivered the same way, exactly
//! once, as a `Result` (`Messenger::call_chain`, `RemoteShipper::call`).

#![forbid(unsafe_code)]

pub mod arp;
pub mod conn_slab;
pub mod dhcp;
pub mod driver;
pub mod ebb;
pub mod loopback;
pub mod netif;
pub mod nic;
pub mod qos_policy;
pub mod stats;
pub mod syncache;
pub mod tcp;
pub mod types;
pub mod wire;

pub use netif::NetIf;
pub use nic::Nic;
pub use types::Ipv4Addr;
