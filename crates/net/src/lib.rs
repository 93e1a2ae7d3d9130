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
//!
//! The `futures` fast path of Figure 2 is reproduced verbatim:
//! `EthArpSend` resolves the next hop via `ArpFind` returning a
//! `Future<Mac>`; on a cache hit the continuation — header fill and
//! transmit — runs synchronously.

pub mod arp;
pub mod conn_slab;
pub mod dhcp;
pub mod driver;
pub mod ebb;
pub mod lan;
pub mod netif;
pub mod qos_policy;
pub mod stats;
pub mod syncache;
pub mod tcp;
pub mod types;
pub mod wire;

pub use lan::Lan;
pub use netif::NetIf;
pub use types::Ipv4Addr;
