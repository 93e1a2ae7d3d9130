//! memcached re-implemented against the EbbRT interfaces (§4.2).
//!
//! "Our memcached implementation is a simple, multi-core application
//! that supports the standard memcached binary protocol. … Our
//! implementation receives TCP data synchronously from the network
//! card. It is then passed through the network stack and parsed in the
//! application in order to construct a response, which is then sent out
//! synchronously. Key-value pairs are stored in an RCU hash table."
//!
//! This module does exactly that: the
//! [`ConnHandler`](ebbrt_net::netif::ConnHandler) runs on the
//! connection's RSS core straight off the (simulated) device interrupt,
//! parses binary-protocol requests across segment boundaries, serves
//! GET/SET from an [`ebbrt_core::rcu_hash::RcuHashMap`], and sends the
//! response from the same event.
//!
//! The request pipeline is **allocation- and copy-free end to end**
//! (§3.6's IOBuf discipline, measurable through
//! [`ebbrt_core::iobuf::stats`]):
//!
//! * Incoming TCP chains are appended to a per-connection backlog
//!   *chain* — no reassembly buffer, no `memcpy`.
//! * Requests are parsed with a [`Cursor`](ebbrt_core::iobuf::Cursor)
//!   straight out of the driver buffers; the 24-byte header and the key
//!   are read into stack scratch (parsing, not payload movement).
//! * SET values are carved out of the receive chain with
//!   [`Chain::split_to`](ebbrt_core::iobuf::Chain::split_to) and stored
//!   in the RCU table as descriptor chains sharing the driver buffers'
//!   regions.
//! * GET responses chain a pooled header segment with a *clone of the
//!   stored value's descriptors* — the value bytes are never touched.
//!   Values larger than [`ebbrt_core::iobuf::pool::SMALL_CAPACITY`]
//!   ride in regions of the large buffer class; the response path is
//!   identical, only the class the header's pool hit lands in differs.
//! * All responses of one event-loop pass are batched into a single
//!   chain and sent once, so a pipelined burst pays one send path.
//!   Replies that exceed the peer's advertised window (a GET of a
//!   value larger than 64 KiB) park zero-copy in a per-connection
//!   `unsent` chain and drain from `on_window_open` — the application
//!   obeys the stack's no-buffering contract instead of dropping the
//!   reply.
//!
//! The same server binary runs on every environment profile — only the
//! machine's [`ebbrt_sim::CostProfile`] changes — which is how the
//! Figure 5/6 comparison lines are produced.
//!
//! The directory is cut along the wire protocols' seams: [`codec`] is
//! the memcached format and the one framing loop, [`client`] and
//! [`server`] its two users; the multi-machine store is [`shard`] (the
//! connection front end — the only one of the four that knows
//! [`codec`]), [`replica`] (the replication engine), [`shardop`] (the
//! format the replicas speak among themselves) and [`resync`] (the
//! catch-up driver). Module map in `docs/ARCHITECTURE.md`.

pub mod client;
pub mod codec;
pub mod replica;
pub mod resync;
pub mod server;
pub mod shard;
pub mod shardop;

pub use client::{Burst, Client, Workload};
pub use codec::*;
pub use replica::{register_shard, shipper_for, ShardRoot, StoreShardEbb};
pub use resync::{resync_range, ResyncOpts, ResyncOutcome};
pub use server::{
    at_rest, serve, serve_on, serve_with, ServerConfig, ServerConn, Store, StoreEbb, StoreRef,
    APP_BASE_NS,
};
pub use shard::{serve_sharded, ClusterView, ShardConfig, ShardedServerConn, ViewState};
pub use shardop::{encode_add_peer, encode_clear_forward, encode_set_forward};
