//! Inter-machine messaging and RPC.
//!
//! Every EbbRT instance (hosted or native) runs a [`Messenger`]
//! listening on a well-known TCP port. Messages are addressed to an
//! [`EbbId`]: the receiving side dispatches to the handler registered
//! for that id — this is how an Ebb's representatives on different
//! machines talk to each other while hiding the distribution from
//! their callers (§3.3).
//!
//! The RPC half makes the failure contract of the distributed-Ebb
//! layer real: every call issued through [`Messenger::call_with_timeout`]
//! resolves **exactly once** — with the response, with
//! [`RemoteError::Timeout`] when the per-call timer (one entry in the
//! calling core's timer wheel) fires first, or with
//! [`RemoteError::Unreachable`] the moment the peer's connection dies
//! (reset, teardown, ARP failure, a malformed frame). No call ever
//! hangs.
//!
//! Wire format per message: `len:u32 | ebb_id:u32 | kind:u8 |
//! rpc_id:u64 | payload…` (kind 0 = one-way/request, 1 = response);
//! `len` counts everything after itself.
//!
//! **Payloads are chains of buffer descriptors in both directions.** A
//! message leaves as the sender's chain with the 17-byte header written
//! into the headroom its first buffer was marshalled behind
//! ([`Chain::prepend_in_place`]; a chain that is shared, or has no
//! room, gets a pooled header buffer in front instead) and its
//! segments queued on the connection as they are. It arrives by
//! appending the TCP stream's chains to a per-connection reassembly
//! *chain* and splitting complete frames off the front, so a handler's
//! payload is a view of the buffers the bytes were received in. The
//! `&[u8]` entry points ([`Messenger::send`], [`Messenger::call`],
//! [`Messenger::call_with_timeout`], [`Messenger::respond`]) copy the
//! slice once into a pooled buffer and take the same path.

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::rc::{Rc, Weak};
use std::sync::Arc;

use ebbrt_core::clock::Ns;
use ebbrt_core::cpu::CoreId;
use ebbrt_core::ebb::{
    not_installed, EbbId, EbbManager, EbbRef, MulticoreEbb, NoRoot, RemoteError, SystemEbb,
    FIRST_DYNAMIC_ID,
};
use ebbrt_core::event::TimerToken;
use ebbrt_core::iobuf::{Buf, Chain, IoBuf, MutIoBuf};
use ebbrt_core::qos::{self, CounterHandle};
use ebbrt_core::runtime;
use ebbrt_net::netif::{ConnHandler, NetIf, QosMatch, TcpConn};
use ebbrt_net::types::Ipv4Addr;
use ebbrt_sim::SendCell;

/// The well-known messenger port.
pub const MESSENGER_PORT: u16 = 9000;

/// Default RPC timeout (virtual time): generous against simulated
/// round trips (tens of microseconds) while keeping "owner never
/// answers" failures prompt.
pub const DEFAULT_RPC_TIMEOUT_NS: Ns = 50_000_000;

/// Bytes of a frame in front of its payload: `len | ebb_id | kind |
/// rpc_id`.
pub const FRAME_HEADER_LEN: usize = 4 + FRAME_BODY_MIN;

/// The smallest value a frame's `len` field can hold: the header
/// fields behind it, with an empty payload.
const FRAME_BODY_MIN: usize = 4 + 1 + 8;

/// The largest value a frame's `len` field may hold. A peer announcing
/// more is dropped before a byte of the frame is buffered, so one
/// connection can never hold more than this in reassembly. Sized for
/// the biggest legitimate message — a re-sync page of sixteen
/// protocol-maximum (1 MiB) values — with room to spare.
pub const FRAME_BODY_MAX: usize = 64 << 20;

/// Name of the per-machine counter ([`ebbrt_core::qos`]) bumped for
/// every peer connection dropped over a malformed frame: a `len` below
/// the header's own size or above [`FRAME_BODY_MAX`], or a batch table
/// its payload cannot hold.
pub const BAD_FRAME_COUNTER: &str = "messenger.drop.bad_frame";

/// Reassembly segment count past which fragmentation is checked, and
/// the pinned-to-logical ratio that triggers compaction: a peer
/// trickling a frame a few bytes per packet must not pin a receive
/// region per packet.
const RX_COMPACT_SEGS: usize = 64;
const RX_COMPACT_FACTOR: usize = 4;

/// Message kinds.
const KIND_SEND: u8 = 0;
const KIND_RESPONSE: u8 = 1;

/// Handler for messages addressed to one Ebb id:
/// `(src, rpc_id, payload)`. To reply, call [`Messenger::respond`]
/// with the given `rpc_id`.
pub type MsgHandler = Rc<dyn Fn(Ipv4Addr, u64, Chain<IoBuf>)>;

/// A request/response handler for one Ebb id: `(src, payload,
/// responder)`. Unlike [`MsgHandler`] it replies through an opaque
/// [`Responder`] rather than a wire rpc id, so the **same** handler
/// serves a direct call (the response is its own frame) and a sub-call
/// of a batched frame (the response is one slot of the batch's reply).
/// Registered with [`Messenger::register_call`].
pub type CallHandler = Rc<dyn Fn(Ipv4Addr, Chain<IoBuf>, Responder)>;

/// Where one RPC's response goes: straight back onto the wire (a
/// direct call) or into its slot of a batched reply. Consumed by
/// [`Responder::send`]; plain data, so a handler can hold it across
/// events without boxing anything.
pub struct Responder {
    inner: ResponderInner,
}

enum ResponderInner {
    Wire {
        messenger: Rc<Messenger>,
        dst: Ipv4Addr,
        id: EbbId,
        rpc_id: u64,
    },
    Slot {
        collector: Rc<BatchCollector>,
        index: usize,
    },
}

impl Responder {
    /// Sends the response. Either way the chain's segments travel as
    /// descriptor clones: a direct call frames them as they are; a
    /// batched sub-call's chain is linked (or, when small, copied) into
    /// the batch's one reply frame.
    pub fn send(self, payload: Chain<IoBuf>) {
        match self.inner {
            ResponderInner::Wire {
                messenger,
                dst,
                id,
                rpc_id,
            } => messenger.enqueue(dst, frame(id, KIND_RESPONSE, rpc_id, payload)),
            ResponderInner::Slot { collector, index } => {
                collector.fill(index, batch::STATUS_OK, payload)
            }
        }
    }
}

/// Fills `out` (the [`FRAME_HEADER_LEN`] bytes in front of a payload
/// of `payload_len` bytes).
fn write_header(out: &mut [u8], id: EbbId, kind: u8, rpc_id: u64, payload_len: usize) {
    let body_len = FRAME_BODY_MIN + payload_len;
    assert!(
        body_len <= FRAME_BODY_MAX,
        "messenger payload of {payload_len} bytes exceeds the frame cap"
    );
    out[0..4].copy_from_slice(&(body_len as u32).to_be_bytes());
    out[4..8].copy_from_slice(&id.0.to_be_bytes());
    out[8] = kind;
    out[9..17].copy_from_slice(&rpc_id.to_be_bytes());
}

/// Frames `payload`: the header goes into the headroom in front of its
/// first buffer when that buffer is the sender's alone, into a pooled
/// buffer of its own otherwise.
fn frame(id: EbbId, kind: u8, rpc_id: u64, mut payload: Chain<IoBuf>) -> Chain<IoBuf> {
    let payload_len = payload.len();
    match payload.prepend_in_place(FRAME_HEADER_LEN) {
        Some(hdr) => write_header(hdr, id, kind, rpc_id, payload_len),
        None => {
            let mut hdr = MutIoBuf::with_capacity(FRAME_HEADER_LEN);
            write_header(hdr.append(FRAME_HEADER_LEN), id, kind, rpc_id, payload_len);
            payload.push_front(hdr.freeze());
        }
    }
    payload
}

/// Frames a payload held as a slice: one copy, into a pooled buffer
/// with the header in front.
fn frame_bytes(id: EbbId, kind: u8, rpc_id: u64, payload: &[u8]) -> Chain<IoBuf> {
    let mut buf = MutIoBuf::with_headroom(payload.len(), FRAME_HEADER_LEN);
    buf.append_slice(payload);
    write_header(
        buf.prepend(FRAME_HEADER_LEN),
        id,
        kind,
        rpc_id,
        payload.len(),
    );
    Chain::single(buf.freeze())
}

/// A pending RPC: the continuation, its timeout timer (owned by the
/// issuing core's wheel), the peer it went to — so the waiter can
/// be failed fast when that peer's connection dies — and the issuing
/// core, where the continuation is delivered (responses may arrive on
/// another core's peer connection).
struct RpcWaiter {
    reply: Box<dyn FnOnce(Result<Chain<IoBuf>, RemoteError>)>,
    timer: Option<(CoreId, TimerToken)>,
    peer: Ipv4Addr,
    home: CoreId,
}

struct PeerConn {
    conn: TcpConn,
    addr: Cell<Option<Ipv4Addr>>,
    established: bool,
    /// Segments of frames awaiting connection establishment or send
    /// window, oldest first; drained from `on_connected` /
    /// `on_window_open`.
    pending: VecDeque<IoBuf>,
    /// Inbound stream not yet split into frames: the received chains,
    /// appended as they came.
    rx: Chain<IoBuf>,
}

/// The per-machine messenger.
pub struct Messenger {
    netif: Rc<NetIf>,
    peers: RefCell<HashMap<Ipv4Addr, Rc<RefCell<PeerConn>>>>,
    handlers: RefCell<HashMap<u32, MsgHandler>>,
    /// Request/response handlers ([`Messenger::register_call`]): the
    /// registry the batch unwrapper dispatches sub-calls through.
    call_handlers: RefCell<HashMap<u32, CallHandler>>,
    rpc_waiters: RefCell<HashMap<u64, RpcWaiter>>,
    next_rpc: Cell<u64>,
    bad_frame_h: CounterHandle,
    /// Messages dispatched (diagnostic).
    pub dispatched: Cell<u64>,
    /// RPCs that resolved with an error (diagnostic).
    pub rpc_failures: Cell<u64>,
}

/// The per-core representative of the machine's messenger Ebb
/// ([`SystemEbb::Messenger`]): every core's rep shares the one
/// [`Messenger`], which already speaks [`EbbId`]s on the wire — this
/// is the local half of cross-machine Ebb messaging.
pub struct MessengerEbb {
    messenger: Weak<Messenger>,
}

impl MessengerEbb {
    /// The machine's messenger.
    ///
    /// # Panics
    ///
    /// Panics if the messenger has been dropped.
    pub fn messenger(&self) -> Rc<Messenger> {
        self.messenger
            .upgrade()
            .expect("Messenger dropped under its Ebb")
    }
}

impl MulticoreEbb for MessengerEbb {
    type Root = NoRoot;

    fn create_rep(root: &Arc<NoRoot>, _: CoreId) -> Self {
        match **root {}
    }

    fn handle_fault(_: &EbbManager, id: EbbId, core: CoreId) -> Self {
        not_installed(id, core, "Messenger::start")
    }
}

/// The well-known [`EbbRef`] of the current machine's messenger.
pub fn messenger_ref() -> EbbRef<MessengerEbb> {
    EbbRef::well_known(SystemEbb::Messenger)
}

/// Resolves the current machine's [`Messenger`] through the
/// translation table (any core, inside an event).
pub fn local_messenger() -> Rc<Messenger> {
    messenger_ref().with(|rep| rep.messenger())
}

impl Messenger {
    /// Starts the messenger on `netif`: binds the listener and
    /// registers the instance under [`SystemEbb::Messenger`] (one rep
    /// per core of the owning machine).
    pub fn start(netif: &Rc<NetIf>) -> Rc<Messenger> {
        let rt = netif.machine().runtime();
        let m = Rc::new(Messenger {
            netif: Rc::clone(netif),
            peers: RefCell::new(HashMap::new()),
            handlers: RefCell::new(HashMap::new()),
            call_handlers: RefCell::new(HashMap::new()),
            rpc_waiters: RefCell::new(HashMap::new()),
            next_rpc: Cell::new(1),
            bad_frame_h: qos::register_in(rt, BAD_FRAME_COUNTER),
            dispatched: Cell::new(0),
            rpc_failures: Cell::new(0),
        });
        runtime::install_on_all_cores(rt, SystemEbb::Messenger.id(), {
            let m = Rc::downgrade(&m);
            move |_core| MessengerEbb {
                messenger: Weak::clone(&m),
            }
        });
        // Under an installed QoS policy with a "control" class, the
        // messenger's inter-machine frames ride that class — RPCs and
        // replica traffic must not starve behind a tenant's data
        // backlog on the classed transmit scheduler.
        if let Some(policy) = netif.qos_policy() {
            if let Some(control) = policy.config().class_id("control") {
                policy.add_rule(QosMatch::LocalPort(MESSENGER_PORT), control);
                policy.add_rule(QosMatch::RemotePort(MESSENGER_PORT), control);
            }
        }
        let me = Rc::clone(&m);
        netif
            .listen(MESSENGER_PORT, move |conn| {
                let addr = conn.tuple().map(|t| t.remote.0);
                let peer = Rc::new(RefCell::new(PeerConn {
                    conn: conn.clone(),
                    addr: Cell::new(addr),
                    established: true,
                    pending: VecDeque::new(),
                    rx: Chain::new(),
                }));
                // Learn the peer so responses reuse this connection — but
                // never displace an existing entry: if this machine already
                // holds a (typically outbound) connection to that address
                // with RPCs in flight on it, overwriting would misattribute
                // that connection's lifecycle (and its waiters) to this one.
                if let Some(a) = addr {
                    me.peers
                        .borrow_mut()
                        .entry(a)
                        .or_insert_with(|| Rc::clone(&peer));
                }
                // The handler holds a strong reference: a live connection
                // keeps its messenger alive (the resulting reference cycle
                // lasts for the simulation's lifetime, which is fine).
                Rc::new(MessengerConn {
                    messenger: Rc::clone(&me),
                    peer,
                }) as Rc<dyn ConnHandler>
            })
            .expect("messenger port already bound on this machine");
        m
    }

    /// The network interface this messenger is bound to.
    pub fn netif(&self) -> &Rc<NetIf> {
        &self.netif
    }

    /// Registers the handler for messages addressed to `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` collides with the well-known [`SystemEbb`] range
    /// without being one of the designated wire ids — machine-local
    /// system ids must never become message destinations.
    pub fn register(&self, id: EbbId, handler: impl Fn(Ipv4Addr, u64, Chain<IoBuf>) + 'static) {
        assert!(
            id.0 >= FIRST_DYNAMIC_ID || SystemEbb::is_wire_id(id),
            "Messenger::register: {id:?} is in the reserved SystemEbb range \
             but is not a designated wire id"
        );
        self.handlers.borrow_mut().insert(id.0, Rc::new(handler));
    }

    /// Registers a request/response handler for `id`: the handler
    /// replies through the [`Responder`] it is handed, which lets the
    /// **same** registration serve direct calls and sub-calls of a
    /// batched frame. Prefer this over [`Self::register`] for any id
    /// that answers RPCs.
    pub fn register_call(
        self: &Rc<Self>,
        id: EbbId,
        handler: impl Fn(Ipv4Addr, Chain<IoBuf>, Responder) + 'static,
    ) {
        let h: CallHandler = Rc::new(handler);
        self.call_handlers.borrow_mut().insert(id.0, Rc::clone(&h));
        // Direct (unbatched) requests route through the same handler,
        // responding on the frame's own rpc id.
        let weak = Rc::downgrade(self);
        self.register(id, move |src, rpc_id, payload| {
            let Some(messenger) = weak.upgrade() else {
                return;
            };
            let inner = ResponderInner::Wire {
                messenger,
                dst: src,
                id,
                rpc_id,
            };
            h(src, payload, Responder { inner });
        });
    }

    /// Removes the handler for `id` (an owner tearing its service
    /// down); requests for it are dropped from then on, so callers see
    /// their timeout fire (batched sub-calls get an unserved status).
    pub fn unregister(&self, id: EbbId) {
        self.handlers.borrow_mut().remove(&id.0);
        self.call_handlers.borrow_mut().remove(&id.0);
    }

    /// Sends a one-way message to Ebb `id` on the machine at `dst`.
    pub fn send(self: &Rc<Self>, dst: Ipv4Addr, id: EbbId, payload: &[u8]) {
        self.enqueue(dst, frame_bytes(id, KIND_SEND, 0, payload));
    }

    /// Issues an RPC to Ebb `id` on `dst` with the default timeout;
    /// `reply` runs with the response payload. Failures (timeout,
    /// unreachable peer) drop the continuation silently — use
    /// [`Self::call_with_timeout`] when the caller needs them.
    pub fn call(
        self: &Rc<Self>,
        dst: Ipv4Addr,
        id: EbbId,
        payload: &[u8],
        reply: impl FnOnce(Chain<IoBuf>) + 'static,
    ) {
        self.call_with_timeout(dst, id, payload, DEFAULT_RPC_TIMEOUT_NS, move |r| {
            if let Ok(resp) = r {
                reply(resp);
            }
        });
    }

    /// Issues an RPC to Ebb `id` on `dst`. `reply` runs **exactly
    /// once**: with the response, with [`RemoteError::Timeout`] when no
    /// response arrives within `timeout_ns` (a single timer-wheel entry
    /// on the calling core; `0` disables the timer), or with
    /// [`RemoteError::Unreachable`] as soon as the peer's connection
    /// fails. Must be called inside an event on this messenger's
    /// machine (the timer and the waiter belong to it).
    pub fn call_with_timeout(
        self: &Rc<Self>,
        dst: Ipv4Addr,
        id: EbbId,
        payload: &[u8],
        timeout_ns: Ns,
        reply: impl FnOnce(Result<Chain<IoBuf>, RemoteError>) + 'static,
    ) {
        let rpc_id = self.next_rpc_id();
        let frame = frame_bytes(id, KIND_SEND, rpc_id, payload);
        self.issue(dst, rpc_id, frame, timeout_ns, reply);
    }

    /// [`Self::call_with_timeout`] for a request that already sits in
    /// buffers: the chain's segments are framed and queued as they are.
    pub fn call_chain(
        self: &Rc<Self>,
        dst: Ipv4Addr,
        id: EbbId,
        payload: Chain<IoBuf>,
        timeout_ns: Ns,
        reply: impl FnOnce(Result<Chain<IoBuf>, RemoteError>) + 'static,
    ) {
        let rpc_id = self.next_rpc_id();
        let frame = frame(id, KIND_SEND, rpc_id, payload);
        self.issue(dst, rpc_id, frame, timeout_ns, reply);
    }

    /// [`Self::call_chain`] for a caller that may have to send the same
    /// request again: `with_retained` receives a descriptor clone of
    /// the payload — taken *after* framing, so the clone never costs
    /// the request its in-place header — and returns the continuation.
    pub(crate) fn call_chain_retaining<R>(
        self: &Rc<Self>,
        dst: Ipv4Addr,
        id: EbbId,
        payload: Chain<IoBuf>,
        timeout_ns: Ns,
        with_retained: impl FnOnce(Chain<IoBuf>) -> R,
    ) where
        R: FnOnce(Result<Chain<IoBuf>, RemoteError>) + 'static,
    {
        let rpc_id = self.next_rpc_id();
        let frame = frame(id, KIND_SEND, rpc_id, payload);
        let mut retained = frame.clone();
        retained.advance(FRAME_HEADER_LEN);
        self.issue(dst, rpc_id, frame, timeout_ns, with_retained(retained));
    }

    fn next_rpc_id(&self) -> u64 {
        let rpc_id = self.next_rpc.get();
        self.next_rpc.set(rpc_id + 1);
        rpc_id
    }

    /// Registers the waiter (and its timeout) for `rpc_id`, then queues
    /// the request frame.
    fn issue(
        self: &Rc<Self>,
        dst: Ipv4Addr,
        rpc_id: u64,
        frame: Chain<IoBuf>,
        timeout_ns: Ns,
        reply: impl FnOnce(Result<Chain<IoBuf>, RemoteError>) + 'static,
    ) {
        let timer = if timeout_ns > 0 {
            let me = Rc::downgrade(self);
            Some(runtime::with_current_on(|rt, core| {
                let token = rt.event_manager(core).set_timer(timeout_ns, move || {
                    if let Some(m) = me.upgrade() {
                        // The one-shot timer consumed itself; nothing
                        // to cancel.
                        m.resolve_rpc(rpc_id, Err(RemoteError::Timeout), false);
                    }
                });
                (core, token)
            }))
        } else {
            None
        };
        self.rpc_waiters.borrow_mut().insert(
            rpc_id,
            RpcWaiter {
                reply: Box::new(reply),
                timer,
                peer: dst,
                home: runtime::with_current_on(|_, core| core),
            },
        );
        self.enqueue(dst, frame);
    }

    /// RPCs currently awaiting a response (diagnostic: leak detector
    /// for the failure paths).
    pub fn pending_rpcs(&self) -> usize {
        self.rpc_waiters.borrow().len()
    }

    /// Sends the response for `rpc_id` back to `dst` (from a message
    /// handler).
    pub fn respond(self: &Rc<Self>, dst: Ipv4Addr, id: EbbId, rpc_id: u64, payload: &[u8]) {
        self.enqueue(dst, frame_bytes(id, KIND_RESPONSE, rpc_id, payload));
    }

    /// Resolves waiter `rpc_id` (if still pending) with `outcome`,
    /// cancelling its timeout timer unless the timer itself fired.
    fn resolve_rpc(
        self: &Rc<Self>,
        rpc_id: u64,
        outcome: Result<Chain<IoBuf>, RemoteError>,
        cancel_timer: bool,
    ) {
        let waiter = self.rpc_waiters.borrow_mut().remove(&rpc_id);
        let Some(w) = waiter else { return };
        if cancel_timer {
            if let Some((core, token)) = w.timer {
                cancel_rpc_timer(core, token);
            }
        }
        if outcome.is_err() {
            self.rpc_failures.set(self.rpc_failures.get() + 1);
        }
        // Deliver on the issuing core: the continuation touches state
        // (TCP connections, timers) that belongs there, and responses
        // may land on another core's peer connection.
        runtime::with_current_on(|rt, current| {
            if current == w.home {
                (w.reply)(outcome);
            } else {
                let cell = SendCell::new((w.reply, outcome));
                rt.spawn(w.home, move || {
                    let (reply, outcome) = cell.into_inner();
                    reply(outcome);
                });
            }
        });
    }

    /// Aborts the connection to `addr` (RST-style: unacked and queued
    /// frames are discarded, never retransmitted) and fails every RPC
    /// pending on it; the next send opens a fresh connection.
    ///
    /// This is the transport's **zombie fence**. Declaring a call on
    /// `addr` timed out is a failure-detector verdict; requests queued
    /// behind it in the connection would otherwise be retransmitted
    /// and delivered arbitrarily late — e.g. a write shipped to a
    /// since-deposed primary, applied after its replacement has
    /// acknowledged newer writes. Dropping the connection bounds every
    /// frame's lifetime by the failure detection that condemned it.
    pub fn reset_peer(self: &Rc<Self>, addr: Ipv4Addr) {
        let peer = self.peers.borrow_mut().remove(&addr);
        if let Some(peer) = peer {
            let conn = peer.borrow().conn.clone();
            // Abort on the connection's affinity core (its TCP state
            // lives there); the messenger's waiters are failed from
            // the calling core either way.
            runtime::with_current_on(|rt, current| match conn.core() {
                Some(home) if home != current => {
                    let cell = SendCell::new(conn);
                    rt.spawn(home, move || cell.into_inner().abort());
                }
                _ => conn.abort(),
            });
        }
        self.on_peer_close(addr);
    }

    /// Fails every RPC pending on `addr` and forgets the peer, so the
    /// next call opens a fresh connection. Runs from the peer
    /// connection's close/reset path.
    fn on_peer_close(self: &Rc<Self>, addr: Ipv4Addr) {
        self.peers.borrow_mut().remove(&addr);
        let failed: Vec<u64> = self
            .rpc_waiters
            .borrow()
            .iter()
            .filter(|(_, w)| w.peer == addr)
            .map(|(&id, _)| id)
            .collect();
        for rpc_id in failed {
            self.resolve_rpc(rpc_id, Err(RemoteError::Unreachable), true);
        }
    }

    /// Drops the connection a malformed frame arrived on: counted
    /// under [`BAD_FRAME_COUNTER`], aborted (whatever it still held —
    /// reassembly bytes, parked frames — is discarded), and, when it is
    /// the connection registered for its address, every RPC waiting on
    /// that address fails [`RemoteError::Unreachable`]. Runs on the
    /// connection's own core (from its receive path).
    fn drop_bad_peer(self: &Rc<Self>, peer: &Rc<RefCell<PeerConn>>) {
        qos::bump(self.bad_frame_h);
        let (conn, addr) = {
            let mut p = peer.borrow_mut();
            p.established = false;
            p.pending.clear();
            p.rx = Chain::new();
            (p.conn.clone(), p.addr.get())
        };
        conn.abort();
        if let Some(addr) = addr {
            if self.is_registered(addr, peer) {
                self.on_peer_close(addr);
            }
        }
    }

    /// Whether `peer` is the connection this messenger sends to `addr`
    /// on (and attributes `addr`'s waiters to).
    fn is_registered(&self, addr: Ipv4Addr, peer: &Rc<RefCell<PeerConn>>) -> bool {
        self.peers
            .borrow()
            .get(&addr)
            .is_some_and(|p| Rc::ptr_eq(p, peer))
    }

    /// Queues a framed message's segments on the connection to `dst`
    /// (opened on first use) and sends what the window allows. Stream
    /// framing makes the segment boundaries invisible to the receiver,
    /// so a value linked into a payload leaves the machine as the very
    /// descriptors the store holds.
    fn enqueue(self: &Rc<Self>, dst: Ipv4Addr, frame: Chain<IoBuf>) {
        let peer = self.peer_for(dst);
        peer.borrow_mut().pending.extend(frame);
        Self::flush_peer_on_conn_core(&peer);
    }

    /// Flushes `peer`, hopping to its TCP connection's affinity core
    /// first when called from another core (multi-core machines answer
    /// RPCs and fan out replication from whatever core the triggering
    /// event ran on; the connection must only be driven from its own).
    fn flush_peer_on_conn_core(peer: &Rc<RefCell<PeerConn>>) {
        let conn_core = peer.borrow().conn.core();
        runtime::with_current_on(|rt, current| match conn_core {
            Some(core) if core != current => {
                let cell = SendCell::new(Rc::clone(peer));
                rt.spawn(core, move || Self::flush_peer(&cell.into_inner()));
            }
            _ => Self::flush_peer(peer),
        });
    }

    /// Sends as many parked segments as the window allows (descriptor
    /// clones only); the rest wait for establishment or window space.
    /// Everything that fits the window rides **one** chained send —
    /// the burst pays one TCP borrow/charge instead of one per message.
    fn flush_peer(peer: &Rc<RefCell<PeerConn>>) {
        loop {
            let (conn, burst) = {
                let mut p = peer.borrow_mut();
                if !p.established {
                    return;
                }
                let Some(front) = p.pending.front() else {
                    return;
                };
                let mut window = p.conn.send_window();
                if front.len() > window {
                    return;
                }
                let mut burst = Chain::new();
                while let Some(front) = p.pending.front() {
                    if front.len() > window {
                        break;
                    }
                    window -= front.len();
                    burst.push_back(p.pending.pop_front().expect("front checked"));
                }
                (p.conn.clone(), burst)
            };
            if conn.send(burst).is_err() {
                // NotConnected: the close path will fail the waiters.
                return;
            }
        }
    }

    fn peer_for(self: &Rc<Self>, dst: Ipv4Addr) -> Rc<RefCell<PeerConn>> {
        if let Some(p) = self.peers.borrow().get(&dst) {
            return Rc::clone(p);
        }
        // Open a connection lazily.
        let peer = Rc::new(RefCell::new(PeerConn {
            // Placeholder; replaced right after connect() returns.
            conn: TcpConn::dangling(),
            addr: Cell::new(Some(dst)),
            established: false,
            pending: VecDeque::new(),
            rx: Chain::new(),
        }));
        let handler = Rc::new(MessengerConn {
            messenger: Rc::clone(self),
            peer: Rc::clone(&peer),
        });
        let conn = self.netif.connect(dst, MESSENGER_PORT, handler);
        peer.borrow_mut().conn = conn;
        self.peers.borrow_mut().insert(dst, Rc::clone(&peer));
        peer
    }

    /// Feeds inbound bytes from one peer connection: the received chain
    /// joins the connection's reassembly chain, and every complete
    /// frame is split off its front and dispatched — the handler's
    /// payload is a view of the receive buffers.
    ///
    /// A `len` that cannot be a frame's (shorter than the header
    /// fields it counts, longer than [`FRAME_BODY_MAX`]) drops the
    /// connection on the spot: nothing a peer sends can index past a
    /// short frame or make this machine buffer without bound.
    fn on_bytes(self: &Rc<Self>, src: Ipv4Addr, peer: &Rc<RefCell<PeerConn>>, data: Chain<IoBuf>) {
        {
            let mut p = peer.borrow_mut();
            p.rx.append_chain(data);
            p.rx.compact_if_amplified(RX_COMPACT_SEGS, RX_COMPACT_FACTOR);
        }
        loop {
            let (id, kind, rpc_id, payload) = {
                let mut p = peer.borrow_mut();
                let mut hdr = [0u8; FRAME_HEADER_LEN];
                let have = p.rx.len().min(FRAME_HEADER_LEN);
                if have < 4 {
                    return;
                }
                p.rx.cursor()
                    .read_exact(&mut hdr[..have])
                    .expect("length checked");
                let body_len = u32::from_be_bytes([hdr[0], hdr[1], hdr[2], hdr[3]]) as usize;
                if !(FRAME_BODY_MIN..=FRAME_BODY_MAX).contains(&body_len) {
                    drop(p);
                    self.drop_bad_peer(peer);
                    return;
                }
                if p.rx.len() < 4 + body_len {
                    return;
                }
                p.rx.advance(FRAME_HEADER_LEN);
                (
                    u32::from_be_bytes([hdr[4], hdr[5], hdr[6], hdr[7]]),
                    hdr[8],
                    u64::from_be_bytes(hdr[9..17].try_into().expect("eight bytes")),
                    p.rx.split_to(body_len - FRAME_BODY_MIN),
                )
            };
            self.dispatched.set(self.dispatched.get() + 1);
            match kind {
                KIND_RESPONSE => self.resolve_rpc(rpc_id, Ok(payload), true),
                // The batched-call unwrapper: one inbound frame carrying
                // several function-shipped calls for this machine (see
                // [`batch`] for the envelope).
                _ if id == SystemEbb::RemoteBatch.id().0 => {
                    if !self.serve_batch(src, rpc_id, &payload) {
                        self.drop_bad_peer(peer);
                        return;
                    }
                }
                _ => {
                    let handler = self.handlers.borrow().get(&id).cloned();
                    if let Some(h) = handler {
                        h(src, rpc_id, payload);
                    }
                }
            }
        }
    }

    /// Serves one inbound multi-call frame: every sub-call dispatches
    /// through the call-handler registry, the (possibly asynchronous)
    /// replies land in a shared collector, and the whole batch answers
    /// with **one** response frame once the last slot fills. A sub-call
    /// with no registered handler gets [`batch::STATUS_UNSERVED`] — the
    /// shipper treats that slot like a timed-out single call. Returns
    /// `false`, having dispatched nothing, when the payload is not a
    /// well-formed envelope.
    fn serve_batch(self: &Rc<Self>, src: Ipv4Addr, rpc_id: u64, payload: &Chain<IoBuf>) -> bool {
        let Some(calls) = batch::decode_request(payload) else {
            return false;
        };
        let collector = BatchCollector::new(self, src, rpc_id, calls.len());
        for (index, (id, body)) in calls.enumerate() {
            let handler = self.call_handlers.borrow().get(&id).cloned();
            match handler {
                Some(h) => {
                    let inner = ResponderInner::Slot {
                        collector: Rc::clone(&collector),
                        index,
                    };
                    h(src, body, Responder { inner });
                }
                None => collector.fill(index, batch::STATUS_UNSERVED, Chain::new()),
            }
        }
        true
    }
}

/// One sub-call's reply: batch status byte plus response payload.
type BatchSlot = Option<(u8, Chain<IoBuf>)>;

/// Accumulates the sub-call replies of one inbound batch; sends the
/// batched response frame when the last slot fills.
struct BatchCollector {
    messenger: Weak<Messenger>,
    src: Ipv4Addr,
    rpc_id: u64,
    slots: RefCell<Vec<BatchSlot>>,
    remaining: Cell<usize>,
}

impl BatchCollector {
    fn new(m: &Rc<Messenger>, src: Ipv4Addr, rpc_id: u64, n: usize) -> Rc<BatchCollector> {
        Rc::new(BatchCollector {
            messenger: Rc::downgrade(m),
            src,
            rpc_id,
            slots: RefCell::new(vec![None; n]),
            remaining: Cell::new(n),
        })
    }

    fn fill(&self, i: usize, status: u8, body: Chain<IoBuf>) {
        {
            let mut slots = self.slots.borrow_mut();
            if slots[i].is_some() {
                return; // a handler must not double-respond; tolerate it
            }
            slots[i] = Some((status, body));
        }
        self.remaining.set(self.remaining.get() - 1);
        if self.remaining.get() > 0 {
            return;
        }
        let slots = std::mem::take(&mut *self.slots.borrow_mut());
        let resp = batch::encode_response(slots.iter().map(|s| {
            let (status, body) = s.as_ref().expect("all slots filled");
            (*status, body)
        }));
        if let Some(m) = self.messenger.upgrade() {
            let id = SystemEbb::RemoteBatch.id();
            m.enqueue(self.src, frame(id, KIND_RESPONSE, self.rpc_id, resp));
        }
    }
}

/// The multi-call envelope riding [`SystemEbb::RemoteBatch`]: the
/// remote-call coalescing wire format.
///
/// Request payload: `n:u32 | (ebb_id:u32 | len:u32 | payload…)*n` —
/// `n` function-shipped calls for Ebbs owned by the receiving machine,
/// coalesced into one messenger frame.
///
/// Response payload: `n:u32 | (status:u8 | len:u32 | payload…)*n`,
/// slot `i` answering request sub-call `i`. Status `0` carries the
/// handler's reply; status `1` means no handler was registered for the
/// sub-call's id (the shipper fails that slot over like a timeout).
///
/// Both tables are marshalled into **one** pooled buffer per envelope
/// ([`WireWriter`](ebbrt_core::iobuf::wire::WireWriter)): sub-payloads up to
/// [`wire::INLINE_PAYLOAD_MAX`](ebbrt_core::iobuf::wire::INLINE_PAYLOAD_MAX)
/// are copied in between their table entries, longer ones are linked by
/// descriptor between slices of it. Decoding checks the whole table
/// against the bytes that are there before yielding (or sizing)
/// anything, then hands each sub-payload out as a view of the inbound
/// chain.
pub mod batch {
    use ebbrt_core::iobuf::wire::WireWriter;
    use ebbrt_core::iobuf::{Chain, Cursor, IoBuf};

    /// The sub-call was served; its payload is the handler's reply.
    pub const STATUS_OK: u8 = 0;
    /// No handler registered for the sub-call's id.
    pub const STATUS_UNSERVED: u8 = 1;

    /// Encodes a request envelope from `(ebb_id, payload)` sub-calls.
    pub fn encode_request<'a>(
        calls: impl ExactSizeIterator<Item = (u32, &'a Chain<IoBuf>)>,
    ) -> Chain<IoBuf> {
        let mut w = WireWriter::new();
        w.u32(calls.len() as u32);
        for (id, payload) in calls {
            w.u32(id).bytes32_chain(payload);
        }
        w.finish()
    }

    /// Encodes a response envelope from `(status, payload)` slots.
    pub fn encode_response<'a>(
        slots: impl ExactSizeIterator<Item = (u8, &'a Chain<IoBuf>)>,
    ) -> Chain<IoBuf> {
        let mut w = WireWriter::new();
        w.u32(slots.len() as u32);
        for (status, payload) in slots {
            w.u8(status).bytes32_chain(payload);
        }
        w.finish()
    }

    /// The entries of a validated envelope, each `(tag, payload)` with
    /// the payload a zero-copy view of the inbound chain.
    pub struct Entries<'a> {
        cur: Cursor<'a, IoBuf>,
        left: usize,
        /// Whether the tag is a `u32` (request: the Ebb id) or a `u8`
        /// (response: the status).
        wide_tag: bool,
    }

    impl Entries<'_> {
        fn tag(cur: &mut Cursor<'_, IoBuf>, wide: bool) -> Option<u32> {
            if wide {
                cur.read_u32_be()
            } else {
                cur.read_u8().map(u32::from)
            }
        }
    }

    impl Iterator for Entries<'_> {
        type Item = (u32, Chain<IoBuf>);

        fn next(&mut self) -> Option<Self::Item> {
            if self.left == 0 {
                return None;
            }
            self.left -= 1;
            let tag = Self::tag(&mut self.cur, self.wide_tag)?;
            let len = self.cur.read_u32_be()? as usize;
            Some((tag, self.cur.read_exact_zero_copy(len)?))
        }

        fn size_hint(&self) -> (usize, Option<usize>) {
            (self.left, Some(self.left))
        }
    }

    impl ExactSizeIterator for Entries<'_> {}

    /// Walks the table once without touching a payload: `None` unless
    /// the chain holds all `n` entries it announces. The count is
    /// checked against the bytes that remain first — an entry is at
    /// least its tag and length — so a four-byte payload cannot
    /// announce four billion entries and have anyone size anything
    /// from it.
    fn decode(payload: &Chain<IoBuf>, wide_tag: bool) -> Option<Entries<'_>> {
        let entry_min = if wide_tag { 4 + 4 } else { 1 + 4 };
        let mut probe = payload.cursor();
        let n = probe.read_u32_be()? as usize;
        if n > probe.remaining() / entry_min {
            return None;
        }
        for _ in 0..n {
            Entries::tag(&mut probe, wide_tag)?;
            let len = probe.read_u32_be()? as usize;
            probe.skip(len)?;
        }
        let mut cur = payload.cursor();
        cur.skip(4)?;
        Some(Entries {
            cur,
            left: n,
            wide_tag,
        })
    }

    /// Decodes a request envelope into `(ebb_id, payload)` sub-calls;
    /// `None` for anything but a complete, well-formed table.
    pub fn decode_request(payload: &Chain<IoBuf>) -> Option<Entries<'_>> {
        decode(payload, true)
    }

    /// Decodes a response envelope into `(status, payload)` slots;
    /// `None` for anything but a complete, well-formed table.
    pub fn decode_response(
        payload: &Chain<IoBuf>,
    ) -> Option<impl ExactSizeIterator<Item = (u8, Chain<IoBuf>)> + '_> {
        decode(payload, false).map(|entries| entries.map(|(status, body)| (status as u8, body)))
    }
}

/// Cancels an RPC timeout timer, hopping to the owning core's event
/// queue when the response arrived on a different core (timer tokens
/// are per-core; the wheel asserts cross-core use).
fn cancel_rpc_timer(core: CoreId, token: TimerToken) {
    runtime::with_current_on(|rt, current| {
        if current == core {
            rt.event_manager(core).cancel_timer(token);
        } else {
            rt.spawn(core, move || {
                runtime::with_current(|rt| rt.local_event_manager().cancel_timer(token));
            });
        }
    });
}

struct MessengerConn {
    messenger: Rc<Messenger>,
    peer: Rc<RefCell<PeerConn>>,
}

impl ConnHandler for MessengerConn {
    fn on_connected(&self, conn: &TcpConn) {
        {
            let mut p = self.peer.borrow_mut();
            p.established = true;
            if p.addr.get().is_none() {
                p.addr.set(conn.tuple().map(|t| t.remote.0));
            }
        }
        Messenger::flush_peer(&self.peer);
    }

    fn on_receive(&self, conn: &TcpConn, data: Chain<IoBuf>) {
        let src = match conn.tuple() {
            Some(t) => t.remote.0,
            None => return,
        };
        self.messenger.on_bytes(src, &self.peer, data);
    }

    fn on_window_open(&self, _conn: &TcpConn) {
        Messenger::flush_peer(&self.peer);
    }

    fn on_close(&self, _conn: &TcpConn) {
        // Reset, teardown, or ARP failure on the connect path: whatever
        // was in flight to this peer is undeliverable. Fail the waiters
        // now rather than letting each timeout trickle in — but only if
        // this connection is the one registered for the address: a
        // secondary (inbound) connection closing must not fail RPCs
        // riding the still-healthy registered one.
        let Some(addr) = self.peer.borrow().addr.get() else {
            return;
        };
        if self.messenger.is_registered(addr, &self.peer) {
            self.messenger.on_peer_close(addr);
        }
    }
}

#[cfg(test)]
mod tests;
