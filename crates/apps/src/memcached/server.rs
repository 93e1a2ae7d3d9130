//! The single-machine server: the RCU-backed [`Store`] and the
//! per-connection [`ServerConn`] that frames requests off the receive
//! chain, serves them, and sends the batched replies — all inside the
//! event that delivered the bytes.

use std::cell::{OnceCell, RefCell};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ebbrt_core::cache::BoxCache;
use ebbrt_core::clock::{charge, charged_so_far};
use ebbrt_core::cpu::CoreId;
use ebbrt_core::ebb::{EbbRef, MulticoreEbb, SystemEbb};
use ebbrt_core::iobuf::{Chain, IoBuf};
use ebbrt_core::rcu_hash::RcuHashMap;
use ebbrt_core::runtime::{self, Runtime};
use ebbrt_net::netif::{local_netif, try_local_netif, ConnHandler, TcpConn};
use ebbrt_net::qos_policy::ClassCounters;

use super::codec::{
    drain_frames, push_hit, push_status, BadFrame, Header, KeyBuf, MAGIC_REQUEST, MEMCACHED_PORT,
    OP_GET, OP_SET, SET_COMPACT_FACTOR, STATUS_KEY_NOT_FOUND, STATUS_OK, STATUS_SERVER_BUSY,
    STATUS_UNKNOWN_COMMAND,
};

/// The shared store: an RCU hash table from key to value. GETs are
/// lock-free (no atomic RMWs); SETs take the writer path. Values are
/// descriptor *chains* sharing the driver buffers they arrived in, so
/// storing and serving never copies value bytes.
pub struct Store {
    map: RcuHashMap<Vec<u8>, Chain<IoBuf>>,
    /// GETs served.
    pub gets: AtomicU64,
    /// SETs served.
    pub sets: AtomicU64,
    /// GET misses.
    pub misses: AtomicU64,
    /// Connections torn down because their parked-reply backlog
    /// exceeded [`ServerConfig::max_unsent_bytes`] (a peer requesting
    /// faster than it reads).
    pub backlog_drops: AtomicU64,
}

/// The per-core representative of a [`Store`] Ebb: every core shares
/// the one RCU-backed store through its root. Applications pass the
/// copyable [`StoreRef`] around instead of threading `Arc<Store>`.
pub struct StoreEbb {
    store: Arc<Store>,
}

impl StoreEbb {
    /// The underlying store.
    pub fn store(&self) -> &Arc<Store> {
        &self.store
    }
}

impl MulticoreEbb for StoreEbb {
    type Root = Store;

    fn create_rep(root: &Arc<Store>, _core: CoreId) -> Self {
        StoreEbb {
            store: Arc::clone(root),
        }
    }
}

/// A copyable, `Send` reference to a registered [`Store`].
pub type StoreRef = EbbRef<StoreEbb>;

impl Store {
    /// Creates a store in `domain` (the server machine's RCU domain).
    pub fn new(domain: Arc<ebbrt_core::rcu::RcuDomain>) -> Arc<Store> {
        Arc::new(Store {
            map: RcuHashMap::with_capacity(domain, 4096),
            gets: Default::default(),
            sets: Default::default(),
            misses: Default::default(),
            backlog_drops: Default::default(),
        })
    }

    /// Registers this store as a dynamic Ebb in `rt` (the server
    /// machine), returning the [`StoreRef`] that [`serve`] and any
    /// other machine-side code dereferences per core.
    pub fn register(self: &Arc<Self>, rt: &Runtime) -> StoreRef {
        let id = rt.ebbs().allocate_id();
        rt.ebbs()
            .register_root_arc::<StoreEbb>(id, Arc::clone(self));
        EbbRef::from_id(id)
    }

    /// Number of stored keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Inserts a single-segment value directly (warmup/pre-population
    /// path, bypassing the network).
    pub fn insert_raw(&self, key: Vec<u8>, value: IoBuf) {
        self.map.insert(key, Chain::single(value));
    }

    /// Inserts a value as a descriptor chain — the zero-copy path used
    /// by the SET handler (the chain's segments are sub-views of the
    /// receive buffers). The key is copied only when the store does not
    /// hold it yet.
    pub fn insert_chain(&self, key: &[u8], value: Chain<IoBuf>) {
        self.map.insert_borrowed(key, value);
    }

    /// Lock-free lookup (read-side critical section required). The
    /// returned chain shares storage with the stored value.
    pub fn get_raw(&self, key: &[u8]) -> Option<Chain<IoBuf>> {
        self.map.get(key, |v| v.clone())
    }

    /// Applies `f` to every stored entry (reader-side; concurrent
    /// writers may add or remove around it). The transfer machinery's
    /// snapshot iterator: a source machine walks its whole store and
    /// filters by the requested range.
    pub fn for_each(&self, f: impl FnMut(&Vec<u8>, &Chain<IoBuf>)) {
        self.map.for_each(f);
    }
}

/// The form a value that arrived as a view of receive buffers is stored
/// in: the view itself (zero-copy) — unless it is small relative to the
/// regions it would pin ([`SET_COMPACT_FACTOR`]), in which case it is
/// copied once ([`Chain::compact`]) into a pooled region of the
/// smallest value class that fits (16-byte steps to 128 B, then four
/// per doubling to 1 KiB; exact-size beyond), so stored keys can't
/// starve the receive-buffer pool. A value already in such a region —
/// the fan-out's view of the fronting replica's copy — is kept as it
/// is. A replaced value's region returns to the freeing core's list
/// after its RCU grace period, and the next SET of that class takes
/// it. The one rule for every way a value reaches a store: a client
/// SET, a function-shipped SET, a replication fan-out, a re-sync page.
pub fn at_rest(mut value: Chain<IoBuf>) -> Chain<IoBuf> {
    value.compact_if_amplified(0, SET_COMPACT_FACTOR);
    value
}

/// Virtual CPU cost of parsing + hashing + store access per request
/// (measured behaviour of memcached's request handling, minus all
/// kernel/stack costs which the profiles charge separately).
pub const APP_BASE_NS: u64 = 500;

/// Server tunables.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Byte cap on a connection's parked over-window reply backlog
    /// (`unsent`). Descriptor chains are cheap, but they pin
    /// stored-value regions; a peer that keeps requesting while never
    /// reading would otherwise grow the backlog without bound. A peer
    /// whose window is **zero** with more than this parked — or any
    /// peer past 4× this regardless of window — is torn down (RST)
    /// and counted in [`Store::backlog_drops`]; readers making window
    /// progress under the hard ceiling are never penalized.
    pub max_unsent_bytes: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            // Generous: several maximum-size (> 64 KiB window) replies
            // may park; only a chronically stalled reader trips it.
            max_unsent_bytes: 512 * 1024,
        }
    }
}

/// Per-connection server state: the not-yet-parsed tail of the request
/// stream, held as a zero-copy chain of receive-buffer views, plus the
/// not-yet-sent tail of the response stream for replies larger than
/// the peer's receive window.
pub struct ServerConn {
    store: Arc<Store>,
    config: ServerConfig,
    /// Rarely-populated per-connection I/O state, boxed lazily so an
    /// idle established connection pays one null pointer for it. Only
    /// a request split across receive events leaves a `pending` tail,
    /// and only a reply exceeding the peer's window parks in `unsent`;
    /// the box goes back to the core's cache ([`ColdBoxes`]) once
    /// both drain empty, so a well-behaved connection between requests
    /// holds nothing here.
    cold: RefCell<Option<Box<ConnCold>>>,
    /// The connection's resolved shed policy (class deadline + per-
    /// class counters), cached on first receive — `None` when the
    /// machine has no QoS policy installed, in which case the serve
    /// path is byte-for-byte the pre-QoS one.
    shed: OnceCell<Option<ShedPolicy>>,
}

/// The lazily-boxed cold half of a [`ServerConn`] (see the `cold`
/// field): request-reassembly tail plus parked-response backlog.
#[derive(Default)]
struct ConnCold {
    /// Bytes not yet forming a complete request (descriptor chain over
    /// the driver buffers; nothing is copied into it).
    pending: Chain<IoBuf>,
    /// Response bytes awaiting send window. The stack refuses rather
    /// than buffers ([`SendError::WindowFull`]), so replies that
    /// exceed the advertised window — a GET of a value larger than
    /// 64 KiB — park here (descriptor chain, zero-copy) and drain from
    /// [`ConnHandler::on_window_open`]. Capped by
    /// [`ServerConfig::max_unsent_bytes`].
    ///
    /// [`SendError::WindowFull`]: ebbrt_net::netif::SendError::WindowFull
    unsent: Chain<IoBuf>,
    /// The peer half-closed while replies were still parked: our half
    /// closes once `unsent` has drained.
    peer_closed: bool,
}

impl ConnCold {
    /// A box from the calling core's cache ([`SystemEbb::ConnCold`]),
    /// or a fresh one when the cache and its depot are dry.
    fn new() -> Box<ConnCold> {
        ColdBoxes::on(SystemEbb::ConnCold, ColdBoxes::take).unwrap_or_default()
    }
}

/// The per-core cache of emptied [`ConnCold`] boxes. A request split
/// across two receive events takes a box and gives it back once it
/// drains, so a few boxes per core serve any number of such requests.
/// A connection with nothing cold still holds no box
/// ([`ServerConn::cold_resident`] reads `false`): the cache belongs to
/// the core.
type ColdBoxes = BoxCache<ConnCold>;

/// Takes the connection's cold box, if any, and returns it emptied to
/// the calling core's cache.
fn release_cold(cold: &mut Option<Box<ConnCold>>) {
    let Some(mut b) = cold.take() else { return };
    *b = ConnCold::default();
    ColdBoxes::on(SystemEbb::ConnCold, |c| c.give(b));
}

/// Per-connection overload-serving parameters, resolved once from the
/// machine's installed [`ebbrt_net::netif::QosPolicy`] and the
/// connection's class.
pub(super) struct ShedPolicy {
    /// Service deadline from the class's [`ebbrt_core::qos::ClassConfig`];
    /// `None` = count but never shed.
    deadline_ns: Option<u64>,
    /// The class's counters (served, shed, deadline missed).
    pub(super) counters: Rc<ClassCounters>,
}

impl ServerConn {
    /// Creates a handler serving `store` (exposed for direct-drive
    /// tests and benches; the listener path goes through [`serve`]).
    pub fn new(store: Arc<Store>) -> ServerConn {
        Self::with_config(store, ServerConfig::default())
    }

    /// As [`ServerConn::new`] with explicit tunables.
    pub fn with_config(store: Arc<Store>, config: ServerConfig) -> ServerConn {
        ServerConn {
            store,
            config,
            cold: RefCell::new(None),
            shed: OnceCell::new(),
        }
    }

    /// Bytes buffered awaiting a complete request (diagnostic).
    pub fn pending_len(&self) -> usize {
        self.cold.borrow().as_ref().map_or(0, |c| c.pending.len())
    }

    /// Response bytes parked awaiting send window (diagnostic).
    pub fn unsent_len(&self) -> usize {
        self.cold.borrow().as_ref().map_or(0, |c| c.unsent.len())
    }

    /// Whether the cold box is currently allocated (diagnostic: an
    /// idle connection must answer `false`, or bytes-per-idle-conn
    /// accounting is off by `size_of::<ConnCold>()`).
    pub fn cold_resident(&self) -> bool {
        self.cold.borrow().is_some()
    }

    /// Frames requests out of `data` — prepended with any buffered
    /// partial tail — handing each to `each`. The cold box is touched
    /// only at the edges (tail taken before framing, leftover stashed
    /// after), so no `RefCell` borrow is held across the callback and
    /// the fast path — complete requests, nothing buffered — never
    /// allocates it.
    ///
    /// A [`BadFrame`] ends the connection: the cold box is dropped
    /// and the connection aborted (RST) before the error is returned,
    /// so callers only have to stop.
    pub(super) fn drain(
        &self,
        conn: &TcpConn,
        data: Chain<IoBuf>,
        each: impl FnMut(&Header, Chain<IoBuf>),
    ) -> Result<(), BadFrame> {
        let mut pending = match self.cold.borrow_mut().as_mut() {
            Some(c) => std::mem::take(&mut c.pending),
            None => Chain::new(),
        };
        let framed = drain_frames(&mut pending, data, MAGIC_REQUEST, each);
        let mut cold = self.cold.borrow_mut();
        if framed.is_err() {
            release_cold(&mut cold);
            drop(cold);
            conn.abort();
        } else if !pending.is_empty() {
            cold.get_or_insert_with(ConnCold::new).pending = pending;
        } else if cold.as_ref().is_some_and(|c| c.unsent.is_empty()) {
            release_cold(&mut cold);
        }
        framed
    }

    /// Resolves (once) the connection's class and its serving policy
    /// from the machine's installed QoS policy.
    pub(super) fn shed_policy(&self, conn: &TcpConn) -> Option<&ShedPolicy> {
        self.shed
            .get_or_init(|| {
                let policy = try_local_netif()?.qos_policy()?;
                let cfg = policy.config();
                let class = conn.class();
                Some(ShedPolicy {
                    deadline_ns: cfg.classes[class.index(cfg.classes.len())].deadline_ns,
                    counters: Rc::clone(policy.counters(class)),
                })
            })
            .as_ref()
    }

    fn process(&self, conn: &TcpConn, data: Chain<IoBuf>) {
        // Batch every response of this event-loop pass into one chain:
        // a pipelined burst of requests pays the send path once.
        let mut responses: Chain<IoBuf> = Chain::new();
        let shed = self.shed_policy(conn);
        let framed = match shed {
            Some(sp) if sp.deadline_ns.is_some() => {
                self.process_with_deadline(conn, data, sp, &mut responses)
            }
            _ => self.drain(conn, data, |h, body| {
                self.handle_request(h, body, &mut responses);
                if let Some(sp) = shed {
                    sp.counters.served.bump();
                }
            }),
        };
        if framed.is_ok() {
            self.send_batch(conn, responses);
        }
    }

    /// The overload-aware serve path for a class with a service
    /// deadline: every parsed request carries its enqueue tick (the
    /// virtual instant it finished framing, including CPU charged so
    /// far this pass), and service checks the deadline *before* doing
    /// the work — a request that would already be stale when served is
    /// answered [`STATUS_SERVER_BUSY`] instead, for the cost of a
    /// header. When the core is falling behind (events queued behind
    /// this one — [`ebbrt_core::event::EventManager::backlog_depth`]),
    /// service goes LIFO: the freshest requests still meet their
    /// deadline and the stale tail sheds, instead of FIFO dragging
    /// every request just past its deadline and shedding *all* of
    /// them. Clients correlate by opaque, so per-pass response order
    /// is protocol-legal.
    fn process_with_deadline(
        &self,
        conn: &TcpConn,
        data: Chain<IoBuf>,
        sp: &ShedPolicy,
        responses: &mut Chain<IoBuf>,
    ) -> Result<(), BadFrame> {
        let deadline = sp.deadline_ns.expect("checked by caller");
        let base = runtime::with_current(|rt| rt.now_ns());
        let mut reqs: Vec<(Header, Chain<IoBuf>, u64)> = Vec::new();
        self.drain(conn, data, |h, body| {
            reqs.push((*h, body, base + charged_so_far()));
        })?;
        let behind = runtime::with_current(|rt| rt.local_event_manager().backlog_depth()) > 0;
        if behind {
            reqs.reverse();
        }
        for (h, body, tick) in reqs {
            let now = base + charged_so_far();
            if now.saturating_sub(tick) > deadline {
                sp.counters.deadline_missed.bump();
                sp.counters.shed.bump();
                push_status(responses, h.opcode, STATUS_SERVER_BUSY, h.opaque);
            } else {
                self.handle_request(&h, body, responses);
                sp.counters.served.bump();
            }
        }
        Ok(())
    }

    /// Sends one event pass's batched responses: directly when the
    /// window fits (the fast path), else parked zero-copy in `unsent`
    /// and drained on window openings, with the stalled-reader backlog
    /// cap. Shared by the plain and sharded servers (the latter also
    /// routes function-shipped reply completions through it).
    pub(super) fn send_batch(&self, conn: &TcpConn, responses: Chain<IoBuf>) {
        if !responses.is_empty() {
            // Replies go out synchronously from the same event that
            // received the request — carrying the ACK too. Fast path:
            // nothing parked and the whole batch fits the window, so
            // send it directly (no unsent round-trip, no re-walk).
            if self.unsent_len() == 0 && responses.len() <= conn.send_window() {
                let _ = conn.send(responses);
                return;
            }
            // Overflow: park the batch (descriptor moves only) and
            // drain as much as the window allows; the rest goes out
            // from `on_window_open` when acknowledgments open space.
            self.cold
                .borrow_mut()
                .get_or_insert_with(ConnCold::new)
                .unsent
                .append_chain(responses);
            self.flush(conn);
            // Cap check *after* flushing, so only bytes the peer could
            // not accept count. A healthy reader making window
            // progress is tolerated up to a hard ceiling — its backlog
            // is bounded by its pipeline depth and drains at window
            // rate; a stalled reader (zero window) that keeps
            // requesting grows the backlog without bound and is torn
            // down at the soft cap.
            let parked = self.unsent_len();
            let stalled = conn.send_window() == 0;
            if parked > self.config.max_unsent_bytes
                && (stalled || parked > 4 * self.config.max_unsent_bytes)
            {
                self.store.backlog_drops.fetch_add(1, Ordering::Relaxed);
                release_cold(&mut self.cold.borrow_mut());
                conn.abort();
            }
        }
    }

    /// Sends as much of the parked response chain as the window
    /// allows (descriptor moves only).
    pub(super) fn flush(&self, conn: &TcpConn) {
        loop {
            let chunk = {
                let mut cold = self.cold.borrow_mut();
                let Some(c) = cold.as_mut() else { return };
                if c.unsent.is_empty() {
                    // Fully drained: free the box once nothing cold
                    // remains, restoring the idle-conn byte budget —
                    // and finish a close that waited for the drain.
                    let peer_closed = c.peer_closed;
                    if peer_closed || c.pending.is_empty() {
                        release_cold(&mut cold);
                    }
                    drop(cold);
                    if peer_closed {
                        conn.close();
                    }
                    return;
                }
                let window = conn.send_window();
                if window == 0 {
                    return;
                }
                let take = c.unsent.len().min(window);
                c.unsent.split_to(take)
            };
            if conn.send(chunk).is_err() {
                // NotConnected (the peer vanished): responses are
                // undeliverable, stop trying. WindowFull cannot happen
                // for a window-clamped chunk.
                return;
            }
        }
    }

    /// Handles one framed request whose `body` was carved zero-copy out
    /// of the receive chain; the reply is appended to `out`. Every
    /// request gets one — an opcode this server does not implement is
    /// answered [`STATUS_UNKNOWN_COMMAND`].
    pub(super) fn handle_request(&self, h: &Header, body: Chain<IoBuf>, out: &mut Chain<IoBuf>) {
        charge(APP_BASE_NS + (body.len() as u64) / 16);
        let mut scratch = KeyBuf::default();
        let key = scratch.read(h, &body);
        match h.opcode {
            OP_GET => {
                self.store.gets.fetch_add(1, Ordering::Relaxed);
                // Lock-free RCU read; we are inside an event.
                match self.store.map.get(key, |v| v.clone()) {
                    Some(v) => push_hit(out, h.opaque, v),
                    None => {
                        self.store.misses.fetch_add(1, Ordering::Relaxed);
                        push_status(out, OP_GET, STATUS_KEY_NOT_FOUND, h.opaque);
                    }
                }
            }
            OP_SET => {
                self.store.sets.fetch_add(1, Ordering::Relaxed);
                // The value is the rest of the body: store the chain
                // itself (sub-views of the receive buffers; zero-copy).
                let mut value = body;
                value.advance(h.value_offset());
                self.store.insert_chain(key, at_rest(value));
                push_status(out, OP_SET, STATUS_OK, h.opaque);
            }
            op => push_status(out, op, STATUS_UNKNOWN_COMMAND, h.opaque),
        }
    }
}

impl ConnHandler for ServerConn {
    fn on_receive(&self, conn: &TcpConn, data: Chain<IoBuf>) {
        self.process(conn, data);
    }

    fn on_window_open(&self, conn: &TcpConn) {
        // Acknowledgments opened send space: drain parked response
        // bytes (large GET replies that exceeded the peer's window).
        self.flush(conn);
    }

    /// The peer is done sending (FIN) or the connection is gone
    /// (reset): drops the request tail nothing can complete any more
    /// and closes our half — at once, or when replies still parked for
    /// a half-closed peer have drained — so a connection its client
    /// closed does not sit in CloseWait forever.
    fn on_close(&self, conn: &TcpConn) {
        let mut cold = self.cold.borrow_mut();
        match cold.as_mut() {
            Some(c) if !c.unsent.is_empty() => {
                c.pending = Chain::new();
                c.peer_closed = true;
            }
            _ => {
                release_cold(&mut cold);
                drop(cold);
                conn.close();
            }
        }
    }
}

/// Starts the memcached server on the **current machine**: resolves
/// the network manager through its well-known Ebb id
/// ([`local_netif`]) and installs the listener; per-connection
/// handlers run on their RSS cores and resolve `store` there.
///
/// Must run inside an event on the server machine — the idiom is
/// `server.spawn(core0, move || memcached::serve(store_ref))`,
/// which works because [`StoreRef`] is `Copy + Send` (an Ebb id, not
/// an `Rc` smuggled through a `SendCell`).
pub fn serve(store: StoreRef) {
    serve_with(store, ServerConfig::default());
}

/// As [`serve`] with explicit tunables.
pub fn serve_with(store: StoreRef, config: ServerConfig) {
    let netif = local_netif();
    netif
        .listen(MEMCACHED_PORT, move |_conn| {
            // Accept runs on the connection's affinity core: resolve the
            // store's rep there (faulting it in on first use).
            let store = store.with(|s| Arc::clone(s.store()));
            Rc::new(ServerConn::with_config(store, config)) as Rc<dyn ConnHandler>
        })
        .expect("memcached port already bound on this machine");
}

/// Starts the memcached server on `rt` over a fresh [`Store`] in its
/// RCU domain — the store registers as an Ebb and the server comes up
/// with the machine's next event. Returns the store, for the caller to
/// populate and read back.
pub fn serve_on(rt: &Arc<Runtime>) -> Arc<Store> {
    let store = Store::new(Arc::clone(rt.rcu()));
    let store_ref = store.register(rt);
    rt.spawn(CoreId(0), move || serve(store_ref));
    store
}

#[cfg(test)]
mod tests;
