//! The single-machine server: the RCU-backed [`Store`] and the
//! per-connection [`ServerConn`] that frames requests off the receive
//! chain, serves them, and sends the batched replies — all inside the
//! event that delivered the bytes.

use std::cell::{OnceCell, RefCell};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ebbrt_core::cache::{Depot, ObjCache};
use ebbrt_core::clock::{charge, charged_so_far};
use ebbrt_core::cpu::CoreId;
use ebbrt_core::ebb::{EbbId, EbbManager, EbbRef, MulticoreEbb, SystemEbb};
use ebbrt_core::iobuf::{Chain, IoBuf};
use ebbrt_core::rcu_hash::RcuHashMap;
use ebbrt_core::runtime::{self, Runtime};
use ebbrt_net::netif::{local_netif, try_local_netif, ConnHandler, TcpConn};
use ebbrt_net::qos_policy::ClassCounters;
use ebbrt_sim::SimMachine;

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
    /// A box from the calling core's cache ([`ColdBoxes`]), or a fresh
    /// one when the cache and its depot are dry.
    fn new() -> Box<ConnCold> {
        with_cold_boxes(|b| b.cache.take(&b.depot, |_| {})).map_or_else(Box::default, |(b, _)| b)
    }
}

/// Takes the connection's cold box, if any, and returns it emptied to
/// the calling core's cache ([`ColdBoxes`]).
fn release_cold(cold: &mut Option<Box<ConnCold>>) {
    let Some(mut b) = cold.take() else { return };
    *b = ConnCold::default();
    with_cold_boxes(|boxes| boxes.cache.give(b, &boxes.depot));
}

/// Emptied cold boxes one core keeps for reuse. A request split across
/// two receive events takes a box and gives it back once it drains, so
/// a few boxes per core serve any number of such requests; past this
/// watermark a core parks a quarter of them in the machine's depot,
/// where a core that runs dry finds them.
const COLD_BOXES_KEPT: usize = 64;

/// The per-core cache of emptied [`ConnCold`] boxes over the machine's
/// depot — an Ebb ([`SystemEbb::ConnCold`]) whose root is the depot,
/// lazily registered, reached through the calling core's context as the
/// buffer pool's rep is. A connection with nothing cold still holds no
/// box ([`ServerConn::cold_resident`] reads `false`): the cache belongs
/// to the core.
struct ColdBoxes {
    cache: ObjCache<Box<ConnCold>>,
    depot: Arc<Depot<Box<ConnCold>>>,
}

impl MulticoreEbb for ColdBoxes {
    type Root = Depot<Box<ConnCold>>;

    /// Presized: the list never grows past [`COLD_BOXES_KEPT`]. A
    /// flush parks a quarter of it in the depot.
    fn create_rep(depot: &Arc<Self::Root>, _core: CoreId) -> Self {
        ColdBoxes {
            cache: ObjCache::new(COLD_BOXES_KEPT, COLD_BOXES_KEPT / 4, COLD_BOXES_KEPT),
            depot: Arc::clone(depot),
        }
    }

    fn handle_fault(ebbs: &EbbManager, id: EbbId, core: CoreId) -> Self {
        Self::create_rep(&ebbs.root_or_default::<Self>(id), core)
    }
}

/// Runs `f` on the calling core's [`ColdBoxes`].
fn with_cold_boxes<R>(f: impl FnOnce(&ColdBoxes) -> R) -> R {
    runtime::with_context(|rt, core| {
        rt.ebbs()
            .with_rep_on::<ColdBoxes, R>(core, SystemEbb::ConnCold.id(), f)
    })
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
/// `server.spawn_on(core0, move || memcached::serve(store_ref))`,
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

/// Starts the memcached server on `machine` over a fresh [`Store`]
/// in its RCU domain — the store registers as an Ebb and the server
/// comes up with the machine's next event. Returns the store, for the
/// caller to populate and read back.
pub fn serve_on(machine: &Rc<SimMachine>) -> Arc<Store> {
    let store = Store::new(Arc::clone(machine.runtime().rcu()));
    let store_ref = store.register(machine.runtime());
    machine.spawn_on(CoreId(0), move || serve(store_ref));
    store
}

#[cfg(test)]
mod tests {
    use super::super::codec::{
        encode_get, encode_set, BAD_FRAME_COUNTER, MAGIC_RESPONSE, MAX_BODY_LEN,
    };
    use super::super::{Burst, Client, Workload};
    use super::*;
    use crate::spawn_with;
    use ebbrt_core::clock::Ns;
    use ebbrt_core::iobuf::{Buf, MutIoBuf};
    use ebbrt_core::qos;
    use ebbrt_net::netif::NetIf;
    use ebbrt_net::types::Ipv4Addr;
    use ebbrt_sim::{CostProfile, Lan};
    use std::cell::Cell;

    const SERVER_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);

    /// A one-core server (its stack up, not yet serving) and a
    /// one-core client on one switch.
    struct Pair {
        lan: Lan,
        server: Rc<SimMachine>,
        s_if: Rc<NetIf>,
        client: Rc<SimMachine>,
        _c_if: Rc<NetIf>,
        store: Arc<Store>,
    }

    fn pair() -> Pair {
        let lan = Lan::new();
        let vm = CostProfile::ebbrt_vm;
        let (server, s_if) = lan.machine("server", 1, vm(), [0xAA; 6], SERVER_IP);
        let (client, _c_if) = lan.machine("client", 1, vm(), [0xBB; 6], Ipv4Addr::new(10, 0, 0, 2));
        lan.world.run_to_idle();
        let store = Store::new(Arc::clone(server.runtime().rcu()));
        Pair {
            lan,
            server,
            s_if,
            client,
            _c_if,
            store,
        }
    }

    impl Pair {
        /// Starts the server. The Ebb wiring: the store registers as a
        /// dynamic Ebb and the server resolves its NetIf through the
        /// well-known id — the spawn closure carries only Copy+Send
        /// refs.
        fn serve(&self, config: ServerConfig) {
            let store_ref = self.store.register(self.server.runtime());
            self.server
                .spawn_on(CoreId(0), move || serve_with(store_ref, config));
            self.lan.world.run_to_idle();
        }

        /// Connects a client that sends `frames` in one burst, runs the
        /// world dry, and returns it.
        fn burst(&self, frames: &[Vec<u8>]) -> Rc<Client<Burst>> {
            let c = Client::spawn(&self.client, CoreId(0), SERVER_IP, Burst::new(frames));
            self.lan.world.run_to_idle();
            c
        }
    }

    #[test]
    fn set_then_get_roundtrip_over_network() {
        let p = pair();
        p.serve(ServerConfig::default());
        // Pipeline a SET and a GET in one stream (the binary protocol
        // allows pipelining; mutilate uses depth 4).
        let c = p.burst(&[
            encode_set(b"hello_key", b"world_value", 1),
            encode_get(b"hello_key", 2),
        ]);
        // SET response: bare header, OK.
        let (set_resp, _) = c.workload.reply(1);
        assert_eq!(set_resp.magic, MAGIC_RESPONSE);
        assert_eq!(set_resp.opcode, OP_SET);
        assert_eq!(set_resp.status, STATUS_OK);
        // GET response: header + 4 flags + value.
        let (get_resp, value) = c.workload.reply(2);
        assert_eq!(get_resp.status, STATUS_OK);
        assert_eq!(value, b"world_value");
        let store = &p.store;
        assert_eq!(store.len(), 1);
        assert_eq!(store.gets.load(Ordering::Relaxed), 1);
        assert_eq!(store.sets.load(Ordering::Relaxed), 1);
        // A value this small is compacted on store (a region of its
        // 16-byte value class) rather than pinning the whole receive
        // buffer.
        let stored = store.get_raw(b"hello_key").expect("stored");
        assert_eq!(stored.copy_to_vec(), b"world_value");
        assert!(stored.iter().all(|s| s.region_len() == 16));
    }

    #[test]
    fn over_window_reply_completes_after_peer_half_close() {
        // A GET of a value larger than the 64 KiB receive window
        // parks its tail in the server's unsent chain; if the client
        // half-closes right after the request (server lands in
        // CloseWait), window-open events must still drain the tail.
        let p = pair();
        let value = vec![0x7E; 100_000];
        p.store
            .insert_raw(b"big".to_vec(), IoBuf::copy_from(&value));
        p.serve(ServerConfig::default());

        let burst = Burst::half_closing(&[encode_get(b"big", 1)]);
        let c = Client::spawn(&p.client, CoreId(0), SERVER_IP, burst);
        p.lan.world.run_to_idle();
        let (h, got) = c.workload.reply(1);
        assert_eq!(h.status, STATUS_OK);
        assert!(
            got == value,
            "the parked reply tail must drain despite CloseWait"
        );
    }

    #[test]
    fn stalled_reader_past_backlog_cap_is_torn_down() {
        // A peer that keeps issuing GETs for a large value while never
        // opening its receive window parks every reply in the
        // connection's `unsent` chain. Past the configured byte cap
        // the server must tear the connection down (RST) and count it,
        // instead of pinning stored-value regions forever.
        let p = pair();
        let value = vec![0x11; 30_000];
        p.store
            .insert_raw(b"big".to_vec(), IoBuf::copy_from(&value));
        // A tight cap so a handful of parked replies trips it.
        p.serve(ServerConfig {
            max_unsent_bytes: 64 * 1024,
        });

        /// Requests forever, reads never: window 0 from the start.
        struct StalledReader {
            closed: Rc<Cell<bool>>,
        }
        impl ConnHandler for StalledReader {
            fn on_connected(&self, conn: &TcpConn) {
                conn.set_receive_window(0);
                // Pipeline many GETs of the large value; the requests
                // fit our send window even though we read nothing.
                let mut tx = Vec::new();
                for i in 0..8 {
                    tx.extend(encode_get(b"big", i));
                }
                let _ = conn.send(Chain::single(IoBuf::copy_from(&tx)));
            }
            fn on_receive(&self, _c: &TcpConn, _data: Chain<IoBuf>) {
                unreachable!("window is zero; nothing can be delivered");
            }
            fn on_close(&self, _c: &TcpConn) {
                self.closed.set(true);
            }
        }
        let closed = Rc::new(Cell::new(false));
        let handler = StalledReader {
            closed: Rc::clone(&closed),
        };
        spawn_with(&p.client, CoreId(0), handler, move |handler| {
            local_netif().connect(SERVER_IP, MEMCACHED_PORT, Rc::new(handler));
        });
        p.lan.world.run_to_idle();

        assert_eq!(
            p.store.backlog_drops.load(Ordering::Relaxed),
            1,
            "the over-cap backlog must be counted"
        );
        assert!(closed.get(), "the stalled peer must see the RST teardown");
        assert_eq!(
            p.s_if.conn_count(),
            0,
            "the server must free the connection (and its pinned backlog)"
        );
    }

    #[test]
    fn deadline_shedder_engages_before_the_backlog_rst_cap() {
        // A deep pipelined burst against a class with a tight service
        // deadline: the shedder must answer the stale tail with
        // STATUS_SERVER_BUSY — requests, not connections, absorb the
        // overload — while the stalled-reader RST cap (a different
        // failure: replies the peer never reads) stays untouched. The
        // two defenses are counted distinctly: shed requests in the
        // class's `qos.<class>.shed` counter, torn-down connections in
        // `Store::backlog_drops`.
        use ebbrt_core::qos::{ClassConfig, QosConfig};
        use ebbrt_net::netif::QosMatch;
        let p = pair();
        // Tight deadline: a burst's worth of per-request CPU charge
        // blows it after a handful of requests.
        let policy = p.s_if.install_qos(
            QosConfig::new(10_000_000_000)
                .class(ClassConfig::new("tenant").ls_weight(1).deadline_ns(2_000)),
        );
        let tenant = policy.config().class_id("tenant").unwrap();
        policy.add_rule(QosMatch::LocalPort(MEMCACHED_PORT), tenant);

        p.store
            .insert_raw(b"k".to_vec(), IoBuf::copy_from(&[0x22; 100]));
        p.serve(ServerConfig {
            max_unsent_bytes: 64 * 1024,
        });

        const REQS: u32 = 200;
        let frames: Vec<Vec<u8>> = (0..REQS).map(|i| encode_get(b"k", i)).collect();
        let c = p.burst(&frames);

        // Every request got an answer — served or shed, never silence.
        let (mut ok, mut busy) = (0u32, 0u32);
        for (h, _) in c.workload.replies.borrow().iter() {
            match h.status {
                STATUS_OK => ok += 1,
                STATUS_SERVER_BUSY => busy += 1,
                s => panic!("unexpected status {s:#06x}"),
            }
        }
        assert_eq!(c.pending_len(), 0, "response stream must frame exactly");
        assert_eq!(ok + busy, REQS, "no request may go unanswered");
        assert!(busy > 0, "deadline pressure must shed");
        assert!(ok > 0, "fresh requests must still be served");

        // Counted distinctly — and the connection-level cap never
        // engaged: the peer reads its replies, so shedding requests is
        // the right (and only) defense here.
        let snap = qos::snapshot(p.server.runtime());
        assert_eq!(snap.get(&qos::names::shed("tenant")), busy as u64);
        assert_eq!(snap.get(&qos::names::served("tenant")), ok as u64);
        assert_eq!(
            snap.get(&qos::names::deadline_missed("tenant")),
            busy as u64
        );
        assert_eq!(
            p.store.backlog_drops.load(Ordering::Relaxed),
            0,
            "the RST cap is for stalled readers, not deadline pressure"
        );
        assert_eq!(
            p.s_if.conn_count(),
            1,
            "the connection must survive shedding"
        );
    }

    #[test]
    fn get_miss_reports_not_found() {
        let p = pair();
        p.serve(ServerConfig::default());
        let c = p.burst(&[encode_get(b"missing", 9)]);
        assert_eq!(c.workload.reply(9).0.status, STATUS_KEY_NOT_FOUND);
        assert_eq!(p.store.misses.load(Ordering::Relaxed), 1);
    }

    /// A hostile or broken peer's header: counted, connection aborted,
    /// nothing parked — never framed by its own claim.
    #[test]
    fn bad_frames_abort_the_connection_and_unknown_opcodes_are_answered() {
        let p = pair();
        p.serve(ServerConfig::default());
        let claim = |magic: u8, key_len: u16, extras_len: u8, total_body: u32| {
            let h = Header {
                magic,
                opcode: OP_GET,
                key_len,
                extras_len,
                status: 0,
                total_body,
                opaque: 1,
            };
            // The header, then bytes the claim would swallow.
            [h.encode().to_vec(), vec![0xEE; 1000]].concat()
        };
        let hostile = [
            claim(MAGIC_REQUEST, 0, 0, u32::MAX), // a 4 GiB body
            claim(MAGIC_REQUEST, 0, 0, MAX_BODY_LEN as u32 + 1),
            claim(MAGIC_RESPONSE, 3, 0, 3), // wrong direction
            claim(0x42, 3, 0, 3),
            claim(MAGIC_REQUEST, 200, 8, 100), // key + extras past the body
        ];
        for (i, bytes) in hostile.iter().enumerate() {
            // A well-formed SET first: frames ahead of the bad one are
            // served, then the stream dies.
            let key = format!("before-{i}").into_bytes();
            p.burst(&[encode_set(&key, b"v", 0), bytes.clone()]);
            assert!(p.store.get_raw(&key).is_some(), "case {i}");
            assert_eq!(p.s_if.conn_count(), 0, "case {i}: connection aborted");
            assert_eq!(
                qos::snapshot(p.server.runtime()).get(BAD_FRAME_COUNTER),
                i as u64 + 1,
                "case {i}: counted"
            );
        }

        // Well-framed but not implemented (0x04 is DELETE): answered,
        // and the pipelined GET behind it still is.
        let delete = Header {
            opcode: 0x04,
            ..Header::get(1, 7)
        };
        let c = p.burst(&[
            [delete.encode().to_vec(), b"k".to_vec()].concat(),
            encode_get(b"k", 8),
        ]);
        let (unknown, _) = c.workload.reply(7);
        assert_eq!(
            (unknown.opcode, unknown.status),
            (0x04, STATUS_UNKNOWN_COMMAND)
        );
        assert_eq!(c.workload.reply(8).0.status, STATUS_KEY_NOT_FOUND);
        assert_eq!(p.s_if.conn_count(), 1, "an unknown opcode is not an error");
    }

    /// One connect / GET / close lifecycle per connection, the next one
    /// opened when the server's FIN ends the last.
    struct Lifecycle {
        left: Rc<Cell<u32>>,
    }

    impl Workload for Lifecycle {
        fn on_connected(&self, client: &Client<Self>) {
            // A GET, and the start of a request that never completes:
            // the server parks it in the connection's cold box.
            let bytes = [encode_get(b"k", 1), vec![MAGIC_REQUEST; 10]].concat();
            client
                .send(Chain::single(IoBuf::copy_from(&bytes)))
                .expect("fits the window");
        }

        fn on_reply(&self, client: &Client<Self>, h: &Header, _value: Chain<IoBuf>, _l: Ns) {
            assert_eq!(h.status, STATUS_OK);
            client.close();
        }

        fn on_close(&self, _client: &Client<Self>) {
            self.left.set(self.left.get() - 1);
            if self.left.get() > 0 {
                let left = Rc::clone(&self.left);
                Client::new(Lifecycle { left }).open(SERVER_IP, MEMCACHED_PORT);
            }
        }
    }

    #[test]
    fn closed_connections_leave_nothing_behind() {
        const LIFECYCLES: u32 = 1_000;
        let p = pair();
        p.store.insert_raw(b"k".to_vec(), IoBuf::copy_from(b"v"));
        // The product listener, keeping a handle on every ServerConn.
        let conns: Rc<RefCell<Vec<Rc<ServerConn>>>> = Rc::default();
        let args = (Arc::clone(&p.store), Rc::clone(&conns));
        spawn_with(&p.server, CoreId(0), args, |(store, conns)| {
            local_netif()
                .listen(MEMCACHED_PORT, move |_| {
                    let sc = Rc::new(ServerConn::new(Arc::clone(&store)));
                    conns.borrow_mut().push(Rc::clone(&sc));
                    sc as Rc<dyn ConnHandler>
                })
                .expect("port free");
        });
        let left = Rc::new(Cell::new(LIFECYCLES));
        Client::spawn(
            &p.client,
            CoreId(0),
            SERVER_IP,
            Lifecycle {
                left: Rc::clone(&left),
            },
        );
        p.lan.world.run_to_idle();
        assert_eq!(left.get(), 0, "every lifecycle saw the server's FIN");
        assert_eq!(conns.borrow().len(), LIFECYCLES as usize);
        assert_eq!(p.s_if.conn_count(), 0, "no connection left in CloseWait");
        assert!(
            conns.borrow().iter().all(|sc| !sc.cold_resident()),
            "a closed connection's parked bytes are dropped with it"
        );
    }

    #[test]
    fn request_split_across_segments_reassembles() {
        // Drive the ServerConn directly with fragmented input.
        let domain = Arc::new(ebbrt_core::rcu::RcuDomain::new(1));
        let store = Store::new(domain);
        let sc = ServerConn::new(Arc::clone(&store));
        let req = encode_set(b"k", b"v", 7);
        let conn = TcpConn::dangling();
        // Feeding partial bytes must not panic nor produce output; the
        // dangling conn would panic on send, so split before the header
        // completes and verify no response is attempted.
        let _g = ebbrt_core::cpu::bind(CoreId(0));
        let part = Chain::single(IoBuf::copy_from(&req[..10]));
        sc.process(&conn, part);
        assert_eq!(sc.pending_len(), 10);
        assert_eq!(store.sets.load(Ordering::Relaxed), 0);
        let _rest = &req[10..];
        // (Completing the request needs a live conn; covered by the
        // network roundtrip tests above.)
    }

    #[test]
    fn cold_box_is_lazily_allocated_and_freed() {
        // The cold box (reassembly tail + parked replies) must exist
        // only while it holds something: never on the complete-request
        // fast path, resident while a partial request is buffered, and
        // freed again once the request completes.
        let domain = Arc::new(ebbrt_core::rcu::RcuDomain::new(1));
        let _guard = domain.read_guard(CoreId(0));
        let store = Store::new(Arc::clone(&domain));
        let sc = ServerConn::new(Arc::clone(&store));
        let _g = ebbrt_core::cpu::bind(CoreId(0));
        assert!(!sc.cold_resident(), "fresh conn must hold no cold state");

        // Complete request in one pass: framing finishes (and with it
        // every cold-box decision) before the dangling conn panics on
        // the send — the box must never have been allocated.
        let req = encode_set(b"k", b"v", 7);
        let chain = Chain::single(IoBuf::copy_from(&req));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sc.process(&TcpConn::dangling(), chain);
        }));
        assert!(result.is_err(), "dangling conn send should panic");
        assert!(
            !sc.cold_resident(),
            "fast path must not allocate the cold box"
        );
        assert_eq!(store.sets.load(Ordering::Relaxed), 1);

        // Partial request: the tail parks in the cold box...
        let req2 = encode_set(b"k2", b"v2", 8);
        let part = Chain::single(IoBuf::copy_from(&req2[..10]));
        sc.process(&TcpConn::dangling(), part);
        assert!(sc.cold_resident(), "buffered tail must live in the box");
        assert_eq!(sc.pending_len(), 10);

        // ...and completing the request frees it again.
        let rest = Chain::single(IoBuf::copy_from(&req2[10..]));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sc.process(&TcpConn::dangling(), rest);
        }));
        assert!(result.is_err(), "dangling conn send should panic");
        assert!(
            !sc.cold_resident(),
            "an idle conn must shed the cold box once both chains drain"
        );
        assert_eq!(store.sets.load(Ordering::Relaxed), 2);
    }

    fn drive_set(value: &[u8], chunk: usize) -> (Arc<Store>, u64) {
        let domain = Arc::new(ebbrt_core::rcu::RcuDomain::new(1));
        let _guard = domain.read_guard(CoreId(0));
        let store = Store::new(Arc::clone(&domain));
        let sc = ServerConn::new(Arc::clone(&store));
        let _g = ebbrt_core::cpu::bind(CoreId(0));
        let req = encode_set(b"spanning", value, 3);
        let before = ebbrt_core::iobuf::stats::snapshot().bytes_copied;
        let mut chain = Chain::new();
        for part in req.chunks(chunk) {
            // Build segments without the counted copy_from helper.
            let mut b = MutIoBuf::with_capacity(part.len());
            b.append(part.len()).copy_from_slice(part);
            chain.push_back(b.freeze());
        }
        // The dangling conn panics on send — *after* parsing and the
        // store insert complete; catch it to observe the store.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sc.process(&TcpConn::dangling(), chain);
        }));
        assert!(result.is_err(), "dangling conn send should panic");
        let copied = ebbrt_core::iobuf::stats::snapshot().bytes_copied - before;
        (store, copied)
    }

    #[test]
    fn large_set_value_spanning_segments_is_stored_zero_copy() {
        // A 4 KiB value in 1 KiB receive segments: big enough relative
        // to its pinned regions to stay as zero-copy sub-views.
        let (store, copied) = drive_set(&[0xEE; 4096], 1024);
        assert_eq!(copied, 0, "large values must be stored without copying");
        let v = store.get_raw(b"spanning").expect("value stored");
        assert_eq!(v.len(), 4096);
        assert!(v.segment_count() > 1, "value should span receive segments");
        assert!(v.iter().all(|s| s.bytes().iter().all(|&b| b == 0xEE)));
    }

    #[test]
    fn small_set_value_is_compacted_to_release_receive_buffers() {
        // A 10-byte value arriving in a pooled 2 KiB region would pin
        // ~200x its size; the store must compact it instead.
        let (store, copied) = drive_set(&[0x44; 10], 4096);
        assert_eq!(copied, 10, "compaction copies exactly the value bytes");
        let v = store.get_raw(b"spanning").expect("value stored");
        assert_eq!(v.copy_to_vec(), [0x44; 10]);
        assert!(
            v.iter().all(|s| s.region_len() == 16),
            "stored region must be of the value's class, not a pinned receive buffer"
        );
    }

    #[test]
    fn oversized_key_still_gets_a_response() {
        // 300-byte key: beyond the protocol limit, but the request must
        // not be silently dropped — a closed-loop client would hang.
        let p = pair();
        p.serve(ServerConfig::default());
        let key = vec![b'k'; 300];
        let c = p.burst(&[encode_set(&key, b"big-key-value", 1), encode_get(&key, 2)]);
        assert_eq!(c.workload.reply(1).0.status, STATUS_OK);
        assert_eq!(c.workload.reply(2).1, b"big-key-value");
        assert_eq!(p.store.sets.load(Ordering::Relaxed), 1);
        assert_eq!(p.store.gets.load(Ordering::Relaxed), 1);
    }
}
