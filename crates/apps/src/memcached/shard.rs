//! Multi-machine sharded memcached: the connection front end.
//!
//! N machines each hold replicas of some key ranges (the replication
//! engine, [`replica`](super::replica)) and every one of them serves
//! the full keyspace. A [`ShardedServerConn`] routes each request
//! against the machine's [`ClusterView`]: a key maps to a *range*
//! ([`HashRing::range_of`]); a request for a range the machine holds a
//! serving replica of takes [`ServerConn`]'s exact zero-copy path (a
//! replicated SET acts as the write's primary here, and answers once
//! its fan-out resolves); everything else function-ships to the machine
//! fronting the range ([`shipper_for`] → GlobalIdMap → messenger), and
//! the reply is framed back to the memcached client when it lands. The
//! shipped path moves buffer descriptors, as the local one does: a
//! request's value is the view it was received in, a GET reply is a
//! status byte plus clones of the owner's stored descriptors, and the
//! front end splices the reply's tail into the client response.
//! Cross-shard responses may therefore reorder against local ones;
//! clients correlate by `opaque`, exactly as pipelined binary-protocol
//! clients already must.
//!
//! Reads are served by any live replica, gated per connection by a
//! version watermark: a connection that had a replicated SET acknowledged
//! at version v will not read that range from a local replica until the
//! replica's `applied` counter has reached v (read-your-writes); it ships
//! the read to the range's fronting machine instead.
//!
//! This is the only file of the sharded store that knows the memcached
//! wire format ([`codec`](super::codec)); what travels between machines
//! is [`shardop`](super::shardop)'s.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::{Rc, Weak};
use std::sync::{Arc, RwLock};

use ebbrt_core::clock::charge;
use ebbrt_core::ebb::{EbbId, HashRing};
use ebbrt_core::iobuf::{Chain, IoBuf};
use ebbrt_net::netif::{local_netif, ConnHandler, TcpConn};

use super::codec::{
    push_hit, push_status, Header, KeyBuf, MEMCACHED_PORT, OP_GET, OP_SET, STATUS_KEY_NOT_FOUND,
    STATUS_OK, STATUS_REMOTE_ERROR,
};
use super::replica::{shipper_for, ShardRoot, StoreShardEbb};
use super::server::{ServerConfig, ServerConn, Store, APP_BASE_NS};

/// One coherent generation of a machine's placement knowledge:
/// routing table, key→range placement, and the range roots held
/// locally. Connections snapshot a `ViewState` once per request batch
/// and route every decision in the batch against it — a concurrent
/// rebalance can swap the machine's view but never tears a single
/// routing decision.
#[derive(Clone)]
pub struct ViewState {
    /// Global [`EbbId`]s of every range's public record, in range
    /// order (the cluster's routing table).
    pub shard_ids: Arc<Vec<EbbId>>,
    /// Key→range placement ([`HashRing::range_of`]), with replica sets
    /// from [`HashRing::successors`] — one replica per range in an
    /// unreplicated cluster.
    pub ring: Arc<HashRing>,
    /// The range roots this machine holds a replica of, by range index.
    /// Requests for these ranges can be served from the machine itself
    /// (zero-copy for GETs, acting-primary fan-out for SETs) — when
    /// the root is serving; a catching-up root function-ships like any
    /// remote range.
    pub locals: Arc<HashMap<usize, Arc<ShardRoot>>>,
}

impl ViewState {
    /// The generation of this view's placement: the ring's epoch.
    pub fn epoch(&self) -> u64 {
        self.ring.epoch()
    }
}

/// A machine's live placement view: an atomically swappable
/// [`ViewState`]. Rebalancing installs the grown ring here —
/// epoch-guarded, so a straggling installer can never roll a machine
/// back to a retired generation.
pub struct ClusterView {
    state: RwLock<ViewState>,
}

impl ClusterView {
    pub fn new(state: ViewState) -> Arc<ClusterView> {
        Arc::new(ClusterView {
            state: RwLock::new(state),
        })
    }

    /// The current view, cloned out (three `Arc` bumps).
    pub fn snapshot(&self) -> ViewState {
        self.state.read().unwrap().clone()
    }

    /// Installs `next` if it is a strictly newer generation than the
    /// current view (ring epoch order). Returns whether it was
    /// installed.
    pub fn install(&self, next: ViewState) -> bool {
        let mut cur = self.state.write().unwrap();
        if next.epoch() <= cur.epoch() {
            return false;
        }
        *cur = next;
        true
    }
}

/// Configuration of one machine of the sharded cluster.
#[derive(Clone)]
pub struct ShardConfig {
    /// The machine's placement view (shared with the rebalancer).
    pub view: Arc<ClusterView>,
    /// This machine's shard index.
    pub my_shard: usize,
    /// Per-connection server tunables.
    pub server: ServerConfig,
}

/// Per-connection handler of a sharded server: local-shard requests
/// take [`ServerConn`]'s zero-copy path verbatim; cross-shard requests
/// function-ship through the shard's distributed Ebb and are answered
/// when the reply lands (correlated by `opaque`).
pub struct ShardedServerConn {
    weak: Weak<ShardedServerConn>,
    cfg: ShardConfig,
    local: ServerConn,
    /// Per-range read watermark: the highest version a replicated SET
    /// on this connection was acknowledged at. A local replica may
    /// serve this connection's GET of a range only once its `applied`
    /// counter has reached the watermark (read-your-writes); until then
    /// the read ships to the range's fronting machine.
    watermarks: RefCell<HashMap<usize, u64>>,
    /// Requests handed to [`Self::answer`]'s asynchronous path (shipped
    /// or fanning out) whose reply has not been framed yet.
    awaiting: Cell<u32>,
    /// The peer half-closed while answers were still outstanding: our
    /// half closes once the last of them has been sent.
    peer_closed: Cell<bool>,
}

impl ShardedServerConn {
    /// Creates a handler for one accepted connection; `store` is the
    /// local shard's store.
    pub fn new(cfg: ShardConfig, store: Arc<Store>) -> Rc<ShardedServerConn> {
        Rc::new_cyclic(|weak| ShardedServerConn {
            weak: Weak::clone(weak),
            local: ServerConn::with_config(store, cfg.server),
            cfg,
            watermarks: RefCell::new(HashMap::new()),
            awaiting: Cell::new(0),
            peer_closed: Cell::new(false),
        })
    }

    fn watermark(&self, range: usize) -> u64 {
        self.watermarks.borrow().get(&range).copied().unwrap_or(0)
    }

    /// Records a replicated-SET acknowledgement at `version`.
    fn note_ack(&self, range: usize, version: u64) {
        let mut w = self.watermarks.borrow_mut();
        let e = w.entry(range).or_insert(0);
        *e = (*e).max(version);
    }

    fn process(&self, conn: &TcpConn, data: Chain<IoBuf>) {
        // The sharded path routes rather than sheds (a range may answer
        // asynchronously from another machine), but still feeds the
        // class's served counter: every request drained here gets an
        // answer — locally, by a shipped completion, or as an error —
        // never silence. The counter lets a harness balance the books
        // at quiesce against client-observed completions.
        let sp = self.local.shed_policy(conn);
        // One view for the whole batch: a concurrent rebalance can swap
        // the machine's view but never tears a batch's routing.
        let view = self.cfg.view.snapshot();
        let mut responses: Chain<IoBuf> = Chain::new();
        let mut drained = 0u64;
        let framed = self.local.drain(conn, data, |h, body| {
            drained += 1;
            self.route(conn, &view, h, body, &mut responses)
        });
        if let Some(sp) = sp {
            sp.counters.served.add(drained);
        }
        if framed.is_ok() {
            self.local.send_batch(conn, responses);
        }
    }

    /// Routes one parsed request: local shard → the zero-copy path
    /// (batched into `out`); remote shard → function-ship (replied
    /// asynchronously); everything unroutable → the local handler's
    /// existing semantics. Oversized (protocol-violating) keys still
    /// route by hash — served on the wrong machine they would make the
    /// cluster's answer depend on which server the client contacted.
    fn route(
        &self,
        conn: &TcpConn,
        view: &ViewState,
        h: &Header,
        body: Chain<IoBuf>,
        out: &mut Chain<IoBuf>,
    ) {
        let nshards = view.shard_ids.len();
        let routable = matches!(h.opcode, OP_GET | OP_SET) && h.key_len > 0 && nshards > 1;
        if !routable {
            self.local.handle_request(h, body, out);
            return;
        }
        let mut scratch = KeyBuf::default();
        let key = scratch.read(h, &body);
        let range = view.ring.range_of(key) as usize;
        // A catching-up local root is not a servable replica — it
        // routes like any remote range (and its own remote handler
        // forwards to the catch-up source).
        let local = view.locals.get(&range).filter(|root| root.is_serving());
        match (h.opcode, local) {
            // A locally held replica serves reads zero-copy — unless
            // this connection was acknowledged a write the replica has
            // not applied yet (read-your-writes gate).
            (OP_GET, Some(root)) if root.applied() >= self.watermark(range) => {
                self.local.handle_request(h, body, out);
            }
            // Unreplicated local SETs keep the zero-copy local path.
            (OP_SET, Some(root)) if !root.is_replicated() => {
                self.local.handle_request(h, body, out);
            }
            // Replicated SET with a local replica: act as the write's
            // primary here — version, apply, fan out, then answer.
            (OP_SET, Some(root)) => {
                let root = Arc::clone(root);
                self.primary_set(conn, h, range, key, body, &root);
            }
            // Everything else function-ships to the range's fronting
            // machine.
            _ => self.ship_remote(conn, h, range, key, body, view),
        }
    }

    /// Acts as the primary for a SET of a locally held replicated
    /// range: applies through [`ShardRoot::apply_set`] and answers the
    /// client once every fan-out has resolved, recording the version in
    /// this connection's watermark.
    fn primary_set(
        &self,
        conn: &TcpConn,
        h: &Header,
        range: usize,
        key: &[u8],
        body: Chain<IoBuf>,
        root: &Arc<ShardRoot>,
    ) {
        charge(APP_BASE_NS);
        self.awaiting.set(self.awaiting.get() + 1);
        let mut value = body;
        value.advance(h.value_offset());
        let (me, conn, opaque) = (Weak::clone(&self.weak), conn.clone(), h.opaque);
        root.apply_set(key, value, move |version| {
            Self::answer(me, conn, move |me, out| {
                me.note_ack(range, version);
                push_status(out, OP_SET, STATUS_OK, opaque);
            })
        });
    }

    /// Answers a request whose outcome arrived later (a fan-out or a
    /// function ship resolved): hops back to the connection's core,
    /// lets `fill` frame the reply, and sends it — then finishes a close
    /// that waited for it. A connection that has gone away in the
    /// meantime is answered by silence.
    fn answer(
        me: Weak<Self>,
        conn: TcpConn,
        fill: impl FnOnce(&Self, &mut Chain<IoBuf>) + 'static,
    ) {
        let conn2 = conn.clone();
        on_conn_core(&conn, move || {
            let Some(me) = me.upgrade() else { return };
            let mut out: Chain<IoBuf> = Chain::new();
            fill(&me, &mut out);
            me.local.send_batch(&conn2, out);
            me.awaiting.set(me.awaiting.get() - 1);
            if me.peer_closed.get() && me.awaiting.get() == 0 {
                me.local.on_close(&conn2);
            }
        });
    }

    /// Function-ships one cross-shard request to the machine fronting
    /// `range` and frames the reply back on this connection when it
    /// lands — hopped back to the connection's RSS core first. The ship
    /// is addressed to the range's public id explicitly, not through the
    /// distributed miss path: this machine may hold a *replica* of the
    /// range and still need whoever currently fronts it, and the miss
    /// path would resolve the local root instead. A failed ship answers
    /// [`STATUS_REMOTE_ERROR`] — the client always hears back.
    fn ship_remote(
        &self,
        conn: &TcpConn,
        h: &Header,
        range: usize,
        key: &[u8],
        body: Chain<IoBuf>,
        view: &ViewState,
    ) {
        charge(APP_BASE_NS);
        self.awaiting.set(self.awaiting.get() + 1);
        let (me, conn, opaque) = (Weak::clone(&self.weak), conn.clone(), h.opaque);
        let front = shipper_for(view.shard_ids[range]);
        match h.opcode {
            OP_GET => StoreShardEbb::get(&front, key, move |r| {
                Self::answer(me, conn, move |_, out| match r {
                    // The reply's tail, as received: spliced into the
                    // response exactly as a local hit's stored
                    // descriptors are.
                    Ok(Some(v)) => push_hit(out, opaque, v),
                    Ok(None) => push_status(out, OP_GET, STATUS_KEY_NOT_FOUND, opaque),
                    Err(_) => push_status(out, OP_GET, STATUS_REMOTE_ERROR, opaque),
                })
            }),
            OP_SET => {
                let mut value = body;
                value.advance(h.value_offset());
                StoreShardEbb::set(&front, key, value, move |r| {
                    Self::answer(me, conn, move |me, out| {
                        let status = match r {
                            Ok(version) => {
                                me.note_ack(range, version);
                                STATUS_OK
                            }
                            Err(_) => STATUS_REMOTE_ERROR,
                        };
                        push_status(out, OP_SET, status, opaque);
                    })
                });
            }
            _ => unreachable!("route() filters opcodes"),
        }
    }
}

/// Runs `f` on `conn`'s RSS affinity core: inline when already there,
/// else spawn-hopped — per-connection state (`ServerConn`'s backlog and
/// unsent chain) is only ever touched from the connection's core, so a
/// function-shipped completion must come home before framing its reply.
/// The messenger already delivers replies on the issuing core; this
/// keeps the invariant structural rather than relying on who issued.
fn on_conn_core(conn: &TcpConn, f: impl FnOnce() + 'static) {
    match conn.core() {
        Some(home) => ebbrt_core::runtime::run_on(home, f),
        None => f(),
    }
}

impl ConnHandler for ShardedServerConn {
    fn on_receive(&self, conn: &TcpConn, data: Chain<IoBuf>) {
        self.process(conn, data);
    }

    fn on_window_open(&self, conn: &TcpConn) {
        self.local.flush(conn);
    }

    /// As [`ServerConn`]'s, except that a half-closed peer still hears
    /// every answer in flight on another machine before our FIN.
    fn on_close(&self, conn: &TcpConn) {
        if self.awaiting.get() > 0 {
            self.peer_closed.set(true);
        } else {
            self.local.on_close(conn);
        }
    }
}

/// Starts this machine's server of the sharded cluster: every
/// connection is served by a [`ShardedServerConn`] routing against
/// `cfg`. `store` backs the connection's local zero-copy path
/// (normally the machine's own shard store; a machine holding no
/// range yet — a spare about to be rebalanced in — passes an empty
/// one). To reach the other shards the machine must have a remote
/// transport installed (the hosted layer's
/// `MessengerTransport::install`).
pub fn serve_sharded(cfg: ShardConfig, store: Arc<Store>) {
    let netif = local_netif();
    netif
        .listen(MEMCACHED_PORT, move |_conn| {
            ShardedServerConn::new(cfg.clone(), Arc::clone(&store)) as Rc<dyn ConnHandler>
        })
        .expect("memcached port already bound on this machine");
}
