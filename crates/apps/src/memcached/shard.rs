//! Multi-machine sharded memcached (distributed Ebbs).
//!
//! The proof workload of the remote-representative layer: N machines
//! each own one key shard behind a *distributed* store Ebb. Every
//! machine serves the full keyspace — requests for its own shard take
//! [`ServerConn`]'s exact zero-copy path; requests for another machine's shard
//! function-ship to the owner through the shard's `EbbRef` (miss →
//! GlobalIdMap → proxy rep → messenger), and the reply is framed back to
//! the memcached client when it lands. The shipped path moves buffer
//! descriptors, as the local one does: a request's value is the view it
//! was received in, a GET reply is a status byte plus clones of the
//! owner's stored descriptors, and the front end splices the reply's
//! tail into the client response. Cross-shard responses may
//! therefore reorder against local ones; clients correlate by `opaque`,
//! exactly as pipelined binary-protocol clients already must.
//!
//! ## Replication (R > 1)
//!
//! With a [`HashRing`] configured, keys map to *ranges* and each range's
//! data lives on R machines (the range's shard plus the next R-1 distinct
//! ranges' shards, [`HashRing::successors`]). The scheme is **role-free**:
//! any machine holding a local replica of a range acts as that write's
//! primary — it assigns the write a version from its per-range `applied`
//! counter, applies it locally, fans a `SHARD_OP_REPL` copy to every
//! *other* replica's private endpoint id, and acknowledges `[HIT|version]`
//! only after every fan-out resolves (success or presumed-dead failure),
//! so an acknowledged write is on every *live* replica. Which machine
//! *fronts* a range for remote callers is a naming-service record
//! (primary first, replicas after); when the primary dies, the shipping
//! layer's retry-in-place path promotes the next replica by CAS on that
//! record — no state moves, because replicas already hold the data.
//!
//! Reads are served by any live replica, gated per connection by a
//! version watermark: a connection that had a replicated SET acknowledged
//! at version v will not read that range from a local replica until the
//! replica's `applied` counter has reached v (read-your-writes); it ships
//! the read to the range's fronting machine instead. Fan-out *failures*
//! do not fail the client write — a replica that cannot be reached after
//! the transport's retry budget is presumed dead (the chaos harness
//! kills machines outright, and a restarted machine re-syncs by serving
//! only after re-registration), which is the documented availability/
//! durability trade of the harness, not of the protocol's bookkeeping.

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet, VecDeque};
use std::rc::{Rc, Weak};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use ebbrt_core::cpu::CoreId;
use ebbrt_core::ebb::{
    DistributedEbb, EbbId, EbbRef, HashRing, MulticoreEbb, RemoteError, RemoteResult,
    RemoteShipper, RemoteTransportEbb, SystemEbb,
};
use ebbrt_core::iobuf::{wire, Chain, IoBuf};
use ebbrt_core::qos;
use ebbrt_core::runtime::Runtime;
use ebbrt_net::netif::{local_netif, ConnHandler, TcpConn};
use ebbrt_sim::world::charge;

use super::codec::{
    push_hit, push_status, Header, KeyBuf, MEMCACHED_PORT, OP_GET, OP_SET, STATUS_KEY_NOT_FOUND,
    STATUS_OK, STATUS_REMOTE_ERROR,
};
use super::resync::forward_to_source;
use super::server::{at_rest, ServerConfig, ServerConn, Store, APP_BASE_NS};

/// FNV-1a over the key, reduced to a shard index. Shared by servers
/// and load generators so both sides agree on key placement.
pub fn shard_of(key: &[u8], nshards: usize) -> usize {
    debug_assert!(nshards > 0);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % nshards as u64) as usize
}

/// Shard-protocol ops (the function-shipped payload's first byte).
pub(super) const SHARD_OP_GET: u8 = 1;
pub(super) const SHARD_OP_SET: u8 = 2;
/// Replication fan-out from an acting primary to a peer replica:
/// `[op | version:u64 | key:bytes16 | value:tail]`.
pub(super) const SHARD_OP_REPL: u8 = 3;
/// Re-sync probe: `[op]` → `[HIT | applied:u64 | state:u8]`. A
/// restored replica asks every peer where the range stands to pick its
/// catch-up source and target.
pub(super) const SHARD_OP_STATUS: u8 = 4;
/// One page of the catch-up stream: `[op | have:u64 | skip:u64 |
/// limit:u32 | nranges:u32 | vnodes:u32 | range:u32]` → a chained
/// `[HIT | src_applied:u64 | mode:u8 | done:u8 | n:u32]` followed by
/// `n` entries `[version:u64 | key:bytes16 | value:bytes32]`. The
/// source answers from its delta log when it still covers `have`
/// (mode = [`PULL_MODE_DELTA`]) and falls back to a snapshot page of
/// its store filtered to the `(nranges, vnodes)` ring's `range`
/// otherwise (mode = [`PULL_MODE_SNAPSHOT`], paged by `skip`), with the
/// stored values riding the response as zero-copy descriptor clones.
pub(super) const SHARD_OP_PULL: u8 = 5;
/// `[op | ep:u32]` → `[HIT | applied:u64]`: the caught-up replica at
/// endpoint `ep` rejoins the fan-out — clears its presumed-dead mark
/// and is a fan-out target again from this write on. The returned
/// `applied` is the rejoin barrier: writes acknowledged before this
/// response are covered by pulling up to it.
pub(super) const SHARD_OP_REJOIN: u8 = 6;
/// `[op | ep:u32]` → `[HIT | applied:u64]`: adds a fan-out peer (a
/// rebalance target starts dual-apply *before* its snapshot pull, so
/// no concurrent write can be lost between page and cutover).
pub(super) const SHARD_OP_ADD_PEER: u8 = 7;
/// `[op | nranges:u32 | vnodes:u32 | range:u32 | n:u32 | n × ep:u32]`
/// → `[HIT]`: writes applied at this root whose key maps to `range`
/// under the `(nranges, vnodes)` ring also fan to the listed endpoints
/// — the dual-apply rule for keys migrating to a *new* range during a
/// rebalance.
pub(super) const SHARD_OP_SET_FORWARD: u8 = 8;
/// `[op]` → `[HIT]`: drops the forward rule after cutover.
pub(super) const SHARD_OP_CLEAR_FORWARD: u8 = 9;
/// Shard-protocol response tags.
pub(super) const SHARD_RESP_MISS: u8 = 0;
pub(super) const SHARD_RESP_HIT: u8 = 1;
pub(super) const SHARD_RESP_ERR: u8 = 2;
/// [`SHARD_OP_PULL`] response modes.
pub(super) const PULL_MODE_SNAPSHOT: u8 = 0;
pub(super) const PULL_MODE_DELTA: u8 = 1;

/// Replica lifecycle states ([`ShardRoot::is_serving`]).
pub(super) const STATE_SERVING: u8 = 0;
pub(super) const STATE_CATCHING_UP: u8 = 1;

/// Entries the delta log retains. A replica that restarts within this
/// many writes catches up from the log alone; one that has fallen
/// further behind streams a filtered snapshot first, then the log.
pub(super) const DELTA_LOG_CAP: usize = 32;

/// One delta-log entry: `(version, key, value)` — the value a clone of
/// the descriptors the store holds for it.
pub(super) type LogEntry = (u64, Vec<u8>, Chain<IoBuf>);
/// A type-erased response continuation (parked and forwarded requests
/// outlive the dispatch that handed them a concrete one).
pub(super) type Respond = Box<dyn FnOnce(Chain<IoBuf>)>;
/// A request parked on a catching-up root: the payload as received
/// plus the responder that will answer it once re-driven.
pub(super) type ParkedRequest = (Chain<IoBuf>, crate::SendCell<Respond>);

/// A response that is just its tag byte.
pub(super) fn tag_only(tag: u8) -> Chain<IoBuf> {
    wire::WireWriter::op(tag).finish()
}

/// `[HIT | v:u64]`: the acknowledgement of a write (its version) or a
/// membership change (the root's `applied`).
fn hit_u64(v: u64) -> Chain<IoBuf> {
    let mut w = wire::WireWriter::op(SHARD_RESP_HIT);
    w.u64(v);
    w.finish()
}

/// The per-machine root of one key range's replica: the machine's
/// [`Store`] (shared by every range the machine hosts), the range's
/// replication version counter, and the private endpoint ids of the
/// range's *other* replicas (empty when R = 1, in which case SETs are
/// plain local writes).
pub struct ShardRoot {
    store: Arc<Store>,
    /// Highest write version applied to this replica; acting primaries
    /// also *assign* versions from it (`fetch_add`), replicas advance
    /// it on [`SHARD_OP_REPL`] receipt (`fetch_max`).
    applied: AtomicU64,
    /// Endpoint [`EbbId`]s of the range's other replicas — mutable:
    /// rebalance targets join ([`SHARD_OP_ADD_PEER`]) while the
    /// cluster runs.
    peers: Mutex<Vec<EbbId>>,
    /// Peers presumed dead: marked when a fan-out fails past the
    /// transport's retry budget, **skipped** by later fan-outs (no
    /// point burning the write path's latency on a corpse), cleared by
    /// the peer's [`SHARD_OP_REJOIN`] once it has caught back up.
    pub(super) failed_peers: Mutex<HashSet<EbbId>>,
    /// Per-key applied version — the guard that makes every versioned
    /// apply (live fan-out, snapshot page, delta entry) idempotent and
    /// order-insensitive: an entry lands only if its version exceeds
    /// the key's current one.
    versions: Mutex<HashMap<Vec<u8>, u64>>,
    /// The last [`DELTA_LOG_CAP`] writes `(version, key, value)`,
    /// oldest first — what a briefly-absent replica streams instead of
    /// a full snapshot.
    pub(super) log: Mutex<VecDeque<LogEntry>>,
    /// [`STATE_SERVING`] or [`STATE_CATCHING_UP`].
    pub(super) state: AtomicU8,
    /// While catching up: the endpoint reads/writes are forwarded to
    /// (the catch-up source — guaranteed current for every
    /// acknowledged write, since acks wait for its fan-out).
    pub(super) forward_to: Mutex<Option<EbbId>>,
    /// Requests parked while catching up with no reachable source;
    /// re-driven when the re-sync engine picks a new source or flips
    /// the root to serving.
    pub(super) parked: Mutex<Vec<ParkedRequest>>,
    /// Rebalance dual-apply rule ([`SHARD_OP_SET_FORWARD`]).
    forward_rule: Mutex<Option<ForwardRule>>,
    /// Fan-out copies shipped (acting-primary side).
    pub repl_sent: AtomicU64,
    /// Fan-out copies applied (replica side).
    pub repl_applied: AtomicU64,
    /// Fan-out copies that failed after the transport's retry budget —
    /// the peer is presumed dead and the write acknowledged anyway.
    pub repl_failed: AtomicU64,
    /// Fan-out copies *not sent* because the peer was presumed dead.
    pub repl_skipped: AtomicU64,
}

/// Writes whose key maps to `range` under the `(nranges, vnodes)` ring
/// additionally fan to `eps` — and their acks wait for that fan-out,
/// so a write racing a range transfer reaches the gaining replica
/// before the client hears OK.
struct ForwardRule {
    ring: Arc<HashRing>,
    range: u32,
    eps: Vec<EbbId>,
}

impl ShardRoot {
    /// An unreplicated (R = 1) range root over `store`.
    pub fn new(store: Arc<Store>) -> Arc<Self> {
        Self::with_peers(store, Vec::new())
    }

    /// A replicated range root: writes applied here fan to `peer_eps`.
    pub fn with_peers(store: Arc<Store>, peer_eps: Vec<EbbId>) -> Arc<Self> {
        Arc::new(ShardRoot {
            store,
            applied: AtomicU64::new(0),
            peers: Mutex::new(peer_eps),
            failed_peers: Mutex::new(HashSet::new()),
            versions: Mutex::new(HashMap::new()),
            log: Mutex::new(VecDeque::new()),
            state: AtomicU8::new(STATE_SERVING),
            forward_to: Mutex::new(None),
            parked: Mutex::new(Vec::new()),
            forward_rule: Mutex::new(None),
            repl_sent: AtomicU64::new(0),
            repl_applied: AtomicU64::new(0),
            repl_failed: AtomicU64::new(0),
            repl_skipped: AtomicU64::new(0),
        })
    }

    /// The machine's store.
    pub fn store(&self) -> &Arc<Store> {
        &self.store
    }

    /// Highest write version applied to this replica.
    pub fn applied(&self) -> u64 {
        self.applied.load(Ordering::Acquire)
    }

    /// Whether writes through this root fan out to peers.
    pub fn is_replicated(&self) -> bool {
        !self.peers.lock().expect("peers lock").is_empty()
    }

    /// Whether this replica serves reads/writes itself (vs. forwarding
    /// them to its catch-up source).
    pub fn is_serving(&self) -> bool {
        self.state.load(Ordering::Acquire) == STATE_SERVING
    }

    /// The range's current fan-out peers (diagnostic).
    pub fn peer_list(&self) -> Vec<EbbId> {
        self.peers.lock().expect("peers lock").clone()
    }

    /// Peers currently presumed dead (diagnostic).
    pub fn failed_peer_count(&self) -> usize {
        self.failed_peers.lock().expect("failed lock").len()
    }

    /// Adds a fan-out peer (idempotent) — the dual-apply half of a
    /// rebalance join.
    pub fn add_peer(&self, ep: EbbId) {
        let mut peers = self.peers.lock().expect("peers lock");
        if !peers.contains(&ep) {
            peers.push(ep);
        }
    }

    /// Restores `ep` as a live fan-out target: clears its presumed-dead
    /// mark and (re-)adds it to the peer set. Runs inside the owning
    /// machine's dispatch event, so no fan-out can interleave with the
    /// clearing — the rejoin barrier version returned to the caller is
    /// exact.
    pub fn mark_rejoined(&self, ep: EbbId) {
        self.failed_peers.lock().expect("failed lock").remove(&ep);
        self.add_peer(ep);
    }

    /// Installs the rebalance dual-apply rule.
    pub fn set_forward_rule(&self, ring: Arc<HashRing>, range: u32, eps: Vec<EbbId>) {
        *self.forward_rule.lock().expect("rule lock") = Some(ForwardRule { ring, range, eps });
    }

    /// Drops the rebalance dual-apply rule (cutover done).
    pub fn clear_forward_rule(&self) {
        *self.forward_rule.lock().expect("rule lock") = None;
    }

    /// Applies one versioned entry (live fan-out, delta entry, or
    /// snapshot-page entry): lands only if `version` exceeds the key's
    /// current version, advances `applied`, and records the write in
    /// the delta log. `value` is a view of whatever it arrived in; it
    /// goes to rest under the store's one rule ([`at_rest`]). Returns
    /// whether the entry landed.
    pub fn apply_versioned(&self, key: &[u8], version: u64, value: Chain<IoBuf>) -> bool {
        if !self.advance_key_version(key, version) {
            return false;
        }
        self.put(version, key.to_vec(), value);
        self.applied.fetch_max(version, Ordering::AcqRel);
        true
    }

    /// Raises `key`'s applied version to `version`; `false` (changing
    /// nothing) when the key is already there or past it.
    fn advance_key_version(&self, key: &[u8], version: u64) -> bool {
        let mut versions = self.versions.lock().expect("versions lock");
        match versions.get_mut(key) {
            Some(cur) if *cur >= version => return false,
            Some(cur) => *cur = version,
            None => {
                versions.insert(key.to_vec(), version);
            }
        }
        true
    }

    /// Stores `value` under `key` and logs the write: the store and the
    /// delta log hold the same descriptors, so a log entry costs no
    /// bytes. Returns those descriptors (what a fan-out links).
    fn put(&self, version: u64, key: Vec<u8>, value: Chain<IoBuf>) -> Chain<IoBuf> {
        let value = at_rest(value);
        let mut log = self.log.lock().expect("log lock");
        log.push_back((version, key.clone(), value.clone()));
        while log.len() > DELTA_LOG_CAP {
            log.pop_front();
        }
        drop(log);
        self.store.insert_chain(key, value.clone());
        value
    }

    /// The key's currently applied version (diagnostic/tests).
    pub fn key_version(&self, key: &[u8]) -> u64 {
        self.versions
            .lock()
            .expect("versions lock")
            .get(key)
            .copied()
            .unwrap_or(0)
    }

    /// The acting-primary write path: assigns the next version, applies
    /// locally, fans `SHARD_OP_REPL` to every peer replica, and runs
    /// `done(version)` once every fan-out has resolved — `Ok` or `Err`;
    /// a failed fan-out marks the peer presumed-dead
    /// ([`ShardRoot::repl_failed`]) but never fails the write. With no
    /// peers this is a synchronous local write.
    ///
    /// Must run inside an event of the machine hosting this root (the
    /// fan-out resolves the machine's remote transport).
    pub fn apply_set(
        self: &Arc<Self>,
        key: &[u8],
        value: Chain<IoBuf>,
        done: impl FnOnce(u64) + 'static,
    ) {
        let version = self.applied.fetch_add(1, Ordering::AcqRel) + 1;
        self.store.sets.fetch_add(1, Ordering::Relaxed);
        self.advance_key_version(key, version);
        let value = self.put(version, key.to_vec(), value);
        // Fan-out targets: every live peer (presumed-dead ones are
        // skipped — their re-sync pull owes them the write instead),
        // plus the rebalance rule's endpoints when the key is migrating
        // to a new range.
        let mut targets = Vec::new();
        {
            let peers = self.peers.lock().expect("peers lock");
            let failed = self.failed_peers.lock().expect("failed lock");
            for &ep in peers.iter() {
                if failed.contains(&ep) {
                    self.repl_skipped.fetch_add(1, Ordering::Relaxed);
                } else {
                    targets.push(ep);
                }
            }
        }
        if let Some(rule) = &*self.forward_rule.lock().expect("rule lock") {
            if rule.ring.range_of(key) == rule.range {
                for &ep in &rule.eps {
                    if !targets.contains(&ep) {
                        targets.push(ep);
                    }
                }
            }
        }
        if targets.is_empty() {
            done(version);
            return;
        }
        let transport =
            EbbRef::<RemoteTransportEbb>::well_known(SystemEbb::Remote).with(|t| t.transport());
        let mut req = wire::WireWriter::op(SHARD_OP_REPL);
        req.u64(version).bytes16(key).tail_chain(&value);
        let mut payload = Some(req.finish());
        // What the last fan-out to resolve finds: the count it brings
        // to zero and the acknowledgement it then runs.
        let pending = Rc::new((Cell::new(targets.len()), Cell::new(Some(done))));
        let last = targets.len() - 1;
        for (i, ep) in targets.into_iter().enumerate() {
            // The last target takes the payload itself — alone on its
            // first buffer, so the messenger can frame it in place.
            let payload = if i == last {
                payload.take()
            } else {
                payload.clone()
            }
            .expect("taken once, last");
            self.repl_sent.fetch_add(1, Ordering::Relaxed);
            let me = Arc::clone(self);
            let pending = Rc::clone(&pending);
            RemoteShipper::new(ep, Rc::clone(&transport)).call(payload, move |r| {
                let ok = matches!(
                    &r,
                    Ok(resp) if resp.cursor().read_u8() == Some(SHARD_RESP_HIT)
                );
                if !ok {
                    me.repl_failed.fetch_add(1, Ordering::Relaxed);
                    me.failed_peers.lock().expect("failed lock").insert(ep);
                }
                pending.0.set(pending.0.get() - 1);
                if pending.0.get() == 0 {
                    if let Some(d) = pending.1.take() {
                        d(version);
                    }
                }
            });
        }
    }
}

/// One key shard of the distributed store, as an Ebb: the owner
/// machine's reps wrap its [`Store`] directly (the root), every other
/// machine's reps are function-shipping proxies installed by the
/// distributed miss path. Same [`EbbId`] cluster-wide — a GlobalIdMap
/// id published by the owner.
pub struct StoreShardEbb {
    inner: ShardInner,
}

enum ShardInner {
    Local(Arc<ShardRoot>),
    Proxy(RemoteShipper),
}

impl StoreShardEbb {
    /// A rep serving `root` in place (what the owner's miss path
    /// builds; re-sync re-drives parked requests through one).
    pub(super) fn local(root: Arc<ShardRoot>) -> Self {
        StoreShardEbb {
            inner: ShardInner::Local(root),
        }
    }
}

impl MulticoreEbb for StoreShardEbb {
    type Root = ShardRoot;

    fn create_rep(root: &Arc<ShardRoot>, _core: CoreId) -> Self {
        StoreShardEbb::local(Arc::clone(root))
    }
}

impl DistributedEbb for StoreShardEbb {
    fn create_proxy(shipper: RemoteShipper, _core: CoreId) -> Self {
        StoreShardEbb {
            inner: ShardInner::Proxy(shipper),
        }
    }

    fn handle_remote(&self, payload: Chain<IoBuf>, respond: impl FnOnce(Chain<IoBuf>) + 'static) {
        let ShardInner::Local(root) = &self.inner else {
            respond(tag_only(SHARD_RESP_ERR));
            return;
        };
        let store = root.store();
        let mut r = wire::WireReader::new(&payload);
        let op = r.u8();
        // The transfer protocol is served in place whatever the
        // replica's state; a well-formed PULL answers with its page.
        if op == Some(SHARD_OP_PULL) {
            if let Some(page) = root.pull_page(&mut r) {
                respond(page);
                return;
            }
        }
        // A catching-up replica ships client reads and writes to its
        // catch-up source instead of serving (or versioning against)
        // stale state. Fan-out receipts are applied regardless.
        if matches!(op, Some(SHARD_OP_GET) | Some(SHARD_OP_SET)) && !root.is_serving() {
            forward_to_source(root, payload, Box::new(respond));
            return;
        }
        charge(APP_BASE_NS + (payload.len() as u64) / 16);
        let reply = match op {
            Some(SHARD_OP_GET) => {
                store.gets.fetch_add(1, Ordering::Relaxed);
                match store.get_raw(&r.tail().contiguous()) {
                    // A status byte, then the store's own descriptors.
                    Some(v) => {
                        let mut w = wire::WireWriter::op(SHARD_RESP_HIT);
                        w.tail_chain(&v);
                        Some(w.finish())
                    }
                    None => {
                        store.misses.fetch_add(1, Ordering::Relaxed);
                        Some(tag_only(SHARD_RESP_MISS))
                    }
                }
            }
            // The acting primary may not acknowledge before its
            // fan-out resolves: the one op that answers later.
            Some(SHARD_OP_SET) => match r.bytes16() {
                Some(key) => {
                    let value = r.tail().into_chain();
                    root.apply_set(&key.contiguous(), value, move |version| {
                        respond(hit_u64(version))
                    });
                    return;
                }
                None => None,
            },
            Some(SHARD_OP_REPL) => match (r.u64(), r.bytes16()) {
                (Some(version), Some(key)) => {
                    store.sets.fetch_add(1, Ordering::Relaxed);
                    // Version-guarded: a fan-out racing a snapshot page
                    // (or a duplicate delivery) can arrive in any order
                    // without regressing the key.
                    root.apply_versioned(&key.contiguous(), version, r.tail().into_chain());
                    root.repl_applied.fetch_add(1, Ordering::Relaxed);
                    Some(hit_u64(version))
                }
                _ => None,
            },
            Some(SHARD_OP_STATUS) => {
                let mut w = wire::WireWriter::op(SHARD_RESP_HIT);
                w.u64(root.applied()).u8(root.state.load(Ordering::Acquire));
                Some(w.finish())
            }
            Some(SHARD_OP_REJOIN) => r.u32().map(|ep| {
                root.mark_rejoined(EbbId(ep));
                hit_u64(root.applied())
            }),
            Some(SHARD_OP_ADD_PEER) => r.u32().map(|ep| {
                root.add_peer(EbbId(ep));
                hit_u64(root.applied())
            }),
            Some(SHARD_OP_SET_FORWARD) => (|| {
                let (nranges, vnodes, range, n) = (r.u32()?, r.u32()?, r.u32()?, r.u32()?);
                // `n` sizes nothing: the endpoints are read one by one
                // and the list ends where the payload does.
                let eps = (0..n)
                    .map(|_| r.u32().map(EbbId))
                    .collect::<Option<Vec<_>>>()?;
                root.set_forward_rule(Arc::new(HashRing::new(nranges, vnodes)), range, eps);
                Some(tag_only(SHARD_RESP_HIT))
            })(),
            Some(SHARD_OP_CLEAR_FORWARD) => {
                root.clear_forward_rule();
                Some(tag_only(SHARD_RESP_HIT))
            }
            _ => None,
        };
        respond(reply.unwrap_or_else(|| tag_only(SHARD_RESP_ERR)));
    }
}

impl StoreShardEbb {
    /// Looks `key` up in this shard: synchronously on a replica,
    /// one function ship elsewhere. Either way the value is a chain of
    /// descriptors — the store's own on a replica, a view of the reply
    /// as received on a proxy. `done` always runs — a failed ship
    /// surfaces as `Err`, never a hang.
    pub fn get(&self, key: &[u8], done: impl FnOnce(RemoteResult<Option<Chain<IoBuf>>>) + 'static) {
        match &self.inner {
            ShardInner::Local(root) => {
                let store = root.store();
                store.gets.fetch_add(1, Ordering::Relaxed);
                let v = store.get_raw(key);
                if v.is_none() {
                    store.misses.fetch_add(1, Ordering::Relaxed);
                }
                done(Ok(v));
            }
            ShardInner::Proxy(shipper) => {
                let mut req = wire::WireWriter::op(SHARD_OP_GET);
                req.tail(key);
                shipper.call(req.finish(), move |r| {
                    done(r.and_then(|resp| {
                        let mut rd = wire::WireReader::new(&resp);
                        match rd.u8() {
                            Some(SHARD_RESP_HIT) => Ok(Some(rd.tail().into_chain())),
                            Some(SHARD_RESP_MISS) => Ok(None),
                            // A malformed/refused response means the
                            // owner could not serve: fail, don't guess.
                            _ => Err(RemoteError::Unreachable),
                        }
                    }))
                });
            }
        }
    }

    /// Stores `key = value` in this shard and reports the version the
    /// write was acknowledged at; same locality and failure contract as
    /// [`Self::get`]. The value travels as the descriptors it is handed
    /// in — the request's tail, linked, never copied here — and comes
    /// to rest on each replica under the store's one rule
    /// ([`at_rest`]).
    pub fn set(
        &self,
        key: &[u8],
        value: Chain<IoBuf>,
        done: impl FnOnce(RemoteResult<u64>) + 'static,
    ) {
        match &self.inner {
            ShardInner::Local(root) => root.apply_set(key, value, move |version| done(Ok(version))),
            ShardInner::Proxy(shipper) => {
                let mut req = wire::WireWriter::op(SHARD_OP_SET);
                req.bytes16(key).tail_chain(&value);
                shipper.call(req.finish(), move |r| {
                    done(r.and_then(|resp| {
                        let mut rd = wire::WireReader::new(&resp);
                        match (rd.u8(), rd.u64()) {
                            (Some(SHARD_RESP_HIT), Some(version)) => Ok(version),
                            _ => Err(RemoteError::Unreachable),
                        }
                    }))
                });
            }
        }
    }
}

/// Registers `root` as a **replica-holding** root of range `id` on `rt`
/// (a hosting machine), so the range's real reps fault in locally
/// there. Machines hosting no replica install proxies through the
/// distributed miss path instead — they call nothing. Register the same
/// root under the range's public id *and* under this machine's private
/// endpoint id for the range (fan-out targets a specific replica, not
/// whichever machine fronts the range).
pub fn register_shard(root: &Arc<ShardRoot>, rt: &Runtime, id: EbbId) -> EbbRef<StoreShardEbb> {
    rt.ebbs()
        .register_root_arc::<StoreShardEbb>(id, Arc::clone(root));
    EbbRef::from_id(id)
}

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
    /// Key→range placement. `None` routes by [`shard_of`] (the
    /// unreplicated R = 1 cluster); `Some` routes by
    /// [`HashRing::range_of`] with replica sets from
    /// [`HashRing::successors`].
    pub ring: Option<Arc<HashRing>>,
    /// The range roots this machine holds a replica of, by range index.
    /// Requests for these ranges can be served from the machine itself
    /// (zero-copy for GETs, acting-primary fan-out for SETs) — when
    /// the root is serving; a catching-up root function-ships like any
    /// remote range.
    pub locals: Arc<HashMap<usize, Arc<ShardRoot>>>,
}

impl ViewState {
    /// The generation of this view's placement: the ring's epoch, or 0
    /// for the epoch-less unreplicated cluster.
    pub fn epoch(&self) -> u64 {
        self.ring.as_ref().map(|r| r.epoch()).unwrap_or(0)
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
    /// current view (ring epoch order; the unreplicated epoch is 0).
    /// Returns whether it was installed.
    pub fn install(&self, next: ViewState) -> bool {
        let mut cur = self.state.write().unwrap();
        if next.epoch() <= cur.epoch() && next.epoch() != 0 {
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

impl ShardConfig {
    /// The R = 1 configuration: FNV key routing, `my_shard` the only
    /// locally held range.
    pub fn unreplicated(
        shard_ids: Arc<Vec<EbbId>>,
        my_shard: usize,
        root: Arc<ShardRoot>,
        server: ServerConfig,
    ) -> Self {
        ShardConfig {
            view: ClusterView::new(ViewState {
                shard_ids,
                ring: None,
                locals: Arc::new(HashMap::from([(my_shard, root)])),
            }),
            my_shard,
            server,
        }
    }
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
            qos::add(sp.served_h, drained);
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
        let range = match &view.ring {
            Some(ring) => ring.range_of(key) as usize,
            None => shard_of(key, nshards),
        };
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

    /// A proxy rep addressed to `range`'s public id, built against the
    /// machine's transport directly. Explicit (not the distributed miss
    /// path) because a machine may hold a *replica* of a range and
    /// still need to ship a call to whoever currently fronts it — the
    /// miss path would resolve the local root instead.
    fn proxy_for(&self, range: usize, view: &ViewState) -> StoreShardEbb {
        StoreShardEbb {
            inner: ShardInner::Proxy(shipper_for(view.shard_ids[range])),
        }
    }

    /// Function-ships one cross-shard request to the machine fronting
    /// `range` and frames the reply back on this connection when it
    /// lands — hopped back to the connection's RSS core first. A failed
    /// ship answers [`STATUS_REMOTE_ERROR`] — the client always hears
    /// back.
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
        match h.opcode {
            OP_GET => self.proxy_for(range, view).get(key, move |r| {
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
                self.proxy_for(range, view).set(key, value, move |r| {
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

/// A shipper for `id` over the current machine's installed remote
/// transport — how the sharded server, the re-sync engine and the
/// bench rebalancer address ranges and range endpoints.
pub fn shipper_for(id: EbbId) -> RemoteShipper {
    let transport =
        EbbRef::<RemoteTransportEbb>::well_known(SystemEbb::Remote).with(|t| t.transport());
    RemoteShipper::new(id, transport)
}

/// Runs `f` on `conn`'s RSS affinity core: inline when already there,
/// else spawn-hopped — per-connection state (`ServerConn`'s backlog and
/// unsent chain) is only ever touched from the connection's core, so a
/// function-shipped completion must come home before framing its reply.
/// The messenger already delivers replies on the issuing core; this
/// keeps the invariant structural rather than relying on who issued.
fn on_conn_core(conn: &TcpConn, f: impl FnOnce() + 'static) {
    ebbrt_core::runtime::with_current_on(|rt, current| match conn.core() {
        Some(home) if home != current => {
            let cell = crate::SendCell::new(f);
            rt.spawn(home, move || cell.into_inner()());
        }
        _ => f(),
    });
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
