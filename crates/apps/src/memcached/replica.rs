//! The replication engine: one machine's replica of one key range.
//!
//! A [`ShardRoot`] is what a replica is — the machine's [`Store`], the
//! range's version counter, per-key versions, the delta log, the
//! fan-out peer set and the catching-up state — and [`StoreShardEbb`]
//! is how the rest of the cluster reaches it: function-shipped
//! `ShardOp`s served by [`DistributedEbb::handle_remote`] where the
//! root lives, shipped by [`StoreShardEbb::get`] / [`StoreShardEbb::set`]
//! from anywhere else. The wire format is [`shardop`]'s;
//! this file names no opcode and no memcached header.
//!
//! Keys map to *ranges* ([`HashRing::range_of`]) and each range's data
//! lives on R machines (the range's own plus the next R-1 distinct
//! ranges', [`HashRing::successors`]); an unreplicated cluster is R = 1
//! of the same thing — no peers, so a write is a plain local write. The
//! scheme is **role-free**: any machine holding a replica of a range
//! acts as that write's primary — it assigns the write a version from
//! its per-range `applied` counter, applies it locally, fans a REPL
//! copy to every *other* replica's private endpoint id, and
//! acknowledges `[HIT|version]` only after every fan-out resolves
//! (success or presumed-dead failure), so an acknowledged write is on
//! every *live* replica. Which machine *fronts* a range for remote
//! callers is a naming-service record (primary first, replicas after);
//! when the primary dies, the shipping layer's retry-in-place path
//! promotes the next replica by CAS on that record — no state moves,
//! because replicas already hold the data.
//!
//! Fan-out *failures* do not fail the client write — a replica that
//! cannot be reached after the transport's retry budget is presumed dead
//! (the chaos harness kills machines outright, and a restarted machine
//! re-syncs by serving only after re-registration), which is the
//! documented availability/durability trade of the harness, not of the
//! protocol's bookkeeping.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};

use ebbrt_core::clock::charge;
use ebbrt_core::cpu::CoreId;
use ebbrt_core::ebb::{
    DistributedEbb, EbbId, EbbRef, HashRing, MulticoreEbb, RemoteError, RemoteResult,
    RemoteShipper, REPLY_WORDS,
};
use ebbrt_core::event::OnceFn;
use ebbrt_core::iobuf::{Chain, IoBuf};
use ebbrt_core::runtime::{self, Runtime};

use super::server::{at_rest, Store, APP_BASE_NS};
use super::shardop::{self, PageHeader, PullReq, ShardOp};

/// Replica lifecycle states ([`ShardRoot::is_serving`]); the byte a
/// STATUS reply carries.
pub(super) const STATE_SERVING: u8 = 0;
const STATE_CATCHING_UP: u8 = 1;

/// Entries the delta log retains. A replica that restarts within this
/// many writes catches up from the log alone; one that has fallen
/// further behind streams a filtered snapshot first, then the log.
const DELTA_LOG_CAP: usize = 32;

/// One delta-log entry: `(version, key, value)` — the value a clone of
/// the descriptors the store holds for it.
type LogEntry = (u64, Vec<u8>, Chain<IoBuf>);
/// A type-erased response continuation (parked and forwarded requests
/// outlive the dispatch that handed them a concrete one).
type Respond = Box<dyn FnOnce(Chain<IoBuf>)>;
/// A request parked on a catching-up root: the payload as received
/// plus the responder that will answer it once re-driven.
type ParkedRequest = (Chain<IoBuf>, crate::SendCell<Respond>);
/// An acting primary's acknowledgement of one write, run with its
/// version. Both callers' — the connection front end's (a weak handle,
/// a connection, the opaque and the range) and a shipped SET's (its
/// messenger responder) — fit the words inline.
type Ack = OnceFn<u64, REPLY_WORDS>;

/// One write's fan-out, in [`ShardRoot::fanouts`]: where the copies
/// went, how many have not resolved (0: the record is free, and keeps
/// its `targets` capacity for the next write) and what runs when the
/// last one has.
#[derive(Default)]
struct FanOut {
    targets: Vec<EbbId>,
    left: usize,
    version: u64,
    done: Option<crate::SendCell<Ack>>,
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
    /// it on fan-out receipt (`fetch_max`).
    applied: AtomicU64,
    /// Endpoint [`EbbId`]s of the range's other replicas — mutable:
    /// rebalance targets join (ADD_PEER) while the cluster runs.
    peers: Mutex<Vec<EbbId>>,
    /// Peers presumed dead: marked when a fan-out fails past the
    /// transport's retry budget, **skipped** by later fan-outs (no
    /// point burning the write path's latency on a corpse), cleared by
    /// the peer's REJOIN once it has caught back up.
    failed_peers: Mutex<HashSet<EbbId>>,
    /// Per-key applied version — the guard that makes every versioned
    /// apply (live fan-out, snapshot page, delta entry) idempotent and
    /// order-insensitive: an entry lands only if its version exceeds
    /// the key's current one.
    versions: Mutex<HashMap<Vec<u8>, u64>>,
    /// The last [`DELTA_LOG_CAP`] writes `(version, key, value)`,
    /// oldest first — what a briefly-absent replica streams instead of
    /// a full snapshot.
    log: Mutex<VecDeque<LogEntry>>,
    /// [`STATE_SERVING`] or [`STATE_CATCHING_UP`].
    state: AtomicU8,
    /// While catching up: the endpoint reads/writes are forwarded to
    /// (the catch-up source — guaranteed current for every
    /// acknowledged write, since acks wait for its fan-out).
    forward_to: Mutex<Option<EbbId>>,
    /// Requests parked while catching up with no reachable source;
    /// re-driven when the re-sync engine picks a new source or flips
    /// the root to serving.
    parked: Mutex<Vec<ParkedRequest>>,
    /// Rebalance dual-apply rule (SET_FORWARD).
    forward_rule: Mutex<Option<ForwardRule>>,
    /// Writes fanning out, by the index each copy's continuation
    /// carries (with its target's index and the root handle, all it
    /// carries, so it fits the reply's inline words).
    fanouts: Mutex<Vec<FanOut>>,
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
            fanouts: Mutex::new(Vec::new()),
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
        self.put(version, key, value);
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
    /// bytes, and a full log refills its oldest entry, key buffer
    /// included. Returns those descriptors (what a fan-out links).
    fn put(&self, version: u64, key: &[u8], value: Chain<IoBuf>) -> Chain<IoBuf> {
        let value = at_rest(value);
        let mut log = self.log.lock().expect("log lock");
        let mut entry = if log.len() == DELTA_LOG_CAP {
            log.pop_front().expect("the log is full")
        } else {
            LogEntry::default()
        };
        entry.0 = version;
        entry.1.clear();
        entry.1.extend_from_slice(key);
        entry.2 = value.clone();
        log.push_back(entry);
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
    /// locally, fans a REPL copy to every peer replica, and runs
    /// `done(version)` once every fan-out has resolved — `Ok` or `Err`;
    /// a failed fan-out marks the peer presumed-dead
    /// ([`ShardRoot::repl_failed`]) but never fails the write. With no
    /// peers this is a synchronous local write.
    ///
    /// The fan-out waits as one record of the root's fan-out table; the
    /// last endpoint takes the payload itself — alone on its first
    /// buffer, so the messenger can frame it in place — the others a
    /// clone of its descriptors.
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
        let value = self.put(version, key, value);
        let mut fanouts = self.fanouts.lock().expect("fanouts lock");
        let slot = match fanouts.iter().position(|f| f.left == 0) {
            Some(slot) => slot,
            None => {
                fanouts.push(FanOut::default());
                fanouts.len() - 1
            }
        };
        let fanout = &mut fanouts[slot];
        self.fan_out_targets(key, &mut fanout.targets);
        let n = fanout.targets.len();
        if n == 0 {
            drop(fanouts);
            done(version);
            return;
        }
        fanout.left = n;
        fanout.version = version;
        fanout.done = Some(crate::SendCell::new(Ack::new(done)));
        drop(fanouts);
        let mut payload = shardop::encode_repl(version, key, &value);
        for target in 0..n {
            // Unlocked around `call`: a reply may land before it returns.
            let ep = self.fanouts.lock().expect("fanouts lock")[slot].targets[target];
            let copy = if target + 1 < n {
                payload.clone()
            } else {
                std::mem::take(&mut payload)
            };
            let me = Arc::clone(self);
            shipper_for(ep).call(copy, move |r| me.fanned(slot, target, r));
        }
    }

    /// Fills `targets` with a write's fan-out: every live peer
    /// (presumed-dead ones are skipped — their re-sync pull owes them
    /// the write instead), plus the rebalance rule's endpoints when the
    /// key is migrating to a new range.
    fn fan_out_targets(&self, key: &[u8], targets: &mut Vec<EbbId>) {
        targets.clear();
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
    }

    /// One fan-out copy resolved: a copy not acknowledged marks its
    /// peer presumed-dead; the last copy of the write frees the record
    /// and runs the write's acknowledgement.
    fn fanned(&self, slot: usize, target: usize, r: RemoteResult<Chain<IoBuf>>) {
        let acked = matches!(&r, Ok(resp) if shardop::decode_ack(resp).is_some());
        // The reply's buffers go back to the pool before anything else
        // runs, as they did when each copy had a continuation of its own.
        drop(r);
        let (ep, finished) = {
            let mut fanouts = self.fanouts.lock().expect("fanouts lock");
            let fanout = &mut fanouts[slot];
            fanout.left -= 1;
            let finished = (fanout.left == 0).then(|| (fanout.done.take(), fanout.version));
            (fanout.targets[target], finished)
        };
        if !acked {
            self.repl_failed.fetch_add(1, Ordering::Relaxed);
            self.failed_peers.lock().expect("failed lock").insert(ep);
        }
        if let Some((Some(done), version)) = finished {
            done.into_inner().call(version);
        }
    }
}

/// One key range of the distributed store, as an Ebb. A machine that
/// holds a replica registers its [`ShardRoot`] ([`register_shard`]) and
/// its reps serve the function-shipped `ShardOp`s in place; everyone
/// else reaches the range by shipping to its id — [`Self::get`] and
/// [`Self::set`] over an explicit [`shipper_for`] proxy, because a
/// replica holder must be able to ship to whoever *fronts* the range
/// and a fault would hand it its own root instead. So the type keeps
/// the root-only fault policy and has no proxy flavor: dereferencing a
/// range id on a machine that holds no replica of it is a wiring error.
pub struct StoreShardEbb {
    root: Arc<ShardRoot>,
}

impl StoreShardEbb {
    /// A rep serving `root` in place (what the holder's fault handler
    /// builds; re-sync re-drives parked requests through one).
    pub(super) fn local(root: Arc<ShardRoot>) -> Self {
        StoreShardEbb { root }
    }
}

impl MulticoreEbb for StoreShardEbb {
    type Root = ShardRoot;

    fn create_rep(root: &Arc<ShardRoot>, _core: CoreId) -> Self {
        StoreShardEbb::local(Arc::clone(root))
    }
}

impl DistributedEbb for StoreShardEbb {
    fn handle_remote(&self, payload: Chain<IoBuf>, respond: impl FnOnce(Chain<IoBuf>) + 'static) {
        let root = &self.root;
        let Some(op) = ShardOp::decode(&payload) else {
            charge(APP_BASE_NS + (payload.len() as u64) / 16);
            respond(shardop::reply_err());
            return;
        };
        // A catching-up replica ships client reads and writes to its
        // catch-up source instead of serving (or versioning against)
        // stale state. Fan-out receipts are applied regardless, and the
        // transfer protocol is served in place whatever the state.
        if matches!(op, ShardOp::Get(_) | ShardOp::Set(..)) && !root.is_serving() {
            drop(op);
            forward_to_source(root, payload, Box::new(respond));
            return;
        }
        // A page is charged the base alone; everything else by size too.
        let by_size = match op {
            ShardOp::Pull(_) => 0,
            _ => payload.len() as u64 / 16,
        };
        charge(APP_BASE_NS + by_size);
        let store = root.store();
        let reply = match op {
            ShardOp::Get(key) => {
                store.gets.fetch_add(1, Ordering::Relaxed);
                let v = store.get_raw(&key.contiguous());
                if v.is_none() {
                    store.misses.fetch_add(1, Ordering::Relaxed);
                }
                shardop::reply_value(v.as_ref())
            }
            // The acting primary may not acknowledge before its
            // fan-out resolves: the one op that answers later.
            ShardOp::Set(key, value) => {
                root.apply_set(&key.contiguous(), value.into_chain(), move |version| {
                    respond(shardop::reply_ack(version))
                });
                return;
            }
            ShardOp::Repl(version, key, value) => {
                store.sets.fetch_add(1, Ordering::Relaxed);
                // Version-guarded: a fan-out racing a snapshot page
                // (or a duplicate delivery) can arrive in any order
                // without regressing the key.
                root.apply_versioned(&key.contiguous(), version, value.into_chain());
                shardop::reply_ack(version)
            }
            ShardOp::Status => {
                shardop::reply_status(root.applied(), root.state.load(Ordering::Acquire))
            }
            ShardOp::Rejoin(ep) => {
                root.mark_rejoined(ep);
                shardop::reply_ack(root.applied())
            }
            ShardOp::AddPeer(ep) => {
                root.add_peer(ep);
                shardop::reply_ack(root.applied())
            }
            ShardOp::SetForward(ring, range, eps) => {
                root.set_forward_rule(Arc::new(ring), range, eps);
                shardop::reply_ok()
            }
            ShardOp::ClearForward => {
                root.clear_forward_rule();
                shardop::reply_ok()
            }
            ShardOp::Pull(req) => root.pull_page(&req),
        };
        respond(reply);
    }
}

impl StoreShardEbb {
    /// Looks `key` up in the range `shipper` addresses: one function
    /// ship; the value is a view of the reply as received. `done`
    /// always runs — a failed ship, or a reply that is neither a hit
    /// nor a miss (the owner could not serve: fail, don't guess),
    /// surfaces as `Err`, never a hang.
    pub fn get(
        shipper: &RemoteShipper,
        key: &[u8],
        done: impl FnOnce(RemoteResult<Option<Chain<IoBuf>>>) + 'static,
    ) {
        shipper.call(shardop::encode_get(key), move |r| {
            done(r.and_then(|resp| shardop::decode_value(&resp).ok_or(RemoteError::Unreachable)))
        });
    }

    /// Stores `key = value` in the range `shipper` addresses and reports
    /// the version the write was acknowledged at; same failure contract
    /// as [`Self::get`]. The value travels as the descriptors it is
    /// handed in — the request's tail, linked, never copied here — and
    /// comes to rest on each replica under the store's one rule
    /// ([`at_rest`]).
    pub fn set(
        shipper: &RemoteShipper,
        key: &[u8],
        value: Chain<IoBuf>,
        done: impl FnOnce(RemoteResult<u64>) + 'static,
    ) {
        shipper.call(shardop::encode_set(key, &value), move |r| {
            done(r.and_then(|resp| shardop::decode_ack(&resp).ok_or(RemoteError::Unreachable)))
        });
    }
}

/// Registers `root` as a **replica-holding** root of range `id` on `rt`
/// (a hosting machine), so the range's real reps fault in locally
/// there. Register the same root under the range's public id *and*
/// under this machine's private endpoint id for the range (fan-out
/// targets a specific replica, not whichever machine fronts the range).
pub fn register_shard(root: &Arc<ShardRoot>, rt: &Runtime, id: EbbId) -> EbbRef<StoreShardEbb> {
    rt.ebbs()
        .register_root_arc::<StoreShardEbb>(id, Arc::clone(root));
    EbbRef::from_id(id)
}

/// A shipper for `id` over the current machine's installed remote
/// transport — how the sharded server, the re-sync engine and the
/// bench rebalancer address ranges and range endpoints.
pub fn shipper_for(id: EbbId) -> RemoteShipper {
    runtime::with_current_on(|rt, core| rt.ebbs().shipper(core, id))
}

// --- Catching up -----------------------------------------------------------
//
// A replica that fell behind — a restarted machine, or a rebalance
// target gaining a range — forwards or parks client requests instead of
// serving stale state, and serves the source side of the transfer
// protocol (delta and snapshot pages) to whoever is catching up from
// it. The driver that pulls a range up to date is `resync.rs`.

impl ShardRoot {
    /// Enters catch-up, or — already in it — retargets it (the old
    /// source died): reads/writes forward to `source` (or park until
    /// one is known) until [`ShardRoot::finish_catch_up`], and whatever
    /// was parked is re-driven against a source that is known.
    pub fn begin_catch_up(self: &Arc<Self>, source: Option<EbbId>) {
        *self.forward_to.lock().expect("forward lock") = source;
        self.state.store(STATE_CATCHING_UP, Ordering::Release);
        if source.is_some() {
            self.drain_parked();
        }
    }

    /// The catching-up→serving flip: atomically stops forwarding, then
    /// re-drives anything parked through the local (serving) path. A
    /// request racing the flip lands exactly once — the state check and
    /// the park both happen inside this machine's single-threaded
    /// dispatch events.
    pub fn finish_catch_up(self: &Arc<Self>) {
        *self.forward_to.lock().expect("forward lock") = None;
        // Forget presumed-dead peers: the marks predate the outage this
        // root just recovered from (an isolated machine times out its
        // own in-flight fan-outs and marks every *live* peer dead).
        // Stale marks here would silently skip fan-out once this root
        // fronts writes again; a really-dead peer just gets re-marked.
        self.failed_peers.lock().expect("failed peers lock").clear();
        self.state.store(STATE_SERVING, Ordering::Release);
        self.drain_parked();
    }

    /// Parks a request until the re-sync engine can re-drive it.
    fn park(&self, payload: Chain<IoBuf>, respond: Respond) {
        self.parked
            .lock()
            .expect("parked lock")
            .push((payload, crate::SendCell::new(respond)));
    }

    /// Re-dispatches every parked request through the normal handler —
    /// which forwards again (new source) or serves locally (now
    /// serving).
    fn drain_parked(self: &Arc<Self>) {
        let drained: Vec<_> = std::mem::take(&mut *self.parked.lock().expect("parked lock"));
        for (payload, respond) in drained {
            StoreShardEbb::local(Arc::clone(self)).handle_remote(payload, respond.into_inner());
        }
    }

    /// Delta entries with version > `have`, oldest first, up to
    /// `limit`; `None` when the log has already dropped writes the
    /// caller is missing (fall back to a snapshot). The boolean is the
    /// done flag: no further entries beyond the returned page.
    fn delta_since(&self, have: u64, limit: usize) -> Option<(Vec<LogEntry>, bool)> {
        let log = self.log.lock().expect("log lock");
        let floor = log.front().map(|e| e.0);
        match floor {
            // An empty log covers `have` only if nothing newer exists.
            None => {
                if have >= self.applied() {
                    Some((Vec::new(), true))
                } else {
                    None
                }
            }
            Some(floor) if floor > have.saturating_add(1) => None,
            _ => {
                let mut out = Vec::new();
                let mut more = false;
                for e in log.iter().filter(|e| e.0 > have) {
                    if out.len() >= limit {
                        more = true;
                        break;
                    }
                    out.push(e.clone());
                }
                Some((out, !more))
            }
        }
    }

    /// Serves one PULL: a delta page when the log still covers the
    /// puller, a ring-filtered snapshot page of the store otherwise.
    /// Either way the values ride the response as descriptor clones of
    /// the stored buffers (small ones copied into the page's buffer, as
    /// any field that others follow is): the source marshals the page's
    /// metadata into one pooled buffer and copies no value it does not
    /// have to.
    fn pull_page(&self, req: &PullReq) -> Chain<IoBuf> {
        let (skip, limit, range) = (req.skip, req.limit, req.range);
        let applied = self.applied();
        let ring = HashRing::new(req.ring.0, req.ring.1);
        // Delta first: when the log still covers everything past
        // `have`, the page is exactly the missed writes, in order.
        // Only at `skip == 0`, though — a non-zero skip means the
        // puller is mid-snapshot, where its `have` is a contiguity
        // *floor*, not a cover: switching to delta there would drop
        // the unwalked snapshot pages.
        if skip == 0 {
            if let Some((entries, done)) = self.delta_since(req.have, limit as usize) {
                // Coverage extends past every entry this call examined
                // — including ones the ring filter below drops (a
                // rebalance pull wants only the migrating keys, but
                // the puller's floor must still advance past the rest
                // or an all-filtered page would re-pull forever).
                let cover = entries.last().map_or(applied, |e| e.0);
                let cover = if done { applied } else { cover };
                let entries: Vec<_> = entries
                    .into_iter()
                    .filter(|(_, key, _)| ring.range_of(key) == range)
                    .collect();
                let header = PageHeader {
                    applied,
                    delta: true,
                    done,
                    cover,
                };
                let entries = entries.iter().map(|(version, k, v)| (*version, &k[..], v));
                return shardop::encode_page(header, entries);
            }
        }
        // Snapshot page: walk the machine's store filtered to the
        // requested ring range, `skip`-paged.
        let mut page: Vec<(Vec<u8>, Chain<IoBuf>)> = Vec::new();
        let mut matched: u64 = 0;
        self.store().for_each(|k, v| {
            if ring.range_of(k) != range {
                return;
            }
            if matched >= skip && (page.len() as u32) < limit {
                page.push((k.clone(), v.clone()));
            }
            matched += 1;
        });
        let header = PageHeader {
            applied,
            delta: false,
            done: matched <= skip + page.len() as u64,
            cover: 0, // meaningful only on delta pages
        };
        let entries = page.iter().map(|(k, v)| (self.key_version(k), &k[..], v));
        shardop::encode_page(header, entries)
    }
}

/// Ships a client request hitting a catching-up replica to the
/// replica's catch-up source (which, as a live fan-out member, holds
/// every acknowledged write) — the payload as received, by descriptor.
/// With no reachable source the request parks; the re-sync engine
/// re-drives it on retarget or on the serving flip — and a forward
/// that fails mid-flight re-parks the same way, so the client's own
/// timeout/retry budget is the only clock that can fail the request.
fn forward_to_source(root: &Arc<ShardRoot>, payload: Chain<IoBuf>, respond: Respond) {
    let Some(source) = *root.forward_to.lock().expect("forward lock") else {
        root.park(payload, respond);
        return;
    };
    let me = Arc::clone(root);
    let retained = payload.clone();
    shipper_for(source).call(payload, move |r| match r {
        Ok(resp) => respond(resp),
        Err(_) => {
            if me.is_serving() {
                // Raced the flip: serve locally like any parked
                // request.
                StoreShardEbb::local(me).handle_remote(retained, respond);
            } else {
                me.park(retained, respond);
            }
        }
    });
}

#[cfg(test)]
mod tests;
