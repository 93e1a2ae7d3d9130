//! The remote-representative layer: distributed Ebbs over the
//! messenger (§2.2, §3.3).
//!
//! This is the hosted half of `ebbrt_core::ebb`'s distributed-Ebb
//! machinery. The core layer defines *what* a proxy rep is (an
//! [`EbbRef::with_distributed`] miss on a machine that does not own
//! the id installs one) and *how* it speaks (a
//! [`RemoteTransport`] shipping byte payloads addressed to the id);
//! this module supplies the production transport:
//!
//! * **Owner resolution through the GlobalIdMap** — a shipped call on
//!   an unresolved id asks the naming service for the owner record
//!   ([`crate::global_map`]); calls issued while resolution is in
//!   flight queue behind it, and an id with no record fails every
//!   queued call with [`RemoteError::Unresolved`].
//! * **Function shipping over the messenger** — resolved calls ride
//!   [`Messenger::call_chain`]: per-call rpc ids, a timer-wheel
//!   timeout on the calling core, and `Err` delivery the moment the
//!   owner's connection dies. No call ever hangs. A call's payload is
//!   the chain its proxy marshalled, from `ship` to the connection's
//!   send queue: staging, resolution queues and the retry path hold
//!   descriptors, never bytes.
//! * **Retry-in-place failover** — a [`RemoteError::Timeout`] or
//!   [`RemoteError::Unreachable`] no longer surfaces to the caller
//!   immediately. The transport repairs the ownership record — for a
//!   replicated id (a record listing several owners, primary first) it
//!   *promotes* the next live replica by rotating the list and
//!   publishing it back through a compare-and-swap on the record's
//!   version ([`GlobalIdMap::put_if`]); for a single-owner id it
//!   invalidates local state *and* the GlobalIdMap client cache so the
//!   address is re-resolved — and then re-ships the same call after a
//!   bounded exponential backoff, up to a per-call retry budget
//!   ([`RetryPolicy`]). What a pending attempt keeps for that is a
//!   descriptor clone of the request, taken after it was framed: it
//!   outlives the first attempt's connection and is re-framed (behind
//!   a header buffer of its own — the clone is shared) for the next. A
//!   machine death or restart is absorbed inside the failing call;
//!   only an exhausted budget surfaces an `Err`.
//! * **Per-pass call coalescing** — `ship` does not transmit
//!   immediately: calls stage per `(owner, issuing core)` and a
//!   one-shot idle hook flushes them at the end of the event pass. A
//!   single staged call takes the direct path (byte-identical to
//!   pre-batching traffic); two or more ship as one
//!   [`SystemEbb::RemoteBatch`] frame — one pooled marshalling buffer
//!   for the whole flush — that the owner's messenger unbatches
//!   through the same handlers, replying once with the batched
//!   statuses. Each sub-call keeps exactly-once semantics: an
//!   unserved or failed sub-call runs the normal failover/retry path
//!   on its own. The transport's `batch_flushes` / `batched_calls` /
//!   `max_batch` counters make the coalescing assertable end to end.
//!
//! The owner side is two helpers: [`export`] routes inbound requests
//! for an id to the local representative's
//! [`DistributedEbb::handle_remote`], and [`publish`] additionally
//! writes the owner record into the naming service.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::{Rc, Weak};

use ebbrt_core::clock::Ns;
use ebbrt_core::cpu::CoreId;
use ebbrt_core::ebb::{
    DistributedEbb, EbbId, EbbRef, RemoteError, RemoteReply, RemoteTransport, RemoteTransportEbb,
    SystemEbb,
};
use ebbrt_core::iobuf::{Chain, IoBuf};
use ebbrt_core::runtime;
use ebbrt_net::types::Ipv4Addr;

use crate::global_map::{self, GlobalIdMap};
use crate::messenger::{batch, Messenger};

pub use crate::messenger::DEFAULT_RPC_TIMEOUT_NS as DEFAULT_CALL_TIMEOUT_NS;

/// One call parked behind an in-flight owner resolution, carrying the
/// retry attempt it is on.
struct PendingCall {
    payload: Chain<IoBuf>,
    reply: RemoteReply,
    attempt: u32,
}

/// One call staged for shipping at the end of the current event pass,
/// keyed by the owner it resolved to.
struct StagedCall {
    id: EbbId,
    payload: Chain<IoBuf>,
    reply: RemoteReply,
    attempt: u32,
}

/// A resolved ownership record: the ordered replica list (primary
/// first) and the naming-record version it was read at — the CAS token
/// used when this transport promotes a replica.
struct OwnerRecord {
    version: u64,
    owners: Vec<Ipv4Addr>,
}

/// Resolution state of one remote id.
enum OwnerState {
    /// A GlobalIdMap lookup is in flight; calls queue behind it.
    Resolving(Vec<PendingCall>),
    /// The ownership record, as last resolved (or promoted).
    Resolved(OwnerRecord),
}

/// Per-call failover behavior: how many ship attempts one logical call
/// may consume, and the exponential backoff between them.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Total ship attempts per call (≥ 1; 1 = no retry).
    pub budget: u32,
    /// Backoff before retry `n` is `base << (n - 1)`, capped at `max`.
    pub backoff_base_ns: Ns,
    /// Backoff ceiling.
    pub backoff_max_ns: Ns,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            budget: 4,
            backoff_base_ns: 1_000_000,
            backoff_max_ns: 16_000_000,
        }
    }
}

impl RetryPolicy {
    fn backoff_ns(&self, attempt: u32) -> Ns {
        self.backoff_base_ns
            .checked_shl(attempt)
            .unwrap_or(self.backoff_max_ns)
            .min(self.backoff_max_ns)
    }
}

/// The production [`RemoteTransport`]: GlobalIdMap owner resolution +
/// messenger function shipping, one per machine, installed under
/// [`SystemEbb::Remote`].
pub struct MessengerTransport {
    weak: Weak<MessengerTransport>,
    messenger: Weak<Messenger>,
    /// The naming client; `None` for *direct* transports whose owners
    /// are preset (the FileSystem client's fixed-server mode).
    map: Option<Rc<GlobalIdMap>>,
    owners: RefCell<HashMap<u32, OwnerState>>,
    /// Calls resolved to an owner but not yet on the wire: everything a
    /// core ships to one owner within one event pass coalesces into one
    /// multi-call messenger frame, flushed from the pass's idle stage.
    /// A slot stays in the map (empty) between passes, so staging a
    /// lone call allocates nothing.
    staged: RefCell<HashMap<(Ipv4Addr, CoreId), Vec<StagedCall>>>,
    timeout_ns: Cell<Ns>,
    retry: Cell<RetryPolicy>,
    /// Calls shipped (diagnostic).
    pub shipped: Cell<u64>,
    /// Owner records dropped after a failed call (diagnostic).
    pub invalidations: Cell<u64>,
    /// In-place re-ships after a failed attempt (diagnostic).
    pub retries: Cell<u64>,
    /// Replica promotions this transport won via CAS (diagnostic).
    pub promotions: Cell<u64>,
    /// Multi-call frames shipped (diagnostic).
    pub batch_flushes: Cell<u64>,
    /// Calls that rode a multi-call frame (diagnostic).
    pub batched_calls: Cell<u64>,
    /// Largest number of calls coalesced into one frame (diagnostic).
    pub max_batch: Cell<u64>,
}

impl MessengerTransport {
    fn new(messenger: &Rc<Messenger>, map: Option<Rc<GlobalIdMap>>) -> Rc<MessengerTransport> {
        Rc::new_cyclic(|weak| MessengerTransport {
            weak: Weak::clone(weak),
            messenger: Rc::downgrade(messenger),
            map,
            owners: RefCell::new(HashMap::new()),
            staged: RefCell::new(HashMap::new()),
            timeout_ns: Cell::new(DEFAULT_CALL_TIMEOUT_NS),
            retry: Cell::new(RetryPolicy::default()),
            shipped: Cell::new(0),
            invalidations: Cell::new(0),
            retries: Cell::new(0),
            promotions: Cell::new(0),
            batch_flushes: Cell::new(0),
            batched_calls: Cell::new(0),
            max_batch: Cell::new(0),
        })
    }

    /// Creates the machine's transport and installs it on **every
    /// core** under [`SystemEbb::Remote`], making the machine able to
    /// host proxy reps: from here on, a distributed-Ebb miss
    /// function-ships instead of panicking. `map` is the machine's
    /// naming client (owner records are resolved through it).
    pub fn install(messenger: &Rc<Messenger>, map: Rc<GlobalIdMap>) -> Rc<MessengerTransport> {
        let t = Self::new(messenger, Some(map));
        let rt = messenger.netif().machine().runtime();
        runtime::install_on_all_cores(rt, SystemEbb::Remote.id(), {
            let t = Rc::clone(&t);
            move |_core| RemoteTransportEbb::new(Rc::clone(&t) as Rc<dyn RemoteTransport>)
        });
        t
    }

    /// A transport without a naming service: every id it ships must be
    /// preset with [`Self::preset_owner`]. Not installed in the
    /// translation table — the handle is used directly (the FileSystem
    /// client's fixed-server configuration).
    pub fn direct(messenger: &Rc<Messenger>) -> Rc<MessengerTransport> {
        Self::new(messenger, None)
    }

    /// Overrides the per-call timeout (virtual ns; `0` disables).
    pub fn set_timeout(&self, timeout_ns: Ns) {
        self.timeout_ns.set(timeout_ns);
    }

    /// Overrides the per-call retry policy.
    pub fn set_retry_policy(&self, policy: RetryPolicy) {
        assert!(policy.budget >= 1, "a call needs at least one attempt");
        self.retry.set(policy);
    }

    /// Seeds the owner record for `id` without a naming-service round
    /// trip.
    pub fn preset_owner(&self, id: EbbId, owner: Ipv4Addr) {
        self.owners.borrow_mut().insert(
            id.0,
            OwnerState::Resolved(OwnerRecord {
                version: 0,
                owners: vec![owner],
            }),
        );
    }

    /// The currently resolved primary for `id`, if any (diagnostic).
    pub fn resolved_primary(&self, id: EbbId) -> Option<Ipv4Addr> {
        match self.owners.borrow().get(&id.0) {
            Some(OwnerState::Resolved(rec)) => rec.owners.first().copied(),
            _ => None,
        }
    }

    /// Routes one attempt of a resolved call: the call is **staged**
    /// against its owner, and everything this core stages to that owner
    /// within the current event pass flushes as one multi-call
    /// messenger frame at the pass's idle stage ([`flush_staged`]).
    /// Staging is keyed per core so every reply continuation still
    /// lands on its issuing core.
    ///
    /// [`flush_staged`]: Self::flush_staged
    fn ship_via(
        &self,
        owner: Ipv4Addr,
        id: EbbId,
        payload: Chain<IoBuf>,
        reply: RemoteReply,
        attempt: u32,
    ) {
        let core = runtime::with_current_on(|_, core| core);
        let key = (owner, core);
        let first = {
            let mut staged = self.staged.borrow_mut();
            let calls = staged.entry(key).or_default();
            calls.push(StagedCall {
                id,
                payload,
                reply,
                attempt,
            });
            calls.len() == 1
        };
        if first {
            // The hook holds a *strong* reference: a caller may drop
            // its transport handle the moment `ship` returns (the
            // FsClient does), and staged calls must still reach the
            // wire. The reference lives only until this pass's idle
            // stage, so it extends no lifetime beyond the pass.
            let t = self.weak.upgrade().expect("self is alive");
            runtime::with_current(|rt| {
                rt.local_event_manager()
                    .add_idle_once(move || t.flush_staged(key));
            });
        }
    }

    /// Flushes one `(owner, core)` staging slot. A single staged call
    /// ships exactly like the pre-batching transport; two or more
    /// coalesce into one [`SystemEbb::RemoteBatch`] frame whose reply
    /// resolves every sub-call in order. A batch-level failure
    /// (timeout, dead peer) enters the failover-and-retry path for
    /// every sub-call individually, so failover semantics are
    /// unchanged.
    fn flush_staged(&self, key: (Ipv4Addr, CoreId)) {
        let owner = key.0;
        let calls = {
            let mut staged = self.staged.borrow_mut();
            let Some(slot) = staged.get_mut(&key) else {
                return;
            };
            match slot.len() {
                0 => return,
                1 => {
                    let c = slot.pop().expect("len checked");
                    drop(staged);
                    self.ship_direct(owner, c.id, c.payload, c.reply, c.attempt);
                    return;
                }
                // The batch's closure keeps these calls; the slot
                // starts the next pass with room for as many.
                n => std::mem::replace(slot, Vec::with_capacity(n)),
            }
        };
        self.batch_flushes.set(self.batch_flushes.get() + 1);
        self.batched_calls
            .set(self.batched_calls.get() + calls.len() as u64);
        self.max_batch
            .set(self.max_batch.get().max(calls.len() as u64));
        let Some(m) = self.messenger.upgrade() else {
            for c in calls {
                (c.reply)(Err(RemoteError::Unreachable));
            }
            return;
        };
        let envelope = batch::encode_request(calls.iter().map(|c| (c.id.0, &c.payload)));
        let weak = Weak::clone(&self.weak);
        // The closure owns `calls`, payloads included: those descriptors
        // are what a failed-over sub-call is re-shipped from.
        let on_reply = move |r: Result<Chain<IoBuf>, RemoteError>| {
            // Every sub-call whose slot did not come back served takes
            // the failover path on its own; with the transport gone
            // there is nobody left to retry through.
            let fail_over = |c: StagedCall, err: RemoteError, fence: bool| match weak.upgrade() {
                Some(t) if fence => {
                    t.attempt_failed(owner, c.id, c.payload, c.reply, c.attempt, err)
                }
                Some(t) => t.retry_after_failure(owner, c.id, c.payload, c.reply, c.attempt, err),
                None => (c.reply)(Err(err)),
            };
            match r {
                Ok(resp) => match batch::decode_response(&resp) {
                    Some(slots) if slots.len() == calls.len() => {
                        for (c, (status, body)) in calls.into_iter().zip(slots) {
                            if status == batch::STATUS_OK {
                                (c.reply)(Ok(body));
                            } else {
                                // The owner answered but had no handler
                                // for this id — the verdict a dropped
                                // single call reaches by timeout, minus
                                // the wait and the zombie fence (the
                                // connection itself is healthy).
                                fail_over(c, RemoteError::Timeout, false);
                            }
                        }
                    }
                    // A malformed reply is indistinguishable from no
                    // reply: fail every sub-call over.
                    _ => calls
                        .into_iter()
                        .for_each(|c| fail_over(c, RemoteError::Timeout, true)),
                },
                Err(err @ (RemoteError::Timeout | RemoteError::Unreachable)) => {
                    calls.into_iter().for_each(|c| fail_over(c, err, true))
                }
                Err(err) => calls.into_iter().for_each(|c| (c.reply)(Err(err))),
            }
        };
        m.call_chain(
            owner,
            SystemEbb::RemoteBatch.id(),
            envelope,
            self.timeout_ns.get(),
            on_reply,
        );
    }

    /// Puts one call on the wire as its own messenger frame; a
    /// Timeout/Unreachable outcome enters the failover-and-retry path
    /// instead of reaching the caller.
    fn ship_direct(
        &self,
        owner: Ipv4Addr,
        id: EbbId,
        payload: Chain<IoBuf>,
        reply: RemoteReply,
        attempt: u32,
    ) {
        let Some(m) = self.messenger.upgrade() else {
            reply(Err(RemoteError::Unreachable));
            return;
        };
        let weak = Weak::clone(&self.weak);
        m.call_chain_retaining(owner, id, payload, self.timeout_ns.get(), |retained| {
            move |r| match r {
                Err(err @ (RemoteError::Timeout | RemoteError::Unreachable)) => {
                    match weak.upgrade() {
                        Some(t) => t.attempt_failed(owner, id, retained, reply, attempt, err),
                        None => reply(Err(err)),
                    }
                }
                other => reply(other),
            }
        });
    }

    /// One ship attempt failed: repair the ownership record (promote a
    /// replica or invalidate for re-resolution), then — budget
    /// permitting — re-ship the same call after an exponential backoff.
    /// This is the retry-in-place core: the caller's `reply` only sees
    /// an `Err` once the budget is exhausted.
    fn attempt_failed(
        &self,
        failed: Ipv4Addr,
        id: EbbId,
        payload: Chain<IoBuf>,
        reply: RemoteReply,
        attempt: u32,
        err: RemoteError,
    ) {
        // Zombie fence: a timed-out connection still holds this and
        // possibly later frames, which TCP would retransmit and
        // deliver arbitrarily late — e.g. a write reaching a deposed
        // primary after its replacement acknowledged newer writes.
        // Abort the connection so nothing sent before the verdict can
        // outlive it. (`Unreachable` means the connection already
        // died, taking its queue with it.)
        if matches!(err, RemoteError::Timeout) {
            if let Some(m) = self.messenger.upgrade() {
                m.reset_peer(failed);
            }
        }
        self.retry_after_failure(failed, id, payload, reply, attempt, err);
    }

    /// Failover + bounded retry for one failed attempt, without the
    /// zombie fence — the path for failures where the connection itself
    /// is known healthy (a batched sub-call the owner answered
    /// "unserved").
    fn retry_after_failure(
        &self,
        failed: Ipv4Addr,
        id: EbbId,
        payload: Chain<IoBuf>,
        reply: RemoteReply,
        attempt: u32,
        err: RemoteError,
    ) {
        self.failover(id, failed);
        let policy = self.retry.get();
        if attempt + 1 >= policy.budget {
            reply(Err(err));
            return;
        }
        self.retries.set(self.retries.get() + 1);
        let weak = Weak::clone(&self.weak);
        // The failure was delivered inside one of this machine's
        // events, so the local event manager is in scope for the
        // backoff timer.
        runtime::with_current(|rt| {
            rt.local_event_manager()
                .set_timer(policy.backoff_ns(attempt), move || match weak.upgrade() {
                    Some(t) => t.ship_attempt(id, payload, reply, attempt + 1),
                    None => reply(Err(RemoteError::Unreachable)),
                });
        });
    }

    /// Repairs the ownership record for `id` after `failed` stopped
    /// answering. Replicated record with `failed` at the front: rotate
    /// it to the back (the next replica becomes primary), adopt the
    /// rotation locally so retries use it immediately, and publish it
    /// through a CAS on the record's observed version — the naming
    /// service arbitrates racing promoters. Single-owner record:
    /// invalidate, so the retry re-resolves (a restarted owner
    /// re-publishes its address). A record whose primary is no longer
    /// `failed` was already repaired by someone else — leave it alone.
    fn failover(&self, id: EbbId, failed: Ipv4Addr) {
        // Direct transports: preset owners are configuration, not a
        // cache — the retry simply re-ships to the configured address.
        let Some(map) = &self.map else { return };
        let promote = {
            let mut owners = self.owners.borrow_mut();
            match owners.get_mut(&id.0) {
                Some(OwnerState::Resolved(rec)) if rec.owners.first() == Some(&failed) => {
                    if rec.owners.len() > 1 {
                        rec.owners.rotate_left(1);
                        Some((rec.version, rec.owners.clone()))
                    } else {
                        None
                    }
                }
                _ => return,
            }
        };
        let Some((version, rotated)) = promote else {
            self.invalidate(id);
            return;
        };
        let weak = Weak::clone(&self.weak);
        map.put_if(
            id,
            version,
            &global_map::encode_owners(&rotated),
            move |r| {
                let Some(t) = weak.upgrade() else { return };
                match r {
                    Some(new_version) => {
                        t.promotions.set(t.promotions.get() + 1);
                        if let Some(OwnerState::Resolved(rec)) =
                            t.owners.borrow_mut().get_mut(&id.0)
                        {
                            if rec.version == version {
                                rec.version = new_version;
                            }
                        }
                    }
                    None => {
                        // Lost the race (another promoter, or the old
                        // primary re-published): drop local state so the
                        // next attempt re-resolves the winner's record.
                        t.invalidate(id);
                    }
                }
            },
        );
    }

    /// Drops the resolved owner for `id` (and the naming client's
    /// cached record), forcing the next call to re-resolve. On a
    /// *direct* transport this is a no-op: preset owners are
    /// configuration, not a cache — there is no naming service to
    /// re-resolve through, so dropping the record would brick the
    /// transport after one transient failure; the next call simply
    /// retries the configured address.
    pub fn invalidate(&self, id: EbbId) {
        let Some(map) = &self.map else { return };
        let dropped = matches!(
            self.owners.borrow_mut().remove(&id.0),
            Some(OwnerState::Resolved(_))
        );
        if dropped {
            self.invalidations.set(self.invalidations.get() + 1);
        }
        map.invalidate(id);
    }

    /// Starts (or observes) the GlobalIdMap lookup for `id`; queued
    /// calls flush when it lands.
    fn begin_resolve(&self, id: EbbId) {
        let Some(map) = &self.map else {
            // No naming service and no preset record: fail whatever
            // queued.
            let queued = match self.owners.borrow_mut().remove(&id.0) {
                Some(OwnerState::Resolving(q)) => q,
                _ => Vec::new(),
            };
            for call in queued {
                (call.reply)(Err(RemoteError::Unresolved));
            }
            return;
        };
        let weak = Weak::clone(&self.weak);
        map.get_versioned(id, move |record| {
            let Some(t) = weak.upgrade() else { return };
            let resolved = record.and_then(|(version, data)| {
                global_map::decode_owners(&data).map(|owners| OwnerRecord { version, owners })
            });
            let (primary, queued) = {
                let mut owners = t.owners.borrow_mut();
                let queued = match owners.remove(&id.0) {
                    Some(OwnerState::Resolving(q)) => q,
                    other => {
                        // A preset raced the lookup; keep it.
                        if let Some(state) = other {
                            owners.insert(id.0, state);
                        }
                        Vec::new()
                    }
                };
                let primary = resolved.as_ref().and_then(|r| r.owners.first().copied());
                if let Some(rec) = resolved {
                    owners.insert(id.0, OwnerState::Resolved(rec));
                }
                (primary, queued)
            };
            match primary {
                Some(addr) => {
                    for call in queued {
                        t.ship_via(addr, id, call.payload, call.reply, call.attempt);
                    }
                }
                None => {
                    for call in queued {
                        (call.reply)(Err(RemoteError::Unresolved));
                    }
                }
            }
        });
    }

    /// Routes one attempt of a call: ship to the resolved primary,
    /// queue behind an in-flight resolution, or start one.
    fn ship_attempt(&self, id: EbbId, payload: Chain<IoBuf>, reply: RemoteReply, attempt: u32) {
        enum Action {
            Ship(Ipv4Addr, Chain<IoBuf>, RemoteReply),
            Resolve,
            Queued,
        }
        let action = {
            let mut owners = self.owners.borrow_mut();
            match owners.get_mut(&id.0) {
                Some(OwnerState::Resolved(rec)) => Action::Ship(rec.owners[0], payload, reply),
                Some(OwnerState::Resolving(q)) => {
                    q.push(PendingCall {
                        payload,
                        reply,
                        attempt,
                    });
                    Action::Queued
                }
                None => {
                    owners.insert(
                        id.0,
                        OwnerState::Resolving(vec![PendingCall {
                            payload,
                            reply,
                            attempt,
                        }]),
                    );
                    Action::Resolve
                }
            }
        };
        match action {
            Action::Ship(addr, payload, reply) => self.ship_via(addr, id, payload, reply, attempt),
            Action::Resolve => self.begin_resolve(id),
            Action::Queued => {}
        }
    }
}

impl RemoteTransport for MessengerTransport {
    fn ship(&self, id: EbbId, payload: Chain<IoBuf>, reply: RemoteReply) {
        self.shipped.set(self.shipped.get() + 1);
        self.ship_attempt(id, payload, reply, 0);
    }
}

/// Registers the owner-side messenger handler for `id`: each inbound
/// request payload is turned into a response chain by `serve` and sent
/// back correlated by rpc id. The raw (non-Ebb) form — services with
/// their own machine-wide state (the FileSystem server, the naming
/// service) use it directly.
pub fn export_raw(
    messenger: &Rc<Messenger>,
    id: EbbId,
    serve: impl Fn(&Chain<IoBuf>) -> Chain<IoBuf> + 'static,
) {
    messenger.register_call(id, move |_src, payload, respond| {
        respond.send(serve(&payload));
    });
}

/// Makes this machine the **owner** of distributed Ebb `ebb`: inbound
/// function-shipped requests resolve the local (real) representative
/// through the translation table and apply
/// [`DistributedEbb::handle_remote`], whose response chain goes back by
/// descriptor — as its own frame for a direct call, as one slot of the
/// batch's reply for a sub-call. Handlers that fan out (replication)
/// answer when their own shipped calls resolve; the rest answer before
/// they return. The root must be registered on this machine.
pub fn export<T: DistributedEbb>(messenger: &Rc<Messenger>, ebb: EbbRef<T>) {
    let id = ebb.id();
    messenger.register_call(id, move |_src, payload, respond| {
        ebb.with(|rep| rep.handle_remote(payload, move |resp| respond.send(resp)));
    });
}

/// [`export`] + publish this machine (at `owner_ip`) as the id's owner
/// in the naming service, which is what lets remote machines' proxies
/// find it. `done` receives the publish acknowledgment.
pub fn publish<T: DistributedEbb>(
    messenger: &Rc<Messenger>,
    map: &Rc<GlobalIdMap>,
    ebb: EbbRef<T>,
    owner_ip: Ipv4Addr,
    done: impl FnOnce(bool) + 'static,
) {
    export(messenger, ebb);
    map.put(ebb.id(), &global_map::encode_owner(owner_ip), done);
}

/// [`export`] + publish an ordered replica list (primary first) as the
/// id's ownership record. Call it on the machine fronting the record;
/// the other replicas just [`export`] the same id so a promotion finds
/// them already serving.
pub fn publish_replicated<T: DistributedEbb>(
    messenger: &Rc<Messenger>,
    map: &Rc<GlobalIdMap>,
    ebb: EbbRef<T>,
    owners: &[Ipv4Addr],
    done: impl FnOnce(bool) + 'static,
) {
    export(messenger, ebb);
    map.put(ebb.id(), &global_map::encode_owners(owners), done);
}

/// Un-promotion: compare-and-swap the ownership record for `id` back
/// to the ring-designated replica order `owners` (primary first). A
/// re-synced ring-home machine calls this to undo the rotation a
/// retry-in-place promotion applied while it was dead, converging
/// ownership to placement.
///
/// The CAS is version-guarded — the record's version is its **lease
/// epoch**, bumped by every promotion and every un-promotion — so a
/// concurrent promotion (observing the same epoch) serializes against
/// it at the naming service: exactly one wins, and the loser backs off
/// by invalidating its cache rather than clobbering. `done(true)`
/// means the record now carries ring order (won the CAS, or already
/// converged); `done(false)` means it lost cleanly or the record is
/// missing.
pub fn unpromote(
    map: &Rc<GlobalIdMap>,
    id: EbbId,
    owners: Vec<Ipv4Addr>,
    done: impl FnOnce(bool) + 'static,
) {
    // Read through (not from) the cache: the CAS must target the
    // record's current lease epoch, not a stale cached one.
    map.invalidate(id);
    let map2 = Rc::clone(map);
    map.get_versioned(id, move |cur| {
        let Some((epoch, data)) = cur else {
            done(false);
            return;
        };
        if global_map::decode_owners(&data).as_deref() == Some(&owners[..]) {
            done(true);
            return;
        }
        // put_if already maintains the cache: the new record on a win,
        // an invalidation on a loss — losing leaves the concurrent
        // winner's record alone.
        map2.put_if(id, epoch, &global_map::encode_owners(&owners), move |won| {
            done(won.is_some());
        });
    });
}

/// Typed serialization helpers for function-shipped payloads — the
/// shared framing vocabulary of the remote layer. Re-exported from
/// `ebbrt_core::iobuf::wire` so applications defining distributed Ebbs
/// (the sharded memcached store) use the same helpers without a hosted
/// dependency.
pub use ebbrt_core::iobuf::wire;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::global_map::GlobalIdMapServer;
    use ebbrt_core::cpu::CoreId;
    use ebbrt_core::ebb::{MulticoreEbb, RemoteResult, RemoteShipper};
    use ebbrt_core::iobuf::Buf;
    use ebbrt_net::Lan;
    use ebbrt_sim::{CostProfile, SimMachine, SimWorld, Switch};
    use std::sync::Arc;

    /// A versioned naming record captured from an async `get_versioned`.
    type RecordCell = Rc<Cell<Option<(u64, Vec<u8>)>>>;

    use crate::on_core0;
    /// A distributed counter Ebb used across the failure tests: the
    /// owner's rep counts pokes; proxies function-ship them.
    struct CounterEbb {
        kind: Kind,
    }
    enum Kind {
        Local(Arc<std::sync::atomic::AtomicU64>),
        Proxy(RemoteShipper),
    }
    impl MulticoreEbb for CounterEbb {
        type Root = Arc<std::sync::atomic::AtomicU64>;
        fn create_rep(root: &Arc<Self::Root>, _: CoreId) -> Self {
            CounterEbb {
                kind: Kind::Local(Arc::clone(root)),
            }
        }
    }
    impl DistributedEbb for CounterEbb {
        fn create_proxy(shipper: RemoteShipper, _: CoreId) -> Self {
            CounterEbb {
                kind: Kind::Proxy(shipper),
            }
        }
        fn handle_remote(
            &self,
            _payload: Chain<IoBuf>,
            respond: impl FnOnce(Chain<IoBuf>) + 'static,
        ) {
            match &self.kind {
                Kind::Local(hits) => {
                    let n = hits.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
                    let mut resp = wire::WireWriter::new();
                    resp.u32(n as u32);
                    respond(resp.finish());
                }
                Kind::Proxy(_) => unreachable!("proxy asked to serve"),
            }
        }
    }
    impl CounterEbb {
        fn poke(&self, done: impl FnOnce(RemoteResult<u32>) + 'static) {
            match &self.kind {
                Kind::Local(hits) => {
                    let n = hits.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
                    done(Ok(n as u32));
                }
                Kind::Proxy(sh) => sh.call(Chain::new(), |r| {
                    done(r.map(|resp| resp.cursor().read_u32_be().unwrap_or(0)))
                }),
            }
        }
    }

    struct Cluster {
        w: Rc<SimWorld>,
        _sw: Rc<Switch>,
        naming: Rc<SimMachine>,
        owner: Rc<SimMachine>,
        standby: Rc<SimMachine>,
        client: Rc<SimMachine>,
        naming_msgr: Rc<Messenger>,
        owner_msgr: Rc<Messenger>,
        standby_msgr: Rc<Messenger>,
        client_msgr: Rc<Messenger>,
        owner_map: Rc<GlobalIdMap>,
        standby_map: Rc<GlobalIdMap>,
        client_transport: Rc<MessengerTransport>,
    }

    const NAMING_IP: Ipv4Addr = Ipv4Addr([10, 0, 0, 1]);
    const OWNER_IP: Ipv4Addr = Ipv4Addr([10, 0, 0, 2]);
    const CLIENT_IP: Ipv4Addr = Ipv4Addr([10, 0, 0, 3]);
    const STANDBY_IP: Ipv4Addr = Ipv4Addr([10, 0, 0, 4]);

    fn cluster() -> Cluster {
        let lan = Lan::new();
        let (naming, naming_if) =
            lan.machine("naming", 1, CostProfile::linux_vm(), [0x01; 6], NAMING_IP);
        let (owner, owner_if) =
            lan.machine("owner", 1, CostProfile::ebbrt_vm(), [0x02; 6], OWNER_IP);
        let (client, client_if) =
            lan.machine("client", 1, CostProfile::ebbrt_vm(), [0x03; 6], CLIENT_IP);
        let (standby, standby_if) =
            lan.machine("standby", 1, CostProfile::ebbrt_vm(), [0x04; 6], STANDBY_IP);
        let (w, sw) = (lan.world, lan.switch);
        w.run_to_idle();
        let naming_msgr = Messenger::start(&naming_if);
        let owner_msgr = Messenger::start(&owner_if);
        let client_msgr = Messenger::start(&client_if);
        let standby_msgr = Messenger::start(&standby_if);
        let _server = GlobalIdMapServer::start(&naming_msgr);
        let owner_map = GlobalIdMap::new(&owner_msgr, NAMING_IP);
        let standby_map = GlobalIdMap::new(&standby_msgr, NAMING_IP);
        let client_map = GlobalIdMap::new(&client_msgr, NAMING_IP);
        let client_transport = MessengerTransport::install(&client_msgr, Rc::clone(&client_map));
        Cluster {
            w,
            _sw: sw,
            naming,
            owner,
            standby,
            client,
            naming_msgr,
            owner_msgr,
            standby_msgr,
            client_msgr,
            owner_map,
            standby_map,
            client_transport,
        }
    }

    #[test]
    fn proxy_resolves_owner_through_global_map_and_ships() {
        let c = cluster();
        let hits = Arc::new(std::sync::atomic::AtomicU64::new(0));

        // Owner: allocate a global id, register the root, publish.
        let id_cell = Rc::new(Cell::new(None));
        let i2 = Rc::clone(&id_cell);
        let map = Rc::clone(&c.owner_map);
        let msgr = Rc::clone(&c.owner_msgr);
        let rt = Arc::clone(c.owner.runtime());
        let h2 = Arc::clone(&hits);
        on_core0(&c.owner, (map, msgr, rt, h2), move |(map, msgr, rt, h2)| {
            let m2 = Rc::clone(&map);
            map.allocate(move |id| {
                rt.ebbs().register_root::<CounterEbb>(id, h2);
                publish::<CounterEbb>(&msgr, &m2, EbbRef::from_id(id), OWNER_IP, |ok| {
                    assert!(ok);
                });
                i2.set(Some(id));
            });
        });
        c.w.run_to_idle();
        let id = id_cell.get().expect("id allocated");
        assert!(id.0 >= 1 << 20, "a real global id");

        // Client: the same EbbRef, dereferenced on a machine that does
        // not own the id — miss → GlobalIdMap → proxy → function-ship.
        let got = Rc::new(Cell::new(None));
        let g2 = Rc::clone(&got);
        on_core0(&c.client, g2, move |g2| {
            EbbRef::<CounterEbb>::from_id(id)
                .with_distributed(|rep| rep.poke(move |r| g2.set(Some(r))));
        });
        c.w.run_to_idle();
        assert_eq!(got.get(), Some(Ok(1)), "shipped to the owner and back");
        assert_eq!(hits.load(std::sync::atomic::Ordering::Relaxed), 1);
        assert!(
            c.client.runtime().ebbs().has_rep(id, CoreId(0)),
            "the proxy rep stays installed for the fast path"
        );
        // Steady state: a second call reuses the proxy and the cached
        // owner — one naming round trip total.
        let naming_reqs = c.naming_msgr.dispatched.get();
        let g3 = Rc::clone(&got);
        on_core0(&c.client, g3, move |g3| {
            EbbRef::<CounterEbb>::from_id(id)
                .with_distributed(|rep| rep.poke(move |r| g3.set(Some(r))));
        });
        c.w.run_to_idle();
        assert_eq!(got.get(), Some(Ok(2)));
        assert_eq!(
            c.naming_msgr.dispatched.get(),
            naming_reqs,
            "owner resolution must be cached"
        );
        let _ = (&c.naming, &c.client_msgr, &c.client_transport);
    }

    #[test]
    fn calls_shipped_in_one_pass_coalesce_into_one_batch_frame() {
        let c = cluster();
        let hits = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let id = EbbId((1 << 20) + 7);
        c.owner
            .runtime()
            .ebbs()
            .register_root::<CounterEbb>(id, Arc::clone(&hits));
        let msgr = Rc::clone(&c.owner_msgr);
        let map = Rc::clone(&c.owner_map);
        on_core0(&c.owner, (msgr, map), move |(msgr, map)| {
            publish::<CounterEbb>(&msgr, &map, EbbRef::from_id(id), OWNER_IP, |ok| assert!(ok));
        });
        c.w.run_to_idle();

        // Three calls issued inside ONE event: all resolve to the same
        // owner, so they must leave as one multi-call frame. The replies
        // resolve in staging order (the counter values prove it), and
        // the per-call failure contract is untouched.
        let got = Rc::new(RefCell::new(Vec::new()));
        let g2 = Rc::clone(&got);
        on_core0(&c.client, g2, move |g2| {
            for _ in 0..3 {
                let g3 = Rc::clone(&g2);
                EbbRef::<CounterEbb>::from_id(id)
                    .with_distributed(|rep| rep.poke(move |r| g3.borrow_mut().push(r)));
            }
        });
        c.w.run_to_idle();
        assert_eq!(
            *got.borrow(),
            vec![Ok(1), Ok(2), Ok(3)],
            "all three sub-calls answered, in staging order"
        );
        assert_eq!(hits.load(std::sync::atomic::Ordering::Relaxed), 3);
        assert_eq!(c.client_transport.shipped.get(), 3, "three logical calls");
        assert_eq!(
            c.client_transport.batch_flushes.get(),
            1,
            "one multi-call frame"
        );
        assert_eq!(c.client_transport.batched_calls.get(), 3);
        assert_eq!(c.client_transport.max_batch.get(), 3);
        assert_eq!(c.client_msgr.pending_rpcs(), 0, "one waiter, resolved");
        // The first call's resolution queue and the later calls' staging
        // must not double-deliver anything under the batch path.
        assert_eq!(c.client_transport.retries.get(), 0);
    }

    #[test]
    fn batched_sub_call_for_torn_down_id_fails_over_like_a_single_call() {
        // Two ids published by the owner; it tears one down. A pass
        // shipping one call to each coalesces into a batch; the served
        // sub-call answers normally, the unserved one must surface an
        // error through the normal failover path (bounded retries
        // against the invalidated record), never hang.
        let c = cluster();
        let hits = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let live = EbbId((1 << 20) + 61);
        let dead = EbbId((1 << 20) + 62);
        for id in [live, dead] {
            c.owner
                .runtime()
                .ebbs()
                .register_root::<CounterEbb>(id, Arc::clone(&hits));
            let msgr = Rc::clone(&c.owner_msgr);
            let map = Rc::clone(&c.owner_map);
            on_core0(&c.owner, (msgr, map), move |(msgr, map)| {
                publish::<CounterEbb>(&msgr, &map, EbbRef::from_id(id), OWNER_IP, |ok| assert!(ok));
            });
        }
        c.w.run_to_idle();
        c.owner_msgr.unregister(dead);
        c.client_transport.set_timeout(2_000_000);
        c.client_transport.set_retry_policy(RetryPolicy {
            budget: 2,
            ..RetryPolicy::default()
        });

        let live_got = Rc::new(Cell::new(None));
        let dead_got = Rc::new(Cell::new(None));
        let (l2, d2) = (Rc::clone(&live_got), Rc::clone(&dead_got));
        on_core0(&c.client, (l2, d2), move |(l2, d2)| {
            EbbRef::<CounterEbb>::from_id(live)
                .with_distributed(|rep| rep.poke(move |r| l2.set(Some(r))));
            EbbRef::<CounterEbb>::from_id(dead)
                .with_distributed(|rep| rep.poke(move |r| d2.set(Some(r))));
        });
        c.w.run_to_idle();
        assert_eq!(live_got.get(), Some(Ok(1)), "served sub-call unaffected");
        assert!(
            matches!(
                dead_got.get(),
                Some(Err(RemoteError::Timeout | RemoteError::Unreachable))
            ),
            "unserved sub-call fails after its retry budget: {:?}",
            dead_got.get()
        );
        assert!(c.client_transport.batch_flushes.get() >= 1);
        assert!(
            c.client_transport.retries.get() >= 1,
            "the unserved slot was retried before surfacing"
        );
        assert_eq!(c.client_msgr.pending_rpcs(), 0, "no leaked waiter");
    }

    #[test]
    fn unregistered_id_fails_unresolved_not_hangs() {
        let c = cluster();
        let got = Rc::new(Cell::new(None));
        let g2 = Rc::clone(&got);
        let bogus = EbbId((1 << 20) + 999);
        on_core0(&c.client, g2, move |g2| {
            EbbRef::<CounterEbb>::from_id(bogus)
                .with_distributed(|rep| rep.poke(move |r| g2.set(Some(r))));
        });
        c.w.run_to_idle();
        assert_eq!(
            got.get(),
            Some(Err(RemoteError::Unresolved)),
            "an id nobody published must fail, not hang"
        );
        assert_eq!(c.client_msgr.pending_rpcs(), 0);
        // The id was not negatively cached: publishing later works.
        let hits = Arc::new(std::sync::atomic::AtomicU64::new(0));
        c.owner
            .runtime()
            .ebbs()
            .register_root::<CounterEbb>(bogus, Arc::clone(&hits));
        let msgr = Rc::clone(&c.owner_msgr);
        let map = Rc::clone(&c.owner_map);
        on_core0(&c.owner, (msgr, map), move |(msgr, map)| {
            publish::<CounterEbb>(&msgr, &map, EbbRef::from_id(bogus), OWNER_IP, |ok| {
                assert!(ok)
            });
        });
        c.w.run_to_idle();
        let g3 = Rc::clone(&got);
        on_core0(&c.client, g3, move |g3| {
            EbbRef::<CounterEbb>::from_id(bogus)
                .with_distributed(|rep| rep.poke(move |r| g3.set(Some(r))));
        });
        c.w.run_to_idle();
        assert_eq!(got.get(), Some(Ok(1)), "late registration is found");
    }

    #[test]
    fn naming_service_down_fails_unresolved_not_hangs() {
        // The client's naming client points at an address where nothing
        // answers: owner resolution itself must fail the shipped calls
        // (Unresolved) instead of parking them in the Resolving queue
        // forever — and must not negatively cache, so recovery of the
        // naming service heals the path.
        let c = cluster();
        let dead_naming = Ipv4Addr([10, 0, 0, 88]);
        let id = EbbId((1 << 20) + 33);
        let got = Rc::new(Cell::new(None));
        let g2 = Rc::clone(&got);
        let msgr = Rc::clone(&c.client_msgr);
        on_core0(&c.client, (msgr, g2), move |(msgr, g2)| {
            // Hand-build a map-backed transport without installing it
            // (the machine already has its real one installed).
            let map = GlobalIdMap::new(&msgr, dead_naming);
            let t = MessengerTransport::new(&msgr, Some(map));
            t.ship(
                id,
                Chain::single(IoBuf::copy_from(b"anyone?")),
                Box::new(move |r| g2.set(Some(r.map(|_| ())))),
            );
            // Keep the transport alive until the world quiesces.
            std::mem::forget(t);
        });
        c.w.run_to_idle();
        assert_eq!(
            got.get(),
            Some(Err(RemoteError::Unresolved)),
            "an unreachable naming service must fail resolution, not hang"
        );
        assert_eq!(c.client_msgr.pending_rpcs(), 0);
    }

    #[test]
    fn direct_transport_survives_owner_failures() {
        // A direct (map-less) transport's preset owner is configuration,
        // not a cache: a failed call must NOT strip it — the next call
        // retries the configured address instead of resolving to
        // Unresolved forever.
        let c = cluster();
        let dead_owner = Ipv4Addr([10, 0, 0, 89]);
        let id = EbbId((1 << 20) + 44);
        let got = Rc::new(RefCell::new(Vec::new()));
        let g2 = Rc::clone(&got);
        let msgr = Rc::clone(&c.client_msgr);
        on_core0(&c.client, (msgr, g2), move |(msgr, g2)| {
            let t = MessengerTransport::direct(&msgr);
            t.preset_owner(id, dead_owner);
            let g3 = Rc::clone(&g2);
            let t2 = Rc::clone(&t);
            t.ship(
                id,
                Chain::new(),
                Box::new(move |r| {
                    g3.borrow_mut().push(r.map(|_| ()));
                    // Second call after the first failure: must retry
                    // the preset owner, not report Unresolved.
                    let g4 = Rc::clone(&g3);
                    t2.ship(
                        id,
                        Chain::new(),
                        Box::new(move |r| g4.borrow_mut().push(r.map(|_| ()))),
                    );
                }),
            );
            std::mem::forget(t);
        });
        c.w.run_to_idle();
        let got = got.borrow();
        assert_eq!(got.len(), 2, "both calls must resolve");
        for r in got.iter() {
            assert!(
                matches!(r, Err(RemoteError::Unreachable) | Err(RemoteError::Timeout)),
                "a dead preset owner fails Unreachable/Timeout, never Unresolved: {r:?}"
            );
        }
    }

    #[test]
    fn owner_teardown_mid_call_times_out_without_leaks() {
        let c = cluster();
        let hits = Arc::new(std::sync::atomic::AtomicU64::new(0));
        // Publish an owner record pointing at an address where no
        // machine answers the messenger port — the "owner torn down
        // between resolution and call" shape.
        let dead = EbbId((1 << 20) + 5);
        let map = Rc::clone(&c.owner_map);
        on_core0(&c.owner, map, move |map| {
            map.put(
                dead,
                &global_map::encode_owner(Ipv4Addr([10, 0, 0, 99])),
                |ok| assert!(ok),
            );
        });
        c.w.run_to_idle();
        c.client_transport.set_timeout(2_000_000); // 2 virtual ms
        let got = Rc::new(Cell::new(None));
        let g2 = Rc::clone(&got);
        on_core0(&c.client, g2, move |g2| {
            EbbRef::<CounterEbb>::from_id(dead)
                .with_distributed(|rep| rep.poke(move |r| g2.set(Some(r))));
        });
        c.w.run_to_idle();
        let outcome = got.get().expect("the waiter must resolve");
        assert!(
            matches!(
                outcome,
                Err(RemoteError::Timeout) | Err(RemoteError::Unreachable)
            ),
            "teardown mid-call surfaces as Err, never a hang: {outcome:?}"
        );
        assert_eq!(c.client_msgr.pending_rpcs(), 0, "waiter removed");
        {
            let _b = ebbrt_core::cpu::bind(CoreId(0));
            assert_eq!(
                c.client
                    .runtime()
                    .event_manager(CoreId(0))
                    .timer_stats()
                    .pending,
                0,
                "no leaked timeout entry in the wheel"
            );
        }
        assert_eq!(hits.load(std::sync::atomic::Ordering::Relaxed), 0);
        // The failure invalidated the dead owner record.
        assert!(c.client_transport.invalidations.get() >= 1);
    }

    #[test]
    fn stale_owner_record_recovers_after_restart() {
        let c = cluster();
        let hits = Arc::new(std::sync::atomic::AtomicU64::new(0));
        // Owner publishes and serves one call (the proxy caches the
        // owner address).
        let id = EbbId((1 << 20) + 17);
        c.owner
            .runtime()
            .ebbs()
            .register_root::<CounterEbb>(id, Arc::clone(&hits));
        let msgr = Rc::clone(&c.owner_msgr);
        let map = Rc::clone(&c.owner_map);
        on_core0(&c.owner, (msgr, map), move |(msgr, map)| {
            publish::<CounterEbb>(&msgr, &map, EbbRef::from_id(id), OWNER_IP, |ok| assert!(ok));
        });
        c.w.run_to_idle();
        let got = Rc::new(Cell::new(None));
        let g2 = Rc::clone(&got);
        on_core0(&c.client, g2, move |g2| {
            EbbRef::<CounterEbb>::from_id(id)
                .with_distributed(|rep| rep.poke(move |r| g2.set(Some(r))));
        });
        c.w.run_to_idle();
        assert_eq!(got.get(), Some(Ok(1)));

        // "Restart": the old owner tears its service down and the
        // standby machine takes the id over, re-publishing itself. The
        // client's proxy and transport still cache the old owner.
        c.owner_msgr.unregister(id);
        let restart_hits = Arc::new(std::sync::atomic::AtomicU64::new(100));
        c.standby
            .runtime()
            .ebbs()
            .register_root::<CounterEbb>(id, Arc::clone(&restart_hits));
        let msgr = Rc::clone(&c.standby_msgr);
        let map = Rc::clone(&c.standby_map);
        on_core0(&c.standby, (msgr, map), move |(msgr, map)| {
            publish::<CounterEbb>(&msgr, &map, EbbRef::from_id(id), STANDBY_IP, |ok| {
                assert!(ok)
            });
        });
        c.w.run_to_idle();

        // First call after the restart: the stale attempt times out,
        // the transport invalidates and *retries in place* —
        // re-resolving through the map and landing on the restarted
        // owner inside the same call. The caller never sees the
        // failure, and the proxy rep was never reinstalled.
        c.client_transport.set_timeout(2_000_000);
        let g3 = Rc::clone(&got);
        on_core0(&c.client, g3, move |g3| {
            EbbRef::<CounterEbb>::from_id(id)
                .with_distributed(|rep| rep.poke(move |r| g3.set(Some(r))));
        });
        c.w.run_to_idle();
        assert_eq!(
            got.get(),
            Some(Ok(101)),
            "retry-in-place absorbs the stale record: the first call succeeds"
        );
        assert!(c.client_transport.retries.get() >= 1, "a retry happened");
        assert!(
            c.client_transport.invalidations.get() >= 1,
            "the stale record was invalidated"
        );
        assert_eq!(hits.load(std::sync::atomic::Ordering::Relaxed), 1);
        assert_eq!(restart_hits.load(std::sync::atomic::Ordering::Relaxed), 101);
    }

    #[test]
    fn replicated_record_promotes_standby_inside_the_call() {
        // A replicated ownership record [owner, standby]: both machines
        // export the id, the record lists the owner as primary. Killing
        // the owner mid-traffic must not surface an error — the
        // transport rotates the record (CAS-promoting the standby) and
        // re-ships the same call to it.
        let c = cluster();
        let hits = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let standby_hits = Arc::new(std::sync::atomic::AtomicU64::new(100));
        let id = EbbId((1 << 20) + 21);
        c.owner
            .runtime()
            .ebbs()
            .register_root::<CounterEbb>(id, Arc::clone(&hits));
        c.standby
            .runtime()
            .ebbs()
            .register_root::<CounterEbb>(id, Arc::clone(&standby_hits));
        // Standby exports (serves if promoted); owner exports and
        // publishes the replica list.
        let msgr = Rc::clone(&c.standby_msgr);
        on_core0(&c.standby, msgr, move |msgr| {
            export::<CounterEbb>(&msgr, EbbRef::from_id(id));
        });
        let msgr = Rc::clone(&c.owner_msgr);
        let map = Rc::clone(&c.owner_map);
        on_core0(&c.owner, (msgr, map), move |(msgr, map)| {
            publish_replicated::<CounterEbb>(
                &msgr,
                &map,
                EbbRef::from_id(id),
                &[OWNER_IP, STANDBY_IP],
                |ok| assert!(ok),
            );
        });
        c.w.run_to_idle();

        // Warm the client's proxy and owner cache.
        let got = Rc::new(Cell::new(None));
        let g2 = Rc::clone(&got);
        on_core0(&c.client, g2, move |g2| {
            EbbRef::<CounterEbb>::from_id(id)
                .with_distributed(|rep| rep.poke(move |r| g2.set(Some(r))));
        });
        c.w.run_to_idle();
        assert_eq!(got.get(), Some(Ok(1)), "primary serves in steady state");
        assert_eq!(
            c.client_transport.resolved_primary(id),
            Some(OWNER_IP),
            "record resolved with the owner as primary"
        );

        // Kill the owner (its messenger stops serving the id) and call
        // again: the attempt times out, the transport promotes the
        // standby via CAS and re-ships inside the call.
        c.owner_msgr.unregister(id);
        c.client_transport.set_timeout(2_000_000);
        let g3 = Rc::clone(&got);
        on_core0(&c.client, g3, move |g3| {
            EbbRef::<CounterEbb>::from_id(id)
                .with_distributed(|rep| rep.poke(move |r| g3.set(Some(r))));
        });
        c.w.run_to_idle();
        assert_eq!(
            got.get(),
            Some(Ok(101)),
            "the standby answered the same call the owner dropped"
        );
        assert_eq!(c.client_transport.promotions.get(), 1, "one CAS promotion");
        assert!(c.client_transport.retries.get() >= 1);
        assert_eq!(
            c.client_transport.resolved_primary(id),
            Some(STANDBY_IP),
            "the promoted replica now fronts the record"
        );
        // Steady state after failover: calls flow to the standby
        // without further retries.
        let retries_before = c.client_transport.retries.get();
        let g4 = Rc::clone(&got);
        on_core0(&c.client, g4, move |g4| {
            EbbRef::<CounterEbb>::from_id(id)
                .with_distributed(|rep| rep.poke(move |r| g4.set(Some(r))));
        });
        c.w.run_to_idle();
        assert_eq!(got.get(), Some(Ok(102)));
        assert_eq!(c.client_transport.retries.get(), retries_before);
        assert_eq!(hits.load(std::sync::atomic::Ordering::Relaxed), 1);
    }

    /// An Ebb whose owner records every request payload it is handed.
    struct RecorderEbb(Option<Arc<RecorderRoot>>);
    type RecorderRoot = std::sync::Mutex<Vec<Vec<u8>>>;
    impl MulticoreEbb for RecorderEbb {
        type Root = RecorderRoot;
        fn create_rep(root: &Arc<Self::Root>, _: CoreId) -> Self {
            RecorderEbb(Some(Arc::clone(root)))
        }
    }
    impl DistributedEbb for RecorderEbb {
        fn create_proxy(_: RemoteShipper, _: CoreId) -> Self {
            RecorderEbb(None)
        }
        fn handle_remote(
            &self,
            payload: Chain<IoBuf>,
            respond: impl FnOnce(Chain<IoBuf>) + 'static,
        ) {
            let log = self.0.as_ref().expect("a proxy was asked to serve");
            log.lock()
                .unwrap()
                .push(payload.iter().flat_map(|s| s.bytes().to_vec()).collect());
            respond(wire::WireWriter::op(1).finish());
        }
    }

    #[test]
    fn retried_payload_reaches_the_promoted_owner_byte_identical() {
        // The record's primary is an address nobody answers at: the
        // first attempt's connection dies in ARP (Unreachable), the
        // transport promotes the standby and re-ships. What it re-ships
        // is the descriptor clone it kept of the request — a small
        // marshalled head *and* a linked value — after the first
        // attempt's frame and connection are gone.
        let c = cluster();
        let id = EbbId((1 << 20) + 88);
        let dead_ip = Ipv4Addr([10, 0, 0, 66]);
        let seen = Arc::new(RecorderRoot::default());
        c.standby
            .runtime()
            .ebbs()
            .register_root_arc::<RecorderEbb>(id, Arc::clone(&seen));
        let (msgr, map) = (Rc::clone(&c.standby_msgr), Rc::clone(&c.standby_map));
        on_core0(&c.standby, (msgr, map), move |(msgr, map)| {
            publish_replicated::<RecorderEbb>(
                &msgr,
                &map,
                EbbRef::from_id(id),
                &[dead_ip, STANDBY_IP],
                |ok| assert!(ok),
            );
        });
        c.w.run_to_idle();

        let value: Vec<u8> = (0..2000u32).map(|i| (i * 13) as u8).collect();
        let linked = Chain::single(IoBuf::copy_from(&value));
        let mut req = wire::WireWriter::op(0x42);
        req.u64(0xDEAD_BEEF_0BAD_F00D)
            .bytes16(b"a-key")
            .bytes32_chain(&linked)
            .u8(0x99);
        let payload = req.finish();
        assert!(payload.segment_count() >= 3, "head, linked value, trailer");
        let want: Vec<u8> = payload.iter().flat_map(|s| s.bytes().to_vec()).collect();

        let got = Rc::new(Cell::new(None));
        let g2 = Rc::clone(&got);
        let transport = Rc::clone(&c.client_transport);
        on_core0(
            &c.client,
            (transport, payload, g2),
            move |(t, payload, g2)| {
                t.ship(id, payload, Box::new(move |r| g2.set(Some(r.map(|_| ())))));
            },
        );
        c.w.run_to_idle();
        assert_eq!(got.get(), Some(Ok(())), "the retry was served");
        assert!(c.client_transport.retries.get() >= 1, "a retry happened");
        assert_eq!(
            c.client_transport.promotions.get(),
            1,
            "the standby was promoted"
        );
        assert_eq!(c.client_transport.resolved_primary(id), Some(STANDBY_IP));
        assert_eq!(
            seen.lock().unwrap().as_slice(),
            [want],
            "one delivery, every byte"
        );
        assert_eq!(linked.seg(0).ref_count(), 1, "no descriptor left behind");
        assert_eq!(c.client_msgr.pending_rpcs(), 0);
    }

    #[test]
    fn unpromote_cas_loses_cleanly_to_a_concurrent_promotion() {
        let c = cluster();
        let gid = EbbId((1 << 20) + 77);
        let ring_order = vec![OWNER_IP, STANDBY_IP];
        let promoted = vec![STANDBY_IP, OWNER_IP];

        // The record as a retry-in-place promotion left it: rotated,
        // standby first. First put → lease epoch 1.
        let sm = Rc::clone(&c.standby_map);
        let p = promoted.clone();
        on_core0(&c.standby, sm, move |sm| {
            sm.put(gid, &global_map::encode_owners(&p), |ok| assert!(ok));
        });
        c.w.run_to_idle();

        // Warm the owner↔naming connection so the raced GET below
        // pays no TCP handshake (which would reorder it after the
        // standby's CAS).
        let om = Rc::clone(&c.owner_map);
        on_core0(&c.owner, om, move |om| {
            om.get_versioned(gid, |_| {});
        });
        c.w.run_to_idle();

        // The ring-home machine un-promotes while the standby bumps
        // the lease again (a concurrent promotion against the same
        // epoch). The standby's CAS is timed to land at the naming
        // service *between* the un-promote's epoch read and its CAS —
        // the interleaving where exactly one writer must win.
        let unpromote_won: Rc<Cell<Option<bool>>> = Rc::new(Cell::new(None));
        let promo_won: Rc<Cell<Option<Option<u64>>>> = Rc::new(Cell::new(None));
        let om = Rc::clone(&c.owner_map);
        let u2 = Rc::clone(&unpromote_won);
        let ring = ring_order.clone();
        on_core0(&c.owner, (om, u2), move |(om, u2)| {
            unpromote(&om, gid, ring, move |won| u2.set(Some(won)));
        });
        let sm = Rc::clone(&c.standby_map);
        let p2 = Rc::clone(&promo_won);
        let promoted2 = promoted.clone();
        on_core0(&c.standby, (sm, p2), move |(sm, p2)| {
            // Depart just after the un-promote's GET, well before its
            // put_if (which waits a full round-trip for the GET reply).
            ebbrt_sim::world::charge(500);
            sm.put_if(gid, 1, &global_map::encode_owners(&promoted2), move |won| {
                p2.set(Some(won))
            });
        });
        c.w.run_to_idle();

        assert_eq!(
            promo_won.get(),
            Some(Some(2)),
            "the concurrent promotion won the epoch-1 CAS"
        );
        assert_eq!(
            unpromote_won.get(),
            Some(false),
            "the un-promote lost cleanly"
        );

        // Losing must not clobber: the record still carries the
        // winner's owners at epoch 2 (the loser only invalidated its
        // cache, so this read goes back to the naming service).
        let record: RecordCell = Rc::new(Cell::new(None));
        let om = Rc::clone(&c.owner_map);
        let r2 = Rc::clone(&record);
        on_core0(&c.owner, (om, r2), move |(om, r2)| {
            om.get_versioned(gid, move |r| r2.set(r));
        });
        c.w.run_to_idle();
        let (epoch, data) = record.take().expect("record resolves");
        assert_eq!(epoch, 2, "lease epoch bumped once, by the winner");
        assert_eq!(
            global_map::decode_owners(&data).as_deref(),
            Some(&promoted[..]),
            "winner's record intact"
        );

        // With the race over, the un-promote converges: it re-reads
        // epoch 2 and wins, returning ownership to ring order.
        let om = Rc::clone(&c.owner_map);
        let u3 = Rc::clone(&unpromote_won);
        let ring = ring_order.clone();
        on_core0(&c.owner, (om, u3), move |(om, u3)| {
            unpromote(&om, gid, ring, move |won| u3.set(Some(won)));
        });
        c.w.run_to_idle();
        assert_eq!(unpromote_won.get(), Some(true), "quiet retry converges");
        let record: RecordCell = Rc::new(Cell::new(None));
        let om = Rc::clone(&c.owner_map);
        let r3 = Rc::clone(&record);
        on_core0(&c.owner, (om, r3), move |(om, r3)| {
            om.invalidate(gid);
            om.get_versioned(gid, move |r| r3.set(r));
        });
        c.w.run_to_idle();
        let (epoch, data) = record.take().expect("record resolves");
        assert_eq!(epoch, 3);
        assert_eq!(
            global_map::decode_owners(&data).as_deref(),
            Some(&ring_order[..]),
            "ownership converged back to ring placement"
        );
    }
}
