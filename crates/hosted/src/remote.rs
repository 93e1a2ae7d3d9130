//! The remote-representative layer: distributed Ebbs over the
//! messenger (§2.2, §3.3).
//!
//! This is the hosted half of `ebbrt_core::ebb`'s distributed-Ebb
//! machinery. The core layer defines *what* a proxy rep is (what a
//! proxy-capable type's fault handler installs on a machine that holds
//! no root for the id) and *how* it speaks (a [`RemoteTransport`]
//! shipping payloads addressed to the id); this module supplies the
//! production transport:
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
use std::collections::{HashMap, VecDeque};
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

/// One shipped call, wherever it waits: behind an owner resolution, in
/// a staging slot, or on the wire. `attempt` counts the ship attempts
/// it has already spent.
struct Call {
    id: EbbId,
    /// The request; once a direct call is on the wire, the descriptor
    /// clone of it a retry re-ships.
    payload: Chain<IoBuf>,
    reply: RemoteReply,
    attempt: u32,
}

/// One messenger frame's worth of calls awaiting its verdict, and the
/// owner it went to: a lone call, framed as it was marshalled, or two
/// or more in one [`SystemEbb::RemoteBatch`] frame, in table order. A
/// record with no calls is free; its vector keeps its capacity.
struct Flight {
    owner: Ipv4Addr,
    calls: VecDeque<Call>,
}

/// A resolved ownership record: the ordered replica list (primary
/// first) and the naming-record version it was read at — the CAS token
/// used when this transport promotes a replica.
struct OwnerRecord {
    version: u64,
    owners: Vec<Ipv4Addr>,
}

/// The version of a [`MessengerTransport::preset_owner`] record; the
/// naming service's versions start at 1.
const PRESET_VERSION: u64 = 0;

/// Flight records the in-flight table holds before its first doubling:
/// a machine's steady state (one flight per owner and issuing core per
/// pass, batches included) never grows it mid-run.
const FLIGHTS_ROOM: usize = 7;

/// Resolution state of one remote id.
enum OwnerState {
    /// A GlobalIdMap lookup is in flight; calls queue behind it.
    Resolving(Vec<Call>),
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
    /// `base << attempt`, capped at `max` — saturating: a shift that
    /// pushes bits off the top (`checked_shl` only rejects shifts of 64
    /// or more) is over the cap, not a smaller number.
    fn backoff_ns(&self, attempt: u32) -> Ns {
        let factor = 1u64.checked_shl(attempt).unwrap_or(u64::MAX);
        self.backoff_base_ns
            .saturating_mul(factor)
            .min(self.backoff_max_ns)
    }
}

/// The production [`RemoteTransport`]: GlobalIdMap owner resolution +
/// messenger function shipping, one per machine, installed under
/// [`SystemEbb::Remote`].
pub struct MessengerTransport {
    weak: Weak<MessengerTransport>,
    messenger: Weak<Messenger>,
    /// The naming client owner records are resolved through.
    map: Rc<GlobalIdMap>,
    owners: RefCell<HashMap<u32, OwnerState>>,
    /// Calls resolved to an owner but not yet on the wire: everything a
    /// core ships to one owner within one event pass coalesces into one
    /// multi-call messenger frame, flushed from the pass's idle stage.
    /// A slot stays in the map (empty) between passes, so staging a
    /// lone call allocates nothing.
    staged: RefCell<HashMap<(Ipv4Addr, CoreId), Vec<Call>>>,
    /// Frames on the wire, by the key their messenger continuation
    /// carries (all it carries, so it fits that continuation's inline
    /// words). Records are reused and keep their vectors, so a flight
    /// allocates nothing. A flight still here when the messenger or the
    /// transport is torn down never gets its verdict: its replies,
    /// direct or batched, are dropped uncalled with the transport, as
    /// the messenger drops its waiters.
    flights: RefCell<Vec<Flight>>,
    timeout_ns: Cell<Ns>,
    policy: Cell<RetryPolicy>,
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
    fn new(messenger: &Rc<Messenger>, map: Rc<GlobalIdMap>) -> Rc<MessengerTransport> {
        Rc::new_cyclic(|weak| MessengerTransport {
            weak: Weak::clone(weak),
            messenger: Rc::downgrade(messenger),
            map,
            owners: RefCell::new(HashMap::new()),
            staged: RefCell::new(HashMap::new()),
            flights: RefCell::new(Vec::with_capacity(FLIGHTS_ROOM)),
            timeout_ns: Cell::new(DEFAULT_CALL_TIMEOUT_NS),
            policy: Cell::new(RetryPolicy::default()),
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
    /// host proxy reps: from here on, a proxy-capable Ebb's miss
    /// function-ships instead of panicking. `map` is the machine's
    /// naming client (owner records are resolved through it).
    pub fn install(messenger: &Rc<Messenger>, map: Rc<GlobalIdMap>) -> Rc<MessengerTransport> {
        let t = Self::new(messenger, map);
        let rt = messenger.netif().machine().runtime();
        runtime::install_on_all_cores(rt, SystemEbb::Remote.id(), {
            let t = Rc::clone(&t);
            move |_core| RemoteTransportEbb::new(Rc::clone(&t) as Rc<dyn RemoteTransport>)
        });
        t
    }

    /// Overrides the per-call timeout (virtual ns; `0` disables).
    pub fn set_timeout(&self, timeout_ns: Ns) {
        self.timeout_ns.set(timeout_ns);
    }

    /// Overrides the per-call retry policy.
    pub fn set_retry_policy(&self, policy: RetryPolicy) {
        assert!(policy.budget >= 1, "a call needs at least one attempt");
        self.policy.set(policy);
    }

    /// Configures the owner of `id` without a naming-service record —
    /// how a machine reaches a well-known service at an address it was
    /// booted with (the hosted FileSystem). A preset is configuration,
    /// not a cache: it carries version 0, which the naming service
    /// never issues, and [`Self::invalidate`] leaves it in place, so a
    /// failed call retries the configured address.
    pub fn preset_owner(&self, id: EbbId, owner: Ipv4Addr) {
        self.owners.borrow_mut().insert(
            id.0,
            OwnerState::Resolved(OwnerRecord {
                version: PRESET_VERSION,
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
    fn ship_via(&self, owner: Ipv4Addr, call: Call) {
        let core = runtime::with_current_on(|_, core| core);
        let key = (owner, core);
        let first = {
            let mut staged = self.staged.borrow_mut();
            let calls = staged.entry(key).or_default();
            calls.push(call);
            calls.len() == 1
        };
        if first {
            // The hook holds a *strong* reference: a caller may drop
            // its transport handle the moment `ship` returns, and
            // staged calls must still reach the wire. The reference
            // lives only until this pass's idle stage, so it extends no
            // lifetime beyond the pass.
            let t = self.weak.upgrade().expect("self is alive");
            runtime::with_current(|rt| {
                rt.local_event_manager()
                    .add_idle_once(move || t.flush_staged(key));
            });
        }
    }

    /// Flushes one `(owner, core)` staging slot as one frame: a single
    /// staged call ships exactly like the pre-batching transport; two
    /// or more coalesce into one [`SystemEbb::RemoteBatch`] frame. Either
    /// way the calls move into a free record of [`Self::flights`] —
    /// the staging vector stays, empty — and wait there for
    /// [`Self::landed`].
    fn flush_staged(&self, key: (Ipv4Addr, CoreId)) {
        let owner = key.0;
        let (slot, n) = {
            let mut staged = self.staged.borrow_mut();
            let Some(calls) = staged.get_mut(&key).filter(|calls| !calls.is_empty()) else {
                return;
            };
            let mut flights = self.flights.borrow_mut();
            let slot = match flights.iter().position(|f| f.calls.is_empty()) {
                Some(slot) => slot,
                None => {
                    flights.push(Flight {
                        owner,
                        calls: VecDeque::new(),
                    });
                    flights.len() - 1
                }
            };
            let flight = &mut flights[slot];
            flight.owner = owner;
            flight.calls.extend(calls.drain(..));
            (slot, flight.calls.len())
        };
        if n > 1 {
            self.batch_flushes.set(self.batch_flushes.get() + 1);
            self.batched_calls.set(self.batched_calls.get() + n as u64);
            self.max_batch.set(self.max_batch.get().max(n as u64));
        }
        let Some(m) = self.messenger.upgrade() else {
            (0..n).for_each(|_| {
                self.next_call(slot)
                    .reply
                    .call(Err(RemoteError::Unreachable))
            });
            return;
        };
        let (id, payload) = {
            let calls = &mut self.flights.borrow_mut()[slot].calls;
            match n {
                1 => (calls[0].id, std::mem::take(&mut calls[0].payload)),
                _ => (
                    SystemEbb::RemoteBatch.id(),
                    batch::encode_request(calls.iter().map(|c| (c.id.0, &c.payload))),
                ),
            }
        };
        let weak = Weak::clone(&self.weak);
        m.call_chain_retaining(owner, id, payload, self.timeout_ns.get(), |retained| {
            // A batch's calls still hold their own payloads.
            if n == 1 {
                self.flights.borrow_mut()[slot].calls[0].payload = retained;
            }
            move |r| {
                if let Some(t) = weak.upgrade() {
                    t.landed(slot, r);
                }
            }
        });
    }

    /// The oldest call of flight record `slot`, out of the record: the
    /// last one out leaves the record free.
    fn next_call(&self, slot: usize) -> Call {
        let call = self.flights.borrow_mut()[slot].calls.pop_front();
        call.expect("a call per answer")
    }

    /// The messenger's verdict on flight `slot`. Timeout/Unreachable
    /// fails every call of the flight over, fenced; a direct reply goes
    /// to its caller; a batch reply is answered slot by slot. Each call
    /// leaves the record as it is answered, so a call answered with a
    /// re-ship never meets the flight it left.
    fn landed(&self, slot: usize, outcome: Result<Chain<IoBuf>, RemoteError>) {
        let (owner, n) = {
            let flight = &self.flights.borrow()[slot];
            (flight.owner, flight.calls.len())
        };
        match outcome {
            Err(err @ (RemoteError::Timeout | RemoteError::Unreachable)) => {
                (0..n).for_each(|_| self.retry(owner, self.next_call(slot), err, true))
            }
            Err(err) => (0..n).for_each(|_| self.next_call(slot).reply.call(Err(err))),
            Ok(resp) if n == 1 => self.next_call(slot).reply.call(Ok(resp)),
            Ok(resp) => match batch::decode_response(&resp) {
                Some(slots) if slots.len() == n => {
                    for (status, body) in slots {
                        let c = self.next_call(slot);
                        if status == batch::STATUS_OK {
                            c.reply.call(Ok(body));
                        } else {
                            // The owner answered but had no handler for
                            // this id — the verdict a dropped single call
                            // reaches by timeout, minus the wait and the
                            // fence (the connection itself is healthy).
                            self.retry(owner, c, RemoteError::Timeout, false);
                        }
                    }
                }
                // A malformed reply is indistinguishable from no reply.
                _ => (0..n).for_each(|_| {
                    self.retry(owner, self.next_call(slot), RemoteError::Timeout, true)
                }),
            },
        }
    }

    /// One attempt of `call` to `failed` failed: repair the ownership
    /// record (promote a replica or invalidate for re-resolution), then
    /// — budget permitting — re-ship the same call after an exponential
    /// backoff. This is the retry-in-place core: the caller's reply only
    /// sees an `Err` once the budget is exhausted.
    ///
    /// `fence` is the zombie fence, for a `Timeout`: a timed-out
    /// connection still holds this and possibly later frames, which TCP
    /// would retransmit and deliver arbitrarily late — e.g. a write
    /// reaching a deposed primary after its replacement acknowledged
    /// newer writes — so the connection is aborted and nothing sent
    /// before the verdict can outlive it. (`Unreachable` means the
    /// connection already died, taking its queue with it.)
    fn retry(&self, failed: Ipv4Addr, mut call: Call, err: RemoteError, fence: bool) {
        if fence && matches!(err, RemoteError::Timeout) {
            if let Some(m) = self.messenger.upgrade() {
                m.reset_peer(failed);
            }
        }
        self.failover(call.id, failed);
        let policy = self.policy.get();
        if call.attempt + 1 >= policy.budget {
            call.reply.call(Err(err));
            return;
        }
        self.retries.set(self.retries.get() + 1);
        let backoff = policy.backoff_ns(call.attempt);
        call.attempt += 1;
        let weak = Weak::clone(&self.weak);
        // The failure was delivered inside one of this machine's
        // events, so the local event manager is in scope for the
        // backoff timer.
        runtime::with_current(|rt| {
            rt.local_event_manager()
                .set_timer(backoff, move || match weak.upgrade() {
                    Some(t) => t.ship_attempt(call),
                    None => call.reply.call(Err(RemoteError::Unreachable)),
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
        self.map.put_if(
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
    /// cached record), forcing the next call to re-resolve. A
    /// [`Self::preset_owner`] record stays: there may be no naming
    /// record to re-resolve to, and dropping it would brick the id
    /// after one transient failure.
    pub fn invalidate(&self, id: EbbId) {
        let mut owners = self.owners.borrow_mut();
        if let Some(OwnerState::Resolved(rec)) = owners.get(&id.0) {
            if rec.version == PRESET_VERSION {
                return;
            }
            self.invalidations.set(self.invalidations.get() + 1);
        }
        owners.remove(&id.0);
        drop(owners);
        self.map.invalidate(id);
    }

    /// Starts (or observes) the GlobalIdMap lookup for `id`; queued
    /// calls flush when it lands.
    fn begin_resolve(&self, id: EbbId) {
        let weak = Weak::clone(&self.weak);
        self.map.get_versioned(id, move |record| {
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
                        t.ship_via(addr, call);
                    }
                }
                None => {
                    for call in queued {
                        call.reply.call(Err(RemoteError::Unresolved));
                    }
                }
            }
        });
    }

    /// Routes one attempt of a call: ship to the resolved primary,
    /// queue behind an in-flight resolution, or start one.
    fn ship_attempt(&self, call: Call) {
        let id = call.id;
        let mut owners = self.owners.borrow_mut();
        let owner = match owners.get_mut(&id.0) {
            Some(OwnerState::Resolved(rec)) => rec.owners[0],
            Some(OwnerState::Resolving(q)) => {
                q.push(call);
                return;
            }
            None => {
                owners.insert(id.0, OwnerState::Resolving(vec![call]));
                drop(owners);
                self.begin_resolve(id);
                return;
            }
        };
        drop(owners);
        self.ship_via(owner, call);
    }
}

impl RemoteTransport for MessengerTransport {
    fn ship(&self, id: EbbId, payload: Chain<IoBuf>, reply: RemoteReply) {
        self.shipped.set(self.shipped.get() + 1);
        self.ship_attempt(Call {
            id,
            payload,
            reply,
            attempt: 0,
        });
    }
}

/// Registers the owner-side messenger handler for `id`: each inbound
/// request payload is turned into a response chain by `serve` and sent
/// back correlated by rpc id. The raw (non-Ebb) form, for the naming
/// service alone: it is what the transport resolves every other id
/// *through*, so it cannot itself be reached through the transport.
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

/// [`publish_replicated`] with this machine (at `owner_ip`) as the
/// id's only owner.
pub fn publish<T: DistributedEbb>(
    messenger: &Rc<Messenger>,
    map: &Rc<GlobalIdMap>,
    ebb: EbbRef<T>,
    owner_ip: Ipv4Addr,
    done: impl FnOnce(bool) + 'static,
) {
    publish_replicated(messenger, map, ebb, &[owner_ip], done);
}

/// [`export`] + publish an ordered owner list (primary first) as the
/// id's ownership record in the naming service, which is what lets
/// remote machines' proxies find it. Call it on the machine fronting
/// the record; the other replicas just [`export`] the same id so a
/// promotion finds them already serving. `done` receives the publish
/// acknowledgment.
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
mod tests;
