//! The budgeted syncache: how many half-open inbound connections a
//! class may hold, which one yields under SYN pressure, and the ledger
//! that accounts for every embryo's end.
//!
//! An embryonic connection is an ordinary PCB with
//! [`Pcb::embryonic`](crate::tcp::Pcb::embryonic) set; the cache holds
//! only each class's FIFO of `(token, created_ns)` and a live count.
//! It decides; [`crate::netif`] acts (a victim's teardown has to run on
//! its affinity core).

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::sync::Arc;

use ebbrt_core::clock::Ns;
use ebbrt_core::qos::{ClassId, Counter, MAX_CLASSES};
use ebbrt_core::runtime::Runtime;

use crate::qos_policy::QosPolicy;

/// Minimum age before a budgeted syncache may evict an embryonic
/// connection in favor of a new SYN. A legitimate handshake completes
/// within a couple of round trips (microseconds under the simulator's
/// cost model), so an embryonic entry this old is overwhelmingly a
/// flood SYN that will never ACK. Younger entries are presumed live
/// and the *new* SYN is shed instead.
pub const SYN_FRESH_NS: Ns = 50_000_000;

/// What a class's budget says about one new SYN.
pub(crate) enum Room {
    /// Under the cap (or uncapped): accept.
    Free,
    /// At the cap, the class's oldest embryo (this token) stale: evict
    /// it and accept.
    Evict(u64),
    /// At the cap with every embryo still fresh — a legitimate
    /// thundering herd: keep them, shed the newcomer (counted).
    Shed,
}

/// Per-class embryonic queues, counts and counters. The ledger
/// balances at quiescence:
/// `created == promoted + evicted + aborted + live`.
pub(crate) struct SynCache {
    /// Per-class FIFO of embryonic connections. An entry goes stale in
    /// place when its connection promotes or dies and is dropped once
    /// it reaches the front, so the head is always the oldest live
    /// embryo; `live` holds the true per-class count.
    q: RefCell<[VecDeque<(u64, Ns)>; MAX_CLASSES]>,
    live: [Cell<usize>; MAX_CLASSES],
    /// Embryonic cap for the default class when no QoS policy is
    /// installed; with a policy, each class's `syn_budget` governs.
    backlog: Cell<Option<usize>>,
    syn_shed: Counter,
    created: Counter,
    /// How an embryo left the ledger: its handshake completed, the
    /// syncache evicted it for a newer SYN, or it died first (RST,
    /// handshake give-up, close).
    pub(crate) promoted: Counter,
    pub(crate) evicted: Counter,
    pub(crate) aborted: Counter,
}

impl SynCache {
    pub(crate) fn new(rt: &Arc<Runtime>) -> SynCache {
        SynCache {
            q: RefCell::default(),
            live: Default::default(),
            backlog: Cell::new(None),
            syn_shed: Counter::new(rt, "net.syn_shed"),
            created: Counter::new(rt, "net.embryonic_created"),
            promoted: Counter::new(rt, "net.embryonic_promoted"),
            evicted: Counter::new(rt, "net.embryonic_evicted"),
            aborted: Counter::new(rt, "net.embryonic_aborted"),
        }
    }

    pub(crate) fn set_backlog(&self, cap: usize) {
        self.backlog.set(Some(cap));
    }

    /// Whether `class`'s embryonic budget has room for one new SYN at
    /// `now`.
    pub(crate) fn room(&self, class: ClassId, policy: Option<&QosPolicy>, now: Ns) -> Room {
        let cap = match policy {
            Some(policy) => policy.syn_budget(class),
            None => self.backlog.get(),
        };
        let ci = class.0 as usize % MAX_CLASSES;
        if cap.is_none_or(|cap| self.live[ci].get() < cap) {
            return Room::Free;
        }
        // At the cap: the queue's head is the class's oldest embryo.
        match self.q.borrow()[ci].front() {
            // Old enough that a live peer would have ACKed long ago.
            Some(&(tok, created)) if now.saturating_sub(created) >= SYN_FRESH_NS => {
                Room::Evict(tok)
            }
            Some(_) => {
                self.syn_shed.bump();
                Room::Shed
            }
            None => {
                // Count says full but the queue found nothing — cannot
                // happen while the ledger balances; fail open.
                debug_assert!(false, "embryonic count/queue out of sync");
                Room::Free
            }
        }
    }

    /// Records a new embryonic connection of `class`.
    pub(crate) fn created(&self, class: ClassId, id: u64, now: Ns) {
        let ci = class.0 as usize % MAX_CLASSES;
        self.q.borrow_mut()[ci].push_back((id, now));
        self.live[ci].set(self.live[ci].get() + 1);
        self.created.bump();
    }

    /// Settles an embryonic connection's ledger entry under `why` (one
    /// of the three exit counters). The caller has already cleared the
    /// PCB's `embryonic` flag or removed the connection, so its queue
    /// entry is stale; `is_embryo` says whether a token still names a
    /// live embryo, and every stale entry ahead of the first one that
    /// does is dropped — the queue is no longer than the run of
    /// connections accepted since its oldest live embryo, not one entry
    /// per connection ever accepted.
    pub(crate) fn gone(&self, class: u8, why: &Counter, is_embryo: impl Fn(u64) -> bool) {
        let ci = class as usize % MAX_CLASSES;
        let live = &self.live[ci];
        debug_assert!(live.get() > 0, "embryonic ledger underflow");
        live.set(live.get().saturating_sub(1));
        why.bump();
        let q = &mut self.q.borrow_mut()[ci];
        while q.front().is_some_and(|&(tok, _)| !is_embryo(tok)) {
            q.pop_front();
        }
    }

    /// Live embryonic connections of `class`.
    pub(crate) fn live(&self, class: ClassId) -> usize {
        self.live[class.0 as usize % MAX_CLASSES].get()
    }

    /// Live embryonic connections across classes.
    pub(crate) fn total(&self) -> usize {
        self.live.iter().map(Cell::get).sum()
    }

    /// Queue entries held, stale ones included.
    pub(crate) fn queued(&self) -> usize {
        self.q.borrow().iter().map(VecDeque::len).sum()
    }
}
