#![forbid(unsafe_code)]
//! Per-core object caches: one core's free list and the shared depot it
//! overflows to and refills from (§3.4).
//!
//! Every allocator of the paper has this shape. A core keeps freed
//! objects on a list it touches with no synchronisation; past a
//! watermark the list flushes a batch to a shared depot, and a dry list
//! refills a batch from it. [`ObjCache`] is the list — rep-local state
//! (plain `RefCell`/`Cell`, legal because events are non-preemptive and
//! a rep is only touched from its own core, see
//! [`MulticoreEbb`](crate::ebb::MulticoreEbb)). [`Depot`] is the batch
//! store every core of the owner shares, behind a lock. The cache owns
//! the whole policy:
//!
//! * [`ObjCache::take`] pops the newest object; on a dry list it refills
//!   the newest batch from the depot;
//! * [`ObjCache::give`] pushes; at the effective watermark it flushes the
//!   coldest batch, so recently freed objects stay local and cache-warm.
//!
//! The effective watermark is flux-adaptive: a list that has *only
//! grown* since it last balanced against the depot — a core that frees
//! what other cores allocate — flushes at half its watermark, priming
//! the depot after half the parked population. A take, a refill or a miss is local demand and restores
//! the full watermark.
//!
//! The owner keeps what is not a free list: the buffer pool
//! ([`crate::iobuf::pool`]) keeps its remote-free mailboxes and
//! counters.

use std::cell::{Cell, RefCell};
use std::sync::Mutex;

/// The batch store every core's [`ObjCache`] of one owner shares. A list
/// flushes onto its end and refills from its end, so a refill takes the
/// most recently flushed objects.
pub struct Depot<T>(Mutex<Vec<T>>);

impl<T> Default for Depot<T> {
    fn default() -> Self {
        Depot(Mutex::new(Vec::new()))
    }
}

impl<T> Depot<T> {
    /// Objects parked in the depot.
    pub fn len(&self) -> usize {
        crate::lock(&self.0).len()
    }

    /// Whether the depot holds no object.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One core's free list over a [`Depot`], with its flux-adaptive balance
/// state. Rep-local: never shared between cores.
pub struct ObjCache<T> {
    list: RefCell<Vec<T>>,
    /// Takes since this list last balanced against the depot (flushed or
    /// refilled). Zero means it has only grown since then, which halves
    /// the effective watermark.
    takes_since_balance: Cell<u64>,
    /// List length at which a give flushes (halved, see above).
    watermark: usize,
    /// Objects moved between the list and the depot at once.
    batch: usize,
}

impl<T> ObjCache<T> {
    /// An empty cache that flushes at `watermark`, moves `batch`
    /// objects at a time, and whose list holds `capacity` objects
    /// before it grows. The owner passes the constants it has.
    pub fn new(watermark: usize, batch: usize, capacity: usize) -> Self {
        ObjCache {
            list: RefCell::new(Vec::with_capacity(capacity)),
            takes_since_balance: Cell::new(0),
            watermark,
            batch,
        }
    }

    /// Pops the newest object. A dry list first lets `restock` append to
    /// it (the buffer pool drains its remote-free mailbox there), then,
    /// still dry, refills the newest batch from `depot`. Returns the
    /// object and how many objects moved into the list before it was
    /// popped (0 on a plain hit), or `None` when list, `restock` and
    /// depot were all dry: the caller makes a fresh object.
    #[inline]
    pub fn take(&self, depot: &Depot<T>, restock: impl FnOnce(&mut Vec<T>)) -> Option<(T, usize)> {
        let mut list = self.list.borrow_mut();
        let takes = &self.takes_since_balance;
        if let Some(obj) = list.pop() {
            takes.set(takes.get() + 1);
            return Some((obj, 0));
        }
        restock(&mut list);
        if list.is_empty() {
            let mut depot = crate::lock(&depot.0);
            let from = depot.len().saturating_sub(self.batch);
            list.extend(depot.drain(from..));
        }
        let moved = list.len();
        let Some(obj) = list.pop() else {
            // A miss is local demand: it counts like a take, so a core
            // that allocates keeps the full watermark.
            takes.set(takes.get() + 1);
            return None;
        };
        // A refill is a balance; this pop is the first take since it.
        takes.set(1);
        Some((obj, moved))
    }

    /// Pushes `obj`; at the effective watermark, flushes the coldest
    /// batch to `depot`. Returns how many objects it flushed.
    #[inline]
    pub fn give(&self, obj: T, depot: &Depot<T>) -> usize {
        let mut list = self.list.borrow_mut();
        list.push(obj);
        let watermark = match self.takes_since_balance.get() {
            0 => self.watermark / 2,
            _ => self.watermark,
        };
        if list.len() < watermark {
            return 0;
        }
        let n = self.batch.min(list.len());
        crate::lock(&depot.0).extend(list.drain(..n));
        self.takes_since_balance.set(0);
        n
    }

    /// Pushes `objs` with no flush and no change to the balance state: a
    /// prewarm.
    pub fn stock(&self, objs: impl IntoIterator<Item = T>) {
        self.list.borrow_mut().extend(objs);
    }

    /// Moves everything out of `parked`: the list is topped up to one
    /// batch and the rest goes to `depot`. Returns how many went to the
    /// depot. `parked` keeps its capacity; a caller holding its lock
    /// takes the depot's after it.
    pub fn absorb(&self, parked: &mut Vec<T>, depot: &Depot<T>) -> usize {
        let mut list = self.list.borrow_mut();
        let keep = self.batch.saturating_sub(list.len()).min(parked.len());
        list.extend(parked.drain(..keep));
        let rest = parked.len();
        if rest > 0 {
            crate::lock(&depot.0).extend(parked.drain(..));
        }
        rest
    }

    /// Objects on the list.
    pub fn len(&self) -> usize {
        self.list.borrow().len()
    }

    /// Whether the list holds no object.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests;
