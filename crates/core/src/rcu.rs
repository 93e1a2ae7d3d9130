//! Read-Copy-Update tied to event-loop quiescence (§3.6 of the paper).
//!
//! Because EbbRT events are non-preemptive, *every event boundary is a
//! quiescent state*: a reader cannot hold an RCU-protected pointer across
//! events, so once every core has passed an event boundary (or is idle),
//! retired memory is unreachable. Entering and exiting a read-side
//! critical section therefore costs nothing inside an event — the paper's
//! "entering and exiting RCU critical sections have no cost".
//!
//! Mechanics: each core has a [`CoreEpoch`] whose counter the event
//! manager bumps after every handler, plus an `in_event` flag. A grace
//! period is a snapshot of all counters; it has elapsed once every core
//! has either advanced past its snapshot or is outside any event.
//! (A core outside an event holds no RCU references, and new events
//! cannot reach memory that was unlinked before it was retired.)
//!
//! # Retiring costs nothing
//!
//! A retired block carries its own [`Retired`] header — a link and the
//! function that reclaims it — so [`RcuDomain::retire_raw`] is a list
//! push: no allocation, no per-item snapshot. Items do not get a
//! snapshot each; they wait in a *fresh* batch until a reclaim pass finds
//! no batch waiting, and then the whole batch shares **one** snapshot,
//! written into storage the domain allocated once. The shared snapshot is
//! taken after the last item of the batch was retired, which only errs
//! late: a reader that could still hold an item entered its event before
//! the item was unlinked, hence before the snapshot, so "every core has
//! passed a boundary since the snapshot or is idle" implies the same
//! condition for each item's own, earlier, retire instant. The price is
//! that an item retired while a batch is blocked behind a reader waits
//! for that batch first — at most one extra grace period.
//!
//! Code running outside an event loop (hosted threads, tests) brackets
//! its reads with [`RcuDomain::read_guard`], which sets the same
//! `in_event` flag.

use std::ptr::{self, NonNull};
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, Ordering};
use std::sync::Arc;

use crate::cpu::CoreId;
use crate::spinlock::SpinLock;

/// Per-core quiescence state. The owning core's event loop bumps
/// `count` at each event boundary; `in_event` brackets handler (or
/// read-guard) execution.
pub struct CoreEpoch {
    count: AtomicU64,
    in_event: AtomicBool,
}

impl CoreEpoch {
    /// Creates an idle epoch.
    pub fn new() -> Self {
        CoreEpoch {
            count: AtomicU64::new(0),
            in_event: AtomicBool::new(false),
        }
    }

    /// Marks the start of an event / read-side critical section.
    #[inline]
    pub fn enter(&self) {
        self.in_event.store(true, Ordering::Release);
    }

    /// Marks the end of an event: clears `in_event` and passes a
    /// quiescent state.
    #[inline]
    pub fn exit_quiescent(&self) {
        self.in_event.store(false, Ordering::Release);
        // Only the owning core writes the counter; load+store avoids an
        // atomic RMW on the fast path.
        let c = self.count.load(Ordering::Relaxed);
        self.count.store(c + 1, Ordering::Release);
    }

    /// Current boundary count.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Acquire)
    }

    /// Whether a handler / read guard is live on this core.
    pub fn in_event(&self) -> bool {
        self.in_event.load(Ordering::Acquire)
    }
}

impl Default for CoreEpoch {
    fn default() -> Self {
        Self::new()
    }
}

/// The header of a block that can be retired without allocating: the
/// link the domain queues it by and the function that reclaims it.
///
/// Embed it as the **first** field of a `#[repr(C)]` struct; the
/// reclaim function receives the header's address, which is then also
/// the block's.
pub struct Retired {
    /// Atomic only so the domain can write it through the shared
    /// references readers may still hold to the block; every access is
    /// under the domain's lock.
    next: AtomicPtr<Retired>,
    reclaim: unsafe fn(NonNull<Retired>),
}

impl Retired {
    /// A header for a block that `reclaim` disposes of. The domain
    /// calls it exactly once, a grace period after the block was
    /// retired, from whichever thread runs the reclaim pass.
    pub const fn new(reclaim: unsafe fn(NonNull<Retired>)) -> Self {
        Retired {
            next: AtomicPtr::new(ptr::null_mut()),
            reclaim,
        }
    }
}

/// Retired blocks linked through their headers, oldest first.
struct Batch {
    head: *mut Retired,
    tail: *mut Retired,
    len: usize,
}

impl Batch {
    const EMPTY: Batch = Batch {
        head: ptr::null_mut(),
        tail: ptr::null_mut(),
        len: 0,
    };

    fn is_empty(&self) -> bool {
        self.head.is_null()
    }

    /// Moves every block of `other` behind this batch's.
    fn append(&mut self, other: Batch) {
        if other.is_empty() {
            return;
        }
        if self.is_empty() {
            *self = other;
            return;
        }
        // SAFETY: a non-empty batch's `tail` is a header handed to
        // `retire_raw`, which the batch owns until it is reclaimed.
        unsafe { (*self.tail).next.store(other.head, Ordering::Relaxed) };
        self.tail = other.tail;
        self.len += other.len;
    }

    /// Reclaims every block, oldest first; returns how many.
    fn reclaim_all(self) -> usize {
        let mut p = self.head;
        while let Some(item) = NonNull::new(p) {
            // SAFETY: every header in a batch came through
            // `retire_raw`, whose caller vouched for it; the link is
            // read before `reclaim` runs, which may free the block. The
            // caller of `reclaim_all` established that the batch's
            // grace period is over (or that no reader can exist).
            unsafe {
                p = item.as_ref().next.load(Ordering::Relaxed);
                (item.as_ref().reclaim)(item);
            }
        }
        self.len
    }
}

/// What is waiting to be reclaimed, and on what.
struct Pending {
    /// Retired since the last snapshot: no grace period has started
    /// for these yet.
    fresh: Batch,
    /// Waiting for `snapshot`'s grace period.
    waiting: Batch,
    /// Counter snapshot per core, taken when `waiting` was last
    /// filled. Allocated once; every batch reuses it.
    snapshot: Box<[u64]>,
}

// SAFETY: the raw pointers are headers of retired blocks, which the
// batches own exclusively (`retire_raw`'s contract) and whose reclaim
// functions may run on any thread (likewise); the snapshot is plain
// data.
unsafe impl Send for Pending {}

/// A block retired by value: the header, then the thing to drop.
#[repr(C)]
struct Boxed<T> {
    hdr: Retired,
    _garbage: T,
}

/// An RCU domain: the epochs of one machine's cores plus what has been
/// retired and not yet reclaimed.
pub struct RcuDomain {
    epochs: Box<[Arc<CoreEpoch>]>,
    pending: SpinLock<Pending>,
}

impl RcuDomain {
    /// Creates a domain covering `ncores` cores.
    pub fn new(ncores: usize) -> Self {
        RcuDomain {
            epochs: (0..ncores)
                .map(|_| Arc::new(CoreEpoch::new()))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            pending: SpinLock::new(Pending {
                fresh: Batch::EMPTY,
                waiting: Batch::EMPTY,
                snapshot: vec![0; ncores].into_boxed_slice(),
            }),
        }
    }

    /// The epoch for `core` (shared with that core's event manager).
    pub fn epoch(&self, core: CoreId) -> Arc<CoreEpoch> {
        Arc::clone(&self.epochs[core.index()])
    }

    /// Number of cores covered.
    pub fn ncores(&self) -> usize {
        self.epochs.len()
    }

    /// Brackets a read-side critical section for code running outside an
    /// event loop (hosted threads, tests). Inside events this is
    /// unnecessary — the event itself is the critical section.
    pub fn read_guard(&self, core: CoreId) -> ReadGuard<'_> {
        let epoch = &self.epochs[core.index()];
        let was_in_event = epoch.in_event();
        epoch.enter();
        ReadGuard {
            epoch,
            was_in_event,
        }
    }

    /// Defers reclamation of the block `item` heads until all current
    /// readers are done. Allocates nothing.
    ///
    /// # Safety
    ///
    /// `item` is the [`Retired`] header at the start of a live block
    /// that no new reader can reach (publish the unlink *before*
    /// retiring). From this call until the header's reclaim function
    /// is invoked with it — once, possibly on another thread — nothing
    /// but the domain touches the header, and the block stays valid.
    pub unsafe fn retire_raw(&self, item: NonNull<Retired>) {
        // SAFETY: the caller vouches that the header is live.
        unsafe { item.as_ref() }
            .next
            .store(ptr::null_mut(), Ordering::Relaxed);
        self.pending.lock().fresh.append(Batch {
            head: item.as_ptr(),
            tail: item.as_ptr(),
            len: 1,
        });
    }

    /// Defers destruction of `garbage` until all current readers are
    /// done. The caller must already have unlinked it from any shared
    /// structure (publish the unlink *before* retiring). One allocation:
    /// the box that gives `garbage` a [`Retired`] header.
    pub fn retire<T: Send + 'static>(&self, garbage: T) {
        unsafe fn drop_boxed<T>(hdr: NonNull<Retired>) {
            // SAFETY: `hdr` is the first field of the `repr(C)`
            // `Boxed<T>` boxed below, handed back exactly once.
            drop(unsafe { Box::from_raw(hdr.as_ptr().cast::<Boxed<T>>()) });
        }
        let block = Box::into_raw(Box::new(Boxed {
            hdr: Retired::new(drop_boxed::<T>),
            _garbage: garbage,
        }));
        // SAFETY: `block` is non-null, live until `drop_boxed` frees
        // it, and out of everyone else's reach; its header is its first
        // field, and `T: Send` lets the drop happen on any thread.
        unsafe { self.retire_raw(NonNull::new_unchecked(block).cast()) };
    }

    /// Schedules `f` to run after a grace period (the classic
    /// `call_rcu`). Runs from whichever thread performs the reclaim.
    pub fn call_rcu(&self, f: impl FnOnce() + Send + 'static) {
        struct CallOnDrop<F: FnOnce()>(Option<F>);
        impl<F: FnOnce()> Drop for CallOnDrop<F> {
            fn drop(&mut self) {
                if let Some(f) = self.0.take() {
                    f();
                }
            }
        }
        self.retire(CallOnDrop(Some(f)));
    }

    /// Reclaims everything retired whose grace period has elapsed;
    /// returns how many items that was. Cheap when nothing is pending,
    /// and allocates nothing. Called periodically by event loops and
    /// explicitly by tests.
    ///
    /// With no batch waiting, everything retired so far becomes the
    /// waiting batch under one fresh snapshot, and is checked at once —
    /// so a pass that finds every core idle reclaims all there is.
    pub fn try_reclaim(&self) -> usize {
        let mut pending = match self.pending.try_lock() {
            Some(p) => p,
            None => return 0,
        };
        let mut done = Batch::EMPTY;
        loop {
            if pending.waiting.is_empty() {
                if pending.fresh.is_empty() {
                    break;
                }
                pending.waiting = std::mem::replace(&mut pending.fresh, Batch::EMPTY);
                self.snapshot_into(&mut pending.snapshot);
            }
            if !self.grace_elapsed(&pending.snapshot) {
                break;
            }
            done.append(std::mem::replace(&mut pending.waiting, Batch::EMPTY));
        }
        drop(pending);
        // Reclaim outside the lock: destructors may retire more.
        done.reclaim_all()
    }

    /// Number of retired items awaiting a grace period.
    pub fn pending_count(&self) -> usize {
        let pending = self.pending.lock();
        pending.fresh.len + pending.waiting.len
    }

    /// Starts a grace period: writes every core's boundary count into
    /// `snapshot` (one slot per core), for [`Self::grace_elapsed`].
    pub fn snapshot_into(&self, snapshot: &mut [u64]) {
        assert_eq!(snapshot.len(), self.epochs.len(), "one slot per core");
        for (slot, epoch) in snapshot.iter_mut().zip(self.epochs.iter()) {
            *slot = epoch.count();
        }
    }

    /// Whether every reader that was inside an event when `snapshot`
    /// was taken has since left it.
    pub fn grace_elapsed(&self, snapshot: &[u64]) -> bool {
        self.epochs.iter().zip(snapshot.iter()).all(|(e, &snap)| {
            // The core passed a boundary since the snapshot, or holds no
            // references right now (outside any event, and new events
            // cannot reach already-unlinked memory).
            e.count() != snap || !e.in_event()
        })
    }
}

impl Drop for RcuDomain {
    fn drop(&mut self) {
        // All readers are gone when the domain is dropped; release
        // everything.
        let pending = self.pending.get_mut();
        let mut all = std::mem::replace(&mut pending.waiting, Batch::EMPTY);
        all.append(std::mem::replace(&mut pending.fresh, Batch::EMPTY));
        all.reclaim_all();
    }
}

/// RAII read-side critical section for non-event threads.
pub struct ReadGuard<'a> {
    epoch: &'a CoreEpoch,
    was_in_event: bool,
}

impl Drop for ReadGuard<'_> {
    fn drop(&mut self) {
        if !self.was_in_event {
            self.epoch.exit_quiescent();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::sync::atomic::AtomicUsize;

    /// Counts allocator calls per thread (for the whole unit-test
    /// binary; only the test below reads the count).
    #[global_allocator]
    static ALLOCATOR: test_alloc::CountingAlloc = test_alloc::CountingAlloc;

    /// A block with an embedded header whose reclaim only counts: the
    /// test keeps ownership, so retiring it can be watched for
    /// allocator calls.
    #[repr(C)]
    struct Block {
        hdr: Retired,
        reclaimed: Cell<u32>,
    }

    impl Block {
        fn new() -> Box<Block> {
            unsafe fn note(hdr: NonNull<Retired>) {
                // SAFETY: `hdr` heads a `Block` the test still owns.
                let block = unsafe { hdr.cast::<Block>().as_ref() };
                block.reclaimed.set(block.reclaimed.get() + 1);
            }
            Box::new(Block {
                hdr: Retired::new(note),
                reclaimed: Cell::new(0),
            })
        }
    }

    fn retire_block(domain: &RcuDomain, block: &Block) {
        // SAFETY: the test keeps `block` alive past the domain, nothing
        // else touches its header, and everything runs on this thread.
        unsafe { domain.retire_raw(NonNull::from(block).cast()) };
    }

    #[test]
    fn a_batch_behind_a_reader_waits_and_every_batch_reuses_one_snapshot() {
        let domain = RcuDomain::new(3);
        let blocks: Vec<Box<Block>> = (0..8).map(|_| Block::new()).collect();
        let all_reclaimed = |times: u32| blocks.iter().all(|b| b.reclaimed.get() == times);
        let before = test_alloc::thread_calls();
        for round in 1..=5u32 {
            let guard = domain.read_guard(CoreId(1));
            for b in &blocks[..5] {
                retire_block(&domain, b);
            }
            // The pass snapshots the five as one batch; core 1 is in
            // an event and has not moved, so nothing is reclaimed.
            assert_eq!(domain.try_reclaim(), 0);
            // Retired while that batch waits: these queue behind it,
            // with no snapshot of their own yet.
            for b in &blocks[5..] {
                retire_block(&domain, b);
            }
            assert_eq!(domain.try_reclaim(), 0);
            assert_eq!(domain.pending_count(), 8);
            assert!(all_reclaimed(round - 1));
            drop(guard);
            // One pass: the waiting batch, then the fresh one under a
            // snapshot taken now, checked at once.
            assert_eq!(domain.try_reclaim(), 8);
            assert!(all_reclaimed(round));
            assert_eq!(domain.pending_count(), 0);
        }
        assert_eq!(
            test_alloc::thread_calls(),
            before,
            "retiring or reclaiming called the allocator"
        );
    }

    #[test]
    fn a_later_batch_does_not_ride_an_earlier_batchs_grace_period() {
        let domain = RcuDomain::new(2);
        let epoch = domain.epoch(CoreId(0));
        let (first, second) = (Block::new(), Block::new());
        epoch.enter();
        retire_block(&domain, &first);
        assert_eq!(domain.try_reclaim(), 0);
        // Core 0 passes a boundary — `first` is safe — and enters the
        // event that may still be reading `second` when it is retired.
        epoch.exit_quiescent();
        epoch.enter();
        retire_block(&domain, &second);
        assert_eq!(domain.try_reclaim(), 1);
        assert_eq!((first.reclaimed.get(), second.reclaimed.get()), (1, 0));
        epoch.exit_quiescent();
        assert_eq!(domain.try_reclaim(), 1);
        assert_eq!(second.reclaimed.get(), 1);
    }

    struct DropCounter(Arc<AtomicUsize>);
    impl Drop for DropCounter {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn reclaim_immediate_when_all_idle() {
        let domain = RcuDomain::new(2);
        let drops = Arc::new(AtomicUsize::new(0));
        domain.retire(DropCounter(Arc::clone(&drops)));
        assert_eq!(domain.pending_count(), 1);
        // No core is in an event: grace period is trivially over.
        assert_eq!(domain.try_reclaim(), 1);
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn reader_blocks_grace_period() {
        let domain = RcuDomain::new(2);
        let drops = Arc::new(AtomicUsize::new(0));
        let guard = domain.read_guard(CoreId(1));
        domain.retire(DropCounter(Arc::clone(&drops)));
        assert_eq!(domain.try_reclaim(), 0, "live reader must block reclaim");
        assert_eq!(drops.load(Ordering::SeqCst), 0);
        drop(guard);
        assert_eq!(domain.try_reclaim(), 1);
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn counter_advance_ends_grace_period() {
        let domain = RcuDomain::new(1);
        let epoch = domain.epoch(CoreId(0));
        let drops = Arc::new(AtomicUsize::new(0));
        // Simulate an event loop: retire happens mid-event, then the
        // event completes (boundary) and a new event begins.
        epoch.enter();
        domain.retire(DropCounter(Arc::clone(&drops)));
        assert_eq!(domain.try_reclaim(), 0);
        epoch.exit_quiescent();
        epoch.enter();
        // Even though the core is in a (new) event, the boundary passed.
        assert_eq!(domain.try_reclaim(), 1);
        epoch.exit_quiescent();
    }

    #[test]
    fn call_rcu_runs_after_grace() {
        let domain = RcuDomain::new(1);
        let ran = Arc::new(AtomicUsize::new(0));
        let r2 = Arc::clone(&ran);
        let guard = domain.read_guard(CoreId(0));
        domain.call_rcu(move || {
            r2.fetch_add(1, Ordering::SeqCst);
        });
        domain.try_reclaim();
        assert_eq!(ran.load(Ordering::SeqCst), 0);
        drop(guard);
        domain.try_reclaim();
        assert_eq!(ran.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn nested_read_guards() {
        let domain = RcuDomain::new(1);
        let g1 = domain.read_guard(CoreId(0));
        let g2 = domain.read_guard(CoreId(0));
        drop(g2);
        // Outer guard still live: still in a critical section.
        assert!(domain.epoch(CoreId(0)).in_event());
        drop(g1);
        assert!(!domain.epoch(CoreId(0)).in_event());
    }

    #[test]
    fn multi_retire_mixed_grace() {
        let domain = RcuDomain::new(2);
        let drops = Arc::new(AtomicUsize::new(0));
        domain.retire(DropCounter(Arc::clone(&drops)));
        let guard = domain.read_guard(CoreId(0));
        domain.retire(DropCounter(Arc::clone(&drops)));
        // First item retired before the guard; its snapshot still sees
        // core 0 in-event *now*, but core 0's count has not changed and
        // it IS in an event, so both wait.
        assert_eq!(domain.try_reclaim(), 0);
        drop(guard);
        assert_eq!(domain.try_reclaim(), 2);
        assert_eq!(drops.load(Ordering::SeqCst), 2);
    }
}
