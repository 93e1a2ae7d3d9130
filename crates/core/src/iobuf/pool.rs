#![forbid(unsafe_code)]
//! Per-core, multi-size-class buffer pools — **an Ebb**.
//!
//! The pool is the canonical well-known system Ebb
//! ([`crate::ebb::SystemEbb::BufferPool`]): its per-core
//! *representatives* ([`PoolEbb`]) are the unsynchronized free
//! lists (plain `RefCell`/`Cell` state, legal because events are
//! non-preemptive and a rep is only touched from its owning core) and
//! its *root* ([`PoolRoot`]) owns the shared per-class depots
//! that batches migrate through. The design mirrors the `ebbrt-mem`
//! slab allocator (§3.4), re-homed onto `EbbRef` dispatch: every
//! allocation resolves the calling context's rep in one translation-
//! table load, and the root is lazily registered (`Default`), so the
//! pool needs no setup call.
//!
//! Because the state lives in the runtime, pools are **per machine**:
//! each simulated machine (and each test that creates a `Runtime`)
//! owns an independent pool, and code outside any entered runtime gets
//! a thread-private ambient context
//! ([`crate::runtime::with_context`]) — which is why the old global
//! test-serialization mutex is gone. A pooled region remembers its
//! *home* root; a region freed under a different machine's runtime (a
//! frame handed across the simulated wire) returns to its home depot,
//! so each machine's buffer economy balances instead of leaking
//! storage to whichever machine freed last.
//!
//! Pooled regions come in [`NUM_CLASSES`] size classes
//! ([`SizeClass`]): a [`SizeClass::Small`] class sized
//! for an MTU frame plus header room, and a [`SizeClass::Large`]
//! class for jumbo frames and multi-kilobyte message staging.
//! Allocation is routed by requested length ([`class_for`]);
//! only requests beyond [`LARGE_CAPACITY`] fall back to
//! exact-size one-shot allocations (counted by
//! [`Snapshot::oversize_allocs`](super::stats::Snapshot::oversize_allocs)).
//!
//! Each class has its own local high watermark and migration batch
//! size: a core whose list grows past the watermark (a *consumer* of
//! buffers other cores allocate — e.g. the core a skewed connection's
//! frames are freed on) flushes a cold batch to the depot, and a core
//! whose list runs dry refills a batch from it. The per-class
//! [`depot_in`](super::stats::ClassCounters::depot_in) /
//! [`depot_out`](super::stats::ClassCounters::depot_out) counters make
//! that migration traffic measurable.
//!
//! Recycling is automatic: [`MutIoBuf`](super::MutIoBuf) and
//! [`IoBuf`](super::IoBuf) storage acquired from the pool returns to the
//! *freeing core's* list when the last descriptor referencing it drops.

use super::region::{FreeRegion, RegionRef};
use super::stats::{add, bump, Counters};
use crate::cpu::CoreId;
use crate::ebb::{EbbId, EbbManager, MulticoreEbb, SystemEbb};
use crate::runtime::{self, Runtime};
use crate::spinlock::SpinLock;
use std::cell::{Cell, RefCell};
use std::sync::Arc;

/// Capacity of a [`SizeClass::Small`] region: one Ethernet MTU
/// plus header and alignment room. Covers frames, header buffers,
/// and typical small application payload buffers.
pub const SMALL_CAPACITY: usize = 2048;

/// Capacity of a [`SizeClass::Large`] region: jumbo frames and
/// multi-kilobyte request/response staging (e.g. memcached SET
/// values above [`SMALL_CAPACITY`]).
pub const LARGE_CAPACITY: usize = 64 * 1024;

/// Number of pooled size classes.
pub const NUM_CLASSES: usize = 2;

/// A pooled region size class. Every class keeps per-core free
/// lists plus a shared depot with its own watermark and batch
/// size; [`class_for`] routes a requested capacity to the smallest
/// class that fits it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SizeClass {
    /// [`SMALL_CAPACITY`]-byte regions (frames, headers).
    Small,
    /// [`LARGE_CAPACITY`]-byte regions (jumbo frames, large
    /// values).
    Large,
}

impl SizeClass {
    /// All classes, smallest first.
    pub const ALL: [SizeClass; NUM_CLASSES] = [SizeClass::Small, SizeClass::Large];

    /// Dense index of this class (`0..NUM_CLASSES`).
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Physical capacity of every region in this class.
    #[inline]
    pub fn capacity(self) -> usize {
        match self {
            SizeClass::Small => SMALL_CAPACITY,
            SizeClass::Large => LARGE_CAPACITY,
        }
    }

    /// Free-list length that triggers a flush to the depot. Scaled
    /// down for the large class so an imbalanced core parks at
    /// most a few megabytes before sharing.
    #[inline]
    pub fn high_watermark(self) -> usize {
        match self {
            SizeClass::Small => 256,
            SizeClass::Large => 32,
        }
    }

    /// Regions moved between a core's list and the depot at once.
    #[inline]
    pub fn batch(self) -> usize {
        match self {
            SizeClass::Small => 64,
            SizeClass::Large => 8,
        }
    }

    /// Mailbox occupancy that arms the home core's **idle sweep**:
    /// once this many remote-freed regions are parked for one core,
    /// a one-shot idle callback is queued on that core so an idle
    /// machine returns them to its depot instead of pinning them
    /// until the core's next dry allocation.
    #[inline]
    pub fn sweep_low_water(self) -> usize {
        match self {
            SizeClass::Small => 8,
            SizeClass::Large => 2,
        }
    }
}

/// The smallest class whose regions hold `capacity` bytes, or
/// `None` if the request exceeds every class (exact-size one-shot
/// allocation).
#[inline]
pub fn class_for(capacity: usize) -> Option<SizeClass> {
    if capacity <= SMALL_CAPACITY {
        Some(SizeClass::Small)
    } else if capacity <= LARGE_CAPACITY {
        Some(SizeClass::Large)
    } else {
        None
    }
}

/// One class's per-core state inside a rep.
#[derive(Default)]
struct ClassRep {
    /// The unsynchronized free list (rep-local: `RefCell` is the
    /// contract, see [`MulticoreEbb`]).
    list: RefCell<Vec<FreeRegion>>,
    /// Local takes since this core last balanced against the depot
    /// (flushed or refilled). Zero means the list has *only ever
    /// grown* since then — a chronically one-directional consumer
    /// of other cores' buffers — and the effective high watermark
    /// halves so the depot pipeline primes after half the parked
    /// population (flux-adaptive hysteresis).
    takes_since_balance: Cell<u64>,
}

/// The per-core representative of the buffer pool: the free lists
/// of every size class plus this core's IOBuf counters. Resolved
/// through [`SystemEbb::BufferPool`]; constructed lazily on each
/// core's first buffer operation.
pub struct PoolEbb {
    root: Arc<PoolRoot>,
    core: CoreId,
    classes: [ClassRep; NUM_CLASSES],
    pub(super) counters: Counters,
}

/// One home core's remote-free mailbox: the parked regions plus a
/// dedup flag for the queued idle sweep.
#[derive(Default)]
struct Mailbox {
    regions: Vec<FreeRegion>,
    /// An idle sweep is already queued on the home core.
    sweep_armed: bool,
}

/// Free regions posted back by remote frees, one mailbox per home
/// core (see [`PoolRoot`]).
type Mailboxes = SpinLock<Vec<Mailbox>>;

/// The pool Ebb's shared root: per size class, one depot (the
/// rendezvous cross-core watermark migration goes through) plus
/// per-home-core **remote-free mailboxes** — a region freed under
/// a *different* machine's runtime (it crossed the simulated wire)
/// is posted to the mailbox of the core that allocated it, which
/// drains it on its next dry allocation. Without the mailboxes,
/// remote frees would pile into the shared depot and the busiest
/// core's batched refills would chronically starve the others into
/// fresh allocations. `Default`, so the pool registers itself on
/// first use.
#[derive(Default)]
pub struct PoolRoot {
    depots: [SpinLock<Vec<FreeRegion>>; NUM_CLASSES],
    /// `mailboxes[class][home_core]`, grown on demand.
    mailboxes: [Mailboxes; NUM_CLASSES],
    /// The runtime owning this pool, recorded by the first rep
    /// constructed inside an entered runtime. The idle mailbox
    /// sweep needs it to reach the home core's event loop; ambient
    /// pools (no event loops) leave it unset and keep the old
    /// drain-on-next-allocation behaviour.
    runtime: std::sync::OnceLock<std::sync::Weak<Runtime>>,
}

impl PoolRoot {
    /// Regions of `class` parked in this machine's depot.
    pub fn depot_len(&self, class: SizeClass) -> usize {
        self.depots[class.index()].lock().len()
    }

    /// Regions of `class` awaiting home-core pickup in mailboxes.
    #[cfg(test)]
    pub(super) fn mailbox_len(&self, class: SizeClass) -> usize {
        self.mailboxes[class.index()]
            .lock()
            .iter()
            .map(|m| m.regions.len())
            .sum()
    }
}

impl MulticoreEbb for PoolEbb {
    type Root = PoolRoot;

    fn create_rep(root: &Arc<PoolRoot>, core: CoreId) -> Self {
        // Record the owning runtime so remote frees can queue the
        // idle mailbox sweep on this machine's cores. Reps of one
        // root are only ever faulted under the runtime that
        // registered the root, so first-writer-wins is exact.
        if runtime::is_entered() {
            let _ = root.runtime.set(Arc::downgrade(&runtime::current()));
        }
        PoolEbb {
            root: Arc::clone(root),
            core,
            classes: Default::default(),
            counters: Counters::default(),
        }
    }

    /// Lazily registered: the first fault on a machine registers
    /// `PoolRoot::default()`, so the pool needs no setup call.
    fn handle_fault(ebbs: &EbbManager, id: EbbId, core: CoreId) -> Self {
        Self::create_rep(&ebbs.root_or_default::<Self>(id), core)
    }
}

impl PoolEbb {
    /// This core's effective flush watermark for `class` right now
    /// (halved while the list has only grown since the last
    /// balance — the hysteresis quick win).
    fn effective_watermark(&self, class: SizeClass) -> usize {
        let wm = class.high_watermark();
        if self.classes[class.index()].takes_since_balance.get() == 0 {
            wm / 2
        } else {
            wm
        }
    }
}

/// Dispatches `f` against the calling context's pool rep — the
/// buffer layer's Ebb call. Inside an entered runtime this is the
/// paper's fast path (thread-local read, indexed load, null
/// check); outside one it resolves the thread's private ambient
/// context.
#[inline]
pub(super) fn with_pool<R>(f: impl FnOnce(&PoolEbb) -> R) -> R {
    runtime::with_context(|rt, core| {
        rt.ebbs()
            .with_rep_on::<PoolEbb, R>(core, SystemEbb::BufferPool.id(), f)
    })
}

/// Acquires a region of `class`: the calling core's list, then its
/// remote-free mailbox, then a refill batch from the depot (both
/// counted as [`super::stats::ClassCounters::depot_out`]
/// migration), then a fresh — still pool-shaped, still
/// recyclable — allocation (counted as a fallback). The returned
/// reference is the region's only one, and the region's home core
/// is the calling core.
pub(super) fn acquire(class: SizeClass) -> RegionRef {
    with_pool(|p| {
        let i = class.index();
        let cl = &p.classes[i];
        let mut list = cl.list.borrow_mut();
        let region = 'found: {
            if let Some(r) = list.pop() {
                bump(&cl.takes_since_balance);
                bump(&p.counters.class_hits[i]);
                break 'found r;
            }
            // Dry: collect everything peers posted back to this
            // core's mailbox (regions we allocated that crossed the
            // wire and were freed under another machine's runtime).
            {
                let mut boxes = p.root.mailboxes[i].lock();
                if let Some(mine) = boxes.get_mut(p.core.index()) {
                    if !mine.regions.is_empty() {
                        add(&p.counters.class_depot_out[i], mine.regions.len() as u64);
                        list.append(&mut mine.regions);
                    }
                }
            }
            if let Some(r) = list.pop() {
                cl.takes_since_balance.set(1); // drained = balanced
                bump(&p.counters.class_hits[i]);
                break 'found r;
            }
            let mut depot = p.root.depots[i].lock();
            if !depot.is_empty() {
                let take = depot.len().min(class.batch());
                let from = depot.len() - take;
                list.extend(depot.drain(from..));
                drop(depot);
                add(&p.counters.class_depot_out[i], take as u64);
                // A refill is a balance; the pop below is the first
                // take since it.
                cl.takes_since_balance.set(1);
                bump(&p.counters.class_hits[i]);
                break 'found list.pop().expect("refilled");
            }
            drop(depot);
            bump(&p.counters.bufs_allocated);
            bump(&p.counters.class_fallbacks[i]);
            // A fallback is local demand: it counts against the
            // hysteresis like a take, so a core that allocates keeps
            // the full watermark.
            bump(&cl.takes_since_balance);
            FreeRegion::pooled(class, Arc::downgrade(&p.root))
        };
        region.set_home_core(p.core);
        region.into_ref()
    })
}

/// Returns a region whose last descriptor just dropped to the
/// calling context, flushing a batch of cold entries to the depot
/// past the class's effective high watermark. A region whose home
/// is a *different* machine's pool (it crossed the simulated wire)
/// is posted to its home core's mailbox instead, so each core's
/// buffer economy balances — the hot core's headers come back to
/// the hot core. The same-machine path compares the region's weak
/// home handle with this pool's root by address and touches no
/// shared counter; only the cross-machine path upgrades the handle,
/// and a region that outlived its home pool is freed.
pub(super) fn recycle(class: SizeClass, region: FreeRegion) {
    with_pool(|p| {
        let i = class.index();
        bump(&p.counters.class_returns[i]);
        if !region.is_home(&p.root) {
            let Some(home) = region.home() else {
                return; // home pool is gone: `region` drops, freeing the storage
            };
            let home_core = region.home_core();
            // Cross-machine free: home-return through the owner's
            // mailbox (producer half of the migration pipeline).
            // Crossing the low-water mark arms a one-shot idle
            // sweep on the home core, so an *idle* home machine
            // returns the regions to its depot instead of parking
            // them until its next dry allocation.
            let arm = {
                let mut boxes = home.mailboxes[i].lock();
                if boxes.len() <= home_core.index() {
                    boxes.resize_with(home_core.index() + 1, Mailbox::default);
                }
                let mb = &mut boxes[home_core.index()];
                mb.regions.push(region);
                if !mb.sweep_armed && mb.regions.len() >= class.sweep_low_water() {
                    mb.sweep_armed = true;
                    true
                } else {
                    false
                }
            };
            bump(&p.counters.class_depot_in[i]);
            if arm {
                schedule_idle_sweep(&home, home_core);
            }
            return;
        }
        let cl = &p.classes[i];
        let mut list = cl.list.borrow_mut();
        list.push(region);
        if list.len() >= p.effective_watermark(class) {
            // Flush the cold end; recently freed regions stay local
            // for cache-warm reuse (same policy as the slab).
            let mut depot = p.root.depots[i].lock();
            depot.extend(list.drain(..class.batch()));
            drop(depot);
            add(&p.counters.class_depot_in[i], class.batch() as u64);
            cl.takes_since_balance.set(0);
        }
    })
}

/// Pre-fills the calling context's [`SizeClass::Small`] free list
/// with `n` fresh regions so a benchmark's steady state starts
/// pool-hot. The fresh allocations are counted (they are real),
/// which is why benchmarks snapshot counters *after* prewarming.
pub fn prewarm(n: usize) {
    prewarm_class(SizeClass::Small, n);
}

/// Pre-fills the calling context's free list for `class` with `n`
/// fresh regions (counted by [`super::stats::Snapshot::bufs_allocated`]).
pub fn prewarm_class(class: SizeClass, n: usize) {
    with_pool(|p| {
        let mut list = p.classes[class.index()].list.borrow_mut();
        for _ in 0..n {
            bump(&p.counters.bufs_allocated);
            list.push(FreeRegion::pooled(class, Arc::downgrade(&p.root)));
        }
    })
}

/// Regions of `class` on the calling context's free list.
#[cfg(test)]
pub(super) fn local_free(class: SizeClass) -> usize {
    with_pool(|p| p.classes[class.index()].list.borrow().len())
}

/// Queues the idle mailbox sweep for `home_core` of the machine
/// owning `home`: a synthetic event on that core registers a
/// one-shot idle callback ([`EventManager::add_idle_once`]) so the
/// drain runs after any real work, at the idle stage of the home
/// core's event loop. No-op for pools without a recorded runtime
/// (the ambient pool), whose mailboxes keep draining on the next
/// dry allocation.
///
/// [`EventManager::add_idle_once`]: crate::event::EventManager::add_idle_once
fn schedule_idle_sweep(home: &Arc<PoolRoot>, home_core: CoreId) {
    let Some(rt) = home.runtime.get().and_then(std::sync::Weak::upgrade) else {
        return;
    };
    let root = Arc::clone(home);
    rt.spawn(home_core, move || {
        runtime::with_current(|rt| {
            let root2 = Arc::clone(&root);
            rt.local_event_manager()
                .add_idle_once(move || sweep_mailboxes_to_depot(&root2, home_core));
        });
    });
}

/// Drains `core`'s remote-free mailboxes (every class): the home
/// core's free list is topped up to one refill batch (cache-warm
/// for its next burst — a sweep must never leave the owner worse
/// off than the lazy drain it replaces), and the excess goes to
/// the machine-wide depot, counted as depot migration on the
/// sweeping core's rep. Runs on `core`, at event-loop idle.
fn sweep_mailboxes_to_depot(root: &Arc<PoolRoot>, core: CoreId) {
    for class in SizeClass::ALL {
        let i = class.index();
        let mut drained: Vec<FreeRegion> = {
            let mut boxes = root.mailboxes[i].lock();
            match boxes.get_mut(core.index()) {
                Some(mb) => {
                    mb.sweep_armed = false;
                    std::mem::take(&mut mb.regions)
                }
                None => continue,
            }
        };
        if drained.is_empty() {
            continue;
        }
        with_pool(|p| {
            let mut list = p.classes[i].list.borrow_mut();
            let keep = class.batch().saturating_sub(list.len()).min(drained.len());
            let to_depot = drained.split_off(keep);
            list.extend(drained.drain(..));
            if !to_depot.is_empty() {
                add(&p.counters.class_depot_in[i], to_depot.len() as u64);
                p.root.depots[i].lock().extend(to_depot);
            }
        });
    }
}

/// Free regions of `class` across all of `rt`'s cores plus its
/// depot: `(local_total, depot)`. Same quiescence contract as
/// [`super::stats::runtime_snapshot`].
pub fn runtime_free_counts(rt: &Runtime, class: SizeClass) -> (usize, usize) {
    let id = SystemEbb::BufferPool.id();
    let mut local = 0;
    rt.ebbs().for_each_rep::<PoolEbb>(id, |_core, rep| {
        local += rep.classes[class.index()].list.borrow().len();
    });
    let root = rt.ebbs().root::<PoolEbb>(id);
    (local, root.map_or(0, |root| root.depot_len(class)))
}
