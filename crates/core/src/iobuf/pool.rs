#![forbid(unsafe_code)]
//! Per-core, multi-size-class buffer pools — **an Ebb**.
//!
//! The pool is the canonical well-known system Ebb
//! ([`crate::ebb::SystemEbb::BufferPool`]): its per-core
//! *representatives* ([`PoolEbb`]) hold one per-core object cache
//! ([`ObjCache`], §3.4) per size class, and its *root* ([`PoolRoot`])
//! the classes' shared [`Depot`]s that batches migrate through. Every
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
//! ([`SizeClass`]), kept as one capacity table: a
//! [`SizeClass::SMALL`] class sized for an MTU frame plus header room,
//! a [`SizeClass::LARGE`] class for jumbo frames and multi-kilobyte
//! message staging, and [`NUM_VALUE_CLASSES`] **value classes** — 16-byte
//! steps up to 128 B, then four steps per doubling up to
//! [`MAX_VALUE_CAPACITY`] (§3.4's slab caches). A buffer that is
//! appended to is routed by requested length ([`class_for`]) to
//! `SMALL` or `LARGE`; only requests beyond [`LARGE_CAPACITY`] fall
//! back to exact-size one-shot allocations (counted by
//! [`Snapshot::oversize_allocs`](super::stats::Snapshot::oversize_allocs)).
//! A value whose length is known when it is made —
//! [`Chain::compact`](super::Chain::compact)'s gathered copy, the form
//! a small value is stored in — takes a region of the smallest value
//! class that fits ([`value_class_for`]), or an exact-size one beyond
//! the largest. A replaced value returns to the freeing core's list
//! like any pooled region (after its RCU grace period), or to its home
//! mailbox if a zero-copy reply carried it to another machine, and the
//! next compaction of that class takes it from there.
//!
//! Each class passes its own high watermark and migration batch size
//! to its caches: a core whose list grows past the watermark (a
//! *consumer* of buffers other cores allocate — e.g. the core a skewed
//! connection's frames are freed on) flushes a cold batch to the
//! depot, and a core whose list runs dry refills a batch from it. What
//! stays here crosses machines: the remote-free mailboxes, the idle
//! sweep that empties them, and the counters. The per-class
//! [`depot_in`](super::stats::ClassCounters::depot_in) /
//! [`depot_out`](super::stats::ClassCounters::depot_out) counters make
//! that migration traffic measurable.
//!
//! Recycling is automatic: [`MutIoBuf`](super::MutIoBuf) and
//! [`IoBuf`](super::IoBuf) storage acquired from the pool returns to the
//! *freeing core's* list when the last descriptor referencing it drops.

use super::region::{FreeRegion, RegionRef};
use super::stats::{add, bump, Counters};
use crate::cache::{Depot, ObjCache};
use crate::cpu::CoreId;
use crate::ebb::{EbbId, EbbManager, MulticoreEbb, SystemEbb};
use crate::runtime::{self, Runtime};
use std::sync::{Arc, Mutex};

/// Capacity of a [`SizeClass::SMALL`] region: one Ethernet MTU
/// plus header and alignment room. Covers frames, header buffers,
/// and typical small application payload buffers.
pub const SMALL_CAPACITY: usize = 2048;

/// Capacity of a [`SizeClass::LARGE`] region: jumbo frames and
/// multi-kilobyte request/response staging (e.g. memcached SET
/// values above [`SMALL_CAPACITY`]).
pub const LARGE_CAPACITY: usize = 64 * 1024;

/// Number of value classes ([`value_class_for`]).
pub const NUM_VALUE_CLASSES: usize = 20;

/// Capacities of the value classes, smallest first: 16-byte steps up
/// to 128 B, then four steps per doubling up to 1 KiB.
const VALUE_CAPACITIES: [usize; NUM_VALUE_CLASSES] = [
    16, 32, 48, 64, 80, 96, 112, 128, 160, 192, 224, 256, 320, 384, 448, 512, 640, 768, 896, 1024,
];

/// Capacity of the largest value class: a value longer than this is
/// gathered into an exact-size region instead.
pub const MAX_VALUE_CAPACITY: usize = VALUE_CAPACITIES[NUM_VALUE_CLASSES - 1];

/// Number of pooled size classes: [`SizeClass::SMALL`],
/// [`SizeClass::LARGE`] and the [`NUM_VALUE_CLASSES`] value classes.
pub const NUM_CLASSES: usize = 2 + NUM_VALUE_CLASSES;

/// What one class is: its region capacity, its caches' watermark and
/// batch, and the mailbox occupancy that arms the idle sweep.
#[derive(Clone, Copy)]
struct ClassSpec {
    capacity: usize,
    high_watermark: usize,
    batch: usize,
    sweep_low_water: usize,
}

/// The one class table, indexed by [`SizeClass::index`]: `SMALL`,
/// `LARGE`, then the value classes ([`VALUE_CAPACITIES`]). A value
/// class never arms the idle sweep: a value another machine dropped
/// last waits in its home mailbox for the home core's next compaction
/// of that class.
const CLASSES: [ClassSpec; NUM_CLASSES] = {
    let value = ClassSpec {
        capacity: 0,
        high_watermark: 64,
        batch: 16,
        sweep_low_water: usize::MAX,
    };
    let mut table = [value; NUM_CLASSES];
    table[0] = ClassSpec {
        capacity: SMALL_CAPACITY,
        high_watermark: 256,
        batch: 64,
        sweep_low_water: 8,
    };
    table[1] = ClassSpec {
        capacity: LARGE_CAPACITY,
        high_watermark: 32,
        batch: 8,
        sweep_low_water: 2,
    };
    let mut i = 0;
    while i < NUM_VALUE_CLASSES {
        table[2 + i].capacity = VALUE_CAPACITIES[i];
        i += 1;
    }
    table
};

/// A pooled region size class: an index into one capacity table.
/// Every class keeps per-core caches plus a shared depot with its
/// own watermark and batch size. Buffers that are appended to are
/// routed by [`class_for`] to [`SizeClass::SMALL`] or
/// [`SizeClass::LARGE`]; a value whose length is known when it is
/// gathered goes to the smallest value class that fits it
/// ([`value_class_for`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SizeClass(u8);

impl SizeClass {
    /// [`SMALL_CAPACITY`]-byte regions (frames, headers).
    pub const SMALL: SizeClass = SizeClass(0);

    /// [`LARGE_CAPACITY`]-byte regions (jumbo frames, large
    /// values).
    pub const LARGE: SizeClass = SizeClass(1);

    /// All classes, in index order.
    pub const ALL: [SizeClass; NUM_CLASSES] = {
        let mut all = [SizeClass(0); NUM_CLASSES];
        let mut i = 0;
        while i < NUM_CLASSES {
            all[i] = SizeClass(i as u8);
            i += 1;
        }
        all
    };

    /// Dense index of this class (`0..NUM_CLASSES`).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Physical capacity of every region in this class.
    #[inline]
    pub fn capacity(self) -> usize {
        CLASSES[self.index()].capacity
    }

    /// Free-list length that triggers a flush to the depot. Scaled
    /// down for the large class so an imbalanced core parks at
    /// most a few megabytes before sharing.
    #[inline]
    pub fn high_watermark(self) -> usize {
        CLASSES[self.index()].high_watermark
    }

    /// Regions moved between a core's list and the depot at once.
    #[inline]
    pub fn batch(self) -> usize {
        CLASSES[self.index()].batch
    }

    /// Mailbox occupancy that arms the home core's **idle sweep**:
    /// once this many remote-freed regions are parked for one core,
    /// a one-shot idle callback is queued on that core so an idle
    /// machine returns them to its depot instead of pinning them
    /// until the core's next dry allocation. `usize::MAX` (never) for
    /// the value classes.
    #[inline]
    pub fn sweep_low_water(self) -> usize {
        CLASSES[self.index()].sweep_low_water
    }
}

/// The smallest class whose regions hold `capacity` bytes, or
/// `None` if the request exceeds every class (exact-size one-shot
/// allocation).
#[inline]
pub fn class_for(capacity: usize) -> Option<SizeClass> {
    if capacity <= SMALL_CAPACITY {
        Some(SizeClass::SMALL)
    } else if capacity <= LARGE_CAPACITY {
        Some(SizeClass::LARGE)
    } else {
        None
    }
}

/// The smallest value class whose regions hold `len` bytes, or `None`
/// beyond [`MAX_VALUE_CAPACITY`] (an exact-size region).
pub fn value_class_for(len: usize) -> Option<SizeClass> {
    let i = VALUE_CAPACITIES.partition_point(|&c| c < len);
    (i < NUM_VALUE_CLASSES).then(|| SizeClass((2 + i) as u8))
}

/// Bytes of the region a value of `len` bytes is gathered into: its
/// value class's capacity, or `len` itself beyond the largest class.
pub fn value_capacity(len: usize) -> usize {
    value_class_for(len).map_or(len, SizeClass::capacity)
}

/// The per-core representative of the buffer pool: the caches of
/// every size class plus this core's IOBuf counters. Resolved
/// through [`SystemEbb::BufferPool`]; constructed lazily on each
/// core's first buffer operation.
pub struct PoolEbb {
    root: Arc<PoolRoot>,
    core: CoreId,
    classes: [ObjCache<FreeRegion>; NUM_CLASSES],
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
type Mailboxes = Mutex<Vec<Mailbox>>;

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
    depots: [Depot<FreeRegion>; NUM_CLASSES],
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
        self.depots[class.index()].len()
    }

    /// Regions of `class` awaiting home-core pickup in mailboxes.
    #[cfg(test)]
    pub(super) fn mailbox_len(&self, class: SizeClass) -> usize {
        crate::lock(&self.mailboxes[class.index()])
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
            classes: SizeClass::ALL.map(|c| ObjCache::new(c.high_watermark(), c.batch(), 0)),
            counters: Counters::default(),
        }
    }

    /// Lazily registered: the first fault on a machine registers
    /// `PoolRoot::default()`, so the pool needs no setup call.
    fn handle_fault(ebbs: &EbbManager, id: EbbId, core: CoreId) -> Self {
        Self::create_rep(&ebbs.root_or_default::<Self>(id), core)
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
        let counters = &p.counters.classes[i];
        // Dry: first collect everything peers posted back to this
        // core's mailbox (regions we allocated that crossed the wire
        // and were freed under another machine's runtime).
        let taken = p.classes[i].take(&p.root.depots[i], |list| {
            if let Some(mine) = crate::lock(&p.root.mailboxes[i]).get_mut(p.core.index()) {
                list.append(&mut mine.regions);
            }
        });
        let region = match taken {
            Some((region, moved)) => {
                bump(&counters.hits);
                add(&counters.depot_out, moved as u64);
                region
            }
            None => {
                bump(&p.counters.bufs_allocated);
                bump(&counters.fallbacks);
                FreeRegion::pooled(class, Arc::downgrade(&p.root))
            }
        };
        region.set_home_core(p.core);
        region.into_ref()
    })
}

/// Returns a region whose last descriptor just dropped to the
/// calling context's cache, which flushes a batch of cold entries to
/// the depot past the class's effective high watermark. A region
/// whose home is a *different* machine's pool (it crossed the wire)
/// is posted to its home core's mailbox instead, so each core's
/// buffer economy balances — the hot core's headers come back to
/// the hot core. The same-machine path compares the region's weak
/// home handle with this pool's root by address and touches no
/// shared counter; only the cross-machine path upgrades the handle,
/// and a region that outlived its home pool is freed.
pub(super) fn recycle(class: SizeClass, region: FreeRegion) {
    with_pool(|p| {
        let i = class.index();
        bump(&p.counters.classes[i].returns);
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
                let mut boxes = crate::lock(&home.mailboxes[i]);
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
            bump(&p.counters.classes[i].depot_in);
            if arm {
                schedule_idle_sweep(&home, home_core);
            }
            return;
        }
        let flushed = p.classes[i].give(region, &p.root.depots[i]);
        add(&p.counters.classes[i].depot_in, flushed as u64);
    })
}

/// Pre-fills the calling context's [`SizeClass::SMALL`] free list
/// with `n` fresh regions so a benchmark's steady state starts
/// pool-hot. The fresh allocations are counted (they are real),
/// which is why benchmarks snapshot counters *after* prewarming.
pub fn prewarm(n: usize) {
    prewarm_class(SizeClass::SMALL, n);
}

/// Pre-fills the calling context's free list for `class` with `n`
/// fresh regions (counted by [`super::stats::Snapshot::bufs_allocated`]).
pub fn prewarm_class(class: SizeClass, n: usize) {
    with_pool(|p| {
        p.classes[class.index()].stock((0..n).map(|_| {
            bump(&p.counters.bufs_allocated);
            FreeRegion::pooled(class, Arc::downgrade(&p.root))
        }));
    })
}

/// Regions of `class` on the calling context's free list.
#[cfg(test)]
pub(super) fn local_free(class: SizeClass) -> usize {
    with_pool(|p| p.classes[class.index()].len())
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

/// Drains `core`'s remote-free mailboxes (every class that arms the
/// sweep; a value class's mailbox waits for the next compaction): the
/// home core's free list is topped up to one refill batch (cache-warm
/// for its next burst — a sweep must never leave the owner worse
/// off than the lazy drain it replaces), and the excess goes to
/// the machine-wide depot, counted as depot migration on the
/// sweeping core's rep. Runs on `core`, at event-loop idle.
///
/// The mailbox is drained by range under its lock, so it keeps its
/// capacity and the remote frees behind the sweep push without
/// regrowing it. Lock order: mailbox, then depot (nothing takes them
/// the other way round).
pub(super) fn sweep_mailboxes_to_depot(root: &Arc<PoolRoot>, core: CoreId) {
    with_pool(|p| {
        for class in SizeClass::ALL {
            if class.sweep_low_water() == usize::MAX {
                continue;
            }
            let i = class.index();
            let mut boxes = crate::lock(&root.mailboxes[i]);
            let Some(mb) = boxes.get_mut(core.index()) else {
                continue;
            };
            mb.sweep_armed = false;
            let to_depot = p.classes[i].absorb(&mut mb.regions, &p.root.depots[i]);
            add(&p.counters.classes[i].depot_in, to_depot as u64);
        }
    });
}

/// Free regions of `class` across all of `rt`'s cores plus its
/// depot: `(local_total, depot)`. Same quiescence contract as
/// [`super::stats::runtime_snapshot`].
pub fn runtime_free_counts(rt: &Runtime, class: SizeClass) -> (usize, usize) {
    let id = SystemEbb::BufferPool.id();
    let mut local = 0;
    rt.ebbs().for_each_rep::<PoolEbb>(id, |_core, rep| {
        local += rep.classes[class.index()].len();
    });
    let root = rt.ebbs().root::<PoolEbb>(id);
    (local, root.map_or(0, |root| root.depot_len(class)))
}
