//! IOBuf: the zero-copy buffer descriptor (§3.6 of the paper).
//!
//! An IOBuf *descriptor* manages ownership of a region of memory plus a
//! view (window) onto a portion of it. Data moves through the system by
//! moving descriptors, never by copying bytes:
//!
//! * A device driver fills a [`MutIoBuf`] and passes it up the stack.
//! * Each protocol layer *advances* the view past its header.
//! * On transmit, layers *prepend* headers into headroom reserved in
//!   front of the payload, so adding an Ethernet/IP/TCP header never
//!   reallocates or copies the payload.
//! * [`IoBuf`] is the frozen, shareable form (a counted reference to
//!   the region): TCP keeps a clone in its retransmit queue while the
//!   device reads another — one region, two descriptors, zero copies.
//! * [`Chain`] strings segments together for scatter/gather I/O, and
//!   [`Cursor`] parses across segment boundaries.
//!
//! Two pieces make the discipline *cheap* as well as copy-free:
//!
//! * **Buffer pooling** ([`pool`]): regions are recycled through
//!   per-core free lists in a small set of *size classes* — a
//!   [`pool::SizeClass::Small`] class for MTU-sized frames and header
//!   buffers and a [`pool::SizeClass::Large`] class for jumbo frames
//!   and multi-kilobyte message staging — instead of being allocated
//!   and zero-filled per packet. Allocation is routed by requested
//!   length ([`pool::class_for`]); only requests beyond the largest
//!   class fall back to exact-size one-shot allocations. When the last
//!   descriptor of a pooled region drops, its storage returns to the
//!   *freeing core's* list automatically, and a shared depot rebalances
//!   lists across cores in batches when producers and consumers of
//!   buffers sit on different cores.
//! * **Instrumentation** ([`stats`]): per-core counters record every
//!   payload byte copied between buffers, every fresh storage
//!   allocation, and per-class pool activity (hits, returns, fallback
//!   allocations, depot migration), so benchmarks can *assert* the
//!   zero-copy/zero-alloc property of a steady-state request path —
//!   per size class — rather than assume it.

use std::alloc::Layout;
use std::fmt;
use std::mem::{ManuallyDrop, MaybeUninit};
use std::ops::Range;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};

use crate::cpu::CoreId;

/// Zero-copy bookkeeping: counters that let benchmarks prove the
/// fast-path property ("0 payload bytes copied, 0 fresh allocations").
///
/// What counts:
///
/// * [`bytes_copied`](stats::bytes_copied) — payload bytes memcpy'd
///   between heap buffers: [`IoBuf::copy_from`],
///   [`MutIoBuf::append_slice`], [`Chain::copy_to_vec`],
///   [`Chain::compact`], [`Cursor::read_vec`], and a chain that
///   [`wire::WireWriter::bytes32_chain`] copies rather than links.
///   Fixed-width header-field reads ([`Cursor::read_u32_be`] and
///   friends, [`Cursor::read_exact`] into caller stack arrays) are
///   *parsing*, and a [`wire::WireWriter`]'s scalar and slice writes
///   (op codes, versions, keys) are *marshalling* — header
///   construction; neither is data movement and neither is counted.
///   Nor are in-place walks such as checksumming.
/// * [`bufs_allocated`](stats::bufs_allocated) — fresh backing-store
///   acquisitions for buffer regions: a pool *miss*, an over-sized
///   request, or a caller-allocated vector wrapped via
///   [`MutIoBuf::from_vec`]. Pool hits recycle storage and count under
///   [`pool_hits`](stats::pool_hits) instead.
///
/// Counters are per-core **representative state of the buffer-pool
/// Ebb** ([`pool::PoolEbb`]): plain `Cell`s, no synchronization on the
/// hot path, and — because events are non-preemptive — exact. Every
/// read and write resolves through the well-known
/// [`SystemEbb::BufferPool`](crate::ebb::SystemEbb) id against the
/// calling thread's dispatch context (the entered runtime, or the
/// thread's private ambient core outside one —
/// [`crate::runtime::with_context`]), so counters are per *machine*:
/// use [`stats::runtime_snapshot`] to aggregate one machine's cores,
/// and sum machines for a whole simulated world.
pub mod stats {
    use super::pool::{self, SizeClass, NUM_CLASSES};
    use crate::ebb::SystemEbb;
    use crate::runtime::Runtime;

    pub(super) fn record_copy(n: usize) {
        pool::with_pool(|p| {
            let c = &p.counters.bytes_copied;
            c.set(c.get() + n as u64);
        });
    }

    pub(super) fn record_alloc() {
        pool::with_pool(|p| {
            let c = &p.counters.bufs_allocated;
            c.set(c.get() + 1);
        });
    }

    pub(super) fn record_oversize() {
        pool::with_pool(|p| {
            let a = &p.counters.bufs_allocated;
            a.set(a.get() + 1);
            let c = &p.counters.oversize_allocs;
            c.set(c.get() + 1);
        });
    }

    /// Payload bytes copied between buffers in this dispatch context
    /// (the calling core's pool rep).
    pub fn bytes_copied() -> u64 {
        pool::with_pool(|p| p.counters.bytes_copied.get())
    }

    /// Fresh buffer-storage allocations in this dispatch context (all
    /// classes plus over-sized and caller-wrapped storage).
    pub fn bufs_allocated() -> u64 {
        pool::with_pool(|p| p.counters.bufs_allocated.get())
    }

    /// Buffer requests served by recycling pooled storage in this
    /// dispatch context, summed over all size classes.
    pub fn pool_hits() -> u64 {
        pool::with_pool(|p| p.counters.class_hits.iter().map(std::cell::Cell::get).sum())
    }

    /// Pooled regions returned to a free list on final descriptor drop
    /// in this dispatch context, summed over all size classes.
    pub fn pool_returns() -> u64 {
        pool::with_pool(|p| {
            p.counters
                .class_returns
                .iter()
                .map(std::cell::Cell::get)
                .sum()
        })
    }

    /// Per-class pool activity on this core.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct ClassCounters {
        /// Requests served by recycling a pooled region of this class.
        pub hits: u64,
        /// Regions of this class returned to a free list on final
        /// descriptor drop.
        pub returns: u64,
        /// Requests that fit this class but found both the core's list
        /// and the depot empty, forcing a fresh (still pool-shaped,
        /// still recyclable) allocation. A steady state that is truly
        /// pool-hot drives this to zero.
        pub fallback_allocs: u64,
        /// Regions this core pulled out of the shared depot — the
        /// consumer half of cross-core migration traffic.
        pub depot_out: u64,
        /// Regions this core flushed into the shared depot past its
        /// high watermark — the producer half of migration traffic.
        pub depot_in: u64,
    }

    /// Reads one class's counters (this dispatch context).
    pub fn class_counters(class: SizeClass) -> ClassCounters {
        let i = class.index();
        pool::with_pool(|p| ClassCounters {
            hits: p.counters.class_hits[i].get(),
            returns: p.counters.class_returns[i].get(),
            fallback_allocs: p.counters.class_fallbacks[i].get(),
            depot_out: p.counters.class_depot_out[i].get(),
            depot_in: p.counters.class_depot_in[i].get(),
        })
    }

    /// Allocations too large for any size class (exact-size, unpooled).
    pub fn oversize_allocs() -> u64 {
        pool::with_pool(|p| p.counters.oversize_allocs.get())
    }

    /// A point-in-time reading of all counters, aggregate and per
    /// class.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct Snapshot {
        /// See [`bytes_copied`].
        pub bytes_copied: u64,
        /// See [`bufs_allocated`].
        pub bufs_allocated: u64,
        /// See [`pool_hits`].
        pub pool_hits: u64,
        /// See [`pool_returns`].
        pub pool_returns: u64,
        /// See [`oversize_allocs`].
        pub oversize_allocs: u64,
        /// Per-class counters, indexed by [`SizeClass::index`].
        pub classes: [ClassCounters; NUM_CLASSES],
    }

    /// Reads all counters at once (this dispatch context).
    pub fn snapshot() -> Snapshot {
        pool::with_pool(|p| p.snapshot())
    }

    /// Sums the counters of **every core** of `rt` — the per-machine
    /// reading benchmarks take around a measured phase (a simulated
    /// world sums this over its machines via [`Snapshot::merge`]).
    ///
    /// Walks the machine's installed pool reps from the calling
    /// thread; the caller must hold the quiescence contract of
    /// [`crate::ebb::EbbManager::for_each_rep`] (trivially true on the
    /// simulation backend's single driving thread).
    pub fn runtime_snapshot(rt: &Runtime) -> Snapshot {
        let mut acc = Snapshot::default();
        rt.ebbs()
            .for_each_rep::<pool::PoolEbb>(SystemEbb::BufferPool.id(), |_core, rep| {
                acc.merge(&rep.snapshot());
            });
        acc
    }

    /// Sums [`runtime_snapshot`] over every machine of a simulated
    /// world — the reading the cross-machine zero-copy assertions
    /// take (a request path's allocations land on both ends of the
    /// wire).
    pub fn world_snapshot<'a>(rts: impl IntoIterator<Item = &'a Runtime>) -> Snapshot {
        let mut acc = Snapshot::default();
        for rt in rts {
            acc.merge(&runtime_snapshot(rt));
        }
        acc
    }

    impl ClassCounters {
        /// Counter deltas since `earlier`.
        pub fn since(&self, earlier: &ClassCounters) -> ClassCounters {
            ClassCounters {
                hits: self.hits - earlier.hits,
                returns: self.returns - earlier.returns,
                fallback_allocs: self.fallback_allocs - earlier.fallback_allocs,
                depot_out: self.depot_out - earlier.depot_out,
                depot_in: self.depot_in - earlier.depot_in,
            }
        }
    }

    impl Snapshot {
        /// Counter deltas since `earlier`.
        pub fn since(&self, earlier: &Snapshot) -> Snapshot {
            Snapshot {
                bytes_copied: self.bytes_copied - earlier.bytes_copied,
                bufs_allocated: self.bufs_allocated - earlier.bufs_allocated,
                pool_hits: self.pool_hits - earlier.pool_hits,
                pool_returns: self.pool_returns - earlier.pool_returns,
                oversize_allocs: self.oversize_allocs - earlier.oversize_allocs,
                classes: [
                    self.classes[0].since(&earlier.classes[0]),
                    self.classes[1].since(&earlier.classes[1]),
                ],
            }
        }

        /// The per-class counters for `class`.
        pub fn class(&self, class: SizeClass) -> &ClassCounters {
            &self.classes[class.index()]
        }

        /// Accumulates `other` into `self` (summing across cores or
        /// machines).
        pub fn merge(&mut self, other: &Snapshot) {
            self.bytes_copied += other.bytes_copied;
            self.bufs_allocated += other.bufs_allocated;
            self.pool_hits += other.pool_hits;
            self.pool_returns += other.pool_returns;
            self.oversize_allocs += other.oversize_allocs;
            for (mine, theirs) in self.classes.iter_mut().zip(other.classes.iter()) {
                mine.hits += theirs.hits;
                mine.returns += theirs.returns;
                mine.fallback_allocs += theirs.fallback_allocs;
                mine.depot_out += theirs.depot_out;
                mine.depot_in += theirs.depot_in;
            }
        }
    }
}

/// Per-core, multi-size-class buffer pools — **an Ebb**.
///
/// The pool is the canonical well-known system Ebb
/// ([`crate::ebb::SystemEbb::BufferPool`]): its per-core
/// *representatives* ([`pool::PoolEbb`]) are the unsynchronized free
/// lists (plain `RefCell`/`Cell` state, legal because events are
/// non-preemptive and a rep is only touched from its owning core) and
/// its *root* ([`pool::PoolRoot`]) owns the shared per-class depots
/// that batches migrate through. The design mirrors the `ebbrt-mem`
/// slab allocator (§3.4), re-homed onto `EbbRef` dispatch: every
/// allocation resolves the calling context's rep in one translation-
/// table load, and the root is lazily registered (`Default`), so the
/// pool needs no setup call.
///
/// Because the state lives in the runtime, pools are **per machine**:
/// each simulated machine (and each test that creates a `Runtime`)
/// owns an independent pool, and code outside any entered runtime gets
/// a thread-private ambient context
/// ([`crate::runtime::with_context`]) — which is why the old global
/// test-serialization mutex is gone. A pooled region remembers its
/// *home* root; a region freed under a different machine's runtime (a
/// frame handed across the simulated wire) returns to its home depot,
/// so each machine's buffer economy balances instead of leaking
/// storage to whichever machine freed last.
///
/// Pooled regions come in [`pool::NUM_CLASSES`] size classes
/// ([`pool::SizeClass`]): a [`pool::SizeClass::Small`] class sized
/// for an MTU frame plus header room, and a [`pool::SizeClass::Large`]
/// class for jumbo frames and multi-kilobyte message staging.
/// Allocation is routed by requested length ([`pool::class_for`]);
/// only requests beyond [`pool::LARGE_CAPACITY`] fall back to
/// exact-size one-shot allocations (counted by
/// [`stats::oversize_allocs`]).
///
/// Each class has its own local high watermark and migration batch
/// size: a core whose list grows past the watermark (a *consumer* of
/// buffers other cores allocate — e.g. the core a skewed connection's
/// frames are freed on) flushes a cold batch to the depot, and a core
/// whose list runs dry refills a batch from it. The per-class
/// [`stats::ClassCounters::depot_in`]/[`stats::ClassCounters::depot_out`]
/// counters make that migration traffic measurable.
///
/// Recycling is automatic: [`MutIoBuf`] and [`IoBuf`] storage acquired
/// from the pool returns to the *freeing core's* list when the last
/// descriptor referencing it drops.
pub mod pool {
    use super::{FreeRegion, RegionRef};
    use crate::cpu::CoreId;
    use crate::ebb::{MulticoreEbb, SystemEbb};
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

    /// Backward-compatible alias for the small class's capacity.
    pub const BUF_CAPACITY: usize = SMALL_CAPACITY;

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
            match self {
                SizeClass::Small => 0,
                SizeClass::Large => 1,
            }
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

    /// The per-core statistic cells of one pool rep (read through
    /// [`super::stats`]).
    #[derive(Default)]
    pub(super) struct Counters {
        pub(super) bytes_copied: Cell<u64>,
        pub(super) bufs_allocated: Cell<u64>,
        pub(super) oversize_allocs: Cell<u64>,
        pub(super) class_hits: [Cell<u64>; NUM_CLASSES],
        pub(super) class_returns: [Cell<u64>; NUM_CLASSES],
        pub(super) class_fallbacks: [Cell<u64>; NUM_CLASSES],
        pub(super) class_depot_in: [Cell<u64>; NUM_CLASSES],
        pub(super) class_depot_out: [Cell<u64>; NUM_CLASSES],
    }

    fn bump(c: &Cell<u64>) {
        c.set(c.get() + 1);
    }

    fn add(c: &Cell<u64>, n: u64) {
        c.set(c.get() + n);
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
        pub fn mailbox_len(&self, class: SizeClass) -> usize {
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
    }

    impl PoolEbb {
        /// A point-in-time reading of this rep's counters.
        pub fn snapshot(&self) -> super::stats::Snapshot {
            let class = |i: usize| super::stats::ClassCounters {
                hits: self.counters.class_hits[i].get(),
                returns: self.counters.class_returns[i].get(),
                fallback_allocs: self.counters.class_fallbacks[i].get(),
                depot_out: self.counters.class_depot_out[i].get(),
                depot_in: self.counters.class_depot_in[i].get(),
            };
            super::stats::Snapshot {
                bytes_copied: self.counters.bytes_copied.get(),
                bufs_allocated: self.counters.bufs_allocated.get(),
                pool_hits: self.counters.class_hits.iter().map(Cell::get).sum(),
                pool_returns: self.counters.class_returns.iter().map(Cell::get).sum(),
                oversize_allocs: self.counters.oversize_allocs.get(),
                classes: [class(0), class(1)],
            }
        }

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
                .with_rep_lazy::<PoolEbb, R>(core, SystemEbb::BufferPool.id(), f)
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
    /// fresh regions (counted by [`super::stats::bufs_allocated`]).
    pub fn prewarm_class(class: SizeClass, n: usize) {
        with_pool(|p| {
            let mut list = p.classes[class.index()].list.borrow_mut();
            for _ in 0..n {
                bump(&p.counters.bufs_allocated);
                list.push(FreeRegion::pooled(class, Arc::downgrade(&p.root)));
            }
        })
    }

    /// [`SizeClass::Small`] regions on the calling context's free list
    /// (diagnostic).
    pub fn local_free() -> usize {
        local_free_class(SizeClass::Small)
    }

    /// Regions of `class` on the calling context's free list
    /// (diagnostic).
    pub fn local_free_class(class: SizeClass) -> usize {
        with_pool(|p| p.classes[class.index()].list.borrow().len())
    }

    /// [`SizeClass::Small`] regions parked in this machine's depot
    /// (diagnostic).
    pub fn depot_free() -> usize {
        depot_free_class(SizeClass::Small)
    }

    /// Regions of `class` parked in this machine's depot (diagnostic).
    pub fn depot_free_class(class: SizeClass) -> usize {
        with_pool(|p| p.root.depots[class.index()].lock().len())
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
        let mut local = 0;
        let mut depot = 0;
        let mut seen_root = false;
        rt.ebbs()
            .for_each_rep::<PoolEbb>(SystemEbb::BufferPool.id(), |_core, rep| {
                local += rep.classes[class.index()].list.borrow().len();
                if !seen_root {
                    seen_root = true;
                    depot = rep.root.depot_len(class);
                }
            });
        (local, depot)
    }
}

/// Typed marshalling for messenger / function-shipping payloads: a
/// writer that marshals into pooled buffers and links large payloads by
/// descriptor, and a reader that hands fields back as views of the
/// received chain — shared by every service on the wire so framing
/// mistakes are structural, not per-call-site, and so a payload's bytes
/// stay where they are from the sender's store to the receiver's.
pub mod wire {
    use super::{pool, stats, Buf, Chain, Cursor, IoBuf, MutIoBuf};
    use std::borrow::Cow;

    /// Bytes a [`WireWriter`] leaves free in front of what it writes,
    /// for the transport's frame header (the messenger's is 17 bytes):
    /// framing a finished payload is then a
    /// [`Chain::prepend_in_place`] into the same buffer.
    pub const HEADROOM: usize = 32;

    /// The largest chain [`WireWriter::bytes32_chain`] copies into its
    /// buffer; anything longer is linked by descriptor. Linking a
    /// field that others follow cuts the buffer in two around it and
    /// puts two more segments in every chain the payload then rides
    /// (a batch of ten linked sub-calls is a twenty-segment frame, far
    /// past [`super::INLINE_SEGS`]); copying costs the bytes. Picked by
    /// measurement on `perf_ledger`'s `shard_remote` (128-byte values,
    /// see `docs/ARCHITECTURE.md`), then fixed: it decides where a
    /// message's segment boundaries fall, never its bytes.
    pub const INLINE_PAYLOAD_MAX: usize = 256;

    /// Builds one request/response payload: scalars and small fields
    /// go into a pooled buffer (with [`HEADROOM`] in front of the first
    /// byte); a chain is linked by descriptor when it is the payload's
    /// tail or longer than [`INLINE_PAYLOAD_MAX`], between slices of
    /// that buffer.
    ///
    /// Field writes (op codes, versions, keys, paths) are marshalling —
    /// header construction, like a protocol header pushed into
    /// headroom — and are not counted by [`stats::bytes_copied`]; a
    /// *chain* that is copied rather than linked is.
    pub struct WireWriter {
        /// Finished parts, in order: full buffers, slices of the open
        /// one, linked descriptors.
        done: Chain<IoBuf>,
        /// The open buffer.
        buf: MutIoBuf,
    }

    impl Default for WireWriter {
        fn default() -> Self {
            Self::new()
        }
    }

    impl WireWriter {
        /// An empty payload.
        pub fn new() -> Self {
            WireWriter {
                done: Chain::new(),
                buf: MutIoBuf::with_headroom(pool::SMALL_CAPACITY - HEADROOM, HEADROOM),
            }
        }

        /// A payload beginning with an operation byte.
        pub fn op(op: u8) -> Self {
            let mut w = Self::new();
            w.u8(op);
            w
        }

        /// Closes the open buffer and opens one with room for at least
        /// `n` more bytes.
        #[cold]
        fn next_buf(&mut self, n: usize) {
            let next = MutIoBuf::with_capacity(n.max(pool::SMALL_CAPACITY));
            let full = std::mem::replace(&mut self.buf, next);
            if !full.is_empty() {
                self.done.push_back(full.freeze());
            }
        }

        /// `N` contiguous bytes to fill.
        #[inline]
        fn fixed<const N: usize>(&mut self, v: [u8; N]) -> &mut Self {
            if self.buf.tailroom() < N {
                self.next_buf(N);
            }
            self.buf.append(N).copy_from_slice(&v);
            self
        }

        /// Copies `v` in, across as many buffers as it takes.
        fn raw(&mut self, mut v: &[u8]) {
            loop {
                let take = v.len().min(self.buf.tailroom());
                self.buf.append(take).copy_from_slice(&v[..take]);
                v = &v[take..];
                if v.is_empty() {
                    return;
                }
                self.next_buf(v.len().min(pool::LARGE_CAPACITY));
            }
        }

        /// Appends a byte.
        pub fn u8(&mut self, v: u8) -> &mut Self {
            self.fixed([v])
        }

        /// Appends a big-endian u16.
        pub fn u16(&mut self, v: u16) -> &mut Self {
            self.fixed(v.to_be_bytes())
        }

        /// Appends a big-endian u32.
        pub fn u32(&mut self, v: u32) -> &mut Self {
            self.fixed(v.to_be_bytes())
        }

        /// Appends a big-endian u64.
        pub fn u64(&mut self, v: u64) -> &mut Self {
            self.fixed(v.to_be_bytes())
        }

        /// Appends a u16-length-prefixed byte string (keys, paths).
        pub fn bytes16(&mut self, v: &[u8]) -> &mut Self {
            debug_assert!(v.len() <= u16::MAX as usize);
            self.u16(v.len() as u16);
            self.raw(v);
            self
        }

        /// Appends a u32-length-prefixed byte string.
        pub fn bytes32(&mut self, v: &[u8]) -> &mut Self {
            debug_assert!(v.len() <= u32::MAX as usize);
            self.u32(v.len() as u32);
            self.raw(v);
            self
        }

        /// Appends raw trailing bytes (the unframed tail of a payload).
        pub fn tail(&mut self, v: &[u8]) -> &mut Self {
            self.raw(v);
            self
        }

        /// Links `v`'s descriptors in: what was written before them
        /// becomes a slice of the open buffer, and writing continues
        /// behind that slice.
        fn link(&mut self, v: &Chain<IoBuf>) {
            let written = self.buf.split_frozen();
            if !written.is_empty() {
                self.done.push_back(written);
            }
            self.done.append_chain(v.clone());
        }

        /// Appends a chain as the unframed tail of the payload — always
        /// by descriptor, whatever its size: nothing is written behind
        /// a tail, so linking it cuts no buffer and costs the payload
        /// exactly one more segment per segment of `v`. This is how a
        /// value leaves a store for the wire without a byte of it
        /// moving.
        pub fn tail_chain(&mut self, v: &Chain<IoBuf>) -> &mut Self {
            if !v.is_empty() {
                self.link(v);
            }
            self
        }

        /// Appends a u32-length-prefixed chain that more fields may
        /// follow (a sub-call of a batch, an entry of a snapshot page):
        /// copied into the buffer (counted by [`stats::bytes_copied`])
        /// when at most [`INLINE_PAYLOAD_MAX`] long, linked by
        /// descriptor otherwise.
        pub fn bytes32_chain(&mut self, v: &Chain<IoBuf>) -> &mut Self {
            debug_assert!(v.len() <= u32::MAX as usize);
            self.u32(v.len() as u32);
            if v.len() <= INLINE_PAYLOAD_MAX {
                stats::record_copy(v.len());
                for seg in v {
                    self.raw(seg.bytes());
                }
            } else {
                self.link(v);
            }
            self
        }

        /// The finished payload.
        pub fn finish(self) -> Chain<IoBuf> {
            let WireWriter { mut done, buf } = self;
            if !buf.is_empty() {
                done.push_back(buf.freeze());
            }
            done
        }
    }

    /// One length-delimited field of a received payload, still in the
    /// buffers it arrived in: a borrowed slice when it sits in one
    /// segment (keys, paths — look at them in place), a zero-copy
    /// sub-chain either way (values — pass them on).
    pub struct Field<'a>(Repr<'a>);

    enum Repr<'a> {
        /// `len` bytes at `at` of one segment.
        One {
            seg: &'a IoBuf,
            at: usize,
            len: usize,
        },
        /// Carved out across segments (or empty).
        Many(Chain<IoBuf>),
    }

    impl Field<'_> {
        /// Length in bytes.
        pub fn len(&self) -> usize {
            match &self.0 {
                Repr::One { len, .. } => *len,
                Repr::Many(c) => c.len(),
            }
        }

        /// Whether the field holds no bytes.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        /// The bytes in place, when they sit in one segment.
        pub fn as_slice(&self) -> Option<&[u8]> {
            match &self.0 {
                Repr::One { seg, at, len } => Some(&seg.bytes()[*at..*at + *len]),
                Repr::Many(c) => match c.segment_count() {
                    0 => Some(&[]),
                    1 => Some(c.seg(0).bytes()),
                    _ => None,
                },
            }
        }

        /// The bytes as one slice: in place when the field sits in one
        /// segment, gathered (a counted copy) when it straddles.
        pub fn contiguous(&self) -> Cow<'_, [u8]> {
            match (self.as_slice(), &self.0) {
                (Some(s), _) => Cow::Borrowed(s),
                (None, Repr::Many(c)) => Cow::Owned(c.copy_to_vec()),
                (None, Repr::One { .. }) => unreachable!("one segment is always a slice"),
            }
        }

        /// A descriptor chain over the field, sharing the received
        /// buffers (no copy).
        pub fn into_chain(self) -> Chain<IoBuf> {
            match self.0 {
                Repr::One { seg, at, len } => Chain::single(seg.slice(at, len)),
                Repr::Many(c) => c,
            }
        }
    }

    /// Reads one request/response payload from a received chain.
    pub struct WireReader<'a> {
        cur: Cursor<'a, IoBuf>,
    }

    impl<'a> WireReader<'a> {
        /// Starts reading at the front of `chain`.
        pub fn new(chain: &'a Chain<IoBuf>) -> Self {
            WireReader {
                cur: chain.cursor(),
            }
        }

        /// Unread bytes.
        pub fn remaining(&self) -> usize {
            self.cur.remaining()
        }

        /// Reads a byte.
        pub fn u8(&mut self) -> Option<u8> {
            self.cur.read_u8()
        }

        /// Reads a big-endian u16.
        pub fn u16(&mut self) -> Option<u16> {
            self.cur.read_u16_be()
        }

        /// Reads a big-endian u32.
        pub fn u32(&mut self) -> Option<u32> {
            self.cur.read_u32_be()
        }

        /// Reads a big-endian u64.
        pub fn u64(&mut self) -> Option<u64> {
            self.cur.read_u64_be()
        }

        /// The next `n` bytes as a view; `None` (consuming nothing)
        /// when fewer remain.
        fn field(&mut self, n: usize) -> Option<Field<'a>> {
            let c = &mut self.cur;
            if n > 0 && n <= c.cur.len() {
                let segs: &'a [IoBuf] = c.segs;
                let seg = &segs[0];
                let at = seg.len() - c.cur.len();
                c.cur = &c.cur[n..];
                c.consumed += n;
                return Some(Field(Repr::One { seg, at, len: n }));
            }
            c.read_exact_zero_copy(n).map(|c| Field(Repr::Many(c)))
        }

        /// Reads a u16-length-prefixed field.
        pub fn bytes16(&mut self) -> Option<Field<'a>> {
            let n = self.u16()? as usize;
            self.field(n)
        }

        /// Reads a u32-length-prefixed field.
        pub fn bytes32(&mut self) -> Option<Field<'a>> {
            let n = self.u32()? as usize;
            self.field(n)
        }

        /// Reads every remaining byte (the unframed tail).
        pub fn tail(&mut self) -> Field<'a> {
            let n = self.remaining();
            self.field(n).expect("the remaining bytes remain")
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        fn bytes_of(c: &Chain<IoBuf>) -> Vec<u8> {
            c.iter().flat_map(|s| s.bytes().to_vec()).collect()
        }

        #[test]
        fn writer_reader_roundtrip() {
            let mut w = WireWriter::op(7);
            w.u16(0xBEEF)
                .u32(42)
                .u64(1 << 40)
                .bytes16(b"key")
                .bytes32(b"a-value-wider-than-a-key")
                .tail(b"value");
            let chain = w.finish();
            assert_eq!(chain.segment_count(), 1, "small payloads are one buffer");
            let mut r = WireReader::new(&chain);
            assert_eq!(r.u8(), Some(7));
            assert_eq!(r.u16(), Some(0xBEEF));
            assert_eq!(r.u32(), Some(42));
            assert_eq!(r.u64(), Some(1 << 40));
            assert_eq!(r.bytes16().unwrap().as_slice(), Some(b"key".as_slice()));
            assert_eq!(
                &*r.bytes32().unwrap().contiguous(),
                b"a-value-wider-than-a-key".as_slice()
            );
            assert_eq!(bytes_of(&r.tail().into_chain()), b"value");
            assert_eq!(r.remaining(), 0);
            assert_eq!(r.u8(), None, "reads past the end fail, not wrap");
            assert!(r.tail().is_empty());
        }

        #[test]
        fn small_fields_are_copied_large_ones_and_tails_linked() {
            let small = IoBuf::copy_from(&[0x11; INLINE_PAYLOAD_MAX]);
            let large = IoBuf::copy_from(&[0x22; INLINE_PAYLOAD_MAX + 1]);
            let before = stats::snapshot();
            let mut w = WireWriter::op(1);
            w.bytes32_chain(&Chain::single(small.clone()))
                .u8(2)
                .bytes32_chain(&Chain::single(large.clone()))
                .u8(3)
                .tail_chain(&Chain::single(small.clone()))
                .tail_chain(&Chain::new());
            let out = w.finish();
            let delta = stats::snapshot().since(&before);
            assert_eq!(delta.bytes_copied, INLINE_PAYLOAD_MAX as u64);
            assert_eq!(delta.bufs_allocated, 0, "marshalling buffers are pooled");
            assert_eq!(
                small.ref_count(),
                2,
                "copied as a field, linked as the tail"
            );
            assert_eq!(large.ref_count(), 2, "linked by descriptor");
            // [op|len|small|2|len] [large] [3] [small]: the buffer's two
            // slices around the link share one region.
            assert_eq!(out.segment_count(), 4);
            assert_eq!(out.seg(0).ref_count(), 2);
            let mut expect = vec![1];
            expect.extend((INLINE_PAYLOAD_MAX as u32).to_be_bytes());
            expect.extend([0x11; INLINE_PAYLOAD_MAX]);
            expect.push(2);
            expect.extend((INLINE_PAYLOAD_MAX as u32 + 1).to_be_bytes());
            expect.extend([0x22; INLINE_PAYLOAD_MAX + 1]);
            expect.push(3);
            expect.extend([0x11; INLINE_PAYLOAD_MAX]);
            assert_eq!(bytes_of(&out), expect);
        }

        #[test]
        fn finished_payload_takes_a_frame_header_in_place() {
            let mut w = WireWriter::op(9);
            w.u32(77);
            let mut chain = w.finish();
            let region = chain.seg(0).bytes().as_ptr();
            chain
                .prepend_in_place(17)
                .expect("sole descriptor, headroom reserved")
                .fill(0xEE);
            assert_eq!(chain.len(), 22);
            assert_eq!(chain.segment_count(), 1);
            assert_eq!(chain.seg(0).bytes()[17..].as_ptr(), region);
            assert_eq!(&chain.seg(0).bytes()[..17], &[0xEE; 17]);
            // A second descriptor (a retry's retained clone) forbids it…
            let keep = chain.clone();
            assert!(chain.prepend_in_place(1).is_none());
            drop(keep);
            // …and so does running out of room.
            assert!(chain.prepend_in_place(HEADROOM).is_none());
            assert!(Chain::<IoBuf>::new().prepend_in_place(1).is_none());
        }

        #[test]
        fn slices_larger_than_a_buffer_span_buffers() {
            let big: Vec<u8> = (0..5000u32).map(|i| i as u8).collect();
            let mut w = WireWriter::op(4);
            w.bytes32(&big).u8(5);
            let out = w.finish();
            assert!(out.segment_count() >= 2);
            let mut r = WireReader::new(&out);
            assert_eq!(r.u8(), Some(4));
            let f = r.bytes32().unwrap();
            assert!(f.as_slice().is_none(), "straddles buffers");
            assert_eq!(&*f.contiguous(), big.as_slice());
            assert_eq!(bytes_of(&f.into_chain()), big);
            assert_eq!(r.u8(), Some(5));
        }

        #[test]
        fn truncated_fields_read_as_none() {
            let mut w = WireWriter::new();
            w.u16(10).tail(b"short");
            let chain = w.finish();
            let mut r = WireReader::new(&chain);
            assert!(r.bytes16().is_none(), "length beyond the payload");
            let chain = Chain::single(IoBuf::copy_from(&[0, 0, 0]));
            assert!(WireReader::new(&chain).bytes32().is_none());
        }
    }
}

/// How a region's storage is owned, and where the region goes when
/// its last descriptor drops.
#[derive(Clone, Copy, PartialEq, Eq)]
enum RegionKind {
    /// Pool-shaped storage behind the header, in the header's own
    /// allocation; recycles into its home pool.
    Pooled(pool::SizeClass),
    /// Exact-size storage behind the header, in the header's own
    /// allocation (requests beyond the largest class, copies); freed.
    Exact,
    /// A caller's vector in its own allocation
    /// ([`MutIoBuf::from_vec`]); both allocations are freed.
    Boxed,
}

/// The intrusive header of a buffer region. A pooled region is *one*
/// allocation — this header, then [`cap`](Self::cap) bytes — that moves
/// between descriptors, free lists, depots and mailboxes as a single
/// pointer.
///
/// Who may touch what: `refs` is the only field written while
/// descriptors exist. `home_core` is written by the sole owner between
/// taking the region off a free list and handing out its first
/// descriptor. Everything else is fixed at allocation. The bytes are
/// written only through a [`MutIoBuf`], which holds the region's only
/// reference.
#[repr(C, align(16))]
struct RegionHeader {
    /// Live descriptors; zero while the region is owned by a
    /// [`FreeRegion`].
    refs: AtomicUsize,
    /// First byte of storage.
    data: NonNull<u8>,
    /// Physical size of the storage.
    cap: usize,
    /// The pool a [`RegionKind::Pooled`] region recycles into. Weak, so
    /// regions parked in a pool's own lists (or in flight on another
    /// machine) never keep that pool alive; compared by address on the
    /// same-machine path, upgraded only on the cross-machine one.
    home: Weak<pool::PoolRoot>,
    /// The core whose list the region was last acquired from.
    home_core: AtomicU32,
    kind: RegionKind,
}

/// Sole owner of a region that no descriptor references (`refs == 0`):
/// what free lists, depots and mailboxes hold. Dropping it frees the
/// storage.
struct FreeRegion(NonNull<RegionHeader>);

#[cfg(test)]
thread_local! {
    /// Regions this thread allocated minus regions it freed: lets a
    /// test see a free (or a leak) that no pool counter records.
    static LIVE_REGIONS: std::cell::Cell<isize> = const { std::cell::Cell::new(0) };
}

// SAFETY: a `FreeRegion` is the only handle to its region, so sending
// it sends the header (atomics, plain words, a `Weak<PoolRoot>` with
// `PoolRoot: Send + Sync`) and the bytes together.
unsafe impl Send for FreeRegion {}

impl FreeRegion {
    /// Layout of a header followed by `inline` storage bytes.
    fn layout(inline: usize) -> Layout {
        Layout::from_size_align(
            std::mem::size_of::<RegionHeader>()
                .checked_add(inline)
                .expect("region size overflows"),
            std::mem::align_of::<RegionHeader>(),
        )
        .expect("region size overflows")
    }

    /// Allocates a header plus, unless `external` storage is given,
    /// `cap` zeroed bytes behind it.
    fn alloc(
        kind: RegionKind,
        cap: usize,
        external: Option<NonNull<u8>>,
        home: Weak<pool::PoolRoot>,
    ) -> FreeRegion {
        let layout = Self::layout(if external.is_some() { 0 } else { cap });
        // SAFETY: the layout always includes the header, so its size is
        // non-zero.
        let raw = unsafe { std::alloc::alloc_zeroed(layout) };
        let Some(base) = NonNull::new(raw) else {
            std::alloc::handle_alloc_error(layout)
        };
        // SAFETY: the allocation is at least one header long, so the
        // offset is in bounds (one past the end when `cap` is zero).
        let inline = unsafe { base.add(std::mem::size_of::<RegionHeader>()) };
        let hdr = base.cast::<RegionHeader>();
        // SAFETY: `hdr` is the start of a fresh allocation sized and
        // aligned for a header.
        unsafe {
            hdr.write(RegionHeader {
                refs: AtomicUsize::new(0),
                data: external.unwrap_or(inline),
                cap,
                home,
                home_core: AtomicU32::new(0),
                kind,
            });
        }
        #[cfg(test)]
        LIVE_REGIONS.with(|n| n.set(n.get() + 1));
        FreeRegion(hdr)
    }

    /// A fresh pool-shaped region of `class` homed at `home`.
    fn pooled(class: pool::SizeClass, home: Weak<pool::PoolRoot>) -> FreeRegion {
        Self::alloc(RegionKind::Pooled(class), class.capacity(), None, home)
    }

    /// A fresh exact-size region that never enters a pool.
    fn exact(cap: usize) -> FreeRegion {
        Self::alloc(RegionKind::Exact, cap, None, Weak::new())
    }

    /// Wraps storage the caller already owns (never enters a pool).
    fn boxed(data: Box<[u8]>) -> FreeRegion {
        let cap = data.len();
        let data = NonNull::new(Box::into_raw(data).cast::<u8>()).expect("boxes are non-null");
        Self::alloc(RegionKind::Boxed, cap, Some(data), Weak::new())
    }

    fn header(&self) -> &RegionHeader {
        // SAFETY: the header lives until `self` drops.
        unsafe { self.0.as_ref() }
    }

    /// Whether this region recycles into the pool rooted at `root`.
    fn is_home(&self, root: &Arc<pool::PoolRoot>) -> bool {
        std::ptr::eq(self.header().home.as_ptr(), Arc::as_ptr(root))
    }

    /// The home pool, if it still exists.
    fn home(&self) -> Option<Arc<pool::PoolRoot>> {
        self.header().home.upgrade()
    }

    fn home_core(&self) -> CoreId {
        CoreId(self.header().home_core.load(Ordering::Relaxed))
    }

    /// Records the core whose list the region is being acquired from.
    fn set_home_core(&self, core: CoreId) {
        // Relaxed, here and in `into_ref`: nobody else can reach the
        // region until its first reference is shared, and whatever
        // shares it synchronizes.
        self.header().home_core.store(core.0, Ordering::Relaxed);
    }

    /// Hands the region to its first descriptor.
    fn into_ref(self) -> RegionRef {
        self.header().refs.store(1, Ordering::Relaxed);
        RegionRef(ManuallyDrop::new(self).0)
    }
}

impl Drop for FreeRegion {
    fn drop(&mut self) {
        #[cfg(test)]
        LIVE_REGIONS.with(|n| n.set(n.get() - 1));
        let hdr = self.0.as_ptr();
        // SAFETY: `refs == 0` and `self` is the only handle, so nothing
        // else can reach the header or the bytes. The header was
        // written by `alloc` into an allocation of exactly the layout
        // recomputed here, and `Boxed` storage came from
        // `Box::<[u8]>::into_raw` with length `cap`.
        unsafe {
            let (kind, data, cap) = ((*hdr).kind, (*hdr).data, (*hdr).cap);
            std::ptr::drop_in_place(hdr);
            let inline = if kind == RegionKind::Boxed {
                drop(Box::from_raw(std::ptr::slice_from_raw_parts_mut(
                    data.as_ptr(),
                    cap,
                )));
                0
            } else {
                cap
            };
            std::alloc::dealloc(hdr.cast(), Self::layout(inline));
        }
    }
}

/// One counted reference to a region — what every descriptor holds.
/// Dropping the last one recycles a pooled region into the freeing
/// core's pool (or its home mailbox) and frees any other.
struct RegionRef(NonNull<RegionHeader>);

// SAFETY: the count is atomic; `home_core` is atomic and written only
// while the region has a single owner; every other header field is
// immutable while a reference exists (`Weak<PoolRoot>` is `Sync`). The
// bytes are read through shared descriptors and written only through a
// `MutIoBuf` (which needs `&mut` and is the only view of the bytes it
// can write) or by `Chain::prepend_in_place` (which checks that its
// descriptor is the region's only one).
unsafe impl Send for RegionRef {}
// SAFETY: as above.
unsafe impl Sync for RegionRef {}

impl RegionRef {
    /// Allocates (or recycles) storage of at least `capacity` bytes.
    /// Requests are routed by length to the smallest size class that
    /// fits ([`pool::class_for`]) and served through the buffer-pool
    /// Ebb's per-core reps; anything beyond the largest class gets an
    /// exact-size one-shot allocation.
    fn alloc(capacity: usize) -> RegionRef {
        match pool::class_for(capacity) {
            Some(class) => pool::acquire(class),
            None => {
                stats::record_oversize();
                FreeRegion::exact(capacity).into_ref()
            }
        }
    }

    #[inline]
    fn header(&self) -> &RegionHeader {
        // SAFETY: this reference keeps `refs > 0`, so the header is
        // live.
        unsafe { self.0.as_ref() }
    }

    /// A second reference to the same region.
    #[inline]
    fn retain(&self) -> RegionRef {
        // Relaxed, as `Arc::clone`: the new reference is made from a
        // live one, which already orders it after the region's
        // creation.
        let old = self.header().refs.fetch_add(1, Ordering::Relaxed);
        if old > isize::MAX as usize {
            // Leaked clones must not wrap the count into a free.
            std::process::abort();
        }
        RegionRef(self.0)
    }

    fn size_class(&self) -> Option<pool::SizeClass> {
        match self.header().kind {
            RegionKind::Pooled(class) => Some(class),
            RegionKind::Exact | RegionKind::Boxed => None,
        }
    }
}

impl Drop for RegionRef {
    #[inline]
    fn drop(&mut self) {
        // Release: this descriptor's reads of the bytes happen before
        // the decrement; the Acquire fence on the last drop makes every
        // such read happen before the region is reused or freed (the
        // `Arc` protocol).
        if self.header().refs.fetch_sub(1, Ordering::Release) != 1 {
            return;
        }
        std::sync::atomic::fence(Ordering::Acquire);
        let region = FreeRegion(self.0);
        match region.header().kind {
            RegionKind::Pooled(class) => pool::recycle(class, region),
            RegionKind::Exact | RegionKind::Boxed => drop(region),
        }
    }
}

/// Read access to a buffer segment's visible bytes.
pub trait Buf {
    /// The bytes currently inside the view window.
    fn bytes(&self) -> &[u8];

    /// Length of the view window.
    fn len(&self) -> usize {
        self.bytes().len()
    }

    /// Whether the view window is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A uniquely-owned, writable buffer segment with headroom and tailroom.
///
/// Layout: `[ headroom | view window | tailroom ]` over one region.
/// `prepend`/`append` grow the window into head/tailroom; `advance`/
/// `trim_end` shrink it.
///
/// Storage comes from the per-core [`pool`] whenever the requested
/// capacity fits a pooled region; the logical capacity the caller asked
/// for is still enforced exactly (a pool-backed buffer does not grant
/// bonus tailroom), so window arithmetic behaves identically either
/// way. Pooled storage is recycled, not zeroed: bytes exposed by
/// [`MutIoBuf::append`] are unspecified until the caller writes them.
pub struct MutIoBuf {
    /// The only reference to the region's bytes from `base` on, for as
    /// long as the buffer is mutable. (Bytes before `base` — there are
    /// none until [`MutIoBuf::split_frozen`] moves it — belong to the
    /// frozen descriptors split off the front.)
    region: RegionRef,
    /// First byte this buffer may touch: the region's storage (the
    /// header's `data`), past whatever has been split off.
    base: NonNull<u8>,
    /// Offset of the view window within the region.
    off: usize,
    /// Length of the view window.
    len: usize,
    /// Logical capacity (≤ physical region size);
    /// `off + len <= cap` always.
    cap: usize,
}

// SAFETY: a `MutIoBuf` is the only way to reach its region's bytes from
// `base` on (`RegionRef` is `Send`); `base` points into that region.
unsafe impl Send for MutIoBuf {}
// SAFETY: `&MutIoBuf` only reads the window.
unsafe impl Sync for MutIoBuf {}

impl MutIoBuf {
    /// Default headroom reserved by [`MutIoBuf::for_payload`]: enough for
    /// Ethernet (14) + IPv4 (20) + TCP (up to 60) headers, rounded up.
    pub const DEFAULT_HEADROOM: usize = 128;

    /// A buffer over `region` (of which the caller holds the only
    /// reference) with logical capacity `cap` and the window
    /// `off .. off + len`.
    fn over(region: RegionRef, off: usize, len: usize, cap: usize) -> Self {
        let h = region.header();
        debug_assert_eq!(h.refs.load(Ordering::Relaxed), 1);
        assert!(off + len <= cap && cap <= h.cap);
        MutIoBuf {
            base: h.data,
            region,
            off,
            len,
            cap,
        }
    }

    /// Creates a buffer of `capacity` bytes with an empty view at offset 0
    /// (all capacity is tailroom).
    pub fn with_capacity(capacity: usize) -> Self {
        Self::over(RegionRef::alloc(capacity), 0, 0, capacity)
    }

    /// Creates a buffer whose view starts after `headroom` bytes and is
    /// initially empty; total capacity is `headroom + payload_capacity`.
    pub fn with_headroom(payload_capacity: usize, headroom: usize) -> Self {
        let cap = headroom + payload_capacity;
        Self::over(RegionRef::alloc(cap), headroom, 0, cap)
    }

    /// Creates a buffer holding a copy of `payload`, with
    /// [`Self::DEFAULT_HEADROOM`] bytes of headroom for protocol headers.
    pub fn for_payload(payload: &[u8]) -> Self {
        let mut b = Self::with_headroom(payload.len(), Self::DEFAULT_HEADROOM);
        b.append_slice(payload);
        b
    }

    /// Wraps an owned vector; the view covers the whole vector. The
    /// storage never recycles (it is exact-size, not pool-shaped), and
    /// the caller's allocation is counted by
    /// [`stats::bufs_allocated`] — wrapping a fresh `Vec` per request
    /// is exactly the behaviour the zero-alloc property must expose.
    pub fn from_vec(v: Vec<u8>) -> Self {
        stats::record_alloc();
        let len = v.len();
        let region = FreeRegion::boxed(v.into_boxed_slice()).into_ref();
        Self::over(region, 0, len, len)
    }

    /// Bytes available in front of the view window.
    pub fn headroom(&self) -> usize {
        self.off
    }

    /// Bytes available behind the view window.
    pub fn tailroom(&self) -> usize {
        self.cap - self.off - self.len
    }

    /// Logical capacity of the buffer.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Whether the backing region came from (and will return to) the
    /// per-core pool.
    pub fn is_pooled(&self) -> bool {
        self.size_class().is_some()
    }

    /// The size class serving this buffer's backing region, if pooled.
    pub fn size_class(&self) -> Option<pool::SizeClass> {
        self.region.size_class()
    }

    /// `n` bytes of the region starting `start` bytes in.
    ///
    /// The caller keeps `start + n <= self.cap`.
    #[inline]
    fn window_mut(&mut self, start: usize, n: usize) -> &mut [u8] {
        debug_assert!(start + n <= self.cap);
        // SAFETY: `base .. base + cap` lies inside the region's storage
        // (checked in `over`, kept by `split_frozen`), which was
        // zero-initialised at allocation; no descriptor but this buffer
        // — borrowed mutably here — views those bytes.
        unsafe { std::slice::from_raw_parts_mut(self.base.as_ptr().add(start), n) }
    }

    /// Mutable access to the view window.
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        self.window_mut(self.off, self.len)
    }

    /// Extends the window forward (into headroom) by `n` bytes and
    /// returns the newly exposed prefix for the caller to fill — this is
    /// how protocol layers add headers without copying the payload.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the available headroom.
    pub fn prepend(&mut self, n: usize) -> &mut [u8] {
        assert!(n <= self.off, "prepend({n}) exceeds headroom {}", self.off);
        self.off -= n;
        self.len += n;
        self.window_mut(self.off, n)
    }

    /// Extends the window backward (into tailroom) by `n` bytes and
    /// returns the newly exposed suffix. With pooled storage the
    /// exposed bytes are whatever the previous user left there — the
    /// caller must fill them.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the available tailroom.
    pub fn append(&mut self, n: usize) -> &mut [u8] {
        assert!(
            n <= self.tailroom(),
            "append({n}) exceeds tailroom {}",
            self.tailroom()
        );
        let start = self.off + self.len;
        self.len += n;
        self.window_mut(start, n)
    }

    /// Appends a copy of `src` into tailroom (counted by
    /// [`stats::bytes_copied`]).
    pub fn append_slice(&mut self, src: &[u8]) {
        stats::record_copy(src.len());
        self.append(src.len()).copy_from_slice(src);
    }

    /// Shrinks the window from the front by `n` bytes (consumed bytes
    /// become headroom) — used to strip parsed headers.
    ///
    /// # Panics
    ///
    /// Panics if `n > len()`.
    pub fn advance(&mut self, n: usize) {
        assert!(n <= self.len, "advance({n}) exceeds length {}", self.len);
        self.off += n;
        self.len -= n;
    }

    /// Shrinks the window from the back by `n` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `n > len()`.
    pub fn trim_end(&mut self, n: usize) {
        assert!(n <= self.len, "trim_end({n}) exceeds length {}", self.len);
        self.len -= n;
    }

    /// Freezes what has been written so far and keeps writing behind
    /// it: returns a shareable descriptor of the current window and
    /// leaves this buffer with an empty window where that one ended —
    /// no headroom (the bytes in front are the returned descriptor's
    /// now), the tailroom it had. No copy, no allocation; the region
    /// recycles when the last descriptor of either kind drops. This is
    /// how a marshalling buffer is cut around a payload linked by
    /// descriptor ([`wire::WireWriter::bytes32_chain`]).
    pub fn split_frozen(&mut self) -> IoBuf {
        let used = self.off + self.len;
        let front = IoBuf {
            // SAFETY: `off <= cap`, inside the region's storage.
            ptr: unsafe { self.base.add(self.off) },
            len: self.len,
            region: self.region.retain(),
        };
        // SAFETY: `used <= cap`, inside (or one past) the storage. From
        // here on this buffer reads and writes only at or after the new
        // `base`, and `front` (with every descriptor cloned or sliced
        // from it) only before it, so the two never alias.
        self.base = unsafe { self.base.add(used) };
        self.cap -= used;
        (self.off, self.len) = (0, 0);
        front
    }

    /// Freezes into a shareable, immutable [`IoBuf`] without copying or
    /// allocating: the buffer's reference to the region moves into the
    /// new descriptor. A pooled region stays pooled: it recycles when the
    /// last frozen descriptor drops.
    pub fn freeze(self) -> IoBuf {
        IoBuf {
            // SAFETY: `off <= cap`, inside the region's storage.
            ptr: unsafe { self.base.add(self.off) },
            len: self.len,
            region: self.region,
        }
    }
}

impl Buf for MutIoBuf {
    #[inline]
    fn bytes(&self) -> &[u8] {
        // SAFETY: as `window_mut`, for reading.
        unsafe { std::slice::from_raw_parts(self.base.as_ptr().add(self.off), self.len) }
    }

    #[inline]
    fn len(&self) -> usize {
        self.len
    }
}

impl fmt::Debug for MutIoBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MutIoBuf")
            .field("headroom", &self.headroom())
            .field("len", &self.len)
            .field("tailroom", &self.tailroom())
            .field("pooled", &self.size_class())
            .finish()
    }
}

/// An immutable, reference-counted buffer segment.
///
/// Clones share the underlying region; each clone has an independent
/// view window, so slicing is free. When the last descriptor of a
/// pool-backed region drops, the storage returns to the per-core
/// [`pool`].
///
/// The descriptor carries its window itself (pointer and length), so
/// reading the bytes never touches the region's header; clone and drop
/// are one operation on the region's counter.
pub struct IoBuf {
    /// First byte of the view window; `ptr .. ptr + len` lies inside
    /// the region's storage.
    ptr: NonNull<u8>,
    /// Length of the view window.
    len: usize,
    region: RegionRef,
}

// SAFETY: the window is read-only and stays alive through `region`,
// which is `Send + Sync`.
unsafe impl Send for IoBuf {}
// SAFETY: as above.
unsafe impl Sync for IoBuf {}

impl Clone for IoBuf {
    #[inline]
    fn clone(&self) -> Self {
        IoBuf {
            ptr: self.ptr,
            len: self.len,
            region: self.region.retain(),
        }
    }
}

impl IoBuf {
    /// Creates a buffer holding a copy of `data` (counted by
    /// [`stats::bytes_copied`]; the storage allocation is exact-size
    /// and unpooled).
    pub fn copy_from(data: &[u8]) -> Self {
        stats::record_copy(data.len());
        stats::record_alloc();
        let region = FreeRegion::exact(data.len()).into_ref();
        let mut b = MutIoBuf::over(region, 0, 0, data.len());
        b.append(data.len()).copy_from_slice(data);
        b.freeze()
    }

    /// An empty buffer.
    pub fn empty() -> Self {
        MutIoBuf::over(FreeRegion::exact(0).into_ref(), 0, 0, 0).freeze()
    }

    /// Returns a new descriptor viewing `len` bytes from `start` of
    /// this view, sharing the same region (no copy).
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the current view.
    pub fn slice(&self, start: usize, len: usize) -> IoBuf {
        assert!(
            start <= self.len && len <= self.len - start,
            "slice({start}, {len}) exceeds view length {}",
            self.len
        );
        IoBuf {
            // SAFETY: `start <= self.len`, inside this view.
            ptr: unsafe { self.ptr.add(start) },
            len,
            region: self.region.retain(),
        }
    }

    /// Range-style form of [`Self::slice`]: a descriptor viewing
    /// `range` of this view, sharing the same region.
    pub fn slice_range(&self, range: Range<usize>) -> IoBuf {
        assert!(range.start <= range.end, "inverted slice range");
        self.slice(range.start, range.end - range.start)
    }

    /// Shrinks the view from the front by `n` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `n > len()`.
    pub fn advance(&mut self, n: usize) {
        assert!(n <= self.len, "advance({n}) exceeds length {}", self.len);
        // SAFETY: `n <= self.len`, inside this view.
        self.ptr = unsafe { self.ptr.add(n) };
        self.len -= n;
    }

    /// Shrinks the view from the back by `n` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `n > len()`.
    pub fn trim_end(&mut self, n: usize) {
        assert!(n <= self.len, "trim_end({n}) exceeds length {}", self.len);
        self.len -= n;
    }

    /// Number of descriptors sharing this region (diagnostic; used by
    /// tests to assert zero-copy behaviour).
    pub fn ref_count(&self) -> usize {
        self.region.header().refs.load(Ordering::Relaxed)
    }

    /// Physical size of the backing region. A live descriptor pins the
    /// whole region, so long-lived holders (e.g. a key-value store)
    /// compare this against [`len`](Buf::len) to decide when keeping a
    /// small sub-view zero-copy would pin a disproportionate amount of
    /// memory.
    pub fn region_len(&self) -> usize {
        self.region.header().cap
    }

    /// Identity of the backing region (for pinned-storage accounting:
    /// two descriptors with the same id pin the same storage once).
    fn region_id(&self) -> usize {
        self.region.0.as_ptr() as usize
    }
}

impl Buf for IoBuf {
    #[inline]
    fn bytes(&self) -> &[u8] {
        // SAFETY: `ptr .. ptr + len` is inside the region's storage
        // (every constructor and `advance`/`slice` keeps it there),
        // which `region` keeps alive and which nothing writes while a
        // frozen descriptor exists.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }

    #[inline]
    fn len(&self) -> usize {
        self.len
    }
}

impl fmt::Debug for IoBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let base = self.region.header().data.as_ptr() as usize;
        f.debug_struct("IoBuf")
            .field("off", &(self.ptr.as_ptr() as usize - base))
            .field("len", &self.len)
            .field("refs", &self.ref_count())
            .finish()
    }
}

impl From<MutIoBuf> for IoBuf {
    fn from(b: MutIoBuf) -> Self {
        b.freeze()
    }
}

/// Segments a [`Chain`] holds in its own body before it moves them to
/// heap storage. Picked by measurement on `perf_ledger`: a chain is
/// handed over by value about ten times per frame, and with four
/// 24-byte descriptors it is 120 bytes — a few vector stores, where a
/// larger body makes every hand-off a `memcpy` call. Six or eight
/// slots save allocator calls (an 8 KiB value is 6–7 segments) and
/// cost 10–20 % more host time on both the small-GET and the 8 KiB-SET
/// workloads; two or three measure the same as four with more calls.
pub const INLINE_SEGS: usize = 4;

/// Distinct backing regions [`Chain::pinned_bytes`] deduplicates
/// exactly before degrading to an upper bound.
pub const PINNED_DEDUP_REGIONS: usize = 32;

/// Where a chain's slots live: in the chain itself, or — once it has
/// held more than [`INLINE_SEGS`] segments — in a heap array it keeps
/// for the rest of its life.
union Slots<B> {
    inline: ManuallyDrop<[MaybeUninit<B>; INLINE_SEGS]>,
    heap: NonNull<B>,
}

/// A chain of buffer segments presented as one logical byte sequence —
/// the scatter/gather unit accepted by the network stack's send path and
/// produced by its receive path.
///
/// The segments sit contiguously in one slot array, `head` slots in:
/// taking from the front ([`Chain::advance`], [`Chain::split_to`],
/// owning iteration) bumps `head` and moves nothing. The first
/// [`INLINE_SEGS`] slots are the chain's own body; a longer chain moves
/// to a heap array and stays there, keeping its capacity when it drains
/// (e.g. across [`Chain::split_to`] calls), so steady-state descriptor
/// movement performs no allocations — the hot-path cost the IOBuf
/// byte/alloc counters do *not* see.
pub struct Chain<B: Buf> {
    slots: Slots<B>,
    /// Slots in the array: `INLINE_SEGS` exactly while `slots.inline`
    /// is the live field, more once `slots.heap` is.
    cap: u32,
    /// Slots `head .. head + len` hold the segments, in order; every
    /// other slot is uninitialised. `head + len <= cap`, and `head == 0`
    /// whenever `len == 0`.
    head: u32,
    len: u32,
    /// Sum of the segments' lengths.
    total: usize,
}

// SAFETY: a chain owns its segments (inline or in its private heap
// array), like a `Vec<B>`.
unsafe impl<B: Buf + Send> Send for Chain<B> {}
// SAFETY: as above; `&Chain<B>` only hands out `&B`.
unsafe impl<B: Buf + Sync> Sync for Chain<B> {}

impl<B: Buf + Clone> Clone for Chain<B> {
    /// Clones the descriptor chain; for [`IoBuf`] segments this shares
    /// the underlying storage (no bytes are copied).
    fn clone(&self) -> Self {
        let mut out = Chain::new();
        out.reserve_back(self.segs().len());
        for seg in self.segs() {
            out.push_back(seg.clone());
        }
        out
    }
}

impl<B: Buf> Default for Chain<B> {
    fn default() -> Self {
        Self::new()
    }
}

impl<B: Buf> Drop for Chain<B> {
    fn drop(&mut self) {
        // SAFETY: `segs_mut` is exactly the initialised slots; they are
        // not touched again. A heap array was allocated by `regrow`
        // with this layout.
        unsafe {
            std::ptr::drop_in_place(self.segs_mut());
            if self.spilled() {
                std::alloc::dealloc(
                    self.slots.heap.as_ptr().cast(),
                    Self::heap_layout(self.cap as usize),
                );
            }
        }
    }
}

impl<B: Buf> Chain<B> {
    /// An empty chain.
    pub fn new() -> Self {
        Chain {
            slots: Slots {
                inline: ManuallyDrop::new([const { MaybeUninit::uninit() }; INLINE_SEGS]),
            },
            cap: INLINE_SEGS as u32,
            head: 0,
            len: 0,
            total: 0,
        }
    }

    /// A chain with a single segment.
    pub fn single(seg: B) -> Self {
        let mut c = Chain::new();
        c.push_back(seg);
        c
    }

    #[inline]
    fn spilled(&self) -> bool {
        self.cap as usize != INLINE_SEGS
    }

    fn heap_layout(cap: usize) -> Layout {
        Layout::array::<B>(cap).expect("chain capacity overflows")
    }

    /// First slot of the array.
    #[inline]
    fn base(&self) -> *const B {
        if self.spilled() {
            // SAFETY: `cap` says `heap` is the live field.
            unsafe { self.slots.heap.as_ptr() }
        } else {
            // `ManuallyDrop` and `MaybeUninit` are transparent over `B`.
            (&raw const self.slots.inline).cast()
        }
    }

    #[inline]
    fn base_mut(&mut self) -> *mut B {
        if self.spilled() {
            // SAFETY: as `base`.
            unsafe { self.slots.heap.as_ptr() }
        } else {
            (&raw mut self.slots.inline).cast()
        }
    }

    /// The segments, in order.
    #[inline]
    fn segs(&self) -> &[B] {
        // SAFETY: slots `head .. head + len` are initialised and inside
        // the array.
        unsafe {
            std::slice::from_raw_parts(self.base().add(self.head as usize), self.len as usize)
        }
    }

    #[inline]
    fn segs_mut(&mut self) -> &mut [B] {
        let (head, len) = (self.head as usize, self.len as usize);
        // SAFETY: as `segs`.
        unsafe { std::slice::from_raw_parts_mut(self.base_mut().add(head), len) }
    }

    /// Moves the segments into a heap array of `new_cap` slots
    /// (starting at slot `at`), freeing the previous heap array if
    /// there was one.
    fn regrow(&mut self, new_cap: usize, at: usize) {
        let len = self.len as usize;
        assert!(new_cap > INLINE_SEGS && at + len <= new_cap);
        let new_cap32 = u32::try_from(new_cap).expect("chain capacity overflows");
        let layout = Self::heap_layout(new_cap);
        assert!(layout.size() > 0, "zero-sized chain segments");
        // SAFETY: the layout's size is non-zero, checked above.
        let raw = unsafe { std::alloc::alloc(layout) };
        let Some(new) = NonNull::new(raw.cast::<B>()) else {
            std::alloc::handle_alloc_error(layout)
        };
        // SAFETY: the `len` live segments are moved (bitwise) into the
        // fresh array, which has room at `at`; the old slots are then
        // treated as uninitialised, and an old heap array is released
        // with the layout it was allocated with.
        unsafe {
            std::ptr::copy_nonoverlapping(
                self.base().add(self.head as usize),
                new.as_ptr().add(at),
                len,
            );
            if self.spilled() {
                std::alloc::dealloc(
                    self.slots.heap.as_ptr().cast(),
                    Self::heap_layout(self.cap as usize),
                );
            }
        }
        self.slots.heap = new;
        self.cap = new_cap32;
        self.head = at as u32;
    }

    /// Slides the segments so that they start at slot `at`.
    fn slide_to(&mut self, at: usize) {
        let (head, len) = (self.head as usize, self.len as usize);
        debug_assert!(at + len <= self.cap as usize);
        let base = self.base_mut();
        // SAFETY: source and destination ranges are inside the array;
        // `copy` allows them to overlap. Afterwards exactly the
        // destination range is treated as initialised.
        unsafe { std::ptr::copy(base.add(head), base.add(at), len) };
        self.head = at as u32;
    }

    /// Makes room for `n` more segments at the back. Slides the
    /// segments down to slot 0 when that frees enough slots without
    /// making a long queue pay a slide per push (the freed run must be
    /// at least a quarter of what is moved); grows the array otherwise.
    fn reserve_back(&mut self, n: usize) {
        let (head, len, cap) = (self.head as usize, self.len as usize, self.cap as usize);
        if head + len + n <= cap {
            return;
        }
        if len + n <= cap && head * 4 >= len {
            self.slide_to(0);
        } else {
            self.regrow((len + n).next_power_of_two().max(2 * cap), 0);
        }
    }

    /// Appends a segment to the back.
    pub fn push_back(&mut self, seg: B) {
        self.reserve_back(1);
        self.total += seg.len();
        let at = (self.head + self.len) as usize;
        // SAFETY: `reserve_back` left slot `head + len` inside the
        // array and vacant.
        unsafe { self.base_mut().add(at).write(seg) };
        self.len += 1;
    }

    /// Prepends a segment to the front.
    pub fn push_front(&mut self, seg: B) {
        if self.head == 0 {
            let (len, cap) = (self.len as usize, self.cap as usize);
            if len < cap {
                // Centre the free slots so alternating ends stay cheap.
                self.slide_to((cap - len).div_ceil(2));
            } else {
                self.regrow(2 * cap, cap / 2);
            }
        }
        self.total += seg.len();
        self.head -= 1;
        let at = self.head as usize;
        // SAFETY: slot `head - 1` was inside the array and vacant.
        unsafe { self.base_mut().add(at).write(seg) };
        self.len += 1;
    }

    /// Removes and returns the first segment, if any.
    fn pop_front_seg(&mut self) -> Option<B> {
        if self.len == 0 {
            return None;
        }
        // SAFETY: slot `head` is initialised; bumping `head` past it
        // makes this read the only owner of the value.
        let seg = unsafe { self.base().add(self.head as usize).read() };
        self.len -= 1;
        self.head = if self.len == 0 { 0 } else { self.head + 1 };
        self.total -= seg.len();
        Some(seg)
    }

    /// Appends all segments of `other`.
    pub fn append_chain(&mut self, mut other: Chain<B>) {
        if self.len == 0 && other.cap >= self.cap {
            // Nothing to keep in order: take over `other`'s array (and
            // any capacity it has grown) instead of moving segments.
            std::mem::swap(self, &mut other);
            return;
        }
        let n = other.len as usize;
        self.reserve_back(n);
        let at = (self.head + self.len) as usize;
        // SAFETY: `reserve_back` left `n` vacant slots behind the last
        // segment; the segments are moved (bitwise) out of `other`,
        // which forgets them by zeroing its length before it drops.
        unsafe {
            std::ptr::copy_nonoverlapping(
                other.base().add(other.head as usize),
                self.base_mut().add(at),
                n,
            );
        }
        self.len += n as u32;
        self.total += other.total;
        (other.head, other.len, other.total) = (0, 0, 0);
    }

    /// Total logical length across all segments.
    #[inline]
    pub fn len(&self) -> usize {
        self.total
    }

    /// Whether the chain holds zero bytes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Number of segments.
    #[inline]
    pub fn segment_count(&self) -> usize {
        self.len as usize
    }

    /// The `i`-th segment.
    ///
    /// # Panics
    ///
    /// Panics if `i >= segment_count()`.
    #[inline]
    pub fn seg(&self, i: usize) -> &B {
        &self.segs()[i]
    }

    /// Iterates the segments in order.
    #[inline]
    pub fn iter(&self) -> SegIter<'_, B> {
        SegIter(self.segs().iter())
    }

    /// Copies the entire logical contents into one `Vec` (explicitly *not*
    /// zero-copy — counted by [`stats::bytes_copied`]; used at
    /// simulation edges and in tests).
    pub fn copy_to_vec(&self) -> Vec<u8> {
        stats::record_copy(self.total);
        let mut out = Vec::with_capacity(self.total);
        for s in self.iter() {
            out.extend_from_slice(s.bytes());
        }
        out
    }

    /// A parsing cursor positioned at the logical start.
    #[inline]
    pub fn cursor(&self) -> Cursor<'_, B> {
        let segs = self.segs();
        Cursor {
            cur: segs.first().map_or(&[], Buf::bytes),
            segs,
            consumed: 0,
            total: self.total,
        }
    }
}

/// Borrowed iteration over a chain's segments.
pub struct SegIter<'a, B: Buf>(std::slice::Iter<'a, B>);

impl<'a, B: Buf> Iterator for SegIter<'a, B> {
    type Item = &'a B;

    #[inline]
    fn next(&mut self) -> Option<&'a B> {
        self.0.next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

impl<'a, B: Buf> IntoIterator for &'a Chain<B> {
    type Item = &'a B;
    type IntoIter = SegIter<'a, B>;

    fn into_iter(self) -> SegIter<'a, B> {
        self.iter()
    }
}

/// Owning iteration: consumes the chain front to back.
pub struct ChainIntoIter<B: Buf> {
    chain: Chain<B>,
}

impl<B: Buf> Iterator for ChainIntoIter<B> {
    type Item = B;

    fn next(&mut self) -> Option<B> {
        self.chain.pop_front_seg()
    }
}

impl<B: Buf> IntoIterator for Chain<B> {
    type Item = B;
    type IntoIter = ChainIntoIter<B>;

    fn into_iter(self) -> ChainIntoIter<B> {
        ChainIntoIter { chain: self }
    }
}

impl Chain<IoBuf> {
    /// Drops `n` bytes from the logical front, discarding exhausted
    /// segments and advancing into partial ones (no data copied).
    ///
    /// # Panics
    ///
    /// Panics if `n > len()`.
    pub fn advance(&mut self, mut n: usize) {
        assert!(n <= self.total, "advance({n}) exceeds chain length");
        while n > 0 {
            let first_len = self.seg(0).len();
            if n >= first_len {
                self.pop_front_seg();
                n -= first_len;
            } else {
                self.segs_mut()[0].advance(n);
                self.total -= n;
                n = 0;
            }
        }
    }

    /// Grows the first segment `n` bytes toward the front of its region
    /// and returns the newly exposed bytes for the caller to fill — a
    /// header written in front of a payload that is already frozen.
    /// `None` (changing nothing) unless that segment is its region's
    /// **only** descriptor and the region has `n` bytes in front of the
    /// window: a payload marshalled behind [`wire::HEADROOM`] that
    /// nobody else holds. Anything shared — a retry's retained clone, a
    /// buffer cut around a linked descriptor — is refused, and the
    /// caller frames with a buffer of its own instead.
    pub fn prepend_in_place(&mut self, n: usize) -> Option<&mut [u8]> {
        let first = self.segs_mut().first_mut()?;
        let h = first.region.header();
        let room = first.ptr.as_ptr() as usize - h.data.as_ptr() as usize;
        // Acquire, as `Arc::get_mut`: every other descriptor's reads of
        // the region happened before the drop that left this one alone.
        if room < n || h.refs.load(Ordering::Acquire) != 1 {
            return None;
        }
        // SAFETY: `n <= room`, so the new window still starts inside
        // the storage. This descriptor is the region's only one and is
        // borrowed mutably, so nothing else can read or write the
        // region while the returned slice lives; the bytes were
        // zero-initialised at allocation.
        let exposed = unsafe {
            first.ptr = first.ptr.sub(n);
            std::slice::from_raw_parts_mut(first.ptr.as_ptr(), n)
        };
        first.len += n;
        self.total += n;
        Some(exposed)
    }

    /// Physical bytes pinned by the segments' backing regions.
    /// Long-lived chains compare this against [`len`](Chain::len) to
    /// decide when small sub-views are pinning a disproportionate
    /// amount of buffer memory.
    ///
    /// Regions shared by several segments are counted once — a large
    /// message segmented to MSS produces many views of one staging
    /// region, which pins that region's bytes once, not per segment.
    /// Deduplication uses a fixed-size scratch table; chains with more
    /// than [`PINNED_DEDUP_REGIONS`] *distinct* regions degrade to an
    /// upper bound (over-counting further shared regions), which errs
    /// toward compaction — the safe direction for the
    /// anti-amplification gates built on this number.
    pub fn pinned_bytes(&self) -> usize {
        let mut seen = [0usize; PINNED_DEDUP_REGIONS];
        let mut nseen = 0;
        let mut total = 0;
        'segs: for seg in self.iter() {
            let id = seg.region_id();
            for &s in &seen[..nseen] {
                if s == id {
                    continue 'segs;
                }
            }
            if nseen < PINNED_DEDUP_REGIONS {
                seen[nseen] = id;
                nseen += 1;
            }
            total += seg.region_len();
        }
        total
    }

    /// Replaces the chain's contents with one exact-size segment,
    /// releasing every pinned region (a counted copy plus one counted
    /// allocation). Used to bound memory amplification when a backlog
    /// accumulates many small views of large (possibly pooled)
    /// regions — e.g. a peer trickling a request one byte per packet.
    pub fn compact(&mut self) {
        if self.segment_count() == 1 && self.seg(0).region_len() == self.total {
            return; // already exact
        }
        let packed = (self.total > 0).then(|| {
            stats::record_copy(self.total);
            stats::record_alloc();
            let region = FreeRegion::exact(self.total).into_ref();
            let mut b = MutIoBuf::over(region, 0, 0, self.total);
            for s in self.iter() {
                b.append(s.len()).copy_from_slice(s.bytes());
            }
            b.freeze()
        });
        while self.pop_front_seg().is_some() {}
        if let Some(packed) = packed {
            self.push_back(packed);
        }
    }

    /// [`compact`](Chain::compact)s the chain when it holds at least
    /// `max_segs` segments *and* pins more than `factor`× its logical
    /// bytes — the anti-amplification gate long-lived backlogs apply
    /// after appending received data (a peer trickling a request a few
    /// bytes per packet must not pin a receive region per packet).
    /// Returns whether compaction ran.
    pub fn compact_if_amplified(&mut self, max_segs: usize, factor: usize) -> bool {
        if self.segment_count() >= max_segs && self.pinned_bytes() > self.total * factor {
            self.compact();
            true
        } else {
            false
        }
    }

    /// Splits off the first `n` logical bytes into a new chain, sharing
    /// storage with this one (segments are sliced, not copied). The
    /// source chain's heap capacity, if any, is retained for reuse.
    ///
    /// # Panics
    ///
    /// Panics if `n > len()`.
    pub fn split_to(&mut self, n: usize) -> Chain<IoBuf> {
        assert!(n <= self.total, "split_to({n}) exceeds chain length");
        let mut out = Chain::new();
        let mut remaining = n;
        while remaining > 0 {
            let first_len = self.seg(0).len();
            if remaining >= first_len {
                let seg = self.pop_front_seg().expect("counted segment");
                remaining -= first_len;
                out.push_back(seg);
            } else {
                let first = &mut self.segs_mut()[0];
                let head = first.slice(0, remaining);
                first.advance(remaining);
                self.total -= remaining;
                out.push_back(head);
                remaining = 0;
            }
        }
        out
    }
}

/// Converts a chain of mutable segments into a shareable immutable chain.
impl From<Chain<MutIoBuf>> for Chain<IoBuf> {
    fn from(chain: Chain<MutIoBuf>) -> Self {
        let mut out = Chain::new();
        out.reserve_back(chain.segment_count());
        for seg in chain {
            out.push_back(seg.freeze());
        }
        out
    }
}

/// A read cursor over a [`Chain`], crossing segment boundaries
/// transparently — the analogue of EbbRT's `DataPointer`.
///
/// Reads are served from the current segment's byte slice; only a read
/// that straddles a segment boundary takes the segment-walking path.
pub struct Cursor<'a, B: Buf> {
    /// Unread bytes of the current segment (`segs[0]`).
    cur: &'a [u8],
    /// The current segment and every segment after it.
    segs: &'a [B],
    consumed: usize,
    /// The chain's logical length.
    total: usize,
}

impl<'a, B: Buf> Cursor<'a, B> {
    /// Bytes remaining after the cursor.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.total - self.consumed
    }

    /// Bytes consumed so far.
    #[inline]
    pub fn consumed(&self) -> usize {
        self.consumed
    }

    /// Steps to the next segment that has unread bytes. The caller has
    /// checked that one exists (`remaining() > 0`).
    fn next_seg(&mut self) {
        while self.cur.is_empty() {
            self.segs = &self.segs[1..];
            self.cur = self.segs[0].bytes();
        }
    }

    /// Reads a fixed-size field: straight out of the current segment
    /// when it holds all `N` bytes, else across the boundary.
    #[inline]
    fn read_array<const N: usize>(&mut self) -> Option<[u8; N]> {
        if let Some((field, rest)) = self.cur.split_first_chunk::<N>() {
            self.cur = rest;
            self.consumed += N;
            return Some(*field);
        }
        let mut b = [0u8; N];
        self.read_straddling(&mut b)?;
        Some(b)
    }

    /// Reads one byte.
    #[inline]
    pub fn read_u8(&mut self) -> Option<u8> {
        self.read_array::<1>().map(|b| b[0])
    }

    /// Reads a big-endian u16 (network order).
    #[inline]
    pub fn read_u16_be(&mut self) -> Option<u16> {
        self.read_array().map(u16::from_be_bytes)
    }

    /// Reads a big-endian u32 (network order).
    #[inline]
    pub fn read_u32_be(&mut self) -> Option<u32> {
        self.read_array().map(u32::from_be_bytes)
    }

    /// Reads a big-endian u64 (network order).
    #[inline]
    pub fn read_u64_be(&mut self) -> Option<u64> {
        self.read_array().map(u64::from_be_bytes)
    }

    /// Fills `dst` from the cursor position, crossing segments as needed.
    /// Returns `None` (consuming nothing) if fewer than `dst.len()` bytes
    /// remain.
    #[inline]
    pub fn read_exact(&mut self, dst: &mut [u8]) -> Option<()> {
        if let Some((src, rest)) = self.cur.split_at_checked(dst.len()) {
            dst.copy_from_slice(src);
            self.cur = rest;
            self.consumed += dst.len();
            return Some(());
        }
        self.read_straddling(dst)
    }

    /// [`Self::read_exact`] for a read the current segment cannot
    /// serve alone.
    #[cold]
    fn read_straddling(&mut self, dst: &mut [u8]) -> Option<()> {
        if self.remaining() < dst.len() {
            return None;
        }
        let mut written = 0;
        while written < dst.len() {
            self.next_seg();
            let take = self.cur.len().min(dst.len() - written);
            let (src, rest) = self.cur.split_at(take);
            dst[written..written + take].copy_from_slice(src);
            self.cur = rest;
            written += take;
        }
        self.consumed += dst.len();
        Some(())
    }

    /// Skips `n` bytes.
    ///
    /// Returns `None` (consuming nothing) if fewer than `n` bytes remain.
    #[inline]
    pub fn skip(&mut self, n: usize) -> Option<()> {
        if let Some((_, rest)) = self.cur.split_at_checked(n) {
            self.cur = rest;
            self.consumed += n;
            return Some(());
        }
        if self.remaining() < n {
            return None;
        }
        let mut left = n;
        while left > 0 {
            self.next_seg();
            let take = self.cur.len().min(left);
            self.cur = &self.cur[take..];
            left -= take;
        }
        self.consumed += n;
        Some(())
    }

    /// Reads `n` bytes into a fresh vector (counted by
    /// [`stats::bytes_copied`] — prefer
    /// [`Cursor::read_exact_zero_copy`] on hot paths).
    pub fn read_vec(&mut self, n: usize) -> Option<Vec<u8>> {
        if self.remaining() < n {
            return None; // before sizing an allocation from `n`
        }
        let mut v = vec![0u8; n];
        self.read_exact(&mut v)?;
        stats::record_copy(n);
        Some(v)
    }
}

impl<'a> Cursor<'a, IoBuf> {
    /// Carves the next `n` bytes out as a chain of sub-views sharing
    /// the underlying regions — the zero-copy way for a protocol parser
    /// to take a request body straight out of driver buffers. Returns
    /// `None` (consuming nothing) if fewer than `n` bytes remain.
    pub fn read_exact_zero_copy(&mut self, n: usize) -> Option<Chain<IoBuf>> {
        if self.remaining() < n {
            return None;
        }
        let mut out = Chain::new();
        let mut left = n;
        while left > 0 {
            self.next_seg();
            let seg = &self.segs[0];
            let take = self.cur.len().min(left);
            out.push_back(seg.slice(seg.len() - self.cur.len(), take));
            self.cur = &self.cur[take..];
            left -= take;
        }
        self.consumed += n;
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mut_iobuf_headroom_prepend() {
        let mut b = MutIoBuf::with_headroom(100, 64);
        assert_eq!(b.headroom(), 64);
        assert_eq!(b.len(), 0);
        b.append_slice(b"payload");
        assert_eq!(b.bytes(), b"payload");
        b.prepend(4).copy_from_slice(b"HDR:");
        assert_eq!(b.bytes(), b"HDR:payload");
        assert_eq!(b.headroom(), 60);
    }

    #[test]
    #[should_panic(expected = "exceeds headroom")]
    fn prepend_past_headroom_panics() {
        let mut b = MutIoBuf::with_headroom(10, 2);
        b.prepend(3);
    }

    #[test]
    fn advance_and_trim() {
        let mut b = MutIoBuf::from_vec(b"ethipv4payload".to_vec());
        b.advance(3);
        assert_eq!(b.bytes(), b"ipv4payload");
        b.advance(4);
        assert_eq!(b.bytes(), b"payload");
        b.trim_end(3);
        assert_eq!(b.bytes(), b"payl");
        // Consumed header space became headroom again.
        assert_eq!(b.headroom(), 7);
    }

    #[test]
    fn freeze_shares_storage() {
        let b = MutIoBuf::from_vec(vec![1, 2, 3, 4]).freeze();
        let c = b.clone();
        assert_eq!(b.ref_count(), 2);
        let s = c.slice(1, 2);
        assert_eq!(s.bytes(), &[2, 3]);
        assert_eq!(b.ref_count(), 3);
        assert_eq!(b.bytes(), &[1, 2, 3, 4]);
    }

    #[test]
    fn slice_range_matches_slice() {
        let b = IoBuf::copy_from(b"0123456789");
        assert_eq!(b.slice_range(2..6).bytes(), b.slice(2, 4).bytes());
        assert_eq!(b.slice_range(0..0).len(), 0);
    }

    #[test]
    fn chain_accounting() {
        let mut chain: Chain<IoBuf> = Chain::new();
        assert!(chain.is_empty());
        chain.push_back(IoBuf::copy_from(b"hello "));
        chain.push_back(IoBuf::copy_from(b"world"));
        chain.push_front(IoBuf::copy_from(b">> "));
        assert_eq!(chain.len(), 14);
        assert_eq!(chain.segment_count(), 3);
        assert_eq!(chain.copy_to_vec(), b">> hello world");
    }

    #[test]
    fn chain_advance_across_segments() {
        let mut chain: Chain<IoBuf> = Chain::new();
        chain.push_back(IoBuf::copy_from(b"abc"));
        chain.push_back(IoBuf::copy_from(b"defg"));
        chain.advance(4);
        assert_eq!(chain.len(), 3);
        assert_eq!(chain.copy_to_vec(), b"efg");
        assert_eq!(chain.segment_count(), 1);
    }

    #[test]
    fn chain_split_to_shares_storage() {
        let base = IoBuf::copy_from(b"0123456789");
        let mut chain = Chain::single(base.clone());
        let head = chain.split_to(4);
        assert_eq!(head.copy_to_vec(), b"0123");
        assert_eq!(chain.copy_to_vec(), b"456789");
        // Same storage: base + head segment + chain remainder.
        assert_eq!(base.ref_count(), 3);
    }

    #[test]
    fn cursor_reads_across_boundaries() {
        let mut chain: Chain<IoBuf> = Chain::new();
        chain.push_back(IoBuf::copy_from(&[0x12]));
        chain.push_back(IoBuf::copy_from(&[0x34, 0xAB]));
        chain.push_back(IoBuf::copy_from(&[0xCD, 0xEF, 0x01, 0x02, 0x03]));
        let mut cur = chain.cursor();
        assert_eq!(cur.read_u16_be(), Some(0x1234));
        assert_eq!(cur.read_u32_be(), Some(0xABCD_EF01));
        assert_eq!(cur.remaining(), 2);
        cur.skip(1).unwrap();
        assert_eq!(cur.read_u8(), Some(0x03));
        assert_eq!(cur.read_u8(), None);
    }

    #[test]
    fn cursor_read_exact_insufficient_consumes_nothing() {
        let chain = Chain::single(IoBuf::copy_from(b"ab"));
        let mut cur = chain.cursor();
        let mut buf = [0u8; 3];
        assert!(cur.read_exact(&mut buf).is_none());
        assert_eq!(cur.consumed(), 0);
        assert_eq!(cur.read_u16_be(), Some(u16::from_be_bytes(*b"ab")));
    }

    #[test]
    fn cursor_zero_copy_read_shares_storage() {
        let a = IoBuf::copy_from(b"abcde");
        let b = IoBuf::copy_from(b"fghij");
        let mut chain = Chain::new();
        chain.push_back(a.clone());
        chain.push_back(b.clone());
        let mut cur = chain.cursor();
        cur.skip(3).unwrap();
        let before = stats::bytes_copied();
        let body = cur.read_exact_zero_copy(5).expect("enough bytes");
        assert_eq!(stats::bytes_copied(), before, "no bytes may be copied");
        assert_eq!(body.len(), 5);
        assert_eq!(cur.remaining(), 2);
        // Spans both segments as sub-views of the original regions.
        assert_eq!(body.segment_count(), 2);
        assert_eq!(a.ref_count(), 3); // a + chain seg + body seg
        assert_eq!(b.ref_count(), 3);
        assert_eq!(body.copy_to_vec(), b"defgh");
        // Insufficient bytes: consume nothing.
        let mut cur2 = chain.cursor();
        assert!(cur2.read_exact_zero_copy(11).is_none());
        assert_eq!(cur2.consumed(), 0);
    }

    #[test]
    fn mut_chain_freezes_into_shared_chain() {
        let mut chain: Chain<MutIoBuf> = Chain::new();
        let mut a = MutIoBuf::with_headroom(8, 16);
        a.append_slice(b"data");
        a.prepend(2).copy_from_slice(b"h:");
        chain.push_back(a);
        let frozen: Chain<IoBuf> = chain.into();
        assert_eq!(frozen.copy_to_vec(), b"h:data");
    }

    #[test]
    fn for_payload_has_default_headroom() {
        let b = MutIoBuf::for_payload(b"x");
        assert_eq!(b.headroom(), MutIoBuf::DEFAULT_HEADROOM);
        assert_eq!(b.bytes(), b"x");
    }

    #[test]
    fn pooled_storage_recycles_on_last_drop() {
        // Drain any pool state left by other tests on this thread
        // (holding the buffers so they don't recycle straight back).
        let mut held = Vec::new();
        while pool::local_free() > 0 || pool::depot_free() > 0 {
            held.push(MutIoBuf::with_capacity(64));
        }
        let hits0 = stats::pool_hits();
        let returns0 = stats::pool_returns();
        let buf = MutIoBuf::with_capacity(64); // fresh: pool is empty
        assert!(buf.is_pooled());
        let frozen = buf.freeze();
        let clone = frozen.clone();
        drop(frozen);
        assert_eq!(
            stats::pool_returns(),
            returns0,
            "region must not recycle while a descriptor lives"
        );
        drop(clone);
        assert_eq!(stats::pool_returns(), returns0 + 1);
        assert_eq!(pool::local_free(), 1);
        // The next pool-sized request reuses the region: a hit, no alloc.
        let allocs0 = stats::bufs_allocated();
        let again = MutIoBuf::with_capacity(128);
        assert!(again.is_pooled());
        assert_eq!(stats::pool_hits(), hits0 + 1);
        assert_eq!(stats::bufs_allocated(), allocs0);
    }

    #[test]
    fn class_selection_boundaries() {
        use pool::SizeClass;
        assert_eq!(pool::class_for(0), Some(SizeClass::Small));
        assert_eq!(pool::class_for(1), Some(SizeClass::Small));
        assert_eq!(
            pool::class_for(pool::SMALL_CAPACITY),
            Some(SizeClass::Small)
        );
        assert_eq!(
            pool::class_for(pool::SMALL_CAPACITY + 1),
            Some(SizeClass::Large)
        );
        assert_eq!(
            pool::class_for(pool::LARGE_CAPACITY),
            Some(SizeClass::Large)
        );
        assert_eq!(pool::class_for(pool::LARGE_CAPACITY + 1), None);
    }

    // NOTE: pool/depot state is runtime-owned (the buffer-pool Ebb);
    // outside an entered runtime every test thread gets its own
    // private ambient context, so these tests need no cross-test
    // serialization — the old global `large_class_lock` mutex is gone.

    /// A private machine for pool tests that need real multi-core
    /// semantics.
    fn test_runtime(ncores: usize) -> Arc<crate::runtime::Runtime> {
        crate::runtime::Runtime::new(ncores, Arc::new(crate::clock::ManualClock::new()))
    }

    #[test]
    fn buffers_between_classes_use_large_pool() {
        // A request just past the small class is served by the large
        // class, with the requested logical capacity enforced.
        let b = MutIoBuf::with_capacity(pool::SMALL_CAPACITY + 1);
        assert_eq!(b.size_class(), Some(pool::SizeClass::Large));
        assert_eq!(b.capacity(), pool::SMALL_CAPACITY + 1);
        // Recycling goes back to the large class and is reused.
        let returns0 = stats::class_counters(pool::SizeClass::Large).returns;
        drop(b);
        assert_eq!(
            stats::class_counters(pool::SizeClass::Large).returns,
            returns0 + 1
        );
        let hits0 = stats::class_counters(pool::SizeClass::Large).hits;
        let again = MutIoBuf::with_capacity(32 * 1024);
        assert_eq!(again.size_class(), Some(pool::SizeClass::Large));
        assert_eq!(
            stats::class_counters(pool::SizeClass::Large).hits,
            hits0 + 1
        );
    }

    #[test]
    fn oversized_buffers_bypass_pool() {
        let over0 = stats::oversize_allocs();
        let b = MutIoBuf::with_capacity(pool::LARGE_CAPACITY + 1);
        assert!(!b.is_pooled());
        assert_eq!(b.size_class(), None);
        assert_eq!(b.capacity(), pool::LARGE_CAPACITY + 1);
        assert_eq!(stats::oversize_allocs(), over0 + 1);
    }

    #[test]
    fn depot_balances_between_cores() {
        use crate::cpu::CoreId;
        use crate::runtime;
        use pool::SizeClass;
        // Pool state is owned by this private runtime: no other test
        // can steal the flushed batch mid-assertion (the reason the
        // old global-pool design needed a serialization mutex).
        let rt = test_runtime(2);
        let class = SizeClass::Large;
        // Producer core 0: recycle past the high watermark, flushing a
        // batch to the depot.
        let after_flush = {
            let _g = runtime::enter(Arc::clone(&rt), CoreId(0));
            let before = stats::class_counters(class);
            pool::prewarm_class(class, class.high_watermark());
            // Take one (hit) and return it: the return crosses the
            // watermark and flushes a batch.
            drop(MutIoBuf::with_capacity(pool::LARGE_CAPACITY));
            let after_flush = stats::class_counters(class);
            assert_eq!(
                after_flush.depot_in - before.depot_in,
                class.batch() as u64,
                "crossing the watermark must flush one batch to the depot"
            );
            after_flush
        };
        // Consumer core 1: empty local list refills a batch from the
        // depot — cross-core migration, no fresh allocation.
        {
            let _g = runtime::enter(Arc::clone(&rt), CoreId(1));
            assert_eq!(pool::local_free_class(class), 0);
            let allocs0 = stats::bufs_allocated();
            let buf = MutIoBuf::with_capacity(pool::LARGE_CAPACITY);
            assert_eq!(buf.size_class(), Some(class));
            assert_eq!(stats::bufs_allocated(), allocs0, "refill, not alloc");
            // Migration is visible machine-wide: this core's depot_out
            // grew by one batch since the producer's flush.
            assert_eq!(stats::class_counters(class).depot_out, class.batch() as u64);
            assert_eq!(pool::local_free_class(class), class.batch() - 1);
            let _ = after_flush;
        }
    }

    #[test]
    fn idle_sweep_returns_mailbox_regions_to_depot() {
        use crate::cpu::CoreId;
        use crate::runtime;
        use pool::SizeClass;
        let home = test_runtime(1);
        let away = test_runtime(1);
        let class = SizeClass::Large;
        // More than one refill batch, so both halves of the sweep
        // policy are visible (local top-up + depot return).
        let n = class.batch() + 4;
        assert!(n >= class.sweep_low_water());
        // Allocate on the home machine (stamping the regions' home),
        // then free them all under the away machine: every region posts
        // back to home core 0's mailbox, crossing the sweep's low-water
        // mark.
        let bufs: Vec<IoBuf> = {
            let _g = runtime::enter(Arc::clone(&home), CoreId(0));
            (0..n)
                .map(|_| MutIoBuf::with_capacity(class.capacity()).freeze())
                .collect()
        };
        let home_root = home
            .ebbs()
            .root::<pool::PoolEbb>(crate::ebb::SystemEbb::BufferPool.id())
            .expect("home pool root");
        {
            let _g = runtime::enter(Arc::clone(&away), CoreId(0));
            drop(bufs);
        }
        assert_eq!(home_root.mailbox_len(class), n);
        assert_eq!(home_root.depot_len(class), 0);
        let base = stats::runtime_snapshot(&home);
        // The cross-machine frees armed a sweep: a synthetic event
        // queued on home core 0 registers the one-shot idle callback,
        // which runs at the idle stage of the next pass — without the
        // home machine ever allocating.
        {
            let _g = runtime::enter(Arc::clone(&home), CoreId(0));
            let em = home.event_manager(CoreId(0));
            em.drain(); // the arming event
            em.run_once(); // the idle stage: the sweep itself
            assert!(
                !em.has_idle_handlers(),
                "the sweep is one-shot: the core may halt again"
            );
        }
        assert_eq!(
            home_root.mailbox_len(class),
            0,
            "idle machine must not pin remote-freed regions in mailboxes"
        );
        let (local, depot) = pool::runtime_free_counts(&home, class);
        assert_eq!(
            local,
            class.batch(),
            "the home core keeps one cache-warm refill batch"
        );
        assert_eq!(
            depot,
            n - class.batch(),
            "the excess lands in the machine-wide depot"
        );
        let delta = stats::runtime_snapshot(&home).since(&base);
        assert_eq!(
            delta.class(class).depot_in,
            (n - class.batch()) as u64,
            "the depot half is counted as migration on the home machine"
        );
    }

    #[test]
    fn runtimes_keep_independent_pools_and_stats() {
        // The satellite regression test: two machines in one process
        // must not share pool state or counters — the property the old
        // `thread_local!` + `static DEPOTS` design could not provide.
        use crate::cpu::CoreId;
        use crate::runtime;
        let rt1 = test_runtime(1);
        let rt2 = test_runtime(1);
        {
            let _g = runtime::enter(Arc::clone(&rt1), CoreId(0));
            // Fresh machine: the first allocation is a counted
            // fallback; its drop recycles into rt1's core-0 list.
            drop(MutIoBuf::with_capacity(64));
            assert_eq!(pool::local_free(), 1);
        }
        let s1 = stats::runtime_snapshot(&rt1);
        assert_eq!(s1.bufs_allocated, 1);
        assert_eq!(s1.pool_returns, 1);
        // rt2 saw none of it — no reps even exist yet.
        let s2 = stats::runtime_snapshot(&rt2);
        assert_eq!(s2, stats::Snapshot::default());
        {
            let _g = runtime::enter(Arc::clone(&rt2), CoreId(0));
            // rt1's recycled region is invisible here: rt2 must
            // fresh-allocate, and its counters move independently.
            assert_eq!(pool::local_free(), 0);
            let allocs0 = stats::bufs_allocated();
            assert_eq!(allocs0, 0);
            let b = MutIoBuf::with_capacity(64);
            assert!(b.is_pooled());
            assert_eq!(stats::bufs_allocated(), 1);
        }
        // …and rt1's reading is unchanged by rt2's activity.
        assert_eq!(stats::runtime_snapshot(&rt1), s1);
    }

    #[test]
    fn pool_dispatch_works_from_events_and_harness_thread() {
        // The same module-level API resolves to the entered machine's
        // rep inside a runtime and to the thread's ambient context
        // outside one — allocation sites don't care where they run.
        use crate::cpu::CoreId;
        use crate::runtime;
        let ambient_free = pool::local_free();
        let rt = test_runtime(1);
        {
            let _g = runtime::enter(Arc::clone(&rt), CoreId(0));
            pool::prewarm(2);
            assert_eq!(pool::local_free(), 2);
        }
        // Back on the harness thread: the ambient context, untouched.
        assert_eq!(pool::local_free(), ambient_free);
    }

    #[test]
    fn flux_adaptive_watermark_halves_for_pure_consumers() {
        // Depot hysteresis: a core whose free list has only ever grown
        // since its last balance (it frees buffers other cores
        // allocate, never allocating itself) flushes at *half* the
        // high watermark, priming the depot pipeline after half the
        // parked population. A core with local demand keeps the full
        // watermark.
        use crate::cpu::CoreId;
        use crate::runtime;
        use pool::SizeClass;
        let rt = test_runtime(2);
        let class = SizeClass::Large;
        let wm = class.high_watermark();
        // Core 0 allocates wm/2 regions (local demand: fallbacks) and
        // frees them locally: half the watermark must NOT flush there.
        {
            let _g = runtime::enter(Arc::clone(&rt), CoreId(0));
            let bufs: Vec<MutIoBuf> = (0..wm / 2)
                .map(|_| MutIoBuf::with_capacity(pool::LARGE_CAPACITY))
                .collect();
            drop(bufs);
            assert_eq!(
                stats::class_counters(class).depot_in,
                0,
                "a core with local demand keeps the full watermark"
            );
            assert_eq!(pool::local_free_class(class), wm / 2);
        }
        // Core 0 re-acquires them (pool hits) and core 1 — a pure
        // consumer, zero local takes — frees them: the halved
        // watermark flushes a batch after wm/2 returns.
        let held: Vec<MutIoBuf> = {
            let _g = runtime::enter(Arc::clone(&rt), CoreId(0));
            (0..wm / 2)
                .map(|_| MutIoBuf::with_capacity(pool::LARGE_CAPACITY))
                .collect()
        };
        {
            let _g = runtime::enter(Arc::clone(&rt), CoreId(1));
            drop(held);
            assert_eq!(
                stats::class_counters(class).depot_in,
                class.batch() as u64,
                "a pure consumer must flush after wm/2 parked regions"
            );
        }
    }

    #[test]
    fn pinned_bytes_dedupes_shared_regions() {
        // Many MSS-like views of one large region pin it once.
        let mut big = MutIoBuf::with_capacity(20 * 1024);
        big.append(20 * 1024).fill(7);
        let frozen = big.freeze();
        let mut chain: Chain<IoBuf> = Chain::new();
        for i in 0..14 {
            chain.push_back(frozen.slice(i * 1460, 1460));
        }
        assert_eq!(chain.pinned_bytes(), frozen.region_len());
        // Distinct regions still accumulate.
        chain.push_back(IoBuf::copy_from(b"other"));
        assert_eq!(chain.pinned_bytes(), frozen.region_len() + 5);
    }

    #[test]
    fn pooled_capacity_is_logical() {
        // A pool-backed buffer enforces the requested capacity even
        // though the physical region is BUF_CAPACITY bytes.
        let mut b = MutIoBuf::with_headroom(10, 4);
        assert_eq!(b.capacity(), 14);
        assert_eq!(b.tailroom(), 10);
        b.append(10);
        assert_eq!(b.tailroom(), 0);
    }

    #[test]
    #[should_panic(expected = "exceeds tailroom")]
    fn pooled_append_respects_logical_capacity() {
        let mut b = MutIoBuf::with_capacity(8);
        b.append(9);
    }

    #[test]
    fn copy_counters_track_explicit_copies() {
        let before = stats::bytes_copied();
        let b = IoBuf::copy_from(b"12345");
        assert_eq!(stats::bytes_copied(), before + 5);
        let chain = Chain::single(b);
        let _ = chain.copy_to_vec();
        assert_eq!(stats::bytes_copied(), before + 10);
        let mut cur = chain.cursor();
        let _ = cur.read_vec(5);
        assert_eq!(stats::bytes_copied(), before + 15);
        // Descriptor moves are free.
        let clone = chain.clone();
        let mut c2 = clone.clone();
        let _ = c2.split_to(2);
        assert_eq!(stats::bytes_copied(), before + 15);
    }

    #[test]
    fn compact_releases_pinned_regions() {
        // Many 1-byte views over pool-sized regions: heavily pinned.
        let mut chain: Chain<IoBuf> = Chain::new();
        for i in 0..8u8 {
            let mut b = MutIoBuf::with_capacity(16);
            b.append(1)[0] = i;
            chain.push_back(b.freeze());
        }
        assert_eq!(chain.len(), 8);
        assert!(chain.pinned_bytes() >= 8 * pool::BUF_CAPACITY);
        chain.compact();
        assert_eq!(chain.len(), 8);
        assert_eq!(chain.segment_count(), 1);
        assert_eq!(chain.pinned_bytes(), 8);
        assert_eq!(chain.copy_to_vec(), &[0, 1, 2, 3, 4, 5, 6, 7]);
        // Already-exact chains are left untouched (no copy, no alloc).
        let before = stats::snapshot();
        chain.compact();
        assert_eq!(stats::snapshot(), before);
    }

    #[test]
    fn prewarm_fills_local_list() {
        let free0 = pool::local_free();
        pool::prewarm(4);
        assert_eq!(pool::local_free(), free0 + 4);
        // Use them up so other tests see a predictable pool.
        let bufs: Vec<MutIoBuf> = (0..4).map(|_| MutIoBuf::with_capacity(32)).collect();
        drop(bufs);
    }

    fn live_regions() -> isize {
        LIVE_REGIONS.with(std::cell::Cell::get)
    }

    #[test]
    fn last_drop_on_another_machine_lands_in_the_home_cores_mailbox() {
        use crate::runtime;
        use pool::SizeClass;
        let home = test_runtime(2);
        let away = test_runtime(1);
        // Acquired on home core 1: that is where it must come back to.
        let (buf, clone) = {
            let _g = runtime::enter(Arc::clone(&home), CoreId(1));
            let b = MutIoBuf::with_capacity(64).freeze();
            let c = b.clone();
            (b, c)
        };
        let home_root = home
            .ebbs()
            .root::<pool::PoolEbb>(crate::ebb::SystemEbb::BufferPool.id())
            .expect("home pool root");
        {
            let _g = runtime::enter(Arc::clone(&away), CoreId(0));
            drop(buf);
            assert_eq!(home_root.mailbox_len(SizeClass::Small), 0, "a clone lives");
            assert_eq!(stats::pool_returns(), 0);
            drop(clone);
            assert_eq!(stats::pool_returns(), 1, "counted where it was freed");
            assert_eq!(pool::local_free(), 0, "and never enters the freeing pool");
        }
        assert_eq!(home_root.mailbox_len(SizeClass::Small), 1);
        // Core 0 of the home machine does not see it; core 1's next dry
        // acquire drains its own mailbox instead of allocating.
        {
            let _g = runtime::enter(Arc::clone(&home), CoreId(0));
            assert_eq!(pool::local_free(), 0);
        }
        let _g = runtime::enter(Arc::clone(&home), CoreId(1));
        let allocs0 = stats::bufs_allocated();
        let again = MutIoBuf::with_capacity(64);
        assert_eq!(stats::bufs_allocated(), allocs0);
        assert_eq!(stats::class_counters(SizeClass::Small).depot_out, 1);
        assert_eq!(home_root.mailbox_len(SizeClass::Small), 0);
        drop(again);
    }

    #[test]
    fn a_region_that_outlives_its_home_pool_is_freed() {
        use crate::runtime;
        let live0 = live_regions();
        let home = test_runtime(1);
        let away = test_runtime(1);
        let buf = {
            let _g = runtime::enter(Arc::clone(&home), CoreId(0));
            let mut keep = MutIoBuf::with_capacity(64);
            keep.append_slice(b"live");
            let keep = keep.freeze();
            // A second region, parked on the home list when the pool
            // goes: the list frees it.
            drop(MutIoBuf::with_capacity(64));
            keep
        };
        assert_eq!(live_regions(), live0 + 2);
        let home_root = Arc::downgrade(
            &home
                .ebbs()
                .root::<pool::PoolEbb>(crate::ebb::SystemEbb::BufferPool.id())
                .expect("home pool root"),
        );
        drop(home);
        assert!(
            home_root.upgrade().is_none(),
            "regions hold the pool weakly"
        );
        assert_eq!(live_regions(), live0 + 1, "the parked region went with it");
        assert_eq!(buf.bytes(), b"live", "the live one is still readable");
        let _g = runtime::enter(Arc::clone(&away), CoreId(0));
        drop(buf);
        assert_eq!(live_regions(), live0, "freed, not leaked or mailed nowhere");
        assert_eq!(pool::local_free(), 0, "and not adopted by the freeing pool");
        assert_eq!(stats::snapshot().class(pool::SizeClass::Small).depot_in, 0);
    }

    #[test]
    fn a_slice_of_a_slice_holds_one_reference_each() {
        let returns0 = stats::pool_returns();
        let mut b = MutIoBuf::with_capacity(16);
        b.append_slice(b"0123456789abcdef");
        let whole = b.freeze();
        let mid = whole.slice(4, 8);
        let inner = mid.slice(2, 4);
        assert_eq!(whole.ref_count(), 3);
        assert_eq!(inner.bytes(), b"6789");
        drop(mid);
        assert_eq!(
            whole.ref_count(),
            2,
            "the inner slice does not lean on the outer"
        );
        drop(whole);
        assert_eq!(inner.ref_count(), 1);
        assert_eq!(inner.bytes(), b"6789");
        assert_eq!(inner.region_len(), pool::SMALL_CAPACITY);
        assert_eq!(stats::pool_returns(), returns0);
        drop(inner);
        assert_eq!(stats::pool_returns(), returns0 + 1);
    }

    #[test]
    fn wrapped_and_oversize_regions_never_enter_a_pool() {
        use pool::SizeClass;
        let live0 = live_regions();
        let free0 = SizeClass::ALL.map(pool::local_free_class);
        let returns0 = stats::pool_returns();
        let wrapped = MutIoBuf::from_vec(vec![7u8; pool::SMALL_CAPACITY]).freeze();
        let copied = IoBuf::copy_from(&[7u8; 100]);
        let oversize = MutIoBuf::with_capacity(pool::LARGE_CAPACITY + 1).freeze();
        let empty = IoBuf::empty();
        assert_eq!(
            wrapped.region_len(),
            pool::SMALL_CAPACITY,
            "pool-sized, not pooled"
        );
        assert_eq!(copied.region_len(), 100);
        assert_eq!(oversize.region_len(), pool::LARGE_CAPACITY + 1);
        assert_eq!(
            (empty.len(), empty.region_len(), empty.ref_count()),
            (0, 0, 1)
        );
        assert_eq!(live_regions(), live0 + 4);
        drop((wrapped, copied, oversize, empty));
        assert_eq!(live_regions(), live0, "freed on last drop");
        assert_eq!(SizeClass::ALL.map(pool::local_free_class), free0);
        assert_eq!(stats::pool_returns(), returns0);
    }

    /// A chain over `pattern`, cut at `cuts` (ascending offsets).
    fn cut_chain(pattern: &IoBuf, cuts: &[usize]) -> Chain<IoBuf> {
        let mut chain = Chain::new();
        let mut from = 0;
        for &to in cuts.iter().chain([&pattern.len()]) {
            chain.push_back(pattern.slice(from, to - from));
            from = to;
        }
        chain
    }

    /// Every kind of read, from `offset` on; what each returned.
    fn read_script(chain: &Chain<IoBuf>, offset: usize) -> Vec<Option<u64>> {
        let mut out = Vec::new();
        let mut cur = chain.cursor();
        out.push(cur.skip(offset).map(|()| 0));
        out.push(cur.read_u64_be());
        out.push(cur.read_u8().map(u64::from));
        out.push(cur.read_u32_be().map(u64::from));
        out.push(cur.read_u16_be().map(u64::from));
        let mut odd = [0u8; 5];
        out.push(
            cur.read_exact(&mut odd)
                .map(|()| odd.iter().fold(0, |acc, &b| acc << 8 | u64::from(b))),
        );
        out.push(cur.skip(3).map(|()| 0));
        out.push(cur.read_u32_be().map(u64::from));
        out.push(Some(cur.consumed() as u64));
        out.push(Some(cur.remaining() as u64));
        out
    }

    #[test]
    fn straddling_reads_equal_the_one_segment_result() {
        let pattern: Vec<u8> = (0..64u8).map(|i| i.wrapping_mul(37) ^ 0xa5).collect();
        let pattern = IoBuf::copy_from(&pattern);
        let one = Chain::single(pattern.clone());
        // Miri walks a sample of the offsets; the native run, all.
        let step = if cfg!(miri) { 7 } else { 1 };
        for offset in (0..=64).step_by(step) {
            let want = read_script(&one, offset);
            for a in (1..64).step_by(step) {
                assert_eq!(
                    read_script(&cut_chain(&pattern, &[a]), offset),
                    want,
                    "cut at {a}, offset {offset}"
                );
                // A middle segment narrower than the widest read: the
                // read spans all three.
                for width in 0..8 {
                    let b = (a + width).min(64);
                    assert_eq!(
                        read_script(&cut_chain(&pattern, &[a, b]), offset),
                        want,
                        "cuts at {a} and {b}, offset {offset}"
                    );
                }
            }
        }
        // The zero-copy carve crosses the same boundaries.
        let three = cut_chain(&pattern, &[10, 13]);
        let mut cur = three.cursor();
        cur.skip(9).unwrap();
        let carved = cur.read_exact_zero_copy(10).expect("enough bytes");
        assert_eq!(carved.segment_count(), 3);
        assert_eq!(carved.copy_to_vec(), pattern.bytes()[9..19]);
        assert_eq!(cur.read_u8(), Some(pattern.bytes()[19]));
    }

    #[test]
    fn chain_matches_a_deque_model() {
        use std::collections::VecDeque;
        let base: Vec<u8> = (0..=255u8).collect();
        let base = IoBuf::copy_from(&base);
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut rng = move |n: usize| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 11) as usize % n
        };
        let seg = |rng: &mut dyn FnMut(usize) -> usize| {
            let start = rng(240);
            base.slice(start, 1 + rng(15))
        };
        let mut chain: Chain<IoBuf> = Chain::new();
        let mut model: VecDeque<Vec<u8>> = VecDeque::new();
        let model_len = |m: &VecDeque<Vec<u8>>| m.iter().map(Vec::len).sum::<usize>();
        // Drops `n` bytes off the model's front, as `advance` does.
        let model_advance = |m: &mut VecDeque<Vec<u8>>, mut n: usize| {
            while n > 0 {
                let first = m.front_mut().expect("n <= len");
                if n >= first.len() {
                    n -= first.len();
                    m.pop_front();
                } else {
                    first.drain(..n);
                    n = 0;
                }
            }
        };
        let (mut max_segs, mut returns_to_inline) = (0, 0);
        let ops = if cfg!(miri) { 400 } else { 20_000 };
        for i in 0..ops {
            // Alternate growing and draining phases so the chain
            // crosses the inline capacity in both directions.
            let growing = (i / 40) % 2 == 0;
            let before = chain.segment_count();
            match (rng(10), growing) {
                (0..=3, true) | (0, false) => {
                    let s = seg(&mut rng);
                    model.push_back(s.bytes().to_vec());
                    chain.push_back(s);
                }
                (4..=5, true) | (1, false) => {
                    let s = seg(&mut rng);
                    model.push_front(s.bytes().to_vec());
                    chain.push_front(s);
                }
                (6, true) | (2, false) => {
                    let mut other = Chain::new();
                    for _ in 0..rng(7) {
                        let s = seg(&mut rng);
                        model.push_back(s.bytes().to_vec());
                        other.push_back(s);
                    }
                    chain.append_chain(other);
                }
                (7, _) => {
                    let copy = chain.clone();
                    assert_eq!(copy.len(), chain.len());
                    assert!(copy.iter().map(Buf::bytes).eq(chain.iter().map(Buf::bytes)));
                    if rng(2) == 0 {
                        chain = copy; // the original drops
                    }
                }
                (8, true) | (3..=6, false) => {
                    let n = rng(chain.len() + 1);
                    chain.advance(n);
                    model_advance(&mut model, n);
                }
                _ => {
                    let n = rng(chain.len() + 1);
                    let head = chain.split_to(n);
                    let want: Vec<u8> = model.iter().flatten().take(n).copied().collect();
                    assert_eq!(head.len(), n);
                    assert_eq!(head.copy_to_vec(), want);
                    model_advance(&mut model, n);
                }
            }
            assert_eq!(chain.len(), model_len(&model));
            assert_eq!(chain.is_empty(), model_len(&model) == 0);
            assert_eq!(chain.segment_count(), model.len());
            assert!(chain
                .iter()
                .map(Buf::bytes)
                .eq(model.iter().map(Vec::as_slice)));
            if let Some(last) = model.len().checked_sub(1) {
                assert_eq!(chain.seg(last).bytes(), model[last]);
            }
            max_segs = max_segs.max(chain.segment_count());
            if before > INLINE_SEGS && chain.segment_count() <= INLINE_SEGS {
                returns_to_inline += 1;
            }
        }
        assert!(
            max_segs > 2 * INLINE_SEGS,
            "the walk must leave the inline slots"
        );
        assert!(returns_to_inline > 2, "and come back");
        drop(chain);
        assert_eq!(base.ref_count(), 1, "every segment dropped exactly once");
    }

    #[test]
    fn a_chain_keeps_the_heap_slots_it_grew() {
        let seg = IoBuf::copy_from(b"x");
        let mut chain: Chain<IoBuf> = Chain::new();
        assert!(!chain.spilled());
        assert!(
            std::mem::size_of::<Chain<IoBuf>>() <= 128,
            "moves stay inline stores"
        );
        for _ in 0..INLINE_SEGS + 1 {
            chain.push_back(seg.clone());
        }
        assert!(chain.spilled());
        let cap = chain.cap;
        // Queue traffic under the grown capacity reuses the slots.
        for _ in 0..10 * cap {
            chain.push_back(seg.clone());
            chain.advance(1);
        }
        chain.advance(chain.len());
        assert_eq!((chain.cap, chain.segment_count()), (cap, 0));
        // An emptied chain takes over a grown one rather than copying.
        let mut fresh: Chain<IoBuf> = Chain::new();
        fresh.append_chain(std::mem::take(&mut chain));
        assert_eq!(fresh.cap, cap);
        drop(fresh);
        assert_eq!(seg.ref_count(), 1);
    }
}
