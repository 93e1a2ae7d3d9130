//! Slab allocators: fixed-size object caches over the page allocator,
//! based on Linux's SLQB design as the paper states (§3.4).
//!
//! Each slab instance serves one object size. The per-core
//! representative keeps its free objects in an [`ObjCache`], accessed
//! **without any synchronization** — not even atomics — which is sound
//! because events are non-preemptive and reps are never shared across
//! cores. When the
//! local list runs dry the cache pulls a batch from the shared *depot*
//! (behind a mutex, touched rarely); when it overflows, it pushes a batch
//! back. Fresh memory comes from the page allocator Ebb, carved into
//! objects. Because the number of cores is static, this balancing is
//! far simpler than the dynamic per-thread schemes of TCMalloc and
//! jemalloc — exactly the contrast the paper draws.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use ebbrt_core::cache::{Depot, ObjCache};
use ebbrt_core::cpu::CoreId;
use ebbrt_core::ebb::{EbbRef, MulticoreEbb};

use crate::buddy::order_bytes;
use crate::page::PageAllocator;
use crate::Addr;

/// How many objects move between a rep and the depot at once.
pub const BATCH: usize = 64;

/// Local free-list length that triggers a flush to the depot.
pub const HIGH_WATERMARK: usize = 2 * BATCH;

/// Shared state of one slab allocator instance.
pub struct SlabRoot {
    obj_size: usize,
    /// Order of the page blocks carved into objects.
    slab_order: u32,
    page_allocator: EbbRef<PageAllocator>,
    depot: Depot<Addr>,
    /// Total objects carved out of pages so far (diagnostic).
    carved: AtomicUsize,
    /// Pages requested from the page allocator (diagnostic).
    pages_allocated: AtomicUsize,
}

impl SlabRoot {
    /// Creates the shared state for objects of `obj_size` bytes, backed
    /// by `page_allocator`.
    ///
    /// # Panics
    ///
    /// Panics if `obj_size` is zero.
    pub fn new(obj_size: usize, page_allocator: EbbRef<PageAllocator>) -> Self {
        assert!(obj_size > 0, "slab object size must be positive");
        // Pick a block order giving at least 32 objects per block (one
        // page minimum).
        let mut slab_order = 0;
        while order_bytes(slab_order) / obj_size < 32 && slab_order < crate::MAX_ORDER {
            slab_order += 1;
        }
        SlabRoot {
            obj_size,
            slab_order,
            page_allocator,
            depot: Depot::default(),
            carved: AtomicUsize::new(0),
            pages_allocated: AtomicUsize::new(0),
        }
    }

    /// The object size served by this slab.
    pub fn obj_size(&self) -> usize {
        self.obj_size
    }

    /// Objects carved from pages so far.
    pub fn carved(&self) -> usize {
        self.carved.load(Ordering::Relaxed)
    }

    /// Page-allocator requests made so far.
    pub fn pages_allocated(&self) -> usize {
        self.pages_allocated.load(Ordering::Relaxed)
    }

    /// Objects currently parked in the depot.
    pub fn depot_len(&self) -> usize {
        self.depot.len()
    }
}

/// Per-core slab representative. All fast-path state lives here, in
/// plain (non-atomic) cells.
pub struct SlabAllocator {
    root: Arc<SlabRoot>,
    free: ObjCache<Addr>,
    /// Fast-path statistics (plain cells: single-core access).
    allocs: Cell<u64>,
    frees: Cell<u64>,
    depot_trips: Cell<u64>,
}

impl MulticoreEbb for SlabAllocator {
    type Root = SlabRoot;

    fn create_rep(root: &Arc<SlabRoot>, _core: CoreId) -> Self {
        SlabAllocator {
            root: Arc::clone(root),
            free: ObjCache::new(HIGH_WATERMARK, BATCH, HIGH_WATERMARK + BATCH),
            allocs: Cell::new(0),
            frees: Cell::new(0),
            depot_trips: Cell::new(0),
        }
    }
}

impl SlabAllocator {
    /// Allocates one object: the core's cache, then a batch from the
    /// depot, then a freshly carved block.
    ///
    /// # Panics
    ///
    /// Panics when the page allocator is exhausted (and pressure
    /// handlers released nothing).
    pub fn alloc(&self) -> Addr {
        self.allocs.set(self.allocs.get() + 1);
        let taken = self.free.take(&self.root.depot, |_| {});
        if !matches!(taken, Some((_, 0))) {
            // A dry list: refilled from the depot or carved.
            self.depot_trips.set(self.depot_trips.get() + 1);
        }
        taken.map_or_else(|| self.carve(), |(a, _)| a)
    }

    /// Frees one object.
    pub fn free(&self, addr: Addr) {
        self.frees.set(self.frees.get() + 1);
        if self.free.give(addr, &self.root.depot) > 0 {
            self.depot_trips.set(self.depot_trips.get() + 1);
        }
    }

    /// (allocs, frees, depot trips) on this core.
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.allocs.get(), self.frees.get(), self.depot_trips.get())
    }

    /// The shared root.
    pub fn root(&self) -> &Arc<SlabRoot> {
        &self.root
    }

    /// Local free-list length (diagnostic).
    pub fn local_free(&self) -> usize {
        self.free.len()
    }

    /// The miss path: carves a fresh block from the page allocator,
    /// stocks the cache with all of it but the last object, and
    /// returns that one.
    #[cold]
    fn carve(&self) -> Addr {
        let order = self.root.slab_order;
        let block = self
            .root
            .page_allocator
            .with(|p| p.alloc(order))
            .expect("page allocator exhausted while refilling slab");
        self.root.pages_allocated.fetch_add(1, Ordering::Relaxed);
        let size = self.root.obj_size;
        let count = order_bytes(order) / size;
        self.root.carved.fetch_add(count, Ordering::Relaxed);
        self.free.stock((0..count - 1).map(|i| block + i * size));
        block + (count - 1) * size
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::{PageAllocator, PageAllocatorRoot};
    use crate::Topology;
    use ebbrt_core::clock::ManualClock;
    use ebbrt_core::runtime::{self, Runtime};
    use std::collections::HashSet;

    fn setup(ncores: usize) -> (Arc<Runtime>, EbbRef<PageAllocator>) {
        let rt = Runtime::new(ncores, Arc::new(ManualClock::new()));
        let g = runtime::enter(Arc::clone(&rt), CoreId(0));
        let pa = EbbRef::<PageAllocator>::create(PageAllocatorRoot::new(
            Topology::flat(ncores),
            10, // 1024 pages
        ));
        drop(g);
        (rt, pa)
    }

    #[test]
    fn objects_are_disjoint_and_sized() {
        let (rt, pa) = setup(1);
        let _g = runtime::enter(rt, CoreId(0));
        let slab = EbbRef::<SlabAllocator>::create(SlabRoot::new(48, pa));
        let mut seen = HashSet::new();
        let addrs: Vec<Addr> = (0..1000).map(|_| slab.with(|s| s.alloc())).collect();
        for &a in &addrs {
            assert!(seen.insert(a), "duplicate live allocation {a:#x}");
        }
        // No two objects closer than obj_size.
        let mut sorted = addrs.clone();
        sorted.sort();
        for w in sorted.windows(2) {
            assert!(w[1] - w[0] >= 48, "objects overlap");
        }
        for a in addrs {
            slab.with(|s| s.free(a));
        }
    }

    #[test]
    fn freed_objects_are_reused() {
        let (rt, pa) = setup(1);
        let _g = runtime::enter(rt, CoreId(0));
        let slab = EbbRef::<SlabAllocator>::create(SlabRoot::new(8, pa));
        let a = slab.with(|s| s.alloc());
        slab.with(|s| s.free(a));
        let b = slab.with(|s| s.alloc());
        assert_eq!(a, b, "LIFO reuse expected on the fast path");
        // No extra pages were consumed by the reuse.
        assert_eq!(slab.with(|s| s.root().pages_allocated()), 1);
    }

    #[test]
    fn overflow_flushes_to_depot_and_other_core_refills() {
        let (rt, pa) = setup(2);
        let root_ref;
        {
            let _g = runtime::enter(Arc::clone(&rt), CoreId(0));
            let slab = EbbRef::<SlabAllocator>::create(SlabRoot::new(16, pa));
            root_ref = slab;
            // Allocate then free enough to cross the high watermark.
            let addrs: Vec<Addr> = (0..HIGH_WATERMARK + 8)
                .map(|_| slab.with(|s| s.alloc()))
                .collect();
            for a in addrs {
                slab.with(|s| s.free(a));
            }
            assert!(slab.with(|s| s.root().depot_len()) >= BATCH);
        }
        {
            // Core 1's fresh rep must refill from the depot, not the
            // page allocator.
            let _g = runtime::enter(rt, CoreId(1));
            let pages_before = root_ref.with(|s| s.root().pages_allocated());
            let _a = root_ref.with(|s| s.alloc());
            let pages_after = root_ref.with(|s| s.root().pages_allocated());
            assert_eq!(pages_before, pages_after, "depot should satisfy the refill");
        }
    }

    #[test]
    fn per_core_stats_are_independent() {
        let (rt, pa) = setup(2);
        let slab;
        {
            let _g = runtime::enter(Arc::clone(&rt), CoreId(0));
            slab = EbbRef::<SlabAllocator>::create(SlabRoot::new(32, pa));
            for _ in 0..10 {
                let a = slab.with(|s| s.alloc());
                slab.with(|s| s.free(a));
            }
            assert_eq!(slab.with(|s| s.stats().0), 10);
        }
        {
            let _g = runtime::enter(rt, CoreId(1));
            assert_eq!(slab.with(|s| s.stats().0), 0, "fresh rep, fresh stats");
        }
    }
}
