//! The general-purpose allocator Ebb — EbbRT's `malloc` (§3.4).
//!
//! Composed of many slab allocators, one per size class; a request is
//! routed to the smallest class that fits. Allocations beyond the
//! largest class take the large path: a block straight from the page
//! allocator (the paper's "allocate a virtual memory region and map in
//! pages"). Because the class table is static and `EbbRef` dispatch is
//! static, a call with a compile-time-known size collapses to the right
//! slab's free-list pop — the inlining behaviour the paper observed in
//! its C++ implementation.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use ebbrt_core::cpu::CoreId;
use ebbrt_core::ebb::{EbbRef, MulticoreEbb};

use crate::buddy::{order_bytes, order_for_bytes};
use crate::page::{PageAllocator, PageAllocatorRoot};
use crate::slab::{SlabAllocator, SlabRoot};
use crate::{Addr, MallocLike, Topology};

/// The size classes served by slabs; larger requests take the page
/// (large) path. Mirrors the paper's "many slab allocators, each
/// allocating objects of different sizes".
pub const SIZE_CLASSES: &[usize] = &[8, 16, 32, 64, 96, 128, 192, 256, 512, 1024, 2048];

/// Shared state of the general-purpose allocator.
pub struct GpRoot {
    classes: Vec<(usize, EbbRef<SlabAllocator>)>,
    page_allocator: EbbRef<PageAllocator>,
    /// Live large allocations: address → order (the "virtual memory
    /// region" bookkeeping).
    large: Mutex<HashMap<Addr, u32>>,
}

impl GpRoot {
    /// Builds the root given already-created slab Ebbs (see [`setup`]).
    pub fn new(
        classes: Vec<(usize, EbbRef<SlabAllocator>)>,
        page_allocator: EbbRef<PageAllocator>,
    ) -> Self {
        GpRoot {
            classes,
            page_allocator,
            large: Mutex::new(HashMap::new()),
        }
    }

    /// Number of live large allocations.
    pub fn large_count(&self) -> usize {
        ebbrt_core::lock(&self.large).len()
    }
}

/// Per-core representative of the general-purpose allocator.
pub struct GpAllocator {
    root: Arc<GpRoot>,
}

impl MulticoreEbb for GpAllocator {
    type Root = GpRoot;

    fn create_rep(root: &Arc<GpRoot>, _core: CoreId) -> Self {
        GpAllocator {
            root: Arc::clone(root),
        }
    }
}

impl GpAllocator {
    /// Allocates `size` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero or backing memory is exhausted.
    pub fn alloc(&self, size: usize) -> Addr {
        assert!(size > 0, "zero-size allocation");
        match self.class_index(size) {
            Some(i) => self.root.classes[i].1.with(|s| s.alloc()),
            None => self.alloc_large(size),
        }
    }

    /// Frees `addr` previously allocated with `size`.
    pub fn free(&self, addr: Addr, size: usize) {
        match self.class_index(size) {
            Some(i) => self.root.classes[i].1.with(|s| s.free(addr)),
            None => self.free_large(addr),
        }
    }

    /// The size class index that serves `size`, or `None` for the large
    /// path.
    #[inline]
    fn class_index(&self, size: usize) -> Option<usize> {
        // The table is tiny; a linear scan beats binary search and lets
        // the compiler unroll when `size` is a constant.
        self.root
            .classes
            .iter()
            .position(|(class_size, _)| size <= *class_size)
    }

    /// The rounded-up allocation size actually used for `size`.
    pub fn usable_size(&self, size: usize) -> usize {
        match self.class_index(size) {
            Some(i) => self.root.classes[i].0,
            None => order_bytes(order_for_bytes(size)),
        }
    }

    /// The shared root.
    pub fn root(&self) -> &Arc<GpRoot> {
        &self.root
    }

    #[cold]
    fn alloc_large(&self, size: usize) -> Addr {
        let order = order_for_bytes(size);
        let addr = self
            .root
            .page_allocator
            .with(|p| p.alloc(order))
            .expect("page allocator exhausted on large allocation");
        ebbrt_core::lock(&self.root.large).insert(addr, order);
        addr
    }

    #[cold]
    fn free_large(&self, addr: Addr) {
        let order = ebbrt_core::lock(&self.root.large)
            .remove(&addr)
            .expect("large free of unknown address");
        self.root.page_allocator.with(|p| p.free(addr, order));
    }
}

/// Creates the full allocator stack in the current runtime: page
/// allocator Ebb, one slab Ebb per size class, and the general-purpose
/// Ebb on top. Returns the `malloc` handle.
///
/// `region_order` sets each NUMA node's memory size
/// (`PAGE_SIZE << region_order` bytes per node).
pub fn setup(topology: Topology, region_order: u32) -> EbbRef<GpAllocator> {
    let page = EbbRef::<PageAllocator>::create(PageAllocatorRoot::new(topology, region_order));
    let classes = SIZE_CLASSES
        .iter()
        .map(|&size| {
            (
                size,
                EbbRef::<SlabAllocator>::create(SlabRoot::new(size, page)),
            )
        })
        .collect();
    EbbRef::<GpAllocator>::create(GpRoot::new(classes, page))
}

/// [`MallocLike`] adapter so the Figure 3 harness can drive the EbbRT
/// allocator alongside the baseline models. The calling thread must have
/// entered the runtime.
pub struct EbbrtMalloc {
    gp: EbbRef<GpAllocator>,
}

impl EbbrtMalloc {
    /// Wraps a general-purpose allocator Ebb.
    pub fn new(gp: EbbRef<GpAllocator>) -> Self {
        EbbrtMalloc { gp }
    }

    /// The wrapped Ebb.
    pub fn ebb(&self) -> EbbRef<GpAllocator> {
        self.gp
    }
}

impl MallocLike for EbbrtMalloc {
    fn alloc(&self, size: usize) -> Addr {
        self.gp.with(|g| g.alloc(size))
    }

    fn free(&self, addr: Addr, size: usize) {
        self.gp.with(|g| g.free(addr, size));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebbrt_core::clock::ManualClock;
    use ebbrt_core::runtime::{self, Runtime};
    use std::collections::HashSet;

    fn with_gp<R>(f: impl FnOnce(EbbRef<GpAllocator>) -> R) -> R {
        let rt = Runtime::new(1, Arc::new(ManualClock::new()));
        let _g = runtime::enter(rt, CoreId(0));
        let gp = setup(Topology::flat(1), 12);
        f(gp)
    }

    #[test]
    fn routes_to_correct_class() {
        with_gp(|gp| {
            assert_eq!(gp.with(|g| g.usable_size(1)), 8);
            assert_eq!(gp.with(|g| g.usable_size(8)), 8);
            assert_eq!(gp.with(|g| g.usable_size(9)), 16);
            assert_eq!(gp.with(|g| g.usable_size(100)), 128);
            assert_eq!(gp.with(|g| g.usable_size(2048)), 2048);
        });
    }

    #[test]
    fn large_path_roundtrip() {
        with_gp(|gp| {
            let a = gp.with(|g| g.alloc(100_000));
            assert_eq!(gp.with(|g| g.root().large_count()), 1);
            gp.with(|g| g.free(a, 100_000));
            assert_eq!(gp.with(|g| g.root().large_count()), 0);
        });
    }

    #[test]
    fn mixed_sizes_disjoint() {
        with_gp(|gp| {
            let mut live: Vec<(Addr, usize)> = Vec::new();
            let mut seen = HashSet::new();
            for i in 0..500 {
                let size = [7, 16, 33, 100, 500, 2000, 5000][i % 7];
                let a = gp.with(|g| g.alloc(size));
                assert!(seen.insert(a), "address reuse while live: {a:#x}");
                live.push((a, size));
            }
            // Ranges must not overlap (check via sorted usable extents).
            let mut extents: Vec<(Addr, usize)> = live
                .iter()
                .map(|&(a, s)| (a, gp.with(|g| g.usable_size(s))))
                .collect();
            extents.sort();
            for w in extents.windows(2) {
                assert!(w[0].0 + w[0].1 <= w[1].0, "allocations overlap");
            }
            for (a, s) in live {
                gp.with(|g| g.free(a, s));
            }
        });
    }

    #[test]
    fn malloc_like_adapter() {
        with_gp(|gp| {
            let m = EbbrtMalloc::new(gp);
            let a = m.alloc(8);
            let b = m.alloc(8);
            assert_ne!(a, b);
            m.free(a, 8);
            m.free(b, 8);
        });
    }

    #[test]
    #[should_panic(expected = "zero-size")]
    fn zero_size_panics() {
        with_gp(|gp| {
            gp.with(|g| g.alloc(0));
        });
    }

    #[test]
    #[should_panic(expected = "unknown address")]
    fn bogus_large_free_panics() {
        with_gp(|gp| {
            gp.with(|g| g.free(0xdead000, 1 << 20));
        });
    }
}
