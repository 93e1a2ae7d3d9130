//! Application-managed virtual memory regions (§3.4).
//!
//! "Applications can allocate virtual regions and provide their own page
//! fault handler which is invoked on faults to that region. This allows
//! applications to implement arbitrary paging policies."
//!
//! This module models that facility at the bookkeeping level: a region
//! is a span of virtual address space with a per-page *mapped* bit and a
//! fault handler. Touching an unmapped page invokes the handler (which
//! typically maps it, e.g. by allocating backing pages) and counts a
//! fault. The managed-runtime experiment (Figure 7) uses this to model
//! the paper's observation that "EbbRT aggressively maps in memory
//! allocated by V8 and therefore suffers no page faults" while Linux
//! demand-pages.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::{Addr, PAGE_SHIFT, PAGE_SIZE};

/// Outcome of a touch.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Touch {
    /// The page was already mapped: no fault.
    Mapped,
    /// The page faulted; the fault handler ran and mapped it.
    Faulted,
}

/// A fault handler: receives the faulting page index within the region;
/// returns whether the fault could be satisfied.
pub type FaultHandler = Box<dyn Fn(usize) -> bool + Send + Sync>;

struct Region {
    base: Addr,
    pages: usize,
    mapped: Vec<bool>,
    handler: FaultHandler,
}

/// Handle to an allocated virtual region.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RegionHandle(usize);

/// The per-machine virtual region manager.
pub struct VirtualMemory {
    regions: Mutex<Vec<Region>>,
    next_base: Mutex<Addr>,
    faults: AtomicU64,
}

impl VirtualMemory {
    /// Base of the virtual range handed to applications (clear of the
    /// identity-mapped physical range).
    pub const APP_VA_BASE: Addr = 1 << 46;

    /// Creates an empty manager.
    pub fn new() -> Arc<Self> {
        Arc::new(VirtualMemory {
            regions: Mutex::new(Vec::new()),
            next_base: Mutex::new(Self::APP_VA_BASE),
            faults: AtomicU64::new(0),
        })
    }

    /// Allocates a `len`-byte region (rounded up to pages) with `handler`
    /// invoked on faults.
    pub fn allocate_region(&self, len: usize, handler: FaultHandler) -> RegionHandle {
        let pages = len.div_ceil(PAGE_SIZE).max(1);
        let mut base = ebbrt_core::lock(&self.next_base);
        let region_base = *base;
        *base += pages * PAGE_SIZE;
        drop(base);
        let mut regions = ebbrt_core::lock(&self.regions);
        regions.push(Region {
            base: region_base,
            pages,
            mapped: vec![false; pages],
            handler,
        });
        RegionHandle(regions.len() - 1)
    }

    /// Base address of `region`.
    pub fn base(&self, region: RegionHandle) -> Addr {
        ebbrt_core::lock(&self.regions)[region.0].base
    }

    /// Size of `region` in pages.
    pub fn pages(&self, region: RegionHandle) -> usize {
        ebbrt_core::lock(&self.regions)[region.0].pages
    }

    /// Accesses the page containing `addr`; faults if unmapped.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside the region, or if the fault handler
    /// declines the fault (an unhandled page fault — fatal on real
    /// hardware too).
    pub fn touch(&self, region: RegionHandle, addr: Addr) -> Touch {
        let mut regions = ebbrt_core::lock(&self.regions);
        let r = &mut regions[region.0];
        assert!(
            addr >= r.base && addr < r.base + r.pages * PAGE_SIZE,
            "touch of {addr:#x} outside region"
        );
        let page = (addr - r.base) >> PAGE_SHIFT;
        if r.mapped[page] {
            return Touch::Mapped;
        }
        let handled = (r.handler)(page);
        assert!(handled, "unhandled page fault at page {page}");
        r.mapped[page] = true;
        self.faults.fetch_add(1, Ordering::Relaxed);
        Touch::Faulted
    }

    /// Pre-maps `count` pages starting at `first_page` without faulting
    /// (EbbRT's aggressive mapping policy).
    pub fn map_range(&self, region: RegionHandle, first_page: usize, count: usize) {
        let mut regions = ebbrt_core::lock(&self.regions);
        let r = &mut regions[region.0];
        for p in first_page..(first_page + count).min(r.pages) {
            r.mapped[p] = true;
        }
    }

    /// Unmaps `count` pages starting at `first_page` (subsequent touches
    /// fault again).
    pub fn unmap_range(&self, region: RegionHandle, first_page: usize, count: usize) {
        let mut regions = ebbrt_core::lock(&self.regions);
        let r = &mut regions[region.0];
        for p in first_page..(first_page + count).min(r.pages) {
            r.mapped[p] = false;
        }
    }

    /// Total faults taken across all regions.
    pub fn fault_count(&self) -> u64 {
        self.faults.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn fault_once_then_mapped() {
        let vm = VirtualMemory::new();
        let calls = Arc::new(AtomicUsize::new(0));
        let c2 = Arc::clone(&calls);
        let r = vm.allocate_region(
            3 * PAGE_SIZE,
            Box::new(move |_| {
                c2.fetch_add(1, Ordering::SeqCst);
                true
            }),
        );
        let base = vm.base(r);
        assert_eq!(vm.touch(r, base), Touch::Faulted);
        assert_eq!(vm.touch(r, base + 100), Touch::Mapped);
        assert_eq!(vm.touch(r, base + PAGE_SIZE), Touch::Faulted);
        assert_eq!(calls.load(Ordering::SeqCst), 2);
        assert_eq!(vm.fault_count(), 2);
    }

    #[test]
    fn premapped_pages_never_fault() {
        let vm = VirtualMemory::new();
        let r = vm.allocate_region(8 * PAGE_SIZE, Box::new(|_| panic!("must not fault")));
        vm.map_range(r, 0, 8);
        let base = vm.base(r);
        for p in 0..8 {
            assert_eq!(vm.touch(r, base + p * PAGE_SIZE), Touch::Mapped);
        }
        assert_eq!(vm.fault_count(), 0);
    }

    #[test]
    fn unmap_faults_again() {
        let vm = VirtualMemory::new();
        let r = vm.allocate_region(PAGE_SIZE, Box::new(|_| true));
        let base = vm.base(r);
        vm.touch(r, base);
        vm.unmap_range(r, 0, 1);
        assert_eq!(vm.touch(r, base), Touch::Faulted);
        assert_eq!(vm.fault_count(), 2);
    }

    #[test]
    fn regions_do_not_overlap() {
        let vm = VirtualMemory::new();
        let a = vm.allocate_region(10 * PAGE_SIZE, Box::new(|_| true));
        let b = vm.allocate_region(10 * PAGE_SIZE, Box::new(|_| true));
        assert!(vm.base(a) + 10 * PAGE_SIZE <= vm.base(b));
    }

    #[test]
    #[should_panic(expected = "outside region")]
    fn out_of_region_touch_panics() {
        let vm = VirtualMemory::new();
        let r = vm.allocate_region(PAGE_SIZE, Box::new(|_| true));
        vm.touch(r, vm.base(r) + PAGE_SIZE);
    }

    #[test]
    #[should_panic(expected = "unhandled page fault")]
    fn declined_fault_panics() {
        let vm = VirtualMemory::new();
        let r = vm.allocate_region(PAGE_SIZE, Box::new(|_| false));
        vm.touch(r, vm.base(r));
    }
}
