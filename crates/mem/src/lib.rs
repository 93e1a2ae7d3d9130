//! # ebbrt-mem — the EbbRT memory allocation subsystem (§3.4)
//!
//! The paper's allocator stack, reproduced layer by layer:
//!
//! * [`buddy`] — power-of-two page allocation with splitting and buddy
//!   coalescing; one instance per NUMA node.
//! * [`page`] — the *page allocator Ebb*: per-NUMA-node buddies with
//!   per-core representatives for node locality, plus the
//!   memory-pressure callback the paper highlights (the page allocator
//!   "communicating memory pressure up to higher-level caches").
//! * [`slab`] — fixed-size object caches modelled on Linux's SLQB (the
//!   paper's stated basis): per-core free lists with **no
//!   synchronization on the fast path** (legal because events are
//!   non-preemptive), overflowing to a shared depot.
//! * [`gp`] — the general-purpose (`malloc`) Ebb: a size-class table
//!   routing to slab allocators, with a page-backed large-object path.
//! * [`baseline`] — *models* of the glibc and jemalloc allocators used
//!   as Figure 3's comparison points: same interface, deliberately
//!   different synchronization structure (global-arena locking for
//!   glibc, atomic-heavy per-thread caching for jemalloc).
//! * [`vm`] — application-managed virtual regions with user page-fault
//!   handlers (used by the managed-runtime experiments to model EbbRT's
//!   aggressive pre-mapping vs. demand paging).
//!
//! Addresses handed out by these allocators are *identity-mapped
//! physical addresses* in a simulated physical address space — plain
//! `usize` offsets. This preserves the paper's key property (allocations
//! are DMA-able without translation or pinning) while keeping the
//! allocators safe: no real memory is dereferenced through them, so the
//! bookkeeping logic — where all the performance lives — is exercised
//! exactly.

#![forbid(unsafe_code)]

pub mod baseline;
pub mod buddy;
pub mod gp;
pub mod page;
pub mod slab;
pub mod vm;

/// Size of one page in the simulated physical address space.
pub const PAGE_SIZE: usize = 4096;

/// log2 of [`PAGE_SIZE`].
pub const PAGE_SHIFT: u32 = 12;

/// Largest buddy order (allocations up to `PAGE_SIZE << MAX_ORDER`).
pub const MAX_ORDER: u32 = 11;

/// A (simulated, identity-mapped) physical address.
pub type Addr = usize;

/// The machine's core/NUMA layout.
#[derive(Clone, Copy, Debug)]
pub struct Topology {
    /// Total cores.
    pub ncores: usize,
    /// NUMA nodes.
    pub nnodes: usize,
}

impl Topology {
    /// A single-node topology.
    pub fn flat(ncores: usize) -> Self {
        Topology { ncores, nnodes: 1 }
    }

    /// Cores per node (cores are striped contiguously across nodes).
    pub fn cores_per_node(&self) -> usize {
        self.ncores.div_ceil(self.nnodes)
    }

    /// The NUMA node of `core`.
    pub fn node_of_core(&self, core: usize) -> usize {
        (core / self.cores_per_node()).min(self.nnodes - 1)
    }
}

/// The interface shared by the EbbRT allocator and the baseline models,
/// so one benchmark harness drives all three (Figure 3).
pub trait MallocLike: Send + Sync {
    /// Allocates `size` bytes, returning the address.
    ///
    /// # Panics
    ///
    /// Panics if the backing store is exhausted.
    fn alloc(&self, size: usize) -> Addr;

    /// Frees an allocation previously returned by [`Self::alloc`] with
    /// the same `size`.
    fn free(&self, addr: Addr, size: usize);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_node_mapping() {
        let t = Topology {
            ncores: 24,
            nnodes: 2,
        };
        assert_eq!(t.cores_per_node(), 12);
        assert_eq!(t.node_of_core(0), 0);
        assert_eq!(t.node_of_core(11), 0);
        assert_eq!(t.node_of_core(12), 1);
        assert_eq!(t.node_of_core(23), 1);
    }

    #[test]
    fn flat_topology() {
        let t = Topology::flat(4);
        assert_eq!(t.nnodes, 1);
        for c in 0..4 {
            assert_eq!(t.node_of_core(c), 0);
        }
    }
}
