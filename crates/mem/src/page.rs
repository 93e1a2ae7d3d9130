//! The page allocator Ebb: per-NUMA-node buddy allocators with per-core
//! representatives for node locality (§3.4).
//!
//! Each core's representative prefers its own node's buddy and falls
//! back to remote nodes, mirroring the paper's "per-numa-node
//! buddy-allocators". The root also carries the memory-pressure hook the
//! paper calls out: when an allocation fails, registered pressure
//! handlers (e.g. slab depots, application caches) are asked to release
//! memory before the allocation is retried.

use std::sync::{Arc, Mutex};

use ebbrt_core::cpu::CoreId;
use ebbrt_core::ebb::MulticoreEbb;

use crate::buddy::{order_bytes, BuddyAllocator};
use crate::{Addr, Topology};

/// A handler invited to release memory under pressure; receives the
/// number of bytes sought and returns how many it thinks it released.
pub type PressureHandler = Box<dyn Fn(usize) -> usize + Send + Sync>;

/// Shared state of the page allocator Ebb.
pub struct PageAllocatorRoot {
    topology: Topology,
    /// One buddy per node, covering a contiguous address slice.
    nodes: Vec<Mutex<BuddyAllocator>>,
    node_span: usize,
    pressure_handlers: Mutex<Vec<PressureHandler>>,
}

impl PageAllocatorRoot {
    /// Creates the root with one region of `2^region_order` pages per
    /// NUMA node, laid out contiguously from address 0.
    pub fn new(topology: Topology, region_order: u32) -> Self {
        let node_span = order_bytes(region_order);
        let nodes = (0..topology.nnodes)
            .map(|n| Mutex::new(BuddyAllocator::new(n * node_span, region_order)))
            .collect();
        PageAllocatorRoot {
            topology,
            nodes,
            node_span,
            pressure_handlers: Mutex::new(Vec::new()),
        }
    }

    /// The machine topology.
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// Registers a memory-pressure handler.
    pub fn register_pressure_handler(&self, h: PressureHandler) {
        ebbrt_core::lock(&self.pressure_handlers).push(h);
    }

    /// Node owning `addr`.
    pub fn node_of_addr(&self, addr: Addr) -> usize {
        (addr / self.node_span).min(self.topology.nnodes - 1)
    }

    /// Total free bytes across all nodes.
    pub fn free_bytes(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| ebbrt_core::lock(n).free_bytes())
            .sum()
    }

    /// Allocates preferring `node`, falling back to the other nodes, and
    /// invoking pressure handlers before giving up.
    pub fn alloc_on(&self, node: usize, order: u32) -> Option<Addr> {
        if let Some(a) = self.try_alloc(node, order) {
            return Some(a);
        }
        // Ask caches to release memory, then retry once (the paper's
        // pressure propagation).
        let wanted = order_bytes(order);
        let handlers = ebbrt_core::lock(&self.pressure_handlers);
        let mut released = 0;
        for h in handlers.iter() {
            released += h(wanted);
            if released >= wanted {
                break;
            }
        }
        drop(handlers);
        self.try_alloc(node, order)
    }

    fn try_alloc(&self, node: usize, order: u32) -> Option<Addr> {
        if let Some(a) = ebbrt_core::lock(&self.nodes[node]).alloc(order) {
            return Some(a);
        }
        for (i, other) in self.nodes.iter().enumerate() {
            if i == node {
                continue;
            }
            if let Some(a) = ebbrt_core::lock(other).alloc(order) {
                return Some(a);
            }
        }
        None
    }

    /// Frees a block, routing it to its owning node's buddy.
    pub fn free(&self, addr: Addr, order: u32) {
        let node = self.node_of_addr(addr);
        ebbrt_core::lock(&self.nodes[node]).free(addr, order);
    }
}

/// Per-core representative: remembers the core's NUMA node.
pub struct PageAllocator {
    root: Arc<PageAllocatorRoot>,
    node: usize,
}

impl MulticoreEbb for PageAllocator {
    type Root = PageAllocatorRoot;

    fn create_rep(root: &Arc<PageAllocatorRoot>, core: CoreId) -> Self {
        PageAllocator {
            root: Arc::clone(root),
            node: root.topology.node_of_core(core.index()),
        }
    }
}

impl PageAllocator {
    /// Allocates `2^order` pages, preferring the calling core's node.
    pub fn alloc(&self, order: u32) -> Option<Addr> {
        self.root.alloc_on(self.node, order)
    }

    /// Frees a block of `2^order` pages.
    pub fn free(&self, addr: Addr, order: u32) {
        self.root.free(addr, order);
    }

    /// This representative's NUMA node.
    pub fn node(&self) -> usize {
        self.node
    }

    /// The shared root.
    pub fn root(&self) -> &Arc<PageAllocatorRoot> {
        &self.root
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn root2() -> PageAllocatorRoot {
        PageAllocatorRoot::new(
            Topology {
                ncores: 4,
                nnodes: 2,
            },
            4, // 16 pages per node
        )
    }

    #[test]
    fn local_node_preferred() {
        let root = root2();
        let a = root.alloc_on(1, 0).unwrap();
        assert_eq!(root.node_of_addr(a), 1);
        let b = root.alloc_on(0, 0).unwrap();
        assert_eq!(root.node_of_addr(b), 0);
        root.free(a, 0);
        root.free(b, 0);
    }

    #[test]
    fn falls_back_to_remote_node() {
        let root = root2();
        // Exhaust node 0.
        let big = root.alloc_on(0, 4).unwrap();
        assert_eq!(root.node_of_addr(big), 0);
        let a = root.alloc_on(0, 0).unwrap();
        assert_eq!(root.node_of_addr(a), 1, "must spill to node 1");
        root.free(big, 4);
        root.free(a, 0);
    }

    #[test]
    fn free_routes_to_owning_node() {
        let root = root2();
        let initial = root.free_bytes();
        let a = root.alloc_on(1, 2).unwrap();
        root.free(a, 2);
        assert_eq!(root.free_bytes(), initial);
        // Node 1 must again satisfy a full-region alloc.
        let whole = root.alloc_on(1, 4).unwrap();
        assert_eq!(root.node_of_addr(whole), 1);
    }

    #[test]
    fn pressure_handlers_invoked_on_exhaustion() {
        let root = root2();
        let calls = Arc::new(AtomicUsize::new(0));
        let c2 = Arc::clone(&calls);
        root.register_pressure_handler(Box::new(move |wanted| {
            c2.fetch_add(1, Ordering::SeqCst);
            assert!(wanted > 0);
            0 // releases nothing
        }));
        // Exhaust both nodes.
        let a = root.alloc_on(0, 4).unwrap();
        let b = root.alloc_on(0, 4).unwrap();
        assert!(root.alloc_on(0, 0).is_none());
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        root.free(a, 4);
        root.free(b, 4);
    }

    #[test]
    fn pressure_handler_that_releases_lets_alloc_succeed() {
        let root = Arc::new(root2());
        let hoard: Arc<Mutex<Vec<Addr>>> = Arc::new(Mutex::new(Vec::new()));
        // Hoard all of both nodes' pages at order 0.
        {
            let mut h = ebbrt_core::lock(&hoard);
            while let Some(a) = root.alloc_on(0, 0) {
                h.push(a);
            }
        }
        let r2 = Arc::clone(&root);
        let h2 = Arc::clone(&hoard);
        root.register_pressure_handler(Box::new(move |_| {
            let mut freed = 0;
            let mut h = ebbrt_core::lock(&h2);
            for _ in 0..4 {
                if let Some(a) = h.pop() {
                    r2.free(a, 0);
                    freed += crate::PAGE_SIZE;
                }
            }
            freed
        }));
        assert!(
            root.alloc_on(0, 0).is_some(),
            "pressure release must allow retry"
        );
    }

    #[test]
    fn rep_binds_core_to_node() {
        use ebbrt_core::clock::ManualClock;
        use ebbrt_core::ebb::EbbRef;
        use ebbrt_core::runtime::{self, Runtime};

        let rt = Runtime::new(4, Arc::new(ManualClock::new()));
        let _g = runtime::enter(Arc::clone(&rt), CoreId(3));
        let pa = EbbRef::<PageAllocator>::create(PageAllocatorRoot::new(
            Topology {
                ncores: 4,
                nnodes: 2,
            },
            4,
        ));
        // Core 3 belongs to node 1.
        assert_eq!(pa.with(|p| p.node()), 1);
        let a = pa.with(|p| p.alloc(0)).unwrap();
        assert_eq!(pa.with(|p| p.root().node_of_addr(a)), 1);
        pa.with(|p| p.free(a, 0));
    }
}
