//! Quickstart: boot an EbbRT machine on the threaded backend and use
//! the core primitives — events, Ebbs, blocking on a value another core
//! produces (`promise` + `block_on`), timers, and the per-core memory
//! allocator.
//!
//! Run with: `cargo run --example quickstart`

use std::sync::Arc;

use ebbrt_core::cpu::CoreId;
use ebbrt_core::ebb::{EbbRef, MulticoreEbb};
use ebbrt_core::event::block_on;
use ebbrt_core::future;
use ebbrt_core::native::NativeMachine;
use ebbrt_core::runtime;
use ebbrt_mem::gp::{self, EbbrtMalloc};
use ebbrt_mem::{MallocLike, Topology};

/// A tiny multi-core Ebb: each core's representative counts its own
/// invocations without any synchronization.
struct HitCounter {
    core: CoreId,
    hits: std::cell::Cell<u64>,
}

impl MulticoreEbb for HitCounter {
    type Root = ();
    fn create_rep(_root: &Arc<()>, core: CoreId) -> Self {
        println!("  [miss path] constructing representative on {core}");
        HitCounter {
            core,
            hits: std::cell::Cell::new(0),
        }
    }
}

impl HitCounter {
    fn hit(&self) -> (CoreId, u64) {
        self.hits.set(self.hits.get() + 1);
        (self.core, self.hits.get())
    }
}

fn main() {
    let ncores = 4;
    println!("booting a {ncores}-core EbbRT machine (threaded backend)...");
    NativeMachine::run(ncores, move || {
        let rt = runtime::current();

        // 1. Elastic Building Blocks: one id, per-core representatives
        //    constructed lazily on first touch.
        println!("\n-- Ebbs: lazy per-core representatives --");
        let counter = EbbRef::<HitCounter>::create(());
        let futures: Vec<_> = (0..ncores)
            .map(|i| {
                let (p, f) = future::promise();
                rt.spawn(CoreId(i as u32), move || {
                    counter.with(|c| c.hit());
                    p.set_value(counter.with(|c| c.hit()));
                });
                f
            })
            .collect();
        for (core, hits) in futures.into_iter().map(block_on) {
            println!("  {core}: {hits} hits on its own representative");
        }

        // 2. Blocking: this event suspends (its core keeps dispatching
        //    on a successor thread) until core 1 fulfils the promise.
        println!("\n-- block_on: a value from another core --");
        let (p, f) = future::promise::<u32>();
        rt.spawn(CoreId(1), move || p.set_value(20 * 2 + 1));
        println!("  core 1 computed (20 * 2) + 1 = {}", block_on(f));

        // 3. The allocator stack: page → slab → general purpose, with
        //    per-core caches needing no synchronization.
        println!("\n-- memory allocator (per-core slabs over buddy pages) --");
        let malloc = EbbrtMalloc::new(gp::setup(Topology::flat(ncores), 12));
        let a = malloc.alloc(64);
        let b = malloc.alloc(64);
        println!("  alloc(64) -> {a:#x}, alloc(64) -> {b:#x}");
        malloc.free(a, 64);
        let c = malloc.alloc(64);
        println!("  free + alloc reuses the per-core cache: {c:#x} (== {a:#x})");
        malloc.free(b, 64);
        malloc.free(c, 64);

        // 4. Timers on the event loop.
        println!("\n-- timers --");
        let (p, f) = future::promise::<&str>();
        rt.local_event_manager()
            .set_timer(5_000_000, move || p.set_value("timer fired after 5ms"));
        println!("  {}", block_on(f));

        println!("\ndone; shutting the machine down.");
    });
}
