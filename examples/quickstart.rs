//! Quickstart: boot an EbbRT machine on the threaded backend and use
//! the core primitives — events, Ebbs, blocking on a value another core
//! produces (`promise` + `block_on`), timers, and a per-core object
//! cache.
//!
//! Run with: `cargo run --example quickstart`

use std::sync::Arc;

use ebbrt_core::cache::{Depot, ObjCache};
use ebbrt_core::cpu::CoreId;
use ebbrt_core::ebb::{EbbRef, MulticoreEbb};
use ebbrt_core::event::block_on;
use ebbrt_core::future;
use ebbrt_core::native::NativeMachine;
use ebbrt_core::runtime;

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

/// A per-core cache of 64-byte boxes: each core's representative is a
/// free list it touches without synchronization, over a depot (the
/// root) that every core shares.
struct BoxCache {
    cache: ObjCache<Box<[u8; 64]>>,
    depot: Arc<Depot<Box<[u8; 64]>>>,
}

impl MulticoreEbb for BoxCache {
    type Root = Depot<Box<[u8; 64]>>;
    fn create_rep(depot: &Arc<Self::Root>, _core: CoreId) -> Self {
        BoxCache {
            cache: ObjCache::new(64, 16, 64),
            depot: Arc::clone(depot),
        }
    }
}

impl BoxCache {
    /// The newest box on this core's list (refilled from the depot when
    /// dry), or a fresh one.
    fn take(&self) -> Box<[u8; 64]> {
        let cached = self.cache.take(&self.depot, |_| {});
        cached.map_or_else(|| Box::new([0; 64]), |(b, _)| b)
    }

    fn give(&self, b: Box<[u8; 64]>) {
        self.cache.give(b, &self.depot);
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

        // 3. The per-core object cache: a box given back on a core is
        //    the next one taken there (LIFO, still warm in its cache).
        println!("\n-- per-core object cache (a free list per core over a shared depot) --");
        let boxes = EbbRef::<BoxCache>::create(Depot::default());
        let a = boxes.with(BoxCache::take);
        let addr: *const [u8; 64] = &*a;
        println!("  take -> {addr:p} (fresh: the list and the depot are empty)");
        boxes.with(|c| c.give(a));
        let b = boxes.with(BoxCache::take);
        println!("  give + take -> {:p} (== {addr:p}: LIFO on its core)", &*b);
        assert!(std::ptr::eq(addr, &*b));
        boxes.with(|c| c.give(b));

        // 4. Timers on the event loop.
        println!("\n-- timers --");
        let (p, f) = future::promise::<&str>();
        rt.local_event_manager()
            .set_timer(5_000_000, move || p.set_value("timer fired after 5ms"));
        println!("  {}", block_on(f));

        println!("\ndone; shutting the machine down.");
    });
}
