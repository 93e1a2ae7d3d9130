//! Figure 3's loop (§4.1.2): every core repeatedly times ten take+give
//! pairs of an 8-byte object. The run has the shape of Hoard's
//! `threadtest` (Berger et al., ASPLOS 2000): each thread takes its own
//! objects and gives them back, and all threads start together at a
//! barrier.
//!
//! Two columns run the same loop:
//!
//! * **EbbRT** ([`run_cache`]): the per-core cache the product runs. A
//!   [`MulticoreEbb`] whose rep is a [`ObjCache`] over the machine's
//!   [`Depot`], built like memcached's cold boxes, on a [`NativeMachine`].
//!   Each take and each give is one [`EbbRef::with`].
//! * **System** ([`run_system`]): `Box::new` and drop on plain threads,
//!   through the binary's global allocator (`std::alloc::System` when the
//!   binary installs none).
//!
//! Both report wall-clock nanoseconds per sample of [`PAIRS`] pairs.

use std::cell::Cell;
use std::hint::black_box;
use std::sync::{Arc, Barrier};
use std::time::Instant;

use ebbrt_core::cache::{Depot, ObjCache};
use ebbrt_core::cpu::CoreId;
use ebbrt_core::ebb::{EbbRef, MulticoreEbb};
use ebbrt_core::event::block_on;
use ebbrt_core::future::promise;
use ebbrt_core::native::NativeMachine;
use ebbrt_core::runtime;

/// Take+give pairs per timed sample ("ten times", §4.1.2).
pub const PAIRS: usize = 10;

/// Untimed samples each core runs first: they build its rep and stock
/// its list.
const WARMUP_SAMPLES: usize = 1_000;

/// A core's list flushes a quarter of itself to the depot at this many
/// objects. A sample holds at most [`PAIRS`], so the timed loop never
/// reaches it.
const WATERMARK: usize = 64;

/// The 8-byte object. Its id is unique on the machine: the creating
/// core in the high 32 bits, that core's count of fresh objects below.
struct Obj(u64);

/// One core's free list of [`Obj`] boxes over the machine's depot, the
/// Ebb's root.
struct CoreCache {
    cache: ObjCache<Box<Obj>>,
    depot: Arc<Depot<Box<Obj>>>,
    core: CoreId,
    /// Fresh objects this core has made.
    made: Cell<u64>,
}

impl MulticoreEbb for CoreCache {
    type Root = Depot<Box<Obj>>;

    fn create_rep(depot: &Arc<Self::Root>, core: CoreId) -> Self {
        CoreCache {
            cache: ObjCache::new(WATERMARK, WATERMARK / 4, WATERMARK),
            depot: Arc::clone(depot),
            core,
            made: Cell::new(0),
        }
    }
}

impl CoreCache {
    /// A box from the list or the depot, or a fresh one when both are dry.
    fn take(&self) -> Box<Obj> {
        self.cache.take(&self.depot, |_| {}).map_or_else(
            || {
                let n = self.made.get();
                self.made.set(n + 1);
                Box::new(Obj(u64::from(self.core.0) << 32 | n))
            },
            |(obj, _)| obj,
        )
    }

    fn give(&self, obj: Box<Obj>) {
        self.cache.give(obj, &self.depot);
    }
}

/// What one core measured.
#[derive(Debug)]
pub struct CoreRun {
    /// Mean wall-clock ns per sample of [`PAIRS`] take+give pairs.
    pub ns: f64,
    /// Allocator calls the core's thread made in the timed phase, as the
    /// caller's probe reads them.
    pub calls: u64,
}

/// One run of the EbbRT column.
#[derive(Debug)]
pub struct CacheRun {
    /// Each core's measurement, by core.
    pub cores: Vec<CoreRun>,
    /// Fresh objects each core made, by core.
    pub made: Vec<u64>,
    /// The id of every object drained from the lists and the depot once
    /// all cores had finished.
    pub drained: Vec<u64>,
}

/// Mean ns per sample over `runs`.
pub fn mean_ns(runs: &[CoreRun]) -> f64 {
    runs.iter().map(|r| r.ns).sum::<f64>() / runs.len() as f64
}

/// The EbbRT column on an `ncores` machine: `samples` timed samples per
/// core, then every object drained back out. `calls` reads the calling
/// thread's allocator calls; a binary that counts none passes `|| 0`.
pub fn run_cache(ncores: usize, samples: usize, calls: fn() -> u64) -> CacheRun {
    NativeMachine::run(ncores, move || {
        let caches = EbbRef::<CoreCache>::create(Depot::default());
        let start = Arc::new(Barrier::new(ncores));
        let cores = on_every_core(ncores, move || {
            let take = || caches.with(CoreCache::take);
            let give = |obj| caches.with(|c| c.give(obj));
            timed(take, give, samples, &start, calls)
        });
        // Quiesce: a dry list refills from the depot, so taking until
        // nothing is left on every core empties the lists and the depot.
        let drains = on_every_core(ncores, move || {
            caches.with(|c| {
                let mut ids = Vec::new();
                while let Some((obj, _)) = c.cache.take(&c.depot, |_| {}) {
                    ids.push(obj.0);
                }
                (c.made.get(), ids)
            })
        });
        let (made, ids): (Vec<u64>, Vec<Vec<u64>>) = drains.into_iter().unzip();
        CacheRun {
            cores,
            made,
            drained: ids.concat(),
        }
    })
}

/// The System column on `nthreads` plain threads.
pub fn run_system(nthreads: usize, samples: usize) -> Vec<CoreRun> {
    let start = Arc::new(Barrier::new(nthreads));
    let threads: Vec<_> = (0..nthreads)
        .map(|_| {
            let start = Arc::clone(&start);
            std::thread::spawn(move || timed(|| Box::new(Obj(0)), drop, samples, &start, || 0))
        })
        .collect();
    threads
        .into_iter()
        .map(|t| t.join().expect("a System thread panicked"))
        .collect()
}

/// Runs `f` once on each core of the current machine and returns the
/// results by core.
fn on_every_core<R: Send + 'static>(
    ncores: usize,
    f: impl Fn() -> R + Clone + Send + 'static,
) -> Vec<R> {
    let rt = runtime::current();
    let results: Vec<_> = (0..ncores)
        .map(|i| {
            let (p, result) = promise();
            let f = f.clone();
            rt.spawn(CoreId(i as u32), move || p.set_value(f()));
            result
        })
        .collect();
    results.into_iter().map(block_on).collect()
}

/// One core's loop: warm up, wait for every core, then time `samples`
/// samples.
fn timed<T>(
    take: impl Fn() -> T,
    give: impl Fn(T),
    samples: usize,
    start: &Barrier,
    calls: fn() -> u64,
) -> CoreRun {
    for _ in 0..WARMUP_SAMPLES {
        sample(&take, &give);
    }
    start.wait();
    let calls_before = calls();
    let t0 = Instant::now();
    for _ in 0..samples {
        sample(&take, &give);
    }
    let ns = t0.elapsed().as_nanos() as f64 / samples as f64;
    CoreRun {
        ns,
        calls: calls() - calls_before,
    }
}

/// One sample: take [`PAIRS`] objects, then give them all back. Each
/// object passes through [`black_box`], so no take+give pair is elided.
#[inline(always)]
fn sample<T>(take: &impl Fn() -> T, give: &impl Fn(T)) {
    let objs: [T; PAIRS] = std::array::from_fn(|_| black_box(take()));
    for obj in objs {
        give(black_box(obj));
    }
}
