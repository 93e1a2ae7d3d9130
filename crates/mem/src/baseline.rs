//! Baseline allocator *models* for the Figure 3 comparison.
//!
//! The paper benchmarks EbbRT's allocator against glibc 2.19 malloc and
//! jemalloc 3.6. We cannot link those allocators against a simulated
//! physical address space, so we model the **synchronization structure**
//! that determines their multi-core scaling, using the same
//! [`MallocLike`] interface as the EbbRT allocator:
//!
//! * [`GlibcModel`] — a small fixed pool of mutex-protected arenas
//!   (glibc's arena design). Threads map statically onto arenas; as the
//!   core count exceeds the arena pool, lock contention grows and
//!   per-op latency climbs — the rising curve in Figure 3.
//! * [`JemallocModel`] — per-thread caches (no lock on the fast path,
//!   like jemalloc's tcache) but with the atomic read-modify-write
//!   bookkeeping jemalloc performs per operation, plus batched central
//!   refills through sharded locks. Scales linearly but pays a constant
//!   atomic overhead over EbbRT's nonatomic per-core lists — the paper's
//!   "linear scalability but still 42% slower".
//!
//! Both models allocate from a shared bump region with per-class free
//! lists, so the bookkeeping work per operation is directionally
//! comparable to the EbbRT path; only the synchronization differs.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crate::{Addr, MallocLike};

/// Size classes used by the models (matches the EbbRT table closely
/// enough for an apples-to-apples 8 B benchmark).
const CLASSES: &[usize] = &[8, 16, 32, 64, 96, 128, 192, 256, 512, 1024, 2048];

fn class_of(size: usize) -> usize {
    CLASSES
        .iter()
        .position(|&c| size <= c)
        .unwrap_or(CLASSES.len() - 1)
}

/// One arena: per-class free lists plus a bump pointer into the shared
/// address space.
struct Arena {
    free_lists: Vec<Vec<Addr>>,
    bump: Addr,
    bump_end: Addr,
}

impl Arena {
    fn new(base: Addr, span: usize) -> Self {
        Arena {
            free_lists: vec![Vec::new(); CLASSES.len()],
            bump: base,
            bump_end: base + span,
        }
    }

    fn alloc(&mut self, class: usize) -> Addr {
        if let Some(a) = self.free_lists[class].pop() {
            return a;
        }
        let size = CLASSES[class];
        let a = self.bump;
        assert!(a + size <= self.bump_end, "arena exhausted");
        self.bump += size;
        a
    }

    fn free(&mut self, addr: Addr, class: usize) {
        self.free_lists[class].push(addr);
    }
}

/// glibc-malloc model: a fixed pool of locked arenas shared by all
/// threads.
pub struct GlibcModel {
    arenas: Vec<Mutex<Arena>>,
    next_thread: AtomicUsize,
}

thread_local! {
    static GLIBC_ARENA_ID: RefCell<HashMap<usize, usize>> = RefCell::new(HashMap::new());
}

impl GlibcModel {
    /// Default arena pool size (glibc's main + a handful of secondary
    /// arenas actually reachable under a VM's default configuration).
    pub const DEFAULT_ARENAS: usize = 4;

    /// Creates the model with `narenas` arenas over a large address span.
    pub fn new(narenas: usize) -> Arc<Self> {
        let span = 1usize << 34; // per-arena address span (bookkeeping only)
        Arc::new(GlibcModel {
            arenas: (0..narenas)
                .map(|i| Mutex::new(Arena::new((i + 1) << 40, span)))
                .collect(),
            next_thread: AtomicUsize::new(0),
        })
    }

    /// The arena assigned to the calling thread (sticky, round-robin on
    /// first touch — glibc's arena binding).
    fn my_arena(&self) -> usize {
        let key = self as *const _ as usize;
        GLIBC_ARENA_ID.with(|m| {
            *m.borrow_mut().entry(key).or_insert_with(|| {
                self.next_thread.fetch_add(1, Ordering::Relaxed) % self.arenas.len()
            })
        })
    }
}

impl MallocLike for GlibcModel {
    fn alloc(&self, size: usize) -> Addr {
        let class = class_of(size);
        let mut arena = self.arenas[self.my_arena()].lock().expect("arena lock");
        arena.alloc(class)
    }

    fn free(&self, addr: Addr, size: usize) {
        let class = class_of(size);
        // glibc frees into the arena that owns the chunk; model: owner
        // arena derived from the address' span.
        let owner = ((addr >> 40) - 1).min(self.arenas.len() - 1);
        let mut arena = self.arenas[owner].lock().expect("arena lock");
        arena.free(addr, class);
    }
}

/// A cacheline-padded counter: jemalloc's per-arena stats are padded
/// precisely so cross-arena updates do not false-share.
#[repr(align(64))]
struct PaddedCounter(AtomicUsize);

/// jemalloc model: per-thread tcache with atomic bookkeeping and batched
/// central refills.
pub struct JemallocModel {
    /// Sharded central arenas (jemalloc creates ~4 arenas per CPU; the
    /// shard count just has to keep central contention low).
    central: Vec<Mutex<Arena>>,
    /// Per-arena stats counters updated per op — the atomic RMW overhead
    /// jemalloc pays and EbbRT's nonatomic lists avoid.
    stat_allocs: Vec<PaddedCounter>,
    stat_frees: Vec<PaddedCounter>,
    next_thread: AtomicUsize,
}

/// Objects moved per central refill/flush.
const TCACHE_BATCH: usize = 32;
/// tcache capacity per class.
const TCACHE_MAX: usize = 2 * TCACHE_BATCH;

thread_local! {
    static TCACHE: RefCell<HashMap<usize, Vec<Vec<Addr>>>> = RefCell::new(HashMap::new());
    static JEMALLOC_SHARD: RefCell<HashMap<usize, usize>> = RefCell::new(HashMap::new());
}

impl JemallocModel {
    /// Creates the model with `nshards` central arenas.
    pub fn new(nshards: usize) -> Arc<Self> {
        let span = 1usize << 34;
        Arc::new(JemallocModel {
            central: (0..nshards)
                .map(|i| Mutex::new(Arena::new((i + 64) << 40, span)))
                .collect(),
            stat_allocs: (0..nshards)
                .map(|_| PaddedCounter(AtomicUsize::new(0)))
                .collect(),
            stat_frees: (0..nshards)
                .map(|_| PaddedCounter(AtomicUsize::new(0)))
                .collect(),
            next_thread: AtomicUsize::new(0),
        })
    }

    fn my_shard(&self) -> usize {
        let key = self as *const _ as usize;
        JEMALLOC_SHARD.with(|m| {
            *m.borrow_mut().entry(key).or_insert_with(|| {
                self.next_thread.fetch_add(1, Ordering::Relaxed) % self.central.len()
            })
        })
    }

    fn with_tcache<R>(&self, f: impl FnOnce(&mut Vec<Vec<Addr>>) -> R) -> R {
        let key = self as *const _ as usize;
        TCACHE.with(|m| {
            let mut m = m.borrow_mut();
            let cache = m
                .entry(key)
                .or_insert_with(|| vec![Vec::with_capacity(TCACHE_MAX); CLASSES.len()]);
            f(cache)
        })
    }

    /// Total operations recorded by the stats counters (diagnostic).
    pub fn ops(&self) -> usize {
        self.stat_allocs
            .iter()
            .chain(self.stat_frees.iter())
            .map(|c| c.0.load(Ordering::Relaxed))
            .sum()
    }
}

impl MallocLike for JemallocModel {
    fn alloc(&self, size: usize) -> Addr {
        let class = class_of(size);
        let shard = self.my_shard();
        // The per-op atomic RMW jemalloc performs for stats/accounting.
        self.stat_allocs[shard].0.fetch_add(1, Ordering::Relaxed);
        self.with_tcache(|cache| {
            if let Some(a) = cache[class].pop() {
                return a;
            }
            // Batched central refill.
            let mut central = self.central[shard].lock().expect("central arena lock");
            for _ in 0..TCACHE_BATCH {
                let a = central.alloc(class);
                cache[class].push(a);
            }
            drop(central);
            cache[class].pop().expect("refill produced objects")
        })
    }

    fn free(&self, addr: Addr, size: usize) {
        let class = class_of(size);
        let shard = self.my_shard();
        self.stat_frees[shard].0.fetch_add(1, Ordering::Relaxed);
        self.with_tcache(|cache| {
            cache[class].push(addr);
            if cache[class].len() >= TCACHE_MAX {
                // Batched central flush.
                let mut central = self.central[shard].lock().expect("central arena lock");
                for _ in 0..TCACHE_BATCH {
                    let a = cache[class].pop().expect("tcache nonempty");
                    central.free(a, class);
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn exercise(m: &dyn MallocLike) {
        let mut live = Vec::new();
        let mut seen = HashSet::new();
        for i in 0..2000 {
            let size = [8, 16, 100, 2000][i % 4];
            let a = m.alloc(size);
            assert!(seen.insert(a), "duplicate live address");
            live.push((a, size));
            if i % 3 == 0 {
                let (a, s) = live.swap_remove(i % live.len());
                m.free(a, s);
                seen.remove(&a);
            }
        }
        for (a, s) in live {
            m.free(a, s);
        }
    }

    #[test]
    fn glibc_model_correctness() {
        let m = GlibcModel::new(4);
        exercise(&*m);
    }

    #[test]
    fn jemalloc_model_correctness() {
        let m = JemallocModel::new(8);
        exercise(&*m);
        assert!(m.ops() > 0);
    }

    #[test]
    fn glibc_threads_share_arenas() {
        let m = GlibcModel::new(2);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        let a = m.alloc(8);
                        m.free(a, 8);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn jemalloc_concurrent_stress() {
        let m = JemallocModel::new(4);
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    let mut live = Vec::new();
                    for i in 0..5000 {
                        live.push(m.alloc(8));
                        if (i + t) % 2 == 0 {
                            if let Some(a) = live.pop() {
                                m.free(a, 8);
                            }
                        }
                    }
                    for a in live {
                        m.free(a, 8);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.ops(), 8 * 5000 * 2);
    }

    #[test]
    fn jemalloc_reuses_freed_addresses() {
        let m = JemallocModel::new(1);
        let a = m.alloc(8);
        m.free(a, 8);
        assert_eq!(m.alloc(8), a);
    }
}
