//! Per-machine runtime instance.
//!
//! A [`Runtime`] bundles everything one EbbRT machine (native library OS
//! instance or hosted process) owns: the Ebb translation state, one
//! [`EventManager`] per core, the clock, and the RCU domain. Threads
//! *enter* a runtime on behalf of a core ([`enter`]); while entered,
//! [`crate::ebb::EbbRef`] calls and event APIs resolve against it.
//!
//! Multiple runtimes may coexist in one process — that is how the
//! simulated backend hosts a whole cluster (several native instances
//! plus a hosted instance) inside one deterministic simulation.

use std::cell::RefCell;
use std::sync::{Arc, Mutex, OnceLock, Weak};

use crate::clock::{Clock, Ns};
use crate::cpu::{self, CoreBinding, CoreId};
use crate::ebb::{EbbManager, EbbRef, MulticoreEbb, SystemEbb};
use crate::event::EventManager;
use crate::rcu::RcuDomain;

/// Default Ebb id capacity per machine.
pub const DEFAULT_EBB_CAPACITY: usize = 4096;

/// One EbbRT machine instance.
pub struct Runtime {
    ncores: usize,
    clock: Arc<dyn Clock>,
    ebbs: EbbManager,
    events: Box<[EventManager]>,
    rcu: Arc<RcuDomain>,
}

impl Runtime {
    /// Creates a runtime with `ncores` cores reading time from `clock`.
    pub fn new(ncores: usize, clock: Arc<dyn Clock>) -> Arc<Self> {
        Self::with_capacity(ncores, clock, DEFAULT_EBB_CAPACITY)
    }

    /// As [`Runtime::new`] with an explicit Ebb id capacity.
    pub fn with_capacity(ncores: usize, clock: Arc<dyn Clock>, capacity: usize) -> Arc<Self> {
        assert!(ncores > 0, "a machine needs at least one core");
        let rcu = Arc::new(RcuDomain::new(ncores));
        let events = (0..ncores)
            .map(|i| {
                let core = CoreId(i as u32);
                EventManager::new(core, Arc::clone(&clock), rcu.epoch(core))
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        let rt = Arc::new(Runtime {
            ncores,
            clock,
            ebbs: EbbManager::new(ncores, capacity),
            events,
            rcu,
        });
        // Seed the well-known-id table: the event system is reachable
        // through `SystemEbb::EventManager` from the moment the machine
        // exists (reps fault in lazily, per core, on first dispatch).
        rt.ebbs
            .register_root::<EventManagerEbb>(SystemEbb::EventManager.id(), Arc::downgrade(&rt));
        rt
    }

    /// Number of cores.
    pub fn ncores(&self) -> usize {
        self.ncores
    }

    /// The machine's clock.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// Current time in nanoseconds.
    pub fn now_ns(&self) -> Ns {
        self.clock.now_ns()
    }

    /// The Ebb translation state.
    pub fn ebbs(&self) -> &EbbManager {
        &self.ebbs
    }

    /// The event manager for `core`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn event_manager(&self, core: CoreId) -> &EventManager {
        &self.events[core.index()]
    }

    /// The event manager for the calling core.
    pub fn local_event_manager(&self) -> &EventManager {
        self.event_manager(cpu::current())
    }

    /// All event managers, in core order.
    pub fn event_managers(&self) -> &[EventManager] {
        &self.events
    }

    /// The RCU domain (shared: `RcuHashMap`s hold a clone).
    pub fn rcu(&self) -> &Arc<RcuDomain> {
        &self.rcu
    }

    /// Queues `f` on `core`'s event loop from any thread.
    ///
    /// Takes the owner-core fast path (local queue, no wake) only when
    /// the caller is entered on **this runtime** and `core`. A bare core
    /// id comparison is not enough: under the simulated backend every
    /// machine has a `CoreId(0)`, and a spawn from machine A's core 0
    /// onto machine B's core 0 classified as "local" would sit in B's
    /// queue without a wake — an idle B would never run it.
    pub fn spawn(&self, core: CoreId, f: impl FnOnce() + Send + 'static) {
        let em = self.event_manager(core);
        let entered_here = CURRENT_FAST.with(|c| {
            let (rt, cur) = c.get();
            std::ptr::eq(rt, self) && cur == core.0
        });
        if entered_here {
            em.spawn_local(f);
        } else {
            em.spawn_remote(f);
        }
    }

    /// As [`Runtime::spawn`] for a closure that is not `Send` — one that
    /// carries `Rc`s onto another core of a machine whose cores all run
    /// on one thread (the simulator's) — through a [`SendCell`].
    pub fn spawn_local(&self, core: CoreId, f: impl FnOnce() + 'static) {
        let cell = SendCell::new(f);
        self.spawn(core, move || cell.into_inner()());
    }

    /// Requests every core's loop to exit (machine shutdown).
    pub fn request_exit_all(&self) {
        for em in self.events.iter() {
            em.request_exit();
        }
    }
}

/// Carries a value that is not `Send` (an `Rc`, a boxed continuation)
/// through an interface that demands `Send` — [`Runtime::spawn`], a
/// queue shared with the threaded backend — back to the thread it
/// came from.
///
/// Sound only because the simulator runs every event of every machine
/// on its single driving thread, so the value never actually crosses a
/// thread boundary. Debug builds check that: the cell remembers the
/// thread that built it and [`SendCell::into_inner`] asserts it is
/// unwrapped there.
pub struct SendCell<T> {
    value: T,
    #[cfg(debug_assertions)]
    built_on: std::thread::ThreadId,
}

// SAFETY: see the type docs — the value is built, held and unwrapped on
// one thread (checked in debug builds); the threaded backend must never
// be handed one.
unsafe impl<T> Send for SendCell<T> {}

impl<T> SendCell<T> {
    /// Wraps `value` on the calling thread.
    pub fn new(value: T) -> Self {
        SendCell {
            value,
            #[cfg(debug_assertions)]
            built_on: std::thread::current().id(),
        }
    }

    /// Unwraps the value.
    ///
    /// # Panics
    ///
    /// Under debug assertions, when called on a thread other than the
    /// one that built the cell.
    pub fn into_inner(self) -> T {
        #[cfg(debug_assertions)]
        assert_eq!(
            std::thread::current().id(),
            self.built_on,
            "SendCell unwrapped off the thread that built it"
        );
        self.value
    }
}

thread_local! {
    static CURRENT: RefCell<Vec<(Arc<Runtime>, CoreId)>> = const { RefCell::new(Vec::new()) };
    /// Fast mirror of the stack top: (runtime pointer, core id). Null
    /// when no runtime is entered. Lets the Ebb-dispatch fast path do a
    /// single thread-local read with no RefCell accounting.
    static CURRENT_FAST: std::cell::Cell<(*const Runtime, u32)> =
        const { std::cell::Cell::new((std::ptr::null(), 0)) };
}

fn refresh_fast() {
    CURRENT.with(|c| {
        let stack = c.borrow();
        let top = match stack.last() {
            Some((rt, core)) => (Arc::as_ptr(rt), core.0),
            None => (std::ptr::null(), 0),
        };
        CURRENT_FAST.with(|f| f.set(top));
    });
}

/// Guard for an entered runtime; leaving restores the previous one.
pub struct EnterGuard {
    _core: CoreBinding,
}

impl Drop for EnterGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| {
            c.borrow_mut().pop();
        });
        refresh_fast();
    }
}

/// Enters `rt` on behalf of `core`: binds the calling thread's core
/// identity and makes `rt` the target of [`with_current`] until the
/// guard drops. Entries nest (the simulated backend switches machines
/// per delivered event).
pub fn enter(rt: Arc<Runtime>, core: CoreId) -> EnterGuard {
    assert!(
        core.index() < rt.ncores(),
        "core {core} out of range for {}-core machine",
        rt.ncores()
    );
    CURRENT.with(|c| c.borrow_mut().push((rt, core)));
    refresh_fast();
    EnterGuard {
        _core: cpu::bind(core),
    }
}

/// Installs a hand-placed representative on **every core** of `rt`
/// under `id`, entering each core in turn. This is the registration
/// path for system objects whose state cannot live in a
/// `Send + Sync` root — a rep sharing one machine-wide `Rc`-owned
/// object (the network manager, the messenger) is *installed*, not
/// faulted from a root.
///
/// # Panics
///
/// Panics if any core already has a rep for `id` (one instance per
/// machine).
pub fn install_on_all_cores<T: 'static>(
    rt: &Arc<Runtime>,
    id: crate::ebb::EbbId,
    mut make: impl FnMut(CoreId) -> T,
) {
    for i in 0..rt.ncores() {
        let core = CoreId(i as u32);
        let guard = enter(Arc::clone(rt), core);
        rt.ebbs().install_rep(id, core, make(core));
        drop(guard);
    }
}

/// Whether the calling thread has entered a runtime.
pub fn is_entered() -> bool {
    CURRENT.with(|c| !c.borrow().is_empty())
}

/// Runs `f` against the current runtime.
///
/// # Panics
///
/// Panics if the thread has not [`enter`]ed a runtime.
#[inline]
pub fn with_current<R>(f: impl FnOnce(&Runtime) -> R) -> R {
    with_current_on(|rt, _core| f(rt))
}

/// Runs `f` with the current runtime *and* core in one thread-local
/// read — the Ebb invocation fast path.
///
/// # Panics
///
/// Panics if the thread has not [`enter`]ed a runtime.
#[inline]
pub fn with_current_on<R>(f: impl FnOnce(&Runtime, CoreId) -> R) -> R {
    let (p, core) = CURRENT_FAST.with(|c| c.get());
    assert!(!p.is_null(), "thread has not entered an EbbRT runtime");
    // SAFETY: `p` mirrors the top of the entry stack, whose Arc keeps
    // the runtime alive; it is cleared/retargeted whenever a guard is
    // created or dropped on this thread.
    let rt = unsafe { &*p };
    f(rt, CoreId(core))
}

/// Runs `f` on `core` of the current machine: inline when the caller
/// is already on `core`, else queued there ([`Runtime::spawn_local`]).
/// The one hop to state that belongs to one core — a connection's TCP
/// state and timers, a continuation's issuing core.
///
/// # Panics
///
/// Panics if the thread has not [`enter`]ed a runtime.
#[inline]
pub fn run_on(core: CoreId, f: impl FnOnce() + 'static) {
    with_current_on(|rt, current| {
        if current == core {
            f();
        } else {
            rt.spawn_local(core, f);
        }
    });
}

// --- Ambient context ---------------------------------------------------
//
// System Ebbs (most importantly the buffer pool) are owned by a
// runtime. Code that touches buffers without having entered one — unit
// tests, benchmark setup on the harness thread — still needs a
// translation table to resolve against. The *ambient runtime* is a
// lazily created process-wide machine reserved for exactly that: each
// unentered thread is leased its own private ambient core, so ambient
// state is thread-isolated (the semantics the old `thread_local!` pool
// provided) and the per-core non-preemption invariant holds — two live
// threads never share an ambient core; a thread's lease returns to the
// free list when it exits.

/// Cores in the process-wide ambient runtime — the ceiling on
/// concurrently live threads using system Ebbs outside any entered
/// runtime.
pub const AMBIENT_CORES: usize = 128;

static AMBIENT: OnceLock<Arc<Runtime>> = OnceLock::new();

struct AmbientLeases {
    free: Vec<u32>,
    next: u32,
}

static AMBIENT_LEASES: Mutex<AmbientLeases> = Mutex::new(AmbientLeases {
    free: Vec::new(),
    next: 0,
});

/// A thread's leased ambient core; returned on thread exit.
struct AmbientLease(u32);

impl Drop for AmbientLease {
    fn drop(&mut self) {
        crate::lock(&AMBIENT_LEASES).free.push(self.0);
    }
}

/// A thread's resolved ambient context: the shared ambient runtime plus
/// this thread's leased private core. Holding the `Arc` here is what
/// keeps the fast-path raw pointer trivially valid for the thread's
/// lifetime (the runtime is additionally pinned forever by the
/// process-wide [`ambient`] `OnceLock`).
struct AmbientCtx {
    /// Held, not read: keeps the fast-path pointer alive.
    _rt: Arc<Runtime>,
    /// Held, not read: returns the core on thread exit.
    _lease: AmbientLease,
}

impl Drop for AmbientCtx {
    fn drop(&mut self) {
        // Clear the fast mirror before the lease returns to the free
        // list: a pool op running in a later thread-exit destructor
        // must re-lease (slow path) rather than alias a core another
        // thread may already have been handed.
        let _ = AMBIENT_FAST.try_with(|c| c.set((std::ptr::null(), 0)));
    }
}

thread_local! {
    static AMBIENT_CTX: RefCell<Option<AmbientCtx>> = const { RefCell::new(None) };
    /// Fast mirror of `AMBIENT_CTX`: (runtime pointer, leased core).
    /// Null until the thread's first ambient resolution. This is the
    /// unentered-thread pool fast path: one `Cell` read replaces the
    /// `OnceLock` + `Arc` clone + `RefCell` accounting per operation.
    static AMBIENT_FAST: std::cell::Cell<(*const Runtime, u32)> =
        const { std::cell::Cell::new((std::ptr::null(), 0)) };
}

/// The process-wide ambient runtime (created on first use).
pub fn ambient() -> Arc<Runtime> {
    Arc::clone(AMBIENT.get_or_init(|| {
        Runtime::with_capacity(
            AMBIENT_CORES,
            Arc::new(crate::clock::ManualClock::new()),
            crate::ebb::FIRST_DYNAMIC_ID as usize * 2,
        )
    }))
}

/// Leases an ambient core and populates this thread's context + fast
/// mirror. Runs once per thread (and again only after a thread-exit
/// destructor cleared the context).
#[cold]
fn init_ambient_ctx() -> (*const Runtime, u32) {
    let id = {
        let mut pool = crate::lock(&AMBIENT_LEASES);
        pool.free.pop().unwrap_or_else(|| {
            let id = pool.next;
            assert!(
                (id as usize) < AMBIENT_CORES,
                "more than {AMBIENT_CORES} concurrent threads using the ambient runtime"
            );
            pool.next = id + 1;
            id
        })
    };
    let rt = ambient();
    let fast = (Arc::as_ptr(&rt), id);
    AMBIENT_CTX.with(|c| {
        *c.borrow_mut() = Some(AmbientCtx {
            _rt: rt,
            _lease: AmbientLease(id),
        });
    });
    AMBIENT_FAST.with(|c| c.set(fast));
    fast
}

fn with_ambient<R>(f: impl FnOnce(&Runtime, CoreId) -> R) -> R {
    // Fast path (the unentered-thread pool op): one Cell read.
    let (p, core) = AMBIENT_FAST.with(|c| c.get());
    let (p, core) = if p.is_null() {
        init_ambient_ctx()
    } else {
        (p, core)
    };
    let core = CoreId(core);
    // Bind for the duration so per-core assertions (rep installation,
    // the event manager's owner state) see the ambient identity; nests
    // over any explicit `cpu::bind` the caller holds.
    let _bind = cpu::bind(core);
    // SAFETY: `p` mirrors `AMBIENT_CTX`, whose `Arc` lives until thread
    // exit (and the pointee is additionally pinned process-wide by the
    // `ambient()` OnceLock, so even a post-destructor reader could not
    // observe a dangling runtime — it re-leases instead, because the
    // ctx destructor nulls this mirror first).
    f(unsafe { &*p }, core)
}

/// Resolves the calling thread's *dispatch context*: the entered
/// runtime and core when inside one (the fast path — one thread-local
/// read), else the ambient runtime on the thread's private ambient
/// core. This is what system-Ebb dispatch (`iobuf::pool`, stats)
/// resolves through, so those subsystems work identically inside
/// events and in plain test code.
#[inline]
pub fn with_context<R>(f: impl FnOnce(&Runtime, CoreId) -> R) -> R {
    let (p, core) = CURRENT_FAST.with(|c| c.get());
    if !p.is_null() {
        // SAFETY: see `with_current_on`.
        let rt = unsafe { &*p };
        return f(rt, CoreId(core));
    }
    with_ambient(f)
}

// --- The event-manager system Ebb ---------------------------------------

/// Per-core representative of [`SystemEbb::EventManager`]: dispatching
/// through it resolves to the calling core's [`EventManager`] of the
/// current machine. Registered automatically by [`Runtime::new`]; reps
/// fault in lazily per core.
pub struct EventManagerEbb {
    rt: Weak<Runtime>,
    core: CoreId,
}

impl MulticoreEbb for EventManagerEbb {
    type Root = Weak<Runtime>;

    fn create_rep(root: &Arc<Weak<Runtime>>, core: CoreId) -> Self {
        EventManagerEbb {
            rt: Weak::clone(root),
            core,
        }
    }
}

impl EventManagerEbb {
    /// Runs `f` against this core's event manager.
    ///
    /// # Panics
    ///
    /// Panics if the owning runtime has been dropped.
    pub fn with_em<R>(&self, f: impl FnOnce(&EventManager) -> R) -> R {
        let rt = self.rt.upgrade().expect("runtime dropped under its Ebbs");
        f(rt.event_manager(self.core))
    }
}

/// The well-known [`EbbRef`] of the current machine's event system —
/// the Ebb-dispatch route to [`Runtime::local_event_manager`].
pub fn event_manager_ref() -> EbbRef<EventManagerEbb> {
    EbbRef::from_id(SystemEbb::EventManager.id())
}

/// Returns a handle to the current runtime.
///
/// # Panics
///
/// Panics if the thread has not [`enter`]ed a runtime.
pub fn current() -> Arc<Runtime> {
    CURRENT.with(|c| {
        c.borrow()
            .last()
            .map(|(rt, _)| Arc::clone(rt))
            .expect("thread has not entered an EbbRT runtime")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;

    #[test]
    fn enter_nests_and_restores() {
        let clock = Arc::new(ManualClock::new());
        let rt1 = Runtime::new(1, clock.clone());
        let rt2 = Runtime::new(2, clock);
        assert!(!is_entered());
        {
            let _g1 = enter(Arc::clone(&rt1), CoreId(0));
            assert!(is_entered());
            assert_eq!(with_current(|rt| rt.ncores()), 1);
            {
                let _g2 = enter(Arc::clone(&rt2), CoreId(1));
                assert_eq!(with_current(|rt| rt.ncores()), 2);
                assert_eq!(cpu::current(), CoreId(1));
            }
            assert_eq!(with_current(|rt| rt.ncores()), 1);
            assert_eq!(cpu::current(), CoreId(0));
        }
        assert!(!is_entered());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn enter_bad_core_panics() {
        let rt = Runtime::new(1, Arc::new(ManualClock::new()));
        let _g = enter(rt, CoreId(3));
    }

    #[test]
    fn event_manager_resolves_through_well_known_id() {
        let rt = Runtime::new(2, Arc::new(ManualClock::new()));
        let _g = enter(Arc::clone(&rt), CoreId(1));
        // The Ebb route reaches the *calling core's* manager.
        event_manager_ref().with(|e| e.with_em(|em| em.spawn_local(|| ())));
        assert!(rt.event_manager(CoreId(1)).pending_work());
        assert!(!rt.event_manager(CoreId(0)).pending_work());
    }

    #[test]
    fn ambient_context_serves_unentered_threads_privately() {
        // Two *concurrently live* threads resolve distinct ambient
        // cores: context state (the buffer pool rides on this) cannot
        // alias. The barrier keeps both leases held at once — a dead
        // thread's core may legitimately be recycled.
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let (a, b) = {
            let spawn_probe = |barrier: Arc<std::sync::Barrier>| {
                std::thread::spawn(move || {
                    let probe = with_context(|rt, core| (rt as *const Runtime as usize, core));
                    barrier.wait();
                    probe
                })
            };
            let t1 = spawn_probe(Arc::clone(&barrier));
            let t2 = spawn_probe(barrier);
            (t1.join().unwrap(), t2.join().unwrap())
        };
        assert_eq!(a.0, b.0, "one shared ambient runtime");
        assert_ne!(a.1, b.1, "distinct private cores per live thread");
        // Entered runtimes take precedence over the ambient context.
        let rt = Runtime::new(1, Arc::new(ManualClock::new()));
        let _g = enter(Arc::clone(&rt), CoreId(0));
        assert!(with_context(|r, _| std::ptr::eq(r, &*rt)));
    }

    #[test]
    #[cfg(debug_assertions)]
    fn send_cell_unwrapped_on_another_thread_panics() {
        let cell = SendCell::new(7);
        let joined = std::thread::spawn(move || cell.into_inner()).join();
        let msg = joined.expect_err("unwrapping off-thread must panic");
        let msg = msg.downcast_ref::<String>().expect("assert message");
        assert!(msg.contains("off the thread that built it"), "{msg}");
    }

    #[test]
    fn spawn_routes_to_core_queue() {
        let rt = Runtime::new(2, Arc::new(ManualClock::new()));
        rt.spawn(CoreId(1), || ());
        assert!(rt.event_manager(CoreId(1)).pending_work());
        assert!(!rt.event_manager(CoreId(0)).pending_work());
    }
}
