//! Non-preemptive event-driven execution (§3.2 of the paper).
//!
//! Each core runs one event loop. Handlers run to completion — never
//! preempted, never migrated — which is what lets per-core data
//! structures be accessed without synchronization throughout the system.
//!
//! The dispatch algorithm reproduces the paper's starvation-avoidance
//! loop. After an event completes the manager:
//!
//! 1. handles any pending hardware interrupts (and expired timers),
//! 2. dispatches *one* synthetic (spawned) event, if any,
//! 3. invokes all registered idle handlers,
//! 4. halts (parks) — unless any of the above ran a handler, in which
//!    case it starts again at 1.
//!
//! Hardware interrupts and synthetic events therefore get priority over
//! repeatedly-invoked idle handlers, while idle handlers (the mechanism
//! behind adaptive device polling) still run whenever the core would
//! otherwise idle.
//!
//! Cooperative blocking (§3.2 "save and restore event state"): an event
//! may [`EventManager::save_context`], which suspends its stack, hands
//! the event loop to a successor thread, and resumes when another event
//! [`EventContext::activate`]s it. [`block_on`] is the one way to wait
//! on a [`crate::future::Future`] with it: on a native core it suspends
//! the event this way; on a plain thread it parks the thread.

use std::cell::{Cell, UnsafeCell};
use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

use crate::rcu::CoreEpoch;

use crate::clock::{Clock, Ns, DEFAULT_TIMER_TICK_SHIFT};
use crate::cpu::{self, CoreId};
use crate::future::Future;
use crate::queue::MutexQueue;
use crate::timer::{TimerWheel, TimerWheelStats};

pub use crate::timer::TimerToken;

mod once;
pub use once::{Local, OnceFn, Sendable};

/// Words of inline storage an event's closure gets: an `Rc` and a word,
/// say, which is what nearly every spawned event, idle one-shot and
/// timer captures — a TCP timer's is the stack's `Weak` and the
/// connection id. Two keep a timer wheel's handler slot
/// (`Option<EventHandler>`) at three words, under the 32 bytes a boxed
/// closure took; a larger closure is boxed inside its [`OnceFn`].
pub const EVENT_WORDS: usize = 2;

/// A one-shot event handler, local to a core.
pub type EventHandler = OnceFn<(), EVENT_WORDS>;
/// A one-shot event handler that may cross cores.
pub type SendEventHandler = OnceFn<(), EVENT_WORDS, Sendable>;

/// An interrupt vector number allocated from an [`EventManager`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct InterruptVector(pub u32);

/// Token identifying a registered idle handler.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct IdleToken(u64);

/// What a single dispatch pass accomplished.
#[derive(Clone, Copy, Default, Debug)]
pub struct Progress {
    /// Hardware interrupts (and expired timers) handled.
    pub interrupts: usize,
    /// Whether a synthetic event was dispatched.
    pub synthetic: bool,
    /// Idle handlers invoked.
    pub idle_invoked: usize,
}

impl Progress {
    /// Whether any handler was invoked at all.
    pub fn any(&self) -> bool {
        self.interrupts > 0 || self.synthetic || self.idle_invoked > 0
    }

    /// Whether any non-idle handler ran (interrupts get priority; the
    /// run loop restarts its pass when this is true).
    pub fn any_priority(&self) -> bool {
        self.interrupts > 0 || self.synthetic
    }
}

/// Cumulative dispatch statistics, readable from any thread.
#[derive(Default)]
pub struct EventStats {
    /// Hardware interrupt handlers invoked.
    pub interrupts: AtomicU64,
    /// Synthetic events dispatched.
    pub synthetic: AtomicU64,
    /// Timer handlers fired.
    pub timers: AtomicU64,
    /// Idle handler invocations.
    pub idle: AtomicU64,
}

/// A callback the backend installs once per core.
type Hook = OnceLock<Arc<dyn Fn() + Send + Sync>>;

/// State shared between the owning core and remote producers.
pub(crate) struct EmShared {
    core: CoreId,
    remote: MutexQueue<SendEventHandler>,
    interrupts: MutexQueue<u32>,
    /// Wakes a halted core (threaded backend: unparks the core's
    /// parker; simulated backend: queues a poll). Set once.
    waker: Hook,
    /// Spawns a successor loop runner for [`EventManager::save_context`]
    /// (threaded backend only). Set once.
    successor: Hook,
    /// Quiescence state shared with the machine's RCU domain: bumped at
    /// every event boundary, flagged during handler execution.
    epoch: Arc<CoreEpoch>,
    exit: AtomicBool,
}

impl EmShared {
    fn wake(&self) {
        if let Some(w) = self.waker.get() {
            w();
        }
    }

    fn push_remote(&self, f: SendEventHandler) {
        self.remote.push(f);
        self.wake();
    }
}

/// Owner-only state: touched exclusively by the thread currently bound
/// to this manager's core.
struct EmOwned {
    local: VecDeque<EventHandler>,
    vectors: Vec<Option<Rc<dyn Fn()>>>,
    free_vectors: Vec<u32>,
    idle: Vec<(u64, Rc<dyn Fn()>)>,
    /// One-shot callbacks run at the next idle dispatch stage, then
    /// discarded — deferred housekeeping (the buffer-pool mailbox
    /// sweep) that must not keep the core polling afterwards.
    idle_once: Vec<EventHandler>,
    /// The (empty) vector `dispatch_idle` swaps in for `idle_once`
    /// while it runs the queued callbacks, and gets back afterwards —
    /// so neither vector's capacity is dropped and a steady stream of
    /// one-shots grows nothing.
    idle_once_spare: Vec<EventHandler>,
    /// The (empty) vector `dispatch_idle` snapshots `idle` into for a
    /// pass, and gets back afterwards: a polling core's pass clones
    /// handles, not the vector.
    idle_spare: Vec<Rc<dyn Fn()>>,
    next_idle_token: u64,
    timers: TimerWheel<EventHandler>,
    pending_handoff: Option<EventContext>,
}

/// Cell holding owner-only state with a dynamic single-core ownership
/// check: access is allowed only from a thread bound to `core` (see
/// [`crate::cpu`]) and must not re-enter, after which no
/// synchronization is performed.
struct OwnedByCore<T> {
    core: CoreId,
    value: UnsafeCell<T>,
    borrowed: Cell<bool>,
}

// SAFETY: the contents are deliberately non-Send (Rc handlers, local
// closures) yet move between loop-runner threads across cooperative-
// blocking handoffs. This is sound because the handoff protocol
// guarantees (a) at most one thread is dispatching for the core at any
// instant, so no two threads ever touch the value concurrently, and (b)
// every transfer of the dispatching role synchronizes through
// EventContext's mutex (successor spawn / signal), establishing
// happens-before between the old and new runner's accesses. Access is
// additionally gated on the calling thread being bound to `core`, and
// the `borrowed` flag excludes re-entrant aliasing.
unsafe impl<T> Sync for OwnedByCore<T> {}
// SAFETY: as above — transfers are synchronized by the handoff protocol.
unsafe impl<T> Send for OwnedByCore<T> {}

impl<T> OwnedByCore<T> {
    fn new(core: CoreId, value: T) -> Self {
        OwnedByCore {
            core,
            value: UnsafeCell::new(value),
            borrowed: Cell::new(false),
        }
    }

    #[inline]
    fn with<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        assert_eq!(
            cpu::try_current(),
            Some(self.core),
            "EventManager owner state accessed off-core"
        );
        assert!(!self.borrowed.get(), "re-entrant EventManager access");
        self.borrowed.set(true);
        struct Reset<'a>(&'a Cell<bool>);
        impl Drop for Reset<'_> {
            fn drop(&mut self) {
                self.0.set(false);
            }
        }
        let _r = Reset(&self.borrowed);
        // SAFETY: see the `Sync` impl above; checks just performed.
        let v = unsafe { &mut *self.value.get() };
        f(v)
    }
}

/// Per-core event manager: dispatch loop state, interrupt vectors,
/// synthetic event queues, timers and idle handlers.
pub struct EventManager {
    clock: Arc<dyn Clock>,
    shared: Arc<EmShared>,
    owned: OwnedByCore<EmOwned>,
    /// Dispatch statistics.
    pub stats: EventStats,
}

impl EventManager {
    /// Creates the manager for `core`, reading time from `clock` and
    /// reporting event boundaries to `epoch` (the core's slice of the
    /// machine's RCU domain).
    pub fn new(core: CoreId, clock: Arc<dyn Clock>, epoch: Arc<CoreEpoch>) -> Self {
        EventManager {
            clock,
            shared: Arc::new(EmShared {
                core,
                remote: MutexQueue::new(),
                interrupts: MutexQueue::new(),
                waker: OnceLock::new(),
                successor: OnceLock::new(),
                epoch,
                exit: AtomicBool::new(false),
            }),
            owned: OwnedByCore::new(
                core,
                EmOwned {
                    local: VecDeque::new(),
                    vectors: Vec::new(),
                    free_vectors: Vec::new(),
                    idle: Vec::new(),
                    idle_once: Vec::new(),
                    idle_once_spare: Vec::new(),
                    idle_spare: Vec::new(),
                    next_idle_token: 0,
                    timers: {
                        // Stamp the wheel with its core so that, in
                        // debug builds, a token used against another
                        // core's manager asserts instead of silently
                        // no-opping or colliding.
                        let mut w = TimerWheel::new(DEFAULT_TIMER_TICK_SHIFT);
                        w.set_owner(core.0);
                        w
                    },
                    pending_handoff: None,
                },
            ),
            stats: EventStats::default(),
        }
    }

    /// The core this manager serves.
    pub fn core(&self) -> CoreId {
        self.shared.core
    }

    /// Current time according to this manager's clock.
    pub fn now_ns(&self) -> Ns {
        self.clock.now_ns()
    }

    // --- Spawning ------------------------------------------------------

    /// Queues a synthetic event on this core from the owning core itself
    /// (non-`Send` handlers allowed). Spawned events run exactly once.
    pub fn spawn_local(&self, f: impl FnOnce() + 'static) {
        self.owned
            .with(|o| o.local.push_back(EventHandler::new(move |()| f())));
    }

    /// Queues a synthetic event on this core via the cross-thread path
    /// unconditionally: always lands in the remote queue and wakes the
    /// owner, even when the caller's bound core id happens to match.
    pub fn spawn_remote(&self, f: impl FnOnce() + Send + 'static) {
        self.shared
            .push_remote(SendEventHandler::new_send(move |()| f()));
    }

    // --- Interrupts ----------------------------------------------------

    /// Allocates an interrupt vector and binds `handler` to it (the
    /// paper's `EventManager` device-interrupt registration). Owner-core
    /// only.
    pub fn allocate_vector(&self, handler: impl Fn() + 'static) -> InterruptVector {
        self.owned.with(|o| {
            let h: Rc<dyn Fn()> = Rc::new(handler);
            if let Some(v) = o.free_vectors.pop() {
                o.vectors[v as usize] = Some(h);
                InterruptVector(v)
            } else {
                o.vectors.push(Some(h));
                InterruptVector((o.vectors.len() - 1) as u32)
            }
        })
    }

    /// Unbinds `vector`, allowing its number to be reused.
    pub fn free_vector(&self, vector: InterruptVector) {
        self.owned.with(|o| {
            o.vectors[vector.0 as usize] = None;
            o.free_vectors.push(vector.0);
        });
    }

    /// Returns a cross-thread handle that raises `vector` on this core —
    /// what a (simulated) device holds.
    pub fn interrupt_line(&self, vector: InterruptVector) -> InterruptLine {
        InterruptLine {
            shared: Arc::clone(&self.shared),
            vector,
        }
    }

    // --- Idle handlers --------------------------------------------------

    /// Registers a handler invoked whenever the core would otherwise
    /// idle. This is the polling primitive behind the adaptive NIC
    /// driver, which builds each queue's handler once and registers the
    /// same `Rc` on every switch to polling.
    pub fn add_idle_handler(&self, f: Rc<dyn Fn()>) -> IdleToken {
        self.owned.with(|o| {
            let token = o.next_idle_token;
            o.next_idle_token += 1;
            o.idle.push((token, f));
            IdleToken(token)
        })
    }

    /// Removes a previously registered idle handler.
    pub fn remove_idle_handler(&self, token: IdleToken) {
        self.owned.with(|o| {
            o.idle.retain(|(t, _)| *t != token.0);
        });
    }

    /// Queues `f` to run **once**, at this core's next idle dispatch
    /// stage (after all pending interrupts, timers and synthetic events
    /// of that pass). Unlike [`Self::add_idle_handler`], the callback
    /// does not persist, so it never turns the core into a poller — the
    /// shape for deferred housekeeping such as the buffer pool's
    /// mailbox sweep. Owner-core only.
    pub fn add_idle_once(&self, f: impl FnOnce() + 'static) {
        self.owned
            .with(|o| o.idle_once.push(EventHandler::new(move |()| f())));
    }

    /// Depth of this core's event backlog: synthetic events queued
    /// locally and from other cores, plus pending interrupt
    /// deliveries — not counting the event currently executing. The
    /// overload-control signal: a core whose backlog stays non-zero
    /// across passes is falling behind its arrival rate; deadline
    /// shedders consult this when choosing LIFO service order.
    pub fn backlog_depth(&self) -> usize {
        self.owned.with(|o| o.local.len()) + self.shared.remote.len() + self.shared.interrupts.len()
    }

    /// Whether any idle handlers are installed (a polling core must spin
    /// rather than halt) or one-shot idle callbacks are still queued.
    pub fn has_idle_handlers(&self) -> bool {
        self.owned
            .with(|o| !o.idle.is_empty() || !o.idle_once.is_empty())
    }

    // --- Timers ---------------------------------------------------------
    //
    // Timers live in a hashed hierarchical wheel ([`crate::timer`]):
    // arm, cancel and re-arm are all O(1), and cancellation frees the
    // entry (and its handler) immediately — there is no tombstone set.
    // A timer is a one-shot event with a deadline: it runs once, and
    // whoever wants it again sets a new one.

    /// Arms a one-shot timer `delay_ns` from now. The handler is
    /// consumed when it fires; the token then goes stale. A closure of
    /// up to [`EVENT_WORDS`] words is stored in the wheel's slot, so
    /// arming allocates nothing once the slab has grown.
    pub fn set_timer(&self, delay_ns: Ns, f: impl FnOnce() + 'static) -> TimerToken {
        let deadline = self.clock.now_ns() + delay_ns;
        let handler = EventHandler::new(move |()| f());
        self.owned.with(|o| o.timers.schedule(deadline, handler))
    }

    /// Re-arms pending `token` to fire `delay_ns` from now instead (it
    /// is pulled back out if already due). O(1); no allocation.
    /// Returns `false` if the token is stale (fired, or cancelled).
    pub fn reset_timer(&self, token: TimerToken, delay_ns: Ns) -> bool {
        let deadline = self.clock.now_ns() + delay_ns;
        self.owned.with(|o| o.timers.arm(token, deadline))
    }

    /// Cancels a timer, freeing its entry and handler immediately; a
    /// stale token (timer already fired) is a no-op.
    pub fn cancel_timer(&self, token: TimerToken) {
        self.owned.with(|o| {
            o.timers.remove(token);
        });
    }

    /// Timer-subsystem counters (live entries, slab size, cascade
    /// count) — used by tests and benches to assert the no-tombstone
    /// and no-idle-entry properties.
    pub fn timer_stats(&self) -> TimerWheelStats {
        self.owned.with(|o| o.timers.stats())
    }

    /// A lower bound on the next timer firing time: exact for a due
    /// timer or one within the wheel's finest level, otherwise the
    /// start of the slot holding the earliest timer (the halt/park
    /// decision needs only a bound that is sound and strictly in the
    /// future; the scan reads one occupancy word per level). `None` if
    /// no timer is pending.
    pub fn next_timer_deadline(&self) -> Option<Ns> {
        let now = self.clock.now_ns();
        self.owned.with(|o| o.timers.next_deadline(now))
    }

    // --- Dispatch --------------------------------------------------------

    /// Runs one pass of the dispatch algorithm (steps 1–3 of the module
    /// docs). The caller loops while [`Progress::any`] and halts/parks
    /// otherwise.
    pub fn run_once(&self) -> Progress {
        let mut progress = Progress {
            interrupts: self.dispatch_interrupts() + self.dispatch_expired_timers(),
            ..Progress::default()
        };
        progress.synthetic = self.dispatch_one_synthetic();
        if !progress.any_priority() {
            progress.idle_invoked = self.dispatch_idle();
        }
        progress
    }

    /// Drains every immediately runnable event (interrupts, timers,
    /// synthetic). Used by tests and the simulated backend to reach
    /// quiescence after an injection. Returns handlers run.
    pub fn drain(&self) -> usize {
        let mut total = 0;
        loop {
            let mut ran = self.dispatch_interrupts();
            ran += self.dispatch_expired_timers();
            if self.dispatch_one_synthetic() {
                ran += 1;
            }
            if ran == 0 {
                return total;
            }
            total += ran;
        }
    }

    fn dispatch_interrupts(&self) -> usize {
        let mut n = 0;
        while let Some(v) = self.shared.interrupts.pop() {
            let handler = self
                .owned
                .with(|o| o.vectors.get(v as usize).and_then(|h| h.clone()));
            if let Some(h) = handler {
                self.invoke(|| h());
                self.stats.interrupts.fetch_add(1, Ordering::Relaxed);
                n += 1;
            }
        }
        n
    }

    fn dispatch_expired_timers(&self) -> usize {
        let now = self.clock.now_ns();
        let mut n = 0;
        loop {
            // Pop under the owner borrow, invoke outside it (handlers
            // re-enter the manager to arm/cancel timers). A handler
            // arming a past-deadline timer queues it for this same
            // loop, in (deadline, arm-order) order — exactly the old
            // heap's semantics.
            let fired = self.owned.with(|o| {
                o.timers.advance(now);
                o.timers.pop_expired()
            });
            let Some((h, _deadline)) = fired else {
                return n;
            };
            self.invoke(|| h.call(()));
            self.stats.timers.fetch_add(1, Ordering::Relaxed);
            n += 1;
        }
    }

    fn dispatch_one_synthetic(&self) -> bool {
        // Local (same-core) events first, then remote arrivals.
        if let Some(f) = self.owned.with(|o| o.local.pop_front()) {
            self.invoke(|| f.call(()));
        } else if let Some(f) = self.shared.remote.pop() {
            self.invoke(|| f.call(()));
        } else {
            return false;
        }
        self.stats.synthetic.fetch_add(1, Ordering::Relaxed);
        true
    }

    fn dispatch_idle(&self) -> usize {
        // One-shot callbacks first: they run exactly once.
        // The queue is swapped for the retained spare, not taken: a
        // callback that queues another one-shot pushes onto the spare,
        // which is `idle_once` now and runs in the *next* pass. A pass
        // with none queued — nearly every pass of a polling core —
        // touches neither vector.
        let once = self.owned.with(|o| {
            (!o.idle_once.is_empty()).then(|| {
                let spare = std::mem::take(&mut o.idle_once_spare);
                std::mem::replace(&mut o.idle_once, spare)
            })
        });
        let mut invoked = 0;
        if let Some(mut once) = once {
            invoked = once.len();
            for h in once.drain(..) {
                self.invoke(|| h.call(()));
                self.stats.idle.fetch_add(1, Ordering::Relaxed);
            }
            self.owned.with(|o| o.idle_once_spare = once);
        }
        // Persistent handlers run from a snapshot, so one added or
        // removed by a handler takes effect in the next pass.
        let mut handlers = self.owned.with(|o| {
            let mut snapshot = std::mem::take(&mut o.idle_spare);
            snapshot.extend(o.idle.iter().map(|(_, h)| Rc::clone(h)));
            snapshot
        });
        invoked += handlers.len();
        for h in &handlers {
            self.invoke(|| h());
            self.stats.idle.fetch_add(1, Ordering::Relaxed);
        }
        handlers.clear();
        self.owned.with(|o| o.idle_spare = handlers);
        invoked
    }

    /// Runs one handler with event bookkeeping (in-event flag for RCU,
    /// quiescence bump at the boundary).
    fn invoke(&self, f: impl FnOnce()) {
        self.shared.epoch.enter();
        f();
        // Event boundary: quiescent state for RCU.
        self.shared.epoch.exit_quiescent();
    }

    // --- Loop control ----------------------------------------------------

    /// Installs the callback used to wake a halted core (threaded
    /// backend: unpark the core's parker; simulated backend: schedule a
    /// poll event). Every runner of the core parks where this wakes, so
    /// it is set once, at boot.
    ///
    /// # Panics
    ///
    /// Panics if a waker is already installed.
    pub fn register_waker(&self, waker: Arc<dyn Fn() + Send + Sync>) {
        if self.shared.waker.set(waker).is_err() {
            panic!("{}: waker already registered", self.shared.core);
        }
    }

    /// Installs the callback that spawns a successor loop runner,
    /// enabling [`Self::save_context`]. Only the threaded backend sets
    /// this, once, at boot.
    ///
    /// # Panics
    ///
    /// Panics if a successor spawner is already installed.
    pub fn register_successor_spawner(&self, spawner: Arc<dyn Fn() + Send + Sync>) {
        if self.shared.successor.set(spawner).is_err() {
            panic!("{}: successor spawner already registered", self.shared.core);
        }
    }

    /// Requests loop exit (machine shutdown) and wakes the core.
    pub fn request_exit(&self) {
        self.shared.exit.store(true, Ordering::Release);
        self.shared.wake();
    }

    /// Whether exit has been requested.
    pub fn exit_requested(&self) -> bool {
        self.shared.exit.load(Ordering::Acquire)
    }

    /// Whether any immediately runnable work is queued. Cross-core
    /// callers see only the shared queues (interrupts, remote spawns);
    /// the owning core additionally sees local events and due timers.
    pub fn pending_work(&self) -> bool {
        if !self.shared.interrupts.is_empty() || !self.shared.remote.is_empty() {
            return true;
        }
        if cpu::try_current() != Some(self.shared.core) {
            return false;
        }
        let timer_due = self
            .next_timer_deadline()
            .is_some_and(|d| d <= self.clock.now_ns());
        timer_due || self.owned.with(|o| !o.local.is_empty())
    }

    /// Event-boundary counter (used by RCU grace-period detection).
    pub fn quiescent_count(&self) -> u64 {
        self.shared.epoch.count()
    }

    /// Whether a handler is currently executing on this core.
    pub fn in_event(&self) -> bool {
        self.shared.epoch.in_event()
    }

    // --- Cooperative blocking (save/restore event state) -----------------

    /// Suspends the current event, handing the loop to a successor
    /// thread. `setup` receives the [`EventContext`] and must arrange for
    /// [`EventContext::activate`] to be called eventually; `save_context`
    /// returns when that happens.
    ///
    /// # Panics
    ///
    /// Panics if called off the owning core or on a backend without a
    /// successor spawner (the simulated backend, where a core is one step
    /// of a single-threaded simulation — continue in a callback there).
    pub fn save_context(&self, setup: impl FnOnce(EventContext)) {
        assert_eq!(
            cpu::try_current(),
            Some(self.shared.core),
            "save_context off-core"
        );
        let spawner =
            self.shared.successor.get().expect(
                "save_context requires the threaded backend (no successor spawner installed)",
            );
        let ctx = EventContext {
            inner: Arc::new(CtxInner {
                resumed: Mutex::new(false),
                cv: Condvar::new(),
            }),
            shared: Arc::clone(&self.shared),
        };
        setup(ctx.clone());
        // Hand the loop to a successor; this thread stops dispatching
        // until resumed.
        spawner();
        ctx.wait();
    }

    /// Called (on the owning core) by the resume event to transfer the
    /// loop back to a saved context after the current pass.
    fn set_pending_handoff(&self, ctx: EventContext) {
        self.owned.with(|o| {
            assert!(o.pending_handoff.is_none(), "double handoff");
            o.pending_handoff = Some(ctx);
        });
    }

    /// Takes a pending handoff, if any; the loop runner signals it and
    /// stops dispatching.
    pub fn take_handoff(&self) -> Option<EventContext> {
        self.owned.with(|o| o.pending_handoff.take())
    }
}

/// Cross-thread handle a device uses to raise an interrupt on a core.
#[derive(Clone)]
pub struct InterruptLine {
    shared: Arc<EmShared>,
    vector: InterruptVector,
}

impl InterruptLine {
    /// Raises the interrupt: queues the vector and wakes the core.
    pub fn raise(&self) {
        self.shared.interrupts.push(self.vector.0);
        self.shared.wake();
    }

    /// The vector this line raises.
    pub fn vector(&self) -> InterruptVector {
        self.vector
    }
}

struct CtxInner {
    resumed: Mutex<bool>,
    cv: Condvar,
}

/// A saved event context: the suspended state of an event that called
/// [`EventManager::save_context`].
#[derive(Clone)]
pub struct EventContext {
    inner: Arc<CtxInner>,
    shared: Arc<EmShared>,
}

impl EventContext {
    /// Schedules the saved event to resume on its owning core. May be
    /// called from any thread; the suspended stack continues executing
    /// once the core's current dispatch pass completes.
    pub fn activate(self) {
        let core = self.shared.core;
        let shared = Arc::clone(&self.shared);
        shared.push_remote(SendEventHandler::new_send(move |()| {
            crate::runtime::with_current(|rt| {
                rt.event_manager(core).set_pending_handoff(self.clone());
            });
        }));
    }

    /// Signals the suspended thread to continue (runner side).
    pub fn signal(&self) {
        *self.inner.resumed.lock().expect("resumed lock") = true;
        self.inner.cv.notify_all();
    }

    fn wait(&self) {
        let resumed = self.inner.resumed.lock().expect("resumed lock");
        let _resumed = self
            .inner
            .cv
            .wait_while(resumed, |resumed| !*resumed)
            .expect("resumed lock");
    }
}

/// Blocks the current *event* (not the thread) until `fut` is fulfilled
/// and returns its value — the Go-like model the paper layers over
/// events. A fulfilled future returns at once. Pending, it suspends the
/// event through [`EventManager::save_context`] on an entered core, and
/// parks the thread anywhere else.
///
/// # Panics
///
/// Pending on a simulated core, which cannot suspend an event (see
/// [`EventManager::save_context`]).
pub fn block_on<T>(fut: Future<T>) -> T {
    if fut.is_pending() && cpu::try_current().is_some() && crate::runtime::is_entered() {
        crate::runtime::with_current(|rt| {
            rt.event_manager(cpu::current())
                .save_context(|ctx| fut.resume_when_set(ctx));
        });
    }
    fut.wait()
}

#[cfg(test)]
mod tests;
