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
//! [`EventContext::activate`]s it. [`block_on`] packages this into
//! blocking semantics over [`crate::future::Future`].

use std::cell::{Cell, UnsafeCell};
use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, Ordering};
use std::sync::Arc;

use crate::rcu::CoreEpoch;

use crossbeam::queue::SegQueue;
use parking_lot::{Condvar, Mutex};

use crate::clock::{Clock, Ns, DEFAULT_TIMER_TICK_SHIFT};
use crate::cpu::{self, CoreId};
use crate::future::{FutResult, Future};
use crate::timer::{TimerWheel, TimerWheelStats};

pub use crate::timer::TimerToken;

/// A one-shot event handler, local to a core.
pub type EventHandler = Box<dyn FnOnce() + 'static>;
/// A one-shot event handler that may cross cores.
pub type SendEventHandler = Box<dyn FnOnce() + Send + 'static>;

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
    /// Idle handlers that reported doing useful work.
    pub idle_work: usize,
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

/// A persistent timer's handler: told, each time it fires, the key its
/// entry was created with. One handler can therefore serve any number
/// of entries — a network stack's per-connection timers share one and
/// key it by connection — and creating an entry clones the `Rc`
/// instead of boxing a closure.
pub type KeyedTimerFn = Rc<dyn Fn(u64)>;

/// The timer wheel's handler payload: a one-shot boxed closure
/// (consumed when the timer fires) or a persistent keyed handler that
/// survives firings and is re-armed with [`EventManager::reset_timer`].
enum TimerFn {
    Once(EventHandler),
    Persistent(KeyedTimerFn, u64),
}

/// A lock-free slot holding at most one `Arc<T>`, swapped with single
/// atomic operations — no mutex on the reader or writer path.
///
/// `Arc<dyn Fn>` is a fat pointer, so the slot stores a thin pointer to
/// a boxed `Arc` (the standard double-indirection trick). Ownership is
/// always exclusive: every access *takes* the value out with a `swap`,
/// so no thread ever dereferences a pointer another thread might free.
/// Callers take the *box*, use the value, and put the same box back
/// with a compare-exchange that fails harmlessly if somebody registered
/// a new value meanwhile — a take/restore round trip allocates nothing.
///
/// The liveness contract for wakers: a caller that takes the slot and
/// finds it empty may skip the wake *only because* whoever holds the
/// value always invokes it before restoring, and the event loop
/// re-registers its waker and re-checks its queues before parking (the
/// classic register-then-check pattern), so a push that raced an
/// in-flight wake is observed either by that wake or by the pre-park
/// check.
///
/// Every write to the slot is `SeqCst`, and so are the event queues'
/// length reads and writes (`SegQueue`): "register, then find the queue
/// empty" on the owner and "push, then find the slot empty" on a
/// producer cannot both happen, which is what lets the emptiness check
/// be a load instead of a lock.
pub(crate) struct AtomicArcCell<T: ?Sized> {
    ptr: AtomicPtr<Arc<T>>,
}

impl<T: ?Sized> AtomicArcCell<T> {
    fn new() -> Self {
        AtomicArcCell {
            ptr: AtomicPtr::new(std::ptr::null_mut()),
        }
    }

    /// Installs `value`, dropping whatever was in the slot.
    fn store(&self, value: Arc<T>) {
        let new = Box::into_raw(Box::new(value));
        let old = self.ptr.swap(new, Ordering::SeqCst);
        if !old.is_null() {
            // SAFETY: the swap transferred exclusive ownership of `old`
            // to us; no other thread can still reach it.
            drop(unsafe { Box::from_raw(old) });
        }
    }

    /// Takes the value out (in the box the slot kept it in), leaving
    /// the slot empty.
    fn take(&self) -> Option<Box<Arc<T>>> {
        let p = self.ptr.swap(std::ptr::null_mut(), Ordering::SeqCst);
        if p.is_null() {
            None
        } else {
            // SAFETY: every non-null pointer in the slot came from
            // `Box::into_raw`, and the swap made this thread its sole
            // owner: no other thread can reach the box until `restore`
            // publishes it again.
            Some(unsafe { Box::from_raw(p) })
        }
    }

    /// Puts a previously taken box back if the slot is still empty; if
    /// a new value was registered meanwhile it wins, and the old one is
    /// dropped.
    fn restore(&self, value: Box<Arc<T>>) {
        let p = Box::into_raw(value);
        if self
            .ptr
            .compare_exchange(std::ptr::null_mut(), p, Ordering::SeqCst, Ordering::Relaxed)
            .is_err()
        {
            // SAFETY: the CAS failed, so `p` never became reachable by
            // any other thread; this thread still owns the box it just
            // turned into a pointer.
            drop(unsafe { Box::from_raw(p) });
        }
    }
}

impl<T: ?Sized> Drop for AtomicArcCell<T> {
    fn drop(&mut self) {
        self.take();
    }
}

// SAFETY: the cell hands out the Arc only through ownership-transferring
// swaps; Arc<T> with T: Send + Sync is itself Send + Sync.
unsafe impl<T: ?Sized + Send + Sync> Send for AtomicArcCell<T> {}
// SAFETY: as above.
unsafe impl<T: ?Sized + Send + Sync> Sync for AtomicArcCell<T> {}

/// State shared between the owning core and remote producers.
pub(crate) struct EmShared {
    core: CoreId,
    remote: SegQueue<SendEventHandler>,
    interrupts: SegQueue<u32>,
    /// Wake callback for a halted core. Lock-free: the cross-core spawn
    /// path takes the `Arc` with one atomic swap, invokes it, and CASes
    /// it back — the last mutex on that path is gone (ROADMAP item).
    waker: AtomicArcCell<dyn Fn() + Send + Sync>,
    successor: AtomicArcCell<dyn Fn() + Send + Sync>,
    /// Quiescence state shared with the machine's RCU domain: bumped at
    /// every event boundary, flagged during handler execution.
    epoch: Arc<CoreEpoch>,
    exit: AtomicBool,
}

impl EmShared {
    fn wake(&self) {
        if let Some(w) = self.waker.take() {
            w();
            self.waker.restore(w);
        }
        // Empty slot: either no waker was ever registered, or another
        // thread is mid-wake / the owner is mid-re-register — both end
        // with a wake delivered or the owner re-checking its queues
        // before parking (see AtomicArcCell's liveness contract).
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
    idle: Vec<(u64, Rc<dyn Fn() -> bool>)>,
    /// One-shot callbacks run at the next idle dispatch stage, then
    /// discarded — deferred housekeeping (the buffer-pool mailbox
    /// sweep) that must not keep the core polling afterwards.
    idle_once: Vec<EventHandler>,
    /// The (empty) vector `dispatch_idle` swaps in for `idle_once`
    /// while it runs the queued callbacks, and gets back afterwards —
    /// so neither vector's capacity is dropped and a steady stream of
    /// one-shots grows nothing.
    idle_once_spare: Vec<EventHandler>,
    next_idle_token: u64,
    timers: TimerWheel<TimerFn>,
    pending_handoff: Option<EventContext>,
}

/// Cell holding owner-only state with a dynamic single-core ownership
/// check (see [`crate::cpu::CoreLocal`] for the access rules).
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
                remote: SegQueue::new(),
                interrupts: SegQueue::new(),
                waker: AtomicArcCell::new(),
                successor: AtomicArcCell::new(),
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
        self.owned.with(|o| o.local.push_back(Box::new(f)));
    }

    /// Queues a synthetic event on this core from any thread.
    ///
    /// The owner-core fast path keys on the bound core id alone, so this
    /// must only be called when a matching core id implies *this*
    /// manager — i.e. from this manager's own machine. Cross-machine
    /// callers go through [`Runtime::spawn`](crate::runtime::Runtime),
    /// which also checks runtime identity (under the simulated backend
    /// every machine has a `CoreId(0)`, and misclassifying a remote
    /// spawn as local would enqueue it without waking the target).
    pub fn spawn(&self, f: impl FnOnce() + Send + 'static) {
        if cpu::try_current() == Some(self.shared.core) {
            self.spawn_local(f);
        } else {
            self.spawn_remote(f);
        }
    }

    /// Queues a synthetic event on this core via the cross-thread path
    /// unconditionally: always lands in the remote queue and wakes the
    /// owner, even when the caller's bound core id happens to match.
    pub fn spawn_remote(&self, f: impl FnOnce() + Send + 'static) {
        self.shared.push_remote(Box::new(f));
    }

    /// Handle for cross-thread spawning without holding `&EventManager`.
    pub fn spawner(&self) -> Spawner {
        Spawner {
            shared: Arc::clone(&self.shared),
        }
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
    /// idle; it returns whether it performed useful work. This is the
    /// polling primitive behind the adaptive NIC driver.
    pub fn add_idle_handler(&self, f: impl Fn() -> bool + 'static) -> IdleToken {
        self.owned.with(|o| {
            let token = o.next_idle_token;
            o.next_idle_token += 1;
            o.idle.push((token, Rc::new(f)));
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
        self.owned.with(|o| o.idle_once.push(Box::new(f)));
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

    /// Arms a one-shot timer `delay_ns` from now. The handler is
    /// consumed when it fires; the token then goes stale.
    pub fn set_timer(&self, delay_ns: Ns, f: impl FnOnce() + 'static) -> TimerToken {
        let deadline = self.clock.now_ns() + delay_ns;
        self.owned
            .with(|o| o.timers.schedule(deadline, TimerFn::Once(Box::new(f))))
    }

    /// Creates a *persistent* timer armed `delay_ns` from now, which
    /// calls `f(key)` when it fires. Firing parks it (handler retained)
    /// instead of destroying it; re-arm it with [`Self::reset_timer`] —
    /// an O(1), allocation-free operation — and free it with
    /// [`Self::cancel_timer`]. Creating the entry allocates nothing
    /// either: this is what lets the TCP layer keep timers per
    /// connection, all on one shared handler, and reset them per ACK.
    pub fn set_keyed_timer(&self, delay_ns: Ns, f: &KeyedTimerFn, key: u64) -> TimerToken {
        let deadline = self.clock.now_ns() + delay_ns;
        let handler = TimerFn::Persistent(Rc::clone(f), key);
        self.owned.with(|o| o.timers.schedule(deadline, handler))
    }

    /// [`Self::set_keyed_timer`] for a timer that is its handler's only
    /// one: boxes `f` as a keyed handler that ignores its key.
    pub fn set_persistent_timer(&self, delay_ns: Ns, f: impl Fn() + 'static) -> TimerToken {
        self.set_keyed_timer(delay_ns, &(Rc::new(move |_| f()) as KeyedTimerFn), 0)
    }

    /// Re-arms `token` to fire `delay_ns` from now, whether it is
    /// currently pending, already due (pulled back out), or parked
    /// after a persistent firing. O(1); no allocation. Returns `false`
    /// if the token is stale (one-shot already fired, or cancelled).
    pub fn reset_timer(&self, token: TimerToken, delay_ns: Ns) -> bool {
        let deadline = self.clock.now_ns() + delay_ns;
        self.owned.with(|o| o.timers.arm(token, deadline))
    }

    /// The reset-or-create idiom for owner-managed persistent timers:
    /// re-arms `token` if it is still live (the steady state — O(1),
    /// no allocation; `f` goes unused), otherwise creates a fresh
    /// persistent timer from `f`. Returns the token the caller should
    /// hold, which equals `token` whenever the reset succeeded.
    pub fn arm_persistent_timer(
        &self,
        token: Option<TimerToken>,
        delay_ns: Ns,
        f: impl Fn() + 'static,
    ) -> TimerToken {
        match token {
            Some(tok) if self.reset_timer(tok, delay_ns) => tok,
            _ => self.set_persistent_timer(delay_ns, f),
        }
    }

    /// [`Self::arm_persistent_timer`] for an entry of a shared keyed
    /// handler ([`Self::set_keyed_timer`]): neither arm allocates.
    pub fn arm_keyed_timer(
        &self,
        token: Option<TimerToken>,
        delay_ns: Ns,
        f: &KeyedTimerFn,
        key: u64,
    ) -> TimerToken {
        match token {
            Some(tok) if self.reset_timer(tok, delay_ns) => tok,
            _ => self.set_keyed_timer(delay_ns, f, key),
        }
    }

    /// Unschedules `token` without freeing it: the handler is retained
    /// and the timer can be re-armed with [`Self::reset_timer`].
    /// Returns `false` if the token is stale.
    pub fn disarm_timer(&self, token: TimerToken) -> bool {
        self.owned.with(|o| o.timers.disarm(token))
    }

    /// Cancels a timer, freeing its entry and handler immediately; a
    /// stale token (timer already fired and one-shot) is a no-op.
    pub fn cancel_timer(&self, token: TimerToken) {
        self.owned.with(|o| {
            o.timers.remove(token);
        });
    }

    /// Whether `token` is scheduled to fire.
    pub fn timer_armed(&self, token: TimerToken) -> bool {
        self.owned.with(|o| o.timers.is_scheduled(token))
    }

    /// Timer-subsystem counters (pending/live entries, slab size,
    /// cascade count) — used by tests and benches to assert the
    /// no-tombstone and one-entry-per-connection properties.
    pub fn timer_stats(&self) -> TimerWheelStats {
        self.owned.with(|o| o.timers.stats())
    }

    /// Per-entry slab cost of this core's timer wheel (hot SoA entry
    /// plus cold handler slot) — the figure per-connection memory
    /// accounting charges for each parked persistent timer.
    pub fn timer_entry_bytes() -> usize {
        TimerWheel::<TimerFn>::entry_bytes()
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
            let (invoked, worked) = self.dispatch_idle();
            progress.idle_invoked = invoked;
            progress.idle_work = worked;
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
            enum Fire {
                Once(EventHandler),
                Persistent(KeyedTimerFn, u64),
            }
            let fired = self.owned.with(|o| {
                o.timers.advance(now);
                let (token, _deadline) = o.timers.pop_expired()?;
                match o.timers.handler(token) {
                    Some(TimerFn::Persistent(f, key)) => Some(Fire::Persistent(Rc::clone(f), *key)),
                    Some(TimerFn::Once(_)) => match o.timers.remove(token) {
                        Some(TimerFn::Once(h)) => Some(Fire::Once(h)),
                        _ => unreachable!("one-shot entry changed kind"),
                    },
                    None => unreachable!("expired entry has no handler"),
                }
            });
            match fired {
                None => return n,
                Some(Fire::Once(h)) => self.invoke(h),
                Some(Fire::Persistent(f, key)) => self.invoke(move || f(key)),
            }
            self.stats.timers.fetch_add(1, Ordering::Relaxed);
            n += 1;
        }
    }

    fn dispatch_one_synthetic(&self) -> bool {
        // Local (same-core) events first, then remote arrivals.
        let ev = self
            .owned
            .with(|o| o.local.pop_front())
            .map(|f| f as EventHandler)
            .or_else(|| self.shared.remote.pop().map(|f| f as EventHandler));
        match ev {
            Some(f) => {
                self.invoke(f);
                self.stats.synthetic.fetch_add(1, Ordering::Relaxed);
                true
            }
            None => false,
        }
    }

    fn dispatch_idle(&self) -> (usize, usize) {
        // One-shot callbacks first: they run exactly once and count as
        // useful work (they exist to move state, not to poll).
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
        let (mut invoked, mut worked) = (0, 0);
        if let Some(mut once) = once {
            (invoked, worked) = (once.len(), once.len());
            for h in once.drain(..) {
                self.invoke(h);
                self.stats.idle.fetch_add(1, Ordering::Relaxed);
            }
            self.owned.with(|o| o.idle_once_spare = once);
        }
        let handlers = self.owned.with(|o| o.idle.clone());
        invoked += handlers.len();
        for (_, h) in &handlers {
            let did = {
                let mut result = false;
                self.invoke(|| result = h());
                result
            };
            if did {
                worked += 1;
            }
            self.stats.idle.fetch_add(1, Ordering::Relaxed);
        }
        (invoked, worked)
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
    /// backend: unpark; simulated backend: schedule a poll event).
    /// Lock-free; re-registering the same `Arc` (which the loop runner
    /// does every pass) is recognized and costs two atomic ops, no
    /// allocation (the slot's box goes back as it came out).
    pub fn register_waker(&self, waker: Arc<dyn Fn() + Send + Sync>) {
        if let Some(current) = self.shared.waker.take() {
            if Arc::ptr_eq(&current, &waker) {
                self.shared.waker.restore(current);
                return;
            }
        }
        self.shared.waker.store(waker);
    }

    /// Installs the callback that spawns a successor loop runner,
    /// enabling [`Self::save_context`]. Only the threaded backend sets
    /// this.
    pub fn register_successor_spawner(&self, spawner: Arc<dyn Fn() + Send + Sync>) {
        self.shared.successor.store(spawner);
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
    /// successor spawner (the simulated backend — use futures there).
    pub fn save_context(&self, setup: impl FnOnce(EventContext)) {
        assert_eq!(
            cpu::try_current(),
            Some(self.shared.core),
            "save_context off-core"
        );
        let boxed =
            self.shared.successor.take().expect(
                "save_context requires the threaded backend (no successor spawner installed)",
            );
        let spawner = Arc::clone(&boxed);
        // Put it straight back: save_context runs on the owning core,
        // so the only concurrent access is a (boot-time) re-register,
        // which `restore` yields to.
        self.shared.successor.restore(boxed);
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

/// Cross-thread handle for queueing synthetic events on a core.
#[derive(Clone)]
pub struct Spawner {
    shared: Arc<EmShared>,
}

impl Spawner {
    /// Queues `f` on the target core.
    pub fn spawn(&self, f: impl FnOnce() + Send + 'static) {
        self.shared.push_remote(Box::new(f));
    }

    /// The core this spawner targets.
    pub fn core(&self) -> CoreId {
        self.shared.core
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
        shared.push_remote(Box::new(move || {
            crate::runtime::with_current(|rt| {
                rt.event_manager(core).set_pending_handoff(self.clone());
            });
        }));
    }

    /// Signals the suspended thread to continue (runner side).
    pub fn signal(&self) {
        let mut resumed = self.inner.resumed.lock();
        *resumed = true;
        self.inner.cv.notify_all();
    }

    fn wait(&self) {
        let mut resumed = self.inner.resumed.lock();
        while !*resumed {
            self.inner.cv.wait(&mut resumed);
        }
    }
}

/// Blocks the current *event* (not the thread) until `fut` completes,
/// using context save/restore; outside an event loop it falls back to
/// thread blocking. This provides the Go-like concurrency model the
/// paper layers over events.
pub fn block_on<T: Send + 'static>(fut: Future<T>) -> FutResult<T> {
    // Fast path: already complete.
    let fut = match fut.try_take() {
        Ok(r) => return r,
        Err(f) => f,
    };
    let on_core = cpu::try_current().is_some() && crate::runtime::is_entered();
    if !on_core {
        return fut.block();
    }
    let result: Arc<Mutex<Option<FutResult<T>>>> = Arc::new(Mutex::new(None));
    let result2 = Arc::clone(&result);
    crate::runtime::with_current(|rt| {
        let em = rt.event_manager(cpu::current());
        em.save_context(move |ctx| {
            fut.then(move |ff| {
                *result2.lock() = Some(ff.get());
                ctx.activate();
                Ok(())
            });
        });
    });
    let r = result.lock().take();
    r.expect("context resumed without a result")
}

#[cfg(test)]
mod tests;
