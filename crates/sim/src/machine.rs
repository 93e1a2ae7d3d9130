//! Simulated machine assembly.
//!
//! A [`SimMachine`] is one guest (or host) in the simulation: an
//! `ebbrt_core::Runtime` on the world's virtual clock, a NIC, a cost
//! profile describing its software environment (EbbRT, Linux-VM, Linux
//! native, OSv), and per-core virtual-time state used by the driver.
//!
//! For profiles with a scheduler tick (Linux, OSv), call
//! [`SimMachine::start_scheduler_ticks`]: every tick period, each core
//! loses `tick_cost_ns` of virtual time — the "unnecessary timer
//! interrupts and cache pollution due to OS execution" the paper
//! credits for part of EbbRT's win (§4.3).

use std::cell::Cell;
use std::rc::Rc;
use std::sync::Arc;

use ebbrt_core::clock::Ns;
use ebbrt_core::cpu::CoreId;
use ebbrt_core::runtime::Runtime;

use crate::costs::CostProfile;
use crate::nic::{Mac, SimNic};
use crate::world::SimWorld;

/// The one scheduled poll of a core that will service it. Every other
/// poll entry still queued for the core has been superseded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct LivePoll {
    /// When it fires.
    pub(crate) at: Ns,
    /// The `seq` of its queue entry — unique per entry, so it is the
    /// poll's generation tag.
    pub(crate) seq: u64,
}

/// Driver-visible per-core state.
pub struct CoreSimState {
    /// The core is executing charged work until this instant.
    pub busy_until: Cell<Ns>,
    /// The core's live poll, if one is queued (see
    /// [`SimWorld`]'s one-live-poll invariant).
    pub(crate) live_poll: Cell<Option<LivePoll>>,
    /// Scheduled polls that serviced the core (superseded ones never
    /// do).
    pub polls: Cell<u64>,
    /// Total virtual CPU time consumed.
    pub cpu_time: Cell<Ns>,
    /// Scheduler ticks taken.
    pub ticks: Cell<u64>,
}

/// One simulated machine.
pub struct SimMachine {
    name: String,
    rt: Arc<Runtime>,
    profile: CostProfile,
    nic: Rc<SimNic>,
    cores: Vec<CoreSimState>,
    index: Cell<usize>,
    ticks_running: Cell<bool>,
}

impl SimMachine {
    /// Creates and registers a machine. The NIC gets one receive queue
    /// per core unless the profile is single-queue.
    pub fn create(
        world: &Rc<SimWorld>,
        name: impl Into<String>,
        ncores: usize,
        profile: CostProfile,
        mac: Mac,
    ) -> Rc<Self> {
        let rt = Runtime::new(ncores, world.clock() as Arc<dyn ebbrt_core::clock::Clock>);
        let nqueues = if profile.single_queue { 1 } else { ncores };
        let machine = Rc::new(SimMachine {
            name: name.into(),
            rt,
            profile,
            nic: SimNic::new(mac, nqueues),
            cores: (0..ncores)
                .map(|_| CoreSimState {
                    busy_until: Cell::new(0),
                    live_poll: Cell::new(None),
                    polls: Cell::new(0),
                    cpu_time: Cell::new(0),
                    ticks: Cell::new(0),
                })
                .collect(),
            index: Cell::new(usize::MAX),
            ticks_running: Cell::new(false),
        });
        let index = world.register_machine(Rc::clone(&machine));
        machine.index.set(index);
        machine
    }

    /// The machine's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The machine's index in the world.
    pub fn index(&self) -> usize {
        self.index.get()
    }

    /// The EbbRT runtime hosting this machine's event loops.
    pub fn runtime(&self) -> &Arc<Runtime> {
        &self.rt
    }

    /// The machine's cost profile.
    pub fn profile(&self) -> &CostProfile {
        &self.profile
    }

    /// The machine's NIC.
    pub fn nic(&self) -> &Rc<SimNic> {
        &self.nic
    }

    /// Per-core driver state.
    pub fn core_state(&self, core: CoreId) -> &CoreSimState {
        &self.cores[core.index()]
    }

    /// Records charged CPU time (driver bookkeeping).
    pub fn add_cpu_time(&self, core: CoreId, ns: Ns) {
        let cs = &self.cores[core.index()];
        cs.cpu_time.set(cs.cpu_time.get() + ns);
    }

    /// Total virtual CPU time consumed by `core`.
    pub fn cpu_time(&self, core: CoreId) -> Ns {
        self.cores[core.index()].cpu_time.get()
    }

    /// Queues an event on `core` of this machine (wakes the driver).
    pub fn spawn_on(&self, core: CoreId, f: impl FnOnce() + Send + 'static) {
        self.rt.spawn(core, f);
    }

    /// As [`Self::spawn_on`] for a closure that is not `Send` — one that
    /// carries `Rc`s into the event — through a [`SendCell`]. (The
    /// threaded backend has no `SimMachine`.)
    pub fn spawn_local(&self, core: CoreId, f: impl FnOnce() + 'static) {
        let cell = SendCell::new(f);
        self.rt.spawn(core, move || cell.into_inner()());
    }

    /// Starts the periodic scheduler tick on every core, if the profile
    /// has one. Each tick steals `tick_cost_ns` of core time, delaying
    /// whatever the core was doing — the preemption jitter EbbRT avoids.
    pub fn start_scheduler_ticks(self: &Rc<Self>, world: &Rc<SimWorld>) {
        if self.profile.tick_period_ns == 0 || self.ticks_running.replace(true) {
            return;
        }
        for i in 0..self.cores.len() {
            self.schedule_tick(world, i);
        }
    }

    /// Stops scheduling further ticks (pending ones still fire once).
    pub fn stop_scheduler_ticks(&self) {
        self.ticks_running.set(false);
    }

    fn schedule_tick(self: &Rc<Self>, world: &Rc<SimWorld>, core: usize) {
        let period = self.profile.tick_period_ns;
        let cost = self.profile.tick_cost_ns;
        let me = Rc::downgrade(self);
        world.schedule_in(period, move |w| {
            let machine = match me.upgrade() {
                Some(m) => m,
                None => return,
            };
            if !machine.ticks_running.get() {
                return;
            }
            let cs = &machine.cores[core];
            // The tick preempts the core: extend its busy window.
            let now = w.now();
            cs.busy_until.set(cs.busy_until.get().max(now) + cost);
            cs.cpu_time.set(cs.cpu_time.get() + cost);
            cs.ticks.set(cs.ticks.get() + 1);
            machine.schedule_tick(w, core);
        });
    }
}

/// Carries a value that is not `Send` (an `Rc`, a boxed continuation)
/// through an interface that demands `Send` — `Runtime::spawn`, a
/// queue shared with the threaded backend — back to the thread it
/// came from.
///
/// Sound only because a [`SimWorld`] runs every event of every machine
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
    /// Wraps `value` on the world's thread.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::charge;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use std::sync::Arc as SArc;

    #[test]
    fn spawned_events_run_in_virtual_time() {
        let w = SimWorld::new();
        let m = SimMachine::create(&w, "m0", 2, CostProfile::ebbrt_vm(), [1; 6]);
        let hits = SArc::new(AtomicUsize::new(0));
        let h = SArc::clone(&hits);
        m.spawn_on(CoreId(0), move || {
            h.fetch_add(1, Ordering::SeqCst);
        });
        w.run_to_idle();
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn charged_time_makes_core_busy() {
        let w = SimWorld::new();
        let m = SimMachine::create(&w, "m0", 1, CostProfile::ebbrt_vm(), [1; 6]);
        let t1 = SArc::new(AtomicU64::new(0));
        let t2 = SArc::new(AtomicU64::new(0));
        let (a, b) = (SArc::clone(&t1), SArc::clone(&t2));
        // First event charges 10 µs; the second must not start earlier.
        m.spawn_on(CoreId(0), move || {
            charge(10_000);
            a.store(
                ebbrt_core::runtime::with_current(|rt| rt.now_ns()),
                Ordering::SeqCst,
            );
        });
        m.spawn_on(CoreId(0), move || {
            b.store(
                ebbrt_core::runtime::with_current(|rt| rt.now_ns()),
                Ordering::SeqCst,
            );
        });
        w.run_to_idle();
        assert_eq!(t1.load(Ordering::SeqCst), 0, "first event starts at t=0");
        assert_eq!(
            t2.load(Ordering::SeqCst),
            10_000,
            "second event waits for the core"
        );
    }

    #[test]
    fn events_on_different_cores_overlap() {
        let w = SimWorld::new();
        let m = SimMachine::create(&w, "m0", 2, CostProfile::ebbrt_vm(), [1; 6]);
        let t = SArc::new(AtomicU64::new(u64::MAX));
        let t2 = SArc::clone(&t);
        m.spawn_on(CoreId(0), || charge(50_000));
        m.spawn_on(CoreId(1), move || {
            t2.store(
                ebbrt_core::runtime::with_current(|rt| rt.now_ns()),
                Ordering::SeqCst,
            );
        });
        w.run_to_idle();
        assert_eq!(
            t.load(Ordering::SeqCst),
            0,
            "core 1 is not blocked by core 0"
        );
    }

    #[test]
    fn cross_machine_spawn_wakes_an_idle_target() {
        // Regression: machines share core ids (every machine has a
        // CoreId(0)), so a spawn from machine A's core 0 onto machine
        // B's core 0 must not be classified as an owner-core spawn —
        // that path queues without waking, and an otherwise-idle B
        // would never run the event.
        let w = SimWorld::new();
        let a = SimMachine::create(&w, "a", 1, CostProfile::ebbrt_vm(), [1; 6]);
        let b = SimMachine::create(&w, "b", 1, CostProfile::ebbrt_vm(), [2; 6]);
        let hits = SArc::new(AtomicUsize::new(0));
        let h = SArc::clone(&hits);
        let brt = SArc::clone(b.runtime());
        a.spawn_on(CoreId(0), move || {
            brt.spawn(CoreId(0), move || {
                h.fetch_add(1, Ordering::SeqCst);
            });
        });
        w.run_to_idle();
        assert_eq!(hits.load(Ordering::SeqCst), 1, "idle machine b never woke");
    }

    #[test]
    fn timers_fire_at_virtual_deadline() {
        let w = SimWorld::new();
        let m = SimMachine::create(&w, "m0", 1, CostProfile::ebbrt_vm(), [1; 6]);
        let fired_at = SArc::new(AtomicU64::new(0));
        let f = SArc::clone(&fired_at);
        m.spawn_on(CoreId(0), move || {
            ebbrt_core::runtime::with_current(|rt| {
                rt.local_event_manager().set_timer(123_456, move || {
                    f.store(
                        ebbrt_core::runtime::with_current(|rt| rt.now_ns()),
                        Ordering::SeqCst,
                    );
                });
            });
        });
        w.run_to_idle();
        assert_eq!(fired_at.load(Ordering::SeqCst), 123_456);
    }

    #[test]
    fn scheduler_ticks_consume_core_time() {
        let w = SimWorld::new();
        let m = SimMachine::create(&w, "linux", 1, CostProfile::linux_vm(), [1; 6]);
        m.start_scheduler_ticks(&w);
        w.run_for(10_000_000); // 10 ms → 10 ticks
        m.stop_scheduler_ticks();
        let cs = m.core_state(CoreId(0));
        assert_eq!(cs.ticks.get(), 10);
        assert_eq!(cs.cpu_time.get(), 10 * m.profile().tick_cost_ns);
        // Drain the final pending tick action.
        w.run_to_idle();
    }

    #[test]
    fn ebbrt_profile_has_no_ticks() {
        let w = SimWorld::new();
        let m = SimMachine::create(&w, "ebbrt", 1, CostProfile::ebbrt_vm(), [1; 6]);
        m.start_scheduler_ticks(&w);
        w.run_for(10_000_000);
        assert_eq!(m.core_state(CoreId(0)).ticks.get(), 0);
        assert_eq!(w.run_to_idle(), 0, "no tick actions scheduled");
    }

    #[test]
    fn determinism_across_runs() {
        fn run() -> (u64, u64) {
            let w = SimWorld::new();
            let m = SimMachine::create(&w, "m", 2, CostProfile::ebbrt_vm(), [7; 6]);
            let acc = SArc::new(AtomicU64::new(0));
            for i in 0..20u64 {
                let acc = SArc::clone(&acc);
                let core = CoreId((i % 2) as u32);
                m.spawn_on(core, move || {
                    charge(100 * (i % 5));
                    acc.fetch_add(
                        ebbrt_core::runtime::with_current(|rt| rt.now_ns()) * (i + 1),
                        Ordering::SeqCst,
                    );
                });
            }
            w.run_to_idle();
            (acc.load(Ordering::SeqCst), w.now())
        }
        assert_eq!(run(), run());
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
}
