//! The discrete-event scheduler and machine driver.
//!
//! [`SimWorld`] owns a virtual nanosecond clock and a time-ordered queue
//! of actions. Machines register their per-core event managers; when a
//! device interrupt, remote spawn, timer, or scheduled poll makes a core
//! runnable, the driver enters that machine's runtime on that core and
//! runs dispatch passes.
//!
//! **Virtual CPU time.** Handlers declare the CPU time they consume by
//! calling [`ebbrt_core::clock::charge`] (the per-operation constants live in
//! [`crate::costs`]). The driver accumulates charges into the core's
//! `busy_until`; a busy core defers further dispatch until that instant
//! — this is what produces realistic queueing behaviour (the
//! latency-vs-throughput curves of Figures 5 and 6).
//!
//! Zero-charge handlers are drained at the same instant (bounded by a
//! runaway guard); idle handlers that charge nothing are billed a
//! minimum polling cost so a polling core consumes virtual time exactly
//! like a real one spinning.
//!
//! **One live poll per core.** A core that is busy, or halted with a
//! timer pending, is woken by a typed `Poll` queue entry. Each core
//! has at most one *live* poll: asking for a poll no earlier than the
//! live one is a no-op, asking for an earlier one replaces it. The
//! replaced entry stays in the queue (a binary heap cannot delete from
//! the middle) but is recognised by its `seq` when popped and does
//! nothing, so the number of polls that service a core — and the host
//! cost of a request — does not grow with the age of the world.

use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::{Rc, Weak};
use std::sync::Arc;

use ebbrt_core::clock::{take_charge, Clock, ManualClock, Ns};
use ebbrt_core::cpu::CoreId;
use ebbrt_core::queue::MutexQueue;
use ebbrt_core::runtime;

use crate::link::Switch;
use crate::machine::{LivePoll, SimMachine};
use crate::nic::Frame;

/// Virtual CPU time billed to one poll-loop iteration of an idle
/// handler that declared no cost itself.
pub const MIN_POLL_NS: Ns = 150;

/// Guard against event chains that never charge time: after this many
/// zero-cost dispatch passes at one instant, the driver panics (it is a
/// bug in the simulated application).
const ZERO_COST_PASS_LIMIT: usize = 100_000;

/// A deferred world action, run at its deadline.
type WorldAction = Box<dyn FnOnce(&Rc<SimWorld>)>;

/// What a queue entry does at its deadline.
enum Action {
    /// A caller's deferred closure ([`SimWorld::schedule_at`]).
    Call(WorldAction),
    /// One of the simulator's own actions; carries no allocation.
    Typed(Typed),
}

/// The simulator's own queue actions. One word, so that [`Action`]
/// keeps it beside the closure pointer's niche and a queue entry stays
/// 32 bytes — which is why a poll names its machine and core in 16
/// bits each.
enum Typed {
    /// Service a core, provided this entry is still the core's live
    /// poll; the entry's `seq` is its identity.
    Poll { machine: u16, core: u16 },
    /// Hand the frame parked in `slot` of the world's [`InFlight`]
    /// slab to its destination port ([`SimWorld::schedule_delivery`]).
    Deliver { slot: u32 },
}

/// A frame on the wire: where it is going, and the frame.
struct Delivery {
    switch: Weak<Switch>,
    port: usize,
    frame: Frame,
}

/// Frames on the wire, parked here so their queue entries stay one
/// word: a slab whose vacated slots are reused, so a steady stream of
/// frames allocates nothing.
#[derive(Default)]
struct InFlight {
    slots: Vec<Option<Delivery>>,
    free: Vec<u32>,
}

impl InFlight {
    fn park(&mut self, d: Delivery) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(d);
                slot
            }
            None => {
                self.slots.push(Some(d));
                u32::try_from(self.slots.len() - 1).expect("too many frames in flight")
            }
        }
    }

    fn take(&mut self, slot: u32) -> Delivery {
        self.free.push(slot);
        self.slots[slot as usize]
            .take()
            .expect("a Deliver entry owns its slot")
    }
}

struct QEntry {
    at: Ns,
    /// Allocation order; ties on `at` run in `seq` order, which makes
    /// same-instant behaviour (and so all of virtual time) repeatable.
    seq: u64,
    action: Action,
}

impl PartialEq for QEntry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for QEntry {}
impl PartialOrd for QEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.at.cmp(&other.at).then(self.seq.cmp(&other.seq))
    }
}

/// The simulation world: clock, action queue, and registered machines.
pub struct SimWorld {
    clock: Arc<ManualClock>,
    queue: RefCell<BinaryHeap<Reverse<QEntry>>>,
    seq: Cell<u64>,
    machines: RefCell<Vec<Rc<SimMachine>>>,
    in_flight: RefCell<InFlight>,
    /// Cores made runnable by wakers (interrupt raised, remote spawn).
    wake_queue: Arc<MutexQueue<(usize, u32)>>,
}

impl SimWorld {
    /// Creates an empty world at time zero.
    pub fn new() -> Rc<Self> {
        Rc::new(SimWorld {
            clock: Arc::new(ManualClock::new()),
            queue: RefCell::new(BinaryHeap::new()),
            seq: Cell::new(0),
            machines: RefCell::new(Vec::new()),
            in_flight: RefCell::default(),
            wake_queue: Arc::new(MutexQueue::new()),
        })
    }

    /// The shared virtual clock (machines' runtimes read it).
    pub fn clock(&self) -> Arc<ManualClock> {
        Arc::clone(&self.clock)
    }

    /// Current virtual time.
    pub fn now(&self) -> Ns {
        self.clock.now_ns()
    }

    /// Schedules `action` at absolute time `at` (clamped to now).
    pub fn schedule_at(&self, at: Ns, action: impl FnOnce(&Rc<SimWorld>) + 'static) {
        self.push(at.max(self.now()), Action::Call(Box::new(action)));
    }

    /// Queues `action` at `at` under the next sequence number, which it
    /// returns.
    fn push(&self, at: Ns, action: Action) -> u64 {
        let seq = self.seq.get();
        self.seq.set(seq + 1);
        self.queue
            .borrow_mut()
            .push(Reverse(QEntry { at, seq, action }));
        seq
    }

    /// Schedules `frame` to arrive at `port` of `switch` at `at` — one
    /// queue entry, like [`Self::schedule_at`], without the boxed
    /// closure. The frame is dropped if the switch is gone by then.
    pub(crate) fn schedule_delivery(&self, at: Ns, switch: &Rc<Switch>, port: usize, frame: Frame) {
        let slot = self.in_flight.borrow_mut().park(Delivery {
            switch: Rc::downgrade(switch),
            port,
            frame,
        });
        self.push(at.max(self.now()), Action::Typed(Typed::Deliver { slot }));
    }

    /// Schedules `action` after `delay` nanoseconds.
    pub fn schedule_in(&self, delay: Ns, action: impl FnOnce(&Rc<SimWorld>) + 'static) {
        self.schedule_at(self.now() + delay, action);
    }

    /// Registers a machine, wiring its per-core wakers to the driver.
    /// Returns the machine's index.
    pub(crate) fn register_machine(self: &Rc<Self>, machine: Rc<SimMachine>) -> usize {
        let mut machines = self.machines.borrow_mut();
        let index = machines.len();
        // Poll entries name their machine and core in 16 bits each.
        assert!(u16::try_from(index).is_ok(), "too many machines");
        assert!(
            u16::try_from(machine.runtime().ncores()).is_ok(),
            "too many cores"
        );
        for i in 0..machine.runtime().ncores() {
            let core = CoreId(i as u32);
            let wq = Arc::clone(&self.wake_queue);
            machine
                .runtime()
                .event_manager(core)
                .register_waker(Arc::new(move || {
                    wq.push((index, core.0));
                }));
        }
        machines.push(machine);
        index
    }

    /// The machine at `index`.
    pub fn machine(&self, index: usize) -> Rc<SimMachine> {
        Rc::clone(&self.machines.borrow()[index])
    }

    /// Runs one scheduler step: drains runnable cores, then executes the
    /// earliest scheduled action (advancing the clock). Returns `false`
    /// when nothing remains.
    pub fn step(self: &Rc<Self>) -> bool {
        self.drain_wake_queue();
        let entry = {
            let mut q = self.queue.borrow_mut();
            match q.pop() {
                Some(Reverse(e)) => e,
                None => return false,
            }
        };
        debug_assert!(entry.at >= self.now(), "scheduler time went backwards");
        self.clock.set(entry.at);
        match entry.action {
            Action::Call(f) => f(self),
            Action::Typed(Typed::Poll { machine, core }) => {
                self.run_poll(machine as usize, CoreId(core as u32), entry.seq)
            }
            Action::Typed(Typed::Deliver { slot }) => {
                let d = self.in_flight.borrow_mut().take(slot);
                if let Some(switch) = d.switch.upgrade() {
                    switch.deliver(d.port, d.frame);
                }
            }
        }
        self.drain_wake_queue();
        true
    }

    /// Runs until the queue is empty (plus runnable cores drained).
    /// Returns the number of actions executed.
    pub fn run_to_idle(self: &Rc<Self>) -> usize {
        let mut steps = 0;
        while self.step() {
            steps += 1;
        }
        steps
    }

    /// Runs until virtual time reaches `deadline` (actions scheduled
    /// beyond it stay queued).
    pub fn run_until(self: &Rc<Self>, deadline: Ns) {
        loop {
            self.drain_wake_queue();
            let due = {
                let q = self.queue.borrow();
                matches!(q.peek(), Some(Reverse(e)) if e.at <= deadline)
            };
            if !due {
                break;
            }
            self.step();
        }
        if self.now() < deadline {
            self.clock.set(deadline);
        }
    }

    /// Runs for `duration` of virtual time.
    pub fn run_for(self: &Rc<Self>, duration: Ns) {
        let deadline = self.now() + duration;
        self.run_until(deadline);
    }

    fn drain_wake_queue(self: &Rc<Self>) {
        while let Some((mi, core)) = self.wake_queue.pop() {
            self.service_core(&self.machine(mi), CoreId(core));
        }
    }

    /// A poll entry with sequence number `seq` came due: service the
    /// core if the entry is the core's live poll, else it was
    /// superseded and is dropped.
    fn run_poll(self: &Rc<Self>, machine_index: usize, core: CoreId, seq: u64) {
        let machine = self.machine(machine_index);
        let cs = machine.core_state(core);
        if cs.live_poll.get().map(|live| live.seq) != Some(seq) {
            return;
        }
        cs.live_poll.set(None);
        cs.polls.set(cs.polls.get() + 1);
        self.service_core(&machine, core);
    }

    /// Runs dispatch passes for one core until it is quiescent, becomes
    /// busy (charged time), or defers to a timer.
    fn service_core(self: &Rc<Self>, machine: &SimMachine, core: CoreId) {
        let cs = machine.core_state(core);
        let now = self.now();
        if cs.busy_until.get() > now {
            // Core is executing a prior handler in virtual time; poll
            // again when it frees up.
            self.schedule_core_poll(machine, core, cs.busy_until.get());
            return;
        }
        let rt = Arc::clone(machine.runtime());
        let guard = runtime::enter(Arc::clone(&rt), core);
        let em = rt.event_manager(core);
        let mut zero_passes = 0;
        loop {
            take_charge();
            let progress = em.run_once();
            let mut charged = take_charge();
            if !progress.any() {
                break;
            }
            if charged == 0 && !progress.any_priority() && progress.idle_invoked > 0 {
                // A polling pass that declared no cost still burns CPU.
                charged = MIN_POLL_NS;
            }
            if charged > 0 {
                let busy_until = self.now() + charged;
                cs.busy_until.set(busy_until);
                cs.cpu_time.set(cs.cpu_time.get() + charged);
                if em.pending_work() || em.has_idle_handlers() {
                    self.schedule_core_poll(machine, core, busy_until);
                }
                break;
            }
            zero_passes += 1;
            assert!(
                zero_passes < ZERO_COST_PASS_LIMIT,
                "runaway zero-cost event chain on {core} of machine {}",
                machine.index()
            );
        }
        if let Some(deadline) = em.next_timer_deadline() {
            self.schedule_core_poll(machine, core, deadline.max(cs.busy_until.get()));
        }
        rt.rcu().try_reclaim();
        drop(guard);
    }

    /// Makes sure `core` of `machine` is serviced at `at` (clamped to
    /// now) or earlier. A live poll due by then covers the request;
    /// otherwise the new poll becomes the live one and any later live
    /// poll is superseded.
    fn schedule_core_poll(&self, machine: &SimMachine, core: CoreId, at: Ns) {
        let cs = machine.core_state(core);
        let at = at.max(self.now());
        if cs.live_poll.get().is_some_and(|live| live.at <= at) {
            return;
        }
        let action = Action::Typed(Typed::Poll {
            machine: machine.index() as u16,
            core: core.0 as u16,
        });
        let seq = self.push(at, action);
        cs.live_poll.set(Some(LivePoll { at, seq }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn actions_run_in_time_order() {
        let w = SimWorld::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        let (l1, l2, l3) = (Rc::clone(&log), Rc::clone(&log), Rc::clone(&log));
        w.schedule_at(300, move |w| l1.borrow_mut().push(("c", w.now())));
        w.schedule_at(100, move |w| l2.borrow_mut().push(("a", w.now())));
        w.schedule_at(200, move |w| l3.borrow_mut().push(("b", w.now())));
        w.run_to_idle();
        assert_eq!(*log.borrow(), vec![("a", 100), ("b", 200), ("c", 300)]);
    }

    #[test]
    fn same_time_actions_run_in_schedule_order() {
        let w = SimWorld::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        for i in 0..5 {
            let l = Rc::clone(&log);
            w.schedule_at(50, move |_| l.borrow_mut().push(i));
        }
        w.run_to_idle();
        assert_eq!(*log.borrow(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn actions_can_schedule_actions() {
        let w = SimWorld::new();
        let hits = Rc::new(Cell::new(0u32));
        let h = Rc::clone(&hits);
        w.schedule_at(10, move |w| {
            h.set(h.get() + 1);
            let h2 = Rc::clone(&h);
            w.schedule_in(15, move |w| {
                assert_eq!(w.now(), 25);
                h2.set(h2.get() + 1);
            });
        });
        w.run_to_idle();
        assert_eq!(hits.get(), 2);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let w = SimWorld::new();
        let ran = Rc::new(Cell::new(false));
        let r = Rc::clone(&ran);
        w.schedule_at(1000, move |_| r.set(true));
        w.run_until(500);
        assert_eq!(w.now(), 500);
        assert!(!ran.get());
        w.run_until(1500);
        assert!(ran.get());
        assert_eq!(w.now(), 1500);
    }

    #[test]
    fn determinism_same_trace() {
        fn trace() -> Vec<(u64, u32)> {
            let w = SimWorld::new();
            let log = Rc::new(RefCell::new(Vec::new()));
            for i in 0..10u32 {
                let l = Rc::clone(&log);
                w.schedule_at(((i * 37) % 7) as u64 * 100, move |w| {
                    l.borrow_mut().push((w.now(), i));
                });
            }
            w.run_to_idle();
            Rc::try_unwrap(log).unwrap().into_inner()
        }
        assert_eq!(trace(), trace());
    }

    fn one_core_machine(w: &Rc<SimWorld>) -> Rc<SimMachine> {
        SimMachine::create(w, "m", 1, crate::costs::CostProfile::ebbrt_vm(), [1; 6])
    }

    #[test]
    fn superseded_polls_never_service_the_core() {
        const FAR: Ns = 1_000_000;
        const N: u64 = 50;
        let w = SimWorld::new();
        let m = one_core_machine(&w);
        let core = CoreId(0);
        let fired = Arc::new(AtomicU32::new(0));
        let f = Arc::clone(&fired);
        m.spawn_on(core, move || {
            runtime::with_current(|rt| {
                rt.local_event_manager().set_timer(FAR, move || {
                    f.fetch_add(1, Ordering::SeqCst);
                });
            });
        });
        // Servicing the spawn arms the timer and leaves the far poll live.
        w.drain_wake_queue();
        let cs = m.core_state(core);
        assert_eq!(cs.live_poll.get().map(|l| l.at), Some(FAR));
        // N nearer polls, each superseding the one before.
        for i in 0..N {
            w.schedule_core_poll(&m, core, FAR / 2 - i);
        }
        let steps = w.run_to_idle();
        assert_eq!(fired.load(Ordering::SeqCst), 1, "the timer fires once");
        // One entry per request plus the far poll re-armed after the
        // nearest one found nothing to do.
        assert!(steps as u64 <= N + 2, "{steps} queue entries for {N} polls");
        assert_eq!(cs.polls.get(), 2, "the nearest poll and the timer's");
        assert_eq!(cs.live_poll.get(), None);
    }

    #[test]
    fn a_stale_poll_and_its_successor_at_one_instant_service_once() {
        let w = SimWorld::new();
        let m = one_core_machine(&w);
        let (core, cs) = (CoreId(0), m.core_state(CoreId(0)));
        w.schedule_core_poll(&m, core, 1_000);
        w.schedule_core_poll(&m, core, 500); // supersedes the first
        w.run_until(500);
        assert_eq!(cs.polls.get(), 1);
        // A second entry at t=1000 beside the stale one; asking again
        // is covered by it.
        w.schedule_core_poll(&m, core, 1_000);
        w.schedule_core_poll(&m, core, 1_000);
        assert_eq!(w.run_to_idle(), 2, "the stale entry and the live one");
        assert_eq!(w.now(), 1_000);
        assert_eq!(cs.polls.get(), 2, "the stale entry serviced nothing");
    }

    #[test]
    fn polls_at_time_zero_are_deduplicated() {
        let w = SimWorld::new();
        let m = one_core_machine(&w);
        let (core, cs) = (CoreId(0), m.core_state(CoreId(0)));
        w.schedule_core_poll(&m, core, 0);
        w.schedule_core_poll(&m, core, 0);
        w.schedule_core_poll(&m, core, 10); // covered by the poll at 0
        assert_eq!(w.run_to_idle(), 1);
        assert_eq!(cs.polls.get(), 1);
        assert_eq!(w.now(), 0);
    }

    #[test]
    fn poll_entry_does_not_grow_the_queue_entry() {
        // at + seq + a boxed closure's fat pointer: the typed actions
        // sit beside the box's niche.
        assert_eq!(std::mem::size_of::<QEntry>(), 32);
    }
}
