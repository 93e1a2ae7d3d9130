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
//! **One poll slot per core.** A core that is busy, or halted with a
//! timer pending, is woken by a poll. Polls do not enter the action
//! queue: each core owns one slot holding at most one poll, and asking
//! for a poll no earlier than the queued one is a no-op, asking for an
//! earlier one moves it. The queue holds only frames in flight and
//! callers' closures, so neither its size nor the host cost of a
//! request grows with the age of the world.

use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::{Rc, Weak};
use std::sync::Arc;

use ebbrt_core::clock::{take_charge, Clock, ManualClock, Ns};
use ebbrt_core::cpu::CoreId;
use ebbrt_core::event::Next;
use ebbrt_core::queue::MutexQueue;
use ebbrt_core::runtime;

use crate::link::Switch;
use crate::machine::SimMachine;
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
    /// Hand the frame parked in `slot` of the world's [`InFlight`]
    /// slab to its destination port ([`SimWorld::schedule_delivery`]);
    /// carries no allocation.
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

/// Every registered core's poll slot. The slots holding a poll form a
/// binary min-heap on its `(at, seq)`, indexed so that a slot's poll
/// can be moved in place. A poll is only ever added or moved earlier
/// ([`SimWorld::schedule_core_poll`]), so setting a slot sifts up and
/// only [`Self::pop`] sifts down.
#[derive(Default)]
struct PollSlots {
    /// Each machine's first slot; its cores' slots follow in order.
    first: Vec<usize>,
    slots: Vec<PollSlot>,
    /// The slots holding a poll, heap-ordered by key.
    heap: Vec<usize>,
}

struct PollSlot {
    machine: usize,
    core: CoreId,
    /// The poll's `(at, seq)`, meaningful while `pos` is set.
    key: (Ns, u64),
    /// The slot's index in [`PollSlots::heap`] while it holds a poll.
    pos: Option<usize>,
}

impl PollSlots {
    fn add_machine(&mut self, machine: usize, ncores: usize) {
        self.first.push(self.slots.len());
        self.slots.extend((0..ncores).map(|i| PollSlot {
            machine,
            core: CoreId(i as u32),
            key: (0, 0),
            pos: None,
        }));
        self.heap.reserve(ncores);
    }

    fn slot(&self, machine: usize, core: CoreId) -> usize {
        self.first[machine] + core.index()
    }

    /// When the poll in `slot` fires, if it holds one.
    fn queued_at(&self, slot: usize) -> Option<Ns> {
        let s = &self.slots[slot];
        s.pos.map(|_| s.key.0)
    }

    /// Puts a poll keyed `key` in `slot`, earlier than any it holds.
    fn set(&mut self, slot: usize, key: (Ns, u64)) {
        let s = &mut self.slots[slot];
        debug_assert!(s.pos.is_none() || key < s.key, "a poll only moves earlier");
        s.key = key;
        let pos = s.pos.unwrap_or_else(|| {
            self.heap.push(slot);
            self.heap.len() - 1
        });
        self.sift_up(pos);
    }

    /// The earliest poll's key.
    fn peek(&self) -> Option<(Ns, u64)> {
        self.heap.first().map(|&slot| self.slots[slot].key)
    }

    /// Empties the earliest poll's slot; returns its machine and core.
    fn pop(&mut self) -> (usize, CoreId) {
        let top = self.heap.swap_remove(0);
        self.slots[top].pos = None;
        if !self.heap.is_empty() {
            self.sift_down(0);
        }
        (self.slots[top].machine, self.slots[top].core)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    fn key_at(&self, pos: usize) -> (Ns, u64) {
        self.slots[self.heap[pos]].key
    }

    fn place(&mut self, pos: usize, slot: usize) {
        self.heap[pos] = slot;
        self.slots[slot].pos = Some(pos);
    }

    fn sift_up(&mut self, mut pos: usize) {
        let slot = self.heap[pos];
        let key = self.slots[slot].key;
        while pos > 0 {
            let parent = (pos - 1) / 2;
            if self.key_at(parent) < key {
                break;
            }
            self.place(pos, self.heap[parent]);
            pos = parent;
        }
        self.place(pos, slot);
    }

    fn sift_down(&mut self, mut pos: usize) {
        let slot = self.heap[pos];
        let key = self.slots[slot].key;
        loop {
            let mut child = 2 * pos + 1;
            if child >= self.heap.len() {
                break;
            }
            if child + 1 < self.heap.len() && self.key_at(child + 1) < self.key_at(child) {
                child += 1;
            }
            if key < self.key_at(child) {
                break;
            }
            self.place(pos, self.heap[child]);
            pos = child;
        }
        self.place(pos, slot);
    }
}

/// The simulation world: clock, action queue, poll slots, and
/// registered machines.
pub struct SimWorld {
    clock: Arc<ManualClock>,
    queue: RefCell<BinaryHeap<Reverse<QEntry>>>,
    polls: RefCell<PollSlots>,
    /// The next action's place in the shared `(at, seq)` order; queue
    /// entries and polls draw from it alike.
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
            polls: RefCell::default(),
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

    /// Actions queued: entries in the queue plus polls in the cores'
    /// slots. It does not grow with the age of a world.
    pub fn queued(&self) -> usize {
        self.queue.borrow().len() + self.polls.borrow().len()
    }

    fn next_seq(&self) -> u64 {
        let seq = self.seq.get();
        self.seq.set(seq + 1);
        seq
    }

    /// Queues `action` at `at` under the next sequence number.
    fn push(&self, at: Ns, action: Action) {
        let seq = self.next_seq();
        self.queue
            .borrow_mut()
            .push(Reverse(QEntry { at, seq, action }));
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
        self.push(at.max(self.now()), Action::Deliver { slot });
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
        self.polls
            .borrow_mut()
            .add_machine(index, machine.runtime().ncores());
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
    /// earliest queued action or poll (advancing the clock). Returns
    /// `false` when nothing remains.
    pub fn step(self: &Rc<Self>) -> bool {
        self.drain_wake_queue();
        let Some((at, is_poll)) = self.next_due() else {
            return false;
        };
        debug_assert!(at >= self.now(), "scheduler time went backwards");
        self.clock.set(at);
        if is_poll {
            let (machine, core) = self.polls.borrow_mut().pop();
            self.run_poll(machine, core);
        } else {
            let Reverse(entry) = self
                .queue
                .borrow_mut()
                .pop()
                .expect("next_due saw an entry");
            match entry.action {
                Action::Call(f) => f(self),
                Action::Deliver { slot } => {
                    let d = self.in_flight.borrow_mut().take(slot);
                    if let Some(switch) = d.switch.upgrade() {
                        switch.deliver(d.port, d.frame);
                    }
                }
            }
        }
        self.drain_wake_queue();
        true
    }

    /// When the first action in `(at, seq)` order is due, and whether it
    /// is a poll rather than the queue's top entry.
    fn next_due(&self) -> Option<(Ns, bool)> {
        let entry = self.queue.borrow().peek().map(|Reverse(e)| (e.at, e.seq));
        match (entry, self.polls.borrow().peek()) {
            (entry, Some(poll)) if entry.is_none_or(|e| poll < e) => Some((poll.0, true)),
            (entry, _) => entry.map(|(at, _)| (at, false)),
        }
    }

    /// Runs until no action or poll is queued (plus runnable cores
    /// drained), leaving the clock at the last one run. Returns the
    /// number of actions executed.
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
            if !matches!(self.next_due(), Some((at, _)) if at <= deadline) {
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

    /// The poll for `core` of the machine at `machine_index` came due,
    /// and has left its slot: service the core.
    fn run_poll(self: &Rc<Self>, machine_index: usize, core: CoreId) {
        let machine = self.machine(machine_index);
        let cs = machine.core_state(core);
        cs.polls.set(cs.polls.get() + 1);
        self.service_core(&machine, core);
    }

    /// Runs one pass of a core ([`runtime::Runtime::pass`]) until it is
    /// quiescent or becomes busy (charged time), then schedules its
    /// next poll from what the pass decided.
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
        let _on = runtime::enter(Arc::clone(&rt), core);
        let mut zero_passes = 0;
        let mut charged = 0;
        take_charge();
        // Passes go on at this instant until one charges time.
        let next = rt.pass(core, |progress| {
            charged = take_charge();
            if charged == 0 && progress.idle_invoked > 0 {
                // A polling pass that declared no cost still burns CPU.
                charged = MIN_POLL_NS;
            }
            zero_passes += usize::from(charged == 0);
            assert!(
                zero_passes < ZERO_COST_PASS_LIMIT,
                "runaway zero-cost event chain on {core} of machine {}",
                machine.index()
            );
            charged == 0
        });
        let busy_until = self.now() + charged;
        cs.busy_until.set(busy_until);
        cs.cpu_time.set(cs.cpu_time.get() + charged);
        let poll_at = match next {
            Next::Again | Next::Spin => Some(busy_until),
            Next::Sleep(deadline) => deadline.map(|d| d.max(busy_until)),
        };
        if let Some(at) = poll_at {
            self.schedule_core_poll(machine, core, at);
        }
    }

    /// Makes sure `core` of `machine` is serviced at `at` (clamped to
    /// now) or earlier. A poll in the core's slot due by then covers the
    /// request; otherwise the slot's poll moves to `at`, taking the next
    /// `seq` as a queue entry would.
    fn schedule_core_poll(&self, machine: &SimMachine, core: CoreId, at: Ns) {
        let at = at.max(self.now());
        let mut polls = self.polls.borrow_mut();
        let slot = polls.slot(machine.index(), core);
        if polls.queued_at(slot).is_some_and(|queued| queued <= at) {
            return;
        }
        polls.set(slot, (at, self.next_seq()));
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

    /// When the poll in `core`'s slot fires, if it holds one.
    fn queued_poll(w: &SimWorld, m: &SimMachine, core: CoreId) -> Option<Ns> {
        let polls = w.polls.borrow();
        polls.queued_at(polls.slot(m.index(), core))
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
        m.spawn(core, move || {
            runtime::with_current(|rt| {
                rt.local_event_manager().set_timer(FAR, move || {
                    f.fetch_add(1, Ordering::SeqCst);
                });
            });
        });
        // Servicing the spawn arms the timer and queues the far poll.
        w.drain_wake_queue();
        let cs = m.core_state(core);
        assert_eq!(queued_poll(&w, &m, core), Some(FAR));
        // N nearer polls, each moving the slot's poll earlier.
        for i in 0..N {
            w.schedule_core_poll(&m, core, FAR / 2 - i);
        }
        assert_eq!(w.queued(), 1);
        let steps = w.run_to_idle();
        assert_eq!(fired.load(Ordering::SeqCst), 1, "the timer fires once");
        // The nearest poll, then the far one it re-armed on finding
        // nothing to do.
        assert_eq!(steps, 2, "{steps} actions for {N} poll requests");
        assert_eq!(cs.polls.get(), 2, "the nearest poll and the timer's");
        assert_eq!(queued_poll(&w, &m, core), None);
    }

    #[test]
    fn a_replaced_poll_and_a_repeat_request_run_one_action() {
        let w = SimWorld::new();
        let m = one_core_machine(&w);
        let (core, cs) = (CoreId(0), m.core_state(CoreId(0)));
        w.schedule_core_poll(&m, core, 1_000);
        w.schedule_core_poll(&m, core, 500); // replaces the first
        assert_eq!(w.run_to_idle(), 1);
        assert_eq!(w.now(), 500, "nothing is left at t=1000");
        assert_eq!(cs.polls.get(), 1);
        // Asking twice for a poll at t=1000 queues it once.
        w.schedule_core_poll(&m, core, 1_000);
        w.schedule_core_poll(&m, core, 1_000);
        assert_eq!(w.run_to_idle(), 1, "one poll, one action");
        assert_eq!(w.now(), 1_000);
        assert_eq!(cs.polls.get(), 2);
    }

    /// The pattern of a halted core with a retransmission timer: it
    /// asks for a poll at the timer's deadline, an interrupt's work
    /// moves the poll earlier, and servicing that work asks for the
    /// far poll again.
    #[test]
    fn far_polls_moved_earlier_leave_one_poll_queued() {
        const FAR: Ns = 200_000_000;
        const WORK: Ns = 100;
        let w = SimWorld::new();
        let m = one_core_machine(&w);
        let core = CoreId(0);
        m.spawn(core, || {
            runtime::with_current(|rt| rt.local_event_manager().set_timer(FAR, || {}));
        });
        w.drain_wake_queue();
        for round in 0..10_000 {
            // Two events: the first leaves work pending, so the core
            // asks for a poll when it frees up, before the far one.
            for _ in 0..2 {
                m.spawn(core, || ebbrt_core::clock::charge(WORK));
            }
            w.run_until(w.now() + 2 * WORK);
            assert_eq!(queued_poll(&w, &m, core), Some(FAR), "round {round}");
            assert_eq!(w.queued(), 1, "round {round}");
        }
        assert!(
            w.queue.borrow().is_empty(),
            "the entry queue holds no polls"
        );
        assert_eq!(m.core_state(core).polls.get(), 10_000);
    }

    /// The poll slots pop in `(at, seq)` order however polls are added
    /// and moved earlier across cores.
    #[test]
    fn poll_slots_pop_in_key_order() {
        let mut slots = PollSlots::default();
        slots.add_machine(0, 5);
        slots.add_machine(1, 3);
        let mut model = std::collections::BTreeMap::new();
        let mut rng = 0x2545_f491_4f6c_dd1d_u64;
        for seq in 0..2_000 {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let slot = rng as usize % 8;
            let at = rng >> 54;
            if slots.queued_at(slot).is_none_or(|queued| at < queued) {
                model.retain(|_, s| *s != slot);
                model.insert((at, seq), slot);
                slots.set(slot, (at, seq));
            }
            if rng.is_multiple_of(3) {
                assert_eq!(slots.peek(), model.first_key_value().map(|(key, _)| *key));
                if let Some((_, slot)) = model.pop_first() {
                    let (machine, core) = slots.pop();
                    assert_eq!(slots.slot(machine, core), slot);
                }
            }
            assert_eq!(slots.len(), model.len());
        }
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
    fn a_queue_entry_stays_32_bytes() {
        // at + seq + a boxed closure's fat pointer: a frame's slot
        // sits beside the box's niche.
        assert_eq!(std::mem::size_of::<QEntry>(), 32);
    }
}
