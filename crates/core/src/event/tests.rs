use super::*;
use crate::clock::ManualClock;
use std::sync::atomic::AtomicUsize;

fn em() -> (EventManager, Arc<ManualClock>) {
    let clock = Arc::new(ManualClock::new());
    let epoch = Arc::new(CoreEpoch::new());
    (EventManager::new(CoreId(0), clock.clone(), epoch), clock)
}

#[test]
fn spawned_events_run_once_fifo() {
    let (em, _) = em();
    let _b = cpu::bind(CoreId(0));
    let log = Rc::new(std::cell::RefCell::new(Vec::new()));
    for i in 0..3 {
        let log = Rc::clone(&log);
        em.spawn_local(move || log.borrow_mut().push(i));
    }
    // One synthetic per pass.
    assert!(em.run_once().synthetic);
    assert_eq!(*log.borrow(), vec![0]);
    em.drain();
    assert_eq!(*log.borrow(), vec![0, 1, 2]);
    assert_eq!(em.drain(), 0);
}

#[test]
fn backlog_depth_tracks_queued_events_across_sources() {
    let (em, _) = em();
    let _b = cpu::bind(CoreId(0));
    assert_eq!(em.backlog_depth(), 0);
    em.spawn_local(|| ());
    em.spawn_local(|| ());
    em.spawn_remote(|| ());
    assert_eq!(em.backlog_depth(), 3);
    em.drain();
    assert_eq!(em.backlog_depth(), 0);
}

#[test]
fn interrupts_preempt_synthetic_in_pass_order() {
    let (em, _) = em();
    let _b = cpu::bind(CoreId(0));
    let log = Rc::new(std::cell::RefCell::new(Vec::new()));
    let l2 = Rc::clone(&log);
    let vec = em.allocate_vector(move || l2.borrow_mut().push("irq"));
    let l3 = Rc::clone(&log);
    em.spawn_local(move || l3.borrow_mut().push("synth"));
    em.interrupt_line(vec).raise();
    em.run_once();
    // The interrupt ran before the synthetic event in the same pass.
    assert_eq!(*log.borrow(), vec!["irq", "synth"]);
}

#[test]
fn idle_handlers_only_when_nothing_else() {
    let (em, _) = em();
    let _b = cpu::bind(CoreId(0));
    let idles = Rc::new(Cell::new(0));
    let i2 = Rc::clone(&idles);
    em.add_idle_handler(Rc::new(move || i2.set(i2.get() + 1)));
    em.spawn_local(|| ());
    let p = em.run_once();
    assert!(p.synthetic);
    assert_eq!(p.idle_invoked, 0, "idle must not run when events pending");
    let p = em.run_once();
    assert!(!p.synthetic);
    assert_eq!(p.idle_invoked, 1);
    assert_eq!(idles.get(), 1);
}

#[test]
fn idle_once_runs_once_and_does_not_turn_core_into_poller() {
    let (em, _) = em();
    let _b = cpu::bind(CoreId(0));
    let hits = Rc::new(Cell::new(0));
    let h2 = Rc::clone(&hits);
    em.add_idle_once(move || h2.set(h2.get() + 1));
    assert!(
        em.has_idle_handlers(),
        "queued one-shot keeps the core serviced"
    );
    // Pending synthetic events take priority; the one-shot waits.
    em.spawn_local(|| ());
    let p = em.run_once();
    assert!(p.synthetic);
    assert_eq!(hits.get(), 0, "idle stage skipped while events pend");
    let p = em.run_once();
    assert_eq!(p.idle_invoked, 1);
    assert_eq!(hits.get(), 1);
    assert!(!em.has_idle_handlers(), "consumed: the core may halt again");
    assert_eq!(em.run_once().idle_invoked, 0);
    assert_eq!(hits.get(), 1, "one-shot must not repeat");
}

#[test]
fn idle_once_queued_by_a_one_shot_runs_in_the_next_pass() {
    let em = Rc::new(em().0);
    let _b = cpu::bind(CoreId(0));
    let order = Rc::new(std::cell::RefCell::new(Vec::new()));
    for round in 0..3u32 {
        let (o1, o2, o3) = (Rc::clone(&order), Rc::clone(&order), Rc::clone(&order));
        let em2 = Rc::clone(&em);
        em.add_idle_once(move || {
            o1.borrow_mut().push((round, "first"));
            // Re-entrant: queued while the pass's batch is running.
            em2.add_idle_once(move || o3.borrow_mut().push((round, "nested")));
        });
        em.add_idle_once(move || o2.borrow_mut().push((round, "second")));
        let p = em.run_once();
        assert_eq!(
            p.idle_invoked, 2,
            "the nested one-shot waits for the next pass"
        );
        assert_eq!(
            *order.borrow(),
            vec![(round, "first"), (round, "second")],
            "queue order, nothing from the nested call yet"
        );
        assert!(
            em.has_idle_handlers(),
            "the nested one-shot is still queued"
        );
        let p = em.run_once();
        assert_eq!(p.idle_invoked, 1);
        assert_eq!(order.borrow().last(), Some(&(round, "nested")));
        assert!(!em.has_idle_handlers());
        order.borrow_mut().clear();
    }
    // Both vectors kept their storage across the rounds.
    em.owned
        .with(|o| assert!(o.idle_once.capacity() >= 1 && o.idle_once_spare.capacity() >= 1));
}

#[test]
fn a_polling_cores_idle_pass_calls_no_allocator() {
    let em = Rc::new(em().0);
    let _b = cpu::bind(CoreId(0));
    let polls = Rc::new(Cell::new(0u32));
    for _ in 0..3 {
        let p = Rc::clone(&polls);
        em.add_idle_handler(Rc::new(move || p.set(p.get() + 1)));
    }
    em.run_once(); // sizes the pass's snapshot
    let before = test_alloc::thread_calls();
    for _ in 0..100 {
        assert_eq!(em.run_once().idle_invoked, 3);
    }
    assert_eq!(test_alloc::thread_calls(), before, "100 idle passes");
    assert_eq!(polls.get(), 303);
    // A handler that removes itself still ran in its pass and is gone
    // from the next.
    let (em2, token) = (Rc::clone(&em), Rc::new(Cell::new(None)));
    let t2 = Rc::clone(&token);
    token.set(Some(em.add_idle_handler(Rc::new(move || {
        em2.remove_idle_handler(t2.get().expect("registered"));
    }))));
    assert_eq!(
        (em.run_once().idle_invoked, em.run_once().idle_invoked),
        (4, 3)
    );
}

#[test]
fn idle_handler_remove() {
    let (em, _) = em();
    let _b = cpu::bind(CoreId(0));
    let token = em.add_idle_handler(Rc::new(|| ()));
    assert!(em.has_idle_handlers());
    em.remove_idle_handler(token);
    assert!(!em.has_idle_handlers());
    assert_eq!(em.run_once().idle_invoked, 0);
}

#[test]
fn timers_fire_in_deadline_order() {
    let (em, clock) = em();
    let _b = cpu::bind(CoreId(0));
    let log = Rc::new(std::cell::RefCell::new(Vec::new()));
    let (l1, l2) = (Rc::clone(&log), Rc::clone(&log));
    em.set_timer(200, move || l1.borrow_mut().push("late"));
    em.set_timer(100, move || l2.borrow_mut().push("early"));
    assert_eq!(em.next_timer_deadline(), Some(100));
    em.run_once();
    assert!(log.borrow().is_empty());
    clock.set(150);
    em.run_once();
    assert_eq!(*log.borrow(), vec!["early"]);
    clock.set(250);
    em.run_once();
    assert_eq!(*log.borrow(), vec!["early", "late"]);
}

#[test]
fn cancelled_timer_does_not_fire() {
    let (em, clock) = em();
    let _b = cpu::bind(CoreId(0));
    let fired = Rc::new(Cell::new(false));
    let f2 = Rc::clone(&fired);
    let t = em.set_timer(100, move || f2.set(true));
    em.cancel_timer(t);
    clock.set(200);
    em.run_once();
    assert!(!fired.get());
    assert_eq!(em.next_timer_deadline(), None);
}

#[test]
fn reset_timer_pushes_deadline_out() {
    let (em, clock) = em();
    let _b = cpu::bind(CoreId(0));
    let fired = Rc::new(Cell::new(0u32));
    let f2 = Rc::clone(&fired);
    let t = em.set_timer(100, move || f2.set(f2.get() + 1));
    clock.set(50);
    assert!(em.reset_timer(t, 100)); // new deadline: 150
    clock.set(120);
    em.run_once();
    assert_eq!(fired.get(), 0, "old deadline must not fire");
    clock.set(150);
    em.run_once();
    assert_eq!(fired.get(), 1);
    // One-shot: firing freed the entry, and the token is stale.
    assert_eq!(em.timer_stats().live, 0);
    assert!(!em.reset_timer(t, 100));
}

#[test]
fn cancelled_timers_leave_no_tombstones() {
    // The old heap kept cancelled entries (and their boxed
    // handlers) until their deadline passed; the wheel frees them
    // on the spot — the leak class is gone by construction.
    let (em, clock) = em();
    let _b = cpu::bind(CoreId(0));
    let tokens: Vec<_> = (0..1000)
        .map(|i| em.set_timer(1_000_000 + i, move || ()))
        .collect();
    assert_eq!(em.timer_stats().live, 1000);
    for t in tokens {
        em.cancel_timer(t);
    }
    let stats = em.timer_stats();
    assert_eq!(stats.live, 0, "no entry survives its cancellation");
    assert_eq!(em.next_timer_deadline(), None);
    clock.set(2_000_000);
    assert_eq!(em.run_once().interrupts, 0, "nothing fires");
    // The freed entries are reused, not re-allocated.
    let _t = em.set_timer(10, || ());
    assert_eq!(em.timer_stats().slab, 1000);
}

#[test]
fn timer_handler_can_arm_due_timer_for_same_drain() {
    // A handler arming an already-due timer gets it dispatched in
    // the same drain, in deadline order — the heap's semantics.
    let clock = Arc::new(ManualClock::new());
    let epoch = Arc::new(CoreEpoch::new());
    let em = Rc::new(EventManager::new(CoreId(0), clock.clone(), epoch));
    let _b = cpu::bind(CoreId(0));
    let log = Rc::new(std::cell::RefCell::new(Vec::new()));
    let (em2, l2) = (Rc::clone(&em), Rc::clone(&log));
    em.set_timer(100, move || {
        l2.borrow_mut().push(1);
        let l3 = Rc::clone(&l2);
        em2.set_timer(0, move || l3.borrow_mut().push(2));
    });
    clock.set(100);
    em.run_once();
    assert_eq!(*log.borrow(), vec![1, 2]);
}

#[test]
#[should_panic(expected = "waker already registered")]
fn a_second_waker_registration_panics() {
    let (em, _) = em();
    em.register_waker(Arc::new(|| ()));
    em.register_waker(Arc::new(|| ()));
}

#[test]
fn no_spawn_from_plain_threads_is_lost() {
    const THREADS: usize = 4;
    let per_thread = if cfg!(miri) { 50 } else { 500 };
    let (em, _) = em();
    let wakes = Arc::new(AtomicUsize::new(0));
    let w = Arc::clone(&wakes);
    em.register_waker(Arc::new(move || {
        w.fetch_add(1, Ordering::SeqCst);
    }));
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| {
                for _ in 0..per_thread {
                    em.spawn_remote(|| ());
                }
            });
        }
    });
    assert_eq!(
        wakes.load(Ordering::SeqCst),
        THREADS * per_thread,
        "one wake per spawn"
    );
    let _b = cpu::bind(CoreId(0));
    assert_eq!(em.drain(), THREADS * per_thread, "no spawn lost");
}

#[test]
fn quiescent_counter_bumps_per_event() {
    let (em, _) = em();
    let _b = cpu::bind(CoreId(0));
    let q0 = em.quiescent_count();
    em.spawn_local(|| ());
    em.spawn_local(|| ());
    em.drain();
    assert_eq!(em.quiescent_count(), q0 + 2);
}

#[test]
fn remote_spawn_crosses_threads() {
    let (em, _) = em();
    let counter = Arc::new(AtomicUsize::new(0));
    let c2 = Arc::clone(&counter);
    std::thread::scope(|s| {
        s.spawn(|| {
            em.spawn_remote(move || {
                c2.fetch_add(1, Ordering::SeqCst);
            });
        });
    });
    let _b = cpu::bind(CoreId(0));
    em.drain();
    assert_eq!(counter.load(Ordering::SeqCst), 1);
}

#[test]
fn interrupt_line_from_device_thread() {
    let (em, _) = em();
    let _b = cpu::bind(CoreId(0));
    let hits = Rc::new(Cell::new(0));
    let h2 = Rc::clone(&hits);
    let v = em.allocate_vector(move || h2.set(h2.get() + 1));
    let line = em.interrupt_line(v);
    std::thread::spawn(move || {
        line.raise();
        line.raise();
    })
    .join()
    .unwrap();
    em.drain();
    assert_eq!(hits.get(), 2);
}

#[test]
fn freed_vector_is_reused_and_unbound() {
    let (em, _) = em();
    let _b = cpu::bind(CoreId(0));
    let v1 = em.allocate_vector(|| ());
    em.free_vector(v1);
    let line = em.interrupt_line(v1);
    line.raise();
    // No handler bound: raising is harmless and dispatches nothing.
    assert_eq!(em.run_once().interrupts, 0);
    let v2 = em.allocate_vector(|| ());
    assert_eq!(v1, v2);
}

#[test]
fn nested_spawn_from_handler() {
    let em = Rc::new(em().0);
    let _b = cpu::bind(CoreId(0));
    let done = Arc::new(AtomicBool::new(false));
    let (d, em2) = (Arc::clone(&done), Rc::clone(&em));
    em.spawn_local(move || {
        em2.spawn_remote(move || d.store(true, Ordering::SeqCst));
    });
    em.drain();
    assert!(done.load(Ordering::SeqCst));
}

#[test]
fn pending_work_reflects_queues_and_timers() {
    let (em, clock) = em();
    let _b = cpu::bind(CoreId(0));
    assert!(!em.pending_work());
    em.spawn_local(|| ());
    assert!(em.pending_work());
    em.drain();
    assert!(!em.pending_work());
    em.set_timer(100, || ());
    assert!(!em.pending_work());
    clock.set(100);
    assert!(em.pending_work());
}

#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "cross-core timer use")]
fn cross_core_timer_token_asserts_in_debug() {
    // The ARP-continuation class of bug: a timer token minted on
    // one core's manager used against another core's. Must assert,
    // not silently no-op or collide.
    let clock = Arc::new(ManualClock::new());
    let em0 = EventManager::new(CoreId(0), clock.clone(), Arc::new(CoreEpoch::new()));
    let em1 = EventManager::new(CoreId(1), clock, Arc::new(CoreEpoch::new()));
    let token = {
        let _b = cpu::bind(CoreId(0));
        em0.set_timer(100, || ())
    };
    let _b = cpu::bind(CoreId(1));
    em1.reset_timer(token, 100);
}

#[test]
fn exit_flag() {
    let (em, _) = em();
    assert!(!em.exit_requested());
    em.request_exit();
    assert!(em.exit_requested());
}

// --- OnceFn: the inline one-shot callable every event is ---------------

/// A capture that counts its drops.
struct Tracked<P>(Rc<Cell<u32>>, P);

impl<P> Drop for Tracked<P> {
    fn drop(&mut self) {
        self.0.set(self.0.get() + 1);
    }
}

/// Allocator calls `f` makes on this thread.
fn calls_in(f: impl FnOnce()) -> u64 {
    let before = test_alloc::thread_calls();
    f();
    test_alloc::thread_calls() - before
}

/// Every way an `OnceFn` can end, for a capture with padding `P`: called,
/// dropped uncalled, unwound out of. Returns the drop counts.
fn ends_of<P: Default + 'static>() -> [u32; 3] {
    let drops = Rc::new(Cell::new(0));
    let ran = Rc::new(Cell::new(false));
    let (t, r) = (Tracked(Rc::clone(&drops), P::default()), Rc::clone(&ran));
    EventHandler::new(move |()| {
        let _t = &t;
        r.set(true);
    })
    .call(());
    assert!(ran.get());
    let called = drops.replace(0);

    let t = Tracked(Rc::clone(&drops), P::default());
    drop(EventHandler::new(move |()| drop(t)));
    let uncalled = drops.replace(0);

    let t = Tracked(Rc::clone(&drops), P::default());
    let f = EventHandler::new(move |()| {
        let _t = &t;
        panic!("a handler that panics");
    });
    let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f.call(())));
    assert!(unwound.is_err());
    [called, uncalled, drops.get()]
}

#[test]
fn once_fn_drops_its_captures_exactly_once() {
    // Inline (an `Rc`) and boxed (an `Rc` and 64 bytes) alike.
    assert_eq!(ends_of::<()>(), [1, 1, 1]);
    assert_eq!(ends_of::<[u64; 8]>(), [1, 1, 1]);
}

#[test]
fn events_left_behind_drop_their_captures_exactly_once() {
    let (em, clock) = em();
    let _b = cpu::bind(CoreId(0));
    let drops = Rc::new(Cell::new(0));
    let ran = Rc::new(Cell::new(0));
    let track = || {
        let (t, r) = (Tracked(Rc::clone(&drops), ()), Rc::clone(&ran));
        move || {
            let _t = &t;
            r.set(r.get() + 1);
        }
    };
    // A cancelled one-shot timer drops its closure on the spot.
    let token = em.set_timer(100, track());
    em.cancel_timer(token);
    assert_eq!(drops.get(), 1);
    clock.set(200);
    em.run_once();
    assert_eq!((drops.get(), ran.get()), (1, 0));
    // Everything still queued goes with the manager: a spawned event,
    // an idle one-shot, a pending timer. (A `Send` event cannot carry
    // the `Rc`s; an `Arc` counts its owners instead.)
    em.spawn_local(track());
    em.add_idle_once(track());
    em.set_timer(1_000, track());
    let remote = Arc::new(());
    let r2 = Arc::clone(&remote);
    em.spawn_remote(move || drop(r2));
    drop(em);
    assert_eq!((drops.get(), ran.get()), (4, 0));
    assert_eq!(Arc::strong_count(&remote), 1);
}

thread_local! {
    /// Where closures that capture no handle report.
    static SEEN: Cell<u64> = const { Cell::new(0) };
}

#[test]
fn once_fn_takes_oversize_overaligned_and_zero_sized_closures() {
    #[repr(align(16))]
    struct Aligned(u64);
    fn add(x: u64) {
        SEEN.with(|c| c.set(c.get() + x));
    }
    // Zero-sized: a function item, and a closure that captures nothing.
    let calls = calls_in(|| {
        OnceFn::<u64, 2>::new(add).call(2);
        OnceFn::<u64, 2>::new(|x| add(x + 1)).call(3);
    });
    assert_eq!((calls, SEEN.with(Cell::get)), (0, 6));
    // Two words fit; a third goes to a box.
    let got = Rc::new(Cell::new(0u64));
    let g = Rc::clone(&got);
    assert_eq!(
        calls_in(|| OnceFn::<u64, 2>::new(move |x| g.set(x)).call(7)),
        0
    );
    let (g, big) = (Rc::clone(&got), [1u64, 2, 3]);
    let sum = move |x| g.set(x + big.iter().sum::<u64>());
    assert_eq!(calls_in(|| OnceFn::<u64, 2>::new(sum).call(10)), 1);
    assert_eq!(got.get(), 16);
    // So does a closure with more than word alignment, even one that
    // fits the words' size.
    let aligned = Aligned(40);
    let read = move |()| {
        assert_eq!(&aligned as *const Aligned as usize % 16, 0);
        add(aligned.0);
    };
    assert_eq!(std::mem::size_of_val(&read), 16);
    assert_eq!(calls_in(|| OnceFn::<(), 2>::new(read).call(())), 1);
    assert_eq!(SEEN.with(Cell::get), 46);
    // The width is the caller's: five words hold what two could not.
    let g = Rc::clone(&got);
    let calls = calls_in(|| OnceFn::<u64, 5>::new(move |x| g.set(x + big[2])).call(1));
    assert_eq!((calls, got.get()), (0, 4));
}

#[test]
fn one_shot_events_with_small_captures_call_no_allocator() {
    let (em, clock) = em();
    let _b = cpu::bind(CoreId(0));
    let local = Rc::new(Cell::new(0u64));
    let remote = Arc::new(AtomicU64::new(0));
    let round = |i: u64| {
        // Each closure captures 16 bytes: a handle and a word.
        let (l1, l2, l3) = (Rc::clone(&local), Rc::clone(&local), Rc::clone(&local));
        let r = Arc::clone(&remote);
        em.spawn_local(move || l1.set(l1.get() + i));
        em.spawn_remote(move || {
            r.fetch_add(i, Ordering::Relaxed);
        });
        em.add_idle_once(move || l2.set(l2.get() + i));
        em.set_timer(10, move || l3.set(l3.get() + i));
        clock.set(clock.now_ns() + 10);
        while em.run_once().any() {}
    };
    // Warm-up sizes the queues, the idle vectors and the timer slab.
    (0..100).for_each(round);
    let calls = calls_in(|| (0..100).for_each(round));
    assert_eq!(calls, 0, "100 rounds of four one-shot events");
    assert_eq!(
        (local.get(), remote.load(Ordering::Relaxed)),
        (6 * 4950, 2 * 4950)
    );
}

#[test]
fn a_one_shot_timer_slot_is_three_words() {
    // The wheel's handler slot: an event's inline words plus its
    // call/drop table, with no tag word beside them.
    assert_eq!(
        std::mem::size_of::<Option<EventHandler>>(),
        (EVENT_WORDS + 1) * std::mem::size_of::<usize>()
    );
}
