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
    em.add_idle_handler(move || {
        i2.set(i2.get() + 1);
        false
    });
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
    assert_eq!(p.idle_work, 1);
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
fn idle_handler_remove() {
    let (em, _) = em();
    let _b = cpu::bind(CoreId(0));
    let token = em.add_idle_handler(|| false);
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
    // One-shot: the token is stale after firing.
    assert!(!em.reset_timer(t, 100));
    assert!(!em.timer_armed(t));
}

#[test]
fn persistent_timer_survives_firing_and_rearms_without_alloc() {
    let (em, clock) = em();
    let _b = cpu::bind(CoreId(0));
    let fired = Rc::new(Cell::new(0u32));
    let f2 = Rc::clone(&fired);
    let t = em.set_persistent_timer(100, move || f2.set(f2.get() + 1));
    clock.set(100);
    em.run_once();
    assert_eq!(fired.get(), 1);
    // Still live (parked), not armed; the same entry re-arms.
    assert!(!em.timer_armed(t));
    assert_eq!(em.timer_stats().live, 1);
    assert!(em.reset_timer(t, 50));
    assert!(em.timer_armed(t));
    clock.set(150);
    em.run_once();
    assert_eq!(fired.get(), 2);
    em.cancel_timer(t);
    assert_eq!(em.timer_stats().live, 0);
    assert!(!em.reset_timer(t, 10), "cancelled token is stale");
}

#[test]
fn keyed_timers_share_one_handler_and_fire_with_their_own_key() {
    let (em, clock) = em();
    let _b = cpu::bind(CoreId(0));
    let log = Rc::new(std::cell::RefCell::new(Vec::new()));
    let l2 = Rc::clone(&log);
    let handler: KeyedTimerFn = Rc::new(move |key| l2.borrow_mut().push(key));
    let a = em.arm_keyed_timer(None, 100, &handler, 7);
    let b = em.arm_keyed_timer(None, 50, &handler, 9);
    // The entries hold the handler itself, not a box around it.
    assert_eq!(Rc::strong_count(&handler), 3);
    clock.set(100);
    em.run_once();
    assert_eq!(*log.borrow(), vec![9, 7]);
    // Re-arming through the token reuses the entry and its key.
    assert_eq!(em.arm_keyed_timer(Some(a), 10, &handler, 1234), a);
    assert_eq!(em.timer_stats().live, 2);
    clock.set(110);
    em.run_once();
    assert_eq!(*log.borrow(), vec![9, 7, 7]);
    em.cancel_timer(a);
    em.cancel_timer(b);
    assert_eq!(Rc::strong_count(&handler), 1);
    // A cancelled token makes the arm create a fresh entry.
    let c = em.arm_keyed_timer(Some(a), 10, &handler, 3);
    assert_ne!(c, a);
    em.cancel_timer(c);
}

#[test]
fn disarm_suspends_without_freeing() {
    let (em, clock) = em();
    let _b = cpu::bind(CoreId(0));
    let fired = Rc::new(Cell::new(false));
    let f2 = Rc::clone(&fired);
    let t = em.set_persistent_timer(100, move || f2.set(true));
    assert!(em.disarm_timer(t));
    clock.set(500);
    em.run_once();
    assert!(!fired.get());
    assert_eq!(em.timer_stats().live, 1, "handler retained while parked");
    assert!(em.reset_timer(t, 100)); // deadline 600
    clock.set(600);
    em.run_once();
    assert!(fired.get());
    em.cancel_timer(t);
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
    assert_eq!(stats.pending, 0);
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
fn waker_slot_swaps_without_locks() {
    let (em, _) = em();
    let hits = Arc::new(AtomicUsize::new(0));
    let h = Arc::clone(&hits);
    let w: Arc<dyn Fn() + Send + Sync> = Arc::new(move || {
        h.fetch_add(1, Ordering::SeqCst);
    });
    em.register_waker(Arc::clone(&w));
    // Re-registering the same Arc is the loop's per-pass pattern.
    em.register_waker(Arc::clone(&w));
    let spawner = em.spawner();
    spawner.spawn(|| ());
    assert_eq!(hits.load(Ordering::SeqCst), 1, "push wakes exactly once");
    // Replace with a fresh waker; the old one must not fire again.
    let h2 = Arc::new(AtomicUsize::new(0));
    let h3 = Arc::clone(&h2);
    em.register_waker(Arc::new(move || {
        h3.fetch_add(1, Ordering::SeqCst);
    }));
    spawner.spawn(|| ());
    assert_eq!(hits.load(Ordering::SeqCst), 1);
    assert_eq!(h2.load(Ordering::SeqCst), 1);
}

#[test]
fn waker_registered_during_a_wake_wins() {
    let (em, _) = em();
    let shared = Arc::clone(&em.shared);
    let (old_hits, new_hits) = (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0)));
    let n = Arc::clone(&new_hits);
    let replacement: Arc<dyn Fn() + Send + Sync> = Arc::new(move || {
        n.fetch_add(1, Ordering::SeqCst);
    });
    // The first waker re-registers from inside its own wake, while
    // `wake` holds the slot's box and the slot is empty.
    let (o, s, r) = (
        Arc::clone(&old_hits),
        Arc::clone(&shared),
        Arc::clone(&replacement),
    );
    em.register_waker(Arc::new(move || {
        o.fetch_add(1, Ordering::SeqCst);
        s.waker.store(Arc::clone(&r));
    }));
    shared.wake();
    // `wake` tried to put the old box back, lost to the new value,
    // and freed the old waker (and with it its clone of `r`).
    assert_eq!(Arc::strong_count(&replacement), 2, "ours and the slot's");
    shared.wake();
    shared.wake();
    assert_eq!(old_hits.load(Ordering::SeqCst), 1);
    assert_eq!(new_hits.load(Ordering::SeqCst), 2);
}

#[test]
fn concurrent_wakes_and_registers_are_safe() {
    let (em, _) = em();
    let hits = Arc::new(AtomicUsize::new(0));
    let spawner = em.spawner();
    let mut threads = Vec::new();
    let per_thread = if cfg!(miri) { 50 } else { 500 };
    for _ in 0..4 {
        let s = spawner.clone();
        threads.push(std::thread::spawn(move || {
            for _ in 0..per_thread {
                s.spawn(|| ());
            }
        }));
    }
    for _ in 0..4 {
        let h = Arc::clone(&hits);
        let em_waker: Arc<dyn Fn() + Send + Sync> = Arc::new(move || {
            h.fetch_add(1, Ordering::SeqCst);
        });
        // Racing re-registration against the wakers.
        em.register_waker(Arc::clone(&em_waker));
    }
    for t in threads {
        t.join().unwrap();
    }
    let _b = cpu::bind(CoreId(0));
    assert_eq!(
        em.drain(),
        4 * per_thread,
        "no spawn lost despite waker races"
    );
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
    let spawner = em.spawner();
    let counter = Arc::new(AtomicUsize::new(0));
    let c2 = Arc::clone(&counter);
    std::thread::spawn(move || {
        spawner.spawn(move || {
            c2.fetch_add(1, Ordering::SeqCst);
        });
    })
    .join()
    .unwrap();
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
    let (em, _) = em();
    let _b = cpu::bind(CoreId(0));
    let done = Arc::new(AtomicBool::new(false));
    let d = Arc::clone(&done);
    let spawner = em.spawner();
    em.spawn_local(move || {
        let d = Arc::clone(&d);
        spawner.spawn(move || d.store(true, Ordering::SeqCst));
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
        em0.set_persistent_timer(100, || ())
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
