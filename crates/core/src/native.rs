//! The threaded native backend: runs one EbbRT machine on real OS
//! threads, one per core.
//!
//! This backend plays the role of the paper's bare-metal environment for
//! everything that needs *real* parallelism — the allocator scalability
//! experiment (Figure 3), multi-core Ebb behaviour, cooperative blocking.
//! (The deterministic virtual-time backend used for the networked
//! experiments lives in the `ebbrt-sim` crate.)
//!
//! Each core thread drives its core through
//! [`crate::runtime::Runtime::pass`], one dispatch pass at a time, and
//! does what the pass decides: pass again while work is queued; spin
//! while idle handlers are installed (a polling core genuinely burns its
//! CPU, as on hardware); otherwise park until a device raises an
//! interrupt, a remote spawn arrives, or the next timer is due. Every
//! pass ends with an RCU reclaim, polling or not.
//!
//! Cooperative blocking is implemented by *loop handoff*: when an event
//! calls [`crate::event::EventManager::save_context`], its thread keeps
//! the suspended stack and a successor thread takes over the loop; on
//! activation the roles reverse. At most one thread dispatches for a
//! given core at any time.

use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

use crate::clock::{Clock, RealClock};
use crate::cpu::CoreId;
use crate::event::Next;
use crate::runtime::{self, Runtime};

/// A booted machine backed by OS threads.
pub struct NativeMachine {
    rt: Arc<Runtime>,
    threads: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
}

impl NativeMachine {
    /// Boots a machine with `ncores` cores on the wall clock.
    pub fn boot(ncores: usize) -> Self {
        Self::boot_with_clock(ncores, Arc::new(RealClock::new()))
    }

    /// Boots a machine with an explicit clock.
    pub fn boot_with_clock(ncores: usize, clock: Arc<dyn Clock>) -> Self {
        let rt = Runtime::new(ncores, clock);
        let threads = Arc::new(Mutex::new(Vec::new()));
        // Every core gets one parker, which its waker unparks and all its
        // runners park on, and a successor spawner so save_context
        // works; then its first runner starts.
        for i in 0..ncores {
            let core = CoreId(i as u32);
            let em = rt.event_manager(core);
            let parker = Arc::new(Parker::default());
            let unpark = Arc::clone(&parker);
            em.register_waker(Arc::new(move || unpark.unpark()));
            // The spawner runs inside save_context, on an entered core:
            // it takes the runtime from there, as holding it would keep
            // the runtime alive from inside its own event manager.
            let spawn_parker = Arc::clone(&parker);
            let spawn_threads = Arc::clone(&threads);
            em.register_successor_spawner(Arc::new(move || {
                let (rt, parker) = (runtime::current(), Arc::clone(&spawn_parker));
                let h = std::thread::Builder::new()
                    .name(format!("ebbrt-{core}-succ"))
                    .spawn(move || core_loop(rt, core, &parker))
                    .expect("failed to spawn successor core thread");
                crate::lock(&spawn_threads).push(h);
            }));
            let rt2 = Arc::clone(&rt);
            let h = std::thread::Builder::new()
                .name(format!("ebbrt-{core}"))
                .spawn(move || core_loop(rt2, core, &parker))
                .expect("failed to spawn core thread");
            crate::lock(&threads).push(h);
        }
        NativeMachine { rt, threads }
    }

    /// The machine's runtime.
    pub fn runtime(&self) -> &Arc<Runtime> {
        &self.rt
    }

    /// Queues `f` as an event on `core`.
    pub fn spawn(&self, core: CoreId, f: impl FnOnce() + Send + 'static) {
        self.rt.spawn(core, f);
    }

    /// Requests exit on all cores and joins every loop thread.
    ///
    /// All saved event contexts must have been resumed first; a context
    /// still parked in `save_context` would never exit.
    pub fn shutdown(self) {
        self.rt.request_exit_all();
        // Successor threads may still be registered while we join; drain
        // until the list stays empty.
        loop {
            let batch: Vec<_> = crate::lock(&self.threads).drain(..).collect();
            if batch.is_empty() {
                break;
            }
            for h in batch {
                let _ = h.join();
            }
        }
    }

    /// Boots `ncores`, runs `main` as the first event on core 0, shuts
    /// the machine down when `main` returns, and yields its result.
    ///
    /// `main` runs inside the event loop: it may use Ebbs, spawn events
    /// on any core, and wait on a [`crate::future::Future`] via
    /// [`crate::event::block_on`].
    pub fn run<R: Send + 'static>(ncores: usize, main: impl FnOnce() -> R + Send + 'static) -> R {
        let machine = Self::boot(ncores);
        let (tx, rx) = std::sync::mpsc::channel();
        machine.spawn(CoreId(0), move || {
            let result = main();
            runtime::with_current(|rt| rt.request_exit_all());
            let _ = tx.send(result);
        });
        let result = rx.recv().expect("main event panicked before returning");
        machine.shutdown();
        result
    }
}

/// Where every runner of one core parks: a wake token and a condvar.
/// The core's waker sets the token, so a wake that arrives before the
/// park is kept, and checking for work, then parking, loses none.
#[derive(Default)]
struct Parker {
    token: Mutex<bool>,
    cv: Condvar,
}

impl Parker {
    fn unpark(&self) {
        *crate::lock(&self.token) = true;
        self.cv.notify_one();
    }

    /// Waits for the token, at most `timeout` if one is given, then
    /// clears it.
    fn park(&self, timeout: Option<Duration>) {
        let token = crate::lock(&self.token);
        let unwoken = |woken: &mut bool| !*woken;
        let mut token = match timeout {
            Some(t) => {
                let waited = self.cv.wait_timeout_while(token, t, unwoken);
                waited.unwrap_or_else(PoisonError::into_inner).0
            }
            None => self
                .cv
                .wait_while(token, unwoken)
                .unwrap_or_else(PoisonError::into_inner),
        };
        *token = false;
    }
}

/// The per-core dispatch loop (also run by successor threads during
/// cooperative-blocking handoffs).
fn core_loop(rt: Arc<Runtime>, core: CoreId, parker: &Parker) {
    let _guard = runtime::enter(Arc::clone(&rt), core);
    let em = rt.event_manager(core);
    while !em.exit_requested() {
        let next = rt.pass(core, |_| false);
        if let Some(ctx) = em.take_handoff() {
            // A saved context resumes; this thread stops dispatching.
            ctx.signal();
            return;
        }
        match next {
            Next::Again => {}
            // A polling core spins (the paper's idle-handler semantics).
            Next::Spin => core::hint::spin_loop(),
            // A wake since the pass decided left the token set, and the
            // park returns at once; a spurious return passes again.
            Next::Sleep(deadline) => {
                parker.park(deadline.map(|d| Duration::from_nanos(d.saturating_sub(rt.now_ns()))))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::Ns;
    use crate::cpu;
    use crate::event::block_on;
    use crate::future::promise;
    use std::rc::Rc;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn run_executes_main_on_core0() {
        let core = NativeMachine::run(2, cpu::current);
        assert_eq!(core, CoreId(0));
    }

    #[test]
    fn events_run_on_all_cores_in_parallel() {
        let n = 4;
        let result = NativeMachine::run(n, move || {
            let rt = runtime::current();
            let barrier = Arc::new(std::sync::Barrier::new(n));
            let seen = Arc::new(AtomicUsize::new(0));
            let futures: Vec<_> = (0..n)
                .map(|i| {
                    let (p, f) = promise::<u32>();
                    let barrier = Arc::clone(&barrier);
                    let seen = Arc::clone(&seen);
                    rt.spawn(CoreId(i as u32), move || {
                        // All cores must be inside this event at once for
                        // the barrier to release: proves parallelism.
                        barrier.wait();
                        seen.fetch_add(1, Ordering::SeqCst);
                        p.set_value(cpu::current().0);
                    });
                    f
                })
                .collect();
            let cores: Vec<u32> = futures.into_iter().map(block_on).collect();
            (cores, seen.load(Ordering::SeqCst))
        });
        let (mut cores, seen) = result;
        cores.sort();
        assert_eq!(cores, vec![0, 1, 2, 3]);
        assert_eq!(seen, 4);
    }

    #[test]
    fn block_on_future_completed_by_remote_core() {
        let v = NativeMachine::run(2, || {
            let rt = runtime::current();
            let (p, f) = promise::<&'static str>();
            rt.spawn(CoreId(1), move || p.set_value("from core 1"));
            block_on(f)
        });
        assert_eq!(v, "from core 1");
    }

    #[test]
    fn block_on_ready_future_is_fast_path() {
        let v = NativeMachine::run(1, || {
            let (p, f) = promise();
            p.set_value(7);
            block_on(f)
        });
        assert_eq!(v, 7);
    }

    #[test]
    fn block_on_timer_on_same_core() {
        let v = NativeMachine::run(1, || {
            let rt = runtime::current();
            let (p, f) = promise::<u8>();
            rt.local_event_manager()
                .set_timer(1_000_000, move || p.set_value(9));
            block_on(f)
        });
        assert_eq!(v, 9);
    }

    #[test]
    fn a_timer_reset_from_another_event_fires_once_at_its_new_deadline() {
        let ((reset_at, reset), fired_at, fires, live) = NativeMachine::run(1, || {
            let rt = runtime::current();
            let fires = Arc::new(AtomicUsize::new(0));
            let f2 = Arc::clone(&fires);
            let (fired_p, fired) = promise::<Ns>();
            // Ten seconds out: only the reset can make it fire here.
            let token = rt.local_event_manager().set_timer(10_000_000_000, move || {
                f2.fetch_add(1, Ordering::SeqCst);
                fired_p.set_value(runtime::current().now_ns());
            });
            let (reset_p, reset) = promise::<(Ns, bool)>();
            rt.spawn(CoreId(0), move || {
                let rt = runtime::current();
                let at = rt.now_ns();
                reset_p.set_value((at, rt.local_event_manager().reset_timer(token, 5_000_000)));
            });
            let reset = block_on(reset);
            let fired_at = block_on(fired);
            let live = rt.local_event_manager().timer_stats().live;
            (reset, fired_at, fires.load(Ordering::SeqCst), live)
        });
        assert!(reset, "the pending token was stale");
        assert!(
            fired_at >= reset_at + 5_000_000,
            "fired before its new deadline"
        );
        assert_eq!((fires, live), (1, 0), "fires once, then holds no entry");
    }

    #[test]
    fn a_cancelled_timer_never_fires() {
        let (fires, live) = NativeMachine::run(1, || {
            let rt = runtime::current();
            let em = rt.local_event_manager();
            let fires = Arc::new(AtomicUsize::new(0));
            let f2 = Arc::clone(&fires);
            let token = em.set_timer(1_000_000, move || {
                f2.fetch_add(1, Ordering::SeqCst);
            });
            em.cancel_timer(token);
            // Wait past the cancelled deadline on a timer of our own.
            let (past_p, past) = promise::<()>();
            em.set_timer(5_000_000, move || past_p.set_value(()));
            block_on(past);
            (fires.load(Ordering::SeqCst), em.timer_stats().live)
        });
        assert_eq!((fires, live), (0, 0), "never fires, holds no entry");
    }

    #[test]
    fn core_continues_dispatching_while_event_blocked() {
        // An event blocks on core 0; another event must still run on
        // core 0 (the successor thread keeps the loop alive) and resume
        // the blocked one.
        let log = NativeMachine::run(1, || {
            let rt = runtime::current();
            let (p, f) = promise::<()>();
            let order = Arc::new(Mutex::new(Vec::new()));
            let o2 = Arc::clone(&order);
            rt.spawn(CoreId(0), move || {
                o2.lock().unwrap().push("other event ran");
                p.set_value(());
            });
            order.lock().unwrap().push("blocking");
            block_on(f);
            order.lock().unwrap().push("resumed");
            Arc::try_unwrap(order).unwrap().into_inner().unwrap()
        });
        assert_eq!(log, vec!["blocking", "other event ran", "resumed"]);
    }

    #[test]
    fn nested_blocking() {
        let v = NativeMachine::run(2, || {
            let rt = runtime::current();
            let (p_outer, f_outer) = promise::<u32>();
            rt.spawn(CoreId(1), move || {
                // The remote event itself blocks before completing.
                let (p_inner, f_inner) = promise::<u32>();
                let rt = runtime::current();
                rt.spawn(CoreId(0), move || p_inner.set_value(20));
                let inner = block_on(f_inner);
                p_outer.set_value(inner + 1);
            });
            block_on(f_outer)
        });
        assert_eq!(v, 21);
    }

    /// Retires one item from core 0's first event, then blocks on 1 ms
    /// timers, up to 50 times, until the loop has reclaimed it; returns
    /// what is still pending. `poll` installs a no-op idle handler
    /// first, which turns core 0 into a polling core.
    fn pending_after_blocks(poll: bool) -> usize {
        NativeMachine::run(1, move || {
            let rt = runtime::current();
            if poll {
                rt.local_event_manager().add_idle_handler(Rc::new(|| {}));
            }
            rt.rcu().retire(vec![0u8; 16]);
            let domain = Arc::clone(rt.rcu());
            // The timer blocks give the loop passes, each of which ends
            // with a reclaim; a pass that finds core 0 still inside the
            // retiring event reclaims nothing, so retry.
            let mut pending = domain.pending_count();
            for _ in 0..50 {
                if pending == 0 {
                    break;
                }
                let (p, f) = promise::<()>();
                rt.local_event_manager()
                    .set_timer(1_000_000, move || p.set_value(()));
                block_on(f);
                pending = domain.pending_count();
            }
            pending
        })
    }

    #[test]
    fn rcu_reclaim_driven_by_loop() {
        assert_eq!(pending_after_blocks(false), 0);
    }

    #[test]
    fn rcu_reclaim_while_polling() {
        assert_eq!(pending_after_blocks(true), 0);
    }

    /// Nothing outside the machine's own threads holds its runtime, so
    /// once they are joined the runtime is freed.
    #[test]
    fn a_shut_down_machine_frees_its_runtime() {
        let machine = NativeMachine::boot(1);
        let rt = Arc::downgrade(machine.runtime());
        machine.shutdown();
        assert!(rt.upgrade().is_none(), "the runtime outlived its machine");
    }

    #[test]
    fn many_cross_core_messages() {
        let total = NativeMachine::run(4, || {
            let rt = runtime::current();
            let counter = Arc::new(AtomicUsize::new(0));
            let futures: Vec<_> = (0..100)
                .map(|i| {
                    let (p, f) = promise::<()>();
                    let counter = Arc::clone(&counter);
                    rt.spawn(CoreId(i % 4), move || {
                        counter.fetch_add(1, Ordering::Relaxed);
                        p.set_value(());
                    });
                    f
                })
                .collect();
            futures.into_iter().for_each(block_on);
            counter.load(Ordering::Relaxed)
        });
        assert_eq!(total, 100);
    }

    /// Spawns from plain threads, none entered into the runtime, in
    /// bursts of 64 per thread. Between bursts nobody spawns until every
    /// event so far has run, then everyone pauses long enough for both
    /// cores to park: every burst's last spawn must wake its core,
    /// whether the unpark lands before the park or wakes a parked
    /// thread. A lost wake leaves an event queued on a core parked with
    /// no timer and nothing to rescue it, and the wait times out.
    #[test]
    fn spawns_from_plain_threads_wake_parked_cores() {
        const THREADS: usize = 4;
        const PER_THREAD: usize = 5_000;
        const BURST: usize = 64;
        let machine = NativeMachine::boot(2);
        let rt = Arc::clone(machine.runtime());
        let ran = Arc::new(AtomicUsize::new(0));
        // The producers and this thread, which checks between bursts.
        let barrier = Arc::new(std::sync::Barrier::new(THREADS + 1));
        let producers: Vec<_> = (0..THREADS)
            .map(|t| {
                let (rt, ran, barrier) = (Arc::clone(&rt), Arc::clone(&ran), Arc::clone(&barrier));
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        let ran = Arc::clone(&ran);
                        rt.spawn(CoreId(((t + i) % 2) as u32), move || {
                            ran.fetch_add(1, Ordering::SeqCst);
                        });
                        if i % BURST == BURST - 1 || i + 1 == PER_THREAD {
                            barrier.wait(); // burst queued
                            barrier.wait(); // checked; cores parked
                        }
                    }
                })
            })
            .collect();
        for spawned in (BURST..PER_THREAD + BURST).step_by(BURST) {
            barrier.wait();
            let due = THREADS * spawned.min(PER_THREAD);
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            while ran.load(Ordering::SeqCst) < due {
                assert!(
                    std::time::Instant::now() < deadline,
                    "{} of {due} events ran within 10 s: a wake was lost",
                    ran.load(Ordering::SeqCst),
                );
                std::thread::yield_now();
            }
            std::thread::sleep(Duration::from_micros(50));
            barrier.wait();
        }
        for p in producers {
            p.join().unwrap();
        }
        for em in rt.event_managers() {
            assert!(!em.pending_work(), "{} still has queued work", em.core());
        }
        machine.shutdown();
    }

    #[test]
    fn the_parker_keeps_one_token() {
        let parker = Parker::default();
        parker.unpark();
        let start = std::time::Instant::now();
        parker.park(Some(Duration::from_secs(10)));
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "a wake before the park was lost"
        );
        parker.unpark();
        parker.unpark();
        parker.park(None);
        let start = std::time::Instant::now();
        parker.park(Some(Duration::from_millis(20)));
        assert!(
            start.elapsed() >= Duration::from_millis(20),
            "two wakes left a token behind"
        );
    }

    /// Core 0's first runner is suspended in `block_on` while plain
    /// threads spawn onto core 0: only the successor runner can run the
    /// events, and it parks on the parker the core's waker unparks.
    #[test]
    fn wakes_reach_a_successor_runner() {
        const THREADS: usize = 4;
        const PER_THREAD: usize = 1_000;
        let machine = NativeMachine::boot(1);
        let rt = Arc::clone(machine.runtime());
        let (release, released) = promise::<()>();
        let (blocking_p, blocking) = std::sync::mpsc::channel();
        let (returned_p, returned) = std::sync::mpsc::channel();
        rt.spawn(CoreId(0), move || {
            blocking_p.send(()).unwrap();
            block_on(released);
            returned_p.send(()).unwrap();
        });
        blocking.recv().unwrap();
        // Long enough for the successor to find nothing and park, so the
        // first spawn must wake a parked runner; without the pause the
        // test still checks that every event runs.
        std::thread::sleep(Duration::from_millis(20));
        let ran = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    for _ in 0..PER_THREAD {
                        let ran = Arc::clone(&ran);
                        rt.spawn(CoreId(0), move || {
                            ran.fetch_add(1, Ordering::SeqCst);
                        });
                    }
                });
            }
        });
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while ran.load(Ordering::SeqCst) < THREADS * PER_THREAD {
            assert!(
                std::time::Instant::now() < deadline,
                "{} of {} events ran within 10 s: a wake missed the successor",
                ran.load(Ordering::SeqCst),
                THREADS * PER_THREAD,
            );
            std::thread::yield_now();
        }
        release.set_value(());
        returned
            .recv_timeout(Duration::from_secs(10))
            .expect("the suspended event never returned");
        assert!(!rt.event_manager(CoreId(0)).pending_work());
        machine.shutdown();
    }
}
