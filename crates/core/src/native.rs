//! The threaded native backend: runs one EbbRT machine on real OS
//! threads, one per core.
//!
//! This backend plays the role of the paper's bare-metal environment for
//! everything that needs *real* parallelism — the allocator scalability
//! experiment (Figure 3), multi-core Ebb behaviour, cooperative blocking.
//! (The deterministic virtual-time backend used for the networked
//! experiments lives in the `ebbrt-sim` crate.)
//!
//! Each core thread runs the dispatch loop of
//! [`crate::event::EventManager`]: it drains interrupts, synthetic
//! events and timers; spins while idle handlers are installed (a polling
//! core genuinely burns its CPU, as on hardware); and otherwise parks
//! until a device raises an interrupt, a remote spawn arrives, or the
//! next timer is due.
//!
//! Cooperative blocking is implemented by *loop handoff*: when an event
//! calls [`crate::event::EventManager::save_context`], its thread keeps
//! the suspended stack and a successor thread takes over the loop; on
//! activation the roles reverse. At most one thread dispatches for a
//! given core at any time.

use std::sync::Arc;
use std::time::Duration;

use crossbeam::sync::Parker;
use parking_lot::Mutex;

use crate::clock::{Clock, RealClock};
use crate::cpu::CoreId;
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
        // Install successor spawners so save_context works, then start
        // the initial runner for every core.
        for i in 0..ncores {
            let core = CoreId(i as u32);
            let em = rt.event_manager(core);
            let spawn_rt = Arc::clone(&rt);
            let spawn_threads = Arc::clone(&threads);
            em.register_successor_spawner(Arc::new(move || {
                let rt = Arc::clone(&spawn_rt);
                let h = std::thread::Builder::new()
                    .name(format!("ebbrt-{core}-succ"))
                    .spawn(move || core_loop(rt, core))
                    .expect("failed to spawn successor core thread");
                spawn_threads.lock().push(h);
            }));
        }
        for i in 0..ncores {
            let core = CoreId(i as u32);
            let rt2 = Arc::clone(&rt);
            let h = std::thread::Builder::new()
                .name(format!("ebbrt-{core}"))
                .spawn(move || core_loop(rt2, core))
                .expect("failed to spawn core thread");
            threads.lock().push(h);
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
            let batch: Vec<_> = {
                let mut t = self.threads.lock();
                t.drain(..).collect()
            };
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

/// The per-core dispatch loop (also run by successor threads during
/// cooperative-blocking handoffs).
fn core_loop(rt: Arc<Runtime>, core: CoreId) {
    let _guard = runtime::enter(Arc::clone(&rt), core);
    let em = rt.event_manager(core);
    let parker = Parker::new();
    let unparker = parker.unparker().clone();
    let waker: Arc<dyn Fn() + Send + Sync> = Arc::new(move || unparker.unpark());
    loop {
        if em.exit_requested() {
            return;
        }
        // (Re-)register our waker *before* checking for work so a raise
        // between the check and the park still wakes us. A previous
        // runner's waker may be installed after a handoff.
        em.register_waker(Arc::clone(&waker));
        let progress = em.run_once();
        if let Some(ctx) = em.take_handoff() {
            // A saved context resumes; this thread stops dispatching.
            ctx.signal();
            return;
        }
        if progress.any() {
            continue;
        }
        rt.rcu().try_reclaim();
        if em.pending_work() {
            continue;
        }
        if em.has_idle_handlers() {
            // A polling core spins (the paper's idle-handler semantics).
            core::hint::spin_loop();
            continue;
        }
        match em.next_timer_deadline() {
            Some(deadline) => {
                let now = rt.now_ns();
                if deadline > now {
                    parker.park_timeout(Duration::from_nanos(deadline - now));
                }
            }
            None => parker.park(),
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
    use crate::spinlock::SpinBarrier;
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
            let barrier = Arc::new(SpinBarrier::new(n));
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
                o2.lock().push("other event ran");
                p.set_value(());
            });
            order.lock().push("blocking");
            block_on(f);
            order.lock().push("resumed");
            Arc::try_unwrap(order).unwrap().into_inner()
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

    #[test]
    fn rcu_reclaim_driven_by_loop() {
        let pending = NativeMachine::run(1, || {
            let rt = runtime::current();
            rt.rcu().retire(vec![0u8; 16]);
            let domain = Arc::clone(rt.rcu());
            // Timer blocks give the loop idle passes (where it runs
            // try_reclaim). Under load a pass may be skipped, so retry.
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
        });
        assert_eq!(pending, 0);
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
}
