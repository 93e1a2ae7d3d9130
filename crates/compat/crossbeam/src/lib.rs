//! Minimal API-compatible stand-in for the `crossbeam` crate.
//!
//! Provides the two pieces this workspace uses: `queue::SegQueue` (an
//! unbounded MPMC queue) and `sync::Parker`/`Unparker` (thread
//! parking). The implementations favour simplicity over the real
//! crate's lock-freedom — a mutexed deque and a condvar — which is
//! plenty for the event-manager wakeup paths they serve here.

/// Concurrent queues.
pub mod queue {
    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Mutex, MutexGuard};

    /// An unbounded MPMC FIFO queue (mutexed stand-in for crossbeam's
    /// segmented lock-free queue). The length is mirrored in an atomic
    /// beside the mutex, so asking an empty queue whether it has
    /// anything — what an event loop does several times per pass —
    /// is one load and never takes the lock.
    pub struct SegQueue<T> {
        inner: Mutex<VecDeque<T>>,
        /// Items in `inner`. Written only with the lock held, after
        /// the item is in place, so a reader that sees a non-zero
        /// length finds the item. `SeqCst` on both sides: a consumer
        /// that publishes "about to sleep" (a `SeqCst` write elsewhere)
        /// and then reads an empty length here is ordered before the
        /// push, so the pusher's later `SeqCst` read sees the consumer's
        /// announcement — the guarantee the mutex used to give the
        /// register-then-check wake-up pattern.
        len: AtomicUsize,
    }

    impl<T> SegQueue<T> {
        /// Creates an empty queue.
        pub const fn new() -> Self {
            SegQueue {
                inner: Mutex::new(VecDeque::new()),
                len: AtomicUsize::new(0),
            }
        }

        fn lock(&self) -> MutexGuard<'_, VecDeque<T>> {
            self.inner
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
        }

        /// Pushes onto the back.
        pub fn push(&self, value: T) {
            let mut q = self.lock();
            q.push_back(value);
            self.len.store(q.len(), Ordering::SeqCst);
        }

        /// Pops from the front.
        pub fn pop(&self) -> Option<T> {
            if self.is_empty() {
                return None;
            }
            let mut q = self.lock();
            let value = q.pop_front();
            self.len.store(q.len(), Ordering::SeqCst);
            value
        }

        /// Whether the queue is empty.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        /// Number of queued items.
        pub fn len(&self) -> usize {
            self.len.load(Ordering::SeqCst)
        }
    }

    impl<T> Default for SegQueue<T> {
        fn default() -> Self {
            SegQueue::new()
        }
    }
}

/// Thread synchronization utilities.
pub mod sync {
    use std::sync::{Arc, Condvar, Mutex, PoisonError};
    use std::time::Duration;

    struct ParkState {
        /// A token is deposited by `unpark` and consumed by `park`.
        token: Mutex<bool>,
        cv: Condvar,
    }

    /// Parks the owning thread until an [`Unparker`] wakes it.
    pub struct Parker {
        state: Arc<ParkState>,
        unparker: Unparker,
    }

    /// Wakes the matching [`Parker`]'s thread.
    #[derive(Clone)]
    pub struct Unparker {
        state: Arc<ParkState>,
    }

    impl Parker {
        /// Creates a parker/unparker pair.
        pub fn new() -> Self {
            let state = Arc::new(ParkState {
                token: Mutex::new(false),
                cv: Condvar::new(),
            });
            Parker {
                unparker: Unparker {
                    state: Arc::clone(&state),
                },
                state,
            }
        }

        /// The paired unparker.
        pub fn unparker(&self) -> &Unparker {
            &self.unparker
        }

        /// Blocks until a token is available (tokens do not accumulate:
        /// one park consumes at most one unpark).
        pub fn park(&self) {
            let mut token = self
                .state
                .token
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            while !*token {
                token = self
                    .state
                    .cv
                    .wait(token)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            *token = false;
        }

        /// Blocks until a token is available or `timeout` elapses.
        pub fn park_timeout(&self, timeout: Duration) {
            let deadline = std::time::Instant::now() + timeout;
            let mut token = self
                .state
                .token
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            while !*token {
                let now = std::time::Instant::now();
                if now >= deadline {
                    return;
                }
                let (t, _) = self
                    .state
                    .cv
                    .wait_timeout(token, deadline - now)
                    .unwrap_or_else(PoisonError::into_inner);
                token = t;
            }
            *token = false;
        }
    }

    impl Default for Parker {
        fn default() -> Self {
            Parker::new()
        }
    }

    impl Unparker {
        /// Deposits a wake token, waking a parked thread if any.
        pub fn unpark(&self) {
            *self
                .state
                .token
                .lock()
                .unwrap_or_else(PoisonError::into_inner) = true;
            self.state.cv.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::queue::SegQueue;
    use super::sync::Parker;
    use std::time::Duration;

    #[test]
    fn queue_is_fifo() {
        let q = SegQueue::new();
        q.push(1);
        q.push(2);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn concurrent_push_pop_neither_loses_nor_duplicates() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        const PER_THREAD: usize = 5_000;
        const THREADS: usize = 4;
        let q = Arc::new(SegQueue::new());
        let seen: Arc<Vec<AtomicUsize>> = Arc::new(
            (0..THREADS * PER_THREAD)
                .map(|_| AtomicUsize::new(0))
                .collect(),
        );
        let popped = Arc::new(AtomicUsize::new(0));
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let (q, seen, popped) = (Arc::clone(&q), Arc::clone(&seen), Arc::clone(&popped));
                std::thread::spawn(move || {
                    // Every thread produces its own items and consumes
                    // whatever it finds, interleaved.
                    for i in 0..PER_THREAD {
                        q.push(t * PER_THREAD + i);
                        if let Some(v) = q.pop() {
                            seen[v].fetch_add(1, Ordering::Relaxed);
                            popped.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    while popped.load(Ordering::Relaxed) < THREADS * PER_THREAD {
                        match q.pop() {
                            Some(v) => {
                                seen[v].fetch_add(1, Ordering::Relaxed);
                                popped.fetch_add(1, Ordering::Relaxed);
                            }
                            None => std::thread::yield_now(),
                        }
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        assert!(
            seen.iter().all(|n| n.load(Ordering::Relaxed) == 1),
            "every item popped exactly once"
        );
        assert_eq!(q.len(), 0);
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn single_producer_order_survives_a_concurrent_consumer() {
        use std::sync::Arc;
        let q = Arc::new(SegQueue::new());
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || (0..10_000u32).for_each(|i| q.push(i)))
        };
        let mut next = 0;
        while next < 10_000 {
            if let Some(v) = q.pop() {
                assert_eq!(v, next, "FIFO");
                next += 1;
            }
        }
        producer.join().unwrap();
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn unpark_before_park_does_not_lose_wakeup() {
        let p = Parker::new();
        p.unparker().unpark();
        p.park(); // must not hang
    }

    #[test]
    fn park_timeout_returns() {
        let p = Parker::new();
        p.park_timeout(Duration::from_millis(5)); // must not hang
    }

    #[test]
    fn cross_thread_wakeup() {
        let p = Parker::new();
        let u = p.unparker().clone();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            u.unpark();
        });
        p.park();
        t.join().unwrap();
    }
}
