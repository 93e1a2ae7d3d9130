//! The FIFO a core's work is handed to from other threads: the event
//! manager's remote-spawn and interrupt queues (§3.2) and the simulated
//! world's wake queue.
//!
//! A mutex-guarded deque whose length is mirrored in an atomic beside
//! it, so asking an empty queue whether it has anything — what an event
//! loop does several times per pass — is one load and never takes the
//! lock. The length carries no wake protocol: a producer pushes, then
//! calls the core's waker, and a waker that fires before the core parks
//! is not lost (the threaded backend's parker keeps it as a token; the
//! simulator is one thread).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// An unbounded multi-producer, multi-consumer FIFO queue with a
/// lock-free length.
pub struct MutexQueue<T> {
    inner: Mutex<VecDeque<T>>,
    /// Items in `inner`. Stored (`Release`) only with the lock held,
    /// after the item is in place, so a reader whose `Acquire` load
    /// sees a non-zero length finds the item.
    len: AtomicUsize,
}

impl<T> MutexQueue<T> {
    /// Creates an empty queue.
    pub const fn new() -> Self {
        MutexQueue {
            inner: Mutex::new(VecDeque::new()),
            len: AtomicUsize::new(0),
        }
    }

    /// Pushes onto the back.
    pub fn push(&self, value: T) {
        let mut q = crate::lock(&self.inner);
        q.push_back(value);
        self.len.store(q.len(), Ordering::Release);
    }

    /// Pops from the front.
    pub fn pop(&self) -> Option<T> {
        if self.is_empty() {
            return None;
        }
        let mut q = crate::lock(&self.inner);
        let value = q.pop_front();
        self.len.store(q.len(), Ordering::Release);
        value
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }
}

impl<T> Default for MutexQueue<T> {
    fn default() -> Self {
        MutexQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::MutexQueue;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn queue_is_fifo() {
        let q = MutexQueue::new();
        q.push(1);
        q.push(2);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn concurrent_push_pop_neither_loses_nor_duplicates() {
        const PER_THREAD: usize = 5_000;
        const THREADS: usize = 4;
        let q = Arc::new(MutexQueue::new());
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
        let q = Arc::new(MutexQueue::new());
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
}
