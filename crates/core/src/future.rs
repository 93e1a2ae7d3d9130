//! The one-shot promise/future pair [`crate::event::block_on`] waits on.
//!
//! The paper's §3.5 futures promise two things: a continuation runs
//! synchronously when its value is already there (Figure 2's ARP hit),
//! and an error reaches the final consumer. Every product async path
//! here delivers both through callbacks — `ArpCache::find` continues in
//! the caller on a hit and hands `ArpTimeout` to every queued waiter;
//! `Messenger::call_chain` and `RemoteShipper::call` run their
//! continuation exactly once with a `Result`. What remains of the future
//! is §3.2's blocking: an event (or a plain thread) that must wait for a
//! value another core or thread produces. So a [`Future`] has no methods;
//! `block_on` is its only consumer, and a value that can fail carries its
//! own `Result`.

use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use crate::event::EventContext;

enum State<T> {
    /// No value yet; the suspended event to resume when it arrives.
    Pending(Option<EventContext>),
    Ready(T),
    Taken,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    cv: Condvar,
}

impl<T> Shared<T> {
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().expect("future state lock")
    }
}

/// A value of type `T` that may not have been produced yet. Consumed by
/// [`crate::event::block_on`].
pub struct Future<T>(Arc<Shared<T>>);

/// The producing side of a [`Future`].
pub struct Promise<T>(Arc<Shared<T>>);

/// Creates a connected promise/future pair.
pub fn promise<T>() -> (Promise<T>, Future<T>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(State::Pending(None)),
        cv: Condvar::new(),
    });
    (Promise(Arc::clone(&shared)), Future(shared))
}

impl<T> Promise<T> {
    /// Fulfils the future, waking the thread or resuming the event that
    /// blocks on it.
    ///
    /// # Panics
    ///
    /// Panics if the future was already fulfilled (only reachable through
    /// a duplicated promise).
    pub fn set_value(self, value: T) {
        let waiter = match std::mem::replace(&mut *self.0.lock(), State::Ready(value)) {
            State::Pending(waiter) => waiter,
            State::Ready(_) | State::Taken => panic!("promise completed twice"),
        };
        self.0.cv.notify_one();
        if let Some(ctx) = waiter {
            ctx.activate();
        }
    }
}

impl<T> Future<T> {
    pub(crate) fn is_pending(&self) -> bool {
        matches!(*self.0.lock(), State::Pending(_))
    }

    /// Activates `ctx` once the value is set — at once if it already is.
    pub(crate) fn resume_when_set(&self, ctx: EventContext) {
        match &mut *self.0.lock() {
            State::Pending(waiter) => *waiter = Some(ctx),
            _ => ctx.activate(),
        }
    }

    /// Takes the value, parking the thread until it is set.
    pub(crate) fn wait(self) -> T {
        let mut state = self.0.lock();
        loop {
            match std::mem::replace(&mut *state, State::Taken) {
                State::Ready(value) => return value,
                pending => *state = pending,
            }
            state = self.0.cv.wait(state).expect("future state lock");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::block_on;

    #[test]
    fn block_across_threads() {
        // An unentered thread waits on the condvar for a value another
        // thread sets.
        let (p, f) = promise::<String>();
        let t = std::thread::spawn(move || block_on(f));
        std::thread::sleep(std::time::Duration::from_millis(10));
        p.set_value("hello".to_string());
        assert_eq!(t.join().unwrap(), "hello");
    }

    #[test]
    #[should_panic(expected = "completed twice")]
    fn double_complete_panics() {
        let (p, _f) = promise::<u32>();
        let dup = Promise(Arc::clone(&p.0));
        p.set_value(1);
        dup.set_value(2);
    }
}
