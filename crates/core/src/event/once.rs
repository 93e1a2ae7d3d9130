//! [`OnceFn`]: a one-shot callable that keeps its closure inline.
//!
//! Every piece of work is a one-shot event (§3.2), and the allocator
//! stays off the fast path because of it (§3.4) — unless each event is
//! a `Box<dyn FnOnce>`, which puts an allocator call back on the path
//! per event. An `OnceFn<A, W>` is `W` words of storage plus a pointer
//! to a static table of two functions, call and drop, generated per
//! closure type. A closure that fits the words (and needs no more than
//! word alignment) is stored in them; any other is boxed, and the box is
//! stored in them. Either way it is the same type and the same path: a
//! caller cannot tell, and a large capture costs the one allocation its
//! box does.
//!
//! Whether an `OnceFn` may cross threads is its marker parameter:
//! [`Local`] (the default) is `!Send` and takes any closure, [`Sendable`]
//! is `Send` and only takes `Send` closures. The auto traits follow from
//! the marker's fields; no `Send` or `Sync` impl is written by hand.

use std::cell::Cell;
use std::marker::PhantomData;
use std::mem::{align_of, size_of, ManuallyDrop, MaybeUninit};

/// [`OnceFn`] marker: the callable stays on the thread that built it,
/// so its closure may capture `Rc`s.
pub struct Local(PhantomData<*const ()>);

/// [`OnceFn`] marker: the callable may be sent to another thread; only
/// `Send` closures go in.
pub struct Sendable(PhantomData<Cell<()>>);

/// The storage: `W` words, holding either the closure or its box.
type Words<const W: usize> = MaybeUninit<[usize; W]>;

/// What an [`OnceFn`] knows about the type in its words.
struct VTable<A, const W: usize> {
    call: fn(&mut Words<W>, A),
    drop: fn(&mut Words<W>),
}

/// The [`VTable`] for a `G` stored in `W` words.
struct Thunk<A, G, const W: usize>(PhantomData<(fn(A), G)>);

impl<A, G: FnOnce(A), const W: usize> Thunk<A, G, W> {
    const VTABLE: VTable<A, W> = VTable {
        call: Self::call,
        drop: Self::drop,
    };

    fn call(words: &mut Words<W>, arg: A) {
        // SAFETY: reached only through `VTABLE`, which `OnceFn::pack::<G>`
        // pairs with words it has just written a `G` into (size and
        // alignment checked there), and only from `OnceFn::call`, which
        // consumes the `OnceFn` with its `Drop` suppressed: the `G` is
        // live here and is moved out exactly once.
        let g = unsafe { words.as_ptr().cast::<G>().read() };
        g(arg)
    }

    fn drop(words: &mut Words<W>) {
        // SAFETY: as in `call`, except that this is reached only from
        // `OnceFn`'s `Drop`, i.e. for a `G` that was never moved out.
        unsafe { words.as_mut_ptr().cast::<G>().drop_in_place() }
    }
}

/// A one-shot callable taking an `A`: its closure lives in `W` words of
/// inline storage, or in a box those words hold when it does not fit
/// (see the module docs). Dropping it uncalled drops the closure.
pub struct OnceFn<A: 'static, const W: usize, M = Local> {
    words: Words<W>,
    vtable: &'static VTable<A, W>,
    marker: PhantomData<M>,
}

impl<A: 'static, const W: usize, M> OnceFn<A, W, M> {
    /// Whether a `G` goes in the words themselves.
    const fn fits<G>() -> bool {
        size_of::<G>() <= size_of::<[usize; W]>() && align_of::<G>() <= align_of::<usize>()
    }

    fn pack<G: FnOnce(A) + 'static>(g: G) -> Self {
        assert!(Self::fits::<G>(), "OnceFn: value does not fit its words");
        let mut words = Words::<W>::uninit();
        // SAFETY: `G` fits the words' size and alignment (asserted just
        // above), and the words are fresh: nothing is overwritten.
        unsafe { words.as_mut_ptr().cast::<G>().write(g) };
        OnceFn {
            words,
            vtable: &Thunk::<A, G, W>::VTABLE,
            marker: PhantomData,
        }
    }

    fn store<F: FnOnce(A) + 'static>(f: F) -> Self {
        if Self::fits::<F>() {
            Self::pack(f)
        } else {
            Self::pack(Box::new(f))
        }
    }

    /// Calls the closure, consuming it.
    pub fn call(self, arg: A) {
        let mut this = ManuallyDrop::new(self);
        (this.vtable.call)(&mut this.words, arg)
    }
}

impl<A: 'static, const W: usize> OnceFn<A, W, Local> {
    /// Wraps `f`; inline when it fits `W` words, boxed otherwise.
    pub fn new(f: impl FnOnce(A) + 'static) -> Self {
        Self::store(f)
    }
}

impl<A: 'static, const W: usize> OnceFn<A, W, Sendable> {
    /// Wraps a `Send` `f`; inline when it fits `W` words, boxed
    /// otherwise.
    pub fn new_send(f: impl FnOnce(A) + Send + 'static) -> Self {
        Self::store(f)
    }
}

impl<A: 'static, const W: usize, M> Drop for OnceFn<A, W, M> {
    fn drop(&mut self) {
        (self.vtable.drop)(&mut self.words)
    }
}
