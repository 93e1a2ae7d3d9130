//! Minimal API-compatible stand-in for the `proptest` crate.
//!
//! Supports the subset this workspace's property tests use: the
//! `proptest!` macro, `any::<T>()`, numeric-range strategies, tuple
//! strategies, `prop::collection::vec`, and the `prop_assert*` macros.
//! Cases are generated from a deterministic per-test seed (derived from
//! the test name, overridable with `PROPTEST_SEED`), and the number of
//! cases is `PROPTEST_CASES` (default 64). No shrinking: a failure
//! reports the case number and seed so it can be replayed exactly.

/// Deterministic RNG + case runner.
pub mod test_runner {
    /// Error returned by a failing property (via `prop_assert*`).
    #[derive(Debug)]
    pub struct TestCaseError(pub String);

    impl TestCaseError {
        /// A failure with the given message.
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError(msg.into())
        }
    }

    /// splitmix64: deterministic per-test value stream.
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Creates a generator from `seed`.
        pub fn new(seed: u64) -> Self {
            TestRng { state: seed }
        }

        /// The next 64 uniformly random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    fn env_u64(name: &str) -> Option<u64> {
        std::env::var(name).ok()?.parse().ok()
    }

    /// Runs `case` for each generated input set; panics on the first
    /// failure with enough context to replay it.
    pub fn run(test_name: &str, mut case: impl FnMut(&mut TestRng) -> Result<(), TestCaseError>) {
        let cases = env_u64("PROPTEST_CASES").unwrap_or(64);
        let base = env_u64("PROPTEST_SEED").unwrap_or_else(|| {
            // FNV-1a over the test name: stable across runs.
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for b in test_name.bytes() {
                h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
            }
            h
        });
        for i in 0..cases {
            let seed = base.wrapping_add(i.wrapping_mul(0x9E37_79B9));
            let mut rng = TestRng::new(seed);
            // A case that panics (an `assert!`, an `unwrap` in the code
            // under test) reports its seed too, then unwinds on.
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| case(&mut rng)));
            let at = format!("case {i}/{cases} (replay with PROPTEST_SEED={seed})");
            match outcome {
                Ok(Ok(())) => {}
                Ok(Err(TestCaseError(msg))) => {
                    panic!("property `{test_name}` failed at {at}: {msg}")
                }
                Err(payload) => {
                    eprintln!("property `{test_name}` panicked at {at}");
                    std::panic::resume_unwind(payload);
                }
            }
        }
    }
}

/// Value-generation strategies.
pub mod strategy {
    use crate::test_runner::TestRng;

    /// Generates values of `Self::Value` from an RNG.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;
    }

    macro_rules! int_strategies {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as u128).wrapping_sub(self.start as u128);
                    self.start.wrapping_add((rng.next_u64() as u128 % span) as $t)
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi as u128).wrapping_sub(lo as u128) + 1;
                    lo.wrapping_add((rng.next_u64() as u128 % span) as $t)
                }
            }
        )*};
    }
    int_strategies!(u8, u16, u32, u64, usize, i32, i64, isize);

    macro_rules! tuple_strategies {
        ($(($($s:ident . $idx:tt),+ ))+) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )+};
    }
    tuple_strategies! {
        (A.0, B.1)
        (A.0, B.1, C.2)
        (A.0, B.1, C.2, D.3)
        (A.0, B.1, C.2, D.3, E.4)
        (A.0, B.1, C.2, D.3, E.4, F.5)
        (A.0, B.1, C.2, D.3, E.4, F.5, G.6)
        (A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7)
    }
}

/// `any::<T>()` support.
pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Types with a full-domain default strategy.
    pub trait Arbitrary: Sized {
        /// Draws a uniformly distributed value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! arb_ints {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> Self {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    arb_ints!(u8, u16, u32, u64, usize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> Self {
            rng.next_u64() & 1 == 1
        }
    }

    /// Marker strategy produced by [`any`].
    pub struct Any<T>(std::marker::PhantomData<T>);

    /// The default strategy for `T` (full domain).
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(std::marker::PhantomData)
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }
}

/// Collection strategies.
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Strategy for a `Vec` whose length is drawn from `len` and whose
    /// elements come from `element`.
    pub struct VecStrategy<S> {
        element: S,
        len: std::ops::Range<usize>,
    }

    /// A vector of `element` values with length in `len`.
    pub fn vec<S: Strategy>(element: S, len: std::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let n = self.len.clone().generate(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Everything the property tests import.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::Strategy;
    pub use crate::test_runner::TestCaseError;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};

    /// Module-style access (`prop::collection::vec`).
    pub mod prop {
        pub use crate::collection;
    }
}

/// Defines property tests: each function's arguments are drawn from the
/// given strategies for every generated case.
#[macro_export]
macro_rules! proptest {
    () => {};
    (
        $(#[$meta:meta])*
        $vis:vis fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        $vis fn $name() {
            $crate::test_runner::run(stringify!($name), |__rng| {
                $(let $arg = $crate::strategy::Strategy::generate(&($strat), __rng);)+
                let __case = move || -> ::std::result::Result<(), $crate::test_runner::TestCaseError> {
                    $body
                    ::std::result::Result::Ok(())
                };
                __case()
            });
        }
        $crate::proptest! { $($rest)* }
    };
}

/// Fails the enclosing property when `cond` is false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)+)),
            );
        }
    };
}

/// Fails the enclosing property when the operands differ.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
            stringify!($left), stringify!($right), l, r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l == *r, $($fmt)+);
    }};
}

/// Fails the enclosing property when the operands are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: `{} != {}`\n  both: {:?}",
            stringify!($left),
            stringify!($right),
            l
        );
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_in_bounds(x in 3u32..10, y in 0usize..=4) {
            prop_assert!((3..10).contains(&x));
            prop_assert!(y <= 4);
        }

        #[test]
        fn vec_lengths_respected(v in prop::collection::vec(any::<u8>(), 2..5)) {
            prop_assert!(v.len() >= 2 && v.len() < 5);
        }

        #[test]
        fn tuples_compose(t in (0u32..4, any::<u8>())) {
            prop_assert!(t.0 < 4);
            prop_assert_eq!(t.1, t.1);
        }
    }

    #[test]
    #[should_panic(expected = "property `failing` failed")]
    fn failures_panic_with_context() {
        crate::test_runner::run("failing", |_| {
            Err(crate::test_runner::TestCaseError::fail("boom"))
        });
    }
}
