//! Minimal, dependency-free stand-in for the `proptest` crate.
//!
//! This workspace builds in network-restricted environments where crates-io
//! is unreachable, so the real `proptest` cannot be fetched. This shim
//! implements exactly the API surface the workspace's property tests use:
//!
//! * `proptest! { ... }` with an optional
//!   `#![proptest_config(ProptestConfig::with_cases(n))]` header,
//! * integer-range strategies (`0u64..1000`), `any::<T>()`, tuples of
//!   strategies, and `proptest::collection::vec(strategy, len_range)`,
//! * `prop_assert!`, `prop_assert_eq!`, `prop_assert_ne!`, `prop_assume!`,
//!   and `TestCaseError::fail`.
//!
//! Semantics differ from real proptest in two deliberate ways: inputs are
//! drawn from a deterministic per-test PRNG (the same values on every run,
//! so failures are trivially reproducible offline), and there is **no
//! shrinking** — a failing case reports the raw inputs via the panic
//! message of the assertion that fired. Each generator biases toward range
//! endpoints so the usual off-by-one edge cases are still exercised.

/// Deterministic test-case randomness and error plumbing.
pub mod test_runner {
    use std::fmt;

    /// Error returned (via `prop_assert!` and friends) by a failing case.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum TestCaseError {
        /// The property does not hold.
        Fail(String),
        /// The inputs do not satisfy a `prop_assume!` precondition.
        Reject(String),
    }

    impl TestCaseError {
        /// Creates a failure with the given message.
        pub fn fail(reason: impl Into<String>) -> Self {
            TestCaseError::Fail(reason.into())
        }

        /// Creates a rejection (assumption not met; the case is skipped).
        pub fn reject(reason: impl Into<String>) -> Self {
            TestCaseError::Reject(reason.into())
        }
    }

    impl fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TestCaseError::Fail(r) => write!(f, "{r}"),
                TestCaseError::Reject(r) => write!(f, "rejected: {r}"),
            }
        }
    }

    /// Runner configuration; only `cases` is meaningful here.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of cases generated per property.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A configuration running `cases` cases per property.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            // Real proptest defaults to 256; 64 keeps whole-workspace runs
            // fast while still sweeping the biased endpoint cases below.
            ProptestConfig { cases: 64 }
        }
    }

    /// SplitMix64-based deterministic generator for test inputs.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seeds from a raw 64-bit value.
        pub fn from_seed(seed: u64) -> Self {
            TestRng {
                state: seed ^ 0x9E37_79B9_7F4A_7C15,
            }
        }

        /// Derives the rng for one (test, case) pair: stable across runs.
        pub fn deterministic(test_name: &str, case: u32) -> Self {
            let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV-1a offset basis
            for b in test_name.bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
            }
            Self::from_seed(h ^ ((case as u64) << 32 | case as u64))
        }

        /// Next raw 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform value in `[0, n)`; `n` must be non-zero.
        pub fn below(&mut self, n: u64) -> u64 {
            debug_assert!(n > 0);
            // Modulo bias is irrelevant for test-input generation.
            self.next_u64() % n
        }
    }
}

/// Input strategies: how each test argument is generated.
pub mod strategy {
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;
    use std::ops::{Range, RangeInclusive};

    /// A value generator. Unlike real proptest there is no value tree and
    /// no shrinking; a strategy just samples.
    pub trait Strategy {
        /// The type of generated values.
        type Value;
        /// Draws one value.
        fn sample(&self, rng: &mut TestRng) -> Self::Value;
    }

    /// Strategy that always yields a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn sample(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Types with a canonical "any value" strategy.
    pub trait Arbitrary: Sized {
        /// Draws an arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    /// The `any::<T>()` strategy.
    pub struct Any<T>(PhantomData<T>);

    impl<T> Clone for Any<T> {
        fn clone(&self) -> Self {
            Any(PhantomData)
        }
    }

    /// Generates any value of `T` (integers bias toward 0 and the maximum).
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    macro_rules! arbitrary_uint {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> Self {
                    // 1-in-8 bias to each endpoint.
                    match rng.below(8) {
                        0 => 0,
                        1 => <$t>::MAX,
                        _ => rng.next_u64() as $t,
                    }
                }
            }
        )*};
    }
    arbitrary_uint!(u8, u16, u32, u64, usize);

    macro_rules! arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> Self {
                    match rng.below(8) {
                        0 => 0,
                        1 => <$t>::MAX,
                        2 => <$t>::MIN,
                        _ => rng.next_u64() as $t,
                    }
                }
            }
        )*};
    }
    arbitrary_int!(i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> Self {
            rng.next_u64() & 1 == 1
        }
    }

    macro_rules! range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty strategy range");
                    let span = (self.end as u64).wrapping_sub(self.start as u64);
                    // Bias toward both endpoints so boundary bugs surface.
                    let off = match rng.below(8) {
                        0 => 0,
                        1 => span - 1,
                        _ => rng.below(span),
                    };
                    self.start + off as $t
                }
            }

            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty strategy range");
                    let span = (hi as u64).wrapping_sub(lo as u64).wrapping_add(1);
                    let off = match (span, rng.below(8)) {
                        (0, _) => rng.next_u64(), // full u64 domain
                        (_, 0) => 0,
                        (_, 1) => span - 1,
                        (s, _) => rng.below(s),
                    };
                    lo.wrapping_add(off as $t)
                }
            }
        )*};
    }
    range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! tuple_strategy {
        ($(($($n:ident $i:tt),+))*) => {$(
            impl<$($n: Strategy),+> Strategy for ($($n,)+) {
                type Value = ($($n::Value,)+);
                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$i.sample(rng),)+)
                }
            }
        )*};
    }
    tuple_strategy! {
        (A 0)
        (A 0, B 1)
        (A 0, B 1, C 2)
        (A 0, B 1, C 2, D 3)
        (A 0, B 1, C 2, D 3, E 4)
        (A 0, B 1, C 2, D 3, E 4, F 5)
    }
}

/// Collection strategies (`proptest::collection::vec`).
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// Length specification for [`vec()`].
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi_exclusive: usize,
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            SizeRange {
                lo: r.start,
                hi_exclusive: r.end,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            SizeRange {
                lo: *r.start(),
                hi_exclusive: r.end() + 1,
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange {
                lo: n,
                hi_exclusive: n + 1,
            }
        }
    }

    /// Strategy producing `Vec`s of values drawn from `element`.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Vectors of `element` values with a length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        let size = size.into();
        assert!(size.lo < size.hi_exclusive, "empty vec length range");
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi_exclusive - self.size.lo) as u64;
            let len = match rng.below(8) {
                0 => self.size.lo,
                1 => self.size.hi_exclusive - 1,
                _ => self.size.lo + rng.below(span) as usize,
            };
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Everything a property test usually imports.
pub mod prelude {
    pub use crate::collection;
    pub use crate::strategy::{any, Arbitrary, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestRng};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

/// Defines property tests. Each `fn` inside runs the body against `cases`
/// deterministic samples of its strategies. As with the real crate, the
/// caller writes `#[test]` on each property; the macro adds none of its
/// own, so a property is registered with the test harness exactly once.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@with_config ($cfg) $($rest)*);
    };
    (@with_config ($cfg:expr)
     $( $(#[$meta:meta])* fn $name:ident ( $( $arg:pat_param in $strat:expr ),+ $(,)? ) $body:block )*
    ) => {
        $(
            $(#[$meta])*
            #[allow(unreachable_code)]
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $cfg;
                for case in 0..config.cases {
                    let mut __proptest_rng =
                        $crate::test_runner::TestRng::deterministic(stringify!($name), case);
                    $(
                        let $arg = $crate::strategy::Strategy::sample(
                            &($strat),
                            &mut __proptest_rng,
                        );
                    )+
                    let result: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                        (|| {
                            $body
                            ::std::result::Result::Ok(())
                        })();
                    match result {
                        ::std::result::Result::Ok(()) => {}
                        ::std::result::Result::Err(
                            $crate::test_runner::TestCaseError::Reject(_),
                        ) => {
                            // Assumption not met; skip this case.
                        }
                        ::std::result::Result::Err(
                            $crate::test_runner::TestCaseError::Fail(reason),
                        ) => {
                            panic!(
                                "property {} failed at deterministic case {}: {}",
                                stringify!($name),
                                case,
                                reason
                            );
                        }
                    }
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(
            @with_config ($crate::test_runner::ProptestConfig::default()) $($rest)*
        );
    };
}

/// Asserts a condition inside a property, failing the case (not panicking
/// directly) so the runner can report the case number.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Asserts two expressions are equal inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let l = $left;
        let r = $right;
        $crate::prop_assert!(
            l == r,
            "assertion failed: `{} == {}` (left: {:?}, right: {:?})",
            stringify!($left),
            stringify!($right),
            l,
            r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let l = $left;
        let r = $right;
        $crate::prop_assert!(
            l == r,
            "assertion failed: `{} == {}` (left: {:?}, right: {:?}): {}",
            stringify!($left),
            stringify!($right),
            l,
            r,
            format!($($fmt)+)
        );
    }};
}

/// Asserts two expressions are unequal inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let l = $left;
        let r = $right;
        $crate::prop_assert!(
            l != r,
            "assertion failed: `{} != {}` (both: {:?})",
            stringify!($left),
            stringify!($right),
            l
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let l = $left;
        let r = $right;
        $crate::prop_assert!(
            l != r,
            "assertion failed: `{} != {}` (both: {:?}): {}",
            stringify!($left),
            stringify!($right),
            l,
            format!($($fmt)+)
        );
    }};
}

/// Skips the current case when a precondition does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::reject(
                stringify!($cond),
            ));
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = TestRng::deterministic("t", 3);
        let mut b = TestRng::deterministic("t", 3);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = TestRng::deterministic("t", 4);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn range_strategy_in_bounds() {
        let mut rng = TestRng::from_seed(1);
        for _ in 0..1000 {
            let v = Strategy::sample(&(5u64..17), &mut rng);
            assert!((5..17).contains(&v));
        }
    }

    #[test]
    fn vec_strategy_lengths_in_bounds() {
        let mut rng = TestRng::from_seed(2);
        for _ in 0..200 {
            let v = Strategy::sample(&collection::vec(0u8..10, 2..6), &mut rng);
            assert!((2..6).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 10));
        }
    }

    #[test]
    fn endpoints_are_exercised() {
        let mut rng = TestRng::from_seed(3);
        let (mut lo_seen, mut hi_seen) = (false, false);
        for _ in 0..200 {
            match Strategy::sample(&(10u32..20), &mut rng) {
                10 => lo_seen = true,
                19 => hi_seen = true,
                _ => {}
            }
        }
        assert!(lo_seen && hi_seen);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        /// The macro itself works end to end, including tuple and vec
        /// strategies and early Err returns.
        #[test]
        fn self_test(
            (a, b) in (0u64..100, 1u64..50),
            v in collection::vec(any::<u8>(), 1..10),
        ) {
            prop_assert!(a < 100);
            prop_assert!((1..50).contains(&b));
            prop_assert!(!v.is_empty() && v.len() < 10);
            prop_assert_eq!(a + b, b + a);
            prop_assert_ne!(b, 0);
            if a == u64::MAX {
                return Err(TestCaseError::fail("unreachable"));
            }
        }
    }
}
