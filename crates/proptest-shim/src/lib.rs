//! Workspace-local stand-in for the `proptest` crate.
//!
//! The build environment has no access to crates.io, so the workspace ships
//! the slice of the proptest API its tests use: the [`proptest!`] macro with
//! `pat in strategy` bindings and an optional `#![proptest_config(..)]`
//! attribute, [`Strategy`](strategy::Strategy) with `prop_map`, range and
//! tuple strategies, [`any`], [`collection::vec`], and the
//! `prop_assert*`/`prop_assume!` macros.
//!
//! Differences from upstream: cases are generated from a fixed per-test seed
//! sequence (fully deterministic, no `proptest-regressions` replay), there is
//! no shrinking, and a failing case reports its case seed instead of a
//! minimized input.

#![warn(missing_docs)]

use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

use rand::rngs::StdRng;
use rand::{Rng, SampleUniform, SeedableRng};

/// Runner configuration (subset of `proptest::test_runner::Config`).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of successful (non-rejected) cases each test must pass.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

impl ProptestConfig {
    /// A config running `cases` cases.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

/// Value generation strategies.
pub mod strategy {
    use super::*;

    /// A generator of test-case values (subset of `proptest::strategy::Strategy`).
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Generate one value.
        fn generate(&self, rng: &mut StdRng) -> Self::Value;

        /// Transform generated values with `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }
    }

    /// Strategy returned by [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn generate(&self, rng: &mut StdRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    impl<T: SampleUniform + Clone> Strategy for Range<T> {
        type Value = T;
        fn generate(&self, rng: &mut StdRng) -> T {
            rng.gen_range(self.clone())
        }
    }

    impl<T: SampleUniform + Clone> Strategy for RangeInclusive<T> {
        type Value = T;
        fn generate(&self, rng: &mut StdRng) -> T {
            rng.gen_range(self.clone())
        }
    }

    macro_rules! impl_tuple_strategy {
        ($($s:ident/$i:tt),+) => {
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut StdRng) -> Self::Value {
                    ($(self.$i.generate(rng),)+)
                }
            }
        };
    }
    impl_tuple_strategy!(A / 0);
    impl_tuple_strategy!(A / 0, B / 1);
    impl_tuple_strategy!(A / 0, B / 1, C / 2);
    impl_tuple_strategy!(A / 0, B / 1, C / 2, D / 3);
    impl_tuple_strategy!(A / 0, B / 1, C / 2, D / 3, E / 4);
    impl_tuple_strategy!(A / 0, B / 1, C / 2, D / 3, E / 4, F / 5);
}

/// Types with a canonical whole-domain strategy (subset of
/// `proptest::arbitrary::Arbitrary`).
pub trait Arbitrary: Sized {
    /// Generate an arbitrary value of this type.
    fn arbitrary(rng: &mut StdRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut StdRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut StdRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// Strategy returned by [`any`].
#[derive(Debug, Clone, Copy)]
pub struct Any<T>(PhantomData<T>);

impl<T: Arbitrary> strategy::Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut StdRng) -> T {
        T::arbitrary(rng)
    }
}

/// The whole-domain strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

/// Collection strategies.
pub mod collection {
    use super::strategy::Strategy;
    use super::*;

    /// Length bounds for [`vec()`].
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi_exclusive: usize,
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> SizeRange {
            SizeRange { lo: r.start, hi_exclusive: r.end }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> SizeRange {
            SizeRange { lo: *r.start(), hi_exclusive: *r.end() + 1 }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange { lo: n, hi_exclusive: n + 1 }
        }
    }

    /// Strategy returned by [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let n = rng.gen_range(self.size.lo..self.size.hi_exclusive);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// A strategy for `Vec`s of `element` values with length in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }
}

/// Case execution (subset of `proptest::test_runner`).
pub mod test_runner {
    use super::*;

    /// Why a single case did not pass.
    #[derive(Debug)]
    pub enum TestCaseError {
        /// `prop_assume!` rejected the inputs; the case is re-drawn.
        Reject,
        /// A `prop_assert*!` failed.
        Fail(String),
    }

    impl TestCaseError {
        /// A failure with the given message.
        pub fn fail(msg: String) -> TestCaseError {
            TestCaseError::Fail(msg)
        }
    }

    fn fnv1a(s: &str) -> u64 {
        let mut h = 0xcbf29ce484222325u64;
        for b in s.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x100000001b3);
        }
        h
    }

    /// Run `case` until `config.cases` cases pass; panics on the first
    /// failure, reporting the case seed for reproduction.
    pub fn run(
        config: &ProptestConfig,
        name: &str,
        mut case: impl FnMut(&mut StdRng) -> Result<(), TestCaseError>,
    ) {
        let base = fnv1a(name);
        let mut passed = 0u32;
        let mut rejected = 0u64;
        let mut draw = 0u64;
        while passed < config.cases {
            let seed = base.wrapping_add(draw.wrapping_mul(0x9e3779b97f4a7c15));
            let mut rng = StdRng::seed_from_u64(seed);
            match case(&mut rng) {
                Ok(()) => passed += 1,
                Err(TestCaseError::Reject) => {
                    rejected += 1;
                    assert!(
                        rejected <= 256 + 10 * config.cases as u64,
                        "proptest '{name}': too many prop_assume! rejections ({rejected})"
                    );
                }
                Err(TestCaseError::Fail(msg)) => {
                    panic!("proptest '{name}' failed (case seed {seed:#x}): {msg}")
                }
            }
            draw += 1;
        }
    }
}

/// The customary glob import.
pub mod prelude {
    pub use crate::collection;
    pub use crate::strategy::Strategy;
    pub use crate::{any, Arbitrary, ProptestConfig};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

/// Declare property tests: `proptest! { #[test] fn f(x in strat) { .. } }`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    ( ($cfg:expr) ) => {};
    ( ($cfg:expr)
      $(#[$attr:meta])*
      fn $name:ident ( $($arg:pat_param in $strat:expr),+ $(,)? ) $body:block
      $($rest:tt)*
    ) => {
        $(#[$attr])*
        fn $name() {
            let __config: $crate::ProptestConfig = $cfg;
            $crate::test_runner::run(&__config, stringify!($name), |__rng| {
                $(let $arg = $crate::strategy::Strategy::generate(&($strat), __rng);)+
                (|| -> ::std::result::Result<(), $crate::test_runner::TestCaseError> {
                    { $body }
                    ::std::result::Result::Ok(())
                })()
            });
        }
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
}

/// Assert a condition inside a proptest case.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Assert equality inside a proptest case.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            *__l == *__r,
            "assertion failed: `(left == right)`\n  left: `{:?}`\n right: `{:?}`",
            __l,
            __r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(*__l == *__r, $($fmt)+);
    }};
}

/// Assert inequality inside a proptest case.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            *__l != *__r,
            "assertion failed: `(left != right)`\n  left: `{:?}`\n right: `{:?}`",
            __l,
            __r
        );
    }};
}

/// Reject the current case's inputs (it is re-drawn, not failed).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject);
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_and_tuples(x in 0usize..10, pair in (1i64..5, -2.0..2.0f64)) {
            prop_assert!(x < 10);
            prop_assert!((1..5).contains(&pair.0));
            prop_assert!((-2.0..2.0).contains(&pair.1));
        }

        #[test]
        fn vec_and_map(v in collection::vec((0u32..100).prop_map(|x| x * 2), 0..20)) {
            prop_assert!(v.len() < 20);
            prop_assert!(v.iter().all(|&x| x % 2 == 0 && x < 200));
        }

        #[test]
        fn assume_rejects(v in 0u8..8) {
            prop_assume!(v != 3);
            prop_assert_ne!(v, 3);
        }
    }

    #[test]
    #[should_panic(expected = "case seed")]
    fn failure_reports_seed() {
        crate::test_runner::run(&ProptestConfig::with_cases(4), "x", |_| {
            Err(crate::test_runner::TestCaseError::fail("boom".into()))
        });
    }
}
