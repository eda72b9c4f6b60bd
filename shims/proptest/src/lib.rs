//! Offline shim for `proptest`: deterministic random testing without
//! shrinking.
//!
//! The real crate explores failing inputs and shrinks them to minimal
//! counterexamples. This shim keeps the *interface* — `proptest!`,
//! `Strategy`, `any`, `prop::collection::vec`, `prop_assert*` — but runs a
//! fixed number of deterministically seeded cases per test (seed derived from
//! the test's module path and name, so failures reproduce across runs). No
//! shrinking: a failing case reports its inputs' case index instead.

pub mod test_runner {
    /// Per-test configuration; only `cases` is honoured.
    #[derive(Clone, Debug)]
    pub struct Config {
        /// Number of random cases to run.
        pub cases: u32,
    }

    impl Config {
        /// Config running `cases` iterations.
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Config { cases: 256 }
        }
    }

    /// A failed `prop_assert*`; carried out of the case body as an `Err`.
    #[derive(Debug)]
    pub struct TestCaseError(String);

    impl TestCaseError {
        /// Build a failure with the given message.
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError(msg.into())
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.0)
        }
    }

    impl std::error::Error for TestCaseError {}
}

pub mod strategy {
    use std::marker::PhantomData;
    use std::ops::Range;

    use rand::rngs::StdRng;
    use rand::{Rng, RngCore};

    /// A recipe for generating values of `Self::Value`.
    ///
    /// Unlike the real crate there is no value tree: `sample` draws one
    /// concrete value and no shrinking happens afterwards.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draw one value.
        fn sample(&self, rng: &mut StdRng) -> Self::Value;

        /// Map generated values through `f`.
        fn prop_map<T, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> T,
        {
            Map { inner: self, f }
        }
    }

    /// Strategy returned by [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, T, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> T,
    {
        type Value = T;

        fn sample(&self, rng: &mut StdRng) -> T {
            (self.f)(self.inner.sample(rng))
        }
    }

    macro_rules! range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;

                fn sample(&self, rng: &mut StdRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
        )*};
    }
    range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f64);

    // The rand shim's `gen_range` tops out at 64-bit spans; sample 128-bit
    // ranges here so strategies like `-1_000_000i128..1_000_000i128` work.
    impl Strategy for Range<i128> {
        type Value = i128;

        fn sample(&self, rng: &mut StdRng) -> i128 {
            assert!(self.start < self.end, "empty i128 strategy range");
            let span = self.end.wrapping_sub(self.start) as u128;
            let zone = u128::MAX - (u128::MAX % span);
            loop {
                let v = (rng.next_u64() as u128) << 64 | rng.next_u64() as u128;
                if v < zone {
                    return self.start.wrapping_add((v % span) as i128);
                }
            }
        }
    }

    impl Strategy for Range<u128> {
        type Value = u128;

        fn sample(&self, rng: &mut StdRng) -> u128 {
            assert!(self.start < self.end, "empty u128 strategy range");
            let span = self.end - self.start;
            let zone = u128::MAX - (u128::MAX % span);
            loop {
                let v = (rng.next_u64() as u128) << 64 | rng.next_u64() as u128;
                if v < zone {
                    return self.start + v % span;
                }
            }
        }
    }

    /// Types with a canonical full-range strategy, used by [`any`].
    pub trait Arbitrary: Sized {
        /// Draw one unconstrained value.
        fn arbitrary(rng: &mut StdRng) -> Self;
    }

    macro_rules! arbitrary_via_standard {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut StdRng) -> $t {
                    rng.gen()
                }
            }
        )*};
    }
    arbitrary_via_standard!(
        u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize, bool, f64, f32
    );

    impl<const N: usize> Arbitrary for [u8; N] {
        fn arbitrary(rng: &mut StdRng) -> [u8; N] {
            rng.gen()
        }
    }

    /// Strategy returned by [`any`].
    pub struct Any<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;

        fn sample(&self, rng: &mut StdRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// The full-range strategy for `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }

    macro_rules! tuple_strategy {
        ($(($($s:ident),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);

                #[allow(non_snake_case)]
                fn sample(&self, rng: &mut StdRng) -> Self::Value {
                    let ($($s,)+) = self;
                    ($($s.sample(rng),)+)
                }
            }
        )*};
    }
    tuple_strategy! {
        (A)
        (A, B)
        (A, B, C)
        (A, B, C, D)
        (A, B, C, D, E)
        (A, B, C, D, E, F)
    }
}

/// Namespaced strategy constructors (`prop::collection::vec`, …).
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use std::ops::Range;

        use rand::rngs::StdRng;
        use rand::Rng;

        use crate::strategy::Strategy;

        /// Strategy returned by [`vec()`].
        pub struct VecStrategy<S> {
            elem: S,
            size: Range<usize>,
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;

            fn sample(&self, rng: &mut StdRng) -> Vec<S::Value> {
                let len = if self.size.start + 1 == self.size.end {
                    self.size.start
                } else {
                    rng.gen_range(self.size.clone())
                };
                (0..len).map(|_| self.elem.sample(rng)).collect()
            }
        }

        /// A `Vec` of `size`-range length with elements from `elem`.
        pub fn vec<S: Strategy>(elem: S, size: Range<usize>) -> VecStrategy<S> {
            assert!(size.start < size.end, "empty vec-strategy size range");
            VecStrategy { elem, size }
        }
    }

    /// Boolean strategies.
    pub mod bool {
        use rand::rngs::StdRng;
        use rand::Rng;

        use crate::strategy::Strategy;

        /// The fair-coin strategy (`prop::bool::ANY`).
        pub struct Any;

        /// Fair coin flip.
        pub const ANY: Any = Any;

        impl Strategy for Any {
            type Value = bool;

            fn sample(&self, rng: &mut StdRng) -> bool {
                rng.gen()
            }
        }
    }
}

/// Runtime support for the `proptest!` expansion. Not part of the public API.
#[doc(hidden)]
pub mod __rt {
    pub use rand::rngs::StdRng;
    pub use rand::SeedableRng;

    /// FNV-1a over the test's full path: a stable per-test seed.
    pub fn seed_for(name: &str) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
}

/// Everything a property-test file needs in scope.
pub mod prelude {
    pub use crate::prop;
    pub use crate::strategy::{any, Strategy};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

/// Declare deterministic property tests.
///
/// Accepts an optional `#![proptest_config(expr)]` header followed by
/// `fn name(arg in strategy, ...) { body }` items. Attributes on the items
/// (including `#[test]`) are re-emitted verbatim.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { (<$crate::test_runner::Config as ::core::default::Default>::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr) $($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config: $crate::test_runner::Config = $cfg;
                let mut __rng = <$crate::__rt::StdRng as $crate::__rt::SeedableRng>::seed_from_u64(
                    $crate::__rt::seed_for(concat!(module_path!(), "::", stringify!($name))),
                );
                for __case in 0..__config.cases {
                    $(let $arg = $crate::strategy::Strategy::sample(&($strat), &mut __rng);)+
                    let __outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                        (|| {
                            $body
                            ::std::result::Result::Ok(())
                        })();
                    if let ::std::result::Result::Err(__err) = __outcome {
                        ::std::panic!(
                            "proptest {} failed at case {}/{}: {}",
                            stringify!($name),
                            __case + 1,
                            __config.cases,
                            __err
                        );
                    }
                }
            }
        )*
    };
}

/// Assert a condition inside a `proptest!` body; failure fails the case.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                ::std::format!($($fmt)+),
            ));
        }
    };
}

/// Assert equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            *__l == *__r,
            "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
            stringify!($left),
            stringify!($right),
            __l,
            __r
        );
    }};
}

/// Assert inequality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            *__l != *__r,
            "assertion failed: {} != {}\n  both: {:?}",
            stringify!($left),
            stringify!($right),
            __l
        );
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_stay_in_bounds(n in 10u64..20u64, x in -5i128..5i128) {
            prop_assert!((10..20).contains(&n));
            prop_assert!((-5..5).contains(&x));
        }

        #[test]
        fn vec_lengths_respect_size(data in prop::collection::vec(any::<u8>(), 0..200)) {
            prop_assert!(data.len() < 200);
        }

        #[test]
        fn tuples_and_maps_compose(
            pair in (any::<bool>(), 1u64..100u64).prop_map(|(b, n)| if b { n } else { 0 }),
        ) {
            prop_assert!(pair < 100);
        }
    }

    #[test]
    fn seeds_are_stable_and_distinct() {
        assert_eq!(crate::__rt::seed_for("a::b"), crate::__rt::seed_for("a::b"));
        assert_ne!(crate::__rt::seed_for("a::b"), crate::__rt::seed_for("a::c"));
    }

    #[test]
    #[should_panic(expected = "failed at case")]
    fn failing_case_panics_with_context() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(8))]
            fn always_fails(n in 0u64..10u64) {
                prop_assert!(n > 1_000, "n was {}", n);
            }
        }
        always_fails();
    }
}
