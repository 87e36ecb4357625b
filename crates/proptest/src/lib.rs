//! Vendored stand-in for the slice of `proptest` this workspace uses.
//!
//! The build environment has no crates.io access, so the workspace ships a
//! minimal, dependency-free re-implementation: strategies are plain value
//! generators (no shrinking), the [`proptest!`] macro runs a fixed number of
//! deterministic cases per test (seeded from the test name and case index),
//! and failures report the case's seed so a run can be reproduced by
//! re-running the test binary.
//!
//! Supported surface:
//!
//! * [`Strategy`] with `prop_map`, `prop_flat_map`, `prop_filter`, `boxed`;
//! * strategies for integer/float ranges, tuples (arity 2–3), [`Just`],
//!   and string literals interpreted as a small regex subset
//!   (character classes with ranges plus `{m,n}` / `{n}` repetition);
//! * [`collection::vec`];
//! * the [`proptest!`], [`prop_oneof!`], [`prop_assert!`],
//!   [`prop_assert_eq!`], and [`prop_assume!`] macros.

use std::ops::{Range, RangeInclusive};
use std::rc::Rc;

pub mod sqlgen;

pub mod test_runner {
    /// The deterministic per-case generator driving all strategies.
    /// SplitMix64: tiny, full-period over 2^64 seeds, and more than good
    /// enough for test-case generation.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seed deterministically from a test name and case index.
        pub fn for_case(test_name: &str, case: u64) -> Self {
            let mut seed = 0xcbf2_9ce4_8422_2325u64; // FNV-1a offset basis
            for b in test_name.bytes() {
                seed ^= u64::from(b);
                seed = seed.wrapping_mul(0x0000_0100_0000_01B3);
            }
            TestRng {
                state: seed ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            }
        }

        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform integer in `[0, width)`; `width` must be non-zero.
        pub fn below(&mut self, width: u64) -> u64 {
            ((u128::from(self.next_u64()) * u128::from(width)) >> 64) as u64
        }

        /// Uniform float in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }
}

use test_runner::TestRng;

/// A generator of test values. Unlike real proptest there is no shrinking,
/// so a strategy is just a cloneable closure over a [`TestRng`].
pub trait Strategy: Clone {
    type Value;

    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        F: Fn(Self::Value) -> U + Clone,
        Self: Sized,
    {
        Map { base: self, f }
    }

    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        S: Strategy,
        F: Fn(Self::Value) -> S + Clone,
        Self: Sized,
    {
        FlatMap { base: self, f }
    }

    fn prop_filter<F>(self, reason: &'static str, f: F) -> Filter<Self, F>
    where
        F: Fn(&Self::Value) -> bool + Clone,
        Self: Sized,
    {
        Filter {
            base: self,
            reason,
            f,
        }
    }

    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        let inner = self;
        BoxedStrategy {
            gen_fn: Rc::new(move |rng| inner.generate(rng)),
        }
    }
}

#[derive(Clone)]
pub struct Map<S, F> {
    base: S,
    f: F,
}

impl<S, F, U> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U + Clone,
{
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.base.generate(rng))
    }
}

#[derive(Clone)]
pub struct FlatMap<S, F> {
    base: S,
    f: F,
}

impl<S, F, S2> Strategy for FlatMap<S, F>
where
    S: Strategy,
    S2: Strategy,
    F: Fn(S::Value) -> S2 + Clone,
{
    type Value = S2::Value;
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (self.f)(self.base.generate(rng)).generate(rng)
    }
}

#[derive(Clone)]
pub struct Filter<S, F> {
    base: S,
    reason: &'static str,
    f: F,
}

impl<S, F> Strategy for Filter<S, F>
where
    S: Strategy,
    F: Fn(&S::Value) -> bool + Clone,
{
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> S::Value {
        for _ in 0..1000 {
            let value = self.base.generate(rng);
            if (self.f)(&value) {
                return value;
            }
        }
        panic!(
            "prop_filter rejected 1000 candidates in a row: {}",
            self.reason
        );
    }
}

/// Type-erased strategy, the unit [`prop_oneof!`] mixes over.
pub struct BoxedStrategy<V> {
    gen_fn: Rc<dyn Fn(&mut TestRng) -> V>,
}

impl<V> Clone for BoxedStrategy<V> {
    fn clone(&self) -> Self {
        BoxedStrategy {
            gen_fn: Rc::clone(&self.gen_fn),
        }
    }
}

impl<V> Strategy for BoxedStrategy<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        (self.gen_fn)(rng)
    }
}

/// Uniform choice between boxed strategies (built by [`prop_oneof!`]).
pub struct Union<V> {
    options: Vec<BoxedStrategy<V>>,
}

impl<V> Clone for Union<V> {
    fn clone(&self) -> Self {
        Union {
            options: self.options.clone(),
        }
    }
}

impl<V> Union<V> {
    pub fn new(options: Vec<BoxedStrategy<V>>) -> Self {
        assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
        Union { options }
    }
}

impl<V> Strategy for Union<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        let idx = rng.below(self.options.len() as u64) as usize;
        self.options[idx].generate(rng)
    }
}

/// Always produces a clone of the given value.
#[derive(Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_int_range_strategy {
    ($($t:ty),+) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                self.start + rng.below((self.end - self.start) as u64) as $t
            }
        }

        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                lo + rng.below((hi - lo) as u64 + 1) as $t
            }
        }
    )+};
}

impl_int_range_strategy!(usize, u64, u32, u16, u8);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        let value = self.start + (self.end - self.start) * rng.unit_f64();
        if value >= self.end {
            self.start
        } else {
            value
        }
    }
}

impl Strategy for RangeInclusive<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty range strategy");
        lo + (hi - lo) * rng.unit_f64()
    }
}

impl<A: Strategy, B: Strategy> Strategy for (A, B) {
    type Value = (A::Value, B::Value);
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (self.0.generate(rng), self.1.generate(rng))
    }
}

impl<A: Strategy, B: Strategy, C: Strategy> Strategy for (A, B, C) {
    type Value = (A::Value, B::Value, C::Value);
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (
            self.0.generate(rng),
            self.1.generate(rng),
            self.2.generate(rng),
        )
    }
}

// ---------- string strategies: a small regex subset ----------

/// One `[class]{m,n}` unit of a pattern.
#[derive(Debug, Clone)]
struct PatternPiece {
    /// The characters this piece can produce.
    alphabet: Vec<char>,
    min: usize,
    max: usize,
}

/// Parse the regex subset used by in-repo tests: literal characters and
/// `[...]` classes (with `a-z` ranges), optionally followed by `{n}` or
/// `{m,n}`. Anything else is rejected loudly.
fn parse_pattern(pattern: &str) -> Vec<PatternPiece> {
    let chars: Vec<char> = pattern.chars().collect();
    let mut pieces = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        let alphabet = match chars[i] {
            '[' => {
                let close = chars[i..]
                    .iter()
                    .position(|c| *c == ']')
                    .unwrap_or_else(|| panic!("unclosed class in pattern {pattern:?}"))
                    + i;
                let mut alphabet = Vec::new();
                let mut j = i + 1;
                while j < close {
                    if j + 2 < close && chars[j + 1] == '-' {
                        let (lo, hi) = (chars[j], chars[j + 2]);
                        assert!(lo <= hi, "inverted range in pattern {pattern:?}");
                        alphabet.extend((lo as u32..=hi as u32).filter_map(char::from_u32));
                        j += 3;
                    } else {
                        alphabet.push(chars[j]);
                        j += 1;
                    }
                }
                i = close + 1;
                alphabet
            }
            '\\' => {
                assert!(
                    i + 1 < chars.len(),
                    "dangling escape in pattern {pattern:?}"
                );
                i += 2;
                vec![chars[i - 1]]
            }
            c => {
                assert!(
                    !"(){}|*+?.^$".contains(c),
                    "unsupported regex construct {c:?} in pattern {pattern:?}"
                );
                i += 1;
                vec![c]
            }
        };
        let (min, max) = if i < chars.len() && chars[i] == '{' {
            let close = chars[i..]
                .iter()
                .position(|c| *c == '}')
                .unwrap_or_else(|| panic!("unclosed repetition in pattern {pattern:?}"))
                + i;
            let body: String = chars[i + 1..close].iter().collect();
            i = close + 1;
            match body.split_once(',') {
                Some((lo, hi)) => (
                    lo.trim().parse().expect("repetition lower bound"),
                    hi.trim().parse().expect("repetition upper bound"),
                ),
                None => {
                    let n = body.trim().parse().expect("repetition count");
                    (n, n)
                }
            }
        } else {
            (1, 1)
        };
        assert!(!alphabet.is_empty(), "empty class in pattern {pattern:?}");
        assert!(min <= max, "inverted repetition in pattern {pattern:?}");
        pieces.push(PatternPiece { alphabet, min, max });
    }
    pieces
}

impl Strategy for &'static str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        let mut out = String::new();
        for piece in parse_pattern(self) {
            let count = piece.min + rng.below((piece.max - piece.min) as u64 + 1) as usize;
            for _ in 0..count {
                out.push(piece.alphabet[rng.below(piece.alphabet.len() as u64) as usize]);
            }
        }
        out
    }
}

// ---------- collections ----------

pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::{Range, RangeInclusive};

    /// Length bounds for [`vec`](fn@vec) — the two range forms in-repo tests use.
    pub trait SizeRange: Clone {
        /// Inclusive `(min, max)` length bounds.
        fn bounds(&self) -> (usize, usize);
    }

    impl SizeRange for Range<usize> {
        fn bounds(&self) -> (usize, usize) {
            assert!(self.start < self.end, "empty vec size range");
            (self.start, self.end - 1)
        }
    }

    impl SizeRange for RangeInclusive<usize> {
        fn bounds(&self) -> (usize, usize) {
            assert!(self.start() <= self.end(), "empty vec size range");
            (*self.start(), *self.end())
        }
    }

    #[derive(Clone)]
    pub struct VecStrategy<S> {
        element: S,
        min: usize,
        max: usize,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.min + rng.below((self.max - self.min) as u64 + 1) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Vectors of `element` with length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl SizeRange) -> VecStrategy<S> {
        let (min, max) = size.bounds();
        VecStrategy { element, min, max }
    }
}

pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
        BoxedStrategy, Just, Strategy,
    };
}

// ---------- macros ----------

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($strategy)),+])
    };
}

/// Fail the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err(format!(
                "assertion failed: {}",
                stringify!($cond)
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err(format!($($fmt)+));
        }
    };
}

/// Fail the current case unless the two values compare equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        if !(left == right) {
            return ::std::result::Result::Err(format!(
                "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
                stringify!($left),
                stringify!($right),
                left,
                right
            ));
        }
    }};
}

/// Fail the current case if the two values compare equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        if left == right {
            return ::std::result::Result::Err(format!(
                "assertion failed: {} != {}\n  both: {:?}",
                stringify!($left),
                stringify!($right),
                left
            ));
        }
    }};
}

/// Discard the current case (counts as a pass) unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Ok(());
        }
    };
}

/// Declare property tests. Each `fn name(arg in strategy, ..) { body }`
/// becomes a `#[test]` running [`proptest_case_count`] deterministic cases.
#[macro_export]
macro_rules! proptest {
    ($($(#[$meta:meta])* fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                for case in 0..$crate::proptest_case_count() {
                    let mut runner_rng =
                        $crate::test_runner::TestRng::for_case(stringify!($name), case);
                    $(let $arg =
                        $crate::Strategy::generate(&($strategy), &mut runner_rng);)+
                    let outcome: ::std::result::Result<(), ::std::string::String> =
                        (|| {
                            $body
                            ::std::result::Result::Ok(())
                        })();
                    if let ::std::result::Result::Err(message) = outcome {
                        panic!(
                            "proptest {} failed at case {}/{}:\n{}",
                            stringify!($name),
                            case,
                            $crate::proptest_case_count(),
                            message
                        );
                    }
                }
            }
        )*
    };
}

/// Cases per property (overridable via `PROPTEST_CASES`).
pub fn proptest_case_count() -> u64 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn pattern_parsing_produces_matching_strings() {
        let mut rng = super::test_runner::TestRng::for_case("pattern", 0);
        for _ in 0..200 {
            let s = super::Strategy::generate(&"[A-Za-z][A-Za-z0-9_]{0,6}", &mut rng);
            assert!((1..=7).contains(&s.chars().count()), "{s:?}");
            assert!(s.chars().next().unwrap().is_ascii_alphabetic());
            assert!(s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'));
        }
    }

    #[test]
    fn space_to_tilde_class_is_printable_ascii() {
        let mut rng = super::test_runner::TestRng::for_case("printable", 0);
        for _ in 0..200 {
            let s = super::Strategy::generate(&"[ -~]{1,20}", &mut rng);
            assert!(!s.is_empty() && s.len() <= 20);
            assert!(s.chars().all(|c| (' '..='~').contains(&c)), "{s:?}");
        }
    }

    proptest! {
        #[test]
        fn macro_binds_multiple_args(x in 0u32..10, y in 10u32..20) {
            prop_assert!(x < 10);
            prop_assert!((10..20).contains(&y));
        }

        #[test]
        fn oneof_and_vec_compose(values in crate::collection::vec(
            prop_oneof![Just(1u32), Just(2u32), 5u32..8], 1..6)) {
            prop_assert!(!values.is_empty() && values.len() <= 5);
            for v in &values {
                prop_assert!([1, 2, 5, 6, 7].contains(v), "{v}");
            }
        }

        #[test]
        fn assume_discards_cases(n in 0u64..100) {
            prop_assume!(n % 2 == 0);
            prop_assert_eq!(n % 2, 0);
        }
    }
}
