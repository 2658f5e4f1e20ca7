//! Minimal offline stand-in for the `proptest` crate.
//!
//! Implements the subset this workspace's property tests use: the
//! [`strategy::Strategy`] trait with `prop_map`, integer-range and
//! `any::<T>()` strategies, `collection::vec`, a character-class regex
//! subset for string strategies (`"[a-z][a-zA-Z0-9]{0,12}"`), and the
//! [`proptest!`] / [`prop_oneof!`] / [`prop_assert!`] macros.  Generation is
//! deterministic per test (seeded from the test name); there is no
//! shrinking — a failing case panics with the ordinary assert message.

#![forbid(unsafe_code)]

/// Per-test configuration (`ProptestConfig` in the real crate).
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of generated cases per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// Overrides the number of cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// Deterministic RNG used by all strategies.
pub mod test_runner {
    /// xoshiro256** seeded from a splitmix64 expansion of the test name.
    #[derive(Clone, Debug)]
    pub struct TestRng {
        state: [u64; 4],
    }

    impl TestRng {
        /// Builds the RNG for a named test, deterministically.
        pub fn for_test(name: &str) -> Self {
            let mut seed = 0xcbf2_9ce4_8422_2325u64;
            for b in name.bytes() {
                seed ^= b as u64;
                seed = seed.wrapping_mul(0x0000_0100_0000_01B3);
            }
            let mut sm = seed;
            let mut next = || {
                sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = sm;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            TestRng {
                state: [next(), next(), next(), next()],
            }
        }

        /// Next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            let s = &mut self.state;
            let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }

        /// Uniform sample below `bound` (which must be non-zero).
        pub fn below(&mut self, bound: u64) -> u64 {
            self.next_u64() % bound
        }

        /// Next 128 random bits.
        pub fn next_u128(&mut self) -> u128 {
            ((self.next_u64() as u128) << 64) | self.next_u64() as u128
        }
    }
}

/// The strategy abstraction: a deterministic value generator.
pub mod strategy {
    use super::test_runner::TestRng;
    use std::marker::PhantomData;
    use std::ops::{Range, RangeFrom, RangeInclusive};
    use std::sync::Arc;

    /// A generator of test values.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }

        /// Builds a recursive strategy: `self` generates the leaves, and
        /// `recurse` wraps an inner strategy into the next level, up to
        /// `depth` levels.  (The size-hint parameters of the real crate are
        /// accepted but unused.)
        fn prop_recursive<R, F>(
            self,
            depth: u32,
            _desired_size: u32,
            _expected_branch_size: u32,
            recurse: F,
        ) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
            R: Strategy<Value = Self::Value> + 'static,
            F: Fn(BoxedStrategy<Self::Value>) -> R,
        {
            let mut current = BoxedStrategy(Arc::new(self));
            for _ in 0..depth {
                current = BoxedStrategy(Arc::new(recurse(current.clone())));
            }
            current
        }
    }

    /// A cheaply cloneable, type-erased strategy.
    pub struct BoxedStrategy<T>(Arc<dyn Strategy<Value = T>>);

    impl<T> Clone for BoxedStrategy<T> {
        fn clone(&self) -> Self {
            BoxedStrategy(Arc::clone(&self.0))
        }
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            self.0.generate(rng)
        }
    }

    /// Strategy that always yields a clone of one value.
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    impl<V> Strategy for Box<dyn Strategy<Value = V>> {
        type Value = V;

        fn generate(&self, rng: &mut TestRng) -> V {
            (**self).generate(rng)
        }
    }

    /// Strategy produced by [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
        type Value = U;

        fn generate(&self, rng: &mut TestRng) -> U {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Uniform choice between boxed alternatives ([`prop_oneof!`](crate::prop_oneof)).
    pub struct Union<V> {
        options: Vec<Box<dyn Strategy<Value = V>>>,
    }

    impl<V> Union<V> {
        /// Builds a union over the given alternatives.
        pub fn new(options: Vec<Box<dyn Strategy<Value = V>>>) -> Self {
            assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
            Union { options }
        }

        /// Boxes one alternative (used by the `prop_oneof!` macro).
        pub fn boxed<S: Strategy<Value = V> + 'static>(s: S) -> Box<dyn Strategy<Value = V>> {
            Box::new(s)
        }
    }

    impl<V> Strategy for Union<V> {
        type Value = V;

        fn generate(&self, rng: &mut TestRng) -> V {
            let i = rng.below(self.options.len() as u64) as usize;
            self.options[i].generate(rng)
        }
    }

    macro_rules! impl_int_strategies {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    (self.start as i128 + (rng.next_u64() as u128 % span) as i128) as $t
                }
            }

            impl Strategy for RangeInclusive<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (start, end) = (*self.start(), *self.end());
                    assert!(start <= end, "empty range strategy");
                    let span = (end as i128 - start as i128) as u128 + 1;
                    (start as i128 + (rng.next_u64() as u128 % span) as i128) as $t
                }
            }

            impl Strategy for RangeFrom<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    (self.start..=<$t>::MAX).generate(rng)
                }
            }
        )*};
    }

    impl_int_strategies!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! impl_128_strategies {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = self.end.abs_diff(self.start);
                    self.start.wrapping_add((rng.next_u128() % span) as $t)
                }
            }

            impl Strategy for RangeInclusive<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (start, end) = (*self.start(), *self.end());
                    assert!(start <= end, "empty range strategy");
                    match end.abs_diff(start).checked_add(1) {
                        Some(span) => start.wrapping_add((rng.next_u128() % span) as $t),
                        // Full domain: every 128-bit pattern is valid.
                        None => rng.next_u128() as $t,
                    }
                }
            }

            impl Strategy for RangeFrom<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    (self.start..=<$t>::MAX).generate(rng)
                }
            }
        )*};
    }

    impl_128_strategies!(u128, i128);

    /// `any::<T>()` strategy.
    pub struct Any<T>(pub(crate) PhantomData<T>);

    /// Types with a canonical full-range strategy.
    pub trait Arbitrary: Sized {
        /// Draws an unconstrained value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for u128 {
        fn arbitrary(rng: &mut TestRng) -> u128 {
            rng.next_u128()
        }
    }

    impl Arbitrary for i128 {
        fn arbitrary(rng: &mut TestRng) -> i128 {
            rng.next_u128() as i128
        }
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// String strategy from a regex subset: a sequence of literal characters
    /// and character classes (`[a-zA-Z0-9_.:@-]`), each optionally repeated
    /// with `{n}` or `{m,n}`.
    impl Strategy for &'static str {
        type Value = String;

        fn generate(&self, rng: &mut TestRng) -> String {
            let atoms = parse_pattern(self);
            let mut out = String::new();
            for (chars, min, max) in &atoms {
                let n = *min + rng.below((*max - *min + 1) as u64) as usize;
                for _ in 0..n {
                    out.push(chars[rng.below(chars.len() as u64) as usize]);
                }
            }
            out
        }
    }

    fn parse_pattern(pattern: &str) -> Vec<(Vec<char>, usize, usize)> {
        let chars: Vec<char> = pattern.chars().collect();
        let mut atoms = Vec::new();
        let mut i = 0;
        while i < chars.len() {
            let class: Vec<char> = if chars[i] == '[' {
                let close = chars[i..]
                    .iter()
                    .position(|c| *c == ']')
                    .expect("unterminated character class")
                    + i;
                let mut set = Vec::new();
                let mut j = i + 1;
                while j < close {
                    if j + 2 < close && chars[j + 1] == '-' {
                        let (lo, hi) = (chars[j], chars[j + 2]);
                        assert!(lo <= hi, "invalid class range {lo}-{hi}");
                        set.extend((lo..=hi).filter(|c| c.is_ascii()));
                        j += 3;
                    } else {
                        set.push(chars[j]);
                        j += 1;
                    }
                }
                i = close + 1;
                set
            } else {
                let c = chars[i];
                i += 1;
                vec![c]
            };
            let (min, max) = if i < chars.len() && chars[i] == '{' {
                let close = chars[i..]
                    .iter()
                    .position(|c| *c == '}')
                    .expect("unterminated repetition")
                    + i;
                let body: String = chars[i + 1..close].iter().collect();
                i = close + 1;
                match body.split_once(',') {
                    Some((m, n)) => (
                        m.trim().parse().expect("repetition lower bound"),
                        n.trim().parse().expect("repetition upper bound"),
                    ),
                    None => {
                        let n = body.trim().parse().expect("repetition count");
                        (n, n)
                    }
                }
            } else {
                (1, 1)
            };
            assert!(!class.is_empty(), "empty character class");
            atoms.push((class, min, max));
        }
        atoms
    }
}

/// Collection strategies (`prop::collection`).
pub mod collection {
    use super::strategy::Strategy;
    use super::test_runner::TestRng;
    use std::ops::Range;

    /// Strategy for `Vec<S::Value>` with a length drawn from `size`.
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// Builds a vector strategy.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.end - self.size.start).max(1) as u64;
            let len = self.size.start + rng.below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// `any::<T>()` — the unconstrained strategy for `T`.
pub fn any<T: strategy::Arbitrary>() -> strategy::Any<T> {
    strategy::Any(std::marker::PhantomData)
}

/// The common imports, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::strategy::{Arbitrary, BoxedStrategy, Just, Strategy};
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
        ProptestConfig,
    };

    /// Namespace alias so `prop::collection::vec` works as in the real crate.
    pub mod prop {
        pub use crate::collection;
    }
}

/// Uniform choice between strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $( $crate::strategy::Union::boxed($strategy) ),+
        ])
    };
}

/// Property assertion (plain `assert!` — the shim does not shrink).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Property equality assertion.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Property inequality assertion.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Skips the current case when its precondition does not hold.  Expands to a
/// `continue` of the case loop the [`proptest!`] macro generates.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            continue;
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            continue;
        }
    };
}

/// Declares property tests: each case draws its arguments from the given
/// strategies and runs the body `config.cases` times.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    ( ($cfg:expr)
      $( $(#[$meta:meta])*
         fn $name:ident ( $($arg:ident in $strat:expr),* $(,)? ) $body:block
      )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let mut rng = $crate::test_runner::TestRng::for_test(stringify!($name));
                for _case in 0..config.cases {
                    $( let $arg = $crate::strategy::Strategy::generate(&($strat), &mut rng); )*
                    $body
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn ranges_and_vectors(n in 3u32..9, xs in prop::collection::vec(any::<u8>(), 0..5)) {
            prop_assert!((3..9).contains(&n));
            prop_assert!(xs.len() < 5);
        }

        #[test]
        fn strings_match_their_classes(s in "[a-z][a-zA-Z0-9]{0,12}") {
            prop_assert!(!s.is_empty() && s.len() <= 13);
            prop_assert!(s.chars().next().unwrap().is_ascii_lowercase());
            prop_assert!(s.chars().all(|c| c.is_ascii_alphanumeric()));
        }

        #[test]
        fn oneof_and_map_compose(v in prop_oneof![
            (0u32..4).prop_map(|x| x as u64),
            any::<bool>().prop_map(|b| if b { 100u64 } else { 200 }),
        ]) {
            prop_assert!(v < 4 || v == 100 || v == 200);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        use crate::strategy::Strategy;
        let gen = |name: &str| {
            let mut rng = crate::test_runner::TestRng::for_test(name);
            (0..4)
                .map(|_| "[a-f0-9]{4}".generate(&mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(gen("t"), gen("t"));
        assert_ne!(gen("t"), gen("u"));
    }
}
