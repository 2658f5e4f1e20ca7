//! Probabilistic primality testing and prime generation for RSA key
//! generation.
//!
//! Candidates are first sieved against a table of small primes, then subjected
//! to Miller–Rabin with random bases.  The number of rounds defaults to a
//! value giving a negligible error probability for the key sizes used by the
//! simulator.

use crate::bigint::{BigUint, MontgomeryCtx};
use rand::RngCore;

/// Small primes used for trial division before Miller–Rabin.
const SMALL_PRIMES: [u64; 60] = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
    101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193,
    197, 199, 211, 223, 227, 229, 233, 239, 241, 251, 257, 263, 269, 271, 277, 281,
];

/// Default number of Miller–Rabin rounds.
pub(crate) const DEFAULT_ROUNDS: usize = 24;

/// Returns `true` if `n` is (very probably) prime.
///
/// Uses trial division by [`SMALL_PRIMES`] followed by `rounds` iterations of
/// Miller–Rabin with uniformly random bases.
pub(crate) fn is_probable_prime<R: RngCore>(n: &BigUint, rounds: usize, rng: &mut R) -> bool {
    if n.bit_len() <= 64 && SMALL_PRIMES.contains(&n.low_u64()) {
        return true;
    }
    if n.is_even() || n.is_one() {
        return false;
    }
    // Trial division, one multi-limb pass per word-sized product of odd small
    // primes (3·5·…·53 is the first) instead of one per prime.
    let mut primes = &SMALL_PRIMES[1..];
    while !primes.is_empty() {
        let (mut product, mut len) = (1u64, 0);
        while let Some(wider) = primes.get(len).and_then(|&p| product.checked_mul(p)) {
            (product, len) = (wider, len + 1);
        }
        let rem = n.mod_u64(product);
        if primes[..len].iter().any(|&p| rem.is_multiple_of(p)) {
            return false;
        }
        primes = &primes[len..];
    }
    // n is odd and > 281 here; write n - 1 = d * 2^s with d odd.
    let Some(ctx) = MontgomeryCtx::new(n) else {
        return false;
    };
    let two = BigUint::from_u64(2);
    let n_minus_one = n.sub(&BigUint::one());
    let mut s = 0;
    while !n_minus_one.bit(s) {
        s += 1;
    }
    let d = n_minus_one.shr_bits(s);
    let upper = n_minus_one.sub(&BigUint::one()); // n - 2
    (0..rounds).all(|_| {
        // Base in [2, n-2].
        let mut a = BigUint::random_below(&upper, rng);
        if a < two {
            a = two.clone();
        }
        ctx.is_strong_probable_prime(&a, &d, s)
    })
}

/// Generates a random probable prime with exactly `bits` bits.
///
/// The top two bits are forced to one (so that the product of two such primes
/// has exactly `2 * bits` bits, as required for a fixed-size RSA modulus) and
/// the low bit is forced to one.
pub fn gen_prime<R: RngCore>(bits: usize, rng: &mut R) -> BigUint {
    assert!(bits >= 16, "prime size of {bits} bits is too small");
    loop {
        // random_with_bits already forces the top bit; additionally force the
        // second-highest bit (so a product of two such primes keeps its
        // nominal width) and the low bit (odd).  Setting an unset bit by
        // addition cannot carry.
        let mut candidate = BigUint::random_with_bits(bits, rng);
        if bits >= 2 && !candidate.bit(bits - 2) {
            candidate = candidate.add(&BigUint::one().shl_bits(bits - 2));
        }
        if candidate.is_even() {
            candidate = candidate.add_u64(1);
        }
        debug_assert_eq!(candidate.bit_len(), bits);
        if is_probable_prime(&candidate, DEFAULT_ROUNDS, rng) {
            return candidate;
        }
    }
}

/// Returns `true` when `|p - q|` fits in `min_diff_bits` bits or fewer —
/// primes close enough that Fermat factorisation of `p * q` starts from
/// `ceil(sqrt(n))` and wins almost immediately.  Equal primes are the
/// degenerate case (`|p - q| = 0`).
pub(crate) fn primes_too_close(p: &BigUint, q: &BigUint, min_diff_bits: usize) -> bool {
    let diff = if p >= q { p.sub(q) } else { q.sub(p) };
    diff.bit_len() <= min_diff_bits
}

/// Generates a "safe enough" prime pair for an RSA modulus of `modulus_bits`
/// bits: the two primes must differ by more than `2^(modulus_bits/2 - 100)`
/// (the FIPS 186-5 closeness bound), or `q` is re-drawn.
///
/// Two independently drawn primes of this size violate the bound with
/// probability around `2^-100`, so the rejection loop effectively never
/// re-draws — seeded key generation stays deterministic in practice.
pub(crate) fn gen_prime_pair<R: RngCore>(modulus_bits: usize, rng: &mut R) -> (BigUint, BigUint) {
    let half = modulus_bits / 2;
    let min_diff_bits = half.saturating_sub(100).max(1);
    let p = gen_prime(half, rng);
    loop {
        let q = gen_prime(modulus_bits - half, rng);
        if !primes_too_close(&p, &q, min_diff_bits) {
            return (p, q);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xdecafbad)
    }

    #[test]
    fn small_primes_are_prime() {
        let mut r = rng();
        for p in [2u64, 3, 5, 7, 11, 13, 97, 101, 257, 65537, 1_000_000_007] {
            assert!(
                is_probable_prime(&BigUint::from_u64(p), 16, &mut r),
                "{p} should be prime"
            );
        }
    }

    #[test]
    fn small_composites_are_rejected() {
        let mut r = rng();
        for c in [
            0u64,
            1,
            4,
            6,
            9,
            15,
            21,
            91,
            561,
            341,
            645,
            1_000_000_006,
            65537 * 3,
        ] {
            assert!(
                !is_probable_prime(&BigUint::from_u64(c), 16, &mut r),
                "{c} should be composite"
            );
        }
    }

    #[test]
    fn carmichael_numbers_are_rejected() {
        // Classic Fermat pseudoprimes that Miller–Rabin must still catch.
        let mut r = rng();
        for c in [561u64, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 62745] {
            assert!(
                !is_probable_prime(&BigUint::from_u64(c), 16, &mut r),
                "Carmichael number {c} should be composite"
            );
        }
    }

    #[test]
    fn known_large_prime_accepted() {
        // 2^127 - 1 is a Mersenne prime.
        let m127 = BigUint::one().shl_bits(127).sub(&BigUint::one());
        let mut r = rng();
        assert!(is_probable_prime(&m127, 16, &mut r));
        // 2^128 - 1 is composite.
        let c = BigUint::one().shl_bits(128).sub(&BigUint::one());
        assert!(!is_probable_prime(&c, 16, &mut r));
    }

    proptest! {
        #[test]
        fn prop_verdict_matches_trial_division(n in 0u64..200_000, wide in any::<bool>()) {
            // Around the sieve's own primes and their products, where the
            // grouped remainders decide, and past 2^64 where the sieve runs
            // over two limbs: n * 2^64 + n is a multiple of n.
            let prime = n >= 2 && (2..).take_while(|d| d * d <= n).all(|d| n % d != 0);
            let mut r = rng();
            if wide {
                let multiple = BigUint::from_bytes_be(&(((n as u128) << 64) | n as u128).to_be_bytes());
                prop_assert!(!is_probable_prime(&multiple, 16, &mut r));
            } else {
                prop_assert_eq!(is_probable_prime(&BigUint::from_u64(n), 16, &mut r), prime);
            }
        }
    }

    #[test]
    fn generated_primes_have_requested_size() {
        let mut r = rng();
        for bits in [64usize, 96, 128] {
            let p = gen_prime(bits, &mut r);
            assert_eq!(p.bit_len(), bits);
            assert!(!p.is_even());
            assert!(is_probable_prime(&p, 16, &mut r));
        }
    }

    #[test]
    fn prime_pair_is_distinct_and_sized() {
        let mut r = rng();
        let (p, q) = gen_prime_pair(256, &mut r);
        assert_ne!(p, q);
        let n = p.mul(&q);
        assert_eq!(n.bit_len(), 256);
    }

    #[test]
    fn close_prime_pairs_are_detected() {
        // Twin primes: the closest distinct pair possible.
        let p = BigUint::from_u64(1_000_000_007);
        let q = BigUint::from_u64(1_000_000_009);
        assert!(primes_too_close(&p, &q, 28));
        assert!(primes_too_close(&q, &p, 28)); // symmetric
        assert!(primes_too_close(&p, &p, 1)); // equal primes always fail
                                              // |p - q| = 2 fits in 2 bits, so a 1-bit bound passes it.
        assert!(!primes_too_close(&p, &q, 1));
        // A pair a full half-width apart clears any realistic bound.
        let far = BigUint::from_u64(3);
        assert!(!primes_too_close(&p, &far, 28));
    }

    #[test]
    fn generated_pairs_respect_the_closeness_bound() {
        let mut r = rng();
        for modulus_bits in [256usize, 512] {
            let (p, q) = gen_prime_pair(modulus_bits, &mut r);
            let bound = (modulus_bits / 2).saturating_sub(100).max(1);
            assert!(!primes_too_close(&p, &q, bound));
        }
    }
}
