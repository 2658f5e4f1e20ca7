//! Arbitrary-precision unsigned integer arithmetic.
//!
//! The paper's prototype relies on OpenSSL for RSA; this reproduction has no
//! such dependency, so the multi-precision arithmetic underlying RSA key
//! generation, signing and verification is implemented here from scratch.
//!
//! The representation is a little-endian vector of 64-bit limbs with no
//! trailing zero limbs (the canonical form of zero is the empty vector).
//! Every modular exponentiation goes through [`MontgomeryCtx`]: one CIOS
//! Montgomery multiply with the limb count fixed at compile time — squares
//! are that multiply on `(a, a)` — inlined into one window loop that is
//! monomorphised for the two RSA sizes (4-limb CRT halves and Miller–Rabin
//! candidates, 8-limb full width) and runs on stack arrays from the
//! division-free conversion into Montgomery form to the conversion back; a
//! slice twin of the kernel serves every other size through the same loop.
//! The schoolbook routines here are used for key generation and for
//! [`MontgomeryCtx::mod_pow_binary`], the reference the ladder is tested
//! against.

use std::cmp::Ordering;
use std::fmt;

/// An arbitrary-precision unsigned integer.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BigUint {
    /// Little-endian 64-bit limbs; no trailing zeros (empty == 0).
    limbs: Vec<u64>,
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigUint(0x{})", self.to_hex())
    }
}

impl fmt::Display for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{}", self.to_hex())
    }
}

impl BigUint {
    /// The value zero.
    pub(crate) fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// The value one.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// Builds a value from a single 64-bit word.
    pub(crate) fn from_u64(v: u64) -> Self {
        if v == 0 {
            Self::zero()
        } else {
            BigUint { limbs: vec![v] }
        }
    }

    /// Builds a value from raw little-endian limbs, normalising trailing zeros.
    pub(crate) fn from_limbs(mut limbs: Vec<u64>) -> Self {
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        BigUint { limbs }
    }

    /// Parses a big-endian byte string (leading zeros allowed).
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len() / 8 + 1);
        let mut chunk_iter = bytes.rchunks(8);
        for chunk in &mut chunk_iter {
            let mut limb = 0u64;
            for &b in chunk {
                limb = (limb << 8) | b as u64;
            }
            limbs.push(limb);
        }
        Self::from_limbs(limbs)
    }

    /// Serialises to a minimal big-endian byte string (empty for zero).
    pub(crate) fn to_bytes_be(&self) -> Vec<u8> {
        if self.is_zero() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for limb in self.limbs.iter().rev() {
            out.extend_from_slice(&limb.to_be_bytes());
        }
        // Strip leading zero bytes.
        let first_nonzero = out.iter().position(|&b| b != 0).unwrap_or(out.len() - 1);
        out.drain(..first_nonzero);
        out
    }

    /// Serialises to a fixed-width big-endian byte string, left-padded with
    /// zeros.  Panics if the value does not fit.
    pub(crate) fn to_bytes_be_padded(&self, width: usize) -> Vec<u8> {
        let needed = self.bit_len().div_ceil(8);
        assert!(
            needed <= width,
            "value needs {needed} bytes but field is {width} bytes"
        );
        let mut out = vec![0u8; width];
        for (chunk, limb) in out.rchunks_mut(8).zip(&self.limbs) {
            // A short leading chunk drops high bytes the assert showed are zero.
            chunk.copy_from_slice(&limb.to_be_bytes()[8 - chunk.len()..]);
        }
        out
    }

    /// Renders as lowercase hexadecimal with no leading zeros ("0" for zero).
    pub fn to_hex(&self) -> String {
        if self.is_zero() {
            return "0".to_string();
        }
        let mut s = String::new();
        for (i, limb) in self.limbs.iter().rev().enumerate() {
            if i == 0 {
                s.push_str(&format!("{limb:x}"));
            } else {
                s.push_str(&format!("{limb:016x}"));
            }
        }
        s
    }

    /// True if the value is zero.
    pub(crate) fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// True if the value is one.
    pub(crate) fn is_one(&self) -> bool {
        self.limbs == [1]
    }

    /// True if the value is even (zero counts as even).
    pub(crate) fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// Number of significant bits (0 for zero).
    pub(crate) fn bit_len(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(top) => (self.limbs.len() - 1) * 64 + (64 - top.leading_zeros() as usize),
        }
    }

    /// Returns bit `i` (little-endian bit numbering).
    pub(crate) fn bit(&self, i: usize) -> bool {
        let limb = i / 64;
        let off = i % 64;
        self.limbs.get(limb).is_some_and(|l| (l >> off) & 1 == 1)
    }

    /// Returns the low 64 bits of the value.
    pub(crate) fn low_u64(&self) -> u64 {
        self.limbs.first().copied().unwrap_or(0)
    }

    /// Addition.
    pub(crate) fn add(&self, other: &BigUint) -> BigUint {
        let (longer, shorter) = if self.limbs.len() >= other.limbs.len() {
            (&self.limbs, &other.limbs)
        } else {
            (&other.limbs, &self.limbs)
        };
        let mut out = Vec::with_capacity(longer.len() + 1);
        let mut carry = 0u64;
        for (i, &a) in longer.iter().enumerate() {
            let b = shorter.get(i).copied().unwrap_or(0);
            let (s1, c1) = a.overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = (c1 as u64) + (c2 as u64);
        }
        if carry != 0 {
            out.push(carry);
        }
        BigUint::from_limbs(out)
    }

    /// Adds a small word.
    pub(crate) fn add_u64(&self, v: u64) -> BigUint {
        self.add(&BigUint::from_u64(v))
    }

    /// Subtraction; returns `None` on underflow.
    pub(crate) fn checked_sub(&self, other: &BigUint) -> Option<BigUint> {
        if self < other {
            return None;
        }
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let a = self.limbs[i];
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (d1, b1) = a.overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = (b1 as u64) + (b2 as u64);
        }
        debug_assert_eq!(borrow, 0);
        Some(BigUint::from_limbs(out))
    }

    /// Subtraction; panics on underflow.
    pub(crate) fn sub(&self, other: &BigUint) -> BigUint {
        self.checked_sub(other)
            .expect("BigUint subtraction underflow")
    }

    /// Schoolbook multiplication.
    pub(crate) fn mul(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry = 0u64;
            for (j, &b) in other.limbs.iter().enumerate() {
                let cur = out[i + j] as u128 + (a as u128) * (b as u128) + carry as u128;
                out[i + j] = cur as u64;
                carry = (cur >> 64) as u64;
            }
            let mut k = i + other.limbs.len();
            while carry != 0 {
                let cur = out[k] as u128 + carry as u128;
                out[k] = cur as u64;
                carry = (cur >> 64) as u64;
                k += 1;
            }
        }
        BigUint::from_limbs(out)
    }

    /// Left shift by `bits`.
    pub fn shl_bits(&self, bits: usize) -> BigUint {
        if self.is_zero() || bits == 0 {
            return self.clone();
        }
        let limb_shift = bits / 64;
        let bit_shift = bits % 64;
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &limb in &self.limbs {
                out.push((limb << bit_shift) | carry);
                carry = limb >> (64 - bit_shift);
            }
            if carry != 0 {
                out.push(carry);
            }
        }
        BigUint::from_limbs(out)
    }

    /// Right shift by `bits`.
    pub(crate) fn shr_bits(&self, bits: usize) -> BigUint {
        let limb_shift = bits / 64;
        if limb_shift >= self.limbs.len() {
            return BigUint::zero();
        }
        let bit_shift = bits % 64;
        let mut out = Vec::with_capacity(self.limbs.len() - limb_shift);
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs[limb_shift..]);
        } else {
            let src = &self.limbs[limb_shift..];
            for i in 0..src.len() {
                let lo = src[i] >> bit_shift;
                let hi = if i + 1 < src.len() {
                    src[i + 1] << (64 - bit_shift)
                } else {
                    0
                };
                out.push(lo | hi);
            }
        }
        BigUint::from_limbs(out)
    }

    /// Quotient and remainder via binary long division.
    ///
    /// This is O(bits × limbs); it is only used in cold paths (key generation,
    /// Montgomery-context setup), never per-tuple.
    pub(crate) fn div_rem(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        assert!(!divisor.is_zero(), "BigUint division by zero");
        if self < divisor {
            return (BigUint::zero(), self.clone());
        }
        if divisor.limbs.len() == 1 {
            let (q, r) = self.div_rem_u64(divisor.limbs[0]);
            return (q, BigUint::from_u64(r));
        }
        // Knuth Algorithm D (TAOCP vol. 2, 4.3.1) over 64-bit limbs:
        // normalise so the divisor's top limb has its high bit set, then
        // estimate each quotient limb from the top two dividend limbs and
        // correct it at most twice.  Linear passes per quotient limb, versus
        // the one-bit-per-iteration schoolbook loop this replaces.
        let shift = divisor.limbs.last().expect("multi-limb").leading_zeros() as usize;
        let v = divisor.shl_bits(shift);
        let u = self.shl_bits(shift);
        let n = v.limbs.len();
        let m = u.limbs.len() - n;
        let vn = &v.limbs;
        let mut un = u.limbs.clone();
        un.push(0);
        let mut quotient = vec![0u64; m + 1];
        let base = 1u128 << 64;
        for j in (0..=m).rev() {
            // Estimate from the top two dividend limbs over the top divisor
            // limb; thanks to normalisation the estimate is at most 2 high.
            let num = ((un[j + n] as u128) << 64) | un[j + n - 1] as u128;
            let den = vn[n - 1] as u128;
            let mut qhat = num / den;
            let mut rhat = num % den;
            while qhat >= base
                || qhat * (vn[n - 2] as u128) > ((rhat << 64) | un[j + n - 2] as u128)
            {
                qhat -= 1;
                rhat += den;
                if rhat >= base {
                    break;
                }
            }
            // Multiply-and-subtract qhat * v from the dividend window.
            let mut carry = 0u128;
            let mut borrow = 0i128;
            for i in 0..n {
                let p = qhat * (vn[i] as u128) + carry;
                carry = p >> 64;
                let d = (un[j + i] as i128) - ((p as u64) as i128) + borrow;
                un[j + i] = d as u64;
                borrow = d >> 64; // arithmetic: 0 or -1
            }
            let d = (un[j + n] as i128) - (carry as i128) + borrow;
            un[j + n] = d as u64;
            if d < 0 {
                // The estimate was one too high after all: add back.
                qhat -= 1;
                let mut c = 0u128;
                for i in 0..n {
                    let s = (un[j + i] as u128) + (vn[i] as u128) + c;
                    un[j + i] = s as u64;
                    c = s >> 64;
                }
                un[j + n] = (un[j + n] as u128 + c) as u64;
            }
            quotient[j] = qhat as u64;
        }
        un.truncate(n);
        let rem = BigUint::from_limbs(un).shr_bits(shift);
        (BigUint::from_limbs(quotient), rem)
    }

    /// Quotient and remainder by a single 64-bit word.
    pub(crate) fn div_rem_u64(&self, divisor: u64) -> (BigUint, u64) {
        assert!(divisor != 0, "BigUint division by zero");
        let mut out = vec![0u64; self.limbs.len()];
        let mut rem = 0u128;
        for i in (0..self.limbs.len()).rev() {
            let cur = (rem << 64) | self.limbs[i] as u128;
            out[i] = (cur / divisor as u128) as u64;
            rem = cur % divisor as u128;
        }
        (BigUint::from_limbs(out), rem as u64)
    }

    /// Remainder modulo a 64-bit word (no quotient is built).
    pub(crate) fn mod_u64(&self, modulus: u64) -> u64 {
        assert!(modulus != 0, "BigUint division by zero");
        let fold = |rem: u128, &limb: &u64| ((rem << 64) | limb as u128) % modulus as u128;
        self.limbs.iter().rev().fold(0, fold) as u64
    }

    /// `self mod modulus` via long division.
    pub(crate) fn rem(&self, modulus: &BigUint) -> BigUint {
        self.div_rem(modulus).1
    }

    /// Modular multiplicative inverse: returns `x` with `self * x ≡ 1 (mod
    /// modulus)`, or `None` when `gcd(self, modulus) != 1`.
    pub(crate) fn mod_inverse(&self, modulus: &BigUint) -> Option<BigUint> {
        if modulus.is_zero() || modulus.is_one() {
            return None;
        }
        // Extended Euclid with signed coefficients represented as
        // (magnitude, is_negative).
        let mut old_r = modulus.clone();
        let mut r = self.rem(modulus);
        if r.is_zero() {
            return None;
        }
        let mut old_t = (BigUint::zero(), false);
        let mut t = (BigUint::one(), false);

        fn signed_sub(a: &(BigUint, bool), b: &(BigUint, bool)) -> (BigUint, bool) {
            // a - b
            match (a.1, b.1) {
                (false, false) => {
                    if a.0 >= b.0 {
                        (a.0.sub(&b.0), false)
                    } else {
                        (b.0.sub(&a.0), true)
                    }
                }
                (true, true) => {
                    if b.0 >= a.0 {
                        (b.0.sub(&a.0), false)
                    } else {
                        (a.0.sub(&b.0), true)
                    }
                }
                (false, true) => (a.0.add(&b.0), false),
                (true, false) => (a.0.add(&b.0), !a.0.add(&b.0).is_zero()),
            }
        }

        while !r.is_zero() {
            let (q, rem) = old_r.div_rem(&r);
            old_r = std::mem::replace(&mut r, rem);
            let qt = (q.mul(&t.0), t.1);
            let new_t = signed_sub(&old_t, &qt);
            old_t = std::mem::replace(&mut t, new_t);
        }
        if !old_r.is_one() {
            return None;
        }
        // Normalise old_t into [0, modulus).
        let (mag, neg) = old_t;
        let reduced = mag.rem(modulus);
        if neg && !reduced.is_zero() {
            Some(modulus.sub(&reduced))
        } else {
            Some(reduced)
        }
    }

    /// Generates a uniformly random value with exactly `bits` bits (top bit
    /// set) using the supplied random byte source.
    pub fn random_with_bits<R: rand::RngCore>(bits: usize, rng: &mut R) -> BigUint {
        assert!(bits > 0);
        let nbytes = bits.div_ceil(8);
        let mut bytes = vec![0u8; nbytes];
        rng.fill_bytes(&mut bytes);
        // Clear excess high bits, then force the top bit.
        let excess = nbytes * 8 - bits;
        bytes[0] &= 0xffu8 >> excess;
        bytes[0] |= 1u8 << (7 - excess);
        BigUint::from_bytes_be(&bytes)
    }

    /// Generates a uniformly random value below `bound` (which must be > 0).
    pub(crate) fn random_below<R: rand::RngCore>(bound: &BigUint, rng: &mut R) -> BigUint {
        assert!(!bound.is_zero());
        let bits = bound.bit_len();
        loop {
            let nbytes = bits.div_ceil(8);
            let mut bytes = vec![0u8; nbytes];
            rng.fill_bytes(&mut bytes);
            let excess = nbytes * 8 - bits;
            bytes[0] &= 0xffu8 >> excess;
            let candidate = BigUint::from_bytes_be(&bytes);
            if &candidate < bound {
                return candidate;
            }
        }
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => {
                for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
                    match a.cmp(b) {
                        Ordering::Equal => continue,
                        non_eq => return non_eq,
                    }
                }
                Ordering::Equal
            }
            non_eq => non_eq,
        }
    }
}

impl From<u64> for BigUint {
    fn from(v: u64) -> Self {
        BigUint::from_u64(v)
    }
}

/// Precomputed state for Montgomery modular multiplication with an odd
/// modulus (the RSA hot path).  `R = 2^(64k)` for a `k`-limb modulus.
#[derive(Clone)]
pub struct MontgomeryCtx {
    modulus: BigUint,
    /// `-n^{-1} mod 2^64`.
    n0inv: u64,
    /// `R^2 mod n`, the factor that converts into Montgomery form.
    r2: Vec<u64>,
    /// `R mod n` — the Montgomery form of 1.
    one: Vec<u64>,
    /// `n - (R mod n)` — the Montgomery form of `n - 1`.
    minus_one: Vec<u64>,
}

impl fmt::Debug for MontgomeryCtx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MontgomeryCtx")
            .field("modulus_bits", &self.modulus.bit_len())
            .finish()
    }
}

/// CIOS Montgomery multiplication with the limb count fixed at compile time:
/// `out = a * b * R^{-1} mod n`, fully reduced, whenever one operand is below
/// `n` (the other may be any `K`-limb value).  The accumulator lives in a
/// stack array, every inner loop unrolls and no bounds check survives.
///
/// This is the only kernel an RSA exponentiation runs: a square is
/// `mont_mul_fixed(a, a)`.  (A separated-operand squaring kernel does fewer
/// word multiplies and measured *slower* at both RSA sizes; it may come back
/// only with a `crypto_says` row that beats this one at `K = 4` and `8`.)
/// `inline(always)` puts it inside the window loop of its monomorphisation,
/// where modulus and operands stay in registers from one call to the next.
#[inline(always)]
fn mont_mul_fixed<const K: usize>(
    n: &[u64; K],
    n0inv: u64,
    a: &[u64; K],
    b: &[u64; K],
    out: &mut [u64; K],
) {
    let mut t = [0u64; K];
    let mut t_hi = 0u64; // t[K]
    for &bi in b {
        // Multiply-accumulate: t += a * bi
        let mut carry = 0u64;
        for j in 0..K {
            let sum = t[j] as u128 + (a[j] as u128) * (bi as u128) + carry as u128;
            t[j] = sum as u64;
            carry = (sum >> 64) as u64;
        }
        let sum = t_hi as u128 + carry as u128;
        t_hi = sum as u64;
        let t_hi2 = (sum >> 64) as u64; // t[K + 1], only ever 0 or 1

        // Reduction: add m * n and divide by 2^64.
        let m = t[0].wrapping_mul(n0inv);
        let sum = t[0] as u128 + (m as u128) * (n[0] as u128);
        let mut carry = (sum >> 64) as u64;
        for j in 1..K {
            let sum = t[j] as u128 + (m as u128) * (n[j] as u128) + carry as u128;
            t[j - 1] = sum as u64;
            carry = (sum >> 64) as u64;
        }
        let sum = t_hi as u128 + carry as u128;
        t[K - 1] = sum as u64;
        t_hi = t_hi2.wrapping_add((sum >> 64) as u64);
    }
    // Final subtraction, branchless (see `mont_mul_into`): subtract n
    // unconditionally and mask-select, keeping control flow
    // operand-independent through the exponentiation's hottest path.
    let mut sub = [0u64; K];
    let mut borrow = 0u64;
    for j in 0..K {
        let (d1, b1) = t[j].overflowing_sub(n[j]);
        let (d2, b2) = d1.overflowing_sub(borrow);
        sub[j] = d2;
        borrow = (b1 as u64) | (b2 as u64);
    }
    let keep_sub = (((t_hi != 0) as u64) | (1 - borrow)).wrapping_neg();
    for j in 0..K {
        out[j] = (sub[j] & keep_sub) | (t[j] & !keep_sub);
    }
}

/// [`mont_mul_fixed`] for any limb count `k = n.len()`, on slices: `t` is
/// `k + 2` limbs of scratch, `out` the `k`-limb result (it must not alias the
/// inputs).
fn mont_mul_into(n: &[u64], n0inv: u64, a: &[u64], b: &[u64], t: &mut [u64], out: &mut [u64]) {
    let k = n.len();
    t.fill(0);
    for &bi in b.iter().take(k) {
        // Multiply-accumulate: t += a * bi
        let mut carry = 0u64;
        for j in 0..k {
            let sum = t[j] as u128 + (a[j] as u128) * (bi as u128) + carry as u128;
            t[j] = sum as u64;
            carry = (sum >> 64) as u64;
        }
        let sum = t[k] as u128 + carry as u128;
        t[k] = sum as u64;
        t[k + 1] = (sum >> 64) as u64;

        // Reduction: add m * n and divide by 2^64.
        let m = t[0].wrapping_mul(n0inv);
        let sum = t[0] as u128 + (m as u128) * (n[0] as u128);
        let mut carry = (sum >> 64) as u64;
        for j in 1..k {
            let sum = t[j] as u128 + (m as u128) * (n[j] as u128) + carry as u128;
            t[j - 1] = sum as u64;
            carry = (sum >> 64) as u64;
        }
        let sum = t[k] as u128 + carry as u128;
        t[k - 1] = sum as u64;
        let carry = (sum >> 64) as u64;
        t[k] = t[k + 1].wrapping_add(carry);
        t[k + 1] = 0;
    }
    // Final subtraction, branchless: the result is in [0, 2n), so
    // subtract n unconditionally and keep whichever value is correct
    // via a mask.  Control flow stays operand-independent — nothing
    // for the branch predictor to mispredict on fresh operands, and
    // no operand-dependent timing.
    let overflow = t[k] != 0;
    let mut borrow = 0u64;
    for j in 0..k {
        let (d1, b1) = t[j].overflowing_sub(n[j]);
        let (d2, b2) = d1.overflowing_sub(borrow);
        out[j] = d2;
        borrow = (b1 as u64) | (b2 as u64);
    }
    // Keep the subtracted value when t >= n: the accumulator overflowed
    // past k limbs, or the subtraction needed no borrow.
    let keep_sub = ((overflow as u64) | (1 - borrow)).wrapping_neg();
    for j in 0..k {
        out[j] = (out[j] & keep_sub) | (t[j] & !keep_sub);
    }
}

/// The Montgomery multiplier of one modulus over the limb container `Elem`
/// that everything above it — conversion, the window loop, a Miller–Rabin
/// round — is written against once and monomorphised for.
trait Kernel {
    /// `k` limbs, little endian.
    type Elem: Clone + PartialEq + AsRef<[u64]> + AsMut<[u64]>;

    /// `limbs` zero-extended to `k` limbs.
    fn load(&self, limbs: &[u64]) -> Self::Elem;

    /// `out = a * b * R^{-1} mod n`; one operand below `n`, the other below `R`.
    fn mul(&mut self, a: &Self::Elem, b: &Self::Elem, out: &mut Self::Elem);

    /// `v * R^{-1} mod n` — `v` out of Montgomery form — as an integer.
    fn to_uint(&mut self, v: &Self::Elem) -> BigUint {
        let mut out = self.load(&[]);
        self.mul(v, &self.load(&[1]), &mut out);
        BigUint::from_limbs(out.as_ref().to_vec())
    }

    /// `acc = acc^(2^times)`, through `tmp`.
    #[inline(always)]
    fn square(&mut self, acc: &mut Self::Elem, tmp: &mut Self::Elem, times: usize) {
        for _ in 0..times {
            self.mul(acc, acc, tmp);
            std::mem::swap(acc, tmp);
        }
    }
}

/// Stack arrays under [`mont_mul_fixed`].
struct Fixed<'a, const K: usize> {
    n: &'a [u64; K],
    n0inv: u64,
}

impl<const K: usize> Kernel for Fixed<'_, K> {
    type Elem = [u64; K];

    fn load(&self, limbs: &[u64]) -> [u64; K] {
        let mut elem = [0; K];
        elem[..limbs.len()].copy_from_slice(limbs);
        elem
    }

    #[inline(always)]
    fn mul(&mut self, a: &[u64; K], b: &[u64; K], out: &mut [u64; K]) {
        mont_mul_fixed(self.n, self.n0inv, a, b, out);
    }
}

/// Heap vectors under [`mont_mul_into`], for every other modulus size.
struct Heap<'a> {
    n: &'a [u64],
    n0inv: u64,
    /// The kernel's `k + 2` limbs of scratch.
    t: Vec<u64>,
}

impl<'a> Heap<'a> {
    fn new(n: &'a [u64], n0inv: u64) -> Self {
        let t = vec![0; n.len() + 2];
        Heap { n, n0inv, t }
    }
}

impl Kernel for Heap<'_> {
    type Elem = Vec<u64>;

    fn load(&self, limbs: &[u64]) -> Vec<u64> {
        let mut elem = limbs.to_vec();
        elem.resize(self.n.len(), 0);
        elem
    }

    fn mul(&mut self, a: &Vec<u64>, b: &Vec<u64>, out: &mut Vec<u64>) {
        mont_mul_into(self.n, self.n0inv, a, b, &mut self.t, out);
    }
}

/// Evaluates `$body` with `$m` bound to the kernel for `$ctx`'s limb count:
/// stack arrays at the RSA hot sizes (4-limb CRT halves and Miller–Rabin
/// candidates, 8-limb full width), heap vectors otherwise.  The body is
/// compiled once per kernel, so each hot size gets its own ladder with the
/// multiply inlined.
macro_rules! with_kernel {
    ($ctx:expr, $m:ident => $body:expr) => {{
        let (n, n0inv) = ($ctx.modulus.limbs.as_slice(), $ctx.n0inv);
        if let Ok(n) = n.try_into() {
            let $m = &mut Fixed::<4> { n, n0inv };
            $body
        } else if let Ok(n) = n.try_into() {
            let $m = &mut Fixed::<8> { n, n0inv };
            $body
        } else {
            let $m = &mut Heap::new(n, n0inv);
            $body
        }
    }};
}

impl MontgomeryCtx {
    /// Builds a context for an odd, non-zero modulus; returns `None`
    /// otherwise.
    pub fn new(modulus: &BigUint) -> Option<Self> {
        if modulus.is_zero() || modulus.is_even() || modulus.is_one() {
            return None;
        }
        let n = &modulus.limbs;
        let k = n.len();
        // Inverse of n[0] modulo 2^64 by Newton iteration, then negate.
        let mut inv = 1u64;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(n[0].wrapping_mul(inv)));
        }
        debug_assert_eq!(n[0].wrapping_mul(inv), 1);
        let n0inv = inv.wrapping_neg();
        // R^2 mod n, computed once with the slow division; R mod n is then
        // one multiplication (R^2 * 1 * R^{-1}), not a second division.
        let mut kernel = Heap::new(n, n0inv);
        let r2 = kernel.load(&BigUint::one().shl_bits(128 * k).rem(modulus).limbs);
        let mut one = kernel.load(&[]);
        kernel.mul(&kernel.load(&[1]), &r2, &mut one);
        let minus_one = kernel.load(&modulus.sub(&BigUint::from_limbs(one.clone())).limbs);
        Some(MontgomeryCtx {
            modulus: modulus.clone(),
            n0inv,
            r2,
            one,
            minus_one,
        })
    }

    /// The modulus this context reduces by.
    pub fn modulus(&self) -> &BigUint {
        &self.modulus
    }

    /// A value congruent to `v` modulo `n` and below `R` — not necessarily
    /// below `n` — without a division: Horner over `k`-limb chunks from the
    /// top, `acc = acc * R + chunk`.  `acc * R mod n` is one multiplication by
    /// `R^2`; it is below `n`, so the sum is below `n + R` and a carry out of
    /// it is cancelled by subtracting `n` once (masked, not branched on).
    fn reduce<M: Kernel>(&self, m: &mut M, v: &BigUint) -> M::Elem {
        let n = &self.modulus.limbs;
        let mut chunks = v.limbs.chunks(n.len()).rev();
        let mut acc = m.load(chunks.next().unwrap_or(&[]));
        let r2 = m.load(&self.r2);
        let mut sum = m.load(&[]);
        for chunk in chunks {
            m.mul(&acc, &r2, &mut sum);
            let mut carry = 0u64;
            for (s, &c) in sum.as_mut().iter_mut().zip(chunk) {
                let (s1, c1) = s.overflowing_add(c);
                let (s2, c2) = s1.overflowing_add(carry);
                *s = s2;
                carry = (c1 as u64) | (c2 as u64);
            }
            let mask = carry.wrapping_neg();
            let mut borrow = 0u64;
            for (s, &nj) in sum.as_mut().iter_mut().zip(n) {
                let (d1, b1) = s.overflowing_sub(nj & mask);
                let (d2, b2) = d1.overflowing_sub(borrow);
                *s = d2;
                borrow = (b1 as u64) | (b2 as u64);
            }
            std::mem::swap(&mut acc, &mut sum);
        }
        acc
    }

    /// The Montgomery form `v * R mod n` of any `v`.
    fn to_mont<M: Kernel>(&self, m: &mut M, v: &BigUint) -> M::Elem {
        let reduced = self.reduce(m, v);
        let mut out = m.load(&[]);
        m.mul(&reduced, &m.load(&self.r2), &mut out);
        out
    }

    /// Modular multiplication `a * b mod n`.
    pub(crate) fn mod_mul(&self, a: &BigUint, b: &BigUint) -> BigUint {
        with_kernel!(self, m => {
            let (a, b) = (self.to_mont(m, a), self.to_mont(m, b));
            let mut out = m.load(&[]);
            m.mul(&a, &b, &mut out);
            m.to_uint(&out)
        })
    }

    /// Window width for fixed-window exponentiation: wide enough that the
    /// 2^(w-1)-entry odd-power table amortises over the exponent, narrow
    /// enough that building it never costs more than it saves.
    fn window_width(bits: usize) -> usize {
        match bits {
            0..=24 => 1,
            25..=160 => 3,
            161..=672 => 4,
            _ => 5,
        }
    }

    /// Modular exponentiation `base^exponent mod n` by 2^w fixed-window
    /// evaluation over Montgomery residues.
    ///
    /// The exponent is consumed left to right in `w`-bit digits; a
    /// precomputed table of the odd powers `base^1, base^3, ...,
    /// base^(2^w - 1)` serves every non-zero digit (an even digit
    /// `odd << t` multiplies by the odd entry and defers `t` of its
    /// squarings), cutting the multiplication count of plain binary
    /// square-and-multiply from one per set bit to at most one per digit.
    /// A short exponent — the public 65537 of every `verify` — gets `w = 1`,
    /// which is the binary ladder on the same kernel.
    pub fn mod_pow(&self, base: &BigUint, exponent: &BigUint) -> BigUint {
        with_kernel!(self, m => {
            let base = self.to_mont(m, base);
            let acc = self.pow(m, &base, exponent);
            m.to_uint(&acc)
        })
    }

    /// The window loop of [`MontgomeryCtx::mod_pow`] over a Montgomery-form
    /// base, written once for every kernel.
    fn pow<M: Kernel>(&self, m: &mut M, base: &M::Elem, exponent: &BigUint) -> M::Elem {
        let bits = exponent.bit_len();
        if bits == 0 {
            return m.load(&self.one);
        }
        let w = Self::window_width(bits);
        // odd[i] = base^(2i+1); w <= 5, so at most 16 entries are filled.
        let mut odd: [M::Elem; 16] = std::array::from_fn(|_| base.clone());
        let mut tmp = base.clone();
        if w > 1 {
            m.mul(base, base, &mut tmp);
            for i in 1..1 << (w - 1) {
                let (prev, rest) = odd.split_at_mut(i);
                m.mul(&prev[i - 1], &tmp, &mut rest[0]);
            }
        }
        let digit = |d: usize| {
            (0..w)
                .rev()
                .fold(0usize, |v, j| (v << 1) | exponent.bit(d * w + j) as usize)
        };
        // The top digit holds the exponent's top bit, so it is never zero.
        let top = (bits - 1) / w;
        let first = digit(top);
        let tz = first.trailing_zeros() as usize;
        let mut acc = odd[first >> tz >> 1].clone();
        m.square(&mut acc, &mut tmp, tz);
        for d in (0..top).rev() {
            // A zero digit is `w` squarings and no multiply (`tz == w`).
            let digit = digit(d);
            let tz = (digit.trailing_zeros() as usize).min(w);
            m.square(&mut acc, &mut tmp, w - tz);
            if digit != 0 {
                m.mul(&acc, &odd[digit >> tz >> 1], &mut tmp);
                std::mem::swap(&mut acc, &mut tmp);
            }
            m.square(&mut acc, &mut tmp, tz);
        }
        acc
    }

    /// One Miller–Rabin round on the modulus `n`, where `n - 1 = d * 2^s`
    /// with `d` odd: `true` if `n` is a strong probable prime to base `a`
    /// (`a^d = 1`, or `a^(d * 2^r) = -1` for some `r < s`).  The squaring
    /// chain never leaves Montgomery form; it is compared against the
    /// Montgomery forms of `1` and `n - 1`.
    pub(crate) fn is_strong_probable_prime(&self, a: &BigUint, d: &BigUint, s: usize) -> bool {
        with_kernel!(self, m => {
            let a = self.to_mont(m, a);
            let mut x = self.pow(m, &a, d);
            let mut tmp = m.load(&[]);
            let minus_one = m.load(&self.minus_one);
            x == m.load(&self.one)
                || x == minus_one
                || (1..s).any(|_| {
                    m.square(&mut x, &mut tmp, 1);
                    x == minus_one
                })
        })
    }

    /// Modular exponentiation by plain left-to-right binary
    /// square-and-multiply, on heap vectors at every size.
    ///
    /// Kept public as the reference implementation: it shares neither the
    /// fixed-limb kernel, nor the window loop, nor the division-free
    /// conversion with [`MontgomeryCtx::mod_pow`] (the base is brought into
    /// Montgomery form by a shift and a long division), the equivalence
    /// proptests pit the two against each other, and the `crypto_says` bench
    /// reports both.
    pub fn mod_pow_binary(&self, base: &BigUint, exponent: &BigUint) -> BigUint {
        let n = &self.modulus.limbs;
        let mut m = Heap::new(n, self.n0inv);
        let base = m.load(&base.shl_bits(64 * n.len()).rem(&self.modulus).limbs);
        let mut acc = self.one.clone();
        let mut tmp = m.load(&[]);
        for i in (0..exponent.bit_len()).rev() {
            m.square(&mut acc, &mut tmp, 1);
            if exponent.bit(i) {
                m.mul(&acc, &base, &mut tmp);
                std::mem::swap(&mut acc, &mut tmp);
            }
        }
        m.to_uint(&acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn big(v: u128) -> BigUint {
        BigUint::from_bytes_be(&v.to_be_bytes())
    }

    /// Parses a hexadecimal string (no prefix).
    fn from_hex(s: &str) -> Option<BigUint> {
        let mut bytes = Vec::with_capacity(s.len() / 2 + 1);
        let s = s.trim();
        let padded;
        let s = if s.len() % 2 == 1 {
            padded = format!("0{s}");
            &padded
        } else {
            s
        };
        let chars: Vec<char> = s.chars().collect();
        for pair in chars.chunks(2) {
            let hi = pair[0].to_digit(16)?;
            let lo = pair[1].to_digit(16)?;
            bytes.push((hi * 16 + lo) as u8);
        }
        Some(BigUint::from_bytes_be(&bytes))
    }

    fn gcd(a: u64, b: u64) -> u64 {
        if b == 0 {
            a
        } else {
            gcd(b, a % b)
        }
    }

    #[test]
    fn zero_and_one_identities() {
        assert!(BigUint::zero().is_zero());
        assert!(BigUint::one().is_one());
        assert!(BigUint::zero().is_even());
        assert!(!BigUint::one().is_even());
        assert_eq!(BigUint::zero().bit_len(), 0);
        assert_eq!(BigUint::one().bit_len(), 1);
        assert_eq!(BigUint::from_u64(0), BigUint::zero());
    }

    #[test]
    fn byte_roundtrip() {
        let cases: Vec<Vec<u8>> = vec![
            vec![],
            vec![1],
            vec![0xff; 9],
            vec![0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc, 0xde, 0xf0, 0x11],
        ];
        for bytes in cases {
            let v = BigUint::from_bytes_be(&bytes);
            let back = v.to_bytes_be();
            // Round trip strips leading zeros; compare numerically instead.
            assert_eq!(BigUint::from_bytes_be(&back), v);
        }
        // Leading zeros are ignored on parse.
        assert_eq!(
            BigUint::from_bytes_be(&[0, 0, 1, 2]),
            BigUint::from_bytes_be(&[1, 2])
        );
    }

    #[test]
    fn padded_serialisation() {
        let v = BigUint::from_u64(0x0102);
        assert_eq!(v.to_bytes_be_padded(4), vec![0, 0, 1, 2]);
        assert_eq!(BigUint::zero().to_bytes_be_padded(3), vec![0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "field is")]
    fn padded_serialisation_panics_when_too_small() {
        big(u128::MAX).to_bytes_be_padded(8);
    }

    #[test]
    fn hex_roundtrip() {
        for s in [
            "0",
            "1",
            "ff",
            "deadbeef",
            "123456789abcdef0123456789abcdef",
        ] {
            let v = from_hex(s).unwrap();
            assert_eq!(v.to_hex(), s, "hex {s}");
        }
        assert_eq!(from_hex("00ff").unwrap(), BigUint::from_u64(255));
        assert!(from_hex("xyz").is_none());
    }

    #[test]
    fn add_sub_small() {
        let a = big(u64::MAX as u128);
        let b = big(1);
        let sum = a.add(&b);
        assert_eq!(sum, big(u64::MAX as u128 + 1));
        assert_eq!(sum.sub(&b), a);
        assert_eq!(a.checked_sub(&sum), None);
    }

    #[test]
    fn mul_carries_across_limbs() {
        let a = big(u64::MAX as u128);
        let b = big(u64::MAX as u128);
        assert_eq!(a.mul(&b), big((u64::MAX as u128) * (u64::MAX as u128)));
        assert_eq!(a.mul(&BigUint::zero()), BigUint::zero());
    }

    #[test]
    fn shifts() {
        let v = big(0b1011);
        assert_eq!(v.shl_bits(0), v);
        assert_eq!(v.shl_bits(1), big(0b10110));
        assert_eq!(v.shl_bits(64).shr_bits(64), v);
        assert_eq!(v.shl_bits(130).shr_bits(130), v);
        assert_eq!(v.shr_bits(4), BigUint::zero());
        assert_eq!(big(0b1100).shr_bits(2), big(0b11));
    }

    #[test]
    fn div_rem_small_and_multi_limb() {
        let a = big(1_000_000_007u128 * 97 + 13);
        let (q, r) = a.div_rem(&big(1_000_000_007));
        assert_eq!(q, big(97));
        assert_eq!(r, big(13));

        let big_a = from_hex("ffffffffffffffffffffffffffffffff").unwrap();
        let big_b = from_hex("fedcba9876543210").unwrap();
        let (q, r) = big_a.div_rem(&big_b);
        assert_eq!(q.mul(&big_b).add(&r), big_a);
        assert!(r < big_b);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        big(5).div_rem(&BigUint::zero());
    }

    #[test]
    fn mod_u64_matches_div_rem() {
        let a = from_hex("123456789abcdef0fedcba9876543210").unwrap();
        assert_eq!(a.mod_u64(97), a.div_rem(&big(97)).1.low_u64());
        assert_eq!(a.mod_u64(2), 0);
    }

    /// `base^exponent mod modulus` on the Montgomery kernel (odd moduli).
    fn mod_pow(base: &BigUint, exponent: &BigUint, modulus: &BigUint) -> BigUint {
        MontgomeryCtx::new(modulus).unwrap().mod_pow(base, exponent)
    }

    #[test]
    fn mod_pow_small_cases() {
        // 4^13 mod 497 = 445
        assert_eq!(mod_pow(&big(4), &big(13), &big(497)), big(445));
        // base^0 = 1
        assert_eq!(mod_pow(&big(12345), &BigUint::zero(), &big(1001)), big(1));
        // Fermat: 2^(p-1) mod p = 1 for prime p
        let p = big(1_000_000_007);
        assert_eq!(
            mod_pow(&big(2), &p.sub(&BigUint::one()), &p),
            BigUint::one()
        );
    }

    #[test]
    fn mod_inverse_small() {
        // 3 * 7 = 21 ≡ 1 mod 10
        assert_eq!(big(3).mod_inverse(&big(10)), Some(big(7)));
        // gcd(4, 10) = 2, no inverse
        assert_eq!(big(4).mod_inverse(&big(10)), None);
        // 65537 inverse mod a prime-ish value
        let m = big(1_000_000_007);
        let inv = big(65537).mod_inverse(&m).unwrap();
        assert_eq!(big(65537).mul(&inv).rem(&m), BigUint::one());
    }

    #[test]
    fn montgomery_matches_naive() {
        let modulus = from_hex("f123456789abcdef0123456789abcdefb").unwrap();
        let ctx = MontgomeryCtx::new(&modulus).unwrap();
        let a = from_hex("deadbeefcafebabe1234").unwrap();
        let b = from_hex("aabbccddeeff00112233445566").unwrap();
        assert_eq!(ctx.mod_mul(&a, &b), a.mul(&b).rem(&modulus));

        let e = big(4097);
        let naive = {
            let mut acc = BigUint::one();
            for _ in 0..4097u32 {
                acc = acc.mul(&a).rem(&modulus);
            }
            acc
        };
        assert_eq!(ctx.mod_pow(&a, &e), naive);
    }

    #[test]
    fn montgomery_rejects_even_modulus() {
        assert!(MontgomeryCtx::new(&big(100)).is_none());
        assert!(MontgomeryCtx::new(&BigUint::one()).is_none());
        assert!(MontgomeryCtx::new(&BigUint::zero()).is_none());
    }

    #[test]
    fn random_with_bits_has_exact_bit_length() {
        let mut rng = StdRng::seed_from_u64(42);
        for bits in [1usize, 7, 8, 63, 64, 65, 257] {
            let v = BigUint::random_with_bits(bits, &mut rng);
            assert_eq!(v.bit_len(), bits, "bits {bits}");
        }
    }

    #[test]
    fn random_below_respects_bound() {
        let mut rng = StdRng::seed_from_u64(7);
        let bound = from_hex("10000000000000001").unwrap();
        for _ in 0..50 {
            assert!(BigUint::random_below(&bound, &mut rng) < bound);
        }
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(big(5) < big(6));
        assert!(big(u128::MAX) > big(1));
        assert_eq!(big(42).cmp(&big(42)), Ordering::Equal);
    }

    /// A `k`-limb odd modulus from random limbs, in one of the shapes the
    /// kernels meet: any odd value with a non-zero top limb, the top two
    /// bits set as `gen_prime` makes them, or all ones.
    fn modulus_of(shape: usize, random: &[u64], k: usize) -> BigUint {
        let mut n = random[..k].to_vec();
        n[0] |= 1;
        match shape {
            0 => n[k - 1] |= 1,
            1 => n[k - 1] |= 3 << 62,
            _ => n.fill(u64::MAX),
        }
        BigUint::from_limbs(n)
    }

    /// A `k`-limb kernel operand: the edges 0, 1, `n - 1` and all-ones limbs
    /// (which only the unreduced operand may be), then `random` as it is.
    fn operand_of(edge: usize, random: &[u64], n: &BigUint) -> Vec<u64> {
        let k = n.limbs.len();
        let mut limbs = match edge {
            0 => Vec::new(),
            1 => vec![1],
            2 => n.sub(&BigUint::one()).limbs,
            3 => vec![u64::MAX; k],
            _ => random[..k].to_vec(),
        };
        limbs.resize(k, 0);
        limbs
    }

    /// The fixed kernel, the slice kernel and schoolbook arithmetic compute
    /// the same `a * b * R^{-1} mod n` (`a` below `R`, `b` below `n`).
    fn assert_kernels_agree<const K: usize>(n: &BigUint, a: &[u64], b: &[u64]) {
        let n0inv = MontgomeryCtx::new(n).unwrap().n0inv;
        let load = |limbs: &[u64]| <[u64; K]>::try_from(limbs).unwrap();
        let mut fixed = [0u64; K];
        mont_mul_fixed(&load(&n.limbs), n0inv, &load(a), &load(b), &mut fixed);
        let mut heap = vec![0u64; K];
        mont_mul_into(&n.limbs, n0inv, a, b, &mut vec![0; K + 2], &mut heap);
        let r_inv = BigUint::one().shl_bits(64 * K).mod_inverse(n).unwrap();
        let product = BigUint::from_limbs(a.to_vec()).mul(&BigUint::from_limbs(b.to_vec()));
        let mut schoolbook = product.mul(&r_inv).rem(n).limbs;
        schoolbook.resize(K, 0);
        assert_eq!(fixed.as_slice(), heap);
        assert_eq!(heap, schoolbook);
        // The operands are interchangeable, and a square is the multiply on
        // one operand twice — there is no separate squaring kernel.
        let mut swapped = [0u64; K];
        mont_mul_fixed(&load(&n.limbs), n0inv, &load(b), &load(a), &mut swapped);
        assert_eq!(swapped, fixed);
    }

    #[test]
    fn serialisation_and_word_remainder_at_limb_boundaries() {
        let v = from_hex("0102030405060708090a0b").unwrap();
        assert_eq!(v.to_bytes_be_padded(11), v.to_bytes_be());
        assert_eq!(v.to_bytes_be_padded(19)[..8], [0; 8]);
        assert_eq!(v.to_bytes_be_padded(19)[8..], v.to_bytes_be());
        let wide = from_hex("f123456789abcdef0123456789abcdefb00000000000000001").unwrap();
        for m in [1u64, 3, 281, u64::MAX, 16_294_579_238_595_022_365] {
            assert_eq!(wide.mod_u64(m), wide.div_rem_u64(m).1, "mod {m}");
        }
        assert_eq!(BigUint::zero().mod_u64(7), 0);
    }

    #[test]
    fn windowed_mod_pow_edge_exponents() {
        // A 512-bit odd modulus, the RSA shape the window is tuned for.
        let mut rng = StdRng::seed_from_u64(7);
        let modulus = {
            let m = BigUint::random_with_bits(512, &mut rng);
            if m.is_even() {
                m.add_u64(1)
            } else {
                m
            }
        };
        let ctx = MontgomeryCtx::new(&modulus).unwrap();
        let base = BigUint::random_with_bits(500, &mut rng);
        // Exponent edge shapes: empty, one, a power of two (single odd
        // digit, maximal deferred squarings), all-ones (every digit full),
        // and one spanning a digit boundary.
        let all_ones = BigUint::one().shl_bits(511).sub(&BigUint::one());
        for e in [
            BigUint::zero(),
            BigUint::one(),
            BigUint::one().shl_bits(257),
            all_ones,
            BigUint::from_u64(65537),
        ] {
            assert_eq!(ctx.mod_pow(&base, &e), ctx.mod_pow_binary(&base, &e));
        }
    }

    proptest! {
        #[test]
        fn prop_add_sub_roundtrip(a in any::<u128>(), b in any::<u128>()) {
            let x = big(a);
            let y = big(b);
            prop_assert_eq!(x.add(&y).sub(&y), x);
        }

        #[test]
        fn prop_add_commutative(a in any::<u128>(), b in any::<u128>()) {
            let x = big(a);
            let y = big(b);
            prop_assert_eq!(x.add(&y), y.add(&x));
        }

        #[test]
        fn prop_mul_matches_u128(a in any::<u64>(), b in any::<u64>()) {
            let x = BigUint::from_u64(a);
            let y = BigUint::from_u64(b);
            prop_assert_eq!(x.mul(&y), big(a as u128 * b as u128));
        }

        #[test]
        fn prop_div_rem_invariant(a in any::<u128>(), b in 1u128..) {
            let x = big(a);
            let y = big(b);
            let (q, r) = x.div_rem(&y);
            prop_assert!(r < y);
            prop_assert_eq!(q.mul(&y).add(&r), x);
        }

        #[test]
        fn prop_div_rem_invariant_wide(
            a in proptest::collection::vec(any::<u8>(), 0..96),
            b in proptest::collection::vec(any::<u8>(), 1..48),
        ) {
            // Exercises every Algorithm D shape: multi-limb divisors, long
            // quotients, normalisation shifts and the rare add-back step.
            let x = BigUint::from_bytes_be(&a);
            let y = BigUint::from_bytes_be(&b).add_u64(1);
            let (q, r) = x.div_rem(&y);
            prop_assert!(r < y);
            prop_assert_eq!(q.mul(&y).add(&r), x);
        }

        #[test]
        fn prop_bytes_roundtrip(bytes in proptest::collection::vec(any::<u8>(), 0..40)) {
            let v = BigUint::from_bytes_be(&bytes);
            prop_assert_eq!(BigUint::from_bytes_be(&v.to_bytes_be()), v);
        }

        #[test]
        fn prop_shift_roundtrip(a in any::<u128>(), s in 0usize..200) {
            let x = big(a);
            prop_assert_eq!(x.shl_bits(s).shr_bits(s), x);
        }

        #[test]
        fn prop_mod_pow_matches_u128(base in 0u64..10_000, exp in 0u64..64, m in (1u64..50_000).prop_map(|v| 2 * v + 1)) {
            let expected = {
                let mut acc: u128 = 1;
                for _ in 0..exp {
                    acc = acc * base as u128 % m as u128;
                }
                acc
            };
            let got = mod_pow(&BigUint::from_u64(base), &BigUint::from_u64(exp), &BigUint::from_u64(m));
            prop_assert_eq!(got, big(expected));
        }

        #[test]
        fn prop_montgomery_mul_matches_naive(a in any::<u128>(), b in any::<u128>(), m in (3u128..).prop_map(|v| v | 1)) {
            let modulus = big(m);
            if let Some(ctx) = MontgomeryCtx::new(&modulus) {
                let x = big(a);
                let y = big(b);
                prop_assert_eq!(ctx.mod_mul(&x, &y), x.mul(&y).rem(&modulus));
            }
        }

        #[test]
        fn prop_windowed_mod_pow_matches_binary(
            base in proptest::collection::vec(any::<u8>(), 1..40),
            // Exponents up to 720 bits exercise every window-width arm
            // (w = 1, 3, 4 and 5) against the binary reference.
            exp in proptest::collection::vec(any::<u8>(), 1..90),
            modulus in proptest::collection::vec(any::<u8>(), 1..40),
        ) {
            let m = BigUint::from_bytes_be(&modulus);
            let m = if m.is_even() { m.add_u64(1) } else { m };
            if let Some(ctx) = MontgomeryCtx::new(&m) {
                let b = BigUint::from_bytes_be(&base);
                let e = BigUint::from_bytes_be(&exp);
                prop_assert_eq!(ctx.mod_pow(&b, &e), ctx.mod_pow_binary(&b, &e));
            }
        }

        #[test]
        fn prop_kernels_match_schoolbook(
            shape in 0usize..3,
            // Half the cases take an edge operand, half a random one.
            a_edge in 0usize..8,
            b_edge in 0usize..8,
            n in proptest::collection::vec(any::<u64>(), 8..9),
            a in proptest::collection::vec(any::<u64>(), 8..9),
            b in proptest::collection::vec(any::<u64>(), 8..9),
        ) {
            for k in [4usize, 8] {
                let n = modulus_of(shape, &n, k);
                let a = operand_of(a_edge, &a, &n);
                // The second operand is taken below n.
                let mut b = BigUint::from_limbs(operand_of(b_edge, &b, &n)).rem(&n).limbs;
                b.resize(k, 0);
                if k == 4 {
                    assert_kernels_agree::<4>(&n, &a, &b);
                } else {
                    assert_kernels_agree::<8>(&n, &a, &b);
                }
            }
        }

        #[test]
        fn prop_ladder_matches_binary_at_the_rsa_limb_counts(
            shape in 0usize..3,
            n in proptest::collection::vec(any::<u64>(), 8..9),
            // Up to twice the modulus width, as `sign` feeds a CRT half.
            base in proptest::collection::vec(any::<u64>(), 0..17),
            exp in proptest::collection::vec(any::<u64>(), 8..9),
        ) {
            // 4 and 8 limbs run the fixed kernel, 5 the slice kernel; the
            // short exponents take `w = 1` through the same window loop.
            for k in [4usize, 5, 8] {
                let ctx = MontgomeryCtx::new(&modulus_of(shape, &n, k)).unwrap();
                let base = BigUint::from_limbs(base.clone());
                let full_width = BigUint::from_limbs(exp[..k].to_vec());
                for e in [big(3), big(17), big(65537), full_width] {
                    prop_assert_eq!(ctx.mod_pow(&base, &e), ctx.mod_pow_binary(&base, &e));
                }
            }
        }

        #[test]
        fn prop_mod_mul_reduces_operands_of_any_width(
            n in proptest::collection::vec(any::<u64>(), 1..10),
            a in proptest::collection::vec(any::<u64>(), 0..20),
            b in proptest::collection::vec(any::<u64>(), 0..20),
        ) {
            // Whole chunks, a short top chunk, fewer limbs than the modulus.
            let n = modulus_of(0, &n, n.len());
            if let Some(ctx) = MontgomeryCtx::new(&n) {
                let (a, b) = (BigUint::from_limbs(a), BigUint::from_limbs(b));
                prop_assert_eq!(ctx.mod_mul(&a, &b), a.mul(&b).rem(&n));
            }
        }

        #[test]
        fn prop_miller_rabin_round_matches_its_definition(
            n in proptest::collection::vec(any::<u64>(), 1..6),
            a in proptest::collection::vec(any::<u64>(), 1..6),
            small in any::<bool>(),
        ) {
            // Small moduli make both verdicts common; wide ones are almost
            // always composite witnesses, through either kernel.
            let n = if small {
                big((n[0] as u128 % 512) | 1).add_u64(2)
            } else {
                modulus_of(0, &n, n.len())
            };
            let ctx = MontgomeryCtx::new(&n).unwrap();
            let a = BigUint::from_limbs(a).rem(&n);
            let n_minus_one = n.sub(&BigUint::one());
            let s = (0..).find(|&i| n_minus_one.bit(i)).unwrap();
            let d = n_minus_one.shr_bits(s);
            let mut x = ctx.mod_pow_binary(&a, &d);
            let mut strong = x.is_one() || x == n_minus_one;
            for _ in 1..s {
                x = x.mul(&x).rem(&n);
                strong |= x == n_minus_one;
            }
            prop_assert_eq!(ctx.is_strong_probable_prime(&a, &d, s), strong);
        }

        #[test]
        fn prop_mod_inverse_is_inverse(a in 1u64.., m in 2u64..) {
            let x = BigUint::from_u64(a);
            let modulus = BigUint::from_u64(m);
            if let Some(inv) = x.mod_inverse(&modulus) {
                prop_assert_eq!(x.mul(&inv).rem(&modulus), BigUint::one());
                prop_assert!(inv < modulus);
            } else {
                prop_assert!(gcd(a, m) != 1 || m == 1);
            }
        }
    }
}
