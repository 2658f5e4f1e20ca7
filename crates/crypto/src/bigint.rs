//! Arbitrary-precision unsigned integer arithmetic.
//!
//! The paper's prototype relies on OpenSSL for RSA; this reproduction has no
//! such dependency, so the multi-precision arithmetic underlying RSA key
//! generation, signing and verification is implemented here from scratch.
//!
//! The representation is a little-endian vector of 64-bit limbs with no
//! trailing zero limbs (the canonical form of zero is the empty vector).
//! Hot-path modular exponentiation goes through [`MontgomeryCtx`], which
//! implements CIOS Montgomery multiplication; the schoolbook routines here are
//! used for key generation and one-off conversions.

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
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// The value one.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// Builds a value from a single 64-bit word.
    pub fn from_u64(v: u64) -> Self {
        if v == 0 {
            Self::zero()
        } else {
            BigUint { limbs: vec![v] }
        }
    }

    /// Builds a value from a 128-bit word.
    pub fn from_u128(v: u128) -> Self {
        let lo = v as u64;
        let hi = (v >> 64) as u64;
        if hi == 0 {
            Self::from_u64(lo)
        } else {
            BigUint {
                limbs: vec![lo, hi],
            }
        }
    }

    /// Builds a value from raw little-endian limbs, normalising trailing zeros.
    pub fn from_limbs(mut limbs: Vec<u64>) -> Self {
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        BigUint { limbs }
    }

    /// Returns the little-endian limbs.
    pub fn limbs(&self) -> &[u64] {
        &self.limbs
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
    pub fn to_bytes_be(&self) -> Vec<u8> {
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
    pub fn to_bytes_be_padded(&self, width: usize) -> Vec<u8> {
        let raw = self.to_bytes_be();
        assert!(
            raw.len() <= width,
            "value needs {} bytes but field is {} bytes",
            raw.len(),
            width
        );
        let mut out = vec![0u8; width - raw.len()];
        out.extend_from_slice(&raw);
        out
    }

    /// Parses a hexadecimal string (no prefix).
    pub fn from_hex(s: &str) -> Option<Self> {
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
        Some(Self::from_bytes_be(&bytes))
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
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// True if the value is one.
    pub fn is_one(&self) -> bool {
        self.limbs == [1]
    }

    /// True if the value is even (zero counts as even).
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// Number of significant bits (0 for zero).
    pub fn bit_len(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(top) => (self.limbs.len() - 1) * 64 + (64 - top.leading_zeros() as usize),
        }
    }

    /// Returns bit `i` (little-endian bit numbering).
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / 64;
        let off = i % 64;
        self.limbs.get(limb).is_some_and(|l| (l >> off) & 1 == 1)
    }

    /// Returns the low 64 bits of the value.
    pub fn low_u64(&self) -> u64 {
        self.limbs.first().copied().unwrap_or(0)
    }

    /// Addition.
    pub fn add(&self, other: &BigUint) -> BigUint {
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
    pub fn add_u64(&self, v: u64) -> BigUint {
        self.add(&BigUint::from_u64(v))
    }

    /// Subtraction; returns `None` on underflow.
    pub fn checked_sub(&self, other: &BigUint) -> Option<BigUint> {
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
    pub fn sub(&self, other: &BigUint) -> BigUint {
        self.checked_sub(other)
            .expect("BigUint subtraction underflow")
    }

    /// Schoolbook multiplication.
    pub fn mul(&self, other: &BigUint) -> BigUint {
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
    pub fn shr_bits(&self, bits: usize) -> BigUint {
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
    pub fn div_rem(&self, divisor: &BigUint) -> (BigUint, BigUint) {
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
    pub fn div_rem_u64(&self, divisor: u64) -> (BigUint, u64) {
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

    /// Remainder modulo a 64-bit word.
    pub fn mod_u64(&self, modulus: u64) -> u64 {
        self.div_rem_u64(modulus).1
    }

    /// `self mod modulus` via long division.
    pub fn rem(&self, modulus: &BigUint) -> BigUint {
        self.div_rem(modulus).1
    }

    /// Modular exponentiation.  Uses Montgomery multiplication when the
    /// modulus is odd (the RSA case) and falls back to multiply-and-reduce
    /// otherwise.
    pub fn mod_pow(&self, exponent: &BigUint, modulus: &BigUint) -> BigUint {
        assert!(
            !modulus.is_zero(),
            "modular exponentiation with zero modulus"
        );
        if modulus.is_one() {
            return BigUint::zero();
        }
        if let Some(ctx) = MontgomeryCtx::new(modulus) {
            return ctx.mod_pow(self, exponent);
        }
        // Generic square-and-multiply with explicit reduction.
        let mut base = self.rem(modulus);
        let mut result = BigUint::one();
        let bits = exponent.bit_len();
        for i in 0..bits {
            if exponent.bit(i) {
                result = result.mul(&base).rem(modulus);
            }
            if i + 1 < bits {
                base = base.mul(&base).rem(modulus);
            }
        }
        result
    }

    /// Greatest common divisor (binary GCD).
    pub fn gcd(&self, other: &BigUint) -> BigUint {
        let mut a = self.clone();
        let mut b = other.clone();
        if a.is_zero() {
            return b;
        }
        if b.is_zero() {
            return a;
        }
        let mut shift = 0usize;
        while a.is_even() && b.is_even() {
            a = a.shr_bits(1);
            b = b.shr_bits(1);
            shift += 1;
        }
        while a.is_even() {
            a = a.shr_bits(1);
        }
        loop {
            while b.is_even() {
                b = b.shr_bits(1);
            }
            if a > b {
                std::mem::swap(&mut a, &mut b);
            }
            b = b.sub(&a);
            if b.is_zero() {
                break;
            }
        }
        a.shl_bits(shift)
    }

    /// Modular multiplicative inverse: returns `x` with `self * x ≡ 1 (mod
    /// modulus)`, or `None` when `gcd(self, modulus) != 1`.
    pub fn mod_inverse(&self, modulus: &BigUint) -> Option<BigUint> {
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
    pub fn random_below<R: rand::RngCore>(bound: &BigUint, rng: &mut R) -> BigUint {
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
/// modulus (the RSA hot path).
#[derive(Clone)]
pub struct MontgomeryCtx {
    /// Modulus limbs, little endian, length `k`.
    n: Vec<u64>,
    /// `-n^{-1} mod 2^64`.
    n0inv: u64,
    /// `R^2 mod n` where `R = 2^(64k)`, used to convert into Montgomery form.
    r2: Vec<u64>,
    /// `R mod n` — the Montgomery residue of 1, the neutral accumulator of
    /// every exponentiation.
    one_mont: Vec<u64>,
    k: usize,
    modulus: BigUint,
}

impl fmt::Debug for MontgomeryCtx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MontgomeryCtx")
            .field("modulus_bits", &self.modulus.bit_len())
            .finish()
    }
}

impl MontgomeryCtx {
    /// Builds a context for an odd, non-zero modulus; returns `None`
    /// otherwise.
    pub fn new(modulus: &BigUint) -> Option<Self> {
        if modulus.is_zero() || modulus.is_even() || modulus.is_one() {
            return None;
        }
        let n = modulus.limbs.clone();
        let k = n.len();
        // Inverse of n[0] modulo 2^64 by Newton iteration, then negate.
        let mut inv = 1u64;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(n[0].wrapping_mul(inv)));
        }
        debug_assert_eq!(n[0].wrapping_mul(inv), 1);
        let n0inv = inv.wrapping_neg();
        // R^2 mod n, computed once with the slow division.
        let r2_big = BigUint::one().shl_bits(128 * k).rem(modulus);
        let mut r2 = r2_big.limbs.clone();
        r2.resize(k, 0);
        let one_mont_big = BigUint::one().shl_bits(64 * k).rem(modulus);
        let mut one_mont = one_mont_big.limbs.clone();
        one_mont.resize(k, 0);
        Some(MontgomeryCtx {
            n,
            n0inv,
            r2,
            one_mont,
            k,
            modulus: modulus.clone(),
        })
    }

    /// The modulus this context reduces by.
    pub fn modulus(&self) -> &BigUint {
        &self.modulus
    }

    /// CIOS Montgomery multiplication: returns `a * b * R^{-1} mod n` where
    /// inputs and output are length-`k` limb vectors (values < n).
    fn mont_mul(&self, a: &[u64], b: &[u64]) -> Vec<u64> {
        let mut t = vec![0u64; self.k + 2];
        let mut out = vec![0u64; self.k];
        self.mont_mul_into(a, b, &mut t, &mut out);
        out
    }

    /// [`MontgomeryCtx::mont_mul`] into caller-owned buffers — the
    /// allocation-free core the exponentiation loops run on (`t` is `k + 2`
    /// limbs of scratch, `out` is the `k`-limb result and must not alias
    /// the inputs).  The RSA hot sizes (4-limb CRT halves, 8-limb full
    /// width) dispatch to a fully unrolled stack-array kernel.
    fn mont_mul_into(&self, a: &[u64], b: &[u64], t: &mut [u64], out: &mut [u64]) {
        match self.k {
            4 => return self.mont_mul_fixed::<4>(a, b, out),
            8 => return self.mont_mul_fixed::<8>(a, b, out),
            _ => {}
        }
        let k = self.k;
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
            let m = t[0].wrapping_mul(self.n0inv);
            let sum = t[0] as u128 + (m as u128) * (self.n[0] as u128);
            let mut carry = (sum >> 64) as u64;
            for j in 1..k {
                let sum = t[j] as u128 + (m as u128) * (self.n[j] as u128) + carry as u128;
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
            let (d1, b1) = t[j].overflowing_sub(self.n[j]);
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

    /// CIOS with the limb count fixed at compile time: the accumulator
    /// lives in a stack array (the two overflow limbs in scalars), every
    /// inner loop fully unrolls, and all bounds checks vanish — worth ~2×
    /// on the 4- and 8-limb operands RSA signing actually uses.
    fn mont_mul_fixed<const K: usize>(&self, a: &[u64], b: &[u64], out: &mut [u64]) {
        let n: &[u64; K] = self.n[..K].try_into().expect("modulus limb count");
        let a: &[u64; K] = a[..K].try_into().expect("operand limb count");
        let mut t = [0u64; K];
        let mut t_hi = 0u64; // t[K]
        for &bi in &b[..K] {
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
            let m = t[0].wrapping_mul(self.n0inv);
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

    /// Montgomery squaring `a * a * R^{-1} mod n`.  Squaring needs only
    /// half the off-diagonal partial products of a general multiply, so the
    /// fixed RSA limb counts get a dedicated product-scanning kernel; other
    /// sizes fall back to [`MontgomeryCtx::mont_mul_into`].  Squares are
    /// the bulk of an exponentiation (one per exponent bit, versus one
    /// multiply per window digit), so this is where the savings compound.
    fn mont_sqr_into(&self, a: &[u64], t: &mut [u64], out: &mut [u64]) {
        match self.k {
            4 => self.mont_sqr_fixed::<4>(a, out),
            8 => self.mont_sqr_fixed::<8>(a, out),
            _ => self.mont_mul_into(a, a, t, out),
        }
    }

    /// Separated-operand-scanning square + Montgomery reduction with the
    /// limb count fixed at compile time (`K <= 8`): the full `2K`-limb
    /// square is built from the strict upper triangle (doubled, diagonal
    /// added), then reduced one limb at a time.  (K² - K) / 2 fewer word
    /// multiplies than the CIOS multiply kernel.
    fn mont_sqr_fixed<const K: usize>(&self, a: &[u64], out: &mut [u64]) {
        debug_assert!(K <= 8, "square buffer holds 2K + 1 <= 17 limbs");
        let n: &[u64; K] = self.n[..K].try_into().expect("modulus limb count");
        let a: &[u64; K] = a[..K].try_into().expect("operand limb count");
        // p holds the 2K-limb square; limb 2K is the reduction's carry slot.
        let mut p = [0u64; 17];
        // Strict upper triangle: each a[i]·a[j] (j > i) is needed twice.
        for i in 0..K {
            let mut carry = 0u64;
            for j in (i + 1)..K {
                let sum = p[i + j] as u128 + (a[i] as u128) * (a[j] as u128) + carry as u128;
                p[i + j] = sum as u64;
                carry = (sum >> 64) as u64;
            }
            p[i + K] = carry;
        }
        // Double it (2·Σ_{i<j} fits 2K limbs because it is at most a²) ...
        let mut top = 0u64;
        for limb in p.iter_mut().take(2 * K) {
            let hi = *limb >> 63;
            *limb = (*limb << 1) | top;
            top = hi;
        }
        debug_assert_eq!(top, 0);
        // ... and add the diagonal squares a[i]².
        let mut carry = 0u64;
        for i in 0..K {
            let sq = (a[i] as u128) * (a[i] as u128);
            let s0 = p[2 * i] as u128 + (sq as u64 as u128) + carry as u128;
            p[2 * i] = s0 as u64;
            let s1 = p[2 * i + 1] as u128 + (sq >> 64) + (s0 >> 64);
            p[2 * i + 1] = s1 as u64;
            carry = (s1 >> 64) as u64;
        }
        debug_assert_eq!(carry, 0);
        // Montgomery-reduce the 2K-limb product one limb at a time; the
        // ripple past position i + K is rare and mathematically confined to
        // the carry slot.
        for i in 0..K {
            let m = p[i].wrapping_mul(self.n0inv);
            let mut carry = 0u64;
            for j in 0..K {
                let sum = p[i + j] as u128 + (m as u128) * (n[j] as u128) + carry as u128;
                p[i + j] = sum as u64;
                carry = (sum >> 64) as u64;
            }
            // Fixed-trip carry propagation into the high limbs: the trip
            // count depends only on i, never on the data, so the loop
            // neither mispredicts nor leaks.
            for limb in p[i + K..=2 * K].iter_mut() {
                let (v, o) = limb.overflowing_add(carry);
                *limb = v;
                carry = o as u64;
            }
            debug_assert_eq!(carry, 0);
        }
        // Final subtraction, branchless (see `mont_mul_into`).
        let mut sub = [0u64; K];
        let mut borrow = 0u64;
        for j in 0..K {
            let (d1, b1) = p[K + j].overflowing_sub(n[j]);
            let (d2, b2) = d1.overflowing_sub(borrow);
            sub[j] = d2;
            borrow = (b1 as u64) | (b2 as u64);
        }
        let keep_sub = (((p[2 * K] != 0) as u64) | (1 - borrow)).wrapping_neg();
        for j in 0..K {
            out[j] = (sub[j] & keep_sub) | (p[K + j] & !keep_sub);
        }
    }

    fn to_mont(&self, v: &BigUint) -> Vec<u64> {
        let reduced = v.rem(&self.modulus);
        let mut limbs = reduced.limbs.clone();
        limbs.resize(self.k, 0);
        self.mont_mul(&limbs, &self.r2)
    }

    fn mont_to_uint(&self, v: &[u64]) -> BigUint {
        let mut one = vec![0u64; self.k];
        one[0] = 1;
        BigUint::from_limbs(self.mont_mul(v, &one))
    }

    /// Modular multiplication `a * b mod n`.
    pub fn mod_mul(&self, a: &BigUint, b: &BigUint) -> BigUint {
        let am = self.to_mont(a);
        let bm = self.to_mont(b);
        self.mont_to_uint(&self.mont_mul(&am, &bm))
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
    pub fn mod_pow(&self, base: &BigUint, exponent: &BigUint) -> BigUint {
        if exponent.is_zero() {
            return BigUint::one().rem(&self.modulus);
        }
        let bits = exponent.bit_len();
        let w = Self::window_width(bits);
        if w == 1 {
            return self.mod_pow_binary(base, exponent);
        }
        let base_m = self.to_mont(base);
        let acc = match self.k {
            // The RSA hot sizes run the whole window evaluation
            // monomorphized: operands live in stack arrays and every
            // kernel call is statically dispatched, so nothing is
            // re-checked or re-branched per Montgomery operation.
            4 => self.mod_pow_windowed_fixed::<4>(&base_m, exponent, w),
            8 => self.mod_pow_windowed_fixed::<8>(&base_m, exponent, w),
            _ => self.mod_pow_windowed_generic(&base_m, exponent, w),
        };
        self.mont_to_uint(&acc)
    }

    /// The fixed-window evaluation loop over a Montgomery-form base, for
    /// the compile-time limb counts RSA actually uses.  `w >= 2` (the
    /// caller routes `w == 1` to the binary ladder) and `w <= 5`, so the
    /// odd-power table never exceeds 16 entries.
    fn mod_pow_windowed_fixed<const K: usize>(
        &self,
        base_m: &[u64],
        exponent: &BigUint,
        w: usize,
    ) -> Vec<u64> {
        debug_assert!((2..=5).contains(&w));
        let bits = exponent.bit_len();
        let base: [u64; K] = base_m[..K].try_into().expect("operand limb count");
        let mut base_sq = [0u64; K];
        self.mont_sqr_fixed::<K>(&base, &mut base_sq);
        // odd[i] = base^(2i+1) in Montgomery form.
        let mut odd = [[0u64; K]; 16];
        odd[0] = base;
        for i in 1..(1usize << (w - 1)) {
            let (prev, rest) = odd.split_at_mut(i);
            self.mont_mul_fixed::<K>(&prev[i - 1], &base_sq, &mut rest[0]);
        }
        let mut acc = [0u64; K];
        let mut tmp = [0u64; K];
        let mut started = false;
        for d in (0..bits.div_ceil(w)).rev() {
            let mut digit = 0usize;
            for j in (0..w).rev() {
                let bit_idx = d * w + j;
                digit <<= 1;
                if bit_idx < bits && exponent.bit(bit_idx) {
                    digit |= 1;
                }
            }
            if digit == 0 {
                if started {
                    for _ in 0..w {
                        self.mont_sqr_fixed::<K>(&acc, &mut tmp);
                        acc = tmp;
                    }
                }
                continue;
            }
            let tz = digit.trailing_zeros() as usize;
            let odd_idx = (digit >> tz) >> 1;
            if started {
                for _ in 0..(w - tz) {
                    self.mont_sqr_fixed::<K>(&acc, &mut tmp);
                    acc = tmp;
                }
                self.mont_mul_fixed::<K>(&acc, &odd[odd_idx], &mut tmp);
                acc = tmp;
            } else {
                acc = odd[odd_idx];
                started = true;
            }
            for _ in 0..tz {
                self.mont_sqr_fixed::<K>(&acc, &mut tmp);
                acc = tmp;
            }
        }
        acc.to_vec()
    }

    /// The fixed-window evaluation loop for arbitrary limb counts —
    /// identical schedule to the monomorphized path, on heap buffers.
    fn mod_pow_windowed_generic(&self, base_m: &[u64], exponent: &BigUint, w: usize) -> Vec<u64> {
        let bits = exponent.bit_len();
        // odd[i] = base^(2i+1) in Montgomery form.
        let base_sq = {
            let mut t = vec![0u64; self.k + 2];
            let mut out = vec![0u64; self.k];
            self.mont_sqr_into(base_m, &mut t, &mut out);
            out
        };
        let mut odd = Vec::with_capacity(1 << (w - 1));
        odd.push(base_m.to_vec());
        for i in 1..(1usize << (w - 1)) {
            odd.push(self.mont_mul(&odd[i - 1], &base_sq));
        }
        let mut acc = self.one_mont.clone();
        let mut tmp = vec![0u64; self.k];
        let mut scratch = vec![0u64; self.k + 2];
        let mut started = false;
        for d in (0..bits.div_ceil(w)).rev() {
            let mut digit = 0usize;
            for j in (0..w).rev() {
                let bit_idx = d * w + j;
                digit <<= 1;
                if bit_idx < bits && exponent.bit(bit_idx) {
                    digit |= 1;
                }
            }
            if digit == 0 {
                if started {
                    for _ in 0..w {
                        self.mont_sqr_into(&acc, &mut scratch, &mut tmp);
                        std::mem::swap(&mut acc, &mut tmp);
                    }
                }
                continue;
            }
            let tz = digit.trailing_zeros() as usize;
            let odd_idx = (digit >> tz) >> 1;
            if started {
                for _ in 0..(w - tz) {
                    self.mont_sqr_into(&acc, &mut scratch, &mut tmp);
                    std::mem::swap(&mut acc, &mut tmp);
                }
                self.mont_mul_into(&acc, &odd[odd_idx], &mut scratch, &mut tmp);
                std::mem::swap(&mut acc, &mut tmp);
            } else {
                acc.clone_from(&odd[odd_idx]);
                started = true;
            }
            for _ in 0..tz {
                self.mont_sqr_into(&acc, &mut scratch, &mut tmp);
                std::mem::swap(&mut acc, &mut tmp);
            }
        }
        acc
    }

    /// Modular exponentiation by plain left-to-right binary
    /// square-and-multiply over Montgomery residues.
    ///
    /// Kept public as the reference implementation: the equivalence
    /// proptests pit [`MontgomeryCtx::mod_pow`]'s windowed evaluation
    /// against this path, and the `crypto_says` bench reports both so
    /// the window's speedup stays visible.
    pub fn mod_pow_binary(&self, base: &BigUint, exponent: &BigUint) -> BigUint {
        if exponent.is_zero() {
            return BigUint::one().rem(&self.modulus);
        }
        let base_m = self.to_mont(base);
        let mut acc = self.one_mont.clone();
        let mut tmp = vec![0u64; self.k];
        let mut scratch = vec![0u64; self.k + 2];
        let bits = exponent.bit_len();
        for i in (0..bits).rev() {
            self.mont_sqr_into(&acc, &mut scratch, &mut tmp);
            std::mem::swap(&mut acc, &mut tmp);
            if exponent.bit(i) {
                self.mont_mul_into(&acc, &base_m, &mut scratch, &mut tmp);
                std::mem::swap(&mut acc, &mut tmp);
            }
        }
        self.mont_to_uint(&acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn big(v: u128) -> BigUint {
        BigUint::from_u128(v)
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
        BigUint::from_u128(u128::MAX).to_bytes_be_padded(8);
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
            let v = BigUint::from_hex(s).unwrap();
            assert_eq!(v.to_hex(), s, "hex {s}");
        }
        assert_eq!(BigUint::from_hex("00ff").unwrap(), BigUint::from_u64(255));
        assert!(BigUint::from_hex("xyz").is_none());
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
        assert_eq!(
            a.mul(&b),
            BigUint::from_u128((u64::MAX as u128) * (u64::MAX as u128))
        );
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

        let big_a = BigUint::from_hex("ffffffffffffffffffffffffffffffff").unwrap();
        let big_b = BigUint::from_hex("fedcba9876543210").unwrap();
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
        let a = BigUint::from_hex("123456789abcdef0fedcba9876543210").unwrap();
        assert_eq!(a.mod_u64(97), a.div_rem(&big(97)).1.low_u64());
        assert_eq!(a.mod_u64(2), 0);
    }

    #[test]
    fn mod_pow_small_cases() {
        // 4^13 mod 497 = 445
        assert_eq!(big(4).mod_pow(&big(13), &big(497)), big(445));
        // base^0 = 1
        assert_eq!(big(12345).mod_pow(&BigUint::zero(), &big(1000)), big(1));
        // mod 1 = 0
        assert_eq!(big(7).mod_pow(&big(3), &BigUint::one()), BigUint::zero());
        // Fermat: 2^(p-1) mod p = 1 for prime p
        let p = big(1_000_000_007);
        assert_eq!(big(2).mod_pow(&p.sub(&BigUint::one()), &p), BigUint::one());
    }

    #[test]
    fn mod_pow_even_modulus_falls_back() {
        // 3^5 mod 16 = 243 mod 16 = 3
        assert_eq!(big(3).mod_pow(&big(5), &big(16)), big(3));
    }

    #[test]
    fn gcd_cases() {
        assert_eq!(big(12).gcd(&big(18)), big(6));
        assert_eq!(big(17).gcd(&big(31)), big(1));
        assert_eq!(BigUint::zero().gcd(&big(5)), big(5));
        assert_eq!(big(5).gcd(&BigUint::zero()), big(5));
        assert_eq!(big(48).gcd(&big(36)), big(12));
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
        let modulus = BigUint::from_hex("f123456789abcdef0123456789abcdefb").unwrap();
        let ctx = MontgomeryCtx::new(&modulus).unwrap();
        let a = BigUint::from_hex("deadbeefcafebabe1234").unwrap();
        let b = BigUint::from_hex("aabbccddeeff00112233445566").unwrap();
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
        let bound = BigUint::from_hex("10000000000000001").unwrap();
        for _ in 0..50 {
            assert!(BigUint::random_below(&bound, &mut rng) < bound);
        }
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(big(5) < big(6));
        assert!(BigUint::from_u128(u128::MAX) > big(1));
        assert_eq!(big(42).cmp(&big(42)), Ordering::Equal);
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
            let x = BigUint::from_u128(a);
            let y = BigUint::from_u128(b);
            prop_assert_eq!(x.add(&y).sub(&y), x);
        }

        #[test]
        fn prop_add_commutative(a in any::<u128>(), b in any::<u128>()) {
            let x = BigUint::from_u128(a);
            let y = BigUint::from_u128(b);
            prop_assert_eq!(x.add(&y), y.add(&x));
        }

        #[test]
        fn prop_mul_matches_u128(a in any::<u64>(), b in any::<u64>()) {
            let x = BigUint::from_u64(a);
            let y = BigUint::from_u64(b);
            prop_assert_eq!(x.mul(&y), BigUint::from_u128(a as u128 * b as u128));
        }

        #[test]
        fn prop_div_rem_invariant(a in any::<u128>(), b in 1u128..) {
            let x = BigUint::from_u128(a);
            let y = BigUint::from_u128(b);
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
            let x = BigUint::from_u128(a);
            prop_assert_eq!(x.shl_bits(s).shr_bits(s), x);
        }

        #[test]
        fn prop_mod_pow_matches_u128(base in 0u64..10_000, exp in 0u64..64, m in 3u64..100_000) {
            // Only odd moduli exercise the Montgomery path; both are covered here.
            let expected = {
                let mut acc: u128 = 1;
                for _ in 0..exp {
                    acc = acc * base as u128 % m as u128;
                }
                acc
            };
            let got = BigUint::from_u64(base).mod_pow(&BigUint::from_u64(exp), &BigUint::from_u64(m));
            prop_assert_eq!(got, BigUint::from_u128(expected));
        }

        #[test]
        fn prop_montgomery_mul_matches_naive(a in any::<u128>(), b in any::<u128>(), m in (3u128..).prop_map(|v| v | 1)) {
            let modulus = BigUint::from_u128(m);
            if let Some(ctx) = MontgomeryCtx::new(&modulus) {
                let x = BigUint::from_u128(a);
                let y = BigUint::from_u128(b);
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
        fn prop_mod_inverse_is_inverse(a in 1u64.., m in 2u64..) {
            let x = BigUint::from_u64(a);
            let modulus = BigUint::from_u64(m);
            if let Some(inv) = x.mod_inverse(&modulus) {
                prop_assert_eq!(x.mul(&inv).rem(&modulus), BigUint::one());
                prop_assert!(inv < modulus);
            } else {
                prop_assert!(x.gcd(&modulus) != BigUint::one() || modulus.is_one());
            }
        }
    }
}
