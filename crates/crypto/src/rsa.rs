//! Textbook RSA signatures with deterministic PKCS#1 v1.5-style padding over
//! SHA-256 digests.
//!
//! The paper's prototype signs every exported tuple with an RSA signature
//! generated through OpenSSL (Section 6).  This module reproduces that cost
//! profile: signing is a full private-key exponentiation, verification is a
//! short public-key exponentiation with `e = 65537`, and the signature length
//! equals the modulus length, which is what the bandwidth accounting in
//! `pasn-net` charges per authenticated tuple.
//!
//! Both run on [`MontgomeryCtx`]'s one fixed-limb kernel and take from the
//! heap only the integers and byte strings they hand around (pinned by
//! `tests/alloc_budget.rs`): a signature is two 4-limb window ladders and a
//! Garner step of one modular multiply — no long division anywhere, the
//! 512-bit message is folded under each prime by Montgomery multiplies — and
//! a verification is 16 squarings and one multiply on the 8-limb kernel.
//! `crypto_says` reports them as `sign/crt` and `verify/e65537`.

use crate::bigint::{BigUint, MontgomeryCtx};
use crate::prime::gen_prime_pair;
use crate::sha256::{sha256, Digest};
use rand::RngCore;
use std::fmt;
use std::sync::Arc;

/// Minimum supported modulus size.  PKCS#1 v1.5 padding of a SHA-256 digest
/// requires at least 62 bytes of modulus.
pub const MIN_MODULUS_BITS: usize = 512;

/// Default modulus size used by the simulator (a compromise between realism
/// and the cost of signing every tuple in a 100-node in-process simulation;
/// the paper used 1024-bit keys, which remain available via
/// [`RsaKeyPair::generate`]).
pub(crate) const DEFAULT_MODULUS_BITS: usize = 512;

/// DER prefix of the SHA-256 `DigestInfo` structure used in EMSA-PKCS1-v1_5.
const SHA256_DIGEST_INFO_PREFIX: [u8; 19] = [
    0x30, 0x31, 0x30, 0x0d, 0x06, 0x09, 0x60, 0x86, 0x48, 0x01, 0x65, 0x03, 0x04, 0x02, 0x01, 0x05,
    0x00, 0x04, 0x20,
];

/// Errors produced by RSA operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RsaError {
    /// The requested modulus size is below `MIN_MODULUS_BITS`.
    ModulusTooSmall(usize),
    /// A signature failed structural validation (wrong length).
    MalformedSignature {
        /// Expected signature length in bytes (the modulus length).
        expected: usize,
        /// Actual length received.
        got: usize,
    },
}

impl fmt::Display for RsaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RsaError::ModulusTooSmall(bits) => write!(
                f,
                "modulus of {bits} bits is below the minimum of {MIN_MODULUS_BITS} bits"
            ),
            RsaError::MalformedSignature { expected, got } => {
                write!(f, "signature is {got} bytes, expected {expected}")
            }
        }
    }
}

impl std::error::Error for RsaError {}

/// An RSA public key (modulus and public exponent).  The verification
/// context is precomputed once, so checking a signature never rebuilds
/// Montgomery state — the directory hands out clones of one shared context.
#[derive(Clone)]
pub struct RsaPublicKey {
    n: BigUint,
    e: BigUint,
    modulus_bytes: usize,
    ctx: Arc<MontgomeryCtx>,
}

impl PartialEq for RsaPublicKey {
    fn eq(&self, other: &Self) -> bool {
        // The context is derived from `n`; the key material alone decides
        // equality.
        self.n == other.n && self.e == other.e
    }
}

impl Eq for RsaPublicKey {}

impl fmt::Debug for RsaPublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RsaPublicKey")
            .field("bits", &(self.modulus_bytes * 8))
            .finish()
    }
}

impl RsaPublicKey {
    /// The modulus.
    pub fn modulus(&self) -> &BigUint {
        &self.n
    }

    /// A stable fingerprint of the public key (SHA-256 of `n || e`), used as
    /// a compact principal identifier on the wire.
    pub fn fingerprint(&self) -> Digest {
        let mut data = self.n.to_bytes_be();
        data.extend_from_slice(&self.e.to_bytes_be());
        sha256(&data)
    }

    /// Verifies `signature` over `message` (the message is hashed with
    /// SHA-256 internally).
    pub fn verify(&self, message: &[u8], signature: &[u8]) -> bool {
        self.verify_digest(&sha256(message), signature)
    }

    /// Verifies `signature` over a message the caller hashed — streamed
    /// through [`crate::sha256::Sha256`] in parts, say.
    pub(crate) fn verify_digest(&self, digest: &Digest, signature: &[u8]) -> bool {
        if signature.len() != self.modulus_bytes {
            return false;
        }
        let sig_int = BigUint::from_bytes_be(signature);
        if sig_int >= self.n {
            return false;
        }
        let recovered = self.ctx.mod_pow(&sig_int, &self.e);
        let expected = emsa_pkcs1_v15_encode(digest, self.modulus_bytes);
        recovered.to_bytes_be_padded(self.modulus_bytes) == expected
    }
}

/// CRT private-key material: a Montgomery context per prime factor of the
/// modulus (`p > q`) plus the reduced exponents that let a signature be
/// computed as two half-width exponentiations instead of one full-width one.
struct CrtKey {
    /// `d mod (p - 1)`.
    d_p: BigUint,
    /// `d mod (q - 1)`.
    d_q: BigUint,
    /// `q^{-1} mod p` (the Garner recombination coefficient).
    q_inv: BigUint,
    p_ctx: MontgomeryCtx,
    q_ctx: MontgomeryCtx,
}

/// An RSA key pair.  The private exponentiation contexts — the full-width
/// one and one per CRT prime — are precomputed so signing does not
/// repeatedly rebuild Montgomery state.
pub struct RsaKeyPair {
    public: RsaPublicKey,
    d: BigUint,
    ctx: Arc<MontgomeryCtx>,
    crt: Arc<CrtKey>,
}

impl Clone for RsaKeyPair {
    fn clone(&self) -> Self {
        RsaKeyPair {
            public: self.public.clone(),
            d: self.d.clone(),
            ctx: Arc::clone(&self.ctx),
            crt: Arc::clone(&self.crt),
        }
    }
}

impl fmt::Debug for RsaKeyPair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RsaKeyPair")
            .field("bits", &(self.public.modulus_bytes * 8))
            .finish()
    }
}

impl RsaKeyPair {
    /// Generates a fresh key pair with a modulus of `modulus_bits` bits.
    pub fn generate<R: RngCore>(modulus_bits: usize, rng: &mut R) -> Result<Self, RsaError> {
        if modulus_bits < MIN_MODULUS_BITS {
            return Err(RsaError::ModulusTooSmall(modulus_bits));
        }
        let e = BigUint::from_u64(65537);
        loop {
            // The larger prime is `p`, so a residue modulo `q` is already
            // one modulo `p` when `sign` recombines the CRT halves.
            let (p, q) = gen_prime_pair(modulus_bits, rng);
            let (p, q) = if p > q { (p, q) } else { (q, p) };
            let n = p.mul(&q);
            if n.bit_len() != modulus_bits {
                continue;
            }
            let one = BigUint::one();
            let phi = p.sub(&one).mul(&q.sub(&one));
            let Some(d) = e.mod_inverse(&phi) else {
                // e shares a factor with phi; extremely unlikely, retry.
                continue;
            };
            let Some(q_inv) = q.mod_inverse(&p) else {
                // Distinct primes are always coprime; unreachable, but a
                // retry is strictly safer than a panic here.
                continue;
            };
            let modulus_bytes = modulus_bits.div_ceil(8);
            let ctx = Arc::new(MontgomeryCtx::new(&n).expect("RSA modulus is odd"));
            let crt = CrtKey {
                d_p: d.rem(&p.sub(&one)),
                d_q: d.rem(&q.sub(&one)),
                q_inv,
                p_ctx: MontgomeryCtx::new(&p).expect("RSA primes are odd"),
                q_ctx: MontgomeryCtx::new(&q).expect("RSA primes are odd"),
            };
            return Ok(RsaKeyPair {
                public: RsaPublicKey {
                    n,
                    e,
                    modulus_bytes,
                    ctx: Arc::clone(&ctx),
                },
                d,
                ctx,
                crt: Arc::new(crt),
            });
        }
    }

    /// The corresponding public key.
    pub fn public_key(&self) -> &RsaPublicKey {
        &self.public
    }

    /// Signs `message` (hashed with SHA-256 internally) and returns a
    /// signature as long as the modulus, in bytes.
    ///
    /// The private exponentiation runs over the CRT: two half-width
    /// exponentiations modulo `p` and `q`, recombined with Garner's formula
    /// — algebraically identical to the full-width `m^d mod n`, so the
    /// signature bytes match [`Self::sign_classic`] exactly, at roughly a
    /// quarter of the cost.  Debug builds re-derive the signature through
    /// the classic path as a fault check (a single arithmetic slip in a CRT
    /// half leaks the factorisation of `n` to anyone holding the bad
    /// signature).
    pub fn sign(&self, message: &[u8]) -> Vec<u8> {
        self.sign_digest(&sha256(message))
    }

    /// [`Self::sign`] over a message the caller hashed — streamed through
    /// [`crate::sha256::Sha256`] in parts, say.
    pub(crate) fn sign_digest(&self, digest: &Digest) -> Vec<u8> {
        let encoded = emsa_pkcs1_v15_encode(digest, self.public.modulus_bytes);
        let m = BigUint::from_bytes_be(&encoded);
        debug_assert!(m < self.public.n);
        let crt = &self.crt;
        let m_p = crt.p_ctx.mod_pow(&m, &crt.d_p);
        let m_q = crt.q_ctx.mod_pow(&m, &crt.d_q);
        // Garner: sig = m_q + q * (q_inv * (m_p - m_q) mod p).  m_q < q < p,
        // so m_p + p - m_q is positive, and `mod_mul` reduces it.
        let (p, q) = (crt.p_ctx.modulus(), crt.q_ctx.modulus());
        let h = crt.p_ctx.mod_mul(&crt.q_inv, &m_p.add(p).sub(&m_q));
        let sig = m_q.add(&h.mul(q));
        debug_assert_eq!(
            sig,
            self.ctx.mod_pow(&m, &self.d),
            "CRT signature diverged from the classic full-width path"
        );
        sig.to_bytes_be_padded(self.public.modulus_bytes)
    }

    /// Signs through the classic full-width private exponentiation
    /// (`m^d mod n`), bypassing the CRT.
    ///
    /// Byte-for-byte identical to [`Self::sign`]; kept public as the
    /// reference the CRT equivalence proptest and the `crypto_says` bench
    /// compare against.
    pub fn sign_classic(&self, message: &[u8]) -> Vec<u8> {
        let encoded = emsa_pkcs1_v15_encode(&sha256(message), self.public.modulus_bytes);
        let m = BigUint::from_bytes_be(&encoded);
        self.ctx
            .mod_pow(&m, &self.d)
            .to_bytes_be_padded(self.public.modulus_bytes)
    }

    /// Convenience: verifies with this key pair's public half.
    pub fn verify(&self, message: &[u8], signature: &[u8]) -> bool {
        self.public.verify(message, signature)
    }
}

/// EMSA-PKCS1-v1_5 encoding of a SHA-256 digest into `em_len` bytes:
/// `0x00 || 0x01 || 0xFF.. || 0x00 || DigestInfo || digest`.
fn emsa_pkcs1_v15_encode(digest: &Digest, em_len: usize) -> Vec<u8> {
    let t_len = SHA256_DIGEST_INFO_PREFIX.len() + digest.len();
    assert!(
        em_len >= t_len + 11,
        "modulus too small for PKCS#1 v1.5 encoding"
    );
    let mut em = Vec::with_capacity(em_len);
    em.push(0x00);
    em.push(0x01);
    em.resize(em_len - t_len - 1, 0xff);
    em.push(0x00);
    em.extend_from_slice(&SHA256_DIGEST_INFO_PREFIX);
    em.extend_from_slice(digest);
    debug_assert_eq!(em.len(), em_len);
    em
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn keypair() -> RsaKeyPair {
        let mut rng = StdRng::seed_from_u64(1234);
        RsaKeyPair::generate(512, &mut rng).unwrap()
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn sign_verify_roundtrip() {
        let kp = keypair();
        let msg = b"reachable(a,c) asserted by a";
        let sig = kp.sign(msg);
        assert_eq!(sig.len(), kp.public.modulus_bytes);
        assert!(kp.verify(msg, &sig));
    }

    #[test]
    fn verify_rejects_tampered_message_and_signature() {
        let kp = keypair();
        let msg = b"link(a,b)";
        let sig = kp.sign(msg);
        assert!(!kp.verify(b"link(a,c)", &sig));

        let mut bad_sig = sig.clone();
        bad_sig[10] ^= 0x40;
        assert!(!kp.verify(msg, &bad_sig));

        // Wrong length is rejected outright.
        assert!(!kp.verify(msg, &sig[1..]));
    }

    #[test]
    fn verify_rejects_signature_from_other_key() {
        let kp1 = keypair();
        let mut rng = StdRng::seed_from_u64(999);
        let kp2 = RsaKeyPair::generate(512, &mut rng).unwrap();
        let msg = b"bestPath(a,d,[a,b,d],2)";
        let sig = kp2.sign(msg);
        assert!(kp2.verify(msg, &sig));
        assert!(!kp1.verify(msg, &sig));
    }

    #[test]
    fn generation_rejects_small_modulus() {
        let mut rng = StdRng::seed_from_u64(5);
        assert_eq!(
            RsaKeyPair::generate(128, &mut rng).unwrap_err(),
            RsaError::ModulusTooSmall(128)
        );
    }

    #[test]
    fn signature_is_deterministic() {
        // PKCS#1 v1.5 signing is deterministic, which the provenance layer
        // relies on for idempotent re-signing of identical assertions.
        let kp = keypair();
        let msg = b"path(a,c,[a,b,c],7)";
        assert_eq!(kp.sign(msg), kp.sign(msg));
    }

    #[test]
    fn fingerprint_is_stable_and_distinct() {
        let kp1 = keypair();
        let mut rng = StdRng::seed_from_u64(31337);
        let kp2 = RsaKeyPair::generate(512, &mut rng).unwrap();
        assert_eq!(
            kp1.public_key().fingerprint(),
            kp1.public_key().fingerprint()
        );
        assert_ne!(
            kp1.public_key().fingerprint(),
            kp2.public_key().fingerprint()
        );
    }

    #[test]
    fn emsa_encoding_structure() {
        let em = emsa_pkcs1_v15_encode(&sha256(b"x"), 64);
        assert_eq!(em.len(), 64);
        assert_eq!(em[0], 0x00);
        assert_eq!(em[1], 0x01);
        assert_eq!(em[64 - 32 - 19 - 1], 0x00);
        assert!(em[2..64 - 32 - 19 - 1].iter().all(|&b| b == 0xff));
    }

    #[test]
    fn empty_message_signs() {
        let kp = keypair();
        let sig = kp.sign(b"");
        assert!(kp.verify(b"", &sig));
        assert!(!kp.verify(b" ", &sig));
    }

    #[test]
    fn public_key_equality_ignores_the_cached_context() {
        let kp = keypair();
        let a = kp.public_key().clone();
        let b = RsaPublicKey {
            n: a.n.clone(),
            e: a.e.clone(),
            modulus_bytes: a.modulus_bytes,
            ctx: Arc::new(MontgomeryCtx::new(&a.n).unwrap()),
        };
        assert_eq!(a, b);
        let other = {
            let mut rng = StdRng::seed_from_u64(999);
            RsaKeyPair::generate(512, &mut rng).unwrap()
        };
        assert_ne!(&a, other.public_key());
    }

    #[test]
    fn known_answer_signature_vector() {
        // Pinned wire bytes of the seed-1234 512-bit key signing a fixed
        // message.  Any change to key generation, EMSA encoding or the
        // private exponentiation — CRT or otherwise — that alters
        // signatures on the wire trips this before it can ship.
        let kp = keypair();
        let sig = kp.sign(b"reachable(a,c) asserted by a");
        assert_eq!(hex(&sig), KNOWN_ANSWER_SIG_HEX);
        assert_eq!(
            hex(&kp.sign_classic(b"reachable(a,c) asserted by a")),
            KNOWN_ANSWER_SIG_HEX
        );
    }

    const KNOWN_ANSWER_SIG_HEX: &str = "08e743aa0f10268eb3024152be4e1af5fab0e43b6e307ae639582f4290dde480edde75c5e132aa27967a489312478105d8059852481727307159bd90f180554c";

    proptest! {
        // Key generation dominates each case; a handful of cases over
        // several sizes and seeds is plenty for an algebraic identity.
        #![proptest_config(ProptestConfig::with_cases(5))]
        #[test]
        fn prop_crt_sign_matches_classic_byte_for_byte(
            bits_sel in 0usize..3,
            seed in 0u64..1_000,
            msg in proptest::collection::vec(any::<u8>(), 0..200),
        ) {
            let bits = [512usize, 576, 704][bits_sel];
            let mut rng = StdRng::seed_from_u64(seed);
            let kp = RsaKeyPair::generate(bits, &mut rng).unwrap();
            let sig = kp.sign(&msg);
            prop_assert_eq!(&sig, &kp.sign_classic(&msg));
            prop_assert!(kp.verify(&msg, &sig));
        }
    }
}
