//! HMAC-SHA-256 (RFC 2104 / FIPS 198-1).
//!
//! The paper (Section 2.2) notes that `says` may be realised with mechanisms
//! of different strength: "in a hostile world, says may require digital
//! signatures, while in a more benign world, says may simply append a
//! cleartext principal header".  HMAC occupies the middle of that spectrum in
//! this reproduction: it authenticates tuples between principals sharing a
//! pairwise secret at a fraction of the cost of RSA.

use crate::sha256::{sha256, Digest, Sha256, BLOCK_LEN, DIGEST_LEN};

/// Length in bytes of an HMAC-SHA-256 tag.
pub(crate) const TAG_LEN: usize = DIGEST_LEN;

/// An HMAC-SHA-256 key with its padded-key block absorptions precomputed.
///
/// The first compression of both the inner (`key ⊕ ipad`) and outer
/// (`key ⊕ opad`) hashes depends only on the key, so a key that MACs many
/// messages — a session channel authenticating every frame on a link —
/// pays those two compressions once at construction instead of on every
/// tag.
#[derive(Clone)]
pub(crate) struct HmacKey {
    inner: Sha256,
    outer: Sha256,
}

impl std::fmt::Debug for HmacKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("HmacKey(..)")
    }
}

impl HmacKey {
    /// Precomputes the padded-key state for `key` (hashed first when longer
    /// than one block, per RFC 2104).
    pub fn new(key: &[u8]) -> Self {
        let mut key_block = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            let hashed = sha256(key);
            key_block[..DIGEST_LEN].copy_from_slice(&hashed);
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let mut ipad = [0u8; BLOCK_LEN];
        let mut opad = [0u8; BLOCK_LEN];
        for i in 0..BLOCK_LEN {
            ipad[i] = key_block[i] ^ 0x36;
            opad[i] = key_block[i] ^ 0x5c;
        }
        let mut inner = Sha256::new();
        inner.update(&ipad);
        let mut outer = Sha256::new();
        outer.update(&opad);
        HmacKey { inner, outer }
    }

    /// Starts one MAC computation: a hasher with the inner padded key
    /// already absorbed — stream the message into it, then [`HmacKey::finish`].
    pub(crate) fn begin(&self) -> Sha256 {
        self.inner.clone()
    }

    /// Completes a MAC started with [`HmacKey::begin`].
    pub(crate) fn finish(&self, inner: Sha256) -> Digest {
        let inner_digest = inner.finalize();
        let mut outer = self.outer.clone();
        outer.update(&inner_digest);
        outer.finalize()
    }

    /// One-shot `HMAC-SHA256(key, message)` under this key.
    pub(crate) fn mac(&self, message: &[u8]) -> Digest {
        self.mac_parts(&[message])
    }

    /// `HMAC-SHA256(key, parts[0] ‖ parts[1] ‖ …)`, each part read in place.
    pub(crate) fn mac_parts<T: AsRef<[u8]>>(&self, parts: &[T]) -> Digest {
        let mut inner = self.begin();
        parts.iter().for_each(|part| inner.update(part.as_ref()));
        self.finish(inner)
    }
}

/// Computes `HMAC-SHA256(key, message)`.
pub(crate) fn hmac_sha256(key: &[u8], message: &[u8]) -> Digest {
    HmacKey::new(key).mac(message)
}

/// Constant-time comparison of two byte strings.
///
/// Verification of authentication tags must not leak, through timing, the
/// position of the first mismatching byte.
pub(crate) fn constant_time_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        diff |= x ^ y;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::to_hex;

    // RFC 4231 test vectors.
    #[test]
    fn rfc4231_case_1() {
        let key = [0x0bu8; 20];
        let data = b"Hi There";
        assert_eq!(
            to_hex(&hmac_sha256(&key, data)),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case_2() {
        let key = b"Jefe";
        let data = b"what do ya want for nothing?";
        assert_eq!(
            to_hex(&hmac_sha256(key, data)),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case_3() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        assert_eq!(
            to_hex(&hmac_sha256(&key, &data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case_6_long_key() {
        let key = [0xaau8; 131];
        let data = b"Test Using Larger Than Block-Size Key - Hash Key First";
        assert_eq!(
            to_hex(&hmac_sha256(&key, data)),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn verify_accepts_valid_and_rejects_forged() {
        let key = b"pairwise secret between a and b";
        let msg = b"reachable(a,c)";
        let tag = hmac_sha256(key, msg);
        let verify =
            |key: &[u8], msg: &[u8], tag: &[u8]| constant_time_eq(&HmacKey::new(key).mac(msg), tag);
        assert!(verify(key, msg, &tag));

        let mut forged = tag;
        forged[0] ^= 1;
        assert!(!verify(key, msg, &forged));
        assert!(!verify(b"wrong key", msg, &tag));
        assert!(!verify(key, b"reachable(a,d)", &tag));
    }

    #[test]
    fn constant_time_eq_handles_length_mismatch() {
        assert!(!constant_time_eq(b"abc", b"abcd"));
        assert!(constant_time_eq(b"", b""));
        assert!(constant_time_eq(b"same", b"same"));
    }
}
