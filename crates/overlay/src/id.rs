//! The consistent-hashing identifier space of the Chord overlay.
//!
//! Chord (Stoica et al., SIGCOMM 2001 — reference \[25\] of the paper) places
//! both nodes and keys on a ring of 2^m identifiers produced by a
//! cryptographic hash.  This module names them: SHA-256 (the digest of
//! `pasn-crypto`) truncated to the ring width.  Identifiers travel as `Int`
//! columns of base facts and the interval arithmetic of routing is written in
//! the rules (`pasn::programs::CHORD`), so all that is left here besides the
//! hash is the clockwise [`IdSpace::distance`] the ring builder sorts by.

use pasn_crypto::sha256::sha256;

/// A 2^m identifier ring.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct IdSpace {
    bits: u32,
}

impl IdSpace {
    /// Creates an identifier space of `bits` bits (`1..=62`: twice the ring
    /// size must fit the rules' `Int` arithmetic).
    ///
    /// # Panics
    ///
    /// Panics when `bits` is zero or larger than 62.
    pub fn new(bits: u32) -> Self {
        assert!(
            (1..=62).contains(&bits),
            "identifier space must use between 1 and 62 bits, got {bits}"
        );
        IdSpace { bits }
    }

    /// Number of identifier bits (the `m` of Chord).
    pub(crate) fn bits(&self) -> u32 {
        self.bits
    }

    /// Number of identifiers on the ring (the `M` column of a `node` fact).
    pub fn size(&self) -> u64 {
        1 << self.bits
    }

    /// Hashes arbitrary bytes onto the ring.
    pub(crate) fn hash_bytes(&self, data: &[u8]) -> u64 {
        let digest = sha256(data);
        let mut raw = [0u8; 8];
        raw.copy_from_slice(&digest[..8]);
        u64::from_be_bytes(raw) & (self.size() - 1)
    }

    /// The ring identifier of the node operated by principal `node`.
    pub(crate) fn node_id(&self, node: u32) -> u64 {
        self.hash_bytes(format!("node:{node}").as_bytes())
    }

    /// The ring identifier of an application key (a name stored in the DHT).
    pub fn key_id(&self, name: &str) -> u64 {
        self.hash_bytes(format!("key:{name}").as_bytes())
    }

    /// Clockwise distance from `a` to `b` on the ring.
    pub fn distance(&self, a: u64, b: u64) -> u64 {
        b.wrapping_sub(a) & (self.size() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn hash_is_deterministic_masked_and_namespaced() {
        let space = IdSpace::new(16);
        assert_eq!(space.hash_bytes(b"hello"), space.hash_bytes(b"hello"));
        assert!(space.hash_bytes(b"hello") < space.size());
        assert_ne!(space.hash_bytes(b"hello"), space.hash_bytes(b"world"));
        // The same label as a node and as a key hashes under different prefixes.
        assert_ne!(IdSpace::new(32).node_id(7), IdSpace::new(32).key_id("7"));
    }

    #[test]
    #[should_panic(expected = "between 1 and 62")]
    fn too_wide_a_space_is_rejected() {
        IdSpace::new(63);
    }

    #[test]
    fn distance_is_clockwise() {
        let space = IdSpace::new(8);
        assert_eq!(space.distance(10, 20), 10);
        assert_eq!(space.distance(20, 10), 246);
        assert_eq!(space.distance(42, 42), 0);
    }

    proptest! {
        #[test]
        fn prop_distance_round_trip(bits in 3u32..=62, a in any::<u64>(), b in any::<u64>()) {
            let space = IdSpace::new(bits);
            let (a, b) = (a % space.size(), b % space.size());
            let d = space.distance(a, b);
            prop_assert_eq!(a.wrapping_add(d) % space.size(), b);
            prop_assert_eq!((d + space.distance(b, a)) % space.size(), 0);
        }
    }
}
