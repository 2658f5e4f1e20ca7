//! Compact provenance-store keys derived from tuple identities.
//!
//! The provenance stores used to key their hash maps by the *rendered* tuple
//! string (`reachable(@a,c)`), cloning it
//! into every map.  A [`ProvKey`] is a stable 64-bit digest of that
//! identity — the engine derives the rendered form from its interned
//! `(PredId, Arc<[Value]>)` rows (lazily, only when provenance is actually
//! recorded) and the stores key on the digest, keeping at most one copy of
//! the rendered string, purely for display.
//!
//! The digest is FNV-1a over the rendered bytes: deterministic across runs
//! and processes (unlike `DefaultHasher` with a random seed), so shipped
//! provenance subtrees hash identically on every node.  Collisions are
//! birthday-bounded (~2⁻³² at four billion distinct tuples per store).

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// A compact, deterministic key identifying a tuple in the provenance
/// stores.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ProvKey(pub u64);

impl ProvKey {
    /// Derives the key from a tuple's rendered display form (the canonical
    /// identity all provenance layers agree on, e.g. `reachable(@a,c)`).
    pub fn from_rendered(rendered: &str) -> Self {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for b in rendered.as_bytes() {
            hash ^= *b as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
        ProvKey(hash)
    }
}

/// The hasher of the maps keyed by digests: a [`ProvKey`] is already an FNV
/// digest of bytes this process rendered itself, so a table only has to fold
/// the word(s) it is handed — `h = (rotl(h, 5) ^ word) * K`, high half folded
/// over the low half because the table reads both ends of the hash.  Unseeded:
/// iteration order repeats from run to run, so nothing that reaches a result
/// may iterate such a map unsorted.
#[derive(Clone, Copy, Default)]
pub(crate) struct DigestHasher(u64);

impl Hasher for DigestHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// A `HashMap` keyed by digests, over [`DigestHasher`].
pub(crate) type DigestMap<K, V> = HashMap<K, V, BuildHasherDefault<DigestHasher>>;
/// A `HashSet` of digests, over [`DigestHasher`].
pub(crate) type DigestSet<K> = HashSet<K, BuildHasherDefault<DigestHasher>>;

impl fmt::Display for ProvKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "k{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_deterministic_and_distinguish_tuples() {
        let a = ProvKey::from_rendered("reachable(@a,c)");
        assert_eq!(a, ProvKey::from_rendered("reachable(@a,c)"));
        assert_ne!(a, ProvKey::from_rendered("reachable(@a,b)"));
        assert_ne!(a, ProvKey::from_rendered("reachable(a,c)"));
        // FNV-1a of the empty string is the offset basis.
        assert_eq!(ProvKey::from_rendered(""), ProvKey(0xcbf2_9ce4_8422_2325));
        assert!(a.to_string().starts_with('k'));
    }
}
