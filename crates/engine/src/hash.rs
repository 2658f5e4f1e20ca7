//! The engine's one map hasher.
//!
//! Every map inside the engine is keyed by values this process produced
//! itself — insertion seqs, node / predicate / rule ids, rows derived from
//! program constants and generated topologies — so SipHash's collision
//! resistance buys nothing there and cost a fifth of a run.  [`FastMap`] and
//! [`FastSet`] are the std containers over the fixed multiply-rotate
//! [`FastHasher`].  A map keyed by bytes decoded from a frame *before* its
//! proof is checked would keep the std hasher (there is none today), and
//! hashes that are outputs (`tuple::key_hash_parts`: base-tuple ids,
//! sampling) stay on `DefaultHasher`.
//!
//! With no per-process seed, map iteration order repeats exactly from run
//! to run: an order leak is silently pinned instead of flaky, so nothing
//! that reaches a counter, a frame, a trace event or a query result may
//! iterate a map unsorted (see the crate docs).

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` over [`FastHasher`].
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;
/// A `HashSet` over [`FastHasher`].
pub type FastSet<K> = HashSet<K, BuildHasherDefault<FastHasher>>;

/// Odd multiplier (2^64 / φ): spreads every input bit towards the high bits.
const K: u64 = 0x9e37_79b9_7f4a_7c15;

/// Folds each written word as `h = (rotl(h, 5) ^ word) * K`.  The product
/// concentrates entropy in the high bits while the table reads both ends of
/// the hash (bucket index from the low bits, control tag from the top
/// seven), so [`Hasher::finish`] folds the high half over the low half.
#[derive(Clone, Copy, Default)]
pub struct FastHasher(u64);

impl FastHasher {
    #[inline]
    fn fold(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.fold(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.fold(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.fold(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.fold(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pasn_datalog::{PredId, Value};
    use pasn_net::NodeId;
    use std::hash::{BuildHasher, Hash};
    use std::sync::Arc;

    fn hash_of(key: &(impl Hash + ?Sized)) -> u64 {
        BuildHasherDefault::<FastHasher>::default().hash_one(key)
    }

    /// Share of `2^bits` buckets hit by `hashes` when a bucket is picked by
    /// the low `bits` bits, and share of the 128 control tags hit by the top
    /// seven bits — the two slices of a hash hashbrown reads.
    fn fill(hashes: &[u64], bits: u32) -> (f64, f64) {
        let mut low = vec![false; 1 << bits];
        let mut top = [false; 128];
        for hash in hashes {
            low[(hash & ((1 << bits) - 1)) as usize] = true;
            top[(hash >> 57) as usize] = true;
        }
        let share = |hit: &[bool]| hit.iter().filter(|h| **h).count() as f64 / hit.len() as f64;
        (share(&low), share(&top))
    }

    /// Each key family, at four keys per bucket (a uniform hash fills 98 %),
    /// must fill at least 90 % of the buckets and of the control tags.
    fn assert_spreads<K: Hash>(family: &str, key: impl Fn(u64) -> K) {
        for bits in [8u32, 12] {
            let hashes: Vec<u64> = (0..4u64 << bits).map(|i| hash_of(&key(i))).collect();
            let (low, top) = fill(&hashes, bits);
            assert!(low >= 0.9, "{family}: low {bits} bits fill only {low:.3}");
            assert!(top >= 0.9, "{family}: top 7 bits fill only {top:.3}");
        }
    }

    #[test]
    fn engine_key_families_spread_over_both_ends_of_the_hash() {
        assert_spreads("sequential seqs", |i| i);
        assert_spreads("(node, pred) pairs", |i| {
            (NodeId((i / 8) as u32), PredId((i % 8) as u32))
        });
        assert_spreads("node names", |i| Value::Str(format!("n{i}").into()));
        assert_spreads("two-address rows", |i| -> Arc<[Value]> {
            Arc::from([Value::Addr((i / 64) as u32), Value::Addr((i % 64) as u32)])
        });
        assert_spreads("address/int rows", |i| -> Arc<[Value]> {
            let (a, b) = ((i / 100) as u32, (i % 10) as u32);
            Arc::from([Value::Addr(a), Value::Addr(b), Value::Int((i % 100) as i64)])
        });
    }

    #[test]
    fn the_hasher_is_deterministic_and_reads_every_byte() {
        assert_eq!(hash_of(&42u64), hash_of(&42u64));
        assert_ne!(hash_of(&"link"), hash_of(&"linc"));
        assert_ne!(hash_of(&"abcdefgh1"), hash_of(&"abcdefgh2"));
        let row = |cost| -> Arc<[Value]> { Arc::from([Value::Addr(1), Value::Int(cost)]) };
        assert_eq!(
            hash_of(&row(7)),
            hash_of(&row(7)[..]),
            "rows hash as slices"
        );
        assert_ne!(hash_of(&row(7)), hash_of(&row(8)));
    }
}
