//! Property tests for the seq-addressed store layout.
//!
//! Random interleaved insert / remove / expire / register_index sequences
//! are driven against [`NodeStore::check_index_consistency`] (which audits
//! the dedup map, the lazily compacted seq list and every secondary index
//! after each step) and against a naive insertion-ordered model that
//! predicts `scan_ordered` output and expiry results.

use pasn_datalog::Value;
use pasn_engine::{NodeStore, Tuple, TupleMeta};
use pasn_net::{NodeId, SimTime};
use pasn_provenance::ProvTag;
use proptest::prelude::*;
use std::sync::Arc;

const PREDICATES: [&str; 2] = ["p", "q"];

fn meta(expires: Option<u64>) -> TupleMeta {
    TupleMeta {
        tag: ProvTag::None,
        created_at: SimTime::ZERO,
        expires_at: expires.map(SimTime::from_micros),
        origin: NodeId(0),
        asserted_by: None,
    }
}

/// Inserts `t` through the id API, keeping the stored tag on duplicates.
fn insert(store: &mut NodeStore, t: &Tuple, ttl: Option<u64>) {
    let pred = store.intern(&t.predicate);
    let row = Arc::from(t.values.as_slice());
    store.insert_row(pred, row, meta(ttl), |x, _| x.clone());
}

/// Removes `t` through the id API; a never-interned predicate is a miss.
fn remove(store: &mut NodeStore, t: &Tuple) -> bool {
    let pred = store.pred_id(&t.predicate);
    pred.is_some_and(|pred| store.remove_row(pred, &t.values).is_some())
}

fn register_index(store: &mut NodeStore, predicate: &str, cols: &[usize]) {
    let pred = store.intern(predicate);
    store.register_index_id(pred, cols);
}

fn tuple(pred_sel: u32, a: u32, b: u32) -> Tuple {
    Tuple::new(
        PREDICATES[(pred_sel % 2) as usize],
        vec![Value::Addr(a), Value::Addr(b)],
    )
}

/// The naive oracle: live tuples in global insertion order with the store's
/// TTL-refresh semantics (`max` of two TTLs, hard state clears the TTL).
#[derive(Default)]
struct Model {
    rows: Vec<(Tuple, Option<u64>)>,
}

impl Model {
    fn insert(&mut self, t: &Tuple, ttl: Option<u64>) {
        if let Some((_, existing)) = self.rows.iter_mut().find(|(row, _)| row == t) {
            *existing = match (*existing, ttl) {
                (Some(a), Some(b)) => Some(a.max(b)),
                _ => None,
            };
        } else {
            self.rows.push((t.clone(), ttl));
        }
    }

    fn remove(&mut self, t: &Tuple) {
        self.rows.retain(|(row, _)| row != t);
    }

    fn expire(&mut self, now: u64) -> Vec<Tuple> {
        let (gone, kept): (Vec<_>, Vec<_>) = std::mem::take(&mut self.rows)
            .into_iter()
            .partition(|(_, ttl)| ttl.is_some_and(|e| e <= now));
        self.rows = kept;
        gone.into_iter().map(|(t, _)| t).collect()
    }

    fn scan_ordered(&self, predicate: &str) -> Vec<Tuple> {
        self.rows
            .iter()
            .filter(|(t, _)| t.predicate == predicate)
            .map(|(t, _)| t.clone())
            .collect()
    }
}

fn assert_matches_model(store: &NodeStore, model: &Model) {
    store
        .check_index_consistency()
        .expect("seq/index invariants hold after every op");
    for pred in PREDICATES {
        let rows = store.pred_id(pred).map(|id| store.scan_ordered_rows(id));
        let got: Vec<Tuple> = rows
            .into_iter()
            .flatten()
            .map(|(values, _)| Tuple::new(pred, values.to_vec()))
            .collect();
        assert_eq!(got, model.scan_ordered(pred), "scan_ordered({pred})");
    }
}

/// Decodes one packed random word into an op tuple
/// `(op, pred_sel, a, b, t)` — the offline proptest shim has no tuple
/// strategies, so each op travels as a single `u64`.
fn decode_op(word: u64) -> (u8, u32, u32, u32, u64) {
    (
        (word % 6) as u8,
        ((word >> 3) % 2) as u32,
        ((word >> 8) % 3) as u32,
        ((word >> 16) % 3) as u32,
        (word >> 24) % 60,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every prefix of a random op sequence leaves the store consistent and
    /// byte-for-byte in sync with the insertion-ordered oracle.
    #[test]
    fn churn_preserves_consistency_and_order(
        ops in prop::collection::vec(any::<u64>(), 1..100),
    ) {
        let mut store = NodeStore::new();
        let mut model = Model::default();
        for (op, pred_sel, a, b, t) in ops.into_iter().map(decode_op) {
            match op {
                // Hard-state insert.
                0 | 1 => {
                    let tup = tuple(pred_sel, a, b);
                    insert(&mut store, &tup, None);
                    model.insert(&tup, None);
                }
                // Soft-state insert (TTL in the same window as expiry times,
                // so expiry actually bites).
                2 => {
                    let tup = tuple(pred_sel, a, b);
                    insert(&mut store, &tup, Some(t));
                    model.insert(&tup, Some(t));
                }
                // Remove (often a miss — must be a clean no-op).
                3 => {
                    let tup = tuple(pred_sel, a, b);
                    let got = remove(&mut store, &tup);
                    let expected = model.rows.iter().any(|(row, _)| *row == tup);
                    prop_assert!(got == expected, "remove hit/miss diverged");
                    model.remove(&tup);
                }
                // Expire: returned tuples must follow global insertion order.
                4 => {
                    let got = store.expire(SimTime::from_micros(t));
                    prop_assert!(got == model.expire(t), "expire order diverged");
                }
                // Register an index mid-stream (backfill from live rows).
                _ => {
                    let cols: &[usize] = match (a + b) % 3 {
                        0 => &[0],
                        1 => &[1],
                        _ => &[0, 1],
                    };
                    register_index(&mut store, PREDICATES[(pred_sel % 2) as usize], cols);
                }
            }
            assert_matches_model(&store, &model);
        }
        // Byte accounting stays coherent under churn.
        prop_assert!(store.total_tuple_bytes() == store.store_bytes() + store.index_bytes());
    }

    /// Heavy churn specifically: indexes registered up front, then ~2/3 of
    /// all rows removed or expired, exercising lazy seq-list compaction.
    #[test]
    fn heavy_churn_scan_ordered_matches_oracle(
        keys in prop::collection::vec(any::<u64>(), 30..120),
    ) {
        let mut store = NodeStore::new();
        register_index(&mut store, "p", &[0]);
        register_index(&mut store, "q", &[0, 1]);
        let mut model = Model::default();
        for (i, word) in keys.iter().enumerate() {
            let (_, pred_sel, a, b, _) = decode_op(*word);
            let ttl = (i % 3 == 1).then_some(10u64);
            let tup = tuple(pred_sel, a + b, b);
            insert(&mut store, &tup, ttl);
            model.insert(&tup, ttl);
            // Remove every third survivor immediately after inserting it.
            if i % 3 == 2 {
                remove(&mut store, &tup);
                model.remove(&tup);
            }
        }
        let got = store.expire(SimTime::from_micros(100));
        prop_assert!(got == model.expire(100));
        assert_matches_model(&store, &model);
    }
}
