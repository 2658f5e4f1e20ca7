//! Property tests for the store's slot layout.
//!
//! Random interleaved insert / remove / expire / register_index sequences
//! are driven against [`NodeStore::check_index_consistency`] (which audits
//! the dedup chains, the lazily compacted slot list and every secondary
//! index's chains after each step) and against a naive insertion-ordered
//! model that predicts seqs, `scan_ordered_rows` output, index probes and
//! expiry results.  Tables big enough to compact, and emptied outright,
//! check that every index still answers what a filtered slot walk answers
//! once compaction has renumbered its chains and a release has dropped them.

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
    }
}

/// Inserts `t` through the id API, keeping the stored tag on duplicates.
fn insert(store: &mut NodeStore, t: &Tuple, ttl: Option<u64>) {
    let pred = store.intern(&t.predicate);
    let row = t.values.clone().into();
    store.insert_row(pred, row, meta(ttl), |x, _| x.clone());
}

/// Removes `t` through the id API; a never-interned predicate is a miss.
fn remove(store: &mut NodeStore, t: &Tuple) -> bool {
    let live = store
        .pred_id(&t.predicate)
        .and_then(|pred| Some((pred, store.seq_of(pred, &t.values)?)));
    live.is_some_and(|(pred, seq)| store.remove_by_seq(pred, seq).is_some())
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

/// The naive oracle: live tuples in global insertion order — each with the
/// seq the store must have assigned it — under the store's TTL-refresh
/// semantics (`max` of two TTLs, hard state clears the TTL).
#[derive(Default)]
struct Model {
    rows: Vec<(Tuple, Option<u64>, u64)>,
    /// Seq of the next new row: one per insertion that was not a duplicate.
    next_seq: u64,
}

impl Model {
    fn insert(&mut self, t: &Tuple, ttl: Option<u64>) {
        if let Some((_, existing, _)) = self.rows.iter_mut().find(|(row, ..)| row == t) {
            *existing = match (*existing, ttl) {
                (Some(a), Some(b)) => Some(a.max(b)),
                _ => None,
            };
        } else {
            self.rows.push((t.clone(), ttl, self.next_seq));
            self.next_seq += 1;
        }
    }

    fn remove(&mut self, t: &Tuple) {
        self.rows.retain(|(row, ..)| row != t);
    }

    fn expire(&mut self, now: u64) -> Vec<Tuple> {
        let (gone, kept): (Vec<_>, Vec<_>) = std::mem::take(&mut self.rows)
            .into_iter()
            .partition(|(_, ttl, _)| ttl.is_some_and(|e| e <= now));
        self.rows = kept;
        gone.into_iter().map(|(t, ..)| t).collect()
    }

    fn scan_ordered(&self, predicate: &str) -> Vec<Tuple> {
        self.rows
            .iter()
            .filter(|(t, ..)| &*t.predicate == predicate)
            .map(|(t, ..)| t.clone())
            .collect()
    }
}

/// The three key-column sets the properties register and probe.
const KEY_COLUMNS: [&[usize]; 3] = [&[0], &[1], &[0, 1]];

/// Applies one decoded random op to the store and the model alike.
fn apply(store: &mut NodeStore, model: &mut Model, word: u64) {
    let (op, pred_sel, a, b, t) = decode_op(word);
    let tup = tuple(pred_sel, a, b);
    match op {
        // Hard-state insert.
        0 | 1 => {
            insert(store, &tup, None);
            model.insert(&tup, None);
        }
        // Soft-state insert (TTL in the same window as expiry times, so
        // expiry actually bites).
        2 => {
            insert(store, &tup, Some(t));
            model.insert(&tup, Some(t));
        }
        // Remove (often a miss — must be a clean no-op).
        3 => {
            let expected = model.rows.iter().any(|(row, ..)| *row == tup);
            assert_eq!(remove(store, &tup), expected, "remove hit/miss diverged");
            model.remove(&tup);
        }
        // Expire: returned tuples must follow global insertion order.
        4 => {
            let got = store.expire(SimTime::from_micros(t));
            assert_eq!(got, model.expire(t), "expire order diverged");
        }
        // Register an index mid-stream (backfill from live rows).
        _ => {
            let cols = KEY_COLUMNS[((a + b) % 3) as usize];
            register_index(store, PREDICATES[(pred_sel % 2) as usize], cols);
        }
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

/// Rows handed out as `(seq, values)`, up to and including seq `cap`.
type SeqRows = Vec<(u64, Vec<Value>)>;

/// For each key-column set and each probe word (a key from the row space of
/// [`wide_tuple`] and a seq cap): the rows the index chain hands out, and
/// the rows a walk of the slot list narrowed to the key hands out, each
/// stopped at the cap.  The two must be equal.
fn index_and_walk(store: &NodeStore, name: &str, probes: &[u64]) -> Vec<(SeqRows, SeqRows)> {
    let Some(pred) = store.pred_id(name) else {
        return Vec::new();
    };
    let with_seq = |values: &Arc<[Value]>| {
        let seq = store
            .seq_of(pred, values)
            .expect("handed-out rows are live");
        (seq, values.to_vec())
    };
    let mut answers = Vec::new();
    for columns in KEY_COLUMNS {
        for word in probes {
            let row = wide_tuple(*word).values;
            let key: Vec<Value> = columns.iter().map(|&c| row[c].clone()).collect();
            let cap = (word >> 40) % 600;
            let capped = |rows: SeqRows| -> SeqRows {
                rows.into_iter()
                    .take_while(|(seq, _)| *seq <= cap)
                    .collect()
            };
            let probed = store.probe_id(pred, columns, &key).expect("registered");
            let via_index = capped(probed.map(|(v, _)| with_seq(v)).collect());
            let matches = |v: &Arc<[Value]>| columns.iter().zip(&key).all(|(&c, k)| v[c] == *k);
            let walked = store.scan_ordered_rows(pred).filter(|(v, _)| matches(v));
            let via_walk = capped(walked.map(|(v, _)| with_seq(v)).collect());
            answers.push((via_index, via_walk));
        }
    }
    answers
}

/// A `p` row over a key space wide enough that a table outgrows the
/// compaction threshold: 40 × 8 rows, four per first column.
fn wide_tuple(word: u64) -> Tuple {
    let (a, b) = ((word % 40) as u32, ((word >> 8) % 8) as u32);
    Tuple::new("p", vec![Value::Addr(a), Value::Addr(b)])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every index answers what a filtered slot walk answers — same rows,
    /// same order, same seqs, under random keys and caps — while tables
    /// fill, lose most of their rows (compaction renumbers the chains), and
    /// empty entirely (a release drops them), twice over.
    #[test]
    fn index_chains_agree_with_the_slot_walk_across_compaction_and_release(
        rows in prop::collection::vec(any::<u64>(), 150..300),
        probes in prop::collection::vec(any::<u64>(), 8..16),
    ) {
        let mut store = NodeStore::new();
        for columns in KEY_COLUMNS {
            register_index(&mut store, "p", columns);
        }
        let mut compacted = 0;
        for round in 0..2u64 {
            for (i, word) in rows.iter().enumerate() {
                let ttl = (i % 4 == 0).then_some(10 + round);
                insert(&mut store, &wide_tuple(word ^ round), ttl);
            }
            store.check_index_consistency().expect("filled");
            for (via_index, via_walk) in index_and_walk(&store, "p", &probes) {
                prop_assert_eq!(via_index, via_walk);
            }
            // Remove three rows in four, in a scattered order.
            for word in rows.iter().filter(|w| (*w >> 20) % 4 != 0) {
                remove(&mut store, &wide_tuple(word ^ round));
                store.check_index_consistency().expect("after a removal");
            }
            compacted += store.take_compaction_debt();
            for (via_index, via_walk) in index_and_walk(&store, "p", &probes) {
                prop_assert_eq!(via_index, via_walk);
            }
            // Expiry takes the soft-state survivors, removal the rest: the
            // table empties and releases its slots and chains.
            store.expire(SimTime::from_micros(10 + round));
            for word in &rows {
                remove(&mut store, &wide_tuple(word ^ round));
            }
            prop_assert_eq!(store.total_tuples(), 0);
            store.check_index_consistency().expect("emptied");
            for (via_index, via_walk) in index_and_walk(&store, "p", &probes) {
                prop_assert!(via_index.is_empty() && via_walk.is_empty());
            }
        }
        prop_assert!(compacted > 0, "the removals must have compacted the slot list");
    }

    /// Every prefix of a random op sequence leaves the store consistent and
    /// byte-for-byte in sync with the insertion-ordered oracle.
    #[test]
    fn churn_preserves_consistency_and_order(
        ops in prop::collection::vec(any::<u64>(), 1..100),
    ) {
        let mut store = NodeStore::new();
        let mut model = Model::default();
        for word in ops {
            apply(&mut store, &mut model, word);
            assert_matches_model(&store, &model);
        }
        // Byte accounting stays coherent under churn: every slot, live or
        // dead, is charged its seq on top of the live rows' encodings.
        let rows: usize = model.rows.iter().map(|(t, ..)| t.encode().len()).sum();
        prop_assert!(store.store_bytes() >= rows + 8 * model.rows.len());
    }

    /// The store's one read question, asked three ways: after a random
    /// interleaving and under a random seq cap, the rows an index probe
    /// hands out, the rows the slot walk hands out (narrowed to the probe's
    /// key) and the model's agree — same rows, same order, same seqs.
    #[test]
    fn capped_candidates_agree_across_index_walk_and_model(
        ops in prop::collection::vec(any::<u64>(), 1..100),
        cap in any::<u64>(),
    ) {
        let mut store = NodeStore::new();
        let mut model = Model::default();
        for word in ops {
            apply(&mut store, &mut model, word);
        }
        let cap = cap % (model.next_seq + 1);
        for name in PREDICATES {
            let pred = store.intern(name);
            // Indexes registered only now backfill from the live slots.
            for columns in KEY_COLUMNS {
                store.register_index_id(pred, columns);
            }
            let capped = |rows: Vec<(u64, Vec<Value>)>| -> Vec<(u64, Vec<Value>)> {
                rows.into_iter().take_while(|(seq, _)| *seq <= cap).collect()
            };
            let with_seq = |values: &Arc<[Value]>| {
                let seq = store.seq_of(pred, values).expect("handed-out rows are live");
                (seq, values.to_vec())
            };
            for columns in KEY_COLUMNS {
                let key_of = |values: &[Value]| -> Vec<Value> {
                    columns.iter().map(|&c| values[c].clone()).collect()
                };
                for a in 0..3 {
                    for b in 0..3 {
                        let key = key_of(&[Value::Addr(a), Value::Addr(b)]);
                        let probed = store.probe_id(pred, columns, &key).expect("registered");
                        let via_index = capped(probed.map(|(v, _)| with_seq(v)).collect());
                        let walked = store.scan_ordered_rows(pred);
                        let via_walk = capped(
                            walked
                                .filter(|(v, _)| key_of(v) == key)
                                .map(|(v, _)| with_seq(v))
                                .collect(),
                        );
                        let want = capped(
                            model
                                .rows
                                .iter()
                                .filter(|(t, ..)| &*t.predicate == name && key_of(&t.values) == key)
                                .map(|(t, _, seq)| (*seq, t.values.to_vec()))
                                .collect(),
                        );
                        prop_assert_eq!(&via_index, &want, "index on {:?}, key {:?}", columns, &key);
                        prop_assert_eq!(&via_walk, &want, "walk for {:?}, key {:?}", columns, &key);
                    }
                }
            }
        }
    }

    /// Heavy churn specifically: indexes registered up front, then ~2/3 of
    /// all rows removed or expired, exercising lazy slot-list compaction.
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
