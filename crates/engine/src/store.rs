//! Per-node soft-state tuple storage with seq-addressed rows and secondary
//! hash indexes.
//!
//! Declarative networks maintain derived state as *soft state*: every tuple
//! carries a creation timestamp and (optionally) a time-to-live, and expires
//! unless refreshed (Section 2.1 of the paper, citing the sliding-window
//! formulation of reference [2]).  Each node owns one [`NodeStore`] holding
//! its base and derived relations together with per-tuple metadata used by
//! the provenance layer.
//!
//! The storage layout is reference-shared and sequence-addressed:
//!
//! * **Shared rows** — a stored row is an `Arc<[Value]>`.  Probes and scans
//!   hand out `Arc` clones (or borrows) of the one materialised copy, so
//!   unification, provenance bookkeeping and head emission never deep-clone
//!   attribute values.
//! * **Seq addressing** — every insertion is assigned a monotonically
//!   increasing sequence number; the row itself lives in a `seq → row` map
//!   with a `row → seq` dedup map beside it.  Secondary index buckets
//!   ([`NodeStore::register_index`], one per planner `IndexSpec`) hold bare
//!   seq ids — *not* row copies — so `k` indexes cost `8k` bytes per tuple
//!   rather than `k` more copies of the row.
//! * **Sort-free ordered scans** — each relation keeps an insertion-ordered
//!   seq list with lazy compaction (rebuilt once more than half its entries
//!   are dead), making [`NodeStore::scan_ordered`] O(live rows) with no
//!   sorting on the hot path.  Index buckets follow insertion order by
//!   construction.
//! * **Interned predicates** — relations are addressed by the dense
//!   [`PredId`]s of a [`Symbols`] table mirrored from the compiled program
//!   ([`NodeStore::sync_symbols`]), so the hot path indexes a `Vec` by `u32`
//!   instead of hashing predicate strings.  The historical name-based API
//!   remains as a thin shim that resolves through the store's interner.

use crate::tuple::{self, Tuple};
use pasn_datalog::{PredId, Symbols, Value};
use pasn_net::{NodeId, SimTime};
use pasn_provenance::ProvTag;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;

/// Relations with fewer seq-list entries than this never compact: skipping a
/// handful of dead slots during ordered scans is cheaper than a rebuild, and
/// at deployment scale — thousands of near-empty per-node tables churning
/// under TTL expiry — the guard prevents rebuild storms whose metered debt
/// (`compact_entry_us` per walked entry) would swamp the actual work.  Dead
/// residue per table stays bounded by the threshold.
const COMPACT_MIN_LEN: usize = 64;

/// Metadata attached to every stored tuple.
#[derive(Clone, Debug)]
pub struct TupleMeta {
    /// Provenance annotation (semiring tag).
    pub tag: ProvTag,
    /// Simulated time the tuple was inserted or derived locally.
    pub created_at: SimTime,
    /// Expiry time for soft-state tuples, `None` for hard state.
    pub expires_at: Option<SimTime>,
    /// The node that derived / asserted the tuple (the storing node itself
    /// for local derivations and base facts).  `says` unification and the
    /// distributed-provenance pointers resolve it to its location value.
    pub origin: NodeId,
    /// Principal id of the asserting node (`None` when authentication is
    /// disabled).
    pub asserted_by: Option<u32>,
}

/// Result of inserting a tuple into a store.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum InsertOutcome {
    /// The tuple was not present; rule evaluation should be triggered.
    New,
    /// The tuple was already present; its provenance tag was merged and
    /// changed (no re-derivation is triggered, see the crate docs).
    MergedTag,
    /// The tuple was already present with identical provenance.
    Duplicate,
}

/// One stored row: the shared values plus their metadata.
#[derive(Clone, Debug)]
struct StoredRow {
    values: Arc<[Value]>,
    meta: TupleMeta,
}

/// A hash index over one projection of a relation: bucket key (the projected
/// values at the index's key columns) → seq ids of matching rows, in
/// insertion order.  Buckets never copy rows.
type IndexBuckets = HashMap<Vec<Value>, Vec<u64>>;

/// One relation: seq-addressed rows, the dedup map, the insertion-ordered
/// seq list, and any secondary indexes registered over it.
#[derive(Clone, Debug, Default)]
struct Table {
    /// Live rows, addressed by insertion sequence number.
    rows: HashMap<u64, StoredRow>,
    /// Dedup map: row values → seq of the live row holding them.
    by_row: HashMap<Arc<[Value]>, u64>,
    /// Insertion-ordered seq ids, compacted lazily: removed rows leave dead
    /// entries behind until more than half the list is dead.
    seq_order: Vec<u64>,
    /// Number of dead entries currently in `seq_order`.
    dead: usize,
    /// Seq-list entries walked by compaction rebuilds since the debt was
    /// last drained (see [`NodeStore::take_compaction_debt`]).  Compaction
    /// used to run un-metered, which charged its cost to nobody — harmless
    /// on one global clock, but wrong once partitions advance per-node CPU
    /// lanes independently.
    compaction_walked: u64,
    indexes: HashMap<Vec<usize>, IndexBuckets>,
}

impl Table {
    /// Projects `values` onto `key_columns`; `None` if any column is out of
    /// range (such a row can never match a probe on this index).
    fn project(values: &[Value], key_columns: &[usize]) -> Option<Vec<Value>> {
        key_columns
            .iter()
            .map(|&c| values.get(c).cloned())
            .collect()
    }

    /// Adds a freshly inserted row's seq to every index.
    fn index_insert(&mut self, seq: u64, values: &[Value]) {
        for (key_columns, buckets) in &mut self.indexes {
            if let Some(key) = Self::project(values, key_columns) {
                buckets.entry(key).or_default().push(seq);
            }
        }
    }

    /// Removes a row's seq from every index.
    fn index_remove(&mut self, seq: u64, values: &[Value]) {
        for (key_columns, buckets) in &mut self.indexes {
            if let Some(key) = Self::project(values, key_columns) {
                if let Some(bucket) = buckets.get_mut(&key) {
                    bucket.retain(|&s| s != seq);
                    if bucket.is_empty() {
                        buckets.remove(&key);
                    }
                }
            }
        }
    }

    /// Removes the row stored under `values`, keeping the dedup map, the
    /// indexes and the (lazily compacted) seq list consistent.
    fn remove_by_values(&mut self, values: &[Value]) -> Option<TupleMeta> {
        let seq = *self.by_row.get(values)?;
        self.take_by_seq(seq).map(|row| row.meta)
    }

    /// Removes the row behind a known seq (no row re-hash), keeping the
    /// dedup map, the indexes and the seq list consistent.
    fn take_by_seq(&mut self, seq: u64) -> Option<StoredRow> {
        let row = self.rows.remove(&seq)?;
        self.by_row.remove(&row.values[..]);
        self.index_remove(seq, &row.values);
        self.dead += 1;
        // Lazy compaction: once more than half the seq list is dead, rebuild
        // it from the survivors (order-preserving, O(len), amortised O(1)).
        // Small lists are exempt — see [`COMPACT_MIN_LEN`] — except when
        // the table empties entirely: dropping the whole list is a clear,
        // not a rebuild, and without it every small per-node table whose
        // generation fully expires would park up to `COMPACT_MIN_LEN` dead
        // entries forever — an O(nodes) residue at 10k-node scale.
        if self.rows.is_empty() {
            self.seq_order.clear();
            self.dead = 0;
        } else if self.seq_order.len() >= COMPACT_MIN_LEN && self.dead * 2 > self.seq_order.len() {
            self.compaction_walked += self.seq_order.len() as u64;
            let rows = &self.rows;
            self.seq_order.retain(|s| rows.contains_key(s));
            self.dead = 0;
        }
        Some(row)
    }

    /// Live rows in insertion order with their seq ids, skipping dead
    /// seq-list entries (at most as many as there are live rows, by the
    /// compaction invariant).
    fn iter_ordered_seq(&self) -> impl Iterator<Item = (u64, &Arc<[Value]>, &TupleMeta)> {
        self.seq_order
            .iter()
            .filter_map(move |seq| self.rows.get(seq).map(|row| (*seq, &row.values, &row.meta)))
    }

    /// [`Table::iter_ordered_seq`] without the seqs.
    fn iter_ordered(&self) -> impl Iterator<Item = (&Arc<[Value]>, &TupleMeta)> {
        self.iter_ordered_seq()
            .map(|(_, values, meta)| (values, meta))
    }

    /// Inserts one shared row, deduplicating against the row→seq map before
    /// any index or seq-list work: a duplicate merges its provenance tag via
    /// `combine` and refreshes the soft-state lifetime instead of storing a
    /// copy.  `next_seq` is the store-wide insertion counter, advanced only
    /// for genuinely new rows.  Returns the outcome together with the seq of
    /// the live row now holding `values` (fresh for new rows, the original
    /// insertion's for duplicates) and — when the row's TTL was newly set or
    /// extended — the expiry instant the store's min-heap must learn about.
    fn insert_one<F>(
        &mut self,
        next_seq: &mut u64,
        values: Arc<[Value]>,
        meta: TupleMeta,
        combine: F,
    ) -> (InsertOutcome, u64, Option<SimTime>)
    where
        F: FnOnce(&ProvTag, &ProvTag) -> ProvTag,
    {
        match self.by_row.get(&values[..]) {
            None => {
                let seq = *next_seq;
                *next_seq += 1;
                let expires = meta.expires_at;
                self.by_row.insert(values.clone(), seq);
                self.index_insert(seq, &values);
                self.seq_order.push(seq);
                self.rows.insert(seq, StoredRow { values, meta });
                (InsertOutcome::New, seq, expires)
            }
            Some(&seq) => {
                let existing = self.rows.get_mut(&seq).expect("dedup map mirrors rows");
                let merged = combine(&existing.meta.tag, &meta.tag);
                // Refresh the soft-state lifetime on re-derivation (a `None`
                // on either side upgrades the row to hard state).
                let bumped = match (existing.meta.expires_at, meta.expires_at) {
                    (Some(a), Some(b)) if b > a => {
                        existing.meta.expires_at = Some(b);
                        Some(b)
                    }
                    (Some(a), Some(_)) => {
                        existing.meta.expires_at = Some(a);
                        None
                    }
                    _ => {
                        existing.meta.expires_at = None;
                        None
                    }
                };
                let outcome = if merged != existing.meta.tag {
                    existing.meta.tag = merged;
                    InsertOutcome::MergedTag
                } else {
                    InsertOutcome::Duplicate
                };
                (outcome, seq, bumped)
            }
        }
    }
}

/// The relations stored at one node.
#[derive(Clone, Debug, Default)]
pub struct NodeStore {
    /// Predicate interner, mirrored from the engine's table (or standalone
    /// when the store is used directly, e.g. in tests).
    preds: Symbols,
    /// Relations, indexed by [`PredId`].
    tables: Vec<Table>,
    next_seq: u64,
    /// Min-heap of `(expires_at µs, pred, seq)` over soft-state rows, pushed
    /// on every insert / TTL extension and validated lazily on pop: an entry
    /// whose row is gone, hardened, or now expires later is simply skipped
    /// (a fresher entry covers it).  This makes [`NodeStore::take_expired`]
    /// O(expired · log heap) instead of a scan of every stored row — the
    /// difference between a no-op sweep and an O(N) walk at 10k nodes.
    expiry_heap: BinaryHeap<Reverse<(u64, u32, u64)>>,
}

impl NodeStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    // ---- predicate interning ---------------------------------------------

    /// Interns a predicate name, returning its dense id.  Ids are assigned
    /// in interning order, so mirroring another [`Symbols`] table (see
    /// [`NodeStore::sync_symbols`]) keeps both id spaces identical.
    pub fn intern(&mut self, predicate: &str) -> PredId {
        let id = self.preds.intern(predicate);
        if self.tables.len() < self.preds.len() {
            self.tables.resize_with(self.preds.len(), Table::default);
        }
        id
    }

    /// The id of an already interned predicate.
    pub fn pred_id(&self, predicate: &str) -> Option<PredId> {
        self.preds.resolve(predicate)
    }

    /// The name behind an interned predicate id.
    pub fn pred_name(&self, pred: PredId) -> Option<&str> {
        self.preds.name(pred)
    }

    /// Mirrors every predicate of `symbols` this store has not seen yet, in
    /// id order, so the store's [`PredId`]s coincide with the caller's.  The
    /// engine calls this with its program-wide table before addressing the
    /// store by id; it is O(1) when already in sync.
    pub fn sync_symbols(&mut self, symbols: &Symbols) {
        self.preds.sync_from(symbols);
        if self.tables.len() < self.preds.len() {
            self.tables.resize_with(self.preds.len(), Table::default);
        }
    }

    fn table(&self, pred: PredId) -> Option<&Table> {
        self.tables.get(pred.index())
    }

    /// Checks that an id-based write addresses a predicate this store's
    /// interner actually knows, materialising its table if needed.  Accepting
    /// ids the interner has never seen would let rows exist under no name
    /// (panicking `expire`, under-charging `store_bytes`), so that contract
    /// violation fails fast instead.
    fn ensure_table(&mut self, pred: PredId) {
        assert!(
            pred.index() < self.preds.len(),
            "{pred} was not interned in this store; call intern() or sync_symbols() first"
        );
        if self.tables.len() < self.preds.len() {
            self.tables.resize_with(self.preds.len(), Table::default);
        }
    }

    /// The table behind a known id; id-based writes go through here.
    fn table_mut(&mut self, pred: PredId) -> &mut Table {
        self.ensure_table(pred);
        &mut self.tables[pred.index()]
    }

    // ---- secondary indexes -----------------------------------------------

    /// Installs a secondary hash index over the interned predicate keyed on
    /// `key_columns`.  Registering is idempotent; if the relation already
    /// holds tuples the index is (re)built from them in insertion order (no
    /// sort: the seq list already is the order), and it is maintained
    /// incrementally afterwards.
    pub fn register_index_id(&mut self, pred: PredId, key_columns: &[usize]) {
        let table = self.table_mut(pred);
        if table.indexes.contains_key(key_columns) {
            return;
        }
        let mut buckets: IndexBuckets = HashMap::new();
        for seq in &table.seq_order {
            if let Some(row) = table.rows.get(seq) {
                if let Some(key) = Table::project(&row.values, key_columns) {
                    buckets.entry(key).or_default().push(*seq);
                }
            }
        }
        table.indexes.insert(key_columns.to_vec(), buckets);
    }

    /// True if an index over `(pred, key_columns)` is installed.
    pub fn has_index_id(&self, pred: PredId, key_columns: &[usize]) -> bool {
        self.table(pred)
            .is_some_and(|t| t.indexes.contains_key(key_columns))
    }

    /// Probes the secondary index of `pred` keyed on `key_columns` for rows
    /// matching `key`, in insertion order.  Returns `None` when no such
    /// index is installed (the caller falls back to a scan); an installed
    /// index with no matches yields an empty iterator.  Rows are handed out
    /// by reference — callers clone the `Arc`, never the values.
    pub fn probe_id<'a>(
        &'a self,
        pred: PredId,
        key_columns: &[usize],
        key: &[Value],
    ) -> Option<impl Iterator<Item = (&'a Arc<[Value]>, &'a TupleMeta)> + 'a> {
        Some(
            self.probe_seq_id(pred, key_columns, key)?
                .map(|(_, values, meta)| (values, meta)),
        )
    }

    /// [`NodeStore::probe_id`] with each row's insertion seq.  The evaluator
    /// uses the seqs to keep batched joins tuple-at-a-time-visible: a delta
    /// row only joins rows inserted no later than itself.
    pub fn probe_seq_id<'a>(
        &'a self,
        pred: PredId,
        key_columns: &[usize],
        key: &[Value],
    ) -> Option<impl Iterator<Item = (u64, &'a Arc<[Value]>, &'a TupleMeta)> + 'a> {
        let table = self.table(pred)?;
        let index = table.indexes.get(key_columns)?;
        let rows = &table.rows;
        Some(
            index
                .get(key)
                .into_iter()
                .flatten()
                .filter_map(move |seq| rows.get(seq).map(|row| (*seq, &row.values, &row.meta))),
        )
    }

    // ---- insertion / removal ---------------------------------------------

    /// Inserts a shared row under an interned predicate.  If an identical
    /// row already exists, provenance tags are combined with the semiring
    /// `+` via `combine` (alternative derivations of the same tuple).
    pub fn insert_row<F>(
        &mut self,
        pred: PredId,
        values: Arc<[Value]>,
        meta: TupleMeta,
        combine: F,
    ) -> InsertOutcome
    where
        F: FnOnce(&ProvTag, &ProvTag) -> ProvTag,
    {
        self.ensure_table(pred);
        let NodeStore {
            tables,
            next_seq,
            expiry_heap,
            ..
        } = self;
        let (outcome, seq, expires) =
            tables[pred.index()].insert_one(next_seq, values, meta, combine);
        if let Some(at) = expires {
            expiry_heap.push(Reverse((at.as_micros(), pred.index() as u32, seq)));
        }
        outcome
    }

    /// Batch-inserts shared rows under one interned predicate: the table is
    /// resolved once per batch instead of once per row, and every row is
    /// deduplicated against the row→seq map before any index, seq-list or
    /// provenance-merge work.  Returns one `(outcome, seq)` per row, in
    /// input order — the seq identifies the live row now holding the values
    /// (fresh for new rows), which the evaluator uses to keep batched joins
    /// exactly tuple-at-a-time-visible (a delta never joins a batch sibling
    /// inserted after it).  A duplicate *within* the batch behaves exactly
    /// like a duplicate across batches (tags merge via `combine`, TTLs
    /// refresh, no copy is stored).
    pub fn insert_rows<F>(
        &mut self,
        pred: PredId,
        rows: Vec<(Arc<[Value]>, TupleMeta)>,
        mut combine: F,
    ) -> Vec<(InsertOutcome, u64)>
    where
        F: FnMut(&ProvTag, &ProvTag) -> ProvTag,
    {
        self.ensure_table(pred);
        let NodeStore {
            tables,
            next_seq,
            expiry_heap,
            ..
        } = self;
        let table = &mut tables[pred.index()];
        rows.into_iter()
            .map(|(values, meta)| {
                let (outcome, seq, expires) =
                    table.insert_one(next_seq, values, meta, &mut combine);
                if let Some(at) = expires {
                    expiry_heap.push(Reverse((at.as_micros(), pred.index() as u32, seq)));
                }
                (outcome, seq)
            })
            .collect()
    }

    /// Looks up the metadata of an exact row.
    pub fn meta_of(&self, pred: PredId, values: &[Value]) -> Option<&TupleMeta> {
        let table = self.table(pred)?;
        let seq = table.by_row.get(values)?;
        table.rows.get(seq).map(|row| &row.meta)
    }

    /// The insertion seq of the live row holding `values`, if present — the
    /// stable identity the deletion ledger keys supports and firings by (a
    /// re-inserted row gets a fresh seq, so stale records never attach to a
    /// new incarnation).
    pub fn seq_of(&self, pred: PredId, values: &[Value]) -> Option<u64> {
        self.table(pred)?.by_row.get(values).copied()
    }

    /// The live row behind a known seq, if any.
    pub fn row_by_seq(&self, pred: PredId, seq: u64) -> Option<(&Arc<[Value]>, &TupleMeta)> {
        self.table(pred)?
            .rows
            .get(&seq)
            .map(|row| (&row.values, &row.meta))
    }

    /// Removes the live row behind a known seq, returning its shared values
    /// and metadata.  Dedup map, secondary indexes and the lazily compacted
    /// seq list stay consistent, exactly as for [`NodeStore::remove_row`].
    pub fn remove_by_seq(&mut self, pred: PredId, seq: u64) -> Option<(Arc<[Value]>, TupleMeta)> {
        let row = self.tables.get_mut(pred.index())?.take_by_seq(seq)?;
        Some((row.values, row.meta))
    }

    /// Drains the store's outstanding compaction debt: the total number of
    /// seq-list entries walked by lazy compaction rebuilds since the last
    /// drain, across all relations.  The engine charges this to the owning
    /// node's CPU lane (at [`pasn_net::CostModel::compact_entry_us`] per
    /// entry) right after every removal path, so deferred store maintenance
    /// lands on the partition that owns the node rather than vanishing into
    /// the global clock.
    pub fn take_compaction_debt(&mut self) -> u64 {
        let mut walked = 0;
        for table in &mut self.tables {
            walked += table.compaction_walked;
            table.compaction_walked = 0;
        }
        walked
    }

    /// Replaces the provenance tag of a live row.  Provenance-guided
    /// deletion uses this when a tuple loses one of several alternative
    /// derivations: the surviving tag is recomputed as the semiring sum of
    /// the remaining contributions.  Returns `false` when the seq is dead.
    pub fn set_tag(&mut self, pred: PredId, seq: u64, tag: ProvTag) -> bool {
        match self
            .tables
            .get_mut(pred.index())
            .and_then(|t| t.rows.get_mut(&seq))
        {
            Some(row) => {
                row.meta.tag = tag;
                true
            }
            None => false,
        }
    }

    /// Extends the soft-state lifetime of an exact live row to `expires_at`
    /// (never shortens it; `None` upgrades the row to hard state).  Returns
    /// `false` when the row is absent.
    pub fn refresh_row_ttl(
        &mut self,
        pred: PredId,
        values: &[Value],
        expires_at: Option<SimTime>,
    ) -> bool {
        let NodeStore {
            tables,
            expiry_heap,
            ..
        } = self;
        let Some(table) = tables.get_mut(pred.index()) else {
            return false;
        };
        let Some(&seq) = table.by_row.get(values) else {
            return false;
        };
        let row = table.rows.get_mut(&seq).expect("dedup map mirrors rows");
        match (row.meta.expires_at, expires_at) {
            (Some(a), Some(b)) if b > a => {
                row.meta.expires_at = Some(b);
                expiry_heap.push(Reverse((b.as_micros(), pred.index() as u32, seq)));
            }
            (Some(_), Some(_)) => {}
            _ => row.meta.expires_at = None,
        }
        true
    }

    /// Removes an exact row, returning its metadata.  Secondary indexes and
    /// the dedup map stay consistent; the seq list is compacted lazily.
    pub fn remove_row(&mut self, pred: PredId, values: &[Value]) -> Option<TupleMeta> {
        self.tables.get_mut(pred.index())?.remove_by_values(values)
    }

    // ---- scans -----------------------------------------------------------

    /// Iterates over all rows of an interned predicate with their metadata,
    /// in arbitrary order.
    pub fn scan_rows(
        &self,
        pred: PredId,
    ) -> impl Iterator<Item = (&Arc<[Value]>, &TupleMeta)> + '_ {
        self.table(pred)
            .into_iter()
            .flat_map(|table| table.rows.values().map(|row| (&row.values, &row.meta)))
    }

    /// All rows of an interned predicate in insertion order — the
    /// deterministic iteration the evaluator uses for unindexed (full-scan)
    /// joins.  This walks the lazily compacted seq list directly: O(live
    /// rows), no sorting.
    pub fn scan_ordered_rows(
        &self,
        pred: PredId,
    ) -> impl Iterator<Item = (&Arc<[Value]>, &TupleMeta)> + '_ {
        self.table(pred).into_iter().flat_map(Table::iter_ordered)
    }

    /// [`NodeStore::scan_ordered_rows`] with each row's insertion seq (see
    /// [`NodeStore::probe_seq_id`] for why the evaluator needs it).
    pub fn scan_ordered_seq_rows(
        &self,
        pred: PredId,
    ) -> impl Iterator<Item = (u64, &Arc<[Value]>, &TupleMeta)> + '_ {
        self.table(pred)
            .into_iter()
            .flat_map(Table::iter_ordered_seq)
    }

    /// All predicates with at least one stored tuple.
    pub fn predicates(&self) -> impl Iterator<Item = &str> {
        self.tables
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.rows.is_empty())
            .filter_map(|(i, _)| self.preds.name(PredId(i as u32)))
    }

    /// Number of tuples of an interned predicate.
    pub fn count_id(&self, pred: PredId) -> usize {
        self.table(pred).map_or(0, |t| t.rows.len())
    }

    /// Total number of stored tuples across relations.
    pub fn total_tuples(&self) -> usize {
        self.tables.iter().map(|t| t.rows.len()).sum()
    }

    // ---- storage accounting ----------------------------------------------

    /// Bytes of tuple data proper: the canonical encoding of every stored
    /// row (each row is charged once — indexes share it by reference) plus
    /// the seq-list slots carrying the insertion order.
    pub fn store_bytes(&self) -> usize {
        self.tables
            .iter()
            .enumerate()
            .map(|(i, table)| {
                let name = self.preds.name(PredId(i as u32)).unwrap_or("");
                table
                    .rows
                    .values()
                    .map(|row| tuple::encoded_len_parts(name, &row.values))
                    .sum::<usize>()
                    + table.seq_order.len() * std::mem::size_of::<u64>()
            })
            .sum()
    }

    /// Bytes of secondary-index overhead: every bucket's key encoding plus
    /// one seq id (8 bytes) per bucket entry — the honest cost of the
    /// seq-addressed layout, where buckets reference rows instead of
    /// copying them.
    pub fn index_bytes(&self) -> usize {
        self.tables
            .iter()
            .map(|table| {
                table
                    .indexes
                    .values()
                    .flat_map(|buckets| buckets.iter())
                    .map(|(key, bucket)| {
                        key.iter().map(Value::encoded_len).sum::<usize>()
                            + bucket.len() * std::mem::size_of::<u64>()
                    })
                    .sum::<usize>()
            })
            .sum()
    }

    /// Approximate total storage footprint in bytes: tuple encodings plus
    /// the seq-list and secondary-index overhead (tag sizes are charged by
    /// the caller, which has access to the var table).
    pub fn total_tuple_bytes(&self) -> usize {
        self.store_bytes() + self.index_bytes()
    }

    // ---- expiry ----------------------------------------------------------

    /// Removes all tuples whose TTL has passed; returns the removed tuples
    /// in insertion-seq order (deterministic regardless of table iteration
    /// order).  Secondary indexes stay consistent.
    pub fn expire(&mut self, now: SimTime) -> Vec<Tuple> {
        self.take_expired(now)
            .into_iter()
            .map(|(pred, _, values, _)| {
                let name = self.preds.name(pred).expect("interned predicate");
                Tuple::new(name, values.to_vec())
            })
            .collect()
    }

    /// [`NodeStore::expire`] in id form: removes every row whose TTL has
    /// passed and returns `(pred, seq, values, meta)` per victim in
    /// insertion-seq order.  The engine's scheduled-expiry work uses the
    /// seqs to settle the deletion ledger and cascade the removals.
    ///
    /// Victims come off the expiry min-heap, not a table scan: entries are
    /// popped while due, validated against the row's *current* lifetime
    /// (stale entries from extended or hardened rows are discarded — a later
    /// push covers them), deduplicated by seq, and removed in seq order.
    pub fn take_expired(&mut self, now: SimTime) -> Vec<(PredId, u64, Arc<[Value]>, TupleMeta)> {
        let now_us = now.as_micros();
        let mut victims: Vec<(u64, PredId)> = Vec::new();
        while let Some(&Reverse((at, pred_raw, seq))) = self.expiry_heap.peek() {
            if at > now_us {
                break;
            }
            self.expiry_heap.pop();
            let pred = PredId(pred_raw);
            let due = self
                .tables
                .get(pred.index())
                .and_then(|t| t.rows.get(&seq))
                .is_some_and(|row| row.meta.expires_at.is_some_and(|e| e <= now));
            if due {
                victims.push((seq, pred));
            }
        }
        victims.sort_unstable_by_key(|(seq, _)| *seq);
        victims.dedup_by_key(|(seq, _)| *seq);
        victims
            .into_iter()
            .map(|(seq, pred)| {
                let row = self.tables[pred.index()]
                    .take_by_seq(seq)
                    .expect("validated seq is live");
                (pred, seq, row.values, row.meta)
            })
            .collect()
    }

    // ---- invariants ------------------------------------------------------

    /// Verifies the seq-addressed layout end to end: the dedup map exactly
    /// mirrors the live rows, the seq list contains every live seq exactly
    /// once in ascending order with no more dead entries than compaction
    /// permits, and every secondary index holds each live row's seq exactly
    /// once in the right bucket, in insertion order, with no row copies and
    /// no empty buckets retained.  Returns a description of the first
    /// inconsistency found.
    pub fn check_index_consistency(&self) -> Result<(), String> {
        for (i, table) in self.tables.iter().enumerate() {
            let pred = self.preds.name(PredId(i as u32)).unwrap_or("?");
            // Dedup map ↔ rows.
            if table.by_row.len() != table.rows.len() {
                return Err(format!(
                    "{pred}: dedup map holds {} rows, table holds {}",
                    table.by_row.len(),
                    table.rows.len()
                ));
            }
            for (values, seq) in &table.by_row {
                match table.rows.get(seq) {
                    None => return Err(format!("{pred}: dedup entry {values:?} has no row")),
                    Some(row) if row.values != *values => {
                        return Err(format!("{pred}: dedup entry {values:?} maps to wrong row"))
                    }
                    Some(_) => {}
                }
            }
            // Seq list: every live seq exactly once, ascending, bounded dead.
            let mut live_in_order = 0usize;
            let mut last_seq = None;
            for seq in &table.seq_order {
                if table.rows.contains_key(seq) {
                    if let Some(prev) = last_seq {
                        if *seq <= prev {
                            return Err(format!("{pred}: seq list violates insertion order"));
                        }
                    }
                    last_seq = Some(*seq);
                    live_in_order += 1;
                }
            }
            if live_in_order != table.rows.len() {
                return Err(format!(
                    "{pred}: seq list covers {live_in_order} live rows, table holds {}",
                    table.rows.len()
                ));
            }
            let dead = table.seq_order.len() - live_in_order;
            if dead != table.dead {
                return Err(format!(
                    "{pred}: dead counter {} does not match seq list ({dead} dead)",
                    table.dead
                ));
            }
            if table.seq_order.len() >= COMPACT_MIN_LEN && table.dead * 2 > table.seq_order.len() {
                return Err(format!(
                    "{pred}: compaction invariant violated ({dead} dead of {})",
                    table.seq_order.len()
                ));
            }
            // Expiry heap: every live soft-state row must be covered by a
            // heap entry at exactly its current expiry instant.
            for (seq, row) in &table.rows {
                if let Some(expires) = row.meta.expires_at {
                    let covered = self
                        .expiry_heap
                        .iter()
                        .any(|Reverse(e)| *e == (expires.as_micros(), i as u32, *seq));
                    if !covered {
                        return Err(format!(
                            "{pred}: soft-state row {:?} has no expiry-heap entry",
                            row.values
                        ));
                    }
                }
            }
            // Indexes: seq ids only, right bucket, insertion order, complete.
            for (key_columns, buckets) in &table.indexes {
                let mut indexed = 0usize;
                for (key, bucket) in buckets {
                    if bucket.is_empty() {
                        return Err(format!("{pred}: empty bucket retained for key {key:?}"));
                    }
                    let mut last_seq = None;
                    for seq in bucket {
                        let row = table.rows.get(seq).ok_or_else(|| {
                            format!("{pred}: index entry seq {seq} has no backing row")
                        })?;
                        if Table::project(&row.values, key_columns).as_deref() != Some(&key[..]) {
                            return Err(format!(
                                "{pred}: row {:?} filed under wrong key {key:?}",
                                row.values
                            ));
                        }
                        if let Some(prev) = last_seq {
                            if *seq <= prev {
                                return Err(format!(
                                    "{pred}: bucket {key:?} violates insertion order"
                                ));
                            }
                        }
                        last_seq = Some(*seq);
                        indexed += 1;
                    }
                }
                let expected = table
                    .rows
                    .values()
                    .filter(|row| Table::project(&row.values, key_columns).is_some())
                    .count();
                if indexed != expected {
                    return Err(format!(
                        "{pred}: index on {key_columns:?} holds {indexed} rows, table holds {expected}"
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pasn_provenance::{ProvTag, TrustLevel};

    fn meta(tag: ProvTag, expires: Option<u64>) -> TupleMeta {
        TupleMeta {
            tag,
            created_at: SimTime::ZERO,
            expires_at: expires.map(SimTime::from_micros),
            origin: NodeId(0),
            asserted_by: Some(0),
        }
    }

    fn link(a: u32, b: u32) -> Tuple {
        Tuple::new("link", vec![Value::Addr(a), Value::Addr(b)])
    }

    // Tuple-level adapters over the id API, for readable assertions.
    fn insert<F>(store: &mut NodeStore, t: &Tuple, meta: TupleMeta, combine: F) -> InsertOutcome
    where
        F: FnOnce(&ProvTag, &ProvTag) -> ProvTag,
    {
        let pred = store.intern(&t.predicate);
        store.insert_row(pred, Arc::from(t.values.as_slice()), meta, combine)
    }

    /// Inserts `t` untagged with an optional TTL, keeping the stored tag on
    /// duplicates.
    fn put(store: &mut NodeStore, t: &Tuple, ttl: Option<u64>) -> InsertOutcome {
        insert(store, t, meta(ProvTag::None, ttl), |a, _| a.clone())
    }

    fn get<'a>(store: &'a NodeStore, t: &Tuple) -> Option<&'a TupleMeta> {
        store.meta_of(store.pred_id(&t.predicate)?, &t.values)
    }

    fn remove(store: &mut NodeStore, t: &Tuple) -> Option<TupleMeta> {
        store.remove_row(store.pred_id(&t.predicate)?, &t.values)
    }

    fn ordered(store: &NodeStore, predicate: &str) -> Vec<Tuple> {
        let rows = store.pred_id(predicate).map(|p| store.scan_ordered_rows(p));
        let tuple_of = |(values, _): (&Arc<[Value]>, _)| Tuple::new(predicate, values.to_vec());
        rows.into_iter().flatten().map(tuple_of).collect()
    }

    fn probe(store: &NodeStore, name: &str, cols: &[usize], key: &[Value]) -> Option<Vec<Tuple>> {
        let hits = store.probe_id(store.pred_id(name)?, cols, key)?;
        Some(hits.map(|(v, _)| Tuple::new(name, v.to_vec())).collect())
    }

    fn index(store: &mut NodeStore, name: &str, cols: &[usize]) {
        let pred = store.intern(name);
        store.register_index_id(pred, cols);
    }

    #[test]
    fn insert_scan_and_counts() {
        let mut store = NodeStore::new();
        assert_eq!(put(&mut store, &link(0, 1), None), InsertOutcome::New);
        assert_eq!(put(&mut store, &link(0, 2), None), InsertOutcome::New);
        let pred = store.pred_id("link").unwrap();
        assert_eq!(store.count_id(pred), 2);
        assert_eq!(store.total_tuples(), 2);
        assert!(get(&store, &link(0, 1)).is_some());
        assert!(get(&store, &link(1, 0)).is_none());
        assert_eq!(store.scan_rows(pred).count(), 2);
        assert_eq!(store.pred_id("reachable"), None);
        assert_eq!(store.predicates().collect::<Vec<_>>(), vec!["link"]);
        assert!(store.total_tuple_bytes() > 0);
    }

    #[test]
    fn duplicate_inserts_merge_tags_without_retrigger() {
        let mut store = NodeStore::new();
        let t = link(0, 1);
        let combine = |a: &ProvTag, b: &ProvTag| {
            if let (ProvTag::Trust(x), ProvTag::Trust(y)) = (a, b) {
                ProvTag::Trust(TrustLevel(x.0.max(y.0)))
            } else {
                a.clone()
            }
        };
        assert_eq!(
            insert(
                &mut store,
                &t,
                meta(ProvTag::Trust(TrustLevel(1)), None),
                combine
            ),
            InsertOutcome::New
        );
        // Same tuple, higher trust: tag merges.
        assert_eq!(
            insert(
                &mut store,
                &t,
                meta(ProvTag::Trust(TrustLevel(3)), None),
                combine
            ),
            InsertOutcome::MergedTag
        );
        // Same tuple, lower trust: nothing changes.
        assert_eq!(
            insert(
                &mut store,
                &t,
                meta(ProvTag::Trust(TrustLevel(2)), None),
                combine
            ),
            InsertOutcome::Duplicate
        );
        assert_eq!(get(&store, &t).unwrap().tag, ProvTag::Trust(TrustLevel(3)));
        assert_eq!(store.total_tuples(), 1);
    }

    #[test]
    fn batch_insert_matches_row_at_a_time_semantics() {
        let combine = |a: &ProvTag, b: &ProvTag| {
            if let (ProvTag::Trust(x), ProvTag::Trust(y)) = (a, b) {
                ProvTag::Trust(TrustLevel(x.0.max(y.0)))
            } else {
                a.clone()
            }
        };
        let mut batched = NodeStore::new();
        let pred = batched.intern("link");
        batched.register_index_id(pred, &[0]);
        let rows: Vec<(Arc<[Value]>, TupleMeta)> = [
            (link(0, 1), 1u8),
            (link(0, 2), 1),
            (link(0, 1), 3), // in-batch duplicate: merges, does not copy
            (link(1, 2), 1),
        ]
        .into_iter()
        .map(|(t, trust)| {
            (
                Arc::from(t.values.as_slice()),
                meta(ProvTag::Trust(TrustLevel(trust)), None),
            )
        })
        .collect();
        let outcomes = batched.insert_rows(pred, rows.clone(), combine);
        assert_eq!(
            outcomes,
            vec![
                (InsertOutcome::New, 0),
                (InsertOutcome::New, 1),
                // The in-batch duplicate merges into (and reports) row 0.
                (InsertOutcome::MergedTag, 0),
                (InsertOutcome::New, 2)
            ]
        );

        // One row at a time produces the identical store.
        let mut serial = NodeStore::new();
        let pred_s = serial.intern("link");
        serial.register_index_id(pred_s, &[0]);
        let serial_outcomes: Vec<InsertOutcome> = rows
            .into_iter()
            .map(|(values, m)| serial.insert_row(pred_s, values, m, combine))
            .collect();
        assert_eq!(
            outcomes
                .iter()
                .map(|(outcome, _)| *outcome)
                .collect::<Vec<_>>(),
            serial_outcomes
        );
        assert_eq!(batched.total_tuples(), serial.total_tuples());
        assert_eq!(
            get(&batched, &link(0, 1)).unwrap().tag,
            ProvTag::Trust(TrustLevel(3))
        );
        assert_eq!(
            ordered(&batched, "link"),
            vec![link(0, 1), link(0, 2), link(1, 2)]
        );
        batched.check_index_consistency().unwrap();
        serial.check_index_consistency().unwrap();
    }

    #[test]
    fn soft_state_expiry() {
        let mut store = NodeStore::new();
        put(&mut store, &link(0, 1), Some(100));
        put(&mut store, &link(0, 2), None);
        put(&mut store, &link(0, 3), Some(500));
        let removed = store.expire(SimTime::from_micros(200));
        assert_eq!(removed, vec![link(0, 1)]);
        assert_eq!(store.total_tuples(), 2);
        // Expiry of the remaining soft-state tuple later.
        assert_eq!(store.expire(SimTime::from_micros(1_000)).len(), 1);
        assert_eq!(store.total_tuples(), 1);
    }

    #[test]
    fn expire_returns_tuples_in_seq_order_across_relations() {
        // Interleave soft-state tuples of several predicates so hash order
        // of the tables cannot accidentally match insertion order.
        let mut store = NodeStore::new();
        let tuples: Vec<Tuple> = (0..12)
            .map(|i| Tuple::new(["zeta", "alpha", "mid"][i % 3], vec![Value::Int(i as i64)]))
            .collect();
        for t in &tuples {
            put(&mut store, t, Some(10));
        }
        let removed = store.expire(SimTime::from_micros(10));
        assert_eq!(removed, tuples, "expirations follow insertion seq order");
        store.check_index_consistency().unwrap();
    }

    #[test]
    fn re_derivation_refreshes_ttl() {
        let mut store = NodeStore::new();
        let t = link(0, 1);
        put(&mut store, &t, Some(100));
        put(&mut store, &t, Some(300));
        assert_eq!(
            get(&store, &t).unwrap().expires_at,
            Some(SimTime::from_micros(300))
        );
        // A hard-state re-derivation clears the TTL entirely.
        put(&mut store, &t, None);
        assert_eq!(get(&store, &t).unwrap().expires_at, None);
        assert!(store.expire(SimTime::from_micros(10_000)).is_empty());
    }

    #[test]
    fn seq_addressed_removal_and_tag_replacement() {
        let mut store = NodeStore::new();
        let pred = store.intern("link");
        store.register_index_id(pred, &[0]);
        insert(
            &mut store,
            &link(0, 1),
            meta(ProvTag::Trust(TrustLevel(2)), None),
            |a, _| a.clone(),
        );
        put(&mut store, &link(0, 2), Some(100));
        let seq = store.seq_of(pred, &link(0, 1).values).unwrap();
        assert_eq!(store.seq_of(pred, &link(9, 9).values), None);
        // Tag replacement targets the live row.
        assert!(store.set_tag(pred, seq, ProvTag::Trust(TrustLevel(1))));
        assert_eq!(
            get(&store, &link(0, 1)).unwrap().tag,
            ProvTag::Trust(TrustLevel(1))
        );
        // TTL refresh extends but never shortens.
        assert!(store.refresh_row_ttl(pred, &link(0, 2).values, Some(SimTime::from_micros(50))));
        assert_eq!(
            get(&store, &link(0, 2)).unwrap().expires_at,
            Some(SimTime::from_micros(100))
        );
        assert!(store.refresh_row_ttl(pred, &link(0, 2).values, Some(SimTime::from_micros(400))));
        assert_eq!(
            get(&store, &link(0, 2)).unwrap().expires_at,
            Some(SimTime::from_micros(400))
        );
        assert!(!store.refresh_row_ttl(pred, &link(9, 9).values, None));
        // Seq-addressed removal keeps everything consistent.
        let (values, _) = store.remove_by_seq(pred, seq).unwrap();
        assert_eq!(&values[..], &link(0, 1).values[..]);
        assert!(store.remove_by_seq(pred, seq).is_none());
        store.check_index_consistency().unwrap();
        // take_expired reports pred/seq/meta for the engine's ledger.
        let expired = store.take_expired(SimTime::from_micros(500));
        assert_eq!(expired.len(), 1);
        let (epred, _, evalues, emeta) = &expired[0];
        assert_eq!(*epred, pred);
        assert_eq!(&evalues[..], &link(0, 2).values[..]);
        assert_eq!(emeta.expires_at, Some(SimTime::from_micros(400)));
        assert_eq!(store.total_tuples(), 0);
    }

    #[test]
    fn remove_returns_metadata() {
        let mut store = NodeStore::new();
        put(&mut store, &link(0, 1), None);
        assert!(remove(&mut store, &link(0, 1)).is_some());
        assert!(remove(&mut store, &link(0, 1)).is_none());
        assert_eq!(store.total_tuples(), 0);
    }

    // ---- secondary indexes ------------------------------------------------

    #[test]
    fn probe_answers_only_the_matching_bucket() {
        let mut store = NodeStore::new();
        index(&mut store, "link", &[0]);
        for (a, b) in [(0, 1), (0, 2), (1, 2), (2, 0)] {
            put(&mut store, &link(a, b), None);
        }
        let hits: Vec<Tuple> = probe(&store, "link", &[0], &[Value::Addr(0)]).unwrap();
        assert_eq!(hits, vec![link(0, 1), link(0, 2)], "insertion order");
        assert_eq!(
            probe(&store, "link", &[0], &[Value::Addr(9)])
                .unwrap()
                .len(),
            0
        );
        // Probing an unregistered index reports None (fall back to scan).
        assert!(probe(&store, "link", &[1], &[Value::Addr(2)]).is_none());
        assert!(probe(&store, "other", &[0], &[Value::Addr(0)]).is_none());
        store.check_index_consistency().unwrap();
    }

    #[test]
    fn register_index_backfills_existing_rows_in_insertion_order() {
        let mut store = NodeStore::new();
        for (a, b) in [(5, 1), (5, 9), (3, 1), (5, 4)] {
            put(&mut store, &link(a, b), None);
        }
        index(&mut store, "link", &[0]);
        // Idempotent re-registration.
        index(&mut store, "link", &[0]);
        let hits: Vec<Tuple> = probe(&store, "link", &[0], &[Value::Addr(5)]).unwrap();
        assert_eq!(hits, vec![link(5, 1), link(5, 9), link(5, 4)]);
        store.check_index_consistency().unwrap();
    }

    #[test]
    fn indexes_survive_interleaved_insert_remove_expire() {
        let mut store = NodeStore::new();
        index(&mut store, "link", &[0]);
        index(&mut store, "link", &[0, 1]);

        // Interleave: inserts with mixed TTLs, removes, expiry, re-inserts.
        put(&mut store, &link(0, 1), Some(100));
        put(&mut store, &link(0, 2), None);
        store.check_index_consistency().unwrap();

        remove(&mut store, &link(0, 1));
        store.check_index_consistency().unwrap();

        put(&mut store, &link(0, 1), Some(200));
        put(&mut store, &link(1, 2), Some(50));
        store.check_index_consistency().unwrap();

        // Expire drops link(1,2) (TTL 50) and link(0,1) (TTL 200).
        let removed = store.expire(SimTime::from_micros(60));
        assert_eq!(removed, vec![link(1, 2)]);
        store.check_index_consistency().unwrap();
        let removed = store.expire(SimTime::from_micros(500));
        assert_eq!(removed, vec![link(0, 1)]);
        store.check_index_consistency().unwrap();

        // The stale keys are really gone from the probe path.
        let hits: Vec<Tuple> = probe(&store, "link", &[0], &[Value::Addr(0)]).unwrap();
        assert_eq!(hits, vec![link(0, 2)]);
        assert_eq!(
            probe(&store, "link", &[0, 1], &[Value::Addr(0), Value::Addr(1)])
                .unwrap()
                .len(),
            0
        );

        // Re-insertion after expiry shows up again.
        put(&mut store, &link(0, 1), None);
        store.check_index_consistency().unwrap();
        assert_eq!(
            probe(&store, "link", &[0, 1], &[Value::Addr(0), Value::Addr(1)])
                .unwrap()
                .len(),
            1
        );
        // Insertion order in the shared bucket reflects the re-insert.
        let hits: Vec<Tuple> = probe(&store, "link", &[0], &[Value::Addr(0)]).unwrap();
        assert_eq!(hits, vec![link(0, 2), link(0, 1)]);
    }

    #[test]
    fn duplicate_insert_does_not_duplicate_index_entries() {
        let mut store = NodeStore::new();
        index(&mut store, "link", &[1]);
        put(&mut store, &link(0, 7), None);
        put(&mut store, &link(0, 7), None);
        assert_eq!(
            probe(&store, "link", &[1], &[Value::Addr(7)])
                .unwrap()
                .len(),
            1
        );
        store.check_index_consistency().unwrap();
    }

    #[test]
    fn scan_ordered_follows_insertion_sequence() {
        let mut store = NodeStore::new();
        let inserted = [(4, 0), (2, 9), (7, 7), (0, 0), (3, 3)];
        for (a, b) in inserted {
            put(&mut store, &link(a, b), None);
        }
        let got: Vec<Tuple> = ordered(&store, "link");
        let expected: Vec<Tuple> = inserted.iter().map(|&(a, b)| link(a, b)).collect();
        assert_eq!(got, expected);
        // Removal keeps relative order of the survivors.
        remove(&mut store, &link(7, 7));
        let got: Vec<Tuple> = ordered(&store, "link");
        assert_eq!(got, vec![link(4, 0), link(2, 9), link(0, 0), link(3, 3)]);
        assert!(ordered(&store, "nope").is_empty());
    }

    #[test]
    fn seq_list_compacts_after_heavy_churn() {
        let mut store = NodeStore::new();
        for i in 0..100u32 {
            put(&mut store, &link(i, i), None);
        }
        // Remove 90 of 100: compaction must have kicked in (dead ≤ half).
        for i in 0..90u32 {
            remove(&mut store, &link(i, i));
            store.check_index_consistency().unwrap();
        }
        let got: Vec<Tuple> = ordered(&store, "link");
        let expected: Vec<Tuple> = (90..100).map(|i| link(i, i)).collect();
        assert_eq!(got, expected, "survivors keep insertion order");
    }

    #[test]
    fn compaction_debt_is_metered_and_drained() {
        let mut store = NodeStore::new();
        for i in 0..100u32 {
            put(&mut store, &link(i, i), None);
        }
        assert_eq!(store.take_compaction_debt(), 0, "inserts never compact");
        for i in 0..90u32 {
            remove(&mut store, &link(i, i));
        }
        // 90 removals force several rebuilds; each walks the then-current
        // seq list, so the drained debt must cover at least one full rebuild
        // of the original list and be gone after draining.
        let walked = store.take_compaction_debt();
        assert!(walked >= 100, "compaction walked {walked} entries");
        assert_eq!(store.take_compaction_debt(), 0, "draining resets the debt");
    }

    #[test]
    fn index_buckets_hold_seq_ids_not_row_copies() {
        // The byte accounting makes the layout observable: adding a second
        // index over a relation must cost bucket keys + 8 bytes per row,
        // not another full copy of every row.
        let mut store = NodeStore::new();
        for i in 0..50u32 {
            put(&mut store, &link(i % 5, i), None);
        }
        let rows_only = store.store_bytes();
        assert_eq!(store.index_bytes(), 0);
        index(&mut store, "link", &[0]);
        let one_index = store.index_bytes();
        assert!(one_index > 0);
        assert!(
            one_index < rows_only,
            "index overhead ({one_index} B) must undercut row data ({rows_only} B)"
        );
        assert_eq!(store.store_bytes(), rows_only, "rows are not re-charged");
        assert_eq!(store.total_tuple_bytes(), rows_only + one_index);
    }

    #[test]
    fn id_based_api_mirrors_engine_symbols() {
        let mut authority = Symbols::new();
        let link_id = authority.intern("link");
        authority.intern("reachable");
        let mut store = NodeStore::new();
        store.sync_symbols(&authority);
        assert_eq!(store.pred_id("link"), Some(link_id));
        assert_eq!(store.pred_name(link_id), Some("link"));
        store.register_index_id(link_id, &[0]);
        assert!(store.has_index_id(link_id, &[0]));
        let row: Arc<[Value]> = Arc::from(vec![Value::Addr(0), Value::Addr(1)].as_slice());
        assert_eq!(
            store.insert_row(link_id, row.clone(), meta(ProvTag::None, None), |a, _| a
                .clone()),
            InsertOutcome::New
        );
        assert!(store.meta_of(link_id, &row).is_some());
        assert_eq!(store.scan_rows(link_id).count(), 1);
        assert_eq!(store.scan_ordered_rows(link_id).count(), 1);
        assert_eq!(
            store
                .probe_id(link_id, &[0], &[Value::Addr(0)])
                .unwrap()
                .count(),
            1
        );
        // Growing the authority and re-syncing keeps ids aligned.
        let sensor = authority.intern("sensor");
        store.sync_symbols(&authority);
        assert_eq!(store.pred_id("sensor"), Some(sensor));
        assert!(store.remove_row(link_id, &row).is_some());
        store.check_index_consistency().unwrap();
    }

    #[test]
    fn take_expired_honours_ttl_extensions_and_hardening() {
        let mut store = NodeStore::new();
        let pred = store.intern("link");
        put(&mut store, &link(0, 1), Some(100));
        put(&mut store, &link(0, 2), Some(100));
        // Extend one row, harden the other: the stale heap entries at t=100
        // must not expire either of them.
        assert!(store.refresh_row_ttl(pred, &link(0, 1).values, Some(SimTime::from_micros(300))));
        put(&mut store, &link(0, 2), None);
        assert!(store.take_expired(SimTime::from_micros(150)).is_empty());
        assert_eq!(store.total_tuples(), 2);
        let expired = store.take_expired(SimTime::from_micros(300));
        assert_eq!(expired.len(), 1, "only the extended soft-state row");
        assert_eq!(&expired[0].2[..], &link(0, 1).values[..]);
        assert!(store
            .take_expired(SimTime::from_micros(1_000_000))
            .is_empty());
        assert_eq!(store.total_tuples(), 1);
        store.check_index_consistency().unwrap();
    }

    #[test]
    fn small_tables_never_pay_compaction_debt() {
        let mut store = NodeStore::new();
        for i in 0..50u32 {
            put(&mut store, &link(i, i), None);
        }
        for i in 0..50u32 {
            remove(&mut store, &link(i, i));
            store.check_index_consistency().unwrap();
        }
        assert_eq!(
            store.take_compaction_debt(),
            0,
            "lists under the compaction threshold are never rebuilt"
        );
        assert!(ordered(&store, "link").is_empty());
        // A fully emptied table clears its seq list outright (a clear, not
        // a charged rebuild): no dead residue survives the generation.
        let empty_bytes = store.store_bytes();
        for i in 0..50u32 {
            put(&mut store, &link(i, i), None);
        }
        for i in 0..50u32 {
            remove(&mut store, &link(i, i));
        }
        assert_eq!(store.store_bytes(), empty_bytes);
        assert_eq!(store.take_compaction_debt(), 0);
    }

    #[test]
    fn has_index_reflects_registration() {
        let mut store = NodeStore::new();
        let pred = store.intern("link");
        assert!(!store.has_index_id(pred, &[0]));
        store.register_index_id(pred, &[0]);
        assert!(store.has_index_id(pred, &[0]));
        assert!(!store.has_index_id(pred, &[1]));
    }
}
