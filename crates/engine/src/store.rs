//! Per-node soft-state tuple storage: one insertion-ordered slot list per
//! relation, with secondary hash indexes over it.
//!
//! Declarative networks maintain derived state as *soft state*: every tuple
//! carries a creation timestamp and (optionally) a time-to-live, and expires
//! unless refreshed (Section 2.1 of the paper, citing the sliding-window
//! formulation of reference [2]).  Each node owns one [`NodeStore`] holding
//! its base and derived relations together with per-tuple metadata used by
//! the provenance layer.
//!
//! The storage layout is one operation log per relation:
//!
//! * **Shared rows** — a stored row is an `Arc<[Value]>`.  Probes and scans
//!   hand out `Arc` clones (or borrows) of the one materialised copy, so
//!   unification, provenance bookkeeping and head emission never deep-clone
//!   attribute values.
//! * **Slots** — every insertion is assigned a store-wide, monotonically
//!   increasing sequence number and appended to its relation's slot list as
//!   `(seq, row)`.  The list ascends by seq by construction, so it *is* the
//!   insertion order (an ordered scan is a walk, no sort) and by-seq access
//!   is a binary search.  A removed row leaves its slot behind, emptied;
//!   the list is compacted lazily, once more than half its slots are dead.
//!   Beside the slots a `row → seq` map deduplicates inserts — the only
//!   other place a row's existence is recorded.  Each key carries its hash,
//!   computed once when the row arrives: a growing table re-files rows by
//!   that word instead of walking their values (path vectors included).
//! * **Indexes** — secondary index buckets ([`NodeStore::register_index_id`],
//!   one per planner `IndexSpec`, a handful per program) hold bare seq ids in
//!   insertion order — *not* row copies — so `k` indexes cost `8k` bytes per
//!   tuple rather than `k` more copies of the row.  A relation's indexes are
//!   a short `Vec`, found by comparing key-column slices.
//! * **Running gauges** — every table keeps the byte totals behind
//!   [`NodeStore::store_bytes`] / [`NodeStore::index_bytes`] up to date as
//!   rows and buckets come and go, so reading them never walks a row.
//! * **One question** — a join asks the store for the live rows of a
//!   relation inserted no later than its delta (a prefix of the log), through
//!   an index when it has a key and one is installed, by walking the slots
//!   otherwise (`NodeStore::candidates`).  [`NodeStore::probe_id`] and
//!   [`NodeStore::scan_ordered_rows`] are uncapped views of the same answer.
//! * **Interned predicates** — relations are addressed by the dense
//!   [`PredId`]s of a [`Symbols`] table mirrored from the compiled program
//!   ([`NodeStore::sync_symbols`]), so the hot path indexes a `Vec` by `u32`
//!   instead of hashing predicate strings.

use crate::hash::{FastMap, HashedRow, RowKey, RowProbe};
use crate::tuple::Tuple;
use pasn_datalog::{PredId, Symbols, Value};
use pasn_net::{NodeId, SimTime};
use pasn_provenance::ProvTag;
use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Relations with fewer slots than this never compact: skipping a handful
/// of dead slots during ordered scans is cheaper than a rebuild, and at
/// deployment scale — thousands of near-empty per-node tables churning
/// under TTL expiry — the guard prevents rebuild storms whose metered debt
/// (`compact_entry_us` per walked slot) would swamp the actual work.  Dead
/// residue per table stays bounded by the threshold.
const COMPACT_MIN_LEN: usize = 64;

/// The slot lists' compaction policy: rebuild once more than half of a
/// long-enough list is dead.
fn compaction_due(len: usize, dead: usize) -> bool {
    len >= COMPACT_MIN_LEN && dead * 2 > len
}

/// An emptied container keeps a buffer no larger than this (the smallest a
/// `Vec` or map allocates, so a one-row table that flaps does not reallocate
/// every time) and hands anything larger back to the allocator.
const KEEP_CAPACITY: usize = 4;

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
    /// Principal id of the asserting node.  The engine always fills it —
    /// nodes double as principals whether or not `says` is configured, so
    /// it is `Some(origin.0)`; only stores filled directly (tests, benches)
    /// leave it `None`.
    pub asserted_by: Option<u32>,
}

impl TupleMeta {
    /// Extends the soft-state lifetime to `expires_at` — never shortens it;
    /// a `None` on either side makes (or keeps) the row hard state.  Returns
    /// the new expiry instant when it moved: the one the store's expiry
    /// min-heap must learn about.
    fn extend_ttl(&mut self, expires_at: Option<SimTime>) -> Option<SimTime> {
        match (self.expires_at, expires_at) {
            (Some(a), Some(b)) if b > a => self.expires_at = Some(b),
            (Some(_), Some(_)) => return None,
            _ => {
                self.expires_at = None;
                return None;
            }
        }
        self.expires_at
    }
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

/// One entry of a relation's slot list: the insertion seq and, while the
/// row is live, the row itself.
#[derive(Clone, Debug)]
struct Slot {
    seq: u64,
    row: Option<StoredRow>,
}

/// A row as probes and scans hand it out: insertion seq, shared values and
/// metadata, borrowed from the store.
type SeqRow<'a> = (u64, &'a Arc<[Value]>, &'a TupleMeta);

/// The buckets of one hash index: bucket key (the projected values at the
/// index's key columns) → seq ids of matching rows, in insertion order.
/// Buckets never copy rows.
type IndexBuckets = FastMap<RowKey, Vec<u64>>;

/// A secondary hash index over one projection of a relation.
#[derive(Clone, Debug)]
struct Index {
    key_columns: Vec<usize>,
    buckets: IndexBuckets,
}

/// One relation: the insertion-ordered slot list, the dedup map, and any
/// secondary indexes registered over it.
#[derive(Clone, Debug, Default)]
struct Table {
    /// One slot per insertion, ascending by seq.  Removed rows leave dead
    /// (emptied) slots behind until more than half the list is dead.
    slots: Vec<Slot>,
    /// Dedup map: row values → seq of the live slot holding them.  Its
    /// length is the live-row count, so `slots.len() - by_row.len()` slots
    /// are dead.
    by_row: FastMap<RowKey, u64>,
    /// Slots walked by compaction rebuilds since the debt was last drained
    /// (see [`NodeStore::take_compaction_debt`]).  Compaction used to run
    /// un-metered, which charged its cost to nobody — harmless on one
    /// global clock, but wrong with one CPU lane per node.
    compaction_walked: u64,
    /// Secondary indexes in registration order: a handful per relation,
    /// found by key-column slice equality.
    indexes: Vec<Index>,
    /// Running total of [`row_bytes`] over the live rows.
    row_bytes: usize,
    /// Running total over every index bucket of its key's encoding plus one
    /// seq (8 bytes) per entry.
    index_bytes: usize,
    /// Reused buffer an index key is projected into, so maintaining an
    /// index allocates only when a bucket is born.
    key_scratch: Vec<Value>,
}

/// Bytes one row's values contribute to a table's store gauge: their
/// canonical encoding plus the attribute-count prefix.  The predicate-name
/// prefix is the same for every row of a table and is added per live row
/// when the gauge is read.
fn row_bytes(values: &[Value]) -> usize {
    2 + key_bytes(values)
}

/// Encoded size of an index bucket's key.
fn key_bytes(key: &[Value]) -> usize {
    key.iter().map(Value::encoded_len).sum()
}

const SEQ_BYTES: usize = std::mem::size_of::<u64>();

/// Projects `values` onto `key_columns` into `key`; false if any column is
/// out of range (such a row can never match a probe on this index).
fn project_into(key: &mut Vec<Value>, values: &[Value], key_columns: &[usize]) -> bool {
    key.clear();
    key.extend(key_columns.iter().map_while(|&c| values.get(c).cloned()));
    key.len() == key_columns.len()
}

impl Table {
    /// The index keyed on exactly `key_columns`, if one is installed.
    fn index_on(&self, key_columns: &[usize]) -> Option<&Index> {
        self.indexes.iter().find(|i| i.key_columns == key_columns)
    }

    /// Position of the slot carrying `seq`: a binary search, the slots
    /// ascend by seq.
    fn slot_at(&self, seq: u64) -> Option<usize> {
        self.slots.binary_search_by_key(&seq, |slot| slot.seq).ok()
    }

    /// The live row behind `seq`.
    fn row(&self, seq: u64) -> Option<&StoredRow> {
        self.slots[self.slot_at(seq)?].row.as_ref()
    }

    /// [`Table::row`], mutably.
    fn row_mut(&mut self, seq: u64) -> Option<&mut StoredRow> {
        let at = self.slot_at(seq)?;
        self.slots[at].row.as_mut()
    }

    /// The seq of the live row holding exactly `values`.
    fn seq_of(&self, values: &[Value]) -> Option<u64> {
        let probe = RowProbe::new(values);
        self.by_row.get(&probe as &dyn HashedRow).copied()
    }

    /// The live row holding exactly `values`, with its seq.
    fn row_of_mut(&mut self, values: &[Value]) -> Option<(u64, &mut StoredRow)> {
        let seq = self.seq_of(values)?;
        Some((seq, self.row_mut(seq)?))
    }

    /// Live rows in insertion order: a walk of the slots, skipping the dead
    /// ones (at most as many as there are live rows once the list is long
    /// enough to compact).
    fn live(&self) -> impl Iterator<Item = (u64, &StoredRow)> {
        self.slots
            .iter()
            .filter_map(|slot| Some((slot.seq, slot.row.as_ref()?)))
    }

    /// Adds a row's seq to every index, at the back of its bucket.
    fn index_insert(&mut self, seq: u64, values: &[Value]) {
        let key = &mut self.key_scratch;
        for index in &mut self.indexes {
            if !project_into(key, values, &index.key_columns) {
                continue;
            }
            self.index_bytes += SEQ_BYTES;
            let probe = RowProbe::new(key);
            match index.buckets.get_mut(&probe as &dyn HashedRow) {
                Some(bucket) => bucket.push(seq),
                None => {
                    self.index_bytes += key_bytes(key);
                    index.buckets.insert(probe.to_key(), vec![seq]);
                }
            }
        }
    }

    /// Removes a row's seq from every index.
    fn index_remove(&mut self, seq: u64, values: &[Value]) {
        let key = &mut self.key_scratch;
        for index in &mut self.indexes {
            if !project_into(key, values, &index.key_columns) {
                continue;
            }
            let probe = &RowProbe::new(key) as &dyn HashedRow;
            if let Some(bucket) = index.buckets.get_mut(probe) {
                let before = bucket.len();
                bucket.retain(|&s| s != seq);
                self.index_bytes -= (before - bucket.len()) * SEQ_BYTES;
                if bucket.is_empty() {
                    index.buckets.remove(probe);
                    self.index_bytes -= key_bytes(key);
                }
            }
        }
    }

    /// Removes the row behind a known seq, keeping the dedup map, the
    /// indexes, the gauges and the slot list consistent.
    fn take_by_seq(&mut self, seq: u64) -> Option<StoredRow> {
        let at = self.slot_at(seq)?;
        let row = self.slots[at].row.take()?;
        self.by_row
            .remove(&RowProbe::new(&row.values) as &dyn HashedRow);
        self.row_bytes -= row_bytes(&row.values);
        self.index_remove(seq, &row.values);
        // Lazy compaction ([`compaction_due`]: order-preserving, O(len),
        // amortised O(1); small lists are exempt) — except when the table
        // empties entirely: that is a release, not a rebuild, and without it
        // every per-node table whose generation fully expires would park its
        // dead slots and its capacity forever, an O(nodes) residue at scale.
        let len = self.slots.len();
        if self.by_row.is_empty() {
            self.release();
        } else if compaction_due(len, len - self.by_row.len()) {
            self.compaction_walked += len as u64;
            self.slots.retain(|slot| slot.row.is_some());
        }
        Some(row)
    }

    /// Empties the slot list of a table with no live row and hands every
    /// buffer above [`KEEP_CAPACITY`] back to the allocator.
    fn release(&mut self) {
        self.slots.clear();
        if self.slots.capacity() > KEEP_CAPACITY {
            self.slots = Vec::new();
        }
        if self.by_row.capacity() > KEEP_CAPACITY {
            self.by_row = FastMap::default();
        }
        for index in &mut self.indexes {
            if index.buckets.capacity() > KEEP_CAPACITY {
                index.buckets = IndexBuckets::default();
            }
        }
    }

    /// Inserts one shared row, deduplicating through one `entry` of the
    /// row→seq map before any index or slot work: a duplicate merges its
    /// provenance tag via `combine` and refreshes the soft-state lifetime
    /// instead of storing a copy.  `next_seq` is the store-wide insertion
    /// counter, advanced only for genuinely new rows.  Returns the outcome
    /// together with the seq of the live row now holding `values` (fresh for
    /// new rows, the original insertion's for duplicates) and — when the
    /// row's TTL was newly set or extended — the expiry instant the store's
    /// min-heap must learn about.
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
        let seq = match self.by_row.entry(RowKey::new(values)) {
            Entry::Vacant(vacant) => {
                let seq = *next_seq;
                *next_seq += 1;
                let values = vacant.key().row().clone();
                vacant.insert(seq);
                let expires = meta.expires_at;
                self.row_bytes += row_bytes(&values);
                self.index_insert(seq, &values);
                let row = Some(StoredRow { values, meta });
                self.slots.push(Slot { seq, row });
                return (InsertOutcome::New, seq, expires);
            }
            Entry::Occupied(occupied) => *occupied.get(),
        };
        let existing = self.row_mut(seq).expect("dedup entries point at live rows");
        let merged = combine(&existing.meta.tag, &meta.tag);
        // A re-derivation refreshes the soft-state lifetime.
        let bumped = existing.meta.extend_ttl(meta.expires_at);
        let outcome = if merged != existing.meta.tag {
            existing.meta.tag = merged;
            InsertOutcome::MergedTag
        } else {
            InsertOutcome::Duplicate
        };
        (outcome, seq, bumped)
    }
}

/// Where a [`Candidates`] iterator reads from.  Both sources ascend by seq.
enum Source<'a> {
    /// The matching bucket of an installed index: bare seqs, each resolved
    /// against the table's slots.
    Bucket(std::slice::Iter<'a, u64>, &'a Table),
    /// The slot list itself, front to back.
    Walk(std::slice::Iter<'a, Slot>),
}

/// The answer to the store's one read question (see
/// [`NodeStore::candidates`]): live rows in insertion order, stopping at the
/// first seq past the cap.
pub(crate) struct Candidates<'a> {
    source: Source<'a>,
    up_to: u64,
}

impl Candidates<'_> {
    /// Whether an installed index produced these rows (a slot walk did
    /// otherwise).
    pub(crate) fn used_index(&self) -> bool {
        matches!(self.source, Source::Bucket(..))
    }
}

impl<'a> Iterator for Candidates<'a> {
    type Item = SeqRow<'a>;

    fn next(&mut self) -> Option<SeqRow<'a>> {
        let up_to = self.up_to;
        loop {
            let (seq, row) = match &mut self.source {
                Source::Bucket(seqs, table) => {
                    let seq = *seqs.next().filter(|&&seq| seq <= up_to)?;
                    (seq, table.row(seq))
                }
                Source::Walk(slots) => {
                    let slot = slots.next().filter(|slot| slot.seq <= up_to)?;
                    (slot.seq, slot.row.as_ref())
                }
            };
            if let Some(row) = row {
                return Some((seq, &row.values, &row.meta));
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
    /// sort: the slot list already is the order), and it is maintained
    /// incrementally afterwards.
    pub fn register_index_id(&mut self, pred: PredId, key_columns: &[usize]) {
        let table = self.table_mut(pred);
        if table.index_on(key_columns).is_some() {
            return;
        }
        let mut buckets = IndexBuckets::default();
        let (mut key, mut bytes) = (Vec::new(), 0);
        for (seq, row) in table.live() {
            if project_into(&mut key, &row.values, key_columns) {
                let bucket = buckets.entry(RowProbe::new(&key).to_key()).or_default();
                if bucket.is_empty() {
                    bytes += key_bytes(&key);
                }
                bucket.push(seq);
                bytes += SEQ_BYTES;
            }
        }
        table.index_bytes += bytes;
        table.indexes.push(Index {
            key_columns: key_columns.to_vec(),
            buckets,
        });
    }

    // ---- reads -----------------------------------------------------------

    /// The store's one read question: the live rows of `pred` inserted no
    /// later than `up_to`, in insertion order — through the index on the
    /// key's columns when a `(key_columns, key)` is given and that index is
    /// installed, by walking the slots otherwise.  The answer says which it
    /// used ([`Candidates::used_index`]).  The evaluator caps every join at
    /// its delta's seq, which keeps batched joins tuple-at-a-time-visible:
    /// a delta row only joins rows inserted no later than itself.
    pub(crate) fn candidates(
        &self,
        pred: PredId,
        key: Option<(&[usize], &[Value])>,
        up_to: u64,
    ) -> Candidates<'_> {
        let table = self.table(pred);
        let indexed = |(columns, key): (&[usize], &[Value])| {
            let probe = &RowProbe::new(key) as &dyn HashedRow;
            let bucket = table?.index_on(columns)?.buckets.get(probe);
            Some(Source::Bucket(
                bucket.map_or(&[][..], Vec::as_slice).iter(),
                table?,
            ))
        };
        let walk = || Source::Walk(table.map_or(&[][..], |t| &t.slots).iter());
        let source = key.and_then(indexed).unwrap_or_else(walk);
        Candidates { source, up_to }
    }

    /// Probes the secondary index of `pred` keyed on `key_columns` for rows
    /// matching `key`, in insertion order.  Returns `None` when no such
    /// index is installed; an installed index with no matches yields an
    /// empty iterator.  Rows are handed out by reference — callers clone
    /// the `Arc`, never the values.
    pub fn probe_id<'a>(
        &'a self,
        pred: PredId,
        key_columns: &[usize],
        key: &[Value],
    ) -> Option<impl Iterator<Item = (&'a Arc<[Value]>, &'a TupleMeta)> + 'a> {
        let rows = self.candidates(pred, Some((key_columns, key)), u64::MAX);
        rows.used_index()
            .then(|| rows.map(|(_, values, meta)| (values, meta)))
    }

    /// All rows of an interned predicate in insertion order: a walk of the
    /// slot list, O(live rows), no sorting.
    pub fn scan_ordered_rows(
        &self,
        pred: PredId,
    ) -> impl Iterator<Item = (&Arc<[Value]>, &TupleMeta)> + '_ {
        self.candidates(pred, None, u64::MAX)
            .map(|(_, values, meta)| (values, meta))
    }

    // ---- insertion / removal ---------------------------------------------

    /// Inserts a shared row under an interned predicate.  If an identical
    /// row already exists, provenance tags are combined with the semiring
    /// `+` via `combine` (alternative derivations of the same tuple).
    /// Returns the outcome and the seq of the live row now holding the
    /// values (fresh for a new row, the original insertion's for a
    /// duplicate).  The evaluator caps each delta's joins at its seq, which
    /// keeps batched joins exactly tuple-at-a-time-visible: a delta never
    /// joins a batch sibling inserted after it.
    pub fn insert_row<F>(
        &mut self,
        pred: PredId,
        values: Arc<[Value]>,
        meta: TupleMeta,
        combine: F,
    ) -> (InsertOutcome, u64)
    where
        F: FnOnce(&ProvTag, &ProvTag) -> ProvTag,
    {
        self.ensure_table(pred);
        let table = &mut self.tables[pred.index()];
        let (outcome, seq, expires) = table.insert_one(&mut self.next_seq, values, meta, combine);
        if let Some(at) = expires {
            let entry = (at.as_micros(), pred.index() as u32, seq);
            self.expiry_heap.push(Reverse(entry));
        }
        (outcome, seq)
    }

    /// Looks up the metadata of an exact row.
    pub fn meta_of(&self, pred: PredId, values: &[Value]) -> Option<&TupleMeta> {
        let table = self.table(pred)?;
        table.row(table.seq_of(values)?).map(|row| &row.meta)
    }

    /// The insertion seq of the live row holding `values`, if present — the
    /// stable identity the deletion ledger keys supports and firings by (a
    /// re-inserted row gets a fresh seq, so stale records never attach to a
    /// new incarnation).
    pub fn seq_of(&self, pred: PredId, values: &[Value]) -> Option<u64> {
        self.table(pred)?.seq_of(values)
    }

    /// The live row behind a known seq, if any.
    pub fn row_by_seq(&self, pred: PredId, seq: u64) -> Option<(&Arc<[Value]>, &TupleMeta)> {
        let row = self.table(pred)?.row(seq)?;
        Some((&row.values, &row.meta))
    }

    /// Removes the live row behind a known seq, returning its shared values
    /// and metadata.  Dedup map, secondary indexes and the lazily compacted
    /// slot list stay consistent.
    pub fn remove_by_seq(&mut self, pred: PredId, seq: u64) -> Option<(Arc<[Value]>, TupleMeta)> {
        let row = self.tables.get_mut(pred.index())?.take_by_seq(seq)?;
        Some((row.values, row.meta))
    }

    /// Drains the store's outstanding compaction debt: the total number of
    /// slots walked by lazy compaction rebuilds since the last drain, across
    /// all relations.  The engine charges this to the owning
    /// node's CPU lane (at [`pasn_net::CostModel::compact_entry_us`] per
    /// entry) right after every removal path, so deferred store maintenance
    /// lands on the node that owns the store rather than vanishing into the
    /// global clock.
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
            .and_then(|t| t.row_mut(seq))
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
        let Some((seq, row)) = table.row_of_mut(values) else {
            return false;
        };
        if let Some(at) = row.meta.extend_ttl(expires_at) {
            expiry_heap.push(Reverse((at.as_micros(), pred.index() as u32, seq)));
        }
        true
    }

    // ---- storage accounting ----------------------------------------------

    /// Total number of stored tuples across relations.
    pub fn total_tuples(&self) -> usize {
        self.tables.iter().map(|t| t.by_row.len()).sum()
    }

    /// Bytes of tuple data proper: the canonical encoding of every stored
    /// row (each row is charged once — indexes share it by reference) plus
    /// one seq (8 bytes) per slot, live or dead, carrying the insertion
    /// order.  Read off the tables' running totals.
    pub fn store_bytes(&self) -> usize {
        let tables = self.tables.iter().enumerate();
        tables
            .map(|(i, table)| {
                let name = self.preds.name(PredId(i as u32)).unwrap_or("");
                table.row_bytes
                    + table.by_row.len() * (2 + name.len())
                    + table.slots.len() * SEQ_BYTES
            })
            .sum()
    }

    /// Bytes of secondary-index overhead: every bucket's key encoding plus
    /// one seq id (8 bytes) per bucket entry — the honest cost of the
    /// seq-addressed layout, where buckets reference rows instead of
    /// copying them.  Read off the tables' running totals.
    pub fn index_bytes(&self) -> usize {
        self.tables.iter().map(|table| table.index_bytes).sum()
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
                .and_then(|t| t.row(seq))
                .is_some_and(|row| row.meta.expires_at.is_some_and(|e| e <= now));
            if due {
                victims.push((seq, pred));
            }
        }
        if self.expiry_heap.is_empty() && self.expiry_heap.capacity() > KEEP_CAPACITY {
            self.expiry_heap = BinaryHeap::new();
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

    /// Verifies the slot layout end to end: the slots ascend strictly by
    /// seq, the dedup map exactly mirrors the live slots, no more slots are
    /// dead than compaction permits (none in an emptied table), every live
    /// soft-state row is covered by the expiry heap, and every secondary
    /// index — at most one per key-column set — holds each live row's seq
    /// exactly once in the right bucket, in insertion order, with no row
    /// copies and no empty buckets retained — and the running byte gauges
    /// equal a from-scratch recount.  Returns a description of the first
    /// inconsistency found.
    pub fn check_index_consistency(&self) -> Result<(), String> {
        for (i, table) in self.tables.iter().enumerate() {
            let pred = self.preds.name(PredId(i as u32)).unwrap_or("?");
            // Slots: strictly ascending, which is both the insertion order
            // and what by-seq binary search relies on.
            if !table.slots.windows(2).all(|w| w[0].seq < w[1].seq) {
                return Err(format!("{pred}: slot list violates insertion order"));
            }
            // Dedup map ↔ live slots.
            let live = table.live().count();
            if table.by_row.len() != live {
                return Err(format!(
                    "{pred}: dedup map holds {} rows, slot list holds {live}",
                    table.by_row.len()
                ));
            }
            for (key, seq) in &table.by_row {
                let values = key.row();
                match table.row(*seq) {
                    None => return Err(format!("{pred}: dedup entry {values:?} has no row")),
                    Some(row) if row.values != *values || *key != RowKey::new(values.clone()) => {
                        return Err(format!("{pred}: dedup entry {values:?} maps to wrong row"))
                    }
                    Some(_) => {}
                }
            }
            // Bounded dead slots.
            let (len, dead) = (table.slots.len(), table.slots.len() - live);
            let buckets = table.indexes.iter().map(|i| i.buckets.capacity());
            let held = buckets.chain([table.slots.capacity(), table.by_row.capacity()]);
            if live == 0 && (len > 0 || held.max() > Some(KEEP_CAPACITY)) {
                return Err(format!("{pred}: emptied table keeps slots or buffers"));
            }
            if compaction_due(len, dead) {
                return Err(format!(
                    "{pred}: compaction invariant violated ({dead} dead of {len})"
                ));
            }
            // Expiry heap: every live soft-state row must be covered by a
            // heap entry at exactly its current expiry instant.
            for (seq, row) in table.live() {
                if let Some(expires) = row.meta.expires_at {
                    let covered = self
                        .expiry_heap
                        .iter()
                        .any(|Reverse(e)| *e == (expires.as_micros(), i as u32, seq));
                    if !covered {
                        return Err(format!(
                            "{pred}: soft-state row {:?} has no expiry-heap entry",
                            row.values
                        ));
                    }
                }
            }
            let recount: usize = table.live().map(|(_, row)| row_bytes(&row.values)).sum();
            if recount != table.row_bytes {
                let kept = table.row_bytes;
                return Err(format!(
                    "{pred}: row gauge holds {kept} B, rows hold {recount} B"
                ));
            }
            // Indexes: one per key-column set; seq ids only, right bucket,
            // insertion order, complete.
            let (mut projected, mut index_recount) = (Vec::new(), 0);
            for (n, index) in table.indexes.iter().enumerate() {
                let key_columns = &index.key_columns;
                if table.indexes[..n]
                    .iter()
                    .any(|i| i.key_columns == *key_columns)
                {
                    return Err(format!("{pred}: two indexes on {key_columns:?}"));
                }
                let mut indexed = 0usize;
                for (entry, bucket) in &index.buckets {
                    let key = &entry.row()[..];
                    if bucket.is_empty() {
                        return Err(format!("{pred}: empty bucket retained for key {key:?}"));
                    }
                    index_recount += key_bytes(key) + bucket.len() * SEQ_BYTES;
                    let mut last_seq = None;
                    for seq in bucket {
                        let row = table.row(*seq).ok_or_else(|| {
                            format!("{pred}: index entry seq {seq} has no backing row")
                        })?;
                        if !project_into(&mut projected, &row.values, key_columns)
                            || *entry != RowProbe::new(&projected).to_key()
                        {
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
                let in_range = |row: &StoredRow| key_columns.iter().all(|&c| c < row.values.len());
                let expected = table.live().filter(|(_, row)| in_range(row)).count();
                if indexed != expected {
                    return Err(format!(
                        "{pred}: index on {key_columns:?} holds {indexed} rows, table holds {expected}"
                    ));
                }
            }
            if index_recount != table.index_bytes {
                let kept = table.index_bytes;
                return Err(format!(
                    "{pred}: index gauge holds {kept} B, buckets hold {index_recount} B"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests;
