//! Per-node soft-state tuple storage: one insertion-ordered slot list per
//! relation, with secondary hash indexes over it.
//!
//! Declarative networks maintain derived state as *soft state*: every tuple
//! carries a creation timestamp and (optionally) a time-to-live, and expires
//! unless refreshed (Section 2.1 of the paper, citing the sliding-window
//! formulation of reference \[2\]).  Each node owns one [`NodeStore`] holding
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
//!   A slot holds the seq, the row and its [`RowMeta`] and nothing else
//!   (its size is pinned at compile time).
//! * **Chains** — the dedup map and every secondary index
//!   ([`NodeStore::register_index_id`], one per planner `IndexSpec`, a
//!   handful per program) are the same structure: a map from a key's 64-bit
//!   hash (the whole row for dedup, its projection on the key columns for an
//!   index) to the first and last slot of a chain threaded through the slot
//!   list, plus one `u32` link per slot.  A chain holds live slots only, in
//!   insertion order, and a walk skips the rows of a colliding key by
//!   comparing key columns.  A new key allocates nothing and copies no
//!   values; a removal unlinks its slot from each chain, and compaction
//!   renumbers the links in the pass it makes over the slots.
//! * **Running gauges** — every table keeps the byte totals behind
//!   [`NodeStore::store_bytes`] / [`NodeStore::index_bytes`] up to date as
//!   rows and index keys come and go, so reading them never walks a row.
//!   They are encoding-level accounting (the canonical encoding of each row
//!   and index key plus one seq per slot and index entry), not heap bytes.
//! * **One question** — a join asks the store for the live rows of a
//!   relation inserted no later than its delta (a prefix of the log), through
//!   an index when it has a key and one is installed, by walking the slots
//!   otherwise (`NodeStore::candidates`).  [`NodeStore::probe_id`] and
//!   [`NodeStore::scan_ordered_rows`] are uncapped views of the same answer.
//! * **Interned predicates** — relations are addressed by the dense
//!   [`PredId`]s of a [`Symbols`] table mirrored from the compiled program
//!   (`NodeStore::sync_symbols`), so the hot path indexes a `Vec` by `u32`
//!   instead of hashing predicate strings.

use crate::hash::{FastHasher, FastMap};
use crate::tuple::Tuple;
use pasn_datalog::{PredId, Symbols, Value};
use pasn_net::{NodeId, SimTime};
use pasn_provenance::ProvTag;
use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::BinaryHeap;
use std::hash::{Hash, Hasher};
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

/// Metadata attached to every tuple the store takes in or a query hands
/// back: the exchange form of a stored row's [`RowMeta`].
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
}

/// The packed expiry of a hard-state row: the end of time, so extending a
/// lifetime is a `max` and hard state absorbs.
const HARD_STATE: u64 = u64::MAX;

/// Metadata of a stored row as its slot keeps it: a [`TupleMeta`] with the
/// expiry packed into one word.  Reads hand it out by reference.
#[derive(Clone, Debug)]
pub struct RowMeta {
    /// Provenance annotation (semiring tag).
    pub tag: ProvTag,
    /// Simulated time the tuple was inserted or derived locally.
    pub created_at: SimTime,
    /// The node that derived / asserted the tuple.
    pub origin: NodeId,
    /// Expiry instant in µs; [`HARD_STATE`] for hard state (an expiry at
    /// `u64::MAX` µs is hard state too).
    expires_us: u64,
}

impl RowMeta {
    /// Expiry time for soft-state rows, `None` for hard state.
    #[inline]
    pub(crate) fn expires_at(&self) -> Option<SimTime> {
        (self.expires_us != HARD_STATE).then(|| SimTime::from_micros(self.expires_us))
    }

    /// Extends the soft-state lifetime to `expires_at` — never shortens it;
    /// a `None` on either side makes (or keeps) the row hard state.  Returns
    /// the new expiry instant when it moved: the one the store's expiry
    /// min-heap must learn about.
    fn extend_ttl(&mut self, expires_at: Option<SimTime>) -> Option<SimTime> {
        let before = self.expires_us;
        self.expires_us = before.max(expires_at.map_or(HARD_STATE, SimTime::as_micros));
        if self.expires_us > before {
            self.expires_at()
        } else {
            None
        }
    }
}

impl From<TupleMeta> for RowMeta {
    fn from(meta: TupleMeta) -> Self {
        let TupleMeta {
            tag,
            created_at,
            expires_at,
            origin,
        } = meta;
        let expires_us = expires_at.map_or(HARD_STATE, SimTime::as_micros);
        RowMeta {
            tag,
            created_at,
            origin,
            expires_us,
        }
    }
}

impl From<&RowMeta> for TupleMeta {
    #[inline]
    fn from(meta: &RowMeta) -> Self {
        TupleMeta {
            tag: meta.tag.clone(),
            created_at: meta.created_at,
            expires_at: meta.expires_at(),
            origin: meta.origin,
        }
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
    meta: RowMeta,
}

/// One entry of a relation's slot list: the insertion seq and, while the
/// row is live, the row itself.
#[derive(Clone, Debug)]
struct Slot {
    seq: u64,
    row: Option<StoredRow>,
}

const _: () = assert!(std::mem::size_of::<Slot>() <= 64);

/// A row as probes and scans hand it out: insertion seq, shared values and
/// metadata, borrowed from the store.
type SeqRow<'a> = (u64, &'a Arc<[Value]>, &'a RowMeta);

/// The end of a chain.
const NIL: u32 = u32::MAX;

/// The 64-bit hash of a row, or of an index key (a row's projection on the
/// key columns): what a chain map is keyed by.  Two keys can share one, so
/// a walk compares values; it is never a seq or a slot position.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct KeyHash(u64);

impl KeyHash {
    /// Hashes the values a key is made of, in key order.
    fn of<'a>(values: impl ExactSizeIterator<Item = &'a Value>) -> Self {
        let mut hasher = FastHasher::default();
        hasher.write_usize(values.len());
        values.for_each(|value| value.hash(&mut hasher));
        KeyHash(hasher.finish())
    }
}

/// Slots chained by key hash: the first and last slot of each chain, and
/// one link per slot to the next slot on its chain (`NIL` at a tail and for
/// a slot on no chain).  A chain ascends by slot, which is insertion order.
#[derive(Clone, Debug, Default)]
struct Chains {
    ends: FastMap<KeyHash, (u32, u32)>,
    next: Vec<u32>,
}

impl Chains {
    /// Links the slot list's new last slot `at` at the tail of `hash`'s
    /// chain — one map lookup — and returns the chain's first slot before
    /// it, `NIL` when `at` starts the chain.
    fn push(&mut self, at: u32, hash: KeyHash) -> u32 {
        let first = match self.ends.entry(hash) {
            Entry::Occupied(mut ends) => {
                let (first, tail) = *ends.get();
                ends.get_mut().1 = at;
                self.next[tail as usize] = at;
                first
            }
            Entry::Vacant(ends) => {
                ends.insert((at, at));
                NIL
            }
        };
        self.next.push(NIL);
        first
    }

    /// Gives the slot list's new last slot a link on no chain.
    fn push_unchained(&mut self) {
        self.next.push(NIL);
    }

    /// The first slot on `hash`'s chain, `NIL` when there is none.
    fn first(&self, hash: KeyHash) -> u32 {
        self.ends.get(&hash).map_or(NIL, |ends| ends.0)
    }

    /// The slots of a chain from `first` on, in insertion order.
    fn walk_from(&self, first: u32) -> impl Iterator<Item = u32> + '_ {
        let first = Some(first).filter(|&at| at != NIL);
        std::iter::successors(first, |&at| {
            Some(self.next[at as usize]).filter(|&n| n != NIL)
        })
    }

    /// Takes slot `at` off `hash`'s chain, walking from the head to its
    /// predecessor, and drops the chain once it is empty.  Returns the
    /// chain's first slot after, `NIL` when it emptied.
    fn unlink(&mut self, at: u32, hash: KeyHash) -> u32 {
        let Entry::Occupied(mut entry) = self.ends.entry(hash) else {
            unreachable!("a linked slot's chain exists");
        };
        let after = std::mem::replace(&mut self.next[at as usize], NIL);
        let (first, last) = *entry.get();
        if first == at {
            match after {
                NIL => drop(entry.remove()),
                _ => entry.get_mut().0 = after,
            }
            return after;
        }
        let mut before = first;
        while self.next[before as usize] != at {
            before = self.next[before as usize];
        }
        self.next[before as usize] = after;
        if last == at {
            entry.get_mut().1 = before;
        }
        first
    }

    /// Follows a compaction: `kept[old]` is the new position of the live
    /// slot at `old` (`NIL` for a dead one, which no chain holds).  New
    /// positions never exceed old ones, so the links move down in place.
    fn renumber(&mut self, kept: &[u32]) {
        let moved = |at: u32| if at == NIL { NIL } else { kept[at as usize] };
        let mut len = 0;
        for (old, &new) in kept.iter().enumerate() {
            if new != NIL {
                self.next[new as usize] = moved(self.next[old]);
                len += 1;
            }
        }
        self.next.truncate(len);
        for ends in self.ends.values_mut() {
            *ends = (moved(ends.0), moved(ends.1));
        }
    }

    /// Forgets every slot of an emptied table, handing buffers above
    /// [`KEEP_CAPACITY`] back to the allocator.
    fn release(&mut self) {
        self.ends.clear();
        if self.ends.capacity() > KEEP_CAPACITY {
            self.ends = FastMap::default();
        }
        self.next.clear();
        if self.next.capacity() > KEEP_CAPACITY {
            self.next = Vec::new();
        }
    }

    /// The largest buffer held.
    fn capacity(&self) -> usize {
        self.ends.capacity().max(self.next.capacity())
    }
}

/// A secondary hash index over one projection of a relation: chains of the
/// rows sharing a key hash.
#[derive(Clone, Debug)]
struct Index {
    key_columns: Vec<usize>,
    chains: Chains,
}

impl Index {
    /// The hash of `values`' key; `None` when a key column is out of range
    /// (such a row can never match a probe on this index).
    fn key_hash(&self, values: &[Value]) -> Option<KeyHash> {
        let in_range = self.key_columns.iter().all(|&c| c < values.len());
        in_range.then(|| KeyHash::of(self.key_columns.iter().map(|&c| &values[c])))
    }

    /// Whether `row` has `key` at the key columns.
    fn matches(key_columns: &[usize], row: &[Value], key: &[Value]) -> bool {
        key_columns.len() == key.len()
            && key_columns
                .iter()
                .zip(key)
                .all(|(&c, k)| row.get(c) == Some(k))
    }

    /// Whether some row on the chain from `first` — up to, not including,
    /// slot `end` — has the key `values` has.
    fn holds_key(&self, slots: &[Slot], first: u32, end: u32, values: &[Value]) -> bool {
        let columns = &self.key_columns;
        let mut chain = self.chains.walk_from(first).take_while(|&at| at != end);
        chain.any(|at| {
            let row = slots[at as usize].row.as_ref().map(|row| &row.values[..]);
            row.is_some_and(|row| columns.iter().all(|&c| row.get(c) == values.get(c)))
        })
    }

    /// Encoded size of `values`' key.
    fn key_bytes(&self, values: &[Value]) -> usize {
        self.key_columns
            .iter()
            .map(|&c| values[c].encoded_len())
            .sum()
    }

    /// Chains the newest slot `at`, holding `values` (not yet in `slots`);
    /// returns what the index gauge grows by: one seq, plus the key's
    /// encoding for a key no live row had.
    fn link(&mut self, slots: &[Slot], at: u32, values: &[Value]) -> usize {
        let Some(hash) = self.key_hash(values) else {
            self.chains.push_unchained();
            return 0;
        };
        let first = self.chains.push(at, hash);
        let held = self.holds_key(slots, first, at, values);
        SEQ_BYTES + if held { 0 } else { self.key_bytes(values) }
    }

    /// Unlinks the slot `at` that held `values` (already taken out of its
    /// slot); returns what the index gauge shrinks by, as [`Index::link`].
    fn unlink(&mut self, slots: &[Slot], at: u32, values: &[Value]) -> usize {
        let Some(hash) = self.key_hash(values) else {
            return 0;
        };
        let first = self.chains.unlink(at, hash);
        let held = self.holds_key(slots, first, NIL, values);
        SEQ_BYTES + if held { 0 } else { self.key_bytes(values) }
    }
}

/// One relation: the insertion-ordered slot list, the dedup chains, and any
/// secondary indexes registered over it.
#[derive(Clone, Debug, Default)]
struct Table {
    /// One slot per insertion, ascending by seq.  Removed rows leave dead
    /// (emptied) slots behind until more than half the list is dead.
    slots: Vec<Slot>,
    /// Dedup chains: each live row on the chain of its whole-row hash.
    by_row: Chains,
    /// Live rows, so `slots.len() - live` slots are dead.
    live: usize,
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
    /// Running total over every index of its distinct live keys' encodings
    /// plus one seq (8 bytes) per indexed row.
    index_bytes: usize,
}

/// Bytes one row's values contribute to a table's store gauge: their
/// canonical encoding plus the attribute-count prefix.  The predicate-name
/// prefix is the same for every row of a table and is added per live row
/// when the gauge is read.
fn row_bytes(values: &[Value]) -> usize {
    2 + values.iter().map(Value::encoded_len).sum::<usize>()
}

const SEQ_BYTES: usize = std::mem::size_of::<u64>();

/// A slot position as a chain link.
fn link_of(at: usize) -> u32 {
    u32::try_from(at)
        .ok()
        .filter(|&at| at != NIL)
        .expect("fewer than 2^32 - 1 slots per relation")
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

    /// Position of the live slot holding exactly `values`, found on the
    /// chain of their hash.
    fn position_of(&self, hash: KeyHash, values: &[Value]) -> Option<usize> {
        let holds = |at: &u32| {
            let row = self.slots[*at as usize].row.as_ref();
            row.is_some_and(|row| *row.values == *values)
        };
        let mut chain = self.by_row.walk_from(self.by_row.first(hash));
        chain.find(holds).map(|at| at as usize)
    }

    /// The seq of the live row holding exactly `values`.
    fn seq_of(&self, values: &[Value]) -> Option<u64> {
        let at = self.position_of(KeyHash::of(values.iter()), values)?;
        Some(self.slots[at].seq)
    }

    /// The live row holding exactly `values`, with its seq.
    fn row_of_mut(&mut self, values: &[Value]) -> Option<(u64, &mut StoredRow)> {
        let at = self.position_of(KeyHash::of(values.iter()), values)?;
        let slot = &mut self.slots[at];
        Some((slot.seq, slot.row.as_mut()?))
    }

    /// Live rows in insertion order: a walk of the slots, skipping the dead
    /// ones (at most as many as there are live rows once the list is long
    /// enough to compact).
    fn live(&self) -> impl Iterator<Item = (u64, &StoredRow)> {
        self.slots
            .iter()
            .filter_map(|slot| Some((slot.seq, slot.row.as_ref()?)))
    }

    /// Removes the row behind a known seq, keeping the dedup chains, the
    /// indexes, the gauges and the slot list consistent.
    fn take_by_seq(&mut self, seq: u64) -> Option<StoredRow> {
        let at = self.slot_at(seq)?;
        let row = self.slots[at].row.take()?;
        let link = link_of(at);
        self.by_row.unlink(link, KeyHash::of(row.values.iter()));
        self.live -= 1;
        self.row_bytes -= row_bytes(&row.values);
        for index in &mut self.indexes {
            self.index_bytes -= index.unlink(&self.slots, link, &row.values);
        }
        // Lazy compaction ([`compaction_due`]: order-preserving, O(len),
        // amortised O(1); small lists are exempt) — except when the table
        // empties entirely: that is a release, not a rebuild, and without it
        // every per-node table whose generation fully expires would park its
        // dead slots and its capacity forever, an O(nodes) residue at scale.
        let len = self.slots.len();
        if self.live == 0 {
            self.release();
        } else if compaction_due(len, len - self.live) {
            self.compaction_walked += len as u64;
            self.compact();
        }
        Some(row)
    }

    /// Drops the dead slots, keeping the live ones in order, and renumbers
    /// every chain's links to the slots' new positions.
    fn compact(&mut self) {
        let mut moved = 0;
        let kept: Vec<u32> = self
            .slots
            .iter()
            .map(|slot| match slot.row {
                Some(_) => {
                    moved += 1;
                    moved - 1
                }
                None => NIL,
            })
            .collect();
        self.by_row.renumber(&kept);
        for index in &mut self.indexes {
            index.chains.renumber(&kept);
        }
        self.slots.retain(|slot| slot.row.is_some());
    }

    /// Empties the slot list and the chains of a table with no live row and
    /// hands every buffer above [`KEEP_CAPACITY`] back to the allocator.
    fn release(&mut self) {
        self.slots.clear();
        if self.slots.capacity() > KEEP_CAPACITY {
            self.slots = Vec::new();
        }
        self.by_row.release();
        for index in &mut self.indexes {
            index.chains.release();
        }
    }

    /// Inserts one shared row, deduplicating through the chain of its hash
    /// before any index or slot work: a duplicate merges its provenance tag
    /// via `combine` and refreshes the soft-state lifetime instead of
    /// storing a copy.  `next_seq` is the store-wide insertion counter,
    /// advanced only for genuinely new rows.  Returns the outcome together
    /// with the seq of the live row now holding `values` (fresh for new
    /// rows, the original insertion's for duplicates) and — when the row's
    /// TTL was newly set or extended — the expiry instant the store's
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
        let hash = KeyHash::of(values.iter());
        let Some(at) = self.position_of(hash, &values) else {
            let seq = *next_seq;
            *next_seq += 1;
            let link = link_of(self.slots.len());
            self.by_row.push(link, hash);
            for index in &mut self.indexes {
                self.index_bytes += index.link(&self.slots, link, &values);
            }
            self.live += 1;
            self.row_bytes += row_bytes(&values);
            let expires = meta.expires_at;
            let meta = RowMeta::from(meta);
            let row = Some(StoredRow { values, meta });
            self.slots.push(Slot { seq, row });
            return (InsertOutcome::New, seq, expires);
        };
        let slot = &mut self.slots[at];
        let existing = &mut slot.row.as_mut().expect("chained slots are live").meta;
        let merged = combine(&existing.tag, &meta.tag);
        // A re-derivation refreshes the soft-state lifetime.
        let bumped = existing.extend_ttl(meta.expires_at);
        let outcome = if merged != existing.tag {
            existing.tag = merged;
            InsertOutcome::MergedTag
        } else {
            InsertOutcome::Duplicate
        };
        (outcome, slot.seq, bumped)
    }
}

/// Where a [`Candidates`] iterator reads from.  Both sources ascend by seq.
enum Source<'a> {
    /// The chain of an installed index that the probed key hashes to: the
    /// next slot to visit, the index's links, and the key (a row of a
    /// colliding key on the chain is skipped).
    Chain {
        at: u32,
        slots: &'a [Slot],
        next: &'a [u32],
        columns: &'a [usize],
        key: &'a [Value],
    },
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
        matches!(self.source, Source::Chain { .. })
    }
}

impl<'a> Iterator for Candidates<'a> {
    type Item = SeqRow<'a>;

    #[inline]
    fn next(&mut self) -> Option<SeqRow<'a>> {
        let up_to = self.up_to;
        match &mut self.source {
            Source::Walk(slots) => loop {
                let slot = slots.next().filter(|slot| slot.seq <= up_to)?;
                if let Some(row) = &slot.row {
                    return Some((slot.seq, &row.values, &row.meta));
                }
            },
            Source::Chain {
                at,
                slots,
                next,
                columns,
                key,
            } => loop {
                let slot = slots.get(*at as usize).filter(|slot| slot.seq <= up_to)?;
                *at = next[*at as usize];
                // Chains hold live slots only.
                let row = slot.row.as_ref()?;
                if Index::matches(columns, &row.values, key) {
                    return Some((slot.seq, &row.values, &row.meta));
                }
            },
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
    /// `NodeStore::sync_symbols`) keeps both id spaces identical.
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
    pub(crate) fn sync_symbols(&mut self, symbols: &Symbols) {
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
        let mut index = Index {
            key_columns: key_columns.to_vec(),
            chains: Chains::default(),
        };
        for (at, slot) in table.slots.iter().enumerate() {
            let (link, slots) = (link_of(at), &table.slots[..at]);
            match &slot.row {
                Some(row) => table.index_bytes += index.link(slots, link, &row.values),
                None => index.chains.push_unchained(),
            }
        }
        table.indexes.push(index);
    }

    // ---- reads -----------------------------------------------------------

    /// The store's one read question: the live rows of `pred` inserted no
    /// later than `up_to`, in insertion order — through the index on the
    /// key's columns when a `(key_columns, key)` is given and that index is
    /// installed, by walking the slots otherwise.  The answer says which it
    /// used ([`Candidates::used_index`]).  The evaluator caps every join at
    /// its delta's seq, which keeps batched joins tuple-at-a-time-visible:
    /// a delta row only joins rows inserted no later than itself.
    pub(crate) fn candidates<'a>(
        &'a self,
        pred: PredId,
        key: Option<(&'a [usize], &'a [Value])>,
        up_to: u64,
    ) -> Candidates<'a> {
        let table = self.table(pred);
        let chained = |(columns, key): (&'a [usize], &'a [Value])| {
            let table = table?;
            let chains = &table.index_on(columns)?.chains;
            let at = chains.first(KeyHash::of(key.iter()));
            let (slots, next) = (&table.slots[..], &chains.next[..]);
            Some(Source::Chain {
                at,
                slots,
                next,
                columns,
                key,
            })
        };
        let walk = || Source::Walk(table.map_or(&[][..], |t| &t.slots).iter());
        let source = key.and_then(chained).unwrap_or_else(walk);
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
        key_columns: &'a [usize],
        key: &'a [Value],
    ) -> Option<impl Iterator<Item = (&'a Arc<[Value]>, &'a RowMeta)> + 'a> {
        let rows = self.candidates(pred, Some((key_columns, key)), u64::MAX);
        rows.used_index()
            .then(|| rows.map(|(_, values, meta)| (values, meta)))
    }

    /// All rows of an interned predicate in insertion order: a walk of the
    /// slot list, O(live rows), no sorting.
    pub fn scan_ordered_rows(
        &self,
        pred: PredId,
    ) -> impl Iterator<Item = (&Arc<[Value]>, &RowMeta)> + '_ {
        self.candidates(pred, None, u64::MAX)
            .map(|(_, values, meta)| (values, meta))
    }

    /// [`NodeStore::scan_ordered_rows`] as tuples: each shares the stored
    /// row and the interned name, so a row costs two refcount bumps and no
    /// copy.  Empty for an id this store has not interned.
    pub(crate) fn tuples(&self, pred: PredId) -> impl Iterator<Item = (Tuple, TupleMeta)> + '_ {
        let name = self.preds.shared_name(pred);
        name.into_iter().flat_map(move |name| {
            self.scan_ordered_rows(pred)
                .map(|(values, meta)| (Tuple::new(name.clone(), values.clone()), meta.into()))
        })
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
    pub(crate) fn meta_of(&self, pred: PredId, values: &[Value]) -> Option<&RowMeta> {
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
    pub(crate) fn row_by_seq(&self, pred: PredId, seq: u64) -> Option<(&Arc<[Value]>, &RowMeta)> {
        let row = self.table(pred)?.row(seq)?;
        Some((&row.values, &row.meta))
    }

    /// Removes the live row behind a known seq, returning its shared values
    /// and metadata.  Dedup chains, secondary indexes and the lazily
    /// compacted slot list stay consistent.
    pub fn remove_by_seq(&mut self, pred: PredId, seq: u64) -> Option<(Arc<[Value]>, RowMeta)> {
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
    pub(crate) fn set_tag(&mut self, pred: PredId, seq: u64, tag: ProvTag) -> bool {
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
    pub(crate) fn refresh_row_ttl(
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

    /// Number of live rows of one relation (0 for an unknown id).
    pub(crate) fn live_rows(&self, pred: PredId) -> usize {
        self.table(pred).map_or(0, |t| t.live)
    }

    /// Total number of stored tuples across relations.
    pub fn total_tuples(&self) -> usize {
        self.tables.iter().map(|t| t.live).sum()
    }

    /// Bytes of tuple data proper: the canonical encoding of every stored
    /// row (each row is charged once — indexes share it by reference) plus
    /// one seq (8 bytes) per slot, live or dead, carrying the insertion
    /// order.  Encoding-level accounting, not heap bytes (a slot and its
    /// links take more).  Read off the tables' running totals.
    pub fn store_bytes(&self) -> usize {
        let tables = self.tables.iter().enumerate();
        tables
            .map(|(i, table)| {
                let name = self.preds.name(PredId(i as u32)).unwrap_or("");
                table.row_bytes + table.live * (2 + name.len()) + table.slots.len() * SEQ_BYTES
            })
            .sum()
    }

    /// Bytes of secondary-index overhead: the encoding of every distinct
    /// live index key plus one seq id (8 bytes) per indexed row — what a
    /// seq-addressed index would put on a wire, where keys reference rows
    /// instead of copying them.  Encoding-level accounting, like
    /// [`NodeStore::store_bytes`]: the heap the chains take is neither.
    /// Read off the tables' running totals.
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
                let name = self.preds.shared_name(pred).expect("interned predicate");
                Tuple::new(name.clone(), values)
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
    pub fn take_expired(&mut self, now: SimTime) -> Vec<(PredId, u64, Arc<[Value]>, RowMeta)> {
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
                .is_some_and(|row| row.meta.expires_at().is_some_and(|e| e <= now));
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
    /// seq, the dedup chains hold every live row once, on the chain of its
    /// hash, with no two rows equal, no more slots are dead than compaction
    /// permits (none in an emptied table), every live soft-state row is
    /// covered by the expiry heap, and every secondary index — at most one
    /// per key-column set — chains each live row with its key exactly once,
    /// under its key's hash, in insertion order, through live slots only —
    /// and the running byte gauges equal a from-scratch recount.  Returns a
    /// description of the first inconsistency found.
    pub fn check_index_consistency(&self) -> Result<(), String> {
        for (i, table) in self.tables.iter().enumerate() {
            let pred = self.preds.name(PredId(i as u32)).unwrap_or("?");
            // Slots: strictly ascending, which is both the insertion order
            // and what by-seq binary search relies on.
            if !table.slots.windows(2).all(|w| w[0].seq < w[1].seq) {
                return Err(format!("{pred}: slot list violates insertion order"));
            }
            let live = table.live().count();
            if table.live != live {
                let kept = table.live;
                return Err(format!(
                    "{pred}: live count is {kept}, slot list holds {live}"
                ));
            }
            // Dedup chains ↔ live slots, and no row stored twice.
            let whole_row = |values: &[Value]| Some(KeyHash::of(values.iter()));
            let chains = table.check_chains(&table.by_row, whole_row);
            let chains = chains.map_err(|e| format!("{pred}: dedup {e}"))?;
            for chain in chains {
                let rows: Vec<&[Value]> = chain.iter().map(|&at| table.values_at(at)).collect();
                if (1..rows.len()).any(|n| rows[..n].contains(&rows[n])) {
                    return Err(format!("{pred}: a row is stored twice: {rows:?}"));
                }
            }
            // Bounded dead slots.
            let (len, dead) = (table.slots.len(), table.slots.len() - live);
            let chains = table.indexes.iter().map(|i| i.chains.capacity());
            let held = chains.chain([table.slots.capacity(), table.by_row.capacity()]);
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
                if let Some(expires) = row.meta.expires_at() {
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
            // Indexes: one per key-column set, every in-range live row on
            // the chain of its key; the gauge charges each distinct key once
            // and each chained row one seq.
            let mut index_recount = 0;
            for (n, index) in table.indexes.iter().enumerate() {
                let key_columns = &index.key_columns;
                if table.indexes[..n]
                    .iter()
                    .any(|i| i.key_columns == *key_columns)
                {
                    return Err(format!("{pred}: two indexes on {key_columns:?}"));
                }
                let chains = table.check_chains(&index.chains, |values| index.key_hash(values));
                let chains =
                    chains.map_err(|e| format!("{pred}: index on {key_columns:?}: {e}"))?;
                for chain in chains {
                    let rows: Vec<&[Value]> = chain.iter().map(|&at| table.values_at(at)).collect();
                    let same_key =
                        |a: &[Value], b: &[Value]| key_columns.iter().all(|&c| a[c] == b[c]);
                    for (m, row) in rows.iter().enumerate() {
                        index_recount += SEQ_BYTES;
                        if !rows[..m].iter().any(|earlier| same_key(earlier, row)) {
                            index_recount += index.key_bytes(row);
                        }
                    }
                }
            }
            if index_recount != table.index_bytes {
                let kept = table.index_bytes;
                return Err(format!(
                    "{pred}: index gauge holds {kept} B, chains hold {index_recount} B"
                ));
            }
        }
        Ok(())
    }
}

impl Table {
    /// The values of the live slot at `at` (a checked chain's member).
    fn values_at(&self, at: u32) -> &[Value] {
        self.slots[at as usize]
            .row
            .as_ref()
            .map_or(&[][..], |row| &row.values[..])
    }

    /// Walks every chain of `chains` and returns them, checking that there
    /// is one link per slot; that each chain is non-empty, ascends through
    /// live slots whose `key` is the chain's hash, and ends at its recorded
    /// tail; and that every live slot with a key is on exactly one chain and
    /// every other slot on none, with no link.
    fn check_chains(
        &self,
        chains: &Chains,
        key: impl Fn(&[Value]) -> Option<KeyHash>,
    ) -> Result<Vec<Vec<u32>>, String> {
        let len = self.slots.len();
        if chains.next.len() != len {
            let links = chains.next.len();
            return Err(format!("has {links} links for {len} slots"));
        }
        let mut on_chain = vec![false; len];
        let mut walked = Vec::with_capacity(chains.ends.len());
        for (&hash, &(first, last)) in &chains.ends {
            let mut chain: Vec<u32> = Vec::new();
            let mut at = first;
            while at != NIL {
                let strays = at as usize >= len || on_chain[at as usize];
                if strays || chain.last().is_some_and(|&prev| prev >= at) {
                    return Err(format!("chain {chain:?} strays or loops at slot {at}"));
                }
                let row = self.slots[at as usize].row.as_ref();
                if row.and_then(|row| key(&row.values)) != Some(hash) {
                    return Err(format!(
                        "chain {chain:?} reaches a dead or foreign slot {at}"
                    ));
                }
                on_chain[at as usize] = true;
                chain.push(at);
                at = chains.next[at as usize];
            }
            if chain.last() != Some(&last) {
                return Err(format!("chain {chain:?} does not end at its tail {last}"));
            }
            walked.push(chain);
        }
        for (at, slot) in self.slots.iter().enumerate() {
            let keyed = slot.row.as_ref().and_then(|row| key(&row.values)).is_some();
            if keyed != on_chain[at] || (!keyed && chains.next[at] != NIL) {
                return Err(format!("slot {at} is chained wrongly (keyed: {keyed})"));
            }
        }
        Ok(walked)
    }
}

#[cfg(test)]
mod tests;
