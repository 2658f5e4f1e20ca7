//! Network dynamics: scripted churn and the provenance-guided deletion
//! ledger.
//!
//! PASN's protocols are meant to run *continuously*: derived tuples are soft
//! state that dies unless re-derived, links and nodes come and go, and the
//! system reconciles its derived state against the changing inputs (the same
//! shape as log-based reconciliation of replicated state).  This module
//! supplies the two pieces the evaluator needs for that:
//!
//! * [`ChurnScript`] / [`ChurnEvent`] — a deterministic, timestamped event
//!   script (link flaps, node failures and rejoins, scripted base-tuple
//!   inserts / retracts / refreshes) that
//!   [`DistributedEngine::run_scenario`](crate::DistributedEngine::run_scenario)
//!   schedules through the discrete-event simulator as first-class work, so
//!   churn interleaves with evaluation on the simulated clock;
//! * `Ledger` — the per-node record that makes deletion *provenance
//!   exact*: one `SupportEntry` per stored tuple listing its derivation
//!   events (base assertions plus rule firings, each with the semiring tag
//!   it contributed), and one `FiringRecord` per rule firing linking the
//!   antecedent rows (by store insertion seq) to the head tuple it produced
//!   — two arenas per node, indexed by chains threaded through them.
//!   Retracting a tuple consumes one support; a tuple whose supports are
//!   exhausted is removed and its recorded firings are replayed as
//!   deletions — locally or as signed tombstone frames — so exactly what an
//!   insertion added is withdrawn, nothing more.
//!
//! Support counting alone over-retains under *recursive* rules (two tuples
//! can keep each other alive through a cycle of firings with no base
//! support left — the classic counting-algorithm limitation).  The engine
//! closes that hole with a well-founded reconciliation sweep once a
//! retraction wave drains: tuples not reachable from base support through
//! alive firings are garbage-collected (see
//! `DistributedEngine::well_founded_sweep`).
//!
//! The firing log is a log *suffix*, not a history: once a retraction
//! cascade has settled, the only firings that can affect a future
//! reconciliation are the alive ones (the log-suffix observation of
//! log-based reconciliation), so `Ledger::reclaim` drops both arenas and
//! both indexes as soon as none of a node's firings is alive — a dead
//! generation's memory goes back whole.  A node that keeps some firing
//! alive keeps its dead records too until the last one dies (compacting a
//! half-dead log in place is an open `ROADMAP.md` item, waiting for a
//! workload that measures it).  Dropping the log restarts firing ids at
//! zero, and a cascade carries raw ids across its steps (`settle_removed`
//! → `silence_upstream` → `settle_agg_kill`), so it never runs inside one:
//! the engine reclaims, at the nodes a work item killed at, only after
//! that work item has finished.  `retracted` (the `rederivations`
//! counter's memory) and the provenance archives stay history by design.

use crate::hash::{FastMap, FastSet};
use crate::tuple::Tuple;
use pasn_datalog::{AggFunc, PredId, Value};
use pasn_net::{NodeId, SimTime};
use pasn_provenance::ProvTag;
use std::hash::Hash;
use std::sync::Arc;

/// One scripted network-dynamics event.
#[derive(Clone, Debug, PartialEq)]
pub enum ChurnEvent {
    /// A directed link comes up: a `link(src, dst)` base tuple (with `cost`
    /// appended when the deployment uses weighted links) is asserted at
    /// `src`.
    LinkUp {
        /// Link source (also the asserting location).
        src: Value,
        /// Link destination.
        dst: Value,
        /// Link cost for three-attribute `link` relations; `None` for the
        /// two-attribute reachability form.
        cost: Option<i64>,
    },
    /// A directed link goes down: every `link(src, dst, ...)` base tuple
    /// stored at `src` is retracted (cascading through everything derived
    /// from it) and the link's session channel — if one is bound — is
    /// evicted on both ends, so a returning link rebinds with a fresh
    /// epoch.
    LinkDown {
        /// Link source.
        src: Value,
        /// Link destination.
        dst: Value,
    },
    /// A directed link is cut *without drain* (the crash-without-drain
    /// counterpart of [`ChurnEvent::LinkDown`]): every frame in flight on
    /// `src → dst` is discarded, its session channel is evicted immediately
    /// (both epoch floors rise, so a later rebind starts a fresh epoch),
    /// the engine's ledger reconciliation withdraws exactly the supports
    /// whose carrier frames died, and the `link(src, dst, ...)` base tuples
    /// are retracted.  Only meaningful with a fault plan installed — a
    /// reliable transport discards nothing, so this degenerates to
    /// [`ChurnEvent::LinkDown`], whose channel teardown waits for the
    /// frames still in flight.
    LinkCut {
        /// Link source.
        src: Value,
        /// Link destination.
        dst: Value,
    },
    /// A node crash-stops *without drain*: every link touching it is cut as
    /// by [`ChurnEvent::LinkCut`] (in-flight frames in both directions are
    /// discarded and channels evicted immediately), then its base tuples
    /// are withdrawn and remembered for a later
    /// [`ChurnEvent::NodeRejoin`], as under [`ChurnEvent::NodeFail`].
    NodeCrash {
        /// The crashing location.
        node: Value,
    },
    /// A node crash-stops: every base tuple it asserted is withdrawn (the
    /// network-visible effect of the node no longer refreshing its
    /// advertisements), remembered for a later rejoin, and every session
    /// channel touching the node is evicted.
    NodeFail {
        /// The failing location.
        node: Value,
    },
    /// A previously failed node rejoins: the base tuples remembered at its
    /// failure are re-asserted and evaluation re-derives from them.
    NodeRejoin {
        /// The rejoining location.
        node: Value,
    },
    /// Assert an arbitrary base tuple at `location`.
    Insert {
        /// Home location of the tuple.
        location: Value,
        /// The base tuple to assert.
        tuple: Tuple,
    },
    /// Withdraw one assertion of a base tuple at `location` (a tuple
    /// asserted more than once loses one support; the last withdrawal
    /// removes it and cascades).
    Retract {
        /// Home location of the tuple.
        location: Value,
        /// The base tuple to retract.
        tuple: Tuple,
    },
    /// Refresh the soft-state TTL of a stored tuple at `location` to the
    /// event time plus the configured default TTL (a no-op for hard state
    /// or when no default TTL is configured).
    Refresh {
        /// Location storing the tuple.
        location: Value,
        /// The tuple whose lifetime to extend.
        tuple: Tuple,
    },
}

/// A deterministic, timestamped script of [`ChurnEvent`]s — the dynamics
/// analogue of a topology: same script, same seed, same run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ChurnScript {
    events: Vec<(SimTime, ChurnEvent)>,
}

impl ChurnScript {
    /// An empty script (running it degenerates to a plain fixpoint run with
    /// the dynamics machinery armed).
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `event` at `at_us` microseconds of simulated time.
    pub fn at(mut self, at_us: u64, event: ChurnEvent) -> Self {
        self.events.push((SimTime::from_micros(at_us), event));
        self
    }

    /// Convenience: an unweighted link comes up at `at_us`.
    pub fn link_up(self, at_us: u64, src: Value, dst: Value) -> Self {
        self.at(
            at_us,
            ChurnEvent::LinkUp {
                src,
                dst,
                cost: None,
            },
        )
    }

    /// Convenience: a link goes down at `at_us`.
    pub fn link_down(self, at_us: u64, src: Value, dst: Value) -> Self {
        self.at(at_us, ChurnEvent::LinkDown { src, dst })
    }

    /// Convenience: a node fails at `at_us`.
    pub fn node_fail(self, at_us: u64, node: Value) -> Self {
        self.at(at_us, ChurnEvent::NodeFail { node })
    }

    /// Convenience: a node rejoins at `at_us`.
    pub fn node_rejoin(self, at_us: u64, node: Value) -> Self {
        self.at(at_us, ChurnEvent::NodeRejoin { node })
    }

    /// The scheduled events, in script order (the engine orders ties at one
    /// timestamp by script position).
    pub fn events(&self) -> &[(SimTime, ChurnEvent)] {
        &self.events
    }
}

/// One contribution to a stored tuple's support: whether it came from a
/// base assertion, the semiring tag it merged in, and the node that said it.
pub(crate) struct Contribution {
    pub is_base: bool,
    pub tag: ProvTag,
    pub speaker: NodeId,
}

/// Identity of a firing's head tuple: `(destination, predicate, row)`.
pub(crate) type HeadKey = (NodeId, PredId, Arc<[Value]>);

/// A base-asserted row: predicate plus shared values.
pub(crate) type BaseRow = (PredId, Arc<[Value]>);

/// The support record of one stored tuple (keyed by its store insertion
/// seq): the tag each alive derivation event (base assertion or rule
/// firing) contributed, so a surviving tuple's tag is exactly the semiring
/// sum of the remaining ones.  Support and base counts are read off `tags`.
pub(crate) struct SupportEntry {
    /// The tuple's predicate (needed to address the store by seq).
    pub pred: PredId,
    /// One entry per alive contribution, in arrival order.
    pub tags: Vec<Contribution>,
    /// Location column of the tuple (renders provenance keys on deletion).
    pub location: Column,
}

/// The aggregate identity of one recorded candidate firing: which group's
/// election it entered, and with what value.  Candidate firings are
/// recorded whether or not they moved the group's value, so the deletion
/// ledger can re-elect from the surviving candidates when one dies.
#[derive(Clone, Debug)]
pub(crate) struct AggFiring {
    /// Engine-interned rule id — first component of the group key.
    pub rule: u32,
    /// Grouping columns (the head row minus the aggregated column).
    pub group: Vec<Value>,
    /// The candidate's aggregate value.
    pub value: i64,
    /// Index of the aggregated column in the head row.
    pub agg_index: usize,
    /// The function whose value of the candidate multiset the group emits.
    pub func: AggFunc,
}

impl AggFiring {
    /// `head` — a row of this candidate's group — with the aggregated
    /// column set to `value`.
    pub(crate) fn row_with(&self, head: &[Value], value: i64) -> Arc<[Value]> {
        let mut values = head.to_vec();
        values[self.agg_index] = Value::Int(value);
        Arc::from(values)
    }
}

/// Whether a group's row under `func` is every live candidate's
/// (`a_COUNT`, `a_SUM`) rather than one winner's (`a_MIN`, `a_MAX`).  Such
/// a candidate heads no row of its own: the row it feeds is whatever its
/// group emits now.
pub(crate) fn pools(func: AggFunc) -> bool {
    matches!(func, AggFunc::Count | AggFunc::Sum)
}

/// The end of an index chain.
const NIL: u32 = u32::MAX;

/// An antecedent occurrence: `firing` read row `seq`; `next` is the seq's next.
struct Occurrence {
    seq: u64,
    firing: u32,
    next: u32,
}

/// One recorded rule firing at the deriving node: the head tuple it emitted,
/// the tag it contributed, and its antecedent rows (by local insertion seq)
/// in the occurrence arena.  Replaying it with opposite polarity is deletion.
pub(crate) struct FiringRecord {
    /// False once any antecedent died (each firing contributes — and is
    /// withdrawn — exactly once, however many of its antecedents die).
    /// Cleared through [`Ledger::kill`] only, which counts the dead.
    pub alive: bool,
    /// Node the head tuple was routed to.
    pub dest: NodeId,
    /// Head predicate.
    pub pred: PredId,
    /// Head row.
    pub values: Arc<[Value]>,
    /// Tag the firing contributed to the head (the antecedent-tag product
    /// at firing time).
    pub tag: ProvTag,
    /// Head location column (renders provenance keys on deletion).
    pub location: Column,
    /// `Some` when this firing is an aggregate candidate (dynamics only):
    /// killing it removes the candidate from its group's election instead
    /// of routing a withdrawal directly (only the group's *emitted* row is
    /// ever withdrawn, and only when the surviving candidates' value
    /// differs from it).
    pub agg: Option<Box<AggFiring>>,
    /// Arena links: first antecedent occurrence, next firing on the head chain.
    first: u32,
    next_same_head: u32,
}

impl FiringRecord {
    /// Whether `(dest, pred, values)` is the row this firing supports —
    /// false for a pooled aggregate candidate (see [`pools`]).
    pub(crate) fn heads_a_row(&self) -> bool {
        !self.agg.as_ref().is_some_and(|agg| pools(agg.func))
    }
}

/// Appends link `at` to `key`'s chain; returns the old tail, to point at it.
fn append<K: Hash + Eq>(index: &mut FastMap<K, (u32, u32)>, key: K, at: u32) -> Option<u32> {
    let last = std::mem::replace(&mut index.entry(key).or_insert((at, NIL)).1, at);
    (last != NIL).then_some(last)
}

/// A row's location column in four bytes, `NIL` when it has none.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Column(u32);

impl Column {
    fn new(index: Option<usize>) -> Self {
        Column(index.map_or(NIL, |i| u32::try_from(i).expect("a row fits in memory")))
    }

    /// The column's index, if the row has one.
    pub fn index(self) -> Option<usize> {
        (self.0 != NIL).then_some(self.0 as usize)
    }
}

/// Per-node deletion ledger: supports for stored rows, the firing log, and
/// the indexes the cascade and the well-founded sweep walk.  Maintained
/// only when dynamics are enabled — static runs pay nothing.  The log is two
/// arenas (firings, antecedent occurrences) and the indexes are chains
/// through them: recording a firing allocates nothing of its own.
#[derive(Default)]
pub(crate) struct Ledger {
    /// Recorded firings in firing order, alive and dead, since the log was
    /// last dropped by [`Ledger::reclaim`].  An index into this list is
    /// valid only until the next `reclaim`.
    pub firings: Vec<FiringRecord>,
    /// The firings' antecedent seqs, one per occurrence, in firing order.
    occurrences: Vec<Occurrence>,
    /// First and last occurrence of each antecedent seq, chained through
    /// `occurrences` (a self-join lists its firing twice; `kill` dedups).
    by_antecedent: FastMap<u64, (u32, u32)>,
    /// First and last firing of each head, chained through `next_same_head`,
    /// for force-kills (expiry, node failure) that silence upstream firings
    /// without decrementing; pooled candidates head no row and are not listed.
    by_head: FastMap<HeadKey, (u32, u32)>,
    /// Support entries for every live stored row, by insertion seq; the
    /// base-supported ones are what a node failure withdraws.
    pub supports: FastMap<u64, SupportEntry>,
    /// Rows ever retracted at this node, for the `rederivations` counter.
    pub retracted: FastSet<BaseRow>,
    /// How many of `firings` are dead ([`Ledger::kill`] counts them).
    dead: usize,
}

impl Ledger {
    /// Appends one alive firing of `head` to the log and chains it onto the
    /// index of every antecedent seq (once per occurrence) and of its head.
    pub(crate) fn record_firing(
        &mut self,
        (dest, pred, values): HeadKey,
        tag: ProvTag,
        location_index: Option<usize>,
        agg: Option<AggFiring>,
        antecedents: impl IntoIterator<Item = u64>,
    ) {
        let id = |len: usize| u32::try_from(len).expect("fewer than 2^32 entries per log");
        let (firing, first) = (id(self.firings.len()), id(self.occurrences.len()));
        for (seq, at) in antecedents.into_iter().zip(first..) {
            let next = NIL;
            self.occurrences.push(Occurrence { seq, firing, next });
            if let Some(last) = append(&mut self.by_antecedent, seq, at) {
                self.occurrences[last as usize].next = at;
            }
        }
        let head = (dest, pred, values.clone());
        let record = FiringRecord {
            alive: true,
            dest,
            pred,
            values,
            tag,
            location: Column::new(location_index),
            agg: agg.map(Box::new),
            first,
            next_same_head: NIL,
        };
        if record.heads_a_row() {
            if let Some(last) = append(&mut self.by_head, head, firing) {
                self.firings[last as usize].next_same_head = firing;
            }
        }
        self.firings.push(record);
    }

    /// Marks firing `idx` dead; false if it already was.  The only place a
    /// firing dies, so the dead count stays exact.
    pub(crate) fn kill(&mut self, idx: u32) -> bool {
        let firing = &mut self.firings[idx as usize];
        let was_alive = std::mem::replace(&mut firing.alive, false);
        self.dead += usize::from(was_alive);
        was_alive
    }

    /// The antecedent seqs of firing `idx`, in body order.
    pub(crate) fn antecedents(&self, idx: u32) -> impl Iterator<Item = u64> + '_ {
        let rest = &self.occurrences[self.firings[idx as usize].first as usize..];
        let own = rest.iter().take_while(move |o| o.firing == idx);
        own.map(|o| o.seq)
    }

    /// The firings reading the row at `seq`, in firing order, per occurrence.
    pub(crate) fn readers(&self, seq: u64) -> impl Iterator<Item = u32> + '_ {
        let occurrence = |at: u32| self.occurrences.get(at as usize);
        let first = self.by_antecedent.get(&seq).and_then(|e| occurrence(e.0));
        std::iter::successors(first, move |o| occurrence(o.next)).map(|o| o.firing)
    }

    /// Unlinks the readers of `seq`, for a caller that kills them all.
    pub(crate) fn take_readers(&mut self, seq: u64) -> Vec<u32> {
        let ids = self.readers(seq).collect();
        self.by_antecedent.remove(&seq);
        ids
    }

    /// The firings heading row `head` in firing order (no pooled candidate).
    pub(crate) fn heading(&self, head: &HeadKey) -> impl Iterator<Item = u32> + '_ {
        let next = |&i: &u32| Some(self.firings[i as usize].next_same_head).filter(|&n| n != NIL);
        std::iter::successors(self.by_head.get(head).map(|ends| ends.0), next)
    }

    /// Unlinks the firings heading `head`, for a caller that kills them all.
    pub(crate) fn take_heading(&mut self, head: &HeadKey) -> Vec<u32> {
        let ids = self.heading(head).collect();
        self.by_head.remove(head);
        ids
    }

    /// Forgets a fully dead log: with no firing alive, both arenas and both
    /// indexes are dropped outright, and an emptied `supports` map goes back
    /// to the allocator too.  True if the log was dropped — firing ids then
    /// restart at zero, so callers must hold none (see the module docs).
    pub(crate) fn reclaim(&mut self) -> bool {
        if self.supports.is_empty() {
            self.supports = FastMap::default();
        }
        let drop_log = self.dead > 0 && self.dead == self.firings.len();
        if drop_log {
            self.firings = Vec::new();
            self.occurrences = Vec::new();
            self.by_antecedent = FastMap::default();
            self.by_head = FastMap::default();
            self.dead = 0;
        }
        drop_log
    }

    /// Verifies the ledger's internal references: the dead count equals a
    /// recount; every chain is non-empty, acyclic and names in-range firings
    /// that read its seq / carry its head; every alive firing is on its
    /// antecedents' chains (once per occurrence) and, if it heads a row, on
    /// its head's, with a support entry behind each antecedent.  Returns a
    /// description of the first inconsistency.
    pub(crate) fn check_consistency(&self) -> Result<(), String> {
        let dead = self.firings.iter().filter(|f| !f.alive).count();
        if dead != self.dead {
            return Err(format!("dead count {} but {dead} dead firings", self.dead));
        }
        // A chain that outgrows the arenas it threads is a cycle.
        let bound = self.occurrences.len() + self.firings.len() + 1;
        type Chain<'a> = &'a mut dyn Iterator<Item = u32>;
        let check_chain = |key: &dyn std::fmt::Debug, chain: Chain, keyed: &dyn Fn(u32) -> bool| {
            let ids: Vec<u32> = chain.take(bound).collect();
            let firing = |&idx: &u32| (idx as usize) < self.firings.len() && keyed(idx);
            let sound = !ids.is_empty() && ids.len() < bound && ids.iter().all(firing);
            let why = || format!("chain of {key:?} is empty, cyclic or strays: {ids:?}");
            sound.then_some(()).ok_or_else(why)
        };
        for &seq in self.by_antecedent.keys() {
            let reads = |idx| self.antecedents(idx).any(|a| a == seq);
            check_chain(&seq, &mut self.readers(seq), &reads)?;
        }
        for head in self.by_head.keys() {
            let heads = |idx: u32| {
                let f = &self.firings[idx as usize];
                f.heads_a_row() && (f.dest, f.pred, &f.values) == (head.0, head.1, &head.2)
            };
            check_chain(head, &mut self.heading(head), &heads)?;
        }
        for (idx, f) in (0..).zip(&self.firings).filter(|(_, f)| f.alive) {
            let listed = |chain: Chain| chain.take(bound).filter(|&i| i == idx).count();
            let supported = self.antecedents(idx).all(|seq| {
                let occurrences = self.antecedents(idx).filter(|a| *a == seq).count();
                self.supports.contains_key(&seq) && listed(&mut self.readers(seq)) == occurrences
            });
            let head = (f.dest, f.pred, f.values.clone());
            if !supported || listed(&mut self.heading(&head)) != usize::from(f.heads_a_row()) {
                return Err(format!("alive firing {idx} is mis-indexed or unsupported"));
            }
        }
        Ok(())
    }

    /// The seqs and predicates of base-supported rows, in insertion order.
    pub(crate) fn base_seqs(&self) -> std::vec::IntoIter<(u64, PredId)> {
        let is_base = |e: &SupportEntry| e.tags.iter().any(|c| c.is_base);
        let base = |(seq, e): (&u64, &SupportEntry)| is_base(e).then_some((*seq, e.pred));
        let mut seqs: Vec<(u64, PredId)> = self.supports.iter().filter_map(base).collect();
        seqs.sort_unstable();
        seqs.into_iter()
    }

    /// Records one arriving contribution for the row at `seq`.
    pub(crate) fn record_arrival(
        &mut self,
        seq: u64,
        pred: PredId,
        contribution: Contribution,
        location_index: Option<usize>,
    ) {
        let entry = self.supports.entry(seq).or_insert_with(|| SupportEntry {
            pred,
            tags: Vec::new(),
            location: Column::new(location_index),
        });
        entry.tags.push(contribution);
    }
}

const _: () = assert!(std::mem::size_of::<FiringRecord>() <= 64);
const _: () = assert!(std::mem::size_of::<SupportEntry>() <= 32);

#[cfg(test)]
mod tests {
    use super::*;

    fn v(s: &str) -> Value {
        Value::Str(s.into())
    }

    #[test]
    fn scripts_accumulate_events_in_order() {
        let script = ChurnScript::new()
            .link_down(1_000, v("a"), v("b"))
            .link_up(2_000, v("a"), v("b"))
            .node_fail(3_000, v("c"))
            .node_rejoin(4_000, v("c"))
            .at(
                5_000,
                ChurnEvent::Insert {
                    location: v("a"),
                    tuple: Tuple::new("sensor", vec![Value::Int(1)]),
                },
            );
        assert_eq!(script.events().len(), 5);
        assert_eq!(script.events()[0].0, SimTime::from_micros(1_000));
        assert!(matches!(
            script.events()[1].1,
            ChurnEvent::LinkUp { cost: None, .. }
        ));
        assert!(matches!(script.events()[2].1, ChurnEvent::NodeFail { .. }));
        assert!(ChurnScript::new().events().is_empty());
    }

    /// An untagged contribution said by node 0.
    fn said(is_base: bool) -> Contribution {
        Contribution {
            is_base,
            tag: ProvTag::None,
            speaker: NodeId(0),
        }
    }

    /// Head `i` of the test ledgers: a one-column row at node 0.
    fn head(i: i64) -> HeadKey {
        (NodeId(0), PredId(1), Arc::from(vec![Value::Int(i)]))
    }

    /// A ledger of `n` firings: firing `i` (remembered in its location
    /// column) joins rows `i / 2` and `1000 + i % 4` into one of 16 heads,
    /// so every chain is shared.
    fn ledger_of(n: usize) -> Ledger {
        let mut ledger = Ledger::default();
        for i in 0..n {
            let antecedents = [i as u64 / 2, 1000 + i as u64 % 4];
            for seq in antecedents {
                ledger.record_arrival(seq, PredId(0), said(true), None);
            }
            let firing = head(i as i64 % 16);
            ledger.record_firing(firing, ProvTag::None, Some(i), None, antecedents);
        }
        ledger
    }

    #[test]
    fn reclaim_drops_a_dead_ledger_whole_and_nothing_before() {
        let mut ledger = ledger_of(128);
        ledger.check_consistency().unwrap();
        // A scattered two thirds dead: the log stays, ids and chains as
        // they were.
        assert!((0..128).filter(|i| i % 3 != 0).all(|i| ledger.kill(i)));
        assert!(!ledger.kill(1), "a firing dies once");
        assert!(!ledger.reclaim());
        ledger.check_consistency().unwrap();
        let built = |f: &FiringRecord| f.location.index().unwrap();
        assert!(ledger.firings.iter().map(built).eq(0..128));
        assert!(ledger.readers(1000).eq((0..128).step_by(4)));
        assert!(ledger.heading(&head(3)).eq((3..128).step_by(16)));
        assert!(ledger.antecedents(5).eq([2, 1001]));
        // Nothing alive: both arenas and both indexes are dropped outright,
        // and an emptied `supports` with them.
        assert!((0..128).step_by(3).all(|i| ledger.kill(i)));
        ledger.supports.clear();
        assert!(ledger.reclaim());
        ledger.check_consistency().unwrap();
        assert_eq!(ledger.firings.capacity() + ledger.occurrences.capacity(), 0);
        assert_eq!(
            ledger.by_antecedent.capacity() + ledger.by_head.capacity(),
            0
        );
        assert_eq!(ledger.supports.capacity(), 0);
        assert!(!ledger.reclaim(), "an empty log has nothing to drop");
        // The next firing starts the ids over.
        ledger.record_arrival(7, PredId(0), said(true), None);
        ledger.record_firing(head(0), ProvTag::None, None, None, [7]);
        ledger.check_consistency().unwrap();
        assert!(ledger.readers(7).eq([0]));
        assert!(ledger.heading(&head(0)).eq([0]));
    }

    #[test]
    fn ledger_tracks_supports() {
        let mut ledger = Ledger::default();
        let pred = PredId(0);
        ledger.record_arrival(7, pred, said(true), Some(0));
        ledger.record_arrival(7, pred, said(false), Some(0));
        ledger.record_arrival(8, pred, said(false), None);
        let entry = &ledger.supports[&7];
        let base = entry.tags.iter().filter(|c| c.is_base).count();
        assert_eq!((entry.tags.len(), base), (2, 1));
        assert_eq!((entry.pred, entry.location.index()), (pred, Some(0)));
        assert!(ledger.base_seqs().eq([(7, pred)]));
    }

    /// The chained indexes against a naive model: one list of firing ids
    /// per antecedent seq and per head, appended to on every firing and
    /// removed whole by a take.  Random interleavings of firings over a few
    /// seqs (so self-joins are common), kills, takes and reclaims; after
    /// each step every seq's readers, every head's firings and every
    /// firing's antecedents agree with the model, and the ledger checks.
    mod chains {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeMap;

        const SEQS: u64 = 5;
        const HEADS: i64 = 3;

        #[derive(Default)]
        struct Model {
            antecedents: Vec<Vec<u64>>,
            alive: Vec<bool>,
            by_antecedent: BTreeMap<u64, Vec<u32>>,
            by_head: BTreeMap<HeadKey, Vec<u32>>,
        }

        /// A pooled `a_COUNT` candidate: heads no row of its own.
        fn pooled() -> AggFiring {
            AggFiring {
                rule: 0,
                group: Vec::new(),
                value: 1,
                agg_index: 0,
                func: AggFunc::Count,
            }
        }

        fn step(ledger: &mut Ledger, model: &mut Model, word: u64) {
            let (op, arg) = (word % 8, word >> 3);
            let firings = model.alive.len() as u64;
            match op {
                0..=3 => {
                    let arity = arg % 4;
                    let seqs: Vec<u64> = (0..arity).map(|k| (arg >> (2 + 3 * k)) % SEQS).collect();
                    let row = head((arg >> 16) as i64 % HEADS);
                    let agg = (arg >> 20) % 5 == 0;
                    let idx = firings as u32;
                    for &seq in &seqs {
                        model.by_antecedent.entry(seq).or_default().push(idx);
                    }
                    if !agg {
                        model.by_head.entry(row.clone()).or_default().push(idx);
                    }
                    model.antecedents.push(seqs.clone());
                    model.alive.push(true);
                    let agg = agg.then(pooled);
                    ledger.record_firing(row, ProvTag::None, None, agg, seqs);
                }
                4 if firings > 0 => {
                    let idx = (arg % firings) as u32;
                    let was = std::mem::replace(&mut model.alive[idx as usize], false);
                    assert_eq!(ledger.kill(idx), was);
                }
                5 | 6 => {
                    // A take hands its caller every firing on the chain,
                    // and the caller kills them all.
                    let ids = match op {
                        5 => {
                            let seq = arg % SEQS;
                            let ids = ledger.take_readers(seq);
                            let listed = model.by_antecedent.remove(&seq);
                            assert_eq!(ids, listed.unwrap_or_default());
                            ids
                        }
                        _ => {
                            let row = head(arg as i64 % HEADS);
                            let ids = ledger.take_heading(&row);
                            assert_eq!(ids, model.by_head.remove(&row).unwrap_or_default());
                            ids
                        }
                    };
                    for idx in ids {
                        ledger.kill(idx);
                        model.alive[idx as usize] = false;
                    }
                }
                7 => {
                    let drop = firings > 0 && model.alive.iter().all(|alive| !alive);
                    assert_eq!(ledger.reclaim(), drop);
                    if drop {
                        *model = Model::default();
                    }
                }
                _ => {}
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn chains_agree_with_a_list_per_key(words in prop::collection::vec(any::<u64>(), 1..120)) {
                let mut ledger = Ledger::default();
                for seq in 0..SEQS {
                    ledger.record_arrival(seq, PredId(0), said(true), None);
                }
                let mut model = Model::default();
                for word in words {
                    step(&mut ledger, &mut model, word);
                    ledger.check_consistency().unwrap();
                    for seq in 0..SEQS {
                        let listed = model.by_antecedent.get(&seq).map_or(&[][..], Vec::as_slice);
                        prop_assert!(ledger.readers(seq).eq(listed.iter().copied()));
                    }
                    for i in 0..HEADS {
                        let listed = model.by_head.get(&head(i)).map_or(&[][..], Vec::as_slice);
                        prop_assert!(ledger.heading(&head(i)).eq(listed.iter().copied()));
                    }
                    for (idx, seqs) in (0..).zip(&model.antecedents) {
                        prop_assert!(ledger.antecedents(idx).eq(seqs.iter().copied()));
                        prop_assert_eq!(ledger.firings[idx as usize].alive, model.alive[idx as usize]);
                    }
                }
            }
        }
    }
}
