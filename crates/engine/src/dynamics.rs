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
//! * [`Ledger`] — the per-node record that makes deletion *provenance
//!   exact*: one [`SupportEntry`] per stored tuple counting its derivation
//!   events (base assertions plus rule firings, each with the semiring tag
//!   it contributed), and one [`FiringRecord`] per rule firing linking the
//!   antecedent rows (by store insertion seq) to the head tuple it produced.
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
//! log-based reconciliation), so [`Ledger::reclaim`] drops the log and both
//! its indexes as soon as none of a node's firings is alive — a dead
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
    /// are retracted.  Only meaningful with a fault plan installed — on a
    /// reliable transport nothing is ever in flight at churn time and this
    /// degenerates to [`ChurnEvent::LinkDown`].
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

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if no events are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
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
/// seq): how many derivation events currently sustain it, how many of those
/// are base assertions, and the tag each contributed — so a surviving
/// tuple's tag can be recomputed exactly as the semiring sum of the
/// remaining contributions.
pub(crate) struct SupportEntry {
    /// The tuple's predicate (needed to address the store by seq).
    pub pred: PredId,
    /// Alive derivation events (base assertions + rule firings).
    pub count: u64,
    /// How many of `count` are base assertions.
    pub base_count: u64,
    /// One entry per alive contribution, in arrival order.
    pub tags: Vec<Contribution>,
    /// Location column of the tuple (for rendering provenance keys on
    /// deletion).
    pub location_index: Option<usize>,
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
    pub fn row_with(&self, head: &[Value], value: i64) -> Arc<[Value]> {
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

/// One recorded rule firing at the deriving node: the antecedent rows (by
/// local insertion seq) and the head tuple the firing emitted, with the tag
/// it contributed.  Replaying the record with opposite polarity is the
/// deletion cascade.
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
    /// Head location column (for rendering provenance keys on deletion).
    pub location_index: Option<usize>,
    /// Antecedent rows by local insertion seq.
    pub antecedents: Vec<u64>,
    /// `Some` when this firing is an aggregate candidate (dynamics only):
    /// killing it removes the candidate from its group's election instead
    /// of routing a withdrawal directly (only the group's *emitted* row is
    /// ever withdrawn, and only when the surviving candidates' value
    /// differs from it).
    pub agg: Option<AggFiring>,
}

impl FiringRecord {
    /// Whether `(dest, pred, values)` is the row this firing supports —
    /// false for a pooled aggregate candidate (see [`pools`]).
    pub fn heads_a_row(&self) -> bool {
        !self.agg.as_ref().is_some_and(|agg| pools(agg.func))
    }
}

/// Per-node deletion ledger: supports for stored rows, the firing log, and
/// the indexes the cascade and the well-founded sweep walk.  Maintained
/// only when dynamics are enabled — static runs pay nothing.
#[derive(Default)]
pub(crate) struct Ledger {
    /// Recorded firings in firing order, alive and dead, since the log was
    /// last dropped by [`Ledger::reclaim`].  An index into this list is
    /// valid only until the next `reclaim`.
    pub firings: Vec<FiringRecord>,
    /// Firings by antecedent seq (a seq appears once per occurrence, so a
    /// self-join lists its firing twice; the `alive` flag dedups the kill).
    pub by_antecedent: FastMap<u64, Vec<u32>>,
    /// Firings by head identity, for force-kills (expiry, node failure)
    /// that must silence upstream contributions without decrementing.
    /// Pooled aggregate candidates head no row of their own and are not
    /// listed.
    pub by_head: FastMap<HeadKey, Vec<u32>>,
    /// Support entries for every live stored row, by insertion seq.  The
    /// entries with `base_count > 0` are the node's base-asserted rows (what
    /// a node failure withdraws and a rejoin restores).
    pub supports: FastMap<u64, SupportEntry>,
    /// Rows ever retracted at this node, for the `rederivations` counter.
    pub retracted: FastSet<BaseRow>,
    /// How many of `firings` are dead ([`Ledger::kill`] counts them).
    dead: usize,
}

impl Ledger {
    /// Appends one firing to the log and indexes it by every antecedent seq
    /// and by its head.
    pub fn record_firing(&mut self, firing: FiringRecord) {
        let idx = u32::try_from(self.firings.len())
            .expect("a node records fewer than u32::MAX firings between two drops of its log");
        for seq in &firing.antecedents {
            self.by_antecedent.entry(*seq).or_default().push(idx);
        }
        if firing.heads_a_row() {
            let head = (firing.dest, firing.pred, firing.values.clone());
            self.by_head.entry(head).or_default().push(idx);
        }
        self.firings.push(firing);
    }

    /// Marks firing `idx` dead; false if it already was.  The only place a
    /// firing dies, so the dead count stays exact.
    pub fn kill(&mut self, idx: u32) -> bool {
        let firing = &mut self.firings[idx as usize];
        let was_alive = std::mem::replace(&mut firing.alive, false);
        self.dead += usize::from(was_alive);
        was_alive
    }

    /// Forgets a fully dead log: with no firing alive, the log and both
    /// indexes are dropped outright, and an emptied `supports` map goes back
    /// to the allocator too.  True if the log was dropped — firing ids then
    /// restart at zero, so callers must hold none (see the module docs).
    pub fn reclaim(&mut self) -> bool {
        if self.supports.is_empty() {
            self.supports = FastMap::default();
        }
        let drop_log = self.dead > 0 && self.dead == self.firings.len();
        if drop_log {
            self.firings = Vec::new();
            self.by_antecedent = FastMap::default();
            self.by_head = FastMap::default();
            self.dead = 0;
        }
        drop_log
    }

    /// Verifies the ledger's internal references: the dead count equals a
    /// recount; every index list is non-empty and names in-range firings
    /// that really list that antecedent seq / carry that head; and every
    /// alive firing is indexed under each of its antecedents (once per
    /// occurrence) and under its head if it heads a row, with a support
    /// entry behind each antecedent.  Returns a description of the first
    /// inconsistency.
    pub fn check_consistency(&self) -> Result<(), String> {
        let dead = self.firings.iter().filter(|f| !f.alive).count();
        if dead != self.dead {
            return Err(format!("dead count {} but {dead} dead firings", self.dead));
        }
        type Keyed<'a> = &'a dyn Fn(&FiringRecord) -> bool;
        let check_list = |key: &dyn std::fmt::Debug, ids: &Vec<u32>, keyed: Keyed| {
            let firing = |&idx: &u32| self.firings.get(idx as usize);
            let sound = !ids.is_empty() && ids.iter().all(|idx| firing(idx).is_some_and(keyed));
            let why = || format!("list of {key:?} is empty or names a firing without it: {ids:?}");
            sound.then_some(()).ok_or_else(why)
        };
        for (seq, ids) in &self.by_antecedent {
            check_list(seq, ids, &|f| f.antecedents.contains(seq))?;
        }
        for (head, ids) in &self.by_head {
            check_list(head, ids, &|f| {
                f.heads_a_row() && (f.dest, f.pred, &f.values) == (head.0, head.1, &head.2)
            })?;
        }
        for (idx, f) in self.firings.iter().enumerate().filter(|(_, f)| f.alive) {
            let listed = |ids: Option<&Vec<u32>>| {
                ids.map_or(0, |ids| ids.iter().filter(|&&i| i as usize == idx).count())
            };
            let supported = f.antecedents.iter().all(|seq| {
                let occurrences = f.antecedents.iter().filter(|a| *a == seq).count();
                self.supports.contains_key(seq)
                    && listed(self.by_antecedent.get(seq)) == occurrences
            });
            let head = (f.dest, f.pred, f.values.clone());
            if !supported || listed(self.by_head.get(&head)) != usize::from(f.heads_a_row()) {
                return Err(format!("alive firing {idx} is mis-indexed or unsupported"));
            }
        }
        Ok(())
    }

    /// Records one arriving contribution for the row at `seq`.
    pub fn record_arrival(
        &mut self,
        seq: u64,
        pred: PredId,
        contribution: Contribution,
        location_index: Option<usize>,
    ) {
        let entry = self.supports.entry(seq).or_insert_with(|| SupportEntry {
            pred,
            count: 0,
            base_count: 0,
            tags: Vec::new(),
            location_index,
        });
        entry.count += 1;
        entry.base_count += u64::from(contribution.is_base);
        entry.tags.push(contribution);
    }
}

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
        assert_eq!(script.len(), 5);
        assert!(!script.is_empty());
        assert_eq!(script.events()[0].0, SimTime::from_micros(1_000));
        assert!(matches!(
            script.events()[1].1,
            ChurnEvent::LinkUp { cost: None, .. }
        ));
        assert!(matches!(script.events()[2].1, ChurnEvent::NodeFail { .. }));
        assert!(ChurnScript::new().is_empty());
    }

    /// An untagged contribution said by node 0.
    fn said(is_base: bool) -> Contribution {
        Contribution {
            is_base,
            tag: ProvTag::None,
            speaker: NodeId(0),
        }
    }

    /// A ledger of `n` firings: firing `i` (remembered in its
    /// `location_index`) joins rows `i / 2` and `1000 + i % 4` into one of
    /// 16 heads, so every index list is shared.
    fn ledger_of(n: usize) -> Ledger {
        let mut ledger = Ledger::default();
        for i in 0..n {
            let antecedents = vec![i as u64 / 2, 1000 + i as u64 % 4];
            for seq in &antecedents {
                ledger.record_arrival(*seq, PredId(0), said(true), None);
            }
            ledger.record_firing(FiringRecord {
                alive: true,
                dest: NodeId(0),
                pred: PredId(1),
                values: Arc::from(vec![Value::Int(i as i64 % 16)]),
                tag: ProvTag::None,
                location_index: Some(i),
                antecedents,
                agg: None,
            });
        }
        ledger
    }

    #[test]
    fn reclaim_drops_a_dead_ledger_whole_and_nothing_before() {
        let mut ledger = ledger_of(128);
        ledger.check_consistency().unwrap();
        // A scattered two thirds dead: the log stays, ids and lists as they
        // were.
        assert!((0..128).filter(|i| i % 3 != 0).all(|i| ledger.kill(i)));
        assert!(!ledger.kill(1), "a firing dies once");
        assert!(!ledger.reclaim());
        ledger.check_consistency().unwrap();
        let built = |f: &FiringRecord| f.location_index.unwrap();
        assert!(ledger.firings.iter().map(built).eq(0..128));
        assert_eq!(
            ledger.by_antecedent[&1000],
            (0..128).step_by(4).collect::<Vec<u32>>()
        );
        // Nothing alive: the log and its indexes are dropped outright, and
        // an emptied `supports` with them.
        assert!((0..128).step_by(3).all(|i| ledger.kill(i)));
        ledger.supports.clear();
        assert!(ledger.reclaim());
        ledger.check_consistency().unwrap();
        assert_eq!(ledger.firings.capacity(), 0);
        assert_eq!(
            ledger.by_antecedent.capacity() + ledger.by_head.capacity(),
            0
        );
        assert_eq!(ledger.supports.capacity(), 0);
        assert!(!ledger.reclaim(), "an empty log has nothing to drop");
        // The next firing starts the ids over.
        ledger.record_arrival(7, PredId(0), said(true), None);
        let mut next = ledger_of(1).firings.pop().unwrap();
        next.antecedents = vec![7];
        ledger.record_firing(next);
        ledger.check_consistency().unwrap();
        assert_eq!(ledger.by_antecedent[&7], [0]);
    }

    #[test]
    fn ledger_tracks_supports() {
        let mut ledger = Ledger::default();
        let pred = PredId(0);
        ledger.record_arrival(7, pred, said(true), Some(0));
        ledger.record_arrival(7, pred, said(false), Some(0));
        let entry = &ledger.supports[&7];
        assert_eq!((entry.count, entry.base_count), (2, 1));
        assert_eq!(entry.tags.len(), 2);
        assert_eq!(entry.pred, pred);
    }
}
