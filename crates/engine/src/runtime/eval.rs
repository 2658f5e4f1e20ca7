//! Evaluation at one node: the context every Deliver/Ship/Handshake event
//! runs in, delta-batch processing, rule firing, head emission and
//! aggregates.
//!
//! Everything here runs *inside* a partition: it may mutate only the node
//! runtime the event is owned by (plus its metrics shard and effect log)
//! and read the shared immutable environment.  The sequential path drives
//! the same context with the engine's real variable table and metrics, so
//! one code path serves both schedules.

use super::queue::{BatchRow, DeltaBatch, Polarity, QueuedWork};
use super::{ix, principal_of, AggGroup, EngineError, NodeRuntime};
use crate::config::{EngineConfig, GraphMode};
use crate::dynamics::{AggFiring, FiringRecord};
use crate::eval::{eval_expr, eval_filter, Bindings};
use crate::metrics::RunMetrics;
use crate::store::{InsertOutcome, TupleMeta};
use crate::tuple;
use pasn_crypto::says::{tombstone_payloads, SaysLevel, SaysProof};
use pasn_crypto::PrincipalId;
use pasn_datalog::plan::{CompiledProgram, DeltaPlan, PlanStep, RulePlan, SlotTerm};
use pasn_datalog::{AggFunc, PredId, Symbols, Term, Value};
use pasn_net::{NodeId, SimTime};
use pasn_provenance::{
    AntecedentRef, ArchivedEntry, BaseTupleId, MaintenanceMode, PointerDerivation, ProvTag,
    ProvenanceKind, VarTable,
};
use pasn_trace::{TraceEvent, TraceEventKind};
use std::collections::HashMap;
use std::sync::Arc;

/// A deferred provenance record, used in reactive maintenance mode.
#[derive(Clone, Debug)]
pub(super) struct DeferredDerivation {
    pub head_key: String,
    pub head_location: String,
    pub rule: String,
    pub rule_location: String,
    pub antecedents: Vec<(String, Value)>,
    pub asserted_by: Option<PrincipalId>,
    pub at: SimTime,
}

/// One tuple contributing to an in-flight join branch.  The row is shared
/// with the store (`Arc` clone, no value copies); its provenance key is
/// rendered lazily — only if the branch survives to a head emission that
/// actually records provenance graphs.
#[derive(Clone)]
struct Contrib {
    pred: PredId,
    values: Arc<[Value]>,
    location: Option<usize>,
    tag: ProvTag,
    origin: Value,
    /// Store insertion seq of the contributing row — the identity the
    /// deletion ledger records firings under.
    seq: u64,
}

impl Contrib {
    /// Renders the contribution's provenance key (display form).
    fn render_key(&self, symbols: &Symbols) -> String {
        let name = symbols.name(self.pred).unwrap_or("?");
        tuple::render_located_parts(name, &self.values, self.location)
    }
}

/// One in-flight join branch: the bindings accumulated so far, the
/// contributing tuples, and the insertion seq of the branch's delta row —
/// the visibility cap that keeps batched joins tuple-at-a-time-exact (a
/// delta never joins rows inserted after it).
type Branch = (Bindings, Vec<Contrib>, u64);

/// A candidate row handed out by the store during a join: the row's
/// insertion seq plus the shared values and tuple metadata, borrowed from
/// the store.
type CandidateRow<'a> = (u64, &'a Arc<[Value]>, &'a TupleMeta);

/// One freshly inserted row of a processed batch, ready to drive delta
/// evaluation.  `seq` is the row's store insertion seq: its branches only
/// join rows with a seq no greater than it, so batch siblings inserted
/// later stay invisible exactly as under per-tuple processing.
struct NewDelta {
    seq: u64,
    values: Arc<[Value]>,
    tag: ProvTag,
    origin: Value,
}

/// An engine-global side effect recorded by a [`PartitionCtx`] while it
/// evaluates one work item.  Contexts never touch the shared work queue,
/// open-batch buffers or traffic meter directly: they record effects in
/// emission order and the engine replays them — immediately on the
/// sequential path, or sorted by the originating event's queue seq when a
/// wave's partitions ran concurrently.  Both replay orders are identical
/// by construction, which is what makes the pool bit-compatible with the
/// sequential schedule.
pub(super) enum Effect {
    /// Enqueue a locally derived (or base) delta at its home node.
    Local {
        at: SimTime,
        destination: NodeId,
        pred: PredId,
        row: BatchRow,
        polarity: Polarity,
    },
    /// Append a head tuple to the open shipment frame of a remote link.
    Ship {
        at: SimTime,
        src: NodeId,
        dst: NodeId,
        pred: PredId,
        row: BatchRow,
        polarity: Polarity,
    },
    /// Push already-finalized work (a sealed delivery frame, a scheduled
    /// handshake) onto the global queue at `at`.
    Queue { at: SimTime, work: QueuedWork },
    /// Replay a transport send against the engine's traffic meter.  The
    /// delivery time was already computed (and link-clamped) by the owning
    /// node; only the byte/message accounting is global.
    NetSend {
        at: SimTime,
        src: NodeId,
        dst: NodeId,
        wire_bytes: usize,
    },
    /// Schedule a TTL expiry sweep (deduplicated engine-globally).
    Expiry { node: NodeId, at: SimTime },
    /// Route one delivered tombstone row into the deletion ledger.  Only
    /// emitted on dynamics runs, whose retraction batches never enter a
    /// wave, so the engine applies it immediately after the event.
    Retract {
        loc: NodeId,
        pred: PredId,
        values: Arc<[Value]>,
        tag: ProvTag,
        now: SimTime,
    },
}

/// The read-only evaluation environment shared by every partition of a
/// wave (and by the sequential path, which uses the same context type).
/// Built once at engine construction; the engine mutates it only between
/// events (interning externally inserted predicates, arming dynamics).
pub(super) struct EvalShared {
    pub config: EngineConfig,
    pub compiled: CompiledProgram,
    /// Runtime predicate interner: seeded from the compiled program's table
    /// (so plan-time [`PredId`]s stay valid) and grown for predicates that
    /// only appear in externally inserted facts.  Node stores mirror it.
    pub symbols: Symbols,
    /// Location value of every node, indexed by [`NodeId`].
    pub locations: Vec<Value>,
    /// Immutable deployment directory: location value → node id.  The only
    /// place a location `Value` is resolved — at the public API boundary
    /// and for computed head locations — so cross-node lookups never touch
    /// another partition's mutable runtime.
    pub directory: HashMap<Value, NodeId>,
    /// Aggregate-group rule ids, parallel to `compiled.plans`: each rule
    /// label interned once, so rules sharing a label share their groups
    /// and no label is cloned or hashed per firing.
    pub rule_ids: Vec<u32>,
}

impl EvalShared {
    /// Whether the flight recorder is on; contexts record into their
    /// per-event trace buffer only when set, so disabled tracing costs one
    /// branch per hook and never allocates.
    pub(super) fn tracing(&self) -> bool {
        self.config.trace.is_some()
    }

    fn principal_level(&self, principal: PrincipalId) -> u8 {
        self.config
            .security_levels
            .get(&principal.0)
            .copied()
            .unwrap_or(1)
    }
}

/// Mutable evaluation state for one event: the node runtime that owns it,
/// a metrics shard, and the effect log.  On the sequential path the engine
/// lends its real variable table and metrics; on the parallel path each
/// partition brings a fresh shard and a scratch variable table (never
/// consulted: parallel waves only run under provenance-free
/// configurations).
pub(super) struct PartitionCtx<'a> {
    pub shared: &'a EvalShared,
    pub id: NodeId,
    pub node: &'a mut NodeRuntime,
    pub var_table: &'a mut VarTable,
    pub metrics: &'a mut RunMetrics,
    pub completion: &'a mut SimTime,
    pub effects: &'a mut Vec<Effect>,
    /// Trace events recorded while evaluating this event; the engine
    /// flushes them to the recorder in effect-replay order, so the trace is
    /// identical however the wave was partitioned.
    pub trace: &'a mut Vec<TraceEvent>,
}

impl<'a> PartitionCtx<'a> {
    /// Dispatches one wave-safe work item at its owning node.
    pub(super) fn run(&mut self, at: SimTime, work: QueuedWork) -> Result<(), EngineError> {
        match work {
            QueuedWork::Deliver(batch) => return self.process_batch(at, batch),
            QueuedWork::Ship(frame) => self.seal_and_ship(at, frame),
            // A lone handshake (one released by the unreliable transport
            // rather than popped in a wave) is a batch of one.
            QueuedWork::Handshake { handshake, .. } => {
                self.process_handshake_batch(at, vec![handshake])
            }
            QueuedWork::HandshakeBatch { handshakes, .. } => {
                self.process_handshake_batch(at, handshakes)
            }
            QueuedWork::Churn(_)
            | QueuedWork::Evict { .. }
            | QueuedWork::Expire { .. }
            | QueuedWork::FrameArrival { .. }
            | QueuedWork::Retransmit { .. }
            | QueuedWork::AckFrame { .. } => {
                unreachable!("engine-global work never enters a partition context")
            }
        }
        Ok(())
    }

    /// This node's location value.
    pub(super) fn location(&self) -> &'a Value {
        &self.shared.locations[ix(self.id)]
    }

    /// Runs `micros` of CPU on this node's lane starting no earlier than
    /// `at` and folds the finish time into the run's completion.
    pub(super) fn charge(&mut self, at: SimTime, micros: u64) -> SimTime {
        let done = self.node.run_cpu(at, SimTime::from_micros(micros));
        *self.completion = (*self.completion).max(done);
        done
    }

    fn process_batch(&mut self, at: SimTime, batch: DeltaBatch) -> Result<(), EngineError> {
        let DeltaBatch {
            pred,
            rows,
            assertion,
            from,
            polarity,
            ..
        } = batch;
        let shared = self.shared;
        let local = self.location();
        let cost_model = shared.config.cost_model;
        // Keep the node store's predicate mirror current (O(1) when in sync)
        // and resolve the batch's predicate name once, as a shared `Arc`.
        self.node.store.sync_symbols(&shared.symbols);
        let pred_name: Arc<str> = shared
            .symbols
            .name_arc(pred)
            .cloned()
            .expect("interned predicate");

        // 1. Verification of imported frames: one `says` check over the
        // canonical concatenated payload covers every tuple in the frame.
        let mut cpu_cost = rows.len() as u64 * cost_model.tuple_process_us;
        if from.is_some() {
            if let (Some(assertion), true) = (&assertion, shared.config.verify_imports) {
                let verifier = self
                    .node
                    .authenticator
                    .as_ref()
                    .expect("authentication configured");
                let raw: Vec<Vec<u8>> = rows
                    .iter()
                    .map(|row| tuple::encode_parts(&pred_name, &row.values))
                    .collect();
                // Tombstone frames are proved over polarity-marked payloads,
                // so a data frame can never pass as a deletion of the same
                // tuples (and vice versa).
                let payloads = match polarity {
                    Polarity::Assert => raw,
                    Polarity::Retract => tombstone_payloads(&raw),
                };
                let ok = if let SaysProof::Session(_) = &assertion.proof {
                    // Channel MAC: check against the per-link replay state
                    // installed by the handshake.  No channel (dropped or
                    // rejected handshake) → the frame is refused outright,
                    // no MAC computed, no crypto charged.
                    let required = verifier.level();
                    match self.node.recv_channels.get_mut(&assertion.principal) {
                        Some(channel) => {
                            // `ReceiverChannel::verify_frame` computes
                            // exactly one HMAC, accept or reject.
                            self.metrics.hmac_ops += 1;
                            cpu_cost += cost_model.hmac_us;
                            verifier
                                .verify_frame_on(channel, &payloads, assertion, required)
                                .is_ok()
                        }
                        None => false,
                    }
                } else {
                    cpu_cost += match assertion.proof.level() {
                        SaysLevel::Rsa => {
                            self.metrics.rsa_verify_ops += 1;
                            cost_model.rsa_verify_us
                        }
                        SaysLevel::Hmac => {
                            self.metrics.hmac_ops += 1;
                            cost_model.hmac_us
                        }
                        SaysLevel::Cleartext | SaysLevel::Session => 0,
                    };
                    verifier.verify_frame(&payloads, assertion).is_ok()
                };
                self.metrics.verifications += 1;
                if !ok {
                    // The whole frame is rejected: a forged proof vouches
                    // for none of the tuples it claims to cover.
                    self.metrics.verification_failures += 1;
                    self.charge(at, cpu_cost);
                    return Ok(());
                }
            }
        }
        if shared.config.tracks_provenance() {
            cpu_cost += rows.len() as u64 * cost_model.provenance_op_us;
            self.metrics.provenance_ops += rows.len() as u64;
        }
        let done = self.charge(at, cpu_cost);

        // Retraction batches settle against the deletion ledger instead of
        // the insert-and-fire path: each row withdraws one recorded
        // contribution, and a tuple whose supports are exhausted is removed
        // and cascades.
        if polarity == Polarity::Retract {
            for row in rows {
                self.effects.push(Effect::Retract {
                    loc: self.id,
                    pred,
                    values: row.values,
                    tag: row.tag,
                    now: done,
                });
            }
            return Ok(());
        }

        // 2. Tags and metadata for every row, then one batch insert that
        // dedups against the row→seq map before any further provenance
        // work.  Provenance keys (display strings) are rendered only when a
        // tag will actually hold them.
        let expires_at = shared
            .config
            .default_ttl_us
            .map(|ttl| SimTime::from_micros(done.as_micros() + ttl));
        let mut tags: Vec<ProvTag> = Vec::with_capacity(rows.len());
        for row in &rows {
            let tag = if !row.is_base {
                row.tag.clone()
            } else if shared.config.provenance == ProvenanceKind::None {
                ProvTag::None
            } else {
                let principal = row.asserted_by.unwrap_or(PrincipalId(0));
                let key = tuple::render_located_parts(&pred_name, &row.values, row.location_index);
                ProvTag::base(
                    shared.config.provenance,
                    &mut *self.var_table,
                    BaseTupleId(tuple::key_hash_parts(&pred_name, &row.values)),
                    &key,
                    shared.config.granularity.origin_of(principal),
                    shared.principal_level(principal),
                )
            };
            tags.push(tag);
        }
        let insert_rows: Vec<(Arc<[Value]>, TupleMeta)> = rows
            .iter()
            .zip(&tags)
            .map(|(row, tag)| {
                (
                    row.values.clone(),
                    TupleMeta {
                        tag: tag.clone(),
                        created_at: done,
                        expires_at: if row.is_base { None } else { expires_at },
                        origin: row.origin.clone(),
                        asserted_by: row.asserted_by.map(|p| p.0),
                    },
                )
            })
            .collect();
        let outcomes = {
            let var_table = &mut *self.var_table;
            self.node
                .store
                .insert_rows(pred, insert_rows, |a, b| a.plus(b, var_table))
        };

        // Deletion ledger: every arriving row is one support of the live
        // row now holding its values — new, duplicate or tag-merged alike —
        // carrying the tag it contributed so deletion can withdraw exactly
        // it.  Soft-state rows get their expiry scheduled as simulator work.
        if shared.config.dynamics {
            let ledger = &mut self.node.ledger;
            for ((row, tag), (outcome, seq)) in rows.iter().zip(&tags).zip(&outcomes) {
                ledger.record_arrival(*seq, pred, row.is_base, tag.clone(), row.location_index);
                if row.is_base {
                    ledger.base_rows.insert(*seq, (pred, row.values.clone()));
                }
                if *outcome == InsertOutcome::New
                    && ledger.retracted.contains(&(pred, row.values.clone()))
                {
                    self.metrics.rederivations += 1;
                }
            }
            if let Some(expiry) = expires_at {
                if rows.iter().any(|row| !row.is_base) {
                    self.effects.push(Effect::Expiry {
                        node: self.id,
                        at: expiry,
                    });
                }
            }
        }

        // 3. Per-row provenance bookkeeping for base facts and shipped
        // graphs (unchanged per-tuple semantics).  The rendered tuple key is
        // computed only on the branches that store it.
        for row in &rows {
            if row.is_base && shared.config.graph_mode != GraphMode::None {
                let tuple_key =
                    tuple::render_located_parts(&pred_name, &row.values, row.location_index);
                let base_id = BaseTupleId(tuple::key_hash_parts(&pred_name, &row.values));
                self.node.local_prov.graph_mut().add_base(
                    &tuple_key,
                    &local.to_string(),
                    base_id,
                    row.asserted_by,
                    done.as_micros(),
                    None,
                );
                self.node.dist_prov.record_base(&tuple_key, base_id);
            }
            if let Some(shipped) = &row.shipped_graph {
                self.node.local_prov.graph_mut().merge(shipped);
            }
            // Distributed provenance: a tuple received from another node
            // keeps a pointer back to the deriving node, where its
            // provenance lives.
            if from.is_some()
                && !row.is_base
                && shared.config.graph_mode == GraphMode::Distributed
                && row.origin != *local
            {
                let tuple_key =
                    tuple::render_located_parts(&pred_name, &row.values, row.location_index);
                if shared.config.maintenance == MaintenanceMode::Reactive {
                    self.node.deferred.push(DeferredDerivation {
                        head_key: tuple_key.clone(),
                        head_location: local.to_string(),
                        rule: "recv".to_string(),
                        rule_location: local.to_string(),
                        antecedents: vec![(tuple_key, row.origin.clone())],
                        asserted_by: row.asserted_by,
                        at: done,
                    });
                } else {
                    let pointer = PointerDerivation {
                        rule: "recv".to_string(),
                        antecedents: vec![AntecedentRef::Remote {
                            location: row.origin.to_string(),
                            key: tuple_key.clone(),
                        }],
                    };
                    self.node.dist_prov.record_derivation(&tuple_key, pointer);
                }
            }
        }

        // 4. Delta evaluation over the genuinely new rows, one pass per
        // (rule, batch): plan dispatch, slot setup and the unindexed scan
        // cache are shared by every row in the batch.
        let new_deltas: Vec<NewDelta> = rows
            .into_iter()
            .zip(tags)
            .zip(&outcomes)
            .filter(|(_, (outcome, _))| *outcome == InsertOutcome::New)
            .map(|((row, tag), (_, seq))| NewDelta {
                seq: *seq,
                values: row.values,
                tag,
                origin: row.origin,
            })
            .collect();
        if new_deltas.is_empty() {
            return Ok(());
        }
        for (rule_plan, &rule_id) in shared.compiled.plans.iter().zip(&shared.rule_ids) {
            for delta_plan in rule_plan.deltas.iter().filter(|d| d.delta_pred == pred) {
                self.fire_rule(rule_id, rule_plan, delta_plan, pred, &new_deltas, done)?;
            }
        }
        Ok(())
    }

    /// Evaluates one delta plan against a batch of arriving tuples and emits
    /// head tuples.  Plan dispatch, the slot-table template and the
    /// unindexed scan cache are set up once per `(rule, batch)`; each row
    /// contributes its own seed branch.
    ///
    /// Joins with bound key columns render the key from the current bindings
    /// and probe the store's secondary index; only unifying tuples have their
    /// provenance tags and origins cloned.  Joins with no bound columns fall
    /// back to a full scan in insertion order.
    fn fire_rule(
        &mut self,
        rule_id: u32,
        rule_plan: &RulePlan,
        delta_plan: &DeltaPlan,
        pred: PredId,
        deltas: &[NewDelta],
        now: SimTime,
    ) -> Result<(), EngineError> {
        // The slot template is built once per (rule, batch) and cloned per
        // row.
        let mut template = Bindings::with_slots(rule_plan.slots.clone());
        if let Some(slot) = rule_plan.context_slot {
            template.bind_slot(slot, self.location().clone());
        }

        // Seed one branch per delta row that unifies with the delta atom:
        // (bindings, contributing rows shared with the store, the delta's
        // insertion seq).  The seq caps what each branch may join — only
        // rows inserted no later than the branch's delta — so a batched run
        // fires exactly the (rule, partner-set) instantiations that
        // tuple-at-a-time processing of the same stream would (no
        // double-derivation through batch siblings, even for self-joins).
        // Two schedule-shaped quantities still follow the coarser batch
        // interleaving rather than the per-tuple one: pipelined Min/Max
        // aggregates may skip intermediate improvements (they converge to
        // the same final value), and a joined row's semiring tag is read
        // after any in-batch duplicate merges (set semantics never
        // re-propagates merged tags in either mode — see the crate docs).
        // Arity conflicts are caught at validate time and on fact
        // insertion, so a mismatch here is an engine invariant violation,
        // not a tuple to skip silently.
        let mut branches: Vec<Branch> = Vec::new();
        for delta in deltas {
            if delta_plan.delta_args.len() != delta.values.len() {
                return Err(EngineError::ArityMismatch {
                    predicate: self
                        .shared
                        .symbols
                        .name(pred)
                        .expect("interned predicate")
                        .to_string(),
                    expected: delta_plan.delta_args.len(),
                    got: delta.values.len(),
                });
            }
            let mut bindings = template.clone();
            let mut ok = true;
            for (term, value) in delta_plan.delta_args.iter().zip(delta.values.iter()) {
                if !bindings.unify_slot_term(term, value) {
                    ok = false;
                    break;
                }
            }
            if ok {
                if let Some(says) = &delta_plan.delta_says {
                    ok = bindings.unify_slot_term(says, &delta.origin);
                }
            }
            if !ok {
                continue;
            }
            branches.push((
                bindings,
                vec![Contrib {
                    pred,
                    values: delta.values.clone(),
                    location: delta_plan.delta.location,
                    tag: delta.tag.clone(),
                    origin: delta.origin.clone(),
                    seq: delta.seq,
                }],
                delta.seq,
            ));
        }
        if branches.is_empty() {
            return Ok(());
        }
        // Candidate tuples examined while evaluating this delta; charged to
        // the node's CPU below.  Index probes keep this close to the true
        // match count instead of the full relation size.
        let mut probes = 0usize;

        for step in &delta_plan.steps {
            let mut next: Vec<Branch> = Vec::new();
            match step {
                PlanStep::Join(join) => {
                    let store = &self.node.store;
                    // Unindexed fallback, shared across branches: all stored
                    // rows in insertion order (the seq list — no sorting,
                    // and only `Arc` clones, never value copies).
                    let mut scan_cache: Option<Vec<CandidateRow>> = None;
                    let mut index_probes = 0u64;
                    let mut index_hits = 0u64;
                    let mut scan_probes = 0u64;
                    for (bind, contribs, delta_seq) in &branches {
                        // Render the key from the bound columns.  The planner
                        // guarantees they are bound; an unexpectedly missing
                        // slot degrades to the scan path.
                        let key: Option<Vec<Value>> = if join.key_columns.is_empty() {
                            None
                        } else {
                            join.key_columns
                                .iter()
                                .map(|&c| match &join.args[c] {
                                    SlotTerm::Const(v) => Some(v.clone()),
                                    SlotTerm::Slot(s) => bind.get_slot(*s).cloned(),
                                    SlotTerm::Wildcard => None,
                                })
                                .collect()
                        };
                        let probed: Vec<CandidateRow>;
                        let (candidates, used_index): (&[CandidateRow], bool) = match key.map(|k| {
                            store
                                .probe_seq_id(join.pred, &join.key_columns, &k)
                                .map(|it| it.collect())
                        }) {
                            Some(Some(rows)) => {
                                index_probes += 1;
                                probed = rows;
                                (&probed, true)
                            }
                            // No key columns, or (defensively) no index.
                            _ => {
                                let cache = scan_cache.get_or_insert_with(|| {
                                    store.scan_ordered_seq_rows(join.pred).collect()
                                });
                                (cache.as_slice(), false)
                            }
                        };
                        // Rows inserted after this branch's delta (batch
                        // siblings) are invisible to it, exactly as they
                        // were under per-tuple processing — and uncounted,
                        // so the probe/hit/scan counters stay identical too.
                        let mut examined = 0usize;
                        for (stored_seq, stored_values, meta) in candidates {
                            if *stored_seq > *delta_seq {
                                continue;
                            }
                            examined += 1;
                            if stored_values.len() != join.args.len() {
                                return Err(EngineError::ArityMismatch {
                                    predicate: join.atom.predicate.clone(),
                                    expected: join.args.len(),
                                    got: stored_values.len(),
                                });
                            }
                            let mut candidate = bind.clone();
                            let mut ok = true;
                            for (term, value) in join.args.iter().zip(stored_values.iter()) {
                                if !candidate.unify_slot_term(term, value) {
                                    ok = false;
                                    break;
                                }
                            }
                            if ok {
                                if let Some(says) = &join.says {
                                    ok = candidate.unify_slot_term(says, &meta.origin);
                                }
                            }
                            if ok {
                                // Tags and origins are cloned only for rows
                                // that actually unified; the row itself is
                                // an `Arc` clone of the stored copy.
                                let mut contribs = contribs.clone();
                                contribs.push(Contrib {
                                    pred: join.pred,
                                    values: Arc::clone(stored_values),
                                    location: join.atom.location,
                                    tag: meta.tag.clone(),
                                    origin: meta.origin.clone(),
                                    seq: *stored_seq,
                                });
                                next.push((candidate, contribs, *delta_seq));
                            }
                        }
                        if used_index {
                            index_hits += examined as u64;
                        } else {
                            scan_probes += examined as u64;
                        }
                        probes += examined.max(1);
                    }
                    self.metrics.index_probes += index_probes;
                    self.metrics.index_hits += index_hits;
                    self.metrics.scan_probes += scan_probes;
                }
                PlanStep::Filter(expr) => {
                    for (bind, contribs, delta_seq) in branches.into_iter() {
                        match eval_filter(expr, &bind) {
                            Ok(true) => next.push((bind, contribs, delta_seq)),
                            Ok(false) => {}
                            Err(e) => return Err(EngineError::Eval(e.to_string())),
                        }
                    }
                    branches = next;
                    continue;
                }
                PlanStep::Assign { slot, expr, .. } => {
                    for (mut bind, contribs, delta_seq) in branches.into_iter() {
                        let value =
                            eval_expr(expr, &bind).map_err(|e| EngineError::Eval(e.to_string()))?;
                        bind.bind_slot(*slot, value);
                        next.push((bind, contribs, delta_seq));
                    }
                    branches = next;
                    continue;
                }
            }
            branches = next;
            if branches.is_empty() {
                break;
            }
        }

        // Charge the join-probing work to this node's CPU, then emit heads at
        // the resulting completion time.
        let probe_cost =
            (probes as f64 * self.shared.config.cost_model.join_probe_us).round() as u64;
        let now = if probe_cost > 0 {
            self.charge(now, probe_cost)
        } else {
            now
        };

        if self.shared.tracing() {
            self.trace.push(TraceEvent {
                at_us: now.as_micros(),
                kind: TraceEventKind::RuleFire {
                    node: self.id.0,
                    rule: rule_plan.rule.label.clone(),
                    cpu_us: probe_cost,
                    derived: branches.len() as u32,
                },
            });
        }

        for (bind, contribs, _) in branches {
            self.emit_head(rule_id, rule_plan, &bind, &contribs, now)?;
        }
        Ok(())
    }

    /// Builds and routes the head tuple for one satisfied rule body.
    fn emit_head(
        &mut self,
        rule_id: u32,
        rule_plan: &RulePlan,
        bindings: &Bindings,
        contribs: &[Contrib],
        now: SimTime,
    ) -> Result<(), EngineError> {
        let shared = self.shared;
        let local = self.location();
        let rule = &rule_plan.rule;
        self.metrics.derivations += 1;

        // Resolve head arguments; handle at most one aggregate.
        let mut values = Vec::with_capacity(rule.head.args.len());
        let mut aggregate: Option<(AggFunc, usize, i64)> = None;
        for (i, arg) in rule.head.args.iter().enumerate() {
            match arg {
                Term::Aggregate(func, var) => {
                    let value = bindings.get(var).and_then(Value::as_int).ok_or_else(|| {
                        EngineError::Eval(format!("aggregate variable `{var}` is not an integer"))
                    })?;
                    aggregate = Some((*func, i, value));
                    values.push(Value::Int(value));
                }
                other => {
                    let v = bindings
                        .resolve_term(other)
                        .map_err(|e| EngineError::Eval(e.to_string()))?;
                    values.push(v);
                }
            }
        }

        // Aggregate handling.  Without dynamics (and for the running
        // Count/Sum totals) only an improvement emits, and nothing is ever
        // withdrawn.  With dynamics, `a_MIN`/`a_MAX` become a candidate
        // competition instead: *every* candidate is recorded in the ledger
        // (with its own value in the head row), and the election below
        // decides what the destination actually stores — so deleting the
        // current best re-elects the next-best survivor instead of leaving
        // a stale winner behind.
        let mut agg_candidate: Option<AggFiring> = None;
        if let Some((func, agg_index, value)) = aggregate {
            let group: Vec<Value> = values
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != agg_index)
                .map(|(_, v)| v.clone())
                .collect();
            if shared.config.dynamics && matches!(func, AggFunc::Min | AggFunc::Max) {
                agg_candidate = Some(AggFiring {
                    rule: rule_id,
                    group,
                    value,
                    agg_index,
                    func,
                });
            } else {
                let key = (rule_id, group);
                let entry = self.node.aggs.get(&key).and_then(|g| g.best);
                let improved = match (func, entry) {
                    (AggFunc::Min, Some(best)) => value < best,
                    (AggFunc::Max, Some(best)) => value > best,
                    (AggFunc::Min | AggFunc::Max, None) => true,
                    (AggFunc::Count | AggFunc::Sum, _) => true,
                };
                if !improved {
                    return Ok(());
                }
                let new_value = match func {
                    AggFunc::Min | AggFunc::Max => value,
                    AggFunc::Count => entry.unwrap_or(0) + 1,
                    AggFunc::Sum => entry.unwrap_or(0) + value,
                };
                self.node.aggs.entry(key).or_default().best = Some(new_value);
                values[agg_index] = Value::Int(new_value);
            }
        }

        // Materialise the head row once, as the shared representation every
        // consumer (store, provenance, wire) will reference.
        let head_pred = rule_plan.head_pred;
        let head_values: Arc<[Value]> = Arc::from(values);

        // Provenance tag: product of the contributing tuples' tags.
        let tag = if shared.config.provenance == ProvenanceKind::None {
            ProvTag::None
        } else {
            let mut acc = ProvTag::one(shared.config.provenance, &mut *self.var_table);
            for c in contribs {
                acc = acc.times(&c.tag, &mut *self.var_table);
                self.metrics.provenance_ops += 1;
            }
            acc
        };

        // Destination: the one place evaluation resolves a location value.
        // The head's display location is kept for provenance records.
        let destination = if let Some(term) = &rule.head.export_to {
            bindings
                .resolve_term(term)
                .map_err(|e| EngineError::Eval(e.to_string()))?
        } else if let Some(idx) = rule.head.location {
            head_values[idx].clone()
        } else {
            local.clone()
        };
        let dest_id = if destination == *local {
            self.id
        } else {
            match shared.directory.get(&destination) {
                Some(&id) => id,
                None => return Err(EngineError::UnknownLocation(destination)),
            }
        };
        let principal = principal_of(self.id);

        // Deletion ledger: record the firing — the head it produced, the
        // tag it contributed, and the antecedent rows by seq — so deletion
        // can replay it with opposite polarity.  `a_MIN`/`a_MAX` candidates
        // are recorded with their own candidate value in the head row (and
        // the aggregate identity attached), so killing one feeds the
        // group's re-election instead of routing a withdrawal.
        if shared.config.dynamics {
            let ledger = &mut self.node.ledger;
            let idx = ledger.firings.len() as u32;
            ledger.firings.push(FiringRecord {
                alive: true,
                dest: dest_id,
                pred: head_pred,
                values: head_values.clone(),
                tag: tag.clone(),
                location_index: rule.head.location,
                antecedents: contribs.iter().map(|c| c.seq).collect(),
                agg: agg_candidate.clone(),
            });
            for c in contribs {
                ledger.by_antecedent.entry(c.seq).or_default().push(idx);
            }
            ledger
                .by_head
                .entry((dest_id, head_pred, head_values.clone()))
                .or_default()
                .push(idx);
        }

        // `a_MIN`/`a_MAX` candidates under dynamics: the ledger record
        // above is the candidate's identity; emission is decided by the
        // per-group election.  (Provenance graphs are not recorded for
        // candidate firings — graph-recording configs run the non-dynamics
        // aggregate path.)
        if let Some(agg) = agg_candidate {
            let row = BatchRow::derived(
                head_values,
                tag,
                local.clone(),
                principal,
                rule.head.location,
            );
            self.elect_aggregate(dest_id, head_pred, row, agg, now);
            return Ok(());
        }

        // Provenance graphs (sampled; deferred in reactive mode).  The
        // rendered display keys are derived from the shared rows here, only
        // when something will actually be recorded.
        let records_graphs =
            shared.config.graph_mode != GraphMode::None || shared.config.archive_offline;
        let head_name = shared
            .symbols
            .name(head_pred)
            .expect("head predicate interned at plan time");
        if records_graphs {
            if shared
                .config
                .sampling
                .records(tuple::key_hash_parts(head_name, &head_values))
            {
                let head_key =
                    tuple::render_located_parts(head_name, &head_values, rule.head.location);
                let antecedents: Vec<(String, Value)> = contribs
                    .iter()
                    .map(|c| (c.render_key(&shared.symbols), c.origin.clone()))
                    .collect();
                if shared.config.maintenance == MaintenanceMode::Reactive {
                    self.node.deferred.push(DeferredDerivation {
                        head_key,
                        head_location: destination.to_string(),
                        rule: rule.label.clone(),
                        rule_location: local.to_string(),
                        antecedents,
                        asserted_by: Some(principal),
                        at: now,
                    });
                } else {
                    record_provenance_graphs(
                        &shared.config,
                        self.node,
                        local,
                        &head_key,
                        &destination.to_string(),
                        &rule.label,
                        &local.to_string(),
                        &antecedents,
                        Some(principal),
                        now,
                    );
                }
            } else {
                self.metrics.sampled_out += 1;
            }
        }

        let mut row = BatchRow::derived(
            head_values,
            tag,
            local.clone(),
            principal,
            rule.head.location,
        );
        // Local-provenance mode piggybacks the derivation subtree as it
        // exists at emission time; its wire bytes are charged when the frame
        // seals.
        if dest_id != self.id && shared.config.graph_mode == GraphMode::Local {
            let head_key = tuple::render_located_parts(head_name, &row.values, rule.head.location);
            let graph = self.node.local_prov.graph();
            row.shipped_graph = graph.find(&head_key).map(|root| graph.subtree(root));
        }
        self.route_row(now, dest_id, head_pred, row, Polarity::Assert);
        Ok(())
    }

    /// Routes one emitted row: a local delta for same-node heads, a
    /// shipment-frame append otherwise.
    fn route_row(
        &mut self,
        at: SimTime,
        destination: NodeId,
        pred: PredId,
        row: BatchRow,
        polarity: Polarity,
    ) {
        self.effects.push(if destination == self.id {
            Effect::Local {
                at,
                destination,
                pred,
                row,
                polarity,
            }
        } else {
            Effect::Ship {
                at,
                src: self.id,
                dst: destination,
                pred,
                row,
                polarity,
            }
        });
    }

    /// Enters one `a_MIN`/`a_MAX` candidate into its group's competition
    /// (dynamics only) and emits the head row only when the candidate beats
    /// the currently emitted best — withdrawing the dethroned row first, so
    /// the destination never holds two rows of one group.  Candidates that
    /// do not win stay in the multiset; `settle_agg_kill` re-elects from
    /// them when the winner dies.
    fn elect_aggregate(
        &mut self,
        destination: NodeId,
        pred: PredId,
        row: BatchRow,
        agg: AggFiring,
        now: SimTime,
    ) {
        let group: &mut AggGroup = self.node.aggs.entry((agg.rule, agg.group)).or_default();
        group
            .candidates
            .entry(agg.value)
            .or_default()
            .push(row.tag.clone());
        let improves = match (agg.func, &group.emitted) {
            (_, None) => true,
            (AggFunc::Min, Some((best, _))) => agg.value < *best,
            (AggFunc::Max, Some((best, _))) => agg.value > *best,
            (AggFunc::Count | AggFunc::Sum, Some(_)) => {
                unreachable!("only Min/Max enter candidate competitions")
            }
        };
        if !improves {
            return;
        }
        group.best = Some(agg.value);
        if let Some((old_value, old_tag)) = group.emitted.replace((agg.value, row.tag.clone())) {
            // Withdraw the dethroned best before asserting its successor.
            let mut old_values = row.values.to_vec();
            old_values[agg.agg_index] = Value::Int(old_value);
            let old = BatchRow::derived(
                Arc::from(old_values),
                old_tag,
                row.origin.clone(),
                principal_of(self.id),
                row.location_index,
            );
            self.route_row(now, destination, pred, old, Polarity::Retract);
        }
        self.route_row(now, destination, pred, row, Polarity::Assert);
    }
}

/// Writes one derivation into the node's graph / pointer / archive stores.
/// A free function so both the evaluation context and the engine's
/// deferred-materialization pass share it.
#[allow(clippy::too_many_arguments)]
pub(super) fn record_provenance_graphs(
    config: &EngineConfig,
    node: &mut NodeRuntime,
    local: &Value,
    head_key: &str,
    head_location: &str,
    rule: &str,
    rule_location: &str,
    antecedents: &[(String, Value)],
    asserted_by: Option<PrincipalId>,
    at: SimTime,
) {
    let local_str = local.to_string();
    let antecedent_keys: Vec<String> = antecedents.iter().map(|(k, _)| k.clone()).collect();
    match config.graph_mode {
        GraphMode::None => {}
        GraphMode::Local => {
            node.local_prov.graph_mut().add_derivation(
                head_key,
                head_location,
                rule,
                rule_location,
                &antecedent_keys,
                asserted_by,
                None,
                at.as_micros(),
                None,
            );
        }
        GraphMode::Distributed => {
            let refs: Vec<AntecedentRef> = antecedents
                .iter()
                .map(|(key, origin)| {
                    if *origin == *local {
                        AntecedentRef::Local(key.clone())
                    } else {
                        AntecedentRef::Remote {
                            location: origin.to_string(),
                            key: key.clone(),
                        }
                    }
                })
                .collect();
            node.dist_prov.record_derivation(
                head_key,
                PointerDerivation {
                    rule: rule.to_string(),
                    antecedents: refs,
                },
            );
        }
    }
    if config.archive_offline {
        node.archive.record(ArchivedEntry {
            key: head_key.to_string(),
            location: local_str,
            annotation: format!("{rule}@{rule_location}"),
            derived_at: at.as_micros(),
            expired_at: None,
            pinned: false,
        });
    }
}
