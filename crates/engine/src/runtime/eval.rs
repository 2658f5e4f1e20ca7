//! Evaluation at one node: the context every [`NodeWork`] item runs in,
//! delta-batch processing, rule firing, head emission and aggregates.
//!
//! Everything here runs at the one node the event is owned by: it mutates
//! that node's runtime, the run's metrics and variable table, and the
//! event's effect log, and reads the shared immutable environment.

use super::queue::{BatchRow, DeltaBatch, NodeWork, Origin, Polarity};
use super::ship::frame_payloads;
use super::{ix, principal_of, EngineError, GroupKey, NodeRuntime};
use crate::config::{EngineConfig, GraphMode};
use crate::dynamics::{AggFiring, Contribution};
use crate::eval::{eval_expr, eval_filter, Bindings};
use crate::hash::FastMap;
use crate::metrics::RunMetrics;
use crate::store::{InsertOutcome, TupleMeta};
use crate::tuple;
use pasn_crypto::says::{SaysAssertion, SaysLevel, SaysProof};
use pasn_datalog::plan::{CompiledProgram, DeltaPlan, JoinStep, PlanStep, RulePlan, SlotTerm};
use pasn_datalog::{AggFunc, PredId, Symbols, Value};
use pasn_net::{NodeId, SimTime};
use pasn_provenance::{
    AntecedentRef, ArchivedEntry, BaseTupleId, MaintenanceMode, PointerDerivation, ProvKey,
    ProvTag, ProvenanceKind, SamplingPolicy, VarTable,
};
use pasn_trace::{TraceEvent, TraceEventKind};
use std::sync::Arc;

/// One derivation as the provenance stores record it: built once per
/// recorded head, written immediately in proactive maintenance mode and
/// kept on the node until materialisation in reactive mode.  The rule's
/// location is the recording node.  Every key is rendered once, here; the
/// pointer record and the archive entry share it.
#[derive(Clone, Debug)]
pub(super) struct DerivationRecord {
    pub head_key: Arc<str>,
    /// The rule's label, as an index into [`EvalShared::labels`].
    pub rule: u32,
    /// Rendered antecedent keys with the node each one lives at.  Empty
    /// for a `recv` pointer, whose one antecedent is the head itself at
    /// the speaker.
    pub antecedents: Vec<(Arc<str>, NodeId)>,
    /// The node whose principal says the head: the recording node for a
    /// rule firing, the sender for a `recv` pointer.  So a record spoken by
    /// another node is a `recv` pointer, whatever the rules are labelled.
    pub speaker: NodeId,
    pub at: SimTime,
}

/// One tuple contributing to an in-flight join branch.  The row is shared
/// with the store (`Arc` clone, no value copies); its provenance key is
/// rendered lazily — only if the branch survives to a head emission that
/// actually records provenance.
#[derive(Clone)]
struct Contrib {
    pred: PredId,
    values: Arc<[Value]>,
    location: Option<usize>,
    tag: ProvTag,
    origin: NodeId,
    /// Store insertion seq of the contributing row — the identity the
    /// deletion ledger records firings under.
    seq: u64,
}

impl Contrib {
    /// Renders the contribution's provenance key (display form) through
    /// `buf`.
    fn render_key(&self, symbols: &Symbols, buf: &mut String) -> Arc<str> {
        let name = symbols.name(self.pred).unwrap_or("?");
        tuple::render_into(buf, name, &self.values, self.location).into()
    }
}

/// One in-flight join branch: the bindings accumulated so far, the
/// contributing tuples, and the insertion seq of the branch's delta row —
/// the visibility cap that keeps batched joins tuple-at-a-time-exact (a
/// delta never joins rows inserted after it).
type Branch = (Bindings, Vec<Contrib>, u64);

/// One freshly inserted row of a processed batch, ready to drive delta
/// evaluation.  `seq` is the row's store insertion seq: its branches only
/// join rows with a seq no greater than it, so batch siblings inserted
/// later stay invisible exactly as under per-tuple processing.
struct NewDelta {
    seq: u64,
    values: Arc<[Value]>,
    tag: ProvTag,
    origin: NodeId,
}

/// An engine-global side effect recorded by a [`NodeCtx`] while it
/// evaluates one work item.  Contexts never touch the shared work queue,
/// open-batch buffers or traffic meter directly: they record effects in
/// emission order and the engine replays them once the event is done.
/// "Effects apply after the event" is the defined schedule, not an
/// indirection to optimise away: on unbatched runs a replayed `Ship` seals
/// its frame inline and charges the sender's lane *then*, after everything
/// the event itself charged.
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
    Queue { at: SimTime, work: NodeWork },
    /// Replay a transport send against the engine's traffic meter.  The
    /// delivery time was already computed (and link-clamped) by the owning
    /// node; only the byte/message accounting is global.
    NetSend { src: NodeId, wire_bytes: usize },
    /// Schedule a TTL expiry sweep (deduplicated engine-globally).
    Expiry { node: NodeId, at: SimTime },
    /// Route one delivered tombstone row into the deletion ledger.  Only
    /// emitted on dynamics runs, by retraction batches.
    Retract {
        loc: NodeId,
        pred: PredId,
        values: Arc<[Value]>,
        tag: ProvTag,
        /// The node that said the withdrawn contribution.
        speaker: NodeId,
        now: SimTime,
    },
}

/// The read-only evaluation environment every event's context borrows.
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
    /// another node's mutable runtime.
    pub directory: FastMap<Value, NodeId>,
    /// Rendered location name of every node, indexed by [`NodeId`]: what the
    /// provenance stores call a node.  Rendered once, at deploy, and shared:
    /// every pointer record and archive entry naming a node holds this
    /// allocation, so recording a derivation bumps a count instead of
    /// formatting a `Value` or copying a name.
    pub names: Vec<Arc<str>>,
    /// The name directory: digest of a rendered name → node id, for
    /// provenance queries following [`AntecedentRef::Remote`] pointers.
    /// Keyed by digest so building it copies no name; a hit is confirmed
    /// against `names`.
    pub name_ids: FastMap<ProvKey, NodeId>,
    /// Aggregate-group rule ids, parallel to `compiled.plans`: each rule
    /// label interned once, so rules sharing a label share their groups
    /// and no label is cloned or hashed per firing.
    pub rule_ids: Vec<u32>,
    /// Every distinct rule label, indexed by rule id, then `recv` (unless a
    /// rule carries it): what pointer records and archive annotations
    /// name a rule by, shared.
    pub labels: Vec<Arc<str>>,
    /// The id of `recv` in `labels`: the rule of a received tuple's pointer
    /// back to the node that derived it.
    pub recv: u32,
    /// `CompiledProgram::said_preds`, computed once; read through
    /// [`EvalShared::speaker_seen`].
    pub said_preds: Vec<bool>,
}

impl EvalShared {
    /// Whether the flight recorder is on; contexts record into their
    /// per-event trace buffer only when set, so disabled tracing costs one
    /// branch per hook and never allocates.
    pub(super) fn tracing(&self) -> bool {
        self.config.trace.is_some()
    }

    /// Whether some rule reads `pred` through a `says` term, and so can see
    /// which node a stored row of it is attributed to.  Never for a predicate
    /// interned after compilation: no rule names it.
    pub(super) fn speaker_seen(&self, pred: PredId) -> bool {
        self.said_preds.get(pred.index()) == Some(&true)
    }
}

/// Mutable evaluation state for one event: the one node runtime that owns
/// it, the engine's variable table, metrics and completion clock, and the
/// event's effect and trace logs.
pub(super) struct NodeCtx<'a> {
    pub shared: &'a EvalShared,
    pub id: NodeId,
    pub node: &'a mut NodeRuntime,
    pub var_table: &'a mut VarTable,
    pub metrics: &'a mut RunMetrics,
    pub completion: &'a mut SimTime,
    pub effects: &'a mut Vec<Effect>,
    /// Trace events recorded while evaluating this event; the engine
    /// flushes them to the recorder when it replays the event's effects.
    pub trace: &'a mut Vec<TraceEvent>,
}

impl<'a> NodeCtx<'a> {
    /// Dispatches one work item at its owning node.
    pub(super) fn run(&mut self, at: SimTime, work: NodeWork) -> Result<(), EngineError> {
        match work {
            NodeWork::Deliver(batch) => return self.process_batch(at, batch),
            NodeWork::Ship(frame) => self.seal_and_ship(at, frame),
            NodeWork::Handshakes { handshakes, .. } => self.process_handshakes(at, handshakes),
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

    /// One delta batch at its destination: verify the frame's proof, store
    /// its rows, and fire every rule the genuinely new ones trigger.
    fn process_batch(&mut self, at: SimTime, batch: DeltaBatch) -> Result<(), EngineError> {
        let DeltaBatch {
            pred,
            rows,
            origin,
            polarity,
            ..
        } = batch;
        let shared = self.shared;
        let cost_model = shared.config.cost_model;
        // Keep the node store's predicate mirror current (O(1) when in sync).
        self.node.store.sync_symbols(&shared.symbols);
        let pred_name = shared.symbols.name(pred).expect("interned predicate");

        let mut cpu_cost = rows.len() as u64 * cost_model.tuple_process_us;
        if let Origin::Remote {
            from,
            assertion: Some(assertion),
        } = &origin
        {
            let (ok, crypto_cost) = self.verify_frame(pred_name, &rows, *from, assertion, polarity);
            cpu_cost += crypto_cost;
            self.metrics.verifications += 1;
            if !ok {
                // The whole frame is rejected: a forged proof vouches for
                // none of the tuples it claims to cover.
                self.metrics.verification_failures += 1;
                self.charge(at, cpu_cost);
                return Ok(());
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
                    speaker: row.origin,
                    now: done,
                });
            }
            return Ok(());
        }

        // Delta evaluation over the genuinely new rows, one pass per
        // (rule, batch): plan dispatch and slot setup are shared by every
        // row in the batch.
        let remote = matches!(origin, Origin::Remote { .. });
        let new_deltas = self.store_rows(pred, pred_name, rows, remote, done);
        if new_deltas.is_empty() {
            return Ok(());
        }
        for (rule_plan, &rule_id) in shared.compiled.plans.iter().zip(&shared.rule_ids) {
            for delta_plan in rule_plan.deltas.iter().filter(|d| d.delta_pred == pred) {
                self.fire_rule(rule_id, rule_plan, delta_plan, &new_deltas, done)?;
            }
        }
        Ok(())
    }

    /// Checks the proof of a frame imported from node `from`: one `says`
    /// check over the canonical concatenated payload covers every tuple in
    /// the frame.  Returns whether the proof holds and the crypto CPU it
    /// cost the verifier.
    fn verify_frame(
        &mut self,
        pred_name: &str,
        rows: &[BatchRow],
        from: NodeId,
        assertion: &SaysAssertion,
        polarity: Polarity,
    ) -> (bool, u64) {
        let cost_model = self.shared.config.cost_model;
        let Some(verifier) = self.node.authenticator.as_ref() else {
            // A node provisioned with no keys checks no proofs.
            return (true, 0);
        };
        let payloads = frame_payloads(pred_name, rows, polarity);
        if let SaysProof::Session(_) = &assertion.proof {
            // Channel MAC: check against the per-link replay state installed
            // by the handshake.  No channel (dropped or rejected handshake)
            // → the frame is refused outright, no MAC computed, no crypto
            // charged.
            let receiving = self.node.peers.get_mut(&from);
            let Some(channel) = receiving.and_then(|peer| peer.recv.as_mut()) else {
                return (false, 0);
            };
            // `ReceiverChannel::verify_frame` computes exactly one HMAC,
            // accept or reject.
            self.metrics.hmac_ops += 1;
            let required = verifier.level();
            let verdict = verifier.verify_frame_on(channel, &payloads, assertion, required);
            return (verdict.is_ok(), cost_model.hmac_us);
        }
        let cost = match assertion.proof.level() {
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
        (verifier.verify_frame(&payloads, assertion).is_ok(), cost)
    }

    /// Stores an assertion batch's rows, one pass over the batch: each row
    /// is inserted (deduplicating against the row→seq map before any
    /// further provenance work), counted as one support in the deletion
    /// ledger and entered into the provenance stores.  Returns the
    /// genuinely new rows — the deltas that drive rule evaluation.
    fn store_rows(
        &mut self,
        pred: PredId,
        pred_name: &str,
        mut rows: Vec<BatchRow>,
        remote: bool,
        done: SimTime,
    ) -> Vec<NewDelta> {
        let shared = self.shared;
        // Base rows arrive untagged; their tags are minted here, before any
        // insert merges tags, so variables are allotted in arrival order.
        // Provenance keys (display strings) are rendered only when a tag
        // will actually hold them.
        if shared.config.provenance != ProvenanceKind::None {
            for row in rows.iter_mut().filter(|row| row.is_base) {
                let principal = principal_of(row.origin);
                let buf = &mut self.node.key_buf;
                let key = tuple::render_into(buf, pred_name, &row.values, row.location_index);
                row.tag = ProvTag::base(
                    shared.config.provenance,
                    &mut *self.var_table,
                    BaseTupleId(tuple::key_hash_parts(pred_name, &row.values)),
                    key,
                    shared.config.granularity.origin_of(principal),
                    shared.config.level_of(principal.0),
                );
            }
        }
        let expires_at = shared
            .config
            .default_ttl_us
            .map(|ttl| SimTime::from_micros(done.as_micros() + ttl));
        let mut soft_state = false;
        let mut new_deltas = Vec::new();
        for row in rows {
            let meta = TupleMeta {
                tag: row.tag.clone(),
                created_at: done,
                expires_at: if row.is_base { None } else { expires_at },
                origin: row.origin,
            };
            let var_table = &mut *self.var_table;
            let (outcome, seq) =
                self.node
                    .store
                    .insert_row(pred, row.values.clone(), meta, |a, b| a.plus(b, var_table));
            // Deletion ledger: every arriving row is one support of the
            // live row now holding its values — new, duplicate or
            // tag-merged alike — carrying the tag it contributed so deletion
            // can withdraw exactly it.
            if shared.config.dynamics {
                let ledger = &mut self.node.ledger;
                let contribution = Contribution {
                    is_base: row.is_base,
                    tag: row.tag.clone(),
                    speaker: row.origin,
                };
                ledger.record_arrival(seq, pred, contribution, row.location_index);
                if outcome == InsertOutcome::New
                    && ledger.retracted.contains(&(pred, row.values.clone()))
                {
                    self.metrics.rederivations += 1;
                }
                soft_state |= !row.is_base;
            }
            self.record_arrival_provenance(pred_name, &row, remote, done);
            if outcome == InsertOutcome::New {
                new_deltas.push(NewDelta {
                    seq,
                    values: row.values,
                    tag: row.tag,
                    origin: row.origin,
                });
            }
        }
        // Soft-state rows get their expiry scheduled as simulator work.
        if let (true, Some(expiry)) = (soft_state, expires_at) {
            self.effects.push(Effect::Expiry {
                node: self.id,
                at: expiry,
            });
        }
        new_deltas
    }

    /// Per-row provenance bookkeeping on arrival: a base fact's record in
    /// either graph mode, then by mode a `Local` node merges the row's
    /// bundle and a `Distributed` node points back at the sender.  The
    /// rendered tuple key is computed only on the branches that store it.
    fn record_arrival_provenance(
        &mut self,
        pred_name: &str,
        row: &BatchRow,
        remote: bool,
        done: SimTime,
    ) {
        let shared = self.shared;
        let node = &mut *self.node;
        let (values, location) = (&row.values, row.location_index);
        if row.is_base && shared.config.graph_mode != GraphMode::None {
            let tuple_key = tuple::render_into(&mut node.key_buf, pred_name, values, location);
            let base_id = BaseTupleId(tuple::key_hash_parts(pred_name, &row.values));
            node.prov
                .record_base(tuple_key, base_id, principal_of(row.origin));
        }
        if let Some(bundle) = &row.bundle {
            node.prov.merge(bundle);
        }
        // Distributed provenance: a tuple received from another node keeps
        // a pointer back to the deriving node, where its provenance lives.
        if remote
            && !row.is_base
            && shared.config.graph_mode == GraphMode::Distributed
            && row.origin != self.id
            && sampled_in(&shared.config.sampling, pred_name, &row.values)
        {
            let record = DerivationRecord {
                head_key: tuple::render_into(&mut node.key_buf, pred_name, values, location).into(),
                rule: shared.recv,
                antecedents: Vec::new(),
                speaker: row.origin,
                at: done,
            };
            if shared.config.maintenance == MaintenanceMode::Reactive {
                node.deferred.push(record);
            } else {
                record_provenance(shared, self.id, node, &record);
            }
        }
    }

    /// An arity conflict between a compiled atom and a row of `pred`.  Arity
    /// conflicts are caught at validate time and on fact insertion, so a
    /// mismatch during evaluation is an engine invariant violation, not a
    /// tuple to skip silently.
    fn arity_mismatch(&self, pred: PredId, expected: usize, got: usize) -> EngineError {
        let name = self.shared.symbols.name(pred);
        EngineError::ArityMismatch {
            predicate: name.expect("interned predicate").to_string(),
            expected,
            got,
        }
    }

    /// Evaluates one delta plan against a batch of arriving tuples and emits
    /// head tuples.  Plan dispatch and the slot-frame template are set up
    /// once per `(rule, batch)`; each row contributes its own seed branch.
    fn fire_rule(
        &mut self,
        rule_id: u32,
        rule_plan: &RulePlan,
        delta_plan: &DeltaPlan,
        deltas: &[NewDelta],
        now: SimTime,
    ) -> Result<(), EngineError> {
        let shared = self.shared;
        let mut template = Bindings::with_slots(rule_plan.slot_count);
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
        let (pred, args) = (delta_plan.delta_pred, &delta_plan.delta_args);
        let mut branches: Vec<Branch> = Vec::new();
        // Reused across the firing: the slots one unification attempt bound,
        // and the key a join probe is rendered into.
        let (mut key, mut bound) = (Vec::new(), Vec::new());
        for delta in deltas {
            if args.len() != delta.values.len() {
                return Err(self.arity_mismatch(pred, args.len(), delta.values.len()));
            }
            let origin = &shared.locations[ix(delta.origin)];
            let says = &delta_plan.delta_says;
            if unify_row(&mut template, &mut bound, args, says, &delta.values, origin) {
                let seed = Contrib {
                    pred,
                    values: delta.values.clone(),
                    location: delta_plan.location,
                    tag: delta.tag.clone(),
                    origin: delta.origin,
                    seq: delta.seq,
                };
                branches.push((template.clone(), vec![seed], delta.seq));
            }
            template.unbind(&mut bound);
        }
        if branches.is_empty() {
            return Ok(());
        }
        // Candidate tuples examined while evaluating this delta; charged to
        // the node's CPU below.  Index probes keep this close to the true
        // match count instead of the full relation size.
        let mut probes = 0usize;

        for step in &delta_plan.steps {
            branches = match step {
                PlanStep::Join(join) => {
                    self.join_step(join, branches, &mut probes, (&mut key, &mut bound))?
                }
                PlanStep::Filter(expr) => {
                    let mut kept = Vec::with_capacity(branches.len());
                    for branch in branches {
                        if eval_filter(expr, &branch.0)? {
                            kept.push(branch);
                        }
                    }
                    kept
                }
                PlanStep::Assign { slot, expr } => {
                    for (bind, ..) in &mut branches {
                        let value = eval_expr(expr, bind)?;
                        bind.bind_slot(*slot, value);
                    }
                    branches
                }
            };
            if branches.is_empty() {
                break;
            }
        }

        // Charge the join-probing work to this node's CPU, then emit heads at
        // the resulting completion time.
        let probe_cost = (probes as f64 * shared.config.cost_model.join_probe_us).round() as u64;
        let now = if probe_cost > 0 {
            self.charge(now, probe_cost)
        } else {
            now
        };

        if shared.tracing() {
            self.trace.push(TraceEvent {
                at_us: now.as_micros(),
                kind: TraceEventKind::RuleFire {
                    node: self.id.0,
                    rule: rule_plan.label.clone(),
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

    /// Extends every branch with each stored row of the joined predicate
    /// that unifies with it — branch order, then insertion order.
    ///
    /// Joins with bound key columns render the key from the branch's
    /// bindings; the store answers through its secondary index when one is
    /// installed and by walking the relation in insertion order otherwise
    /// (as it does for joins with no bound columns).  Candidates are tried
    /// on the branch's own frame and taken back afterwards, so only
    /// unifying tuples cost a frame, a contribution list and a tag clone.
    /// `probes` grows by the candidates examined (at least one per branch).
    fn join_step(
        &mut self,
        join: &JoinStep,
        branches: Vec<Branch>,
        probes: &mut usize,
        (key, bound): (&mut Vec<Value>, &mut Vec<usize>),
    ) -> Result<Vec<Branch>, EngineError> {
        let shared = self.shared;
        let store = &self.node.store;
        let mut next: Vec<Branch> = Vec::new();
        let (mut index_probes, mut index_hits, mut scan_probes) = (0u64, 0u64, 0u64);
        for (mut frame, contribs, delta_seq) in branches {
            // Render the key from the bound columns.  The planner
            // guarantees they are bound; an unexpectedly missing slot
            // degrades to the scan path.
            key.clear();
            let columns = join.key_columns.iter();
            key.extend(columns.map_while(|&c| frame.value_of(&join.args[c]).cloned()));
            let keyed = !key.is_empty() && key.len() == join.key_columns.len();
            // Rows inserted after this branch's delta (batch siblings) are
            // invisible to it, exactly as they were under per-tuple
            // processing — the store stops at the delta's seq, so they are
            // uncounted and the probe/hit/scan counters stay identical too.
            let probe = keyed.then_some((&join.key_columns[..], &key[..]));
            let candidates = store.candidates(join.pred, probe, delta_seq);
            let used_index = candidates.used_index();
            let mut examined = 0u64;
            for (stored_seq, stored_values, meta) in candidates {
                examined += 1;
                if stored_values.len() != join.args.len() {
                    let (expected, got) = (join.args.len(), stored_values.len());
                    return Err(self.arity_mismatch(join.pred, expected, got));
                }
                let origin = &shared.locations[ix(meta.origin)];
                let (args, says) = (&join.args, &join.says);
                if unify_row(&mut frame, bound, args, says, stored_values, origin) {
                    // The row itself is an `Arc` clone of the stored copy.
                    let mut extended = Vec::with_capacity(contribs.len() + 1);
                    extended.extend_from_slice(&contribs);
                    extended.push(Contrib {
                        pred: join.pred,
                        values: Arc::clone(stored_values),
                        location: join.location,
                        tag: meta.tag.clone(),
                        origin: meta.origin,
                        seq: stored_seq,
                    });
                    next.push((frame.clone(), extended, delta_seq));
                }
                frame.unbind(bound);
            }
            if used_index {
                index_probes += 1;
                index_hits += examined;
            } else {
                scan_probes += examined;
            }
            *probes += examined.max(1) as usize;
        }
        self.metrics.index_probes += index_probes;
        self.metrics.index_hits += index_hits;
        self.metrics.scan_probes += scan_probes;
        Ok(next)
    }

    /// Pipelined aggregate state without dynamics: folds `value` into its
    /// group and returns the group's new value, or `None` when an
    /// `a_MIN`/`a_MAX` value does not improve on the best so far — only an
    /// improvement emits, and nothing is ever withdrawn.
    fn fold_aggregate(&mut self, func: AggFunc, key: GroupKey, value: i64) -> Option<i64> {
        let Some(running) = self.node.running.get_mut(&key) else {
            let first = match func {
                AggFunc::Count => 1,
                AggFunc::Min | AggFunc::Max | AggFunc::Sum => value,
            };
            self.node.running.insert(key, first);
            return Some(first);
        };
        *running = match func {
            AggFunc::Min if value >= *running => return None,
            AggFunc::Max if value <= *running => return None,
            AggFunc::Min | AggFunc::Max => value,
            AggFunc::Count => *running + 1,
            AggFunc::Sum => *running + value,
        };
        Some(*running)
    }

    /// Provenance tag of a head: the product of the contributing tuples' tags.
    fn tag_product(&mut self, contribs: &[Contrib]) -> ProvTag {
        let kind = self.shared.config.provenance;
        if kind == ProvenanceKind::None {
            return ProvTag::None;
        }
        let mut acc = ProvTag::one(kind, &mut *self.var_table);
        for c in contribs {
            acc = acc.times(&c.tag, &mut *self.var_table);
            self.metrics.provenance_ops += 1;
        }
        acc
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
        let head = &rule_plan.head;
        self.metrics.derivations += 1;

        let cell = |term| {
            let value = bindings.value_of(term).cloned();
            value.expect("the planner binds every head slot")
        };

        // Aggregate handling.  With dynamics, every aggregate is an election
        // instead of a running value: *every* candidate is recorded in the
        // ledger (with its own value in the head row), and the election
        // below decides what the destination actually stores — so a dead
        // candidate re-elects the group's value from the survivors instead
        // of leaving a stale row behind.
        let mut agg_candidate: Option<AggFiring> = None;
        // The aggregate column and the value a running aggregate emits in it.
        let mut folded: Option<(usize, i64)> = None;
        if let Some((func, agg_index, slot)) = head.aggregate {
            let value = bindings.get_slot(slot).and_then(Value::as_int);
            let value = value.ok_or_else(|| {
                let label = &rule_plan.label;
                EngineError::Eval(format!(
                    "aggregated variable of rule {label} is not an integer"
                ))
            })?;
            let others = head
                .args
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != agg_index);
            let group: Vec<Value> = others.map(|(_, term)| cell(term)).collect();
            if shared.config.dynamics {
                agg_candidate = Some(AggFiring {
                    rule: rule_id,
                    group,
                    value,
                    agg_index,
                    func,
                });
            } else {
                match self.fold_aggregate(func, (rule_id, group), value) {
                    Some(new_value) => folded = Some((agg_index, new_value)),
                    None => return Ok(()),
                }
            }
        }

        // Materialise the head row once, as the shared representation every
        // consumer (store, provenance, wire) will reference.
        let args = head.args.iter().enumerate();
        let head_values: Arc<[Value]> = args
            .map(|(i, term)| match folded {
                Some((at, value)) if at == i => Value::Int(value),
                _ => cell(term),
            })
            .collect();

        let tag = self.tag_product(contribs);

        // Destination: the one place evaluation resolves a location value.
        // The head's display location is kept for provenance records.
        let destination = match (&head.export_to, head.location) {
            (Some(term), _) => bindings.value_of(term).expect("the planner binds it"),
            (None, Some(column)) => &head_values[column],
            (None, None) => local,
        };
        let dest_id = if destination == local {
            self.id
        } else {
            match shared.directory.get(destination) {
                Some(&id) => id,
                None => return Err(EngineError::UnknownLocation(destination.clone())),
            }
        };

        // Deletion ledger: record the firing — the head it produced, the
        // tag it contributed, and the antecedent rows by seq — so deletion
        // can replay it with opposite polarity.  Aggregate candidates are
        // recorded with their own candidate value in the head row (and the
        // aggregate identity attached), so killing one feeds the group's
        // re-election instead of routing a withdrawal.
        if shared.config.dynamics {
            self.node.ledger.record_firing(
                (dest_id, head.pred, head_values.clone()),
                tag.clone(),
                head.location,
                agg_candidate.clone(),
                contribs.iter().map(|c| c.seq),
            );
        }

        // Aggregate candidates under dynamics: the ledger record above is
        // the candidate's identity; emission is decided by the per-group
        // election.  (Provenance records are not kept for candidate
        // firings — record-keeping configs run the non-dynamics aggregate
        // path.)
        if let Some(agg) = agg_candidate {
            let row = BatchRow::derived(head_values, tag, self.id, head.location);
            self.elect_aggregate(dest_id, head.pred, row, agg, now);
            return Ok(());
        }

        // Provenance records (sampled; deferred in reactive mode).  The
        // rendered display keys are derived from the shared rows here, only
        // when something will actually be recorded.
        let records_graphs =
            shared.config.graph_mode != GraphMode::None || shared.config.archive_offline;
        let head_name = shared.symbols.name(head.pred);
        let head_name = head_name.expect("head predicate interned at plan time");
        if records_graphs {
            if sampled_in(&shared.config.sampling, head_name, &head_values) {
                let buf = &mut self.node.key_buf;
                let record = DerivationRecord {
                    head_key: tuple::render_into(buf, head_name, &head_values, head.location)
                        .into(),
                    rule: rule_id,
                    antecedents: contribs
                        .iter()
                        .map(|c| (c.render_key(&shared.symbols, buf), c.origin))
                        .collect(),
                    speaker: self.id,
                    at: now,
                };
                if shared.config.maintenance == MaintenanceMode::Reactive {
                    self.node.deferred.push(record);
                } else {
                    record_provenance(shared, self.id, self.node, &record);
                }
            } else {
                self.metrics.sampled_out += 1;
            }
        }

        let mut row = BatchRow::derived(head_values, tag, self.id, head.location);
        // Local-provenance mode piggybacks the head's records as they stand
        // at emission time; their wire bytes are charged when the frame
        // seals.
        if dest_id != self.id && shared.config.graph_mode == GraphMode::Local {
            let buf = &mut self.node.key_buf;
            let head_key = tuple::render_into(buf, head_name, &row.values, head.location);
            row.bundle = self.node.prov.bundle(head_key).map(Box::new);
        }
        self.route_row(now, dest_id, head.pred, row, Polarity::Assert);
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

    /// Enters one candidate into its group's election (dynamics only) and
    /// emits only when the group's value moves — withdrawing the old row
    /// first, so the destination never holds two rows of one group.  An
    /// `a_MIN`/`a_MAX` group therefore emits a candidate that beats the
    /// best, an `a_COUNT`/`a_SUM` group its new size or sum; every
    /// candidate stays in the multiset, and `settle_agg_kill` re-elects
    /// when one dies.
    fn elect_aggregate(
        &mut self,
        destination: NodeId,
        pred: PredId,
        row: BatchRow,
        mut agg: AggFiring,
        now: SimTime,
    ) {
        let key = (agg.rule, std::mem::take(&mut agg.group));
        let election = self.node.elections.entry(key).or_default();
        let tags = election.candidates.entry(agg.value).or_default();
        tags.push(row.tag.clone());
        let ops = &mut self.metrics.provenance_ops;
        let (withdrawn, elected) = election.reelect(agg.func, self.var_table, ops);
        let with_value = |(value, tag): (i64, ProvTag)| {
            let values = agg.row_with(&row.values, value);
            BatchRow::derived(values, tag, row.origin, row.location_index)
        };
        if let Some(old) = withdrawn {
            self.route_row(now, destination, pred, with_value(old), Polarity::Retract);
        }
        match elected {
            // The candidate itself won: its row is the one to assert.
            Some((value, tag)) if value == agg.value => {
                let row = BatchRow { tag, ..row };
                self.route_row(now, destination, pred, row, Polarity::Assert);
            }
            Some(new) => self.route_row(now, destination, pred, with_value(new), Polarity::Assert),
            None => {}
        }
    }
}

/// Whether `sampling` records the provenance of `pred(values)`.  The
/// decision depends on the tuple alone, so the deriving node's record and
/// the receiver's `recv` pointer to it are always kept or dropped together.
fn sampled_in(sampling: &SamplingPolicy, pred: &str, values: &[Value]) -> bool {
    sampling.one_in <= 1 || sampling.records(tuple::key_hash_parts(pred, values))
}

/// Unifies one row with an atom's compiled argument patterns and, for a
/// `says`-qualified atom, the location of the node that asserted the row
/// with the principal term.  The slots it binds are recorded in `bound`
/// (see [`Bindings::unbind`]).
fn unify_row(
    bindings: &mut Bindings,
    bound: &mut Vec<usize>,
    args: &[SlotTerm],
    says: &Option<SlotTerm>,
    values: &[Value],
    origin: &Value,
) -> bool {
    let mut pairs = args.iter().zip(values);
    pairs.all(|(term, value)| bindings.unify_slot_term(term, value, bound))
        && says
            .as_ref()
            .is_none_or(|principal| bindings.unify_slot_term(principal, origin, bound))
}

/// The `rule@node` annotation of rule label `label` at node `id`: rendered
/// once per (node, label) — `recv` included — then shared by every pointer
/// record and archive entry filed under it.
fn annotation(shared: &EvalShared, id: NodeId, node: &mut NodeRuntime, label: u32) -> Arc<str> {
    if node.annotations.is_empty() {
        node.annotations.resize(shared.labels.len(), None);
    }
    let annotation = node.annotations[label as usize].get_or_insert_with(|| {
        let (rule, local) = (&shared.labels[label as usize], &shared.names[ix(id)]);
        format!("{rule}@{local}").into()
    });
    annotation.clone()
}

/// Writes one derivation, recorded at node `id`, into that node's pointer
/// and archive stores: the one writer of both graph modes and of both
/// maintenance modes.  A `Local` node holds every antecedent's records
/// itself, so each is a local pointer; a `Distributed` node points at the
/// node an antecedent came from.  The archive logs rule firings only, not
/// `recv` pointers.  A free function so both the evaluation context and the
/// engine's deferred materialization pass share it.
pub(super) fn record_provenance(
    shared: &EvalShared,
    id: NodeId,
    node: &mut NodeRuntime,
    record: &DerivationRecord,
) {
    let graph_mode = shared.config.graph_mode;
    let recv = record.speaker != id;
    let annotation = annotation(shared, id, node, record.rule);
    if graph_mode != GraphMode::None {
        let pointer = |key: &Arc<str>, origin: NodeId| {
            let key = key.clone();
            if graph_mode == GraphMode::Local || origin == id {
                AntecedentRef::Local(key)
            } else {
                let location = shared.names[ix(origin)].clone();
                AntecedentRef::Remote { location, key }
            }
        };
        let antecedents = if recv {
            vec![pointer(&record.head_key, record.speaker)]
        } else {
            let antecedents = record.antecedents.iter();
            antecedents
                .map(|(key, origin)| pointer(key, *origin))
                .collect()
        };
        let derivation = PointerDerivation {
            rule: annotation.clone(),
            antecedents,
        };
        let speaker = principal_of(record.speaker);
        node.prov
            .record_derivation(&record.head_key, speaker, derivation);
    }
    if shared.config.archive_offline && !recv {
        node.archive.record(ArchivedEntry {
            key: record.head_key.clone(),
            annotation,
            derived_at: record.at.as_micros(),
            expired_at: None,
        });
    }
}
