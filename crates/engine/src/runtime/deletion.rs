//! Network dynamics and provenance-guided deletion: scripted churn,
//! scheduled TTL expiry, retraction cascades through the per-node ledgers,
//! aggregate re-election and the well-founded reconciliation sweep.
//!
//! Dynamics work stays on the engine: it is inherently engine-global (it
//! walks multiple nodes, reschedules queue work and raises the sweep flag)
//! and never joins a wave.

use super::eval::record_provenance;
use super::queue::{BatchRow, GlobalWork, Polarity};
use super::{ix, node_ids, DistributedEngine, EngineError};
use crate::config::GraphMode;
use crate::dynamics::{BaseRow, ChurnEvent, Contribution, HeadKey};
use crate::hash::{FastMap, FastSet};
use crate::tuple::{self, Tuple};
use pasn_datalog::{PredId, Value};
use pasn_net::{NodeId, SimTime};
use pasn_provenance::{ProvTag, ProvenanceKind};
use pasn_trace::TraceEventKind;
use std::collections::VecDeque;
use std::sync::Arc;

/// One row leaving a node's store: where it lives, what it holds and why it
/// goes.
pub(super) struct Removal {
    loc: NodeId,
    pred: PredId,
    values: Arc<[Value]>,
    reason: &'static str,
    /// Wipe the row outright instead of withdrawing one contribution.
    force: bool,
}

impl Removal {
    /// Withdraws one contribution of the row; it survives while others
    /// remain.
    pub(super) fn withdraw(
        loc: NodeId,
        pred: PredId,
        values: Arc<[Value]>,
        reason: &'static str,
    ) -> Self {
        Removal {
            loc,
            pred,
            values,
            reason,
            force: false,
        }
    }

    /// Wipes the row outright, however many contributions support it.
    fn wipe(loc: NodeId, pred: PredId, values: Arc<[Value]>, reason: &'static str) -> Self {
        Removal {
            force: true,
            ..Self::withdraw(loc, pred, values, reason)
        }
    }
}

/// Engine-global dynamics state (the per-node part is each node's ledger).
#[derive(Default)]
pub(super) struct DeletionState {
    /// Distinct `(node, instant)` expiry sweeps already scheduled.
    scheduled_expiries: FastSet<(NodeId, u64)>,
    /// Base tuples withdrawn by node failures and crashes, kept for rejoin.
    failed_nodes: FastMap<NodeId, Vec<BaseRow>>,
    /// Set when any row was removed; cleared by the well-founded sweep that
    /// runs when the queue drains (recursive self-support cleanup).
    needs_sweep: bool,
    /// Nodes whose ledger lost rows or firings during the current work
    /// item; reclaimed once it finishes (`reclaim_dead_state`).
    reclaim_at: Vec<NodeId>,
}

impl DistributedEngine {
    /// Schedules one TTL expiry sweep of `node` at `at` (deduplicated per
    /// distinct instant, so a thousand tuples expiring together cost one
    /// queue entry).
    pub(super) fn schedule_expiry(&mut self, node: NodeId, at: SimTime) {
        if self
            .deletion
            .scheduled_expiries
            .insert((node, at.as_micros()))
        {
            self.queue.push_global(at, GlobalWork::Expire { node });
        }
    }

    /// Scheduled TTL expiry: every row at `loc` whose lifetime has passed
    /// dies *now*, mid-run — removed from the store and cascaded through
    /// the deletion ledger exactly like a retraction (rows whose TTL was
    /// refreshed since scheduling are naturally skipped).
    pub(super) fn process_expiry(&mut self, at: SimTime, loc: NodeId) {
        self.deletion
            .scheduled_expiries
            .remove(&(loc, at.as_micros()));
        let expired = self.nodes[ix(loc)].store.take_expired(at);
        if expired.is_empty() {
            return;
        }
        let rows = expired.len() as u32;
        self.trace_event(at, TraceEventKind::Expiry { node: loc.0, rows });
        let cost = expired.len() as u64 * self.shared.config.cost_model.tuple_process_us;
        let done = self.charge(loc, at, cost);
        for (pred, seq, values, meta) in expired {
            // Expiry wipes the row outright (force): upstream contributions
            // die with it rather than decrementing one by one.
            let removal = Removal::wipe(loc, pred, values, "expired");
            self.settle_removed(removal, seq, meta.created_at, done, None);
        }
    }

    /// Applies one scripted churn event at its scheduled time.  Location
    /// values are resolved here, once, at the boundary.
    pub(super) fn process_churn(
        &mut self,
        at: SimTime,
        event: ChurnEvent,
    ) -> Result<(), EngineError> {
        // Everything earlier has drained under either driver: sample the
        // footprint here, every few simulated windows.  The gauges are
        // running totals and cheap to read, but the cadence is part of what
        // the peak counters mean, so it stays.
        if at.as_micros() >= self.next_peak_sample_us {
            self.sample_memory_peak();
            let gap_us = self.shared.config.batch_window_us.max(250) * 4;
            self.next_peak_sample_us = at.as_micros() + gap_us;
        }
        self.metrics.churn_events += 1;
        if self.recorder.is_some() {
            let (kind, subject) = match &event {
                ChurnEvent::LinkUp { src, dst, .. } => ("link-up", format!("{src}->{dst}")),
                ChurnEvent::LinkDown { src, dst } => ("link-down", format!("{src}->{dst}")),
                ChurnEvent::LinkCut { src, dst } => ("link-cut", format!("{src}->{dst}")),
                ChurnEvent::NodeCrash { node } => ("node-crash", node.to_string()),
                ChurnEvent::NodeFail { node } => ("node-fail", node.to_string()),
                ChurnEvent::NodeRejoin { node } => ("node-rejoin", node.to_string()),
                ChurnEvent::Insert { location, tuple } => {
                    ("insert", format!("{location} {}", tuple.predicate))
                }
                ChurnEvent::Retract { location, tuple } => {
                    ("retract", format!("{location} {}", tuple.predicate))
                }
                ChurnEvent::Refresh { location, tuple } => {
                    ("refresh", format!("{location} {}", tuple.predicate))
                }
            };
            let kind = kind.to_string();
            self.trace_event(at, TraceEventKind::Churn { kind, subject });
        }
        match event {
            ChurnEvent::Insert { location, tuple } => {
                self.insert_fact_at(location, tuple, at)?;
            }
            ChurnEvent::LinkUp { src, dst, cost } => {
                let mut values = vec![src.clone(), dst];
                values.extend(cost.map(Value::Int));
                self.insert_fact_at(src, Tuple::new("link", values), at)?;
            }
            ChurnEvent::LinkDown { src, dst } => {
                let src_id = self.resolve(&src)?;
                // Channel teardown is scheduled (graceful): it lands after
                // the link's in-flight frames — including this retraction's
                // own tombstones — have drained.
                if let Some(&dst_id) = self.shared.directory.get(&dst) {
                    self.schedule_channel_eviction(at, src_id, dst_id);
                }
                self.retract_links(src_id, &src, &dst, "retracted", at);
            }
            ChurnEvent::LinkCut { src, dst } => {
                let src_id = self.resolve(&src)?;
                // Crash-style cut: in-flight frames die *now* (reconciled
                // against the ledger) and the channel is evicted without
                // drain — unlike LinkDown's graceful teardown above.
                if let Some(&dst_id) = self.shared.directory.get(&dst) {
                    self.cut_link_transport(at, src_id, dst_id);
                }
                self.retract_links(src_id, &src, &dst, "link-cut", at);
            }
            ChurnEvent::NodeFail { node } => {
                let id = self.resolve(&node)?;
                let base = self.remember_base_rows(id);
                for peer in node_ids(self.nodes.len()).filter(|&peer| peer != id) {
                    self.schedule_channel_eviction(at, id, peer);
                    self.schedule_channel_eviction(at, peer, id);
                }
                for (pred, values) in base {
                    self.retract_row(Removal::wipe(id, pred, values, "node-failed"), None, at);
                }
            }
            ChurnEvent::NodeCrash { node } => {
                let id = self.resolve(&node)?;
                // Crash without drain: every frame in the air to or from the
                // node dies and is reconciled, every adjacent channel is
                // evicted immediately, then the node's base tuples are
                // force-retracted exactly like NodeFail (so NodeRejoin can
                // restore them).
                for peer in node_ids(self.nodes.len()).filter(|&peer| peer != id) {
                    self.cut_link_transport(at, id, peer);
                    self.cut_link_transport(at, peer, id);
                }
                for (pred, values) in self.remember_base_rows(id) {
                    self.retract_row(Removal::wipe(id, pred, values, "node-crashed"), None, at);
                }
            }
            ChurnEvent::NodeRejoin { node } => {
                let id = self.resolve(&node)?;
                for (pred, values) in self.deletion.failed_nodes.remove(&id).unwrap_or_default() {
                    let row = self.base_row(id, pred, values);
                    self.enqueue_local(at, id, pred, row, Polarity::Assert);
                }
            }
            ChurnEvent::Retract { location, tuple } => {
                let id = self.resolve(&location)?;
                // A predicate never interned has no row to withdraw.
                if let Some(pred) = self.known_pred(&tuple)? {
                    let removal = Removal::withdraw(id, pred, tuple.values.into(), "retracted");
                    self.retract_row(removal, None, at);
                }
            }
            ChurnEvent::Refresh { location, tuple } => {
                let id = self.resolve(&location)?;
                let pred = self.known_pred(&tuple)?;
                if let (Some(pred), Some(ttl)) = (pred, self.shared.config.default_ttl_us) {
                    let expires = SimTime::from_micros(at.as_micros() + ttl);
                    let store = &mut self.nodes[ix(id)].store;
                    if store.refresh_row_ttl(pred, &tuple.values, Some(expires)) {
                        self.schedule_expiry(id, expires);
                    }
                }
            }
        }
        Ok(())
    }

    /// Retracts every `link(src, dst, ...)` base tuple stored at `src`.
    fn retract_links(
        &mut self,
        at_node: NodeId,
        src: &Value,
        dst: &Value,
        reason: &'static str,
        at: SimTime,
    ) {
        let store = &self.nodes[ix(at_node)].store;
        let Some(pred) = store.pred_id("link") else {
            return;
        };
        let victims: Vec<Arc<[Value]>> = store
            .scan_ordered_rows(pred)
            .filter(|(v, _)| v.first() == Some(src) && v.get(1) == Some(dst))
            .map(|(v, _)| v.clone())
            .collect();
        for values in victims {
            self.retract_row(Removal::withdraw(at_node, pred, values, reason), None, at);
        }
    }

    /// A failing node's base rows in insertion order, remembered for its
    /// rejoin.
    fn remember_base_rows(&mut self, id: NodeId) -> Vec<BaseRow> {
        let node = &self.nodes[ix(id)];
        let row = |(seq, pred)| Some((pred, node.store.row_by_seq(pred, seq)?.0.clone()));
        let base: Vec<BaseRow> = node.ledger.base_seqs().filter_map(row).collect();
        self.deletion.failed_nodes.insert(id, base.clone());
        base
    }

    /// Lets every ledger the finished work item removed rows or killed
    /// firings at drop its log if nothing in it is alive any more.  Called
    /// between work items only: a retraction cascade carries raw firing ids
    /// across its steps, and a dropped log starts them over.
    pub(super) fn reclaim_dead_state(&mut self) {
        let touched = &mut self.deletion.reclaim_at;
        touched.sort_unstable();
        touched.dedup();
        for loc in touched.drain(..) {
            let ledger = &mut self.nodes[ix(loc)].ledger;
            if ledger.reclaim() {
                debug_assert_eq!(ledger.check_consistency(), Ok(()), "ledger of {loc:?}");
            }
        }
    }

    /// Verifies every node's deletion ledger (see
    /// `Ledger::check_consistency`); the first inconsistency is reported
    /// with its node.  Debug builds assert it whenever the queue drains.
    pub fn check_ledger_consistency(&self) -> Result<(), String> {
        let mut nodes = self.shared.locations.iter().zip(&self.nodes);
        nodes.try_for_each(|(loc, node)| {
            let checked = node.ledger.check_consistency();
            checked.map_err(|why| format!("ledger at {loc}: {why}"))
        })
    }

    /// Verifies that no stored row is attributed to a node that no longer
    /// says it: wherever a rule reads a predicate through a `says` term, a
    /// row's recorded origin is the speaker of one of its live contributions.
    /// Holds whenever the queue has drained; debug builds assert it there.
    pub fn check_speaker_consistency(&self) -> Result<(), String> {
        let seen = |pred: PredId| self.shared.speaker_seen(pred);
        for (loc, node) in self.shared.locations.iter().zip(&self.nodes) {
            let supports = node.ledger.supports.iter();
            for (seq, entry) in supports.filter(|(_, entry)| seen(entry.pred)) {
                let Some((values, meta)) = node.store.row_by_seq(entry.pred, *seq) else {
                    continue;
                };
                if !entry.tags.iter().any(|c| c.speaker == meta.origin) {
                    let says = &self.shared.locations[ix(meta.origin)];
                    let name = self.shared.symbols.name(entry.pred).unwrap_or("?");
                    return Err(format!(
                        "{name}{values:?} at {loc}: {says} no longer says it"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Takes the pending sweep request raised by row removals since the
    /// last sweep.
    pub(super) fn take_sweep_request(&mut self) -> bool {
        std::mem::take(&mut self.deletion.needs_sweep)
    }

    /// Silences the sender-side firing that produced one row of a dead
    /// assert frame (preferring an exact tag match among the alive firings
    /// of that head).  Dynamics runs never dedup shipment rows, so rows and
    /// firings correspond one to one.  A dead aggregate candidate
    /// additionally leaves its group's election and triggers a
    /// re-election — the surviving topology's best must still reach the
    /// destination.  An `a_COUNT`/`a_SUM` row is its group's, not one
    /// firing's: nothing is silenced, and the group's next change ships its
    /// value again.
    pub(super) fn silence_dead_row(
        &mut self,
        src: NodeId,
        dest: NodeId,
        pred: PredId,
        values: &Arc<[Value]>,
        tag: &ProvTag,
        now: SimTime,
    ) {
        let ledger = &mut self.nodes[ix(src)].ledger;
        let head = (dest, pred, values.clone());
        let alive = |exact: bool| {
            ledger.heading(&head).find(|&i| {
                let f = &ledger.firings[i as usize];
                f.alive && (!exact || f.tag == *tag)
            })
        };
        let Some(idx) = alive(true).or_else(|| alive(false)) else {
            return;
        };
        ledger.kill(idx);
        let is_candidate = ledger.firings[idx as usize].agg.is_some();
        self.deletion.reclaim_at.push(src);
        if is_candidate {
            self.settle_agg_kill(src, idx, now, false, true, None);
        }
    }

    /// Withdraws one contribution of the row holding `values` at `loc` (or,
    /// with `force`, wipes the row outright).  A tuple with remaining
    /// alternative derivations survives with its tag recomputed as the
    /// semiring sum of the surviving contributions; an unsupported tuple is
    /// removed and its recorded firings cascade as deletions.  A retraction
    /// whose row is absent is a no-op: per-link FIFO delivery plus the
    /// queue's polarity rank guarantee a tombstone never precedes its
    /// assertion, so an absent row was force-killed (expiry, node failure,
    /// sweep) and the withdrawn contribution already died with it.
    /// `withdrawn` is a tombstone's tag and speaker; scripted retractions
    /// carry none.
    pub(super) fn retract_row(
        &mut self,
        removal: Removal,
        withdrawn: Option<(&ProvTag, NodeId)>,
        now: SimTime,
    ) {
        let (loc, pred, force) = (removal.loc, removal.pred, removal.force);
        let node = &mut self.nodes[ix(loc)];
        let Some(seq) = node.store.seq_of(pred, &removal.values) else {
            return;
        };
        let entry = node
            .ledger
            .supports
            .get_mut(&seq)
            .expect("dynamics records every live row");
        let mut resay = Vec::new();
        if !force && entry.tags.len() > 1 {
            // Alternative derivations survive: consume the withdrawn
            // contribution and recompute the tag from the remainder —
            // exactly what the semiring sum of the surviving derivation
            // events yields (a DerivationCount tag literally decrements).
            // A tombstone always withdraws a *firing* contribution, never a
            // base assertion — matching the tag alone could hit a base entry
            // with an equal tag (all tags are `ProvTag::None` without
            // semiring provenance) and silently destroy base support.
            // Scripted retractions conversely prefer base contributions.
            // Where a rule can see who said the row, a tombstone withdraws
            // what its own speaker said.
            let seen = self.shared.speaker_seen(pred);
            let tags = &entry.tags;
            let pos = match withdrawn {
                Some((tag, speaker)) => {
                    let firing = |c: &Contribution| !c.is_base && c.tag == *tag;
                    let said = |c: &Contribution| seen && firing(c) && c.speaker == speaker;
                    let said = tags.iter().position(said);
                    said.or_else(|| tags.iter().position(firing))
                        .or_else(|| tags.iter().rposition(|c| !c.is_base))
                }
                None => tags.iter().position(|c| c.is_base),
            };
            let gone = entry.tags.remove(pos.unwrap_or(entry.tags.len() - 1));
            if gone.is_base {
                // Withdrawing base support without removing the row can
                // strand a recursion island (the tuple now rests purely on
                // firings that may form a cycle): the well-founded sweep
                // must check once the wave drains.
                self.deletion.needs_sweep = true;
            }
            // The stored row unifies `W says p(…)` with the speaker it first
            // arrived under.  When that speaker's last contribution goes,
            // the row dies with its cascade below and the survivors are said
            // again, each under its own speaker.
            let orphaned = seen && {
                let row = node.store.row_by_seq(pred, seq);
                let origin = row.map(|(_, meta)| meta.origin);
                let by_origin = |c: &Contribution| Some(c.speaker) == origin;
                by_origin(&gone) && !entry.tags.iter().any(by_origin)
            };
            if !orphaned {
                if self.shared.config.provenance != ProvenanceKind::None && !entry.tags.is_empty() {
                    let mut merged = entry.tags[0].tag.clone();
                    for c in &entry.tags[1..] {
                        merged = merged.plus(&c.tag, &mut self.var_table);
                        self.metrics.provenance_ops += 1;
                    }
                    node.store.set_tag(pred, seq, merged);
                }
                return;
            }
            let location_index = entry.location.index();
            resay.extend(entry.tags.drain(..).map(|c| BatchRow {
                is_base: c.is_base,
                ..BatchRow::derived(removal.values.clone(), c.tag, c.speaker, location_index)
            }));
        }
        let Some((_, meta)) = node.store.remove_by_seq(pred, seq) else {
            return;
        };
        self.settle_removed(removal, seq, meta.created_at, now, None);
        for row in resay {
            self.enqueue_local(now, loc, pred, row, Polarity::Assert);
        }
    }

    /// Settles the provenance of a row `(pred, values, @ column)` that left
    /// `loc`'s store at `now`: a `Local` node forgets the tuple (a pointer
    /// store keeps its records, so a moonwalk still explains it) and the
    /// offline archives stamp its entries.  An entry is filed where the
    /// rule that derived the row fired, so every node's archive stamps the
    /// key's live entries; `loc`'s archive records the death with `reason`,
    /// appending an entry of its own when it held none.  Under reactive
    /// maintenance the death is the event that materialises the row's
    /// deferred records first, so the stamps land on the entries proactive
    /// maintenance would have archived.
    pub(super) fn forget_provenance(
        &mut self,
        loc: NodeId,
        (pred, values, location): (PredId, &[Value], Option<usize>),
        reason: &str,
        created_at: SimTime,
        now: SimTime,
    ) {
        let local_graph = self.shared.config.graph_mode == GraphMode::Local;
        let archive_offline = self.shared.config.archive_offline;
        if !local_graph && !archive_offline {
            return;
        }
        let node = &mut self.nodes[ix(loc)];
        let pred_name = self.shared.symbols.name(pred).unwrap_or("?");
        let key = tuple::render_into(&mut node.key_buf, pred_name, values, location);
        if local_graph {
            node.prov.forget(key);
        }
        if archive_offline {
            let key: Arc<str> = key.into();
            let (derived_at, expired_at) = (created_at.as_micros(), now.as_micros());
            for (id, node) in node_ids(self.nodes.len()).zip(&mut self.nodes) {
                let (dying, deferred) = std::mem::take(&mut node.deferred)
                    .into_iter()
                    .partition::<Vec<_>, _>(|record| record.head_key == key);
                node.deferred = deferred;
                for record in &dying {
                    record_provenance(&self.shared, id, node, record);
                }
                if id == loc {
                    node.archive
                        .record_expiry(&key, reason, derived_at, expired_at);
                } else {
                    node.archive.stamp(&key, expired_at);
                }
            }
        }
    }

    /// Bookkeeping shared by every removal path (retraction, expiry, node
    /// failure, sweep): settle the ledger, settle the row's provenance
    /// ([`DistributedEngine::forget_provenance`]), and withdraw the dead row's
    /// recorded firings — locally or as tombstone frames.  `suppress` drops
    /// routes into heads the caller is deleting itself (the sweep's
    /// zombie-to-zombie edges).
    fn settle_removed(
        &mut self,
        removal: Removal,
        seq: u64,
        created_at: SimTime,
        now: SimTime,
        suppress: Option<&FastSet<HeadKey>>,
    ) {
        let Removal {
            loc,
            pred,
            values,
            reason,
            force,
        } = removal;
        if self.recorder.is_some() {
            let pred_name = self.shared.symbols.name(pred).unwrap_or("?");
            let retraction = TraceEventKind::Retraction {
                node: loc.0,
                pred: pred_name.to_string(),
                reason: reason.to_string(),
            };
            self.trace_event(now, retraction);
        }
        let (agg_kills, routes): (Vec<u32>, Vec<u32>);
        {
            let node = &mut self.nodes[ix(loc)];
            let entry = node.ledger.supports.remove(&seq);
            node.ledger.retracted.insert((pred, values.clone()));
            let location = entry.as_ref().and_then(|e| e.location.index());
            self.forget_provenance(loc, (pred, &values, location), reason, created_at, now);
            let node = &mut self.nodes[ix(loc)];
            let mut killed = node.ledger.take_readers(seq);
            killed.retain(|&idx| node.ledger.kill(idx));
            // Aggregate candidates withdraw through group re-election, not
            // directly: only the emitted best was ever visible downstream.
            let firings = &node.ledger.firings;
            (agg_kills, routes) = killed
                .iter()
                .partition(|&&i| firings[i as usize].agg.is_some());
        }
        self.metrics.retractions += 1;
        self.deletion.needs_sweep = true;
        self.deletion.reclaim_at.push(loc);
        self.charge_compaction(loc, now);
        if force {
            // The row was wiped, not decremented to zero: alive upstream
            // firings whose contribution died with it must fall silent, or
            // their own later death would send a tombstone cancelling a
            // future legitimate re-derivation.
            self.silence_upstream(loc, pred, &values, now);
        }
        for idx in agg_kills {
            self.settle_agg_kill(loc, idx, now, true, true, suppress);
        }
        for idx in routes {
            let firing = &self.nodes[ix(loc)].ledger.firings[idx as usize];
            let head = (firing.dest, firing.pred, firing.values.clone());
            if !suppress.is_some_and(|s| s.contains(&head)) {
                let (tag, column) = (firing.tag.clone(), firing.location.index());
                self.route_row(loc, head, tag, column, Polarity::Retract, now);
            }
        }
    }

    /// Charges any lazy-compaction debt the node's store accumulated while
    /// removing rows to the *owning node's* CPU lane (not the global
    /// clock): the walked slots are that node's housekeeping and delay
    /// only its own lane.
    fn charge_compaction(&mut self, loc: NodeId, now: SimTime) {
        let walked = self.nodes[ix(loc)].store.take_compaction_debt();
        if walked == 0 {
            return;
        }
        self.metrics.compaction_walked += walked;
        let cost = (walked as f64 * self.shared.config.cost_model.compact_entry_us).round() as u64;
        if cost > 0 {
            self.charge(loc, now, cost);
        }
    }

    /// Marks every alive firing (at any node) whose head is the force-killed
    /// row as dead, without withdrawing anything — its contribution was
    /// wiped together with the row.  Dead aggregate candidates still leave
    /// their group's election (no withdrawal, no re-election: the head was
    /// wiped with its store, and the group stays silent until its next
    /// arrival or death).  An `a_COUNT`/`a_SUM` row heads no firing; its
    /// group emits again at its next change.
    fn silence_upstream(
        &mut self,
        dest: NodeId,
        pred: PredId,
        values: &Arc<[Value]>,
        now: SimTime,
    ) {
        let key = (dest, pred, values.clone());
        for loc in node_ids(self.nodes.len()) {
            let ledger = &mut self.nodes[ix(loc)].ledger;
            let mut agg_kills = ledger.take_heading(&key);
            if !agg_kills.is_empty() {
                self.deletion.reclaim_at.push(loc);
            }
            agg_kills.retain(|&idx| ledger.kill(idx) && ledger.firings[idx as usize].agg.is_some());
            for idx in agg_kills {
                self.settle_agg_kill(loc, idx, now, false, false, None);
            }
        }
    }

    /// Settles the death of one aggregate-candidate firing at `loc`: the
    /// candidate leaves its group's multiset, and — only if that moves the
    /// group's value (for `a_MIN`/`a_MAX`: the emitted best died with no
    /// tied twin left defending it) — the stale row is withdrawn downstream
    /// (`route_withdrawal`) and the survivors' value, if any, is re-elected
    /// and emitted (`reelect`).  So retracting the tuple that carried the
    /// current winner converges to the surviving candidates' best, and a
    /// count or sum goes down.  Without `reelect` (the head was wiped with
    /// its store) the group falls silent until its next arrival or death.
    /// `suppress` drops the withdrawal into heads the caller is deleting
    /// itself (the sweep's zombie-to-zombie edges).
    fn settle_agg_kill(
        &mut self,
        loc: NodeId,
        idx: u32,
        now: SimTime,
        route_withdrawal: bool,
        reelect: bool,
        suppress: Option<&FastSet<HeadKey>>,
    ) {
        let node = &mut self.nodes[ix(loc)];
        let firing = &node.ledger.firings[idx as usize];
        let (dest, pred, column) = (firing.dest, firing.pred, firing.location.index());
        let agg = firing.agg.as_ref().expect("aggregate firing");
        let key = (agg.rule, agg.group.clone());
        let Some(election) = node.elections.get_mut(&key) else {
            return;
        };
        if let Some(tags) = election.candidates.get_mut(&agg.value) {
            match tags.iter().position(|t| *t == firing.tag) {
                Some(pos) => drop(tags.remove(pos)),
                None => drop(tags.pop()),
            }
            if tags.is_empty() {
                election.candidates.remove(&agg.value);
            }
        }
        let ops = &mut self.metrics.provenance_ops;
        let (withdrawn, mut elected) = election.reelect(agg.func, &mut self.var_table, ops);
        if !reelect && (withdrawn.is_some() || elected.is_some()) {
            election.emitted = None;
            elected = None;
        }
        if election.candidates.is_empty() && election.emitted.is_none() {
            node.elections.remove(&key);
        }
        let head = |value: i64| (dest, pred, agg.row_with(&firing.values, value));
        let withdrawn = withdrawn.map(|(value, tag)| (head(value), tag));
        let elected = elected.map(|(value, tag)| (head(value), tag));
        if let Some((head, tag)) = withdrawn.filter(|_| route_withdrawal) {
            if !suppress.is_some_and(|s| s.contains(&head)) {
                self.route_row(loc, head, tag, column, Polarity::Retract, now);
            }
        }
        if let Some((head, tag)) = elected {
            self.route_row(loc, head, tag, column, Polarity::Assert, now);
        }
    }

    /// Routes one row derived at `src` — a withdrawn firing's deletion or a
    /// re-elected aggregate best — to its head's node: appended to the open
    /// local batch, or to the open shipment (tombstone) frame for remote
    /// heads (signed once per frame over polarity-marked payloads, honest
    /// wire accounting).
    fn route_row(
        &mut self,
        src: NodeId,
        (dest, pred, values): HeadKey,
        tag: ProvTag,
        location_index: Option<usize>,
        polarity: Polarity,
        now: SimTime,
    ) {
        let row = BatchRow::derived(values, tag, src, location_index);
        if dest == src {
            self.enqueue_local(now, dest, pred, row, polarity);
        } else {
            self.buffer_ship(now, src, dest, pred, row, polarity);
        }
    }

    /// The reconciliation pass that closes support counting's recursion
    /// hole: two tuples can keep each other alive through a cycle of
    /// firings with no base support left (the classic counting-algorithm
    /// limitation; cf. log-based reconciliation of replicated state).  Once
    /// a retraction wave drains the queue, mark every row reachable from
    /// base support through alive firings; unsupported survivors are
    /// garbage-collected, with their alive firings' contributions withdrawn
    /// from supported heads (zombie-to-zombie edges die silently, since
    /// both ends are deleted here).
    pub(super) fn well_founded_sweep(&mut self, now: SimTime) {
        // Mark: seed with live rows holding base support, then propagate
        // through alive firings whose antecedents are all supported.
        let mut supported: Vec<FastSet<u64>> = vec![FastSet::default(); self.nodes.len()];
        let mut work: VecDeque<(usize, u64)> = VecDeque::new();
        for (i, node) in self.nodes.iter().enumerate() {
            let live = |&(seq, pred): &(u64, PredId)| node.store.row_by_seq(pred, seq).is_some();
            for (seq, _) in node.ledger.base_seqs().filter(live) {
                supported[i].insert(seq);
                work.push_back((i, seq));
            }
        }
        while let Some((i, seq)) = work.pop_front() {
            let node = &self.nodes[i];
            for idx in node.ledger.readers(seq) {
                let firing = &node.ledger.firings[idx as usize];
                let mut antecedents = node.ledger.antecedents(idx);
                if !firing.alive || !antecedents.all(|a| supported[i].contains(&a)) {
                    continue;
                }
                // A pooled aggregate candidate supports the row its group
                // emits now.
                let pooled;
                let head = match &firing.agg {
                    Some(agg) if !firing.heads_a_row() => {
                        let election = node.elections.get(&(agg.rule, agg.group.clone()));
                        let Some((value, _)) = election.and_then(|e| e.emitted.as_ref()) else {
                            continue;
                        };
                        pooled = agg.row_with(&firing.values, *value);
                        &pooled
                    }
                    _ => &firing.values,
                };
                let j = ix(firing.dest);
                if let Some(head_seq) = self.nodes[j].store.seq_of(firing.pred, head) {
                    if supported[j].insert(head_seq) {
                        work.push_back((j, head_seq));
                    }
                }
            }
        }
        // Sweep: collect the unsupported survivors, deterministically.
        // One zombie: (node, seq, pred, values, created_at).
        type Zombie = (NodeId, u64, PredId, Arc<[Value]>, SimTime);
        let mut zombies: Vec<Zombie> = Vec::new();
        let mut zombie_heads: FastSet<HeadKey> = FastSet::default();
        for (i, node) in self.nodes.iter().enumerate() {
            let loc = NodeId(i as u32);
            let mut dead: Vec<u64> = node
                .ledger
                .supports
                .keys()
                .copied()
                .filter(|seq| !supported[i].contains(seq))
                .collect();
            dead.sort_unstable();
            for seq in dead {
                let entry = &node.ledger.supports[&seq];
                if let Some((values, meta)) = node.store.row_by_seq(entry.pred, seq) {
                    zombies.push((loc, seq, entry.pred, values.clone(), meta.created_at));
                    zombie_heads.insert((loc, entry.pred, values.clone()));
                }
            }
        }
        for (loc, seq, pred, values, created_at) in zombies {
            let done = self.charge(loc, now, self.shared.config.cost_model.tuple_process_us);
            if self.nodes[ix(loc)].store.remove_by_seq(pred, seq).is_none() {
                continue;
            }
            let removal = Removal::withdraw(loc, pred, values, "unsupported");
            self.settle_removed(removal, seq, created_at, done, Some(&zombie_heads));
        }
        // The sweep is a work item of its own; its cascades are over.
        self.reclaim_dead_state();
    }
}
