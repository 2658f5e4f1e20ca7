//! The unreliable-link transport (fault-plan runs): per-link sequencing,
//! the sender's in-flight buffer, receiver-side in-order holdback,
//! coalesced cumulative acks, and timeout retransmission with exponential
//! backoff under a bounded retry budget.  Reliable runs bypass all of it.

use super::queue::{DeltaBatch, GlobalWork, NodeWork, Origin, Polarity};
use super::{node_ids, node_of, DistributedEngine, EngineError, Link, Peer, Removal};
use crate::config::{DEFAULT_RETRANSMIT_RTO_US, DEFAULT_RETRY_BUDGET};
use crate::hash::FastMap;
use pasn_net::wire::{Frame, MESSAGE_HEADER_BYTES};
use pasn_net::{NodeId, SimTime};
use pasn_trace::TraceEventKind;
use std::collections::BTreeMap;

/// One frame in flight on a faulty link: the queued payload (taken when the
/// frame is first delivered, so `None` marks delivered-but-unacked) and how
/// many retransmission attempts it has consumed.
struct InFlightFrame {
    work: Option<NodeWork>,
    attempt: u8,
}

/// Reliability state of one directed link.
#[derive(Default)]
struct LinkState {
    /// Next frame sequence number to assign; frames are released to
    /// evaluation strictly in this order at the receiver.
    next_seq: u64,
    /// Frames sent but not yet cumulatively acked.
    inflight: BTreeMap<u64, InFlightFrame>,
    /// The receiver's next in-order sequence number.  Everything below it
    /// has been released to evaluation exactly once.
    next_expected: u64,
    /// Out-of-order frames parked at the receiver until the gap fills.
    holdback: BTreeMap<u64, NodeWork>,
    /// A cumulative ack is already scheduled: acks are delayed and
    /// coalesced, one covers every delivery up to its fire instant.
    ack_pending: bool,
    /// Trace-only ship ordinal for reliable (no fault plan) runs, where the
    /// transport assigns no sequence numbers.  Only advanced while tracing.
    trace_seq: u64,
}

/// What became of a frame arriving at the far end of its link.
enum Arrival {
    /// A duplicate (or a retransmission that raced its own ack) of a frame
    /// already released.
    Replay,
    /// The twin of a duplicated frame already parked in holdback, or a
    /// frame whose link was cut while it flew: nothing to deliver.
    Gone,
    /// Parked in the link's holdback buffer.
    Parked,
}

/// Replaces a drained buffer with a fresh one: an emptied `BTreeMap` keeps
/// its root node, a few kB of frame slots per link for the rest of the run.
fn release_if_drained<V>(buffer: &mut BTreeMap<u64, V>) {
    if buffer.is_empty() {
        *buffer = BTreeMap::new();
    }
}

/// The reliability layer's state: one [`LinkState`] per directed link,
/// created on first use.  A link's send and holdback buffers are released
/// whenever they drain, so transport memory follows the frames in the air.
#[derive(Default)]
pub(super) struct LinkTransport {
    links: FastMap<Link, LinkState>,
}

impl LinkTransport {
    fn link(&mut self, link: Link) -> &mut LinkState {
        self.links.entry(link).or_default()
    }

    /// Frames sent and not yet cumulatively acked, across all links (the
    /// trace gauge; a sum, so the map's order cannot reach it).
    pub(super) fn inflight_frames(&self) -> u64 {
        self.links.values().map(|l| l.inflight.len() as u64).sum()
    }

    /// Whether a sequenced frame on `link` is still undelivered.
    pub(super) fn has_undelivered(&self, link: Link) -> bool {
        let link = self.links.get(&link);
        link.is_some_and(|l| l.inflight.values().any(|f| f.work.is_some()))
    }

    /// The next trace-only ship ordinal of a reliable link.
    fn next_trace_seq(&mut self, link: Link) -> u64 {
        let state = self.link(link);
        let seq = state.trace_seq;
        state.trace_seq += 1;
        seq
    }

    /// The sequence number the link's next frame will get.
    fn peek_seq(&self, link: Link) -> u64 {
        self.links.get(&link).map_or(0, |l| l.next_seq)
    }

    /// Assigns the link's next sequence number to `work` and parks it in
    /// the send buffer.
    fn send(&mut self, link: Link, work: NodeWork) {
        let state = self.link(link);
        let frame = InFlightFrame {
            work: Some(work),
            attempt: 0,
        };
        state.inflight.insert(state.next_seq, frame);
        state.next_seq += 1;
    }

    /// Lands frame `seq` at the receiver: replays of released sequence
    /// numbers are recognised, a fresh payload moves from the send buffer
    /// into holdback.
    fn arrive(&mut self, link: Link, seq: u64) -> Arrival {
        let state = self.link(link);
        if seq < state.next_expected {
            return Arrival::Replay;
        }
        match state.inflight.get_mut(&seq).and_then(|f| f.work.take()) {
            Some(work) => {
                state.holdback.insert(seq, work);
                Arrival::Parked
            }
            None => Arrival::Gone,
        }
    }

    /// Releases the next in-order frame from holdback, advancing the
    /// receive cursor.
    fn release_next(&mut self, link: Link) -> Option<(u64, NodeWork)> {
        let state = self.link(link);
        let seq = state.next_expected;
        let work = state.holdback.remove(&seq)?;
        release_if_drained(&mut state.holdback);
        state.next_expected += 1;
        Some((seq, work))
    }

    /// Marks a cumulative ack pending; false when one already is.
    fn claim_ack(&mut self, link: Link) -> bool {
        !std::mem::replace(&mut self.link(link).ack_pending, true)
    }

    /// Fires the pending ack: prunes every in-flight frame below the
    /// receive cursor (their retransmission timers fire into nothing) and
    /// returns the cursor.
    fn ack(&mut self, link: Link) -> u64 {
        let state = self.link(link);
        state.ack_pending = false;
        let upto = state.next_expected;
        state.inflight = state.inflight.split_off(&upto);
        release_if_drained(&mut state.inflight);
        upto
    }

    /// Consumes one retransmission attempt of frame `seq`; `None` when the
    /// frame was acked, died with a cut link, or was delivered and only
    /// awaits its cumulative ack.
    fn retry(&mut self, link: Link, seq: u64) -> Option<u8> {
        let frame = self.link(link).inflight.get_mut(&seq)?;
        frame.work.as_ref()?;
        frame.attempt = frame.attempt.saturating_add(1);
        Some(frame.attempt)
    }

    /// Gives up on frame `seq`, handing back its undelivered payload.
    fn abandon(&mut self, link: Link, seq: u64) -> Option<NodeWork> {
        let state = self.link(link);
        let frame = state.inflight.remove(&seq)?;
        release_if_drained(&mut state.inflight);
        frame.work
    }

    /// Crash-style cut: every frame in the air (sent but undelivered, or
    /// parked out of order in holdback) dies, in send order, and the
    /// receive cursor fast-forwards so late replays and retransmission
    /// timers of the dead frames fall into the duplicate path.
    fn cut(&mut self, link: Link) -> Vec<(u64, NodeWork)> {
        let state = self.link(link);
        let mut dead: Vec<(u64, NodeWork)> = std::mem::take(&mut state.inflight)
            .into_iter()
            .filter_map(|(seq, frame)| Some((seq, frame.work?)))
            .chain(std::mem::take(&mut state.holdback))
            .collect();
        dead.sort_unstable_by_key(|&(seq, _)| seq);
        state.next_expected = state.next_seq;
        dead
    }

    /// Verifies every link's sequencing state: the receive cursor never
    /// passes the send cursor, holdback parks only sequence numbers between
    /// the two, nothing in flight is numbered past the send cursor, and a
    /// parked frame's in-flight entry has given up its payload.
    fn check_consistency(&self) -> Result<(), String> {
        let sound = |l: &LinkState| {
            let taken = |seq| l.inflight.get(seq).is_none_or(|f| f.work.is_none());
            let parked = |seq| (l.next_expected..l.next_seq).contains(seq) && taken(seq);
            l.next_expected <= l.next_seq
                && l.holdback.keys().all(parked)
                && l.inflight.keys().all(|seq| *seq < l.next_seq)
        };
        match self.links.iter().find(|(_, l)| !sound(l)) {
            Some((link, l)) => Err(format!(
                "link {link:?}: cursors {}..{}, holdback {:?}, in flight {:?}",
                l.next_expected,
                l.next_seq,
                l.holdback.keys(),
                l.inflight.keys()
            )),
            None => Ok(()),
        }
    }
}

impl DistributedEngine {
    /// Verifies the link state no reachable run may break: at every node,
    /// an installed session-channel half is bound at or past that half's
    /// own epoch floor, and every sequenced link passes
    /// `LinkTransport::check_consistency`.  Debug builds assert it
    /// whenever the queue drains.  The stronger contiguity form — every
    /// sequence number between a link's two cursors is in flight or parked
    /// — was tried and does not hold: a frame abandoned at its retry budget
    /// leaves its gap for good (the sustained-loss test of
    /// `lossy_equivalence_prop.rs` trips it); a cut link passes only because
    /// its receive cursor fast-forwards over whatever died in the air.
    pub fn check_link_consistency(&self) -> Result<(), String> {
        for (id, node) in node_ids(self.nodes.len()).zip(&self.nodes) {
            let bound_past_floor = |(_, peer): &(&NodeId, &Peer)| {
                let send = peer.send.as_ref().map(|channel| channel.epoch());
                let recv = peer.recv.as_ref().map(|channel| channel.epoch());
                send.is_none_or(|epoch| epoch >= peer.send_floor)
                    && recv.is_none_or(|epoch| epoch >= peer.recv_floor)
            };
            if let Some((peer, _)) = node.peers.iter().find(|end| !bound_past_floor(end)) {
                return Err(format!(
                    "channel {id:?} <-> {peer:?} is bound below its epoch floor"
                ));
            }
        }
        self.transport.check_consistency()
    }

    /// Routes finalized queue work (a sealed remote frame, a scheduled
    /// handshake) through the unreliable transport when a fault plan is
    /// installed.  Reliable runs — and work that never crosses a link —
    /// push straight onto the queue, so the fault machinery costs nothing
    /// when disabled.
    pub(super) fn queue_transport(&mut self, at: SimTime, work: NodeWork) {
        // The link the work crosses and, for a data frame, its tuple count.
        let (link, frame_tuples) = match &work {
            NodeWork::Deliver(DeltaBatch {
                origin: Origin::Remote { from, .. },
                destination,
                rows,
                ..
            }) => (Some((*from, *destination)), Some(rows.len() as u32)),
            NodeWork::Handshakes {
                destination,
                handshakes,
            } => {
                let sender = handshakes.first().map(|h| node_of(h.transcript.src));
                (sender.map(|src| (src, *destination)), None)
            }
            NodeWork::Deliver(_) | NodeWork::Ship(_) => (None, None),
        };
        let plan = self.shared.config.fault_plan.as_ref();
        let (Some(link), Some(plan)) = (link, plan) else {
            // On the reliable transport no per-link sequence numbers exist:
            // the trace records a remote frame's ship event under a
            // trace-only per-link ordinal.  Delivery is implicit (reliable,
            // in order), so no matching deliver event is emitted;
            // handshakes are covered by their own handshake event.
            if let (Some(link), Some(tuples), true) = (link, frame_tuples, self.recorder.is_some())
            {
                let seq = self.transport.next_trace_seq(link);
                let (NodeId(src), NodeId(dst)) = link;
                let shipped = TraceEventKind::FrameShipped {
                    src,
                    dst,
                    seq,
                    tuples,
                };
                self.trace_event(at, shipped);
            }
            self.queue.push_node(at, work);
            return;
        };
        // The plan's rolls are pure functions of (seed, link, seq, attempt):
        // read them all before the transport state is touched.
        let seq = self.transport.peek_seq(link);
        let (NodeId(src), NodeId(dst)) = link;
        let deliver_at = at + SimTime::from_micros(plan.extra_delay_us(src, dst, seq));
        let (dropped, duplicated) = (plan.drops(src, dst, seq, 0), plan.duplicates(src, dst, seq));
        self.transport.send(link, work);
        let arrival = || GlobalWork::FrameArrival { link, seq };
        let Some(tuples) = frame_tuples else {
            // Handshakes are sequenced with the data frames they key (they
            // must neither overtake nor be overtaken on the link) but
            // modeled reliable: channel setup is the control plane, and a
            // lost handshake would only re-run the identical signed
            // transcript below the simulation's cost granularity.
            self.queue.push_global(at, arrival());
            return;
        };
        let shipped = TraceEventKind::FrameShipped {
            src,
            dst,
            seq,
            tuples,
        };
        self.trace_event(at, shipped);
        if dropped {
            self.metrics.frames_dropped += 1;
            let dropped = TraceEventKind::FrameDropped {
                src,
                dst,
                seq,
                attempt: 0,
            };
            self.trace_event(deliver_at, dropped);
            self.queue.push_global(
                deliver_at + SimTime::from_micros(DEFAULT_RETRANSMIT_RTO_US),
                GlobalWork::Retransmit { link, seq },
            );
            return;
        }
        if duplicated {
            self.metrics.frames_duplicated += 1;
            self.trace_event(
                deliver_at,
                TraceEventKind::FrameDuplicated { src, dst, seq },
            );
            self.queue.push_global(deliver_at, arrival());
        }
        self.queue.push_global(deliver_at, arrival());
    }

    /// Lands one frame at the receiving end of a faulty link: replays of
    /// already-released sequence numbers are deduplicated (and re-acked, so
    /// the sender stops retransmitting), fresh frames park in the link's
    /// holdback buffer, and the in-order prefix is released through normal
    /// evaluation — which is what keeps session-channel replay counters
    /// strictly monotonic even though the transport reorders, drops and
    /// duplicates frames underneath them.
    pub(super) fn process_frame_arrival(
        &mut self,
        at: SimTime,
        link: Link,
        seq: u64,
    ) -> Result<(), EngineError> {
        match self.transport.arrive(link, seq) {
            Arrival::Replay => self.schedule_ack(at, link),
            Arrival::Gone => {}
            Arrival::Parked => {
                let (NodeId(src), NodeId(dst)) = link;
                let mut progressed = false;
                while let Some((seq, work)) = self.transport.release_next(link) {
                    progressed = true;
                    if matches!(work, NodeWork::Deliver(_)) {
                        self.trace_event(at, TraceEventKind::FrameDelivered { src, dst, seq });
                    }
                    // Released frames evaluate at the arrival instant that
                    // filled the gap — the earliest an in-order transport
                    // could have delivered them.
                    self.eval_event(at, work)?;
                }
                if progressed {
                    self.schedule_ack(at, link);
                }
            }
        }
        Ok(())
    }

    /// Schedules one delayed cumulative ack from the receiving end of
    /// `link` back to its sender, coalescing: while an ack is pending on
    /// the link, further deliveries ride the same one (its cumulative
    /// cursor is read when it fires).
    fn schedule_ack(&mut self, at: SimTime, link: Link) {
        if !self.transport.claim_ack(link) {
            return;
        }
        let latency = self
            .shared
            .config
            .cost_model
            .message_latency(Frame::ack().wire_bytes());
        self.queue
            .push_global(at + latency, GlobalWork::AckFrame { link });
    }

    /// Fires one cumulative ack: every in-flight frame below the
    /// receiver's in-order cursor is settled (its retransmission timers
    /// die with it), and the ack's own wire bytes are charged dst → src.
    pub(super) fn process_ack(&mut self, at: SimTime, link: Link) {
        self.metrics.acks += 1;
        self.account_send(link.1, Frame::ack().wire_bytes());
        let upto = self.transport.ack(link);
        let (NodeId(src), NodeId(dst)) = link;
        self.trace_event(at, TraceEventKind::FrameAcked { src, dst, upto });
    }

    /// Fires one retransmission timer: if the frame is still undelivered
    /// and unacknowledged, re-roll the fault plan with the next attempt
    /// number and either deliver it or back off exponentially.  The retry
    /// budget is a hard stop (reached only when the plan's loss-burst bound
    /// exceeds it): an exhausted frame is reconciled exactly like one that
    /// died with a cut link.
    pub(super) fn process_retransmit(&mut self, at: SimTime, link: Link, seq: u64) {
        let Some(attempt) = self.transport.retry(link, seq) else {
            return;
        };
        let (NodeId(src), NodeId(dst)) = link;
        let plan = self.shared.config.fault_plan.as_ref();
        let dropped = plan.is_some_and(|plan| plan.drops(src, dst, seq, attempt));
        self.metrics.retransmits += 1;
        let retransmit = TraceEventKind::FrameRetransmit {
            src,
            dst,
            seq,
            attempt: u32::from(attempt),
        };
        self.trace_event(at, retransmit);
        if attempt > 1 {
            self.metrics.backoff_events += 1;
        }
        self.metrics.max_retransmit_per_frame = self
            .metrics
            .max_retransmit_per_frame
            .max(u64::from(attempt));
        if u32::from(attempt) >= DEFAULT_RETRY_BUDGET {
            if let Some(work) = self.transport.abandon(link, seq) {
                self.trace_event(at, TraceEventKind::FrameDead { src, dst, seq });
                self.reconcile_dead_frame(at, link.0, work);
            }
            return;
        }
        if dropped {
            self.metrics.frames_dropped += 1;
            let dropped = TraceEventKind::FrameDropped {
                src,
                dst,
                seq,
                attempt: u32::from(attempt),
            };
            self.trace_event(at, dropped);
            let backoff = DEFAULT_RETRANSMIT_RTO_US << attempt.min(6);
            let retry_at = at + SimTime::from_micros(backoff);
            self.queue
                .push_global(retry_at, GlobalWork::Retransmit { link, seq });
            return;
        }
        // The retransmitted copy lands after one header-sized transport
        // hop.  Its payload bytes were charged when the original sealed;
        // retransmission bandwidth rides outside the paper's figures (which
        // measure a reliable transport) and is tracked by the
        // `retransmits` counter instead.
        let latency = self
            .shared
            .config
            .cost_model
            .message_latency(MESSAGE_HEADER_BYTES);
        self.queue
            .push_global(at + latency, GlobalWork::FrameArrival { link, seq });
    }

    /// Crash-without-drain teardown of the directed transport `src → dst`:
    /// every in-flight frame dies on the spot and is reconciled in send
    /// order (see [`LinkTransport::cut`]), and the link's session channel
    /// is evicted immediately.  Future sends on the pair still work — only
    /// what was in the air is lost — which is what lets the cut's own
    /// retraction cascade ship its tombstones.  A reliable transport holds
    /// nothing to discard: every frame already sent is queued and will
    /// arrive, so its channel is torn down after them, as a link going down
    /// tears it down.
    pub(super) fn cut_link_transport(&mut self, at: SimTime, src: NodeId, dst: NodeId) {
        if self.shared.config.fault_plan.is_none() {
            self.schedule_channel_eviction(at, src, dst);
            return;
        }
        for (seq, work) in self.transport.cut((src, dst)) {
            let dead = TraceEventKind::FrameDead {
                src: src.0,
                dst: dst.0,
                seq,
            };
            self.trace_event(at, dead);
            self.reconcile_dead_frame(at, src, work);
        }
        let installed = self.channel_epochs((src, dst));
        self.evict_channel(at, (src, dst), installed);
    }

    /// Ledger reconciliation for one frame sent by `src` that died with a cut
    /// link (or an exhausted retry budget): an assert frame's rows never created their
    /// supports, so the sender-side firings are silenced — their later
    /// death must not withdraw what never arrived.  A tombstone frame's
    /// withdrawals are applied directly at the destination: the fixpoint
    /// would otherwise wait forever for a retraction the link already ate.
    fn reconcile_dead_frame(&mut self, at: SimTime, src: NodeId, work: NodeWork) {
        // A dead handshake needs no ledger work: the sender rebinds at a
        // fresh epoch on its next shipment.
        let NodeWork::Deliver(batch) = work else {
            return;
        };
        let (dest, pred) = (batch.destination, batch.pred);
        for row in &batch.rows {
            match batch.polarity {
                Polarity::Assert => {
                    self.silence_dead_row(src, dest, pred, &row.values, &row.tag, at)
                }
                Polarity::Retract => {
                    let removal = Removal::withdraw(dest, pred, row.values.clone(), "reconciled");
                    self.retract_row(removal, Some((&row.tag, row.origin)), at)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A frame with no rows: the transport never reads its payload.
    fn frame() -> NodeWork {
        NodeWork::Handshakes {
            destination: NodeId(1),
            handshakes: Vec::new(),
        }
    }

    #[test]
    fn a_link_releases_in_order_and_drains_to_nothing() {
        let link = (NodeId(0), NodeId(1));
        let mut transport = LinkTransport::default();
        for _ in 0..3 {
            transport.send(link, frame());
        }
        assert_eq!(transport.peek_seq(link), 3);
        assert_eq!(transport.inflight_frames(), 3);

        // Frame 2 overtakes the others and parks; its duplicate finds
        // nothing left to deliver.
        assert!(matches!(transport.arrive(link, 2), Arrival::Parked));
        assert!(transport.release_next(link).is_none());
        assert!(matches!(transport.arrive(link, 2), Arrival::Gone));
        assert_eq!(transport.links[&link].holdback.len(), 1);

        // The gap fills and all three release in send order.
        assert!(matches!(transport.arrive(link, 0), Arrival::Parked));
        assert!(matches!(transport.arrive(link, 1), Arrival::Parked));
        let released: Vec<u64> = std::iter::from_fn(|| transport.release_next(link))
            .map(|(seq, _)| seq)
            .collect();
        assert_eq!(released, [0, 1, 2]);
        assert!(transport.links[&link].holdback.is_empty());
        assert!(!transport.has_undelivered(link));
        assert!(matches!(transport.arrive(link, 1), Arrival::Replay));
        assert_eq!(transport.check_consistency(), Ok(()));

        // One cumulative ack settles every frame; a timer that fires late
        // finds nothing to retry.
        assert!(transport.claim_ack(link));
        assert!(!transport.claim_ack(link));
        assert_eq!(transport.ack(link), 3);
        assert_eq!(transport.inflight_frames(), 0);
        assert!(transport.retry(link, 1).is_none());

        // The drained link numbers on from where it stopped.
        transport.send(link, frame());
        let keys: Vec<u64> = transport.links[&link].inflight.keys().copied().collect();
        assert_eq!(keys, [3]);
        assert_eq!(transport.check_consistency(), Ok(()));
    }
}
