//! Shipment: sealing frames (dedup, one `says` proof per frame, honest
//! wire accounting), session channels (handshakes, rebinds, eviction) and
//! the receiver side of coalesced handshake batches.

use super::eval::{Effect, PartitionCtx};
use super::queue::{BatchRow, DeltaBatch, Polarity, QueuedWork, ShipFrame};
use super::{ix, partition_of, principal_of, DistributedEngine};
use crate::config::DEFAULT_RETRANSMIT_RTO_US;
use crate::hash::FastMap;
use crate::tuple;
use pasn_crypto::channel::{ChannelHandshake, ReceiverChannel, SenderChannel};
use pasn_crypto::says::{tombstone_payloads, SaysLevel, TOMBSTONE_MARKER};
use pasn_crypto::PrincipalId;
use pasn_datalog::Value;
use pasn_net::wire::Frame;
use pasn_net::{NodeId, SimTime};
use pasn_trace::{TraceEvent, TraceEventKind};
use std::sync::Arc;

/// The canonical per-tuple payloads a frame's proof is computed (and
/// checked) over.  Tombstone frames are proved over polarity-marked
/// payloads (see `pasn_crypto::says::tombstone_payloads`), so a data frame
/// can never pass as a deletion of the same tuples (and vice versa).
pub(super) fn frame_payloads(
    pred_name: &str,
    rows: &[BatchRow],
    polarity: Polarity,
) -> Vec<Vec<u8>> {
    let encode = |row: &BatchRow| tuple::encode_parts(pred_name, &row.values);
    let raw: Vec<Vec<u8>> = rows.iter().map(encode).collect();
    match polarity {
        Polarity::Assert => raw,
        Polarity::Retract => tombstone_payloads(&raw),
    }
}

impl<'a> PartitionCtx<'a> {
    /// Seals one shipment frame: dedups identical rows, signs the canonical
    /// concatenated payload once, charges one message header plus every
    /// tuple's honest payload bytes, and schedules delivery as a single
    /// remote delta batch.
    pub(super) fn seal_and_ship(&mut self, at: SimTime, frame: ShipFrame) {
        let ShipFrame {
            dst,
            pred,
            mut rows,
            polarity,
            ..
        } = frame;
        let shared = self.shared;

        // Dedup identical rows before signing: a duplicate would be signed
        // and shipped only to be absorbed by the receiver's row→seq dedup
        // map.  Tags merge with the semiring `+` and piggybacked graphs
        // merge structurally, so no provenance is lost.  Retraction frames
        // are NOT deduplicated — two identical tombstones withdraw two
        // distinct supports — and neither are dynamics-run data frames: the
        // deletion ledger counts one support per arriving contribution, so
        // merging two firings' rows into one would leave a tombstone
        // unmatched later (deletion would over-withdraw).  A one-row frame
        // has nothing to dedup.
        let keep_all = polarity == Polarity::Retract || shared.config.dynamics || rows.len() < 2;
        let deduped: Vec<BatchRow> = if keep_all {
            rows
        } else {
            let mut seen: FastMap<Arc<[Value]>, usize> =
                FastMap::with_capacity_and_hasher(rows.len(), Default::default());
            let mut deduped: Vec<BatchRow> = Vec::with_capacity(rows.len());
            for row in rows.drain(..) {
                match seen.get(&row.values) {
                    Some(&at) => {
                        let existing = &mut deduped[at];
                        existing.tag = existing.tag.plus(&row.tag, &mut *self.var_table);
                        match (&mut existing.shipped_graph, row.shipped_graph) {
                            (Some(g), Some(h)) => g.merge(&h),
                            (slot @ None, h @ Some(_)) => *slot = h,
                            _ => {}
                        }
                    }
                    None => {
                        seen.insert(row.values.clone(), deduped.len());
                        deduped.push(row);
                    }
                }
            }
            deduped
        };

        let pred_name = shared.symbols.name(pred).expect("interned predicate");

        // One signature covers the whole frame; `signatures` scales with
        // frames shipped, not tuples.  At the `Session` level the per-frame
        // proof is a channel MAC, with the RSA work paid once per link by
        // the key-establishment handshake (`ensure_channel`).
        // A tombstone's wire bytes are charged for the polarity-marked
        // payload its proof covers (see [`frame_payloads`]).
        let (mut wire, marker_bytes) = match polarity {
            Polarity::Assert => (Frame::new(), 0),
            Polarity::Retract => (Frame::tombstone(), TOMBSTONE_MARKER.len()),
        };
        let mut assertion = None;
        let mut sign_cost = 0u64;
        if let Some(level) = shared.config.says_level {
            if level == SaysLevel::Session {
                self.ensure_channel(at, dst);
            }
            // Only a proof needs the rows' bytes; the wire accounting below
            // needs their length alone.
            let payloads = frame_payloads(pred_name, &deduped, polarity);
            let authenticator = self
                .node
                .authenticator
                .as_ref()
                .expect("authentication configured");
            let a = match level {
                SaysLevel::Session => {
                    let channel = self
                        .node
                        .send_channels
                        .get_mut(&principal_of(dst))
                        .expect("ensure_channel opened the link");
                    self.metrics.hmac_ops += 1;
                    sign_cost = shared.config.cost_model.hmac_us;
                    authenticator.assert_frame_on(channel, &payloads)
                }
                level => {
                    sign_cost = match level {
                        SaysLevel::Rsa => {
                            self.metrics.rsa_sign_ops += 1;
                            shared.config.cost_model.rsa_sign_us
                        }
                        SaysLevel::Hmac => {
                            self.metrics.hmac_ops += 1;
                            shared.config.cost_model.hmac_us
                        }
                        SaysLevel::Cleartext => 0,
                        SaysLevel::Session => unreachable!("handled above"),
                    };
                    authenticator.assert_frame(&payloads)
                }
            };
            self.metrics.signatures += 1;
            let proof_bytes = a.wire_len();
            self.metrics.auth_bytes += proof_bytes as u64;
            wire.set_frame_overhead(proof_bytes);
            assertion = Some(a);
        }
        // Per-tuple payload: the canonical encoding plus the provenance
        // shipping cost (tag, and any piggybacked derivation subtree).
        for row in &deduped {
            let mut tuple_bytes = tuple::encoded_len_parts(pred_name, &row.values) + marker_bytes;
            let tag_bytes = row.tag.wire_size(&*self.var_table);
            self.metrics.provenance_bytes += tag_bytes as u64;
            tuple_bytes += tag_bytes;
            if let Some(graph) = &row.shipped_graph {
                let graph_bytes = graph.estimated_wire_size();
                self.metrics.provenance_bytes += graph_bytes as u64;
                tuple_bytes += graph_bytes;
            }
            wire.push_tuple(tuple_bytes);
        }

        let send_at = self.charge(at, sign_cost);
        let wire_bytes = wire.wire_bytes();
        let mut deliver_at = send_at + shared.config.cost_model.message_latency(wire_bytes);
        self.effects.push(Effect::NetSend {
            src: self.id,
            wire_bytes,
        });
        if shared.config.says_level == Some(SaysLevel::Session) || shared.config.dynamics {
            deliver_at = self.node.link_deliver(dst, deliver_at);
        }
        self.metrics.frames += 1;
        self.metrics.batched_tuples += deduped.len() as u64;
        if polarity == Polarity::Retract {
            self.metrics.tombstone_frames += 1;
        }
        // Modeled-pool accounting: a frame whose receiver belongs to another
        // partition would cross a partition boundary.
        let workers = shared.config.workers;
        if partition_of(self.id, workers) != partition_of(dst, workers) {
            self.metrics.cross_partition_frames += 1;
        }
        self.effects.push(Effect::Queue {
            at: deliver_at,
            work: QueuedWork::Deliver(DeltaBatch {
                destination: dst,
                pred,
                rows: deduped,
                assertion,
                from: Some(self.id),
                polarity,
            }),
        });
    }

    /// Ensures an open (unexpired) sender channel for the directed link
    /// from this node to `dst`, performing the RSA-signed key-establishment
    /// handshake when the link is unbound or its channel has exhausted
    /// `channel_rebind_frames` frames.  The handshake is real simulated
    /// traffic: its RSA signature is charged to the sender's CPU — the once
    /// per link (per epoch) exponentiation the session level amortises RSA
    /// down to — and the transcript + signature bytes travel as their own
    /// wire message ahead of the data frames they key.
    fn ensure_channel(&mut self, at: SimTime, dst: NodeId) {
        let shared = self.shared;
        let dst_principal = principal_of(dst);
        let epoch = match self.node.send_channels.get(&dst_principal) {
            Some(channel) if !channel.expired() => return,
            Some(channel) => channel.epoch() + 1,
            // A link (re)binding after a churn eviction starts at the
            // retired channel's successor epoch, never back at a key
            // stream that already ran.
            None => self
                .node
                .send_epoch_floor
                .get(&dst_principal)
                .copied()
                .unwrap_or(0),
        };
        let (handshake, channel) = self
            .node
            .authenticator
            .as_ref()
            .expect("authentication configured")
            .open_channel(dst_principal, epoch, shared.config.channel_rebind_frames);
        self.metrics.handshakes += 1;
        self.metrics.rsa_sign_ops += 1;
        // Sender-side session-key derivation.
        self.metrics.hmac_ops += 1;

        if shared.tracing() {
            self.trace.push(TraceEvent {
                at_us: at.as_micros(),
                kind: TraceEventKind::Handshake {
                    src: self.id.0,
                    dst: dst.0,
                    epoch,
                },
            });
        }
        let send_at = self.charge(at, shared.config.cost_model.rsa_sign_us);
        let wire = Frame::handshake(handshake.transcript.wire_len(), handshake.signature.len());
        self.metrics.auth_bytes += wire.payload_bytes() as u64;
        let wire_bytes = wire.wire_bytes();
        let deliver_at = send_at + shared.config.cost_model.message_latency(wire_bytes);
        self.effects.push(Effect::NetSend {
            src: self.id,
            wire_bytes,
        });
        let deliver_at = self.node.link_deliver(dst, deliver_at);
        self.node.send_channels.insert(dst_principal, channel);
        self.effects.push(Effect::Queue {
            at: deliver_at,
            work: QueuedWork::Handshake {
                destination: dst,
                handshake,
            },
        });
    }

    /// Receiver side of channel establishment for a coalesced batch of
    /// same-instant handshakes: one CPU charge window covers every
    /// transcript verification (the once-per-link public-key
    /// exponentiations), then each handshake is verified and installed
    /// individually.  The charge is `k × rsa_verify_us` in one `run_cpu`
    /// call — identical total lane occupancy to `k` back-to-back charges at
    /// the same instant, so batching moves no completion time; it only
    /// collapses `k` scheduling round-trips into one.  A handshake that
    /// fails validation installs nothing — subsequent frames on the link
    /// then fail verification for lack of a channel.
    pub(super) fn process_handshake_batch(
        &mut self,
        at: SimTime,
        handshakes: Vec<ChannelHandshake>,
    ) {
        if !self.shared.config.authenticated() {
            // The receiver checks no proofs, so it needs no channel state.
            return;
        }
        self.metrics.handshake_batches += 1;
        let cost = self.shared.config.cost_model.rsa_verify_us * handshakes.len() as u64;
        self.charge(at, cost);
        for handshake in handshakes {
            self.verify_handshake(handshake);
        }
    }

    /// Verifies one handshake transcript and installs the resulting session
    /// channel (CPU time is charged by the caller, per batch).
    fn verify_handshake(&mut self, handshake: ChannelHandshake) {
        let verifier = self
            .node
            .authenticator
            .as_ref()
            .expect("authentication configured");
        self.metrics.rsa_verify_ops += 1;
        // A handshake below the receiver's epoch floor is a replay of a
        // channel churn already retired (the live-channel case is handled
        // by accept_rebind below): reject before any state is installed.
        // Crash-style evictions raise the floor past the dead channel, so
        // a rebinding sender must supersede it to be heard.
        let floor = self
            .node
            .recv_epoch_floor
            .get(&handshake.transcript.src)
            .copied()
            .unwrap_or(0);
        if !handshake.supersedes(floor) {
            self.metrics.verification_failures += 1;
            return;
        }
        // Rebinds must supersede the installed channel's epoch, so a
        // replayed old handshake can never roll the replay counter back.
        let accepted = match self.node.recv_channels.get(&handshake.transcript.src) {
            Some(current) => verifier.accept_rebind(&handshake, current),
            None => verifier.accept_channel(&handshake),
        };
        match accepted {
            Ok(channel) => {
                // Receiver-side session-key derivation.
                self.metrics.hmac_ops += 1;
                self.node
                    .recv_channels
                    .insert(handshake.transcript.src, channel);
            }
            Err(_) => {
                self.metrics.verification_failures += 1;
            }
        }
    }
}

/// Retires the channel half bound to `peer` when `admit` accepts its epoch:
/// the half is dropped and the epoch floor towards `peer` rises past it, so
/// the link — should it return — rebinds at a fresh epoch: the retired key
/// stream and its replay counter can never be resumed or replayed.
fn retire_channel<C>(
    channels: &mut FastMap<PrincipalId, C>,
    floors: &mut FastMap<PrincipalId, u32>,
    peer: PrincipalId,
    epoch_of: impl Fn(&C) -> u32,
    admit: impl Fn(u32) -> bool,
) -> bool {
    let Some(epoch) = channels.get(&peer).map(epoch_of).filter(|&e| admit(e)) else {
        return false;
    };
    channels.remove(&peer);
    let floor = floors.entry(peer).or_insert(0);
    *floor = (*floor).max(epoch + 1);
    true
}

impl DistributedEngine {
    /// Seals one shipment frame right now on the engine (the
    /// `batch_window = 0` fast path, where every head tuple ships as its
    /// own frame): drives the same context sealing code the queue path
    /// uses and replays its transport effects immediately.  Runs while an
    /// event's own effects replay, hence the second log.
    pub(super) fn seal_and_ship_now(&mut self, at: SimTime, frame: ShipFrame) {
        let mut log = std::mem::take(&mut self.seal_log);
        self.ctx(frame.src, &mut log).seal_and_ship(at, frame);
        self.replay_event(None, &mut log);
        self.seal_log = log;
    }

    /// Schedules eviction of the session channel bound to the directed
    /// link `src → dst`, if any: the teardown is *graceful* — it executes
    /// only once the link's in-flight frames (including the retraction
    /// wave's own tombstones) have drained, and it captures the channel
    /// epochs so a link that already rebound is left alone.  The `link`
    /// tuple models routing adjacency; the session transport underneath
    /// tears down without dropping frames, as its TCP-like real-world
    /// counterpart would.
    pub(super) fn schedule_channel_eviction(&mut self, at: SimTime, src: NodeId, dst: NodeId) {
        let (src_node, dst_node) = (&self.nodes[ix(src)], &self.nodes[ix(dst)]);
        let send_epoch = src_node
            .send_channels
            .get(&principal_of(dst))
            .map(SenderChannel::epoch);
        let recv_epoch = dst_node
            .recv_channels
            .get(&principal_of(src))
            .map(ReceiverChannel::epoch);
        if send_epoch.is_none() && recv_epoch.is_none() {
            return;
        }
        let horizon = src_node.link_horizon_to(dst);
        self.queue.push(
            at.max(horizon),
            QueuedWork::Evict {
                src,
                dst,
                send_epoch,
                recv_epoch,
            },
        );
    }

    /// Executes a scheduled channel eviction: re-defers while the link's
    /// delivery horizon is still ahead (frames sealed under the old epoch
    /// remain in flight), then retires whichever channel halves still carry
    /// the captured epochs (see [`retire_channel`]).
    pub(super) fn process_eviction(
        &mut self,
        at: SimTime,
        src: NodeId,
        dst: NodeId,
        send_epoch: Option<u32>,
        recv_epoch: Option<u32>,
    ) {
        let horizon = self.nodes[ix(src)].link_horizon_to(dst);
        // Under a fault plan, "drained" additionally means no sequenced
        // frame is still undelivered on the link: a graceful teardown must
        // not retire the channel that frames awaiting retransmission were
        // MAC'd under.  (Bounded loss bursts guarantee every live link
        // drains — and the retry budget bounds the rest — so the
        // re-deferral terminates.)
        let retry_at = if horizon > at {
            Some(horizon)
        } else if self.shared.config.fault_plan.is_some()
            && self.transport.has_undelivered(src, dst)
        {
            Some(at + SimTime::from_micros(DEFAULT_RETRANSMIT_RTO_US))
        } else {
            None
        };
        if let Some(retry_at) = retry_at {
            self.queue.push(
                retry_at,
                QueuedWork::Evict {
                    src,
                    dst,
                    send_epoch,
                    recv_epoch,
                },
            );
            return;
        }
        self.evict_channel(
            at,
            src,
            dst,
            |epoch| send_epoch == Some(epoch),
            |epoch| recv_epoch == Some(epoch),
        );
    }

    /// Retires both halves of the directed link's session channel whose
    /// epochs `admit_send` / `admit_recv` accept, tracing the eviction when
    /// anything was installed.  Crash-style cuts admit every epoch — no
    /// drain, no epoch capture: waiting for in-flight frames would wait on
    /// frames that no longer exist.
    pub(super) fn evict_channel(
        &mut self,
        at: SimTime,
        src: NodeId,
        dst: NodeId,
        admit_send: impl Fn(u32) -> bool,
        admit_recv: impl Fn(u32) -> bool,
    ) {
        let sender = &mut self.nodes[ix(src)];
        let sent = retire_channel(
            &mut sender.send_channels,
            &mut sender.send_epoch_floor,
            principal_of(dst),
            SenderChannel::epoch,
            admit_send,
        );
        let receiver = &mut self.nodes[ix(dst)];
        let received = retire_channel(
            &mut receiver.recv_channels,
            &mut receiver.recv_epoch_floor,
            principal_of(src),
            ReceiverChannel::epoch,
            admit_recv,
        );
        if sent || received {
            self.trace_event(
                at,
                TraceEventKind::ChannelEvicted {
                    src: src.0,
                    dst: dst.0,
                },
            );
        }
    }
}
