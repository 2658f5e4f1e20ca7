//! Shipment: sealing frames (dedup, one `says` proof per frame, honest
//! wire accounting), session channels (handshakes, rebinds, eviction) and
//! the receiver side of coalesced handshake batches.

use super::eval::{Effect, NodeCtx};
use super::queue::{BatchRow, DeltaBatch, GlobalWork, NodeWork, Origin, Polarity, ShipFrame};
use super::{ix, node_of, partition_of, principal_of, DistributedEngine, Link};
use crate::config::DEFAULT_RETRANSMIT_RTO_US;
use crate::hash::FastMap;
use crate::tuple;
use pasn_crypto::channel::ChannelHandshake;
use pasn_crypto::says::{tombstone_payloads, SaysLevel, TOMBSTONE_MARKER};
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

impl<'a> NodeCtx<'a> {
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
        // map.  Tags merge with the semiring `+` and piggybacked bundles
        // merge their records, so no provenance is lost.  Retraction frames
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
                        match (&mut existing.bundle, row.bundle) {
                            (Some(mine), Some(theirs)) => mine.merge(&theirs),
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
        // the key-establishment handshake (`Peer::assert_frame`).
        // A tombstone's wire bytes are charged for the polarity-marked
        // payload its proof covers (see [`frame_payloads`]).
        let mut wire = Frame::new();
        let marker_bytes = match polarity {
            Polarity::Assert => 0,
            Polarity::Retract => TOMBSTONE_MARKER.len(),
        };
        let mut assertion = None;
        let mut handshake = None;
        let mut sign_cost = 0u64;
        if let Some(authenticator) = self.node.authenticator.as_ref() {
            // Only a proof needs the rows' bytes; the wire accounting below
            // needs their length alone.
            let payloads = frame_payloads(pred_name, &deduped, polarity);
            let cost_model = shared.config.cost_model;
            let a = match authenticator.level() {
                SaysLevel::Session => {
                    self.metrics.hmac_ops += 1;
                    sign_cost = cost_model.hmac_us;
                    let rebind_after = shared.config.channel_rebind_frames;
                    let peer = self.node.peers.entry(dst).or_default();
                    let (a, opened) = peer.assert_frame(
                        authenticator,
                        principal_of(dst),
                        rebind_after,
                        &payloads,
                    );
                    handshake = opened;
                    a
                }
                SaysLevel::Rsa => {
                    self.metrics.rsa_sign_ops += 1;
                    sign_cost = cost_model.rsa_sign_us;
                    authenticator.assert_frame(&payloads)
                }
                SaysLevel::Hmac => {
                    self.metrics.hmac_ops += 1;
                    sign_cost = cost_model.hmac_us;
                    authenticator.assert_frame(&payloads)
                }
                SaysLevel::Cleartext => authenticator.assert_frame(&payloads),
            };
            self.metrics.signatures += 1;
            let proof_bytes = a.wire_len();
            self.metrics.auth_bytes += proof_bytes as u64;
            wire.set_frame_overhead(proof_bytes);
            assertion = Some(Box::new(a));
        }
        if let Some(handshake) = handshake {
            self.ship_handshake(at, dst, handshake);
        }
        // Per-tuple payload: the canonical encoding plus the provenance
        // shipping cost (tag, and any piggybacked bundle of records).
        for row in &deduped {
            let mut tuple_bytes = tuple::encoded_len_parts(pred_name, &row.values) + marker_bytes;
            let tag_bytes = row.tag.wire_size(&*self.var_table);
            self.metrics.provenance_bytes += tag_bytes as u64;
            tuple_bytes += tag_bytes;
            if let Some(bundle) = &row.bundle {
                let (buf, at) = (&mut self.node.key_buf, row.location_index);
                let key = tuple::render_into(buf, pred_name, &row.values, at);
                let bundle_bytes = bundle.wire_size(key);
                self.metrics.provenance_bytes += bundle_bytes as u64;
                tuple_bytes += bundle_bytes;
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
            let retraction = polarity == Polarity::Retract;
            deliver_at = self.node.link_deliver(dst, deliver_at, retraction);
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
            work: NodeWork::Deliver(DeltaBatch {
                destination: dst,
                pred,
                rows: deduped,
                origin: Origin::Remote {
                    from: self.id,
                    assertion,
                },
                polarity,
            }),
        });
    }

    /// Ships the key-establishment handshake that (re)bound the directed
    /// link from this node to `dst`.  The handshake is real simulated
    /// traffic: its RSA signature is charged to the sender's CPU — the once
    /// per link (per epoch) exponentiation the session level amortises RSA
    /// down to — and the transcript + signature bytes travel as their own
    /// wire message ahead of the data frames they key.
    fn ship_handshake(&mut self, at: SimTime, dst: NodeId, handshake: ChannelHandshake) {
        let shared = self.shared;
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
                    epoch: handshake.transcript.epoch,
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
        let deliver_at = self.node.link_deliver(dst, deliver_at, false);
        self.effects.push(Effect::Queue {
            at: deliver_at,
            work: NodeWork::Handshakes {
                destination: dst,
                handshakes: vec![handshake],
            },
        });
    }

    /// Receiver side of channel establishment for the handshakes of one
    /// scheduling event: one CPU charge window covers every transcript
    /// verification (the once-per-link public-key exponentiations), and
    /// each handshake is verified and installed individually
    /// ([`Peer::accept`](super::Peer)).  The charge is `k × rsa_verify_us`
    /// in one `run_cpu` call — identical total lane occupancy to `k`
    /// back-to-back charges at the same instant, so coalescing moves no
    /// completion time; it only collapses `k` scheduling round-trips into
    /// one.
    pub(super) fn process_handshakes(&mut self, at: SimTime, handshakes: Vec<ChannelHandshake>) {
        let Some(verifier) = self.node.authenticator.as_ref() else {
            // The receiver checks no proofs, so it needs no channel state.
            return;
        };
        self.metrics.handshake_batches += 1;
        let cost = self.shared.config.cost_model.rsa_verify_us * handshakes.len() as u64;
        for handshake in &handshakes {
            self.metrics.rsa_verify_ops += 1;
            let sender = node_of(handshake.transcript.src);
            let peer = self.node.peers.entry(sender).or_default();
            if peer.accept(verifier, handshake) {
                // Receiver-side session-key derivation.
                self.metrics.hmac_ops += 1;
            } else {
                self.metrics.verification_failures += 1;
            }
        }
        self.charge(at, cost);
    }
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
        let link = (src, dst);
        let epochs = self.channel_epochs(link);
        if epochs == (None, None) {
            return;
        }
        let horizon = self.nodes[ix(src)].link_horizon_to(dst);
        self.queue
            .push_global(at.max(horizon), GlobalWork::Evict { link, epochs });
    }

    /// Epochs of the installed halves — the sender's at the source, the
    /// receiver's at the destination — of the link's session channel.
    pub(super) fn channel_epochs(&self, (src, dst): Link) -> (Option<u32>, Option<u32>) {
        let sender = self.nodes[ix(src)].peers.get(&dst);
        let receiver = self.nodes[ix(dst)].peers.get(&src);
        (
            sender.and_then(|peer| peer.send.as_ref().map(|channel| channel.epoch())),
            receiver.and_then(|peer| peer.recv.as_ref().map(|channel| channel.epoch())),
        )
    }

    /// Executes a scheduled channel eviction: re-defers while the link's
    /// delivery horizon is still ahead (frames sealed under the old epoch
    /// remain in flight), then retires whichever channel halves still carry
    /// the captured `epochs`.
    pub(super) fn process_eviction(
        &mut self,
        at: SimTime,
        link: Link,
        epochs: (Option<u32>, Option<u32>),
    ) {
        let horizon = self.nodes[ix(link.0)].link_horizon_to(link.1);
        // Under a fault plan, "drained" additionally means no sequenced
        // frame is still undelivered on the link: a graceful teardown must
        // not retire the channel that frames awaiting retransmission were
        // MAC'd under.  (Bounded loss bursts guarantee every live link
        // drains — and the retry budget bounds the rest — so the
        // re-deferral terminates.)
        let retry_at = if horizon > at {
            Some(horizon)
        } else if self.shared.config.fault_plan.is_some() && self.transport.has_undelivered(link) {
            Some(at + SimTime::from_micros(DEFAULT_RETRANSMIT_RTO_US))
        } else {
            None
        };
        match retry_at {
            Some(retry_at) => self
                .queue
                .push_global(retry_at, GlobalWork::Evict { link, epochs }),
            None => self.evict_channel(at, link, epochs),
        }
    }

    /// Retires the halves of the directed link's session channel that
    /// carry the given `(sender, receiver)` epochs (see
    /// [`Peer::retire_send`](super::Peer)), tracing the eviction when
    /// anything was installed.  Crash-style cuts pass the installed epochs
    /// themselves — no drain, no epoch capture: waiting for in-flight
    /// frames would wait on frames that no longer exist.
    pub(super) fn evict_channel(
        &mut self,
        at: SimTime,
        (src, dst): Link,
        (send_epoch, recv_epoch): (Option<u32>, Option<u32>),
    ) {
        let sender = self.nodes[ix(src)].peers.get_mut(&dst);
        let sent = sender.is_some_and(|peer| peer.retire_send(send_epoch));
        let receiver = self.nodes[ix(dst)].peers.get_mut(&src);
        let received = receiver.is_some_and(|peer| peer.retire_recv(recv_epoch));
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
