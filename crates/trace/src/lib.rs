//! # pasn-trace — deterministic flight recorder
//!
//! A structured execution trace for the PASN engine, recorded entirely in
//! **simulated time**.  Nothing in this crate ever consults a wall clock, a
//! thread id, or any other nondeterministic source: every event is stamped
//! with the discrete-event timestamp the engine was processing when it fired,
//! and events are appended in the engine's deterministic replay order.  As a
//! consequence a trace is a pure function of the workload — bit-identical
//! across host machines, reruns and modeled pool sizes — which makes the
//! recorder double as a determinism oracle: if two traces differ, the
//! schedules diverged.
//!
//! The recorder collects five families of data:
//!
//! * **Wave spans** — one [`TraceEventKind::Wave`] per maximal run of
//!   same-instant, same-rank wave-safe work items, fed item by item via
//!   [`TraceRecorder::feed_item`] as the engine replays its effect log;
//! * **Rule firings** — [`TraceEventKind::RuleFire`] with simulated-CPU
//!   attribution, aggregated on demand into a hot-rule profile by
//!   [`TraceRecorder::hot_rules`];
//! * **Frame lifecycles** — ship / drop / duplicate / retransmit / deliver /
//!   ack / dead events keyed by `(link, seq)`, summarised per link by
//!   [`TraceRecorder::link_lifecycles`];
//! * **Dynamics** — handshakes, channel evictions, churn, soft-state expiry,
//!   and retraction cascades;
//! * **Gauges** — periodic [`TraceEventKind::Gauge`] samples (queue depth,
//!   in-flight frames, store/index bytes) at a configurable simulated-time
//!   interval.
//!
//! Storage is an optionally bounded ring buffer ([`TraceConfig::with_ring`]):
//! long runs keep the most recent events and count the evictions.  The whole
//! buffer exports to the Chrome/Perfetto JSON format via
//! [`TraceRecorder::to_chrome_json`]; in process, [`TraceRecorder::events`]
//! hands the events out to filter ([`TraceEventKind::link`] names a frame's
//! link).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;

/// Configuration for the flight recorder.
///
/// The default configuration keeps every event (unbounded buffer) and takes
/// no gauge samples; see [`TraceConfig::with_ring`] and
/// [`TraceConfig::with_gauge_interval_us`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceConfig {
    /// Maximum number of retained events; `0` means unbounded.  When the
    /// buffer is full the oldest event is evicted and counted in
    /// [`TraceRecorder::dropped_events`].
    pub ring_capacity: usize,
    /// Simulated-time interval (µs) between gauge samples; `0` disables
    /// gauge sampling.
    pub gauge_interval_us: u64,
}

impl TraceConfig {
    /// An unbounded recorder with no gauge sampling.
    pub fn new() -> Self {
        TraceConfig::default()
    }

    /// Builder: bound the buffer to the `capacity` most recent events
    /// (`0` = unbounded).
    pub fn with_ring(mut self, capacity: usize) -> Self {
        self.ring_capacity = capacity;
        self
    }

    /// Builder: sample gauges every `interval_us` microseconds of simulated
    /// time (`0` = off).
    pub fn with_gauge_interval_us(mut self, interval_us: u64) -> Self {
        self.gauge_interval_us = interval_us;
        self
    }
}

/// One recorded event: a simulated-time stamp plus a typed payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated time of the event in microseconds.
    pub at_us: u64,
    /// What happened.
    pub kind: TraceEventKind,
}

/// The typed payload of a [`TraceEvent`].
///
/// Node ids are the engine's dense `NodeId` indices; `(src, dst)` pairs name
/// a directed link.  Frame `seq` numbers are the per-link transport sequence
/// numbers on fault-plan runs and a trace-local per-link ship ordinal on
/// reliable runs (where the transport assigns none).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEventKind {
    /// A maximal run of same-instant, same-rank wave-safe work items — the
    /// unit the engine pops at once and the modeled pool's accounting is
    /// kept per.  `owners` counts distinct owning nodes (a schedule
    /// property, *not* the partition count, which depends on the modeled
    /// pool size and has no place in a trace).
    Wave {
        /// Same-instant ordering rank of the wave's items.
        rank: u8,
        /// Number of work items in the wave.
        items: u32,
        /// Number of distinct owning nodes across the wave.
        owners: u32,
        /// Total effect-log entries replayed for the wave.
        effects: u32,
    },
    /// One rule firing, with its simulated-CPU charge.
    RuleFire {
        /// Node the rule fired at.
        node: u32,
        /// Rule label from the program text.
        rule: String,
        /// Simulated CPU charged for the firing's index probes, in µs.
        cpu_us: u64,
        /// Number of head tuples emitted by the firing.
        derived: u32,
    },
    /// A sealed frame entered the transport on `(src, dst)`.
    FrameShipped {
        /// Sending node.
        src: u32,
        /// Receiving node.
        dst: u32,
        /// Per-link frame sequence number.
        seq: u64,
        /// Tuples carried by the frame.
        tuples: u32,
    },
    /// The fault plan dropped the frame (attempt 0 = first transmission).
    FrameDropped {
        /// Sending node.
        src: u32,
        /// Receiving node.
        dst: u32,
        /// Per-link frame sequence number.
        seq: u64,
        /// Transmission attempt that was lost.
        attempt: u32,
    },
    /// The fault plan delivered an extra copy of the frame.
    FrameDuplicated {
        /// Sending node.
        src: u32,
        /// Receiving node.
        dst: u32,
        /// Per-link frame sequence number.
        seq: u64,
    },
    /// The retransmit timer fired and the frame was sent again.
    FrameRetransmit {
        /// Sending node.
        src: u32,
        /// Receiving node.
        dst: u32,
        /// Per-link frame sequence number.
        seq: u64,
        /// Retransmission attempt number (1 = first retry).
        attempt: u32,
    },
    /// The receiver released the frame to evaluation in sequence order.
    FrameDelivered {
        /// Sending node.
        src: u32,
        /// Receiving node.
        dst: u32,
        /// Per-link frame sequence number.
        seq: u64,
    },
    /// A cumulative ack for the link arrived back at the sender.
    FrameAcked {
        /// Sending node (the ack's destination).
        src: u32,
        /// Receiving node (the ack's origin).
        dst: u32,
        /// All frames below this sequence number are acknowledged.
        upto: u64,
    },
    /// The frame exhausted its retry budget (or its link was cut) and its
    /// contents were reconciled out of the fixpoint.
    FrameDead {
        /// Sending node.
        src: u32,
        /// Receiving node.
        dst: u32,
        /// Per-link frame sequence number.
        seq: u64,
    },
    /// A channel handshake bound `(src, dst)` at `epoch`.
    Handshake {
        /// Initiating node.
        src: u32,
        /// Responding node.
        dst: u32,
        /// Channel epoch established by the handshake.
        epoch: u32,
    },
    /// The channel state for `(src, dst)` was torn down.
    ChannelEvicted {
        /// Initiating node of the evicted channel.
        src: u32,
        /// Responding node of the evicted channel.
        dst: u32,
    },
    /// A scripted network-dynamics event was applied.
    Churn {
        /// Event kind (`link-down`, `node-crash`, `insert`, ...).
        kind: String,
        /// Human-readable subject (the link or node affected).
        subject: String,
    },
    /// Soft-state TTL expiry swept rows at a node.
    Expiry {
        /// Node whose store was swept.
        node: u32,
        /// Number of rows that expired.
        rows: u32,
    },
    /// One provenance-guided retraction (a row actually withdrawn).
    Retraction {
        /// Node the row was withdrawn from.
        node: u32,
        /// Predicate of the withdrawn row.
        pred: String,
        /// Why it was withdrawn (`retracted`, `expired`, `link-cut`, ...).
        reason: String,
    },
    /// A periodic gauge sample.
    Gauge {
        /// Work items pending in the event queue.
        queue_depth: u64,
        /// Frames in flight across all links (fault-plan runs).
        inflight_frames: u64,
        /// Total store residency in bytes.
        store_bytes: u64,
        /// Total secondary-index residency in bytes.
        index_bytes: u64,
    },
}

impl TraceEventKind {
    /// The directed link this event touches, if it is a link-scoped event
    /// (frame lifecycle, handshake, channel eviction).
    pub fn link(&self) -> Option<(u32, u32)> {
        match *self {
            TraceEventKind::FrameShipped { src, dst, .. }
            | TraceEventKind::FrameDropped { src, dst, .. }
            | TraceEventKind::FrameDuplicated { src, dst, .. }
            | TraceEventKind::FrameRetransmit { src, dst, .. }
            | TraceEventKind::FrameDelivered { src, dst, .. }
            | TraceEventKind::FrameAcked { src, dst, .. }
            | TraceEventKind::FrameDead { src, dst, .. }
            | TraceEventKind::Handshake { src, dst, .. }
            | TraceEventKind::ChannelEvicted { src, dst } => Some((src, dst)),
            _ => None,
        }
    }
}

/// Aggregated profile of one rule across the whole trace, from
/// [`TraceRecorder::hot_rules`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RuleProfile {
    /// Rule label from the program text.
    pub rule: String,
    /// Number of firings.
    pub fires: u64,
    /// Total simulated CPU charged, in µs.
    pub cpu_us: u64,
    /// Total head tuples emitted.
    pub derived: u64,
}

/// Per-link frame-lifecycle totals, from
/// [`TraceRecorder::link_lifecycles`].  On a lossy run these reconstruct the
/// transport counters in `RunMetrics` exactly.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LinkLifecycle {
    /// The directed link `(src, dst)`.
    pub link: (u32, u32),
    /// Frames shipped (first transmissions).
    pub shipped: u64,
    /// Transmissions lost to the fault plan (including lost retries).
    pub dropped: u64,
    /// Duplicate deliveries injected by the fault plan.
    pub duplicated: u64,
    /// Retransmission attempts.
    pub retransmits: u64,
    /// Frames released to evaluation in order.
    pub delivered: u64,
    /// Cumulative acks that arrived back at the sender.
    pub acks: u64,
    /// Frames that exhausted their retry budget or died with their link.
    pub dead: u64,
}

/// An in-flight wave span being accumulated from `feed_item` calls.
#[derive(Debug)]
struct WaveAccum {
    at_us: u64,
    rank: u8,
    items: u32,
    effects: u32,
    owners: Vec<u32>,
}

/// The flight recorder: an append-only (optionally ring-bounded) buffer of
/// [`TraceEvent`]s plus the wave-span accumulator and gauge clock.
///
/// The engine owns one recorder per run when tracing is enabled; tests and
/// tools read it back through [`TraceRecorder::events`] and the aggregation
/// helpers.
#[derive(Debug)]
pub struct TraceRecorder {
    config: TraceConfig,
    events: VecDeque<TraceEvent>,
    dropped: u64,
    node_labels: Vec<String>,
    wave: Option<WaveAccum>,
    next_gauge_us: u64,
}

impl TraceRecorder {
    /// A recorder for a deployment whose node `i` is labelled
    /// `node_labels[i]` (used by the Perfetto exporter's track names).
    pub fn new(config: TraceConfig, node_labels: Vec<String>) -> Self {
        let next_gauge_us = config.gauge_interval_us;
        TraceRecorder {
            config,
            events: VecDeque::new(),
            dropped: 0,
            node_labels,
            wave: None,
            next_gauge_us,
        }
    }

    /// Append an event, evicting the oldest if the ring is full.
    pub fn push(&mut self, event: TraceEvent) {
        if self.config.ring_capacity > 0 && self.events.len() == self.config.ring_capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }

    /// Feed one replayed work item into the wave-span accumulator.
    ///
    /// Consecutive items with the same `(at_us, rank)` and `owner:
    /// Some(node)` merge into one [`TraceEventKind::Wave`]; an item with
    /// `owner: None` (engine-global work that can never join a wave) flushes
    /// the open span without starting a new one.  The engine calls this in
    /// effect-replay order — the order it evaluated the items in.
    pub fn feed_item(&mut self, at_us: u64, rank: u8, owner: Option<u32>, effects: u32) {
        let Some(owner) = owner else {
            self.flush_wave();
            return;
        };
        if let Some(wave) = &mut self.wave {
            if wave.at_us == at_us && wave.rank == rank {
                wave.items += 1;
                wave.effects += effects;
                if !wave.owners.contains(&owner) {
                    wave.owners.push(owner);
                }
                return;
            }
            self.flush_wave();
        }
        self.wave = Some(WaveAccum {
            at_us,
            rank,
            items: 1,
            effects,
            owners: vec![owner],
        });
    }

    /// Close the open wave span, if any, and append it as an event.
    pub fn flush_wave(&mut self) {
        if let Some(wave) = self.wave.take() {
            self.push(TraceEvent {
                at_us: wave.at_us,
                kind: TraceEventKind::Wave {
                    rank: wave.rank,
                    items: wave.items,
                    owners: wave.owners.len() as u32,
                    effects: wave.effects,
                },
            });
        }
    }

    /// The next pending gauge-sample instant, if gauges are enabled and the
    /// queue head has reached (or passed) it.
    pub fn pending_gauge(&self, head_us: u64) -> Option<u64> {
        if self.config.gauge_interval_us == 0 {
            return None;
        }
        (self.next_gauge_us <= head_us).then_some(self.next_gauge_us)
    }

    /// Advance the gauge clock by one interval after sampling.
    pub fn advance_gauge(&mut self) {
        self.next_gauge_us += self.config.gauge_interval_us;
    }

    /// Finish recording: flushes the trailing wave span.  Idempotent.
    pub fn finish(&mut self) {
        self.flush_wave();
    }

    /// All retained events in recording order.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when no events are retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted by the ring bound.
    pub fn dropped_events(&self) -> u64 {
        self.dropped
    }

    /// The `k` rules that burned the most simulated CPU, descending (ties
    /// broken by rule label for determinism).
    pub fn hot_rules(&self, k: usize) -> Vec<RuleProfile> {
        let mut by_rule: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        for event in &self.events {
            if let TraceEventKind::RuleFire {
                rule,
                cpu_us,
                derived,
                ..
            } = &event.kind
            {
                let entry = by_rule.entry(rule.as_str()).or_default();
                entry.0 += 1;
                entry.1 += cpu_us;
                entry.2 += u64::from(*derived);
            }
        }
        let mut profiles: Vec<RuleProfile> = by_rule
            .into_iter()
            .map(|(rule, (fires, cpu_us, derived))| RuleProfile {
                rule: rule.to_string(),
                fires,
                cpu_us,
                derived,
            })
            .collect();
        profiles.sort_by(|a, b| b.cpu_us.cmp(&a.cpu_us).then_with(|| a.rule.cmp(&b.rule)));
        profiles.truncate(k);
        profiles
    }

    /// Frame-lifecycle totals per directed link, sorted by link.
    pub fn link_lifecycles(&self) -> Vec<LinkLifecycle> {
        let mut by_link: BTreeMap<(u32, u32), LinkLifecycle> = BTreeMap::new();
        for event in &self.events {
            let Some(link) = event.kind.link() else {
                continue;
            };
            let entry = by_link.entry(link).or_insert_with(|| LinkLifecycle {
                link,
                ..LinkLifecycle::default()
            });
            match event.kind {
                TraceEventKind::FrameShipped { .. } => entry.shipped += 1,
                TraceEventKind::FrameDropped { .. } => entry.dropped += 1,
                TraceEventKind::FrameDuplicated { .. } => entry.duplicated += 1,
                TraceEventKind::FrameRetransmit { .. } => entry.retransmits += 1,
                TraceEventKind::FrameDelivered { .. } => entry.delivered += 1,
                TraceEventKind::FrameAcked { .. } => entry.acks += 1,
                TraceEventKind::FrameDead { .. } => entry.dead += 1,
                _ => {}
            }
        }
        by_link.into_values().collect()
    }

    /// Export the trace in the Chrome/Perfetto `trace.json` format.
    ///
    /// Layout: pid 0 is the engine (tid 0 = wave spans and dynamics, plus
    /// `C` counter tracks for the gauges); pid `n + 1` is node `n`, with
    /// tid 1 = rule firings (`X` slices whose duration is the simulated CPU
    /// charge), tid 2 = frame lifecycle instants, tid 3 = channel events,
    /// tid 4 = expiry/retraction dynamics.  Timestamps are simulated
    /// microseconds.  The output is deterministic: same trace, same bytes.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        let emit = |line: String, out: &mut String, first: &mut bool| {
            if !*first {
                out.push(',');
            }
            *first = false;
            out.push('\n');
            out.push_str(&line);
        };
        emit(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
             \"args\":{\"name\":\"engine\"}}"
                .to_string(),
            &mut out,
            &mut first,
        );
        for (i, label) in self.node_labels.iter().enumerate() {
            emit(
                format!(
                    "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"tid\":0,\
                     \"args\":{{\"name\":\"node {}\"}}}}",
                    i + 1,
                    escape_json(label)
                ),
                &mut out,
                &mut first,
            );
        }
        for event in &self.events {
            let ts = event.at_us;
            let line = match &event.kind {
                TraceEventKind::Wave {
                    rank,
                    items,
                    owners,
                    effects,
                } => format!(
                    "{{\"name\":\"wave r{rank}\",\"ph\":\"X\",\"ts\":{ts},\"dur\":0,\
                     \"pid\":0,\"tid\":0,\"args\":{{\"kind\":\"wave\",\"rank\":{rank},\
                     \"items\":{items},\"owners\":{owners},\"effects\":{effects}}}}}"
                ),
                TraceEventKind::RuleFire {
                    node,
                    rule,
                    cpu_us,
                    derived,
                } => format!(
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{ts},\"dur\":{cpu_us},\
                     \"pid\":{},\"tid\":1,\"args\":{{\"kind\":\"rule\",\
                     \"cpu_us\":{cpu_us},\"derived\":{derived}}}}}",
                    escape_json(rule),
                    node + 1
                ),
                TraceEventKind::FrameShipped {
                    src,
                    dst,
                    seq,
                    tuples,
                } => frame_instant(
                    ts,
                    "ship",
                    *src,
                    *dst,
                    *seq,
                    &format!(",\"tuples\":{tuples}"),
                ),
                TraceEventKind::FrameDropped {
                    src,
                    dst,
                    seq,
                    attempt,
                } => frame_instant(
                    ts,
                    "drop",
                    *src,
                    *dst,
                    *seq,
                    &format!(",\"attempt\":{attempt}"),
                ),
                TraceEventKind::FrameDuplicated { src, dst, seq } => {
                    frame_instant(ts, "dup", *src, *dst, *seq, "")
                }
                TraceEventKind::FrameRetransmit {
                    src,
                    dst,
                    seq,
                    attempt,
                } => frame_instant(
                    ts,
                    "retransmit",
                    *src,
                    *dst,
                    *seq,
                    &format!(",\"attempt\":{attempt}"),
                ),
                TraceEventKind::FrameDelivered { src, dst, seq } => {
                    frame_instant(ts, "deliver", *src, *dst, *seq, "")
                }
                TraceEventKind::FrameAcked { src, dst, upto } => format!(
                    "{{\"name\":\"ack {src}\\u2192{dst}\",\"ph\":\"i\",\"ts\":{ts},\
                     \"s\":\"t\",\"pid\":{},\"tid\":2,\"args\":{{\"kind\":\"ack\",\
                     \"src\":{src},\"dst\":{dst},\"upto\":{upto}}}}}",
                    src + 1
                ),
                TraceEventKind::FrameDead { src, dst, seq } => {
                    frame_instant(ts, "dead", *src, *dst, *seq, "")
                }
                TraceEventKind::Handshake { src, dst, epoch } => format!(
                    "{{\"name\":\"handshake {src}\\u2192{dst}\",\"ph\":\"i\",\"ts\":{ts},\
                     \"s\":\"t\",\"pid\":{},\"tid\":3,\"args\":{{\"kind\":\"handshake\",\
                     \"src\":{src},\"dst\":{dst},\"epoch\":{epoch}}}}}",
                    src + 1
                ),
                TraceEventKind::ChannelEvicted { src, dst } => format!(
                    "{{\"name\":\"evict {src}\\u2192{dst}\",\"ph\":\"i\",\"ts\":{ts},\
                     \"s\":\"t\",\"pid\":{},\"tid\":3,\"args\":{{\"kind\":\"evict\",\
                     \"src\":{src},\"dst\":{dst}}}}}",
                    src + 1
                ),
                TraceEventKind::Churn { kind, subject } => format!(
                    "{{\"name\":\"churn {}\",\"ph\":\"i\",\"ts\":{ts},\"s\":\"g\",\
                     \"pid\":0,\"tid\":0,\"args\":{{\"kind\":\"churn\",\"churn\":\"{}\",\
                     \"subject\":\"{}\"}}}}",
                    escape_json(kind),
                    escape_json(kind),
                    escape_json(subject)
                ),
                TraceEventKind::Expiry { node, rows } => format!(
                    "{{\"name\":\"expiry\",\"ph\":\"i\",\"ts\":{ts},\"s\":\"t\",\
                     \"pid\":{},\"tid\":4,\"args\":{{\"kind\":\"expiry\",\"rows\":{rows}}}}}",
                    node + 1
                ),
                TraceEventKind::Retraction { node, pred, reason } => format!(
                    "{{\"name\":\"retract {}\",\"ph\":\"i\",\"ts\":{ts},\"s\":\"t\",\
                     \"pid\":{},\"tid\":4,\"args\":{{\"kind\":\"retraction\",\
                     \"pred\":\"{}\",\"reason\":\"{}\"}}}}",
                    escape_json(pred),
                    node + 1,
                    escape_json(pred),
                    escape_json(reason)
                ),
                TraceEventKind::Gauge {
                    queue_depth,
                    inflight_frames,
                    store_bytes,
                    index_bytes,
                } => format!(
                    "{{\"name\":\"queue\",\"ph\":\"C\",\"ts\":{ts},\"pid\":0,\
                     \"args\":{{\"depth\":{queue_depth},\"inflight\":{inflight_frames}}}}},\n\
                     {{\"name\":\"memory\",\"ph\":\"C\",\"ts\":{ts},\"pid\":0,\
                     \"args\":{{\"store_bytes\":{store_bytes},\"index_bytes\":{index_bytes}}}}}"
                ),
            };
            emit(line, &mut out, &mut first);
        }
        let _ = write!(out, "\n],\"droppedEvents\":{}}}", self.dropped);
        out
    }
}

/// Render a frame-lifecycle instant event for the Chrome exporter.
fn frame_instant(ts: u64, kind: &str, src: u32, dst: u32, seq: u64, extra: &str) -> String {
    format!(
        "{{\"name\":\"{kind} {src}\\u2192{dst} #{seq}\",\"ph\":\"i\",\"ts\":{ts},\
         \"s\":\"t\",\"pid\":{},\"tid\":2,\"args\":{{\"kind\":\"{kind}\",\
         \"src\":{src},\"dst\":{dst},\"seq\":{seq}{extra}}}}}",
        src + 1
    )
}

/// Escape a string for embedding in a JSON string literal.
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorder() -> TraceRecorder {
        TraceRecorder::new(TraceConfig::new(), vec!["n0".to_string(), "n1".to_string()])
    }

    #[test]
    fn wave_spans_aggregate_consecutive_same_instant_items() {
        let mut rec = recorder();
        rec.feed_item(10, 0, Some(0), 2);
        rec.feed_item(10, 0, Some(1), 3);
        rec.feed_item(10, 0, Some(0), 1);
        rec.feed_item(20, 0, Some(1), 4); // new instant -> new span
        rec.feed_item(20, 1, Some(1), 1); // new rank -> new span
        rec.feed_item(20, 1, None, 0); // engine-global work breaks the span
        rec.finish();
        let waves: Vec<_> = rec.events().map(|e| (e.at_us, e.kind.clone())).collect();
        assert_eq!(
            waves,
            vec![
                (
                    10,
                    TraceEventKind::Wave {
                        rank: 0,
                        items: 3,
                        owners: 2,
                        effects: 6
                    }
                ),
                (
                    20,
                    TraceEventKind::Wave {
                        rank: 0,
                        items: 1,
                        owners: 1,
                        effects: 4
                    }
                ),
                (
                    20,
                    TraceEventKind::Wave {
                        rank: 1,
                        items: 1,
                        owners: 1,
                        effects: 1
                    }
                ),
            ]
        );
    }

    #[test]
    fn finish_is_idempotent() {
        let mut rec = recorder();
        rec.feed_item(5, 0, Some(0), 1);
        rec.finish();
        rec.finish();
        assert_eq!(rec.len(), 1);
    }

    #[test]
    fn ring_buffer_bounds_retention_and_counts_evictions() {
        let mut rec = TraceRecorder::new(TraceConfig::new().with_ring(2), vec![]);
        for seq in 0..5 {
            rec.push(TraceEvent {
                at_us: seq,
                kind: TraceEventKind::FrameShipped {
                    src: 0,
                    dst: 1,
                    seq,
                    tuples: 1,
                },
            });
        }
        assert_eq!(rec.len(), 2);
        assert_eq!(rec.dropped_events(), 3);
        let first = rec.events().next().unwrap();
        assert_eq!(first.at_us, 3, "oldest events are evicted first");
    }

    #[test]
    fn gauge_clock_fires_at_interval_boundaries() {
        let mut rec = TraceRecorder::new(TraceConfig::new().with_gauge_interval_us(100), vec![]);
        assert_eq!(rec.pending_gauge(99), None);
        assert_eq!(rec.pending_gauge(100), Some(100));
        rec.advance_gauge();
        assert_eq!(rec.pending_gauge(150), None);
        assert_eq!(rec.pending_gauge(350), Some(200));
        let off = TraceRecorder::new(TraceConfig::new(), vec![]);
        assert_eq!(off.pending_gauge(u64::MAX), None);
    }

    #[test]
    fn hot_rules_sorts_by_cpu_then_label() {
        let mut rec = recorder();
        for (rule, cpu) in [("r2", 5), ("r1", 5), ("r2", 10), ("r3", 1)] {
            rec.push(TraceEvent {
                at_us: 0,
                kind: TraceEventKind::RuleFire {
                    node: 0,
                    rule: rule.to_string(),
                    cpu_us: cpu,
                    derived: 2,
                },
            });
        }
        let profiles = rec.hot_rules(2);
        assert_eq!(profiles.len(), 2);
        assert_eq!(profiles[0].rule, "r2");
        assert_eq!(profiles[0].fires, 2);
        assert_eq!(profiles[0].cpu_us, 15);
        assert_eq!(profiles[0].derived, 4);
        assert_eq!(profiles[1].rule, "r1");
    }

    #[test]
    fn link_lifecycles_count_each_stage() {
        let mut rec = recorder();
        let link = |kind| TraceEvent { at_us: 0, kind };
        rec.push(link(TraceEventKind::FrameShipped {
            src: 0,
            dst: 1,
            seq: 0,
            tuples: 3,
        }));
        rec.push(link(TraceEventKind::FrameDropped {
            src: 0,
            dst: 1,
            seq: 0,
            attempt: 0,
        }));
        rec.push(link(TraceEventKind::FrameRetransmit {
            src: 0,
            dst: 1,
            seq: 0,
            attempt: 1,
        }));
        rec.push(link(TraceEventKind::FrameDelivered {
            src: 0,
            dst: 1,
            seq: 0,
        }));
        rec.push(link(TraceEventKind::FrameAcked {
            src: 0,
            dst: 1,
            upto: 1,
        }));
        rec.push(link(TraceEventKind::FrameShipped {
            src: 1,
            dst: 0,
            seq: 0,
            tuples: 1,
        }));
        let cycles = rec.link_lifecycles();
        assert_eq!(cycles.len(), 2);
        assert_eq!(
            cycles[0],
            LinkLifecycle {
                link: (0, 1),
                shipped: 1,
                dropped: 1,
                duplicated: 0,
                retransmits: 1,
                delivered: 1,
                acks: 1,
                dead: 0,
            }
        );
        assert_eq!(cycles[1].link, (1, 0));
        assert_eq!(cycles[1].shipped, 1);
    }

    #[test]
    fn query_filters_by_link_and_time() {
        let mut rec = recorder();
        rec.push(TraceEvent {
            at_us: 10,
            kind: TraceEventKind::FrameShipped {
                src: 0,
                dst: 1,
                seq: 0,
                tuples: 1,
            },
        });
        rec.push(TraceEvent {
            at_us: 20,
            kind: TraceEventKind::FrameShipped {
                src: 1,
                dst: 0,
                seq: 0,
                tuples: 1,
            },
        });
        rec.push(TraceEvent {
            at_us: 30,
            kind: TraceEventKind::FrameAcked {
                src: 0,
                dst: 1,
                upto: 1,
            },
        });
        let on = |link| rec.events().filter(move |e| e.kind.link() == Some(link));
        let within = |t0, t1| move |e: &&TraceEvent| (t0..=t1).contains(&e.at_us);
        assert_eq!(on((0, 1)).count(), 2);
        assert_eq!(on((0, 1)).filter(within(0, 15)).count(), 1);
        assert_eq!(rec.events().filter(within(15, 30)).count(), 2);
        let hits: Vec<_> = on((1, 0)).collect();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].at_us, 20);
    }

    #[test]
    fn chrome_export_is_valid_shape_and_escapes_strings() {
        let mut rec = TraceRecorder::new(TraceConfig::new(), vec!["a\"b".to_string()]);
        rec.push(TraceEvent {
            at_us: 7,
            kind: TraceEventKind::RuleFire {
                node: 0,
                rule: "r\\1".to_string(),
                cpu_us: 3,
                derived: 1,
            },
        });
        rec.push(TraceEvent {
            at_us: 9,
            kind: TraceEventKind::Gauge {
                queue_depth: 4,
                inflight_frames: 2,
                store_bytes: 100,
                index_bytes: 50,
            },
        });
        let json = rec.to_chrome_json();
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.contains("\"name\":\"node a\\\"b\""));
        assert!(json.contains("\"name\":\"r\\\\1\""));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.ends_with("],\"droppedEvents\":0}"));
        // Every line between the brackets must be a JSON object with a
        // trailing comma except the last.
        let body = json
            .strip_prefix("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")
            .unwrap();
        assert!(body.contains("\"ts\":7"));
    }
}
