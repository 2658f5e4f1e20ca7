//! Deterministic discrete-event simulation of the node-to-node transport.
//!
//! The paper's evaluation runs up to 100 P2 processes on a single machine and
//! measures (a) query completion time — wall-clock until the distributed
//! fixpoint — and (b) total bandwidth across all nodes.  This reproduction
//! runs all nodes in one process on a simulated clock: each message is
//! delivered after a latency derived from its size, and each unit of work the
//! engine reports (tuple processed, signature generated or verified,
//! provenance operation) advances the clock of the node performing it
//! according to a [`CostModel`].  Completion time is then the simulated time
//! at which the last event drains, and bandwidth is the sum of wire bytes —
//! both independent of the host machine, which keeps figures reproducible.

use crate::NodeId;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::fmt;
use std::ops::{Add, AddAssign};

/// A point in simulated time, in microseconds.
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Default, Hash, Serialize, Deserialize,
)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0);

    /// Builds a time from whole microseconds.
    pub fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Builds a time from whole milliseconds.
    pub fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Builds a time from seconds (saturating).
    pub fn from_secs_f64(secs: f64) -> Self {
        SimTime((secs.max(0.0) * 1e6) as u64)
    }

    /// This time as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// This time as whole microseconds.
    pub fn as_micros(self) -> u64 {
        self.0
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

/// Per-operation costs used to advance the simulated clock.
///
/// The defaults are calibrated to the hardware class of the paper's testbed
/// (a 2.33 GHz Xeon running 100 co-located processes): what matters for the
/// reproduction is the *ratio* between plain tuple processing, MAC or
/// signature work, and provenance maintenance, because that ratio is what
/// produces the relative overheads reported in Section 6.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Fixed per-message propagation latency (µs).
    pub link_latency_us: u64,
    /// Additional transmission latency per byte (µs); models the shared
    /// loopback bandwidth of co-located processes.
    pub per_byte_us: f64,
    /// CPU cost to process one tuple through the rule engine (µs), excluding
    /// join probing.
    pub tuple_process_us: u64,
    /// CPU cost per stored tuple probed while evaluating a join (µs): the
    /// engine charges it per candidate a join walks.  Indexed joins walk
    /// few candidates, so it does not reproduce the paper's observation
    /// that the relative overhead of authentication shrinks as N grows:
    /// the full `repro all` sweep (N = 10..100, `paper_2008`) measured
    /// SeNDLog's completion-time overhead over NDLog at 81 % on average and
    /// 75 % at N = 100, where the paper reports 53 % and 44 %.  Whether the
    /// paper's trend came from scan joins is not yet measured.
    pub join_probe_us: f64,
    /// CPU cost to generate one RSA signature (µs).
    pub rsa_sign_us: u64,
    /// CPU cost to verify one RSA signature (µs).
    pub rsa_verify_us: u64,
    /// CPU cost to compute one HMAC (µs).
    pub hmac_us: u64,
    /// CPU cost of one provenance (BDD) operation (µs).
    pub provenance_op_us: u64,
    /// CPU cost per seq-list entry walked while compacting a relation's
    /// insertion-order list after deletions (µs).  Compaction is deferred
    /// maintenance triggered by retractions/expiry; charging it per entry to
    /// the *owning node's* CPU lane keeps the cost attributable to that
    /// node's partition instead of silently extending the global clock.
    pub compact_entry_us: f64,
}

impl CostModel {
    /// Cost model approximating the paper's 2008 testbed.
    ///
    /// RSA-1024 sign on a 2.33 GHz core was on the order of 1–2 ms and verify
    /// roughly 50–100 µs.  P2's per-tuple dataflow cost with 100 co-located
    /// processes was in the millisecond range.  The paper credits join-state
    /// growth with shrinking its relative authentication overhead (~53 % on
    /// average, 44 % at N = 100) as the network grows; under this model the
    /// full sweep (N = 10..100) shows no such shrinkage — 81 % on average,
    /// 75 % at N = 100 — because indexed joins keep the per-tuple cost
    /// nearly flat (see `join_probe_us`).
    pub fn paper_2008() -> Self {
        CostModel {
            link_latency_us: 1_000,
            per_byte_us: 0.05,
            tuple_process_us: 2_000,
            join_probe_us: 10.0,
            rsa_sign_us: 1_500,
            rsa_verify_us: 80,
            hmac_us: 6,
            provenance_op_us: 500,
            compact_entry_us: 0.05,
        }
    }

    /// A cost model with zero CPU costs (only link latency), used by unit
    /// tests that exercise transport behaviour in isolation.
    pub fn zero_cpu() -> Self {
        CostModel {
            link_latency_us: 1_000,
            per_byte_us: 0.0,
            tuple_process_us: 0,
            join_probe_us: 0.0,
            rsa_sign_us: 0,
            rsa_verify_us: 0,
            hmac_us: 0,
            provenance_op_us: 0,
            compact_entry_us: 0.0,
        }
    }

    /// Transmission + propagation latency for a message of `bytes` bytes.
    pub fn message_latency(&self, bytes: usize) -> SimTime {
        SimTime(self.link_latency_us + (self.per_byte_us * bytes as f64) as u64)
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::paper_2008()
    }
}

/// A message in flight between two simulated nodes.
#[derive(Clone, Debug, PartialEq)]
pub struct Message<T> {
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Opaque payload (the engine ships serialized tuple batches).
    pub payload: T,
    /// Number of bytes this message occupies on the wire, including headers;
    /// this is what the bandwidth metric accumulates.
    pub wire_bytes: usize,
}

/// Aggregate transport statistics, the source of the paper's Figure 4.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct TrafficStats {
    /// Total messages sent across all nodes.
    pub messages: u64,
    /// Total bytes sent across all nodes (including per-message headers).
    pub bytes: u64,
    /// Bytes sent per source node.
    pub bytes_per_node: HashMap<u32, u64>,
}

impl TrafficStats {
    /// Total bandwidth in megabytes (the unit of Figure 4).
    pub fn megabytes(&self) -> f64 {
        self.bytes as f64 / 1_000_000.0
    }

    /// Records one sent message.
    pub fn record(&mut self, src: NodeId, wire_bytes: usize) {
        self.messages += 1;
        self.bytes += wire_bytes as u64;
        *self.bytes_per_node.entry(src.0).or_default() += wire_bytes as u64;
    }
}

#[derive(PartialEq, Eq)]
struct QueueEntry {
    deliver_at: SimTime,
    seq: u64,
}

impl Ord for QueueEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.deliver_at, self.seq).cmp(&(other.deliver_at, other.seq))
    }
}

impl PartialOrd for QueueEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The discrete-event message transport.
///
/// `T` is the payload type; the engine uses serialized tuple batches.  The
/// simulator delivers messages in global timestamp order (ties broken by send
/// order), which makes runs fully deterministic.
pub struct NetworkSim<T> {
    cost: CostModel,
    queue: BinaryHeap<Reverse<QueueEntry>>,
    in_flight: HashMap<u64, Message<T>>,
    next_seq: u64,
    stats: TrafficStats,
    /// Latest timestamp ever observed (send or delivery).
    horizon: SimTime,
}

impl<T> NetworkSim<T> {
    /// Creates an empty transport with the given cost model.
    pub fn new(cost: CostModel) -> Self {
        NetworkSim {
            cost,
            queue: BinaryHeap::new(),
            in_flight: HashMap::new(),
            next_seq: 0,
            stats: TrafficStats::default(),
            horizon: SimTime::ZERO,
        }
    }

    /// The cost model in use.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Sends `payload` from `src` to `dst` at simulated time `now`; returns
    /// the delivery timestamp.
    pub fn send(&mut self, now: SimTime, message: Message<T>) -> SimTime {
        let deliver_at = now + self.cost.message_latency(message.wire_bytes);
        self.stats.record(message.src, message.wire_bytes);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.in_flight.insert(seq, message);
        self.queue.push(Reverse(QueueEntry { deliver_at, seq }));
        self.horizon = self.horizon.max(deliver_at).max(now);
        deliver_at
    }

    /// Removes and returns the next message in delivery order, along with its
    /// delivery time.  Returns `None` when no messages are in flight.
    pub fn deliver_next(&mut self) -> Option<(SimTime, Message<T>)> {
        let Reverse(entry) = self.queue.pop()?;
        let message = self
            .in_flight
            .remove(&entry.seq)
            .expect("queued message still in flight");
        Some((entry.deliver_at, message))
    }

    /// Number of messages currently in flight.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// True when no messages are in flight.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty()
    }

    /// Aggregate traffic statistics so far.
    pub fn stats(&self) -> &TrafficStats {
        &self.stats
    }

    /// Latest simulated timestamp observed.
    pub fn horizon(&self) -> SimTime {
        self.horizon
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simtime_conversions() {
        assert_eq!(SimTime::from_millis(2).as_micros(), 2_000);
        assert!((SimTime::from_secs_f64(1.5).as_secs_f64() - 1.5).abs() < 1e-9);
        assert_eq!(SimTime::from_secs_f64(-1.0), SimTime::ZERO);
        assert_eq!(SimTime(1) + SimTime(2), SimTime(3));
        assert_eq!(SimTime::from_micros(5).to_string(), "0.000005s");
    }

    #[test]
    fn cost_model_latency_scales_with_size() {
        let cost = CostModel::paper_2008();
        let small = cost.message_latency(100);
        let large = cost.message_latency(10_000);
        assert!(large > small);
        assert_eq!(CostModel::zero_cpu().message_latency(1_000), SimTime(1_000));
    }

    #[test]
    fn messages_are_delivered_in_timestamp_order() {
        let mut net: NetworkSim<&'static str> = NetworkSim::new(CostModel::zero_cpu());
        // Larger messages take longer (per_byte 0 here, so same latency —
        // delivery falls back to send order).
        net.send(
            SimTime(0),
            Message {
                src: NodeId(0),
                dst: NodeId(1),
                payload: "first",
                wire_bytes: 10,
            },
        );
        net.send(
            SimTime(0),
            Message {
                src: NodeId(0),
                dst: NodeId(2),
                payload: "second",
                wire_bytes: 10,
            },
        );
        net.send(
            SimTime(5_000),
            Message {
                src: NodeId(1),
                dst: NodeId(2),
                payload: "third",
                wire_bytes: 10,
            },
        );
        assert_eq!(net.pending(), 3);

        let (t1, m1) = net.deliver_next().unwrap();
        let (t2, m2) = net.deliver_next().unwrap();
        let (t3, m3) = net.deliver_next().unwrap();
        assert_eq!(
            (m1.payload, m2.payload, m3.payload),
            ("first", "second", "third")
        );
        assert!(t1 <= t2 && t2 <= t3);
        assert!(net.is_idle());
        assert!(net.deliver_next().is_none());
    }

    #[test]
    fn per_byte_latency_reorders_relative_to_send_order() {
        let cost = CostModel {
            per_byte_us: 1.0,
            link_latency_us: 0,
            ..CostModel::zero_cpu()
        };
        let mut net: NetworkSim<&'static str> = NetworkSim::new(cost);
        net.send(
            SimTime(0),
            Message {
                src: NodeId(0),
                dst: NodeId(1),
                payload: "big",
                wire_bytes: 1_000,
            },
        );
        net.send(
            SimTime(0),
            Message {
                src: NodeId(0),
                dst: NodeId(1),
                payload: "small",
                wire_bytes: 10,
            },
        );
        let (_, first) = net.deliver_next().unwrap();
        assert_eq!(first.payload, "small");
    }

    #[test]
    fn traffic_stats_accumulate_bytes_and_messages() {
        let mut net: NetworkSim<u8> = NetworkSim::new(CostModel::paper_2008());
        net.send(
            SimTime(0),
            Message {
                src: NodeId(3),
                dst: NodeId(1),
                payload: 0,
                wire_bytes: 500,
            },
        );
        net.send(
            SimTime(0),
            Message {
                src: NodeId(3),
                dst: NodeId(2),
                payload: 0,
                wire_bytes: 700,
            },
        );
        net.send(
            SimTime(0),
            Message {
                src: NodeId(1),
                dst: NodeId(3),
                payload: 0,
                wire_bytes: 300,
            },
        );
        let stats = net.stats();
        assert_eq!(stats.messages, 3);
        assert_eq!(stats.bytes, 1_500);
        assert_eq!(stats.bytes_per_node[&3], 1_200);
        assert!((stats.megabytes() - 0.0015).abs() < 1e-9);
    }

    #[test]
    fn horizon_tracks_latest_activity() {
        let mut net: NetworkSim<u8> = NetworkSim::new(CostModel::zero_cpu());
        let t = net.send(
            SimTime(10),
            Message {
                src: NodeId(0),
                dst: NodeId(1),
                payload: 0,
                wire_bytes: 1,
            },
        );
        assert_eq!(net.horizon(), t);
    }
}
