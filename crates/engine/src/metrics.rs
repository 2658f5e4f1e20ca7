//! Run metrics: everything the evaluation section of the paper reports.
//!
//! Every [`RunMetrics`] field is declared exactly once, as a row of the
//! `run_metrics!` table below: *doc comment · name · type · scope*.  The
//! table generates the struct, [`RunMetrics::COUNTERS`] (the read-only view
//! the `repro` writer serialises and `Display` prints) and
//! [`RunMetrics::diff`] (the one comparison every equivalence oracle uses).
//! Adding a counter is one row plus its increment site
//! (`metrics.my_counter += 1`): it is then written to `BENCH_engine.json`,
//! printed, and compared by the batch ≡ stream, same-seed, traced ≡
//! untraced and modeled-pool oracles with no other edit to non-test code
//! (the `Display` test's literal names every field, so it gains a line).

use pasn_net::SimTime;
use std::fmt;
use std::time::Duration;

/// What a counter's value may depend on, narrowest first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Scope {
    /// A pure function of program + input + config, the modeled pool size
    /// aside: bit-identical across `workers` values, repetitions and
    /// tracing.
    Schedule,
    /// Cost-model outputs that also depend on the modeled pool size
    /// (`EngineConfig::workers`): the partition layout and what it does to
    /// the modeled critical path.  Deterministic like `Schedule` rows, but
    /// legitimately different between `workers = 1` and `workers = 4`.
    Layout,
    /// Host time: differs between any two runs.
    Host,
}

/// One row of the metrics table, as data.
#[derive(Clone, Copy, Debug)]
pub struct Counter {
    /// The field name; `SimTime` / `Duration` fields carry a `_us` suffix.
    pub name: &'static str,
    /// What the value may depend on.
    pub scope: Scope,
    /// Reads the field (times rendered as whole microseconds).
    pub get: fn(&RunMetrics) -> u64,
}

macro_rules! counter_name {
    ($name:ident, u64) => {
        stringify!($name)
    };
    ($name:ident, $time:ident) => {
        concat!(stringify!($name), "_us")
    };
}

macro_rules! micros {
    ($value:expr, u64) => {
        $value
    };
    ($value:expr, SimTime) => {
        $value.as_micros()
    };
    ($value:expr, Duration) => {
        $value.as_micros() as u64
    };
}

macro_rules! run_metrics {
    ($($(#[$doc:meta])* $name:ident: $ty:tt, $scope:ident;)+) => {
        /// Metrics collected while running a program to its distributed fixpoint.
        #[derive(Clone, Debug, Default, PartialEq)]
        pub struct RunMetrics {
            $($(#[$doc])* pub $name: $ty,)+
        }

        impl RunMetrics {
            /// Every field, in declaration order.
            pub const COUNTERS: &'static [Counter] = &[$(Counter {
                name: counter_name!($name, $ty),
                scope: Scope::$scope,
                get: |m| micros!(m.$name, $ty),
            },)+];
        }
    };
}

run_metrics! {
    /// Simulated time at which the distributed fixpoint was reached — the
    /// "query completion time" of Figure 3.
    completion: SimTime, Schedule;
    /// Wall-clock time the in-process run took (all nodes share one thread,
    /// so this measures total work rather than parallel completion).
    wall_clock: Duration, Host;
    /// Number of inter-node messages sent.
    messages: u64, Schedule;
    /// Total bytes across all messages — the "bandwidth utilization" of
    /// Figure 4.
    bytes: u64, Schedule;
    /// Bytes attributable to `says` proofs (signatures / MACs).
    auth_bytes: u64, Schedule;
    /// Bytes attributable to shipped provenance annotations.
    provenance_bytes: u64, Schedule;
    /// Number of rule firings (derivations), including duplicates that were
    /// absorbed by set semantics.
    derivations: u64, Schedule;
    /// Number of distinct tuples stored across all nodes at fixpoint.
    tuples_stored: u64, Schedule;
    /// Signatures / MACs generated.
    signatures: u64, Schedule;
    /// Signatures / MACs verified.
    verifications: u64, Schedule;
    /// Tuples rejected because their proof failed verification.
    verification_failures: u64, Schedule;
    /// Provenance tag operations performed (semiring `+` / `*`).
    provenance_ops: u64, Schedule;
    /// Tuples dropped by the sampling policy (provenance not recorded).
    sampled_out: u64, Schedule;
    /// Join probes answered through a secondary index (one per rendered
    /// key lookup).
    index_probes: u64, Schedule;
    /// Tuples yielded by index probes (candidates actually examined on the
    /// index path; the join's true work, versus scanning the relation).
    index_hits: u64, Schedule;
    /// Tuples examined through full-relation scans (joins with no bound key
    /// columns, or predicates without a registered index).
    scan_probes: u64, Schedule;
    /// Bytes of tuple data stored across all nodes at fixpoint (canonical
    /// row encodings plus one 8-byte seq per slot; rows are charged once —
    /// secondary indexes share them by reference).  Encoding-level
    /// accounting, a function of what is stored and never of how: the heap
    /// the store takes is larger (`tests/store_footprint.rs` pins that).
    store_bytes: u64, Schedule;
    /// Bytes of secondary-index overhead across all nodes at fixpoint (each
    /// distinct index key's encoding plus one 8-byte seq per indexed row).
    /// Encoding-level accounting, like [`RunMetrics::store_bytes`].
    index_bytes: u64, Schedule;
    /// High-water mark of [`RunMetrics::store_bytes`] observed during the
    /// run, sampled ahead of scripted churn events (rate-limited, the same
    /// instants under the scenario and the streaming driver) and at
    /// fixpoint — so a run without scripted events reports peak == final.
    /// The bounded-memory gauge, at the encoding level, for generational
    /// workloads whose final store is far smaller than their transient
    /// working set.
    peak_store_bytes: u64, Schedule;
    /// High-water mark of [`RunMetrics::index_bytes`], sampled alongside
    /// [`RunMetrics::peak_store_bytes`].
    peak_index_bytes: u64, Schedule;
    /// High-water mark of live stored tuples across all nodes, sampled
    /// alongside [`RunMetrics::peak_store_bytes`] — the denominator of
    /// [`RunMetrics::bytes_per_tuple`] on generational workloads whose
    /// final store is empty.
    peak_tuples: u64, Schedule;
    /// High-water mark of the deletion ledgers' firing logs (recorded
    /// firings, alive or dead, summed over nodes), sampled alongside
    /// [`RunMetrics::peak_store_bytes`].  A node drops its log once none of
    /// its firings is alive, so on generational workloads this follows the
    /// live generations, whatever the run's history.  A length, not a
    /// capacity, so it repeats exactly.
    peak_ledger_firings: u64, Schedule;
    /// Seq-list entries walked by lazy store-compaction rebuilds across all
    /// nodes — the total deferred-maintenance work the run paid for (charged
    /// to node CPU lanes at `compact_entry_us` per entry).  Under sustained
    /// expiry churn this must stay within a small constant factor of the
    /// rows actually removed, or compaction is thrashing.
    compaction_walked: u64, Schedule;
    /// Multi-tuple shipment frames sent between nodes.  Every inter-node
    /// message is one frame; each frame is signed and verified once,
    /// regardless of how many tuples it carries, so `signatures` and
    /// `verifications` scale with this counter rather than with shipped
    /// tuples.  With `batch_window = 0` every frame holds exactly one tuple
    /// and `frames == messages == batched_tuples`.
    frames: u64, Schedule;
    /// Tuples shipped inside frames, after in-frame deduplication (the raw
    /// material of [`RunMetrics::mean_batch_occupancy`]).
    batched_tuples: u64, Schedule;
    /// RSA private-key exponentiations performed: one per shipped frame at
    /// the `Rsa` `says` level, one per key-establishment handshake at the
    /// `Session` level — so a session run performs exactly
    /// [`RunMetrics::handshakes`] RSA signs, however many frames it ships.
    rsa_sign_ops: u64, Schedule;
    /// RSA public-key exponentiations performed (frame verifications at the
    /// `Rsa` level, handshake verifications at the `Session` level).
    rsa_verify_ops: u64, Schedule;
    /// HMAC-SHA-256 computations performed: frame MACs and verifications at
    /// the `Hmac` and `Session` levels, plus the two per-handshake session
    /// key derivations.
    hmac_ops: u64, Schedule;
    /// Session-channel key-establishment handshakes initiated: one per live
    /// directed link, plus one per rebind after
    /// `EngineConfig::channel_rebind_frames` frames.
    handshakes: u64, Schedule;
    /// Coalesced handshake-verification windows dispatched at the receiver:
    /// every contiguous run of same-instant handshake deliveries to one
    /// node is charged as a single CPU window of `k × rsa_verify_us`
    /// instead of `k` separate scheduling round-trips.  Always
    /// `<=` [`RunMetrics::handshakes`]; the gap measures how much
    /// establishment work arrived coalesced.
    handshake_batches: u64, Schedule;
    /// Scripted network-dynamics events processed (link flaps, node
    /// failures/rejoins, scripted base-tuple inserts/retracts/refreshes).
    churn_events: u64, Schedule;
    /// Tuples removed by provenance-guided deletion: support exhausted by a
    /// retraction cascade, killed by scheduled TTL expiry or a node
    /// failure, or garbage-collected by the well-founded reconciliation
    /// sweep.
    retractions: u64, Schedule;
    /// Fresh insertions of a tuple previously retracted at the same node —
    /// the re-derivation work churn causes.
    rederivations: u64, Schedule;
    /// Retraction shipment frames (tombstones) sent between nodes; each is
    /// also counted in [`RunMetrics::frames`] and proved once like a data
    /// frame.
    tombstone_frames: u64, Schedule;
    /// Size of the modeled worker pool the run was configured with
    /// (`EngineConfig::with_workers`).  No threads are started at any
    /// value; `1` models no pool.
    worker_threads: u64, Layout;
    /// Node partitions of the modeled pool: `min(workers, nodes)`.
    partitions: u64, Layout;
    /// Shipment frames whose source and destination nodes belong to
    /// different partitions of the modeled pool — the traffic a sharded
    /// evaluator would hand across partitions.  Always `0` on
    /// single-partition runs.
    cross_partition_frames: u64, Layout;
    /// High-water mark of events owned by a single partition within one
    /// same-instant wave — the load-balance indicator for the modeled
    /// layout.  `0` at one worker.
    max_partition_queue: u64, Layout;
    /// Frames the installed [`pasn_net::FaultPlan`] dropped on the wire —
    /// every drop decision, original sends and retransmissions alike.
    /// Always `0` without a fault plan.
    frames_dropped: u64, Schedule;
    /// Duplicate deliveries the fault plan injected (the receiver dedups
    /// them by per-link sequence number before MAC verification).
    frames_duplicated: u64, Schedule;
    /// Retransmission attempts the sender-side reliability layer made for
    /// frames whose ack timer expired.
    retransmits: u64, Schedule;
    /// Standalone cumulative-ack frames processed (acks are only emitted
    /// when a fault plan is installed).
    acks: u64, Schedule;
    /// Retransmission attempts beyond the first for one frame — each such
    /// attempt doubled its retransmission timeout (exponential backoff).
    backoff_events: u64, Schedule;
    /// Most delivery attempts any single frame needed (0 when every frame
    /// arrived on its original send).  Bounded by the retry budget.
    max_retransmit_per_frame: u64, Schedule;
    /// Modeled critical path of the run on a pool of the configured size,
    /// in simulated CPU terms — a cost-model output, never a measurement:
    /// the total CPU the cost model charged to the nodes, minus what the
    /// modeled pool takes off the critical path (each wave costs only its
    /// busiest partition).  At `workers = 1` this is the sum of all charged
    /// CPU, so `parallel_wall(n) / parallel_wall(1)` is a deterministic,
    /// machine-independent estimate of what an ideal sharded evaluator
    /// could gain.  Zero under `CostModel::zero_cpu`.
    parallel_wall: Duration, Layout;
}

impl RunMetrics {
    /// The counters of scope `up_to` or narrower on which `self` and `other`
    /// disagree, as `(name, self's value, other's value)` — empty when the
    /// two runs are equivalent at that scope.
    pub fn diff(&self, other: &RunMetrics, up_to: Scope) -> Vec<(&'static str, u64, u64)> {
        Self::COUNTERS
            .iter()
            .filter(|c| c.scope <= up_to)
            .map(|c| (c.name, (c.get)(self), (c.get)(other)))
            .filter(|(_, mine, theirs)| mine != theirs)
            .collect()
    }

    /// Bandwidth in megabytes (the unit of Figure 4).
    pub fn megabytes(&self) -> f64 {
        self.bytes as f64 / 1_000_000.0
    }

    /// Completion time in seconds (the unit of Figure 3).
    pub fn completion_secs(&self) -> f64 {
        self.completion.as_secs_f64()
    }

    /// Mean shipment-frame occupancy: tuples shipped per signed frame
    /// (`0.0` before any frame was sent).  Per-frame costs — the message
    /// header, the `says` signature and its verification — are amortised
    /// over this many tuples.
    pub fn mean_batch_occupancy(&self) -> f64 {
        if self.frames == 0 {
            0.0
        } else {
            self.batched_tuples as f64 / self.frames as f64
        }
    }

    /// Peak storage footprint per peak live tuple:
    /// `(peak_store_bytes + peak_index_bytes) / peak_tuples`, where both
    /// numerator and denominator fall back to the fixpoint footprint when
    /// no mid-run peak was sampled.  The bounded-memory gauge of the scale
    /// workloads (`0.0` with nothing ever stored), in encoding bytes: 85 B
    /// per row on a converged Best-Path deployment whose store heap is
    /// ≈130 B per row by capacity.
    pub fn bytes_per_tuple(&self) -> f64 {
        let tuples = self.peak_tuples.max(self.tuples_stored);
        if tuples == 0 {
            return 0.0;
        }
        let peak = (self.peak_store_bytes + self.peak_index_bytes)
            .max(self.store_bytes + self.index_bytes);
        peak as f64 / tuples as f64
    }

    /// Relative overhead of this run against a baseline, as fractions
    /// (e.g. `0.53` = 53% slower / larger).  Returns `(time_overhead,
    /// bandwidth_overhead)`.
    pub fn overhead_vs(&self, baseline: &RunMetrics) -> (f64, f64) {
        let time = if baseline.completion.as_micros() == 0 {
            0.0
        } else {
            self.completion_secs() / baseline.completion_secs() - 1.0
        };
        let bw = if baseline.bytes == 0 {
            0.0
        } else {
            self.bytes as f64 / baseline.bytes as f64 - 1.0
        };
        (time, bw)
    }
}

/// `name value` for every nonzero row of the table, in table order (times
/// as whole microseconds, as [`RunMetrics::COUNTERS`] reads them).
impl fmt::Display for RunMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut separator = "";
        for counter in Self::COUNTERS {
            let value = (counter.get)(self);
            if value != 0 {
                write!(f, "{separator}{} {value}", counter.name)?;
                separator = ", ";
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diff_names_the_diverging_counters_up_to_a_scope() {
        let a = RunMetrics::default();
        let b = RunMetrics {
            derivations: 3,
            partitions: 4,
            wall_clock: Duration::from_micros(7),
            ..RunMetrics::default()
        };
        assert_eq!(a.diff(&b, Scope::Schedule), [("derivations", 0, 3)]);
        assert_eq!(
            b.diff(&a, Scope::Layout),
            [("derivations", 3, 0), ("partitions", 4, 0)]
        );
        assert_eq!(a.diff(&b, Scope::Host)[0], ("wall_clock_us", 0, 7));
        assert!(a.diff(&a, Scope::Host).is_empty());
    }

    #[test]
    fn display_prints_every_counter_by_name() {
        // Every field distinct and nonzero, numbered in table order; no
        // `..Default::default()`, so a new row must be added here too.
        let m = RunMetrics {
            completion: SimTime::from_micros(1),
            wall_clock: Duration::from_micros(2),
            messages: 3,
            bytes: 4,
            auth_bytes: 5,
            provenance_bytes: 6,
            derivations: 7,
            tuples_stored: 8,
            signatures: 9,
            verifications: 10,
            verification_failures: 11,
            provenance_ops: 12,
            sampled_out: 13,
            index_probes: 14,
            index_hits: 15,
            scan_probes: 16,
            store_bytes: 17,
            index_bytes: 18,
            peak_store_bytes: 19,
            peak_index_bytes: 20,
            peak_tuples: 21,
            peak_ledger_firings: 22,
            compaction_walked: 23,
            frames: 24,
            batched_tuples: 25,
            rsa_sign_ops: 26,
            rsa_verify_ops: 27,
            hmac_ops: 28,
            handshakes: 29,
            handshake_batches: 30,
            churn_events: 31,
            retractions: 32,
            rederivations: 33,
            tombstone_frames: 34,
            worker_threads: 35,
            partitions: 36,
            cross_partition_frames: 37,
            max_partition_queue: 38,
            frames_dropped: 39,
            frames_duplicated: 40,
            retransmits: 41,
            acks: 42,
            backoff_events: 43,
            max_retransmit_per_frame: 44,
            parallel_wall: Duration::from_micros(45),
        };
        let printed = m.to_string();
        let expected: Vec<String> = (RunMetrics::COUNTERS.iter().enumerate())
            .map(|(i, counter)| format!("{} {}", counter.name, i + 1))
            .collect();
        assert_eq!(printed, expected.join(", "));
        assert_eq!(RunMetrics::default().to_string(), "");
    }

    #[test]
    fn unit_conversions() {
        let m = RunMetrics {
            completion: SimTime::from_millis(2_500),
            bytes: 3_000_000,
            ..RunMetrics::default()
        };
        assert!((m.completion_secs() - 2.5).abs() < 1e-9);
        assert!((m.megabytes() - 3.0).abs() < 1e-9);
        assert_eq!(m.to_string(), "completion_us 2500000, bytes 3000000");
    }

    #[test]
    fn batch_occupancy_is_tuples_per_frame() {
        let mut m = RunMetrics::default();
        assert_eq!(m.mean_batch_occupancy(), 0.0);
        m.frames = 4;
        m.batched_tuples = 10;
        assert!((m.mean_batch_occupancy() - 2.5).abs() < 1e-9);
        assert_eq!(m.to_string(), "frames 4, batched_tuples 10");
    }

    #[test]
    fn crypto_op_counters_are_reported() {
        let m = RunMetrics {
            rsa_sign_ops: 3,
            rsa_verify_ops: 5,
            hmac_ops: 40,
            handshakes: 3,
            handshake_batches: 2,
            ..RunMetrics::default()
        };
        assert_eq!(
            m.to_string(),
            "rsa_sign_ops 3, rsa_verify_ops 5, hmac_ops 40, handshakes 3, handshake_batches 2"
        );
    }

    #[test]
    fn churn_counters_are_reported() {
        let m = RunMetrics {
            churn_events: 4,
            retractions: 9,
            rederivations: 6,
            tombstone_frames: 2,
            ..RunMetrics::default()
        };
        assert_eq!(
            m.to_string(),
            "churn_events 4, retractions 9, rederivations 6, tombstone_frames 2"
        );
    }

    #[test]
    fn fault_counters_are_reported() {
        let m = RunMetrics {
            frames_dropped: 5,
            frames_duplicated: 2,
            retransmits: 6,
            acks: 11,
            backoff_events: 1,
            max_retransmit_per_frame: 3,
            ..RunMetrics::default()
        };
        assert_eq!(
            m.to_string(),
            "frames_dropped 5, frames_duplicated 2, retransmits 6, acks 11, backoff_events 1, \
             max_retransmit_per_frame 3"
        );
    }

    #[test]
    fn scale_gauges_derive_from_counters() {
        let m = RunMetrics {
            completion: SimTime::from_millis(2_000),
            derivations: 500,
            tuples_stored: 100,
            store_bytes: 4_000,
            index_bytes: 1_000,
            peak_store_bytes: 9_000,
            peak_index_bytes: 1_000,
            ..RunMetrics::default()
        };
        // Peak footprint (9000 + 1000) over 100 tuples, not the final one.
        assert!((m.bytes_per_tuple() - 100.0).abs() < 1e-9);
        // A sampled live-tuple peak becomes the denominator — the honest
        // gauge when the final store is empty.
        let evicting = RunMetrics {
            peak_store_bytes: 9_000,
            peak_index_bytes: 1_000,
            peak_tuples: 200,
            ..RunMetrics::default()
        };
        assert!((evicting.bytes_per_tuple() - 50.0).abs() < 1e-9);
        // Without sampled peaks the fixpoint footprint is the fallback.
        let flat = RunMetrics {
            tuples_stored: 10,
            store_bytes: 400,
            index_bytes: 100,
            ..RunMetrics::default()
        };
        assert!((flat.bytes_per_tuple() - 50.0).abs() < 1e-9);
        assert_eq!(RunMetrics::default().bytes_per_tuple(), 0.0);
    }

    #[test]
    fn overhead_computation() {
        let baseline = RunMetrics {
            completion: SimTime::from_millis(1_000),
            bytes: 1_000,
            ..RunMetrics::default()
        };
        let slower = RunMetrics {
            completion: SimTime::from_millis(1_530),
            bytes: 1_360,
            ..RunMetrics::default()
        };
        let (t, b) = slower.overhead_vs(&baseline);
        assert!((t - 0.53).abs() < 1e-9);
        assert!((b - 0.36).abs() < 1e-9);
        // Degenerate baselines do not divide by zero.
        let (t0, b0) = slower.overhead_vs(&RunMetrics::default());
        assert_eq!((t0, b0), (0.0, 0.0));
    }
}
