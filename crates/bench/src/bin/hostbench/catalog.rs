//! The one definition of every metric the benchmark prints: name, unit,
//! direction, regression bound (end-to-end only) and — for a layer metric —
//! which end-to-end metric it should move, on which workload.  The result
//! line, the suite document and `BENCHMARK.json` all follow this table; a
//! unit test holds `BENCHMARK.json` to it.

/// Which way is better.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
    pub what: &'static str,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "benchmark-side work before the first timed call: input generation and \
               reference answers (best of 25 set-ups)",
    },
    EndToEnd {
        name: "deploy_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "NDlog source text to a ready SecureNetwork: parse, validate, localize, plan, \
               key provisioning, base facts",
    },
    EndToEnd {
        name: "fixpoint_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "run() / run_streaming() to quiescence at the workload's worker count",
    },
    EndToEnd {
        name: "query_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        what: "median latency of one closed-loop read of the converged deployment: \
               forensics::investigate on prov_query, query(node, answer) elsewhere",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
        what: "VmHWM of the measuring process",
    },
];

/// A per-layer metric.  `layer()` is the crate / module it measures.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric it should move, and where.
    pub moves: &'static str,
}

impl Layer {
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().expect("layer prefix")
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

const DEPLOY_ALL: &str = "deploy_s everywhere, but under 1 ms of it: expect no visible move";
const DEPLOY_KEYS: &str =
    "deploy_s on bestpath_secprov, lossy_session, prov_query; zero on cleartext";
const FIX_CRYPTO: &str =
    "fixpoint_s on bestpath_secprov (large), lossy_session (small, HMAC only); none on cleartext";
const FIX_STORE: &str =
    "fixpoint_s on bestpath_ndlog (largest share), then lossy_session; peak_rss_mb everywhere";
const FIX_EXPIRY: &str = "fixpoint_s on reach_stream only";
const FIX_ALL: &str = "fixpoint_s on every workload";
const FIX_CHURN: &str = "fixpoint_s and sim.bandwidth_mb on reach_stream";
const FIX_W2: &str = "reach_stream on a two-worker pool; no end-to-end metric: two threads on a \
                      two-vCPU shared host do not repeat within any bound";
const FIX_PROV: &str =
    "fixpoint_s, sim.bandwidth_mb, peak_rss_mb on bestpath_secprov and prov_query; none on cleartext";
const QUERY: &str = "query_p50_us on prov_query";
const QUERY_TAIL: &str = "one 1,000-read round: the tail query_p50_us cannot show (p99 does not \
                          repeat within any bound on a shared host, so it is reported here)";
const LOSSY: &str =
    "sim.bandwidth_mb, sim.completion_s, fixpoint_s on lossy_session; zero elsewhere";
const MODEL: &str = "model output, not host speed: identical under a pure speed-up, lower only \
                     when fewer bytes or steps are modelled";
const TRACE: &str = "no untraced end-to-end metric; reported so the recorder's cost stays known";

pub const PER_LAYER: &[Layer] = &[
    layer("datalog.parse_us", "us", Lower, DEPLOY_ALL),
    layer("datalog.compile_us", "us", Lower, DEPLOY_ALL),
    layer("datalog.rules", "count", Lower, DEPLOY_ALL),
    layer("datalog.index_specs", "count", Lower, DEPLOY_ALL),
    layer("crypto.keygen_ms", "ms", Lower, DEPLOY_KEYS),
    layer("crypto.principals", "count", Lower, DEPLOY_KEYS),
    layer("crypto.rsa_sign_us", "us", Lower, FIX_CRYPTO),
    layer("crypto.rsa_verify_us", "us", Lower, FIX_CRYPTO),
    layer("crypto.rsa_sign_ops", "count", Lower, FIX_CRYPTO),
    layer("crypto.rsa_verify_ops", "count", Lower, FIX_CRYPTO),
    layer("crypto.handshakes", "count", Lower, FIX_CRYPTO),
    layer("crypto.handshake_batches", "count", Lower, FIX_CRYPTO),
    layer("crypto.hmac_frame_ns", "ns", Lower, FIX_CRYPTO),
    layer("crypto.hmac_ops", "count", Lower, FIX_CRYPTO),
    layer("crypto.busy_s_est", "s", Lower, FIX_CRYPTO),
    layer("crypto.share", "share", Lower, FIX_CRYPTO),
    layer("store.insert_ns", "ns", Lower, FIX_STORE),
    layer("store.probe_ns", "ns", Lower, FIX_STORE),
    layer("store.scan_ns", "ns", Lower, FIX_STORE),
    layer("store.index_probes", "count", Lower, FIX_STORE),
    layer("store.index_hits", "count", Lower, FIX_STORE),
    layer("store.hit_ratio", "ratio", Lower, FIX_STORE),
    layer("store.scan_probes", "count", Lower, FIX_STORE),
    layer("store.bytes_per_tuple", "B", Lower, FIX_STORE),
    layer("store.peak_bytes", "B", Lower, FIX_STORE),
    layer("store.busy_s_est", "s", Lower, FIX_STORE),
    layer("store.expire_ns", "ns", Lower, FIX_EXPIRY),
    layer("store.compaction_walked", "count", Lower, FIX_EXPIRY),
    layer("store.walk_per_retraction", "ratio", Lower, FIX_EXPIRY),
    layer("runtime.fixpoint_s", "s", Lower, FIX_ALL),
    layer("runtime.derivations", "count", Lower, FIX_ALL),
    layer("runtime.tuples_stored", "count", Lower, FIX_ALL),
    layer("runtime.messages", "count", Lower, FIX_ALL),
    layer("runtime.frames", "count", Lower, FIX_ALL),
    layer("runtime.batched_tuples", "count", Lower, FIX_ALL),
    layer("runtime.mean_batch_occupancy", "ratio", Higher, FIX_ALL),
    layer("runtime.ns_per_derivation", "ns", Lower, FIX_ALL),
    layer("runtime.derivations_per_s", "1/s", Higher, FIX_ALL),
    layer("runtime.residual_s", "s", Lower, FIX_ALL),
    layer("runtime.retractions", "count", Lower, FIX_CHURN),
    layer("runtime.rederivations", "count", Lower, FIX_CHURN),
    layer("runtime.tombstone_frames", "count", Lower, FIX_CHURN),
    layer("runtime.churn_events", "count", Lower, FIX_CHURN),
    layer("runtime.fixpoint_w2_s", "s", Lower, FIX_W2),
    layer("runtime.partitions", "count", Higher, FIX_W2),
    layer("runtime.cross_partition_frames", "count", Lower, FIX_W2),
    layer("runtime.cross_share", "share", Lower, FIX_W2),
    layer("runtime.max_partition_queue", "count", Higher, FIX_W2),
    layer("runtime.w2_ratio", "ratio", Lower, FIX_W2),
    layer("provenance.tag_times_ns", "ns", Lower, FIX_PROV),
    layer("provenance.tag_plus_ns", "ns", Lower, FIX_PROV),
    layer("provenance.condense_us", "us", Lower, FIX_PROV),
    layer("provenance.tag_wire_ns", "ns", Lower, FIX_PROV),
    layer("provenance.tag_wire_bytes", "B", Lower, FIX_PROV),
    layer("provenance.ops", "count", Lower, FIX_PROV),
    layer("provenance.busy_s_est", "s", Lower, FIX_PROV),
    layer("bdd.and_ns", "ns", Lower, FIX_PROV),
    layer("bdd.node_count", "count", Lower, FIX_PROV),
    layer("provenance.snapshot_ms", "ms", Lower, QUERY),
    layer("provenance.traceback_us", "us", Lower, QUERY),
    layer("provenance.visited_per_query", "count", Lower, QUERY),
    layer("provenance.remote_hops_per_query", "count", Lower, QUERY),
    layer("provenance.render_us", "us", Lower, QUERY),
    layer("core.archive_scan_us", "us", Lower, QUERY),
    layer("core.investigate_us", "us", Lower, QUERY),
    layer("query.p50_us", "us", Lower, QUERY_TAIL),
    layer("query.p99_us", "us", Lower, QUERY_TAIL),
    layer("query.samples", "count", Higher, QUERY_TAIL),
    layer("net.frames_dropped", "count", Lower, LOSSY),
    layer("net.frames_duplicated", "count", Lower, LOSSY),
    layer("net.retransmits", "count", Lower, LOSSY),
    layer("net.acks", "count", Lower, LOSSY),
    layer("net.backoff_events", "count", Lower, LOSSY),
    layer("net.max_retransmit_per_frame", "count", Lower, LOSSY),
    layer("net.goodput_share", "share", Higher, LOSSY),
    layer("net.sim_send_ns", "ns", Lower, FIX_ALL),
    layer("net.busy_s_est", "s", Lower, FIX_ALL),
    layer("sim.completion_s", "s", Lower, MODEL),
    layer("sim.bandwidth_mb", "MB", Lower, MODEL),
    layer("trace.events", "count", Lower, TRACE),
    layer("trace.spans", "count", Lower, TRACE),
    layer("trace.overhead_ratio", "ratio", Lower, TRACE),
    layer("trace.export_ms", "ms", Lower, TRACE),
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_fit_the_benchmark_contract() {
        let mut seen = HashSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        {
            assert!(valid_name(name), "bad metric name {name}");
            assert!(valid_unit(unit), "bad unit {unit} on {name}");
            assert!(seen.insert(name), "{name} is defined twice");
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        for metric in END_TO_END {
            assert!(
                metric.bound > 0.0 && metric.bound <= 0.25,
                "{}",
                metric.name
            );
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert_eq!(PER_LAYER[0].layer(), "datalog");
    }
}
