//! Shape checks for the paper's evaluation claims (Section 6), at a scale
//! small enough for the test suite:
//!
//! 1. `NDLog < SeNDLog < SeNDLogProv` in both completion time and bandwidth;
//! 2. the relative overheads shrink as the network grows;
//! 3. the extra bandwidth is attributable to signatures (SeNDLog) and to
//!    provenance annotations (SeNDLogProv).

use pasn::experiment::{run_point, summarize, ExperimentPoint, SweepConfig};
use pasn::prelude::*;
use pasn_net::CostModel;

fn sweep(sizes: &[u32]) -> Vec<ExperimentPoint> {
    let config = SweepConfig {
        sizes: sizes.to_vec(),
        runs_per_point: 1,
        seed: 0xabcd,
        rsa_modulus_bits: 512,
    };
    let mut points = Vec::new();
    for &n in sizes {
        for variant in SystemVariant::ALL {
            points.push(run_point(n, variant, &config, CostModel::paper_2008()).unwrap());
        }
    }
    points
}

#[test]
fn variants_are_ordered_and_overheads_shrink_with_n() {
    let points = sweep(&[8, 24]);
    let get = |n: u32, name: &str| {
        points
            .iter()
            .find(|p| p.n == n && p.variant == name)
            .cloned()
            .unwrap()
    };

    for n in [8u32, 24] {
        let nd = get(n, "NDLog");
        let se = get(n, "SeNDLog");
        let sp = get(n, "SeNDLogProv");
        assert!(
            nd.completion_secs < se.completion_secs && se.completion_secs <= sp.completion_secs,
            "completion ordering at N={n}: {} / {} / {}",
            nd.completion_secs,
            se.completion_secs,
            sp.completion_secs
        );
        assert!(
            nd.megabytes < se.megabytes && se.megabytes < sp.megabytes,
            "bandwidth ordering at N={n}"
        );
        assert_eq!(nd.signatures, 0.0);
        assert!(se.signatures > 0.0);
    }

    // The paper's headline observation is that the *relative* overheads do
    // not grow with the network: per-tuple crypto and provenance costs are
    // constant while the baseline query cost grows with the join state.  At
    // the small scales used in the test suite we check that the overhead at
    // the larger N stays within a modest factor of the sweep average (the
    // full-scale trend is produced by `cargo run --release -p pasn-bench
    // --bin repro`; PAPER.md describes what it reproduces).
    let summary = summarize(&points);
    assert_eq!(summary.max_n, 24);
    assert!(
        summary.sendlog_time_overhead_at_max <= summary.sendlog_time_overhead * 1.5,
        "SeNDLog time overhead at N=24 ({:.2}) should not blow up past the sweep average ({:.2})",
        summary.sendlog_time_overhead_at_max,
        summary.sendlog_time_overhead
    );
    assert!(
        summary.sendlog_bandwidth_overhead_at_max <= summary.sendlog_bandwidth_overhead * 1.5,
        "SeNDLog bandwidth overhead should not grow with N"
    );
    assert!(summary.sendlog_time_overhead > 0.0);
    assert!(summary.prov_bandwidth_overhead > 0.0);
    assert!(summary.prov_time_overhead >= 0.0);
}

#[test]
fn extra_bandwidth_is_attributable_to_auth_and_provenance() {
    let run = |variant: SystemVariant| {
        let topology = pasn::workload::evaluation_topology(10, 77);
        let mut config = variant.config();
        config.cost_model = CostModel::zero_cpu();
        let mut net = SecureNetwork::builder()
            .program(pasn::programs::best_path())
            .topology(topology)
            .config(config)
            .build()
            .unwrap();
        net.engine_mut().run_to_fixpoint().unwrap()
    };
    let nd = run(SystemVariant::NDLog);
    let se = run(SystemVariant::SeNDLog);
    let sp = run(SystemVariant::SeNDLogProv);

    // Same query, same topology: the derivation counts agree.
    assert_eq!(nd.derivations, se.derivations);
    assert_eq!(se.derivations, sp.derivations);
    assert_eq!(nd.messages, se.messages);

    // The bandwidth gap between NDLog and SeNDLog equals the signature bytes.
    assert_eq!(se.bytes - nd.bytes, se.auth_bytes);
    assert_eq!(nd.auth_bytes, 0);
    // The gap between SeNDLog and SeNDLogProv equals the provenance bytes.
    assert_eq!(sp.bytes - se.bytes, sp.provenance_bytes);
    assert_eq!(se.provenance_bytes, 0);
}
