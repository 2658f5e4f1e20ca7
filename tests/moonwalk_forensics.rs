//! Sampled provenance queries (Section 5, "Sampling"): random moonwalks over
//! the engine's distributed provenance stores, compared against the
//! exhaustive traceback query they approximate.

use pasn::prelude::*;
use pasn::workload;
use pasn_provenance::{moonwalk_with, traceback, MoonwalkConfig};

fn run_reachability(n: u32, seed: u64) -> SecureNetwork {
    let topology = workload::evaluation_topology(n, seed);
    let mut net = SecureNetwork::builder()
        .program(pasn::programs::reachability_ndlog())
        .topology(topology)
        .config(
            EngineConfig::ndlog()
                .with_cost_model(CostModel::zero_cpu())
                .with_graph_mode(GraphMode::Distributed),
        )
        .build()
        .expect("program compiles");
    net.engine_mut()
        .run_to_fixpoint()
        .expect("fixpoint reached");
    net
}

/// The farthest-reaching derived tuple at node 0, as a (location, key) pair.
fn deepest_tuple(net: &SecureNetwork) -> (Value, String) {
    let loc = Value::Addr(0);
    let tuple = net
        .engine()
        .query(&loc, "reachable")
        .into_iter()
        .map(|(t, _)| t)
        .max_by_key(|t| t.values[1].clone())
        .expect("node 0 derives something");
    let key = tuple.render_located(Some(0));
    (loc, key)
}

#[test]
fn moonwalk_origins_are_a_subset_of_the_exhaustive_traceback() {
    let net = run_reachability(10, 41);
    let stores = net.engine().distributed_stores();
    let (loc, key) = deepest_tuple(&net);

    let full = traceback(&stores, &loc.to_string(), &key);
    assert!(!full.base_tuples.is_empty());

    let sampled = moonwalk_with(
        |name| stores.get(name).copied(),
        &loc.to_string(),
        &key,
        &MoonwalkConfig {
            walks: 128,
            seed: 3,
            ..MoonwalkConfig::default()
        },
    );
    assert!(sampled.hit_rate() > 0.9);
    // Sampling can only surface true origins.
    for base in sampled.base_frequency.keys() {
        assert!(
            full.base_tuples.contains(base),
            "moonwalk reported {base:?} which exhaustive traceback never found"
        );
    }
    assert!(sampled.suspected_origin().is_some());
}

#[test]
fn moonwalk_reads_fewer_records_than_exhaustive_traceback_on_large_graphs() {
    let net = run_reachability(16, 8);
    let stores = net.engine().distributed_stores();
    let (loc, key) = deepest_tuple(&net);

    let full = traceback(&stores, &loc.to_string(), &key);
    // A deliberately small sampling budget.
    let config = MoonwalkConfig {
        walks: 8,
        max_depth: 6,
        seed: 11,
    };
    let by_name = |name: &str| stores.get(name).copied();
    let sampled = moonwalk_with(by_name, &loc.to_string(), &key, &config);
    assert!(
        sampled.records_read < full.visited.len() * 2,
        "sampled {} vs exhaustive {}",
        sampled.records_read,
        full.visited.len()
    );
    assert!(sampled.records_read <= 8 * 6);
}

#[test]
fn moonwalks_are_reproducible_and_respect_the_walk_budget() {
    let net = run_reachability(8, 2);
    let stores = net.engine().distributed_stores();
    let (loc, key) = deepest_tuple(&net);
    let config = MoonwalkConfig {
        walks: 32,
        seed: 99,
        ..MoonwalkConfig::default()
    };
    let by_name = |name: &str| stores.get(name).copied();
    let a = moonwalk_with(by_name, &loc.to_string(), &key, &config);
    let b = moonwalk_with(by_name, &loc.to_string(), &key, &config);
    assert_eq!(a.base_frequency, b.base_frequency);
    assert_eq!(a.walks.len(), 32);
    assert_eq!(a.remote_hops, b.remote_hops);
}

#[test]
fn sampling_policy_reduces_recorded_provenance() {
    // Section 5's other sampling knob: only record provenance for a fraction
    // of derivations.  The distributed stores must shrink accordingly, and a
    // moonwalk over what is left can still only surface true origins.
    let topology = workload::evaluation_topology(10, 13);
    let run = |sampling| {
        let mut config = EngineConfig::ndlog()
            .with_cost_model(CostModel::zero_cpu())
            .with_graph_mode(GraphMode::Distributed);
        config.sampling = sampling;
        let mut net = SecureNetwork::builder()
            .program(pasn::programs::reachability_ndlog())
            .topology(topology.clone())
            .config(config)
            .build()
            .unwrap();
        net.engine_mut().run_to_fixpoint().unwrap();
        net
    };
    let entries = |net: &SecureNetwork| {
        let stores = net.engine().distributed_stores();
        stores.values().map(|s| s.entry_count()).sum::<usize>()
    };
    let full = run(pasn_provenance::SamplingPolicy::always());
    let sampled = run(pasn_provenance::SamplingPolicy { one_in: 8 });
    let (always, kept) = (entries(&full), entries(&sampled));
    assert!(always > 0);
    assert!(
        kept < always,
        "1-in-8 sampling must record fewer entries ({kept} vs {always})"
    );

    let (loc, key) = deepest_tuple(&full);
    let origins =
        traceback(&full.engine().distributed_stores(), &loc.to_string(), &key).base_tuples;
    let sampled_stores = sampled.engine().distributed_stores();
    let walked = moonwalk_with(
        |name| sampled_stores.get(name).copied(),
        &loc.to_string(),
        &key,
        &MoonwalkConfig {
            walks: 32,
            seed: 5,
            ..MoonwalkConfig::default()
        },
    );
    for base in walked.base_frequency.keys() {
        assert!(
            origins.contains(base),
            "moonwalk over sampled stores reported {base:?}, not an origin"
        );
    }
}
