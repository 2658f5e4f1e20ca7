//! Integration tests for the deterministic flight recorder (`pasn-trace`):
//! trace events are recorded in simulated time, reconstruct the transport
//! counters exactly, never perturb a run, and are bit-identical across
//! runs — the trace doubles as a determinism oracle.

use pasn::prelude::*;
use pasn::workload;

fn reachability_30(config: EngineConfig) -> SecureNetwork {
    SecureNetwork::builder()
        .program(pasn::programs::reachability_ndlog())
        .topology(workload::evaluation_topology(30, 7))
        .config(config)
        .build()
        .unwrap()
}

/// The acceptance bar of the tentpole: on the lossy N=30 session
/// deployment, the frame-lifecycle events reconstruct every transport
/// counter exactly — each drop, duplicate, retransmission and ack in the
/// trace corresponds one to one with the `RunMetrics` totals.
#[test]
fn lossy_trace_reconstructs_transport_counters() {
    for fault_seed in [41, 987_654_321] {
        lossy_trace_reconstructs_counters_under(fault_seed);
    }
}

fn lossy_trace_reconstructs_counters_under(fault_seed: u64) {
    let mut net = reachability_30(
        EngineConfig::sendlog_session()
            .with_cost_model(CostModel::zero_cpu())
            .with_batching()
            .with_fault_plan(FaultPlan::new(fault_seed))
            .with_tracing(TraceConfig::new()),
    );
    let metrics = net.engine_mut().run_to_fixpoint().unwrap();
    assert!(metrics.frames_dropped > 0, "the fault plan must bite");
    let trace = net.engine().trace().expect("tracing enabled");

    let cycles = trace.link_lifecycles();
    let total = |f: fn(&pasn_engine::LinkLifecycle) -> u64| cycles.iter().map(f).sum::<u64>();
    assert_eq!(total(|c| c.dropped), metrics.frames_dropped);
    assert_eq!(total(|c| c.duplicated), metrics.frames_duplicated);
    assert_eq!(total(|c| c.retransmits), metrics.retransmits);
    assert_eq!(total(|c| c.acks), metrics.acks);
    assert_eq!(total(|c| c.shipped), metrics.frames);
    assert_eq!(
        total(|c| c.delivered),
        metrics.frames,
        "the reliability layer must deliver every frame exactly once"
    );
    assert_eq!(total(|c| c.dead), 0, "no frame may exhaust its budget");

    // Link scoping: the busiest link's events are the frames it shipped,
    // each with its lifecycle.
    let busiest = cycles
        .iter()
        .max_by_key(|c| c.shipped)
        .expect("frames were shipped");
    let on_link = trace
        .events()
        .filter(|e| e.kind.link() == Some(busiest.link));
    assert!(on_link.count() as u64 >= busiest.shipped);
    assert_eq!(trace.events().count(), trace.len());

    // The Perfetto export carries every lifecycle stage as an args.kind.
    let json = trace.to_chrome_json();
    for kind in ["\"kind\":\"ship\"", "\"kind\":\"drop\"", "\"kind\":\"ack\""] {
        assert!(json.contains(kind), "export must contain {kind}");
    }
}

/// Tracing is observation only: the traced run's counters, fixpoint and
/// stored orderings are bit-identical to the untraced run.
#[test]
fn tracing_never_perturbs_the_run() {
    let config = || {
        EngineConfig::sendlog_session()
            .with_cost_model(CostModel::zero_cpu())
            .with_batching()
    };
    let mut plain_net = reachability_30(config());
    let plain = plain_net.engine_mut().run_to_fixpoint().unwrap();
    let mut traced_net = reachability_30(config().with_tracing(TraceConfig::new()));
    let traced = traced_net.engine_mut().run_to_fixpoint().unwrap();

    // Everything but host time: same config, so even the layout rows match.
    let perturbed = traced.diff(&plain, pasn_engine::Scope::Layout);
    assert!(perturbed.is_empty(), "tracing perturbed {perturbed:?}");

    for loc in plain_net.engine().locations().to_vec() {
        let want: Vec<Tuple> = plain_net
            .engine()
            .query(&loc, "reachable")
            .into_iter()
            .map(|(t, _)| t)
            .collect();
        let got: Vec<Tuple> = traced_net
            .engine()
            .query(&loc, "reachable")
            .into_iter()
            .map(|(t, _)| t)
            .collect();
        assert_eq!(got, want, "tracing changed insertion order at {loc}");
    }
}

/// The trace-as-oracle property: the full Chrome/Perfetto export — every
/// event, every span, byte for byte — is a pure function of the workload,
/// so a second run reproduces it.
#[test]
fn trace_is_bit_identical_across_runs() {
    let export = || {
        let mut net = reachability_30(
            EngineConfig::ndlog()
                .with_batching()
                .with_tracing(TraceConfig::new()),
        );
        net.engine_mut().run_to_fixpoint().unwrap();
        net.engine()
            .trace()
            .expect("tracing enabled")
            .to_chrome_json()
    };
    let first = export();
    assert!(
        first.contains("\"kind\":\"wave\""),
        "wave spans must be recorded"
    );
    assert_eq!(export(), first, "trace diverged between two runs");
}

/// Every derivation in the run is attributed to a rule firing in the
/// trace, and the hot-rule profile aggregates them deterministically.
#[test]
fn hot_rule_profile_attributes_all_derivations() {
    let mut net = reachability_30(EngineConfig::ndlog().with_tracing(TraceConfig::new()));
    let metrics = net.engine_mut().run_to_fixpoint().unwrap();
    let trace = net.engine().trace().expect("tracing enabled");
    let mut fired = 0u64;
    let mut cpu = 0u64;
    for event in trace.events() {
        if let TraceEventKind::RuleFire {
            derived, cpu_us, ..
        } = event.kind
        {
            fired += u64::from(derived);
            cpu += cpu_us;
        }
    }
    assert_eq!(fired, metrics.derivations, "unattributed derivations");
    assert!(cpu > 0, "the paper cost model charges join probes");
    let profile = trace.hot_rules(10);
    assert!(!profile.is_empty());
    assert_eq!(profile.iter().map(|p| p.derived).sum::<u64>(), fired);
    assert!(
        profile.windows(2).all(|w| w[0].cpu_us >= w[1].cpu_us),
        "profile must be sorted by CPU, descending"
    );
}

/// Gauge samples land exactly on configured simulated-time boundaries, in
/// order, and observe live state.
#[test]
fn gauge_samples_land_on_interval_boundaries() {
    let interval = 200u64;
    let mut net = reachability_30(
        EngineConfig::ndlog().with_tracing(TraceConfig::new().with_gauge_interval_us(interval)),
    );
    net.engine_mut().run_to_fixpoint().unwrap();
    let trace = net.engine().trace().expect("tracing enabled");
    let samples: Vec<(u64, u64)> = trace
        .events()
        .filter_map(|e| match e.kind {
            TraceEventKind::Gauge { store_bytes, .. } => Some((e.at_us, store_bytes)),
            _ => None,
        })
        .collect();
    assert!(!samples.is_empty(), "the run must cross a sample boundary");
    assert!(samples.iter().all(|&(at, _)| at % interval == 0));
    assert!(
        samples.windows(2).all(|w| w[0].0 < w[1].0),
        "samples must be strictly ordered"
    );
    assert!(
        samples.iter().any(|&(_, bytes)| bytes > 0),
        "mid-run store residency must be observed"
    );
}

/// The ring-buffer mode keeps the most recent events, counts evictions,
/// and still exports cleanly.
#[test]
fn ring_buffer_bounds_long_runs() {
    let mut net =
        reachability_30(EngineConfig::ndlog().with_tracing(TraceConfig::new().with_ring(64)));
    net.engine_mut().run_to_fixpoint().unwrap();
    let trace = net.engine().trace().expect("tracing enabled");
    assert_eq!(trace.len(), 64);
    assert!(trace.dropped_events() > 0);
    let json = trace.to_chrome_json();
    assert!(json.ends_with(&format!("],\"droppedEvents\":{}}}", trace.dropped_events())));
}
