//! # pasn-bench
//!
//! Benchmark support for the *Provenance-aware Secure Networks*
//! reproduction: shared deployment helpers used by the `repro` binary that
//! regenerates every figure of the paper's evaluation section
//! (`BENCH_engine.json`).  The one Criterion bench left times the `says`
//! primitives; the provenance knobs are pinned counter claims in the root
//! package's `tests/optimizations.rs`.

#![forbid(unsafe_code)]

use pasn::prelude::*;
use pasn::workload;
use pasn_overlay::ChordDeployment;
use std::sync::Arc;

/// Builds a reachability deployment (`repro`'s 30-node session, lossy and
/// churn points).
pub fn reachability_network(n: u32, config: EngineConfig, seed: u64) -> SecureNetwork {
    let topology = workload::evaluation_topology(n, seed);
    SecureNetwork::builder()
        .program(pasn::programs::reachability_ndlog())
        .topology(topology)
        .config(config)
        .build()
        .expect("the reachability program compiles")
}

/// Builds the modeled-parallelism workload: `clusters` disjoint clusters of
/// `cluster_size` nodes, each wired as a directed ring plus a fixed-offset
/// chord, running the NDLog reachability program.
///
/// The clusters are mutually unreachable, so the fixpoint is `clusters`
/// independent transitive closures — embarrassingly parallel work whose
/// node ids interleave across the `node_id % workers` partition map, so
/// every partition of the modeled pool owns events in each wave.  The
/// per-cluster reach set is bounded (`cluster_size` tuples per node), so
/// the workload scales linearly with `clusters` instead of quadratically
/// with the node count.
pub fn clustered_reachability_network(
    clusters: u32,
    cluster_size: u32,
    config: EngineConfig,
) -> SecureNetwork {
    use pasn_net::{Link, NodeId};
    assert!(cluster_size >= 3, "a ring plus a chord needs >= 3 nodes");
    let mut links = Vec::new();
    for c in 0..clusters {
        let base = c * cluster_size;
        for j in 0..cluster_size {
            let src = NodeId(base + j);
            for offset in [1, 1 + cluster_size / 3] {
                links.push(Link {
                    src,
                    dst: NodeId(base + (j + offset) % cluster_size),
                    cost: 1,
                });
            }
        }
    }
    let topology = Topology::new((0..clusters * cluster_size).map(NodeId), links);
    SecureNetwork::builder()
        .program(pasn::programs::reachability_ndlog())
        .topology(topology)
        .config(config)
        .build()
        .expect("the reachability program compiles")
}

/// Builds a single-node equijoin deployment with `rows` tuples in each of
/// two base relations sharing a key column: the canonical workload for the
/// secondary-index join path (`repro`'s `equijoin_{indexed,scan,batched}`
/// points).
///
/// Every arriving `a(@S,K,X)` delta joins `b(@S,K,Y)` on the bound prefix
/// `(S, K)` and vice versa, so the scan-based evaluation examines O(rows²)
/// candidate tuples while the indexed evaluation examines O(rows).  Keys are
/// distinct, producing exactly `rows` join results.
pub fn equijoin_engine(rows: u32, config: EngineConfig) -> pasn_engine::DistributedEngine {
    let program = pasn_datalog::parse_program("j1 m(@S,K,X,Y) :- a(@S,K,X), b(@S,K,Y).")
        .expect("the equijoin program parses");
    let location = Value::Addr(0);
    let mut engine =
        pasn_engine::DistributedEngine::new(&program, config, std::slice::from_ref(&location))
            .expect("the equijoin program compiles");
    for i in 0..rows {
        let k = Value::Int(i as i64);
        engine
            .insert_fact(
                location.clone(),
                Tuple::new(
                    "a",
                    vec![location.clone(), k.clone(), Value::Int(i as i64 * 2)],
                ),
            )
            .expect("known location");
        engine
            .insert_fact(
                location.clone(),
                Tuple::new("b", vec![location.clone(), k, Value::Int(i as i64 * 3)]),
            )
            .expect("known location");
    }
    engine
}

/// Simulated-time spacing between generations of the streaming scale
/// workload: a new cluster's links come up every `GENERATION_GAP_US`.
pub(crate) const GENERATION_GAP_US: u64 = 200_000;

/// Soft-state lifetime of every link in the streaming scale workload:
/// 2.5 generations, so roughly three clusters are live at any instant
/// regardless of how many the run visits in total.
pub(crate) const GENERATION_TTL_US: u64 = 500_000;

/// Builds the order-of-magnitude scale workload: `clusters` disjoint
/// ring-plus-chord clusters of `cluster_size` nodes whose links are *not*
/// pre-inserted — they arrive as a time-ordered stream of `LinkUp` events,
/// one generation (cluster) every `GENERATION_GAP_US`, and go back down
/// one `GENERATION_TTL_US` later.
///
/// Two eviction mechanisms bound memory during the run.  The quadratic
/// part — each cluster's `cluster_size²` derived `reachable` tuples — is
/// soft state under the engine's default TTL, killed mid-run by scheduled
/// expiry cascading through provenance-guided deletion (base facts are
/// deliberately hard state, so the TTL never touches the links).  The
/// linear part — the links themselves — is retired by the scripted
/// `LinkDown`s.  Fed through
/// [`pasn_engine::DistributedEngine::run_streaming`], every generation
/// converges, expires and retires before more than a couple of younger
/// generations have arrived, so total work grows with `clusters`
/// while peak `store_bytes + index_bytes` stays O(live generations): the
/// bounded-memory property the `reachability_10k` bench rows pin.  The
/// returned event list is the stream; feeding it to `run_scenario` instead
/// reproduces the identical schedule with O(script) driver memory.
pub fn generational_reachability_workload(
    clusters: u32,
    cluster_size: u32,
    config: EngineConfig,
) -> (SecureNetwork, Vec<(SimTime, ChurnEvent)>) {
    assert!(cluster_size >= 3, "a ring plus a chord needs >= 3 nodes");
    let locations: Vec<Value> = (0..clusters * cluster_size).map(Value::Addr).collect();
    let net = SecureNetwork::builder()
        .program(pasn::programs::reachability_ndlog())
        .locations(locations)
        .config(
            config
                .with_dynamics()
                .with_default_ttl_us(GENERATION_TTL_US),
        )
        .build()
        .expect("the reachability program compiles");
    let mut events = Vec::new();
    for c in 0..clusters {
        let up_at = SimTime::from_micros(c as u64 * GENERATION_GAP_US);
        let down_at = SimTime::from_micros(up_at.as_micros() + GENERATION_TTL_US);
        let base = c * cluster_size;
        for j in 0..cluster_size {
            for offset in [1, 1 + cluster_size / 3] {
                let src = Value::Addr(base + j);
                let dst = Value::Addr(base + (j + offset) % cluster_size);
                events.push((
                    up_at,
                    ChurnEvent::LinkUp {
                        src: src.clone(),
                        dst: dst.clone(),
                        cost: None,
                    },
                ));
                events.push((down_at, ChurnEvent::LinkDown { src, dst }));
            }
        }
    }
    // Interleave the generations into one time-ordered stream (stable, so
    // same-instant events keep their per-cluster order).
    events.sort_by_key(|(at, _)| *at);
    (net, events)
}

/// What [`sustained_expiry_churn`] observed: cumulative insert/expiry
/// totals, the seq-list positions compaction actually walked, and the peak
/// footprint across generations.
pub struct ExpiryChurnReport {
    /// The store after the final (still-live) generation.
    pub store: pasn_engine::NodeStore,
    /// Tuples inserted across all generations.
    pub inserted: u64,
    /// Tuples removed by TTL expiry.
    pub expired: u64,
    /// Seq-list entries walked by lazy compaction — the amortisation
    /// subject: it must stay within a small constant factor of `expired`.
    pub compaction_walked: u64,
    /// Peak `store_bytes` across generations.
    pub peak_store_bytes: u64,
    /// Peak `index_bytes` across generations.
    pub peak_index_bytes: u64,
}

/// Drives one store through `generations` full soft-state generations of
/// `rows` tuples each: insert a generation with a TTL, expire it, insert
/// the next.  Each generation's rows are distinct (the generation number
/// is a column), so the store's seq lists accrue real dead-entry debt
/// every cycle; the report's `compaction_walked` against `expired` is the
/// amortisation evidence the `sustained_expiry_churn` bench row pins, and
/// the peak gauges show memory staying O(one generation) rather than
/// O(history).
pub fn sustained_expiry_churn(rows: u32, generations: u32) -> ExpiryChurnReport {
    use pasn_engine::{NodeStore, TupleMeta};

    assert!(generations >= 1);
    let meta = |expires: u64| TupleMeta {
        tag: ProvTag::None,
        created_at: SimTime::ZERO,
        expires_at: Some(SimTime::from_micros(expires)),
        origin: NodeId(0),
    };
    let flow = |generation: i64, i: u32| -> Arc<[Value]> {
        Arc::from([
            Value::Addr(i % 1024),
            Value::Int(i as i64),
            Value::Int(generation),
        ])
    };
    let mut store = NodeStore::new();
    let pred = store.intern("flow");
    store.register_index_id(pred, &[0]);
    let mut report = ExpiryChurnReport {
        store: NodeStore::new(),
        inserted: 0,
        expired: 0,
        compaction_walked: 0,
        peak_store_bytes: 0,
        peak_index_bytes: 0,
    };
    for g in 0..generations {
        let deadline = (g as u64 + 1) * 1_000;
        for i in 0..rows {
            store.insert_row(pred, flow(g as i64, i), meta(deadline), |a, _| a.clone());
        }
        report.inserted += rows as u64;
        report.peak_store_bytes = report.peak_store_bytes.max(store.store_bytes() as u64);
        report.peak_index_bytes = report.peak_index_bytes.max(store.index_bytes() as u64);
        // The last generation stays live so the final store is non-empty.
        if g + 1 < generations {
            report.expired += store.expire(SimTime::from_micros(deadline)).len() as u64;
            report.compaction_walked += store.take_compaction_debt();
        }
    }
    report.store = store;
    report
}

/// Builds the Chord-under-churn workload: `pasn::programs::CHORD` deployed
/// over a stabilised `nodes`-member ring with HMAC-authenticated frames and
/// condensed provenance, and the event stream of three phases of
/// `lookups_per_phase` standing lookups (deterministic keys, rotating
/// origins) — on the stable ring at 1 s, after every eighth member departs
/// at 5 s, after they all rejoin at 10 s.  Re-stabilisation is the ring
/// builder's: the changed `succ` / `finger` facts as churn events, standing
/// lookups re-routed by the deletion ledger.
pub fn chord_churn_deployment(
    nodes: u32,
    lookups_per_phase: usize,
) -> (ChordDeployment, Vec<(SimTime, ChurnEvent)>) {
    use pasn_overlay::chord::{get, ChordConfig, Ring};

    let ring = Ring::build(ChordConfig { nodes, bits: 24 }).expect("ring builds");
    let config = EngineConfig::ndlog()
        .with_says(pasn_crypto::SaysLevel::Hmac)
        .with_provenance(ProvenanceKind::Condensed);
    let mut dht = ring.deploy(config).expect("ring deploys");
    let departing: Vec<u32> = ring.members().iter().copied().step_by(8).collect();
    let mut events = Vec::new();
    let mut phase = |ring: &Ring, label: &str, at_us: u64, changed: Vec<ChurnEvent>| {
        let at = SimTime::from_micros(at_us);
        events.extend(changed.into_iter().map(|event| (at, event)));
        let asked = SimTime::from_micros(at_us + 1_000_000);
        for i in 0..lookups_per_phase {
            let origin = ring.members()[i % ring.members().len()];
            let key = ring.space().key_id(&format!("{label}-key-{i}"));
            events.push((asked, pasn_overlay::insert(get(origin, key))));
        }
    };
    phase(&dht.ring, "stable", 0, Vec::new());
    let left = dht.ring.leave(&departing).expect("members depart");
    phase(&dht.ring, "churned", 5_000_000, left);
    let back = dht.ring.rejoin(&departing).expect("members rejoin");
    phase(&dht.ring, "rejoined", 10_000_000, back);
    (dht, events)
}

/// Panics unless every lookup `events` issued (a `get` inserted at its
/// origin) ended with one answer: the successor of its key on the ring as
/// the deployment's builder has it now.
pub fn assert_lookups_end_at_their_owner(dht: &ChordDeployment, events: &[(SimTime, ChurnEvent)]) {
    let inserted = events.iter().filter_map(|(_, event)| match event {
        ChurnEvent::Insert { tuple, .. } if &*tuple.predicate == "get" => Some(tuple),
        _ => None,
    });
    for get in inserted {
        let origin = get.values[0].as_addr().expect("get(N,K): N is a node");
        let key = get.values[1]
            .as_int()
            .expect("get(N,K): K is an identifier") as u64;
        let owners: Vec<u32> = dht.lookups(origin, key).iter().map(|l| l.owner).collect();
        let owner = dht.ring.successor_of(key);
        assert_eq!(owners, [owner], "lookup of {key:#x} from n{origin}");
    }
}

/// Runs one store-churn cycle at `rows` tuples and returns the resulting
/// store: insert `rows` soft-state `flow` tuples (indexed on the first
/// column), expire them all, then re-insert a fresh generation as hard
/// state.  Exercises seq-ordered expiry, lazy seq-list compaction and
/// incremental index maintenance — the memory-layout paths the join benches
/// never touch.
pub fn store_churn_cycle(rows: u32) -> pasn_engine::NodeStore {
    use pasn_engine::{NodeStore, TupleMeta};
    use pasn_net::SimTime;
    use pasn_provenance::ProvTag;

    let meta = |expires: Option<u64>| TupleMeta {
        tag: ProvTag::None,
        created_at: SimTime::ZERO,
        expires_at: expires.map(SimTime::from_micros),
        origin: NodeId(0),
    };
    let flow = |gen: i64, i: u32| -> Arc<[Value]> {
        Arc::from([Value::Addr(i % 64), Value::Int(i as i64), Value::Int(gen)])
    };
    let mut store = NodeStore::new();
    let pred = store.intern("flow");
    store.register_index_id(pred, &[0]);
    for i in 0..rows {
        store.insert_row(pred, flow(0, i), meta(Some(100)), |a, _| a.clone());
    }
    let expired = store.expire(SimTime::from_micros(100));
    assert_eq!(expired.len(), rows as usize);
    for i in 0..rows {
        store.insert_row(pred, flow(1, i), meta(None), |a, _| a.clone());
    }
    store
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_churn_cycle_rebuilds_the_relation() {
        let store = store_churn_cycle(256);
        assert_eq!(store.total_tuples(), 256);
        store.check_index_consistency().unwrap();
        // Post-churn scans stay in insertion order of the second generation.
        let pred = store.pred_id("flow").unwrap();
        let rows: Vec<_> = store.scan_ordered_rows(pred).collect();
        assert_eq!(rows.len(), 256);
        assert_eq!(rows[0].0[1], Value::Int(0));
        assert!(store.store_bytes() + store.index_bytes() > 0);
    }

    #[test]
    fn helpers_produce_runnable_networks() {
        let mut net = reachability_network(6, EngineConfig::ndlog(), 1);
        assert!(net.engine_mut().run_to_fixpoint().unwrap().messages > 0);
    }

    #[test]
    fn generational_workload_expires_old_generations_mid_run() {
        let config = || EngineConfig::ndlog().with_batching();
        let (mut net, events) = generational_reachability_workload(6, 5, config());
        let metrics = net.engine_mut().run_streaming(events.clone()).unwrap();
        // Six 5-node clusters: each converged to its 25-tuple closure at
        // some point (at least one firing per derived row), then TTL expiry
        // killed the derived soft state and the scripted `LinkDown`s
        // retired the links, so the final store is empty.
        assert!(metrics.derivations >= 6 * 25);
        assert!(metrics.retractions > 0, "eviction must fire mid-run");
        assert_eq!(metrics.tuples_stored, 0);
        assert_eq!(net.engine().query(&Value::Addr(0), "reachable").len(), 0);
        assert_eq!(net.engine().query(&Value::Addr(0), "link").len(), 0);
        // The peak footprint was sampled and covers strictly more than the
        // (empty) final store.
        assert!(metrics.peak_store_bytes > metrics.store_bytes);
        // Streaming reproduces the batch scenario bit for bit.
        let (mut batch, _) = generational_reachability_workload(6, 5, config());
        let script = events.iter().fold(ChurnScript::new(), |s, (at, e)| {
            s.at(at.as_micros(), e.clone())
        });
        let batch_metrics = batch.engine_mut().run_scenario(&script).unwrap();
        assert_eq!(metrics.derivations, batch_metrics.derivations);
        assert_eq!(metrics.tuples_stored, batch_metrics.tuples_stored);
        assert_eq!(metrics.frames, batch_metrics.frames);
        assert_eq!(metrics.completion, batch_metrics.completion);
    }

    #[test]
    fn sustained_expiry_churn_amortises_compaction() {
        let report = sustained_expiry_churn(2_000, 6);
        assert_eq!(report.inserted, 12_000);
        assert_eq!(report.expired, 10_000);
        assert_eq!(report.store.total_tuples(), 2_000);
        report.store.check_index_consistency().unwrap();
        // Compaction walks a bounded multiple of what expiry removed.
        assert!(
            report.compaction_walked <= 4 * report.expired,
            "compaction debt {} not amortised against {} removals",
            report.compaction_walked,
            report.expired
        );
        // Memory stayed O(one generation), not O(history): the peak is a
        // small multiple of the final single-generation footprint.
        assert!(report.peak_store_bytes < 2 * report.store.store_bytes() as u64);
    }

    #[test]
    fn chord_churn_deployment_reroutes_every_standing_lookup() {
        let (mut dht, events) = chord_churn_deployment(32, 16);
        let metrics = dht
            .net
            .engine_mut()
            .run_streaming(events.clone())
            .expect("fixpoint");
        // Four members left and came back; every lookup issued in any phase
        // ends at the successor of its key on the ring as it stands now.
        assert_eq!(dht.ring.members().len(), 32);
        assert_lookups_end_at_their_owner(&dht, &events);
        assert_eq!(dht.net.engine().query_all("owner").len(), 48);
        assert_eq!(metrics.churn_events, events.len() as u64);
        assert!(metrics.retractions > 0 && metrics.rederivations > 0);
        assert!(metrics.tombstone_frames > 0 && metrics.hmac_ops > 0);
        assert_eq!(metrics.verifications, metrics.frames);
        assert_eq!(metrics.verification_failures, 0);
        // O(log N) routing: far fewer firings than lookups × members.
        assert!(metrics.derivations < 48 * 32);
        // The batch driver reproduces the stream bit for bit.
        let (mut batch, _) = chord_churn_deployment(32, 16);
        let script = events.iter().fold(ChurnScript::new(), |s, (at, e)| {
            s.at(at.as_micros(), e.clone())
        });
        let batch_metrics = batch
            .net
            .engine_mut()
            .run_scenario(&script)
            .expect("fixpoint");
        assert_eq!(
            metrics.diff(&batch_metrics, pasn_engine::Scope::Schedule),
            []
        );
    }

    #[test]
    fn modeled_pool_outputs_are_pinned_on_both_scale_shapes() {
        // What `repro`'s `_w4` points report, at test size: a four-worker
        // modeled pool leaves every schedule counter alone and moves only
        // the `Layout` rows, pinned to `(partitions, cross_partition_frames,
        // max_partition_queue, parallel_wall_us)`.  Best-Path's `a_MIN` is
        // the sharp detector: any drift in delivery batching or seal times
        // changes which intermediate improvements fire.
        let clustered = |workers: usize| {
            let config = EngineConfig::ndlog().with_batching().with_workers(workers);
            let mut net = clustered_reachability_network(4, 5, config);
            let metrics = net.engine_mut().run_to_fixpoint().expect("fixpoint");
            // Four disjoint 5-node clusters: each node reaches exactly its
            // own cluster, nothing across the cluster boundary.
            assert_eq!(net.engine().query(&Value::Addr(0), "reachable").len(), 5);
            assert_eq!(net.engine().query(&Value::Addr(19), "reachable").len(), 5);
            metrics
        };
        let best_path = |workers: usize| {
            let config = SystemVariant::NDLog.config().with_batching();
            let mut net = SecureNetwork::builder()
                .program(pasn::programs::best_path())
                .topology(workload::evaluation_topology(20, 1))
                .config(config.with_workers(workers))
                .build()
                .expect("the Best-Path program compiles");
            net.engine_mut().run_to_fixpoint().expect("fixpoint")
        };
        let shapes: [(&dyn Fn(usize) -> RunMetrics, _); 2] = [
            (&clustered, (4, 156, 15, 160_600)),
            (&best_path, (4, 1_004, 20, 3_528_180)),
        ];
        for (run, pinned) in shapes {
            let (baseline, modeled) = (run(1), run(4));
            assert_eq!(modeled.diff(&baseline, pasn_engine::Scope::Schedule), []);
            assert_eq!((baseline.partitions, baseline.max_partition_queue), (1, 0));
            assert!(modeled.parallel_wall < baseline.parallel_wall);
            let wall_us = modeled.parallel_wall.as_micros() as u64;
            let layout = (
                modeled.partitions,
                modeled.cross_partition_frames,
                modeled.max_partition_queue,
                wall_us,
            );
            assert_eq!(layout, pinned);
        }
    }

    #[test]
    fn equijoin_workload_joins_through_the_index() {
        let config = EngineConfig::ndlog().with_cost_model(CostModel::zero_cpu());
        let mut engine = equijoin_engine(64, config);
        let metrics = engine.run_to_fixpoint().unwrap();
        assert_eq!(engine.query(&Value::Addr(0), "m").len(), 64);
        assert!(metrics.index_probes > 0);
        assert_eq!(metrics.scan_probes, 0);

        // The same workload with indexing disabled produces identical
        // results but examines quadratically more candidates.
        let scan_config = EngineConfig::ndlog()
            .with_cost_model(CostModel::zero_cpu())
            .without_secondary_indexes();
        let mut scan_engine = equijoin_engine(64, scan_config);
        let scan_metrics = scan_engine.run_to_fixpoint().unwrap();
        assert_eq!(scan_engine.query(&Value::Addr(0), "m").len(), 64);
        assert_eq!(scan_metrics.index_probes, 0);
        assert!(scan_metrics.scan_probes > metrics.index_hits * 10);
    }
}
