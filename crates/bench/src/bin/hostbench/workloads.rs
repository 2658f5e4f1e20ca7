//! The five workloads: what each deploys, how it runs, and how its answers
//! are checked.  Everything here talks to the engine through the facade
//! (`pasn::prelude`, `pasn::forensics`, the `pasn::programs` source texts).

use crate::inputs::{self, SplitMix64};
use crate::reference;
use crate::spans::Tracer;
use pasn::forensics;
use pasn::prelude::*;
use pasn_net::Link;
use std::time::Instant;

/// One benchmark workload.  `why` is the reason it exists (also printed in
/// `BENCHMARK.json` and the README).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    BestpathNdlog,
    BestpathSecprov,
    ReachStream,
    LossySession,
    ProvQuery,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::BestpathNdlog,
        Workload::BestpathSecprov,
        Workload::ReachStream,
        Workload::LossySession,
        Workload::ProvQuery,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BestpathNdlog => "bestpath_ndlog",
            Workload::BestpathSecprov => "bestpath_secprov",
            Workload::ReachStream => "reach_stream",
            Workload::LossySession => "lossy_session",
            Workload::ProvQuery => "prov_query",
        }
    }

    /// Why the workload exists: which layers do its work, and what it is
    /// the contrast for.
    pub fn why(self) -> &'static str {
        match self {
            Workload::BestpathNdlog => {
                "Section 6 Best-Path in cleartext: eval, store insert/probe, a_MIN and the work \
                 queue do all the work, crypto and provenance none - the bypass workload for \
                 any crypto or provenance change"
            }
            Workload::BestpathSecprov => {
                "the same query with per-message RSA says and condensed provenance: crypto and \
                 tag/BDD products dominate, store work is unchanged, so a store win shows \
                 small here and large on bestpath_ndlog"
            }
            Workload::ReachStream => {
                "reachability over a LinkUp/LinkDown stream with TTL expiry: uses the store \
                 the other way (expiry, compaction, ledger, tombstones), so an insert gain \
                 that costs deletes shows"
            }
            Workload::LossySession => {
                "reachability over session channels on lossy links: batching, frame MACs, \
                 ack/retransmit and key provisioning do the work, RSA only in handshakes"
            }
            Workload::ProvQuery => {
                "forensics::investigate over a converged deployment with distributed condensed \
                 provenance and offline archives: reads the provenance layer that \
                 bestpath_secprov writes"
            }
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The NDlog source text the workload deploys.
    pub fn source(self) -> &'static str {
        match self {
            Workload::BestpathNdlog | Workload::BestpathSecprov => pasn::programs::BEST_PATH,
            _ => pasn::programs::REACHABILITY_NDLOG,
        }
    }

    /// The relation a user reads once the fixpoint is reached.
    pub fn answer_predicate(self) -> &'static str {
        match self {
            Workload::BestpathNdlog | Workload::BestpathSecprov => "bestPathCost",
            _ => "reachable",
        }
    }

    fn is_stream(self) -> bool {
        self == Workload::ReachStream
    }
}

/// Input sizes.  `--seed` never changes them; `--quick` divides them by 4.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Nodes of the random topology (cluster size on `reach_stream`).
    pub nodes: u32,
    /// Generations of the churn stream (`reach_stream` only).
    pub generations: u32,
    /// Distinct seeded inputs a run cycles through.
    pub pool: usize,
}

impl Workload {
    pub fn sizes(self, quick: bool) -> Sizes {
        let (nodes, generations, pool) = match self {
            Workload::BestpathNdlog => (40, 0, 24),
            Workload::BestpathSecprov => (30, 0, 24),
            Workload::ReachStream => (20, 24, 3),
            Workload::LossySession => (80, 0, 3),
            Workload::ProvQuery => (32, 0, 4),
        };
        if !quick {
            return Sizes {
                nodes,
                generations,
                pool,
            };
        }
        Sizes {
            // Cluster size is a shape, not a size: quick keeps it.
            nodes: if self.is_stream() { nodes } else { nodes / 4 },
            generations: generations / 4,
            pool: 1,
        }
    }
}

/// One seeded input with its reference answer.
struct Instance {
    network: Network,
    fault_seed: u64,
    expected: Expected,
}

/// What a deployment is built over.
#[derive(Clone)]
enum Network {
    /// Links known up front: they become base facts at time zero.
    Static(Topology),
    /// Bare locations; links arrive and retire as a time-ordered stream.
    Stream {
        locations: Vec<Value>,
        events: Vec<(SimTime, ChurnEvent)>,
    },
}

enum Expected {
    /// `[src][dst]` cheapest cost (benchmark's own Dijkstra).
    Costs(Vec<Vec<Option<u64>>>),
    /// `[src][dst]` membership in `reachable` (benchmark's own closure).
    Reach(Vec<Vec<bool>>),
    /// Stream invariants: the live-tuple peak must cover a full generation.
    Stream { peak_floor: u64 },
}

/// A workload bound to its seeded inputs: the product of set-up.
pub struct Case {
    pub workload: Workload,
    pub sizes: Sizes,
    pool: Vec<Instance>,
    query_rng: SplitMix64,
}

/// One repetition: a fresh deployment built from source text and run to
/// quiescence.
pub struct Rep {
    pub deploy_s: f64,
    pub fixpoint_s: f64,
    pub metrics: RunMetrics,
    pub net: SecureNetwork,
}

/// The two-worker run of an input already run on one worker.
pub struct CrossRun {
    pub fixpoint_s: f64,
    pub metrics: RunMetrics,
    /// One operation: every counter equals the one-worker run's.
    pub ops: Ops,
}

/// Worker-pool size of every timed run, set explicitly on every config so
/// `PASN_WORKERS` can never leak into a measurement.
pub const TIMED_WORKERS: usize = 1;

/// Correctness operations attempted and failed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn absorb(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// What the read phase observed.
#[derive(Default)]
pub struct Reads {
    /// Host seconds per read call.
    pub latencies_s: Vec<f64>,
    pub ops: Ops,
    /// Keys visited / remote hops across all tracebacks (`prov_query`).
    pub visited: u64,
    pub remote_hops: u64,
}

impl Case {
    /// Benchmark-side set-up: generates the inputs from `seed` and computes
    /// the reference answers.  No engine call happens here.
    pub fn set_up(workload: Workload, seed: u64, quick: bool) -> Case {
        let sizes = workload.sizes(quick);
        let root = SplitMix64::new(seed);
        let pool = (0..sizes.pool as u64)
            .map(|i| {
                let mut rng = root.fork(i + 1);
                if workload.is_stream() {
                    let (locations, events) =
                        inputs::generational_stream(&mut rng, sizes.generations, sizes.nodes);
                    let cluster = sizes.nodes as u64;
                    return Instance {
                        network: Network::Stream { locations, events },
                        fault_seed: 0,
                        expected: Expected::Stream {
                            peak_floor: cluster * cluster + 2 * cluster,
                        },
                    };
                }
                let topology = inputs::random_topology(&mut rng, sizes.nodes, 3, 10);
                let adj = reference::adjacency(&topology);
                let sources = 0..sizes.nodes;
                let expected = match workload.answer_predicate() {
                    "bestPathCost" => Expected::Costs(
                        sources
                            .map(|s| reference::shortest_costs(&adj, s))
                            .collect(),
                    ),
                    _ => Expected::Reach(
                        sources
                            .map(|s| reference::reachable_from(&adj, s))
                            .collect(),
                    ),
                };
                Instance {
                    network: Network::Static(topology),
                    fault_seed: rng.next_u64(),
                    expected,
                }
            })
            .collect();
        Case {
            workload,
            sizes,
            pool,
            query_rng: root.fork(0),
        }
    }

    /// Index into the input pool used by repetition `rep`.
    pub fn instance_of(&self, rep: usize) -> usize {
        rep % self.pool.len()
    }

    fn config(&self, instance: &Instance, workers: usize, engine_trace: bool) -> EngineConfig {
        let config = match self.workload {
            Workload::BestpathNdlog => SystemVariant::NDLog.config(),
            Workload::BestpathSecprov => SystemVariant::SeNDLogProv.config(),
            Workload::ReachStream => EngineConfig::ndlog()
                .with_batching()
                .with_dynamics()
                .with_default_ttl_us(inputs::GENERATION_TTL_US),
            Workload::LossySession => EngineConfig::sendlog_session()
                .with_batching()
                .with_fault_plan(FaultPlan::new(instance.fault_seed)),
            Workload::ProvQuery => {
                let mut config = EngineConfig::sendlog_session()
                    .with_batching()
                    .with_provenance(ProvenanceKind::Condensed)
                    .with_graph_mode(GraphMode::Distributed);
                config.archive_offline = true;
                config
            }
        }
        .with_workers(workers);
        if engine_trace {
            config.with_tracing(TraceConfig::new())
        } else {
            config
        }
    }

    /// One repetition on input `rep % pool`: NDlog source text to a ready
    /// deployment (`core.build`, timed as `deploy_s`), then to quiescence
    /// (`engine.run`, timed as `fixpoint_s`).  Input copies are made before
    /// the clocks start.
    pub fn rep(&self, rep: usize, workers: usize, engine_trace: bool, tracer: &mut Tracer) -> Rep {
        let instance = &self.pool[self.instance_of(rep)];
        let config = self.config(instance, workers, engine_trace);
        let network = instance.network.clone();
        let source = self.workload.source();

        let ((mut net, stream), deploy_s) =
            tracer.time("core.build", |_| deploy(source, config, network));
        let (metrics, fixpoint_s) = tracer.time("engine.run", |_| {
            match stream {
                Some(events) => net.run_streaming(events),
                None => net.run(),
            }
            .expect("fixpoint reached")
        });
        Rep {
            deploy_s,
            fixpoint_s,
            metrics,
            net,
        }
    }

    /// Checks a repetition's answers against the reference.  One operation
    /// per `(source, destination)` cost, per node's `reachable` set, or per
    /// stream invariant.
    pub fn check(&self, rep: usize, outcome: &Rep) -> Ops {
        let mut ops = Ops::default();
        let instance = &self.pool[self.instance_of(rep)];
        let predicate = self.workload.answer_predicate();
        match &instance.expected {
            Expected::Costs(expected) => {
                for (src, row) in expected.iter().enumerate() {
                    let mut best: Vec<Option<u64>> = vec![None; row.len()];
                    for (tuple, _) in outcome.net.query(&Value::Addr(src as u32), predicate) {
                        let dst = tuple.values[1].as_addr().expect("addr") as usize;
                        let cost = tuple.values[2].as_int().expect("int") as u64;
                        // Pipelined a_MIN leaves superseded rows behind.
                        best[dst] = Some(best[dst].map_or(cost, |known| known.min(cost)));
                    }
                    for dst in (0..row.len()).filter(|dst| *dst != src) {
                        ops.record(best[dst] == row[dst]);
                    }
                }
            }
            Expected::Reach(expected) => {
                for (src, row) in expected.iter().enumerate() {
                    let mut got = vec![false; row.len()];
                    for (tuple, _) in outcome.net.query(&Value::Addr(src as u32), predicate) {
                        got[tuple.values[1].as_addr().expect("addr") as usize] = true;
                    }
                    ops.record(got == *row);
                }
            }
            Expected::Stream { peak_floor } => {
                // Every generation converged, expired and retired.
                ops.record(outcome.metrics.tuples_stored == 0);
                ops.record(outcome.metrics.peak_tuples >= *peak_floor);
            }
        }
        ops
    }

    /// `lossy_session` only: input `rep` deployed on a reliable transport —
    /// what the same frames cost when every one is a first transmission.
    pub fn reliable_twin(&self, rep: usize) -> RunMetrics {
        let network = self.pool[self.instance_of(rep)].network.clone();
        let config = EngineConfig::sendlog_session()
            .with_batching()
            .with_workers(1);
        let (mut net, _) = deploy(self.workload.source(), config, network);
        net.run().expect("fixpoint reached")
    }

    /// Stream workloads end with every store empty, so the layer probes get
    /// their rows from the first generations of the traced input run with
    /// nothing expiring: the same clusters, converged and kept.
    pub fn probe_deployment(&self) -> Option<SecureNetwork> {
        let Network::Stream { events, .. } = &self.pool[0].network else {
            return None;
        };
        let nodes = self.sizes.nodes * self.sizes.generations.min(8);
        let links = events
            .iter()
            .filter_map(|(_, event)| match event {
                ChurnEvent::LinkUp { src, dst, .. } => Some(Link {
                    src: NodeId(src.as_addr()?),
                    dst: NodeId(dst.as_addr()?),
                    cost: 1,
                }),
                _ => None,
            })
            .filter(|link| link.src.0 < nodes)
            .collect();
        let topology = Topology::new((0..nodes).map(NodeId), links);
        let config = EngineConfig::ndlog().with_batching().with_workers(1);
        let (mut net, _) = deploy(self.workload.source(), config, Network::Static(topology));
        net.run().expect("fixpoint reached");
        Some(net)
    }

    /// `reach_stream` only: the same input on a two-worker pool, which must
    /// reproduce every counter of `outcome` (the pool is a pure execution
    /// strategy).
    pub fn two_worker_run(&self, rep: usize, outcome: &Rep) -> Option<CrossRun> {
        if !self.workload.is_stream() {
            return None;
        }
        let cross = self.rep(rep, 2, false, &mut Tracer::off(self.workload.name()));
        let mut ops = Ops::default();
        ops.record(same_counters(&cross.metrics, &outcome.metrics));
        Some(CrossRun {
            fixpoint_s: cross.fixpoint_s,
            metrics: cross.metrics,
            ops,
        })
    }

    /// The read phase: `samples` closed-loop reads by one client against a
    /// converged deployment.  On `prov_query` a read is
    /// `forensics::investigate` of a seeded pick from the sorted `reachable`
    /// rows, and must ground out; elsewhere it is `query(node, answer)` for
    /// the nodes in turn, timed in batches so a sample outlasts the clock's
    /// resolution.
    pub fn read_phase(&self, net: &SecureNetwork, samples: usize, tracer: &mut Tracer) -> Reads {
        let mut reads = Reads::default();
        if self.workload == Workload::ProvQuery {
            let rows = investigate_keys(net);
            let mut rng = self.query_rng.clone();
            for pick in inputs::picks(&mut rng, rows.len(), samples) {
                let (loc, key) = &rows[pick];
                let location = Value::Addr(*loc);
                let (report, seconds) = tracer.time("bench.query", |t| {
                    t.time("core.investigate", |_| {
                        forensics::investigate(net, &location, key)
                    })
                    .0
                });
                reads.latencies_s.push(seconds);
                reads
                    .ops
                    .record(report.has_origin() && report.traceback.unresolved.is_empty());
                reads.visited += report.traceback.visited.len() as u64;
                reads.remote_hops += report.traceback.remote_hops as u64;
            }
            return reads;
        }
        let predicate = self.workload.answer_predicate();
        let locations: Vec<Value> = net.engine().locations().to_vec();
        let batch = if self.workload.is_stream() { 64 } else { 1 };
        let mut next = 0usize;
        for _ in 0..samples {
            let started = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(net.query(&locations[next % locations.len()], predicate));
                next += 1;
            }
            reads
                .latencies_s
                .push(started.elapsed().as_secs_f64() / batch as f64);
        }
        reads
    }
}

/// NDlog source text to a ready deployment, through the facade's builder.
/// Returns the event stream still to be fed, if the network has one.
fn deploy(
    source: &str,
    config: EngineConfig,
    network: Network,
) -> (SecureNetwork, Option<Vec<(SimTime, ChurnEvent)>>) {
    let builder = SecureNetwork::builder()
        .program_text(source)
        .expect("built-in program parses")
        .config(config);
    let (builder, stream) = match network {
        Network::Static(topology) => (builder.topology(topology), None),
        Network::Stream { locations, events } => (builder.locations(locations), Some(events)),
    };
    (builder.build().expect("built-in program compiles"), stream)
}

/// The `(location, key)` of every `reachable` row, sorted: what
/// `forensics::investigate` is asked about.
pub fn investigate_keys(net: &SecureNetwork) -> Vec<(u32, String)> {
    let mut keys: Vec<(u32, String)> = net
        .query_all("reachable")
        .into_iter()
        .map(|(loc, tuple, _)| (loc.as_addr().expect("addr"), tuple.render_located(Some(0))))
        .collect();
    keys.sort();
    keys
}

/// True when two runs of one input agree on everything but host time.
pub fn same_run(a: &RunMetrics, b: &RunMetrics) -> bool {
    let mut a = a.clone();
    a.wall_clock = b.wall_clock;
    a == *b
}

/// True when two runs agree on every counter a worker count must not move:
/// everything except host time and the pool's own layout gauges.
fn same_counters(a: &RunMetrics, b: &RunMetrics) -> bool {
    let mut a = a.clone();
    a.wall_clock = b.wall_clock;
    a.parallel_wall = b.parallel_wall;
    a.worker_threads = b.worker_threads;
    a.partitions = b.partitions;
    a.cross_partition_frames = b.cross_partition_frames;
    a.max_partition_queue = b.max_partition_queue;
    a == *b
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_are_unique() {
        for workload in Workload::ALL {
            assert_eq!(Workload::from_name(workload.name()), Some(workload));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn quick_best_path_meets_its_own_dijkstra() {
        let case = Case::set_up(Workload::BestpathNdlog, 2008, true);
        let n = case.sizes.nodes as u64;
        let rep = case.rep(0, 1, false, &mut Tracer::off("test"));
        assert_eq!(
            case.check(0, &rep),
            Ops {
                attempted: n * (n - 1),
                failed: 0
            }
        );
        assert!(rep.metrics.derivations > 0);
        let reads = case.read_phase(&rep.net, 8, &mut Tracer::off("test"));
        assert_eq!(reads.latencies_s.len(), 8);
    }

    #[test]
    fn a_wrong_answer_is_counted_as_failed() {
        // Check one seed's fixpoint against another seed's reference.
        let ours = Case::set_up(Workload::BestpathNdlog, 1, true);
        let theirs = Case::set_up(Workload::BestpathNdlog, 2, true);
        let rep = ours.rep(0, 1, false, &mut Tracer::off("test"));
        assert!(theirs.check(0, &rep).failed > 0);
    }

    #[test]
    fn quick_stream_is_worker_count_invariant() {
        let case = Case::set_up(Workload::ReachStream, 7, true);
        let rep = case.rep(0, 1, false, &mut Tracer::off("test"));
        assert_eq!(
            case.check(0, &rep),
            Ops {
                attempted: 2,
                failed: 0
            }
        );
        let cross = case.two_worker_run(0, &rep).unwrap();
        assert_eq!(cross.metrics.partitions, 2);
        assert_eq!(
            cross.ops,
            Ops {
                attempted: 1,
                failed: 0
            }
        );
    }

    #[test]
    fn quick_prov_query_grounds_out() {
        let case = Case::set_up(Workload::ProvQuery, 3, true);
        let rep = case.rep(0, 1, false, &mut Tracer::off("test"));
        assert_eq!(case.check(0, &rep).failed, 0);
        let reads = case.read_phase(&rep.net, 16, &mut Tracer::off("test"));
        assert_eq!(
            reads.ops,
            Ops {
                attempted: 16,
                failed: 0
            }
        );
        assert!(reads.visited >= 16);
    }
}
