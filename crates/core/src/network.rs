//! [`SecureNetwork`]: the top-level facade tying a topology, a declarative
//! program and an engine configuration into one runnable deployment.

use crate::workload::{link_facts, locations_of, weighted_link_facts};
use pasn_datalog::{parse_program, ParseError, Program, Value};
use pasn_engine::{
    ChurnEvent, ChurnScript, DistributedEngine, EngineConfig, EngineError, RunMetrics, Tuple,
    TupleMeta,
};
use pasn_net::{SimTime, Topology};
use pasn_provenance::{ArchiveStore, DistributedStore, VarTable};
use std::collections::HashMap;
use std::fmt;

/// Errors raised while building or running a [`SecureNetwork`].
#[derive(Debug)]
pub enum NetworkError {
    /// The program text failed to parse.
    Parse(ParseError),
    /// The engine rejected the program or a fact.
    Engine(EngineError),
    /// The builder is missing a required component.
    Builder(String),
}

impl fmt::Display for NetworkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetworkError::Parse(e) => write!(f, "{e}"),
            NetworkError::Engine(e) => write!(f, "{e}"),
            NetworkError::Builder(msg) => write!(f, "builder error: {msg}"),
        }
    }
}

impl std::error::Error for NetworkError {}

impl From<ParseError> for NetworkError {
    fn from(e: ParseError) -> Self {
        NetworkError::Parse(e)
    }
}

impl From<EngineError> for NetworkError {
    fn from(e: EngineError) -> Self {
        NetworkError::Engine(e)
    }
}

/// Builder for [`SecureNetwork`].
pub struct SecureNetworkBuilder {
    program: Option<Program>,
    topology: Option<Topology>,
    config: EngineConfig,
    locations: Option<Vec<Value>>,
    extra_facts: Vec<(Value, Tuple)>,
}

impl Default for SecureNetworkBuilder {
    fn default() -> Self {
        SecureNetworkBuilder {
            program: None,
            topology: None,
            config: EngineConfig::ndlog(),
            locations: None,
            extra_facts: Vec::new(),
        }
    }
}

impl SecureNetworkBuilder {
    /// Sets the declarative program from an already parsed [`Program`].
    pub fn program(mut self, program: Program) -> Self {
        self.program = Some(program);
        self
    }

    /// Sets the declarative program from NDlog / SeNDlog source text.
    pub fn program_text(mut self, source: &str) -> Result<Self, NetworkError> {
        self.program = Some(parse_program(source)?);
        Ok(self)
    }

    /// Sets the topology; its nodes become the deployment's locations and its
    /// links become `link` base facts.
    pub fn topology(mut self, topology: Topology) -> Self {
        self.topology = Some(topology);
        self
    }

    /// Sets explicit location values (useful for the string-named examples of
    /// the paper, `a`, `b`, `c`).  Overrides the topology-derived locations.
    pub fn locations(mut self, locations: Vec<Value>) -> Self {
        self.locations = Some(locations);
        self
    }

    /// Sets the engine configuration (authentication, provenance, costs).
    pub fn config(mut self, config: EngineConfig) -> Self {
        self.config = config;
        self
    }

    /// Adds an extra base fact to insert at time zero.
    pub fn fact(mut self, location: Value, tuple: Tuple) -> Self {
        self.extra_facts.push((location, tuple));
        self
    }

    /// Builds the deployment: compiles the program, provisions keys, and
    /// schedules the topology's link facts plus any extra facts.
    pub fn build(self) -> Result<SecureNetwork, NetworkError> {
        let program = self
            .program
            .ok_or_else(|| NetworkError::Builder("a program is required".into()))?;
        let locations = match (&self.locations, &self.topology) {
            (Some(locs), _) => locs.clone(),
            (None, Some(topo)) => locations_of(topo),
            (None, None) => {
                return Err(NetworkError::Builder(
                    "either a topology or explicit locations are required".into(),
                ))
            }
        };
        let mut engine = DistributedEngine::new(&program, self.config, &locations)?;

        if let Some(topology) = &self.topology {
            // Pick the link arity the program actually uses: the Best-Path
            // query joins three-attribute links (with costs), the
            // reachability programs use two attributes.
            let uses_weighted = program
                .rules
                .iter()
                .flat_map(|r| r.body_atoms())
                .any(|a| a.predicate == "link" && a.args.len() == 3);
            let facts = if uses_weighted {
                weighted_link_facts(topology)
            } else {
                link_facts(topology)
            };
            for (loc, tuple) in facts {
                engine.insert_fact(loc, tuple)?;
            }
        }
        for (loc, tuple) in self.extra_facts {
            engine.insert_fact(loc, tuple)?;
        }
        Ok(SecureNetwork {
            engine,
            topology: self.topology,
        })
    }
}

/// A deployed provenance-aware secure network: a topology, a compiled
/// SeNDlog/NDlog program, per-node key material and provenance stores.
pub struct SecureNetwork {
    engine: DistributedEngine,
    topology: Option<Topology>,
}

impl fmt::Debug for SecureNetwork {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SecureNetwork")
            .field("locations", &self.engine.locations().len())
            .field(
                "links",
                &self
                    .topology
                    .as_ref()
                    .map(Topology::link_count)
                    .unwrap_or(0),
            )
            .finish()
    }
}

impl SecureNetwork {
    /// Starts building a deployment.
    pub fn builder() -> SecureNetworkBuilder {
        SecureNetworkBuilder::default()
    }

    /// Runs the program to its distributed fixpoint and returns the metrics.
    pub fn run(&mut self) -> Result<RunMetrics, NetworkError> {
        Ok(self.engine.run_to_fixpoint()?)
    }

    /// Runs a network-dynamics scenario to its post-churn fixpoint: the
    /// scripted events (link flaps, node failures/rejoins, base-tuple
    /// churn) are scheduled through the discrete-event simulator, derived
    /// soft state dies and is withdrawn by provenance-guided incremental
    /// deletion as its support disappears, and evaluation re-converges.
    /// Call instead of [`SecureNetwork::run`] on a freshly built deployment.
    pub fn run_scenario(&mut self, script: &ChurnScript) -> Result<RunMetrics, NetworkError> {
        Ok(self.engine.run_scenario(script)?)
    }

    /// Runs a churn workload in streaming mode: events are pulled from the
    /// iterator (which must yield them in nondecreasing time order) instead
    /// of being materialised in the work queue, so driver memory stays
    /// O(in-flight work) rather than O(script) — the mode large
    /// generational workloads use.  The schedule, and every counter, is
    /// bit-identical to [`SecureNetwork::run_scenario`] on the same events.
    pub fn run_streaming<I>(&mut self, events: I) -> Result<RunMetrics, NetworkError>
    where
        I: IntoIterator<Item = (SimTime, ChurnEvent)>,
    {
        Ok(self.engine.run_streaming(events)?)
    }

    /// The flight recorder, when the deployment's config enabled tracing
    /// via `EngineConfig::with_tracing`.  Read it after a run for the
    /// simulated-time event stream, the hot-rule profile
    /// (`TraceRecorder::hot_rules`), per-link frame lifecycles
    /// (`TraceRecorder::link_lifecycles`), filtered queries
    /// (`TraceRecorder::query`) and the Chrome/Perfetto export
    /// (`TraceRecorder::to_chrome_json`).
    pub fn trace(&self) -> Option<&pasn_engine::TraceRecorder> {
        self.engine.trace()
    }

    /// The underlying engine (advanced use).
    pub fn engine(&self) -> &DistributedEngine {
        &self.engine
    }

    /// Mutable access to the underlying engine (advanced use: injecting
    /// streamed facts, expiring soft state, materialising provenance).
    pub fn engine_mut(&mut self) -> &mut DistributedEngine {
        &mut self.engine
    }

    /// The topology this deployment was built from, if any.
    pub fn topology(&self) -> Option<&Topology> {
        self.topology.as_ref()
    }

    /// All tuples of `predicate` stored at `location`, in insertion order
    /// (deterministic across runs).
    pub fn query(&self, location: &Value, predicate: &str) -> Vec<(Tuple, TupleMeta)> {
        self.engine.query(location, predicate)
    }

    /// All tuples of `predicate` across every node.
    pub fn query_all(&self, predicate: &str) -> Vec<(Value, Tuple, TupleMeta)> {
        self.engine.query_all(predicate)
    }

    /// Renders the provenance annotation of an exact stored tuple.
    pub fn render_provenance(&self, location: &Value, tuple: &Tuple) -> Option<String> {
        self.engine.render_provenance(location, tuple)
    }

    /// The provenance store of `location` in either graph mode: locally
    /// complete under [`pasn_engine::GraphMode::Local`], pointing at other
    /// nodes' stores under `Distributed`
    /// ([`DistributedEngine::provenance_store`]).
    pub fn provenance_store(&self, location: &Value) -> Option<&DistributedStore> {
        self.engine.provenance_store(location)
    }

    /// Per-node distributed provenance stores keyed by location name: a
    /// snapshot for callers that own the traversal
    /// ([`pasn_provenance::traceback`], [`pasn_provenance::moonwalk_with`]).
    /// Queries of this deployment go through the engine's walk
    /// ([`DistributedEngine::traceback`]) and build no map.
    pub fn distributed_stores(&self) -> HashMap<String, &DistributedStore> {
        self.engine.distributed_stores()
    }

    /// The offline provenance archive of `location`.
    pub fn archive(&self, location: &Value) -> Option<&ArchiveStore> {
        self.engine.archive(location)
    }

    /// The shared provenance variable table.
    pub fn var_table(&self) -> &VarTable {
        self.engine.var_table()
    }

    /// Expires soft state older than `now` on every node.
    pub fn expire(&mut self, now: SimTime) -> usize {
        self.engine.expire_all(now)
    }

    /// Bytes sent per node (accountability raw data).
    pub fn bytes_sent_per_node(&self) -> HashMap<Value, u64> {
        self.engine.bytes_sent_per_node()
    }

    /// Bytes of tuple data currently stored across all nodes (each shared
    /// row's encoding charged once, plus insertion-order bookkeeping — an
    /// encoding-level gauge, not heap; also reported at fixpoint as
    /// `RunMetrics::store_bytes`).
    pub fn store_bytes(&self) -> u64 {
        self.engine.store_bytes()
    }

    /// Bytes of secondary-index overhead currently held across all nodes
    /// (distinct index keys plus one seq per indexed row — indexes
    /// reference rows instead of copying them; an encoding-level gauge, not
    /// heap; also reported at fixpoint as `RunMetrics::index_bytes`).
    pub fn index_bytes(&self) -> u64 {
        self.engine.index_bytes()
    }

    /// Every counter and gauge collected so far (the value
    /// [`SecureNetwork::run`] returns at fixpoint): frames and batch
    /// occupancy, crypto operations, churn and retraction counts, transport
    /// faults, modeled-pool layout.
    pub fn metrics(&self) -> &RunMetrics {
        self.engine.metrics()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::programs;
    use pasn_net::CostModel;

    fn fast(config: EngineConfig) -> EngineConfig {
        config.with_cost_model(CostModel::zero_cpu())
    }

    #[test]
    fn builder_runs_reachability_over_a_topology() {
        let mut net = SecureNetwork::builder()
            .program(programs::reachability_ndlog())
            .topology(Topology::ring(5))
            .config(fast(EngineConfig::ndlog()))
            .build()
            .unwrap();
        let metrics = net.run().unwrap();
        assert!(metrics.messages > 0);
        // In a ring every node reaches every other node — and itself, since
        // the cycle closes the transitive closure back to the origin.
        for loc in net.engine().locations().to_vec() {
            assert_eq!(net.query(&loc, "reachable").len(), 5);
        }
        assert!(net.topology().is_some());
        assert_eq!(net.bytes_sent_per_node().len(), 5);
        // Storage gauges: rows and index overhead are live and mirrored
        // into the fixpoint metrics.
        assert!(net.store_bytes() > 0);
        assert!(net.index_bytes() > 0);
        assert_eq!(metrics.store_bytes, net.store_bytes());
        assert_eq!(metrics.index_bytes, net.index_bytes());
        // Frame gauges: per-tuple mode ships one-tuple frames, one per
        // message, and the facade mirrors the fixpoint counters.
        assert_eq!(metrics.frames, metrics.messages);
        assert_eq!(metrics.batched_tuples, metrics.messages);
        assert_eq!(metrics.mean_batch_occupancy(), 1.0);
        assert_eq!(net.metrics(), &metrics);
    }

    #[test]
    fn batching_ships_fewer_signed_frames_with_identical_results() {
        let build = |config: EngineConfig| {
            SecureNetwork::builder()
                .program(programs::reachability_ndlog())
                .topology(Topology::ring(6))
                .config(fast(config))
                .build()
                .unwrap()
        };
        let mut per_tuple = build(EngineConfig::sendlog());
        let baseline = per_tuple.run().unwrap();
        let mut batched = build(EngineConfig::sendlog().with_batching());
        let metrics = batched.run().unwrap();

        // One signature per frame, fewer frames than per-tuple messages.
        assert_eq!(metrics.signatures, metrics.frames);
        assert_eq!(metrics.verifications, metrics.frames);
        assert!(metrics.frames < baseline.messages);
        assert!(metrics.mean_batch_occupancy() > 1.0);
        // The fixpoint is unchanged: same reachability closure everywhere.
        for loc in batched.engine().locations().to_vec() {
            assert_eq!(batched.query(&loc, "reachable").len(), 6);
        }
        assert_eq!(metrics.tuples_stored, baseline.tuples_stored);
    }

    #[test]
    fn session_channels_surface_their_crypto_counters() {
        let build = |config: EngineConfig| {
            SecureNetwork::builder()
                .program(programs::reachability_ndlog())
                .topology(Topology::ring(6))
                .config(fast(config))
                .build()
                .unwrap()
        };
        let mut rsa = build(EngineConfig::sendlog().with_batching());
        let baseline = rsa.run().unwrap();
        let mut session = build(EngineConfig::sendlog_session().with_batching());
        let m = session.run().unwrap();

        // RSA collapses to one sign/verify per live directed link (a 6-ring
        // ships over 12: each link carries data and reply-direction
        // exports); every frame rides an HMAC instead.
        assert_eq!(m.handshakes, 12);
        assert_eq!(m.rsa_sign_ops, m.handshakes);
        assert_eq!(m.rsa_verify_ops, m.handshakes);
        assert!(m.rsa_sign_ops < baseline.rsa_sign_ops);
        assert!(m.hmac_ops > 0);
        assert_eq!(baseline.hmac_ops, 0);
        // The facade mirrors the fixpoint metrics.
        assert_eq!(session.metrics(), &m);
        // Same-instant handshake deliveries coalesce into shared CPU
        // windows at the receivers — never more windows than handshakes.
        assert!(m.handshake_batches >= 1);
        assert!(m.handshake_batches <= m.handshakes);
        // The frame stream and fixpoint are the Rsa level's, bit for bit.
        assert_eq!(m.frames, baseline.frames);
        assert_eq!(m.batched_tuples, baseline.batched_tuples);
        assert_eq!(m.derivations, baseline.derivations);
        assert_eq!(m.tuples_stored, baseline.tuples_stored);
    }

    #[test]
    fn run_scenario_flaps_a_link_and_reconverges() {
        use pasn_engine::ChurnScript;
        let build = || {
            SecureNetwork::builder()
                .program(programs::reachability_ndlog())
                .topology(Topology::ring(5))
                .config(fast(EngineConfig::sendlog_session().with_batching()))
                .build()
                .unwrap()
        };
        let mut stat = build();
        let baseline = stat.run().unwrap();

        let script = ChurnScript::new()
            .link_down(5_000_000, Value::Addr(0), Value::Addr(1))
            .link_up(10_000_000, Value::Addr(0), Value::Addr(1));
        let mut churned = build();
        let metrics = churned.run_scenario(&script).unwrap();

        // The flapped deployment re-converges to the static fixpoint.
        assert_eq!(metrics.tuples_stored, baseline.tuples_stored);
        for loc in churned.engine().locations().to_vec() {
            assert_eq!(churned.query(&loc, "reachable").len(), 5);
        }
        // The facade mirrors the dynamics counters.
        assert_eq!(churned.metrics(), &metrics);
        assert_eq!(metrics.churn_events, 2);
        assert!(metrics.retractions > 0);
        assert!(metrics.rederivations > 0);
        assert!(metrics.tombstone_frames > 0);
        assert_eq!(metrics.verification_failures, 0);
    }

    #[test]
    fn builder_auto_selects_weighted_links_for_best_path() {
        let mut net = SecureNetwork::builder()
            .program(programs::best_path())
            .topology(Topology::line(4))
            .config(fast(EngineConfig::ndlog()))
            .build()
            .unwrap();
        net.run().unwrap();
        let loc = Value::Addr(0);
        let best: Vec<_> = net.query(&loc, "bestPath");
        assert!(!best.is_empty());
        // Link facts carry three attributes.
        assert_eq!(net.query(&loc, "link")[0].0.arity(), 3);
    }

    #[test]
    fn builder_with_explicit_locations_and_text_program() {
        let mut net = SecureNetwork::builder()
            .program_text(programs::REACHABILITY_NDLOG)
            .unwrap()
            .locations(vec![
                Value::Str("a".into()),
                Value::Str("b".into()),
                Value::Str("c".into()),
            ])
            .config(fast(EngineConfig::ndlog()))
            .fact(
                Value::Str("a".into()),
                Tuple::new("link", vec![Value::Str("a".into()), Value::Str("b".into())]),
            )
            .build()
            .unwrap();
        net.run().unwrap();
        assert_eq!(net.query(&Value::Str("a".into()), "reachable").len(), 1);
    }

    #[test]
    fn builder_errors_are_reported() {
        let err = SecureNetwork::builder().build().unwrap_err();
        assert!(err.to_string().contains("program"));
        let err = SecureNetwork::builder()
            .program(programs::reachability_ndlog())
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("topology"));
        assert!(SecureNetwork::builder().program_text("p(@X :-").is_err());
    }
}
