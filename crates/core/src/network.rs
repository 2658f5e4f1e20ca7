//! [`SecureNetwork`]: the builder that ties a topology, a declarative
//! program and an engine configuration into one [`DistributedEngine`], then
//! steps aside.  Every operation on the deployment is the engine's own,
//! reached through [`SecureNetwork::engine`] / [`SecureNetwork::engine_mut`];
//! the facade adds only what the engine does not know, the topology it was
//! built from.

use crate::workload::{link_facts, locations_of, weighted_link_facts};
use pasn_datalog::{parse_program, Program, Value};
use pasn_engine::{
    ChurnEvent, DistributedEngine, EngineConfig, EngineError, RunMetrics, TraceRecorder, Tuple,
    TupleMeta,
};
use pasn_net::{SimTime, Topology};
use pasn_provenance::{DistributedStore, VarTable};
use std::collections::HashMap;
use std::fmt;

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
    pub fn program_text(mut self, source: &str) -> Result<Self, EngineError> {
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
    pub fn build(self) -> Result<SecureNetwork, EngineError> {
        let program = self.program.ok_or(EngineError::MissingProgram)?;
        let locations = match (&self.locations, &self.topology) {
            (Some(locs), _) => locs.clone(),
            (None, Some(topo)) => locations_of(topo),
            (None, None) => return Err(EngineError::MissingLocations),
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

    /// The deployment's engine: every query, run and provenance read of
    /// the deployment.
    pub fn engine(&self) -> &DistributedEngine {
        &self.engine
    }

    /// Mutable access to the deployment's engine: runs, streamed facts,
    /// churn scripts and expiry.
    pub fn engine_mut(&mut self) -> &mut DistributedEngine {
        &mut self.engine
    }

    /// The topology this deployment was built from, if any.
    pub fn topology(&self) -> Option<&Topology> {
        self.topology.as_ref()
    }
}

/// The engine forwarders `hostbench` calls, and nothing else does: every
/// other caller reaches the engine's own names through
/// [`SecureNetwork::engine`].  The benchmark's next revision (ROADMAP item
/// 2) moves `hostbench` to the engine and deletes them.
impl SecureNetwork {
    /// [`DistributedEngine::run_to_fixpoint`].
    pub fn run(&mut self) -> Result<RunMetrics, EngineError> {
        self.engine.run_to_fixpoint()
    }

    /// [`DistributedEngine::run_streaming`].
    pub fn run_streaming<I>(&mut self, events: I) -> Result<RunMetrics, EngineError>
    where
        I: IntoIterator<Item = (SimTime, ChurnEvent)>,
    {
        self.engine.run_streaming(events)
    }

    /// [`DistributedEngine::trace`].
    pub fn trace(&self) -> Option<&TraceRecorder> {
        self.engine.trace()
    }

    /// [`DistributedEngine::query`].
    pub fn query(&self, location: &Value, predicate: &str) -> Vec<(Tuple, TupleMeta)> {
        self.engine.query(location, predicate)
    }

    /// [`DistributedEngine::query_all`].
    pub fn query_all(&self, predicate: &str) -> Vec<(Value, Tuple, TupleMeta)> {
        self.engine.query_all(predicate)
    }

    /// [`DistributedEngine::render_provenance`].
    pub fn render_provenance(&self, location: &Value, tuple: &Tuple) -> Option<String> {
        self.engine.render_provenance(location, tuple)
    }

    /// [`DistributedEngine::distributed_stores`].
    pub fn distributed_stores(&self) -> HashMap<String, &DistributedStore> {
        self.engine.distributed_stores()
    }

    /// [`DistributedEngine::var_table`].
    pub fn var_table(&self) -> &VarTable {
        self.engine.var_table()
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
        let metrics = net.engine_mut().run_to_fixpoint().unwrap();
        assert!(metrics.messages > 0);
        // In a ring every node reaches every other node — and itself, since
        // the cycle closes the transitive closure back to the origin.
        for loc in net.engine().locations().to_vec() {
            assert_eq!(net.engine().query(&loc, "reachable").len(), 5);
        }
        assert!(net.topology().is_some());
        assert_eq!(net.engine().bytes_sent_per_node().len(), 5);
        // Storage gauges: rows and index overhead are live and mirrored
        // into the fixpoint metrics.
        assert!(net.engine().store_bytes() > 0);
        assert!(net.engine().index_bytes() > 0);
        assert_eq!(metrics.store_bytes, net.engine().store_bytes());
        assert_eq!(metrics.index_bytes, net.engine().index_bytes());
        // Frame gauges: per-tuple mode ships one-tuple frames, one per
        // message, and the engine's live metrics are the fixpoint's.
        assert_eq!(metrics.frames, metrics.messages);
        assert_eq!(metrics.batched_tuples, metrics.messages);
        assert_eq!(metrics.mean_batch_occupancy(), 1.0);
        assert_eq!(net.engine().metrics(), &metrics);
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
        let baseline = per_tuple.engine_mut().run_to_fixpoint().unwrap();
        let mut batched = build(EngineConfig::sendlog().with_batching());
        let metrics = batched.engine_mut().run_to_fixpoint().unwrap();

        // One signature per frame, fewer frames than per-tuple messages.
        assert_eq!(metrics.signatures, metrics.frames);
        assert_eq!(metrics.verifications, metrics.frames);
        assert!(metrics.frames < baseline.messages);
        assert!(metrics.mean_batch_occupancy() > 1.0);
        // The fixpoint is unchanged: same reachability closure everywhere.
        for loc in batched.engine().locations().to_vec() {
            assert_eq!(batched.engine().query(&loc, "reachable").len(), 6);
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
        let baseline = rsa.engine_mut().run_to_fixpoint().unwrap();
        let mut session = build(EngineConfig::sendlog_session().with_batching());
        let m = session.engine_mut().run_to_fixpoint().unwrap();

        // RSA collapses to one sign/verify per live directed link (a 6-ring
        // ships over 12: each link carries data and reply-direction
        // exports); every frame rides an HMAC instead.
        assert_eq!(m.handshakes, 12);
        assert_eq!(m.rsa_sign_ops, m.handshakes);
        assert_eq!(m.rsa_verify_ops, m.handshakes);
        assert!(m.rsa_sign_ops < baseline.rsa_sign_ops);
        assert!(m.hmac_ops > 0);
        assert_eq!(baseline.hmac_ops, 0);
        // The engine's live metrics are the fixpoint's.
        assert_eq!(session.engine().metrics(), &m);
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
        let baseline = stat.engine_mut().run_to_fixpoint().unwrap();

        let script = ChurnScript::new()
            .link_down(5_000_000, Value::Addr(0), Value::Addr(1))
            .link_up(10_000_000, Value::Addr(0), Value::Addr(1));
        let mut churned = build();
        let metrics = churned.engine_mut().run_scenario(&script).unwrap();

        // The flapped deployment re-converges to the static fixpoint.
        assert_eq!(metrics.tuples_stored, baseline.tuples_stored);
        for loc in churned.engine().locations().to_vec() {
            assert_eq!(churned.engine().query(&loc, "reachable").len(), 5);
        }
        // The engine's live metrics carry the dynamics counters.
        assert_eq!(churned.engine().metrics(), &metrics);
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
        net.engine_mut().run_to_fixpoint().unwrap();
        let loc = Value::Addr(0);
        let best: Vec<_> = net.engine().query(&loc, "bestPath");
        assert!(!best.is_empty());
        // Link facts carry three attributes.
        assert_eq!(net.engine().query(&loc, "link")[0].0.arity(), 3);
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
        net.engine_mut().run_to_fixpoint().unwrap();
        assert_eq!(
            net.engine()
                .query(&Value::Str("a".into()), "reachable")
                .len(),
            1
        );
    }

    #[test]
    fn builder_errors_are_reported() {
        let err = SecureNetwork::builder().build().unwrap_err();
        assert!(matches!(err, EngineError::MissingProgram), "{err:?}");
        let err = SecureNetwork::builder()
            .program(programs::reachability_ndlog())
            .build()
            .unwrap_err();
        assert!(matches!(err, EngineError::MissingLocations), "{err:?}");
        let err = SecureNetwork::builder()
            .program_text("p(@X :-")
            .err()
            .expect("a truncated rule does not parse");
        assert!(matches!(err, EngineError::Parse(_)), "{err:?}");
    }
}
