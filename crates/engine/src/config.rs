//! Engine configuration: the axes an experiment can vary.
//!
//! The paper's evaluation compares three system variants (Section 6):
//! **NDLog** (no authentication, no provenance), **SeNDLog** (authenticated
//! communication, no provenance) and **SeNDLogProv** (authentication plus
//! condensed provenance).  [`SystemVariant`] captures those presets;
//! [`EngineConfig`] exposes every underlying knob so an experiment can move
//! one axis at a time (`tests/optimizations.rs` pins the effect of each
//! provenance knob).

use crate::hash::FastMap;
use pasn_crypto::says::SaysLevel;
use pasn_net::{CostModel, FaultPlan};
use pasn_provenance::{Granularity, MaintenanceMode, ProvenanceKind, SamplingPolicy};
use pasn_trace::TraceConfig;

/// Whether derivation records are kept, and where they live (Section 4.1's
/// local-vs-distributed axis).  Both modes write the same pointer records
/// into each node's `pasn_provenance::DistributedStore`
/// ([`DistributedEngine::provenance_store`](crate::runtime::DistributedEngine::provenance_store))
/// and answer with the same traceback; they differ only in where a record
/// lives.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum GraphMode {
    /// No derivation records (only semiring tags, if enabled).
    #[default]
    None,
    /// Local provenance: every shipped tuple piggybacks the bundle of
    /// records reachable from it, which the receiver merges, so each node
    /// holds locally complete provenance and a traceback never leaves it.
    /// A tuple that dies is forgotten.
    Local,
    /// Distributed provenance: each node stores pointer records for the
    /// derivations it performed and a `recv` pointer back to the sender of
    /// each tuple it received; reconstruction is a traceback across nodes.
    Distributed,
}

impl GraphMode {
    /// Human-readable name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            GraphMode::None => "none",
            GraphMode::Local => "local",
            GraphMode::Distributed => "distributed",
        }
    }
}

/// Default cap on tuples per delta batch / shipment frame when batching is
/// enabled (see [`EngineConfig::max_batch_tuples`]).
pub(crate) const DEFAULT_MAX_BATCH_TUPLES: usize = 64;

/// Default simulated-time batching window applied by
/// [`EngineConfig::with_batching`]: one link latency of the paper's cost
/// model, so a node flushes what it derived from one round of arrivals as
/// single frames.
pub(crate) const DEFAULT_BATCH_WINDOW_US: u64 = 1_000;

/// Retry budget of the reliability layer: how many delivery attempts one
/// frame gets before the engine gives up and reconciles it like a cut-link
/// casualty.  Kept above every sane [`FaultPlan::max_consecutive_drops`],
/// so only a plan whose loss bursts outlast it exhausts the budget.
pub const DEFAULT_RETRY_BUDGET: u32 = 8;

/// Base retransmission timeout of the reliability layer (µs of simulated
/// time) — roughly a round trip of the paper's cost model; attempt `n`
/// waits `rto << min(n, 6)` (exponential backoff).
pub(crate) const DEFAULT_RETRANSMIT_RTO_US: u64 = 20_000;

/// Full engine configuration.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Authentication level for inter-node tuples; `None` disables
    /// authentication entirely (plain NDlog).
    pub says_level: Option<SaysLevel>,
    /// Which semiring annotation to maintain per tuple.
    pub provenance: ProvenanceKind,
    /// Whether and where derivation records are kept.
    pub graph_mode: GraphMode,
    /// Proactive or reactive provenance maintenance.  Reactive maintenance
    /// with [`GraphMode::Local`] is rejected when the engine is built.
    pub maintenance: MaintenanceMode,
    /// Sampling policy for provenance recording: a tuple's derivation record
    /// and every `recv` pointer to it are kept or dropped together.
    pub sampling: SamplingPolicy,
    /// Node- or AS-level provenance granularity.
    pub granularity: Granularity,
    /// Record an offline archive entry for every derivation.
    pub archive_offline: bool,
    /// Default TTL (microseconds of simulated time) for derived soft-state
    /// tuples; `None` keeps them until explicitly removed.
    pub default_ttl_us: Option<u64>,
    /// Cost model driving the simulated clock.
    pub cost_model: CostModel,
    /// RSA modulus size used when `says_level` is `Rsa`.
    pub rsa_modulus_bits: usize,
    /// Seed for key provisioning (kept separate from workload seeds so the
    /// same keys can be reused across a parameter sweep).
    pub key_seed: u64,
    /// Per-principal security levels for quantifiable provenance (Section
    /// 4.5: a derivation's trust level is the max over alternative
    /// derivations of the min level along each); principals not listed
    /// default to level 1.  The evaluator reads the levels here, and nothing
    /// else keeps a copy.
    pub security_levels: FastMap<u32, u8>,
    /// Answer joins with bound key columns through secondary hash indexes
    /// (on by default).  Disabling forces every join back to a full ordered
    /// scan — the pre-index evaluation strategy — which the benches use to
    /// measure the index speedup.
    pub use_secondary_indexes: bool,
    /// Simulated-time batching window in microseconds.  Tuples produced
    /// during one window flush together at the next window boundary: one
    /// delta batch per `(node, predicate)` for local work, and one signed
    /// multi-tuple shipment frame per `(source, destination, predicate)`
    /// for remote work — so plan dispatch, `says` signatures/verifications
    /// and message headers are paid per batch instead of per tuple.  `0`
    /// (the default) disables batching and reproduces per-tuple evaluation
    /// bit for bit.
    ///
    /// With batching on, joins stay exactly tuple-at-a-time-visible (each
    /// delta only joins rows inserted no later than itself), so monotone
    /// rules fire the identical derivations under any batch split.  What
    /// does follow the coarser batch interleaving: pipelined `a_MIN` /
    /// `a_MAX` aggregates may emit fewer intermediate improvements (the
    /// final aggregate value is unchanged), and provenance tags of joined
    /// rows reflect in-batch duplicate merges.
    pub batch_window_us: u64,
    /// Maximum tuples per delta batch / shipment frame.  A batch that fills
    /// up stops accepting rows; later tuples of the same window open a new
    /// batch flushed at the same window boundary (after the full one, in
    /// creation order).  Ignored while `batch_window_us` is `0`.
    pub max_batch_tuples: usize,
    /// Frames a session channel may authenticate before it expires and the
    /// link must be rebound with a fresh RSA-signed handshake at the next
    /// epoch (only meaningful at [`SaysLevel::Session`]).  The default is
    /// high enough that ordinary runs perform exactly one handshake per
    /// live directed link; lower it to exercise the rebind path.
    pub channel_rebind_frames: u64,
    /// Arms the network-dynamics machinery: the engine maintains the
    /// per-node deletion ledger (support counts and the firing log) that
    /// provenance-guided incremental deletion replays, schedules TTL expiry
    /// as first-class simulator work (soft state dies *during* evaluation
    /// instead of waiting for a manual `expire_all`), and enforces per-link
    /// in-order delivery (retraction streams assume FIFO links, as the
    /// session-channel transport already does), and runs every aggregate
    /// as an election over its live candidates.  Off by default: static
    /// runs pay no ledger memory and keep their exact schedules.
    /// `DistributedEngine::run_scenario` arms it automatically on a fresh
    /// engine.
    pub dynamics: bool,
    /// Unreliable-network mode: a deterministic, seeded fault plan the
    /// transport consults for every remote frame (drop / duplicate / extra
    /// delay decisions plus scheduled crash-without-drain events).
    /// Installing a plan arms the sender-side reliability layer — per-link
    /// send buffers, cumulative acks, timeout retransmission with
    /// exponential backoff — and the network-dynamics machinery.  `None`
    /// (the default) is today's reliable in-order transport, byte for byte.
    pub fault_plan: Option<FaultPlan>,
    /// Size of the *modeled* worker pool — a cost-model input, not an
    /// execution strategy: evaluation is sequential at every value.  Nodes
    /// are partitioned `node_id % workers`, and each same-instant wave of
    /// independent deliveries is charged only its busiest partition's CPU,
    /// which is what `RunMetrics::parallel_wall` and the other `Layout`
    /// rows report.  No fixpoint, schedule counter, wire byte or trace byte
    /// depends on it.  `1` (the default) models no pool.
    pub workers: usize,
    /// Flight-recorder configuration.  `None` (the default) disables tracing
    /// entirely — the runtime takes a single `Option` check per hook and
    /// allocates nothing.  `Some` records structured spans and events in
    /// simulated time; see `pasn_trace::TraceRecorder`.  Tracing never
    /// perturbs a counter, a schedule, or the fixpoint.
    pub trace: Option<TraceConfig>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig::ndlog()
    }
}

impl EngineConfig {
    /// The NDLog baseline: no authentication, no provenance.
    pub fn ndlog() -> Self {
        EngineConfig {
            says_level: None,
            provenance: ProvenanceKind::None,
            graph_mode: GraphMode::None,
            maintenance: MaintenanceMode::Proactive,
            sampling: SamplingPolicy::always(),
            granularity: Granularity::Node,
            archive_offline: false,
            default_ttl_us: None,
            cost_model: CostModel::paper_2008(),
            rsa_modulus_bits: 512,
            key_seed: 0x5eed,
            security_levels: FastMap::default(),
            use_secondary_indexes: true,
            batch_window_us: 0,
            max_batch_tuples: DEFAULT_MAX_BATCH_TUPLES,
            channel_rebind_frames: pasn_crypto::channel::DEFAULT_REBIND_AFTER_FRAMES,
            dynamics: false,
            fault_plan: None,
            workers: 1,
            trace: None,
        }
    }

    /// SeNDLog over session-keyed channels: RSA amortised to one
    /// key-establishment handshake per directed link, every frame HMAC'd
    /// under the link's session key ([`SaysLevel::Session`]).  Same
    /// authentication topology as [`EngineConfig::sendlog`] — the receiver
    /// still learns who `says` every tuple — at near-HMAC steady-state cost.
    pub fn sendlog_session() -> Self {
        EngineConfig {
            says_level: Some(SaysLevel::Session),
            ..EngineConfig::sendlog()
        }
    }

    /// SeNDLog: RSA-authenticated communication, no provenance.
    pub fn sendlog() -> Self {
        EngineConfig {
            says_level: Some(SaysLevel::Rsa),
            ..EngineConfig::ndlog()
        }
    }

    /// SeNDLogProv: RSA-authenticated communication plus condensed
    /// provenance — the most expensive configuration of the evaluation.
    pub fn sendlog_prov() -> Self {
        EngineConfig {
            provenance: ProvenanceKind::Condensed,
            ..EngineConfig::sendlog()
        }
    }

    /// Builder: sets the `says` level (imports are then verified).
    pub fn with_says(mut self, level: SaysLevel) -> Self {
        self.says_level = Some(level);
        self
    }

    /// Builder: disables secondary-index join probing (full-scan joins, the
    /// pre-index evaluation strategy; used by benches as a baseline).
    pub fn without_secondary_indexes(mut self) -> Self {
        self.use_secondary_indexes = false;
        self
    }

    /// Builder: enables delta batching with the default window
    /// (`DEFAULT_BATCH_WINDOW_US`).
    pub fn with_batching(self) -> Self {
        self.with_batch_window_us(DEFAULT_BATCH_WINDOW_US)
    }

    /// Builder: sets the simulated-time batching window (`0` disables
    /// batching and reproduces per-tuple evaluation bit for bit).
    pub fn with_batch_window_us(mut self, window_us: u64) -> Self {
        self.batch_window_us = window_us;
        self
    }

    /// Builder: caps the tuples per delta batch / shipment frame.
    pub fn with_max_batch_tuples(mut self, max: usize) -> Self {
        self.max_batch_tuples = max;
        self
    }

    /// Builder: sets how many frames a session channel authenticates before
    /// it must be rebound with a fresh handshake.
    pub fn with_channel_rebind_frames(mut self, frames: u64) -> Self {
        self.channel_rebind_frames = frames.max(1);
        self
    }

    /// Builder: arms the network-dynamics machinery (deletion ledger,
    /// scheduled TTL expiry, FIFO links) from the first evaluated tuple on.
    pub fn with_dynamics(mut self) -> Self {
        self.dynamics = true;
        self
    }

    /// Builder: installs an unreliable-network fault plan (and arms
    /// dynamics — reconciliation needs the deletion ledger).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self.dynamics = true;
        self
    }

    /// Builder: sets the provenance kind.
    pub fn with_provenance(mut self, kind: ProvenanceKind) -> Self {
        self.provenance = kind;
        self
    }

    /// Builder: sets the graph mode.
    pub fn with_graph_mode(mut self, mode: GraphMode) -> Self {
        self.graph_mode = mode;
        self
    }

    /// Builder: sets the cost model.
    pub fn with_cost_model(mut self, cost: CostModel) -> Self {
        self.cost_model = cost;
        self
    }

    /// Builder: sets a default TTL for derived tuples.
    pub fn with_default_ttl_us(mut self, ttl: u64) -> Self {
        self.default_ttl_us = Some(ttl);
        self
    }

    /// Builder: sets the modeled worker-pool size (see
    /// [`EngineConfig::workers`]; clamped to at least one worker).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Builder: enables the deterministic flight recorder.  The engine
    /// records simulated-time spans and events into a
    /// `pasn_trace::TraceRecorder` readable after the run via
    /// `DistributedEngine::trace`.
    pub fn with_tracing(mut self, trace: TraceConfig) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Builder: sets a principal's security level.
    pub fn with_security_level(mut self, principal: u32, level: u8) -> Self {
        self.security_levels.insert(principal, level);
        self
    }

    /// A principal's security level: its entry in `security_levels`, or 1.
    pub fn level_of(&self, principal: u32) -> u8 {
        self.security_levels.get(&principal).copied().unwrap_or(1)
    }

    /// True when any provenance (tag or graph) is maintained.
    pub(crate) fn tracks_provenance(&self) -> bool {
        self.provenance != ProvenanceKind::None || self.graph_mode != GraphMode::None
    }
}

/// The three system variants of the paper's evaluation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SystemVariant {
    /// No authentication, no provenance.
    NDLog,
    /// Authenticated communication.
    SeNDLog,
    /// Authenticated communication plus condensed provenance.
    SeNDLogProv,
}

impl SystemVariant {
    /// All variants in the order the paper plots them.
    pub const ALL: [SystemVariant; 3] = [
        SystemVariant::NDLog,
        SystemVariant::SeNDLog,
        SystemVariant::SeNDLogProv,
    ];

    /// The paper's name for the variant.
    pub fn name(self) -> &'static str {
        match self {
            SystemVariant::NDLog => "NDLog",
            SystemVariant::SeNDLog => "SeNDLog",
            SystemVariant::SeNDLogProv => "SeNDLogProv",
        }
    }

    /// The engine configuration implementing this variant.
    pub fn config(self) -> EngineConfig {
        match self {
            SystemVariant::NDLog => EngineConfig::ndlog(),
            SystemVariant::SeNDLog => EngineConfig::sendlog(),
            SystemVariant::SeNDLogProv => EngineConfig::sendlog_prov(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_the_paper_variants() {
        let nd = SystemVariant::NDLog.config();
        assert!(nd.says_level.is_none());
        assert!(!nd.tracks_provenance());

        let se = SystemVariant::SeNDLog.config();
        assert!(se.says_level.is_some());
        assert_eq!(se.says_level, Some(SaysLevel::Rsa));
        assert!(!se.tracks_provenance());

        let sp = SystemVariant::SeNDLogProv.config();
        assert!(sp.says_level.is_some());
        assert_eq!(sp.provenance, ProvenanceKind::Condensed);
        assert!(sp.tracks_provenance());

        assert_eq!(SystemVariant::ALL.len(), 3);
        assert_eq!(SystemVariant::SeNDLogProv.name(), "SeNDLogProv");
    }

    #[test]
    fn builders_compose() {
        let cfg = EngineConfig::ndlog()
            .with_says(SaysLevel::Hmac)
            .with_provenance(ProvenanceKind::Vote)
            .with_graph_mode(GraphMode::Distributed)
            .with_default_ttl_us(5_000_000)
            .with_security_level(3, 4);
        assert_eq!(cfg.says_level, Some(SaysLevel::Hmac));
        assert_eq!(cfg.provenance, ProvenanceKind::Vote);
        assert_eq!(cfg.graph_mode, GraphMode::Distributed);
        assert_eq!(cfg.default_ttl_us, Some(5_000_000));
        assert_eq!(cfg.security_levels[&3], 4);
        assert_eq!(GraphMode::Distributed.name(), "distributed");
        assert_eq!(GraphMode::default(), GraphMode::None);
    }

    #[test]
    fn default_config_is_the_baseline() {
        let cfg = EngineConfig::default();
        assert!(cfg.says_level.is_none());
        assert_eq!(cfg.provenance, ProvenanceKind::None);
        // Per-tuple evaluation unless batching is explicitly enabled.
        assert_eq!(cfg.batch_window_us, 0);
        assert_eq!(cfg.max_batch_tuples, DEFAULT_MAX_BATCH_TUPLES);
    }

    #[test]
    fn batching_builders_set_the_knobs() {
        let cfg = EngineConfig::sendlog().with_batching();
        assert_eq!(cfg.batch_window_us, DEFAULT_BATCH_WINDOW_US);
        let cfg = EngineConfig::ndlog()
            .with_batch_window_us(2_500)
            .with_max_batch_tuples(8);
        assert_eq!(cfg.batch_window_us, 2_500);
        assert_eq!(cfg.max_batch_tuples, 8);
    }

    #[test]
    fn worker_builder_clamps_to_at_least_one() {
        let cfg = EngineConfig::ndlog().with_workers(4);
        assert_eq!(cfg.workers, 4);
        let cfg = EngineConfig::ndlog().with_workers(0);
        assert_eq!(cfg.workers, 1, "a pool needs at least one worker");
    }

    #[test]
    fn fault_plan_builder_arms_dynamics() {
        let cfg = EngineConfig::sendlog_session().with_fault_plan(FaultPlan::new(7));
        assert!(cfg.dynamics, "reconciliation needs the deletion ledger");
        assert!(cfg.fault_plan.is_some());
    }

    #[test]
    fn session_preset_amortises_rsa_over_the_channel() {
        let cfg = EngineConfig::sendlog_session();
        assert!(cfg.says_level.is_some());
        assert_eq!(cfg.says_level, Some(SaysLevel::Session));
        assert_eq!(
            cfg.channel_rebind_frames,
            pasn_crypto::channel::DEFAULT_REBIND_AFTER_FRAMES
        );
        let cfg = cfg.with_channel_rebind_frames(0);
        assert_eq!(cfg.channel_rebind_frames, 1, "a channel must carry a frame");
    }
}
