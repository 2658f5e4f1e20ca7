//! The distributed SeNDlog evaluator.
//!
//! [`DistributedEngine`] runs a compiled NDlog / SeNDlog program over a set
//! of simulated nodes.  Every node owns a soft-state store and evaluates the
//! per-rule delta plans produced by `pasn-datalog`; tuples whose destination
//! differs from the deriving node are serialised, optionally signed with the
//! deriving principal's `says` mechanism, charged to the bandwidth meter and
//! delivered through the discrete-event transport of `pasn-net`.  The engine
//! reaches the *distributed fixpoint* (the paper's completion criterion) when
//! no work items remain.
//!
//! Provenance hooks fire on every rule evaluation: semiring tags are combined
//! per the configured [`pasn_provenance::ProvenanceKind`], and pointer
//! records / offline archive entries are maintained per the configured
//! [`crate::config::GraphMode`] and maintenance policy.
//!
//! The module tree follows a delta batch's life, each layer owning its
//! state: `queue` (the simulated-time work queue and open batches),
//! `eval` (batch processing, rule firing, head emission at one node),
//! `ship` (frame sealing and session channels), `transport` (the
//! unreliable-link reliability layer) and `deletion` (churn, expiry,
//! retraction cascades, the well-founded sweep).  There is one evaluation
//! path: the sequential loop of `drain_queue`, which also keeps the books
//! of the *modeled* worker pool (`EngineConfig::workers`).  Inside the
//! runtime a node is addressed by its [`NodeId`] only — the index of its
//! `NodeRuntime`; location values are resolved through the directory once,
//! at the public boundary.

mod deletion;
mod eval;
mod queue;
mod ship;
#[cfg(test)]
mod tests;
mod transport;

use crate::config::{ConfigError, EngineConfig};
use crate::dynamics::{pools, ChurnEvent, ChurnScript, Ledger};
use crate::eval::EvalError;
use crate::hash::FastMap;
use crate::metrics::RunMetrics;
use crate::store::{NodeStore, TupleMeta};
use crate::tuple::Tuple;
use deletion::{DeletionState, Removal};
use eval::{record_provenance, DerivationRecord, Effect, EvalShared, NodeCtx};
use pasn_crypto::channel::{ChannelHandshake, ReceiverChannel, SenderChannel};
use pasn_crypto::says::{Authenticator, SaysAssertion};
use pasn_crypto::{KeyAuthority, Principal, PrincipalId, RsaPublicKey};
use pasn_datalog::plan::CompiledProgram;
use pasn_datalog::{compile_program, AggFunc, ParseError, PlanError, PredId, Program, Term, Value};
use pasn_net::{FaultEvent, NodeId, SimTime};
use pasn_provenance::{
    moonwalk_with, traceback_with, ArchiveStore, DistributedStore, MoonwalkConfig, MoonwalkResult,
    ProvKey, ProvTag, TracebackResult, VarTable,
};
use pasn_trace::{TraceEvent, TraceEventKind, TraceRecorder};
use queue::{BatchKey, BatchRow, Bound, GlobalWork, NodeWork, Polarity, QueuedWork, WorkQueue};
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::fmt::{self, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};
use transport::LinkTransport;

/// Errors raised while building a deployment or driving the engine.
#[derive(Debug)]
pub enum EngineError {
    /// The program text failed to parse.
    Parse(ParseError),
    /// A deployment was built without a program.
    MissingProgram,
    /// A deployment was built with neither a topology nor explicit
    /// locations.
    MissingLocations,
    /// The program failed compilation (validation, localization or planning).
    Compile(PlanError),
    /// Key provisioning failed.
    Crypto(pasn_crypto::rsa::RsaError),
    /// A tuple referenced a location that is not part of the deployment.
    UnknownLocation(Value),
    /// A tuple was supplied with a different arity than the compiled program
    /// declares for its predicate.
    ArityMismatch {
        /// The predicate being inserted or joined.
        predicate: String,
        /// Arity declared by the program.
        expected: usize,
        /// Arity of the offending tuple.
        got: usize,
    },
    /// A rule evaluation error (unbound variable, type mismatch, ...).
    Eval(String),
    /// The configuration was refused, or cannot serve the run asked of it
    /// (see [`EngineConfig::validate`]).
    Config(ConfigError),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Parse(e) => write!(f, "{e}"),
            EngineError::MissingProgram => write!(f, "a program is required"),
            EngineError::MissingLocations => {
                write!(f, "either a topology or explicit locations are required")
            }
            EngineError::Compile(e) => write!(f, "compilation failed: {e}"),
            EngineError::Crypto(e) => write!(f, "key provisioning failed: {e}"),
            EngineError::UnknownLocation(v) => write!(f, "unknown location {v}"),
            EngineError::ArityMismatch {
                predicate,
                expected,
                got,
            } => write!(
                f,
                "arity mismatch: predicate `{predicate}` declares {expected} arguments, tuple has {got}"
            ),
            EngineError::Eval(msg) => write!(f, "evaluation error: {msg}"),
            EngineError::Config(e) => write!(f, "invalid configuration: {e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<ParseError> for EngineError {
    fn from(e: ParseError) -> Self {
        EngineError::Parse(e)
    }
}

impl From<PlanError> for EngineError {
    fn from(e: PlanError) -> Self {
        EngineError::Compile(e)
    }
}

impl From<ConfigError> for EngineError {
    fn from(e: ConfigError) -> Self {
        EngineError::Config(e)
    }
}

impl From<EvalError> for EngineError {
    fn from(e: EvalError) -> Self {
        EngineError::Eval(e.to_string())
    }
}

impl From<pasn_crypto::rsa::RsaError> for EngineError {
    fn from(e: pasn_crypto::rsa::RsaError) -> Self {
        EngineError::Crypto(e)
    }
}

/// Position of a node's runtime in the engine's node vector.
fn ix(id: NodeId) -> usize {
    id.0 as usize
}

/// Every node id of an `n`-node deployment, ascending.
fn node_ids(n: usize) -> impl Iterator<Item = NodeId> {
    (0..n as u32).map(NodeId)
}

/// The modeled pool partition that owns node `id`: ids interleave across
/// the `workers` partitions.  The one place the layout is decided.
fn partition_of(id: NodeId, workers: usize) -> usize {
    id.0 as usize % workers
}

/// The security principal of a node: nodes double as principals, and
/// `NodeId(i)` is `PrincipalId(i)` by construction (see
/// [`DistributedEngine::new`]).
fn principal_of(id: NodeId) -> PrincipalId {
    PrincipalId(id.0)
}

/// A directed link `(source, destination)`.
type Link = (NodeId, NodeId);

/// The node a principal speaks for: the inverse of [`principal_of`].
fn node_of(principal: PrincipalId) -> NodeId {
    NodeId(principal.0)
}

/// An aggregate group — `(rule id, grouping columns)` — at the deriving
/// node.
type GroupKey = (u32, Vec<Value>);

/// An aggregate group's row, by its aggregate value and tag.
type Emission = (i64, ProvTag);

/// One aggregate group's election under dynamics, for every aggregate
/// function: the live candidate multiset and the one row it emits.
#[derive(Default)]
struct Election {
    /// Candidate value → one provenance tag per alive candidate firing.
    /// An arrival adds one, a candidate firing's death removes it.
    candidates: BTreeMap<i64, Vec<ProvTag>>,
    /// The emitted row: exactly what the head's node stores, so deletion
    /// withdraws precisely that row.
    emitted: Option<Emission>,
}

impl Election {
    /// Re-elects after the candidate multiset changed.  The group's value
    /// is `func`'s value of its live candidates; an `a_MIN`/`a_MAX` row
    /// carries its winner's tag (the emitted one while that value stands),
    /// an `a_COUNT`/`a_SUM` row the semiring product of every live
    /// candidate's tag, since its value depends on all of them.  Returns the
    /// row to withdraw and the row to assert — both `None` while the
    /// emitted row stands; an emptied group asserts nothing.
    fn reelect(
        &mut self,
        func: AggFunc,
        table: &mut VarTable,
        provenance_ops: &mut u64,
    ) -> (Option<Emission>, Option<Emission>) {
        let elected = func.value_of(&self.candidates).map(|value| {
            let tag = if pools(func) {
                let mut tags = self.candidates.values().flatten();
                let first = tags.next().cloned().unwrap_or_default();
                // Untagged runs multiply nothing.
                let untagged = first == ProvTag::None;
                tags.filter(|_| !untagged).fold(first, |product, tag| {
                    *provenance_ops += 1;
                    product.times(tag, table)
                })
            } else {
                match &self.emitted {
                    Some((emitted, tag)) if *emitted == value => tag.clone(),
                    _ => self.candidates[&value][0].clone(),
                }
            };
            (value, tag)
        });
        if elected == self.emitted {
            return (None, None);
        }
        let withdrawn = std::mem::replace(&mut self.emitted, elected.clone());
        (withdrawn, elected)
    }
}

/// One node's end of its links with one peer: the sender half of the
/// session channel it ships on, the receiver half of the one it is shipped
/// to on (`SaysLevel::Session` only; the other halves live at the peer),
/// and what outlives a channel.  The halves are boxed: a dynamics run keeps
/// one record per link it ever shipped on, channels or not.
#[derive(Default)]
struct Peer {
    send: Option<Box<SenderChannel>>,
    recv: Option<Box<ReceiverChannel>>,
    /// A sender channel evicted by churn (link down, node failure) forces
    /// the next binding of the link to this epoch or later, instead of
    /// restarting at 0 under a reused key stream.
    send_floor: u32,
    /// A replayed pre-eviction handshake (validly signed forever) must not
    /// reinstall a retired channel and resurrect its captured frames:
    /// handshakes below this epoch are refused.
    recv_floor: u32,
    /// Latest delivery time on the outbound link (`SaysLevel::Session` and
    /// dynamics runs): a session channel's monotonic frame counter requires
    /// in-order delivery per link — as the real session transport it stands
    /// in for would provide — and retraction streams likewise assume FIFO
    /// links (a tombstone must never overtake the assertion it withdraws).
    horizon: SimTime,
    /// Whether a retraction is due on the outbound link at `horizon`.
    horizon_retracts: bool,
}

impl Peer {
    /// MACs one frame on the open sender channel towards `dst`, first
    /// performing the RSA-signed key-establishment handshake when the link
    /// is unbound — at the floor a churn eviction left, never back at a key
    /// stream that already ran — or its channel has exhausted
    /// `rebind_after` frames.  Returns the frame's proof and the handshake
    /// of a fresh binding, for the caller to ship ahead of the frame.
    fn assert_frame(
        &mut self,
        authenticator: &Authenticator,
        dst: PrincipalId,
        rebind_after: u64,
        payloads: &[Vec<u8>],
    ) -> (SaysAssertion, Option<ChannelHandshake>) {
        let (channel, handshake) = match self.send.take() {
            Some(channel) if !channel.expired() => (channel, None),
            stale => {
                let epoch = stale.map_or(self.send_floor, |channel| channel.epoch() + 1);
                let (handshake, channel) = authenticator.open_channel(dst, epoch, rebind_after);
                (Box::new(channel), Some(handshake))
            }
        };
        let channel = self.send.insert(channel);
        (authenticator.assert_frame_on(channel, payloads), handshake)
    }

    /// Verifies one handshake transcript from this peer and installs the
    /// resulting receiver channel.  A handshake below the epoch floor is a
    /// replay of a channel churn already retired (crash-style evictions
    /// raise the floor past the dead channel, so a rebinding sender must
    /// supersede it to be heard), and a rebind must supersede the installed
    /// channel's epoch, so a replayed old handshake can never roll the
    /// replay counter back.  A refused handshake (`false`) installs nothing
    /// — subsequent frames on the link then fail verification for lack of
    /// a channel.
    fn accept(&mut self, verifier: &Authenticator, handshake: &ChannelHandshake) -> bool {
        if !handshake.supersedes(self.recv_floor) {
            return false;
        }
        let accepted = match &self.recv {
            Some(current) => verifier.accept_rebind(handshake, current),
            None => verifier.accept_channel(handshake),
        };
        let Ok(channel) = accepted else {
            return false;
        };
        self.recv = Some(Box::new(channel));
        true
    }

    /// Retires the sender half if it still carries `epoch`: the half is
    /// dropped and the floor rises past it, so the link — should it return
    /// — rebinds at a fresh epoch: the retired key stream and its replay
    /// counter can never be resumed or replayed.
    fn retire_send(&mut self, epoch: Option<u32>) -> bool {
        let live = self.send.as_ref().map(|channel| channel.epoch());
        let Some(epoch) = epoch.filter(|_| epoch == live) else {
            return false;
        };
        self.send = None;
        self.send_floor = self.send_floor.max(epoch + 1);
        true
    }

    /// The receiver half's [`Peer::retire_send`].
    fn retire_recv(&mut self, epoch: Option<u32>) -> bool {
        let live = self.recv.as_ref().map(|channel| channel.epoch());
        let Some(epoch) = epoch.filter(|_| epoch == live) else {
            return false;
        };
        self.recv = None;
        self.recv_floor = self.recv_floor.max(epoch + 1);
        true
    }
}

/// Per-node runtime state, stored at the index of the node's [`NodeId`].
struct NodeRuntime {
    store: NodeStore,
    /// Without dynamics, each aggregate group's running value: the
    /// `a_COUNT`/`a_SUM` total, or the best `a_MIN`/`a_MAX` value so far —
    /// pipelined, emitted as it moves and never withdrawn.
    running: FastMap<GroupKey, i64>,
    /// Under dynamics, each aggregate group's election.
    elections: FastMap<GroupKey, Election>,
    /// Online provenance, pointer records in either graph mode: what this
    /// node derived (`Distributed`), or that plus every bundle it received,
    /// less what died here (`Local`).
    prov: DistributedStore,
    archive: ArchiveStore,
    /// The annotation `label@node` of each rule label at this node, indexed
    /// like [`EvalShared::labels`]; rendered on first use, then shared by
    /// every pointer record and archive entry filed under it.
    annotations: Vec<Option<Arc<str>>>,
    /// The buffer provenance keys are rendered into: a key kept is one
    /// allocation, a key only looked up none.
    key_buf: String,
    deferred: Vec<DerivationRecord>,
    authenticator: Option<Authenticator>,
    /// This node's end of every link it has shipped on (`SaysLevel::Session`
    /// and dynamics runs) or accepted a handshake on.
    peers: FastMap<NodeId, Peer>,
    /// Deletion ledger: supports per stored row and the firing log.
    /// Populated only while dynamics are enabled.
    ledger: Ledger,
    /// This node's simulated CPU lane: busy until this instant.  Owned by
    /// the node, not a global schedule: nodes compute concurrently in
    /// simulated time.
    busy_until: SimTime,
    /// Total simulated CPU this node has executed — the modeled work the
    /// host must schedule somewhere.  Its per-event deltas, bucketed by
    /// partition per wave, give the modeled parallel critical path.
    cpu_spent: SimTime,
    /// Wire bytes this node has sent (frames, handshakes, acks): its lane
    /// of the per-principal accountability report.
    bytes_sent: u64,
}

impl NodeRuntime {
    /// Runs `work` microseconds of CPU on this node's lane starting no
    /// earlier than `now`; returns (and remembers) when the lane is free
    /// again.
    fn run_cpu(&mut self, now: SimTime, work: SimTime) -> SimTime {
        let done = self.busy_until.max(now) + work;
        self.busy_until = done;
        self.cpu_spent += work;
        done
    }

    /// Clamps `deliver_at` to this node's previous delivery on the link to
    /// `dst` and advances the horizon.  Ties at one timestamp resolve by
    /// work-queue seq, which is send order — except that same-instant work
    /// runs retractions after wave-safe work (`NodeWork::rank`), so a
    /// wave-safe item (an assertion frame, a handshake) that ties with a
    /// `retraction` already due on the link lands one microsecond later
    /// instead of overtaking it.
    fn link_deliver(&mut self, dst: NodeId, deliver_at: SimTime, retraction: bool) -> SimTime {
        let peer = self.peers.entry(dst).or_default();
        let mut at = deliver_at.max(peer.horizon);
        if at == peer.horizon && peer.horizon_retracts && !retraction {
            at += SimTime::from_micros(1);
        }
        peer.horizon_retracts = retraction || (at == peer.horizon && peer.horizon_retracts);
        peer.horizon = at;
        at
    }

    /// The link's current delivery horizon towards `dst` (ZERO when the
    /// link never delivered).
    fn link_horizon_to(&self, dst: NodeId) -> SimTime {
        self.peers.get(&dst).map_or(SimTime::ZERO, |p| p.horizon)
    }
}

/// What one evaluated event recorded for the engine to apply after it:
/// its effects and (when tracing) its trace events, in emission order.
#[derive(Default)]
struct EventLog {
    effects: Vec<Effect>,
    trace: Vec<TraceEvent>,
}

/// The distributed evaluator.
pub struct DistributedEngine {
    /// Configuration, compiled program, interner and directory: everything
    /// evaluation reads but never writes.
    shared: EvalShared,
    /// One runtime per node, indexed by [`NodeId`].
    nodes: Vec<NodeRuntime>,
    var_table: VarTable,
    queue: WorkQueue,
    transport: LinkTransport,
    deletion: DeletionState,
    /// Simulated CPU the modeled pool takes off the critical path: for
    /// every wave, the sum of all partitions' executed CPU minus the slowest
    /// partition's.  Subtracted from the nodes' total executed CPU to report
    /// [`RunMetrics::parallel_wall`]; stays zero at one worker.
    cpu_saved: SimTime,
    /// The log of the event being evaluated: taken, filled, drained and put
    /// back, so steady state allocates none.
    event_log: EventLog,
    /// The same for a frame sealed inline while an event's effects replay
    /// (unbatched runs), when `event_log` is out on loan.
    seal_log: EventLog,
    metrics: RunMetrics,
    /// Earliest simulated instant at which the next scripted churn event
    /// samples the memory footprint into the peak gauges.
    next_peak_sample_us: u64,
    completion: SimTime,
    /// True once evaluation has processed any work — dynamics can no longer
    /// be armed retroactively (the ledger would be missing history).
    started: bool,
    /// The flight recorder, present only when `EngineConfig::trace` is set.
    /// Every hook is behind an `is_some()` check, so disabled tracing costs
    /// one branch and never allocates or perturbs a counter.
    recorder: Option<TraceRecorder>,
}

impl DistributedEngine {
    /// Compiles `program` and deploys it over `locations` (one node per
    /// location value).  Facts embedded in the program are scheduled for
    /// insertion at time zero.
    pub fn new(
        program: &Program,
        config: EngineConfig,
        locations: &[Value],
    ) -> Result<Self, EngineError> {
        let config = config.validate(locations.len())?;
        let compiled = compile_program(program)?;
        // What the provenance stores, key material and trace call each
        // node: rendered here, once, through one buffer, and shared.
        let mut buf = String::new();
        let names: Vec<Arc<str>> = locations
            .iter()
            .map(|location| {
                buf.clear();
                // Writing to a `String` cannot fail.
                let _ = write!(buf, "{location}");
                Arc::from(buf.as_str())
            })
            .collect();

        // Key material: one principal per location, provisioned up front
        // (outside the measured run, as in the paper's setup).
        let mut authenticators: Vec<Option<Authenticator>> = vec![None; locations.len()];
        if let Some(level) = config.says_level {
            let principals: Vec<Principal> = names
                .iter()
                .enumerate()
                .map(|(i, name)| Principal::new(i as u32, &**name))
                .collect();
            let authority = KeyAuthority::provision_with_modulus(
                &principals,
                config.key_seed,
                config.rsa_modulus_bits,
            )?;
            for (i, slot) in authenticators.iter_mut().enumerate() {
                let keyring = authority
                    .keyring_for(PrincipalId(i as u32))
                    .expect("principal was provisioned");
                *slot = Some(Authenticator::new(keyring, level));
            }
        }

        // Secondary indexes: one per (predicate, key columns) spec inferred
        // by the planner, installed on every node's store up front so they
        // are maintained incrementally from the first insert on.  With
        // indexing disabled nothing is registered and every probe falls
        // back to the ordered scan path.
        let index_specs = if config.use_secondary_indexes {
            compiled.index_specs()
        } else {
            Vec::new()
        };

        let symbols = compiled.symbols.clone();
        let nodes = authenticators
            .into_iter()
            .map(|authenticator| {
                let mut store = NodeStore::new();
                // Mirror the compiled interner so plan-time PredIds address
                // the store directly, then register the planner's index
                // specs by id.
                store.sync_symbols(&symbols);
                for spec in &index_specs {
                    store.register_index_id(spec.pred, &spec.key_columns);
                }
                NodeRuntime {
                    store,
                    running: FastMap::default(),
                    elections: FastMap::default(),
                    prov: DistributedStore::new(),
                    archive: ArchiveStore::new(),
                    annotations: Vec::new(),
                    key_buf: String::new(),
                    deferred: Vec::new(),
                    authenticator,
                    peers: FastMap::default(),
                    ledger: Ledger::default(),
                    busy_until: SimTime::ZERO,
                    cpu_spent: SimTime::ZERO,
                    bytes_sent: 0,
                }
            })
            .collect();

        // Rule ids: each distinct rule label interned once, then `recv`
        // (unless a rule already carries it).
        let mut labels: Vec<Arc<str>> = Vec::new();
        let mut intern = |label: &str| match labels.iter().position(|l| **l == *label) {
            Some(id) => id as u32,
            None => {
                labels.push(label.into());
                labels.len() as u32 - 1
            }
        };
        let rule_ids: Vec<u32> = compiled.plans.iter().map(|p| intern(&p.label)).collect();
        let recv = intern("recv");

        let recorder = config
            .trace
            .clone()
            .map(|t| TraceRecorder::new(t, names.iter().map(|n| n.to_string()).collect()));
        let mut engine = DistributedEngine {
            nodes,
            var_table: VarTable::new(),
            queue: WorkQueue::new(config.batch_window_us, config.max_batch_tuples),
            transport: LinkTransport::default(),
            deletion: DeletionState::default(),
            cpu_saved: SimTime::ZERO,
            event_log: EventLog::default(),
            seal_log: EventLog::default(),
            metrics: RunMetrics::default(),
            next_peak_sample_us: 0,
            completion: SimTime::ZERO,
            started: false,
            recorder,
            shared: EvalShared {
                config,
                symbols,
                locations: locations.to_vec(),
                directory: node_ids(locations.len())
                    .map(|id| (locations[ix(id)].clone(), id))
                    .collect(),
                name_ids: node_ids(locations.len())
                    .map(|id| (ProvKey::from_rendered(&names[ix(id)]), id))
                    .collect(),
                names,
                rule_ids,
                labels,
                recv,
                said_preds: compiled.said_preds(),
                compiled,
            },
        };

        // Program facts: inserted at their home node at time zero.
        let facts: Vec<(Value, Tuple)> = engine
            .shared
            .compiled
            .program
            .facts
            .iter()
            .map(|fact| {
                let values: Vec<Value> = fact
                    .atom
                    .args
                    .iter()
                    .map(|t| match t {
                        Term::Constant(c) => c.clone(),
                        _ => unreachable!("facts are ground"),
                    })
                    .collect();
                let loc_idx = fact.atom.location.unwrap_or(0);
                let loc = values.get(loc_idx).cloned().unwrap_or(Value::Int(0));
                (loc, Tuple::new(fact.atom.predicate.clone(), values))
            })
            .collect();
        for (loc, tuple) in facts {
            engine.insert_fact_at(loc, tuple, SimTime::ZERO)?;
        }

        // A fault plan's scheduled crash events become churn work up front.
        let events = engine
            .shared
            .config
            .fault_plan
            .as_ref()
            .map_or(Vec::new(), |plan| plan.events.clone());
        for (at_us, event) in events {
            let location = |node: u32| locations[node as usize].clone();
            let churn = match event {
                FaultEvent::LinkCut { src, dst } => ChurnEvent::LinkCut {
                    src: location(src),
                    dst: location(dst),
                },
                FaultEvent::NodeCrash { node } => ChurnEvent::NodeCrash {
                    node: location(node),
                },
            };
            let at = SimTime::from_micros(at_us);
            engine.queue.push_global(at, GlobalWork::Churn(churn));
        }
        Ok(engine)
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.shared.config
    }

    /// The compiled (localized) program being executed.
    pub fn compiled(&self) -> &CompiledProgram {
        &self.shared.compiled
    }

    /// The shared provenance variable table (for rendering condensed tags).
    pub fn var_table(&self) -> &VarTable {
        &self.var_table
    }

    /// Locations participating in the deployment.
    pub fn locations(&self) -> &[Value] {
        &self.shared.locations
    }

    /// Security principal of a location.
    pub fn principal_of(&self, location: &Value) -> Option<PrincipalId> {
        self.shared
            .directory
            .get(location)
            .map(|&id| principal_of(id))
    }

    /// The RSA public key the node at `location` signs with (`None` without
    /// `says`: a cleartext deployment provisions no keys).
    pub fn public_key_of(&self, location: &Value) -> Option<&RsaPublicKey> {
        let authenticator = self.node_at(location)?.authenticator.as_ref()?;
        Some(authenticator.keyring().rsa_keypair().public_key())
    }

    /// Resolves a location value supplied through the public API.
    fn resolve(&self, location: &Value) -> Result<NodeId, EngineError> {
        match self.shared.directory.get(location) {
            Some(&id) => Ok(id),
            None => Err(EngineError::UnknownLocation(location.clone())),
        }
    }

    /// The runtime of the node at `location`, if deployed.
    fn node_at(&self, location: &Value) -> Option<&NodeRuntime> {
        self.shared
            .directory
            .get(location)
            .map(|&id| &self.nodes[ix(id)])
    }

    /// Inserts an externally supplied base fact (e.g. a `link` tuple from the
    /// topology) at `location`, scheduled at time zero.
    pub fn insert_fact(&mut self, location: Value, tuple: Tuple) -> Result<(), EngineError> {
        self.insert_fact_at(location, tuple, SimTime::ZERO)
    }

    /// Inserts an externally supplied base fact at a given simulated time
    /// (used by the streaming / diagnostics workloads).
    pub fn insert_fact_at(
        &mut self,
        location: Value,
        tuple: Tuple,
        at: SimTime,
    ) -> Result<(), EngineError> {
        let id = self.resolve(&location)?;
        let pred = match self.known_pred(&tuple)? {
            Some(pred) => pred,
            None => self.shared.symbols.intern(&tuple.predicate),
        };
        let row = self.base_row(id, pred, tuple.values.into());
        self.enqueue_local(at, id, pred, row, Polarity::Assert);
        Ok(())
    }

    /// The id of `tuple`'s predicate, `None` when it was never interned.
    /// Predicates the program knows about must arrive with the declared
    /// arity — to be asserted, retracted or refreshed alike; a mismatch
    /// would otherwise silently fail to join, or to find its row, anywhere.
    /// Predicates the program never mentions are unconstrained.
    fn known_pred(&self, tuple: &Tuple) -> Result<Option<PredId>, EngineError> {
        let Some(pred) = self.shared.symbols.resolve(&tuple.predicate) else {
            return Ok(None);
        };
        match self.shared.compiled.arity_of_pred(pred) {
            Some(expected) if expected != tuple.arity() => Err(EngineError::ArityMismatch {
                predicate: tuple.predicate.to_string(),
                expected,
                got: tuple.arity(),
            }),
            _ => Ok(Some(pred)),
        }
    }

    /// A base row of `pred` asserted at node `id`.  Its `@` column — and so
    /// the identity the provenance stores render it under — is the one the
    /// program declares for the predicate, which is what the rules name
    /// their antecedent by (none inside a SeNDlog context block); only a
    /// predicate the program never mentions falls back to the first value
    /// equal to the location.
    fn base_row(&self, id: NodeId, pred: PredId, values: Arc<[Value]>) -> BatchRow {
        let declared = self.shared.compiled.location_of_pred(pred);
        let location_index = declared.unwrap_or_else(|| {
            let location = &self.shared.locations[ix(id)];
            values.iter().position(|v| v == location)
        });
        BatchRow::base(values, id, location_index)
    }

    /// Schedules the withdrawal of one assertion of a base fact at `at`
    /// (simulated time).  Requires dynamics: the retraction is applied
    /// through the deletion ledger and cascades through everything the
    /// fact's derivations supported.
    pub fn retract_fact_at(
        &mut self,
        location: Value,
        tuple: Tuple,
        at: SimTime,
    ) -> Result<(), EngineError> {
        self.resolve(&location)?;
        self.known_pred(&tuple)?;
        self.shared.config.admit_retraction()?;
        let retract = ChurnEvent::Retract { location, tuple };
        self.queue.push_global(at, GlobalWork::Churn(retract));
        Ok(())
    }

    /// Routes a tuple to its destination node's delta queue (see
    /// [`WorkQueue::enqueue`]).
    fn enqueue_local(
        &mut self,
        at: SimTime,
        destination: NodeId,
        pred: PredId,
        row: BatchRow,
        polarity: Polarity,
    ) {
        let key = BatchKey::Local {
            destination,
            pred,
            polarity,
        };
        self.queue.enqueue(at, key, row);
    }

    /// Routes a head tuple bound for another node: appended to the open
    /// shipment frame, or sealed and shipped immediately when batching is
    /// off.
    fn buffer_ship(
        &mut self,
        at: SimTime,
        src: NodeId,
        dst: NodeId,
        pred: PredId,
        row: BatchRow,
        polarity: Polarity,
    ) {
        let key = BatchKey::Ship {
            src,
            dst,
            pred,
            polarity,
        };
        if let Some(frame) = self.queue.enqueue(at, key, row) {
            self.seal_and_ship_now(at, frame);
        }
    }

    /// Marks the run started and records the modeled pool's layout.
    fn begin_run(&mut self) {
        self.started = true;
        let workers = self.shared.config.workers;
        self.metrics.worker_threads = workers as u64;
        self.metrics.partitions = workers.min(self.nodes.len().max(1)) as u64;
    }

    /// Runs until no work items remain (the distributed fixpoint) and returns
    /// the run metrics.  On dynamics runs, a retraction wave that drains the
    /// queue is followed by the well-founded reconciliation sweep (recursive
    /// self-support cleanup); the fixpoint is reached when both the queue
    /// and the sweep are quiescent.
    pub fn run_to_fixpoint(&mut self) -> Result<RunMetrics, EngineError> {
        let started = Instant::now();
        self.begin_run();
        let mut last_at = SimTime::ZERO;
        loop {
            self.drain_queue(None, &mut last_at)?;
            if self.shared.config.dynamics && self.take_sweep_request() {
                self.well_founded_sweep(last_at);
                if !self.queue.is_empty() {
                    continue;
                }
            }
            break;
        }
        self.metrics.wall_clock = started.elapsed();
        let cpu_total: u64 = self.nodes.iter().map(|n| n.cpu_spent.as_micros()).sum();
        self.metrics.parallel_wall = Duration::from_micros(cpu_total - self.cpu_saved.as_micros());
        self.metrics.completion = self.completion;
        // The fixpoint footprint is itself a peak sample: runs without
        // scripted events report honest (final) peaks, churned runs keep
        // their mid-run high-water marks.
        let (store_bytes, index_bytes, tuples_stored) = self.sample_memory_peak();
        self.metrics.store_bytes = store_bytes;
        self.metrics.index_bytes = index_bytes;
        self.metrics.tuples_stored = tuples_stored;
        if let Some(rec) = self.recorder.as_mut() {
            rec.finish();
        }
        Ok(self.metrics.clone())
    }

    /// The flight recorder, when tracing was enabled via
    /// [`EngineConfig::with_tracing`].  Read it after a run for the event
    /// stream, the hot-rule profile, per-link frame lifecycles, and the
    /// Chrome/Perfetto export.
    pub fn trace(&self) -> Option<&TraceRecorder> {
        self.recorder.as_ref()
    }

    /// Record one engine-side trace event (no-op when tracing is off).
    fn trace_event(&mut self, at: SimTime, kind: TraceEventKind) {
        if let Some(rec) = self.recorder.as_mut() {
            rec.push(TraceEvent {
                at_us: at.as_micros(),
                kind,
            });
        }
    }

    /// Emit any due gauge samples before the queue head is processed.  All
    /// earlier work has fully drained by the time the head crosses a sample
    /// boundary, so the samples — and the queue/store state they observe —
    /// are deterministic.
    fn trace_sample_gauges(&mut self) {
        let Some(head_at) = self.queue.head_time() else {
            return;
        };
        while let Some(due) = self
            .recorder
            .as_ref()
            .and_then(|r| r.pending_gauge(head_at.as_micros()))
        {
            let gauge = TraceEventKind::Gauge {
                queue_depth: self.queue.len() as u64,
                inflight_frames: self.transport.inflight_frames(),
                store_bytes: self.store_bytes(),
                index_bytes: self.index_bytes(),
            };
            let rec = self
                .recorder
                .as_mut()
                .expect("pending gauge implies recorder");
            rec.flush_wave();
            rec.push(TraceEvent {
                at_us: due,
                kind: gauge,
            });
            rec.advance_gauge();
        }
    }

    /// Drains queued work in `(time, rank, seq)` order until the queue is
    /// empty or its head reaches `bound` — the streaming driver's exclusive
    /// cut.  Wave-safe work pops a whole same-instant wave at a time and
    /// evaluates it in seq order; retractions and engine-global work run
    /// one item at a time.  `last_at` tracks the latest instant processed (the
    /// well-founded sweep's reference point).  Open-batch boundary buckets
    /// are released as the clock passes them.
    ///
    /// The modeled pool (`EngineConfig::workers > 1`) is bookkeeping on this
    /// loop, never a second schedule: a wave's events are bucketed by their
    /// owner's partition, each bucket is charged the CPU its events added to
    /// their owners' lanes, and the wave banks everything but its busiest
    /// bucket as off the critical path.
    fn drain_queue(&mut self, bound: Bound, last_at: &mut SimTime) -> Result<(), EngineError> {
        let workers = self.shared.config.workers;
        // One `(CPU µs, events)` bucket per modeled partition, reset per
        // wave; none — and no accounting — at one worker.
        let mut buckets = vec![(0u64, 0u64); if workers > 1 { workers } else { 0 }];
        loop {
            if self.recorder.is_some() {
                self.trace_sample_gauges();
            }
            if let Some(wave) = self.queue.pop_wave(bound) {
                let wave_at = wave[0].0;
                *last_at = (*last_at).max(wave_at);
                self.queue.release_flushed(wave_at);
                buckets.fill((0, 0));
                for (at, _, work) in wave {
                    let owner = work.owner();
                    let cpu_before = self.nodes[ix(owner)].cpu_spent.as_micros();
                    self.eval_event(at, work)?;
                    if let Some((cpu, events)) = buckets.get_mut(partition_of(owner, workers)) {
                        *cpu += self.nodes[ix(owner)].cpu_spent.as_micros() - cpu_before;
                        *events += 1;
                    }
                }
                let wave_cpu: u64 = buckets.iter().map(|b| b.0).sum();
                let slowest = buckets.iter().map(|b| b.0).max().unwrap_or(0);
                self.cpu_saved += SimTime::from_micros(wave_cpu - slowest);
                let largest = buckets.iter().map(|b| b.1).max().unwrap_or(0);
                self.metrics.max_partition_queue = self.metrics.max_partition_queue.max(largest);
                continue;
            }
            let Some((at, work)) = self.queue.pop_next(bound) else {
                // Not at the streaming driver's per-event cuts: the checks
                // walk every node.
                if bound.is_none() {
                    debug_assert_eq!(self.check_ledger_consistency(), Ok(()));
                    debug_assert_eq!(self.check_speaker_consistency(), Ok(()));
                    debug_assert_eq!(self.check_link_consistency(), Ok(()));
                }
                return Ok(());
            };
            *last_at = (*last_at).max(at);
            self.queue.release_flushed(at);
            // Wave-unsafe work can never join a wave: close any open wave
            // span before its events interleave into the trace.
            if let Some(rec) = self.recorder.as_mut() {
                rec.flush_wave();
            }
            self.dispatch(at, work)?;
        }
    }

    /// Folds the current `(store bytes, index bytes, tuples)` footprint —
    /// and the ledgers' firing-log length — into the run's high-water marks
    /// and returns it.  Sampled ahead of scripted churn events
    /// (`process_churn`) and once at fixpoint.
    fn sample_memory_peak(&mut self) -> (u64, u64, u64) {
        let tuples = self.nodes.iter().map(|n| n.store.total_tuples() as u64);
        let (store, index, tuples) = (self.store_bytes(), self.index_bytes(), tuples.sum());
        let firings = self.nodes.iter().map(|n| n.ledger.firings.len() as u64);
        self.metrics.peak_store_bytes = self.metrics.peak_store_bytes.max(store);
        self.metrics.peak_index_bytes = self.metrics.peak_index_bytes.max(index);
        self.metrics.peak_tuples = self.metrics.peak_tuples.max(tuples);
        self.metrics.peak_ledger_firings = self.metrics.peak_ledger_firings.max(firings.sum());
        (store, index, tuples)
    }

    /// Runs one wave-unsafe work item — popped, or injected by the streaming
    /// driver — and then lets the ledgers it killed at forget
    /// (`reclaim_dead_state`): only wave-unsafe work removes rows or kills
    /// firings, and once the item is done no firing id is held.  Retraction
    /// batches and tombstone frames evaluate at their owning node like
    /// their assertion twins — just never inside a wave.
    fn dispatch(&mut self, at: SimTime, work: QueuedWork) -> Result<(), EngineError> {
        let done = match work {
            QueuedWork::Node(work) => self.eval_event(at, work),
            QueuedWork::Global(work) => self.run_global(at, work),
        };
        self.reclaim_dead_state();
        done
    }

    /// One engine-global work item.
    fn run_global(&mut self, at: SimTime, work: GlobalWork) -> Result<(), EngineError> {
        match work {
            GlobalWork::Churn(event) => return self.process_churn(at, event),
            GlobalWork::Evict { link, epochs } => self.process_eviction(at, link, epochs),
            GlobalWork::Expire { node } => self.process_expiry(at, node),
            GlobalWork::FrameArrival { link, seq } => {
                return self.process_frame_arrival(at, link, seq)
            }
            GlobalWork::Retransmit { link, seq } => self.process_retransmit(at, link, seq),
            GlobalWork::AckFrame { link } => self.process_ack(at, link),
        }
        Ok(())
    }

    /// The evaluation context for one event owned by `owner`: that node's
    /// runtime, the engine's variable table and metrics, and `log` to
    /// record into.
    fn ctx<'a>(&'a mut self, owner: NodeId, log: &'a mut EventLog) -> NodeCtx<'a> {
        NodeCtx {
            shared: &self.shared,
            id: owner,
            node: &mut self.nodes[ix(owner)],
            var_table: &mut self.var_table,
            metrics: &mut self.metrics,
            completion: &mut self.completion,
            effects: &mut log.effects,
            trace: &mut log.trace,
        }
    }

    /// Runs one event through an evaluation context at its owning node,
    /// then applies the effects it recorded, in emission order.
    fn eval_event(&mut self, at: SimTime, work: NodeWork) -> Result<(), EngineError> {
        let owner = work.owner();
        // Wave-span feed info.  `owner: None` (wave-unsafe work, e.g. a
        // retraction batch) closes the open span.
        let feed = (
            at.as_micros(),
            work.rank(),
            work.wave_safe().then_some(owner.0),
        );
        let mut log = std::mem::take(&mut self.event_log);
        let result = self.ctx(owner, &mut log).run(at, work);
        self.replay_event(Some(feed), &mut log);
        self.event_log = log;
        result
    }

    /// Charges `micros` of CPU to node `id`'s lane and folds the finish
    /// time into the run's completion.
    fn charge(&mut self, id: NodeId, at: SimTime, micros: u64) -> SimTime {
        let done = self.nodes[ix(id)].run_cpu(at, SimTime::from_micros(micros));
        self.completion = self.completion.max(done);
        done
    }

    /// Meters one message leaving `src`.  The engine accounts traffic, it
    /// does not queue it: delivery is the work queue's job, so nothing of a
    /// sent message stays resident here.
    fn account_send(&mut self, src: NodeId, wire_bytes: usize) {
        self.metrics.messages += 1;
        self.metrics.bytes += wire_bytes as u64;
        self.nodes[ix(src)].bytes_sent += wire_bytes as u64;
    }

    /// Replays one evaluated event against the engine-global state and
    /// leaves `log` empty: its wave-span `feed` `(instant µs, rank, owner)`
    /// and buffered trace events go to the recorder, then its effects apply
    /// — to the work queue (seq assignment), open-batch buffers, the
    /// traffic meter, scheduled expiries and retraction entry points.
    fn replay_event(&mut self, feed: Option<(u64, u8, Option<u32>)>, log: &mut EventLog) {
        if let Some(rec) = self.recorder.as_mut() {
            if let Some((at_us, rank, owner)) = feed {
                rec.feed_item(at_us, rank, owner, log.effects.len() as u32);
            }
            for event in log.trace.drain(..) {
                rec.push(event);
            }
        }
        for effect in log.effects.drain(..) {
            match effect {
                Effect::Local {
                    at,
                    destination,
                    pred,
                    row,
                    polarity,
                } => self.enqueue_local(at, destination, pred, row, polarity),
                Effect::Ship {
                    at,
                    src,
                    dst,
                    pred,
                    row,
                    polarity,
                } => self.buffer_ship(at, src, dst, pred, row, polarity),
                Effect::Queue { at, work } => self.queue_transport(at, work),
                Effect::NetSend { src, wire_bytes } => self.account_send(src, wire_bytes),
                Effect::Expiry { node, at } => self.schedule_expiry(node, at),
                Effect::Retract {
                    loc,
                    pred,
                    values,
                    tag,
                    speaker,
                    now,
                } => {
                    let removal = Removal::withdraw(loc, pred, values, "retracted");
                    self.retract_row(removal, Some((&tag, speaker)), now)
                }
            }
        }
    }

    /// Runs a churn scenario to its post-churn fixpoint: arms the dynamics
    /// machinery (deletion ledger, scheduled TTL expiry, FIFO links),
    /// schedules every scripted event through the discrete-event simulator
    /// as first-class work, and drives evaluation until queue and
    /// reconciliation sweep are both quiescent.
    ///
    /// Must be called before any evaluation has run (or on an engine built
    /// with [`EngineConfig::with_dynamics`]): the ledger has to observe
    /// every derivation event from time zero for deletion to be
    /// provenance-exact.
    pub fn run_scenario(&mut self, script: &ChurnScript) -> Result<RunMetrics, EngineError> {
        let config = &mut self.shared.config;
        config.arm_dynamics_for("run_scenario", self.started)?;
        for (at, event) in script.events() {
            let churn = GlobalWork::Churn(event.clone());
            self.queue.push_global(*at, churn);
        }
        self.run_to_fixpoint()
    }

    /// Runs a churn workload in streaming mode: events are pulled from the
    /// iterator one at a time (never materialised in the work queue), and
    /// the queue is drained to quiescence-before-the-event between
    /// consecutive events.
    ///
    /// The schedule — and therefore every counter, the sampled peak gauges
    /// included — is bit-identical to
    /// [`DistributedEngine::run_scenario`] on the same event sequence: a
    /// scenario's scripted events occupy the seq block right below any work
    /// created during the run, so injecting event `i` once the queue head
    /// reaches the cut `(eventᵢ time, rank 0, pre-run seq horizon)`
    /// dispatches it at exactly the position its queue item would have
    /// popped.  What changes is memory: the driver holds O(in-flight work)
    /// instead of O(script), which lets generational workloads whose
    /// soft-state TTLs retire old state mid-run keep a bounded footprint at
    /// 10k nodes — of the stores (`peak_store_bytes`) and of the deletion
    /// ledgers alike: a retired generation's firings are forgotten after
    /// the work item that killed them (`peak_ledger_firings` stays at the
    /// live generations' firings), and its emptied tables, support maps
    /// and expiry heaps hand their buffers back.
    ///
    /// Events must arrive in nondecreasing time order.  Like
    /// `run_scenario`, this must be the first evaluation on the engine
    /// unless dynamics were armed at construction.
    pub fn run_streaming<I>(&mut self, events: I) -> Result<RunMetrics, EngineError>
    where
        I: IntoIterator<Item = (SimTime, ChurnEvent)>,
    {
        let started = Instant::now();
        let config = &mut self.shared.config;
        config.arm_dynamics_for("run_streaming", self.started)?;
        self.begin_run();
        let horizon_seq = self.queue.next_seq();
        let mut last_at = SimTime::ZERO;
        let mut last_event = SimTime::ZERO;
        for (at, event) in events {
            if at < last_event {
                return Err(EngineError::Eval(format!(
                    "streaming events must be time-ordered: got {}µs after {}µs",
                    at.as_micros(),
                    last_event.as_micros()
                )));
            }
            last_event = at;
            self.drain_queue(Some((at, horizon_seq)), &mut last_at)?;
            self.queue.release_flushed(at);
            last_at = last_at.max(at);
            self.dispatch(at, QueuedWork::Global(GlobalWork::Churn(event)))?;
        }
        let mut metrics = self.run_to_fixpoint()?;
        self.metrics.wall_clock = started.elapsed();
        metrics.wall_clock = self.metrics.wall_clock;
        Ok(metrics)
    }

    /// Bytes of tuple data currently stored across all nodes (rows charged
    /// once plus one seq per slot — encoding-level accounting, not heap;
    /// see `NodeStore::store_bytes`).
    pub fn store_bytes(&self) -> u64 {
        self.nodes
            .iter()
            .map(|n| n.store.store_bytes() as u64)
            .sum()
    }

    /// Bytes of secondary-index overhead currently held across all nodes
    /// (distinct index keys plus one seq per indexed row — encoding-level
    /// accounting, not heap; see `NodeStore::index_bytes`).
    pub fn index_bytes(&self) -> u64 {
        self.nodes
            .iter()
            .map(|n| n.store.index_bytes() as u64)
            .sum()
    }

    /// Rows stored at `location` now, over every relation (0 outside the
    /// deployment): one node's term of `RunMetrics::tuples_stored`.
    pub fn tuples_at(&self, location: &Value) -> usize {
        self.node_at(location).map_or(0, |n| n.store.total_tuples())
    }

    /// Metrics collected so far.
    pub fn metrics(&self) -> &RunMetrics {
        &self.metrics
    }

    /// All tuples of `predicate` stored at `location`, in insertion order —
    /// deterministic, so tests compare evaluation modes on it directly.
    ///
    /// Each returned [`Tuple`] shares the stored row and the interned name,
    /// and the result is sized from the relation's live row count: a query
    /// allocates its `Vec` and nothing else, and an empty one nothing.
    pub fn query(&self, location: &Value, predicate: &str) -> Vec<(Tuple, TupleMeta)> {
        let Some(store) = self.node_at(location).map(|n| &n.store) else {
            return Vec::new();
        };
        let Some(pred) = store.pred_id(predicate) else {
            return Vec::new();
        };
        let rows = store.live_rows(pred);
        if rows == 0 {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(rows);
        out.extend(store.tuples(pred));
        out
    }

    /// All tuples of `predicate` across every node, with their storage
    /// location: the predicate is resolved once and the rows fill one
    /// pre-sized `Vec`, shared as [`DistributedEngine::query`] shares them.
    pub fn query_all(&self, predicate: &str) -> Vec<(Value, Tuple, TupleMeta)> {
        let Some(pred) = self.shared.symbols.resolve(predicate) else {
            return Vec::new();
        };
        let stores = || self.shared.locations.iter().zip(&self.nodes);
        let total = stores().map(|(_, n)| n.store.live_rows(pred)).sum();
        let mut out = Vec::with_capacity(total);
        for (loc, node) in stores() {
            let rows = node.store.tuples(pred);
            out.extend(rows.map(|(tuple, meta)| (loc.clone(), tuple, meta)));
        }
        out
    }

    /// The provenance store of `location`, in either graph mode: under
    /// [`GraphMode::Local`](crate::GraphMode::Local) it is locally
    /// complete, so its own view ([`DistributedStore::render_tree`],
    /// [`DistributedStore::why_provenance`]) answers; under
    /// [`GraphMode::Distributed`](crate::GraphMode::Distributed) its
    /// records point at other nodes' ([`DistributedEngine::traceback`]).
    pub fn provenance_store(&self, location: &Value) -> Option<&DistributedStore> {
        self.node_at(location).map(|n| &n.prov)
    }

    /// The per-node distributed provenance stores, keyed by location name:
    /// a snapshot for callers that own the traversal (they feed it to
    /// [`pasn_provenance::traceback`] or walk the stores themselves).  A
    /// query of this deployment needs none — see
    /// [`DistributedEngine::traceback`].
    pub fn distributed_stores(&self) -> HashMap<String, &DistributedStore> {
        let nodes = self.shared.names.iter().zip(&self.nodes);
        nodes.map(|(name, n)| (name.to_string(), &n.prov)).collect()
    }

    /// The distributed provenance store of the node named `name`: the
    /// resolver the provenance queries follow pointer records through.
    fn store_named(&self, name: &str) -> Option<&DistributedStore> {
        let id = *self.shared.name_ids.get(&ProvKey::from_rendered(name))?;
        (*self.shared.names[ix(id)] == *name).then(|| &self.nodes[ix(id)].prov)
    }

    /// The name the provenance stores know `location` by: the name table's
    /// for a deployed location, rendered for any other value.
    fn name_of(&self, location: &Value) -> Cow<'_, str> {
        match self.shared.directory.get(location) {
            Some(&id) => Cow::Borrowed(&*self.shared.names[ix(id)]),
            None => Cow::Owned(location.to_string()),
        }
    }

    /// Distributed traceback of `key` from `location` over this
    /// deployment's pointer records ([`pasn_provenance::traceback_with`]):
    /// nodes are resolved through the name directory built at construction,
    /// so a query snapshots nothing.
    pub fn traceback(&self, location: &Value, key: &str) -> TracebackResult {
        traceback_with(|name| self.store_named(name), &self.name_of(location), key)
    }

    /// Random-moonwalk sampling of `key`'s provenance from `location`
    /// ([`pasn_provenance::moonwalk_with`]), resolved like
    /// [`DistributedEngine::traceback`].
    pub fn moonwalk(&self, location: &Value, key: &str, config: &MoonwalkConfig) -> MoonwalkResult {
        let start = self.name_of(location);
        moonwalk_with(|name| self.store_named(name), &start, key, config)
    }

    /// The offline provenance archive of `location`.
    pub fn archive(&self, location: &Value) -> Option<&ArchiveStore> {
        self.node_at(location).map(|n| &n.archive)
    }

    /// Bytes sent by each node so far, keyed by location — the raw material
    /// for per-principal accountability reports (the PlanetFlow use case of
    /// Section 3).
    pub fn bytes_sent_per_node(&self) -> HashMap<Value, u64> {
        let nodes = self.shared.locations.iter().zip(&self.nodes);
        nodes.map(|(loc, n)| (loc.clone(), n.bytes_sent)).collect()
    }

    /// Renders the condensed / semiring provenance annotation of an exact
    /// tuple stored at `location`.
    pub fn render_provenance(&self, location: &Value, tuple: &Tuple) -> Option<String> {
        let store = &self.node_at(location)?.store;
        let meta = store.meta_of(store.pred_id(&tuple.predicate)?, &tuple.values)?;
        Some(meta.tag.render(&self.var_table))
    }

    /// Expires soft-state tuples older than `now` on every node and settles
    /// their provenance as scheduled expiry does (a `Local` node forgets
    /// them, an offline archive stamps them `expired`); returns the number
    /// of tuples dropped.
    pub fn expire_all(&mut self, now: SimTime) -> usize {
        let mut dropped = 0;
        for id in node_ids(self.nodes.len()) {
            let expired = self.nodes[ix(id)].store.take_expired(now);
            dropped += expired.len();
            for (pred, _, values, meta) in expired {
                let location = self.shared.compiled.location_of_pred(pred).flatten();
                let row = (pred, &*values, location);
                self.forget_provenance(id, row, "expired", meta.created_at, now);
            }
        }
        dropped
    }

    /// Reactive maintenance: materialises all deferred provenance records
    /// into the per-node pointer / archive stores.  Returns how many
    /// records were materialised.
    pub fn materialize_provenance(&mut self) -> usize {
        let mut total = 0;
        for (id, node) in node_ids(self.nodes.len()).zip(&mut self.nodes) {
            let deferred = std::mem::take(&mut node.deferred);
            total += deferred.len();
            for record in &deferred {
                record_provenance(&self.shared, id, node, record);
            }
        }
        total
    }
}
