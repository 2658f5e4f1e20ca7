//! # pasn-engine
//!
//! The distributed NDlog / SeNDlog evaluator of the *Provenance-aware Secure
//! Networks* reproduction (Zhou, Cronin, Loo — ICDE 2008), standing in for
//! the modified P2 declarative networking system used by the paper's
//! evaluation.
//!
//! Each simulated node runs a semi-naive Datalog evaluator over soft-state
//! relations; rules whose head lives at a different node ship their derived
//! tuples through the deterministic transport of `pasn-net`, optionally
//! signed with the deriving principal's `says` mechanism (`pasn-crypto`) and
//! annotated with provenance (`pasn-provenance`).
//!
//! * [`tuple`](mod@tuple) — materialised tuples and their canonical wire encoding;
//! * `eval` — expression evaluation, unification and the `f_*` built-ins;
//! * [`store`] — per-node soft-state relation storage;
//! * [`hash`] — the one deterministic hasher behind every engine-internal map;
//! * [`config`] — experiment configuration, including the NDLog / SeNDLog /
//!   SeNDLogProv presets of the paper's evaluation;
//! * [`metrics`] — completion time, bandwidth, and per-mechanism counters;
//! * [`dynamics`] — scripted churn ([`dynamics::ChurnScript`]) and the
//!   deletion ledger behind provenance-guided incremental deletion;
//! * [`runtime`] — the [`runtime::DistributedEngine`] driving everything to
//!   the distributed fixpoint.
//!
//! ## Semantics notes
//!
//! * Set semantics: a tuple derived again through a different derivation does
//!   not re-trigger rule evaluation; its provenance tag is merged with the
//!   semiring `+` instead.  This keeps evaluation terminating for recursive
//!   programs while still accumulating complete condensed provenance.
//! * Aggregates (`a_MIN`, `a_MAX`, `a_COUNT`, `a_SUM`) without dynamics
//!   follow P2's pipelined semantics: each group keeps a running value, an
//!   improved best or a grown total is emitted as a new tuple and
//!   propagates incrementally, and nothing is withdrawn (ROADMAP item 7
//!   deletes this mode).
//! * Derivation records (`EngineConfig::graph_mode`) are pointer records in
//!   both graph modes, written by one writer and labelled `rule@node`: a
//!   `Distributed` node points at the node each antecedent came from, a
//!   `Local` node merges the bundle each shipped tuple carries and forgets
//!   a tuple that dies, so [`runtime::DistributedEngine::traceback`] answers
//!   either deployment (from a `Local` node without a remote hop).
//! * Provenance-guided deletion (`EngineConfig::dynamics`, or a
//!   [`runtime::DistributedEngine::run_scenario`] call) withdraws exactly
//!   the derivation events an insertion added: each stored tuple counts its
//!   supports, a retraction consumes one, and an unsupported tuple is
//!   removed with its recorded firings replayed as deletions (signed
//!   tombstone frames across nodes).  Cyclic self-support left behind by
//!   recursive rules is garbage-collected by a well-founded reconciliation
//!   sweep when a retraction wave drains.  The ledger keeps a log *suffix*,
//!   not a history: a node none of whose firings is alive any more drops
//!   its log between work items (see [`dynamics`]), so a dead generation
//!   leaves nothing behind.
//!   Under dynamics every aggregate elects: a group keeps the multiset of
//!   its live candidates and stores one row, valued at the multiset's
//!   least or greatest value, size or sum (`AggFunc::value_of`); an arrival
//!   or a death that moves the value withdraws the old row and emits the
//!   new one, and an emptied group emits nothing.  So retracting the
//!   current best re-elects the next-best survivor, and a count over facts
//!   that each live `T` is a count over a sliding window.  An
//!   `a_MIN`/`a_MAX` row carries its winner's tag, an `a_COUNT`/`a_SUM`
//!   row the product of every live candidate's.
//!   A row said by several principals unifies `W says p(…)` with the one it
//!   first arrived under; when that speaker's last contribution is withdrawn
//!   and a rule reads the predicate through `says`, the row dies with its
//!   cascade and the surviving contributions are said again, each under its
//!   own speaker (`DistributedEngine::check_speaker_consistency` is the
//!   quiescent-cut invariant).  While both speakers stand, one firing
//!   happens, for whichever arrived first.
//! * Schedule-shaped quantities.  The fixpoint's *rows* are a function of the
//!   facts; three things follow the order in which derivations arrive.  A
//!   semiring tag is a snapshot taken when a rule fires: a later duplicate
//!   derivation merges into the stored row (first note above) without firing
//!   anything again, so a downstream tag can under-approximate the stored
//!   one — also after a withdrawal, when the duplicate landed before the
//!   tombstone.  Aggregates emit every intermediate value (under dynamics,
//!   withdrawing each as its successor is emitted).  And an
//!   aggregate head that is *shipped* forwards every intermediate best: each
//!   improvement is a tuple sent to the head's node, where it derives on —
//!   routing by `a_MAX` over ring distance cost 21,927 derivations for 80
//!   Chord lookups and left 17 answers for one request, which is why
//!   `pasn::programs::CHORD` forwards with a range filter instead.
//! * Batched evaluation (`EngineConfig::batch_window_us > 0`) keeps joins
//!   exactly tuple-at-a-time-visible via per-row insertion seqs, so monotone
//!   rules derive identically under any batch split; intermediate aggregate
//!   emissions and semiring-tag snapshots follow the coarser
//!   batch interleaving while converging to the same fixpoint.  With
//!   `batch_window_us = 0` (the default) evaluation is per-tuple, bit for
//!   bit.
//!
//! ## Map iteration order
//!
//! Every map inside the engine hashes with the fixed, unseeded
//! [`hash::FastHasher`], so iteration order is the same on every run — a
//! dependence on it would not show up as flakiness, it would be silently
//! pinned.  The rule is therefore structural: state that reaches a counter,
//! a frame, a trace event or a query result is read by key, by seq or from
//! an ordered container; the few places that walk a map either sort what
//! they collected (the well-founded sweep's seeds and victims, a failing
//! node's base rows) or fold it with an order-free operator (gauge sums).
//! Maps handed *out* of the engine (`distributed_stores`,
//! `bytes_sent_per_node`) are std maps read by key.  `distributed_stores` is
//! a snapshot for callers that own the traversal; the deployment's own
//! provenance queries ([`runtime::DistributedEngine::traceback`] and
//! `moonwalk`) resolve nodes through the name directory built at
//! construction and hand out no map at all.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod dynamics;
pub(crate) mod eval;
pub mod hash;
pub mod metrics;
pub mod runtime;
pub mod store;
pub mod tuple;

pub use config::{EngineConfig, GraphMode, SystemVariant, DEFAULT_RETRY_BUDGET};
pub use dynamics::{ChurnEvent, ChurnScript};
pub use metrics::{Counter, RunMetrics, Scope};
pub use pasn_trace::{
    LinkLifecycle, RuleProfile, TraceConfig, TraceEvent, TraceEventKind, TraceQuery, TraceRecorder,
};
pub use runtime::{DistributedEngine, EngineError};
pub use store::{InsertOutcome, NodeStore, TupleMeta};
pub use tuple::{Tuple, Values};
