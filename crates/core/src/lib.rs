//! # pasn — Provenance-aware Secure Networks
//!
//! A from-scratch Rust reproduction of *Provenance-aware Secure Networks*
//! (Wenchao Zhou, Eric Cronin, Boon Thau Loo — ICDE Workshops 2008).
//!
//! The paper argues that network accountability and forensic analysis can be
//! posed as **data provenance computations over distributed streams**, using
//! declarative networks (NDlog) with security extensions (SeNDlog's `says`
//! operator) as the unified substrate.  This crate is the public facade over
//! the full reproduction:
//!
//! * [`programs`] — the paper's declarative programs (reachability in NDlog
//!   and SeNDlog form, the Best-Path evaluation query, a route monitor);
//! * [`network`] — [`SecureNetwork`], a builder tying a topology, a program
//!   and an [`pasn_engine::EngineConfig`] into a runnable deployment;
//! * [`workload`] — topology → base-fact generators and the evaluation
//!   workload (N nodes, average out-degree three);
//! * [`experiment`] — the harness regenerating Figures 3 and 4 and the
//!   Section 6 summary statistics;
//! * [`trust`] — trust-management policies over condensed / quantifiable
//!   provenance (trusted principal sets, minimum trust levels, K-of-N votes);
//! * [`diagnostics`] — online-provenance diagnosis of the routing entries
//!   the route monitor's windowed `alarm` rows name;
//! * [`forensics`] — offline provenance archives and distributed traceback;
//! * [`accountability`] — per-principal usage audits (the PlanetFlow
//!   analogue);
//! * [`billing`] — "diverse billing" (the introduction's fourth use case):
//!   rate plans applied to the accountability report;
//! * [`baseline`] — the imperative Bellman–Ford oracle and path loop check
//!   the tests hold the declarative routing programs against.
//!
//! ## Quickstart
//!
//! ```
//! use pasn::prelude::*;
//!
//! // The paper's three-node example network (Figure 1) running the
//! // reachability query with condensed, authenticated provenance.
//! let mut net = SecureNetwork::builder()
//!     .program(pasn::programs::reachability_ndlog())
//!     .topology(Topology::paper_figure1())
//!     .config(EngineConfig::sendlog_prov().with_cost_model(CostModel::zero_cpu()))
//!     .build()
//!     .unwrap();
//! let metrics = net.run().unwrap();
//! assert!(metrics.messages > 0);
//!
//! // reachable(a, c) was derived both directly and via b; its condensed
//! // provenance collapses to just principal a (the paper's `<a>`).
//! let tuple = Tuple::new("reachable", vec![Value::Addr(0), Value::Addr(2)]);
//! assert_eq!(net.render_provenance(&Value::Addr(0), &tuple).unwrap(), "<p0>");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accountability;
pub mod baseline;
pub mod billing;
pub mod diagnostics;
pub mod experiment;
pub mod forensics;
pub mod network;
pub mod programs;
pub mod trust;
pub mod workload;

pub use accountability::AccountabilityReport;
pub use billing::{BillingRun, Invoice, RatePlan, Tier};
pub use diagnostics::{diagnose, Diagnosis};
pub use experiment::{
    render_figure, render_summary, run_sweep, summarize, ExperimentPoint, FigureMetric, Summary,
    SweepConfig,
};
pub use forensics::{archived_activity, investigate, ForensicReport};
pub use network::{NetworkError, SecureNetwork, SecureNetworkBuilder};
pub use trust::{TrustDecision, TrustEvaluator, TrustPolicy};

/// Commonly used items across the workspace, re-exported for convenience.
pub mod prelude {
    pub use crate::network::{SecureNetwork, SecureNetworkBuilder};
    pub use crate::trust::{TrustDecision, TrustEvaluator, TrustPolicy};
    pub use pasn_datalog::Value;
    pub use pasn_engine::{
        ChurnEvent, ChurnScript, EngineConfig, GraphMode, RunMetrics, SystemVariant, TraceConfig,
        TraceEvent, TraceEventKind, TraceRecorder, Tuple,
    };
    pub use pasn_net::{CostModel, FaultEvent, FaultPlan, NodeId, SimTime, Topology};
    pub use pasn_provenance::{ProvTag, ProvenanceKind};
}
