//! # pasn-provenance
//!
//! Network provenance for the *Provenance-aware Secure Networks*
//! reproduction (Zhou, Cronin, Loo — ICDE 2008).
//!
//! The paper's central claim is that network accountability and forensics
//! can be posed as data-provenance computations over distributed streams,
//! and it organises provenance along several axes (Section 4).  This crate
//! implements every axis:
//!
//! | paper § | axis | module |
//! |---|---|---|
//! | 4.1 | local vs distributed storage | [`store::DistributedStore`] pointer records in both modes: [`store::traceback_with`] across nodes, or a Local node's merged [`store::DistributedStore::bundle`]s and its own view ([`store::DistributedStore::render_tree`]) |
//! | 4.2 | online vs offline | [`store::DistributedStore::forget`], [`store::ArchiveStore`] |
//! | 4.3 | authenticated provenance | per-frame `says` proofs ([`pasn_crypto::says`]); the principal variables of condensed tags ([`tag::VarTable::principal_of`]), e.g. the DNSSEC chain read off a tag |
//! | 4.4 | condensed provenance (semirings + BDDs) | [`tag::ProvTag::Condensed`], [`tag::VarTable`] |
//! | 4.5 | quantifiable provenance (trust levels, counts, votes) | [`semiring::TrustLevel`], [`semiring::DerivationCount`], [`semiring::VoteSet`] |
//! | 5 | proactive/reactive, sampling, granularity | [`policy`] |
//! | 5 | sampled distributed queries (random moonwalks) | [`moonwalk`] |
//!
//! The engine (`pasn-engine`) calls into [`tag::ProvTag`] on every rule
//! firing and into [`store::DistributedStore`] when graph-shaped provenance
//! is enabled; the facade crate (`pasn`) exposes trust-management, diagnostics,
//! forensics and accountability APIs on top.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod key;
pub mod moonwalk;
pub mod policy;
pub mod semiring;
pub mod store;
pub mod tag;

pub use key::ProvKey;
pub use moonwalk::{moonwalk_with, MoonwalkConfig, MoonwalkResult, Walk};
pub use policy::{Granularity, MaintenanceMode, SamplingPolicy};
pub use semiring::{BaseTupleId, DerivationCount, Semiring, TrustLevel, VoteSet, WhyProvenance};
pub use store::{
    traceback, traceback_with, AntecedentRef, ArchiveStore, ArchivedEntry, DistributedStore,
    PointerDerivation, TracebackResult,
};
pub use tag::{ProvTag, ProvenanceKind, VarTable, CONDENSE_WITNESS_THRESHOLD};
