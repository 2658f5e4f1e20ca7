//! # pasn-overlay
//!
//! Secure overlay networks on the *Provenance-aware Secure Networks* stack
//! (Zhou, Cronin, Loo — ICDE 2008).
//!
//! The paper closes with the systems its authors planned to specify on top
//! of the provenance-aware SeNDlog stack: *"we are in the process of
//! evaluating a variety of secure networks specified and implemented by
//! using SeNDlog (e.g. secure Chord routing, DNSSEC)"*.  This crate holds
//! those two overlays, at two stages of being done the paper's way:
//!
//! * [`dns`] — DNSSEC **on the engine**: the protocol is the six SeNDlog
//!   rules of `pasn::programs::DNSSEC`, and the module is only a zone-tree
//!   builder that emits locations and base facts (`anchor`, `dnskey`, `ds`,
//!   `rr`), typed views over the fixpoint (`resolve` reads a `resolved`
//!   tuple and its chain off the condensed tag) and attack / rollover
//!   helpers that are facts and churn events.  Signing, verification,
//!   session channels, batching, provenance, deletion and tracing are the
//!   engine's, configured by an ordinary `EngineConfig`;
//! * [`chord`] — a Chord distributed hash table with finger-table routing,
//!   still imperative Rust over `pasn-crypto`'s `says` and
//!   `pasn-provenance`'s graphs (every lookup hop is asserted by the
//!   forwarding node and recorded as a derivation); its port to the engine
//!   needs ring built-ins and put/get/replication (ROADMAP item 3);
//! * [`id`] — the consistent-hashing identifier space Chord uses
//!   (SHA-256-derived identifiers on a 2^m ring, interval and finger
//!   arithmetic).
//!
//! ## Example
//!
//! ```
//! use pasn_overlay::chord::{ChordConfig, ChordRing};
//! use pasn_crypto::SaysLevel;
//!
//! let ring = ChordRing::build(ChordConfig {
//!     nodes: 8,
//!     bits: 16,
//!     says_level: SaysLevel::Hmac,
//!     modulus_bits: 512,
//!     seed: 7,
//!     successor_list_len: 2,
//! })
//! .unwrap();
//!
//! let origin = ring.node_ids()[0];
//! let key = ring.space().key_id("alice.txt");
//! let trace = ring.lookup(origin, key).unwrap();
//! assert_eq!(trace.owner, ring.successor_of(key));
//! assert!(ring.verify_lookup(&trace).is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chord;
pub mod dns;
pub mod id;

pub use chord::{ChordConfig, ChordError, ChordNode, ChordRing, LookupHop, LookupTrace};
pub use dns::{DnsDeployment, DnsError, Resolution, ZoneTree};
pub use id::{ChordId, IdSpace};
