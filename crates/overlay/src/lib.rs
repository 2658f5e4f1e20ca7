//! # pasn-overlay
//!
//! Secure overlay networks on the *Provenance-aware Secure Networks* stack
//! (Zhou, Cronin, Loo — ICDE 2008).
//!
//! The paper closes with the systems its authors planned to specify on top
//! of the provenance-aware SeNDlog stack: *"we are in the process of
//! evaluating a variety of secure networks specified and implemented by
//! using SeNDlog (e.g. secure Chord routing, DNSSEC)"*.  This crate holds
//! those two overlays, both done the paper's way: the protocol is a SeNDlog
//! program in `pasn::programs`, and the module around it is a builder that
//! emits locations and base facts, typed views over the fixpoint, and
//! membership change / attacks / rollovers as facts and churn events
//! ([`insert`], [`retract`]).  Signing, verification, session channels,
//! batching, provenance, deletion and tracing are the engine's, configured by
//! an ordinary `EngineConfig`; nothing here signs, verifies or builds a
//! derivation graph by hand.
//!
//! * [`dns`] — DNSSEC, the six rules of `pasn::programs::DNSSEC`: a zone-tree
//!   builder (`anchor`, `dnskey`, `ds`, `rr`) and `resolve`, which reads a
//!   `resolved` tuple and its chain of trust off the condensed tag;
//! * [`chord`] — secure Chord routing, the seven rules of
//!   `pasn::programs::CHORD`: a ring builder (`node`, `succ`, `finger` facts
//!   of the stabilised ring; leave / rejoin as the churn events that
//!   re-stabilise it), `get` / `put` requests, and views that read an `owner`
//!   tuple's lookup path and a `value` tuple's inserter off their tags;
//! * [`id`] — the consistent-hashing identifier space Chord uses
//!   (SHA-256-derived identifiers on a 2^m ring).
//!
//! ## Example
//!
//! ```
//! use pasn::prelude::{EngineConfig, ProvenanceKind};
//! use pasn_overlay::chord::{get, ChordConfig, Ring};
//!
//! let ring = Ring::build(ChordConfig { nodes: 8, bits: 16 }).unwrap();
//! let key = ring.space().key_id("alice.txt");
//! // Per-frame HMAC `says`, condensed tags: the engine's knobs, not the ring's.
//! let config = EngineConfig::ndlog()
//!     .with_says(pasn_crypto::SaysLevel::Hmac)
//!     .with_provenance(ProvenanceKind::Condensed);
//! let mut dht = ring.deploy(config).unwrap();
//! dht.request(get(3, key)).unwrap();
//! let metrics = dht.net.engine_mut().run_to_fixpoint().unwrap();
//!
//! let [lookup] = &dht.lookups(3, key)[..] else { panic!("one answer") };
//! assert_eq!(lookup.owner, ring.successor_of(key));
//! assert!(lookup.path.contains(&3)); // the requester forwarded first
//! assert_eq!(metrics.verifications, metrics.frames);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chord;
pub mod dns;
pub mod id;

pub use chord::{ChordConfig, ChordDeployment, ChordError, Fetched, Lookup, Ring};
pub use dns::{DnsDeployment, DnsError, Resolution, ZoneTree};
pub use id::IdSpace;

use pasn::prelude::{ChurnEvent, Tuple, Value};

/// Asserting a fact, as a scripted churn event.
pub fn insert((location, tuple): (Value, Tuple)) -> ChurnEvent {
    ChurnEvent::Insert { location, tuple }
}

/// Withdrawing a fact, as a scripted churn event: with [`insert`], a rollover
/// or a re-stabilisation.
pub fn retract((location, tuple): (Value, Tuple)) -> ChurnEvent {
    ChurnEvent::Retract { location, tuple }
}
