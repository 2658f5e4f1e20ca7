//! # pasn-crypto
//!
//! Cryptographic substrate for the *Provenance-aware Secure Networks*
//! reproduction (Zhou, Cronin, Loo — ICDE 2008).
//!
//! The paper's prototype extends the P2 declarative networking system with
//! *authenticated communication*: every tuple exported from one principal's
//! context to another is signed (the `says` construct of SeNDlog), using RSA
//! signatures via OpenSSL in the original evaluation.  This crate provides a
//! from-scratch replacement for that stack so the reproduction has no
//! external cryptographic dependencies:
//!
//! * [`sha256`](mod@sha256) — SHA-256 (FIPS 180-4), the message digest under both MACs
//!   and signatures;
//! * [`hmac`] — HMAC-SHA-256, the "benign world" middle ground for `says`;
//! * [`bigint`] — arbitrary-precision arithmetic with Montgomery modular
//!   exponentiation, the engine under RSA;
//! * [`prime`] — Miller–Rabin primality testing and prime generation;
//! * [`rsa`] — textbook RSA-PKCS#1-v1.5 signatures over SHA-256;
//! * [`principal`] — security principals, key material, and the
//!   simulation-wide key authority;
//! * [`says`] — the SeNDlog `says` construct at four strength levels
//!   (cleartext header, HMAC, session channel, RSA) with per-level
//!   wire-overhead accounting;
//! * [`channel`] — session-keyed authenticated channels: one RSA-signed
//!   key-establishment handshake per directed link, then HMAC'd frames with
//!   a monotonic replay counter — the amortisation behind
//!   [`says::SaysLevel::Session`].
//!
//! Everything here is deterministic given a seed, which keeps the
//! experiments in `pasn-bench` reproducible run to run.
//!
//! ## Quick example
//!
//! ```
//! use pasn_crypto::principal::{KeyAuthority, Principal, PrincipalId};
//! use pasn_crypto::says::{Authenticator, SaysLevel};
//!
//! let principals = vec![Principal::new(0u32, "a"), Principal::new(1u32, "b")];
//! let authority = KeyAuthority::provision_with_modulus(&principals, 42, 512).unwrap();
//!
//! let alice = Authenticator::new(authority.keyring_for(PrincipalId(0)).unwrap(), SaysLevel::Rsa);
//! let bob = Authenticator::new(authority.keyring_for(PrincipalId(1)).unwrap(), SaysLevel::Rsa);
//!
//! // "a says reachable(a,c)"
//! let assertion = alice.assert_frame(&[b"reachable(a,c)"]);
//! assert!(bob.verify_frame(&[b"reachable(a,c)"], &assertion).is_ok());
//! assert!(bob.verify_frame(&[b"reachable(a,d)"], &assertion).is_err());
//! ```

// Unsafe is denied crate-wide with one documented exception: the
// runtime-gated SHA-256 hardware kernel (`sha256::x86`), which cannot call
// `core::arch` intrinsics from safe code.  Every other module is unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod bigint;
pub mod channel;
pub mod hmac;
pub mod prime;
pub mod principal;
pub mod rsa;
pub mod says;
pub mod sha256;

pub use bigint::BigUint;
pub use channel::{ChannelHandshake, ChannelProof, ReceiverChannel, SenderChannel};
pub use principal::{KeyAuthority, Keyring, Principal, PrincipalId};
pub use rsa::{RsaKeyPair, RsaPublicKey};
pub use says::{Authenticator, SaysAssertion, SaysError, SaysLevel, SaysProof};
pub use sha256::sha256;
