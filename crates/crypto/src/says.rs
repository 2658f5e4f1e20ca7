//! The `says` authentication construct of SeNDlog.
//!
//! Section 2.2 of the paper: *"The says construct is an abstraction for the
//! details of authentication. [...] In a hostile world, says may require
//! digital signatures, while in a more benign world, says may simply append a
//! cleartext principal header to a message — and this will of course be
//! cheaper. The policy writer could additionally provide hints along with
//! rules, indicating that some says are more important than others, e.g. by
//! supporting multiple says operators with different security levels."*
//!
//! [`SaysLevel`] captures exactly that spectrum; [`Authenticator`] produces
//! and checks [`SaysProof`]s for a principal's exported tuples, and reports
//! the wire overhead each level adds so the bandwidth accounting matches the
//! chosen mechanism.

use crate::channel::{
    derive_session_key, ChannelHandshake, ChannelProof, HandshakeTranscript, ReceiverChannel,
    SenderChannel, CHANNEL_PROOF_LEN,
};
use crate::hmac::{constant_time_eq, HmacKey, TAG_LEN};
use crate::principal::{Keyring, PrincipalId};
use crate::sha256::{Digest, Sha256};

/// Strength of the mechanism realising `says`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord, Default)]
pub enum SaysLevel {
    /// A cleartext principal header: no cryptographic protection, no
    /// per-tuple CPU cost, 0 extra proof bytes.  (The "benign world" option.)
    #[default]
    Cleartext,
    /// HMAC-SHA-256 with a shared secret: integrity between principals that
    /// share keys, one hash per tuple, 32 proof bytes.
    Hmac,
    /// A session-keyed authenticated channel (see [`crate::channel`]): each
    /// directed link is bootstrapped once by an RSA-signed key-establishment
    /// handshake, then every frame is HMAC'd under the session key with a
    /// monotonic replay counter.  RSA-rooted channel authentication at
    /// near-HMAC steady-state cost — but, unlike per-frame [`SaysLevel::Rsa`]
    /// signatures, individual frames are not non-repudiable, so the level
    /// sits strictly below `Rsa`.
    Session,
    /// RSA signature over SHA-256: full non-repudiable authentication as in
    /// the paper's evaluation, one private-key exponentiation per exported
    /// tuple, `modulus_len` proof bytes.
    Rsa,
}

impl SaysLevel {
    /// All levels, weakest first.
    pub const ALL: [SaysLevel; 4] = [
        SaysLevel::Cleartext,
        SaysLevel::Hmac,
        SaysLevel::Session,
        SaysLevel::Rsa,
    ];

    /// Human-readable name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            SaysLevel::Cleartext => "cleartext",
            SaysLevel::Hmac => "hmac-sha256",
            SaysLevel::Session => "session-channel",
            SaysLevel::Rsa => "rsa-sha256",
        }
    }
}

/// Proof attached to a `P says fact` assertion.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SaysProof {
    /// No proof beyond the claimed principal id.
    Cleartext,
    /// HMAC tag under the asserting principal's MAC secret.
    Hmac([u8; TAG_LEN]),
    /// Per-frame MAC on an established session channel (epoch, monotonic
    /// counter, HMAC tag under the channel's session key).
    Session(ChannelProof),
    /// RSA signature by the asserting principal.
    Rsa(Vec<u8>),
}

impl SaysProof {
    /// Number of bytes this proof adds to a message on the wire.
    pub fn wire_len(&self) -> usize {
        match self {
            SaysProof::Cleartext => 0,
            SaysProof::Hmac(_) => TAG_LEN,
            SaysProof::Session(_) => CHANNEL_PROOF_LEN,
            SaysProof::Rsa(sig) => sig.len(),
        }
    }

    /// The level that produced this proof.
    pub fn level(&self) -> SaysLevel {
        match self {
            SaysProof::Cleartext => SaysLevel::Cleartext,
            SaysProof::Hmac(_) => SaysLevel::Hmac,
            SaysProof::Session(_) => SaysLevel::Session,
            SaysProof::Rsa(_) => SaysLevel::Rsa,
        }
    }

    /// Serialises the proof for the wire (tag byte + payload).
    pub fn to_bytes(&self) -> Vec<u8> {
        match self {
            SaysProof::Cleartext => vec![0u8],
            SaysProof::Hmac(tag) => {
                let mut v = Vec::with_capacity(1 + TAG_LEN);
                v.push(1u8);
                v.extend_from_slice(tag);
                v
            }
            SaysProof::Rsa(sig) => {
                let mut v = Vec::with_capacity(3 + sig.len());
                v.push(2u8);
                v.extend_from_slice(&(sig.len() as u16).to_be_bytes());
                v.extend_from_slice(sig);
                v
            }
            SaysProof::Session(proof) => {
                let mut v = Vec::with_capacity(1 + CHANNEL_PROOF_LEN);
                v.push(3u8);
                v.extend_from_slice(&proof.epoch.to_be_bytes());
                v.extend_from_slice(&proof.counter.to_be_bytes());
                v.extend_from_slice(&proof.tag);
                v
            }
        }
    }

    /// Parses a proof serialised by [`Self::to_bytes`]; returns the proof and
    /// the number of bytes consumed.
    pub fn from_bytes(bytes: &[u8]) -> Option<(SaysProof, usize)> {
        match bytes.first()? {
            0 => Some((SaysProof::Cleartext, 1)),
            1 => {
                if bytes.len() < 1 + TAG_LEN {
                    return None;
                }
                let mut tag = [0u8; TAG_LEN];
                tag.copy_from_slice(&bytes[1..1 + TAG_LEN]);
                Some((SaysProof::Hmac(tag), 1 + TAG_LEN))
            }
            2 => {
                if bytes.len() < 3 {
                    return None;
                }
                let len = u16::from_be_bytes([bytes[1], bytes[2]]) as usize;
                if bytes.len() < 3 + len {
                    return None;
                }
                Some((SaysProof::Rsa(bytes[3..3 + len].to_vec()), 3 + len))
            }
            3 => {
                if bytes.len() < 1 + CHANNEL_PROOF_LEN {
                    return None;
                }
                let epoch = u32::from_be_bytes(bytes[1..5].try_into().expect("4 bytes"));
                let counter = u64::from_be_bytes(bytes[5..13].try_into().expect("8 bytes"));
                let mut tag = [0u8; TAG_LEN];
                tag.copy_from_slice(&bytes[13..13 + TAG_LEN]);
                Some((
                    SaysProof::Session(ChannelProof {
                        epoch,
                        counter,
                        tag,
                    }),
                    1 + CHANNEL_PROOF_LEN,
                ))
            }
            _ => None,
        }
    }
}

/// The SHA-256 digest of a frame's canonical payload, reading each tuple
/// encoding in place.
///
/// A multi-tuple shipment frame proves one payload: every tuple's canonical
/// encoding, concatenated in shipment order.  Tuple encodings are
/// self-delimiting, so the concatenation is unambiguous without extra
/// framing bytes — and a one-tuple frame proves exactly the bytes a
/// per-tuple assertion used to.  One proof covers every tuple in the frame:
/// signatures (and verifications) scale with frames shipped, not tuples.
/// No level builds the concatenation: the encodings are fed to SHA-256 or
/// HMAC one after another.
fn frame_digest<T: AsRef<[u8]>>(tuples: &[T]) -> Digest {
    let mut hasher = Sha256::new();
    tuples.iter().for_each(|t| hasher.update(t.as_ref()));
    hasher.finalize()
}

/// Domain separator prefixed to every tuple encoding of a *tombstone*
/// (retraction) frame before the frame proof is computed.  Folding the
/// polarity into the signed bytes means a retraction is authenticated at
/// every `says` level exactly like an assertion — and a captured data frame
/// can never be replayed as a deletion of the same tuples (or vice versa),
/// because the two frames prove different canonical payloads.
pub const TOMBSTONE_MARKER: &[u8; 4] = b"\0del";

/// The canonical per-tuple payloads of a tombstone frame: each tuple
/// encoding prefixed with [`TOMBSTONE_MARKER`].  Senders assert (and
/// receivers verify) tombstone frames over these payloads instead of the
/// raw encodings.
pub fn tombstone_payloads<T: AsRef<[u8]>>(tuples: &[T]) -> Vec<Vec<u8>> {
    tuples
        .iter()
        .map(|t| {
            let t = t.as_ref();
            let mut v = Vec::with_capacity(TOMBSTONE_MARKER.len() + t.len());
            v.extend_from_slice(TOMBSTONE_MARKER);
            v.extend_from_slice(t);
            v
        })
        .collect()
}

/// A `P says payload` assertion carrying its proof.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SaysAssertion {
    /// The asserting principal.
    pub principal: PrincipalId,
    /// Proof that `principal` said the payload.
    pub proof: SaysProof,
}

impl SaysAssertion {
    /// Bytes this assertion adds to a message (principal id + proof).
    pub fn wire_len(&self) -> usize {
        4 + self.proof.to_bytes().len()
    }
}

/// Errors raised when verifying a `says` assertion.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SaysError {
    /// The proof does not match the required level (e.g. a cleartext header
    /// where the importing context demands signatures).
    InsufficientLevel {
        /// The minimum level the importing context demands.
        required: SaysLevel,
        /// The level actually attached to the assertion.
        got: SaysLevel,
    },
    /// The asserting principal is not in the verifier's key directory.
    UnknownPrincipal(PrincipalId),
    /// The cryptographic check failed.
    InvalidProof(PrincipalId),
    /// A session-channel frame carried a counter at or below the last
    /// accepted one: a replayed (or reordered) frame.
    ReplayedFrame {
        /// The principal the channel speaks for.
        principal: PrincipalId,
        /// The stale counter the frame carried.
        counter: u64,
        /// The highest counter already accepted on the channel.
        last_accepted: u64,
    },
    /// A session-channel handshake failed validation: the transcript
    /// signature does not verify under the claimed initiator's public key,
    /// or the verifier is not the transcript's named recipient.
    BadHandshake(PrincipalId),
    /// A (validly signed) handshake carried an epoch at or below the
    /// channel already established with its initiator: a replayed old
    /// handshake, which must not roll the channel — and its replay
    /// counter — back.
    ReplayedHandshake {
        /// The initiating principal.
        principal: PrincipalId,
        /// The stale epoch the handshake carried.
        epoch: u32,
        /// The epoch of the channel already installed.
        current_epoch: u32,
    },
    /// A session-level proof arrived but no channel is established with the
    /// asserting principal (dropped or not-yet-delivered handshake).
    NoChannel(PrincipalId),
}

impl std::fmt::Display for SaysError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SaysError::InsufficientLevel { required, got } => write!(
                f,
                "says proof level {} is weaker than required level {}",
                got.name(),
                required.name()
            ),
            SaysError::UnknownPrincipal(p) => write!(f, "unknown principal {p}"),
            SaysError::InvalidProof(p) => write!(f, "invalid says proof from {p}"),
            SaysError::ReplayedFrame {
                principal,
                counter,
                last_accepted,
            } => write!(
                f,
                "replayed frame from {principal}: counter {counter} not above {last_accepted}"
            ),
            SaysError::BadHandshake(p) => write!(f, "invalid channel handshake from {p}"),
            SaysError::ReplayedHandshake {
                principal,
                epoch,
                current_epoch,
            } => write!(
                f,
                "replayed handshake from {principal}: epoch {epoch} not above {current_epoch}"
            ),
            SaysError::NoChannel(p) => write!(f, "no established channel with {p}"),
        }
    }
}

impl std::error::Error for SaysError {}

/// Produces and verifies `says` assertions on behalf of one principal.
#[derive(Clone, Debug)]
pub struct Authenticator {
    keyring: Keyring,
    level: SaysLevel,
}

impl Authenticator {
    /// Creates an authenticator that asserts at `level` using `keyring`.
    pub fn new(keyring: Keyring, level: SaysLevel) -> Self {
        Authenticator { keyring, level }
    }

    /// The level this authenticator asserts at.
    pub fn level(&self) -> SaysLevel {
        self.level
    }

    /// The principal on whose behalf assertions are made.
    pub fn principal(&self) -> PrincipalId {
        self.keyring.owner()
    }

    /// The keyring backing this authenticator.
    pub fn keyring(&self) -> &Keyring {
        &self.keyring
    }

    /// Produces `self.principal() says payload`.
    ///
    /// # Panics
    ///
    /// At [`SaysLevel::Session`] single-shot assertions do not exist — every
    /// proof is bound to an established channel's key and counter.  Open a
    /// channel with [`Authenticator::open_channel`] and assert with
    /// [`Authenticator::assert_frame_on`] instead.
    pub fn assert(&self, payload: &[u8]) -> SaysAssertion {
        self.assert_frame(&[payload])
    }

    /// Produces `self.principal() says frame` for a multi-tuple shipment
    /// frame: one proof over the frame's canonical payload (its tuple
    /// encodings in order, read in place — see `frame_digest`) covers
    /// every tuple.  Panics at [`SaysLevel::Session`], as
    /// [`Authenticator::assert`] does.
    pub fn assert_frame<T: AsRef<[u8]>>(&self, tuples: &[T]) -> SaysAssertion {
        let proof = match self.level {
            SaysLevel::Cleartext => SaysProof::Cleartext,
            SaysLevel::Hmac => {
                SaysProof::Hmac(HmacKey::new(self.keyring.own_mac_secret()).mac_parts(tuples))
            }
            SaysLevel::Session => {
                panic!("session-level says requires a channel: use assert_frame_on")
            }
            SaysLevel::Rsa => SaysProof::Rsa(
                self.keyring
                    .rsa_keypair()
                    .sign_digest(&frame_digest(tuples)),
            ),
        };
        SaysAssertion {
            principal: self.keyring.owner(),
            proof,
        }
    }

    /// Verifies that `assertion.principal says frame` — a single check
    /// covering every tuple shipped in the frame.
    pub fn verify_frame<T: AsRef<[u8]>>(
        &self,
        tuples: &[T],
        assertion: &SaysAssertion,
    ) -> Result<(), SaysError> {
        self.verify_frame_at_level(tuples, assertion, self.level)
    }

    /// Initiates a session channel to `dst` at `epoch`: derives a fresh
    /// HMAC-SHA-256 session key from the transcript and signs the transcript
    /// with this principal's RSA key (one private-key exponentiation — the
    /// only RSA work the channel ever costs the sender).
    ///
    /// Returns the handshake to ship to `dst` and the sender half of the
    /// channel, valid for `rebind_after` frames before it must be rebound at
    /// the next epoch.
    pub fn open_channel(
        &self,
        dst: PrincipalId,
        epoch: u32,
        rebind_after: u64,
    ) -> (ChannelHandshake, SenderChannel) {
        let transcript = HandshakeTranscript {
            src: self.keyring.owner(),
            dst,
            epoch,
        };
        let key = derive_session_key(self.keyring.own_mac_secret(), &transcript);
        let signature = self.keyring.rsa_keypair().sign(&transcript.encode());
        (
            ChannelHandshake {
                transcript,
                signature,
            },
            SenderChannel::new(key, transcript, rebind_after),
        )
    }

    /// Accepts a rebind of an already-established channel: like
    /// [`Authenticator::accept_channel`], but additionally requires the
    /// handshake to come from the current channel's peer at a strictly
    /// greater epoch.  Without this check a recorded old handshake —
    /// validly signed forever — could roll the channel (and its replay
    /// counter) back and resurrect every frame captured under the old key.
    pub fn accept_rebind(
        &self,
        handshake: &ChannelHandshake,
        current: &ReceiverChannel,
    ) -> Result<ReceiverChannel, SaysError> {
        let transcript = &handshake.transcript;
        if transcript.src != current.peer() {
            return Err(SaysError::BadHandshake(transcript.src));
        }
        if transcript.epoch <= current.epoch() {
            return Err(SaysError::ReplayedHandshake {
                principal: transcript.src,
                epoch: transcript.epoch,
                current_epoch: current.epoch(),
            });
        }
        self.accept_channel(handshake)
    }

    /// Accepts a key-establishment handshake: checks that this principal is
    /// the named recipient and that the transcript signature verifies under
    /// the initiator's public key (one public-key exponentiation — the only
    /// RSA work the channel ever costs the receiver), then derives the
    /// session key and returns the receiver half of the channel.
    ///
    /// This is the first-contact path; when a channel with the initiator
    /// already exists, use [`Authenticator::accept_rebind`] so a replayed
    /// old handshake cannot roll the channel back.
    pub fn accept_channel(
        &self,
        handshake: &ChannelHandshake,
    ) -> Result<ReceiverChannel, SaysError> {
        let transcript = &handshake.transcript;
        let src = transcript.src;
        let key = self
            .keyring
            .public_key_of(src)
            .ok_or(SaysError::UnknownPrincipal(src))?;
        if transcript.dst != self.keyring.owner()
            || !key.verify(&transcript.encode(), &handshake.signature)
        {
            return Err(SaysError::BadHandshake(src));
        }
        let secret = self
            .keyring
            .mac_secret_of(src)
            .ok_or(SaysError::UnknownPrincipal(src))?;
        Ok(ReceiverChannel::new(
            derive_session_key(secret, transcript),
            *transcript,
        ))
    }

    /// Produces `self.principal() says frame` on an established session
    /// channel: one HMAC over the frame's canonical payload (its tuple
    /// encodings, read in place), bound to the channel's epoch and next
    /// counter value.
    pub fn assert_frame_on<T: AsRef<[u8]>>(
        &self,
        channel: &mut SenderChannel,
        tuples: &[T],
    ) -> SaysAssertion {
        SaysAssertion {
            principal: self.keyring.owner(),
            proof: SaysProof::Session(channel.mac_frame(tuples)),
        }
    }

    /// Verifies a session-channel frame assertion against `required`: the
    /// assertion must be a [`SaysProof::Session`] from the channel's peer at
    /// the current epoch, with a strictly advancing counter and a valid MAC.
    pub fn verify_frame_on<T: AsRef<[u8]>>(
        &self,
        channel: &mut ReceiverChannel,
        tuples: &[T],
        assertion: &SaysAssertion,
        required: SaysLevel,
    ) -> Result<(), SaysError> {
        let got = assertion.proof.level();
        if got < required {
            return Err(SaysError::InsufficientLevel { required, got });
        }
        let SaysProof::Session(proof) = &assertion.proof else {
            // A stronger stateless proof (Rsa) is acceptable on a channel
            // link; check it the stateless way.
            return self.verify_frame_at_level(tuples, assertion, required);
        };
        if assertion.principal != channel.peer() {
            return Err(SaysError::InvalidProof(assertion.principal));
        }
        channel.verify_frame(tuples, proof)
    }

    /// Verifies that `assertion.principal says payload`, requiring at least
    /// this authenticator's configured level.
    pub fn verify(&self, payload: &[u8], assertion: &SaysAssertion) -> Result<(), SaysError> {
        self.verify_at_level(payload, assertion, self.level)
    }

    /// Verifies an assertion against an explicit minimum level.
    pub(crate) fn verify_at_level(
        &self,
        payload: &[u8],
        assertion: &SaysAssertion,
        required: SaysLevel,
    ) -> Result<(), SaysError> {
        self.verify_frame_at_level(&[payload], assertion, required)
    }

    /// [`Authenticator::verify_at_level`] over a frame's tuple encodings,
    /// read in place.
    fn verify_frame_at_level<T: AsRef<[u8]>>(
        &self,
        tuples: &[T],
        assertion: &SaysAssertion,
        required: SaysLevel,
    ) -> Result<(), SaysError> {
        let got = assertion.proof.level();
        if got < required {
            return Err(SaysError::InsufficientLevel { required, got });
        }
        match &assertion.proof {
            SaysProof::Cleartext => Ok(()),
            // Channel proofs are only checkable against the per-channel
            // replay state; route them through `verify_frame_on`.
            SaysProof::Session(_) => Err(SaysError::NoChannel(assertion.principal)),
            SaysProof::Hmac(tag) => {
                let secret = self
                    .keyring
                    .mac_secret_of(assertion.principal)
                    .ok_or(SaysError::UnknownPrincipal(assertion.principal))?;
                if constant_time_eq(&HmacKey::new(secret).mac_parts(tuples), tag) {
                    Ok(())
                } else {
                    Err(SaysError::InvalidProof(assertion.principal))
                }
            }
            SaysProof::Rsa(sig) => {
                let key = self
                    .keyring
                    .public_key_of(assertion.principal)
                    .ok_or(SaysError::UnknownPrincipal(assertion.principal))?;
                if key.verify_digest(&frame_digest(tuples), sig) {
                    Ok(())
                } else {
                    Err(SaysError::InvalidProof(assertion.principal))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::principal::{KeyAuthority, Principal};

    fn setup(level: SaysLevel) -> (Authenticator, Authenticator) {
        let principals = vec![Principal::new(0u32, "a"), Principal::new(1u32, "b")];
        let auth = KeyAuthority::provision(&principals, 11).unwrap();
        let a = Authenticator::new(auth.keyring_for(PrincipalId(0)).unwrap(), level);
        let b = Authenticator::new(auth.keyring_for(PrincipalId(1)).unwrap(), level);
        (a, b)
    }

    /// Number of proof bytes `authenticator` adds per exported frame.
    fn proof_overhead(authenticator: &Authenticator) -> usize {
        match authenticator.level {
            SaysLevel::Cleartext => 0,
            SaysLevel::Hmac => TAG_LEN,
            SaysLevel::Session => CHANNEL_PROOF_LEN,
            SaysLevel::Rsa => authenticator.keyring.rsa_keypair().sign(b"").len(),
        }
    }

    #[test]
    fn cleartext_round_trip() {
        let (a, b) = setup(SaysLevel::Cleartext);
        let assertion = a.assert(b"link(a,b)");
        assert_eq!(assertion.proof, SaysProof::Cleartext);
        assert_eq!(assertion.proof.wire_len(), 0);
        assert!(b.verify(b"link(a,b)", &assertion).is_ok());
        // Cleartext offers no integrity: a different payload also "verifies".
        assert!(b.verify(b"link(a,c)", &assertion).is_ok());
    }

    #[test]
    fn hmac_round_trip_and_tamper_detection() {
        let (a, b) = setup(SaysLevel::Hmac);
        let assertion = a.assert(b"reachable(a,c)");
        assert_eq!(assertion.proof.wire_len(), TAG_LEN);
        assert!(b.verify(b"reachable(a,c)", &assertion).is_ok());
        assert_eq!(
            b.verify(b"reachable(a,d)", &assertion),
            Err(SaysError::InvalidProof(PrincipalId(0)))
        );
    }

    #[test]
    fn rsa_round_trip_and_spoof_detection() {
        let (a, b) = setup(SaysLevel::Rsa);
        let assertion = a.assert(b"bestPath(a,c,[a,b,c],2)");
        assert!(assertion.proof.wire_len() >= 64);
        assert!(b.verify(b"bestPath(a,c,[a,b,c],2)", &assertion).is_ok());

        // A spoofed assertion claiming to come from b but signed by a fails.
        let spoofed = SaysAssertion {
            principal: PrincipalId(1),
            proof: assertion.proof.clone(),
        };
        assert_eq!(
            b.verify(b"bestPath(a,c,[a,b,c],2)", &spoofed),
            Err(SaysError::InvalidProof(PrincipalId(1)))
        );
    }

    #[test]
    fn tombstone_payloads_are_domain_separated_at_every_level() {
        let tuples = [b"link(a,b)".to_vec(), b"reachable(a,c)".to_vec()];
        let tombstones = tombstone_payloads(&tuples);
        assert_eq!(tombstones.len(), 2);
        for (t, d) in tombstones.iter().zip(&tuples) {
            assert!(t.starts_with(TOMBSTONE_MARKER));
            assert_eq!(&t[TOMBSTONE_MARKER.len()..], &d[..]);
        }
        // A captured data-frame proof never verifies as a tombstone of the
        // same tuples, and vice versa, wherever the proof has integrity.
        for level in [SaysLevel::Hmac, SaysLevel::Rsa] {
            let (a, b) = setup(level);
            let data_proof = a.assert_frame(&tuples);
            let tomb_proof = a.assert_frame(&tombstones);
            assert!(b.verify_frame(&tuples, &data_proof).is_ok());
            assert!(b.verify_frame(&tombstones, &tomb_proof).is_ok());
            assert!(b.verify_frame(&tombstones, &data_proof).is_err());
            assert!(b.verify_frame(&tuples, &tomb_proof).is_err());
        }
        // Session channels: the polarity is folded into the MAC'd payload.
        let (a, b) = setup(SaysLevel::Session);
        let (handshake, mut tx) = a.open_channel(b.principal(), 0, 16);
        let mut rx = b.accept_channel(&handshake).unwrap();
        let proof = a.assert_frame_on(&mut tx, &tombstones);
        assert_eq!(
            b.verify_frame_on(&mut rx, &tuples, &proof, SaysLevel::Session),
            Err(SaysError::InvalidProof(a.principal()))
        );
        // The genuine tombstone frame still verifies: the forged attempt
        // burned nothing (rejected frames do not advance the counter).
        assert!(b
            .verify_frame_on(&mut rx, &tombstones, &proof, SaysLevel::Session)
            .is_ok());
    }

    #[test]
    fn level_ordering_is_enforced() {
        let (a, b) = setup(SaysLevel::Cleartext);
        let weak = a.assert(b"x");
        assert_eq!(
            b.verify_at_level(b"x", &weak, SaysLevel::Rsa),
            Err(SaysError::InsufficientLevel {
                required: SaysLevel::Rsa,
                got: SaysLevel::Cleartext
            })
        );
        // A stronger proof satisfies a weaker requirement.
        let (a_rsa, b_rsa) = setup(SaysLevel::Rsa);
        let strong = a_rsa.assert(b"x");
        assert!(b_rsa
            .verify_at_level(b"x", &strong, SaysLevel::Hmac)
            .is_ok());
    }

    #[test]
    fn frame_signatures_cover_every_tuple_at_every_level() {
        let tuples: Vec<&[u8]> = vec![b"link(a,b)", b"reachable(a,c)", b"bestPath(a,c,2)"];
        for level in SaysLevel::ALL {
            let (a, b) = setup(level);
            if level == SaysLevel::Session {
                // Session proofs live on a channel; one MAC still covers the
                // whole frame.
                let (handshake, mut tx) = a.open_channel(b.principal(), 0, 16);
                let mut rx = b.accept_channel(&handshake).unwrap();
                let assertion = a.assert_frame_on(&mut tx, &tuples);
                assert_eq!(assertion.proof.wire_len(), proof_overhead(&a));
                assert!(b
                    .verify_frame_on(&mut rx, &tuples, &assertion, level)
                    .is_ok());
                continue;
            }
            let assertion = a.assert_frame(&tuples);
            // One proof; its size does not scale with the tuple count.
            assert_eq!(assertion.proof.wire_len(), proof_overhead(&a));
            assert!(b.verify_frame(&tuples, &assertion).is_ok());
            // A one-tuple frame signs exactly the per-tuple payload.
            let single = a.assert_frame(&tuples[..1]);
            assert!(b.verify(b"link(a,b)", &single).is_ok());
        }
    }

    #[test]
    fn tampered_frames_fail_verification() {
        let tuples: Vec<&[u8]> = vec![b"link(a,b)", b"reachable(a,c)"];
        let (a, b) = setup(SaysLevel::Rsa);
        let assertion = a.assert_frame(&tuples);
        // Altering any tuple, dropping one, or reordering breaks the proof.
        let altered: Vec<&[u8]> = vec![b"link(a,b)", b"reachable(a,d)"];
        assert!(b.verify_frame(&altered, &assertion).is_err());
        assert!(b.verify_frame(&tuples[..1], &assertion).is_err());
        let reordered: Vec<&[u8]> = vec![b"reachable(a,c)", b"link(a,b)"];
        assert!(b.verify_frame(&reordered, &assertion).is_err());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// A frame proof streamed over the tuple encodings is byte for byte
        /// the proof of their concatenation, at every level that has proof
        /// bytes, and each verifies as the other.
        #[test]
        fn streamed_frame_proofs_equal_concatenated_ones(
            tuples in proptest::collection::vec(
                proptest::collection::vec(proptest::prelude::any::<u8>(), 0..90),
                0..6,
            ),
        ) {
            let concatenated = [tuples.concat()];
            for level in [SaysLevel::Hmac, SaysLevel::Rsa] {
                let (a, b) = setup(level);
                let streamed = a.assert_frame(&tuples);
                proptest::prop_assert_eq!(&streamed, &a.assert_frame(&concatenated));
                proptest::prop_assert!(b.verify_frame(&concatenated, &streamed).is_ok());
                proptest::prop_assert!(b.verify(&concatenated[0], &streamed).is_ok());
            }
            let (a, b) = setup(SaysLevel::Session);
            let channel = || a.open_channel(PrincipalId(1), 0, u64::MAX);
            let ((handshake, mut tx), (_, mut tx_again)) = (channel(), channel());
            let streamed = a.assert_frame_on(&mut tx, &tuples);
            proptest::prop_assert_eq!(&streamed, &a.assert_frame_on(&mut tx_again, &concatenated));
            let mut rx = b.accept_channel(&handshake).unwrap();
            let verified = b.verify_frame_on(&mut rx, &concatenated, &streamed, SaysLevel::Session);
            proptest::prop_assert!(verified.is_ok());
        }
    }

    #[test]
    fn unknown_principal_is_rejected() {
        let (a, b) = setup(SaysLevel::Rsa);
        let mut assertion = a.assert(b"y");
        assertion.principal = PrincipalId(42);
        assert_eq!(
            b.verify(b"y", &assertion),
            Err(SaysError::UnknownPrincipal(PrincipalId(42)))
        );
    }

    #[test]
    fn proof_serialisation_roundtrip() {
        let (a, _) = setup(SaysLevel::Rsa);
        for level in SaysLevel::ALL {
            let auth = Authenticator::new(a.keyring.clone(), level);
            let proof = if level == SaysLevel::Session {
                let (_, mut tx) = auth.open_channel(PrincipalId(1), 7, 16);
                auth.assert_frame_on(&mut tx, &[b"payload"]).proof
            } else {
                auth.assert(b"payload").proof
            };
            let bytes = proof.to_bytes();
            let (parsed, consumed) = SaysProof::from_bytes(&bytes).unwrap();
            assert_eq!(parsed, proof);
            assert_eq!(consumed, bytes.len());
        }
        assert!(SaysProof::from_bytes(&[]).is_none());
        assert!(SaysProof::from_bytes(&[9]).is_none());
        assert!(SaysProof::from_bytes(&[1, 0, 0]).is_none());
        assert!(SaysProof::from_bytes(&[2, 0, 10, 1]).is_none());
        assert!(SaysProof::from_bytes(&[3, 0, 0]).is_none());
    }

    #[test]
    fn overhead_reflects_level() {
        let (a_clear, _) = setup(SaysLevel::Cleartext);
        let (a_hmac, _) = setup(SaysLevel::Hmac);
        let (a_rsa, _) = setup(SaysLevel::Rsa);
        assert_eq!(proof_overhead(&a_clear), 0);
        assert_eq!(proof_overhead(&a_hmac), TAG_LEN);
        let modulus = a_rsa.keyring.rsa_keypair().public_key().modulus();
        assert_eq!(proof_overhead(&a_rsa), modulus.bit_len().div_ceil(8));
        assert!(proof_overhead(&a_rsa) > proof_overhead(&a_hmac));
        // Each level's proof is that many bytes on the wire.
        for a in [&a_clear, &a_hmac, &a_rsa] {
            assert_eq!(a.assert(b"x").proof.wire_len(), proof_overhead(a));
        }
    }

    #[test]
    fn levels_are_ordered_weak_to_strong() {
        assert!(SaysLevel::Cleartext < SaysLevel::Hmac);
        // Channel authentication is RSA-rooted but frames are not
        // individually non-repudiable, so Session sits below Rsa.
        assert!(SaysLevel::Hmac < SaysLevel::Session);
        assert!(SaysLevel::Session < SaysLevel::Rsa);
        assert_eq!(SaysLevel::default(), SaysLevel::Cleartext);
        assert_eq!(SaysLevel::ALL.len(), 4);
    }

    #[test]
    fn session_proofs_are_refused_where_rsa_is_demanded() {
        let (a, b) = setup(SaysLevel::Session);
        let (handshake, mut tx) = a.open_channel(b.principal(), 0, 16);
        let mut rx = b.accept_channel(&handshake).unwrap();
        let tuples: Vec<&[u8]> = vec![b"reachable(a,c)"];
        let assertion = a.assert_frame_on(&mut tx, &tuples);
        // An importing context demanding full non-repudiation refuses the
        // channel MAC...
        assert_eq!(
            b.verify_frame_on(&mut rx, &tuples, &assertion, SaysLevel::Rsa),
            Err(SaysError::InsufficientLevel {
                required: SaysLevel::Rsa,
                got: SaysLevel::Session
            })
        );
        // ...and the stateless verifier never accepts a channel proof.
        assert_eq!(
            b.verify_at_level(b"reachable(a,c)", &assertion, SaysLevel::Hmac),
            Err(SaysError::NoChannel(PrincipalId(0)))
        );
        // A channel link accepts a stronger stateless (Rsa) proof.
        let (a_rsa, _) = setup(SaysLevel::Rsa);
        let strong = a_rsa.assert_frame(&tuples);
        assert!(b
            .verify_frame_on(&mut rx, &tuples, &strong, SaysLevel::Session)
            .is_ok());
        // A weaker stateless proof is still insufficient on that link.
        let (a_hmac, _) = setup(SaysLevel::Hmac);
        let weak = a_hmac.assert_frame(&tuples);
        assert_eq!(
            b.verify_frame_on(&mut rx, &tuples, &weak, SaysLevel::Session),
            Err(SaysError::InsufficientLevel {
                required: SaysLevel::Session,
                got: SaysLevel::Hmac
            })
        );
    }
}
