//! Session-keyed authenticated channels: amortising RSA to one handshake
//! per directed link.
//!
//! At the `Rsa` `says` level every shipment frame pays a full private-key
//! exponentiation on the sender and a public-key exponentiation on the
//! receiver.  The paper's assurance spectrum (Section 2.2) and the standard
//! secure-channel designs of the declarative-networking literature point at
//! the classic amortisation: authenticate the *channel* once with RSA, then
//! MAC every subsequent frame under a session key.  Steady-state crypto cost
//! drops from `O(frames × RSA)` to `O(links × RSA + frames × HMAC)`.
//!
//! The protocol, per directed `(src, dst)` link:
//!
//! 1. **Handshake** — the initiator builds a [`HandshakeTranscript`] binding
//!    *both* principals and a channel epoch, derives a fresh HMAC-SHA-256
//!    session key from the transcript, and signs the transcript with its RSA
//!    key ([`ChannelHandshake`]).  The receiver checks the signature against
//!    `src`'s public key and that it is the named recipient, then derives
//!    the same key.  Because the transcript names the asserting principal,
//!    the receiver still learns *who* `says` every tuple on the channel.
//! 2. **Frames** — every subsequent frame is authenticated with one HMAC
//!    over `epoch ‖ counter ‖ payload` ([`ChannelProof`]).  The per-channel
//!    counter is strictly monotonic: a replayed (or reordered) frame carries
//!    a stale counter and is rejected ([`SaysError::ReplayedFrame`]).
//! 3. **Rebind** — after `SenderChannel::rebind_after` frames the channel
//!    [`SenderChannel::expired`]s and the initiator must perform a fresh
//!    handshake at the next epoch; frames MAC'd under a stale epoch are
//!    rejected.
//!
//! Key derivation mirrors the MAC-secret model of [`crate::principal`]: the
//! simulator provisions per-principal secrets through the key authority
//! (standing in for the pairwise secrets a real deployment would negotiate),
//! so both ends can derive `HMAC(src_secret, transcript)` while the RSA
//! signature over the transcript is what actually authenticates the channel
//! binding.  What the simulation preserves is the paper-relevant *cost
//! profile*: one RSA operation per link per epoch, one HMAC per frame.

use crate::hmac::{constant_time_eq, hmac_sha256, HmacKey, TAG_LEN};
use crate::principal::PrincipalId;
use crate::says::SaysError;

/// Default number of frames a channel may authenticate before it must be
/// rebound with a fresh handshake.  High enough that default experiment runs
/// perform exactly one handshake per live directed link; tests lower it to
/// exercise the rebind path.
pub const DEFAULT_REBIND_AFTER_FRAMES: u64 = 1 << 16;

/// Domain separator prefixed to every handshake transcript so transcript
/// signatures can never be confused with frame or tuple signatures.
const TRANSCRIPT_TAG: &[u8; 8] = b"pasnchan";

/// The signed content of a key-establishment handshake: both principals and
/// the channel epoch, canonically encoded.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct HandshakeTranscript {
    /// The initiating (sending) principal — the `P` of every `P says tuple`
    /// subsequently asserted on this channel.
    pub src: PrincipalId,
    /// The receiving principal the channel is bound to.
    pub dst: PrincipalId,
    /// Channel epoch: 0 for the first binding of a link, incremented on
    /// every rebind.  Folded into the key derivation, so each epoch uses a
    /// fresh session key.
    pub epoch: u32,
}

impl HandshakeTranscript {
    /// Canonical byte encoding — the exact bytes signed by the initiator
    /// and fed to the key derivation.
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(TRANSCRIPT_TAG.len() + 12);
        v.extend_from_slice(TRANSCRIPT_TAG);
        v.extend_from_slice(&self.src.0.to_be_bytes());
        v.extend_from_slice(&self.dst.0.to_be_bytes());
        v.extend_from_slice(&self.epoch.to_be_bytes());
        v
    }

    /// Encoded transcript length in bytes (charged on the wire).
    pub fn wire_len(&self) -> usize {
        TRANSCRIPT_TAG.len() + 12
    }
}

/// Derives the channel's HMAC-SHA-256 session key from the initiator's MAC
/// secret and the full transcript — fresh per `(src, dst, epoch)`.
pub(crate) fn derive_session_key(
    src_secret: &[u8; TAG_LEN],
    transcript: &HandshakeTranscript,
) -> [u8; TAG_LEN] {
    hmac_sha256(src_secret, &transcript.encode())
}

/// A key-establishment handshake message: the transcript plus the
/// initiator's RSA signature over its canonical encoding.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ChannelHandshake {
    /// The signed transcript.
    pub transcript: HandshakeTranscript,
    /// RSA signature by `transcript.src` over `HandshakeTranscript::encode`.
    pub signature: Vec<u8>,
}

impl ChannelHandshake {
    /// Bytes this handshake occupies on the wire (transcript + signature);
    /// the message header is charged separately by `net::wire`.
    pub fn wire_len(&self) -> usize {
        self.transcript.wire_len() + self.signature.len()
    }

    /// Whether this handshake's epoch clears the receiver's epoch floor.
    ///
    /// Receivers raise the floor past every retired channel epoch —
    /// including crash-style evictions, where the old channel died with
    /// frames still in flight — so a replayed (or delayed) handshake from
    /// before the crash can never reinstall a retired epoch and roll the
    /// replay counter back.  A sender rebinding after a crash picks a fresh
    /// epoch above its own send floor, which this check then admits.
    pub fn supersedes(&self, floor: u32) -> bool {
        self.transcript.epoch >= floor
    }
}

/// The MAC authenticating one frame on an established channel: the channel
/// epoch, the frame's position in the channel's monotonic counter, and the
/// HMAC tag over `epoch ‖ counter ‖ payload`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ChannelProof {
    /// Epoch of the channel the frame was MAC'd on.
    pub epoch: u32,
    /// Monotonic per-channel frame counter (starts at 0 per epoch).
    pub counter: u64,
    /// `HMAC-SHA256(session_key, epoch ‖ counter ‖ payload)`.
    pub tag: [u8; TAG_LEN],
}

/// Bytes a [`ChannelProof`] adds to a frame on the wire.
pub const CHANNEL_PROOF_LEN: usize = 4 + 8 + TAG_LEN;

/// `HMAC(session_key, epoch ‖ counter ‖ payload)`, where the payload is the
/// frame's tuple encodings in shipment order, streamed straight into the
/// precomputed-key hasher — no intermediate buffer, and the two padded-key
/// compressions were paid once at channel establishment.
fn frame_tag<T: AsRef<[u8]>>(
    key: &HmacKey,
    epoch: u32,
    counter: u64,
    tuples: &[T],
) -> [u8; TAG_LEN] {
    let mut inner = key.begin();
    inner.update(&epoch.to_be_bytes());
    inner.update(&counter.to_be_bytes());
    tuples.iter().for_each(|t| inner.update(t.as_ref()));
    key.finish(inner)
}

/// The initiator's half of an established channel: MACs outgoing frames
/// under the session key, advancing the monotonic counter.
#[derive(Clone, Debug)]
pub struct SenderChannel {
    key: HmacKey,
    transcript: HandshakeTranscript,
    next_counter: u64,
    rebind_after: u64,
}

impl SenderChannel {
    pub(crate) fn new(
        key: [u8; TAG_LEN],
        transcript: HandshakeTranscript,
        rebind_after: u64,
    ) -> Self {
        SenderChannel {
            key: HmacKey::new(&key),
            transcript,
            next_counter: 0,
            rebind_after: rebind_after.max(1),
        }
    }

    /// The channel's epoch.
    pub fn epoch(&self) -> u32 {
        self.transcript.epoch
    }

    /// True once the channel has authenticated `rebind_after` frames and
    /// must be rebound (fresh handshake, next epoch) before the next frame.
    pub fn expired(&self) -> bool {
        self.next_counter >= self.rebind_after
    }

    /// MACs one frame — its tuple encodings, in shipment order — consuming
    /// the next counter value.
    ///
    /// Callers must check [`SenderChannel::expired`] first and rebind when
    /// the channel is exhausted; MAC'ing past the limit is a logic error.
    pub(crate) fn mac_frame<T: AsRef<[u8]>>(&mut self, tuples: &[T]) -> ChannelProof {
        debug_assert!(!self.expired(), "channel must be rebound before reuse");
        let counter = self.next_counter;
        self.next_counter += 1;
        ChannelProof {
            epoch: self.transcript.epoch,
            counter,
            tag: frame_tag(&self.key, self.transcript.epoch, counter, tuples),
        }
    }
}

/// The receiver's half of an established channel: verifies frame MACs and
/// enforces the strictly monotonic counter (replay protection).
#[derive(Clone, Debug)]
pub struct ReceiverChannel {
    key: HmacKey,
    transcript: HandshakeTranscript,
    last_counter: Option<u64>,
}

impl ReceiverChannel {
    pub(crate) fn new(key: [u8; TAG_LEN], transcript: HandshakeTranscript) -> Self {
        ReceiverChannel {
            key: HmacKey::new(&key),
            transcript,
            last_counter: None,
        }
    }

    /// The asserting principal every frame on this channel speaks for.
    pub(crate) fn peer(&self) -> PrincipalId {
        self.transcript.src
    }

    /// The channel's epoch.
    pub fn epoch(&self) -> u32 {
        self.transcript.epoch
    }

    /// Verifies one frame (its tuple encodings, in shipment order): the
    /// proof must carry a valid MAC over `epoch ‖ counter ‖ payload` under
    /// this channel's session key, this
    /// channel's epoch, and a counter strictly greater than any previously
    /// accepted one.
    ///
    /// The MAC is checked first and unconditionally: a rejected frame costs
    /// the verifier exactly one HMAC regardless of the rejection reason
    /// (uniform work, and what the engine's `hmac_ops` accounting charges).
    /// A frame MAC'd under a stale epoch fails the MAC check itself — the
    /// session key is fresh per epoch.
    pub(crate) fn verify_frame<T: AsRef<[u8]>>(
        &mut self,
        tuples: &[T],
        proof: &ChannelProof,
    ) -> Result<(), SaysError> {
        let src = self.transcript.src;
        let expected = frame_tag(&self.key, proof.epoch, proof.counter, tuples);
        if !constant_time_eq(&expected, &proof.tag) || proof.epoch != self.transcript.epoch {
            return Err(SaysError::InvalidProof(src));
        }
        if let Some(last) = self.last_counter {
            if proof.counter <= last {
                return Err(SaysError::ReplayedFrame {
                    principal: src,
                    counter: proof.counter,
                    last_accepted: last,
                });
            }
        }
        self.last_counter = Some(proof.counter);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::principal::{KeyAuthority, Principal};
    use crate::says::{Authenticator, SaysError, SaysLevel};

    fn setup() -> (Authenticator, Authenticator, Authenticator) {
        let principals = vec![
            Principal::new(0u32, "a"),
            Principal::new(1u32, "b"),
            Principal::new(2u32, "m"),
        ];
        let auth = KeyAuthority::provision(&principals, 17).unwrap();
        let mk = |id: u32| {
            Authenticator::new(
                auth.keyring_for(PrincipalId(id)).unwrap(),
                SaysLevel::Session,
            )
        };
        (mk(0), mk(1), mk(2))
    }

    #[test]
    fn handshake_establishes_a_working_channel() {
        let (a, b, _) = setup();
        let (handshake, mut tx) = a.open_channel(PrincipalId(1), 0, 100);
        assert_eq!(handshake.transcript.src, PrincipalId(0));
        assert_eq!(handshake.transcript.dst, PrincipalId(1));
        assert!(handshake.wire_len() > handshake.transcript.wire_len());
        let mut rx = b.accept_channel(&handshake).unwrap();
        assert_eq!(rx.peer(), PrincipalId(0));

        for payload in [b"frame one".as_ref(), b"frame two", b"frame three"] {
            let proof = tx.mac_frame(&[payload]);
            assert!(rx.verify_frame(&[payload], &proof).is_ok());
        }
        assert!(!tx.expired());
    }

    #[test]
    fn tampered_frames_are_rejected() {
        let (a, b, _) = setup();
        let (handshake, mut tx) = a.open_channel(PrincipalId(1), 0, 100);
        let mut rx = b.accept_channel(&handshake).unwrap();
        let proof = tx.mac_frame(&[b"reachable(a,c)"]);
        assert_eq!(
            rx.verify_frame(&[b"reachable(a,d)"], &proof),
            Err(SaysError::InvalidProof(PrincipalId(0)))
        );
        // The genuine frame still verifies (the forgery consumed no counter).
        assert!(rx.verify_frame(&[b"reachable(a,c)"], &proof).is_ok());
    }

    #[test]
    fn replayed_frames_are_rejected() {
        let (a, b, _) = setup();
        let (handshake, mut tx) = a.open_channel(PrincipalId(1), 0, 100);
        let mut rx = b.accept_channel(&handshake).unwrap();
        let first = tx.mac_frame(&[b"one"]);
        let second = tx.mac_frame(&[b"two"]);
        assert!(rx.verify_frame(&[b"one"], &first).is_ok());
        assert!(rx.verify_frame(&[b"two"], &second).is_ok());
        // Replaying either earlier frame presents a stale counter.
        assert_eq!(
            rx.verify_frame(&[b"two"], &second),
            Err(SaysError::ReplayedFrame {
                principal: PrincipalId(0),
                counter: 1,
                last_accepted: 1,
            })
        );
        assert!(matches!(
            rx.verify_frame(&[b"one"], &first),
            Err(SaysError::ReplayedFrame { .. })
        ));
    }

    #[test]
    fn handshake_signed_by_the_wrong_principal_is_rejected() {
        let (a, b, m) = setup();
        // Mallory signs a transcript claiming to bind a→b.
        let (mut forged, _) = m.open_channel(PrincipalId(1), 0, 100);
        forged.transcript.src = PrincipalId(0);
        assert_eq!(
            b.accept_channel(&forged).unwrap_err(),
            SaysError::BadHandshake(PrincipalId(0))
        );
        // A handshake for a different recipient is refused too.
        let (to_mallory, _) = a.open_channel(PrincipalId(2), 0, 100);
        assert_eq!(
            b.accept_channel(&to_mallory).unwrap_err(),
            SaysError::BadHandshake(PrincipalId(0))
        );
        // An unknown initiator cannot be checked at all.
        let (mut unknown, _) = a.open_channel(PrincipalId(1), 0, 100);
        unknown.transcript.src = PrincipalId(9);
        assert_eq!(
            b.accept_channel(&unknown).unwrap_err(),
            SaysError::UnknownPrincipal(PrincipalId(9))
        );
    }

    #[test]
    fn channels_expire_and_rebind_at_the_next_epoch() {
        let (a, b, _) = setup();
        let (handshake, mut tx) = a.open_channel(PrincipalId(1), 0, 2);
        let mut rx = b.accept_channel(&handshake).unwrap();
        let p0 = tx.mac_frame(&[b"x"]);
        let p1 = tx.mac_frame(&[b"y"]);
        assert!(tx.expired());
        assert!(rx.verify_frame(&[b"x"], &p0).is_ok());
        assert!(rx.verify_frame(&[b"y"], &p1).is_ok());

        // Rebind: next epoch, fresh key, counter restarts.
        let (rebind, mut tx2) = a.open_channel(PrincipalId(1), 1, 2);
        let mut rx2 = b.accept_channel(&rebind).unwrap();
        assert_eq!(tx2.epoch(), 1);
        let p2 = tx2.mac_frame(&[b"z"]);
        assert_eq!(p2.counter, 0);
        assert!(rx2.verify_frame(&[b"z"], &p2).is_ok());
        // A frame MAC'd under the old epoch is refused on the new channel.
        let stale = {
            let (old, mut tx_old) = a.open_channel(PrincipalId(1), 0, 2);
            let _ = old;
            tx_old.mac_frame(&[b"z"])
        };
        assert_eq!(
            rx2.verify_frame(&[b"z"], &stale),
            Err(SaysError::InvalidProof(PrincipalId(0)))
        );
    }

    #[test]
    fn replayed_handshakes_cannot_roll_a_channel_back() {
        let (a, b, _) = setup();
        // Epoch 0 lives its life: handshake, frames, expiry.
        let (old_handshake, mut tx0) = a.open_channel(PrincipalId(1), 0, 2);
        let mut rx = b.accept_channel(&old_handshake).unwrap();
        let captured = tx0.mac_frame(&[b"secret frame"]);
        assert!(rx.verify_frame(&[b"secret frame"], &captured).is_ok());

        // The link rebinds to epoch 1.
        let (rebind, _tx1) = a.open_channel(PrincipalId(1), 1, 2);
        rx = b.accept_rebind(&rebind, &rx).unwrap();
        assert_eq!(rx.epoch(), 1);

        // An attacker re-delivers the recorded epoch-0 handshake: still
        // validly signed, but its epoch does not supersede the channel —
        // rejected, so the captured epoch-0 frame stays dead.
        assert_eq!(
            b.accept_rebind(&old_handshake, &rx).unwrap_err(),
            SaysError::ReplayedHandshake {
                principal: PrincipalId(0),
                epoch: 0,
                current_epoch: 1,
            }
        );
        assert_eq!(
            rx.verify_frame(&[b"secret frame"], &captured),
            Err(SaysError::InvalidProof(PrincipalId(0)))
        );
        // A same-epoch replay of the current handshake is refused too, and
        // a rebind from a different initiator never matches the link.
        assert!(matches!(
            b.accept_rebind(&rebind, &rx).unwrap_err(),
            SaysError::ReplayedHandshake { .. }
        ));
        let (_, _, m) = setup();
        let (cross, _) = m.open_channel(PrincipalId(1), 5, 2);
        assert_eq!(
            b.accept_rebind(&cross, &rx).unwrap_err(),
            SaysError::BadHandshake(PrincipalId(2))
        );
    }

    #[test]
    fn session_keys_are_fresh_per_link_and_epoch() {
        let (a, _, _) = setup();
        let secret = *a.keyring().own_mac_secret();
        let key = |dst: u32, epoch: u32| {
            derive_session_key(
                &secret,
                &HandshakeTranscript {
                    src: PrincipalId(0),
                    dst: PrincipalId(dst),
                    epoch,
                },
            )
        };
        assert_ne!(key(1, 0), key(2, 0), "distinct links, distinct keys");
        assert_ne!(key(1, 0), key(1, 1), "rebinding refreshes the key");
        assert_eq!(key(1, 0), key(1, 0), "derivation is deterministic");
    }
}
