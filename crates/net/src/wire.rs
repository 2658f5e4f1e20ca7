//! Wire-format accounting helpers.
//!
//! The bandwidth figure of the paper (Figure 4) charges the full transport
//! cost of every tuple exchanged between nodes.  The engine serialises tuple
//! batches itself (it needs stable bytes to sign); this module centralises
//! the per-message framing overhead and small helpers for length-prefixed
//! encoding so that all crates charge identical byte counts.

use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Bytes of per-message framing charged on top of the payload.
///
/// The paper's prototype exchanges tuples over UDP: 20 bytes of IPv4 header
/// plus 8 bytes of UDP header, plus a 16-byte P2-style dataflow header
/// (source/destination dataflow ids and a length).
pub const MESSAGE_HEADER_BYTES: usize = 20 + 8 + 16;

/// Total wire bytes for a message with `payload_len` payload bytes.
pub fn message_wire_bytes(payload_len: usize) -> usize {
    MESSAGE_HEADER_BYTES + payload_len
}

/// Wire accounting for one multi-tuple shipment frame.
///
/// A frame carries every tuple flushed for one `(source, destination,
/// predicate, due time)` batch.  The cost split is honest about what is
/// shared and what is not: one [`MESSAGE_HEADER_BYTES`] header and one
/// frame-level overhead charge (the `says` proof covering every tuple) are
/// paid per frame, while each tuple charges its own canonical encoding plus
/// its per-tuple annotations (provenance tag, piggybacked derivation
/// subtree).  The canonical signing payload is the concatenation of the
/// tuple encodings in shipment order — each encoding is self-delimiting, so
/// no extra framing bytes sit between tuples and a one-tuple frame costs
/// exactly what a per-tuple message used to.
///
/// A retraction (tombstone) shipment is charged exactly like a data frame —
/// one header, one frame-level proof, per-tuple payloads — so deletion
/// traffic shows up honestly in the bandwidth figures.  Session-channel
/// setup messages use the same accounting through [`Frame::handshake`], and
/// the reliability layer's acknowledgements through [`Frame::ack`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Frame {
    tuple_bytes: usize,
    frame_overhead: usize,
}

impl Frame {
    /// An empty data or tombstone frame with no frame-level overhead.
    pub fn new() -> Self {
        Frame::default()
    }

    /// A key-establishment handshake message: one header plus the signed
    /// transcript, charged honestly (`transcript_bytes + signature_bytes`
    /// of payload, no tuples) — so channel setup shows up in the bandwidth
    /// figures instead of hiding outside the accounting.
    pub fn handshake(transcript_bytes: usize, signature_bytes: usize) -> Self {
        Frame {
            tuple_bytes: 0,
            frame_overhead: transcript_bytes + signature_bytes,
        }
    }

    /// A standalone cumulative-ack frame: one header plus an 8-byte
    /// cumulative sequence number, no tuples.  Acks only exist when a fault
    /// plan is installed; on reliable links they are never emitted, so the
    /// baseline bandwidth figures are unchanged.
    pub fn ack() -> Self {
        Frame {
            tuple_bytes: 0,
            frame_overhead: 8,
        }
    }

    /// Charges one tuple's payload bytes (encoding plus annotations).
    pub fn push_tuple(&mut self, bytes: usize) {
        self.tuple_bytes += bytes;
    }

    /// Sets the frame-level overhead paid once per frame (e.g. the single
    /// `says` proof that covers every tuple).
    pub fn set_frame_overhead(&mut self, bytes: usize) {
        self.frame_overhead = bytes;
    }

    /// Payload bytes: the per-frame overhead plus every tuple's bytes.
    pub fn payload_bytes(&self) -> usize {
        self.frame_overhead + self.tuple_bytes
    }

    /// Total wire bytes: one message header plus the payload.
    pub fn wire_bytes(&self) -> usize {
        message_wire_bytes(self.payload_bytes())
    }
}

/// Appends a length-prefixed byte string (`u32` big-endian length).
pub fn put_len_prefixed(out: &mut BytesMut, data: &[u8]) {
    out.put_u32(data.len() as u32);
    out.put_slice(data);
}

/// Reads a length-prefixed byte string written by [`put_len_prefixed`].
pub fn get_len_prefixed(buf: &mut Bytes) -> Option<Bytes> {
    if buf.remaining() < 4 {
        return None;
    }
    let len = buf.get_u32() as usize;
    if buf.remaining() < len {
        return None;
    }
    Some(buf.copy_to_bytes(len))
}

/// Encoded size of a length-prefixed byte string.
pub fn len_prefixed_size(data_len: usize) -> usize {
    4 + data_len
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_overhead_is_charged_once_per_message() {
        assert_eq!(message_wire_bytes(0), MESSAGE_HEADER_BYTES);
        assert_eq!(message_wire_bytes(100), MESSAGE_HEADER_BYTES + 100);
    }

    #[test]
    fn frame_accounting_charges_header_and_proof_once() {
        let mut frame = Frame::new();
        assert_eq!(frame.wire_bytes(), MESSAGE_HEADER_BYTES);
        frame.set_frame_overhead(64);
        frame.push_tuple(30);
        frame.push_tuple(42);
        frame.push_tuple(30);
        assert_eq!(frame.payload_bytes(), 64 + 30 + 42 + 30);
        assert_eq!(frame.wire_bytes(), MESSAGE_HEADER_BYTES + 64 + 102);
        // A one-tuple frame costs exactly what a per-tuple message did:
        // header + payload + proof, nothing extra.
        let mut single = Frame::new();
        single.set_frame_overhead(64);
        single.push_tuple(30);
        assert_eq!(single.wire_bytes(), message_wire_bytes(30 + 64));
    }

    #[test]
    fn handshake_frames_charge_transcript_and_signature() {
        let hs = Frame::handshake(20, 64);
        assert_eq!(hs.payload_bytes(), 84);
        assert_eq!(hs.wire_bytes(), MESSAGE_HEADER_BYTES + 84);
    }

    #[test]
    fn ack_frames_charge_header_plus_cumulative_seq() {
        let ack = Frame::ack();
        assert_eq!(ack.wire_bytes(), MESSAGE_HEADER_BYTES + 8);
    }

    #[test]
    fn length_prefixed_roundtrip() {
        let mut out = BytesMut::new();
        put_len_prefixed(&mut out, b"hello");
        put_len_prefixed(&mut out, b"");
        put_len_prefixed(&mut out, &[0xffu8; 300]);
        assert_eq!(
            out.len(),
            len_prefixed_size(5) + len_prefixed_size(0) + len_prefixed_size(300)
        );
        let mut buf = out.freeze();
        assert_eq!(get_len_prefixed(&mut buf).unwrap().as_ref(), b"hello");
        assert_eq!(get_len_prefixed(&mut buf).unwrap().as_ref(), b"");
        assert_eq!(get_len_prefixed(&mut buf).unwrap().len(), 300);
        assert!(get_len_prefixed(&mut buf).is_none());
    }

    #[test]
    fn truncated_input_is_rejected() {
        let mut out = BytesMut::new();
        out.put_u32(10);
        out.put_slice(b"short");
        let mut buf = out.freeze();
        assert!(get_len_prefixed(&mut buf).is_none());
        let mut tiny = Bytes::from_static(&[0, 0]);
        assert!(get_len_prefixed(&mut tiny).is_none());
    }
}
