//! Property tests on the wire formats that cross node boundaries: whatever a
//! node serialises (tuples, `says` proofs, length-prefixed frames), the
//! receiving node must decode back bit-for-bit.  The bandwidth figures of the
//! evaluation (Figure 4) are computed from these encodings, so their length
//! accounting is checked here too.

use bytes::{Bytes, BytesMut};
use pasn_crypto::{SaysLevel, SaysProof};
use pasn_datalog::Value;
use pasn_engine::Tuple;
use pasn_net::wire;
use proptest::prelude::*;

/// A strategy over scalar values (everything except lists).
fn scalar_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i64>().prop_map(Value::Int),
        any::<bool>().prop_map(Value::Bool),
        any::<u32>().prop_map(Value::Addr),
        "[a-zA-Z0-9_.:@-]{0,24}".prop_map(|s| Value::Str(s.into())),
    ]
}

/// A strategy over values including one level of list nesting (the shape the
/// path-vector programs produce).
fn value() -> impl Strategy<Value = Value> {
    prop_oneof![
        scalar_value(),
        prop::collection::vec(scalar_value(), 0..6).prop_map(|items| Value::List(items.into())),
    ]
}

proptest! {
    #[test]
    fn tuple_encoding_round_trips(
        predicate in "[a-z][a-zA-Z0-9]{0,12}",
        values in prop::collection::vec(value(), 0..6),
    ) {
        let tuple = Tuple::new(predicate, values);
        let encoded = tuple.encode();
        let (decoded, consumed) = Tuple::decode(&encoded).expect("well-formed encoding decodes");
        prop_assert_eq!(consumed, encoded.len());
        prop_assert_eq!(decoded, tuple);
    }

    #[test]
    fn tuple_decoding_never_panics_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
        // Arbitrary bytes either decode into some tuple or are rejected —
        // never a panic, and never a read past the buffer.
        if let Some((_, consumed)) = Tuple::decode(&bytes) {
            prop_assert!(consumed <= bytes.len());
        }
    }

    #[test]
    fn says_proofs_round_trip(kind in 0u8..3, payload in prop::collection::vec(any::<u8>(), 0..96)) {
        let proof = match kind {
            0 => SaysProof::Cleartext,
            1 => {
                let mut tag = [0u8; 32];
                for (i, b) in payload.iter().take(32).enumerate() {
                    tag[i] = *b;
                }
                SaysProof::Hmac(tag)
            }
            _ => SaysProof::Rsa(payload.clone()),
        };
        let bytes = proof.to_bytes();
        let (decoded, consumed) = SaysProof::from_bytes(&bytes).expect("round trip");
        prop_assert_eq!(consumed, bytes.len());
        prop_assert_eq!(decoded.level(), proof.level());
        prop_assert_eq!(decoded, proof);
    }

    #[test]
    fn length_prefixed_frames_round_trip(payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..48), 0..8)) {
        let mut buf = BytesMut::new();
        for p in &payloads {
            wire::put_len_prefixed(&mut buf, p);
        }
        let total: usize = payloads.iter().map(|p| wire::len_prefixed_size(p.len())).sum();
        prop_assert_eq!(buf.len(), total);

        let mut cursor: Bytes = buf.freeze();
        for p in &payloads {
            let frame = wire::get_len_prefixed(&mut cursor).expect("frame present");
            prop_assert_eq!(frame.as_ref(), p.as_slice());
        }
        prop_assert!(wire::get_len_prefixed(&mut cursor).is_none());
    }

    #[test]
    fn proof_levels_are_totally_ordered_by_strength(payload in prop::collection::vec(any::<u8>(), 1..32)) {
        let cleartext = SaysProof::Cleartext;
        let hmac = SaysProof::Hmac([0u8; 32]);
        let rsa = SaysProof::Rsa(payload);
        prop_assert!(cleartext.level() < hmac.level());
        prop_assert!(hmac.level() < rsa.level());
        prop_assert_eq!(cleartext.level(), SaysLevel::Cleartext);
        // Wire length grows with strength for any non-trivial signature.
        prop_assert!(cleartext.to_bytes().len() < hmac.to_bytes().len());
    }
}
