//! Materialised tuples and their wire encoding.

use pasn_datalog::Value;
use std::collections::hash_map::DefaultHasher;
use std::fmt::{self, Write};
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// A materialised tuple: a predicate applied to concrete values.
///
/// Both parts are shared: the name is the interned predicate's `Arc<str>`
/// and the values are the stored row's `Arc<[Value]>`, so a read hands out
/// two refcount bumps per row instead of copying either.  Equality, hashing,
/// [`Tuple::encode`] and `Display` read the contents and are the same as for
/// an owned `String` and `Vec<Value>`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Tuple {
    /// Predicate name.
    pub predicate: Arc<str>,
    /// Attribute values, in declaration order.
    pub values: Values,
}

/// A tuple's attribute values: a shared, immutable row.  It reads as a
/// `[Value]` slice, and compares, hashes and prints as one.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Values(Arc<[Value]>);

impl Deref for Values {
    type Target = [Value];

    #[inline]
    fn deref(&self) -> &[Value] {
        &self.0
    }
}

impl fmt::Debug for Values {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

impl PartialEq<Vec<Value>> for Values {
    fn eq(&self, other: &Vec<Value>) -> bool {
        *self.0 == **other
    }
}

impl From<Vec<Value>> for Values {
    fn from(values: Vec<Value>) -> Self {
        Values(values.into())
    }
}

impl From<Arc<[Value]>> for Values {
    #[inline]
    fn from(values: Arc<[Value]>) -> Self {
        Values(values)
    }
}

impl From<Values> for Arc<[Value]> {
    #[inline]
    fn from(values: Values) -> Self {
        values.0
    }
}

/// Canonical byte encoding of a `(predicate, values)` pair — identical to
/// [`Tuple::encode`] but borrowing its parts, so the store and runtime can
/// encode shared rows without materialising a `Tuple` first.
pub(crate) fn encode_parts(predicate: &str, values: &[Value]) -> Vec<u8> {
    let mut out = Vec::with_capacity(encoded_len_parts(predicate, values));
    out.extend_from_slice(&(predicate.len() as u16).to_be_bytes());
    out.extend_from_slice(predicate.as_bytes());
    out.extend_from_slice(&(values.len() as u16).to_be_bytes());
    for v in values {
        v.encode(&mut out);
    }
    out
}

/// Number of bytes [`encode_parts`] produces.
pub(crate) fn encoded_len_parts(predicate: &str, values: &[Value]) -> usize {
    2 + predicate.len() + 2 + values.iter().map(Value::encoded_len).sum::<usize>()
}

/// The stable 64-bit tuple key of a `(predicate, values)` pair: the unique
/// key of a base input tuple in provenance expressions, and what the
/// sampling policy decides by.
pub(crate) fn key_hash_parts(predicate: &str, values: &[Value]) -> u64 {
    let mut hasher = DefaultHasher::new();
    predicate.hash(&mut hasher);
    values.hash(&mut hasher);
    hasher.finish()
}

/// Writes a `(predicate, values)` pair with a location marker into `out`,
/// e.g. `reachable(@n0,n2)`: the one tuple renderer, behind
/// [`Tuple::render_located`] and `Display for Tuple`, borrowing its parts
/// and formatting each value straight into `out`.
pub(crate) fn render_located_parts<W: Write + ?Sized>(
    out: &mut W,
    predicate: &str,
    values: &[Value],
    location_index: Option<usize>,
) -> fmt::Result {
    out.write_str(predicate)?;
    out.write_char('(')?;
    for (i, value) in values.iter().enumerate() {
        if i > 0 {
            out.write_char(',')?;
        }
        if Some(i) == location_index {
            out.write_char('@')?;
        }
        write!(out, "{value}")?;
    }
    out.write_char(')')
}

/// Renders a `(predicate, values)` pair into `buf`, cleared first, and
/// lends the text: a caller that keeps one buffer renders key after key
/// without allocating, and allocates once more only to keep one.
pub(crate) fn render_into<'b>(
    buf: &'b mut String,
    predicate: &str,
    values: &[Value],
    location_index: Option<usize>,
) -> &'b str {
    buf.clear();
    render_located_parts(buf, predicate, values, location_index)
        .expect("writing to a String cannot fail");
    buf
}

impl Tuple {
    /// Creates a tuple.
    pub fn new(predicate: impl Into<Arc<str>>, values: impl Into<Values>) -> Self {
        Tuple {
            predicate: predicate.into(),
            values: values.into(),
        }
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Canonical byte encoding: length-prefixed predicate, attribute count,
    /// then each value in the shared [`Value`] encoding.  This is what gets
    /// signed by `says` and what the bandwidth accounting charges.
    pub fn encode(&self) -> Vec<u8> {
        encode_parts(&self.predicate, &self.values)
    }

    /// Decodes a tuple previously produced by [`Tuple::encode`].
    pub fn decode(bytes: &[u8]) -> Option<(Tuple, usize)> {
        if bytes.len() < 2 {
            return None;
        }
        let plen = u16::from_be_bytes([bytes[0], bytes[1]]) as usize;
        let predicate = std::str::from_utf8(bytes.get(2..2 + plen)?).ok()?;
        let mut offset = 2 + plen;
        let count_raw: [u8; 2] = bytes.get(offset..offset + 2)?.try_into().ok()?;
        let count = u16::from_be_bytes(count_raw) as usize;
        offset += 2;
        // Every value encodes to at least two bytes: a count the remaining
        // input cannot hold is refused before anything is reserved for it.
        if count > (bytes.len() - offset) / 2 {
            return None;
        }
        let mut values = Vec::with_capacity(count);
        for _ in 0..count {
            let (v, used) = Value::decode(&bytes[offset..])?;
            values.push(v);
            offset += used;
        }
        Some((Tuple::new(predicate, values), offset))
    }

    /// Renders the tuple with a location marker on the given attribute, e.g.
    /// `reachable(@n0,n2)`; this is the key format used by the provenance
    /// graph and the stores.
    pub fn render_located(&self, location_index: Option<usize>) -> String {
        let mut out = String::new();
        render_into(&mut out, &self.predicate, &self.values, location_index);
        out
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        render_located_parts(f, &self.predicate, &self.values, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> Tuple {
        Tuple::new(
            "bestPath",
            vec![
                Value::Addr(0),
                Value::Addr(3),
                Value::List(vec![Value::Addr(0), Value::Addr(1), Value::Addr(3)].into()),
                Value::Int(7),
            ],
        )
    }

    #[test]
    fn display_and_located_rendering() {
        let t = sample();
        assert_eq!(t.to_string(), "bestPath(n0,n3,[n0,n1,n3],7)");
        assert_eq!(t.render_located(Some(0)), "bestPath(@n0,n3,[n0,n1,n3],7)");
        assert_eq!(t.arity(), 4);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let t = sample();
        let bytes = t.encode();
        assert_eq!(bytes.len(), encoded_len_parts(&t.predicate, &t.values));
        let (decoded, used) = Tuple::decode(&bytes).unwrap();
        assert_eq!(decoded, t);
        assert_eq!(used, bytes.len());
    }

    #[test]
    fn decode_rejects_truncation() {
        let t = sample();
        let bytes = t.encode();
        for cut in [0usize, 1, 3, bytes.len() - 1] {
            assert!(Tuple::decode(&bytes[..cut]).is_none(), "cut at {cut}");
        }
        // Attacker-chosen lengths inside a well-formed tuple frame: a list
        // claiming 2^32 - 1 items (this used to abort on the reservation), a
        // tuple claiming more values than bytes remain, and list tags nested
        // far past the decoder's depth bound.
        let frame = |count: u16, body: &[u8]| {
            let mut bytes = vec![0, 1, b'p'];
            bytes.extend_from_slice(&count.to_be_bytes());
            bytes.extend_from_slice(body);
            bytes
        };
        assert!(Tuple::decode(&frame(1, &[4, 0xff, 0xff, 0xff, 0xff])).is_none());
        assert!(Tuple::decode(&frame(u16::MAX, &[2, 1])).is_none());
        let mut nested = [4u8, 0, 0, 0, 1].repeat(100_000);
        nested.extend_from_slice(&[2, 1]);
        assert!(Tuple::decode(&frame(1, &nested)).is_none());
        assert!(Tuple::decode(&frame(1, &[2, 1])).is_some());
    }

    #[test]
    fn parts_helpers_agree_with_tuple_methods() {
        // The store and runtime encode and hash borrowed `(predicate,
        // values)` parts; they must stay byte-identical to the Tuple API
        // (signatures, bandwidth accounting and provenance ids depend on it).
        // Rendering has one definition for both, pinned by the proptest below.
        let t = sample();
        assert_eq!(encode_parts(&t.predicate, &t.values), t.encode());
        assert_eq!(encoded_len_parts(&t.predicate, &t.values), t.encode().len());
    }

    #[test]
    fn key_hash_distinguishes_tuples() {
        let a = Tuple::new("link", vec![Value::Addr(0), Value::Addr(1)]);
        let b = Tuple::new("link", vec![Value::Addr(1), Value::Addr(0)]);
        let c = Tuple::new("linc", vec![Value::Addr(0), Value::Addr(1)]);
        let key_hash = |t: &Tuple| key_hash_parts(&t.predicate, &t.values);
        assert_eq!(key_hash(&a), key_hash(&a.clone()));
        assert_ne!(key_hash(&a), key_hash(&b));
        assert_ne!(key_hash(&a), key_hash(&c));
    }

    /// The renderer as it was defined before it wrote into one buffer: a
    /// `String` per value, collected and joined.  Kept verbatim as the
    /// oracle every provenance key, archive entry and trace must match.
    fn render_joined(predicate: &str, values: &[Value], location_index: Option<usize>) -> String {
        let args: Vec<String> = values
            .iter()
            .enumerate()
            .map(|(i, v)| {
                if Some(i) == location_index {
                    format!("@{v}")
                } else {
                    v.to_string()
                }
            })
            .collect();
        format!("{}({})", predicate, args.join(","))
    }

    /// Values of every kind, lists nested three deep and possibly empty,
    /// strings carrying the renderer's own separators.
    fn arb_value() -> impl Strategy<Value = Value> {
        let leaf = prop_oneof![
            any::<i64>().prop_map(Value::Int),
            (-9i64..0).prop_map(Value::Int),
            "[a-z,(@)]{0,4}".prop_map(|s| Value::Str(s.into())),
            any::<bool>().prop_map(Value::Bool),
            (0u32..200).prop_map(Value::Addr),
        ];
        leaf.prop_recursive(3, 24, 4, |inner| {
            prop_oneof![
                inner.clone(),
                proptest::collection::vec(inner, 0..4).prop_map(|items| Value::List(items.into())),
            ]
        })
    }

    /// `Tuple` as it was defined before it shared the stored row: an owned
    /// name and an owned value vector, with the derived `Hash` and the
    /// methods kept verbatim.  The oracle that every provenance key, base
    /// tuple id, sampling decision, signature and wire byte must match.
    #[derive(Clone, PartialEq, Eq, Hash, Debug)]
    struct OwnedTuple {
        predicate: String,
        values: Vec<Value>,
    }

    impl OwnedTuple {
        fn encode(&self) -> Vec<u8> {
            encode_parts(&self.predicate, &self.values)
        }

        fn decode(bytes: &[u8]) -> Option<(OwnedTuple, usize)> {
            if bytes.len() < 2 {
                return None;
            }
            let plen = u16::from_be_bytes([bytes[0], bytes[1]]) as usize;
            let predicate = String::from_utf8(bytes.get(2..2 + plen)?.to_vec()).ok()?;
            let mut offset = 2 + plen;
            let count_raw: [u8; 2] = bytes.get(offset..offset + 2)?.try_into().ok()?;
            let count = u16::from_be_bytes(count_raw) as usize;
            offset += 2;
            if count > (bytes.len() - offset) / 2 {
                return None;
            }
            let mut values = Vec::with_capacity(count);
            for _ in 0..count {
                let (v, used) = Value::decode(&bytes[offset..])?;
                values.push(v);
                offset += used;
            }
            Some((OwnedTuple { predicate, values }, offset))
        }

        fn render_located(&self, location_index: Option<usize>) -> String {
            let mut out = String::new();
            render_into(&mut out, &self.predicate, &self.values, location_index);
            out
        }
    }

    impl fmt::Display for OwnedTuple {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            render_located_parts(f, &self.predicate, &self.values, None)
        }
    }

    fn std_hash<T: Hash>(value: &T) -> u64 {
        let mut hasher = DefaultHasher::new();
        value.hash(&mut hasher);
        hasher.finish()
    }

    proptest! {
        #[test]
        fn prop_a_shared_tuple_is_byte_identical_to_an_owned_one(
            predicate in "[a-zA-Z_]{1,8}",
            values in proptest::collection::vec(arb_value(), 0..5),
            location in 0usize..6,
        ) {
            let owned = OwnedTuple { predicate: predicate.clone(), values: values.clone() };
            let shared = Tuple::new(predicate, values);
            prop_assert_eq!(std_hash(&shared), std_hash(&owned));
            prop_assert_eq!(format!("{shared:?}"), format!("{owned:?}").replace("OwnedTuple", "Tuple"));
            let bytes = shared.encode();
            prop_assert_eq!(&bytes, &owned.encode());
            prop_assert_eq!(bytes.len(), encoded_len_parts(&owned.predicate, &owned.values));
            prop_assert_eq!(shared.to_string(), owned.to_string());
            for loc in [None, Some(location)] {
                prop_assert_eq!(shared.render_located(loc), owned.render_located(loc));
            }
            let (decoded, used) = Tuple::decode(&bytes).expect("round trip");
            let (decoded_owned, used_owned) = OwnedTuple::decode(&bytes).expect("round trip");
            prop_assert_eq!(used, used_owned);
            prop_assert_eq!(&*decoded.predicate, decoded_owned.predicate.as_str());
            prop_assert_eq!(decoded.values, decoded_owned.values);
            // Every truncation is refused by both.
            for cut in 0..bytes.len() {
                prop_assert_eq!(
                    Tuple::decode(&bytes[..cut]).is_none(),
                    OwnedTuple::decode(&bytes[..cut]).is_none()
                );
            }
        }

        #[test]
        fn prop_the_renderer_is_byte_identical_to_the_joined_one(
            predicate in "[a-zA-Z_]{1,8}",
            values in proptest::collection::vec(arb_value(), 0..5),
            location in 0usize..7,
        ) {
            let tuple = Tuple::new(predicate.clone(), values.clone());
            prop_assert_eq!(tuple.to_string(), render_joined(&predicate, &values, None));
            // Every position, and past the end (5 and 6 always are).
            for loc in [None, Some(location)].into_iter().chain((0..values.len()).map(Some)) {
                prop_assert_eq!(
                    tuple.render_located(loc),
                    render_joined(&predicate, &values, loc)
                );
            }
        }
    }
}
