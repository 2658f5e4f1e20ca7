//! Runtime values carried in tuples.
//!
//! NDlog predicates range over a small set of scalar types: network
//! addresses (the values bound to location-specifier attributes), integers,
//! strings, booleans and lists (used for path vectors in the Best-Path
//! query).  The same type is used for constants in parsed programs and for
//! attribute values in materialised tuples, so the parser, the engine and the
//! provenance layer all agree on equality and hashing.

use std::fmt;
use std::sync::Arc;

/// Deepest list nesting [`Value::decode`] accepts.  The recursion depth of
/// the decoder is attacker-controlled (five bytes per level), so it is
/// bounded well above anything a program builds — path vectors nest once.
const MAX_DECODE_DEPTH: usize = 32;

/// Identifier of a network node / principal as it appears inside tuple
/// attributes.  The mapping to transport-level node identifiers is
/// maintained by the runtime (`pasn-engine`).
pub(crate) type Address = u32;

/// A scalar or list value stored in a tuple attribute.  The two
/// variable-size payloads are shared cells (`Arc<str>`, `Arc<[Value]>`), so
/// cloning any value — binding a slot, projecting a key, building a head — is
/// at most a reference-count bump; they hash, compare and encode exactly as
/// the slice they hold.
#[derive(Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum Value {
    /// A signed integer (path costs, counters, thresholds).
    Int(i64),
    /// A string constant.
    Str(Arc<str>),
    /// A boolean.
    Bool(bool),
    /// A network address / principal identifier (the type of location
    /// specifier attributes).
    Addr(Address),
    /// A list of values (path vectors, provenance digests).
    List(Arc<[Value]>),
}

impl Value {
    /// Human-readable type name used in error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Int(_) => "int",
            Value::Str(_) => "string",
            Value::Bool(_) => "bool",
            Value::Addr(_) => "address",
            Value::List(_) => "list",
        }
    }

    /// Extracts an integer, if this value is one.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Extracts an address, if this value is one.
    pub fn as_addr(&self) -> Option<Address> {
        match self {
            Value::Addr(a) => Some(*a),
            _ => None,
        }
    }

    /// Extracts a list, if this value is one.
    pub fn as_list(&self) -> Option<&[Value]> {
        match self {
            Value::List(l) => Some(l),
            _ => None,
        }
    }

    /// A stable byte encoding used for hashing, signatures and wire
    /// transport.  The encoding is self-delimiting: a tag byte followed by a
    /// fixed- or length-prefixed payload.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Value::Int(i) => {
                out.push(0);
                out.extend_from_slice(&i.to_be_bytes());
            }
            Value::Str(s) => {
                out.push(1);
                out.extend_from_slice(&(s.len() as u32).to_be_bytes());
                out.extend_from_slice(s.as_bytes());
            }
            Value::Bool(b) => {
                out.push(2);
                out.push(*b as u8);
            }
            Value::Addr(a) => {
                out.push(3);
                out.extend_from_slice(&a.to_be_bytes());
            }
            Value::List(items) => {
                out.push(4);
                out.extend_from_slice(&(items.len() as u32).to_be_bytes());
                for item in items.iter() {
                    item.encode(out);
                }
            }
        }
    }

    /// Decodes a value previously produced by [`Value::encode`]; returns the
    /// value and the number of bytes consumed.  The bytes may come from an
    /// unverified frame: a list length is never trusted for more than the
    /// bytes actually present, and nesting is bounded, so malformed input
    /// yields `None` — never a huge reservation or unbounded recursion.
    pub fn decode(bytes: &[u8]) -> Option<(Value, usize)> {
        Self::decode_nested(bytes, MAX_DECODE_DEPTH)
    }

    fn decode_nested(bytes: &[u8], depth: usize) -> Option<(Value, usize)> {
        let tag = *bytes.first()?;
        match tag {
            0 => {
                let raw: [u8; 8] = bytes.get(1..9)?.try_into().ok()?;
                Some((Value::Int(i64::from_be_bytes(raw)), 9))
            }
            1 => {
                let len_raw: [u8; 4] = bytes.get(1..5)?.try_into().ok()?;
                let len = u32::from_be_bytes(len_raw) as usize;
                let s = bytes.get(5..5usize.checked_add(len)?)?;
                Some((Value::Str(std::str::from_utf8(s).ok()?.into()), 5 + len))
            }
            2 => Some((Value::Bool(*bytes.get(1)? != 0), 2)),
            3 => {
                let raw: [u8; 4] = bytes.get(1..5)?.try_into().ok()?;
                Some((Value::Addr(u32::from_be_bytes(raw)), 5))
            }
            4 => {
                let depth = depth.checked_sub(1)?;
                let len_raw: [u8; 4] = bytes.get(1..5)?.try_into().ok()?;
                let len = u32::from_be_bytes(len_raw) as usize;
                let mut offset = 5;
                // Every item encodes to at least two bytes, so a length the
                // remaining input cannot hold is rejected before reserving.
                if len > (bytes.len() - offset) / 2 {
                    return None;
                }
                let mut items = Vec::with_capacity(len);
                for _ in 0..len {
                    let (item, used) = Value::decode_nested(&bytes[offset..], depth)?;
                    items.push(item);
                    offset += used;
                }
                Some((Value::List(items.into()), offset))
            }
            _ => None,
        }
    }

    /// Number of bytes [`Value::encode`] produces for this value; this is
    /// what the bandwidth accounting in `pasn-net` charges per attribute.
    pub fn encoded_len(&self) -> usize {
        match self {
            Value::Int(_) => 9,
            Value::Str(s) => 5 + s.len(),
            Value::Bool(_) => 2,
            Value::Addr(_) => 5,
            Value::List(items) => 5 + items.iter().map(|i| i.encoded_len()).sum::<usize>(),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Addr(a) => write!(f, "n{a}"),
            Value::List(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    #[test]
    fn accessors_match_variants() {
        assert_eq!(Value::Int(7).as_int(), Some(7));
        assert_eq!(Value::Str("x".into()).as_int(), None);
        assert_eq!(Value::Addr(3).as_addr(), Some(3));
        assert_eq!(
            Value::List(vec![Value::Int(1)].into()).as_list(),
            Some(&[Value::Int(1)][..])
        );
        assert_eq!(Value::Int(1).type_name(), "int");
        assert_eq!(Value::List(vec![].into()).type_name(), "list");
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Int(-3).to_string(), "-3");
        assert_eq!(Value::Str("hi".into()).to_string(), "hi");
        assert_eq!(Value::Addr(4).to_string(), "n4");
        assert_eq!(
            Value::List(vec![Value::Addr(1), Value::Addr(2)].into()).to_string(),
            "[n1,n2]"
        );
    }

    #[test]
    fn encode_decode_roundtrip_examples() {
        let values = vec![
            Value::Int(i64::MIN),
            Value::Int(0),
            Value::Str("reachable".into()),
            Value::Str("".into()),
            Value::Bool(false),
            Value::Addr(u32::MAX),
            Value::List(vec![].into()),
            Value::List(
                vec![
                    Value::Addr(1),
                    Value::List(vec![Value::Int(2), Value::Str("x".into())].into()),
                ]
                .into(),
            ),
        ];
        for v in values {
            let mut buf = Vec::new();
            v.encode(&mut buf);
            assert_eq!(buf.len(), v.encoded_len(), "length accounting for {v}");
            let (decoded, used) = Value::decode(&buf).unwrap();
            assert_eq!(decoded, v);
            assert_eq!(used, buf.len());
        }
    }

    #[test]
    fn decode_rejects_truncated_and_garbage() {
        assert!(Value::decode(&[]).is_none());
        assert!(Value::decode(&[0, 1, 2]).is_none());
        assert!(Value::decode(&[1, 0, 0, 0, 10, b'a']).is_none());
        assert!(Value::decode(&[99]).is_none());
        // A list length the remaining bytes cannot hold is refused before
        // anything is reserved for it (this input used to abort the process).
        assert!(Value::decode(&[4, 0xff, 0xff, 0xff, 0xff]).is_none());
        assert!(Value::decode(&[4, 0, 0, 0, 2, 2, 1]).is_none());
        // Nesting is bounded: one level past the limit is refused, the limit
        // itself still decodes.
        let nested = |levels: usize| {
            let mut bytes = [4u8, 0, 0, 0, 1].repeat(levels);
            bytes.extend_from_slice(&[2, 1]);
            bytes
        };
        assert!(Value::decode(&nested(MAX_DECODE_DEPTH)).is_some());
        assert!(Value::decode(&nested(MAX_DECODE_DEPTH + 1)).is_none());
        assert!(Value::decode(&nested(100_000)).is_none());
    }

    /// The payload layout before the shared cells — owned `String` / `Vec`
    /// — kept here only as the reference the `Arc`-backed [`Value`] must
    /// stay indistinguishable from.
    #[derive(Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
    enum Mirror {
        Int(i64),
        Str(String),
        Bool(bool),
        Addr(Address),
        List(Vec<Mirror>),
    }

    impl Mirror {
        fn value(&self) -> Value {
            match self {
                Mirror::Int(i) => Value::Int(*i),
                Mirror::Str(s) => Value::Str(s.as_str().into()),
                Mirror::Bool(b) => Value::Bool(*b),
                Mirror::Addr(a) => Value::Addr(*a),
                Mirror::List(items) => Value::List(items.iter().map(Mirror::value).collect()),
            }
        }

        fn encode(&self, out: &mut Vec<u8>) {
            match self {
                Mirror::Int(i) => {
                    out.push(0);
                    out.extend_from_slice(&i.to_be_bytes());
                }
                Mirror::Str(s) => {
                    out.push(1);
                    out.extend_from_slice(&(s.len() as u32).to_be_bytes());
                    out.extend_from_slice(s.as_bytes());
                }
                Mirror::Bool(b) => out.extend_from_slice(&[2, *b as u8]),
                Mirror::Addr(a) => {
                    out.push(3);
                    out.extend_from_slice(&a.to_be_bytes());
                }
                Mirror::List(items) => {
                    out.push(4);
                    out.extend_from_slice(&(items.len() as u32).to_be_bytes());
                    items.iter().for_each(|item| item.encode(out));
                }
            }
        }

        fn display(&self) -> String {
            match self {
                Mirror::Int(i) => i.to_string(),
                Mirror::Str(s) => s.clone(),
                Mirror::Bool(b) => b.to_string(),
                Mirror::Addr(a) => format!("n{a}"),
                Mirror::List(items) => {
                    let items: Vec<String> = items.iter().map(Mirror::display).collect();
                    format!("[{}]", items.join(","))
                }
            }
        }
    }

    fn std_hash(value: &impl Hash) -> u64 {
        let mut hasher = DefaultHasher::new();
        value.hash(&mut hasher);
        hasher.finish()
    }

    fn arb_mirror() -> impl Strategy<Value = Mirror> {
        let leaf = prop_oneof![
            any::<i64>().prop_map(Mirror::Int),
            "[a-z]{0,8}".prop_map(Mirror::Str),
            any::<bool>().prop_map(Mirror::Bool),
            any::<u32>().prop_map(Mirror::Addr),
        ];
        leaf.prop_recursive(3, 16, 4, |inner| {
            proptest::collection::vec(inner, 0..4).prop_map(Mirror::List)
        })
    }

    proptest! {
        #[test]
        fn prop_encode_decode_roundtrip(m in arb_mirror()) {
            let v = m.value();
            let mut buf = Vec::new();
            v.encode(&mut buf);
            prop_assert_eq!(buf.len(), v.encoded_len());
            let (decoded, used) = Value::decode(&buf).unwrap();
            prop_assert_eq!(&decoded, &v);
            prop_assert_eq!(used, buf.len());
            // Shared cells are invisible: bytes, rendering and the std hash
            // (provenance ids and sampling are derived from it) equal the
            // owned layout's.
            let mut mirrored = Vec::new();
            m.encode(&mut mirrored);
            prop_assert_eq!(buf, mirrored);
            prop_assert_eq!(v.to_string(), m.display());
            prop_assert_eq!(std_hash(&v), std_hash(&m));
        }

        #[test]
        fn prop_order_matches_the_owned_layout(a in arb_mirror(), b in arb_mirror()) {
            prop_assert_eq!(a.value().cmp(&b.value()), a.cmp(&b));
            prop_assert_eq!(a.value() == b.value(), a == b);
        }
    }
}
