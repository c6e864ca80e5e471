//! Deterministic binary snapshot codec.
//!
//! The workspace's `serde` dependency resolves to a vendored API stand-in
//! whose derives are no-ops (the build environment has no crates.io
//! access), so live servicing cannot lean on it for real byte-level
//! save/restore. This crate is the codec the snapshot path actually uses:
//! a small [`Snap`] trait with hand-rolled, deterministic encode/decode —
//! fixed-width little-endian integers, `u64`-prefixed lengths, `f64` by
//! IEEE bit pattern, ordered containers in their iteration order and
//! hash containers re-ordered by key — so the same state always produces
//! the same bytes and the bytes round-trip bit-identically.
//!
//! Every state-bearing crate implements [`Snap`] for its own types next to
//! their definitions (private fields keep the impls out of a central
//! registry) through the [`snap_struct!`], [`snap_newtype!`] and
//! [`snap_unit_enum!`] macros.
//!
//! ```
//! use dredbox_snap::{Reader, Snap};
//!
//! let mut bytes = Vec::new();
//! (42u32, String::from("rack"), vec![1u64, 2, 3]).snap(&mut bytes);
//! let mut r = Reader::new(&bytes);
//! let back = <(u32, String, Vec<u64>)>::unsnap(&mut r)?;
//! assert_eq!(back, (42, String::from("rack"), vec![1, 2, 3]));
//! assert!(r.is_empty());
//! # Ok::<(), dredbox_snap::SnapError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

/// Decoding failure: the byte stream does not describe the requested type.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SnapError {
    /// The reader ran out of bytes.
    Eof {
        /// Bytes the decoder asked for.
        needed: usize,
        /// Bytes left in the stream.
        remaining: usize,
    },
    /// An enum tag byte matched no variant of the named type.
    Tag {
        /// Type being decoded.
        ty: &'static str,
        /// The offending tag value.
        tag: u8,
    },
    /// A string's bytes were not valid UTF-8.
    Utf8,
    /// A length prefix exceeded what the platform can address.
    Length {
        /// The offending length.
        len: u64,
    },
    /// The stream header did not carry the expected magic bytes.
    Magic,
    /// The stream was written by an incompatible format version.
    Version {
        /// Version found in the stream.
        found: u32,
        /// Version this build understands.
        expected: u32,
    },
    /// The stream decoded, but its parts contradict each other — e.g. a
    /// recorded index section that disagrees with the state it indexes.
    Inconsistent {
        /// Type being decoded.
        ty: &'static str,
    },
}

impl std::fmt::Display for SnapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapError::Eof { needed, remaining } => {
                write!(
                    f,
                    "unexpected end of snapshot: needed {needed} bytes, {remaining} left"
                )
            }
            SnapError::Tag { ty, tag } => write!(f, "invalid tag {tag} while decoding {ty}"),
            SnapError::Utf8 => write!(f, "snapshot string is not valid UTF-8"),
            SnapError::Length { len } => write!(f, "snapshot length {len} is unaddressable"),
            SnapError::Magic => write!(f, "not a snapshot stream (bad magic)"),
            SnapError::Version { found, expected } => {
                write!(f, "snapshot format v{found} incompatible with v{expected}")
            }
            SnapError::Inconsistent { ty } => {
                write!(f, "snapshot {ty} contradicts its own recorded state")
            }
        }
    }
}

impl std::error::Error for SnapError {}

/// A cursor over an encoded byte stream.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Starts reading at the beginning of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Whether every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Takes the next `n` bytes.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError::Eof`] if fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::Eof {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let chunk = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(chunk)
    }

    /// Takes a `u64` length prefix and converts it to `usize`.
    ///
    /// # Errors
    ///
    /// Propagates [`SnapError::Eof`]; returns [`SnapError::Length`] if the
    /// value does not fit a `usize`.
    pub fn take_len(&mut self) -> Result<usize, SnapError> {
        let raw = u64::unsnap(self)?;
        usize::try_from(raw).map_err(|_| SnapError::Length { len: raw })
    }
}

/// Deterministic binary encode/decode.
///
/// Encoding the same value always produces the same bytes, and decoding
/// those bytes reproduces a value equal to the original — the snapshot
/// invariant the system save/restore path is built on.
pub trait Snap: Sized {
    /// Appends this value's encoding to `out`.
    fn snap(&self, out: &mut Vec<u8>);
    /// Decodes one value from the reader.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapError`] if the stream is truncated or malformed.
    fn unsnap(r: &mut Reader<'_>) -> Result<Self, SnapError>;
}

macro_rules! snap_int {
    ($($ty:ty),+) => {
        $(impl Snap for $ty {
            fn snap(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn unsnap(r: &mut Reader<'_>) -> Result<Self, SnapError> {
                let bytes = r.take(std::mem::size_of::<$ty>())?;
                Ok(<$ty>::from_le_bytes(bytes.try_into().expect("exact take")))
            }
        })+
    };
}

snap_int!(u8, u16, u32, u64, i8, i16, i32, i64);

impl Snap for usize {
    fn snap(&self, out: &mut Vec<u8>) {
        (*self as u64).snap(out);
    }
    fn unsnap(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        r.take_len()
    }
}

impl Snap for bool {
    fn snap(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn unsnap(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        match u8::unsnap(r)? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(SnapError::Tag { ty: "bool", tag }),
        }
    }
}

impl Snap for f64 {
    fn snap(&self, out: &mut Vec<u8>) {
        self.to_bits().snap(out);
    }
    fn unsnap(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        Ok(f64::from_bits(u64::unsnap(r)?))
    }
}

impl Snap for String {
    fn snap(&self, out: &mut Vec<u8>) {
        self.len().snap(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn unsnap(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        let len = r.take_len()?;
        let bytes = r.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| SnapError::Utf8)
    }
}

impl<T: Snap> Snap for Option<T> {
    fn snap(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.snap(out);
            }
        }
    }
    fn unsnap(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        match u8::unsnap(r)? {
            0 => Ok(None),
            1 => Ok(Some(T::unsnap(r)?)),
            tag => Err(SnapError::Tag { ty: "Option", tag }),
        }
    }
}

impl<T: Snap> Snap for Vec<T> {
    fn snap(&self, out: &mut Vec<u8>) {
        self.len().snap(out);
        for item in self {
            item.snap(out);
        }
    }
    fn unsnap(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        let len = r.take_len()?;
        let mut items = Vec::with_capacity(len.min(4096));
        for _ in 0..len {
            items.push(T::unsnap(r)?);
        }
        Ok(items)
    }
}

impl<T: Snap> Snap for VecDeque<T> {
    fn snap(&self, out: &mut Vec<u8>) {
        self.len().snap(out);
        for item in self {
            item.snap(out);
        }
    }
    fn unsnap(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        let len = r.take_len()?;
        let mut items = VecDeque::with_capacity(len.min(4096));
        for _ in 0..len {
            items.push_back(T::unsnap(r)?);
        }
        Ok(items)
    }
}

/// Sets and maps are written in ascending key order, and decoding
/// rejects anything else — an unordered or repeated key would otherwise
/// decode to a collection that re-encodes to different bytes.
impl<T: Snap + Ord> Snap for BTreeSet<T> {
    fn snap(&self, out: &mut Vec<u8>) {
        self.len().snap(out);
        for item in self {
            item.snap(out);
        }
    }
    fn unsnap(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        let len = r.take_len()?;
        let mut set = BTreeSet::new();
        for _ in 0..len {
            let item = T::unsnap(r)?;
            if set.last().is_some_and(|last| *last >= item) {
                return Err(SnapError::Inconsistent { ty: "BTreeSet" });
            }
            set.insert(item);
        }
        Ok(set)
    }
}

impl<K: Snap + Ord, V: Snap> Snap for BTreeMap<K, V> {
    fn snap(&self, out: &mut Vec<u8>) {
        self.len().snap(out);
        for (k, v) in self {
            k.snap(out);
            v.snap(out);
        }
    }
    fn unsnap(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        let len = r.take_len()?;
        let mut map = BTreeMap::new();
        for _ in 0..len {
            let k = K::unsnap(r)?;
            if map.last_key_value().is_some_and(|(last, _)| *last >= k) {
                return Err(SnapError::Inconsistent { ty: "BTreeMap" });
            }
            let v = V::unsnap(r)?;
            map.insert(k, v);
        }
        Ok(map)
    }
}

impl<K, V> Snap for HashMap<K, V>
where
    K: Snap + Ord + Clone + std::hash::Hash + Eq,
    V: Snap + Clone,
{
    /// Hash iteration order is not deterministic, so entries are emitted
    /// sorted by key — same state, same bytes, whatever the hasher did.
    fn snap(&self, out: &mut Vec<u8>) {
        let ordered: BTreeMap<K, V> = self.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        ordered.snap(out);
    }
    fn unsnap(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        let ordered = BTreeMap::<K, V>::unsnap(r)?;
        Ok(ordered.into_iter().collect())
    }
}

impl<A: Snap, B: Snap> Snap for (A, B) {
    fn snap(&self, out: &mut Vec<u8>) {
        self.0.snap(out);
        self.1.snap(out);
    }
    fn unsnap(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        Ok((A::unsnap(r)?, B::unsnap(r)?))
    }
}

impl<A: Snap, B: Snap, C: Snap> Snap for (A, B, C) {
    fn snap(&self, out: &mut Vec<u8>) {
        self.0.snap(out);
        self.1.snap(out);
        self.2.snap(out);
    }
    fn unsnap(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        Ok((A::unsnap(r)?, B::unsnap(r)?, C::unsnap(r)?))
    }
}

impl<T: Snap, const N: usize> Snap for [T; N] {
    fn snap(&self, out: &mut Vec<u8>) {
        for item in self {
            item.snap(out);
        }
    }
    fn unsnap(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        let mut items = Vec::with_capacity(N);
        for _ in 0..N {
            items.push(T::unsnap(r)?);
        }
        match items.try_into() {
            Ok(array) => Ok(array),
            Err(_) => unreachable!("exactly N items decoded"),
        }
    }
}

/// Encodes `len` items as a length-prefixed sequence — the layout of
/// `Vec`, `BTreeSet` and `BTreeMap` — straight from an iterator, so an
/// index can write a section it derives without collecting it first.
pub fn snap_seq<T: Snap>(len: usize, items: impl IntoIterator<Item = T>, out: &mut Vec<u8>) {
    len.snap(out);
    let mut written = 0usize;
    for item in items {
        item.snap(out);
        written += 1;
    }
    // A wrong prefix would corrupt every byte after it.
    assert_eq!(
        written, len,
        "sequence length prefix disagrees with its items"
    );
}

/// Decodes a length-prefixed sequence and checks it, item for item,
/// against `expected` — the decode side of [`snap_seq`] for sections a
/// type re-derives from its own state.
///
/// # Errors
///
/// Propagates decoding errors; returns [`SnapError::Inconsistent`] for
/// `ty` when the recorded sequence differs from `expected` in any item or
/// in length.
pub fn expect_seq<T: Snap + PartialEq>(
    r: &mut Reader<'_>,
    ty: &'static str,
    expected: impl IntoIterator<Item = T>,
) -> Result<(), SnapError> {
    let len = r.take_len()?;
    let mut expected = expected.into_iter();
    for _ in 0..len {
        let item = T::unsnap(r)?;
        if expected.next() != Some(item) {
            return Err(SnapError::Inconsistent { ty });
        }
    }
    match expected.next() {
        Some(_) => Err(SnapError::Inconsistent { ty }),
        None => Ok(()),
    }
}

/// Implements [`Snap`] for a struct with named fields, encoding the listed
/// fields in order. Invoke from the defining module so private fields are
/// in scope.
#[macro_export]
macro_rules! snap_struct {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::Snap for $ty {
            fn snap(&self, out: &mut ::std::vec::Vec<u8>) {
                $($crate::Snap::snap(&self.$field, out);)+
            }
            fn unsnap(
                r: &mut $crate::Reader<'_>,
            ) -> ::std::result::Result<Self, $crate::SnapError> {
                ::std::result::Result::Ok($ty {
                    $($field: $crate::Snap::unsnap(r)?,)+
                })
            }
        }
    };
}

/// Implements [`Snap`] for a single-field tuple struct (`Foo(inner)`).
#[macro_export]
macro_rules! snap_newtype {
    ($ty:ident($inner:ty)) => {
        impl $crate::Snap for $ty {
            fn snap(&self, out: &mut ::std::vec::Vec<u8>) {
                $crate::Snap::snap(&self.0, out);
            }
            fn unsnap(
                r: &mut $crate::Reader<'_>,
            ) -> ::std::result::Result<Self, $crate::SnapError> {
                ::std::result::Result::Ok($ty(<$inner as $crate::Snap>::unsnap(r)?))
            }
        }
    };
}

/// Implements [`Snap`] for an enum whose variants carry no data, using the
/// listed byte tags.
#[macro_export]
macro_rules! snap_unit_enum {
    ($ty:ident { $($variant:ident = $tag:literal),+ $(,)? }) => {
        impl $crate::Snap for $ty {
            fn snap(&self, out: &mut ::std::vec::Vec<u8>) {
                let tag: u8 = match self {
                    $($ty::$variant => $tag,)+
                };
                $crate::Snap::snap(&tag, out);
            }
            fn unsnap(
                r: &mut $crate::Reader<'_>,
            ) -> ::std::result::Result<Self, $crate::SnapError> {
                match <u8 as $crate::Snap>::unsnap(r)? {
                    $($tag => ::std::result::Result::Ok($ty::$variant),)+
                    tag => ::std::result::Result::Err($crate::SnapError::Tag {
                        ty: ::std::stringify!($ty),
                        tag,
                    }),
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Snap + PartialEq + std::fmt::Debug>(value: T) {
        let mut bytes = Vec::new();
        value.snap(&mut bytes);
        let mut r = Reader::new(&bytes);
        let back = T::unsnap(&mut r).expect("roundtrip decodes");
        assert_eq!(back, value);
        assert!(r.is_empty(), "decoder must consume every byte");
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0u8);
        roundtrip(u64::MAX);
        roundtrip(-7i64);
        roundtrip(usize::MAX);
        roundtrip(true);
        roundtrip(3.25f64);
        roundtrip(f64::NEG_INFINITY);
        roundtrip(String::from("dCOMPUBRICK"));
        roundtrip(String::new());
    }

    #[test]
    fn containers_roundtrip() {
        roundtrip(Some(9u32));
        roundtrip(Option::<u32>::None);
        roundtrip(vec![1u16, 2, 3]);
        roundtrip(VecDeque::from([4u64, 5]));
        roundtrip(BTreeSet::from([(3u64, 1u32), (1, 2)]));
        roundtrip(BTreeMap::from([
            (1u32, String::from("a")),
            (2, String::from("b")),
        ]));
        roundtrip((1u8, 2u16, 3u32));
        roundtrip([7u64; 3]);
    }

    #[test]
    fn unordered_or_repeated_keys_are_rejected() {
        // The same bytes a sequence of (key, value) pairs or of items
        // writes: only strictly ascending keys are a map's or set's.
        for keys in [[2u32, 1], [1, 1]] {
            let mut bytes = Vec::new();
            keys.len().snap(&mut bytes);
            for k in keys {
                k.snap(&mut bytes);
                0u8.snap(&mut bytes);
            }
            assert_eq!(
                BTreeMap::<u32, u8>::unsnap(&mut Reader::new(&bytes)),
                Err(SnapError::Inconsistent { ty: "BTreeMap" })
            );
            let mut bytes = Vec::new();
            keys.to_vec().snap(&mut bytes);
            assert_eq!(
                BTreeSet::<u32>::unsnap(&mut Reader::new(&bytes)),
                Err(SnapError::Inconsistent { ty: "BTreeSet" })
            );
        }
    }

    #[test]
    fn hash_maps_encode_sorted() {
        let mut forward = HashMap::new();
        let mut reverse = HashMap::new();
        for k in 0..64u64 {
            forward.insert(k, k * 2);
            reverse.insert(63 - k, (63 - k) * 2);
        }
        let mut a = Vec::new();
        let mut b = Vec::new();
        forward.snap(&mut a);
        reverse.snap(&mut b);
        assert_eq!(a, b, "insertion order must not leak into the encoding");
        roundtrip(forward);
    }

    #[test]
    fn truncated_streams_error_cleanly() {
        let mut bytes = Vec::new();
        vec![1u64, 2, 3].snap(&mut bytes);
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            assert!(
                Vec::<u64>::unsnap(&mut r).is_err(),
                "cut at {cut} must not decode"
            );
        }
    }

    #[test]
    fn bad_tags_are_rejected() {
        let mut r = Reader::new(&[7]);
        assert_eq!(
            bool::unsnap(&mut r),
            Err(SnapError::Tag { ty: "bool", tag: 7 })
        );
        let mut r = Reader::new(&[9]);
        assert!(matches!(
            Option::<u8>::unsnap(&mut r),
            Err(SnapError::Tag {
                ty: "Option",
                tag: 9
            })
        ));
    }

    #[test]
    fn derived_sequences_match_collected_ones() {
        let mut streamed = Vec::new();
        snap_seq(3, [(1u32, 5u64), (2, 6), (3, 7)], &mut streamed);
        let mut collected = Vec::new();
        BTreeSet::from([(1u32, 5u64), (2, 6), (3, 7)]).snap(&mut collected);
        assert_eq!(streamed, collected);

        let mut r = Reader::new(&streamed);
        assert_eq!(
            expect_seq(&mut r, "demo", [(1u32, 5u64), (2, 6), (3, 7)]),
            Ok(())
        );
        assert!(r.is_empty());
        for wrong in [
            vec![(1u32, 5u64), (2, 6)],
            vec![(1, 5), (2, 6), (3, 8)],
            vec![(1, 5), (2, 6), (3, 7), (4, 8)],
        ] {
            let mut r = Reader::new(&streamed);
            assert_eq!(
                expect_seq(&mut r, "demo", wrong),
                Err(SnapError::Inconsistent { ty: "demo" })
            );
        }
    }

    #[derive(Debug, PartialEq)]
    struct Demo {
        id: u32,
        name: String,
        tags: Vec<u8>,
    }
    snap_struct!(Demo { id, name, tags });

    #[derive(Debug, PartialEq)]
    struct Wrapper(u64);
    snap_newtype!(Wrapper(u64));

    #[derive(Debug, PartialEq)]
    enum Mode {
        Fast,
        Slow,
    }
    snap_unit_enum!(Mode { Fast = 0, Slow = 1 });

    #[test]
    fn macros_generate_working_impls() {
        roundtrip(Demo {
            id: 5,
            name: String::from("rack-0"),
            tags: vec![1, 2],
        });
        roundtrip(Wrapper(99));
        roundtrip(Mode::Fast);
        roundtrip(Mode::Slow);
        let mut r = Reader::new(&[2]);
        assert!(matches!(
            Mode::unsnap(&mut r),
            Err(SnapError::Tag { ty: "Mode", tag: 2 })
        ));
    }
}
