//! Explicit binary wire encoding for protocol messages.
//!
//! The paper states every bound in *bits of communication*; to regenerate those
//! bounds empirically every message sent between Alice and Bob in this workspace is
//! serialized through this module, so its size in bytes is exact and deterministic.
//!
//! The format is deliberately simple (little-endian fixed-width integers, LEB128-style
//! varints for lengths, length-prefixed sequences); it is not meant to interoperate
//! with anything, only to make communication measurable and decodable.

use std::fmt;

/// Errors produced while decoding a wire message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the value was fully decoded.
    UnexpectedEnd,
    /// A varint used more than 10 bytes.
    VarintOverflow,
    /// A length prefix or enum tag had an invalid value.
    Invalid(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::UnexpectedEnd => write!(f, "unexpected end of message"),
            WireError::VarintOverflow => write!(f, "varint overflow"),
            WireError::Invalid(what) => write!(f, "invalid wire data: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Types that can be serialized into the wire format.
pub trait Encode {
    /// Append the serialized representation of `self` to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);

    /// Serialized size in bytes (default: encode into a scratch buffer and count).
    fn encoded_len(&self) -> usize {
        let mut buf = Vec::new();
        self.encode(&mut buf);
        buf.len()
    }

    /// Convenience: serialize into a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode(&mut buf);
        buf
    }
}

/// Types that can be deserialized from the wire format.
pub trait Decode: Sized {
    /// Decode a value from the front of `buf`, advancing it past the consumed bytes.
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError>;

    /// Convenience: decode from a complete buffer, requiring it to be fully consumed.
    fn from_bytes(mut buf: &[u8]) -> Result<Self, WireError> {
        let value = Self::decode(&mut buf)?;
        if buf.is_empty() {
            Ok(value)
        } else {
            Err(WireError::Invalid("trailing bytes"))
        }
    }
}

/// Write an unsigned LEB128 varint.
pub fn write_uvarint(buf: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7F) as u8;
        value >>= 7;
        if value == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Read an unsigned LEB128 varint (an overflow past ten bytes or 64 bits).
pub fn read_uvarint(buf: &mut &[u8]) -> Result<u64, WireError> {
    let mut value: u64 = 0;
    let mut shift = 0u32;
    for i in 0.. {
        if i >= 10 {
            return Err(WireError::VarintOverflow);
        }
        let Some((&byte, rest)) = buf.split_first() else {
            return Err(WireError::UnexpectedEnd);
        };
        if i == 9 && byte > 1 {
            return Err(WireError::VarintOverflow);
        }
        *buf = rest;
        value |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
    }
    unreachable!()
}

/// Number of bytes a varint encoding of `value` occupies.
pub fn uvarint_len(value: u64) -> usize {
    if value == 0 {
        1
    } else {
        (64 - value.leading_zeros() as usize).div_ceil(7)
    }
}

fn take<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8], WireError> {
    if buf.len() < n {
        return Err(WireError::UnexpectedEnd);
    }
    let (head, rest) = buf.split_at(n);
    *buf = rest;
    Ok(head)
}

macro_rules! impl_fixed_int {
    ($ty:ty, $n:expr) => {
        impl Encode for $ty {
            fn encode(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.to_le_bytes());
            }
            fn encoded_len(&self) -> usize {
                $n
            }
        }
        impl Decode for $ty {
            fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
                let bytes = take(buf, $n)?;
                Ok(<$ty>::from_le_bytes(bytes.try_into().expect("fixed width")))
            }
        }
    };
}

impl_fixed_int!(u8, 1);
impl_fixed_int!(u16, 2);
impl_fixed_int!(u32, 4);
impl_fixed_int!(u64, 8);

impl Encode for bool {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(u8::from(*self));
    }
    fn encoded_len(&self) -> usize {
        1
    }
}

impl Decode for bool {
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        match u8::decode(buf)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Invalid("bool tag")),
        }
    }
}

/// `usize` is encoded as a varint (lengths and counts dominate; varints keep the
/// measured communication close to the information-theoretic size the paper counts).
impl Encode for usize {
    fn encode(&self, buf: &mut Vec<u8>) {
        write_uvarint(buf, *self as u64);
    }
    fn encoded_len(&self) -> usize {
        uvarint_len(*self as u64)
    }
}

/// A number a peer wrote — a length, a count, a bound — as it came off the
/// wire (a varint). It becomes a `usize` only through one of its two checked
/// exits, so no decoder sizes a table or a reservation from a number it did
/// not bound first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use]
pub struct Claimed(u64);

impl Claimed {
    /// A peer's number that arrived in some other form than a varint (a
    /// fixed-width field, a meter).
    pub fn new(value: u64) -> Self {
        Claimed(value)
    }

    /// The number, if it is at most `limit`; [`WireError::Invalid`] naming
    /// `what` otherwise.
    pub fn at_most(self, limit: usize, what: &'static str) -> Result<usize, WireError> {
        usize::try_from(self.0).ok().filter(|&n| n <= limit).ok_or(WireError::Invalid(what))
    }

    /// The number as a count of items of at least `item_bytes` (and at least
    /// one) bytes each, if `rest` can hold that many;
    /// [`WireError::UnexpectedEnd`] otherwise: the input ended before the
    /// items it announced.
    pub fn items_in(self, rest: &[u8], item_bytes: usize) -> Result<usize, WireError> {
        let room = rest.len() / item_bytes.max(1);
        usize::try_from(self.0).ok().filter(|&n| n <= room).ok_or(WireError::UnexpectedEnd)
    }
}

/// The number as the peer wrote it, for a report; a size comes out of the
/// two exits only.
impl From<Claimed> for u64 {
    fn from(claimed: Claimed) -> u64 {
        claimed.0
    }
}

impl Decode for Claimed {
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        read_uvarint(buf).map(Claimed)
    }
}

/// The unit type encodes to nothing (useful for empty control messages).
impl Encode for () {
    fn encode(&self, _buf: &mut Vec<u8>) {}
    fn encoded_len(&self) -> usize {
        0
    }
}

impl Decode for () {
    fn decode(_buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(())
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        write_uvarint(buf, self.len() as u64);
        for item in self {
            item.encode(buf);
        }
    }
    fn encoded_len(&self) -> usize {
        uvarint_len(self.len() as u64) + self.iter().map(Encode::encoded_len).sum::<usize>()
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        // Each element takes at least a byte, and the up-front reservation
        // takes no more memory than the input holds.
        let len = Claimed::decode(buf)?.items_in(buf, 1)?;
        let mut out = Vec::with_capacity(len.min(buf.len() / size_of::<T>().max(1)));
        for _ in 0..len {
            out.push(T::decode(buf)?);
        }
        Ok(out)
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            None => buf.push(0),
            Some(v) => {
                buf.push(1);
                v.encode(buf);
            }
        }
    }
    fn encoded_len(&self) -> usize {
        1 + self.as_ref().map_or(0, Encode::encoded_len)
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        match u8::decode(buf)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(buf)?)),
            _ => Err(WireError::Invalid("option tag")),
        }
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
        self.1.encode(buf);
    }
    fn encoded_len(&self) -> usize {
        self.0.encoded_len() + self.1.encoded_len()
    }
}

impl<A: Decode, B: Decode> Decode for (A, B) {
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok((A::decode(buf)?, B::decode(buf)?))
    }
}

impl<A: Encode, B: Encode, C: Encode> Encode for (A, B, C) {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
        self.1.encode(buf);
        self.2.encode(buf);
    }
    fn encoded_len(&self) -> usize {
        self.0.encoded_len() + self.1.encoded_len() + self.2.encoded_len()
    }
}

impl<A: Decode, B: Decode, C: Decode> Decode for (A, B, C) {
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok((A::decode(buf)?, B::decode(buf)?, C::decode(buf)?))
    }
}

/// Write `bytes` with an explicit length prefix — the borrowed-slice counterpart
/// of encoding a [`Bytes`] value, for encoders that already hold the bytes and
/// should not clone them into a temporary.
pub fn write_length_prefixed(buf: &mut Vec<u8>, bytes: &[u8]) {
    write_uvarint(buf, bytes.len() as u64);
    buf.extend_from_slice(bytes);
}

/// Read a length-prefixed byte slice, borrowing from the input buffer.
pub fn read_length_prefixed<'a>(buf: &mut &'a [u8]) -> Result<&'a [u8], WireError> {
    let len = Claimed::decode(buf)?.items_in(buf, 1)?;
    take(buf, len)
}

/// Raw bytes with an explicit length prefix.
///
/// Used for nested encodings (e.g. a serialized child IBLT carried as the key of an
/// outer IBLT).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Bytes(pub Vec<u8>);

impl Encode for Bytes {
    fn encode(&self, buf: &mut Vec<u8>) {
        write_length_prefixed(buf, &self.0);
    }
    fn encoded_len(&self) -> usize {
        uvarint_len(self.0.len() as u64) + self.0.len()
    }
}

impl Decode for Bytes {
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(Bytes(read_length_prefixed(buf)?.to_vec()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Encode + Decode + PartialEq + std::fmt::Debug>(value: T) {
        let bytes = value.to_bytes();
        assert_eq!(bytes.len(), value.encoded_len(), "encoded_len mismatch");
        let decoded = T::from_bytes(&bytes).expect("decode");
        assert_eq!(decoded, value);
    }

    #[test]
    fn fixed_ints_roundtrip() {
        roundtrip(0u8);
        roundtrip(255u8);
        roundtrip(1234u16);
        roundtrip(0xDEAD_BEEFu32);
        roundtrip(u64::MAX);
    }

    #[test]
    fn varint_roundtrip_and_lengths() {
        for v in [0u64, 1, 127, 128, 300, 16_383, 16_384, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            write_uvarint(&mut buf, v);
            assert_eq!(buf.len(), uvarint_len(v), "length mismatch for {v}");
            let mut slice = buf.as_slice();
            assert_eq!(read_uvarint(&mut slice).unwrap(), v);
            assert!(slice.is_empty());
        }
    }

    #[test]
    fn varint_rejects_truncation() {
        let mut buf = Vec::new();
        write_uvarint(&mut buf, u64::MAX);
        let mut slice = &buf[..buf.len() - 1];
        assert_eq!(read_uvarint(&mut slice), Err(WireError::UnexpectedEnd));
    }

    #[test]
    fn varint_rejects_overlong() {
        let buf = [0x80u8; 11];
        let mut slice = &buf[..];
        assert_eq!(read_uvarint(&mut slice), Err(WireError::VarintOverflow));
        // Ten bytes, but the tenth holds a 65th bit.
        let buf = [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02];
        assert_eq!(read_uvarint(&mut &buf[..]), Err(WireError::VarintOverflow));
    }

    #[test]
    fn vectors_and_tuples_roundtrip() {
        roundtrip(vec![1u64, 2, 3, u64::MAX]);
        roundtrip(Vec::<u32>::new());
        roundtrip((7u32, 9u64));
        roundtrip((1u8, 2u16, vec![3u32, 4]));
        roundtrip(vec![(1u64, 2u64), (3, 4)]);
    }

    #[test]
    fn options_roundtrip() {
        roundtrip(Option::<u64>::None);
        roundtrip(Some(99u64));
        roundtrip(vec![Some(1u32), None, Some(3)]);
    }

    #[test]
    fn bytes_roundtrip() {
        roundtrip(Bytes(vec![]));
        roundtrip(Bytes(vec![0, 1, 2, 255]));
    }

    #[test]
    fn bool_rejects_bad_tag() {
        assert!(bool::from_bytes(&[2]).is_err());
    }

    #[test]
    fn vec_rejects_absurd_length() {
        // Claims 2^40 elements but provides none.
        let mut buf = Vec::new();
        write_uvarint(&mut buf, 1 << 40);
        assert!(Vec::<u8>::from_bytes(&buf).is_err());
    }

    #[test]
    fn from_bytes_rejects_trailing_garbage() {
        let mut bytes = 5u32.to_bytes();
        bytes.push(0);
        assert!(u32::from_bytes(&bytes).is_err());
    }
}
