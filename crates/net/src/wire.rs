//! Length-prefixed binary wire codec.
//!
//! All client↔SSP traffic and every at-rest object layout in this
//! reproduction is encoded with these helpers: explicit, versionable, and
//! with checked reads everywhere (the SSP is untrusted, so the client must
//! survive arbitrary bytes). We deliberately hand-roll this instead of using
//! `serde` — see DESIGN.md substitution #5.

use crate::error::NetError;

/// Serialize into a byte vector.
pub trait WireWrite {
    /// Appends the encoding of `self` to `out`.
    fn write(&self, out: &mut Vec<u8>);

    /// Convenience: encodes into a fresh vector.
    fn to_wire(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.write(&mut out);
        out
    }

    /// Appends the encodings of `items` back to back: the body of a
    /// `Vec<Self>`. Byte types override this with one slice copy.
    fn write_all(items: &[Self], out: &mut Vec<u8>)
    where
        Self: Sized,
    {
        for item in items {
            item.write(out);
        }
    }
}

/// Deserialize from a byte cursor.
pub trait WireRead: Sized {
    /// Decodes a value, advancing the cursor.
    fn read(r: &mut Cursor<'_>) -> Result<Self, NetError>;

    /// Convenience: decodes a value that must consume the whole buffer.
    fn from_wire(bytes: &[u8]) -> Result<Self, NetError> {
        let mut cur = Cursor::new(bytes);
        let v = Self::read(&mut cur)?;
        cur.expect_end()?;
        Ok(v)
    }

    /// Decodes `len` values back to back: the body of a `Vec<Self>`, whose
    /// caller has already checked `len` against the remaining input. Byte
    /// types override this with one slice copy.
    fn read_all(r: &mut Cursor<'_>, len: usize) -> Result<Vec<Self>, NetError> {
        // Grows from a capped guess: a hostile prefix must not reserve
        // `size_of::<Self>()` times the input.
        let mut out = Vec::with_capacity(len.min(4096));
        for _ in 0..len {
            out.push(Self::read(r)?);
        }
        Ok(out)
    }
}

/// A checked read cursor.
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Creates a cursor over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Errors unless fully consumed.
    pub fn expect_end(&self) -> Result<(), NetError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(NetError::Codec("trailing bytes"))
        }
    }

    /// Borrows a byte string encoded as a `Vec<u8>` (`u32` length, then
    /// the bytes) without copying it: the same checks as
    /// `Vec::<u8>::read`.
    pub fn take_bytes(&mut self) -> Result<&'a [u8], NetError> {
        let len = u32::read(self)? as usize;
        if len > self.remaining() {
            return Err(NetError::Codec("vector length exceeds input"));
        }
        self.take(len)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], NetError> {
        if self.remaining() < n {
            return Err(NetError::Codec("truncated input"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
}

macro_rules! impl_wire_uint {
    ($ty:ty) => {
        impl WireWrite for $ty {
            fn write(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_be_bytes());
            }
        }
        impl WireRead for $ty {
            fn read(r: &mut Cursor<'_>) -> Result<Self, NetError> {
                let bytes = r.take(std::mem::size_of::<$ty>())?;
                let mut arr = [0u8; std::mem::size_of::<$ty>()];
                arr.copy_from_slice(bytes);
                Ok(<$ty>::from_be_bytes(arr))
            }
        }
    };
}

impl WireWrite for u8 {
    fn write(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }

    fn write_all(items: &[u8], out: &mut Vec<u8>) {
        out.extend_from_slice(items);
    }
}

impl WireRead for u8 {
    fn read(r: &mut Cursor<'_>) -> Result<Self, NetError> {
        Ok(r.take(1)?[0])
    }

    /// Byte strings (stored values) are allocated exactly, in one copy.
    fn read_all(r: &mut Cursor<'_>, len: usize) -> Result<Vec<u8>, NetError> {
        Ok(r.take(len)?.to_vec())
    }
}

impl_wire_uint!(u16);
impl_wire_uint!(u32);
impl_wire_uint!(u64);
impl_wire_uint!(u128);

impl WireWrite for bool {
    fn write(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
}

impl WireRead for bool {
    fn read(r: &mut Cursor<'_>) -> Result<Self, NetError> {
        match u8::read(r)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(NetError::Codec("invalid bool")),
        }
    }
}

impl WireWrite for [u8; 16] {
    fn write(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self);
    }
}

impl WireRead for [u8; 16] {
    fn read(r: &mut Cursor<'_>) -> Result<Self, NetError> {
        let bytes = r.take(16)?;
        let mut arr = [0u8; 16];
        arr.copy_from_slice(bytes);
        Ok(arr)
    }
}

impl WireWrite for [u8; 32] {
    fn write(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self);
    }
}

impl WireRead for [u8; 32] {
    fn read(r: &mut Cursor<'_>) -> Result<Self, NetError> {
        let bytes = r.take(32)?;
        let mut arr = [0u8; 32];
        arr.copy_from_slice(bytes);
        Ok(arr)
    }
}

impl WireWrite for String {
    fn write(&self, out: &mut Vec<u8>) {
        (self.len() as u32).write(out);
        out.extend_from_slice(self.as_bytes());
    }
}

impl WireRead for String {
    fn read(r: &mut Cursor<'_>) -> Result<Self, NetError> {
        let len = u32::read(r)? as usize;
        let bytes = r.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| NetError::Codec("invalid utf-8"))
    }
}

impl<T: WireWrite> WireWrite for Option<T> {
    fn write(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.write(out);
            }
        }
    }
}

impl<T: WireRead> WireRead for Option<T> {
    fn read(r: &mut Cursor<'_>) -> Result<Self, NetError> {
        match u8::read(r)? {
            0 => Ok(None),
            1 => Ok(Some(T::read(r)?)),
            _ => Err(NetError::Codec("invalid option tag")),
        }
    }
}

impl<T: WireWrite> WireWrite for Vec<T> {
    fn write(&self, out: &mut Vec<u8>) {
        (self.len() as u32).write(out);
        T::write_all(self, out);
    }
}

impl<T: WireRead> WireRead for Vec<T> {
    fn read(r: &mut Cursor<'_>) -> Result<Self, NetError> {
        let len = u32::read(r)? as usize;
        // Guard against hostile length prefixes: each element costs >= 1 byte.
        if len > r.remaining() {
            return Err(NetError::Codec("vector length exceeds input"));
        }
        T::read_all(r, len)
    }
}

impl<A: WireWrite, B: WireWrite> WireWrite for (A, B) {
    fn write(&self, out: &mut Vec<u8>) {
        self.0.write(out);
        self.1.write(out);
    }
}

impl<A: WireRead, B: WireRead> WireRead for (A, B) {
    fn read(r: &mut Cursor<'_>) -> Result<Self, NetError> {
        Ok((A::read(r)?, B::read(r)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: WireWrite + WireRead + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = v.to_wire();
        assert_eq!(T::from_wire(&bytes).unwrap(), v);
    }

    #[test]
    fn scalars() {
        roundtrip(0u8);
        roundtrip(255u8);
        roundtrip(0xBEEFu16);
        roundtrip(0xDEADBEEFu32);
        roundtrip(u64::MAX);
        roundtrip(true);
        roundtrip(false);
    }

    #[test]
    fn invalid_bool_rejected() {
        assert!(bool::from_wire(&[2]).is_err());
    }

    #[test]
    fn byte_vectors_and_strings() {
        roundtrip(Vec::<u8>::new());
        roundtrip(vec![1u8, 2, 3]);
        roundtrip("hello".to_string());
        roundtrip(String::new());
        roundtrip([7u8; 16]);
        roundtrip([9u8; 32]);
    }

    #[test]
    fn options_and_nested() {
        roundtrip(Option::<u32>::None);
        roundtrip(Some(42u32));
        roundtrip(vec![Some("a".to_string()), None]);
        roundtrip((1u32, "pair".to_string()));
        roundtrip(vec![(1u64, vec![1u8, 2]), (2u64, vec![])]);
    }

    #[test]
    fn truncation_and_trailing_rejected() {
        let bytes = 12345u32.to_wire();
        assert!(u32::from_wire(&bytes[..3]).is_err());
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(u32::from_wire(&padded).is_err());
    }

    #[test]
    fn hostile_vector_length_rejected() {
        // Claims 2^32-1 elements with a 5-byte body.
        let mut evil = (u32::MAX).to_wire();
        evil.push(0);
        assert!(Vec::<u64>::from_wire(&evil).is_err());
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut bytes = Vec::new();
        2u32.write(&mut bytes);
        bytes.extend_from_slice(&[0xFF, 0xFE]);
        assert!(String::from_wire(&bytes).is_err());
    }
}
