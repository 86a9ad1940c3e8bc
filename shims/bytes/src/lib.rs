//! Offline stub of the `bytes` crate.
//!
//! Implements the subset the jmpax wire codec uses: a growable `BytesMut`
//! writer, a cheaply cloneable `Bytes` view (`Arc<[u8]>` + range), and the
//! `Buf`/`BufMut` accessor traits for little-endian integers.

use std::fmt;
use std::ops::{Bound, RangeBounds};
use std::sync::Arc;

/// A cheaply cloneable, sliceable, immutable byte buffer.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty buffer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Wraps a static slice (copied once into shared storage).
    #[must_use]
    pub fn from_static(bytes: &'static [u8]) -> Self {
        Self::from(bytes.to_vec())
    }

    /// Length in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A sub-view of this buffer (shares storage).
    #[must_use]
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Self {
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(lo <= hi && hi <= self.len(), "slice out of range");
        Self {
            data: Arc::clone(&self.data),
            start: self.start + lo,
            end: self.start + hi,
        }
    }

    /// Splits off and returns the first `n` bytes, advancing `self` past
    /// them.
    pub fn split_to(&mut self, n: usize) -> Self {
        assert!(n <= self.len(), "split_to out of range");
        let head = Self {
            data: Arc::clone(&self.data),
            start: self.start,
            end: self.start + n,
        };
        self.start += n;
        head
    }

    fn as_slice(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Self {
            data: v.into(),
            start: 0,
            end,
        }
    }
}

impl std::ops::Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for Bytes {}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            write!(f, "\\x{b:02x}")?;
        }
        write!(f, "\"")
    }
}

/// A growable byte buffer for building frames.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    vec: Vec<u8>,
}

impl BytesMut {
    /// An empty buffer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty buffer with pre-reserved capacity.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            vec: Vec::with_capacity(cap),
        }
    }

    /// Length in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.vec.len()
    }

    /// True when empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.vec.is_empty()
    }

    /// Appends a slice.
    pub fn extend_from_slice(&mut self, bytes: &[u8]) {
        self.vec.extend_from_slice(bytes);
    }

    /// Empties the buffer, keeping its capacity.
    pub fn clear(&mut self) {
        self.vec.clear();
    }

    /// Converts into an immutable [`Bytes`].
    #[must_use]
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.vec)
    }
}

impl std::ops::Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.vec
    }
}

impl std::ops::DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.vec
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.vec
    }
}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BytesMut(len={})", self.vec.len())
    }
}

/// Reader side: consuming accessors over a byte source.
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;
    /// Reads and consumes `n` bytes into `dst`.
    fn copy_to_slice(&mut self, dst: &mut [u8]);
    /// Skips `n` bytes.
    fn advance(&mut self, n: usize);

    /// True when any bytes remain.
    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }
    /// Reads one byte.
    fn get_u8(&mut self) -> u8 {
        let mut b = [0u8; 1];
        self.copy_to_slice(&mut b);
        b[0]
    }
    /// Reads a little-endian `u16`.
    fn get_u16_le(&mut self) -> u16 {
        let mut b = [0u8; 2];
        self.copy_to_slice(&mut b);
        u16::from_le_bytes(b)
    }
    /// Reads a little-endian `u32`.
    fn get_u32_le(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        u32::from_le_bytes(b)
    }
    /// Reads a little-endian `u64`.
    fn get_u64_le(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        u64::from_le_bytes(b)
    }
    /// Reads a little-endian `i64`.
    fn get_i64_le(&mut self) -> i64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        i64::from_le_bytes(b)
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(dst.len() <= self.len(), "copy_to_slice out of range");
        dst.copy_from_slice(&self.as_slice()[..dst.len()]);
        self.start += dst.len();
    }

    fn advance(&mut self, n: usize) {
        assert!(n <= self.len(), "advance out of range");
        self.start += n;
    }
}

/// Writer side: appending accessors over a byte sink.
pub trait BufMut {
    /// Appends a slice.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }
    /// Appends a little-endian `u16`.
    fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }
    /// Appends a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }
    /// Appends a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }
    /// Appends a little-endian `i64`.
    fn put_i64_le(&mut self, v: i64) {
        self.put_slice(&v.to_le_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.vec.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_freeze_read_round_trip() {
        let mut w = BytesMut::with_capacity(8);
        w.put_u8(7);
        w.put_u32_le(0xDEAD_BEEF);
        w.put_i64_le(-5);
        let mut r = w.freeze();
        assert_eq!(r.remaining(), 13);
        assert_eq!(r.get_u8(), 7);
        assert_eq!(r.get_u32_le(), 0xDEAD_BEEF);
        assert_eq!(r.get_i64_le(), -5);
        assert!(!r.has_remaining());
    }

    #[test]
    fn split_and_slice_share_storage() {
        let mut b = Bytes::from(vec![1, 2, 3, 4, 5]);
        let head = b.split_to(2);
        assert_eq!(&head[..], &[1, 2]);
        assert_eq!(&b[..], &[3, 4, 5]);
        assert_eq!(&b.slice(..2)[..], &[3, 4]);
        assert_eq!(&b.slice(1..)[..], &[4, 5]);
    }

    #[test]
    fn advance_skips() {
        let mut b = Bytes::from(vec![9, 8, 7]);
        b.advance(2);
        assert_eq!(b.get_u8(), 7);
    }
}
