//! Offline stand-in for the part of `bytes` 1 that the UniAsk crates
//! call: a cheaply cloneable, sliceable `Bytes`, a growable `BytesMut`,
//! and the little-endian accessors of `Buf` / `BufMut`.

use std::fmt;
use std::ops::{Bound, Deref, DerefMut, RangeBounds};
use std::sync::Arc;

/// An immutable, reference-counted view into a byte buffer.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Bytes {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn from_static(bytes: &'static [u8]) -> Self {
        Self::copy_from_slice(bytes)
    }

    pub fn copy_from_slice(data: &[u8]) -> Self {
        Self::from(data.to_vec())
    }

    pub fn len(&self) -> usize {
        self.end - self.start
    }

    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// A view of `range` within this view, sharing the allocation.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Self {
        let begin = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(begin <= end && end <= self.len(), "slice out of bounds");
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + begin,
            end: self.start + end,
        }
    }

    /// Split off and return the first `at` bytes; `self` keeps the rest.
    pub fn split_to(&mut self, at: usize) -> Self {
        assert!(at <= self.len(), "split_to out of bounds");
        let head = Bytes {
            data: Arc::clone(&self.data),
            start: self.start,
            end: self.start + at,
        };
        self.start += at;
        head
    }

    /// Split off and return the bytes from `at` on; `self` keeps the head.
    pub fn split_off(&mut self, at: usize) -> Self {
        assert!(at <= self.len(), "split_off out of bounds");
        let tail = Bytes {
            data: Arc::clone(&self.data),
            start: self.start + at,
            end: self.end,
        };
        self.end = self.start + at;
        tail
    }

    pub fn truncate(&mut self, len: usize) {
        if len < self.len() {
            self.end = self.start + len;
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(data: Vec<u8>) -> Self {
        let end = data.len();
        Bytes {
            data: Arc::new(data),
            start: 0,
            end,
        }
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(data: &'static [u8]) -> Self {
        Self::copy_from_slice(data)
    }
}

impl From<&'static str> for Bytes {
    fn from(data: &'static str) -> Self {
        Self::copy_from_slice(data.as_bytes())
    }
}

impl From<BytesMut> for Bytes {
    fn from(buf: BytesMut) -> Self {
        buf.freeze()
    }
}

impl From<Bytes> for Vec<u8> {
    fn from(bytes: Bytes) -> Self {
        bytes.to_vec()
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        **self == *other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        **self == **other
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        (**self).hash(state);
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bytes({} bytes)", self.len())
    }
}

/// A growable byte buffer.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_capacity(capacity: usize) -> Self {
        BytesMut {
            data: Vec::with_capacity(capacity),
        }
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    pub fn capacity(&self) -> usize {
        self.data.capacity()
    }

    pub fn reserve(&mut self, additional: usize) {
        self.data.reserve(additional);
    }

    pub fn truncate(&mut self, len: usize) {
        self.data.truncate(len);
    }

    pub fn clear(&mut self) {
        self.data.clear();
    }

    pub fn extend_from_slice(&mut self, extend: &[u8]) {
        self.data.extend_from_slice(extend);
    }

    pub fn freeze(self) -> Bytes {
        Bytes::from(self.data)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BytesMut({} bytes)", self.len())
    }
}

macro_rules! buf_get {
    ($($name:ident -> $ty:ty),*) => {$(
        fn $name(&mut self) -> $ty {
            let mut raw = [0u8; std::mem::size_of::<$ty>()];
            self.copy_to_slice(&mut raw);
            <$ty>::from_le_bytes(raw)
        }
    )*};
}

/// Read access to a cursor over bytes. Reading past the end panics, as
/// in the published crate; callers check `remaining` first.
pub trait Buf {
    fn remaining(&self) -> usize;
    fn chunk(&self) -> &[u8];
    fn advance(&mut self, cnt: usize);

    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(self.remaining() >= dst.len(), "buffer underflow");
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
    }

    fn get_u8(&mut self) -> u8 {
        assert!(self.remaining() >= 1, "buffer underflow");
        let byte = self.chunk()[0];
        self.advance(1);
        byte
    }

    fn get_i8(&mut self) -> i8 {
        self.get_u8() as i8
    }

    buf_get!(get_u16_le -> u16, get_u32_le -> u32, get_u64_le -> u64, get_u128_le -> u128,
             get_i16_le -> i16, get_i32_le -> i32, get_i64_le -> i64,
             get_f32_le -> f32, get_f64_le -> f64);

    fn copy_to_bytes(&mut self, len: usize) -> Bytes {
        assert!(self.remaining() >= len, "buffer underflow");
        let out = Bytes::copy_from_slice(&self.chunk()[..len]);
        self.advance(len);
        out
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self
    }
    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance out of bounds");
        self.start += cnt;
    }
    fn copy_to_bytes(&mut self, len: usize) -> Bytes {
        self.split_to(len)
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self
    }
    fn advance(&mut self, cnt: usize) {
        *self = &self[cnt..];
    }
}

macro_rules! buf_put {
    ($($name:ident($ty:ty)),*) => {$(
        fn $name(&mut self, value: $ty) {
            self.put_slice(&value.to_le_bytes());
        }
    )*};
}

/// Append access to a growable buffer.
pub trait BufMut {
    fn put_slice(&mut self, src: &[u8]);

    fn put_u8(&mut self, value: u8) {
        self.put_slice(&[value]);
    }

    fn put_i8(&mut self, value: i8) {
        self.put_slice(&[value as u8]);
    }

    buf_put!(
        put_u16_le(u16),
        put_u32_le(u32),
        put_u64_le(u64),
        put_u128_le(u128),
        put_i16_le(i16),
        put_i32_le(i32),
        put_i64_le(i64),
        put_f32_le(f32),
        put_f64_le(f64)
    );

    fn put_bytes(&mut self, value: u8, cnt: usize) {
        for _ in 0..cnt {
            self.put_u8(value);
        }
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}
