//! Offline stand-in for the `bytes` crate.
//!
//! The container this workspace builds in has no crates.io access, so the
//! workspace vendors the *minimal* API surface it actually uses: cheaply
//! clonable immutable [`Bytes`], a growable [`BytesMut`] builder, and the
//! little-endian [`BufMut`] putters. For this subset the semantics match
//! the real crate: clones and [`Bytes::slice`] are O(1) views of one
//! shared allocation, `From<Vec<u8>>` and [`BytesMut::freeze`] are moves,
//! `slice` panics on an inverted or out-of-range range, and equality,
//! hashing and ordering see only the viewed bytes. The differences touch
//! no contents: a `Bytes` holds at most 4 GiB (its offset and length are
//! `u32`), [`Bytes::from_static`] copies, and `Debug` prints at most the
//! first 32 bytes, as hex. Swapping the real dependency back in is a
//! one-line change in the workspace manifest.

use std::cmp::Ordering;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// A cheaply clonable, immutable, contiguous slice of memory.
///
/// A handle is a view: one shared allocation (`Arc<Vec<u8>>`) plus the
/// offset and length of the bytes it exposes. Clones and [`Bytes::slice`]
/// copy the handle (16 B), never the data, so passing payloads between
/// simulated initiators, fabrics and targets never copies them — the
/// zero-copy property the NVMe-oPF queues rely on. The `Vec` backing
/// (rather than `Arc<[u8]>`) makes `From<Vec<u8>>` and
/// [`BytesMut::freeze`] true moves, matching the real crate: a payload is
/// allocated exactly once, where it is built.
#[derive(Clone)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    off: u32,
    len: u32,
}

impl Bytes {
    /// An empty `Bytes`.
    pub fn new() -> Self {
        Bytes::from(Vec::new())
    }

    /// Wrap a static slice (copies here, unlike the real crate — fine for
    /// the small headers this workspace uses it on).
    pub fn from_static(data: &'static [u8]) -> Self {
        Bytes::copy_from_slice(data)
    }

    /// Copy a slice into a new `Bytes`.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes::from(data.to_vec())
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Copy the viewed bytes out to a `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_ref().to_vec()
    }

    /// A view of `self[range]` sharing this handle's allocation: O(1),
    /// no copy. Panics if the range is inverted or ends past `len()`,
    /// as slice indexing and the real crate do.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let len = self.len();
        let start = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n.checked_add(1).expect("range start overflows usize"),
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n.checked_add(1).expect("range end overflows usize"),
            Bound::Excluded(&n) => n,
            Bound::Unbounded => len,
        };
        assert!(
            start <= end,
            "range start must not be greater than end: {start} <= {end}"
        );
        assert!(end <= len, "range end out of bounds: {end} <= {len}");
        // No cast or sum overflows: start <= end <= len, and
        // off + len <= data.len() <= u32::MAX (checked in `From<Vec<u8>>`).
        Bytes {
            data: Arc::clone(&self.data),
            off: self.off + start as u32,
            len: (end - start) as u32,
        }
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        let off = self.off as usize;
        &self.data[off..off + self.len as usize]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_ref() == other.as_ref()
    }
}

impl Eq for Bytes {}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_ref().hash(state);
    }
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Bytes) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Bytes) -> Ordering {
        self.as_ref().cmp(other.as_ref())
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b\"")?;
        for &b in self.iter().take(32) {
            write!(f, "\\x{b:02x}")?;
        }
        if self.len() > 32 {
            write!(f, "..{} bytes", self.len())?;
        }
        write!(f, "\"")
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        // A move, not a copy: the Vec's allocation becomes the shared
        // payload buffer.
        let len = u32::try_from(v.len()).expect("Bytes holds at most 4 GiB");
        Bytes {
            data: Arc::new(v),
            off: 0,
            len,
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Bytes {
        Bytes::copy_from_slice(v)
    }
}

impl From<BytesMut> for Bytes {
    fn from(b: BytesMut) -> Bytes {
        b.freeze()
    }
}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_ref() == other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_ref() == other.as_slice()
    }
}

/// A growable byte buffer that freezes into [`Bytes`].
#[derive(Clone, Default, Debug, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> Self {
        BytesMut::default()
    }

    /// An empty buffer with `cap` bytes reserved.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            data: Vec::with_capacity(cap),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when no bytes have been written.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Convert into an immutable [`Bytes`] without copying.
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

/// Write primitives, as used by the PDU and HDF5 encoders.
pub trait BufMut {
    /// Append raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Append one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Append a little-endian u16.
    fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Append a little-endian u32.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Append a little-endian u64.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Append a big-endian u16.
    fn put_u16(&mut self, v: u16) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Append a big-endian u32.
    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Append a big-endian u64.
    fn put_u64(&mut self, v: u64) {
        self.put_slice(&v.to_be_bytes());
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_sharing() {
        let mut b = BytesMut::with_capacity(16);
        b.put_u8(0xAB);
        b.put_u16_le(0x1234);
        b.put_u32_le(0xDEADBEEF);
        b.put_slice(&[1, 2, 3]);
        assert_eq!(b.len(), 10);
        let frozen = b.freeze();
        assert_eq!(&frozen[..3], &[0xAB, 0x34, 0x12]);
        let clone = frozen.clone();
        assert_eq!(clone, frozen);
        assert_eq!(clone.to_vec(), frozen.to_vec());
    }

    #[test]
    fn from_vec_and_slice() {
        let v = vec![9u8; 4096];
        let b = Bytes::from(v.clone());
        assert_eq!(b.len(), 4096);
        assert_eq!(b, v);
        assert_eq!(Bytes::copy_from_slice(&v), b);
        assert_eq!(b.slice(1..3).to_vec(), vec![9u8, 9]);
    }

    fn numbered(n: usize) -> Bytes {
        Bytes::from((0..n).map(|i| i as u8).collect::<Vec<u8>>())
    }

    fn offset_in(view: &Bytes, parent: &Bytes) -> usize {
        view.as_ptr() as usize - parent.as_ptr() as usize
    }

    #[test]
    fn slice_is_a_view_of_the_parent_allocation() {
        let b = numbered(4096);
        let s = b.slice(100..200);
        assert_eq!(s.len(), 100);
        assert_eq!(offset_in(&s, &b), 100);
        assert_eq!(&s[..], &b[100..200]);
        assert_eq!(offset_in(&b.slice(..), &b), 0);
        assert_eq!(b.slice(..).len(), 4096);
        let empty = b.slice(4096..);
        assert!(empty.is_empty());
        assert_eq!(offset_in(&b.slice(7..=9), &b), 7);
        assert_eq!(b.slice(7..=9).to_vec(), vec![7, 8, 9]);
    }

    #[test]
    fn nested_slices_compose() {
        let b = numbered(1000);
        let inner = b.slice(100..600).slice(50..70);
        assert_eq!(offset_in(&inner, &b), 150);
        assert_eq!(inner, b.slice(150..170));
        assert_eq!(
            inner.to_vec(),
            (150..170).map(|i| i as u8).collect::<Vec<u8>>()
        );
        assert_eq!(inner.slice(..).slice(19..), b.slice(169..170));
    }

    #[test]
    fn equality_hash_and_order_see_only_the_view() {
        use std::collections::hash_map::DefaultHasher;
        fn hash_of(b: &Bytes) -> u64 {
            let mut h = DefaultHasher::new();
            b.hash(&mut h);
            h.finish()
        }
        let b = numbered(256);
        let view = b.slice(10..20);
        let fresh = Bytes::copy_from_slice(&b[10..20]);
        assert_eq!(view, fresh);
        assert_eq!(hash_of(&view), hash_of(&fresh));
        assert_eq!(view.cmp(&fresh), Ordering::Equal);
        assert_eq!(view, (10u8..20).collect::<Vec<u8>>());
        assert_eq!(&view, &b[10..20]);
        assert_ne!(view, b);
        assert!(b.slice(10..19) < view);
        assert!(b.slice(11..12) > view);
        assert_eq!(format!("{view:?}"), format!("{fresh:?}"));
    }

    #[test]
    #[should_panic(expected = "range end out of bounds")]
    fn slice_past_the_end_panics() {
        let _ = numbered(16).slice(8..17);
    }

    #[test]
    #[should_panic(expected = "range end out of bounds")]
    fn nested_slice_cannot_reach_past_its_view() {
        // The parent allocation holds 64 bytes, but the view only 8.
        let _ = numbered(64).slice(0..8).slice(4..9);
    }

    #[test]
    #[should_panic(expected = "range start must not be greater than end")]
    fn inverted_slice_panics() {
        let (start, end) = (5, 3);
        let _ = numbered(16).slice(start..end);
    }

    #[test]
    fn handle_is_two_words() {
        assert!(std::mem::size_of::<Bytes>() <= 16);
        assert!(std::mem::size_of::<Option<Bytes>>() <= 16);
    }
}
