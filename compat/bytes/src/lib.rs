//! Offline stand-in for the `bytes` crate.
//!
//! The build container has no access to crates.io, so this workspace ships a
//! minimal API-compatible implementation: [`Bytes`] is an `Arc<[u8]>` plus a
//! window, so clones and `slice`/`split_to` are O(1) and zero-copy exactly
//! like the real crate. [`BytesMut`] fills the same kind of `Arc<[u8]>`, so
//! [`BytesMut::freeze`] hands its buffer over instead of copying it — also
//! like the real crate — and `Bytes` has that one representation. Only the
//! surface the workspace uses is provided (little-endian `Buf`/`BufMut`
//! accessors, `BytesMut::freeze`, etc.).

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// A cheaply cloneable, immutable, contiguous slice of memory.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty `Bytes`.
    pub fn new() -> Self {
        Self::default()
    }

    /// A `Bytes` viewing a static slice. (The shim copies once; the real
    /// crate is zero-copy here. Semantics are identical.)
    pub fn from_static(s: &'static [u8]) -> Self {
        Self::copy_from_slice(s)
    }

    /// Copy `data` into a new `Bytes`: one allocation, one copy.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Self { data: Arc::from(data), start: 0, end: data.len() }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The bytes as a slice.
    pub fn as_slice(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }

    /// Zero-copy sub-slice sharing the same backing storage.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let len = self.len();
        let begin = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => len,
        };
        assert!(begin <= end && end <= len, "slice out of bounds: {begin}..{end} of {len}");
        Bytes { data: self.data.clone(), start: self.start + begin, end: self.start + end }
    }

    /// The part of `self` that `subset` — a slice borrowed from it — covers,
    /// sharing the backing storage (zero-copy); an empty `subset` gives an
    /// empty `Bytes`, as in the real crate. Panics if `subset` lies outside.
    pub fn slice_ref(&self, subset: &[u8]) -> Bytes {
        if subset.is_empty() {
            return Bytes::new();
        }
        let (base, at) = (self.as_slice().as_ptr() as usize, subset.as_ptr() as usize);
        assert!(
            at >= base && at + subset.len() <= base + self.len(),
            "slice_ref: subset is not part of these Bytes"
        );
        self.slice(at - base..at - base + subset.len())
    }

    /// Split off and return the first `at` bytes; `self` keeps the rest.
    pub fn split_to(&mut self, at: usize) -> Bytes {
        assert!(at <= self.len(), "split_to out of bounds: {at} > {}", self.len());
        let front = self.slice(..at);
        self.start += at;
        front
    }

    /// Shorten to the first `len` bytes, sharing the backing storage; no
    /// effect if it is no longer, as in the real crate.
    pub fn truncate(&mut self, len: usize) {
        if len < self.len() {
            self.end = self.start + len;
        }
    }

    /// Whether this is the only handle on its backing storage (no clone or
    /// slice of it is alive), as in the real crate.
    pub fn is_unique(&self) -> bool {
        Arc::strong_count(&self.data) == 1
    }

    /// Copy the contents into a fresh `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }
}

impl Deref for Bytes {
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

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

/// One allocation and one copy of `v.len()` bytes: a `Vec`'s buffer has no
/// room for the counts an `Arc<[u8]>` keeps in front of its bytes, so it
/// cannot be adopted (the real crate's conversion is zero-copy). A buffer
/// large enough for that to matter is built in a [`BytesMut`], whose
/// `freeze` copies nothing.
impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let data: Arc<[u8]> = v.into();
        let end = data.len();
        Self { data, start: 0, end }
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Self {
        Self::from(s.into_bytes())
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(s: &'static [u8]) -> Self {
        Self::from_static(s)
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Self {
        Self::from_static(s.as_bytes())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        write!(f, "\"")
    }
}

impl<'a> IntoIterator for &'a Bytes {
    type Item = &'a u8;
    type IntoIter = std::slice::Iter<'a, u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// A growable byte buffer, frozen into [`Bytes`] when complete. It is filled
/// in the `Arc<[u8]>` the frozen `Bytes` will hold: `buf` is the capacity, its
/// first `len` bytes written, and is never cloned, so it is always writable
/// through `Arc::get_mut`.
#[derive(Default)]
pub struct BytesMut {
    buf: Arc<[u8]>,
    len: usize,
}

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty buffer with `cap` bytes preallocated.
    pub fn with_capacity(cap: usize) -> Self {
        Self { buf: std::iter::repeat_n(0, cap).collect(), len: 0 }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes the buffer holds without reallocating.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// The whole capacity, writable.
    fn buf_mut(&mut self) -> &mut [u8] {
        Arc::get_mut(&mut self.buf).expect("a BytesMut never shares its buffer")
    }

    /// Room for `len` bytes in all, the written ones kept.
    fn grow_to(&mut self, len: usize) {
        if len > self.capacity() {
            // At least twice the old capacity: appends are amortised O(1).
            let mut grown = Self::with_capacity(len.max(2 * self.capacity()));
            grown.buf_mut()[..self.len].copy_from_slice(self);
            self.buf = grown.buf;
        }
    }

    /// Append a slice.
    pub fn extend_from_slice(&mut self, data: &[u8]) {
        let (len, end) = (self.len, self.len + data.len());
        self.grow_to(end);
        self.buf_mut()[len..end].copy_from_slice(data);
        self.len = end;
    }

    /// Room for `additional` more bytes than are written, grown as appending
    /// them would grow it; no effect if there is room already.
    pub fn reserve(&mut self, additional: usize) {
        self.grow_to(self.len + additional);
    }

    /// The capacity past the written bytes, borrowed once for a run of
    /// writes ([`SpareMut`]): each lands where the last ended, and what they
    /// wrote joins the buffer's bytes when the borrow commits. A run of
    /// writes through one borrow pays for the buffer's uniqueness check
    /// once, where each `put_slice` pays for it again.
    pub fn spare_mut(&mut self) -> SpareMut<'_> {
        let filled = self.len;
        let buf = Arc::get_mut(&mut self.buf).expect("a BytesMut never shares its buffer");
        SpareMut { buf, filled, len: &mut self.len, refused: false }
    }

    /// Grow to `new_len` bytes, the new ones set to `value`, or shorten to it.
    pub fn resize(&mut self, new_len: usize, value: u8) {
        if new_len > self.len {
            self.grow_to(new_len);
            let len = self.len;
            self.buf_mut()[len..new_len].fill(value);
        }
        self.len = new_len;
    }

    /// Convert into an immutable [`Bytes`] over the same allocation: nothing
    /// is copied, and capacity never written stays allocated behind it for
    /// as long as it lives — reserve exactly what a long-lived buffer takes.
    pub fn freeze(self) -> Bytes {
        Bytes { data: self.buf, start: 0, end: self.len }
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf[..self.len]
    }
}

/// The unwritten capacity of a [`BytesMut`], borrowed for a run of writes
/// ([`BytesMut::spare_mut`]). It never grows the buffer: a write that does
/// not fit in the room left is refused, whole, and so is every write after
/// it, so the bytes written are always a prefix of the bytes handed over.
/// Nothing joins the buffer's bytes until [`SpareMut::commit`]; a borrow
/// dropped without it leaves the buffer as it was.
pub struct SpareMut<'a> {
    /// The buffer's whole capacity, written up to `filled`.
    buf: &'a mut [u8],
    filled: usize,
    /// The buffer's length, which `commit` moves to `filled`.
    len: &'a mut usize,
    refused: bool,
}

impl SpareMut<'_> {
    /// The buffer's length once this borrow commits.
    pub fn len(&self) -> usize {
        self.filled
    }

    /// Whether that length is zero.
    pub fn is_empty(&self) -> bool {
        self.filled == 0
    }

    /// Bytes of room left.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.filled
    }

    /// Add the bytes written to the buffer's: whether every write fit. If
    /// one did not, the writes before it are kept and no other.
    pub fn commit(self) -> bool {
        *self.len = self.filled;
        !self.refused
    }
}

impl BufMut for SpareMut<'_> {
    fn put_slice(&mut self, src: &[u8]) {
        let end = self.filled + src.len();
        match self.buf.get_mut(self.filled..end) {
            Some(room) if !self.refused => {
                room.copy_from_slice(src);
                self.filled = end;
            }
            _ => self.refused = true,
        }
    }

    /// All of `src` in one check of the room and one copy of each part, or
    /// none of it.
    fn put<B: Buf>(&mut self, mut src: B) {
        let end = self.filled + src.remaining();
        match self.buf.get_mut(self.filled..end) {
            Some(room) if !self.refused => {
                src.copy_to_slice(room);
                self.filled = end;
            }
            _ => self.refused = true,
        }
    }
}

impl std::ops::DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        let len = self.len;
        &mut self.buf_mut()[..len]
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&Bytes::copy_from_slice(self), f)
    }
}

/// Read-cursor over a byte source (little-endian accessors only — the wire
/// formats in this workspace are all LE).
pub trait Buf {
    /// Bytes remaining to read.
    fn remaining(&self) -> usize;
    /// The unread bytes as a contiguous slice.
    fn chunk(&self) -> &[u8];
    /// Discard the next `cnt` bytes.
    fn advance(&mut self, cnt: usize);

    /// Copy `dst.len()` bytes out, advancing the cursor.
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(self.remaining() >= dst.len(), "copy_to_slice past end of buffer");
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
    }

    /// Read one byte.
    fn get_u8(&mut self) -> u8 {
        let mut b = [0u8; 1];
        self.copy_to_slice(&mut b);
        b[0]
    }

    /// Read a little-endian `u32`.
    fn get_u32_le(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        u32::from_le_bytes(b)
    }

    /// Read a little-endian `u64`.
    fn get_u64_le(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        u64::from_le_bytes(b)
    }

    /// These bytes, then `next`'s, read as one buffer.
    fn chain<U: Buf>(self, next: U) -> Chain<Self, U>
    where
        Self: Sized,
    {
        Chain { first: self, last: next }
    }
}

/// Two buffers read one after the other ([`Buf::chain`]).
pub struct Chain<T, U> {
    first: T,
    last: U,
}

impl<T: Buf, U: Buf> Buf for Chain<T, U> {
    fn remaining(&self) -> usize {
        self.first.remaining() + self.last.remaining()
    }
    fn chunk(&self) -> &[u8] {
        if self.first.remaining() > 0 {
            self.first.chunk()
        } else {
            self.last.chunk()
        }
    }
    fn advance(&mut self, cnt: usize) {
        let in_first = cnt.min(self.first.remaining());
        self.first.advance(in_first);
        self.last.advance(cnt - in_first);
    }
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        let (first, last) = dst.split_at_mut(self.first.remaining().min(dst.len()));
        self.first.copy_to_slice(first);
        self.last.copy_to_slice(last);
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self.as_slice()
    }
    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance past end of Bytes");
        self.start += cnt;
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

/// Write-cursor over a growable byte sink (little-endian only).
pub trait BufMut {
    /// Append a slice.
    fn put_slice(&mut self, src: &[u8]);

    /// Append one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Append a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Append what `src` holds — a [`Buf::chain`] of parts, say — chunk by
    /// chunk.
    fn put<B: Buf>(&mut self, src: B)
    where
        Self: Sized,
    {
        put_chunks(self, src);
    }
}

/// Append `src` to `dst` a chunk at a time, as that many `put_slice` calls.
fn put_chunks(dst: &mut impl BufMut, mut src: impl Buf) {
    while src.remaining() > 0 {
        let chunk = src.chunk();
        let n = chunk.len();
        dst.put_slice(chunk);
        src.advance(n);
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }

    /// A buffer with room for all of `src` checks that once and is borrowed
    /// once for it. One without grows as appending each chunk in turn grows
    /// it, so what a growing buffer allocates does not depend on how its
    /// bytes were handed over.
    fn put<B: Buf>(&mut self, mut src: B) {
        let (len, end) = (self.len, self.len + src.remaining());
        if end > self.capacity() {
            return put_chunks(self, src);
        }
        src.copy_to_slice(&mut self.buf_mut()[len..end]);
        self.len = end;
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
    fn clone_and_slice_share_storage() {
        let b = Bytes::from(vec![1u8, 2, 3, 4, 5]);
        let s = b.slice(1..4);
        assert_eq!(&s[..], &[2, 3, 4]);
        assert!(Arc::ptr_eq(&b.data, &s.data));
    }

    /// One allocation by construction: the backing `Arc<[u8]>` is made
    /// straight from the slice, so it is exactly the bytes copied — no
    /// intermediate `Vec`, no spare capacity (a `Vec`'s is left behind),
    /// nothing shared.
    #[test]
    fn copy_from_slice_backs_exactly_its_bytes() {
        let mut roomy = Vec::with_capacity(64);
        roomy.extend_from_slice(b"abc");
        for b in [Bytes::copy_from_slice(b"abc"), Bytes::from_static(b"abc"), Bytes::from(roomy)] {
            assert_eq!((b.data.len(), b.start, b.end), (3, 0, 3));
            assert!(b.is_unique());
            let s = b.slice(1..);
            assert!(!b.is_unique() && !s.is_unique());
        }
        assert!(Bytes::copy_from_slice(&[]).is_empty());
    }

    /// `freeze` hands the buffer over: the bytes stay where they were
    /// written, a buffer reserved for exactly what it took has no spare
    /// behind it, and one that outgrew its reservation kept what it held.
    #[test]
    fn freeze_adopts_the_buffer_it_filled() {
        let big: Vec<u8> = (0..1 << 20).map(|i| i as u8).collect();
        let mut m = BytesMut::with_capacity(big.len());
        m.put_slice(&big[..7]);
        m.put_slice(&big[7..]);
        assert_eq!((m.len(), m.capacity()), (big.len(), big.len()));
        let written_at = m.as_ptr();
        let b = m.freeze();
        assert_eq!(b.as_ptr(), written_at, "freeze copied");
        assert_eq!((b.data.len(), b.start, b.end), (big.len(), 0, big.len()));
        assert!(b == big && b.is_unique());

        let mut grown = BytesMut::new();
        big.chunks(1000).for_each(|chunk| grown.put_slice(chunk));
        assert!(grown.capacity() >= big.len() && grown[..] == big[..]);
        grown[0] = 9;
        assert_eq!((grown.freeze()[..2]).to_vec(), [9, 1]);
        assert!(BytesMut::new().freeze().is_empty());
    }

    /// A chain reads as its parts in order, empty ones included, and `put`
    /// appends it whole — into a buffer with room, one that must grow, and a
    /// `Vec`. A buffer that must grow grows as appending the parts one by
    /// one grows it: to the capacity of the same `put_slice` calls.
    #[test]
    fn put_appends_a_chain_of_parts() {
        let parts = || (&b"head"[..]).chain(&b""[..]).chain(&b"-tail"[..]);
        let mut chain = parts();
        assert_eq!((chain.remaining(), chain.chunk()), (9, &b"head"[..]));
        chain.advance(5);
        assert_eq!((chain.remaining(), chain.chunk()), (4, &b"tail"[..]));

        let mut roomy = BytesMut::with_capacity(64);
        let mut tight = BytesMut::new();
        let mut vec = Vec::new();
        for _ in 0..3 {
            roomy.put(parts());
            tight.put(parts());
            vec.put(parts());
        }
        let want = b"head-tail".repeat(3);
        assert_eq!((&roomy[..], roomy.capacity()), (&want[..], 64));
        assert_eq!((&tight[..], &vec[..]), (&want[..], &want[..]));
        tight.put(&b""[..]);
        assert_eq!(tight.len(), want.len());
        let mut sliced = BytesMut::new();
        for _ in 0..3 {
            [&b"head"[..], b"", b"-tail"].iter().for_each(|part| sliced.put_slice(part));
        }
        assert_eq!((&sliced[..], sliced.capacity()), (&want[..], tight.capacity()));
    }

    /// Writing through one borrow of the spare capacity and committing
    /// gives the bytes `put_slice` and `put` give: from an empty buffer and
    /// after bytes written the other way, in parts and chained. The borrow
    /// never grows the buffer: a write past its room is refused whole, and
    /// every write after it, so what commits is the writes before it;
    /// `reserve` then makes room as appending would, and a borrow dropped
    /// without a commit leaves the buffer as it was.
    #[test]
    fn writes_through_the_spare_borrow_are_put_slices() {
        let parts: [&[u8]; 4] = [b"head", b"", b"-body-", b"tail"];
        let mut sliced = BytesMut::with_capacity(64);
        let mut spared = BytesMut::with_capacity(64);
        for round in 0..3 {
            parts.iter().for_each(|part| sliced.put_slice(part));
            sliced.put((&b"<"[..]).chain(&b">"[..]));
            if round == 1 {
                // Bytes put the usual way between two borrows.
                parts.iter().for_each(|part| spared.put_slice(part));
                spared.put((&b"<"[..]).chain(&b">"[..]));
                continue;
            }
            let mut spare = spared.spare_mut();
            parts.iter().for_each(|part| spare.put_slice(part));
            spare.put((&b"<"[..]).chain(&b">"[..]));
            assert_eq!(spare.len(), sliced.len());
            assert_eq!(spare.remaining(), 64 - sliced.len());
            assert!(spare.commit());
        }
        assert_eq!((&spared[..], spared.capacity()), (&sliced[..], 64));

        let mut tight = BytesMut::with_capacity(6);
        tight.put_slice(b"ab");
        let mut spare = tight.spare_mut();
        spare.put_slice(b"cd");
        spare.put_slice(b"efg");
        spare.put_slice(b"e");
        spare.put((&b"e"[..]).chain(&b"f"[..]));
        assert_eq!((spare.len(), spare.remaining()), (4, 2));
        assert!(!spare.commit());
        assert_eq!((&tight[..], tight.capacity()), (&b"abcd"[..], 6));
        let mut spare = tight.spare_mut();
        spare.put((&b"ef"[..]).chain(&b"g"[..]));
        assert!(!spare.commit());
        assert_eq!(&tight[..], b"abcd");

        // Room reserved as appending grows it: what put_slice allocates.
        let mut appended = BytesMut::with_capacity(6);
        appended.put_slice(b"abcd");
        appended.put_slice(b"efg");
        tight.reserve(3);
        assert_eq!(tight.capacity(), appended.capacity());
        let mut spare = tight.spare_mut();
        spare.put_slice(b"efg");
        assert!(spare.commit());
        assert_eq!(&tight[..], &appended[..]);
        tight.spare_mut().put_slice(b"dropped");
        assert_eq!(&tight[..], b"abcdefg");
        tight.reserve(0);
        assert_eq!(tight.capacity(), appended.capacity());
    }

    #[test]
    fn resize_fills_grows_and_shortens() {
        let mut m = BytesMut::with_capacity(4);
        m.put_slice(b"ab");
        m.resize(4, b'.');
        assert_eq!((&m[..], m.capacity()), (&b"ab.."[..], 4));
        m.resize(9, b'-');
        assert_eq!(&m[..], b"ab..-----");
        m.resize(1, 0);
        assert_eq!(&m.freeze()[..], b"a");
    }

    /// A slice keeps the storage alive past the handle it was cut from, and
    /// `is_unique` tells when it is the last one.
    #[test]
    fn a_slice_outlives_its_handle() {
        let mut m = BytesMut::with_capacity(5);
        m.put_slice(b"hello");
        let b = m.freeze();
        let s = b.slice(1..4);
        assert!(!b.is_unique() && !s.is_unique());
        drop(b);
        assert_eq!(&s[..], b"ell");
        assert!(s.is_unique());
    }

    #[test]
    fn slice_ref_shares_storage() {
        let b = Bytes::from(vec![1u8, 2, 3, 4, 5]).slice(1..);
        let s = b.slice_ref(&b[1..3]);
        assert_eq!(&s[..], &[3, 4]);
        assert!(Arc::ptr_eq(&b.data, &s.data));
        assert!(b.slice_ref(&b[2..2]).is_empty());
        assert_eq!(b.slice_ref(&b[..]), b);
    }

    #[test]
    #[should_panic]
    fn slice_ref_of_a_foreign_slice_panics() {
        Bytes::from_static(b"abc").slice_ref(b"abc");
    }

    #[test]
    fn split_to_advances() {
        let mut b = Bytes::from(vec![1u8, 2, 3, 4]);
        let front = b.split_to(2);
        assert_eq!(&front[..], &[1, 2]);
        assert_eq!(&b[..], &[3, 4]);
    }

    #[test]
    fn buf_roundtrip_le() {
        let mut m = BytesMut::with_capacity(32);
        m.put_u8(7);
        m.put_u32_le(0xDEAD_BEEF);
        m.put_u64_le(42);
        m.put_slice(b"xy");
        let mut b = m.freeze();
        assert_eq!(b.get_u8(), 7);
        assert_eq!(b.get_u32_le(), 0xDEAD_BEEF);
        assert_eq!(b.get_u64_le(), 42);
        assert_eq!(b.remaining(), 2);
        assert_eq!(b.chunk(), b"xy");
    }

    #[test]
    fn equality_and_ordering() {
        assert_eq!(Bytes::from_static(b"abc"), Bytes::copy_from_slice(b"abc"));
        assert!(Bytes::from_static(b"a") < Bytes::from_static(b"b"));
        let mut b = Bytes::from_static(b"hello");
        b.advance(1);
        assert_eq!(b, Bytes::from_static(b"ello"));
    }

    #[test]
    #[should_panic]
    fn slice_out_of_bounds_panics() {
        Bytes::from_static(b"ab").slice(0..3);
    }
}
