#![forbid(unsafe_code)]
//! [`Cursor`]: parsing across a chain's segment boundaries, over the
//! segments' byte slices alone.

use super::{stats, Buf, Chain, IoBuf};

/// A read cursor over a [`Chain`], crossing segment boundaries
/// transparently — the analogue of EbbRT's `DataPointer`.
///
/// Reads are served from the current segment's byte slice; only a read
/// that straddles a segment boundary takes the segment-walking path.
pub struct Cursor<'a, B: Buf> {
    /// Unread bytes of the current segment (`segs[0]`).
    cur: &'a [u8],
    /// The current segment and every segment after it.
    segs: &'a [B],
    consumed: usize,
    /// The chain's logical length.
    total: usize,
}

impl<'a, B: Buf> Cursor<'a, B> {
    /// A cursor at the front of `segs`, whose lengths sum to `total`.
    #[inline]
    pub(super) fn new(segs: &'a [B], total: usize) -> Self {
        Cursor {
            cur: segs.first().map_or(&[], Buf::bytes),
            segs,
            consumed: 0,
            total,
        }
    }

    /// Bytes remaining after the cursor.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.total - self.consumed
    }

    /// Bytes consumed so far.
    #[inline]
    pub fn consumed(&self) -> usize {
        self.consumed
    }

    /// Consumes `n` bytes across as many segments as they span, handing
    /// `each` every segment's share: the segment, the share's offset in
    /// it, and the share. `None` (consuming nothing) if fewer than `n`
    /// bytes remain.
    #[inline]
    fn walk(&mut self, n: usize, mut each: impl FnMut(&'a B, usize, &'a [u8])) -> Option<()> {
        if self.remaining() < n {
            return None;
        }
        let mut left = n;
        while left > 0 {
            // `left <= remaining()`: a segment with unread bytes exists.
            while self.cur.is_empty() {
                self.segs = &self.segs[1..];
                self.cur = self.segs[0].bytes();
            }
            let seg = &self.segs[0];
            let (share, rest) = self.cur.split_at(self.cur.len().min(left));
            each(seg, seg.len() - self.cur.len(), share);
            self.cur = rest;
            left -= share.len();
        }
        self.consumed += n;
        Some(())
    }

    /// Reads a fixed-size field: straight out of the current segment
    /// when it holds all `N` bytes, else across the boundary.
    #[inline]
    fn read_array<const N: usize>(&mut self) -> Option<[u8; N]> {
        if let Some((field, rest)) = self.cur.split_first_chunk::<N>() {
            self.cur = rest;
            self.consumed += N;
            return Some(*field);
        }
        let mut b = [0u8; N];
        self.read_straddling(&mut b)?;
        Some(b)
    }

    /// Reads one byte.
    #[inline]
    pub fn read_u8(&mut self) -> Option<u8> {
        self.read_array::<1>().map(|b| b[0])
    }

    /// Reads a big-endian u16 (network order).
    #[inline]
    pub fn read_u16_be(&mut self) -> Option<u16> {
        self.read_array().map(u16::from_be_bytes)
    }

    /// Reads a big-endian u32 (network order).
    #[inline]
    pub fn read_u32_be(&mut self) -> Option<u32> {
        self.read_array().map(u32::from_be_bytes)
    }

    /// Reads a big-endian u64 (network order).
    #[inline]
    pub fn read_u64_be(&mut self) -> Option<u64> {
        self.read_array().map(u64::from_be_bytes)
    }

    /// Fills `dst` from the cursor position, crossing segments as needed.
    /// Returns `None` (consuming nothing) if fewer than `dst.len()` bytes
    /// remain.
    #[inline]
    pub fn read_exact(&mut self, dst: &mut [u8]) -> Option<()> {
        if let Some((src, rest)) = self.cur.split_at_checked(dst.len()) {
            dst.copy_from_slice(src);
            self.cur = rest;
            self.consumed += dst.len();
            return Some(());
        }
        self.read_straddling(dst)
    }

    /// [`Self::read_exact`] for a read the current segment cannot
    /// serve alone.
    #[cold]
    fn read_straddling(&mut self, dst: &mut [u8]) -> Option<()> {
        let mut written = 0;
        self.walk(dst.len(), |_, _, share| {
            dst[written..written + share.len()].copy_from_slice(share);
            written += share.len();
        })
    }

    /// Skips `n` bytes.
    ///
    /// Returns `None` (consuming nothing) if fewer than `n` bytes remain.
    #[inline]
    pub fn skip(&mut self, n: usize) -> Option<()> {
        if let Some((_, rest)) = self.cur.split_at_checked(n) {
            self.cur = rest;
            self.consumed += n;
            return Some(());
        }
        self.walk(n, |_, _, _| {})
    }

    /// Reads `n` bytes into a fresh vector (counted by
    /// [`stats::Snapshot::bytes_copied`] — prefer
    /// [`Cursor::read_exact_zero_copy`] on hot paths).
    pub fn read_vec(&mut self, n: usize) -> Option<Vec<u8>> {
        if self.remaining() < n {
            return None; // before sizing an allocation from `n`
        }
        let mut v = vec![0u8; n];
        self.read_exact(&mut v)?;
        stats::record_copy(n);
        Some(v)
    }
}

impl<'a> Cursor<'a, IoBuf> {
    /// The next `n` bytes in place — the segment holding them and their
    /// offset in it — when `n > 0` and the current segment holds them
    /// all; `None` (consuming nothing) otherwise.
    pub(super) fn read_in_segment(&mut self, n: usize) -> Option<(&'a IoBuf, usize)> {
        if n == 0 || n > self.cur.len() {
            return None;
        }
        let seg = &self.segs[0];
        let at = seg.len() - self.cur.len();
        self.cur = &self.cur[n..];
        self.consumed += n;
        Some((seg, at))
    }

    /// Carves the next `n` bytes out as a chain of sub-views sharing
    /// the underlying regions — the zero-copy way for a protocol parser
    /// to take a request body straight out of driver buffers. Returns
    /// `None` (consuming nothing) if fewer than `n` bytes remain.
    pub fn read_exact_zero_copy(&mut self, n: usize) -> Option<Chain<IoBuf>> {
        let mut out = Chain::new();
        self.walk(n, |seg, at, share| {
            out.push_back(seg.slice(at, share.len()))
        })?;
        Some(out)
    }
}
