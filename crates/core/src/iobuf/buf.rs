//! The two descriptors — [`MutIoBuf`] (sole owner, writable) and
//! [`IoBuf`] (frozen, shared) — and their window arithmetic. A
//! descriptor holds one [`RegionRef`] and reaches its region only
//! through that type's methods; whether a region may be freed, reused or
//! written through a frozen descriptor is `region`'s call.

use std::fmt;
use std::ops::Range;
use std::ptr::NonNull;

use super::region::{FreeRegion, RegionRef};
use super::{pool, stats, Buf};

/// A uniquely-owned, writable buffer segment with headroom and tailroom.
///
/// Layout: `[ headroom | view window | tailroom ]` over one region.
/// `prepend`/`append` grow the window into head/tailroom; `advance`/
/// `trim_end` shrink it.
///
/// Storage comes from the per-core [`pool`] whenever the requested
/// capacity fits a pooled region; the logical capacity the caller asked
/// for is still enforced exactly (a pool-backed buffer does not grant
/// bonus tailroom), so window arithmetic behaves identically either
/// way. Pooled storage is recycled, not zeroed: bytes exposed by
/// [`MutIoBuf::append`] are unspecified until the caller writes them.
pub struct MutIoBuf {
    /// The only reference to the region's bytes from `base` on, for as
    /// long as the buffer is mutable. (Bytes before `base` — there are
    /// none until [`MutIoBuf::split_frozen`] moves it — belong to the
    /// frozen descriptors split off the front.)
    region: RegionRef,
    /// First byte this buffer may touch: the region's storage, past
    /// whatever has been split off.
    base: NonNull<u8>,
    /// Offset of the view window within the region.
    off: usize,
    /// Length of the view window.
    len: usize,
    /// Logical capacity (≤ physical region size);
    /// `off + len <= cap` always.
    cap: usize,
}

// SAFETY: a `MutIoBuf` is the only way to reach its region's bytes from
// `base` on (`RegionRef` is `Send`); `base` points into that region.
unsafe impl Send for MutIoBuf {}
// SAFETY: `&MutIoBuf` only reads the window.
unsafe impl Sync for MutIoBuf {}

impl MutIoBuf {
    /// A buffer over `region` (of which the caller holds the only
    /// reference) with logical capacity `cap` and the window
    /// `off .. off + len`.
    fn over(region: RegionRef, off: usize, len: usize, cap: usize) -> Self {
        debug_assert!(region.is_unique());
        assert!(off + len <= cap && cap <= region.cap());
        MutIoBuf {
            base: region.data(),
            region,
            off,
            len,
            cap,
        }
    }

    /// Creates a buffer of `capacity` bytes with an empty view at offset 0
    /// (all capacity is tailroom).
    pub fn with_capacity(capacity: usize) -> Self {
        Self::over(RegionRef::alloc(capacity), 0, 0, capacity)
    }

    /// Creates a buffer whose view starts after `headroom` bytes and is
    /// initially empty; total capacity is `headroom + payload_capacity`.
    pub fn with_headroom(payload_capacity: usize, headroom: usize) -> Self {
        let cap = headroom + payload_capacity;
        Self::over(RegionRef::alloc(cap), headroom, 0, cap)
    }

    /// Wraps an owned vector; the view covers the whole vector. The
    /// storage never recycles (it is exact-size, not pool-shaped), and
    /// the caller's allocation is counted by
    /// [`stats::Snapshot::bufs_allocated`] — wrapping a fresh `Vec` per
    /// request is exactly the behaviour the zero-alloc property must
    /// expose.
    pub fn from_vec(v: Vec<u8>) -> Self {
        stats::record_alloc();
        let len = v.len();
        let region = FreeRegion::boxed(v.into_boxed_slice()).into_ref();
        Self::over(region, 0, len, len)
    }

    /// Bytes available in front of the view window.
    pub fn headroom(&self) -> usize {
        self.off
    }

    /// Bytes available behind the view window.
    pub fn tailroom(&self) -> usize {
        self.cap - self.off - self.len
    }

    /// Logical capacity of the buffer.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Whether the backing region came from (and will return to) the
    /// per-core pool.
    pub fn is_pooled(&self) -> bool {
        self.size_class().is_some()
    }

    /// The size class serving this buffer's backing region, if pooled.
    pub fn size_class(&self) -> Option<pool::SizeClass> {
        self.region.size_class()
    }

    /// `n` bytes of the region starting `start` bytes in.
    ///
    /// The caller keeps `start + n <= self.cap`.
    #[inline]
    fn window_mut(&mut self, start: usize, n: usize) -> &mut [u8] {
        debug_assert!(start + n <= self.cap);
        // SAFETY: `base .. base + cap` lies inside the region's storage
        // (checked in `over`, kept by `split_frozen`), which was
        // zero-initialised at allocation; no descriptor but this buffer
        // — borrowed mutably here — views those bytes.
        unsafe { std::slice::from_raw_parts_mut(self.base.as_ptr().add(start), n) }
    }

    /// Mutable access to the view window.
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        self.window_mut(self.off, self.len)
    }

    /// Extends the window forward (into headroom) by `n` bytes and
    /// returns the newly exposed prefix for the caller to fill — this is
    /// how protocol layers add headers without copying the payload.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the available headroom.
    pub fn prepend(&mut self, n: usize) -> &mut [u8] {
        assert!(n <= self.off, "prepend({n}) exceeds headroom {}", self.off);
        self.off -= n;
        self.len += n;
        self.window_mut(self.off, n)
    }

    /// Extends the window backward (into tailroom) by `n` bytes and
    /// returns the newly exposed suffix. With pooled storage the
    /// exposed bytes are whatever the previous user left there — the
    /// caller must fill them.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the available tailroom.
    pub fn append(&mut self, n: usize) -> &mut [u8] {
        assert!(
            n <= self.tailroom(),
            "append({n}) exceeds tailroom {}",
            self.tailroom()
        );
        let start = self.off + self.len;
        self.len += n;
        self.window_mut(start, n)
    }

    /// Appends a copy of `src` into tailroom (counted by
    /// [`stats::Snapshot::bytes_copied`]).
    pub fn append_slice(&mut self, src: &[u8]) {
        stats::record_copy(src.len());
        self.append(src.len()).copy_from_slice(src);
    }

    /// Shrinks the window from the front by `n` bytes (consumed bytes
    /// become headroom) — used to strip parsed headers.
    ///
    /// # Panics
    ///
    /// Panics if `n > len()`.
    pub fn advance(&mut self, n: usize) {
        assert!(n <= self.len, "advance({n}) exceeds length {}", self.len);
        self.off += n;
        self.len -= n;
    }

    /// Shrinks the window from the back by `n` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `n > len()`.
    pub fn trim_end(&mut self, n: usize) {
        assert!(n <= self.len, "trim_end({n}) exceeds length {}", self.len);
        self.len -= n;
    }

    /// Freezes what has been written so far and keeps writing behind
    /// it: returns a shareable descriptor of the current window and
    /// leaves this buffer with an empty window where that one ended —
    /// no headroom (the bytes in front are the returned descriptor's
    /// now), the tailroom it had. No copy, no allocation; the region
    /// recycles when the last descriptor of either kind drops. This is
    /// how a marshalling buffer is cut around a payload linked by
    /// descriptor ([`super::wire::WireWriter::bytes32_chain`]).
    pub fn split_frozen(&mut self) -> IoBuf {
        let used = self.off + self.len;
        let front = IoBuf {
            // SAFETY: `off <= cap`, inside the region's storage.
            ptr: unsafe { self.base.add(self.off) },
            len: self.len,
            region: self.region.retain(),
        };
        // SAFETY: `used <= cap`, inside (or one past) the storage. From
        // here on this buffer reads and writes only at or after the new
        // `base`, and `front` (with every descriptor cloned or sliced
        // from it) only before it, so the two never alias.
        self.base = unsafe { self.base.add(used) };
        self.cap -= used;
        (self.off, self.len) = (0, 0);
        front
    }

    /// Freezes into a shareable, immutable [`IoBuf`] without copying or
    /// allocating: the buffer's reference to the region moves into the
    /// new descriptor. A pooled region stays pooled: it recycles when the
    /// last frozen descriptor drops.
    pub fn freeze(self) -> IoBuf {
        IoBuf {
            // SAFETY: `off <= cap`, inside the region's storage.
            ptr: unsafe { self.base.add(self.off) },
            len: self.len,
            region: self.region,
        }
    }
}

impl Buf for MutIoBuf {
    #[inline]
    fn bytes(&self) -> &[u8] {
        // SAFETY: as `window_mut`, for reading.
        unsafe { std::slice::from_raw_parts(self.base.as_ptr().add(self.off), self.len) }
    }

    #[inline]
    fn len(&self) -> usize {
        self.len
    }
}

impl fmt::Debug for MutIoBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MutIoBuf")
            .field("headroom", &self.headroom())
            .field("len", &self.len)
            .field("tailroom", &self.tailroom())
            .field("pooled", &self.size_class())
            .finish()
    }
}

/// An immutable, reference-counted buffer segment.
///
/// Clones share the underlying region; each clone has an independent
/// view window, so slicing is free. When the last descriptor of a
/// pool-backed region drops, the storage returns to the per-core
/// [`pool`].
///
/// The descriptor carries its window itself (pointer and length), so
/// reading the bytes never touches the region's header; clone and drop
/// are one operation on the region's counter.
pub struct IoBuf {
    /// First byte of the view window; `ptr .. ptr + len` lies inside
    /// the region's storage.
    ptr: NonNull<u8>,
    /// Length of the view window.
    len: usize,
    region: RegionRef,
}

// SAFETY: the window is read-only and stays alive through `region`,
// which is `Send + Sync`.
unsafe impl Send for IoBuf {}
// SAFETY: as above.
unsafe impl Sync for IoBuf {}

impl Clone for IoBuf {
    #[inline]
    fn clone(&self) -> Self {
        IoBuf {
            ptr: self.ptr,
            len: self.len,
            region: self.region.retain(),
        }
    }
}

impl IoBuf {
    /// Creates a buffer holding a copy of `data` (counted by
    /// [`stats::Snapshot::bytes_copied`]; the storage allocation is
    /// exact-size and unpooled).
    pub fn copy_from(data: &[u8]) -> Self {
        Self::gather_into(RegionRef::exact(data.len()), data.len(), [data])
    }

    /// One buffer holding `parts` back to back (`len` bytes in all), in
    /// a region of the smallest value class that fits — exact-size
    /// beyond the largest ([`RegionRef::alloc_value`]): a counted copy,
    /// and an allocation only when that class's lists are dry.
    pub(super) fn gather<'a>(len: usize, parts: impl IntoIterator<Item = &'a [u8]>) -> Self {
        Self::gather_into(RegionRef::alloc_value(len), len, parts)
    }

    /// Copies `parts` (`len` bytes in all) to the front of `region`.
    fn gather_into<'a>(
        region: RegionRef,
        len: usize,
        parts: impl IntoIterator<Item = &'a [u8]>,
    ) -> Self {
        stats::record_copy(len);
        let mut b = MutIoBuf::over(region, 0, 0, len);
        for part in parts {
            b.append(part.len()).copy_from_slice(part);
        }
        b.freeze()
    }

    /// Returns a new descriptor viewing `len` bytes from `start` of
    /// this view, sharing the same region (no copy).
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the current view.
    pub fn slice(&self, start: usize, len: usize) -> IoBuf {
        assert!(
            start <= self.len && len <= self.len - start,
            "slice({start}, {len}) exceeds view length {}",
            self.len
        );
        IoBuf {
            // SAFETY: `start <= self.len`, inside this view.
            ptr: unsafe { self.ptr.add(start) },
            len,
            region: self.region.retain(),
        }
    }

    /// Range-style form of [`Self::slice`]: a descriptor viewing
    /// `range` of this view, sharing the same region.
    pub fn slice_range(&self, range: Range<usize>) -> IoBuf {
        assert!(range.start <= range.end, "inverted slice range");
        self.slice(range.start, range.end - range.start)
    }

    /// Shrinks the view from the front by `n` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `n > len()`.
    pub fn advance(&mut self, n: usize) {
        assert!(n <= self.len, "advance({n}) exceeds length {}", self.len);
        // SAFETY: `n <= self.len`, inside this view.
        self.ptr = unsafe { self.ptr.add(n) };
        self.len -= n;
    }

    /// Shrinks the view from the back by `n` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `n > len()`.
    pub fn trim_end(&mut self, n: usize) {
        assert!(n <= self.len, "trim_end({n}) exceeds length {}", self.len);
        self.len -= n;
    }

    /// Number of descriptors sharing this region (diagnostic; used by
    /// tests to assert zero-copy behaviour).
    pub fn ref_count(&self) -> usize {
        self.region.ref_count()
    }

    /// Physical size of the backing region. A live descriptor pins the
    /// whole region, so long-lived holders (e.g. a key-value store)
    /// compare this against [`len`](Buf::len) to decide when keeping a
    /// small sub-view zero-copy would pin a disproportionate amount of
    /// memory.
    pub fn region_len(&self) -> usize {
        self.region.cap()
    }

    /// Identity of the backing region (for pinned-storage accounting:
    /// two descriptors with the same id pin the same storage once).
    #[inline]
    pub(super) fn region_id(&self) -> usize {
        self.region.id()
    }

    /// Grows the window `n` bytes toward the front of its region and
    /// returns the newly exposed bytes for the caller to fill. `None`
    /// (changing nothing) unless this is the region's **only**
    /// descriptor and the region has `n` bytes in front of the window.
    #[inline]
    pub(super) fn prepend_in_place(&mut self, n: usize) -> Option<&mut [u8]> {
        let room = self.ptr.as_ptr() as usize - self.region.data().as_ptr() as usize;
        if room < n || !self.region.is_unique() {
            return None;
        }
        // SAFETY: `n <= room`, so the new window still starts inside
        // the storage. This descriptor is the region's only one and is
        // borrowed mutably, so nothing else can read or write the
        // region while the returned slice lives; the bytes were
        // zero-initialised at allocation.
        let exposed = unsafe {
            self.ptr = self.ptr.sub(n);
            std::slice::from_raw_parts_mut(self.ptr.as_ptr(), n)
        };
        self.len += n;
        Some(exposed)
    }
}

impl Buf for IoBuf {
    #[inline]
    fn bytes(&self) -> &[u8] {
        // SAFETY: `ptr .. ptr + len` is inside the region's storage
        // (every constructor and `advance`/`slice` keeps it there),
        // which `region` keeps alive and which nothing writes while a
        // frozen descriptor exists.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }

    #[inline]
    fn len(&self) -> usize {
        self.len
    }
}

impl fmt::Debug for IoBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let base = self.region.data().as_ptr() as usize;
        f.debug_struct("IoBuf")
            .field("off", &(self.ptr.as_ptr() as usize - base))
            .field("len", &self.len)
            .field("refs", &self.ref_count())
            .finish()
    }
}
