//! [`Chain`]: segments strung together for scatter/gather I/O, in one
//! slot array that is the chain's own body until it outgrows it. The
//! `unsafe` here is the slot array's; a segment is reached only through
//! [`Buf`] and [`IoBuf`]'s methods.

use std::alloc::Layout;
use std::cell::RefCell;
use std::mem::{ManuallyDrop, MaybeUninit};
use std::ptr::NonNull;

use super::{pool, stats, Buf, Cursor, IoBuf};

/// Segments a [`Chain`] holds in its own body before it moves them to
/// a heap array (its *spine*). Picked by measurement on `perf_ledger`:
/// a chain is handed over by value about ten times per frame, and with
/// four 24-byte descriptors it is 120 bytes — a few vector stores,
/// where a larger body makes every hand-off a `memcpy` call. Six or
/// eight slots cost 10–20 % more host time on both the small-GET and
/// the 8 KiB-SET workloads; two or three measure the same as four.
/// A fifth segment costs no allocator call in steady state: spines
/// come from, and go back to, a small free list of the thread's own
/// (§3.4's per-core list on the native backend, where a thread is a
/// core), so a reply or an 8 KiB value spilling past four segments
/// reuses the spine the previous one dropped.
pub const INLINE_SEGS: usize = 4;

/// Distinct backing regions [`Chain::pinned_bytes`] deduplicates
/// exactly before degrading to an upper bound.
pub const PINNED_DEDUP_REGIONS: usize = 32;

/// How many times its logical length a long-lived chain may pin before
/// [`Chain::compact_if_amplified`] copies it out: a value at rest, or
/// what a backlog holds once [`Chain::next_frame`] has peeled every
/// complete frame off it. A tiny value held as a view would pin whole
/// (possibly pooled) receive regions for as long as it is kept; larger
/// ones stay zero-copy.
pub const AMPLIFICATION_FACTOR: usize = 4;

/// Segments a backlog holds before [`Chain::next_frame`] checks it for
/// amplification: a peer trickling a request a few bytes per packet
/// would otherwise pin one receive region per packet until the request
/// completes. What framing leaves behind in well-formed traffic (one
/// partial frame) stays far below this.
const BACKLOG_SEGS: usize = 64;

/// What a framing `peek` makes of the header at the front of a backlog
/// ([`Chain::next_frame`]): `Ok(Some((meta, header_len, body_len)))`
/// once it is readable, `Ok(None)` before, `Err` for a stream that has
/// stopped being frames.
pub type FramePeek<M, E> = Result<Option<(M, usize, usize)>, E>;

/// Spines one thread keeps for reuse: the smallest count at which
/// `perf_ledger`'s workloads stop missing (with 8, `get_pipe` still
/// makes 0.066 allocator calls per request; with 16, 0.005). All of a
/// simulated world's machines share the host thread's list.
pub(super) const SPINE_CACHE: usize = 16;

/// Largest spine, in bytes, the free list keeps: 128 [`IoBuf`] slots.
/// With [`SPINE_CACHE`] it bounds what a thread pins to 64 KiB; a
/// larger spine (a backlog of small views) goes back to the allocator.
/// On `perf_ledger` no cap measures the same, and 512 bytes misses
/// (`get_pipe` 0.075 calls per request).
pub(super) const SPINE_CACHE_MAX_BYTES: usize = 4096;

/// A spine with no segments in it, and the layout it was allocated
/// with. Only [`Spine::take`] allocates one and only dropping a
/// `Spine` frees one; in between it belongs to a chain or to the
/// thread's free list.
struct Spine {
    ptr: NonNull<u8>,
    layout: Layout,
}

impl Drop for Spine {
    fn drop(&mut self) {
        // SAFETY: `ptr` was allocated by `Spine::take` with `layout`,
        // and this `Spine` is its only owner.
        unsafe { std::alloc::dealloc(self.ptr.as_ptr(), self.layout) }
    }
}

/// The thread's spare spines, `spines[..len]`. Exact `Layout` match
/// only: a spine is never resized.
struct SpineCache {
    spines: [Option<Spine>; SPINE_CACHE],
    len: usize,
}

thread_local! {
    /// Dropped at thread exit, freeing whatever is cached.
    static SPINES: RefCell<SpineCache> = const {
        RefCell::new(SpineCache { spines: [const { None }; SPINE_CACHE], len: 0 })
    };
}

impl Spine {
    /// Memory for a spine of `layout`: a spare of exactly that layout
    /// from the thread's free list, or fresh from the allocator.
    fn take(layout: Layout) -> NonNull<u8> {
        let cached = SPINES
            .try_with(|c| {
                let c = &mut *c.borrow_mut();
                let at = c.spines[..c.len]
                    .iter()
                    .rposition(|s| s.as_ref().is_some_and(|s| s.layout == layout))?;
                c.len -= 1;
                c.spines.swap(at, c.len);
                c.spines[c.len].take()
            })
            .ok()
            .flatten();
        if let Some(spine) = cached {
            return ManuallyDrop::new(spine).ptr;
        }
        assert!(layout.size() > 0, "zero-sized chain segments");
        // SAFETY: the layout's size is non-zero, checked above.
        let raw = unsafe { std::alloc::alloc(layout) };
        NonNull::new(raw).unwrap_or_else(|| std::alloc::handle_alloc_error(layout))
    }

    /// Keeps the spine on the thread's free list; frees it when the list
    /// is full, the spine is too large to keep, or the thread is exiting.
    fn recycle(self) {
        if self.layout.size() > SPINE_CACHE_MAX_BYTES {
            return;
        }
        let _ = SPINES.try_with(|c| {
            let c = &mut *c.borrow_mut();
            if c.len < SPINE_CACHE {
                c.spines[c.len] = Some(self);
                c.len += 1;
            }
        });
    }
}

/// Where a chain's slots live: in the chain itself, or — once it has
/// held more than [`INLINE_SEGS`] segments — in a spine it keeps for
/// the rest of its life.
union Slots<B> {
    inline: ManuallyDrop<[MaybeUninit<B>; INLINE_SEGS]>,
    heap: NonNull<B>,
}

/// A chain of buffer segments presented as one logical byte sequence —
/// the scatter/gather unit accepted by the network stack's send path and
/// produced by its receive path.
///
/// The segments sit contiguously in one slot array, `head` slots in:
/// taking from the front ([`Chain::advance`], [`Chain::split_to`],
/// owning iteration) bumps `head` and moves nothing. The first
/// [`INLINE_SEGS`] slots are the chain's own body; a longer chain moves
/// to a spine and stays there, keeping its capacity when it drains
/// (e.g. across [`Chain::split_to`] calls). Spines are recycled through
/// a per-thread free list, so steady-state descriptor movement performs
/// no allocations — the hot-path cost the IOBuf byte/alloc counters do
/// *not* see.
pub struct Chain<B: Buf> {
    slots: Slots<B>,
    /// Slots in the array: `INLINE_SEGS` exactly while `slots.inline`
    /// is the live field, more once `slots.heap` is.
    cap: u32,
    /// Slots `head .. head + len` hold the segments, in order; every
    /// other slot is uninitialised. `head + len <= cap`, and `head == 0`
    /// whenever `len == 0`.
    head: u32,
    len: u32,
    /// Sum of the segments' lengths.
    total: usize,
}

// SAFETY: a chain owns its segments (inline or in its private spine),
// like a `Vec<B>`.
unsafe impl<B: Buf + Send> Send for Chain<B> {}
// SAFETY: as above; `&Chain<B>` only hands out `&B`.
unsafe impl<B: Buf + Sync> Sync for Chain<B> {}

impl<B: Buf + Clone> Clone for Chain<B> {
    /// Clones the descriptor chain; for [`IoBuf`] segments this shares
    /// the underlying storage (no bytes are copied).
    fn clone(&self) -> Self {
        let mut out = Chain::new();
        out.reserve_back(self.segs().len());
        for seg in self.segs() {
            out.push_back(seg.clone());
        }
        out
    }
}

impl<B: Buf> Default for Chain<B> {
    fn default() -> Self {
        Self::new()
    }
}

impl<B: Buf> Drop for Chain<B> {
    fn drop(&mut self) {
        // SAFETY: `segs_mut` is exactly the initialised slots; they are
        // not touched again.
        unsafe { std::ptr::drop_in_place(self.segs_mut()) };
        self.release_spine();
    }
}

impl<B: Buf> Chain<B> {
    /// An empty chain.
    pub fn new() -> Self {
        Chain {
            slots: Slots {
                inline: ManuallyDrop::new([const { MaybeUninit::uninit() }; INLINE_SEGS]),
            },
            cap: INLINE_SEGS as u32,
            head: 0,
            len: 0,
            total: 0,
        }
    }

    /// A chain with a single segment.
    pub fn single(seg: B) -> Self {
        let mut c = Chain::new();
        c.push_back(seg);
        c
    }

    #[inline]
    fn spilled(&self) -> bool {
        self.cap as usize != INLINE_SEGS
    }

    fn heap_layout(cap: usize) -> Layout {
        Layout::array::<B>(cap).expect("chain capacity overflows")
    }

    /// The spine, once the chain has one.
    #[inline]
    fn spine(&self) -> Option<NonNull<B>> {
        if self.spilled() {
            // SAFETY: `cap` says `heap` is the live field.
            Some(unsafe { self.slots.heap })
        } else {
            None
        }
    }

    /// First slot of the array.
    #[inline]
    fn base(&self) -> *const B {
        match self.spine() {
            Some(spine) => spine.as_ptr(),
            // `ManuallyDrop` and `MaybeUninit` are transparent over `B`.
            None => (&raw const self.slots.inline).cast(),
        }
    }

    #[inline]
    fn base_mut(&mut self) -> *mut B {
        match self.spine() {
            Some(spine) => spine.as_ptr(),
            None => (&raw mut self.slots.inline).cast(),
        }
    }

    /// Hands the spine, if any, back to the thread's free list. Its
    /// slots must hold no segment; the chain must not use it again.
    fn release_spine(&mut self) {
        if let Some(spine) = self.spine() {
            let layout = Self::heap_layout(self.cap as usize);
            Spine {
                ptr: spine.cast(),
                layout,
            }
            .recycle();
        }
    }

    /// The segments, in order.
    #[inline]
    fn segs(&self) -> &[B] {
        // SAFETY: slots `head .. head + len` are initialised and inside
        // the array.
        unsafe {
            std::slice::from_raw_parts(self.base().add(self.head as usize), self.len as usize)
        }
    }

    #[inline]
    fn segs_mut(&mut self) -> &mut [B] {
        self.parts_mut().0
    }

    /// The segments and their summed length, borrowed side by side for
    /// an operation on a segment that changes the sum.
    #[inline]
    fn parts_mut(&mut self) -> (&mut [B], &mut usize) {
        let (head, len) = (self.head as usize, self.len as usize);
        let base = self.base_mut();
        // SAFETY: as `segs`; the slot array and `total` do not overlap.
        let segs = unsafe { std::slice::from_raw_parts_mut(base.add(head), len) };
        (segs, &mut self.total)
    }

    /// Slots in the array right now.
    #[cfg(test)]
    pub(super) fn slot_capacity(&self) -> usize {
        self.cap as usize
    }

    /// Moves the segments into a spine of `new_cap` slots (starting at
    /// slot `at`), releasing the previous spine if there was one.
    fn regrow(&mut self, new_cap: usize, at: usize) {
        let len = self.len as usize;
        assert!(new_cap > INLINE_SEGS && at + len <= new_cap);
        let new_cap32 = u32::try_from(new_cap).expect("chain capacity overflows");
        let new = Spine::take(Self::heap_layout(new_cap)).cast::<B>();
        // SAFETY: the `len` live segments are moved (bitwise) into the
        // new spine, which has room at `at`; the old slots are then
        // treated as uninitialised.
        unsafe {
            std::ptr::copy_nonoverlapping(
                self.base().add(self.head as usize),
                new.as_ptr().add(at),
                len,
            );
        }
        self.release_spine();
        self.slots.heap = new;
        self.cap = new_cap32;
        self.head = at as u32;
    }

    /// Slides the segments so that they start at slot `at`.
    fn slide_to(&mut self, at: usize) {
        let (head, len) = (self.head as usize, self.len as usize);
        debug_assert!(at + len <= self.cap as usize);
        let base = self.base_mut();
        // SAFETY: source and destination ranges are inside the array;
        // `copy` allows them to overlap. Afterwards exactly the
        // destination range is treated as initialised.
        unsafe { std::ptr::copy(base.add(head), base.add(at), len) };
        self.head = at as u32;
    }

    /// Makes room for `n` more segments at the back. Slides the
    /// segments down to slot 0 when that frees enough slots without
    /// making a long queue pay a slide per push (the freed run must be
    /// at least a quarter of what is moved); grows the array otherwise.
    fn reserve_back(&mut self, n: usize) {
        let (head, len, cap) = (self.head as usize, self.len as usize, self.cap as usize);
        if head + len + n <= cap {
            return;
        }
        if len + n <= cap && head * 4 >= len {
            self.slide_to(0);
        } else {
            self.regrow((len + n).next_power_of_two().max(2 * cap), 0);
        }
    }

    /// Appends a segment to the back.
    pub fn push_back(&mut self, seg: B) {
        self.reserve_back(1);
        self.total += seg.len();
        let at = (self.head + self.len) as usize;
        // SAFETY: `reserve_back` left slot `head + len` inside the
        // array and vacant.
        unsafe { self.base_mut().add(at).write(seg) };
        self.len += 1;
    }

    /// Prepends a segment to the front.
    pub fn push_front(&mut self, seg: B) {
        if self.head == 0 {
            let (len, cap) = (self.len as usize, self.cap as usize);
            if len < cap {
                // Centre the free slots so alternating ends stay cheap.
                self.slide_to((cap - len).div_ceil(2));
            } else {
                self.regrow(2 * cap, cap / 2);
            }
        }
        self.total += seg.len();
        self.head -= 1;
        let at = self.head as usize;
        // SAFETY: slot `head - 1` was inside the array and vacant.
        unsafe { self.base_mut().add(at).write(seg) };
        self.len += 1;
    }

    /// Removes and returns the first segment, if any.
    fn pop_front_seg(&mut self) -> Option<B> {
        if self.len == 0 {
            return None;
        }
        // SAFETY: slot `head` is initialised; bumping `head` past it
        // makes this read the only owner of the value.
        let seg = unsafe { self.base().add(self.head as usize).read() };
        self.len -= 1;
        self.head = if self.len == 0 { 0 } else { self.head + 1 };
        self.total -= seg.len();
        Some(seg)
    }

    /// Appends all segments of `other`.
    pub fn append_chain(&mut self, mut other: Chain<B>) {
        if self.len == 0 && other.cap >= self.cap {
            // Nothing to keep in order: take over `other`'s array (and
            // any capacity it has grown) instead of moving segments.
            std::mem::swap(self, &mut other);
            return;
        }
        let n = other.len as usize;
        self.reserve_back(n);
        let at = (self.head + self.len) as usize;
        // SAFETY: `reserve_back` left `n` vacant slots behind the last
        // segment; the segments are moved (bitwise) out of `other`,
        // which forgets them by zeroing its length before it drops.
        unsafe {
            std::ptr::copy_nonoverlapping(
                other.base().add(other.head as usize),
                self.base_mut().add(at),
                n,
            );
        }
        self.len += n as u32;
        self.total += other.total;
        (other.head, other.len, other.total) = (0, 0, 0);
    }

    /// Total logical length across all segments.
    #[inline]
    pub fn len(&self) -> usize {
        self.total
    }

    /// Whether the chain holds zero bytes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Number of segments.
    #[inline]
    pub fn segment_count(&self) -> usize {
        self.len as usize
    }

    /// The `i`-th segment.
    ///
    /// # Panics
    ///
    /// Panics if `i >= segment_count()`.
    #[inline]
    pub fn seg(&self, i: usize) -> &B {
        &self.segs()[i]
    }

    /// Iterates the segments in order.
    #[inline]
    pub fn iter(&self) -> std::slice::Iter<'_, B> {
        self.segs().iter()
    }

    /// Copies the entire logical contents into one `Vec` (explicitly *not*
    /// zero-copy — counted by [`stats::Snapshot::bytes_copied`]; used at
    /// simulation edges and in tests).
    pub fn copy_to_vec(&self) -> Vec<u8> {
        stats::record_copy(self.total);
        let mut out = Vec::with_capacity(self.total);
        for s in self.iter() {
            out.extend_from_slice(s.bytes());
        }
        out
    }

    /// A parsing cursor positioned at the logical start.
    #[inline]
    pub fn cursor(&self) -> Cursor<'_, B> {
        Cursor::new(self.segs(), self.total)
    }
}

impl<'a, B: Buf> IntoIterator for &'a Chain<B> {
    type Item = &'a B;
    type IntoIter = std::slice::Iter<'a, B>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Owning iteration: consumes the chain front to back.
pub struct ChainIntoIter<B: Buf> {
    chain: Chain<B>,
}

impl<B: Buf> Iterator for ChainIntoIter<B> {
    type Item = B;

    fn next(&mut self) -> Option<B> {
        self.chain.pop_front_seg()
    }
}

impl<B: Buf> IntoIterator for Chain<B> {
    type Item = B;
    type IntoIter = ChainIntoIter<B>;

    fn into_iter(self) -> ChainIntoIter<B> {
        ChainIntoIter { chain: self }
    }
}

impl Chain<IoBuf> {
    /// Drops `n` bytes from the logical front, discarding exhausted
    /// segments and advancing into partial ones (no data copied).
    ///
    /// # Panics
    ///
    /// Panics if `n > len()`.
    pub fn advance(&mut self, mut n: usize) {
        assert!(n <= self.total, "advance({n}) exceeds chain length");
        while n > 0 {
            let first_len = self.seg(0).len();
            if n >= first_len {
                self.pop_front_seg();
                n -= first_len;
            } else {
                self.segs_mut()[0].advance(n);
                self.total -= n;
                n = 0;
            }
        }
    }

    /// Grows the first segment `n` bytes toward the front of its region
    /// and returns the newly exposed bytes for the caller to fill — a
    /// header written in front of a payload that is already frozen.
    /// `None` (changing nothing) unless that segment is its region's
    /// **only** descriptor and the region has `n` bytes in front of the
    /// window: a payload marshalled behind [`super::wire::HEADROOM`] that
    /// nobody else holds. Anything shared — a retry's retained clone, a
    /// buffer cut around a linked descriptor — is refused, and the
    /// caller frames with a buffer of its own instead.
    pub fn prepend_in_place(&mut self, n: usize) -> Option<&mut [u8]> {
        let (segs, total) = self.parts_mut();
        let exposed = segs.first_mut()?.prepend_in_place(n)?;
        *total += n;
        Some(exposed)
    }

    /// Physical bytes pinned by the segments' backing regions.
    /// Long-lived chains compare this against [`len`](Chain::len) to
    /// decide when small sub-views are pinning a disproportionate
    /// amount of buffer memory.
    ///
    /// Regions shared by several segments are counted once — a large
    /// message segmented to MSS produces many views of one staging
    /// region, which pins that region's bytes once, not per segment.
    /// Deduplication uses a fixed-size scratch table; chains with more
    /// than [`PINNED_DEDUP_REGIONS`] *distinct* regions degrade to an
    /// upper bound (over-counting further shared regions), which errs
    /// toward compaction — the safe direction for the
    /// anti-amplification gates built on this number.
    pub fn pinned_bytes(&self) -> usize {
        let mut seen = [0usize; PINNED_DEDUP_REGIONS];
        let mut nseen = 0;
        let mut total = 0;
        'segs: for seg in self.iter() {
            let id = seg.region_id();
            for &s in &seen[..nseen] {
                if s == id {
                    continue 'segs;
                }
            }
            if nseen < PINNED_DEDUP_REGIONS {
                seen[nseen] = id;
                nseen += 1;
            }
            total += seg.region_len();
        }
        total
    }

    /// Replaces the chain's contents with one segment in a region of
    /// the smallest value class that fits ([`pool::value_class_for`];
    /// exact-size beyond [`pool::MAX_VALUE_CAPACITY`]), releasing every
    /// pinned region: a counted copy, and an allocation only when that
    /// class's lists are dry. Used to bound memory amplification when a
    /// backlog accumulates many small views of large (possibly pooled)
    /// regions — e.g. a peer trickling a request one byte per packet —
    /// and to bring a small value to rest. A chain that is already one
    /// segment in a region no larger than that is left as it is (no
    /// copy, no allocation).
    pub fn compact(&mut self) {
        if self.segment_count() == 1 && self.seg(0).region_len() <= pool::value_capacity(self.total)
        {
            return; // already compact
        }
        let packed =
            (self.total > 0).then(|| IoBuf::gather(self.total, self.iter().map(Buf::bytes)));
        while self.pop_front_seg().is_some() {}
        if let Some(packed) = packed {
            self.push_back(packed);
        }
    }

    /// [`compact`](Chain::compact)s the chain when it pins more than
    /// [`AMPLIFICATION_FACTOR`]× its logical bytes.
    pub fn compact_if_amplified(&mut self) {
        if self.pinned_bytes() > self.total * AMPLIFICATION_FACTOR {
            self.compact();
        }
    }

    /// Takes the next complete frame off the front of a receive
    /// backlog: the one framing step of every byte stream. `peek` reads
    /// the header at the front ([`FramePeek`]).
    ///
    /// A frame that is all here is taken: its `header_len` bytes are
    /// dropped and its body split off zero-copy, `Ok(Some((meta,
    /// body)))`. An error clears the backlog, since no next frame
    /// boundary can be found. Otherwise, and only then, what is left (at
    /// most one partial frame) passes the anti-amplification gate: from
    /// 64 segments on, [`compact_if_amplified`]. So a backlog of
    /// complete pipelined frames is never copied.
    ///
    /// [`compact_if_amplified`]: Chain::compact_if_amplified
    #[inline]
    pub fn next_frame<M, E>(
        &mut self,
        peek: impl FnOnce(&Chain<IoBuf>) -> FramePeek<M, E>,
    ) -> Result<Option<(M, Chain<IoBuf>)>, E> {
        match peek(self).inspect_err(|_| *self = Chain::new())? {
            Some((meta, header_len, body_len)) if header_len + body_len <= self.total => {
                self.advance(header_len);
                Ok(Some((meta, self.split_to(body_len))))
            }
            _ => {
                if self.segment_count() >= BACKLOG_SEGS {
                    self.compact_if_amplified();
                }
                Ok(None)
            }
        }
    }

    /// Splits off the first `n` logical bytes into a new chain, sharing
    /// storage with this one (segments are sliced, not copied). The
    /// source chain's heap capacity, if any, is retained for reuse.
    ///
    /// # Panics
    ///
    /// Panics if `n > len()`.
    pub fn split_to(&mut self, n: usize) -> Chain<IoBuf> {
        assert!(n <= self.total, "split_to({n}) exceeds chain length");
        let mut out = Chain::new();
        let mut remaining = n;
        while remaining > 0 {
            let first_len = self.seg(0).len();
            if remaining >= first_len {
                let seg = self.pop_front_seg().expect("counted segment");
                remaining -= first_len;
                out.push_back(seg);
            } else {
                let first = &mut self.segs_mut()[0];
                let head = first.slice(0, remaining);
                first.advance(remaining);
                self.total -= remaining;
                out.push_back(head);
                remaining = 0;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests;
