//! Ownership of buffer storage: the intrusive region header, its
//! reference count, and the two handles a region is held by — a
//! [`FreeRegion`] while no descriptor references it, [`RegionRef`]s (one
//! counted reference each) while any does. Every read and write of the
//! count is in this file; the rest of `iobuf` sees a region only
//! through the methods here, and none of them hands out the header.

use std::alloc::Layout;
use std::mem::ManuallyDrop;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};

use super::pool::{self, PoolRoot, SizeClass};
use super::stats;
use crate::cpu::CoreId;

/// How a region's storage is owned, and where the region goes when
/// its last descriptor drops.
#[derive(Clone, Copy, PartialEq, Eq)]
enum RegionKind {
    /// Pool-shaped storage behind the header, in the header's own
    /// allocation; recycles into its home pool.
    Pooled(SizeClass),
    /// Exact-size storage behind the header, in the header's own
    /// allocation (requests beyond the largest class, copies); freed.
    Exact,
    /// A caller's vector in its own allocation
    /// ([`super::MutIoBuf::from_vec`]); both allocations are freed.
    Boxed,
}

/// The intrusive header of a buffer region. A pooled region is *one*
/// allocation — this header, then [`cap`](Self::cap) bytes — that moves
/// between descriptors, free lists, depots and mailboxes as a single
/// pointer.
///
/// Who may touch what: `refs` is the only field written while
/// descriptors exist. `home_core` is written by the sole owner between
/// taking the region off a free list and handing out its first
/// descriptor. Everything else is fixed at allocation. The bytes are
/// written only through a [`super::MutIoBuf`], which holds the region's
/// only reference.
#[repr(C, align(16))]
struct RegionHeader {
    /// Live descriptors; zero while the region is owned by a
    /// [`FreeRegion`].
    refs: AtomicUsize,
    /// First byte of storage.
    data: NonNull<u8>,
    /// Physical size of the storage.
    cap: usize,
    /// The pool a [`RegionKind::Pooled`] region recycles into. Weak, so
    /// regions parked in a pool's own lists (or in flight on another
    /// machine) never keep that pool alive; compared by address on the
    /// same-machine path, upgraded only on the cross-machine one.
    home: Weak<PoolRoot>,
    /// The core whose list the region was last acquired from.
    home_core: AtomicU32,
    kind: RegionKind,
}

/// Sole owner of a region that no descriptor references (`refs == 0`):
/// what free lists, depots and mailboxes hold. Dropping it frees the
/// storage.
pub(super) struct FreeRegion(NonNull<RegionHeader>);

#[cfg(test)]
thread_local! {
    /// Regions this thread allocated minus regions it freed: lets a
    /// test see a free (or a leak) that no pool counter records.
    pub(super) static LIVE_REGIONS: std::cell::Cell<isize> = const { std::cell::Cell::new(0) };
}

// SAFETY: a `FreeRegion` is the only handle to its region, so sending
// it sends the header (atomics, plain words, a `Weak<PoolRoot>` with
// `PoolRoot: Send + Sync`) and the bytes together.
unsafe impl Send for FreeRegion {}

impl FreeRegion {
    /// Layout of a header followed by `inline` storage bytes.
    fn layout(inline: usize) -> Layout {
        Layout::from_size_align(
            std::mem::size_of::<RegionHeader>()
                .checked_add(inline)
                .expect("region size overflows"),
            std::mem::align_of::<RegionHeader>(),
        )
        .expect("region size overflows")
    }

    /// Allocates a header plus, unless `external` storage is given,
    /// `cap` zeroed bytes behind it.
    fn alloc(
        kind: RegionKind,
        cap: usize,
        external: Option<NonNull<u8>>,
        home: Weak<PoolRoot>,
    ) -> FreeRegion {
        let layout = Self::layout(if external.is_some() { 0 } else { cap });
        // SAFETY: the layout always includes the header, so its size is
        // non-zero.
        let raw = unsafe { std::alloc::alloc_zeroed(layout) };
        let Some(base) = NonNull::new(raw) else {
            std::alloc::handle_alloc_error(layout)
        };
        // SAFETY: the allocation is at least one header long, so the
        // offset is in bounds (one past the end when `cap` is zero).
        let inline = unsafe { base.add(std::mem::size_of::<RegionHeader>()) };
        let hdr = base.cast::<RegionHeader>();
        // SAFETY: `hdr` is the start of a fresh allocation sized and
        // aligned for a header.
        unsafe {
            hdr.write(RegionHeader {
                refs: AtomicUsize::new(0),
                data: external.unwrap_or(inline),
                cap,
                home,
                home_core: AtomicU32::new(0),
                kind,
            });
        }
        #[cfg(test)]
        LIVE_REGIONS.with(|n| n.set(n.get() + 1));
        FreeRegion(hdr)
    }

    /// A fresh pool-shaped region of `class` homed at `home`.
    pub(super) fn pooled(class: SizeClass, home: Weak<PoolRoot>) -> FreeRegion {
        Self::alloc(RegionKind::Pooled(class), class.capacity(), None, home)
    }

    /// A fresh exact-size region that never enters a pool.
    pub(super) fn exact(cap: usize) -> FreeRegion {
        Self::alloc(RegionKind::Exact, cap, None, Weak::new())
    }

    /// Wraps storage the caller already owns (never enters a pool).
    pub(super) fn boxed(data: Box<[u8]>) -> FreeRegion {
        let cap = data.len();
        let data = NonNull::new(Box::into_raw(data).cast::<u8>()).expect("boxes are non-null");
        Self::alloc(RegionKind::Boxed, cap, Some(data), Weak::new())
    }

    fn header(&self) -> &RegionHeader {
        // SAFETY: the header lives until `self` drops.
        unsafe { self.0.as_ref() }
    }

    /// Whether this region recycles into the pool rooted at `root`.
    pub(super) fn is_home(&self, root: &Arc<PoolRoot>) -> bool {
        std::ptr::eq(self.header().home.as_ptr(), Arc::as_ptr(root))
    }

    /// The home pool, if it still exists.
    pub(super) fn home(&self) -> Option<Arc<PoolRoot>> {
        self.header().home.upgrade()
    }

    pub(super) fn home_core(&self) -> CoreId {
        CoreId(self.header().home_core.load(Ordering::Relaxed))
    }

    /// Records the core whose list the region is being acquired from.
    pub(super) fn set_home_core(&self, core: CoreId) {
        // Relaxed, here and in `into_ref`: nobody else can reach the
        // region until its first reference is shared, and whatever
        // shares it synchronizes.
        self.header().home_core.store(core.0, Ordering::Relaxed);
    }

    /// Hands the region to its first descriptor.
    pub(super) fn into_ref(self) -> RegionRef {
        self.header().refs.store(1, Ordering::Relaxed);
        RegionRef(ManuallyDrop::new(self).0)
    }
}

impl Drop for FreeRegion {
    fn drop(&mut self) {
        #[cfg(test)]
        LIVE_REGIONS.with(|n| n.set(n.get() - 1));
        let hdr = self.0.as_ptr();
        // SAFETY: `refs == 0` and `self` is the only handle, so nothing
        // else can reach the header or the bytes. The header was
        // written by `alloc` into an allocation of exactly the layout
        // recomputed here, and `Boxed` storage came from
        // `Box::<[u8]>::into_raw` with length `cap`.
        unsafe {
            let (kind, data, cap) = ((*hdr).kind, (*hdr).data, (*hdr).cap);
            std::ptr::drop_in_place(hdr);
            let inline = if kind == RegionKind::Boxed {
                drop(Box::from_raw(std::ptr::slice_from_raw_parts_mut(
                    data.as_ptr(),
                    cap,
                )));
                0
            } else {
                cap
            };
            std::alloc::dealloc(hdr.cast(), Self::layout(inline));
        }
    }
}

/// One counted reference to a region — what every descriptor holds.
/// Dropping the last one recycles a pooled region into the freeing
/// core's pool (or its home mailbox) and frees any other.
pub(super) struct RegionRef(NonNull<RegionHeader>);

// SAFETY: the count is atomic; `home_core` is atomic and written only
// while the region has a single owner; every other header field is
// immutable while a reference exists (`Weak<PoolRoot>` is `Sync`). The
// bytes are read through shared descriptors and written only through a
// `MutIoBuf` (which needs `&mut` and is the only view of the bytes it
// can write) or by `IoBuf::prepend_in_place` (which checks
// `is_unique` first).
unsafe impl Send for RegionRef {}
// SAFETY: as above.
unsafe impl Sync for RegionRef {}

impl RegionRef {
    /// Allocates (or recycles) storage of at least `capacity` bytes.
    /// Requests are routed by length to the smallest size class that
    /// fits ([`pool::class_for`]) and served through the buffer-pool
    /// Ebb's per-core reps; anything beyond the largest class gets an
    /// exact-size one-shot allocation.
    #[inline]
    pub(super) fn alloc(capacity: usize) -> RegionRef {
        match pool::class_for(capacity) {
            Some(class) => pool::acquire(class),
            None => {
                stats::record_oversize();
                FreeRegion::exact(capacity).into_ref()
            }
        }
    }

    #[inline]
    fn header(&self) -> &RegionHeader {
        // SAFETY: this reference keeps `refs > 0`, so the header is
        // live.
        unsafe { self.0.as_ref() }
    }

    /// A second reference to the same region.
    #[inline]
    pub(super) fn retain(&self) -> RegionRef {
        // Relaxed, as `Arc::clone`: the new reference is made from a
        // live one, which already orders it after the region's
        // creation.
        let old = self.header().refs.fetch_add(1, Ordering::Relaxed);
        if old > isize::MAX as usize {
            // Leaked clones must not wrap the count into a free.
            std::process::abort();
        }
        RegionRef(self.0)
    }

    /// Whether this is the region's only reference — what a caller
    /// must know before writing through a frozen descriptor.
    #[inline]
    pub(super) fn is_unique(&self) -> bool {
        // Acquire, as `Arc::get_mut`: every other descriptor's reads of
        // the region happened before the drop that left this one alone.
        self.header().refs.load(Ordering::Acquire) == 1
    }

    /// Live references to the region (diagnostic).
    pub(super) fn ref_count(&self) -> usize {
        self.header().refs.load(Ordering::Relaxed)
    }

    /// First byte of the region's storage.
    #[inline]
    pub(super) fn data(&self) -> NonNull<u8> {
        self.header().data
    }

    /// Physical size of the region's storage.
    #[inline]
    pub(super) fn cap(&self) -> usize {
        self.header().cap
    }

    /// Identity of the region: equal exactly for references to the
    /// same one.
    #[inline]
    pub(super) fn id(&self) -> usize {
        self.0.as_ptr() as usize
    }

    /// The pool class the region recycles into, if it is pooled.
    pub(super) fn size_class(&self) -> Option<SizeClass> {
        match self.header().kind {
            RegionKind::Pooled(class) => Some(class),
            RegionKind::Exact | RegionKind::Boxed => None,
        }
    }
}

impl Drop for RegionRef {
    #[inline]
    fn drop(&mut self) {
        // Release: this descriptor's reads of the bytes happen before
        // the decrement; the Acquire fence on the last drop makes every
        // such read happen before the region is reused or freed (the
        // `Arc` protocol).
        if self.header().refs.fetch_sub(1, Ordering::Release) != 1 {
            return;
        }
        std::sync::atomic::fence(Ordering::Acquire);
        let region = FreeRegion(self.0);
        match region.header().kind {
            RegionKind::Pooled(class) => pool::recycle(class, region),
            RegionKind::Exact | RegionKind::Boxed => drop(region),
        }
    }
}

/// The count's protocol on regions that never see a pool: no runtime, no
/// Ebb, no descriptor — small enough to be the interpreter's first
/// target.
#[cfg(test)]
mod tests {
    use super::*;

    fn live() -> isize {
        LIVE_REGIONS.with(std::cell::Cell::get)
    }

    #[test]
    fn the_last_of_many_references_frees_the_region_once() {
        let live0 = live();
        let first = FreeRegion::exact(64).into_ref();
        assert_eq!((first.ref_count(), first.cap()), (1, 64));
        assert_eq!(first.size_class(), None);
        assert_eq!(live(), live0 + 1);
        let more: Vec<RegionRef> = (0..5).map(|_| first.retain()).collect();
        assert_eq!(first.ref_count(), 6);
        assert!(more.iter().all(|r| r.id() == first.id()));
        assert_ne!(FreeRegion::exact(0).into_ref().id(), first.id());
        // The first reference is not special: the region outlives it.
        drop(first);
        assert_eq!(live(), live0 + 1);
        let last = more.into_iter().reduce(|_, r| r).expect("five");
        assert_eq!(last.ref_count(), 1);
        assert_eq!(live(), live0 + 1);
        drop(last);
        assert_eq!(live(), live0, "freed by the last drop, and only then");
    }

    #[test]
    fn only_a_sole_reference_is_unique() {
        let a = FreeRegion::exact(16).into_ref();
        assert!(a.is_unique());
        // What `MutIoBuf::split_frozen` leaves behind: the frozen front
        // and the still-mutable tail hold one reference each, so
        // neither may write in front of its window.
        let b = a.retain();
        assert!(!a.is_unique() && !b.is_unique());
        drop(a);
        assert!(b.is_unique());
    }

    #[test]
    fn a_boxed_region_frees_the_header_and_the_callers_storage() {
        let live0 = live();
        let storage: Box<[u8]> = (0..=255u8).collect();
        let at = storage.as_ptr();
        let r = FreeRegion::boxed(storage).into_ref();
        assert_eq!(live(), live0 + 1);
        assert_eq!(
            (r.data().as_ptr().cast_const(), r.cap()),
            (at, 256),
            "wrapped, not copied"
        );
        let keep = r.retain();
        drop(r);
        assert_eq!(live(), live0 + 1);
        drop(keep);
        // The header is counted here; the box's own allocation is the
        // interpreter's to miss (Miri fails the run on a leak).
        assert_eq!(live(), live0);
    }
}
