#![forbid(unsafe_code)]
//! Zero-copy bookkeeping: counters that let benchmarks prove the
//! fast-path property ("0 payload bytes copied, 0 fresh allocations").
//!
//! What counts:
//!
//! * [`Snapshot::bytes_copied`] — payload bytes memcpy'd between heap
//!   buffers: [`IoBuf::copy_from`], [`MutIoBuf::append_slice`],
//!   [`Chain::copy_to_vec`], [`Chain::compact`], [`Cursor::read_vec`],
//!   and a chain that [`WireWriter::bytes32_chain`] copies rather than
//!   links. Fixed-width header-field reads ([`Cursor::read_u32_be`] and
//!   friends, [`Cursor::read_exact`] into caller stack arrays) are
//!   *parsing*, and a [`WireWriter`]'s scalar and slice writes (op
//!   codes, versions, keys) are *marshalling* — header construction;
//!   neither is data movement and neither is counted. Nor are in-place
//!   walks such as checksumming.
//! * [`Snapshot::bufs_allocated`] — fresh backing-store acquisitions for
//!   buffer regions: a pool *miss*, an over-sized request, or a
//!   caller-allocated vector wrapped via [`MutIoBuf::from_vec`]. Pool
//!   hits recycle storage and count under [`Snapshot::pool_hits`]
//!   instead.
//!
//! Counters are per-core **representative state of the buffer-pool
//! Ebb** ([`pool::PoolEbb`]): plain `Cell`s, no synchronization on the
//! hot path, and — because events are non-preemptive — exact. Every
//! read and write resolves through the well-known
//! [`SystemEbb::BufferPool`](crate::ebb::SystemEbb) id against the
//! calling thread's dispatch context (the entered runtime, or the
//! thread's private ambient core outside one —
//! [`crate::runtime::with_context`]), so counters are per *machine*:
//! [`snapshot`] reads the calling core, [`runtime_snapshot`] aggregates
//! one machine's cores, and [`world_snapshot`] sums machines for a whole
//! simulated world.
//!
//! [`IoBuf::copy_from`]: super::IoBuf::copy_from
//! [`MutIoBuf::append_slice`]: super::MutIoBuf::append_slice
//! [`MutIoBuf::from_vec`]: super::MutIoBuf::from_vec
//! [`Chain::copy_to_vec`]: super::Chain::copy_to_vec
//! [`Chain::compact`]: super::Chain::compact
//! [`Cursor::read_vec`]: super::Cursor::read_vec
//! [`Cursor::read_u32_be`]: super::Cursor::read_u32_be
//! [`Cursor::read_exact`]: super::Cursor::read_exact
//! [`WireWriter`]: super::wire::WireWriter
//! [`WireWriter::bytes32_chain`]: super::wire::WireWriter::bytes32_chain

use super::pool::{self, SizeClass, NUM_CLASSES};
use crate::ebb::SystemEbb;
use crate::runtime::Runtime;
use std::cell::Cell;

/// The per-core statistic cells, held by the core's pool rep and read
/// through [`Counters::snapshot`].
#[derive(Default)]
pub(super) struct Counters {
    pub(super) bytes_copied: Cell<u64>,
    pub(super) bufs_allocated: Cell<u64>,
    pub(super) oversize_allocs: Cell<u64>,
    pub(super) class_hits: [Cell<u64>; NUM_CLASSES],
    pub(super) class_returns: [Cell<u64>; NUM_CLASSES],
    pub(super) class_fallbacks: [Cell<u64>; NUM_CLASSES],
    pub(super) class_depot_in: [Cell<u64>; NUM_CLASSES],
    pub(super) class_depot_out: [Cell<u64>; NUM_CLASSES],
}

impl Counters {
    /// A point-in-time reading of the cells.
    fn snapshot(&self) -> Snapshot {
        Snapshot {
            bytes_copied: self.bytes_copied.get(),
            bufs_allocated: self.bufs_allocated.get(),
            pool_hits: self.class_hits.iter().map(Cell::get).sum(),
            pool_returns: self.class_returns.iter().map(Cell::get).sum(),
            oversize_allocs: self.oversize_allocs.get(),
            classes: std::array::from_fn(|i| ClassCounters {
                hits: self.class_hits[i].get(),
                returns: self.class_returns[i].get(),
                fallback_allocs: self.class_fallbacks[i].get(),
                depot_out: self.class_depot_out[i].get(),
                depot_in: self.class_depot_in[i].get(),
            }),
        }
    }
}

pub(super) fn bump(c: &Cell<u64>) {
    c.set(c.get() + 1);
}

pub(super) fn add(c: &Cell<u64>, n: u64) {
    c.set(c.get() + n);
}

pub(super) fn record_copy(n: usize) {
    pool::with_pool(|p| add(&p.counters.bytes_copied, n as u64));
}

pub(super) fn record_alloc() {
    pool::with_pool(|p| bump(&p.counters.bufs_allocated));
}

pub(super) fn record_oversize() {
    pool::with_pool(|p| {
        bump(&p.counters.bufs_allocated);
        bump(&p.counters.oversize_allocs);
    });
}

/// Per-class pool activity on this core.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClassCounters {
    /// Requests served by recycling a pooled region of this class.
    pub hits: u64,
    /// Regions of this class returned to a free list on final
    /// descriptor drop.
    pub returns: u64,
    /// Requests that fit this class but found both the core's list
    /// and the depot empty, forcing a fresh (still pool-shaped,
    /// still recyclable) allocation. A steady state that is truly
    /// pool-hot drives this to zero.
    pub fallback_allocs: u64,
    /// Regions this core pulled out of the shared depot — the
    /// consumer half of cross-core migration traffic.
    pub depot_out: u64,
    /// Regions this core flushed into the shared depot past its
    /// high watermark — the producer half of migration traffic.
    pub depot_in: u64,
}

/// A point-in-time reading of all counters, aggregate and per
/// class.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Payload bytes copied between buffers.
    pub bytes_copied: u64,
    /// Fresh buffer-storage allocations (all classes plus over-sized
    /// and caller-wrapped storage).
    pub bufs_allocated: u64,
    /// Buffer requests served by recycling pooled storage, summed over
    /// all size classes.
    pub pool_hits: u64,
    /// Pooled regions returned to a free list on final descriptor
    /// drop, summed over all size classes.
    pub pool_returns: u64,
    /// Allocations too large for any size class (exact-size, unpooled).
    pub oversize_allocs: u64,
    /// Per-class counters, indexed by [`SizeClass::index`].
    pub classes: [ClassCounters; NUM_CLASSES],
}

/// Reads all counters at once (this dispatch context).
pub fn snapshot() -> Snapshot {
    pool::with_pool(|p| p.counters.snapshot())
}

/// Sums the counters of **every core** of `rt` — the per-machine
/// reading benchmarks take around a measured phase (a simulated
/// world sums this over its machines via [`Snapshot::merge`]).
///
/// Walks the machine's installed pool reps from the calling
/// thread; the caller must hold the quiescence contract of
/// [`crate::ebb::EbbManager::for_each_rep`] (trivially true on the
/// simulation backend's single driving thread).
pub fn runtime_snapshot(rt: &Runtime) -> Snapshot {
    let mut acc = Snapshot::default();
    rt.ebbs()
        .for_each_rep::<pool::PoolEbb>(SystemEbb::BufferPool.id(), |_core, rep| {
            acc.merge(&rep.counters.snapshot());
        });
    acc
}

/// Sums [`runtime_snapshot`] over every machine of a simulated
/// world — the reading the cross-machine zero-copy assertions
/// take (a request path's allocations land on both ends of the
/// wire).
pub fn world_snapshot<'a>(rts: impl IntoIterator<Item = &'a Runtime>) -> Snapshot {
    let mut acc = Snapshot::default();
    for rt in rts {
        acc.merge(&runtime_snapshot(rt));
    }
    acc
}

impl ClassCounters {
    /// `f(mine, theirs)`, counter by counter.
    fn zip(&self, o: &ClassCounters, f: impl Fn(u64, u64) -> u64) -> ClassCounters {
        ClassCounters {
            hits: f(self.hits, o.hits),
            returns: f(self.returns, o.returns),
            fallback_allocs: f(self.fallback_allocs, o.fallback_allocs),
            depot_out: f(self.depot_out, o.depot_out),
            depot_in: f(self.depot_in, o.depot_in),
        }
    }

    /// Counter deltas since `earlier`.
    pub fn since(&self, earlier: &ClassCounters) -> ClassCounters {
        self.zip(earlier, |now, then| now - then)
    }
}

impl Snapshot {
    /// `f(mine, theirs)`, counter by counter.
    fn zip(&self, o: &Snapshot, f: impl Fn(u64, u64) -> u64 + Copy) -> Snapshot {
        Snapshot {
            bytes_copied: f(self.bytes_copied, o.bytes_copied),
            bufs_allocated: f(self.bufs_allocated, o.bufs_allocated),
            pool_hits: f(self.pool_hits, o.pool_hits),
            pool_returns: f(self.pool_returns, o.pool_returns),
            oversize_allocs: f(self.oversize_allocs, o.oversize_allocs),
            classes: std::array::from_fn(|i| self.classes[i].zip(&o.classes[i], f)),
        }
    }

    /// Counter deltas since `earlier`.
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        self.zip(earlier, |now, then| now - then)
    }

    /// The per-class counters for `class`.
    pub fn class(&self, class: SizeClass) -> &ClassCounters {
        &self.classes[class.index()]
    }

    /// Accumulates `other` into `self` (summing across cores or
    /// machines).
    pub fn merge(&mut self, other: &Snapshot) {
        *self = self.zip(other, |mine, theirs| mine + theirs);
    }
}
