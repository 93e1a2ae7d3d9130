//! IOBuf: the zero-copy buffer descriptor (§3.6 of the paper).
//!
//! An IOBuf *descriptor* manages ownership of a region of memory plus a
//! view (window) onto a portion of it. Data moves through the system by
//! moving descriptors, never by copying bytes:
//!
//! * A device driver fills a [`MutIoBuf`] and passes it up the stack.
//! * Each protocol layer *advances* the view past its header.
//! * On transmit, layers *prepend* headers into headroom reserved in
//!   front of the payload, so adding an Ethernet/IP/TCP header never
//!   reallocates or copies the payload.
//! * [`IoBuf`] is the frozen, shareable form (a counted reference to
//!   the region): TCP keeps a clone in its retransmit queue while the
//!   device reads another — one region, two descriptors, zero copies.
//! * [`Chain`] strings segments together for scatter/gather I/O, and
//!   [`Cursor`] parses across segment boundaries.
//!
//! Two pieces make the discipline *cheap* as well as copy-free:
//!
//! * **Buffer pooling** ([`pool`]): regions are recycled through
//!   per-core free lists in one table of *size classes* — a
//!   [`pool::SizeClass::SMALL`] class for MTU-sized frames and header
//!   buffers, a [`pool::SizeClass::LARGE`] class for jumbo frames and
//!   multi-kilobyte message staging, twenty small *value classes*
//!   (16-byte steps to 128 B, then four steps per doubling to 1 KiB)
//!   and a 128-byte [`pool::SizeClass::HEADER`] class for a frame that
//!   is all header — instead of being allocated and zero-filled per
//!   packet. A buffer that is appended to is routed by requested length
//!   ([`pool::class_for`]) to `SMALL` or `LARGE`; only requests beyond
//!   the largest class fall back to exact-size one-shot allocations.
//!   `HEADER` is taken only on request ([`MutIoBuf::header`]).
//!   [`Chain::compact`], whose length is known up front, copies into
//!   the smallest value class that fits ([`pool::value_class_for`]),
//!   or an exact-size region beyond 1 KiB; a chain already in such a
//!   region is left alone. When the last descriptor of a pooled region
//!   drops, its storage returns to the *freeing core's* list
//!   automatically, and a shared depot rebalances lists across cores
//!   in batches when producers and consumers of buffers sit on
//!   different cores.
//! * **Instrumentation** ([`stats`]): per-core counters record every
//!   payload byte copied between buffers, every fresh storage
//!   allocation, and per-class pool activity (hits, returns, fallback
//!   allocations, depot migration), so benchmarks can *assert* the
//!   zero-copy/zero-alloc property of a steady-state request path —
//!   per size class — rather than assume it.
//!
//! The code is cut where ownership changes hands. `region` owns the
//! storage and its reference count and is the only file that reads or
//! writes the count; `buf` owns the two descriptors' windows and reaches
//! a region only through `RegionRef`'s methods; `chain` owns the slot
//! array (and the per-thread free list of spilled ones) and reaches a
//! segment only through [`IoBuf`]'s methods. Those
//! three hold every `unsafe` block. `cursor`, [`pool`], [`stats`] and
//! [`wire`] are built on the safe interfaces of the first three and
//! forbid `unsafe` outright.

mod buf;
mod chain;
mod cursor;
pub mod pool;
mod region;
pub mod stats;
pub mod wire;

#[cfg(test)]
mod tests;

pub use buf::{IoBuf, MutIoBuf};
pub use chain::{
    Chain, ChainIntoIter, FramePeek, AMPLIFICATION_FACTOR, INLINE_SEGS, PINNED_DEDUP_REGIONS,
};
pub use cursor::Cursor;

/// Read access to a buffer segment's visible bytes.
pub trait Buf {
    /// The bytes currently inside the view window.
    fn bytes(&self) -> &[u8];

    /// Length of the view window.
    fn len(&self) -> usize {
        self.bytes().len()
    }

    /// Whether the view window is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}
