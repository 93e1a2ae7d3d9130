//! Hashed hierarchical timer wheel: O(1) arm/cancel/re-arm.
//!
//! The event loop's previous timer store was a `BinaryHeap` with a
//! `HashSet` of cancelled tokens. Every TCP segment arms/disarms an RTO
//! and a delayed-ACK timer, so at high connection counts the dispatch
//! path paid O(log n) heap churn per segment — and cancelled entries
//! lingered in the heap (tombstones pinning their boxed handlers) until
//! their deadline passed. This module replaces it with the classic
//! hashed hierarchical wheel (lwIP/Linux `timer.c` style, cf. Varghese
//! & Lauck scheme 6).
//!
//! # Level/slot layout
//!
//! Time is measured in *ticks* of `2^shift` nanoseconds (`shift` is the
//! granularity; `0` means exact-nanosecond ticks — see
//! [`crate::clock::DEFAULT_TIMER_TICK_SHIFT`]). The wheel has
//! [`LEVELS`] levels of [`SLOTS`] slots each; a slot at level `L`
//! spans `64^L` ticks:
//!
//! ```text
//! level 0:  64 slots × 1 tick        covers deltas      1 .. 63
//! level 1:  64 slots × 64 ticks      covers deltas     64 .. 4095
//! level 2:  64 slots × 4096 ticks    covers deltas   4096 .. 262143
//! ...
//! level 7:  64 slots × 64^7 ticks    covers up to 2^48 ticks (~3.2
//!                                    days at shift 0; farther deadlines
//!                                    are clamped and simply re-cascade)
//! ```
//!
//! A timer with deadline `d` and delta `d - now` is hashed into level
//! `⌊log64(delta)⌋`, slot `(d >> 6·level) & 63` — a shift, a mask, and
//! a doubly-linked-list insert: **O(1)**. Cancellation unlinks the
//! entry from its slot list and returns it to a free list: **O(1)**,
//! and — unlike the heap's tombstone set — the handler's storage is
//! released immediately, so cancelled timers can no longer pin memory
//! by construction. Every entry is one-shot: it is pending from
//! [`TimerWheel::schedule`] until it fires ([`TimerWheel::pop_expired`]
//! frees it and hands back its handler) or is removed. Re-arming a
//! pending entry ([`TimerWheel::arm`]) is an unlink + relink with no
//! allocation — the TCP layer's per-ACK RTO restart.
//!
//! # Cascade cost model
//!
//! The wheel advances lazily: [`TimerWheel::advance`] walks, per level,
//! only the slots the clock passed since the previous advance — an
//! occupancy-bitmap AND with a circular range mask, so empty regions
//! cost one word op regardless of how far time jumped. Entries in a
//! passed slot either become due (moved to the expired queue) or
//! *cascade*: they are re-hashed relative to the new time, which by
//! construction lands them in a strictly lower level (or a later slot
//! of the same level). A timer therefore moves at most `LEVELS - 1`
//! times over its whole life — amortized O(1) per timer, independent
//! of how many other timers are pending.
//!
//! Due entries are collected into a small binary heap ordered by
//! (deadline, arm sequence) so firing order is observationally
//! identical to the old global heap (earlier deadline first; FIFO
//! among equal deadlines). The O(log k) cost there is in the number of
//! *currently due* timers k, not the number pending.
//!
//! # Granularity bound
//!
//! Deadlines are rounded **up** to a tick boundary, so with a non-zero
//! `shift` a timer fires at most `2^shift - 1` ns after its requested
//! deadline and never early. [`TimerWheel::next_deadline`] reports a
//! lower bound on the next firing time: exact when the earliest timer
//! has cascaded to level 0, otherwise the start of its level-`L` slot
//! (the scan is one bitmap word per level — no slot lists are walked —
//! and the bound is strictly in the future, so callers that park until
//! the bound and re-ask make progress instead of spinning).
//!
//! # Slab layout: SoA hot/cold split
//!
//! The slab is split structure-of-arrays style. The *hot* array packs
//! the words every wheel operation touches — generation, state, slot
//! links, deadline tick, arm sequence — into one dense
//! [`HOT_ENTRY_BYTES`]-byte record per entry. The handler payload
//! lives in a parallel *cold* array touched only when an entry is
//! scheduled, fires, or is removed. Cascades, re-arms and
//! `next_deadline` scans therefore walk cache lines holding hot words
//! only: at 1M pending timers the hot slab is ~32 MB of pure wheel
//! state instead of an interleaved hot+handler mix, doubling (or
//! better, for fat handlers) the useful bytes per DRAM line on the
//! cascade path. The two arrays are cut into blocks of 32 entries held
//! in one `Vec`, so the slab grows by one allocation, not one per half.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::{Index, IndexMut};

use crate::clock::{deadline_to_tick, tick_to_ns, Ns};

/// log2 of the slots per level.
pub const WHEEL_BITS: u32 = 6;
/// Slots per level.
pub const SLOTS: usize = 1 << WHEEL_BITS;
/// Number of levels. `SLOTS^LEVELS` ticks of total horizon; farther
/// deadlines are clamped into the top level and re-cascade.
pub const LEVELS: usize = 8;

/// Sentinel for "no entry" in the slab's index links.
const NIL: u32 = u32::MAX;

/// Owner tag of a wheel that has not been claimed by any core (raw
/// wheels built by tests and benches). Untagged wheels accept any
/// token minted by an untagged wheel.
pub const UNTAGGED_OWNER: u32 = u32::MAX;

/// Token identifying a timer entry. Tokens are generation-tagged:
/// after an entry is freed (fired, or cancelled) its token
/// goes stale and every operation on it is a no-op returning `false`.
///
/// In debug builds a token additionally remembers the *owner tag* of
/// the wheel that minted it (the event manager sets this to its core
/// id), and every wheel operation asserts the token belongs to this
/// wheel. Timer tokens are per-core: using core A's token against core
/// B's wheel is at best a stale no-op and at worst an index collision
/// firing an unrelated handler — the debug tag turns that entire class
/// of bug (e.g. a continuation resuming on the wrong core) into an
/// immediate assert.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TimerToken {
    bits: u64,
    #[cfg(debug_assertions)]
    owner: u32,
}

impl TimerToken {
    fn new(index: u32, gen: u32, owner: u32) -> Self {
        #[cfg(not(debug_assertions))]
        let _ = owner;
        TimerToken {
            bits: ((gen as u64) << 32) | index as u64,
            #[cfg(debug_assertions)]
            owner,
        }
    }

    fn index(self) -> u32 {
        self.bits as u32
    }

    fn gen(self) -> u32 {
        (self.bits >> 32) as u32
    }
}

/// Where an entry currently lives.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum State {
    /// On the free list.
    Free,
    /// Linked into a wheel slot.
    Armed,
    /// Due: moved off the wheel into the expired queue, not yet popped.
    Queued,
}

/// Hot half of a slab entry: every word the wheel machinery (place,
/// unlink, cascade, expiry checks) reads or writes. Packs to
/// [`HOT_ENTRY_BYTES`] so the cascade path streams dense wheel state
/// with no handler payload interleaved.
struct HotEntry {
    gen: u32,
    /// Slot list links while `Armed`; `next` doubles as the free-list
    /// link while `Free`.
    next: u32,
    prev: u32,
    /// Slot position while `Armed`: `level * SLOTS + slot`.
    pos: u16,
    state: State,
    /// Effective deadline in ticks (requested deadline rounded up).
    deadline_tick: u64,
    /// Arm sequence, for deadline ties (FIFO firing among equals).
    seq: u64,
}

/// Size of one hot slab record. The struct orders fields so the
/// compiler packs them without padding waste; this constant is
/// asserted (below) so layout regressions fail the build.
pub const HOT_ENTRY_BYTES: usize = 32;

const _: () = assert!(std::mem::size_of::<HotEntry>() == HOT_ENTRY_BYTES);

struct Level {
    /// Head entry index per slot (`NIL` if empty).
    slots: [u32; SLOTS],
    /// Bit `s` set ⇔ slot `s` non-empty.
    occupancy: u64,
}

impl Level {
    fn new() -> Self {
        Level {
            slots: [NIL; SLOTS],
            occupancy: 0,
        }
    }
}

/// Entries per slab block.
const BLOCK: usize = 32;

/// A block of the slab: its entries' hot halves side by side, then
/// their handlers.
struct Block<H> {
    hot: [HotEntry; BLOCK],
    handlers: [Option<H>; BLOCK],
}

/// The entry slab, `Index`ed by entry to its hot half. It grows a block
/// at a time and its blocks sit in one `Vec`, so the hot and the cold
/// halves grow by one reallocation together.
struct Slab<H> {
    blocks: Vec<Block<H>>,
    /// Entries carved so far (the high-water mark of live entries).
    len: u32,
}

impl<H> Slab<H> {
    /// Carves a fresh free entry at the end, returning its index.
    fn carve(&mut self) -> u32 {
        assert!(self.len < NIL, "timer slab exhausted");
        if self.len as usize == self.blocks.len() * BLOCK {
            self.blocks.push(Block {
                hot: std::array::from_fn(|_| HotEntry {
                    gen: 0,
                    state: State::Free,
                    deadline_tick: 0,
                    seq: 0,
                    pos: 0,
                    next: NIL,
                    prev: NIL,
                }),
                handlers: std::array::from_fn(|_| None),
            });
        }
        self.len += 1;
        self.len - 1
    }

    /// The cold half of entry `index`.
    fn handler(&mut self, index: u32) -> &mut Option<H> {
        let i = index as usize;
        &mut self.blocks[i / BLOCK].handlers[i % BLOCK]
    }
}

impl<H> Index<u32> for Slab<H> {
    type Output = HotEntry;

    fn index(&self, index: u32) -> &HotEntry {
        let i = index as usize;
        &self.blocks[i / BLOCK].hot[i % BLOCK]
    }
}

impl<H> IndexMut<u32> for Slab<H> {
    fn index_mut(&mut self, index: u32) -> &mut HotEntry {
        let i = index as usize;
        &mut self.blocks[i / BLOCK].hot[i % BLOCK]
    }
}

/// Counters exposed for tests and benches.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TimerWheelStats {
    /// Timers scheduled to fire (armed or due-but-unpopped): every
    /// allocated entry.
    pub live: usize,
    /// Slab capacity (high-water mark of simultaneous live entries).
    pub slab: usize,
    /// Total cascade moves performed (re-hash of an entry to a lower
    /// level as its slot is reached).
    pub cascades: u64,
}

/// The wheel. Generic over the handler payload `H` so the event loop
/// can store closures while benchmarks schedule unit payloads.
pub struct TimerWheel<H> {
    shift: u32,
    /// Debug owner tag stamped into minted tokens (see
    /// [`TimerToken`]); [`UNTAGGED_OWNER`] until claimed.
    owner: u32,
    /// Wheel time: the tick `advance` was last called with.
    last: u64,
    levels: Vec<Level>,
    slab: Slab<H>,
    /// Head of the free entries' list, linked through `next`.
    free_head: u32,
    /// Due entries ordered by (deadline ns, seq): `Reverse` for a
    /// min-heap. Stale nodes (re-armed or removed entries) are skipped
    /// on pop via the (gen, seq) check.
    expired: BinaryHeap<Reverse<(Ns, u64, u32, u32)>>,
    seq: u64,
    live: usize,
    cascades: u64,
    /// Monotone lower bound on the earliest pending deadline (ns).
    /// Tightened on arm, recomputed by `next_deadline` when stale.
    hint_ns: Ns,
}

impl<H> TimerWheel<H> {
    /// An empty wheel with tick granularity `2^shift` ns, starting at
    /// time zero.
    pub fn new(shift: u32) -> Self {
        assert!(shift < 32, "tick shift {shift} out of range");
        TimerWheel {
            shift,
            owner: UNTAGGED_OWNER,
            last: 0,
            levels: (0..LEVELS).map(|_| Level::new()).collect(),
            slab: Slab {
                blocks: Vec::new(),
                len: 0,
            },
            free_head: NIL,
            expired: BinaryHeap::new(),
            seq: 0,
            live: 0,
            cascades: 0,
            hint_ns: Ns::MAX,
        }
    }

    /// The tick granularity shift.
    pub fn shift(&self) -> u32 {
        self.shift
    }

    /// Claims this wheel for `owner` (the event manager passes its
    /// core id). In debug builds, tokens minted afterwards carry the
    /// tag and operations assert it — catching tokens that wander to
    /// another core's wheel. Call before minting any token.
    pub fn set_owner(&mut self, owner: u32) {
        self.owner = owner;
    }

    /// Debug-asserts that `token` was minted by this wheel.
    #[inline]
    fn check_owner(&self, token: TimerToken) {
        #[cfg(debug_assertions)]
        assert_eq!(
            token.owner, self.owner,
            "TimerToken minted by owner {} used on owner {}'s wheel \
             (cross-core timer use)",
            token.owner, self.owner
        );
        #[cfg(not(debug_assertions))]
        let _ = token;
    }

    /// Counters snapshot.
    pub fn stats(&self) -> TimerWheelStats {
        TimerWheelStats {
            live: self.live,
            slab: self.slab.len as usize,
            cascades: self.cascades,
        }
    }

    /// Timers scheduled to fire.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Schedules a one-shot entry holding `handler` to fire at
    /// `deadline_ns`.
    pub fn schedule(&mut self, deadline_ns: Ns, handler: H) -> TimerToken {
        let index = if self.free_head != NIL {
            let index = self.free_head;
            self.free_head = self.slab[index].next;
            index
        } else {
            self.slab.carve()
        };
        debug_assert_eq!(self.slab[index].state, State::Free);
        *self.slab.handler(index) = Some(handler);
        self.live += 1;
        self.enqueue(index, deadline_ns);
        TimerToken::new(index, self.slab[index].gen, self.owner)
    }

    /// Re-schedules pending `token` to fire at `deadline_ns` instead:
    /// an unlink + relink (or, if it was already due, a pull back out
    /// of the expired queue) with no allocation. Returns `false` if
    /// the token is stale (fired or removed).
    pub fn arm(&mut self, token: TimerToken, deadline_ns: Ns) -> bool {
        if self.entry(token).is_none() {
            return false;
        }
        self.detach(token.index());
        self.enqueue(token.index(), deadline_ns);
        true
    }

    /// Frees pending `token`, returning its handler. The entry's
    /// storage goes back to the free list immediately — there is no
    /// tombstone phase. `None` if the token is stale.
    pub fn remove(&mut self, token: TimerToken) -> Option<H> {
        self.entry(token)?;
        self.detach(token.index());
        Some(self.free(token.index()))
    }

    /// Advances wheel time to `now_ns`, moving every timer whose
    /// effective deadline has passed into the expired queue (pop them
    /// with [`TimerWheel::pop_expired`]). Cost: one bitmap word per
    /// level plus O(1) per timer that becomes due or cascades.
    pub fn advance(&mut self, now_ns: Ns) {
        let to = now_ns >> self.shift;
        if to <= self.last {
            return;
        }
        let from = self.last;
        // Set wheel time first: cascading re-hashes relative to `to`.
        self.last = to;
        for level in 0..LEVELS {
            let lshift = WHEEL_BITS * level as u32;
            let old = from >> lshift;
            let new = to >> lshift;
            if old == new {
                // No slot boundary crossed at this level, hence none at
                // any higher level either.
                break;
            }
            let mask = if new - old >= SLOTS as u64 {
                !0u64
            } else {
                circular_range_mask((old & 63) as u32, (new & 63) as u32)
            };
            let mut hit = self.levels[level].occupancy & mask;
            self.levels[level].occupancy &= !mask;
            while hit != 0 {
                let slot = hit.trailing_zeros() as usize;
                hit &= hit - 1;
                let mut index = self.levels[level].slots[slot];
                self.levels[level].slots[slot] = NIL;
                while index != NIL {
                    let next = self.slab[index].next;
                    let due = self.slab[index].deadline_tick <= to;
                    if due {
                        let e = &mut self.slab[index];
                        e.state = State::Queued;
                        let node = (tick_to_ns(e.deadline_tick, self.shift), e.seq, index, e.gen);
                        self.expired.push(Reverse(node));
                    } else {
                        // Cascade: re-hash relative to the new time.
                        self.cascades += 1;
                        self.place(index);
                    }
                    index = next;
                }
            }
        }
    }

    /// Pops the next due timer (earliest deadline, FIFO among equals):
    /// frees its entry and hands back its handler and deadline.
    /// Returns `None` when nothing is due.
    pub fn pop_expired(&mut self) -> Option<(H, Ns)> {
        while let Some(Reverse((deadline, seq, index, gen))) = self.expired.pop() {
            let e = &self.slab[index];
            if e.gen == gen && e.state == State::Queued && e.seq == seq {
                return Some((self.free(index), deadline));
            }
            // Stale node: the entry was re-armed or removed after
            // queueing. Skip.
        }
        None
    }

    /// Advances to `now_ns` and returns a lower bound on the next
    /// firing time: the exact deadline of an already-due timer, the
    /// exact deadline when the earliest timer sits in level 0, or the
    /// start of its slot at a higher level. The bound is strictly
    /// greater than `now_ns` whenever nothing is due, so park/poll
    /// loops driven by it always make progress. `None` if no timer is
    /// pending.
    pub fn next_deadline(&mut self, now_ns: Ns) -> Option<Ns> {
        self.advance(now_ns);
        // Drop stale heap nodes, then report a due timer exactly.
        while let Some(Reverse((deadline, seq, index, gen))) = self.expired.peek().copied() {
            let e = &self.slab[index];
            if e.gen == gen && e.state == State::Queued && e.seq == seq {
                return Some(deadline);
            }
            self.expired.pop();
        }
        if self.live == 0 {
            return None;
        }
        // Scan: one occupancy word per level, no list walks.
        let mut bound_tick = u64::MAX;
        for level in 0..LEVELS {
            let occ = self.levels[level].occupancy;
            if occ == 0 {
                continue;
            }
            let lshift = WHEEL_BITS * level as u32;
            let cur_global = self.last >> lshift;
            let cur = (cur_global & 63) as u32;
            // Distance (in slots, 1-based) to the first occupied slot
            // strictly after the current position, circularly.
            let rotated = occ.rotate_right((cur + 1) & 63);
            let dist = rotated.trailing_zeros() as u64 + 1;
            let slot_start = (cur_global + dist) << lshift;
            bound_tick = bound_tick.min(slot_start.max(self.last + 1));
        }
        debug_assert_ne!(bound_tick, u64::MAX, "pending timers but empty wheel");
        let mut bound = tick_to_ns(bound_tick, self.shift);
        // The arm-time hint is a (possibly stale-low) lower bound too;
        // both are sound, so take the tighter. Exact in the common
        // case where the earliest-armed timer is still pending.
        if self.hint_ns > now_ns {
            bound = bound.max(self.hint_ns);
        }
        self.hint_ns = bound;
        Some(bound)
    }

    // --- internals -----------------------------------------------------

    fn entry(&self, token: TimerToken) -> Option<&HotEntry> {
        self.check_owner(token);
        let i = token.index() as usize;
        // An entry of the last block not carved yet reads `Free`.
        let e = &self.slab.blocks.get(i / BLOCK)?.hot[i % BLOCK];
        (e.gen == token.gen() && e.state != State::Free).then_some(e)
    }

    /// Stamps entry `index` with its deadline and the next arm
    /// sequence number, and links it into its slot — or straight into
    /// the expired queue if the deadline has already passed.
    fn enqueue(&mut self, index: u32, deadline_ns: Ns) {
        let tick = deadline_to_tick(deadline_ns, self.shift);
        self.seq += 1;
        let e = &mut self.slab[index];
        e.deadline_tick = tick;
        e.seq = self.seq;
        if tick <= self.last {
            e.state = State::Queued;
            let node = (tick_to_ns(tick, self.shift), e.seq, index, e.gen);
            self.expired.push(Reverse(node));
        } else {
            self.place(index);
        }
        self.hint_ns = self.hint_ns.min(tick_to_ns(tick, self.shift));
    }

    /// Takes a pending entry off the wheel. A due entry's expired-queue
    /// node is left to go stale: the next `enqueue` gives the entry a
    /// new sequence number, `free` a new generation.
    fn detach(&mut self, index: u32) {
        match self.slab[index].state {
            State::Armed => self.unlink(index),
            State::Queued => {}
            State::Free => unreachable!("detaching a free entry"),
        }
    }

    /// Returns a detached entry to the free list, taking its handler.
    fn free(&mut self, index: u32) -> H {
        let e = &mut self.slab[index];
        e.state = State::Free;
        e.gen = e.gen.wrapping_add(1);
        e.next = self.free_head;
        self.free_head = index;
        self.live -= 1;
        self.slab
            .handler(index)
            .take()
            .expect("a pending entry holds its handler")
    }

    /// Hashes an (already detached) entry into its level/slot by its
    /// deadline relative to current wheel time, and links it in.
    fn place(&mut self, index: u32) {
        let tick = self.slab[index].deadline_tick;
        debug_assert!(tick > self.last);
        let max_span = (1u64 << (WHEEL_BITS * LEVELS as u32)) - 1;
        let delta = (tick - self.last).min(max_span);
        let level = ((63 - (delta | 1).leading_zeros()) / WHEEL_BITS) as usize;
        let lshift = WHEEL_BITS * level as u32;
        let slot = (((self.last + delta) >> lshift) & 63) as usize;
        let head = self.levels[level].slots[slot];
        {
            let e = &mut self.slab[index];
            e.state = State::Armed;
            e.pos = (level * SLOTS + slot) as u16;
            e.prev = NIL;
            e.next = head;
        }
        if head != NIL {
            self.slab[head].prev = index;
        }
        self.levels[level].slots[slot] = index;
        self.levels[level].occupancy |= 1u64 << slot;
    }

    /// Unlinks an `Armed` entry from its slot list.
    fn unlink(&mut self, index: u32) {
        let (pos, prev, next) = {
            let e = &self.slab[index];
            debug_assert_eq!(e.state, State::Armed);
            (e.pos as usize, e.prev, e.next)
        };
        let (level, slot) = (pos / SLOTS, pos % SLOTS);
        if prev != NIL {
            self.slab[prev].next = next;
        } else {
            self.levels[level].slots[slot] = next;
            if next == NIL {
                self.levels[level].occupancy &= !(1u64 << slot);
            }
        }
        if next != NIL {
            self.slab[next].prev = prev;
        }
    }
}

/// Mask with bits `(a, b]` set, circularly (a ≠ b, both < 64).
fn circular_range_mask(a: u32, b: u32) -> u64 {
    debug_assert_ne!(a, b);
    let le = |x: u32| -> u64 {
        // Bits 0..=x.
        if x == 63 {
            !0
        } else {
            (1u64 << (x + 1)) - 1
        }
    };
    if a < b {
        le(b) & !le(a)
    } else {
        le(b) | !le(a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(w: &mut TimerWheel<u32>, now: Ns) -> Vec<(u32, Ns)> {
        w.advance(now);
        std::iter::from_fn(|| w.pop_expired()).collect()
    }

    #[test]
    fn mask_ranges() {
        assert_eq!(circular_range_mask(0, 1), 0b10);
        assert_eq!(circular_range_mask(0, 63), !1u64);
        assert_eq!(circular_range_mask(62, 63), 1u64 << 63);
        // Wrapping: (63, 1] = {0, 1}.
        assert_eq!(circular_range_mask(63, 1), 0b11);
        // (5, 2] = everything except {3, 4, 5}.
        assert_eq!(circular_range_mask(5, 2), !(0b111u64 << 3));
    }

    #[test]
    fn fires_in_deadline_order_across_levels() {
        let mut w = TimerWheel::new(0);
        // Deltas spanning levels 0..3, armed out of order.
        let deadlines = [5u64, 70, 4100, 263000, 63, 4095, 64, 1];
        for (i, &d) in deadlines.iter().enumerate() {
            w.schedule(d, i as u32);
        }
        let fired = drain(&mut w, 1_000_000);
        let got: Vec<Ns> = fired.iter().map(|&(_, d)| d).collect();
        let mut want = deadlines.to_vec();
        want.sort_unstable();
        assert_eq!(got, want);
        assert_eq!(w.stats().live, 0);
    }

    #[test]
    fn equal_deadlines_fire_in_arm_order() {
        let mut w = TimerWheel::new(0);
        for i in 0..10u32 {
            w.schedule(500, i);
        }
        let fired = drain(&mut w, 500);
        let ids: Vec<u32> = fired.iter().map(|&(id, _)| id).collect();
        assert_eq!(ids, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn nothing_fires_early_under_incremental_advance() {
        let mut w = TimerWheel::new(0);
        w.schedule(1000, 1);
        for now in (0..1000).step_by(7) {
            w.advance(now);
            assert!(w.pop_expired().is_none(), "fired early at {now}");
            assert_eq!(w.live(), 1);
        }
        w.advance(1000);
        assert_eq!(w.pop_expired(), Some((1, 1000)));
    }

    #[test]
    fn cancel_frees_immediately() {
        let mut w = TimerWheel::new(0);
        let tokens: Vec<_> = (0..100).map(|i| w.schedule(10_000 + i, i as u32)).collect();
        assert_eq!(w.live(), 100);
        for t in &tokens {
            assert!(w.remove(*t).is_some());
        }
        // No tombstones: storage is free the moment cancel returns.
        assert_eq!(w.live(), 0);
        assert_eq!(drain(&mut w, 1 << 30), vec![]);
        // Stale tokens are inert.
        assert!(!w.arm(tokens[0], 5));
        assert!(w.remove(tokens[0]).is_none());
    }

    #[test]
    fn rearm_moves_deadline_without_refiring() {
        let mut w = TimerWheel::new(0);
        let t = w.schedule(100, 7);
        assert!(w.arm(t, 900)); // push out before it fires
        w.advance(500);
        assert!(w.pop_expired().is_none(), "old deadline must not fire");
        w.advance(900);
        assert_eq!(w.pop_expired(), Some((7, 900)));
        // Firing freed the entry: its token is stale.
        assert_eq!(w.live(), 0);
        assert!(!w.arm(t, 1500));
    }

    #[test]
    fn rearm_of_due_but_unfired_timer_unqueues_it() {
        let mut w = TimerWheel::new(0);
        let t = w.schedule(100, 1);
        w.advance(200); // now queued
        assert!(w.arm(t, 400)); // pulled back out
        assert!(w.pop_expired().is_none());
        w.advance(400);
        assert_eq!(w.pop_expired(), Some((1, 400)));
    }

    #[test]
    fn next_deadline_bounds_are_sound_and_progress() {
        let mut w = TimerWheel::new(0);
        w.schedule(130, 1);
        w.schedule(5000, 2);
        // The bound never exceeds the true next deadline, and repeated
        // park-until-bound converges on it.
        let mut now = 0;
        let mut rounds = 0;
        loop {
            match w.next_deadline(now) {
                Some(b) => {
                    assert!(b <= 130, "bound {b} past true deadline");
                    assert!(b > now, "bound must be in the future");
                    if b == 130 {
                        break;
                    }
                    now = b;
                }
                None => panic!("pending timer lost"),
            }
            rounds += 1;
            assert!(rounds <= LEVELS, "bound failed to converge");
        }
        w.advance(130);
        assert!(w.pop_expired().is_some());
        // Second timer's bound likewise.
        let b = w.next_deadline(130).unwrap();
        assert!(b > 130 && b <= 5000);
    }

    #[test]
    fn next_deadline_exact_for_due_and_level0() {
        let mut w = TimerWheel::new(0);
        w.schedule(40, 1); // delta < 64: level 0, exact
        assert_eq!(w.next_deadline(0), Some(40));
        w.advance(40);
        assert_eq!(w.next_deadline(40), Some(40), "due timer reported exactly");
    }

    #[test]
    fn far_deadlines_clamp_and_still_fire() {
        let mut w = TimerWheel::new(0);
        let horizon = 1u64 << (WHEEL_BITS * LEVELS as u32);
        w.schedule(horizon * 3 + 17, 1);
        w.advance(horizon * 3 + 16);
        assert!(w.pop_expired().is_none());
        w.advance(horizon * 3 + 17);
        let (_, dl) = w.pop_expired().unwrap();
        assert_eq!(dl, horizon * 3 + 17);
    }

    #[test]
    fn coarse_granularity_fires_late_never_early() {
        // shift 10: 1.024 µs ticks.
        let mut w = TimerWheel::new(10);
        w.schedule(1500, 1);
        // Effective deadline: next tick boundary at or after 1500.
        let eff = ((1500 + 1023) >> 10) << 10;
        w.advance(1500);
        assert!(w.pop_expired().is_none(), "must not fire before its tick");
        w.advance(eff - 1);
        assert!(w.pop_expired().is_none());
        w.advance(eff);
        let (_, dl) = w.pop_expired().unwrap();
        assert_eq!(dl, eff);
        assert!(dl - 1500 < 1024, "lateness bounded by one tick");
        // Tick-aligned deadlines are exact even at coarse granularity.
        w.schedule(4096, 2);
        w.advance(4096);
        assert_eq!(w.pop_expired().unwrap().1, 4096);
    }

    #[test]
    fn slab_recycles_entries() {
        let mut w = TimerWheel::new(0);
        for round in 0..10 {
            let tokens: Vec<_> = (0..50)
                .map(|i| w.schedule(round * 100 + 50 + i, i as u32))
                .collect();
            w.advance(round * 100 + 200);
            let fired = std::iter::from_fn(|| w.pop_expired()).count();
            assert_eq!(fired, tokens.len());
        }
        // 10 rounds × 50 timers reused the same 50 slab entries.
        assert_eq!(w.stats().slab, 50);
        assert_eq!(w.stats().live, 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "cross-core timer use")]
    fn cross_wheel_token_asserts_in_debug() {
        let mut w0: TimerWheel<u32> = TimerWheel::new(0);
        w0.set_owner(0);
        let mut w1: TimerWheel<u32> = TimerWheel::new(0);
        w1.set_owner(1);
        let t = w0.schedule(100, 7);
        // Same index/generation would exist in w1 too — without the
        // owner tag this would be a silent collision.
        w1.schedule(100, 8);
        w1.arm(t, 200);
    }

    #[test]
    fn untagged_wheels_accept_untagged_tokens() {
        let mut w: TimerWheel<u32> = TimerWheel::new(0);
        let t = w.schedule(100, 1);
        assert!(w.arm(t, 200));
        assert!(w.remove(t).is_some());
    }

    #[test]
    fn cascade_count_is_bounded() {
        let mut w = TimerWheel::new(0);
        // A far timer cascades at most LEVELS-1 times on its way in.
        w.schedule(1_000_000_000, 1);
        let mut now = 0;
        while w.live() > 0 {
            now += 999;
            w.advance(now);
            while w.pop_expired().is_some() {}
        }
        assert!(
            w.stats().cascades <= (LEVELS as u64 - 1),
            "cascades {} exceed bound",
            w.stats().cascades
        );
    }
}
