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
//! by construction. Re-arming ([`TimerWheel::arm`] on a live entry)
//! is an unlink + relink with no allocation, which is what lets the
//! TCP layer keep one persistent timer per connection and reset it
//! per ACK.
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
//! created, fires, or is removed. Cascades, re-arms and
//! `next_deadline` scans therefore walk cache lines holding hot words
//! only: at 1M pending timers the hot slab is ~32 MB of pure wheel
//! state instead of an interleaved hot+handler mix, doubling (or
//! better, for fat handlers) the useful bytes per DRAM line on the
//! cascade path. The `soa_vs_interleaved` group in the `timer_wheel`
//! bench measures the two layouts head-to-head at 10k/100k/1M pending.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

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
/// after an entry is freed (fired one-shot, or cancelled) its token
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
    /// Allocated but not scheduled (created disarmed, disarmed, or a
    /// persistent timer between firings). The handler is retained.
    Parked,
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

/// Counters exposed for tests and benches.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TimerWheelStats {
    /// Timers scheduled to fire (armed or due-but-unpopped).
    pub pending: usize,
    /// Allocated entries (pending + parked persistent timers).
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
    /// SoA hot half: wheel state only, scanned by cascade/advance.
    hot: Vec<HotEntry>,
    /// SoA cold half, parallel to `hot`: handler payloads, touched
    /// only on create/fire/remove.
    handlers: Vec<Option<H>>,
    free_head: u32,
    /// Due entries ordered by (deadline ns, seq): `Reverse` for a
    /// min-heap. Stale nodes (re-armed or removed entries) are skipped
    /// on pop via the (gen, seq) check.
    expired: BinaryHeap<Reverse<(Ns, u64, u32, u32)>>,
    seq: u64,
    pending: usize,
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
            hot: Vec::new(),
            handlers: Vec::new(),
            free_head: NIL,
            expired: BinaryHeap::new(),
            seq: 0,
            pending: 0,
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
            pending: self.pending,
            live: self.live,
            slab: self.hot.len(),
            cascades: self.cascades,
        }
    }

    /// Slab bytes per entry for this wheel's handler type: one hot
    /// record plus one cold `Option<H>` slot. Multiply by
    /// [`TimerWheelStats::slab`] for the total slab footprint.
    pub fn entry_bytes() -> usize {
        HOT_ENTRY_BYTES + std::mem::size_of::<Option<H>>()
    }

    /// Timers scheduled to fire.
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Allocated entries (scheduled + parked).
    pub fn live(&self) -> usize {
        self.live
    }

    /// Whether `token` is scheduled to fire (armed or already due).
    pub fn is_scheduled(&self, token: TimerToken) -> bool {
        matches!(
            self.entry(token).map(|e| e.state),
            Some(State::Armed) | Some(State::Queued)
        )
    }

    /// Allocates a parked (unscheduled) entry holding `handler`.
    /// Schedule it with [`TimerWheel::arm`].
    pub fn create(&mut self, handler: H) -> TimerToken {
        let index = if self.free_head != NIL {
            let index = self.free_head;
            self.free_head = self.hot[index as usize].next;
            index
        } else {
            assert!(self.hot.len() < NIL as usize, "timer slab exhausted");
            self.hot.push(HotEntry {
                gen: 0,
                state: State::Free,
                deadline_tick: 0,
                seq: 0,
                pos: 0,
                next: NIL,
                prev: NIL,
            });
            self.handlers.push(None);
            (self.hot.len() - 1) as u32
        };
        let e = &mut self.hot[index as usize];
        debug_assert_eq!(e.state, State::Free);
        e.state = State::Parked;
        self.handlers[index as usize] = Some(handler);
        self.live += 1;
        TimerToken::new(index, e.gen, self.owner)
    }

    /// Schedules (or re-schedules) `token` to fire at `deadline_ns`.
    /// Works from any live state — parked, armed (re-arm: unlink +
    /// relink, no allocation), or already due (pulled back out of the
    /// expired queue). Returns `false` if the token is stale.
    pub fn arm(&mut self, token: TimerToken, deadline_ns: Ns) -> bool {
        if self.entry(token).is_none() {
            return false;
        }
        let index = token.index();
        match self.hot[index as usize].state {
            State::Armed => {
                self.unlink(index);
                self.pending -= 1;
            }
            State::Queued => {
                // The entry's heap node goes stale via the new seq.
                self.pending -= 1;
            }
            State::Parked => {}
            State::Free => unreachable!(),
        }
        let tick = deadline_to_tick(deadline_ns, self.shift);
        self.seq += 1;
        let seq = self.seq;
        {
            let e = &mut self.hot[index as usize];
            e.deadline_tick = tick;
            e.seq = seq;
        }
        if tick <= self.last {
            // Already due: straight to the expired queue.
            let e = &mut self.hot[index as usize];
            e.state = State::Queued;
            let (gen, dl) = (e.gen, tick_to_ns(tick, self.shift));
            self.expired.push(Reverse((dl, seq, index, gen)));
        } else {
            self.place(index);
        }
        self.pending += 1;
        self.hint_ns = self.hint_ns.min(tick_to_ns(tick, self.shift));
        true
    }

    /// Creates and arms a one-shot entry in one call.
    pub fn schedule(&mut self, deadline_ns: Ns, handler: H) -> TimerToken {
        let token = self.create(handler);
        let armed = self.arm(token, deadline_ns);
        debug_assert!(armed);
        token
    }

    /// Unschedules `token` without freeing it: the entry parks, its
    /// handler retained, ready to be re-armed. Returns `false` if the
    /// token is stale.
    pub fn disarm(&mut self, token: TimerToken) -> bool {
        if self.entry(token).is_none() {
            return false;
        }
        let index = token.index();
        match self.hot[index as usize].state {
            State::Armed => {
                self.unlink(index);
                self.pending -= 1;
            }
            State::Queued => {
                // Heap node goes stale: state no longer Queued.
                self.pending -= 1;
            }
            State::Parked => {}
            State::Free => unreachable!(),
        }
        self.hot[index as usize].state = State::Parked;
        true
    }

    /// Frees `token` from any live state, returning its handler. The
    /// entry's storage goes back to the free list immediately — there
    /// is no tombstone phase.
    pub fn remove(&mut self, token: TimerToken) -> Option<H> {
        self.entry(token)?;
        let index = token.index();
        match self.hot[index as usize].state {
            State::Armed => {
                self.unlink(index);
                self.pending -= 1;
            }
            State::Queued => {
                self.pending -= 1;
            }
            State::Parked => {}
            State::Free => unreachable!(),
        }
        let e = &mut self.hot[index as usize];
        e.state = State::Free;
        e.gen = e.gen.wrapping_add(1);
        e.next = self.free_head;
        self.free_head = index;
        self.live -= 1;
        self.handlers[index as usize].take()
    }

    /// Read access to a live entry's handler.
    pub fn handler(&self, token: TimerToken) -> Option<&H> {
        self.entry(token)?;
        self.handlers[token.index() as usize].as_ref()
    }

    /// Mutable access to a live entry's handler (replace the payload
    /// without disturbing the entry's schedule or token).
    pub fn handler_mut(&mut self, token: TimerToken) -> Option<&mut H> {
        self.entry(token)?;
        self.handlers[token.index() as usize].as_mut()
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
                    let next = self.hot[index as usize].next;
                    let due = self.hot[index as usize].deadline_tick <= to;
                    if due {
                        let e = &mut self.hot[index as usize];
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

    /// Pops the next due timer (earliest deadline, FIFO among equals).
    /// The entry transitions to parked — the caller either re-arms it
    /// (persistent timers) or [`TimerWheel::remove`]s it to take the
    /// handler (one-shot timers). Returns `None` when nothing is due.
    pub fn pop_expired(&mut self) -> Option<(TimerToken, Ns)> {
        while let Some(Reverse((deadline, seq, index, gen))) = self.expired.pop() {
            let e = &mut self.hot[index as usize];
            if e.gen == gen && e.state == State::Queued && e.seq == seq {
                e.state = State::Parked;
                self.pending -= 1;
                return Some((TimerToken::new(index, gen, self.owner), deadline));
            }
            // Stale node: the entry was re-armed, disarmed or removed
            // after queueing. Skip.
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
            let e = &self.hot[index as usize];
            if e.gen == gen && e.state == State::Queued && e.seq == seq {
                return Some(deadline);
            }
            self.expired.pop();
        }
        if self.pending == 0 {
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
        let e = self.hot.get(token.index() as usize)?;
        (e.gen == token.gen() && e.state != State::Free).then_some(e)
    }

    /// Hashes an (already detached) entry into its level/slot by its
    /// deadline relative to current wheel time, and links it in.
    fn place(&mut self, index: u32) {
        let tick = self.hot[index as usize].deadline_tick;
        debug_assert!(tick > self.last);
        let max_span = (1u64 << (WHEEL_BITS * LEVELS as u32)) - 1;
        let delta = (tick - self.last).min(max_span);
        let level = ((63 - (delta | 1).leading_zeros()) / WHEEL_BITS) as usize;
        let lshift = WHEEL_BITS * level as u32;
        let slot = (((self.last + delta) >> lshift) & 63) as usize;
        let head = self.levels[level].slots[slot];
        {
            let e = &mut self.hot[index as usize];
            e.state = State::Armed;
            e.pos = (level * SLOTS + slot) as u16;
            e.prev = NIL;
            e.next = head;
        }
        if head != NIL {
            self.hot[head as usize].prev = index;
        }
        self.levels[level].slots[slot] = index;
        self.levels[level].occupancy |= 1u64 << slot;
    }

    /// Unlinks an `Armed` entry from its slot list.
    fn unlink(&mut self, index: u32) {
        let (pos, prev, next) = {
            let e = &self.hot[index as usize];
            debug_assert_eq!(e.state, State::Armed);
            (e.pos as usize, e.prev, e.next)
        };
        let (level, slot) = (pos / SLOTS, pos % SLOTS);
        if prev != NIL {
            self.hot[prev as usize].next = next;
        } else {
            self.levels[level].slots[slot] = next;
            if next == NIL {
                self.levels[level].occupancy &= !(1u64 << slot);
            }
        }
        if next != NIL {
            self.hot[next as usize].prev = prev;
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
        let mut out = Vec::new();
        while let Some((tok, dl)) = w.pop_expired() {
            let id = *w.handler(tok).unwrap();
            w.remove(tok);
            out.push((id, dl));
        }
        out
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
        assert_eq!(w.stats().pending, 0);
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
        let t = w.schedule(1000, 1);
        for now in (0..1000).step_by(7) {
            w.advance(now);
            assert!(w.pop_expired().is_none(), "fired early at {now}");
            assert!(w.is_scheduled(t));
        }
        w.advance(1000);
        let (tok, dl) = w.pop_expired().unwrap();
        assert_eq!(dl, 1000);
        assert_eq!(tok, t);
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
        assert_eq!(w.pending(), 0);
        assert_eq!(drain(&mut w, 1 << 30), vec![]);
        // Stale tokens are inert.
        assert!(!w.arm(tokens[0], 5));
        assert!(!w.disarm(tokens[0]));
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
        let (tok, dl) = w.pop_expired().unwrap();
        assert_eq!((tok, dl), (t, 900));
        // Re-arm from parked (persistent pattern).
        assert!(w.arm(t, 1500));
        w.advance(1500);
        assert_eq!(w.pop_expired().unwrap(), (t, 1500));
        w.remove(t);
        assert_eq!(w.live(), 0);
    }

    #[test]
    fn rearm_of_due_but_unfired_timer_unqueues_it() {
        let mut w = TimerWheel::new(0);
        let t = w.schedule(100, 1);
        w.advance(200); // now queued
        assert!(w.arm(t, 400)); // pulled back out
        assert!(w.pop_expired().is_none());
        w.advance(400);
        assert_eq!(w.pop_expired().unwrap(), (t, 400));
    }

    #[test]
    fn disarm_parks_and_retains_handler() {
        let mut w = TimerWheel::new(0);
        let t = w.schedule(100, 42);
        assert!(w.disarm(t));
        assert_eq!(w.pending(), 0);
        assert_eq!(w.live(), 1);
        w.advance(1000);
        assert!(w.pop_expired().is_none());
        assert_eq!(w.handler(t), Some(&42));
        assert!(w.arm(t, 2000));
        w.advance(2000);
        assert_eq!(w.pop_expired().unwrap(), (t, 2000));
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
            let mut fired = 0;
            while let Some((t, _)) = w.pop_expired() {
                w.remove(t);
                fired += 1;
            }
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
        while w.pending() > 0 {
            now += 999;
            w.advance(now);
            while let Some((t, _)) = w.pop_expired() {
                w.remove(t);
            }
        }
        assert!(
            w.stats().cascades <= (LEVELS as u64 - 1),
            "cascades {} exceed bound",
            w.stats().cascades
        );
    }
}
