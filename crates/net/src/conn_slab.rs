//! Generation-tagged slab for protocol control blocks.
//!
//! The PCB table used to be a two-level lookup: demux resolved a
//! [`FourTuple`](crate::tcp::FourTuple) to a `u64` id through the RCU
//! map, then hashed that id *again* through a `HashMap<u64, ConnRec>`
//! to reach the connection record. At 1M connections the second hash
//! is pure waste — a random DRAM touch plus probe chain on every
//! segment batch. This slab replaces it with the same token
//! discipline as the timer wheel (`ebbrt_core::timer`): the RCU map
//! stores a **token** whose low 32 bits are a slab index and whose
//! high 32 bits are a generation tag, so reaching a PCB is one
//! bounds-checked chunk index plus a generation compare.
//!
//! # Token discipline
//!
//! ```text
//! token (u64) = generation (u32) << 32 | index (u32)
//! ```
//!
//! - A slot's generation is bumped on **free**, so every token minted
//!   for a slot is unique across that slot's lifetimes: a stale token
//!   held by a timer closure or an application handle after the
//!   connection closed simply misses (`get` returns `None`) instead
//!   of aliasing the slot's next tenant.
//! - Generations start at 1 and wrap `u32::MAX -> 1`, skipping 0, so
//!   **token 0 is never minted**. `TcpConn::dangling()` uses id 0 as
//!   its "never a live connection" sentinel and the slab guarantees
//!   it stays dead.
//! - Freed slots chain through an intrusive free list (the `next_free`
//!   word) and are reused LIFO — no tombstones, no compaction, and
//!   the slab never shrinks, so indices stay stable for the existing
//!   `run_on_core`/timer plumbing that captures tokens in closures.
//!
//! The aliasing guarantee is proven by the proptests at the bottom of
//! this file, which fuzz insert/remove/reuse interleavings against a
//! `HashMap` model and assert every retired token misses forever.
//!
//! # Pointer-stable slots
//!
//! A value that must stay put while it is borrowed — a PCB, whose
//! state machine transmits and so may open another connection
//! mid-borrow — cannot live in a vector that moves when it grows. The
//! slots are therefore carved [`SLOTS_PER_CHUNK`] at a time from
//! reference-counted chunks that never move, each slot holding its
//! value in a `RefCell`. [`ConnSlab::get`] hands out a [`CellRef`] that
//! keeps the slot's chunk alive, so the value can be borrowed after
//! the slab's own borrow ends — while another connection is inserted.
//! The handle carries its token's generation: once the entry is
//! removed it reads nothing, even after the slot's next tenant moves
//! in. One allocation per chunk replaces one per value.

use std::cell::{Cell, Ref, RefCell, RefMut};
use std::rc::Rc;

/// Sentinel for "no next free slot" in the intrusive free list.
const NIL: u32 = u32::MAX;

/// First generation ever assigned, and the wrap target after
/// `u32::MAX`: generation 0 is reserved so token 0 (and any
/// `gen == 0` token) can never name a live slot.
const FIRST_GEN: u32 = 1;

/// Slots carved per allocation.
pub const SLOTS_PER_CHUNK: usize = 32;

struct Slot<T> {
    /// Generation this slot's *next or current* token carries.
    gen: Cell<u32>,
    /// Free-list link, meaningful only while vacant.
    next_free: Cell<u32>,
    /// `Some` while occupied.
    val: RefCell<Option<T>>,
}

type Chunk<T> = [Slot<T>; SLOTS_PER_CHUNK];

/// A generation-tagged slab keyed by opaque `u64` tokens.
///
/// Plain `&mut self` container — callers wrap it in `RefCell` (the
/// stack is single-threaded per core) so the model-based proptests
/// can drive it directly.
pub struct ConnSlab<T> {
    chunks: Vec<Rc<Chunk<T>>>,
    free_head: u32,
    live: usize,
    high_water: usize,
}

impl<T> Default for ConnSlab<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> ConnSlab<T> {
    /// An empty slab.
    pub fn new() -> Self {
        ConnSlab {
            chunks: Vec::new(),
            free_head: NIL,
            live: 0,
            high_water: 0,
        }
    }

    #[inline]
    fn split(token: u64) -> (u32, u32) {
        ((token >> 32) as u32, token as u32)
    }

    #[inline]
    fn slot(&self, index: u32) -> Option<(&Rc<Chunk<T>>, usize)> {
        let chunk = self.chunks.get(index as usize / SLOTS_PER_CHUNK)?;
        Some((chunk, index as usize % SLOTS_PER_CHUNK))
    }

    /// Inserts `val`, returning its token. Reuses the most recently
    /// freed slot if one exists, else the lowest never-used one,
    /// carving a chunk when none is left.
    pub fn insert(&mut self, val: T) -> u64 {
        if self.free_head == NIL {
            // Thread the new chunk's slots onto the free list in index
            // order, so fresh indices are handed out one past the
            // highest yet.
            let base = self.chunks.len() * SLOTS_PER_CHUNK;
            assert!(base + SLOTS_PER_CHUNK <= NIL as usize, "conn slab full");
            self.chunks.push(Rc::new(std::array::from_fn(|i| Slot {
                gen: Cell::new(FIRST_GEN),
                next_free: Cell::new(match i + 1 {
                    SLOTS_PER_CHUNK => NIL,
                    next => (base + next) as u32,
                }),
                val: RefCell::new(None),
            })));
            self.free_head = base as u32;
        }
        let index = self.free_head;
        let (chunk, at) = self.slot(index).expect("free list names a carved slot");
        let slot = &chunk[at];
        let prev = slot.val.replace(Some(val));
        debug_assert!(prev.is_none());
        let gen = slot.gen.get();
        debug_assert!(gen != 0);
        self.free_head = slot.next_free.get();
        self.live += 1;
        self.high_water = self.high_water.max(self.live);
        (gen as u64) << 32 | index as u64
    }

    /// Removes and returns the value named by `token`, bumping the
    /// slot's generation so `token` (and any copy of it, and any
    /// [`CellRef`] of it) goes stale. Stale or foreign tokens are a
    /// no-op `None`.
    ///
    /// # Panics
    ///
    /// If the value is borrowed through a [`CellRef`].
    pub fn remove(&mut self, token: u64) -> Option<T> {
        let (gen, index) = Self::split(token);
        let (chunk, at) = self.slot(index)?;
        let slot = &chunk[at];
        if slot.gen.get() != gen {
            return None;
        }
        let val = slot.val.take()?;
        // Skip generation 0 on wrap: a 0 generation would mint token
        // `index` with high bits clear, colliding with the id-0
        // dangling sentinel at index 0.
        slot.gen.set(match gen.wrapping_add(1) {
            0 => FIRST_GEN,
            g => g,
        });
        slot.next_free.set(self.free_head);
        self.free_head = index;
        self.live -= 1;
        Some(val)
    }

    /// A handle on the entry named by `token`, or `None` if the token
    /// is stale or foreign. The handle keeps the slot's chunk alive
    /// and can be borrowed after this container's own borrow ends.
    #[inline]
    pub fn get(&self, token: u64) -> Option<CellRef<T>> {
        let (gen, index) = Self::split(token);
        let (chunk, at) = self.slot(index)?;
        if chunk[at].gen.get() != gen {
            return None;
        }
        Some(CellRef {
            chunk: Rc::clone(chunk),
            at,
            gen,
        })
    }

    /// Number of live entries.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Highest `live()` ever observed.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Number of slots carved (live + vacant); the slab never shrinks.
    pub fn capacity(&self) -> usize {
        self.chunks.len() * SLOTS_PER_CHUNK
    }

    /// Iterates live `(token, value)` pairs in index order.
    ///
    /// # Panics
    ///
    /// If a live value is mutably borrowed through a [`CellRef`].
    pub fn iter(&self) -> impl Iterator<Item = (u64, Ref<'_, T>)> {
        let slots = self.chunks.iter().flat_map(|c| c.iter());
        slots.enumerate().filter_map(|(i, s)| {
            let v = Ref::filter_map(s.val.borrow(), Option::as_ref).ok()?;
            Some(((s.gen.get() as u64) << 32 | i as u64, v))
        })
    }

    /// Heap bytes one slot costs, value inline: its share of a chunk
    /// (the chunk's reference counts, 16 bytes, are spread over
    /// [`SLOTS_PER_CHUNK`] slots and not counted).
    pub fn slot_bytes() -> usize {
        std::mem::size_of::<Slot<T>>()
    }
}

/// A handle on one entry of a [`ConnSlab`], from [`ConnSlab::get`]. It
/// reads nothing once the entry is removed.
pub struct CellRef<T> {
    chunk: Rc<Chunk<T>>,
    at: usize,
    gen: u32,
}

impl<T> CellRef<T> {
    #[inline]
    fn live(&self) -> Option<&RefCell<Option<T>>> {
        let slot = &self.chunk[self.at];
        (slot.gen.get() == self.gen).then_some(&slot.val)
    }

    /// Borrows the entry's value; `None` once it is removed.
    ///
    /// # Panics
    ///
    /// If the value is mutably borrowed.
    #[inline]
    pub fn borrow(&self) -> Option<Ref<'_, T>> {
        Ref::filter_map(self.live()?.borrow(), Option::as_ref).ok()
    }

    /// Mutably borrows the entry's value; `None` once it is removed.
    ///
    /// # Panics
    ///
    /// If the value is already borrowed.
    #[inline]
    pub fn borrow_mut(&self) -> Option<RefMut<'_, T>> {
        RefMut::filter_map(self.live()?.borrow_mut(), Option::as_mut).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The value `token` names, read through a fresh handle.
    fn read<T: Copy>(s: &ConnSlab<T>, token: u64) -> Option<T> {
        s.get(token).and_then(|c| c.borrow().map(|v| *v))
    }

    #[test]
    fn cells_never_move_and_recycle_with_their_index() {
        let mut slab: ConnSlab<String> = ConnSlab::new();
        let n = 3 * SLOTS_PER_CHUNK as u32 + 1;
        let tokens: Vec<u64> = (0..n).map(|i| slab.insert(format!("v{i}"))).collect();
        assert_eq!(slab.chunks.len(), 4, "one allocation per chunk of slots");
        // A handle taken early survives growth: same value, same place.
        let first = slab.get(tokens[0]).unwrap();
        let at = std::ptr::from_ref(&*first.borrow().unwrap());
        let held = first.borrow_mut().unwrap();
        for i in n..2 * n {
            slab.insert(format!("v{i}"));
        }
        assert_eq!(*held, "v0");
        drop(held);
        assert_eq!(std::ptr::from_ref(&*first.borrow().unwrap()), at);
        // The slab recycles an index; the old handle reads nothing.
        let t = tokens[40];
        let old = slab.get(t).unwrap();
        assert_eq!(slab.remove(t).as_deref(), Some("v40"));
        assert!(old.borrow().is_none());
        let t2 = slab.insert("again".into());
        assert_eq!(t2 as u32, t as u32);
        assert!(
            old.borrow().is_none(),
            "a stale handle read the next tenant"
        );
        assert_eq!(*slab.get(t2).unwrap().borrow().unwrap(), "again");
        assert_eq!(slab.chunks.len(), 7);
        assert!(slab.get((1 << 32) | (8 * SLOTS_PER_CHUNK as u64)).is_none());
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut s: ConnSlab<String> = ConnSlab::new();
        let a = s.insert("a".into());
        let b = s.insert("b".into());
        assert_ne!(a, b);
        assert_eq!(*s.get(a).unwrap().borrow().unwrap(), "a");
        assert_eq!(*s.get(b).unwrap().borrow().unwrap(), "b");
        assert_eq!(s.live(), 2);
        assert_eq!(s.remove(a).unwrap(), "a");
        assert_eq!(s.live(), 1);
        assert!(s.get(a).is_none());
        assert_eq!(*s.get(b).unwrap().borrow().unwrap(), "b");
    }

    #[test]
    fn token_zero_is_never_minted() {
        // Index 0, first generation: must not be token 0, because
        // TcpConn::dangling() uses id 0 as the dead sentinel.
        let mut s: ConnSlab<u8> = ConnSlab::new();
        let t = s.insert(7);
        assert_ne!(t, 0);
        assert!(s.get(0).is_none());
        assert_eq!(s.remove(0), None);
        // Across many reuses of slot 0 the token still never hits 0.
        for i in 0..100u8 {
            s.remove(t);
            let t2 = s.insert(i);
            assert_ne!(t2, 0);
            assert!(s.get(0).is_none());
        }
    }

    #[test]
    fn freed_token_goes_stale_and_slot_is_reused() {
        let mut s: ConnSlab<u32> = ConnSlab::new();
        let t1 = s.insert(1);
        s.remove(t1);
        let t2 = s.insert(2);
        // LIFO reuse: same index, different generation.
        assert_eq!(t2 as u32, t1 as u32);
        assert_ne!(t2, t1);
        assert!(s.get(t1).is_none(), "stale token aliased the new tenant");
        assert_eq!(read(&s, t2), Some(2));
        assert_eq!(s.remove(t1), None);
        assert_eq!(read(&s, t2), Some(2));
        // A token for the vacant slot's *next* generation resolves to a
        // handle that reads nothing.
        s.remove(t2);
        let next = (t2 >> 32) + 1;
        assert_eq!(read(&s, next << 32 | t2 & 0xFFFF_FFFF), None);
    }

    #[test]
    fn generation_wrap_skips_zero() {
        let mut s: ConnSlab<u8> = ConnSlab::new();
        let t = s.insert(0);
        // Force the slot's generation to the wrap edge.
        s.chunks[0][0].gen.set(u32::MAX);
        let edge = (u32::MAX as u64) << 32;
        assert!(s.get(edge).is_some());
        s.remove(edge);
        assert_eq!(s.chunks[0][0].gen.get(), FIRST_GEN);
        let t2 = s.insert(1);
        assert_ne!(t2, 0, "wrap minted the dangling sentinel");
        assert_eq!(t2 >> 32, FIRST_GEN as u64);
        let _ = t;
    }

    #[test]
    fn high_water_tracks_peak_not_current() {
        let mut s: ConnSlab<u8> = ConnSlab::new();
        let toks: Vec<u64> = (0..10).map(|i| s.insert(i)).collect();
        assert_eq!(s.high_water(), 10);
        for t in &toks {
            s.remove(*t);
        }
        assert_eq!(s.live(), 0);
        assert_eq!(s.high_water(), 10);
        assert_eq!(s.capacity(), SLOTS_PER_CHUNK);
        s.insert(99);
        assert_eq!(
            s.capacity(),
            SLOTS_PER_CHUNK,
            "slab grew despite free slots"
        );
    }

    #[test]
    fn iter_yields_live_tokens_only() {
        let mut s: ConnSlab<u32> = ConnSlab::new();
        let a = s.insert(10);
        let b = s.insert(20);
        let c = s.insert(30);
        s.remove(b);
        let got: Vec<(u64, u32)> = s.iter().map(|(t, v)| (t, *v)).collect();
        assert_eq!(got, vec![(a, 10), (c, 30)]);
    }

    // ---- Satellite: token-aliasing proptests against a HashMap model ----

    proptest::proptest! {
        /// Drive a random insert/remove interleaving against a
        /// `HashMap<u64, u64>` model. Every live token must read back
        /// its model value; every retired token must miss *forever*,
        /// even after its slot is reused many times. Now and then a
        /// step takes a handle on a live entry and holds it borrowed
        /// across inserts (enough to carve new chunks): the held value
        /// and its address must not move, and once the entry is
        /// removed the handle must read nothing.
        #[test]
        fn slab_matches_hashmap_model_and_stale_tokens_never_alias(
            seed in 0u64..10_000,
            ops in 64usize..512,
        ) {
            use std::collections::HashMap;
            let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut next = move || {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng
            };
            let mut slab: ConnSlab<u64> = ConnSlab::new();
            let mut model: HashMap<u64, u64> = HashMap::new();
            let mut retired: Vec<u64> = Vec::new();
            let mut stale: Vec<CellRef<u64>> = Vec::new();
            for op in 0..ops {
                if next() % 32 == 0 && !model.is_empty() {
                    let pick = *model.keys().nth(next() as usize % model.len()).unwrap();
                    let cell = slab.get(pick).unwrap();
                    let held = cell.borrow().unwrap();
                    let at = std::ptr::from_ref(&*held);
                    let chunks = slab.chunks.len();
                    while slab.chunks.len() == chunks {
                        let v = next();
                        model.insert(slab.insert(v), v);
                    }
                    proptest::prop_assert_eq!(*held, model[&pick]);
                    proptest::prop_assert_eq!(std::ptr::from_ref(&*held), at);
                    drop(held);
                    if next() % 2 == 0 {
                        model.remove(&pick);
                        slab.remove(pick);
                        retired.push(pick);
                        stale.push(cell);
                    }
                } else if next() % 3 != 0 || model.is_empty() {
                    let v = next();
                    let t = slab.insert(v);
                    proptest::prop_assert!(t != 0, "minted the dangling sentinel");
                    proptest::prop_assert!(
                        model.insert(t, v).is_none(),
                        "token {t:#x} reissued while live (op {op})"
                    );
                    proptest::prop_assert!(
                        !retired.contains(&t),
                        "token {t:#x} reissued after retirement (op {op})"
                    );
                } else {
                    let pick = *model.keys().nth(next() as usize % model.len()).unwrap();
                    let want = model.remove(&pick).unwrap();
                    proptest::prop_assert_eq!(slab.remove(pick), Some(want));
                    retired.push(pick);
                }
                // Full cross-check every step: live set matches, every
                // retired token and handle misses.
                proptest::prop_assert_eq!(slab.live(), model.len());
                for (&t, &v) in &model {
                    proptest::prop_assert_eq!(read(&slab, t), Some(v));
                }
                for &t in &retired {
                    proptest::prop_assert!(
                        slab.get(t).is_none(),
                        "retired token {t:#x} resolves (op {op})"
                    );
                    proptest::prop_assert_eq!(slab.remove(t), None);
                }
                for cell in &stale {
                    proptest::prop_assert!(cell.borrow().is_none(), "stale handle reads (op {op})");
                }
            }
            let mut seen: Vec<u64> = slab.iter().map(|(t, _)| t).collect();
            seen.sort_unstable();
            let mut want: Vec<u64> = model.keys().copied().collect();
            want.sort_unstable();
            proptest::prop_assert_eq!(seen, want);
        }

        /// Hammer a single slot: insert/remove in a tight loop and
        /// require every generation's token to be unique and every
        /// old one to miss.
        #[test]
        fn single_slot_reuse_never_aliases(rounds in 1usize..300) {
            let mut slab: ConnSlab<usize> = ConnSlab::new();
            let mut old: Vec<u64> = Vec::new();
            for r in 0..rounds {
                let t = slab.insert(r);
                proptest::prop_assert_eq!(t as u32, 0, "slot 0 not reused LIFO");
                proptest::prop_assert!(!old.contains(&t), "generation repeated");
                for &o in &old {
                    proptest::prop_assert!(slab.get(o).is_none());
                }
                proptest::prop_assert_eq!(slab.remove(t), Some(r));
                old.push(t);
            }
        }
    }
}
