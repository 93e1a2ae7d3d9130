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
//! bounds-checked vector index plus a generation compare.
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
//! # Pointer-stable cells beside the slab
//!
//! The slab's vector moves when it grows, so a value that must stay
//! put while it is borrowed — a PCB, whose state machine transmits and
//! so may open another connection mid-borrow — cannot live in a slot.
//! [`StableCells`] is the slab's side-car for such values: cell `i`
//! belongs to slab index `i`, cells are carved [`CELLS_PER_CHUNK`] at a
//! time from reference-counted chunks that never move, and because the
//! slab reuses indices LIFO the cells are recycled with them. One
//! allocation per chunk replaces one per value.

use std::cell::{Ref, RefCell, RefMut};
use std::rc::Rc;

/// Sentinel for "no next free slot" in the intrusive free list.
const NIL: u32 = u32::MAX;

/// First generation ever assigned, and the wrap target after
/// `u32::MAX`: generation 0 is reserved so token 0 (and any
/// `gen == 0` token) can never name a live slot.
const FIRST_GEN: u32 = 1;

struct Slot<T> {
    /// Generation this slot's *next or current* token carries.
    gen: u32,
    /// Free-list link, meaningful only while vacant.
    next_free: u32,
    /// `Some` while occupied.
    val: Option<T>,
}

/// A generation-tagged slab keyed by opaque `u64` tokens.
///
/// Plain `&mut self` container — callers wrap it in `RefCell` (the
/// stack is single-threaded per core) so the model-based proptests
/// can drive it directly.
pub struct ConnSlab<T> {
    slots: Vec<Slot<T>>,
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
            slots: Vec::new(),
            free_head: NIL,
            live: 0,
            high_water: 0,
        }
    }

    #[inline]
    fn split(token: u64) -> (u32, u32) {
        ((token >> 32) as u32, token as u32)
    }

    /// Inserts `val`, returning its token. Reuses the most recently
    /// freed slot if one exists, else grows the slab by one.
    pub fn insert(&mut self, val: T) -> u64 {
        let index = if self.free_head != NIL {
            let index = self.free_head;
            let slot = &mut self.slots[index as usize];
            self.free_head = slot.next_free;
            slot.next_free = NIL;
            debug_assert!(slot.val.is_none());
            slot.val = Some(val);
            index
        } else {
            let index = u32::try_from(self.slots.len()).expect("conn slab exceeds u32 indices");
            assert!(index != NIL, "conn slab full");
            self.slots.push(Slot {
                gen: FIRST_GEN,
                next_free: NIL,
                val: Some(val),
            });
            index
        };
        self.live += 1;
        self.high_water = self.high_water.max(self.live);
        let gen = self.slots[index as usize].gen;
        debug_assert!(gen != 0);
        (gen as u64) << 32 | index as u64
    }

    /// Removes and returns the value named by `token`, bumping the
    /// slot's generation so `token` (and any copy of it) goes stale.
    /// Stale or foreign tokens are a no-op `None`.
    pub fn remove(&mut self, token: u64) -> Option<T> {
        let (gen, index) = Self::split(token);
        let slot = self.slots.get_mut(index as usize)?;
        if slot.gen != gen || slot.val.is_none() {
            return None;
        }
        let val = slot.val.take();
        // Skip generation 0 on wrap: a 0 generation would mint token
        // `index` with high bits clear, colliding with the id-0
        // dangling sentinel at index 0.
        slot.gen = match slot.gen.wrapping_add(1) {
            0 => FIRST_GEN,
            g => g,
        };
        slot.next_free = self.free_head;
        self.free_head = index;
        self.live -= 1;
        val
    }

    /// The value named by `token`, if it is still live.
    #[inline]
    pub fn get(&self, token: u64) -> Option<&T> {
        let (gen, index) = Self::split(token);
        let slot = self.slots.get(index as usize)?;
        if slot.gen != gen {
            return None;
        }
        slot.val.as_ref()
    }

    /// Mutable access to the value named by `token`, if still live.
    #[inline]
    pub fn get_mut(&mut self, token: u64) -> Option<&mut T> {
        let (gen, index) = Self::split(token);
        let slot = self.slots.get_mut(index as usize)?;
        if slot.gen != gen {
            return None;
        }
        slot.val.as_mut()
    }

    /// Whether `token` names a live entry.
    #[inline]
    pub fn contains(&self, token: u64) -> bool {
        self.get(token).is_some()
    }

    /// Number of live entries.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Highest `live()` ever observed.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Number of slots (live + vacant); the slab never shrinks.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Iterates live `(token, &value)` pairs in index order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.val.as_ref().map(|v| ((s.gen as u64) << 32 | i as u64, v)))
    }

    /// Per-slot memory cost of the slab's own bookkeeping (the value
    /// payload is `size_of::<T>()` of that, inline).
    pub fn slot_bytes() -> usize {
        std::mem::size_of::<Slot<T>>()
    }
}

/// Cells carved per allocation by [`StableCells`].
pub const CELLS_PER_CHUNK: usize = 32;

type Chunk<T> = [RefCell<Option<T>>; CELLS_PER_CHUNK];

/// Pointer-stable, individually borrowable cells addressed by slab
/// index (a token's low 32 bits); see the module docs. A cell is empty
/// until [`StableCells::put`] fills it and after [`CellRef::take`].
pub struct StableCells<T> {
    chunks: Vec<Rc<Chunk<T>>>,
}

impl<T> Default for StableCells<T> {
    fn default() -> Self {
        StableCells { chunks: Vec::new() }
    }
}

impl<T> StableCells<T> {
    /// Fills the cell of slab index `index`, carving the chunk it
    /// falls in if this is the first index to reach it. Indices must
    /// arrive the way the slab mints them: never more than one past
    /// the highest seen.
    pub fn put(&mut self, index: u32, val: T) {
        let chunk = index as usize / CELLS_PER_CHUNK;
        if chunk == self.chunks.len() {
            self.chunks
                .push(Rc::new(std::array::from_fn(|_| RefCell::new(None))));
        }
        let prev = self.chunks[chunk][index as usize % CELLS_PER_CHUNK].replace(Some(val));
        debug_assert!(prev.is_none(), "cell {index} filled twice");
    }

    /// A handle on the cell of slab index `index`, which keeps the
    /// cell's chunk alive and can be borrowed after this container's
    /// own borrow ends. `None` if no chunk covers the index yet.
    pub fn cell(&self, index: u32) -> Option<CellRef<T>> {
        let chunk = self.chunks.get(index as usize / CELLS_PER_CHUNK)?;
        Some(CellRef {
            chunk: Rc::clone(chunk),
            at: index as usize % CELLS_PER_CHUNK,
        })
    }

    /// Heap bytes one cell costs: its share of a chunk (the chunk's
    /// reference counts, 16 bytes, are spread over
    /// [`CELLS_PER_CHUNK`] cells and not counted).
    pub fn cell_bytes() -> usize {
        std::mem::size_of::<RefCell<Option<T>>>()
    }
}

/// One cell of a [`StableCells`].
pub struct CellRef<T> {
    chunk: Rc<Chunk<T>>,
    at: usize,
}

impl<T> CellRef<T> {
    /// Borrows the cell's value.
    ///
    /// # Panics
    ///
    /// If the cell is empty or already mutably borrowed.
    pub fn borrow(&self) -> Ref<'_, T> {
        Ref::map(self.chunk[self.at].borrow(), |v| {
            v.as_ref().expect("cell of a live slab index is filled")
        })
    }

    /// Mutably borrows the cell's value.
    ///
    /// # Panics
    ///
    /// If the cell is empty or already borrowed.
    pub fn borrow_mut(&self) -> RefMut<'_, T> {
        RefMut::map(self.chunk[self.at].borrow_mut(), |v| {
            v.as_mut().expect("cell of a live slab index is filled")
        })
    }

    /// Empties the cell, returning what it held.
    pub fn take(&self) -> Option<T> {
        self.chunk[self.at].take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_cells_follow_the_slabs_indices_and_never_move() {
        let mut slab: ConnSlab<()> = ConnSlab::new();
        let mut cells: StableCells<String> = StableCells::default();
        let n = 3 * CELLS_PER_CHUNK as u32 + 1;
        let tokens: Vec<u64> = (0..n)
            .map(|i| {
                let t = slab.insert(());
                cells.put(t as u32, format!("v{i}"));
                t
            })
            .collect();
        assert_eq!(cells.chunks.len(), 4, "one allocation per chunk of cells");
        // A handle taken early survives growth: same cell, same place.
        let first = cells.cell(tokens[0] as u32).unwrap();
        let at = std::ptr::from_ref(&*first.borrow());
        let held = first.borrow_mut();
        for i in n..2 * n {
            cells.put(slab.insert(()) as u32, format!("v{i}"));
        }
        assert_eq!(*held, "v0");
        drop(held);
        assert_eq!(std::ptr::from_ref(&*first.borrow()), at);
        // The slab recycles an index; its cell is recycled with it.
        let t = tokens[40];
        slab.remove(t);
        assert_eq!(cells.cell(t as u32).unwrap().take().as_deref(), Some("v40"));
        let t2 = slab.insert(());
        assert_eq!(t2 as u32, t as u32);
        cells.put(t2 as u32, "again".into());
        assert_eq!(*cells.cell(t as u32).unwrap().borrow(), "again");
        assert_eq!(cells.chunks.len(), 7);
        assert!(cells.cell(8 * CELLS_PER_CHUNK as u32).is_none());
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut s: ConnSlab<String> = ConnSlab::new();
        let a = s.insert("a".into());
        let b = s.insert("b".into());
        assert_ne!(a, b);
        assert_eq!(s.get(a).unwrap(), "a");
        assert_eq!(s.get(b).unwrap(), "b");
        assert_eq!(s.live(), 2);
        assert_eq!(s.remove(a).unwrap(), "a");
        assert_eq!(s.live(), 1);
        assert!(s.get(a).is_none());
        assert!(!s.contains(a));
        assert_eq!(s.get(b).unwrap(), "b");
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
        assert_eq!(*s.get(t2).unwrap(), 2);
        // Mutating through the stale token is also a miss.
        assert!(s.get_mut(t1).is_none());
        assert_eq!(s.remove(t1), None);
        assert_eq!(*s.get(t2).unwrap(), 2);
    }

    #[test]
    fn generation_wrap_skips_zero() {
        let mut s: ConnSlab<u8> = ConnSlab::new();
        let t = s.insert(0);
        // Force the slot's generation to the wrap edge.
        s.slots[0].gen = u32::MAX;
        let edge = (u32::MAX as u64) << 32;
        assert!(s.get(edge).is_some());
        s.remove(edge);
        assert_eq!(s.slots[0].gen, FIRST_GEN);
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
        assert_eq!(s.capacity(), 10);
        s.insert(99);
        assert_eq!(s.capacity(), 10, "slab grew despite free slots");
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
        /// even after its slot is reused many times.
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
            for op in 0..ops {
                if next() % 3 != 0 || model.is_empty() {
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
                // retired token misses.
                proptest::prop_assert_eq!(slab.live(), model.len());
                for (&t, &v) in &model {
                    proptest::prop_assert_eq!(slab.get(t).copied(), Some(v));
                }
                for &t in &retired {
                    proptest::prop_assert!(
                        slab.get(t).is_none(),
                        "retired token {t:#x} resolves (op {op})"
                    );
                    proptest::prop_assert_eq!(slab.remove(t), None);
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
