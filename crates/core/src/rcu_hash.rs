//! An RCU hash map (§3.6 of the paper).
//!
//! The EbbRT network stack "stores connection state in an RCU hash table
//! which allows common connection lookup operations to proceed without
//! any atomic operations", and the memcached port keeps its key-value
//! pairs in the same structure. This module provides that map:
//!
//! * **Readers** ([`RcuHashMap::get`], [`RcuHashMap::for_each`]) walk
//!   bucket chains with plain acquire loads — no locks, no atomic RMW.
//! * **Writers** serialize on an internal mutex; removal unlinks the
//!   node and *retires* it to the machine's [`RcuDomain`], so readers
//!   that already hold the node keep a valid reference until the grace
//!   period ends.
//! * **An entry is one block**: key, value, hash, chain links and the
//!   [`Retired`] header it is retired by. Retiring it is a list push
//!   (no allocation); when its grace period has elapsed the value (and
//!   the key, if the block still owns it) is dropped and the block goes
//!   to the map's free list, where the next insert finds it.
//! * **Blocks are carved [`BLOCKS_PER_CHUNK`] to a chunk.** An insert
//!   that finds the free list empty takes the next unused block of the
//!   newest chunk, and only when that chunk is used up calls the
//!   allocator — once for the next [`BLOCKS_PER_CHUNK`] entries. Chunks
//!   never move and are freed with the map's pool: a map that grew
//!   keeps its blocks, as a slab keeps its pages.
//! * **A replace moves the key, it does not copy it.** The new block
//!   takes over the shadowed block's key — the same bytes, which readers
//!   still in the old block go on comparing — so the old block's reclaim
//!   drops only its value. A key is dropped by a removal's reclaim or by
//!   the map's drop, never by a replace; and since that removal retires
//!   the key's block later than any block it was handed on from, its
//!   grace period covers every reader of them all.
//!   [`RcuHashMap::insert_borrowed`] builds an owned key only for a key
//!   the map does not hold.
//! * **Resize** allocates a bucket array and nothing else. Every node
//!   has *two* chain links and every table a parity saying which one
//!   its chains run through: the new table threads the live nodes
//!   through the link the old table does not use, so readers still in
//!   the old table walk on undisturbed, and the old bucket array alone
//!   is retired. A link set is reused by the resize after next, which
//!   therefore waits until a grace period has passed since the previous
//!   resize (it is retried by later inserts; the table is merely fuller
//!   meanwhile).
//!
//! # Read-side contract
//!
//! Callers of the read operations must be inside an event (the event
//! loop itself brackets the critical section) or hold a
//! [`crate::rcu::RcuDomain::read_guard`] for a core of the same domain.
//! References must not be retained after the closure returns — the
//! closure-based API makes escape impossible for borrows.

use std::borrow::Borrow;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::mem::MaybeUninit;
use std::ptr::{self, NonNull};
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use crate::rcu::{RcuDomain, Retired};

/// One entry. `repr(C)` with the header first: the domain hands the
/// header's address back to [`Pool::reclaim`], which is the node's.
/// Holds no drop glue: what its `MaybeUninit` fields hold is dropped by
/// hand, so a chunk of blocks frees as plain memory.
#[repr(C)]
struct Node<K, V> {
    retired: Retired,
    hash: u64,
    /// Chain links, indexed by table parity.
    next: [AtomicPtr<Node<K, V>>; 2],
    /// Initialised from `insert` until `reclaim` — that is, whenever
    /// the node is linked, or retired and not yet reclaimed. Owned by
    /// the node unless a replace handed it on (see `owner`).
    key: MaybeUninit<K>,
    /// As `key`, always owned.
    value: MaybeUninit<V>,
    /// The pool to return to, as a leaked `Arc` count, with
    /// [`KEY_HANDED_ON`] set when a replace moved `key` into the node
    /// that took this one's place. Meaningful only between `unlink` and
    /// `reclaim`; atomic only so `unlink` can set it through the shared
    /// references readers may still hold. Last: lookups never read it.
    owner: AtomicPtr<Pool<K, V>>,
}

/// The low bit of a retired node's `owner` (free: a `Pool` is
/// word-aligned): its key belongs to its successor, so `reclaim` leaves
/// it alone.
const KEY_HANDED_ON: usize = 1;

impl<K, V> Node<K, V> {
    /// A block no entry has used yet.
    fn vacant() -> Self {
        Node {
            retired: Retired::new(Pool::<K, V>::reclaim),
            hash: 0,
            next: [
                AtomicPtr::new(ptr::null_mut()),
                AtomicPtr::new(ptr::null_mut()),
            ],
            key: MaybeUninit::uninit(),
            value: MaybeUninit::uninit(),
            owner: AtomicPtr::new(ptr::null_mut()),
        }
    }

    #[inline]
    fn entry(&self) -> (&K, &V) {
        // SAFETY: a `&Node` exists only for a node reached through a
        // table or held by `insert`/`unlink`, all inside the window in
        // which `key` and `value` are initialised (see the fields). A
        // key handed on is still valid where it was: its bytes belong
        // to a successor, which outlives every reader of this node (see
        // the module docs).
        unsafe { (self.key.assume_init_ref(), self.value.assume_init_ref()) }
    }

    #[inline]
    fn key(&self) -> &K {
        self.entry().0
    }
}

/// Blocks carved per allocation.
pub const BLOCKS_PER_CHUNK: usize = 32;

/// What the pool allocates: blocks that never move, freed with the
/// pool. `repr(C)` with the blocks first, so a chunk's address is its
/// first block's.
#[repr(C)]
struct Chunk<K, V> {
    blocks: [Node<K, V>; BLOCKS_PER_CHUNK],
    /// The chunk carved before this one.
    older: *mut Chunk<K, V>,
}

/// The map's blocks: the chunks they are carved from, and those whose
/// grace period has elapsed, for `insert` to reuse. Shared by `Arc`
/// between the map and its retired nodes, so a node reclaimed after the
/// map is gone still has somewhere to go.
struct Pool<K, V> {
    free: Mutex<FreeList<K, V>>,
}

struct FreeList<K, V> {
    /// Stack of reclaimed blocks, linked through `next[0]`; keys and
    /// values uninitialised.
    head: *mut Node<K, V>,
    /// The newest chunk, its blocks from `carved` on never used.
    chunks: *mut Chunk<K, V>,
    carved: usize,
}

// SAFETY: the list owns its chunks outright, and no reader can reach a
// block on it or one not yet carved; neither holds a live `K` or `V`.
unsafe impl<K, V> Send for FreeList<K, V> {}

impl<K, V> FreeList<K, V> {
    /// A block no entry has used, carving a chunk when the newest one
    /// is used up.
    fn carve(&mut self) -> *mut Node<K, V> {
        if self.carved == BLOCKS_PER_CHUNK {
            self.chunks = Box::into_raw(Box::new(Chunk {
                blocks: std::array::from_fn(|_| Node::vacant()),
                older: self.chunks,
            }));
            self.carved = 0;
        }
        let block = self.chunks.cast::<Node<K, V>>().wrapping_add(self.carved);
        self.carved += 1;
        block
    }
}

impl<K, V> Pool<K, V> {
    fn new() -> Self {
        Pool {
            free: Mutex::new(FreeList {
                head: ptr::null_mut(),
                chunks: ptr::null_mut(),
                carved: BLOCKS_PER_CHUNK,
            }),
        }
    }

    /// A block for a new entry, its chain link for `parity` pointing at
    /// `next`: a reclaimed one if there is one, else one never used.
    fn take(
        &self,
        hash: u64,
        key: K,
        value: V,
        parity: usize,
        next: *mut Node<K, V>,
    ) -> *mut Node<K, V> {
        let mut free = crate::lock(&self.free);
        let reclaimed = free.head;
        let node = if reclaimed.is_null() {
            free.carve()
        } else {
            reclaimed
        };
        // SAFETY: a block on the free list or just carved lies in a
        // chunk the list owns, and no reader can reach it; `next[0]`
        // links the free list. Taking it under the lock makes it this
        // writer's until a store publishes it (the caller's, through
        // the release store of a link). Its key and value are
        // uninitialised, so plain writes leak nothing.
        unsafe {
            if !reclaimed.is_null() {
                free.head = (*node).next[0].load(Ordering::Relaxed);
            }
            (*node).hash = hash;
            (*node).next[parity].store(next, Ordering::Relaxed);
            (*node).key.write(key);
            (*node).value.write(value);
        }
        node
    }

    /// The domain's callback for a node whose grace period is over:
    /// drops the entry (the value alone if its key was handed on) and
    /// shelves the block.
    ///
    /// # Safety
    ///
    /// `hdr` heads a `Node<K, V>` that `unlink` retired: unreachable,
    /// key and value initialised, `owner` holding a leaked `Arc` count.
    unsafe fn reclaim(hdr: NonNull<Retired>) {
        let node = hdr.as_ptr().cast::<Node<K, V>>();
        // SAFETY: per the contract the block is this thread's alone
        // now, and `owner`, less its tag, came from `Arc::into_raw` in
        // `unlink`; a key handed on belongs to the successor, so it is
        // not dropped here. The entry is dropped before the free-list
        // lock is taken: a destructor may use the map. The block lives
        // as long as the pool, whose count is taken back here.
        let (pool, link) = unsafe {
            let owner = (*node).owner.load(Ordering::Relaxed);
            if owner.addr() & KEY_HANDED_ON == 0 {
                (*node).key.assume_init_drop();
            }
            (*node).value.assume_init_drop();
            let pool = Arc::from_raw(owner.map_addr(|a| a & !KEY_HANDED_ON).cast_const());
            (pool, &(*node).next[0])
        };
        let mut free = crate::lock(&pool.free);
        link.store(free.head, Ordering::Relaxed);
        free.head = node;
    }
}

impl<K, V> Drop for Pool<K, V> {
    fn drop(&mut self) {
        // Nothing is left in any block: the map dropped its linked
        // entries, and each retired one held a count of the pool until
        // its reclaim dropped it.
        let mut chunk = self
            .free
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .chunks;
        while !chunk.is_null() {
            // SAFETY: every chunk came from `Box::into_raw` in `carve`
            // and is the pool's alone; its blocks hold no drop glue.
            let c = unsafe { Box::from_raw(chunk) };
            chunk = c.older;
        }
    }
}

/// A bucket array. `repr(C)` with the header first, as [`Node`].
#[repr(C)]
struct Table<K, V> {
    retired: Retired,
    mask: usize,
    /// Which of a node's two links this table's chains run through.
    parity: bool,
    buckets: Box<[AtomicPtr<Node<K, V>>]>,
}

impl<K, V> Table<K, V> {
    fn new(capacity: usize, parity: bool) -> Box<Self> {
        debug_assert!(capacity.is_power_of_two());
        Box::new(Table {
            retired: Retired::new(Self::reclaim),
            mask: capacity - 1,
            parity,
            buckets: (0..capacity)
                .map(|_| AtomicPtr::new(ptr::null_mut()))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
        })
    }

    fn bucket(&self, hash: u64) -> &AtomicPtr<Node<K, V>> {
        &self.buckets[(hash as usize) & self.mask]
    }

    /// The chain starting at `link`, which is one of this table's.
    fn chain<'a>(&self, link: &'a AtomicPtr<Node<K, V>>) -> Links<'a, K, V> {
        Links {
            link,
            parity: self.parity,
        }
    }

    /// Every node of every chain, with the link that points at it.
    fn links(&self) -> impl Iterator<Item = (&AtomicPtr<Node<K, V>>, &Node<K, V>)> {
        self.buckets.iter().flat_map(|b| self.chain(b))
    }

    /// The domain's callback for a replaced table: frees the bucket
    /// array. The nodes live on in the successor.
    ///
    /// # Safety
    ///
    /// `hdr` heads a `Table<K, V>` that `resize` replaced and retired.
    unsafe fn reclaim(hdr: NonNull<Retired>) {
        // SAFETY: the table came from `Box::into_raw` and, per the
        // contract, nobody can reach it any more.
        drop(unsafe { Box::from_raw(hdr.as_ptr().cast::<Table<K, V>>()) });
    }
}

/// Walks a chain from `link` on, yielding each node with the link that
/// points at it (what an unlink stores through).
struct Links<'a, K, V> {
    link: &'a AtomicPtr<Node<K, V>>,
    parity: bool,
}

impl<'a, K, V> Iterator for Links<'a, K, V> {
    type Item = (&'a AtomicPtr<Node<K, V>>, &'a Node<K, V>);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        let link = self.link;
        // SAFETY: a non-null pointer loaded from a link of a live table
        // (or of a node reached from one) is a block from `Pool::take`,
        // and its node is either still linked or retired-but-not-
        // reclaimed: a block is reclaimed only a grace period after
        // being unlinked, and the walker is inside a read-side critical
        // section (module contract) or holds the writer lock, which
        // excludes every unlink. A resize leaves this parity's links
        // alone until a grace period after the walker's table was
        // replaced. Either way the node outlives the walk.
        let node = unsafe { link.load(Ordering::Acquire).as_ref() }?;
        self.link = &node.next[usize::from(self.parity)];
        Some((link, node))
    }
}

/// What writers share under the lock.
struct Writer {
    /// Taken when the current table was published by a resize (unused
    /// before the first): once it has elapsed, nobody is left in the
    /// table before, and the links that table used are free again.
    since_resize: Box<[u64]>,
    resized: bool,
}

/// A concurrent hash map with lock-free readers and RCU-deferred
/// reclamation. See the module docs for the read-side contract.
pub struct RcuHashMap<K, V> {
    domain: Arc<RcuDomain>,
    table: AtomicPtr<Table<K, V>>,
    pool: Arc<Pool<K, V>>,
    writer: Mutex<Writer>,
    len: AtomicUsize,
}

// SAFETY: every field is `Sync` as a type, but `table` stands for the
// `K`s and `V`s behind it. Readers follow it with acquire loads,
// writers are serialized by `writer`, and reclamation is deferred
// through `domain`. A shared map hands `&K`/`&V` to every thread and
// lets any of them drop an entry, hence `Send + Sync` on both.
unsafe impl<K: Send + Sync, V: Send + Sync> Sync for RcuHashMap<K, V> {}
// SAFETY: the table, the nodes behind it and the free blocks are heap
// memory the map (with its retired nodes) alone owns, so moving the map
// moves its `K`s and `V`s with it (`Send`).
unsafe impl<K: Send, V: Send> Send for RcuHashMap<K, V> {}

impl<K, V> RcuHashMap<K, V>
where
    K: Hash + Eq + Send + Sync + 'static,
    V: Send + Sync + 'static,
{
    /// Default initial bucket count.
    pub const DEFAULT_CAPACITY: usize = 64;

    /// Creates an empty map whose reclamation is governed by `domain`.
    pub fn new(domain: Arc<RcuDomain>) -> Self {
        Self::with_capacity(domain, Self::DEFAULT_CAPACITY)
    }

    /// As [`Self::new`] with an explicit initial bucket count (rounded up
    /// to a power of two).
    pub fn with_capacity(domain: Arc<RcuDomain>, capacity: usize) -> Self {
        let capacity = capacity.next_power_of_two().max(4);
        RcuHashMap {
            table: AtomicPtr::new(Box::into_raw(Table::new(capacity, false))),
            pool: Arc::new(Pool::new()),
            writer: Mutex::new(Writer {
                since_resize: vec![0; domain.ncores()].into_boxed_slice(),
                resized: false,
            }),
            len: AtomicUsize::new(0),
            domain,
        }
    }

    fn hash_of<Q: Hash + ?Sized>(key: &Q) -> u64 {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        h.finish()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The current table.
    #[inline]
    fn table(&self) -> &Table<K, V> {
        // SAFETY: the pointer came from `Box::into_raw` and a replaced
        // table is freed only after a grace period; the caller is
        // inside a read-side critical section (module contract) or
        // holds the writer lock, which excludes replacement.
        unsafe { &*self.table.load(Ordering::Acquire) }
    }

    /// Looks up `key` and applies `f` to the value, without locks or
    /// atomic read-modify-write operations.
    pub fn get<Q, R>(&self, key: &Q, f: impl FnOnce(&V) -> R) -> Option<R>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let hash = Self::hash_of(key);
        let table = self.table();
        table
            .chain(table.bucket(hash))
            .find(|(_, node)| node.hash == hash && node.key().borrow() == key)
            .map(|(_, node)| f(node.entry().1))
    }

    /// Inserts or replaces; returns `true` if an existing entry was
    /// replaced. Readers observe either the old or the new value, never
    /// neither (the new node takes the old one's place in one store).
    /// A replace keeps the key the map holds and drops `key`.
    pub fn insert(&self, key: K, value: V) -> bool {
        self.put::<K, K>(key, value, |k| k)
    }

    /// As [`Self::insert`] for a borrowed key, which is copied into an
    /// owned one only when the map does not hold it: replacing an
    /// existing entry calls no allocator for its key.
    pub fn insert_borrowed<Q>(&self, key: &Q, value: V) -> bool
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ToOwned<Owned = K> + ?Sized,
    {
        self.put::<Q, &Q>(key, value, Q::to_owned)
    }

    /// The one insert path: `own` turns `key` into the map's key, and
    /// runs only when no entry shadows it.
    fn put<Q, A>(&self, key: A, value: V, own: impl FnOnce(A) -> K) -> bool
    where
        A: Borrow<Q>,
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let q: &Q = key.borrow();
        let hash = Self::hash_of(q);
        let mut w = crate::lock(&self.writer);
        let table = self.table();
        let bucket = table.bucket(hash);
        let shadowed = table
            .chain(bucket)
            .find(|(_, node)| node.hash == hash && node.key().borrow() == q);
        let key = match shadowed {
            // SAFETY: `old` is linked, so its key is initialised; it is
            // unlinked below with its key handed on, so its reclaim will
            // not drop it and the copy read here is the key's one owner.
            // Readers still in `old` keep reading the same bytes, which
            // live as long as the new node does (see the module docs).
            Some((_, old)) => unsafe { old.key.assume_init_read() },
            None => own(key),
        };

        let parity = usize::from(table.parity);
        // A replace takes the shadowed entry's place in its chain with
        // one store: a reader finds the old entry or the new one, never
        // neither. A new key goes in at the bucket head.
        if let Some((link, old)) = shadowed {
            let next = old.next[parity].load(Ordering::Acquire);
            let new = self.pool.take(hash, key, value, parity, next);
            self.unlink(link, new, old, true);
            return true;
        }
        let next = bucket.load(Ordering::Acquire);
        let new = self.pool.take(hash, key, value, parity, next);
        bucket.store(new, Ordering::Release);
        let len = self.len.fetch_add(1, Ordering::AcqRel) + 1;
        if len > table.buckets.len() {
            self.resize(&mut w, len.next_power_of_two());
        }
        false
    }

    /// Removes `key`; returns whether it was present. The node is
    /// retired, so concurrent readers finish safely.
    pub fn remove<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let hash = Self::hash_of(key);
        let _w = crate::lock(&self.writer);
        let table = self.table();
        let found = table
            .chain(table.bucket(hash))
            .find(|(_, node)| node.hash == hash && node.key().borrow() == key);
        let Some((link, node)) = found else {
            return false;
        };
        let next = node.next[usize::from(table.parity)].load(Ordering::Acquire);
        self.unlink(link, next, node, false);
        self.len.fetch_sub(1, Ordering::AcqRel);
        true
    }

    /// Points `link`, which points at `node`, at `next` instead, and
    /// retires `node` — with its key when `next` did not take it over.
    /// Caller holds the writer lock.
    fn unlink(
        &self,
        link: &AtomicPtr<Node<K, V>>,
        next: *mut Node<K, V>,
        node: &Node<K, V>,
        key_handed_on: bool,
    ) {
        // Under the writer lock the link still holds `node`'s pointer
        // as `Pool::take` made it — what the deferred reclaim needs.
        let p = link.load(Ordering::Relaxed);
        link.store(next, Ordering::Release);
        // `reclaim` takes this count back.
        let pool = Arc::into_raw(Arc::clone(&self.pool)).cast_mut();
        debug_assert_eq!(pool.addr() & KEY_HANDED_ON, 0, "a Pool is word-aligned");
        let tag = if key_handed_on { KEY_HANDED_ON } else { 0 };
        node.owner
            .store(pool.map_addr(|a| a | tag), Ordering::Relaxed);
        // SAFETY: `p` is non-null (it is `node`'s address) and the
        // store above unlinked the node, so from here on readers only
        // finish with it. The block stays valid until `reclaim`, its
        // header is its first field, and `K: Send, V: Send` let
        // `reclaim` drop them on whichever thread runs the pass.
        unsafe {
            self.domain.retire_raw(NonNull::new_unchecked(p).cast());
        }
    }

    /// Applies `f` to every entry (reader-side; sees a consistent chain
    /// per bucket but concurrent writers may add/remove around it).
    pub fn for_each(&self, mut f: impl FnMut(&K, &V)) {
        for (_, node) in self.table().links() {
            let (k, v) = node.entry();
            f(k, v);
        }
    }

    /// Current bucket count (diagnostic).
    pub fn capacity(&self) -> usize {
        self.table().buckets.len()
    }

    /// Grows the table to `new_capacity` buckets, unless readers may
    /// still be in the table before the current one. Caller holds the
    /// writer lock.
    fn resize(&self, w: &mut Writer, new_capacity: usize) {
        if w.resized && !self.domain.grace_elapsed(&w.since_resize) {
            // The links the new table would thread are the ones the
            // table before this one used, and someone may still be
            // walking them. A later insert will find the table (still)
            // over-full and try again.
            return;
        }
        let old = self.table();
        let new = Table::new(new_capacity, !old.parity);
        for (link, node) in old.links() {
            let nb = new.bucket(node.hash);
            // Relaxed: nothing reads these links before the table
            // swap below publishes them, and under the writer lock
            // `link` still holds the node's pointer as `Pool::take`
            // made it.
            node.next[usize::from(new.parity)].store(nb.load(Ordering::Relaxed), Ordering::Relaxed);
            nb.store(link.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        let old = self.table.swap(Box::into_raw(new), Ordering::AcqRel);
        // After the swap: a reader that found the old table began
        // before this snapshot.
        self.domain.snapshot_into(&mut w.since_resize);
        w.resized = true;
        // SAFETY: `old` came from `Box::into_raw`, was just replaced —
        // new readers find the successor — and stays valid until
        // `Table::reclaim` frees it; its header is its first field.
        unsafe {
            self.domain.retire_raw(NonNull::new_unchecked(old).cast());
        }
    }
}

impl<K, V> Drop for RcuHashMap<K, V> {
    fn drop(&mut self) {
        // `&mut self`: no readers can exist; free the table and the
        // entries it links directly. Nodes still retired find their way
        // to the pool, which outlives the map for them.
        // SAFETY: the current table came from `Box::into_raw` and was
        // never retired.
        let table = unsafe { Box::from_raw(*self.table.get_mut()) };
        for bucket in table.buckets.iter() {
            let mut p = bucket.load(Ordering::Relaxed);
            while !p.is_null() {
                // SAFETY: a linked node is a block from `Pool::take`
                // that only the table references, with key and value
                // initialised; the `MaybeUninit` fields would not drop
                // them otherwise. The block itself stays in its chunk,
                // which the pool frees.
                p = unsafe {
                    let node = &mut *p;
                    node.key.assume_init_drop();
                    node.value.assume_init_drop();
                    node.next[usize::from(table.parity)].load(Ordering::Relaxed)
                };
            }
        }
    }
}

#[cfg(test)]
mod tests;
