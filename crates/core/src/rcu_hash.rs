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
use std::sync::{Arc, Mutex};

use crate::rcu::{RcuDomain, Retired};

/// One entry. `repr(C)` with the header first: the domain hands the
/// header's address back to [`Pool::reclaim`], which is the node's.
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

/// Blocks whose grace period has elapsed, for `insert` to reuse. Shared
/// by `Arc` between the map and its retired nodes, so a node reclaimed
/// after the map is gone still has somewhere to go.
struct Pool<K, V> {
    /// Stack of free blocks, linked through `next[0]`; keys and values
    /// uninitialised.
    free: Mutex<FreeList<K, V>>,
}

struct FreeList<K, V>(*mut Node<K, V>);

// SAFETY: the list owns its blocks outright — no reader can reach a
// block whose grace period is over — and they hold no live `K` or `V`.
unsafe impl<K, V> Send for FreeList<K, V> {}

impl<K, V> Pool<K, V> {
    /// A block for a new entry: a reclaimed one if there is one.
    fn take(&self, hash: u64, key: K, value: V) -> *mut Node<K, V> {
        let recycled = {
            let mut free = crate::lock(&self.free);
            let p = free.0;
            // SAFETY: blocks on the free list are live allocations the
            // list owns; `next[0]` is its link.
            if let Some(node) = unsafe { p.as_ref() } {
                free.0 = node.next[0].load(Ordering::Relaxed);
            }
            p
        };
        if recycled.is_null() {
            return Box::into_raw(Box::new(Node {
                retired: Retired::new(Self::reclaim),
                hash,
                next: [
                    AtomicPtr::new(ptr::null_mut()),
                    AtomicPtr::new(ptr::null_mut()),
                ],
                key: MaybeUninit::new(key),
                value: MaybeUninit::new(value),
                owner: AtomicPtr::new(ptr::null_mut()),
            }));
        }
        // SAFETY: popped above, so this thread owns the block; its key
        // and value are uninitialised, so plain writes leak nothing.
        unsafe {
            (*recycled).hash = hash;
            (*recycled).key.write(key);
            (*recycled).value.write(value);
        }
        recycled
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
        // lock is taken: a destructor may use the map.
        let pool = unsafe {
            let owner = (*node).owner.load(Ordering::Relaxed);
            if owner.addr() & KEY_HANDED_ON == 0 {
                (*node).key.assume_init_drop();
            }
            (*node).value.assume_init_drop();
            Arc::from_raw(owner.map_addr(|a| a & !KEY_HANDED_ON).cast_const())
        };
        let mut free = crate::lock(&pool.free);
        // SAFETY: still exclusively ours until the store below.
        unsafe { (*node).next[0].store(free.0, Ordering::Relaxed) };
        free.0 = node;
    }
}

impl<K, V> Drop for Pool<K, V> {
    fn drop(&mut self) {
        let mut p = crate::lock(&self.free).0;
        while !p.is_null() {
            // SAFETY: free blocks came from `Box::into_raw` and belong
            // to the list; their `MaybeUninit` fields drop nothing.
            let node = unsafe { Box::from_raw(p) };
            p = node.next[0].load(Ordering::Relaxed);
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
            pool: Arc::new(Pool {
                free: Mutex::new(FreeList(ptr::null_mut())),
            }),
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
        let new = self.pool.take(hash, key, value);
        // SAFETY: `take` returned a block this writer owns until a store
        // below publishes it, and only this writer (holding the lock)
        // could unlink it afterwards.
        let next = unsafe { &(*new).next[parity] };
        // A replace takes the shadowed entry's place in its chain with
        // one store: a reader finds the old entry or the new one, never
        // neither. A new key goes in at the bucket head.
        if let Some((link, old)) = shadowed {
            next.store(old.next[parity].load(Ordering::Acquire), Ordering::Relaxed);
            self.unlink(link, new, old, true);
            return true;
        }
        next.store(bucket.load(Ordering::Acquire), Ordering::Relaxed);
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
                // SAFETY: a linked node is a `Box` from `Pool::take`
                // that only the table references, with key and value
                // initialised.
                let mut node = unsafe { Box::from_raw(p) };
                p = node.next[usize::from(table.parity)].load(Ordering::Relaxed);
                // SAFETY: as above; the `MaybeUninit` fields would not
                // drop them otherwise.
                unsafe {
                    node.key.assume_init_drop();
                    node.value.assume_init_drop();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::CoreId;

    fn map() -> (Arc<RcuDomain>, RcuHashMap<String, u64>) {
        let domain = Arc::new(RcuDomain::new(2));
        let map = RcuHashMap::new(Arc::clone(&domain));
        (domain, map)
    }

    #[test]
    fn insert_get_remove() {
        let (domain, map) = map();
        let _g = domain.read_guard(CoreId(0));
        assert!(!map.insert("a".into(), 1));
        assert!(!map.insert("b".into(), 2));
        assert_eq!(map.get("a", |v| *v), Some(1));
        assert_eq!(map.get("b", |v| *v), Some(2));
        assert_eq!(map.get("c", |v| *v), None);
        assert_eq!(map.len(), 2);
        assert!(map.remove("a"));
        assert_eq!(map.get("a", |v| *v), None);
        assert_eq!(map.len(), 1);
        assert!(!map.remove("a"));
    }

    #[test]
    fn replace_keeps_key_visible() {
        let (domain, map) = map();
        let _g = domain.read_guard(CoreId(0));
        map.insert("k".into(), 1);
        assert!(map.insert("k".into(), 2));
        assert_eq!(map.get("k", |v| *v), Some(2));
        assert_eq!(map.len(), 1);
    }

    #[test]
    fn resize_preserves_entries() {
        let (domain, map) = map();
        let _g = domain.read_guard(CoreId(0));
        let initial_cap = map.capacity();
        for i in 0..500u64 {
            map.insert(format!("key{i}"), i);
        }
        assert!(map.capacity() > initial_cap, "map should have resized");
        assert_eq!(map.len(), 500);
        for i in 0..500u64 {
            assert_eq!(map.get(format!("key{i}").as_str(), |v| *v), Some(i));
        }
    }

    #[test]
    fn retired_nodes_reclaimed_after_grace() {
        let (domain, map) = map();
        {
            let _g = domain.read_guard(CoreId(0));
            map.insert("x".into(), 1);
            map.remove("x");
            assert!(domain.pending_count() > 0);
            assert_eq!(domain.try_reclaim(), 0, "reader still live");
        }
        assert!(domain.try_reclaim() > 0);
        assert_eq!(domain.pending_count(), 0);
    }

    /// Counts its drops: what a reclaim pass did to an entry.
    struct Counted(u64, Arc<AtomicUsize>);
    impl Drop for Counted {
        fn drop(&mut self) {
            self.1.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn removed_entry_outlives_reclaim() {
        let domain = Arc::new(RcuDomain::new(2));
        let map: RcuHashMap<u64, Counted> = RcuHashMap::new(Arc::clone(&domain));
        let drops = Arc::new(AtomicUsize::new(0));
        map.insert(7, Counted(42, Arc::clone(&drops)));
        {
            let _g = domain.read_guard(CoreId(0));
            // The reader is inside the entry when it is removed and a
            // reclaim pass runs: the entry must stay whole under it.
            let seen = map.get(&7, |v| {
                assert!(map.remove(&7));
                assert_eq!(domain.try_reclaim(), 0, "reader still live");
                assert_eq!(drops.load(Ordering::SeqCst), 0);
                v.0
            });
            assert_eq!(seen, Some(42));
        }
        assert_eq!(domain.try_reclaim(), 1);
        assert_eq!(drops.load(Ordering::SeqCst), 1, "dropped at reclaim, once");
        // The block went to the free list and the next insert takes it.
        assert_eq!(free_blocks(&map), 1);
        map.insert(8, Counted(1, Arc::clone(&drops)));
        assert_eq!(free_blocks(&map), 0);
        drop(map);
        assert_eq!(drops.load(Ordering::SeqCst), 2);
    }

    /// Blocks on the map's free list.
    fn free_blocks<K, V>(map: &RcuHashMap<K, V>) -> usize {
        let free = crate::lock(&map.pool.free);
        let mut n = 0;
        let mut p = free.0;
        // SAFETY: free blocks are live allocations the list owns, and
        // the list is locked.
        while let Some(node) = unsafe { p.as_ref() } {
            n += 1;
            p = node.next[0].load(Ordering::Relaxed);
        }
        n
    }

    #[test]
    fn replacing_existing_keys_calls_no_allocator() {
        let domain = Arc::new(RcuDomain::new(1));
        let map: RcuHashMap<Vec<u8>, u64> = RcuHashMap::new(Arc::clone(&domain));
        // 50 keys of 1 to 40 bytes.
        let keys: Vec<Vec<u8>> = (0..50u8)
            .map(|i| vec![i; 1 + usize::from(i) % 40])
            .collect();
        let replace_all = |round: u64| {
            for (i, key) in keys.iter().enumerate() {
                let replaced = map.insert_borrowed(&key[..], round * 100 + i as u64);
                assert_eq!(replaced, round > 0);
                // No reader: the block just retired is free again.
                domain.try_reclaim();
            }
        };
        // Every key in, then a round of replaces to put blocks on the
        // free list.
        replace_all(0);
        replace_all(1);
        let before = test_alloc::thread_calls();
        for round in 2..22 {
            replace_all(round);
        }
        assert_eq!(
            test_alloc::thread_calls() - before,
            0,
            "1 000 replaces called the allocator"
        );
        for (i, key) in keys.iter().enumerate() {
            assert_eq!(map.get(&key[..], |v| *v), Some(2100 + i as u64));
        }
        assert_eq!(map.len(), keys.len());
    }

    impl PartialEq for Counted {
        fn eq(&self, other: &Self) -> bool {
            self.0 == other.0
        }
    }
    impl Eq for Counted {}
    impl std::hash::Hash for Counted {
        fn hash<H: Hasher>(&self, state: &mut H) {
            self.0.hash(state);
        }
    }
    impl Clone for Counted {
        fn clone(&self) -> Self {
            Counted(self.0, Arc::clone(&self.1))
        }
    }

    #[test]
    fn every_key_is_dropped_exactly_once() {
        let domain = Arc::new(RcuDomain::new(2));
        let map: RcuHashMap<Counted, u64> = RcuHashMap::new(Arc::clone(&domain));
        let drops = Arc::new(AtomicUsize::new(0));
        let key = |n: u64| Counted(n, Arc::clone(&drops));
        let dropped = || drops.load(Ordering::SeqCst);
        let reader = domain.read_guard(CoreId(1));
        // A replace chain: the map keeps the first key and every later
        // caller's copy goes at once; the borrowed form copies nothing.
        assert!(!map.insert(key(1), 10));
        assert!(map.insert(key(1), 11));
        assert!(map.insert(key(1), 12));
        let probe = key(1);
        assert!(map.insert_borrowed(&probe, 13));
        drop(probe);
        assert_eq!(dropped(), 3);
        drop(reader);
        // The three retired blocks drop their values, not the key.
        assert_eq!(domain.try_reclaim(), 3);
        assert_eq!(dropped(), 3);
        assert_eq!(map.get(&key(1), |v| *v), Some(13));
        assert_eq!(dropped(), 4, "the probe");
        // A removal: the key goes with its block's reclaim.
        assert!(map.remove(&key(1)));
        assert_eq!(dropped(), 5, "the probe");
        assert_eq!(domain.try_reclaim(), 1);
        assert_eq!(dropped(), 6);
        // A map dropped before its pool: a live entry whose key was
        // handed on to it, and a removed entry still retired.
        let reader = domain.read_guard(CoreId(1));
        map.insert(key(2), 20);
        map.insert(key(2), 21);
        map.insert(key(3), 30);
        assert!(map.remove(&key(3)));
        assert_eq!(dropped(), 8, "the second key(2) and the probe");
        drop(map);
        assert_eq!(dropped(), 9, "the live entry's key");
        drop(reader);
        assert_eq!(domain.try_reclaim(), 2);
        assert_eq!(dropped(), 10, "key(3) with its block; key(2) once");
    }

    #[test]
    fn for_each_visits_all() {
        let (domain, map) = map();
        let _g = domain.read_guard(CoreId(0));
        for i in 0..20u64 {
            map.insert(format!("k{i}"), i);
        }
        let mut sum = 0;
        map.for_each(|_, v| sum += *v);
        assert_eq!(sum, (0..20).sum::<u64>());
    }

    /// What every value must be for its key, whichever write put it
    /// there (`round` varies what the writer stores; readers check the
    /// part that does not).
    fn value_for(key: u64, round: u64) -> u64 {
        key.wrapping_mul(0x9E37_79B9_7F4A_7C15) << 8 | (round & 0xff)
    }

    /// Held by each threaded test for its whole run: two of them at
    /// once on a two-core machine can starve one's readers inside a
    /// critical section until its writer is done, so nothing reclaims.
    static THREADED: Mutex<()> = Mutex::new(());

    #[test]
    fn concurrent_readers_and_writer() {
        const STABLE: u64 = 100;
        const CHURN: u64 = 400;
        let _one_at_a_time = crate::lock(&THREADED);
        let domain = Arc::new(RcuDomain::new(4));
        let map = Arc::new(RcuHashMap::<u64, u64>::with_capacity(
            Arc::clone(&domain),
            64,
        ));
        // Pre-populate the keys that are never removed.
        {
            let _g = domain.read_guard(CoreId(0));
            for i in 0..STABLE {
                map.insert(i, value_for(i, 0));
            }
        }
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let readers: Vec<_> = (1..4u32)
            .map(|c| {
                let map = Arc::clone(&map);
                let domain = Arc::clone(&domain);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    // At least one full scan, even if the writer
                    // finishes before this thread is first scheduled —
                    // the `hits > 0` assertion below must not depend
                    // on scheduling luck.
                    let mut hits = 0u64;
                    loop {
                        let _g = domain.read_guard(CoreId(c));
                        for i in 0..STABLE + CHURN {
                            if let Some(v) = map.get(&i, |v| *v) {
                                // A recycled block must never show a
                                // reader another key's value.
                                assert_eq!(v >> 8, value_for(i, 0) >> 8, "key {i} read {v:#x}");
                                hits += 1;
                            }
                        }
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                    }
                    hits
                })
            })
            .collect();
        // Writer churns: replaces values, removes and reinserts stable
        // keys, and sweeps a wave of extra keys in and out so the entry
        // count crosses the resize threshold (64 -> 128 -> 256 -> 512)
        // while blocks retired by earlier rounds are being reused.
        let mut reused = 0;
        for round in 1..50u64 {
            for i in 0..STABLE {
                map.insert(i, value_for(i, round));
            }
            for i in (0..STABLE).step_by(7) {
                map.remove(&i);
                map.insert(i, value_for(i, round));
            }
            for i in STABLE..STABLE + CHURN.min(round * 16) {
                let free = free_blocks(&map);
                map.insert(i, value_for(i, round));
                reused += usize::from(free > 0);
            }
            for i in STABLE..STABLE + CHURN.min(round * 16) {
                assert!(map.remove(&i));
            }
            domain.try_reclaim();
            // Now and then, wait for the readers to pass a boundary: a
            // writer that outruns readers descheduled inside a scan
            // would otherwise never see a block come back.
            while round % 8 == 0 && domain.pending_count() > 0 {
                std::thread::yield_now();
                domain.try_reclaim();
            }
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            assert!(r.join().unwrap() > 0);
        }
        assert!(map.capacity() > 64, "the churn crossed a resize boundary");
        assert!(reused > 0, "no insert ever took a recycled block");
        assert_eq!(map.len(), STABLE as usize);
        // All readers gone: everything reclaims.
        domain.try_reclaim();
        assert_eq!(domain.pending_count(), 0);
    }

    #[test]
    fn concurrent_readers_compare_heap_keys_the_writer_replaces() {
        const STABLE: usize = 64;
        const CHURN: usize = 64;
        let _one_at_a_time = crate::lock(&THREADED);
        // Every key the same length, so a freed key buffer is the next
        // one the writer's allocations get back. A value's top bits
        // index its key's name: stable keys first, then the churn.
        let name = |i: usize| match i.checked_sub(STABLE) {
            None => format!("key-{i:04}"),
            Some(j) => format!("tmp-{j:04}"),
        };
        let domain = Arc::new(RcuDomain::new(4));
        let map = Arc::new(RcuHashMap::<String, u64>::new(Arc::clone(&domain)));
        for i in 0..STABLE {
            map.insert(name(i), (i as u64) << 16);
        }
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let readers: Vec<_> = (1..4u32)
            .map(|c| {
                let (map, domain, stop) =
                    (Arc::clone(&map), Arc::clone(&domain), Arc::clone(&stop));
                let names: Vec<String> = (0..STABLE + CHURN).map(name).collect();
                std::thread::spawn(move || {
                    let mut scans = 0u64;
                    loop {
                        let _g = domain.read_guard(CoreId(c));
                        // A stable key is replaced, never removed: every
                        // lookup compares its bytes and finds it.
                        for (i, n) in names[..STABLE].iter().enumerate() {
                            let v = map.get(n.as_str(), |v| *v);
                            assert_eq!(v.map(|v| v >> 16), Some(i as u64), "{n}");
                        }
                        // Every key read, removed or not, is still the
                        // bytes it was written with.
                        map.for_each(|k, v| assert_eq!(*k, names[(v >> 16) as usize]));
                        scans += 1;
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                    }
                    scans
                })
            })
            .collect();
        for round in 1..200u64 {
            for i in 0..STABLE {
                let v = (i as u64) << 16 | round;
                if round % 2 == 0 {
                    assert!(map.insert(name(i), v));
                } else {
                    assert!(map.insert_borrowed(name(i).as_str(), v));
                }
            }
            for i in STABLE..STABLE + CHURN {
                map.insert(name(i), (i as u64) << 16);
            }
            for i in STABLE..STABLE + CHURN {
                assert!(map.remove(name(i).as_str()));
            }
            domain.try_reclaim();
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            assert!(r.join().unwrap() > 0);
        }
        assert_eq!(map.len(), STABLE);
        domain.try_reclaim();
        assert_eq!(domain.pending_count(), 0);
    }

    #[test]
    fn a_resize_allocates_no_node_and_keeps_the_old_tables_readers_whole() {
        let domain = Arc::new(RcuDomain::new(2));
        let map: RcuHashMap<u64, u64> = RcuHashMap::with_capacity(Arc::clone(&domain), 4);
        for i in 0..4u64 {
            map.insert(i, i + 100);
        }
        let nodes_before: Vec<*const u64> = (0..4u64)
            .map(|i| map.get(&i, ptr::from_ref).unwrap())
            .collect();
        let guard = domain.read_guard(CoreId(1));
        // A reader parked in the old table (for_each holds it) while the
        // fifth insert doubles it.
        let mut seen = Vec::new();
        map.for_each(|k, v| {
            if seen.is_empty() {
                map.insert(4, 104);
                assert_eq!(map.capacity(), 8);
            }
            seen.push((*k, *v));
        });
        seen.sort_unstable();
        assert_eq!(seen, (0..4u64).map(|i| (i, i + 100)).collect::<Vec<_>>());
        // The entries did not move: same blocks, new chains.
        for (i, &p) in nodes_before.iter().enumerate() {
            assert_eq!(map.get(&(i as u64), ptr::from_ref), Some(p));
        }
        // With that reader still live the next doubling must wait: it
        // would thread the links the reader may be walking.
        for i in 5..9u64 {
            map.insert(i, i + 100);
        }
        assert_eq!(map.capacity(), 8, "resize went ahead under a live reader");
        drop(guard);
        map.insert(9, 109);
        assert_eq!(map.capacity(), 16, "one catch-up resize to fit all ten");
        for i in 0..10u64 {
            assert_eq!(map.get(&i, |v| *v), Some(i + 100));
        }
        // Both old bucket arrays, nothing else.
        assert_eq!(domain.try_reclaim(), 2);
    }

    proptest::proptest! {
        /// The map agrees with a `HashMap` under insert / replace /
        /// remove / get / forced resize, with reclaim passes (hence
        /// block reuse) in between.
        #[test]
        fn map_matches_model_across_resizes_and_reuse(
            ops in proptest::collection::vec((0u8..6, 0u8..32, proptest::arbitrary::any::<u16>()), 0..300),
        ) {
            let domain = Arc::new(RcuDomain::new(1));
            let map: RcuHashMap<u8, u16> = RcuHashMap::with_capacity(Arc::clone(&domain), 4);
            let mut model = std::collections::HashMap::new();
            for (op, k, v) in ops {
                let guard = domain.read_guard(CoreId(0));
                match op {
                    0 | 1 => {
                        let replaced = map.insert(k, v);
                        proptest::prop_assert_eq!(replaced, model.insert(k, v).is_some());
                    }
                    2 => proptest::prop_assert_eq!(map.remove(&k), model.remove(&k).is_some()),
                    3 if map.capacity() < 256 => {
                        let cap = map.capacity();
                        map.resize(&mut crate::lock(&map.writer), cap * 2);
                    }
                    _ => {}
                }
                proptest::prop_assert_eq!(map.get(&k, |x| *x), model.get(&k).copied());
                proptest::prop_assert_eq!(map.len(), model.len());
                drop(guard);
                if op == 5 {
                    domain.try_reclaim();
                }
            }
            let mut all = Vec::new();
            {
                let _g = domain.read_guard(CoreId(0));
                map.for_each(|k, v| all.push((*k, *v)));
            }
            all.sort_unstable();
            let mut want: Vec<_> = model.into_iter().collect();
            want.sort_unstable();
            proptest::prop_assert_eq!(all, want);
            domain.try_reclaim();
            proptest::prop_assert_eq!(domain.pending_count(), 0);
        }
    }
}
