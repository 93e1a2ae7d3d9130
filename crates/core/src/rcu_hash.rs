//! An RCU hash map (§3.6 of the paper).
//!
//! The EbbRT network stack "stores connection state in an RCU hash table
//! which allows common connection lookup operations to proceed without
//! any atomic operations", and the memcached port keeps its key-value
//! pairs in the same structure. This module provides that map:
//!
//! * **Readers** ([`RcuHashMap::get`], [`RcuHashMap::for_each`]) walk
//!   bucket chains with plain acquire loads — no locks, no atomic RMW.
//! * **Writers** serialize on an internal spinlock; removal unlinks the
//!   node and *retires* it to the machine's [`RcuDomain`], so readers
//!   that already hold the node keep a valid reference until the grace
//!   period ends.
//! * **An entry is one block**: key, value, hash, chain links and the
//!   [`Retired`] header it is retired by. Retiring it is a list push
//!   (no allocation); when its grace period has elapsed the key and
//!   value are dropped and the block goes to the map's free list, where
//!   the next [`RcuHashMap::insert`] finds it.
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
use std::sync::Arc;

use crate::rcu::{RcuDomain, Retired};
use crate::spinlock::SpinLock;

/// One entry. `repr(C)` with the header first: the domain hands the
/// header's address back to [`Pool::reclaim`], which is the node's.
#[repr(C)]
struct Node<K, V> {
    retired: Retired,
    hash: u64,
    /// Chain links, indexed by table parity.
    next: [AtomicPtr<Node<K, V>>; 2],
    /// Initialised from `insert` until `reclaim` — that is, whenever
    /// the node is linked, or retired and not yet reclaimed.
    key: MaybeUninit<K>,
    /// As `key`.
    value: MaybeUninit<V>,
    /// The pool to return to, as a leaked `Arc` count. Meaningful only
    /// between `unlink` and `reclaim`; atomic only so `unlink` can set
    /// it through the shared references readers may still hold. Last:
    /// lookups never read it.
    owner: AtomicPtr<Pool<K, V>>,
}

impl<K, V> Node<K, V> {
    #[inline]
    fn key(&self) -> &K {
        // SAFETY: a `&Node` exists only for a node reached through a
        // table or held by `insert`/`unlink`, all inside the window in
        // which `key` is initialised (see the field).
        unsafe { self.key.assume_init_ref() }
    }

    #[inline]
    fn value(&self) -> &V {
        // SAFETY: as for `key`.
        unsafe { self.value.assume_init_ref() }
    }
}

/// Blocks whose grace period has elapsed, for `insert` to reuse. Shared
/// by `Arc` between the map and its retired nodes, so a node reclaimed
/// after the map is gone still has somewhere to go.
struct Pool<K, V> {
    /// Stack of free blocks, linked through `next[0]`; keys and values
    /// uninitialised.
    free: SpinLock<FreeList<K, V>>,
}

struct FreeList<K, V>(*mut Node<K, V>);

// SAFETY: the list owns its blocks outright — no reader can reach a
// block whose grace period is over — and they hold no live `K` or `V`.
unsafe impl<K, V> Send for FreeList<K, V> {}

impl<K, V> Pool<K, V> {
    /// A block for a new entry: a reclaimed one if there is one.
    fn take(&self, hash: u64, key: K, value: V) -> *mut Node<K, V> {
        let recycled = {
            let mut free = self.free.lock();
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
    /// drops the entry and shelves the block.
    ///
    /// # Safety
    ///
    /// `hdr` heads a `Node<K, V>` that `unlink` retired: unreachable,
    /// key and value initialised, `owner` holding a leaked `Arc` count.
    unsafe fn reclaim(hdr: NonNull<Retired>) {
        let node = hdr.as_ptr().cast::<Node<K, V>>();
        // SAFETY: per the contract the block is this thread's alone
        // now, and `owner` came from `Arc::into_raw` in `unlink`. The
        // entry is dropped before the free-list lock is taken: a
        // destructor may use the map.
        let pool = unsafe {
            (*node).key.assume_init_drop();
            (*node).value.assume_init_drop();
            Arc::from_raw((*node).owner.load(Ordering::Relaxed).cast_const())
        };
        let mut free = pool.free.lock();
        // SAFETY: still exclusively ours until the store below.
        unsafe { (*node).next[0].store(free.0, Ordering::Relaxed) };
        free.0 = node;
    }
}

impl<K, V> Drop for Pool<K, V> {
    fn drop(&mut self) {
        let mut p = self.free.get_mut().0;
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
    writer: SpinLock<Writer>,
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
                free: SpinLock::new(FreeList(ptr::null_mut())),
            }),
            writer: SpinLock::new(Writer {
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
            .map(|(_, node)| f(node.value()))
    }

    /// Inserts or replaces; returns `true` if an existing entry was
    /// replaced. Readers observe either the old or the new value, never
    /// neither (the new node is published before the old is unlinked).
    pub fn insert(&self, key: K, value: V) -> bool {
        let hash = Self::hash_of(&key);
        let mut w = self.writer.lock();
        let table = self.table();
        let bucket = table.bucket(hash);

        // Publish the new node at the bucket head.
        let new = self.pool.take(hash, key, value);
        // SAFETY: `take` returned a block this writer owns until the
        // store below publishes it, and only this writer (holding the
        // lock) could unlink it afterwards.
        let new_ref = unsafe { &*new };
        let next = &new_ref.next[usize::from(table.parity)];
        next.store(bucket.load(Ordering::Acquire), Ordering::Relaxed);
        bucket.store(new, Ordering::Release);

        // Unlink any previous entry for the key (now shadowed by `new`).
        let shadowed = table
            .chain(next)
            .find(|(_, node)| node.hash == hash && node.key() == new_ref.key());
        let replaced = shadowed.is_some();
        if let Some((link, node)) = shadowed {
            self.unlink(table, link, node);
        }

        if !replaced {
            let len = self.len.fetch_add(1, Ordering::AcqRel) + 1;
            if len > table.buckets.len() {
                self.resize(&mut w, len.next_power_of_two());
            }
        }
        replaced
    }

    /// Removes `key`; returns whether it was present. The node is
    /// retired, so concurrent readers finish safely.
    pub fn remove<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let hash = Self::hash_of(key);
        let _w = self.writer.lock();
        let table = self.table();
        let found = table
            .chain(table.bucket(hash))
            .find(|(_, node)| node.hash == hash && node.key().borrow() == key);
        let Some((link, node)) = found else {
            return false;
        };
        self.unlink(table, link, node);
        self.len.fetch_sub(1, Ordering::AcqRel);
        true
    }

    /// Unlinks `node`, which `link` points at in `table`, and retires
    /// it. Caller holds the writer lock.
    fn unlink(&self, table: &Table<K, V>, link: &AtomicPtr<Node<K, V>>, node: &Node<K, V>) {
        // Under the writer lock the link still holds `node`'s pointer
        // as `Pool::take` made it — what the deferred reclaim needs.
        let p = link.load(Ordering::Relaxed);
        link.store(
            node.next[usize::from(table.parity)].load(Ordering::Acquire),
            Ordering::Release,
        );
        // `reclaim` takes this count back.
        let pool = Arc::into_raw(Arc::clone(&self.pool)).cast_mut();
        node.owner.store(pool, Ordering::Relaxed);
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
            f(node.key(), node.value());
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
        let free = map.pool.free.lock();
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

    #[test]
    fn concurrent_readers_and_writer() {
        const STABLE: u64 = 100;
        const CHURN: u64 = 400;
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
                        map.resize(&mut map.writer.lock(), cap * 2);
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
