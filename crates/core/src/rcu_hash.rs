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
//! * **Resize** builds a fresh table (cloning the `Arc`ed entries) and
//!   swaps it in; the old table and nodes are retired wholesale.
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
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};
use std::sync::Arc;

use crate::rcu::RcuDomain;
use crate::spinlock::SpinLock;

struct Node<K, V> {
    hash: u64,
    data: Arc<(K, V)>,
    next: AtomicPtr<Node<K, V>>,
}

struct Table<K, V> {
    mask: usize,
    buckets: Box<[AtomicPtr<Node<K, V>>]>,
}

impl<K, V> Table<K, V> {
    fn new(capacity: usize) -> Self {
        debug_assert!(capacity.is_power_of_two());
        Table {
            mask: capacity - 1,
            buckets: (0..capacity)
                .map(|_| AtomicPtr::new(std::ptr::null_mut()))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
        }
    }

    fn bucket(&self, hash: u64) -> &AtomicPtr<Node<K, V>> {
        &self.buckets[(hash as usize) & self.mask]
    }
}

/// Walks a chain from `link` on, yielding each node with the link that
/// points at it (what an unlink stores through).
struct Links<'a, K, V>(&'a AtomicPtr<Node<K, V>>);

impl<'a, K, V> Iterator for Links<'a, K, V> {
    type Item = (&'a AtomicPtr<Node<K, V>>, &'a Node<K, V>);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        let link = self.0;
        // SAFETY: a non-null pointer loaded from a link of a live table
        // (or of a node reached from one) came from `Box::into_raw`, and
        // its node is either still linked or retired-but-not-reclaimed:
        // nodes are freed only a grace period after being unlinked, and
        // the walker is inside a read-side critical section (module
        // contract) or holds the writer lock, which excludes every
        // unlink. Either way the node outlives the walk.
        let node = unsafe { link.load(Ordering::Acquire).as_ref() }?;
        self.0 = &node.next;
        Some((link, node))
    }
}

/// Deferred destructor for an unlinked node.
struct NodeGarbage<K, V>(*mut Node<K, V>);

// SAFETY: the node is unlinked and owned solely by the garbage wrapper;
// K and V are Send, and the Arc<(K, V)> inside is dropped on one thread.
unsafe impl<K: Send, V: Send> Send for NodeGarbage<K, V> {}

impl<K, V> Drop for NodeGarbage<K, V> {
    fn drop(&mut self) {
        // SAFETY: `0` came from `Box::into_raw` and was unlinked from the
        // table before being retired; the grace period has elapsed.
        drop(unsafe { Box::from_raw(self.0) });
    }
}

/// Deferred destructor for a replaced table *and all its nodes* (the
/// resize path clones entries into the new table, so old nodes are
/// exclusively owned by the old table).
struct TableGarbage<K, V>(*mut Table<K, V>);

// SAFETY: as for NodeGarbage; the table and its chain are exclusively
// owned once unlinked.
unsafe impl<K: Send, V: Send> Send for TableGarbage<K, V> {}

impl<K, V> Drop for TableGarbage<K, V> {
    fn drop(&mut self) {
        // SAFETY: the table pointer came from `Box::into_raw`, was
        // replaced in the map before retirement, and its nodes were
        // cloned (not moved) into the successor table.
        let table = unsafe { Box::from_raw(self.0) };
        for bucket in table.buckets.iter() {
            let mut p = bucket.load(Ordering::Relaxed);
            while !p.is_null() {
                // SAFETY: chain nodes of the retired table are owned by
                // it exclusively.
                let node = unsafe { Box::from_raw(p) };
                p = node.next.load(Ordering::Relaxed);
            }
        }
    }
}

/// A concurrent hash map with lock-free readers and RCU-deferred
/// reclamation. See the module docs for the read-side contract.
pub struct RcuHashMap<K, V> {
    domain: Arc<RcuDomain>,
    table: AtomicPtr<Table<K, V>>,
    writer: SpinLock<()>,
    len: AtomicUsize,
}

// SAFETY: `table` is the one field that is not `Sync` by itself.
// Readers follow it with acquire loads, writers are serialized by
// `writer`, and reclamation is deferred through `domain`; the other
// fields are a lock, an atomic and an `Arc` of a `Sync` domain. A shared
// map hands `&K`/`&V` to every thread and lets any of them drop an
// entry, hence `Send + Sync` on both.
unsafe impl<K: Send + Sync, V: Send + Sync> Sync for RcuHashMap<K, V> {}
// SAFETY: the table and nodes behind `table` are heap memory the map
// alone owns, so moving the map moves its `K`s and `V`s with it
// (`Send`). A pair `remove` handed out is unlinked by then: the map's
// new thread can still drop its retired node's `Arc`, never read it.
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
            domain,
            table: AtomicPtr::new(Box::into_raw(Box::new(Table::new(capacity)))),
            writer: SpinLock::new(()),
            len: AtomicUsize::new(0),
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
        Links(self.table().bucket(hash))
            .find(|(_, node)| node.hash == hash && node.data.0.borrow() == key)
            .map(|(_, node)| f(&node.data.1))
    }

    /// Inserts or replaces; returns `true` if an existing entry was
    /// replaced. Readers observe either the old or the new value, never
    /// neither (the new node is published before the old is unlinked).
    pub fn insert(&self, key: K, value: V) -> bool {
        let hash = Self::hash_of(&key);
        let _w = self.writer.lock();
        let table = self.table();
        let bucket = table.bucket(hash);

        // Publish the new node at the bucket head.
        let head = bucket.load(Ordering::Acquire);
        let new = Box::into_raw(Box::new(Node {
            hash,
            data: Arc::new((key, value)),
            next: AtomicPtr::new(head),
        }));
        bucket.store(new, Ordering::Release);

        // Unlink any previous entry for the key (now shadowed by `new`).
        // SAFETY: `new` was just created by us, and only this writer
        // (holding the lock) could unlink it.
        let new_ref = unsafe { &*new };
        let shadowed = Links(&new_ref.next)
            .find(|(_, node)| node.hash == hash && node.data.0 == new_ref.data.0);
        let replaced = shadowed.is_some();
        if let Some((link, node)) = shadowed {
            self.unlink(link, node);
        }

        if !replaced {
            let len = self.len.fetch_add(1, Ordering::AcqRel) + 1;
            if len > table.buckets.len() {
                self.resize(table.buckets.len() * 2);
            }
        }
        replaced
    }

    /// Removes `key`, returning the entry if present. The node is
    /// retired, so concurrent readers finish safely.
    pub fn remove<Q>(&self, key: &Q) -> Option<Arc<(K, V)>>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let hash = Self::hash_of(key);
        let _w = self.writer.lock();
        let (link, node) = Links(self.table().bucket(hash))
            .find(|(_, node)| node.hash == hash && node.data.0.borrow() == key)?;
        let data = Arc::clone(&node.data);
        self.unlink(link, node);
        self.len.fetch_sub(1, Ordering::AcqRel);
        Some(data)
    }

    /// Unlinks `node`, which `link` points at, and retires it. Caller
    /// holds the writer lock.
    fn unlink(&self, link: &AtomicPtr<Node<K, V>>, node: &Node<K, V>) {
        // Under the writer lock the link still holds `node`'s pointer
        // as `Box::into_raw` made it — what the deferred free needs.
        let p = link.load(Ordering::Relaxed);
        link.store(node.next.load(Ordering::Acquire), Ordering::Release);
        self.domain.retire(NodeGarbage(p));
    }

    /// Applies `f` to every entry (reader-side; sees a consistent chain
    /// per bucket but concurrent writers may add/remove around it).
    pub fn for_each(&self, mut f: impl FnMut(&K, &V)) {
        for (_, node) in self.table().buckets.iter().flat_map(Links) {
            f(&node.data.0, &node.data.1);
        }
    }

    /// Current bucket count (diagnostic).
    pub fn capacity(&self) -> usize {
        self.table().buckets.len()
    }

    /// Grows the table to `new_capacity` buckets. Caller holds the
    /// writer lock.
    fn resize(&self, new_capacity: usize) {
        let new = Box::new(Table::new(new_capacity));
        for (_, node) in self.table().buckets.iter().flat_map(Links) {
            let nb = new.bucket(node.hash);
            let head = nb.load(Ordering::Relaxed);
            let copy = Box::into_raw(Box::new(Node {
                hash: node.hash,
                data: Arc::clone(&node.data),
                next: AtomicPtr::new(head),
            }));
            nb.store(copy, Ordering::Release);
        }
        let old = self.table.load(Ordering::Acquire);
        self.table.store(Box::into_raw(new), Ordering::Release);
        self.domain.retire(TableGarbage(old));
    }
}

impl<K, V> Drop for RcuHashMap<K, V> {
    fn drop(&mut self) {
        // `&mut self`: no readers can exist; free the table directly.
        let p = *self.table.get_mut();
        drop(TableGarbage(p));
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
        let removed = map.remove("a").unwrap();
        assert_eq!(removed.1, 1);
        assert_eq!(map.get("a", |v| *v), None);
        assert_eq!(map.len(), 1);
        assert!(map.remove("a").is_none());
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

    #[test]
    fn removed_entry_outlives_reclaim() {
        let (domain, map) = map();
        let entry = {
            let _g = domain.read_guard(CoreId(0));
            map.insert("x".into(), 42);
            map.remove("x").unwrap()
        };
        assert!(domain.try_reclaim() > 0);
        // The Arc keeps the data alive even after the node is freed.
        assert_eq!(entry.1, 42);
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

    #[test]
    fn concurrent_readers_and_writer() {
        let domain = Arc::new(RcuDomain::new(4));
        let map = Arc::new(RcuHashMap::<u64, u64>::new(Arc::clone(&domain)));
        // Pre-populate stable keys.
        {
            let _g = domain.read_guard(CoreId(0));
            for i in 0..100 {
                map.insert(i, i * 2);
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
                        for i in 0..100 {
                            if let Some(v) = map.get(&i, |v| *v) {
                                assert_eq!(v % 2, 0, "value must be a valid doubling");
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
        // Writer churns: replaces values and removes/reinserts keys.
        for round in 1..50u64 {
            for i in 0..100 {
                map.insert(i, i * 2 + round * 2);
            }
            for i in (0..100).step_by(7) {
                map.remove(&i);
                map.insert(i, i * 2);
            }
            domain.try_reclaim();
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            assert!(r.join().unwrap() > 0);
        }
        // All readers gone: everything reclaims.
        domain.try_reclaim();
        assert_eq!(domain.pending_count(), 0);
    }
}
