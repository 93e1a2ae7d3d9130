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

/// Reclaimed blocks on the map's free list.
fn free_blocks<K, V>(map: &RcuHashMap<K, V>) -> usize {
    let free = crate::lock(&map.pool.free);
    let mut n = 0;
    let mut p = free.head;
    // SAFETY: free blocks lie in chunks the list owns, and the list is
    // locked.
    while let Some(node) = unsafe { p.as_ref() } {
        n += 1;
        p = node.next[0].load(Ordering::Relaxed);
    }
    n
}

#[test]
fn fresh_keys_call_the_allocator_once_per_chunk() {
    // 128 keys, 32 blocks to a chunk.
    const CHUNKS: u64 = 4;
    let n = 128;
    let domain = Arc::new(RcuDomain::new(1));
    // Buckets for every key: no table doubling in the counted windows.
    let map: RcuHashMap<u64, u64> = RcuHashMap::with_capacity(Arc::clone(&domain), 2 * n as usize);
    let before = test_alloc::thread_calls();
    for k in 0..n {
        assert!(!map.insert(k, k));
    }
    assert_eq!(
        test_alloc::thread_calls() - before,
        CHUNKS,
        "one call per chunk of blocks"
    );
    // Reclaimed blocks come before unused ones: the next keys reuse
    // them, and no chunk is carved.
    for k in 0..n {
        assert!(map.remove(&k));
    }
    assert_eq!(domain.try_reclaim(), n as usize);
    assert_eq!(free_blocks(&map), n as usize);
    let before = test_alloc::thread_calls();
    for k in n..2 * n {
        assert!(!map.insert(k, k));
    }
    assert_eq!(
        test_alloc::thread_calls() - before,
        0,
        "a fresh key took a new chunk"
    );
    assert_eq!(free_blocks(&map), 0);
    for k in 0..2 * n {
        assert_eq!(map.get(&k, |v| *v), (k >= n).then_some(k));
    }
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
            let (map, domain, stop) = (Arc::clone(&map), Arc::clone(&domain), Arc::clone(&stop));
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
