use super::pool::SizeClass;
use super::*;
use crate::cpu::CoreId;
use std::sync::Arc;

/// Regions of `class` parked in the calling context's depot.
fn depot_free(class: SizeClass) -> usize {
    crate::runtime::with_context(|rt, _| pool::runtime_free_counts(rt, class).1)
}

#[test]
fn mut_iobuf_headroom_prepend() {
    let mut b = MutIoBuf::with_headroom(100, 64);
    assert_eq!(b.headroom(), 64);
    assert_eq!(b.len(), 0);
    b.append_slice(b"payload");
    assert_eq!(b.bytes(), b"payload");
    b.prepend(4).copy_from_slice(b"HDR:");
    assert_eq!(b.bytes(), b"HDR:payload");
    assert_eq!(b.headroom(), 60);
}

#[test]
#[should_panic(expected = "exceeds headroom")]
fn prepend_past_headroom_panics() {
    let mut b = MutIoBuf::with_headroom(10, 2);
    b.prepend(3);
}

#[test]
fn advance_and_trim() {
    let mut b = MutIoBuf::from_vec(b"ethipv4payload".to_vec());
    b.advance(3);
    assert_eq!(b.bytes(), b"ipv4payload");
    b.advance(4);
    assert_eq!(b.bytes(), b"payload");
    b.trim_end(3);
    assert_eq!(b.bytes(), b"payl");
    // Consumed header space became headroom again.
    assert_eq!(b.headroom(), 7);
}

#[test]
fn freeze_shares_storage() {
    let b = MutIoBuf::from_vec(vec![1, 2, 3, 4]).freeze();
    let c = b.clone();
    assert_eq!(b.ref_count(), 2);
    let s = c.slice(1, 2);
    assert_eq!(s.bytes(), &[2, 3]);
    assert_eq!(b.ref_count(), 3);
    assert_eq!(b.bytes(), &[1, 2, 3, 4]);
}

#[test]
fn slice_range_matches_slice() {
    let b = IoBuf::copy_from(b"0123456789");
    assert_eq!(b.slice_range(2..6).bytes(), b.slice(2, 4).bytes());
    assert_eq!(b.slice_range(0..0).len(), 0);
}

#[test]
fn chain_accounting() {
    let mut chain: Chain<IoBuf> = Chain::new();
    assert!(chain.is_empty());
    chain.push_back(IoBuf::copy_from(b"hello "));
    chain.push_back(IoBuf::copy_from(b"world"));
    chain.push_front(IoBuf::copy_from(b">> "));
    assert_eq!(chain.len(), 14);
    assert_eq!(chain.segment_count(), 3);
    assert_eq!(chain.copy_to_vec(), b">> hello world");
}

#[test]
fn chain_advance_across_segments() {
    let mut chain: Chain<IoBuf> = Chain::new();
    chain.push_back(IoBuf::copy_from(b"abc"));
    chain.push_back(IoBuf::copy_from(b"defg"));
    chain.advance(4);
    assert_eq!(chain.len(), 3);
    assert_eq!(chain.copy_to_vec(), b"efg");
    assert_eq!(chain.segment_count(), 1);
}

#[test]
fn chain_split_to_shares_storage() {
    let base = IoBuf::copy_from(b"0123456789");
    let mut chain = Chain::single(base.clone());
    let head = chain.split_to(4);
    assert_eq!(head.copy_to_vec(), b"0123");
    assert_eq!(chain.copy_to_vec(), b"456789");
    // Same storage: base + head segment + chain remainder.
    assert_eq!(base.ref_count(), 3);
}

#[test]
fn cursor_reads_across_boundaries() {
    let mut chain: Chain<IoBuf> = Chain::new();
    chain.push_back(IoBuf::copy_from(&[0x12]));
    chain.push_back(IoBuf::copy_from(&[0x34, 0xAB]));
    chain.push_back(IoBuf::copy_from(&[0xCD, 0xEF, 0x01, 0x02, 0x03]));
    let mut cur = chain.cursor();
    assert_eq!(cur.read_u16_be(), Some(0x1234));
    assert_eq!(cur.read_u32_be(), Some(0xABCD_EF01));
    assert_eq!(cur.remaining(), 2);
    cur.skip(1).unwrap();
    assert_eq!(cur.read_u8(), Some(0x03));
    assert_eq!(cur.read_u8(), None);
}

#[test]
fn cursor_read_exact_insufficient_consumes_nothing() {
    let chain = Chain::single(IoBuf::copy_from(b"ab"));
    let mut cur = chain.cursor();
    let mut buf = [0u8; 3];
    assert!(cur.read_exact(&mut buf).is_none());
    assert_eq!(cur.consumed(), 0);
    assert_eq!(cur.read_u16_be(), Some(u16::from_be_bytes(*b"ab")));
}

#[test]
fn cursor_zero_copy_read_shares_storage() {
    let a = IoBuf::copy_from(b"abcde");
    let b = IoBuf::copy_from(b"fghij");
    let mut chain = Chain::new();
    chain.push_back(a.clone());
    chain.push_back(b.clone());
    let mut cur = chain.cursor();
    cur.skip(3).unwrap();
    let before = stats::snapshot().bytes_copied;
    let body = cur.read_exact_zero_copy(5).expect("enough bytes");
    assert_eq!(
        stats::snapshot().bytes_copied,
        before,
        "no bytes may be copied"
    );
    assert_eq!(body.len(), 5);
    assert_eq!(cur.remaining(), 2);
    // Spans both segments as sub-views of the original regions.
    assert_eq!(body.segment_count(), 2);
    assert_eq!(a.ref_count(), 3); // a + chain seg + body seg
    assert_eq!(b.ref_count(), 3);
    assert_eq!(body.copy_to_vec(), b"defgh");
    // Insufficient bytes: consume nothing.
    let mut cur2 = chain.cursor();
    assert!(cur2.read_exact_zero_copy(11).is_none());
    assert_eq!(cur2.consumed(), 0);
}

#[test]
fn pooled_storage_recycles_on_last_drop() {
    // Drain any pool state left by other tests on this thread
    // (holding the buffers so they don't recycle straight back).
    let mut held = Vec::new();
    while pool::local_free(SizeClass::SMALL) > 0 || depot_free(SizeClass::SMALL) > 0 {
        held.push(MutIoBuf::with_capacity(64));
    }
    let hits0 = stats::snapshot().pool_hits;
    let returns0 = stats::snapshot().pool_returns;
    let buf = MutIoBuf::with_capacity(64); // fresh: pool is empty
    assert!(buf.is_pooled());
    let frozen = buf.freeze();
    let clone = frozen.clone();
    drop(frozen);
    assert_eq!(
        stats::snapshot().pool_returns,
        returns0,
        "region must not recycle while a descriptor lives"
    );
    drop(clone);
    assert_eq!(stats::snapshot().pool_returns, returns0 + 1);
    assert_eq!(pool::local_free(SizeClass::SMALL), 1);
    // The next pool-sized request reuses the region: a hit, no alloc.
    let allocs0 = stats::snapshot().bufs_allocated;
    let again = MutIoBuf::with_capacity(128);
    assert!(again.is_pooled());
    assert_eq!(stats::snapshot().pool_hits, hits0 + 1);
    assert_eq!(stats::snapshot().bufs_allocated, allocs0);
}

#[test]
fn class_selection_boundaries() {
    assert_eq!(pool::class_for(0), Some(SizeClass::SMALL));
    assert_eq!(pool::class_for(1), Some(SizeClass::SMALL));
    assert_eq!(
        pool::class_for(pool::SMALL_CAPACITY),
        Some(SizeClass::SMALL)
    );
    assert_eq!(
        pool::class_for(pool::SMALL_CAPACITY + 1),
        Some(SizeClass::LARGE)
    );
    assert_eq!(
        pool::class_for(pool::LARGE_CAPACITY),
        Some(SizeClass::LARGE)
    );
    assert_eq!(pool::class_for(pool::LARGE_CAPACITY + 1), None);
}

// NOTE: pool/depot state is runtime-owned (the buffer-pool Ebb);
// outside an entered runtime every test thread gets its own
// private ambient context, so these tests need no cross-test
// serialization — the old global `large_class_lock` mutex is gone.

/// A private machine for pool tests that need real multi-core
/// semantics.
fn test_runtime(ncores: usize) -> Arc<crate::runtime::Runtime> {
    crate::runtime::Runtime::new(ncores, Arc::new(crate::clock::ManualClock::new()))
}

#[test]
fn buffers_between_classes_use_large_pool() {
    // A request just past the small class is served by the large
    // class, with the requested logical capacity enforced.
    let b = MutIoBuf::with_capacity(pool::SMALL_CAPACITY + 1);
    assert_eq!(b.size_class(), Some(SizeClass::LARGE));
    assert_eq!(b.capacity(), pool::SMALL_CAPACITY + 1);
    // Recycling goes back to the large class and is reused.
    let returns0 = stats::snapshot().class(SizeClass::LARGE).returns;
    drop(b);
    assert_eq!(
        stats::snapshot().class(SizeClass::LARGE).returns,
        returns0 + 1
    );
    let hits0 = stats::snapshot().class(SizeClass::LARGE).hits;
    let again = MutIoBuf::with_capacity(32 * 1024);
    assert_eq!(again.size_class(), Some(SizeClass::LARGE));
    assert_eq!(stats::snapshot().class(SizeClass::LARGE).hits, hits0 + 1);
}

#[test]
fn oversized_buffers_bypass_pool() {
    let over0 = stats::snapshot().oversize_allocs;
    let b = MutIoBuf::with_capacity(pool::LARGE_CAPACITY + 1);
    assert!(!b.is_pooled());
    assert_eq!(b.size_class(), None);
    assert_eq!(b.capacity(), pool::LARGE_CAPACITY + 1);
    assert_eq!(stats::snapshot().oversize_allocs, over0 + 1);
}

#[test]
fn depot_balances_between_cores() {
    use crate::runtime;
    // Pool state is owned by this private runtime: no other test
    // can steal the flushed batch mid-assertion (the reason the
    // old global-pool design needed a serialization mutex).
    let rt = test_runtime(2);
    let class = SizeClass::LARGE;
    // Producer core 0: recycle past the high watermark, flushing a
    // batch to the depot.
    let after_flush = {
        let _g = runtime::enter(Arc::clone(&rt), CoreId(0));
        let before = *stats::snapshot().class(class);
        pool::prewarm_class(class, class.high_watermark());
        // Take one (hit) and return it: the return crosses the
        // watermark and flushes a batch.
        drop(MutIoBuf::with_capacity(pool::LARGE_CAPACITY));
        let after_flush = *stats::snapshot().class(class);
        assert_eq!(
            after_flush.depot_in - before.depot_in,
            class.batch() as u64,
            "crossing the watermark must flush one batch to the depot"
        );
        after_flush
    };
    // Consumer core 1: empty local list refills a batch from the
    // depot — cross-core migration, no fresh allocation.
    {
        let _g = runtime::enter(Arc::clone(&rt), CoreId(1));
        assert_eq!(pool::local_free(class), 0);
        let allocs0 = stats::snapshot().bufs_allocated;
        let buf = MutIoBuf::with_capacity(pool::LARGE_CAPACITY);
        assert_eq!(buf.size_class(), Some(class));
        assert_eq!(
            stats::snapshot().bufs_allocated,
            allocs0,
            "refill, not alloc"
        );
        // Migration is visible machine-wide: this core's depot_out
        // grew by one batch since the producer's flush.
        assert_eq!(
            stats::snapshot().class(class).depot_out,
            class.batch() as u64
        );
        assert_eq!(pool::local_free(class), class.batch() - 1);
        let _ = after_flush;
    }
}

#[test]
fn idle_sweep_returns_mailbox_regions_to_depot() {
    use crate::runtime;
    let home = test_runtime(1);
    let away = test_runtime(1);
    let class = SizeClass::LARGE;
    // More than one refill batch, so both halves of the sweep
    // policy are visible (local top-up + depot return).
    let n = class.batch() + 4;
    assert!(n >= class.sweep_low_water());
    // Allocate on the home machine (stamping the regions' home),
    // then free them all under the away machine: every region posts
    // back to home core 0's mailbox, crossing the sweep's low-water
    // mark.
    let bufs: Vec<IoBuf> = {
        let _g = runtime::enter(Arc::clone(&home), CoreId(0));
        (0..n)
            .map(|_| MutIoBuf::with_capacity(class.capacity()).freeze())
            .collect()
    };
    let home_root = home
        .ebbs()
        .root::<pool::PoolEbb>(crate::ebb::SystemEbb::BufferPool.id())
        .expect("home pool root");
    {
        let _g = runtime::enter(Arc::clone(&away), CoreId(0));
        drop(bufs);
    }
    assert_eq!(home_root.mailbox_len(class), n);
    assert_eq!(home_root.depot_len(class), 0);
    let base = stats::runtime_snapshot(&home);
    // The cross-machine frees armed a sweep: a synthetic event
    // queued on home core 0 registers the one-shot idle callback,
    // which runs at the idle stage of the next pass — without the
    // home machine ever allocating.
    {
        let _g = runtime::enter(Arc::clone(&home), CoreId(0));
        let em = home.event_manager(CoreId(0));
        em.drain(); // the arming event
        em.run_once(); // the idle stage: the sweep itself
        assert!(
            !em.has_idle_handlers(),
            "the sweep is one-shot: the core may halt again"
        );
    }
    assert_eq!(
        home_root.mailbox_len(class),
        0,
        "idle machine must not pin remote-freed regions in mailboxes"
    );
    let (local, depot) = pool::runtime_free_counts(&home, class);
    assert_eq!(
        local,
        class.batch(),
        "the home core keeps one cache-warm refill batch"
    );
    assert_eq!(
        depot,
        n - class.batch(),
        "the excess lands in the machine-wide depot"
    );
    let delta = stats::runtime_snapshot(&home).since(&base);
    assert_eq!(
        delta.class(class).depot_in,
        (n - class.batch()) as u64,
        "the depot half is counted as migration on the home machine"
    );
}

#[test]
fn a_header_region_freed_away_waits_in_its_home_mailbox_for_a_dry_acquire() {
    use crate::runtime;
    let home = test_runtime(1);
    let away = test_runtime(1);
    let class = SizeClass::HEADER;
    assert_eq!(class.capacity(), pool::HEADER_CAPACITY);
    assert_eq!(
        class.index(),
        2 + pool::NUM_VALUE_CLASSES,
        "after the value classes"
    );
    // Twice what arms `SMALL`'s sweep.
    let n = 2 * SizeClass::SMALL.sweep_low_water();
    let bufs: Vec<IoBuf> = {
        let _g = runtime::enter(Arc::clone(&home), CoreId(0));
        (0..n)
            .map(|_| MutIoBuf::header(pool::HEADER_CAPACITY).freeze())
            .collect()
    };
    assert!(bufs.iter().all(|b| b.region_len() == pool::HEADER_CAPACITY));
    let home_root = home
        .ebbs()
        .root::<pool::PoolEbb>(crate::ebb::SystemEbb::BufferPool.id())
        .expect("home pool root");
    {
        let _g = runtime::enter(Arc::clone(&away), CoreId(0));
        drop(bufs);
    }
    assert_eq!(home_root.mailbox_len(class), n);
    {
        let _g = runtime::enter(Arc::clone(&home), CoreId(0));
        let em = home.event_manager(CoreId(0));
        em.drain();
        assert!(!em.has_idle_handlers(), "the frees armed no sweep");
        pool::sweep_mailboxes_to_depot(&home_root, CoreId(0));
    }
    assert_eq!(home_root.mailbox_len(class), n, "a sweep leaves them");
    assert_eq!(home_root.depot_len(class), 0);
    // The home core's next dry acquire takes them all.
    let _g = runtime::enter(Arc::clone(&home), CoreId(0));
    let allocs0 = stats::snapshot().bufs_allocated;
    let again = MutIoBuf::header(pool::HEADER_CAPACITY);
    assert_eq!(again.size_class(), Some(class));
    assert_eq!(stats::snapshot().bufs_allocated, allocs0, "no fresh region");
    assert_eq!(home_root.mailbox_len(class), 0);
    assert_eq!(pool::local_free(class), n - 1);
}

#[test]
fn recycle_sweep_recycle_keeps_the_mailbox_vectors() {
    use crate::runtime;
    // Home is this thread's ambient pool: with no event loop it arms no
    // sweep (which would box a callback), so the test runs it itself.
    let away = test_runtime(1);
    let class = SizeClass::LARGE;
    // Past one refill batch: the sweep tops up the list and feeds the
    // depot.
    let n = class.batch() + 4;
    let mut bufs: Vec<IoBuf> = Vec::with_capacity(n);
    let mut cycle = || {
        bufs.extend((0..n).map(|_| MutIoBuf::with_capacity(class.capacity()).freeze()));
        let (home, core) = runtime::with_context(|rt, core| {
            let id = crate::ebb::SystemEbb::BufferPool.id();
            (
                rt.ebbs().root::<pool::PoolEbb>(id).expect("home pool"),
                core,
            )
        });
        let before = test_alloc::thread_calls();
        {
            let _g = runtime::enter(Arc::clone(&away), CoreId(0));
            bufs.clear(); // every region posts back to the home mailbox
        }
        pool::sweep_mailboxes_to_depot(&home, core);
        test_alloc::thread_calls() - before
    };
    cycle();
    let calls: Vec<u64> = (0..4).map(|_| cycle()).collect();
    assert_eq!(calls, [0; 4], "allocator calls per recycle + sweep");
}

#[test]
fn runtimes_keep_independent_pools_and_stats() {
    // The satellite regression test: two machines in one process
    // must not share pool state or counters — the property the old
    // `thread_local!` + `static DEPOTS` design could not provide.
    use crate::runtime;
    let rt1 = test_runtime(1);
    let rt2 = test_runtime(1);
    {
        let _g = runtime::enter(Arc::clone(&rt1), CoreId(0));
        // Fresh machine: the first allocation is a counted
        // fallback; its drop recycles into rt1's core-0 list.
        drop(MutIoBuf::with_capacity(64));
        assert_eq!(pool::local_free(SizeClass::SMALL), 1);
    }
    let s1 = stats::runtime_snapshot(&rt1);
    assert_eq!(s1.bufs_allocated, 1);
    assert_eq!(s1.pool_returns, 1);
    // rt2 saw none of it — no reps even exist yet.
    let s2 = stats::runtime_snapshot(&rt2);
    assert_eq!(s2, stats::Snapshot::default());
    {
        let _g = runtime::enter(Arc::clone(&rt2), CoreId(0));
        // rt1's recycled region is invisible here: rt2 must
        // fresh-allocate, and its counters move independently.
        assert_eq!(pool::local_free(SizeClass::SMALL), 0);
        let allocs0 = stats::snapshot().bufs_allocated;
        assert_eq!(allocs0, 0);
        let b = MutIoBuf::with_capacity(64);
        assert!(b.is_pooled());
        assert_eq!(stats::snapshot().bufs_allocated, 1);
    }
    // …and rt1's reading is unchanged by rt2's activity.
    assert_eq!(stats::runtime_snapshot(&rt1), s1);
}

#[test]
fn pool_dispatch_works_from_events_and_harness_thread() {
    // The same module-level API resolves to the entered machine's
    // rep inside a runtime and to the thread's ambient context
    // outside one — allocation sites don't care where they run.
    use crate::runtime;
    let ambient_free = pool::local_free(SizeClass::SMALL);
    let rt = test_runtime(1);
    {
        let _g = runtime::enter(Arc::clone(&rt), CoreId(0));
        pool::prewarm(2);
        assert_eq!(pool::local_free(SizeClass::SMALL), 2);
    }
    // Back on the harness thread: the ambient context, untouched.
    assert_eq!(pool::local_free(SizeClass::SMALL), ambient_free);
}

#[test]
fn flux_adaptive_watermark_halves_for_pure_consumers() {
    // Depot hysteresis: a core whose free list has only ever grown
    // since its last balance (it frees buffers other cores
    // allocate, never allocating itself) flushes at *half* the
    // high watermark, priming the depot pipeline after half the
    // parked population. A core with local demand keeps the full
    // watermark.
    use crate::runtime;
    let rt = test_runtime(2);
    let class = SizeClass::LARGE;
    let wm = class.high_watermark();
    // Core 0 allocates wm/2 regions (local demand: fallbacks) and
    // frees them locally: half the watermark must NOT flush there.
    {
        let _g = runtime::enter(Arc::clone(&rt), CoreId(0));
        let bufs: Vec<MutIoBuf> = (0..wm / 2)
            .map(|_| MutIoBuf::with_capacity(pool::LARGE_CAPACITY))
            .collect();
        drop(bufs);
        assert_eq!(
            stats::snapshot().class(class).depot_in,
            0,
            "a core with local demand keeps the full watermark"
        );
        assert_eq!(pool::local_free(class), wm / 2);
    }
    // Core 0 re-acquires them (pool hits) and core 1 — a pure
    // consumer, zero local takes — frees them: the halved
    // watermark flushes a batch after wm/2 returns.
    let held: Vec<MutIoBuf> = {
        let _g = runtime::enter(Arc::clone(&rt), CoreId(0));
        (0..wm / 2)
            .map(|_| MutIoBuf::with_capacity(pool::LARGE_CAPACITY))
            .collect()
    };
    {
        let _g = runtime::enter(Arc::clone(&rt), CoreId(1));
        drop(held);
        assert_eq!(
            stats::snapshot().class(class).depot_in,
            class.batch() as u64,
            "a pure consumer must flush after wm/2 parked regions"
        );
    }
}

#[test]
fn pinned_bytes_dedupes_shared_regions() {
    // Many MSS-like views of one large region pin it once.
    let mut big = MutIoBuf::with_capacity(20 * 1024);
    big.append(20 * 1024).fill(7);
    let frozen = big.freeze();
    let mut chain: Chain<IoBuf> = Chain::new();
    for i in 0..14 {
        chain.push_back(frozen.slice(i * 1460, 1460));
    }
    assert_eq!(chain.pinned_bytes(), frozen.region_len());
    // Distinct regions still accumulate.
    chain.push_back(IoBuf::copy_from(b"other"));
    assert_eq!(chain.pinned_bytes(), frozen.region_len() + 5);
}

#[test]
fn pooled_capacity_is_logical() {
    // A pool-backed buffer enforces the requested capacity even
    // though the physical region is SMALL_CAPACITY bytes.
    let mut b = MutIoBuf::with_headroom(10, 4);
    assert_eq!(b.capacity(), 14);
    assert_eq!(b.tailroom(), 10);
    b.append(10);
    assert_eq!(b.tailroom(), 0);
}

#[test]
#[should_panic(expected = "exceeds tailroom")]
fn pooled_append_respects_logical_capacity() {
    let mut b = MutIoBuf::with_capacity(8);
    b.append(9);
}

#[test]
fn copy_counters_track_explicit_copies() {
    let before = stats::snapshot().bytes_copied;
    let b = IoBuf::copy_from(b"12345");
    assert_eq!(stats::snapshot().bytes_copied, before + 5);
    let chain = Chain::single(b);
    let _ = chain.copy_to_vec();
    assert_eq!(stats::snapshot().bytes_copied, before + 10);
    let mut cur = chain.cursor();
    let _ = cur.read_vec(5);
    assert_eq!(stats::snapshot().bytes_copied, before + 15);
    // Descriptor moves are free.
    let clone = chain.clone();
    let mut c2 = clone.clone();
    let _ = c2.split_to(2);
    assert_eq!(stats::snapshot().bytes_copied, before + 15);
}

#[test]
fn compact_releases_pinned_regions() {
    // Many 1-byte views over pool-sized regions: heavily pinned.
    let mut chain: Chain<IoBuf> = Chain::new();
    for i in 0..8u8 {
        let mut b = MutIoBuf::with_capacity(16);
        b.append(1)[0] = i;
        chain.push_back(b.freeze());
    }
    assert_eq!(chain.len(), 8);
    assert!(chain.pinned_bytes() >= 8 * pool::SMALL_CAPACITY);
    chain.compact();
    assert_eq!(chain.len(), 8);
    assert_eq!(chain.segment_count(), 1);
    assert_eq!(chain.pinned_bytes(), 16, "the smallest value class");
    assert_eq!(chain.copy_to_vec(), &[0, 1, 2, 3, 4, 5, 6, 7]);
    // Already-compact chains are left untouched (no copy, no alloc).
    let before = stats::snapshot();
    chain.compact();
    assert_eq!(stats::snapshot(), before);
}

#[test]
fn prewarm_fills_local_list() {
    let free0 = pool::local_free(SizeClass::SMALL);
    pool::prewarm(4);
    assert_eq!(pool::local_free(SizeClass::SMALL), free0 + 4);
    // Use them up so other tests see a predictable pool.
    let bufs: Vec<MutIoBuf> = (0..4).map(|_| MutIoBuf::with_capacity(32)).collect();
    drop(bufs);
}

fn live_regions() -> isize {
    super::region::LIVE_REGIONS.with(std::cell::Cell::get)
}

#[test]
fn last_drop_on_another_machine_lands_in_the_home_cores_mailbox() {
    use crate::runtime;
    let home = test_runtime(2);
    let away = test_runtime(1);
    // Acquired on home core 1: that is where it must come back to.
    let (buf, clone) = {
        let _g = runtime::enter(Arc::clone(&home), CoreId(1));
        let b = MutIoBuf::with_capacity(64).freeze();
        let c = b.clone();
        (b, c)
    };
    let home_root = home
        .ebbs()
        .root::<pool::PoolEbb>(crate::ebb::SystemEbb::BufferPool.id())
        .expect("home pool root");
    {
        let _g = runtime::enter(Arc::clone(&away), CoreId(0));
        drop(buf);
        assert_eq!(home_root.mailbox_len(SizeClass::SMALL), 0, "a clone lives");
        assert_eq!(stats::snapshot().pool_returns, 0);
        drop(clone);
        assert_eq!(
            stats::snapshot().pool_returns,
            1,
            "counted where it was freed"
        );
        assert_eq!(
            pool::local_free(SizeClass::SMALL),
            0,
            "and never enters the freeing pool"
        );
    }
    assert_eq!(home_root.mailbox_len(SizeClass::SMALL), 1);
    // Core 0 of the home machine does not see it; core 1's next dry
    // acquire drains its own mailbox instead of allocating.
    {
        let _g = runtime::enter(Arc::clone(&home), CoreId(0));
        assert_eq!(pool::local_free(SizeClass::SMALL), 0);
    }
    let _g = runtime::enter(Arc::clone(&home), CoreId(1));
    let allocs0 = stats::snapshot().bufs_allocated;
    let again = MutIoBuf::with_capacity(64);
    assert_eq!(stats::snapshot().bufs_allocated, allocs0);
    assert_eq!(stats::snapshot().class(SizeClass::SMALL).depot_out, 1);
    assert_eq!(home_root.mailbox_len(SizeClass::SMALL), 0);
    drop(again);
}

#[test]
fn a_region_that_outlives_its_home_pool_is_freed() {
    use crate::runtime;
    let live0 = live_regions();
    let home = test_runtime(1);
    let away = test_runtime(1);
    let buf = {
        let _g = runtime::enter(Arc::clone(&home), CoreId(0));
        let mut keep = MutIoBuf::with_capacity(64);
        keep.append_slice(b"live");
        let keep = keep.freeze();
        // A second region, parked on the home list when the pool
        // goes: the list frees it.
        drop(MutIoBuf::with_capacity(64));
        keep
    };
    assert_eq!(live_regions(), live0 + 2);
    let home_root = Arc::downgrade(
        &home
            .ebbs()
            .root::<pool::PoolEbb>(crate::ebb::SystemEbb::BufferPool.id())
            .expect("home pool root"),
    );
    drop(home);
    assert!(
        home_root.upgrade().is_none(),
        "regions hold the pool weakly"
    );
    assert_eq!(live_regions(), live0 + 1, "the parked region went with it");
    assert_eq!(buf.bytes(), b"live", "the live one is still readable");
    let _g = runtime::enter(Arc::clone(&away), CoreId(0));
    drop(buf);
    assert_eq!(live_regions(), live0, "freed, not leaked or mailed nowhere");
    assert_eq!(
        pool::local_free(SizeClass::SMALL),
        0,
        "and not adopted by the freeing pool"
    );
    assert_eq!(stats::snapshot().class(SizeClass::SMALL).depot_in, 0);
}

#[test]
fn a_slice_of_a_slice_holds_one_reference_each() {
    let returns0 = stats::snapshot().pool_returns;
    let mut b = MutIoBuf::with_capacity(16);
    b.append_slice(b"0123456789abcdef");
    let whole = b.freeze();
    let mid = whole.slice(4, 8);
    let inner = mid.slice(2, 4);
    assert_eq!(whole.ref_count(), 3);
    assert_eq!(inner.bytes(), b"6789");
    drop(mid);
    assert_eq!(
        whole.ref_count(),
        2,
        "the inner slice does not lean on the outer"
    );
    drop(whole);
    assert_eq!(inner.ref_count(), 1);
    assert_eq!(inner.bytes(), b"6789");
    assert_eq!(inner.region_len(), pool::SMALL_CAPACITY);
    assert_eq!(stats::snapshot().pool_returns, returns0);
    drop(inner);
    assert_eq!(stats::snapshot().pool_returns, returns0 + 1);
}

#[test]
fn wrapped_and_oversize_regions_never_enter_a_pool() {
    let live0 = live_regions();
    let free0 = SizeClass::ALL.map(pool::local_free);
    let returns0 = stats::snapshot().pool_returns;
    let wrapped = MutIoBuf::from_vec(vec![7u8; pool::SMALL_CAPACITY]).freeze();
    let copied = IoBuf::copy_from(&[7u8; 100]);
    let oversize = MutIoBuf::with_capacity(pool::LARGE_CAPACITY + 1).freeze();
    let empty = IoBuf::copy_from(&[]);
    assert_eq!(
        wrapped.region_len(),
        pool::SMALL_CAPACITY,
        "pool-sized, not pooled"
    );
    assert_eq!(copied.region_len(), 100);
    assert_eq!(oversize.region_len(), pool::LARGE_CAPACITY + 1);
    assert_eq!(
        (empty.len(), empty.region_len(), empty.ref_count()),
        (0, 0, 1)
    );
    assert_eq!(live_regions(), live0 + 4);
    drop((wrapped, copied, oversize, empty));
    assert_eq!(live_regions(), live0, "freed on last drop");
    assert_eq!(SizeClass::ALL.map(pool::local_free), free0);
    assert_eq!(stats::snapshot().pool_returns, returns0);
}

/// A chain over `pattern`, cut at `cuts` (ascending offsets).
fn cut_chain(pattern: &IoBuf, cuts: &[usize]) -> Chain<IoBuf> {
    let mut chain = Chain::new();
    let mut from = 0;
    for &to in cuts.iter().chain([&pattern.len()]) {
        chain.push_back(pattern.slice(from, to - from));
        from = to;
    }
    chain
}

/// Every kind of read, from `offset` on; what each returned.
fn read_script(chain: &Chain<IoBuf>, offset: usize) -> Vec<Option<u64>> {
    let mut out = Vec::new();
    let mut cur = chain.cursor();
    out.push(cur.skip(offset).map(|()| 0));
    out.push(cur.read_u64_be());
    out.push(cur.read_u8().map(u64::from));
    out.push(cur.read_u32_be().map(u64::from));
    out.push(cur.read_u16_be().map(u64::from));
    let mut odd = [0u8; 5];
    out.push(
        cur.read_exact(&mut odd)
            .map(|()| odd.iter().fold(0, |acc, &b| acc << 8 | u64::from(b))),
    );
    out.push(cur.skip(3).map(|()| 0));
    out.push(cur.read_u32_be().map(u64::from));
    out.push(Some(cur.consumed() as u64));
    out.push(Some(cur.remaining() as u64));
    out
}

#[test]
fn straddling_reads_equal_the_one_segment_result() {
    let pattern: Vec<u8> = (0..64u8).map(|i| i.wrapping_mul(37) ^ 0xa5).collect();
    let pattern = IoBuf::copy_from(&pattern);
    let one = Chain::single(pattern.clone());
    // Miri walks a sample of the offsets; the native run, all.
    let step = if cfg!(miri) { 7 } else { 1 };
    for offset in (0..=64).step_by(step) {
        let want = read_script(&one, offset);
        for a in (1..64).step_by(step) {
            assert_eq!(
                read_script(&cut_chain(&pattern, &[a]), offset),
                want,
                "cut at {a}, offset {offset}"
            );
            // A middle segment narrower than the widest read: the
            // read spans all three.
            for width in 0..8 {
                let b = (a + width).min(64);
                assert_eq!(
                    read_script(&cut_chain(&pattern, &[a, b]), offset),
                    want,
                    "cuts at {a} and {b}, offset {offset}"
                );
            }
        }
    }
    // The zero-copy carve crosses the same boundaries.
    let three = cut_chain(&pattern, &[10, 13]);
    let mut cur = three.cursor();
    cur.skip(9).unwrap();
    let carved = cur.read_exact_zero_copy(10).expect("enough bytes");
    assert_eq!(carved.segment_count(), 3);
    assert_eq!(carved.copy_to_vec(), pattern.bytes()[9..19]);
    assert_eq!(cur.read_u8(), Some(pattern.bytes()[19]));
}

#[test]
fn chain_matches_a_deque_model() {
    use std::collections::VecDeque;
    let base: Vec<u8> = (0..=255u8).collect();
    let base = IoBuf::copy_from(&base);
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut rng = move |n: usize| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x >> 11) as usize % n
    };
    let seg = |rng: &mut dyn FnMut(usize) -> usize| {
        let start = rng(240);
        base.slice(start, 1 + rng(15))
    };
    let mut chain: Chain<IoBuf> = Chain::new();
    let mut model: VecDeque<Vec<u8>> = VecDeque::new();
    let model_len = |m: &VecDeque<Vec<u8>>| m.iter().map(Vec::len).sum::<usize>();
    // Drops `n` bytes off the model's front, as `advance` does.
    let model_advance = |m: &mut VecDeque<Vec<u8>>, mut n: usize| {
        while n > 0 {
            let first = m.front_mut().expect("n <= len");
            if n >= first.len() {
                n -= first.len();
                m.pop_front();
            } else {
                first.drain(..n);
                n = 0;
            }
        }
    };
    let (mut max_segs, mut returns_to_inline) = (0, 0);
    let ops = if cfg!(miri) { 400 } else { 20_000 };
    for i in 0..ops {
        // Alternate growing and draining phases so the chain
        // crosses the inline capacity in both directions.
        let growing = (i / 40) % 2 == 0;
        let before = chain.segment_count();
        match (rng(10), growing) {
            (0..=3, true) | (0, false) => {
                let s = seg(&mut rng);
                model.push_back(s.bytes().to_vec());
                chain.push_back(s);
            }
            (4..=5, true) | (1, false) => {
                let s = seg(&mut rng);
                model.push_front(s.bytes().to_vec());
                chain.push_front(s);
            }
            (6, true) | (2, false) => {
                let mut other = Chain::new();
                for _ in 0..rng(7) {
                    let s = seg(&mut rng);
                    model.push_back(s.bytes().to_vec());
                    other.push_back(s);
                }
                chain.append_chain(other);
            }
            (7, _) => {
                let copy = chain.clone();
                assert_eq!(copy.len(), chain.len());
                assert!(copy.iter().map(Buf::bytes).eq(chain.iter().map(Buf::bytes)));
                if rng(2) == 0 {
                    chain = copy; // the original drops
                }
            }
            (8, true) | (3..=6, false) => {
                let n = rng(chain.len() + 1);
                chain.advance(n);
                model_advance(&mut model, n);
            }
            _ => {
                let n = rng(chain.len() + 1);
                let head = chain.split_to(n);
                let want: Vec<u8> = model.iter().flatten().take(n).copied().collect();
                assert_eq!(head.len(), n);
                assert_eq!(head.copy_to_vec(), want);
                model_advance(&mut model, n);
            }
        }
        assert_eq!(chain.len(), model_len(&model));
        assert_eq!(chain.is_empty(), model_len(&model) == 0);
        assert_eq!(chain.segment_count(), model.len());
        assert!(chain
            .iter()
            .map(Buf::bytes)
            .eq(model.iter().map(Vec::as_slice)));
        if let Some(last) = model.len().checked_sub(1) {
            assert_eq!(chain.seg(last).bytes(), model[last]);
        }
        max_segs = max_segs.max(chain.segment_count());
        if before > INLINE_SEGS && chain.segment_count() <= INLINE_SEGS {
            returns_to_inline += 1;
        }
    }
    assert!(
        max_segs > 2 * INLINE_SEGS,
        "the walk must leave the inline slots"
    );
    assert!(returns_to_inline > 2, "and come back");
    drop(chain);
    assert_eq!(base.ref_count(), 1, "every segment dropped exactly once");
}

#[test]
fn a_chain_keeps_the_heap_slots_it_grew() {
    let seg = IoBuf::copy_from(b"x");
    let mut chain: Chain<IoBuf> = Chain::new();
    assert_eq!(chain.slot_capacity(), INLINE_SEGS);
    assert_eq!(
        (
            std::mem::size_of::<IoBuf>(),
            std::mem::size_of::<Chain<IoBuf>>()
        ),
        (24, 120),
        "moves stay inline stores"
    );
    for _ in 0..INLINE_SEGS + 1 {
        chain.push_back(seg.clone());
    }
    let cap = chain.slot_capacity();
    assert!(cap > INLINE_SEGS, "moved to the heap array");
    // Queue traffic under the grown capacity reuses the slots.
    for _ in 0..10 * cap {
        chain.push_back(seg.clone());
        chain.advance(1);
    }
    chain.advance(chain.len());
    assert_eq!((chain.slot_capacity(), chain.segment_count()), (cap, 0));
    // An emptied chain takes over a grown one rather than copying.
    let mut fresh: Chain<IoBuf> = Chain::new();
    fresh.append_chain(std::mem::take(&mut chain));
    assert_eq!(fresh.slot_capacity(), cap);
    drop(fresh);
    assert_eq!(seg.ref_count(), 1);
}

/// `n` clones of `seg` pushed one by one.
fn chain_of(seg: &IoBuf, n: usize) -> Chain<IoBuf> {
    let mut chain = Chain::new();
    for _ in 0..n {
        chain.push_back(seg.clone());
    }
    chain
}

/// Runs `f` on a new thread, whose spine free list starts empty, and
/// returns once the thread has exited (its thread-locals dropped: the
/// scope alone waits only for `f`).
fn on_a_fresh_thread(f: impl FnOnce() + Send) {
    std::thread::scope(|s| {
        if let Err(panic) = s.spawn(f).join() {
            std::panic::resume_unwind(panic);
        }
    });
}

#[test]
fn a_dropped_spine_serves_the_next_spill() {
    let seg = IoBuf::copy_from(b"x");
    on_a_fresh_thread(|| {
        let spilled = chain_of(&seg, INLINE_SEGS + 1);
        let before = test_alloc::thread_calls();
        drop(spilled);
        let again = chain_of(&seg, INLINE_SEGS + 1);
        assert_eq!(test_alloc::thread_calls(), before, "drop + spill");
        assert!(again.slot_capacity() > INLINE_SEGS);
    });
    assert_eq!(seg.ref_count(), 1);
}

#[test]
fn a_spine_only_serves_its_exact_layout() {
    let seg = IoBuf::copy_from(b"x");
    on_a_fresh_thread(|| {
        let muts: Vec<MutIoBuf> = (0..=INLINE_SEGS)
            .map(|_| MutIoBuf::from_vec(vec![]))
            .collect();
        assert_ne!(
            std::mem::size_of::<MutIoBuf>(),
            std::mem::size_of::<IoBuf>()
        );
        drop(chain_of(&seg, INLINE_SEGS + 1));
        let before = test_alloc::thread_calls();
        let mut other: Chain<MutIoBuf> = Chain::new();
        for m in muts {
            other.push_back(m);
        }
        assert_eq!(
            test_alloc::thread_calls() - before,
            1,
            "the cached IoBuf spine does not fit MutIoBuf slots"
        );
        let _same = chain_of(&seg, INLINE_SEGS + 1);
        assert_eq!(
            test_alloc::thread_calls() - before,
            1,
            "and is still there for the next IoBuf chain"
        );
    });
}

#[test]
fn the_spine_free_list_is_bounded_in_count_and_size() {
    use super::chain::{SPINE_CACHE, SPINE_CACHE_MAX_BYTES};
    let seg = IoBuf::copy_from(b"x");
    on_a_fresh_thread(|| {
        let mut chains: Vec<Chain<IoBuf>> = (0..2 * SPINE_CACHE)
            .map(|_| chain_of(&seg, INLINE_SEGS + 1))
            .collect();
        chains.clear();
        let before = test_alloc::thread_calls();
        chains.extend((0..2 * SPINE_CACHE).map(|_| chain_of(&seg, INLINE_SEGS + 1)));
        assert_eq!(
            test_alloc::thread_calls() - before,
            SPINE_CACHE as u64,
            "of 2 x {SPINE_CACHE} spines dropped, {SPINE_CACHE} were kept"
        );
    });
    on_a_fresh_thread(|| {
        // Grown slot by slot to 256 slots: the five smaller spines it
        // outgrew (8 to 128 slots) are kept; the last, over the byte
        // cap, is not.
        let big = 256;
        assert!(big * std::mem::size_of::<IoBuf>() > SPINE_CACHE_MAX_BYTES);
        drop(chain_of(&seg, big));
        let before = test_alloc::thread_calls();
        drop(chain_of(&seg, big));
        assert_eq!(test_alloc::thread_calls() - before, 1);
    });
    assert_eq!(seg.ref_count(), 1);
}

#[test]
fn an_exiting_thread_frees_the_spines_it_kept() {
    use super::chain::{SPINE_CACHE, SPINE_CACHE_MAX_BYTES};
    // `live_bytes` counts every thread of the process, and the harness
    // runs tests side by side, so the measurement runs in a child
    // process of this test binary that runs this test alone. (Under
    // Miri, which cannot spawn one, its leak check does the job.)
    const ALONE: &str = "EBBRT_TEST_ALONE";
    const NAME: &str = "iobuf::tests::an_exiting_thread_frees_the_spines_it_kept";
    if std::env::var_os(ALONE).is_none() && !cfg!(miri) {
        let out = std::process::Command::new(std::env::current_exe().expect("test binary"))
            .args(["--exact", NAME, "--test-threads=1"])
            .env(ALONE, "1")
            .output()
            .expect("the test binary runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success() && stdout.contains("1 passed"),
            "{stdout}{}",
            String::from_utf8_lossy(&out.stderr)
        );
        return;
    }
    // 100 segments: cloning moves them straight into one 128-slot
    // spine, the largest the free list keeps.
    let source = chain_of(&IoBuf::copy_from(b"x"), 100);
    let spine = 128 * std::mem::size_of::<IoBuf>();
    assert!(spine <= SPINE_CACHE_MAX_BYTES);
    let fill_and_exit = || {
        on_a_fresh_thread(|| {
            drop((0..SPINE_CACHE).map(|_| source.clone()).collect::<Vec<_>>());
            let before = test_alloc::thread_calls();
            drop(source.clone());
            assert_eq!(test_alloc::thread_calls(), before, "the spines were kept");
        })
    };
    fill_and_exit(); // whatever a process's first thread sets up for good
    let before = test_alloc::live_bytes();
    (0..4).for_each(|_| fill_and_exit());
    let grew = test_alloc::live_bytes().saturating_sub(before);
    assert!(
        cfg!(miri) || grew < (SPINE_CACHE * spine) as u64,
        "live bytes grew {grew} across four threads that kept {SPINE_CACHE} spines of {spine} bytes each"
    );
}

#[test]
fn a_split_off_front_takes_no_header_in_place_while_its_tail_is_mutable() {
    let mut tail = MutIoBuf::with_headroom(64, 16);
    tail.append_slice(b"front");
    let mut front = Chain::single(tail.split_frozen());
    assert!(
        front.prepend_in_place(4).is_none(),
        "the mutable tail holds the region too"
    );
    tail.append_slice(b"tail");
    assert_eq!(tail.bytes(), b"tail");
    drop(tail);
    front
        .prepend_in_place(4)
        .expect("the only descriptor now, 16 bytes of room")
        .copy_from_slice(b"hdr:");
    assert_eq!(front.copy_to_vec(), b"hdr:front");
}

#[test]
fn views_made_and_dropped_on_many_threads_keep_the_count() {
    const THREADS: usize = 4;
    let rounds = if cfg!(miri) { 200 } else { 4_000 };
    let pattern: Vec<u8> = (0..=255u8).collect();
    // A private two-core machine, as `native.rs` would run it: the
    // buffers are made on core 0's thread, and core 1's frees them.
    let rt = test_runtime(2);
    let bufs = {
        let _g = crate::runtime::enter(Arc::clone(&rt), CoreId(0));
        let mut pooled = MutIoBuf::with_capacity(256);
        pooled.append_slice(&pattern);
        assert!(pooled.is_pooled());
        [
            ("exact", IoBuf::copy_from(&pattern)),
            ("boxed", MutIoBuf::from_vec(pattern.clone()).freeze()),
            ("pooled", pooled.freeze()),
        ]
    };
    for (kind, buf) in bufs {
        // Every thread starts at once and works from one shared
        // descriptor, so clones and drops of the same count overlap.
        let start = std::sync::Barrier::new(THREADS);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (buf, start, pattern) = (&buf, &start, &pattern);
                s.spawn(move || {
                    start.wait();
                    let mut held = Vec::new();
                    for i in 0..rounds {
                        let at = (i * 7 + t) % 200;
                        let view = buf.clone().slice(at, 56);
                        assert_eq!(view.bytes(), &pattern[at..at + 56]);
                        // A few views outlive their round, so a drop
                        // here meets a clone there.
                        held.push(view.slice(1, 8));
                        if held.len() == 8 {
                            held.clear();
                        }
                    }
                });
            }
        });
        assert_eq!(buf.ref_count(), 1, "{kind}: every view dropped once");
        assert_eq!(buf.bytes(), pattern, "{kind}");
        // The last drop lands on a thread that did not allocate the
        // region.
        let rt = Arc::clone(&rt);
        std::thread::spawn(move || {
            let _g = crate::runtime::enter(rt, CoreId(1));
            drop(buf);
        })
        .join()
        .expect("last drop");
    }
    assert_eq!(
        pool::runtime_free_counts(&rt, SizeClass::SMALL),
        (1, 0),
        "the pooled region recycled into the freeing core's list"
    );
    assert_eq!(stats::runtime_snapshot(&rt).pool_returns, 1);
}
