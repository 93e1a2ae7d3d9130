//! Figure 3's loop on the cache the product runs, checked rather than
//! timed: on a 2-core native machine, each core's thread makes no
//! allocator call once warm, and every object the cores made comes back
//! exactly once when the lists and the depot are drained.

use ebbrt_bench::fig3;

#[global_allocator]
static ALLOCATOR: test_alloc::CountingAlloc = test_alloc::CountingAlloc;

#[test]
fn the_per_core_cache_allocates_nothing_when_warm_and_loses_no_object() {
    let run = fig3::run_cache(2, 10_000, test_alloc::thread_calls);
    for (core, r) in run.cores.iter().enumerate() {
        assert_eq!(r.calls, 0, "core {core} called the allocator after warm-up");
    }
    assert!(
        run.made.iter().all(|&n| n >= fig3::PAIRS as u64),
        "every core makes one sample's objects: {:?}",
        run.made
    );
    let mut made: Vec<u64> = run
        .made
        .iter()
        .enumerate()
        .flat_map(|(core, &n)| (0..n).map(move |i| (core as u64) << 32 | i))
        .collect();
    let mut drained = run.drained;
    made.sort_unstable();
    drained.sort_unstable();
    assert_eq!(drained, made, "every object comes back exactly once");
}
