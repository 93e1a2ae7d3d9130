use super::*;
use crate::cpu::CoreId;
use crate::native::NativeMachine;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// A batch that does not divide the watermark, so an off-by-one in
/// either shows.
const WATERMARK: usize = 8;
const BATCH: usize = 3;

fn fresh() -> ObjCache<u32> {
    ObjCache::new(WATERMARK, BATCH, 0)
}

fn no_restock(_: &mut Vec<u32>) {}

/// Everything left on `cache`'s list, newest first (taken against an
/// empty depot).
fn drain(cache: &ObjCache<u32>) -> Vec<u32> {
    let empty = Depot::default();
    std::iter::from_fn(|| cache.take(&empty, no_restock).map(|(obj, _)| obj)).collect()
}

#[test]
fn a_freed_object_is_reused_lifo() {
    let (cache, depot) = (fresh(), Depot::default());
    cache.give(1, &depot);
    cache.give(2, &depot);
    assert_eq!(cache.take(&depot, no_restock), Some((2, 0)));
    cache.give(3, &depot);
    assert_eq!(cache.take(&depot, no_restock), Some((3, 0)));
    assert_eq!(cache.take(&depot, no_restock), Some((1, 0)));
    assert!(cache.is_empty() && depot.is_empty());
}

#[test]
fn at_the_watermark_exactly_the_coldest_batch_is_flushed() {
    let (cache, depot) = (fresh(), Depot::default());
    // A miss is local demand: the full watermark applies.
    assert_eq!(cache.take(&depot, no_restock), None);
    for i in 0..WATERMARK as u32 - 1 {
        assert_eq!(cache.give(i, &depot), 0, "below the watermark");
    }
    assert_eq!(cache.give(WATERMARK as u32 - 1, &depot), BATCH);
    assert_eq!(depot.len(), BATCH);
    // The depot holds the oldest objects; the newest stay local.
    let other = fresh();
    let (newest, moved) = other.take(&depot, no_restock).expect("refill");
    assert_eq!((newest, moved), (BATCH as u32 - 1, BATCH));
    let mut flushed = drain(&other);
    flushed.push(newest);
    flushed.sort_unstable();
    assert_eq!(flushed, (0..BATCH as u32).collect::<Vec<_>>());
    let kept: Vec<u32> = (BATCH as u32..WATERMARK as u32).rev().collect();
    assert_eq!(drain(&cache), kept);
}

#[test]
fn a_dry_take_refills_exactly_the_newest_batch() {
    let (giver, depot) = (fresh(), Depot::default());
    for i in 0..40 {
        giver.give(i, &depot);
    }
    // The giver flushed its coldest objects first: the depot holds
    // 0..parked, the most recently flushed on top.
    let parked = depot.len() as u32;
    assert!(parked as usize >= 3 * BATCH);
    let taker = fresh();
    let restocked = std::cell::Cell::new(false);
    let (obj, moved) = taker.take(&depot, |_| restocked.set(true)).expect("refill");
    assert!(restocked.get(), "a dry list is offered to `restock` first");
    assert_eq!((obj, moved), (parked - 1, BATCH));
    assert_eq!(depot.len(), parked as usize - BATCH);
    assert_eq!(taker.len(), BATCH - 1);
    let rest: Vec<u32> = (parked - BATCH as u32..parked - 1).rev().collect();
    assert_eq!(drain(&taker), rest);
}

#[test]
fn a_list_that_has_only_grown_flushes_at_half_the_watermark() {
    let (cache, depot) = (fresh(), Depot::default());
    let half = WATERMARK / 2;
    for i in 0..half as u32 - 1 {
        assert_eq!(cache.give(i, &depot), 0);
    }
    assert_eq!(cache.give(half as u32 - 1, &depot), BATCH);
    // A take is local demand: the full watermark is back.
    assert!(cache.take(&depot, no_restock).is_some());
    assert!(cache.is_empty());
    for i in 0..WATERMARK as u32 - 1 {
        assert_eq!(cache.give(i, &depot), 0, "full watermark after a take");
    }
    assert_eq!(cache.give(99, &depot), BATCH);
    // The flush is a balance: the list has only grown since, so the
    // watermark is halved again.
    assert_eq!(cache.len(), WATERMARK - BATCH);
    assert_eq!(cache.give(100, &depot), BATCH);
}

/// Core 0 only gives and core 1 only takes, on real threads, through
/// one depot. At quiesce every object has come back exactly once, and
/// what crossed is exactly the giver's oldest objects: its cold end.
#[test]
fn a_giving_core_and_a_taking_core_meet_through_one_depot() {
    const OBJECTS: u32 = 20_000;
    let machine = NativeMachine::boot(2);
    let depot = Arc::new(Depot::default());
    let given = Arc::new(AtomicBool::new(false));
    let (kept_tx, kept_rx) = mpsc::channel();
    let (took_tx, took_rx) = mpsc::channel();
    let (d, g) = (Arc::clone(&depot), Arc::clone(&given));
    machine.spawn(CoreId(0), move || {
        let cache = fresh();
        for i in 0..OBJECTS {
            cache.give(i, &d);
        }
        g.store(true, Ordering::Release);
        kept_tx.send(drain(&cache)).unwrap();
    });
    let (d, g) = (Arc::clone(&depot), Arc::clone(&given));
    machine.spawn(CoreId(1), move || {
        let cache = fresh();
        let mut took = Vec::new();
        loop {
            // Read before the take: once every give is done, a dry
            // take means the depot is drained.
            let done = g.load(Ordering::Acquire);
            match cache.take(&d, no_restock) {
                Some((obj, _)) => took.push(obj),
                None if done => break,
                None => std::thread::yield_now(),
            }
        }
        took_tx.send(took).unwrap();
    });
    let wait = Duration::from_secs(30);
    let kept = kept_rx.recv_timeout(wait).expect("core 0 gave");
    let took = took_rx.recv_timeout(wait).expect("core 1 drained");
    machine.shutdown();
    assert!(depot.is_empty());
    assert_eq!(
        kept.len() + took.len(),
        OBJECTS as usize,
        "every object comes back exactly once"
    );
    let sorted = |mut v: Vec<u32>| {
        v.sort_unstable();
        v
    };
    let crossed = took.len() as u32;
    assert!(crossed > 0, "core 0 flushed to the depot");
    assert_eq!(
        sorted(took),
        (0..crossed).collect::<Vec<_>>(),
        "core 1 took the giver's coldest objects, each once"
    );
    assert_eq!(
        sorted(kept),
        (crossed..OBJECTS).collect::<Vec<_>>(),
        "core 0 kept its newest objects, each once"
    );
}
