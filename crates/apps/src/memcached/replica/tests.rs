use super::*;
use ebbrt_core::rcu::RcuDomain;

const CAP: u64 = DELTA_LOG_CAP as u64;

/// Write `i`'s key: 1 to 37 bytes, the same key again every 65 writes.
fn key(i: u64) -> Vec<u8> {
    vec![b'a' + (i % 5) as u8; 1 + (i % 13) as usize * 3]
}

fn value(i: u64) -> Vec<u8> {
    format!("value-{i}").into_bytes()
}

/// `(version, key, value)` of writes `versions`, as the log should
/// hold them.
fn expected(versions: std::ops::RangeInclusive<u64>) -> Vec<(u64, Vec<u8>, Vec<u8>)> {
    versions.map(|i| (i, key(i), value(i))).collect()
}

fn write(root: &ShardRoot, i: u64) {
    let v = Chain::single(IoBuf::copy_from(&value(i)));
    assert!(root.apply_versioned(&key(i), i, v));
}

fn delta(root: &ShardRoot, have: u64) -> Vec<(u64, Vec<u8>, Vec<u8>)> {
    let (entries, done) = root
        .delta_since(have, usize::MAX)
        .expect("the log covers it");
    assert!(done);
    entries
        .into_iter()
        .map(|(version, k, v)| (version, k, v.copy_to_vec()))
        .collect()
}

#[test]
fn the_delta_log_is_a_ring_of_the_last_writes() {
    let _core = ebbrt_core::cpu::bind(CoreId(0));
    let root = ShardRoot::new(Store::new(Arc::new(RcuDomain::new(1))));
    for i in 1..=3 * CAP {
        write(&root, i);
    }
    // Exactly the last DELTA_LOG_CAP writes, oldest first; one more
    // back is gone, so a puller missing it gets a snapshot instead.
    assert_eq!(delta(&root, 2 * CAP), expected(2 * CAP + 1..=3 * CAP));
    assert!(root.delta_since(2 * CAP - 1, usize::MAX).is_none());

    // A page taken now, then a whole lap of the ring over its entries:
    // the page still reads the keys it was taken with.
    let req = PullReq {
        have: 2 * CAP,
        skip: 0,
        limit: CAP as u32,
        ring: (1, 1),
        range: 0,
    };
    let page = root.pull_page(&req);
    for i in 3 * CAP + 1..=4 * CAP {
        write(&root, i);
    }
    let mut seen = Vec::new();
    let (header, n) = shardop::decode_page(&page, |version, k, v| {
        seen.push((
            version,
            k.contiguous().into_owned(),
            v.contiguous().into_owned(),
        ))
    })
    .expect("a page");
    assert!(header.delta && header.done);
    assert_eq!(u64::from(n), CAP);
    assert_eq!(seen, expected(2 * CAP + 1..=3 * CAP));
    assert_eq!(delta(&root, 3 * CAP), expected(3 * CAP + 1..=4 * CAP));
}
