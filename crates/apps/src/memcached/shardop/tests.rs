use super::super::{ShardRoot, Store, StoreShardEbb};
use super::*;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use ebbrt_core::cpu::CoreId;
use ebbrt_core::ebb::DistributedEbb;
use proptest::prelude::*;

/// `bytes` as a received chain, cut in two at `cut` (reads straddle).
fn chain(bytes: &[u8], cut: usize) -> Chain<IoBuf> {
    let (a, b) = bytes.split_at(cut % (bytes.len() + 1));
    let mut c = Chain::single(IoBuf::copy_from(a));
    c.push_back(IoBuf::copy_from(b));
    c
}

fn val(bytes: &[u8]) -> Chain<IoBuf> {
    Chain::single(IoBuf::copy_from(bytes))
}

const PULL: PullReq = PullReq {
    have: 7,
    skip: 32,
    limit: 16,
    ring: (3, 16),
    range: 2,
};

/// One well-formed frame per op, in opcode order.
fn frames() -> [Chain<IoBuf>; 9] {
    let eps = [EbbId(70), EbbId(71)];
    [
        encode_get(b"key"),
        encode_set(b"key", &val(b"value")),
        encode_repl(9, b"key", &val(b"value")),
        encode_status(),
        encode_pull(&PULL),
        encode_rejoin(EbbId(77)),
        encode_add_peer(EbbId(78)),
        encode_set_forward(&HashRing::new(3, 16), 2, &eps),
        encode_clear_forward(),
    ]
}

fn bytes(f: &Field<'_>) -> Vec<u8> {
    f.contiguous().into_owned()
}

#[test]
fn every_op_round_trips() {
    let [get, set, repl, status, pull, rejoin, add_peer, set_forward, clear_forward] = frames();
    let op = |frame| ShardOp::decode(frame).expect("well-formed");
    let is = |field: &Field<'_>, want: &[u8]| bytes(field) == want;
    assert!(matches!(op(&get), ShardOp::Get(k) if is(&k, b"key")));
    assert!(matches!(op(&set), ShardOp::Set(k, v) if is(&k, b"key") && is(&v, b"value")));
    assert!(matches!(op(&repl), ShardOp::Repl(9, k, v) if is(&k, b"key") && is(&v, b"value")));
    assert!(matches!(op(&status), ShardOp::Status));
    assert!(matches!(op(&pull), ShardOp::Pull(req) if req == PULL));
    assert!(matches!(op(&rejoin), ShardOp::Rejoin(EbbId(77))));
    assert!(matches!(op(&add_peer), ShardOp::AddPeer(EbbId(78))));
    assert!(matches!(op(&set_forward), ShardOp::SetForward(ring, 2, eps)
        if (ring.nranges(), ring.vnodes()) == (3, 16) && eps == [EbbId(70), EbbId(71)]));
    assert!(matches!(op(&clear_forward), ShardOp::ClearForward));
}

#[test]
fn every_reply_form_round_trips() {
    let stored = val(b"stored");
    let hit = decode_value(&reply_value(Some(&stored))).expect("a hit");
    assert_eq!(hit.expect("with its value").copy_to_vec(), b"stored");
    assert!(decode_value(&reply_value(None)).expect("a miss").is_none());
    assert_eq!(decode_ack(&reply_ack(41)), Some(41));
    assert_eq!(decode_status(&reply_status(41, 1)), Some((41, 1)));
    // A reply of one form is not mistaken for a longer one, and an
    // error reads as no form at all.
    assert_eq!(decode_ack(&reply_ok()), None);
    assert_eq!(decode_status(&reply_ack(41)), None);
    let err = reply_err();
    assert!(decode_value(&err).is_none() && decode_ack(&err).is_none());
    assert!(decode_status(&err).is_none() && read_page(&err).0.is_none());
}

/// `decode_page`'s verdict and the entries it handed over.
type Read = (Option<(PageHeader, u32)>, Vec<(u64, Vec<u8>, Vec<u8>)>);

fn read_page(wire: &Chain<IoBuf>) -> Read {
    let mut seen = Vec::new();
    let verdict = decode_page(wire, |v, k, val| seen.push((v, bytes(&k), bytes(&val))));
    (verdict, seen)
}

#[test]
fn delta_and_snapshot_pages_round_trip() {
    // One value small enough to be copied into the page, one linked.
    let (small, large) = (val(b"v1"), val(&[0xC5; 600]));
    let entries = [(5u64, &b"k1"[..], &small), (6, &b"k2"[..], &large)];
    let want: Vec<_> = entries
        .iter()
        .map(|(v, k, val)| (*v, k.to_vec(), val.copy_to_vec()))
        .collect();
    for delta in [true, false] {
        let header = PageHeader {
            applied: 12,
            delta,
            done: delta,
            cover: 6,
        };
        let wire = encode_page(header, entries.iter().copied());
        assert_eq!(read_page(&wire), (Some((header, 2)), want.clone()));
    }
}

/// The three counts a frame can carry size nothing by themselves.
#[test]
fn wire_counts_size_nothing() {
    // SET_FORWARD announcing more endpoints than its bytes hold.
    let mut lying = encode_set_forward(&HashRing::new(3, 16), 2, &[EbbId(70)]).copy_to_vec();
    lying[13..17].copy_from_slice(&u32::MAX.to_be_bytes());
    assert!(ShardOp::decode(&chain(&lying, 0)).is_none());
    // A ring shape nobody could build.
    for (nranges, vnodes) in [(0, 16), (3, 0), (u32::MAX, u32::MAX), (1 << 16, 2)] {
        let mut w = WireWriter::op(SHARD_OP_SET_FORWARD);
        w.u32(nranges).u32(vnodes).u32(0).u32(0);
        assert!(
            ShardOp::decode(&w.finish()).is_none(),
            "{nranges} x {vnodes}"
        );
    }
    // A page announcing more entries than follow: refused, after the
    // ones that are there.
    let v = val(b"v");
    let header = PageHeader {
        applied: 1,
        delta: true,
        done: true,
        cover: 1,
    };
    let mut page = encode_page(header, [(1u64, &b"k"[..], &v)].into_iter()).copy_to_vec();
    page[19..23].copy_from_slice(&u32::MAX.to_be_bytes());
    let (verdict, seen) = read_page(&chain(&page, 0));
    assert_eq!((verdict, seen.len()), (None, 1));
    // A PULL asking for u32::MAX entries gets what the source has: the
    // two keys past `skip`, or — from the log — nothing past `have`.
    with_root(|root| {
        for (skip, delta, n) in [(1, false, 2), (0, true, 0)] {
            let greedy = PullReq {
                have: u64::MAX,
                skip,
                limit: u32::MAX,
                ring: (1, 1),
                range: 0,
            };
            let reply = answer(root, encode_pull(&greedy)).expect("answered");
            let (verdict, seen) = read_page(&reply);
            let (h, announced) = verdict.expect("a page");
            assert_eq!((h.delta, announced, seen.len() as u32), (delta, n, n));
        }
    });
}

/// Runs `f` against a serving, peerless root that holds three keys, in
/// the context a machine's dispatch event provides.
fn with_root<R>(f: impl FnOnce(&Arc<ShardRoot>) -> R) -> R {
    let domain = Arc::new(ebbrt_core::rcu::RcuDomain::new(1));
    let _rg = domain.read_guard(CoreId(0));
    let _b = ebbrt_core::cpu::bind(CoreId(0));
    let root = ShardRoot::new(Store::new(Arc::clone(&domain)));
    for key in [&b"key"[..], b"k2", b"k3"] {
        root.apply_set(key, val(b"value"), |_| {});
    }
    f(&root)
}

/// What `root`'s rep answers `payload` with, if it answers before it
/// returns (a peerless root always does).
fn answer(root: &Arc<ShardRoot>, payload: Chain<IoBuf>) -> Option<Chain<IoBuf>> {
    let reply = Rc::new(RefCell::new(None));
    let r = Rc::clone(&reply);
    StoreShardEbb::local(Arc::clone(root)).handle_remote(payload, move |resp| {
        assert!(r.borrow_mut().replace(resp).is_none(), "answered twice")
    });
    reply.take()
}

/// No bytes panic a reader: a request decodes or it does not, and a
/// rep answers what does not decode with an error.
fn hostile(frame: &[u8], cut: usize) -> Result<(), TestCaseError> {
    let wire = chain(frame, cut);
    let decoded = ShardOp::decode(&wire);
    if let Some(ShardOp::SetForward(_, _, eps)) = &decoded {
        prop_assert!(eps.len() * 4 <= frame.len());
    }
    let decodes = decoded.is_some();
    drop(decoded);
    // The reply readers see the same bytes (a peer can answer anything).
    let _ = (decode_value(&wire), decode_ack(&wire), decode_status(&wire));
    prop_assert!(read_page(&wire).1.len() <= frame.len());
    let reply = with_root(|root| answer(root, wire)).map(|r| r.copy_to_vec());
    let reply = reply.ok_or_else(|| TestCaseError::fail("a peerless root answers at once"))?;
    prop_assert_eq!(
        decodes,
        reply != reply_err().copy_to_vec(),
        "reply {:?}",
        reply
    );
    Ok(())
}

proptest! {
    #[test]
    fn arbitrary_bytes_decode_or_are_refused(
        frame in prop::collection::vec(any::<u8>(), 0..96),
        op in 0u8..12,
        cut in any::<usize>(),
    ) {
        let mut frame = frame;
        if let Some(first) = frame.first_mut() {
            *first = op; // mostly a real opcode: reach the field readers
        }
        hostile(&frame, cut)?;
    }

    #[test]
    fn damaged_frames_decode_or_are_refused(
        pick in 0usize..9,
        keep in any::<usize>(),
        flips in prop::collection::vec((any::<usize>(), any::<u8>()), 0..4),
        cut in any::<usize>(),
    ) {
        let mut frame = frames()[pick].copy_to_vec();
        frame.truncate(keep % (frame.len() + 1));
        for (at, bits) in flips {
            if !frame.is_empty() {
                let at = at % frame.len();
                frame[at] ^= bits;
            }
        }
        hostile(&frame, cut)?;
    }
}

/// [`StoreShardEbb`] has no proxy flavor: a range is reached through an
/// explicit shipper, so dereferencing its id on a machine that holds no
/// replica of it is a wiring error — not a rep that answers every
/// request with an error.
#[test]
#[should_panic(expected = "Ebb miss on EbbId(70): no root registered")]
fn a_range_id_with_no_replica_here_is_a_wiring_panic() {
    use ebbrt_core::clock::ManualClock;
    use ebbrt_core::ebb::EbbRef;
    use ebbrt_core::runtime::{self, Runtime};
    let rt = Runtime::new(1, Arc::new(ManualClock::new()));
    let _g = runtime::enter(rt, CoreId(0));
    EbbRef::<StoreShardEbb>::from_id(EbbId(70)).with(|_| ());
}
