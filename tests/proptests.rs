//! Property-based tests over the core data-structure invariants listed
//! in DESIGN.md §5.

use proptest::prelude::*;
use std::sync::Arc;

use ebbrt_apps::memcached;
use ebbrt_core::cpu::CoreId;

use ebbrt_core::iobuf::{Buf, Chain, IoBuf, MutIoBuf};

/// `stream` cut into segments at the (sorted, deduped) `cuts`.
fn segments(stream: &[u8], cuts: &[usize]) -> Vec<Chain<IoBuf>> {
    let mut points: Vec<usize> = cuts.iter().map(|c| c % (stream.len() + 1)).collect();
    points.push(0);
    points.push(stream.len());
    points.sort_unstable();
    points.dedup();
    let segs = points.windows(2);
    segs.map(|w| Chain::single(IoBuf::copy_from(&stream[w[0]..w[1]])))
        .collect()
}

/// A frame may wait for at most this much.
const PENDING_CAP: usize = memcached::Header::SIZE + memcached::MAX_BODY_LEN;

/// Feeds `stream`, cut at `cuts`, to a fresh directly-driven server
/// connection; returns its store, the length of its unframed tail and
/// the framing errors it counted.
fn drive_server(stream: &[u8], cuts: &[usize]) -> (Arc<memcached::Store>, usize, u64) {
    drive_segments(segments(stream, cuts))
}

/// [`drive_server`] over segments already cut. The connection runs in a
/// runtime of its own, so the framing errors read back are its own: the
/// ambient runtime's registry is shared by every test thread of this
/// binary, and a bad frame another property counts there is not an
/// abort here.
fn drive_segments(
    segs: impl IntoIterator<Item = Chain<IoBuf>>,
) -> (Arc<memcached::Store>, usize, u64) {
    use ebbrt_core::runtime::{self, Runtime};
    use ebbrt_net::netif::{ConnHandler, TcpConn};
    let rt = Runtime::new(1, Arc::new(ebbrt_core::clock::ManualClock::new()));
    let _entered = runtime::enter(Arc::clone(&rt), CoreId(0));
    let bad_frames = || ebbrt_core::qos::snapshot(&rt).get(memcached::BAD_FRAME_COUNTER);
    let _guard = rt.rcu().read_guard(CoreId(0));
    let store = memcached::Store::new(Arc::clone(rt.rcu()));
    let sc = memcached::ServerConn::new(Arc::clone(&store));
    for seg in segs {
        // The dangling conn panics when a response is sent (or the
        // connection aborted) — after parsing and store updates are
        // complete for this call.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sc.on_receive(&TcpConn::dangling(), seg);
        }));
        assert!(sc.pending_len() <= PENDING_CAP);
        if bad_frames() > 0 {
            break; // aborted: a real connection delivers nothing more
        }
    }
    (store, sc.pending_len(), bad_frames())
}

/// The regression behind [`drive_segments`]' private runtime: a bad
/// frame counted elsewhere in the process between two segments of a
/// well-formed SET must not cut the SET short.
#[test]
fn a_bad_frame_counted_elsewhere_does_not_lose_a_well_formed_set() {
    let value = vec![0xA5u8; 300];
    let stream = memcached::encode_set(b"straddle", &value, 7);
    let noisy = segments(&stream, &[10, 100, 200]).into_iter().inspect(|_| {
        // What the hostile-header property does on another test thread:
        // an unentered thread counts in the ambient runtime.
        let elsewhere =
            || ebbrt_core::qos::bump(ebbrt_core::qos::register(memcached::BAD_FRAME_COUNTER));
        std::thread::spawn(elsewhere).join().unwrap();
    });
    let (store, pending, bad) = drive_segments(noisy);
    assert_eq!(
        store.get_raw(b"straddle").map(|v| v.copy_to_vec()),
        Some(value)
    );
    assert_eq!((pending, bad), (0, 0));
}

mod zero_copy_props {
    use super::*;
    use ebbrt_apps::memcached::{
        Burst, Client, Header, BAD_FRAME_COUNTER, MAX_BODY_LEN, MEMCACHED_PORT,
    };
    use ebbrt_net::netif::{local_netif, ConnHandler, TcpConn};
    use ebbrt_net::tcp::TcpState;
    use std::rc::Rc;

    /// Builds a pipelined request stream of SETs and GETs over a small
    /// key space. Returns the request frames.
    fn build_stream(ops: &[(u8, Vec<u8>)]) -> Vec<Vec<u8>> {
        let frames = ops.iter().enumerate().map(|(i, (sel, value))| {
            let key = format!("key{}", sel % 8);
            if sel % 3 == 0 {
                memcached::encode_get(key.as_bytes(), i as u32)
            } else {
                memcached::encode_set(key.as_bytes(), value, i as u32)
            }
        });
        frames.collect()
    }

    /// A reply stream answering [`build_stream`]'s requests in order:
    /// a hit carrying the op's bytes for every GET, OK for every SET.
    fn build_replies(ops: &[(u8, Vec<u8>)]) -> Vec<u8> {
        let mut out = Chain::new();
        for (i, (sel, value)) in ops.iter().enumerate() {
            if sel % 3 == 0 {
                let value = Chain::single(IoBuf::copy_from(value));
                memcached::push_hit(&mut out, i as u32, value);
            } else {
                memcached::push_status(&mut out, memcached::OP_SET, memcached::STATUS_OK, i as u32);
            }
        }
        out.copy_to_vec()
    }

    /// Observable parse outcome: store contents, (gets, sets, misses)
    /// counters, the unconsumed tail length, and framing errors counted.
    type ParseOutcome = (Vec<(Vec<u8>, Vec<u8>)>, u64, u64, u64, usize, u64);

    /// Feeds `stream` to a fresh server connection in segments at the
    /// given cut points.
    fn feed(stream: &[u8], cuts: &[usize]) -> ParseOutcome {
        let (store, pending_len, bad_frames) = drive_server(stream, cuts);
        let mut contents: Vec<(Vec<u8>, Vec<u8>)> = (0..8)
            .filter_map(|k| {
                let key = format!("key{k}").into_bytes();
                store.get_raw(&key).map(|v| (key, v.copy_to_vec()))
            })
            .collect();
        contents.sort();
        use std::sync::atomic::Ordering::Relaxed;
        (
            contents,
            store.gets.load(Relaxed),
            store.sets.load(Relaxed),
            store.misses.load(Relaxed),
            pending_len,
            bad_frames,
        )
    }

    /// A far end that swallows everything: the test feeds the client
    /// its reply stream by hand.
    struct Mute;
    impl ConnHandler for Mute {
        fn on_receive(&self, _conn: &TcpConn, _data: Chain<IoBuf>) {}
    }

    /// What a reply stream made a client do: the `(header, value)`
    /// sequence its workload saw, the unframed tail, the framing
    /// errors counted, and whether the connection was aborted.
    type ReplyOutcome = (Vec<(Header, Vec<u8>)>, usize, u64, bool);

    /// Feeds `stream`, cut at `cuts`, to a [`Client`] that has
    /// `requests` in flight.
    fn feed_replies(requests: &[Vec<u8>], stream: &[u8], cuts: &[usize]) -> ReplyOutcome {
        use ebbrt_net::types::Ipv4Addr;
        let lan = ebbrt_net::Lan::new();
        let vm = ebbrt_sim::CostProfile::ebbrt_vm;
        let server_ip = Ipv4Addr::new(10, 0, 0, 1);
        let (server, _s_if) = lan.machine("server", 1, vm(), [0xAA; 6], server_ip);
        let (client_m, _c_if) =
            lan.machine("client", 1, vm(), [0xBB; 6], Ipv4Addr::new(10, 0, 0, 2));
        server.spawn_on(CoreId(0), || {
            local_netif()
                .listen(MEMCACHED_PORT, |_| Rc::new(Mute) as Rc<dyn ConnHandler>)
                .expect("port free");
        });
        lan.world.run_to_idle();
        let client = Client::spawn(&client_m, CoreId(0), server_ip, Burst::new(requests));
        lan.world.run_to_idle();
        let args = (Rc::clone(&client), segments(stream, cuts));
        ebbrt_apps::spawn_with(&client_m, CoreId(0), args, |(client, segs)| {
            let conn = client.conn().expect("connected");
            for seg in segs {
                if conn.state() == TcpState::Closed {
                    break; // aborted: nothing after a bad frame is framed
                }
                client.on_receive(&conn, seg);
                assert!(client.pending_len() <= PENDING_CAP);
            }
        });
        lan.world.run_to_idle();
        let replies = client.workload.replies.borrow().clone();
        let bad = ebbrt_core::qos::snapshot(client_m.runtime()).get(BAD_FRAME_COUNTER);
        let aborted = client.conn().expect("opened").state() == TcpState::Closed;
        (replies, client.pending_len(), bad, aborted)
    }

    /// Whether the framer must reject `h` on a connection carrying
    /// `magic`.
    fn is_bad(h: &Header, magic: u8) -> bool {
        let body = h.total_body as usize;
        h.magic != magic || body > MAX_BODY_LEN || h.value_offset() > body
    }

    proptest! {
        /// Any segmentation of a request stream parses identically to
        /// the contiguous form: same store contents, same op counts,
        /// same unconsumed tail — and the same holds for a reply stream
        /// through [`Client`]: same `(header, value)` sequence. A
        /// hostile header spliced behind either stream is a counted
        /// framing error or (when it happens to be well-formed) just
        /// another frame; it never panics and never parks more than
        /// one maximal frame.
        #[test]
        fn memcached_parse_is_segmentation_invariant(
            ops in prop::collection::vec((any::<u8>(), prop::collection::vec(any::<u8>(), 0..80)), 1..12),
            cuts in prop::collection::vec(any::<usize>(), 0..24),
            trailing in 0usize..24,
            hostile in (any::<u8>(), any::<u16>(), any::<u8>(), any::<u32>()),
        ) {
            let requests = build_stream(&ops);
            let mut stream = requests.concat();
            // A truncated final request must stay buffered identically.
            let keep = stream.len().saturating_sub(trailing % (stream.len() + 1));
            stream.truncate(keep);
            let contiguous = feed(&stream, &[]);
            let segmented = feed(&stream, &cuts);
            prop_assert_eq!(&contiguous, &segmented);

            let mut replies = build_replies(&ops);
            replies.truncate(replies.len().saturating_sub(trailing % (replies.len() + 1)));
            let contiguous = feed_replies(&requests, &replies, &[]);
            let segmented = feed_replies(&requests, &replies, &cuts);
            prop_assert_eq!(&contiguous, &segmented);
            prop_assert_eq!((contiguous.2, contiguous.3), (0, false));

            // The hostile header: one of the two magics half the time,
            // so the length checks get exercised too.
            let (magic, key_len, extras_len, total_body) = hostile;
            let magic = [memcached::MAGIC_REQUEST, memcached::MAGIC_RESPONSE, magic, magic];
            let h = Header {
                magic: magic[key_len as usize % 4],
                opcode: memcached::OP_GET,
                key_len,
                extras_len,
                status: 0,
                total_body,
                opaque: ops.len() as u32,
            };
            let tail = [h.encode().to_vec(), vec![0x5A; 64]].concat();
            let full_requests = requests.concat();
            let outcome = feed(&[full_requests, tail.clone()].concat(), &cuts);
            if is_bad(&h, memcached::MAGIC_REQUEST) {
                prop_assert_eq!((outcome.5, outcome.4), (1, 0));
            } else {
                prop_assert_eq!(outcome.5, 0);
            }
            let mut asked = requests.clone();
            asked.push(h.encode().to_vec()); // in flight, should a reply like it arrive
            let (seen, pending, bad, aborted) =
                feed_replies(&asked, &[build_replies(&ops), tail].concat(), &cuts);
            if is_bad(&h, memcached::MAGIC_RESPONSE) {
                prop_assert_eq!((seen.len(), pending, bad, aborted), (ops.len(), 0, 1, true));
            } else {
                prop_assert_eq!((bad, aborted), (0, false));
            }
        }

        /// `slice()` views observe exactly the bytes the writer put in
        /// the region, wherever the view is carved.
        #[test]
        fn slice_views_observe_writer_bytes(
            payload in prop::collection::vec(any::<u8>(), 1..200),
            windows in prop::collection::vec((any::<usize>(), any::<usize>()), 1..8),
        ) {
            let mut buf = MutIoBuf::with_capacity(payload.len());
            buf.append(payload.len()).copy_from_slice(&payload);
            let frozen = buf.freeze();
            for (start, len) in windows {
                let start = start % payload.len();
                let len = len % (payload.len() - start + 1);
                let view = frozen.slice(start, len);
                prop_assert_eq!(view.bytes(), &payload[start..start + len]);
                let range_view = frozen.slice_range(start..start + len);
                prop_assert_eq!(range_view.bytes(), &payload[start..start + len]);
            }
            // All views shared one region: no storage was duplicated.
            prop_assert_eq!(frozen.ref_count(), 1);
        }
    }
}

mod size_class_props {
    use super::*;
    use ebbrt_apps::memcached::{Client, Header, Workload};
    use std::cell::RefCell;

    /// Sizes anchoring the generator at the pool class boundaries:
    /// the 2 KiB small/large edge, the 64 KiB large/oversize edge, and
    /// the extremes of the 1 B … 128 KiB range.
    const BOUNDARIES: &[usize] = &[
        1,
        2,
        2047,
        2048,
        2049,
        4096,
        16 * 1024,
        63 * 1024,
        65535,
        65536,
        65537,
        100_000,
        128 * 1024,
    ];

    fn boundary_size(sel: usize, jitter: usize) -> usize {
        let base = BOUNDARIES[sel % BOUNDARIES.len()];
        // Jitter ±16 around the anchor, clamped to the 1..=128 KiB
        // domain, so cases land on and straddle each boundary.
        (base + jitter % 33).saturating_sub(16).clamp(1, 128 * 1024)
    }

    fn value_bytes(size: usize, seed: u64) -> Vec<u8> {
        (0..size)
            .map(|i| (seed.wrapping_mul(i as u64 + 1).wrapping_shr((i % 7) as u32)) as u8)
            .collect()
    }

    /// Pushes a request stream respecting the send window (chunked
    /// `send` calls — app-layer segmentation) and keeps the replies.
    struct Push {
        tx: RefCell<Chain<IoBuf>>,
        /// Max bytes per send call (varies app-layer segmentation).
        chunk: usize,
        values: RefCell<Vec<Vec<u8>>>,
    }

    impl Push {
        fn push(&self, client: &Client<Self>) {
            loop {
                let mut tx = self.tx.borrow_mut();
                let take = tx.len().min(client.send_window()).min(self.chunk);
                if take == 0 {
                    return;
                }
                let part = tx.split_to(take);
                drop(tx);
                if client.send(part).is_err() {
                    return;
                }
            }
        }
    }

    impl Workload for Push {
        fn on_connected(&self, client: &Client<Self>) {
            self.push(client);
        }
        fn on_reply(&self, client: &Client<Self>, _h: &Header, value: Chain<IoBuf>, _l: u64) {
            self.values.borrow_mut().push(value.copy_to_vec());
            if client.in_flight() == 0 && self.tx.borrow().is_empty() {
                client.close();
            }
            self.push(client);
        }
        fn on_window_open(&self, client: &Client<Self>) {
            self.push(client);
        }
    }

    /// SET a value of `size` bytes over the network (windowed,
    /// chunked sends), GET it back, and return the fetched bytes.
    fn roundtrip_over_network(value: &[u8], chunk: usize) -> Vec<u8> {
        use ebbrt_net::types::Ipv4Addr;
        use ebbrt_net::Lan;
        use ebbrt_sim::CostProfile;

        let lan = Lan::new();
        let vm = CostProfile::ebbrt_vm;
        let w = &lan.world;
        let (server, _s_if) = lan.machine("server", 1, vm(), [0xAA; 6], Ipv4Addr::new(10, 0, 0, 1));
        let (client, _c_if) = lan.machine("client", 1, vm(), [0xBB; 6], Ipv4Addr::new(10, 0, 0, 2));
        w.run_to_idle();
        let _store = memcached::serve_on(&server);
        w.run_to_idle();

        let mut stream = memcached::encode_set(b"straddle", value, 1);
        stream.extend(memcached::encode_get(b"straddle", 2));
        let push = Push {
            tx: RefCell::new(Chain::single(IoBuf::copy_from(&stream))),
            chunk,
            values: RefCell::default(),
        };
        let client = Client::spawn(&client, CoreId(0), Ipv4Addr::new(10, 0, 0, 1), push);
        w.run_to_idle();
        let mut values = client.workload.values.take();
        assert_eq!(
            values.len(),
            2,
            "responses truncated for a {}-byte value",
            value.len()
        );
        values.pop().expect("the GET's value")
    }

    /// The value a directly-driven server connection stored for one SET
    /// fed in segments cut at `cuts`.
    fn stored_after_segmented_set(stream: &[u8], cuts: &[usize]) -> Vec<u8> {
        let stored = drive_server(stream, cuts).0.get_raw(b"straddle");
        stored.map(|v| v.copy_to_vec()).unwrap_or_default()
    }

    proptest! {
        /// SET/GET round-trips over the full network path are exact
        /// for every value size across the 2 KiB and 64 KiB class
        /// boundaries (1 B … 128 KiB), independent of how the client
        /// chunks its sends. Values beyond the peer's 64 KiB receive
        /// window exercise the server's response backpressure path.
        #[test]
        fn memcached_roundtrip_straddles_class_boundaries(
            sel in 0usize..64,
            jitter in 0usize..64,
            seed in any::<u64>(),
            chunk_sel in 0usize..4,
        ) {
            let size = boundary_size(sel, jitter);
            let value = value_bytes(size, seed);
            let chunk = [1497, 4096, 60_000, usize::MAX][chunk_sel];
            let got = roundtrip_over_network(&value, chunk);
            prop_assert_eq!(got, value);
        }

        /// The stored bytes of a boundary-straddling SET are
        /// independent of how the request stream is segmented.
        #[test]
        fn large_set_storage_is_segmentation_invariant(
            sel in 0usize..64,
            jitter in 0usize..64,
            seed in any::<u64>(),
            cuts in prop::collection::vec(any::<usize>(), 0..12),
        ) {
            let size = boundary_size(sel, jitter);
            let value = value_bytes(size, seed);
            let stream = memcached::encode_set(b"straddle", &value, 7);
            let contiguous = stored_after_segmented_set(&stream, &[]);
            let segmented = stored_after_segmented_set(&stream, &cuts);
            prop_assert_eq!(&contiguous, &value);
            prop_assert_eq!(&segmented, &value);
        }
    }
}

mod iobuf_props {
    use super::*;

    /// Arbitrary chains + arbitrary advance/split sequences never lose
    /// or duplicate bytes and keep the length accounting exact.
    fn model_ops(segments: Vec<Vec<u8>>, ops: Vec<usize>) {
        let mut chain: Chain<IoBuf> = Chain::new();
        let mut model: Vec<u8> = Vec::new();
        for s in &segments {
            chain.push_back(IoBuf::copy_from(s));
            model.extend_from_slice(s);
        }
        assert_eq!(chain.len(), model.len());
        for op in ops {
            if chain.is_empty() {
                break;
            }
            match op % 3 {
                0 => {
                    let n = op % (chain.len() + 1);
                    let head = chain.split_to(n);
                    assert_eq!(head.copy_to_vec(), model[..n].to_vec());
                    model.drain(..n);
                }
                1 => {
                    let n = op % (chain.len() + 1);
                    chain.advance(n);
                    model.drain(..n);
                }
                _ => {
                    // Round-trip through a cursor read.
                    let n = (op / 3) % (chain.len() + 1);
                    let mut cur = chain.cursor();
                    let got = cur.read_vec(n).unwrap();
                    assert_eq!(got, model[..n]);
                }
            }
            assert_eq!(chain.len(), model.len());
            assert_eq!(chain.copy_to_vec(), model);
        }
    }

    proptest! {
        #[test]
        fn chain_ops_preserve_bytes(
            segments in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..64), 1..8),
            ops in prop::collection::vec(any::<usize>(), 0..32),
        ) {
            model_ops(segments, ops);
        }

        #[test]
        fn mut_iobuf_window_arithmetic(
            headroom in 0usize..64,
            appends in prop::collection::vec(1usize..32, 0..8),
        ) {
            let cap: usize = appends.iter().sum::<usize>() + 1;
            let mut b = MutIoBuf::with_headroom(cap, headroom);
            let mut expect_len = 0;
            for a in &appends {
                b.append(*a);
                expect_len += a;
                prop_assert_eq!(b.len(), expect_len);
                prop_assert_eq!(b.headroom(), headroom);
                prop_assert_eq!(b.capacity(), cap + headroom);
            }
            // Prepending then advancing restores the same window.
            let take = headroom.min(7);
            b.prepend(take);
            prop_assert_eq!(b.len(), expect_len + take);
            b.advance(take);
            prop_assert_eq!(b.len(), expect_len);
        }
    }
}

mod wire_props {
    use super::*;
    use ebbrt_core::iobuf::wire::{WireReader, WireWriter, INLINE_PAYLOAD_MAX};
    use ebbrt_hosted::messenger::batch;

    fn flat(c: &Chain<IoBuf>) -> Vec<u8> {
        c.iter().flat_map(|s| s.bytes().to_vec()).collect()
    }

    /// `bytes` as a chain cut at `cuts` (taken modulo the length): 1–4
    /// segments, each a buffer of its own.
    fn recut(bytes: &[u8], cuts: &[usize]) -> Chain<IoBuf> {
        let mut points: Vec<usize> = cuts.iter().map(|c| c % (bytes.len() + 1)).collect();
        points.extend([0, bytes.len()]);
        points.sort_unstable();
        points.dedup();
        let mut chain = Chain::new();
        for w in points.windows(2) {
            chain.push_back(IoBuf::copy_from(&bytes[w[0]..w[1]]));
        }
        chain
    }

    /// Either side of the copy/link threshold, from a one-byte selector.
    fn payload(sel: u8, fill: u8) -> Vec<u8> {
        let len = match sel % 4 {
            0 => 0,
            1 => sel as usize,
            2 => INLINE_PAYLOAD_MAX + sel as usize,
            _ => 3000 + sel as usize,
        };
        (0..len).map(|i| fill.wrapping_add(i as u8)).collect()
    }

    proptest! {
        /// What a writer wrote — scalars, slice fields, copied and
        /// linked chains — reads back field for field however the
        /// bytes are segmented on the way, each field both as bytes
        /// and as a zero-copy sub-chain.
        #[test]
        fn wire_roundtrip_is_segmentation_invariant(
            key in prop::collection::vec(any::<u8>(), 0..300),
            sels in prop::collection::vec((any::<u8>(), any::<u8>()), 0..4),
            scalar in any::<u64>(),
            cuts in prop::collection::vec(any::<usize>(), 0..3),
            slide in any::<usize>(),
        ) {
            let values: Vec<Vec<u8>> = sels.iter().map(|&(s, f)| payload(s, f)).collect();
            let mut w = WireWriter::op(9);
            w.u16(scalar as u16).u32(scalar as u32).u64(scalar).bytes16(&key);
            for v in &values {
                // Values arrive as two-segment chains (a view that
                // straddled a receive buffer).
                w.bytes32_chain(&recut(v, &[v.len() / 3]));
            }
            w.tail(&key);
            let written = flat(&w.finish());
            // Every offset is a cut somewhere over the cases: `slide`
            // walks one cut across the whole payload.
            let mut cuts = cuts;
            cuts.push(slide);
            let chain = recut(&written, &cuts);
            let mut r = WireReader::new(&chain);
            prop_assert_eq!(r.u8(), Some(9));
            prop_assert_eq!(r.u16(), Some(scalar as u16));
            prop_assert_eq!(r.u32(), Some(scalar as u32));
            prop_assert_eq!(r.u64(), Some(scalar));
            let k = r.bytes16().expect("key");
            prop_assert_eq!(&*k.contiguous(), &key[..]);
            prop_assert_eq!(flat(&k.into_chain()), key.clone());
            for v in &values {
                let f = r.bytes32().expect("value");
                prop_assert_eq!(f.len(), v.len());
                if let Some(s) = f.as_slice() {
                    prop_assert_eq!(s, &v[..]);
                }
                prop_assert_eq!(flat(&f.into_chain()), v.clone());
            }
            prop_assert_eq!(flat(&r.tail().into_chain()), key);
            prop_assert_eq!(r.remaining(), 0);
            // Every proper prefix fails some read with `None` — no
            // panic, no short field mistaken for a whole one.
            let cut = slide % written.len();
            let short = recut(&written[..cut], &cuts);
            let mut r = WireReader::new(&short);
            let whole = (|| {
                r.u8()?; r.u16()?; r.u32()?; r.u64()?; r.bytes16()?;
                for _ in &values { r.bytes32()?; }
                (r.tail().len() == key.len()).then_some(())
            })();
            prop_assert!(whole.is_none(), "a {}-byte prefix of {} read as whole", cut, written.len());
        }

        /// The batch envelopes round-trip through any segmentation, and
        /// every truncation of one decodes to `None`.
        #[test]
        fn batch_tables_roundtrip_and_reject_truncation(
            calls in prop::collection::vec((any::<u32>(), any::<u8>(), any::<u8>()), 0..6),
            cuts in prop::collection::vec(any::<usize>(), 0..3),
            slide in any::<usize>(),
        ) {
            let bodies: Vec<Chain<IoBuf>> =
                calls.iter().map(|&(_, s, f)| recut(&payload(s, f), &[7])).collect();
            let request = flat(&batch::encode_request(
                calls.iter().zip(&bodies).map(|(&(id, _, _), b)| (id, b)),
            ));
            let response = flat(&batch::encode_response(
                calls.iter().zip(&bodies).map(|(&(id, _, _), b)| (id as u8, b)),
            ));
            let mut cuts = cuts;
            cuts.push(slide);

            let chain = recut(&request, &cuts);
            let got: Vec<(u32, Vec<u8>)> = batch::decode_request(&chain)
                .expect("well-formed request")
                .map(|(id, body)| (id, flat(&body)))
                .collect();
            let want: Vec<(u32, Vec<u8>)> =
                calls.iter().zip(&bodies).map(|(&(id, _, _), b)| (id, flat(b))).collect();
            prop_assert_eq!(got, want);

            let chain = recut(&response, &cuts);
            let got: Vec<(u8, Vec<u8>)> = batch::decode_response(&chain)
                .expect("well-formed response")
                .map(|(status, body)| (status, flat(&body)))
                .collect();
            let want: Vec<(u8, Vec<u8>)> =
                calls.iter().zip(&bodies).map(|(&(id, _, _), b)| (id as u8, flat(b))).collect();
            prop_assert_eq!(got, want);

            let cut = slide % request.len();
            prop_assert!(batch::decode_request(&recut(&request[..cut], &cuts)).is_none());
            let cut = slide % response.len();
            prop_assert!(batch::decode_response(&recut(&response[..cut], &cuts)).is_none());
        }
    }

    /// The counts no table can honour: they must be refused before
    /// anything is sized from them.
    #[test]
    fn batch_counts_beyond_the_payload_are_refused() {
        for n in [1u32, 2, 0x00FF_FFFF, u32::MAX] {
            let chain = Chain::single(IoBuf::copy_from(&n.to_be_bytes()));
            assert!(batch::decode_request(&chain).is_none(), "request n={n}");
            assert!(batch::decode_response(&chain).is_none(), "response n={n}");
        }
        let empty = Chain::single(IoBuf::copy_from(&0u32.to_be_bytes()));
        assert_eq!(batch::decode_request(&empty).expect("empty table").len(), 0);
        assert!(batch::decode_request(&Chain::new()).is_none());
    }
}

mod buddy_props {
    use super::*;
    use ebbrt_mem::buddy::{order_bytes, BuddyAllocator};

    proptest! {
        /// Any interleaving of allocations and frees keeps blocks
        /// disjoint and restores the fully coalesced region at the end.
        #[test]
        fn buddy_disjoint_and_coalescing(ops in prop::collection::vec((0u32..4, any::<u8>()), 1..64)) {
            let region_order = 6; // 64 pages
            let mut b = BuddyAllocator::new(0, region_order);
            let initial = b.free_bytes();
            let mut live: Vec<(usize, u32)> = Vec::new();
            for (order, sel) in ops {
                if sel % 2 == 0 || live.is_empty() {
                    if let Some(addr) = b.alloc(order) {
                        // Overlap check against every live block.
                        let len = order_bytes(order);
                        for &(a, o) in &live {
                            let alen = order_bytes(o);
                            prop_assert!(addr + len <= a || a + alen <= addr,
                                "overlap: {addr:#x}+{len:#x} vs {a:#x}+{alen:#x}");
                        }
                        live.push((addr, order));
                    }
                } else {
                    let idx = (sel as usize) % live.len();
                    let (addr, order) = live.swap_remove(idx);
                    b.free(addr, order);
                }
            }
            for (addr, order) in live {
                b.free(addr, order);
            }
            prop_assert_eq!(b.free_bytes(), initial);
            // Fully coalesced: exactly one block at the top order.
            let counts = b.free_counts();
            prop_assert_eq!(counts[region_order as usize], 1);
        }
    }
}

mod tcp_props {
    use super::*;
    use ebbrt_core::cpu::CoreId;
    use ebbrt_net::tcp::{FourTuple, Pcb, TcpState};
    use ebbrt_net::types::Ipv4Addr;

    fn pcb() -> Pcb {
        let t = FourTuple {
            local: (Ipv4Addr::new(10, 0, 0, 1), 80),
            remote: (Ipv4Addr::new(10, 0, 0, 2), 5555),
        };
        let mut p = Pcb::new(t, TcpState::Established, 0, CoreId(0));
        p.rcv_nxt = 0;
        p.snd_wnd = 1 << 20;
        p
    }

    proptest! {
        /// Delivering segments in any order (with duplicates) yields the
        /// original stream, exactly once, in order.
        #[test]
        fn reassembly_from_any_arrival_order(
            chunks in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..40), 1..12),
            order_seed in any::<u64>(),
            dup_mask in any::<u16>(),
        ) {
            let mut stream = Vec::new();
            let mut segs: Vec<(u32, Vec<u8>)> = Vec::new();
            let mut seq = 0u32;
            for c in &chunks {
                segs.push((seq, c.clone()));
                stream.extend_from_slice(c);
                seq = seq.wrapping_add(c.len() as u32);
            }
            // Duplicate some segments, then shuffle deterministically.
            let mut arrivals = segs.clone();
            for (i, s) in segs.iter().enumerate() {
                if dup_mask & (1 << (i % 16)) != 0 {
                    arrivals.push(s.clone());
                }
            }
            let mut rng = order_seed;
            for i in (1..arrivals.len()).rev() {
                rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let j = (rng >> 33) as usize % (i + 1);
                arrivals.swap(i, j);
            }

            let mut p = pcb();
            let mut delivered = Chain::new();
            for (seq, data) in arrivals {
                let chain = Chain::single(IoBuf::copy_from(&data));
                p.on_data(seq, chain, &mut delivered);
            }
            prop_assert_eq!(delivered.copy_to_vec(), stream);
            prop_assert_eq!(p.rcv_nxt as usize, segs.iter().map(|(_, d)| d.len()).sum::<usize>());
        }

        /// The usable send window never exceeds the peer's advertised
        /// window and acknowledgments only ever shrink the in-flight set.
        #[test]
        fn window_accounting(
            sends in prop::collection::vec(1u32..2000, 0..16),
            wnd in 1u16..u16::MAX,
        ) {
            let mut p = pcb();
            p.snd_wnd = wnd as u32;
            let mut sent = 0u32;
            for len in sends {
                let take = (p.send_window() as u32).min(len);
                if take == 0 { break; }
                let seq = p.snd_nxt;
                p.record_sent(seq, take, 0, Chain::new());
                sent += take;
                prop_assert!(p.send_window() as u64 + sent as u64 <= wnd as u64 + sent as u64);
                prop_assert!(p.send_window() <= wnd as usize);
            }
            // Ack everything: the full window reopens, queue empties.
            let r = p.process_ack(p.snd_nxt, wnd);
            prop_assert!(r.queue_empty);
            prop_assert_eq!(p.send_window(), wnd as usize);
        }
    }
}

mod rcu_props {
    use super::*;
    use ebbrt_core::rcu::RcuDomain;
    use ebbrt_core::rcu_hash::RcuHashMap;
    use std::sync::Arc;

    proptest! {
        /// The RCU map agrees with a model HashMap under arbitrary
        /// insert/remove/lookup interleavings.
        #[test]
        fn rcu_map_matches_model(ops in prop::collection::vec((any::<u8>(), any::<u16>()), 0..200)) {
            let domain = Arc::new(RcuDomain::new(1));
            let map: RcuHashMap<u8, u16> = RcuHashMap::with_capacity(Arc::clone(&domain), 4);
            let mut model = std::collections::HashMap::new();
            let guard = domain.read_guard(ebbrt_core::cpu::CoreId(0));
            for (k, v) in ops {
                match v % 3 {
                    0 => {
                        let replaced = map.insert(k, v);
                        prop_assert_eq!(replaced, model.insert(k, v).is_some());
                    }
                    1 => {
                        prop_assert_eq!(map.remove(&k), model.remove(&k).is_some());
                    }
                    _ => {
                        prop_assert_eq!(map.get(&k, |x| *x), model.get(&k).copied());
                    }
                }
                prop_assert_eq!(map.len(), model.len());
            }
            drop(guard);
            domain.try_reclaim();
            prop_assert_eq!(domain.pending_count(), 0);
        }
    }
}

mod event_props {
    use super::*;
    use ebbrt_core::clock::ManualClock;
    use ebbrt_core::cpu::{self, CoreId};
    use ebbrt_core::event::EventManager;
    use ebbrt_core::rcu::CoreEpoch;
    use std::cell::RefCell;
    use std::rc::Rc;
    use std::sync::Arc;

    proptest! {
        /// Spawned events run exactly once, in FIFO order, regardless of
        /// how dispatch passes are interleaved with spawns.
        #[test]
        fn spawn_order_and_exactly_once(batches in prop::collection::vec(1usize..6, 1..10)) {
            let clock: Arc<dyn ebbrt_core::clock::Clock> = Arc::new(ManualClock::new());
            let em = EventManager::new(CoreId(0), clock, Arc::new(CoreEpoch::new()));
            let _b = cpu::bind(CoreId(0));
            let log = Rc::new(RefCell::new(Vec::new()));
            let mut expected = Vec::new();
            let mut next = 0u32;
            for batch in batches {
                for _ in 0..batch {
                    let id = next;
                    next += 1;
                    expected.push(id);
                    let log = Rc::clone(&log);
                    em.spawn_local(move || log.borrow_mut().push(id));
                }
                // Interleave partial dispatch (one synthetic per pass).
                em.run_once();
            }
            em.drain();
            prop_assert_eq!(&*log.borrow(), &expected);
            // Nothing runs twice: a further drain is empty.
            prop_assert_eq!(em.drain(), 0);
        }

        /// Timers fire in deadline order irrespective of arming order,
        /// and never before their deadline.
        #[test]
        fn timer_deadline_order(deadlines in prop::collection::vec(1u64..10_000, 1..20)) {
            let clock = Arc::new(ManualClock::new());
            let clock_dyn: Arc<dyn ebbrt_core::clock::Clock> = Arc::clone(&clock) as _;
            let em = EventManager::new(CoreId(0), clock_dyn, Arc::new(CoreEpoch::new()));
            let _b = cpu::bind(CoreId(0));
            let log = Rc::new(RefCell::new(Vec::new()));
            for &d in &deadlines {
                let log = Rc::clone(&log);
                em.set_timer(d, move || {
                    log.borrow_mut().push(d);
                });
            }
            // Advance in steps, checking nothing fires early.
            let max = *deadlines.iter().max().unwrap();
            for t in (0..=max).step_by(97) {
                clock.set(t);
                em.run_once();
                prop_assert!(log.borrow().iter().all(|&d| d <= t));
            }
            clock.set(max);
            em.drain();
            let mut sorted = deadlines.clone();
            sorted.sort();
            prop_assert_eq!(&*log.borrow(), &sorted);
        }
    }
}

mod timer_wheel_props {
    use super::*;
    use ebbrt_core::timer::{TimerToken, TimerWheel};
    use std::cmp::Reverse;
    use std::collections::{BinaryHeap, HashSet};

    /// The seed implementation's timer store, verbatim semantics: a
    /// global binary heap ordered by (deadline, arm sequence) plus a
    /// tombstone set for cancellations. The wheel must be
    /// observationally equivalent to this.
    struct SeedHeapModel {
        heap: BinaryHeap<Reverse<(u64, u64, u32)>>,
        cancelled: HashSet<u32>,
        seq: u64,
    }

    impl SeedHeapModel {
        fn new() -> Self {
            SeedHeapModel {
                heap: BinaryHeap::new(),
                cancelled: HashSet::new(),
                seq: 0,
            }
        }

        fn arm(&mut self, id: u32, deadline: u64) {
            self.seq += 1;
            self.heap.push(Reverse((deadline, self.seq, id)));
        }

        fn cancel(&mut self, id: u32) {
            self.cancelled.insert(id);
        }

        /// Reset = cancel; the caller re-arms the handler under a
        /// fresh id (the re-armed incarnation must not be tombstoned).
        fn reset(&mut self, id: u32) {
            self.cancel(id);
        }

        /// Fires everything due at `now`, in (deadline, seq) order.
        fn fire(&mut self, now: u64) -> Vec<(u32, u64)> {
            let mut out = Vec::new();
            while let Some(&Reverse((deadline, _, id))) = self.heap.peek() {
                if deadline > now {
                    break;
                }
                self.heap.pop();
                if !self.cancelled.remove(&id) {
                    out.push((id, deadline));
                }
            }
            out
        }
    }

    /// Drains every timer currently due from the wheel, returning
    /// (handler id, effective deadline) in firing order.
    fn drain_wheel(wheel: &mut TimerWheel<u32>, now: u64) -> Vec<(u32, u64)> {
        wheel.advance(now);
        let mut out = Vec::new();
        while let Some((tok, deadline)) = wheel.pop_expired() {
            let id = *wheel.handler(tok).expect("due entry has handler");
            wheel.remove(tok);
            out.push((id, deadline));
        }
        out
    }

    proptest! {
        /// Observational equivalence with the seed heap: any
        /// interleaving of arm / cancel / re-arm / advance fires the
        /// same timers in the same order at the same times.
        #[test]
        fn wheel_equivalent_to_seed_heap(
            ops in prop::collection::vec((0u8..10, 1u64..50_000), 1..120)
        ) {
            let mut wheel: TimerWheel<u32> = TimerWheel::new(0);
            let mut model = SeedHeapModel::new();
            // Live timers: (model id, wheel token, deadline).
            let mut live: Vec<(u32, TimerToken)> = Vec::new();
            let mut next_id = 0u32;
            let mut now = 0u64;
            for (kind, value) in ops {
                match kind {
                    // Arm a fresh one-shot timer (weighted heavily).
                    0..=4 => {
                        let deadline = now + value % 20_000;
                        let id = next_id;
                        next_id += 1;
                        let tok = wheel.schedule(deadline, id);
                        model.arm(id, deadline);
                        live.push((id, tok));
                    }
                    // Advance the clock and fire.
                    5 | 6 => {
                        now += value % 15_000;
                        let fired = drain_wheel(&mut wheel, now);
                        let expected = model.fire(now);
                        prop_assert_eq!(&fired, &expected,
                            "divergence at t={} (wheel vs heap)", now);
                        for (id, _) in &fired {
                            live.retain(|(lid, _)| lid != id);
                        }
                    }
                    // Re-arm an existing timer to a new deadline.
                    7 | 8 => {
                        if live.is_empty() { continue; }
                        let i = (value as usize) % live.len();
                        let deadline = now + value % 20_000;
                        let (old_id, tok) = live[i];
                        // Model: tombstone the old incarnation, arm a
                        // fresh id; wheel: O(1) re-arm of the same
                        // entry. Track the handler under the new id.
                        model.reset(old_id);
                        let id = next_id;
                        next_id += 1;
                        model.arm(id, deadline);
                        prop_assert!(wheel.arm(tok, deadline));
                        *wheel.handler_mut(tok).expect("live entry") = id;
                        live[i] = (id, tok);
                    }
                    // Cancel an existing timer.
                    _ => {
                        if live.is_empty() { continue; }
                        let i = (value as usize) % live.len();
                        let (id, tok) = live.swap_remove(i);
                        model.cancel(id);
                        prop_assert!(wheel.remove(tok).is_some());
                    }
                }
                // Soundness of the park/halt bound after every step:
                // never past the earliest pending deadline, always in
                // the future when nothing is due.
                if let Some(bound) = wheel.next_deadline(now) {
                    let true_min = model.heap.iter()
                        .filter(|Reverse((_, _, id))| !model.cancelled.contains(id))
                        .map(|Reverse((d, _, _))| *d)
                        .min();
                    if let Some(min) = true_min {
                        prop_assert!(bound <= min.max(now + 1),
                            "bound {} past earliest deadline {}", bound, min);
                    }
                }
            }
            // Final drain far in the future: both empty out identically.
            now += 1 << 20;
            let fired = drain_wheel(&mut wheel, now);
            let expected = model.fire(now);
            prop_assert_eq!(fired, expected);
            prop_assert_eq!(wheel.pending(), 0);
            prop_assert_eq!(wheel.live(), 0, "no entry may outlive the run");
        }
    }
}

mod future_props {
    use super::*;
    use ebbrt_repro::core::future;

    proptest! {
        /// A chain of maps applied to a future equals the same chain
        /// applied to the value directly, whether the future completes
        /// before or after the chain is built.
        #[test]
        fn then_chain_preserves_value(start in any::<u32>(), adds in prop::collection::vec(any::<u8>(), 0..12), complete_first in any::<bool>()) {
            let expected = adds.iter().fold(start as u64, |acc, &a| acc + a as u64);
            let (p, f) = future::promise::<u64>();
            let build = |mut f: future::Future<u64>| {
                for &a in &adds {
                    f = f.map(move |v| v + a as u64);
                }
                f
            };
            let out = if complete_first {
                p.set_value(start as u64);
                build(f)
            } else {
                let out = build(f);
                p.set_value(start as u64);
                out
            };
            prop_assert_eq!(out.block().unwrap(), expected);
        }

        /// Errors injected at any depth of a chain surface at the end,
        /// skipping all intermediate maps.
        #[test]
        fn error_skips_intermediate_continuations(depth in 0usize..10, fail_at in 0usize..10) {
            let (p, f) = future::promise::<u64>();
            let mut fut = f;
            let ran = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
            for i in 0..depth {
                let ran = std::sync::Arc::clone(&ran);
                fut = fut.then(move |ff| {
                    let v = ff.get()?;
                    ran.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                    if i == fail_at {
                        Err(future::Error::msg("injected"))
                    } else {
                        Ok(v)
                    }
                });
            }
            p.set_value(1);
            let result = fut.block();
            let executed = ran.load(std::sync::atomic::Ordering::SeqCst);
            if fail_at < depth {
                prop_assert!(result.is_err());
                // Continuations after the failure only *observe* the
                // error (their Ok body is skipped by `?`).
                prop_assert_eq!(executed, fail_at + 1);
            } else {
                prop_assert!(result.is_ok());
                prop_assert_eq!(executed, depth);
            }
        }
    }
}
