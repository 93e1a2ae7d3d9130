//! Allocator calls on the data path, counted by a `#[global_allocator]`
//! (per thread, so the harness's other test threads do not leak in).
//!
//! 1. **A data frame's trip performs none.** From `TcpConn::send` on
//!    one machine to `on_receive` on the other — header buffer from the
//!    pool, `freeze`, the switch's typed delivery entry, the NIC ring,
//!    the interrupt wake, `rx_burst`'s reused vectors, reassembly into
//!    the run's delivery chain — the allocator is not called once.
//! 2. **A warmed memcached world stays under a fixed ceiling per
//!    request**, arrival timers and client bookkeeping included.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use ebbrt_apps::spawn_with;
use ebbrt_bench::mutilate::{self, ExperimentConfig};
use ebbrt_core::cpu::CoreId;
use ebbrt_core::iobuf::{Chain, IoBuf, MutIoBuf};
use ebbrt_net::netif::{local_netif, ConnHandler, TcpConn};
use ebbrt_net::types::Ipv4Addr;
use ebbrt_sim::{CostProfile, Lan, SimMachine, SimWorld};

use test_alloc::thread_calls as alloc_calls;

#[global_allocator]
static ALLOCATOR: test_alloc::CountingAlloc = test_alloc::CountingAlloc;

/// Receiver: notes the allocator count on entry to every delivery.
#[derive(Default)]
struct Sink {
    deliveries: Cell<u32>,
    bytes: Cell<usize>,
    calls_at_delivery: Cell<u64>,
}

impl ConnHandler for Sink {
    fn on_receive(&self, _conn: &TcpConn, data: Chain<IoBuf>) {
        self.calls_at_delivery.set(alloc_calls());
        self.deliveries.set(self.deliveries.get() + 1);
        self.bytes.set(self.bytes.get() + data.len());
    }
}

/// Sender: holds the connection; never receives.
#[derive(Default)]
struct Source {
    conn: RefCell<Option<TcpConn>>,
}

impl ConnHandler for Source {
    fn on_connected(&self, conn: &TcpConn) {
        *self.conn.borrow_mut() = Some(conn.clone());
    }

    fn on_receive(&self, _conn: &TcpConn, _data: Chain<IoBuf>) {}
}

#[test]
fn a_data_frames_trip_calls_the_allocator_zero_times() {
    const PAYLOAD: usize = 1200;
    const WARM: u32 = 64;
    const MEASURED: u32 = 16;
    let lan = Lan::new();
    let w = &lan.world;
    let vm = CostProfile::ebbrt_vm;
    let rx_ip = Ipv4Addr::new(10, 0, 9, 1);
    let (rx_m, _rx_if) = lan.machine("rx", 1, vm(), [0xA0; 6], rx_ip);
    let (tx_m, _tx_if) = lan.machine("tx", 1, vm(), [0xB0; 6], Ipv4Addr::new(10, 0, 9, 2));
    w.run_to_idle();

    let sink = Rc::new(Sink::default());
    spawn_with(&rx_m, CoreId(0), Rc::clone(&sink), |sink| {
        local_netif()
            .listen(7000, move |_| Rc::clone(&sink) as Rc<dyn ConnHandler>)
            .expect("port free");
    });
    let source = Rc::new(Source::default());
    spawn_with(&tx_m, CoreId(0), Rc::clone(&source), move |source| {
        local_netif().connect(rx_ip, 7000, source as Rc<dyn ConnHandler>);
    });
    w.run_to_idle();
    assert!(source.conn.borrow().is_some(), "handshake completed");

    let mut body = MutIoBuf::with_capacity(PAYLOAD);
    body.append(PAYLOAD).fill(0x5a);
    let body = body.freeze();
    // One trip: the count is read inside the sending event, right
    // before `send`, and again on entry to the receiver's `on_receive`.
    let calls_at_send = Rc::new(Cell::new(0u64));
    let trip = || {
        let seen = sink.deliveries.get();
        let args = (Rc::clone(&source), body.clone(), Rc::clone(&calls_at_send));
        spawn_with(&tx_m, CoreId(0), args, |(source, body, calls_at_send)| {
            let frame = Chain::single(body);
            let conn = source.conn.borrow();
            calls_at_send.set(alloc_calls());
            conn.as_ref()
                .expect("connected")
                .send(frame)
                .expect("window open");
        });
        while sink.deliveries.get() == seen {
            assert!(w.step(), "frame lost");
        }
        let calls = sink.calls_at_delivery.get() - calls_at_send.get();
        // Let the ACK and the timers it moves settle before the next.
        w.run_to_idle();
        calls
    };
    for _ in 0..WARM {
        trip();
    }
    let calls: Vec<u64> = (0..MEASURED).map(|_| trip()).collect();
    assert_eq!(sink.bytes.get(), (WARM + MEASURED) as usize * PAYLOAD);
    assert_eq!(
        calls,
        vec![0; MEASURED as usize],
        "allocator calls between send() and on_receive(), per trip"
    );
}

/// Measured on this tree: 0.002 calls per request. The load
/// generator's arrival timer, which was 1.0 of the 1.002 this test
/// read while one-shot closures were boxed, now holds only its
/// connection and is stored in the timer's own slot. Before spilled
/// chains reused their slot arrays (and the idle pass its handler
/// snapshot) this test measured 1.198, and 13.351 before the data
/// path's first allocator work. The ceiling is the measured value plus
/// 0.1 — one call per ten requests — which a boxed event per request, a
/// spine allocated per reply or one per idle pass would break.
const CALLS_PER_REQ_CEILING: f64 = 0.102;

#[test]
fn a_warmed_get_world_stays_under_the_per_request_ceiling() {
    const WARM: u64 = 4_000;
    const MEASURED: u64 = 8_000;
    // One server core, one client core, four connections of eight
    // outstanding GETs, offered just under what the server sustains so
    // the pipeline depth, not the arrival clock, paces the loop.
    let mut cfg = ExperimentConfig::new(1, CostProfile::ebbrt_vm(), 600_000);
    cfg.client_cores = 1;
    cfg.connections = 4;
    cfg.pipeline = 8;
    cfg.get_ratio = 1.0;
    cfg.nkeys = 1024;
    cfg.warmup_ns = 1_000_000;
    cfg.duration_ns = u64::MAX / 2; // the request count ends the run
    let experiment = mutilate::build(&cfg);
    let w = experiment.world();
    let run_to = |completed: u64| {
        while experiment.completed() < completed {
            assert!(w.step(), "world went idle under load");
        }
    };
    run_to(WARM);
    let before = alloc_calls();
    run_to(WARM + MEASURED);
    let per_req = (alloc_calls() - before) as f64 / MEASURED as f64;
    println!("allocator calls per request: {per_req:.3}");
    assert!(
        per_req <= CALLS_PER_REQ_CEILING,
        "{per_req:.3} allocator calls per request, ceiling {CALLS_PER_REQ_CEILING}"
    );
}

// --- The function-shipped path ------------------------------------------

use ebbrt_apps::memcached::{self, Client, Header, Workload};
use ebbrt_bench::dist_memcached::{self, shard_ip};
use ebbrt_core::clock::Ns;
use ebbrt_core::iobuf::stats;

/// A memcached workload with one request outstanding: notes the
/// allocator count when the reply has landed.
#[derive(Default)]
struct OneAtATime {
    replies: Cell<u32>,
    calls_at_reply: Cell<u64>,
    status: Cell<u16>,
}

impl Workload for OneAtATime {
    fn on_reply(&self, _client: &Client<Self>, h: &Header, _value: Chain<IoBuf>, _latency: Ns) {
        self.calls_at_reply.set(alloc_calls());
        self.status.set(h.status);
        self.replies.set(self.replies.get() + 1);
    }
}

/// Connects a [`OneAtATime`] client on `client_m` to shard 0.
fn connect_client(w: &Rc<SimWorld>, client_m: &Rc<SimMachine>) -> Rc<Client<OneAtATime>> {
    let client = Client::spawn(client_m, CoreId(0), shard_ip(0), OneAtATime::default());
    w.run_to_idle();
    client
}

/// One request/response: allocator calls between the client's `send`
/// and the arrival of the response's last byte — every machine the
/// request visits in between included. `frame` is a pooled receive-
/// buffer-sized region, as a NIC would hand it up.
fn round_trip(
    w: &Rc<SimWorld>,
    client_m: &Rc<SimMachine>,
    client: &Rc<Client<OneAtATime>>,
    frame: &IoBuf,
) -> u64 {
    let seen = client.workload.replies.get();
    let calls_at_send = Rc::new(Cell::new(0u64));
    let args = (Rc::clone(client), frame.clone(), Rc::clone(&calls_at_send));
    spawn_with(
        client_m,
        CoreId(0),
        args,
        |(client, frame, calls_at_send)| {
            calls_at_send.set(alloc_calls());
            client.send(Chain::single(frame)).expect("window open");
        },
    );
    while client.workload.replies.get() == seen {
        assert!(w.step(), "request lost");
    }
    let client = &client.workload;
    let calls = client.calls_at_reply.get() - calls_at_send.get();
    assert_eq!(client.status.get(), memcached::STATUS_OK);
    // ACKs, delayed-ACK and RPC-timeout cancellations settle outside
    // the measured window.
    w.run_to_idle();
    calls
}

/// `bytes` in a pooled buffer.
fn pooled(bytes: &[u8]) -> IoBuf {
    let mut b = MutIoBuf::with_capacity(bytes.len());
    b.append(bytes.len()).copy_from_slice(bytes);
    assert!(b.is_pooled());
    b.freeze()
}

// --- The connection lifecycle ---------------------------------------------

/// One connect → GET → close lifecycle after another on one client
/// connection slot: the reply closes the connection, the server's FIN
/// opens the next.
struct Churn {
    get: IoBuf,
    done: Rc<Cell<u32>>,
}

impl Workload for Churn {
    fn on_connected(&self, client: &Client<Self>) {
        client
            .send(Chain::single(self.get.clone()))
            .expect("window open");
    }

    fn on_reply(&self, client: &Client<Self>, h: &Header, _value: Chain<IoBuf>, _latency: Ns) {
        assert_eq!(h.status, memcached::STATUS_OK);
        client.close();
    }

    fn on_close(&self, _client: &Client<Self>) {
        self.done.set(self.done.get() + 1);
        let next = Churn {
            get: self.get.clone(),
            done: Rc::clone(&self.done),
        };
        Client::new(next).open(CHURN_SERVER_IP, memcached::MEMCACHED_PORT);
    }
}

const CHURN_SERVER_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 8, 1);

/// Measured on this tree: 3.068 allocator calls per lifecycle, both
/// machines together —
///
/// | site | calls |
/// |---|---:|
/// | `Rc<Client>` + its in-flight `VecDeque` (client application) | 2 |
/// | `Rc<ServerConn>` (server application) | 1 |
/// | server's demux node: its predecessors wait out LastAck (200 ms, longer than the run), so no retired block is free; the next unused block of a 32-block chunk | 0.03 |
/// | client's demux node: the block its last connection retired | 0 |
/// | server's PCB: one chunk of 32 cells | 0.03 |
/// | client's PCB: the cell of the slab index its last connection freed | 0 |
/// | retire + reclaim, RTO timer entries, retransmit queues, accept placeholder | 0 |
/// | `Vec` doublings (server slab, wheel, chunk list) and the demux table's (bucket arrays only), amortised | 0.01 |
///
/// The parent of the change that added this test measures 18.295 with
/// the same test (two blocks per demux entry, a boxed snapshot and a
/// boxed destructor per retirement, a vector per reclaim pass, a boxed
/// timer closure, a retransmit buffer and an `Rc` PCB per end, an `Rc`
/// placeholder per accept, every node cloned at a table doubling), and
/// 4.041 with one `Box` per demux node. The ceiling is the measured
/// value plus one.
const CALLS_PER_LIFECYCLE_CEILING: f64 = 4.068;

#[test]
fn a_warmed_connect_get_close_lifecycle_stays_under_the_allocator_ceiling() {
    const WARM: u32 = 300;
    const MEASURED: u32 = 1_200;
    let lan = Lan::new();
    let w = &lan.world;
    let vm = CostProfile::ebbrt_vm;
    let (server_m, s_if) = lan.machine("server", 1, vm(), [0xA8; 6], CHURN_SERVER_IP);
    let (client_m, c_if) = lan.machine("client", 1, vm(), [0xB8; 6], Ipv4Addr::new(10, 0, 8, 2));
    let store = memcached::serve_on(&server_m);
    store.insert_raw(b"k".to_vec(), IoBuf::copy_from(b"v"));
    w.run_to_idle();

    let done = Rc::new(Cell::new(0));
    let first = Churn {
        get: pooled(&memcached::encode_get(b"k", 1)),
        done: Rc::clone(&done),
    };
    Client::spawn(&client_m, CoreId(0), CHURN_SERVER_IP, first);
    let run_to = |lifecycles: u32| {
        while done.get() < lifecycles {
            assert!(w.step(), "world went idle mid-churn");
        }
    };
    run_to(WARM);
    let before = alloc_calls();
    run_to(WARM + MEASURED);
    let per_lifecycle = (alloc_calls() - before) as f64 / MEASURED as f64;
    println!("allocator calls per connection lifecycle: {per_lifecycle:.3}");
    assert_eq!(c_if.conn_count(), 1, "the client keeps only the open one");
    assert!(
        s_if.conn_count() > MEASURED as usize,
        "the server's closed connections are still waiting out LastAck: this asserts a \
         known bug, the missing final ACK (ROADMAP direction 4(b)); fixing it flips this \
         assertion"
    );
    assert!(
        per_lifecycle <= CALLS_PER_LIFECYCLE_CEILING,
        "{per_lifecycle:.3} allocator calls per lifecycle, ceiling {CALLS_PER_LIFECYCLE_CEILING}"
    );
}

fn shard_counters(shards: &[Rc<SimMachine>]) -> stats::Snapshot {
    stats::world_snapshot(shards.iter().map(|m| &**m.runtime()))
}

/// Measured on this tree: 0 allocator calls per function-shipped GET
/// round trip (client → front end → owner → front end → client).
/// Nothing on the path allocates: the proxy's reply continuation, the
/// messenger's waiter, its timeout's timer callback and the flush hook
/// the call is staged behind each live in their `OnceFn`'s own words,
/// and the in-flight call waits in the transport's map, which keeps its
/// capacity. With those four boxed this test read 4; the parent of the
/// change that added it measures 25. The ceiling is the measured value
/// plus one.
const SHIPPED_GET_CALLS_CEILING: u64 = 1;

#[test]
fn a_shipped_get_copies_nothing_and_stays_under_the_allocator_ceiling() {
    const WARM: u32 = 64;
    const MEASURED: u32 = 16;
    const VALUE_LEN: usize = 512;
    let c = dist_memcached::build_replicated(2, 1, 1);
    let key = dist_memcached::key_for_range(&c.ring, 1, 1);
    let value = vec![0xC5u8; VALUE_LEN];
    let client = connect_client(&c.w, &c.client);
    // The SET ships too: the key's shard is machine 1.
    let set = pooled(&memcached::encode_set(&key, &value, 1));
    round_trip(&c.w, &c.client, &client, &set);
    let stored = c.stores[1].get_raw(&key).expect("stored on its owner");
    assert_eq!(stored.len(), VALUE_LEN);

    let get = pooled(&memcached::encode_get(&key, 2));
    let trip = || round_trip(&c.w, &c.client, &client, &get);
    // (The store, its delta log and this test hold the value.)
    let holders = stored.seg(0).ref_count();
    for _ in 0..WARM {
        trip();
    }
    let owner_gets = c.stores[1].gets.load(std::sync::atomic::Ordering::Relaxed);
    let before = shard_counters(&c.shards);
    let calls: Vec<u64> = (0..MEASURED).map(|_| trip()).collect();
    let delta = shard_counters(&c.shards).since(&before);
    assert_eq!(
        c.stores[1].gets.load(std::sync::atomic::Ordering::Relaxed) - owner_gets,
        MEASURED as u64,
        "every GET was served by the owner"
    );
    println!("allocator calls per shipped GET round trip: {calls:?}");
    assert!(
        calls.iter().all(|&n| n <= SHIPPED_GET_CALLS_CEILING),
        "allocator calls per shipped GET {calls:?}, ceiling {SHIPPED_GET_CALLS_CEILING}"
    );
    assert_eq!(
        (delta.bytes_copied, delta.bufs_allocated),
        (0, 0),
        "front end and owner together: no value byte copied, no region outside the pools"
    );
    // The value the client got is the owner's stored buffer, by
    // descriptor all the way — and once the responses are
    // acknowledged, every one of those descriptors has been dropped.
    assert_eq!(stored.seg(0).ref_count(), holders);
}

#[test]
fn a_shipped_set_is_copied_once_where_it_comes_to_rest() {
    const VALUE_LEN: usize = 128;
    let c = dist_memcached::build_replicated(3, 2, 1);
    // A range machine 0 (the front end) holds no replica of: its SETs
    // function-ship to the range's fronting machine, which applies and
    // fans out to the other replica.
    let range = (0..3)
        .find(|r| !c.roots[0].contains_key(r))
        .expect("R=2 of 3: one range is elsewhere");
    let replicas: Vec<usize> = (0..3)
        .filter(|&m| c.roots[m].contains_key(&range))
        .collect();
    assert_eq!(replicas.len(), 2);
    let client = connect_client(&c.w, &c.client);
    // Each request arrives in a receive-buffer-sized pooled region, so
    // a 128-byte value stored as a view of it would pin 2 KiB.
    let frames: Vec<(Vec<u8>, IoBuf)> = (0..24)
        .map(|i| {
            let key = dist_memcached::key_for_range(&c.ring, range, i);
            let value = vec![i as u8; VALUE_LEN];
            let frame = pooled(&memcached::encode_set(&key, &value, i as u32));
            (key, frame)
        })
        .collect();
    let (warm, measured) = frames.split_at(16);
    for (_, frame) in warm {
        round_trip(&c.w, &c.client, &client, frame);
    }
    let per_machine = |m: usize| stats::runtime_snapshot(c.shards[m].runtime());
    let before: Vec<_> = (0..3).map(per_machine).collect();
    for (_, frame) in measured {
        round_trip(&c.w, &c.client, &client, frame);
    }
    let n = measured.len() as u64;
    let delta: Vec<_> = (0..3).map(|m| per_machine(m).since(&before[m])).collect();
    // The front end forwards the value as the view it received; the
    // replica that fronts the range brings it to rest — one copy, into
    // one exact-size region (the only buffer outside the pools on the
    // whole path); its fan-out links that region, and the second
    // replica keeps a descriptor of it (the simulated wire hands
    // buffers across by descriptor): at most one copy per apply, one
    // per SET in all.
    assert_eq!((delta[0].bytes_copied, delta[0].bufs_allocated), (0, 0));
    let mut at_rest: Vec<(u64, u64)> = replicas
        .iter()
        .map(|&m| (delta[m].bytes_copied, delta[m].bufs_allocated))
        .collect();
    at_rest.sort_unstable();
    assert_eq!(at_rest, [(0, 0), (n * VALUE_LEN as u64, n)]);
    for (key, _) in measured {
        for &m in &replicas {
            let stored = c.stores[m].get_raw(key).expect("on every replica");
            assert_eq!(stored.len(), VALUE_LEN);
            assert_eq!(
                stored.pinned_bytes(),
                VALUE_LEN,
                "machine {m}: at rest in a buffer of its size, not pinning the one it arrived in"
            );
        }
    }
}

/// Measured on this tree: 0 allocator calls per warmed replicated SET
/// round trip (client → front end → the range's fronting replica, which
/// applies, fans out to the other replica and acknowledges → front end
/// → client), every SET replacing a key the cluster holds. By site
/// (backtrace-attributed), beside the parent of the change that added
/// this test:
///
/// | site | parent | this tree |
/// |---|---:|---:|
/// | `IoBuf::gather`: the value's region on the fronting replica (`at_rest`; now of its value class, the one the replaced value left) | 1 | 0 |
/// | the store's key on each replica (`to_vec`; now the replaced entry's, moved) | 2 | 0 |
/// | the delta log's key on each replica (now refilled in the entry it evicts) | 2 | 0 |
/// | the fan-out's target `Vec` (now a fan-out record's, kept) | 1 | 0 |
/// | the fan-out's shared countdown `Rc` (now the record's) | 1 | 0 |
/// | RCU blocks, the shipped call and its reply, the messenger's waiter and timer | 0 | 0 |
///
/// The ceiling is the measured value plus one: a key copied again or a
/// fan-out boxed breaks it.
const SHIPPED_SET_CALLS_CEILING: u64 = 1;

#[test]
fn a_warmed_replicated_set_stays_under_the_allocator_ceiling() {
    const KEYS: usize = 8;
    const WARM: usize = 8 * KEYS;
    const MEASURED: usize = 2 * KEYS;
    let c = dist_memcached::build_replicated(3, 2, 1);
    // A range machine 0 (the front end) holds no replica of: its SETs
    // ship to the range's fronting machine, which fans out to the other.
    let range = (0..3)
        .find(|r| !c.roots[0].contains_key(r))
        .expect("R=2 of 3: one range is elsewhere");
    let client = connect_client(&c.w, &c.client);
    let frames: Vec<IoBuf> = (0..WARM + MEASURED)
        .map(|i| {
            // Keys of differing lengths, each written again and again.
            let key = dist_memcached::key_for_range(&c.ring, range, i % KEYS);
            let value = vec![i as u8; 64 + 8 * (i % KEYS)];
            pooled(&memcached::encode_set(&key, &value, i as u32))
        })
        .collect();
    let (warm, measured) = frames.split_at(WARM);
    for frame in warm {
        round_trip(&c.w, &c.client, &client, frame);
    }
    let calls: Vec<u64> = measured
        .iter()
        .map(|frame| round_trip(&c.w, &c.client, &client, frame))
        .collect();
    println!("allocator calls per replicated SET round trip: {calls:?}");
    assert!(
        calls.iter().all(|&n| n <= SHIPPED_SET_CALLS_CEILING),
        "allocator calls per replicated SET {calls:?}, ceiling {SHIPPED_SET_CALLS_CEILING}"
    );
    for m in (0..3).filter(|&m| c.roots[m].contains_key(&range)) {
        assert_eq!(c.stores[m].len(), KEYS, "machine {m} holds every key once");
    }
}

// --- Values at rest and split requests --------------------------------------

use ebbrt_apps::memcached::Store;
use ebbrt_core::iobuf::{pool, Buf};

/// `len` bytes of `fill` as a view of a pooled receive-sized region —
/// what a SET's value looks like before it comes to rest.
fn received_value(len: usize, fill: u8) -> Chain<IoBuf> {
    let mut b = MutIoBuf::with_capacity(pool::SMALL_CAPACITY);
    b.append(len).fill(fill);
    let v = Chain::single(b.freeze());
    assert!(v.pinned_bytes() > pool::value_capacity(len));
    v
}

#[test]
fn a_compacted_value_takes_the_smallest_value_class_that_fits() {
    for (len, region) in [
        (1, 16),
        (16, 16),
        (17, 32),
        (128, 128),
        (129, 160),
        (1024, 1024),
        (1025, 1025),
    ] {
        let mut v = received_value(len, len as u8);
        let before = stats::snapshot();
        v.compact();
        let d = stats::snapshot().since(&before);
        assert_eq!((v.len(), v.segment_count()), (len, 1));
        assert_eq!(v.seg(0).region_len(), region, "a {len}-byte value");
        // Pooled up to the largest value class, exact beyond.
        match pool::value_class_for(len) {
            Some(class) => {
                assert_eq!(class.capacity(), region);
                assert_eq!(d.class(class).hits + d.class(class).fallback_allocs, 1);
            }
            None => assert_eq!((len, d.pool_hits, d.bufs_allocated), (1025, 0, 1)),
        }
        assert!(v.seg(0).bytes().iter().all(|&b| b == len as u8));
        // Compacting a compacted value copies and allocates nothing.
        let (before, calls) = (stats::snapshot(), alloc_calls());
        v.compact();
        assert_eq!((stats::snapshot(), alloc_calls()), (before, calls));
        assert_eq!(v.seg(0).region_len(), region);
    }
}

#[test]
fn a_value_reclaimed_after_its_grace_period_is_the_next_ones_region() {
    let lan = Lan::new();
    let (m, _) = lan.machine(
        "store",
        1,
        CostProfile::ebbrt_vm(),
        [0xAE; 6],
        Ipv4Addr::new(10, 0, 6, 1),
    );
    lan.world.run_to_idle();
    let store = Store::new(std::sync::Arc::clone(m.runtime().rcu()));
    let first_at = Rc::new(Cell::new(0usize));
    // Two SETs of one key: the second replaces the first, whose region
    // goes back to core 0's list once its grace period ends.
    let args = (std::sync::Arc::clone(&store), Rc::clone(&first_at));
    spawn_with(&m, CoreId(0), args, |(store, first_at)| {
        let first = memcached::at_rest(received_value(100, 1));
        first_at.set(first.seg(0).bytes().as_ptr() as usize);
        store.insert_chain(b"k", first);
        store.insert_chain(b"k", memcached::at_rest(received_value(100, 2)));
    });
    lan.world.run_to_idle();
    let third = Rc::new(Cell::new((0usize, u64::MAX)));
    spawn_with(&m, CoreId(0), Rc::clone(&third), |third| {
        let value = received_value(100, 3);
        let before = alloc_calls();
        let rest = memcached::at_rest(value);
        let calls = alloc_calls() - before;
        third.set((rest.seg(0).bytes().as_ptr() as usize, calls));
    });
    lan.world.run_to_idle();
    let (at, calls) = third.get();
    assert_eq!(calls, 0, "the next 112-byte value makes no allocator call");
    assert_eq!(
        at,
        first_at.get(),
        "it lands in the reclaimed value's region"
    );
}

const SPLIT_SERVER_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 7, 1);

/// Measured on this tree: 0 allocator calls per warmed 8 KiB SET whose
/// request arrives in two bursts (the server parks the first half in
/// the connection's cold box). The cold box now comes from, and goes
/// back to, the core's free list; the parent of the change that added
/// this test made one call per SET for it.
#[test]
fn a_warmed_set_split_across_two_bursts_calls_the_allocator_zero_times() {
    const WARM: u32 = 32;
    const MEASURED: u32 = 16;
    const VALUE_LEN: usize = 8 * 1024;
    let lan = Lan::new();
    let w = &lan.world;
    let vm = CostProfile::ebbrt_vm;
    let (server_m, _s_if) = lan.machine("server", 1, vm(), [0xAD; 6], SPLIT_SERVER_IP);
    let (client_m, _c_if) = lan.machine("client", 1, vm(), [0xBD; 6], Ipv4Addr::new(10, 0, 7, 2));
    let store = memcached::serve_on(&server_m);
    w.run_to_idle();
    let client = Client::spawn(&client_m, CoreId(0), SPLIT_SERVER_IP, OneAtATime::default());
    w.run_to_idle();
    let request = memcached::encode_set(b"split", &[0x5A; VALUE_LEN], 1);
    // Each half in receive-sized pooled pieces, so the stored value
    // pins about its own size and stays a zero-copy view.
    let pieces = |half: &[u8]| -> Chain<IoBuf> {
        let mut c = Chain::new();
        for piece in half.chunks(pool::SMALL_CAPACITY) {
            c.push_back(pooled(piece));
        }
        c
    };
    let (head, tail) = request.split_at(request.len() / 2);
    let (head, tail) = (pieces(head), pieces(tail));
    let sets = || store.sets.load(std::sync::atomic::Ordering::Relaxed);
    // Sends `half` from an event on the client, which notes the
    // allocator count as it starts (the harness's boxed spawn closure
    // is made before, outside the counted window).
    let send = |half: &Chain<IoBuf>| {
        let calls_at_send = Rc::new(Cell::new(0u64));
        let args = (Rc::clone(&client), half.clone(), Rc::clone(&calls_at_send));
        spawn_with(&client_m, CoreId(0), args, |(client, half, at)| {
            at.set(alloc_calls());
            client.send(half).expect("window open");
        });
        calls_at_send
    };
    // Counts from each half's send: the first until the world is idle
    // again (the server has parked it), the second until the reply.
    let trip = || {
        let (seen, sets0) = (client.workload.replies.get(), sets());
        let at_head = send(&head);
        w.run_to_idle();
        let head_calls = alloc_calls() - at_head.get();
        assert_eq!(sets(), sets0, "the first half parks: no SET yet");
        let at_tail = send(&tail);
        while client.workload.replies.get() == seen {
            assert!(w.step(), "request lost");
        }
        assert_eq!(client.workload.status.get(), memcached::STATUS_OK);
        assert_eq!(sets(), sets0 + 1);
        let calls = head_calls + client.workload.calls_at_reply.get() - at_tail.get();
        w.run_to_idle();
        calls
    };
    for _ in 0..WARM {
        trip();
    }
    let calls: Vec<u64> = (0..MEASURED).map(|_| trip()).collect();
    println!("allocator calls per split 8 KiB SET round trip: {calls:?}");
    assert!(
        calls.iter().all(|&n| n == 0),
        "allocator calls per split SET {calls:?}"
    );
    let stored = store.get_raw(b"split").expect("stored");
    assert_eq!(stored.len(), VALUE_LEN);
    assert!(
        stored.segment_count() > 1,
        "stored as received, not compacted"
    );
}
