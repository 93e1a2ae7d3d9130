//! Kernels: host ns per call of one public function of one layer,
//! timed in a tight loop on inputs drawn from the workload's own
//! generated requests and sized to the workload's own state (queue
//! depth, live timers, connections, key count, value size).

use std::cell::Cell;
use std::hint::black_box;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ebbrt_apps::memcached::{self, Header, Store};
use ebbrt_core::clock::ManualClock;
use ebbrt_core::cpu::{self, CoreId};
use ebbrt_core::ebb::EbbId;
use ebbrt_core::event::EventManager;
use ebbrt_core::iobuf::{Chain, IoBuf, MutIoBuf};
use ebbrt_core::rcu::{CoreEpoch, RcuDomain};
use ebbrt_core::rcu_hash::RcuHashMap;
use ebbrt_core::runtime::{self, Runtime};
use ebbrt_core::timer::TimerWheel;
use ebbrt_hosted::messenger::{local_messenger, Messenger};
use ebbrt_net::conn_slab::ConnSlab;
use ebbrt_net::netif::NetIf;
use ebbrt_net::types::Ipv4Addr;
use ebbrt_net::wire;
use ebbrt_sim::{CostProfile, LinkParams, SimMachine, SimWorld, Switch};

use crate::gen::{SplitMix64, Values};
use crate::load::Shared;
use crate::measure::median_quartiles;

/// What the workload's world looked like, for sizing the kernels.
pub struct Sizing {
    /// An outside estimate of the world's scheduler queue depth (the
    /// queue is private): one pending poll per core plus one delivery
    /// per request in flight.
    pub queue_depth: usize,
    /// Live timer entries on the busiest server core.
    pub timer_live: usize,
    /// Connections in the server's PCB slab.
    pub conns: usize,
    /// Frames captured on their way to the server during warm-up.
    pub frames: Vec<Chain<IoBuf>>,
}

const BATCHES: usize = 5;
const BATCH_TIME: Duration = Duration::from_millis(3);

/// Median ns per call of `op` over a few timed batches. The batch
/// size is found first (doubling until a batch lasts [`BATCH_TIME`]),
/// so the clock is read twice per batch, not per call.
fn bench(mut op: impl FnMut()) -> f64 {
    let mut time_batch = |iters: u64| {
        let t = Instant::now();
        for _ in 0..iters {
            op();
        }
        t.elapsed()
    };
    let mut iters = 256;
    while time_batch(iters) < BATCH_TIME {
        iters *= 2;
    }
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| time_batch(iters).as_nanos() as f64 / iters as f64)
        .collect();
    median_quartiles(&samples).0
}

fn world_step_ns(depth: usize) -> f64 {
    let w = SimWorld::new();
    for i in 0..depth as u64 {
        w.schedule_at(u64::MAX / 2 + i, |_| {});
    }
    bench(|| {
        w.schedule_in(1, |_| {});
        black_box(w.step());
    })
}

fn event_dispatch_ns() -> f64 {
    let em = EventManager::new(
        CoreId(0),
        Arc::new(ManualClock::new()),
        Arc::new(CoreEpoch::new()),
    );
    let _bound = cpu::bind(CoreId(0));
    bench(|| {
        em.spawn_local(|| {});
        black_box(em.run_once());
    })
}

fn timer_arm_cancel_ns(live: usize) -> f64 {
    let mut wheel: TimerWheel<u32> = TimerWheel::new(ebbrt_core::clock::DEFAULT_TIMER_TICK_SHIFT);
    let mut rng = SplitMix64::new(live as u64);
    for _ in 0..live {
        // Spread like RTO/delack deadlines: 200 µs .. 200 ms out.
        wheel.schedule(200_000 + rng.below(200_000_000), 0);
    }
    bench(|| {
        let t = wheel.schedule(200_000_000, 0);
        black_box(wheel.remove(t));
    })
}

fn iobuf_cycle_ns(rt: &Arc<Runtime>, len: usize) -> f64 {
    let _g = runtime::enter(Arc::clone(rt), CoreId(0));
    bench(|| {
        let mut b = MutIoBuf::with_capacity(len);
        b.append(len);
        let frozen = b.freeze();
        let clone = frozen.clone();
        black_box((&frozen, &clone));
    })
}

fn rcu_hash_get_ns(keys: &[Vec<u8>], ops: &[(u32, bool)]) -> f64 {
    let domain = Arc::new(RcuDomain::new(1));
    let map: RcuHashMap<Vec<u8>, u64> = RcuHashMap::new(Arc::clone(&domain));
    for (i, k) in keys.iter().enumerate() {
        map.insert(k.clone(), i as u64);
    }
    let _guard = domain.read_guard(CoreId(0));
    let mut i = 0;
    bench(|| {
        i = (i + 1) % ops.len();
        black_box(map.get(&keys[ops[i].0 as usize], |v| *v));
    })
}

fn conn_slab_ns(conns: usize) -> (f64, f64) {
    let mut slab: ConnSlab<u64> = ConnSlab::new();
    let tokens: Vec<u64> = (0..conns.max(1) as u64).map(|i| slab.insert(i)).collect();
    let mut i = 0;
    let get = bench(|| {
        i = (i + 7) % tokens.len();
        black_box(slab.get(tokens[i]));
    });
    let insert_remove = bench(|| {
        let t = slab.insert(7);
        black_box(slab.remove(t));
    });
    (get, insert_remove)
}

/// Parse and build cost of the largest captured frame.
fn wire_ns(frames: &[Chain<IoBuf>]) -> (f64, f64) {
    let Some(frame) = frames.iter().max_by_key(|f| f.len()) else {
        return (0.0, 0.0);
    };
    let parse_all = |frame: &Chain<IoBuf>| {
        let eth = wire::parse_eth(frame)?;
        let mut c = frame.clone();
        c.advance(wire::ETH_HLEN);
        let ip = wire::parse_ipv4(&c)?;
        c.advance(wire::IPV4_HLEN);
        let ok = wire::verify_tcp_checksum(ip.src, ip.dst, &c, c.len() as u16);
        let tcp = wire::parse_tcp(&c)?;
        c.advance(tcp.header_len);
        Some((eth, ip, tcp, c, ok))
    };
    let Some((eth, ip, tcp, payload, ok)) = parse_all(frame) else {
        return (0.0, 0.0);
    };
    assert!(ok, "captured frame must carry a valid TCP checksum");
    let parse = bench(|| {
        black_box(parse_all(black_box(frame)));
    });
    let build = bench(|| {
        let mut hdr = MutIoBuf::with_headroom(0, wire::HEADROOM);
        wire::push_tcp(&mut hdr, ip.src, ip.dst, &tcp, &payload);
        wire::push_ipv4(&mut hdr, &ip, wire::TCP_HLEN + payload.len());
        wire::push_eth(&mut hdr, &eth);
        black_box(hdr.freeze());
    });
    (parse, build)
}

fn codec_ns(keys: &[Vec<u8>], values: &Values, ops: &[(u32, bool)]) -> f64 {
    let bodies: Vec<Vec<u8>> = ops
        .iter()
        .map(|&(k, set)| {
            let mut v = vec![0u8; if set { values.len_of(k, 1) } else { 0 }];
            values.fill_at(k, 1, 0, &mut v);
            v
        })
        .collect();
    let mut i = 0;
    bench(|| {
        i = (i + 1) % ops.len();
        let (k, set) = ops[i];
        let frame = if set {
            memcached::encode_set(&keys[k as usize], &bodies[i], i as u32)
        } else {
            memcached::encode_get(&keys[k as usize], i as u32)
        };
        let hb: &[u8; Header::SIZE] = frame[..Header::SIZE].try_into().expect("sized");
        black_box(Header::decode(hb));
    })
}

/// `(store_get_ns, store_set_ns, ebb_dispatch_ns)` at the workload's
/// key count and value size.
fn store_ns(
    rt: &Arc<Runtime>,
    keys: &[Vec<u8>],
    values: &Values,
    ops: &[(u32, bool)],
) -> (f64, f64, f64) {
    let _g = runtime::enter(Arc::clone(rt), CoreId(0));
    let store = Store::new(Arc::clone(rt.rcu()));
    let vals: Vec<IoBuf> = (0..keys.len() as u32)
        .map(|k| {
            let mut v = vec![0u8; values.len_of(k, 1)];
            values.fill_at(k, 1, 0, &mut v);
            IoBuf::copy_from(&v)
        })
        .collect();
    for (k, v) in keys.iter().zip(&vals) {
        store.insert_raw(k.clone(), v.clone());
    }
    let mut i = 0;
    let get = {
        let _read = rt.rcu().read_guard(CoreId(0));
        bench(|| {
            i = (i + 1) % ops.len();
            black_box(store.get_raw(&keys[ops[i].0 as usize]));
        })
    };
    let set = bench(|| {
        i = (i + 1) % ops.len();
        let k = ops[i].0 as usize;
        {
            // One event's worth: a read-side section around the write,
            // then the loop's reclaim attempt.
            let _read = rt.rcu().read_guard(CoreId(0));
            store.insert_raw(keys[k].clone(), vals[k].clone());
        }
        rt.rcu().try_reclaim();
    });
    let store_ref = store.register(rt);
    let ebb = bench(|| {
        black_box(store_ref.with(|s| s.store().len()));
    });
    (get, set, ebb)
}

/// One `call` round trip between two idle machines: `(host ns, virtual µs)`.
fn messenger_rtt() -> (f64, f64) {
    const WARM: u32 = 32;
    const ROUNDS: u32 = 512;
    let w = SimWorld::new();
    let sw = Switch::new(&w);
    let a = SimMachine::create(&w, "a", 1, CostProfile::ebbrt_vm(), [0xA1; 6]);
    let b = SimMachine::create(&w, "b", 1, CostProfile::ebbrt_vm(), [0xB1; 6]);
    sw.attach(a.nic(), LinkParams::default());
    sw.attach(b.nic(), LinkParams::default());
    let mask = Ipv4Addr::new(255, 255, 255, 0);
    let a_ip = Ipv4Addr::new(10, 0, 2, 1);
    let a_if = NetIf::attach(&a, a_ip, mask);
    let b_if = NetIf::attach(&b, Ipv4Addr::new(10, 0, 2, 2), mask);
    w.run_to_idle();
    let a_msgr = Messenger::start(&a_if);
    let _b_msgr = Messenger::start(&b_if);
    let echo = EbbId(4000);
    let responder = Rc::clone(&a_msgr);
    a_msgr.register(echo, move |src, rpc_id, payload| {
        responder.respond(src, echo, rpc_id, &payload.copy_to_vec());
    });

    fn fire(left: u32, dst: Ipv4Addr, id: EbbId, done: Rc<Cell<u32>>) {
        local_messenger().call_with_timeout(dst, id, &[0u8; 32], 10_000_000, move |r| {
            r.expect("echo peer answers");
            done.set(done.get() + 1);
            if left > 1 {
                fire(left - 1, dst, id, done);
            }
        });
    }
    let done = Rc::new(Cell::new(0u32));
    let run = |rounds: u32| {
        let d = Rc::clone(&done);
        ebbrt_apps::spawn_with(&b, CoreId(0), d, move |d| fire(rounds, a_ip, echo, d));
        let (v0, t0) = (w.now(), Instant::now());
        let target = done.get() + rounds;
        let mut last = v0;
        while done.get() < target && w.step() {
            last = w.now();
        }
        let host = t0.elapsed().as_nanos() as f64 / rounds as f64;
        w.run_to_idle();
        (host, (last - v0) as f64 / rounds as f64 / 1000.0)
    };
    run(WARM);
    run(ROUNDS)
}

/// Runs every kernel on the workload's keys, values and request mix;
/// returns `(metric name, value)`.
pub fn run(sh: &Shared, sizing: &Sizing) -> Vec<(&'static str, f64)> {
    let (keys, values) = (&sh.keys, &sh.values);
    let ops = sh.sample_ops(1024);
    let rt = Runtime::new(1, Arc::new(ManualClock::new()));
    let frame_len = sizing.frames.iter().map(|f| f.len()).max().unwrap_or(64);
    let (slab_get, slab_insert_remove) = conn_slab_ns(sizing.conns);
    let (parse, build) = wire_ns(&sizing.frames);
    let (store_get, store_set, ebb) = store_ns(&rt, keys, values, &ops);
    let (rtt_host, rtt_virt) = messenger_rtt();
    vec![
        ("sim.world.step_ns", world_step_ns(sizing.queue_depth)),
        ("core.event.dispatch_ns", event_dispatch_ns()),
        (
            "core.timer.arm_cancel_ns",
            timer_arm_cancel_ns(sizing.timer_live),
        ),
        ("core.iobuf.cycle_ns", iobuf_cycle_ns(&rt, frame_len)),
        ("core.rcu_hash.get_ns", rcu_hash_get_ns(keys, &ops)),
        ("core.ebb.dispatch_ns", ebb),
        ("net.conn_slab.get_ns", slab_get),
        ("net.conn_slab.insert_remove_ns", slab_insert_remove),
        ("net.wire.parse_ns", parse),
        ("net.wire.build_ns", build),
        ("apps.memcached.codec_ns", codec_ns(keys, values, &ops)),
        ("apps.memcached.store_get_ns", store_get),
        ("apps.memcached.store_set_ns", store_set),
        ("hosted.messenger.rtt_host_ns", rtt_host),
        ("hosted.messenger.rtt_virt_us", rtt_virt),
    ]
}
