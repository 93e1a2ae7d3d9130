//! The five workloads: their parameters and the simulated worlds they
//! run in. Every machine uses `CostProfile::ebbrt_vm()` on one switch
//! with default links (the cluster's naming machine, assembled by
//! `ebbrt_bench::dist_memcached`, is the one exception: it is a Linux
//! VM, as in that harness).

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use ebbrt_apps::memcached::{
    ServerConfig, ServerConn, ShardConfig, ShardedServerConn, Store, MEMCACHED_PORT,
};
use ebbrt_apps::spawn_with;
use ebbrt_bench::dist_memcached;
use ebbrt_core::cpu::CoreId;
use ebbrt_core::iobuf::{Chain, IoBuf};
use ebbrt_hosted::messenger::Messenger;
use ebbrt_hosted::remote::MessengerTransport;
use ebbrt_net::netif::{local_netif, ConnHandler, NetIf};
use ebbrt_net::types::Ipv4Addr;
use ebbrt_sim::{CostProfile, LinkParams, SimMachine, SimWorld, Switch};

use crate::gen::{make_keys, KeyLen, ValueLen, Values};
use crate::load::{ChurnSlot, IdleHerd, McClient, ServerShim, Shared};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// One memcached server, one client machine.
    Single,
    /// `dist_memcached::build_replicated` 3 shards × R = 2; the client
    /// talks to shard 0.
    Cluster,
    /// One server holding `idle_conns` idle connections from a holder
    /// machine; the client machine churns connections.
    Churn,
}

pub struct Params {
    pub name: &'static str,
    /// One line on why the workload exists (`BENCHMARK.json`).
    pub why: &'static str,
    pub shape: Shape,
    pub conns: usize,
    /// Outstanding requests per connection.
    pub depth: usize,
    pub client_cores: usize,
    pub nkeys: usize,
    pub get_ratio: f64,
    pub key_len: KeyLen,
    pub value_len: ValueLen,
    /// Open loop: offered requests per virtual second. `None` is a
    /// closed loop.
    pub open_rps: Option<u64>,
    /// Replies later than this (virtual ns) count as failed.
    pub limit_ns: Option<u64>,
    pub idle_conns: usize,
    /// Measured requests per round: calibrated once on the reference
    /// machine so that a round measures for about a quarter of a second
    /// of host time (`--seconds 10` is forty rounds), then frozen. A count, not a
    /// duration, so every count and virtual-time figure repeats for a
    /// seed.
    pub reqs_per_round: u64,
    /// Warm-up requests of a round (discarded).
    pub warmup: u64,
}

pub const WORKLOAD_PARAMS: [Params; 5] = [
    Params {
        name: "get_pipe",
        why: "closed loop, pipelined small GETs on one core: per-packet net+apps+iobuf cost, ~2 sim steps/req",
        shape: Shape::Single,
        conns: 4,
        depth: 8,
        client_cores: 1,
        nkeys: 1024,
        get_ratio: 1.0,
        // 32 B keys and 64 B values nominal; per-key lengths keep seeds
        // distinguishable in virtual time (equal-shaped requests make
        // the closed loop settle into the same cycle for every seed).
        key_len: KeyLen::Range(24, 40),
        value_len: ValueLen::PerKey(16, 240),
        open_rps: None,
        limit_ns: None,
        idle_conns: 0,
        reqs_per_round: 80_000,
        warmup: 20_000,
    },
    Params {
        name: "etc_open",
        why: "open loop Poisson 200k req/s ETC mix from an 8-core client (Fig. 5): sim/event-loop idle polling dominates host time",
        shape: Shape::Single,
        conns: 16,
        depth: 4,
        client_cores: 8,
        nkeys: 2000,
        get_ratio: 0.9,
        key_len: KeyLen::Range(20, 70),
        value_len: ValueLen::Etc,
        open_rps: Some(200_000),
        limit_ns: Some(500_000),
        idle_conns: 0,
        reqs_per_round: 8_000,
        warmup: 2_000,
    },
    Params {
        name: "set_large",
        why: "closed loop 70% SET / 30% GET of 8 KiB values: reassembly, segmentation, large size class, RCU replace",
        shape: Shape::Single,
        conns: 4,
        depth: 2,
        client_cores: 1,
        nkeys: 256,
        get_ratio: 0.3,
        key_len: KeyLen::Fixed(32),
        value_len: ValueLen::Fixed(8192),
        open_rps: None,
        limit_ns: None,
        idle_conns: 0,
        reqs_per_round: 16_000,
        warmup: 3_000,
    },
    Params {
        name: "shard_remote",
        why: "closed loop against a 3-shard R=2 cluster: function-shipped GET/SET over the messenger, batching, fan-out",
        shape: Shape::Cluster,
        conns: 4,
        depth: 4,
        client_cores: 1,
        nkeys: 1024,
        get_ratio: 0.8,
        key_len: KeyLen::Fixed(32),
        value_len: ValueLen::Fixed(128),
        open_rps: None,
        limit_ns: None,
        idle_conns: 0,
        reqs_per_round: 16_000,
        warmup: 3_000,
    },
    Params {
        name: "conn_churn",
        why: "closed loop connect/GET/close lifecycles beside 10000 idle conns: handshake, teardown, slab, timer wheel",
        shape: Shape::Churn,
        conns: 8,
        depth: 1,
        client_cores: 1,
        nkeys: 1024,
        get_ratio: 1.0,
        key_len: KeyLen::Range(24, 40),
        value_len: ValueLen::PerKey(16, 240),
        open_rps: None,
        limit_ns: None,
        idle_conns: 10_000,
        // Smaller rounds than the others: past about 10 000 lifecycles
        // a world's cost per lifecycle falls into one of two regimes
        // depending on the seed, and a median over rounds would flip
        // between them.
        reqs_per_round: 6_000,
        warmup: 3_000,
    },
];

pub fn params(name: &str) -> Option<&'static Params> {
    WORKLOAD_PARAMS.iter().find(|p| p.name == name)
}

/// One machine and its network stack.
pub struct Node {
    pub m: Rc<SimMachine>,
    pub nif: Rc<NetIf>,
}

/// A built world, connected and idle, ready for its first phase.
pub struct World {
    pub w: Rc<SimWorld>,
    pub sw: Rc<Switch>,
    /// Machines that serve memcached (one, or the three shards).
    pub servers: Vec<Node>,
    /// The machine that generates load.
    pub clients: Vec<Node>,
    /// Everything else (idle-connection holder, naming machine).
    pub others: Vec<Node>,
    pub messengers: Vec<Rc<Messenger>>,
    pub transports: Vec<Rc<MessengerTransport>>,
    pub sh: Rc<Shared>,
    /// Switch port of the (front-end) server, for frame capture.
    pub server_port: usize,
    /// Whether keys must first be written through the front end.
    pub needs_populate: bool,
    /// Spawns, on each client core, the event that starts every
    /// connection's share of the phase just armed.
    kick: Box<dyn Fn()>,
}

impl World {
    pub fn kick(&self) {
        (self.kick)();
    }

    pub fn nodes(&self) -> impl Iterator<Item = &Node> {
        self.servers
            .iter()
            .chain(self.clients.iter())
            .chain(self.others.iter())
    }

    /// Captures up to `max` frames bound for the front-end server (a
    /// drop filter that drops nothing). Call [`World::stop_capture`]
    /// before measuring.
    pub fn start_capture(&self, max: usize) -> Rc<RefCell<Vec<Chain<IoBuf>>>> {
        let got = Rc::new(RefCell::new(Vec::new()));
        let sink = Rc::clone(&got);
        self.sw.set_drop_filter(self.server_port, move |f| {
            let mut v = sink.borrow_mut();
            if v.len() < max {
                v.push(f.data.clone());
            }
            false
        });
        got
    }

    pub fn stop_capture(&self) {
        self.sw.clear_drop_filter(self.server_port);
    }
}

const MASK: Ipv4Addr = Ipv4Addr([255, 255, 255, 0]);
const SERVER_IP: Ipv4Addr = Ipv4Addr([10, 0, 0, 1]);
const CLIENT_IP: Ipv4Addr = Ipv4Addr([10, 0, 0, 2]);
const HOLDER_IP: Ipv4Addr = Ipv4Addr([10, 0, 0, 3]);
/// The cluster front end's shimmed listener (the harness already
/// bound the memcached port to the unshimmed handler).
const SHIM_PORT: u16 = MEMCACHED_PORT + 100;

fn machine(
    w: &Rc<SimWorld>,
    sw: &Rc<Switch>,
    name: &str,
    cores: usize,
    mac: u8,
) -> (Rc<SimMachine>, usize) {
    let m = SimMachine::create(
        w,
        name,
        cores,
        CostProfile::ebbrt_vm(),
        [mac, 0, 0, 0, 0, 1],
    );
    let port = sw.attach(m.nic(), LinkParams::default());
    (m, port)
}

/// The stack of a machine assembled elsewhere.
fn netif_of(m: &Rc<SimMachine>) -> Rc<NetIf> {
    let _g = ebbrt_core::runtime::enter(Arc::clone(m.runtime()), CoreId(0));
    local_netif()
}

fn shared(p: &Params, seed: u64) -> Rc<Shared> {
    let keys = make_keys(seed, p.nkeys, p.key_len);
    let values = Values {
        seed,
        len: p.value_len,
    };
    Shared::new(
        seed,
        keys,
        values,
        p.get_ratio,
        p.open_rps.is_some(),
        p.limit_ns,
    )
}

/// Starts a shimmed memcached listener on `server` whose store holds
/// version 0 of every key.
fn serve_single(w: &Rc<SimWorld>, server: &Rc<SimMachine>, sh: &Shared) {
    let store = Store::new(Arc::clone(server.runtime().rcu()));
    for (i, key) in sh.keys.iter().enumerate() {
        let mut v = vec![0u8; sh.values.len_of(i as u32, 0)];
        sh.values.fill_at(i as u32, 0, 0, &mut v);
        store.insert_raw(key.clone(), IoBuf::copy_from(&v));
    }
    spawn_with(server, CoreId(0), store, |store| {
        local_netif()
            .listen(MEMCACHED_PORT, move |_conn| {
                Rc::new(ServerShim {
                    inner: Rc::new(ServerConn::new(Arc::clone(&store))),
                }) as Rc<dyn ConnHandler>
            })
            .expect("memcached port free");
    });
    w.run_to_idle();
}

/// Connects `p.conns` memcached clients from `client` and returns the
/// phase kick.
fn connect_clients(
    w: &Rc<SimWorld>,
    client: &Rc<SimMachine>,
    p: &Params,
    sh: &Rc<Shared>,
    seed: u64,
    server: Ipv4Addr,
    port: u16,
) -> Box<dyn Fn()> {
    let mean_gap = p.open_rps.map(|rps| 1e9 * p.conns as f64 / rps as f64);
    let conns: Vec<(Rc<McClient>, CoreId)> = (0..p.conns)
        .map(|i| {
            let arrival_seed = seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9);
            (
                McClient::new(sh, p.depth, mean_gap, arrival_seed),
                CoreId((i % p.client_cores) as u32),
            )
        })
        .collect();
    for (c, core) in &conns {
        spawn_with(client, *core, Rc::clone(c), move |c| {
            local_netif().connect(server, port, c as Rc<dyn ConnHandler>);
        });
    }
    w.run_to_idle();
    assert!(
        conns.iter().all(|(c, _)| c.connected()),
        "every client connection must establish"
    );
    let client = Rc::clone(client);
    Box::new(move || {
        for (c, core) in &conns {
            spawn_with(&client, *core, Rc::clone(c), |c| c.kick());
        }
    })
}

pub fn build(p: &Params, seed: u64) -> World {
    match p.shape {
        Shape::Single => build_single(p, seed),
        Shape::Cluster => build_cluster(p, seed),
        Shape::Churn => build_churn(p, seed),
    }
}

fn build_single(p: &Params, seed: u64) -> World {
    let w = SimWorld::new();
    let sw = Switch::new(&w);
    let (server, server_port) = machine(&w, &sw, "server", 1, 0xAA);
    let (client, _) = machine(&w, &sw, "client", p.client_cores, 0xBB);
    let s_if = NetIf::attach(&server, SERVER_IP, MASK);
    let c_if = NetIf::attach(&client, CLIENT_IP, MASK);
    w.run_to_idle();
    let sh = shared(p, seed);
    serve_single(&w, &server, &sh);
    let kick = connect_clients(&w, &client, p, &sh, seed, SERVER_IP, MEMCACHED_PORT);
    World {
        w,
        sw,
        servers: vec![Node {
            m: server,
            nif: s_if,
        }],
        clients: vec![Node {
            m: client,
            nif: c_if,
        }],
        others: Vec::new(),
        messengers: Vec::new(),
        transports: Vec::new(),
        sh,
        server_port,
        needs_populate: false,
        kick,
    }
}

fn build_cluster(p: &Params, seed: u64) -> World {
    let c = dist_memcached::build_replicated(3, 2, 1);
    let sh = shared(p, seed);
    let cfg = ShardConfig {
        view: Arc::clone(&c.views[0]),
        my_shard: 0,
        server: ServerConfig::default(),
    };
    let store = Arc::clone(&c.stores[0]);
    spawn_with(&c.shards[0], CoreId(0), (cfg, store), |(cfg, store)| {
        local_netif()
            .listen(SHIM_PORT, move |_conn| {
                Rc::new(ServerShim {
                    inner: ShardedServerConn::new(cfg.clone(), Arc::clone(&store)),
                }) as Rc<dyn ConnHandler>
            })
            .expect("shim port free");
    });
    c.w.run_to_idle();
    let kick = connect_clients(
        &c.w,
        &c.client,
        p,
        &sh,
        seed,
        dist_memcached::shard_ip(0),
        SHIM_PORT,
    );
    let node = |m: &Rc<SimMachine>| Node {
        m: Rc::clone(m),
        nif: netif_of(m),
    };
    World {
        servers: c.shards.iter().map(node).collect(),
        clients: vec![node(&c.client)],
        others: vec![node(&c.naming)],
        messengers: c.messengers.clone(),
        transports: c.transports.clone(),
        sh,
        server_port: c.shard_ports[0],
        needs_populate: true,
        kick,
        w: c.w,
        sw: c.sw,
    }
}

fn build_churn(p: &Params, seed: u64) -> World {
    let w = SimWorld::new();
    let sw = Switch::new(&w);
    let (server, server_port) = machine(&w, &sw, "server", 1, 0xAA);
    let (client, _) = machine(&w, &sw, "client", p.client_cores, 0xBB);
    let (holder, _) = machine(&w, &sw, "holder", 1, 0xCC);
    let s_if = NetIf::attach(&server, SERVER_IP, MASK);
    let c_if = NetIf::attach(&client, CLIENT_IP, MASK);
    let h_if = NetIf::attach(&holder, HOLDER_IP, MASK);
    w.run_to_idle();
    let sh = shared(p, seed);
    serve_single(&w, &server, &sh);

    let herd = IdleHerd::new(SERVER_IP, MEMCACHED_PORT, p.idle_conns);
    spawn_with(&holder, CoreId(0), Rc::clone(&herd), |h| h.connect_chunk());
    w.run_to_idle();
    assert_eq!(
        herd.established.get(),
        p.idle_conns,
        "every idle connection must establish"
    );
    assert_eq!(s_if.conn_count(), p.idle_conns);

    let slots: Vec<Rc<ChurnSlot>> = (0..p.conns)
        .map(|_| ChurnSlot::new(&sh, SERVER_IP, MEMCACHED_PORT))
        .collect();
    let client2 = Rc::clone(&client);
    let kick = Box::new(move || {
        for s in &slots {
            spawn_with(&client2, CoreId(0), Rc::clone(s), |s| s.kick());
        }
    });
    World {
        w,
        sw,
        servers: vec![Node {
            m: server,
            nif: s_if,
        }],
        clients: vec![Node {
            m: client,
            nif: c_if,
        }],
        others: vec![Node {
            m: holder,
            nif: h_if,
        }],
        messengers: Vec::new(),
        transports: Vec::new(),
        sh,
        server_port,
        needs_populate: false,
        kick,
    }
}
