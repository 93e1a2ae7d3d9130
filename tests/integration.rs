//! Cross-crate integration tests: the whole system assembled the way
//! the paper deploys it — native library-OS instances plus a hosted
//! process over a simulated network, running the real applications.

use std::cell::Cell;
use std::rc::Rc;
use std::sync::Arc;

use ebbrt_apps::memcached::{self, Burst, Client, Header, Store, Workload};
use ebbrt_apps::spawn_with;
use ebbrt_core::clock::Ns;
use ebbrt_core::cpu::CoreId;
use ebbrt_core::iobuf::{Chain, IoBuf};
use ebbrt_hosted::fs::{fs_ref, FsServer, FS_EBB_ID};
use ebbrt_hosted::global_map::GlobalIdMap;
use ebbrt_hosted::messenger::Messenger;
use ebbrt_hosted::remote::MessengerTransport;
use ebbrt_net::types::Ipv4Addr;
use ebbrt_sim::{CostProfile, Lan};

const MASK: Ipv4Addr = Ipv4Addr::new(255, 255, 255, 0);

/// The paper's canonical deployment: one hosted process, two native
/// instances, one isolated network. The hosted side provides DHCP and
/// the filesystem; a native instance runs memcached; the other native
/// instance acts as the client.
#[test]
fn full_cluster_deployment() {
    let lan = Lan::new();
    let vm = CostProfile::ebbrt_vm;
    let w = &lan.world;

    let hosted_ip = Ipv4Addr::new(10, 0, 0, 1);
    let (_hosted, h_if) = lan.machine("hosted", 2, CostProfile::linux_vm(), [0x0A; 6], hosted_ip);
    // Native instances boot *unconfigured* and acquire addresses over
    // DHCP from the hosted side, like the paper's deployment flow.
    let (native1, n1_if) = lan.machine("native1", 2, vm(), [0x0B; 6], Ipv4Addr::UNSPECIFIED);
    let (native2, n2_if) = lan.machine("native2", 1, vm(), [0x0C; 6], Ipv4Addr::UNSPECIFIED);
    w.run_to_idle();

    let _dhcp = ebbrt_net::dhcp::DhcpServer::start(&h_if, Ipv4Addr::new(10, 0, 0, 50), MASK);
    let configured = Rc::new(Cell::new(0));
    for (machine, netif) in [(&native1, &n1_if), (&native2, &n2_if)] {
        let c = Rc::clone(&configured);
        spawn_with(machine, CoreId(0), Rc::clone(netif), move |netif| {
            ebbrt_net::dhcp::configure(&netif, move |res| {
                res.expect("dhcp must configure");
                c.set(c.get() + 1);
            });
        });
    }
    w.run_to_idle();
    assert_eq!(configured.get(), 2, "both native instances must configure");
    let n1_ip = n1_if.ip();
    assert_ne!(n1_ip, Ipv4Addr::UNSPECIFIED);

    // Hosted filesystem offload: native1 reads its "config" remotely.
    let h_msgr = Messenger::start(&h_if);
    let n1_msgr = Messenger::start(&n1_if);
    let fs_server = FsServer::start(&h_msgr);
    fs_server.put("/srv/memcached.conf", b"max_keys=4096".to_vec());
    MessengerTransport::install(&n1_msgr, GlobalIdMap::new(&n1_msgr, hosted_ip))
        .preset_owner(FS_EBB_ID, hosted_ip);
    let config_read = Rc::new(Cell::new(false));
    {
        let c = Rc::clone(&config_read);
        spawn_with(&native1, CoreId(0), (), move |()| {
            fs_ref().with(|fs| {
                fs.read("/srv/memcached.conf", move |data| {
                    assert_eq!(data.as_deref(), Some(b"max_keys=4096".as_slice()));
                    c.set(true);
                })
            });
        });
    }
    w.run_to_idle();
    assert!(config_read.get(), "offloaded filesystem read must complete");

    // memcached on native1, exercised from native2 over the wire. The
    // store registers as an Ebb; the server resolves its stack through
    // the well-known network-manager id.
    let store = memcached::serve_on(&native1);
    w.run_to_idle();

    let kv = Burst::new(&[
        memcached::encode_set(b"answer", b"42", 1),
        memcached::encode_get(b"answer", 2),
    ]);
    let kv = Client::spawn(&native2, CoreId(0), n1_ip, kv);
    w.run_to_idle();
    assert_eq!(kv.workload.reply(1).0.status, memcached::STATUS_OK);
    assert_eq!(
        kv.workload.reply(2).1,
        b"42",
        "memcached roundtrip across native instances"
    );
    assert_eq!(store.len(), 1);
}

/// Deterministic replay: the same simulated experiment produces the
/// same virtual-time trace, bit for bit.
#[test]
fn simulation_is_deterministic() {
    fn run_once() -> (u64, u64, u64) {
        let lan = Lan::new();
        let vm = CostProfile::ebbrt_vm;
        let w = &lan.world;
        let (server, s_if) = lan.machine("s", 1, vm(), [0xAA; 6], Ipv4Addr::new(10, 0, 9, 1));
        let (client, _c_if) = lan.machine("c", 1, vm(), [0xBB; 6], Ipv4Addr::new(10, 0, 9, 2));
        w.run_to_idle();
        let _store = memcached::serve_on(&server);
        w.run_to_idle();

        /// A SET, then 49 GETs, each sent when the last is answered.
        struct Pinger {
            n: Cell<u32>,
        }
        impl Workload for Pinger {
            fn on_connected(&self, client: &Client<Self>) {
                let req = memcached::encode_set(b"k", b"v", 0);
                client.send(Chain::single(IoBuf::copy_from(&req))).unwrap();
            }
            fn on_reply(&self, client: &Client<Self>, _h: &Header, _v: Chain<IoBuf>, _l: Ns) {
                let n = self.n.get() + 1;
                self.n.set(n);
                if n < 50 {
                    let req = memcached::encode_get(b"k", n);
                    client.send(Chain::single(IoBuf::copy_from(&req))).unwrap();
                }
            }
        }
        let pinger = Pinger { n: Cell::new(0) };
        Client::spawn(&client, CoreId(0), Ipv4Addr::new(10, 0, 9, 1), pinger);
        w.run_to_idle();
        (w.now(), s_if.stats.rx_tcp.get(), client.cpu_time(CoreId(0)))
    }
    assert_eq!(run_once(), run_once());
}

/// The distributed-Ebb proof workload, correctness-first: a
/// multi-machine sharded memcached where every machine owns one key
/// range behind a distributed `StoreShardEbb`. A client pipelines SETs
/// and GETs for keys of *every* range into shard 0's server; requests
/// for other ranges function-ship to their owners (shipper →
/// GlobalIdMap → messenger), responses are correlated by opaque, and a
/// range whose only owner is cut off at the switch must answer
/// `STATUS_REMOTE_ERROR` — never hang the connection.
#[test]
fn sharded_memcached_cross_shard_function_shipping() {
    use ebbrt_bench::dist_memcached as dist;

    const NSHARDS: usize = 3;
    // One machine more than the live shards: the dead range's owner.
    let c = dist::build_replicated(NSHARDS + 1, 1, 1);
    c.sw.isolate(c.shard_ports[NSHARDS]);

    // Four keys per real shard, values derived from the key.
    let mut keys: Vec<(Vec<u8>, Vec<u8>, usize)> = Vec::new();
    for shard in 0..NSHARDS {
        for k in 0..4 {
            let key = dist::key_for_range(&c.ring, shard, shard * 10 + k);
            let value = format!("value-of-{}", String::from_utf8_lossy(&key)).into_bytes();
            keys.push((key, value, shard));
        }
    }
    // One oversized (protocol-violating, > 250 B) key owned by a
    // *remote* shard: it must route by hash like any other key, not be
    // served by whichever machine happened to receive it.
    let big_key = (0u32..)
        .map(|n| format!("{}-{n}", "x".repeat(280)).into_bytes())
        .find(|k| c.ring.range_of(k) == 1)
        .unwrap();
    keys.push((big_key, b"oversized-key-value".to_vec(), 1));
    let dead_key = dist::key_for_range(&c.ring, NSHARDS, 999);

    // Pipeline everything in one burst: SETs, then GETs, then the
    // dead-range probe. opaque = index into `expect`.
    let mut tx = Vec::new();
    let mut expect: Vec<(u16, Vec<u8>)> = Vec::new();
    for (key, value, _) in &keys {
        tx.push(memcached::encode_set(key, value, expect.len() as u32));
        expect.push((memcached::STATUS_OK, Vec::new()));
    }
    for (key, value, _) in &keys {
        tx.push(memcached::encode_get(key, expect.len() as u32));
        expect.push((memcached::STATUS_OK, value.clone()));
    }
    tx.push(memcached::encode_get(&dead_key, expect.len() as u32));
    expect.push((memcached::STATUS_REMOTE_ERROR, Vec::new()));

    let client = Client::spawn(&c.client, CoreId(0), dist::shard_ip(0), Burst::new(&tx));
    c.w.run_to_idle();

    // Every request — local, cross-shard, and the dead-shard probe —
    // was answered; values round-tripped; failure surfaced as a
    // status, not a hang.
    let got = &client.workload;
    assert_eq!(
        got.replies.borrow().len(),
        expect.len(),
        "every pipelined request answered, once"
    );
    for (opaque, (status, value)) in expect.iter().enumerate() {
        let (h, got_value) = got.reply(opaque as u32);
        assert_eq!(h.status, *status, "status for opaque {opaque}");
        assert_eq!(&got_value, value, "value for opaque {opaque}");
    }
    // The keys landed on their owners: each store holds exactly its
    // shard's keys, so cross-shard SETs really were function-shipped.
    for shard in 0..NSHARDS {
        let expected = keys.iter().filter(|(_, _, s)| *s == shard).count();
        assert_eq!(
            c.stores[shard].len(),
            expected,
            "shard {shard} owns exactly its keys"
        );
    }
    use std::sync::atomic::Ordering::Relaxed;
    assert!(
        c.stores[1].gets.load(Relaxed) >= 4 && c.stores[2].gets.load(Relaxed) >= 4,
        "cross-shard GETs served by the owners"
    );
    assert!(
        c.messengers[0].dispatched.get() > 0,
        "shard 0 shipped calls over the messenger"
    );
}

/// The same cluster driven by the measuring harness: asserts the
/// local-shard and shipped paths stay zero-copy / zero-allocation in
/// steady state, the dead range and pipelined-pass probes, and that a
/// remote ship costs more than a local hit (sanity on the measured
/// split).
#[test]
fn sharded_memcached_local_vs_remote_properties() {
    use ebbrt_bench::chaos::{self, ChaosConfig};
    let r = chaos::run(&ChaosConfig {
        shards: 3,
        replicas: 1,
        ops: 32,
        kills: vec![],
        measured_gets: 64,
        ..ChaosConfig::default()
    });
    println!("{}", chaos::format_report(&r));
    chaos::assert_properties(&r);
    assert!(
        r.remote_get_mean_us > r.local_get_mean_us,
        "a remote ship cannot be cheaper than a local hit"
    );
}

/// The RCU store serves lock-free reads while writers churn — across
/// the real network path.
#[test]
fn memcached_store_consistency_under_churn() {
    let domain = Arc::new(ebbrt_core::rcu::RcuDomain::new(2));
    let store = Store::new(Arc::clone(&domain));
    let _g = domain.read_guard(CoreId(0));
    for i in 0..200u32 {
        store.insert_raw(
            format!("key{i}").into_bytes(),
            IoBuf::copy_from(&i.to_be_bytes()),
        );
    }
    // Overwrite half while reading everything.
    for i in 0..100u32 {
        store.insert_raw(
            format!("key{i}").into_bytes(),
            IoBuf::copy_from(&(i * 2).to_be_bytes()),
        );
    }
    for i in 0..200u32 {
        let v = store.get_raw(format!("key{i}").as_bytes()).unwrap();
        let got = u32::from_be_bytes(v.copy_to_vec().as_slice().try_into().unwrap());
        if i < 100 {
            assert_eq!(got, i * 2);
        } else {
            assert_eq!(got, i);
        }
    }
    assert_eq!(store.len(), 200);
}
