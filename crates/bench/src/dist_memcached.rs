//! The multi-machine sharded memcached workload — the proof of the
//! distributed-Ebb (remote-representative) layer.
//!
//! [`build_replicated`] assembles a cluster: one naming machine running
//! the GlobalIdMap server, N shard machines holding the key ranges
//! `replicas`-way behind a distributed
//! [`StoreShardEbb`](memcached::StoreShardEbb) (published to the naming
//! service), and one client machine. Every shard machine serves the
//! full keyspace: ranges it holds on the existing zero-copy path,
//! everything else by function-shipping to the machine fronting the
//! range. An unreplicated cluster is `replicas = 1` — there is no
//! second cluster type.
//!
//! [`run`] drives a closed-loop client against shard 0's server of an
//! unreplicated cluster and measures, in virtual time, the **local-hit
//! vs remote-ship** GET latency split, while asserting the local phase
//! stays zero-copy / zero-allocation on the serving machine. Optionally
//! one more machine is built and then isolated at the switch — requests
//! for its range must come back as
//! [`ebbrt_apps::memcached::STATUS_REMOTE_ERROR`], never hang.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

use ebbrt_apps::memcached::{
    self, register_shard, serve_sharded, Client, ClusterView, ServerConfig, ShardConfig, ShardRoot,
    Store, ViewState, STATUS_OK, STATUS_REMOTE_ERROR,
};
use ebbrt_apps::spawn_with;
use ebbrt_core::cpu::CoreId;
use ebbrt_core::ebb::{EbbId, EbbRef, HashRing};
use ebbrt_core::iobuf::{Chain, IoBuf};
use ebbrt_core::qos::{ClassConfig, QosConfig};
use ebbrt_hosted::global_map::{self, GlobalIdMap, GlobalIdMapServer};
use ebbrt_hosted::messenger::Messenger;
use ebbrt_hosted::remote::MessengerTransport;
use ebbrt_net::types::Ipv4Addr;
use ebbrt_net::Lan;
use ebbrt_sim::{CostProfile, SimMachine, SimWorld, Switch};

use crate::script::{PhaseMeter, Script, Step, Steps};

/// IP of shard `i`.
pub fn shard_ip(i: usize) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 1, 10 + i as u8)
}

const NAMING_IP: Ipv4Addr = Ipv4Addr([10, 0, 1, 1]);
const CLIENT_IP: Ipv4Addr = Ipv4Addr([10, 0, 1, 100]);

/// A built sharded-memcached cluster, pre-wired and idle.
pub struct ReplCluster {
    /// The world driving everything.
    pub w: Rc<SimWorld>,
    /// The switch (chaos harnesses isolate/restore shard ports on it).
    pub sw: Rc<Switch>,
    /// The naming machine.
    pub naming: Rc<SimMachine>,
    /// The GlobalIdMap server itself (chaos harnesses read ownership
    /// records straight off it to assert lease convergence).
    pub naming_server: Rc<GlobalIdMapServer>,
    /// The shard machines; machine `i` is range `i`'s initial primary.
    /// May be longer than the range count: trailing machines are
    /// spares, wired and serving but holding no range until
    /// [`add_shard`] rebalances onto them.
    pub shards: Vec<Rc<SimMachine>>,
    /// Each shard machine's switch port (same order).
    pub shard_ports: Vec<usize>,
    /// Each machine's store (shared by every range it hosts).
    pub stores: Vec<Arc<Store>>,
    /// Per machine: range index → the machine's replica root.
    pub roots: Vec<HashMap<usize, Arc<ShardRoot>>>,
    /// Public range ids, in range order (the routing table).
    pub range_ids: Vec<EbbId>,
    /// The key→range placement every machine shares ([`add_shard`]
    /// replaces it with the grown generation).
    pub ring: Arc<HashRing>,
    /// Replicas per range.
    pub replicas: usize,
    /// Each machine's live placement view (shared with its server;
    /// [`add_shard`] installs the grown generation here).
    pub views: Vec<Arc<ClusterView>>,
    /// Each machine's naming client, in machine order.
    pub maps: Vec<Rc<GlobalIdMap>>,
    /// The client machine.
    pub client: Rc<SimMachine>,
    /// Each shard machine's messenger, in shard order.
    pub messengers: Vec<Rc<Messenger>>,
    /// Each shard machine's remote transport, in shard order.
    pub transports: Vec<Rc<MessengerTransport>>,
    /// Dual-apply rules an in-flight [`add_shard`] has shipped over the
    /// wire, kept harness-side until cutover clears them. A machine
    /// restored *mid-transfer* missed its control frames (they timed
    /// out against its dead port); [`resync_machine`] replays its
    /// entries here so the restored holder forwards migrating-key
    /// writes like every live peer.
    pub pending_rules: Rc<RefCell<Vec<PendingRule>>>,
}

/// One dual-apply install from an in-flight [`add_shard`], addressed
/// to a specific (machine, range) holder. See
/// [`ReplCluster::pending_rules`].
pub enum PendingRule {
    /// The holder fans writes out to a gaining member of its range.
    Peer {
        machine: usize,
        range: usize,
        ep: EbbId,
    },
    /// The holder dual-applies writes whose key moves to `to_range`
    /// under `ring` to that range's members.
    Forward {
        machine: usize,
        range: usize,
        ring: Arc<HashRing>,
        to_range: u32,
        eps: Vec<EbbId>,
    },
}

/// Base of the fixed id block the replicated cluster uses (away from
/// both the well-known range and the naming service's allocator).
const REPL_ID_BASE: u32 = (1 << 20) + 700_000;

/// The public id of range `r`.
pub fn range_id(r: usize) -> EbbId {
    EbbId(REPL_ID_BASE + r as u32)
}

/// The private endpoint id of machine `m`'s replica of range `r` —
/// what an acting primary addresses fan-out copies to (the public id
/// would resolve to whoever *fronts* the range, not to `m`).
pub fn endpoint_id(r: usize, m: usize) -> EbbId {
    EbbId(REPL_ID_BASE + 1024 + (r as u32) * 256 + m as u32)
}

/// The machines holding range `r` under `ring`, primary first.
pub fn members_of(ring: &HashRing, r: usize, replicas: usize) -> Vec<usize> {
    let set = ring.successors(r as u32, replicas);
    set.into_iter().map(|x| x as usize).collect()
}

/// Exports range `r` on machine `m` and publishes `m`'s private
/// endpoint for it (idempotent); `done(ok)` when the record landed.
fn publish_endpoint(
    msgr: &Rc<Messenger>,
    map: &Rc<GlobalIdMap>,
    (r, m): (usize, usize),
    done: impl FnOnce(bool) + 'static,
) {
    ebbrt_hosted::remote::export::<memcached::StoreShardEbb>(msgr, EbbRef::from_id(range_id(r)));
    let ep = EbbRef::from_id(endpoint_id(r, m));
    ebbrt_hosted::remote::publish::<memcached::StoreShardEbb>(msgr, map, ep, shard_ip(m), done);
}

/// Builds an N-machine cluster whose key ranges are `replicas`-way
/// replicated per the [`HashRing`]: machine `i` is range `i`'s initial
/// primary, and hosts a replica of every range whose successor set
/// includes it. Each hosted range is registered under both its public
/// range id (exported everywhere, ownership record primary-first) and
/// the machine's private endpoint id (published as a plain
/// single-owner record).
pub fn build_replicated(nshards: usize, replicas: usize, shard_cores: usize) -> ReplCluster {
    build_replicated_with_spares(nshards, replicas, shard_cores, 0)
}

/// As [`build_replicated`], plus `spares` extra machines that hold no
/// range yet: fully wired (messenger, naming client, transport, store,
/// serving view) so [`add_shard`] can grow the ring onto them while
/// traffic flows.
pub fn build_replicated_with_spares(
    nshards: usize,
    replicas: usize,
    shard_cores: usize,
    spares: usize,
) -> ReplCluster {
    assert!(
        (1..=nshards).contains(&replicas),
        "replication factor must fit the machine count"
    );
    let nmachines = nshards + spares;
    assert!(nmachines >= 2, "sharding needs at least two owners");
    assert!(shard_cores >= 1);
    let lan = Lan::new();
    let vm = CostProfile::ebbrt_vm;
    let (naming, naming_if) =
        lan.machine("naming", 1, CostProfile::linux_vm(), [0x10; 6], NAMING_IP);
    let mut shards = Vec::new();
    let mut shard_ports = Vec::new();
    let mut shard_ifs = Vec::new();
    for i in 0..nmachines {
        let mut mac = [0x20; 6];
        mac[5] = i as u8;
        let (m, ifc) = lan.machine(format!("shard{i}"), shard_cores, vm(), mac, shard_ip(i));
        shard_ports.push(m.index());
        // Every serving machine runs the per-class tx scheduler: data
        // traffic rides the default class; the "control" class (a
        // guaranteed slice + the dominant share) protects the
        // messenger — naming lookups, function-shipped calls,
        // replication fan-out — from data-plane queueing. The
        // messenger adds its own port rules at start, finding this
        // policy installed. The class counters also give chaos
        // harnesses the served/shed ledger they balance at quiesce.
        ifc.install_qos(
            QosConfig::new(10_000_000_000).class(
                ClassConfig::new("control")
                    .rt_bps(1_000_000_000)
                    .ls_weight(4),
            ),
        );
        shard_ifs.push(ifc);
        shards.push(m);
    }
    let (client, _client_if) = lan.machine("client", 1, vm(), [0x30; 6], CLIENT_IP);
    let (w, sw) = (lan.world, lan.switch);
    w.run_to_idle();

    let naming_msgr = Messenger::start(&naming_if);
    let naming_server = GlobalIdMapServer::start(&naming_msgr);
    let mut messengers = Vec::new();
    let mut transports = Vec::new();
    let mut stores = Vec::new();
    // Each shard machine: messenger + naming client + remote transport
    // (so it can host proxy reps of the other shards) + its store.
    let maps: Vec<Rc<GlobalIdMap>> = shard_ifs
        .iter()
        .map(|ifc| {
            let msgr = Messenger::start(ifc);
            let map = GlobalIdMap::new(&msgr, NAMING_IP);
            transports.push(MessengerTransport::install(&msgr, Rc::clone(&map)));
            messengers.push(msgr);
            map
        })
        .collect();
    for m in &shards {
        stores.push(Store::new(Arc::clone(m.runtime().rcu())));
    }

    // The machinery is up and no range is placed yet. Placement:
    let ring = Arc::new(HashRing::new(nshards as u32, 16));

    // Replica sets: members[r][0] == r (the initial primary), then the
    // next replicas-1 distinct ranges clockwise.
    let members: Vec<Vec<usize>> = (0..nshards)
        .map(|r| members_of(&ring, r, replicas))
        .collect();

    let mut roots: Vec<HashMap<usize, Arc<ShardRoot>>> = vec![HashMap::new(); nmachines];
    for (r, set) in members.iter().enumerate() {
        for &m in set {
            let peer_eps: Vec<EbbId> = set
                .iter()
                .filter(|&&p| p != m)
                .map(|&p| endpoint_id(r, p))
                .collect();
            let root = ShardRoot::with_peers(Arc::clone(&stores[m]), peer_eps);
            register_shard(&root, shards[m].runtime(), range_id(r));
            register_shard(&root, shards[m].runtime(), endpoint_id(r, m));
            roots[m].insert(r, root);
        }
    }

    // Publish: every replica exports the range id and publishes its
    // endpoint id; the primary also publishes the range's ownership
    // record (the ordered replica list, primary first).
    for (r, set) in members.iter().enumerate() {
        let owner_ips: Vec<Ipv4Addr> = set.iter().map(|&m| shard_ip(m)).collect();
        for (slot, &m) in set.iter().enumerate() {
            let msgr = Rc::clone(&messengers[m]);
            let map = Rc::clone(&maps[m]);
            let owner_ips = owner_ips.clone();
            spawn_with(&shards[m], CoreId(0), (msgr, map), move |(msgr, map)| {
                if slot == 0 {
                    ebbrt_hosted::remote::publish_replicated::<memcached::StoreShardEbb>(
                        &msgr,
                        &map,
                        EbbRef::from_id(range_id(r)),
                        &owner_ips,
                        |ok| assert!(ok, "range record published"),
                    );
                }
                publish_endpoint(&msgr, &map, (r, m), |ok| {
                    assert!(ok, "endpoint record published")
                });
            });
        }
    }
    w.run_to_idle();

    let range_ids: Vec<EbbId> = (0..nshards).map(range_id).collect();
    let mut views = Vec::new();
    for (m, machine) in shards.iter().enumerate() {
        let view = ClusterView::new(ViewState {
            shard_ids: Arc::new(range_ids.clone()),
            ring: Arc::clone(&ring),
            locals: Arc::new(roots[m].clone()),
        });
        views.push(Arc::clone(&view));
        let cfg = ShardConfig {
            view,
            my_shard: m,
            server: ServerConfig::default(),
        };
        let store = Arc::clone(&stores[m]);
        spawn_with(machine, CoreId(0), (cfg, store), |(cfg, store)| {
            serve_sharded(cfg, store)
        });
    }
    w.run_to_idle();

    ReplCluster {
        w,
        sw,
        naming,
        naming_server,
        shards,
        shard_ports,
        stores,
        roots,
        range_ids,
        ring,
        replicas,
        views,
        maps,
        client,
        messengers,
        transports,
        pending_rules: Rc::default(),
    }
}

// --- Re-sync and live rebalancing orchestration ---------------------------

/// A completion latch shared by fan-out phases: `next` fires exactly
/// once, when all `n` expected callbacks have arrived (immediately for
/// `n == 0`).
fn barrier(n: usize, next: impl FnOnce() + 'static) -> Rc<dyn Fn()> {
    let next = RefCell::new(Some(Box::new(next) as Box<dyn FnOnce()>));
    if n == 0 {
        if let Some(f) = next.borrow_mut().take() {
            f();
        }
    }
    let remaining = Cell::new(n);
    Rc::new(move || {
        remaining.set(remaining.get().saturating_sub(1));
        if remaining.get() == 0 {
            if let Some(f) = next.borrow_mut().take() {
                f();
            }
        }
    })
}

/// Runs transfer legs sequentially on `machine` (each leg one
/// [`memcached::resync_range`] run), then `after`. A multi-source
/// transfer — a new range whose keys migrate in from *every* old
/// range — is a chain of legs on one root; only the last leg carries
/// `flip: true`.
fn run_transfer_legs(
    machine: Rc<SimMachine>,
    mut legs: std::vec::IntoIter<memcached::ResyncOpts>,
    after: Box<dyn FnOnce()>,
) {
    match legs.next() {
        None => after(),
        Some(opts) => {
            let m2 = Rc::clone(&machine);
            spawn_with(&machine, CoreId(0), opts, move |opts| {
                memcached::resync_range(opts, move |_out| run_transfer_legs(m2, legs, after));
            });
        }
    }
}

/// Kicks restart re-sync for every range machine `m` hosts, marking
/// each root catching-up *immediately* (no stale-serving window
/// between the network restore and the first re-sync event). Each
/// range then runs the engine on the machine — STATUS election, pull
/// catch-up, REJOIN (peers clear the presumed-dead mark and restore
/// fan-out), exactness close, serving flip — and, where `m` is the
/// range's ring primary, un-promotes the ownership record back to
/// ring order (lease-epoch CAS). Returns a latch that flips true when
/// every hosted range has finished.
pub fn resync_machine(c: &ReplCluster, m: usize) -> Rc<Cell<bool>> {
    let finished = Rc::new(Cell::new(false));
    let mut ranges: Vec<usize> = c.roots[m].keys().copied().collect();
    ranges.sort_unstable();
    if ranges.is_empty() {
        finished.set(true);
        return finished;
    }
    // Replay any dual-apply rules an in-flight rebalance shipped while
    // this machine was dead (the frames timed out against its port).
    for rule in c.pending_rules.borrow().iter() {
        match rule {
            PendingRule::Peer { machine, range, ep } if *machine == m => {
                if let Some(root) = c.roots[m].get(range) {
                    root.add_peer(*ep);
                }
            }
            PendingRule::Forward {
                machine,
                range,
                ring,
                to_range,
                eps,
            } if *machine == m => {
                if let Some(root) = c.roots[m].get(range) {
                    root.set_forward_rule(Arc::clone(ring), *to_range, eps.clone());
                }
            }
            _ => {}
        }
    }
    // Republish this machine's endpoint records (idempotent): a range
    // gained by a rebalance while the machine was isolated never got
    // its endpoint record onto the naming service, and peers can't
    // fan out to an unresolvable endpoint.
    {
        let msgr = Rc::clone(&c.messengers[m]);
        let map = Rc::clone(&c.maps[m]);
        let ranges = ranges.clone();
        spawn_with(&c.shards[m], CoreId(0), (msgr, map), move |(msgr, map)| {
            for r in ranges {
                publish_endpoint(&msgr, &map, (r, m), |_ok| {});
            }
        });
    }
    let fin = Rc::clone(&finished);
    let all_done = barrier(ranges.len(), move || fin.set(true));
    for r in ranges {
        let root = Arc::clone(&c.roots[m][&r]);
        root.begin_catch_up(None);
        let members = members_of(&c.ring, r, c.replicas);
        let opts = memcached::ResyncOpts {
            root,
            self_ep: endpoint_id(r, m),
            sources: members
                .iter()
                .filter(|&&p| p != m)
                .map(|&p| endpoint_id(r, p))
                .collect(),
            nranges: c.ring.nranges(),
            vnodes: c.ring.vnodes(),
            range: r as u32,
            rejoin: true,
            flip: true,
        };
        let is_primary = members[0] == m;
        let owner_ips: Vec<Ipv4Addr> = members.iter().map(|&p| shard_ip(p)).collect();
        let map = Rc::clone(&c.maps[m]);
        let done = Rc::clone(&all_done);
        spawn_with(&c.shards[m], CoreId(0), (map, opts), move |(map, opts)| {
            memcached::resync_range(opts, move |_out| {
                if is_primary {
                    // Ownership converges back to placement: CAS the
                    // record (epoch-bumped) back to ring order. Losing
                    // to a concurrent promotion is clean — the next
                    // quiet re-sync retries.
                    ebbrt_hosted::remote::unpromote(&map, range_id(r), owner_ips, move |_won| {
                        done()
                    });
                } else {
                    done();
                }
            });
        });
    }
    finished
}

/// Grows the ring onto the next spare machine while traffic flows:
/// minimal-movement range transfers (only keys whose `range_of` moves
/// to the new range migrate, plus whatever replica-set shifts the new
/// successor walk causes), executed with the re-sync transfer
/// machinery. Ordering is the correctness story:
///
/// 1. every gaining replica root is created catching-up and its
///    endpoint published;
/// 2. dual-apply installs *first* — old holders ADD_PEER gaining
///    members of their own range and SET_FORWARD writes of migrating
///    keys to the new range's members, acks waiting for those
///    fan-outs — so no write acknowledged after this point can be
///    lost to the transfer race;
/// 3. snapshot+delta transfers pull the existing keys (new range
///    first on its primary, one leg per old range; then the new
///    range's secondaries from that primary; gains of old ranges pull
///    from their range peers in parallel);
/// 4. cutover: gained roots flip serving, changed ownership records
///    re-publish primary-first (lease bump), every machine installs
///    the grown view (epoch-guarded), and only then CLEAR_FORWARD
///    drops the dual-apply rules.
///
/// The cluster bookkeeping (`ring`, `range_ids`, `roots`) updates to
/// the final shape synchronously; the returned latch flips true when
/// the live cluster has cut over.
pub fn add_shard(c: &mut ReplCluster) -> Rc<Cell<bool>> {
    let finished = Rc::new(Cell::new(false));
    let old_ring = Arc::clone(&c.ring);
    let new_ring = Arc::new(old_ring.grown());
    let nold = old_ring.nranges() as usize;
    let new_range = nold;
    assert!(
        new_range < c.shards.len(),
        "add_shard needs a spare machine (build_replicated_with_spares)"
    );
    let replicas = c.replicas;
    let member_sets = |ring: &HashRing| -> Vec<Vec<usize>> {
        (0..ring.nranges() as usize)
            .map(|r| members_of(ring, r, replicas))
            .collect()
    };
    let old_members = member_sets(&old_ring);
    let new_members = member_sets(&new_ring);

    // Create + register every gaining replica root, catching-up from
    // birth; update the harness bookkeeping to the final membership
    // (live views cut over only at the end — a loser keeps serving
    // and receiving fan-out until then, so it never goes stale early).
    let mut gains: Vec<(usize, usize)> = Vec::new();
    for (r, set) in new_members.iter().enumerate() {
        for &m in set {
            if !c.roots[m].contains_key(&r) {
                let peer_eps: Vec<EbbId> = set
                    .iter()
                    .filter(|&&p| p != m)
                    .map(|&p| endpoint_id(r, p))
                    .collect();
                let root = ShardRoot::with_peers(Arc::clone(&c.stores[m]), peer_eps);
                root.begin_catch_up(None);
                register_shard(&root, c.shards[m].runtime(), range_id(r));
                register_shard(&root, c.shards[m].runtime(), endpoint_id(r, m));
                c.roots[m].insert(r, root);
                gains.push((r, m));
            }
        }
    }
    for (r, set) in old_members.iter().enumerate() {
        for &m in set {
            if !new_members[r].contains(&m) {
                c.roots[m].remove(&r);
            }
        }
    }
    c.ring = Arc::clone(&new_ring);
    c.range_ids.push(range_id(new_range));

    // Everything the async chain needs, owned.
    let shards: Vec<Rc<SimMachine>> = c.shards.clone();
    let views: Vec<Arc<ClusterView>> = c.views.clone();
    let maps: Vec<Rc<GlobalIdMap>> = c.maps.clone();
    let final_locals: Vec<Arc<HashMap<usize, Arc<ShardRoot>>>> =
        c.roots.iter().map(|m| Arc::new(m.clone())).collect();
    let new_range_ids: Arc<Vec<EbbId>> = Arc::new(c.range_ids.clone());
    let gained_roots: HashMap<(usize, usize), Arc<ShardRoot>> = gains
        .iter()
        .map(|&(r, m)| ((r, m), Arc::clone(&c.roots[m][&r])))
        .collect();

    // Records to re-publish at cutover: the new range, plus any old
    // range whose replica set shifted.
    let record_updates: Vec<(usize, usize, Vec<Ipv4Addr>)> = new_members
        .iter()
        .enumerate()
        .filter(|&(r, set)| r == new_range || old_members[r] != *set)
        .map(|(r, set)| (r, set[0], set.iter().map(|&m| shard_ip(m)).collect()))
        .collect();

    // Dual-apply control frames, addressed to every old holder (any
    // of them may be acting primary under chaos).
    let fwd_eps: Vec<EbbId> = new_members[new_range]
        .iter()
        .map(|&m| endpoint_id(new_range, m))
        .collect();
    let mut control: Vec<(EbbId, Chain<IoBuf>)> = Vec::new();
    let mut clear_targets: Vec<EbbId> = Vec::new();
    {
        let mut pending = c.pending_rules.borrow_mut();
        for (r, members) in old_members.iter().enumerate().take(nold) {
            for &m in members {
                let ep = endpoint_id(r, m);
                control.push((
                    ep,
                    memcached::encode_set_forward(&new_ring, new_range as u32, &fwd_eps),
                ));
                clear_targets.push(ep);
                pending.push(PendingRule::Forward {
                    machine: m,
                    range: r,
                    ring: Arc::clone(&new_ring),
                    to_range: new_range as u32,
                    eps: fwd_eps.clone(),
                });
                for &(gr, gm) in &gains {
                    if gr == r {
                        control.push((ep, memcached::encode_add_peer(endpoint_id(r, gm))));
                        pending.push(PendingRule::Peer {
                            machine: m,
                            range: r,
                            ep: endpoint_id(r, gm),
                        });
                    }
                }
            }
        }
    }

    // Transfer legs. The new range's primary pulls one leg per old
    // range (its keys migrate in from all of them); its secondaries
    // then pull a single leg from that freshly serving primary; an
    // old-range gain pulls one leg from its range's old holders.
    let leg = |root: &Arc<ShardRoot>, m: usize, r: usize, sources: Vec<EbbId>, flip: bool| {
        memcached::ResyncOpts {
            root: Arc::clone(root),
            self_ep: endpoint_id(r, m),
            sources,
            nranges: new_ring.nranges(),
            vnodes: new_ring.vnodes(),
            range: r as u32,
            rejoin: false,
            flip,
        }
    };
    let primary_machine = new_members[new_range][0];
    let primary_root = &gained_roots[&(new_range, primary_machine)];
    let primary_legs: Vec<memcached::ResyncOpts> = (0..nold)
        .map(|src_range| {
            let sources = old_members[src_range]
                .iter()
                .map(|&p| endpoint_id(src_range, p))
                .collect();
            leg(
                primary_root,
                primary_machine,
                new_range,
                sources,
                src_range == nold - 1,
            )
        })
        .collect();
    let secondary_legs: Vec<(usize, memcached::ResyncOpts)> = new_members[new_range]
        .iter()
        .filter(|&&m| m != primary_machine)
        .map(|&m| {
            let sources = vec![endpoint_id(new_range, primary_machine)];
            (
                m,
                leg(&gained_roots[&(new_range, m)], m, new_range, sources, true),
            )
        })
        .collect();
    let old_gain_legs: Vec<(usize, memcached::ResyncOpts)> = gains
        .iter()
        .filter(|&&(r, _)| r != new_range)
        .map(|&(r, m)| {
            let sources = old_members[r].iter().map(|&p| endpoint_id(r, p)).collect();
            (m, leg(&gained_roots[&(r, m)], m, r, sources, true))
        })
        .collect();

    // --- The async chain, phase by phase. ---
    let orch = Rc::clone(&shards[new_range]);
    let fin = Rc::clone(&finished);

    // Phase 4b: CLEAR_FORWARD, then done.
    let phase_clear = {
        let orch = Rc::clone(&orch);
        let clear_targets = clear_targets.clone();
        let pending_rules = Rc::clone(&c.pending_rules);
        move || {
            pending_rules.borrow_mut().clear();
            let done = barrier(clear_targets.len(), move || fin.set(true));
            spawn_with(&orch, CoreId(0), (), move |()| {
                for ep in clear_targets {
                    let done = Rc::clone(&done);
                    memcached::shipper_for(ep)
                        .call(memcached::encode_clear_forward(), move |_r| done());
                }
            });
        }
    };

    // Phase 4a: re-publish changed records primary-first (lease
    // bump), install the grown view everywhere, then clear forwards.
    // The puts all ship from the orchestrator machine — a record's
    // "primary-first" property is its *content* ordering, and the
    // named primary may be isolated under chaos (its own put could
    // never land).
    let phase_cutover = {
        let orch = Rc::clone(&orch);
        let orch_map = Rc::clone(&maps[new_range]);
        move || {
            let install = {
                let views = views.clone();
                let final_locals = final_locals.clone();
                let new_ring = Arc::clone(&new_ring);
                let new_range_ids = Arc::clone(&new_range_ids);
                move || {
                    for (m, view) in views.iter().enumerate() {
                        let installed = view.install(ViewState {
                            shard_ids: Arc::clone(&new_range_ids),
                            ring: Arc::clone(&new_ring),
                            locals: Arc::clone(&final_locals[m]),
                        });
                        assert!(installed, "a grown view must be a newer generation");
                    }
                    phase_clear();
                }
            };
            let records_done = barrier(record_updates.len(), install);
            spawn_with(&orch, CoreId(0), orch_map, move |map| {
                for (r, _pm, ips) in record_updates {
                    let done = Rc::clone(&records_done);
                    map.put(range_id(r), &global_map::encode_owners(&ips), move |ok| {
                        assert!(ok, "cutover record re-publish must land");
                        done();
                    });
                }
            });
        }
    };

    // Phase 3b: the new range's secondaries pull from its primary.
    let phase_secondaries = {
        let shards = shards.clone();
        move || {
            let done = barrier(secondary_legs.len(), phase_cutover);
            for (m, opts) in secondary_legs {
                let done = Rc::clone(&done);
                run_transfer_legs(
                    Rc::clone(&shards[m]),
                    vec![opts].into_iter(),
                    Box::new(move || done()),
                );
            }
        }
    };

    // Phase 3a: the new range's primary (all legs, sequential) and
    // every old-range gain (parallel).
    let phase_transfers = {
        let shards = shards.clone();
        move || {
            let done = barrier(1 + old_gain_legs.len(), phase_secondaries);
            {
                let done = Rc::clone(&done);
                run_transfer_legs(
                    Rc::clone(&shards[primary_machine]),
                    primary_legs.into_iter(),
                    Box::new(move || done()),
                );
            }
            for (m, opts) in old_gain_legs {
                let done = Rc::clone(&done);
                run_transfer_legs(
                    Rc::clone(&shards[m]),
                    vec![opts].into_iter(),
                    Box::new(move || done()),
                );
            }
        }
    };

    // Phase 2: install dual-apply on every old holder — before any
    // transfer pulls, so acknowledged writes can't dodge the move.
    let phase_dual_apply = {
        let orch = Rc::clone(&orch);
        move || {
            let done = barrier(control.len(), phase_transfers);
            spawn_with(&orch, CoreId(0), (), move |()| {
                for (ep, frame) in control {
                    let done = Rc::clone(&done);
                    memcached::shipper_for(ep).call(frame, move |_r| done());
                }
            });
        }
    };

    // Phase 1: publish every gaining endpoint (fan-out must resolve
    // it) and export the range ids on their machines.
    let published = barrier(gains.len(), phase_dual_apply);
    for &(r, m) in &gains {
        let msgr = Rc::clone(&c.messengers[m]);
        let map = Rc::clone(&c.maps[m]);
        let done = Rc::clone(&published);
        spawn_with(&c.shards[m], CoreId(0), (msgr, map), move |(msgr, map)| {
            // A gainer isolated under chaos can't land its naming put;
            // tolerate it — fan-out to the unresolvable endpoint is
            // absorbed (presumed dead), and its restart re-sync
            // republishes before rejoining.
            publish_endpoint(&msgr, &map, (r, m), move |_ok| done());
        });
    }
    finished
}

/// Finds a printable key that [`HashRing::range_of`]-maps to `range`
/// (deterministic; shared between harness phases).
pub fn key_for_range(ring: &HashRing, range: usize, tag: usize) -> Vec<u8> {
    for n in 0.. {
        let k = format!("rkey_{tag}_{n}");
        if ring.range_of(k.as_bytes()) as usize == range {
            return k.into_bytes();
        }
    }
    unreachable!()
}

/// Workload knobs for [`run`].
pub struct DistConfig {
    /// Shard machines.
    pub shards: usize,
    /// Event cores per shard machine (RSS spreads connections; > 1
    /// exercises the cross-core completion hop).
    pub cores: usize,
    /// Local-shard GETs before measurement (pool/TCP warm).
    pub warmup_gets: u32,
    /// Measured GETs per phase (local, then remote).
    pub measured_gets: u32,
    /// Build one more machine, isolate it, and probe its range.
    pub probe_failure: bool,
}

impl Default for DistConfig {
    fn default() -> Self {
        DistConfig {
            shards: 3,
            cores: 1,
            warmup_gets: 32,
            measured_gets: 128,
            probe_failure: true,
        }
    }
}

/// What [`run`] measured.
pub struct DistReport {
    /// Shard machines.
    pub shards: usize,
    /// Mean local-shard GET latency (virtual µs, client-observed).
    pub local_mean_us: f64,
    /// Mean cross-shard (function-shipped) GET latency (virtual µs).
    pub remote_mean_us: f64,
    /// GETs the *remote* owner's store served — proof the cross-shard
    /// requests really shipped.
    pub remote_owner_gets: u64,
    /// Payload bytes copied on the serving machine during the measured
    /// local phase.
    pub local_copied: u64,
    /// Fresh buffer allocations on the serving machine during the
    /// measured local phase.
    pub local_allocated: u64,
    /// Payload bytes copied on **every shard machine** (the front end
    /// and the owner) during the measured function-shipped GET phase:
    /// the value crosses the messenger twice as descriptors.
    pub remote_copied: u64,
    /// Fresh buffer allocations on every shard machine during the
    /// measured function-shipped GET phase (marshalling and framing
    /// buffers are pooled).
    pub remote_allocated: u64,
    /// Responses carrying [`STATUS_REMOTE_ERROR`] from the dead-owner
    /// probe (expected: exactly the probes sent, promptly).
    pub failure_responses: u32,
    /// Function-shipped calls that rode a multi-call messenger frame
    /// on the front-end shard (the pipelined cross-shard phase).
    pub front_batched_calls: u64,
    /// Largest number of calls the front-end shard coalesced into one
    /// messenger frame.
    pub front_max_batch: u64,
}

/// Phase tags of the closed-loop client.
const TAG_SETUP: u8 = 0;
const TAG_WARM: u8 = 1;
const TAG_LOCAL: u8 = 2;
const TAG_REMOTE: u8 = 3;
const TAG_FAIL: u8 = 4;
const TAG_PIPE: u8 = 5;
const NTAGS: usize = 6;

/// Builds the cluster, drives the workload, returns the measurements.
pub fn run(cfg: &DistConfig) -> DistReport {
    // With the failure probe, one more machine than asked for: its
    // range's only owner, cut off at the switch before any traffic.
    let dead = cfg.probe_failure.then_some(cfg.shards);
    let c = build_replicated(cfg.shards + cfg.probe_failure as usize, 1, cfg.cores);
    if let Some(dead) = dead {
        c.sw.isolate(c.shard_ports[dead]);
    }
    let local_key = key_for_range(&c.ring, 0, 0);
    let remote_key = key_for_range(&c.ring, 1, 1);
    let value = vec![0xC5u8; 512];

    // Seed one key in the local shard and one in a remote shard —
    // through the server, so the remote SET function-ships too.
    let mut script = Steps::default();
    script.set(&local_key, value.clone(), TAG_SETUP);
    script.set(&remote_key, value, TAG_SETUP);
    script.gets(&local_key, cfg.warmup_gets, TAG_WARM);
    script.gets(&local_key, cfg.measured_gets, TAG_LOCAL);
    script.gets(&remote_key, cfg.measured_gets, TAG_REMOTE);
    // Pipelined cross-shard burst: several GETs for keys of one remote
    // owner land at the front end in one pass, so their function-shipped
    // calls must leave as one multi-call messenger frame (asserted via
    // the front-end transport's batch counters).
    let burst: Vec<u8> = (0..4u32)
        .flat_map(|i| memcached::encode_get(&remote_key, 40_000 + i))
        .collect();
    script.steps.push(Step::send(&burst, TAG_PIPE, None));
    let mut failure_probes = 0u32;
    if let Some(dead) = dead {
        failure_probes = 2;
        script.gets(&key_for_range(&c.ring, dead, 9), failure_probes, TAG_FAIL);
    }

    let meters = vec![
        // The local-shard phase on the serving machine; the shipped
        // phase on every shard machine.
        PhaseMeter::new(TAG_LOCAL, vec![Arc::clone(c.shards[0].runtime())]),
        PhaseMeter::new(
            TAG_REMOTE,
            c.shards.iter().map(|m| Arc::clone(m.runtime())).collect(),
        ),
    ];
    let client = Client::spawn(
        &c.client,
        CoreId(0),
        shard_ip(0),
        Script::new(script.steps, NTAGS, meters),
    );
    c.w.run_to_idle();
    let client = &client.workload;

    assert!(
        client.finished(),
        "the workload must run to completion — a hang is a failed property"
    );

    // Every phase before the failure probe must have answered OK.
    let statuses = client.statuses.borrow();
    for &(tag, status) in statuses.iter() {
        match tag {
            TAG_FAIL => assert_eq!(
                status, STATUS_REMOTE_ERROR,
                "a dead shard must answer STATUS_REMOTE_ERROR"
            ),
            _ => assert_eq!(status, STATUS_OK, "phase {tag} response must be OK"),
        }
    }
    let failure_responses = statuses.iter().filter(|(t, _)| *t == TAG_FAIL).count() as u32;
    assert_eq!(failure_responses, failure_probes, "every probe answered");
    drop(statuses);

    let [local, remote] = [0, 1].map(|i| client.meters[i].delta.get().expect("phase measured"));
    use std::sync::atomic::Ordering;
    DistReport {
        shards: cfg.shards,
        local_mean_us: client.mean_us(TAG_LOCAL),
        remote_mean_us: client.mean_us(TAG_REMOTE),
        remote_owner_gets: c.stores[1].gets.load(Ordering::Relaxed),
        local_copied: local.bytes_copied,
        local_allocated: local.bufs_allocated,
        remote_copied: remote.bytes_copied,
        remote_allocated: remote.bufs_allocated,
        failure_responses,
        front_batched_calls: c.transports[0].batched_calls.get(),
        front_max_batch: c.transports[0].max_batch.get(),
    }
}

/// The properties CI enforces.
pub fn assert_properties(r: &DistReport) {
    assert!(
        r.remote_owner_gets > 0,
        "cross-shard GETs must be served by function-shipped calls to the owner"
    );
    assert_eq!(
        (r.local_copied, r.local_allocated),
        (0, 0),
        "the steady-state local-shard path must stay zero-copy / zero-allocation"
    );
    assert_eq!(
        (r.remote_copied, r.remote_allocated),
        (0, 0),
        "a function-shipped GET must cross the messenger as descriptors: no value byte \
         copied, no buffer outside the pools, on the front end or the owner"
    );
    assert!(
        r.remote_mean_us > r.local_mean_us,
        "a remote ship cannot be cheaper than a local hit"
    );
    assert!(
        r.front_max_batch >= 2 && r.front_batched_calls >= 2,
        "a pass with several keys routed to one owner must coalesce \
         its shipped calls into one messenger frame (batched {} / max {})",
        r.front_batched_calls,
        r.front_max_batch,
    );
}

/// One-line human summary.
pub fn format_report(r: &DistReport) -> String {
    format!(
        "sharded memcached x{} shards: local GET {:.1} us, remote (function-shipped) GET \
         {:.1} us ({:.1}x), {} owner-served remote gets, local phase {} copied / {} allocated, \
         shipped phase {} copied / {} allocated, {} failure probes answered, \
         {} calls batched (max {}/frame)",
        r.shards,
        r.local_mean_us,
        r.remote_mean_us,
        r.remote_mean_us / r.local_mean_us.max(0.001),
        r.remote_owner_gets,
        r.local_copied,
        r.local_allocated,
        r.remote_copied,
        r.remote_allocated,
        r.failure_responses,
        r.front_batched_calls,
        r.front_max_batch,
    )
}

#[cfg(test)]
mod tests;
