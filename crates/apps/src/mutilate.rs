//! A mutilate-style memcached load generator (§4.2).
//!
//! Reproduces the paper's measurement methodology: the client machine
//! opens many TCP connections, issues binary-protocol requests with the
//! **Facebook ETC** workload shape (20–70 B keys, values mostly
//! 1 B–1 KiB, GET-dominated), pipelines up to four requests per
//! connection, offers a configurable load (open-loop Poisson arrivals),
//! and records per-request latency from *intended arrival* to response
//! — so queueing delay at saturation shows up, producing the
//! latency-vs-throughput curves of Figures 5 and 6.
//!
//! One experiment = one deterministic simulated world: server machine
//! (any cost profile), client machine (EbbRT profile with many cores,
//! mirroring the paper's 20-core client that "is unable to generate
//! sufficient load to overwhelm the EbbRT server"), a 10 GbE switch.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ebbrt_core::clock::Ns;
use ebbrt_core::cpu::CoreId;
use ebbrt_core::iobuf::{Buf, Chain, IoBuf, MutIoBuf};
use ebbrt_net::netif::NetIf;
use ebbrt_net::types::Ipv4Addr;
use ebbrt_net::Lan;
use ebbrt_sim::{CostProfile, SimWorld};

use crate::memcached::{self, Client, Header, Store, Workload, MEMCACHED_PORT};
use crate::stats::LatencyRecorder;

/// Experiment parameters.
#[derive(Clone)]
pub struct ExperimentConfig {
    /// Server core count (1 for Figure 5, 4 for Figure 6).
    pub server_cores: usize,
    /// Server environment under test.
    pub server_profile: CostProfile,
    /// Client cores (the paper's load machine has 20).
    pub client_cores: usize,
    /// TCP connections.
    pub connections: usize,
    /// Max outstanding requests per connection.
    pub pipeline: usize,
    /// Offered load in requests per second.
    pub offered_rps: u64,
    /// Measured interval (after warmup).
    pub duration_ns: Ns,
    /// Warmup interval (latencies discarded).
    pub warmup_ns: Ns,
    /// Keys pre-populated in the store.
    pub nkeys: usize,
    /// Fraction of requests that are GETs (ETC is GET-dominated).
    pub get_ratio: f64,
    /// RNG seed (determinism).
    pub seed: u64,
}

impl ExperimentConfig {
    /// The paper's setup with reasonable simulation-scale defaults.
    pub fn new(server_cores: usize, server_profile: CostProfile, offered_rps: u64) -> Self {
        ExperimentConfig {
            server_cores,
            server_profile,
            client_cores: 8,
            connections: 16 * server_cores,
            pipeline: 4,
            offered_rps,
            duration_ns: 200_000_000, // 200 ms measured
            warmup_ns: 50_000_000,    // 50 ms warmup
            nkeys: 2000,
            get_ratio: 0.9,
            seed: 0xEBB7,
        }
    }
}

/// One point of a latency-vs-throughput curve.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Offered load (requests/second).
    pub offered_rps: f64,
    /// Achieved throughput (responses/second in the measured window).
    pub achieved_rps: f64,
    /// Mean latency (µs).
    pub mean_us: f64,
    /// 99th-percentile latency (µs).
    pub p99_us: f64,
}

/// ETC key-size distribution: uniform 20–70 bytes (§4.2).
fn key_for(index: usize, rng_len: usize) -> Vec<u8> {
    let mut k = format!("key-{index:08}-").into_bytes();
    k.resize(rng_len, b'x');
    k
}

fn etc_key_len(rng: &mut StdRng) -> usize {
    rng.gen_range(20..=70)
}

/// ETC value sizes: "most values sized between 1 B–1024 B" —
/// log-uniform over that range.
fn etc_value_len(rng: &mut StdRng) -> usize {
    let exp = rng.gen_range(0.0..=10.0f64); // 2^0 .. 2^10
    (2.0f64.powf(exp) as usize).clamp(1, 1024)
}

/// Pre-built request frames for the whole key set, shared by every
/// connection: the GET frame and the SET frame (with a maximum-size
/// value) for each key are encoded and frozen **once** at experiment
/// setup. Per request, the client stages only the 24-byte header into
/// a pooled buffer and descriptor-clones the frozen tail
/// (key/extras/value) behind it: the load generator's steady state
/// copies **zero** payload bytes and allocates nothing — the tx mirror
/// of the server's zero-copy rx discipline.
struct RequestTemplates {
    /// `encode_get(key, 0)` per key.
    get: Vec<IoBuf>,
    /// `encode_set(key, [b'u'; MAX_VALUE], 0)` per key; a shorter value
    /// sends a prefix of this frame's tail.
    set: Vec<IoBuf>,
}

/// Largest ETC value the generator produces (see [`etc_value_len`]).
const MAX_VALUE_LEN: usize = 1024;

impl RequestTemplates {
    fn build(keys: &[Vec<u8>]) -> RequestTemplates {
        let frozen = |frame: Vec<u8>| IoBuf::copy_from(&frame);
        let max_value = [b'u'; MAX_VALUE_LEN];
        RequestTemplates {
            get: keys
                .iter()
                .map(|k| frozen(memcached::encode_get(k, 0)))
                .collect(),
            set: keys
                .iter()
                .map(|k| frozen(memcached::encode_set(k, &max_value, 0)))
                .collect(),
        }
    }

    /// Wire length of `req`'s frame, from the template alone (no
    /// staging needed — used for the send-window check).
    fn frame_len(&self, req: &PendingReq) -> usize {
        match req.set_len {
            None => self.get[req.key as usize].len(),
            Some(vlen) => self.set[req.key as usize].len() - MAX_VALUE_LEN + vlen as usize,
        }
    }

    /// Stages `req` as a patched 24-byte header in a pooled buffer
    /// followed by a descriptor clone of the frozen template's tail:
    /// the frame's key/extras/value bytes are shared, never copied.
    fn stage(&self, req: &PendingReq) -> Chain<IoBuf> {
        let key = req.key as usize;
        let key_len = self.get[key].len() - Header::SIZE;
        let (h, frozen) = match req.set_len {
            None => (Header::get(key_len, req.opaque), &self.get[key]),
            Some(vlen) => (
                Header::set(key_len, vlen as usize, req.opaque),
                &self.set[key],
            ),
        };
        let mut hdr = MutIoBuf::with_capacity(Header::SIZE);
        h.encode_into(hdr.append(Header::SIZE));
        let mut out = Chain::single(hdr.freeze());
        out.push_back(frozen.slice(Header::SIZE, h.total_body as usize));
        out
    }
}

/// One generated request: everything needed to patch a template at
/// send time. No owned bytes — the arrival queue is allocation-free
/// once warm.
#[derive(Clone, Copy)]
struct PendingReq {
    opaque: u32,
    key: u32,
    /// `None` encodes a GET; `Some(len)` a SET of `len` value bytes.
    set_len: Option<u16>,
    /// Intended arrival time (open-loop latency base).
    at: Ns,
}

/// One connection's workload: an open-loop arrival process feeding a
/// queue that drains through the pipeline as replies and send window
/// allow.
struct Conn {
    recorder: RefCell<LatencyRecorder>,
    templates: Rc<RequestTemplates>,
    /// Generated requests waiting for pipeline slots.
    pending: RefCell<std::collections::VecDeque<PendingReq>>,
    pipeline: usize,
    completed: Cell<u64>,
    measuring: Rc<Cell<bool>>,
}

impl Conn {
    fn pump(&self, client: &Client<Self>) {
        while client.in_flight() < self.pipeline {
            let Some(&req) = self.pending.borrow().front() else {
                return;
            };
            // Window full (or not yet connected): nothing is staged;
            // retried on the next reply or window opening.
            if self.templates.frame_len(&req) > client.send_window() {
                return;
            }
            let frame = self.templates.stage(&req);
            if client.send_due(frame, req.at).is_err() {
                return;
            }
            self.pending.borrow_mut().pop_front();
        }
    }
}

impl Workload for Conn {
    fn on_connected(&self, client: &Client<Self>) {
        self.pump(client);
    }

    fn on_reply(&self, client: &Client<Self>, _h: &Header, _value: Chain<IoBuf>, latency_ns: Ns) {
        if self.measuring.get() {
            self.recorder.borrow_mut().record(latency_ns);
            self.completed.set(self.completed.get() + 1);
        }
        self.pump(client);
    }

    fn on_window_open(&self, client: &Client<Self>) {
        self.pump(client);
    }
}

/// One experiment's world, built and connected but not yet run, for
/// callers that drive the simulation themselves (step by step, say);
/// [`run`] is the usual way in.
pub struct Experiment {
    lan: Lan,
    config: ExperimentConfig,
    conns: Vec<Rc<Client<Conn>>>,
    /// What the world only holds weakly.
    _keep: ([Rc<NetIf>; 2], Arc<Store>),
}

impl Experiment {
    /// The experiment's world.
    pub fn world(&self) -> &Rc<SimWorld> {
        &self.lan.world
    }

    /// Virtual time at which the measured interval ends.
    pub fn end_ns(&self) -> Ns {
        self.config.warmup_ns + self.config.duration_ns
    }

    /// Responses received in the measured interval so far.
    pub fn completed(&self) -> u64 {
        self.conns.iter().map(|c| c.workload.completed.get()).sum()
    }

    /// The curve point as of now (meaningful from [`Self::end_ns`] on).
    pub fn sample(&self) -> Sample {
        let mut recorder = LatencyRecorder::new();
        for c in &self.conns {
            recorder.merge(&c.workload.recorder.borrow());
        }
        Sample {
            offered_rps: self.config.offered_rps as f64,
            achieved_rps: self.completed() as f64 * 1e9 / self.config.duration_ns as f64,
            mean_us: recorder.mean() / 1000.0,
            p99_us: recorder.percentile(99.0) as f64 / 1000.0,
        }
    }
}

/// Runs one experiment point.
pub fn run(config: &ExperimentConfig) -> Sample {
    let experiment = build(config);
    experiment.world().run_until(experiment.end_ns());
    experiment.sample()
}

/// Builds one experiment's world: machines, populated store, server,
/// client connections with their arrival processes, warm-up timer.
pub fn build(config: &ExperimentConfig) -> Experiment {
    let lan = Lan::new();
    let w = &lan.world;
    let server_ip = Ipv4Addr::new(10, 0, 0, 1);
    let (server, s_if) = lan.machine(
        "server",
        config.server_cores,
        config.server_profile.clone(),
        [0xAA, 0, 0, 0, 0, 1],
        server_ip,
    );
    let (client, c_if) = lan.machine(
        "client",
        config.client_cores,
        CostProfile::ebbrt_vm(),
        [0xBB, 0, 0, 0, 0, 1],
        Ipv4Addr::new(10, 0, 0, 2),
    );
    w.run_to_idle();

    // Store, pre-populated directly (the paper warms the cache before
    // measuring; bypassing the network here is equivalent and faster).
    let store = memcached::serve_on(&server);
    let mut key_rng = StdRng::seed_from_u64(config.seed);
    let keys: Vec<Vec<u8>> = (0..config.nkeys)
        .map(|i| key_for(i, etc_key_len(&mut key_rng)))
        .collect();
    {
        // Writer-side inserts need a read-side guard for none; inserts
        // are writer path. Values get ETC sizes.
        for key in &keys {
            let vlen = etc_value_len(&mut key_rng);
            store_insert(&store, key.clone(), vlen);
        }
    }
    // Ebb wiring: the spawn closure carries only the Copy+Send store
    // ref; the server resolves its stack via the well-known id.
    w.run_to_idle();
    server.start_scheduler_ticks(w);

    // Connections, spread over client cores. Request frames are
    // templated once here; per-request generation only patches bytes.
    let measuring = Rc::new(Cell::new(false));
    let templates = Rc::new(RequestTemplates::build(&keys));
    let mut conns = Vec::new();
    let per_conn_rate = config.offered_rps as f64 / config.connections as f64;
    let mean_gap_ns = 1e9 / per_conn_rate;
    for i in 0..config.connections {
        let conn = Conn {
            recorder: RefCell::new(LatencyRecorder::new()),
            templates: Rc::clone(&templates),
            pending: RefCell::new(Default::default()),
            pipeline: config.pipeline,
            completed: Cell::new(0),
            measuring: Rc::clone(&measuring),
        };
        let core = CoreId((i % config.client_cores) as u32);
        let c = Client::new(conn);
        let cfg = config.clone();
        crate::spawn_with(&client, core, Rc::clone(&c), move |c| {
            c.open(server_ip, MEMCACHED_PORT);
            // Start this connection's arrival process.
            let mut rng = StdRng::seed_from_u64(cfg.seed ^ ((i as u64 + 1) * 0x9e37));
            schedule_arrival(&c, &cfg, mean_gap_ns, &mut rng, i as u32);
        });
        conns.push(c);
    }

    // Warmup end: start measuring.
    {
        let measuring = crate::SendCell::new(Rc::clone(&measuring));
        let warmup = config.warmup_ns;
        client.spawn_on(CoreId(0), move || {
            ebbrt_core::runtime::with_current(|rt| {
                let m = measuring.into_inner();
                rt.local_event_manager().set_timer(warmup, move || {
                    m.set(true);
                });
            });
        });
    }

    Experiment {
        lan,
        config: config.clone(),
        conns,
        _keep: ([s_if, c_if], store),
    }
}

fn store_insert(store: &Arc<Store>, key: Vec<u8>, vlen: usize) {
    // Direct insert (writer path); no readers yet.
    let value = IoBuf::copy_from(&vec![b'v'; vlen]);
    store.insert_raw(key, value);
}

/// Schedules this connection's next request arrival (exponential gap),
/// recursively rescheduling itself. Generation is allocation-free: a
/// request is a template index plus patch fields, not owned bytes.
#[allow(clippy::only_used_in_recursion)]
fn schedule_arrival(
    cc: &Rc<Client<Conn>>,
    cfg: &ExperimentConfig,
    mean_gap_ns: f64,
    rng: &mut StdRng,
    conn_index: u32,
) {
    let gap = (-rng.gen::<f64>().max(1e-12).ln() * mean_gap_ns) as u64;
    let cc2 = crate::SendCell::new((Rc::clone(cc), cfg.clone(), rng.clone()));
    let mean = mean_gap_ns;
    ebbrt_core::runtime::with_current(move |rt| {
        rt.local_event_manager().set_timer(gap.max(1), move || {
            let (cc, cfg, mut rng) = cc2.into_inner();
            // Generate one request.
            let now = ebbrt_core::runtime::with_current(|rt| rt.now_ns());
            let nkeys = cc.workload.templates.get.len();
            let req = PendingReq {
                opaque: rng.gen::<u32>(),
                key: rng.gen_range(0..nkeys) as u32,
                set_len: if rng.gen::<f64>() < cfg.get_ratio {
                    None
                } else {
                    Some(etc_value_len(&mut rng) as u16)
                },
                at: now,
            };
            // Bound the backlog so overload doesn't exhaust memory; the
            // latency of dropped arrivals is effectively infinite and
            // the achieved-throughput plateau tells the story.
            if cc.workload.pending.borrow().len() < 4096 {
                cc.workload.pending.borrow_mut().push_back(req);
            }
            cc.workload.pump(&cc);
            schedule_arrival(&cc, &cfg, mean, &mut rng, conn_index);
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebbrt_core::clock::ManualClock;
    use ebbrt_core::iobuf::{pool, stats};
    use ebbrt_core::runtime::Runtime;

    fn test_keys() -> Vec<Vec<u8>> {
        let mut rng = StdRng::seed_from_u64(7);
        (0..8).map(|i| key_for(i, etc_key_len(&mut rng))).collect()
    }

    fn test_reqs() -> Vec<PendingReq> {
        let gets = (0..4u32).map(|i| PendingReq {
            opaque: 0xA000 + i,
            key: i,
            set_len: None,
            at: 0,
        });
        let sets = [1u16, 77, 512, MAX_VALUE_LEN as u16]
            .iter()
            .enumerate()
            .map(|(i, &vlen)| PendingReq {
                opaque: 0xB000 + i as u32,
                key: (i + 4) as u32,
                set_len: Some(vlen),
                at: 0,
            });
        gets.chain(sets).collect()
    }

    /// Descriptor-clone staging must emit exactly the frames a fresh
    /// encode with the request's opaque (and, for SETs, its value
    /// length) would.
    #[test]
    fn descriptor_clone_staging_emits_byte_identical_frames() {
        let keys = test_keys();
        let templates = RequestTemplates::build(&keys);
        for req in test_reqs() {
            let expect = match req.set_len {
                None => memcached::encode_get(&keys[req.key as usize], req.opaque),
                Some(vlen) => memcached::encode_set(
                    &keys[req.key as usize],
                    &vec![b'u'; vlen as usize],
                    req.opaque,
                ),
            };
            let cloned = templates.stage(&req);
            assert_eq!(cloned.copy_to_vec(), expect, "descriptor-clone frame");
            assert_eq!(cloned.len(), templates.frame_len(&req), "window accounting");
        }
    }

    /// The load generator's steady state must be zero-copy client-side:
    /// once the templates are frozen and the pool is warm, staging a
    /// request copies no payload bytes and allocates no fresh buffers.
    /// Freezing a template, measured the same way, pays a frame-sized
    /// copy — the contrast is asserted too, so the test cannot silently
    /// measure nothing.
    #[test]
    fn descriptor_clone_staging_is_zero_copy_client_side() {
        let rt = Runtime::new(1, Arc::new(ManualClock::new()));
        let _g = ebbrt_core::runtime::enter(rt.clone(), CoreId(0));
        pool::prewarm(4);
        let keys = test_keys();
        let base = stats::runtime_snapshot(&rt);
        let templates = RequestTemplates::build(&keys); // copies happen HERE, once
        assert!(
            stats::runtime_snapshot(&rt).since(&base).bytes_copied > 0,
            "the copying baseline must be visible to the same counters"
        );
        let reqs = test_reqs();
        for req in &reqs {
            drop(templates.stage(req)); // pool warm
        }

        let base = stats::runtime_snapshot(&rt);
        for req in &reqs {
            drop(templates.stage(req));
        }
        let clone_delta = stats::runtime_snapshot(&rt).since(&base);
        assert_eq!(
            clone_delta.bytes_copied, 0,
            "descriptor-clone staging must copy zero payload bytes"
        );
        assert_eq!(
            clone_delta.bufs_allocated, 0,
            "descriptor-clone staging must allocate zero fresh buffers"
        );
    }

    /// The full experiment under descriptor-clone staging (the
    /// default) still serves traffic end to end.
    #[test]
    fn experiment_runs_under_descriptor_clone_staging() {
        let mut cfg = ExperimentConfig::new(1, CostProfile::ebbrt_vm(), 60_000);
        cfg.connections = 4;
        cfg.client_cores = 2;
        cfg.nkeys = 64;
        cfg.warmup_ns = 10_000_000;
        cfg.duration_ns = 30_000_000;
        let s = run(&cfg);
        assert!(s.achieved_rps > 0.0, "no responses measured");
    }
}
