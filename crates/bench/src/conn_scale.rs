//! Connection scale, measured: the conns-vs-latency sweep behind the
//! "one million connections" claim.
//!
//! Each point builds a fresh world — one single-core memcached server,
//! as many single-core client machines as the target needs (each holds
//! at most [`CONNS_PER_CLIENT`] connections; the ephemeral-port space
//! bounds a machine) — establishes `conns` TCP connections, and leaves
//! all but a fixed [`SAMPLED_MAX`]-connection probe set completely
//! idle. The probe connections then run a sparse closed-loop GET mix
//! (one request outstanding each), and per-request virtual-time
//! latency is recorded through the same slab-PCB demux every idle
//! connection sits in.
//!
//! What the CI gate pins down (see [`assert_scales`]):
//!
//! 1. **Flat tail latency**: demux is one RCU-indexed hash probe to a
//!    slab token plus one bounds-checked slab index — no per-segment
//!    second hash, no tombstone scans — so p99 at the top of the sweep
//!    may not exceed [`P99_DEGRADATION_X`] × p99 at the bottom.
//! 2. **Bounded idle footprint**: the *accounted* per-connection cost
//!    ([`ebbrt_net::netif::NetIf::bytes_per_idle_conn`] — the slab
//!    slot holding the PCB and handler) stays under
//!    [`IDLE_CONN_BUDGET_BYTES`], and when the caller supplies a
//!    live-heap probe the *measured* whole-world footprint per
//!    connection (both endpoints' PCBs, demux entries, switch state)
//!    stays under [`MEASURED_CONN_BUDGET_BYTES`], plus the world's own
//!    [`MEASURED_WORLD_BUDGET_BYTES`] spread over the point's
//!    connections. No timer-wheel entry
//!    is live on any machine at quiesce: an idle connection arms none.
//! 3. **Zero-copy, pool-hot steady state**: the measured GET phase
//!    copies zero payload bytes and allocates zero fresh buffers,
//!    regardless of how many idle connections surround it.
//!
//! All latency is virtual time from the deterministic cost model, so
//! the gate cannot flake on a noisy runner.

use std::cell::{Cell, RefCell};
use std::rc::{Rc, Weak};

use ebbrt_apps::memcached::{self, Client, ClosedLoop, Header, Workload, MEMCACHED_PORT};
use ebbrt_apps::spawn_with;
use ebbrt_apps::stats::LatencyRecorder;
use ebbrt_core::clock::Ns;
use ebbrt_core::cpu::{self, CoreId};
use ebbrt_core::iobuf::{stats, Chain, IoBuf};
use ebbrt_net::netif::{local_netif, ConnHandler, NetIf, TcpConn};
use ebbrt_net::types::Ipv4Addr;
use ebbrt_sim::{CostProfile, Lan, SimMachine};

/// Connections per client machine, comfortably inside the ephemeral
/// port range (33000..60000) a single machine can mint.
pub const CONNS_PER_CLIENT: usize = 20_000;
/// Probe connections that actually serve traffic at every point.
pub const SAMPLED_MAX: usize = 256;
/// Per-probe GETs consumed before measurement (pool warm-up).
const WARMUP_GETS: u32 = 4;
/// Per-probe GETs measured.
const MEASURED_GETS: u32 = 16;
/// Bytes in the probed value.
const VALUE_LEN: usize = 64;
const SERVER_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
/// Connect calls issued per driver event, so establishment interleaves
/// with the server's accept processing instead of queueing one
/// monolithic SYN burst.
const CONNECT_CHUNK: usize = 512;

/// Ceiling on p99 growth across the sweep: the top point's p99 must
/// stay within this factor of the bottom point's.
pub const P99_DEGRADATION_X: f64 = 2.0;
/// Hard budget on the accounted bytes of one idle established
/// connection (its slab slot).
pub const IDLE_CONN_BUDGET_BYTES: usize = 152;
/// Hard budget on the *measured* whole-world heap delta per
/// connection: both endpoints' accounted state plus the RCU demux
/// entries and allocator slack on either side. 1.15 × the 634 B
/// measured at 10^6 connections in a release build.
pub const MEASURED_CONN_BUDGET_BYTES: f64 = 729.0;
/// The heap a point's world takes whatever its connection count (the
/// probe set, pools, presized tables), which the measured figure
/// spreads over its connections: ~2 MB, so the 1k point reads 2.7 KB
/// per connection. A point's measured heap delta must stay under this
/// plus [`MEASURED_CONN_BUDGET_BYTES`] per connection.
pub const MEASURED_WORLD_BUDGET_BYTES: f64 = 4.0 * 1024.0 * 1024.0;

/// One sweep point's results.
pub struct ScaleReport {
    /// Established connections held for the whole point.
    pub conns: usize,
    /// Probe connections that served the measured GETs.
    pub sampled: usize,
    /// Probe mean request latency (virtual ns).
    pub mean_ns: f64,
    /// Probe p99 request latency (virtual ns).
    pub p99_ns: u64,
    /// Probe request failures (unexpected close / misframe). Gate: 0.
    pub failures: u32,
    /// Payload bytes memcpy'd during the measured phase (all
    /// machines). Gate: 0.
    pub steady_bytes_copied: u64,
    /// Fresh buffer allocations during the measured phase (all
    /// machines). Gate: 0.
    pub steady_bufs_allocated: u64,
    /// [`NetIf::bytes_per_idle_conn`] — the accounted footprint.
    pub accounted_bytes_per_idle_conn: usize,
    /// Measured live-heap delta per connection across establishment
    /// (whole world), when the caller supplied a probe.
    pub measured_bytes_per_conn: Option<f64>,
    /// Server PCB slab live count at steady state.
    pub slab_live: usize,
    /// Server PCB slab high-water mark.
    pub slab_high_water: usize,
    /// Timer-wheel entries live at quiesce, summed over every core of
    /// the server and the clients. Gate: 0.
    pub timer_live: usize,
}

/// A probe connection: a one-deep [`ClosedLoop`] that also tells its
/// machine's connect driver when it is up.
struct Sampled {
    get: ClosedLoop,
    driver: RefCell<Weak<Driver>>,
}

impl Workload for Sampled {
    fn on_connected(&self, client: &Client<Self>) {
        self.get.connected(client);
        if let Some(d) = self.driver.borrow().upgrade() {
            d.note_connected();
        }
    }

    fn on_reply(&self, client: &Client<Self>, h: &Header, value: Chain<IoBuf>, latency_ns: Ns) {
        self.get.replied(client, h, &value, latency_ns);
    }

    fn on_close(&self, client: &Client<Self>) {
        self.get.closed(client);
    }
}

/// Per-machine chunked connect driver. Chunks are flow-controlled:
/// the next [`CONNECT_CHUNK`] connects are issued only once every
/// connection of the previous chunk has reported `on_connected`, so
/// outstanding handshakes stay bounded per machine and a large point
/// cannot push the single server core past the handshake RTO (a
/// retransmission storm would permanently bloat both sides' buffer
/// pools and corrupt the measured bytes-per-connection figure).
struct Driver {
    quota: usize,
    issued: Cell<usize>,
    established: Cell<usize>,
    probes: Vec<Rc<Client<Sampled>>>,
    herd: Rc<Herd>,
    machine: Rc<SimMachine>,
}

impl Driver {
    fn note_connected(self: &Rc<Self>) {
        self.established.set(self.established.get() + 1);
        if self.established.get() == self.issued.get() && self.issued.get() < self.quota {
            let d2 = Rc::clone(self);
            spawn_with(&self.machine.clone(), CoreId(0), d2, |d| step(&d));
        }
    }
}

fn step(d: &Rc<Driver>) {
    let start = d.issued.get();
    let end = (start + CONNECT_CHUNK).min(d.quota);
    let n = local_netif();
    for j in start..end {
        match d.probes.get(j) {
            Some(p) => p.open(SERVER_IP, MEMCACHED_PORT),
            None => {
                n.connect(SERVER_IP, MEMCACHED_PORT, Rc::clone(&d.herd) as _);
            }
        }
    }
    d.issued.set(end);
}

/// The idle herd's shared handler: one `Rc` for every unsampled
/// connection on a machine (an idle connection's handler costs a
/// refcount, not an allocation), reporting establishment back to the
/// driver's chunk flow control. `Weak` back-reference: the driver
/// holds the herd.
struct Herd {
    driver: RefCell<Weak<Driver>>,
}

impl ConnHandler for Herd {
    fn on_connected(&self, _conn: &TcpConn) {
        if let Some(d) = self.driver.borrow().upgrade() {
            d.note_connected();
        }
    }
    fn on_receive(&self, _conn: &TcpConn, _data: Chain<IoBuf>) {}
}

/// Runs one sweep point holding `conns` established connections.
/// `live_heap_bytes`, when given, reads the process's live heap byte
/// count (from a counting global allocator) so the report carries a
/// measured bytes-per-connection figure.
pub fn run(conns: usize, live_heap_bytes: Option<&dyn Fn() -> u64>) -> ScaleReport {
    assert!(conns >= 1, "a sweep point needs at least one connection");
    let clients = conns.div_ceil(CONNS_PER_CLIENT);
    assert!(clients <= 200, "client address space exhausted");

    let lan = Lan::with_mask(Ipv4Addr::new(255, 255, 0, 0));
    let w = &lan.world;
    let vm = CostProfile::ebbrt_vm;
    let (server, s_if) = lan.machine("server", 1, vm(), [0xAA; 6], SERVER_IP);
    let client_machines: Vec<Rc<SimMachine>> = (0..clients)
        .map(|i| {
            let mac = [0xBB, 0, 0, 0, (i >> 8) as u8, i as u8];
            // 10.0.1.0 upward, skipping .0/.255 in the low octet.
            let ip = Ipv4Addr::new(10, 0, 1 + (i / 250) as u8, 1 + (i % 250) as u8);
            lan.machine(format!("client{i}"), 1, vm(), mac, ip).0
        })
        .collect();

    let store = memcached::serve_on(&server);
    store.insert_raw(b"k".to_vec(), IoBuf::copy_from(&[0x5A; VALUE_LEN]));
    w.run_to_idle();

    let heap_before = live_heap_bytes.map(|f| f());

    // Establish: machine 0 hosts the probes (real handlers); everything
    // else shares one no-op handler per machine. Each machine's driver
    // connects in chunks and re-queues itself, so SYN bursts interleave
    // with the server's accept work.
    let sampled = conns.min(SAMPLED_MAX);
    let probes: Vec<Rc<Client<Sampled>>> = (0..sampled)
        .map(|_| {
            Client::new(Sampled {
                get: ClosedLoop::new(memcached::encode_get(b"k", 1), 1, VALUE_LEN),
                driver: RefCell::new(Weak::new()),
            })
        })
        .collect();

    let mut remaining = conns;
    // Keeps every driver alive across the whole establishment phase:
    // the herd/probe handlers hold only `Weak` back-references, so the
    // chunk flow control dies with the driver otherwise.
    let mut drivers: Vec<Rc<Driver>> = Vec::with_capacity(clients);
    for (i, m) in client_machines.iter().enumerate() {
        let quota = remaining.min(CONNS_PER_CLIENT);
        remaining -= quota;
        let probes_here = if i == 0 { probes.clone() } else { Vec::new() };
        let herd = Rc::new(Herd {
            driver: RefCell::new(Weak::new()),
        });
        let driver = Rc::new(Driver {
            quota,
            issued: Cell::new(0),
            established: Cell::new(0),
            probes: probes_here,
            herd: Rc::clone(&herd),
            machine: Rc::clone(m),
        });
        *herd.driver.borrow_mut() = Rc::downgrade(&driver);
        for p in &driver.probes {
            *p.workload.driver.borrow_mut() = Rc::downgrade(&driver);
        }
        drivers.push(Rc::clone(&driver));
        spawn_with(m, CoreId(0), driver, |d| step(&d));
    }
    w.run_to_idle();
    for (i, d) in drivers.iter().enumerate() {
        assert_eq!(
            d.established.get(),
            d.quota,
            "client machine {i} stalled mid-establishment"
        );
    }
    drop(drivers);

    assert_eq!(
        s_if.conn_count(),
        conns,
        "every connection must establish (and none may be shed — no \
         policy and no syn backlog cap are installed)"
    );
    assert_eq!(
        s_if.embryonic_total(),
        0,
        "no half-open conns at steady state"
    );
    for (i, p) in probes.iter().enumerate() {
        assert!(p.conn().is_some(), "probe {i} failed to connect");
    }

    let measured_bytes_per_conn = match (heap_before, live_heap_bytes) {
        (Some(b0), Some(f)) => Some((f().saturating_sub(b0)) as f64 / conns as f64),
        _ => None,
    };

    // Each phase kicks every probe and runs the world dry. Warm-up: a
    // few GETs each, so both endpoints' buffer pools and the response
    // path are hot.
    let phase = |gets: u32| {
        spawn_with(&client_machines[0], CoreId(0), probes.clone(), move |ps| {
            for p in &ps {
                p.workload.get.kick(p, gets);
            }
        });
        w.run_to_idle();
        probes.iter().all(|p| p.workload.get.idle(p))
    };
    assert!(phase(WARMUP_GETS), "warm-up did not complete");
    for p in &probes {
        p.workload.get.lat.borrow_mut().reset();
    }

    // Measured phase: sparse GET mix over the probe set, surrounded by
    // `conns - sampled` idle connections in the same slab and demux.
    let rts: Vec<_> = std::iter::once(server.runtime())
        .chain(client_machines.iter().map(|m| m.runtime()))
        .collect();
    let before = stats::world_snapshot(rts.iter().map(|rt| &***rt));
    let measured = phase(MEASURED_GETS);
    let steady = stats::world_snapshot(rts.iter().map(|rt| &***rt)).since(&before);
    assert!(measured, "measured phase did not complete");
    let timer_live = rts
        .iter()
        .flat_map(|rt| rt.event_managers().iter().enumerate())
        .map(|(i, em)| {
            // The wheel is owned by its core: read it as that core.
            let _bound = cpu::bind(CoreId(i as u32));
            em.timer_stats().live
        })
        .sum();

    let mut rec = LatencyRecorder::new();
    for p in &probes {
        rec.merge(&p.workload.get.lat.borrow());
    }
    let failures = probes.iter().map(|p| p.workload.get.failures.get()).sum();
    ScaleReport {
        conns,
        sampled,
        mean_ns: rec.mean(),
        p99_ns: rec.percentile(99.0),
        failures,
        steady_bytes_copied: steady.bytes_copied,
        steady_bufs_allocated: steady.bufs_allocated,
        accounted_bytes_per_idle_conn: NetIf::bytes_per_idle_conn(),
        measured_bytes_per_conn,
        slab_live: s_if.conn_count(),
        slab_high_water: s_if.conn_high_water(),
        timer_live,
    }
}

/// One table/CSV row.
pub fn format_report(r: &ScaleReport) -> String {
    format!(
        "{:>9} {:>8} {:>10.1} {:>10.1} {:>9} {:>8} {:>11} {:>12} {:>12} {:>7}",
        r.conns,
        r.sampled,
        r.mean_ns / 1000.0,
        r.p99_ns as f64 / 1000.0,
        r.failures,
        r.accounted_bytes_per_idle_conn,
        r.measured_bytes_per_conn
            .map_or_else(|| "-".into(), |b| format!("{b:.0}")),
        r.steady_bytes_copied,
        r.steady_bufs_allocated,
        r.timer_live,
    )
}

/// Header matching [`format_report`].
pub fn table_header() -> String {
    format!(
        "{:>9} {:>8} {:>10} {:>10} {:>9} {:>8} {:>11} {:>12} {:>12} {:>7}",
        "conns",
        "sampled",
        "mean us",
        "p99 us",
        "failures",
        "b/conn",
        "measured b",
        "copied",
        "fresh bufs",
        "timers"
    )
}

/// The CI gate over a whole sweep (points in ascending conns order).
pub fn assert_scales(points: &[ScaleReport]) {
    assert!(points.len() >= 2, "a sweep needs at least two points");
    let bottom = &points[0];
    let top = &points[points.len() - 1];
    assert!(
        top.conns > bottom.conns,
        "sweep points must ascend in connection count"
    );
    for p in points {
        assert_eq!(p.failures, 0, "no request may fail at {} conns", p.conns);
        assert_eq!(
            (p.steady_bytes_copied, p.steady_bufs_allocated),
            (0, 0),
            "the measured GET phase at {} conns must be zero-copy and \
             pool-hot",
            p.conns
        );
        assert!(
            p.accounted_bytes_per_idle_conn <= IDLE_CONN_BUDGET_BYTES,
            "accounted idle-conn bytes {} exceed the {} budget",
            p.accounted_bytes_per_idle_conn,
            IDLE_CONN_BUDGET_BYTES
        );
        assert_eq!(
            p.slab_live, p.conns,
            "the PCB slab must hold exactly the established conns"
        );
        assert_eq!(
            p.slab_high_water, p.conns,
            "an establish-only point must never overshoot the slab"
        );
        assert_eq!(
            p.timer_live, 0,
            "an idle connection must hold no timer-wheel entry ({} live at {} conns)",
            p.timer_live, p.conns
        );
        if let Some(b) = p.measured_bytes_per_conn {
            let budget = MEASURED_CONN_BUDGET_BYTES + MEASURED_WORLD_BUDGET_BYTES / p.conns as f64;
            assert!(
                b <= budget,
                "measured bytes/conn {b:.0} exceed the {budget:.0} budget at {} conns \
                 ({MEASURED_CONN_BUDGET_BYTES} per conn + {MEASURED_WORLD_BUDGET_BYTES} per world)",
                p.conns
            );
        }
    }
    let ceiling = (bottom.p99_ns as f64) * P99_DEGRADATION_X;
    assert!(
        (top.p99_ns as f64) <= ceiling,
        "p99 degraded more than {P99_DEGRADATION_X}x across the sweep: \
         {} ns at {} conns vs {} ns at {} conns",
        top.p99_ns,
        top.conns,
        bottom.p99_ns,
        bottom.conns
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance gate, in-tree at debug-friendly scale: the same
    /// assertions CI runs via the `conn_scale` bench binary (which
    /// extends the sweep to 10^6 under `--release`).
    #[test]
    fn latency_stays_flat_from_1k_to_16k_conns() {
        let points = [run(1_000, None), run(16_000, None)];
        println!("{}", table_header());
        for p in &points {
            println!("{}", format_report(p));
        }
        assert_scales(&points);
    }
}
