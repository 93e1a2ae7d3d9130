//! The per-machine network interface: demux, TCP/UDP engines, ARP glue.
//!
//! Design points from §3.6, all implemented here:
//!
//! * Received data flows **synchronously** from the driver through the
//!   stack into the application handler — no queues, no buffering, no
//!   context switch ("the network stack does not provide any buffering,
//!   it will invoke the application as long as data arrives").
//! * Connection demux goes through an RCU hash table: per-packet
//!   lookups take no locks and no atomic RMWs.
//! * A connection's state is touched only on its *affinity core* — the
//!   core RSS steers its frames to. Outbound connections pick their
//!   ephemeral port so the reply flow hashes to the calling core.
//! * Applications drive the send path against the advertised window
//!   ([`TcpConn::send_window`]); the stack refuses rather than buffers
//!   ([`SendError::WindowFull`]) and signals
//!   [`ConnHandler::on_window_open`] when acknowledgments open space.

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::rc::{Rc, Weak};
use std::sync::Arc;

use ebbrt_core::clock::Ns;
use ebbrt_core::cpu::{self, CoreId};
use ebbrt_core::ebb::{EbbRef, MulticoreEbb, SystemEbb};
use ebbrt_core::iobuf::{Chain, IoBuf, MutIoBuf};
use ebbrt_core::qos::{self, ClassId, CounterHandle, FairScheduler, QosConfig, MAX_CLASSES};
use ebbrt_core::rcu_hash::RcuHashMap;
use ebbrt_core::runtime::{self, Runtime};
use ebbrt_sim::nic::Frame;
use ebbrt_sim::world::charge;
use ebbrt_sim::SimMachine;

use crate::arp::ArpCache;
use crate::conn_slab::ConnSlab;
use crate::tcp::{FourTuple, Pcb, TcpState};
use crate::types::{Ipv4Addr, Mac, MAC_BROADCAST};
use crate::wire::{self, tcp_flags, EthHeader, Ipv4Header, TcpHeader};

/// Base retransmission timeout (exponentially backed off).
pub const RTO_NS: Ns = 200_000_000;

/// Delayed-ACK timeout: a lone data segment is acknowledged within this
/// bound; a second segment forces an immediate ACK (RFC 1122 style).
pub const DELACK_NS: Ns = 200_000;

/// ARP request retransmission interval (doubled per attempt).
pub const ARP_RETRY_NS: Ns = 100_000_000;

/// ARP resolution attempts before the resolution is failed: queued
/// waiters receive `Err(ArpTimeout)` and connections still in SynSent
/// behind it are torn down.
pub const ARP_MAX_TRIES: u32 = 3;

/// First ephemeral port used by [`NetIf::connect`].
const EPHEMERAL_BASE: u16 = 33000;

/// Minimum age before a budgeted syncache may evict an embryonic
/// connection in favor of a new SYN. A legitimate handshake completes
/// within a couple of round trips (microseconds under the simulator's
/// cost model), so an embryonic entry this old is overwhelmingly a
/// flood SYN that will never ACK. Younger entries are presumed live
/// and the *new* SYN is shed instead.
pub const SYN_FRESH_NS: Ns = 50_000_000;

/// Callbacks through which a TCP application receives events. Handlers
/// run on the connection's affinity core, directly on the interrupt
/// path.
pub trait ConnHandler {
    /// The handshake completed.
    fn on_connected(&self, _conn: &TcpConn) {}
    /// In-order data arrived (zero-copy chain).
    fn on_receive(&self, conn: &TcpConn, data: Chain<IoBuf>);
    /// Acknowledgments opened usable send window.
    fn on_window_open(&self, _conn: &TcpConn) {}
    /// The peer closed (FIN) or the connection reset/terminated.
    fn on_close(&self, _conn: &TcpConn) {}
}

/// Errors from [`TcpConn::send`].
#[derive(Debug, PartialEq, Eq)]
pub enum SendError {
    /// The payload exceeds the usable send window; the application must
    /// buffer and retry on [`ConnHandler::on_window_open`]. Carries the
    /// currently usable window.
    WindowFull(usize),
    /// The connection is not in a data-transfer state.
    NotConnected,
}

/// Errors from [`NetIf::listen`].
#[derive(Debug, PartialEq, Eq)]
pub enum ListenError {
    /// The port already has a listener; the existing one is untouched.
    PortInUse(u16),
}

impl std::fmt::Display for ListenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ListenError::PortInUse(p) => write!(f, "port {p} already has a listener"),
        }
    }
}

impl std::error::Error for ListenError {}

/// A handle to a TCP connection. Cloneable; all methods must be called
/// on the connection's affinity core.
#[derive(Clone)]
pub struct TcpConn {
    netif: Weak<NetIf>,
    id: u64,
}

impl TcpConn {
    /// A handle referring to no connection — a placeholder for
    /// two-phase initialization. Every method panics until replaced.
    pub fn dangling() -> TcpConn {
        TcpConn {
            netif: Weak::new(),
            id: 0,
        }
    }

    /// Usable send window in bytes.
    pub fn send_window(&self) -> usize {
        self.with_netif(|n| n.with_pcb(self.id, |p| p.send_window()).unwrap_or(0))
    }

    /// Sends `data` (segmented to MSS). Refuses — does not buffer — if
    /// the window is too small.
    pub fn send(&self, data: Chain<IoBuf>) -> Result<(), SendError> {
        self.with_netif(|n| n.tcp_send(self.id, data))
    }

    /// Sets the advertised receive window (application-managed pacing).
    pub fn set_receive_window(&self, wnd: u16) {
        self.with_netif(|n| {
            n.with_pcb(self.id, |p| p.rcv_wnd = wnd);
        });
    }

    /// Initiates close (FIN).
    pub fn close(&self) {
        self.with_netif(|n| n.tcp_close(self.id));
    }

    /// Hard teardown: sends RST and discards the connection
    /// immediately — no FIN handshake, no waiting for in-flight data.
    /// The application-level cure for a peer that requests faster than
    /// it reads (a parked-reply backlog past its cap).
    pub fn abort(&self) {
        self.with_netif(|n| n.tcp_abort(self.id));
    }

    /// The connection's 4-tuple, if still alive.
    pub fn tuple(&self) -> Option<FourTuple> {
        self.with_netif(|n| n.with_pcb(self.id, |p| p.tuple))
    }

    /// Current TCP state (Closed if the connection is gone).
    pub fn state(&self) -> TcpState {
        self.with_netif(|n| n.with_pcb(self.id, |p| p.state).unwrap_or(TcpState::Closed))
    }

    /// The core this connection is pinned to.
    pub fn core(&self) -> Option<CoreId> {
        self.with_netif(|n| n.with_pcb(self.id, |p| p.core))
    }

    /// Internal id (diagnostics).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The connection's traffic class (assigned at accept/connect;
    /// [`ebbrt_core::qos::ClassId::DEFAULT`] when no policy is
    /// installed or the connection is gone). Applications read this to
    /// pick per-class serve policy — e.g. the memcached shedder's
    /// per-class deadlines.
    pub fn class(&self) -> ClassId {
        ClassId(self.with_netif(|n| n.with_pcb(self.id, |p| p.class).unwrap_or(0)))
    }

    fn with_netif<R>(&self, f: impl FnOnce(&Rc<NetIf>) -> R) -> R {
        let n = self.netif.upgrade().expect("NetIf dropped");
        f(&n)
    }
}

struct ConnRec {
    pcb: Rc<RefCell<Pcb>>,
    handler: Rc<dyn ConnHandler>,
}

/// Placeholder handler installed between PCB insertion and the
/// listener's `accept` returning the real one. `accept` runs
/// synchronously on the same core, so no segment can be delivered in
/// that window — these callbacks are unreachable in practice and
/// harmless no-ops if ever reached.
struct PendingHandler;

impl ConnHandler for PendingHandler {
    fn on_receive(&self, _conn: &TcpConn, _data: Chain<IoBuf>) {}
}

/// One classified TCP segment of a burst: parsed header plus the
/// payload chain (headers already advanced past).
struct TcpSeg {
    hdr: TcpHeader,
    payload: Chain<IoBuf>,
}

/// A per-connection run of segments within one burst, processed under a
/// single PCB borrow with one set of callbacks and one ACK decision.
struct TcpRun {
    id: u64,
    segs: Vec<TcpSeg>,
}

/// The receive path's working vectors, kept on the [`NetIf`] between
/// bursts so a pass allocates nothing once they have grown: the runs of
/// the burst being classified, and emptied segment vectors for the
/// next runs. A pass *takes* the whole struct and puts it back at the
/// end (as the driver does with its `burst` vector), so a pass entered
/// from inside another — a handler that loops a frame back in — finds
/// an empty scratch of its own instead of a held borrow.
#[derive(Default)]
struct RxScratch {
    runs: Vec<TcpRun>,
    spare_segs: Vec<Vec<TcpSeg>>,
}

/// In-flight ARP resolution: its retry timer (a persistent entry on the
/// core that initiated the resolution) and attempts so far.
struct ArpRetry {
    timer: ebbrt_core::event::TimerToken,
    tries: u32,
}

type AcceptFn = Rc<dyn Fn(&TcpConn) -> Rc<dyn ConnHandler>>;
type UdpHandlerFn = Rc<dyn Fn(Ipv4Addr, u16, Chain<IoBuf>)>;

/// Number of frames-per-burst histogram buckets:
/// 1, 2–3, 4–7, 8–15, 16–31, 32–63, 64+.
pub const BURST_BUCKETS: usize = 7;

/// Lower bound (inclusive) of each frames-per-burst bucket, for
/// printing.
pub const BURST_BUCKET_LO: [usize; BURST_BUCKETS] = [1, 2, 4, 8, 16, 32, 64];

/// Interface statistics (single-threaded cells). The burst-shape
/// counters — once plain cells here — live on the machine's
/// [`qos::CounterRegistryEbb`] now (per-core cells, summed at
/// quiescence), so the stack and the applications count through one
/// mechanism; read them back through [`NetIf::rx_bursts`],
/// [`NetIf::frames_per_burst`] and [`NetIf::coalesced_callbacks`] or
/// any [`qos::snapshot`].
pub struct NetStats {
    /// Frames received / transmitted.
    pub rx_frames: Cell<u64>,
    /// Frames transmitted.
    pub tx_frames: Cell<u64>,
    /// TCP segments received.
    pub rx_tcp: Cell<u64>,
    /// TCP segments transmitted.
    pub tx_tcp: Cell<u64>,
    /// Connections fully established.
    pub conns_established: Cell<u64>,
    /// Connections closed.
    pub conns_closed: Cell<u64>,
    /// Segments retransmitted.
    pub retransmits: Cell<u64>,
    /// Segments dropped for checksum or demux failure.
    pub rx_drops: Cell<u64>,
    /// ARP resolutions that exhausted their retries (each one failed
    /// its queued waiters and tore down any connection still in
    /// `SynSent` behind it).
    pub arp_failures: Cell<u64>,
    /// Receive bursts handed up by the driver ("net.rx_bursts").
    rx_bursts_h: CounterHandle,
    /// Burst-size histogram, power-of-two buckets
    /// (`net.frames_per_burst.{lo}`, [`BURST_BUCKET_LO`]).
    frames_per_burst_h: [CounterHandle; BURST_BUCKETS],
    /// Coalesced `on_receive` deliveries ("net.coalesced_callbacks").
    coalesced_h: CounterHandle,
    /// Live PCB slab entries ("net.pcb_slab_live", a gauge:
    /// incremented on insert, decremented on cleanup).
    pcb_slab_live_h: CounterHandle,
    /// PCB slab high-water mark ("net.pcb_slab_high_water", monotone;
    /// carried as cross-core deltas so the quiescent sum reads the
    /// peak).
    pcb_slab_high_water_h: CounterHandle,
    /// Accounted idle-connection footprint in bytes
    /// ("net.bytes_per_idle_conn", set once at attach from
    /// [`NetIf::bytes_per_idle_conn`]).
    bytes_per_idle_conn_h: CounterHandle,
    /// New SYNs shed by the budgeted syncache ("net.syn_shed").
    syn_shed_h: CounterHandle,
    /// Embryonic connections created / promoted to Established /
    /// evicted by the syncache / aborted before the handshake
    /// completed. The ledger balances at quiescence:
    /// `created == promoted + evicted + aborted + live`.
    embryonic_created_h: CounterHandle,
    embryonic_promoted_h: CounterHandle,
    embryonic_evicted_h: CounterHandle,
    embryonic_aborted_h: CounterHandle,
}

impl NetStats {
    fn new(rt: &Runtime) -> NetStats {
        NetStats {
            rx_frames: Cell::new(0),
            tx_frames: Cell::new(0),
            rx_tcp: Cell::new(0),
            tx_tcp: Cell::new(0),
            conns_established: Cell::new(0),
            conns_closed: Cell::new(0),
            retransmits: Cell::new(0),
            rx_drops: Cell::new(0),
            arp_failures: Cell::new(0),
            rx_bursts_h: qos::register_in(rt, "net.rx_bursts"),
            frames_per_burst_h: std::array::from_fn(|i| {
                qos::register_in(rt, &format!("net.frames_per_burst.{}", BURST_BUCKET_LO[i]))
            }),
            coalesced_h: qos::register_in(rt, "net.coalesced_callbacks"),
            pcb_slab_live_h: qos::register_in(rt, "net.pcb_slab_live"),
            pcb_slab_high_water_h: qos::register_in(rt, "net.pcb_slab_high_water"),
            bytes_per_idle_conn_h: qos::register_in(rt, "net.bytes_per_idle_conn"),
            syn_shed_h: qos::register_in(rt, "net.syn_shed"),
            embryonic_created_h: qos::register_in(rt, "net.embryonic_created"),
            embryonic_promoted_h: qos::register_in(rt, "net.embryonic_promoted"),
            embryonic_evicted_h: qos::register_in(rt, "net.embryonic_evicted"),
            embryonic_aborted_h: qos::register_in(rt, "net.embryonic_aborted"),
        }
    }

    /// Records one receive burst of `n` frames (on the calling core's
    /// registry rep — `rx_burst` runs on the RSS core).
    fn note_burst(&self, n: usize) {
        qos::bump(self.rx_bursts_h);
        if n == 0 {
            return;
        }
        let bucket = (usize::BITS - 1 - n.leading_zeros()).min(BURST_BUCKETS as u32 - 1) as usize;
        qos::bump(self.frames_per_burst_h[bucket]);
    }
}

/// The per-machine network stack instance.
pub struct NetIf {
    machine: Rc<SimMachine>,
    ip: Cell<Ipv4Addr>,
    mask: Cell<Ipv4Addr>,
    /// ARP cache (learning + resolution).
    pub arp: ArpCache,
    /// RCU connection demux: 4-tuple → PCB slab token. The token's
    /// low 32 bits are the slab index, so demux reaches a PCB with
    /// one bounds-checked vector index — the old second-level
    /// `HashMap<u64, ConnRec>` hash is gone from the segment path.
    conn_ids: RcuHashMap<FourTuple, u64>,
    /// Generation-tagged PCB slab (the `conn_ids` values are its
    /// tokens; stale tokens captured by timers miss harmlessly).
    conns: RefCell<ConnSlab<ConnRec>>,
    /// In-flight ARP resolutions. Borrow discipline: every access is a
    /// transient borrow released before any callback or transmit —
    /// `arp_retry_fire` *removes* its entry up front and re-inserts
    /// after output, so a re-entrant `send_arp_request` for the same
    /// address (from a handler the retry unblocks) sees a consistent
    /// table instead of a held borrow.
    arp_retries: RefCell<HashMap<Ipv4Addr, ArpRetry>>,
    listeners: RefCell<HashMap<u16, AcceptFn>>,
    /// UDP demux. Borrow discipline: `rx_udp` clones the handler `Rc`
    /// out of a transient borrow before invoking it, so a handler may
    /// re-enter `udp_bind` (or trigger nested delivery) freely.
    udp_bindings: RefCell<HashMap<u16, UdpHandlerFn>>,
    /// Budgeted syncache: per-class FIFO of embryonic (inbound,
    /// handshake incomplete) connections as `(token, created_ns)`.
    /// An entry goes stale in place when its connection promotes or
    /// dies and is dropped once it reaches the front
    /// (`trim_embryonic_front`), so the head is always the oldest live
    /// embryo; `embryonic_live` holds the true per-class count.
    embryonic_q: RefCell<[VecDeque<(u64, Ns)>; MAX_CLASSES]>,
    embryonic_live: [Cell<usize>; MAX_CLASSES],
    /// Embryonic cap for the default class when no QoS policy is
    /// installed ([`NetIf::set_syn_backlog`]); with a policy, each
    /// class's `syn_budget` governs.
    syn_backlog: Cell<Option<usize>>,
    next_eph: Cell<u16>,
    ip_id: Cell<u16>,
    iss: Cell<u32>,
    /// Time of the last transmit (virtio kick suppression window).
    last_tx: Cell<Ns>,
    /// Maximum TCP segment payload, derived from the device MTU at
    /// attach time (1460 for standard Ethernet, 8960 for jumbo
    /// frames). Segments this large route their buffer allocations to
    /// the matching [`ebbrt_core::iobuf::pool`] size class.
    mss: usize,
    /// Reusable receive-pass vectors; see [`RxScratch`].
    rx_scratch: RefCell<RxScratch>,
    /// Statistics.
    pub stats: NetStats,
    /// The installed QoS policy (classification + admission), if any.
    qos: RefCell<Option<Rc<QosPolicy>>>,
    /// Fast-path flag: frames route through the per-core scheduler
    /// only once a policy is installed (one `Cell` load per transmit
    /// otherwise).
    qos_on: Cell<bool>,
}

/// The per-core representative of the machine's **network manager
/// Ebb** ([`SystemEbb::NetStats`]): every core's rep shares the
/// machine's [`NetIf`], so application code resolves the stack — and
/// its [`NetStats`] — through one copyable [`EbbRef`] instead of
/// threading `Rc<NetIf>` handles into every spawn closure.
/// [`NetIf::attach`] installs a rep on every core.
///
/// Reps hold the stack weakly: the `Rc` returned by `attach` stays the
/// owner (dropping it detaches the stack, exactly as before the Ebb
/// existed), and the translation table cannot keep a dead interface
/// alive through the machine⇄stack cycle.
pub struct NetIfEbb {
    netif: Weak<NetIf>,
}

impl NetIfEbb {
    /// The machine's network stack.
    ///
    /// # Panics
    ///
    /// Panics if the stack has been dropped (the `attach` caller let
    /// its owning `Rc` go).
    pub fn netif(&self) -> Rc<NetIf> {
        self.netif.upgrade().expect("NetIf dropped under its Ebb")
    }

    /// Runs `f` against the machine's interface statistics.
    pub fn with_stats<R>(&self, f: impl FnOnce(&NetStats) -> R) -> R {
        f(&self.netif().stats)
    }
}

impl MulticoreEbb for NetIfEbb {
    type Root = ();

    fn create_rep(_: &Arc<()>, core: CoreId) -> Self {
        unreachable!("NetIfEbb reps are installed by NetIf::attach, not faulted ({core})")
    }
}

/// The well-known [`EbbRef`] of the current machine's network manager.
pub fn netif_ref() -> EbbRef<NetIfEbb> {
    EbbRef::well_known(SystemEbb::NetStats)
}

/// Resolves the current machine's [`NetIf`] through the translation
/// table — the way application wiring code (running in an event on any
/// core of the machine) reaches the stack.
///
/// # Panics
///
/// Panics if no [`NetIf`] is attached to the current machine, or if
/// the calling thread has not entered a runtime.
pub fn local_netif() -> Rc<NetIf> {
    netif_ref().with(|rep| rep.netif())
}

/// As [`local_netif`], returning `None` when the calling thread has
/// not entered a runtime or the current machine has no attached
/// stack — the form for code that degrades gracefully without a
/// network (direct-drive tests, harness threads).
pub fn try_local_netif() -> Option<Rc<NetIf>> {
    if !runtime::is_entered() {
        return None;
    }
    runtime::with_current_on(|rt, core| {
        if rt.ebbs().has_rep(SystemEbb::NetStats.id(), core) {
            rt.ebbs()
                .with_rep_on::<NetIfEbb, _>(core, SystemEbb::NetStats.id(), |rep| {
                    rep.netif.upgrade()
                })
        } else {
            None
        }
    })
}

// --- Overload control: classification, admission, tx scheduling ----------

/// One classifier predicate: which connections a [`QosRule`] captures.
#[derive(Clone, Copy, Debug)]
pub enum QosMatch {
    /// Inbound connections accepted on this listening port.
    LocalPort(u16),
    /// Outbound connections to this remote port.
    RemotePort(u16),
    /// Either direction, by peer address (the tenant-by-IP rule the
    /// overload bench uses to tell its clients apart).
    Peer(Ipv4Addr),
}

impl QosMatch {
    fn matches_accept(&self, local_port: u16, peer: Ipv4Addr) -> bool {
        match *self {
            QosMatch::LocalPort(p) => p == local_port,
            QosMatch::RemotePort(_) => false,
            QosMatch::Peer(ip) => ip == peer,
        }
    }

    fn matches_connect(&self, remote_port: u16, peer: Ipv4Addr) -> bool {
        match *self {
            QosMatch::LocalPort(_) => false,
            QosMatch::RemotePort(p) => p == remote_port,
            QosMatch::Peer(ip) => ip == peer,
        }
    }
}

/// A classifier rule: connections matching `m` belong to `class`.
#[derive(Clone, Copy, Debug)]
pub struct QosRule {
    /// The predicate.
    pub m: QosMatch,
    /// The class matched connections are assigned.
    pub class: ClassId,
}

/// The machine's installed QoS policy: the [`QosConfig`], the
/// classifier rules, the per-class admission budgets, and the
/// admission counters. Shared by every core of the machine (all cores
/// of a simulated machine run on the one world thread, so plain cells
/// suffice — the same contract as the rest of [`NetIf`]).
pub struct QosPolicy {
    config: QosConfig,
    rules: RefCell<Vec<QosRule>>,
    /// Currently admitted (live) connections per class.
    live: [Cell<usize>; MAX_CLASSES],
    admitted_h: Vec<CounterHandle>,
    rejected_h: Vec<CounterHandle>,
}

impl QosPolicy {
    fn new(config: QosConfig, rt: &Runtime) -> QosPolicy {
        let admitted_h = config
            .classes
            .iter()
            .map(|c| qos::register_in(rt, &qos::names::admitted(&c.name)))
            .collect();
        let rejected_h = config
            .classes
            .iter()
            .map(|c| qos::register_in(rt, &qos::names::rejected(&c.name)))
            .collect();
        QosPolicy {
            config,
            rules: RefCell::new(Vec::new()),
            live: Default::default(),
            admitted_h,
            rejected_h,
        }
    }

    /// The installed configuration.
    pub fn config(&self) -> &QosConfig {
        &self.config
    }

    /// Adds a classifier rule. First match wins, except that a
    /// [`QosMatch::Peer`] rule always beats a port rule (most
    /// specific first).
    pub fn add_rule(&self, m: QosMatch, class: ClassId) {
        assert!(
            (class.0 as usize) < self.config.classes.len(),
            "rule names unconfigured class {class:?}"
        );
        self.rules.borrow_mut().push(QosRule { m, class });
    }

    /// Classifies an inbound connection at accept time.
    pub fn classify_accept(&self, local_port: u16, peer: Ipv4Addr) -> ClassId {
        let rules = self.rules.borrow();
        rules
            .iter()
            .find(|r| matches!(r.m, QosMatch::Peer(_)) && r.m.matches_accept(local_port, peer))
            .or_else(|| rules.iter().find(|r| r.m.matches_accept(local_port, peer)))
            .map(|r| r.class)
            .unwrap_or(ClassId::DEFAULT)
    }

    /// Classifies an outbound connection at connect time.
    pub fn classify_connect(&self, remote_port: u16, peer: Ipv4Addr) -> ClassId {
        let rules = self.rules.borrow();
        rules
            .iter()
            .find(|r| matches!(r.m, QosMatch::Peer(_)) && r.m.matches_connect(remote_port, peer))
            .or_else(|| {
                rules
                    .iter()
                    .find(|r| r.m.matches_connect(remote_port, peer))
            })
            .map(|r| r.class)
            .unwrap_or(ClassId::DEFAULT)
    }

    /// Takes one unit of `class`'s admission budget. `false` — with
    /// the rejection counted — means the class is saturated and the
    /// SYN must be answered with an RST (reject-fast: the peer learns
    /// *now*, instead of timing out against a silently dropped SYN).
    pub fn try_admit(&self, class: ClassId) -> bool {
        let i = class.index(self.config.classes.len());
        let live = &self.live[i];
        if let Some(budget) = self.config.classes[i].conn_budget {
            if live.get() >= budget {
                qos::bump(self.rejected_h[i]);
                return false;
            }
        }
        live.set(live.get() + 1);
        qos::bump(self.admitted_h[i]);
        true
    }

    /// Returns an admitted connection's budget unit (at cleanup).
    pub fn release(&self, class: ClassId) {
        let i = class.index(self.config.classes.len());
        let live = &self.live[i];
        debug_assert!(live.get() > 0, "release without admit for {class:?}");
        live.set(live.get().saturating_sub(1));
    }

    /// Currently admitted connections of `class`.
    pub fn live(&self, class: ClassId) -> usize {
        self.live[class.index(self.config.classes.len())].get()
    }
}

/// The per-core representative of the machine's **transmit scheduler
/// Ebb** ([`SystemEbb::Qos`]): each core owns a [`FairScheduler`] over
/// its share of the paced link, so classed frames queue and dequeue
/// without any cross-core coordination — the per-core-rep pattern
/// applied to packet scheduling. Installed by [`NetIf::install_qos`];
/// absent (and costing nothing) until then.
pub struct QosEbb {
    netif: Weak<NetIf>,
    sched: RefCell<FairScheduler<Chain<IoBuf>>>,
    /// The core's persistent pacing timer: armed when the wire is busy
    /// with frames still queued, re-armed O(1) thereafter.
    timer: Cell<Option<ebbrt_core::event::TimerToken>>,
}

impl MulticoreEbb for QosEbb {
    type Root = ();

    fn create_rep(_: &Arc<()>, core: CoreId) -> Self {
        unreachable!("QosEbb reps are installed by NetIf::install_qos, not faulted ({core})")
    }
}

/// The well-known [`EbbRef`] of the current machine's tx scheduler.
fn qos_ref() -> EbbRef<QosEbb> {
    EbbRef::well_known(SystemEbb::Qos)
}

impl QosEbb {
    /// Queues a classed frame and drains whatever the discipline and
    /// the paced wire allow right now.
    fn enqueue(&self, class: ClassId, frame: Chain<IoBuf>) {
        let Some(netif) = self.netif.upgrade() else {
            return;
        };
        let now = netif.machine.runtime().now_ns();
        self.sched.borrow_mut().push(class, frame.len(), frame, now);
        self.drain(&netif);
    }

    /// Dequeues every frame the scheduler grants while the wire is
    /// free; if a backlog remains (wire busy), arms the pacing timer
    /// for the instant the wire frees up.
    fn drain(&self, netif: &Rc<NetIf>) {
        loop {
            let now = netif.machine.runtime().now_ns();
            let granted = self.sched.borrow_mut().pop(now);
            match granted {
                Some((_class, frame)) => netif.transmit_now(frame),
                None => break,
            }
        }
        let now = netif.machine.runtime().now_ns();
        let Some(ready_at) = self.sched.borrow().next_ready(now) else {
            return;
        };
        let delay = ready_at.saturating_sub(now).max(1);
        let timer = self.timer.get();
        runtime::with_current(|rt| {
            let tok = rt
                .local_event_manager()
                .arm_persistent_timer(timer, delay, move || {
                    // Re-resolve through the translation table: the
                    // closure is boxed once per core, not per frame.
                    qos_ref().with(|rep| {
                        if let Some(n) = rep.netif.upgrade() {
                            rep.drain(&n);
                        }
                    });
                });
            debug_assert!(
                timer.is_none() || timer == Some(tok),
                "persistent pacing timer token went stale (off-core use?)"
            );
            self.timer.set(Some(tok));
        });
    }

    /// Frames queued on this core (diagnostic).
    pub fn backlog(&self) -> usize {
        self.sched.borrow().len()
    }
}

impl NetIf {
    /// Creates the stack for `machine` with a static IP configuration,
    /// attaches the virtio driver on every core, and registers the
    /// stack under the well-known [`SystemEbb::NetStats`] id (one rep
    /// per core) so applications can reach it via [`netif_ref`] /
    /// [`local_netif`].
    pub fn attach(machine: &Rc<SimMachine>, ip: Ipv4Addr, mask: Ipv4Addr) -> Rc<NetIf> {
        let mss = machine.nic().mtu() - wire::IPV4_HLEN - wire::TCP_HLEN;
        // Freeze the device MTU: the MSS above (and the buffer pool's
        // size classes) are derived from it once, here.
        machine.nic().mark_stack_attached();
        let netif = Rc::new(NetIf {
            machine: Rc::clone(machine),
            mss,
            ip: Cell::new(ip),
            mask: Cell::new(mask),
            arp: ArpCache::new(),
            conn_ids: RcuHashMap::new(Arc::clone(machine.runtime().rcu())),
            conns: RefCell::new(ConnSlab::new()),
            arp_retries: RefCell::new(HashMap::new()),
            listeners: RefCell::new(HashMap::new()),
            udp_bindings: RefCell::new(HashMap::new()),
            embryonic_q: RefCell::new(Default::default()),
            embryonic_live: Default::default(),
            syn_backlog: Cell::new(None),
            next_eph: Cell::new(EPHEMERAL_BASE),
            ip_id: Cell::new(1),
            iss: Cell::new(0x1000),
            last_tx: Cell::new(u64::MAX / 2),
            rx_scratch: RefCell::default(),
            stats: NetStats::new(machine.runtime()),
            qos: RefCell::new(None),
            qos_on: Cell::new(false),
        });
        // Home the stack in the machine's translation table: one rep
        // per core under the well-known network-manager id. Reps are
        // hand-installed (no root-based fault path) because the rep
        // state is the single `Rc<NetIf>` itself.
        runtime::install_on_all_cores(machine.runtime(), SystemEbb::NetStats.id(), |_core| {
            NetIfEbb {
                netif: Rc::downgrade(&netif),
            }
        });
        // Publish the accounted idle-connection footprint once: the
        // figure is a compile-time property of the stack's layout.
        qos::add_in(
            machine.runtime(),
            netif.stats.bytes_per_idle_conn_h,
            Self::bytes_per_idle_conn() as u64,
        );
        crate::driver::attach(&netif);
        netif
    }

    /// The owning simulated machine.
    pub fn machine(&self) -> &Rc<SimMachine> {
        &self.machine
    }

    /// The interface's IPv4 address.
    pub fn ip(&self) -> Ipv4Addr {
        self.ip.get()
    }

    /// Sets the interface address (used by DHCP).
    pub fn set_ip(&self, ip: Ipv4Addr, mask: Ipv4Addr) {
        self.ip.set(ip);
        self.mask.set(mask);
    }

    /// The interface's MAC.
    pub fn mac(&self) -> Mac {
        self.machine.nic().mac()
    }

    /// Maximum TCP segment payload (derived from the device MTU).
    pub fn mss(&self) -> usize {
        self.mss
    }

    /// Installs the machine's overload-control policy: a per-core
    /// [`FairScheduler`] rep on every core (under the well-known
    /// [`SystemEbb::Qos`] id) pacing the transmit path, plus the
    /// classifier/admission state. Classify connections with
    /// [`QosPolicy::add_rule`] on the returned policy. One-shot: the
    /// policy is the machine's for the interface's lifetime.
    pub fn install_qos(self: &Rc<Self>, config: QosConfig) -> Rc<QosPolicy> {
        assert!(
            self.qos.borrow().is_none(),
            "QoS policy already installed on this interface"
        );
        let rt = self.machine.runtime();
        let policy = Rc::new(QosPolicy::new(config, rt));
        let netif = Rc::downgrade(self);
        let cfg = policy.config.clone();
        runtime::install_on_all_cores(rt, SystemEbb::Qos.id(), move |_core| QosEbb {
            netif: netif.clone(),
            sched: RefCell::new(FairScheduler::new(&cfg)),
            timer: Cell::new(None),
        });
        *self.qos.borrow_mut() = Some(Rc::clone(&policy));
        self.qos_on.set(true);
        policy
    }

    /// The installed QoS policy, if any.
    pub fn qos_policy(&self) -> Option<Rc<QosPolicy>> {
        self.qos.borrow().clone()
    }

    /// Receive bursts handed up by the driver, summed across cores
    /// (from the machine's counter registry; quiescent-read contract).
    pub fn rx_bursts(&self) -> u64 {
        qos::read_total(self.machine.runtime(), self.stats.rx_bursts_h)
    }

    /// The burst-size histogram ([`BURST_BUCKET_LO`] buckets), summed
    /// across cores.
    pub fn frames_per_burst(&self) -> [u64; BURST_BUCKETS] {
        let rt = self.machine.runtime();
        std::array::from_fn(|i| qos::read_total(rt, self.stats.frames_per_burst_h[i]))
    }

    /// Coalesced `on_receive` deliveries, summed across cores.
    pub fn coalesced_callbacks(&self) -> u64 {
        qos::read_total(self.machine.runtime(), self.stats.coalesced_h)
    }

    // --- TCP application API ---------------------------------------------

    /// Starts listening on `port`; `accept` is invoked (on the new
    /// connection's affinity core) for each inbound connection and
    /// returns its handler. A port with a prior listener is refused
    /// (`Err(PortInUse)`) with the existing listener untouched.
    pub fn listen(
        &self,
        port: u16,
        accept: impl Fn(&TcpConn) -> Rc<dyn ConnHandler> + 'static,
    ) -> Result<(), ListenError> {
        match self.listeners.borrow_mut().entry(port) {
            std::collections::hash_map::Entry::Occupied(_) => Err(ListenError::PortInUse(port)),
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(Rc::new(accept));
                Ok(())
            }
        }
    }

    /// Opens a connection to `remote`. Must be called from an event on
    /// the desired affinity core: the ephemeral port is chosen so the
    /// reply flow RSS-hashes to the calling core. The handler's
    /// `on_connected` fires when the handshake completes.
    pub fn connect(
        self: &Rc<Self>,
        remote: Ipv4Addr,
        port: u16,
        handler: Rc<dyn ConnHandler>,
    ) -> TcpConn {
        let core = cpu::current();
        let local_port = self.pick_ephemeral(remote, port, core);
        let tuple = FourTuple {
            local: (self.ip.get(), local_port),
            remote: (remote, port),
        };
        let iss = self.iss.get();
        self.iss.set(iss.wrapping_add(0x3_1337));
        let mut pcb = Pcb::new(tuple, TcpState::SynSent, iss, core);
        pcb.rcv_wnd = crate::tcp::DEFAULT_RCV_WND;
        // Outbound connections are classed (their tx is scheduled) but
        // never admission-controlled: budgets protect the server from
        // peers, not from its own opens.
        if let Some(policy) = self.qos.borrow().as_ref() {
            pcb.class = policy.classify_connect(port, remote).0;
        }
        let id = self.insert_conn(pcb, handler);
        // Resolve the next hop, then SYN (the Figure 2 path: on a cache
        // hit this continues synchronously). A failed resolution tears
        // the embryonic connection down instead of leaving it to hang
        // in SynSent until its RTO budget expires.
        let me = Rc::downgrade(self);
        let need_request = self.arp.find(remote, move |res| {
            if let Some(n) = me.upgrade() {
                match res {
                    Ok(mac) => n.complete_connect(id, core, mac),
                    Err(_) => n.abort_connect(id, core),
                }
            }
        });
        if need_request {
            self.send_arp_request(remote);
        }
        TcpConn {
            netif: Rc::downgrade(self),
            id,
        }
    }

    /// Runs `f` on `core` — immediately if the caller is already
    /// bound there, else as a spawned event. Continuations that touch
    /// a connection's PCB or its per-connection timer entries must go
    /// through this: that state is affinity-core-only.
    fn run_on_core(self: &Rc<Self>, core: CoreId, f: impl FnOnce(&Rc<Self>) + 'static) {
        if cpu::try_current() == Some(core) {
            f(self);
            return;
        }
        let me = Rc::downgrade(self);
        self.machine.spawn_local(core, move || {
            if let Some(n) = me.upgrade() {
                f(&n);
            }
        });
    }

    /// Continues an active open once the next hop resolves. An ARP
    /// reply drains its waiters on whatever core it arrived on, so hop
    /// to the connection's affinity core first.
    fn complete_connect(self: &Rc<Self>, id: u64, core: CoreId, mac: Mac) {
        self.run_on_core(core, move |n| n.send_syn(id, mac));
    }

    /// Tears down an embryonic (SynSent) connection whose next-hop
    /// resolution failed, on the connection's affinity core: the
    /// handler sees `on_close` immediately rather than the connection
    /// silently hanging until retransmissions give out.
    fn abort_connect(self: &Rc<Self>, id: u64, core: CoreId) {
        self.run_on_core(core, move |n| n.connect_failed(id));
    }

    fn connect_failed(self: &Rc<Self>, id: u64) {
        let (pcb_rc, handler) = match self.conns.borrow().get(id) {
            Some(rec) => (Rc::clone(&rec.pcb), Rc::clone(&rec.handler)),
            None => return,
        };
        // Only an embryonic connection can be waiting on ARP; anything
        // past SynSent resolved by other means and proceeds normally.
        if pcb_rc.borrow().state != TcpState::SynSent {
            return;
        }
        pcb_rc.borrow_mut().state = TcpState::Closed;
        self.cleanup(id);
        handler.on_close(&TcpConn {
            netif: Rc::downgrade(self),
            id,
        });
    }

    fn send_syn(self: &Rc<Self>, id: u64, mac: Mac) {
        self.with_pcb(id, |p| p.remote_mac = mac);
        self.with_conn(id, |n, pcb, _| {
            let mut p = pcb.borrow_mut();
            let iss = p.snd_una;
            n.tcp_output(&mut p, tcp_flags::SYN, iss, Chain::new(), 1);
            p.record_sent(iss, 1, tcp_flags::SYN, Chain::new());
        });
        self.arm_rto(id);
    }

    /// Binds a UDP port to a handler `(src_ip, src_port, payload)`.
    pub fn udp_bind(&self, port: u16, handler: impl Fn(Ipv4Addr, u16, Chain<IoBuf>) + 'static) {
        self.udp_bindings
            .borrow_mut()
            .insert(port, Rc::new(handler));
    }

    /// Sends a UDP datagram. Broadcast destinations go out with the
    /// broadcast MAC; unicast resolves via ARP.
    pub fn udp_send(
        self: &Rc<Self>,
        src_port: u16,
        dst: Ipv4Addr,
        dst_port: u16,
        payload: Chain<IoBuf>,
    ) {
        if dst.is_broadcast() {
            self.udp_output(MAC_BROADCAST, src_port, dst, dst_port, payload);
            return;
        }
        let me = Rc::downgrade(self);
        let src_ip_port = src_port;
        let need_request = self.arp.find(dst, move |res| {
            // A failed resolution drops the datagram — UDP's contract —
            // but promptly, and counted, instead of leaking the queued
            // payload forever.
            if let (Some(n), Ok(mac)) = (me.upgrade(), res) {
                n.udp_output(mac, src_ip_port, dst, dst_port, payload);
            }
        });
        if need_request {
            self.send_arp_request(dst);
        }
    }

    // --- Frame ingress (driver) ---------------------------------------------

    /// Processes one received frame — a thin shim over the vector path
    /// ([`Self::rx_burst`] with a burst of one), kept so per-packet
    /// callers and tests exercise exactly the code the burst path runs.
    pub fn rx_frame(self: &Rc<Self>, chain: Chain<IoBuf>) {
        let mut one = vec![chain];
        self.rx_burst(&mut one);
    }

    /// Processes a whole receive burst (called by the driver on the RSS
    /// core with its reusable frame vector; each chain starts at the
    /// Ethernet header). The burst flows through the stack as vector
    /// stages:
    ///
    /// 1. **Parse/classify** — ethernet and IPv4 headers are parsed per
    ///    frame; ARP, UDP and connectionless TCP are handled inline (in
    ///    arrival order), while TCP segments for live connections are
    ///    demuxed against the RCU table and grouped into per-PCB *runs*.
    /// 2. **Run processing** — each run is processed under one PCB
    ///    borrow (`process_run`): every segment's ACK/reassembly
    ///    work happens back to back, the deliverable payload coalesces
    ///    into one zero-copy chain, and one delayed-ACK decision covers
    ///    the whole run.
    /// 3. **Delivery** — the application gets at most one `on_receive`
    ///    per connection per pass.
    ///
    /// Grouping only reorders TCP segments of *different* connections
    /// relative to each other (per-connection arrival order is
    /// preserved), which TCP cannot observe; any frame that can change
    /// the demux table (SYN, ARP, UDP) flushes pending runs first so
    /// cross-protocol ordering is preserved too.
    pub fn rx_burst(self: &Rc<Self>, frames: &mut Vec<Chain<IoBuf>>) {
        if frames.is_empty() {
            return;
        }
        self.stats.note_burst(frames.len());
        let mut rx = self.rx_scratch.take();
        for mut chain in frames.drain(..) {
            self.stats.rx_frames.set(self.stats.rx_frames.get() + 1);
            // A well-formed TCP frame whose headers sit in its first
            // segment, with no link-layer padding behind the IP packet,
            // is parsed in one look; anything else is taken apart
            // header by header below.
            if let Some((eth, ip, tcp)) = wire::parse_tcp_frame(&chain) {
                if chain.len() == wire::ETH_HLEN + ip.total_len as usize {
                    if self.eth_for_us(&eth) && self.ip_for_us(&ip) {
                        chain.advance(wire::ETH_HLEN + wire::IPV4_HLEN);
                        self.classify_tcp(eth, ip, Some(tcp), chain, &mut rx);
                    }
                    continue;
                }
            }
            let eth = match wire::parse_eth(&chain) {
                Some(e) => e,
                None => {
                    self.drop_frame();
                    continue;
                }
            };
            if !self.eth_for_us(&eth) {
                continue; // not for us (switch flooding)
            }
            chain.advance(wire::ETH_HLEN);
            match eth.ethertype {
                wire::ETHERTYPE_ARP => {
                    self.flush_runs(&mut rx);
                    self.rx_arp(chain);
                }
                wire::ETHERTYPE_IPV4 => self.classify_ipv4(eth, chain, &mut rx),
                _ => self.drop_frame(),
            }
        }
        self.flush_runs(&mut rx);
        *self.rx_scratch.borrow_mut() = rx;
    }

    fn eth_for_us(&self, eth: &EthHeader) -> bool {
        eth.dst == self.mac() || eth.dst == MAC_BROADCAST
    }

    fn ip_for_us(&self, ip: &Ipv4Header) -> bool {
        let our = self.ip.get();
        ip.dst == our || ip.dst.is_broadcast() || our.is_unspecified()
    }

    /// Stage-2 barrier: processes every grouped run, in the order the
    /// runs first appeared in the burst.
    fn flush_runs(self: &Rc<Self>, rx: &mut RxScratch) {
        for mut run in rx.runs.drain(..) {
            self.process_run(run.id, &mut run.segs);
            rx.spare_segs.push(run.segs);
        }
    }

    fn rx_arp(self: &Rc<Self>, chain: Chain<IoBuf>) {
        let pkt = match wire::parse_arp(&chain) {
            Some(p) => p,
            None => return self.drop_frame(),
        };
        // Learn the sender either way.
        if !pkt.spa.is_unspecified() {
            self.arp.insert(pkt.spa, pkt.sha);
        }
        if pkt.oper == wire::ARP_REQUEST && pkt.tpa == self.ip.get() {
            let reply = wire::ArpPacket {
                oper: wire::ARP_REPLY,
                sha: self.mac(),
                spa: self.ip.get(),
                tha: pkt.sha,
                tpa: pkt.spa,
            };
            let mut buf = wire::build_arp(&reply);
            wire::push_eth(
                &mut buf,
                &EthHeader {
                    dst: pkt.sha,
                    src: self.mac(),
                    ethertype: wire::ETHERTYPE_ARP,
                },
            );
            // Link-layer control bypasses the tx scheduler: a next-hop
            // resolution must never queue behind a data backlog.
            self.transmit_now(Chain::single(buf.freeze()));
        }
    }

    fn classify_ipv4(self: &Rc<Self>, eth: EthHeader, mut chain: Chain<IoBuf>, rx: &mut RxScratch) {
        let ip = match wire::parse_ipv4(&chain) {
            Some(h) => h,
            None => return self.drop_frame(),
        };
        if !self.ip_for_us(&ip) {
            return;
        }
        chain.advance(wire::IPV4_HLEN);
        // Trim link-layer padding.
        let l4_len = (ip.total_len as usize).saturating_sub(wire::IPV4_HLEN);
        if chain.len() > l4_len {
            let extra = chain.len() - l4_len;
            let keep = chain.len() - extra;
            let kept = chain.split_to(keep);
            chain = kept;
        } else if chain.len() < l4_len {
            return self.drop_frame(); // truncated
        }
        match ip.proto {
            wire::IPPROTO_TCP => self.classify_tcp(eth, ip, None, chain, rx),
            wire::IPPROTO_UDP => {
                self.flush_runs(rx);
                self.rx_udp(ip, chain);
            }
            _ => self.drop_frame(),
        }
    }

    fn rx_udp(self: &Rc<Self>, ip: Ipv4Header, mut chain: Chain<IoBuf>) {
        let hdr = match wire::parse_udp(&chain) {
            Some(h) => h,
            None => return self.drop_frame(),
        };
        chain.advance(wire::UDP_HLEN);
        let handler = self.udp_bindings.borrow().get(&hdr.dst_port).cloned();
        match handler {
            Some(h) => h(ip.src, hdr.src_port, chain),
            None => self.drop_frame(),
        }
    }

    /// Classifies one TCP segment; `chain` starts at the TCP header,
    /// which the one-look parser may already have read (`parsed`).
    fn classify_tcp(
        self: &Rc<Self>,
        eth: EthHeader,
        ip: Ipv4Header,
        parsed: Option<TcpHeader>,
        mut chain: Chain<IoBuf>,
        rx: &mut RxScratch,
    ) {
        self.stats.rx_tcp.set(self.stats.rx_tcp.get() + 1);
        if !wire::verify_tcp_checksum(ip.src, ip.dst, &chain, chain.len() as u16) {
            return self.drop_frame();
        }
        let hdr = match parsed.or_else(|| wire::parse_tcp(&chain)) {
            Some(h) => h,
            None => return self.drop_frame(),
        };
        chain.advance(hdr.header_len.min(chain.len()));
        let tuple = FourTuple {
            local: (ip.dst, hdr.dst_port),
            remote: (ip.src, hdr.src_port),
        };
        // RCU lookup: no locks, no atomic RMW (we are inside an event).
        // Batched demux: segments of one connection group into a run,
        // preserving per-connection arrival order.
        let id = self.conn_ids.get(&tuple, |id| *id);
        match id {
            Some(id) => {
                let seg = TcpSeg {
                    hdr,
                    payload: chain,
                };
                match rx.runs.iter_mut().find(|r| r.id == id) {
                    Some(run) => run.segs.push(seg),
                    None => {
                        let mut segs = rx.spare_segs.pop().unwrap_or_default();
                        segs.push(seg);
                        rx.runs.push(TcpRun { id, segs });
                    }
                }
            }
            None => {
                // A SYN mutates the demux table (and anything else gets
                // an RST built from instantaneous state): order it
                // against the queued runs.
                self.flush_runs(rx);
                self.handle_no_conn(eth, ip, tuple, &hdr);
            }
        }
    }

    /// SYN to a listening port creates a connection; anything else gets
    /// RST.
    fn handle_no_conn(
        self: &Rc<Self>,
        eth: EthHeader,
        ip: Ipv4Header,
        tuple: FourTuple,
        hdr: &TcpHeader,
    ) {
        let is_syn = hdr.flags & tcp_flags::SYN != 0 && hdr.flags & tcp_flags::ACK == 0;
        let accept = self.listeners.borrow().get(&tuple.local.1).cloned();
        match (is_syn, accept) {
            (true, Some(accept)) => {
                // Admission control: classify the SYN and take a unit
                // of the class's connection budget *before* any state
                // is built. A saturated class is rejected fast — one
                // RST, no PCB, no handler — so overload costs the
                // server a classifier lookup, not a connection.
                let mut class = ClassId::DEFAULT;
                let mut admitted = false;
                if let Some(policy) = self.qos.borrow().clone() {
                    class = policy.classify_accept(tuple.local.1, tuple.remote.0);
                    if !policy.try_admit(class) {
                        self.send_rst(eth, ip, hdr);
                        return;
                    }
                    admitted = true;
                }
                // Syncache budget: below admission in the shed ladder.
                // Over the class's embryonic cap, either evict the
                // class's own oldest stale half-open connection or —
                // when every embryonic entry is still fresh — shed
                // this SYN instead. Either way the pressure stays
                // inside the flooding class: established connections
                // and other classes' embryos are untouchable.
                if !self.syncache_make_room(class) {
                    qos::bump(self.stats.syn_shed_h);
                    if admitted {
                        if let Some(policy) = self.qos.borrow().as_ref() {
                            policy.release(class);
                        }
                    }
                    self.send_rst(eth, ip, hdr);
                    return;
                }
                let core = cpu::current(); // the RSS core: the conn's home
                let iss = self.iss.get();
                self.iss.set(iss.wrapping_add(0x3_1337));
                let mut pcb = Pcb::new(tuple, TcpState::SynReceived, iss, core);
                pcb.class = class.0;
                pcb.admitted = admitted;
                pcb.embryonic = true;
                pcb.remote_mac = eth.src;
                pcb.rcv_nxt = hdr.seq.wrapping_add(1);
                pcb.snd_wnd = hdr.window as u32;
                self.arp.insert(ip.src, eth.src);
                // Insert with a placeholder handler first — the slab
                // mints the token — then let `accept` build the real
                // handler against a *live* connection handle and swap
                // it in. (The old code predicted the next id before
                // inserting, which a slab with slot reuse can't do.)
                let id = self.insert_conn(pcb, Rc::new(PendingHandler));
                self.note_embryonic_created(class, id);
                let conn = TcpConn {
                    netif: Rc::downgrade(self),
                    id,
                };
                let handler = accept(&conn);
                if let Some(rec) = self.conns.borrow_mut().get_mut(id) {
                    rec.handler = handler;
                } else {
                    // `accept` tore the connection down; nothing to run.
                    return;
                }
                self.with_conn(id, |n, pcb, _| {
                    let mut p = pcb.borrow_mut();
                    let iss = p.snd_una;
                    let flags = tcp_flags::SYN | tcp_flags::ACK;
                    n.tcp_output(&mut p, flags, iss, Chain::new(), 1);
                    p.record_sent(iss, 1, flags, Chain::new());
                });
                self.arm_rto(id);
            }
            _ => {
                // RST for anything unexpected.
                self.send_rst(eth, ip, hdr);
            }
        }
    }

    // --- Budgeted syncache ---------------------------------------------------

    /// The embryonic cap for `class`: per-class `syn_budget` under an
    /// installed policy, else [`NetIf::set_syn_backlog`]'s cap for the
    /// default class.
    fn syn_budget_for(&self, class: ClassId) -> Option<usize> {
        if let Some(policy) = self.qos.borrow().as_ref() {
            let i = class.index(policy.config.classes.len());
            return policy.config.classes[i].syn_budget;
        }
        self.syn_backlog.get()
    }

    /// Makes room in `class`'s embryonic budget for one new SYN.
    /// Returns `false` if the SYN must be shed (budget full of fresh
    /// embryos). May evict the class's oldest stale embryonic
    /// connection (counted on `embryonic_evicted`).
    fn syncache_make_room(self: &Rc<Self>, class: ClassId) -> bool {
        let Some(cap) = self.syn_budget_for(class) else {
            return true;
        };
        let ci = class.0 as usize % MAX_CLASSES;
        if self.embryonic_live[ci].get() < cap {
            return true;
        }
        // At the cap: the queue's head is the class's oldest embryo.
        let now = self.machine.runtime().now_ns();
        let oldest = self.embryonic_q.borrow()[ci].front().copied();
        match oldest {
            Some((tok, created)) if now.saturating_sub(created) >= SYN_FRESH_NS => {
                // Old enough that a live peer would have ACKed long
                // ago: evict it in favor of the new SYN. Clear the flag
                // first so cleanup doesn't double-count this death as
                // an abort, and read the victim's affinity core: its
                // timer entries live there, so the teardown must run
                // there (the new SYN may have RSS-hashed to a different
                // core).
                let core = match self.conns.borrow().get(tok) {
                    Some(rec) => {
                        let mut p = rec.pcb.borrow_mut();
                        p.embryonic = false;
                        p.core
                    }
                    None => unreachable!("the queue's head is a live embryo"),
                };
                self.note_embryonic_gone(class.0, self.stats.embryonic_evicted_h);
                self.run_on_core(core, move |n| n.tcp_abort(tok));
                true
            }
            Some(_) => {
                // Every embryo is fresh (a legitimate thundering herd):
                // keep them, shed the newcomer.
                false
            }
            None => {
                // Count says full but the queue found nothing — cannot
                // happen while the ledger balances; fail open.
                debug_assert!(false, "embryonic count/queue out of sync");
                true
            }
        }
    }

    /// Records a new embryonic connection in its class's syncache.
    fn note_embryonic_created(&self, class: ClassId, id: u64) {
        let ci = class.0 as usize % MAX_CLASSES;
        let now = self.machine.runtime().now_ns();
        self.embryonic_q.borrow_mut()[ci].push_back((id, now));
        self.embryonic_live[ci].set(self.embryonic_live[ci].get() + 1);
        qos::bump(self.stats.embryonic_created_h);
    }

    /// Settles an embryonic connection's ledger entry: decrements the
    /// class's live count and bumps `reason` (promoted, evicted or
    /// aborted). The caller has already cleared the PCB's `embryonic` flag or
    /// removed the connection, so its queue entry is stale.
    fn note_embryonic_gone(&self, class: u8, reason: CounterHandle) {
        let ci = class as usize % MAX_CLASSES;
        let live = &self.embryonic_live[ci];
        debug_assert!(live.get() > 0, "embryonic ledger underflow");
        live.set(live.get().saturating_sub(1));
        qos::bump(reason);
        self.trim_embryonic_front(ci);
    }

    /// Drops stale entries (promoted or dead connections) from the
    /// front of a class's syncache queue, so the queue is no longer
    /// than the run of connections accepted since its oldest live
    /// embryo — not one entry per connection ever accepted.
    fn trim_embryonic_front(&self, ci: usize) {
        let conns = self.conns.borrow();
        let q = &mut self.embryonic_q.borrow_mut()[ci];
        while let Some(&(tok, _)) = q.front() {
            if conns.get(tok).is_some_and(|rec| rec.pcb.borrow().embryonic) {
                break;
            }
            q.pop_front();
        }
    }

    /// Processes one connection's run of segments under a single PCB
    /// borrow, then fires each application callback at most once for
    /// the whole run: `on_connected`, one coalesced `on_receive`,
    /// `on_window_open`, `on_close` — in that order — followed by one
    /// delayed-ACK decision. Per-connection arrival order is preserved;
    /// only the *number* of callbacks and bare ACKs changes relative to
    /// per-packet processing (a run of N data segments produces one
    /// delivery and at most one bare ACK instead of N and N/2), which
    /// the equivalence proptest pins down.
    fn process_run(self: &Rc<Self>, id: u64, segs: &mut Vec<TcpSeg>) {
        let (pcb_rc, handler) = match self.conns.borrow().get(id) {
            Some(rec) => (Rc::clone(&rec.pcb), Rc::clone(&rec.handler)),
            None => return segs.clear(),
        };
        let conn = TcpConn {
            netif: Rc::downgrade(self),
            id,
        };
        // Events accumulated across the run; callbacks run after the
        // borrow is released (handlers send, which re-borrows the PCB).
        let mut established = false;
        let mut handshake_ack = false;
        let mut window_opened = false;
        let mut peer_closed = false;
        let mut reset = false;
        let mut promoted_class: Option<u8> = None;
        let mut delivery: Chain<IoBuf> = Chain::new();
        let mut chunks = 0usize;
        {
            let mut p = pcb_rc.borrow_mut();
            // Draining leaves `segs` empty even on the RST `break`.
            for seg in segs.drain(..) {
                let hdr = seg.hdr;
                // RST: tear down immediately; anything already
                // reassembled in this run is still delivered below
                // (exactly what per-packet processing did for the
                // segments preceding the RST).
                if hdr.flags & tcp_flags::RST != 0 {
                    p.state = TcpState::Closed;
                    reset = true;
                    break;
                }
                match p.state {
                    TcpState::SynSent => {
                        if hdr.flags & (tcp_flags::SYN | tcp_flags::ACK)
                            == tcp_flags::SYN | tcp_flags::ACK
                        {
                            if hdr.ack != p.snd_nxt.wrapping_add(1) && hdr.ack != p.snd_nxt {
                                continue;
                            }
                            p.rcv_nxt = hdr.seq.wrapping_add(1);
                            p.process_ack(hdr.ack, hdr.window);
                            p.state = TcpState::Established;
                            p.ack_pending = true;
                            established = true;
                            // Complete the handshake with an immediate
                            // ACK, never a delayed one.
                            handshake_ack = true;
                        }
                    }
                    TcpState::SynReceived => {
                        if hdr.flags & tcp_flags::ACK != 0 {
                            p.process_ack(hdr.ack, hdr.window);
                            p.state = TcpState::Established;
                            established = true;
                            if p.embryonic {
                                // Promotion: the connection leaves the
                                // syncache ledger (counted below, after
                                // the borrow releases).
                                p.embryonic = false;
                                promoted_class = Some(p.class);
                            }
                            // Piggybacked data falls through.
                            self.established_seg(
                                &mut p,
                                &hdr,
                                seg.payload,
                                &mut window_opened,
                                &mut peer_closed,
                                &mut delivery,
                                &mut chunks,
                            );
                        }
                    }
                    TcpState::Closed => {}
                    _ => self.established_seg(
                        &mut p,
                        &hdr,
                        seg.payload,
                        &mut window_opened,
                        &mut peer_closed,
                        &mut delivery,
                        &mut chunks,
                    ),
                }
            }
        }
        if let Some(class) = promoted_class {
            self.note_embryonic_gone(class, self.stats.embryonic_promoted_h);
        }
        if established {
            self.stats
                .conns_established
                .set(self.stats.conns_established.get() + 1);
            handler.on_connected(&conn);
        }
        if !delivery.is_empty() {
            if chunks > 1 {
                qos::bump(self.stats.coalesced_h);
            }
            handler.on_receive(&conn, delivery);
        }
        if window_opened {
            handler.on_window_open(&conn);
        }
        if reset {
            self.cleanup(id);
            handler.on_close(&conn);
            return;
        }
        if peer_closed {
            handler.on_close(&conn);
        }
        if handshake_ack {
            self.flush_ack(&pcb_rc);
        } else {
            self.flush_or_delay_ack(id, &pcb_rc);
        }
        let closed = pcb_rc.borrow().is_closed();
        if closed {
            self.cleanup(id);
        }
    }

    /// Data-phase work for one segment of a run, under the caller's PCB
    /// borrow (Established and closing states). Deliverable payload and
    /// callback-worthy events accumulate into the run's state instead
    /// of firing per segment.
    #[allow(clippy::too_many_arguments)]
    fn established_seg(
        &self,
        p: &mut Pcb,
        hdr: &TcpHeader,
        payload: Chain<IoBuf>,
        window_opened: &mut bool,
        peer_closed: &mut bool,
        delivery: &mut Chain<IoBuf>,
        chunks: &mut usize,
    ) {
        let mut fin_acked = false;
        if hdr.flags & tcp_flags::ACK != 0 {
            let r = p.process_ack(hdr.ack, hdr.window);
            // Deliver window-open in every state where the app may
            // still send (tcp_send accepts Established and CloseWait):
            // a peer that half-closes while a large reply is parked
            // must still receive the tail.
            *window_opened |=
                r.window_opened && matches!(p.state, TcpState::Established | TcpState::CloseWait);
            if r.queue_empty {
                // Nothing in flight: park the RTO timer (entry kept for
                // the next send).
                self.disarm_rto(p);
                if p.close_requested && p.snd_una == p.snd_nxt {
                    fin_acked = true;
                }
            } else if r.acked > 0 {
                // Progress with data still outstanding: restart the RTO
                // for the (new) oldest unacked segment. This is the
                // per-ACK re-arm — an O(1) wheel relink.
                self.restart_rto(p);
            }
        }
        // Reassemble; deliverable chains coalesce into the run's single
        // zero-copy delivery (descriptor moves, no byte copies).
        let seg_len = payload.len() as u32;
        *chunks += p.on_data(hdr.seq, payload, delivery);
        if seg_len > 0 {
            p.segs_since_ack += 1;
        }
        // FIN processing: consumes one sequence number, only when it is
        // the next expected byte.
        if hdr.flags & tcp_flags::FIN != 0 {
            let fin_seq = hdr.seq.wrapping_add(seg_len);
            if fin_seq == p.rcv_nxt {
                p.rcv_nxt = p.rcv_nxt.wrapping_add(1);
                p.ack_pending = true;
                *peer_closed = true;
                p.state = match p.state {
                    TcpState::Established => TcpState::CloseWait,
                    TcpState::FinWait1 => {
                        if p.snd_una == p.snd_nxt {
                            TcpState::Closed
                        } else {
                            TcpState::LastAck // simultaneous close
                        }
                    }
                    TcpState::FinWait2 => TcpState::Closed,
                    s => s,
                };
            }
        }
        // State advance on our FIN being acknowledged.
        if fin_acked {
            p.state = match p.state {
                TcpState::FinWait1 => TcpState::FinWait2,
                TcpState::LastAck => TcpState::Closed,
                s => s,
            };
        }
    }

    // --- TCP egress ---------------------------------------------------------

    fn tcp_send(self: &Rc<Self>, id: u64, data: Chain<IoBuf>) -> Result<(), SendError> {
        let pcb_rc = match self.conns.borrow().get(id) {
            Some(rec) => Rc::clone(&rec.pcb),
            None => return Err(SendError::NotConnected),
        };
        {
            let p = pcb_rc.borrow();
            assert_eq!(
                cpu::try_current(),
                Some(p.core),
                "TCP connections must be driven from their affinity core"
            );
            match p.state {
                TcpState::Established | TcpState::CloseWait => {}
                _ => return Err(SendError::NotConnected),
            }
            if data.len() > p.send_window() {
                return Err(SendError::WindowFull(p.send_window()));
            }
        }
        // Segment to the device-derived MSS; each segment is recorded
        // for retransmission (descriptor clones — no byte copies).
        let mut remaining = data;
        let mut p = pcb_rc.borrow_mut();
        while !remaining.is_empty() {
            let take = remaining.len().min(self.mss);
            let seg = remaining.split_to(take);
            let seq = p.snd_nxt;
            let flags = tcp_flags::ACK | tcp_flags::PSH;
            self.tcp_output(&mut p, flags, seq, seg.clone(), seg.len() as u32);
            p.record_sent(seq, seg.len() as u32, flags, seg);
        }
        drop(p);
        self.arm_rto(id);
        Ok(())
    }

    fn tcp_close(self: &Rc<Self>, id: u64) {
        let pcb_rc = match self.conns.borrow().get(id) {
            Some(rec) => Rc::clone(&rec.pcb),
            None => return,
        };
        let mut p = pcb_rc.borrow_mut();
        if p.close_requested {
            return;
        }
        match p.state {
            TcpState::Established | TcpState::SynReceived => {
                p.close_requested = true;
                let seq = p.snd_nxt;
                let flags = tcp_flags::FIN | tcp_flags::ACK;
                self.tcp_output(&mut p, flags, seq, Chain::new(), 1);
                p.record_sent(seq, 1, flags, Chain::new());
                p.state = TcpState::FinWait1;
                drop(p);
                self.arm_rto(id);
            }
            TcpState::CloseWait => {
                p.close_requested = true;
                let seq = p.snd_nxt;
                let flags = tcp_flags::FIN | tcp_flags::ACK;
                self.tcp_output(&mut p, flags, seq, Chain::new(), 1);
                p.record_sent(seq, 1, flags, Chain::new());
                p.state = TcpState::LastAck;
                drop(p);
                self.arm_rto(id);
            }
            TcpState::SynSent => {
                p.state = TcpState::Closed;
                drop(p);
                self.cleanup(id);
            }
            _ => {}
        }
    }

    /// Hard-kills a connection: one RST out, state to Closed, records
    /// and timers freed. See [`TcpConn::abort`].
    fn tcp_abort(self: &Rc<Self>, id: u64) {
        let pcb_rc = match self.conns.borrow().get(id) {
            Some(rec) => Rc::clone(&rec.pcb),
            None => return,
        };
        {
            let mut p = pcb_rc.borrow_mut();
            if p.state == TcpState::Closed {
                return;
            }
            let seq = p.snd_nxt;
            self.tcp_output(
                &mut p,
                tcp_flags::RST | tcp_flags::ACK,
                seq,
                Chain::new(),
                0,
            );
            p.state = TcpState::Closed;
        }
        self.cleanup(id);
    }

    /// Builds and transmits one TCP segment. `seq_len` is the sequence
    /// space it occupies (payload + SYN/FIN); pure ACKs pass 0.
    fn tcp_output(&self, p: &mut Pcb, flags: u8, seq: u32, payload: Chain<IoBuf>, _seq_len: u32) {
        let mut hdr = MutIoBuf::with_headroom(0, wire::HEADROOM);
        let id = self.ip_id.get();
        self.ip_id.set(id.wrapping_add(1));
        wire::push_tcp_frame(
            &mut hdr,
            &EthHeader {
                dst: p.remote_mac,
                src: self.mac(),
                ethertype: wire::ETHERTYPE_IPV4,
            },
            &Ipv4Header {
                src: p.tuple.local.0,
                dst: p.tuple.remote.0,
                proto: wire::IPPROTO_TCP,
                total_len: 0,
                id,
                ttl: 64,
            },
            &TcpHeader {
                src_port: p.tuple.local.1,
                dst_port: p.tuple.remote.1,
                seq,
                ack: p.rcv_nxt,
                flags,
                window: p.rcv_wnd,
                header_len: wire::TCP_HLEN,
            },
            &payload,
        );
        let mut frame = Chain::single(hdr.freeze());
        frame.append_chain(payload);
        p.ack_pending = false;
        p.segs_since_ack = 0;
        if p.delack_armed {
            // The ACK piggybacked on this segment; park the delack
            // timer instead of letting it fire into a no-op.
            p.delack_armed = false;
            if let Some(tok) = p.delack_timer {
                runtime::with_current(|rt| {
                    rt.local_event_manager().disarm_timer(tok);
                });
            }
        }
        self.stats.tx_tcp.set(self.stats.tx_tcp.get() + 1);
        self.transmit(frame, ClassId(p.class));
    }

    /// Sends a bare ACK if one is owed (called at the end of segment
    /// processing; a reply sent synchronously by the application will
    /// already have carried the ACK).
    fn flush_ack(&self, pcb_rc: &Rc<RefCell<Pcb>>) {
        let mut p = pcb_rc.borrow_mut();
        if p.ack_pending && p.state != TcpState::Closed {
            let seq = p.snd_nxt;
            self.tcp_output(&mut p, tcp_flags::ACK, seq, Chain::new(), 0);
        }
    }

    /// Delayed-ACK policy: a second unacknowledged segment (or a FIN)
    /// forces an immediate ACK; a lone segment is acknowledged by a
    /// short timer unless the application's reply piggybacks it first.
    fn flush_or_delay_ack(self: &Rc<Self>, id: u64, pcb_rc: &Rc<RefCell<Pcb>>) {
        {
            let p = pcb_rc.borrow();
            if !p.ack_pending || p.state == TcpState::Closed {
                return;
            }
            if p.segs_since_ack < 2 {
                // Delay: arm the connection's persistent ACK timer.
                drop(p);
                let mut p = pcb_rc.borrow_mut();
                if !p.delack_armed {
                    p.delack_armed = true;
                    let timer = p.delack_timer;
                    drop(p);
                    runtime::with_current(|rt| {
                        // Steady state: re-arms the existing entry —
                        // no allocation per segment.
                        let me = Rc::downgrade(self);
                        let tok = rt.local_event_manager().arm_persistent_timer(
                            timer,
                            DELACK_NS,
                            move || {
                                if let Some(n) = me.upgrade() {
                                    if let Some(rec) =
                                        n.conns.borrow().get(id).map(|r| Rc::clone(&r.pcb))
                                    {
                                        rec.borrow_mut().delack_armed = false;
                                        n.flush_ack(&rec);
                                    }
                                }
                            },
                        );
                        debug_assert!(
                            timer.is_none() || timer == Some(tok),
                            "persistent delack timer token went stale (off-core use?)"
                        );
                        if timer != Some(tok) {
                            pcb_rc.borrow_mut().delack_timer = Some(tok);
                        }
                    });
                }
                return;
            }
        }
        self.flush_ack(pcb_rc);
    }

    fn send_rst(self: &Rc<Self>, eth: EthHeader, ip: Ipv4Header, hdr: &TcpHeader) {
        let tuple = FourTuple {
            local: (ip.dst, hdr.dst_port),
            remote: (ip.src, hdr.src_port),
        };
        let mut fake = Pcb::new(tuple, TcpState::Closed, hdr.ack, cpu::current());
        fake.remote_mac = eth.src;
        fake.rcv_nxt = hdr.seq.wrapping_add(1);
        let seq = hdr.ack;
        self.tcp_output(
            &mut fake,
            tcp_flags::RST | tcp_flags::ACK,
            seq,
            Chain::new(),
            0,
        );
    }

    // --- Retransmission -------------------------------------------------------
    //
    // Each connection owns one *persistent* RTO timer (and one
    // delayed-ACK timer): the closure is boxed once, on the first arm,
    // and every subsequent arm/disarm/restart — which happens per
    // segment on the hot path — is an O(1) timer-wheel relink with no
    // allocation.

    fn arm_rto(self: &Rc<Self>, id: u64) {
        let pcb_rc = match self.conns.borrow().get(id) {
            Some(rec) => Rc::clone(&rec.pcb),
            None => return,
        };
        let mut p = pcb_rc.borrow_mut();
        if p.rto_armed || p.unacked.is_empty() {
            return;
        }
        p.rto_armed = true;
        let delay = RTO_NS * p.rto_backoff as u64;
        let timer = p.rto_timer;
        drop(p);
        runtime::with_current(|rt| {
            let me = Rc::downgrade(self);
            let tok = rt
                .local_event_manager()
                .arm_persistent_timer(timer, delay, move || {
                    if let Some(n) = me.upgrade() {
                        n.rto_fire(id);
                    }
                });
            debug_assert!(
                timer.is_none() || timer == Some(tok),
                "persistent RTO timer token went stale (off-core use?)"
            );
            if timer != Some(tok) {
                pcb_rc.borrow_mut().rto_timer = Some(tok);
            }
        });
    }

    /// Restarts the running RTO from now (new ACK progress, queue still
    /// non-empty) — O(1), no allocation.
    fn restart_rto(&self, p: &mut Pcb) {
        if let Some(tok) = p.rto_timer {
            let delay = RTO_NS * p.rto_backoff as u64;
            let ok = runtime::with_current(|rt| rt.local_event_manager().reset_timer(tok, delay));
            debug_assert!(ok, "persistent RTO timer token went stale (off-core use?)");
            p.rto_armed = ok;
        }
    }

    /// Stops the RTO (retransmission queue emptied). The timer entry is
    /// retained, parked, for the connection's next transmission.
    fn disarm_rto(&self, p: &mut Pcb) {
        if p.rto_armed {
            p.rto_armed = false;
            if let Some(tok) = p.rto_timer {
                runtime::with_current(|rt| {
                    rt.local_event_manager().disarm_timer(tok);
                });
            }
        }
    }

    fn rto_fire(self: &Rc<Self>, id: u64) {
        let pcb_rc = match self.conns.borrow().get(id) {
            Some(rec) => Rc::clone(&rec.pcb),
            None => return,
        };
        let mut p = pcb_rc.borrow_mut();
        p.rto_armed = false;
        if p.unacked.is_empty() {
            return;
        }
        // Handshake retries are bounded: once the backoff ladder is
        // exhausted (1+2+4+8+16 RTOs ≈ 6 s of silence), an unanswered
        // SYN or SYN-ACK gives up — a budgeted syncache must not nurse
        // half-open connections forever. Established connections are
        // exempt: they retransmit indefinitely and ride out partitions
        // (the chaos suite depends on it).
        if p.rto_backoff >= 32 {
            match p.state {
                TcpState::SynSent => {
                    drop(p);
                    self.connect_failed(id);
                    return;
                }
                TcpState::SynReceived => {
                    drop(p);
                    self.tcp_abort(id);
                    return;
                }
                _ => {}
            }
        }
        // Go-back-N: retransmit the oldest unacked segment.
        let (seq, flags, payload) = {
            let seg = &p.unacked[0];
            (seg.seq, seg.flags, seg.payload.clone())
        };
        p.note_retransmit();
        self.stats.retransmits.set(self.stats.retransmits.get() + 1);
        let len = payload.len() as u32;
        self.tcp_output(&mut p, flags, seq, payload, len);
        p.rto_backoff = (p.rto_backoff * 2).min(64);
        drop(p);
        self.arm_rto(id);
    }

    // --- UDP / ARP egress --------------------------------------------------

    fn udp_output(
        self: &Rc<Self>,
        dst_mac: Mac,
        src_port: u16,
        dst: Ipv4Addr,
        dst_port: u16,
        payload: Chain<IoBuf>,
    ) {
        let mut hdr = MutIoBuf::with_headroom(0, wire::HEADROOM);
        wire::push_udp(&mut hdr, self.ip.get(), dst, src_port, dst_port, &payload);
        let udp_len = wire::UDP_HLEN + payload.len();
        let id = self.ip_id.get();
        self.ip_id.set(id.wrapping_add(1));
        wire::push_ipv4(
            &mut hdr,
            &Ipv4Header {
                src: self.ip.get(),
                dst,
                proto: wire::IPPROTO_UDP,
                total_len: 0,
                id,
                ttl: 64,
            },
            udp_len,
        );
        wire::push_eth(
            &mut hdr,
            &EthHeader {
                dst: dst_mac,
                src: self.mac(),
                ethertype: wire::ETHERTYPE_IPV4,
            },
        );
        let mut frame = Chain::single(hdr.freeze());
        frame.append_chain(payload);
        self.transmit(frame, ClassId::DEFAULT);
    }

    /// Transmits an ARP request and schedules bounded retries (the
    /// retry timer migrated to the shared timer-wheel API: one
    /// persistent entry per in-flight resolution, re-armed with
    /// exponential backoff, evicting the pending entry if the peer
    /// never answers).
    fn send_arp_request(self: &Rc<Self>, ip: Ipv4Addr) {
        self.output_arp_request(ip);
        if self.arp_retries.borrow().contains_key(&ip) {
            return; // a retry timer is already driving this resolution
        }
        let me = Rc::downgrade(self);
        let timer = runtime::with_current(|rt| {
            rt.local_event_manager()
                .set_persistent_timer(ARP_RETRY_NS, move || {
                    if let Some(n) = me.upgrade() {
                        n.arp_retry_fire(ip);
                    }
                })
        });
        self.arp_retries
            .borrow_mut()
            .insert(ip, ArpRetry { timer, tries: 1 });
    }

    fn arp_retry_fire(self: &Rc<Self>, ip: Ipv4Addr) {
        let Some(mut retry) = self.arp_retries.borrow_mut().remove(&ip) else {
            return;
        };
        // Resolved since the timer was armed (the reply may arrive on a
        // different core, so the cancel is lazy — here, on the timer's
        // own core): free the entry.
        if self.arp.lookup(ip).is_some() {
            runtime::with_current(|rt| rt.local_event_manager().cancel_timer(retry.timer));
            return;
        }
        if retry.tries >= ARP_MAX_TRIES {
            // Give up: fail the pending entry — every queued waiter
            // receives the error (connections tear down, datagrams
            // drop) instead of being silently discarded.
            self.stats
                .arp_failures
                .set(self.stats.arp_failures.get() + 1);
            self.arp.fail(ip);
            runtime::with_current(|rt| rt.local_event_manager().cancel_timer(retry.timer));
            return;
        }
        retry.tries += 1;
        // Doubled per attempt (tries was just incremented, so the
        // first retry waits 2× the base interval).
        let backoff = ARP_RETRY_NS << (retry.tries - 1);
        self.output_arp_request(ip);
        runtime::with_current(|rt| {
            rt.local_event_manager().reset_timer(retry.timer, backoff);
        });
        self.arp_retries.borrow_mut().insert(ip, retry);
    }

    fn output_arp_request(self: &Rc<Self>, ip: Ipv4Addr) {
        let req = wire::ArpPacket {
            oper: wire::ARP_REQUEST,
            sha: self.mac(),
            spa: self.ip.get(),
            tha: [0; 6],
            tpa: ip,
        };
        let mut buf = wire::build_arp(&req);
        wire::push_eth(
            &mut buf,
            &EthHeader {
                dst: MAC_BROADCAST,
                src: self.mac(),
                ethertype: wire::ETHERTYPE_ARP,
            },
        );
        // Control plane: bypasses the tx scheduler (see rx_arp).
        self.transmit_now(Chain::single(buf.freeze()));
    }

    /// Classed egress: routes the frame through the calling core's
    /// [`QosEbb`] scheduler when a policy is installed (the scheduler
    /// decides *when* it reaches the wire), else straight to the NIC.
    /// Descriptor moves only — the scheduler queues the same chain the
    /// stack built, no byte copies.
    fn transmit(&self, frame: Chain<IoBuf>, class: ClassId) {
        if self.qos_on.get() {
            qos_ref().with(|rep| rep.enqueue(class, frame));
        } else {
            self.transmit_now(frame);
        }
    }

    /// Final egress: charge the profile's transmit cost (with virtio
    /// kick suppression while the ring is hot) and hand the frame to
    /// the NIC.
    fn transmit_now(&self, frame: Chain<IoBuf>) {
        self.stats.tx_frames.set(self.stats.tx_frames.get() + 1);
        let profile = self.machine.profile();
        let now = self.machine.runtime().now_ns();
        let ring_hot = now.saturating_sub(self.last_tx.get()) <= profile.virtio_batch_window_ns;
        self.last_tx.set(now);
        charge(profile.tx_cost_batched(frame.len(), ring_hot));
        self.machine.nic().transmit(Frame::new(frame));
    }

    // --- Bookkeeping ----------------------------------------------------------

    fn insert_conn(&self, pcb: Pcb, handler: Rc<dyn ConnHandler>) -> u64 {
        let tuple = pcb.tuple;
        let (id, hw_delta) = {
            let mut conns = self.conns.borrow_mut();
            let before_hw = conns.high_water();
            let id = conns.insert(ConnRec {
                pcb: Rc::new(RefCell::new(pcb)),
                handler,
            });
            (id, conns.high_water() - before_hw)
        };
        qos::bump(self.stats.pcb_slab_live_h);
        if hw_delta > 0 {
            qos::add(self.stats.pcb_slab_high_water_h, hw_delta as u64);
        }
        self.conn_ids.insert(tuple, id);
        id
    }

    fn cleanup(&self, id: u64) {
        let rec = self.conns.borrow_mut().remove(id);
        if let Some(rec) = rec {
            let p = rec.pcb.borrow();
            let tuple = p.tuple;
            // Free the connection's persistent timer entries (runs on
            // the affinity core, where they were created).
            let (rto, delack) = (p.rto_timer, p.delack_timer);
            let (class, admitted) = (p.class, p.admitted);
            let embryonic = p.embryonic;
            drop(p);
            qos::sub(self.stats.pcb_slab_live_h, 1);
            if embryonic {
                // Died before the handshake completed (RST, eviction is
                // counted separately before the flag clears, close).
                self.note_embryonic_gone(class, self.stats.embryonic_aborted_h);
            }
            // Return the admission-budget unit the SYN took.
            if admitted {
                if let Some(policy) = self.qos.borrow().as_ref() {
                    policy.release(ClassId(class));
                }
            }
            if rto.is_some() || delack.is_some() {
                runtime::with_current(|rt| {
                    let em = rt.local_event_manager();
                    if let Some(tok) = rto {
                        em.cancel_timer(tok);
                    }
                    if let Some(tok) = delack {
                        em.cancel_timer(tok);
                    }
                });
            }
            self.conn_ids.remove(&tuple);
            self.stats
                .conns_closed
                .set(self.stats.conns_closed.get() + 1);
        }
    }

    fn with_pcb<R>(&self, id: u64, f: impl FnOnce(&mut Pcb) -> R) -> Option<R> {
        let pcb = self.conns.borrow().get(id).map(|r| Rc::clone(&r.pcb))?;
        let mut p = pcb.borrow_mut();
        Some(f(&mut p))
    }

    fn with_conn(
        self: &Rc<Self>,
        id: u64,
        f: impl FnOnce(&Rc<Self>, &Rc<RefCell<Pcb>>, &Rc<dyn ConnHandler>),
    ) {
        let rec = match self.conns.borrow().get(id) {
            Some(rec) => (Rc::clone(&rec.pcb), Rc::clone(&rec.handler)),
            None => return,
        };
        f(self, &rec.0, &rec.1);
    }

    /// Picks an ephemeral port whose *reply* flow RSS-hashes to `core`,
    /// so the connection's frames arrive where it lives.
    fn pick_ephemeral(&self, remote: Ipv4Addr, remote_port: u16, core: CoreId) -> u16 {
        let nqueues = self.machine.nic().nqueues();
        let local_ip = self.ip.get();
        for _ in 0..4096 {
            let port = self.next_eph.get();
            self.next_eph.set(if port >= 60000 {
                EPHEMERAL_BASE
            } else {
                port + 1
            });
            let hash =
                ebbrt_sim::nic::rss_hash(remote.to_u32(), local_ip.to_u32(), remote_port, port);
            if (hash as usize) % nqueues == core.index() % nqueues {
                return port;
            }
        }
        panic!("no ephemeral port maps to {core} under RSS");
    }

    fn drop_frame(&self) {
        self.stats.rx_drops.set(self.stats.rx_drops.get() + 1);
    }

    /// Number of live connections (diagnostic).
    pub fn conn_count(&self) -> usize {
        self.conns.borrow().live()
    }

    /// Highest simultaneous connection count the slab has held.
    pub fn conn_high_water(&self) -> usize {
        self.conns.borrow().high_water()
    }

    /// Caps the embryonic backlog of the *default* class when no QoS
    /// policy is installed (with one, per-class
    /// [`ebbrt_core::qos::ClassConfig::syn_budget`] governs instead).
    pub fn set_syn_backlog(&self, cap: usize) {
        self.syn_backlog.set(Some(cap));
    }

    /// Live embryonic (inbound, handshake incomplete) connections of
    /// `class`.
    pub fn embryonic_live(&self, class: ClassId) -> usize {
        self.embryonic_live[class.0 as usize % MAX_CLASSES].get()
    }

    /// Entries held by the syncache queues, stale ones included:
    /// bounded by the connections accepted during the oldest live
    /// embryo's handshake, whatever the number accepted before it.
    pub fn embryonic_queued(&self) -> usize {
        self.embryonic_q.borrow().iter().map(VecDeque::len).sum()
    }

    /// Total live embryonic connections across classes — the `live`
    /// term of the syncache ledger
    /// (`created == promoted + evicted + aborted + live` at
    /// quiescence; the chaos harness asserts it).
    pub fn embryonic_total(&self) -> usize {
        self.embryonic_live.iter().map(Cell::get).sum()
    }

    /// The accounted per-connection footprint of an idle established
    /// connection: slab slot, PCB box (`Rc<RefCell<Pcb>>` payload and
    /// refcounts), and the connection's two parked persistent timer
    /// entries. Rarely-used state (reassembly, retransmit ledger)
    /// lives in [`crate::tcp::PcbCold`] and is charged only to
    /// connections that actually use it; the RCU demux entry is the
    /// map's own per-key cost, measured end to end by the
    /// `conn_scale` bench rather than accounted here.
    pub fn bytes_per_idle_conn() -> usize {
        let slab_slot = ConnSlab::<ConnRec>::slot_bytes();
        // Rc box: strong + weak counts + the RefCell<Pcb> payload.
        let pcb_box = 2 * std::mem::size_of::<usize>() + std::mem::size_of::<RefCell<Pcb>>();
        let timers = 2 * ebbrt_core::event::EventManager::timer_entry_bytes();
        slab_slot + pcb_box + timers
    }
}
