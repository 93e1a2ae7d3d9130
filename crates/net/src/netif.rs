//! The per-machine network interface: the receive path from a burst of
//! frames to per-connection runs, the connection table, the application
//! callbacks, UDP, and the wire. The TCP protocol itself is
//! [`crate::tcp`]; this module calls it and acts on what it reports.
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

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::{Rc, Weak};
use std::sync::Arc;

use ebbrt_core::clock::Ns;
use ebbrt_core::cpu::{self, CoreId};
use ebbrt_core::ebb::SystemEbb;
use ebbrt_core::event::{KeyedTimerFn, TimerToken};
use ebbrt_core::iobuf::{Chain, IoBuf, MutIoBuf};
use ebbrt_core::qos::{self, ClassId, CounterHandle, QosConfig};
use ebbrt_core::rcu_hash::RcuHashMap;
use ebbrt_core::runtime;
use ebbrt_sim::nic::Frame;
use ebbrt_sim::world::charge;
use ebbrt_sim::SimMachine;

use crate::arp::{ArpCache, ArpRetry};
use crate::conn_slab::{CellRef, ConnSlab, StableCells};
use crate::qos_policy::{qos_ref, QosEbb};
use crate::stats::{NetStats, BURST_BUCKETS};
use crate::syncache::{Room, SynCache};
use crate::tcp::{self, FourTuple, Outcome, Pcb, SegOut, Segment, TcpIo, TcpState, Timer};
use crate::types::{Ipv4Addr, Mac, MAC_BROADCAST};
use crate::wire::{self, EthHeader, Ipv4Header, TcpHeader};

pub use crate::ebb::{local_netif, netif_ref, try_local_netif, NetIfEbb};
pub use crate::qos_policy::{QosMatch, QosPolicy};
pub use crate::stats::BURST_BUCKET_LO;
pub use crate::tcp::SendError;

/// First ephemeral port used by [`NetIf::connect`].
const EPHEMERAL_BASE: u16 = 33000;

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
        self.with_pcb(|p| p.send_window()).unwrap_or(0)
    }

    /// Sends `data` (segmented to MSS). Refuses — does not buffer — if
    /// the window is too small.
    pub fn send(&self, data: Chain<IoBuf>) -> Result<(), SendError> {
        self.with_netif(|n| n.tcp_send(self.id, data))
    }

    /// Sets the advertised receive window (application-managed pacing).
    pub fn set_receive_window(&self, wnd: u16) {
        self.with_pcb(|p| p.rcv_wnd = wnd);
    }

    /// Initiates close (FIN).
    pub fn close(&self) {
        self.with_netif(|n| n.drive(self.id, |p, io| p.close(io)));
    }

    /// Hard teardown: sends RST and discards the connection
    /// immediately — no FIN handshake, no waiting for in-flight data.
    /// The application-level cure for a peer that requests faster than
    /// it reads (a parked-reply backlog past its cap).
    pub fn abort(&self) {
        self.with_netif(|n| n.drive(self.id, |p, io| p.abort(io)));
    }

    /// The connection's 4-tuple, if still alive.
    pub fn tuple(&self) -> Option<FourTuple> {
        self.with_pcb(|p| p.tuple)
    }

    /// Current TCP state (Closed if the connection is gone).
    pub fn state(&self) -> TcpState {
        self.with_pcb(|p| p.state()).unwrap_or(TcpState::Closed)
    }

    /// The core this connection is pinned to.
    pub fn core(&self) -> Option<CoreId> {
        self.with_pcb(|p| p.core)
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
        ClassId(self.with_pcb(|p| p.class).unwrap_or(0))
    }

    fn with_pcb<R>(&self, f: impl FnOnce(&mut Pcb) -> R) -> Option<R> {
        self.with_netif(|n| n.with_pcb(self.id, |p, _| f(p)))
    }

    fn with_netif<R>(&self, f: impl FnOnce(&Rc<NetIf>) -> R) -> R {
        let n = self.netif.upgrade().expect("NetIf dropped");
        f(&n)
    }
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

/// A per-connection run of segments within one burst, processed under a
/// single PCB borrow with one set of callbacks and one ACK decision.
struct TcpRun {
    id: u64,
    segs: Vec<Segment>,
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
    spare_segs: Vec<Vec<Segment>>,
}

type AcceptFn = Rc<dyn Fn(&TcpConn) -> Rc<dyn ConnHandler>>;
type UdpHandlerFn = Rc<dyn Fn(Ipv4Addr, u16, Chain<IoBuf>)>;

/// The per-machine network stack instance.
pub struct NetIf {
    machine: Rc<SimMachine>,
    ip: Cell<Ipv4Addr>,
    mask: Cell<Ipv4Addr>,
    /// ARP cache (learning + resolution).
    pub arp: ArpCache,
    /// RCU connection demux: 4-tuple → PCB slab token. The token's
    /// low 32 bits are the slab index, so demux reaches a PCB with
    /// one bounds-checked vector index.
    conn_ids: RcuHashMap<FourTuple, u64>,
    /// Generation-tagged connection slab (the `conn_ids` values are
    /// its tokens; stale tokens carried by timers miss harmlessly),
    /// holding each connection's handler.
    conns: RefCell<ConnSlab<Rc<dyn ConnHandler>>>,
    /// The PCBs, one pointer-stable cell per slab index.
    pcbs: RefCell<StableCells<Pcb>>,
    /// What every connection's [`Timer`] entries call, keyed by
    /// connection id: one handler per kind for the whole stack, so a
    /// connection's first arm clones an `Rc` instead of boxing a
    /// closure.
    timer_fns: [KeyedTimerFn; 2],
    /// The handler a connection carries while `accept` builds its own.
    pending_handler: Rc<dyn ConnHandler>,
    /// In-flight ARP resolutions. Borrow discipline: every access is a
    /// transient borrow released before any callback or transmit —
    /// `arp_retry_fire` *removes* its entry up front and re-inserts
    /// after output, so a re-entrant `send_arp_request` for the same
    /// address (from a handler the retry unblocks) sees a consistent
    /// table instead of a held borrow.
    pub(crate) arp_retries: RefCell<HashMap<Ipv4Addr, ArpRetry>>,
    listeners: RefCell<HashMap<u16, AcceptFn>>,
    /// UDP demux. Borrow discipline: `rx_udp` clones the handler `Rc`
    /// out of a transient borrow before invoking it, so a handler may
    /// re-enter `udp_bind` (or trigger nested delivery) freely.
    udp_bindings: RefCell<HashMap<u16, UdpHandlerFn>>,
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
    /// Embryonic-connection budget and ledger.
    syncache: SynCache,
    /// The installed QoS policy (classification + admission), if any.
    qos: RefCell<Option<Rc<QosPolicy>>>,
    /// Fast-path flag: frames route through the per-core scheduler
    /// only once a policy is installed (one `Cell` load per transmit
    /// otherwise).
    qos_on: Cell<bool>,
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
        let timer_fn = |me: &Weak<NetIf>, timer| -> KeyedTimerFn {
            let me = me.clone();
            Rc::new(move |id| {
                if let Some(n) = me.upgrade() {
                    n.drive(id, |p, io| p.on_timer(io, timer));
                }
            })
        };
        let netif = Rc::new_cyclic(|me| NetIf {
            machine: Rc::clone(machine),
            mss,
            ip: Cell::new(ip),
            mask: Cell::new(mask),
            arp: ArpCache::new(),
            conn_ids: RcuHashMap::new(Arc::clone(machine.runtime().rcu())),
            conns: RefCell::new(ConnSlab::new()),
            pcbs: RefCell::default(),
            timer_fns: [timer_fn(me, Timer::Rto), timer_fn(me, Timer::DelAck)],
            pending_handler: Rc::new(PendingHandler),
            arp_retries: RefCell::new(HashMap::new()),
            listeners: RefCell::new(HashMap::new()),
            udp_bindings: RefCell::new(HashMap::new()),
            next_eph: Cell::new(EPHEMERAL_BASE),
            ip_id: Cell::new(1),
            iss: Cell::new(0x1000),
            last_tx: Cell::new(u64::MAX / 2),
            rx_scratch: RefCell::default(),
            stats: NetStats::new(machine.runtime()),
            syncache: SynCache::new(machine.runtime()),
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
    /// [`FairScheduler`](qos::FairScheduler) rep on every core (under the well-known
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
        let cfg = policy.config().clone();
        runtime::install_on_all_cores(rt, SystemEbb::Qos.id(), move |_core| {
            QosEbb::new(netif.clone(), &cfg)
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
        // Outbound connections are classed (their tx is scheduled) but
        // never admission-controlled: budgets protect the server from
        // peers, not from its own opens.
        if let Some(policy) = self.qos.borrow().as_ref() {
            pcb.class = policy.classify_connect(port, remote).0;
        }
        let id = self.insert_conn(pcb, handler);
        // Resolve the next hop, then SYN (the Figure 2 path: on a cache
        // hit this continues synchronously). An ARP reply drains its
        // waiters on whatever core it arrived on, so hop to the
        // connection's affinity core first. A failed resolution tears
        // the connection down — the handler sees `on_close` — instead
        // of leaving it to hang in SynSent until its RTO budget
        // expires.
        let me = Rc::downgrade(self);
        let need_request = self.arp.find(remote, move |res| {
            let Some(n) = me.upgrade() else { return };
            n.run_on_core(core, move |n| match res {
                Ok(mac) => {
                    n.with_pcb(id, |p, io| {
                        p.remote_mac = mac;
                        p.open(io);
                    });
                }
                Err(_) => n.drive(id, |p, _| p.connect_failed()),
            });
        });
        if need_request {
            self.send_arp_request(remote);
        }
        self.handle(id)
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
        let need_request = self.arp.find(dst, move |res| {
            // A failed resolution drops the datagram — UDP's contract —
            // but promptly, and counted, instead of leaking the queued
            // payload forever.
            if let (Some(n), Ok(mac)) = (me.upgrade(), res) {
                n.udp_output(mac, src_port, dst, dst_port, payload);
            }
        });
        if need_request {
            self.send_arp_request(dst);
        }
    }

    // --- Frame ingress (driver) ---------------------------------------------

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
    ///    borrow ([`Pcb::input`]): every segment's ACK/reassembly
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
            self.drive(run.id, |p, io| p.input(io, &mut run.segs));
            run.segs.clear(); // undrained only if the connection was gone
            rx.spare_segs.push(run.segs);
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
            chain = chain.split_to(l4_len);
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
                let seg = Segment {
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
                self.handle_no_conn(eth.src, tuple, &hdr);
            }
        }
    }

    /// SYN to a listening port creates a connection; anything else gets
    /// RST.
    fn handle_no_conn(self: &Rc<Self>, from: Mac, tuple: FourTuple, hdr: &TcpHeader) {
        let accept = self.listeners.borrow().get(&tuple.local.1).cloned();
        let Some(accept) = accept.filter(|_| tcp::is_syn(hdr)) else {
            return self.reject(from, tuple, hdr);
        };
        // Admission control: classify the SYN and take a unit of the
        // class's connection budget *before* any state is built. A
        // saturated class is rejected fast — one RST, no PCB, no
        // handler — so overload costs the server a classifier lookup,
        // not a connection.
        let policy = self.qos.borrow().clone();
        let mut class = ClassId::DEFAULT;
        if let Some(policy) = &policy {
            class = policy.classify_accept(tuple.local.1, tuple.remote.0);
            if !policy.try_admit(class) {
                return self.reject(from, tuple, hdr);
            }
        }
        // Syncache budget: below admission in the shed ladder. Over
        // the class's embryonic cap, either evict the class's own
        // oldest stale half-open connection or — when every embryonic
        // entry is still fresh — shed this SYN instead. Either way the
        // pressure stays inside the flooding class: established
        // connections and other classes' embryos are untouchable.
        let now = self.machine.runtime().now_ns();
        match self.syncache.room(class, policy.as_deref(), now) {
            Room::Free => {}
            Room::Evict(victim) => self.evict_embryo(class, victim),
            Room::Shed => {
                if let Some(policy) = &policy {
                    policy.release(class);
                }
                return self.reject(from, tuple, hdr);
            }
        }
        let core = cpu::current(); // the RSS core: the conn's home
        let iss = self.iss.get();
        self.iss.set(iss.wrapping_add(0x3_1337));
        let mut pcb = Pcb::from_syn(tuple, iss, core, hdr);
        pcb.remote_mac = from;
        pcb.class = class.0;
        pcb.admitted = policy.is_some();
        pcb.embryonic = true;
        self.arp.insert(tuple.remote.0, from);
        // Insert with a placeholder handler first — the slab mints the
        // token — then let `accept` build the real handler against a
        // *live* connection handle and swap it in.
        let id = self.insert_conn(pcb, Rc::clone(&self.pending_handler));
        self.syncache.created(class, id, now);
        let handler = accept(&self.handle(id));
        match self.conns.borrow_mut().get_mut(id) {
            Some(h) => *h = handler,
            // `accept` tore the connection down; nothing to run.
            None => return,
        }
        self.with_pcb(id, |p, io| p.open(io));
    }

    /// Answers a segment nothing here wants with an RST — or, when it
    /// is itself one, with silence (counted as a drop).
    fn reject(&self, from: Mac, tuple: FourTuple, hdr: &TcpHeader) {
        match tcp::rst_reply(tuple, from, hdr) {
            Some(rst) => self.tcp_emit(rst),
            None => self.drop_frame(),
        }
    }

    /// Evicts an embryonic connection in favor of a new SYN. The flag
    /// clears first so the teardown does not count the death again as
    /// an abort; the teardown runs on the victim's affinity core, where
    /// its timer entries live (the new SYN may have hashed elsewhere).
    fn evict_embryo(self: &Rc<Self>, class: ClassId, victim: u64) {
        let core = self
            .with_pcb(victim, |p, _| {
                p.embryonic = false;
                p.core
            })
            .expect("the queue's head is a live embryo");
        self.embryo_gone(class.0, self.syncache.evicted_h);
        self.run_on_core(core, move |n| n.drive(victim, |p, io| p.abort(io)));
    }

    /// Settles one embryonic connection's entry in the syncache ledger.
    fn embryo_gone(&self, class: u8, why: CounterHandle) {
        self.syncache.gone(class, why, |tok| {
            self.pcb(tok).is_some_and(|pcb| pcb.borrow().embryonic)
        });
    }

    // --- TCP: the state machine's caller -------------------------------------
    //
    // Every TCP rule is in [`crate::tcp`]; this is the glue around it.

    /// Connection `id`'s PCB cell, if the connection is live. The
    /// handle outlives the table borrows; it must not be kept across a
    /// callback, which may close the connection and let another take
    /// its cell.
    fn pcb(&self, id: u64) -> Option<CellRef<Pcb>> {
        if !self.conns.borrow().contains(id) {
            return None;
        }
        self.pcbs.borrow().cell(id as u32)
    }

    /// Runs `f` on connection `id`'s PCB, under one borrow, with the
    /// I/O the state machine reaches the world through. `None` if the
    /// connection is gone. The table borrows are released first: `f`
    /// transmits.
    fn with_pcb<R>(
        self: &Rc<Self>,
        id: u64,
        f: impl FnOnce(&mut Pcb, &mut ConnIo<'_>) -> R,
    ) -> Option<R> {
        let pcb = self.pcb(id)?;
        let mut p = pcb.borrow_mut();
        Some(f(&mut p, &mut ConnIo { netif: self, id }))
    }

    /// Makes one call into connection `id`'s state machine and acts on
    /// its [`Outcome`]. Callbacks run after the PCB borrow is released
    /// (handlers send, which re-borrows it), each at most once:
    /// `on_connected`, one coalesced `on_receive`, `on_window_open`,
    /// `on_close`. Then the ACK decision — the application's reply has
    /// had its chance to carry the ACK — and the one teardown: a PCB
    /// left Closed is cleaned up, and if the network rather than the
    /// application ended it the handler hears `on_close`.
    fn drive(self: &Rc<Self>, id: u64, f: impl FnOnce(&mut Pcb, &mut ConnIo<'_>) -> Outcome) {
        let Some(handler) = self.conns.borrow().get(id).cloned() else {
            return;
        };
        let Some(pcb) = self.pcbs.borrow().cell(id as u32) else {
            return;
        };
        let mut io = ConnIo { netif: self, id };
        let (out, class) = {
            let mut p = pcb.borrow_mut();
            (f(&mut p, &mut io), p.class)
        };
        // Not kept across the callbacks: one of them may close the
        // connection, and its cell may then serve another.
        drop(pcb);
        let conn = self.handle(id);
        if out.promoted {
            self.embryo_gone(class, self.syncache.promoted_h);
        }
        if out.retransmitted {
            self.stats.retransmits.set(self.stats.retransmits.get() + 1);
        }
        if out.established {
            self.stats
                .conns_established
                .set(self.stats.conns_established.get() + 1);
            handler.on_connected(&conn);
        }
        if !out.delivery.is_empty() {
            if out.chunks > 1 {
                qos::bump(self.stats.coalesced_h);
            }
            handler.on_receive(&conn, out.delivery);
        }
        if out.window_opened {
            handler.on_window_open(&conn);
        }
        if out.peer_closed && !out.reset {
            handler.on_close(&conn);
        }
        // Looked up afresh, by generation: if a callback tore the
        // connection down, a nested call has done the cleanup.
        let closed = self.pcb(id).is_none_or(|pcb| {
            let mut p = pcb.borrow_mut();
            p.flush_ack(&mut io);
            p.is_closed()
        });
        if closed {
            self.cleanup(id);
            if out.reset {
                handler.on_close(&conn);
            }
        }
    }

    fn tcp_send(self: &Rc<Self>, id: u64, data: Chain<IoBuf>) -> Result<(), SendError> {
        self.with_pcb(id, |p, io| {
            assert_eq!(
                cpu::try_current(),
                Some(p.core),
                "TCP connections must be driven from their affinity core"
            );
            p.send(io, data, self.mss)
        })
        .unwrap_or(Err(SendError::NotConnected))
    }

    /// Builds and transmits one TCP segment.
    #[inline]
    fn tcp_emit(&self, out: SegOut) {
        let mut hdr = MutIoBuf::with_headroom(0, wire::HEADROOM);
        let id = self.ip_id.get();
        self.ip_id.set(id.wrapping_add(1));
        wire::push_tcp_frame(
            &mut hdr,
            &EthHeader {
                dst: out.dst_mac,
                src: self.mac(),
                ethertype: wire::ETHERTYPE_IPV4,
            },
            &Ipv4Header {
                src: out.tuple.local.0,
                dst: out.tuple.remote.0,
                proto: wire::IPPROTO_TCP,
                total_len: 0,
                id,
                ttl: 64,
            },
            &TcpHeader {
                src_port: out.tuple.local.1,
                dst_port: out.tuple.remote.1,
                seq: out.seq,
                ack: out.ack,
                flags: out.flags,
                window: out.window,
                header_len: wire::TCP_HLEN,
            },
            &out.payload,
        );
        let mut frame = Chain::single(hdr.freeze());
        frame.append_chain(out.payload);
        self.stats.tx_tcp.set(self.stats.tx_tcp.get() + 1);
        self.transmit(frame, ClassId(out.class));
    }

    // --- UDP egress, and the wire --------------------------------------------

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
    pub(crate) fn transmit_now(&self, frame: Chain<IoBuf>) {
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
            let id = conns.insert(handler);
            (id, conns.high_water() - before_hw)
        };
        self.pcbs.borrow_mut().put(id as u32, pcb);
        qos::bump(self.stats.pcb_slab_live_h);
        if hw_delta > 0 {
            qos::add(self.stats.pcb_slab_high_water_h, hw_delta as u64);
        }
        self.conn_ids.insert(tuple, id);
        id
    }

    /// Releases everything the table holds for connection `id`: slab
    /// slot and PCB cell, demux entry, timer entries (on the affinity
    /// core, where they were created), admission and syncache budget
    /// units.
    fn cleanup(&self, id: u64) {
        let Some(p) = self.pcb(id).and_then(|pcb| pcb.take()) else {
            return;
        };
        self.conns.borrow_mut().remove(id);
        qos::sub(self.stats.pcb_slab_live_h, 1);
        if p.embryonic {
            // Died before the handshake completed (an eviction was
            // counted, and the flag cleared, before it got here).
            self.embryo_gone(p.class, self.syncache.aborted_h);
        }
        // Return the admission-budget unit the SYN took.
        if p.admitted {
            if let Some(policy) = self.qos.borrow().as_ref() {
                policy.release(ClassId(p.class));
            }
        }
        for tok in p.timers().into_iter().flatten() {
            runtime::with_current(|rt| rt.local_event_manager().cancel_timer(tok));
        }
        self.conn_ids.remove(&p.tuple);
        self.stats
            .conns_closed
            .set(self.stats.conns_closed.get() + 1);
    }

    fn handle(self: &Rc<Self>, id: u64) -> TcpConn {
        TcpConn {
            netif: Rc::downgrade(self),
            id,
        }
    }

    /// Picks an ephemeral port whose *reply* flow RSS-hashes to `core`,
    /// so the connection's frames arrive where it lives, and whose
    /// four-tuple no live connection holds: the range wraps after 27 k
    /// connects, and `insert_conn` would shadow the older connection.
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
            let tuple = FourTuple {
                local: (local_ip, port),
                remote: (remote, remote_port),
            };
            if (hash as usize) % nqueues == core.index() % nqueues
                && self.conn_ids.get(&tuple, |_| ()).is_none()
            {
                return port;
            }
        }
        panic!("no free ephemeral port maps to {core} under RSS");
    }

    pub(crate) fn drop_frame(&self) {
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
        self.syncache.set_backlog(cap);
    }

    /// Live embryonic (inbound, handshake incomplete) connections of
    /// `class`.
    pub fn embryonic_live(&self, class: ClassId) -> usize {
        self.syncache.live(class)
    }

    /// Entries held by the syncache queues, stale ones included:
    /// bounded by the connections accepted during the oldest live
    /// embryo's handshake, whatever the number accepted before it.
    pub fn embryonic_queued(&self) -> usize {
        self.syncache.queued()
    }

    /// Total live embryonic connections across classes — the `live`
    /// term of the syncache ledger
    /// (`created == promoted + evicted + aborted + live` at
    /// quiescence; the chaos harness asserts it).
    pub fn embryonic_total(&self) -> usize {
        self.syncache.total()
    }

    /// The accounted per-connection footprint of an idle established
    /// connection: slab slot (the handler's `Rc`), PCB cell — which
    /// holds the oldest unacknowledged segment inline, so no retransmit
    /// buffer hangs off an idle connection — and the connection's two
    /// parked persistent timer entries. Rarely-used state (reassembly,
    /// retransmit ledger) lives in [`crate::tcp::PcbCold`] and is
    /// charged only to connections that actually use it; the RCU demux
    /// entry is the map's own per-key cost, measured end to end by the
    /// `conn_scale` bench rather than accounted here.
    pub fn bytes_per_idle_conn() -> usize {
        let slab_slot = ConnSlab::<Rc<dyn ConnHandler>>::slot_bytes();
        let pcb_cell = StableCells::<Pcb>::cell_bytes();
        let timers = 2 * ebbrt_core::event::EventManager::timer_entry_bytes();
        slab_slot + pcb_cell + timers
    }
}

/// The state machine's I/O as the stack implements it. Each timer is a
/// persistent entry on the affinity core's wheel, created on the first
/// arm with the stack's shared handler and this connection's id for a
/// key; that and every later arm / restart / park — per segment — is an
/// O(1) relink with no allocation.
struct ConnIo<'a> {
    netif: &'a Rc<NetIf>,
    id: u64,
}

impl TcpIo for ConnIo<'_> {
    #[inline]
    fn emit(&mut self, seg: SegOut) {
        self.netif.tcp_emit(seg);
    }

    #[inline]
    fn arm(&mut self, timer: Timer, token: Option<TimerToken>, delay: Ns) -> TimerToken {
        let f = &self.netif.timer_fns[timer as usize];
        let tok = runtime::with_current(|rt| {
            rt.local_event_manager()
                .arm_keyed_timer(token, delay, f, self.id)
        });
        debug_assert!(
            token.is_none() || token == Some(tok),
            "persistent {timer:?} timer token went stale (off-core use?)"
        );
        tok
    }

    #[inline]
    fn restart(&mut self, token: TimerToken, delay: Ns) -> bool {
        let ok = runtime::with_current(|rt| rt.local_event_manager().reset_timer(token, delay));
        debug_assert!(ok, "persistent timer token went stale (off-core use?)");
        ok
    }

    #[inline]
    fn park(&mut self, token: TimerToken) {
        runtime::with_current(|rt| rt.local_event_manager().disarm_timer(token));
    }
}
