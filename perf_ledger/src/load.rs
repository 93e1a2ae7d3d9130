//! The benchmark's load generator and its failure ledger.
//!
//! Every request is matched to its reply by opaque and checked for
//! status, length and content. Values are a function of (key, write
//! version): a GET must return the bytes of a version no older than
//! the last write acknowledged before the GET was sent and no newer
//! than the last write issued when the reply arrived. At most one SET
//! per key is in flight at a time, so versions apply in order.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::{Rc, Weak};
use std::time::Instant;

use ebbrt_apps::memcached::{
    Header, MAGIC_REQUEST, MAGIC_RESPONSE, OP_GET, OP_SET, STATUS_OK, STATUS_REMOTE_ERROR,
    STATUS_SERVER_BUSY,
};
use ebbrt_core::iobuf::{Buf, Chain, IoBuf, MutIoBuf};
use ebbrt_net::netif::{local_netif, ConnHandler, TcpConn};
use ebbrt_net::types::Ipv4Addr;

use crate::gen::{mix64, SplitMix64, Values};
use crate::trace::{self, NO_OPAQUE};

pub fn now_ns() -> u64 {
    ebbrt_core::runtime::with_current(|rt| rt.now_ns())
}

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum PhaseKind {
    /// Writes every key once through the front end (clusters only;
    /// single servers are populated directly).
    Populate,
    /// Runs the workload's mix; results are discarded.
    Warm,
    /// Runs the workload's mix; results are the measurement.
    Measured,
}

/// What happened to the requests of one phase.
pub struct Tally {
    pub attempted: u64,
    pub completed: u64,
    pub verified: u64,
    pub bad_status: u64,
    pub busy: u64,
    pub remote_error: u64,
    pub wrong_bytes: u64,
    pub over_limit: u64,
    /// Virtual latency of every completed request.
    pub lat_ns: Vec<u32>,
    /// Open loop: how long after its due time each request was sent.
    pub late_ns: Vec<u32>,
    /// Host time at every `window`-th completion.
    pub stamps: Vec<Instant>,
    /// Virtual time of the last completion.
    pub last_done_virt: u64,
    /// Running hash of the generated request stream.
    pub stream_hash: u64,
}

impl Tally {
    fn new(n: u64, open_loop: bool) -> Tally {
        Tally {
            attempted: 0,
            completed: 0,
            verified: 0,
            bad_status: 0,
            busy: 0,
            remote_error: 0,
            wrong_bytes: 0,
            over_limit: 0,
            lat_ns: Vec::with_capacity(n as usize),
            late_ns: Vec::with_capacity(if open_loop { n as usize } else { 0 }),
            stamps: Vec::with_capacity(WINDOWS + 1),
            last_done_virt: 0,
            stream_hash: 0,
        }
    }

    pub fn unanswered(&self) -> u64 {
        self.attempted - self.completed
    }

    pub fn failed(&self) -> u64 {
        self.bad_status
            + self.busy
            + self.remote_error
            + self.wrong_bytes
            + self.over_limit
            + self.unanswered()
    }

    /// The ledger identity the process exits non-zero on.
    pub fn balanced(&self) -> bool {
        self.attempted == self.verified + self.failed()
    }
}

/// Host-time windows per measured phase (≥ 200 per ISSUE).
pub const WINDOWS: usize = 200;

#[derive(Clone, Copy, Default)]
struct KeyState {
    acked: u32,
    issued: u32,
    set_in_flight: bool,
}

#[derive(Clone, Copy)]
pub struct Req {
    pub opaque: u32,
    pub key: u32,
    /// SET: the version written. GET: the last version acknowledged
    /// when the GET was issued.
    pub ver: u32,
    pub is_set: bool,
    /// Virtual time latency is measured from (open loop: due time).
    pub t0: u64,
}

/// Generator and ledger shared by every client connection of a world.
pub struct Shared {
    pub keys: Vec<Vec<u8>>,
    pub values: Values,
    get_ratio: f64,
    open_loop: bool,
    /// Replies later than this count as failed (virtual ns).
    limit_ns: Option<u64>,
    rng: RefCell<SplitMix64>,
    key_state: RefCell<Vec<KeyState>>,
    next_opaque: Cell<u32>,
    phase: Cell<PhaseKind>,
    budget: Cell<u64>,
    target: Cell<u64>,
    window: Cell<u64>,
    populate_next: Cell<u32>,
    pub tally: RefCell<Tally>,
}

impl Shared {
    pub fn new(
        seed: u64,
        keys: Vec<Vec<u8>>,
        values: Values,
        get_ratio: f64,
        open_loop: bool,
        limit_ns: Option<u64>,
    ) -> Rc<Shared> {
        let n = keys.len();
        Rc::new(Shared {
            keys,
            values,
            get_ratio,
            open_loop,
            limit_ns,
            rng: RefCell::new(SplitMix64::new(seed ^ 0x0C0F_FEE0)),
            key_state: RefCell::new(vec![KeyState::default(); n]),
            next_opaque: Cell::new(1),
            phase: Cell::new(PhaseKind::Warm),
            budget: Cell::new(0),
            target: Cell::new(0),
            window: Cell::new(1),
            populate_next: Cell::new(0),
            tally: RefCell::new(Tally::new(0, false)),
        })
    }

    /// Arms a phase of `n` requests and returns the previous tally.
    pub fn begin_phase(&self, kind: PhaseKind, n: u64) -> Tally {
        self.phase.set(kind);
        self.budget.set(n);
        self.target.set(n);
        self.window.set((n / WINDOWS as u64).max(1));
        self.populate_next.set(0);
        let keep = if kind == PhaseKind::Measured { n } else { 0 };
        self.tally.replace(Tally::new(keep, self.open_loop))
    }

    pub fn done(&self) -> bool {
        self.tally.borrow().completed >= self.target.get()
    }

    /// Claims one request of the phase's budget and counts it as
    /// attempted.
    fn take_budget(&self) -> bool {
        let b = self.budget.get();
        if b == 0 {
            return false;
        }
        self.budget.set(b - 1);
        self.tally.borrow_mut().attempted += 1;
        true
    }

    /// One draw of the workload's mix: `(key index, is a SET)`.
    fn draw_op(&self, rng: &mut SplitMix64) -> (u64, bool) {
        let is_set = rng.next_f64() >= self.get_ratio;
        (rng.below(self.keys.len() as u64), is_set)
    }

    /// `n` draws of the mix from a generator of their own, for sizing
    /// kernels on the workload's inputs without disturbing the stream.
    pub fn sample_ops(&self, n: usize) -> Vec<(u32, bool)> {
        let mut rng = SplitMix64::new(self.values.seed ^ 0x5A3D);
        (0..n)
            .map(|_| {
                let (key, is_set) = self.draw_op(&mut rng);
                (key as u32, is_set)
            })
            .collect()
    }

    /// Draws the next request of the stream.
    fn issue(&self, t0: u64) -> Req {
        let opaque = self.next_opaque.get();
        self.next_opaque.set(opaque.wrapping_add(1).max(1));
        let n = self.keys.len() as u64;
        let mut ks = self.key_state.borrow_mut();
        let (mut key, is_set) = if self.phase.get() == PhaseKind::Populate {
            let k = self.populate_next.get();
            self.populate_next.set(k + 1);
            (k as u64 % n, true)
        } else {
            self.draw_op(&mut self.rng.borrow_mut())
        };
        let ver = if is_set {
            // One writer per key at a time keeps versions ordered.
            while ks[key as usize].set_in_flight {
                key = (key + 1) % n;
            }
            let s = &mut ks[key as usize];
            s.issued += 1;
            s.set_in_flight = true;
            s.issued
        } else {
            ks[key as usize].acked
        };
        let mut t = self.tally.borrow_mut();
        t.stream_hash = mix64(t.stream_hash ^ (key << 1 | is_set as u64) ^ ((ver as u64) << 40));
        Req {
            opaque,
            key: key as u32,
            ver,
            is_set,
            t0,
        }
    }

    /// The request frame: header, (SET: zeroed extras), key, (SET:
    /// value), staged in pooled buffers of at most one MSS each. A
    /// receiver then sees what a NIC filling MTU-sized buffers would
    /// hand it; one large staging buffer would instead make every
    /// segment pin a 64 KiB region and trip the server's "value small
    /// against what it pins" compaction on every SET.
    fn build_frame(&self, req: &Req) -> Chain<IoBuf> {
        const PIECE: usize = ebbrt_net::wire::TCP_MSS;
        let key = &self.keys[req.key as usize];
        let (opcode, extras, vlen) = if req.is_set {
            (OP_SET, 8, self.values.len_of(req.key, req.ver))
        } else {
            (OP_GET, 0, 0)
        };
        let body = extras + key.len() + vlen;
        let h = Header {
            magic: MAGIC_REQUEST,
            opcode,
            key_len: key.len() as u16,
            extras_len: extras as u8,
            status: 0,
            total_body: body as u32,
            opaque: req.opaque,
        };
        let mut b = MutIoBuf::with_capacity(PIECE.min(Header::SIZE + body));
        h.encode_into(b.append(Header::SIZE));
        b.append(extras).fill(0);
        b.append_slice(key);
        let mut chain = Chain::new();
        let mut written = 0;
        loop {
            let n = (PIECE - b.len()).min(vlen - written);
            if n > 0 {
                self.values.fill_at(req.key, req.ver, written, b.append(n));
                written += n;
            }
            chain.push_back(b.freeze());
            if written == vlen {
                return chain;
            }
            b = MutIoBuf::with_capacity(PIECE.min(vlen - written));
        }
    }

    /// Checks one reply against its request and books the outcome.
    fn complete(&self, req: &Req, h: &Header, body: &[u8], now: u64) {
        let mut ks = self.key_state.borrow_mut();
        let s = &mut ks[req.key as usize];
        let mut t = self.tally.borrow_mut();
        t.completed += 1;
        t.last_done_virt = now;
        let lat = now.saturating_sub(req.t0);
        if self.phase.get() == PhaseKind::Measured {
            t.lat_ns.push(lat.min(u32::MAX as u64) as u32);
            if t.completed.is_multiple_of(self.window.get()) {
                t.stamps.push(Instant::now());
            }
        }
        if req.is_set {
            s.set_in_flight = false;
        }
        let want_op = if req.is_set { OP_SET } else { OP_GET };
        if h.magic != MAGIC_RESPONSE || h.opcode != want_op || h.status != STATUS_OK {
            match h.status {
                STATUS_SERVER_BUSY => t.busy += 1,
                STATUS_REMOTE_ERROR => t.remote_error += 1,
                _ => t.bad_status += 1,
            }
            return;
        }
        let bytes_ok = if req.is_set {
            s.acked = req.ver;
            body.is_empty()
        } else {
            // 4 flag bytes, then the value of some version in
            // [acked at send, issued now].
            let extras = h.extras_len as usize;
            body.len() >= extras
                && (req.ver..=s.issued)
                    .rev()
                    .any(|v| self.values.check(req.key, v, &body[extras..]))
        };
        if !bytes_ok {
            t.wrong_bytes += 1;
        } else if self.limit_ns.is_some_and(|l| lat > l) {
            t.over_limit += 1;
        } else {
            t.verified += 1;
        }
    }
}

/// Frames replies out of a connection's byte stream. `rx` holds the
/// incomplete tail between events; a reply that arrives whole in one
/// segment is parsed in place.
fn drain_replies(rx: &RefCell<Vec<u8>>, data: &Chain<IoBuf>, mut each: impl FnMut(&Header, &[u8])) {
    fn parse(bytes: &[u8], each: &mut impl FnMut(&Header, &[u8])) -> usize {
        let mut at = 0;
        while bytes.len() - at >= Header::SIZE {
            let hb: &[u8; Header::SIZE] = bytes[at..at + Header::SIZE]
                .try_into()
                .expect("length checked");
            let h = Header::decode(hb);
            let total = Header::SIZE + h.total_body as usize;
            if bytes.len() - at < total {
                break;
            }
            each(&h, &bytes[at + Header::SIZE..at + total]);
            at += total;
        }
        at
    }
    let mut rx = rx.borrow_mut();
    if rx.is_empty() && data.segment_count() == 1 {
        let b = data.seg(0).bytes();
        let used = parse(b, &mut each);
        rx.extend_from_slice(&b[used..]);
    } else {
        for seg in data.iter() {
            rx.extend_from_slice(seg.bytes());
        }
        let used = parse(&rx, &mut each);
        rx.drain(..used);
    }
}

/// One memcached client connection: closed loop (`depth` outstanding,
/// a new request per reply) or open loop (Poisson arrivals, at most
/// `depth` outstanding, latency from the due time).
pub struct McClient {
    me: Weak<McClient>,
    sh: Rc<Shared>,
    depth: usize,
    /// Open loop: mean inter-arrival gap of this connection (ns).
    mean_gap_ns: Option<f64>,
    arrival_rng: RefCell<SplitMix64>,
    next_due: Cell<u64>,
    /// Open loop: due times of arrivals waiting for a pipeline slot.
    pending: RefCell<VecDeque<u64>>,
    outstanding: RefCell<VecDeque<Req>>,
    /// A built request the send window had no room for.
    deferred: RefCell<Option<(Req, Chain<IoBuf>)>>,
    rx: RefCell<Vec<u8>>,
    conn: RefCell<Option<TcpConn>>,
}

impl McClient {
    pub fn new(
        sh: &Rc<Shared>,
        depth: usize,
        mean_gap_ns: Option<f64>,
        arrival_seed: u64,
    ) -> Rc<McClient> {
        Rc::new_cyclic(|me| McClient {
            me: Weak::clone(me),
            sh: Rc::clone(sh),
            depth,
            mean_gap_ns,
            arrival_rng: RefCell::new(SplitMix64::new(arrival_seed)),
            next_due: Cell::new(0),
            pending: RefCell::new(VecDeque::new()),
            outstanding: RefCell::new(VecDeque::with_capacity(depth + 1)),
            deferred: RefCell::new(None),
            rx: RefCell::new(Vec::new()),
            conn: RefCell::new(None),
        })
    }

    pub fn connected(&self) -> bool {
        self.conn.borrow().is_some()
    }

    /// Starts this connection's share of a freshly armed phase. Runs
    /// in an event on the connection's core.
    pub fn kick(&self) {
        if self.mean_gap_ns.is_some() {
            self.next_due.set(now_ns());
            self.schedule_arrival();
        } else {
            self.pump();
        }
    }

    fn schedule_arrival(&self) {
        let Some(mean) = self.mean_gap_ns else { return };
        if !self.sh.take_budget() {
            return;
        }
        let gap = self.arrival_rng.borrow_mut().exp(mean) as u64;
        let due = self.next_due.get() + gap;
        self.next_due.set(due);
        let delay = due.saturating_sub(now_ns()).max(1);
        let me = self.me.upgrade().expect("client alive");
        ebbrt_core::runtime::with_current(|rt| {
            rt.local_event_manager().set_timer(delay, move || {
                trace::scope(trace::SPAN_CLIENT_ARRIVAL, NO_OPAQUE, || {
                    me.pending.borrow_mut().push_back(due);
                    me.pump();
                    me.schedule_arrival();
                });
            });
        });
    }

    fn pump(&self) {
        let Some(conn) = self.conn.borrow().clone() else {
            return;
        };
        loop {
            let parked = self.deferred.borrow_mut().take();
            let (req, frame) = match parked {
                Some(p) => p,
                None => {
                    if self.outstanding.borrow().len() >= self.depth {
                        return;
                    }
                    let t0 = if self.mean_gap_ns.is_some() {
                        match self.pending.borrow_mut().pop_front() {
                            Some(due) => due,
                            None => return,
                        }
                    } else if self.sh.take_budget() {
                        now_ns()
                    } else {
                        return;
                    };
                    let req = self.sh.issue(t0);
                    (req, self.sh.build_frame(&req))
                }
            };
            if frame.len() > conn.send_window() {
                // Wait for on_window_open.
                *self.deferred.borrow_mut() = Some((req, frame));
                return;
            }
            if self.mean_gap_ns.is_some() {
                let late = now_ns().saturating_sub(req.t0);
                let mut t = self.sh.tally.borrow_mut();
                t.late_ns.push(late.min(u32::MAX as u64) as u32);
            }
            self.outstanding.borrow_mut().push_back(req);
            // A refused send leaves the request outstanding: it is
            // booked as unanswered when the phase ends.
            let _ = trace::scope(trace::SPAN_CLIENT_SEND, req.opaque, || conn.send(frame));
        }
    }
}

impl ConnHandler for McClient {
    fn on_connected(&self, conn: &TcpConn) {
        *self.conn.borrow_mut() = Some(conn.clone());
    }

    fn on_receive(&self, _conn: &TcpConn, data: Chain<IoBuf>) {
        trace::scope(trace::SPAN_CLIENT_RX, NO_OPAQUE, || {
            let now = now_ns();
            drain_replies(&self.rx, &data, |h, body| {
                let req = {
                    let mut out = self.outstanding.borrow_mut();
                    // In order on one server; the sharded front end
                    // may reorder local against shipped replies.
                    let i = out.iter().position(|r| r.opaque == h.opaque);
                    i.and_then(|i| out.remove(i))
                };
                if let Some(req) = req {
                    self.sh.complete(&req, h, body, now);
                }
            });
            drop(data);
            self.pump();
        });
    }

    fn on_window_open(&self, _conn: &TcpConn) {
        self.pump();
    }
}

/// One slot of the connection-churn workload: connect, one GET, close,
/// and again. A request is the whole lifecycle, timed from `connect`
/// to the server's FIN.
pub struct ChurnSlot {
    me: Weak<ChurnSlot>,
    sh: Rc<Shared>,
    server: Ipv4Addr,
    port: u16,
    cur: Cell<Option<Req>>,
    reply: RefCell<Option<(Header, Vec<u8>)>>,
    rx: RefCell<Vec<u8>>,
}

impl ChurnSlot {
    pub fn new(sh: &Rc<Shared>, server: Ipv4Addr, port: u16) -> Rc<ChurnSlot> {
        Rc::new_cyclic(|me| ChurnSlot {
            me: Weak::clone(me),
            sh: Rc::clone(sh),
            server,
            port,
            cur: Cell::new(None),
            reply: RefCell::new(None),
            rx: RefCell::new(Vec::new()),
        })
    }

    /// Opens the next connection if the phase has budget left. Runs in
    /// an event on the client core.
    pub fn kick(&self) {
        if !self.sh.take_budget() {
            return;
        }
        let req = self.sh.issue(now_ns());
        self.cur.set(Some(req));
        let me = self.me.upgrade().expect("slot alive") as Rc<dyn ConnHandler>;
        trace::scope(trace::SPAN_CLIENT_SEND, req.opaque, || {
            local_netif().connect(self.server, self.port, me);
        });
    }
}

impl ConnHandler for ChurnSlot {
    fn on_connected(&self, conn: &TcpConn) {
        let Some(req) = self.cur.get() else { return };
        let frame = self.sh.build_frame(&req);
        let _ = trace::scope(trace::SPAN_CLIENT_SEND, req.opaque, || conn.send(frame));
    }

    fn on_receive(&self, conn: &TcpConn, data: Chain<IoBuf>) {
        trace::scope(trace::SPAN_CLIENT_RX, NO_OPAQUE, || {
            let mut got = false;
            drain_replies(&self.rx, &data, |h, body| {
                *self.reply.borrow_mut() = Some((*h, body.to_vec()));
                got = true;
            });
            if got {
                let opaque = self.cur.get().map_or(NO_OPAQUE, |r| r.opaque);
                trace::scope(trace::SPAN_CLIENT_SEND, opaque, || conn.close());
            }
        });
    }

    fn on_close(&self, _conn: &TcpConn) {
        trace::scope(trace::SPAN_CLIENT_RX, NO_OPAQUE, || {
            let Some(req) = self.cur.take() else { return };
            self.rx.borrow_mut().clear();
            // A lifecycle that ended without a reply stays attempted
            // and uncompleted: unanswered.
            if let Some((h, body)) = self.reply.borrow_mut().take() {
                self.sh.complete(&req, &h, &body, now_ns());
            }
            // The next lifecycle starts from a fresh event, not from
            // inside this connection's teardown.
            let me = self.me.upgrade().expect("slot alive");
            ebbrt_core::runtime::with_current(|rt| {
                rt.local_event_manager().spawn_local(move || me.kick());
            });
        });
    }
}

/// Holds `quota` idle established connections open, connecting in
/// chunks so SYN bursts interleave with the server's accept work.
pub struct IdleHerd {
    me: Weak<IdleHerd>,
    server: Ipv4Addr,
    port: u16,
    quota: usize,
    issued: Cell<usize>,
    pub established: Cell<usize>,
}

const CONNECT_CHUNK: usize = 512;

impl IdleHerd {
    pub fn new(server: Ipv4Addr, port: u16, quota: usize) -> Rc<IdleHerd> {
        Rc::new_cyclic(|me| IdleHerd {
            me: Weak::clone(me),
            server,
            port,
            quota,
            issued: Cell::new(0),
            established: Cell::new(0),
        })
    }

    /// Issues the next chunk of connects. Runs in an event on the
    /// holding machine's core.
    pub fn connect_chunk(&self) {
        let me = self.me.upgrade().expect("herd alive");
        let n = CONNECT_CHUNK.min(self.quota - self.issued.get());
        self.issued.set(self.issued.get() + n);
        let netif = local_netif();
        for _ in 0..n {
            netif.connect(
                self.server,
                self.port,
                Rc::clone(&me) as Rc<dyn ConnHandler>,
            );
        }
    }
}

impl ConnHandler for IdleHerd {
    fn on_connected(&self, _conn: &TcpConn) {
        self.established.set(self.established.get() + 1);
        if self.established.get() == self.issued.get() && self.issued.get() < self.quota {
            let me = self.me.upgrade().expect("herd alive");
            ebbrt_core::runtime::with_current(|rt| {
                rt.local_event_manager()
                    .spawn_local(move || me.connect_chunk());
            });
        }
    }

    fn on_receive(&self, _conn: &TcpConn, _data: Chain<IoBuf>) {}
}

/// The server-side shim: the product's connection handler, wrapped so
/// the traced run can time `on_receive` (which includes the
/// synchronous transmit it triggers) from outside.
///
/// It also closes the server's half when the peer sends FIN. The
/// product's `ServerConn` has no `on_close`, so without this a closed
/// connection would sit in CloseWait forever and `conn_churn` would
/// measure a leak instead of a teardown.
pub struct ServerShim {
    pub inner: Rc<dyn ConnHandler>,
}

impl ConnHandler for ServerShim {
    fn on_connected(&self, conn: &TcpConn) {
        self.inner.on_connected(conn);
    }

    fn on_receive(&self, conn: &TcpConn, data: Chain<IoBuf>) {
        trace::scope(trace::SPAN_SERVER_RX, NO_OPAQUE, || {
            self.inner.on_receive(conn, data)
        });
    }

    fn on_window_open(&self, conn: &TcpConn) {
        self.inner.on_window_open(conn);
    }

    fn on_close(&self, conn: &TcpConn) {
        self.inner.on_close(conn);
        conn.close();
    }
}
