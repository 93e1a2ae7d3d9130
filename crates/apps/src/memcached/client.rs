//! The one memcached client: every load generator, bench and test that
//! talks the binary protocol does it through [`Client`], the mirror of
//! [`ServerConn`](super::ServerConn). Replies are framed zero-copy by
//! the same [`drain_frames`] the server uses, sends are window-aware
//! (refused exactly as [`TcpConn::send`] refuses), and replies are
//! correlated through a FIFO of in-flight `(opaque, sent_at)` — the
//! contract is spelled out in `docs/ARCHITECTURE.md`. What to send,
//! when, and what to make of the answers is the [`Workload`]'s business;
//! [`Burst`] (one scripted burst) and [`ClosedLoop`] (one request kept
//! `depth` deep) are the two every bench and test shares.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::Arc;

use ebbrt_core::clock::Ns;
use ebbrt_core::cpu::CoreId;
use ebbrt_core::iobuf::{Chain, IoBuf, MutIoBuf};
use ebbrt_core::runtime::{self, Runtime};
use ebbrt_net::netif::{local_netif, ConnHandler, SendError, TcpConn};
use ebbrt_net::types::Ipv4Addr;

use super::codec::{
    drain_frames, BadFrame, FrameScan, Header, MAGIC_RESPONSE, MEMCACHED_PORT, STATUS_OK,
};
use crate::spawn_with;
use crate::stats::LatencyRecorder;

/// What a workload does with a client connection. Every callback runs
/// on the connection's core, inside the event that caused it, and may
/// send from there.
pub trait Workload: Sized + 'static {
    /// The handshake completed.
    fn on_connected(&self, _client: &Client<Self>) {}
    /// A reply arrived: its header, its value (the body past extras
    /// and key — descriptors of the receive buffers, empty for
    /// anything but a GET hit) and the virtual time since its request
    /// was sent (or was due, see [`Client::send_due`]).
    fn on_reply(&self, client: &Client<Self>, h: &Header, value: Chain<IoBuf>, latency_ns: Ns);
    /// Acknowledgments opened send window.
    fn on_window_open(&self, _client: &Client<Self>) {}
    /// The connection ended (peer FIN, reset, or a framing error).
    fn on_close(&self, _client: &Client<Self>) {}
}

/// One client connection driving workload `W`.
pub struct Client<W: Workload> {
    /// The workload's own state, for the harness to read back.
    pub workload: W,
    conn: RefCell<Option<TcpConn>>,
    /// Bytes not yet forming a whole reply (descriptor chain).
    pending: RefCell<Chain<IoBuf>>,
    /// `(opaque, sent_at)` of every request awaiting its reply, oldest
    /// first.
    in_flight: RefCell<VecDeque<(u32, Ns)>>,
    /// Where in the request stream the bytes sent so far end.
    sent: Cell<FrameScan>,
}

fn now_ns() -> Ns {
    runtime::with_current(|rt| rt.now_ns())
}

impl<W: Workload> Client<W> {
    /// A client for `workload`, not yet connected.
    pub fn new(workload: W) -> Rc<Self> {
        Rc::new(Client {
            workload,
            conn: RefCell::new(None),
            pending: RefCell::new(Chain::new()),
            in_flight: RefCell::new(VecDeque::new()),
            sent: Cell::default(),
        })
    }

    /// Opens the connection to `ip:port`, from the calling event's
    /// machine and core.
    pub fn open(self: &Rc<Self>, ip: Ipv4Addr, port: u16) {
        let conn = local_netif().connect(ip, port, Rc::clone(self) as Rc<dyn ConnHandler>);
        *self.conn.borrow_mut() = Some(conn);
    }

    /// A client whose connection to `ip`'s memcached port opens from
    /// an event spawned on `core` of `rt` — the handle is usable at
    /// once, the connection exists once the machine has run.
    pub fn spawn(rt: &Arc<Runtime>, core: CoreId, ip: Ipv4Addr, workload: W) -> Rc<Self> {
        let client = Self::new(workload);
        spawn_with(rt, core, Rc::clone(&client), move |c| {
            c.open(ip, MEMCACHED_PORT)
        });
        client
    }

    /// The connection, once opened (for its core, tuple, state).
    pub fn conn(&self) -> Option<TcpConn> {
        self.conn.borrow().clone()
    }

    /// Sends `frames` — the next piece of the request stream: one
    /// frame, several back to back, or part of one too large for the
    /// window — as one TCP send, noting each request that starts in it
    /// as in flight since now. Refuses, and notes nothing, when the
    /// connection is not established or the peer's window cannot take
    /// all of it.
    pub fn send(&self, frames: Chain<IoBuf>) -> Result<(), SendError> {
        self.send_due(frames, now_ns())
    }

    /// As [`Client::send`], measuring latency from `due` instead of
    /// from now — an open-loop generator passes the request's intended
    /// arrival time, so time spent queued behind the pipeline counts.
    pub fn send_due(&self, frames: Chain<IoBuf>, due: Ns) -> Result<(), SendError> {
        let conn = self.conn.borrow();
        let conn = conn.as_ref().ok_or(SendError::NotConnected)?;
        // Noted before the bytes leave (the send consumes the chain)
        // and taken back if the stack refuses them.
        let (before, mut scan) = (self.in_flight.borrow().len(), self.sent.get());
        scan.feed(&frames, |h| {
            self.in_flight.borrow_mut().push_back((h.opaque, due))
        });
        let sent = conn.send(frames);
        match sent {
            Ok(()) => self.sent.set(scan),
            Err(_) => self.in_flight.borrow_mut().truncate(before),
        }
        sent
    }

    /// Usable send window in bytes (0 before the connection opens).
    pub fn send_window(&self) -> usize {
        self.conn.borrow().as_ref().map_or(0, TcpConn::send_window)
    }

    /// Requests awaiting their reply.
    pub fn in_flight(&self) -> usize {
        self.in_flight.borrow().len()
    }

    /// Bytes buffered awaiting a whole reply (diagnostic).
    pub fn pending_len(&self) -> usize {
        self.pending.borrow().len()
    }

    /// Closes our half (FIN); replies still in flight keep arriving.
    pub fn close(&self) {
        if let Some(conn) = self.conn.borrow().as_ref() {
            conn.close();
        }
    }

    /// Takes the in-flight entry a reply carrying `opaque` answers.
    fn matched(&self, opaque: u32) -> Option<Ns> {
        let mut q = self.in_flight.borrow_mut();
        let at = q.iter().position(|&(o, _)| o == opaque)?;
        q.remove(at).map(|(_, sent_at)| sent_at)
    }
}

impl<W: Workload> ConnHandler for Client<W> {
    fn on_connected(&self, _conn: &TcpConn) {
        self.workload.on_connected(self);
    }

    fn on_receive(&self, conn: &TcpConn, data: Chain<IoBuf>) {
        let now = now_ns();
        // Framed outside the cell: the workload sends (and may close)
        // from `on_reply`.
        let mut pending = self.pending.take();
        let mut framed = Ok(());
        let drained = drain_frames(&mut pending, data, MAGIC_RESPONSE, |h, mut body| {
            let Some(sent_at) = self.matched(h.opaque) else {
                framed = framed.and_then(|()| Err(BadFrame::counted()));
                return;
            };
            body.advance(h.value_offset());
            self.workload
                .on_reply(self, h, body, now.saturating_sub(sent_at));
        });
        if framed.and(drained).is_err() {
            // The stream cannot be trusted past this point.
            conn.abort();
            return;
        }
        *self.pending.borrow_mut() = pending;
    }

    fn on_window_open(&self, _conn: &TcpConn) {
        self.workload.on_window_open(self);
    }

    fn on_close(&self, _conn: &TcpConn) {
        self.workload.on_close(self);
    }
}

/// The simplest workload: send a fixed script of requests as one burst
/// on connect, keep every reply as `(header, value bytes)` in arrival
/// order. What a test wants when the assertions are about the server.
pub struct Burst {
    frames: RefCell<Chain<IoBuf>>,
    half_close: bool,
    /// Every reply so far.
    pub replies: RefCell<Vec<(Header, Vec<u8>)>>,
}

impl Burst {
    /// A burst of the given encoded request frames, back to back.
    pub fn new(frames: &[Vec<u8>]) -> Burst {
        Burst {
            frames: RefCell::new(Chain::single(IoBuf::copy_from(&frames.concat()))),
            half_close: false,
            replies: RefCell::new(Vec::new()),
        }
    }

    /// As [`Burst::new`], closing our half right behind the burst
    /// (replies still arrive).
    pub fn half_closing(frames: &[Vec<u8>]) -> Burst {
        Burst {
            half_close: true,
            ..Burst::new(frames)
        }
    }

    /// The reply carrying `opaque`.
    ///
    /// # Panics
    ///
    /// Panics if no such reply arrived.
    pub fn reply(&self, opaque: u32) -> (Header, Vec<u8>) {
        let replies = self.replies.borrow();
        let found = replies.iter().find(|(h, _)| h.opaque == opaque);
        found
            .unwrap_or_else(|| panic!("no reply for opaque {opaque}"))
            .clone()
    }
}

impl Workload for Burst {
    fn on_connected(&self, client: &Client<Self>) {
        client
            .send(self.frames.take())
            .expect("a test's burst fits the initial window");
        if self.half_close {
            client.close();
        }
    }

    fn on_reply(&self, _client: &Client<Self>, h: &Header, value: Chain<IoBuf>, _latency: Ns) {
        self.replies.borrow_mut().push((*h, value.copy_to_vec()));
    }
}

/// A closed loop of one request: each send is a descriptor clone of
/// the one frozen frame, at most `depth` are in flight, and every
/// reply is checked (status OK, `value_len` value bytes) and its
/// latency recorded. The harness owns the phases: [`ClosedLoop::kick`]
/// queues requests, the world runs to idle, the fields are read back.
pub struct ClosedLoop {
    request: IoBuf,
    depth: usize,
    value_len: usize,
    /// The handshake has completed; sends go out from then on.
    connected: Cell<bool>,
    /// Requests kicked and not yet sent.
    queued: Cell<u32>,
    /// Every reply's latency, in virtual ns.
    pub lat: RefCell<LatencyRecorder>,
    /// Virtual time of the last reply.
    pub last_reply_ns: Cell<Ns>,
    /// Replies with a bad status or value length, refused sends, and
    /// closes while replies were owed.
    pub failures: Cell<u32>,
}

impl ClosedLoop {
    /// A loop of the encoded `request`, `depth` deep, whose replies
    /// must carry `value_len` value bytes.
    pub fn new(request: Vec<u8>, depth: usize, value_len: usize) -> ClosedLoop {
        ClosedLoop {
            request: MutIoBuf::from_vec(request).freeze(),
            depth,
            value_len,
            connected: Cell::new(false),
            queued: Cell::new(0),
            lat: RefCell::new(LatencyRecorder::new()),
            last_reply_ns: Cell::new(0),
            failures: Cell::new(0),
        }
    }

    /// Queues `n` more requests and sends what the depth allows: from
    /// an event on the client's core, or before the handshake
    /// completes (they go out on connect).
    pub fn kick<W: Workload>(&self, client: &Client<W>, n: u32) {
        self.queued.set(self.queued.get() + n);
        self.pump(client);
    }

    /// Whether every kicked request has been sent and answered.
    pub fn idle<W: Workload>(&self, client: &Client<W>) -> bool {
        self.queued.get() == 0 && client.in_flight() == 0
    }

    fn fail(&self) {
        self.failures.set(self.failures.get() + 1);
    }

    fn pump<W: Workload>(&self, client: &Client<W>) {
        while self.connected.get() && self.queued.get() > 0 && client.in_flight() < self.depth {
            self.queued.set(self.queued.get() - 1);
            if client.send(Chain::single(self.request.clone())).is_err() {
                self.fail();
            }
        }
    }

    // The loop's side of the three `Workload` callbacks, generic so a
    // workload that wraps a loop forwards to them.

    /// See [`Workload::on_connected`].
    pub fn connected<W: Workload>(&self, client: &Client<W>) {
        self.connected.set(true);
        self.pump(client);
    }

    /// See [`Workload::on_reply`].
    pub fn replied<W: Workload>(
        &self,
        client: &Client<W>,
        h: &Header,
        value: &Chain<IoBuf>,
        latency_ns: Ns,
    ) {
        if h.status != STATUS_OK || value.len() != self.value_len {
            self.fail();
        }
        self.lat.borrow_mut().record(latency_ns);
        self.last_reply_ns.set(now_ns());
        self.pump(client);
    }

    /// See [`Workload::on_close`].
    pub fn closed<W: Workload>(&self, client: &Client<W>) {
        if !self.idle(client) {
            self.fail();
        }
    }
}

impl Workload for ClosedLoop {
    fn on_connected(&self, client: &Client<Self>) {
        self.connected(client);
    }

    fn on_reply(&self, client: &Client<Self>, h: &Header, value: Chain<IoBuf>, latency_ns: Ns) {
        self.replied(client, h, &value, latency_ns);
    }

    fn on_close(&self, client: &Client<Self>) {
        self.closed(client);
    }
}

#[cfg(test)]
mod tests;
