//! NetPIPE ported to EbbRT (§4.1.3, Figure 4).
//!
//! "NetPIPE is a popular ping-pong benchmark where the client sends a
//! fixed-size message to the server which is echoed back after being
//! completely received." Small messages measure latency, large messages
//! stress throughput. As in the paper, the same system runs on both
//! ends — the experiment parameterizes the environment profile.
//!
//! The application obeys the EbbRT buffering contract: each side tracks
//! how much of the current message it has sent, pushes as much as the
//! advertised window allows, and continues from `on_window_open`.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use ebbrt_core::clock::Ns;
use ebbrt_core::cpu::CoreId;
use ebbrt_core::iobuf::{Chain, IoBuf};
use ebbrt_net::netif::{ConnHandler, TcpConn};
use ebbrt_net::types::Ipv4Addr;
use ebbrt_sim::{CostProfile, Lan, SimMachine};

use ebbrt_apps::spawn_with;

/// NetPIPE service port.
pub const NETPIPE_PORT: u16 = 5002;

/// Result of one message-size point.
#[derive(Clone, Copy, Debug)]
pub struct PipeSample {
    /// Message size in bytes.
    pub message_bytes: usize,
    /// One-way latency (round trip / 2) in microseconds.
    pub one_way_us: f64,
    /// Goodput in megabits per second.
    pub goodput_mbps: f64,
}

/// A ping-pong endpoint: accumulates a full message, then sends one of
/// its own (echo on the server; next iteration on the client).
struct PipeEnd {
    message_bytes: usize,
    received: Cell<usize>,
    /// Bytes of the current outgoing message still unsent.
    to_send: Cell<usize>,
    /// Completed round trips (client side).
    rounds: Cell<u32>,
    target_rounds: u32,
    /// Rounds before measurement starts (steady-state mode; 0 = off).
    warmup_rounds: u32,
    is_client: bool,
    started_at: Cell<Ns>,
    finished_at: Cell<Ns>,
    /// IOBuf counters at the end of warmup (steady-state mode).
    steady_stats: Cell<Option<iobuf_stats::Snapshot>>,
    /// Both machines' runtimes (client side, steady-state mode): pool
    /// counters are per machine, so the zero-copy property is read as
    /// the world total over server + client.
    world: RefCell<Vec<Arc<ebbrt_core::runtime::Runtime>>>,
    payload: RefCell<Option<IoBuf>>,
}

use ebbrt_core::iobuf::stats as iobuf_stats;
use std::sync::Arc;

impl PipeEnd {
    fn new(message_bytes: usize, target_rounds: u32, is_client: bool) -> Rc<PipeEnd> {
        Self::with_warmup(message_bytes, target_rounds, 0, is_client)
    }

    fn with_warmup(
        message_bytes: usize,
        target_rounds: u32,
        warmup_rounds: u32,
        is_client: bool,
    ) -> Rc<PipeEnd> {
        Rc::new(PipeEnd {
            message_bytes,
            received: Cell::new(0),
            to_send: Cell::new(0),
            rounds: Cell::new(0),
            target_rounds,
            warmup_rounds,
            is_client,
            started_at: Cell::new(0),
            finished_at: Cell::new(0),
            steady_stats: Cell::new(None),
            world: RefCell::new(Vec::new()),
            payload: RefCell::new(Some(IoBuf::copy_from(&vec![0xAB; message_bytes]))),
        })
    }

    /// Pushes as much of the outstanding message as the window allows.
    fn push(&self, conn: &TcpConn) {
        while self.to_send.get() > 0 {
            let window = conn.send_window();
            if window == 0 {
                return;
            }
            let take = window.min(self.to_send.get());
            let offset = self.message_bytes - self.to_send.get();
            let payload = self.payload.borrow();
            let buf = payload.as_ref().expect("payload present");
            let chunk = buf.slice(offset, take);
            drop(payload);
            if conn.send(Chain::single(chunk)).is_err() {
                return;
            }
            self.to_send.set(self.to_send.get() - take);
        }
    }

    fn on_message_complete(&self, conn: &TcpConn) {
        if self.is_client {
            let r = self.rounds.get() + 1;
            self.rounds.set(r);
            if self.warmup_rounds > 0 && r == self.warmup_rounds {
                // Warmup done: the pool is hot; measurement starts here.
                self.started_at
                    .set(ebbrt_core::runtime::with_current(|rt| rt.now_ns()));
                self.steady_stats.set(Some(iobuf_stats::world_snapshot(
                    self.world.borrow().iter().map(Arc::as_ref),
                )));
            }
            if r >= self.target_rounds {
                self.finished_at
                    .set(ebbrt_core::runtime::with_current(|rt| rt.now_ns()));
                conn.close();
                return;
            }
        }
        // Fire the next message (echo, or next iteration).
        self.to_send.set(self.message_bytes);
        self.push(conn);
    }
}

impl ConnHandler for PipeEnd {
    fn on_connected(&self, conn: &TcpConn) {
        if self.is_client {
            self.started_at
                .set(ebbrt_core::runtime::with_current(|rt| rt.now_ns()));
            self.to_send.set(self.message_bytes);
            self.push(conn);
        }
    }

    fn on_receive(&self, conn: &TcpConn, data: Chain<IoBuf>) {
        let mut got = self.received.get() + data.len();
        while got >= self.message_bytes {
            got -= self.message_bytes;
            self.received.set(got);
            self.on_message_complete(conn);
        }
        self.received.set(got);
    }

    fn on_window_open(&self, conn: &TcpConn) {
        self.push(conn);
    }
}

/// The assembled two-machine ping-pong world (shared by [`run`] and
/// [`run_steady`]).
struct PipeWorld {
    lan: Lan,
    server: Rc<SimMachine>,
    client: Rc<SimMachine>,
    client_end: Rc<PipeEnd>,
}

/// Builds the two-machine world, starts the listener, and spawns the
/// client connect; the caller drives the world and reads `client_end`.
fn setup_pipe(
    profile: &CostProfile,
    message_bytes: usize,
    target_rounds: u32,
    warmup_rounds: u32,
) -> PipeWorld {
    let lan = Lan::new();
    let w = &lan.world;
    let server_ip = Ipv4Addr::new(10, 0, 1, 1);
    let (server, _s_if) = lan.machine(
        "np-server",
        1,
        profile.clone(),
        [0xAA, 0, 0, 0, 0, 2],
        server_ip,
    );
    let (client, _c_if) = lan.machine(
        "np-client",
        1,
        profile.clone(),
        [0xBB, 0, 0, 0, 0, 2],
        Ipv4Addr::new(10, 0, 1, 2),
    );
    w.run_to_idle();

    // Both sides resolve their stack through the well-known network
    // manager id from inside their machines' events.
    server.spawn(CoreId(0), move || {
        ebbrt_net::netif::local_netif()
            .listen(NETPIPE_PORT, move |_conn| {
                PipeEnd::new(message_bytes, 0, false) as Rc<dyn ConnHandler>
            })
            .expect("netpipe port already bound");
    });
    w.run_to_idle();
    let client_end = PipeEnd::with_warmup(message_bytes, target_rounds, warmup_rounds, true);
    client_end
        .world
        .borrow_mut()
        .extend([Arc::clone(server.runtime()), Arc::clone(client.runtime())]);
    let ce = Rc::clone(&client_end);
    spawn_with(&client, CoreId(0), ce, move |ce| {
        ebbrt_net::netif::local_netif().connect(server_ip, NETPIPE_PORT, ce as Rc<dyn ConnHandler>);
    });
    PipeWorld {
        lan,
        server,
        client,
        client_end,
    }
}

/// Runs one NetPIPE point: `rounds` ping-pongs of `message_bytes`, both
/// ends on `profile`. Returns one-way latency and goodput.
pub fn run(profile: &CostProfile, message_bytes: usize, rounds: u32) -> PipeSample {
    let pipe = setup_pipe(profile, message_bytes, rounds, 0);
    pipe.server.start_scheduler_ticks(&pipe.lan.world);
    pipe.client.start_scheduler_ticks(&pipe.lan.world);
    // Bound the run: generous virtual-time budget, then stop ticks.
    pipe.lan.world.run_until(60_000_000_000);
    pipe.server.stop_scheduler_ticks();
    pipe.client.stop_scheduler_ticks();

    let client_end = &pipe.client_end;
    let start = client_end.started_at.get();
    let finish = client_end.finished_at.get();
    assert!(
        finish > start && client_end.rounds.get() >= rounds,
        "NetPIPE did not complete: {} rounds of {} bytes",
        client_end.rounds.get(),
        message_bytes
    );
    let elapsed = finish - start;
    let rtt = elapsed as f64 / rounds as f64;
    let one_way_us = rtt / 2.0 / 1000.0;
    // Goodput: application bytes moved one way per unit one-way time.
    let goodput_mbps = (message_bytes as f64 * 8.0) / (rtt / 2.0) * 1000.0;
    PipeSample {
        message_bytes,
        one_way_us,
        goodput_mbps,
    }
}

/// Result of a steady-state (pool-hot) throughput run.
#[derive(Clone, Copy, Debug)]
pub struct SteadySample {
    /// Message size in bytes.
    pub message_bytes: usize,
    /// Goodput over the measured (post-warmup) rounds, Mbps.
    pub goodput_mbps: f64,
    /// Payload bytes copied during the measured rounds (zero-copy
    /// pipeline ⇒ 0).
    pub bytes_copied: u64,
    /// Fresh buffer allocations during the measured rounds (pool-hot
    /// steady state ⇒ 0).
    pub bufs_allocated: u64,
    /// Buffer requests served from the per-core pools during the
    /// measured rounds.
    pub pool_hits: u64,
}

/// The steady-state pooled-throughput mode: runs `warmup_rounds`
/// ping-pongs to heat the per-core buffer pools, then measures
/// `rounds` more, reporting goodput *and* the IOBuf counter deltas so
/// callers can verify the zero-copy/zero-alloc property of the hot
/// path rather than assume it.
///
/// At least one warmup and one measured round always run: zeros are
/// clamped up (a zero-warmup "steady state" would measure connection
/// setup, and zero measured rounds would have no sample to report).
pub fn run_steady(
    profile: &CostProfile,
    message_bytes: usize,
    warmup_rounds: u32,
    rounds: u32,
) -> SteadySample {
    let warmup_rounds = warmup_rounds.max(1);
    let rounds = rounds.max(1);
    let pipe = setup_pipe(
        profile,
        message_bytes,
        warmup_rounds + rounds,
        warmup_rounds,
    );
    // Same tick regime as [`run`], so steady samples are comparable
    // across profiles that model scheduler ticks.
    pipe.server.start_scheduler_ticks(&pipe.lan.world);
    pipe.client.start_scheduler_ticks(&pipe.lan.world);
    pipe.lan.world.run_until(120_000_000_000);
    pipe.server.stop_scheduler_ticks();
    pipe.client.stop_scheduler_ticks();

    let client_end = &pipe.client_end;
    let start = client_end.started_at.get();
    let finish = client_end.finished_at.get();
    assert!(
        finish > start && client_end.rounds.get() >= warmup_rounds + rounds,
        "steady NetPIPE did not complete: {} rounds of {} bytes",
        client_end.rounds.get(),
        message_bytes
    );
    let baseline = client_end
        .steady_stats
        .get()
        .expect("warmup snapshot taken");
    let world = [pipe.server.runtime(), pipe.client.runtime()];
    let delta = iobuf_stats::world_snapshot(world.iter().map(|rt| &***rt)).since(&baseline);
    let rtt = (finish - start) as f64 / rounds as f64;
    SteadySample {
        message_bytes,
        goodput_mbps: (message_bytes as f64 * 8.0) / (rtt / 2.0) * 1000.0,
        bytes_copied: delta.bytes_copied,
        bufs_allocated: delta.bufs_allocated,
        pool_hits: delta.pool_hits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_state_is_zero_copy_and_pool_hot() {
        let s = run_steady(&CostProfile::ebbrt_vm(), 16 * 1024, 8, 8);
        assert_eq!(s.bytes_copied, 0, "steady state must copy no payload bytes");
        assert_eq!(
            s.bufs_allocated, 0,
            "steady state must allocate no fresh buffers"
        );
        assert!(s.pool_hits > 0, "the pool must be serving the hot path");
        assert!(s.goodput_mbps > 0.0);
    }

    #[test]
    fn small_message_latency_orders_correctly() {
        let ebbrt = run(&CostProfile::ebbrt_vm(), 64, 20);
        let linux = run(&CostProfile::linux_vm(), 64, 20);
        assert!(
            ebbrt.one_way_us < linux.one_way_us,
            "EbbRT {:.1}µs must beat Linux {:.1}µs at 64 B",
            ebbrt.one_way_us,
            linux.one_way_us
        );
        // Sanity: single-digit-to-low-double-digit µs, as in Figure 4.
        assert!(ebbrt.one_way_us > 2.0 && ebbrt.one_way_us < 25.0);
        assert!(linux.one_way_us < 40.0);
    }

    #[test]
    fn large_messages_approach_wire_speed() {
        let s = run(&CostProfile::ebbrt_vm(), 256 * 1024, 4);
        // 10 GbE wire: goodput must be within the right ballpark and
        // below line rate.
        assert!(
            s.goodput_mbps > 3000.0 && s.goodput_mbps < 10_000.0,
            "unexpected goodput {:.0} Mbps",
            s.goodput_mbps
        );
    }

    #[test]
    fn ebbrt_reaches_high_goodput_at_smaller_messages_than_linux() {
        let size = 64 * 1024;
        let e = run(&CostProfile::ebbrt_vm(), size, 4);
        let l = run(&CostProfile::linux_vm(), size, 4);
        assert!(
            e.goodput_mbps > l.goodput_mbps,
            "EbbRT {:.0} vs Linux {:.0} Mbps at 64 KiB",
            e.goodput_mbps,
            l.goodput_mbps
        );
    }
}
