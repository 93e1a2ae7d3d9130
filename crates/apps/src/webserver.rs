//! The node.js webserver experiment (§4.3, Table 2).
//!
//! "The webserver uses the builtin http module and responds to each GET
//! request with a small static response, totaling 148 bytes. We use the
//! wrk benchmark to place moderate load on the server and measure mean
//! and 99th percentile latencies."
//!
//! The server here is that webserver: an HTTP/1.1 keep-alive server
//! whose request handler charges the cost of a managed-runtime (V8)
//! callback — identical on every environment; the environment
//! differences (interrupt path, copies, syscalls, scheduler ticks) come
//! from the machine's cost profile, exactly as in the memcached
//! experiment. The client is a wrk-style closed-loop generator.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use ebbrt_core::clock::Ns;
use ebbrt_core::cpu::CoreId;
use ebbrt_core::iobuf::{Buf, Chain, IoBuf, MutIoBuf};
use ebbrt_net::netif::{local_netif, ConnHandler, TcpConn};
use ebbrt_net::types::Ipv4Addr;
use ebbrt_net::Lan;
use ebbrt_sim::world::charge;
use ebbrt_sim::CostProfile;

use crate::spawn_with;
use crate::stats::LatencyRecorder;

/// HTTP port.
pub const HTTP_PORT: u16 = 8080;

/// The static response, sized to the paper's 148 bytes total.
pub fn static_response() -> Vec<u8> {
    let body = "<html><body><h1>hello</h1></body></html>";
    let mut resp = format!(
        "HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nConnection: keep-alive\r\nContent-Length: {}\r\n\r\n{}",
        body.len(),
        body
    )
    .into_bytes();
    // Pad the body portion (via a header) so the response is exactly
    // 148 bytes like the paper's.
    while resp.len() < 148 {
        resp.insert(resp.len() - body.len() - 4, b' ');
    }
    resp.truncate(148);
    resp
}

/// Virtual CPU cost of the JavaScript request callback (V8 executing
/// the http module's parser callbacks, handler, and response assembly).
/// Identical on both environments; node.js hello-world handlers measure
/// ~60–80 µs of in-V8 work per request on 2.6 GHz Xeons.
pub const JS_HANDLER_NS: u64 = 70_000;

/// Requests between V8 minor (scavenge) collections: each request
/// allocates a few KiB of short-lived objects into a ~1 MiB young
/// space.
pub const GC_EVERY: u64 = 48;

/// Scavenge pause (copying the survivors).
pub const GC_PAUSE_NS: u64 = 35_000;

/// Extra scavenge cost on a demand-paging environment: the evacuated
/// semispace was returned to the kernel and refaults (the same
/// mechanism Figure 7 models; see `jsrt`).
pub const GC_FAULT_EXTRA_NS: u64 = 55_000;

struct HttpServerConn {
    /// The not-yet-terminated tail of the request stream, held as a
    /// zero-copy chain of receive-buffer views.
    pending: RefCell<Chain<IoBuf>>,
    /// The frozen static response; every reply is a descriptor clone of
    /// this one region (zero-copy, zero-alloc).
    response: IoBuf,
    /// Process-wide request counter driving the GC-pause model.
    requests: Rc<Cell<u64>>,
    /// Whether the environment demand-pages (pays refaults at GC).
    demand_paging: bool,
}

/// Backlog fragmentation gate (same policy as memcached's): a peer
/// trickling a request a few bytes per packet must not pin one receive
/// region per packet.
const PENDING_COMPACT_SEGS: usize = 64;
const PENDING_COMPACT_FACTOR: usize = 4;

impl ConnHandler for HttpServerConn {
    fn on_receive(&self, conn: &TcpConn, data: Chain<IoBuf>) {
        let mut pending = self.pending.borrow_mut();
        pending.append_chain(data);
        pending.compact_if_amplified(PENDING_COMPACT_SEGS, PENDING_COMPACT_FACTOR);
        // One request per "\r\n\r\n" terminator, scanned in place at
        // slice speed; the 4-state matcher carries across segment
        // boundaries (no reassembly copy).
        let mut responses = 0usize;
        let mut consumed = 0usize;
        {
            let mut matched = 0u8;
            let mut offset = 0usize;
            for seg in pending.iter() {
                for &b in seg.bytes() {
                    offset += 1;
                    matched = match (matched, b) {
                        (0, b'\r') => 1,
                        (1, b'\n') => 2,
                        (2, b'\r') => 3,
                        (3, b'\n') => {
                            responses += 1;
                            consumed = offset;
                            0
                        }
                        (_, b'\r') => 1,
                        _ => 0,
                    };
                }
            }
        }
        pending.advance(consumed);
        drop(pending);
        if responses > 0 {
            charge(JS_HANDLER_NS * responses as u64);
            // The V8 scavenger model: every GC_EVERY-th request pays the
            // collection pause, plus refault cost under demand paging.
            for _ in 0..responses {
                let n = self.requests.get() + 1;
                self.requests.set(n);
                if n.is_multiple_of(GC_EVERY) {
                    charge(GC_PAUSE_NS);
                    if self.demand_paging {
                        charge(GC_FAULT_EXTRA_NS);
                    }
                }
            }
            // Batch the pass's replies into one chain of descriptor
            // clones — the response bytes are shared, never copied.
            let mut out = Chain::new();
            for _ in 0..responses {
                out.push_back(self.response.clone());
            }
            let _ = conn.send(out);
        }
    }
}

/// Starts the webserver on the **current machine** (the network
/// manager resolves through its well-known Ebb id). `demand_paging`
/// selects the Linux-style GC/refault behaviour (derived from the
/// machine profile by [`run`]). Must run inside an event on the
/// server machine.
pub fn serve(demand_paging: bool) {
    let response = MutIoBuf::from_vec(static_response()).freeze();
    let requests = Rc::new(Cell::new(0u64));
    local_netif()
        .listen(HTTP_PORT, move |_conn| {
            Rc::new(HttpServerConn {
                pending: RefCell::new(Chain::new()),
                response: response.clone(),
                requests: Rc::clone(&requests),
                demand_paging,
            }) as Rc<dyn ConnHandler>
        })
        .expect("http port already bound on this machine");
}

/// wrk-style closed-loop client connection: one outstanding GET, next
/// one issued on response (with optional think gap to set load).
struct WrkConn {
    recorder: Rc<RefCell<LatencyRecorder>>,
    sent_at: Rc<Cell<Ns>>,
    received: Cell<usize>,
    think_ns: Ns,
    measuring: Rc<Cell<bool>>,
    completed: Rc<Cell<u64>>,
    /// The GET request, frozen once; each send clones the descriptor.
    request: IoBuf,
}

const REQUEST: &[u8] = b"GET / HTTP/1.1\r\nHost: sim\r\n\r\n";

impl WrkConn {
    fn fire(&self, conn: &TcpConn) {
        self.sent_at
            .set(ebbrt_core::runtime::with_current(|rt| rt.now_ns()));
        let _ = conn.send(Chain::single(self.request.clone()));
    }
}

impl ConnHandler for WrkConn {
    fn on_connected(&self, conn: &TcpConn) {
        self.fire(conn);
    }

    fn on_receive(&self, conn: &TcpConn, data: Chain<IoBuf>) {
        let mut got = self.received.get() + data.len();
        if got < 148 {
            self.received.set(got);
            return;
        }
        got -= 148;
        self.received.set(got);
        let now = ebbrt_core::runtime::with_current(|rt| rt.now_ns());
        if self.measuring.get() {
            self.recorder
                .borrow_mut()
                .record(now.saturating_sub(self.sent_at.get()));
            self.completed.set(self.completed.get() + 1);
        }
        // Think, then next request.
        let conn = conn.clone();
        if self.think_ns == 0 {
            self.fire(&conn);
        } else {
            // The timer continuation shares `sent_at` with this handler,
            // so the latency of the next response is measured correctly.
            // The event system resolves through its well-known Ebb id.
            let sent_at = Rc::clone(&self.sent_at);
            let request = self.request.clone();
            let cell = crate::SendCell::new((conn, sent_at, request));
            let think = self.think_ns;
            ebbrt_core::runtime::event_manager_ref().with(|e| {
                e.with_em(|em| {
                    em.set_timer(think, move || {
                        let (conn, sent_at, request) = cell.into_inner();
                        sent_at.set(ebbrt_core::runtime::with_current(|rt| rt.now_ns()));
                        let _ = conn.send(Chain::single(request));
                    });
                })
            });
        }
    }
}

/// Table 2 result.
#[derive(Clone, Copy, Debug)]
pub struct WebserverSample {
    /// Mean latency (µs).
    pub mean_us: f64,
    /// 99th percentile latency (µs).
    pub p99_us: f64,
    /// Achieved requests/second.
    pub rps: f64,
}

/// Runs the Table 2 experiment on `profile`: `connections` keep-alive
/// clients at moderate load.
pub fn run(profile: &CostProfile, connections: usize, think_ns: Ns) -> WebserverSample {
    let lan = Lan::new();
    let w = &lan.world;
    let web_ip = Ipv4Addr::new(10, 0, 2, 1);
    let (server, _s_if) = lan.machine("web", 1, profile.clone(), [0xAA, 0, 0, 0, 0, 3], web_ip);
    let (client, _c_if) = lan.machine(
        "wrk",
        4,
        CostProfile::ebbrt_vm(),
        [0xBB, 0, 0, 0, 0, 3],
        Ipv4Addr::new(10, 0, 2, 2),
    );
    w.run_to_idle();
    // Demand paging (GC refaults) goes with the preemptive profiles.
    let demand_paging = profile.tick_period_ns > 0;
    server.spawn_on(CoreId(0), move || serve(demand_paging));
    w.run_to_idle();
    server.start_scheduler_ticks(w);

    let measuring = Rc::new(Cell::new(false));
    let request = IoBuf::copy_from(REQUEST);
    let conns: Vec<Rc<WrkConn>> = (0..connections)
        .map(|_| {
            Rc::new(WrkConn {
                recorder: Rc::new(RefCell::new(LatencyRecorder::new())),
                sent_at: Rc::new(Cell::new(0)),
                received: Cell::new(0),
                think_ns,
                measuring: Rc::clone(&measuring),
                completed: Rc::new(Cell::new(0)),
                request: request.clone(),
            })
        })
        .collect();
    for (i, wc) in conns.iter().enumerate() {
        let core = CoreId((i % 4) as u32);
        let wc2 = Rc::clone(wc);
        spawn_with(&client, core, wc2, move |wc| {
            local_netif().connect(web_ip, HTTP_PORT, wc as Rc<dyn ConnHandler>);
        });
    }
    let warmup: Ns = 50_000_000;
    let duration: Ns = 400_000_000;
    {
        let m = crate::SendCell::new(Rc::clone(&measuring));
        client.spawn_on(CoreId(0), move || {
            ebbrt_core::runtime::with_current(|rt| {
                let flag = m.into_inner();
                rt.local_event_manager()
                    .set_timer(warmup, move || flag.set(true));
            });
        });
    }
    w.run_until(warmup + duration);
    server.stop_scheduler_ticks();

    let mut recorder = LatencyRecorder::new();
    let mut completed = 0;
    for wc in &conns {
        recorder.merge(&wc.recorder.borrow());
        completed += wc.completed.get();
    }
    WebserverSample {
        mean_us: recorder.mean() / 1000.0,
        p99_us: recorder.percentile(99.0) as f64 / 1000.0,
        rps: completed as f64 * 1e9 / duration as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_is_exactly_148_bytes() {
        assert_eq!(static_response().len(), 148);
        assert!(static_response().starts_with(b"HTTP/1.1 200 OK"));
    }

    #[test]
    fn ebbrt_beats_linux_on_mean_and_p99() {
        let e = run(&CostProfile::ebbrt_vm(), 8, 1_000_000);
        let l = run(&CostProfile::linux_vm(), 8, 1_000_000);
        assert!(e.rps > 0.0 && l.rps > 0.0);
        assert!(
            e.mean_us < l.mean_us,
            "EbbRT mean {:.1}µs vs Linux {:.1}µs",
            e.mean_us,
            l.mean_us
        );
        assert!(
            e.p99_us < l.p99_us,
            "EbbRT p99 {:.1}µs vs Linux {:.1}µs",
            e.p99_us,
            l.p99_us
        );
    }
}
