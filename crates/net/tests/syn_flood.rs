//! SYN-flood containment tests for the budgeted syncache: a flood
//! against one class churns only that class's embryonic budget —
//! established connections and other classes' handshakes are
//! untouchable — and the embryonic ledger balances exactly at
//! quiescence (`created == promoted + evicted + aborted + live`).

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use ebbrt_core::cpu::CoreId;
use ebbrt_core::iobuf::{Chain, IoBuf};
use ebbrt_core::qos::{self, ClassConfig, QosConfig};
use ebbrt_net::netif::{ConnHandler, ListenError, NetIf, QosMatch, TcpConn};
use ebbrt_net::types::Ipv4Addr;
use ebbrt_sim::{CostProfile, LinkParams, SimMachine, SimWorld, Switch};

const MASK: Ipv4Addr = Ipv4Addr::new(255, 255, 255, 0);
const PORT: u16 = 7;
const SERVER_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);

struct Echo;
impl ConnHandler for Echo {
    fn on_receive(&self, conn: &TcpConn, data: Chain<IoBuf>) {
        conn.send(data).expect("echo send");
    }
}

/// Client handler recording lifecycle + received bytes.
struct Probe {
    connected: Rc<Cell<bool>>,
    closed: Rc<Cell<bool>>,
    got: Rc<RefCell<Vec<u8>>>,
}
impl ConnHandler for Probe {
    fn on_connected(&self, _c: &TcpConn) {
        self.connected.set(true);
    }
    fn on_receive(&self, _c: &TcpConn, data: Chain<IoBuf>) {
        self.got.borrow_mut().extend(data.copy_to_vec());
    }
    fn on_close(&self, _c: &TcpConn) {
        self.closed.set(true);
    }
}

struct SendCell<T>(T);
// SAFETY: the simulation executes all events on the single test thread.
unsafe impl<T> Send for SendCell<T> {}

fn on_core0<T: 'static>(m: &Rc<SimMachine>, v: T, f: impl FnOnce(T) + 'static) {
    let cell = SendCell((v, f));
    m.spawn_on(CoreId(0), move || {
        let cell = cell;
        (cell.0 .1)(cell.0 .0);
    });
}

struct Opened {
    conn: Rc<RefCell<Option<TcpConn>>>,
    connected: Rc<Cell<bool>>,
    #[allow(dead_code)]
    closed: Rc<Cell<bool>>,
    got: Rc<RefCell<Vec<u8>>>,
}

fn open_conn(client: &Rc<SimMachine>, c_if: &Rc<NetIf>) -> Opened {
    let connected = Rc::new(Cell::new(false));
    let closed = Rc::new(Cell::new(false));
    let got = Rc::new(RefCell::new(Vec::new()));
    let conn = Rc::new(RefCell::new(None));
    let handler = Probe {
        connected: Rc::clone(&connected),
        closed: Rc::clone(&closed),
        got: Rc::clone(&got),
    };
    let slot = Rc::clone(&conn);
    let c_if = Rc::clone(c_if);
    on_core0(client, (), move |_| {
        let c = c_if.connect(SERVER_IP, PORT, Rc::new(handler));
        *slot.borrow_mut() = Some(c);
    });
    Opened {
        conn,
        connected,
        closed,
        got,
    }
}

/// Asserts the machine-global embryonic ledger balances:
/// `created == promoted + evicted + aborted + live`.
fn assert_ledger_balances(server: &Rc<SimMachine>, s_if: &Rc<NetIf>, at: &str) {
    let snap = qos::snapshot(server.runtime());
    let created = snap.get("net.embryonic_created");
    let promoted = snap.get("net.embryonic_promoted");
    let evicted = snap.get("net.embryonic_evicted");
    let aborted = snap.get("net.embryonic_aborted");
    let live = s_if.embryonic_total() as u64;
    assert_eq!(
        created,
        promoted + evicted + aborted + live,
        "embryonic ledger out of balance at {at}: \
         created={created} promoted={promoted} evicted={evicted} \
         aborted={aborted} live={live}"
    );
}

#[test]
fn syn_flood_on_one_class_cannot_evict_another_classes_conns() {
    let w = SimWorld::new();
    let sw = Switch::new(&w);
    let server = SimMachine::create(&w, "server", 1, CostProfile::ebbrt_vm(), [0xAA; 6]);
    let good = SimMachine::create(&w, "good", 1, CostProfile::ebbrt_vm(), [0xBB; 6]);
    let attacker = SimMachine::create(&w, "attacker", 1, CostProfile::ebbrt_vm(), [0xCC; 6]);
    let server_port = sw.attach(server.nic(), LinkParams::default());
    let _good_port = sw.attach(good.nic(), LinkParams::default());
    let attacker_port = sw.attach(attacker.nic(), LinkParams::default());
    let s_if = NetIf::attach(&server, SERVER_IP, MASK);
    let g_if = NetIf::attach(&good, Ipv4Addr::new(10, 0, 0, 2), MASK);
    let a_if = NetIf::attach(&attacker, Ipv4Addr::new(10, 0, 0, 3), MASK);
    w.run_to_idle();

    // Two classes: "gold" for the good client, "bulk" (syn_budget 4)
    // for the attacker. Neither has a conn_budget — this test isolates
    // the syncache layer of the shed ladder.
    let policy = s_if.install_qos(
        QosConfig::new(8_000_000_000)
            .class(ClassConfig::new("gold").ls_weight(3))
            .class(ClassConfig::new("bulk").ls_weight(1).syn_budget(4)),
    );
    let gold = policy.config().class_id("gold").unwrap();
    let bulk = policy.config().class_id("bulk").unwrap();
    policy.add_rule(QosMatch::Peer(Ipv4Addr::new(10, 0, 0, 2)), gold);
    policy.add_rule(QosMatch::Peer(Ipv4Addr::new(10, 0, 0, 3)), bulk);
    s_if.listen(PORT, |_conn| Rc::new(Echo) as Rc<dyn ConnHandler>)
        .unwrap();

    // A gold connection, fully established before the flood.
    let a = open_conn(&good, &g_if);
    w.run_to_idle();
    assert!(a.connected.get(), "gold connection must establish");
    assert_eq!(s_if.conn_count(), 1);

    // One completed attacker connect primes its ARP cache (the block
    // below would otherwise drop the ARP reply and no SYN would ever
    // leave the attacker).
    let primer = open_conn(&attacker, &a_if);
    w.run_to_idle();
    assert!(primer.connected.get());

    // Flood: the attacker's SYNs arrive but the server's replies
    // (SYN-ACK and shed RSTs alike) are dropped, so every attacker
    // handshake stays half-open from the server's point of view.
    sw.block_one_way(server_port, attacker_port);
    for _ in 0..12 {
        let _ = open_conn(&attacker, &a_if);
    }
    // Let the first SYN burst land and the shed/evict churn begin.
    w.run_for(20_000_000);
    assert!(
        s_if.embryonic_live(bulk) <= 4,
        "bulk embryos must stay under the class budget, got {}",
        s_if.embryonic_live(bulk)
    );
    assert_eq!(
        s_if.embryonic_live(gold),
        0,
        "the flood must not spill into gold's syncache"
    );
    let snap = qos::snapshot(server.runtime());
    assert!(
        snap.get("net.syn_shed") > 0,
        "an over-budget burst of fresh SYNs must shed"
    );
    assert_ledger_balances(&server, &s_if, "mid-flood");

    // Mid-flood, a *new* gold handshake still completes: the attack
    // consumes only bulk's budget.
    let b = open_conn(&good, &g_if);
    w.run_for(50_000_000);
    assert!(
        b.connected.get(),
        "gold handshake must complete during the flood"
    );

    // The established gold connection still serves: echo through it.
    let payload = b"still-alive".to_vec();
    let conn = a.conn.borrow().clone().unwrap();
    let p = payload.clone();
    on_core0(&good, conn, move |conn| {
        conn.send(Chain::single(IoBuf::copy_from(&p))).unwrap();
    });
    w.run_for(50_000_000);
    assert_eq!(
        *a.got.borrow(),
        payload,
        "established gold conn must survive the flood untouched"
    );

    // Quiesce: attacker SYN retries and server SYN-ACK retries both
    // exhaust; every embryonic entry settles as promoted, evicted, or
    // aborted, and the books balance exactly.
    w.run_to_idle();
    assert_eq!(s_if.embryonic_total(), 0, "no embryos may survive quiesce");
    assert_ledger_balances(&server, &s_if, "quiesce");
    let snap = qos::snapshot(server.runtime());
    assert!(
        snap.get("net.embryonic_evicted") > 0,
        "stale embryos under flood pressure must have been evicted"
    );
    // Exactly the completed handshakes promoted: the attacker's
    // primer plus the two gold connections.
    assert_eq!(snap.get("net.embryonic_promoted"), 3);
    assert_eq!(s_if.conn_count(), 3, "established conns remain untouched");
}

#[test]
fn syn_backlog_caps_default_class_without_policy() {
    let w = SimWorld::new();
    let sw = Switch::new(&w);
    let server = SimMachine::create(&w, "server", 1, CostProfile::ebbrt_vm(), [0xAA; 6]);
    let client = SimMachine::create(&w, "client", 1, CostProfile::ebbrt_vm(), [0xBB; 6]);
    let server_port = sw.attach(server.nic(), LinkParams::default());
    let client_port = sw.attach(client.nic(), LinkParams::default());
    let s_if = NetIf::attach(&server, SERVER_IP, MASK);
    let c_if = NetIf::attach(&client, Ipv4Addr::new(10, 0, 0, 2), MASK);
    w.run_to_idle();

    s_if.set_syn_backlog(2);
    s_if.listen(PORT, |_conn| Rc::new(Echo) as Rc<dyn ConnHandler>)
        .unwrap();

    // Prime the client's ARP cache before cutting the reply path.
    let primer = open_conn(&client, &c_if);
    w.run_to_idle();
    assert!(primer.connected.get());

    sw.block_one_way(server_port, client_port);
    for _ in 0..8 {
        let _ = open_conn(&client, &c_if);
    }
    w.run_for(20_000_000);
    assert!(
        s_if.embryonic_total() <= 2,
        "no-policy backlog cap must hold, got {}",
        s_if.embryonic_total()
    );
    let snap = qos::snapshot(server.runtime());
    assert!(snap.get("net.syn_shed") > 0, "overflow SYNs must shed");
    assert_ledger_balances(&server, &s_if, "mid-flood");

    w.run_to_idle();
    assert_eq!(s_if.embryonic_total(), 0);
    assert_ledger_balances(&server, &s_if, "quiesce");

    // Healed, a fresh handshake completes: shedding is load control,
    // not a latch.
    sw.heal_one_way(server_port, client_port);
    let c = open_conn(&client, &c_if);
    w.run_to_idle();
    assert!(c.connected.get(), "post-flood handshake must succeed");
    assert_ledger_balances(&server, &s_if, "post-heal");
}

/// Server handler that closes its half when the peer does.
struct CloseOnFin;
impl ConnHandler for CloseOnFin {
    fn on_receive(&self, _conn: &TcpConn, _data: Chain<IoBuf>) {}
    fn on_close(&self, conn: &TcpConn) {
        conn.close();
    }
}

/// With no syn budget nothing ever scans the syncache queue for a
/// victim, so the queue must shed promoted entries on its own: it used
/// to keep one entry per connection ever accepted.
#[test]
fn syncache_queue_stays_bounded_without_a_budget() {
    const ROUNDS: usize = 60;
    const PER_ROUND: usize = 50;
    let w = SimWorld::new();
    let sw = Switch::new(&w);
    let server = SimMachine::create(&w, "server", 1, CostProfile::ebbrt_vm(), [0xAA; 6]);
    let client = SimMachine::create(&w, "client", 1, CostProfile::ebbrt_vm(), [0xBB; 6]);
    sw.attach(server.nic(), LinkParams::default());
    sw.attach(client.nic(), LinkParams::default());
    let s_if = NetIf::attach(&server, SERVER_IP, MASK);
    let c_if = NetIf::attach(&client, Ipv4Addr::new(10, 0, 0, 2), MASK);
    w.run_to_idle();
    s_if.listen(PORT, |_conn| Rc::new(CloseOnFin) as Rc<dyn ConnHandler>)
        .unwrap();

    let mut queued_hwm = 0;
    for round in 0..ROUNDS {
        let opened: Vec<Opened> = (0..PER_ROUND).map(|_| open_conn(&client, &c_if)).collect();
        while opened.iter().any(|o| !o.connected.get()) {
            assert!(w.step(), "round {round}: handshakes stalled");
            queued_hwm = queued_hwm.max(s_if.embryonic_queued());
        }
        for o in &opened {
            on_core0(&client, Rc::clone(&o.conn), |c| {
                c.borrow().as_ref().expect("connected").close();
            });
        }
        w.run_to_idle();
        assert_eq!(
            s_if.embryonic_queued(),
            0,
            "round {round}: no embryo is live"
        );
    }
    assert!(
        queued_hwm <= PER_ROUND,
        "queue held {queued_hwm} entries with at most {PER_ROUND} handshakes in flight"
    );
    let snap = qos::snapshot(server.runtime());
    assert_eq!(
        snap.get("net.embryonic_promoted"),
        (ROUNDS * PER_ROUND) as u64
    );
    assert_eq!(s_if.embryonic_total(), 0);
    assert_ledger_balances(&server, &s_if, "quiesce");
}

#[test]
fn listen_twice_reports_port_in_use() {
    let w = SimWorld::new();
    let sw = Switch::new(&w);
    let server = SimMachine::create(&w, "server", 1, CostProfile::ebbrt_vm(), [0xAA; 6]);
    sw.attach(server.nic(), LinkParams::default());
    let s_if = NetIf::attach(&server, SERVER_IP, MASK);
    w.run_to_idle();

    s_if.listen(PORT, |_conn| Rc::new(Echo) as Rc<dyn ConnHandler>)
        .unwrap();
    let err = s_if
        .listen(PORT, |_conn| Rc::new(Echo) as Rc<dyn ConnHandler>)
        .unwrap_err();
    assert!(matches!(err, ListenError::PortInUse(PORT)));
    assert_eq!(
        err.to_string(),
        format!("port {PORT} already has a listener")
    );

    // A different port is fine.
    s_if.listen(PORT + 1, |_conn| Rc::new(Echo) as Rc<dyn ConnHandler>)
        .unwrap();
}
