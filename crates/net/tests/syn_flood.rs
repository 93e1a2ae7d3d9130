//! SYN-flood containment tests for the budgeted syncache: a flood
//! against one class churns only that class's embryonic budget —
//! established connections and other classes' handshakes are
//! untouchable — and the embryonic ledger balances exactly at
//! quiescence (`created == promoted + evicted + aborted + live`).

use std::rc::Rc;

use ebbrt_core::iobuf::{Chain, IoBuf};
use ebbrt_core::qos::{self, ClassConfig, QosConfig};
use ebbrt_net::netif::{ConnHandler, ListenError, NetIf, QosMatch, TcpConn};
use ebbrt_net::types::Ipv4Addr;
use ebbrt_sim::{CostProfile, Lan, SimMachine};

mod common;
use common::{on_core0, open_conn, Echo, Opened, PORT, SERVER_IP};

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
    let lan = Lan::new();
    let vm = CostProfile::ebbrt_vm;
    let w = &lan.world;
    let sw = &lan.switch;
    let (server, s_if) = lan.machine("server", 1, vm(), [0xAA; 6], SERVER_IP);
    let (good, g_if) = lan.machine("good", 1, vm(), [0xBB; 6], Ipv4Addr::new(10, 0, 0, 2));
    let (attacker, a_if) = lan.machine("attacker", 1, vm(), [0xCC; 6], Ipv4Addr::new(10, 0, 0, 3));
    let (server_port, attacker_port) = (server.index(), attacker.index());
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
    let lan = Lan::new();
    let vm = CostProfile::ebbrt_vm;
    let w = &lan.world;
    let sw = &lan.switch;
    let (server, s_if) = lan.machine("server", 1, vm(), [0xAA; 6], SERVER_IP);
    let (client, c_if) = lan.machine("client", 1, vm(), [0xBB; 6], Ipv4Addr::new(10, 0, 0, 2));
    let (server_port, client_port) = (server.index(), client.index());
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
    let lan = Lan::new();
    let vm = CostProfile::ebbrt_vm;
    let w = &lan.world;
    let (server, s_if) = lan.machine("server", 1, vm(), [0xAA; 6], SERVER_IP);
    let (client, c_if) = lan.machine("client", 1, vm(), [0xBB; 6], Ipv4Addr::new(10, 0, 0, 2));
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
    let lan = Lan::new();
    let w = &lan.world;
    let (_server, s_if) = lan.machine("server", 1, CostProfile::ebbrt_vm(), [0xAA; 6], SERVER_IP);
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
