//! Model-based fuzz of the slab-PCB demux at the TCP level.
//!
//! The unit proptests in `conn_slab.rs` prove retired tokens never
//! alias *in the container*; this test proves the property end-to-end:
//! random connect / send / close / abort interleavings against a real
//! two-machine world, checked after every step against a `HashMap`
//! model of which connections are open and which bytes each must have
//! echoed. Aggressive churn reuses slab slots constantly, so a stale
//! token (or a demux entry outliving its PCB) would deliver one
//! connection's bytes to another's handler — the model catches both
//! by exact per-connection byte accounting.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use ebbrt_core::iobuf::{Chain, IoBuf};
use ebbrt_net::netif::{ConnHandler, TcpConn};
use ebbrt_net::types::Ipv4Addr;
use ebbrt_net::Lan;
use ebbrt_sim::CostProfile;

const PORT: u16 = 7070;

mod common;
use common::on_core0;

/// Client end of one fuzzed connection: records everything delivered.
struct ClientEnd {
    conn: RefCell<Option<TcpConn>>,
    received: RefCell<Vec<u8>>,
    closed: Cell<bool>,
}

impl ConnHandler for ClientEnd {
    fn on_connected(&self, conn: &TcpConn) {
        *self.conn.borrow_mut() = Some(conn.clone());
    }
    fn on_receive(&self, _conn: &TcpConn, data: Chain<IoBuf>) {
        self.received.borrow_mut().extend(data.copy_to_vec());
    }
    fn on_close(&self, _conn: &TcpConn) {
        self.closed.set(true);
    }
}

/// Server end: echo everything, complete a passive close when asked.
struct Echo;
impl ConnHandler for Echo {
    fn on_receive(&self, conn: &TcpConn, data: Chain<IoBuf>) {
        let _ = conn.send(data);
    }
    fn on_close(&self, conn: &TcpConn) {
        conn.close();
    }
}

/// What the model believes about one connection ever opened.
struct ModelConn {
    open: bool,
    expected: Vec<u8>,
}

proptest::proptest! {
    /// Random connect/send/close/abort interleavings: after every
    /// step, both machines' live-PCB counts must equal the model's
    /// open set, and at the end every connection — including ones
    /// whose slab slot was reused several churn cycles ago — must
    /// have received exactly its own echoes, byte for byte.
    #[test]
    fn interleaved_conn_lifecycles_match_hashmap_model(
        seed in 0u64..10_000,
        ops in 8usize..40,
    ) {
        let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };

        let lan = Lan::new();
        let w = &lan.world;
        let (server, s_if) = lan.machine("server", 1, CostProfile::ebbrt_vm(), [0xAA; 6], Ipv4Addr::new(10, 0, 0, 1));
        let (client, c_if) = lan.machine("client", 1, CostProfile::ebbrt_vm(), [0xBB; 6], Ipv4Addr::new(10, 0, 0, 2));
        on_core0(&server, Rc::clone(&s_if), |s_if| {
            s_if.listen(PORT, |_conn| Rc::new(Echo) as Rc<dyn ConnHandler>)
                .expect("fresh port");
        });
        w.run_to_idle();

        let mut ends: Vec<Rc<ClientEnd>> = Vec::new();
        let mut model: HashMap<usize, ModelConn> = HashMap::new();
        for op in 0..ops {
            let open: Vec<usize> =
                model.iter().filter(|(_, m)| m.open).map(|(&i, _)| i).collect();
            let roll = if open.is_empty() { 0 } else { next() % 6 };
            match roll {
                // Connect (always when nothing is open).
                0 | 1 => {
                    let end = Rc::new(ClientEnd {
                        conn: RefCell::new(None),
                        received: RefCell::new(Vec::new()),
                        closed: Cell::new(false),
                    });
                    ends.push(Rc::clone(&end));
                    model.insert(ends.len() - 1, ModelConn { open: true, expected: Vec::new() });
                    let c_if = Rc::clone(&c_if);
                    on_core0(&client, end, move |end| {
                        c_if.connect(Ipv4Addr::new(10, 0, 0, 1), PORT, end);
                    });
                }
                // Send a unique payload; the echo must come back to
                // exactly this handler.
                2 | 3 => {
                    let i = open[next() as usize % open.len()];
                    let payload =
                        vec![i as u8, (i >> 8) as u8, op as u8, 0xEB, next() as u8];
                    model.get_mut(&i).unwrap().expected.extend(&payload);
                    let end = Rc::clone(&ends[i]);
                    on_core0(&client, end, move |end| {
                        let conn = end.conn.borrow().clone().expect("established before send");
                        conn.send(Chain::single(IoBuf::copy_from(&payload)))
                            .expect("tiny send fits the window");
                    });
                }
                // Orderly close from the client; the server's
                // `on_close` completes the passive side.
                4 => {
                    let i = open[next() as usize % open.len()];
                    model.get_mut(&i).unwrap().open = false;
                    let end = Rc::clone(&ends[i]);
                    on_core0(&client, end, move |end| {
                        end.conn.borrow().clone().expect("established").close();
                    });
                }
                // Hard reset from the client.
                _ => {
                    let i = open[next() as usize % open.len()];
                    model.get_mut(&i).unwrap().open = false;
                    let end = Rc::clone(&ends[i]);
                    on_core0(&client, end, move |end| {
                        end.conn.borrow().clone().expect("established").abort();
                    });
                }
            }
            w.run_to_idle();

            let want_open = model.values().filter(|m| m.open).count();
            proptest::prop_assert_eq!(
                s_if.conn_count(),
                want_open,
                "server live PCBs diverged from the model after op {}",
                op
            );
            proptest::prop_assert_eq!(
                c_if.conn_count(),
                want_open,
                "client live PCBs diverged from the model after op {}",
                op
            );
            proptest::prop_assert_eq!(s_if.embryonic_total(), 0, "no half-open leftovers");
        }

        for (i, m) in &model {
            let end = &ends[*i];
            proptest::prop_assert_eq!(
                &*end.received.borrow(),
                &m.expected,
                "conn {} received bytes that are not its own echoes",
                i
            );
            if m.open {
                proptest::prop_assert!(!end.closed.get(), "open conn {} saw on_close", i);
            }
        }
        proptest::prop_assert!(
            s_if.conn_high_water() <= ends.len(),
            "server slab grew beyond one slot per connection ever opened"
        );
    }
}
