//! What the stack's integration tests share: the two-machine LAN, an
//! echo server, and a client connection whose lifecycle and bytes the
//! test can watch.
#![allow(dead_code)]

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use ebbrt_core::cpu::CoreId;
use ebbrt_core::iobuf::{Chain, IoBuf};
use ebbrt_net::netif::{ConnHandler, NetIf, TcpConn};
use ebbrt_net::types::Ipv4Addr;
use ebbrt_sim::{CostProfile, Lan, SimMachine, SimWorld, Switch};

pub const PORT: u16 = 7;
pub const SERVER_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);

/// World, switch (keep it alive: NICs hold it weakly), server, client.
pub type TwoMachines = (
    Rc<SimWorld>,
    Rc<Switch>,
    (Rc<SimMachine>, Rc<NetIf>),
    (Rc<SimMachine>, Rc<NetIf>),
);

/// A one-core server at [`SERVER_IP`] and a one-core client, stacks up.
pub fn two_machines() -> TwoMachines {
    let lan = Lan::new();
    let vm = CostProfile::ebbrt_vm;
    let server = lan.machine("server", 1, vm(), [0xAA; 6], SERVER_IP);
    let client = lan.machine("client", 1, vm(), [0xBB; 6], Ipv4Addr::new(10, 0, 0, 2));
    lan.world.run_to_idle();
    (lan.world, lan.switch, server, client)
}

/// Runs `f(v)` in an event on core 0 of `m`.
pub fn on_core0<T: 'static>(m: &Rc<SimMachine>, v: T, f: impl FnOnce(T) + 'static) {
    m.spawn_local(CoreId(0), move || f(v));
}

/// Server handler: sends every received chunk back.
pub struct Echo;
impl ConnHandler for Echo {
    fn on_receive(&self, conn: &TcpConn, data: Chain<IoBuf>) {
        conn.send(data).expect("echo send");
    }
}

/// A client connection's observables.
#[derive(Clone, Default)]
pub struct Opened {
    pub conn: Rc<RefCell<Option<TcpConn>>>,
    pub connected: Rc<Cell<bool>>,
    pub closed: Rc<Cell<bool>>,
    pub got: Rc<RefCell<Vec<u8>>>,
}

impl ConnHandler for Opened {
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

/// Opens a connection from `client` to [`SERVER_IP`]:[`PORT`] (once the
/// world runs), recording its lifecycle and received bytes.
pub fn open_conn(client: &Rc<SimMachine>, c_if: &Rc<NetIf>) -> Opened {
    let opened = Opened::default();
    let args = (Rc::clone(c_if), opened.clone());
    on_core0(client, args, |(c_if, handler)| {
        let slot = Rc::clone(&handler.conn);
        *slot.borrow_mut() = Some(c_if.connect(SERVER_IP, PORT, Rc::new(handler)));
    });
    opened
}
