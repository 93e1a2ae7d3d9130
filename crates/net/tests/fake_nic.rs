//! The stack on a device with no simulator behind it: a [`Nic`] over a
//! bare [`Runtime`] on a [`ManualClock`], whose one event manager the
//! test drains by hand. What the stack transmits is kept, and
//! what the test hands in reaches the stack through the driver's
//! receive call — the trait is the whole boundary.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::Arc;

use ebbrt_core::clock::ManualClock;
use ebbrt_core::cpu::CoreId;
use ebbrt_core::event::InterruptLine;
use ebbrt_core::iobuf::{Chain, IoBuf, MutIoBuf};
use ebbrt_core::runtime::{self, Runtime};
use ebbrt_net::nic::{Mac, Nic};
use ebbrt_net::types::Ipv4Addr;
use ebbrt_net::wire::{self, ArpPacket, EthHeader, Ipv4Header};
use ebbrt_net::NetIf;

const MAC: Mac = [0x02, 0, 0, 0, 0, 1];
const IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const PEER_MAC: Mac = [0x02, 0, 0, 0, 0, 2];
const PEER_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

/// One receive queue, on core 0. A frame handed in waits in `rx` and
/// raises the queue's line; a transmitted frame is kept in `sent`.
struct FakeNic {
    rt: Arc<Runtime>,
    rx: RefCell<VecDeque<Chain<IoBuf>>>,
    irq: RefCell<Option<InterruptLine>>,
    sent: RefCell<Vec<Chain<IoBuf>>>,
}

impl FakeNic {
    fn receive(&self, frame: Chain<IoBuf>) {
        self.rx.borrow_mut().push_back(frame);
        if let Some(line) = self.irq.borrow().as_ref() {
            line.raise();
        }
    }
}

impl Nic for FakeNic {
    fn runtime(&self) -> &Arc<Runtime> {
        &self.rt
    }
    fn mac(&self) -> Mac {
        MAC
    }
    fn mtu(&self) -> usize {
        wire::MTU
    }
    fn mark_stack_attached(&self) {}
    fn nqueues(&self) -> usize {
        1
    }
    fn set_irq(&self, _queue: usize, line: InterruptLine) {
        *self.irq.borrow_mut() = Some(line);
    }
    fn set_irq_enabled(&self, _queue: usize, _enabled: bool) {}
    fn rx_len(&self, _queue: usize) -> usize {
        self.rx.borrow().len()
    }
    fn rx_burst(
        &self,
        _q: usize,
        _irq: bool,
        max: usize,
        _bytes: usize,
        out: &mut Vec<Chain<IoBuf>>,
    ) -> usize {
        let mut rx = self.rx.borrow_mut();
        let n = max.min(rx.len());
        out.extend(rx.drain(..n));
        n
    }
    fn transmit(&self, frame: Chain<IoBuf>) {
        self.sent.borrow_mut().push(frame);
    }
}

/// A one-core machine with the stack attached and its queue set up.
fn attached() -> (Rc<FakeNic>, Rc<NetIf>) {
    let nic = Rc::new(FakeNic {
        rt: Runtime::new(1, Arc::new(ManualClock::new())),
        rx: RefCell::default(),
        irq: RefCell::default(),
        sent: RefCell::default(),
    });
    let netif = NetIf::attach(&nic, IP, Ipv4Addr::new(255, 255, 255, 0));
    run(&nic);
    assert!(
        nic.irq.borrow().is_some(),
        "the driver bound the queue's line"
    );
    (nic, netif)
}

/// Drains core 0's event manager: the driver's setup, interrupts.
fn run(nic: &FakeNic) {
    let _on = runtime::enter(Arc::clone(&nic.rt), CoreId(0));
    nic.rt.event_manager(CoreId(0)).drain();
}

fn frame(dst: Mac, ethertype: u16, mut body: MutIoBuf) -> Chain<IoBuf> {
    let src = PEER_MAC;
    wire::push_eth(
        &mut body,
        &EthHeader {
            dst,
            src,
            ethertype,
        },
    );
    Chain::single(body.freeze())
}

#[test]
fn an_arp_request_for_the_address_gets_one_reply() {
    let (nic, _netif) = attached();
    let request = ArpPacket {
        oper: wire::ARP_REQUEST,
        sha: PEER_MAC,
        spa: PEER_IP,
        tha: [0; 6],
        tpa: IP,
    };
    nic.receive(frame(
        [0xff; 6],
        wire::ETHERTYPE_ARP,
        wire::build_arp(&request),
    ));
    run(&nic);
    let mut sent = nic.sent.take();
    assert_eq!(sent.len(), 1, "one frame answers the request");
    let eth = wire::parse_eth(&sent[0]).expect("an Ethernet header");
    let expected = EthHeader {
        dst: PEER_MAC,
        src: MAC,
        ethertype: wire::ETHERTYPE_ARP,
    };
    assert_eq!(eth, expected);
    sent[0].advance(wire::ETH_HLEN);
    let reply = wire::parse_arp(&sent[0]).expect("a well-formed ARP packet");
    let expected = ArpPacket {
        oper: wire::ARP_REPLY,
        sha: MAC,
        spa: IP,
        tha: PEER_MAC,
        tpa: PEER_IP,
    };
    assert_eq!(reply, expected);
}

#[test]
fn a_udp_datagram_reaches_its_bound_handler() {
    let (nic, netif) = attached();
    let got = Rc::new(Cell::new(None));
    let g = Rc::clone(&got);
    netif.udp_bind(53, move |src, port, data| {
        g.set(Some((src, port, data.copy_to_vec())))
    });
    let payload = Chain::single(IoBuf::copy_from(b"ping"));
    let mut body = MutIoBuf::with_headroom(0, wire::HEADROOM);
    wire::push_udp(&mut body, PEER_IP, IP, 4000, 53, &payload);
    let ip = Ipv4Header {
        src: PEER_IP,
        dst: IP,
        proto: wire::IPPROTO_UDP,
        total_len: 0,
        id: 1,
        ttl: 64,
    };
    wire::push_ipv4(&mut body, &ip, wire::UDP_HLEN + payload.len());
    let mut datagram = frame(MAC, wire::ETHERTYPE_IPV4, body);
    datagram.append_chain(payload);
    nic.receive(datagram);
    run(&nic);
    assert_eq!(got.take(), Some((PEER_IP, 4000, b"ping".to_vec())));
    assert!(nic.sent.borrow().is_empty(), "nothing to answer");
}
