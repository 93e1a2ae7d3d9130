//! The stack on a [`LoopNic`] pair over one bare [`Runtime`] on a
//! [`ManualClock`], whose one event manager the test drains by hand:
//! no simulator behind it. The stack owns one end; the test holds the
//! other, handing frames in with `transmit` and reading the stack's
//! answers with `rx_burst` — the trait is the whole boundary.

use std::cell::Cell;
use std::rc::Rc;
use std::sync::Arc;

use ebbrt_core::clock::ManualClock;
use ebbrt_core::cpu::CoreId;
use ebbrt_core::iobuf::{Chain, IoBuf, MutIoBuf};
use ebbrt_core::runtime::{self, Runtime};
use ebbrt_net::driver::RX_BURST_BYTES;
use ebbrt_net::loopback::LoopNic;
use ebbrt_net::nic::{Mac, Nic};
use ebbrt_net::types::Ipv4Addr;
use ebbrt_net::wire::{self, ArpPacket, EthHeader, Ipv4Header};
use ebbrt_net::NetIf;

const IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const PEER_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

/// A one-core machine with the stack attached to one end of a pair,
/// its queue set up; the far end is the test's.
struct Attached {
    rt: Arc<Runtime>,
    far: Rc<LoopNic>,
    netif: Rc<NetIf>,
}

fn attached() -> Attached {
    let rt = Runtime::new(1, Arc::new(ManualClock::new()));
    let (near, far) = LoopNic::pair(&rt, &rt);
    let netif = NetIf::attach(&near, IP, Ipv4Addr::new(255, 255, 255, 0));
    run(&rt);
    Attached { rt, far, netif }
}

/// Drains core 0's event manager: the driver's setup, interrupts.
fn run(rt: &Arc<Runtime>) {
    let _on = runtime::enter(Arc::clone(rt), CoreId(0));
    rt.event_manager(CoreId(0)).drain();
}

/// Everything waiting on `nic`'s queue.
fn take(nic: &LoopNic) -> Vec<Chain<IoBuf>> {
    let mut out = Vec::new();
    nic.rx_burst(0, false, usize::MAX, usize::MAX, &mut out);
    out
}

fn frame(src: Mac, dst: Mac, ethertype: u16, mut body: MutIoBuf) -> Chain<IoBuf> {
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
    let m = attached();
    let (mac, peer_mac) = (m.netif.mac(), m.far.mac());
    let request = ArpPacket {
        oper: wire::ARP_REQUEST,
        sha: peer_mac,
        spa: PEER_IP,
        tha: [0; 6],
        tpa: IP,
    };
    m.far.transmit(frame(
        peer_mac,
        [0xff; 6],
        wire::ETHERTYPE_ARP,
        wire::build_arp(&request),
    ));
    run(&m.rt);
    let mut sent = take(&m.far);
    assert_eq!(sent.len(), 1, "one frame answers the request");
    let eth = wire::parse_eth(&sent[0]).expect("an Ethernet header");
    let expected = EthHeader {
        dst: peer_mac,
        src: mac,
        ethertype: wire::ETHERTYPE_ARP,
    };
    assert_eq!(eth, expected);
    sent[0].advance(wire::ETH_HLEN);
    let reply = wire::parse_arp(&sent[0]).expect("a well-formed ARP packet");
    let expected = ArpPacket {
        oper: wire::ARP_REPLY,
        sha: mac,
        spa: IP,
        tha: peer_mac,
        tpa: PEER_IP,
    };
    assert_eq!(reply, expected);
}

#[test]
fn a_udp_datagram_reaches_its_bound_handler() {
    let m = attached();
    let got = Rc::new(Cell::new(None));
    let g = Rc::clone(&got);
    m.netif.udp_bind(53, move |src, port, data| {
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
    let mut datagram = frame(m.far.mac(), m.netif.mac(), wire::ETHERTYPE_IPV4, body);
    datagram.append_chain(payload);
    m.far.transmit(datagram);
    run(&m.rt);
    assert_eq!(got.take(), Some((PEER_IP, 4000, b"ping".to_vec())));
    assert!(take(&m.far).is_empty(), "nothing to answer");
}

/// `Nic::set_irq_enabled`'s contract, on the device alone: a disabled
/// interrupt raises nothing, re-enabling raises nothing for frames
/// already queued, and the next drain finds them.
#[test]
fn a_disabled_interrupt_stays_quiet_and_the_next_drain_finds_the_frames() {
    let rt = Runtime::new(1, Arc::new(ManualClock::new()));
    let _on = runtime::enter(Arc::clone(&rt), CoreId(0));
    let em = rt.event_manager(CoreId(0));
    let (near, far) = LoopNic::pair(&rt, &rt);
    let raised = Rc::new(Cell::new(0));
    let r = Rc::clone(&raised);
    near.set_irq(
        0,
        em.interrupt_line(em.allocate_vector(move || r.set(r.get() + 1))),
    );
    let bytes = |b: &[u8]| Chain::single(IoBuf::copy_from(b));

    far.transmit(bytes(b"a"));
    em.drain();
    assert_eq!(raised.get(), 1, "an enabled interrupt is raised");
    assert_eq!(take(&near).len(), 1);

    near.set_irq_enabled(0, false);
    far.transmit(bytes(b"bb"));
    far.transmit(bytes(b"ccc"));
    em.drain();
    assert_eq!(raised.get(), 1, "nothing raised while disabled");
    assert_eq!(near.rx_len(0), 2, "the frames wait for a drain");

    near.set_irq_enabled(0, true);
    em.drain();
    assert_eq!(
        raised.get(),
        1,
        "re-enabling raises nothing for queued frames"
    );
    let mut out = Vec::new();
    assert_eq!(near.rx_burst(0, false, 64, RX_BURST_BYTES, &mut out), 2);
    let lens: Vec<usize> = out.iter().map(Chain::len).collect();
    assert_eq!(lens, [2, 3], "the next drain finds them, in order");
}
