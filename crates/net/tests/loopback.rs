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
use ebbrt_net::netif::{ConnHandler, TcpConn};
use ebbrt_net::nic::{Mac, Nic};
use ebbrt_net::types::Ipv4Addr;
use ebbrt_net::wire::{self, tcp_flags, ArpPacket, EthHeader, Ipv4Header, TcpHeader};
use ebbrt_net::NetIf;
use proptest::prelude::*;

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

/// A well-formed ARP request from the far end for the stack's address.
fn arp_request(m: &Attached) -> Chain<IoBuf> {
    let request = ArpPacket {
        oper: wire::ARP_REQUEST,
        sha: m.far.mac(),
        spa: PEER_IP,
        tha: [0; 6],
        tpa: IP,
    };
    frame(
        m.far.mac(),
        [0xff; 6],
        wire::ETHERTYPE_ARP,
        wire::build_arp(&request),
    )
}

/// An IPv4 frame from the far end: `body` holds the transport header,
/// `payload` follows it.
fn ipv4_frame(m: &Attached, proto: u8, mut body: MutIoBuf, payload: Chain<IoBuf>) -> Chain<IoBuf> {
    let ip = Ipv4Header {
        src: PEER_IP,
        dst: IP,
        proto,
        total_len: 0,
        id: 1,
        ttl: 64,
    };
    let len = body.bytes_mut().len() + payload.len();
    wire::push_ipv4(&mut body, &ip, len);
    let mut f = frame(m.far.mac(), m.netif.mac(), wire::ETHERTYPE_IPV4, body);
    f.append_chain(payload);
    f
}

/// A datagram from the far end's port 4000 to the stack's `dst_port`.
fn udp_datagram(m: &Attached, dst_port: u16, payload: &[u8]) -> Chain<IoBuf> {
    let payload = Chain::single(IoBuf::copy_from(payload));
    let mut body = MutIoBuf::with_headroom(0, wire::HEADROOM);
    wire::push_udp(&mut body, PEER_IP, IP, 4000, dst_port, &payload);
    ipv4_frame(m, wire::IPPROTO_UDP, body, payload)
}

/// A segment without payload from the far end's `src_port` to the
/// stack's port 80.
fn tcp_segment(m: &Attached, src_port: u16, flags: u8) -> Chain<IoBuf> {
    let h = TcpHeader {
        src_port,
        dst_port: 80,
        seq: 1000,
        ack: if flags & tcp_flags::ACK != 0 { 5000 } else { 0 },
        flags,
        window: 8192,
        header_len: wire::TCP_HLEN,
    };
    let mut body = MutIoBuf::with_headroom(0, wire::HEADROOM);
    wire::push_tcp(&mut body, PEER_IP, IP, &h, &Chain::new());
    ipv4_frame(m, wire::IPPROTO_TCP, body, Chain::new())
}

/// How many of `sent` are ARP replies telling the far end the stack's
/// address.
fn arp_replies(m: &Attached, sent: &[Chain<IoBuf>]) -> usize {
    let expected = ArpPacket {
        oper: wire::ARP_REPLY,
        sha: m.netif.mac(),
        spa: IP,
        tha: m.far.mac(),
        tpa: PEER_IP,
    };
    let is_reply = |f: &Chain<IoBuf>| {
        let mut arp = f.clone();
        arp.advance(wire::ETH_HLEN);
        wire::parse_arp(&arp) == Some(expected)
    };
    sent.iter()
        .filter(|f| wire::parse_eth(f).is_some_and(|e| e.ethertype == wire::ETHERTYPE_ARP))
        .filter(|f| is_reply(f))
        .count()
}

#[test]
fn an_arp_request_for_the_address_gets_one_reply() {
    let m = attached();
    let (mac, peer_mac) = (m.netif.mac(), m.far.mac());
    m.far.transmit(arp_request(&m));
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
    let datagram = udp_datagram(&m, 53, b"ping");
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

/// Accepts connections and ignores what arrives on them.
struct Sink;

impl ConnHandler for Sink {
    fn on_receive(&self, _conn: &TcpConn, _data: Chain<IoBuf>) {}
}

/// The four well-formed frames the hostile-frame property starts from,
/// on a machine with UDP port 53 bound, TCP port 80 listening and the
/// far end's address learned (so what a frame provokes leaves at once
/// instead of waiting on a query). Returns the machine, the frames and
/// how many datagrams port 53 has received.
fn hostile_target() -> (Attached, [Chain<IoBuf>; 4], Rc<Cell<usize>>) {
    let m = attached();
    let datagrams = Rc::new(Cell::new(0));
    let d = Rc::clone(&datagrams);
    m.netif.udp_bind(53, move |_, _, _| d.set(d.get() + 1));
    m.netif
        .listen(80, |_| Rc::new(Sink) as Rc<dyn ConnHandler>)
        .unwrap();
    m.far.transmit(arp_request(&m));
    run(&m.rt);
    take(&m.far);
    let bases = [
        arp_request(&m),
        udp_datagram(&m, 53, b"ping"),
        tcp_segment(&m, 4000, tcp_flags::SYN),
        tcp_segment(&m, 4001, tcp_flags::ACK),
    ];
    (m, bases, datagrams)
}

/// Unedited, each base frame gets the answer its kind calls for, so
/// the property's edits start from frames the stack fully parses.
#[test]
fn the_hostile_frame_bases_are_well_formed() {
    let (m, [arp, udp, syn, stray], datagrams) = hostile_target();
    m.far.transmit(arp);
    run(&m.rt);
    assert_eq!(arp_replies(&m, &take(&m.far)), 1);
    m.far.transmit(udp);
    run(&m.rt);
    assert_eq!(datagrams.get(), 1);
    let answer = |frame| {
        m.far.transmit(frame);
        run(&m.rt);
        let sent = take(&m.far);
        assert_eq!(sent.len(), 1);
        wire::parse_tcp_frame(&sent[0])
            .expect("a TCP segment")
            .2
            .flags
    };
    assert_eq!(answer(syn), tcp_flags::SYN | tcp_flags::ACK);
    assert_eq!(answer(stray) & tcp_flags::RST, tcp_flags::RST);
}

proptest! {
    /// No frame panics the stack. Each case cuts, pads, pokes one byte
    /// of, or replaces with random bytes one of the four base frames.
    /// The far end hands it in, the machine drains, and the stack still
    /// answers ARP.
    #[test]
    fn no_frame_panics_the_stack(
        base in 0usize..4,
        edit in 0usize..4,
        at in any::<usize>(),
        byte in any::<u8>(),
        junk in prop::collection::vec(any::<u8>(), 0..128),
    ) {
        let (m, bases, _) = hostile_target();
        let mut bytes = bases[base].copy_to_vec();
        match edit {
            0 => bytes.truncate(at % bytes.len()),
            1 => bytes.extend_from_slice(&junk),
            2 => {
                let i = at % bytes.len();
                bytes[i] = byte;
            }
            _ => bytes = junk,
        }
        m.far.transmit(Chain::single(IoBuf::copy_from(&bytes)));
        run(&m.rt);
        take(&m.far);

        m.far.transmit(arp_request(&m));
        run(&m.rt);
        prop_assert_eq!(arp_replies(&m, &take(&m.far)), 1);
    }
}
