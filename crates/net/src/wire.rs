//! Wire formats: Ethernet, ARP, IPv4, UDP and TCP headers.
//!
//! Builders *prepend* headers into a [`MutIoBuf`]'s headroom (transmit
//! never copies the payload); parsers read through a chain
//! [`Cursor`](ebbrt_core::iobuf::Cursor) and the caller *advances* the
//! chain past the header (receive never copies either).
//!
//! Each header has one reader and one writer over a fixed-size byte
//! array. The per-header functions gather that array through a cursor
//! (headers may be split across segments); the TCP fast paths
//! ([`parse_tcp_frame`], [`push_tcp_frame`]) hand the same readers and
//! writers the three headers in place, from one look at the frame's
//! first segment and one `prepend`.

use ebbrt_core::iobuf::{Buf, Chain, IoBuf, MutIoBuf};

use crate::types::{Checksum, Ipv4Addr, Mac};

/// Ethernet header length.
pub const ETH_HLEN: usize = 14;
/// Ethertype for IPv4.
pub const ETHERTYPE_IPV4: u16 = 0x0800;
/// Ethertype for ARP.
pub const ETHERTYPE_ARP: u16 = 0x0806;

/// IPv4 protocol numbers.
pub const IPPROTO_TCP: u8 = 6;
/// UDP protocol number.
pub const IPPROTO_UDP: u8 = 17;

/// IPv4 header length (no options).
pub const IPV4_HLEN: usize = 20;
/// UDP header length.
pub const UDP_HLEN: usize = 8;
/// TCP header length (no options).
pub const TCP_HLEN: usize = 20;

/// Standard Ethernet MTU and the resulting TCP MSS.
pub const MTU: usize = 1500;
/// Maximum TCP segment payload.
pub const TCP_MSS: usize = MTU - IPV4_HLEN - TCP_HLEN;

/// Headroom to reserve in transmit buffers for all headers.
pub const HEADROOM: usize = ETH_HLEN + IPV4_HLEN + TCP_HLEN + 8;

// --- Ethernet ------------------------------------------------------------

/// A parsed Ethernet header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EthHeader {
    /// Destination MAC.
    pub dst: Mac,
    /// Source MAC.
    pub src: Mac,
    /// Ethertype.
    pub ethertype: u16,
}

/// The first `N` bytes of `chain`, gathered across segments.
fn gather<const N: usize>(chain: &Chain<IoBuf>) -> Option<[u8; N]> {
    let mut b = [0u8; N];
    chain.cursor().read_exact(&mut b)?;
    Some(b)
}

fn write_eth(b: &mut [u8; ETH_HLEN], h: &EthHeader) {
    b[0..6].copy_from_slice(&h.dst);
    b[6..12].copy_from_slice(&h.src);
    b[12..14].copy_from_slice(&h.ethertype.to_be_bytes());
}

fn read_eth(b: &[u8; ETH_HLEN]) -> EthHeader {
    EthHeader {
        dst: [b[0], b[1], b[2], b[3], b[4], b[5]],
        src: [b[6], b[7], b[8], b[9], b[10], b[11]],
        ethertype: u16::from_be_bytes([b[12], b[13]]),
    }
}

/// Prepends an Ethernet header.
pub fn push_eth(buf: &mut MutIoBuf, h: &EthHeader) {
    let b = buf.prepend(ETH_HLEN);
    write_eth(b.try_into().expect("prepended ETH_HLEN"), h);
}

/// Parses the Ethernet header at the chain's start; the caller then
/// advances the chain by [`ETH_HLEN`].
pub fn parse_eth(chain: &Chain<IoBuf>) -> Option<EthHeader> {
    Some(read_eth(&gather(chain)?))
}

// --- ARP ------------------------------------------------------------------

/// ARP operation: request.
pub const ARP_REQUEST: u16 = 1;
/// ARP operation: reply.
pub const ARP_REPLY: u16 = 2;

/// A parsed ARP packet (Ethernet/IPv4 flavour).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ArpPacket {
    /// Operation ([`ARP_REQUEST`] or [`ARP_REPLY`]).
    pub oper: u16,
    /// Sender hardware address.
    pub sha: Mac,
    /// Sender protocol address.
    pub spa: Ipv4Addr,
    /// Target hardware address.
    pub tha: Mac,
    /// Target protocol address.
    pub tpa: Ipv4Addr,
}

/// Serializes an ARP packet (28 bytes) into a fresh buffer with
/// Ethernet headroom.
pub fn build_arp(p: &ArpPacket) -> MutIoBuf {
    let mut buf = MutIoBuf::with_headroom(28, ETH_HLEN);
    let b = buf.append(28);
    b[0..2].copy_from_slice(&1u16.to_be_bytes()); // htype ethernet
    b[2..4].copy_from_slice(&ETHERTYPE_IPV4.to_be_bytes()); // ptype
    b[4] = 6; // hlen
    b[5] = 4; // plen
    b[6..8].copy_from_slice(&p.oper.to_be_bytes());
    b[8..14].copy_from_slice(&p.sha);
    b[14..18].copy_from_slice(&p.spa.0);
    b[18..24].copy_from_slice(&p.tha);
    b[24..28].copy_from_slice(&p.tpa.0);
    buf
}

/// Parses an ARP packet from a chain positioned after the Ethernet
/// header.
pub fn parse_arp(chain: &Chain<IoBuf>) -> Option<ArpPacket> {
    let mut cur = chain.cursor();
    let htype = cur.read_u16_be()?;
    let ptype = cur.read_u16_be()?;
    let hlen = cur.read_u8()?;
    let plen = cur.read_u8()?;
    if htype != 1 || ptype != ETHERTYPE_IPV4 || hlen != 6 || plen != 4 {
        return None;
    }
    let oper = cur.read_u16_be()?;
    let mut sha = [0u8; 6];
    cur.read_exact(&mut sha)?;
    let mut spa = [0u8; 4];
    cur.read_exact(&mut spa)?;
    let mut tha = [0u8; 6];
    cur.read_exact(&mut tha)?;
    let mut tpa = [0u8; 4];
    cur.read_exact(&mut tpa)?;
    Some(ArpPacket {
        oper,
        sha,
        spa: Ipv4Addr(spa),
        tha,
        tpa: Ipv4Addr(tpa),
    })
}

// --- IPv4 -------------------------------------------------------------------

/// A parsed IPv4 header (options unsupported — parse fails on IHL > 5).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Ipv4Header {
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Payload protocol.
    pub proto: u8,
    /// Total length (header + payload).
    pub total_len: u16,
    /// Identification field.
    pub id: u16,
    /// Time to live.
    pub ttl: u8,
}

/// Writes an IPv4 header (with its checksum) over a payload of
/// `payload_len` bytes.
fn write_ipv4(b: &mut [u8; IPV4_HLEN], h: &Ipv4Header, payload_len: usize) {
    let total = (IPV4_HLEN + payload_len) as u16;
    b[0] = 0x45; // version 4, IHL 5
    b[1] = 0;
    b[2..4].copy_from_slice(&total.to_be_bytes());
    b[4..6].copy_from_slice(&h.id.to_be_bytes());
    b[6..8].copy_from_slice(&0u16.to_be_bytes()); // no fragmentation
    b[8] = h.ttl;
    b[9] = h.proto;
    b[10..12].copy_from_slice(&[0, 0]);
    b[12..16].copy_from_slice(&h.src.0);
    b[16..20].copy_from_slice(&h.dst.0);
    let ck = crate::types::checksum(b);
    b[10..12].copy_from_slice(&ck.to_be_bytes());
}

/// Reads and checksum-verifies an IPv4 header.
fn read_ipv4(hdr: &[u8; IPV4_HLEN]) -> Option<Ipv4Header> {
    if hdr[0] != 0x45 {
        return None; // not v4 / has options
    }
    if crate::types::checksum(hdr) != 0 {
        return None; // corrupt
    }
    Some(Ipv4Header {
        src: Ipv4Addr([hdr[12], hdr[13], hdr[14], hdr[15]]),
        dst: Ipv4Addr([hdr[16], hdr[17], hdr[18], hdr[19]]),
        proto: hdr[9],
        total_len: u16::from_be_bytes([hdr[2], hdr[3]]),
        id: u16::from_be_bytes([hdr[4], hdr[5]]),
        ttl: hdr[8],
    })
}

/// Prepends an IPv4 header over a payload of `payload_len` bytes.
pub fn push_ipv4(buf: &mut MutIoBuf, h: &Ipv4Header, payload_len: usize) {
    let b = buf.prepend(IPV4_HLEN);
    write_ipv4(b.try_into().expect("prepended IPV4_HLEN"), h, payload_len);
}

/// Parses and checksum-verifies an IPv4 header from a chain positioned
/// after the Ethernet header.
pub fn parse_ipv4(chain: &Chain<IoBuf>) -> Option<Ipv4Header> {
    read_ipv4(&gather(chain)?)
}

fn pseudo_header_sum(src: Ipv4Addr, dst: Ipv4Addr, proto: u8, len: u16) -> Checksum {
    let mut c = Checksum::new();
    c.add(&src.0);
    c.add(&dst.0);
    c.add_u16(proto as u16);
    c.add_u16(len);
    c
}

fn chain_checksum(mut c: Checksum, chain: &Chain<IoBuf>) -> u16 {
    for seg in chain.iter() {
        c.add(seg.bytes());
    }
    c.finish()
}

// --- UDP -----------------------------------------------------------------

/// A parsed UDP header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UdpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Length (header + payload).
    pub len: u16,
}

/// Prepends a UDP header (with pseudo-header checksum over `payload`).
pub fn push_udp(
    buf: &mut MutIoBuf,
    src: Ipv4Addr,
    dst: Ipv4Addr,
    src_port: u16,
    dst_port: u16,
    payload_csum: &Chain<IoBuf>,
) {
    let len = (UDP_HLEN + payload_csum.len() + buf.len()) as u16;
    let b = buf.prepend(UDP_HLEN);
    b[0..2].copy_from_slice(&src_port.to_be_bytes());
    b[2..4].copy_from_slice(&dst_port.to_be_bytes());
    b[4..6].copy_from_slice(&len.to_be_bytes());
    b[6..8].copy_from_slice(&[0, 0]);
    let mut c = pseudo_header_sum(src, dst, IPPROTO_UDP, len);
    c.add(&b[..UDP_HLEN]);
    // Header bytes after the UDP header within this buffer (none in
    // practice) are covered by the buffer's remaining view.
    let rest_off = UDP_HLEN;
    c.add(&buf.bytes()[rest_off..]);
    let ck = chain_checksum(c, payload_csum);
    let b = buf.bytes_mut();
    b[6..8].copy_from_slice(&ck.to_be_bytes());
}

/// Parses a UDP header from a chain positioned after the IPv4 header.
pub fn parse_udp(chain: &Chain<IoBuf>) -> Option<UdpHeader> {
    let mut cur = chain.cursor();
    let src_port = cur.read_u16_be()?;
    let dst_port = cur.read_u16_be()?;
    let len = cur.read_u16_be()?;
    let _csum = cur.read_u16_be()?;
    Some(UdpHeader {
        src_port,
        dst_port,
        len,
    })
}

// --- TCP -------------------------------------------------------------------

/// TCP flag bits.
pub mod tcp_flags {
    /// Final segment from sender.
    pub const FIN: u8 = 0x01;
    /// Synchronize sequence numbers.
    pub const SYN: u8 = 0x02;
    /// Reset the connection.
    pub const RST: u8 = 0x04;
    /// Push function.
    pub const PSH: u8 = 0x08;
    /// Acknowledgment field significant.
    pub const ACK: u8 = 0x10;
}

/// A parsed TCP header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TcpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgment number.
    pub ack: u32,
    /// Flag bits (see [`tcp_flags`]).
    pub flags: u8,
    /// Advertised receive window.
    pub window: u16,
    /// Header length in bytes (data offset × 4).
    pub header_len: usize,
}

/// Writes a TCP header (no options) whose checksum covers the
/// pseudo-header, the header itself, `tail` (bytes that follow it in
/// the same buffer) and `payload`.
fn write_tcp(
    b: &mut [u8; TCP_HLEN],
    src: Ipv4Addr,
    dst: Ipv4Addr,
    h: &TcpHeader,
    tail: &[u8],
    payload: &Chain<IoBuf>,
) {
    let len = (TCP_HLEN + tail.len() + payload.len()) as u16;
    b[0..2].copy_from_slice(&h.src_port.to_be_bytes());
    b[2..4].copy_from_slice(&h.dst_port.to_be_bytes());
    b[4..8].copy_from_slice(&h.seq.to_be_bytes());
    b[8..12].copy_from_slice(&h.ack.to_be_bytes());
    b[12] = (5u8) << 4; // data offset 5 words
    b[13] = h.flags;
    b[14..16].copy_from_slice(&h.window.to_be_bytes());
    b[16..18].copy_from_slice(&[0, 0]);
    b[18..20].copy_from_slice(&[0, 0]); // urgent pointer
    let mut c = pseudo_header_sum(src, dst, IPPROTO_TCP, len);
    c.add(b);
    c.add(tail);
    let ck = chain_checksum(c, payload);
    b[16..18].copy_from_slice(&ck.to_be_bytes());
}

/// Reads the fixed part of a TCP header.
fn read_tcp(b: &[u8; TCP_HLEN]) -> Option<TcpHeader> {
    let header_len = ((b[12] >> 4) as usize) * 4;
    if header_len < TCP_HLEN {
        return None;
    }
    Some(TcpHeader {
        src_port: u16::from_be_bytes([b[0], b[1]]),
        dst_port: u16::from_be_bytes([b[2], b[3]]),
        seq: u32::from_be_bytes([b[4], b[5], b[6], b[7]]),
        ack: u32::from_be_bytes([b[8], b[9], b[10], b[11]]),
        flags: b[13],
        window: u16::from_be_bytes([b[14], b[15]]),
        header_len,
    })
}

/// Prepends a TCP header (no options) with pseudo-header checksum over
/// `payload`.
pub fn push_tcp(
    buf: &mut MutIoBuf,
    src: Ipv4Addr,
    dst: Ipv4Addr,
    h: &TcpHeader,
    payload: &Chain<IoBuf>,
) {
    buf.prepend(TCP_HLEN);
    let (b, tail) = buf
        .bytes_mut()
        .split_first_chunk_mut()
        .expect("prepended TCP_HLEN");
    write_tcp(b, src, dst, h, tail, payload);
}

/// Parses a TCP header from a chain positioned after the IPv4 header.
pub fn parse_tcp(chain: &Chain<IoBuf>) -> Option<TcpHeader> {
    // The fixed header stops at the window; a segment cut short inside
    // the checksum or urgent pointer still parses (and then fails its
    // checksum).
    const FIXED: usize = 16;
    let mut b = [0u8; TCP_HLEN];
    b[..FIXED].copy_from_slice(&gather::<FIXED>(chain)?);
    read_tcp(&b)
}

/// Length of the three headers [`parse_tcp_frame`] and
/// [`push_tcp_frame`] handle at once.
pub const TCP_FRAME_HLEN: usize = ETH_HLEN + IPV4_HLEN + TCP_HLEN;

/// Splits a [`TCP_FRAME_HLEN`]-byte block into its three headers.
fn split_frame_headers(
    b: &[u8; TCP_FRAME_HLEN],
) -> (&[u8; ETH_HLEN], &[u8; IPV4_HLEN], &[u8; TCP_HLEN]) {
    let (eth, rest) = b.split_first_chunk().expect("sized");
    let (ip, tcp) = rest.split_first_chunk().expect("sized");
    (eth, ip, tcp.try_into().expect("sized"))
}

/// The receive fast path: parses all three headers of a well-formed
/// TCP-over-IPv4 frame from one look at its first segment.
///
/// Returns `None` for anything else — headers split across segments, a
/// different ethertype or protocol, IP options, a bad IP header
/// checksum, a bad TCP data offset — and the caller then parses header
/// by header ([`parse_eth`], [`parse_ipv4`], [`parse_tcp`]), which
/// accepts or rejects the frame exactly as it always did. The TCP
/// checksum is the caller's next step either way.
pub fn parse_tcp_frame(frame: &Chain<IoBuf>) -> Option<(EthHeader, Ipv4Header, TcpHeader)> {
    let (eth, ip, tcp) = split_frame_headers(frame.iter().next()?.bytes().first_chunk()?);
    let eth = read_eth(eth);
    if eth.ethertype != ETHERTYPE_IPV4 {
        return None;
    }
    let ip = read_ipv4(ip).filter(|ip| ip.proto == IPPROTO_TCP)?;
    Some((eth, ip, read_tcp(tcp)?))
}

/// The transmit fast path: prepends the TCP, IPv4 and Ethernet headers
/// of one segment with a single `prepend`, producing the bytes
/// [`push_tcp`], [`push_ipv4`] and [`push_eth`] would in turn
/// (`ip.total_len` is computed, as in [`push_ipv4`]).
pub fn push_tcp_frame(
    buf: &mut MutIoBuf,
    eth: &EthHeader,
    ip: &Ipv4Header,
    tcp: &TcpHeader,
    payload: &Chain<IoBuf>,
) {
    buf.prepend(TCP_FRAME_HLEN);
    let (hdrs, tail) = buf
        .bytes_mut()
        .split_first_chunk_mut::<TCP_FRAME_HLEN>()
        .expect("prepended TCP_FRAME_HLEN");
    let (eth_b, rest) = hdrs.split_first_chunk_mut().expect("sized");
    let (ip_b, tcp_b) = rest.split_first_chunk_mut().expect("sized");
    let tcp_b: &mut [u8; TCP_HLEN] = tcp_b.try_into().expect("sized");
    write_tcp(tcp_b, ip.src, ip.dst, tcp, tail, payload);
    write_ipv4(ip_b, ip, TCP_HLEN + tail.len() + payload.len());
    write_eth(eth_b, eth);
}

/// Verifies a TCP segment's checksum (header chain positioned after the
/// IPv4 header; `len` = TCP header + payload length).
pub fn verify_tcp_checksum(src: Ipv4Addr, dst: Ipv4Addr, chain: &Chain<IoBuf>, len: u16) -> bool {
    let c = pseudo_header_sum(src, dst, IPPROTO_TCP, len);
    chain_checksum(c, chain) == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn single(buf: MutIoBuf) -> Chain<IoBuf> {
        Chain::single(buf.freeze())
    }

    #[test]
    fn eth_roundtrip() {
        let h = EthHeader {
            dst: [1, 2, 3, 4, 5, 6],
            src: [7, 8, 9, 10, 11, 12],
            ethertype: ETHERTYPE_IPV4,
        };
        let mut buf = MutIoBuf::with_headroom(0, HEADROOM);
        push_eth(&mut buf, &h);
        let chain = single(buf);
        assert_eq!(parse_eth(&chain), Some(h));
    }

    #[test]
    fn arp_roundtrip() {
        let p = ArpPacket {
            oper: ARP_REQUEST,
            sha: [1; 6],
            spa: Ipv4Addr::new(10, 0, 0, 1),
            tha: [0; 6],
            tpa: Ipv4Addr::new(10, 0, 0, 2),
        };
        let chain = single(build_arp(&p));
        assert_eq!(parse_arp(&chain), Some(p));
    }

    #[test]
    fn ipv4_roundtrip_and_checksum() {
        let h = Ipv4Header {
            src: Ipv4Addr::new(10, 0, 0, 1),
            dst: Ipv4Addr::new(10, 0, 0, 2),
            proto: IPPROTO_TCP,
            total_len: 0, // filled by push
            id: 0x1234,
            ttl: 64,
        };
        let mut buf = MutIoBuf::with_headroom(0, HEADROOM);
        push_ipv4(&mut buf, &h, 100);
        let chain = single(buf);
        let parsed = parse_ipv4(&chain).expect("checksum must verify");
        assert_eq!(parsed.src, h.src);
        assert_eq!(parsed.dst, h.dst);
        assert_eq!(parsed.total_len as usize, IPV4_HLEN + 100);
        assert_eq!(parsed.id, 0x1234);
    }

    #[test]
    fn ipv4_corruption_detected() {
        let h = Ipv4Header {
            src: Ipv4Addr::new(1, 2, 3, 4),
            dst: Ipv4Addr::new(5, 6, 7, 8),
            proto: IPPROTO_UDP,
            total_len: 0,
            id: 1,
            ttl: 64,
        };
        let mut buf = MutIoBuf::with_headroom(0, HEADROOM);
        push_ipv4(&mut buf, &h, 0);
        let mut bytes = buf.bytes().to_vec();
        bytes[15] ^= 0xff; // corrupt source address
        let chain = Chain::single(IoBuf::copy_from(&bytes));
        assert_eq!(parse_ipv4(&chain), None);
    }

    #[test]
    fn tcp_roundtrip_checksum_verifies() {
        let payload = Chain::single(IoBuf::copy_from(b"hello tcp world"));
        let src = Ipv4Addr::new(10, 0, 0, 1);
        let dst = Ipv4Addr::new(10, 0, 0, 2);
        let h = TcpHeader {
            src_port: 5555,
            dst_port: 80,
            seq: 0xdead_beef,
            ack: 0x0102_0304,
            flags: tcp_flags::ACK | tcp_flags::PSH,
            window: 4096,
            header_len: TCP_HLEN,
        };
        let mut buf = MutIoBuf::with_headroom(0, HEADROOM);
        push_tcp(&mut buf, src, dst, &h, &payload);
        let mut chain = single(buf);
        let seg_len = (chain.len() + payload.len()) as u16;
        chain.append_chain(payload);
        assert!(verify_tcp_checksum(src, dst, &chain, seg_len));
        let parsed = parse_tcp(&chain).unwrap();
        assert_eq!(parsed.seq, h.seq);
        assert_eq!(parsed.ack, h.ack);
        assert_eq!(parsed.flags, h.flags);
        assert_eq!(parsed.window, h.window);
        // Corruption must fail verification.
        let mut bytes = chain.copy_to_vec();
        bytes[25] ^= 1;
        let c2 = Chain::single(IoBuf::copy_from(&bytes));
        assert!(!verify_tcp_checksum(src, dst, &c2, seg_len));
    }

    #[test]
    fn udp_roundtrip() {
        let payload = Chain::single(IoBuf::copy_from(b"dns-ish"));
        let mut buf = MutIoBuf::with_headroom(0, HEADROOM);
        push_udp(
            &mut buf,
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            68,
            67,
            &payload,
        );
        let chain = single(buf);
        let h = parse_udp(&chain).unwrap();
        assert_eq!(h.src_port, 68);
        assert_eq!(h.dst_port, 67);
        assert_eq!(h.len as usize, UDP_HLEN + 7);
    }

    /// A data segment's headers built both ways: `(one prepend, three)`.
    fn frames_both_ways(payload: &Chain<IoBuf>) -> (MutIoBuf, MutIoBuf) {
        let eth = EthHeader {
            dst: [2; 6],
            src: [1; 6],
            ethertype: ETHERTYPE_IPV4,
        };
        let ip = Ipv4Header {
            src: Ipv4Addr::new(10, 0, 0, 1),
            dst: Ipv4Addr::new(10, 0, 0, 2),
            proto: IPPROTO_TCP,
            total_len: 0,
            id: 0x4242,
            ttl: 64,
        };
        let tcp = TcpHeader {
            src_port: 40000,
            dst_port: 11211,
            seq: 0x0102_0304,
            ack: 0xa0b0_c0d0,
            flags: tcp_flags::ACK | tcp_flags::PSH,
            window: 0xfffe,
            header_len: TCP_HLEN,
        };
        let mut one = MutIoBuf::with_headroom(0, HEADROOM);
        push_tcp_frame(&mut one, &eth, &ip, &tcp, payload);
        let mut three = MutIoBuf::with_headroom(0, HEADROOM);
        push_tcp(&mut three, ip.src, ip.dst, &tcp, payload);
        push_ipv4(&mut three, &ip, TCP_HLEN + payload.len());
        push_eth(&mut three, &eth);
        (one, three)
    }

    #[test]
    fn one_prepend_writes_the_bytes_three_prepends_do() {
        for payload in [&b""[..], b"x", b"odd-length payload!"] {
            let payload = Chain::single(IoBuf::copy_from(payload));
            let (one, three) = frames_both_ways(&payload);
            assert_eq!(one.bytes(), three.bytes());
            assert_eq!(one.len(), TCP_FRAME_HLEN);
        }
    }

    #[test]
    fn one_look_parse_agrees_with_header_by_header() {
        let payload = Chain::single(IoBuf::copy_from(b"payload"));
        let (hdrs, _) = frames_both_ways(&payload);
        let mut frame = single(hdrs);
        frame.append_chain(payload);
        let (eth, ip, tcp) = parse_tcp_frame(&frame).expect("contiguous, well-formed");
        let mut rest = frame.clone();
        assert_eq!(Some(eth), parse_eth(&rest));
        rest.advance(ETH_HLEN);
        assert_eq!(Some(ip), parse_ipv4(&rest));
        rest.advance(IPV4_HLEN);
        assert_eq!(Some(tcp), parse_tcp(&rest));
        assert!(verify_tcp_checksum(
            ip.src,
            ip.dst,
            &rest,
            rest.len() as u16
        ));

        // Headers split across segments are left to the cursor path…
        let bytes = frame.copy_to_vec();
        for cut in [1, ETH_HLEN, ETH_HLEN + 7, TCP_FRAME_HLEN - 1] {
            let mut split = Chain::single(IoBuf::copy_from(&bytes[..cut]));
            split.push_back(IoBuf::copy_from(&bytes[cut..]));
            assert_eq!(parse_tcp_frame(&split), None);
            assert_eq!(parse_eth(&split), Some(eth), "…which still reads them");
        }
        // …as is anything the header-by-header parsers would reject or
        // route elsewhere.
        let corrupt = |at: usize, to: u8| {
            let mut b = bytes.clone();
            b[at] = to;
            parse_tcp_frame(&Chain::single(IoBuf::copy_from(&b)))
        };
        assert_eq!(corrupt(12, 0x86), None, "not IPv4");
        assert_eq!(corrupt(ETH_HLEN, 0x46), None, "IP options");
        assert_eq!(corrupt(ETH_HLEN + 8, 63), None, "IP checksum");
        assert_eq!(
            corrupt(ETH_HLEN + IPV4_HLEN + 12, 0x40),
            None,
            "data offset"
        );
    }

    #[test]
    fn headers_stack_without_payload_copy() {
        // Build eth/ip/tcp around a payload and confirm the payload
        // storage is shared, not copied.
        let payload_buf = IoBuf::copy_from(b"zero copy payload");
        let payload = Chain::single(payload_buf.clone());
        let src = Ipv4Addr::new(10, 0, 0, 1);
        let dst = Ipv4Addr::new(10, 0, 0, 2);
        let mut hdr = MutIoBuf::with_headroom(0, HEADROOM);
        push_tcp(
            &mut hdr,
            src,
            dst,
            &TcpHeader {
                src_port: 1,
                dst_port: 2,
                seq: 0,
                ack: 0,
                flags: tcp_flags::ACK,
                window: 100,
                header_len: TCP_HLEN,
            },
            &payload,
        );
        push_ipv4(
            &mut hdr,
            &Ipv4Header {
                src,
                dst,
                proto: IPPROTO_TCP,
                total_len: 0,
                id: 9,
                ttl: 64,
            },
            TCP_HLEN + payload.len(),
        );
        push_eth(
            &mut hdr,
            &EthHeader {
                dst: [2; 6],
                src: [1; 6],
                ethertype: ETHERTYPE_IPV4,
            },
        );
        let mut frame = Chain::single(hdr.freeze());
        frame.append_chain(payload);
        assert_eq!(frame.len(), ETH_HLEN + IPV4_HLEN + TCP_HLEN + 17);
        // Original payload IoBuf + the segment in the chain = 2 refs.
        assert_eq!(
            payload_buf.ref_count(),
            2,
            "payload must be shared, not copied"
        );
    }
}
