//! DHCP: address configuration for native instances (§3.6 lists DHCP
//! among the stack's protocols).
//!
//! Implements the classic DISCOVER → OFFER → REQUEST → ACK exchange
//! over UDP 67/68 with the BOOTP wire layout (op/htype/hlen/xid/yiaddr/
//! chaddr/magic + option 53). [`DhcpServer`] runs on an infrastructure
//! machine (typically the hosted one) with a simple address pool;
//! [`configure`] drives the client side of an unconfigured [`NetIf`].

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use ebbrt_core::iobuf::{Chain, IoBuf, MutIoBuf};

use crate::netif::NetIf;
use crate::types::{Ipv4Addr, Mac};

/// DHCP server UDP port.
pub const SERVER_PORT: u16 = 67;
/// DHCP client UDP port.
pub const CLIENT_PORT: u16 = 68;

const MAGIC: u32 = 0x6382_5363;

const OP_REQUEST: u8 = 1;
const OP_REPLY: u8 = 2;

/// DHCP message types (option 53).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MsgType {
    /// Client broadcast looking for servers.
    Discover = 1,
    /// Server offer.
    Offer = 2,
    /// Client requesting the offered address.
    Request = 3,
    /// Server acknowledgment.
    Ack = 5,
}

impl MsgType {
    fn from_u8(v: u8) -> Option<MsgType> {
        Some(match v {
            1 => MsgType::Discover,
            2 => MsgType::Offer,
            3 => MsgType::Request,
            5 => MsgType::Ack,
            _ => return None,
        })
    }
}

/// A parsed DHCP message (the fields this implementation uses).
#[derive(Clone, Copy, Debug)]
pub struct DhcpMessage {
    /// BOOTP op.
    pub op: u8,
    /// Transaction id.
    pub xid: u32,
    /// "Your" address (server-assigned).
    pub yiaddr: Ipv4Addr,
    /// Client hardware address.
    pub chaddr: Mac,
    /// Message type (option 53).
    pub mtype: MsgType,
    /// Requested address (option 50), if present.
    pub requested: Option<Ipv4Addr>,
    /// Subnet mask (option 1), if present.
    pub mask: Option<Ipv4Addr>,
}

/// Serializes a DHCP message (236-byte BOOTP header + magic + options).
pub fn build(msg: &DhcpMessage) -> Chain<IoBuf> {
    let mut body = vec![0u8; 236];
    body[0] = msg.op;
    body[1] = 1; // htype: ethernet
    body[2] = 6; // hlen
    body[4..8].copy_from_slice(&msg.xid.to_be_bytes());
    body[16..20].copy_from_slice(&msg.yiaddr.0);
    body[28..34].copy_from_slice(&msg.chaddr);
    body.extend_from_slice(&MAGIC.to_be_bytes());
    // Option 53: message type.
    body.extend_from_slice(&[53, 1, msg.mtype as u8]);
    if let Some(req) = msg.requested {
        body.extend_from_slice(&[50, 4]);
        body.extend_from_slice(&req.0);
    }
    if let Some(mask) = msg.mask {
        body.extend_from_slice(&[1, 4]);
        body.extend_from_slice(&mask.0);
    }
    body.push(255); // end option
    Chain::single(MutIoBuf::from_vec(body).freeze())
}

/// Parses a DHCP message. Of the options, only the three it keeps are
/// read, each into a fixed-size value; the others are skipped,
/// whatever length they claim.
pub fn parse(chain: &Chain<IoBuf>) -> Option<DhcpMessage> {
    let mut cur = chain.cursor();
    let mut hdr = [0u8; 236];
    cur.read_exact(&mut hdr)?;
    if cur.read_u32_be()? != MAGIC {
        return None;
    }
    let mut mtype = None;
    let mut requested = None;
    let mut mask = None;
    loop {
        let code = cur.read_u8()?;
        match code {
            255 => break,
            0 => continue, // pad
            _ => {
                let len = cur.read_u8()? as usize;
                match (code, len) {
                    (53, 1) => mtype = MsgType::from_u8(cur.read_u8()?),
                    (50, 4) => requested = Some(Ipv4Addr::from_u32(cur.read_u32_be()?)),
                    (1, 4) => mask = Some(Ipv4Addr::from_u32(cur.read_u32_be()?)),
                    _ => cur.skip(len)?,
                }
            }
        }
    }
    Some(DhcpMessage {
        op: hdr[0],
        xid: u32::from_be_bytes([hdr[4], hdr[5], hdr[6], hdr[7]]),
        yiaddr: Ipv4Addr([hdr[16], hdr[17], hdr[18], hdr[19]]),
        chaddr: [hdr[28], hdr[29], hdr[30], hdr[31], hdr[32], hdr[33]],
        mtype: mtype?,
        requested,
        mask,
    })
}

/// A DHCP server with a sequential address pool.
pub struct DhcpServer {
    netif: Rc<NetIf>,
    pool_base: Ipv4Addr,
    mask: Ipv4Addr,
    next: Cell<u32>,
    leases: RefCell<HashMap<Mac, Ipv4Addr>>,
}

impl DhcpServer {
    /// Starts serving on `netif`, leasing addresses from
    /// `pool_base` upward with `mask`.
    pub fn start(netif: &Rc<NetIf>, pool_base: Ipv4Addr, mask: Ipv4Addr) -> Rc<DhcpServer> {
        let server = Rc::new(DhcpServer {
            netif: Rc::clone(netif),
            pool_base,
            mask,
            next: Cell::new(0),
            leases: RefCell::new(HashMap::new()),
        });
        let s = Rc::clone(&server);
        netif.udp_bind(SERVER_PORT, move |_src, _sport, payload| {
            s.handle(&payload);
        });
        server
    }

    fn lease_for(&self, mac: Mac) -> Ipv4Addr {
        if let Some(ip) = self.leases.borrow().get(&mac) {
            return *ip;
        }
        let n = self.next.get();
        self.next.set(n + 1);
        let ip = Ipv4Addr::from_u32(self.pool_base.to_u32() + n);
        self.leases.borrow_mut().insert(mac, ip);
        ip
    }

    fn handle(&self, payload: &Chain<IoBuf>) {
        let msg = match parse(payload) {
            Some(m) if m.op == OP_REQUEST => m,
            _ => return,
        };
        let reply_type = match msg.mtype {
            MsgType::Discover => MsgType::Offer,
            MsgType::Request => MsgType::Ack,
            _ => return,
        };
        let ip = self.lease_for(msg.chaddr);
        let reply = DhcpMessage {
            op: OP_REPLY,
            xid: msg.xid,
            yiaddr: ip,
            chaddr: msg.chaddr,
            mtype: reply_type,
            requested: None,
            mask: Some(self.mask),
        };
        // Clients don't have an address yet: reply via broadcast.
        self.netif
            .udp_send(SERVER_PORT, Ipv4Addr::BROADCAST, CLIENT_PORT, build(&reply));
    }
}

/// Retransmission interval for lost DISCOVER/REQUEST messages
/// (doubled per attempt).
pub const RETRY_NS: u64 = 200_000_000;

/// Attempts before the client gives up: its last retry timer sets no
/// other, the interface stays unconfigured, and `done` is invoked with
/// `Err(`[`DhcpTimeout`]`)`.
pub const MAX_TRIES: u32 = 5;

/// Terminal failure of the DHCP exchange: the attempt budget ran out
/// without completing DISCOVER → ACK.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DhcpTimeout;

/// Outcome delivered to [`configure`]'s `done` callback: the assigned
/// address and mask, or the terminal failure.
pub type DhcpResult = Result<(Ipv4Addr, Ipv4Addr), DhcpTimeout>;

/// Client state machine phase.
#[derive(Clone, Copy)]
enum Phase {
    /// DISCOVER sent, awaiting an OFFER.
    Discover,
    /// REQUEST for the offered address sent, awaiting the ACK.
    Requesting(Ipv4Addr),
    /// Configured (or given up); the retry timer sets no other.
    Done,
}

type DoneFn = Box<dyn FnOnce(DhcpResult)>;

/// One client exchange: what the reply handler and the retry timer
/// share.
struct Client {
    netif: Rc<NetIf>,
    xid: u32,
    mac: Mac,
    phase: Cell<Phase>,
    tries: Cell<u32>,
    /// Taken by whichever ends the exchange: the ACK or the last retry.
    done: Cell<Option<DoneFn>>,
}

/// Runs the client exchange on an unconfigured interface; `done` is
/// invoked with `Ok((address, mask))` once the ACK arrives, or with
/// `Err(`[`DhcpTimeout`]`)` when the attempt budget runs out — the
/// caller always learns the exchange's outcome. Lost messages are
/// retransmitted with exponential backoff, one one-shot timer per
/// attempt, up to [`MAX_TRIES`] attempts.
pub fn configure(netif: &Rc<NetIf>, done: impl FnOnce(DhcpResult) + 'static) {
    let client = Rc::new(Client {
        netif: Rc::clone(netif),
        xid: 0x4242_0000 | (netif.mac()[5] as u32),
        mac: netif.mac(),
        phase: Cell::new(Phase::Discover),
        tries: Cell::new(1),
        done: Cell::new(Some(Box::new(done))),
    });
    let c = Rc::clone(&client);
    netif.udp_bind(CLIENT_PORT, move |_src, _sport, payload| {
        c.on_reply(&payload)
    });
    client.send();
    client.arm_retry(RETRY_NS);
}

impl Client {
    fn on_reply(&self, payload: &Chain<IoBuf>) {
        let msg = match parse(payload) {
            Some(m) if m.op == OP_REPLY && m.xid == self.xid && m.chaddr == self.mac => m,
            _ => return,
        };
        match msg.mtype {
            MsgType::Offer => {
                // Request the offered address.
                self.phase.set(Phase::Requesting(msg.yiaddr));
                self.send();
            }
            MsgType::Ack => {
                let mask = msg.mask.unwrap_or(Ipv4Addr::new(255, 255, 255, 0));
                self.netif.set_ip(msg.yiaddr, mask);
                self.phase.set(Phase::Done);
                if let Some(done) = self.done.take() {
                    done(Ok((msg.yiaddr, mask)));
                }
            }
            _ => {}
        }
    }

    /// Broadcasts the current phase's message.
    fn send(&self) {
        let msg = match self.phase.get() {
            Phase::Discover => discover_for(self.xid, self.mac),
            Phase::Requesting(addr) => request_for(self.xid, self.mac, addr),
            Phase::Done => return,
        };
        self.netif
            .udp_send(CLIENT_PORT, Ipv4Addr::BROADCAST, SERVER_PORT, build(&msg));
    }

    /// Sets the one-shot timer that re-sends the current phase's
    /// message `delay` from now.
    fn arm_retry(self: &Rc<Self>, delay: u64) {
        let me = Rc::clone(self);
        ebbrt_core::runtime::with_current(|rt| {
            rt.local_event_manager()
                .set_timer(delay, move || me.retry())
        });
    }

    /// The retry timer fired: nothing to do once the exchange is over;
    /// out of attempts, give up — and say so, instead of leaving the
    /// caller waiting on a callback that never comes; otherwise re-send
    /// and set the next timer.
    fn retry(self: &Rc<Self>) {
        match self.phase.get() {
            Phase::Done => return,
            _ if self.tries.get() >= MAX_TRIES => {
                self.phase.set(Phase::Done);
                if let Some(done) = self.done.take() {
                    done(Err(DhcpTimeout));
                }
                return;
            }
            _ => {}
        }
        let tries = self.tries.get() + 1;
        self.tries.set(tries);
        self.send();
        // Doubled per attempt (tries was just incremented), capped.
        self.arm_retry(RETRY_NS << (tries - 1).min(5));
    }
}

fn discover_for(xid: u32, mac: Mac) -> DhcpMessage {
    DhcpMessage {
        op: OP_REQUEST,
        xid,
        yiaddr: Ipv4Addr::UNSPECIFIED,
        chaddr: mac,
        mtype: MsgType::Discover,
        requested: None,
        mask: None,
    }
}

fn request_for(xid: u32, mac: Mac, addr: Ipv4Addr) -> DhcpMessage {
    DhcpMessage {
        op: OP_REQUEST,
        xid,
        yiaddr: Ipv4Addr::UNSPECIFIED,
        chaddr: mac,
        mtype: MsgType::Request,
        requested: Some(addr),
        mask: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn message_roundtrip() {
        let m = DhcpMessage {
            op: OP_REQUEST,
            xid: 0xdeadbeef,
            yiaddr: Ipv4Addr::new(10, 0, 0, 9),
            chaddr: [1, 2, 3, 4, 5, 6],
            mtype: MsgType::Request,
            requested: Some(Ipv4Addr::new(10, 0, 0, 9)),
            mask: Some(Ipv4Addr::new(255, 255, 0, 0)),
        };
        let parsed = parse(&build(&m)).unwrap();
        assert_eq!(parsed.op, m.op);
        assert_eq!(parsed.xid, m.xid);
        assert_eq!(parsed.yiaddr, m.yiaddr);
        assert_eq!(parsed.chaddr, m.chaddr);
        assert_eq!(parsed.mtype, m.mtype);
        assert_eq!(parsed.requested, m.requested);
        assert_eq!(parsed.mask, m.mask);
    }

    #[test]
    fn truncated_message_rejected() {
        let m = DhcpMessage {
            op: OP_REQUEST,
            xid: 1,
            yiaddr: Ipv4Addr::UNSPECIFIED,
            chaddr: [0; 6],
            mtype: MsgType::Discover,
            requested: None,
            mask: None,
        };
        let bytes = build(&m).copy_to_vec();
        let short = Chain::single(IoBuf::copy_from(&bytes[..100]));
        assert!(parse(&short).is_none());
    }

    proptest! {
        /// Random bytes after a valid BOOTP header and magic, cut into
        /// segments anywhere, never panic the parser; neither do the
        /// same bytes with no header in front. Parsing reads only the
        /// options it keeps, into fixed arrays, so an option's length
        /// from the wire sizes no copy.
        #[test]
        fn parse_survives_random_options(
            options in prop::collection::vec(any::<u8>(), 0..300),
            raw_cuts in prop::collection::vec(any::<u32>(), 0..5),
        ) {
            let mut bytes = vec![0u8; 236];
            bytes.extend_from_slice(&MAGIC.to_be_bytes());
            bytes.extend_from_slice(&options);
            let _ = parse(&crate::wire::tests::split(&options, &raw_cuts));
            let chain = crate::wire::tests::split(&bytes, &raw_cuts);
            let copied = || ebbrt_core::iobuf::stats::snapshot().bytes_copied;
            let before = copied();
            let _ = parse(&chain);
            prop_assert_eq!(copied(), before, "bytes copied by parse");
        }
    }
}
