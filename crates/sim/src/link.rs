//! Links and the learning switch connecting machine NICs.
//!
//! Each attached port has its own uplink with bandwidth and latency
//! (defaults model the paper's directly-connected 10 GbE X520s).
//! Transmission serializes on the sender's uplink — back-to-back frames
//! queue behind each other — which is what caps NetPIPE goodput at wire
//! speed for large messages (Figure 4).

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet};
use std::rc::{Rc, Weak};

use ebbrt_core::clock::Ns;

use crate::costs::{LINK_LATENCY_NS, WIRE_FRAME_OVERHEAD_BYTES, WIRE_NS_PER_BYTE_X1000};
use crate::nic::{Frame, Mac, SimNic};
use crate::world::SimWorld;

/// Bandwidth/latency of one link.
#[derive(Clone, Copy, Debug)]
pub struct LinkParams {
    /// Serialization rate: picoseconds per byte (800 = 10 GbE).
    pub ns_per_byte_x1000: u64,
    /// One-way propagation + PHY latency.
    pub latency_ns: Ns,
}

impl Default for LinkParams {
    fn default() -> Self {
        LinkParams {
            ns_per_byte_x1000: WIRE_NS_PER_BYTE_X1000,
            latency_ns: LINK_LATENCY_NS,
        }
    }
}

impl LinkParams {
    /// Wire occupancy of a frame of `bytes`.
    pub fn serialize_ns(&self, bytes: usize) -> Ns {
        ((bytes as u64 + WIRE_FRAME_OVERHEAD_BYTES) * self.ns_per_byte_x1000) / 1000
    }
}

struct Port {
    nic: Rc<SimNic>,
    link: LinkParams,
    /// When the port's uplink finishes its current transmission.
    tx_free_at: Cell<Ns>,
    /// The source MAC of the last frame this port sent, once `fdb`
    /// maps it here: `learned == Some(m)` implies `fdb[m]` is this
    /// port, so a port that keeps sending from one address (every NIC)
    /// skips the table after its first frame.
    learned: Cell<Option<Mac>>,
    faults: RefCell<Faults>,
}

/// A port's fault plan (fault injection for tests and the chaos
/// harness). Every copy of a frame, unicast or flooded, passes
/// [`Switch::carries`] against its source's and destination's plans.
#[derive(Default)]
struct Faults {
    /// Cut off entirely: nothing in, nothing out.
    isolated: bool,
    /// Source ports whose frames this port does not receive.
    refused: HashSet<usize>,
    /// Drops every frame bound here for which it returns `true`.
    filter: Option<DropFilter>,
}

/// A loss-injection predicate: `true` drops the frame.
type DropFilter = Box<dyn Fn(&Frame) -> bool>;

/// A learning Ethernet switch.
pub struct Switch {
    world: Weak<SimWorld>,
    ports: RefCell<Vec<Port>>,
    fdb: RefCell<HashMap<Mac, usize>>,
    forwarded: Cell<u64>,
    flooded: Cell<u64>,
    /// Frame copies dropped by a fault plan.
    faulted: Cell<u64>,
}

impl Switch {
    /// Creates a switch in `world`.
    pub fn new(world: &Rc<SimWorld>) -> Rc<Self> {
        Rc::new(Switch {
            world: Rc::downgrade(world),
            ports: RefCell::new(Vec::new()),
            fdb: RefCell::new(HashMap::new()),
            forwarded: Cell::new(0),
            flooded: Cell::new(0),
            faulted: Cell::new(0),
        })
    }

    /// Attaches a NIC with the given link parameters; returns its port
    /// number. The NIC's transmit path is wired to this switch.
    pub fn attach(self: &Rc<Self>, nic: &Rc<SimNic>, link: LinkParams) -> usize {
        let mut ports = self.ports.borrow_mut();
        let port = ports.len();
        ports.push(Port {
            nic: Rc::clone(nic),
            link,
            tx_free_at: Cell::new(0),
            learned: Cell::new(None),
            faults: RefCell::default(),
        });
        drop(ports);
        // Pre-learn the NIC's own MAC so first frames need no flood.
        self.learn(nic.mac, port);
        let sw = Rc::downgrade(self);
        nic.install_tx_handler(Box::new(move |frame| {
            if let Some(sw) = sw.upgrade() {
                sw.forward(port, frame);
            }
        }));
        port
    }

    /// (forwarded, flooded) frame counts.
    pub fn stats(&self) -> (u64, u64) {
        (self.forwarded.get(), self.flooded.get())
    }

    /// Frame copies dropped by fault injection (isolation, one-way
    /// blocks, drop filters).
    pub fn faulted(&self) -> u64 {
        self.faulted.get()
    }

    fn plan(&self, port: usize, edit: impl FnOnce(&mut Faults)) {
        edit(&mut self.ports.borrow()[port].faults.borrow_mut());
    }

    /// Installs a loss-injection filter on `port`: frames destined to it
    /// (flooded copies included) for which `f` returns `true` are
    /// silently dropped.
    pub fn set_drop_filter(&self, port: usize, f: impl Fn(&Frame) -> bool + 'static) {
        self.plan(port, |p| p.filter = Some(Box::new(f)));
    }

    /// Removes `port`'s loss-injection filter.
    pub fn clear_drop_filter(&self, port: usize) {
        self.plan(port, |p| p.filter = None);
    }

    /// One-way loss: frames from `from` to `to` are dropped; the
    /// reverse direction still flows (asymmetric-partition tests).
    pub fn block_one_way(&self, from: usize, to: usize) {
        self.plan(to, |p| {
            p.refused.insert(from);
        });
    }

    /// Undoes [`Switch::block_one_way`] for the directed pair.
    pub fn heal_one_way(&self, from: usize, to: usize) {
        self.plan(to, |p| {
            p.refused.remove(&from);
        });
    }

    /// Cuts `port` off completely — nothing in, nothing out, floods
    /// included. The chaos harness models a machine crash this way:
    /// the NIC and its runtime survive, the network just stops.
    pub fn isolate(&self, port: usize) {
        self.plan(port, |p| p.isolated = true);
    }

    /// Reconnects an isolated port (the "restart": state intact,
    /// traffic resumes).
    pub fn restore(&self, port: usize) {
        self.plan(port, |p| p.isolated = false);
    }

    /// Installs a seeded probabilistic drop filter on `port`:
    /// each arriving frame is dropped with probability
    /// `rate_ppm / 1_000_000`, deterministically from `seed` (xorshift).
    /// Layered on [`Switch::set_drop_filter`], so it replaces any
    /// existing filter; clear with [`Switch::clear_drop_filter`].
    pub fn set_loss_rate(&self, port: usize, rate_ppm: u32, seed: u64) {
        assert!(rate_ppm <= 1_000_000, "rate is parts-per-million");
        let state = Cell::new(if seed == 0 {
            0x9e37_79b9_7f4a_7c15
        } else {
            seed
        });
        self.set_drop_filter(port, move |_| {
            let mut x = state.get();
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            state.set(x);
            (x % 1_000_000) < rate_ppm as u64
        });
    }

    /// Whether the fault plans let a copy of `frame` go `from → to`.
    /// The destination's filter sees only copies no other fault took.
    fn carries(&self, from: usize, to: usize, frame: &Frame) -> bool {
        let ports = self.ports.borrow();
        let dst = ports[to].faults.borrow();
        !(ports[from].faults.borrow().isolated
            || dst.isolated
            || dst.refused.contains(&from)
            || dst.filter.as_ref().is_some_and(|f| f(frame)))
    }

    /// Records that `mac` is reached through `port`. The table is
    /// written only when the mapping changes; any other port that had
    /// learned `mac` forgets it, which keeps `Port::learned` true to
    /// the table when an address moves.
    fn learn(&self, mac: Mac, port: usize) {
        let ports = self.ports.borrow();
        if ports[port].learned.get() == Some(mac) {
            return;
        }
        for p in ports.iter().filter(|p| p.learned.get() == Some(mac)) {
            p.learned.set(None);
        }
        ports[port].learned.set(Some(mac));
        self.fdb.borrow_mut().insert(mac, port);
    }

    /// A frame's arrival at `port` (its `Deliver` queue entry came due).
    pub(crate) fn deliver(&self, port: usize, frame: Frame) {
        self.ports.borrow()[port].nic.deliver(frame);
    }

    fn forward(self: &Rc<Self>, from: usize, frame: Frame) {
        let world = match self.world.upgrade() {
            Some(w) => w,
            None => return,
        };
        if let Some(src) = frame.src_mac() {
            self.learn(src, from);
        }
        // The frame leaves the guest only after the CPU work performed
        // so far in the current event (service time delays outputs).
        let ready = world.now() + ebbrt_core::clock::charged_so_far();
        // Serialize on the sender's uplink.
        let ports = self.ports.borrow();
        let sender = &ports[from];
        let start = ready.max(sender.tx_free_at.get());
        let depart = start + sender.link.serialize_ns(frame.len());
        sender.tx_free_at.set(depart);
        let latency = sender.link.latency_ns;
        drop(ports);

        let dst = frame.dst_mac().and_then(|d| {
            if d == [0xff; 6] {
                None
            } else {
                self.fdb.borrow().get(&d).copied()
            }
        });
        // A known address gets the frame itself (none if it is the
        // sender's own); an unknown or broadcast one floods a copy to
        // every other port, in port order (chain clones share storage:
        // descriptors, not bytes). Every copy passes the fault plans.
        let targets = match dst {
            Some(port) => port..port + 1,
            None => {
                self.flooded.set(self.flooded.get() + 1);
                0..self.ports.borrow().len()
            }
        };
        for to in targets.filter(|&to| to != from) {
            if !self.carries(from, to, &frame) {
                self.faulted.set(self.faulted.get() + 1);
            } else if dst.is_none() {
                let copy = Frame::new(frame.data.clone());
                world.schedule_delivery(depart + latency, self, to, copy);
            } else {
                self.forwarded.set(self.forwarded.get() + 1);
                world.schedule_delivery(depart + latency, self, to, frame);
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebbrt_core::iobuf::{Chain, IoBuf, MutIoBuf};

    fn frame(dst: Mac, src: Mac, len: usize) -> Frame {
        let mut b = MutIoBuf::with_capacity(14 + len);
        b.append(6).copy_from_slice(&dst);
        b.append(6).copy_from_slice(&src);
        b.append(2).copy_from_slice(&0x0800u16.to_be_bytes());
        b.append(len);
        Frame::new(Chain::<IoBuf>::single(b.freeze()))
    }

    #[test]
    fn frames_arrive_after_wire_delay() {
        let w = SimWorld::new();
        let sw = Switch::new(&w);
        let a = SimNic::new([1; 6], 1);
        let b = SimNic::new([2; 6], 1);
        sw.attach(&a, LinkParams::default());
        sw.attach(&b, LinkParams::default());

        a.transmit(frame([2; 6], [1; 6], 50)); // 64 B on wire
        assert_eq!(b.rx_len(0), 0, "not yet delivered");
        w.run_to_idle();
        assert_eq!(b.rx_len(0), 1);
        // 64+24 bytes at 0.8 ns/B = 70 ns + 600 ns latency.
        assert_eq!(w.now(), 70 + 600);
    }

    #[test]
    fn back_to_back_frames_serialize() {
        let w = SimWorld::new();
        let sw = Switch::new(&w);
        let a = SimNic::new([1; 6], 1);
        let b = SimNic::new([2; 6], 1);
        sw.attach(&a, LinkParams::default());
        sw.attach(&b, LinkParams::default());

        let wire_each = LinkParams::default().serialize_ns(1500 + 14);
        a.transmit(frame([2; 6], [1; 6], 1500));
        a.transmit(frame([2; 6], [1; 6], 1500));
        w.run_to_idle();
        assert_eq!(b.rx_len(0), 2);
        // Second frame queued behind the first on the uplink.
        assert_eq!(w.now(), 2 * wire_each + 600);
    }

    #[test]
    fn learning_avoids_flood_after_first_frame() {
        let w = SimWorld::new();
        let sw = Switch::new(&w);
        let nics: Vec<_> = (0..3u8).map(|i| SimNic::new([i + 1; 6], 1)).collect();
        for n in &nics {
            sw.attach(n, LinkParams::default());
        }
        // Macs are pre-learned at attach; direct forward expected.
        nics[0].transmit(frame([3; 6], [1; 6], 100));
        w.run_to_idle();
        assert_eq!(nics[2].rx_len(0), 1);
        assert_eq!(nics[1].rx_len(0), 0);
        assert_eq!(sw.stats(), (1, 0));
    }

    #[test]
    fn an_address_that_moves_ports_is_relearned_each_time() {
        let w = SimWorld::new();
        let sw = Switch::new(&w);
        let nics: Vec<_> = (0..3u8).map(|i| SimNic::new([i + 1; 6], 1)).collect();
        for n in &nics {
            sw.attach(n, LinkParams::default());
        }
        const ROAMER: Mac = [9; 6];
        // The roamer shows up behind port 1, then port 2, then port 1
        // again (whose `learned` entry was its own address meanwhile);
        // port 0's frames to it must follow every move.
        for (round, &port) in [1usize, 2, 1].iter().enumerate() {
            nics[port].transmit(frame([1; 6], ROAMER, 40));
            w.run_to_idle();
            nics[0].transmit(frame(ROAMER, [1; 6], 40));
            w.run_to_idle();
            let got = [nics[1].rx_len(0), nics[2].rx_len(0)];
            let mut want = [0, 0];
            for &p in &[1usize, 2, 1][..=round] {
                want[p - 1] += 1;
            }
            assert_eq!(got, want, "round {round}");
            assert_eq!(sw.stats().1, 0, "never flooded");
        }
        // Its own address still reaches port 1 after the roamer left.
        nics[2].transmit(frame([1; 6], ROAMER, 40));
        nics[0].transmit(frame([2; 6], [1; 6], 40));
        w.run_to_idle();
        assert_eq!(nics[1].rx_len(0), 3);
    }

    #[test]
    fn partition_blocks_both_directions_and_heals() {
        let w = SimWorld::new();
        let sw = Switch::new(&w);
        let a = SimNic::new([1; 6], 1);
        let b = SimNic::new([2; 6], 1);
        sw.attach(&a, LinkParams::default());
        sw.attach(&b, LinkParams::default());

        // A partition is a one-way block in each direction.
        sw.block_one_way(0, 1);
        sw.block_one_way(1, 0);
        a.transmit(frame([2; 6], [1; 6], 50));
        b.transmit(frame([1; 6], [2; 6], 50));
        w.run_to_idle();
        assert_eq!(a.rx_len(0), 0);
        assert_eq!(b.rx_len(0), 0);
        assert_eq!(sw.faulted(), 2);

        sw.heal_one_way(0, 1);
        sw.heal_one_way(1, 0);
        a.transmit(frame([2; 6], [1; 6], 50));
        b.transmit(frame([1; 6], [2; 6], 50));
        w.run_to_idle();
        assert_eq!(a.rx_len(0), 1);
        assert_eq!(b.rx_len(0), 1);
    }

    #[test]
    fn one_way_loss_keeps_reverse_path() {
        let w = SimWorld::new();
        let sw = Switch::new(&w);
        let a = SimNic::new([1; 6], 1);
        let b = SimNic::new([2; 6], 1);
        sw.attach(&a, LinkParams::default());
        sw.attach(&b, LinkParams::default());

        sw.block_one_way(0, 1);
        a.transmit(frame([2; 6], [1; 6], 50));
        b.transmit(frame([1; 6], [2; 6], 50));
        w.run_to_idle();
        assert_eq!(b.rx_len(0), 0, "a → b is cut");
        assert_eq!(a.rx_len(0), 1, "b → a still flows");

        sw.heal_one_way(0, 1);
        a.transmit(frame([2; 6], [1; 6], 50));
        w.run_to_idle();
        assert_eq!(b.rx_len(0), 1);
    }

    #[test]
    fn isolation_cuts_floods_too_and_restore_reconnects() {
        let w = SimWorld::new();
        let sw = Switch::new(&w);
        let nics: Vec<_> = (0..3u8).map(|i| SimNic::new([i + 1; 6], 1)).collect();
        for n in &nics {
            sw.attach(n, LinkParams::default());
        }
        sw.isolate(2);
        // Broadcast from 0: flood reaches 1 but not the isolated 2.
        nics[0].transmit(frame([0xff; 6], [1; 6], 60));
        // Direct frames to and from the isolated port vanish.
        nics[1].transmit(frame([3; 6], [2; 6], 60));
        nics[2].transmit(frame([1; 6], [3; 6], 60));
        w.run_to_idle();
        assert_eq!(nics[1].rx_len(0), 1);
        assert_eq!(nics[2].rx_len(0), 0);
        assert_eq!(nics[0].rx_len(0), 0);

        sw.restore(2);
        nics[1].transmit(frame([3; 6], [2; 6], 60));
        w.run_to_idle();
        assert_eq!(nics[2].rx_len(0), 1);
    }

    #[test]
    fn seeded_loss_rate_is_deterministic_and_proportional() {
        fn run(seed: u64) -> usize {
            let w = SimWorld::new();
            let sw = Switch::new(&w);
            let a = SimNic::new([1; 6], 1);
            let b = SimNic::new([2; 6], 1);
            sw.attach(&a, LinkParams::default());
            sw.attach(&b, LinkParams::default());
            sw.set_loss_rate(1, 250_000, seed); // 25 %
            for _ in 0..400 {
                a.transmit(frame([2; 6], [1; 6], 50));
            }
            w.run_to_idle();
            b.rx_len(0)
        }
        let delivered = run(42);
        assert_eq!(delivered, run(42), "same seed, same drops");
        // ~75 % of 400 should arrive; allow generous slack.
        assert!(
            (240..=360).contains(&delivered),
            "25 % loss delivered {delivered}/400"
        );
        assert_ne!(delivered, run(43), "different seed, different pattern");
    }

    #[test]
    fn a_drop_filter_sees_flooded_copies() {
        let w = SimWorld::new();
        let sw = Switch::new(&w);
        let nics: Vec<_> = (0..3u8).map(|i| SimNic::new([i + 1; 6], 1)).collect();
        for n in &nics {
            sw.attach(n, LinkParams::default());
        }
        sw.set_drop_filter(2, |_| true);
        nics[0].transmit(frame([0xff; 6], [1; 6], 60));
        w.run_to_idle();
        assert_eq!(nics[1].rx_len(0), 1);
        assert_eq!(nics[2].rx_len(0), 0, "port 2's filter drops its copy");
        assert_eq!(sw.faulted(), 1);
    }

    #[test]
    fn broadcast_floods_all_but_sender() {
        let w = SimWorld::new();
        let sw = Switch::new(&w);
        let nics: Vec<_> = (0..3u8).map(|i| SimNic::new([i + 1; 6], 1)).collect();
        for n in &nics {
            sw.attach(n, LinkParams::default());
        }
        nics[0].transmit(frame([0xff; 6], [1; 6], 60));
        w.run_to_idle();
        assert_eq!(nics[0].rx_len(0), 0);
        assert_eq!(nics[1].rx_len(0), 1);
        assert_eq!(nics[2].rx_len(0), 1);
        assert_eq!(sw.stats(), (0, 1));
    }
}
