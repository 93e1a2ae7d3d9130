//! One simulated LAN: a world, a switch, and machines that come with
//! their network stack attached.
//!
//! Every bench, test and example that needs "a few machines on a
//! switch" builds it here. A machine is created, plugged into the next
//! switch port and given its [`NetIf`] in one call, in that order, so a
//! machine's switch port always equals its index in the world
//! ([`SimMachine::index`]) — fault-injection harnesses address ports
//! through it.

use std::rc::Rc;

use ebbrt_net::nic::Mac;
use ebbrt_net::types::Ipv4Addr;
use ebbrt_net::NetIf;

use crate::{CostProfile, LinkParams, SimMachine, SimWorld, Switch};

/// A world with one switch. Keep it alive for as long as the machines
/// talk: NICs reach the switch through a weak reference.
pub struct Lan {
    /// The world driving every machine on the LAN.
    pub world: Rc<SimWorld>,
    /// The switch every machine is attached to, over default links.
    pub switch: Rc<Switch>,
    mask: Ipv4Addr,
}

impl Default for Lan {
    fn default() -> Self {
        Lan::new()
    }
}

impl Lan {
    /// An empty /24 LAN.
    pub fn new() -> Lan {
        Lan::with_mask(Ipv4Addr::new(255, 255, 255, 0))
    }

    /// An empty LAN whose interfaces use `mask` (a LAN of more than 254
    /// machines needs a wider one).
    pub fn with_mask(mask: Ipv4Addr) -> Lan {
        let world = SimWorld::new();
        let switch = Switch::new(&world);
        Lan {
            world,
            switch,
            mask,
        }
    }

    /// Adds a machine: creates it, attaches its NIC to the switch and
    /// its stack to the NIC. The caller keeps the returned [`NetIf`]
    /// alive (the machine's per-core reps hold it weakly). The stack's
    /// queues come up on the next `run_to_idle`.
    pub fn machine(
        &self,
        name: impl Into<String>,
        cores: usize,
        profile: CostProfile,
        mac: Mac,
        ip: Ipv4Addr,
    ) -> (Rc<SimMachine>, Rc<NetIf>) {
        let machine = SimMachine::create(&self.world, name, cores, profile, mac);
        let port = self.switch.attach(machine.nic(), LinkParams::default());
        debug_assert_eq!(port, machine.index(), "every machine joins through here");
        let netif = NetIf::attach(&machine, ip, self.mask);
        (machine, netif)
    }
}
