//! The adaptive-polling NIC driver in action (§3.2's worked example).
//!
//! Floods a server with UDP datagrams: under load the driver disables
//! the receive interrupt and installs an idle handler to poll; when the
//! burst ends it returns to interrupt-driven operation. The event-
//! manager statistics show both regimes.
//!
//! Run with: `cargo run --example adaptive_polling`

use std::rc::Rc;
use std::sync::atomic::Ordering;

use ebbrt_apps::spawn_with;
use ebbrt_core::cpu::CoreId;
use ebbrt_core::iobuf::{Chain, IoBuf};
use ebbrt_net::netif::NetIf;
use ebbrt_net::types::Ipv4Addr;
use ebbrt_net::Lan;
use ebbrt_sim::{CostProfile, SimMachine, SimWorld};

fn main() {
    let lan = Lan::new();
    let vm = CostProfile::ebbrt_vm;
    let w = &lan.world;
    let (server, s_if) = lan.machine("server", 1, vm(), [0xAA; 6], Ipv4Addr::new(10, 0, 0, 1));
    let (client, c_if) = lan.machine("client", 4, vm(), [0xBB; 6], Ipv4Addr::new(10, 0, 0, 2));
    w.run_to_idle();

    let received = Rc::new(std::cell::Cell::new(0u64));
    let r2 = Rc::clone(&received);
    s_if.udp_bind(7777, move |_src, _sport, _payload| {
        r2.set(r2.get() + 1);
    });

    let em_stats = |m: &Rc<SimMachine>| {
        let em = m.runtime().event_manager(CoreId(0));
        (
            em.stats.interrupts.load(Ordering::Relaxed),
            em.stats.idle.load(Ordering::Relaxed),
        )
    };

    // Schedules `count` datagrams, `gap` ns apart, each sent from an
    // event on the client's core.
    let send_burst = |w: &Rc<SimWorld>,
                      client: &Rc<SimMachine>,
                      c_if: &Rc<NetIf>,
                      at: u64,
                      count: usize,
                      gap: u64| {
        for i in 0..count {
            let c2 = Rc::clone(c_if);
            let cl = Rc::clone(client);
            // Spread the senders over the client's cores so the client
            // is never the bottleneck.
            let core = CoreId((i % 4) as u32);
            w.schedule_at(at + i as u64 * gap, move |_| {
                spawn_with(&cl, core, c2, |c_if| {
                    c_if.udp_send(
                        7777,
                        Ipv4Addr::new(10, 0, 0, 1),
                        7777,
                        Chain::single(IoBuf::copy_from(&[0u8; 64])),
                    );
                });
            });
        }
    };

    println!("phase 1: trickle (1 datagram / 100us) — interrupt per packet");
    send_burst(w, &client, &c_if, 0, 20, 100_000);
    w.run_for(3_000_000);
    let (irqs1, idle1) = em_stats(&server);
    println!(
        "  received={} interrupts={} idle-invocations={}",
        received.get(),
        irqs1,
        idle1
    );

    println!("phase 2: flood (2000 datagrams back-to-back) — driver switches to polling");
    send_burst(w, &client, &c_if, w.now(), 2000, 300);
    w.run_for(5_000_000);
    let (irqs2, idle2) = em_stats(&server);
    println!(
        "  received={} interrupts(+{}) idle-invocations(+{})",
        received.get(),
        irqs2 - irqs1,
        idle2 - idle1
    );

    println!("phase 3: trickle again — back to interrupts");
    send_burst(w, &client, &c_if, w.now(), 20, 100_000);
    w.run_for(10_000_000);
    let (irqs3, idle3) = em_stats(&server);
    println!(
        "  received={} interrupts(+{}) idle-invocations(+{})",
        received.get(),
        irqs3 - irqs2,
        idle3 - idle2
    );
    println!(
        "polling amortized {} packets over {} interrupts during the flood",
        2000,
        irqs2 - irqs1
    );
}
