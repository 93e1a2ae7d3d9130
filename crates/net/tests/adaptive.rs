//! Driver-level tests of the adaptive interrupt/polling behaviour
//! (§3.2's worked example) under controlled load.

use std::cell::Cell;
use std::rc::Rc;
use std::sync::atomic::Ordering;

use ebbrt_core::cpu::CoreId;
use ebbrt_core::iobuf::{Chain, IoBuf};
use ebbrt_net::netif::NetIf;
use ebbrt_net::types::Ipv4Addr;
use ebbrt_net::Lan;
use ebbrt_sim::{CostProfile, SimMachine, SimWorld, Switch};

struct World {
    w: Rc<SimWorld>,
    _sw: Rc<Switch>,
    server: Rc<SimMachine>,
    client: Rc<SimMachine>,
    s_if: Rc<NetIf>,
    c_if: Rc<NetIf>,
}

fn setup() -> World {
    let lan = Lan::new();
    let vm = CostProfile::ebbrt_vm;
    let (server, s_if) = lan.machine("srv", 1, vm(), [0xAA; 6], Ipv4Addr::new(10, 0, 3, 1));
    let (client, c_if) = lan.machine("cli", 4, vm(), [0xBB; 6], Ipv4Addr::new(10, 0, 3, 2));
    let (w, sw) = (lan.world, lan.switch);
    w.run_to_idle();
    World {
        w,
        _sw: sw,
        server,
        client,
        s_if,
        c_if,
    }
}

fn flood(world: &World, count: usize, gap_ns: u64, start: u64) {
    for i in 0..count {
        let c_if = Rc::clone(&world.c_if);
        let cl = Rc::clone(&world.client);
        let core = CoreId((i % 4) as u32);
        world.w.schedule_at(start + i as u64 * gap_ns, move |_| {
            cl.spawn_local(core, move || {
                c_if.udp_send(
                    9999,
                    Ipv4Addr::new(10, 0, 3, 1),
                    9999,
                    Chain::single(IoBuf::copy_from(&[0u8; 64])),
                );
            });
        });
    }
}

#[test]
fn flood_switches_to_polling_and_back() {
    let world = setup();
    let received = Rc::new(Cell::new(0u64));
    let r = Rc::clone(&received);
    world.s_if.udp_bind(9999, move |_s, _p, _d| {
        r.set(r.get() + 1);
    });

    let em = || {
        let m = &world.server;
        let e = m.runtime().event_manager(CoreId(0));
        (
            e.stats.interrupts.load(Ordering::Relaxed),
            e.stats.idle.load(Ordering::Relaxed),
        )
    };

    // Overload flood: aggregate arrival (4 × 1/300ns) far exceeds the
    // ~1 µs per-frame service rate.
    flood(&world, 1500, 300, 0);
    world.w.run_for(3_000_000);
    world.w.run_to_idle();
    let (irqs, idles) = em();
    assert_eq!(received.get(), 1500, "all datagrams must be processed");
    assert!(
        idles > 0,
        "the driver must have processed part of the flood via idle-handler polling"
    );
    assert!(
        (irqs as usize) < 1500 / 2,
        "interrupt count ({irqs}) must collapse under polling"
    );

    // After the flood: interrupts are re-enabled and a trickle is
    // interrupt-driven again.
    let (irqs_before, _) = em();
    flood(&world, 10, 200_000, world.w.now());
    world.w.run_to_idle();
    let (irqs_after, _) = em();
    assert_eq!(received.get(), 1510);
    assert!(
        irqs_after - irqs_before >= 9,
        "trickle must be interrupt-driven again ({} new interrupts)",
        irqs_after - irqs_before
    );
}

#[test]
fn interrupt_only_override_disables_polling() {
    ebbrt_net::driver::set_poll_enter_burst(usize::MAX);
    let world = setup();
    let received = Rc::new(Cell::new(0u64));
    let r = Rc::clone(&received);
    world.s_if.udp_bind(9999, move |_s, _p, _d| {
        r.set(r.get() + 1);
    });
    flood(&world, 500, 300, 0);
    world.w.run_to_idle();
    let idles = world
        .server
        .runtime()
        .event_manager(CoreId(0))
        .stats
        .idle
        .load(Ordering::Relaxed);
    assert_eq!(received.get(), 500);
    assert_eq!(idles, 0, "polling must never engage with the override set");
    ebbrt_net::driver::set_poll_enter_burst(ebbrt_net::driver::POLL_ENTER_BURST);
}

#[test]
fn polling_consumes_virtual_cpu_time() {
    // A polling core burns time even between packets (MIN_POLL_NS per
    // empty pass) — the honest cost of the paper's spin-polling.
    let world = setup();
    world.s_if.udp_bind(9999, |_s, _p, _d| {});
    flood(&world, 400, 300, 0);
    world.w.run_for(2_000_000);
    let busy = world.server.cpu_time(CoreId(0));
    assert!(
        busy > 400 * 700,
        "polling + processing must account significant core time, got {busy}"
    );
    world.w.run_to_idle();
}
