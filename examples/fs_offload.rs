//! Function offload: a native instance using the hosted FileSystem Ebb.
//!
//! Reproduces §4.3's structure: a *hosted* machine (Linux profile)
//! owns the FileSystem Ebb's root; a *native* EbbRT instance calls
//! `read`/`write`/`stat` through the same `fs_ref()`, where the first
//! call faults in a representative that function-ships each call over
//! the messenger. The caching representative then shows the
//! optimization the paper leaves as future work.
//!
//! Run with: `cargo run --example fs_offload`

use std::cell::Cell;
use std::rc::Rc;

use ebbrt_apps::spawn_with;
use ebbrt_core::cpu::CoreId;
use ebbrt_hosted::fs::{fs_ref, CachingFsClient, FsServer, FS_EBB_ID};
use ebbrt_hosted::global_map::GlobalIdMap;
use ebbrt_hosted::messenger::Messenger;
use ebbrt_hosted::remote::MessengerTransport;
use ebbrt_net::types::Ipv4Addr;
use ebbrt_sim::{CostProfile, Lan};

fn main() {
    let lan = Lan::new();
    let vm = CostProfile::ebbrt_vm;
    let w = &lan.world;

    // The hosted side: a process on a general-purpose OS.
    let hosted_ip = Ipv4Addr::new(10, 0, 0, 1);
    let (hosted, h_if) = lan.machine("hosted", 1, CostProfile::linux_vm(), [0x01; 6], hosted_ip);

    // The native library OS instance.
    let (native, n_if) = lan.machine("native", 2, vm(), [0x02; 6], Ipv4Addr::new(10, 0, 0, 2));
    w.run_to_idle();

    let h_msgr = Messenger::start(&h_if);
    let n_msgr = Messenger::start(&n_if);
    let server = FsServer::start(&h_msgr);
    server.put("/etc/app.conf", b"threads=4\nport=11211\n".to_vec());

    // The native instance is booted with the hosted address: its
    // transport reaches the filesystem's owner there.
    let transport = MessengerTransport::install(&n_msgr, GlobalIdMap::new(&n_msgr, hosted_ip));
    transport.preset_owner(FS_EBB_ID, hosted_ip);
    let caching = Rc::new(CachingFsClient::default());

    // One call site, two machines: the owner's representative answers
    // in place, the native one function-ships.
    let stat = |who: &'static str| {
        move || {
            fs_ref().with(|fs| {
                fs.stat("/etc/app.conf", move |size| {
                    println!("  stat from the {who} machine: {size:?}");
                })
            })
        }
    };
    hosted.spawn_local(CoreId(0), stat("hosted"));
    native.spawn_local(CoreId(1), stat("native"));
    w.run_to_idle();

    println!("offloading filesystem access from the native instance...");
    let t0 = Rc::new(Cell::new(0u64));
    let t0c = Rc::clone(&t0);
    spawn_with(&native, CoreId(0), Rc::clone(&caching), move |caching| {
        t0c.set(ebbrt_core::runtime::with_current(|rt| rt.now_ns()));
        let t0 = t0c;
        caching.read("/etc/app.conf", move |data| {
            let now = ebbrt_core::runtime::with_current(|rt| rt.now_ns());
            println!(
                "  first read (round trip over the wire, {:>6.1} us): {:?}",
                (now - t0.get()) as f64 / 1000.0,
                String::from_utf8_lossy(&data.unwrap())
            );
        });
    });
    w.run_to_idle();

    // Second read: served from the caching representative, no RPC.
    let t1 = Rc::new(Cell::new(0u64));
    let t1c = Rc::clone(&t1);
    spawn_with(&native, CoreId(0), Rc::clone(&caching), move |caching| {
        t1c.set(ebbrt_core::runtime::with_current(|rt| rt.now_ns()));
        let t1 = t1c;
        caching.read("/etc/app.conf", move |data| {
            let now = ebbrt_core::runtime::with_current(|rt| rt.now_ns());
            println!(
                "  cached read (local representative,   {:>6.1} us): {} bytes",
                (now - t1.get()) as f64 / 1000.0,
                data.unwrap().len()
            );
        });
    });
    w.run_to_idle();

    println!(
        "server handled {} RPCs; caching rep hit {} time(s)",
        server.requests(),
        caching.hits.get()
    );
    println!("(the naive client of §4.3 would have paid the round trip every time)");
}
