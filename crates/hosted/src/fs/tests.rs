use super::*;
use crate::global_map::GlobalIdMap;
use crate::remote::MessengerTransport;
use ebbrt_net::types::Ipv4Addr;
use ebbrt_sim::{CostProfile, Lan, SimMachine, SimWorld, Switch};

struct Setup {
    w: Rc<SimWorld>,
    sw: Rc<Switch>,
    hosted: Rc<SimMachine>,
    native: Rc<SimMachine>,
    h_msgr: Rc<Messenger>,
    transport: Rc<MessengerTransport>,
    server: Arc<FsServer>,
}

/// A hosted machine owning the filesystem and a two-core native
/// machine booted with its address.
fn setup() -> Setup {
    let lan = Lan::new();
    let hosted_ip = Ipv4Addr::new(10, 0, 0, 1);
    let (hosted, h_if) = lan.machine("hosted", 1, CostProfile::linux_vm(), [0x01; 6], hosted_ip);
    let (native, n_if) = lan.machine(
        "native",
        2,
        CostProfile::ebbrt_vm(),
        [0x02; 6],
        Ipv4Addr::new(10, 0, 0, 2),
    );
    let (w, sw) = (lan.world, lan.switch);
    w.run_to_idle();
    let h_msgr = Messenger::start(&h_if);
    let n_msgr = Messenger::start(&n_if);
    let server = FsServer::start(&h_msgr);
    let transport = MessengerTransport::install(&n_msgr, GlobalIdMap::new(&n_msgr, hosted_ip));
    transport.preset_owner(FS_EBB_ID, hosted_ip);
    Setup {
        w,
        sw,
        hosted,
        native,
        h_msgr,
        transport,
        server,
    }
}

/// What one write → read → stat → read-missing sequence saw.
#[derive(Default, Debug, PartialEq)]
struct Seen {
    wrote: Cell<Option<bool>>,
    read: RefCell<Option<Option<Vec<u8>>>>,
    size: Cell<Option<Option<u64>>>,
    missing: RefCell<Option<Option<Vec<u8>>>>,
}

/// The one call site of the contract: identical source on the
/// hosted machine and on a native one.
fn exercise(seen: Rc<Seen>) {
    let s = Rc::clone(&seen);
    fs_ref().with(|fs| {
        fs.write("/etc/config", b"key=value", move |ok| {
            s.wrote.set(Some(ok));
            let s2 = Rc::clone(&s);
            fs_ref().with(|fs| fs.read("/etc/config", move |d| *s2.read.borrow_mut() = Some(d)));
            let s3 = Rc::clone(&s);
            fs_ref().with(|fs| fs.stat("/etc/config", move |n| s3.size.set(Some(n))));
            fs_ref().with(|fs| fs.read("/nope", move |d| *s.missing.borrow_mut() = Some(d)));
        })
    });
}

fn assert_served(seen: &Seen) {
    assert_eq!(seen.wrote.get(), Some(true));
    assert_eq!(*seen.read.borrow(), Some(Some(b"key=value".to_vec())));
    assert_eq!(seen.size.get(), Some(Some(9)));
    assert_eq!(*seen.missing.borrow(), Some(None), "a missing file is None");
}

#[test]
fn the_same_call_site_is_answered_in_place_on_the_hosted_machine() {
    let s = setup();
    let seen = Rc::new(Seen::default());
    let dispatched = s.h_msgr.dispatched.get();
    s.hosted.spawn_local(CoreId(0), {
        let seen = Rc::clone(&seen);
        move || exercise(seen)
    });
    s.w.run_to_idle();
    assert_served(&seen);
    assert_eq!(s.server.requests(), 4);
    assert_eq!(
        s.h_msgr.dispatched.get(),
        dispatched,
        "the owner's rep serves in place: nothing crossed the messenger"
    );
    assert_eq!(s.transport.shipped.get(), 0);
}

#[test]
fn write_then_read_roundtrip() {
    // The native flavor: the first call on a core faults a proxy in
    // through the installed transport; every operation after that
    // is one function ship.
    let s = setup();
    let ebbs = s.native.runtime().ebbs();
    assert!(!ebbs.has_rep(FS_EBB_ID, CoreId(0)));
    let seen = Rc::new(Seen::default());
    s.native.spawn_local(CoreId(0), {
        let seen = Rc::clone(&seen);
        move || exercise(seen)
    });
    s.w.run_to_idle();
    assert_served(&seen);
    assert!(ebbs.has_rep(FS_EBB_ID, CoreId(0)), "proxy installed");
    assert!(
        !ebbs.has_rep(FS_EBB_ID, CoreId(1)),
        "per core, on first use"
    );
    assert_eq!(s.transport.shipped.get(), 4, "one RPC per operation");
    assert_eq!(s.server.requests(), 4);
    assert!(
        ebbs.root::<FsEbb>(FS_EBB_ID).is_none(),
        "a native machine holds no filesystem root"
    );
    // The other core faults its own proxy; the first core's stays.
    let again = Rc::new(Seen::default());
    s.native.spawn_local(CoreId(1), {
        let again = Rc::clone(&again);
        move || exercise(again)
    });
    s.w.run_to_idle();
    assert_served(&again);
    assert!(ebbs.has_rep(FS_EBB_ID, CoreId(1)));
    assert_eq!(s.transport.shipped.get(), 8);
}

#[test]
fn stat_and_missing_file() {
    let s = setup();
    s.server.put("/data/blob", vec![7; 1234]);
    let size = Rc::new(Cell::new(None));
    let missing = Rc::new(Cell::new(false));
    let (s2, m2) = (Rc::clone(&size), Rc::clone(&missing));
    s.native.spawn_local(CoreId(0), move || {
        fs_ref().with(|fs| {
            fs.stat("/data/blob", move |s| s2.set(s));
            fs.stat("/nope", move |d| m2.set(d.is_none()));
        })
    });
    s.w.run_to_idle();
    assert_eq!(size.get(), Some(1234));
    assert!(missing.get());
}

#[test]
fn a_dead_owner_resolves_to_none_and_false() {
    // The hosted machine drops off the network: every operation
    // still completes — `None` / `false` once the transport's retry
    // budget is spent — and the preset owner survives, so the
    // filesystem is reachable again when the machine is.
    let s = setup();
    s.server.put("/data/blob", vec![7; 10]);
    s.transport.set_timeout(2_000_000);
    s.sw.isolate(0);
    let seen = Rc::new(Seen::default());
    s.native.spawn_local(CoreId(0), {
        let seen = Rc::clone(&seen);
        move || {
            let s = Rc::clone(&seen);
            fs_ref().with(|fs| {
                fs.write("/data/blob", b"x", move |ok| s.wrote.set(Some(ok)));
                let s = Rc::clone(&seen);
                fs.read("/data/blob", move |d| *s.read.borrow_mut() = Some(d));
                fs.stat("/data/blob", move |n| seen.size.set(Some(n)));
            })
        }
    });
    s.w.run_to_idle();
    assert_eq!(seen.wrote.get(), Some(false));
    assert_eq!(*seen.read.borrow(), Some(None));
    assert_eq!(seen.size.get(), Some(None));
    assert_eq!(s.server.requests(), 0);
    assert_eq!(
        s.transport.resolved_primary(FS_EBB_ID),
        Some(Ipv4Addr::new(10, 0, 0, 1))
    );

    s.sw.restore(0);
    let size = Rc::new(Cell::new(None));
    let s2 = Rc::clone(&size);
    s.native.spawn_local(CoreId(0), move || {
        fs_ref().with(|fs| fs.stat("/data/blob", move |n| s2.set(n)))
    });
    s.w.run_to_idle();
    assert_eq!(size.get(), Some(10), "the configured owner is retried");
}

#[test]
fn caching_client_avoids_round_trips() {
    let s = setup();
    s.server
        .put("/lib/startup.js", b"console.log('hi')".to_vec());
    let caching = Rc::new(CachingFsClient::default());
    let reads = Rc::new(Cell::new(0));
    let r2 = Rc::clone(&reads);
    let c0 = Rc::clone(&caching);
    s.native.spawn_local(CoreId(0), move || {
        // Three reads of the same path, chained sequentially so the
        // cache is populated before the repeats.
        let c1 = Rc::clone(&c0);
        c0.read("/lib/startup.js", move |d| {
            assert!(d.is_some());
            r2.set(r2.get() + 1);
            let c2 = Rc::clone(&c1);
            c1.read("/lib/startup.js", move |d| {
                assert!(d.is_some());
                r2.set(r2.get() + 1);
                c2.read("/lib/startup.js", move |d| {
                    assert!(d.is_some());
                    r2.set(r2.get() + 1);
                });
            });
        });
    });
    s.w.run_to_idle();
    assert_eq!(reads.get(), 3);
    assert_eq!(s.server.requests(), 1, "only the first read goes remote");
    assert_eq!(caching.hits.get(), 2);
}
