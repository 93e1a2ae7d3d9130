use super::*;
use ebbrt_core::clock::ManualClock;
use ebbrt_core::cpu::CoreId;
use ebbrt_core::runtime::{self, Runtime};
use ebbrt_net::netif::NetIf;
use ebbrt_sim::{CostProfile, Lan, SimMachine};
use std::sync::Arc;

use crate::on_core0;
#[test]
fn allocate_put_get_across_machines() {
    let lan = Lan::new();
    let vm = CostProfile::ebbrt_vm;
    let w = &lan.world;
    let linux = CostProfile::linux_vm;
    let hosted_ip = Ipv4Addr::new(10, 0, 0, 1);
    let (_hosted, h_if) = lan.machine("hosted", 1, linux(), [0x01; 6], hosted_ip);
    let (native1, n1_if) = lan.machine("n1", 1, vm(), [0x02; 6], Ipv4Addr::new(10, 0, 0, 2));
    let (native2, n2_if) = lan.machine("n2", 1, vm(), [0x03; 6], Ipv4Addr::new(10, 0, 0, 3));
    w.run_to_idle();

    let h_msgr = Messenger::start(&h_if);
    let n1_msgr = Messenger::start(&n1_if);
    let n2_msgr = Messenger::start(&n2_if);
    let server = GlobalIdMapServer::start(&h_msgr);
    let map1 = GlobalIdMap::new(&n1_msgr, hosted_ip);
    let map2 = GlobalIdMap::new(&n2_msgr, hosted_ip);

    // native1 allocates a global id and publishes itself as owner.
    let published = Rc::new(Cell::new(None));
    let p2 = Rc::clone(&published);
    on_core0(&native1, Rc::clone(&map1), move |map| {
        let m2 = Rc::clone(&map);
        map.allocate(move |id| {
            let id = id.expect("naming service answers");
            m2.put(
                id,
                &encode_owners(&[Ipv4Addr::new(10, 0, 0, 2)]),
                move |ok| {
                    assert!(ok);
                },
            );
            p2.set(Some(id));
        });
    });
    w.run_to_idle();
    let id = published.get().expect("allocation completed");
    assert!(id.0 >= 1 << 20, "global ids live above the local range");

    // native2 resolves the owner.
    let owner = Rc::new(Cell::new(None));
    let o2 = Rc::clone(&owner);
    on_core0(&native2, Rc::clone(&map2), move |map| {
        map.get(id, move |data| {
            o2.set(decode_owners(&data.unwrap()));
        });
    });
    w.run_to_idle();
    assert_eq!(owner.take(), Some(vec![Ipv4Addr::new(10, 0, 0, 2)]));
    assert_eq!(server.len(), 1);

    // Second allocation on native1 is served from the cached range:
    // no extra server round trip.
    let before = server.requests.get();
    let second = Rc::new(Cell::new(None));
    let s2 = Rc::clone(&second);
    on_core0(&native1, map1, move |map| {
        map.allocate(move |id| s2.set(id));
    });
    w.run_to_idle();
    assert_eq!(second.get(), Some(EbbId(id.0 + 1)));
    assert_eq!(
        server.requests.get(),
        before,
        "range must be cached locally"
    );
}

/// The naming service on a hosted machine and one native client of
/// it (plus what must outlive the test).
type Keep = ([Rc<NetIf>; 2], Rc<GlobalIdMapServer>);
fn one_client() -> (Lan, Rc<SimMachine>, Rc<GlobalIdMap>, Keep) {
    let lan = Lan::new();
    let hosted_ip = Ipv4Addr::new(10, 0, 0, 1);
    let (_hosted, h_if) = lan.machine("hosted", 1, CostProfile::linux_vm(), [0x01; 6], hosted_ip);
    let (native, n_if) = lan.machine(
        "n",
        1,
        CostProfile::ebbrt_vm(),
        [0x02; 6],
        Ipv4Addr::new(10, 0, 0, 2),
    );
    lan.world.run_to_idle();
    let server = GlobalIdMapServer::start(&Messenger::start(&h_if));
    let map = GlobalIdMap::new(&Messenger::start(&n_if), hosted_ip);
    (lan, native, map, ([h_if, n_if], server))
}

#[test]
fn allocate_survives_a_hostile_or_silent_naming_service() {
    // `done` always runs and no reply panics the caller: a naming
    // service answering anything but `OK, base, size` with a usable
    // range, and one cut off at the switch, both resolve to `None`.
    let lan = Lan::new();
    let hosted_ip = Ipv4Addr::new(10, 0, 0, 1);
    let (_hosted, h_if) = lan.machine("hosted", 1, CostProfile::linux_vm(), [0x01; 6], hosted_ip);
    let (native, n_if) = lan.machine(
        "n",
        1,
        CostProfile::ebbrt_vm(),
        [0x02; 6],
        Ipv4Addr::new(10, 0, 0, 2),
    );
    lan.world.run_to_idle();
    let reply = Rc::new(RefCell::new(Vec::new()));
    let h_msgr = Messenger::start(&h_if);
    let r2 = Rc::clone(&reply);
    crate::remote::export_raw(&h_msgr, GLOBAL_MAP_EBB_ID, move |_| {
        let mut w = WireWriter::new();
        w.tail(&r2.borrow());
        w.finish()
    });
    let n_msgr = Messenger::start(&n_if);
    let allocate = |bytes: &[u8]| {
        *reply.borrow_mut() = bytes.to_vec();
        // A fresh client each time: no cached range to serve from.
        let map = GlobalIdMap::new(&n_msgr, hosted_ip);
        let got = Rc::new(Cell::new(None));
        let g2 = Rc::clone(&got);
        on_core0(&native, map, move |map| {
            map.allocate(move |id| g2.set(Some(id)))
        });
        // Bounded: an established connection to a silenced peer
        // retransmits for as long as the world runs.
        lan.world.run_for(2 * DEFAULT_RPC_TIMEOUT_NS);
        got.get().expect("done always runs")
    };
    assert_eq!(allocate(&[]), None, "empty reply");
    assert_eq!(allocate(&[RESP_NO]), None, "refusal");
    assert_eq!(allocate(&[RESP_OK, 0, 0x10]), None, "truncated");
    assert_eq!(
        allocate(&[7, 0, 0x10, 0, 0, 0, 0, 4, 0]),
        None,
        "unknown tag"
    );
    assert_eq!(
        allocate(&[RESP_OK, 0, 0x10, 0, 0, 0, 0, 0, 0]),
        None,
        "empty range"
    );
    assert_eq!(
        allocate(&[RESP_OK, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 2]),
        None,
        "a range past the id space"
    );
    assert_eq!(
        allocate(&[RESP_OK, 0, 0x10, 0, 0, 0, 0, 4, 0]),
        Some(EbbId(1 << 20)),
        "a well-formed grant still works"
    );
    lan.switch.isolate(0);
    assert_eq!(
        allocate(&[RESP_OK, 0, 0x10, 0, 0, 0, 0, 4, 0]),
        None,
        "silent"
    );
}

#[test]
fn exhausting_the_id_space_refuses_instead_of_wrapping() {
    let last = u32::MAX - 2 * RANGE_SIZE + 1;
    let rt = Runtime::new(1, Arc::new(ManualClock::new()));
    let _on = runtime::enter(Arc::clone(&rt), CoreId(0));
    let server = GlobalIdMapServer {
        next_range: Cell::new(last),
        entries: RefCell::new(HashMap::new()),
        requests: Counter::new(&rt, "global_map.requests"),
    };
    let alloc = || {
        let resp = server.handle(&WireWriter::op(OP_ALLOC_RANGE).finish());
        let mut r = WireReader::new(&resp);
        (r.u8(), r.u32(), r.u32())
    };
    assert_eq!(
        alloc(),
        (Some(RESP_OK), Some(last), Some(RANGE_SIZE)),
        "the last range that fits is granted"
    );
    for _ in 0..3 {
        assert_eq!(alloc(), (Some(RESP_NO), None, None), "then refused");
    }
    assert_eq!(server.requests.get(), 4);
}

#[test]
fn get_missing_id_is_none() {
    let (lan, native, map, _keep) = one_client();
    let w = &lan.world;
    let missing = Rc::new(Cell::new(false));
    let m2 = Rc::clone(&missing);
    on_core0(&native, map, move |map| {
        map.get(EbbId(999_999), move |d| m2.set(d.is_none()));
    });
    w.run_to_idle();
    assert!(missing.get());
}

#[test]
fn put_if_arbitrates_racing_promoters() {
    let (lan, native, map, _keep) = one_client();
    let w = &lan.world;
    let id = EbbId(1 << 20);
    let log = Rc::new(RefCell::new(Vec::new()));

    // Publish v1, read it versioned, then two CASes against the
    // same observed version: the first wins, the second loses.
    let l = Rc::clone(&log);
    on_core0(&native, Rc::clone(&map), move |map| {
        let a = Ipv4Addr::new(10, 0, 0, 2);
        let b = Ipv4Addr::new(10, 0, 0, 3);
        let m1 = Rc::clone(&map);
        map.put(id, &encode_owners(&[a, b]), move |ok| {
            assert!(ok);
            let m2 = Rc::clone(&m1);
            let l = Rc::clone(&l);
            m1.get_versioned(id, move |r| {
                let (v, data) = r.unwrap();
                assert_eq!(v, 1);
                assert_eq!(decode_owners(&data), Some(vec![a, b]));
                let m3 = Rc::clone(&m2);
                let l2 = Rc::clone(&l);
                m2.put_if(id, v, &encode_owners(&[b, a]), move |r| {
                    l2.borrow_mut().push(("first", r));
                    let l3 = Rc::clone(&l2);
                    m3.put_if(id, v, &encode_owners(&[a]), move |r| {
                        l3.borrow_mut().push(("second", r));
                    });
                });
            });
        });
    });
    w.run_to_idle();
    assert_eq!(
        *log.borrow(),
        vec![("first", Some(2)), ("second", None)],
        "exactly one promotion wins per observed version"
    );

    // The lost race invalidated the cache; a re-read sees the
    // winner's record and version.
    let seen = Rc::new(Cell::new(None));
    let s2 = Rc::clone(&seen);
    on_core0(&native, map, move |map| {
        map.get_versioned(id, move |r| {
            let (v, data) = r.unwrap();
            s2.set(Some((v, decode_owners(&data).unwrap()[0])));
        });
    });
    w.run_to_idle();
    assert_eq!(seen.get(), Some((2, Ipv4Addr::new(10, 0, 0, 3))));
}
