use super::*;
use crate::chaos::{self, ChaosConfig};
use ebbrt_apps::memcached::Client;

/// A fault-free unreplicated cluster of `cores`-core shard machines
/// with the dead-range probe, checked by [`chaos::assert_properties`]:
/// zero-copy local and shipped GETs, one frame for a pipelined pass,
/// `STATUS_REMOTE_ERROR` from the dead range.
fn unreplicated_with_probe(cores: usize) {
    let r = chaos::run(&ChaosConfig {
        shards: 2,
        replicas: 1,
        cores,
        ops: 16,
        kills: vec![],
        measured_gets: 16,
        ..ChaosConfig::default()
    });
    println!("{}", chaos::format_report(&r));
    chaos::assert_properties(&r);
}

#[test]
fn sharded_cluster_properties_hold() {
    unreplicated_with_probe(1);
}

/// The same run on 2-core shard machines: cross-shard completions must
/// hop back to the memcached connection's RSS core before touching its
/// state.
#[test]
fn sharded_cluster_properties_hold_on_two_core_shards() {
    unreplicated_with_probe(2);
}

/// A client that pipelines a cross-shard request and half-closes
/// still hears the answer: the front end's FIN waits for the
/// shipped reply (and then follows it — nothing is left open).
#[test]
fn half_close_behind_a_shipped_request_still_gets_its_reply() {
    use ebbrt_apps::memcached::Burst;
    use ebbrt_net::tcp::TcpState;
    let c = build_replicated(2, 1, 1);
    let key = |range| key_for_range(&c.ring, range, 0);
    for (shard, frame) in [
        (0, memcached::encode_get(&key(0), 1)),
        (1, memcached::encode_get(&key(1), 1)),
        (1, memcached::encode_set(&key(1), b"v", 1)),
    ] {
        let burst = Burst::half_closing(&[frame]);
        let client = Client::spawn(&c.client, CoreId(0), shard_ip(0), burst);
        c.w.run_to_idle();
        assert_eq!(client.workload.replies.borrow().len(), 1, "shard {shard}");
        let state = client.conn().expect("opened").state();
        assert_eq!(
            state,
            TcpState::Closed,
            "shard {shard}: the server's FIN followed"
        );
    }
    assert_eq!(c.stores[1].get_raw(&key(1)).map(|v| v.len()), Some(1));
}

/// A view installs only over a strictly older generation: an equal or
/// older epoch is refused, whatever it is — no epoch always installs.
#[test]
fn a_view_is_replaced_only_by_a_newer_generation() {
    let view = |epoch| ViewState {
        shard_ids: Arc::default(),
        ring: Arc::new(HashRing::with_epoch(2, 16, epoch)),
        locals: Arc::default(),
    };
    let cv = ClusterView::new(view(2));
    assert!(!cv.install(view(2)), "an equal epoch is refused");
    assert!(!cv.install(view(1)), "an older epoch is refused");
    assert!(!cv.install(view(0)), "epoch 0 is just the oldest epoch");
    assert_eq!(cv.snapshot().epoch(), 2);
    assert!(cv.install(view(3)), "a newer epoch installs");
    assert_eq!(cv.snapshot().epoch(), 3);
}
