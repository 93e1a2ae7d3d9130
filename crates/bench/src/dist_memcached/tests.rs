use super::*;

#[test]
fn sharded_cluster_properties_hold() {
    let r = run(&DistConfig {
        shards: 2,
        cores: 1,
        warmup_gets: 32,
        measured_gets: 16,
        probe_failure: true,
    });
    println!("{}", format_report(&r));
    assert_properties(&r);
}

/// Satellite of the replication PR: the same e2e on 2-core shard
/// machines — cross-shard completions must hop back to the
/// memcached connection's RSS core before touching its state.
#[test]
fn sharded_cluster_properties_hold_on_two_core_shards() {
    let r = run(&DistConfig {
        shards: 2,
        cores: 2,
        warmup_gets: 32,
        measured_gets: 16,
        probe_failure: true,
    });
    println!("{}", format_report(&r));
    assert_properties(&r);
}

/// A client that pipelines a cross-shard request and half-closes
/// still hears the answer: the front end's FIN waits for the
/// shipped reply (and then follows it — nothing is left open).
#[test]
fn half_close_behind_a_shipped_request_still_gets_its_reply() {
    use ebbrt_apps::memcached::Burst;
    use ebbrt_net::tcp::TcpState;
    let c = build(2, false);
    for (shard, frame) in [
        (0, memcached::encode_get(&key_for_shard(0, 2, 0), 1)),
        (1, memcached::encode_get(&key_for_shard(1, 2, 0), 1)),
        (1, memcached::encode_set(&key_for_shard(1, 2, 0), b"v", 1)),
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
    assert_eq!(
        c.stores[1]
            .get_raw(&key_for_shard(1, 2, 0))
            .map(|v| v.len()),
        Some(1)
    );
}
