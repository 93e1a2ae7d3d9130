//! The re-sync driver: pulls one range root up to date with its peers
//! — a restarted machine's replica, or a rebalance target gaining a
//! range — and flips it serving ([`resync_range`]). The catching-up
//! state it drives (forward or park client requests, serve pages) is
//! the root's own, in [`replica`](super::replica); the frames it
//! exchanges are [`shardop`]'s.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::Arc;

use ebbrt_core::ebb::EbbId;
use ebbrt_core::iobuf::{Chain, IoBuf};
use ebbrt_sim::world::charge;

use super::replica::{ship_to_each, shipper_for, ShardRoot, STATE_SERVING};
use super::shardop::{self, PullReq};

/// Bounded source re-elections before a re-sync gives up on finding a
/// live serving peer and flips serving with whatever it has
/// (availability over freshness — with every peer gone there is no
/// fresher state to wait for).
const RESYNC_STATUS_RETRIES: u32 = 16;
/// Entries per PULL page.
const RESYNC_PULL_LIMIT: u32 = 16;
/// Hard cap on total PULL round-trips in one re-sync run.
const RESYNC_PULLS_CAP: u32 = 4096;

/// One range's re-sync (or rebalance-transfer) parameters.
pub struct ResyncOpts {
    /// The local root being brought up to date. May be freshly
    /// created (restart, rebalance) or an existing serving root.
    pub root: Arc<ShardRoot>,
    /// This machine's fan-out endpoint id for the range — what peers
    /// re-add to their fan-out on REJOIN.
    pub self_ep: EbbId,
    /// Endpoint ids of the range's other replicas (candidate catch-up
    /// sources).
    pub sources: Vec<EbbId>,
    /// Ring shape the source filters snapshot pages by: a key belongs
    /// to the transfer iff `HashRing::new(nranges, vnodes)` places it
    /// in `range`.
    pub nranges: u32,
    pub vnodes: u32,
    pub range: u32,
    /// Restart re-sync sends REJOIN after catch-up (peers clear the
    /// presumed-dead mark and restore fan-out, returning their
    /// `applied` as the exactness barrier). A rebalance transfer sets
    /// this `false` — there, dual-apply forwarding installed *before*
    /// the pull plays the barrier role.
    pub rejoin: bool,
    /// Flip the root catching-up→serving when the run finishes. A
    /// rebalance transfer that pulls a range's keys from *several*
    /// sources (one run each — a new range's keys come from every old
    /// range) sets this `false` on all but the last run so the root
    /// never serves a partial key set; restart re-sync sets it `true`.
    pub flip: bool,
}

/// What a finished re-sync run reports.
#[derive(Debug, Clone, Copy)]
pub struct ResyncOutcome {
    /// `false` means the availability fallback fired: no live serving
    /// source could be found within the retry budget and the root
    /// flipped serving on its own (possibly stale) state.
    pub caught_up: bool,
    /// The source the final catch-up pulled from.
    pub source: Option<EbbId>,
    /// Total PULL round-trips.
    pub pulls: u32,
}

type ResyncDone = Box<dyn FnOnce(ResyncOutcome)>;

struct ResyncDriver {
    opts: ResyncOpts,
    done: RefCell<Option<ResyncDone>>,
    restarts: Cell<u32>,
    pulls: Cell<u32>,
    skip: Cell<u64>,
    /// Contiguous-coverage watermark while a snapshot (and its
    /// delta-close) is in flight: every source version `<= floor` is
    /// known covered. The root's `applied` is NOT that — it is a
    /// `fetch_max` of versions seen, which jumps past unwalked
    /// snapshot pages — so PULL `have` comes from here when set.
    /// `None` = plain delta tracking, where `applied` *is* contiguous.
    floor: Cell<Option<u64>>,
    source: Cell<Option<EbbId>>,
    live: RefCell<Vec<EbbId>>,
}

/// Re-syncs one range root against its peers, then flips it serving.
///
/// Phases: a STATUS round elects the most-applied live *serving* peer
/// as source; a PULL loop streams delta pages (or ring-filtered
/// snapshot pages once the source's log no longer covers the gap)
/// until the source reports `done`; with `rejoin`, a REJOIN round
/// re-adds this replica to every live peer's fan-out — the maximum
/// `applied` those peers return is the exactness barrier, closed by
/// final delta pulls (writes after the barrier fan out here
/// directly). Only then does the root flip catching-up→serving and
/// re-drive parked requests. A source dying mid-pull re-elects from
/// STATUS (bounded); running out of candidates flips serving anyway
/// rather than blackholing the range.
pub fn resync_range(opts: ResyncOpts, done: impl FnOnce(ResyncOutcome) + 'static) {
    let d = Rc::new(ResyncDriver {
        opts,
        done: RefCell::new(Some(Box::new(done))),
        restarts: Cell::new(0),
        pulls: Cell::new(0),
        skip: Cell::new(0),
        // Coverage starts at zero, not at the root's `applied`: a
        // fan-out replica's applied is a fetch_max with no contiguity
        // guarantee, and a rebalance target's applied mixes *other*
        // ranges' version spaces. Short histories still catch up in
        // one delta page; longer ones take the snapshot path.
        floor: Cell::new(Some(0)),
        source: Cell::new(None),
        live: RefCell::new(Vec::new()),
    });
    d.status_round();
}

impl ResyncDriver {
    fn status_round(self: &Rc<Self>) {
        if self.opts.sources.is_empty() || self.restarts.get() >= RESYNC_STATUS_RETRIES {
            self.finish(false);
            return;
        }
        self.restarts.set(self.restarts.get() + 1);
        // Linear backoff between elections — a peer mid-restart needs
        // sim-time, not retries, to become electable.
        charge(250_000 * self.restarts.get() as u64);
        let results: Rc<RefCell<Vec<(EbbId, u64, u8)>>> = Rc::default();
        let (seen, me) = (Rc::clone(&results), Rc::clone(self));
        ship_to_each(
            self.opts.sources.clone(),
            shardop::encode_status(),
            move |ep, r| {
                if let Some((applied, state)) = r.ok().as_ref().and_then(shardop::decode_status) {
                    seen.borrow_mut().push((ep, applied, state));
                }
            },
            move || me.on_status(&results.borrow()),
        );
    }

    fn on_status(self: &Rc<Self>, results: &[(EbbId, u64, u8)]) {
        let live: Vec<EbbId> = results.iter().map(|&(ep, _, _)| ep).collect();
        let best = results
            .iter()
            .filter(|&&(_, _, state)| state == STATE_SERVING)
            .max_by_key(|&&(_, applied, _)| applied);
        let Some(&(src, _, _)) = best else {
            // Peers reachable but none serving (overlapping restarts),
            // or none reachable: re-elect after backoff.
            self.status_round();
            return;
        };
        *self.live.borrow_mut() = live;
        self.source.set(Some(src));
        self.opts.root.begin_catch_up(Some(src));
        self.skip.set(0);
        self.pull(None);
    }

    /// One PULL round-trip. `target: None` is the catch-up phase (loop
    /// until a *delta* page says `done` — a finished snapshot walk
    /// only transitions to the delta-close that covers writes the walk
    /// raced past); `Some(barrier)` is the post-REJOIN exactness phase
    /// (loop until coverage reaches the barrier).
    fn pull(self: &Rc<Self>, target: Option<u64>) {
        if let Some(t) = target {
            if self.floor.get().is_none() && self.opts.root.applied() >= t {
                self.finish(true);
                return;
            }
        }
        if self.pulls.get() >= RESYNC_PULLS_CAP {
            self.finish(false);
            return;
        }
        let Some(src) = self.source.get() else {
            self.status_round();
            return;
        };
        let have = self.floor.get().unwrap_or_else(|| self.opts.root.applied());
        let skip = self.skip.get();
        let req = PullReq {
            have,
            skip,
            limit: RESYNC_PULL_LIMIT,
            ring: (self.opts.nranges, self.opts.vnodes),
            range: self.opts.range,
        };
        let me = Rc::clone(self);
        shipper_for(src).call(shardop::encode_pull(&req), move |r| match r {
            Ok(resp) => me.on_page(&resp, target, skip),
            // Source died mid-stream: re-elect. A snapshot restarted
            // from another source re-pages from zero (skip reset in
            // on_status → pull) — apply_versioned makes re-applied
            // entries idempotent.
            Err(_) => me.status_round(),
        });
    }

    fn on_page(self: &Rc<Self>, resp: &Chain<IoBuf>, target: Option<u64>, req_skip: u64) {
        self.pulls.set(self.pulls.get() + 1);
        let root = &self.opts.root;
        let Some((h, n)) = shardop::decode_page(resp, |version, key, value| {
            root.apply_versioned(&key.contiguous(), version, value.into_chain());
        }) else {
            self.status_round();
            return;
        };
        if !h.delta {
            // Walks restart from position zero each page, so a write
            // the walk already passed is invisible to later pages —
            // the source's applied at the walk that began the snapshot
            // (`req_skip == 0`) is the floor every missed write's
            // version exceeds; the delta-close from that floor picks
            // them up. (A write between *this* walk's pages overwrites
            // with a version above this floor, so replacing a stale
            // floor from an aborted earlier walk is safe.)
            if req_skip == 0 {
                self.floor.set(Some(h.applied));
            }
            self.skip.set(req_skip + n as u64);
            if h.done {
                // Walk complete: next pull is the delta-close
                // (skip 0, have = floor).
                self.skip.set(0);
            }
            self.pull(target);
            return;
        }
        // Delta page: the source's `cover` says how far contiguous
        // coverage now reaches (past ring-filtered entries too) — and
        // a `done` page means the log holds nothing newer, i.e.
        // coverage reaches the source's applied: the close is over.
        self.skip.set(0);
        if self.floor.get().is_some() {
            self.floor.set(if h.done { None } else { Some(h.cover) });
        }
        if !h.done {
            self.pull(target);
            return;
        }
        match target {
            Some(_) => {
                // Exactness phase: the barrier write may still be
                // fanning out to the source — breathe, then re-pull
                // (pull() re-checks the barrier).
                charge(100_000);
                self.pull(target);
            }
            None => {
                if self.opts.rejoin {
                    self.rejoin_round(h.applied);
                } else {
                    self.finish(true);
                }
            }
        }
    }

    fn rejoin_round(self: &Rc<Self>, floor: u64) {
        let live = self.live.borrow().clone();
        if live.is_empty() {
            self.finish(true);
            return;
        }
        let barrier = Rc::new(Cell::new(floor.max(self.opts.root.applied())));
        let (highest, me) = (Rc::clone(&barrier), Rc::clone(self));
        ship_to_each(
            live,
            shardop::encode_rejoin(self.opts.self_ep),
            move |_ep, r| {
                if let Some(applied) = r.ok().as_ref().and_then(shardop::decode_ack) {
                    highest.set(highest.get().max(applied));
                }
            },
            move || me.pull(Some(barrier.get())),
        );
    }

    /// Flips the root serving (draining parked requests), unless this
    /// run is a non-final multi-source transfer leg, and reports.
    fn finish(&self, caught_up: bool) {
        if self.opts.flip {
            self.opts.root.finish_catch_up();
        }
        if let Some(done) = self.done.borrow_mut().take() {
            done(ResyncOutcome {
                caught_up,
                source: self.source.get(),
                pulls: self.pulls.get(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{Store, StoreShardEbb};
    use super::*;
    use std::collections::{HashMap, HashSet};

    use ebbrt_core::cpu::CoreId;
    use ebbrt_core::ebb::{DistributedEbb, RemoteError, RemoteTransportEbb, SystemEbb};

    /// A test transport delivering function-shipped calls straight to
    /// in-process [`ShardRoot`]s by endpoint id, with per-endpoint kill
    /// switches and delivery counters — the re-sync engine's unit-test
    /// stand-in for the hosted messenger.
    struct RootTransport {
        roots: RefCell<HashMap<u32, Arc<ShardRoot>>>,
        dead: RefCell<HashSet<u32>>,
        delivered: RefCell<HashMap<u32, u32>>,
    }

    impl RootTransport {
        fn new() -> Rc<Self> {
            Rc::new(RootTransport {
                roots: RefCell::new(HashMap::new()),
                dead: RefCell::new(HashSet::new()),
                delivered: RefCell::new(HashMap::new()),
            })
        }

        fn add(&self, ep: EbbId, root: &Arc<ShardRoot>) {
            self.roots.borrow_mut().insert(ep.0, Arc::clone(root));
        }

        fn delivered_to(&self, ep: EbbId) -> u32 {
            self.delivered.borrow().get(&ep.0).copied().unwrap_or(0)
        }
    }

    impl ebbrt_core::ebb::RemoteTransport for RootTransport {
        fn ship(&self, id: EbbId, payload: Chain<IoBuf>, reply: ebbrt_core::ebb::RemoteReply) {
            if self.dead.borrow().contains(&id.0) {
                reply(Err(RemoteError::Timeout));
                return;
            }
            let Some(root) = self.roots.borrow().get(&id.0).cloned() else {
                reply(Err(RemoteError::Unresolved));
                return;
            };
            *self.delivered.borrow_mut().entry(id.0).or_insert(0) += 1;
            StoreShardEbb::local(root).handle_remote(payload, move |resp| reply(Ok(resp)));
        }
    }

    /// A value as it would arrive: one buffer of its own.
    fn val(bytes: &[u8]) -> Chain<IoBuf> {
        Chain::single(IoBuf::copy_from(bytes))
    }

    /// A one-core runtime with a [`RootTransport`] installed under the
    /// remote system id.
    fn transport_runtime() -> (Arc<ebbrt_core::runtime::Runtime>, Rc<RootTransport>) {
        let rt =
            ebbrt_core::runtime::Runtime::new(1, Arc::new(ebbrt_core::clock::ManualClock::new()));
        let transport = RootTransport::new();
        let t = Rc::clone(&transport);
        ebbrt_core::runtime::install_on_all_cores(&rt, SystemEbb::Remote.id(), move |_| {
            RemoteTransportEbb::new(Rc::clone(&t) as Rc<dyn ebbrt_core::ebb::RemoteTransport>)
        });
        (rt, transport)
    }

    #[test]
    fn resync_catch_up_converges_applied_exactly() {
        let domain = Arc::new(ebbrt_core::rcu::RcuDomain::new(1));
        let _rg = domain.read_guard(CoreId(0));
        let _b = ebbrt_core::cpu::bind(CoreId(0));
        let (rt, transport) = transport_runtime();
        let src_ep = EbbId((1 << 20) + 9001);
        let tgt_ep = EbbId((1 << 20) + 9002);

        // 40 distinct keys plus 5 overwrites: more writes than
        // DELTA_LOG_CAP, so a from-zero catch-up must take the
        // snapshot path (the delta log no longer reaches back to
        // version 1), then close the overwrites' versions exactly.
        let source = ShardRoot::new(Store::new(Arc::clone(&domain)));
        for i in 0..40u32 {
            source.apply_set(
                format!("key-{i:03}").as_bytes(),
                val(format!("val-{i}").as_bytes()),
                |_| {},
            );
        }
        for i in 0..5u32 {
            source.apply_set(
                format!("key-{i:03}").as_bytes(),
                val(format!("val-{i}-rewritten").as_bytes()),
                |_| {},
            );
        }
        assert_eq!(source.applied(), 45);
        transport.add(src_ep, &source);

        let target = ShardRoot::new(Store::new(Arc::clone(&domain)));
        target.begin_catch_up(None);
        transport.add(tgt_ep, &target);

        let outcome: Rc<RefCell<Option<ResyncOutcome>>> = Rc::new(RefCell::new(None));
        {
            let _g = ebbrt_core::runtime::enter(Arc::clone(&rt), CoreId(0));
            let o = Rc::clone(&outcome);
            resync_range(
                ResyncOpts {
                    root: Arc::clone(&target),
                    self_ep: tgt_ep,
                    sources: vec![src_ep],
                    nranges: 1,
                    vnodes: 16,
                    range: 0,
                    rejoin: true,
                    flip: true,
                },
                move |out| *o.borrow_mut() = Some(out),
            );
        }
        let out = (*outcome.borrow()).expect("in-process transport resolves synchronously");
        assert!(out.caught_up, "a live serving source was available");
        assert_eq!(out.source, Some(src_ep));
        assert!(target.is_serving(), "flipped catching-up -> serving");
        assert_eq!(
            target.applied(),
            source.applied(),
            "applied versions converge exactly"
        );
        for i in 0..40u32 {
            let key = format!("key-{i:03}").into_bytes();
            assert_eq!(
                target.key_version(&key),
                source.key_version(&key),
                "per-key versions converge (key-{i:03})"
            );
            assert_eq!(
                target
                    .store()
                    .get_raw(&key)
                    .expect("caught up")
                    .copy_to_vec(),
                source.store().get_raw(&key).expect("source").copy_to_vec(),
            );
        }
        assert!(
            source.peer_list().contains(&tgt_ep),
            "REJOIN restored the replica as a fan-out target"
        );
    }

    #[test]
    fn write_racing_the_serving_flip_lands_exactly_once() {
        let domain = Arc::new(ebbrt_core::rcu::RcuDomain::new(1));
        let _rg = domain.read_guard(CoreId(0));
        let _b = ebbrt_core::cpu::bind(CoreId(0));
        let root = ShardRoot::new(Store::new(Arc::clone(&domain)));
        root.begin_catch_up(None); // catching up, no source known yet
        let rep = StoreShardEbb::local(Arc::clone(&root));
        let acks: Rc<RefCell<Vec<Option<u64>>>> = Rc::new(RefCell::new(Vec::new()));
        let a = Rc::clone(&acks);
        rep.handle_remote(
            shardop::encode_set(b"racer", &val(b"value-1")),
            move |resp| a.borrow_mut().push(shardop::decode_ack(&resp)),
        );
        assert!(acks.borrow().is_empty(), "parked, not answered early");
        assert!(
            root.store().get_raw(b"racer").is_none(),
            "not applied before the flip"
        );
        root.finish_catch_up();
        assert_eq!(*acks.borrow(), [Some(1)], "acknowledged exactly once");
        assert_eq!(root.applied(), 1, "applied exactly once, not double");
        assert_eq!(
            root.store().sets.load(std::sync::atomic::Ordering::Relaxed),
            1,
            "one store write, no double apply"
        );
        assert_eq!(
            root.store()
                .get_raw(b"racer")
                .expect("landed")
                .copy_to_vec(),
            b"value-1"
        );
    }

    #[test]
    fn rejoin_clears_presumed_dead_and_restores_fan_out() {
        let domain = Arc::new(ebbrt_core::rcu::RcuDomain::new(1));
        let _rg = domain.read_guard(CoreId(0));
        let _b = ebbrt_core::cpu::bind(CoreId(0));
        let (rt, transport) = transport_runtime();
        let peer_ep = EbbId((1 << 20) + 9101);
        let peer = ShardRoot::new(Store::new(Arc::clone(&domain)));
        transport.add(peer_ep, &peer);
        let primary = ShardRoot::with_peers(Store::new(Arc::clone(&domain)), vec![peer_ep]);
        let _g = ebbrt_core::runtime::enter(Arc::clone(&rt), CoreId(0));

        // Fan-out to a dead peer fails: the write is still acked, the
        // peer marked presumed-dead.
        transport.dead.borrow_mut().insert(peer_ep.0);
        let acked = Rc::new(Cell::new(0u64));
        let a = Rc::clone(&acked);
        primary.apply_set(b"k1", val(b"v1"), move |v| a.set(v));
        assert_eq!(acked.get(), 1, "write acked despite the dead peer");
        assert_eq!(primary.failed_peer_count(), 1);
        use std::sync::atomic::Ordering::Relaxed;
        assert_eq!(primary.repl_failed.load(Relaxed), 1);

        // Later writes skip the corpse instead of re-failing.
        primary.apply_set(b"k2", val(b"v2"), |_| {});
        assert_eq!(primary.repl_skipped.load(Relaxed), 1);
        assert_eq!(transport.delivered_to(peer_ep), 0);

        // Without the rejoin the mark is forever: the regression this
        // PR fixes. mark_rejoined (what a REJOIN calls on the
        // wire) clears it and restores fan-out.
        transport.dead.borrow_mut().remove(&peer_ep.0);
        primary.mark_rejoined(peer_ep);
        assert_eq!(primary.failed_peer_count(), 0);
        primary.apply_set(b"k3", val(b"v3"), |_| {});
        assert_eq!(
            transport.delivered_to(peer_ep),
            1,
            "restored as a fan-out target"
        );
        assert_eq!(
            peer.store()
                .get_raw(b"k3")
                .expect("replicated")
                .copy_to_vec(),
            b"v3"
        );
    }
}
