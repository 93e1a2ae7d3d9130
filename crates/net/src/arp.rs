//! The ARP cache and asynchronous resolution (§3.5's Figure 2 path).
//!
//! [`ArpCache::find`] resolves an IPv4 address to a MAC. On a cache hit
//! the continuation runs **synchronously in the caller's context** — the
//! fast path the paper's futures are designed around. On a miss the
//! continuation is queued, an ARP request goes out, and the reply
//! handler drains the waiters; exhausted retries hand [`ArpTimeout`] to
//! every one of them, so the error reaches the final consumer.
//!
//! (In the C++ system this returns `Future<EthAddr>`; here the
//! continuation is a direct callback, which keeps both of §3.5's
//! properties — synchronous on a hit, the error delivered — without a
//! shared future state per lookup. `arp::tests::hit_is_synchronous` and
//! `fail_delivers_error_to_all_waiters` pin them.)

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use ebbrt_core::clock::Ns;
use ebbrt_core::iobuf::{Chain, IoBuf};
use ebbrt_core::runtime;

use crate::netif::NetIf;
use crate::types::{Ipv4Addr, Mac, MAC_BROADCAST};
use crate::wire::{self, EthHeader};

/// Terminal failure of an ARP resolution: the retry budget ran out
/// with no reply. Delivered to every queued waiter so callers can tear
/// down dependent state (e.g. a `SynSent` connection) immediately
/// instead of waiting for their own timeouts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ArpTimeout;

/// Outcome delivered to a resolution continuation.
pub type ArpResult = Result<Mac, ArpTimeout>;

enum Entry {
    Resolved(Mac),
    /// Resolution in flight.
    Pending(Pending),
}

/// An in-flight resolution: its queued waiters, the requests sent for
/// it so far, and the id that names it to its retry timer — a timer
/// left over from an earlier resolution of the same address finds
/// another id and does nothing.
struct Pending {
    waiters: Vec<Box<dyn FnOnce(ArpResult)>>,
    tries: u32,
    id: u32,
}

/// The per-interface ARP cache.
#[derive(Default)]
pub struct ArpCache {
    entries: RefCell<HashMap<Ipv4Addr, Entry>>,
    /// The id the next resolution takes.
    next_id: Cell<u32>,
}

impl ArpCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resolves `ip`, invoking `cont` with the outcome — synchronously
    /// (always `Ok`) if cached. A queued waiter receives `Ok(mac)`
    /// when the reply arrives, or `Err(`[`ArpTimeout`]`)` if the
    /// retries exhaust ([`ArpCache::fail`]). Returns the id of a new
    /// resolution if `cont` is its first waiter: the caller must then
    /// transmit the first ARP request and start the retries.
    pub fn find(&self, ip: Ipv4Addr, cont: impl FnOnce(ArpResult) + 'static) -> Option<u32> {
        let mut entries = self.entries.borrow_mut();
        match entries.get_mut(&ip) {
            Some(Entry::Resolved(mac)) => {
                let mac = *mac;
                drop(entries);
                cont(Ok(mac)); // synchronous fast path
                None
            }
            Some(Entry::Pending(p)) => {
                p.waiters.push(Box::new(cont));
                None
            }
            None => {
                let id = self.next_id.get();
                self.next_id.set(id.wrapping_add(1));
                let waiters = vec![Box::new(cont) as Box<dyn FnOnce(ArpResult)>];
                entries.insert(
                    ip,
                    Entry::Pending(Pending {
                        waiters,
                        tries: 1,
                        id,
                    }),
                );
                Some(id)
            }
        }
    }

    /// Returns the cached MAC without resolving.
    pub fn lookup(&self, ip: Ipv4Addr) -> Option<Mac> {
        match self.entries.borrow().get(&ip) {
            Some(Entry::Resolved(mac)) => Some(*mac),
            _ => None,
        }
    }

    /// Installs (or refreshes) a resolution — from an ARP reply or
    /// learned from traffic — and runs any queued waiters with
    /// `Ok(mac)`.
    pub fn insert(&self, ip: Ipv4Addr, mac: Mac) {
        let prev = self.entries.borrow_mut().insert(ip, Entry::Resolved(mac));
        if let Some(Entry::Pending(p)) = prev {
            for w in p.waiters {
                w(Ok(mac));
            }
        }
    }

    /// Terminates a pending resolution as failed: the entry is
    /// removed and every queued waiter receives
    /// `Err(`[`ArpTimeout`]`)`. A resolved (or absent) entry is left
    /// untouched — failure only applies to an in-flight resolution.
    pub fn fail(&self, ip: Ipv4Addr) {
        let mut entries = self.entries.borrow_mut();
        if matches!(entries.get(&ip), Some(Entry::Pending(_))) {
            let Some(Entry::Pending(p)) = entries.remove(&ip) else {
                unreachable!("checked pending above");
            };
            drop(entries);
            for w in p.waiters {
                w(Err(ArpTimeout));
            }
        }
    }

    /// Counts one more request for resolution `id` of `ip` and returns
    /// the count — `None` if that resolution is no longer in flight
    /// (resolved, failed, or evicted and begun again).
    fn next_try(&self, ip: Ipv4Addr, id: u32) -> Option<u32> {
        match self.entries.borrow_mut().get_mut(&ip) {
            Some(Entry::Pending(p)) if p.id == id => {
                p.tries += 1;
                Some(p.tries)
            }
            _ => None,
        }
    }

    /// Drops an entry (cache invalidation). Pending waiters, if any,
    /// are failed via [`ArpCache::fail`] semantics first. A *pending*
    /// entry re-created by a failure callback (a waiter that retries
    /// inside its error handler) is left alive — evicting it would
    /// silently strand the retry's waiters.
    pub fn evict(&self, ip: Ipv4Addr) {
        self.fail(ip);
        let mut entries = self.entries.borrow_mut();
        if matches!(entries.get(&ip), Some(Entry::Resolved(_))) {
            entries.remove(&ip);
        }
    }
}

// --- Resolution on the wire: request, reply, bounded retry ------------------

/// ARP request retransmission interval (doubled per attempt).
pub const ARP_RETRY_NS: Ns = 100_000_000;

/// ARP resolution attempts before the resolution is failed: queued
/// waiters receive `Err(ArpTimeout)` and connections still in SynSent
/// behind it are torn down.
pub const ARP_MAX_TRIES: u32 = 3;

impl NetIf {
    /// Learns the sender of a received ARP packet; answers a request
    /// for our address.
    pub(crate) fn rx_arp(self: &Rc<Self>, chain: Chain<IoBuf>) {
        let pkt = match wire::parse_arp(&chain) {
            Some(p) => p,
            None => return self.drop_frame(),
        };
        // Learn the sender either way.
        if !pkt.spa.is_unspecified() {
            self.arp.insert(pkt.spa, pkt.sha);
        }
        if pkt.oper == wire::ARP_REQUEST && pkt.tpa == self.ip() {
            self.arp_output(wire::ARP_REPLY, pkt.sha, pkt.sha, pkt.spa);
        }
    }

    /// Transmits the first request of resolution `id` (as
    /// [`ArpCache::find`] returned it) and starts its bounded retries.
    pub(crate) fn send_arp_request(self: &Rc<Self>, ip: Ipv4Addr, id: u32) {
        self.arp_output(wire::ARP_REQUEST, MAC_BROADCAST, [0; 6], ip);
        self.arm_arp_retry(ip, id, ARP_RETRY_NS);
    }

    /// Sets the one-shot timer that moves resolution `id` of `ip` one
    /// step on. At most one is pending per resolution: each firing sets
    /// the next.
    fn arm_arp_retry(self: &Rc<Self>, ip: Ipv4Addr, id: u32, delay: Ns) {
        let me = Rc::downgrade(self);
        runtime::with_current(|rt| {
            rt.local_event_manager().set_timer(delay, move || {
                if let Some(n) = me.upgrade() {
                    n.arp_retry_fire(ip, id);
                }
            })
        });
    }

    /// Resolution `id` of `ip` waited out its retry interval. Resolved
    /// or gone meanwhile (the reply may have arrived on another core):
    /// nothing to do. Still pending: one more request with the
    /// interval doubled, or — out of tries — every waiter fails.
    fn arp_retry_fire(self: &Rc<Self>, ip: Ipv4Addr, id: u32) {
        let Some(tries) = self.arp.next_try(ip, id) else {
            return;
        };
        if tries > ARP_MAX_TRIES {
            // Give up: every queued waiter receives the error
            // (connections tear down, datagrams drop) instead of being
            // silently discarded.
            self.stats.arp_failures.bump();
            self.arp.fail(ip);
            return;
        }
        self.arp_output(wire::ARP_REQUEST, MAC_BROADCAST, [0; 6], ip);
        // Doubled per attempt: the first retry waits 2× the base
        // interval.
        self.arm_arp_retry(ip, id, ARP_RETRY_NS << (tries - 1));
    }

    /// Builds and transmits one ARP packet from us to `tha`/`tpa`,
    /// framed to `dst`. Link-layer control bypasses the tx scheduler: a
    /// next-hop resolution must never queue behind a data backlog.
    fn arp_output(&self, oper: u16, dst: Mac, tha: Mac, tpa: Ipv4Addr) {
        let pkt = wire::ArpPacket {
            oper,
            sha: self.mac(),
            spa: self.ip(),
            tha,
            tpa,
        };
        let mut buf = wire::build_arp(&pkt);
        wire::push_eth(
            &mut buf,
            &EthHeader {
                dst,
                src: self.mac(),
                ethertype: wire::ETHERTYPE_ARP,
            },
        );
        self.transmit_now(Chain::single(buf.freeze()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;

    const IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 7);
    const MAC: Mac = [1, 2, 3, 4, 5, 6];

    #[test]
    fn hit_is_synchronous() {
        let cache = ArpCache::new();
        cache.insert(IP, MAC);
        let got = Rc::new(Cell::new(None));
        let g = Rc::clone(&got);
        let resolution = cache.find(IP, move |m| g.set(Some(m)));
        assert_eq!(resolution, None);
        // The continuation already ran — no deferral on the fast path.
        assert_eq!(got.get(), Some(Ok(MAC)));
    }

    #[test]
    fn miss_queues_and_reply_drains_waiters() {
        let cache = ArpCache::new();
        let count = Rc::new(Cell::new(0));
        let (c1, c2) = (Rc::clone(&count), Rc::clone(&count));
        assert!(cache
            .find(IP, move |m| {
                assert_eq!(m, Ok(MAC));
                c1.set(c1.get() + 1);
            })
            .is_some());
        // Second request while pending: no new ARP request.
        assert!(cache
            .find(IP, move |m| {
                assert_eq!(m, Ok(MAC));
                c2.set(c2.get() + 1);
            })
            .is_none());
        assert_eq!(count.get(), 0);
        cache.insert(IP, MAC);
        assert_eq!(count.get(), 2);
        // And the entry is now cached.
        assert_eq!(cache.lookup(IP), Some(MAC));
    }

    #[test]
    fn evict_forces_new_resolution() {
        let cache = ArpCache::new();
        cache.insert(IP, MAC);
        cache.evict(IP);
        assert_eq!(cache.lookup(IP), None);
        assert!(
            cache.find(IP, |_| {}).is_some(),
            "must re-request after eviction"
        );
    }

    #[test]
    fn fail_delivers_error_to_all_waiters() {
        let cache = ArpCache::new();
        let errors = Rc::new(Cell::new(0));
        let (e1, e2) = (Rc::clone(&errors), Rc::clone(&errors));
        let first = cache.find(IP, move |m| {
            assert_eq!(m, Err(ArpTimeout));
            e1.set(e1.get() + 1);
        });
        assert!(first.is_some());
        assert!(cache
            .find(IP, move |m| {
                assert_eq!(m, Err(ArpTimeout));
                e2.set(e2.get() + 1);
            })
            .is_none());
        cache.fail(IP);
        assert_eq!(errors.get(), 2, "every waiter must see the failure");
        // The entry is gone; a new find starts a fresh resolution,
        // which an old retry timer can tell from the failed one.
        let second = cache.find(IP, |_| {});
        assert!(second.is_some() && second != first);
    }

    #[test]
    fn evict_preserves_resolution_retried_from_failure_callback() {
        // A waiter that reacts to the failure by retrying creates a
        // fresh pending entry from inside `fail`; evict must not
        // silently discard it (its waiters would hang forever).
        let cache = Rc::new(ArpCache::new());
        let resolved = Rc::new(Cell::new(None));
        let (c2, r2) = (Rc::clone(&cache), Rc::clone(&resolved));
        assert!(cache
            .find(IP, move |res| {
                assert_eq!(res, Err(ArpTimeout));
                // Retry immediately.
                assert!(c2.find(IP, move |res| r2.set(Some(res))).is_some());
            })
            .is_some());
        cache.evict(IP);
        // The retry's pending entry survived: the eventual reply
        // reaches its waiter.
        cache.insert(IP, MAC);
        assert_eq!(resolved.get(), Some(Ok(MAC)));
    }

    #[test]
    fn fail_is_noop_on_resolved_entries() {
        let cache = ArpCache::new();
        cache.insert(IP, MAC);
        cache.fail(IP);
        assert_eq!(cache.lookup(IP), Some(MAC), "resolved entries survive");
    }

    #[test]
    fn refresh_updates_mac() {
        let cache = ArpCache::new();
        cache.insert(IP, MAC);
        cache.insert(IP, [9; 6]);
        assert_eq!(cache.lookup(IP), Some([9; 6]));
    }
}
