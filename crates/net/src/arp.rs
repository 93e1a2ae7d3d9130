//! The ARP cache and asynchronous resolution (§3.5's Figure 2 path).
//!
//! `ArpFind` resolves an IPv4 address to a MAC. On a cache hit the
//! continuation runs **synchronously in the caller's context** — the
//! fast path the paper's monadic futures are designed around. On a miss
//! the continuation is queued, an ARP request goes out, and the reply
//! handler drains the waiters.
//!
//! (In the C++ system this returns `Future<EthAddr>`; here the
//! continuation is a direct callback because the per-machine stack is
//! single-threaded in the simulation backend — the synchronous-on-hit
//! semantics, which is what Figure 2 demonstrates, is identical and
//! tested.)

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use ebbrt_core::clock::Ns;
use ebbrt_core::event::TimerToken;
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
    /// Resolution in flight; waiters queued.
    Pending(Vec<Box<dyn FnOnce(ArpResult)>>),
}

/// The per-interface ARP cache.
pub struct ArpCache {
    entries: RefCell<HashMap<Ipv4Addr, Entry>>,
    hits: std::cell::Cell<u64>,
    misses: std::cell::Cell<u64>,
}

impl Default for ArpCache {
    fn default() -> Self {
        Self::new()
    }
}

impl ArpCache {
    /// An empty cache.
    pub fn new() -> Self {
        ArpCache {
            entries: RefCell::new(HashMap::new()),
            hits: std::cell::Cell::new(0),
            misses: std::cell::Cell::new(0),
        }
    }

    /// Resolves `ip`, invoking `cont` with the outcome — synchronously
    /// (always `Ok`) if cached. A queued waiter receives `Ok(mac)`
    /// when the reply arrives, or `Err(`[`ArpTimeout`]`)` if the
    /// retries exhaust ([`ArpCache::fail`]). Returns `true` if the
    /// caller must transmit an ARP request (first waiter of a new
    /// pending entry).
    pub fn find(&self, ip: Ipv4Addr, cont: impl FnOnce(ArpResult) + 'static) -> bool {
        let mut entries = self.entries.borrow_mut();
        match entries.get_mut(&ip) {
            Some(Entry::Resolved(mac)) => {
                let mac = *mac;
                drop(entries);
                self.hits.set(self.hits.get() + 1);
                cont(Ok(mac)); // synchronous fast path
                false
            }
            Some(Entry::Pending(waiters)) => {
                waiters.push(Box::new(cont));
                self.misses.set(self.misses.get() + 1);
                false
            }
            None => {
                entries.insert(ip, Entry::Pending(vec![Box::new(cont)]));
                self.misses.set(self.misses.get() + 1);
                true
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
        if let Some(Entry::Pending(waiters)) = prev {
            for w in waiters {
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
            let Some(Entry::Pending(waiters)) = entries.remove(&ip) else {
                unreachable!("checked pending above");
            };
            drop(entries);
            for w in waiters {
                w(Err(ArpTimeout));
            }
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

    /// (hits, misses) counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits.get(), self.misses.get())
    }
}

// --- Resolution on the wire: request, reply, bounded retry ------------------

/// ARP request retransmission interval (doubled per attempt).
pub const ARP_RETRY_NS: Ns = 100_000_000;

/// ARP resolution attempts before the resolution is failed: queued
/// waiters receive `Err(ArpTimeout)` and connections still in SynSent
/// behind it are torn down.
pub const ARP_MAX_TRIES: u32 = 3;

/// In-flight ARP resolution: its retry timer (a persistent entry on the
/// core that initiated the resolution) and attempts so far.
pub(crate) struct ArpRetry {
    timer: TimerToken,
    tries: u32,
}

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

    /// Transmits an ARP request and schedules bounded retries: one
    /// persistent timer entry per in-flight resolution, re-armed with
    /// exponential backoff, failing the pending entry if the peer never
    /// answers.
    pub(crate) fn send_arp_request(self: &Rc<Self>, ip: Ipv4Addr) {
        self.arp_output(wire::ARP_REQUEST, MAC_BROADCAST, [0; 6], ip);
        if self.arp_retries.borrow().contains_key(&ip) {
            return; // a retry timer is already driving this resolution
        }
        let me = Rc::downgrade(self);
        let timer = runtime::with_current(|rt| {
            rt.local_event_manager()
                .set_persistent_timer(ARP_RETRY_NS, move || {
                    if let Some(n) = me.upgrade() {
                        n.arp_retry_fire(ip);
                    }
                })
        });
        self.arp_retries
            .borrow_mut()
            .insert(ip, ArpRetry { timer, tries: 1 });
    }

    fn arp_retry_fire(self: &Rc<Self>, ip: Ipv4Addr) {
        let Some(mut retry) = self.arp_retries.borrow_mut().remove(&ip) else {
            return;
        };
        // Resolved since the timer was armed (the reply may arrive on a
        // different core, so the cancel is lazy — here, on the timer's
        // own core), or out of tries: free the entry.
        let resolved = self.arp.lookup(ip).is_some();
        if resolved || retry.tries >= ARP_MAX_TRIES {
            if !resolved {
                // Give up: every queued waiter receives the error
                // (connections tear down, datagrams drop) instead of
                // being silently discarded.
                self.stats
                    .arp_failures
                    .set(self.stats.arp_failures.get() + 1);
                self.arp.fail(ip);
            }
            runtime::with_current(|rt| rt.local_event_manager().cancel_timer(retry.timer));
            return;
        }
        retry.tries += 1;
        // Doubled per attempt (tries was just incremented, so the
        // first retry waits 2× the base interval).
        let backoff = ARP_RETRY_NS << (retry.tries - 1);
        self.arp_output(wire::ARP_REQUEST, MAC_BROADCAST, [0; 6], ip);
        runtime::with_current(|rt| {
            rt.local_event_manager().reset_timer(retry.timer, backoff);
        });
        self.arp_retries.borrow_mut().insert(ip, retry);
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
        let need_request = cache.find(IP, move |m| g.set(Some(m)));
        assert!(!need_request);
        // The continuation already ran — no deferral on the fast path.
        assert_eq!(got.get(), Some(Ok(MAC)));
        assert_eq!(cache.stats(), (1, 0));
    }

    #[test]
    fn miss_queues_and_reply_drains_waiters() {
        let cache = ArpCache::new();
        let count = Rc::new(Cell::new(0));
        let (c1, c2) = (Rc::clone(&count), Rc::clone(&count));
        assert!(cache.find(IP, move |m| {
            assert_eq!(m, Ok(MAC));
            c1.set(c1.get() + 1);
        }));
        // Second request while pending: no new ARP request.
        assert!(!cache.find(IP, move |m| {
            assert_eq!(m, Ok(MAC));
            c2.set(c2.get() + 1);
        }));
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
        assert!(cache.find(IP, |_| {}), "must re-request after eviction");
    }

    #[test]
    fn fail_delivers_error_to_all_waiters() {
        let cache = ArpCache::new();
        let errors = Rc::new(Cell::new(0));
        let (e1, e2) = (Rc::clone(&errors), Rc::clone(&errors));
        assert!(cache.find(IP, move |m| {
            assert_eq!(m, Err(ArpTimeout));
            e1.set(e1.get() + 1);
        }));
        assert!(!cache.find(IP, move |m| {
            assert_eq!(m, Err(ArpTimeout));
            e2.set(e2.get() + 1);
        }));
        cache.fail(IP);
        assert_eq!(errors.get(), 2, "every waiter must see the failure");
        // The entry is gone; a new find starts a fresh resolution.
        assert!(cache.find(IP, |_| {}));
    }

    #[test]
    fn evict_preserves_resolution_retried_from_failure_callback() {
        // A waiter that reacts to the failure by retrying creates a
        // fresh pending entry from inside `fail`; evict must not
        // silently discard it (its waiters would hang forever).
        let cache = Rc::new(ArpCache::new());
        let resolved = Rc::new(Cell::new(None));
        let (c2, r2) = (Rc::clone(&cache), Rc::clone(&resolved));
        assert!(cache.find(IP, move |res| {
            assert_eq!(res, Err(ArpTimeout));
            // Retry immediately.
            assert!(c2.find(IP, move |res| r2.set(Some(res))));
        }));
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
