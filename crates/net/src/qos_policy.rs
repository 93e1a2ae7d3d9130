//! Overload control: classification, admission, transmit scheduling.
//!
//! [`NetIf::install_qos`] puts a [`QosPolicy`] on the interface —
//! classifier rules and per-class connection budgets, consulted once
//! per SYN — and a [`QosEbb`] on every core, which paces classed frames
//! onto the wire through a [`FairScheduler`].

use std::cell::{Cell, RefCell};
use std::rc::{Rc, Weak};
use std::sync::Arc;

use ebbrt_core::cpu::CoreId;
use ebbrt_core::ebb::{not_installed, EbbId, EbbManager, EbbRef, MulticoreEbb, NoRoot, SystemEbb};
use ebbrt_core::event::TimerToken;
use ebbrt_core::iobuf::{Chain, IoBuf};
use ebbrt_core::qos::{self, ClassId, Counter, FairScheduler, QosConfig, MAX_CLASSES};
use ebbrt_core::runtime::{self, Runtime};

use crate::netif::NetIf;
use crate::types::Ipv4Addr;

/// One classifier predicate: which connections a [`QosRule`] captures.
#[derive(Clone, Copy, Debug)]
pub enum QosMatch {
    /// Inbound connections accepted on this listening port.
    LocalPort(u16),
    /// Outbound connections to this remote port.
    RemotePort(u16),
    /// Either direction, by peer address (the tenant-by-IP rule the
    /// overload bench uses to tell its clients apart).
    Peer(Ipv4Addr),
}

impl QosMatch {
    /// `port` is the listening port of an `inbound` connection, the
    /// remote port of an outbound one.
    fn matches(&self, inbound: bool, port: u16, peer: Ipv4Addr) -> bool {
        match *self {
            QosMatch::LocalPort(p) => inbound && p == port,
            QosMatch::RemotePort(p) => !inbound && p == port,
            QosMatch::Peer(ip) => ip == peer,
        }
    }
}

/// A classifier rule: connections matching `m` belong to `class`.
#[derive(Clone, Copy, Debug)]
pub struct QosRule {
    /// The predicate.
    pub m: QosMatch,
    /// The class matched connections are assigned.
    pub class: ClassId,
}

/// One class's ledger ([`qos::names`]): admission is counted here, at
/// accept time; serving and shedding by the application that serves
/// the class's requests.
pub struct ClassCounters {
    /// Connections admitted.
    pub admitted: Counter,
    /// Connections rejected fast (budget saturated).
    pub rejected: Counter,
    /// Requests served to completion.
    pub served: Counter,
    /// Requests shed (answered with an error).
    pub shed: Counter,
    /// Requests observed past their deadline at service time.
    pub deadline_missed: Counter,
}

/// The machine's installed QoS policy: the [`QosConfig`], the
/// classifier rules, the per-class admission budgets, and each class's
/// counters. Shared by every core of the machine (all cores of a
/// simulated machine run on the one world thread, so plain cells
/// suffice — the same contract as the rest of [`NetIf`]).
pub struct QosPolicy {
    config: QosConfig,
    rules: RefCell<Vec<QosRule>>,
    /// Currently admitted (live) connections per class.
    live: [Cell<usize>; MAX_CLASSES],
    counters: Vec<Rc<ClassCounters>>,
}

impl QosPolicy {
    pub(crate) fn new(config: QosConfig, rt: &Arc<Runtime>) -> QosPolicy {
        let counters = config
            .classes
            .iter()
            .map(|c| {
                let n = &c.name;
                Rc::new(ClassCounters {
                    admitted: Counter::new(rt, &qos::names::admitted(n)),
                    rejected: Counter::new(rt, &qos::names::rejected(n)),
                    served: Counter::new(rt, &qos::names::served(n)),
                    shed: Counter::new(rt, &qos::names::shed(n)),
                    deadline_missed: Counter::new(rt, &qos::names::deadline_missed(n)),
                })
            })
            .collect();
        QosPolicy {
            config,
            rules: RefCell::new(Vec::new()),
            live: Default::default(),
            counters,
        }
    }

    /// `class`'s counters.
    pub fn counters(&self, class: ClassId) -> &Rc<ClassCounters> {
        &self.counters[class.index(self.config.classes.len())]
    }

    /// The installed configuration.
    pub fn config(&self) -> &QosConfig {
        &self.config
    }

    /// `class`'s embryonic-connection cap, if it has one.
    pub(crate) fn syn_budget(&self, class: ClassId) -> Option<usize> {
        self.config.classes[class.index(self.config.classes.len())].syn_budget
    }

    /// Adds a classifier rule. First match wins, except that a
    /// [`QosMatch::Peer`] rule always beats a port rule (most
    /// specific first).
    pub fn add_rule(&self, m: QosMatch, class: ClassId) {
        assert!(
            (class.0 as usize) < self.config.classes.len(),
            "rule names unconfigured class {class:?}"
        );
        self.rules.borrow_mut().push(QosRule { m, class });
    }

    /// Classifies an inbound connection at accept time.
    pub fn classify_accept(&self, local_port: u16, peer: Ipv4Addr) -> ClassId {
        self.classify(|m| m.matches(true, local_port, peer))
    }

    /// Classifies an outbound connection at connect time.
    pub fn classify_connect(&self, remote_port: u16, peer: Ipv4Addr) -> ClassId {
        self.classify(|m| m.matches(false, remote_port, peer))
    }

    fn classify(&self, hit: impl Fn(&QosMatch) -> bool) -> ClassId {
        let rules = self.rules.borrow();
        rules
            .iter()
            .find(|r| matches!(r.m, QosMatch::Peer(_)) && hit(&r.m))
            .or_else(|| rules.iter().find(|r| hit(&r.m)))
            .map_or(ClassId::DEFAULT, |r| r.class)
    }

    /// Takes one unit of `class`'s admission budget. `false` — with
    /// the rejection counted — means the class is saturated and the
    /// SYN must be answered with an RST (reject-fast: the peer learns
    /// *now*, instead of timing out against a silently dropped SYN).
    pub fn try_admit(&self, class: ClassId) -> bool {
        let i = class.index(self.config.classes.len());
        let live = &self.live[i];
        if let Some(budget) = self.config.classes[i].conn_budget {
            if live.get() >= budget {
                self.counters[i].rejected.bump();
                return false;
            }
        }
        live.set(live.get() + 1);
        self.counters[i].admitted.bump();
        true
    }

    /// Returns an admitted connection's budget unit (at cleanup).
    pub fn release(&self, class: ClassId) {
        let i = class.index(self.config.classes.len());
        let live = &self.live[i];
        debug_assert!(live.get() > 0, "release without admit for {class:?}");
        live.set(live.get().saturating_sub(1));
    }

    /// Currently admitted connections of `class`.
    pub fn live(&self, class: ClassId) -> usize {
        self.live[class.index(self.config.classes.len())].get()
    }
}

/// The per-core representative of the machine's **transmit scheduler
/// Ebb** ([`SystemEbb::Qos`]): each core owns a [`FairScheduler`] over
/// its share of the paced link, so classed frames queue and dequeue
/// without any cross-core coordination — the per-core-rep pattern
/// applied to packet scheduling. Installed by [`NetIf::install_qos`];
/// absent (and costing nothing) until then.
pub struct QosEbb {
    netif: Weak<NetIf>,
    sched: RefCell<FairScheduler<Chain<IoBuf>>>,
    /// The core's pacing timer, while one is pending: set when the wire
    /// is busy with frames still queued, moved O(1) while it waits.
    timer: Cell<Option<TimerToken>>,
}

impl MulticoreEbb for QosEbb {
    type Root = NoRoot;

    fn create_rep(root: &Arc<NoRoot>, _: CoreId) -> Self {
        match **root {}
    }

    fn handle_fault(_: &EbbManager, id: EbbId, core: CoreId) -> Self {
        not_installed(id, core, "NetIf::install_qos")
    }
}

/// The well-known [`EbbRef`] of the current machine's tx scheduler.
pub(crate) fn qos_ref() -> EbbRef<QosEbb> {
    EbbRef::well_known(SystemEbb::Qos)
}

impl QosEbb {
    pub(crate) fn new(netif: Weak<NetIf>, config: &QosConfig) -> QosEbb {
        QosEbb {
            netif,
            sched: RefCell::new(FairScheduler::new(config)),
            timer: Cell::new(None),
        }
    }

    /// Queues a classed frame and drains whatever the discipline and
    /// the paced wire allow right now.
    pub(crate) fn enqueue(&self, class: ClassId, frame: Chain<IoBuf>) {
        let Some(netif) = self.netif.upgrade() else {
            return;
        };
        let now = netif.runtime().now_ns();
        self.sched.borrow_mut().push(class, frame.len(), frame, now);
        self.drain(&netif);
    }

    /// Dequeues every frame the scheduler grants while the wire is
    /// free; if a backlog remains (wire busy), arms the pacing timer
    /// for the instant the wire frees up.
    fn drain(&self, netif: &Rc<NetIf>) {
        loop {
            let now = netif.runtime().now_ns();
            let granted = self.sched.borrow_mut().pop(now);
            match granted {
                Some((_class, frame)) => netif.transmit_now(frame),
                None => break,
            }
        }
        let now = netif.runtime().now_ns();
        let Some(ready_at) = self.sched.borrow().next_ready(now) else {
            return;
        };
        let delay = ready_at.saturating_sub(now).max(1);
        runtime::with_current(|rt| {
            let em = rt.local_event_manager();
            match self.timer.get() {
                Some(tok) => {
                    let ok = em.reset_timer(tok, delay);
                    debug_assert!(ok, "pacing timer token went stale (off-core use?)");
                }
                // The closure captures nothing: it re-resolves this
                // core's rep through the translation table.
                None => self.timer.set(Some(em.set_timer(delay, || {
                    qos_ref().with(|rep| {
                        rep.timer.set(None);
                        if let Some(n) = rep.netif.upgrade() {
                            rep.drain(&n);
                        }
                    });
                }))),
            }
        });
    }

    /// Frames queued on this core (diagnostic).
    pub fn backlog(&self) -> usize {
        self.sched.borrow().len()
    }
}
