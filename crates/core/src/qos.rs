//! Overload control & QoS primitives: the named per-core counter
//! registry and the per-class fair transmit scheduler.
//!
//! Two building blocks live here, both per-core in the EbbRT sense and
//! both deliberately transport-agnostic (the network stack wires them
//! to frames, the applications to requests):
//!
//! * [`CounterRegistryEbb`] — the generalization of the half-built
//!   `NetStats` pattern: counters are **registered by name** against a
//!   machine-wide root, bumped through plain per-core `Cell`s (no
//!   atomics on the hot path — the interior-mutability contract of
//!   [`MulticoreEbb`]), and read as a **cross-core snapshot** at
//!   quiescence. Lives under the well-known [`SystemEbb::Counters`]
//!   id with a `Default` root, so no setup call is needed anywhere:
//!   the first `register`/`add` on a machine faults everything in.
//! * [`FairScheduler`] — an HFSC-style two-criteria scheduler over a
//!   paced virtual link: every class carries a linear **real-time
//!   service curve** (`rt_bps` — a rate guarantee, honored by earliest
//!   eligible deadline) and a **link-share weight** (`ls_weight` —
//!   proportional division of excess capacity by virtual time). A
//!   [`QosMode::Fifo`] mode paces the identical link with no fairness
//!   at all — the control arm of the overload bench.
//!
//! The surrounding policy vocabulary ([`QosConfig`], [`ClassConfig`],
//! [`ClassId`]) is shared by the network stack's admission control and
//! the applications' shedding configuration, so "class" means the same
//! thing at every layer a request crosses.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use crate::clock::Ns;
use crate::cpu::CoreId;
use crate::ebb::{EbbId, EbbManager, MulticoreEbb, SystemEbb};
use crate::runtime::{self, Runtime};

/// Hard cap on traffic classes: class ids index small fixed arrays on
/// hot paths (per-class budgets, per-class deadlines), and eight is
/// far beyond any tenant taxonomy this system models.
pub const MAX_CLASSES: usize = 8;

/// A traffic class, assigned to a connection at accept/connect time
/// and carried by everything the connection produces (frames on the tx
/// path, requests in the application). Class 0 is the default class —
/// unclassified traffic and control frames land there unless a
/// classifier rule says otherwise.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct ClassId(pub u8);

impl ClassId {
    /// The default class.
    pub const DEFAULT: ClassId = ClassId(0);

    /// The class's index into per-class tables, clamped to the
    /// configured class count.
    pub fn index(self, nclasses: usize) -> usize {
        (self.0 as usize).min(nclasses.saturating_sub(1))
    }
}

/// Scheduler discipline for the paced transmit link.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum QosMode {
    /// HFSC-style two-criteria fair scheduling: real-time curves
    /// first (earliest eligible deadline), link-share virtual time
    /// for the excess.
    Fair,
    /// One global FIFO over the same paced link — no isolation. The
    /// control run of the overload bench: identical pacing, so any
    /// p99 difference is the scheduler's doing, not the link model's.
    Fifo,
}

/// One traffic class's service parameters.
#[derive(Clone, Debug)]
pub struct ClassConfig {
    /// Class name (counter names derive from it).
    pub name: String,
    /// Real-time curve slope: bits/second this class is *guaranteed*
    /// when backlogged (0 = no guarantee, link-share only).
    pub rt_bps: u64,
    /// Link-share weight: the class's proportional claim on capacity
    /// left over after real-time guarantees (≥ 1).
    pub ls_weight: u64,
    /// Admission budget: maximum concurrently admitted (accepted)
    /// connections of this class; further SYNs are rejected fast with
    /// an RST. `None` = unbounded.
    pub conn_budget: Option<usize>,
    /// Request service deadline for application-level shedding: a
    /// queued request older than this when service would begin is
    /// answered with an error instead of served. `None` = never shed.
    pub deadline_ns: Option<u64>,
    /// Syncache budget: maximum *embryonic* (handshake not yet
    /// complete) inbound connections of this class. At the cap a new
    /// SYN either evicts the class's oldest stale embryonic entry or
    /// is shed with an RST — established connections are never
    /// touched, so a SYN flood cannot displace live service.
    /// `None` = unbounded. Sits *below* `conn_budget` in the shed
    /// ladder: admission bounds total live conns, this bounds the
    /// handshake backlog within that.
    pub syn_budget: Option<usize>,
}

impl ClassConfig {
    /// A class with no guarantee, weight 1, no budget, no deadline.
    pub fn new(name: impl Into<String>) -> ClassConfig {
        ClassConfig {
            name: name.into(),
            rt_bps: 0,
            ls_weight: 1,
            conn_budget: None,
            deadline_ns: None,
            syn_budget: None,
        }
    }

    /// Sets the real-time (guaranteed-rate) curve slope.
    pub fn rt_bps(mut self, bps: u64) -> Self {
        self.rt_bps = bps;
        self
    }

    /// Sets the link-share weight (clamped to ≥ 1).
    pub fn ls_weight(mut self, w: u64) -> Self {
        self.ls_weight = w.max(1);
        self
    }

    /// Sets the admission budget.
    pub fn conn_budget(mut self, conns: usize) -> Self {
        self.conn_budget = Some(conns);
        self
    }

    /// Sets the shedding deadline.
    pub fn deadline_ns(mut self, ns: u64) -> Self {
        self.deadline_ns = Some(ns);
        self
    }

    /// Sets the syncache (embryonic-connection) budget.
    pub fn syn_budget(mut self, conns: usize) -> Self {
        self.syn_budget = Some(conns);
        self
    }
}

/// The QoS policy for one machine: link model, discipline, classes.
#[derive(Clone, Debug)]
pub struct QosConfig {
    /// Paced transmit link capacity in bits/second.
    pub link_bps: u64,
    /// Scheduling discipline.
    pub mode: QosMode,
    /// Classes, indexed by [`ClassId`]; class 0 is the default class
    /// and always exists.
    pub classes: Vec<ClassConfig>,
}

impl QosConfig {
    /// A fair-mode config with the default class only.
    pub fn new(link_bps: u64) -> QosConfig {
        assert!(link_bps > 0, "a paced link needs a rate");
        QosConfig {
            link_bps,
            mode: QosMode::Fair,
            classes: vec![ClassConfig::new("default")],
        }
    }

    /// Adds a class, returning its [`ClassId`] implicitly by position.
    pub fn class(mut self, c: ClassConfig) -> Self {
        assert!(self.classes.len() < MAX_CLASSES, "too many classes");
        self.classes.push(c);
        self
    }

    /// Switches to the no-isolation FIFO discipline (control runs).
    pub fn fifo(mut self) -> Self {
        self.mode = QosMode::Fifo;
        self
    }

    /// Looks a class up by name.
    pub fn class_id(&self, name: &str) -> Option<ClassId> {
        self.classes
            .iter()
            .position(|c| c.name == name)
            .map(|i| ClassId(i as u8))
    }
}

// --- CounterRegistry ------------------------------------------------------

/// A handle to one registered counter: an index into every core's cell
/// vector. `Copy + Send` — register once, bump from anywhere on the
/// machine.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CounterHandle(usize);

/// The registry's cross-core root: the name table. Registration is
/// idempotent by name — re-registering returns the existing handle —
/// so independent subsystems (the network stack, an application, a
/// bench) can all "register" the counters they touch without
/// coordinating who goes first.
#[derive(Default)]
pub struct CounterRoot {
    names: Mutex<Vec<String>>,
}

impl CounterRoot {
    /// Registers `name` (or finds it), returning its handle.
    pub fn register(&self, name: &str) -> CounterHandle {
        let mut names = crate::lock(&self.names);
        if let Some(i) = names.iter().position(|n| n == name) {
            return CounterHandle(i);
        }
        names.push(name.to_string());
        CounterHandle(names.len() - 1)
    }

    /// The registered names, in handle order.
    pub fn names(&self) -> Vec<String> {
        crate::lock(&self.names).clone()
    }
}

/// The per-core representative of the counter registry
/// ([`SystemEbb::Counters`]): a growable vector of plain `Cell`
/// counters, indexed by [`CounterHandle`]. Bumps are two loads and a
/// store — no atomics, per the rep interior-mutability contract.
pub struct CounterRegistryEbb {
    root: Arc<CounterRoot>,
    cells: RefCell<Vec<Cell<u64>>>,
}

impl MulticoreEbb for CounterRegistryEbb {
    type Root = CounterRoot;

    fn create_rep(root: &Arc<CounterRoot>, _core: CoreId) -> Self {
        CounterRegistryEbb {
            root: Arc::clone(root),
            cells: RefCell::new(Vec::new()),
        }
    }

    /// Lazily registered: the first `register`/`add` on a machine
    /// faults everything in, root included.
    fn handle_fault(ebbs: &EbbManager, id: EbbId, core: CoreId) -> Self {
        Self::create_rep(&ebbs.root_or_default::<Self>(id), core)
    }
}

impl CounterRegistryEbb {
    /// The shared name table.
    pub fn root(&self) -> &Arc<CounterRoot> {
        &self.root
    }

    /// Adds `n` to this core's cell for `h` (wrapping — see
    /// [`Self::sub`]). The first touch of a handle the vector does not
    /// cover grows it to every handle registered so far, so a core's
    /// counters cost one allocation, not one per counter first bumped
    /// mid-run.
    pub fn add(&self, h: CounterHandle, n: u64) {
        let cells = self.cells.borrow();
        if let Some(c) = cells.get(h.0) {
            c.set(c.get().wrapping_add(n));
            return;
        }
        drop(cells);
        let registered = crate::lock(&self.root.names).len();
        let mut cells = self.cells.borrow_mut();
        cells.resize_with(registered.max(h.0 + 1), || Cell::new(0));
        cells[h.0].set(n);
    }

    /// Subtracts `n` from this core's cell for `h` (wrapping).
    ///
    /// Gauge support: a handle used as a gauge (live counts, queue
    /// depths) increments on one core and may decrement on another,
    /// so an individual core's cell can dip "below zero" — it wraps,
    /// and the modular cross-core sum in [`read_total`] recovers the
    /// exact value as long as the true total is non-negative.
    pub fn sub(&self, h: CounterHandle, n: u64) {
        self.add(h, n.wrapping_neg());
    }

    /// This core's value for `h`.
    pub fn get(&self, h: CounterHandle) -> u64 {
        self.cells.borrow().get(h.0).map(Cell::get).unwrap_or(0)
    }
}

fn registry_root(ebbs: &EbbManager) -> Arc<CounterRoot> {
    ebbs.root_or_default::<CounterRegistryEbb>(SystemEbb::Counters.id())
}

/// Registers (or finds) `name` on the current machine, returning its
/// `Copy + Send` handle. Works from any context — an entered runtime
/// or the ambient one — and needs no prior setup (the registry root
/// lazily self-registers).
pub fn register(name: &str) -> CounterHandle {
    runtime::with_context(|rt, _core| register_in(rt, name))
}

/// As [`register`] against an explicit runtime (machine) — the form
/// used by setup code that has a machine handle but is not executing
/// inside one of its events.
pub fn register_in(rt: &Runtime, name: &str) -> CounterHandle {
    registry_root(rt.ebbs()).register(name)
}

/// Adds `n` to `h` on the calling core.
pub fn add(h: CounterHandle, n: u64) {
    runtime::with_context(|rt, core| {
        rt.ebbs()
            .with_rep_on::<CounterRegistryEbb, _>(core, SystemEbb::Counters.id(), |rep| {
                rep.add(h, n)
            })
    });
}

/// Adds 1 to `h` on the calling core.
pub fn bump(h: CounterHandle) {
    add(h, 1);
}

/// Subtracts `n` from `h` on the calling core (gauge decrement; see
/// [`CounterRegistryEbb::sub`] for the wrapping contract).
pub fn sub(h: CounterHandle, n: u64) {
    runtime::with_context(|rt, core| {
        rt.ebbs()
            .with_rep_on::<CounterRegistryEbb, _>(core, SystemEbb::Counters.id(), |rep| {
                rep.sub(h, n)
            })
    });
}

/// Sums `h` across every core of `rt`.
///
/// # Caller contract
///
/// Inherits [`EbbManager::for_each_rep`]'s quiescence contract: call
/// at a point where no core is concurrently bumping (always true on
/// the simulation backend, where one thread drives every core).
pub fn read_total(rt: &Runtime, h: CounterHandle) -> u64 {
    let mut total = 0u64;
    rt.ebbs()
        .for_each_rep::<CounterRegistryEbb>(SystemEbb::Counters.id(), |_core, rep| {
            // Wrapping: a gauge's per-core cell may have wrapped
            // negative (incremented here, decremented there); the
            // modular sum is still exact.
            total = total.wrapping_add(rep.get(h));
        });
    total
}

/// A cross-core snapshot of every registered counter on one machine.
#[derive(Clone, Debug, Default)]
pub struct CounterSnapshot {
    names: Vec<String>,
    totals: Vec<u64>,
}

impl CounterSnapshot {
    /// The total for `name` (0 if never registered).
    pub fn get(&self, name: &str) -> u64 {
        self.names
            .iter()
            .position(|n| n == name)
            .map(|i| self.totals[i])
            .unwrap_or(0)
    }

    /// Sums every counter whose name starts with `prefix`.
    pub fn sum_prefix(&self, prefix: &str) -> u64 {
        self.names
            .iter()
            .zip(&self.totals)
            .filter(|(n, _)| n.starts_with(prefix))
            .map(|(_, t)| *t)
            .sum()
    }

    /// Iterates `(name, total)` pairs in registration order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.names
            .iter()
            .map(String::as_str)
            .zip(self.totals.iter().copied())
    }
}

/// Snapshots every counter of `rt` across its cores (the central
/// cross-core read; same quiescence contract as [`read_total`]).
pub fn snapshot(rt: &Runtime) -> CounterSnapshot {
    let Some(root) = rt
        .ebbs()
        .root::<CounterRegistryEbb>(SystemEbb::Counters.id())
    else {
        return CounterSnapshot::default();
    };
    let names = root.names();
    let mut totals = vec![0u64; names.len()];
    rt.ebbs()
        .for_each_rep::<CounterRegistryEbb>(SystemEbb::Counters.id(), |_core, rep| {
            for (i, t) in totals.iter_mut().enumerate() {
                *t = t.wrapping_add(rep.get(CounterHandle(i)));
            }
        });
    CounterSnapshot { names, totals }
}

/// Canonical per-class counter names: every layer that counts per
/// class derives names from one place, so a snapshot reads coherently.
pub mod names {
    /// Connections admitted at accept time.
    pub fn admitted(class: &str) -> String {
        format!("qos.{class}.admitted")
    }
    /// Connections rejected fast (budget saturated) at accept time.
    pub fn rejected(class: &str) -> String {
        format!("qos.{class}.rejected")
    }
    /// Requests served to completion.
    pub fn served(class: &str) -> String {
        format!("qos.{class}.served")
    }
    /// Requests shed (answered with an error, not silently dropped).
    pub fn shed(class: &str) -> String {
        format!("qos.{class}.shed")
    }
    /// Requests observed past their deadline at service time.
    pub fn deadline_missed(class: &str) -> String {
        format!("qos.{class}.deadline_missed")
    }
}

// --- The fair scheduler ---------------------------------------------------

/// Virtual-time scale for link-share accounting (bits are multiplied
/// by this before dividing by the weight, so small weights keep
/// integer resolution).
const V_SCALE: u64 = 1 << 10;

const NS_PER_S: u64 = 1_000_000_000;

/// Nanoseconds to serialize `len` bytes at `bps`.
fn tx_ns(len: usize, bps: u64) -> u64 {
    ((len as u64) * 8 * NS_PER_S) / bps.max(1)
}

struct ClassState<T> {
    rt_bps: u64,
    ls_weight: u64,
    q: VecDeque<(usize, T)>,
    /// Real-time eligible time of the next grant (advances by the
    /// curve's serialization time on each real-time service).
    e: Ns,
    /// Link-share virtual time: weighted service received.
    v: u64,
}

/// An HFSC-style per-class scheduler over a paced virtual link,
/// generic over the queued item (the network stack queues frames, the
/// unit tests queue markers).
///
/// Service discipline in [`QosMode::Fair`]:
///
/// 1. **Real-time criterion** — among backlogged classes with a
///    guarantee (`rt_bps > 0`) whose eligible time has arrived
///    (`e ≤ now`), serve the earliest deadline (`e +` head
///    serialization time at `rt_bps`). This is what makes `rt_bps` a
///    *guarantee*: a class with 10% of the link configured gets 10%
///    under any competing load.
/// 2. **Link-share criterion** — otherwise serve the backlogged class
///    with the least weighted virtual time, advancing its `v` by
///    `bits × scale / weight`. Excess capacity divides by weight.
///
/// A class becoming backlogged re-bases: `e` to `max(e, now)` (no
/// banked real-time credit) and `v` to at least the virtual time the
/// link has reached (no catching up on service it never queued for).
///
/// The link itself is paced: each dequeue occupies the wire for the
/// frame's serialization time at `link_bps`, and [`Self::pop`]
/// refuses until the wire is free — [`Self::next_ready`] says when to
/// come back (the caller arms a timer-wheel entry).
pub struct FairScheduler<T> {
    mode: QosMode,
    link_bps: u64,
    classes: Vec<ClassState<T>>,
    fifo_q: VecDeque<(ClassId, usize, T)>,
    /// The paced link is busy until this instant.
    next_free: Ns,
    /// Global link-share virtual time (the `v` of the last class
    /// served; newly backlogged classes re-base to it).
    global_v: u64,
    queued: usize,
}

impl<T> FairScheduler<T> {
    /// Builds a scheduler from `cfg` (class states mirror
    /// `cfg.classes` by index).
    pub fn new(cfg: &QosConfig) -> FairScheduler<T> {
        FairScheduler {
            mode: cfg.mode,
            link_bps: cfg.link_bps,
            classes: cfg
                .classes
                .iter()
                .map(|c| ClassState {
                    rt_bps: c.rt_bps,
                    ls_weight: c.ls_weight.max(1),
                    q: VecDeque::new(),
                    e: 0,
                    v: 0,
                })
                .collect(),
            fifo_q: VecDeque::new(),
            next_free: 0,
            global_v: 0,
            queued: 0,
        }
    }

    /// Queued items across all classes.
    pub fn len(&self) -> usize {
        self.queued
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.queued == 0
    }

    /// Enqueues `item` of wire length `len` for `class`.
    pub fn push(&mut self, class: ClassId, len: usize, item: T, now: Ns) {
        self.queued += 1;
        if self.mode == QosMode::Fifo {
            self.fifo_q.push_back((class, len, item));
            return;
        }
        let i = class.index(self.classes.len());
        let newly_backlogged = self.classes[i].q.is_empty();
        if newly_backlogged {
            let cs = &mut self.classes[i];
            cs.e = cs.e.max(now);
            cs.v = cs.v.max(self.global_v);
        }
        self.classes[i].q.push_back((len, item));
    }

    /// Dequeues the next item the discipline grants, if the paced link
    /// is free. `None` means either nothing is queued or the wire is
    /// busy — disambiguate with [`Self::next_ready`].
    pub fn pop(&mut self, now: Ns) -> Option<(ClassId, T)> {
        if self.queued == 0 || self.next_free > now {
            return None;
        }
        let (class, len, item) = match self.mode {
            QosMode::Fifo => self.fifo_q.pop_front()?,
            QosMode::Fair => self.pop_fair(now)?,
        };
        self.queued -= 1;
        self.next_free = self.next_free.max(now) + tx_ns(len, self.link_bps);
        Some((class, item))
    }

    fn pop_fair(&mut self, now: Ns) -> Option<(ClassId, usize, T)> {
        // Real-time pass: earliest eligible deadline.
        let mut best: Option<(usize, Ns)> = None;
        for (i, cs) in self.classes.iter().enumerate() {
            if cs.rt_bps == 0 || cs.q.is_empty() || cs.e > now {
                continue;
            }
            let d = cs.e + tx_ns(cs.q.front().map(|(l, _)| *l).unwrap_or(0), cs.rt_bps);
            if best.map(|(_, bd)| d < bd).unwrap_or(true) {
                best = Some((i, d));
            }
        }
        let i = match best {
            Some((i, d)) => {
                let cs = &mut self.classes[i];
                // The grant consumes the curve up to its deadline.
                cs.e = d;
                i
            }
            None => {
                // Link-share pass: least weighted virtual time.
                let i = self
                    .classes
                    .iter()
                    .enumerate()
                    .filter(|(_, cs)| !cs.q.is_empty())
                    .min_by_key(|(_, cs)| cs.v)
                    .map(|(i, _)| i)?;
                i
            }
        };
        let cs = &mut self.classes[i];
        let (len, item) = cs.q.pop_front().expect("class was backlogged");
        // Every grant — real-time or link-share — advances the class's
        // virtual time, so guaranteed service is not handed out twice.
        cs.v += (len as u64) * 8 * V_SCALE / cs.ls_weight;
        self.global_v = self.global_v.max(cs.v);
        Some((ClassId(i as u8), len, item))
    }

    /// When the caller should try [`Self::pop`] again: `Some(t)` if
    /// items are queued but the wire is busy until `t`; `None` when
    /// the backlog is empty (nothing to wait for) or a pop would
    /// succeed right now.
    pub fn next_ready(&self, now: Ns) -> Option<Ns> {
        if self.queued == 0 || self.next_free <= now {
            return None;
        }
        Some(self.next_free)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use crate::cpu::CoreId;
    use crate::runtime::{enter, Runtime};

    // --- CounterRegistry ---------------------------------------------------

    #[test]
    fn register_is_idempotent_and_snapshot_sums_across_cores() {
        let rt = Runtime::new(3, Arc::new(ManualClock::new()));
        let h = register_in(&rt, "qos.t.served");
        assert_eq!(h, register_in(&rt, "qos.t.served"));
        let h2 = register_in(&rt, "qos.t.shed");
        assert_ne!(h, h2);
        for core in 0..3u32 {
            let g = enter(Arc::clone(&rt), CoreId(core));
            add(h, (core + 1) as u64);
            if core == 1 {
                bump(h2);
            }
            drop(g);
        }
        assert_eq!(read_total(&rt, h), 1 + 2 + 3);
        let snap = snapshot(&rt);
        assert_eq!(snap.get("qos.t.served"), 6);
        assert_eq!(snap.get("qos.t.shed"), 1);
        assert_eq!(snap.get("qos.t.never"), 0);
        assert_eq!(snap.sum_prefix("qos.t."), 7);
    }

    #[test]
    fn late_registration_reaches_cores_that_already_had_reps() {
        // A rep faulted in before a name existed must still count it:
        // cells grow on first touch of the new handle.
        let rt = Runtime::new(2, Arc::new(ManualClock::new()));
        let early = register_in(&rt, "a");
        register_in(&rt, "a2");
        let g = enter(Arc::clone(&rt), CoreId(0));
        bump(early); // faults the core-0 rep with a cell per name so far
        let cells = rt.ebbs().with_rep_on::<CounterRegistryEbb, _>(
            CoreId(0),
            SystemEbb::Counters.id(),
            |rep| rep.cells.borrow().len(),
        );
        assert_eq!(cells, 2, "the first touch covers every registered name");
        drop(g);
        let late = register_in(&rt, "b");
        let g = enter(Arc::clone(&rt), CoreId(0));
        add(late, 5);
        drop(g);
        assert_eq!(read_total(&rt, late), 5);
        assert_eq!(read_total(&rt, early), 1);
    }

    #[test]
    fn two_runtimes_keep_independent_registries() {
        let rt1 = Runtime::new(1, Arc::new(ManualClock::new()));
        let rt2 = Runtime::new(1, Arc::new(ManualClock::new()));
        let h1 = register_in(&rt1, "x");
        let h2 = register_in(&rt2, "x");
        let g = enter(Arc::clone(&rt1), CoreId(0));
        add(h1, 7);
        drop(g);
        assert_eq!(read_total(&rt1, h1), 7);
        assert_eq!(read_total(&rt2, h2), 0);
    }

    #[test]
    fn a_gauge_cell_below_zero_takes_its_next_increment() {
        // Core 1 takes away more than it added (the rest was added on
        // core 0): its cell wraps below zero, and its next increment
        // must wrap back rather than trip the overflow check.
        let rt = Runtime::new(2, Arc::new(ManualClock::new()));
        let h = register_in(&rt, "gauge");
        let g = enter(Arc::clone(&rt), CoreId(0));
        add(h, 2);
        drop(g);
        let g = enter(Arc::clone(&rt), CoreId(1));
        add(h, 1);
        sub(h, 2);
        assert_eq!(read_total(&rt, h), 1);
        add(h, 1);
        drop(g);
        assert_eq!(read_total(&rt, h), 2);
    }

    // --- FairScheduler -----------------------------------------------------

    fn cfg_two_classes(link_bps: u64) -> QosConfig {
        QosConfig::new(link_bps)
            .class(ClassConfig::new("gold").rt_bps(link_bps / 10).ls_weight(3))
            .class(ClassConfig::new("bulk").ls_weight(1))
    }

    /// Drains the scheduler completely, advancing virtual time along
    /// the paced link, and returns bytes served per class.
    fn drain_all(s: &mut FairScheduler<u32>, mut now: Ns) -> Vec<u64> {
        let mut served = vec![0u64; 4];
        loop {
            match s.pop(now) {
                Some((c, item)) => served[c.0 as usize] += item as u64,
                None => match s.next_ready(now) {
                    Some(t) => now = t,
                    None => break,
                },
            }
        }
        served
    }

    #[test]
    fn fifo_mode_preserves_global_order_and_paces_the_link() {
        let cfg = cfg_two_classes(8_000_000_000).fifo();
        let mut s: FairScheduler<u32> = FairScheduler::new(&cfg);
        s.push(ClassId(2), 1000, 1, 0);
        s.push(ClassId(0), 1000, 2, 0);
        s.push(ClassId(1), 1000, 3, 0);
        assert_eq!(s.pop(0).map(|(_, x)| x), Some(1));
        // 1000 B at 8 Gb/s = 1 µs of wire time.
        assert_eq!(s.pop(0), None);
        assert_eq!(s.next_ready(0), Some(1000));
        assert_eq!(s.pop(1000).map(|(_, x)| x), Some(2));
        assert_eq!(s.pop(2000).map(|(_, x)| x), Some(3));
        assert!(s.is_empty());
        assert_eq!(s.next_ready(2000), None);
    }

    #[test]
    fn link_share_divides_excess_by_weight() {
        // No real-time curves: pure link share, weights 3:1.
        let cfg = QosConfig::new(8_000_000_000)
            .class(ClassConfig::new("a").ls_weight(3))
            .class(ClassConfig::new("b").ls_weight(1));
        let mut s: FairScheduler<u32> = FairScheduler::new(&cfg);
        for _ in 0..400 {
            s.push(ClassId(1), 1000, 1000, 0);
            s.push(ClassId(2), 1000, 1000, 0);
        }
        let served = drain_all(&mut s, 0);
        // Everything drains eventually; fairness shows in the *order*.
        assert_eq!(served[1], 400_000);
        assert_eq!(served[2], 400_000);
        // Check the ratio over the first quarter of the drain instead.
        let mut s: FairScheduler<u32> = FairScheduler::new(&cfg);
        for _ in 0..400 {
            s.push(ClassId(1), 1000, 1000, 0);
            s.push(ClassId(2), 1000, 1000, 0);
        }
        let mut now = 0;
        let (mut a, mut b) = (0u64, 0u64);
        for _ in 0..200 {
            loop {
                if let Some((c, x)) = s.pop(now) {
                    if c == ClassId(1) {
                        a += x as u64;
                    } else {
                        b += x as u64;
                    }
                    break;
                }
                now = s.next_ready(now).unwrap();
            }
        }
        // Weight 3:1 → a gets ~3× b's bytes while both stay backlogged.
        assert!(a >= 2 * b, "link share not weight-proportional: {a} vs {b}");
    }

    #[test]
    fn real_time_curve_guarantees_rate_under_flood() {
        // gold guarantees 10% of an 8 Gb/s link; bulk floods with a
        // huge weight. gold must still see ≥ its guaranteed share.
        let link = 8_000_000_000u64;
        let cfg = QosConfig::new(link)
            .class(ClassConfig::new("gold").rt_bps(link / 10).ls_weight(1))
            .class(ClassConfig::new("bulk").ls_weight(100));
        let mut s: FairScheduler<u32> = FairScheduler::new(&cfg);
        for _ in 0..100 {
            s.push(ClassId(1), 1000, 1, 0);
        }
        for _ in 0..2000 {
            s.push(ClassId(2), 1000, 1, 0);
        }
        // Serve for exactly 1 ms of virtual link time (= 1 MB of wire
        // capacity at 8 Gb/s = 1000 frames).
        let mut now = 0;
        let mut gold = 0u64;
        let mut total = 0u64;
        while now < 1_000_000 {
            match s.pop(now) {
                Some((c, _)) => {
                    total += 1;
                    if c == ClassId(1) {
                        gold += 1;
                    }
                }
                None => match s.next_ready(now) {
                    Some(t) => now = t,
                    None => break,
                },
            }
        }
        // 10% guarantee of 1000 frames ≈ 100 frames; all of gold's
        // backlog clears within the window despite bulk's 100× weight.
        assert!(total >= 900, "link under-served: {total}");
        assert!(
            gold >= 95,
            "real-time guarantee violated: {gold}/{total} frames"
        );
    }

    #[test]
    fn newly_backlogged_class_gets_no_banked_credit() {
        // b idles while a consumes the link, then wakes: b must not
        // burst ahead on "saved up" virtual time — service from the
        // wake point divides by weight (1:1 here).
        let cfg = QosConfig::new(8_000_000_000)
            .class(ClassConfig::new("a").ls_weight(1))
            .class(ClassConfig::new("b").ls_weight(1));
        let mut s: FairScheduler<u32> = FairScheduler::new(&cfg);
        for _ in 0..100 {
            s.push(ClassId(1), 1000, 1, 0);
        }
        let mut now = 0;
        for _ in 0..100 {
            loop {
                if s.pop(now).is_some() {
                    break;
                }
                now = s.next_ready(now).unwrap();
            }
        }
        // b wakes with a deep backlog; a still has traffic arriving.
        for _ in 0..50 {
            s.push(ClassId(1), 1000, 1, now);
            s.push(ClassId(2), 1000, 1, now);
        }
        let mut a = 0;
        let mut b = 0;
        for _ in 0..50 {
            loop {
                if let Some((c, _)) = s.pop(now) {
                    if c == ClassId(1) {
                        a += 1;
                    } else {
                        b += 1;
                    }
                    break;
                }
                now = s.next_ready(now).unwrap();
            }
        }
        // Interleaved ~1:1, not b-first.
        assert!(a >= 20 && b >= 20, "wake-up burst broke fairness: {a}/{b}");
    }

    #[test]
    fn class_id_clamps_to_configured_classes() {
        let cfg = QosConfig::new(1_000_000);
        let mut s: FairScheduler<u32> = FairScheduler::new(&cfg);
        s.push(ClassId(250), 100, 9, 0);
        assert_eq!(s.pop(0), Some((ClassId(0), 9)));
    }
}
