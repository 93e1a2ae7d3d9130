//! The workloads the harnesses share.
//!
//! [`Script`] is the closed-loop scripted client the cluster harnesses
//! ([`dist_memcached`](crate::dist_memcached), [`chaos`](crate::chaos))
//! drive: a queue of tagged steps executed one at a time — the next
//! fires when every reply of the last has arrived — with per-phase
//! latency, every reply's status, GET bodies checked against a model,
//! and pool-counter meters bracketing chosen phases. [`GetLoop`] is the
//! warmup-then-measure GET pipeline of the single-server benches.

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use ebbrt_apps::memcached::{self, Client, Header, Workload};
use ebbrt_apps::stats::LatencyRecorder;
use ebbrt_core::clock::Ns;
use ebbrt_core::iobuf::{stats, Chain, IoBuf, MutIoBuf};
use ebbrt_core::runtime::Runtime;

/// One step of a script.
pub enum Step {
    /// Send `frame` (one request, or several back to back — a
    /// pipelined burst) as phase `tag`; the next step waits for every
    /// reply.
    Send {
        frame: IoBuf,
        tag: u8,
        /// For GETs: the value the model says the key holds.
        expect: Option<Vec<u8>>,
    },
    /// Run an action between requests (a fault injection, a ring
    /// growth), then carry straight on.
    Do(Box<dyn Fn()>),
}

impl Step {
    /// A [`Step::Send`] of the encoded `frame`.
    pub fn send(frame: &[u8], tag: u8, expect: Option<Vec<u8>>) -> Step {
        Step::Send {
            frame: IoBuf::copy_from(frame),
            tag,
            expect,
        }
    }
}

/// Writes a script: numbers the opaques and remembers the last value
/// SET per key, which every later GET of that key is checked against.
#[derive(Default)]
pub struct Steps {
    pub steps: Vec<Step>,
    pub model: HashMap<Vec<u8>, Vec<u8>>,
    opaque: u32,
}

impl Steps {
    pub fn set(&mut self, key: &[u8], value: Vec<u8>, tag: u8) {
        self.opaque += 1;
        let frame = memcached::encode_set(key, &value, self.opaque);
        self.steps.push(Step::send(&frame, tag, None));
        self.model.insert(key.to_vec(), value);
    }

    /// `n` GETs of `key`, one step each.
    pub fn gets(&mut self, key: &[u8], n: u32, tag: u8) {
        for _ in 0..n {
            self.opaque += 1;
            let frame = memcached::encode_get(key, self.opaque);
            let expect = self.model.get(key).cloned();
            self.steps.push(Step::send(&frame, tag, expect));
        }
    }
}

/// The pool counters of a set of machines, summed over one phase.
pub struct PhaseMeter {
    tag: u8,
    machines: Vec<Arc<Runtime>>,
    base: Cell<Option<stats::Snapshot>>,
    /// The phase's delta, once the phase has ended.
    pub delta: Cell<Option<stats::Snapshot>>,
}

impl PhaseMeter {
    pub fn new(tag: u8, machines: Vec<Arc<Runtime>>) -> Self {
        PhaseMeter {
            tag,
            machines,
            base: Cell::new(None),
            delta: Cell::new(None),
        }
    }

    /// Called between the step tagged `prev` and the one tagged `next`
    /// (`None` past either end of a segment): brackets the phase.
    fn at_boundary(&self, prev: Option<u8>, next: Option<u8>) {
        if prev == next {
            return;
        }
        let read = || stats::world_snapshot(self.machines.iter().map(|rt| &**rt));
        if next == Some(self.tag) {
            self.base.set(Some(read()));
        }
        if prev == Some(self.tag) {
            if let Some(base) = self.base.take() {
                self.delta.set(Some(read().since(&base)));
            }
        }
    }
}

/// The scripted workload (see the module docs).
pub struct Script {
    steps: RefCell<VecDeque<Step>>,
    /// Close the connection when the queue runs dry (otherwise pause:
    /// the harness refills and [`Script::resume`]s).
    pub close_when_done: Cell<bool>,
    /// Phase and expected value of the step in flight.
    current: RefCell<Option<(u8, Option<Vec<u8>>)>>,
    /// Reply latency per phase tag.
    pub lat: RefCell<Vec<LatencyRecorder>>,
    /// `(phase tag, status)` of every reply.
    pub statuses: RefCell<Vec<(u8, u16)>>,
    /// GET replies whose value contradicted the model.
    pub mismatches: Cell<u32>,
    /// Requests sent.
    pub requests: Cell<u32>,
    pub meters: Vec<PhaseMeter>,
}

impl Script {
    pub fn new(steps: Vec<Step>, ntags: usize, meters: Vec<PhaseMeter>) -> Script {
        Script {
            steps: RefCell::new(steps.into()),
            close_when_done: Cell::new(true),
            current: RefCell::new(None),
            lat: RefCell::new((0..ntags).map(|_| LatencyRecorder::new()).collect()),
            statuses: RefCell::new(Vec::new()),
            mismatches: Cell::new(0),
            requests: Cell::new(0),
            meters,
        }
    }

    /// Whether every step has run and been answered.
    pub fn finished(&self) -> bool {
        self.current.borrow().is_none() && self.steps.borrow().is_empty()
    }

    /// Queues `steps` behind a drained script and carries on (from an
    /// event on the client's core).
    pub fn resume(&self, client: &Client<Self>, steps: Vec<Step>) {
        self.steps.borrow_mut().extend(steps);
        self.fire_next(client);
    }

    /// Mean reply latency of phase `tag`, in virtual µs.
    pub fn mean_us(&self, tag: u8) -> f64 {
        self.lat.borrow()[tag as usize].mean() / 1000.0
    }

    fn fire_next(&self, client: &Client<Self>) {
        loop {
            let step = self.steps.borrow_mut().pop_front();
            let prev = self.current.borrow().as_ref().map(|c| c.0);
            let next = match &step {
                Some(Step::Send { tag, .. }) => Some(*tag),
                Some(Step::Do(_)) => prev,
                None => None,
            };
            for meter in &self.meters {
                meter.at_boundary(prev, next);
            }
            match step {
                None => {
                    *self.current.borrow_mut() = None;
                    if self.close_when_done.get() {
                        client.close();
                    }
                    return;
                }
                Some(Step::Do(action)) => action(),
                Some(Step::Send { frame, tag, expect }) => {
                    *self.current.borrow_mut() = Some((tag, expect));
                    let _ = client.send(Chain::single(frame));
                    let sent = client.in_flight() as u32;
                    self.requests.set(self.requests.get() + sent);
                    return;
                }
            }
        }
    }
}

impl Workload for Script {
    fn on_connected(&self, client: &Client<Self>) {
        self.fire_next(client);
    }

    fn on_reply(&self, client: &Client<Self>, h: &Header, value: Chain<IoBuf>, latency_ns: Ns) {
        let (tag, expect) = self.current.borrow().clone().expect("reply to a step");
        self.lat.borrow_mut()[tag as usize].record(latency_ns);
        self.statuses.borrow_mut().push((tag, h.status));
        if let Some(want) = expect {
            if h.status == memcached::STATUS_OK && value.copy_to_vec() != want {
                self.mismatches.set(self.mismatches.get() + 1);
            }
        }
        if client.in_flight() == 0 {
            self.fire_next(client);
        }
    }
}

/// Closed-loop GETs of one key: `depth` outstanding, one new request
/// per reply; `warmup` replies, then `steady` measured ones, then
/// close. The request is frozen once and descriptor-cloned per send,
/// and replies are dropped unread — the client is inside the zero-copy
/// property too. `at_edge(true)` runs as the measured phase starts,
/// `at_edge(false)` as it ends.
pub struct GetLoop<F: Fn(bool) + 'static> {
    request: IoBuf,
    depth: u32,
    warmup_left: Cell<u32>,
    /// Measured replies still to come (0 once the workload completed).
    pub remaining: Cell<u32>,
    /// Virtual time at the two edges of the measured phase.
    pub steady_ns: [Cell<u64>; 2],
    at_edge: F,
}

impl<F: Fn(bool) + 'static> GetLoop<F> {
    pub fn new(key: &[u8], depth: u32, warmup: u32, steady: u32, at_edge: F) -> Self {
        GetLoop {
            request: MutIoBuf::from_vec(memcached::encode_get(key, 1)).freeze(),
            depth,
            warmup_left: Cell::new(warmup),
            remaining: Cell::new(steady),
            steady_ns: Default::default(),
            at_edge,
        }
    }

    fn fire(&self, client: &Client<Self>) {
        let _ = client.send(Chain::single(self.request.clone()));
    }

    fn edge(&self, start: bool) {
        let now = ebbrt_core::runtime::with_current(|rt| rt.now_ns());
        self.steady_ns[usize::from(!start)].set(now);
        (self.at_edge)(start);
    }
}

impl<F: Fn(bool) + 'static> Workload for GetLoop<F> {
    fn on_connected(&self, client: &Client<Self>) {
        for _ in 0..self.depth {
            self.fire(client);
        }
    }

    fn on_reply(&self, client: &Client<Self>, _h: &Header, _value: Chain<IoBuf>, _latency: Ns) {
        if self.warmup_left.get() > 0 {
            self.warmup_left.set(self.warmup_left.get() - 1);
            if self.warmup_left.get() == 0 {
                self.edge(true);
            }
            self.fire(client);
        } else if self.remaining.get() > 0 {
            self.remaining.set(self.remaining.get() - 1);
            if self.remaining.get() == 0 {
                self.edge(false);
                client.close();
            } else {
                self.fire(client);
            }
        }
    }
}
