//! Spans recorded from the benchmark's own files, around the calls
//! into each layer. Spans nest on one stack (the simulation is one
//! thread); a span's self time is its duration minus its children's.
//! Aggregates are kept per name; the first [`RAW_CAP`] raw spans are
//! kept too and written out when the run ends.

use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::time::Instant;

/// Span names, indexed by the `SPAN_*` constants.
pub const NAMES: [&str; 5] = [
    "world.step",
    "server.app.on_receive",
    "client.app.on_receive",
    "client.app.send",
    "client.app.arrival",
];
pub const SPAN_STEP: u8 = 0;
pub const SPAN_SERVER_RX: u8 = 1;
pub const SPAN_CLIENT_RX: u8 = 2;
pub const SPAN_CLIENT_SEND: u8 = 3;
pub const SPAN_CLIENT_ARRIVAL: u8 = 4;

/// Request opaque of a span that belongs to no single request.
pub const NO_OPAQUE: u32 = u32::MAX;

const RAW_CAP: usize = 100_000;

#[derive(Clone, Copy, Default)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

struct Open {
    name: u8,
    opaque: u32,
    start_ns: u64,
    child_ns: u64,
    /// Index of this span's slot in `raw`, if it got one.
    raw_idx: i32,
}

struct Raw {
    name: u8,
    opaque: u32,
    start_ns: u64,
    end_ns: u64,
    parent: i32,
}

struct State {
    epoch: Instant,
    stack: Vec<Open>,
    aggs: [Agg; NAMES.len()],
    raw: Vec<Raw>,
}

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static STATE: RefCell<Option<State>> = const { RefCell::new(None) };
}

/// Starts recording (clearing anything recorded before).
pub fn start() {
    STATE.with(|s| {
        *s.borrow_mut() = Some(State {
            epoch: Instant::now(),
            stack: Vec::with_capacity(8),
            aggs: Default::default(),
            raw: Vec::with_capacity(RAW_CAP),
        })
    });
    ENABLED.with(|e| e.set(true));
}

/// Stops recording; what was recorded stays readable.
pub fn stop() {
    ENABLED.with(|e| e.set(false));
}

#[inline]
pub fn enabled() -> bool {
    ENABLED.with(|e| e.get())
}

/// Runs `f` inside a span when tracing is on, plainly otherwise.
#[inline]
pub fn scope<R>(name: u8, opaque: u32, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    begin(name, opaque);
    let r = f();
    end();
    r
}

fn begin(name: u8, opaque: u32) {
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        let st = s.as_mut().expect("tracing started");
        let raw_idx = if st.raw.len() < RAW_CAP {
            let parent = st.stack.last().map_or(-1, |o| o.raw_idx);
            st.raw.push(Raw {
                name,
                opaque,
                start_ns: 0,
                end_ns: 0,
                parent,
            });
            (st.raw.len() - 1) as i32
        } else {
            -1
        };
        let start_ns = st.epoch.elapsed().as_nanos() as u64;
        st.stack.push(Open {
            name,
            opaque,
            start_ns,
            child_ns: 0,
            raw_idx,
        });
    });
}

fn end() {
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        let st = s.as_mut().expect("tracing started");
        let end_ns = st.epoch.elapsed().as_nanos() as u64;
        let open = st.stack.pop().expect("span end without begin");
        let dur = end_ns - open.start_ns;
        let agg = &mut st.aggs[open.name as usize];
        agg.count += 1;
        agg.total_ns += dur;
        agg.self_ns += dur.saturating_sub(open.child_ns);
        if let Some(parent) = st.stack.last_mut() {
            parent.child_ns += dur;
        }
        if open.raw_idx >= 0 {
            let r = &mut st.raw[open.raw_idx as usize];
            r.start_ns = open.start_ns;
            r.end_ns = end_ns;
            r.opaque = open.opaque;
        }
    });
}

/// Per-name aggregates recorded since [`start`].
pub fn aggregates() -> [Agg; NAMES.len()] {
    STATE.with(|s| s.borrow().as_ref().map_or(Default::default(), |st| st.aggs))
}

/// The trace file: aggregates plus the first raw spans, as
/// `[name index, start ns, end ns, parent span index or -1, opaque or -1]`.
pub fn to_json(workload: &str, seed: u64) -> String {
    STATE.with(|s| {
        let s = s.borrow();
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"time\":\"host ns since trace start\",\"names\":["
        );
        for (i, n) in NAMES.iter().enumerate() {
            let _ = write!(out, "{}\"{n}\"", if i > 0 { "," } else { "" });
        }
        out.push_str("],\"aggregates\":[");
        let Some(st) = s.as_ref() else {
            out.push_str("],\"spans\":[]}");
            return out;
        };
        for (i, a) in st.aggs.iter().enumerate() {
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                if i > 0 { "," } else { "" },
                NAMES[i],
                a.count,
                a.total_ns,
                a.self_ns
            );
        }
        out.push_str("],\"span_fields\":[\"name\",\"start_ns\",\"end_ns\",\"parent\",\"opaque\"],\"spans\":[");
        for (i, r) in st.raw.iter().enumerate() {
            let opaque = if r.opaque == NO_OPAQUE {
                -1
            } else {
                r.opaque as i64
            };
            let _ = write!(
                out,
                "{}[{},{},{},{},{}]",
                if i > 0 { "," } else { "" },
                r.name,
                r.start_ns,
                r.end_ns,
                r.parent,
                opaque
            );
        }
        out.push_str("]}");
        out
    })
}
