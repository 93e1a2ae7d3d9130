//! perf_ledger — the repository's wall-clock + virtual-time benchmark.
//!
//! Five workloads, nine end-to-end metrics, a per-layer ledger and a
//! traced run; see README.md beside this package for what every name
//! means. A run of a workload is forty rounds; each round is a fresh
//! child process of this binary building a fresh world from its own
//! sub-seed, single-threaded (the simulation is one thread), with
//! every reply checked; a metric is a robust summary over the rounds.
//!
//! ```text
//! perf_ledger --workload W --seed S --seconds T --trace 0|1   one run; last line is the result object
//! perf_ledger [--seed S] [--seconds T]                        the whole ledger, every workload, both runs
//! perf_ledger --repeat N [--vary-seed]                        end-to-end set N times: min/median/max/spread vs bound
//! perf_ledger --check                                         same seed twice + another seed: exactness and seed wiring
//! perf_ledger --print-benchmark-json                          BENCHMARK.json, from the same tables
//! ```

mod alloc;
mod child;
mod gen;
mod kernels;
mod load;
mod measure;
mod spec;
mod trace;
mod worlds;

use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use measure::{median_quartiles, quantile, sorted};
use spec::{Kind, Metric, END_TO_END, PER_LAYER, RUN_SECONDS};
use worlds::WORKLOAD_PARAMS;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Nominal host time of one round. Rounds are short because, on the
/// seed commit, the simulator's cost per request grows with the age of
/// a world and turns chaotic in old worlds (see README.md).
pub const ROUND_SECONDS: f64 = 0.25;
/// `--check` runs at this fraction of the request counts.
const CHECK_DIVISOR: f64 = 50.0;

/// Where traces and the results file go, relative to the working
/// directory.
pub const OUT_DIR: &str = "target/perf_ledger";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    repeat: Option<usize>,
    vary_seed: bool,
    check: bool,
    print_json: bool,
    child: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: None,
        repeat: None,
        vary_seed: false,
        check: false,
        print_json: false,
        child: None,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => a.workload = Some(value("--workload")?),
            "--seed" => {
                a.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--repeat" => {
                a.repeat = Some(
                    value("--repeat")?
                        .parse()
                        .map_err(|e| format!("--repeat: {e}"))?,
                )
            }
            "--child" => a.child = Some(value("--child")?),
            "--trace" => {
                // `--trace` alone or `--trace 0|1`.
                a.trace = Some(match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                })
            }
            "--vary-seed" => a.vary_seed = true,
            "--check" => a.check = true,
            "--print-benchmark-json" => a.print_json = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(a.seconds > 0.0 && a.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    if let Some(w) = &a.workload {
        if worlds::params(w).is_none() {
            return Err(format!("unknown workload {w}"));
        }
    }
    Ok(a)
}

// --- Parent side: children, tables, files ------------------------------------

/// What one child reported.
#[derive(Default)]
struct ChildReport {
    metrics: Vec<(String, f64, String)>,
    info: Vec<(String, f64)>,
    /// Span name → (count, total ns, self ns), all per request.
    spans: Vec<(String, f64, f64, f64)>,
}

impl ChildReport {
    fn info(&self, key: &str) -> f64 {
        self.info
            .iter()
            .find(|(k, _)| k == key)
            .map_or(0.0, |(_, v)| *v)
    }

    fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }
}

fn spawn_child(mode: &str, workload: &str, seed: u64, seconds: f64) -> Result<ChildReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--child", mode, "--workload", workload])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {mode} child: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let mut r = ChildReport::default();
    for line in text.lines() {
        let mut f = line.splitn(4, ' ');
        match (f.next(), f.next(), f.next()) {
            (Some("M"), Some(name), Some(v)) => {
                let v = v
                    .parse()
                    .map_err(|e| format!("bad value in {line:?}: {e}"))?;
                r.metrics
                    .push((name.into(), v, f.next().unwrap_or("").into()));
            }
            (Some("I"), Some(key), Some(v)) => {
                let v = v
                    .parse()
                    .map_err(|e| format!("bad value in {line:?}: {e}"))?;
                r.info.push((key.into(), v));
            }
            (Some("S"), Some(name), Some(count)) => {
                let rest: Vec<f64> = f
                    .next()
                    .unwrap_or("")
                    .split(' ')
                    .filter_map(|x| x.parse().ok())
                    .collect();
                if let (Ok(c), [total, own]) = (count.parse(), rest.as_slice()) {
                    r.spans.push((name.into(), c, *total, *own));
                }
            }
            _ => {}
        }
    }
    if !out.status.success() {
        return Err(format!(
            "{mode} child of {workload} exited with {}",
            out.status
        ));
    }
    Ok(r)
}

/// One run of one workload: the rounds of the untraced measurement,
/// or the traced round.
struct Run {
    report: ChildReport,
    attempted: u64,
    failed: u64,
    correct: bool,
}

/// The seed of round `round` of a run seeded `seed`.
fn round_seed(seed: u64, round: u64) -> u64 {
    gen::mix64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ round)
}

fn run_one(workload: &str, seed: u64, seconds: f64, traced: bool) -> Result<Run, String> {
    let rounds = if traced {
        1
    } else {
        ((seconds / ROUND_SECONDS).round() as u64).max(1)
    };
    let mode = if traced { "trace" } else { "measure" };
    let reports: Vec<ChildReport> = (0..rounds)
        .map(|r| spawn_child(mode, workload, round_seed(seed, r), seconds))
        .collect::<Result<_, _>>()?;
    let total = |key: &str| reports.iter().map(|r| r.info(key)).sum::<f64>();
    let attempted = total("attempted") as u64;
    let failed = total("failed") as u64;
    let correct = failed == 0 && attempted > 0 && reports.iter().all(|r| r.info("balanced") == 1.0);
    let verified = total("verified");
    let report = if traced {
        reports.into_iter().next().expect("one traced round")
    } else {
        // Over the rounds: the lower decile of a host-time, memory or
        // allocation figure (a noisy neighbour, or a world in which
        // the simulator takes a bad turn, only ever adds, so the quiet
        // end of the distribution is the part that repeats); the
        // median of the set-up time; the mean of a virtual-time figure
        // (exact for a seed; the rounds are samples); and the verified
        // share of all requests.
        let mut merged = ChildReport::default();
        for m in &END_TO_END {
            let per_round: Vec<f64> = reports
                .iter()
                .map(|r| match m.name {
                    "setup_s" => r.info("setup_s"),
                    name => r.metric(name).unwrap_or(0.0),
                })
                .collect();
            let (med, q1, q3) = median_quartiles(&per_round);
            let (value, how) = match (m.name, m.kind) {
                ("ok_frac", _) => (verified / attempted.max(1) as f64, "share"),
                ("setup_s", _) => (med, "median"),
                (_, Kind::Virtual) => (per_round.iter().sum::<f64>() / rounds as f64, "mean"),
                _ => (quantile(&sorted(per_round), 0.1), "lower decile"),
            };
            let note = reports[0]
                .metrics
                .iter()
                .find(|(n, _, _)| n == m.name)
                .map_or("", |(_, _, note)| note.as_str());
            merged.metrics.push((
                m.name.into(),
                value,
                format!("{how} of {rounds} rounds: q1={q1:.4} median={med:.4} q3={q3:.4} {note}"),
            ));
        }
        // The round streams, folded, identify the run's request stream.
        let hash = reports
            .iter()
            .fold(0u64, |h, r| gen::mix64(h ^ r.info("stream_hash").to_bits()));
        merged.info.push(("stream_hash".into(), hash as f64));
        merged
    };
    Ok(Run {
        report,
        attempted,
        failed,
        correct,
    })
}

fn percent(bound: f64) -> String {
    format!("{}%", bound * 100.0)
}

fn print_run(workload: &str, defs: &[Metric], run: &Run) {
    for m in defs {
        let Some((_, v, note)) = run.report.metrics.iter().find(|(n, _, _)| n == m.name) else {
            continue;
        };
        let bound = if m.bound > 0.0 {
            format!(" bound={}", percent(m.bound))
        } else {
            String::new()
        };
        println!(
            "{workload:<13} {:<40} {v:>16.4} {:<9} [{}{bound}] {note}",
            m.name,
            m.unit,
            m.kind.label()
        );
    }
}

/// The per-layer ledger of one workload: `ops/req × ns/op` for every
/// kernel beside the span self times.
fn print_ledger(workload: &str, run: &Run) {
    let r = &run.report;
    let m = |n: &str| r.metric(n).unwrap_or(0.0);
    let untraced = r.info("untraced_host_ns_per_req");
    println!(
        "--- {workload}: where {untraced:.0} host ns/req go (untraced); traced {:.0} ---",
        r.info("traced_host_ns_per_req")
    );
    println!(
        "{:<34} {:>10} {:>10} {:>12}",
        "kernel estimate", "ops/req", "ns/op", "ns/req"
    );
    let rx = m("net.netif.rx_frames_per_req");
    let tx = m("net.netif.tx_frames_per_req");
    for (label, ops, ns) in [
        (
            "sim.world step",
            m("sim.world.steps_per_req"),
            m("sim.world.step_ns"),
        ),
        (
            "core.event dispatch",
            r.info("events_per_req"),
            m("core.event.dispatch_ns"),
        ),
        (
            "core.timer arm+cancel",
            m("core.event.timers_per_req"),
            m("core.timer.arm_cancel_ns"),
        ),
        (
            "core.iobuf cycle (per frame)",
            rx + tx,
            m("core.iobuf.cycle_ns"),
        ),
        (
            "core.rcu_hash get (rx demux)",
            rx,
            m("core.rcu_hash.get_ns"),
        ),
        (
            "net.conn_slab get (rx demux)",
            rx,
            m("net.conn_slab.get_ns"),
        ),
        ("net.wire parse (rx frame)", rx, m("net.wire.parse_ns")),
        ("net.wire build (tx frame)", tx, m("net.wire.build_ns")),
        ("apps.memcached codec", 1.0, m("apps.memcached.codec_ns")),
        (
            "apps.memcached store get",
            1.0,
            m("apps.memcached.store_get_ns"),
        ),
        (
            "apps.memcached store set",
            1.0,
            m("apps.memcached.store_set_ns"),
        ),
        (
            "hosted.messenger rtt",
            m("hosted.remote.shipped_per_req"),
            m("hosted.messenger.rtt_host_ns"),
        ),
    ] {
        println!("{label:<34} {ops:>10.3} {ns:>10.1} {:>12.1}", ops * ns);
    }
    println!(
        "{:<34} {:>10} {:>10} {:>12}",
        "span (traced run)", "count/req", "total/req", "self/req"
    );
    for (name, count, total, own) in &r.spans {
        println!("{name:<34} {count:>10.3} {total:>10.1} {own:>12.1}");
    }
    println!(
        "trace.layer_sum_frac {:.3} (attributed / untraced)   trace.overhead_frac {:.3} (traced / untraced - 1)",
        m("trace.layer_sum_frac"),
        m("trace.overhead_frac")
    );
}

fn git_sha() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// One row per (workload, metric) of every run made by this
/// invocation: `target/perf_ledger/results.json`.
fn write_results(rows: &[(String, u64, &Metric, f64)]) {
    let sha = git_sha();
    let mut out = String::from("[\n");
    for (i, (workload, seed, m, v)) in rows.iter().enumerate() {
        let _ = writeln!(
            out,
            "  {{\"git_sha\":\"{sha}\",\"seed\":{seed},\"workload\":\"{workload}\",\"metric\":\"{}\",\"unit\":\"{}\",\"value\":{},\"kind\":\"{}\"}}{}",
            m.name,
            m.unit,
            json_num(*v),
            m.kind.label(),
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    out.push_str("]\n");
    if let Err(e) = std::fs::create_dir_all(OUT_DIR)
        .and_then(|_| std::fs::write(format!("{OUT_DIR}/results.json"), out))
    {
        eprintln!("perf_ledger: cannot write results.json: {e}");
    }
}

fn rows_of<'a>(
    workload: &str,
    seed: u64,
    defs: &'a [Metric],
    run: &Run,
    rows: &mut Vec<(String, u64, &'a Metric, f64)>,
) {
    for m in defs {
        if let Some(v) = run.report.metric(m.name) {
            rows.push((workload.to_string(), seed, m, v));
        }
    }
}

/// The result object the driver reads from the last line of output.
fn result_line(defs: &[Metric], run: &Run) -> String {
    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        run.correct,
        run.attempted.max(1),
        run.failed
    );
    for (i, m) in defs.iter().enumerate() {
        let _ = write!(
            json,
            "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            if i > 0 { ", " } else { "" },
            m.name,
            json_num(run.report.metric(m.name).unwrap_or(0.0)),
            m.unit
        );
    }
    json.push_str("}}");
    json
}

/// `--repeat N`: the end-to-end set N times; fails when a metric's
/// spread (interquartile distance over median) exceeds its bound.
fn repeat_mode(a: &Args, n: usize, workloads: &[&str]) -> Result<ExitCode, String> {
    let mut ok = true;
    let mut rows = Vec::new();
    for w in workloads {
        let mut samples: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
        for i in 0..n {
            let seed = if a.vary_seed {
                a.seed + i as u64
            } else {
                a.seed
            };
            let run = run_one(w, seed, a.seconds, false)?;
            if !run.correct {
                println!(
                    "{w}: run {i} (seed {seed}) failed {} of {} requests",
                    run.failed, run.attempted
                );
                ok = false;
            }
            for (k, m) in END_TO_END.iter().enumerate() {
                samples[k].push(run.report.metric(m.name).unwrap_or(0.0));
            }
            rows_of(w, seed, &END_TO_END, &run, &mut rows);
        }
        for (k, m) in END_TO_END.iter().enumerate() {
            let s = sorted(samples[k].clone());
            let (med, q1, q3) = median_quartiles(&s);
            let spread = if med != 0.0 {
                (q3 - q1).abs() / med.abs()
            } else {
                0.0
            };
            // setup_s is judged on its median only, as the driver does.
            let within = spread <= m.bound || m.name == "setup_s";
            ok &= within;
            println!(
                "{w:<13} {:<22} min {:>14.4} median {med:>14.4} max {:>14.4} {:<9} spread {:>7.3}% bound {:>5} {}",
                m.name,
                s[0],
                s[s.len() - 1],
                m.unit,
                spread * 100.0,
                percent(m.bound),
                if within { "ok" } else { "SPREAD EXCEEDS BOUND" }
            );
        }
    }
    write_results(&rows);
    Ok(exit_code(ok))
}

/// `--check`: each workload twice with one seed and once with another,
/// at 1/50 of the request counts. Virtual-time metrics and counts must
/// be bit-identical for equal seeds, and the generated request stream
/// must differ between seeds.
fn check_mode(a: &Args, workloads: &[&str]) -> Result<ExitCode, String> {
    let seconds = a.seconds / CHECK_DIVISOR;
    let mut ok = true;
    for w in workloads {
        let mut pair = Vec::new();
        for traced in [false, true] {
            let runs: Vec<Run> = [a.seed, a.seed, a.seed + 1]
                .iter()
                .map(|&s| run_one(w, s, seconds, traced))
                .collect::<Result<_, _>>()?;
            pair.push(runs);
        }
        let mut exact = 0;
        for (runs, defs) in pair.iter().zip([&END_TO_END[..], &PER_LAYER[..]]) {
            for m in defs.iter().filter(|m| m.kind != Kind::Host) {
                let (x, y) = (runs[0].report.metric(m.name), runs[1].report.metric(m.name));
                if x.map(f64::to_bits) == y.map(f64::to_bits) {
                    exact += 1;
                } else {
                    println!(
                        "{w}: {} differs between equal seeds: {x:?} vs {y:?}",
                        m.name
                    );
                    ok = false;
                }
            }
            if !runs.iter().all(|r| r.correct) {
                println!("{w}: a check run failed requests");
                ok = false;
            }
        }
        let h = |i: usize| pair[0][i].report.info("stream_hash");
        if h(0) != h(1) || h(0) == h(2) {
            println!(
                "{w}: request stream hash {} / {} / {}: the seed is not wired through",
                h(0),
                h(1),
                h(2)
            );
            ok = false;
        }
        println!("{w:<13} {exact} virtual/count metrics bit-identical for equal seeds; stream differs for another seed: {}", h(0) != h(2));
    }
    if ok {
        println!("check passed");
    }
    Ok(exit_code(ok))
}

/// The ledger: every chosen workload, untraced run then traced run,
/// every metric by name with its unit. With one workload and one
/// `--trace` value (the driver's call) the result object follows as
/// the last line, and failed requests are reported in it, not by the
/// exit code.
fn ledger_mode(a: &Args, workloads: &[&str]) -> Result<ExitCode, String> {
    let driver = a.workload.is_some() && a.trace.is_some();
    let mut rows = Vec::new();
    let mut ok = true;
    for w in workloads {
        for traced in [false, true] {
            if a.trace.is_some_and(|t| t != traced) {
                continue;
            }
            let run = run_one(w, a.seed, a.seconds, traced)?;
            let defs: &[Metric] = if traced { &PER_LAYER } else { &END_TO_END };
            print_run(w, defs, &run);
            if traced {
                print_ledger(w, &run);
            }
            rows_of(w, a.seed, defs, &run, &mut rows);
            if driver {
                println!("{}", result_line(defs, &run));
            } else {
                println!(
                    "{w}: attempted {} failed {} correct {}",
                    run.attempted, run.failed, run.correct
                );
                ok &= run.correct;
            }
        }
    }
    write_results(&rows);
    Ok(exit_code(ok))
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn benchmark_json() -> String {
    let mut s = String::from("{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"-q\", \"--manifest-path\", \"perf_ledger/Cargo.toml\", \"--\"],\n  \"paths\": [\"perf_ledger\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOAD_PARAMS.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{}",
            w.name,
            w.why,
            if i + 1 < WORKLOAD_PARAMS.len() {
                ","
            } else {
                ""
            }
        );
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    let better = |m: &Metric| if m.lower_is_better { "lower" } else { "higher" };
    for (i, m) in END_TO_END.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{}",
            m.name,
            m.unit,
            better(m),
            m.bound,
            if i + 1 < END_TO_END.len() { "," } else { "" }
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{}",
            m.name,
            m.unit,
            better(m),
            if i + 1 < PER_LAYER.len() { "," } else { "" }
        );
    }
    s.push_str("  ]\n}\n");
    s
}

fn main() -> ExitCode {
    let started = Instant::now();

    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perf_ledger: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(mode) = &a.child {
        let name = a.workload.as_deref().expect("child has a workload");
        return child::run(mode, name, a.seed, a.seconds, started);
    }
    if a.print_json {
        print!("{}", benchmark_json());
        return ExitCode::SUCCESS;
    }
    let all: Vec<&str> = WORKLOAD_PARAMS.iter().map(|w| w.name).collect();
    let chosen: Vec<&str> = match &a.workload {
        Some(w) => vec![w.as_str()],
        None => all,
    };
    let outcome = if a.check {
        check_mode(&a, &chosen)
    } else if let Some(n) = a.repeat {
        repeat_mode(&a, n.max(1), &chosen)
    } else {
        ledger_mode(&a, &chosen)
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("perf_ledger: {e}");
        ExitCode::from(2)
    })
}
