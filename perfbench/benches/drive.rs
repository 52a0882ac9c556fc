//! One offline run: set-up, the measured run, and the traced variant that
//! steps the simulation one event instant at a time.

use crate::spans::{self, Layer, Recorder, Span, Timed};
use crate::workload::{ratio, Feed, Inputs};
use deepserve::{ClusterSim, RunReport};
use flowserve::EngineStats;
use std::time::Instant;

/// Where set-up time went, and resident memory right after it.
#[derive(Clone, Copy, Debug)]
pub struct SetupTimes {
    /// Trace generation and materialization (0 for a streamed trace,
    /// whose generation happens during the run).
    pub gen_s: f64,
    pub new_s: f64,
    pub total_s: f64,
    pub rss_mb: f64,
}

/// One finished run.
pub struct Run {
    pub setup: SetupTimes,
    /// From the first event to the rendered report.
    pub run_s: f64,
    pub report: RunReport,
    /// `RunReport::to_json` rendered: the byte-comparable output.
    pub json: String,
    /// Engine totals at the end of the run.
    pub engine: EngineStats,
    pub events: u64,
    /// Requests the cluster admitted.
    pub sent: u64,
    /// Spans of a traced run; `root` is the span covering `run_s`.
    pub trace: Option<(Recorder, usize)>,
}

/// Sets up a cluster with `build`, feeds it `feed`, and runs it to
/// completion. A traced run records spans and steps one event instant at
/// a time; its report must equal the untraced one byte for byte.
pub fn run(build: impl FnOnce() -> ClusterSim, feed: impl FnOnce() -> Feed, traced: bool) -> Run {
    let t0 = Instant::now();
    let mut rec = traced.then(|| Recorder::new(t0));
    let feed = feed();
    let t1 = Instant::now();
    let mut sim = build();
    let t2 = Instant::now();
    match feed {
        Feed::Requests(reqs) => sim.inject(reqs),
        Feed::Stream(stream) if traced => sim.inject_stream(Timed::new(stream, t0)),
        Feed::Stream(stream) => sim.inject_stream(stream),
    }
    let t3 = Instant::now();
    let secs = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64();
    let setup = SetupTimes {
        gen_s: secs(t0, t1),
        new_s: secs(t1, t2),
        total_s: secs(t0, t3),
        rss_mb: proc_status_mb("VmRSS"),
    };
    if let Some(rec) = &mut rec {
        let root = rec.push(Layer::Setup, "setup", (t0, t3), None);
        rec.push(Layer::Workloads, "generate", (t0, t1), Some(root));
        rec.push(Layer::Setup, "ClusterSim::new", (t1, t2), Some(root));
        let inject = rec.push(Layer::Setup, "inject", (t2, t3), Some(root));
        rec.claim_pulls(Some(inject));
    }

    let start = Instant::now();
    let (mut report, root) = match &mut rec {
        None => (sim.run_to_completion(), None),
        Some(rec) => {
            let (report, root) = step_instants(&mut sim, rec, start);
            (report, Some(root))
        }
    };
    let render = Instant::now();
    let json = report.to_json().to_json();
    let end = Instant::now();
    if let (Some(rec), Some(root)) = (&mut rec, root) {
        rec.push(Layer::Report, "to_json", (render, end), Some(root));
        rec.spans[root].end = rec.ns(end);
    }
    Run {
        setup,
        run_s: secs(start, end),
        report,
        json,
        engine: sim.engine_stats_total(),
        events: sim.events_processed(),
        sent: sim.progress().1,
        trace: rec.zip(root),
    }
}

/// Drives `sim` one event instant at a time (`next_event_time`, then
/// `step_until` it), one span per instant covering both calls. An instant
/// is an arrival if `progress()` shows an admission during it. Returns the
/// report of the final `run_to_completion` and the index of the root span,
/// whose self time is the loop's own bookkeeping.
fn step_instants(sim: &mut ClusterSim, rec: &mut Recorder, start: Instant) -> (RunReport, usize) {
    let root = rec.push(Layer::Bench, "run", (start, start), None);
    let mut events = sim.events_processed();
    let mut iters = sim.engine_stats_total().iterations;
    loop {
        let admitted = sim.progress().1;
        let begin = Instant::now();
        let Some(t) = sim.next_event_time() else {
            break;
        };
        sim.step_until(t);
        let end = Instant::now();
        let (layer, name) = if sim.progress().1 > admitted {
            (Layer::Dispatch, "arrival")
        } else {
            (Layer::Engine, "wake")
        };
        let idx = rec.push(layer, name, (begin, end), Some(root));
        let (e, i) = (sim.events_processed(), sim.engine_stats_total().iterations);
        rec.spans[idx].events = e - events;
        rec.spans[idx].iters = i - iters;
        (events, iters) = (e, i);
        rec.claim_pulls(Some(idx));
    }
    let begin = Instant::now();
    let report = sim.run_to_completion();
    rec.push(
        Layer::Report,
        "run_to_completion",
        (begin, Instant::now()),
        Some(root),
    );
    (report, root)
}

/// A `/proc/self/status` memory field in megabytes (0 where the file is
/// missing, as off Linux).
pub fn proc_status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field) && l[field.len()..].starts_with(':'))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Sum of the named report counters.
pub fn counters(report: &RunReport, names: &[&str]) -> u64 {
    names.iter().map(|n| report.metrics.counter_value(n)).sum()
}

/// Per-layer metrics of a traced run. Set-up figures come from `cold`, the
/// untraced run a fresh process made first; the tracing overhead compares
/// against `warm`, an untraced run made after the traced one.
pub fn layer_metrics(
    traced: &Run,
    cold: &Run,
    warm: &Run,
    inputs: &Inputs,
) -> Vec<(&'static str, f64)> {
    let Some((rec, root)) = &traced.trace else {
        return Vec::new();
    };
    let spans = &rec.spans;
    let own = spans::self_times(spans);
    let in_run = |s: &Span| s.start >= spans[*root].start;
    let sum_self = |layer: Layer| -> f64 {
        spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.layer == layer && in_run(s))
            .map(|(_, ns)| *ns as f64 * 1e-9)
            .sum()
    };
    let arrivals: Vec<&Span> = spans
        .iter()
        .filter(|s| s.layer == Layer::Dispatch)
        .collect();
    let wakes: Vec<(f64, u64)> = spans
        .iter()
        .zip(&own)
        .filter(|(s, _)| s.layer == Layer::Engine)
        .map(|(s, ns)| (*ns as f64 * 1e-9, s.iters))
        .collect();
    let wake_s: f64 = wakes.iter().map(|w| w.0).sum();
    let wake_iters: u64 = wakes.iter().map(|w| w.1).sum();
    let arrival_s = sum_self(Layer::Dispatch);
    let pull_s = sum_self(Layer::Workloads);
    let run_s = traced.run_s;

    let r = &traced.report;
    let decisions = counters(
        r,
        &[
            "je.rr",
            "je.load",
            "je.locality",
            "je.pd",
            "je.combined_locality",
            "je.combined_load",
        ],
    );
    let locality = counters(r, &["je.locality", "je.combined_locality"]);
    vec![
        (
            "workloads.gen_s",
            if pull_s > 0.0 {
                pull_s
            } else {
                cold.setup.gen_s
            },
        ),
        ("workloads.prompt_tokens", inputs.prompt_tokens as f64),
        ("workloads.shared_token_share", inputs.shared_token_share()),
        ("cluster.new_s", cold.setup.new_s),
        ("rss.setup_mb", cold.setup.rss_mb),
        ("cluster.arrival_s", arrival_s),
        (
            "cluster.arrival_us",
            1e6 * ratio(arrival_s, arrivals.len() as f64),
        ),
        (
            "cluster.arrival_iters",
            arrivals.iter().map(|s| s.iters).sum::<u64>() as f64,
        ),
        ("je.decisions", decisions as f64),
        (
            "je.locality_share",
            ratio(locality as f64, decisions as f64),
        ),
        ("cluster.wake_s", wake_s),
        (
            "cluster.wake_us_per_iter",
            1e6 * ratio(wake_s, wake_iters as f64),
        ),
        ("cluster.step_cost_growth", step_cost_growth(&wakes)),
        ("cluster.events", traced.events as f64),
        ("engine.iterations", traced.engine.iterations as f64),
        (
            "engine.ff_share",
            ratio(
                traced.engine.ff_iterations as f64,
                traced.engine.iterations as f64,
            ),
        ),
        ("engine.preemptions", traced.engine.preemptions as f64),
        (
            "rtc.hit_share",
            ratio(
                counters(r, &["engine.cache_hit_tokens"]) as f64,
                inputs.prompt_tokens as f64,
            ),
        ),
        (
            "rtc.tree_blocks",
            counters(r, &["rtc.inserted_blocks"]).saturating_sub(counters(r, &["rtc.evict_drop"]))
                as f64,
        ),
        (
            "rtc.swap_out_tokens",
            counters(r, &["rtc.swap_out_tokens"]) as f64,
        ),
        (
            "rtc.populate_tokens",
            counters(r, &["rtc.populate_tokens"]) as f64,
        ),
        (
            "sim.kv_migrations",
            counters(r, &["sim.kv_migrations"]) as f64,
        ),
        ("distflow.bytes", counters(r, &["distflow.bytes"]) as f64),
        ("cluster.report_s", sum_self(Layer::Report)),
        ("trace.run_s", run_s),
        ("trace.overhead_frac", ratio(run_s, warm.run_s) - 1.0),
    ]
}

/// Wake cost per iteration in the last quarter of the wake instants over
/// the first quarter: above 1 when an engine step gets dearer as the run's
/// history grows.
fn step_cost_growth(wakes: &[(f64, u64)]) -> f64 {
    let q = wakes.len() / 4;
    if q == 0 {
        return 0.0;
    }
    let per_iter = |part: &[(f64, u64)]| {
        ratio(
            part.iter().map(|w| w.0).sum(),
            part.iter().map(|w| w.1).sum::<u64>() as f64,
        )
    };
    ratio(per_iter(&wakes[wakes.len() - q..]), per_iter(&wakes[..q]))
}
