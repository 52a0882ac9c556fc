//! `perfbench` — one measured repetition of one benchmark workload.
//!
//! `run.py` builds this binary, runs it in a fresh process per
//! repetition, and turns the repetitions into the benchmark's metrics.
//! Every subcommand prints one JSON object as its last line of stdout.
//!
//! ```text
//! perfbench offline --workload W --seed N --report REPORT.json [--smoke]
//! perfbench trace   --workload W --seed N --out TRACE.json [--smoke]
//! perfbench client  --addr HOST:PORT --seed N --requests N [--out TRACE.json]
//! perfbench replay  --log LOG.json --report REPORT.json --tes N --out TRACE.json
//! ```
//!
//! `offline` sets up and runs one offline workload untraced and writes its
//! rendered `RunReport` to REPORT.json, from which `run.py` takes the
//! simulated-latency metrics and the report digest. `trace` runs
//! it untraced and then traced (one span per event instant), checks the
//! two reports are byte-identical, and prints the per-layer metrics.
//! `client` drives a running `serve` with a closed-loop streaming client.
//! `replay` times `deepserve_gateway::log::replay` of a served session
//! log, checks it against the live report, and steps the replay one
//! instant at a time for the cluster's per-layer metrics.

mod client;
mod drive;
mod spans;
mod workload;

use deepserve::{ClusterSim, IngressRecord};
use deepserve_gateway::{build_sim, log};
use serde::{Number, Value};
use simcore::Samples;
use std::net::SocketAddr;
use std::process::ExitCode;
use std::time::Instant;
use workload::{Feed, Inputs, Offline};

/// Instant spans written to a Chrome trace file, at most; the per-layer
/// numbers always use every span.
const TRACE_FILE_INSTANTS: usize = 100_000;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("usage: perfbench offline|trace|client|replay [flags]");
        return ExitCode::FAILURE;
    };
    let flags = Flags(rest.to_vec());
    let out = match cmd.as_str() {
        "offline" => offline(&flags),
        "trace" => trace(&flags),
        "client" => gateway_client(&flags),
        "replay" => replay(&flags),
        other => Err(format!("unknown subcommand {other:?}")),
    };
    match out {
        Ok(v) => {
            println!("{}", v.to_json());
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("perfbench {cmd}: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// `--name value` flags plus bare `--name` switches.
struct Flags(Vec<String>);

impl Flags {
    fn get(&self, name: &str) -> Result<&str, String> {
        let flag = format!("--{name}");
        self.0
            .iter()
            .position(|a| *a == flag)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag} <value>"))
    }

    fn num<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        let v = self.get(name)?;
        v.parse()
            .map_err(|_| format!("--{name} expects a number, got {v:?}"))
    }

    fn has(&self, name: &str) -> bool {
        self.0.iter().any(|a| *a == format!("--{name}"))
    }

    fn workload(&self) -> Result<Offline, String> {
        let name = self.get("workload")?;
        Offline::named(name, self.has("smoke"))
            .ok_or_else(|| format!("unknown offline workload {name:?}"))
    }
}

fn num(x: f64) -> Value {
    Value::Number(Number::F64(x))
}

fn int(x: u64) -> Value {
    Value::Number(Number::U64(x))
}

fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn metrics_obj(pairs: &[(&'static str, f64)]) -> Value {
    obj(pairs.iter().map(|(k, v)| (*k, num(*v))).collect())
}

/// The trace's input properties, for the report every run prints.
fn inputs_obj(w: &Offline, inputs: &Inputs) -> Value {
    let n = inputs.requests.max(1) as f64;
    obj(vec![
        ("tes", int(w.roles.len() as u64)),
        ("roles", Value::String(w.roles_text())),
        ("requests", int(inputs.requests)),
        ("offered_rps", num(w.rps)),
        (
            "measured_rps",
            num(workload::ratio(inputs.requests as f64, inputs.span_s)),
        ),
        ("streamed", Value::Bool(w.streamed())),
        ("prompt_tokens", int(inputs.prompt_tokens)),
        ("mean_prompt_tokens", num(inputs.prompt_tokens as f64 / n)),
        ("mean_output_tokens", num(inputs.output_tokens as f64 / n)),
        ("shared_token_share", num(inputs.shared_token_share())),
    ])
}

/// Output checks shared by every offline run: everything generated was
/// admitted and completed, nothing failed, and the engines produced
/// exactly the output tokens the trace asked for.
fn outcome_obj(run: &drive::Run, inputs: &Inputs) -> Value {
    obj(vec![
        ("generated", int(inputs.requests)),
        ("sent", int(run.sent)),
        ("completed", int(run.report.latency.completed())),
        ("failed", int(run.report.failed)),
        ("output_tokens_requested", int(inputs.output_tokens)),
        ("output_tokens_engine", int(run.engine.output_tokens)),
        (
            "output_tokens_report",
            int(run.report.latency.total_output_tokens()),
        ),
    ])
}

fn offline_run(w: &Offline, seed: u64, traced: bool) -> drive::Run {
    drive::run(
        || ClusterSim::new(w.config(), &w.roles),
        || w.feed(seed),
        traced,
    )
}

fn offline(flags: &Flags) -> Result<Value, String> {
    let w = flags.workload()?;
    let seed: u64 = flags.num("seed")?;
    let report = flags.get("report")?;
    let run = offline_run(&w, seed, false);
    std::fs::write(report, &run.json).map_err(|e| format!("cannot write {report}: {e}"))?;
    let inputs = Inputs::of(&w.specs(seed));
    Ok(obj(vec![
        ("setup_s", num(run.setup.total_s)),
        ("run_s", num(run.run_s)),
        ("outcome", outcome_obj(&run, &inputs)),
        ("inputs", inputs_obj(&w, &inputs)),
    ]))
}

/// Writes a Chrome trace of `rec`'s spans to `path`.
fn write_trace(path: &str, rec: &spans::Recorder, process: &str) -> Result<(), String> {
    let is_instant =
        |s: &spans::Span| matches!(s.layer, spans::Layer::Dispatch | spans::Layer::Engine);
    let json = spans::chrome_json(&rec.spans, process, TRACE_FILE_INSTANTS, is_instant);
    std::fs::write(path, json).map_err(|e| format!("cannot write {path}: {e}"))
}

/// What a traced run reports.
struct Traced {
    metrics: Vec<(&'static str, f64)>,
    /// The self-time table of the traced run.
    table: String,
    /// The program's layers' self time over the traced `run_s`.
    coverage: f64,
    /// Whether the traced and untraced reports are byte-identical.
    identical: bool,
}

/// Per-layer metrics, traced-vs-untraced identity and the self-time table
/// of one traced run, whose Chrome trace goes to `out`. `cold` is the
/// untraced run a fresh process makes first (set-up figures come from it);
/// `warm` is an untraced run after the traced one, so the tracing overhead
/// compares two warm runs.
fn traced_pair(
    cold: &drive::Run,
    traced: &drive::Run,
    warm: &drive::Run,
    inputs: &Inputs,
    out: &str,
    process: &str,
) -> Result<Traced, String> {
    let Some((rec, root)) = &traced.trace else {
        return Err("traced run recorded no spans".into());
    };
    let run_start = rec.spans[*root].start;
    let rows = spans::self_by_layer(&rec.spans, |s| s.start >= run_start);
    write_trace(out, rec, process)?;
    Ok(Traced {
        metrics: drive::layer_metrics(traced, cold, warm, inputs),
        table: spans::self_table(&rows, traced.run_s),
        coverage: workload::ratio(spans::layer_sum(&rows), traced.run_s),
        identical: cold.json == traced.json && warm.json == traced.json,
    })
}

fn trace(flags: &Flags) -> Result<Value, String> {
    let w = flags.workload()?;
    let seed: u64 = flags.num("seed")?;
    let out = flags.get("out")?;
    let inputs = Inputs::of(&w.specs(seed));
    let cold = offline_run(&w, seed, false);
    let traced = offline_run(&w, seed, true);
    let warm = offline_run(&w, seed, false);
    let t = traced_pair(&cold, &traced, &warm, &inputs, out, w.name)?;
    Ok(obj(vec![
        ("identical", Value::Bool(t.identical)),
        ("outcome", outcome_obj(&traced, &inputs)),
        ("metrics", metrics_obj(&t.metrics)),
        ("table", Value::String(t.table)),
        ("coverage", num(t.coverage)),
    ]))
}

/// p50 and p99 of `xs` (nearest rank, as the report's own summaries).
fn p50_p99(xs: impl Iterator<Item = f64>) -> (f64, f64, usize) {
    let mut s = Samples::new();
    for x in xs {
        s.record(x);
    }
    let n = s.len();
    (
        s.percentile(0.50).unwrap_or(0.0),
        s.percentile(0.99).unwrap_or(0.0),
        n,
    )
}

fn gateway_client(flags: &Flags) -> Result<Value, String> {
    let addr: SocketAddr = flags
        .get("addr")?
        .parse()
        .map_err(|e| format!("bad --addr: {e}"))?;
    let epoch = Instant::now();
    let (xs, run_s) = client::drive(addr, flags.num("seed")?, flags.num("requests")?, epoch);
    let ok = xs.iter().filter(|x| x.ok()).count() as u64;
    let (ttft50, ttft99, ttft_n) = p50_p99(xs.iter().filter_map(client::Exchange::ttft_ms));
    let (tpot50, tpot99, tpot_n) = p50_p99(xs.iter().filter_map(client::Exchange::tpot_ms));
    let (head50, head99, _) = p50_p99(
        xs.iter()
            .map(|x| x.head.saturating_sub(x.start) as f64 / 1e6),
    );
    let (busy50, _, _) = p50_p99(xs.iter().map(|x| (x.done - x.start) as f64 / 1e6));
    let (ft50, _, _) = p50_p99(
        xs.iter()
            .filter_map(|x| Some((x.frames.first()? - x.head) as f64 / 1e6)),
    );
    let (_, gap99, gap_n) = p50_p99(
        xs.iter()
            .flat_map(|x| x.frames.windows(2).map(|w| (w[1] - w[0]) as f64 / 1e6)),
    );
    let mut fields = vec![
        ("sent", int(xs.len() as u64)),
        ("succeeded", int(ok)),
        ("failed", int(xs.len() as u64 - ok)),
        ("run_s", num(run_s)),
        ("busy_ms_p50", num(busy50)),
        ("max_tokens", int(u64::from(client::MAX_TOKENS))),
        ("turns", int(client::TURNS as u64)),
        ("turn_words", int(client::TURN_WORDS as u64)),
        (
            "wall",
            metrics_obj(&[
                ("wall_ttft_p50_ms", ttft50),
                ("wall_ttft_p99_ms", ttft99),
                ("wall_tpot_p50_ms", tpot50),
                ("wall_tpot_p99_ms", tpot99),
                ("ttft_samples", ttft_n as f64),
                ("tpot_samples", tpot_n as f64),
            ]),
        ),
        (
            "gateway",
            metrics_obj(&[
                ("gateway.head_ms_p50", head50),
                ("gateway.head_ms_p99", head99),
                ("gateway.first_token_ms_p50", ft50),
                ("gateway.frame_gap_ms_p99", gap99),
                ("frame_gaps", gap_n as f64),
            ]),
        ),
    ];
    if flags.has("out") {
        let rec = client::record(&xs, epoch);
        write_trace(flags.get("out")?, &rec, "gateway client")?;
        let rows = spans::self_by_layer(&rec.spans, |_| true);
        fields.push(("table", Value::String(spans::self_table(&rows, run_s))));
        fields.push((
            "coverage",
            num(workload::ratio(spans::layer_sum(&rows), run_s)),
        ));
    }
    Ok(obj(fields))
}

fn replay(flags: &Flags) -> Result<Value, String> {
    let tes: usize = flags.num("tes")?;
    let read = |name: &str| -> Result<String, String> {
        let path = flags.get(name)?;
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
    };
    let parse = Instant::now();
    let records = log::from_json(&read("log")?)?;
    let reqs: Vec<_> = records.iter().map(IngressRecord::to_request).collect();
    let parse_s = parse.elapsed().as_secs_f64();
    let live = read("report")?;
    let start = Instant::now();
    let mut report = log::replay(&records, || build_sim(tes));
    let replayed = report.to_json().to_json();
    let replay_s = start.elapsed().as_secs_f64();

    let feed = || Feed::Requests(reqs.clone());
    let cold = drive::run(|| build_sim(tes), feed, false);
    let traced = drive::run(|| build_sim(tes), feed, true);
    let warm = drive::run(|| build_sim(tes), feed, false);
    let inputs = Inputs::of_requests(&reqs);
    let out = flags.get("out")?;
    let mut t = traced_pair(&cold, &traced, &warm, &inputs, out, "gateway replay")?;
    // The replay's trace input is the session log: parsing it and
    // rebuilding the requests is its generation step.
    for (name, value) in &mut t.metrics {
        if *name == "workloads.gen_s" {
            *value = parse_s;
        }
    }
    Ok(obj(vec![
        ("identical", Value::Bool(replayed == live)),
        (
            "traced_identical",
            Value::Bool(t.identical && cold.json == live),
        ),
        ("replay_s", num(replay_s)),
        ("metrics", metrics_obj(&t.metrics)),
        ("table", Value::String(t.table)),
        ("coverage", num(t.coverage)),
    ]))
}
