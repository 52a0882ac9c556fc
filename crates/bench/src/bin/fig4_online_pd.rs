//! Figure 4: FlowServe online serving — PD-disaggregated vs PD-colocated.
//!
//! Paper setup: 34B model, TP=4, internal trace (~2K input / 200 output),
//! three setups: (1) 2 prefill + 2 decode, (2) 2 prefill + 1 decode,
//! (3) 4 PD-colocated; RPS swept 0.2 -> 1.2 in steps of 0.2.
//!
//! Paper shape to reproduce: disaggregation "greatly improves throughput
//! under certain SLA and lowers TPOT with the same throughput".
//!
//! Axis note: our simulated Gen2 engines are roughly 10x the paper
//! testbed's per-engine throughput, so the offered-load sweep is the
//! paper's 0.2 -> 1.2 RPS grid scaled by 10 (2 -> 12 RPS). Crossovers are
//! compared at matched utilization, not absolute RPS.
//!
//! Run: `cargo run --release -p deepserve-bench --bin fig4_online_pd`

use deepserve::{materialize_trace, ClusterConfig, ClusterSim, Policy, TeRole};
use deepserve_bench::{header, trace_out, write_json, write_trace};
use serde::value::{Number, Value};
use serde::Serialize;
use simcore::{SimRng, TraceLevel};
use workloads::ChatTrace;

const REQUESTS: usize = 240;
const RPS_SCALE: f64 = 10.0;
const TPOT_SLA_MS: f64 = 50.0;
const TTFT_SLA_MS: f64 = 3_000.0;

#[derive(Serialize)]
struct Point {
    setup: &'static str,
    rps: f64,
    ttft_p50_ms: f64,
    ttft_p99_ms: f64,
    tpot_p50_ms: f64,
    tpot_p99_ms: f64,
    jct_p50_ms: f64,
    throughput_tok_s: f64,
    tpot_sla_attainment: f64,
    ttft_sla_attainment: f64,
}

fn setups() -> Vec<(&'static str, Vec<TeRole>)> {
    vec![
        (
            "2P2D",
            vec![
                TeRole::Prefill,
                TeRole::Prefill,
                TeRole::Decode,
                TeRole::Decode,
            ],
        ),
        (
            "2P1D",
            vec![TeRole::Prefill, TeRole::Prefill, TeRole::Decode],
        ),
        ("4C", vec![TeRole::Colocated; 4]),
    ]
}

fn main() {
    header("Figure 4: online serving, PD-disaggregated vs PD-colocated (34B TP=4)");
    println!("trace: ~2K input / 200 output, Poisson arrivals, {REQUESTS} requests/point");
    let trace_path = trace_out("fig4_online_pd");
    let mut trace_runs: Vec<Value> = Vec::new();
    let mut points = Vec::new();
    println!(
        "\n{:>6} {:>6} {:>10} {:>10} {:>10} {:>10} {:>12} {:>10} {:>10}",
        "setup",
        "rps",
        "TTFT p50",
        "TTFT p99",
        "TPOT p50",
        "TPOT p99",
        "thr tok/s",
        "TPOT SLA",
        "TTFT SLA"
    );
    for (name, roles) in setups() {
        for step in 1..=6 {
            let rps = 0.2 * step as f64 * RPS_SCALE;
            // Identical trace across setups at each RPS.
            let mut rng = SimRng::seed_from_u64(1000 + step);
            let trace = ChatTrace::paper(rps).generate(&mut rng, REQUESTS);
            let cfg = ClusterConfig {
                policy: Policy::Combined,
                ..ClusterConfig::standard_34b()
            };
            let mut sim = ClusterSim::new(cfg, &roles);
            // Trace the heaviest step of each setup: lifecycle-level spans for
            // every request, plus the run's metrics registry.
            let traced = trace_path.is_some() && step == 6;
            if traced {
                sim.enable_tracing(TraceLevel::Lifecycle, 1 << 20);
            }
            sim.inject(materialize_trace(&trace, 64_000));
            let mut report = sim.run_to_completion();
            if traced {
                trace_runs.push(Value::Object(vec![
                    ("setup".into(), Value::String(name.to_string())),
                    ("rps".into(), Value::Number(Number::F64(rps))),
                    ("trace".into(), report.trace.to_json()),
                    ("metrics".into(), report.metrics_json()),
                ]));
            }
            // Fault-free run: empty stats mean a broken setup — fail
            // loudly rather than writing fabricated zeros.
            let ttft = report
                .latency
                .ttft_ms()
                .non_empty()
                .expect("no completions");
            let tpot = report
                .latency
                .tpot_ms()
                .non_empty()
                .expect("no completions");
            let jct = report.latency.jct_ms().non_empty().expect("no completions");
            let p = Point {
                setup: name,
                rps,
                ttft_p50_ms: ttft.p50,
                ttft_p99_ms: ttft.p99,
                tpot_p50_ms: tpot.p50,
                tpot_p99_ms: tpot.p99,
                jct_p50_ms: jct.p50,
                throughput_tok_s: report.throughput(),
                tpot_sla_attainment: report
                    .latency
                    .tpot_sla_attainment(TPOT_SLA_MS)
                    .unwrap_or(0.0),
                ttft_sla_attainment: report
                    .latency
                    .ttft_sla_attainment(TTFT_SLA_MS)
                    .unwrap_or(0.0),
            };
            println!(
                "{:>6} {:>6.1} {:>10.0} {:>10.0} {:>10.1} {:>10.1} {:>12.1} {:>9.0}% {:>9.0}%",
                p.setup,
                p.rps,
                p.ttft_p50_ms,
                p.ttft_p99_ms,
                p.tpot_p50_ms,
                p.tpot_p99_ms,
                p.throughput_tok_s,
                p.tpot_sla_attainment * 100.0,
                p.ttft_sla_attainment * 100.0
            );
            points.push(p);
        }
        println!();
    }

    header("Shape check");
    // Max RPS sustaining >= 95% TPOT-SLA attainment, per setup.
    for (name, _) in setups() {
        let max_rps = points
            .iter()
            .filter(|p| p.setup == name && p.tpot_sla_attainment >= 0.95)
            .map(|p| p.rps)
            .fold(0.0, f64::max);
        println!("{name}: highest RPS with >=95% TPOT<=50ms attainment: {max_rps:.1}");
    }
    println!(
        "\npaper shape: disaggregated setups sustain higher RPS under the SLA\n\
         and show lower TPOT than 4C at matched load."
    );
    write_json("fig4_online_pd", &points);
    if let Some(path) = &trace_path {
        write_trace(
            path,
            &Value::Object(vec![("runs".into(), Value::Array(trace_runs))]),
        );
    }
}
