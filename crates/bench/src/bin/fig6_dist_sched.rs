//! Figure 6: distributed scheduling policy study — PD-aware vs round-robin.
//!
//! Paper setup: 34B model TP=4; an internal trace sampled from a code
//! generation service; cluster of four servers hosting two PD-colocated
//! TEs and one PD-disaggregated pair (1P1D); report JCT and TPOT across
//! RPS levels.
//!
//! Paper shape to reproduce: (1) at mid RPS the PD-aware policy beats RR;
//! (2) at low RPS they tie (no interference to avoid); (3) at very high
//! RPS PD-aware degrades — the disaggregated pair, with the same
//! resources, overloads first — but not catastrophically vs RR.
//!
//! Axis note: RPS values are scaled to this simulator's engine throughput
//! (see fig4's note); the paper's "e.g. 10 reqs/s" mid-point corresponds
//! to the middle of our sweep.
//!
//! Run: `cargo run --release -p deepserve-bench --bin fig6_dist_sched`

use deepserve::{materialize_trace, ClusterConfig, ClusterSim, Policy, TeRole};
use deepserve_bench::{header, write_json};
use serde::Serialize;
use simcore::SimRng;
use workloads::CodeGenTrace;

const REQUESTS: usize = 240;

#[derive(Serialize)]
struct Point {
    policy: &'static str,
    rps: f64,
    jct_mean_ms: f64,
    jct_p99_ms: f64,
    tpot_mean_ms: f64,
    tpot_p99_ms: f64,
    throughput_tok_s: f64,
}

fn run(policy: Policy, rps: f64, seed: u64) -> Point {
    let mut rng = SimRng::seed_from_u64(seed);
    let trace = CodeGenTrace::paper(rps).generate(&mut rng, REQUESTS);
    let cfg = ClusterConfig {
        policy,
        ..ClusterConfig::standard_34b()
    };
    let roles = [
        TeRole::Colocated,
        TeRole::Colocated,
        TeRole::Prefill,
        TeRole::Decode,
    ];
    let mut sim = ClusterSim::new(cfg, &roles);
    sim.inject(materialize_trace(&trace, 64_000));
    let mut report = sim.run_to_completion();
    // Fault-free run: empty stats mean a broken setup — fail loudly
    // rather than writing fabricated zeros into the artifact.
    let jct = report.latency.jct_ms().non_empty().expect("no completions");
    let tpot = report
        .latency
        .tpot_ms()
        .non_empty()
        .expect("no completions");
    Point {
        policy: match policy {
            Policy::RoundRobin => "RR",
            Policy::PdAware => "PD-aware",
            Policy::Combined => "Combined",
            _ => "other",
        },
        rps,
        jct_mean_ms: jct.mean,
        jct_p99_ms: jct.p99,
        tpot_mean_ms: tpot.mean,
        tpot_p99_ms: tpot.p99,
        throughput_tok_s: report.throughput(),
    }
}

fn main() {
    header("Figure 6: distributed scheduling (code-gen trace, 2C + 1P1D, 34B TP=4)");
    let rps_levels = [1.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0];
    let policies = [Policy::RoundRobin, Policy::PdAware, Policy::Combined];
    let mut points = Vec::new();
    println!(
        "\n{:>10} {:>6} {:>12} {:>12} {:>11} {:>11} {:>12}",
        "policy", "rps", "JCT mean", "JCT p99", "TPOT mean", "TPOT p99", "thr tok/s"
    );
    for &rps in &rps_levels {
        for &policy in &policies {
            // Same seed per RPS: all policies see the same trace.
            let p = run(policy, rps, 7_000 + (rps * 10.0) as u64);
            println!(
                "{:>10} {:>6.1} {:>12.0} {:>12.0} {:>11.1} {:>11.1} {:>12.1}",
                p.policy,
                p.rps,
                p.jct_mean_ms,
                p.jct_p99_ms,
                p.tpot_mean_ms,
                p.tpot_p99_ms,
                p.throughput_tok_s
            );
            points.push(p);
        }
        println!();
    }

    header("Shape check (PD-aware JCT relative to RR)");
    for &rps in &rps_levels {
        let rr = points
            .iter()
            .find(|p| p.policy == "RR" && p.rps == rps)
            .unwrap();
        let pd = points
            .iter()
            .find(|p| p.policy == "PD-aware" && p.rps == rps)
            .unwrap();
        let delta = (pd.jct_mean_ms / rr.jct_mean_ms - 1.0) * 100.0;
        println!("rps {rps:>5.1}: PD-aware JCT {delta:+.1}% vs RR");
    }
    println!(
        "\npaper shape: ~0% at low RPS, negative (better) at mid RPS,\n\
         mildly positive (graceful degradation) at the highest RPS."
    );
    write_json("fig6_dist_sched", &points);
}
