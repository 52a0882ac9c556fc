//! Ablation: engine design knobs.
//!
//! Two sweeps over the chat trace:
//!
//! 1. **chunked-prefill budget** on a single colocated engine — the
//!    TTFT/TPOT trade-off behind §4.2's chunk distribution design;
//! 2. **KV-transfer by-layer overlap vs by-req** — §4.5's "by-req or
//!    by-layer" choice, measured on a 1P1D pair.
//!
//! Run: `cargo run --release -p deepserve-bench --bin ablation_engine_knobs`

use deepserve::{materialize_trace, ClusterConfig, ClusterSim, Policy, TeRole};
use deepserve_bench::{header, write_json};
use flowserve::EngineConfig;
use serde::Serialize;
use simcore::SimRng;
use workloads::ChatTrace;

#[derive(Serialize, Default)]
struct Output {
    chunk_sweep: Vec<(usize, f64, f64)>, // (chunk, ttft_mean, tpot_mean)
    kv_overlap: Vec<(f64, f64, f64)>,    // (overlap, ttft_mean, jct_mean)
}

fn run_chat(cfg: ClusterConfig, roles: &[TeRole], seed: u64, rps: f64) -> (f64, f64, f64) {
    let mut rng = SimRng::seed_from_u64(seed);
    let trace = ChatTrace::paper(rps).generate(&mut rng, 200);
    let mut sim = ClusterSim::new(cfg, roles);
    sim.inject(materialize_trace(&trace, 64_000));
    let mut report = sim.run_to_completion();
    // Fault-free run: an empty latency distribution here is a broken
    // setup, not a zero-latency miracle — fail loudly instead of writing
    // fabricated zeros into the artifact.
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
    (ttft.mean, tpot.mean, jct.mean)
}

fn main() {
    let mut out = Output::default();

    header("Ablation 1: chunked-prefill budget (1 colocated TE, chat at 3 rps)");
    println!("{:>8} {:>12} {:>12}", "chunk", "TTFT mean", "TPOT mean");
    for chunk in [128usize, 256, 512, 1024, 2048, 4096] {
        let cfg = ClusterConfig {
            policy: Policy::RoundRobin,
            engine: EngineConfig {
                prefill_chunk_tokens: chunk,
                ..EngineConfig::colocated()
            },
            ..ClusterConfig::standard_34b()
        };
        let (ttft, tpot, _) = run_chat(cfg, &[TeRole::Colocated], 31, 3.0);
        println!("{chunk:>8} {ttft:>12.0} {tpot:>12.1}");
        out.chunk_sweep.push((chunk, ttft, tpot));
    }
    println!("expected: bigger chunks cut TTFT but inflate TPOT (decode rides along\nbehind heavier mixed iterations).");

    header("Ablation 2: KV-transfer by-layer overlap (1P1D, chat at 3 rps)");
    println!("{:>9} {:>12} {:>12}", "overlap", "TTFT mean", "JCT mean");
    for overlap in [0.0, 0.4, 0.8, 0.95] {
        let cfg = ClusterConfig {
            policy: Policy::Combined,
            kv_transfer_overlap: overlap,
            ..ClusterConfig::standard_34b()
        };
        let (ttft, _, jct) = run_chat(cfg, &[TeRole::Prefill, TeRole::Decode], 32, 3.0);
        println!("{overlap:>9.2} {ttft:>12.0} {jct:>12.0}");
        out.kv_overlap.push((overlap, ttft, jct));
    }
    println!("expected: by-layer streaming (high overlap) hides the KV handoff,\nshrinking JCT vs pure by-req transfer (overlap 0).");

    write_json("ablation_engine_knobs", &out);
}
