//! Fleet sweep: serverless multi-model cold-start economics (§6.2).
//!
//! A skewed 100+-model trace (Zipf popularity, chat-shaped bodies) hits a
//! shared cluster under three cold-start strategies:
//!
//! * `prewarm_miss` — the single-model baseline's miss path: every cold
//!   model streams its whole checkpoint from the remote store;
//! * `hierarchy` — the four-tier storage hierarchy (HBM ← DRAM ← local
//!   SSD ← remote) faults in only the bytes missing per tier;
//! * `hierarchy_multicast` — hierarchy plus λScale-style binary-tree
//!   multicast when scaling hot models out to more TEs.
//!
//! For each mode the sweep reports the cold-start latency distribution,
//! queued-request cold-wait, per-tier SLA attainment, tier load counts and
//! eviction/replica churn.
//!
//! Run: `cargo run --release -p deepserve-bench --bin fleet_sweep`
//! CI:  `cargo run --release -p deepserve-bench --bin fleet_sweep -- --smoke`
//!
//! Exits non-zero unless both hierarchy modes beat the pre-warm-miss
//! baseline's mean cold start. A full run snapshots results to
//! `BENCH_fleet.json` at the repo root.

use deepserve::{
    fleet_catalog, materialize_fleet_trace, ClusterConfig, ClusterSim, ColdStartMode, FleetConfig,
    Policy, TeRole,
};
use deepserve_bench::{header, write_json};
use npu::specs::ClusterSpec;
use serde::Serialize;
use simcore::SimRng;
use workloads::FleetTrace;

const TIERS: [&str; 4] = ["hbm", "dram", "ssd", "remote"];

/// One (mode) measurement over the shared trace.
#[derive(Serialize)]
struct Row {
    mode: &'static str,
    models: usize,
    requests: usize,
    completed: u64,
    failed: u64,
    cold_starts: u64,
    /// Cold-start latency (checkpoint fetch + 5-step scaling), ms.
    cold_ms_mean: f64,
    cold_ms_p50: f64,
    cold_ms_p99: f64,
    cold_ms_max: f64,
    /// Arrival-to-dispatch wait of requests parked behind a load, ms.
    wait_ms_mean: f64,
    wait_ms_p99: f64,
    /// Per-tier loads: how many cold starts sourced from each tier.
    loads: Vec<(String, u64)>,
    /// Per-tier cold-start SLA attainment (ok / (ok + miss)); `None` for
    /// tiers that never sourced a load.
    sla: Vec<(String, Option<f64>)>,
    /// Overall cold SLA attainment across tiers.
    sla_overall: Option<f64>,
    evictions: u64,
    replicas_added: u64,
    makespan_s: f64,
}

fn run_mode(mode: ColdStartMode, models: usize, n_reqs: usize) -> Row {
    let mut rng = SimRng::seed_from_u64(2026);
    let specs = FleetTrace::skewed(models, 6.0).generate(&mut rng, n_reqs);
    let cfg = ClusterConfig {
        cluster: ClusterSpec::gen2_cluster(4),
        policy: Policy::Combined,
        ..ClusterConfig::standard_34b()
    };
    let roles = vec![TeRole::Colocated; 8];
    let mut sim = ClusterSim::new(cfg, &roles);
    sim.enable_fleet(
        fleet_catalog(models),
        FleetConfig {
            mode,
            ..FleetConfig::default()
        },
    );
    sim.stage_fleet_on_ssd();
    sim.inject(materialize_fleet_trace(&specs, 64_000));
    let mut report = sim.run_to_completion();
    let (done, sub) = sim.progress();
    assert_eq!(done + sim.failed(), sub, "fleet conservation");

    let cold = report
        .metrics
        .summary("fleet.cold_start_ms")
        .unwrap_or_default();
    let wait = report
        .metrics
        .summary("fleet.cold_wait_ms")
        .unwrap_or_default();
    let loads: Vec<(String, u64)> = TIERS
        .iter()
        .map(|t| {
            let key: &'static str = match *t {
                "hbm" => "fleet.loads_hbm",
                "dram" => "fleet.loads_dram",
                "ssd" => "fleet.loads_ssd",
                _ => "fleet.loads_remote",
            };
            (t.to_string(), report.counters.get(key))
        })
        .collect();
    let tier_sla = |t: &str| -> (u64, u64) {
        let (ok_key, miss_key): (&'static str, &'static str) = match t {
            "hbm" => ("fleet.cold_sla_ok.hbm", "fleet.cold_sla_miss.hbm"),
            "dram" => ("fleet.cold_sla_ok.dram", "fleet.cold_sla_miss.dram"),
            "ssd" => ("fleet.cold_sla_ok.ssd", "fleet.cold_sla_miss.ssd"),
            _ => ("fleet.cold_sla_ok.remote", "fleet.cold_sla_miss.remote"),
        };
        (report.counters.get(ok_key), report.counters.get(miss_key))
    };
    let sla: Vec<(String, Option<f64>)> = TIERS
        .iter()
        .map(|t| {
            let (ok, miss) = tier_sla(t);
            let att = if ok + miss == 0 {
                None
            } else {
                Some(ok as f64 / (ok + miss) as f64)
            };
            (t.to_string(), att)
        })
        .collect();
    let (ok_total, miss_total) = TIERS.iter().fold((0u64, 0u64), |(o, m), t| {
        let (ok, miss) = tier_sla(t);
        (o + ok, m + miss)
    });
    let sla_overall = if ok_total + miss_total == 0 {
        None
    } else {
        Some(ok_total as f64 / (ok_total + miss_total) as f64)
    };

    Row {
        mode: mode.as_str(),
        models,
        requests: n_reqs,
        completed: done,
        failed: sim.failed(),
        cold_starts: report.counters.get("fleet.cold_starts"),
        cold_ms_mean: cold.mean,
        cold_ms_p50: cold.p50,
        cold_ms_p99: cold.p99,
        cold_ms_max: cold.max,
        wait_ms_mean: wait.mean,
        wait_ms_p99: wait.p99,
        loads,
        sla,
        sla_overall,
        evictions: report.counters.get("fleet.evictions"),
        replicas_added: report.counters.get("fleet.replicas_added"),
        makespan_s: report.makespan.as_secs_f64(),
    }
}

#[derive(Serialize)]
struct Sweep {
    models: usize,
    requests: usize,
    rows: Vec<Row>,
}

fn print_row(r: &Row) {
    let sla = r
        .sla_overall
        .map_or("   -".to_string(), |a| format!("{:.0}%", a * 100.0));
    println!(
        "{:>20} {:>6} {:>10.0} {:>10.0} {:>10.0} {:>9.0} {:>5} {:>5} {:>6} {:>8.1}",
        r.mode,
        r.cold_starts,
        r.cold_ms_mean,
        r.cold_ms_p99,
        r.wait_ms_mean,
        r.wait_ms_p99,
        sla,
        r.evictions,
        r.replicas_added,
        r.makespan_s
    );
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (models, n_reqs) = if smoke { (24, 80) } else { (120, 600) };
    header(if smoke {
        "fleet_sweep --smoke: serverless cold-start ablation sanity check"
    } else {
        "fleet_sweep: cold-start ablation on a skewed multi-model trace (gen2 x4, 8 TEs)"
    });
    println!("[{models} models, {n_reqs} requests, Zipf(1.0) popularity]");
    println!(
        "{:>20} {:>6} {:>10} {:>10} {:>10} {:>9} {:>5} {:>5} {:>6} {:>8}",
        "mode",
        "colds",
        "cold mean",
        "cold p99",
        "wait mean",
        "wait p99",
        "SLA",
        "evict",
        "forks",
        "sim s"
    );

    let mut rows = Vec::new();
    for mode in [
        ColdStartMode::PrewarmMiss,
        ColdStartMode::Hierarchy,
        ColdStartMode::HierarchyMulticast,
    ] {
        let row = run_mode(mode, models, n_reqs);
        print_row(&row);
        rows.push(row);
    }

    let prewarm_mean = rows[0].cold_ms_mean;
    let hierarchy_beats = rows[1].cold_ms_mean < prewarm_mean;
    let multicast_beats = rows[2].cold_ms_mean < prewarm_mean;
    println!(
        "\nhierarchy {:.0} ms vs pre-warm-miss {:.0} ms ({:.1}x); multicast {:.0} ms ({:.1}x)",
        rows[1].cold_ms_mean,
        prewarm_mean,
        prewarm_mean / rows[1].cold_ms_mean,
        rows[2].cold_ms_mean,
        prewarm_mean / rows[2].cold_ms_mean,
    );

    let sweep = Sweep {
        models,
        requests: n_reqs,
        rows,
    };
    write_json("fleet_sweep", &sweep);

    if !(hierarchy_beats && multicast_beats) {
        eprintln!("FAIL: storage-hierarchy cold starts must beat the pre-warm-miss baseline");
        std::process::exit(1);
    }
    if smoke {
        println!("\nsmoke OK: hierarchy beats pre-warm miss");
        return;
    }
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_fleet.json");
    let json = serde_json::to_string_pretty(&sweep).expect("serializable sweep");
    std::fs::write(&root, json).expect("write BENCH_fleet.json");
    println!("[snapshot written to {}]", root.display());
}
