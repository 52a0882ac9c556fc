//! Figure 9: TE-Load study — local loading (DRAM-hit / DRAM-miss /
//! theoretical) vs NPU-fork (HCCS / RoCE) across three models at their
//! production parallelism.
//!
//! Paper shapes to reproduce: DRAM-miss >> DRAM-hit > theoretical; the
//! hit-vs-theoretical gap grows with TP rank (PCIe link sharing) plus the
//! fixed 0.3 s tensor-init cost; NPU-fork over HCCS beats RoCE and local
//! loading; fork time is roughly model-invariant because per-NPU bytes are
//! roughly constant across (model, production-TP) pairs.
//!
//! Run: `cargo run --release -p deepserve-bench --bin fig9_te_load`

use deepserve::{LoadPath, ScalingModel, SourceLoad};
use deepserve_bench::{header, write_json};
use llm_model::{Checkpoint, ModelSpec, Parallelism};
use npu::pagecache::FileId;
use npu::specs::ClusterSpec;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    model: &'static str,
    tp: u32,
    per_npu_gb: f64,
    theoretical_s: f64,
    dram_hit_s: f64,
    dram_miss_s: f64,
    fork_hccs_s: f64,
    fork_roce_s: f64,
}

fn main() {
    header("Figure 9: TE-Load time by path (seconds)");
    let m = ScalingModel::new(ClusterSpec::gen2_cluster(4));
    let cases = [
        (ModelSpec::llama3_8b(), Parallelism::tp(1)),
        (ModelSpec::internal_34b(), Parallelism::tp(4)),
        (ModelSpec::llama3_70b(), Parallelism::tp(8)),
    ];
    println!(
        "{:>14} {:>4} {:>10} {:>13} {:>10} {:>11} {:>11} {:>11}",
        "model", "TP", "GB/NPU", "theoretical", "DRAM-hit", "DRAM-miss", "fork-HCCS", "fork-RoCE"
    );
    let mut rows = Vec::new();
    for (spec, par) in cases {
        let name = spec.name;
        let ckpt = Checkpoint::new(FileId(1), spec);
        let idle = SourceLoad::idle();
        let r = Row {
            model: name,
            tp: par.tp,
            per_npu_gb: ckpt.partition_bytes(par) as f64 / (1u64 << 30) as f64,
            theoretical_s: m.te_load_theoretical(&ckpt, par).as_secs_f64(),
            dram_hit_s: m.te_load(&ckpt, par, LoadPath::DramHit, idle).as_secs_f64(),
            dram_miss_s: m
                .te_load(&ckpt, par, LoadPath::DramMiss, idle)
                .as_secs_f64(),
            fork_hccs_s: m
                .te_load(&ckpt, par, LoadPath::NpuForkHccs { fanout: 1 }, idle)
                .as_secs_f64(),
            fork_roce_s: m
                .te_load(&ckpt, par, LoadPath::NpuForkRoce { fanout: 1 }, idle)
                .as_secs_f64(),
        };
        println!(
            "{:>14} {:>4} {:>10.1} {:>13.2} {:>10.2} {:>11.2} {:>11.2} {:>11.2}",
            r.model,
            r.tp,
            r.per_npu_gb,
            r.theoretical_s,
            r.dram_hit_s,
            r.dram_miss_s,
            r.fork_hccs_s,
            r.fork_roce_s
        );
        rows.push(r);
    }

    header("Shape check");
    for r in &rows {
        assert!(r.theoretical_s < r.dram_hit_s);
        assert!(r.dram_hit_s < r.dram_miss_s);
        assert!(r.fork_hccs_s < r.fork_roce_s);
    }
    println!("ordering per model: theoretical < DRAM-hit < DRAM-miss; HCCS fork < RoCE fork  [ok]");
    let gap = |r: &Row| r.dram_hit_s / r.theoretical_s;
    println!(
        "DRAM-hit/theoretical gap grows with TP: {:.2}x (TP1) -> {:.2}x (TP4) -> {:.2}x (TP8)",
        gap(&rows[0]),
        gap(&rows[1]),
        gap(&rows[2])
    );
    let fork_spread = rows.iter().map(|r| r.fork_hccs_s).fold(f64::MIN, f64::max)
        / rows.iter().map(|r| r.fork_hccs_s).fold(f64::MAX, f64::min);
    println!(
        "NPU-fork (HCCS) spread across models: {fork_spread:.2}x (paper: roughly constant, \
         per-NPU bytes are ~equal)"
    );
    write_json("fig9_te_load", &rows);
}
