//! Shared harness utilities for the figure-regeneration binaries.
//!
//! Every `fig*` binary prints a human-readable table mirroring the paper's
//! figure and writes the raw series to `target/figures/<id>.json` so
//! EXPERIMENTS.md numbers are machine-checkable.

#![forbid(unsafe_code)]

use serde::Serialize;
use std::fs;
use std::path::PathBuf;

/// Directory figure data lands in.
pub fn figures_dir() -> PathBuf {
    let dir = PathBuf::from("target/figures");
    fs::create_dir_all(&dir).expect("create target/figures");
    dir
}

/// Writes a figure's data as pretty JSON.
pub fn write_json<T: Serialize>(id: &str, data: &T) {
    let path = figures_dir().join(format!("{id}.json"));
    let json = serde_json::to_string_pretty(data).expect("serializable figure data");
    fs::write(&path, json).expect("write figure JSON");
    println!("\n[data written to {}]", path.display());
}

/// Prints a section header.
pub fn header(title: &str) {
    println!("\n{}", "=".repeat(72));
    println!("{title}");
    println!("{}", "=".repeat(72));
}

/// Parses a `--trace [path]` CLI flag. Bare `--trace` defaults to
/// `target/figures/<id>.trace.json`; `None` means tracing was not
/// requested.
pub fn trace_out(id: &str) -> Option<PathBuf> {
    let args: Vec<String> = std::env::args().collect();
    let pos = args.iter().position(|a| a == "--trace")?;
    Some(match args.get(pos + 1) {
        Some(p) if !p.starts_with('-') => PathBuf::from(p),
        _ => figures_dir().join(format!("{id}.trace.json")),
    })
}

/// Writes an already-rendered trace JSON value compactly (traces are large;
/// pretty-printing them doubles the file for no benefit).
pub fn write_trace(path: &std::path::Path, value: &serde::value::Value) {
    fs::write(path, value.to_json()).expect("write trace JSON");
    println!("[trace written to {}]", path.display());
}

/// Parses a `--<name> N` CLI flag into a number (`None` when absent or
/// malformed).
pub fn numeric_flag(name: &str) -> Option<f64> {
    let args: Vec<String> = std::env::args().collect();
    let flag = format!("--{name}");
    let pos = args.iter().position(|a| *a == flag)?;
    match args.get(pos + 1).and_then(|v| v.parse::<f64>().ok()) {
        Some(n) => Some(n),
        None => {
            eprintln!("{flag} requires a number; using the default");
            None
        }
    }
}

/// Peak resident set size of this process in kilobytes (`VmHWM` from
/// `/proc/self/status`); `None` off Linux. The honest memory metric for a
/// streaming-vs-materialized comparison: it captures the high-water mark,
/// not the (already freed) instantaneous value.
pub fn peak_rss_kb() -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
}

/// Builds the paper's standard 34B TP=4 cost model on a Gen2 chip.
pub fn cost_34b_tp4() -> llm_model::ExecCostModel {
    let c = npu::specs::ClusterSpec::gen2_cluster(1);
    llm_model::ExecCostModel::new(
        c.server.chip.clone(),
        c.hccs,
        llm_model::ModelSpec::internal_34b(),
        llm_model::Parallelism::tp(4),
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn figures_dir_is_creatable() {
        let d = super::figures_dir();
        assert!(d.exists());
    }
}
