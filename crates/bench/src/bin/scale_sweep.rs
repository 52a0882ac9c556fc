//! Scale sweep: streaming workloads and macro-stepping vs the classic
//! single-step loop.
//!
//! Sweeps (TEs x requests x users) on decode-heavy [`ScaleTrace`]
//! workloads and runs every configuration under several execution
//! strategies — the classic one-wake-per-iteration loop, macro-stepping,
//! and macro-stepping with the trace *streamed* through `inject_stream`
//! (one request resident per pull instead of the whole trace). All runs of
//! a configuration are checked for bit-identical `RunReport`s, so the
//! sweep doubles as an end-to-end equivalence test at scale for every
//! strategy, streaming included.
//!
//! Reported throughput is *logical iterations per wall-clock second*: the
//! logical iteration count is invariant under fast-forward (the macro-step
//! commits the same per-iteration work), so the ratio of two modes'
//! rates equals the wall-clock speedup. Raw events/sec is reported too,
//! but note fast-forward *shrinks* the event count by design. Peak RSS
//! (VmHWM) is recorded per run — the dimension streaming injection exists
//! to bound — next to `rtc_blocks`, the KV blocks the run left cached, so
//! RSS per cached block can be read off a row. Every run is a fresh child
//! process (this binary with a private `--row` argument), so a row's peak
//! RSS counts no heap an earlier run left in the allocator; the child
//! prints its row and its report's digest as one JSON line, and the
//! parent compares the digests.
//!
//! Run: `cargo run --release -p deepserve-bench --bin scale_sweep`
//! CI:  `cargo run --release -p deepserve-bench --bin scale_sweep -- --smoke`
//!
//! `--max-wall-ms B` (default 120000) skips any strategy whose *predicted*
//! wall exceeds the budget (prediction: the measured fast-forward wall
//! scaled by the measured event reduction), so the million-request
//! configurations never fall into an hours-long single-step run.
//! `--smoke` runs a small colocated configuration, a compact
//! PD-disaggregated one and a large streamed one (256 TEs x 65k
//! requests) and exits non-zero
//! unless all reports match, fast-forward achieves at least the
//! single-step iteration rate on the small configuration and 0.9x of it
//! on the 256-TE one (the median of seven rounds that alternate which
//! strategy runs first), and the streamed 256-TE run stays under a fixed
//! RSS budget. A full run also snapshots the results to
//! `BENCH_scale.json` at the repo root to track the perf trajectory.
#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the sweep measures the simulator's wall-clock speed"
)]

use deepserve::{materialize_trace, stream_trace, ClusterConfig, ClusterSim, Policy, TeRole};
use deepserve_bench::{header, numeric_flag, peak_rss_kb, write_json};
use npu::specs::ClusterSpec;
use serde::{Serialize, Value};
use simcore::SimRng;
use std::process::Command;
use std::time::Instant;
use workloads::ScaleTrace;

/// Above this request count only streamed strategies run: materializing
/// the trace would defeat the memory bound the configuration measures.
const MAT_LIMIT: usize = 1 << 18;
/// RSS ceiling for the smoke gate's large streamed run, in megabytes.
/// 256 TEs x 65k requests peaks at about 56 MB in its own process; the
/// budget keeps the 1.5x headroom the gate had when it read a row that
/// shared its process with earlier runs (83 MB against 128). Sizing the
/// block pools by modelled KV capacity instead of the blocks in use, or a
/// heap allocation per cached block (the radix tree's old child maps),
/// each pushes it past this.
const SMOKE_RSS_BUDGET_MB: f64 = 84.0;
/// Smoke parity gates: (TEs, least fast-forward / single-step iteration
/// rate). Fast-forward absorbs little on the 256-TE configuration (every
/// arrival bounds its windows), so the two strategies cost about the
/// same there and the floor leaves room for host noise.
const SMOKE_PARITY: [(usize, f64); 2] = [(4, 1.0), (256, 0.9)];
/// Timing rounds on a parity-gated smoke configuration. The gate reads
/// the median of the rounds' single-step / fast-forward wall ratios, and
/// every other round runs the strategies in reverse order, so neither one
/// slow run nor a drift in host speed decides it. Best-of-3 rounds with
/// fast-forward always first read 0.85-1.10 at 256 TEs on a 2-core host.
const PARITY_ROUNDS: usize = 7;

/// TE role layout of a configuration.
#[derive(Clone, Copy)]
enum Shape {
    /// All TEs colocated (chunked prefill + decode).
    Colocated,
    /// Alternating prefill/decode TEs (KV migrations on every request).
    PdPairs,
}

/// One sweep configuration.
#[derive(Clone, Copy)]
struct GridCfg {
    servers: usize,
    tes: usize,
    requests: usize,
    prefill_tokens: usize,
    output_tokens: u32,
    users: usize,
    rps_per_te: f64,
    shape: Shape,
}

/// One (configuration, execution strategy) measurement.
#[derive(Serialize, Clone)]
struct Row {
    tes: usize,
    requests: usize,
    output_tokens: u32,
    users: usize,
    mode: &'static str,
    /// Whether the trace was streamed through `inject_stream` (one
    /// request resident per pull) or fully materialized up front.
    streamed: bool,
    wall_ms: f64,
    events_processed: u64,
    sim_iterations: u64,
    ff_windows: u64,
    ff_iterations: u64,
    /// Logical iterations retired per wall-clock second (mode-invariant
    /// numerator — the honest throughput metric).
    iters_per_sec: f64,
    /// Raw simulator events per wall-clock second.
    events_per_sec: f64,
    makespan_s: f64,
    completed: usize,
    /// KV blocks left in the radix trees at the end of the run, summed
    /// over TEs: blocks inserted minus blocks dropped by eviction.
    rtc_blocks: u64,
    /// Peak resident set size during the run (VmHWM), megabytes; 0 where
    /// the kernel interface is unavailable.
    peak_rss_mb: f64,
    /// Logical cores available on the measuring host — recorded so the
    /// perf trajectory in BENCH_scale.json is comparable only between
    /// runs on like hosts.
    host_cores: usize,
}

/// Per-configuration comparison of the execution strategies.
#[derive(Serialize)]
struct Combo {
    tes: usize,
    requests: usize,
    output_tokens: u32,
    users: usize,
    /// Median over timing rounds of single-step wall / fast-forward wall
    /// within the round; `None` when the single-step run was skipped by
    /// the wall budget.
    speedup_ff: Option<f64>,
    /// Single-step events / fast-forward events.
    event_reduction: Option<f64>,
    reports_identical: bool,
    /// Largest per-run peak RSS across the configuration's runs, MB.
    peak_rss_mb: f64,
    /// True when the wall budget skipped the single-step run.
    single_step_skipped: bool,
}

/// One run's row and its report's digest: what a `--row` child prints.
#[derive(Serialize)]
struct RunOut {
    row: Row,
    /// FNV-1a 64 of the rendered report.
    digest: u64,
}

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(fast_forward, streamed)` of the strategy named `mode` on `gc`. Above
/// `MAT_LIMIT` the trace is never materialized: the configuration exists
/// to demonstrate O(in-flight) memory, so the fast-forward baseline
/// streams too.
fn strategy(gc: &GridCfg, mode: &str) -> (bool, bool) {
    match mode {
        "fast_forward" => (true, gc.requests > MAT_LIMIT),
        "ff_streamed" => (true, true),
        _ => (false, false),
    }
}

fn roles_of(gc: &GridCfg) -> Vec<TeRole> {
    match gc.shape {
        Shape::Colocated => vec![TeRole::Colocated; gc.tes],
        Shape::PdPairs => (0..gc.tes)
            .map(|i| {
                if i % 2 == 0 {
                    TeRole::Prefill
                } else {
                    TeRole::Decode
                }
            })
            .collect(),
    }
}

/// Runs strategy `mode` on `gc` in this process and measures it. Only a
/// `--row` child calls it, so the process's peak RSS is the run's.
fn measure(gc: &GridCfg, mode: &'static str) -> RunOut {
    let (fast_forward, streamed) = strategy(gc, mode);
    // Decode-heavy scale shape: small per-user prompts, sustained decode,
    // arrival rate matched to service capacity so the in-flight window —
    // and therefore streamed memory — stays bounded at any trace length.
    let scale = ScaleTrace {
        prefill: gc.prefill_tokens,
        decode: gc.output_tokens,
        rps: gc.rps_per_te * gc.tes as f64,
        count: gc.requests,
        users: gc.users,
    };
    let cfg = ClusterConfig {
        cluster: ClusterSpec::gen2_cluster(gc.servers),
        policy: Policy::Combined,
        ..ClusterConfig::standard_34b()
    };
    let roles = roles_of(gc);
    let mut sim = ClusterSim::new(cfg, &roles);
    sim.set_fast_forward(fast_forward);
    // The timer covers trace generation too: at streaming scale the
    // workload is produced inside the run, so excluding it from the
    // materialized side would flatter materialization.
    let start = Instant::now();
    if streamed {
        sim.inject_stream(stream_trace(
            scale.stream(SimRng::seed_from_u64(42).fork()),
            64_000,
        ));
    } else {
        let mut rng = SimRng::seed_from_u64(42);
        let trace = scale.generate(&mut rng);
        sim.inject(materialize_trace(&trace, 64_000));
    }
    let mut report = sim.run_to_completion();
    let wall = start.elapsed().as_secs_f64();
    let events = sim.events_processed();
    let stats = sim.engine_stats_total();
    let row = Row {
        tes: gc.tes,
        requests: gc.requests,
        output_tokens: gc.output_tokens,
        users: gc.users,
        mode,
        streamed,
        wall_ms: wall * 1e3,
        events_processed: events,
        sim_iterations: stats.iterations,
        ff_windows: stats.ff_windows,
        ff_iterations: stats.ff_iterations,
        iters_per_sec: stats.iterations as f64 / wall,
        events_per_sec: events as f64 / wall,
        makespan_s: report.makespan.as_secs_f64(),
        completed: report.latency.completed() as usize,
        rtc_blocks: report
            .metrics
            .counter_value("rtc.inserted_blocks")
            .saturating_sub(report.metrics.counter_value("rtc.evict_drop")),
        peak_rss_mb: peak_rss_kb().map_or(0.0, |kb| kb as f64 / 1024.0),
        host_cores: host_cores(),
    };
    RunOut {
        row,
        digest: fnv1a64(report.to_json().to_json().as_bytes()),
    }
}

/// Runs strategy `mode` on grid configuration `index` in a fresh child
/// process and reads back its row and report digest.
fn run_one(grid: &[GridCfg], index: usize, mode: &'static str, smoke: bool) -> RunOut {
    let exe = std::env::current_exe().expect("path of the running binary");
    let mut child = Command::new(exe);
    child.args(["--row", &index.to_string(), mode]);
    if smoke {
        child.arg("--smoke");
    }
    let out = child.output().expect("spawn a row child");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "row child {index} {mode} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let v = serde_json::from_str(stdout.trim()).expect("a row child prints one JSON line");
    let row = v.get("row").expect("row child output has a row");
    let num = |key: &str| {
        row.get(key)
            .and_then(Value::as_f64)
            .unwrap_or_else(|| panic!("row child output lacks {key}"))
    };
    let gc = &grid[index];
    RunOut {
        row: Row {
            tes: gc.tes,
            requests: gc.requests,
            output_tokens: gc.output_tokens,
            users: gc.users,
            mode,
            streamed: strategy(gc, mode).1,
            wall_ms: num("wall_ms"),
            events_processed: num("events_processed") as u64,
            sim_iterations: num("sim_iterations") as u64,
            ff_windows: num("ff_windows") as u64,
            ff_iterations: num("ff_iterations") as u64,
            iters_per_sec: num("iters_per_sec"),
            events_per_sec: num("events_per_sec"),
            makespan_s: num("makespan_s"),
            completed: num("completed") as usize,
            rtc_blocks: num("rtc_blocks") as u64,
            peak_rss_mb: num("peak_rss_mb"),
            host_cores: host_cores(),
        },
        digest: v
            .get("digest")
            .and_then(Value::as_u64)
            .expect("row child output has a digest"),
    }
}

fn print_row(r: &Row) {
    println!(
        "{:>5} {:>8} {:>6} {:>12} {:>3} {:>10.1} {:>12} {:>12} {:>12.0} {:>8.1} {:>9} {:>8.1}",
        r.tes,
        r.requests,
        r.users,
        r.mode,
        if r.streamed { "yes" } else { "no" },
        r.wall_ms,
        r.events_processed,
        r.sim_iterations,
        r.iters_per_sec,
        r.makespan_s,
        r.rtc_blocks,
        r.peak_rss_mb,
    );
}

/// Runs grid configuration `index` under every applicable strategy, each
/// run in a fresh child process; returns its rows and the cross-strategy
/// comparison.
fn run_config(grid: &[GridCfg], index: usize, max_wall_ms: f64, smoke: bool) -> (Vec<Row>, Combo) {
    let gc = &grid[index];
    // Timing rounds: three absorb scheduler/allocator noise on the small
    // configurations and the ungated smoke one; the parity-gated smoke
    // configurations take PARITY_ROUNDS (one 256-TE run's wall time spread
    // 2.4-3.3 s on a 2-core host). A full sweep runs its big
    // configurations once: repeating them would dominate the sweep.
    let reps = if smoke && SMOKE_PARITY.iter().any(|&(tes, _)| tes == gc.tes) {
        PARITY_ROUNDS
    } else if gc.requests < 1 << 16 || smoke {
        3
    } else {
        1
    };
    // The streamed-vs-materialized A/B (identity + RSS) is only
    // meaningful when the baseline materialized.
    let big = gc.requests > MAT_LIMIT;
    let mut strategies = vec!["fast_forward"];
    if !big {
        strategies.push("ff_streamed");
    }
    let run = |mode| run_one(grid, index, mode, smoke);
    let mut best: Vec<RunOut> = strategies.iter().map(|&mode| run(mode)).collect();

    // Single-step baseline, behind the wall budget: predict its wall from
    // the measured fast-forward wall scaled by the event reduction
    // (single-step processes ~one event per logical iteration).
    let ff1 = &best[0].row;
    let predicted_ss_ms =
        ff1.wall_ms * ff1.sim_iterations as f64 / (ff1.events_processed.max(1)) as f64;
    let run_ss = !big && predicted_ss_ms <= max_wall_ms;
    if run_ss {
        strategies.push("single_step");
        best.push(run("single_step"));
    } else if !big {
        println!(
            "    [single_step skipped: predicted {predicted_ss_ms:.0} ms > budget {max_wall_ms:.0} ms]"
        );
    }
    // Further rounds take turns across the strategies, so a drift in the
    // host's speed slows all of them alike; every other round runs them in
    // reverse, so no strategy always goes first. Past the third round, a
    // gated configuration times only the two strategies the gate compares
    // (the streamed row stays a best of three). Every run's report must
    // match the first run's.
    let last = strategies.len() - 1;
    let mut digests: Vec<u64> = best.iter().map(|b| b.digest).collect();
    let mut speedups = vec![best[last].row.wall_ms / best[0].row.wall_ms];
    for round in 1..reps {
        let mut walls = vec![0.0; strategies.len()];
        for i in 0..strategies.len() {
            let i = if round % 2 == 1 { last - i } else { i };
            if round >= 3 && i != 0 && i != last {
                continue;
            }
            let r = run(strategies[i]);
            digests.push(r.digest);
            walls[i] = r.row.wall_ms;
            if r.row.wall_ms < best[i].row.wall_ms {
                best[i].row = r.row;
            }
        }
        speedups.push(walls[last] / walls[0]);
    }
    speedups.sort_by(f64::total_cmp);

    let rows: Vec<Row> = best.into_iter().map(|b| b.row).collect();
    let (ff, ss) = (&rows[0], run_ss.then(|| &rows[last]));
    let speedup_ff = ss.map(|_| speedups[speedups.len() / 2]);
    let event_reduction = ss.map(|ss| ss.events_processed as f64 / ff.events_processed as f64);

    let combo = Combo {
        tes: gc.tes,
        requests: gc.requests,
        output_tokens: gc.output_tokens,
        users: gc.users,
        speedup_ff,
        event_reduction,
        reports_identical: digests.windows(2).all(|w| w[0] == w[1]),
        peak_rss_mb: rows.iter().map(|r| r.peak_rss_mb).fold(0.0, f64::max),
        single_step_skipped: !run_ss,
    };
    (rows, combo)
}

#[derive(Serialize)]
struct Sweep {
    rows: Vec<Row>,
    pairs: Vec<Combo>,
}

/// Logical cores on this host (1 when the query fails).
fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The smoke grid: a small colocated configuration, a compact P/D one and
/// the CI scale gate.
const SMOKE_GRID: [GridCfg; 3] = [
    GridCfg {
        servers: 2,
        tes: 4,
        requests: 256,
        output_tokens: 256,
        users: 32,
        prefill_tokens: 128,
        rps_per_te: 256.0,
        shape: Shape::Colocated,
    },
    // A compact PD-disaggregated config so the smoke gate also
    // covers KV migrations: multi-chunk prefills, every request
    // moving its KV to a decode TE.
    GridCfg {
        servers: 16,
        tes: 32,
        requests: 1024,
        prefill_tokens: 4608,
        output_tokens: 64,
        users: 512,
        rps_per_te: 2.0,
        shape: Shape::PdPairs,
    },
    // The CI scale gate: a large trace that must run streamed in
    // bounded memory with bit-identical reports streamed and
    // materialized.
    GridCfg {
        servers: 128,
        tes: 256,
        requests: 1 << 16,
        output_tokens: 64,
        users: 1024,
        prefill_tokens: 128,
        rps_per_te: 24.0,
        shape: Shape::Colocated,
    },
];

/// The full sweep's grid.
const FULL_GRID: [GridCfg; 7] = [
    GridCfg {
        servers: 2,
        tes: 4,
        requests: 256,
        output_tokens: 128,
        users: 32,
        prefill_tokens: 128,
        rps_per_te: 256.0,
        shape: Shape::Colocated,
    },
    GridCfg {
        servers: 4,
        tes: 8,
        requests: 512,
        output_tokens: 256,
        users: 64,
        prefill_tokens: 128,
        rps_per_te: 256.0,
        shape: Shape::Colocated,
    },
    GridCfg {
        servers: 8,
        tes: 16,
        requests: 1024,
        output_tokens: 512,
        users: 128,
        prefill_tokens: 128,
        rps_per_te: 256.0,
        shape: Shape::Colocated,
    },
    GridCfg {
        servers: 16,
        tes: 32,
        requests: 2048,
        output_tokens: 512,
        users: 256,
        prefill_tokens: 128,
        rps_per_te: 256.0,
        shape: Shape::Colocated,
    },
    // PD-disaggregated: every request migrates KV. Multi-chunk
    // prefills (4608 tokens = two chunks at the 4096 budget).
    GridCfg {
        servers: 128,
        tes: 256,
        requests: 8192,
        prefill_tokens: 4608,
        output_tokens: 256,
        users: 8192,
        rps_per_te: 2.0,
        shape: Shape::PdPairs,
    },
    // The 100x-scale configurations: streamed only, bounded RSS.
    GridCfg {
        servers: 128,
        tes: 256,
        requests: 1 << 18,
        output_tokens: 64,
        users: 4096,
        prefill_tokens: 128,
        rps_per_te: 24.0,
        shape: Shape::Colocated,
    },
    GridCfg {
        servers: 512,
        tes: 1024,
        requests: 1 << 20,
        output_tokens: 64,
        users: 16384,
        prefill_tokens: 128,
        rps_per_te: 24.0,
        shape: Shape::Colocated,
    },
];

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let grid: &[GridCfg] = if smoke { &SMOKE_GRID } else { &FULL_GRID };
    if let Some(pos) = args.iter().position(|a| a == "--row") {
        // A row child: one run, one JSON line.
        let index = args.get(pos + 1).and_then(|a| a.parse::<usize>().ok());
        let mode = ["fast_forward", "ff_streamed", "single_step"]
            .into_iter()
            .find(|&m| args.get(pos + 2).is_some_and(|a| a == m));
        let (Some(index), Some(mode)) = (index.filter(|&i| i < grid.len()), mode) else {
            eprintln!("usage: --row <grid index> <fast_forward|ff_streamed|single_step>");
            std::process::exit(2);
        };
        let out = measure(&grid[index], mode);
        println!("{}", serde_json::to_string(&out).expect("serializable row"));
        return;
    }
    let max_wall_ms = numeric_flag("max-wall-ms").unwrap_or(120_000.0);
    header(if smoke {
        "scale_sweep --smoke: streaming + macro-stepping sanity check"
    } else {
        "scale_sweep: streaming & fast-forward vs single-step (34B TP=4)"
    });
    println!(
        "[{} host core(s); wall budget {max_wall_ms:.0} ms]",
        host_cores()
    );
    println!(
        "{:>5} {:>8} {:>6} {:>12} {:>3} {:>10} {:>12} {:>12} {:>12} {:>8} {:>9} {:>8}",
        "TEs",
        "reqs",
        "users",
        "mode",
        "str",
        "wall ms",
        "events",
        "iters",
        "iters/s",
        "sim s",
        "blocks",
        "rss MB",
    );
    let mut rows = Vec::new();
    let mut pairs = Vec::new();
    for index in 0..grid.len() {
        let (cfg_rows, combo) = run_config(grid, index, max_wall_ms, smoke);
        for r in &cfg_rows {
            print_row(r);
        }
        println!(
            "{:>38} ff {}   identical: {}",
            "->",
            combo
                .speedup_ff
                .map_or("   (skipped)".into(), |s| format!("{s:>5.1}x")),
            combo.reports_identical
        );
        rows.extend(cfg_rows);
        pairs.push(combo);
    }

    let all_identical = pairs.iter().all(|p| p.reports_identical);
    let sweep = Sweep { rows, pairs };
    write_json("scale_sweep", &sweep);

    if !all_identical {
        eprintln!("FAIL: an execution strategy diverged on at least one config");
        std::process::exit(1);
    }
    if smoke {
        // Parity gates: fast-forward must keep up with single-step. Both
        // retire the same logical iterations, so the ratio of their
        // iteration rates is the inverse ratio of their walls.
        for (tes, floor) in SMOKE_PARITY {
            let ratio = sweep
                .pairs
                .iter()
                .find(|p| p.tes == tes)
                .and_then(|p| p.speedup_ff)
                .expect("smoke grid runs both strategies on each gated config");
            println!(
                "parity at {tes} TEs: fast-forward / single-step = {ratio:.2} (floor {floor})"
            );
            if ratio < floor {
                eprintln!(
                    "FAIL: fast-forward at {ratio:.2}x the single-step iteration rate on {tes} TEs (floor {floor})"
                );
                std::process::exit(1);
            }
        }
        // RSS gate on the large streamed run: the CI scale gate's
        // streamed row.
        let gate = &SMOKE_GRID[SMOKE_GRID.len() - 1];
        let gate_rss_mb = sweep
            .rows
            .iter()
            .find(|r| r.tes == gate.tes && r.requests == gate.requests && r.mode == "ff_streamed")
            .map(|r| r.peak_rss_mb)
            .expect("the smoke grid streams its last configuration");
        if gate_rss_mb > SMOKE_RSS_BUDGET_MB {
            eprintln!(
                "FAIL: streamed run peak RSS {gate_rss_mb:.1} MB exceeds budget {SMOKE_RSS_BUDGET_MB:.0} MB"
            );
            std::process::exit(1);
        }
        println!(
            "\nsmoke OK: reports identical (streamed included), streamed peak RSS {gate_rss_mb:.1} MB \
             <= {SMOKE_RSS_BUDGET_MB:.0} MB budget"
        );
        return;
    }
    // Full run: snapshot next to Cargo.toml for the perf trajectory.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_scale.json");
    let json = serde_json::to_string_pretty(&sweep).expect("serializable sweep");
    std::fs::write(&root, json).expect("write BENCH_scale.json");
    println!("[snapshot written to {}]", root.display());
    let peak = sweep
        .pairs
        .iter()
        .map(|p| p.peak_rss_mb)
        .fold(0.0, f64::max);
    println!("\npeak RSS across the sweep: {peak:.0} MB");
}
