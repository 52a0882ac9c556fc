//! `serve` — run the DeepServe gateway on a TCP port.
//!
//! ```text
//! serve [--addr 127.0.0.1:8080] [--timescale 20] [--tes 2]
//!       [--fleet-models N] [--session-capacity N]
//!       [--max-requests N] [--max-wall-ms MS]
//!       [--session-log PATH] [--report PATH] [--replay-check]
//! ```
//!
//! `--fleet-models N` serves a registry of N model endpoints instead of
//! the single default model: completions tagged `"model":
//! "fleet-000-generic-7b"` cold-start their endpoint through the storage
//! hierarchy and `/v1/models` reports per-endpoint load states.
//! `--session-log` writes the replayable ingress log on exit;
//! `--replay-check` re-runs the log through a fresh deterministic cluster
//! and fails loudly unless the replayed report is byte-identical to the
//! live run's (the determinism contract in DESIGN.md "Serving façade").

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::todo, clippy::unimplemented, clippy::iter_over_hash_type)]

use deepserve_gateway::{build_fleet_sim, build_sim, log, Server, ServerConfig};
use std::process::ExitCode;

struct Args {
    cfg: ServerConfig,
    session_log: Option<String>,
    report: Option<String>,
    replay_check: bool,
}

const USAGE: &str = "usage: serve [--addr HOST:PORT] [--timescale X] [--tes N] \
                     [--fleet-models N] [--session-capacity N] \
                     [--max-requests N] [--max-wall-ms MS] [--session-log PATH] \
                     [--report PATH] [--replay-check]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        cfg: ServerConfig {
            addr: "127.0.0.1:8080".to_string(),
            ..ServerConfig::default()
        },
        session_log: None,
        report: None,
        replay_check: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--addr" => args.cfg.addr = value("--addr")?,
            "--timescale" => {
                let v = value("--timescale")?;
                args.cfg.timescale = v
                    .parse::<f64>()
                    .ok()
                    .filter(|t| t.is_finite() && *t > 0.0)
                    .ok_or_else(|| format!("--timescale must be a positive number, got {v:?}"))?;
            }
            "--tes" => {
                let v = value("--tes")?;
                args.cfg.tes = v
                    .parse::<usize>()
                    .ok()
                    .filter(|n| *n >= 1)
                    .ok_or_else(|| format!("--tes must be a positive integer, got {v:?}"))?;
            }
            "--max-requests" => {
                let v = value("--max-requests")?;
                args.cfg.max_requests = Some(
                    v.parse::<u64>()
                        .map_err(|_| format!("--max-requests must be an integer, got {v:?}"))?,
                );
            }
            "--max-wall-ms" => {
                let v = value("--max-wall-ms")?;
                args.cfg.max_wall_ms = Some(
                    v.parse::<u64>()
                        .map_err(|_| format!("--max-wall-ms must be an integer, got {v:?}"))?,
                );
            }
            "--fleet-models" => {
                let v = value("--fleet-models")?;
                args.cfg.fleet_models = v
                    .parse::<usize>()
                    .map_err(|_| format!("--fleet-models must be an integer, got {v:?}"))?;
            }
            "--session-capacity" => {
                let v = value("--session-capacity")?;
                args.cfg.session_capacity =
                    v.parse::<usize>().ok().filter(|n| *n >= 1).ok_or_else(|| {
                        format!("--session-capacity must be a positive integer, got {v:?}")
                    })?;
            }
            "--session-log" => args.session_log = Some(value("--session-log")?),
            "--report" => args.report = Some(value("--report")?),
            "--replay-check" => args.replay_check = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let tes = args.cfg.tes;
    let fleet_models = args.cfg.fleet_models;
    let server = match Server::bind(args.cfg) {
        Ok(s) => s,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    match server.local_addr() {
        Some(addr) => println!("gateway listening on http://{addr}"),
        None => println!("gateway listening"),
    }
    let outcome = server.run();
    println!(
        "gateway done: served {} completions, {} ingress records",
        outcome.served,
        outcome.ingress.len()
    );
    if let Some(path) = &args.session_log {
        if let Err(e) = std::fs::write(path, log::to_json(&outcome.ingress)) {
            eprintln!("cannot write session log {path:?}: {e}");
            return ExitCode::FAILURE;
        }
        println!("session log written to {path}");
    }
    if let Some(path) = &args.report {
        if let Err(e) = std::fs::write(path, &outcome.report_json) {
            eprintln!("cannot write report {path:?}: {e}");
            return ExitCode::FAILURE;
        }
        println!("live report written to {path}");
    }
    if args.replay_check {
        let fresh = || {
            if fleet_models > 0 {
                build_fleet_sim(tes, fleet_models)
            } else {
                build_sim(tes)
            }
        };
        let replayed = log::replay(&outcome.ingress, fresh).to_json().to_json();
        if replayed == outcome.report_json {
            println!("replay check passed: report is byte-identical");
        } else {
            eprintln!("replay check FAILED: live and replayed reports differ");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
