//! Acceptance test for the observability layer: the per-request lifecycle
//! events in a traced cluster run must reconstruct the *same* TTFT/TPOT
//! distribution that the report's `LatencyStats` accumulated on the side.
//! `LatencyStats` is the one store of those samples: the report's
//! top-level `ttft_ms`/`tpot_ms` and its `metrics["cluster.*_ms"]` entries
//! both render from it (`report_digest.rs` checks they agree). This is
//! what makes a `--trace` dump trustworthy — the trace is not a parallel
//! approximation of the run, it IS the run.

use std::collections::BTreeMap;

use deepserve::{
    fleet_catalog, materialize_fleet_trace, materialize_trace, ClusterConfig, ClusterSim,
    ColdStartMode, FleetConfig, HealthConfig, Policy, TeRole,
};
use flowserve::EngineConfig;
use proptest::prelude::*;
use simcore::{FaultPlan, Samples, SimDuration, SimRng, SimTime, TraceLevel};
use workloads::{ChatTrace, FleetTrace};

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs()))
}

/// Runs a PD-disaggregated cluster (the Figure 4 code path, including KV
/// migrations over DistFlow) with lifecycle tracing on, then rebuilds every
/// request's TTFT/TPOT from trace events alone and compares percentiles
/// against the report.
#[test]
fn traced_run_reconstructs_report_latency() {
    let mut rng = SimRng::seed_from_u64(7);
    let reqs = materialize_trace(&ChatTrace::paper(6.0).generate(&mut rng, 80), 64_000);
    let cfg = ClusterConfig {
        policy: Policy::Combined,
        ..ClusterConfig::standard_34b()
    };
    let roles = [TeRole::Prefill, TeRole::Prefill, TeRole::Decode];
    let mut sim = ClusterSim::new(cfg, &roles);
    sim.enable_tracing(TraceLevel::Lifecycle, 1 << 20);
    sim.inject(reqs);
    let mut report = sim.run_to_completion();
    assert_eq!(
        report.trace.dropped, 0,
        "ring buffer must not overflow here"
    );

    // Index the three lifecycle points by request id. A request arrives
    // exactly once, emits first_token exactly once (on the prefill TE when
    // disaggregated), and finishes exactly once (on the decode TE).
    let mut arrival: BTreeMap<u64, SimTime> = BTreeMap::new();
    let mut first_token: BTreeMap<u64, SimTime> = BTreeMap::new();
    let mut finished: BTreeMap<u64, (SimTime, u64)> = BTreeMap::new();
    for e in report.trace.events_labeled("arrival") {
        let req = e.attr_u64("req").expect("arrival carries req");
        assert!(arrival.insert(req, e.at).is_none(), "duplicate arrival");
    }
    for e in report.trace.events_labeled("request.first_token") {
        let req = e.attr_u64("req").expect("first_token carries req");
        assert!(
            first_token.insert(req, e.at).is_none(),
            "duplicate first_token"
        );
    }
    for e in report.trace.events_labeled("request.finished") {
        let req = e.attr_u64("req").expect("finished carries req");
        let out = e.attr_u64("output_tokens").expect("finished carries count");
        assert!(
            finished.insert(req, (e.at, out)).is_none(),
            "duplicate finished"
        );
    }
    assert_eq!(
        finished.len() as u64,
        report.latency.completed(),
        "one finished event per completed request"
    );

    // Rebuild the distributions with the engine's own latency arithmetic:
    // ttft = first_token - arrival, tpot = (finished - first_token) over
    // (output_tokens - 1) inter-token gaps, integer-nanosecond division.
    let mut ttft = Samples::default();
    let mut tpot = Samples::default();
    for (req, &(end, out)) in &finished {
        let t0 = arrival[req];
        let t1 = first_token[req];
        assert!(t0 <= t1 && t1 <= end, "lifecycle order for req {req}");
        ttft.record(t1.since(t0).as_millis_f64());
        let gap = if out > 1 {
            SimDuration::from_nanos(end.since(t1).as_nanos() / (out - 1))
        } else {
            SimDuration::ZERO
        };
        tpot.record(gap.as_millis_f64());
    }

    let (rt, tt) = (ttft.summary(), tpot.summary());
    let (rr, tr) = (report.latency.ttft_ms(), report.latency.tpot_ms());
    assert_eq!(rt.count, rr.count);
    assert!(close(rt.p50, rr.p50), "ttft p50 {} vs {}", rt.p50, rr.p50);
    assert!(close(rt.p90, rr.p90), "ttft p90 {} vs {}", rt.p90, rr.p90);
    assert!(close(rt.p99, rr.p99), "ttft p99 {} vs {}", rt.p99, rr.p99);
    assert!(close(tt.p50, tr.p50), "tpot p50 {} vs {}", tt.p50, tr.p50);
    assert!(close(tt.p90, tr.p90), "tpot p90 {} vs {}", tt.p90, tr.p90);
    assert!(close(tt.p99, tr.p99), "tpot p99 {} vs {}", tt.p99, tr.p99);
}

/// A traced run must be byte-identical in outcome to an untraced one:
/// tracing is observation, never perturbation.
#[test]
fn tracing_does_not_perturb_the_simulation() {
    let run = |traced: bool| {
        let mut rng = SimRng::seed_from_u64(11);
        let reqs = materialize_trace(&ChatTrace::paper(4.0).generate(&mut rng, 40), 64_000);
        let cfg = ClusterConfig {
            policy: Policy::Combined,
            ..ClusterConfig::standard_34b()
        };
        let mut sim = ClusterSim::new(cfg, &[TeRole::Colocated, TeRole::Colocated]);
        if traced {
            sim.enable_tracing(TraceLevel::Full, 1 << 20);
        }
        sim.inject(reqs);
        let mut report = sim.run_to_completion();
        (
            report.makespan,
            report.latency.completed(),
            report.latency.ttft_ms().p99,
            report.latency.tpot_ms().p99,
        )
    };
    assert_eq!(run(false), run(true));
}

/// A faulted cluster with a crash plan installed.
fn faulted_sim() -> ClusterSim {
    faulted_sim_paced(true)
}

fn faulted_sim_paced(fast_forward: bool) -> ClusterSim {
    let mut rng = SimRng::seed_from_u64(13);
    let reqs = materialize_trace(&ChatTrace::paper(1.5).generate(&mut rng, 50), 64_000);
    let cfg = ClusterConfig {
        policy: Policy::Combined,
        ..ClusterConfig::standard_34b()
    };
    let plan = FaultPlan::none()
        .with_crash(SimTime::from_secs(6), 0)
        .with_straggler(SimTime::from_secs(2), 1, 3.0, SimDuration::from_secs(5))
        .with_transfer_flake(SimTime::from_secs(1), SimDuration::from_secs(3));
    let roles = [TeRole::Colocated, TeRole::Colocated, TeRole::Colocated];
    let mut sim = ClusterSim::new(cfg, &roles);
    sim.set_fast_forward(fast_forward);
    sim.enable_tracing(TraceLevel::Lifecycle, 1 << 20);
    sim.inject(reqs);
    sim.install_faults(&plan, HealthConfig::default());
    sim
}

/// The determinism contract extends to faulted runs: the same
/// `(workload seed, fault plan)` must replay to byte-identical report JSON
/// and trace JSON, crashes and all.
#[test]
fn faulted_replay_is_bit_identical() {
    let go = || {
        let mut sim = faulted_sim();
        let mut report = sim.run_to_completion();
        assert!(
            report.counters.get("cluster.failures") >= 1,
            "the plan must actually crash something"
        );
        (report.to_json().to_json(), report.trace.to_json().to_json())
    };
    assert_eq!(go(), go());
}

/// Trace/report consistency holds through re-queues: a request that was
/// re-dispatched after a crash emits a *new* `request.first_token` from the
/// attempt that completed it, so rebuilding TTFT/TPOT with last-wins
/// first-token events must still match the report percentiles.
#[test]
fn faulted_trace_reconstructs_report_latency() {
    let mut sim = faulted_sim();
    let mut report = sim.run_to_completion();
    assert_eq!(report.trace.dropped, 0);
    let (done, sub) = sim.progress();
    assert_eq!(done + sim.failed(), sub);
    assert!(
        report.counters.get("sim.requeued") >= 1,
        "the crash must hit at least one in-flight request"
    );

    let mut arrival: BTreeMap<u64, SimTime> = BTreeMap::new();
    let mut first_token: BTreeMap<u64, SimTime> = BTreeMap::new();
    let mut finished: BTreeMap<u64, (SimTime, u64)> = BTreeMap::new();
    for e in report.trace.events_labeled("arrival") {
        let req = e.attr_u64("req").expect("arrival carries req");
        assert!(arrival.insert(req, e.at).is_none(), "duplicate arrival");
    }
    for e in report.trace.events_labeled("request.first_token") {
        let req = e.attr_u64("req").expect("first_token carries req");
        // Last-wins: a crashed attempt's first token is superseded by the
        // re-prefilled attempt that actually delivered the stream.
        let latest = first_token.entry(req).or_insert(e.at);
        *latest = (*latest).max(e.at);
    }
    for e in report.trace.events_labeled("request.finished") {
        let req = e.attr_u64("req").expect("finished carries req");
        let out = e.attr_u64("output_tokens").expect("finished carries count");
        assert!(
            finished.insert(req, (e.at, out)).is_none(),
            "a request must finish at most once, even when requeued"
        );
    }
    assert_eq!(finished.len() as u64, report.latency.completed());
    let failed_events = report.trace.events_labeled("request.failed").count() as u64;
    assert_eq!(
        failed_events, report.failed,
        "one failure event per failure"
    );

    let mut ttft = Samples::default();
    let mut tpot = Samples::default();
    for (req, &(end, out)) in &finished {
        let t0 = arrival[req];
        let t1 = first_token[req];
        assert!(t0 <= t1 && t1 <= end, "lifecycle order for req {req}");
        ttft.record(t1.since(t0).as_millis_f64());
        let gap = if out > 1 {
            SimDuration::from_nanos(end.since(t1).as_nanos() / (out - 1))
        } else {
            SimDuration::ZERO
        };
        tpot.record(gap.as_millis_f64());
    }
    let (rt, tt) = (ttft.summary(), tpot.summary());
    let (rr, tr) = (report.latency.ttft_ms(), report.latency.tpot_ms());
    assert_eq!(rt.count, rr.count);
    assert!(close(rt.p50, rr.p50), "ttft p50 {} vs {}", rt.p50, rr.p50);
    assert!(close(rt.p99, rr.p99), "ttft p99 {} vs {}", rt.p99, rr.p99);
    assert!(close(tt.p50, tr.p50), "tpot p50 {} vs {}", tt.p50, tr.p50);
    assert!(close(tt.p99, tr.p99), "tpot p99 {} vs {}", tt.p99, tr.p99);
}

// ---- decode fast-forward (macro-stepping) equivalence -------------------
//
// Fast-forward changes how the simulator executes (how many events it
// processes), never what it computes: the serialized `RunReport` must be
// byte-identical with macro-stepping on and off.

/// One full run at the given pacing; returns the serialized report and the
/// number of events the simulator processed.
fn run_paced(
    fast_forward: bool,
    roles: &[TeRole],
    engine: EngineConfig,
    seed: u64,
    rps: f64,
    n_reqs: usize,
    faulted: bool,
) -> (String, u64) {
    let mut rng = SimRng::seed_from_u64(seed);
    let reqs = materialize_trace(&ChatTrace::paper(rps).generate(&mut rng, n_reqs), 64_000);
    let cfg = ClusterConfig {
        policy: Policy::Combined,
        engine,
        ..ClusterConfig::standard_34b()
    };
    let mut sim = ClusterSim::new(cfg, roles);
    sim.set_fast_forward(fast_forward);
    sim.inject(reqs);
    if faulted {
        let plan = FaultPlan::none()
            .with_crash(SimTime::from_secs(6), 0)
            .with_straggler(SimTime::from_secs(2), 1, 3.0, SimDuration::from_secs(5))
            .with_transfer_flake(SimTime::from_secs(1), SimDuration::from_secs(3));
        sim.install_faults(&plan, HealthConfig::default());
    }
    let mut report = sim.run_to_completion();
    (report.to_json().to_json(), sim.events_processed())
}

proptest! {
    /// Random workloads x random engine configs x random topologies, with
    /// and without faults: fast-forward on vs off must produce
    /// byte-identical serialized `RunReport`s.
    #[test]
    fn fast_forward_is_bit_identical(
        seed in 0u64..10_000,
        rps_x10 in 5u64..60,
        n_reqs in 8usize..40,
        topo in 0usize..4,
        max_batch in 4usize..48,
        chunk_idx in 0usize..2,
        faulted in 0usize..2,
    ) {
        let roles: &[TeRole] = match topo {
            0 => &[TeRole::Colocated, TeRole::Colocated],
            1 => &[TeRole::Colocated, TeRole::Colocated, TeRole::Colocated],
            2 => &[TeRole::Prefill, TeRole::Prefill, TeRole::Decode],
            _ => &[TeRole::Prefill, TeRole::Decode, TeRole::Colocated],
        };
        let engine = EngineConfig {
            max_batch,
            prefill_chunk_tokens: [256, 512][chunk_idx],
            ..EngineConfig::colocated()
        };
        let rps = rps_x10 as f64 / 10.0;
        let ff = run_paced(true, roles, engine.clone(), seed, rps, n_reqs, faulted == 1);
        let ss = run_paced(false, roles, engine, seed, rps, n_reqs, faulted == 1);
        prop_assert_eq!(&ff.0, &ss.0, "fast-forward diverged from single-step");
    }
}

/// Directed PD-disaggregated scenario (KV migrations, populate transfers):
/// identical reports, strictly fewer events with fast-forward.
#[test]
fn fast_forward_matches_single_step_disaggregated() {
    let roles = [TeRole::Prefill, TeRole::Prefill, TeRole::Decode];
    let engine = EngineConfig::colocated();
    let ff = run_paced(true, &roles, engine.clone(), 7, 6.0, 80, false);
    let ss = run_paced(false, &roles, engine, 7, 6.0, 80, false);
    assert_eq!(ff.0, ss.0);
    assert!(
        ff.1 < ss.1,
        "fast-forward must absorb decode wakes: {} vs {} events",
        ff.1,
        ss.1
    );
}

/// Directed colocated decode-heavy scenario: the macro-stepping sweet spot.
/// Reports identical; the event count drops by a large factor.
#[test]
fn fast_forward_reduces_events() {
    let roles = [TeRole::Colocated, TeRole::Colocated];
    let engine = EngineConfig::colocated();
    let ff = run_paced(true, &roles, engine.clone(), 11, 2.0, 40, false);
    let ss = run_paced(false, &roles, engine, 11, 2.0, 40, false);
    assert_eq!(ff.0, ss.0);
    assert!(
        ff.1 * 2 < ss.1,
        "expected >= 2x fewer events on a decode-heavy run: {} vs {}",
        ff.1,
        ss.1
    );
}

/// Faults, stragglers and migrations force single-step fallback on the
/// affected TEs — and the overall outcome (latencies, counters, failure
/// set, makespan) still matches single-stepping bit for bit, trace
/// included for the lifecycle level.
#[test]
fn fast_forward_matches_single_step_faulted() {
    // Macro-stepping legitimately coarsens the *iteration* spans in a
    // trace, so raw traces differ; every request-level milestone must
    // still land at the exact single-step instant.
    let lifecycle = |report: &mut deepserve::RunReport| {
        let mut stream: Vec<(String, u64, simcore::SimTime)> = Vec::new();
        for label in [
            "arrival",
            "request.first_token",
            "request.finished",
            "request.failed",
            "request.requeued",
        ] {
            for e in report.trace.events_labeled(label) {
                stream.push((label.to_string(), e.attr_u64("req").unwrap_or(0), e.at));
            }
        }
        stream.sort();
        stream
    };
    let go = |ff: bool| {
        let mut sim = faulted_sim_paced(ff);
        let mut report = sim.run_to_completion();
        assert!(report.counters.get("cluster.failures") >= 1);
        let stream = lifecycle(&mut report);
        (report.to_json().to_json(), stream)
    };
    let (ff_report, ff_stream) = go(true);
    let (ss_report, ss_stream) = go(false);
    assert_eq!(ff_report, ss_report);
    assert_eq!(ff_stream, ss_stream);
}

// ---- model-fleet determinism --------------------------------------------
//
// The fleet layer (cold starts through the storage hierarchy, multicast
// scale-out, HBM eviction) routes everything through `sched`, so the same
// contract applies: a rerun replays report AND trace byte for byte, and
// fast-forward on or off renders the same report, in every cold-start
// mode.

/// One full traced fleet run over a skewed multi-model trace; returns the
/// serialized report and the serialized lifecycle trace.
fn run_fleet(
    fast_forward: bool,
    mode: ColdStartMode,
    seed: u64,
    models: usize,
    n_reqs: usize,
) -> (String, String) {
    let mut rng = SimRng::seed_from_u64(seed);
    let specs = FleetTrace::skewed(models, 4.0).generate(&mut rng, n_reqs);
    let reqs = materialize_fleet_trace(&specs, 64_000);
    let roles = [TeRole::Colocated, TeRole::Colocated, TeRole::Colocated];
    let mut sim = ClusterSim::new(ClusterConfig::standard_34b(), &roles);
    sim.set_fast_forward(fast_forward);
    sim.enable_tracing(TraceLevel::Lifecycle, 1 << 20);
    let cfg = FleetConfig {
        mode,
        ..FleetConfig::default()
    };
    sim.enable_fleet(fleet_catalog(models), cfg);
    sim.stage_fleet_on_ssd();
    sim.inject(reqs);
    let mut report = sim.run_to_completion();
    let (done, sub) = sim.progress();
    assert_eq!(done + sim.failed(), sub, "fleet conservation");
    (report.to_json().to_json(), report.trace.to_json().to_json())
}

proptest! {
    /// Random fleet workloads x cold-start modes: fast-forward on vs off
    /// must render byte-identical reports. (Traces legitimately differ:
    /// macro-stepping coarsens iteration spans.)
    #[test]
    fn fleet_runs_are_bit_identical(
        seed in 0u64..10_000,
        models in 3usize..24,
        n_reqs in 8usize..32,
        mode_idx in 0usize..3,
    ) {
        let mode = [
            ColdStartMode::PrewarmMiss,
            ColdStartMode::Hierarchy,
            ColdStartMode::HierarchyMulticast,
        ][mode_idx];
        let ff = run_fleet(true, mode, seed, models, n_reqs);
        let ss = run_fleet(false, mode, seed, models, n_reqs);
        prop_assert_eq!(&ff.0, &ss.0, "fleet report diverged between pacings");
    }
}

/// Directed fleet scenario: skewed 16-model trace, hierarchy cold starts.
/// Replaying the identical configuration reproduces report and trace
/// exactly, and single-stepping renders the same report.
#[test]
fn fleet_replay_is_bit_identical() {
    let base = run_fleet(true, ColdStartMode::Hierarchy, 17, 16, 40);
    assert_eq!(
        base,
        run_fleet(true, ColdStartMode::Hierarchy, 17, 16, 40),
        "same seed must replay exactly"
    );
    // Fast-forward changes how many engine iterations the trace records
    // (macro-stepping coarsens iteration spans), so only the *report* is
    // byte-comparable across pacings — same caveat as
    // `fast_forward_matches_single_step_faulted`.
    let ss = run_fleet(false, ColdStartMode::Hierarchy, 17, 16, 40);
    assert_eq!(base.0, ss.0, "fast-forward diverged on the fleet path");
}

/// Same contract with multicast scale-out in play: a hot head model under
/// a concentrated trace forks replicas mid-run, and the run still replays
/// byte for byte.
#[test]
fn fleet_multicast_is_bit_identical() {
    // Few models + real pressure so scale-out actually triggers.
    let base = run_fleet(true, ColdStartMode::HierarchyMulticast, 5, 3, 60);
    assert_eq!(
        base,
        run_fleet(true, ColdStartMode::HierarchyMulticast, 5, 3, 60),
        "multicast run must replay exactly"
    );
    let ss = run_fleet(false, ColdStartMode::HierarchyMulticast, 5, 3, 60);
    assert_eq!(base.0, ss.0, "fast-forward diverged with multicast");
}

// ---- streamed vs materialized injection --------------------------------

/// One full traced run; returns the serialized report and the serialized
/// lifecycle trace.
fn run_traced(
    fast_forward: bool,
    roles: &[TeRole],
    engine: EngineConfig,
    seed: u64,
    rps: f64,
    n_reqs: usize,
) -> (String, String) {
    let mut rng = SimRng::seed_from_u64(seed);
    let reqs = materialize_trace(&ChatTrace::paper(rps).generate(&mut rng, n_reqs), 64_000);
    let cfg = ClusterConfig {
        policy: Policy::Combined,
        engine,
        ..ClusterConfig::standard_34b()
    };
    let mut sim = ClusterSim::new(cfg, roles);
    sim.set_fast_forward(fast_forward);
    sim.enable_tracing(TraceLevel::Lifecycle, 1 << 20);
    sim.inject(reqs);
    let mut report = sim.run_to_completion();
    (report.to_json().to_json(), report.trace.to_json().to_json())
}

/// One full traced run with streaming injection (one-lookahead arrival
/// admission): the trace generator stays a lazy iterator end to end.
fn run_streamed(
    fast_forward: bool,
    roles: &[TeRole],
    engine: EngineConfig,
    seed: u64,
    rps: f64,
    n_reqs: usize,
) -> (String, String) {
    let stream = ChatTrace::paper(rps).stream(SimRng::seed_from_u64(seed).fork(), n_reqs);
    let cfg = ClusterConfig {
        policy: Policy::Combined,
        engine,
        ..ClusterConfig::standard_34b()
    };
    let mut sim = ClusterSim::new(cfg, roles);
    sim.set_fast_forward(fast_forward);
    sim.enable_tracing(TraceLevel::Lifecycle, 1 << 20);
    sim.inject_stream(deepserve::stream_trace(stream, 64_000));
    let mut report = sim.run_to_completion();
    (report.to_json().to_json(), report.trace.to_json().to_json())
}

proptest! {
    /// Streaming injection vs materialized injection: a `ChatTrace` fed
    /// lazily through `inject_stream` (O(1) resident requests) must
    /// reproduce the materialized `inject` run byte for byte — same
    /// report, same trace — in both pacing modes.
    #[test]
    fn streaming_injection_is_bit_identical(
        seed in 0u64..10_000,
        rps_x10 in 5u64..60,
        n_reqs in 8usize..40,
        topo in 0usize..4,
        fast_forward in 0usize..2,
    ) {
        let roles: &[TeRole] = match topo {
            0 => &[TeRole::Colocated, TeRole::Colocated],
            1 => &[TeRole::Colocated, TeRole::Colocated, TeRole::Colocated],
            2 => &[TeRole::Prefill, TeRole::Prefill, TeRole::Decode],
            _ => &[TeRole::Prefill, TeRole::Decode, TeRole::Colocated],
        };
        let rps = rps_x10 as f64 / 10.0;
        let ff = fast_forward == 1;
        let engine = EngineConfig::colocated();
        let mat = run_traced(ff, roles, engine.clone(), seed, rps, n_reqs);
        let streamed = run_streamed(ff, roles, engine, seed, rps, n_reqs);
        prop_assert_eq!(&mat.0, &streamed.0, "streaming report diverged");
        prop_assert_eq!(&mat.1, &streamed.1, "streaming trace diverged");
    }
}
