//! Directed failure-recovery scenarios: each test stages one specific fault
//! and pins the recovery semantics the fault model promises — crash during
//! prefill, crash during decode, loss of a migration destination, a
//! straggler TE, and the zero-fault identity guarantee.

use deepserve::{
    materialize_trace, ApiRequest, ClusterConfig, ClusterSim, HealthConfig, Policy, RunReport,
    TeRole,
};
use simcore::{FaultPlan, SimDuration, SimRng, SimTime, TraceLevel};
use workloads::{ChatTrace, ReqSpec};

fn cfg() -> ClusterConfig {
    ClusterConfig {
        policy: Policy::Combined,
        ..ClusterConfig::standard_34b()
    }
}

fn one_request(prompt_len: usize, output_len: u32) -> Vec<ApiRequest> {
    materialize_trace(
        &[ReqSpec {
            arrival: SimTime::ZERO,
            prompt_seed: 0xDEAD,
            prompt_len,
            shared_prefix: None,
            output_len,
        }],
        64_000,
    )
}

/// Runs the workload on one colocated TE with the given plan; returns the
/// report plus `(completed, failed)`.
fn run_single_te(reqs: Vec<ApiRequest>, plan: &FaultPlan) -> (RunReport, u64, u64) {
    let mut sim = ClusterSim::new(cfg(), &[TeRole::Colocated]);
    sim.enable_tracing(TraceLevel::Lifecycle, 1 << 20);
    sim.inject(reqs);
    sim.install_faults(plan, HealthConfig::default());
    let report = sim.run_to_completion();
    let (done, _) = sim.progress();
    let failed = sim.failed();
    (report, done, failed)
}

/// First-token and finish times of the single request in a healthy run,
/// used to aim crashes at a specific lifecycle phase.
fn healthy_lifecycle(reqs: Vec<ApiRequest>) -> (SimTime, SimTime) {
    let (report, done, _) = run_single_te(reqs, &FaultPlan::none());
    assert_eq!(done, 1);
    let first = report
        .trace
        .events_labeled("request.first_token")
        .next()
        .expect("first_token event")
        .at;
    let end = report
        .trace
        .events_labeled("request.finished")
        .next()
        .expect("finished event")
        .at;
    (first, end)
}

fn midpoint(a: SimTime, b: SimTime) -> SimTime {
    SimTime::from_nanos((a.as_nanos() + b.as_nanos()) / 2)
}

#[test]
fn crash_during_prefill_requeues_and_completes_after_repair() {
    let reqs = one_request(6144, 32);
    let (first_token, _) = healthy_lifecycle(reqs.clone());
    // Aim the crash inside the prefill window (before the first token).
    let crash_at = midpoint(SimTime::ZERO, first_token);
    let plan = FaultPlan::none().with_crash(crash_at, 0);

    let (mut report, done, failed) = run_single_te(reqs, &plan);
    assert_eq!((done, failed), (1, 0), "request survives via re-dispatch");
    assert_eq!(report.counters.get("cluster.failures"), 1);
    assert_eq!(report.counters.get("cluster.detected_down"), 1);
    assert_eq!(report.counters.get("cluster.repaired"), 1);
    assert!(report.counters.get("sim.requeued") >= 1);
    // With the only TE down, re-dispatch must defer until repair lands.
    assert!(report.counters.get("sim.dispatch_deferred") >= 1);
    // The recovered JCT includes detection + repair + re-prefill.
    let jct = report.latency.jct_ms();
    assert!(
        jct.max * 1e-3 > crash_at.as_secs_f64(),
        "JCT {}ms must extend past the crash at {}s",
        jct.max,
        crash_at.as_secs_f64()
    );
}

#[test]
fn crash_during_decode_loses_kv_and_still_completes() {
    let reqs = one_request(512, 256);
    let (first_token, end) = healthy_lifecycle(reqs.clone());
    assert!(first_token < end);
    // Aim the crash mid-decode: after the first token, before the last.
    let crash_at = midpoint(first_token, end);
    let plan = FaultPlan::none().with_crash(crash_at, 0);

    let (report, done, failed) = run_single_te(reqs, &plan);
    assert_eq!((done, failed), (1, 0));
    assert_eq!(report.counters.get("cluster.failures"), 1);
    assert!(report.counters.get("sim.requeued") >= 1);
    // The decode state was lost mid-stream: the request re-enters and the
    // trace shows more than one first_token emission.
    let firsts = report.trace.events_labeled("request.first_token").count();
    assert!(
        firsts >= 2,
        "expected re-prefill, saw {firsts} first tokens"
    );
}

#[test]
fn migration_destination_crash_aborts_and_reroutes() {
    // A prefill/decode pair plus a colocated fallback: when the decode TE
    // dies, in-flight and not-yet-started migrations abort and their
    // requests reroute (to the colocated TE until the repair lands).
    let mut rng = SimRng::seed_from_u64(21);
    let reqs = materialize_trace(&ChatTrace::paper(2.0).generate(&mut rng, 30), 64_000);
    let expected = reqs.len() as u64;
    let plan = FaultPlan::none().with_crash(SimTime::from_secs(4), 1);

    let mut sim = ClusterSim::new(cfg(), &[TeRole::Prefill, TeRole::Decode, TeRole::Colocated]);
    sim.enable_tracing(TraceLevel::Lifecycle, 1 << 20);
    sim.inject(reqs);
    sim.install_faults(&plan, HealthConfig::default());
    let report = sim.run_to_completion();
    let (done, sub) = sim.progress();
    assert_eq!(sub, expected);
    assert_eq!(done + sim.failed(), sub, "conservation under pair loss");
    assert_eq!(report.counters.get("sim.double_terminal"), 0);
    assert!(
        report.counters.get("sim.migrations_aborted") >= 1,
        "the dead decode endpoint must abort at least one migration"
    );
    assert_eq!(report.counters.get("cluster.repaired"), 1);
}

#[test]
fn straggler_te_degrades_latency_but_loses_nothing() {
    let workload = || {
        let mut rng = SimRng::seed_from_u64(17);
        materialize_trace(&ChatTrace::paper(0.8).generate(&mut rng, 30), 64_000)
    };
    let run = |plan: &FaultPlan| {
        let mut sim = ClusterSim::new(cfg(), &[TeRole::Colocated]);
        sim.inject(workload());
        sim.install_faults(plan, HealthConfig::default());
        let mut report = sim.run_to_completion();
        let (done, sub) = sim.progress();
        assert_eq!(done, sub, "a slow TE finishes everything eventually");
        (
            report.latency.tpot_ms().p99,
            report.latency.jct_ms().mean,
            report,
        )
    };
    let (healthy_tpot, healthy_jct, _) = run(&FaultPlan::none());
    // 4x slower than spec for the bulk of the run: TPOT blows through any
    // per-token SLA that the healthy run meets.
    let plan = FaultPlan::none().with_straggler(SimTime::ZERO, 0, 4.0, SimDuration::from_secs(120));
    let (slow_tpot, slow_jct, report) = run(&plan);
    assert_eq!(report.counters.get("cluster.stragglers"), 1);
    assert_eq!(report.counters.get("cluster.failures"), 0, "slow, not dead");
    assert!(
        slow_tpot > healthy_tpot * 2.0,
        "straggler TPOT p99 {slow_tpot} should dwarf healthy {healthy_tpot}"
    );
    assert!(slow_jct > healthy_jct);
}

#[test]
fn zero_fault_plan_is_bit_identical_to_unarmed_run() {
    let go = |armed: bool| {
        let mut rng = SimRng::seed_from_u64(5);
        let reqs = materialize_trace(&ChatTrace::paper(1.0).generate(&mut rng, 40), 64_000);
        let mut sim = ClusterSim::new(cfg(), &[TeRole::Colocated, TeRole::Prefill, TeRole::Decode]);
        sim.enable_tracing(TraceLevel::Lifecycle, 1 << 20);
        sim.inject(reqs);
        if armed {
            // The empty plan must be a guaranteed no-op.
            sim.install_faults(&FaultPlan::none(), HealthConfig::default());
        }
        let mut report = sim.run_to_completion();
        (report.to_json().to_json(), report.trace.to_json().to_json())
    };
    let (unarmed_report, unarmed_trace) = go(false);
    let (armed_report, armed_trace) = go(true);
    assert_eq!(
        unarmed_report, armed_report,
        "report must be byte-identical"
    );
    assert_eq!(unarmed_trace, armed_trace, "trace must be byte-identical");
}
