//! Chaos suite: under *arbitrary* generated fault plans, every request must
//! terminate exactly once — finished, or failed-with-reason after retry
//! exhaustion. No hangs, no double-finishes, no lost requests.
//!
//! The driver's conservation invariant is `completed + failed == submitted`
//! with `sim.double_terminal == 0`; `run_to_completion` returning at all is
//! the no-hang half (a livelock trips the sim's event budget).
//!
//! CI runs this suite over a matrix of `CHAOS_SEED` values; the seed is
//! mixed into the workload generator so each matrix entry explores a
//! different deterministic slice of (workload x fault-plan) space.

use deepserve::{
    fleet_catalog, materialize_fleet_trace, materialize_trace, ClusterConfig, ClusterSim,
    ColdStartMode, FleetConfig, HealthConfig, Policy, TeRole,
};
use proptest::prelude::*;
use simcore::{FaultKind, FaultPlan, SimDuration, SimRng, SimTime};
use workloads::{ChatTrace, FleetTrace};

fn chaos_seed() -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Mixed pool: two colocated TEs plus one disaggregated pair, so plans hit
/// every recovery path (colocated re-dispatch, migration aborts, pair loss).
const ROLES: [TeRole; 4] = [
    TeRole::Colocated,
    TeRole::Colocated,
    TeRole::Prefill,
    TeRole::Decode,
];

proptest! {
    #[test]
    fn every_request_terminates_exactly_once(
        workload_salt in 0u64..1_000,
        rps_x10 in 5u64..30,
        crashes in prop::collection::vec((0u32..4, 500u64..25_000), 0..3),
        stragglers in prop::collection::vec(
            (0u32..4, 0u64..15_000, 1.5f64..6.0, 1_000u64..10_000), 0..2),
        degrades in prop::collection::vec(
            (0.05f64..0.9, 0u64..15_000, 1_000u64..10_000), 0..2),
        flakes in prop::collection::vec((0u64..15_000, 500u64..5_000), 0..2),
    ) {
        let mut plan = FaultPlan::none();
        for &(te, at) in &crashes {
            plan.push(SimTime::from_millis(at), FaultKind::TeCrash { te });
        }
        for &(te, at, factor, dur) in &stragglers {
            plan.push(
                SimTime::from_millis(at),
                FaultKind::Straggler { te, factor, duration: SimDuration::from_millis(dur) },
            );
        }
        for &(factor, at, dur) in &degrades {
            plan.push(
                SimTime::from_millis(at),
                FaultKind::LinkDegrade { factor, duration: SimDuration::from_millis(dur) },
            );
        }
        for &(at, dur) in &flakes {
            plan.push(
                SimTime::from_millis(at),
                FaultKind::TransferFlake { duration: SimDuration::from_millis(dur) },
            );
        }

        let mut rng = SimRng::seed_from_u64(
            chaos_seed().wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ workload_salt,
        );
        let reqs = materialize_trace(
            &ChatTrace::paper(rps_x10 as f64 / 10.0).generate(&mut rng, 24),
            64_000,
        );
        let expected = reqs.len() as u64;

        let cfg = ClusterConfig {
            policy: Policy::Combined,
            ..ClusterConfig::standard_34b()
        };
        let mut sim = ClusterSim::new(cfg, &ROLES);
        sim.inject(reqs);
        sim.install_faults(&plan, HealthConfig::default());
        let report = sim.run_to_completion();

        let (done, sub) = sim.progress();
        prop_assert_eq!(sub, expected);
        // Conservation: every request reaches exactly one terminal state.
        prop_assert_eq!(done + sim.failed(), sub);
        prop_assert_eq!(report.counters.get("sim.double_terminal"), 0);
        prop_assert_eq!(report.latency.completed(), done);
        prop_assert_eq!(report.counters.get("sim.completed"), done);
        prop_assert_eq!(report.counters.get("sim.failed"), sim.failed());
        prop_assert_eq!(report.failed, sim.failed());
        // Detection/repair bookkeeping balances: each detection starts
        // exactly one repair.
        prop_assert_eq!(
            report.counters.get("cluster.detected_down"),
            report.counters.get("cluster.repairs_started")
        );
    }
}

// ---- fleet chaos --------------------------------------------------------
//
// The fleet layer adds new in-flight state a crash can land inside:
// checkpoint loads, multicast forks, and requests parked waiting for a
// model. Conservation and replayability must survive all of it.

/// One faulted fleet run; asserts conservation internally and returns the
/// serialized report for replay comparison.
fn fleet_chaos_run(
    seed: u64,
    mode: ColdStartMode,
    models: usize,
    n_reqs: usize,
    plan: &FaultPlan,
) -> String {
    let mut rng = SimRng::seed_from_u64(seed);
    let specs = FleetTrace::skewed(models, 3.0).generate(&mut rng, n_reqs);
    let reqs = materialize_fleet_trace(&specs, 64_000);
    let expected = reqs.len() as u64;
    let roles = [TeRole::Colocated; 4];
    let mut sim = ClusterSim::new(ClusterConfig::standard_34b(), &roles);
    sim.enable_fleet(
        fleet_catalog(models),
        FleetConfig {
            mode,
            ..FleetConfig::default()
        },
    );
    sim.stage_fleet_on_ssd();
    sim.inject(reqs);
    sim.install_faults(plan, HealthConfig::default());
    let mut report = sim.run_to_completion();

    let (done, sub) = sim.progress();
    assert_eq!(sub, expected);
    assert_eq!(done + sim.failed(), sub, "fleet conservation under faults");
    assert_eq!(report.counters.get("sim.double_terminal"), 0);
    assert_eq!(report.latency.completed(), done);
    report.to_json().to_json()
}

proptest! {
    /// Arbitrary crash/straggler plans against skewed fleet traces in
    /// every cold-start mode: each request terminates exactly once, and
    /// the identical `(seed, plan)` replays to byte-identical report JSON.
    #[test]
    fn fleet_requests_terminate_exactly_once(
        workload_salt in 0u64..1_000,
        models in 2usize..10,
        mode_idx in 0usize..3,
        crashes in prop::collection::vec((0u32..4, 500u64..25_000), 0..3),
        stragglers in prop::collection::vec(
            (0u32..4, 0u64..15_000, 1.5f64..6.0, 1_000u64..10_000), 0..2),
    ) {
        let mut plan = FaultPlan::none();
        for &(te, at) in &crashes {
            plan.push(SimTime::from_millis(at), FaultKind::TeCrash { te });
        }
        for &(te, at, factor, dur) in &stragglers {
            plan.push(
                SimTime::from_millis(at),
                FaultKind::Straggler { te, factor, duration: SimDuration::from_millis(dur) },
            );
        }
        let mode = [
            ColdStartMode::PrewarmMiss,
            ColdStartMode::Hierarchy,
            ColdStartMode::HierarchyMulticast,
        ][mode_idx];
        let seed = chaos_seed().wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ workload_salt;
        let a = fleet_chaos_run(seed, mode, models, 20, &plan);
        let b = fleet_chaos_run(seed, mode, models, 20, &plan);
        prop_assert_eq!(a, b, "faulted fleet run must replay bit-for-bit");
    }
}

/// A TE crash landing *mid-checkpoint-load*: the first request's cold
/// start targets TE 0 (all tiers equal, lowest id wins); killing it at 2s
/// — squarely inside the multi-second load — must abort the load, re-run
/// the cold start elsewhere, and still complete every request.
#[test]
fn crash_mid_checkpoint_load_recovers() {
    let plan = FaultPlan::none().with_crash(SimTime::from_secs(2), 0);
    let go = || {
        let mut sim = ClusterSim::new(ClusterConfig::standard_34b(), &[TeRole::Colocated; 4]);
        sim.enable_fleet(fleet_catalog(1), FleetConfig::default());
        let specs = FleetTrace::skewed(1, 2.0).generate(&mut SimRng::seed_from_u64(3), 8);
        sim.inject(materialize_fleet_trace(&specs, 64_000));
        sim.install_faults(&plan, HealthConfig::default());
        let mut report = sim.run_to_completion();
        let (done, sub) = sim.progress();
        assert_eq!(done + sim.failed(), sub, "conservation");
        assert_eq!(sim.failed(), 0, "waiters must be re-dispatched, not lost");
        assert!(
            report.counters.get("fleet.loads_aborted") >= 1,
            "the crash must land inside the load: {:?}",
            report.counters
        );
        assert!(
            report.counters.get("fleet.cold_starts") >= 2,
            "the aborted load must be retried on a surviving TE"
        );
        report.to_json().to_json()
    };
    assert_eq!(go(), go(), "crash-during-load must replay bit-for-bit");
}

/// A TE crash landing *mid-multicast*: heavy single-model pressure forks
/// replicas via the binary tree; crashing a fork target while the
/// multicast is in flight must drop only that replica and keep
/// conservation. Bit-for-bit replayable from `(seed, plan)`.
#[test]
fn crash_mid_multicast_recovers() {
    let plan = FaultPlan::none().with_crash(SimTime::from_secs(9), 3);
    let go = || {
        let mut sim = ClusterSim::new(ClusterConfig::standard_34b(), &[TeRole::Colocated; 4]);
        sim.enable_fleet(
            fleet_catalog(1),
            FleetConfig {
                mode: ColdStartMode::HierarchyMulticast,
                ..FleetConfig::default()
            },
        );
        sim.stage_fleet_on_ssd();
        // A concentrated burst: everyone wants the one model, so draining
        // the cold-start queue trips scale-out multicast.
        let specs = FleetTrace::skewed(1, 50.0).generate(&mut SimRng::seed_from_u64(5), 60);
        sim.inject(materialize_fleet_trace(&specs, 64_000));
        sim.install_faults(&plan, HealthConfig::default());
        let mut report = sim.run_to_completion();
        let (done, sub) = sim.progress();
        assert_eq!(done + sim.failed(), sub, "conservation");
        assert_eq!(report.counters.get("sim.double_terminal"), 0);
        assert!(
            report.counters.get("fleet.cold_starts") >= 2,
            "pressure must trigger a scale-out load: {:?}",
            report.counters
        );
        report.to_json().to_json()
    };
    assert_eq!(go(), go(), "crash-during-multicast must replay bit-for-bit");
}
