//! Pins rendered reports across commits. Every other identity test compares
//! two runs of the *same* build (fast-forward on vs off, streamed vs
//! materialized, live vs replay); this one compares a run against digests
//! recorded from an earlier build, so "a refactor keeps behaviour" is a
//! mechanical check rather than an argument.
//!
//! Each config is small (well under a second in a debug build). The digest
//! is FNV-1a 64 over the byte string of `RunReport::to_json`. A change that
//! moves a digest on purpose (a new counter, a model fix) must update the
//! table below in the same commit and say why.

use deepserve::{
    fleet_catalog, materialize_fleet_trace, materialize_trace, stream_trace, ClusterConfig,
    ClusterSim, ColdStartMode, FaultRecoveryConfig, FleetConfig, Policy, RunReport, TeRole,
};
use simcore::{FaultPlan, SimDuration, SimRng, SimTime};
use workloads::{ChatTrace, FleetTrace, ScaleTrace};

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn render(mut report: RunReport) -> String {
    report.to_json().to_json()
}

fn combined() -> ClusterConfig {
    ClusterConfig {
        policy: Policy::Combined,
        ..ClusterConfig::standard_34b()
    }
}

fn chat(seed: u64, rps: f64, n: usize) -> Vec<deepserve::ApiRequest> {
    let mut rng = SimRng::seed_from_u64(seed);
    materialize_trace(&ChatTrace::paper(rps).generate(&mut rng, n), 64_000)
}

/// Two colocated TEs, materialized chat trace.
fn colocated_materialized() -> String {
    let mut sim = ClusterSim::new(combined(), &[TeRole::Colocated, TeRole::Colocated]);
    sim.inject(chat(11, 4.0, 40));
    render(sim.run_to_completion())
}

/// Four colocated TEs fed a lazily streamed `ScaleTrace` (repeat users, so
/// prefix hits and locality routing are in play).
fn streamed_scale() -> String {
    let scale = ScaleTrace {
        prefill: 256,
        decode: 48,
        rps: 40.0,
        count: 300,
        users: 24,
    };
    let mut sim = ClusterSim::new(combined(), &[TeRole::Colocated; 4]);
    sim.inject_stream(stream_trace(
        scale.stream(SimRng::seed_from_u64(42).fork()),
        64_000,
    ));
    render(sim.run_to_completion())
}

/// 2P1D: every request migrates KV from a prefill TE to the decode TE.
fn pd_disaggregated() -> String {
    let roles = [TeRole::Prefill, TeRole::Prefill, TeRole::Decode];
    let mut sim = ClusterSim::new(combined(), &roles);
    sim.inject(chat(7, 6.0, 80));
    render(sim.run_to_completion())
}

/// A crash, a straggler and a transfer-flake window on three colocated TEs.
fn faulted() -> String {
    let plan = FaultPlan::none()
        .with_crash(SimTime::from_secs(6), 0)
        .with_straggler(SimTime::from_secs(2), 1, 3.0, SimDuration::from_secs(5))
        .with_transfer_flake(SimTime::from_secs(1), SimDuration::from_secs(3));
    let mut sim = ClusterSim::new(combined(), &[TeRole::Colocated; 3]);
    sim.inject(chat(13, 1.5, 50));
    sim.install_faults(&plan, FaultRecoveryConfig::default());
    render(sim.run_to_completion())
}

/// A skewed three-model fleet with multicast scale-out.
fn fleet_multicast() -> String {
    let mut rng = SimRng::seed_from_u64(5);
    let specs = FleetTrace::skewed(3, 4.0).generate(&mut rng, 60);
    let mut sim = ClusterSim::new(ClusterConfig::standard_34b(), &[TeRole::Colocated; 3]);
    let cfg = FleetConfig {
        mode: ColdStartMode::HierarchyMulticast,
        ..FleetConfig::default()
    };
    sim.enable_fleet(fleet_catalog(3), cfg);
    sim.stage_fleet_on_ssd();
    sim.inject(materialize_fleet_trace(&specs, 64_000));
    render(sim.run_to_completion())
}

/// A live-ingress run stepped in paced slices (so fast-forward is clamped
/// to each slice's limit), then replayed from its ingress log. The replay
/// must equal the live report; the digest pins both.
fn live_replayed() -> String {
    let reqs = chat(21, 3.0, 30);
    let mut live = ClusterSim::new(combined(), &[TeRole::Colocated, TeRole::Colocated]);
    live.enable_live_ingress();
    live.set_token_events(true);
    for r in reqs {
        live.step_until(r.arrival);
        live.take_live_events();
        live.submit_live(r);
    }
    let log = live.ingress_log().to_vec();
    let live_json = render(live.run_to_completion());

    let mut replay = ClusterSim::new(combined(), &[TeRole::Colocated, TeRole::Colocated]);
    replay.inject(log.iter().map(|r| r.to_request()).collect());
    let replay_json = render(replay.run_to_completion());
    assert_eq!(live_json, replay_json, "live and replay diverged");
    replay_json
}

/// Asserts `report` exercised every named counter, so a later edit cannot
/// silently stop a case from reaching the path it pins.
fn exercised(report: RunReport, counters: &[&'static str]) -> String {
    for &c in counters {
        assert!(report.counters.get(c) > 0, "{c} never fired");
    }
    render(report)
}

/// 2P1D plus a colocated TE under a transfer-flake window, a link degrade
/// and a crash of the decode TE: migration retry, degraded transfers,
/// aborted migrations and a repair.
fn pd_faulted() -> String {
    let plan = FaultPlan::none()
        .with_transfer_flake(SimTime::from_secs(1), SimDuration::from_secs(3))
        .with_link_degrade(SimTime::from_secs(2), 0.25, SimDuration::from_secs(6))
        .with_crash(SimTime::from_secs(6), 2);
    let roles = [
        TeRole::Prefill,
        TeRole::Prefill,
        TeRole::Decode,
        TeRole::Colocated,
    ];
    let mut sim = ClusterSim::new(combined(), &roles);
    sim.inject(chat(21, 3.0, 60));
    sim.install_faults(&plan, FaultRecoveryConfig::default());
    exercised(
        sim.run_to_completion(),
        &[
            "sim.transfer_flaked",
            "sim.transfers_degraded",
            "sim.migrations_aborted",
            "cluster.repaired",
        ],
    )
}

/// A one-model fleet whose first checkpoint load loses its only target
/// to a crash: the load aborts and its waiters restart it elsewhere.
fn fleet_faulted() -> String {
    let mut rng = SimRng::seed_from_u64(3);
    let specs = FleetTrace::skewed(1, 2.0).generate(&mut rng, 8);
    let mut sim = ClusterSim::new(ClusterConfig::standard_34b(), &[TeRole::Colocated; 4]);
    sim.enable_fleet(fleet_catalog(1), FleetConfig::default());
    sim.inject(materialize_fleet_trace(&specs, 64_000));
    sim.install_faults(
        &FaultPlan::none().with_crash(SimTime::from_secs(2), 0),
        FaultRecoveryConfig::default(),
    );
    exercised(
        sim.run_to_completion(),
        &["fleet.loads_aborted", "cluster.repaired"],
    )
}

/// A named configuration, its runner, and its recorded digest.
type Case = (&'static str, fn() -> String, u64);

/// Digests recorded at commit e31bbaf, before the parallel-stepping stack
/// was removed; the sequential event loop reproduces them exactly.
/// `faulted` moved once since, when the JE's per-request pool snapshot
/// gave way to its load index: the report lost one entry, the JE counter
/// of rebuilds of its removed-TE pool cache (`{"type":"counter",
/// "value":1}`), which went with that cache, and nothing else. Its digest
/// is FNV-1a 64 of the e31bbaf report with exactly that entry removed.
///
/// `pd_faulted` and `fleet_faulted` were recorded at a3c26e1, before
/// `cluster.rs` was split by concern, to pin the fault paths the split
/// moves.
const CASES: [Case; 8] = [
    (
        "colocated_materialized",
        colocated_materialized,
        0x86ee_1386_3334_f9b3,
    ),
    ("streamed_scale", streamed_scale, 0xe3a7_a9f3_0867_0083),
    ("pd_disaggregated", pd_disaggregated, 0xec05_9209_399e_6f19),
    ("faulted", faulted, 0x171f_2f6c_bc15_545b),
    ("fleet_multicast", fleet_multicast, 0xf259_48cc_1e1f_fbd0),
    ("live_replayed", live_replayed, 0xd937_472e_0e0b_2c32),
    ("pd_faulted", pd_faulted, 0x564d_a926_b0ed_055d),
    ("fleet_faulted", fleet_faulted, 0xca0e_5e50_f769_0218),
];

#[test]
fn reports_match_recorded_digests() {
    let mut moved = String::new();
    for (name, run, recorded) in CASES {
        let got = fnv1a64(run().as_bytes());
        if got != recorded {
            moved.push_str(&format!(
                "    {name}: 0x{got:016x} (recorded 0x{recorded:016x})\n"
            ));
        }
    }
    assert!(moved.is_empty(), "report digests moved:\n{moved}");
}

#[test]
fn fnv1a64_matches_reference_vectors() {
    assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
}
