//! Core-level tests for the live-ingress API (`enable_live_ingress` /
//! `submit_live` / `step_until`) the gateway's serve loop relies on, and
//! for the request-id rules every ingress path shares.

use deepserve::{ApiRequest, ClusterConfig, ClusterSim, HealthConfig, LiveEvent, TeRole};
use flowserve::{synthetic_tokens, CacheId};
use simcore::{FaultPlan, SimDuration, SimTime};

fn sim() -> ClusterSim {
    ClusterSim::new(
        ClusterConfig::standard_34b(),
        &[TeRole::Colocated, TeRole::Colocated],
    )
}

fn req(id: u64, at: SimTime) -> ApiRequest {
    ApiRequest::chat(id, synthetic_tokens(id, 96, 64_000), 4, at)
}

#[test]
fn live_arrivals_are_bumped_monotonic_and_recorded() {
    let mut s = sim();
    s.enable_live_ingress();
    // Three submissions claiming the same instant: each must land on its
    // own, strictly later nanosecond.
    let t0 = SimTime::ZERO + SimDuration::from_millis(5);
    let a = s.submit_live(req(1, t0));
    let b = s.submit_live(req(2, t0));
    let c = s.submit_live(req(3, t0));
    assert!(a < b && b < c, "arrivals must be strictly increasing");

    let log = s.ingress_log().to_vec();
    assert_eq!(log.len(), 3);
    assert_eq!(
        log.iter().map(|r| r.id).collect::<Vec<_>>(),
        vec![1, 2, 3],
        "ingress log keeps submission order"
    );
    for (rec, at) in log.iter().zip([a, b, c]) {
        assert_eq!(
            rec.arrival_ns,
            at.as_nanos(),
            "log records the bumped stamp"
        );
    }
}

#[test]
fn step_until_only_advances_to_the_pace_limit() {
    let mut s = sim();
    s.enable_live_ingress();
    s.submit_live(req(1, SimTime::ZERO + SimDuration::from_millis(1)));
    s.submit_live(req(2, SimTime::ZERO + SimDuration::from_secs(30)));

    let limit = SimTime::ZERO + SimDuration::from_secs(5);
    let next = s.step_until(limit);
    // Request 1 (arrival + full decode) fits well inside 5 s; request 2
    // has not even arrived, so the next pending event is its arrival.
    let next = next.expect("request 2 still pending");
    assert!(next > limit, "no event at or before the limit may remain");
    assert_eq!(next, SimTime::ZERO + SimDuration::from_secs(30));

    let events = s.take_live_events();
    let finished: Vec<u64> = events
        .iter()
        .filter_map(|e| match e {
            LiveEvent::Finished { id, .. } => Some(id.0),
            _ => None,
        })
        .collect();
    assert_eq!(finished, vec![1], "only request 1 can finish by 5 s");

    // Draining the rest completes request 2 as well.
    let mut report = s.run_to_completion();
    assert_eq!(report.latency.completed(), 2);
    let _ = report.to_json();
}

#[test]
fn live_run_report_matches_injected_replay() {
    // Live path: submissions trickle in while the sim steps.
    let mut live = sim();
    live.enable_live_ingress();
    live.submit_live(req(1, SimTime::ZERO));
    live.step_until(SimTime::ZERO + SimDuration::from_secs(2));
    let mut r2 = req(2, SimTime::ZERO + SimDuration::from_secs(1));
    r2.cache_id = Some(CacheId(9));
    live.submit_live(r2);
    live.step_until(SimTime::ZERO + SimDuration::from_secs(4));
    let log = live.ingress_log().to_vec();
    let live_json = live.run_to_completion().to_json().to_json();

    // Replay path: the recorded log injected into a fresh sim up front.
    let mut replay = sim();
    replay.inject(log.iter().map(|r| r.to_request()).collect());
    let replay_json = replay.run_to_completion().to_json().to_json();
    assert_eq!(
        live_json, replay_json,
        "live and replay must be byte-identical"
    );
}

fn one_te(fast_forward: bool) -> ClusterSim {
    let mut s = ClusterSim::new(ClusterConfig::standard_34b(), &[TeRole::Colocated]);
    s.set_fast_forward(fast_forward);
    s
}

/// Request `id` with a 96-token prompt and `output` tokens to decode.
fn decode_req(id: u64, output: u32, at: SimTime) -> ApiRequest {
    ApiRequest::chat(id, synthetic_tokens(id, 96, 64_000), output, at)
}

/// One TE: request 1 decodes 200 tokens from t = 0, the sim steps to
/// `limit`, then request 2 (8 tokens) arrives claiming `claim`. Returns
/// the stamp request 2 got and the live and replayed reports.
fn late_claim_run(fast_forward: bool, limit: SimTime, claim: SimTime) -> (SimTime, String, String) {
    let mut live = one_te(fast_forward);
    live.enable_live_ingress();
    live.submit_live(decode_req(1, 200, SimTime::ZERO));
    live.step_until(limit);
    let stamp = live.submit_live(decode_req(2, 8, claim));
    let log = live.ingress_log().to_vec();
    let live_json = live.run_to_completion().to_json().to_json();

    let mut replay = one_te(fast_forward);
    replay.inject(log.iter().map(|r| r.to_request()).collect());
    let replay_json = replay.run_to_completion().to_json().to_json();
    (stamp, live_json, replay_json)
}

/// Runs `late_claim_run` with both pacings; asserts one stamp, no
/// earlier than `limit`, and a byte-identical replay each time.
fn assert_late_claim_replays(limit: SimTime, claim: SimTime) -> SimTime {
    let (ff_stamp, ff_live, ff_replay) = late_claim_run(true, limit, claim);
    let (ss_stamp, ss_live, ss_replay) = late_claim_run(false, limit, claim);
    assert_eq!(ff_stamp, ss_stamp, "stamps must not depend on pacing");
    assert!(ff_stamp >= limit, "stamp {ff_stamp} is before the limit");
    assert_eq!(ff_live, ff_replay, "fast-forward live run must replay");
    assert_eq!(ss_live, ss_replay, "single-step live run must replay");
    ff_stamp
}

#[test]
fn arrival_claimed_before_the_last_limit_replays_under_fast_forward() {
    // Fast-forward may absorb request 1's decode boundaries up to the
    // 2 s limit while `now` stays at the last popped event, so a stamp
    // floored only at `now` would land inside already-absorbed work.
    assert_late_claim_replays(SimTime::from_secs(2), SimTime::from_secs(1));
}

#[test]
fn limit_on_a_decode_boundary_runs_it_as_a_wake() {
    // Request 1's decode boundaries: the single-stepped token events.
    let mut probe = one_te(false);
    probe.enable_live_ingress();
    probe.set_token_events(true);
    probe.submit_live(decode_req(1, 200, SimTime::ZERO));
    probe.run_to_completion();
    let boundaries: Vec<SimTime> = probe
        .take_live_events()
        .iter()
        .filter_map(|e| match *e {
            LiveEvent::Tokens { at, .. } => Some(at),
            _ => None,
        })
        .collect();
    // Fast-forward must not absorb the boundary the limit sits on: a
    // claim at the limit would then land inside finished work.
    let limit = boundaries[100];
    let stamp = assert_late_claim_replays(limit, limit);
    assert!(stamp > limit, "the boundary at the limit must have run");
}

#[test]
fn token_events_cover_the_decode_stream() {
    let mut s = sim();
    s.enable_live_ingress();
    s.set_token_events(true);
    s.submit_live(req(1, SimTime::ZERO));
    let mut report = s.run_to_completion();
    assert_eq!(report.latency.completed(), 1);

    let events = s.take_live_events();
    let mut first = 0u64;
    let mut streamed = 0u64;
    let mut finished_total = 0u64;
    for ev in &events {
        match *ev {
            LiveEvent::FirstToken { .. } => first += 1,
            LiveEvent::Tokens { n, .. } => streamed += u64::from(n),
            LiveEvent::Finished { output_tokens, .. } => finished_total = output_tokens,
            LiveEvent::Failed { .. } => panic!("unexpected failure"),
        }
    }
    assert_eq!(first, 1, "exactly one first-token event");
    assert_eq!(finished_total, 4);
    assert!(
        first + streamed >= finished_total,
        "token events must cover all {finished_total} outputs, saw {streamed}+{first}"
    );
    let _ = report.to_json();
}

/// A live sim with six requests queued and an optional event budget.
fn queued_sim(budget: Option<u64>) -> ClusterSim {
    let mut s = sim();
    if let Some(b) = budget {
        s.set_event_budget(b);
    }
    s.enable_live_ingress();
    for id in 0..6 {
        s.submit_live(req(id, SimTime::ZERO + SimDuration::from_millis(id)));
    }
    s
}

/// Steps `queued_sim` in 20 ms slices until the queue drains. Returns the
/// events each `step_until` call processed.
fn sliced_run(budget: Option<u64>) -> Vec<u64> {
    let mut s = queued_sim(budget);
    let mut slices = Vec::new();
    let mut limit = SimTime::ZERO;
    while s.next_event_time().is_some() {
        limit += SimDuration::from_millis(20);
        let before = s.events_processed();
        s.step_until(limit);
        slices.push(s.events_processed() - before);
    }
    slices
}

/// The smallest budget no single slice of `sliced_run` reaches, checked to
/// sit below the run's lifetime total.
fn budget_between_slice_and_total() -> u64 {
    let slices = sliced_run(None);
    let budget = slices.iter().copied().max().unwrap_or(0) + 1;
    let total: u64 = slices.iter().sum();
    assert!(
        total > budget,
        "the run must span several slices: {slices:?}"
    );
    budget
}

#[test]
fn event_budget_applies_per_call_not_per_lifetime() {
    // A long-lived serve loop steps forever; its lifetime total passing
    // the budget must not trip the livelock guard.
    let budget = budget_between_slice_and_total();
    let slices = sliced_run(Some(budget));
    assert!(slices.iter().sum::<u64>() > budget);
}

#[test]
#[should_panic(expected = "event budget")]
fn one_call_past_the_event_budget_panics() {
    let budget = budget_between_slice_and_total();
    queued_sim(Some(budget)).step_until(SimTime::from_secs(3600));
}

/// Two in-flight requests with one id would share an index entry: the
/// first completion would free the second one's slot and the run would
/// lose a request without failing it. Every build refuses the duplicate.
/// (`gateway::log::replay` feeds session-log ids straight to `inject`.)
#[test]
#[should_panic(expected = "is already in flight")]
fn inject_refuses_a_duplicate_in_flight_id() {
    let mut s = sim();
    s.inject(vec![
        req(1, SimTime::ZERO),
        req(1, SimTime::ZERO + SimDuration::from_millis(1)),
    ]);
}

/// A live request that reuses a finished request's id starts with clean
/// fault state: inside a transfer-flake window its first KV transfer
/// flakes exactly as a fresh id's would.
#[test]
fn reused_id_flakes_like_a_fresh_one() {
    let flakes = |second_id: u64| {
        let mut s = ClusterSim::new(
            ClusterConfig::standard_34b(),
            &[TeRole::Prefill, TeRole::Decode],
        );
        s.enable_live_ingress();
        let plan =
            FaultPlan::none().with_transfer_flake(SimTime::ZERO, SimDuration::from_secs(600));
        s.install_faults(&plan, HealthConfig::default());
        s.submit_live(req(1, SimTime::ZERO + SimDuration::from_millis(1)));
        s.step_until(SimTime::from_secs(60));
        assert_eq!(s.progress(), (1, 1), "the first request finished");
        s.submit_live(req(second_id, SimTime::from_secs(61)));
        let report = s.run_to_completion();
        assert_eq!(s.progress(), (2, 2));
        report.counters.get("sim.transfer_flaked")
    };
    assert_eq!(flakes(2), 2, "each fresh id flakes once");
    assert_eq!(flakes(1), 2, "a reused id must flake like a fresh one");
}
