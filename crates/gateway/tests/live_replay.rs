//! The live-vs-replay determinism contract, exercised without any wall
//! clock: the live API (`enable_live_ingress` / `submit_live` /
//! `step_until`) is driven with synthetic arrival stamps, and the
//! recorded ingress log is replayed through `inject` +
//! `run_to_completion`. The reports must match byte-for-byte, live and
//! replayed, fast-forward on and off.

use deepserve::{ApiRequest, IngressRecord, LiveEvent};
use deepserve_gateway::{build_fleet_sim, build_sim, log};
use flowserve::Tokenizer;
use simcore::{SimDuration, SimTime};
use std::collections::HashMap;

fn at_ms(ms: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(ms)
}

/// Drives a live session: a multi-turn conversation (shared prefix +
/// session cache id) interleaved with one-off requests, stepping sim time
/// in bounded slices like the gateway's serve loop does.
fn run_live(fast_forward: bool) -> (String, Vec<IngressRecord>, Vec<LiveEvent>) {
    let tok = Tokenizer::default();
    let mut sim = build_sim(2);
    sim.set_fast_forward(fast_forward);
    sim.enable_live_ingress();
    sim.set_token_events(true);

    let mut events = Vec::new();
    let submit = |sim: &mut deepserve::ClusterSim,
                  id: u64,
                  text: &str,
                  out: u32,
                  at: SimTime,
                  cache: Option<u64>| {
        let mut req = ApiRequest::chat(id, tok.tokenize(text), out, at);
        req.cache_id = cache.map(flowserve::CacheId);
        sim.submit_live(req)
    };

    // Turn 1 of a session, plus an anonymous request close by. The turn-1
    // transcript must span several 16-token KV blocks so turn 2's shared
    // prefix is radix-cacheable.
    let turn1 = "the quick brown fox jumps over the lazy dog while seventeen \
                 careful engineers measure every latency percentile of the \
                 deterministic serving cluster and write the numbers down \
                 twice for the replay comparison suite";
    submit(&mut sim, 1, turn1, 6, at_ms(0), Some(1));
    submit(
        &mut sim,
        2,
        "an unrelated single-shot prompt",
        4,
        at_ms(1),
        None,
    );
    events.extend(sim.take_live_events());
    sim.step_until(at_ms(400));
    events.extend(sim.take_live_events());

    // Turn 2 resends the grown transcript (shared prefix) with the same
    // session cache id, arriving "in the past" relative to the frontier —
    // submit_live must bump it forward deterministically.
    let turn2 = format!("{turn1} and now summarize the measurements in one sentence");
    submit(&mut sim, 3, &turn2, 5, at_ms(100), Some(1));
    sim.step_until(at_ms(900));
    events.extend(sim.take_live_events());

    // A burst that lands mid-decode of earlier requests.
    submit(&mut sim, 4, "burst request one", 3, at_ms(901), None);
    submit(&mut sim, 5, "burst request two", 3, at_ms(901), None);
    sim.step_until(at_ms(1200));
    events.extend(sim.take_live_events());

    let ingress = sim.ingress_log().to_vec();
    let mut report = sim.run_to_completion();
    events.extend(sim.take_live_events());
    (report.to_json().to_json(), ingress, events)
}

#[test]
fn live_and_replay_reports_are_byte_identical() {
    let (live, ingress, _) = run_live(true);
    for ff in [true, false] {
        let replayed = log::replay(&ingress, || {
            let mut s = build_sim(2);
            s.set_fast_forward(ff);
            s
        })
        .to_json()
        .to_json();
        assert_eq!(
            live, replayed,
            "replay (ff={ff}) must be byte-identical to the live run"
        );
    }
}

#[test]
fn live_without_fast_forward_matches_live_with() {
    let (a, ia, _) = run_live(true);
    let (b, ib, _) = run_live(false);
    assert_eq!(ia, ib);
    assert_eq!(a, b, "fast-forward must not change the live report");
}

#[test]
fn live_events_stream_is_complete_and_ordered() {
    let (_, ingress, events) = run_live(true);
    assert_eq!(ingress.len(), 5);

    let mut first_seen: HashMap<u64, SimTime> = HashMap::new();
    let mut tokens: HashMap<u64, u64> = HashMap::new();
    let mut finished: HashMap<u64, u64> = HashMap::new();
    for ev in &events {
        match *ev {
            LiveEvent::FirstToken { id, at } => {
                assert!(
                    first_seen.insert(id.0, at).is_none(),
                    "duplicate first token"
                );
            }
            LiveEvent::Tokens { id, at, n } => {
                assert!(
                    first_seen.contains_key(&id.0),
                    "tokens before first token for {id:?}"
                );
                assert!(at >= first_seen[&id.0]);
                *tokens.entry(id.0).or_insert(0) += u64::from(n);
            }
            LiveEvent::Finished {
                id, output_tokens, ..
            } => {
                assert!(
                    finished.insert(id.0, output_tokens).is_none(),
                    "double finish"
                );
            }
            LiveEvent::Failed { id, .. } => panic!("unexpected failure for {id:?}"),
        }
    }
    for rec in &ingress {
        let total = finished
            .get(&rec.id)
            .unwrap_or_else(|| panic!("request {} never finished", rec.id));
        assert_eq!(
            *total,
            u64::from(rec.target_output),
            "request {} output length",
            rec.id
        );
        // Token events cover the decode stream (the first token arrives
        // via FirstToken; Tokens events deliver the decoded ones).
        let decoded = tokens.get(&rec.id).copied().unwrap_or(0);
        assert!(
            decoded + 1 >= *total,
            "request {}: {decoded} token events for {total} outputs",
            rec.id
        );
    }
}

#[test]
fn arrival_stamps_are_strictly_increasing_and_collision_free() {
    let (_, ingress, _) = run_live(true);
    for pair in ingress.windows(2) {
        assert!(
            pair[1].arrival_ns > pair[0].arrival_ns,
            "arrivals must be strictly increasing"
        );
    }
}

/// Drives a live *fleet* session: completions aimed at unloaded endpoints
/// trigger cold starts mid-serve, a later request rides the warmed
/// replica, and the recorded ingress log (model tags included) must
/// replay byte-for-byte.
fn run_live_fleet(fast_forward: bool) -> (String, Vec<IngressRecord>) {
    let tok = Tokenizer::default();
    let mut sim = build_fleet_sim(2, 3);
    sim.set_fast_forward(fast_forward);
    sim.enable_live_ingress();
    sim.set_token_events(true);

    let submit = |sim: &mut deepserve::ClusterSim, id: u64, model: u32, at: SimTime| {
        let req = ApiRequest::chat(id, tok.tokenize("fleet prompt body"), 3, at).with_model(model);
        sim.submit_live(req);
    };
    // Model 0 is unloaded: request 1 pays the cold start.
    submit(&mut sim, 1, 0, at_ms(0));
    sim.step_until(at_ms(500));
    // Model 1's cold start overlaps model 0's.
    submit(&mut sim, 2, 1, at_ms(501));
    // Step far enough that both loads finish, then ride the warm replica.
    sim.step_until(at_ms(15_000));
    submit(&mut sim, 3, 0, at_ms(15_001));

    let ingress = sim.ingress_log().to_vec();
    let mut report = sim.run_to_completion();
    assert!(
        report.counters.get("fleet.cold_starts") >= 2,
        "both endpoints must cold-start: {:?}",
        report.counters
    );
    (report.to_json().to_json(), ingress)
}

#[test]
fn fleet_session_log_replays_byte_for_byte() {
    let (live, ingress) = run_live_fleet(true);
    // The log captured the model tags.
    let models: Vec<Option<u32>> = ingress.iter().map(|r| r.model).collect();
    assert_eq!(models, vec![Some(0), Some(1), Some(0)]);
    // A fleet log survives serialization.
    let parsed = log::from_json(&log::to_json(&ingress)).expect("fleet log parses");
    assert_eq!(parsed, ingress);

    // Single-stepping the live session must not move its report either.
    let (live_ss, ingress_ss) = run_live_fleet(false);
    assert_eq!(ingress, ingress_ss);
    assert_eq!(
        live, live_ss,
        "fast-forward must not change the live fleet report"
    );

    for ff in [true, false] {
        let mut replayed = log::replay(&ingress, || {
            let mut s = build_fleet_sim(2, 3);
            s.set_fast_forward(ff);
            s
        });
        assert!(replayed.counters.get("fleet.cold_starts") >= 2);
        assert_eq!(
            live,
            replayed.to_json().to_json(),
            "fleet replay (ff={ff}) must be byte-identical"
        );
    }
}

#[test]
fn session_prefix_reuse_hits_the_cache_on_replay() {
    let (_, ingress, _) = run_live(true);
    let report = log::replay(&ingress, || build_sim(2));
    // Turn 2 of the session resends turn 1's transcript with the same
    // cache id — the radix cache must serve that shared prefix instead of
    // re-prefilling it from zero.
    assert!(
        report.metrics.counter_value("engine.cache_hit_tokens") > 0,
        "multi-turn session should hit the prefix cache"
    );
}
