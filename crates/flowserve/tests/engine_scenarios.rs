//! End-to-end scenarios against a standalone FlowServe engine: a minimal
//! driver loop plays the role the platform (deepserve) plays in production.

use flowserve::{
    synthetic_tokens, Engine, EngineConfig, EngineEvent, EngineVersion, NewRequest, RequestId,
    TokenId,
};
use llm_model::{ExecCostModel, ModelSpec, Parallelism};
use npu::specs::ClusterSpec;
use simcore::{FifoChannel, RequestLatency, SimDuration, SimTime};

fn cost_34b_tp4() -> ExecCostModel {
    let c = ClusterSpec::gen2_cluster(1);
    ExecCostModel::new(
        c.server.chip.clone(),
        c.hccs,
        ModelSpec::internal_34b(),
        Parallelism::tp(4),
    )
}

fn prompt(seed: u64, len: usize) -> Vec<TokenId> {
    synthetic_tokens(seed, len, 64_000)
}

/// Drives one engine to completion (or until `deadline`), executing
/// populate transfers on a PCIe-like channel. Returns finished events.
struct Driver {
    engine: Engine,
    now: SimTime,
    pcie: FifoChannel,
    /// (completion_time, ticket)
    populates: Vec<(SimTime, flowserve::PopulateTicket)>,
    finished: Vec<(RequestId, RequestLatency, usize, usize)>,
    first_tokens: Vec<(RequestId, SimTime)>,
    prefill_complete: Vec<(RequestId, SimTime, usize)>,
}

impl Driver {
    fn new(engine: Engine) -> Self {
        Driver {
            engine,
            now: SimTime::ZERO,
            pcie: FifoChannel::new(64e9, SimDuration::from_micros(50)),
            populates: Vec::new(),
            finished: Vec::new(),
            first_tokens: Vec::new(),
            prefill_complete: Vec::new(),
        }
    }

    fn submit(&mut self, at: SimTime, req: NewRequest) -> bool {
        assert!(at >= self.now, "submissions must be time-ordered");
        self.run_until(at);
        self.now = at;
        let out = self.engine.submit(self.now, req);
        if let Some(p) = out.populate {
            let bytes = p.tokens as u64 * self.engine.cost_model().model().kv_bytes_per_token();
            let done = self.pcie.enqueue(self.now, bytes);
            self.populates.push((done, p.ticket));
        }
        out.accepted
    }

    fn step(&mut self) -> bool {
        // Next event: engine wake or populate completion.
        let wake = self.engine.next_wake(self.now);
        let pop = self.populates.iter().map(|&(t, _)| t).min();
        let next = match (wake, pop) {
            (Some(a), Some(b)) => a.min(b),
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (None, None) => return false,
        };
        self.now = self.now.max_of(next);
        // Deliver due populates first.
        let due: Vec<_> = self
            .populates
            .iter()
            .filter(|&&(t, _)| t <= self.now)
            .map(|&(_, tk)| tk)
            .collect();
        self.populates.retain(|&(t, _)| t > self.now);
        for ticket in due {
            self.engine.populate_transfer_done(self.now, ticket);
        }
        for ev in self.engine.advance(self.now) {
            match ev {
                EngineEvent::Finished {
                    id,
                    latency,
                    prompt_tokens,
                    cached_tokens,
                    ..
                } => self
                    .finished
                    .push((id, latency, prompt_tokens, cached_tokens)),
                EngineEvent::FirstToken { id, at } => self.first_tokens.push((id, at)),
                EngineEvent::PrefillComplete { id, at, kv_tokens } => {
                    self.prefill_complete.push((id, at, kv_tokens))
                }
                EngineEvent::Rejected { .. } | EngineEvent::Tokens { .. } => {}
            }
        }
        true
    }

    fn run_until(&mut self, deadline: SimTime) {
        loop {
            let wake = self.engine.next_wake(self.now);
            let pop = self.populates.iter().map(|&(t, _)| t).min();
            let next = match (wake, pop) {
                (Some(a), Some(b)) => a.min(b),
                (Some(a), None) => a,
                (None, Some(b)) => b,
                (None, None) => break,
            };
            if next > deadline {
                break;
            }
            self.step();
        }
    }

    fn run_to_completion(&mut self) {
        let mut guard = 0;
        while self.step() {
            guard += 1;
            assert!(guard < 2_000_000, "engine did not drain (livelock?)");
        }
    }
}

fn req(id: u64, seed: u64, prompt_len: usize, output: u32, at: SimTime) -> NewRequest {
    NewRequest {
        id: RequestId(id),
        prompt: prompt(seed, prompt_len).into(),
        target_output: output,
        arrival: at,
        cache_id: None,
    }
}

#[test]
fn single_request_completes_with_sane_latency() {
    let mut d = Driver::new(Engine::new(EngineConfig::colocated(), cost_34b_tp4()));
    assert!(d.submit(SimTime::ZERO, req(1, 1, 2048, 200, SimTime::ZERO)));
    d.run_to_completion();
    assert_eq!(d.finished.len(), 1);
    let (_, lat, ptoks, cached) = &d.finished[0];
    assert_eq!(*ptoks, 2048);
    assert_eq!(*cached, 0);
    assert_eq!(lat.output_tokens, 200);
    // TTFT: ~2048/512 chunks of prefill, each a few hundred ms.
    let ttft_s = lat.ttft.as_secs_f64();
    assert!((0.1..5.0).contains(&ttft_s), "TTFT {ttft_s}s");
    // TPOT: lone sequence decodes at the weight-streaming floor.
    let tpot_ms = lat.tpot.as_millis_f64();
    assert!((5.0..80.0).contains(&tpot_ms), "TPOT {tpot_ms}ms");
    assert!(lat.jct > lat.ttft);
}

#[test]
fn prefix_cache_hit_cuts_ttft() {
    let mut d = Driver::new(Engine::new(EngineConfig::colocated(), cost_34b_tp4()));
    // Two identical prompts, back to back.
    assert!(d.submit(SimTime::ZERO, req(1, 7, 2048, 50, SimTime::ZERO)));
    d.run_to_completion();
    let cold_ttft = d.finished[0].1.ttft;
    let t2 = SimTime::from_secs(100);
    assert!(d.submit(t2, req(2, 7, 2048, 50, t2)));
    d.run_to_completion();
    assert_eq!(d.finished.len(), 2);
    let (_, warm, _, cached) = &d.finished[1];
    assert!(
        *cached >= 2048 - 16 - 16,
        "second request should hit the cache: cached={cached}"
    );
    assert!(
        warm.ttft.as_secs_f64() < 0.5 * cold_ttft.as_secs_f64(),
        "warm TTFT {warm:?} vs cold {cold_ttft}"
    );
}

#[test]
fn continuous_batching_overlaps_requests() {
    let mut d = Driver::new(Engine::new(EngineConfig::colocated(), cost_34b_tp4()));
    let n = 8;
    for i in 0..n {
        let at = SimTime::from_millis(10 * i);
        assert!(d.submit(at, req(i, 100 + i, 1024, 100, at)));
    }
    d.run_to_completion();
    assert_eq!(d.finished.len() as u64, n);
    // Makespan must be far below serial execution.
    let last = d.finished.iter().map(|(_, l, _, _)| l.jct).max().unwrap();
    let serial_estimate = d.finished[0].1.jct.as_secs_f64() * n as f64;
    assert!(
        last.as_secs_f64() < 0.6 * serial_estimate,
        "batching should overlap: makespan {last}, serial ~{serial_estimate}"
    );
}

#[test]
fn v1_v2_v3_ordering_under_load() {
    // Same offered decode workload, three engine versions: throughput at
    // completion must strictly improve (Figure 3's ordering).
    let mut makespans = Vec::new();
    for version in [
        EngineVersion::v1(),
        EngineVersion::v2(),
        EngineVersion::v3(),
    ] {
        let cfg = EngineConfig {
            version,
            ..EngineConfig::colocated()
        };
        let mut d = Driver::new(Engine::new(cfg, cost_34b_tp4()));
        for i in 0..32u64 {
            assert!(d.submit(SimTime::ZERO, req(i, 500 + i, 512, 256, SimTime::ZERO)));
        }
        d.run_to_completion();
        assert_eq!(d.finished.len(), 32);
        let makespan = d.finished.iter().map(|(_, l, _, _)| l.jct).max().unwrap();
        makespans.push(makespan.as_secs_f64());
    }
    assert!(
        makespans[0] > makespans[1] && makespans[1] > makespans[2],
        "v1 > v2 > v3 expected, got {makespans:?}"
    );
}

#[test]
fn prefill_only_engine_emits_kv_and_releases_on_migration() {
    let cost = cost_34b_tp4();
    let mut d = Driver::new(Engine::new(EngineConfig::prefill_only(), cost));
    assert!(d.submit(SimTime::ZERO, req(1, 3, 2048, 200, SimTime::ZERO)));
    d.run_to_completion();
    assert_eq!(d.prefill_complete.len(), 1);
    let (id, _, kv_tokens) = d.prefill_complete[0];
    assert_eq!(kv_tokens, 2048);
    assert_eq!(d.finished.len(), 0, "prefill TE never finishes requests");
    assert_eq!(d.engine.migration_kv_tokens(id), Some(2048));
    d.engine.release_migrated(d.now, id);
    assert_eq!(d.engine.migration_kv_tokens(id), None);
    assert_eq!(d.engine.counters().get("engine.migrated_out"), 1);
}

/// `prefix_caching` decides caching on a prefill-only TE too: with it
/// on, a repeated prompt is served from the cache the first one left;
/// with it off, the engine inserts nothing.
#[test]
fn prefill_only_engine_caches_exactly_when_prefix_caching_is_on() {
    for caching in [true, false] {
        let cfg = EngineConfig {
            prefix_caching: caching,
            ..EngineConfig::prefill_only()
        };
        let mut d = Driver::new(Engine::new(cfg, cost_34b_tp4()));
        for id in 1..=2 {
            let at = d.now;
            assert!(d.submit(at, req(id, 3, 2048, 200, at)));
            d.run_to_completion();
            d.engine.release_migrated(d.now, RequestId(id));
        }
        assert_eq!(d.prefill_complete.len(), 2);
        let hits = d.engine.counters().get("engine.cache_hit_tokens");
        let inserted = d.engine.rtc().counters().get("rtc.inserted_blocks");
        if caching {
            assert!(hits > 0, "the repeated prompt missed the cache");
        } else {
            assert_eq!(inserted, 0, "caching off, yet {inserted} blocks inserted");
            assert_eq!(hits, 0);
        }
    }
}

#[test]
fn decode_only_engine_serves_migrated_request() {
    let cost = cost_34b_tp4();
    let mut d = Driver::new(Engine::new(EngineConfig::decode_only(), cost));
    let arrival = SimTime::ZERO;
    let first_token = SimTime::from_millis(400);
    d.now = first_token;
    d.engine.submit_with_kv(
        first_token,
        req(1, 3, 2048, 100, arrival),
        2048,
        first_token,
    );
    d.run_to_completion();
    assert_eq!(d.finished.len(), 1);
    let (_, lat, _, _) = &d.finished[0];
    assert_eq!(lat.output_tokens, 100);
    assert_eq!(lat.ttft, SimDuration::from_millis(400));
}

#[test]
fn oversized_prompt_is_rejected() {
    let mut d = Driver::new(Engine::new(EngineConfig::colocated(), cost_34b_tp4()));
    let huge = 10_000_000; // far beyond KV capacity
    assert!(!d.submit(SimTime::ZERO, req(1, 1, huge, 10, SimTime::ZERO)));
    assert_eq!(d.engine.counters().get("engine.rejected"), 1);
}

#[test]
fn single_token_output_finishes_at_prefill() {
    let mut d = Driver::new(Engine::new(EngineConfig::colocated(), cost_34b_tp4()));
    assert!(d.submit(SimTime::ZERO, req(1, 1, 512, 1, SimTime::ZERO)));
    d.run_to_completion();
    assert_eq!(d.finished.len(), 1);
    let (_, lat, _, _) = &d.finished[0];
    assert_eq!(lat.output_tokens, 1);
    assert_eq!(lat.tpot, SimDuration::ZERO);
    assert_eq!(lat.ttft, lat.jct);
}

#[test]
fn memory_pressure_triggers_preemption_not_deadlock() {
    // Tiny KV budget: long decodes must preempt each other but all finish.
    // 64 GB HBM, 17.2 GB weights: reserving 74% leaves ~10.8K KV tokens,
    // far below the workload's ~32K-token demand.
    let cfg = EngineConfig {
        kv_reserve_frac: 0.74,
        dram_blocks: 0,
        ..EngineConfig::colocated()
    };
    let mut d = Driver::new(Engine::new(cfg, cost_34b_tp4()));
    for i in 0..12u64 {
        assert!(d.submit(SimTime::ZERO, req(i, 900 + i, 2048, 600, SimTime::ZERO)));
    }
    d.run_to_completion();
    assert_eq!(d.finished.len(), 12, "everything must eventually finish");
    for (_, lat, _, _) in &d.finished {
        assert_eq!(lat.output_tokens, 600);
    }
    assert!(
        d.engine.stats().preemptions > 0,
        "this workload must overflow KV and preempt"
    );
}

#[test]
fn populate_path_restores_dram_cache() {
    // Small HBM pool + DRAM tier: first request caches, pressure demotes,
    // third request populates back from DRAM.
    // ~22K KV tokens (1377 blocks) on the NPU with a large DRAM tier
    // behind it.
    let cfg = EngineConfig {
        kv_reserve_frac: 0.73,
        dram_blocks: 8192,
        ..EngineConfig::colocated()
    };
    let mut d = Driver::new(Engine::new(cfg, cost_34b_tp4()));
    assert!(d.submit(SimTime::ZERO, req(1, 42, 2048, 20, SimTime::ZERO)));
    d.run_to_completion();
    // Blow the NPU cache with different prompts: 12 x 128 blocks = 1536
    // cached blocks > the 1377-block pool, forcing demotion to DRAM.
    let t1 = SimTime::from_secs(200);
    for i in 0..12u64 {
        assert!(d.submit(
            t1 + SimDuration::from_millis(i),
            req(10 + i, 600 + i, 2048, 20, t1)
        ));
    }
    d.run_to_completion();
    // Re-send the first prompt: the tail should come back via populate.
    let t2 = SimTime::from_secs(400);
    assert!(d.submit(t2, req(99, 42, 2048, 20, t2)));
    d.run_to_completion();
    let populates = d.engine.counters().get("engine.populates");
    let hit_tokens = d.engine.counters().get("engine.cache_hit_tokens");
    assert!(
        populates >= 1 || hit_tokens >= 1024,
        "expected populate or large hit: populates={populates} hits={hit_tokens}"
    );
    assert!(
        d.engine.rtc().counters().get("rtc.swap_out") > 0,
        "cache pressure should have demoted blocks to DRAM"
    );
    assert_eq!(d.finished.len(), 14);
}

#[test]
fn full_trace_reconstructs_request_lifecycles() {
    use simcore::trace::TraceLevel;
    let mut d = Driver::new(Engine::new(EngineConfig::colocated(), cost_34b_tp4()));
    d.engine.enable_tracing(TraceLevel::Full, 1 << 16);
    let targets = [40u32, 1, 96];
    for (i, &out) in targets.iter().enumerate() {
        let at = SimTime::from_millis(20 * i as u64);
        assert!(d.submit(at, req(i as u64 + 1, 60 + i as u64, 1024, out, at)));
    }
    d.run_to_completion();
    assert_eq!(d.finished.len(), 3);
    let trace = d.engine.take_trace();
    assert_eq!(trace.dropped, 0);

    for (i, &out) in targets.iter().enumerate() {
        let id = i as u64 + 1;
        let by_req = |label: &'static str| {
            trace
                .events_labeled(label)
                .filter(|e| e.attr_u64("req") == Some(id))
                .collect::<Vec<_>>()
        };
        let queued = by_req("request.queued");
        let first = by_req("request.first_token");
        let fin = by_req("request.finished");
        assert_eq!(
            (queued.len(), first.len(), fin.len()),
            (1, 1, 1),
            "req {id}"
        );
        assert!(
            queued[0].at <= first[0].at && first[0].at <= fin[0].at,
            "req {id}: queued {} <= first_token {} <= finished {}",
            queued[0].at,
            first[0].at,
            fin[0].at
        );
        assert_eq!(fin[0].attr_u64("output_tokens"), Some(out as u64));
        // Token 1 comes out of prefill; every later token is one decode
        // iteration, so Full-level decode_iter events count out - 1.
        assert_eq!(
            by_req("decode_iter").len() as u32,
            out - 1,
            "req {id}: decode iterations"
        );
        // 1024-token prompt over 512-token chunks: at least two chunks.
        assert!(
            by_req("prefill_chunk").len() >= 2,
            "req {id}: prefill chunks"
        );
        // The request's span closes exactly at the finished event.
        let span = trace
            .spans_labeled("request")
            .find(|s| s.attr_u64("req") == Some(id))
            .expect("request span");
        assert_eq!(span.end, Some(fin[0].at), "req {id}: span end");
    }

    // Every iteration span nests its per-request events: batch sizes in
    // iteration attrs must sum to at least the total decode work done.
    let iters = trace.spans_labeled("iteration").count();
    assert!(iters > 0, "iteration spans present");
}

#[test]
fn deterministic_replay() {
    let run = || {
        let mut d = Driver::new(Engine::new(EngineConfig::colocated(), cost_34b_tp4()));
        for i in 0..10u64 {
            let at = SimTime::from_millis(37 * i);
            assert!(d.submit(
                at,
                req(i, i * 13 + 1, 700 + (i as usize * 53) % 900, 64, at)
            ));
        }
        d.run_to_completion();
        d.finished
            .iter()
            .map(|(id, l, _, _)| (id.0, l.jct.as_nanos(), l.ttft.as_nanos()))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run(), "identical inputs must replay identically");
}
