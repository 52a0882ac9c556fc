//! Criterion microbenchmarks of the hot data structures: the operations
//! that sit on the scheduling critical path in a real deployment (the
//! paper's v3 optimizations were exactly "data structures, sampling, and
//! so on").

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use deepserve::{GlobalPromptTree, Heatmap, TeId};
use flowserve::block::BlockPool;
use flowserve::rtc::{chain_hash, Rtc, RtcConfig};
use flowserve::{synthetic_tokens, Tokenizer};
use simcore::{EventQueue, SharedLink, SimDuration, SimTime};

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue/push_pop_1k", |b| {
        b.iter_batched(
            EventQueue::<u64>::new,
            |mut q| {
                for i in 0..1_000u64 {
                    q.push(SimTime::from_nanos(i * 7919 % 1000), i);
                }
                while let Some(x) = q.pop() {
                    black_box(x);
                }
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_block_pool(c: &mut Criterion) {
    c.bench_function("block_pool/alloc_free_4k", |b| {
        b.iter_batched(
            || BlockPool::new(4096),
            |mut p| {
                let blocks = p.alloc_many(4096).expect("capacity");
                for blk in blocks {
                    p.decref(blk);
                }
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_radix_tree(c: &mut Criterion) {
    // Insert 256 prompts of 64 blocks then match against them — the RTC
    // master's per-request work at steady state.
    let prompts: Vec<Vec<flowserve::TokenId>> = (0..256)
        .map(|i| synthetic_tokens(i, 1024, 64_000))
        .collect();
    c.bench_function("rtc/insert_256x1k", |b| {
        b.iter_batched(
            || {
                Rtc::new(RtcConfig {
                    block_size: 16,
                    npu_blocks: 256 * 64 + 64,
                    dram_blocks: 0,
                })
            },
            |mut rtc| {
                for p in &prompts {
                    let blocks = rtc.alloc_blocks(64).expect("sized for it");
                    rtc.insert_prefix(SimTime::ZERO, p, &blocks);
                    rtc.free(&blocks);
                }
            },
            BatchSize::SmallInput,
        )
    });
    let mut warm = Rtc::new(RtcConfig {
        block_size: 16,
        npu_blocks: 256 * 64 + 64,
        dram_blocks: 0,
    });
    for p in &prompts {
        let blocks = warm.alloc_blocks(64).expect("sized for it");
        warm.insert_prefix(SimTime::ZERO, p, &blocks);
        warm.free(&blocks);
    }
    c.bench_function("rtc/match_1k_prompt", |b| {
        let mut i = 0;
        b.iter(|| {
            let m = warm.match_by_prefix_token(&prompts[i % prompts.len()]);
            i += 1;
            black_box(m.tokens)
        })
    });
    // Eviction under a full HBM pool: 320 cached 64-block prompts (20,480
    // nodes) fill it exactly, so every one-block allocation evicts the LRU
    // frontier node (no DRAM: it is dropped). Caching a fresh one-block
    // prompt in the freed block refills the pool and keeps the tree size.
    let mut full = Rtc::new(RtcConfig {
        block_size: 16,
        npu_blocks: 320 * 64,
        dram_blocks: 0,
    });
    for i in 0..320 {
        let blocks = full.alloc_blocks(64).expect("sized for it");
        full.insert_prefix(SimTime::ZERO, &synthetic_tokens(i, 1024, 64_000), &blocks);
        full.free(&blocks);
    }
    assert_eq!(full.npu_free_blocks(), 0);
    c.bench_function("rtc/alloc_under_pressure", |b| {
        let mut i: u32 = 0;
        b.iter(|| {
            i += 1;
            let blocks = full.alloc_blocks(1).expect("a victim is always unpinned");
            let prompt: Vec<flowserve::TokenId> =
                (0..16).map(|k| flowserve::TokenId(i * 16 + k)).collect();
            full.insert_prefix(SimTime::from_nanos(i as u64), &prompt, &blocks);
            full.free(&blocks);
        })
    });
}

/// Chain-hashing one 3,584-token prompt in 16-token blocks: a code-gen
/// request's 3,072-token shared context plus its 512-token mean suffix.
/// The JE's tree insert, the RTC's match and the RTC's insert each hash a
/// prompt this way, and so does the JE's walk on a locality decision.
fn bench_chain_hash(c: &mut Criterion) {
    let prompt = synthetic_tokens(7, 3_584, 64_000);
    c.bench_function("rtc/chain_hash", |b| {
        b.iter(|| black_box(&prompt).chunks_exact(16).fold(0, chain_hash))
    });
}

fn bench_tokenizer(c: &mut Criterion) {
    let t = Tokenizer::default();
    let text = "The quick brown fox jumps over the lazy dog. ".repeat(200);
    c.bench_function("tokenizer/9k_chars", |b| {
        b.iter(|| black_box(t.tokenize(&text).len()))
    });
}

fn bench_prompt_tree(c: &mut Criterion) {
    let mut tree = GlobalPromptTree::new(16, 500_000);
    for te in 0..16u32 {
        for p in 0..64u64 {
            tree.insert(
                SimTime::ZERO,
                TeId(te),
                &synthetic_tokens(te as u64 * 1000 + p, 512, 64_000),
            );
        }
    }
    let query = synthetic_tokens(3 * 1000 + 7, 640, 64_000);
    c.bench_function("prompt_tree/match_16te", |b| {
        b.iter(|| black_box(tree.walk(&query).best(Some::<TeId>)))
    });
}

/// One Combined-policy dispatch decision over 256 colocated TEs, with the
/// JE's prompt tree holding 1,024 users' 128-token prompts spread across
/// them (user `u` cached on TE `u % 256`). Each iteration also moves one
/// TE's load, alternating the group spread between 0 (balanced: the
/// locality path) and 8 (imbalanced: the load path), as the cluster's load
/// reports would between arrivals. Only the locality half walks the
/// prompt tree; the load half reads the load index's head.
fn bench_je_schedule(c: &mut Criterion) {
    use deepserve::{ApiRequest, JobExecutor, Oracle, Policy};
    let mut je = JobExecutor::new(
        Policy::Combined,
        Heatmap::default_production(),
        Box::new(Oracle),
        16,
    );
    let tes: Vec<TeId> = (0..256).map(TeId).collect();
    je.register_pool(&tes, &[]);
    let reqs: Vec<ApiRequest> = (0..1024u64)
        .map(|u| ApiRequest::chat(u, synthetic_tokens(u, 128, 64_000), 64, SimTime::ZERO))
        .collect();
    for (u, r) in reqs.iter().enumerate() {
        je.note_cached(SimTime::ZERO, tes[u % 256], false, &r.prompt);
    }
    for &te in &tes {
        je.set_load(te, 2);
    }
    c.bench_function("je/schedule_combined_256te", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let spike = if i.is_multiple_of(2) { 2 } else { 10 };
            je.set_load(tes[255], spike);
            let d = je.schedule(SimTime::ZERO, &reqs[i % reqs.len()]);
            i += 1;
            black_box(d)
        })
    });
}

fn bench_heatmap(c: &mut Criterion) {
    let h = Heatmap::default_production();
    c.bench_function("heatmap/lookup", |b| {
        let mut i: usize = 0;
        b.iter(|| {
            i = i.wrapping_add(997);
            black_box(h.lookup(i % 20_000, (i % 4_000) as u32))
        })
    });
}

fn bench_shared_link(c: &mut Criterion) {
    c.bench_function("shared_link/64_flows", |b| {
        b.iter_batched(
            || SharedLink::new(56e9, SimDuration::from_micros(10)),
            |mut link| {
                let t0 = SimTime::ZERO;
                for _ in 0..64 {
                    link.start_flow(t0, 1 << 28);
                }
                let mut now = t0;
                while link.active_flows() > 0 {
                    let next = link.next_completion(now).expect("flows active");
                    black_box(link.advance_to(next).len());
                    now = next;
                }
            },
            BatchSize::SmallInput,
        )
    });
}

fn engine_34b() -> flowserve::Engine {
    use llm_model::{ExecCostModel, ModelSpec, Parallelism};
    use npu::specs::ClusterSpec;
    let cl = ClusterSpec::gen2_cluster(1);
    let cost = ExecCostModel::new(
        cl.server.chip.clone(),
        cl.hccs,
        ModelSpec::internal_34b(),
        Parallelism::tp(4),
    );
    flowserve::Engine::new(flowserve::EngineConfig::colocated(), cost)
}

fn drive_engine(mut engine: flowserve::Engine) {
    use flowserve::{NewRequest, RequestId};
    for i in 0..16u64 {
        engine.submit(
            SimTime::ZERO,
            NewRequest {
                id: RequestId(i),
                prompt: synthetic_tokens(i, 512, 64_000).into(),
                target_output: 32,
                arrival: SimTime::ZERO,
                cache_id: None,
            },
        );
    }
    let mut now = SimTime::ZERO;
    while let Some(wake) = engine.next_wake(now) {
        now = wake;
        black_box(engine.advance(now).len());
    }
}

/// The acceptance bar for the tracing layer: a disabled tracer must not
/// slow the engine loop. Compare `engine/16req_untraced` against
/// `engine/16req_traced_full` — the first must match the pre-tracing
/// baseline, the second prices full-detail tracing.
fn bench_engine_step(c: &mut Criterion) {
    use simcore::TraceLevel;
    c.bench_function("engine/16req_untraced", |b| {
        b.iter_batched(engine_34b, drive_engine, BatchSize::SmallInput)
    });
    c.bench_function("engine/16req_traced_full", |b| {
        b.iter_batched(
            || {
                let mut e = engine_34b();
                e.enable_tracing(TraceLevel::Full, 1 << 20);
                e
            },
            drive_engine,
            BatchSize::SmallInput,
        )
    });
}

/// Builds an engine sitting in steady-state decode: `n_req` small prompts
/// all past prefill, KV sized to ~60% of capacity so the measured loop
/// never hits swap or preemption.
fn saturated_decode_engine(n_req: u64) -> (flowserve::Engine, SimTime) {
    use flowserve::{NewRequest, RequestId};
    let mut engine = engine_34b();
    let cap = engine.cost_model().kv_capacity_tokens(0.1);
    let target_output = (cap as f64 * 0.6 / n_req as f64) as u32 - 128;
    for i in 0..n_req {
        engine.submit(
            SimTime::ZERO,
            NewRequest {
                id: RequestId(i),
                prompt: synthetic_tokens(i, 128, 64_000).into(),
                target_output,
                arrival: SimTime::ZERO,
                cache_id: None,
            },
        );
    }
    // Drain every prefill chunk (n_req * 128 tokens / 512-token budget),
    // leaving a pure decode batch.
    let mut now = SimTime::ZERO;
    for _ in 0..(n_req * 128 / 512 + 8) {
        let Some(wake) = engine.next_wake(now) else {
            break;
        };
        now = wake;
        engine.advance(now);
    }
    (engine, now)
}

/// The hot-path allocation purge's acceptance bench: one single-step
/// `Engine::advance` on a saturated 64-sequence decode batch (completes an
/// iteration, re-forms the batch, starts the next). Compare before/after
/// the scratch-buffer rework of `form_batch`.
fn bench_engine_decode_advance(c: &mut Criterion) {
    use flowserve::Pacing;
    c.bench_function("engine/advance_decode64_single_step", |b| {
        let (mut engine, mut now) = saturated_decode_engine(64);
        // The cluster's hot path: `advance_paced` with a reused event
        // buffer (the plain `advance` wrapper allocates a Vec per call).
        let mut events = Vec::new();
        b.iter(|| {
            match engine.next_wake(now) {
                Some(wake) => {
                    now = wake;
                    events.clear();
                    engine.advance_paced(now, Pacing::SingleStep, &mut events);
                    black_box(events.len());
                }
                None => {
                    // Batch drained (setup amortized over ~100k advances).
                    let fresh = saturated_decode_engine(64);
                    engine = fresh.0;
                    now = fresh.1;
                }
            }
        })
    });
}

/// One small decode-heavy cluster run, trace generation included.
fn cluster_run() -> u64 {
    use deepserve::{materialize_trace, ClusterConfig, ClusterSim, Policy, TeRole};
    use npu::specs::ClusterSpec;
    use simcore::SimRng;
    use workloads::FixedShape;
    let shape = FixedShape {
        prefill: 128,
        decode: 128,
        rps: 1024.0,
        count: 64,
    };
    let mut rng = SimRng::seed_from_u64(42);
    let trace = shape.generate(&mut rng);
    let cfg = ClusterConfig {
        cluster: ClusterSpec::gen2_cluster(2),
        policy: Policy::Combined,
        ..ClusterConfig::standard_34b()
    };
    let mut sim = ClusterSim::new(cfg, &[TeRole::Colocated; 4]);
    sim.inject(materialize_trace(&trace, 64_000));
    let report = sim.run_to_completion();
    report.latency.completed()
}

/// Prices the cluster event loop end to end: dispatch, engine advance
/// and report.
fn bench_cluster_run(c: &mut Criterion) {
    c.bench_function("cluster/step_sequential", |b| {
        b.iter(|| black_box(cluster_run()))
    });
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_block_pool,
    bench_radix_tree,
    bench_chain_hash,
    bench_tokenizer,
    bench_prompt_tree,
    bench_je_schedule,
    bench_heatmap,
    bench_shared_link,
    bench_engine_step,
    bench_engine_decode_advance,
    bench_cluster_run
);
criterion_main!(benches);
