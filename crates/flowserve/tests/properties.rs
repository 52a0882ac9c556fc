//! Property-based tests for FlowServe's core invariants: block accounting,
//! radix-tree consistency, and whole-engine conservation under random
//! workloads.

use flowserve::block::{BlockId, BlockPool, OutOfBlocks};
use flowserve::rtc::{Location, Rtc, RtcConfig};
use flowserve::{
    synthetic_tokens, Engine, EngineConfig, EngineEvent, EngineMode, NewRequest, RequestId,
};
use llm_model::{ExecCostModel, ModelSpec, Parallelism};
use npu::specs::ClusterSpec;
use proptest::prelude::*;
use simcore::SimTime;

const B: usize = 16;

fn rtc(npu: usize, dram: usize) -> Rtc {
    Rtc::new(RtcConfig {
        block_size: B,
        npu_blocks: npu,
        dram_blocks: dram,
    })
}

/// The block pool as first written: a free list of every id, reversed so
/// low ids come out first. `BlockPool` fills its ids lazily and must hand
/// them out in exactly this order.
struct EagerPool {
    free: Vec<BlockId>,
    ref_counts: Vec<u32>,
}

impl EagerPool {
    fn new(capacity: usize) -> Self {
        EagerPool {
            free: (0..capacity as u32).rev().map(BlockId).collect(),
            ref_counts: vec![0; capacity],
        }
    }

    fn alloc(&mut self) -> Result<BlockId, OutOfBlocks> {
        let id = self.free.pop().ok_or(OutOfBlocks {
            requested: 1,
            available: 0,
        })?;
        self.ref_counts[id.0 as usize] = 1;
        Ok(id)
    }

    fn alloc_many(&mut self, n: usize) -> Result<Vec<BlockId>, OutOfBlocks> {
        if self.free.len() < n {
            return Err(OutOfBlocks {
                requested: n,
                available: self.free.len(),
            });
        }
        (0..n).map(|_| self.alloc()).collect()
    }

    fn incref(&mut self, id: BlockId) {
        self.ref_counts[id.0 as usize] += 1;
    }

    fn decref(&mut self, id: BlockId) -> bool {
        let rc = &mut self.ref_counts[id.0 as usize];
        *rc -= 1;
        if *rc == 0 {
            self.free.push(id);
        }
        *rc == 0
    }
}

proptest! {
    /// Pool accounting is conserved across arbitrary alloc/share/free
    /// interleavings: available + in_use == capacity always, and a fully
    /// drained pool returns to all-free. Every call also matches the eager
    /// reference pool: the same ids (or the same `OutOfBlocks`), the same
    /// frees, the same counts. Block ids never reach a report, so this is
    /// what pins the allocation order.
    #[test]
    fn block_pool_conserves_blocks(ops in prop::collection::vec((0u8..5, any::<u16>()), 1..300)) {
        let cap = 64;
        let mut pool = BlockPool::new(cap);
        let mut eager = EagerPool::new(cap);
        let mut held: Vec<BlockId> = Vec::new();
        for (op, r) in ops {
            match op {
                0 => {
                    let got = pool.alloc();
                    prop_assert_eq!(got, eager.alloc());
                    held.extend(got);
                }
                1 => {
                    let n = r as usize % 9;
                    let got = pool.alloc_many(n);
                    prop_assert_eq!(&got, &eager.alloc_many(n));
                    held.extend(got.into_iter().flatten());
                }
                2 => {
                    if !held.is_empty() {
                        let b = held[r as usize % held.len()];
                        pool.incref(b);
                        eager.incref(b);
                        held.push(b);
                    }
                }
                3 | 4 => {
                    if !held.is_empty() {
                        let b = held.swap_remove(r as usize % held.len());
                        prop_assert_eq!(pool.decref(b), eager.decref(b));
                    }
                }
                _ => unreachable!(),
            }
            prop_assert_eq!(pool.available(), eager.free.len());
            prop_assert_eq!(pool.in_use(), cap - eager.free.len());
            prop_assert_eq!(pool.available() + pool.in_use(), cap);
        }
        for b in held.drain(..) {
            pool.decref(b);
        }
        prop_assert_eq!(pool.available(), cap);
    }

    /// Whatever prefixes get inserted, matching an inserted prompt returns
    /// exactly its full-block length, and the NPU-resident prefix is never
    /// longer than the match.
    #[test]
    fn rtc_match_equals_insertion(lens in prop::collection::vec(1usize..200, 1..20)) {
        let mut r = rtc(4096, 0);
        let mut prompts = Vec::new();
        for (i, &len) in lens.iter().enumerate() {
            let toks = synthetic_tokens(i as u64 + 1, len, 64_000);
            let blocks = r.alloc_blocks(len.div_ceil(B)).expect("sized pool");
            r.insert_prefix(SimTime::from_secs(i as u64), &toks, &blocks);
            r.free(&blocks);
            prompts.push(toks);
        }
        for p in &prompts {
            let m = r.match_by_prefix_token(p);
            prop_assert_eq!(m.tokens, p.len() / B * B, "full blocks match");
            prop_assert!(m.npu_prefix_nodes <= m.nodes.len());
        }
    }

    /// Under arbitrary allocation pressure with a DRAM tier, the cached
    /// NPU residency always stays a *prefix* of each chain: populate plans
    /// only ever cover the contiguous DRAM tail.
    #[test]
    fn eviction_keeps_npu_residency_a_prefix(
        pressure in prop::collection::vec(1usize..6, 1..30),
    ) {
        let mut r = rtc(64, 64);
        let prompt = synthetic_tokens(42, 40 * B, 64_000); // 40 blocks
        let blocks = r.alloc_blocks(40).expect("fits");
        r.insert_prefix(SimTime::ZERO, &prompt, &blocks);
        r.free(&blocks);
        let mut held = Vec::new();
        for (i, &n) in pressure.iter().enumerate() {
            if let Ok(bs) = r.alloc_blocks(n) {
                if i % 2 == 0 {
                    held.push(bs);
                } else {
                    r.free(&bs);
                }
            }
            let m = r.match_by_prefix_token(&prompt);
            // Every node before the npu prefix boundary is NPU, after is
            // not — checked via the dram_nodes accessor consistency.
            prop_assert_eq!(m.nodes.len() - m.npu_prefix_nodes, m.dram_nodes().len());
        }
        for bs in held {
            r.free(&bs);
        }
    }

    /// Populate round-trip: after completing any populate plan, the
    /// planned nodes are NPU-resident and a re-match sees a no-smaller
    /// NPU prefix.
    #[test]
    fn populate_extends_npu_prefix(evict_blocks in 1usize..40) {
        let mut r = rtc(64, 64);
        let prompt = synthetic_tokens(7, 40 * B, 64_000);
        let blocks = r.alloc_blocks(40).expect("fits");
        r.insert_prefix(SimTime::ZERO, &prompt, &blocks);
        r.free(&blocks);
        r.copy_to_dram(24 + evict_blocks.min(39));
        let before = r.match_by_prefix_token(&prompt);
        if let Some(plan) = r.populate(SimTime::ZERO, &before) {
            let planned = plan.nodes.clone();
            r.complete_populate(plan.ticket);
            let after = r.match_by_prefix_token(&prompt);
            prop_assert!(after.npu_prefix_nodes >= before.npu_prefix_nodes);
            for n in planned {
                // All planned nodes are NPU now. (Location check via the
                // public match: they fall inside the NPU prefix.)
                let idx = after.nodes.iter().position(|&x| x == n).expect("still cached");
                prop_assert!(idx < after.npu_prefix_nodes);
            }
        }
        let _ = Location::Npu; // keep the import honest
    }

    /// Whole-engine conservation: any random small workload completes all
    /// requests, emits exactly target_output tokens each, and returns the
    /// HBM pool to its idle level (only cache retention may hold blocks).
    #[test]
    fn engine_completes_and_conserves(
        spec in prop::collection::vec((8usize..600, 1u32..40, 0u64..2000), 1..12),
    ) {
        let cluster = ClusterSpec::gen2_cluster(1);
        let cost = ExecCostModel::new(
            cluster.server.chip.clone(),
            cluster.hccs,
            ModelSpec::internal_34b(),
            Parallelism::tp(4),
        );
        let cfg = EngineConfig {
            mode: EngineMode::Colocated,
            prefix_caching: false, // so idle pool returns to full
            ..EngineConfig::colocated()
        };
        let total_blocks = {
            let e = Engine::new(cfg.clone(), cost.clone());
            e.rtc().npu_free_blocks()
        };
        let mut engine = Engine::new(cfg, cost);
        let mut now = SimTime::ZERO;
        let mut expected: std::collections::HashMap<u64, u32> = Default::default();
        let mut finished = 0;
        for (i, &(plen, out, gap_ms)) in spec.iter().enumerate() {
            now += simcore::SimDuration::from_millis(gap_ms);
            // Drain engine up to `now`, counting completions.
            while let Some(w) = engine.next_wake(now) {
                if w > now { break; }
                for ev in engine.advance(w) {
                    if let EngineEvent::Finished { id, latency, .. } = ev {
                        prop_assert_eq!(latency.output_tokens, expected[&id.0] as u64);
                        finished += 1;
                    }
                }
            }
            let accepted = engine
                .submit(now, NewRequest {
                    id: RequestId(i as u64),
                    prompt: synthetic_tokens(i as u64 * 7 + 1, plen, 64_000).into(),
                    target_output: out,
                    arrival: now,
                    cache_id: None,
                })
                .accepted;
            prop_assert!(accepted);
            expected.insert(i as u64, out);
        }
        let mut guard = 0;
        while let Some(w) = engine.next_wake(now) {
            now = w.max_of(now);
            for ev in engine.advance(now) {
                if let EngineEvent::Finished { id, latency, .. } = ev {
                    prop_assert_eq!(latency.output_tokens, expected[&id.0] as u64);
                    finished += 1;
                }
            }
            guard += 1;
            prop_assert!(guard < 500_000, "engine failed to drain");
        }
        prop_assert_eq!(finished, spec.len());
        prop_assert_eq!(engine.rtc().npu_free_blocks(), total_blocks,
            "all KV blocks must return to the pool");
    }
}
