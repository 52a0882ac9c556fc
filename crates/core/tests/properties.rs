//! Property-based tests for platform-layer invariants: the distributed
//! scheduler and its global prompt tree, the heatmap, the autoscaler, and
//! the scaling cost model.

use deepserve::{
    ApiRequest, AutoscaleSignal, Autoscaler, AutoscalerConfig, Decision, GlobalPromptTree, Heatmap,
    JobExecutor, LoadPath, Oracle, Policy, ScaleAction, ScalingModel, ScalingOptimizations,
    SourceLoad, Target, TeId,
};
use flowserve::rtc::chain_hash;
use flowserve::{synthetic_tokens, TokenId};
use llm_model::{Checkpoint, ModelSpec, Parallelism};
use npu::pagecache::FileId;
use npu::specs::ClusterSpec;
use proptest::prelude::*;
use simcore::{Counters, SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::BTreeMap;

const POLICIES: [Policy; 5] = [
    Policy::RoundRobin,
    Policy::LoadAware,
    Policy::LocalityAware,
    Policy::PdAware,
    Policy::Combined,
];

fn new_je(policy: Policy) -> JobExecutor {
    JobExecutor::new(policy, Heatmap::default_production(), Box::new(Oracle), 16)
}

/// `n_coloc` colocated TEs then `n_pairs` (prefill, decode) pairs, ids
/// ascending.
fn pool(n_coloc: usize, n_pairs: usize) -> (Vec<TeId>, Vec<(TeId, TeId)>) {
    let colocated = (0..n_coloc as u32).map(TeId).collect();
    let pairs = (0..n_pairs as u32)
        .map(|k| {
            let p = n_coloc as u32 + 2 * k;
            (TeId(p), TeId(p + 1))
        })
        .collect();
    (colocated, pairs)
}

/// A JE over `pool(n_coloc, n_pairs)` where TE `t` carries `loads[t]`
/// (0 past the end).
fn pooled_je(policy: Policy, n_coloc: usize, n_pairs: usize, loads: &[usize]) -> JobExecutor {
    let (colocated, pairs) = pool(n_coloc, n_pairs);
    let mut je = new_je(policy);
    je.register_pool(&colocated, &pairs);
    for t in 0..(n_coloc + 2 * n_pairs) as u32 {
        je.set_load(TeId(t), loads.get(t as usize).copied().unwrap_or(0));
    }
    je
}

/// The global prompt tree the JE's holder-list tree replaced, kept as its
/// oracle: per level a `BTreeMap` of holders, and a match that credits each
/// TE level by level while it stays contiguous from the root.
struct OracleTree {
    block_size: usize,
    /// prefix chain hash -> (TE -> last refresh time).
    levels: BTreeMap<u64, BTreeMap<TeId, SimTime>>,
    /// Soft capacity; pruning keeps roughly this many entries.
    capacity: usize,
}

impl OracleTree {
    fn new(block_size: usize, capacity: usize) -> Self {
        OracleTree {
            block_size,
            levels: BTreeMap::new(),
            capacity: capacity.max(16),
        }
    }

    fn insert(&mut self, now: SimTime, te: TeId, tokens: &[TokenId]) {
        let mut hash = 0u64;
        for block in tokens.chunks_exact(self.block_size) {
            hash = chain_hash(hash, block);
            self.levels.entry(hash).or_default().insert(te, now);
        }
        if self.levels.len() > self.capacity {
            self.prune();
        }
    }

    /// Longest matched prefix per TE, in tokens. TEs with no match are
    /// absent.
    fn match_tokens(&self, tokens: &[TokenId]) -> BTreeMap<TeId, usize> {
        let mut depth: BTreeMap<TeId, usize> = BTreeMap::new();
        let mut hash = 0u64;
        let mut level = 0usize;
        for block in tokens.chunks_exact(self.block_size) {
            hash = chain_hash(hash, block);
            let Some(holders) = self.levels.get(&hash) else {
                break;
            };
            level += 1;
            for &te in holders.keys() {
                let d = depth.entry(te).or_insert(0);
                // Contiguity: only extend a TE's depth if it held every
                // shallower level too.
                if *d == (level - 1) * self.block_size {
                    *d = level * self.block_size;
                }
            }
        }
        depth.retain(|_, &mut d| d > 0);
        depth
    }

    /// The TE with the longest common prefix for `tokens`, with the match
    /// length; ties broken by lowest TE id.
    fn best_te(&self, tokens: &[TokenId]) -> Option<(TeId, usize)> {
        self.match_tokens(tokens)
            .into_iter()
            .max_by(|a, b| a.1.cmp(&b.1).then_with(|| b.0.cmp(&a.0)))
    }

    fn remove_te(&mut self, te: TeId) {
        for holders in self.levels.values_mut() {
            holders.remove(&te);
        }
        self.levels.retain(|_, h| !h.is_empty());
    }

    fn len(&self) -> usize {
        self.levels.len()
    }

    /// Drops the stalest half of the entries (called on overflow).
    fn prune(&mut self) {
        let mut ages: Vec<SimTime> = self
            .levels
            .values()
            .map(|h| h.values().copied().max().unwrap_or(SimTime::ZERO))
            .collect();
        ages.sort_unstable();
        let cutoff = ages[ages.len() / 2];
        self.levels
            .retain(|_, h| h.values().copied().max().unwrap_or(SimTime::ZERO) > cutoff);
    }
}

/// The brute-force scan the JE's load index replaced, restated over plain
/// `Vec`s: every decision rebuilds the routable groups and rescans them.
struct Reference {
    policy: Policy,
    colocated: Vec<TeId>,
    pairs: Vec<(TeId, TeId)>,
    loads: Vec<usize>,
    removed: Vec<bool>,
    /// Global prompt trees: colocated, prefill.
    trees: [OracleTree; 2],
    rr: usize,
    counters: Counters,
}

impl Reference {
    /// `req`'s match at `t` in the oracle tree of `t`'s group, in tokens.
    fn matched(&self, req: &ApiRequest, t: &Target) -> usize {
        let tree = &self.trees[matches!(t, Target::Disaggregated { .. }) as usize];
        tree.match_tokens(&req.prompt)
            .get(&t.locality_te())
            .copied()
            .unwrap_or(0)
    }

    fn schedule(&mut self, req: &ApiRequest) -> Option<Decision> {
        let up = |t: TeId| !self.removed[t.0 as usize];
        let coloc: Vec<Target> = self
            .colocated
            .iter()
            .copied()
            .filter(|&t| up(t))
            .map(Target::Colocated)
            .collect();
        let disagg: Vec<Target> = self
            .pairs
            .iter()
            .copied()
            .filter(|&(p, d)| up(p) && up(d))
            .map(|(prefill, decode)| Target::Disaggregated { prefill, decode })
            .collect();
        let all: Vec<Target> = coloc.iter().chain(&disagg).copied().collect();
        if all.is_empty() {
            return None;
        }
        let predicted = req.target_output; // Oracle
        let key = |t: &Target| match *t {
            Target::Colocated(te) => (self.loads[te.0 as usize], te),
            Target::Disaggregated {
                prefill: p,
                decode: d,
            } => (self.loads[p.0 as usize].max(self.loads[d.0 as usize]), p),
        };
        let matched = |t: &Target| self.matched(req, t);
        let least = |g: &[Target]| g.iter().copied().min_by_key(key);
        let best = |g: &[Target]| {
            g.iter()
                .copied()
                .filter(|t| matched(t) > 0)
                .max_by_key(|t| (matched(t), Reverse(t.locality_te())))
        };
        let mut bumped = Vec::new();
        let mut heat = 0.0;
        let target = match self.policy {
            Policy::RoundRobin => {
                bumped.push("je.rr");
                all[self.rr % all.len()]
            }
            Policy::LoadAware => {
                bumped.push("je.load");
                least(&all)?
            }
            Policy::LocalityAware => {
                bumped.push("je.locality");
                best(&coloc)
                    .or_else(|| best(&disagg))
                    .or_else(|| least(&all))?
            }
            Policy::PdAware | Policy::Combined => {
                heat = Heatmap::default_production().lookup(req.prefill_len(), predicted);
                let mut prefer_disagg = heat >= 0.0;
                if let (Some(c), Some(d)) = (least(&coloc), least(&disagg)) {
                    let (c, d) = (key(&c).0 as f64, key(&d).0 as f64);
                    // The JE's constants: overload factor 2, balance threshold 4.
                    if (prefer_disagg && d > 2.0 * c + 4.0) || (!prefer_disagg && c > 2.0 * d + 4.0)
                    {
                        prefer_disagg = !prefer_disagg;
                        bumped.push("je.heatmap_overridden");
                    }
                }
                let group = match (prefer_disagg, coloc.is_empty(), disagg.is_empty()) {
                    (true, _, false) => {
                        bumped.push("je.heatmap_disagg");
                        &disagg
                    }
                    (false, false, _) => {
                        bumped.push("je.heatmap_coloc");
                        &coloc
                    }
                    (_, false, _) => &coloc,
                    _ => &disagg,
                };
                let loads: Vec<usize> = group.iter().map(|t| key(t).0).collect();
                let spread = loads.iter().max()? - loads.iter().min()?;
                if self.policy == Policy::PdAware {
                    bumped.push("je.pd");
                    least(group)?
                } else if spread <= 4 {
                    bumped.push("je.combined_locality");
                    best(group).or_else(|| least(group))?
                } else {
                    bumped.push("je.combined_load");
                    least(group)?
                }
            }
        };
        let decision = Decision {
            target,
            predicted_decode: predicted,
            heat,
        };
        self.rr += usize::from(self.policy == Policy::RoundRobin);
        for name in bumped {
            self.counters.incr(name);
        }
        Some(decision)
    }
}

/// Six prompts over two shared 64-token bases, 80-112 tokens long.
fn prompt(k: usize) -> Vec<TokenId> {
    let mut p = synthetic_tokens(1 + k as u64 % 2, 64, 64_000);
    p.extend(synthetic_tokens(10 + k as u64, 16 + 16 * (k % 3), 64_000));
    p
}

/// Twelve prompts in a three-level family: two 64-token bases, four
/// 32-token middles (each under one base), then a 16-48 token tail of
/// their own; 40 distinct levels in all.
fn family_prompt(k: usize) -> Vec<TokenId> {
    let mut p = synthetic_tokens(1 + k as u64 % 2, 64, 64_000);
    p.extend(synthetic_tokens(20 + k as u64 % 4, 32, 64_000));
    p.extend(synthetic_tokens(40 + k as u64, 16 * (1 + k % 3), 64_000));
    p
}

proptest! {
    /// The holder-list prompt tree against the oracle tree it replaced:
    /// random inserts (whole prompts and prefixes) at non-decreasing times,
    /// TE removals, and prunes at a capacity the 40 levels overflow. After
    /// every step the level counts agree; for every prompt and TE, `depth`
    /// equals the oracle's match; and under a random accept mask `best`
    /// equals the brute-force pick over the oracle's matches.
    #[test]
    fn prompt_tree_matches_oracle(
        capacity in 0usize..48,
        ops in prop::collection::vec((0usize..8, 0usize..12, 0u32..5, 0u64..3, 1usize..10), 1..120),
        masks in prop::collection::vec(0u8..32, 120),
    ) {
        let mut tree = GlobalPromptTree::new(16, capacity);
        let mut oracle = OracleTree::new(16, capacity);
        let mut now = SimTime::ZERO;
        for (step, &(kind, k, te, gap, blocks)) in ops.iter().enumerate() {
            let te = TeId(te);
            now += SimDuration::from_nanos(gap);
            match kind {
                0..=4 => {
                    let p = family_prompt(k);
                    // Half the inserts cache only a prefix, ending mid-block.
                    let cut = if kind % 2 == 0 { p.len() } else { (16 * blocks + 5).min(p.len()) };
                    tree.insert(now, te, &p[..cut]);
                    oracle.insert(now, te, &p[..cut]);
                }
                5 => {
                    tree.remove_te(te);
                    oracle.remove_te(te);
                }
                _ => {
                    let p = family_prompt(k);
                    let walk = tree.walk(&p);
                    let matches = oracle.match_tokens(&p);
                    prop_assert_eq!(walk.best(Some), oracle.best_te(&p), "step {}", step);
                    let accept = |t: TeId| masks[step] & (1 << t.0) != 0;
                    let want = matches
                        .iter()
                        .filter(|&(&t, _)| accept(t))
                        .max_by_key(|&(&t, &d)| (d, Reverse(t)))
                        .map(|(&t, &d)| (t, d));
                    prop_assert_eq!(walk.best(|t| accept(t).then_some(t)), want, "step {}", step);
                }
            }
            prop_assert_eq!(tree.len(), oracle.len(), "levels after step {}", step);
            for k in 0..12 {
                let p = family_prompt(k);
                let walk = tree.walk(&p);
                let matches = oracle.match_tokens(&p);
                for t in 0..5 {
                    let want = matches.get(&TeId(t)).copied().unwrap_or(0);
                    prop_assert_eq!(walk.depth(TeId(t)), want, "prompt {} TE {} step {}", k, t, step);
                }
            }
        }
    }

    /// The JE's load index against the brute-force scan it replaced: random
    /// pools (some pairs sharing a decode TE), random load / removal /
    /// re-admission / cache reports, every policy. Every decision, the
    /// chosen target's matched tokens and every counter must match at
    /// every step.
    #[test]
    fn load_index_matches_brute_force_scan(
        policy_idx in 0usize..5,
        shape in (0usize..7, 0usize..5),
        decode_pick in prop::collection::vec(0usize..4, 4),
        id_keys in prop::collection::vec(any::<u64>(), 16),
        ops in prop::collection::vec((0usize..10, 0usize..16, 0usize..12, any::<bool>()), 1..60),
        gaps in prop::collection::vec(0u64..3, 60),
    ) {
        let policy = POLICIES[policy_idx];
        let (n_coloc, n_prefill) = shape;
        // Decode slot per prefill TE; equal slots share one decode TE.
        let slots: Vec<usize> = decode_pick[..n_prefill].iter().map(|k| k % n_prefill).collect();
        let mut distinct = slots.clone();
        distinct.sort_unstable();
        distinct.dedup();
        let n = n_coloc + n_prefill + distinct.len();
        // Random id permutation, so roles interleave in id order.
        let mut ids: Vec<u32> = (0..n as u32).collect();
        ids.sort_by_key(|&i| id_keys[i as usize]);
        let mut colocated: Vec<TeId> = ids[..n_coloc].iter().map(|&i| TeId(i)).collect();
        colocated.sort_unstable();
        let pairs: Vec<(TeId, TeId)> = slots.iter().enumerate().map(|(i, s)| {
            let d = distinct.iter().position(|x| x == s).unwrap_or(0);
            (TeId(ids[n_coloc + i]), TeId(ids[n_coloc + n_prefill + d]))
        }).collect();

        let mut je = new_je(policy);
        je.register_pool(&colocated, &pairs);
        let mut reference = Reference {
            policy,
            colocated,
            pairs,
            // One id past the pool: reports about it must be ignored.
            loads: vec![0; n + 1],
            removed: vec![false; n + 1],
            trees: [OracleTree::new(16, 200_000), OracleTree::new(16, 200_000)],
            rr: 0,
            counters: Counters::new(),
        };
        // Cache reports arrive in non-decreasing sim time, often tied.
        let mut now = SimTime::ZERO;
        for (step, &(kind, a, b, flag)) in ops.iter().enumerate() {
            let te = TeId((a % (n + 1)) as u32);
            now += SimDuration::from_nanos(gaps[step]);
            match kind {
                0..=2 => {
                    je.set_load(te, b);
                    reference.loads[te.0 as usize] = b;
                }
                3 => {
                    je.note_te_removed(te);
                    reference.trees.iter_mut().for_each(|t| t.remove_te(te));
                    reference.removed[te.0 as usize] = true;
                    reference.counters.incr("je.te_removed");
                }
                4 => {
                    je.note_te_added(te);
                    reference.removed[te.0 as usize] = false;
                    reference.counters.incr("je.te_added");
                }
                5 | 6 => {
                    let tokens = prompt(b % 6);
                    je.note_cached(now, te, flag, &tokens);
                    reference.trees[usize::from(flag)].insert(now, te, &tokens);
                }
                _ => {
                    let req = ApiRequest::chat(step as u64, prompt(a % 6), 1 + (b % 6) as u32, SimTime::ZERO);
                    let got = je.schedule(now, &req);
                    prop_assert_eq!(got, reference.schedule(&req), "{:?} step {}", policy, step);
                    if let Some(d) = got {
                        prop_assert_eq!(
                            je.matched_tokens(&req, d.target),
                            reference.matched(&req, &d.target),
                            "{:?} matched tokens at step {}", policy, step
                        );
                    }
                }
            }
            prop_assert_eq!(je.is_removed(te), reference.removed[te.0 as usize]);
            let got: Vec<_> = je.counters().iter().collect();
            let want: Vec<_> = reference.counters.iter().collect();
            prop_assert_eq!(got, want, "{:?} counters after step {}", policy, step);
        }
    }

    /// Every policy always returns a target that exists in the pool.
    #[test]
    fn scheduler_targets_are_in_pool(
        n_coloc in 0usize..4,
        n_pairs in 0usize..3,
        loads in prop::collection::vec(0usize..50, 10),
        prefill in 1usize..10_000,
        output in 1u32..2_000,
        policy_idx in 0usize..5,
    ) {
        prop_assume!(n_coloc + n_pairs > 0);
        let (colocated, pairs) = pool(n_coloc, n_pairs);
        let mut je = pooled_je(POLICIES[policy_idx], n_coloc, n_pairs, &loads);
        let req = ApiRequest::chat(1, synthetic_tokens(1, prefill, 64_000), output, SimTime::ZERO);
        let Some(d) = je.schedule(SimTime::ZERO, &req) else {
            return Err(TestCaseError::fail("non-empty pool scheduled nothing"));
        };
        match d.target {
            Target::Colocated(te) => prop_assert!(colocated.contains(&te)),
            Target::Disaggregated { prefill, decode } => {
                prop_assert!(pairs.contains(&(prefill, decode)));
            }
        }
        prop_assert!(d.predicted_decode >= 1);
    }

    /// Load-aware scheduling never picks a strictly more loaded colocated
    /// TE than the minimum.
    #[test]
    fn load_aware_is_greedy(loads in prop::collection::vec(0usize..100, 4)) {
        let mut je = pooled_je(Policy::LoadAware, 4, 0, &loads);
        let req = ApiRequest::chat(1, synthetic_tokens(1, 512, 64_000), 100, SimTime::ZERO);
        let Some(Decision { target: Target::Colocated(te), .. }) = je.schedule(SimTime::ZERO, &req) else {
            return Err(TestCaseError::fail("expected a colocated TE"));
        };
        let min = loads.iter().copied().min().unwrap_or(0);
        prop_assert_eq!(loads[te.0 as usize], min);
    }

    /// Heatmap bucketing is monotone: longer prefill never maps to a lower
    /// row; higher ratio never maps to a lower column.
    #[test]
    fn heatmap_buckets_are_monotone(a in 1usize..40_000, b in 1usize..40_000) {
        let (lo, hi) = (a.min(b), a.max(b));
        prop_assert!(Heatmap::prefill_bucket(lo) <= Heatmap::prefill_bucket(hi));
        let (rl, rh) = (lo as f64 / 1000.0, hi as f64 / 1000.0);
        prop_assert!(Heatmap::ratio_bucket(rl) <= Heatmap::ratio_bucket(rh));
    }

    /// The autoscaler never exceeds its bounds in either direction.
    #[test]
    fn autoscaler_respects_bounds(
        load in 0usize..10_000,
        active in 0usize..100,
        scaling in 0usize..20,
        viol in 0.0f64..1.0,
    ) {
        let cfg = AutoscalerConfig {
            min_tes: 2,
            max_tes: 32,
            ..AutoscalerConfig::default()
        };
        let mut a = Autoscaler::new(cfg);
        let action = a.decide(SimTime::ZERO, AutoscaleSignal {
            total_load: load,
            active_tes: active,
            scaling_tes: scaling,
            slo_violation_rate: viol,
        });
        match action {
            Some(ScaleAction::Up(n)) => {
                prop_assert!(active + scaling + n <= 32);
                prop_assert!(n >= 1);
            }
            Some(ScaleAction::Down(n)) => {
                prop_assert!(active - n >= 2);
                prop_assert!(n >= 1);
            }
            None => {}
        }
    }

    /// Scaling cost model: optimizations never make any step slower, for
    /// any model/parallelism in the catalog.
    #[test]
    fn optimizations_never_hurt(model_idx in 0usize..4, tp_pow in 0u32..4) {
        let specs = [
            ModelSpec::generic_7b(),
            ModelSpec::llama3_8b(),
            ModelSpec::internal_34b(),
            ModelSpec::llama3_70b(),
        ];
        let spec = specs[model_idx].clone();
        let tp = 1u32 << tp_pow;
        prop_assume!(spec.num_kv_heads.is_multiple_of(tp));
        let par = Parallelism::tp(tp);
        let m = ScalingModel::new(ClusterSpec::gen2_cluster(4));
        let ckpt = Checkpoint::new(FileId(1), spec);
        let before = m.breakdown(
            &ckpt, par,
            ScalingOptimizations::none(),
            LoadPath::DramMiss,
            SourceLoad::idle(),
        );
        let after = m.breakdown(
            &ckpt, par,
            ScalingOptimizations::all(),
            LoadPath::DramHit,
            SourceLoad::idle(),
        );
        prop_assert!(after.scaler_pre <= before.scaler_pre);
        prop_assert!(after.te_pre_load <= before.te_pre_load);
        prop_assert!(after.te_load <= before.te_load);
        prop_assert!(after.te_post_load <= before.te_post_load);
        prop_assert!(after.scaler_post <= before.scaler_post);
    }

    /// NPU-fork time is monotone in fan-out and bounded by the pipelined
    /// broadcast's flatness.
    #[test]
    fn fork_monotone_and_flat(f1 in 1usize..64, f2 in 1usize..64) {
        prop_assume!(f1 < f2);
        let m = ScalingModel::new(ClusterSpec::gen2_cluster(16));
        let ckpt = Checkpoint::new(FileId(1), ModelSpec::llama3_8b());
        let par = Parallelism::tp(1);
        let t1 = m.te_load(&ckpt, par, LoadPath::NpuForkHccs { fanout: f1 }, SourceLoad::idle());
        let t2 = m.te_load(&ckpt, par, LoadPath::NpuForkHccs { fanout: f2 }, SourceLoad::idle());
        prop_assert!(t2 >= t1, "fork time must be monotone in fan-out");
        prop_assert!(t2.as_secs_f64() <= 2.0 * t1.as_secs_f64(), "and nearly flat");
    }
}
