//! Job Executor: frontend dispatch and the distributed scheduling policy
//! (Algorithm 1).
//!
//! ```text
//! Function dist_sched(req, tes):
//!     tes <- PD_aware(req, tes)
//!     if tes.is_load_balanced():
//!         tes <- locality_aware(req, tes)
//!     else:
//!         tes <- load_aware(req, tes)
//!     return tes
//! ```
//!
//! `PD_aware` consults the combined heatmap with the request's prefill
//! length and *predicted* decode length (`select_tes_PD_heatmap`);
//! `locality_aware` walks the global prompt tree
//! (`select_tes_prefix_match`); `load_aware` picks the least-loaded TE.
//!
//! Policies run against an incremental load index, not a per-request
//! snapshot of the pool: the platform registers the pool once
//! ([`JobExecutor::register_pool`]) and reports every load change
//! ([`JobExecutor::set_load`]). The index keeps the routable colocated TEs
//! and the routable pairs ordered by `(load, TeId)`, so least load, most
//! load and the balance check read the ends of two ordered sets, and a
//! decision costs O(log n) in the number of TEs.

use crate::api::ApiRequest;
use crate::heatmap::Heatmap;
use crate::predictor::DecodePredictor;
use crate::prompt_tree::{GlobalPromptTree, TeId};
use simcore::trace::{Trace, TraceLevel, Tracer};
use simcore::{Counters, SimTime};
use std::collections::BTreeSet;

/// Load-imbalance threshold for `is_load_balanced` (absolute request
/// spread).
const BALANCE_THRESHOLD: usize = 4;

/// Overload spill-over: when the heatmap-preferred TE type's least-loaded
/// target carries more than `OVERLOAD_FACTOR` x the other type's
/// least-loaded target (plus the balance threshold), the preference is
/// overridden. This is the "dynamics of online serving" part of the
/// PD-aware policy (§5.3.2): a correct static preference must not pile the
/// whole workload onto a saturated subgroup.
const OVERLOAD_FACTOR: f64 = 2.0;

/// Scheduling policy selector (the Figure 6 comparison set plus ablations).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Cycle through targets regardless of anything.
    RoundRobin,
    /// Least-loaded target only.
    LoadAware,
    /// Longest prefix match only (load ignored).
    LocalityAware,
    /// Heatmap-based type selection, then least load.
    PdAware,
    /// The full Algorithm 1: PD-aware + locality-aware + load-aware.
    Combined,
}

/// Where a request should run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// One PD-colocated TE.
    Colocated(TeId),
    /// A prefill/decode TE pair.
    Disaggregated {
        /// Prefill-side TE.
        prefill: TeId,
        /// Decode-side TE.
        decode: TeId,
    },
}

impl Target {
    /// The TE whose cache locality matters (colocated TE or prefill TE).
    pub fn locality_te(&self) -> TeId {
        match *self {
            Target::Colocated(t) => t,
            Target::Disaggregated { prefill, .. } => prefill,
        }
    }
}

/// The scheduling outcome, with the intermediate signals for
/// observability/benchmarks. The target's prompt-tree match is not part
/// of it: only the locality path reads the tree, and
/// [`JobExecutor::matched_tokens`] computes it on demand.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decision {
    /// Where to run.
    pub target: Target,
    /// Predicted decode length used by PD-aware.
    pub predicted_decode: u32,
    /// Heatmap cell value consulted (0 when PD-aware was skipped).
    pub heat: f64,
}

/// One of the two TE groups PD-aware chooses between.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Group {
    Colocated,
    Pairs,
}

/// A registered TE's place in the pool.
#[derive(Debug, Clone)]
enum Role {
    Colocated,
    /// Prefill half of the pair `(this TE, decode)`.
    Prefill(TeId),
    /// Decode half of the pairs led by these prefill TEs (several under
    /// 2P1D).
    Decode(Vec<TeId>),
}

#[derive(Debug, Clone)]
struct Member {
    role: Role,
    load: usize,
}

/// The JE's incremental view of the pool. A TE is routable unless
/// removed; a pair is routable when both halves are. The two ordered sets
/// hold exactly the routable colocated TEs and pairs, keyed by load.
#[derive(Debug, Default)]
struct LoadIndex {
    /// Registered TEs by `TeId.0`; `None` for ids outside the pool.
    members: Vec<Option<Member>>,
    /// Registered pairs in configuration order (round-robin's order).
    pairs: Vec<(TeId, TeId)>,
    /// TEs removed from service (failed or scaled down).
    removed: BTreeSet<TeId>,
    /// Routable colocated TEs keyed by `(load, TeId)`.
    colocated_by_load: BTreeSet<(usize, TeId)>,
    /// Routable pairs keyed by `(pair load, prefill, decode)`, where a
    /// pair's load is that of its more loaded half (either half saturating
    /// stalls the pipeline). A prefill TE leads exactly one pair, so the
    /// order is that of `(pair load, prefill)`.
    pairs_by_load: BTreeSet<(usize, TeId, TeId)>,
}

impl LoadIndex {
    fn member(&self, te: TeId) -> Option<&Member> {
        self.members.get(te.0 as usize).and_then(Option::as_ref)
    }

    fn load(&self, te: TeId) -> usize {
        self.member(te).map_or(0, |m| m.load)
    }

    fn routable(&self, te: TeId) -> bool {
        !self.removed.contains(&te)
    }

    fn register(&mut self, colocated: &[TeId], pairs: &[(TeId, TeId)]) {
        // Colocated and prefill TEs: each keys at most one set entry.
        let leaders = || colocated.iter().chain(pairs.iter().map(|(p, _)| p));
        let mut seen = BTreeSet::new();
        for &te in leaders() {
            assert!(seen.insert(te), "TE {te:?} registered twice");
        }
        for &(_, d) in pairs {
            assert!(!seen.contains(&d), "decode TE {d:?} also has another role");
        }
        let ids = colocated
            .iter()
            .chain(pairs.iter().flat_map(|(p, d)| [p, d]));
        let len = ids.map(|t| t.0 as usize + 1).max().unwrap_or(0);
        self.members = vec![None; len];
        let member = |role| Some(Member { role, load: 0 });
        for &te in colocated {
            self.members[te.0 as usize] = member(Role::Colocated);
        }
        for &(p, d) in pairs {
            self.members[p.0 as usize] = member(Role::Prefill(d));
            let decode = self.members[d.0 as usize].get_or_insert(Member {
                role: Role::Decode(Vec::new()),
                load: 0,
            });
            if let Role::Decode(prefills) = &mut decode.role {
                prefills.push(p);
            }
        }
        self.pairs = pairs.to_vec();
        self.colocated_by_load.clear();
        self.pairs_by_load.clear();
        for &te in leaders() {
            if self.routable(te) {
                self.update_entries(te, true);
            }
        }
    }

    /// Inserts (`insert`) or removes `te`'s set entries at its current
    /// load: its colocated key, or the key of every pair it belongs to
    /// whose other half is routable.
    fn update_entries(&mut self, te: TeId, insert: bool) {
        fn toggle<K: Ord>(set: &mut BTreeSet<K>, key: K, insert: bool) {
            let changed = if insert {
                set.insert(key)
            } else {
                set.remove(&key)
            };
            debug_assert!(changed, "JE load index out of step with routability");
        }
        let Some(member) = self.members.get(te.0 as usize).and_then(Option::as_ref) else {
            return;
        };
        let load = member.load;
        match &member.role {
            Role::Colocated => toggle(&mut self.colocated_by_load, (load, te), insert),
            &Role::Prefill(d) => {
                if !self.removed.contains(&d) {
                    let key = (load.max(self.load(d)), te, d);
                    toggle(&mut self.pairs_by_load, key, insert);
                }
            }
            Role::Decode(prefills) => {
                for &p in prefills {
                    if !self.removed.contains(&p) {
                        let key = (self.load(p).max(load), p, te);
                        toggle(&mut self.pairs_by_load, key, insert);
                    }
                }
            }
        }
    }

    fn set_load(&mut self, te: TeId, load: usize) {
        if self.member(te).is_none_or(|m| m.load == load) {
            return;
        }
        let routable = self.routable(te);
        if routable {
            self.update_entries(te, false);
        }
        if let Some(m) = self.members[te.0 as usize].as_mut() {
            m.load = load;
        }
        if routable {
            self.update_entries(te, true);
        }
    }

    fn remove(&mut self, te: TeId) {
        if self.routable(te) {
            self.update_entries(te, false);
            self.removed.insert(te);
        }
    }

    fn add(&mut self, te: TeId) {
        if self.removed.remove(&te) {
            self.update_entries(te, true);
        }
    }

    /// The least-loaded member of `g` with its load; `None` when the group
    /// has no routable member.
    fn head(&self, g: Group) -> Option<(usize, Target)> {
        match g {
            Group::Colocated => self
                .colocated_by_load
                .first()
                .map(|&(load, te)| (load, Target::Colocated(te))),
            Group::Pairs => self
                .pairs_by_load
                .first()
                .map(|&(load, prefill, decode)| (load, Target::Disaggregated { prefill, decode })),
        }
    }

    /// Max minus min load over `g`'s routable members (0 when empty).
    fn spread(&self, g: Group) -> usize {
        let (min, max) = match g {
            Group::Colocated => (
                self.colocated_by_load.first().map(|k| k.0),
                self.colocated_by_load.last().map(|k| k.0),
            ),
            Group::Pairs => (
                self.pairs_by_load.first().map(|k| k.0),
                self.pairs_by_load.last().map(|k| k.0),
            ),
        };
        max.unwrap_or(0) - min.unwrap_or(0)
    }

    /// The least-loaded target over both groups, smallest `(load, TeId)`
    /// first. A TE has one role, so the two heads never tie.
    fn least_loaded(&self) -> Option<Target> {
        match (self.head(Group::Colocated), self.head(Group::Pairs)) {
            (Some(c), Some(p)) => {
                let key = |(load, t): (usize, Target)| (load, t.locality_te());
                Some(if key(c) <= key(p) { c.1 } else { p.1 })
            }
            (c, p) => c.or(p).map(|(_, t)| t),
        }
    }

    /// `te` as a routable target of group `g`, if it is one.
    fn target_in(&self, g: Group, te: TeId) -> Option<Target> {
        let member = self.member(te)?;
        match (g, &member.role) {
            (Group::Colocated, Role::Colocated) if self.routable(te) => Some(Target::Colocated(te)),
            (Group::Pairs, &Role::Prefill(decode))
                if self.routable(te) && self.routable(decode) =>
            {
                Some(Target::Disaggregated {
                    prefill: te,
                    decode,
                })
            }
            _ => None,
        }
    }

    /// Round-robin slot `cursor` over the routable colocated TEs in id
    /// order, then the routable pairs in configuration order. O(n), for a
    /// policy no workload runs at scale.
    fn round_robin(&self, cursor: usize) -> Option<Target> {
        let n_colocated = self.colocated_by_load.len();
        let slots = n_colocated + self.pairs_by_load.len();
        if slots == 0 {
            return None;
        }
        let slot = cursor % slots;
        if slot < n_colocated {
            (0..self.members.len() as u32)
                .filter_map(|i| self.target_in(Group::Colocated, TeId(i)))
                .nth(slot)
        } else {
            self.pairs
                .iter()
                .filter_map(|&(p, _)| self.target_in(Group::Pairs, p))
                .nth(slot - n_colocated)
        }
    }
}

/// The model-serving Job Executor.
pub struct JobExecutor {
    policy: Policy,
    heatmap: Heatmap,
    predictor: Box<dyn DecodePredictor>,
    /// Global prompt tree for colocated TEs.
    tree_colocated: GlobalPromptTree,
    /// Global prompt tree for prefill TEs.
    tree_prefill: GlobalPromptTree,
    rr_cursor: usize,
    /// The registered pool, its loads and which of it is routable.
    index: LoadIndex,
    counters: Counters,
    tracer: Tracer,
}

impl JobExecutor {
    /// Creates a JE with the given policy, heatmap and predictor. Its pool
    /// is empty until [`JobExecutor::register_pool`].
    pub fn new(
        policy: Policy,
        heatmap: Heatmap,
        predictor: Box<dyn DecodePredictor>,
        block_size: usize,
    ) -> Self {
        JobExecutor {
            policy,
            heatmap,
            predictor,
            tree_colocated: GlobalPromptTree::new(block_size, 200_000),
            tree_prefill: GlobalPromptTree::new(block_size, 200_000),
            rr_cursor: 0,
            index: LoadIndex::default(),
            counters: Counters::new(),
            tracer: Tracer::disabled(),
        }
    }

    /// Registers the schedulable pool: PD-colocated TEs and
    /// `(prefill, decode)` pairs in configuration order. A decode TE may
    /// back several prefill TEs (2P1D). Every load starts at zero; TEs
    /// already removed stay unroutable. Replaces any earlier registration.
    ///
    /// # Panics
    ///
    /// Panics if a TE is registered twice, or in two roles (a decode TE
    /// shared by several pairs is one role).
    pub fn register_pool(&mut self, colocated: &[TeId], pairs: &[(TeId, TeId)]) {
        self.index.register(colocated, pairs);
    }

    /// TE -> JE load report: `te` now holds `load` requests (queued +
    /// running). The platform calls this wherever a TE's request count can
    /// change; ids outside the registered pool are ignored.
    pub fn set_load(&mut self, te: TeId, load: usize) {
        self.index.set_load(te, load);
    }

    /// The load the index holds for `te`; `None` outside the pool.
    pub fn load(&self, te: TeId) -> Option<usize> {
        self.index.member(te).map(|m| m.load)
    }

    /// Routable colocated TEs with the load the index keys each by, in
    /// `(load, TeId)` order.
    pub fn routable_colocated(&self) -> impl Iterator<Item = (TeId, usize)> + '_ {
        self.index
            .colocated_by_load
            .iter()
            .map(|&(load, te)| (te, load))
    }

    /// Routable pairs as `(prefill, decode, pair load)`, in
    /// `(pair load, prefill)` order.
    pub fn routable_pairs(&self) -> impl Iterator<Item = (TeId, TeId, usize)> + '_ {
        self.index
            .pairs_by_load
            .iter()
            .map(|&(load, p, d)| (p, d, load))
    }

    /// Turns on sim-time tracing of scheduling decisions.
    pub fn enable_tracing(&mut self, level: TraceLevel, capacity: usize) {
        self.tracer = Tracer::enabled(level, capacity);
    }

    /// Drains everything traced so far.
    pub fn take_trace(&mut self) -> Trace {
        self.tracer.take()
    }

    /// Active policy.
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// Scheduling statistics.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// TE -> JE tree sync: a TE reports it now caches `tokens`' prefix.
    pub fn note_cached(
        &mut self,
        now: SimTime,
        te: TeId,
        is_prefill_te: bool,
        tokens: &[flowserve::TokenId],
    ) {
        if is_prefill_te {
            self.tree_prefill.insert(now, te, tokens);
        } else {
            self.tree_colocated.insert(now, te, tokens);
        }
    }

    /// Forgets a TE (scale-down / failure): purges its prompt-tree state
    /// and bars it (and every pair it belongs to) from scheduling until
    /// [`JobExecutor::note_te_added`].
    pub fn note_te_removed(&mut self, te: TeId) {
        self.tree_colocated.remove_te(te);
        self.tree_prefill.remove_te(te);
        self.index.remove(te);
        self.counters.incr("je.te_removed");
    }

    /// Re-admits a TE after repair / scale-up at the load the index last
    /// heard for it. Its prompt trees start empty (a replaced TE holds no
    /// cache).
    pub fn note_te_added(&mut self, te: TeId) {
        self.index.add(te);
        self.counters.incr("je.te_added");
    }

    /// Whether `te` is currently barred from scheduling.
    pub fn is_removed(&self, te: TeId) -> bool {
        !self.index.routable(te)
    }

    /// Locality-aware cold-start placement (the fleet analogue of the
    /// locality policy): among `candidates` — `(te, storage tier rank of
    /// the checkpoint on that TE's server, current engine load)` — prefer
    /// the TE whose local storage already holds the model (lowest tier
    /// rank: DRAM beats SSD beats remote), breaking ties by load, then
    /// TeId. Removed TEs never win. Returns `None` when every candidate
    /// is removed.
    pub fn place_cold_start(&mut self, candidates: &[(TeId, u8, usize)]) -> Option<TeId> {
        let &(te, rank, _) = candidates
            .iter()
            .filter(|(te, _, _)| self.index.routable(*te))
            .min_by_key(|&&(te, rank, load)| (rank, load, te))?;
        self.counters.incr("je.cold_start_placed");
        if rank <= 2 {
            // DRAM (1) or SSD (2) already holds bytes locally; rank 0
            // (HBM) only appears for scale-out from a live replica.
            self.counters.incr("je.cold_start_local_hit");
        }
        Some(te)
    }

    /// Algorithm 1 entry point. Returns `None` when no registered TE is
    /// routable (an empty pool, or every TE removed); the predictor is
    /// then not consulted and nothing is counted or traced.
    pub fn schedule(&mut self, now: SimTime, req: &ApiRequest) -> Option<Decision> {
        if self.index.colocated_by_load.is_empty() && self.index.pairs_by_load.is_empty() {
            return None;
        }
        let predicted = self.predictor.predict(req);
        let (target, heat) = match self.policy {
            Policy::RoundRobin => (self.round_robin()?, 0.0),
            Policy::LoadAware => (self.load_only()?, 0.0),
            Policy::LocalityAware => (self.locality_only(req)?, 0.0),
            Policy::PdAware => self.pd_then_load(req, predicted)?,
            Policy::Combined => self.combined(req, predicted)?,
        };
        if self.tracer.is_enabled() {
            let policy = match self.policy {
                Policy::RoundRobin => "round_robin",
                Policy::LoadAware => "load_aware",
                Policy::LocalityAware => "locality_aware",
                Policy::PdAware => "pd_aware",
                Policy::Combined => "combined",
            };
            let (kind, te) = match target {
                Target::Colocated(te) => ("colocated", te),
                Target::Disaggregated { prefill, .. } => ("disaggregated", prefill),
            };
            let matched = self.matched_tokens(req, target);
            self.tracer.event(
                now,
                "je.schedule",
                vec![
                    ("req", req.id.0.into()),
                    ("policy", policy.into()),
                    ("predicted_decode", predicted.into()),
                    ("heat", heat.into()),
                    ("matched_tokens", matched.into()),
                    ("target_kind", kind.into()),
                    ("target_te", te.0.into()),
                ],
            );
        }
        Some(Decision {
            target,
            predicted_decode: predicted,
            heat,
        })
    }

    /// `req`'s prompt-tree match at `target`, in tokens: how many leading
    /// full blocks of the prompt the target's locality TE holds in its
    /// group's tree. One walk; no decision reads it.
    pub fn matched_tokens(&self, req: &ApiRequest, target: Target) -> usize {
        let group = match target {
            Target::Colocated(_) => Group::Colocated,
            Target::Disaggregated { .. } => Group::Pairs,
        };
        self.tree(group)
            .walk(&req.prompt)
            .depth(target.locality_te())
    }

    // ---- policies ----

    fn round_robin(&mut self) -> Option<Target> {
        let target = self.index.round_robin(self.rr_cursor)?;
        self.rr_cursor += 1;
        self.counters.incr("je.rr");
        Some(target)
    }

    fn load_only(&mut self) -> Option<Target> {
        let target = self.index.least_loaded()?;
        self.counters.incr("je.load");
        Some(target)
    }

    /// The longest colocated match, else the longest pair match, else the
    /// least-loaded target. Walks the prefill tree only when no colocated
    /// TE matches.
    fn locality_only(&mut self, req: &ApiRequest) -> Option<Target> {
        let best = |g: Group| {
            let pick = |te| self.index.target_in(g, te);
            self.tree(g).walk(&req.prompt).best(pick).map(|(t, _)| t)
        };
        let target = best(Group::Colocated)
            .or_else(|| best(Group::Pairs))
            .or_else(|| self.index.least_loaded())?;
        self.counters.incr("je.locality");
        Some(target)
    }

    fn pd_then_load(&mut self, req: &ApiRequest, predicted: u32) -> Option<(Target, f64)> {
        let (group, heat) = self.select_tes_pd_heatmap(req, predicted);
        let (_, target) = self.index.head(group)?;
        self.counters.incr("je.pd");
        Some((target, heat))
    }

    /// Algorithm 1: PD-aware narrows the group; balanced -> locality,
    /// imbalanced -> load. Only the balanced path walks the group's prompt
    /// tree.
    fn combined(&mut self, req: &ApiRequest, predicted: u32) -> Option<(Target, f64)> {
        let (group, heat) = self.select_tes_pd_heatmap(req, predicted);
        let (_, least) = self.index.head(group)?;
        let target = if self.index.spread(group) <= BALANCE_THRESHOLD {
            self.counters.incr("je.combined_locality");
            let pick = |te| self.index.target_in(group, te);
            let walk = self.tree(group).walk(&req.prompt);
            walk.best(pick).map_or(least, |(t, _)| t)
        } else {
            self.counters.incr("je.combined_load");
            least
        };
        Some((target, heat))
    }

    // ---- Algorithm 1 helpers ----

    /// `select_tes_PD_heatmap`: positive cell -> disaggregated pairs,
    /// negative -> colocated; falls back when the preferred type has no
    /// routable instance. Returns the chosen group plus the cell value.
    fn select_tes_pd_heatmap(&mut self, req: &ApiRequest, predicted: u32) -> (Group, f64) {
        let heat = self.heatmap.lookup(req.prefill_len(), predicted);
        let mut prefer_disagg = heat >= 0.0;
        let coloc = self.index.head(Group::Colocated);
        let disagg = self.index.head(Group::Pairs);
        // Overload spill-over: override a static preference whose best
        // target is drowning while the other type has headroom.
        if let (Some((min_coloc, _)), Some((min_disagg, _))) = (coloc, disagg) {
            let (min_coloc, min_disagg) = (min_coloc as f64, min_disagg as f64);
            let thresh = BALANCE_THRESHOLD as f64;
            if prefer_disagg && min_disagg > OVERLOAD_FACTOR * min_coloc + thresh {
                prefer_disagg = false;
                self.counters.incr("je.heatmap_overridden");
            } else if !prefer_disagg && min_coloc > OVERLOAD_FACTOR * min_disagg + thresh {
                prefer_disagg = true;
                self.counters.incr("je.heatmap_overridden");
            }
        }
        let group = if prefer_disagg && disagg.is_some() {
            self.counters.incr("je.heatmap_disagg");
            Group::Pairs
        } else if !prefer_disagg && coloc.is_some() {
            self.counters.incr("je.heatmap_coloc");
            Group::Colocated
        } else if coloc.is_some() {
            Group::Colocated
        } else {
            Group::Pairs
        };
        (group, heat)
    }

    fn tree(&self, group: Group) -> &GlobalPromptTree {
        match group {
            Group::Colocated => &self.tree_colocated,
            Group::Pairs => &self.tree_prefill,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::Oracle;
    use flowserve::synthetic_tokens;

    fn req(id: u64, seed: u64, prefill: usize, output: u32) -> ApiRequest {
        ApiRequest::chat(
            id,
            synthetic_tokens(seed, prefill, 64_000),
            output,
            SimTime::ZERO,
        )
    }

    /// A JE over colocated TEs 0 and 1 plus the pair (2, 3), all idle.
    fn je(policy: Policy) -> JobExecutor {
        let mut j = JobExecutor::new(policy, Heatmap::default_production(), Box::new(Oracle), 16);
        j.register_pool(&[TeId(0), TeId(1)], &[(TeId(2), TeId(3))]);
        j
    }

    fn schedule(j: &mut JobExecutor, r: &ApiRequest) -> Decision {
        j.schedule(SimTime::ZERO, r)
            .unwrap_or_else(|| panic!("no routable TE for {:?}", r.id))
    }

    #[test]
    fn round_robin_cycles_all_slots() {
        let mut j = je(Policy::RoundRobin);
        let r = req(1, 1, 1024, 128);
        let t1 = schedule(&mut j, &r).target;
        let t2 = schedule(&mut j, &r).target;
        let t3 = schedule(&mut j, &r).target;
        let t4 = schedule(&mut j, &r).target;
        assert_eq!(t1, Target::Colocated(TeId(0)));
        assert_eq!(t2, Target::Colocated(TeId(1)));
        assert_eq!(
            t3,
            Target::Disaggregated {
                prefill: TeId(2),
                decode: TeId(3)
            }
        );
        assert_eq!(t4, t1, "wraps around");
    }

    #[test]
    fn pd_aware_sends_long_prefill_short_decode_to_disagg() {
        let mut j = je(Policy::PdAware);
        // Long prefill, tiny decode: heatmap strongly positive.
        let d = schedule(&mut j, &req(1, 1, 8192, 64));
        assert!(d.heat > 0.0);
        assert!(matches!(d.target, Target::Disaggregated { .. }));
        // Short prefill, long decode: colocated.
        let d2 = schedule(&mut j, &req(2, 2, 256, 512));
        assert!(d2.heat < 0.0);
        assert!(matches!(d2.target, Target::Colocated(_)));
    }

    #[test]
    fn pd_aware_falls_back_when_type_missing() {
        let mut j = je(Policy::PdAware);
        j.register_pool(&[TeId(0), TeId(1)], &[]); // no disaggregated TEs at all
        let d = schedule(&mut j, &req(1, 1, 8192, 64));
        assert!(matches!(d.target, Target::Colocated(_)));
    }

    #[test]
    fn locality_routes_repeat_prompts_to_same_te() {
        let mut j = je(Policy::Combined);
        // Pick a shape the heatmap sends to colocated TEs.
        let r = req(1, 5, 512, 400);
        let d1 = schedule(&mut j, &r);
        let te = match d1.target {
            Target::Colocated(te) => te,
            other => panic!("expected colocated, got {other:?}"),
        };
        // TE reports it cached the prompt.
        j.note_cached(SimTime::ZERO, te, false, &r.prompt);
        // Same prompt again: must go back to the same TE with a match.
        let r2 = req(2, 5, 512, 400);
        let d2 = schedule(&mut j, &r2);
        assert_eq!(d2.target, Target::Colocated(te));
        assert!(j.matched_tokens(&r2, d2.target) >= 512 - 16);
    }

    #[test]
    fn imbalance_overrides_locality() {
        let mut j = je(Policy::Combined);
        let r = req(1, 5, 512, 400);
        // TE 0 holds the cache but is massively loaded.
        j.note_cached(SimTime::ZERO, TeId(0), false, &r.prompt);
        j.set_load(TeId(0), 50);
        let d = schedule(&mut j, &req(2, 5, 512, 400));
        assert_eq!(
            d.target,
            Target::Colocated(TeId(1)),
            "load-aware must beat locality when imbalanced"
        );
    }

    #[test]
    fn balanced_load_prefers_locality() {
        let mut j = je(Policy::Combined);
        let r = req(1, 5, 512, 400);
        j.note_cached(SimTime::ZERO, TeId(1), false, &r.prompt);
        // Loads within threshold.
        j.set_load(TeId(0), 1);
        j.set_load(TeId(1), 3);
        let d = schedule(&mut j, &req(2, 5, 512, 400));
        assert_eq!(d.target, Target::Colocated(TeId(1)));
    }

    #[test]
    fn load_aware_picks_least_loaded() {
        let mut j = je(Policy::LoadAware);
        j.set_load(TeId(0), 9);
        j.set_load(TeId(1), 2);
        j.set_load(TeId(2), 9);
        j.set_load(TeId(3), 9);
        let d = schedule(&mut j, &req(1, 1, 1024, 64));
        assert_eq!(d.target, Target::Colocated(TeId(1)));
    }

    #[test]
    fn te_removal_clears_locality() {
        let mut j = je(Policy::LocalityAware);
        let r = req(1, 5, 512, 64);
        j.note_cached(SimTime::ZERO, TeId(0), false, &r.prompt);
        j.note_te_removed(TeId(0));
        let r2 = req(2, 5, 512, 64);
        let d = schedule(&mut j, &r2);
        assert_eq!(j.matched_tokens(&r2, d.target), 0);
        assert_eq!(j.matched_tokens(&r2, Target::Colocated(TeId(0))), 0);
    }

    #[test]
    fn overload_spills_to_the_other_type() {
        let mut j = je(Policy::PdAware);
        // The lone pair is drowning; colocated TEs are idle.
        j.set_load(TeId(2), 40);
        j.set_load(TeId(3), 40);
        // Shape prefers disaggregation, but the guard must override.
        let d = schedule(&mut j, &req(1, 1, 8192, 64));
        assert!(d.heat > 0.0);
        assert!(matches!(d.target, Target::Colocated(_)));
        assert_eq!(j.counters().get("je.heatmap_overridden"), 1);
    }

    #[test]
    fn removed_te_is_never_scheduled() {
        for policy in [
            Policy::RoundRobin,
            Policy::LoadAware,
            Policy::LocalityAware,
            Policy::PdAware,
            Policy::Combined,
        ] {
            let mut j = je(policy);
            // TE 0 and the pair's decode half are removed. Make removed
            // TEs look idle so load-based policies would otherwise pick
            // them.
            j.set_load(TeId(1), 50);
            j.note_cached(SimTime::ZERO, TeId(0), false, &req(9, 5, 512, 64).prompt);
            j.note_te_removed(TeId(0));
            j.note_te_removed(TeId(3));
            for i in 0..20 {
                let d = schedule(&mut j, &req(i, 5, 512, 64));
                match d.target {
                    Target::Colocated(te) => {
                        assert_ne!(te, TeId(0), "{policy:?} routed to removed TE")
                    }
                    Target::Disaggregated { prefill, decode } => panic!(
                        "{policy:?} routed to pair ({prefill:?}, {decode:?}) with removed decode"
                    ),
                }
            }
        }
    }

    #[test]
    fn readded_te_is_schedulable_again() {
        let mut j = je(Policy::LoadAware);
        j.set_load(TeId(1), 50);
        j.set_load(TeId(2), 50);
        j.set_load(TeId(3), 50);
        j.note_te_removed(TeId(0));
        assert!(j.is_removed(TeId(0)));
        let d = schedule(&mut j, &req(1, 1, 512, 64));
        assert_ne!(d.target, Target::Colocated(TeId(0)));
        j.note_te_added(TeId(0));
        assert!(!j.is_removed(TeId(0)));
        let d2 = schedule(&mut j, &req(2, 1, 512, 64));
        assert_eq!(
            d2.target,
            Target::Colocated(TeId(0)),
            "idle again after re-add"
        );
    }

    #[test]
    fn shared_decode_load_moves_every_pair_it_backs() {
        // 2P1D: prefills 0 and 1 share decode 2.
        let mut j = JobExecutor::new(
            Policy::LoadAware,
            Heatmap::default_production(),
            Box::new(Oracle),
            16,
        );
        j.register_pool(&[], &[(TeId(0), TeId(2)), (TeId(1), TeId(2))]);
        j.set_load(TeId(0), 3);
        j.set_load(TeId(2), 7);
        let pairs: Vec<_> = j.routable_pairs().collect();
        assert_eq!(pairs, [(TeId(0), TeId(2), 7), (TeId(1), TeId(2), 7)]);
        j.set_load(TeId(2), 1);
        let pairs: Vec<_> = j.routable_pairs().collect();
        assert_eq!(pairs, [(TeId(1), TeId(2), 1), (TeId(0), TeId(2), 3)]);
        j.note_te_removed(TeId(2));
        assert_eq!(j.routable_pairs().count(), 0);
        assert!(j.schedule(SimTime::ZERO, &req(1, 1, 512, 64)).is_none());
    }

    #[test]
    fn all_tes_removed_schedules_nothing_like_empty_pool() {
        let mut j = je(Policy::Combined);
        for t in [0, 1, 2, 3] {
            j.note_te_removed(TeId(t));
        }
        assert_eq!(j.schedule(SimTime::ZERO, &req(1, 1, 100, 10)), None);
    }

    #[test]
    fn empty_pool_schedules_nothing() {
        let mut j = JobExecutor::new(
            Policy::Combined,
            Heatmap::default_production(),
            Box::new(Oracle),
            16,
        );
        assert_eq!(j.schedule(SimTime::ZERO, &req(1, 1, 100, 10)), None);
    }
}
