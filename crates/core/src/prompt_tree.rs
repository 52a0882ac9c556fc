//! The JE's global prompt trees (§5.2).
//!
//! "The distributed scheduler in JE maintains a global prompt tree for each
//! type of TE, while each TE also maintains a local prompt tree that shares
//! an index with its corresponding global tree."
//!
//! The shared index is the chained block hash the TE-local RTC radix tree
//! uses ([`flowserve::rtc::chain_hash`]), so a prefix cached on a TE and a
//! prompt arriving at the JE agree on identity without shipping tokens
//! around. The global tree stores,
//! per prefix level, which TEs hold it and when it was last refreshed —
//! enough to answer "which TE has the longest common prefix for this
//! request" (`select_tes_prefix_match`).

use flowserve::rtc::chain_hash;
use flowserve::TokenId;
use simcore::SimTime;
use std::collections::BTreeMap;

/// A TE identity (platform-level).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize)]
pub struct TeId(pub u32);

/// The global prompt tree for one TE group.
#[derive(Debug)]
pub struct GlobalPromptTree {
    block_size: usize,
    /// prefix chain hash -> (TE -> last refresh time). Both layers are
    /// `BTreeMap`s: match/prune/remove all iterate, and the results feed
    /// scheduling decisions — order must be the keys', not a hasher's.
    levels: BTreeMap<u64, BTreeMap<TeId, SimTime>>,
    /// Soft capacity; pruning keeps roughly this many entries.
    capacity: usize,
}

impl GlobalPromptTree {
    /// Creates a tree for prefixes quantized to `block_size` tokens.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is zero.
    pub fn new(block_size: usize, capacity: usize) -> Self {
        assert!(block_size > 0, "block_size must be positive");
        GlobalPromptTree {
            block_size,
            levels: BTreeMap::new(),
            capacity: capacity.max(16),
        }
    }

    /// Records that `te` now caches the full-block prefixes of `tokens`
    /// (called when a TE reports a finished prefill insertion).
    pub fn insert(&mut self, now: SimTime, te: TeId, tokens: &[TokenId]) {
        let mut hash = 0u64;
        for block in tokens.chunks_exact(self.block_size) {
            hash = chain_hash(hash, block);
            self.levels.entry(hash).or_default().insert(te, now);
        }
        if self.levels.len() > self.capacity {
            self.prune(now);
        }
    }

    /// Longest matched prefix per TE, in tokens. TEs with no match are
    /// absent.
    pub fn match_tokens(&self, tokens: &[TokenId]) -> BTreeMap<TeId, usize> {
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
    /// length; ties broken by lowest TE id (deterministic).
    pub fn best_te(&self, tokens: &[TokenId]) -> Option<(TeId, usize)> {
        self.match_tokens(tokens)
            .into_iter()
            .max_by(|a, b| a.1.cmp(&b.1).then_with(|| b.0.cmp(&a.0)))
    }

    /// Forgets everything a TE held (scale-down, crash, cache reset).
    pub fn remove_te(&mut self, te: TeId) {
        for holders in self.levels.values_mut() {
            holders.remove(&te);
        }
        self.levels.retain(|_, h| !h.is_empty());
    }

    /// Entry count (prefix levels tracked).
    pub fn len(&self) -> usize {
        self.levels.len()
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.levels.is_empty()
    }

    /// Drops the stalest half of the entries (called on overflow). An
    /// approximation of the TEs' own LRU behaviour; the global tree is a
    /// hint structure and may safely under-report.
    fn prune(&mut self, _now: SimTime) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use flowserve::synthetic_tokens;

    const B: usize = 16;

    fn toks(seed: u64, n: usize) -> Vec<TokenId> {
        synthetic_tokens(seed, n, 64_000)
    }

    #[test]
    fn routes_to_te_with_longest_prefix() {
        let mut t = GlobalPromptTree::new(B, 10_000);
        let shared = toks(1, 64);
        let mut long = shared.clone();
        long.extend(toks(2, 64));
        t.insert(SimTime::ZERO, TeId(0), &shared);
        t.insert(SimTime::ZERO, TeId(1), &long);
        // A prompt extending `long` matches TE 1 deepest.
        let mut prompt = long.clone();
        prompt.extend(toks(3, 32));
        let (best, len) = t.best_te(&prompt).unwrap();
        assert_eq!(best, TeId(1));
        assert_eq!(len, 128);
        let m = t.match_tokens(&prompt);
        assert_eq!(m[&TeId(0)], 64);
    }

    #[test]
    fn no_match_for_unseen_prompt() {
        let mut t = GlobalPromptTree::new(B, 10_000);
        t.insert(SimTime::ZERO, TeId(0), &toks(1, 64));
        assert!(t.best_te(&toks(99, 64)).is_none());
    }

    #[test]
    fn ties_break_to_lowest_te() {
        let mut t = GlobalPromptTree::new(B, 10_000);
        let p = toks(1, 64);
        t.insert(SimTime::ZERO, TeId(3), &p);
        t.insert(SimTime::ZERO, TeId(1), &p);
        assert_eq!(t.best_te(&p).unwrap().0, TeId(1));
    }

    #[test]
    fn shares_index_with_engine_rtc() {
        // A prefix cached through a real engine and the same prompt matched
        // through the global tree must agree on match length — the "shared
        // index" property.
        use flowserve::rtc::{Rtc, RtcConfig};
        let mut rtc = Rtc::new(RtcConfig {
            block_size: B,
            npu_blocks: 64,
            dram_blocks: 0,
        });
        let prompt = toks(7, 70); // 4 full blocks + tail
        let blocks = rtc.alloc_blocks(5).unwrap();
        rtc.insert_prefix(SimTime::ZERO, &prompt, &blocks);
        let engine_match = rtc.match_by_prefix_token(&prompt).tokens;

        let mut t = GlobalPromptTree::new(B, 10_000);
        t.insert(SimTime::ZERO, TeId(0), &prompt);
        let global_match = t.best_te(&prompt).unwrap().1;
        assert_eq!(engine_match, global_match);
    }

    #[test]
    fn remove_te_forgets_everything() {
        let mut t = GlobalPromptTree::new(B, 10_000);
        t.insert(SimTime::ZERO, TeId(0), &toks(1, 64));
        t.insert(SimTime::ZERO, TeId(1), &toks(1, 32));
        t.remove_te(TeId(0));
        let m = t.match_tokens(&toks(1, 64));
        assert_eq!(m.get(&TeId(0)), None);
        assert_eq!(m[&TeId(1)], 32);
    }

    #[test]
    fn pruning_bounds_memory() {
        let mut t = GlobalPromptTree::new(B, 64);
        for i in 0..100u64 {
            t.insert(SimTime::from_secs(i), TeId(0), &toks(i, 64));
        }
        assert!(t.len() <= 64 * 2, "tree must stay bounded: {}", t.len());
        // Recent inserts survive pruning.
        assert!(t.best_te(&toks(99, 64)).is_some());
    }

    #[test]
    fn contiguity_is_required() {
        let mut t = GlobalPromptTree::new(B, 10_000);
        let p = toks(1, 64);
        // TE 0 holds only the deep prefix entry (simulate a partial
        // insert): insert full, then fake-remove the first level by
        // removing the TE and re-inserting only deeper content is not
        // directly expressible; instead check that a TE holding an
        // unrelated deep block does not get credit.
        t.insert(SimTime::ZERO, TeId(0), &p[..32]);
        let m = t.match_tokens(&p);
        assert_eq!(m[&TeId(0)], 32, "match stops at what TE 0 holds");
    }
}
