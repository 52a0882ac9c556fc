//! The JE's global prompt trees (§5.2).
//!
//! "The distributed scheduler in JE maintains a global prompt tree for each
//! type of TE, while each TE also maintains a local prompt tree that shares
//! an index with its corresponding global tree."
//!
//! The shared index is the chained block hash the TE-local RTC radix tree
//! uses ([`flowserve::rtc::chain_hash`]), so a prefix cached on a TE and a
//! prompt arriving at the JE agree on identity without shipping tokens
//! around. The global tree stores, per prefix level, which TEs hold it and
//! when each last refreshed it. A locality decision walks the prompt's
//! levels once ([`GlobalPromptTree::walk`]) and reads from that walk the
//! TE with the longest common prefix (`select_tes_prefix_match`,
//! [`Walk::best`]). A load-path decision does not walk. A chosen TE's
//! match length ([`Walk::depth`]) is read only for the `je.schedule`
//! trace event and by tests.
//!
//! Both reads rest on one invariant: every TE's levels are
//! *ancestor-closed*. A TE holding a level also holds every shallower
//! level on that level's path, refreshed no earlier. `insert` touches every
//! ancestor of a level at the same `now`, and the JE inserts in
//! non-decreasing sim time (debug builds assert it), so no level is ever
//! younger than a level below it. `prune` drops every level aged at or
//! below a cutoff, so it never keeps a level whose parent it drops;
//! `remove_te` drops a TE from every level at once. So a TE's match length
//! is the depth of the deepest matched level that lists it.

use flowserve::rtc::chain_hash;
use flowserve::TokenId;
use simcore::SimTime;
use std::collections::BTreeMap;

/// A TE identity (platform-level).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize)]
pub struct TeId(pub u32);

/// A TE holding a prefix level, and when it last refreshed the level.
/// Packed to 12 bytes: at 256 TEs a level can list most of the group, and
/// the aligned pair would pad to 16.
#[derive(Debug, Clone, Copy)]
#[repr(C, packed(4))]
struct Holder {
    te: TeId,
    at: SimTime,
}

/// One prefix level's holders in ascending `TeId` order. Most levels have
/// one holder; a shared context has up to one per TE of the group.
type Holders = Vec<Holder>;

/// The global prompt tree for one TE group.
#[derive(Debug)]
pub struct GlobalPromptTree {
    block_size: usize,
    /// Prefix chain hash -> that level's holders. A hash index measured
    /// faster but raised codegen-pd's peak RSS past its bound (DESIGN.md
    /// §"JE global prompt tree").
    levels: BTreeMap<u64, Holders>,
    /// Soft capacity; pruning keeps roughly this many entries.
    capacity: usize,
}

/// One prompt's path down a [`GlobalPromptTree`]: the holder lists of its
/// matched levels, root-most first, up to the first level no TE holds.
#[derive(Debug)]
pub struct Walk<'a> {
    block_size: usize,
    levels: Vec<&'a [Holder]>,
}

impl Walk<'_> {
    /// `select_tes_prefix_match` over the TEs `pick` accepts: the deepest
    /// level with an accepted holder, the lowest accepted `TeId` there (as
    /// `pick` maps it), and that level's depth in tokens. By ancestor
    /// closure that is the accepted TE with the longest match, ties to the
    /// lowest id. `None` when no matched level has an accepted holder.
    pub fn best<T>(&self, mut pick: impl FnMut(TeId) -> Option<T>) -> Option<(T, usize)> {
        self.levels
            .iter()
            .enumerate()
            .rev()
            .find_map(|(i, holders)| {
                let t = holders.iter().find_map(|h| pick(h.te))?;
                Some((t, (i + 1) * self.block_size))
            })
    }

    /// `te`'s longest matched prefix in tokens: how many leading levels
    /// hold it, times the block size (0 when it holds none).
    pub fn depth(&self, te: TeId) -> usize {
        let held = self
            .levels
            .iter()
            .take_while(|h| h.binary_search_by_key(&te, |h| h.te).is_ok())
            .count();
        held * self.block_size
    }
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
    /// (called when a TE reports a finished prefill insertion). Calls must
    /// come in non-decreasing `now`: ancestor closure rests on it.
    pub fn insert(&mut self, now: SimTime, te: TeId, tokens: &[TokenId]) {
        let mut hash = 0u64;
        for block in tokens.chunks_exact(self.block_size) {
            hash = chain_hash(hash, block);
            let holders = self
                .levels
                .entry(hash)
                .or_insert_with(|| Vec::with_capacity(1));
            match holders.binary_search_by_key(&te, |h| h.te) {
                Ok(i) => {
                    debug_assert!(
                        { holders[i].at } <= now,
                        "prompt tree refreshed back in time"
                    );
                    holders[i].at = now;
                }
                Err(i) => holders.insert(i, Holder { te, at: now }),
            }
        }
        if self.levels.len() > self.capacity {
            self.prune();
        }
    }

    /// Walks `tokens`' full-block prefixes down the tree, stopping at the
    /// first level no TE holds.
    pub fn walk(&self, tokens: &[TokenId]) -> Walk<'_> {
        let mut levels = Vec::new();
        let mut hash = 0u64;
        for block in tokens.chunks_exact(self.block_size) {
            hash = chain_hash(hash, block);
            let Some(holders) = self.levels.get(&hash) else {
                break;
            };
            levels.push(holders.as_slice());
        }
        Walk {
            block_size: self.block_size,
            levels,
        }
    }

    /// Forgets everything a TE held (scale-down, crash, cache reset).
    pub fn remove_te(&mut self, te: TeId) {
        self.levels.retain(|_, holders| {
            holders.retain(|h| h.te != te);
            !holders.is_empty()
        });
    }

    /// Entry count (prefix levels tracked).
    pub fn len(&self) -> usize {
        self.levels.len()
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.levels.is_empty()
    }

    /// Drops the stalest half of the entries (called on overflow): every
    /// level whose newest refresh is at or below the median level's. An
    /// approximation of the TEs' own LRU behaviour; the global tree is a
    /// hint structure and may safely under-report.
    fn prune(&mut self) {
        let age = |h: &Holders| h.iter().map(|h| h.at).max().unwrap_or(SimTime::ZERO);
        let mut ages: Vec<SimTime> = self.levels.values().map(age).collect();
        let mid = ages.len() / 2;
        let cutoff = *ages.select_nth_unstable(mid).1;
        self.levels.retain(|_, h| age(h) > cutoff);
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

    /// The TE with the longest match for `tokens` and its length.
    fn best_te(t: &GlobalPromptTree, tokens: &[TokenId]) -> Option<(TeId, usize)> {
        t.walk(tokens).best(Some)
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
        let (best, len) = best_te(&t, &prompt).unwrap();
        assert_eq!(best, TeId(1));
        assert_eq!(len, 128);
        assert_eq!(t.walk(&prompt).depth(TeId(0)), 64);
    }

    #[test]
    fn best_skips_holders_pick_rejects() {
        let mut t = GlobalPromptTree::new(B, 10_000);
        let shared = toks(1, 64);
        let mut long = shared.clone();
        long.extend(toks(2, 64));
        t.insert(SimTime::ZERO, TeId(2), &shared);
        t.insert(SimTime::ZERO, TeId(0), &shared);
        t.insert(SimTime::ZERO, TeId(1), &long);
        let walk = t.walk(&long);
        // TE 1 matches deepest but is rejected: the next level up wins,
        // at its lowest accepted id.
        let pick = |te: TeId| (te != TeId(1)).then_some(te);
        assert_eq!(walk.best(pick), Some((TeId(0), 64)));
        let pick = |te: TeId| (te == TeId(2)).then_some(te);
        assert_eq!(walk.best(pick), Some((TeId(2), 64)));
        assert_eq!(walk.best(|_| None::<TeId>), None);
    }

    #[test]
    fn no_match_for_unseen_prompt() {
        let mut t = GlobalPromptTree::new(B, 10_000);
        t.insert(SimTime::ZERO, TeId(0), &toks(1, 64));
        assert!(best_te(&t, &toks(99, 64)).is_none());
        assert_eq!(t.walk(&toks(99, 64)).depth(TeId(0)), 0);
    }

    #[test]
    fn ties_break_to_lowest_te() {
        let mut t = GlobalPromptTree::new(B, 10_000);
        let p = toks(1, 64);
        t.insert(SimTime::ZERO, TeId(3), &p);
        t.insert(SimTime::ZERO, TeId(1), &p);
        assert_eq!(best_te(&t, &p).unwrap().0, TeId(1));
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
        let global_match = best_te(&t, &prompt).unwrap().1;
        assert_eq!(engine_match, global_match);
    }

    #[test]
    fn remove_te_forgets_everything() {
        let mut t = GlobalPromptTree::new(B, 10_000);
        t.insert(SimTime::ZERO, TeId(0), &toks(1, 64));
        t.insert(SimTime::ZERO, TeId(1), &toks(1, 32));
        t.remove_te(TeId(0));
        let walk = t.walk(&toks(1, 64));
        assert_eq!(walk.depth(TeId(0)), 0);
        assert_eq!(walk.depth(TeId(1)), 32);
        assert_eq!(t.len(), 2, "levels only TE 0 held are gone");
    }

    #[test]
    fn pruning_bounds_memory() {
        let mut t = GlobalPromptTree::new(B, 64);
        for i in 0..100u64 {
            t.insert(SimTime::from_secs(i), TeId(0), &toks(i, 64));
        }
        assert!(t.len() <= 64 * 2, "tree must stay bounded: {}", t.len());
        // Recent inserts survive pruning.
        assert!(best_te(&t, &toks(99, 64)).is_some());
    }

    #[test]
    fn holder_is_12_bytes() {
        assert_eq!(std::mem::size_of::<Holder>(), 12);
    }

    #[test]
    fn contiguity_is_required() {
        let mut t = GlobalPromptTree::new(B, 10_000);
        let p = toks(1, 64);
        t.insert(SimTime::ZERO, TeId(0), &p[..32]);
        assert_eq!(
            t.walk(&p).depth(TeId(0)),
            32,
            "match stops at what TE 0 holds"
        );
    }
}
