//! Block-granular radix tree over token streams.
//!
//! RTC "employs a hybrid indexing layer that combines radix-tree indexing
//! with ID-based indexing. each index node can point to data stored
//! either in the NPU or in local DRAM" (§4.3). This is the radix half.
//!
//! The tree is quantized to KV blocks: each node covers exactly one full
//! block of tokens, children are identified by the *chained content hash*
//! of the next block, and only complete blocks are cached (partial tails
//! are per-request private state). A chained 64-bit hash identifies each
//! prefix, so walking a query is one hash + one child lookup per block —
//! the same trick vLLM's hash-based prefix cache uses, arranged as an
//! explicit tree so subtree operations (eviction, sharing, the JE's global
//! prompt tree) stay natural. Collisions are 2^-64-scale and ignored by
//! design. The hash ([`chain_hash`]) mixes a block in four independent
//! lanes so its multiplies overlap; nothing orders by its value, so its
//! construction cannot change a decision.
//!
//! Nodes live in an arena and link to their children through a
//! first-child/next-sibling list, so a cached block costs one 48-byte slot
//! and no heap allocation of its own. A prompt chain has one child per
//! node, so a lookup usually compares one hash; only distinct first blocks
//! (the roots) are kept in a map.
//!
//! Eviction candidates are kept as an index rather than searched for:
//! each tier's *frontier* (unpinned nodes with no child in their own
//! tier) lives in a `BTreeSet` ordered by `(last_access, NodeId)`, updated
//! by every mutation, so the LRU victim is the set's head.

use crate::block::BlockId;
use crate::tokenizer::TokenId;
use simcore::SimTime;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound;

/// Node handle within one tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Which tier a node's block currently lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Location {
    /// Resident in executor HBM — usable by the next batch directly.
    Npu,
    /// Swapped to host DRAM — needs a populate before use.
    Dram,
}

/// Chained hash of a block-quantized prefix: `prev` is the hash of the
/// prefix before `block_tokens` (0 for the first block). The platform's
/// global prompt trees key on it too, so a TE's cache and the JE agree on
/// prefix identity (the "shared index" of §5.2).
///
/// Four independent lanes, so the multiplies of one block overlap instead
/// of forming one dependent chain per token. Lane `i` takes token pair `i`
/// of each 8-token group as one word; a tail shorter than 8 tokens is
/// padded with `u32::MAX` and goes to the lanes by position. The lanes
/// fold through one 128-bit multiply with the block length, so a padded
/// tail and the same tokens spelled out with `u32::MAX` differ.
pub fn chain_hash(prev: u64, block_tokens: &[TokenId]) -> u64 {
    let mut lanes = [
        prev ^ 0x517c_c1b7_2722_0a95,
        0x2d35_8dcc_aa6c_78a5,
        0x8bb8_4b93_962e_acc9,
        0x4b33_a62e_d433_d4a3,
    ];
    let mut groups = block_tokens.chunks_exact(8);
    for g in &mut groups {
        absorb(&mut lanes, g);
    }
    let tail = groups.remainder();
    if !tail.is_empty() {
        let mut padded = [TokenId(u32::MAX); 8];
        padded[..tail.len()].copy_from_slice(tail);
        absorb(&mut lanes, &padded);
    }
    let [l0, l1, l2, l3] = lanes;
    let a = l0 ^ l2 ^ 0x94d0_49bb_1331_11eb;
    let b = l1 ^ l3 ^ block_tokens.len() as u64;
    let product = u128::from(a) * u128::from(b);
    product as u64 ^ (product >> 64) as u64
}

/// Feeds one 8-token group to [`chain_hash`]'s lanes.
#[inline(always)]
fn absorb(lanes: &mut [u64; 4], g: &[TokenId]) {
    let mix = |lane: u64, lo: TokenId, hi: TokenId| {
        (lane ^ (u64::from(lo.0) | u64::from(hi.0) << 32))
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(29)
    };
    lanes[0] = mix(lanes[0], g[0], g[1]);
    lanes[1] = mix(lanes[1], g[2], g[3]);
    lanes[2] = mix(lanes[2], g[4], g[5]);
    lanes[3] = mix(lanes[3], g[6], g[7]);
}

/// The absent link in `Node`'s `u32` node references.
const NONE: u32 = u32::MAX;

/// A `Node` link as a handle.
fn link(raw: u32) -> Option<NodeId> {
    (raw != NONE).then_some(NodeId(raw))
}

#[derive(Debug)]
struct Node {
    /// Chained hash of the prefix ending at this node: its key among its
    /// siblings (or the roots).
    hash: u64,
    last_access: SimTime,
    block: BlockId,
    /// Parent slot, or `NONE` for a root.
    parent: u32,
    /// Head of the child list (`NONE` for a leaf). Newest child first;
    /// nothing depends on sibling order.
    first_child: u32,
    /// The next child of `parent`, or `NONE`.
    next_sibling: u32,
    /// Length of the child list.
    kids: u32,
    /// How many of the children live in HBM; the rest live in DRAM.
    npu_kids: u32,
    /// In-flight requests currently pinning this node.
    locks: u32,
    location: Location,
}

impl Node {
    /// Whether the node is an eviction candidate of its own tier: unpinned,
    /// with no child in that tier.
    fn on_frontier(&self) -> bool {
        self.locks == 0
            && match self.location {
                Location::Npu => self.npu_kids == 0,
                Location::Dram => self.npu_kids == self.kids,
            }
    }
}

/// Result of a prefix walk.
#[derive(Debug, Clone, Default)]
pub struct PrefixMatch {
    /// Matched nodes, root-most first. The usable cached prefix.
    pub nodes: Vec<NodeId>,
    /// Tokens covered by `nodes`.
    pub tokens: usize,
    /// How many of the leading nodes are NPU-resident (the rest need a
    /// populate). NPU-residency is only useful as a *prefix*: a DRAM node
    /// in the middle blocks direct use of everything after it.
    pub npu_prefix_nodes: usize,
}

impl PrefixMatch {
    /// Tokens directly usable from HBM without any transfer.
    pub fn npu_tokens(&self, block_size: usize) -> usize {
        self.npu_prefix_nodes * block_size
    }

    /// Nodes that would need a DRAM -> NPU populate to be usable.
    pub fn dram_nodes(&self) -> &[NodeId] {
        &self.nodes[self.npu_prefix_nodes..]
    }
}

/// The prefix index.
#[derive(Debug)]
pub struct RadixTree {
    block_size: usize,
    nodes: Vec<Option<Node>>,
    free_slots: Vec<u32>,
    roots: BTreeMap<u64, NodeId>,
    node_count: usize,
    /// Per tier (indexed by `Location as usize`), the frontier nodes keyed
    /// `(last_access, id)`: victim order is the set's order.
    frontier: [BTreeSet<(SimTime, NodeId)>; 2],
}

impl RadixTree {
    /// Creates an empty tree for blocks of `block_size` tokens.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is zero.
    pub fn new(block_size: usize) -> Self {
        assert!(block_size > 0, "block_size must be positive");
        RadixTree {
            block_size,
            nodes: Vec::new(),
            free_slots: Vec::new(),
            roots: BTreeMap::new(),
            node_count: 0,
            frontier: [BTreeSet::new(), BTreeSet::new()],
        }
    }

    /// Tokens per block.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Live node count.
    pub fn len(&self) -> usize {
        self.node_count
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.node_count == 0
    }

    #[expect(
        clippy::expect_used,
        reason = "arena invariant: NodeIds only flow through the child/sibling links, the roots \
                  map and the frontier index, all pruned in the same operation that vacates a \
                  slot; a stale id is a tree-corruption bug worth failing loudly on"
    )]
    fn node(&self, id: NodeId) -> &Node {
        self.nodes[id.0 as usize]
            .as_ref()
            .expect("stale NodeId: node was removed")
    }

    #[expect(clippy::expect_used, reason = "arena invariant: see `node` above")]
    fn node_mut(&mut self, id: NodeId) -> &mut Node {
        self.nodes[id.0 as usize]
            .as_mut()
            .expect("stale NodeId: node was removed")
    }

    /// The children of `id`, newest first.
    fn children(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        std::iter::successors(link(self.node(id).first_child), |&c| {
            link(self.node(c).next_sibling)
        })
    }

    /// The child of `parent` (a root when `None`) keyed `hash`: a walk of
    /// the sibling list, which for a prompt chain is one node long.
    fn child(&self, parent: Option<NodeId>, hash: u64) -> Option<NodeId> {
        match parent {
            Some(p) => self.children(p).find(|&c| self.node(c).hash == hash),
            None => self.roots.get(&hash).copied(),
        }
    }

    /// The node's frontier-index entry, if it is on its tier's frontier.
    fn frontier_key(&self, id: NodeId) -> Option<(Location, (SimTime, NodeId))> {
        let n = self.node(id);
        n.on_frontier().then_some((n.location, (n.last_access, id)))
    }

    /// Takes `id` out of the frontier index. Call before changing anything
    /// its entry depends on; [`RadixTree::enter`] re-adds it afterwards.
    fn leave(&mut self, id: NodeId) {
        if let Some((tier, key)) = self.frontier_key(id) {
            let removed = self.frontier[tier as usize].remove(&key);
            debug_assert!(removed, "frontier index lost {id:?}");
        }
    }

    /// Re-adds `id` to the frontier index if it is on its tier's frontier.
    fn enter(&mut self, id: NodeId) {
        if let Some((tier, key)) = self.frontier_key(id) {
            self.frontier[tier as usize].insert(key);
        }
    }

    /// Applies `f` to node `id`, keeping its frontier entry in step.
    fn modify(&mut self, id: NodeId, f: impl FnOnce(&mut Node)) {
        self.leave(id);
        f(self.node_mut(id));
        self.enter(id);
    }

    /// Walks the longest cached prefix of `tokens` (full blocks only).
    pub fn match_prefix(&self, tokens: &[TokenId]) -> PrefixMatch {
        let mut result = PrefixMatch::default();
        let mut hash = 0u64;
        let mut parent = None;
        let mut npu_streak = true;
        for block in tokens.chunks_exact(self.block_size) {
            hash = chain_hash(hash, block);
            let Some(id) = self.child(parent, hash) else {
                break;
            };
            result.nodes.push(id);
            result.tokens += self.block_size;
            if npu_streak && self.node(id).location == Location::Npu {
                result.npu_prefix_nodes += 1;
            } else {
                npu_streak = false;
            }
            parent = Some(id);
        }
        result
    }

    /// Inserts the full blocks of `tokens`, attaching `blocks[i]` to block
    /// `i`. Blocks already present are left untouched (their existing
    /// node is returned and `blocks[i]` is redundant).
    ///
    /// Returns `(chain, reused)`: the node chain covering the prefix, and
    /// how many of its leading nodes were already cached. A node this call
    /// creates has no children, so the cached nodes always form a leading
    /// run, and the caller's redundant blocks are `blocks[..reused]`.
    ///
    /// # Panics
    ///
    /// Panics if fewer blocks are supplied than full token blocks.
    pub fn insert(
        &mut self,
        now: SimTime,
        tokens: &[TokenId],
        blocks: &[BlockId],
    ) -> (Vec<NodeId>, usize) {
        let full_blocks = tokens.len() / self.block_size;
        assert!(
            blocks.len() >= full_blocks,
            "insert: need {full_blocks} blocks, got {}",
            blocks.len()
        );
        let mut chain = Vec::with_capacity(full_blocks);
        let mut reused = 0;
        let mut hash = 0u64;
        let mut parent: Option<NodeId> = None;
        // The last node this call created. New nodes stay out of the
        // frontier index until the chain ends: all but the last get a child
        // in the next step.
        let mut new_tail: Option<NodeId> = None;
        for (i, block_tokens) in tokens.chunks_exact(self.block_size).enumerate() {
            hash = chain_hash(hash, block_tokens);
            // A node this call created has no children to find.
            let existing = if new_tail.is_none() {
                self.child(parent, hash)
            } else {
                None
            };
            let id = match existing {
                Some(id) => {
                    self.modify(id, |n| n.last_access = now);
                    reused += 1;
                    id
                }
                None => {
                    let next_sibling = parent.map_or(NONE, |p| self.node(p).first_child);
                    let id = self.alloc_node(Node {
                        hash,
                        last_access: now,
                        block: blocks[i],
                        parent: parent.map_or(NONE, |p| p.0),
                        first_child: NONE,
                        next_sibling,
                        kids: 0,
                        npu_kids: 0,
                        locks: 0,
                        location: Location::Npu,
                    });
                    let adopt = |n: &mut Node| {
                        n.first_child = id.0;
                        n.kids += 1;
                        n.npu_kids += 1;
                    };
                    match parent {
                        Some(p) if new_tail == Some(p) => adopt(self.node_mut(p)),
                        Some(p) => self.modify(p, adopt),
                        None => {
                            self.roots.insert(hash, id);
                        }
                    }
                    new_tail = Some(id);
                    id
                }
            };
            chain.push(id);
            parent = Some(id);
        }
        if let Some(leaf) = new_tail {
            self.enter(leaf);
        }
        (chain, reused)
    }

    fn alloc_node(&mut self, n: Node) -> NodeId {
        self.node_count += 1;
        match self.free_slots.pop() {
            Some(slot) => {
                self.nodes[slot as usize] = Some(n);
                NodeId(slot)
            }
            None => {
                self.nodes.push(Some(n));
                NodeId(self.nodes.len() as u32 - 1)
            }
        }
    }

    /// Pins nodes against eviction (an in-flight request uses them).
    pub fn lock(&mut self, nodes: &[NodeId]) {
        for &id in nodes {
            self.modify(id, |n| n.locks += 1);
        }
    }

    /// Releases pins taken by [`RadixTree::lock`].
    ///
    /// # Panics
    ///
    /// Panics if a node was not locked.
    pub fn unlock(&mut self, nodes: &[NodeId]) {
        for &id in nodes {
            self.modify(id, |n| {
                assert!(n.locks > 0, "unlock of unlocked node {id:?}");
                n.locks -= 1;
            });
        }
    }

    /// Updates access time (hit bookkeeping).
    pub fn touch(&mut self, now: SimTime, nodes: &[NodeId]) {
        for &id in nodes {
            self.modify(id, |n| n.last_access = now);
        }
    }

    /// The block a node points at and its tier.
    pub fn block_of(&self, id: NodeId) -> (BlockId, Location) {
        let n = self.node(id);
        (n.block, n.location)
    }

    /// Rebinds a node to a new block in a new tier (after swap/populate).
    pub fn relocate(&mut self, id: NodeId, block: BlockId, location: Location) {
        let (was, parent) = {
            let n = self.node(id);
            (n.location, link(n.parent))
        };
        self.modify(id, |n| {
            n.block = block;
            n.location = location;
        });
        if was != location {
            if let Some(p) = parent {
                self.modify(p, |n| match location {
                    Location::Npu => n.npu_kids += 1,
                    Location::Dram => n.npu_kids -= 1,
                });
            }
        }
    }

    /// Whether `tier` has an eviction candidate. O(1).
    pub fn has_evictable(&self, tier: Location) -> bool {
        !self.frontier[tier as usize].is_empty()
    }

    /// The next eviction candidate of `tier` in victim order: the head when
    /// `after` is `None`, else the candidate following `after` (which must
    /// still be one), so a caller can skip a victim it could not evict.
    ///
    /// Candidates are the unpinned *frontier* nodes of the tier: nodes that
    /// live in the tier while none of their children do, least recently
    /// used first (ties by `NodeId`). Evicting deepest-first keeps residency
    /// in each tier a contiguous prefix of every cached chain (NPU above
    /// DRAM), which is what makes populate a pure "extend the usable
    /// prefix" operation. O(log n).
    pub fn next_evictable(&self, tier: Location, after: Option<NodeId>) -> Option<NodeId> {
        let set = &self.frontier[tier as usize];
        let next = match after {
            None => set.first(),
            Some(a) => {
                let key = (self.node(a).last_access, a);
                set.range((Bound::Excluded(key), Bound::Unbounded)).next()
            }
        };
        next.map(|&(_, id)| id)
    }

    /// Drift guard: whether each tier's index holds exactly the nodes the
    /// frontier definition admits, each under its current key (a
    /// `BTreeSet` orders them, so victim order follows). Visits every
    /// node, so only debug assertions and tests call it.
    pub(crate) fn frontier_in_step(&self) -> bool {
        let mut admitted = [0usize; 2];
        let members_match = self.nodes.iter().enumerate().all(|(i, slot)| {
            let Some(n) = slot else {
                return true;
            };
            let id = NodeId(i as u32);
            let tier = n.location as usize;
            let on = n.locks == 0
                && self
                    .children(id)
                    .all(|c| self.node(c).location != n.location);
            admitted[tier] += usize::from(on);
            on == self.frontier[tier].contains(&(n.last_access, id))
        });
        members_match
            && admitted
                .iter()
                .zip(&self.frontier)
                .all(|(&count, set)| count == set.len())
    }

    /// Removes `id` and its entire subtree, returning every freed
    /// `(block, tier)` pair — used when a frontier node must be dropped
    /// outright (no DRAM room): its descendants become unreachable for
    /// matching, so their storage must be released too. Returns `None`
    /// without modifying anything if any node in the subtree is locked.
    pub fn try_remove_subtree(&mut self, id: NodeId) -> Option<Vec<(BlockId, Location)>> {
        // Collect the subtree, checking locks.
        let mut stack = vec![id];
        let mut subtree = Vec::new();
        while let Some(n) = stack.pop() {
            if self.node(n).locks > 0 {
                return None;
            }
            subtree.push(n);
            // Each node's children are pushed in `NodeId` order: the
            // traversal (and thus block-release) order is the ids', not the
            // sibling list's.
            let mut kids: Vec<NodeId> = self.children(n).collect();
            kids.sort_unstable();
            stack.extend(kids);
        }
        self.detach(id);
        // Release every node.
        let mut freed = Vec::with_capacity(subtree.len());
        for n in subtree {
            self.leave(n);
            let Some(node) = self.nodes[n.0 as usize].take() else {
                debug_assert!(false, "subtree nodes must be live");
                continue;
            };
            freed.push((node.block, node.location));
            self.free_slots.push(n.0);
            self.node_count -= 1;
        }
        Some(freed)
    }

    /// Unlinks `id` from its parent's child list (or from the roots).
    fn detach(&mut self, id: NodeId) {
        let (parent, hash, location, next) = {
            let n = self.node(id);
            (link(n.parent), n.hash, n.location, n.next_sibling)
        };
        let Some(p) = parent else {
            self.roots.remove(&hash);
            return;
        };
        // Sibling links are not part of any frontier key.
        match self.children(p).take_while(|&c| c != id).last() {
            Some(prev) => self.node_mut(prev).next_sibling = next,
            None => self.node_mut(p).first_child = next,
        }
        self.modify(p, |n| {
            n.kids -= 1;
            if location == Location::Npu {
                n.npu_kids -= 1;
            }
        });
    }

    /// Removes a leaf node, returning its block and tier so the caller can
    /// release or migrate the storage.
    ///
    /// # Panics
    ///
    /// Panics if the node has children or is locked.
    pub fn remove_leaf(&mut self, id: NodeId) -> (BlockId, Location) {
        let (block, location) = {
            let n = self.node(id);
            assert_eq!(n.kids, 0, "remove_leaf on interior node");
            assert_eq!(n.locks, 0, "remove_leaf on locked node");
            (n.block, n.location)
        };
        self.leave(id);
        self.detach(id);
        self.nodes[id.0 as usize] = None;
        self.free_slots.push(id.0);
        self.node_count -= 1;
        (block, location)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenizer::synthetic_tokens;
    use proptest::prelude::*;
    use simcore::SimDuration;

    const B: usize = 16;

    fn toks(seed: u64, n: usize) -> Vec<TokenId> {
        synthetic_tokens(seed, n, 64_000)
    }

    fn blocks(start: u32, n: usize) -> Vec<BlockId> {
        (start..start + n as u32).map(BlockId).collect()
    }

    /// The oracle: the frontier of `tier` found by visiting every node and
    /// sorting, the way eviction found its victims before the index.
    fn scan_frontier(t: &RadixTree, tier: Location) -> Vec<(SimTime, NodeId)> {
        let mut frontier: Vec<(SimTime, NodeId)> = t
            .nodes
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.as_ref().map(|n| (i, n)))
            .filter(|&(i, n)| {
                n.locks == 0
                    && n.location == tier
                    && t.children(NodeId(i as u32))
                        .all(|c| t.node(c).location != tier)
            })
            .map(|(i, n)| (n.last_access, NodeId(i as u32)))
            .collect();
        frontier.sort_unstable();
        frontier
    }

    /// The eviction candidates of `tier` in victim order, walked through
    /// the index and checked against the oracle and the drift guard.
    fn evictable(t: &RadixTree, tier: Location) -> Vec<NodeId> {
        assert!(t.frontier_in_step(), "frontier index drifted");
        let walked: Vec<NodeId> = std::iter::successors(t.next_evictable(tier, None), |&id| {
            t.next_evictable(tier, Some(id))
        })
        .collect();
        let scanned: Vec<NodeId> = scan_frontier(t, tier)
            .into_iter()
            .map(|(_, id)| id)
            .collect();
        assert_eq!(walked, scanned);
        walked
    }

    /// Every block in `blocks` hashes (after `prev`) to a distinct value.
    fn assert_distinct(prev: u64, blocks: &[Vec<TokenId>]) {
        let mut hashes: Vec<u64> = blocks.iter().map(|b| chain_hash(prev, b)).collect();
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), blocks.len(), "chain_hash collided");
    }

    #[test]
    fn chain_hash_sees_every_token_position() {
        let block = toks(1, B);
        let mut blocks = vec![block.clone()];
        for i in 0..B {
            let mut b = block.clone();
            b[i] = TokenId(b[i].0 ^ 1);
            blocks.push(b);
        }
        assert_distinct(0, &blocks);
    }

    #[test]
    fn chain_hash_is_order_sensitive_within_and_across_lanes() {
        let block: Vec<TokenId> = (1..=B as u32).map(TokenId).collect();
        let swapped = |i: usize, j: usize| {
            let mut b = block.clone();
            b.swap(i, j);
            b
        };
        assert_distinct(
            0,
            &[
                block.clone(),
                // Within lane 0's pair, and within the second group's lane 3.
                swapped(0, 1),
                swapped(14, 15),
                // Lanes 0 and 1, lanes 0 and 2 (which the fold XORs
                // together), and one lane across its two groups.
                swapped(0, 2),
                swapped(0, 4),
                swapped(1, 5),
                swapped(2, 10),
            ],
        );
    }

    #[test]
    fn chain_hash_chains_on_prev() {
        let block = toks(2, B);
        let first = toks(3, B);
        let prev = chain_hash(0, &first);
        assert_ne!(chain_hash(0, &block), chain_hash(prev, &block));
        assert_ne!(chain_hash(prev, &block), chain_hash(prev ^ 1, &block));
    }

    #[test]
    fn chain_hash_pads_a_short_tail_apart_from_real_tokens() {
        let tail = toks(4, 5);
        let mut padded = tail.clone();
        padded.extend([TokenId(u32::MAX); 3]);
        let mut long = toks(5, 8);
        long.extend(&tail);
        let mut long_padded = long.clone();
        long_padded.extend([TokenId(u32::MAX); 3]);
        let mut blocks = vec![tail.clone(), padded, tail[..4].to_vec(), long, long_padded];
        for i in 0..tail.len() {
            let mut t = tail.clone();
            t[i] = TokenId(t[i].0 + 1);
            blocks.push(t);
        }
        assert_distinct(0, &blocks);
    }

    #[test]
    fn insert_then_match_full_prefix() {
        let mut t = RadixTree::new(B);
        let tokens = toks(1, 64); // 4 blocks
        let (chain, reused) = t.insert(SimTime::ZERO, &tokens, &blocks(0, 4));
        assert_eq!(chain.len(), 4);
        assert_eq!(reused, 0);
        let m = t.match_prefix(&tokens);
        assert_eq!(m.tokens, 64);
        assert_eq!(m.nodes, chain);
        assert_eq!(m.npu_prefix_nodes, 4);
    }

    #[test]
    fn partial_block_tail_is_not_cached() {
        let mut t = RadixTree::new(B);
        let tokens = toks(1, 70); // 4 full blocks + 6 tail tokens
        let (chain, _) = t.insert(SimTime::ZERO, &tokens, &blocks(0, 4));
        assert_eq!(chain.len(), 4);
        let m = t.match_prefix(&tokens);
        assert_eq!(m.tokens, 64, "tail tokens must not match");
    }

    #[test]
    fn shared_prefix_is_deduplicated() {
        let mut t = RadixTree::new(B);
        let shared = toks(1, 32);
        let mut a = shared.clone();
        a.extend(toks(2, 32));
        let mut b = shared.clone();
        b.extend(toks(3, 32));
        let (ca, reused_a) = t.insert(SimTime::ZERO, &a, &blocks(0, 4));
        assert_eq!(reused_a, 0);
        let (cb, reused_b) = t.insert(SimTime::ZERO, &b, &blocks(4, 4));
        // First two blocks of b are already cached.
        assert_eq!(reused_b, 2);
        assert_eq!(ca[..2], cb[..2], "shared prefix shares nodes");
        assert_eq!(t.len(), 6);
    }

    #[test]
    fn divergent_suffixes_do_not_match() {
        let mut t = RadixTree::new(B);
        let a = toks(1, 64);
        t.insert(SimTime::ZERO, &a, &blocks(0, 4));
        let b = toks(99, 64);
        assert_eq!(t.match_prefix(&b).tokens, 0);
    }

    #[test]
    fn dram_node_caps_npu_prefix() {
        let mut t = RadixTree::new(B);
        let tokens = toks(1, 64);
        let (chain, _) = t.insert(SimTime::ZERO, &tokens, &blocks(0, 4));
        // Swap the second block to DRAM.
        t.relocate(chain[1], BlockId(100), Location::Dram);
        let m = t.match_prefix(&tokens);
        assert_eq!(m.tokens, 64, "match still sees all 4 blocks");
        assert_eq!(m.npu_prefix_nodes, 1, "usable NPU prefix stops at DRAM");
        assert_eq!(m.dram_nodes().len(), 3);
        assert_eq!(m.npu_tokens(B), 16);
    }

    #[test]
    fn eviction_order_is_lru_leaves_only() {
        let mut t = RadixTree::new(B);
        let a = toks(1, 48); // 3 chained blocks
        let (chain, _) = t.insert(SimTime::from_secs(1), &a, &blocks(0, 3));
        // Only the deepest node is a leaf.
        let ev = evictable(&t, Location::Npu);
        assert_eq!(ev, vec![chain[2]]);
        // Lock it: nothing evictable.
        t.lock(&[chain[2]]);
        assert!(evictable(&t, Location::Npu).is_empty());
        t.unlock(&[chain[2]]);
        // Remove the leaf; its parent becomes the frontier.
        let (blk, loc) = t.remove_leaf(chain[2]);
        assert_eq!(blk, BlockId(2));
        assert_eq!(loc, Location::Npu);
        assert_eq!(evictable(&t, Location::Npu), vec![chain[1]]);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn lru_orders_by_access_time() {
        let mut t = RadixTree::new(B);
        let a = toks(1, 16);
        let b = toks(2, 16);
        let (ca, _) = t.insert(SimTime::from_secs(1), &a, &blocks(0, 1));
        let (cb, _) = t.insert(SimTime::from_secs(2), &b, &blocks(1, 1));
        assert_eq!(evictable(&t, Location::Npu), vec![ca[0], cb[0]]);
        // Touch `a` later: order flips.
        t.touch(SimTime::from_secs(3), &ca);
        assert_eq!(evictable(&t, Location::Npu), vec![cb[0], ca[0]]);
    }

    #[test]
    #[should_panic(expected = "interior node")]
    fn removing_interior_node_panics() {
        let mut t = RadixTree::new(B);
        let a = toks(1, 32);
        let (chain, _) = t.insert(SimTime::ZERO, &a, &blocks(0, 2));
        t.remove_leaf(chain[0]);
    }

    #[test]
    fn node_slots_are_reused() {
        let mut t = RadixTree::new(B);
        let a = toks(1, 16);
        let (c1, _) = t.insert(SimTime::ZERO, &a, &blocks(0, 1));
        t.remove_leaf(c1[0]);
        let b = toks(2, 16);
        let (c2, _) = t.insert(SimTime::ZERO, &b, &blocks(1, 1));
        assert_eq!(c1[0], c2[0], "slot should be recycled");
        assert_eq!(t.len(), 1);
    }

    /// A cached block's arena slot: a wider `Node` shows up directly in
    /// host memory per cached block.
    #[test]
    fn node_slot_is_48_bytes() {
        assert_eq!(std::mem::size_of::<Option<Node>>(), 48);
    }

    #[test]
    fn next_evictable_skips_from_any_candidate() {
        let mut t = RadixTree::new(B);
        let ids: Vec<NodeId> = (0..3)
            .map(|i| {
                t.insert(SimTime::from_secs(i), &toks(i, B), &blocks(i as u32, 1))
                    .0[0]
            })
            .collect();
        assert_eq!(t.next_evictable(Location::Npu, Some(ids[0])), Some(ids[1]));
        assert_eq!(t.next_evictable(Location::Npu, Some(ids[2])), None);
        assert!(!t.has_evictable(Location::Dram));
        t.relocate(ids[1], BlockId(9), Location::Dram);
        assert_eq!(evictable(&t, Location::Npu), vec![ids[0], ids[2]]);
        assert_eq!(evictable(&t, Location::Dram), vec![ids[1]]);
    }

    /// Token stream for a path through a three-way branching tree of
    /// two-token blocks: prompts that agree on a leading run of choices
    /// share that many nodes.
    fn path_tokens(choices: &[usize]) -> Vec<TokenId> {
        choices
            .iter()
            .enumerate()
            .flat_map(|(depth, &c)| [TokenId(depth as u32), TokenId(100 + c as u32)])
            .collect()
    }

    fn live_nodes(t: &RadixTree) -> Vec<NodeId> {
        (0..t.nodes.len() as u32)
            .map(NodeId)
            .filter(|id| t.nodes[id.0 as usize].is_some())
            .collect()
    }

    proptest! {
        /// The frontier index against the brute-force scan: random
        /// sequences of every mutation the tree has (inserts of chains with
        /// shared prefixes, lock/unlock, touch, relocation both ways, leaf
        /// and subtree removal) on a tree of two-token blocks. After every
        /// operation both tiers' index must equal the scan, keys and order
        /// included, and every node's HBM-child count must be exact.
        #[test]
        fn frontier_index_matches_scan(
            ops in prop::collection::vec((0usize..9, any::<u64>(), 0u64..3), 1..80),
        ) {
            let mut t = RadixTree::new(2);
            let mut held: Vec<Vec<NodeId>> = Vec::new();
            let mut now = SimTime::ZERO;
            for (step, &(kind, r, dt)) in ops.iter().enumerate() {
                // Ties in `last_access` are common: `dt` is often zero.
                now += SimDuration::from_nanos(dt);
                let choices: Vec<usize> =
                    (0..1 + r as usize % 5).map(|d| (r >> (8 + 2 * d)) as usize % 3).collect();
                let tokens = path_tokens(&choices);
                let live = live_nodes(&t);
                let pick = (!live.is_empty()).then(|| live[(r >> 40) as usize % live.len()]);
                match kind {
                    0 | 1 => {
                        let bs = blocks(step as u32 * 8, choices.len());
                        t.insert(now, &tokens, &bs);
                    }
                    2 => {
                        let m = t.match_prefix(&tokens);
                        t.lock(&m.nodes);
                        held.push(m.nodes);
                    }
                    3 => {
                        if !held.is_empty() {
                            let nodes = held.swap_remove(r as usize % held.len());
                            t.unlock(&nodes);
                        }
                    }
                    4 => {
                        let m = t.match_prefix(&tokens);
                        t.touch(now, &m.nodes);
                    }
                    5 | 6 => {
                        if let Some(id) = pick {
                            let tier = if r & 1 == 0 { Location::Npu } else { Location::Dram };
                            t.relocate(id, BlockId(1_000 + step as u32), tier);
                        }
                    }
                    7 => {
                        let leaves: Vec<NodeId> = live
                            .iter()
                            .copied()
                            .filter(|&id| t.node(id).kids == 0 && t.node(id).locks == 0)
                            .collect();
                        if !leaves.is_empty() {
                            t.remove_leaf(leaves[(r >> 40) as usize % leaves.len()]);
                        }
                    }
                    _ => {
                        if let Some(id) = pick {
                            t.try_remove_subtree(id);
                        }
                    }
                }
                for tier in [Location::Npu, Location::Dram] {
                    let index: Vec<(SimTime, NodeId)> =
                        t.frontier[tier as usize].iter().copied().collect();
                    let scan = scan_frontier(&t, tier);
                    prop_assert_eq!(index, scan, "step {} kind {} {:?}", step, kind, tier);
                }
                prop_assert!(t.frontier_in_step(), "drift guard disagrees at step {}", step);
                for id in live_nodes(&t) {
                    let n = t.node(id);
                    let in_npu = |c: &NodeId| t.node(*c).location == Location::Npu;
                    let npu = t.children(id).filter(in_npu).count();
                    prop_assert_eq!(n.npu_kids as usize, npu, "step {} {:?}", step, id);
                    prop_assert_eq!(n.kids as usize, t.children(id).count(), "step {} {:?}", step, id);
                }
            }
        }
    }
}
