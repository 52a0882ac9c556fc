//! Block-granular radix tree over token streams.
//!
//! RTC "employs a hybrid indexing layer that combines radix-tree indexing
//! with ID-based indexing. each index node can point to data stored
//! either in the NPU or in local DRAM" (§4.3). This is the radix half.
//!
//! The tree is quantized to KV blocks: each node covers exactly one full
//! block of tokens, children are keyed by the *chained content hash* of the
//! next block, and only complete blocks are cached (partial tails are
//! per-request private state). A chained 64-bit hash identifies each prefix,
//! so walking a query is one hash + one map lookup per block — the same
//! trick vLLM's hash-based prefix cache uses, arranged as an explicit tree
//! so subtree operations (eviction, sharing, the JE's global prompt tree)
//! stay natural. Collisions are 2^-64-scale and ignored by design.

use crate::block::BlockId;
use crate::tokenizer::TokenId;
use simcore::SimTime;
use std::collections::BTreeMap;

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

/// Chained hash of a block-quantized prefix.
fn chain_hash(prev: u64, block_tokens: &[TokenId]) -> u64 {
    let mut h = prev ^ 0x51_7c_c1_b7_27_22_0a_95;
    for t in block_tokens {
        h ^= t.0 as u64;
        h = h.wrapping_mul(0x100000001b3);
        h = h.rotate_left(23);
    }
    h
}

#[derive(Debug)]
struct Node {
    parent: Option<NodeId>,
    /// Child edges keyed by chained block hash. A `BTreeMap`: subtree
    /// removal and frontier scans iterate it, and the freed-block order
    /// feeds the allocator (and through it, reports).
    children: BTreeMap<u64, NodeId>,
    block: BlockId,
    location: Location,
    /// Chained hash of the prefix ending at this node.
    hash: u64,
    last_access: SimTime,
    /// In-flight requests currently pinning this node.
    locks: u32,
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

    fn node(&self, id: NodeId) -> &Node {
        self.nodes[id.0 as usize]
            .as_ref()
            // detlint: allow(panic) — arena invariant: NodeIds only flow through children/roots maps, which are pruned in the same operation that vacates a slot; a stale id is a tree-corruption bug worth failing loudly on
            .expect("stale NodeId: node was removed")
    }

    fn node_mut(&mut self, id: NodeId) -> &mut Node {
        self.nodes[id.0 as usize]
            .as_mut()
            // detlint: allow(panic) — arena invariant: see `node` above
            .expect("stale NodeId: node was removed")
    }

    /// Walks the longest cached prefix of `tokens` (full blocks only).
    pub fn match_prefix(&self, tokens: &[TokenId]) -> PrefixMatch {
        let mut result = PrefixMatch::default();
        let mut hash = 0u64;
        let mut map = &self.roots;
        let mut npu_streak = true;
        for block in tokens.chunks_exact(self.block_size) {
            hash = chain_hash(hash, block);
            match map.get(&hash) {
                Some(&id) => {
                    let n = self.node(id);
                    result.nodes.push(id);
                    result.tokens += self.block_size;
                    if npu_streak && n.location == Location::Npu {
                        result.npu_prefix_nodes += 1;
                    } else {
                        npu_streak = false;
                    }
                    map = &n.children;
                }
                None => break,
            }
        }
        result
    }

    /// Inserts the full blocks of `tokens`, attaching `blocks[i]` to block
    /// `i`. Blocks already present are left untouched (their existing
    /// handle is returned and `blocks[i]` is reported back as redundant).
    ///
    /// Returns `(chain, redundant)`: the node chain covering the prefix,
    /// and the caller's block ids that were already cached (caller should
    /// drop its extra reference on those).
    ///
    /// # Panics
    ///
    /// Panics if fewer blocks are supplied than full token blocks.
    pub fn insert(
        &mut self,
        now: SimTime,
        tokens: &[TokenId],
        blocks: &[BlockId],
    ) -> (Vec<NodeId>, Vec<BlockId>) {
        let full_blocks = tokens.len() / self.block_size;
        assert!(
            blocks.len() >= full_blocks,
            "insert: need {full_blocks} blocks, got {}",
            blocks.len()
        );
        let mut chain = Vec::with_capacity(full_blocks);
        let mut redundant = Vec::new();
        let mut hash = 0u64;
        let mut parent: Option<NodeId> = None;
        for (i, block_tokens) in tokens.chunks_exact(self.block_size).enumerate() {
            hash = chain_hash(hash, block_tokens);
            let existing = match parent {
                Some(p) => self.node(p).children.get(&hash).copied(),
                None => self.roots.get(&hash).copied(),
            };
            let id = match existing {
                Some(id) => {
                    self.node_mut(id).last_access = now;
                    redundant.push(blocks[i]);
                    id
                }
                None => {
                    let id = self.alloc_node(Node {
                        parent,
                        children: BTreeMap::new(),
                        block: blocks[i],
                        location: Location::Npu,
                        hash,
                        last_access: now,
                        locks: 0,
                    });
                    match parent {
                        Some(p) => {
                            self.node_mut(p).children.insert(hash, id);
                        }
                        None => {
                            self.roots.insert(hash, id);
                        }
                    }
                    id
                }
            };
            chain.push(id);
            parent = Some(id);
        }
        (chain, redundant)
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
            self.node_mut(id).locks += 1;
        }
    }

    /// Releases pins taken by [`RadixTree::lock`].
    ///
    /// # Panics
    ///
    /// Panics if a node was not locked.
    pub fn unlock(&mut self, nodes: &[NodeId]) {
        for &id in nodes {
            let n = self.node_mut(id);
            assert!(n.locks > 0, "unlock of unlocked node {id:?}");
            n.locks -= 1;
        }
    }

    /// Updates access time (hit bookkeeping).
    pub fn touch(&mut self, now: SimTime, nodes: &[NodeId]) {
        for &id in nodes {
            self.node_mut(id).last_access = now;
        }
    }

    /// The block a node points at and its tier.
    pub fn block_of(&self, id: NodeId) -> (BlockId, Location) {
        let n = self.node(id);
        (n.block, n.location)
    }

    /// Rebinds a node to a new block in a new tier (after swap/populate).
    pub fn relocate(&mut self, id: NodeId, block: BlockId, location: Location) {
        let n = self.node_mut(id);
        n.block = block;
        n.location = location;
    }

    /// Unpinned *frontier* nodes of `tier` in LRU order — the eviction
    /// candidates. A node is on the tier's frontier when it lives in the
    /// tier and none of its children do. Evicting deepest-first keeps
    /// residency in each tier a contiguous prefix of every cached chain
    /// (NPU above DRAM), which is what makes populate a pure "extend the
    /// usable prefix" operation.
    pub fn evictable(&self, tier: Location) -> Vec<NodeId> {
        let mut frontier: Vec<(SimTime, NodeId)> = self
            .nodes
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.as_ref().map(|n| (i, n)))
            .filter(|(_, n)| {
                n.locks == 0
                    && n.location == tier
                    && n.children.values().all(|&c| self.node(c).location != tier)
            })
            .map(|(i, n)| (n.last_access, NodeId(i as u32)))
            .collect();
        frontier.sort_unstable();
        frontier.into_iter().map(|(_, id)| id).collect()
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
            let node = self.node(n);
            if node.locks > 0 {
                return None;
            }
            subtree.push(n);
            // Children come out in hash-key order; sort by NodeId to keep
            // the historical traversal (and thus block-release) order.
            let mut kids: Vec<NodeId> = node.children.values().copied().collect();
            kids.sort_unstable();
            stack.extend(kids);
        }
        // Detach the subtree root from its parent.
        let (parent, hash) = {
            let n = self.node(id);
            (n.parent, n.hash)
        };
        match parent {
            Some(p) => {
                self.node_mut(p).children.remove(&hash);
            }
            None => {
                self.roots.remove(&hash);
            }
        }
        // Release every node.
        let mut freed = Vec::with_capacity(subtree.len());
        for n in subtree {
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

    /// Removes a leaf node, returning its block and tier so the caller can
    /// release or migrate the storage.
    ///
    /// # Panics
    ///
    /// Panics if the node has children or is locked.
    pub fn remove_leaf(&mut self, id: NodeId) -> (BlockId, Location) {
        let (parent, hash, block, location) = {
            let n = self.node(id);
            assert!(n.children.is_empty(), "remove_leaf on interior node");
            assert_eq!(n.locks, 0, "remove_leaf on locked node");
            (n.parent, n.hash, n.block, n.location)
        };
        match parent {
            Some(p) => {
                self.node_mut(p).children.remove(&hash);
            }
            None => {
                self.roots.remove(&hash);
            }
        }
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

    const B: usize = 16;

    fn toks(seed: u64, n: usize) -> Vec<TokenId> {
        synthetic_tokens(seed, n, 64_000)
    }

    fn blocks(start: u32, n: usize) -> Vec<BlockId> {
        (start..start + n as u32).map(BlockId).collect()
    }

    #[test]
    fn insert_then_match_full_prefix() {
        let mut t = RadixTree::new(B);
        let tokens = toks(1, 64); // 4 blocks
        let (chain, redundant) = t.insert(SimTime::ZERO, &tokens, &blocks(0, 4));
        assert_eq!(chain.len(), 4);
        assert!(redundant.is_empty());
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
        let (ca, red_a) = t.insert(SimTime::ZERO, &a, &blocks(0, 4));
        assert!(red_a.is_empty());
        let (cb, red_b) = t.insert(SimTime::ZERO, &b, &blocks(4, 4));
        // First two blocks of b are already cached.
        assert_eq!(red_b, vec![BlockId(4), BlockId(5)]);
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
        let ev = t.evictable(Location::Npu);
        assert_eq!(ev, vec![chain[2]]);
        // Lock it: nothing evictable.
        t.lock(&[chain[2]]);
        assert!(t.evictable(Location::Npu).is_empty());
        t.unlock(&[chain[2]]);
        // Remove the leaf; its parent becomes the frontier.
        let (blk, loc) = t.remove_leaf(chain[2]);
        assert_eq!(blk, BlockId(2));
        assert_eq!(loc, Location::Npu);
        assert_eq!(t.evictable(Location::Npu), vec![chain[1]]);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn lru_orders_by_access_time() {
        let mut t = RadixTree::new(B);
        let a = toks(1, 16);
        let b = toks(2, 16);
        let (ca, _) = t.insert(SimTime::from_secs(1), &a, &blocks(0, 1));
        let (cb, _) = t.insert(SimTime::from_secs(2), &b, &blocks(1, 1));
        assert_eq!(t.evictable(Location::Npu), vec![ca[0], cb[0]]);
        // Touch `a` later: order flips.
        t.touch(SimTime::from_secs(3), &ca);
        assert_eq!(t.evictable(Location::Npu), vec![cb[0], ca[0]]);
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
}
