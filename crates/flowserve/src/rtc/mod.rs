//! Relational Tensor Cache (RTC): unified caching and memory management.
//!
//! RTC is FlowServe's module for "the relationship between tensors,
//! primarily on the KV cache" (§4.3). It owns the per-tier block pools, the
//! block-granular radix tree ([`radix`]), the explicit ID index, and the
//! populate/copy machinery, exposing the Table 1 API surface:
//!
//! | Paper API            | Here                                    |
//! |----------------------|-----------------------------------------|
//! | `MatchByPrefixToken` | [`Rtc::match_by_prefix_token`]          |
//! | `MatchByID`          | [`Rtc::match_by_id`]                    |
//! | `Populate`           | [`Rtc::populate`]                       |
//! | `QueryPopulate`      | [`Rtc::query_populate`]                 |
//! | `AllocBlocks`        | [`Rtc::alloc_blocks`]                   |
//! | `AppendBlock`        | [`Rtc::append_block`]                   |
//! | `Copy`               | [`Rtc::copy_to_dram`]                   |
//! | `Free`               | [`Rtc::free`]                           |
//!
//! Master/executor split: in the real system the master owns these index
//! structures while per-NPU executors move the bytes. Here the index *is*
//! the master state; byte movement is returned as token counts that the
//! engine prices (and the platform layer executes over DistFlow).

pub mod radix;

use crate::block::{BlockId, BlockPool, OutOfBlocks};
use crate::tokenizer::TokenId;
pub use radix::{chain_hash, Location, NodeId, PrefixMatch, RadixTree};
use simcore::trace::{Trace, TraceLevel, Tracer};
use simcore::{Counters, SimTime};
use std::collections::HashMap;

/// Explicit context-cache handle (DeepServe's context caching endpoint).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheId(pub u64);

/// Handle for an asynchronous populate operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PopulateTicket(pub u64);

/// State of a populate, as reported by [`Rtc::query_populate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PopulateStatus {
    /// Transfer still running.
    InFlight,
    /// Data is NPU-resident.
    Done,
    /// Ticket never issued.
    Unknown,
}

/// RTC sizing.
#[derive(Debug, Clone, Copy)]
pub struct RtcConfig {
    /// Tokens per KV block.
    pub block_size: usize,
    /// HBM pool capacity, in blocks (from the engine's KV headroom).
    pub npu_blocks: usize,
    /// Host-DRAM pool capacity, in blocks.
    pub dram_blocks: usize,
}

/// A pinned, NPU-resident cached prefix held by one request. Obtained from
/// [`Rtc::acquire_prefix`]; must be returned via [`Rtc::release_prefix`]
/// (pins) and [`Rtc::free`] (block references) when the request retires.
#[derive(Debug, Clone)]
pub struct AcquiredPrefix {
    /// Pinned tree nodes.
    pub nodes: Vec<NodeId>,
    /// The NPU blocks those nodes point at, in prefix order.
    pub blocks: Vec<BlockId>,
}

impl AcquiredPrefix {
    /// Tokens covered by the acquired prefix.
    pub fn tokens(&self, block_size: usize) -> usize {
        self.blocks.len() * block_size
    }
}

/// A planned DRAM -> NPU population.
#[derive(Debug, Clone)]
pub struct PopulatePlan {
    /// Ticket to pass to [`Rtc::complete_populate`] / [`Rtc::query_populate`].
    pub ticket: PopulateTicket,
    /// Tokens being moved (engine converts to bytes/time).
    pub tokens: usize,
    /// Nodes being populated, shallowest first.
    pub nodes: Vec<NodeId>,
}

#[derive(Debug)]
struct InFlightPopulate {
    nodes: Vec<NodeId>,
    /// NPU destination blocks, parallel to `nodes`.
    dst_blocks: Vec<BlockId>,
}

#[derive(Debug, Clone)]
struct IdEntry {
    nodes: Vec<NodeId>,
    tokens: usize,
}

/// The RTC master module.
#[derive(Debug)]
pub struct Rtc {
    cfg: RtcConfig,
    tree: RadixTree,
    npu_pool: BlockPool,
    dram_pool: BlockPool,
    id_index: HashMap<CacheId, IdEntry>,
    /// In-flight populates. Tickets are issued in sequence, so every ticket
    /// below `next_ticket` that is not in flight has completed.
    populates: HashMap<PopulateTicket, InFlightPopulate>,
    next_ticket: u64,
    counters: Counters,
    tracer: Tracer,
    /// Last sim-time seen on a time-bearing call; stamps events emitted
    /// from methods that have no `now` parameter (match, evict).
    clock_hint: SimTime,
}

impl Rtc {
    /// Creates an RTC with the given sizing.
    pub fn new(cfg: RtcConfig) -> Self {
        Rtc {
            tree: RadixTree::new(cfg.block_size),
            npu_pool: BlockPool::new(cfg.npu_blocks),
            dram_pool: BlockPool::new(cfg.dram_blocks),
            cfg,
            id_index: HashMap::new(),
            populates: HashMap::new(),
            next_ticket: 0,
            counters: Counters::new(),
            tracer: Tracer::disabled(),
            clock_hint: SimTime::ZERO,
        }
    }

    /// Turns on sim-time tracing of cache hits/misses/evictions/populates.
    pub fn enable_tracing(&mut self, level: TraceLevel, capacity: usize) {
        self.tracer = Tracer::enabled(level, capacity);
    }

    /// Drains everything traced so far.
    pub fn take_trace(&mut self) -> Trace {
        self.tracer.take()
    }

    /// Tokens per block.
    pub fn block_size(&self) -> usize {
        self.cfg.block_size
    }

    /// Blocks in the HBM pool: free, cached and in use.
    pub(crate) fn npu_capacity_blocks(&self) -> usize {
        self.npu_pool.capacity()
    }

    /// Free blocks in the HBM pool.
    pub fn npu_free_blocks(&self) -> usize {
        self.npu_pool.available()
    }

    /// Whether any NPU-resident cache node is currently evictable (an
    /// unpinned frontier node). When nothing is evictable, the background
    /// swapper is a guaranteed no-op regardless of the free-block
    /// watermark — the engine's fast-forward gate relies on this. O(1):
    /// an emptiness test on the tree's frontier index.
    pub fn npu_evictable(&self) -> bool {
        debug_assert!(self.tree.frontier_in_step(), "RTC frontier index drifted");
        self.tree.has_evictable(Location::Npu)
    }

    /// Accumulated hit/miss/eviction counters.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Number of cached prefix nodes (NPU + DRAM).
    pub fn cached_nodes(&self) -> usize {
        self.tree.len()
    }

    // ---- Match ----

    /// `MatchByPrefixToken`: longest cached prefix of `tokens`.
    pub fn match_by_prefix_token(&mut self, tokens: &[TokenId]) -> PrefixMatch {
        let m = self.tree.match_prefix(tokens);
        if m.tokens > 0 {
            self.counters.add("rtc.match_hit_tokens", m.tokens as u64);
            if self.tracer.is_enabled() {
                self.tracer.event(
                    self.clock_hint,
                    "rtc.hit",
                    vec![
                        ("tokens", m.tokens.into()),
                        ("npu_nodes", m.npu_prefix_nodes.into()),
                    ],
                );
            }
        } else {
            self.counters.incr("rtc.match_miss");
            if self.tracer.is_enabled() {
                self.tracer.event(self.clock_hint, "rtc.miss", vec![]);
            }
        }
        m
    }

    /// `MatchByID`: cached KV registered under an explicit context-cache id.
    pub fn match_by_id(&self, id: CacheId) -> Option<PrefixMatch> {
        let entry = self.id_index.get(&id)?;
        let mut npu_prefix = 0;
        for &n in &entry.nodes {
            if self.tree.block_of(n).1 == Location::Npu {
                npu_prefix += 1;
            } else {
                break;
            }
        }
        Some(PrefixMatch {
            nodes: entry.nodes.clone(),
            tokens: entry.tokens,
            npu_prefix_nodes: npu_prefix,
        })
    }

    /// Registers a node chain under an explicit cache id and pins it until
    /// [`Rtc::release_id`]. Explicit entries survive implicit eviction.
    /// Re-registering an id releases the previous entry first.
    pub fn register_id(&mut self, id: CacheId, nodes: Vec<NodeId>) {
        self.release_id(id);
        let tokens = nodes.len() * self.cfg.block_size;
        self.tree.lock(&nodes);
        self.id_index.insert(id, IdEntry { nodes, tokens });
    }

    /// Releases an explicit cache entry; its nodes become evictable again.
    pub fn release_id(&mut self, id: CacheId) -> bool {
        if let Some(entry) = self.id_index.remove(&id) {
            self.tree.unlock(&entry.nodes);
            true
        } else {
            false
        }
    }

    // ---- Populate ----

    /// `Populate`: plans fetching the DRAM portion of `m` into HBM. The
    /// populate extends the usable NPU prefix contiguously; if HBM cannot
    /// hold everything even after eviction, the plan covers what fits.
    /// Returns `None` if there is nothing to populate (or nothing fits).
    ///
    /// The engine owns the clock: it prices `plan.tokens` and calls
    /// [`Rtc::complete_populate`] when the simulated transfer finishes.
    pub fn populate(&mut self, now: SimTime, m: &PrefixMatch) -> Option<PopulatePlan> {
        let dram_nodes: Vec<NodeId> = m.dram_nodes().to_vec();
        if dram_nodes.is_empty() {
            return None;
        }
        let mut nodes = Vec::new();
        let mut dst_blocks = Vec::new();
        for &n in &dram_nodes {
            // Skip nodes some other populate already brought in.
            if self.tree.block_of(n).1 == Location::Npu {
                continue;
            }
            match self.alloc_npu_with_eviction() {
                Ok(b) => {
                    nodes.push(n);
                    dst_blocks.push(b);
                }
                Err(_) => break, // partial populate: keep the prefix contiguous
            }
        }
        if nodes.is_empty() {
            return None;
        }
        // Pin sources so the swapper can't free them mid-flight.
        self.tree.lock(&nodes);
        let ticket = PopulateTicket(self.next_ticket);
        self.next_ticket += 1;
        let tokens = nodes.len() * self.cfg.block_size;
        self.counters.add("rtc.populate_tokens", tokens as u64);
        self.clock_hint = self.clock_hint.max(now);
        if self.tracer.is_enabled() {
            self.tracer.event(
                now,
                "rtc.populate_start",
                vec![("ticket", ticket.0.into()), ("tokens", tokens.into())],
            );
        }
        self.populates.insert(
            ticket,
            InFlightPopulate {
                nodes: nodes.clone(),
                dst_blocks,
            },
        );
        Some(PopulatePlan {
            ticket,
            tokens,
            nodes,
        })
    }

    /// `QueryPopulate`: status of a ticket.
    pub fn query_populate(&self, ticket: PopulateTicket) -> PopulateStatus {
        if self.populates.contains_key(&ticket) {
            PopulateStatus::InFlight
        } else if ticket.0 < self.next_ticket {
            PopulateStatus::Done
        } else {
            PopulateStatus::Unknown
        }
    }

    /// Completes a populate: nodes move to HBM, their DRAM copies are
    /// released. An unknown ticket — completing a transfer RTC never
    /// planned — means the engine and cache disagree about reality: loud in
    /// debug builds, ignored in release (the blocks stay where they are).
    pub fn complete_populate(&mut self, ticket: PopulateTicket) {
        let Some(inflight) = self.populates.remove(&ticket) else {
            debug_assert!(false, "complete_populate: unknown ticket {ticket:?}");
            return;
        };
        for (&node, &dst) in inflight.nodes.iter().zip(&inflight.dst_blocks) {
            let (old_block, old_loc) = self.tree.block_of(node);
            debug_assert_eq!(old_loc, Location::Dram);
            self.dram_pool.decref(old_block);
            self.tree.relocate(node, dst, Location::Npu);
        }
        self.tree.unlock(&inflight.nodes);
        if self.tracer.is_enabled() {
            self.tracer.event(
                self.clock_hint,
                "rtc.populate_done",
                vec![
                    ("ticket", ticket.0.into()),
                    ("blocks", inflight.nodes.len().into()),
                ],
            );
        }
    }

    // ---- Block allocation (per-request private blocks) ----

    /// `AllocBlocks`: blocks to prefill `new_tokens` on top of an existing
    /// `table_tokens`/`table_slack` state. Evicts cold cache leaves under
    /// pressure. On success the caller owns one reference per block.
    pub fn alloc_blocks(&mut self, n_blocks: usize) -> Result<Vec<BlockId>, OutOfBlocks> {
        if n_blocks == 0 {
            return Ok(Vec::new());
        }
        let mut out = Vec::with_capacity(n_blocks);
        for _ in 0..n_blocks {
            match self.alloc_npu_with_eviction() {
                Ok(b) => out.push(b),
                Err(e) => {
                    // Roll back: all-or-nothing like BlockPool::alloc_many.
                    for b in out {
                        self.npu_pool.decref(b);
                    }
                    return Err(OutOfBlocks {
                        requested: n_blocks,
                        available: e.available,
                    });
                }
            }
        }
        Ok(out)
    }

    /// `AppendBlock`: one block for a decoding sequence crossing a block
    /// boundary.
    pub fn append_block(&mut self) -> Result<BlockId, OutOfBlocks> {
        self.alloc_npu_with_eviction()
    }

    /// Allocates one HBM block, evicting LRU cache nodes until one frees
    /// up.
    fn alloc_npu_with_eviction(&mut self) -> Result<BlockId, OutOfBlocks> {
        loop {
            if let Ok(b) = self.npu_pool.alloc() {
                return Ok(b);
            }
            if !self.evict_lru_npu() {
                return Err(OutOfBlocks {
                    requested: 1,
                    available: 0,
                });
            }
        }
    }

    /// Evicts the least-recently-used NPU frontier node that can free HBM
    /// (see [`Rtc::evict_node`]), walking the tree's frontier index from
    /// its head past victims that cannot. Returns false when none can.
    fn evict_lru_npu(&mut self) -> bool {
        debug_assert!(self.tree.frontier_in_step(), "RTC frontier index drifted");
        let mut victim = self.tree.next_evictable(Location::Npu, None);
        while let Some(v) = victim {
            if self.evict_node(v) {
                return true;
            }
            // A failed eviction changed nothing, so `v` is still indexed.
            victim = self.tree.next_evictable(Location::Npu, Some(v));
        }
        false
    }

    /// Demotes one NPU-resident cache node: to DRAM if space allows
    /// (logical `Copy` + free), otherwise discards its subtree. Returns
    /// whether any HBM was actually freed; on false nothing changed.
    fn evict_node(&mut self, node: NodeId) -> bool {
        let (block, loc) = self.tree.block_of(node);
        debug_assert_eq!(loc, Location::Npu);
        match self.dram_pool.alloc() {
            Ok(dram_block) => {
                self.tree.relocate(node, dram_block, Location::Dram);
                self.npu_pool.decref(block);
                self.counters.incr("rtc.swap_out");
                self.counters
                    .add("rtc.swap_out_tokens", self.cfg.block_size as u64);
                if self.tracer.is_enabled() {
                    self.tracer.event(
                        self.clock_hint,
                        "rtc.swap_out",
                        vec![("tokens", self.cfg.block_size.into())],
                    );
                }
                true
            }
            Err(_) => match self.tree.try_remove_subtree(node) {
                Some(freed) => {
                    let n_freed = freed.len();
                    for (b, l) in freed {
                        match l {
                            Location::Npu => {
                                self.npu_pool.decref(b);
                            }
                            Location::Dram => {
                                self.dram_pool.decref(b);
                            }
                        }
                        self.counters.incr("rtc.evict_drop");
                    }
                    if self.tracer.is_enabled() {
                        self.tracer.event(
                            self.clock_hint,
                            "rtc.evict_drop",
                            vec![("blocks", n_freed.into())],
                        );
                    }
                    true
                }
                None => false, // locked descendant (e.g. in-flight populate)
            },
        }
    }

    /// `Copy`: explicitly demotes the LRU end of the NPU cache until at
    /// least `target_free` HBM blocks are free (background swapper duty,
    /// run off the critical path), or until no cache node can free HBM.
    /// Returns tokens moved to DRAM: one block per evicted node, whether it
    /// was demoted or dropped with its subtree.
    pub fn copy_to_dram(&mut self, target_free: usize) -> usize {
        let mut moved_tokens = 0;
        while self.npu_pool.available() < target_free && self.evict_lru_npu() {
            moved_tokens += self.cfg.block_size;
        }
        moved_tokens
    }

    /// `Free`: releases a request's references on its blocks.
    pub fn free(&mut self, blocks: &[BlockId]) {
        for &b in blocks {
            self.npu_pool.decref(b);
        }
    }

    // ---- Cache admission ----

    /// Acquires a matched NPU-resident prefix for a request: pins the
    /// nodes, increfs their blocks, and returns both so the caller can seed
    /// its block table and later release exactly what it took. Only the
    /// contiguous NPU prefix is acquired.
    pub fn acquire_prefix(&mut self, now: SimTime, m: &PrefixMatch) -> AcquiredPrefix {
        self.clock_hint = self.clock_hint.max(now);
        let usable: Vec<NodeId> = m.nodes[..m.npu_prefix_nodes].to_vec();
        self.tree.touch(now, &usable);
        self.tree.lock(&usable);
        let blocks = usable
            .iter()
            .map(|&n| {
                let (b, loc) = self.tree.block_of(n);
                debug_assert_eq!(loc, Location::Npu);
                self.npu_pool.incref(b);
                b
            })
            .collect();
        AcquiredPrefix {
            nodes: usable,
            blocks,
        }
    }

    /// Releases the node pins taken by [`Rtc::acquire_prefix`] (block refs
    /// are released separately via [`Rtc::free`] as part of the table).
    pub fn release_prefix(&mut self, acquired: &AcquiredPrefix) {
        self.tree.unlock(&acquired.nodes);
    }

    /// Implicit caching: registers a finished request's full prompt blocks
    /// in the prefix tree. The tree takes its own reference on newly
    /// inserted blocks; blocks already cached are left to the caller.
    /// Returns the node chain (for explicit-ID registration).
    pub fn insert_prefix(
        &mut self,
        now: SimTime,
        tokens: &[TokenId],
        blocks: &[BlockId],
    ) -> Vec<NodeId> {
        self.clock_hint = self.clock_hint.max(now);
        let full = tokens.len() / self.cfg.block_size;
        let (chain, reused) = self.tree.insert(now, tokens, &blocks[..full]);
        // One tree reference per *newly inserted* block: the cached nodes
        // are a leading run, so every block after it got a node.
        for &b in &blocks[reused..full] {
            self.npu_pool.incref(b);
        }
        let new_blocks = full - reused;
        self.counters.add("rtc.inserted_blocks", new_blocks as u64);
        if self.tracer.is_enabled() {
            self.tracer.event(
                now,
                "rtc.insert",
                vec![
                    ("new_blocks", new_blocks.into()),
                    ("chain", chain.len().into()),
                ],
            );
        }
        chain
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenizer::synthetic_tokens;

    const B: usize = 16;

    fn cfg(npu: usize, dram: usize) -> RtcConfig {
        RtcConfig {
            block_size: B,
            npu_blocks: npu,
            dram_blocks: dram,
        }
    }

    fn toks(seed: u64, n: usize) -> Vec<TokenId> {
        synthetic_tokens(seed, n, 64_000)
    }

    /// Simulates a request that prefills `tokens` and registers its prefix.
    fn prefill_and_cache(rtc: &mut Rtc, now: SimTime, tokens: &[TokenId]) -> Vec<NodeId> {
        let n_blocks = tokens.len().div_ceil(B);
        let blocks = rtc.alloc_blocks(n_blocks).unwrap();
        let chain = rtc.insert_prefix(now, tokens, &blocks);
        rtc.free(&blocks); // request ends; tree refs keep the cache alive
        chain
    }

    #[test]
    fn full_lifecycle_hit() {
        let mut rtc = Rtc::new(cfg(64, 64));
        let tokens = toks(1, 64);
        prefill_and_cache(&mut rtc, SimTime::ZERO, &tokens);

        let m = rtc.match_by_prefix_token(&tokens);
        assert_eq!(m.tokens, 64);
        assert_eq!(m.npu_prefix_nodes, 4);
        let acq = rtc.acquire_prefix(SimTime::from_secs(1), &m);
        assert_eq!(acq.blocks.len(), 4);
        assert_eq!(acq.tokens(B), 64);
        // Blocks now referenced by tree + this request.
        rtc.release_prefix(&acq);
        rtc.free(&acq.blocks);
        // Cache must still be intact.
        let m2 = rtc.match_by_prefix_token(&tokens);
        assert_eq!(m2.tokens, 64);
    }

    #[test]
    fn pressure_demotes_to_dram_then_populate_restores() {
        let mut rtc = Rtc::new(cfg(4, 8));
        let a = toks(1, 64); // fills all 4 NPU blocks
        prefill_and_cache(&mut rtc, SimTime::ZERO, &a);
        assert_eq!(rtc.npu_free_blocks(), 0);

        // A new allocation forces eviction of `a`'s LRU leaves to DRAM.
        let blocks = rtc.alloc_blocks(2).unwrap();
        assert_eq!(rtc.counters().get("rtc.swap_out"), 2);

        // `a` still fully matches but its tail is in DRAM now.
        let m = rtc.match_by_prefix_token(&a);
        assert_eq!(m.tokens, 64);
        assert_eq!(m.npu_prefix_nodes, 2);

        // Free pressure, then populate the DRAM tail back.
        rtc.free(&blocks);
        let plan = rtc.populate(SimTime::from_secs(1), &m).unwrap();
        assert_eq!(plan.tokens, 32);
        assert_eq!(rtc.query_populate(plan.ticket), PopulateStatus::InFlight);
        rtc.complete_populate(plan.ticket);
        assert_eq!(rtc.query_populate(plan.ticket), PopulateStatus::Done);

        let m2 = rtc.match_by_prefix_token(&a);
        assert_eq!(m2.npu_prefix_nodes, 4, "fully NPU-resident again");
    }

    #[test]
    fn eviction_drops_when_dram_full() {
        let mut rtc = Rtc::new(cfg(2, 0));
        let a = toks(1, 32);
        prefill_and_cache(&mut rtc, SimTime::ZERO, &a);
        let _b = rtc.alloc_blocks(2).unwrap();
        assert_eq!(rtc.counters().get("rtc.evict_drop"), 2);
        assert_eq!(rtc.match_by_prefix_token(&a).tokens, 0, "cache gone");
    }

    #[test]
    fn alloc_fails_when_everything_is_pinned() {
        let mut rtc = Rtc::new(cfg(4, 4));
        let a = toks(1, 64);
        prefill_and_cache(&mut rtc, SimTime::ZERO, &a);
        let m = rtc.match_by_prefix_token(&a);
        let acq = rtc.acquire_prefix(SimTime::ZERO, &m); // pins all 4
        let err = rtc.alloc_blocks(1).unwrap_err();
        assert_eq!(err.requested, 1);
        rtc.release_prefix(&acq);
        rtc.free(&acq.blocks);
        assert!(rtc.alloc_blocks(1).is_ok(), "unpinned cache is evictable");
    }

    #[test]
    fn explicit_id_pins_against_eviction() {
        let mut rtc = Rtc::new(cfg(4, 0));
        let a = toks(1, 32);
        let chain = prefill_and_cache(&mut rtc, SimTime::ZERO, &a);
        rtc.register_id(CacheId(42), chain.clone());

        // Pressure would normally drop these (no DRAM pool), but the ID
        // pin protects them; only the 2 free blocks are allocatable.
        assert!(rtc.alloc_blocks(2).is_ok());
        assert!(rtc.alloc_blocks(1).is_err());

        let m = rtc.match_by_id(CacheId(42)).unwrap();
        assert_eq!(m.tokens, 32);
        assert_eq!(m.npu_prefix_nodes, 2);

        assert!(rtc.release_id(CacheId(42)));
        assert!(!rtc.release_id(CacheId(42)), "double release is a no-op");
        assert!(rtc.match_by_id(CacheId(42)).is_none());
    }

    #[test]
    fn copy_to_dram_frees_npu_blocks() {
        let mut rtc = Rtc::new(cfg(4, 8));
        let a = toks(1, 64);
        prefill_and_cache(&mut rtc, SimTime::ZERO, &a);
        assert_eq!(rtc.npu_free_blocks(), 0);
        let moved = rtc.copy_to_dram(2);
        assert_eq!(moved, 32);
        assert_eq!(rtc.npu_free_blocks(), 2);
        // Content is preserved in DRAM.
        let m = rtc.match_by_prefix_token(&a);
        assert_eq!(m.tokens, 64);
    }

    /// DRAM is full and the LRU NPU victim's only child is the source of
    /// an in-flight populate (pinned): the swapper must skip that victim,
    /// not retry it forever.
    #[test]
    fn copy_to_dram_skips_victim_with_pinned_dram_descendant() {
        let mut rtc = Rtc::new(cfg(4, 2));
        let a = toks(1, 64);
        prefill_and_cache(&mut rtc, SimTime::ZERO, &a);
        assert_eq!(rtc.copy_to_dram(2), 32, "tail two blocks fill DRAM");
        let m = rtc.match_by_prefix_token(&a);
        assert_eq!(m.npu_prefix_nodes, 2);
        let plan = rtc.populate(SimTime::from_secs(1), &m).unwrap();
        // The populate took both free HBM blocks and pinned the DRAM tail:
        // the only NPU victim is the second block, above a pinned DRAM one.
        assert_eq!(rtc.npu_free_blocks(), 0);
        assert_eq!(rtc.copy_to_dram(1), 0, "nothing can free HBM");
        rtc.complete_populate(plan.ticket);
        assert_eq!(rtc.match_by_prefix_token(&a).npu_prefix_nodes, 4);
    }

    /// Same pinned victim at the LRU head, with a newer cached prompt
    /// behind it: the swapper passes over the head and drops the newer one.
    #[test]
    fn copy_to_dram_evicts_past_an_unfreeable_head() {
        let mut rtc = Rtc::new(cfg(6, 2));
        let a = toks(1, 64);
        prefill_and_cache(&mut rtc, SimTime::ZERO, &a);
        assert_eq!(rtc.copy_to_dram(4), 32);
        let b = toks(2, 16);
        prefill_and_cache(&mut rtc, SimTime::from_secs(1), &b);
        let m = rtc.match_by_prefix_token(&a);
        let plan = rtc.populate(SimTime::from_secs(2), &m).unwrap();
        assert_eq!(rtc.npu_free_blocks(), 1);
        assert_eq!(rtc.copy_to_dram(2), 16);
        assert_eq!(rtc.counters().get("rtc.evict_drop"), 1);
        assert_eq!(rtc.match_by_prefix_token(&b).tokens, 0, "b was dropped");
        assert_eq!(rtc.copy_to_dram(3), 0, "only the pinned head is left");
        rtc.complete_populate(plan.ticket);
    }

    #[test]
    fn shared_prefix_across_requests_is_single_copy() {
        let mut rtc = Rtc::new(cfg(16, 0));
        let shared = toks(1, 32);
        let mut a = shared.clone();
        a.extend(toks(2, 32));
        let mut b = shared.clone();
        b.extend(toks(3, 32));
        prefill_and_cache(&mut rtc, SimTime::ZERO, &a);
        let used_after_a = 16 - rtc.npu_free_blocks();
        // Second request: match first, allocate only the novel part.
        let m = rtc.match_by_prefix_token(&b);
        assert_eq!(m.tokens, 32);
        let acq = rtc.acquire_prefix(SimTime::ZERO, &m);
        let novel = rtc.alloc_blocks(2).unwrap();
        let mut all = acq.blocks.clone();
        all.extend(&novel);
        rtc.insert_prefix(SimTime::ZERO, &b, &all);
        rtc.release_prefix(&acq);
        rtc.free(&all);
        let used_after_b = 16 - rtc.npu_free_blocks();
        assert_eq!(
            used_after_b,
            used_after_a + 2,
            "only b's novel blocks add to residency"
        );
    }

    #[test]
    fn populate_is_partial_under_extreme_pressure() {
        let mut rtc = Rtc::new(cfg(4, 8));
        let a = toks(1, 64);
        prefill_and_cache(&mut rtc, SimTime::ZERO, &a);
        // Push everything to DRAM.
        rtc.copy_to_dram(4);
        let m = rtc.match_by_prefix_token(&a);
        assert_eq!(m.npu_prefix_nodes, 0);
        // Occupy 2 NPU blocks with pinned private data.
        let held = rtc.alloc_blocks(2).unwrap();
        // Populate can only bring back 2 of the 4 blocks.
        let plan = rtc.populate(SimTime::ZERO, &m).unwrap();
        assert_eq!(plan.tokens, 32);
        rtc.complete_populate(plan.ticket);
        let m2 = rtc.match_by_prefix_token(&a);
        assert_eq!(m2.npu_prefix_nodes, 2);
        rtc.free(&held);
    }

    #[test]
    fn query_unknown_ticket() {
        let rtc = Rtc::new(cfg(4, 4));
        assert_eq!(
            rtc.query_populate(PopulateTicket(999)),
            PopulateStatus::Unknown
        );
    }
}
