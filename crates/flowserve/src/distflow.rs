//! Distributed Flow (DistFlow): the tensor transfer engine.
//!
//! DistFlow's "core function is to *transfer* tensors across tiered storage
//! within a single TE and between distributed TEs in a peer-to-peer manner"
//! (§4.4). It exposes a control plane (`LinkCluster`) and one data-plane
//! verb, `transfer(srcInfo, dstInfo)`, over raw buffer descriptors — no
//! block abstraction, exactly as the paper specifies. Backends are chosen by
//! topology: memory-copy primitives inside a SuperPod's shared-memory
//! domain, HCCL peer-to-peer over HCCS, RoCE across domains.
//!
//! In this reproduction DistFlow is the *planning* layer: it validates
//! links, sizes transfers, picks backends and tracks statistics. Actually
//! spending simulated time happens where the clock lives — the fabric
//! ([`npu::Fabric`]) for cross-TE traffic, the engine's PCIe channels for
//! intra-TE tier moves. That split mirrors the real system, where DistFlow's
//! scalable threading model hands bytes to NICs it does not own.

use npu::fabric::LinkKind;
use npu::specs::NpuId;
use serde::Serialize;
use simcore::trace::{Trace, TraceLevel, Tracer};
use simcore::{Counters, SimTime};
use std::collections::HashSet;

/// A memory tier a buffer can live in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum MemTier {
    /// Device HBM.
    Hbm,
    /// Host DRAM.
    Dram,
    /// Local SSD.
    Ssd,
}

/// A raw buffer descriptor — DistFlow "does not operate with a block-based
/// abstraction"; callers hand it addresses and sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct BufferInfo {
    /// The NPU whose address space (or host) holds the buffer.
    pub npu: NpuId,
    /// Tier the bytes live in.
    pub tier: MemTier,
    /// Buffer length in bytes.
    pub bytes: u64,
}

/// Transfer backend, selected per the cluster generation (§4.4: "In a
/// regular Ascend cluster, we primarily use HCCL peer-to-peer APIs, while in
/// Ascend SuperPod, we adapt to standard memory copy primitives").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Backend {
    /// `memcpy`-class primitives: same NPU, or SuperPod global shared
    /// memory.
    Memcpy,
    /// HCCL `send`/`recv` over the scale-up fabric.
    HcclP2p,
    /// RDMA over the scale-out fabric.
    Roce,
}

/// A planned transfer, ready for the clock owner to execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct TransferPlan {
    /// Source endpoint NPU.
    pub src: NpuId,
    /// Destination endpoint NPU.
    pub dst: NpuId,
    /// Bytes to move.
    pub bytes: u64,
    /// Backend DistFlow selected.
    pub backend: Backend,
    /// Whether the move crosses TE/host boundaries (fabric) or stays on
    /// the local PCIe/HBM complex.
    pub crosses_fabric: bool,
}

/// Errors from the DistFlow control/data plane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DistFlowError {
    /// `transfer` between endpoints that were never linked.
    NotLinked { src: NpuId, dst: NpuId },
    /// Source and destination sizes disagree.
    SizeMismatch { src_bytes: u64, dst_bytes: u64 },
}

impl std::fmt::Display for DistFlowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistFlowError::NotLinked { src, dst } => {
                write!(f, "no LinkCluster connection between {src:?} and {dst:?}")
            }
            DistFlowError::SizeMismatch {
                src_bytes,
                dst_bytes,
            } => write!(
                f,
                "buffer size mismatch: src {src_bytes} vs dst {dst_bytes}"
            ),
        }
    }
}

impl std::error::Error for DistFlowError {}

/// The DistFlow module instance owned by one engine executor (or the
/// platform, for cross-TE moves).
#[derive(Debug)]
pub struct DistFlow {
    /// Whether endpoints share a global-shared-memory domain (SuperPod).
    superpod_shared_memory: bool,
    /// Established peer links (unordered pairs), from `LinkCluster`.
    links: HashSet<(NpuId, NpuId)>,
    counters: Counters,
    tracer: Tracer,
}

fn pair(a: NpuId, b: NpuId) -> (NpuId, NpuId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

impl DistFlow {
    /// Creates a DistFlow instance. `superpod_shared_memory` selects the
    /// memcpy backend for intra-domain traffic.
    pub fn new(superpod_shared_memory: bool) -> Self {
        DistFlow {
            superpod_shared_memory,
            links: HashSet::new(),
            counters: Counters::new(),
            tracer: Tracer::disabled(),
        }
    }

    /// Turns on sim-time tracing of planned transfers.
    pub fn enable_tracing(&mut self, level: TraceLevel, capacity: usize) {
        self.tracer = Tracer::enabled(level, capacity);
    }

    /// Drains everything traced so far.
    pub fn take_trace(&mut self) -> Trace {
        self.tracer.take()
    }

    /// Control plane: establishes connections among all pairs of `peers`
    /// (the paper's `LinkCluster`).
    pub fn link_cluster(&mut self, peers: &[NpuId]) {
        for (i, &a) in peers.iter().enumerate() {
            for &b in &peers[i + 1..] {
                self.links.insert(pair(a, b));
            }
        }
        self.counters.incr("distflow.link_cluster");
    }

    /// Whether two endpoints are linked (same endpoint is always linked).
    pub fn is_linked(&self, a: NpuId, b: NpuId) -> bool {
        a == b || self.links.contains(&pair(a, b))
    }

    /// Control plane: tears down every link touching `npu` (TE failure /
    /// deregistration). Re-linking after repair is `link_cluster` again —
    /// link establishment is idempotent set insertion.
    pub fn unlink_npu(&mut self, npu: NpuId) {
        let before = self.links.len();
        self.links.retain(|&(a, b)| a != npu && b != npu);
        if self.links.len() != before {
            self.counters.incr("distflow.unlink_npu");
        }
    }

    /// Data plane: plans `transfer(srcInfo, dstInfo)`. Validates the link
    /// and sizes, picks a backend by topology, and returns the plan for the
    /// clock owner to execute.
    pub fn transfer(
        &mut self,
        src: BufferInfo,
        dst: BufferInfo,
        link_kind: LinkKind,
    ) -> Result<TransferPlan, DistFlowError> {
        self.transfer_at(SimTime::ZERO, src, dst, link_kind)
    }

    /// [`DistFlow::transfer`] with a sim-time stamp for tracing and link
    /// occupancy accounting. Planning itself is instantaneous; `now` only
    /// timestamps the emitted records.
    pub fn transfer_at(
        &mut self,
        now: SimTime,
        src: BufferInfo,
        dst: BufferInfo,
        link_kind: LinkKind,
    ) -> Result<TransferPlan, DistFlowError> {
        if src.bytes != dst.bytes {
            return Err(DistFlowError::SizeMismatch {
                src_bytes: src.bytes,
                dst_bytes: dst.bytes,
            });
        }
        if !self.is_linked(src.npu, dst.npu) {
            return Err(DistFlowError::NotLinked {
                src: src.npu,
                dst: dst.npu,
            });
        }
        let backend = match link_kind {
            LinkKind::Local => Backend::Memcpy,
            LinkKind::Hccs => {
                if self.superpod_shared_memory {
                    Backend::Memcpy
                } else {
                    Backend::HcclP2p
                }
            }
            LinkKind::Roce => Backend::Roce,
        };
        self.counters.incr("distflow.transfers");
        self.counters.add("distflow.bytes", src.bytes);
        if self.tracer.is_enabled() {
            let backend_name = match backend {
                Backend::Memcpy => "memcpy",
                Backend::HcclP2p => "hccl_p2p",
                Backend::Roce => "roce",
            };
            self.tracer.event(
                now,
                "distflow.transfer",
                vec![
                    ("src_server", src.npu.server.into()),
                    ("src_chip", src.npu.chip.into()),
                    ("dst_server", dst.npu.server.into()),
                    ("dst_chip", dst.npu.chip.into()),
                    ("bytes", src.bytes.into()),
                    ("backend", backend_name.into()),
                    ("crosses_fabric", (src.npu != dst.npu).into()),
                ],
            );
        }
        Ok(TransferPlan {
            src: src.npu,
            dst: dst.npu,
            bytes: src.bytes,
            backend,
            crosses_fabric: src.npu != dst.npu,
        })
    }

    /// Transfer statistics.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn buf(npu: NpuId, tier: MemTier, bytes: u64) -> BufferInfo {
        BufferInfo { npu, tier, bytes }
    }

    #[test]
    fn link_cluster_connects_all_pairs() {
        let mut df = DistFlow::new(false);
        let peers = [NpuId::new(0, 0), NpuId::new(0, 1), NpuId::new(1, 0)];
        df.link_cluster(&peers);
        for (i, &a) in peers.iter().enumerate() {
            for &b in &peers[i + 1..] {
                assert!(df.is_linked(a, b));
                assert!(df.is_linked(b, a), "links are symmetric");
            }
        }
        assert!(!df.is_linked(peers[0], NpuId::new(3, 3)));
    }

    #[test]
    fn unlinked_transfer_is_rejected() {
        let mut df = DistFlow::new(false);
        let err = df
            .transfer(
                buf(NpuId::new(0, 0), MemTier::Hbm, 100),
                buf(NpuId::new(1, 0), MemTier::Hbm, 100),
                LinkKind::Roce,
            )
            .unwrap_err();
        assert!(matches!(err, DistFlowError::NotLinked { .. }));
    }

    #[test]
    fn size_mismatch_is_rejected() {
        let mut df = DistFlow::new(false);
        let a = NpuId::new(0, 0);
        let err = df
            .transfer(
                buf(a, MemTier::Hbm, 100),
                buf(a, MemTier::Dram, 200),
                LinkKind::Local,
            )
            .unwrap_err();
        assert!(matches!(err, DistFlowError::SizeMismatch { .. }));
    }

    #[test]
    fn backend_follows_topology() {
        let mut df = DistFlow::new(false);
        let a = NpuId::new(0, 0);
        let b = NpuId::new(0, 1);
        let c = NpuId::new(1, 0);
        df.link_cluster(&[a, b, c]);
        let hccs = df
            .transfer(
                buf(a, MemTier::Hbm, 64),
                buf(b, MemTier::Hbm, 64),
                LinkKind::Hccs,
            )
            .unwrap();
        assert_eq!(hccs.backend, Backend::HcclP2p);
        assert!(hccs.crosses_fabric);
        let roce = df
            .transfer(
                buf(a, MemTier::Hbm, 64),
                buf(c, MemTier::Hbm, 64),
                LinkKind::Roce,
            )
            .unwrap();
        assert_eq!(roce.backend, Backend::Roce);
        let local = df
            .transfer(
                buf(a, MemTier::Hbm, 64),
                buf(a, MemTier::Dram, 64),
                LinkKind::Local,
            )
            .unwrap();
        assert_eq!(local.backend, Backend::Memcpy);
        assert!(!local.crosses_fabric);
    }

    #[test]
    fn superpod_prefers_memcpy_over_hccs() {
        let mut df = DistFlow::new(true);
        let a = NpuId::new(0, 0);
        let b = NpuId::new(2, 0);
        df.link_cluster(&[a, b]);
        let plan = df
            .transfer(
                buf(a, MemTier::Hbm, 64),
                buf(b, MemTier::Hbm, 64),
                LinkKind::Hccs,
            )
            .unwrap();
        assert_eq!(plan.backend, Backend::Memcpy);
    }

    #[test]
    fn stats_accumulate() {
        let mut df = DistFlow::new(false);
        let a = NpuId::new(0, 0);
        for _ in 0..3 {
            df.transfer(
                buf(a, MemTier::Hbm, 1000),
                buf(a, MemTier::Dram, 1000),
                LinkKind::Local,
            )
            .unwrap();
        }
        assert_eq!(df.counters().get("distflow.transfers"), 3);
        assert_eq!(df.counters().get("distflow.bytes"), 3000);
    }
}
