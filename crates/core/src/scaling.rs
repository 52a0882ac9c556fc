//! Fast scaling: the five-step pipeline (Table 2), its optimizations, and
//! the TE-Load paths (local loading vs NPU-fork) — §6 of the paper.
//!
//! | # | Step         | Baseline issue            | Optimization            |
//! |---|--------------|---------------------------|-------------------------|
//! | 1 | Scaler-Pre   | pod allocation is slow    | pre-warmed pods         |
//! | 2 | TE-Pre-Load  | Python/NPU init is slow   | late import, parallel   |
//! |   |              |                           | init, pre-warmed TEs    |
//! | 3 | TE-Load      | model weights are large   | DRAM pre-load, NPU-fork |
//! | 4 | TE-Post-Load | warmup + block alloc slow | offline profiling,      |
//! |   |              |                           | async alloc, dummy req  |
//! | 5 | Scaler-Post  | TE-list retrieval polling | proactive pushing       |

use llm_model::{weights::TENSOR_INIT, Checkpoint, Parallelism};
use npu::hccl;
use npu::pagecache::PageCache;
use npu::specs::{ClusterSpec, LinkSpec};
use serde::Serialize;
use simcore::trace::{SpanId, Tracer};
use simcore::{SimDuration, SimTime};

/// Which optimizations are active.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct ScalingOptimizations {
    /// Reserve pre-warmed pods (workload-independent, infra-managed).
    pub prewarmed_pods: bool,
    /// Reserve pre-warmed TEs (model- and parallelism-agnostic SPMD
    /// master/executor pools).
    pub prewarmed_tes: bool,
    /// Late importing + parallel initialization in TE-Pre-Load ("optimized
    /// this step by approximately 35%").
    pub late_import_parallel_init: bool,
    /// Predictive DRAM pre-loading of checkpoints into the page cache.
    pub dram_preload: bool,
    /// NPU-fork: pull weights from a running TE over NPU-to-NPU links.
    pub npu_fork: bool,
    /// Offline-profiled HBM budgets instead of warmup profiling.
    pub offline_profiling: bool,
    /// Asynchronous CPU/NPU block allocation.
    pub async_block_alloc: bool,
    /// Dummy request post-startup (hides first-request slowdown).
    pub dummy_warmup: bool,
    /// Cluster manager pushes new TE lists to JEs instead of polling.
    pub proactive_push: bool,
}

impl ScalingOptimizations {
    /// Everything off — the "before" bars of Figure 8.
    pub fn none() -> Self {
        ScalingOptimizations {
            prewarmed_pods: false,
            prewarmed_tes: false,
            late_import_parallel_init: false,
            dram_preload: false,
            npu_fork: false,
            offline_profiling: false,
            async_block_alloc: false,
            dummy_warmup: false,
            proactive_push: false,
        }
    }

    /// Everything on — the "after" bars of Figure 8.
    pub fn all() -> Self {
        ScalingOptimizations {
            prewarmed_pods: true,
            prewarmed_tes: true,
            late_import_parallel_init: true,
            dram_preload: true,
            npu_fork: true,
            offline_profiling: true,
            async_block_alloc: true,
            dummy_warmup: true,
            proactive_push: true,
        }
    }
}

/// How TE-Load gets the weights onto the NPUs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum LoadPath {
    /// Stream from the local DRAM page cache over PCIe (pre-load hit).
    DramHit,
    /// Fault from local SSD (pre-load miss).
    DramMiss,
    /// Broadcast from a running TE over the scale-up fabric.
    NpuForkHccs {
        /// Simultaneous target TE count.
        fanout: usize,
    },
    /// Broadcast from a running TE over the scale-out fabric.
    NpuForkRoce {
        /// Simultaneous target TE count.
        fanout: usize,
    },
    /// λScale-style binary-tree multicast from a running TE: every TE
    /// that has received the weights immediately re-sends them, so the
    /// served population doubles each round and `fanout` targets finish
    /// in `ceil(log2(fanout + 1))` point-to-point rounds over the
    /// scale-out fabric.
    Multicast {
        /// Simultaneous target TE count.
        fanout: usize,
    },
}

/// What the NPU-fork source TE is busy doing (Figure 10 b/c sensitivity).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct SourceLoad {
    /// 0.0 = idle source, 1.0 = fully busy with prefill/decode.
    pub intensity: f64,
}

impl SourceLoad {
    /// An idle source TE.
    pub fn idle() -> Self {
        SourceLoad { intensity: 0.0 }
    }
}

/// Per-step durations of one scale-up.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct ScalingBreakdown {
    /// Step 1: pod creation.
    pub scaler_pre: SimDuration,
    /// Step 2: engine launch without model loading.
    pub te_pre_load: SimDuration,
    /// Step 3: weights onto NPUs.
    pub te_load: SimDuration,
    /// Step 4: engine ready to serve.
    pub te_post_load: SimDuration,
    /// Step 5: TE announced, first request routable.
    pub scaler_post: SimDuration,
    /// Extra latency the *first* request pays (when warmup is skipped and
    /// no dummy request was sent).
    pub first_request_penalty: SimDuration,
}

impl ScalingBreakdown {
    /// End-to-end scale-up latency (excluding the first-request penalty,
    /// which lands on the request, not the pipeline).
    pub fn total(&self) -> SimDuration {
        self.scaler_pre + self.te_pre_load + self.te_load + self.te_post_load + self.scaler_post
    }

    /// Records this scale-up as a `scale_up` span starting at `start` with
    /// the five Table 2 steps as contiguous child spans. Returns the parent
    /// span id ([`SpanId::NONE`] when the tracer is disabled).
    pub fn emit_trace(&self, tracer: &mut Tracer, start: SimTime) -> SpanId {
        if !tracer.is_enabled() {
            return SpanId::NONE;
        }
        let parent = tracer.start_span(
            start,
            "scale_up",
            vec![
                ("total_ns", self.total().as_nanos().into()),
                (
                    "first_request_penalty_ns",
                    self.first_request_penalty.as_nanos().into(),
                ),
            ],
        );
        let steps: [(&'static str, SimDuration); 5] = [
            ("scaler_pre", self.scaler_pre),
            ("te_pre_load", self.te_pre_load),
            ("te_load", self.te_load),
            ("te_post_load", self.te_post_load),
            ("scaler_post", self.scaler_post),
        ];
        let mut at = start;
        for (label, dur) in steps {
            let child = tracer.start_child(at, label, parent, vec![]);
            at += dur;
            tracer.end_span(at, child);
        }
        tracer.end_span(at, parent);
        parent
    }
}

// ---- Calibrated baseline step costs ----
// These mirror the relative magnitudes in Figure 8: TE-Pre-Load dominates,
// pod allocation and warmup are tens of seconds unoptimized, announcement
// is a polling interval.

/// Kubernetes-style pod allocation + container start, cold.
const SCALER_PRE_COLD: SimDuration = SimDuration::from_millis(30_000);
/// Attaching a pre-warmed pod.
const SCALER_PRE_WARM: SimDuration = SimDuration::from_millis(300);
/// Python import + NPU context init + HCCL mesh setup, cold.
const TE_PRE_LOAD_COLD: SimDuration = SimDuration::from_millis(40_000);
/// Late-import/parallel-init factor (§6.1: "approximately 35%").
const TE_PRE_LOAD_OPT_FACTOR: f64 = 0.65;
/// Adapting a pre-warmed TE (bind model-specific params, join group).
const TE_PRE_LOAD_WARM: SimDuration = SimDuration::from_millis(500);
/// Warmup profiling pass for HBM sizing, cold.
const WARMUP_PROFILE: SimDuration = SimDuration::from_millis(12_000);
/// Reading offline-profiled budgets from config.
const OFFLINE_PROFILE_READ: SimDuration = SimDuration::from_millis(200);
/// Synchronous CPU/NPU block allocation.
const BLOCK_ALLOC_SYNC: SimDuration = SimDuration::from_millis(2_000);
/// Async block allocation's residual on the critical path.
const BLOCK_ALLOC_ASYNC: SimDuration = SimDuration::from_millis(50);
/// The dummy post-startup request.
const DUMMY_REQUEST: SimDuration = SimDuration::from_millis(300);
/// First real request's extra cost when no warmup at all happened.
const FIRST_REQUEST_COLD_PENALTY: SimDuration = SimDuration::from_millis(1_500);
/// JE TE-list polling interval (expected wait = half).
const TE_LIST_POLL_EXPECTED: SimDuration = SimDuration::from_millis(2_500);
/// Proactive push latency.
const PROACTIVE_PUSH: SimDuration = SimDuration::from_millis(50);
/// NPU-fork control-plane setup (notify source, LinkCluster, handshake).
const NPU_FORK_SETUP: SimDuration = SimDuration::from_millis(150);
/// Source-contention ceiling: dedicated AICPU keeps the slowdown small
/// even under a fully busy source (Figure 10 b/c).
const FORK_CONTENTION_MAX: f64 = 0.08;
/// Multicast tree control plane: building the distribution tree and
/// handing each round its peer list (λScale's coordinator step).
const MULTICAST_SETUP: SimDuration = SimDuration::from_millis(200);

/// Prices scale-up operations for one cluster.
#[derive(Debug, Clone)]
pub struct ScalingModel {
    cluster: ClusterSpec,
}

impl ScalingModel {
    /// Creates a model for the cluster.
    pub fn new(cluster: ClusterSpec) -> Self {
        ScalingModel { cluster }
    }

    /// The cluster being scaled.
    pub fn cluster(&self) -> &ClusterSpec {
        &self.cluster
    }

    /// Step 1: Scaler-Pre.
    pub fn scaler_pre(&self, opts: ScalingOptimizations) -> SimDuration {
        if opts.prewarmed_pods {
            SCALER_PRE_WARM
        } else {
            SCALER_PRE_COLD
        }
    }

    /// Step 2: TE-Pre-Load.
    pub fn te_pre_load(&self, opts: ScalingOptimizations) -> SimDuration {
        if opts.prewarmed_tes {
            TE_PRE_LOAD_WARM
        } else if opts.late_import_parallel_init {
            TE_PRE_LOAD_COLD.mul_f64(TE_PRE_LOAD_OPT_FACTOR)
        } else {
            TE_PRE_LOAD_COLD
        }
    }

    /// Step 3: TE-Load over a given path. `source` matters only for
    /// NPU-fork.
    pub fn te_load(
        &self,
        ckpt: &Checkpoint,
        par: Parallelism,
        path: LoadPath,
        source: SourceLoad,
    ) -> SimDuration {
        let per_npu = ckpt.partition_bytes(par);
        let world = par.world_size() as usize;
        match path {
            LoadPath::DramHit => {
                // All ranks stream their partitions concurrently; PCIe
                // switch + root sharing sets the per-NPU bandwidth.
                let concurrent = world.min(self.cluster.server.chips_per_server);
                let bw = self.cluster.server.pcie_bw_per_npu(concurrent);
                SimDuration::from_secs_f64(per_npu as f64 / bw) + TENSOR_INIT
            }
            LoadPath::DramMiss => {
                // The SSD is the shared bottleneck: every rank's partition
                // faults through it.
                let on_this_server = world.min(self.cluster.server.chips_per_server) as u64;
                let total = per_npu * on_this_server;
                SimDuration::from_secs_f64(total as f64 / self.cluster.server.ssd_bw) + TENSOR_INIT
            }
            LoadPath::NpuForkHccs { fanout } => {
                self.fork_time(self.cluster.hccs, per_npu, fanout, source)
            }
            LoadPath::NpuForkRoce { fanout } => {
                self.fork_time(self.cluster.roce, per_npu, fanout, source)
            }
            LoadPath::Multicast { fanout } => self.multicast_time(per_npu, fanout, source),
        }
    }

    /// λScale binary-tree distribution over the scale-out fabric: in each
    /// round every weight-holding TE sends its partition to one new TE,
    /// so `fanout` targets are covered in `ceil(log2(fanout + 1))` rounds
    /// of point-to-point transfers. Only the first round contends with
    /// the original source's serving load — later rounds fan out from
    /// freshly forked TEs that are not serving yet.
    fn multicast_time(&self, per_npu: u64, fanout: usize, source: SourceLoad) -> SimDuration {
        if fanout == 0 {
            return TENSOR_INIT;
        }
        let rounds = (usize::BITS - fanout.leading_zeros()) as u64; // ceil(log2(fanout+1))
        let hop = hccl::p2p_time(&self.cluster.roce, per_npu);
        let contention = if self.cluster.server.chip.has_transfer_aicpu {
            1.0 + FORK_CONTENTION_MAX * source.intensity.clamp(0.0, 1.0)
        } else {
            1.0 + 0.5 * source.intensity.clamp(0.0, 1.0)
        };
        MULTICAST_SETUP + hop.mul_f64(contention) + hop.saturating_mul(rounds - 1) + TENSOR_INIT
    }

    fn fork_time(
        &self,
        link: LinkSpec,
        per_npu: u64,
        fanout: usize,
        source: SourceLoad,
    ) -> SimDuration {
        // Each source rank broadcasts its partition to the matching rank
        // of every target TE: participants = source + fanout targets.
        let t = hccl::broadcast_time(&link, fanout + 1, per_npu);
        let contention = if self.cluster.server.chip.has_transfer_aicpu {
            1.0 + FORK_CONTENTION_MAX * source.intensity.clamp(0.0, 1.0)
        } else {
            1.0 + 0.5 * source.intensity.clamp(0.0, 1.0)
        };
        NPU_FORK_SETUP + t.mul_f64(contention) + TENSOR_INIT
    }

    /// The "DRAM-theoretical" line of Figure 9: partition bytes over
    /// unshared PCIe, no framework overhead.
    pub fn te_load_theoretical(&self, ckpt: &Checkpoint, par: Parallelism) -> SimDuration {
        let per_npu = ckpt.partition_bytes(par);
        SimDuration::from_secs_f64(per_npu as f64 / self.cluster.server.pcie_bw_unshared())
    }

    /// Step 4: TE-Post-Load, plus the first-request penalty it implies.
    pub fn te_post_load(&self, opts: ScalingOptimizations) -> (SimDuration, SimDuration) {
        let profile = if opts.offline_profiling {
            OFFLINE_PROFILE_READ
        } else {
            WARMUP_PROFILE
        };
        let alloc = if opts.async_block_alloc {
            BLOCK_ALLOC_ASYNC
        } else {
            BLOCK_ALLOC_SYNC
        };
        let dummy = if opts.dummy_warmup {
            DUMMY_REQUEST
        } else {
            SimDuration::ZERO
        };
        // Skipping warmup without the dummy request moves cost onto the
        // first real request (§6: "To address the slowdown of the first
        // request after removing warmup, we added a dummy message").
        let penalty = if opts.offline_profiling && !opts.dummy_warmup {
            FIRST_REQUEST_COLD_PENALTY
        } else {
            SimDuration::ZERO
        };
        (profile + alloc + dummy, penalty)
    }

    /// Step 5: Scaler-Post.
    pub fn scaler_post(&self, opts: ScalingOptimizations) -> SimDuration {
        if opts.proactive_push {
            PROACTIVE_PUSH
        } else {
            TE_LIST_POLL_EXPECTED
        }
    }

    /// Full five-step breakdown for one scale-up.
    pub fn breakdown(
        &self,
        ckpt: &Checkpoint,
        par: Parallelism,
        opts: ScalingOptimizations,
        path: LoadPath,
        source: SourceLoad,
    ) -> ScalingBreakdown {
        let (post, penalty) = self.te_post_load(opts);
        ScalingBreakdown {
            scaler_pre: self.scaler_pre(opts),
            te_pre_load: self.te_pre_load(opts),
            te_load: self.te_load(ckpt, par, path, source),
            te_post_load: post,
            scaler_post: self.scaler_post(opts),
            first_request_penalty: penalty,
        }
    }

    /// Picks the best available load path given the runtime context,
    /// mirroring the master's decision: NPU-fork when enabled and a source
    /// TE runs this model (never during cold start from zero TEs), else
    /// local load whose speed depends on page-cache residency.
    #[expect(
        clippy::too_many_arguments,
        reason = "mirrors the master's full decision context"
    )]
    pub fn choose_path(
        &self,
        opts: ScalingOptimizations,
        running_sources: usize,
        page_cache: &PageCache,
        ckpt: &Checkpoint,
        par: Parallelism,
        same_hccs_domain: bool,
        fanout: usize,
    ) -> LoadPath {
        if opts.npu_fork && running_sources > 0 {
            return if same_hccs_domain {
                LoadPath::NpuForkHccs { fanout }
            } else {
                LoadPath::NpuForkRoce { fanout }
            };
        }
        // Check residency of rank 0's partition as a proxy for the whole
        // checkpoint (pre-loading faults whole files).
        let r = ckpt.partition(par, 0);
        let resident = page_cache.resident_bytes(ckpt.file, r);
        if resident >= r.len() / 2 {
            LoadPath::DramHit
        } else {
            LoadPath::DramMiss
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llm_model::ModelSpec;
    use npu::pagecache::FileId;

    fn model() -> (ScalingModel, Checkpoint) {
        (
            ScalingModel::new(ClusterSpec::gen2_cluster(4)),
            Checkpoint::new(FileId(1), ModelSpec::internal_34b()),
        )
    }

    #[test]
    fn optimizations_shrink_every_step() {
        let (m, ckpt) = model();
        let par = Parallelism::tp(4);
        let before = m.breakdown(
            &ckpt,
            par,
            ScalingOptimizations::none(),
            LoadPath::DramMiss,
            SourceLoad::idle(),
        );
        let after = m.breakdown(
            &ckpt,
            par,
            ScalingOptimizations::all(),
            LoadPath::NpuForkHccs { fanout: 1 },
            SourceLoad::idle(),
        );
        assert!(after.scaler_pre < before.scaler_pre);
        assert!(after.te_pre_load < before.te_pre_load);
        assert!(after.te_load < before.te_load);
        assert!(after.te_post_load < before.te_post_load);
        assert!(after.scaler_post < before.scaler_post);
        // Unoptimized total is over a minute; optimized is seconds.
        assert!(
            before.total() > SimDuration::from_secs(60),
            "{:?}",
            before.total()
        );
        assert!(
            after.total() < SimDuration::from_secs(5),
            "{:?}",
            after.total()
        );
    }

    #[test]
    fn te_pre_load_dominates_after_non_prewarm_opts() {
        // Figure 8: "Even after optimization, the TE-Pre-load step remains
        // the dominant factor ... though this can be further reduced
        // through pre-warming."
        let (m, ckpt) = model();
        let opts = ScalingOptimizations {
            prewarmed_tes: false,
            ..ScalingOptimizations::all()
        };
        let b = m.breakdown(
            &ckpt,
            Parallelism::tp(4),
            opts,
            LoadPath::DramHit,
            SourceLoad::idle(),
        );
        assert!(b.te_pre_load > b.scaler_pre);
        assert!(b.te_pre_load > b.te_load);
        assert!(b.te_pre_load > b.te_post_load + b.scaler_post);
    }

    #[test]
    fn dram_hit_beats_miss_and_theoretical_beats_both() {
        let (m, ckpt) = model();
        let par = Parallelism::tp(4);
        let hit = m.te_load(&ckpt, par, LoadPath::DramHit, SourceLoad::idle());
        let miss = m.te_load(&ckpt, par, LoadPath::DramMiss, SourceLoad::idle());
        let theory = m.te_load_theoretical(&ckpt, par);
        assert!(hit < miss, "hit {hit} vs miss {miss}");
        assert!(theory < hit, "theory {theory} vs hit {hit}");
    }

    #[test]
    fn pcie_sharing_slows_larger_tp() {
        // Figure 9: per-NPU bytes are ~constant across models at their
        // production TP, but loading time grows with TP rank.
        let m = ScalingModel::new(ClusterSpec::gen2_cluster(4));
        let ckpt8 = Checkpoint::new(FileId(1), ModelSpec::llama3_8b());
        let ckpt70 = Checkpoint::new(FileId(2), ModelSpec::llama3_70b());
        let t_8b_tp1 = m.te_load(
            &ckpt8,
            Parallelism::tp(1),
            LoadPath::DramHit,
            SourceLoad::idle(),
        );
        let t_70b_tp8 = m.te_load(
            &ckpt70,
            Parallelism::tp(8),
            LoadPath::DramHit,
            SourceLoad::idle(),
        );
        // 70B@TP8 per-NPU bytes (16.4 GB) ~= 8B@TP1 (16.1 GB), but the
        // TP8 load shares PCIe and must be slower.
        assert!(t_70b_tp8.as_secs_f64() > 1.5 * t_8b_tp1.as_secs_f64());
    }

    #[test]
    fn hccs_fork_beats_roce_and_local() {
        let (m, ckpt) = model();
        let par = Parallelism::tp(4);
        let hccs = m.te_load(
            &ckpt,
            par,
            LoadPath::NpuForkHccs { fanout: 1 },
            SourceLoad::idle(),
        );
        let roce = m.te_load(
            &ckpt,
            par,
            LoadPath::NpuForkRoce { fanout: 1 },
            SourceLoad::idle(),
        );
        let hit = m.te_load(&ckpt, par, LoadPath::DramHit, SourceLoad::idle());
        assert!(hccs < roce);
        assert!(hccs < hit);
    }

    #[test]
    fn fork_scales_nearly_flat_to_64() {
        // Figure 10a: broadcast makes scaling to 64 TEs barely slower than 1.
        let m = ScalingModel::new(ClusterSpec::gen2_cluster(16));
        let ckpt = Checkpoint::new(FileId(1), ModelSpec::llama3_8b());
        let par = Parallelism::tp(1);
        let t1 = m.te_load(
            &ckpt,
            par,
            LoadPath::NpuForkHccs { fanout: 1 },
            SourceLoad::idle(),
        );
        let t64 = m.te_load(
            &ckpt,
            par,
            LoadPath::NpuForkHccs { fanout: 64 },
            SourceLoad::idle(),
        );
        assert!(t64 > t1);
        assert!(
            t64.as_secs_f64() < 1.6 * t1.as_secs_f64(),
            "t1={t1} t64={t64}"
        );
    }

    #[test]
    fn busy_source_adds_bounded_contention() {
        // Figure 10 b/c: dedicated AICPU keeps contention limited.
        let (m, ckpt) = model();
        let par = Parallelism::tp(4);
        let idle = m.te_load(
            &ckpt,
            par,
            LoadPath::NpuForkHccs { fanout: 8 },
            SourceLoad::idle(),
        );
        let busy = m.te_load(
            &ckpt,
            par,
            LoadPath::NpuForkHccs { fanout: 8 },
            SourceLoad { intensity: 1.0 },
        );
        assert!(busy > idle);
        assert!(busy.as_secs_f64() < 1.15 * idle.as_secs_f64());
    }

    #[test]
    fn skipping_warmup_without_dummy_penalizes_first_request() {
        let (m, _) = model();
        let mut opts = ScalingOptimizations::all();
        opts.dummy_warmup = false;
        let (_, penalty) = m.te_post_load(opts);
        assert!(penalty > SimDuration::ZERO);
        let (_, none) = m.te_post_load(ScalingOptimizations::all());
        assert_eq!(none, SimDuration::ZERO);
    }

    #[test]
    fn emit_trace_records_five_contiguous_steps() {
        use simcore::trace::TraceLevel;
        let (m, ckpt) = model();
        let b = m.breakdown(
            &ckpt,
            Parallelism::tp(4),
            ScalingOptimizations::all(),
            LoadPath::NpuForkHccs { fanout: 1 },
            SourceLoad::idle(),
        );
        let mut tracer = Tracer::enabled(TraceLevel::Lifecycle, 64);
        let start = SimTime::from_secs(10);
        let parent = b.emit_trace(&mut tracer, start);
        assert!(parent.is_some());
        let trace = tracer.take();
        let root = trace.spans_labeled("scale_up").next().expect("parent span");
        assert_eq!(root.start, start);
        assert_eq!(root.end, Some(start + b.total()));
        let children: Vec<_> = trace.spans.iter().filter(|s| s.parent == parent).collect();
        assert_eq!(children.len(), 5);
        let expected = [
            "scaler_pre",
            "te_pre_load",
            "te_load",
            "te_post_load",
            "scaler_post",
        ];
        let mut cursor = start;
        for (child, label) in children.iter().zip(expected) {
            assert_eq!(child.label, label);
            assert_eq!(child.start, cursor, "steps are contiguous");
            cursor = child.end.expect("closed child span");
        }
        assert_eq!(cursor, start + b.total(), "children sum to the total");

        // Disabled tracer: nothing recorded, NONE returned.
        let mut off = Tracer::disabled();
        assert_eq!(b.emit_trace(&mut off, start), SpanId::NONE);
        assert!(off.take().is_empty());
    }

    #[test]
    fn path_choice_follows_runtime_context() {
        let (m, ckpt) = model();
        let par = Parallelism::tp(4);
        let mut pc = PageCache::new(100 * (1 << 30));
        let opts = ScalingOptimizations::all();
        // A running source => fork.
        assert!(matches!(
            m.choose_path(opts, 1, &pc, &ckpt, par, true, 4),
            LoadPath::NpuForkHccs { fanout: 4 }
        ));
        assert!(matches!(
            m.choose_path(opts, 1, &pc, &ckpt, par, false, 4),
            LoadPath::NpuForkRoce { .. }
        ));
        // Cold start (no sources): falls back to local; cold cache => miss.
        assert!(matches!(
            m.choose_path(opts, 0, &pc, &ckpt, par, true, 1),
            LoadPath::DramMiss
        ));
        // Pre-load, then it's a hit.
        let r = ckpt.partition(par, 0);
        pc.preload(ckpt.file, r);
        assert!(matches!(
            m.choose_path(opts, 0, &pc, &ckpt, par, true, 1),
            LoadPath::DramHit
        ));
    }

    #[test]
    fn multicast_rounds_grow_logarithmically() {
        let (m, ckpt) = model();
        let par = Parallelism::tp(4);
        let t = |fanout| {
            m.te_load(
                &ckpt,
                par,
                LoadPath::Multicast { fanout },
                SourceLoad::idle(),
            )
        };
        // Doubling the fanout adds exactly one more p2p round.
        let (t1, t2, t4, t8) = (t(1), t(2), t(4), t(8));
        let round = t2 - t1;
        assert!(round > SimDuration::ZERO);
        assert_eq!(t4 - t2, round.saturating_mul(1));
        assert_eq!(t8 - t4, round);
        // 1023 targets = 10 rounds; far cheaper than 1023 sequential sends.
        let t1023 = t(1023);
        assert_eq!(t1023 - t1, round.saturating_mul(9));
    }

    #[test]
    fn multicast_beats_sequential_p2p_and_tracks_broadcast_at_scale() {
        let (m, ckpt) = model();
        let par = Parallelism::tp(4);
        let per_npu = ckpt.partition_bytes(par);
        let fanout = 64;
        let tree = m.te_load(
            &ckpt,
            par,
            LoadPath::Multicast { fanout },
            SourceLoad::idle(),
        );
        // One source sending to 64 targets one after another.
        let sequential =
            hccl::p2p_time(&m.cluster().roce, per_npu).saturating_mul(fanout as u64) + TENSOR_INIT;
        assert!(
            tree < sequential.div(4),
            "binary tree ({tree:?}) must crush sequential p2p ({sequential:?})"
        );
    }

    #[test]
    fn busy_multicast_source_only_slows_the_first_round() {
        let (m, ckpt) = model();
        let par = Parallelism::tp(4);
        let idle = m.te_load(
            &ckpt,
            par,
            LoadPath::Multicast { fanout: 8 },
            SourceLoad::idle(),
        );
        let busy = m.te_load(
            &ckpt,
            par,
            LoadPath::Multicast { fanout: 8 },
            SourceLoad { intensity: 1.0 },
        );
        assert!(busy > idle);
        // The slowdown is bounded by one round's contention ceiling.
        let hop = hccl::p2p_time(&m.cluster().roce, ckpt.partition_bytes(par));
        assert!(busy - idle <= hop.mul_f64(FORK_CONTENTION_MAX + 1e-9));
    }
}
