//! Roofline execution-cost model: how long one engine iteration takes.
//!
//! This is the leaf substitution for "run a forward pass on the NPUs"
//! (DESIGN.md). The model is the standard serving roofline:
//!
//! * **prefill** is compute-bound — linear FLOPs `2 * params * tokens` plus
//!   quadratic attention, divided over the TP group's peak at a calibrated
//!   MFU;
//! * **decode** is memory-bound — every iteration streams the weight
//!   partition plus the batch's KV cache through HBM;
//! * **TP communication** adds two ring all-reduces per layer of
//!   `tokens * hidden` activations.
//!
//! One iteration's time is `max(compute, memory) + comm`: compute and
//! memory overlap inside the cores, communication (mostly) does not. The
//! engine's scheduler composes these into continuous batching, chunked
//! prefill and pipeline parallelism; this module only prices a single
//! forward pass.

use crate::parallel::Parallelism;
use crate::spec::ModelSpec;
use npu::hccl;
use npu::specs::{ChipSpec, LinkSpec};
use serde::Serialize;
use simcore::SimDuration;

/// Fraction of peak FLOPs dense prefill actually achieves.
pub const PREFILL_MFU: f64 = 0.45;
/// Fraction of peak HBM bandwidth decode streaming achieves.
pub const DECODE_HBM_EFFICIENCY: f64 = 0.8;
/// Per-iteration fixed kernel-launch/framework floor on the device,
/// independent of batch content.
pub const ITERATION_FLOOR_US: u64 = 500;

/// Work contained in one engine iteration (one forward pass).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct BatchWork {
    /// New prompt tokens prefilling this step (post chunking).
    pub prefill_tokens: u64,
    /// KV context already present for those prefill tokens (prefix-cache
    /// hits or earlier chunks); attention cost covers it.
    pub prefill_context: u64,
    /// Decode sequences generating one token each.
    pub decode_seqs: u64,
    /// Total KV context across the decode sequences.
    pub decode_context_total: u64,
}

impl BatchWork {
    /// Pure-prefill work item.
    pub fn prefill(tokens: u64, cached_context: u64) -> Self {
        BatchWork {
            prefill_tokens: tokens,
            prefill_context: cached_context,
            ..Default::default()
        }
    }

    /// Pure-decode work item.
    pub fn decode(seqs: u64, context_total: u64) -> Self {
        BatchWork {
            decode_seqs: seqs,
            decode_context_total: context_total,
            ..Default::default()
        }
    }

    /// Whether this step does nothing.
    pub fn is_empty(&self) -> bool {
        self.prefill_tokens == 0 && self.decode_seqs == 0
    }

    /// Tokens entering the batch (prefill chunk + one per decode seq) —
    /// the activation row count for communication sizing.
    pub fn batch_tokens(&self) -> u64 {
        self.prefill_tokens + self.decode_seqs
    }
}

/// Where one iteration's time went.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct StepBreakdown {
    /// Compute-bound component (seconds).
    pub compute_s: f64,
    /// Memory-bound component (seconds).
    pub memory_s: f64,
    /// TP/PP communication component (seconds).
    pub comm_s: f64,
    /// Fixed iteration floor (seconds).
    pub floor_s: f64,
}

impl StepBreakdown {
    /// Total iteration time: roofline max of compute/memory, plus comm and
    /// the fixed floor.
    pub fn total(&self) -> SimDuration {
        SimDuration::from_secs_f64(self.compute_s.max(self.memory_s) + self.comm_s + self.floor_s)
    }
}

/// Prices forward passes for one (chip, link, model, parallelism) tuple.
#[derive(Debug, Clone)]
pub struct ExecCostModel {
    chip: ChipSpec,
    /// Link used for TP collectives (HCCS within a server).
    tp_link: LinkSpec,
    model: ModelSpec,
    par: Parallelism,
}

impl ExecCostModel {
    /// Creates a cost model.
    ///
    /// # Panics
    ///
    /// Panics if the parallelism is invalid for the model (see
    /// [`Parallelism::validate`]).
    #[expect(
        clippy::panic,
        reason = "construction-time config validation, documented under # Panics; \
                  failing fast here beats simulating a physically impossible parallelism"
    )]
    pub fn new(chip: ChipSpec, tp_link: LinkSpec, model: ModelSpec, par: Parallelism) -> Self {
        if let Err(e) = par.validate(&model) {
            panic!("ExecCostModel: invalid parallelism for {}: {e}", model.name);
        }
        ExecCostModel {
            chip,
            tp_link,
            model,
            par,
        }
    }

    /// The model being priced.
    pub fn model(&self) -> &ModelSpec {
        &self.model
    }

    /// The parallelism configuration.
    pub fn parallelism(&self) -> Parallelism {
        self.par
    }

    /// The chip this model runs on.
    pub fn chip(&self) -> &ChipSpec {
        &self.chip
    }

    /// Detailed cost of one iteration.
    pub fn step_breakdown(&self, w: &BatchWork) -> StepBreakdown {
        if w.is_empty() {
            return StepBreakdown::default();
        }
        let tp = self.par.tp as f64;

        // ---- compute ----
        let mut flops = 0.0;
        if w.prefill_tokens > 0 {
            flops += self.model.linear_flops_per_token() * w.prefill_tokens as f64;
            // Each prefill token attends to the cached context plus, on
            // average, half of its own chunk (causal attention).
            let avg_kv = w.prefill_context + w.prefill_tokens / 2;
            flops += self.model.attn_flops_per_token(avg_kv) * w.prefill_tokens as f64;
        }
        if w.decode_seqs > 0 {
            flops += self.model.linear_flops_per_token() * w.decode_seqs as f64;
            let avg_ctx = w.decode_context_total / w.decode_seqs.max(1);
            flops += self.model.attn_flops_per_token(avg_ctx) * w.decode_seqs as f64;
        }
        // All PP stages together hold `tp * pp` NPUs but a forward pass
        // visits stages serially, so the effective compute width is `tp`.
        let compute_s = flops / (tp * self.chip.flops() * PREFILL_MFU);

        // ---- memory ----
        // Per iteration each NPU streams its weight slice; summed across the
        // serial PP stages that is weights/tp. KV traffic: decode reads the
        // whole context per seq, prefill writes its new KV and reads cached
        // context once.
        let kv_per_tok = self.model.kv_bytes_per_token() as f64 / tp;
        let mut mem_bytes = self.model.weight_bytes() as f64 / tp;
        mem_bytes += w.decode_context_total as f64 * kv_per_tok;
        mem_bytes += (w.prefill_tokens + w.prefill_context) as f64 * kv_per_tok;
        let memory_s = mem_bytes / (self.chip.hbm_bw * DECODE_HBM_EFFICIENCY);

        // ---- communication ----
        let mut comm_s = 0.0;
        if self.par.tp > 1 {
            let bytes_per_layer =
                w.batch_tokens() * self.model.hidden as u64 * self.model.dtype_bytes as u64
                    / self.par.sp as u64;
            let per_layer =
                hccl::all_reduce_time(&self.tp_link, self.par.tp as usize, bytes_per_layer);
            comm_s += per_layer.as_secs_f64() * (2 * self.model.num_layers) as f64;
        }
        if self.par.pp > 1 {
            // Activation handoff between consecutive stages.
            let act_bytes =
                w.batch_tokens() * self.model.hidden as u64 * self.model.dtype_bytes as u64;
            let hop = hccl::p2p_time(&self.tp_link, act_bytes);
            comm_s += hop.as_secs_f64() * (self.par.pp - 1) as f64;
        }

        StepBreakdown {
            compute_s,
            memory_s,
            comm_s,
            floor_s: ITERATION_FLOOR_US as f64 / 1e6,
        }
    }

    /// Total time of one iteration.
    pub fn step_time(&self, w: &BatchWork) -> SimDuration {
        self.step_breakdown(w).total()
    }

    /// Convenience: full prefill of a `seq_len`-token prompt with
    /// `cached` tokens already in KV.
    pub fn prefill_time(&self, seq_len: u64, cached: u64) -> SimDuration {
        self.step_time(&BatchWork::prefill(seq_len.saturating_sub(cached), cached))
    }

    /// Convenience: one decode iteration for `batch` sequences at an
    /// average context of `avg_context` tokens.
    pub fn decode_iter_time(&self, batch: u64, avg_context: u64) -> SimDuration {
        self.step_time(&BatchWork::decode(batch, batch * avg_context))
    }

    /// How many KV-cache tokens fit on each NPU after weights and a
    /// `reserve` fraction of HBM for activations/workspace.
    pub fn kv_capacity_tokens(&self, reserve_frac: f64) -> u64 {
        let usable = self.chip.hbm_bytes as f64 * (1.0 - reserve_frac);
        let weights = self.par.weight_bytes_per_npu(&self.model) as f64;
        let kv_per_tok = self.par.kv_bytes_per_token_per_npu(&self.model) as f64;
        if usable <= weights || kv_per_tok <= 0.0 {
            return 0;
        }
        ((usable - weights) / kv_per_tok) as u64
    }

    /// Estimated recompute time for `tokens` of KV (used by the RTC
    /// populate cost model: reuse cache only if fetching beats this).
    pub fn recompute_time(&self, tokens: u64) -> SimDuration {
        self.step_time(&BatchWork::prefill(tokens, 0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use npu::specs::ClusterSpec;

    fn model_34b_tp4() -> ExecCostModel {
        let cluster = ClusterSpec::gen2_cluster(1);
        ExecCostModel::new(
            cluster.server.chip.clone(),
            cluster.hccs,
            ModelSpec::internal_34b(),
            Parallelism::tp(4),
        )
    }

    #[test]
    fn empty_step_is_free() {
        let m = model_34b_tp4();
        assert_eq!(m.step_time(&BatchWork::default()), SimDuration::ZERO);
    }

    #[test]
    fn prefill_is_compute_bound_decode_is_memory_bound() {
        let m = model_34b_tp4();
        let p = m.step_breakdown(&BatchWork::prefill(2048, 0));
        assert!(
            p.compute_s > p.memory_s,
            "2K prefill must be compute-bound: {p:?}"
        );
        let d = m.step_breakdown(&BatchWork::decode(8, 8 * 2048));
        assert!(
            d.memory_s > d.compute_s,
            "small-batch decode must be memory-bound: {d:?}"
        );
    }

    #[test]
    fn prefill_2k_is_hundreds_of_ms() {
        // Sanity-calibration: 34B TP=4 prefill of 2K tokens lands in the
        // 0.1-1.0 s range the paper's TTFT numbers imply.
        let m = model_34b_tp4();
        let t = m.prefill_time(2048, 0).as_secs_f64();
        assert!((0.1..1.0).contains(&t), "prefill(2048) = {t}s");
    }

    #[test]
    fn decode_tpot_is_tens_of_ms() {
        // Figure 3 operates around a 50 ms TPOT SLA; a mid-size batch must
        // land near there.
        let m = model_34b_tp4();
        let t = m.decode_iter_time(32, 2048).as_millis_f64();
        assert!((5.0..60.0).contains(&t), "decode TPOT = {t}ms");
    }

    #[test]
    fn batching_amortizes_decode() {
        let m = model_34b_tp4();
        let t1 = m.decode_iter_time(1, 2048).as_secs_f64();
        let t64 = m.decode_iter_time(64, 2048).as_secs_f64();
        // 64x the work in far less than 64x the time.
        assert!(t64 < 8.0 * t1, "t1={t1} t64={t64}");
    }

    #[test]
    fn prefix_cache_hit_speeds_up_prefill() {
        let m = model_34b_tp4();
        let cold = m.prefill_time(4096, 0);
        let warm = m.prefill_time(4096, 3072);
        assert!(warm < cold);
        assert!(warm.as_secs_f64() < 0.5 * cold.as_secs_f64());
    }

    #[test]
    fn tp_reduces_time_but_not_linearly() {
        let cluster = ClusterSpec::gen2_cluster(1);
        let m = ModelSpec::internal_34b();
        let tp2 = ExecCostModel::new(
            cluster.server.chip.clone(),
            cluster.hccs,
            m.clone(),
            Parallelism::tp(2),
        );
        let tp8 = ExecCostModel::new(
            cluster.server.chip.clone(),
            cluster.hccs,
            m,
            Parallelism::tp(8),
        );
        let w = BatchWork::prefill(2048, 0);
        let t2 = tp2.step_time(&w).as_secs_f64();
        let t8 = tp8.step_time(&w).as_secs_f64();
        assert!(t8 < t2, "more TP must be faster");
        assert!(t8 > t2 / 4.0 * 0.8, "comm must erode perfect scaling");
    }

    #[test]
    fn kv_capacity_is_positive_and_shrinks_with_reserve() {
        let m = model_34b_tp4();
        let c0 = m.kv_capacity_tokens(0.1);
        let c1 = m.kv_capacity_tokens(0.3);
        assert!(c0 > c1);
        // 64 GB HBM - 17.2 GB weights leaves room for > 100K tokens at
        // 61 KB/token/NPU.
        assert!(c0 > 100_000, "kv capacity {c0}");
    }

    #[test]
    fn oversized_model_has_zero_capacity() {
        let cluster = ClusterSpec::gen2_cluster(1);
        let m = ExecCostModel::new(
            cluster.server.chip.clone(),
            cluster.hccs,
            ModelSpec::llama3_70b(),
            Parallelism::tp(2), // 65.7 GB weights/NPU > 64 GB HBM
        );
        assert_eq!(m.kv_capacity_tokens(0.0), 0);
    }

    #[test]
    fn pipeline_adds_hop_cost() {
        let cluster = ClusterSpec::gen2_cluster(1);
        let m = ModelSpec::internal_34b();
        let flat = ExecCostModel::new(
            cluster.server.chip.clone(),
            cluster.hccs,
            m.clone(),
            Parallelism::tp(4),
        );
        let piped = ExecCostModel::new(
            cluster.server.chip.clone(),
            cluster.hccs,
            m,
            Parallelism::tp_pp(4, 2),
        );
        let w = BatchWork::prefill(1024, 0);
        assert!(piped.step_breakdown(&w).comm_s > flat.step_breakdown(&w).comm_s);
    }
}
