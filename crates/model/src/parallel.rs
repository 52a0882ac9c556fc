//! Parallelism strategies and weight/KV partitioning.
//!
//! FlowServe runs every engine as one SPMD master plus `world_size`
//! executors, regardless of the TP/PP/DP/SP mix (§6.1: "regardless of
//! TP/PP/SP configurations, all TEs follow a master-SPMD architecture").
//! This module computes who holds which slice of the weights and the KV
//! cache.

use crate::spec::ModelSpec;
use serde::Serialize;

/// A TP/PP/DP/SP configuration for one engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct Parallelism {
    /// Tensor-parallel degree (weights split within a layer).
    pub tp: u32,
    /// Pipeline-parallel degree (layers split across stages).
    pub pp: u32,
    /// Data-parallel degree (replicated engines behind one master;
    /// meaningful for MLA models, §4.2).
    pub dp: u32,
    /// Sequence-parallel degree (activation split; affects comm, not
    /// weight placement).
    pub sp: u32,
}

impl Parallelism {
    /// Pure tensor parallelism of degree `tp`.
    pub fn tp(tp: u32) -> Self {
        Parallelism {
            tp,
            pp: 1,
            dp: 1,
            sp: 1,
        }
    }

    /// Tensor x pipeline parallelism.
    pub fn tp_pp(tp: u32, pp: u32) -> Self {
        Parallelism {
            tp,
            pp,
            dp: 1,
            sp: 1,
        }
    }

    /// Total executor (NPU) count for one engine.
    pub fn world_size(&self) -> u32 {
        self.tp * self.pp * self.dp
    }

    /// Validates against a model: every degree positive, layers divisible
    /// across PP stages, KV heads divisible across TP ranks.
    pub fn validate(&self, model: &ModelSpec) -> Result<(), String> {
        if self.tp == 0 || self.pp == 0 || self.dp == 0 || self.sp == 0 {
            return Err("all parallelism degrees must be >= 1".to_string());
        }
        if !model.num_layers.is_multiple_of(self.pp) {
            return Err(format!(
                "{} layers not divisible by pp={}",
                model.num_layers, self.pp
            ));
        }
        if !model.num_kv_heads.is_multiple_of(self.tp) && model.num_kv_heads >= self.tp {
            return Err(format!(
                "{} kv heads not divisible by tp={}",
                model.num_kv_heads, self.tp
            ));
        }
        Ok(())
    }

    /// Weight bytes each executor holds (TP and PP split the checkpoint;
    /// DP replicates it).
    pub fn weight_bytes_per_npu(&self, model: &ModelSpec) -> u64 {
        model.weight_bytes() / (self.tp as u64 * self.pp as u64)
    }

    /// KV bytes per token each executor holds. TP splits KV across ranks
    /// (by head); PP splits by layer; MLA latents are replicated across TP
    /// ranks (they are head-shared), which is why DP is the preferred axis
    /// for MLA models.
    pub fn kv_bytes_per_token_per_npu(&self, model: &ModelSpec) -> u64 {
        use crate::spec::AttentionKind;
        let per_token = model.kv_bytes_per_token();
        let tp_split = match model.attention {
            AttentionKind::Mla { .. } => 1, // latent replicated across TP
            _ => self.tp as u64,
        };
        per_token / tp_split / self.pp as u64
    }
}

/// Standard production configuration for a model on a given chip: picks the
/// smallest TP that fits weights in HBM while leaving `kv_headroom`
/// (fraction) for KV cache.
pub fn min_tp_for(model: &ModelSpec, hbm_bytes: u64, kv_headroom: f64) -> u32 {
    assert!(
        (0.0..1.0).contains(&kv_headroom),
        "kv_headroom must be in [0, 1)"
    );
    let budget = (hbm_bytes as f64 * (1.0 - kv_headroom)) as u64;
    let mut tp = 1u32;
    while tp <= 64 {
        if model.weight_bytes() / tp as u64 <= budget {
            return tp;
        }
        tp *= 2;
    }
    tp
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_size_multiplies_degrees() {
        let p = Parallelism {
            tp: 4,
            pp: 2,
            dp: 2,
            sp: 1,
        };
        assert_eq!(p.world_size(), 16);
        assert_eq!(Parallelism::tp(8).world_size(), 8);
    }

    #[test]
    fn validation_catches_bad_configs() {
        let m = ModelSpec::internal_34b(); // 60 layers, 8 kv heads
        assert!(Parallelism::tp(4).validate(&m).is_ok());
        assert!(Parallelism::tp_pp(4, 4).validate(&m).is_ok()); // 60 / 4 = 15
        assert!(Parallelism::tp_pp(4, 7).validate(&m).is_err()); // 60 % 7 != 0
        assert!(Parallelism::tp(0).validate(&m).is_err());
        assert!(Parallelism::tp(3).validate(&m).is_err()); // 8 % 3 != 0
    }

    #[test]
    fn weight_partition_divides_evenly() {
        let m = ModelSpec::internal_34b();
        let p = Parallelism::tp(4);
        assert_eq!(p.weight_bytes_per_npu(&m), m.weight_bytes() / 4);
        let p2 = Parallelism::tp_pp(4, 2);
        assert_eq!(p2.weight_bytes_per_npu(&m), m.weight_bytes() / 8);
    }

    #[test]
    fn mla_kv_is_replicated_across_tp() {
        let mla = ModelSpec::deepseek_mla();
        let p = Parallelism::tp(4);
        assert_eq!(p.kv_bytes_per_token_per_npu(&mla), mla.kv_bytes_per_token());
        let gqa = ModelSpec::internal_34b();
        assert_eq!(
            p.kv_bytes_per_token_per_npu(&gqa),
            gqa.kv_bytes_per_token() / 4
        );
    }

    #[test]
    fn min_tp_fits_hbm() {
        let hbm = 64 * (1u64 << 30);
        // 8B FP16 = 16 GB fits in one gen2 card with half headroom.
        assert_eq!(min_tp_for(&ModelSpec::llama3_8b(), hbm, 0.5), 1);
        // 70B FP16 = 131.5 GB needs TP4 with 50% headroom on 64 GB cards.
        assert_eq!(min_tp_for(&ModelSpec::llama3_70b(), hbm, 0.5), 8);
        assert_eq!(min_tp_for(&ModelSpec::llama3_70b(), hbm, 0.2), 4);
        // 34B with the paper's TP=4 leaves most HBM for KV.
        assert!(min_tp_for(&ModelSpec::internal_34b(), hbm, 0.5) <= 4);
    }
}
