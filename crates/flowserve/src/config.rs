//! Engine configuration: serving mode, engine version, scheduler knobs.

use serde::Serialize;

/// What role this engine plays (§4.5 task-level disaggregation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum EngineMode {
    /// Prefill and decode share the engine (chunked prefill mixes them).
    Colocated,
    /// Prefill-only TE: computes KV + first token, then ships KV out.
    PrefillOnly,
    /// Decode-only TE: receives KV, generates the remaining tokens.
    DecodeOnly,
}

/// Engine-version cost profile (Figure 3's v1/v2/v3).
///
/// The three versions differ in how much CPU work sits on the NPU critical
/// path. One iteration's wall time is
///
/// ```text
/// sync : npu + overlap_cpu + residual_cpu
/// async: max(npu, overlap_cpu) + residual_cpu
/// ```
///
/// where `overlap_cpu` is the scheduling + IPC work that async execution
/// (v2+) moves off the critical path, and `residual_cpu` is what stays
/// synchronous (sampling, output plumbing) — shrunk again by v3's
/// data-structure and sampling optimizations.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct EngineVersion {
    /// Version label.
    pub name: &'static str,
    /// Whether scheduling overlaps with NPU execution (§4.2 asynchronous
    /// execution).
    pub async_sched: bool,
    /// Overlappable CPU cost per iteration, fixed part (µs).
    pub overlap_base_us: f64,
    /// Overlappable CPU cost per batched sequence (µs).
    pub overlap_per_seq_us: f64,
    /// Synchronous residual per iteration, fixed part (µs).
    pub residual_base_us: f64,
    /// Synchronous residual per batched sequence (µs).
    pub residual_per_seq_us: f64,
}

impl EngineVersion {
    /// v1 (late 2023): fully synchronous scheduler, heavyweight IPC.
    pub fn v1() -> Self {
        EngineVersion {
            name: "v1",
            async_sched: false,
            overlap_base_us: 6_000.0,
            overlap_per_seq_us: 180.0,
            residual_base_us: 1_000.0,
            residual_per_seq_us: 80.0,
        }
    }

    /// v2: asynchronous scheduling + IPC optimization ("more than 2x
    /// improvements when the TPOT SLA was set to 50ms").
    pub fn v2() -> Self {
        EngineVersion {
            async_sched: true,
            name: "v2",
            ..Self::v1()
        }
    }

    /// v3: data-structure and sampling optimizations ("roughly 20%
    /// improvement" over v2).
    pub fn v3() -> Self {
        EngineVersion {
            name: "v3",
            async_sched: true,
            overlap_base_us: 5_000.0,
            overlap_per_seq_us: 150.0,
            residual_base_us: 600.0,
            residual_per_seq_us: 45.0,
        }
    }

    /// CPU cost components for a batch of `seqs` sequences, in seconds:
    /// `(overlappable, residual)`.
    pub fn cpu_costs(&self, seqs: usize) -> (f64, f64) {
        let overlap = (self.overlap_base_us + self.overlap_per_seq_us * seqs as f64) / 1e6;
        let residual = (self.residual_base_us + self.residual_per_seq_us * seqs as f64) / 1e6;
        (overlap, residual)
    }
}

/// Full engine configuration.
#[derive(Debug, Clone, Serialize)]
pub struct EngineConfig {
    /// Serving role.
    pub mode: EngineMode,
    /// Version cost profile.
    pub version: EngineVersion,
    /// Tokens per KV block.
    pub block_size: usize,
    /// Maximum concurrently decoding sequences.
    pub max_batch: usize,
    /// Chunked-prefill token budget per iteration (colocated mode). Also
    /// the per-iteration prefill budget in prefill-only mode.
    pub prefill_chunk_tokens: usize,
    /// Fraction of HBM reserved for activations/workspace.
    pub kv_reserve_frac: f64,
    /// Host-DRAM KV pool size in blocks (tier-2 cache).
    pub dram_blocks: usize,
    /// Implicit prefix caching on/off, on every role: a prefill-only TE
    /// caches the KV it computes before shipping it, so later requests
    /// reuse it there too.
    pub prefix_caching: bool,
}

impl EngineConfig {
    /// Production-flavoured defaults for a colocated engine.
    pub fn colocated() -> Self {
        EngineConfig {
            mode: EngineMode::Colocated,
            version: EngineVersion::v3(),
            block_size: crate::block::DEFAULT_BLOCK_SIZE,
            max_batch: 256,
            prefill_chunk_tokens: 512,
            kv_reserve_frac: 0.1,
            dram_blocks: 65_536,
            prefix_caching: true,
        }
    }

    /// Defaults for a prefill-only TE.
    pub fn prefill_only() -> Self {
        EngineConfig {
            mode: EngineMode::PrefillOnly,
            prefill_chunk_tokens: 4096,
            ..Self::colocated()
        }
    }

    /// Defaults for a decode-only TE.
    pub fn decode_only() -> Self {
        EngineConfig {
            mode: EngineMode::DecodeOnly,
            ..Self::colocated()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn versions_are_ordered_by_overhead() {
        let (o1, r1) = EngineVersion::v1().cpu_costs(64);
        let (o2, r2) = EngineVersion::v2().cpu_costs(64);
        let (o3, r3) = EngineVersion::v3().cpu_costs(64);
        assert_eq!((o1, r1), (o2, r2), "v2 changes overlap, not cost");
        assert!(o3 < o2 && r3 < r2, "v3 cuts CPU work");
        assert!(!EngineVersion::v1().async_sched);
        assert!(EngineVersion::v2().async_sched);
    }

    #[test]
    fn cpu_cost_scales_with_batch() {
        let v = EngineVersion::v3();
        let (o8, r8) = v.cpu_costs(8);
        let (o64, r64) = v.cpu_costs(64);
        assert!(o64 > o8 && r64 > r8);
    }

    #[test]
    fn mode_presets_differ_where_expected() {
        let c = EngineConfig::colocated();
        let p = EngineConfig::prefill_only();
        let d = EngineConfig::decode_only();
        assert_eq!(c.mode, EngineMode::Colocated);
        assert_eq!(p.mode, EngineMode::PrefillOnly);
        assert_eq!(d.mode, EngineMode::DecodeOnly);
        assert!(p.prefill_chunk_tokens > c.prefill_chunk_tokens);
    }
}
