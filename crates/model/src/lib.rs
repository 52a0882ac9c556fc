//! # llm-model — model descriptors, parallelism, and the execution cost model
//!
//! Everything the serving stack needs to know about a model without running
//! it:
//!
//! * [`spec`] — geometry presets for the paper's models (Llama3-8B, the
//!   internal 34B, Llama3-70B, Qwen2-72B, a DeepSeek-style MLA model):
//!   weight sizes, KV bytes per token, FLOPs per token.
//! * [`parallel`] — TP/PP/DP/SP configurations and how they partition
//!   weights and KV cache across executors.
//! * [`cost`] — the roofline cost model pricing one forward pass
//!   (compute-bound prefill, HBM-bound decode, ring all-reduce comm).
//! * [`weights`] — safetensors-style checkpoint layout: contiguous,
//!   mmap-able per-rank byte ranges plus the fixed tensor-init overhead.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::todo, clippy::unimplemented, clippy::iter_over_hash_type)]

pub mod cost;
pub mod parallel;
pub mod spec;
pub mod weights;

pub use cost::{BatchWork, ExecCostModel, StepBreakdown};
pub use parallel::Parallelism;
pub use spec::{AttentionKind, ModelSpec};
pub use weights::Checkpoint;
