//! # deepserve — the serverless LLM serving platform
//!
//! Rust reproduction of DeepServe (published at USENIX ATC '25; "DeepFlow"
//! in the arXiv preprint), Huawei Cloud's serverless AI platform. This
//! crate is the paper's primary contribution: everything above the
//! FlowServe engine.
//!
//! * [`api`] — the request a frontend submits and its replayable ingress
//!   record. The request→job→task split of §3 runs at dispatch: a JE
//!   [`je::Decision`] picks one colocated TE or a prefill/decode pair.
//! * [`je`] — Job Executors and the distributed scheduling policy
//!   (Algorithm 1: PD-aware + locality-aware + load-aware, §5).
//! * [`prompt_tree`] — the JE-side global prompt trees sharing an index
//!   with TE-local RTC radix trees (§5.2).
//! * [`heatmap`] — the profiled PD-disaggregated vs PD-colocated heatmap
//!   and `select_tes_PD_heatmap` (§5.3).
//! * [`predictor`] — decode-length predictors (oracle / 90%-accurate
//!   production predictor, §5.3.2).
//! * [`manager`] — the cluster manager: pre-warmed pod/TE pools,
//!   predictive DRAM pre-loading, the AUTOSCALER (§3, §6).
//! * [`scaling`] — the five-step scaling pipeline with every optimization
//!   of Table 2, plus the TE-Load paths (DRAM-hit/miss, NPU-fork) (§6).
//! * [`cluster`] — the cluster simulation composing JEs, TEs, the fabric
//!   and workloads (the testbed for Figures 4–6).
//! * [`fleet`] — the serverless model-fleet registry: hundreds of model
//!   endpoints, per-model load states, and cold-start pricing through the
//!   storage hierarchy (§6.2).

#![forbid(unsafe_code)]

pub mod api;
pub mod cluster;
pub mod fleet;
pub mod heatmap;
pub mod je;
pub mod manager;
pub mod predictor;
pub mod prompt_tree;
pub mod scaling;

pub use api::{
    materialize, materialize_fleet_trace, materialize_trace, stream_trace, ApiRequest,
    IngressRecord,
};
pub use cluster::{ClusterConfig, ClusterSim, FaultRecoveryConfig, LiveEvent, RunReport, TeRole};
pub use fleet::{fleet_catalog, ColdStartMode, FleetConfig, LoadState, ModelEntry, ModelRegistry};
pub use heatmap::Heatmap;
pub use je::{Decision, JobExecutor, Policy, Target};
pub use manager::{
    AutoscaleSignal, Autoscaler, AutoscalerConfig, HealthConfig, HealthMonitor, PodPool,
    PreloadManager, ScaleAction, TePool,
};
pub use predictor::{Constant, DecodePredictor, FixedAccuracy, Oracle};
pub use prompt_tree::{GlobalPromptTree, TeId};
pub use scaling::{LoadPath, ScalingBreakdown, ScalingModel, ScalingOptimizations, SourceLoad};
