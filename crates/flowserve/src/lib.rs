//! # flowserve — the FlowServe serving engine
//!
//! Rust reproduction of FlowServe, DeepServe's in-house LLM serving engine
//! (§4 of the paper), built on three principles:
//!
//! * **Microkernel-inspired design** — each function is its own module with
//!   a narrow interface: [`tokenizer`] (independent, scales on its own),
//!   [`rtc`] (Relational Tensor Cache: caching + memory management),
//!   [`distflow`] (tensor transfer), [`engine`] (scheduling + model
//!   execution).
//! * **NPU-centric execution** — the engine's iteration timing keeps the
//!   NPU busy: async scheduling overlaps CPU work with the forward pass,
//!   KV prefetch runs off the critical path, background swapping never
//!   blocks compute.
//! * **SPMD-based design** — one master owns scheduling/caching/networking
//!   decisions; per-NPU executors are priced by the roofline cost model.
//!
//! The engine serves three roles (§4.5): PD-colocated (chunked prefill
//! mixed with decode), prefill-only, and decode-only TEs, with KV handoff
//! planned by DistFlow.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::todo, clippy::unimplemented, clippy::iter_over_hash_type)]

pub mod block;
pub mod config;
pub mod distflow;
pub mod engine;
pub mod request;
pub mod rtc;
pub mod tokenizer;

pub use block::{BlockId, BlockPool, BlockTable, OutOfBlocks, DEFAULT_BLOCK_SIZE};
pub use config::{EngineConfig, EngineMode, EngineVersion};
pub use distflow::{Backend, BufferInfo, DistFlow, DistFlowError, MemTier, TransferPlan};
pub use engine::{Engine, EngineEvent, EngineStats, Pacing, PendingPopulate, SubmitOutcome};
pub use request::{EngineRequest, NewRequest, Phase, RequestArena, RequestId};
pub use rtc::{CacheId, PopulateStatus, PopulateTicket, PrefixMatch, Rtc, RtcConfig};
pub use tokenizer::{synthetic_tokens, Prompt, TokenId, Tokenizer};
