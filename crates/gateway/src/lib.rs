//! # deepserve-gateway — the real-time serving façade
//!
//! An HTTP/1.1 + SSE frontend over the deterministic cluster simulation:
//! the piece that turns the offline reproduction into something you can
//! `curl` (DEEPSERVE §3's user-facing surface, scoped to chat/text
//! completions). Dependency-free by necessity — the build container is
//! offline, so the server speaks hand-rolled HTTP over
//! `std::net::TcpListener` on a single non-blocking thread.
//!
//! * [`http`] — incremental request parsing, response/SSE framing, limits.
//! * [`session`] — session key → RTC context-cache id mapping, so
//!   multi-turn conversations pin and reuse their prefix KV.
//! * [`pacing`] — the wall-clock ↔ sim-time bridge; the only module in
//!   the workspace (outside benches) allowed to read the host clock.
//! * [`server`] — the accept/read/step/stream loop over a live-ingress
//!   [`deepserve::ClusterSim`].
//! * [`log`] — the session log: replaying it through a fresh sim
//!   reproduces the live run's report byte-for-byte.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::todo, clippy::unimplemented, clippy::iter_over_hash_type)]

pub mod http;
pub mod log;
pub mod pacing;
pub mod server;
pub mod session;

pub use http::{HttpError, Request, MAX_BODY_BYTES, MAX_HEAD_BYTES};
pub use pacing::Pacer;
pub use server::{build_fleet_sim, build_sim, ServeOutcome, Server, ServerConfig};
pub use session::{SessionTable, DEFAULT_SESSION_CAPACITY};
