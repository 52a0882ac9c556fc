//! # simcore — deterministic discrete-event simulation kernel
//!
//! The foundation of the DeepServe reproduction. Every higher-level crate
//! (hardware model, serving engine, platform) runs on this kernel:
//!
//! * [`time`] — integer-nanosecond instants and spans ([`SimTime`],
//!   [`SimDuration`]); exact, drift-free, totally ordered.
//! * [`event`] — the event queue and clock ([`EventQueue`], [`Clock`]) with
//!   FIFO tie-breaking so reruns are bit-identical, and two [`Lane`]s whose
//!   shared head is the fast-forward horizon.
//! * [`rng`] — seeded randomness ([`SimRng`]) with the distributions the
//!   workload generators need (exponential, normal, lognormal, Zipf).
//! * [`metrics`] — samples, percentiles, time series, and the serving
//!   metrics the paper reports (TTFT/TPOT/JCT/throughput/SLO attainment).
//! * [`resource`] — queueing primitives: serial [`FifoChannel`]s and
//!   processor-sharing [`SharedLink`]s, the building blocks for PCIe, HCCS,
//!   RoCE and SSD models.
//! * [`trace`] — sim-time spans and events ([`Tracer`], [`Trace`]):
//!   ring-buffered, mergeable across components, zero-cost when disabled.
//! * [`fault`] — seeded, replayable fault schedules ([`FaultPlan`]): TE
//!   crashes, stragglers, link degradation and transfer flakes, injected
//!   as ordinary events so faulted runs stay bit-for-bit deterministic.
//!
//! Design rule: **no wall-clock time, no global state, no threads.** A
//! simulation is an ordinary value you step; determinism comes from integer
//! time, ordered queues and seeded RNG streams, not from locking.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::todo, clippy::unimplemented, clippy::iter_over_hash_type)]

pub mod event;
pub mod fault;
pub mod metrics;
pub mod resource;
pub mod rng;
pub mod time;
pub mod trace;

pub use event::{Clock, EventQueue, Lane, CLASS_ARRIVAL, CLASS_DEFAULT};
pub use fault::{FaultEvent, FaultKind, FaultPlan};
pub use metrics::{
    Counters, LatencyStats, MetricsRegistry, RequestLatency, Samples, Summary, TimeSeries,
};
pub use resource::{FifoChannel, FlowId, SharedLink};
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
pub use trace::{AttrValue, EventRecord, SpanId, SpanRecord, Trace, TraceLevel, Tracer};
