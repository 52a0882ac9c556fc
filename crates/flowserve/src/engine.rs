//! The FlowServe engine: master–executor SPMD serving loop.
//!
//! One `Engine` is the serving core of one model-serving TE. The master
//! side (this struct) owns the scheduler, the RTC index and the DistFlow
//! control plane; the per-NPU executors' forward passes are priced by the
//! roofline cost model ([`llm_model::ExecCostModel`]) — the DESIGN.md leaf
//! substitution.
//!
//! The engine is driven like every other simulation component: `submit`
//! requests, ask [`Engine::next_wake`] when something will happen, call
//! [`Engine::advance`] at that time and collect [`EngineEvent`]s. One
//! `advance` completes at most one iteration and starts the next one, so
//! the caller's event loop stays in lock-step with the engine's
//! continuous-batching loop:
//!
//! * **continuous batching** — all decoding sequences step every iteration;
//! * **chunked prefill** — prompts are sliced into a per-iteration token
//!   budget and ride along with decode (Sarathi-style, §4.5 "PD-colocated
//!   (w/ chunked prefill)");
//! * **async scheduling** (v2/v3) — CPU scheduling overlaps the NPU run, so
//!   an iteration costs `max(npu, cpu) + residual` instead of the sum
//!   (§4.2 asynchronous execution);
//! * **async KV prefetch** — on submit, RTC matches preserved KV; a fitted
//!   cost model decides whether fetching beats recomputing, and the fetch
//!   runs off the critical path while other requests execute (§4.2).

use crate::block::BlockId;
use crate::config::{EngineConfig, EngineMode};
use crate::request::{EngineRequest, NewRequest, Phase, RequestArena, RequestId};
use crate::rtc::{PopulateTicket, PrefixMatch, Rtc, RtcConfig};
use llm_model::{BatchWork, ExecCostModel};
use simcore::trace::{SpanId, Trace, TraceLevel, Tracer};
use simcore::{Counters, RequestLatency, SimDuration, SimTime};
use std::collections::{HashMap, VecDeque};
use std::ops::{AddAssign, SubAssign};

/// Estimated aggregate DRAM->HBM populate bandwidth (bytes/s) for the
/// cost-model decision (actual timing is charged by the clock owner).
const POPULATE_BANDWIDTH: f64 = 64e9;

/// Background swapper low-watermark: keep at least this many HBM blocks
/// free by demoting cold cache to DRAM off the critical path.
const SWAP_LOW_WATERMARK_BLOCKS: usize = 64;

/// What the engine reports back to its driver.
#[derive(Debug, Clone)]
pub enum EngineEvent {
    /// A request produced its first output token (end of prefill).
    FirstToken {
        /// Which request.
        id: RequestId,
        /// Emission time.
        at: SimTime,
    },
    /// Incremental decode progress: `n` more output tokens exist for `id`
    /// as of `at`. Emitted only when [`Engine::set_token_events`] enabled
    /// streaming (live serving); single-step iterations report `n == 1`,
    /// a committed fast-forward window reports all absorbed tokens at
    /// once. The first output token is reported by `FirstToken`, not here.
    Tokens {
        /// Which request.
        id: RequestId,
        /// Progress timestamp (iteration boundary that produced the last
        /// of these tokens).
        at: SimTime,
        /// Newly generated output tokens.
        n: u32,
    },
    /// A request finished all decoding (or was migrated out).
    Finished {
        /// Which request.
        id: RequestId,
        /// Completion time.
        at: SimTime,
        /// End-to-end latency metrics.
        latency: RequestLatency,
        /// Prompt length, for reporting.
        prompt_tokens: usize,
        /// Prompt tokens served from cache.
        cached_tokens: usize,
    },
    /// Prefill-only mode: KV is ready to ship to a decode TE.
    PrefillComplete {
        /// Which request.
        id: RequestId,
        /// Completion time of the prefill.
        at: SimTime,
        /// KV tokens to transfer.
        kv_tokens: usize,
    },
    /// The request could not be admitted (prompt exceeds KV capacity).
    Rejected {
        /// Which request.
        id: RequestId,
    },
}

/// Result of a submission.
#[derive(Debug)]
pub struct SubmitOutcome {
    /// Whether the request was admitted.
    pub accepted: bool,
    /// An asynchronous KV populate the driver must execute: price
    /// `tokens` of KV movement and call [`Engine::populate_transfer_done`]
    /// when the simulated transfer completes.
    pub populate: Option<PendingPopulate>,
}

/// A populate handed to the driver for timing.
#[derive(Debug, Clone, Copy)]
pub struct PendingPopulate {
    /// RTC ticket.
    pub ticket: PopulateTicket,
    /// Tokens of KV moving DRAM -> HBM.
    pub tokens: usize,
}

/// How the driver paces the engine loop (see DESIGN.md "Macro-stepping").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pacing {
    /// One iteration per [`Engine::advance`] call: the classic lock-step
    /// event loop, one wake per iteration.
    SingleStep,
    /// Decode fast-forward: when the engine is quiescent, absorb every
    /// provably unchanged decode iteration into the in-flight one.
    FastForward {
        /// The next externally scheduled event that could interact with
        /// this engine; the window never absorbs a boundary at or past
        /// it. `None` means no external event is pending (unbounded).
        horizon: Option<SimTime>,
    },
}

/// One in-flight iteration.
#[derive(Debug)]
struct Iteration {
    ends_at: SimTime,
    decode_ids: Vec<RequestId>,
    /// `(request, tokens prefilling this iteration)`.
    prefill_parts: Vec<(RequestId, usize)>,
    /// Trace span covering this iteration (NONE when tracing is off).
    span: SpanId,
    /// Logical iterations this entry represents (> 1 after fast-forward
    /// absorbed boundaries into it).
    iterations: u64,
}

/// Aggregate engine statistics. `+=` and `-=` work field by field, so a
/// running total over several engines can take one engine's change.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Iterations executed.
    pub iterations: u64,
    /// Total NPU-busy time.
    pub busy: SimDuration,
    /// Output tokens generated.
    pub output_tokens: u64,
    /// Requests finished.
    pub finished: u64,
    /// Recompute preemptions.
    pub preemptions: u64,
    /// Fast-forward windows committed (macro-steps with >= 1 absorbed
    /// boundary). Telemetry only — never part of `RunReport` counters.
    pub ff_windows: u64,
    /// Iterations absorbed into fast-forward windows (a subset of
    /// `iterations`). Telemetry only.
    pub ff_iterations: u64,
}

impl AddAssign for EngineStats {
    fn add_assign(&mut self, s: EngineStats) {
        self.iterations += s.iterations;
        self.busy += s.busy;
        self.output_tokens += s.output_tokens;
        self.finished += s.finished;
        self.preemptions += s.preemptions;
        self.ff_windows += s.ff_windows;
        self.ff_iterations += s.ff_iterations;
    }
}

impl SubAssign for EngineStats {
    fn sub_assign(&mut self, s: EngineStats) {
        self.iterations -= s.iterations;
        self.busy -= s.busy;
        self.output_tokens -= s.output_tokens;
        self.finished -= s.finished;
        self.preemptions -= s.preemptions;
        self.ff_windows -= s.ff_windows;
        self.ff_iterations -= s.ff_iterations;
    }
}

/// The FlowServe engine (one TE's serving core).
pub struct Engine {
    cfg: EngineConfig,
    cost: ExecCostModel,
    rtc: Rtc,
    requests: RequestArena,
    /// Admission queue (FCFS).
    waiting: VecDeque<RequestId>,
    /// Requests with prefill chunks outstanding, admission order.
    running_prefill: Vec<RequestId>,
    /// Decoding requests, admission order.
    running_decode: Vec<RequestId>,
    /// Migrated-in requests waiting for KV block space (decode-only mode).
    waiting_kv: VecDeque<(RequestId, usize)>,
    /// Populate ticket -> request.
    populating: HashMap<PopulateTicket, RequestId>,
    current: Option<Iteration>,
    stats: EngineStats,
    counters: Counters,
    tracer: Tracer,
    /// Open per-request lifecycle spans (only populated while tracing).
    req_spans: HashMap<RequestId, SpanId>,
    /// Iteration wall-time multiplier (1.0 = healthy; > 1.0 = straggler).
    slowdown: f64,
    /// Emit [`EngineEvent::Tokens`] progress events (live streaming).
    /// Purely additive: no engine state, stat, or counter depends on it,
    /// so a run with streaming on is bit-identical to one with it off.
    token_events: bool,
    /// Scratch copy of `running_decode` for `form_batch` (reused every
    /// iteration so the hot path allocates nothing).
    scratch_ids: Vec<RequestId>,
    /// Scratch prefill-candidate list for `form_batch`.
    scratch_candidates: Vec<RequestId>,
    /// Recycled `Iteration::decode_ids` buffer.
    spare_decode_ids: Vec<RequestId>,
    /// Recycled `Iteration::prefill_parts` buffer.
    spare_prefill_parts: Vec<(RequestId, usize)>,
    /// Scratch per-sequence slack for `fast_forward`.
    scratch_slack: Vec<usize>,
    /// Scratch per-sequence new-block lists for `fast_forward` (inner
    /// vectors stay allocated across windows; always empty between calls).
    scratch_new_blocks: Vec<Vec<BlockId>>,
}

/// A whole cluster simulation can move to a serving thread (the gateway
/// runs one there), so the engine must stay a plain owned `Send` value —
/// no `Rc`, `RefCell`, raw pointers or thread-local handles. This
/// assertion turns an accidental regression (e.g. a future cache wrapped
/// in `Rc`) into a compile error at the definition site instead of a
/// borrow-checker riddle in `deepserve`.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<Engine>();
};

impl Engine {
    /// Builds an engine: RTC pools are sized from the cost model's KV
    /// capacity and the config's reserve fraction.
    pub fn new(cfg: EngineConfig, cost: ExecCostModel) -> Self {
        let kv_tokens = cost.kv_capacity_tokens(cfg.kv_reserve_frac) as usize;
        let npu_blocks = kv_tokens / cfg.block_size;
        let rtc = Rtc::new(RtcConfig {
            block_size: cfg.block_size,
            npu_blocks,
            dram_blocks: cfg.dram_blocks,
        });
        Engine {
            cfg,
            cost,
            rtc,
            requests: RequestArena::new(),
            waiting: VecDeque::new(),
            running_prefill: Vec::new(),
            running_decode: Vec::new(),
            waiting_kv: VecDeque::new(),
            populating: HashMap::new(),
            current: None,
            stats: EngineStats::default(),
            counters: Counters::new(),
            tracer: Tracer::disabled(),
            req_spans: HashMap::new(),
            slowdown: 1.0,
            token_events: false,
            scratch_ids: Vec::new(),
            scratch_candidates: Vec::new(),
            spare_decode_ids: Vec::new(),
            spare_prefill_parts: Vec::new(),
            scratch_slack: Vec::new(),
            scratch_new_blocks: Vec::new(),
        }
    }

    /// Turns on sim-time tracing for this engine and its RTC. `capacity`
    /// bounds the span and event ring buffers (each).
    pub fn enable_tracing(&mut self, level: TraceLevel, capacity: usize) {
        self.tracer = Tracer::enabled(level, capacity);
        self.rtc.enable_tracing(level, capacity);
    }

    /// Drains everything traced so far, with RTC records absorbed under the
    /// `rtc` component tag.
    pub fn take_trace(&mut self) -> Trace {
        let mut trace = self.tracer.take();
        trace.absorb("rtc", self.rtc.take_trace());
        trace
    }

    /// Engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// The cost model in use.
    pub fn cost_model(&self) -> &ExecCostModel {
        &self.cost
    }

    /// RTC access (read-mostly; platform uses it for context caching).
    pub fn rtc(&self) -> &Rtc {
        &self.rtc
    }

    /// Mutable RTC access for the platform's context-caching endpoint.
    pub fn rtc_mut(&mut self) -> &mut Rtc {
        &mut self.rtc
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Event counters (cache hits, preemptions, ...).
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Requests queued but not yet running.
    pub fn queue_len(&self) -> usize {
        self.waiting.len() + self.waiting_kv.len()
    }

    /// Total requests the engine is responsible for right now.
    pub fn load(&self) -> usize {
        self.requests.len()
    }

    /// Sets the iteration wall-time multiplier (fault injection: a
    /// straggling TE). 1.0 restores healthy speed; values are clamped to
    /// at least 0.01 so a bad factor cannot make time run backwards.
    pub fn set_slowdown(&mut self, factor: f64) {
        self.slowdown = factor.max(0.01);
    }

    /// Enables (or disables) [`EngineEvent::Tokens`] streaming progress
    /// events. Off by default; live serving frontends turn it on to drive
    /// SSE streams. The flag changes only what is *reported*, never what
    /// is computed — replays with streaming off stay bit-identical.
    pub fn set_token_events(&mut self, on: bool) {
        self.token_events = on;
    }

    /// Every request the engine is currently responsible for, in id order
    /// (deterministic). Used by the platform to drain a crashed TE.
    pub fn active_request_ids(&self) -> Vec<RequestId> {
        // Arena slot order is deterministic already; sort to id order for
        // the drain contract.
        let mut ids: Vec<RequestId> = self.requests.ids().collect();
        ids.sort_unstable();
        ids
    }

    // ---- Submission ----

    /// Submits a fresh request (tokenized prompt). See [`SubmitOutcome`].
    pub fn submit(&mut self, now: SimTime, new: NewRequest) -> SubmitOutcome {
        let id = new.id;
        // Reject prompts that cannot ever fit.
        let blocks_for_prompt = new.prompt.len().div_ceil(self.cfg.block_size);
        if blocks_for_prompt + 1 > self.rtc.npu_capacity_blocks() {
            self.counters.incr("engine.rejected");
            if self.tracer.is_enabled() {
                self.tracer
                    .event(now, "request.rejected", vec![("req", id.0.into())]);
            }
            return SubmitOutcome {
                accepted: false,
                populate: None,
            };
        }
        let mut req = EngineRequest::new(new, self.cfg.block_size);

        let mut pending = None;
        if self.cfg.prefix_caching {
            pending = self.try_cache_match(now, &mut req);
        }
        if self.tracer.is_enabled() {
            let span = self.tracer.start_span(
                now,
                "request",
                vec![
                    ("req", id.0.into()),
                    ("prompt_tokens", req.prompt_len().into()),
                    ("target_output", req.new.target_output.into()),
                    ("arrival", req.new.arrival.into()),
                ],
            );
            self.req_spans.insert(id, span);
            self.tracer.event_in(
                now,
                "request.queued",
                span,
                vec![
                    ("req", id.0.into()),
                    ("arrival", req.new.arrival.into()),
                    ("cached_tokens", req.cached_tokens.into()),
                ],
            );
            if let Some(p) = &pending {
                self.tracer.event_in(
                    now,
                    "request.populate_start",
                    span,
                    vec![("req", id.0.into()), ("tokens", p.tokens.into())],
                );
            }
        }
        let phase = req.phase;
        self.requests.insert(id, req);
        match phase {
            Phase::WaitingPopulate => {}
            _ => self.waiting.push_back(id),
        }
        self.counters.incr("engine.submitted");
        SubmitOutcome {
            accepted: true,
            populate: pending,
        }
    }

    /// Matches the prompt against RTC; acquires the NPU-resident prefix
    /// and, if worthwhile, kicks off a populate for the DRAM tail.
    fn try_cache_match(
        &mut self,
        now: SimTime,
        req: &mut EngineRequest,
    ) -> Option<PendingPopulate> {
        // Prefer the explicit ID entry when given, else prefix tokens.
        let m = match req.new.cache_id.and_then(|cid| self.rtc.match_by_id(cid)) {
            Some(m) => m,
            None => self.rtc.match_by_prefix_token(&req.new.prompt),
        };
        let m = usable_prefix(self.cfg.block_size, req, m);
        if m.nodes.is_empty() {
            return None;
        }

        // Decide on fetching the DRAM tail (§4.2: "the scheduler runs a
        // fitted cost model to decide if reusing the cache is beneficial").
        let dram_tokens = m.dram_nodes().len() * self.cfg.block_size;
        let mut pending = None;
        if dram_tokens > 0 {
            let bytes = dram_tokens as u64 * self.cost.model().kv_bytes_per_token();
            let fetch_s = bytes as f64 / POPULATE_BANDWIDTH;
            let recompute_s = self.cost.recompute_time(dram_tokens as u64).as_secs_f64();
            if fetch_s < recompute_s {
                if let Some(plan) = self.rtc.populate(now, &m) {
                    let ticket = plan.ticket;
                    self.populating.insert(ticket, req.new.id);
                    req.populate = Some(ticket);
                    req.phase = Phase::WaitingPopulate;
                    pending = Some(PendingPopulate {
                        ticket,
                        tokens: plan.tokens,
                    });
                    self.counters.incr("engine.populates");
                }
            } else {
                self.counters.incr("engine.populate_skipped");
            }
        }

        // Acquire whatever is NPU-resident right now. If a populate is in
        // flight we re-acquire the longer prefix when it lands.
        if pending.is_none() {
            acquire_npu_prefix(&mut self.rtc, &mut self.counters, now, req, &m);
        }
        pending
    }

    /// The driver finished the simulated KV transfer for `ticket`.
    pub fn populate_transfer_done(&mut self, now: SimTime, ticket: PopulateTicket) {
        self.rtc.complete_populate(ticket);
        let Some(id) = self.populating.remove(&ticket) else {
            return;
        };
        let Some(req) = self.requests.get_mut(id) else {
            return;
        };
        req.populate = None;
        // Re-match: the populated nodes are NPU-resident now.
        let m = self.rtc.match_by_prefix_token(&req.new.prompt);
        let m = usable_prefix(self.cfg.block_size, req, m);
        acquire_npu_prefix(&mut self.rtc, &mut self.counters, now, req, &m);
        req.phase = Phase::Queued;
        if self.tracer.is_enabled() {
            let span = self.req_spans.get(&id).copied().unwrap_or(SpanId::NONE);
            self.tracer.event_in(
                now,
                "request.populate_done",
                span,
                vec![("req", id.0.into())],
            );
        }
        self.waiting.push_back(id);
    }

    /// Decode-only mode: admits a migrated request whose KV (context) has
    /// just arrived over DistFlow. `first_token_at` is when the prefill TE
    /// emitted token one.
    pub fn submit_with_kv(
        &mut self,
        now: SimTime,
        new: NewRequest,
        context_tokens: usize,
        first_token_at: SimTime,
    ) -> SubmitOutcome {
        let id = new.id;
        let mut req = EngineRequest::new(new, self.cfg.block_size);
        req.prefilled_tokens = context_tokens;
        req.generated = 1;
        req.first_token_at = Some(first_token_at);
        req.phase = Phase::Decoding;
        let prompt_tokens = req.prompt_len();
        let target_output = req.new.target_output;
        let arrival = req.new.arrival;
        self.requests.insert(id, req);
        if !self.try_allocate_context(id, context_tokens) {
            // No room yet: park until blocks free up.
            if let Some(req) = self.req_mut(id) {
                req.phase = Phase::Queued;
            }
            self.waiting_kv.push_back((id, context_tokens));
            self.counters.incr("engine.kv_admission_stalls");
        } else {
            self.running_decode.push(id);
        }
        if self.tracer.is_enabled() {
            let span = self.tracer.start_span(
                now,
                "request",
                vec![
                    ("req", id.0.into()),
                    ("prompt_tokens", prompt_tokens.into()),
                    ("target_output", target_output.into()),
                    ("arrival", arrival.into()),
                ],
            );
            self.req_spans.insert(id, span);
            self.tracer.event_in(
                now,
                "request.migrated_in",
                span,
                vec![
                    ("req", id.0.into()),
                    ("context_tokens", context_tokens.into()),
                    ("first_token_at", first_token_at.into()),
                ],
            );
        }
        self.counters.incr("engine.migrated_in");
        SubmitOutcome {
            accepted: true,
            populate: None,
        }
    }

    /// Invariant-checked lookup for ids held in the engine's own queues
    /// (`waiting`, `waiting_kv`, `running_prefill`, `running_decode`): those
    /// ids always resolve in `requests`. A miss means the queue and map
    /// bookkeeping diverged — loud in debug builds; in release the caller
    /// drops the stale id instead of taking the whole engine down.
    fn req_mut(&mut self, id: RequestId) -> Option<&mut EngineRequest> {
        let req = self.requests.get_mut(id);
        debug_assert!(req.is_some(), "engine invariant: untracked request {id:?}");
        req
    }

    fn try_allocate_context(&mut self, id: RequestId, context_tokens: usize) -> bool {
        let n_blocks = context_tokens.div_ceil(self.cfg.block_size);
        match self.rtc.alloc_blocks(n_blocks) {
            Ok(blocks) => match self.req_mut(id) {
                Some(req) => {
                    req.table.extend(blocks, context_tokens);
                    true
                }
                None => {
                    self.rtc.free(&blocks);
                    false
                }
            },
            Err(_) => false,
        }
    }

    // ---- Driving ----

    /// When the driver should next call [`Engine::advance`]. `None` means
    /// the engine is idle and will only wake on a new submission/populate.
    pub fn next_wake(&self, now: SimTime) -> Option<SimTime> {
        if let Some(it) = &self.current {
            return Some(it.ends_at);
        }
        if self.has_ready_work() {
            Some(now)
        } else {
            None
        }
    }

    fn has_ready_work(&self) -> bool {
        !self.running_decode.is_empty()
            || !self.running_prefill.is_empty()
            || !self.waiting.is_empty()
            || !self.waiting_kv.is_empty()
    }

    /// Runs the engine loop at `now`: completes the in-flight iteration if
    /// it has ended, then starts the next one. Returns emitted events.
    ///
    /// Compatibility wrapper over [`Engine::advance_paced`] with
    /// [`Pacing::SingleStep`] and a fresh event vector.
    pub fn advance(&mut self, now: SimTime) -> Vec<EngineEvent> {
        let mut events = Vec::new();
        self.advance_paced(now, Pacing::SingleStep, &mut events);
        events
    }

    /// Runs the engine loop at `now`, appending emitted events to `events`
    /// (a reused buffer — the caller clears it). With
    /// [`Pacing::FastForward`] the engine may additionally absorb future
    /// decode iterations into the in-flight one (see
    /// [`Engine::fast_forward`]); the observable outcome is bit-identical
    /// to single-stepping, only the number of driver wakes changes.
    pub fn advance_paced(&mut self, now: SimTime, pacing: Pacing, events: &mut Vec<EngineEvent>) {
        if let Some(it) = self.current.take() {
            if now < it.ends_at {
                self.current = Some(it);
                return; // woken early; nothing to do yet
            }
            self.complete_iteration(it.ends_at, &it, events);
            self.recycle_iteration(it);
        }
        // Retry KV admissions that were waiting for space.
        self.retry_waiting_kv();
        // Background swapper: keep headroom off the critical path.
        let moved = self.rtc.copy_to_dram(SWAP_LOW_WATERMARK_BLOCKS);
        if moved > 0 {
            self.counters.add("engine.bg_swap_tokens", moved as u64);
        }
        if self.current.is_none() {
            self.start_iteration(now);
        }
        if let Pacing::FastForward { horizon } = pacing {
            self.fast_forward(horizon, events);
        }
    }

    /// Returns an iteration's buffers to the spare pool so the next
    /// `form_batch` starts from allocated capacity.
    fn recycle_iteration(&mut self, it: Iteration) {
        let Iteration {
            mut decode_ids,
            mut prefill_parts,
            ..
        } = it;
        decode_ids.clear();
        prefill_parts.clear();
        self.spare_decode_ids = decode_ids;
        self.spare_prefill_parts = prefill_parts;
    }

    /// Decode fast-forward (macro-stepping; DESIGN.md "Macro-stepping").
    ///
    /// When the engine is *quiescent* — empty admission queue, no prefill
    /// chunks in flight, no `waiting_kv` stalls, no pending populate
    /// tickets, healthy speed, and a stable pure-decode batch — every
    /// upcoming iteration is predetermined until one of four things
    /// happens: the fastest sequence in the batch completes, a block
    /// allocation would miss the free pool (eviction/preemption), the
    /// background swapper would have demotion work, or an externally
    /// scheduled event lands (`horizon`). This absorbs exactly the
    /// boundaries that provably precede all four into the in-flight
    /// iteration, replaying the single-step arithmetic — real pool
    /// appends in batch order, each absorbed iteration priced by
    /// `iteration_wall` like `start_iteration` prices its own — so the
    /// committed state (tables, block ids, counters, timings) is
    /// bit-identical to stepping one wake at a time.
    ///
    /// Fallbacks: stragglers (`slowdown != 1.0`) and full-level tracing
    /// (which wants every per-token event) single-step unconditionally;
    /// any quiescence violation absorbs nothing.
    fn fast_forward(&mut self, horizon: Option<SimTime>, events: &mut Vec<EngineEvent>) {
        // Cheapest rejection first: if an external event pops at or before
        // the first boundary, nothing can be absorbed — skip all window
        // setup (this is the common case while arrivals are streaming in).
        if let (Some(h), Some(cur)) = (horizon, self.current.as_ref()) {
            if cur.ends_at >= h {
                return;
            }
        }
        if self.slowdown != 1.0 || self.tracer.is_full() {
            return;
        }
        if !self.waiting.is_empty()
            || !self.running_prefill.is_empty()
            || !self.waiting_kv.is_empty()
            || !self.populating.is_empty()
        {
            return;
        }
        let Some(mut it) = self.current.take() else {
            return;
        };
        let b = it.decode_ids.len();
        // The batch must be exactly what `form_batch` would re-form at the
        // next boundary: every running sequence (up to max_batch) admitted
        // in order, with no reservation skips.
        let stable = it.prefill_parts.is_empty()
            && b > 0
            && b == self.running_decode.len().min(self.cfg.max_batch)
            && it.decode_ids[..] == self.running_decode[..b];
        if !stable {
            self.current = Some(it);
            return;
        }

        // Per-sequence state: tokens still owed and block-table slack. The
        // boundary that completes the fastest sequence (boundary
        // `min_rem`) must run through the normal completion path.
        let mut min_rem = u64::MAX;
        let mut slack = std::mem::take(&mut self.scratch_slack);
        slack.clear();
        let mut context_total: u64 = 0;
        let mut tracked = true;
        for &id in &it.decode_ids {
            let Some(req) = self.requests.get(id) else {
                debug_assert!(false, "engine invariant: untracked request {id:?}");
                tracked = false;
                break;
            };
            debug_assert_eq!(req.phase, Phase::Decoding);
            min_rem =
                min_rem.min((req.new.target_output as u64).saturating_sub(req.generated as u64));
            slack.push(req.table.slack());
            context_total += req.table.tokens() as u64;
        }
        if !tracked {
            self.scratch_slack = slack;
            self.current = Some(it);
            return;
        }

        // Constant across the window: pool-hit appends never touch the
        // radix tree, so the evictable set cannot change while absorbing.
        let has_evictable = self.rtc.npu_evictable();

        let mut new_blocks = std::mem::take(&mut self.scratch_new_blocks);
        if new_blocks.len() < b {
            new_blocks.resize_with(b, Vec::new);
        }
        debug_assert!(new_blocks.iter().all(Vec::is_empty));
        let mut absorbed: u64 = 0;
        let mut busy_acc = SimDuration::ZERO;
        // Appends the *next* boundary needs; updated incrementally by the
        // mutation loop below so each iteration scans `slack` only once.
        let mut next_appends = slack.iter().filter(|&&s| s == 0).count();
        loop {
            // Boundary `absorbed + 1` would elapse at `it.ends_at`.
            if absorbed + 1 >= min_rem {
                break; // next boundary completes the fastest sequence
            }
            if horizon.is_some_and(|h| it.ends_at >= h) {
                break; // an external event pops first (strictly before)
            }
            let free = self.rtc.npu_free_blocks();
            if has_evictable && free < SWAP_LOW_WATERMARK_BLOCKS {
                break; // the background swapper would demote cache here
            }
            if next_appends > free {
                break; // allocation would evict or preempt; single-step it
            }
            // Absorb the boundary: complete this iteration silently and
            // form the next one. Pool appends happen for real, in batch
            // order, so the assigned BlockIds match single-stepping.
            let mut coming = 0usize;
            for (i, s) in slack.iter_mut().enumerate() {
                if *s == 0 {
                    #[expect(
                        clippy::expect_used,
                        reason = "unreachable: the quiescence gate checked next_appends <= free \
                                  before entering this batch; a mid-batch allocation failure \
                                  would mean the pool accounting itself is broken"
                    )]
                    let blk = self
                        .rtc
                        .append_block()
                        .expect("fast-forward pre-checked a pool hit");
                    new_blocks[i].push(blk);
                    *s = self.cfg.block_size - 1;
                } else {
                    *s -= 1;
                }
                if *s == 0 {
                    coming += 1;
                }
            }
            next_appends = coming;
            context_total += b as u64;
            // Priced per iteration, as single-stepping does (a closed-form
            // sum would drift by ulps from the integer-ns rounding).
            let wall = self.iteration_wall(&BatchWork::decode(b as u64, context_total), b);
            it.ends_at += wall;
            busy_acc += wall;
            absorbed += 1;
        }

        if absorbed > 0 {
            for (i, &id) in it.decode_ids.iter().enumerate() {
                let Some(req) = self.requests.get_mut(id) else {
                    debug_assert!(false, "engine invariant: untracked request {id:?}");
                    continue;
                };
                req.generated += absorbed as u32;
                req.table
                    .extend_from_slice(&new_blocks[i], absorbed as usize);
                new_blocks[i].clear();
                if self.token_events {
                    events.push(EngineEvent::Tokens {
                        id,
                        at: it.ends_at,
                        n: absorbed as u32,
                    });
                }
            }
            self.stats.iterations += absorbed;
            self.stats.busy += busy_acc;
            self.stats.output_tokens += absorbed * b as u64;
            self.stats.ff_windows += 1;
            self.stats.ff_iterations += absorbed;
            it.iterations += absorbed;
            if self.tracer.is_enabled() {
                self.tracer.event_in(
                    it.ends_at,
                    "macro_step",
                    it.span,
                    vec![
                        ("iterations", it.iterations.into()),
                        ("decode_batch", b.into()),
                    ],
                );
            }
        }
        self.scratch_slack = slack;
        self.scratch_new_blocks = new_blocks;
        self.current = Some(it);
    }

    fn retry_waiting_kv(&mut self) {
        let mut remaining = VecDeque::new();
        while let Some((id, ctx)) = self.waiting_kv.pop_front() {
            if self.try_allocate_context(id, ctx) {
                if let Some(req) = self.req_mut(id) {
                    req.phase = Phase::Decoding;
                    self.running_decode.push(id);
                }
            } else {
                remaining.push_back((id, ctx));
                break; // preserve order; no point trying the rest
            }
        }
        remaining.extend(self.waiting_kv.drain(..));
        self.waiting_kv = remaining;
    }

    // ---- Batch formation ----

    fn start_iteration(&mut self, now: SimTime) {
        let (work, decode_ids, prefill_parts) = self.form_batch(now);
        if work.is_empty() {
            return;
        }
        let seqs = decode_ids.len() + prefill_parts.len();
        let wall = self.iteration_wall(&work, seqs);
        self.stats.iterations += 1;
        self.stats.busy += wall;
        let span = if self.tracer.is_enabled() {
            self.tracer.start_span(
                now,
                "iteration",
                vec![
                    ("decode_batch", decode_ids.len().into()),
                    ("prefill_tokens", work.prefill_tokens.into()),
                    ("seqs", seqs.into()),
                    ("wall_ns", wall.as_nanos().into()),
                ],
            )
        } else {
            SpanId::NONE
        };
        self.current = Some(Iteration {
            ends_at: now + wall,
            decode_ids,
            prefill_parts,
            span,
            iterations: 1,
        });
    }

    /// Wall time of one iteration doing `work` for `seqs` sequences: the
    /// NPU step plus the version's CPU costs (overlapped with it under
    /// async scheduling), stretched by a straggler's slowdown.
    fn iteration_wall(&self, work: &BatchWork, seqs: usize) -> SimDuration {
        let npu = self.cost.step_time(work);
        let (overlap, residual) = self.cfg.version.cpu_costs(seqs.max(1));
        let wall = if self.cfg.version.async_sched {
            SimDuration::from_secs_f64(npu.as_secs_f64().max(overlap) + residual)
        } else {
            npu + SimDuration::from_secs_f64(overlap + residual)
        };
        // Guarded so the float round-trip cannot perturb healthy runs.
        if self.slowdown != 1.0 {
            wall.mul_f64(self.slowdown)
        } else {
            wall
        }
    }

    fn form_batch(&mut self, now: SimTime) -> (BatchWork, Vec<RequestId>, Vec<(RequestId, usize)>) {
        let mut work = BatchWork::default();
        // Batch vectors and iteration snapshots are recycled between
        // iterations (`recycle_iteration` / scratch fields) so the steady
        // decode loop allocates nothing.
        let mut decode_ids = std::mem::take(&mut self.spare_decode_ids);
        let mut prefill_parts = std::mem::take(&mut self.spare_prefill_parts);
        debug_assert!(decode_ids.is_empty() && prefill_parts.is_empty());

        // --- decode side ---
        if self.cfg.mode != EngineMode::PrefillOnly {
            let mut ids = std::mem::take(&mut self.scratch_ids);
            ids.clear();
            ids.extend_from_slice(&self.running_decode);
            for &id in &ids {
                if decode_ids.len() >= self.cfg.max_batch {
                    break;
                }
                // A reservation earlier in this loop may have preempted this
                // sequence out of the decode set.
                if self.requests.get(id).map(|r| r.phase) != Some(Phase::Decoding) {
                    continue;
                }
                if self.reserve_decode_slot(now, id) {
                    if let Some(req) = self.requests.get(id) {
                        work.decode_seqs += 1;
                        work.decode_context_total += req.table.tokens() as u64;
                        decode_ids.push(id);
                    }
                }
            }
            self.scratch_ids = ids;
        }

        // --- prefill side (chunks ride along with decode) ---
        if self.cfg.mode != EngineMode::DecodeOnly {
            let mut budget = self.cfg.prefill_chunk_tokens;
            let mut ctx_weighted: u64 = 0;
            // Continue in-flight prefills first, then admit new ones.
            let mut candidates = std::mem::take(&mut self.scratch_candidates);
            candidates.clear();
            candidates.extend_from_slice(&self.running_prefill);
            // Peek the queue head; admission happens below if budget and
            // memory allow, and deeper queue entries are pulled in as
            // earlier ones are admitted.
            if let Some(&id) = self.waiting.front() {
                candidates.push(id);
            }
            let mut admitted_from_waiting = false;
            let mut i = 0;
            while budget > 0 && i < candidates.len() {
                let id = candidates[i];
                i += 1;
                let Some((remaining, context)) = self
                    .requests
                    .get(id)
                    .map(|r| (r.prefill_remaining(), r.prefilled_tokens))
                else {
                    debug_assert!(false, "engine invariant: untracked request {id:?}");
                    continue;
                };
                let chunk = remaining.min(budget);
                if chunk == 0 {
                    continue;
                }
                if !self.reserve_prefill_blocks(id, chunk) {
                    break; // memory pressure: stop admitting
                }
                if self.waiting.front() == Some(&id) {
                    self.waiting.pop_front();
                    self.running_prefill.push(id);
                    if let Some(req) = self.req_mut(id) {
                        req.phase = Phase::Prefilling;
                    }
                    admitted_from_waiting = true;
                }
                budget -= chunk;
                ctx_weighted += (context as u64) * chunk as u64;
                work.prefill_tokens += chunk as u64;
                prefill_parts.push((id, chunk));
                // If we just admitted from waiting and budget remains, pull
                // the next queued request into candidates.
                if admitted_from_waiting && budget > 0 {
                    if let Some(&next) = self.waiting.front() {
                        candidates.push(next);
                    }
                }
            }
            work.prefill_context = ctx_weighted.checked_div(work.prefill_tokens).unwrap_or(0);
            self.scratch_candidates = candidates;
        }

        (work, decode_ids, prefill_parts)
    }

    /// Ensures the decode sequence has a KV slot for this iteration's
    /// token, preempting younger sequences under pressure (recompute-style
    /// preemption: the victim restarts its prefill later).
    fn reserve_decode_slot(&mut self, now: SimTime, id: RequestId) -> bool {
        loop {
            match self.req_mut(id) {
                Some(req) if req.table.slack() >= 1 => {
                    req.table.extend(vec![], 1);
                    return true;
                }
                Some(_) => {}
                None => return false,
            }
            match self.rtc.append_block() {
                Ok(b) => match self.req_mut(id) {
                    Some(req) => {
                        req.table.extend(vec![b], 1);
                        return true;
                    }
                    None => {
                        self.rtc.free(&[b]);
                        return false;
                    }
                },
                Err(_) => {
                    if !self.preempt_youngest_except(now, id) {
                        return false; // nothing left to preempt
                    }
                }
            }
        }
    }

    fn reserve_prefill_blocks(&mut self, id: RequestId, chunk: usize) -> bool {
        // Seed the table with the acquired cache prefix on first contact.
        {
            let Some(req) = self.req_mut(id) else {
                return false;
            };
            if req.table.tokens() == 0 && req.cached_tokens > 0 {
                debug_assert!(req.acquired.is_some(), "cached_tokens implies acquisition");
                if let Some(acq) = req.acquired.as_ref() {
                    let acq_blocks: Vec<BlockId> = acq.blocks.clone();
                    let cached = req.cached_tokens;
                    req.table.extend(acq_blocks, cached);
                } else {
                    // Inconsistent hit state: forget the hit and prefill
                    // from scratch rather than fabricating KV blocks.
                    req.cached_tokens = 0;
                }
            }
        }
        let Some(need) = self.requests.get(id).map(|r| r.table.blocks_needed(chunk)) else {
            return false;
        };
        match self.rtc.alloc_blocks(need) {
            Ok(blocks) => match self.req_mut(id) {
                Some(req) => {
                    req.table.extend(blocks, chunk);
                    true
                }
                None => {
                    self.rtc.free(&blocks);
                    false
                }
            },
            Err(_) => false,
        }
    }

    /// Preempts the most recently admitted decode sequence other than
    /// `keep`, freeing its blocks for reuse. Returns false if there was no
    /// victim.
    fn preempt_youngest_except(&mut self, now: SimTime, keep: RequestId) -> bool {
        let victim = self
            .running_decode
            .iter()
            .rev()
            .copied()
            .find(|&v| v != keep);
        let Some(victim) = victim else { return false };
        if self.tracer.is_enabled() {
            let span = self.req_spans.get(&victim).copied().unwrap_or(SpanId::NONE);
            self.tracer.event_in(
                now,
                "request.preempted",
                span,
                vec![("req", victim.0.into())],
            );
        }
        self.running_decode.retain(|&r| r != victim);
        let Some(req) = self.req_mut(victim) else {
            return false;
        };
        let blocks = req.table.take_blocks();
        // Recompute-style preemption: KV is dropped; the prompt *and* the
        // tokens generated so far must be re-prefilled before decode can
        // resume. TTFT and the generated count are history — they stay.
        req.phase = Phase::Queued;
        req.prefilled_tokens = 0;
        req.cached_tokens = 0;
        req.preemptions += 1;
        let acquired = req.acquired.take();
        self.rtc.free(&blocks);
        if let Some(acq) = acquired {
            self.rtc.release_prefix(&acq);
            // The acquired blocks were part of the table and already freed.
        }
        self.waiting.push_front(victim);
        self.stats.preemptions += 1;
        self.counters.incr("engine.preemptions");
        true
    }

    // ---- Iteration completion ----

    fn complete_iteration(&mut self, at: SimTime, it: &Iteration, events: &mut Vec<EngineEvent>) {
        let full_trace = self.tracer.is_full();
        // Prefill progress.
        for &(id, chunk) in &it.prefill_parts {
            // The request may have been preempted out mid-flight; skip then.
            let Some(req) = self.requests.get_mut(id) else {
                continue;
            };
            if req.phase != Phase::Prefilling {
                continue;
            }
            req.prefilled_tokens += chunk;
            let done = req.prefill_remaining() == 0;
            if full_trace {
                let span = self.req_spans.get(&id).copied().unwrap_or(SpanId::NONE);
                self.tracer.event_in(
                    at,
                    "prefill_chunk",
                    span,
                    vec![("req", id.0.into()), ("tokens", chunk.into())],
                );
            }
            if done {
                self.finish_prefill(at, id, events);
            }
        }
        // Decode progress.
        for &id in &it.decode_ids {
            let Some(req) = self.requests.get_mut(id) else {
                continue;
            };
            if req.phase != Phase::Decoding {
                continue; // preempted during this iteration's formation
            }
            req.generated += 1;
            self.stats.output_tokens += 1;
            if self.token_events {
                events.push(EngineEvent::Tokens { id, at, n: 1 });
            }
            let done = req.decode_done();
            if done {
                req.finished_at = Some(at);
            }
            if full_trace {
                let span = self.req_spans.get(&id).copied().unwrap_or(SpanId::NONE);
                self.tracer
                    .event_in(at, "decode_iter", span, vec![("req", id.0.into())]);
            }
            if done {
                self.finish_request(at, id, events);
            }
        }
        self.tracer.end_span(at, it.span);
    }

    fn finish_prefill(&mut self, at: SimTime, id: RequestId, events: &mut Vec<EngineEvent>) {
        self.running_prefill.retain(|&r| r != id);
        let (prompt, cache_id, blocks, is_first_completion) = {
            let Some(req) = self.requests.get_mut(id) else {
                debug_assert!(false, "engine invariant: untracked request {id:?}");
                return;
            };
            let is_first = req.first_token_at.is_none();
            if is_first {
                req.first_token_at = Some(at);
                req.generated = 1;
                self.stats.output_tokens += 1;
            }
            (
                req.new.prompt.clone(),
                req.new.cache_id,
                req.table.blocks().to_vec(),
                is_first,
            )
        };
        // Implicit caching: register the prompt's full blocks.
        if self.cfg.prefix_caching {
            let chain = self.rtc.insert_prefix(at, &prompt, &blocks);
            if let Some(cid) = cache_id {
                self.rtc.register_id(cid, chain);
            }
        }
        if is_first_completion {
            events.push(EngineEvent::FirstToken { id, at });
            if self.tracer.is_enabled() {
                let span = self.req_spans.get(&id).copied().unwrap_or(SpanId::NONE);
                self.tracer
                    .event_in(at, "request.first_token", span, vec![("req", id.0.into())]);
            }
        }

        let Some(req) = self.requests.get_mut(id) else {
            debug_assert!(false, "engine invariant: untracked request {id:?}");
            return;
        };
        match self.cfg.mode {
            EngineMode::PrefillOnly => {
                req.phase = Phase::AwaitingMigration;
                let kv_tokens = req.table.tokens();
                if self.tracer.is_enabled() {
                    let span = self.req_spans.get(&id).copied().unwrap_or(SpanId::NONE);
                    self.tracer.event_in(
                        at,
                        "request.prefill_complete",
                        span,
                        vec![("req", id.0.into()), ("kv_tokens", kv_tokens.into())],
                    );
                }
                events.push(EngineEvent::PrefillComplete { id, at, kv_tokens });
            }
            _ => {
                if req.decode_done() {
                    req.finished_at = Some(at);
                    self.finish_request(at, id, events);
                } else {
                    req.phase = Phase::Decoding;
                    self.running_decode.push(id);
                }
            }
        }
    }

    fn finish_request(&mut self, at: SimTime, id: RequestId, events: &mut Vec<EngineEvent>) {
        self.running_decode.retain(|&r| r != id);
        let Some(mut req) = self.requests.remove(id) else {
            debug_assert!(false, "engine invariant: untracked request {id:?}");
            return;
        };
        req.phase = Phase::Finished;
        // A finishing request has both timestamps by construction; a zeroed
        // latency record beats crashing the serving loop if that ever breaks.
        let latency = req.latency().unwrap_or_else(|| {
            debug_assert!(false, "finished request {id:?} lacks timestamps");
            RequestLatency {
                ttft: SimDuration::ZERO,
                tpot: SimDuration::ZERO,
                jct: SimDuration::ZERO,
                output_tokens: req.generated as u64,
            }
        });
        let blocks = req.table.take_blocks();
        self.rtc.free(&blocks);
        if let Some(acq) = req.acquired.take() {
            self.rtc.release_prefix(&acq);
        }
        self.stats.finished += 1;
        if self.tracer.is_enabled() {
            let span = self.req_spans.remove(&id).unwrap_or(SpanId::NONE);
            self.tracer.event_in(
                at,
                "request.finished",
                span,
                vec![
                    ("req", id.0.into()),
                    ("output_tokens", req.generated.into()),
                    ("prompt_tokens", req.prompt_len().into()),
                    ("cached_tokens", req.cached_tokens.into()),
                    ("preemptions", req.preemptions.into()),
                ],
            );
            self.tracer.end_span(at, span);
        }
        events.push(EngineEvent::Finished {
            id,
            at,
            latency,
            prompt_tokens: req.prompt_len(),
            cached_tokens: req.cached_tokens,
        });
    }

    /// Prefill-only mode: the driver finished migrating `id`'s KV to a
    /// decode TE; release the local copy.
    pub fn release_migrated(&mut self, now: SimTime, id: RequestId) {
        let Some(mut req) = self.requests.remove(id) else {
            return;
        };
        debug_assert_eq!(req.phase, Phase::AwaitingMigration);
        let blocks = req.table.take_blocks();
        self.rtc.free(&blocks);
        if let Some(acq) = req.acquired.take() {
            self.rtc.release_prefix(&acq);
        }
        if self.tracer.is_enabled() {
            let span = self.req_spans.remove(&id).unwrap_or(SpanId::NONE);
            self.tracer.event_in(
                now,
                "request.migrated_out",
                span,
                vec![("req", id.0.into())],
            );
            self.tracer.end_span(now, span);
        }
        self.counters.incr("engine.migrated_out");
    }

    /// KV tokens a migrating request will ship (for transfer sizing).
    pub fn migration_kv_tokens(&self, id: RequestId) -> Option<usize> {
        self.requests.get(id).map(|r| r.table.tokens())
    }
}

/// The part of prefix match `m` that `req` may reuse: never the *entire*
/// prompt, since at least one token must run through the model to produce
/// the first output token.
fn usable_prefix(block_size: usize, req: &EngineRequest, mut m: PrefixMatch) -> PrefixMatch {
    let max_nodes = req.prompt_len().saturating_sub(1) / block_size;
    if m.nodes.len() > max_nodes {
        m.nodes.truncate(max_nodes);
        m.tokens = max_nodes * block_size;
        m.npu_prefix_nodes = m.npu_prefix_nodes.min(max_nodes);
    }
    m
}

/// Pins the NPU-resident head of `m` for `req`, seeds the request's cached
/// (and so already prefilled) tokens with it and counts them as cache hits.
fn acquire_npu_prefix(
    rtc: &mut Rtc,
    counters: &mut Counters,
    now: SimTime,
    req: &mut EngineRequest,
    m: &PrefixMatch,
) {
    if m.npu_prefix_nodes == 0 {
        return;
    }
    let acq = rtc.acquire_prefix(now, m);
    req.cached_tokens = acq.tokens(rtc.block_size());
    req.prefilled_tokens = req.cached_tokens;
    req.acquired = Some(acq);
    counters.add("engine.cache_hit_tokens", req.cached_tokens as u64);
}
