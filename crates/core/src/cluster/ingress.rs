//! Ingress: the slot store of accepted requests, offline injection
//! (materialized or lazily streamed), and live (gateway-fed) mode with its
//! replayable ingress log.

use super::*;
use crate::api::IngressRecord;
use flowserve::Prompt;
use std::collections::HashMap;

/// A streaming notification surfaced to a live frontend (the gateway).
/// Purely additive observability: buffering these never changes scheduling,
/// stats, or counters, so a replay with live mode off is bit-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LiveEvent {
    /// First output token (prefill finished) for `id` at sim time `at`.
    FirstToken { id: RequestId, at: SimTime },
    /// `n` further output tokens for `id`, the last at sim time `at`.
    /// Emitted only when [`ClusterSim::set_token_events`] is on; a
    /// fast-forward window reports all absorbed iterations in one batch.
    Tokens { id: RequestId, at: SimTime, n: u32 },
    /// `id` finished; `output_tokens` counts the whole stream.
    Finished {
        id: RequestId,
        at: SimTime,
        output_tokens: u64,
    },
    /// `id` failed permanently (rejected, or recovery retries exhausted).
    Failed { id: RequestId, at: SimTime },
}

/// State for live (gateway-fed) ingress. See the "Serving façade" section
/// of DESIGN.md for the determinism contract this upholds.
#[derive(Default)]
pub(super) struct LiveState {
    /// Most recent accepted arrival instant; live arrivals are strictly
    /// increasing so the replayed workload is sorted and collision-free.
    last_arrival: SimTime,
    /// Highest limit any `step_until` has run to. Fast-forward may have
    /// absorbed decode boundaries up to it, so no live arrival is stamped
    /// earlier.
    stepped_to: SimTime,
    /// The ingress log: every accepted submission with its final (bumped)
    /// arrival stamp. `inject`ing these into a fresh sim replays the live
    /// run bit-for-bit.
    ingress: Vec<IngressRecord>,
    /// Notifications buffered since the last `take_live_events`.
    events: Vec<LiveEvent>,
    /// Wall frontier while inside `step_until`: fast-forward may absorb
    /// iterations ending before this instant, never at or beyond it.
    pub(super) pace_limit: Option<SimTime>,
}

// `index` is point-lookup only (insert/remove/get), and clippy.toml bans
// iterating it, so hash order cannot leak into reports or traces.

/// Accepted requests and the workload stream that feeds them.
#[derive(Default)]
pub(super) struct Ingress {
    /// In-flight request store: slot-addressed, recycled LIFO once a
    /// request reaches a terminal state. `None` = free slot. Memory is
    /// O(peak in-flight), not O(total injected) — the streaming path
    /// relies on this to run million-request workloads flat.
    slots: Vec<Option<ApiRequest>>,
    /// Free slots, reused LIFO (a pure function of the inject/terminal
    /// history, so replays are bit-identical).
    free_slots: Vec<u32>,
    /// Per-slot generation, bumped when the slot is freed; stale
    /// `Redispatch`/fleet-waiter references check it before acting.
    slot_gen: Vec<u32>,
    /// Request id -> slot, for re-dispatch and prompt lookup. Presence
    /// here *is* liveness: a terminal state removes the entry (and frees
    /// the slot), so "not indexed" means "finished or failed".
    index: HashMap<RequestId, u32>,
    /// Total requests accepted (injected, streamed, or submitted live).
    total: u64,
    /// Lazily-pulled workload stream (`inject_stream`). Exactly one
    /// pending `Arrival` is materialized at a time; `None` once drained.
    stream: Option<Box<dyn Iterator<Item = ApiRequest> + Send>>,
    /// Last streamed arrival stamp (sortedness check).
    stream_last_arrival: SimTime,
}

impl Ingress {
    /// The request in slot `idx`; `None` once it reached a terminal state.
    pub(super) fn get(&self, idx: u32) -> Option<&ApiRequest> {
        self.slots[idx as usize].as_ref()
    }

    /// Slot `idx`'s current generation.
    pub(super) fn gen(&self, idx: u32) -> u32 {
        self.slot_gen[idx as usize]
    }

    /// The slot of in-flight request `id`; `None` once it is terminal.
    pub(super) fn slot_of(&self, id: RequestId) -> Option<u32> {
        self.index.get(&id).copied()
    }

    /// The prompt of in-flight request `id`.
    pub(super) fn prompt(&self, id: RequestId) -> Option<&Prompt> {
        self.get(self.slot_of(id)?).map(|r| &r.prompt)
    }

    /// Whether requests remain in flight or unpulled, given `terminal`
    /// that finished or failed.
    pub(super) fn outstanding(&self, terminal: u64) -> bool {
        terminal < self.total || self.stream.is_some()
    }

    /// Stores one accepted request in a reusable slot and indexes it by id.
    /// Slots recycle LIFO — a pure function of the inject/terminal
    /// history, so replays are bit-identical.
    ///
    /// # Panics
    ///
    /// Panics if a request with the same id is still in flight: the first
    /// one's completion would free the second one's slot.
    fn alloc(&mut self, r: ApiRequest) -> u32 {
        assert!(
            !self.index.contains_key(&r.id),
            "request id {:?} is already in flight",
            r.id
        );
        let id = r.id;
        let idx = match self.free_slots.pop() {
            Some(i) => {
                debug_assert!(self.slots[i as usize].is_none());
                self.slots[i as usize] = Some(r);
                i
            }
            None => {
                self.slots.push(Some(r));
                self.slot_gen.push(0);
                (self.slots.len() - 1) as u32
            }
        };
        self.index.insert(id, idx);
        self.total += 1;
        idx
    }
}

impl ClusterSim {
    /// Queues a workload (arrivals must be time-sorted).
    ///
    /// # Panics
    ///
    /// Panics if arrivals are out of order, or if a request id is already
    /// in flight.
    pub fn inject(&mut self, requests: Vec<ApiRequest>) {
        assert!(
            self.ingress.stream.is_none(),
            "inject and inject_stream are mutually exclusive"
        );
        let mut last = SimTime::ZERO;
        for r in &requests {
            assert!(r.arrival >= last, "arrivals must be sorted by time");
            last = r.arrival;
        }
        for r in requests {
            self.accept(r);
        }
    }

    /// Queues a lazily generated workload. The stream is pulled with
    /// one-arrival lookahead: exactly one materialized arrival is pending
    /// at any instant, and handling it pulls (and schedules) its successor
    /// *before* dispatching — the successor is therefore queued during the
    /// dispatch exactly as a fully materialized [`ClusterSim::inject`]
    /// would have it, so the run is bit-identical while holding
    /// O(in-flight) request state instead of O(total).
    ///
    /// # Panics
    ///
    /// Panics if a workload was already injected or streamed, or in live
    /// mode; panics lazily (on pull) if the stream's arrivals are
    /// unsorted or reuse an in-flight id.
    pub fn inject_stream(&mut self, stream: impl Iterator<Item = ApiRequest> + Send + 'static) {
        assert!(
            self.ingress.stream.is_none() && self.ingress.slots.is_empty() && self.live.is_none(),
            "inject_stream requires a fresh offline sim"
        );
        self.ingress.stream = Some(Box::new(stream));
        self.pull_next_stream();
    }

    /// Materializes and schedules the next streamed arrival, if any;
    /// drops the exhausted stream so completion accounting can settle.
    fn pull_next_stream(&mut self) {
        let Some(stream) = self.ingress.stream.as_mut() else {
            return;
        };
        let Some(r) = stream.next() else {
            self.ingress.stream = None;
            return;
        };
        assert!(
            r.arrival >= self.ingress.stream_last_arrival,
            "streamed arrivals must be sorted by time"
        );
        self.ingress.stream_last_arrival = r.arrival;
        self.accept(r);
    }

    /// Stores `r` in an arrival slot and schedules its arrival.
    fn accept(&mut self, r: ApiRequest) {
        let at = r.arrival;
        let idx = self.ingress.alloc(r);
        self.sched(at, Event::Arrival(idx));
    }

    pub(super) fn on_arrival(&mut self, now: SimTime, idx: u32) {
        // One-lookahead streaming: pull and schedule the successor before
        // dispatching, so the queue holds the next arrival during this
        // dispatch exactly as a materialized inject would.
        self.pull_next_stream();
        self.first_arrival = Some(self.first_arrival.unwrap_or(now).min(now));
        if self.tracer.is_enabled() {
            if let Some(req) = self.ingress.get(idx) {
                self.tracer.event(
                    now,
                    "arrival",
                    vec![
                        ("req", req.id.0.into()),
                        ("prompt_tokens", req.prompt.len().into()),
                        ("target_output", req.target_output.into()),
                    ],
                );
            }
            let depth: usize = self.tes.iter().map(|t| t.engine.queue_len()).sum();
            self.metrics
                .record_at("cluster.queue_depth", now, depth as f64);
        }
        self.submitted += 1;
        self.dispatch(now, idx);
    }

    /// Retires `id`: frees its arrival slot for reuse (bumping the slot
    /// generation so stale `Redispatch`es and fleet waiters
    /// self-invalidate), drops it from the index, and clears its migration
    /// and fault state, so an id reused later starts clean. Returns how
    /// often the request was re-dispatched, or `None` (counted as a double
    /// terminal) when it already was terminal.
    pub(super) fn mark_terminal(&mut self, id: RequestId) -> Option<u32> {
        let Some(idx) = self.ingress.index.remove(&id) else {
            // A request reaches a terminal state exactly once; a second
            // one means recovery bookkeeping double-submitted it.
            self.counters.incr("sim.double_terminal");
            debug_assert!(false, "request {id:?} reached a terminal state twice");
            return None;
        };
        let i = idx as usize;
        self.ingress.slots[i] = None;
        self.ingress.slot_gen[i] = self.ingress.slot_gen[i].wrapping_add(1);
        self.ingress.free_slots.push(idx);
        self.migrations.forget(id);
        Some(self.faults.forget(id))
    }

    /// Switches the sim into live-ingress mode: requests arrive one at a
    /// time via [`ClusterSim::submit_live`], time advances in bounded
    /// slices via [`ClusterSim::step_until`], and every accepted
    /// submission is appended to a replayable ingress log.
    ///
    /// # Panics
    ///
    /// Panics if anything was already scheduled or injected — the ingress
    /// log must hold every arrival or it would not replay the run.
    pub fn enable_live_ingress(&mut self) {
        assert!(
            self.clock.peek_time().is_none() && self.ingress.slots.is_empty(),
            "enable_live_ingress must be called on a fresh sim"
        );
        self.live = Some(LiveState::default());
    }

    /// Submits one live request. `req.arrival` is the caller's wall-clock
    /// mapping of "now" in sim time; the sim may move it later — never
    /// earlier — so that arrivals are strictly increasing, strictly after
    /// the current instant, no earlier than the highest limit
    /// [`ClusterSim::step_until`] has run to (fast-forward may have
    /// absorbed decode work up to it), and never collide with any pending
    /// event time (a (time, seq) tie could order live and replay runs
    /// differently). Returns the final arrival stamp, which is what the
    /// ingress log records and what a replay will use verbatim.
    ///
    /// # Panics
    ///
    /// Panics without [`ClusterSim::enable_live_ingress`], or on a
    /// duplicate request id.
    pub fn submit_live(&mut self, mut req: ApiRequest) -> SimTime {
        assert!(
            self.live.is_some(),
            "submit_live requires enable_live_ingress()"
        );
        assert!(
            !self.ingress.index.contains_key(&req.id),
            "duplicate live request id {:?}",
            req.id
        );
        let one = SimDuration::from_nanos(1);
        let floor = self.clock.now() + one;
        let Some(live) = self.live.as_mut() else {
            unreachable!("asserted above");
        };
        let mut at = req
            .arrival
            .max_of(floor)
            .max_of(live.stepped_to)
            .max_of(live.last_arrival + one);
        while self.clock.has_event_at(at) {
            at += one;
        }
        live.last_arrival = at;
        req.arrival = at;
        live.ingress.push(IngressRecord::from_request(&req));
        self.accept(req);
        at
    }

    /// Processes every event due at or before `limit`, then stops; the
    /// queue keeps everything later. Fast-forward absorbs only iterations
    /// ending before `limit` for the duration, so the execution is the
    /// same event-for-event prefix the unclamped run would produce.
    /// Returns the next pending event time, if any — the caller's cue for
    /// how long to sleep.
    ///
    /// # Panics
    ///
    /// Panics if this call alone processes the event budget
    /// ([`ClusterSim::set_event_budget`], default 200M) — a slice that
    /// cannot drain is almost certainly a livelock.
    pub fn step_until(&mut self, limit: SimTime) -> Option<SimTime> {
        if let Some(live) = &mut self.live {
            live.pace_limit = Some(limit);
            live.stepped_to = live.stepped_to.max_of(limit);
        }
        self.drive(Some(limit));
        if let Some(live) = &mut self.live {
            live.pace_limit = None;
        }
        self.clock.peek_time()
    }

    /// The earliest pending event time (the live loop's sleep target).
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.clock.peek_time()
    }

    /// Buffers a live notification; a no-op offline.
    pub(super) fn live_event(&mut self, ev: LiveEvent) {
        if let Some(live) = &mut self.live {
            live.events.push(ev);
        }
    }

    /// Drains the live notifications buffered since the last call.
    /// Empty (and free) outside live mode.
    pub fn take_live_events(&mut self) -> Vec<LiveEvent> {
        self.live
            .as_mut()
            .map(|l| std::mem::take(&mut l.events))
            .unwrap_or_default()
    }

    /// The ingress log so far: every accepted live submission with its
    /// final arrival stamp, in arrival order. Empty outside live mode.
    pub fn ingress_log(&self) -> &[IngressRecord] {
        self.live.as_ref().map_or(&[], |l| l.ingress.as_slice())
    }

    /// Turns per-iteration token notifications on for every engine
    /// (surfaced as [`LiveEvent::Tokens`]; replacement engines provisioned
    /// by repairs inherit the setting). Purely additive: reports stay
    /// bit-identical either way.
    pub fn set_token_events(&mut self, on: bool) {
        self.token_events = on;
        for te in &mut self.tes {
            te.engine.set_token_events(on);
        }
    }
}
