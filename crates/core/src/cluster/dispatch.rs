//! Dispatch: JE routing of arrivals and re-dispatches onto TEs, engine
//! submission and wakes, and the engine events that come back.

use super::*;
use crate::je::Target;
use flowserve::Pacing;

impl ClusterSim {
    /// Mirrors `te`'s engine load into the JE's load index. Called
    /// wherever an engine's request count can change: at the top of
    /// `reschedule_wake` (which follows every submit, advance and repair),
    /// after each migrated-out release, and when detection swaps in a
    /// fresh engine.
    pub(super) fn sync_load(&mut self, te: TeId) {
        let load = self.tes[te.0 as usize].engine.load();
        self.je.set_load(te, load);
    }

    /// Debug builds: the JE's load index must mirror the pool exactly. It
    /// must hold every routable TE's engine load, and its routable sets
    /// must be the TEs and pairs the health monitor has not declared down
    /// (TEs that crashed but are not yet detected stay routable). A missed
    /// `sync_load` site fails here, at the next dispatch. O(TEs), so
    /// `dispatch` runs it in debug builds only.
    fn assert_load_index_in_sync(&self) {
        let te = |id: TeId| &self.tes[id.0 as usize];
        for t in self.tes.iter().filter(|t| !t.detected) {
            assert_eq!(
                self.je.load(t.id),
                Some(t.engine.load()),
                "JE load index drifted for {:?}",
                t.id
            );
        }
        let mut colocated = 0;
        for (id, load) in self.je.routable_colocated() {
            let t = te(id);
            assert!(t.role == TeRole::Colocated && !t.detected && load == t.engine.load());
            colocated += 1;
        }
        let expected = self
            .tes
            .iter()
            .filter(|t| t.role == TeRole::Colocated && !t.detected);
        assert_eq!(
            colocated,
            expected.count(),
            "JE routable colocated set drifted"
        );
        let mut pairs = 0;
        for (p, d, load) in self.je.routable_pairs() {
            let (p, d) = (te(p), te(d));
            assert!(!p.detected && !d.detected);
            assert_eq!(load, p.engine.load().max(d.engine.load()));
            pairs += 1;
        }
        let expected = self
            .pairs
            .iter()
            .filter(|&&(p, d)| !te(p).detected && !te(d).detected);
        assert_eq!(pairs, expected.count(), "JE routable pair set drifted");
    }

    /// Routes one arrival (or re-dispatch) through the JE. The request
    /// keeps its original arrival stamp, so TTFT/JCT of a requeued request
    /// include the full failure + backoff delay.
    pub(super) fn dispatch(&mut self, now: SimTime, idx: u32) {
        // A freed slot means the request already reached a terminal
        // state; stale redispatches land here and no-op.
        let Some(req) = self.ingress.get(idx) else {
            return;
        };
        if let (Some(m), Some(fleet)) = (req.model, &self.fleet) {
            // Model-tagged request: route through the fleet registry.
            // Untagged requests keep the single-model path below.
            let state = fleet.registry.entry(m).map(|_| fleet.registry.state(m));
            return self.fleet_dispatch(now, idx, m, state);
        }
        if cfg!(debug_assertions) {
            self.assert_load_index_in_sync();
        }
        let Some(decision) = self.je.schedule(now, req) else {
            // Every TE is detected-down; park the request until a repair
            // restores capacity.
            return self.defer(now, idx);
        };
        let new = req.to_new();
        match decision.target {
            Target::Colocated(te_id) => {
                self.counters.incr("sim.routed_colocated");
                self.submit_to(now, te_id, new);
            }
            Target::Disaggregated { prefill, decode } => {
                self.counters.incr("sim.routed_disaggregated");
                self.migrations.stash(decode, new.clone());
                self.submit_to(now, prefill, new);
            }
        }
    }

    /// Parks a request that nothing can serve right now (every candidate
    /// TE is detected-down) and re-dispatches it after `backoff_cap`.
    pub(super) fn defer(&mut self, now: SimTime, idx: u32) {
        self.counters.incr("sim.dispatch_deferred");
        let gen = self.ingress.gen(idx);
        self.sched(
            now + self.faults.cfg.backoff_cap,
            Event::Redispatch(idx, gen),
        );
    }

    pub(super) fn submit_to(&mut self, now: SimTime, te_id: TeId, new: NewRequest) {
        let kv_bytes_tok = self.cfg.model.kv_bytes_per_token();
        let id = new.id;
        let outcome = self.te_mut(te_id).engine.submit(now, new);
        if !outcome.accepted {
            self.counters.incr("sim.rejected");
            self.note_failed(now, id, "rejected");
        }
        if let Some(p) = outcome.populate {
            // Populate streams each rank's slice in parallel; the channel
            // is sized for the aggregate, so charge total bytes.
            let bytes = p.tokens as u64 * kv_bytes_tok;
            let te = self.te_mut(te_id);
            let done = te.pcie.enqueue(now, bytes);
            let epoch = te.epoch;
            self.sched(done, Event::Populate(te_id, epoch, p.ticket));
        }
        self.reschedule_wake(now, te_id);
    }

    pub(super) fn reschedule_wake(&mut self, now: SimTime, te_id: TeId) {
        // Before the liveness check: a crashed TE the monitor has not yet
        // noticed still takes submissions, and the JE must see them.
        self.sync_load(te_id);
        let te = self.te_mut(te_id);
        if !te.alive {
            return;
        }
        let Some(wake) = te.engine.next_wake(now) else {
            return;
        };
        // Dedup: skip if an equal-or-earlier wake is already scheduled.
        if te.scheduled_wake.is_some_and(|w| w <= wake && w >= now) {
            return;
        }
        te.scheduled_wake = Some(wake);
        self.sched(wake.max_of(now), Event::Wake(te_id));
    }

    fn current_pacing(&self) -> Pacing {
        if self.fast_forward {
            let mut horizon = self.clock.horizon();
            // Live pacing: clamp absorption to the wall frontier. An
            // iteration ending exactly at the limit is not absorbed: it
            // runs as a wake inside `step_until`, which moves `now` to it,
            // so a later live arrival lands after every absorbed boundary.
            if let Some(limit) = self.live.as_ref().and_then(|l| l.pace_limit) {
                horizon = Some(horizon.map_or(limit, |h| h.min(limit)));
            }
            Pacing::FastForward { horizon }
        } else {
            Pacing::SingleStep
        }
    }

    pub(super) fn on_wake(&mut self, now: SimTime, te_id: TeId) {
        let te = self.te_mut(te_id);
        // A crashed TE computes nothing; stale wakes fall on the floor.
        if !te.alive {
            return;
        }
        match te.scheduled_wake {
            Some(w) if w == now => te.scheduled_wake = None,
            // Superseded wake: a later reschedule moved this TE's next
            // deadline past `now` (fast-forward pushing `ends_at` out),
            // so the engine provably has nothing to do yet.
            Some(w) if w > now => return,
            _ => {}
        }
        let pacing = self.current_pacing();
        let mut events = std::mem::take(&mut self.events_scratch);
        events.clear();
        self.te_mut(te_id)
            .engine
            .advance_paced(now, pacing, &mut events);
        for ev in events.drain(..) {
            self.on_engine_event(now, te_id, ev);
        }
        self.events_scratch = events;
        self.reschedule_wake(now, te_id);
    }

    fn on_engine_event(&mut self, now: SimTime, te_id: TeId, ev: EngineEvent) {
        match ev {
            EngineEvent::FirstToken { id, at } => {
                // Cache insertion happened inside the engine; sync the JE
                // tree for locality scheduling.
                if self.tes[te_id.0 as usize].role == TeRole::Colocated {
                    if let Some(prompt) = self.ingress.prompt(id) {
                        self.je.note_cached(now, te_id, false, prompt);
                    }
                }
                self.live_event(LiveEvent::FirstToken { id, at });
            }
            EngineEvent::Tokens { id, at, n } => {
                // Streaming-only notification; no scheduling or stats
                // bookkeeping hangs off it.
                self.live_event(LiveEvent::Tokens { id, at, n });
            }
            EngineEvent::PrefillComplete { id, at, kv_tokens } => {
                debug_assert_eq!(self.tes[te_id.0 as usize].role, TeRole::Prefill);
                if let Some(prompt) = self.ingress.prompt(id) {
                    self.je.note_cached(now, te_id, true, prompt);
                }
                self.start_migration(now, te_id, id, kv_tokens, at);
            }
            EngineEvent::Finished {
                id,
                latency,
                cached_tokens,
                ..
            } => {
                let Some(retries) = self.mark_terminal(id) else {
                    return;
                };
                if retries > 0 {
                    // RTC prefix hits on re-dispatch shrink the re-prefill
                    // cost of recovered requests; measure the savings.
                    self.counters
                        .add("sim.requeue_cache_hit_tokens", cached_tokens as u64);
                }
                let ttft_id = self.metrics.samples("cluster.ttft_ms");
                self.metrics.record(ttft_id, latency.ttft.as_millis_f64());
                let tpot_id = self.metrics.samples("cluster.tpot_ms");
                self.metrics.record(tpot_id, latency.tpot.as_millis_f64());
                let jct_id = self.metrics.samples("cluster.jct_ms");
                self.metrics.record(jct_id, latency.jct.as_millis_f64());
                self.latency.record(latency);
                self.completed += 1;
                self.last_completion = now;
                self.counters.incr("sim.completed");
                self.live_event(LiveEvent::Finished {
                    id,
                    at: now,
                    output_tokens: latency.output_tokens,
                });
            }
            EngineEvent::Rejected { id } => {
                self.counters.incr("sim.rejected");
                self.note_failed(now, id, "rejected");
            }
        }
    }

    /// Fails `id` permanently (rejected, retries exhausted, unknown model).
    pub(super) fn note_failed(&mut self, now: SimTime, id: RequestId, reason: &'static str) {
        let Some(retries) = self.mark_terminal(id) else {
            return;
        };
        self.failed += 1;
        self.counters.incr("sim.failed");
        self.last_completion = self.last_completion.max_of(now);
        self.live_event(LiveEvent::Failed { id, at: now });
        if self.tracer.is_enabled() {
            self.tracer.event(
                now,
                "request.failed",
                vec![
                    ("req", id.0.into()),
                    ("reason", reason.into()),
                    ("retries", retries.into()),
                ],
            );
        }
    }
}
