//! Fault injection and recovery: crashes, stragglers, link degradation and
//! transfer flakes from a [`FaultPlan`]; heartbeat detection; repair
//! through the fast-scaling pipeline; and capped-backoff requeue.

use super::*;
use crate::manager::{HealthConfig, HealthMonitor};
use crate::scaling::{LoadPath, ScalingModel, ScalingOptimizations, SourceLoad};
use llm_model::Checkpoint;
use npu::pagecache::FileId;
use simcore::fault::{FaultEvent, FaultKind, FaultPlan};
use std::collections::{HashMap, HashSet};

/// Re-dispatch attempts per request before it fails permanently.
const MAX_RETRIES: u32 = 5;

/// First re-dispatch backoff; doubles per attempt.
const BACKOFF_BASE: SimDuration = SimDuration::from_millis(100);

/// Backoff ceiling.
pub(super) const BACKOFF_CAP: SimDuration = SimDuration::from_secs(2);

// The hash fields below are point-lookup only (insert/remove/get/
// contains), and clippy.toml bans iterating them, so hash order cannot
// leak into reports or traces.

/// The fault layer's state: empty and inert until
/// [`ClusterSim::install_faults`] arms it.
#[derive(Default)]
pub(super) struct FaultLayer {
    /// The installed plan's events, indexed by `Event::Fault`.
    events: Vec<FaultEvent>,
    health: Option<HealthMonitor>,
    /// Active link degradation: `(bandwidth factor, expiry)`.
    link_degrade: Option<(f64, SimTime)>,
    /// KV transfers started before this instant fail once.
    flaky_until: Option<SimTime>,
    /// Requests that already consumed their one transient transfer failure.
    flaked: HashSet<RequestId>,
    /// Stash for flaked migrations awaiting retry: `(from, kv_tokens,
    /// first_token_at)`.
    migration_retry: HashMap<RequestId, (TeId, usize, SimTime)>,
    /// Re-dispatch attempts per request.
    retries: HashMap<RequestId, u32>,
    /// Repairs started and not yet done.
    repairs_pending: u32,
}

impl FaultLayer {
    /// The bandwidth factor of a link-degrade window open at `now`.
    pub(super) fn degraded(&self, now: SimTime) -> Option<f64> {
        self.link_degrade
            .filter(|&(_, until)| now < until)
            .map(|(factor, _)| factor)
    }

    /// Drops a terminal request's fault state, so an id reused later
    /// starts clean. Returns how often the request was re-dispatched.
    pub(super) fn forget(&mut self, id: RequestId) -> u32 {
        self.flaked.remove(&id);
        self.migration_retry.remove(&id);
        self.retries.remove(&id).unwrap_or(0)
    }
}

impl ClusterSim {
    /// Arms the fault layer: schedules every event in `plan` into the
    /// deterministic queue and starts cluster-manager health monitoring
    /// with `health`'s heartbeat cadence and miss threshold. A run is then
    /// replayable bit-for-bit from `(workload, plan, health)`.
    ///
    /// An empty plan is a guaranteed no-op — nothing is scheduled, no
    /// health monitoring starts, and the run stays bit-identical to one
    /// that never called this method. Call after [`ClusterSim::inject`]
    /// and before [`ClusterSim::run_to_completion`].
    ///
    /// # Panics
    ///
    /// Panics if the plan names a TE index outside the pool.
    pub fn install_faults(&mut self, plan: &FaultPlan, health: HealthConfig) {
        if plan.is_empty() {
            return;
        }
        if let Some(max) = plan.max_te() {
            assert!(
                (max as usize) < self.tes.len(),
                "fault plan names TE {max}, but the pool has {} TEs",
                self.tes.len()
            );
        }
        self.faults.events = plan.events.clone();
        for (i, ev) in plan.events.iter().enumerate() {
            self.sched(ev.at, Event::Fault(i as u32));
        }
        let mut monitor = HealthMonitor::new(health);
        for te in &self.tes {
            monitor.register(te.id, SimTime::ZERO);
        }
        self.faults.health = Some(monitor);
        self.sched(
            SimTime::ZERO + health.heartbeat_interval,
            Event::HealthCheck,
        );
    }

    pub(super) fn on_fault(&mut self, now: SimTime, idx: u32) {
        let FaultEvent { kind, .. } = self.faults.events[idx as usize];
        match kind {
            FaultKind::TeCrash { te } => self.on_te_crash(now, TeId(te)),
            FaultKind::Straggler {
                te,
                factor,
                duration,
            } => {
                let te_id = TeId(te);
                if !self.tes[te_id.0 as usize].alive {
                    return;
                }
                self.te_mut(te_id).engine.set_slowdown(factor);
                self.counters.incr("cluster.stragglers");
                if self.tracer.is_enabled() {
                    self.tracer.event(
                        now,
                        "te.straggler",
                        vec![("te", te.into()), ("factor", factor.into())],
                    );
                }
                self.sched(now + duration, Event::StragglerEnd(te_id));
            }
            FaultKind::LinkDegrade { factor, duration } => {
                self.faults.link_degrade = Some((factor.clamp(0.01, 1.0), now + duration));
                self.counters.incr("cluster.link_degrades");
                if self.tracer.is_enabled() {
                    self.tracer
                        .event(now, "fabric.degraded", vec![("factor", factor.into())]);
                }
            }
            FaultKind::TransferFlake { duration } => {
                self.faults.flaky_until = Some(now + duration);
                self.counters.incr("cluster.transfer_flakes");
                if self.tracer.is_enabled() {
                    self.tracer.event(now, "distflow.flaky", vec![]);
                }
            }
        }
    }

    /// The TE dies instantly: in-flight batches, KV cache and RTC contents
    /// are gone. Nothing else in the platform learns about it until the
    /// health monitor misses enough heartbeats.
    fn on_te_crash(&mut self, now: SimTime, te_id: TeId) {
        let te = self.te_mut(te_id);
        if !te.alive {
            return;
        }
        te.alive = false;
        te.failed_at = Some(now);
        te.scheduled_wake = None;
        self.counters.incr("cluster.failures");
        if self.tracer.is_enabled() {
            self.tracer
                .event(now, "te.failed", vec![("te", te_id.0.into())]);
        }
    }

    /// Cluster-manager heartbeat sweep: live TEs beat, silent TEs accrue
    /// misses, and TEs past the threshold enter detection + repair.
    pub(super) fn on_health_check(&mut self, now: SimTime) {
        let Some(health) = self.faults.health.as_mut() else {
            return;
        };
        for te in &self.tes {
            if te.alive {
                health.heartbeat(te.id, now);
            }
        }
        let newly_down = health.sweep(now);
        let interval = health.config().heartbeat_interval;
        for te in newly_down {
            self.on_te_detected(now, te);
        }
        // Keep sweeping while anything is outstanding; stop once every
        // request terminated and no repair is in flight, so the sim ends.
        let outstanding = self.ingress.outstanding(self.completed + self.failed)
            || self.faults.repairs_pending > 0;
        if outstanding {
            self.sched(now + interval, Event::HealthCheck);
        }
    }

    /// The platform reacts to a detected failure: deregister the TE from
    /// scheduling and DistFlow, abort its transfers, re-queue everything it
    /// was holding, and kick off a replacement through the fast-scaling
    /// pipeline.
    fn on_te_detected(&mut self, now: SimTime, te_id: TeId) {
        let idx = te_id.0 as usize;
        let detection_ms = {
            let te = &mut self.tes[idx];
            te.detected = true;
            now.since(te.failed_at.unwrap_or(now)).as_millis_f64()
        };
        self.counters.incr("cluster.detected_down");
        if self.tracer.is_enabled() {
            self.tracer.event(
                now,
                "te.detected_down",
                vec![
                    ("te", te_id.0.into()),
                    ("detection_latency_ms", detection_ms.into()),
                ],
            );
        }
        self.je.note_te_removed(te_id);
        self.distflow.unlink_npu(self.tes[idx].npus[0]);
        self.abort_migrations_on(now, te_id);

        // Replace the engine (all KV and cache state is lost) and salvage
        // the dead one's observability into the final report.
        let mut old = Self::build_engine(&self.cfg, self.tes[idx].role);
        if let Some((level, cap)) = self.trace_cfg {
            old.enable_tracing(level, cap);
        }
        old.set_token_events(self.token_events);
        std::mem::swap(&mut self.tes[idx].engine, &mut old);
        self.sync_load(te_id);
        self.tes[idx].epoch += 1;
        self.tes[idx].scheduled_wake = None;
        let orphans = old.active_request_ids();
        for (k, v) in old.counters().iter().chain(old.rtc().counters().iter()) {
            self.salvaged_counters.add(k, v);
        }
        self.tes[idx].prior_busy += old.stats().busy;
        self.engine_total -= old.stats();
        self.salvaged_traces
            .push((format!("te{idx}"), old.take_trace()));

        // Everything the TE was holding restarts from scratch elsewhere.
        for id in orphans {
            self.migrations.forget(id);
            self.faults.migration_retry.remove(&id);
            self.requeue(now, id);
        }
        // Fleet residency died with the engine: the replacement comes up
        // with empty HBM, so every model hosted here loses this replica
        // (orphans re-dispatch through the registry and reload if needed).
        if let Some(fleet) = self.fleet.as_mut() {
            fleet.drop_te(te_id);
        }
        self.start_repair(now, te_id);
    }

    /// Provisions a replacement TE via the 5-step fast-scaling pipeline
    /// with every optimization on; the pipeline decides the repair latency.
    fn start_repair(&mut self, now: SimTime, te_id: TeId) {
        let model = ScalingModel::new(self.cfg.cluster.clone());
        let ckpt = Checkpoint::new(FileId(1), self.cfg.model.clone());
        let path = if self.tes.iter().any(|t| t.alive) {
            // Fork weights HBM-to-HBM from a surviving replica.
            LoadPath::NpuForkHccs { fanout: 1 }
        } else {
            // No replica left: load the DRAM-preloaded checkpoint.
            LoadPath::DramHit
        };
        let breakdown = model.breakdown(
            &ckpt,
            self.cfg.parallelism,
            ScalingOptimizations::all(),
            path,
            SourceLoad::idle(),
        );
        breakdown.emit_trace(&mut self.tracer, now);
        self.faults.repairs_pending += 1;
        self.counters.incr("cluster.repairs_started");
        self.sched(now + breakdown.total(), Event::RepairDone(te_id));
    }

    pub(super) fn on_repair_done(&mut self, now: SimTime, te_id: TeId) {
        self.faults.repairs_pending = self.faults.repairs_pending.saturating_sub(1);
        let failed_at = {
            let te = self.te_mut(te_id);
            te.alive = true;
            te.detected = false;
            te.failed_at.take()
        };
        let outage = now.since(failed_at.unwrap_or(now));
        self.counters.incr("cluster.repaired");
        self.metrics
            .record("cluster.repair_latency_ms", outage.as_millis_f64());
        if self.tracer.is_enabled() {
            self.tracer.event(
                now,
                "te.repaired",
                vec![
                    ("te", te_id.0.into()),
                    ("outage_ms", outage.as_millis_f64().into()),
                ],
            );
        }
        self.je.note_te_added(te_id);
        if let Some(h) = self.faults.health.as_mut() {
            h.register(te_id, now);
        }
        // Re-link DistFlow over the live pool (idempotent set insertion).
        let heads: Vec<NpuId> = self
            .tes
            .iter()
            .filter(|t| t.alive)
            .map(|t| t.npus[0])
            .collect();
        self.distflow.link_cluster(&heads);
        self.reschedule_wake(now, te_id);
    }

    /// Sends a request back through the JE after capped exponential
    /// backoff, or fails it permanently once the retry budget is spent.
    pub(super) fn requeue(&mut self, now: SimTime, id: RequestId) {
        let Some(idx) = self.ingress.slot_of(id) else {
            return; // already terminal
        };
        let attempts = {
            let n = self.faults.retries.entry(id).or_insert(0);
            *n += 1;
            *n
        };
        if attempts > MAX_RETRIES {
            self.note_failed(now, id, "retries_exhausted");
            return;
        }
        let backoff = BACKOFF_BASE
            .saturating_mul(1u64 << (attempts.min(16) - 1))
            .min(BACKOFF_CAP);
        self.counters.incr("sim.requeued");
        if self.tracer.is_enabled() {
            self.tracer.event(
                now,
                "request.requeued",
                vec![("req", id.0.into()), ("attempt", attempts.into())],
            );
        }
        let gen = self.ingress.gen(idx);
        self.sched(now + backoff, Event::Redispatch(idx, gen));
    }

    /// Transient DistFlow failure: inside a flake window, a request's first
    /// KV transfer attempt errors out and retries after `BACKOFF_BASE`
    /// with its route still intact. Returns whether this attempt failed.
    pub(super) fn flake_transfer(
        &mut self,
        now: SimTime,
        from: TeId,
        id: RequestId,
        kv_tokens: usize,
        first_token_at: SimTime,
    ) -> bool {
        let open = self.faults.flaky_until.is_some_and(|until| now < until);
        if !open || !self.faults.flaked.insert(id) {
            return false;
        }
        self.counters.incr("sim.transfer_flaked");
        if self.tracer.is_enabled() {
            self.tracer
                .event(now, "distflow.transfer_failed", vec![("req", id.0.into())]);
        }
        self.faults
            .migration_retry
            .insert(id, (from, kv_tokens, first_token_at));
        self.sched(now + BACKOFF_BASE, Event::MigrationRetry(id));
        true
    }

    pub(super) fn on_migration_retry(&mut self, now: SimTime, id: RequestId) {
        let Some((from, kv_tokens, first_token_at)) = self.faults.migration_retry.remove(&id)
        else {
            // Already handled elsewhere (source crash drain, terminal).
            return;
        };
        if self.ingress.slot_of(id).is_none() || !self.tes[from.0 as usize].alive {
            return;
        }
        self.start_migration(now, from, id, kv_tokens, first_token_at);
    }
}
