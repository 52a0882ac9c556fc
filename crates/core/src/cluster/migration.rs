//! KV migration for disaggregated pairs: a finished prefill moves its KV
//! cache to the decode TE, planned through DistFlow and timed on the
//! fabric. Together with the JE's `Decision` this is the paper's §3 split
//! of one serving job into a prefill task and a decode task.

use super::*;
use flowserve::{BufferInfo, MemTier};
use npu::fabric::TransferId;
use std::collections::{BTreeMap, HashMap};

/// One in-flight KV transfer.
struct Migration {
    new: NewRequest,
    from: TeId,
    to: TeId,
    kv_tokens: usize,
    first_token_at: SimTime,
    /// Trace span covering the transfer (NONE when tracing is off).
    span: SpanId,
}

// detlint note: `route` and `pending` are point-lookup only
// (insert/remove), never iterated, so hash order cannot leak into reports
// or traces. `in_flight` is iterated, so it is a BTreeMap.

/// Routes, stashes and in-flight transfers of disaggregated requests.
#[derive(Default)]
pub(super) struct Migrations {
    /// Disaggregated routing: request -> decode TE.
    route: HashMap<RequestId, TeId>,
    /// Prompt + metadata stash for requests in the prefill half.
    pending: HashMap<RequestId, NewRequest>,
    /// In-flight KV migrations. A `BTreeMap`: crash handling iterates it
    /// to find doomed transfers, in id order by construction.
    in_flight: BTreeMap<TransferId, Migration>,
}

impl Migrations {
    /// Records that `new` prefills first and then migrates to `decode`.
    pub(super) fn stash(&mut self, decode: TeId, new: NewRequest) {
        self.route.insert(new.id, decode);
        self.pending.insert(new.id, new);
    }

    /// Drops `id`'s route and stash.
    pub(super) fn forget(&mut self, id: RequestId) {
        self.route.remove(&id);
        self.pending.remove(&id);
    }
}

impl ClusterSim {
    /// Frees `te`'s copy of a request whose KV migrated out (or never
    /// will), and reports the lower load to the JE.
    fn release_migrated(&mut self, now: SimTime, te: TeId, id: RequestId) {
        self.te_mut(te).engine.release_migrated(now, id);
        self.sync_load(te);
    }

    /// A migration that will never land. A surviving source frees its
    /// copy and the request requeues; a dead source still holds the
    /// request, so its detection drain requeues it instead (requeueing here
    /// too would double-submit).
    fn abort_migration(&mut self, now: SimTime, from: TeId, id: RequestId) {
        self.counters.incr("sim.migrations_aborted");
        if self.tes[from.0 as usize].alive {
            self.release_migrated(now, from, id);
            self.reschedule_wake(now, from);
            self.requeue(now, id);
        }
    }

    pub(super) fn start_migration(
        &mut self,
        now: SimTime,
        from: TeId,
        id: RequestId,
        kv_tokens: usize,
        first_token_at: SimTime,
    ) {
        if self.flake_transfer(now, from, id, kv_tokens, first_token_at) {
            return;
        }
        let Some(to) = self.migrations.route.remove(&id) else {
            // No route (e.g. context-cache-create): release immediately.
            self.release_migrated(now, from, id);
            return;
        };
        if !self.tes[to.0 as usize].alive {
            // The decode endpoint died before the transfer started; free
            // the prefill copy and send the request back through the JE.
            self.migrations.pending.remove(&id);
            return self.abort_migration(now, from, id);
        }
        let Some(new) = self.migrations.pending.remove(&id) else {
            // Metadata lost (bookkeeping bug): loud in debug builds; in
            // release, free the prefill TE's copy instead of wedging it.
            debug_assert!(false, "disaggregated request {id:?} lacks stashed metadata");
            self.release_migrated(now, from, id);
            return;
        };
        // By-layer streaming overlaps most of the transfer with prefill;
        // only the residual tail is exposed (§4.5: "by-req or by-layer").
        let total_bytes = kv_tokens as u64 * self.cfg.model.kv_bytes_per_token();
        let mut exposed_f = (total_bytes as f64 * (1.0 - self.cfg.kv_transfer_overlap)).max(1.0);
        if let Some(factor) = self.faults.degraded(now) {
            // Degraded bandwidth is modeled as proportionally more exposed
            // bytes over the unchanged fabric rate.
            exposed_f /= factor;
            self.counters.incr("sim.transfers_degraded");
        }
        let exposed = exposed_f as u64;
        let src = self.tes[from.0 as usize].npus[0];
        let dst = self.tes[to.0 as usize].npus[0];
        // Plan the move through DistFlow (backend selection + occupancy
        // accounting); the fabric then spends the simulated time.
        let link_kind = self.fabric.link_kind(src, dst);
        let buffer = |npu| BufferInfo {
            npu,
            tier: MemTier::Hbm,
            bytes: total_bytes,
        };
        // TE head NPUs are linked by `DistFlow::link_cluster` at
        // construction, so planning can only fail if that wiring changes.
        let plan = match self
            .distflow
            .transfer_at(now, buffer(src), buffer(dst), link_kind)
        {
            Ok(plan) => plan,
            Err(e) => {
                debug_assert!(false, "unlinked TE pair {src:?} -> {dst:?}: {e:?}");
                self.release_migrated(now, from, id);
                return;
            }
        };
        let tid = self.fabric.start_transfer(now, src, dst, exposed);
        let span = if self.tracer.is_enabled() {
            self.tracer.start_span(
                now,
                "kv_migration",
                vec![
                    ("req", id.0.into()),
                    ("from_te", from.0.into()),
                    ("to_te", to.0.into()),
                    ("kv_tokens", kv_tokens.into()),
                    ("total_bytes", total_bytes.into()),
                    ("exposed_bytes", exposed.into()),
                    ("crosses_fabric", plan.crosses_fabric.into()),
                ],
            )
        } else {
            SpanId::NONE
        };
        self.migrations.in_flight.insert(
            tid,
            Migration {
                new,
                from,
                to,
                kv_tokens,
                first_token_at,
                span,
            },
        );
        self.counters.incr("sim.kv_migrations");
        self.counters.add("sim.kv_bytes_migrated", total_bytes);
        self.schedule_fabric(now);
    }

    fn schedule_fabric(&mut self, now: SimTime) {
        let Some(next) = self.fabric.next_event(now) else {
            return;
        };
        if self.fabric_wake.is_some_and(|w| w <= next && w >= now) {
            return;
        }
        self.fabric_wake = Some(next);
        self.sched(next.max_of(now), Event::FabricAdvance);
    }

    pub(super) fn on_fabric(&mut self, now: SimTime) {
        if self.fabric_wake == Some(now) {
            self.fabric_wake = None;
        }
        let done = self.fabric.advance_to(now);
        for tid in done {
            let Some(m) = self.migrations.in_flight.remove(&tid) else {
                continue;
            };
            self.tracer.end_span(now, m.span);
            if !self.tes[m.from.0 as usize].alive || !self.tes[m.to.0 as usize].alive {
                // An endpoint died mid-transfer (crash not yet detected):
                // the KV never lands.
                self.abort_migration(now, m.from, m.new.id);
                continue;
            }
            self.release_migrated(now, m.from, m.new.id);
            self.te_mut(m.to)
                .engine
                .submit_with_kv(now, m.new, m.kv_tokens, m.first_token_at);
            self.reschedule_wake(now, m.from);
            self.reschedule_wake(now, m.to);
        }
        self.schedule_fabric(now);
    }

    /// Aborts every in-flight KV migration touching `te`, in ascending
    /// `TransferId` order.
    pub(super) fn abort_migrations_on(&mut self, now: SimTime, te: TeId) {
        let (doomed, kept): (BTreeMap<_, _>, _) = std::mem::take(&mut self.migrations.in_flight)
            .into_iter()
            .partition(|(_, m)| m.from == te || m.to == te);
        self.migrations.in_flight = kept;
        for (_, m) in doomed {
            self.tracer.end_span(now, m.span);
            self.abort_migration(now, m.from, m.new.id);
        }
    }
}
