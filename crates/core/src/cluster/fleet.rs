//! Model-fleet mode: a registry of model endpoints, per-server storage
//! tiers and per-TE HBM residency. Cold starts and scale-outs price a
//! checkpoint load through the storage hierarchy and the five-step scaling
//! pipeline, and park requests behind it.

use super::*;
use crate::fleet::{ColdStartMode, FleetConfig, LoadState, ModelRegistry};
use crate::scaling::{LoadPath, ScalingModel, ScalingOptimizations, SourceLoad};
use npu::pagecache::ByteRange;
use npu::storage::{fault_time, ServerStore, Tier};
use npu::RemoteStoreSpec;
use std::collections::BTreeMap;

/// Cold-start SLA: a queued request should see first dispatch within this
/// bound of its arrival (per-tier attainment is reported).
const COLD_SLA: SimDuration = SimDuration::from_secs(30);

/// Queue depth on a model's hottest host above which the JE scales the
/// model out to one more TE.
const SCALE_OUT_QUEUE: usize = 8;

/// One in-flight fleet checkpoint load.
struct InflightLoad {
    /// TEs receiving the model, each with the engine epoch at load start;
    /// a crash bumps the epoch and invalidates that target.
    targets: Vec<(TeId, u32)>,
    /// Deepest storage tier the load had to reach (labels SLA counters).
    tier: Tier,
    /// Covering trace span (NONE when tracing is off).
    span: SpanId,
}

/// Fleet mode: a model registry plus per-server storage tiers and per-TE
/// HBM residency. `None` keeps every single-model path byte-identical to
/// pre-fleet builds.
pub(super) struct FleetState {
    pub(super) registry: ModelRegistry,
    /// Checkpoint fetch/distribution strategy.
    mode: ColdStartMode,
    /// One DRAM-over-SSD storage stack per physical server.
    stores: Vec<ServerStore>,
    /// Requests parked behind a load: model -> `(arrival slot, slot
    /// generation)`, FIFO. BTreeMap so any whole-map drain is
    /// deterministic; the generation invalidates entries whose request
    /// reached a terminal state while parked.
    waiting: BTreeMap<u32, Vec<(u32, u32)>>,
    /// In-flight loads by model (coalesces duplicate cold starts).
    inflight: BTreeMap<u32, InflightLoad>,
    /// HBM-resident models per TE in LRU order (front = coldest).
    resident: Vec<Vec<u32>>,
    /// Weight bytes pinned per TE.
    resident_bytes: Vec<u64>,
    /// Per-TE pinned-weight budget, bytes; exceeding it evicts LRU models.
    te_budget: u64,
}

impl FleetState {
    /// LRU touch: a resident `m` becomes `te`'s most recently used model.
    /// Returns whether `m` was resident.
    fn touch(&mut self, te: TeId, m: u32) -> bool {
        let lru = &mut self.resident[te.0 as usize];
        let pos = lru.iter().position(|&x| x == m);
        if let Some(pos) = pos {
            lru.remove(pos);
            lru.push(m);
        }
        pos.is_some()
    }

    /// Pins `m` into `te`'s HBM residency, evicting LRU models past the
    /// per-TE weight budget (never the model just installed). Returns the
    /// evicted models, coldest first.
    fn install(&mut self, te: TeId, m: u32) -> Vec<u32> {
        let idx = te.0 as usize;
        let weight = |r: &ModelRegistry, m| r.entry(m).map_or(0, |e| e.spec.weight_bytes());
        if !self.touch(te, m) {
            self.resident_bytes[idx] += weight(&self.registry, m);
            self.resident[idx].push(m);
        }
        let mut evicted = Vec::new();
        while self.resident_bytes[idx] > self.te_budget && self.resident[idx].len() > 1 {
            let victim = self.resident[idx].remove(0);
            let vb = weight(&self.registry, victim);
            self.resident_bytes[idx] = self.resident_bytes[idx].saturating_sub(vb);
            self.registry.remove_host(victim, te);
            evicted.push(victim);
        }
        evicted
    }

    /// Parks request slot `waiter` (index, generation) behind `m`'s load.
    fn park(&mut self, m: u32, waiter: (u32, u32)) {
        self.waiting.entry(m).or_default().push(waiter);
    }

    /// Takes the requests parked behind `m`, FIFO.
    fn take_waiters(&mut self, m: u32) -> Vec<(u32, u32)> {
        self.waiting.remove(&m).unwrap_or_default()
    }

    /// A crash empties `te`'s HBM: every model it hosted loses this
    /// replica.
    pub(super) fn drop_te(&mut self, te: TeId) {
        self.resident[te.0 as usize].clear();
        self.resident_bytes[te.0 as usize] = 0;
        self.registry.drop_host_everywhere(te);
    }
}

fn tier_load_counter(tier: Tier) -> &'static str {
    match tier {
        Tier::Hbm => "fleet.loads_hbm",
        Tier::Dram => "fleet.loads_dram",
        Tier::Ssd => "fleet.loads_ssd",
        Tier::Remote => "fleet.loads_remote",
    }
}

fn tier_sla_counter(tier: Tier, ok: bool) -> &'static str {
    match (tier, ok) {
        (Tier::Hbm, true) => "fleet.cold_sla_ok.hbm",
        (Tier::Hbm, false) => "fleet.cold_sla_miss.hbm",
        (Tier::Dram, true) => "fleet.cold_sla_ok.dram",
        (Tier::Dram, false) => "fleet.cold_sla_miss.dram",
        (Tier::Ssd, true) => "fleet.cold_sla_ok.ssd",
        (Tier::Ssd, false) => "fleet.cold_sla_miss.ssd",
        (Tier::Remote, true) => "fleet.cold_sla_ok.remote",
        (Tier::Remote, false) => "fleet.cold_sla_miss.remote",
    }
}

impl ClusterSim {
    /// Switches the sim into model-fleet mode: requests tagged with a
    /// model index ([`ApiRequest::with_model`]) route through the registry,
    /// paying a cold start through the storage hierarchy when the model is
    /// not HBM-resident anywhere. Untagged requests keep the single-model
    /// path, so a fleet sim with no tagged traffic is byte-identical to a
    /// plain one. Call before injecting or submitting anything.
    ///
    /// Execution cost remains the configured engine template for every
    /// model (the fleet layer measures cold-start economics, not per-model
    /// decode speed — see DESIGN.md "Model fleet & storage hierarchy").
    ///
    /// # Panics
    ///
    /// Panics if any TE is not colocated: the fleet layer schedules whole
    /// requests onto single TEs.
    pub fn enable_fleet(&mut self, registry: ModelRegistry, cfg: FleetConfig) {
        assert!(
            self.tes.iter().all(|t| t.role == TeRole::Colocated),
            "fleet mode requires an all-colocated pool"
        );
        let world = self.cfg.parallelism.world_size() as u64;
        let te_budget = cfg
            .hbm_weight_budget
            .unwrap_or(world * self.cfg.cluster.server.chip.hbm_bytes * 7 / 10);
        let stores = (0..self.cfg.cluster.num_servers)
            .map(|_| ServerStore::for_server(&self.cfg.cluster.server))
            .collect();
        self.fleet = Some(FleetState {
            registry,
            mode: cfg.mode,
            stores,
            waiting: BTreeMap::new(),
            inflight: BTreeMap::new(),
            resident: vec![Vec::new(); self.tes.len()],
            resident_bytes: vec![0; self.tes.len()],
            te_budget,
        });
    }

    /// Registry access for frontends (`/v1/models`); `None` outside fleet
    /// mode.
    pub fn fleet_registry(&self) -> Option<&ModelRegistry> {
        self.fleet.as_ref().map(|f| &f.registry)
    }

    /// Pre-seeds a model's checkpoint into every server's SSD (the common
    /// steady state: the whole fleet is staged on local SSD, only DRAM and
    /// HBM are scarce). Deterministic setup, not a simulated action.
    pub fn stage_fleet_on_ssd(&mut self) {
        let Some(fleet) = self.fleet.as_mut() else {
            return;
        };
        for m in 0..fleet.registry.len() as u32 {
            let Some(entry) = fleet.registry.entry(m) else {
                continue;
            };
            let (file, size) = (entry.ckpt.file, entry.ckpt.total_bytes());
            for store in &mut fleet.stores {
                store.prime_ssd(file, size);
            }
        }
    }

    /// Pre-seeds one model's checkpoint onto one server's SSD (tests and
    /// benches shaping locality scenarios). Deterministic setup.
    pub fn prime_model_on_server(&mut self, m: u32, server: usize) {
        let Some(fleet) = self.fleet.as_mut() else {
            return;
        };
        let Some(entry) = fleet.registry.entry(m) else {
            return;
        };
        let (file, size) = (entry.ckpt.file, entry.ckpt.total_bytes());
        if let Some(store) = fleet.stores.get_mut(server) {
            store.prime_ssd(file, size);
        }
    }

    /// Routes one model-tagged arrival given model `m`'s load `state`
    /// (`None`: not in the registry). Hot models go straight to their
    /// least-loaded host; cold models start a checkpoint load and park the
    /// request behind it.
    pub(super) fn fleet_dispatch(
        &mut self,
        now: SimTime,
        idx: u32,
        m: u32,
        state: Option<LoadState>,
    ) {
        let parked = match state {
            None => {
                // The gateway validates names, so an unknown index is a
                // driver bug; fail the request rather than wedge it.
                if let Some(id) = self.ingress.get(idx).map(|r| r.id) {
                    self.counters.incr("fleet.unknown_model");
                    self.note_failed(now, id, "unknown_model");
                }
                return;
            }
            Some(LoadState::Loaded) => return self.fleet_dispatch_hot(now, idx, m),
            Some(LoadState::Loading) => true,
            Some(LoadState::Unloaded) => self.start_model_load(now, m, false),
        };
        if !parked {
            // No routable TE (everything detected-down): park until a
            // repair restores capacity, like the single-model path.
            return self.defer(now, idx);
        }
        let waiter = (idx, self.ingress.gen(idx));
        if let Some(fleet) = self.fleet.as_mut() {
            fleet.park(m, waiter);
        }
        self.counters.incr("fleet.queued");
    }

    fn fleet_dispatch_hot(&mut self, now: SimTime, idx: u32, m: u32) {
        let Some(fleet) = self.fleet.as_mut() else {
            return;
        };
        let tes = &self.tes;
        let host = fleet
            .registry
            .hosts(m)
            .iter()
            .copied()
            .filter(|t| !tes[t.0 as usize].detected)
            .min_by_key(|&t| (tes[t.0 as usize].engine.load(), t));
        let Some(host) = host else {
            // Defensive: detection removes hosts from the registry, so a
            // Loaded model always has a routable host. Back off if not.
            return self.defer(now, idx);
        };
        fleet.touch(host, m);
        let load = tes[host.0 as usize].engine.load();
        if load >= SCALE_OUT_QUEUE && !fleet.inflight.contains_key(&m) {
            // Queue pressure on the hottest replica: scale the model out.
            let _ = self.start_model_load(now, m, true);
        }
        self.counters.incr("fleet.dispatch_hot");
        let Some(new) = self.ingress.get(idx).map(ApiRequest::to_new) else {
            return;
        };
        self.submit_to(now, host, new);
    }

    /// Starts a checkpoint load for model `m` — a cold start, or a
    /// scale-out onto extra TEs when `scale_out`. Returns false when no TE
    /// can take the model right now (the caller defers the request).
    fn start_model_load(&mut self, now: SimTime, m: u32, scale_out: bool) -> bool {
        let Some(fleet) = self.fleet.as_mut() else {
            return false;
        };
        if fleet.inflight.contains_key(&m) {
            return true; // coalesce with the load already in flight
        }
        let Some(entry) = fleet.registry.entry(m) else {
            return false;
        };
        let ckpt = entry.ckpt.clone();
        let (file, total, mode) = (ckpt.file, ckpt.total_bytes(), fleet.mode);
        let hosts = fleet.registry.hosts(m).to_vec();
        // Candidates: routable TEs not already hosting `m`, annotated with
        // the storage tier holding the checkpoint on their server and the
        // current engine load. Tes iteration order is fixed, so placement
        // is deterministic.
        let mut candidates: Vec<(TeId, u8, usize)> = Vec::new();
        for te in &self.tes {
            if te.detected || hosts.contains(&te.id) {
                continue;
            }
            let tier = match mode {
                // The baseline ignores local storage entirely.
                ColdStartMode::PrewarmMiss => Tier::Remote,
                _ => fleet.stores[te.npus[0].server].locate(file, ByteRange::new(0, total)),
            };
            candidates.push((te.id, tier.rank(), te.engine.load()));
        }
        // Locality-aware startup: the JE prefers TEs whose DRAM/SSD
        // already holds the checkpoint.
        let Some(primary) = self.je.place_cold_start(&candidates) else {
            return false;
        };
        let mut targets = vec![primary];
        if scale_out && mode == ColdStartMode::HierarchyMulticast {
            // Binary-tree multicast reaches several TEs in ~log2 rounds,
            // so one distribution wave installs up to three new replicas.
            candidates.sort_by_key(|&(te, rank, load)| (rank, load, te));
            for &(te, _, _) in candidates.iter().filter(|c| c.0 != primary).take(2) {
                targets.push(te);
            }
        }
        // Price the load: tier fault-in (or remote streaming) from the
        // shared remote checkpoint store behind every server's SSD up
        // front, then the five-step scaling pipeline onto the NPUs.
        let remote = RemoteStoreSpec::default();
        let (pre, path, tier) = match mode {
            ColdStartMode::PrewarmMiss => {
                let pre =
                    remote.latency + SimDuration::from_secs_f64(total as f64 / remote.bandwidth);
                (pre, LoadPath::DramMiss, Tier::Remote)
            }
            _ if scale_out => {
                // Weights fork HBM-to-HBM from the live replicas; the
                // storage hierarchy is never touched.
                let path = if mode == ColdStartMode::HierarchyMulticast {
                    LoadPath::Multicast {
                        fanout: targets.len(),
                    }
                } else {
                    LoadPath::NpuForkRoce { fanout: 1 }
                };
                (SimDuration::ZERO, path, Tier::Hbm)
            }
            _ => {
                let server = self.tes[primary.0 as usize].npus[0].server;
                let fb = fleet.stores[server].fault_in(file, ByteRange::new(0, total), total);
                let pre = fault_time(fb, &self.cfg.cluster.server, &remote);
                (pre, LoadPath::DramHit, fb.source)
            }
        };
        // A scale-out's source replica is busy (that is why we scale);
        // initial cold starts pull from storage, not a serving TE.
        let source = if scale_out {
            let busiest = hosts
                .iter()
                .filter(|t| !self.tes[t.0 as usize].detected)
                .map(|t| self.tes[t.0 as usize].engine.load())
                .max()
                .unwrap_or(0);
            SourceLoad {
                intensity: (busiest as f64 / SCALE_OUT_QUEUE as f64).min(1.0),
            }
        } else {
            SourceLoad::idle()
        };
        let scaling = ScalingModel::new(self.cfg.cluster.clone());
        // Every scaling-pipeline optimization applies to every cold start.
        let opts = ScalingOptimizations::all();
        let breakdown = scaling.breakdown(&ckpt, self.cfg.parallelism, opts, path, source);
        breakdown.emit_trace(&mut self.tracer, now + pre);
        let total_time = pre + breakdown.total();

        let span = if self.tracer.is_enabled() {
            self.tracer.start_span(
                now,
                "fleet.cold_start",
                vec![
                    ("model", m.into()),
                    ("target", primary.0.into()),
                    ("fanout", targets.len().into()),
                    ("tier", tier.as_str().into()),
                    ("scale_out", scale_out.into()),
                    ("pre_ms", pre.as_millis_f64().into()),
                    ("total_ms", total_time.as_millis_f64().into()),
                ],
            )
        } else {
            SpanId::NONE
        };
        self.counters.incr("fleet.cold_starts");
        self.counters.incr(tier_load_counter(tier));
        self.metrics
            .record("fleet.cold_start_ms", total_time.as_millis_f64());

        let targets = targets
            .iter()
            .map(|&t| (t, self.tes[t.0 as usize].epoch))
            .collect();
        if !scale_out {
            fleet.registry.set_loading(m);
        }
        fleet.inflight.insert(
            m,
            InflightLoad {
                targets,
                tier,
                span,
            },
        );
        self.sched(now + total_time, Event::ModelReady(m));
        true
    }

    /// A fleet checkpoint load lands: install the model on every target
    /// that survived the load window, then drain the queue behind it.
    pub(super) fn on_model_ready(&mut self, now: SimTime, m: u32) {
        let Some(fleet) = self.fleet.as_mut() else {
            return;
        };
        let Some(load) = fleet.inflight.remove(&m) else {
            return;
        };
        self.tracer.end_span(now, load.span);
        let tes = &self.tes;
        let valid: Vec<TeId> = load
            .targets
            .iter()
            .filter(|&&(te, epoch)| {
                let t = &tes[te.0 as usize];
                t.alive && !t.detected && t.epoch == epoch
            })
            .map(|&(te, _)| te)
            .collect();
        if valid.is_empty() {
            // Every target crashed mid-load; the checkpoint never lands.
            // Waiters re-dispatch immediately and the first one restarts
            // the load on whatever capacity remains.
            self.counters.incr("fleet.loads_aborted");
            fleet.registry.abort_loading(m);
            for (idx, gen) in fleet.take_waiters(m) {
                self.sched(now, Event::Redispatch(idx, gen));
            }
            return;
        }
        for &te in &valid {
            fleet.registry.set_loaded(m, te);
            for victim in fleet.install(te, m) {
                self.counters.incr("fleet.evictions");
                if self.tracer.is_enabled() {
                    self.tracer.event(
                        now,
                        "fleet.evicted",
                        vec![("model", victim.into()), ("te", te.0.into())],
                    );
                }
            }
        }
        self.counters
            .add("fleet.replicas_added", valid.len() as u64);
        for (idx, gen) in fleet.take_waiters(m) {
            if self.ingress.gen(idx) != gen {
                continue; // reached a terminal state while parked
            }
            let Some(req) = self.ingress.get(idx) else {
                continue;
            };
            let wait = now.since(req.arrival);
            self.metrics
                .record("fleet.cold_wait_ms", wait.as_millis_f64());
            self.counters
                .incr(tier_sla_counter(load.tier, wait <= COLD_SLA));
            self.dispatch(now, idx);
        }
    }
}
