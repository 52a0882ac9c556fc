//! The serving-cluster simulation: Job Executors dispatching onto a pool of
//! FlowServe TEs over the NPU fabric.
//!
//! This is where everything composes (Figure 1): arrivals hit the JE's
//! distributed scheduler (Algorithm 1), colocated TEs serve whole requests,
//! disaggregated pairs run prefill then migrate KV over DistFlow/fabric to
//! the decode TE, populate transfers stream KV from host DRAM over each
//! TE's PCIe channel, and the JE's global prompt trees stay in sync with
//! TE-side cache insertions.
//!
//! One file per concern, each with its own state (DESIGN.md "Cluster
//! layout"): this file holds the types, construction and the event loop;
//! `ingress` the arrival slots, streaming and live mode; `dispatch` JE
//! routing, engine wakes and engine events; `migration` KV moves over
//! DistFlow and the fabric; `faults` injection, detection, repair and
//! requeue; `fleet` the model registry and cold starts; `report` the run
//! report.

mod dispatch;
mod faults;
mod fleet;
mod ingress;
mod migration;
mod report;

pub use ingress::LiveEvent;
pub use report::RunReport;

use crate::api::ApiRequest;
use crate::heatmap::Heatmap;
use crate::je::{JobExecutor, Policy};
use crate::predictor::{DecodePredictor, FixedAccuracy, Oracle};
use crate::prompt_tree::TeId;
use faults::FaultLayer;
use fleet::FleetState;
use flowserve::{
    DistFlow, Engine, EngineConfig, EngineEvent, EngineMode, EngineStats, NewRequest,
    PopulateTicket, RequestId,
};
use ingress::{Ingress, LiveState};
use llm_model::{ExecCostModel, ModelSpec, Parallelism};
use migration::Migrations;
use npu::fabric::Fabric;
use npu::specs::{ClusterSpec, NpuId};
use simcore::trace::{SpanId, Trace, TraceLevel, Tracer};
use simcore::{
    Clock, Counters, FifoChannel, Lane, LatencyStats, MetricsRegistry, SimDuration, SimTime,
    CLASS_ARRIVAL, CLASS_DEFAULT,
};

/// Role of one TE in the serving pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub enum TeRole {
    /// PD-colocated engine.
    Colocated,
    /// Prefill half of a disaggregated pair.
    Prefill,
    /// Decode half of a disaggregated pair.
    Decode,
}

/// Cluster-simulation configuration.
pub struct ClusterConfig {
    /// Hardware.
    pub cluster: ClusterSpec,
    /// Model every TE serves.
    pub model: ModelSpec,
    /// Engine parallelism (the paper's serving tests use TP=4).
    pub parallelism: Parallelism,
    /// Engine template; `mode` is overridden per role.
    pub engine: EngineConfig,
    /// JE scheduling policy.
    pub policy: Policy,
    /// Decode-length predictor accuracy; `None` = oracle.
    pub predictor_accuracy: Option<f64>,
    /// Fraction of a migrated KV transfer overlapped with prefill
    /// (by-layer streaming; 0.0 = pure by-req transfer after prefill).
    pub kv_transfer_overlap: f64,
}

/// RNG seed of the predictor's noise.
const PREDICTOR_SEED: u64 = 42 ^ 0x9e37;

impl ClusterConfig {
    /// The paper's standard serving testbed: a Gen2 cluster serving the
    /// internal 34B model at TP=4 with the combined policy.
    pub fn standard_34b() -> Self {
        ClusterConfig {
            cluster: ClusterSpec::gen2_cluster(4),
            model: ModelSpec::internal_34b(),
            parallelism: Parallelism::tp(4),
            engine: EngineConfig::colocated(),
            policy: Policy::Combined,
            predictor_accuracy: Some(0.9),
            kv_transfer_overlap: 0.8,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    Arrival(u32),
    Wake(TeId),
    /// Populate completion, guarded by the TE's engine epoch so transfers
    /// started before a crash cannot land on the replacement engine.
    Populate(TeId, u32, PopulateTicket),
    FabricAdvance,
    /// Injected fault (index into the installed plan's events).
    Fault(u32),
    /// Periodic cluster-manager heartbeat sweep.
    HealthCheck,
    /// Re-dispatch of a requeued or deferred request: arrival slot index
    /// plus the slot generation at scheduling time. Terminal states free
    /// slots for reuse and bump the generation, so a stale redispatch
    /// self-invalidates instead of touching an unrelated request.
    Redispatch(u32, u32),
    /// A replacement TE comes online after the fast-scaling pipeline.
    RepairDone(TeId),
    /// A straggler slowdown window expires.
    StragglerEnd(TeId),
    /// Retry a KV migration that hit a transient DistFlow failure.
    MigrationRetry(RequestId),
    /// A fleet checkpoint load (cold start or scale-out) completes for
    /// model `m`.
    ModelReady(u32),
}

struct Te {
    id: TeId,
    role: TeRole,
    engine: Engine,
    npus: Vec<NpuId>,
    /// Host-DRAM -> HBM channel for populate transfers.
    pcie: FifoChannel,
    scheduled_wake: Option<SimTime>,
    /// False between a crash and the end of its repair.
    alive: bool,
    /// True once the health monitor has noticed the crash (the JE stops
    /// routing here) and until the repair completes.
    detected: bool,
    /// When the current outage started.
    failed_at: Option<SimTime>,
    /// Bumped whenever the engine is replaced; stale-epoch events no-op.
    epoch: u32,
    /// Busy time salvaged from engines discarded by earlier repairs.
    prior_busy: SimDuration,
}

/// The serving cluster.
pub struct ClusterSim {
    cfg: ClusterConfig,
    clock: Clock<Event>,
    fabric: Fabric,
    fabric_wake: Option<SimTime>,
    tes: Vec<Te>,
    pairs: Vec<(TeId, TeId)>,
    je: JobExecutor,
    /// Arrival slots and the workload stream.
    ingress: Ingress,
    /// Live (gateway-fed) ingress state; `None` for offline trace replay.
    live: Option<LiveState>,
    /// Routes and in-flight transfers of disaggregated requests.
    migrations: Migrations,
    latency: LatencyStats,
    counters: Counters,
    first_arrival: Option<SimTime>,
    last_completion: SimTime,
    completed: u64,
    submitted: u64,
    failed: u64,
    /// KV-transfer planning layer; linked over the TE head NPUs.
    distflow: DistFlow,
    tracer: Tracer,
    metrics: MetricsRegistry,
    /// Drive quiescent decode engines with [`flowserve::Pacing::FastForward`]
    /// (macro-stepping). On by default; outcome is bit-identical either
    /// way, only event counts and wall-clock change.
    fast_forward: bool,
    /// Livelock guard: one `run_to_completion` or `step_until` call panics
    /// once it has processed this many events.
    event_budget: u64,
    /// Events processed across all `run_to_completion` and `step_until`
    /// calls.
    events_processed: u64,
    /// Reused engine-event buffer for `on_wake`.
    events_scratch: Vec<EngineEvent>,
    /// Every live engine's statistics summed: `on_wake` adds each advance's
    /// change, and a repair takes out the engine it discards.
    engine_total: EngineStats,
    /// Fault injection and recovery (inert until `install_faults`).
    faults: FaultLayer,
    /// Traces salvaged from engines replaced by repairs.
    salvaged_traces: Vec<(String, Trace)>,
    /// Counters salvaged from engines replaced by repairs.
    salvaged_counters: Counters,
    /// Tracing config, replayed onto replacement engines.
    trace_cfg: Option<(TraceLevel, usize)>,
    /// Model-fleet state; `None` outside fleet mode.
    fleet: Option<FleetState>,
    /// Whether engines emit per-iteration `Tokens` events (replayed onto
    /// replacement engines after a repair).
    token_events: bool,
}

impl ClusterSim {
    /// Builds a cluster with the given TE roles placed round-robin across
    /// servers (`world_size` NPUs each, packed per server).
    ///
    /// # Panics
    ///
    /// Panics if the hardware cannot host all TEs, or if prefill/decode
    /// roles are unpaired.
    pub fn new(cfg: ClusterConfig, roles: &[TeRole]) -> Self {
        let world = cfg.parallelism.world_size() as usize;
        let per_server = cfg.cluster.server.chips_per_server / world;
        assert!(per_server >= 1, "one TE needs {world} NPUs per server");
        let capacity = cfg.cluster.num_servers * per_server;
        assert!(
            roles.len() <= capacity,
            "cluster fits {capacity} TEs, asked for {}",
            roles.len()
        );

        let mut tes = Vec::new();
        for (i, &role) in roles.iter().enumerate() {
            let server = i / per_server;
            let first_chip = (i % per_server) * world;
            let npus: Vec<NpuId> = (0..world)
                .map(|k| NpuId::new(server, first_chip + k))
                .collect();
            tes.push(Te {
                id: TeId(i as u32),
                role,
                engine: Self::build_engine(&cfg, role),
                npus,
                pcie: FifoChannel::new(
                    cfg.cluster.server.pcie_bw_per_npu(world.min(8)) * world as f64,
                    SimDuration::from_micros(100),
                ),
                scheduled_wake: None,
                alive: true,
                detected: false,
                failed_at: None,
                epoch: 0,
                prior_busy: SimDuration::ZERO,
            });
        }

        // Pair prefill and decode TEs in order of appearance; a decode TE
        // may back several prefill TEs (the paper's 2P1D setup).
        let with_role =
            |r: TeRole| -> Vec<TeId> { tes.iter().filter(|t| t.role == r).map(|t| t.id).collect() };
        let (prefills, decodes) = (with_role(TeRole::Prefill), with_role(TeRole::Decode));
        assert!(
            prefills.is_empty() == decodes.is_empty(),
            "prefill TEs require decode TEs and vice versa"
        );
        let pairs: Vec<(TeId, TeId)> = prefills
            .iter()
            .enumerate()
            .map(|(i, &p)| (p, decodes[i % decodes.len()]))
            .collect();

        let predictor: Box<dyn DecodePredictor> = match cfg.predictor_accuracy {
            None => Box::new(Oracle),
            Some(a) => Box::new(FixedAccuracy::new(a, PREDICTOR_SEED)),
        };
        // The PD-aware policy reads the production heatmap.
        let mut je = JobExecutor::new(
            cfg.policy,
            Heatmap::default_production(),
            predictor,
            cfg.engine.block_size,
        );
        je.register_pool(&with_role(TeRole::Colocated), &pairs);
        let fabric = Fabric::new(cfg.cluster.clone());
        // DistFlow control plane: link every TE's head NPU with every other
        // (the paper's LinkCluster over the serving pool).
        let mut distflow = DistFlow::new(
            cfg.cluster.server.chip.generation == npu::specs::Generation::Gen3SuperPod,
        );
        let heads: Vec<NpuId> = tes.iter().map(|t| t.npus[0]).collect();
        distflow.link_cluster(&heads);
        ClusterSim {
            cfg,
            clock: Clock::new(),
            fabric,
            fabric_wake: None,
            tes,
            pairs,
            je,
            ingress: Ingress::default(),
            live: None,
            migrations: Migrations::default(),
            latency: LatencyStats::new(),
            counters: Counters::new(),
            first_arrival: None,
            last_completion: SimTime::ZERO,
            completed: 0,
            submitted: 0,
            failed: 0,
            distflow,
            tracer: Tracer::disabled(),
            metrics: MetricsRegistry::new(),
            fast_forward: true,
            event_budget: 200_000_000,
            events_processed: 0,
            events_scratch: Vec::new(),
            engine_total: EngineStats::default(),
            faults: FaultLayer::default(),
            salvaged_traces: Vec::new(),
            salvaged_counters: Counters::new(),
            trace_cfg: None,
            fleet: None,
            token_events: false,
        }
    }

    /// Builds one TE's engine from the cluster config; also used to stand up
    /// a fresh engine (empty KV, empty RTC) when a repair replaces a dead TE.
    fn build_engine(cfg: &ClusterConfig, role: TeRole) -> Engine {
        let mode = match role {
            TeRole::Colocated => EngineMode::Colocated,
            TeRole::Prefill => EngineMode::PrefillOnly,
            TeRole::Decode => EngineMode::DecodeOnly,
        };
        let engine_cfg = EngineConfig {
            mode,
            prefill_chunk_tokens: if role == TeRole::Prefill {
                4096
            } else {
                cfg.engine.prefill_chunk_tokens
            },
            ..cfg.engine.clone()
        };
        let cost = ExecCostModel::new(
            cfg.cluster.server.chip.clone(),
            cfg.cluster.hccs,
            cfg.model.clone(),
            cfg.parallelism,
        );
        Engine::new(engine_cfg, cost)
    }

    /// Turns on sim-time tracing across the whole cluster: the sim itself,
    /// the JE's scheduling decisions, DistFlow transfer plans, and every
    /// TE's engine + RTC. `capacity` bounds each component's span and event
    /// ring buffers.
    pub fn enable_tracing(&mut self, level: TraceLevel, capacity: usize) {
        self.trace_cfg = Some((level, capacity));
        self.tracer = Tracer::enabled(level, capacity);
        self.je.enable_tracing(level, capacity);
        self.distflow.enable_tracing(level, capacity);
        for te in &mut self.tes {
            te.engine.enable_tracing(level, capacity);
        }
    }

    /// The TE roles in play.
    pub fn roles(&self) -> Vec<(TeId, TeRole)> {
        self.tes.iter().map(|t| (t.id, t.role)).collect()
    }

    /// Disables (or re-enables) decode fast-forward. Single-stepping is the
    /// reference execution; fast-forward must match it bit-for-bit, so this
    /// switch exists for A/B verification and benchmarking, not for
    /// correctness.
    pub fn set_fast_forward(&mut self, on: bool) {
        self.fast_forward = on;
    }

    /// Replaces the default 200M-event livelock budget. The budget applies
    /// to each [`ClusterSim::run_to_completion`] or
    /// [`ClusterSim::step_until`] call on its own: a call panics once it
    /// has processed `budget` events, however many earlier calls
    /// processed. A long-lived live loop therefore never trips it by age
    /// alone, only by one slice that cannot drain.
    pub fn set_event_budget(&mut self, budget: u64) {
        self.event_budget = budget;
    }

    /// Events processed so far across all `run_to_completion` and
    /// `step_until` calls. A lifetime total; the event budget does not
    /// apply to it. No report renders it: it measures how the simulator
    /// ran (fast-forward processes fewer events than single-stepping for
    /// the same outcome), not what the simulation produced.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Schedules `ev`. The shared lane's head is the horizon handed to
    /// fast-forwarding engines, so everything that can mutate an engine
    /// mid-window (arrivals, populates, fabric completions, faults,
    /// repairs, health sweeps) goes there. Non-prefill `Wake`s take their
    /// own lane: their handlers only progress their own engine and emit
    /// events that never touch another TE. Prefill wakes stay shared: a
    /// completed prefill starts a KV migration toward a decode TE.
    /// Arrivals carry the arrival class so a streamed arrival scheduled
    /// late (one-lookahead) still wins same-instant ties exactly like its
    /// materialized twin with a globally-early sequence number would.
    fn sched(&mut self, at: SimTime, ev: Event) {
        let (lane, class) = match ev {
            Event::Wake(te) if self.tes[te.0 as usize].role != TeRole::Prefill => {
                (Lane::Own, CLASS_DEFAULT)
            }
            Event::Arrival(_) => (Lane::Shared, CLASS_ARRIVAL),
            _ => (Lane::Shared, CLASS_DEFAULT),
        };
        self.clock.schedule_in(lane, at, class, ev);
    }

    /// Runs until all injected requests complete (or nothing can progress).
    ///
    /// # Panics
    ///
    /// Panics if this call processes the event budget
    /// ([`ClusterSim::set_event_budget`], default 200M) — almost certainly
    /// a livelock.
    pub fn run_to_completion(&mut self) -> RunReport {
        self.drive(None);
        debug_assert_eq!(
            self.engine_total,
            self.engine_stats_sum(),
            "running engine statistics out of step with the engines"
        );
        self.report()
    }

    /// The event loop, and the reference every execution mode is checked
    /// against: pop the earliest event, handle it, repeat — until the
    /// queue is empty or the next event is past `limit`.
    fn drive(&mut self, limit: Option<SimTime>) {
        let mut processed: u64 = 0;
        while let Some(t) = self.clock.peek_time() {
            if limit.is_some_and(|l| t > l) {
                break;
            }
            let Some((now, ev)) = self.clock.next() else {
                break; // unreachable: peek_time above returned Some
            };
            self.handle(now, ev);
            processed += 1;
            assert!(
                processed < self.event_budget,
                "cluster sim exceeded event budget (livelock?)"
            );
        }
        self.events_processed += processed;
    }

    fn handle(&mut self, now: SimTime, ev: Event) {
        match ev {
            Event::Arrival(idx) => self.on_arrival(now, idx),
            Event::Wake(te) => self.on_wake(now, te),
            Event::Populate(te, epoch, ticket) => {
                let current = {
                    let t = &self.tes[te.0 as usize];
                    t.alive && t.epoch == epoch
                };
                if current {
                    self.te_mut(te).engine.populate_transfer_done(now, ticket);
                    self.reschedule_wake(now, te);
                }
            }
            Event::FabricAdvance => self.on_fabric(now),
            Event::Fault(idx) => self.on_fault(now, idx),
            Event::HealthCheck => self.on_health_check(now),
            Event::Redispatch(idx, gen) => {
                // A bumped generation means the request went terminal (and
                // the slot may hold a different request by now): no-op.
                if self.ingress.gen(idx) == gen {
                    self.dispatch(now, idx);
                }
            }
            Event::RepairDone(te) => self.on_repair_done(now, te),
            Event::StragglerEnd(te) => {
                // Harmless on a replacement engine: its slowdown is 1.0.
                let t = self.te_mut(te);
                if t.alive {
                    t.engine.set_slowdown(1.0);
                    self.reschedule_wake(now, te);
                }
            }
            Event::MigrationRetry(id) => self.on_migration_retry(now, id),
            Event::ModelReady(m) => self.on_model_ready(now, m),
        }
    }

    fn te_mut(&mut self, id: TeId) -> &mut Te {
        &mut self.tes[id.0 as usize]
    }
}
