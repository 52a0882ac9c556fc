//! Model-fleet registry: hundreds of serverless model endpoints sharing
//! one NPU cluster (§6.2, "serverless" deployment).
//!
//! Single-model DeepServe pre-warms one checkpoint everywhere. The fleet
//! layer instead registers many models, tracks which TEs currently hold
//! each one in HBM, and prices cold starts through the four-tier storage
//! hierarchy (HBM ← DRAM ← local SSD ← remote store) plus the five-step
//! scaling pipeline. The registry itself is passive bookkeeping — the
//! cluster simulation drives state transitions so every mutation happens
//! at a deterministic simulated instant.

use crate::prompt_tree::TeId;
use crate::scaling::ScalingOptimizations;
use llm_model::{Checkpoint, ModelSpec};
use npu::pagecache::FileId;
use npu::RemoteStoreSpec;
use serde::{Number, Serialize, Value};
use simcore::SimDuration;

/// Fleet checkpoints get FileIds from this offset upward; low ids are
/// reserved for the single-model paths (fault repair uses `FileId(1)`).
pub const FLEET_FILE_BASE: u64 = 1000;

/// Where a registered model currently stands on the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadState {
    /// No TE holds the model; the next request pays a cold start.
    Unloaded,
    /// A checkpoint load is in flight; requests queue behind it.
    Loading,
    /// At least one live TE serves the model from HBM.
    Loaded,
}

impl LoadState {
    /// Stable lowercase name (gateway `/v1/models`, metrics labels).
    pub fn as_str(self) -> &'static str {
        match self {
            LoadState::Unloaded => "unloaded",
            LoadState::Loading => "loading",
            LoadState::Loaded => "loaded",
        }
    }
}

impl Serialize for LoadState {
    fn to_value(&self) -> Value {
        Value::String(self.as_str().to_string())
    }
}

/// How a cold start fetches and distributes the checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColdStartMode {
    /// Baseline: every miss streams the whole checkpoint from the remote
    /// store, ignoring local SSD/DRAM residency (what a pre-warmed
    /// single-model deployment pays when the model is not the one warmed).
    PrewarmMiss,
    /// Storage hierarchy: fault in only the bytes missing from each tier
    /// (remote → SSD → DRAM), then TE-Load from DRAM.
    Hierarchy,
    /// Hierarchy plus λScale-style binary-tree multicast when scaling an
    /// already-loaded model out to more TEs.
    HierarchyMulticast,
}

impl ColdStartMode {
    /// Stable name for reports and bench JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            ColdStartMode::PrewarmMiss => "prewarm_miss",
            ColdStartMode::Hierarchy => "hierarchy",
            ColdStartMode::HierarchyMulticast => "hierarchy_multicast",
        }
    }
}

/// Fleet-mode tuning knobs.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Scaling-pipeline optimizations applied to every cold start.
    pub scaling: ScalingOptimizations,
    /// Checkpoint fetch/distribution strategy.
    pub mode: ColdStartMode,
    /// The shared remote checkpoint store behind every server's SSD.
    pub remote: RemoteStoreSpec,
    /// Cold-start SLA: a queued request should see first dispatch within
    /// this bound of its arrival (per-tier attainment is reported).
    pub cold_sla: SimDuration,
    /// Weight bytes one TE may pin in HBM before evicting its LRU models
    /// (None = 70% of the TE's aggregate HBM; the rest stays for KV).
    pub hbm_weight_budget: Option<u64>,
    /// Queue depth on a model's hottest host above which the JE scales
    /// the model out to one more TE.
    pub scale_out_queue: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            scaling: ScalingOptimizations::all(),
            mode: ColdStartMode::Hierarchy,
            remote: RemoteStoreSpec::default(),
            cold_sla: SimDuration::from_secs(30),
            hbm_weight_budget: None,
            scale_out_queue: 8,
        }
    }
}

/// One registered model endpoint.
#[derive(Debug, Clone)]
pub struct ModelEntry {
    /// Endpoint name exposed by the gateway ("fleet-017-llama3-8b").
    pub name: String,
    /// Model geometry.
    pub spec: ModelSpec,
    /// The checkpoint file backing the endpoint.
    pub ckpt: Checkpoint,
}

/// The fleet: model entries plus their live placement.
///
/// Host lists are kept sorted so iteration order is deterministic
/// regardless of load/evict interleaving.
#[derive(Debug, Clone, Default)]
pub struct ModelRegistry {
    entries: Vec<ModelEntry>,
    states: Vec<LoadState>,
    hosts: Vec<Vec<TeId>>,
}

impl ModelRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a model endpoint; returns its fleet index.
    pub fn register(&mut self, name: String, spec: ModelSpec) -> u32 {
        let idx = self.entries.len() as u32;
        let file = FileId(FLEET_FILE_BASE + idx as u64);
        self.entries.push(ModelEntry {
            name,
            ckpt: Checkpoint::new(file, spec.clone()),
            spec,
        });
        self.states.push(LoadState::Unloaded);
        self.hosts.push(Vec::new());
        idx
    }

    /// Number of registered models.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entry for model `m`, if registered.
    pub fn entry(&self, m: u32) -> Option<&ModelEntry> {
        self.entries.get(m as usize)
    }

    /// Load state of model `m` (Unloaded if out of range).
    pub fn state(&self, m: u32) -> LoadState {
        self.states
            .get(m as usize)
            .copied()
            .unwrap_or(LoadState::Unloaded)
    }

    /// TEs currently serving model `m` from HBM, ascending.
    pub fn hosts(&self, m: u32) -> &[TeId] {
        self.hosts.get(m as usize).map_or(&[], Vec::as_slice)
    }

    /// Looks up a model index by endpoint name.
    pub fn find(&self, name: &str) -> Option<u32> {
        self.entries
            .iter()
            .position(|e| e.name == name)
            .map(|i| i as u32)
    }

    /// Marks a load in flight.
    pub fn set_loading(&mut self, m: u32) {
        if let Some(s) = self.states.get_mut(m as usize) {
            *s = LoadState::Loading;
        }
    }

    /// Records `te` as a live host of `m` and marks the model loaded.
    pub fn set_loaded(&mut self, m: u32, te: TeId) {
        let Some(hosts) = self.hosts.get_mut(m as usize) else {
            return;
        };
        if let Err(pos) = hosts.binary_search(&te) {
            hosts.insert(pos, te);
        }
        if let Some(s) = self.states.get_mut(m as usize) {
            *s = LoadState::Loaded;
        }
    }

    /// Removes `te` from `m`'s hosts; the model drops back to Unloaded
    /// when its last host disappears (unless a load is in flight).
    pub fn remove_host(&mut self, m: u32, te: TeId) {
        let Some(hosts) = self.hosts.get_mut(m as usize) else {
            return;
        };
        if let Ok(pos) = hosts.binary_search(&te) {
            hosts.remove(pos);
        }
        if hosts.is_empty() {
            if let Some(s) = self.states.get_mut(m as usize) {
                if *s == LoadState::Loaded {
                    *s = LoadState::Unloaded;
                }
            }
        }
    }

    /// Reverts a failed load: back to Unloaded if no host survives, or
    /// Loaded if some replica is still up (an aborted scale-out).
    pub fn abort_loading(&mut self, m: u32) {
        let has_hosts = !self.hosts(m).is_empty();
        if let Some(s) = self.states.get_mut(m as usize) {
            *s = if has_hosts {
                LoadState::Loaded
            } else {
                LoadState::Unloaded
            };
        }
    }

    /// Crash cleanup: drops `te` from every model's host list.
    pub fn drop_host_everywhere(&mut self, te: TeId) {
        for m in 0..self.entries.len() as u32 {
            self.remove_host(m, te);
        }
    }
}

impl Serialize for ModelRegistry {
    fn to_value(&self) -> Value {
        Value::Array(
            self.entries
                .iter()
                .enumerate()
                .map(|(i, e)| {
                    Value::Object(vec![
                        ("id".to_string(), Value::String(e.name.clone())),
                        ("state".to_string(), self.states[i].to_value()),
                        (
                            "hosts".to_string(),
                            Value::Array(
                                self.hosts[i]
                                    .iter()
                                    .map(|t| Value::Number(Number::U64(u64::from(t.0))))
                                    .collect(),
                            ),
                        ),
                        (
                            "weight_bytes".to_string(),
                            Value::Number(Number::U64(e.spec.weight_bytes())),
                        ),
                    ])
                })
                .collect(),
        )
    }
}

/// Builds a registry of `n` models cycling three preset families with
/// per-index size variation, so a 100+-model fleet spans ~7–80 GB
/// checkpoints: big enough to stress DRAM, small enough that SSD holds a
/// long tail.
pub fn fleet_catalog(n: usize) -> ModelRegistry {
    let families = [
        ModelSpec::generic_7b(),
        ModelSpec::llama3_8b(),
        ModelSpec::internal_34b(),
    ];
    let mut reg = ModelRegistry::new();
    for i in 0..n {
        let base = &families[i % families.len()];
        // Vary size ±30% in 5% steps so no two neighbours in a family
        // share a checkpoint size.
        let factor = 1.0 + 0.05 * (i % 13) as f64 - 0.30;
        let params = (base.params as f64 * factor) as u64;
        let name = format!("fleet-{i:03}-{}", base.name);
        reg.register(name, base.clone().scaled_to(params));
    }
    reg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_lookup() {
        let mut reg = ModelRegistry::new();
        let a = reg.register("m-a".into(), ModelSpec::tiny_test());
        let b = reg.register("m-b".into(), ModelSpec::generic_7b());
        assert_eq!((a, b), (0, 1));
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.find("m-b"), Some(1));
        assert_eq!(reg.find("nope"), None);
        assert_eq!(reg.state(0), LoadState::Unloaded);
        // Fleet FileIds stay clear of the repair path's FileId(1).
        assert_eq!(reg.entry(0).map(|e| e.ckpt.file), Some(FileId(1000)));
        assert_eq!(reg.entry(1).map(|e| e.ckpt.file), Some(FileId(1001)));
    }

    #[test]
    fn host_lifecycle_keeps_sorted_and_transitions_state() {
        let mut reg = ModelRegistry::new();
        let m = reg.register("m".into(), ModelSpec::tiny_test());
        reg.set_loading(m);
        assert_eq!(reg.state(m), LoadState::Loading);
        reg.set_loaded(m, TeId(3));
        reg.set_loaded(m, TeId(1));
        reg.set_loaded(m, TeId(1)); // idempotent
        assert_eq!(reg.hosts(m), &[TeId(1), TeId(3)]);
        assert_eq!(reg.state(m), LoadState::Loaded);
        reg.remove_host(m, TeId(1));
        assert_eq!(reg.state(m), LoadState::Loaded);
        reg.remove_host(m, TeId(3));
        assert_eq!(reg.state(m), LoadState::Unloaded);
    }

    #[test]
    fn crash_cleanup_drops_te_from_all_models() {
        let mut reg = ModelRegistry::new();
        for i in 0..3 {
            let m = reg.register(format!("m{i}"), ModelSpec::tiny_test());
            reg.set_loaded(m, TeId(0));
            reg.set_loaded(m, TeId(2));
        }
        reg.drop_host_everywhere(TeId(0));
        for m in 0..3 {
            assert_eq!(reg.hosts(m), &[TeId(2)]);
            assert_eq!(reg.state(m), LoadState::Loaded);
        }
    }

    #[test]
    fn catalog_spans_sizes_and_names_are_unique() {
        let reg = fleet_catalog(120);
        assert_eq!(reg.len(), 120);
        let mut names: Vec<_> = (0..120)
            .map(|i| reg.entry(i).map(|e| e.name.clone()))
            .collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 120, "endpoint names must be unique");
        let sizes: Vec<u64> = (0..120)
            .filter_map(|i| reg.entry(i).map(|e| e.spec.weight_bytes()))
            .collect();
        let (min, max) = (sizes.iter().min(), sizes.iter().max());
        assert!(min < max, "catalog must span sizes");
        // Neighbouring same-family entries differ in checkpoint size.
        assert_ne!(sizes[0], sizes[3]);
        // A catalog-scale fleet outweighs a 1.5 TB DRAM tier in aggregate.
        let total: u64 = sizes.iter().sum();
        assert!(total > 2 * (1u64 << 40), "total {total} should exceed 2 TB");
    }

    #[test]
    fn load_state_names_are_stable() {
        assert_eq!(LoadState::Unloaded.as_str(), "unloaded");
        assert_eq!(LoadState::Loading.as_str(), "loading");
        assert_eq!(LoadState::Loaded.as_str(), "loaded");
        assert_eq!(
            ColdStartMode::HierarchyMulticast.as_str(),
            "hierarchy_multicast"
        );
    }
}
