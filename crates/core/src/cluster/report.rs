//! The run report: merged traces, every component's counters folded into
//! the metrics registry, the one renderer of the `metrics` section, and
//! the progress accessors tests and frontends poll.

use super::*;

/// Per-run results.
#[derive(Debug, Default)]
pub struct RunReport {
    /// End-to-end latency metrics across completed requests.
    pub latency: LatencyStats,
    /// Wall-clock span from first arrival to last completion.
    pub makespan: SimDuration,
    /// Requests that failed permanently (retry budget exhausted or
    /// rejected); always zero in fault-free runs.
    pub failed: u64,
    /// Event counters.
    pub counters: Counters,
    /// Merged sim-time trace (empty unless [`ClusterSim::enable_tracing`]
    /// was called). Components: `cluster`, `je`, `distflow`, `te<N>`, `rtc`.
    pub trace: Trace,
    /// Named metrics: counters from every component, the
    /// `cluster.te_busy_s` (per-TE busy time, including time salvaged from
    /// engines a repair replaced), `cluster.repair_latency_ms` and
    /// `fleet.cold_*_ms` samples, and, in traced runs only, the
    /// `cluster.queue_depth` series. The TTFT/TPOT/JCT samples are not
    /// here: `latency` is their one store, and
    /// [`RunReport::metrics_json`] renders them as `cluster.*_ms` entries.
    pub metrics: MetricsRegistry,
}

impl RunReport {
    /// Decode throughput over the makespan (tokens/s).
    pub fn throughput(&self) -> f64 {
        self.latency.decode_throughput(self.makespan)
    }

    /// Renders the report as a deterministic JSON value (the trace is
    /// excluded — compare it separately via `trace.to_json()`). Keys and
    /// counter entries come out in a fixed order, so two bit-identical runs
    /// produce byte-identical JSON, and rendering one report twice gives
    /// the same bytes twice.
    pub fn to_json(&mut self) -> serde::Value {
        use serde::{Serialize, Value};
        let counters: Vec<(String, Value)> = self
            .counters
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_value()))
            .collect();
        let metrics = self.metrics_json();
        Value::Object(vec![
            ("completed".to_string(), self.latency.completed().to_value()),
            ("failed".to_string(), self.failed.to_value()),
            (
                "makespan_ns".to_string(),
                self.makespan.as_nanos().to_value(),
            ),
            ("ttft_ms".to_string(), self.latency.ttft_ms().to_value()),
            ("tpot_ms".to_string(), self.latency.tpot_ms().to_value()),
            ("jct_ms".to_string(), self.latency.jct_ms().to_value()),
            ("counters".to_string(), Value::Object(counters)),
            ("metrics".to_string(), metrics),
        ])
    }

    /// The report's `metrics` section: the registry's entries plus
    /// `latency`'s samples as `cluster.{ttft,tpot,jct}_ms`, sorted by
    /// name. [`ClusterSim::metrics_snapshot_json`] renders through the
    /// same code.
    pub fn metrics_json(&mut self) -> serde::Value {
        render_metrics(&mut self.metrics, &mut self.latency)
    }
}

/// Renders a `metrics` section: the registry's entries plus the TTFT, TPOT
/// and JCT distributions of `latency`, their one store, as the
/// `cluster.ttft_ms`, `cluster.tpot_ms` and `cluster.jct_ms` samples
/// entries. [`RunReport::to_json`] and [`ClusterSim::metrics_snapshot_json`]
/// (`GET /metrics`) both render through here. The latency entries appear
/// only once a request has completed, and every entry comes out sorted by
/// name.
fn render_metrics(metrics: &mut MetricsRegistry, latency: &mut LatencyStats) -> serde::Value {
    let mut json = metrics.to_json();
    if latency.completed() == 0 {
        return json;
    }
    if let serde::Value::Object(entries) = &mut json {
        let [ttft, tpot, jct] = latency.samples_mut();
        for (name, samples) in [
            ("cluster.ttft_ms", ttft),
            ("cluster.tpot_ms", tpot),
            ("cluster.jct_ms", jct),
        ] {
            let at = entries.partition_point(|(k, _)| k.as_str() < name);
            debug_assert!(
                entries.get(at).is_none_or(|(k, _)| k != name),
                "{name} has a second store in the registry"
            );
            entries.insert(at, (name.to_string(), samples.to_json()));
        }
    }
    json
}

impl ClusterSim {
    /// Folds every component's counters into `metrics` (values accumulate
    /// across calls, matching `Counters` semantics).
    fn import_counters(&self, metrics: &mut MetricsRegistry) {
        metrics.import_counters(&self.counters);
        metrics.import_counters(self.je.counters());
        metrics.import_counters(self.distflow.counters());
        metrics.import_counters(&self.salvaged_counters);
        for te in &self.tes {
            metrics.import_counters(te.engine.counters());
            metrics.import_counters(te.engine.rtc().counters());
        }
    }

    pub(super) fn report(&mut self) -> RunReport {
        let start = self.first_arrival.unwrap_or(SimTime::ZERO);
        let makespan = self.last_completion.since(start.min(self.last_completion));
        let latency = std::mem::take(&mut self.latency);

        // Merge every component's trace into one timeline.
        let mut trace = Trace::default();
        trace.absorb("cluster", self.tracer.take());
        trace.absorb("je", self.je.take_trace());
        trace.absorb("distflow", self.distflow.take_trace());
        // Traces salvaged from engines that a repair replaced, under the
        // same `te<N>` component as the replacement so one TE slot reads
        // as one timeline.
        for (component, t) in std::mem::take(&mut self.salvaged_traces) {
            trace.absorb(&component, t);
        }
        for (i, te) in self.tes.iter_mut().enumerate() {
            trace.absorb(&format!("te{i}"), te.engine.take_trace());
        }

        let mut metrics = std::mem::take(&mut self.metrics);
        self.import_counters(&mut metrics);
        for t in &self.tes {
            let busy = t.prior_busy + t.engine.stats().busy;
            metrics.record("cluster.te_busy_s", busy.as_secs_f64());
        }
        RunReport {
            latency,
            makespan,
            failed: self.failed,
            counters: self.counters.clone(),
            trace,
            metrics,
        }
    }

    /// A point-in-time JSON snapshot of the report's `metrics` section so
    /// far, with every component's counters folded in — the `/metrics`
    /// endpoint. Works on clones: `import_counters` adds into the registry
    /// it is given, so folding into the live one would count every
    /// counter again in the final report.
    pub fn metrics_snapshot_json(&self) -> serde::Value {
        let mut snap = self.metrics.clone();
        self.import_counters(&mut snap);
        render_metrics(&mut snap, &mut self.latency.clone())
    }

    /// Completed / submitted counts (for progress checks in tests).
    pub fn progress(&self) -> (u64, u64) {
        (self.completed, self.submitted)
    }

    /// Requests that failed permanently (always zero without faults).
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Sum of every live engine's statistics (benches/diagnostics), kept
    /// as a running total so reading it is O(1). The `iterations` total
    /// counts logical iterations, so it is invariant under fast-forward — a
    /// useful cross-check that macro-stepping did the same work.
    pub fn engine_stats_total(&self) -> flowserve::EngineStats {
        self.engine_total
    }

    /// The running total's oracle: every live engine's statistics summed
    /// afresh.
    pub(super) fn engine_stats_sum(&self) -> flowserve::EngineStats {
        let mut total = flowserve::EngineStats::default();
        for te in &self.tes {
            total += te.engine.stats();
        }
        total
    }
}
