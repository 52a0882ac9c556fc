//! The run report: merged traces, every component's counters folded into
//! the metrics registry, and the progress accessors tests and frontends
//! poll.

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
    /// Per-TE busy time (includes busy time salvaged from engines that
    /// were replaced by a repair).
    pub te_busy: Vec<(TeId, SimDuration)>,
    /// Merged sim-time trace (empty unless [`ClusterSim::enable_tracing`]
    /// was called). Components: `cluster`, `je`, `distflow`, `te<N>`, `rtc`.
    pub trace: Trace,
    /// Named metrics: counters from every component plus `cluster.ttft_ms`
    /// / `cluster.tpot_ms` / `cluster.jct_ms` samples and the
    /// `cluster.queue_depth` series.
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
    /// produce byte-identical JSON.
    pub fn to_json(&mut self) -> serde::Value {
        use serde::{Serialize, Value};
        let counters: Vec<(String, Value)> = self
            .counters
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_value()))
            .collect();
        // `sim.events_processed` measures how the simulator executed (it
        // legitimately differs between fast-forward and single-stepping),
        // not what the simulation produced — keep it out of the
        // replay-comparable surface.
        let mut metrics = self.metrics.to_json();
        if let Value::Object(entries) = &mut metrics {
            entries.retain(|(k, _)| k != "sim.events_processed");
        }
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
        let te_busy: Vec<(TeId, SimDuration)> = self
            .tes
            .iter()
            .map(|t| (t.id, t.prior_busy + t.engine.stats().busy))
            .collect();
        let busy_id = metrics.samples("cluster.te_busy_s");
        for &(_, busy) in &te_busy {
            metrics.record(busy_id, busy.as_secs_f64());
        }
        RunReport {
            latency,
            makespan,
            failed: self.failed,
            counters: self.counters.clone(),
            te_busy,
            trace,
            metrics,
        }
    }

    /// A point-in-time JSON snapshot of the metrics registry with every
    /// component's counters folded in — the `/metrics` endpoint. Works on
    /// a clone: `Summary` computation sorts sample values in place, and
    /// perturbing the registry's internal order mid-run would break the
    /// live-vs-replay byte identity of the final report.
    pub fn metrics_snapshot_json(&self) -> serde::Value {
        let mut snap = self.metrics.clone();
        self.import_counters(&mut snap);
        snap.to_json()
    }

    /// Completed / submitted counts (for progress checks in tests).
    pub fn progress(&self) -> (u64, u64) {
        (self.completed, self.submitted)
    }

    /// Requests that failed permanently (always zero without faults).
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Sum of every live engine's statistics (benches/diagnostics). The
    /// `iterations` total counts logical iterations, so it is invariant
    /// under fast-forward — a useful cross-check that macro-stepping did
    /// the same work.
    pub fn engine_stats_total(&self) -> flowserve::EngineStats {
        let mut total = flowserve::EngineStats::default();
        for te in &self.tes {
            let s = te.engine.stats();
            total.iterations += s.iterations;
            total.busy += s.busy;
            total.output_tokens += s.output_tokens;
            total.finished += s.finished;
            total.preemptions += s.preemptions;
            total.ff_windows += s.ff_windows;
            total.ff_iterations += s.ff_iterations;
        }
        total
    }
}
