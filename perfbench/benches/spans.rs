//! Wall-clock spans kept in memory, their per-layer self times, and the
//! Chrome trace-event writer (the file opens in Perfetto).

use serde::{Number, Value};
use std::cell::RefCell;
use std::time::Instant;

/// The layer a span's time is charged to. Each layer is one track in the
/// Chrome trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// Everything before the first request can be served.
    Setup,
    /// Trace generation: `workloads` generators plus `deepserve::api`
    /// materialization (pulls of a streamed trace while the run goes).
    Workloads,
    /// Event instants that admitted an arrival: the JE's dispatch plus
    /// any engine work started at the same instant.
    Dispatch,
    /// Event instants that only advanced engines.
    Engine,
    /// The final `run_to_completion` and `RunReport::to_json`.
    Report,
    /// The benchmark's own stepping loop between instants.
    Bench,
    /// Gateway client: TCP connect.
    Connect,
    /// Gateway client: request sent until the response head arrived.
    Head,
    /// Gateway client: response head until the first token frame.
    FirstToken,
    /// Gateway client: first token frame until `[DONE]`.
    Stream,
    /// Gateway client: between one request's `[DONE]` and the next
    /// request's connect.
    Client,
}

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Setup => "setup",
            Layer::Workloads => "workloads",
            Layer::Dispatch => "dispatch",
            Layer::Engine => "engine",
            Layer::Report => "report",
            Layer::Bench => "bench-loop",
            Layer::Connect => "gateway.connect",
            Layer::Head => "gateway.head",
            Layer::FirstToken => "gateway.first-token",
            Layer::Stream => "gateway.stream",
            Layer::Client => "gateway.client",
        }
    }

    /// Whether the layer is the benchmark's own time between the program's
    /// spans (the stepping loop, the client between requests) rather than a
    /// layer of the program. Self-time sums leave it out.
    pub fn is_residual(self) -> bool {
        matches!(self, Layer::Bench | Layer::Client)
    }
}

/// One timed interval. Times are nanoseconds since the recorder's epoch.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub layer: Layer,
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// Simulator events and engine iterations the span covered.
    pub events: u64,
    pub iters: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// An append-only span store.
pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(epoch: Instant) -> Recorder {
        Recorder {
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records `[start, end)` and returns its index.
    pub fn push(
        &mut self,
        layer: Layer,
        name: &'static str,
        (start, end): (Instant, Instant),
        parent: Option<usize>,
    ) -> usize {
        self.push_ns(layer, name, (self.ns(start), self.ns(end)), parent)
    }

    /// Records `[start, end)` given in nanoseconds since the epoch.
    pub fn push_ns(
        &mut self,
        layer: Layer,
        name: &'static str,
        (start, end): (u64, u64),
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            layer,
            name,
            start,
            end,
            parent,
            events: 0,
            iters: 0,
        });
        self.spans.len() - 1
    }

    /// Claims the workload pulls recorded since the last call as children
    /// of `parent`.
    pub fn claim_pulls(&mut self, parent: Option<usize>) {
        for pull in PULLS.with(|p| std::mem::take(&mut *p.borrow_mut())) {
            self.push_ns(Layer::Workloads, "pull", pull, parent);
        }
    }
}

thread_local! {
    /// `(start, end)` of workload-iterator pulls not yet claimed by the
    /// recorder. The cluster pulls its stream on the thread that steps it
    /// (one thread at the default settings), so a thread-local needs no
    /// lock or atomic and leaves the wrapped iterator `Send`.
    static PULLS: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

/// Times every `next()` of the wrapped iterator.
pub struct Timed<I> {
    inner: I,
    epoch: Instant,
}

impl<I> Timed<I> {
    pub fn new(inner: I, epoch: Instant) -> Timed<I> {
        Timed { inner, epoch }
    }
}

impl<I: Iterator> Iterator for Timed<I> {
    type Item = I::Item;

    fn next(&mut self) -> Option<I::Item> {
        let start = Instant::now();
        let item = self.inner.next();
        let end = Instant::now();
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        PULLS.with(|p| p.borrow_mut().push((ns(start), ns(end))));
        item
    }
}

/// Self time of every span: its duration minus its children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur());
        }
    }
    own
}

/// Seconds of self time per layer, over the spans `keep` selects, in
/// layer order.
pub fn self_by_layer(spans: &[Span], keep: impl Fn(&Span) -> bool) -> Vec<(Layer, f64)> {
    let own = self_times(spans);
    let mut out: Vec<(Layer, f64)> = Vec::new();
    for (s, ns) in spans.iter().zip(own) {
        if !keep(s) {
            continue;
        }
        match out.iter_mut().find(|(l, _)| *l == s.layer) {
            Some((_, secs)) => *secs += ns as f64 * 1e-9,
            None => out.push((s.layer, ns as f64 * 1e-9)),
        }
    }
    out.sort_by_key(|(l, _)| *l);
    out
}

/// Seconds of self time of the program's layers in `rows`: the residual
/// layers left out.
pub fn layer_sum(rows: &[(Layer, f64)]) -> f64 {
    rows.iter()
        .filter(|(l, _)| !l.is_residual())
        .map(|(_, secs)| secs)
        .sum()
}

/// Renders a self-time table against `total_s`. The `sum` row adds the
/// program's layers only; the residual rows follow it, so a sum near 100%
/// means the layer spans covered the run.
pub fn self_table(rows: &[(Layer, f64)], total_s: f64) -> String {
    let mut out = format!("{:<22} {:>12} {:>8}\n", "layer", "self s", "share");
    let line = |name: &str, secs: f64| {
        format!(
            "{:<22} {:>12.6} {:>7.2}%",
            name,
            secs,
            100.0 * secs / total_s
        )
    };
    for (layer, secs) in rows.iter().filter(|(l, _)| !l.is_residual()) {
        out.push_str(&line(layer.name(), *secs));
        out.push('\n');
    }
    out.push_str(&line("sum", layer_sum(rows)));
    out.push_str(&format!("  (of {total_s:.6} s)\n"));
    for (layer, secs) in rows.iter().filter(|(l, _)| l.is_residual()) {
        out.push_str(&line(layer.name(), *secs));
        out.push_str("  (residual: the benchmark's own time, not in the sum)\n");
    }
    out
}

fn num(x: f64) -> Value {
    Value::Number(Number::F64(x))
}

fn int(x: u64) -> Value {
    Value::Number(Number::U64(x))
}

fn text(s: &str) -> Value {
    Value::String(s.to_string())
}

/// Chrome trace-event JSON for one process: one complete (`"X"`) event per
/// span, one track per layer. Spans `bulky` selects beyond the first `cap`
/// are dropped with their children (and counted) so the file stays
/// openable.
pub fn chrome_json(
    spans: &[Span],
    process: &str,
    cap: usize,
    bulky: impl Fn(&Span) -> bool,
) -> String {
    let mut events = vec![Value::Object(vec![
        ("name".into(), text("process_name")),
        ("ph".into(), text("M")),
        ("pid".into(), int(0)),
        (
            "args".into(),
            Value::Object(vec![("name".into(), text(process))]),
        ),
    ])];
    let mut layers: Vec<Layer> = spans.iter().map(|s| s.layer).collect();
    layers.sort();
    layers.dedup();
    for layer in layers {
        events.push(Value::Object(vec![
            ("name".into(), text("thread_name")),
            ("ph".into(), text("M")),
            ("pid".into(), int(0)),
            ("tid".into(), int(layer as u64)),
            (
                "args".into(),
                Value::Object(vec![("name".into(), text(layer.name()))]),
            ),
        ]));
    }
    // Children follow their parent in the store, so a dropped parent is
    // known by the time its children come up.
    let mut kept = vec![true; spans.len()];
    let mut bulk = 0;
    for (i, s) in spans.iter().enumerate() {
        if s.parent.is_some_and(|p| !kept[p]) {
            kept[i] = false;
        } else if bulky(s) {
            bulk += 1;
            kept[i] = bulk <= cap;
        }
    }
    let dropped = kept.iter().filter(|k| !**k).count();
    for (s, _) in spans.iter().zip(&kept).filter(|(_, k)| **k) {
        let mut args = Vec::new();
        if s.events > 0 || s.iters > 0 {
            args.push(("events".into(), int(s.events)));
            args.push(("iterations".into(), int(s.iters)));
        }
        events.push(Value::Object(vec![
            ("name".into(), text(s.name)),
            ("cat".into(), text(s.layer.name())),
            ("ph".into(), text("X")),
            ("ts".into(), num(s.start as f64 / 1e3)),
            ("dur".into(), num(s.dur() as f64 / 1e3)),
            ("pid".into(), int(0)),
            ("tid".into(), int(s.layer as u64)),
            ("args".into(), Value::Object(args)),
        ]));
    }
    Value::Object(vec![
        ("traceEvents".into(), Value::Array(events)),
        ("displayTimeUnit".into(), text("ms")),
        (
            "otherData".into(),
            Value::Object(vec![("dropped_spans".into(), int(dropped as u64))]),
        ),
    ])
    .to_json()
}
