//! Sim-time tracing: spans and point events on the simulation clock.
//!
//! Components own a [`Tracer`] each; a tracer is **disabled by default** and
//! every emission method starts with a single branch on that flag, so the
//! hot path pays one predictable-taken branch and nothing else when tracing
//! is off (no allocation, no formatting, no record construction — attribute
//! vectors are only built behind `is_enabled()` guards at the call sites).
//!
//! Records are ring-buffered: when a tracer reaches its capacity the oldest
//! record is dropped and counted in `dropped`, bounding memory for
//! arbitrarily long runs. At collection time each component's buffer is
//! drained into a [`Trace`] and merged with [`Trace::absorb`], which remaps
//! span IDs and tags every record with the component name, so a cluster-wide
//! trace reads like one timeline (`te0.engine`, `te0.rtc`, `je`, ...).
//!
//! Two verbosity levels: [`TraceLevel::Lifecycle`] records request-level
//! milestones and iteration spans; [`TraceLevel::Full`] additionally records
//! per-chunk and per-decode-token events (orders of magnitude more records —
//! meant for short diagnostic runs).

use crate::time::SimTime;
use serde::value::{Number, Value};
use std::collections::VecDeque;

/// Identifier of a span within one [`Trace`]. `SpanId::NONE` (0) means
/// "no span" (top-level event, or tracing disabled).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The null span: parent of root spans, and what a disabled tracer
    /// returns.
    pub const NONE: SpanId = SpanId(0);

    /// Whether this is a real span.
    pub fn is_some(self) -> bool {
        self.0 != 0
    }
}

/// An attribute value attached to a span or event.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// Unsigned integer (counts, token numbers, nanosecond stamps).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float (scores, rates).
    F64(f64),
    /// Short label (policy names, backends).
    Str(String),
}

impl AttrValue {
    fn to_value(&self) -> Value {
        match self {
            AttrValue::U64(v) => Value::Number(Number::U64(*v)),
            AttrValue::I64(v) => Value::Number(Number::I64(*v)),
            AttrValue::F64(v) => Value::Number(Number::F64(*v)),
            AttrValue::Str(s) => Value::String(s.clone()),
        }
    }
}

impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::U64(v)
    }
}
impl From<u32> for AttrValue {
    fn from(v: u32) -> Self {
        AttrValue::U64(v as u64)
    }
}
impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::U64(v as u64)
    }
}
impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::I64(v)
    }
}
impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::F64(v)
    }
}
impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::U64(v as u64)
    }
}
impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_string())
    }
}
impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v)
    }
}
impl From<SimTime> for AttrValue {
    fn from(v: SimTime) -> Self {
        AttrValue::U64(v.as_nanos())
    }
}

/// Attribute list type used by all emission APIs.
pub type Attrs = Vec<(&'static str, AttrValue)>;

/// A closed or still-open span: something with duration on the sim clock.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Trace-unique identifier (never 0).
    pub id: SpanId,
    /// Enclosing span, or [`SpanId::NONE`].
    pub parent: SpanId,
    /// What this span is ("request", "iteration", "kv_migration", ...).
    pub label: &'static str,
    /// Emitting component, filled in by [`Trace::absorb`] (empty until
    /// merged).
    pub component: String,
    /// Start instant.
    pub start: SimTime,
    /// End instant; `None` if the span was still open at collection.
    pub end: Option<SimTime>,
    /// Key/value annotations.
    pub attrs: Attrs,
}

/// An instantaneous event, optionally inside a span.
#[derive(Debug, Clone)]
pub struct EventRecord {
    /// When it happened.
    pub at: SimTime,
    /// What happened ("request.first_token", "rtc.hit", ...).
    pub label: &'static str,
    /// Emitting component, filled in by [`Trace::absorb`].
    pub component: String,
    /// Enclosing span, or [`SpanId::NONE`].
    pub span: SpanId,
    /// Key/value annotations.
    pub attrs: Attrs,
}

impl SpanRecord {
    /// Looks up an unsigned-integer attribute by key.
    pub fn attr_u64(&self, key: &str) -> Option<u64> {
        attr_u64(&self.attrs, key)
    }
}

impl EventRecord {
    /// Looks up an unsigned-integer attribute by key.
    pub fn attr_u64(&self, key: &str) -> Option<u64> {
        attr_u64(&self.attrs, key)
    }
}

fn attr_u64(attrs: &Attrs, key: &str) -> Option<u64> {
    attrs
        .iter()
        .find(|(k, _)| *k == key)
        .and_then(|(_, v)| match v {
            AttrValue::U64(n) => Some(*n),
            AttrValue::I64(n) if *n >= 0 => Some(*n as u64),
            _ => None,
        })
}

fn attrs_to_value(attrs: &Attrs) -> Value {
    Value::Object(
        attrs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_value()))
            .collect(),
    )
}

/// Emission verbosity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceLevel {
    /// Request milestones, iteration spans, cache/transfer events.
    Lifecycle,
    /// Lifecycle plus per-prefill-chunk and per-decode-token events.
    Full,
}

/// A per-component span/event recorder. See the module docs for the
/// enabled/disabled and ring-buffer semantics.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    level: TraceLevel,
    capacity: usize,
    next_id: u64,
    spans: VecDeque<SpanRecord>,
    events: VecDeque<EventRecord>,
    dropped: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::disabled()
    }
}

impl Tracer {
    /// The zero-cost default: every emission method returns immediately.
    pub fn disabled() -> Self {
        Tracer {
            enabled: false,
            level: TraceLevel::Lifecycle,
            capacity: 0,
            next_id: 1,
            spans: VecDeque::new(),
            events: VecDeque::new(),
            dropped: 0,
        }
    }

    /// An active tracer keeping at most `capacity` spans and `capacity`
    /// events (oldest dropped first).
    pub fn enabled(level: TraceLevel, capacity: usize) -> Self {
        Tracer {
            enabled: true,
            level,
            capacity: capacity.max(1),
            next_id: 1,
            spans: VecDeque::new(),
            events: VecDeque::new(),
            dropped: 0,
        }
    }

    /// Whether emissions are recorded at all.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Whether per-token/per-chunk (Full-level) emissions are recorded.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.enabled && self.level == TraceLevel::Full
    }

    /// Opens a root span. Returns [`SpanId::NONE`] when disabled.
    pub fn start_span(&mut self, at: SimTime, label: &'static str, attrs: Attrs) -> SpanId {
        self.start_child(at, label, SpanId::NONE, attrs)
    }

    /// Opens a span under `parent`. Returns [`SpanId::NONE`] when disabled.
    pub fn start_child(
        &mut self,
        at: SimTime,
        label: &'static str,
        parent: SpanId,
        attrs: Attrs,
    ) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        let id = SpanId(self.next_id);
        self.next_id += 1;
        if self.spans.len() == self.capacity {
            self.spans.pop_front();
            self.dropped += 1;
        }
        self.spans.push_back(SpanRecord {
            id,
            parent,
            label,
            component: String::new(),
            start: at,
            end: None,
            attrs,
        });
        id
    }

    /// Closes a span. A no-op when disabled, when `id` is NONE, or when the
    /// span was already evicted from the ring.
    pub fn end_span(&mut self, at: SimTime, id: SpanId) {
        if !self.enabled || !id.is_some() {
            return;
        }
        // Spans close soon after they open in practice; search from the back.
        if let Some(s) = self.spans.iter_mut().rev().find(|s| s.id == id) {
            s.end = Some(at);
        }
    }

    /// Records a top-level point event.
    pub fn event(&mut self, at: SimTime, label: &'static str, attrs: Attrs) {
        self.event_in(at, label, SpanId::NONE, attrs);
    }

    /// Records a point event inside `span`.
    pub fn event_in(&mut self, at: SimTime, label: &'static str, span: SpanId, attrs: Attrs) {
        if !self.enabled {
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(EventRecord {
            at,
            label,
            component: String::new(),
            span,
            attrs,
        });
    }

    /// Drains everything recorded so far into a [`Trace`]. The tracer stays
    /// enabled and keeps allocating fresh span IDs (IDs never repeat within
    /// one tracer's lifetime).
    pub fn take(&mut self) -> Trace {
        Trace {
            spans: self.spans.drain(..).collect(),
            events: self.events.drain(..).collect(),
            dropped: std::mem::take(&mut self.dropped),
        }
    }
}

/// A collected, mergeable set of trace records.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Spans, in open order.
    pub spans: Vec<SpanRecord>,
    /// Events, in emission order.
    pub events: Vec<EventRecord>,
    /// Records evicted by ring-buffer pressure before collection.
    pub dropped: u64,
}

impl Trace {
    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.events.is_empty()
    }

    fn max_id(&self) -> u64 {
        self.spans.iter().map(|s| s.id.0).max().unwrap_or(0)
    }

    /// Merges `other` into `self`: every absorbed record is tagged with
    /// `component` (unless already tagged by an earlier merge) and span IDs
    /// are offset past this trace's to stay unique.
    pub fn absorb(&mut self, component: &str, other: Trace) {
        let base = self.max_id();
        let remap = |id: SpanId| {
            if id.is_some() {
                SpanId(id.0 + base)
            } else {
                SpanId::NONE
            }
        };
        for mut s in other.spans {
            s.id = remap(s.id);
            s.parent = remap(s.parent);
            if s.component.is_empty() {
                s.component = component.to_string();
            }
            self.spans.push(s);
        }
        for mut e in other.events {
            e.span = remap(e.span);
            if e.component.is_empty() {
                e.component = component.to_string();
            }
            self.events.push(e);
        }
        self.dropped += other.dropped;
    }

    /// Events with the given label, in emission order.
    pub fn events_labeled<'a>(
        &'a self,
        label: &'a str,
    ) -> impl Iterator<Item = &'a EventRecord> + 'a {
        self.events.iter().filter(move |e| e.label == label)
    }

    /// Spans with the given label, in open order.
    pub fn spans_labeled<'a>(
        &'a self,
        label: &'a str,
    ) -> impl Iterator<Item = &'a SpanRecord> + 'a {
        self.spans.iter().filter(move |s| s.label == label)
    }

    /// Renders the trace as a JSON value (see DESIGN.md "Observability" for
    /// the schema).
    pub fn to_json(&self) -> Value {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Value::Object(vec![
                    ("id".to_string(), Value::Number(Number::U64(s.id.0))),
                    ("parent".to_string(), Value::Number(Number::U64(s.parent.0))),
                    ("component".to_string(), Value::String(s.component.clone())),
                    ("label".to_string(), Value::String(s.label.to_string())),
                    (
                        "start_ns".to_string(),
                        Value::Number(Number::U64(s.start.as_nanos())),
                    ),
                    (
                        "end_ns".to_string(),
                        match s.end {
                            Some(t) => Value::Number(Number::U64(t.as_nanos())),
                            None => Value::Null,
                        },
                    ),
                    ("attrs".to_string(), attrs_to_value(&s.attrs)),
                ])
            })
            .collect();
        let events = self
            .events
            .iter()
            .map(|e| {
                Value::Object(vec![
                    (
                        "at_ns".to_string(),
                        Value::Number(Number::U64(e.at.as_nanos())),
                    ),
                    ("component".to_string(), Value::String(e.component.clone())),
                    ("label".to_string(), Value::String(e.label.to_string())),
                    ("span".to_string(), Value::Number(Number::U64(e.span.0))),
                    ("attrs".to_string(), attrs_to_value(&e.attrs)),
                ])
            })
            .collect();
        Value::Object(vec![
            ("spans".to_string(), Value::Array(spans)),
            ("events".to_string(), Value::Array(events)),
            (
                "dropped".to_string(),
                Value::Number(Number::U64(self.dropped)),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn disabled_tracer_records_nothing_and_returns_none_ids() {
        let mut tr = Tracer::disabled();
        let s = tr.start_span(t(0), "a", vec![("k", 1u64.into())]);
        assert_eq!(s, SpanId::NONE);
        tr.event(t(1), "e", vec![]);
        tr.end_span(t(2), s);
        let trace = tr.take();
        assert!(trace.is_empty());
        assert_eq!(trace.dropped, 0);
    }

    #[test]
    fn span_nesting_and_ordering_are_deterministic() {
        let run = || {
            let mut tr = Tracer::enabled(TraceLevel::Lifecycle, 1024);
            let root = tr.start_span(t(0), "root", vec![]);
            let child = tr.start_child(t(1), "child", root, vec![("n", 7u64.into())]);
            tr.event_in(t(2), "tick", child, vec![]);
            tr.end_span(t(3), child);
            tr.end_span(t(4), root);
            tr.take()
        };
        let a = run();
        let b = run();
        assert_eq!(a.spans.len(), 2);
        assert_eq!(a.spans[0].label, "root");
        assert_eq!(a.spans[1].parent, a.spans[0].id);
        assert_eq!(a.spans[1].end, Some(t(3)));
        assert_eq!(a.events[0].span, a.spans[1].id);
        // Determinism: identical emission sequences produce identical JSON.
        assert_eq!(a.to_json().to_json(), b.to_json().to_json());
    }

    #[test]
    fn ring_buffer_drops_oldest_and_counts() {
        let mut tr = Tracer::enabled(TraceLevel::Lifecycle, 4);
        for i in 0..10u64 {
            tr.event(t(i), "e", vec![("i", i.into())]);
        }
        let trace = tr.take();
        assert_eq!(trace.events.len(), 4);
        assert_eq!(trace.dropped, 6);
        assert_eq!(trace.events[0].attr_u64("i"), Some(6));
        assert_eq!(trace.events[3].attr_u64("i"), Some(9));
    }

    #[test]
    fn ending_an_evicted_span_is_a_noop() {
        let mut tr = Tracer::enabled(TraceLevel::Lifecycle, 2);
        let old = tr.start_span(t(0), "old", vec![]);
        tr.start_span(t(1), "a", vec![]);
        tr.start_span(t(2), "b", vec![]); // evicts "old"
        tr.end_span(t(3), old);
        let trace = tr.take();
        assert_eq!(trace.spans.len(), 2);
        assert!(trace.spans.iter().all(|s| s.label != "old"));
        assert_eq!(trace.dropped, 1);
    }

    #[test]
    fn absorb_remaps_ids_and_tags_components() {
        let mut a = Tracer::enabled(TraceLevel::Lifecycle, 16);
        let ra = a.start_span(t(0), "x", vec![]);
        a.event_in(t(1), "ea", ra, vec![]);
        let mut b = Tracer::enabled(TraceLevel::Lifecycle, 16);
        let rb = b.start_span(t(0), "y", vec![]);
        b.event_in(t(1), "eb", rb, vec![]);

        let mut merged = a.take();
        merged.absorb("", Trace::default()); // no-op
        let mut combined = Trace::default();
        combined.absorb("compA", merged);
        combined.absorb("compB", b.take());

        assert_eq!(combined.spans.len(), 2);
        let ids: Vec<u64> = combined.spans.iter().map(|s| s.id.0).collect();
        assert_ne!(ids[0], ids[1], "absorbed IDs must stay unique");
        assert_eq!(combined.spans[0].component, "compA");
        assert_eq!(combined.spans[1].component, "compB");
        // Events still point at their (remapped) spans.
        let ea = combined.events_labeled("ea").next().unwrap();
        assert_eq!(ea.span, combined.spans[0].id);
        let eb = combined.events_labeled("eb").next().unwrap();
        assert_eq!(eb.span, combined.spans[1].id);
    }

    #[test]
    fn json_shape_has_spans_events_dropped() {
        let mut tr = Tracer::enabled(TraceLevel::Full, 16);
        let s = tr.start_span(t(1), "req", vec![("req", 5u64.into())]);
        tr.event_in(t(2), "first", s, vec![("score", AttrValue::F64(0.5))]);
        tr.end_span(t(3), s);
        let mut trace = Trace::default();
        trace.absorb("engine", tr.take());
        let v = trace.to_json();
        let spans = v.get("spans").unwrap();
        assert_eq!(spans.as_array().unwrap().len(), 1);
        let span0 = spans.at(0).unwrap();
        assert_eq!(span0.get("label").unwrap().as_str(), Some("req"));
        assert_eq!(span0.get("component").unwrap().as_str(), Some("engine"));
        assert_eq!(span0.get("start_ns").unwrap().as_u64(), Some(1_000_000));
        assert_eq!(
            span0.get("attrs").unwrap().get("req").unwrap().as_u64(),
            Some(5)
        );
        let ev0 = v.get("events").unwrap().at(0).unwrap();
        assert_eq!(
            ev0.get("span").unwrap().as_u64(),
            span0.get("id").unwrap().as_u64()
        );
        // Round-trips through the JSON text layer.
        let text = v.to_json();
        let parsed = Value::parse(&text).unwrap();
        assert_eq!(parsed.to_json(), text);
    }
}
