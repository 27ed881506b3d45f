//! Hierarchical metrics and sim-time span tracing.
//!
//! Experiments need to *attribute* end-to-end latency and energy to the
//! components that produced them (DAC vs ADC vs crossbar array vs NoC —
//! the per-component breakdowns Eva-CiM-style evaluation frameworks treat
//! as the core deliverable). This module provides:
//!
//! * [`MetricsRegistry`] — counters, gauges and [`Log2Histogram`]s keyed
//!   by a pre-interned hierarchical component path
//!   (`"tile(1,2)/mu3/adc"`) plus a `&'static str` metric name, with
//!   snapshot, merge and deterministic JSON-lines export (one object per
//!   line, the same convention as `cim_bench::harness`).
//! * [`SpanTracer`] — enter/exit records on the *simulated* clock with
//!   parent ids, so causal timelines (inject → route → mvm → readout)
//!   and per-span sim-time + energy attribution fall out of the data
//!   instead of ad-hoc trace-message string matching.
//! * [`Telemetry`] — a cheap, cloneable handle threaded through the
//!   stack. Clones share one sink. The handle is **level-gated and
//!   allocation-free when disabled**: a disabled handle is a `None` and
//!   every event call returns after one branch; component ids are
//!   interned once at attach time so hot paths never build a `String`.
//!
//! ```
//! use cim_sim::telemetry::{Telemetry, TelemetryLevel};
//! use cim_sim::time::SimTime;
//! use cim_sim::energy::Energy;
//!
//! let t = Telemetry::new(TelemetryLevel::Full);
//! let adc = t.component("tile(0,0)/mu1/adc");
//! t.counter_add(adc, "conversions", 128);
//! let span = t.span_enter(adc, "readout", SimTime::ZERO);
//! t.span_exit(span, SimTime::from_ns(100), Energy::from_pj(2.0));
//! assert_eq!(t.snapshot()[0].component, "tile(0,0)/mu1/adc");
//!
//! let off = Telemetry::disabled();
//! let id = off.component("anything");        // no-op, no interning
//! off.counter_add(id, "conversions", 1);     // one branch, returns
//! assert!(off.snapshot().is_empty());
//! ```

use crate::energy::Energy;
use crate::stats::Log2Histogram;
use crate::time::{SimDuration, SimTime};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, MutexGuard};

/// A pre-interned component path. Obtained from
/// [`MetricsRegistry::component`] or [`Telemetry::component`]; passing it
/// to event calls avoids any per-event string work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ComponentId(u32);

impl ComponentId {
    /// The id a disabled [`Telemetry`] hands out; every event against it
    /// is dropped.
    pub const NONE: ComponentId = ComponentId(u32::MAX);
}

impl Default for ComponentId {
    fn default() -> Self {
        ComponentId::NONE
    }
}

/// How much the telemetry layer records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum TelemetryLevel {
    /// Record nothing; every handle operation is a near-free no-op.
    #[default]
    Off,
    /// Record counters, gauges and histograms only.
    Metrics,
    /// Record metrics *and* sim-time spans.
    Full,
}

/// One metric value in a [`MetricsRegistry`] snapshot.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotonically increasing count.
    Counter(u64),
    /// Last-written instantaneous value.
    Gauge(f64),
    /// Distribution of recorded `u64` values (boxed: a histogram is two
    /// orders of magnitude larger than the scalar variants).
    Histogram(Box<Log2Histogram>),
}

/// One (component, metric, value) triple from a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSample {
    /// Full hierarchical component path.
    pub component: String,
    /// Metric name within the component.
    pub metric: &'static str,
    /// The value at snapshot time.
    pub value: MetricValue,
}

impl MetricSample {
    /// The counter value, if this sample is a counter.
    pub fn as_counter(&self) -> Option<u64> {
        match self.value {
            MetricValue::Counter(v) => Some(v),
            _ => None,
        }
    }
}

type MetricKey = (u32, &'static str);

/// A registry of hierarchically-named counters, gauges and histograms.
///
/// Component paths are interned once ([`component`](Self::component));
/// every event call then works with the copyable [`ComponentId`].
/// Iteration and export are deterministic: samples are ordered by
/// `(component path, metric name)`.
///
/// # Examples
///
/// ```
/// use cim_sim::telemetry::{MetricsRegistry, MetricValue};
///
/// let mut r = MetricsRegistry::new();
/// let adc = r.component("mu0/adc");
/// r.counter_add(adc, "conversions", 3);
/// r.gauge_set(adc, "backlog", 1.5);
/// r.record(adc, "latency_ns", 100);
/// let snap = r.snapshot();
/// assert_eq!(snap.len(), 3);
/// assert_eq!(snap[0].metric, "backlog");
/// assert_eq!(snap[1].value, MetricValue::Counter(3));
/// ```
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    components: Vec<String>,
    by_path: HashMap<String, u32>,
    counters: BTreeMap<MetricKey, u64>,
    gauges: BTreeMap<MetricKey, f64>,
    hists: BTreeMap<MetricKey, Log2Histogram>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a component path, returning its id. Re-interning the same
    /// path returns the same id.
    pub fn component(&mut self, path: &str) -> ComponentId {
        if let Some(&id) = self.by_path.get(path) {
            return ComponentId(id);
        }
        let id = self.components.len() as u32;
        self.components.push(path.to_owned());
        self.by_path.insert(path.to_owned(), id);
        ComponentId(id)
    }

    /// The path a component id was interned under.
    ///
    /// Returns `None` for [`ComponentId::NONE`] or foreign ids.
    pub fn path_of(&self, id: ComponentId) -> Option<&str> {
        self.components.get(id.0 as usize).map(String::as_str)
    }

    fn valid(&self, id: ComponentId) -> bool {
        (id.0 as usize) < self.components.len()
    }

    /// Adds `n` to a counter (creating it at zero).
    pub fn counter_add(&mut self, c: ComponentId, metric: &'static str, n: u64) {
        if self.valid(c) {
            *self.counters.entry((c.0, metric)).or_insert(0) += n;
        }
    }

    /// Sets a gauge to `v` (last write wins).
    pub fn gauge_set(&mut self, c: ComponentId, metric: &'static str, v: f64) {
        if self.valid(c) {
            self.gauges.insert((c.0, metric), v);
        }
    }

    /// Records `v` into a histogram (creating it empty).
    pub fn record(&mut self, c: ComponentId, metric: &'static str, v: u64) {
        if self.valid(c) {
            self.hists.entry((c.0, metric)).or_default().record(v);
        }
    }

    /// Merges `h` into a histogram (creating it empty): the same
    /// histogram as recording each of `h`'s values in turn.
    pub fn merge_histogram(&mut self, c: ComponentId, metric: &'static str, h: &Log2Histogram) {
        if self.valid(c) {
            self.hists.entry((c.0, metric)).or_default().merge(h);
        }
    }

    /// Reads a counter; zero when absent.
    pub fn counter(&self, c: ComponentId, metric: &'static str) -> u64 {
        self.counters.get(&(c.0, metric)).copied().unwrap_or(0)
    }

    /// Reads a gauge, if ever set.
    pub fn gauge(&self, c: ComponentId, metric: &'static str) -> Option<f64> {
        self.gauges.get(&(c.0, metric)).copied()
    }

    /// Reads a histogram, if ever recorded to.
    pub fn histogram(&self, c: ComponentId, metric: &'static str) -> Option<&Log2Histogram> {
        self.hists.get(&(c.0, metric))
    }

    /// Whether nothing has been recorded (interned components don't count).
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.hists.is_empty()
    }

    /// Clears all metric values but keeps interned components, so held
    /// [`ComponentId`]s stay valid across experiment phases.
    pub fn reset_values(&mut self) {
        self.counters.clear();
        self.gauges.clear();
        self.hists.clear();
    }

    /// All metrics, ordered by `(component path, metric name)` — the
    /// deterministic order export uses.
    pub fn snapshot(&self) -> Vec<MetricSample> {
        let mut out: Vec<MetricSample> = Vec::new();
        for (&(c, metric), &v) in &self.counters {
            out.push(MetricSample {
                component: self.components[c as usize].clone(),
                metric,
                value: MetricValue::Counter(v),
            });
        }
        for (&(c, metric), &v) in &self.gauges {
            out.push(MetricSample {
                component: self.components[c as usize].clone(),
                metric,
                value: MetricValue::Gauge(v),
            });
        }
        for ((c, metric), h) in &self.hists {
            out.push(MetricSample {
                component: self.components[*c as usize].clone(),
                metric,
                value: MetricValue::Histogram(Box::new(h.clone())),
            });
        }
        out.sort_by(|a, b| (a.component.as_str(), a.metric).cmp(&(b.component.as_str(), b.metric)));
        out
    }

    /// Merges another registry into this one: counters add, histograms
    /// merge, gauges keep the larger value (a gauge is a point-in-time
    /// reading; max is the only order-independent combination that is
    /// also idempotent). Components are re-interned by path, so the two
    /// registries may have interned in different orders.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        let remap: Vec<ComponentId> = other.components.iter().map(|p| self.component(p)).collect();
        for (&(c, metric), &v) in &other.counters {
            self.counter_add(remap[c as usize], metric, v);
        }
        for (&(c, metric), &v) in &other.gauges {
            let key = (remap[c as usize].0, metric);
            let cur = self.gauges.get(&key).copied();
            self.gauges.insert(key, cur.map_or(v, |c0| c0.max(v)));
        }
        for (&(c, metric), h) in &other.hists {
            self.merge_histogram(remap[c as usize], metric, h);
        }
    }

    /// Deterministic JSON-lines export: one object per metric, ordered
    /// like [`snapshot`](Self::snapshot). Every line carries the
    /// `component`, `metric` and `value` keys (the schema the CI checker
    /// validates) plus a `kind` discriminant; histogram lines add
    /// `sum`, `mean`, bucket-interpolated `p50`/`p95` estimates (see
    /// [`Log2Histogram::quantile`]) and the exact `p100` upper bound.
    pub fn export_jsonl(&self) -> String {
        let mut out = String::new();
        for s in self.snapshot() {
            out.push('{');
            let _ = write!(
                out,
                "\"component\":{},\"metric\":{}",
                json_string(&s.component),
                json_string(s.metric)
            );
            match &s.value {
                MetricValue::Counter(v) => {
                    let _ = write!(out, ",\"kind\":\"counter\",\"value\":{v}");
                }
                MetricValue::Gauge(v) => {
                    let _ = write!(out, ",\"kind\":\"gauge\",\"value\":{}", json_f64(*v));
                }
                MetricValue::Histogram(h) => {
                    let _ = write!(
                        out,
                        ",\"kind\":\"histogram\",\"value\":{},\"sum\":{},\"mean\":{},\
                         \"p50\":{},\"p95\":{},\"p100\":{}",
                        h.count(),
                        h.sum(),
                        json_f64(h.mean()),
                        json_f64(h.quantile(0.5).unwrap_or(0.0)),
                        json_f64(h.quantile(0.95).unwrap_or(0.0)),
                        h.quantile_upper_bound(1.0).unwrap_or(0),
                    );
                }
            }
            out.push_str("}\n");
        }
        out
    }
}

/// Identifies one span issued by a [`SpanTracer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(u64);

impl SpanId {
    /// The id a disabled tracer hands out; exiting it is a no-op.
    pub const NONE: SpanId = SpanId(u64::MAX);
}

/// One enter/exit record on the simulated clock.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// This span's id.
    pub id: SpanId,
    /// The enclosing span, if any — parent links make causal timelines.
    pub parent: Option<SpanId>,
    /// Component the span is attributed to.
    pub component: ComponentId,
    /// Span name (e.g. `"mvm"`, `"route"`, `"recovery"`).
    pub name: &'static str,
    /// Sim-time the span was entered.
    pub start: SimTime,
    /// Sim-time the span was exited; `None` while still open.
    pub end: Option<SimTime>,
    /// Energy attributed on exit.
    pub energy: Energy,
}

impl SpanRecord {
    /// Duration of a completed span; `None` while open.
    pub fn duration(&self) -> Option<SimDuration> {
        self.end.map(|e| e.saturating_since(self.start))
    }
}

/// A bounded buffer of sim-time spans.
///
/// When full, the oldest spans are dropped (and counted); exiting a
/// dropped span is a silent no-op, so long streams degrade gracefully.
///
/// # Examples
///
/// ```
/// use cim_sim::telemetry::{ComponentId, SpanTracer};
/// use cim_sim::time::SimTime;
/// use cim_sim::energy::Energy;
///
/// let mut tr = SpanTracer::default();
/// let item = tr.enter(ComponentId::NONE, "item", SimTime::ZERO);
/// let mvm = tr.enter_child(item, ComponentId::NONE, "mvm", SimTime::from_ns(5));
/// tr.exit(mvm, SimTime::from_ns(105), Energy::from_pj(1.0));
/// tr.exit(item, SimTime::from_ns(110), Energy::ZERO);
/// let spans: Vec<_> = tr.iter().collect();
/// assert_eq!(spans[1].parent, Some(spans[0].id));
/// assert_eq!(spans[1].duration().unwrap().as_ns_f64(), 100.0);
/// ```
#[derive(Debug, Clone)]
pub struct SpanTracer {
    spans: VecDeque<SpanRecord>,
    /// Id of `spans[0]`; ids are dense, so lookup is an index subtraction.
    base: u64,
    capacity: usize,
    dropped: u64,
}

impl Default for SpanTracer {
    fn default() -> Self {
        Self::with_capacity(65_536)
    }
}

impl SpanTracer {
    /// Creates a tracer retaining at most `capacity` spans.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "span capacity must be positive");
        SpanTracer {
            spans: VecDeque::with_capacity(capacity.min(4096)),
            base: 0,
            capacity,
            dropped: 0,
        }
    }

    /// Opens a root span.
    pub fn enter(&mut self, component: ComponentId, name: &'static str, at: SimTime) -> SpanId {
        self.push(None, component, name, at)
    }

    /// Opens a span nested under `parent`.
    pub fn enter_child(
        &mut self,
        parent: SpanId,
        component: ComponentId,
        name: &'static str,
        at: SimTime,
    ) -> SpanId {
        let parent = (parent != SpanId::NONE).then_some(parent);
        self.push(parent, component, name, at)
    }

    fn push(
        &mut self,
        parent: Option<SpanId>,
        component: ComponentId,
        name: &'static str,
        at: SimTime,
    ) -> SpanId {
        if self.spans.len() == self.capacity {
            self.spans.pop_front();
            self.base += 1;
            self.dropped += 1;
        }
        let id = SpanId(self.base + self.spans.len() as u64);
        self.spans.push_back(SpanRecord {
            id,
            parent,
            component,
            name,
            start: at,
            end: None,
            energy: Energy::ZERO,
        });
        id
    }

    /// Closes a span, attributing `energy` to it. Unknown (evicted or
    /// [`SpanId::NONE`]) ids are ignored.
    pub fn exit(&mut self, id: SpanId, at: SimTime, energy: Energy) {
        if id == SpanId::NONE || id.0 < self.base {
            return;
        }
        if let Some(rec) = self.spans.get_mut((id.0 - self.base) as usize) {
            rec.end = Some(at);
            rec.energy = energy;
        }
    }

    /// Looks up a retained span.
    pub fn get(&self, id: SpanId) -> Option<&SpanRecord> {
        if id == SpanId::NONE || id.0 < self.base {
            return None;
        }
        self.spans.get((id.0 - self.base) as usize)
    }

    /// Number of retained spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether no spans are retained.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Spans evicted due to capacity.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Iterates retained spans in id (creation) order.
    pub fn iter(&self) -> impl Iterator<Item = &SpanRecord> {
        self.spans.iter()
    }

    /// Completed spans with the given name, creation order.
    pub fn completed_named<'a>(
        &'a self,
        name: &'a str,
    ) -> impl Iterator<Item = &'a SpanRecord> + 'a {
        self.spans
            .iter()
            .filter(move |s| s.name == name && s.end.is_some())
    }

    /// Clears all spans (the dropped counter is preserved) and keeps ids
    /// dense by advancing the base.
    pub fn clear(&mut self) {
        self.base += self.spans.len() as u64;
        self.spans.clear();
    }
}

#[derive(Debug)]
struct TelemetryInner {
    level: TelemetryLevel,
    registry: MetricsRegistry,
    tracer: SpanTracer,
}

/// The cloneable telemetry handle threaded through the stack.
///
/// Clones share one sink (registry + tracer). A disabled handle
/// ([`Telemetry::disabled`], also `Default`) carries no allocation at all
/// and every operation returns after a single branch — instrumented hot
/// paths cost nothing when telemetry is off.
///
/// The sink is behind a `Mutex`, so a handle may be moved into worker
/// threads ([`crate::pool`]). The deterministic-parallelism contract
/// still prefers **shard-local** sinks: workers record into their own
/// `Telemetry` and the shards are merged in shard order afterwards
/// ([`merge_registry`](Self::merge_registry)), keeping exports
/// byte-identical across thread counts.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Mutex<TelemetryInner>>>,
}

impl Telemetry {
    fn lock(i: &Arc<Mutex<TelemetryInner>>) -> MutexGuard<'_, TelemetryInner> {
        // A worker that panicked mid-record leaves only scalar metric
        // state behind; poisoning carries no useful protection here.
        i.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// A handle recording at `level`. `TelemetryLevel::Off` yields a
    /// disabled handle.
    pub fn new(level: TelemetryLevel) -> Self {
        if level == TelemetryLevel::Off {
            return Self::disabled();
        }
        Telemetry {
            inner: Some(Arc::new(Mutex::new(TelemetryInner {
                level,
                registry: MetricsRegistry::new(),
                tracer: SpanTracer::default(),
            }))),
        }
    }

    /// The no-op handle.
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// Whether any recording happens at all.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The recording level.
    pub fn level(&self) -> TelemetryLevel {
        self.inner
            .as_ref()
            .map_or(TelemetryLevel::Off, |i| Self::lock(i).level)
    }

    /// Interns a component path (cold path — do this once at attach
    /// time, never per event). Disabled handles return
    /// [`ComponentId::NONE`].
    pub fn component(&self, path: &str) -> ComponentId {
        match &self.inner {
            Some(i) => Self::lock(i).registry.component(path),
            None => ComponentId::NONE,
        }
    }

    /// Adds `n` to a counter.
    #[inline]
    pub fn counter_add(&self, c: ComponentId, metric: &'static str, n: u64) {
        if let Some(i) = &self.inner {
            Self::lock(i).registry.counter_add(c, metric, n);
        }
    }

    /// Sets a gauge.
    #[inline]
    pub fn gauge_set(&self, c: ComponentId, metric: &'static str, v: f64) {
        if let Some(i) = &self.inner {
            Self::lock(i).registry.gauge_set(c, metric, v);
        }
    }

    /// Records a histogram value.
    #[inline]
    pub fn record(&self, c: ComponentId, metric: &'static str, v: u64) {
        if let Some(i) = &self.inner {
            Self::lock(i).registry.record(c, metric, v);
        }
    }

    /// Opens a root span (recorded only at [`TelemetryLevel::Full`]).
    #[inline]
    pub fn span_enter(&self, c: ComponentId, name: &'static str, at: SimTime) -> SpanId {
        self.span_enter_child(SpanId::NONE, c, name, at)
    }

    /// Opens a span under `parent` (pass [`SpanId::NONE`] for a root).
    #[inline]
    pub fn span_enter_child(
        &self,
        parent: SpanId,
        c: ComponentId,
        name: &'static str,
        at: SimTime,
    ) -> SpanId {
        if let Some(i) = &self.inner {
            let mut i = Self::lock(i);
            if i.level >= TelemetryLevel::Full {
                return i.tracer.enter_child(parent, c, name, at);
            }
        }
        SpanId::NONE
    }

    /// Closes a span, attributing `energy`.
    #[inline]
    pub fn span_exit(&self, id: SpanId, at: SimTime, energy: Energy) {
        if id == SpanId::NONE {
            return;
        }
        if let Some(i) = &self.inner {
            Self::lock(i).tracer.exit(id, at, energy);
        }
    }

    /// Runs `f` against the live registry; `None` when disabled.
    pub fn with_registry<R>(&self, f: impl FnOnce(&MetricsRegistry) -> R) -> Option<R> {
        self.inner.as_ref().map(|i| f(&Self::lock(i).registry))
    }

    /// Runs `f` against the live registry, mutably, under one lock: a
    /// batch of writes pays one lock instead of one per event. `None`
    /// when disabled.
    pub fn with_registry_mut<R>(&self, f: impl FnOnce(&mut MetricsRegistry) -> R) -> Option<R> {
        self.inner.as_ref().map(|i| f(&mut Self::lock(i).registry))
    }

    /// Merges a (typically shard-local) registry into this sink via
    /// [`MetricsRegistry::merge`]: counters add, histograms merge, gauges
    /// keep the max. The merge is order- and partition-independent, which
    /// is what keeps exports byte-identical across thread counts when
    /// parallel workers record into shard-local registries that are
    /// merged back in shard order. No-op when disabled.
    pub fn merge_registry(&self, other: &MetricsRegistry) {
        if let Some(i) = &self.inner {
            Self::lock(i).registry.merge(other);
        }
    }

    /// A clone of the live registry (e.g. to ship a shard's metrics back
    /// to the spawning thread); `None` when disabled.
    pub fn registry_clone(&self) -> Option<MetricsRegistry> {
        self.with_registry(Clone::clone)
    }

    /// A deterministic snapshot of all metrics (empty when disabled).
    pub fn snapshot(&self) -> Vec<MetricSample> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |i| Self::lock(i).registry.snapshot())
    }

    /// All retained spans, creation order (empty when disabled).
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |i| Self::lock(i).tracer.iter().cloned().collect())
    }

    /// Completed spans with the given name, creation order.
    pub fn completed_spans(&self, name: &str) -> Vec<SpanRecord> {
        self.inner.as_ref().map_or_else(Vec::new, |i| {
            Self::lock(i)
                .tracer
                .completed_named(name)
                .cloned()
                .collect()
        })
    }

    /// Clears metric values and spans but keeps interned components, so
    /// held [`ComponentId`]s stay valid. Called between experiment
    /// phases on the same device.
    pub fn reset_values(&self) {
        if let Some(i) = &self.inner {
            let mut i = Self::lock(i);
            i.registry.reset_values();
            i.tracer.clear();
        }
    }

    /// Deterministic JSON-lines export: all metric lines, then (at
    /// [`TelemetryLevel::Full`]) one line per completed span. Every line
    /// carries `component`, `metric` and `value`. Byte-identical across
    /// runs of the same deterministic simulation.
    pub fn export_jsonl(&self) -> String {
        let Some(i) = &self.inner else {
            return String::new();
        };
        let i = Self::lock(i);
        let mut out = i.registry.export_jsonl();
        for s in i.tracer.iter() {
            let Some(end) = s.end else { continue };
            let comp = s
                .component
                .ne(&ComponentId::NONE)
                .then(|| i.registry.path_of(s.component))
                .flatten()
                .unwrap_or("");
            out.push('{');
            let _ = write!(
                out,
                "\"component\":{},\"metric\":{},\"kind\":\"span\",\"value\":{},\
                 \"id\":{},\"parent\":{},\"start_ps\":{},\"end_ps\":{},\"energy_fj\":{}",
                json_string(comp),
                json_string(&format!("span/{}", s.name)),
                end.saturating_since(s.start).as_ps(),
                s.id.0,
                s.parent
                    .map_or_else(|| "null".to_owned(), |p| p.0.to_string()),
                s.start.as_ps(),
                end.as_ps(),
                s.energy.as_fj(),
            );
            out.push_str("}\n");
        }
        out
    }

    /// A one-screen, deterministic plain-text summary: per-component
    /// counters and gauges plus histogram means, capped at `max_rows`
    /// data rows.
    pub fn render_summary(&self, max_rows: usize) -> String {
        let snap = self.snapshot();
        if snap.is_empty() {
            return "telemetry: disabled (no metrics recorded)\n".to_owned();
        }
        let mut out = String::new();
        let spans = self.spans().iter().filter(|s| s.end.is_some()).count();
        let _ = writeln!(
            out,
            "telemetry: {} metrics across {} components, {} completed spans",
            snap.len(),
            snap.iter()
                .map(|s| s.component.as_str())
                .collect::<std::collections::BTreeSet<_>>()
                .len(),
            spans
        );
        let mut last_component = String::new();
        for (shown, s) in snap.iter().enumerate() {
            if shown >= max_rows {
                let _ = writeln!(out, "  … {} more rows", snap.len() - shown);
                break;
            }
            if s.component != last_component {
                let _ = writeln!(out, "  {}", s.component);
                last_component = s.component.clone();
            }
            match &s.value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(out, "    {:<24} {v}", s.metric);
                }
                MetricValue::Gauge(v) => {
                    let _ = writeln!(out, "    {:<24} {v:.3}", s.metric);
                }
                MetricValue::Histogram(h) => {
                    let _ = writeln!(
                        out,
                        "    {:<24} n={} mean={:.1} p95~{:.0}",
                        s.metric,
                        h.count(),
                        h.mean(),
                        h.quantile(0.95).unwrap_or(0.0)
                    );
                }
            }
        }
        out
    }
}

/// Renders `s` as a JSON string literal with the canonical escaping used
/// by every in-tree exporter (telemetry, chaos replay, observability).
/// Public so downstream crates emit byte-identical lines without a JSON
/// dependency.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders an `f64` as a JSON number literal (`null` when non-finite),
/// matching [`crate::json`]'s canonical `Display` so exported lines
/// round-trip byte-for-byte through the in-tree parser.
pub fn json_f64(v: f64) -> String {
    let mut out = String::new();
    write_json_f64(&mut out, v);
    out
}

/// Appends [`json_f64`]'s literal for `v` to `out` without an
/// intermediate `String`.
pub fn write_json_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Validates one JSON-lines telemetry line: it must parse as a JSON
/// object (via [`crate::json::parse`]) and contain the `component`,
/// `metric` and `value` keys. This is the in-tree checker `ci.sh` runs
/// over `--telemetry` output (no external JSON dependency, per the
/// hermetic-build policy); chaos replay files reuse the same schema so
/// this validator covers them too.
///
/// Lines carrying a `kind` discriminant are held to that kind's extra
/// schema: `series` records (windowed time-series samples) must carry a
/// numeric `t_ps` timestamp; `alert` records (SLO burn-rate events) must
/// carry `t_ps`, a `tenant` string, a `severity` of `"page"` or
/// `"ticket"`, and a numeric `window_ps`; `profile` records (flamegraph
/// folded stacks) must carry a `stack` string and a `unit` string.
///
/// # Errors
///
/// Returns a human-readable description of the first syntax or schema
/// violation.
///
/// # Examples
///
/// ```
/// use cim_sim::telemetry::validate_jsonl_line;
///
/// assert!(validate_jsonl_line(r#"{"component":"a","metric":"b","value":1}"#).is_ok());
/// assert!(validate_jsonl_line(r#"{"component":"a"}"#).is_err());
/// assert!(validate_jsonl_line("not json").is_err());
/// let series = r#"{"component":"service","metric":"series/shed","kind":"series","value":2,"t_ps":100}"#;
/// assert!(validate_jsonl_line(series).is_ok());
/// let bad = r#"{"component":"service","metric":"series/shed","kind":"series","value":2}"#;
/// assert!(validate_jsonl_line(bad).is_err());
/// ```
pub fn validate_jsonl_line(line: &str) -> Result<(), String> {
    let value = crate::json::parse(line)?;
    let members = value
        .as_object()
        .ok_or_else(|| "top-level value is not an object".to_owned())?;
    for required in ["component", "metric", "value"] {
        if !members.iter().any(|(k, _)| k == required) {
            return Err(format!("missing required key \"{required}\""));
        }
    }
    let number = |key: &str| -> Result<(), String> {
        value
            .get(key)
            .and_then(crate::json::Json::as_f64)
            .map(|_| ())
            .ok_or_else(|| format!("missing numeric key \"{key}\""))
    };
    let string = |key: &str| -> Result<(), String> {
        value
            .get(key)
            .and_then(crate::json::Json::as_str)
            .map(|_| ())
            .ok_or_else(|| format!("missing string key \"{key}\""))
    };
    match value.get("kind").and_then(crate::json::Json::as_str) {
        Some("series") => number("t_ps")?,
        Some("alert") => {
            number("t_ps")?;
            string("tenant")?;
            number("window_ps")?;
            match value.get("severity").and_then(crate::json::Json::as_str) {
                Some("page") | Some("ticket") => {}
                other => {
                    return Err(format!(
                        "alert severity must be \"page\" or \"ticket\", got {other:?}"
                    ))
                }
            }
        }
        Some("profile") => {
            string("stack")?;
            string("unit")?;
        }
        _ => {}
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_interns_and_accumulates() {
        let mut r = MetricsRegistry::new();
        let a = r.component("dev/a");
        let a2 = r.component("dev/a");
        assert_eq!(a, a2, "re-interning returns the same id");
        r.counter_add(a, "hits", 2);
        r.counter_add(a, "hits", 3);
        assert_eq!(r.counter(a, "hits"), 5);
        r.gauge_set(a, "depth", 1.0);
        r.gauge_set(a, "depth", 4.0);
        assert_eq!(r.gauge(a, "depth"), Some(4.0));
        r.record(a, "lat", 7);
        assert_eq!(r.histogram(a, "lat").unwrap().count(), 1);
        assert_eq!(r.path_of(a), Some("dev/a"));
    }

    #[test]
    fn none_component_is_dropped() {
        let mut r = MetricsRegistry::new();
        r.counter_add(ComponentId::NONE, "hits", 1);
        r.gauge_set(ComponentId::NONE, "g", 1.0);
        r.record(ComponentId::NONE, "h", 1);
        assert!(r.is_empty());
    }

    #[test]
    fn snapshot_is_sorted_and_export_deterministic() {
        let mut r = MetricsRegistry::new();
        let b = r.component("z/b");
        let a = r.component("a/a");
        r.counter_add(b, "x", 1);
        r.counter_add(a, "y", 2);
        r.counter_add(a, "a", 3);
        let snap = r.snapshot();
        let order: Vec<(&str, &str)> = snap
            .iter()
            .map(|s| (s.component.as_str(), s.metric))
            .collect();
        assert_eq!(order, vec![("a/a", "a"), ("a/a", "y"), ("z/b", "x")]);
        assert_eq!(r.export_jsonl(), r.export_jsonl());
        for line in r.export_jsonl().lines() {
            validate_jsonl_line(line).expect("export validates");
        }
    }

    #[test]
    fn merge_matches_sequential_recording() {
        let mut left = MetricsRegistry::new();
        let mut right = MetricsRegistry::new();
        // Intern in different orders to exercise the remap.
        let la = left.component("a");
        let rb = right.component("b");
        let ra = right.component("a");
        left.counter_add(la, "n", 2);
        right.counter_add(ra, "n", 3);
        right.counter_add(rb, "n", 7);
        right.record(ra, "h", 8);
        left.record(la, "h", 1);
        right.gauge_set(rb, "g", 2.0);
        left.merge(&right);
        let a = left.component("a");
        let b = left.component("b");
        assert_eq!(left.counter(a, "n"), 5);
        assert_eq!(left.counter(b, "n"), 7);
        let h = left.histogram(a, "h").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(left.gauge(b, "g"), Some(2.0));
    }

    #[test]
    fn reset_values_keeps_component_ids() {
        let mut r = MetricsRegistry::new();
        let a = r.component("a");
        r.counter_add(a, "n", 1);
        r.reset_values();
        assert!(r.is_empty());
        r.counter_add(a, "n", 2);
        assert_eq!(r.counter(a, "n"), 2);
        assert_eq!(r.component("a"), a);
    }

    #[test]
    fn tracer_parents_durations_and_eviction() {
        let mut tr = SpanTracer::with_capacity(2);
        let a = tr.enter(ComponentId::NONE, "a", SimTime::from_ns(0));
        let b = tr.enter_child(a, ComponentId::NONE, "b", SimTime::from_ns(1));
        tr.exit(b, SimTime::from_ns(3), Energy::from_fj(5));
        assert_eq!(tr.get(b).unwrap().duration(), Some(SimDuration::from_ns(2)));
        assert_eq!(tr.get(b).unwrap().parent, Some(a));
        // Third span evicts the first; exiting the evicted id is a no-op.
        let c = tr.enter(ComponentId::NONE, "c", SimTime::from_ns(4));
        assert_eq!(tr.dropped(), 1);
        assert!(tr.get(a).is_none());
        tr.exit(a, SimTime::from_ns(9), Energy::ZERO);
        tr.exit(c, SimTime::from_ns(5), Energy::ZERO);
        assert_eq!(tr.completed_named("c").count(), 1);
        assert_eq!(tr.len(), 2);
    }

    #[test]
    fn disabled_handle_is_inert() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        assert_eq!(t.level(), TelemetryLevel::Off);
        let c = t.component("x");
        assert_eq!(c, ComponentId::NONE);
        t.counter_add(c, "n", 1);
        let s = t.span_enter(c, "s", SimTime::ZERO);
        assert_eq!(s, SpanId::NONE);
        t.span_exit(s, SimTime::ZERO, Energy::ZERO);
        assert!(t.snapshot().is_empty());
        assert!(t.spans().is_empty());
        assert!(t.export_jsonl().is_empty());
    }

    #[test]
    fn metrics_level_gates_spans() {
        let t = Telemetry::new(TelemetryLevel::Metrics);
        let c = t.component("x");
        t.counter_add(c, "n", 1);
        let s = t.span_enter(c, "s", SimTime::ZERO);
        assert_eq!(s, SpanId::NONE, "spans need TelemetryLevel::Full");
        assert_eq!(t.snapshot().len(), 1);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn clones_share_one_sink() {
        let t = Telemetry::new(TelemetryLevel::Full);
        let clone = t.clone();
        let c = clone.component("shared");
        clone.counter_add(c, "n", 1);
        t.counter_add(c, "n", 1);
        assert_eq!(t.snapshot()[0].as_counter(), Some(2));
    }

    #[test]
    fn full_export_includes_spans_and_validates() {
        let t = Telemetry::new(TelemetryLevel::Full);
        let c = t.component("tile(0,0)/mu1");
        t.counter_add(c, "items", 3);
        let s = t.span_enter(c, "mvm", SimTime::from_ns(10));
        t.span_exit(s, SimTime::from_ns(30), Energy::from_pj(1.0));
        let open = t.span_enter(c, "never_closed", SimTime::from_ns(40));
        assert_ne!(open, SpanId::NONE);
        let out = t.export_jsonl();
        assert!(out.contains("\"metric\":\"span/mvm\""), "{out}");
        assert!(
            !out.contains("never_closed"),
            "open spans are not exported: {out}"
        );
        for line in out.lines() {
            validate_jsonl_line(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        }
    }

    #[test]
    fn summary_renders_one_screen() {
        let t = Telemetry::new(TelemetryLevel::Metrics);
        let c = t.component("noc");
        for i in 0..10 {
            t.counter_add(c, "packets", i);
        }
        t.record(c, "latency_ns", 100);
        let s = t.render_summary(20);
        assert!(s.contains("noc"), "{s}");
        assert!(s.contains("packets"), "{s}");
        let small = t.render_summary(1);
        assert!(small.contains("more rows"), "{small}");
    }

    #[test]
    fn json_validator_accepts_and_rejects() {
        for good in [
            r#"{"component":"a","metric":"m","value":1}"#,
            r#"{"component":"a\"b","metric":"m","value":-1.5e-3,"extra":[1,{"x":null}]}"#,
            r#"{ "component" : "a" , "metric" : "m" , "value" : true }"#,
        ] {
            validate_jsonl_line(good).unwrap_or_else(|e| panic!("{e}: {good}"));
        }
        for bad in [
            "",
            "{",
            r#"{"component":"a","metric":"m"}"#,
            r#"{"component":"a","metric":"m","value":}"#,
            r#"{"component":"a","metric":"m","value":1} trailing"#,
            r#"{"component":"a","metric":"m","value":01e}"#,
            r#"["component","metric","value"]"#,
        ] {
            assert!(validate_jsonl_line(bad).is_err(), "should reject: {bad}");
        }
    }
}
