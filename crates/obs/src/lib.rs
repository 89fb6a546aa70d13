//! `ffet-obs`: span-based tracing, deterministic metrics and run artifacts.
//!
//! The flow instruments itself through an *ambient* collector: a
//! thread-local handle installed by whoever owns the run (the DoE pool
//! installs one per job; `repro` subcommands may install one around a single
//! flow). Instrumentation sites call the free functions in this crate —
//! [`span`], [`counter_add`], [`gauge_set`], [`observe`] — which no-op when
//! no collector is installed, so library crates stay usable outside any
//! harness.
//!
//! Determinism contract: metric *values* and the span *tree shape*
//! (names, nesting, attributes, event order) are deterministic for a given
//! design/seed/fault-plan at any pool width; span *durations* and start
//! offsets are wall-clock and are not. Artifact emission keeps the two
//! separated so tests can diff the deterministic part byte-for-byte.

pub mod diff;
pub mod export;
mod json;
pub mod ledger;
mod metrics;
pub mod perf;
pub mod record;
mod render;
pub mod trace;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Mutex;
use std::time::Instant;

pub use export::{chrome_trace, validate_chrome_trace, ChromeTraceStats};
pub use json::{parse_json, Json};
pub use ledger::{Ledger, LedgerEntry, LedgerTiming};
pub use metrics::{Histogram, MetricsSnapshot, BUCKET_EDGES};
pub use record::{fnv1a64, hash_hex};
pub use render::render_point;
pub use trace::{
    parse_point, point_labels, strip_timing, validate_trace, LabeledPoint, RunArtifacts,
    TraceStats, TRACE_SCHEMA_VERSION,
};

/// A scalar attribute value attached to a span.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    Str(String),
    Int(i64),
    Float(f64),
    Bool(bool),
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
impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::Int(v)
    }
}
impl From<i32> for AttrValue {
    fn from(v: i32) -> Self {
        AttrValue::Int(i64::from(v))
    }
}
impl From<u32> for AttrValue {
    fn from(v: u32) -> Self {
        AttrValue::Int(i64::from(v))
    }
}
impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        // Artifact attribute counts fit comfortably; saturate rather than
        // wrap if something pathological shows up.
        AttrValue::Int(i64::try_from(v).unwrap_or(i64::MAX))
    }
}
impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::Float(v)
    }
}
impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::Bool(v)
    }
}

impl AttrValue {
    fn to_json(&self) -> Json {
        match self {
            AttrValue::Str(s) => Json::Str(s.clone()),
            AttrValue::Int(i) => Json::Int(*i),
            AttrValue::Float(x) => Json::Num(*x),
            AttrValue::Bool(b) => Json::Bool(*b),
        }
    }
}

/// One closed (or abandoned) span, as recorded by a collector.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEvent {
    /// Point-local id, assigned in open order starting at 0.
    pub id: u32,
    pub parent: Option<u32>,
    /// Nesting depth: 0 for roots.
    pub depth: u16,
    pub name: String,
    /// Microseconds since the collector's epoch. Wall-clock: NOT part of
    /// the determinism contract.
    pub start_us: f64,
    /// Wall-clock duration in microseconds. NOT deterministic.
    pub dur_us: f64,
    pub attrs: Vec<(String, AttrValue)>,
}

/// Everything one collector gathered for one flow point: the closed spans
/// (in close order) plus the final metrics snapshot. Plain data — `Send`,
/// clonable, comparable.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PointData {
    pub events: Vec<SpanEvent>,
    pub metrics: MetricsSnapshot,
}

impl PointData {
    /// Total wall time, in milliseconds, of every span named `name`. The
    /// sum starts from `+0.0`, so a span that never ran reads `0.0` rather
    /// than `f64: Sum`'s `-0.0`.
    #[must_use]
    pub fn span_ms(&self, name: &str) -> f64 {
        self.events
            .iter()
            .filter(|e| e.name == name)
            .fold(0.0, |us, e| us + e.dur_us)
            / 1e3
    }
}

struct Inner {
    epoch: Instant,
    next_id: u32,
    /// Open span ids, outermost first.
    stack: Vec<u32>,
    events: Vec<SpanEvent>,
    metrics: MetricsSnapshot,
}

/// Handle to a per-point trace/metrics buffer. Cheap to clone (`Rc`);
/// single-threaded by design — each flow point runs on one worker thread
/// with its own collector, which is what makes metric values independent of
/// pool width.
#[derive(Clone)]
pub struct Collector {
    inner: Rc<RefCell<Inner>>,
}

thread_local! {
    static CURRENT: RefCell<Option<Collector>> = const { RefCell::new(None) };
}

impl Default for Collector {
    fn default() -> Self {
        Self::new()
    }
}

impl Collector {
    pub fn new() -> Self {
        Collector {
            inner: Rc::new(RefCell::new(Inner {
                epoch: Instant::now(),
                next_id: 0,
                stack: Vec::new(),
                events: Vec::new(),
                metrics: MetricsSnapshot::default(),
            })),
        }
    }

    /// Install this collector as the thread's ambient collector. The
    /// returned guard restores the previous one (if any) on drop, so
    /// installs nest correctly.
    #[must_use = "dropping the guard immediately uninstalls the collector"]
    pub fn install(&self) -> InstallGuard {
        let previous = CURRENT.with(|c| c.borrow_mut().replace(self.clone()));
        InstallGuard { previous }
    }

    /// Drain everything recorded so far into a [`PointData`]. Spans still
    /// open are force-closed first (with an `unclosed` marker attribute) so
    /// panicking flows still yield a well-formed trace.
    pub fn finish(&self) -> PointData {
        // Close any spans left open (e.g. a panic unwound past them and the
        // `Span` guard was consumed by `catch_unwind`'s payload drop order).
        loop {
            let open = {
                let inner = self.inner.borrow();
                inner.stack.last().copied()
            };
            match open {
                None => break,
                Some(id) => {
                    let mut inner = self.inner.borrow_mut();
                    let now_us = inner.epoch.elapsed().as_secs_f64() * 1e6;
                    inner.stack.pop();
                    // The span guard never recorded this id; synthesize an
                    // event so parent links in child events stay valid.
                    let (parent, depth) = inner
                        .stack
                        .last()
                        .map_or((None, 0), |&p| (Some(p), inner.stack.len() as u16));
                    inner.events.push(SpanEvent {
                        id,
                        parent,
                        depth,
                        name: "<unclosed>".into(),
                        start_us: now_us,
                        dur_us: 0.0,
                        attrs: vec![("unclosed".into(), AttrValue::Bool(true))],
                    });
                }
            }
        }
        let mut inner = self.inner.borrow_mut();
        PointData {
            events: std::mem::take(&mut inner.events),
            metrics: std::mem::take(&mut inner.metrics),
        }
    }

    fn open_span(&self) -> OpenToken {
        let start = Instant::now();
        let mut inner = self.inner.borrow_mut();
        let id = inner.next_id;
        inner.next_id += 1;
        let parent = inner.stack.last().copied();
        let depth = inner.stack.len() as u16;
        let start_us = start.duration_since(inner.epoch).as_secs_f64() * 1e6;
        inner.stack.push(id);
        OpenToken {
            collector: self.clone(),
            id,
            parent,
            depth,
            start,
            start_us,
        }
    }

    fn close_span(&self, token: &OpenToken, event: SpanEvent) {
        let mut inner = self.inner.borrow_mut();
        // Normally the closing span is the innermost open one; on early
        // returns / panics an outer span may close while inner ids are
        // still stacked — remove just this id, leaving the rest.
        if let Some(pos) = inner.stack.iter().rposition(|&id| id == token.id) {
            inner.stack.remove(pos);
        }
        inner.events.push(event);
    }
}

/// Guard returned by [`Collector::install`].
pub struct InstallGuard {
    previous: Option<Collector>,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        let previous = self.previous.take();
        CURRENT.with(|c| *c.borrow_mut() = previous);
    }
}

fn with_collector<R>(f: impl FnOnce(&Collector) -> R) -> Option<R> {
    CURRENT
        .with(|c| c.borrow().as_ref().cloned())
        .map(|col| f(&col))
}

struct OpenToken {
    collector: Collector,
    id: u32,
    parent: Option<u32>,
    depth: u16,
    start: Instant,
    start_us: f64,
}

/// An in-flight span. Create with [`span`]; close explicitly with
/// [`Span::close`], or let it drop (error paths and panics record the span
/// automatically).
pub struct Span {
    name: &'static str,
    attrs: Vec<(String, AttrValue)>,
    open: Option<OpenToken>,
}

/// Open a span named `name` under the thread's ambient collector. Without
/// an installed collector the span records nothing and never reads the
/// clock.
pub fn span(name: &'static str) -> Span {
    Span {
        name,
        attrs: Vec::new(),
        open: with_collector(Collector::open_span),
    }
}

impl Span {
    /// Builder-style attribute attachment.
    #[must_use]
    pub fn attr(mut self, key: &str, value: impl Into<AttrValue>) -> Span {
        self.set_attr(key, value);
        self
    }

    /// Attach or update an attribute after creation (e.g. an outcome known
    /// only at the end of the spanned region).
    pub fn set_attr(&mut self, key: &str, value: impl Into<AttrValue>) {
        if self.open.is_none() {
            return; // disabled span: don't accumulate garbage
        }
        let value = value.into();
        if let Some(slot) = self.attrs.iter_mut().find(|(k, _)| k == key) {
            slot.1 = value;
        } else {
            self.attrs.push((key.to_string(), value));
        }
    }

    /// Close the span, recording the event.
    pub fn close(mut self) {
        self.finish();
    }

    fn finish(&mut self) {
        if let Some(token) = self.open.take() {
            let event = SpanEvent {
                id: token.id,
                parent: token.parent,
                depth: token.depth,
                name: self.name.to_string(),
                start_us: token.start_us,
                dur_us: token.start.elapsed().as_secs_f64() * 1e6,
                attrs: std::mem::take(&mut self.attrs),
            };
            token.collector.close_span(&token, event);
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.finish();
    }
}

/// Add `delta` to a counter. No-op without an installed collector.
pub fn counter_add(name: &str, delta: i64) {
    with_collector(|c| {
        let mut inner = c.inner.borrow_mut();
        *inner.metrics.counters.entry(name.to_string()).or_insert(0) += delta;
    });
}

/// Set a gauge to `value`. No-op without an installed collector.
pub fn gauge_set(name: &str, value: f64) {
    with_collector(|c| {
        let mut inner = c.inner.borrow_mut();
        inner.metrics.gauges.insert(name.to_string(), value);
    });
}

/// Merge a previously captured metrics snapshot into the thread's ambient
/// collector (counters/histograms add, gauges last-write-wins). No-op
/// without a collector. This is how a nested job pool folds per-worker
/// metrics back into its parent's registry: merging in submission order
/// keeps the merged values deterministic at any worker count.
pub fn merge_metrics(other: &MetricsSnapshot) {
    if other.is_empty() {
        return;
    }
    with_collector(|c| c.inner.borrow_mut().metrics.merge(other));
}

/// Record one observation into a histogram. No-op without a collector.
pub fn observe(name: &str, value: f64) {
    with_collector(|c| {
        let mut inner = c.inner.borrow_mut();
        inner
            .metrics
            .histograms
            .entry(name.to_string())
            .or_default()
            .observe(value);
    });
}

/// Run `f` under a fresh, temporarily installed collector and return its
/// result together with everything that collector recorded. The previous
/// ambient collector (if any) is restored afterwards; `f`'s instrumentation
/// lands only in the returned [`PointData`]. This is the recording half of
/// the stage-cache protocol: a stage computes under `capture`, the capture
/// is persisted alongside the artifact, and [`replay`] splices it back into
/// whichever collector is ambient — identically whether the stage ran fresh
/// or was rehydrated from the cache.
pub fn capture<T>(f: impl FnOnce() -> T) -> (T, PointData) {
    let collector = Collector::new();
    let guard = collector.install();
    let value = f();
    drop(guard);
    (value, collector.finish())
}

/// Wall-clock microseconds since the ambient collector's epoch; `0.0` when
/// no collector is installed. Callers of [`replay`] use this as the
/// `offset_us` so spliced spans slot into the surrounding timeline.
pub fn ambient_elapsed_us() -> f64 {
    with_collector(|c| c.inner.borrow().epoch.elapsed().as_secs_f64() * 1e6).unwrap_or(0.0)
}

/// Zero every wall-clock field of a captured point, leaving only the
/// deterministic structure (ids, parents, depths, names, attrs, metric
/// values). Stage-cache payloads are stripped before hashing/storing so the
/// same computation always serializes to the same bytes.
pub fn strip_point_timing(data: &mut PointData) {
    for event in &mut data.events {
        event.start_us = 0.0;
        event.dur_us = 0.0;
    }
}

/// Splice a previously [`capture`]d point into the thread's ambient
/// collector, as if its spans had just run here: ids are rebased onto the
/// collector's id counter, root events are re-parented under the currently
/// open span (and get `root_attrs` appended), depths shift by the current
/// stack depth, and metrics merge. Because a capture's event ids are dense
/// (`finish` force-closes every opened id), replay reproduces exactly the
/// ids/parents/depths/order a native run would have recorded. `start_us`
/// values are offset by `offset_us`; durations are replayed verbatim — both
/// are outside the determinism contract. No-op without a collector.
pub fn replay(data: &PointData, offset_us: f64, root_attrs: &[(String, AttrValue)]) {
    with_collector(|c| {
        let mut inner = c.inner.borrow_mut();
        let base = inner.next_id;
        let anchor = inner.stack.last().copied();
        let extra_depth = inner.stack.len() as u16;
        for event in &data.events {
            let mut attrs = event.attrs.clone();
            let parent = match event.parent {
                Some(p) => Some(base + p),
                None => {
                    for (key, value) in root_attrs {
                        match attrs.iter_mut().find(|(k, _)| k == key) {
                            Some(slot) => slot.1 = value.clone(),
                            None => attrs.push((key.clone(), value.clone())),
                        }
                    }
                    anchor
                }
            };
            inner.events.push(SpanEvent {
                id: base + event.id,
                parent,
                depth: event.depth + extra_depth,
                name: event.name.clone(),
                start_us: event.start_us + offset_us,
                dur_us: event.dur_us,
                attrs,
            });
        }
        inner.next_id = base + data.events.len() as u32;
        inner.metrics.merge(&data.metrics);
    });
}

/// Process-global stage-cache event registry, deliberately *outside* the
/// collector metrics plane: cache hit/miss counts depend on what previous
/// runs left on disk, so folding them into per-point metrics would break
/// the cold-vs-warm byte-identity of `metrics.json`'s deterministic part.
/// They surface only through the timing-stripped side of artifacts.
static CACHE_STATS: Mutex<BTreeMap<String, u64>> = Mutex::new(BTreeMap::new());

fn cache_stats_lock() -> std::sync::MutexGuard<'static, BTreeMap<String, u64>> {
    CACHE_STATS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Record one stage-cache event. `name` is one of the catalog literals
/// `cache.hit` / `cache.miss` / `cache.store`; `stage` is the flow stage it
/// happened for (`synth`, `pnr`, ...). Events accumulate process-wide under
/// the key `<name>.<stage>`.
pub fn cache_event(name: &str, stage: &str) {
    *cache_stats_lock()
        .entry(format!("{name}.{stage}"))
        .or_insert(0) += 1;
}

/// Sorted snapshot of every stage-cache event recorded since the last
/// [`cache_stats_reset`].
#[must_use]
pub fn cache_stats() -> Vec<(String, u64)> {
    cache_stats_lock()
        .iter()
        .map(|(k, v)| (k.clone(), *v))
        .collect()
}

/// Clear the process-global stage-cache event registry.
pub fn cache_stats_reset() {
    cache_stats_lock().clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_nesting_and_order() {
        let collector = Collector::new();
        let _guard = collector.install();
        let root = span("flow").attr("seed", "42");
        {
            let a = span("flow.pnr");
            let inner = span("route.round").attr("round", 0_i64);
            inner.close();
            a.close();
        }
        let b = span("flow.sta");
        b.close();
        root.close();
        drop(_guard);
        let data = collector.finish();
        let names: Vec<&str> = data.events.iter().map(|e| e.name.as_str()).collect();
        // Close order: innermost first.
        assert_eq!(names, ["route.round", "flow.pnr", "flow.sta", "flow"]);
        let by_name = |n: &str| data.events.iter().find(|e| e.name == n).unwrap();
        let root_ev = by_name("flow");
        assert_eq!(root_ev.depth, 0);
        assert_eq!(root_ev.parent, None);
        assert_eq!(
            root_ev.attrs,
            vec![("seed".into(), AttrValue::Str("42".into()))]
        );
        let pnr = by_name("flow.pnr");
        assert_eq!(pnr.parent, Some(root_ev.id));
        assert_eq!(pnr.depth, 1);
        let round = by_name("route.round");
        assert_eq!(round.parent, Some(pnr.id));
        assert_eq!(round.depth, 2);
        let sta = by_name("flow.sta");
        assert_eq!(sta.parent, Some(root_ev.id));
        assert!(round.dur_us <= pnr.dur_us + 1.0);
    }

    #[test]
    fn dropped_span_is_recorded() {
        let collector = Collector::new();
        let _guard = collector.install();
        {
            let _sp = span("flow.signoff").attr("errors", 3_i64);
            // early-return path: span dropped without close()
        }
        drop(_guard);
        let data = collector.finish();
        assert_eq!(data.events.len(), 1);
        assert_eq!(data.events[0].name, "flow.signoff");
    }

    #[test]
    fn no_collector_is_a_noop() {
        let sp = span("orphan").attr("k", 1_i64);
        assert!(sp.open.is_none() && sp.attrs.is_empty());
        counter_add("c", 1);
        gauge_set("g", 1.0);
        observe("h", 1.0);
        sp.close();
    }

    #[test]
    fn install_nests_and_restores() {
        let outer = Collector::new();
        let inner = Collector::new();
        let _og = outer.install();
        counter_add("k", 1);
        {
            let _ig = inner.install();
            counter_add("k", 10);
        }
        counter_add("k", 100);
        drop(_og);
        counter_add("k", 1000); // no collector: dropped
        assert_eq!(outer.finish().metrics.counters["k"], 101);
        assert_eq!(inner.finish().metrics.counters["k"], 10);
    }

    #[test]
    fn set_attr_overwrites() {
        let collector = Collector::new();
        let _guard = collector.install();
        let mut sp = span("s").attr("outcome", "pending");
        sp.set_attr("outcome", "valid");
        sp.close();
        drop(_guard);
        let data = collector.finish();
        assert_eq!(
            data.events[0].attrs,
            vec![("outcome".into(), AttrValue::Str("valid".into()))]
        );
    }

    #[test]
    fn finish_force_closes_abandoned_ids() {
        let collector = Collector::new();
        let guard = collector.install();
        let sp = span("left.open");
        // Simulate a panic payload holding the span: leak it so its Drop
        // never runs, leaving the id on the collector's stack.
        std::mem::forget(sp);
        drop(guard);
        let data = collector.finish();
        assert_eq!(data.events.len(), 1);
        assert_eq!(data.events[0].name, "<unclosed>");
    }
}
