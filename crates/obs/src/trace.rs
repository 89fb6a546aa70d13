//! Run artifacts: `trace.jsonl` and `metrics.json` emission, schema
//! validation, and readback helpers for the `repro trace` renderer.
//!
//! ## `trace.jsonl` schema v1
//!
//! One JSON object per line. Two line types:
//!
//! ```text
//! {"v":1,"type":"span","point":L,"id":N,"parent":N|null,"depth":N,
//!  "name":S,"start_us":F,"dur_us":F,"attrs":{K:scalar,...}}
//! {"v":1,"type":"metrics","point":L,"counters":{K:N},"gauges":{K:F},
//!  "histograms":{K:{"count":N,"sum":F,"min":F,"max":F,"buckets":[N;12]}}}
//! ```
//!
//! Span lines appear in close order within a point; exactly one metrics
//! line closes each point. Points appear in submission order, so the file
//! is byte-stable across pool widths except for the `start_us`/`dur_us`
//! timing fields.
//!
//! ## `metrics.json`
//!
//! A single object: `{"v":1,"points":{label:metrics},"merged":metrics,
//! "timing":{"jobs":N,"wall_ms":F,"cache":{K:N}?}}`. Everything except the
//! `timing` key is deterministic; [`strip_timing`] removes it for
//! byte-level diffing. The optional `cache` sub-object carries the run's
//! stage-cache hit/miss/store counters ([`crate::cache_stats`]) — inside
//! `timing` because cache behavior depends on prior disk state, exactly
//! the kind of run-to-run variation the deterministic plane excludes.

use crate::json::{parse_json, Json};
use crate::metrics::{Histogram, MetricsSnapshot, BUCKET_EDGES};
use crate::{PointData, SpanEvent};

// Structural trace comparison lives in its own module but belongs to the
// trace toolkit's public surface: `ffet_obs::trace::diff::diff_traces`.
pub use crate::diff;

/// Version stamped on every `trace.jsonl` line and on `metrics.json`.
pub const TRACE_SCHEMA_VERSION: i64 = 1;

/// One flow point's trace, tagged with its sweep label
/// (e.g. `fig9/FFET0.50u0.65/s42`).
#[derive(Debug, Clone, PartialEq)]
pub struct LabeledPoint {
    pub label: String,
    pub data: PointData,
}

/// Accumulates every traced point of a repro run and renders the two
/// artifact files.
#[derive(Debug, Clone, Default)]
pub struct RunArtifacts {
    pub points: Vec<LabeledPoint>,
    /// Pool width the run used — recorded under the nondeterministic
    /// `timing` key only.
    pub jobs: usize,
    pub wall_ms: f64,
    /// Stage-cache event counters (`cache.{hit,miss,store}.<stage>` →
    /// count), typically a [`crate::cache_stats`] snapshot taken by the
    /// driver. Rendered under the `timing` key when non-empty.
    pub cache: Vec<(String, u64)>,
}

impl RunArtifacts {
    pub fn new(jobs: usize) -> Self {
        RunArtifacts {
            points: Vec::new(),
            jobs,
            wall_ms: 0.0,
            cache: Vec::new(),
        }
    }

    pub fn push(&mut self, label: String, data: PointData) {
        self.points.push(LabeledPoint { label, data });
    }

    pub fn extend(&mut self, points: impl IntoIterator<Item = LabeledPoint>) {
        self.points.extend(points);
    }

    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Render the full `trace.jsonl` body.
    pub fn trace_jsonl(&self) -> String {
        let mut out = String::new();
        for point in &self.points {
            for event in &point.data.events {
                out.push_str(&span_line(&point.label, event).render());
                out.push('\n');
            }
            out.push_str(&metrics_line(&point.label, &point.data.metrics).render());
            out.push('\n');
        }
        out
    }

    /// Metrics of every point merged in submission order.
    pub fn merged_metrics(&self) -> MetricsSnapshot {
        let mut merged = MetricsSnapshot::default();
        for point in &self.points {
            merged.merge(&point.data.metrics);
        }
        merged
    }

    /// Render the `metrics.json` body.
    pub fn metrics_json(&self) -> String {
        let points = self
            .points
            .iter()
            .map(|p| (p.label.clone(), p.data.metrics.to_json()))
            .collect();
        let mut timing = vec![
            ("jobs".into(), Json::Int(self.jobs as i64)),
            ("wall_ms".into(), Json::Num(self.wall_ms)),
        ];
        if !self.cache.is_empty() {
            timing.push((
                "cache".into(),
                Json::Obj(
                    self.cache
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Int(*v as i64)))
                        .collect(),
                ),
            ));
        }
        let doc = Json::Obj(vec![
            ("v".into(), Json::Int(TRACE_SCHEMA_VERSION)),
            ("points".into(), Json::Obj(points)),
            ("merged".into(), self.merged_metrics().to_json()),
            ("timing".into(), Json::Obj(timing)),
        ]);
        doc.render()
    }
}

fn span_line(label: &str, event: &SpanEvent) -> Json {
    Json::Obj(vec![
        ("v".into(), Json::Int(TRACE_SCHEMA_VERSION)),
        ("type".into(), Json::Str("span".into())),
        ("point".into(), Json::Str(label.to_string())),
        ("id".into(), Json::Int(i64::from(event.id))),
        (
            "parent".into(),
            event.parent.map_or(Json::Null, |p| Json::Int(i64::from(p))),
        ),
        ("depth".into(), Json::Int(i64::from(event.depth))),
        ("name".into(), Json::Str(event.name.clone())),
        ("start_us".into(), Json::Num(event.start_us)),
        ("dur_us".into(), Json::Num(event.dur_us)),
        (
            "attrs".into(),
            Json::Obj(
                event
                    .attrs
                    .iter()
                    .map(|(k, v)| (k.clone(), v.to_json()))
                    .collect(),
            ),
        ),
    ])
}

fn metrics_line(label: &str, metrics: &MetricsSnapshot) -> Json {
    let mut fields = vec![
        ("v".into(), Json::Int(TRACE_SCHEMA_VERSION)),
        ("type".into(), Json::Str("metrics".into())),
        ("point".into(), Json::Str(label.to_string())),
    ];
    if let Json::Obj(metric_fields) = metrics.to_json() {
        fields.extend(metric_fields);
    }
    Json::Obj(fields)
}

/// Remove the nondeterministic `timing` key from a `metrics.json` body and
/// re-render, for byte-level determinism comparisons.
pub fn strip_timing(metrics_json: &str) -> Result<String, String> {
    let parsed = parse_json(metrics_json)?;
    match parsed {
        Json::Obj(fields) => {
            Ok(Json::Obj(fields.into_iter().filter(|(k, _)| k != "timing").collect()).render())
        }
        _ => Err("metrics.json root is not an object".into()),
    }
}

/// Summary statistics returned by [`validate_trace`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceStats {
    pub span_lines: usize,
    pub metrics_lines: usize,
    pub points: usize,
}

/// Validate a `trace.jsonl` body against schema v1. Checks, per line:
/// version, line type, field presence and JSON types, scalar-only attrs,
/// 12-element histogram bucket arrays; and per point: span-id uniqueness
/// and parent ids that refer to spans of the same point. (Parents close
/// *after* their children, so parent resolution is a second pass over the
/// point, not a seen-earlier check.)
pub fn validate_trace(text: &str) -> Result<TraceStats, String> {
    /// (label, span ids, (line, parent id) refs) of the point being read.
    type OpenPoint = (String, Vec<u32>, Vec<(usize, u32)>);
    let mut stats = TraceStats::default();
    let mut current: Option<OpenPoint> = None;

    let finish_point = |point: OpenPoint, stats: &mut TraceStats| -> Result<(), String> {
        let (label, ids, parents) = point;
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        if sorted.len() != ids.len() {
            return Err(format!("point {label:?}: duplicate span ids"));
        }
        for (line_no, parent) in parents {
            if sorted.binary_search(&parent).is_err() {
                return Err(format!(
                    "line {line_no}: parent {parent} not a span id of point {label:?}"
                ));
            }
        }
        stats.points += 1;
        Ok(())
    };

    for (idx, line) in text.lines().enumerate() {
        let line_no = idx + 1;
        if line.trim().is_empty() {
            continue;
        }
        let obj = parse_json(line).map_err(|e| format!("line {line_no}: {e}"))?;
        let version = obj
            .get("v")
            .and_then(Json::as_i64)
            .ok_or_else(|| format!("line {line_no}: missing integer \"v\""))?;
        if version != TRACE_SCHEMA_VERSION {
            return Err(format!(
                "line {line_no}: schema version {version}, expected {TRACE_SCHEMA_VERSION}"
            ));
        }
        let kind = obj
            .get("type")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("line {line_no}: missing string \"type\""))?;
        let label = obj
            .get("point")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("line {line_no}: missing string \"point\""))?
            .to_string();
        match kind {
            "span" => {
                stats.span_lines += 1;
                let id = require_u32(&obj, "id", line_no)?;
                for key in ["start_us", "dur_us"] {
                    obj.get(key)
                        .and_then(Json::as_f64)
                        .ok_or_else(|| format!("line {line_no}: missing number {key:?}"))?;
                }
                obj.get("name")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("line {line_no}: missing string \"name\""))?;
                require_u32(&obj, "depth", line_no)?;
                let parent = match obj.get("parent") {
                    Some(Json::Null) => None,
                    Some(Json::Int(p)) => Some(
                        u32::try_from(*p)
                            .map_err(|_| format!("line {line_no}: negative parent id"))?,
                    ),
                    _ => return Err(format!("line {line_no}: missing \"parent\" (int or null)")),
                };
                match obj.get("attrs") {
                    Some(Json::Obj(attrs)) => {
                        for (key, value) in attrs {
                            if matches!(value, Json::Arr(_) | Json::Obj(_)) {
                                return Err(format!(
                                    "line {line_no}: attr {key:?} is not a scalar"
                                ));
                            }
                        }
                    }
                    _ => return Err(format!("line {line_no}: missing object \"attrs\"")),
                }
                match &mut current {
                    Some((open_label, ids, parents)) if *open_label == label => {
                        ids.push(id);
                        if let Some(p) = parent {
                            parents.push((line_no, p));
                        }
                    }
                    Some(_) => {
                        // A span line for a new point: the previous point
                        // must already have been closed by a metrics line.
                        return Err(format!(
                            "line {line_no}: point {label:?} starts before previous point's metrics line"
                        ));
                    }
                    None => {
                        let parents = parent.map(|p| (line_no, p)).into_iter().collect();
                        current = Some((label, vec![id], parents));
                    }
                }
            }
            "metrics" => {
                stats.metrics_lines += 1;
                for key in ["counters", "gauges", "histograms"] {
                    match obj.get(key) {
                        Some(Json::Obj(_)) => {}
                        _ => return Err(format!("line {line_no}: missing object {key:?}")),
                    }
                }
                if let Some(Json::Obj(histograms)) = obj.get("histograms") {
                    for (name, hist) in histograms {
                        let buckets = hist.get("buckets").ok_or_else(|| {
                            format!("line {line_no}: histogram {name:?} missing buckets")
                        })?;
                        match buckets {
                            Json::Arr(items) if items.len() == BUCKET_EDGES.len() + 1 => {}
                            _ => {
                                return Err(format!(
                                    "line {line_no}: histogram {name:?} needs {} buckets",
                                    BUCKET_EDGES.len() + 1
                                ))
                            }
                        }
                        for key in ["count", "sum", "min", "max"] {
                            hist.get(key).and_then(Json::as_f64).ok_or_else(|| {
                                format!("line {line_no}: histogram {name:?} missing {key:?}")
                            })?;
                        }
                    }
                }
                match current.take() {
                    Some(point) if point.0 == label => finish_point(point, &mut stats)?,
                    Some((open_label, ..)) => {
                        return Err(format!(
                            "line {line_no}: metrics for {label:?} while point {open_label:?} is open"
                        ));
                    }
                    // A point may legitimately have zero spans (e.g. a
                    // skipped job) — its metrics line alone closes it.
                    None => stats.points += 1,
                }
            }
            other => return Err(format!("line {line_no}: unknown line type {other:?}")),
        }
    }
    if let Some((label, ..)) = current {
        return Err(format!(
            "point {label:?} has span lines but no metrics line"
        ));
    }
    Ok(stats)
}

fn require_u32(obj: &Json, key: &str, line_no: usize) -> Result<u32, String> {
    obj.get(key)
        .and_then(Json::as_i64)
        .and_then(|v| u32::try_from(v).ok())
        .ok_or_else(|| format!("line {line_no}: missing non-negative integer {key:?}"))
}

/// All point labels present in a `trace.jsonl` body, in file order. A line
/// that does not parse is an error that names it, as in [`parse_point`].
pub fn point_labels(text: &str) -> Result<Vec<String>, String> {
    let mut labels: Vec<String> = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let obj = parse_json(line).map_err(|e| format!("line {}: {e}", idx + 1))?;
        if let Some(label) = obj.get("point").and_then(Json::as_str) {
            if labels.last().map(String::as_str) != Some(label) {
                labels.push(label.to_string());
            }
        }
    }
    Ok(labels)
}

/// Reconstruct one point's [`PointData`] from a `trace.jsonl` body.
pub fn parse_point(text: &str, label: &str) -> Result<PointData, String> {
    let mut data = PointData::default();
    let mut found = false;
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let obj = parse_json(line).map_err(|e| format!("line {}: {e}", idx + 1))?;
        if obj.get("point").and_then(Json::as_str) != Some(label) {
            continue;
        }
        found = true;
        match obj.get("type").and_then(Json::as_str) {
            Some("span") => data.events.push(parse_span_event(&obj, idx + 1)?),
            Some("metrics") => data.metrics = parse_metrics(&obj),
            _ => {}
        }
    }
    if found {
        Ok(data)
    } else {
        Err(format!("no point labeled {label:?} in trace"))
    }
}

fn parse_span_event(obj: &Json, line_no: usize) -> Result<SpanEvent, String> {
    let attrs = match obj.get("attrs") {
        Some(Json::Obj(fields)) => fields
            .iter()
            .map(|(k, v)| {
                let value = match v {
                    Json::Str(s) => crate::AttrValue::Str(s.clone()),
                    Json::Int(i) => crate::AttrValue::Int(*i),
                    Json::Num(x) => crate::AttrValue::Float(*x),
                    Json::Bool(b) => crate::AttrValue::Bool(*b),
                    _ => crate::AttrValue::Str(v.render()),
                };
                (k.clone(), value)
            })
            .collect(),
        _ => Vec::new(),
    };
    Ok(SpanEvent {
        id: require_u32(obj, "id", line_no)?,
        parent: obj
            .get("parent")
            .and_then(Json::as_i64)
            .and_then(|p| u32::try_from(p).ok()),
        depth: require_u32(obj, "depth", line_no)? as u16,
        name: obj
            .get("name")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string(),
        start_us: obj.get("start_us").and_then(Json::as_f64).unwrap_or(0.0),
        dur_us: obj.get("dur_us").and_then(Json::as_f64).unwrap_or(0.0),
        attrs,
    })
}

fn parse_metrics(obj: &Json) -> MetricsSnapshot {
    let mut snapshot = MetricsSnapshot::default();
    if let Some(Json::Obj(counters)) = obj.get("counters") {
        for (k, v) in counters {
            if let Some(i) = v.as_i64() {
                snapshot.counters.insert(k.clone(), i);
            }
        }
    }
    if let Some(Json::Obj(gauges)) = obj.get("gauges") {
        for (k, v) in gauges {
            if let Some(x) = v.as_f64() {
                snapshot.gauges.insert(k.clone(), x);
            }
        }
    }
    if let Some(Json::Obj(histograms)) = obj.get("histograms") {
        for (k, h) in histograms {
            let mut hist = Histogram {
                count: h.get("count").and_then(Json::as_i64).unwrap_or(0) as u64,
                sum: h.get("sum").and_then(Json::as_f64).unwrap_or(0.0),
                min: h.get("min").and_then(Json::as_f64).unwrap_or(0.0),
                max: h.get("max").and_then(Json::as_f64).unwrap_or(0.0),
                buckets: [0; BUCKET_EDGES.len() + 1],
            };
            if let Some(Json::Arr(items)) = h.get("buckets") {
                for (slot, item) in hist.buckets.iter_mut().zip(items.iter()) {
                    *slot = item.as_i64().unwrap_or(0) as u64;
                }
            }
            snapshot.histograms.insert(k.clone(), hist);
        }
    }
    snapshot
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{span, Collector};

    fn sample_artifacts() -> RunArtifacts {
        let mut artifacts = RunArtifacts::new(2);
        for label in ["exp/a", "exp/b"] {
            let collector = Collector::new();
            let guard = collector.install();
            let root = span("flow").attr("seed", "42");
            let child = span("flow.pnr").attr("cells", 10_i64);
            crate::counter_add("route.ripups", 3);
            crate::gauge_set("place.hpwl_nm", 1234.5);
            crate::observe("sta.slack_ps", -12.0);
            crate::observe("sta.slack_ps", 55.0);
            child.close();
            root.close();
            drop(guard);
            artifacts.push(label.to_string(), collector.finish());
        }
        artifacts.wall_ms = 17.0;
        artifacts
    }

    #[test]
    fn emitted_trace_validates() {
        let artifacts = sample_artifacts();
        let trace = artifacts.trace_jsonl();
        let stats = validate_trace(&trace).unwrap();
        assert_eq!(stats.points, 2);
        assert_eq!(stats.span_lines, 4);
        assert_eq!(stats.metrics_lines, 2);
        assert_eq!(point_labels(&trace).unwrap(), vec!["exp/a", "exp/b"]);
    }

    #[test]
    fn point_labels_names_a_corrupt_line() {
        let trace = sample_artifacts().trace_jsonl();
        let first = |label: &str| {
            trace
                .lines()
                .find(|l| l.contains(&format!("\"point\":\"{label}\"")))
                .unwrap()
                .to_owned()
        };
        let (a, b) = (first("exp/a"), first("exp/b"));
        let text = format!("{a}\n{}\n", &b[..b.len() / 2]);
        let err = point_labels(&text).unwrap_err();
        assert!(
            err.starts_with("line 2: ") && err.contains(" at byte "),
            "{err}"
        );
    }

    #[test]
    fn parse_point_roundtrips_deterministic_fields() {
        let artifacts = sample_artifacts();
        let trace = artifacts.trace_jsonl();
        let parsed = parse_point(&trace, "exp/a").unwrap();
        let original = &artifacts.points[0].data;
        assert_eq!(parsed.metrics, original.metrics);
        assert_eq!(parsed.events.len(), original.events.len());
        for (p, o) in parsed.events.iter().zip(original.events.iter()) {
            assert_eq!(p.id, o.id);
            assert_eq!(p.parent, o.parent);
            assert_eq!(p.name, o.name);
            assert_eq!(p.attrs, o.attrs);
        }
        assert!(parse_point(&trace, "exp/zz").is_err());
    }

    #[test]
    fn strip_timing_removes_only_timing() {
        let artifacts = sample_artifacts();
        let body = artifacts.metrics_json();
        assert!(body.contains("\"timing\""));
        let stripped = strip_timing(&body).unwrap();
        assert!(!stripped.contains("\"timing\""));
        assert!(stripped.contains("\"merged\""));
        assert!(stripped.contains("\"route.ripups\""));
        // A differently-timed run — including one with cache counters, a
        // pure disk-state artifact — strips to the same bytes.
        let mut other = sample_artifacts();
        other.jobs = 7;
        other.wall_ms = 9999.0;
        other.cache = vec![("cache.hit.synth".into(), 3)];
        assert!(other.metrics_json().contains("cache.hit.synth"));
        assert_eq!(strip_timing(&other.metrics_json()).unwrap(), stripped);
    }

    #[test]
    fn strip_timing_is_stable_across_nested_span_timings() {
        // Three levels of nesting, run twice: wall-clock differences on
        // every nested span must be invisible to both the stripped
        // metrics.json bytes and the structural point comparator.
        let run = |work: fn()| {
            let mut artifacts = RunArtifacts::new(1);
            let collector = Collector::new();
            let guard = collector.install();
            let root = span("flow");
            let mid = span("flow.pnr").attr("cells", 8_i64);
            let leaf = span("flow.pnr.route");
            crate::counter_add("route.rounds", 2);
            work(); // perturb wall clock only
            leaf.close();
            mid.close();
            root.close();
            drop(guard);
            artifacts.push("exp/nested".to_string(), collector.finish());
            artifacts
        };
        let fast = run(|| {});
        let slow = run(|| std::thread::sleep(std::time::Duration::from_millis(2)));
        // Spans carry distinct depths and nest leaf-inside-mid-inside-root.
        let depths: Vec<u16> = fast.points[0].data.events.iter().map(|e| e.depth).collect();
        assert_eq!(depths.iter().max(), Some(&2));
        assert_eq!(
            strip_timing(&fast.metrics_json()).unwrap(),
            strip_timing(&slow.metrics_json()).unwrap()
        );
        assert!(crate::diff::diff_points(&fast.points[0].data, &slow.points[0].data).is_empty());
    }

    #[test]
    fn merged_metrics_accumulate() {
        let artifacts = sample_artifacts();
        let merged = artifacts.merged_metrics();
        assert_eq!(merged.counters["route.ripups"], 6);
        assert_eq!(merged.histograms["sta.slack_ps"].count, 4);
    }

    #[test]
    fn validator_rejects_malformed_lines() {
        // Wrong version.
        assert!(validate_trace(
            r#"{"v":2,"type":"metrics","point":"p","counters":{},"gauges":{},"histograms":{}}"#
        )
        .is_err());
        // Unknown type.
        assert!(validate_trace(r#"{"v":1,"type":"zap","point":"p"}"#).is_err());
        // Span whose parent id doesn't exist in the point.
        let bad_parent = concat!(
            r#"{"v":1,"type":"span","point":"p","id":0,"parent":9,"depth":1,"name":"x","start_us":0.0,"dur_us":1.0,"attrs":{}}"#,
            "\n",
            r#"{"v":1,"type":"metrics","point":"p","counters":{},"gauges":{},"histograms":{}}"#,
        );
        assert!(validate_trace(bad_parent).is_err());
        // Non-scalar attr.
        assert!(validate_trace(
            r#"{"v":1,"type":"span","point":"p","id":0,"parent":null,"depth":0,"name":"x","start_us":0.0,"dur_us":1.0,"attrs":{"a":[1]}}"#
        )
        .is_err());
        // Trailing open point (no metrics line).
        assert!(validate_trace(
            r#"{"v":1,"type":"span","point":"p","id":0,"parent":null,"depth":0,"name":"x","start_us":0.0,"dur_us":1.0,"attrs":{}}"#
        )
        .is_err());
        // Histogram with the wrong bucket count.
        assert!(validate_trace(
            r#"{"v":1,"type":"metrics","point":"p","counters":{},"gauges":{},"histograms":{"h":{"count":1,"sum":0.0,"min":0.0,"max":0.0,"buckets":[0,0]}}}"#
        )
        .is_err());
    }

    #[test]
    fn validator_accepts_parent_closing_after_child() {
        // Parents serialize after children (close order); the validator
        // must not require parents to appear first.
        let trace = concat!(
            r#"{"v":1,"type":"span","point":"p","id":1,"parent":0,"depth":1,"name":"child","start_us":1.0,"dur_us":1.0,"attrs":{}}"#,
            "\n",
            r#"{"v":1,"type":"span","point":"p","id":0,"parent":null,"depth":0,"name":"root","start_us":0.0,"dur_us":5.0,"attrs":{}}"#,
            "\n",
            r#"{"v":1,"type":"metrics","point":"p","counters":{},"gauges":{},"histograms":{}}"#,
        );
        let stats = validate_trace(trace).unwrap();
        assert_eq!(stats.span_lines, 2);
        assert_eq!(stats.points, 1);
    }
}
