//! Structural trace comparison: the single implementation behind
//! `ffet trace diff` and the crash-resume differential tests.
//!
//! Two traces are *structurally equal* when they carry the same points in
//! the same order and every point has the same span tree (ids, parents,
//! depths, names, attrs — close order included) and the same metric
//! snapshot (counters, gauges, histograms). Wall-clock span timings
//! (`start_us`/`dur_us`) are explicitly outside the comparison: the
//! determinism contract (DESIGN §7) promises everything *but* them, so a
//! non-empty diff between two runs of the same config is a contract
//! violation, not noise. The `cached` span attribute (stage-cache hit/miss
//! provenance, DESIGN §14) is likewise excluded: whether a stage replayed
//! from the cache is a property of prior disk state and scheduling, not of
//! the artifact, and warm-vs-cold comparisons are exactly what this diff
//! exists for.

use crate::metrics::MetricsSnapshot;
use crate::trace::{parse_point, point_labels};
use crate::PointData;

/// Structurally compares two points. Returns one human-readable line per
/// difference, in a deterministic order (span walk first, then counters,
/// gauges, histograms); empty means structurally identical.
#[must_use]
pub fn diff_points(a: &PointData, b: &PointData) -> Vec<String> {
    let mut out = Vec::new();
    if a.events.len() != b.events.len() {
        out.push(format!(
            "span count: {} vs {}",
            a.events.len(),
            b.events.len()
        ));
    }
    for (idx, (ea, eb)) in a.events.iter().zip(b.events.iter()).enumerate() {
        if ea.name != eb.name {
            out.push(format!("span #{idx} name: {:?} vs {:?}", ea.name, eb.name));
        }
        if (ea.id, ea.parent, ea.depth) != (eb.id, eb.parent, eb.depth) {
            out.push(format!(
                "span #{idx} ({}): tree position (id {}, parent {:?}, depth {}) vs (id {}, parent {:?}, depth {})",
                ea.name, ea.id, ea.parent, ea.depth, eb.id, eb.parent, eb.depth
            ));
        }
        if !attrs_eq(&ea.attrs, &eb.attrs) {
            out.push(format!("span #{idx} ({}): attrs differ", ea.name));
        }
    }
    diff_metrics(&a.metrics, &b.metrics, &mut out);
    out
}

/// Attr-list equality modulo the `cached` provenance attribute.
fn attrs_eq(a: &[(String, crate::AttrValue)], b: &[(String, crate::AttrValue)]) -> bool {
    let significant = |attrs: &[(String, crate::AttrValue)]| -> Vec<(String, crate::AttrValue)> {
        attrs
            .iter()
            .filter(|(k, _)| k != "cached")
            .cloned()
            .collect()
    };
    significant(a) == significant(b)
}

fn diff_metrics(a: &MetricsSnapshot, b: &MetricsSnapshot, out: &mut Vec<String>) {
    for name in a.counters.keys().chain(b.counters.keys()) {
        match (a.counters.get(name), b.counters.get(name)) {
            (Some(x), Some(y)) if x != y => {
                out.push(format!("counter {name}: {x} vs {y}"));
            }
            (Some(x), None) => out.push(format!("counter {name}: {x} vs absent")),
            (None, Some(y)) => out.push(format!("counter {name}: absent vs {y}")),
            _ => {}
        }
    }
    for name in a.gauges.keys().chain(b.gauges.keys()) {
        match (a.gauges.get(name), b.gauges.get(name)) {
            (Some(x), Some(y)) if x != y => {
                out.push(format!("gauge {name}: {x} vs {y}"));
            }
            (Some(x), None) => out.push(format!("gauge {name}: {x} vs absent")),
            (None, Some(y)) => out.push(format!("gauge {name}: absent vs {y}")),
            _ => {}
        }
    }
    for name in a.histograms.keys().chain(b.histograms.keys()) {
        match (a.histograms.get(name), b.histograms.get(name)) {
            (Some(x), Some(y)) if x != y => {
                out.push(format!(
                    "histogram {name}: (count {}, sum {}) vs (count {}, sum {})",
                    x.count, x.sum, y.count, y.sum
                ));
            }
            (Some(_), None) => out.push(format!("histogram {name}: present vs absent")),
            (None, Some(_)) => out.push(format!("histogram {name}: absent vs present")),
            _ => {}
        }
    }
    // chain() visits duplicated shared keys twice, but the match arms that
    // push are asymmetric in at most one visit for missing keys and
    // identical for shared ones — dedup the adjacent repeats.
    out.dedup();
}

/// Structurally compares two whole `trace.jsonl` bodies: same point labels
/// in the same order, and every shared point structurally identical.
/// Returns `Err` only when a trace fails to parse; differences (including
/// label-set mismatches) come back as `Ok(non-empty)`.
pub fn diff_traces(a_text: &str, b_text: &str) -> Result<Vec<String>, String> {
    let a_labels = point_labels(a_text)?;
    let b_labels = point_labels(b_text)?;
    let mut out = Vec::new();
    if a_labels != b_labels {
        out.push(format!(
            "point sequences differ: {} vs {} points",
            a_labels.len(),
            b_labels.len()
        ));
        for label in a_labels.iter().filter(|l| !b_labels.contains(l)) {
            out.push(format!("point {label:?}: only in first trace"));
        }
        for label in b_labels.iter().filter(|l| !a_labels.contains(l)) {
            out.push(format!("point {label:?}: only in second trace"));
        }
    }
    for label in a_labels.iter().filter(|l| b_labels.contains(l)) {
        let a_point = parse_point(a_text, label)?;
        let b_point = parse_point(b_text, label)?;
        for line in diff_points(&a_point, &b_point) {
            out.push(format!("point {label:?}: {line}"));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{span, Collector};

    fn traced_point(extra_ripups: i64) -> PointData {
        let collector = Collector::new();
        let guard = collector.install();
        let root = span("flow");
        let child = span("flow.route").attr("layer", 2_i64);
        crate::counter_add("route.ripups", 3 + extra_ripups);
        crate::gauge_set("place.hpwl_nm", 500.0);
        crate::observe("sta.slack_ps", 12.0);
        child.close();
        root.close();
        drop(guard);
        collector.finish()
    }

    #[test]
    fn identical_points_have_no_diff() {
        assert_eq!(
            diff_points(&traced_point(0), &traced_point(0)),
            Vec::<String>::new()
        );
    }

    #[test]
    fn timing_differences_are_invisible() {
        let a = traced_point(0);
        let mut b = traced_point(0);
        for event in &mut b.events {
            event.start_us += 1000.0;
            event.dur_us *= 3.0;
        }
        assert!(diff_points(&a, &b).is_empty());
    }

    #[test]
    fn counter_and_structure_drift_is_reported() {
        let a = traced_point(0);
        let b = traced_point(2);
        let diffs = diff_points(&a, &b);
        assert!(
            diffs.iter().any(|d| d.contains("route.ripups")),
            "{diffs:?}"
        );

        let mut c = traced_point(0);
        c.events[0].name = "flow.renamed".into();
        assert!(diff_points(&a, &c).iter().any(|d| d.contains("name")));

        let mut d = traced_point(0);
        d.events.pop();
        assert!(diff_points(&a, &d).iter().any(|d| d.contains("span count")));
    }

    #[test]
    fn cached_attr_is_invisible_but_other_attrs_diff() {
        let a = traced_point(0);
        let mut b = traced_point(0);
        // A warm run marks replayed roots `cached=true`; a cold run marks
        // them `cached=false` (or not at all, inline). All invisible.
        b.events[1]
            .attrs
            .push(("cached".into(), crate::AttrValue::Bool(true)));
        assert!(diff_points(&a, &b).is_empty(), "cached attr must not diff");
        b.events[0]
            .attrs
            .push(("layer".into(), crate::AttrValue::Int(9)));
        assert!(diff_points(&a, &b)
            .iter()
            .any(|d| d.contains("attrs differ")));
    }

    #[test]
    fn trace_diff_spots_label_and_point_drift() {
        let mut a = crate::RunArtifacts::new(1);
        a.push("exp/a".into(), traced_point(0));
        a.push("exp/b".into(), traced_point(0));
        let mut b = crate::RunArtifacts::new(4);
        b.push("exp/a".into(), traced_point(0));
        b.push("exp/b".into(), traced_point(1));

        let same = diff_traces(&a.trace_jsonl(), &a.trace_jsonl()).expect("parse");
        assert!(same.is_empty(), "{same:?}");

        let drift = diff_traces(&a.trace_jsonl(), &b.trace_jsonl()).expect("parse");
        assert!(
            drift
                .iter()
                .any(|d| d.contains("exp/b") && d.contains("route.ripups")),
            "{drift:?}"
        );

        let mut c = crate::RunArtifacts::new(1);
        c.push("exp/a".into(), traced_point(0));
        let missing = diff_traces(&a.trace_jsonl(), &c.trace_jsonl()).expect("parse");
        assert!(
            missing.iter().any(|d| d.contains("only in first trace")),
            "{missing:?}"
        );
    }
}
