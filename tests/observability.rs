//! Observability contract tests: metric values and span-tree shape must be
//! deterministic at every pool width (with and without injected faults),
//! the emitted `trace.jsonl` must validate against schema v1, and tracing
//! must stay cheap. The two `#[ignore]`d tests are run explicitly by the
//! CI observability job: one measures tracing overhead, one validates the
//! on-disk artifacts a prior `repro` run left in `results/`.

use ffet_core::experiments::utilization_sweep;
use ffet_core::{designs, Fault, FaultKind, FaultPlan, FlowConfig, Pool, Stage};
use ffet_obs::{parse_point, strip_timing, validate_trace, RunArtifacts};
use ffet_tech::{RoutingPattern, TechKind};

/// The proven dual-sided configuration on the fast counter design (same
/// point as the fault-matrix tests) so the sweep exercises both wafer
/// sides and closes cleanly.
fn base_config() -> FlowConfig {
    FlowConfig {
        pattern: RoutingPattern::new(12, 12).expect("static"),
        back_pin_ratio: 0.5,
        utilization: 0.6,
        ..FlowConfig::baseline(TechKind::Ffet3p5t)
    }
}

/// Runs the small two-point sweep at the given pool width and collects its
/// traces into artifacts, exactly as the `repro` binary does.
fn sweep_artifacts(width: usize, base: &FlowConfig) -> RunArtifacts {
    let library = base.build_library().expect("valid config");
    let netlist = designs::counter_pipeline(&library, 24);
    let pool = Pool::new(width);
    let utils = [0.56, 0.60];
    let (_, points, _, traces) = utilization_sweep(&pool, &netlist, &library, base, &utils);
    assert_eq!(points.len(), utils.len(), "sweep closes at both points");
    let mut artifacts = RunArtifacts::new(width);
    artifacts.extend(traces);
    artifacts
}

/// The deterministic skeleton of one span: name, id, parent, depth, and
/// rendered attrs — everything except the wall-clock `start_us`/`dur_us`.
type SpanSkeleton = (String, u32, Option<u32>, u16, String);

fn span_skeletons(artifacts: &RunArtifacts) -> Vec<Vec<SpanSkeleton>> {
    artifacts
        .points
        .iter()
        .map(|p| {
            p.data
                .events
                .iter()
                .map(|e| {
                    let attrs = e
                        .attrs
                        .iter()
                        .map(|(k, v)| format!("{k}={v:?}"))
                        .collect::<Vec<_>>()
                        .join(",");
                    (e.name.clone(), e.id, e.parent, e.depth, attrs)
                })
                .collect()
        })
        .collect()
}

#[test]
fn metrics_and_spans_identical_across_pool_widths() {
    // The full {FFET_JOBS} × {FFET_ROUTE_JOBS} cross-matrix: DoE pool
    // width and router worker count are independent; the reference is the
    // fully serial corner.
    let mut base = base_config();
    base.route_jobs = 1;
    let serial = sweep_artifacts(1, &base);
    for jobs in [1usize, 4] {
        for route_jobs in [1usize, 4] {
            if (jobs, route_jobs) == (1, 1) {
                continue;
            }
            let mut config = base.clone();
            config.route_jobs = route_jobs;
            let run = sweep_artifacts(jobs, &config);
            // metrics.json is byte-identical once the timing key is
            // stripped, and the span tree (names, ids, nesting, attrs,
            // order) matches too.
            assert_eq!(
                strip_timing(&serial.metrics_json()).unwrap(),
                strip_timing(&run.metrics_json()).unwrap(),
                "metrics diverged at jobs={jobs} route_jobs={route_jobs}"
            );
            assert_eq!(
                span_skeletons(&serial),
                span_skeletons(&run),
                "span tree diverged at jobs={jobs} route_jobs={route_jobs}"
            );
        }
    }
    // And the traces actually carry the flow's signal, not empty shells.
    let merged = serial.merged_metrics();
    assert_eq!(merged.counters["flow.runs"], 6, "2 utils x 3 seeds");
    assert!(merged.counters["rcx.nets"] > 0);
    assert!(merged.counters["route.vias.back"] > 0, "dual-sided config");
    assert!(merged.histograms["sta.slack_ps"].count > 0);
    assert!(merged.gauges.contains_key("sta.wns_ps"));
    let names: Vec<&str> = serial.points[0]
        .data
        .events
        .iter()
        .map(|e| e.name.as_str())
        .collect();
    for stage in ["flow.synth", "flow.pnr", "flow.rcx", "flow.sta", "flow"] {
        assert!(names.contains(&stage), "missing span {stage}: {names:?}");
    }
}

#[test]
fn metrics_identical_across_pool_widths_with_fault_plan() {
    // Same cross-matrix contract while the recovery ladder is exercised: a
    // transient route-open makes every point take one retry, at every
    // combination of pool width and router worker count.
    let mut base = base_config();
    base.max_attempts = 2;
    base.route_jobs = 1;
    base.fault_plan = FaultPlan {
        faults: vec![Fault::until(FaultKind::RouteOpen, 1)],
        ..FaultPlan::default()
    };
    let serial = sweep_artifacts(1, &base);
    for jobs in [1usize, 4] {
        for route_jobs in [1usize, 4] {
            if (jobs, route_jobs) == (1, 1) {
                continue;
            }
            let mut config = base.clone();
            config.route_jobs = route_jobs;
            let run = sweep_artifacts(jobs, &config);
            assert_eq!(
                strip_timing(&serial.metrics_json()).unwrap(),
                strip_timing(&run.metrics_json()).unwrap(),
                "faulted metrics diverged at jobs={jobs} route_jobs={route_jobs}"
            );
            assert_eq!(
                span_skeletons(&serial),
                span_skeletons(&run),
                "faulted span tree diverged at jobs={jobs} route_jobs={route_jobs}"
            );
        }
    }
    let merged = serial.merged_metrics();
    assert_eq!(merged.counters["recover.attempts"], 12, "6 points x 2");
    assert_eq!(merged.counters["recover.recovered"], 6);
    assert!(!merged.counters.contains_key("recover.clean"));
}

#[test]
fn emitted_trace_validates_against_schema() {
    let artifacts = sweep_artifacts(2, &base_config());
    let trace = artifacts.trace_jsonl();
    let stats = validate_trace(&trace).expect("schema-valid trace");
    assert_eq!(stats.points, artifacts.points.len());
    assert_eq!(stats.metrics_lines, artifacts.points.len());
    assert!(stats.span_lines >= artifacts.points.len() * 5);
    // Labels survive the emit → readback roundtrip.
    let labels = ffet_obs::point_labels(&trace).unwrap();
    assert_eq!(labels.len(), artifacts.points.len());
    let parsed = ffet_obs::parse_point(&trace, &labels[0]).unwrap();
    assert_eq!(parsed.metrics, artifacts.points[0].data.metrics);
}

/// Tracing overhead contract: running the flow with a collector installed
/// must cost < 5% over running it with tracing disabled (the ambient
/// no-collector path). Ignored by default (it is a timing measurement);
/// the CI observability job runs it explicitly.
#[test]
#[ignore = "timing measurement; run explicitly (CI observability job)"]
fn tracing_overhead_is_under_five_percent() {
    use std::time::Instant;
    let config = base_config();
    let library = config.build_library().expect("valid config");
    let netlist = designs::counter_pipeline(&library, 24);
    let run = || ffet_core::run_flow(&netlist, &library, &config).expect("flow");
    // Warm-up.
    run();
    let sample = |traced: bool| -> f64 {
        let t0 = Instant::now();
        if traced {
            let collector = ffet_obs::Collector::new();
            let _guard = collector.install();
            std::hint::black_box(run());
        } else {
            std::hint::black_box(run());
        }
        t0.elapsed().as_secs_f64()
    };
    // Interleave the two modes so drift hits both equally; compare medians.
    let mut traced: Vec<f64> = Vec::new();
    let mut untraced: Vec<f64> = Vec::new();
    for _ in 0..7 {
        untraced.push(sample(false));
        traced.push(sample(true));
    }
    traced.sort_by(f64::total_cmp);
    untraced.sort_by(f64::total_cmp);
    let (t, u) = (traced[traced.len() / 2], untraced[untraced.len() / 2]);
    assert!(
        t <= u * 1.05,
        "tracing overhead {:.2}% exceeds 5% (traced {t:.4}s vs untraced {u:.4}s)",
        (t / u - 1.0) * 100.0
    );
}

/// Validates the artifacts a prior `repro` run wrote to `results/` at the
/// repository root, including that every flow row of `runlog.csv` carries
/// the `flow.<stage>` span sums of its point in `trace.jsonl`. Ignored by
/// default (it needs that run to have happened); the CI observability job
/// runs `repro` first, then this.
#[test]
#[ignore = "needs results/ from a prior repro run (CI observability job)"]
fn on_disk_artifacts_validate() {
    let results = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let trace = std::fs::read_to_string(results.join("trace.jsonl"))
        .expect("results/trace.jsonl (run `repro` with a flow experiment first)");
    let stats = validate_trace(&trace).expect("schema-valid trace.jsonl");
    assert!(stats.points > 0);
    assert!(stats.span_lines > 0);
    let metrics = std::fs::read_to_string(results.join("metrics.json"))
        .expect("results/metrics.json (run `repro` with a flow experiment first)");
    let stripped = strip_timing(&metrics).expect("parsable metrics.json");
    assert!(stripped.contains("\"merged\""));
    assert!(metrics.contains("\"timing\""));

    let runlog = std::fs::read_to_string(results.join("runlog.csv"))
        .expect("results/runlog.csv (run `repro` with a flow experiment first)");
    let mut lines = runlog.lines();
    assert_eq!(
        lines.next(),
        Some("experiment,label,index,worker,wall_ms,synth_ms,pnr_ms,merge_ms,signoff_ms,rcx_ms,sta_ms,attempts,disposition")
    );
    let mut flow_rows = 0;
    for line in lines.filter(|l| !l.starts_with('#')) {
        // Point labels carry no commas; a disposition may (it is quoted),
        // so split off only the columns before it.
        let cells: Vec<&str> = line.splitn(12, ',').collect();
        assert_eq!(cells.len(), 12, "{line}");
        if cells[5].is_empty() {
            continue; // build, skipped and `(total)` rows run no flow
        }
        let point = parse_point(&trace, &format!("{}/{}", cells[0], cells[1]))
            .unwrap_or_else(|e| panic!("{line}: no trace point: {e}"));
        for (stage, cell) in Stage::ALL.iter().zip(&cells[5..11]) {
            let logged: f64 = cell.parse().expect("numeric stage cell");
            let spans = point.span_ms(&format!("flow.{}", stage.name()));
            assert!(
                (logged - spans).abs() <= 1e-3,
                "{line}: {} cell {logged} vs flow.{} spans {spans}",
                stage.name(),
                stage.name()
            );
        }
        flow_rows += 1;
    }
    assert!(flow_rows > 0, "runlog.csv has no flow rows");
}
