//! The stage-cache contract (DESIGN §14), enforced end to end:
//!
//! * a **warm** rerun of a sweep — every stage replaying from the
//!   content-addressed store — produces byte-identical tables, reports,
//!   and timing-stripped metrics at `jobs=1` and `jobs=4`, while
//!   executing ≥ 30% fewer stage invocations than the cold run;
//! * a **poisoned** blob (payload bytes no longer hashing to their
//!   address) is a deterministic miss: the stage recomputes and the flow
//!   result is exactly the uncached one — a corrupt cache can cost time
//!   but never correctness — also when the tampered bytes still decode;
//! * a **faulted** run never reads from or writes to the cache: fault
//!   plans force the cache off, so injected corruption cannot poison a
//!   later clean run, and a clean prefix cannot mask an injected fault.

use ffet_core::experiments::{self, utilization_sweep, DesignKind};
use ffet_core::stagecache;
use ffet_core::{designs, run_flow, Fault, FaultKind, FaultPlan, FlowConfig, Pool};
use ffet_tech::{RoutingPattern, TechKind};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Serializes every test in this binary: they share the process-global
/// cache-stats registry (and one test mutates the cache-root env var).
static STATS_GUARD: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    // A poisoned guard just means another test's assertion fired; the
    // registry is still usable because every test resets it on entry.
    STATS_GUARD
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ffet-scache-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The golden-proven dual-sided configuration (same as the fault matrix):
/// FM12BM12 BP0.5 closes cleanly on the counter pipeline, with the stage
/// cache pointed at an explicit scratch root (never the env: tests run in
/// parallel threads and must not leak a cache root into each other).
fn base_config(root: &Path) -> FlowConfig {
    FlowConfig {
        pattern: RoutingPattern::new(12, 12).expect("static"),
        back_pin_ratio: 0.5,
        utilization: 0.6,
        stage_cache: Some(root.to_path_buf()),
        ..FlowConfig::baseline(TechKind::Ffet3p5t)
    }
}

/// Sums every `cache.{kind}.*` counter currently in the registry.
fn stat_total(kind: &str) -> u64 {
    let prefix = format!("cache.{kind}.");
    ffet_obs::cache_stats()
        .iter()
        .filter(|(name, _)| name.starts_with(&prefix))
        .map(|&(_, n)| n)
        .sum()
}

/// Renders a sweep's traces the way the repro driver does, then strips
/// the host-dependent `timing` section; what remains must be bytes-equal
/// between cold and warm runs.
fn stripped_metrics(jobs: usize, traces: Vec<ffet_obs::LabeledPoint>) -> (String, String) {
    let mut artifacts = ffet_obs::RunArtifacts::new(jobs);
    artifacts.extend(traces);
    let metrics = ffet_obs::strip_timing(&artifacts.metrics_json()).expect("strip timing");
    (metrics, artifacts.trace_jsonl())
}

#[test]
fn warm_sweep_is_byte_identical_and_skips_stages_at_any_pool_width() {
    let _g = lock();
    let root = scratch("warm");
    let base = base_config(&root);
    let library = base.build_library().expect("valid config");
    let netlist = designs::counter_pipeline(&library, 16);
    let utils = [0.58, 0.62];

    ffet_obs::cache_stats_reset();
    let cold = utilization_sweep(&Pool::new(1), &netlist, &library, &base, &utils);
    let cold_misses = stat_total("miss");
    assert!(
        stat_total("store") > 0,
        "cold run must populate the cache (stats: {:?})",
        ffet_obs::cache_stats()
    );
    let (cold_metrics, cold_trace) = stripped_metrics(1, cold.3);

    for jobs in [1usize, 4] {
        ffet_obs::cache_stats_reset();
        let warm = utilization_sweep(&Pool::new(jobs), &netlist, &library, &base, &utils);
        assert_eq!(cold.0, warm.0, "max-util column diverged at jobs={jobs}");
        assert_eq!(cold.1, warm.1, "sweep reports diverged at jobs={jobs}");
        // Every stage of a clean point replayed, so its runlog cells are
        // the replayed spans' stored zero durations.
        for row in warm.2.iter().filter(|r| r.disposition == "clean") {
            assert_eq!(row.stage_ms, Some([0.0; 6]), "{} at jobs={jobs}", row.label);
        }

        let warm_hits = stat_total("hit");
        let warm_misses = stat_total("miss");
        assert!(
            warm_hits > 0,
            "warm rerun at jobs={jobs} never hit the cache"
        );
        // The acceptance bar: a warm rerun executes >= 30% fewer stage
        // invocations (a miss is exactly one executed stage).
        #[allow(clippy::cast_precision_loss)]
        let reduction_ok = (warm_misses as f64) <= (cold_misses as f64) * 0.7;
        assert!(
            reduction_ok,
            "jobs={jobs}: warm run executed {warm_misses} stages vs {cold_misses} cold (< 30% reduction)"
        );

        let (warm_metrics, warm_trace) = stripped_metrics(jobs, warm.3);
        assert_eq!(
            cold_metrics, warm_metrics,
            "timing-stripped metrics.json diverged at jobs={jobs}"
        );
        // Span trees and metric snapshots must be structurally identical;
        // only the `cached` provenance attr may differ between runs.
        let diffs = ffet_obs::diff::diff_traces(&cold_trace, &warm_trace).expect("traces parse");
        assert!(diffs.is_empty(), "jobs={jobs}: trace drift: {diffs:?}");
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// The driver-level contract: with the cache root riding the env var —
/// exactly how the repro binary wires it — a warm rerun of a whole
/// experiment reproduces the golden CSV byte for byte at `jobs` 1 and 4.
#[test]
fn warm_fig8_reproduces_the_golden_csv_via_the_env_knob() {
    let _g = lock();
    let root = scratch("env");
    std::env::set_var(ffet_core::STAGE_CACHE_ENV, &root);
    let fig8 = experiments::find("fig8").expect("fig8 is registered");
    let csv = |jobs| {
        fig8.run(DesignKind::CounterSmall, &Pool::new(jobs))
            .table
            .to_csv()
    };
    let cold_csv = csv(1);
    let warm1_csv = csv(1);
    let warm4_csv = csv(4);
    std::env::remove_var(ffet_core::STAGE_CACHE_ENV);
    assert_eq!(cold_csv, warm1_csv, "warm rerun at jobs=1 drifted");
    assert_eq!(cold_csv, warm4_csv, "warm rerun at jobs=4 drifted");
    let golden = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden/fig8_counter.csv");
    let want = std::fs::read_to_string(&golden).expect("checked-in golden fig8_counter.csv");
    assert_eq!(
        want, cold_csv,
        "cache-enabled run drifted from the checked-in golden"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn poisoned_blob_is_a_deterministic_miss_never_a_wrong_artifact() {
    let _g = lock();
    let root = scratch("poison");
    let config = base_config(&root);
    let library = config.build_library().expect("valid config");
    let netlist = designs::counter_pipeline(&library, 16);

    let first = run_flow(&netlist, &library, &config).expect("clean flow");
    // Corrupt every payload in place: the addresses (and the `.key` links
    // pointing at them) survive, but no body re-hashes to its name.
    let mut poisoned = 0;
    for entry in std::fs::read_dir(&root).expect("cache root exists") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "blob") {
            std::fs::write(&path, b"poisoned").expect("tamper blob");
            poisoned += 1;
        }
    }
    assert!(poisoned > 0, "clean flow left no blobs to poison");

    ffet_obs::cache_stats_reset();
    let second = run_flow(&netlist, &library, &config).expect("recomputed flow");
    assert_eq!(
        stat_total("hit"),
        0,
        "a poisoned blob must never count as a hit"
    );
    assert!(stat_total("miss") > 0, "poisoned lookups must be misses");
    // Byte-level equivalence of everything the flow hands downstream.
    assert_eq!(first.merged_def, second.merged_def);
    assert_eq!(first.signoff, second.signoff);
    assert_eq!(first.timing, second.timing);
    assert_eq!(first.parasitics, second.parasitics);
    assert_eq!(first.report, second.report);
    let _ = std::fs::remove_dir_all(&root);
}

/// The count of one `cache.<kind>.<stage>` counter.
fn stat(name: &str) -> u64 {
    let stats = ffet_obs::cache_stats();
    stats.iter().find(|(n, _)| n == name).map_or(0, |&(_, n)| n)
}

/// `payload` with the last digit of one wire coordinate flipped, if it is
/// a pnr or merge payload. The result still decodes.
fn flip_a_wire_digit(payload: &str) -> Option<(&'static str, String)> {
    fn flip(wires: &mut [ffet_lefdef::DefWire]) {
        // 2k <-> 2k + 1 changes the last decimal digit only.
        wires.first_mut().expect("a routed wire").from.x ^= 1;
    }
    if let Some(((netlist, mut pnr), data)) = stagecache::decode_pnr(payload) {
        let net = pnr.routing.nets.iter_mut().find(|n| !n.wires.is_empty());
        flip(&mut net.expect("a routed net").wires);
        return Some(("pnr", stagecache::encode_pnr(&(netlist, pnr), &data)));
    }
    let (mut def, data) = stagecache::decode_merge(payload)?;
    let net = def.nets.iter_mut().find(|n| !n.wires.is_empty());
    flip(&mut net.expect("a routed net").wires);
    Some(("merge", stagecache::encode_merge(&def, &data)))
}

#[test]
fn tampered_blob_that_still_decodes_is_a_miss() {
    let _g = lock();
    let root = scratch("tamper");
    let config = base_config(&root);
    let library = config.build_library().expect("valid config");
    let netlist = designs::counter_pipeline(&library, 16);

    let first = run_flow(&netlist, &library, &config).expect("clean flow");
    // Rewrite the pnr and merge blobs in place with one digit of a wire
    // coordinate flipped: each body still decodes, to another routing,
    // but no longer re-hashes to its name.
    let mut tampered = Vec::new();
    for entry in std::fs::read_dir(&root).expect("cache root exists") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_none_or(|e| e != "blob") {
            continue;
        }
        let body = std::fs::read_to_string(&path).expect("blob is UTF-8");
        if let Some((stage, flipped)) = flip_a_wire_digit(&body) {
            let changed = body.bytes().zip(flipped.bytes()).filter(|(a, b)| a != b);
            assert_eq!((flipped.len(), changed.count()), (body.len(), 1), "{stage}");
            std::fs::write(&path, flipped).expect("tamper blob");
            tampered.push(stage);
        }
    }
    tampered.sort_unstable();
    assert_eq!(tampered, ["merge", "pnr"]);

    ffet_obs::cache_stats_reset();
    let second = run_flow(&netlist, &library, &config).expect("recomputed flow");
    for stage in ["pnr", "merge"] {
        assert_eq!(stat(&format!("cache.hit.{stage}")), 0, "{stage} hit");
        assert_eq!(stat(&format!("cache.miss.{stage}")), 1, "{stage} miss");
    }
    for stage in ["synth", "signoff", "rcx", "sta"] {
        assert_eq!(stat(&format!("cache.hit.{stage}")), 1, "{stage} hit");
    }
    assert_eq!(first.pnr.routing.nets, second.pnr.routing.nets);
    assert_eq!(first.merged_def, second.merged_def);
    assert_eq!(first.signoff, second.signoff);
    assert_eq!(first.timing, second.timing);
    assert_eq!(first.parasitics, second.parasitics);
    assert_eq!(first.report, second.report);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn faulted_runs_never_touch_the_cache() {
    let _g = lock();
    let root = scratch("fault");
    let clean = base_config(&root);
    let library = clean.build_library().expect("valid config");
    let netlist = designs::counter_pipeline(&library, 24);
    run_flow(&netlist, &library, &clean).expect("clean flow primes the cache");
    let blobs_before = std::fs::read_dir(&root)
        .expect("cache root exists")
        .filter_map(Result::ok)
        .filter(|e| e.path().extension().is_some_and(|x| x == "blob"))
        .count();
    assert!(blobs_before > 0, "priming run stored nothing");

    // A signoff-failing fault (drc.open), injected with the cache root still set:
    // the fault plan must force the cache off for the whole attempt.
    let mut faulted = clean.clone();
    faulted.fault_plan = FaultPlan {
        faults: vec![Fault::always(FaultKind::RouteOpen)],
        ..FaultPlan::default()
    };
    ffet_obs::cache_stats_reset();
    let result = run_flow(&netlist, &library, &faulted);
    assert!(result.is_err(), "route-open must fail signoff");
    assert_eq!(
        ffet_obs::cache_stats(),
        Vec::new(),
        "a faulted run must neither hit, miss, nor store"
    );
    let blobs_after = std::fs::read_dir(&root)
        .expect("cache root exists")
        .filter_map(Result::ok)
        .filter(|e| e.path().extension().is_some_and(|x| x == "blob"))
        .count();
    assert_eq!(
        blobs_before, blobs_after,
        "a faulted run must not pollute the cache"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// The `(stage, blob address, bytes)` list one RV32 point stores, recorded
/// before the codec's scalar readers and writers were rewritten at the
/// byte level. The address is the FNV-1a hash of the payload, so an equal
/// address with an equal length pins every payload byte.
const RV32_PAYLOADS: [(&str, &str, u64); 6] = [
    ("merge", "3a0ff2e4a2102d1e", 3599984),
    ("pnr", "23e14b9f1c273b4a", 7607467),
    ("rcx", "c26150b121591c56", 973047),
    ("signoff", "e72e305577dd8bf6", 1739),
    ("sta", "edfb61c0145965ba", 2754),
    ("synth", "eaed018610e9ccc6", 664355),
];

/// One RV32 point through `run_flow` with a scratch stage cache must store
/// exactly the pinned payload bytes. Every `FlowConfig` field is set here,
/// so no `FFET_*` variable can reach the flow.
#[test]
fn rv32_stage_payloads_are_pinned() {
    let _g = lock();
    let root = scratch("rv32-pin");
    let config = FlowConfig {
        tech: TechKind::Ffet3p5t,
        pattern: RoutingPattern::new(12, 12).expect("static"),
        back_pin_ratio: 0.5,
        utilization: 0.625,
        aspect_ratio: 1.0,
        target_freq_ghz: 1.5,
        activity: 0.15,
        seed: 42,
        bridging_min_nm: None,
        extra_reroute_rounds: 0,
        max_attempts: 1,
        route_jobs: 1,
        deadline_ms: None,
        fault_plan: FaultPlan::default(),
        stage_cache: Some(root.clone()),
    };
    let library = config.build_library().expect("valid config");
    let netlist = designs::rv32_core(&library);
    run_flow(&netlist, &library, &config).expect("RV32 point closes");

    let mut stored = Vec::new();
    for entry in std::fs::read_dir(&root).expect("cache root exists") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_none_or(|e| e != "blob") {
            continue;
        }
        let body = std::fs::read_to_string(&path).expect("blob is UTF-8");
        // Every payload opens with `1 <len>:<stage> `.
        let tag = body.split(' ').nth(1).expect("stage tag");
        let stage = tag.split_once(':').expect("length-prefixed tag").1;
        let addr = path.file_stem().and_then(|s| s.to_str()).expect("address");
        stored.push((stage.to_owned(), addr.to_owned(), body.len() as u64));
    }
    stored.sort();
    let want: Vec<_> = RV32_PAYLOADS
        .iter()
        .map(|&(stage, addr, bytes)| (stage.to_owned(), addr.to_owned(), bytes))
        .collect();
    assert_eq!(stored, want, "RV32 stage payload bytes drifted");
    let _ = std::fs::remove_dir_all(&root);
}
