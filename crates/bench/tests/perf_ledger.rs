//! End-to-end acceptance tests for the cross-run performance ledger and
//! the `ffet` CLI (DESIGN §13).
//!
//! Each test spawns the real `repro` binary in a scratch directory so the
//! ledger under test is the one a user accumulates: consecutive sweep runs
//! at different pool widths must append entries whose timing-stripped
//! payloads are byte-identical, `ffet perf compare` must exit 0 between
//! them, and an injected fault plan (which perturbs the `recover.attempts`
//! counter and therefore the metric digest) must make it exit non-zero.
//! `ffet trace export` output must validate as Chrome trace-event JSON and
//! `ffet trace diff` must report identical points as identical.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

const REPRO: &str = env!("CARGO_BIN_EXE_repro");
const FFET: &str = env!("CARGO_BIN_EXE_ffet");

/// CWD-relative ledger path `repro` appends to (`ffet_obs::ledger::LEDGER_PATH`).
const LEDGER_REL: &str = "results/ledger/ledger.jsonl";

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ffet-perf-ledger-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// A `repro` invocation on the fast counter design, isolated in `dir`.
fn repro(dir: &Path, args: &[&str], faults: Option<&str>) -> Command {
    let mut cmd = Command::new(REPRO);
    cmd.current_dir(dir)
        .args(args)
        .env("FFET_DESIGN", "counter")
        .env_remove("FFET_FAULTS")
        .env_remove("FFET_MAX_ATTEMPTS")
        .env_remove("FFET_DEADLINE")
        .env_remove("FFET_JOBS")
        .env_remove("FFET_ROUTE_JOBS")
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    if let Some(f) = faults {
        cmd.env("FFET_FAULTS", f);
    }
    cmd
}

fn run_ok(mut cmd: Command, what: &str) {
    let status = cmd
        .status()
        .unwrap_or_else(|e| panic!("{what}: spawn failed: {e}"));
    assert!(status.success(), "{what}: exited with {status}");
}

/// Runs `ffet` with `dir` as CWD, capturing output; panics on spawn failure.
fn ffet(dir: &Path, args: &[&str]) -> Output {
    Command::new(FFET)
        .current_dir(dir)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("ffet {args:?}: spawn failed: {e}"))
}

fn exit_code(out: &Output) -> i32 {
    out.status.code().expect("ffet terminated by signal")
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// The full sentinel loop: two sweeps at different widths append
/// byte-identical (modulo timing) ledger entries and compare clean; a
/// third sweep under a fault plan drifts the counters and fails the
/// compare. `perf report` renders the trajectory of all three.
#[test]
fn ledger_width_invariance_and_fault_drift() {
    let dir = scratch("widths");
    run_ok(repro(&dir, &["--jobs", "1", "all"], None), "jobs=1 sweep");
    run_ok(repro(&dir, &["--jobs", "4", "all"], None), "jobs=4 sweep");

    let ledger = ffet_obs::Ledger::load(&dir.join(LEDGER_REL)).expect("load ledger");
    assert_eq!(ledger.torn + ledger.corrupt, 0, "ledger has invalid lines");
    assert_eq!(ledger.entries.len(), 2, "one entry per sweep invocation");
    let (a, b) = (&ledger.entries[0], &ledger.entries[1]);
    assert_eq!(a.timing.jobs, 1);
    assert_eq!(b.timing.jobs, 4);
    assert_eq!(
        a.cfg, b.cfg,
        "same env must hash to the same config signature"
    );
    // The determinism contract, at the ledger level: everything outside
    // `timing` is byte-identical across pool widths.
    assert_eq!(
        a.deterministic_body(),
        b.deterministic_body(),
        "timing-stripped ledger payloads diverged between FFET_JOBS=1 and 4"
    );
    assert!(!a.digest.is_empty());
    assert!(!a.counters.is_empty(), "sweep entries carry flow counters");

    // Width-only variation compares clean (counters strict, timings
    // report-only — wall clock legitimately differs between the runs).
    let clean = ffet(&dir, &["perf", "compare", "--timings-report-only"]);
    assert_eq!(
        exit_code(&clean),
        0,
        "clean compare failed:\n{}",
        stdout_of(&clean)
    );
    assert!(stdout_of(&clean).contains("0 hard"));

    // A fault plan changes the config signature AND the deterministic
    // counters (`recover.attempts` climbs on the retry), so the sentinel
    // must flag hard drift even in timings-report-only mode.
    run_ok(
        repro(&dir, &["--jobs", "1", "all"], Some("route-open@1")),
        "faulted sweep",
    );
    let drift = ffet(&dir, &["perf", "compare", "--timings-report-only"]);
    assert_eq!(
        exit_code(&drift),
        1,
        "fault-perturbed counters must hard-fail the compare:\n{}",
        stdout_of(&drift)
    );
    assert!(stdout_of(&drift).contains("FAIL:"));

    // The report renders deterministically and lands on disk.
    let report = ffet(&dir, &["perf", "report"]);
    assert_eq!(exit_code(&report), 0);
    let rendered =
        std::fs::read_to_string(dir.join("results/PERF_REPORT.md")).expect("perf report written");
    assert_eq!(rendered, stdout_of(&report));
    assert!(rendered.contains("## Trajectory"));

    let _ = std::fs::remove_dir_all(&dir);
}

/// `ffet trace export` emits valid Chrome trace-event JSON, and
/// `ffet trace diff` finds two independent runs of the same experiment
/// structurally identical (and exits non-zero for a missing point).
#[test]
fn trace_export_validates_and_diff_is_clean_across_runs() {
    let dir = scratch("trace-a");
    let other = scratch("trace-b");
    run_ok(repro(&dir, &["--jobs", "2", "fig11"], None), "fig11 run A");
    run_ok(
        repro(&other, &["--jobs", "2", "fig11"], None),
        "fig11 run B",
    );

    let trace_text =
        std::fs::read_to_string(dir.join("results/trace.jsonl")).expect("read trace.jsonl");
    let labels = ffet_obs::point_labels(&trace_text).expect("trace parses");
    let label = labels.first().expect("fig11 produced at least one point");

    // Export resolves the label, self-validates, and the bytes it prints
    // satisfy the Chrome trace-event schema independently.
    let export = ffet(&dir, &["trace", "export", label]);
    assert_eq!(
        exit_code(&export),
        0,
        "{}",
        String::from_utf8_lossy(&export.stderr)
    );
    let doc = stdout_of(&export);
    let stats = ffet_obs::validate_chrome_trace(&doc).expect("exported document validates");
    assert!(stats.complete_events > 0, "export carries span events");

    // `--out` writes the same document via the atomic-write path.
    let out_path = dir.join("point.trace.json");
    let export_file = ffet(
        &dir,
        &[
            "trace",
            "export",
            label,
            "--out",
            out_path.to_str().unwrap(),
        ],
    );
    assert_eq!(exit_code(&export_file), 0);
    assert_eq!(
        std::fs::read_to_string(&out_path).expect("read export"),
        doc
    );

    // Same point, two independent processes: structurally identical.
    let diff = ffet(
        &dir,
        &[
            "trace",
            "diff",
            label,
            "--against-trace",
            other.join("results/trace.jsonl").to_str().unwrap(),
        ],
    );
    assert_eq!(exit_code(&diff), 0, "{}", stdout_of(&diff));
    assert!(stdout_of(&diff).contains("structurally identical"));

    // An unresolvable point is a usage error, not a clean diff.
    let missing = ffet(&dir, &["trace", "diff", "no-such-point-label"]);
    assert_eq!(exit_code(&missing), 1);

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&other);
}

/// With nothing to compare, the sentinel distinguishes "no data" (exit 2)
/// from "drift" (exit 1) so CI can treat an empty ledger as a setup bug.
#[test]
fn compare_without_data_exits_two() {
    let dir = scratch("empty");
    let missing = ffet(&dir, &["perf", "compare"]);
    assert_eq!(exit_code(&missing), 2, "{}", stdout_of(&missing));

    // A single entry has no baseline: every group is noted, none checked.
    run_ok(repro(&dir, &["--jobs", "1", "fig11"], None), "lone fig11");
    let lone = ffet(&dir, &["perf", "compare"]);
    assert_eq!(exit_code(&lone), 2, "{}", stdout_of(&lone));
    assert!(stdout_of(&lone).contains("no baseline"));

    let _ = std::fs::remove_dir_all(&dir);
}
