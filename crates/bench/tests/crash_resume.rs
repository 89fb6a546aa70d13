//! Kill-and-rerun differential tests for the crash-safe sweep driver.
//!
//! Resuming a sweep is rerunning the same command against the same warm
//! stage cache (DESIGN §12). Each test spawns the real `repro` binary in a
//! scratch directory, kills it mid-sweep (SIGKILL — no cleanup handlers
//! run) or damages its stage-cache store on disk, reruns the command, and
//! asserts the final artifacts are byte-identical to an uninterrupted run:
//! every experiment CSV, `trace.jsonl`, and `metrics.json` modulo the
//! `timing` key. `runlog.csv` carries wall-clock telemetry and is outside
//! the contract (DESIGN §7, §12). Every rerun must also report stage-cache
//! hits, so a rerun that silently recomputes everything fails.

use ffet_core::experiments::EXPERIMENTS;
use ffet_core::stagecache;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const REPRO: &str = env!("CARGO_BIN_EXE_repro");

/// The stage-cache root `repro` uses by default, relative to its cwd.
const OBJECTS: &str = "results/ckpt/objects";

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ffet-crash-resume-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// A fault-free `repro` invocation on the fast counter design, isolated in
/// `dir` with the stage cache at its default root.
fn repro(dir: &Path, args: &[&str]) -> Command {
    let mut cmd = Command::new(REPRO);
    cmd.current_dir(dir)
        .args(args)
        .env("FFET_DESIGN", "counter")
        .env_remove("FFET_FAULTS")
        .env_remove("FFET_MAX_ATTEMPTS")
        .env_remove("FFET_DEADLINE")
        .env_remove("FFET_JOBS")
        .env_remove("FFET_ROUTE_JOBS")
        .env_remove("FFET_STAGE_CACHE")
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    cmd
}

fn run_ok(mut cmd: Command, what: &str) {
    let status = cmd
        .status()
        .unwrap_or_else(|e| panic!("{what}: spawn failed: {e}"));
    assert!(status.success(), "{what}: exited with {status}");
}

/// Counts finished experiments: the CSVs `repro` publishes (atomically)
/// under `results/` as each experiment completes. `runlog.csv` is written
/// once at the end of the sweep and does not count.
fn finished_experiments(dir: &Path) -> usize {
    std::fs::read_dir(dir.join("results")).map_or(0, |entries| {
        entries
            .filter_map(Result::ok)
            .filter(|e| {
                let name = e.file_name();
                let name = name.to_string_lossy();
                name.ends_with(".csv") && name != "runlog.csv"
            })
            .count()
    })
}

/// Every artifact under the byte-identity contract: the experiment CSVs.
/// `runlog.csv` (wall clock) is excluded; `metrics.json` and
/// `trace.jsonl` are checked separately (timing data is outside §7).
fn contract_artifacts(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    let results = dir.join("results");
    for entry in std::fs::read_dir(&results).expect("read results dir") {
        let entry = entry.expect("dir entry");
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.ends_with(".csv") && name != "runlog.csv" {
            out.insert(name, std::fs::read(entry.path()).expect("read artifact"));
        }
    }
    out
}

fn assert_bytes_identical(reference: &Path, resumed: &Path, what: &str) {
    let want = contract_artifacts(reference);
    let got = contract_artifacts(resumed);
    assert_eq!(
        want.keys().collect::<Vec<_>>(),
        got.keys().collect::<Vec<_>>(),
        "{what}: artifact sets differ"
    );
    for (name, bytes) in &want {
        assert_eq!(
            bytes, &got[name],
            "{what}: results/{name} diverged from the uninterrupted run"
        );
    }
    // Metric values are deterministic; only the top-level `timing` key may
    // differ between runs.
    let strip = |dir: &Path| {
        let text =
            std::fs::read_to_string(dir.join("results/metrics.json")).expect("read metrics.json");
        ffet_obs::strip_timing(&text).expect("valid metrics.json")
    };
    assert_eq!(strip(reference), strip(resumed), "{what}: metrics diverged");
    // Span lines carry wall-clock timings, so a recomputed experiment's
    // trace bytes legitimately differ from a separate reference run's.
    // The structural comparator (`ffet_obs::trace::diff`) checks exactly
    // the deterministic part: point order, span trees, metric snapshots.
    let trace = |dir: &Path| {
        let text =
            std::fs::read_to_string(dir.join("results/trace.jsonl")).expect("read trace.jsonl");
        ffet_obs::validate_trace(&text).expect("trace schema is valid");
        text
    };
    let diffs = ffet_obs::trace::diff::diff_traces(&trace(reference), &trace(resumed))
        .expect("traces parse");
    assert!(
        diffs.is_empty(),
        "{what}: traces structurally diverged:\n{}",
        diffs.join("\n")
    );
}

/// The rerun replayed finished stages: `metrics.json`'s `timing.cache`
/// section has at least one nonzero `cache.hit.<stage>` count.
fn assert_cache_hits(dir: &Path, what: &str) {
    let text =
        std::fs::read_to_string(dir.join("results/metrics.json")).expect("read metrics.json");
    let json = ffet_obs::parse_json(&text).expect("valid metrics.json");
    let hits: i64 = match json.get("timing").and_then(|t| t.get("cache")) {
        Some(ffet_obs::Json::Obj(pairs)) => pairs
            .iter()
            .filter(|(k, _)| k.starts_with("cache.hit."))
            .filter_map(|(_, v)| v.as_i64())
            .sum(),
        _ => 0,
    };
    assert!(hits > 0, "{what}: the rerun reported no stage-cache hits");
}

/// Runs `repro --jobs <kill_jobs> all`, SIGKILLs it once a few experiments
/// have finished, then reruns the same sweep with `--jobs <resume_jobs>`.
fn kill_and_resume(tag: &str, kill_jobs: &str, resume_jobs: &str) {
    let reference = scratch(&format!("{tag}-ref"));
    run_ok(
        repro(&reference, &["--jobs", "4", "all"]),
        "uninterrupted reference run",
    );
    assert_eq!(finished_experiments(&reference), EXPERIMENTS.len());

    let victim = scratch(&format!("{tag}-victim"));
    let mut child = repro(&victim, &["--jobs", kill_jobs, "all"])
        .spawn()
        .expect("spawn victim run");
    // Kill after the analytic tables and the first flow experiment have
    // finished but (on any plausible machine) well before the sweep does.
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        if finished_experiments(&victim) >= 4 || child.try_wait().expect("try_wait").is_some() {
            break;
        }
        assert!(Instant::now() < deadline, "victim finished no experiments");
        std::thread::sleep(Duration::from_millis(5));
    }
    let killed_mid_sweep = child.try_wait().expect("try_wait").is_none();
    child.kill().expect("SIGKILL victim");
    let _ = child.wait();
    assert!(
        killed_mid_sweep,
        "sweep finished before the kill; lower the experiment threshold"
    );
    assert!(finished_experiments(&victim) >= 4, "kill raced the sweep");

    run_ok(
        repro(&victim, &["--jobs", resume_jobs, "all"]),
        "rerun after the kill",
    );
    assert_eq!(finished_experiments(&victim), EXPERIMENTS.len());
    assert_bytes_identical(&reference, &victim, tag);
    assert_cache_hits(&victim, tag);

    let _ = std::fs::remove_dir_all(&reference);
    let _ = std::fs::remove_dir_all(&victim);
}

#[test]
fn kill_and_resume_is_byte_identical_across_widths() {
    // Kill a wide run, rerun narrow: also proves stages cached under
    // FFET_JOBS=4 replay under FFET_JOBS=1.
    kill_and_resume("wide-narrow", "4", "1");
}

/// The mirror-image width pairing; CI runs it via `--include-ignored`.
#[test]
#[ignore = "slow second kill-resume cycle; CI runs it with --include-ignored"]
fn kill_and_resume_narrow_to_wide() {
    kill_and_resume("narrow-wide", "1", "4");
}

/// The sorted file names in `dir` ending in `suffix`.
fn names_ending(dir: &Path, suffix: &str) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("read objects dir")
        .filter_map(Result::ok)
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(suffix))
        .collect();
    names.sort();
    names
}

/// Damage to the stage-cache store — a truncated blob, a garbage key
/// link, an orphan `*.tmp` from a killed writer — costs recompute time,
/// never correctness. A fault plan cannot reach the store (any plan turns
/// the cache off), so the test damages the files on disk itself.
#[test]
fn damaged_store_reruns_to_identical_artifacts() {
    let reference = scratch("store-ref");
    run_ok(
        repro(&reference, &["--jobs", "2", "fig11"]),
        "reference fig11",
    );

    let victim = scratch("store-victim");
    run_ok(repro(&victim, &["--jobs", "2", "fig11"]), "cold fig11");
    let objects = victim.join(OBJECTS);
    let blob = names_ending(&objects, ".blob")
        .into_iter()
        .next()
        .expect("the cold run stored blobs");
    let bytes = std::fs::read(objects.join(&blob)).expect("read blob");
    std::fs::write(objects.join(&blob), &bytes[..bytes.len() / 2]).expect("truncate blob");
    let key = names_ending(&objects, ".key")
        .into_iter()
        .next()
        .expect("the cold run stored key links");
    std::fs::write(objects.join(&key), "not an address").expect("garble key");
    let tmp = objects.join("0123456789abcdef.blob.4242-0.tmp");
    std::fs::write(&tmp, "half a payload").expect("write orphan tmp");

    let addr = blob.trim_end_matches(".blob").to_owned();
    let damage = stagecache::verify(&objects).expect("verify damaged store");
    assert_eq!(
        damage.corrupt,
        vec![addr],
        "verify missed the truncated blob"
    );
    assert!(damage.dangling >= 1, "verify missed the garbage key");
    let stats = stagecache::stats(&objects).expect("stats of damaged store");
    assert_eq!(stats.tmp_orphans, 1, "stats missed the orphan tmp");

    run_ok(
        repro(&victim, &["--jobs", "2", "fig11"]),
        "rerun over the damaged store",
    );
    assert_bytes_identical(&reference, &victim, "damaged store");
    assert_cache_hits(&victim, "damaged store");

    let gc = stagecache::gc(&objects).expect("gc damaged store");
    assert!(gc.removed_blobs >= 1, "gc kept the truncated blob: {gc:?}");
    assert_eq!(gc.removed_tmp, 1, "gc kept the orphan tmp: {gc:?}");
    assert!(!objects.join(&blob).exists(), "truncated blob survived gc");
    assert!(!tmp.exists(), "orphan tmp survived gc");
    let clean = stagecache::verify(&objects).expect("verify after gc");
    assert!(clean.corrupt.is_empty() && clean.dangling == 0, "{clean:?}");

    let _ = std::fs::remove_dir_all(&reference);
    let _ = std::fs::remove_dir_all(&victim);
}

/// A key link that is complete on disk but names no valid address is a
/// miss: the rerun recomputes that stage, lands identical artifacts, and
/// rewrites the link to its original content address — no `gc` needed.
#[test]
fn stale_key_links_are_discarded_on_rerun() {
    let reference = scratch("link-ref");
    run_ok(
        repro(&reference, &["--jobs", "2", "fig11"]),
        "reference fig11",
    );

    let victim = scratch("link-victim");
    run_ok(repro(&victim, &["--jobs", "2", "fig11"]), "cold fig11");
    let objects = victim.join(OBJECTS);
    let links = names_ending(&objects, ".key");
    let key = links.first().expect("the cold run stored key links");
    let addr = std::fs::read_to_string(objects.join(key)).expect("read key link");
    // Same length as an address, but not hex.
    std::fs::write(objects.join(key), "z".repeat(addr.len())).expect("garble key");
    let damage = stagecache::verify(&objects).expect("verify damaged store");
    assert!(damage.corrupt.is_empty(), "no blob was touched: {damage:?}");
    assert_eq!(damage.dangling, 1, "verify missed the stale key link");

    run_ok(
        repro(&victim, &["--jobs", "2", "fig11"]),
        "rerun over the stale key link",
    );
    assert_bytes_identical(&reference, &victim, "stale key link");
    assert_cache_hits(&victim, "stale key link");

    // The recomputed stage stored the same bytes, so its link names the
    // same address again and the store verifies clean.
    assert_eq!(
        std::fs::read_to_string(objects.join(key)).expect("reread key link"),
        addr,
        "the rerun did not rewrite the stale link to its original address"
    );
    assert_eq!(names_ending(&objects, ".key"), links, "link set changed");
    let clean = stagecache::verify(&objects).expect("verify after rerun");
    assert!(clean.corrupt.is_empty() && clean.dangling == 0, "{clean:?}");

    let _ = std::fs::remove_dir_all(&reference);
    let _ = std::fs::remove_dir_all(&victim);
}
