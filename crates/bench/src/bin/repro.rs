//! Regenerates the paper's tables and figures.
//!
//! ```text
//! repro [--jobs N] [--route-jobs N] [--design counter|rv32] [--max-attempts N]
//!       [--deadline SECS] [--no-cache] <experiment>
//!                      # any name in ffet_core::experiments::EXPERIMENTS
//! repro all            # every registered experiment, in registry order
//! repro sanity         # one FFET + one CFET baseline run, printed verbosely
//! repro trace [point]  # render one point of results/trace.jsonl (or list points)
//! ```
//!
//! Flow experiments run on the parallel DoE engine; `--jobs` (or the
//! `FFET_JOBS` env var) sets the worker count, defaulting to the machine's
//! available parallelism. `--route-jobs` (or `FFET_ROUTE_JOBS`) sets the
//! *intra-point* worker count of the router's batched rip-up rounds,
//! defaulting to the DoE pool width. Tables and CSVs are byte-identical for
//! every combination of both worker counts; per-job telemetry lands in
//! `results/runlog.csv`, and every
//! flow point's spans + metrics land in `results/trace.jsonl` and
//! `results/metrics.json` (schema in DESIGN.md §9). `--design counter`
//! (or `FFET_DESIGN=counter`) switches the flow experiments to the fast
//! CounterSmall smoke design.
//!
//! Every flow point runs through the staged recovery ladder of
//! [`ffet_core::run_flow_resilient`]; `--max-attempts` (or the
//! `FFET_MAX_ATTEMPTS` env var) bounds the attempts per point, and the
//! `FFET_FAULTS` env var injects deterministic faults (see DESIGN.md §8).
//! `--deadline SECS` (or `FFET_DEADLINE`) arms a cooperative per-attempt
//! watchdog whose expiry lands a `timeout(stage)` disposition.
//!
//! Flow stages are memoized through the content-addressed stage cache
//! (`results/ckpt/objects/`, DESIGN §14): a warm rerun replays unchanged
//! stages byte-identically instead of recomputing them. The cache defaults
//! ON for this driver; `--no-cache` (or `FFET_STAGE_CACHE=0`) disables it,
//! and `FFET_STAGE_CACHE=<dir>` redirects it. Hit/miss/store counters land
//! under the `timing.cache` key of `results/metrics.json` and as
//! `cache_hit_rate_<stage>` pairs in the ledger's `timing.stages`.
//!
//! Every artifact is written atomically (tmp + rename), so a sweep killed
//! at any point is resumed by rerunning the same command: the stage cache
//! replays every stage that finished and the rest recompute, producing
//! artifacts byte-identical (modulo the `timing` key) to an uninterrupted
//! run — see DESIGN.md §12. Faulted sweeps and `--no-cache` runs bypass
//! the cache and so recompute in full.
//!
//! Every sweep invocation additionally appends one checksummed record to
//! the cross-run performance ledger (`results/ledger/ledger.jsonl`): the
//! timing-stripped metric snapshot and its digest, plus pool widths and
//! wall/stage times under a `timing` key. The `ffet` binary's
//! `perf compare`/`perf report` subcommands consume it — see DESIGN.md §13.

// The repro binary is the user-facing CLI: stdout/stderr are its output
// channel. Library crates must go through ffet-obs instead.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use ffet_core::ckpt;
use ffet_core::experiments::{self, DesignKind, ExpTable, Experiment};
use ffet_core::runner::{Pool, RunLog};
use ffet_obs::RunArtifacts;
use std::env;
use std::path::Path;
use std::time::Instant;

/// Prints the table and drops its CSV into `results/` for plotting.
/// A failed write is a hard error: silently missing CSVs corrupt every
/// downstream plotting script.
fn emit(name: &str, table: &ExpTable) -> std::io::Result<()> {
    print!("{}", table.render());
    let path = format!("results/{name}.csv");
    ckpt::atomic_write(Path::new(&path), table.to_csv().as_bytes())?;
    eprintln!("wrote {path}");
    Ok(())
}

fn usage() -> ! {
    let names: Vec<&str> = experiments::EXPERIMENTS.iter().map(|e| e.name).collect();
    eprintln!(
        "usage: repro [--jobs N] [--route-jobs N] [--design counter|rv32] [--max-attempts N] \
         [--deadline SECS] [--no-cache] <sanity|calib|hotspots|critpath|{}|all>\n\
         \x20      repro trace [point]   # render one point of results/trace.jsonl",
        names.join("|")
    );
    std::process::exit(2);
}

/// Writes one artifact file under `results/` atomically (tmp + rename),
/// creating the directory first.
fn write_artifact(path: &str, body: &str, failed: &mut bool) {
    match ckpt::atomic_write(Path::new(path), body.as_bytes()) {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => {
            eprintln!("error: could not write {path}: {e}");
            *failed = true;
        }
    }
}

/// One performance-ledger record for this invocation (DESIGN §13):
/// deterministic metric snapshot + digest outside `timing`, pool widths
/// and wall/stage times inside it. Appended for every sweep run so
/// `results/ledger/ledger.jsonl` accumulates the cross-run trajectory
/// that `ffet perf compare`/`report` consume.
fn ledger_entry(
    arg: &str,
    design: DesignKind,
    cfg: &str,
    pool: &Pool,
    log: &RunLog,
    artifacts: &RunArtifacts,
) -> ffet_obs::LedgerEntry {
    let metrics_body = artifacts.metrics_json();
    let digest = match ffet_obs::strip_timing(&metrics_body) {
        Ok(stripped) => ffet_obs::hash_hex(ffet_obs::fnv1a64(stripped.as_bytes())),
        Err(e) => {
            eprintln!("warning: could not strip timing for ledger digest: {e}");
            String::new()
        }
    };
    let mut entry = ffet_obs::LedgerEntry::from_metrics(
        "repro",
        arg,
        &format!("{design:?}"),
        cfg,
        &digest,
        &artifacts.merged_metrics(),
    );
    entry.timing.jobs = pool.width() as i64;
    entry.timing.route_jobs = env::var(ffet_core::ROUTE_JOBS_ENV)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(pool.width() as i64);
    entry.timing.host_cores = std::thread::available_parallelism().map_or(1, |n| n.get() as i64);
    entry.timing.wall_ms = artifacts.wall_ms;
    // Aggregate per-stage wall time across every flow point that reported
    // stage telemetry.
    let mut stages: [(&str, f64); 6] = [
        ("synth_ms", 0.0),
        ("pnr_ms", 0.0),
        ("merge_ms", 0.0),
        ("signoff_ms", 0.0),
        ("rcx_ms", 0.0),
        ("sta_ms", 0.0),
    ];
    for row in &log.rows {
        if let Some(s) = &row.stages {
            for (name, total) in &mut stages {
                *total += match *name {
                    "synth_ms" => s.synth_ms,
                    "pnr_ms" => s.pnr_ms,
                    "merge_ms" => s.merge_ms,
                    "signoff_ms" => s.signoff_ms,
                    "rcx_ms" => s.rcx_ms,
                    _ => s.sta_ms,
                };
            }
        }
    }
    entry.timing.stages = stages
        .iter()
        .filter(|(_, total)| *total > 0.0)
        .map(|&(name, total)| (name.to_owned(), total))
        .collect();
    // Per-stage cache hit-rates ride as named pairs inside `timing.stages`
    // (schema-compatible). Hit/miss counts are scheduling-dependent —
    // racing identical-prefix points may both miss — so they belong with
    // the timings, not the deterministic snapshot (DESIGN §14).
    let count = |kind: &str, stage: &str| -> u64 {
        let key = format!("cache.{kind}.{stage}");
        artifacts
            .cache
            .iter()
            .find(|(k, _)| *k == key)
            .map_or(0, |&(_, v)| v)
    };
    let (mut total_hits, mut total_misses) = (0u64, 0u64);
    #[allow(clippy::cast_precision_loss)]
    for stage in ["synth", "pnr", "merge", "signoff", "rcx", "sta"] {
        let (hits, misses) = (count("hit", stage), count("miss", stage));
        total_hits += hits;
        total_misses += misses;
        if hits + misses > 0 {
            let rate = hits as f64 / (hits + misses) as f64;
            entry
                .timing
                .stages
                .push((format!("cache_hit_rate_{stage}"), rate));
        }
    }
    if total_hits + total_misses > 0 {
        #[allow(clippy::cast_precision_loss)]
        let rate = total_hits as f64 / (total_hits + total_misses) as f64;
        entry
            .timing
            .stages
            .push(("cache_hit_rate".to_owned(), rate));
    }
    entry
}

/// `repro trace [point]`: renders one point of `results/trace.jsonl` as a
/// per-stage summary (span tree + hottest spans + metrics), or lists the
/// available point labels. `point` may be an exact label or any unique
/// substring of one.
fn trace_cmd(query: Option<&str>) -> i32 {
    let path = "results/trace.jsonl";
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e} (run a flow experiment first)");
            return 1;
        }
    };
    let labels = ffet_obs::point_labels(&text);
    let Some(query) = query else {
        println!("{} point(s) in {path}:", labels.len());
        for label in &labels {
            println!("  {label}");
        }
        return 0;
    };
    let resolved = if labels.iter().any(|l| l == query) {
        query.to_owned()
    } else {
        let matches: Vec<&String> = labels.iter().filter(|l| l.contains(query)).collect();
        match matches.as_slice() {
            [one] => (*one).clone(),
            [] => {
                eprintln!("error: no point matching {query:?}; available points:");
                for label in &labels {
                    eprintln!("  {label}");
                }
                return 1;
            }
            many => {
                eprintln!("error: {query:?} is ambiguous; it matches:");
                for label in many {
                    eprintln!("  {label}");
                }
                return 1;
            }
        }
    };
    match ffet_obs::parse_point(&text, &resolved) {
        Ok(data) => {
            print!(
                "{}",
                ffet_obs::render_point(&resolved, &data.events, &data.metrics)
            );
            0
        }
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}

fn main() {
    let mut jobs: Option<usize> = None;
    let mut no_cache = false;
    let mut design = match env::var("FFET_DESIGN").as_deref() {
        Ok("counter") => DesignKind::CounterSmall,
        _ => DesignKind::Rv32,
    };
    let mut positional: Vec<String> = Vec::new();
    let mut args = env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--jobs" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => jobs = Some(n),
                _ => usage(),
            },
            "--design" => match args.next().as_deref() {
                Some("counter") => design = DesignKind::CounterSmall,
                Some("rv32") => design = DesignKind::Rv32,
                _ => usage(),
            },
            // Configs are built from the environment deep inside the
            // experiment runners, so the flag travels as the env var it
            // aliases.
            "--max-attempts" => match args.next().and_then(|v| v.parse::<u32>().ok()) {
                Some(n) if n >= 1 => env::set_var(ffet_core::MAX_ATTEMPTS_ENV, n.to_string()),
                _ => usage(),
            },
            "--route-jobs" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n >= 1 => env::set_var(ffet_core::ROUTE_JOBS_ENV, n.to_string()),
                _ => usage(),
            },
            "--deadline" => match args.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(s) if s.is_finite() && s > 0.0 => {
                    env::set_var(ffet_core::DEADLINE_ENV, s.to_string());
                }
                _ => usage(),
            },
            "--no-cache" => no_cache = true,
            name if !name.starts_with('-') => positional.push(name.to_owned()),
            _ => usage(),
        }
    }
    // The stage cache (DESIGN §14) defaults ON for this driver. Configs
    // read the env deep inside the experiment runners, so the knob travels
    // as the env var it aliases — set here while still single-threaded.
    if no_cache {
        env::set_var(ffet_core::STAGE_CACHE_ENV, "0");
    } else if env::var(ffet_core::STAGE_CACHE_ENV).is_err() {
        env::set_var(ffet_core::STAGE_CACHE_ENV, "1");
    }
    let arg = positional.first().cloned().unwrap_or_else(|| "help".into());
    if arg == "trace" {
        std::process::exit(trace_cmd(positional.get(1).map(String::as_str)));
    }
    if positional.len() > 1 {
        usage();
    }
    let pool = jobs.map_or_else(Pool::from_env, Pool::new);

    let t0 = Instant::now();
    let mut log = RunLog::new(pool.width());
    let mut artifacts = RunArtifacts::new(pool.width());
    let mut failed = false;
    let mut run_and_emit = |exp: &Experiment| {
        let t = Instant::now();
        let name = exp.name;
        let run = exp.run(design, &pool);
        if let Err(e) = emit(name, &run.table) {
            eprintln!("error: could not write results/{name}.csv: {e}");
            failed = true;
        }
        artifacts.extend(run.traces);
        log.record_experiment(name, run.runlog, t.elapsed());
        eprintln!("[{name}: {:?}, {}]", t.elapsed(), log.summary(name));
    };
    match arg.as_str() {
        "sanity" => sanity(),
        "calib" => calib(),
        "hotspots" => hotspots(),
        "critpath" => critpath(),
        "all" => experiments::EXPERIMENTS.iter().for_each(&mut run_and_emit),
        name => run_and_emit(experiments::find(name).unwrap_or_else(|| usage())),
    }
    // Stage-cache hit/miss/store counts are process-global and depend on
    // prior disk state, so they ride in the stripped `timing` section of
    // metrics.json rather than the deterministic metric plane (DESIGN §14).
    artifacts.cache = ffet_obs::cache_stats();
    if !log.rows.is_empty() {
        write_artifact("results/runlog.csv", &log.to_csv(), &mut failed);
    }
    if !artifacts.is_empty() {
        artifacts.wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        write_artifact("results/trace.jsonl", &artifacts.trace_jsonl(), &mut failed);
        write_artifact(
            "results/metrics.json",
            &artifacts.metrics_json(),
            &mut failed,
        );
    }
    // Every sweep invocation appends one record to the cross-run ledger
    // (DESIGN §13); `sanity`/`calib` and the other diagnostics do not. A
    // ledger failure degrades observability, not the run.
    if arg == "all" || experiments::find(&arg).is_some() {
        artifacts.wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        let cfg = ckpt::config_signature(design);
        let entry = ledger_entry(&arg, design, &cfg, &pool, &log, &artifacts);
        let path = Path::new(ffet_obs::ledger::LEDGER_PATH);
        match ffet_obs::Ledger::append(path, &entry) {
            Ok(()) => eprintln!("appended ledger entry to {}", path.display()),
            Err(e) => eprintln!("warning: could not append to {}: {e}", path.display()),
        }
    }
    eprintln!("[{:?}] done", t0.elapsed());
    if failed {
        std::process::exit(1);
    }
}

fn calib() {
    use ffet_core::{designs, run_flow, FlowConfig};
    use ffet_tech::{RoutingPattern, TechKind};
    let configs = [
        ("CFET-FM12", FlowConfig::baseline(TechKind::Cfet4t)),
        ("FFET-FM12", FlowConfig::baseline(TechKind::Ffet3p5t)),
        (
            "FFET-12+12",
            FlowConfig {
                pattern: RoutingPattern::new(12, 12).expect("static"),
                back_pin_ratio: 0.5,
                ..FlowConfig::baseline(TechKind::Ffet3p5t)
            },
        ),
    ];
    println!("config      util  drv(route+place)  overflow  peak  wl_mm  freq  power");
    for (label, base) in configs {
        let library = base.build_library().expect("valid config");
        let netlist = designs::rv32_core(&library);
        for util in [0.60, 0.68, 0.72, 0.76, 0.80, 0.84, 0.88, 0.92] {
            let mut rows: Vec<(u32, u32, f64, f64, f64, f64, f64)> = Vec::new();
            for seed in [42u64, 1042, 9042] {
                let config = FlowConfig {
                    utilization: util,
                    seed,
                    ..base.clone()
                };
                match run_flow(&netlist, &library, &config) {
                    Ok(o) => rows.push((
                        o.pnr.routing.drv_count,
                        o.pnr.placement.violations,
                        o.pnr.routing.overflow_tracks,
                        o.pnr.routing.peak_congestion,
                        o.report.wirelength_mm,
                        o.report.achieved_freq_ghz,
                        o.report.power_mw,
                    )),
                    Err(e) => println!("{label:11} {util:.2}  ERROR {e}"),
                }
            }
            if rows.is_empty() {
                continue;
            }
            rows.sort_by_key(|r| r.0 + r.1);
            let m = rows[0];
            println!(
                "{label:11} {util:.2}  {:5}+{:<5}       {:8.1}  {:.2}  {:5.2}  {:.3}  {:.3}   (all drv: {:?})",
                m.0, m.1, m.2, m.3, m.4, m.5, m.6,
                rows.iter().map(|r| r.0 + r.1).collect::<Vec<_>>(),
            );
        }
    }
}

fn sanity() {
    use ffet_core::{designs, run_flow_resilient, FlowConfig, PointDisposition};
    use ffet_tech::{RoutingPattern, TechKind};

    let (mut clean, mut recovered, mut failed, mut extra) = (0u32, 0u32, 0u32, 0u32);
    for (label, config) in [
        ("CFET FM12 baseline", FlowConfig::baseline(TechKind::Cfet4t)),
        (
            "FFET FM12 single-sided",
            FlowConfig::baseline(TechKind::Ffet3p5t),
        ),
        (
            "FFET FM12BM12 FP0.5BP0.5",
            FlowConfig {
                pattern: RoutingPattern::new(12, 12).expect("static"),
                back_pin_ratio: 0.5,
                ..FlowConfig::baseline(TechKind::Ffet3p5t)
            },
        ),
    ] {
        let t = Instant::now();
        let library = config.build_library().expect("valid config");
        let netlist = designs::rv32_core(&library);
        let r = run_flow_resilient(&netlist, &library, &config);
        match r.recovery.disposition {
            PointDisposition::Clean => clean += 1,
            PointDisposition::Recovered(_) => recovered += 1,
            PointDisposition::Failed(_) => failed += 1,
        }
        extra += r.recovery.disposition.extra_attempts();
        match r.outcome {
            Ok(outcome) => {
                println!(
                    "{label}: {} [{}]",
                    outcome.report.summary(),
                    r.recovery.disposition.to_cell()
                );
                println!(
                    "  wl {:.3} mm (back {:.3}), hpwl {:.3} mm, peak cong {:.2}, vias {}, cells {}, [{:?}]",
                    outcome.report.wirelength_mm,
                    outcome.report.back_wirelength_mm,
                    outcome.pnr.placement.hpwl_nm as f64 / 1e6,
                    outcome.pnr.routing.peak_congestion,
                    outcome.report.vias,
                    outcome.report.cells,
                    t.elapsed()
                );
                for line in outcome.signoff.text_table().lines() {
                    println!("  {line}");
                }
            }
            Err(e) => println!(
                "{label}: ERROR after {} attempt(s): {e}",
                r.recovery.attempts
            ),
        }
    }
    println!(
        "recovery: {clean} clean, {recovered} recovered, {failed} failed, {extra} extra attempts"
    );
}

#[allow(dead_code)]
fn hotspots() {
    use ffet_core::{designs, run_flow, FlowConfig};
    use ffet_tech::{RoutingPattern, TechKind};
    // Configurable via env for congestion debugging.
    let fm: u8 = std::env::var("FFET_FM")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(12)
        .clamp(1, 12);
    let bm: u8 = std::env::var("FFET_BM")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
        .min(12);
    let bp: f64 = std::env::var("FFET_BP")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0);
    let util: f64 = std::env::var("FFET_UTIL")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.76);
    let config = FlowConfig {
        utilization: util,
        pattern: RoutingPattern::new(fm, bm).expect("legal"),
        back_pin_ratio: bp,
        ..FlowConfig::baseline(TechKind::Ffet3p5t)
    };
    let library = config.build_library().expect("valid config");
    let netlist = designs::rv32_core(&library);
    let o = run_flow(&netlist, &library, &config).expect("flow");
    let grid_info = &o.pnr.routing;
    println!(
        "die {:?} overflow {:.0} wl {:.2}mm",
        o.pnr.floorplan.die, grid_info.overflow_tracks, o.report.wirelength_mm
    );
    for (x, y, side, h, v) in &grid_info.hot_gcells {
        println!("gcell ({x},{y}) {side:?}: H {h:.1} V {v:.1}");
    }
}

fn critpath() {
    use ffet_core::{designs, run_flow, FlowConfig};
    use ffet_tech::TechKind;
    let config = FlowConfig {
        utilization: 0.76,
        ..FlowConfig::baseline(TechKind::Ffet3p5t)
    };
    let library = config.build_library().expect("valid config");
    let netlist = designs::rv32_core(&library);
    let o = run_flow(&netlist, &library, &config).expect("flow");
    println!(
        "achieved {:.3} GHz, critical path {:.1} ps over {} stages",
        o.report.achieved_freq_ghz,
        o.timing.critical_path_ps,
        o.timing.path.len()
    );
    let total_cell: f64 = o.timing.path.iter().map(|s| s.cell_delay_ps).sum();
    let total_wire: f64 = o.timing.path.iter().map(|s| s.wire_delay_ps).sum();
    println!("cell delay {total_cell:.1} ps, wire delay {total_wire:.1} ps");
    for s in o.timing.path.iter().rev().take(25) {
        println!(
            "  {:>9.1} ps  cell {:>7.1}  wire {:>7.1}  fo {:>3}  {:8} {}",
            s.arrival_ps, s.cell_delay_ps, s.wire_delay_ps, s.fanout, s.cell, s.net
        );
    }
}
