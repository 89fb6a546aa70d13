//! `ffet-perfbench`: the repository benchmark. Three RV32 sweep workloads
//! drive the public DoE entry points (`experiments::utilization_sweep` on a
//! `runner::Pool`, which runs every point through `run_flow_resilient` and
//! `run_flow`) and print the end-to-end metrics; `--trace 1` instead
//! replays one representative point per workload layer by layer and prints
//! the per-layer metrics. See `perfbench/README.md`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload rv32_place --seed 1 --seconds 50 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {name: {value, unit}}}`.

mod layers;
mod sweep;
mod workload;

use ffet_core::runner::Pool;
use ffet_core::{run_flow_resilient, FlowConfig, StageCache};
use layers::{compose_point, Spans};
use std::process::ExitCode;
use std::time::Instant;
use sweep::{
    check_round, median, prime, quantile, run_round, Reference, Round, ScratchDir, Verdict,
    DEFAULT_SEED, REFERENCE_FILE, SEEDS_PER_UTIL,
};
use workload::{base_config, Draws, Workload, POOL_WIDTH, ROUTE_JOBS};

const USAGE: &str = "usage: ffet-perfbench --workload rv32_place|rv32_route|rv32_warm \
                     [--seed N] [--seconds S] [--trace 0|1] [--bless]";

/// The traced point's spans must account for its untraced wall time
/// within this share (stage-cache key derivation and report assembly are
/// the only unspanned work).
const COVERAGE_BOUND: f64 = 0.25;

/// A representative point shorter than this runs its untraced/traced pair
/// several times (at most [`MAX_PAIRS`]), so host noise averages out.
const PAIR_MIN_MS: f64 = 2000.0;
const MAX_PAIRS: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    bless: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::Place,
        seed: DEFAULT_SEED,
        seconds: 50.0,
        trace: false,
        bless: false,
    };
    let mut workload = None;
    while let Some(flag) = it.next() {
        if flag == "--bless" {
            args.bless = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(bad)?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    if args.bless && (args.trace || args.seed != DEFAULT_SEED) {
        return Err(format!(
            "--bless records untraced runs at --seed {DEFAULT_SEED} only"
        ));
    }
    Ok(args)
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// A finished run: the check verdict, the metrics, and context lines
/// printed ahead of the JSON result.
struct Output {
    verdict: Verdict,
    metrics: Vec<Metric>,
    notes: Vec<String>,
}

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Peak resident set of this process (`VmHWM`), MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb * 1024.0 / 1e6)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

fn context(args: &Args, back_pin_ratio: f64) -> String {
    format!(
        "workload={} seed={} back_pin_ratio={back_pin_ratio:.4} host_cores={} \
         pool_width={POOL_WIDTH} route_jobs={ROUTE_JOBS}",
        args.workload.name(),
        args.seed,
        host_cores(),
    )
}

/// The end-to-end run: set-up, then sweep rounds for `--seconds`.
fn untraced(args: &Args) -> Result<Output, String> {
    let mut blessed = args.bless.then(Reference::default);
    let reference = if args.bless {
        Reference::default()
    } else {
        Reference::for_seed(args.seed)
    };
    let m = sweep::measure(
        args.workload,
        args.seed,
        args.seconds,
        &reference,
        blessed.as_mut(),
    )?;
    if let Some(fresh) = blessed {
        // Keep the other workloads' entries.
        let mut merged = std::fs::read_to_string(REFERENCE_FILE)
            .map(|text| Reference::parse(&text))
            .unwrap_or_default();
        merged.extend(fresh);
        std::fs::write(REFERENCE_FILE, merged.render()).map_err(|e| e.to_string())?;
    }
    let points = m.points();
    let mut walls = m.point_walls_s();
    let samples = walls.len();
    // Point walls split into a fast and a slow cluster by which of the
    // host's two cores (and how contended) ran them, so the median jumps
    // between clusters from run to run; the fast decile is the steady
    // per-point figure, and the median is printed beside it.
    let p50 = median(&mut walls);
    let metrics = vec![
        metric("points_per_s", points as f64 / m.wall_s(), "points/s"),
        metric("point_s_p10", quantile(&mut walls, 0.1), "s"),
        metric("setup_s", m.setup_s, "s"),
        metric("peak_rss_mb", peak_rss_mb()?, "MB"),
        metric("cache_mb_per_point", m.cache_bytes_per_point / 1e6, "MB"),
    ];
    let v = &m.verdict;
    let notes = vec![
        context(args, m.back_pin_ratio),
        format!(
            "rounds={} points={points} point_s_samples={samples} point_s_p50={p50:.4} \
             measured_wall_s={:.3} attempted={} failed={} failed_frac={:.4} invalid={}",
            m.rounds.len(),
            m.wall_s(),
            v.attempted,
            v.failed,
            v.failed as f64 / v.attempted.max(1) as f64,
            v.invalid
        ),
    ];
    Ok(Output {
        verdict: m.verdict,
        metrics,
        notes,
    })
}

/// Pool and recovery-ladder figures of one sweep round.
fn round_metrics(round: &Round) -> Vec<Metric> {
    let jobs: Vec<_> = round.jobs().collect();
    let busy_s: f64 = jobs.iter().map(|r| r.wall_ms / 1e3).sum();
    let attempts: u32 = jobs.iter().map(|r| r.attempts).sum();
    let capacity_s = POOL_WIDTH as f64 * round.wall_s;
    vec![
        metric(
            "recover.attempts_per_point",
            f64::from(attempts) / jobs.len() as f64,
            "attempts",
        ),
        metric(
            "recover.useful_ratio",
            jobs.len() as f64 / f64::from(attempts),
            "ratio",
        ),
        metric("pool.busy_frac", busy_s / capacity_s, "ratio"),
        metric("pool.idle_s", capacity_s - busy_s, "s"),
    ]
}

/// The representative point of a round: the first point on `rv32_place`
/// and `rv32_warm`; on `rv32_route` the first point that climbed the most
/// ladder rungs, since the ladder is what that workload exists to load.
fn representative(workload: Workload, round: &Round) -> Result<(f64, u64), String> {
    let jobs: Vec<_> = round.jobs().collect();
    let pick = match workload {
        Workload::Route => jobs
            .iter()
            .enumerate()
            .rev()
            .max_by_key(|(_, r)| r.attempts)
            .map_or(0, |(i, _)| i),
        _ => 0,
    };
    let row = jobs.get(pick).ok_or("empty sweep round")?;
    let seed = row
        .label
        .rsplit_once("/s")
        .and_then(|(_, s)| s.parse().ok())
        .ok_or_else(|| format!("no seed in point label {:?}", row.label))?;
    Ok((round.utils[pick / SEEDS_PER_UTIL], seed))
}

/// Runs `f` under a fresh per-point collector, as a pool worker does, and
/// returns its wall time in ms.
fn collected<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let collector = ffet_obs::Collector::new();
    let t = Instant::now();
    let out = {
        let _guard = collector.install();
        f()
    };
    (out, sweep::ms_since(t))
}

/// The per-layer run: set-up, one sweep round for the pool and ladder
/// figures, then the representative point untraced (`run_flow_resilient`)
/// and traced (stage-by-stage composition) from equally cold (or, on
/// `rv32_warm`, equally primed) stage caches.
fn traced(args: &Args) -> Result<Output, String> {
    let w = args.workload;
    let pool = Pool::new(POOL_WIDTH);
    let mut draws = Draws::new(w, args.seed);
    let reference = Reference::for_seed(args.seed);
    let base = base_config(w, draws.back_pin_ratio, None);
    let setup = sweep::setup(&base)?;
    let mut verdict = Verdict::default();
    let scratch = |tag: &str| ScratchDir::new(tag).map_err(|e| e.to_string());

    let warm = scratch("trace-warm")?;
    let round = if w == Workload::Warm {
        let base = FlowConfig {
            stage_cache: Some(warm.path().to_path_buf()),
            ..base.clone()
        };
        let ref_name = w.draws_from().name();
        let primed = prime(
            &pool,
            &setup,
            &base,
            &mut draws,
            ref_name,
            &reference,
            &mut verdict,
        );
        let round = run_round(&pool, &setup, &base, 0, primed.utils.clone());
        verdict.absorb(check_round(&round, "-", &reference, Some(&primed.digests)).0);
        round
    } else {
        let cache = scratch("trace-round")?;
        let base = FlowConfig {
            stage_cache: Some(cache.path().to_path_buf()),
            ..base.clone()
        };
        let round = run_round(&pool, &setup, &base, 0, draws.next_round());
        verdict.absorb(check_round(&round, w.name(), &reference, None).0);
        round
    };

    let (utilization, seed) = representative(w, &round)?;
    let point = |cache: &ScratchDir| FlowConfig {
        utilization,
        seed,
        stage_cache: Some(cache.path().to_path_buf()),
        ..base.clone()
    };
    // Each run reads (or, cold, fills) a cache of its own.
    let cache_for = |tag: &str| match w {
        Workload::Warm => Ok(None),
        _ => scratch(tag).map(Some),
    };
    // One discarded run first, so no measured run pays this thread's
    // first-touch allocation cost alone.
    let cold = cache_for("trace-warmup")?;
    let cfg = point(cold.as_ref().unwrap_or(&warm));
    let (_, warmup_ms) = collected(|| run_flow_resilient(&setup.netlist, &setup.library, &cfg));
    let pairs = ((PAIR_MIN_MS / warmup_ms).ceil() as usize).clamp(1, MAX_PAIRS);
    let (mut untraced_ms, mut traced_ms) = (0.0, 0.0);
    let mut runs = Vec::new();
    let mut attempts = 0;
    for _ in 0..pairs {
        let cold = cache_for("trace-untraced")?;
        let cfg = point(cold.as_ref().unwrap_or(&warm));
        let (flow, ms) = collected(|| run_flow_resilient(&setup.netlist, &setup.library, &cfg));
        untraced_ms += ms;
        let cold = cache_for("trace-traced")?;
        let cfg = point(cold.as_ref().unwrap_or(&warm));
        let cache = StageCache::new(cold.as_ref().unwrap_or(&warm).path());
        let mut spans = Spans::default();
        let (composed, ms) =
            collected(|| compose_point(&mut spans, &setup.library, &setup.netlist, &cfg, &cache));
        traced_ms += ms;
        runs.push(spans);

        attempts = flow.recovery.attempts;
        verdict.attempted += 1;
        let flow_report = flow.outcome.map(|o| o.report).map_err(|e| e.to_string());
        let same = match (&composed, &flow_report) {
            (Ok((c, a)), Ok(f)) => c == f && *a == attempts,
            _ => false,
        };
        if !same {
            verdict.failed += 1;
            verdict.problems.push(format!(
                "traced composition {composed:?} differs from run_flow_resilient \
                 {flow_report:?} after {attempts} attempt(s)"
            ));
        }
    }
    let n = pairs as f64;
    let spans_ms = runs.iter().map(Spans::total_ms).sum::<f64>();
    let coverage = spans_ms / untraced_ms;
    if (coverage - 1.0).abs() > COVERAGE_BOUND {
        verdict.problems.push(format!(
            "layer spans cover {coverage:.3} of the untraced point time (bound ±{COVERAGE_BOUND})"
        ));
    }
    // Per-point means over the pairs (counts repeat exactly).
    let ms = |name: &str| runs.iter().map(|s| s.ms(name)).sum::<f64>() / n;
    let count = |name: &str| runs.iter().map(|s| s.count(name)).sum::<f64>() / n;

    let hits = count("stagecache.hits");
    let lookups = count("stagecache.lookups");
    let mut metrics = vec![
        metric("cells.library_ms", setup.times.library_ms(), "ms"),
        metric("rv32.build_ms", setup.times.netlist_ms(), "ms"),
        metric("synth.ms", ms("synth"), "ms"),
        metric("synth.cells", count("synth.cells"), "count"),
        metric("pnr.floorplan.ms", ms("pnr.floorplan"), "ms"),
        metric("pnr.place.ms", ms("pnr.place"), "ms"),
        metric("pnr.place.calls", count("pnr.place.calls"), "count"),
        metric("pnr.cts.ms", ms("pnr.cts"), "ms"),
        metric("pnr.decompose.ms", ms("pnr.decompose"), "ms"),
        metric("pnr.side_nets", count("pnr.side_nets"), "count"),
        metric("pnr.route.ms", ms("pnr.route"), "ms"),
        metric("pnr.route.drv", count("pnr.route.drv"), "count"),
        metric("pnr.route.vias", count("pnr.route.vias"), "count"),
        metric("pnr.export.ms", ms("pnr.export"), "ms"),
        metric("lefdef.merge.ms", ms("lefdef.merge"), "ms"),
        metric("verify.signoff.ms", ms("verify.signoff"), "ms"),
        metric("rcx.extract.ms", ms("rcx.extract"), "ms"),
        metric("rcx.nets", count("rcx.nets"), "count"),
        metric("sta.ms", ms("sta"), "ms"),
        metric("stagecache.encode_ms", ms("stagecache.encode"), "ms"),
        metric("stagecache.store_ms", ms("stagecache.store"), "ms"),
        metric(
            "stagecache.write_mb",
            count("stagecache.write_bytes") / 1e6,
            "MB",
        ),
        metric("stagecache.lookup_ms", ms("stagecache.lookup"), "ms"),
        metric("stagecache.decode_ms", ms("stagecache.decode"), "ms"),
        metric(
            "stagecache.read_mb",
            count("stagecache.read_bytes") / 1e6,
            "MB",
        ),
        metric("stagecache.hit_ratio", hits / lookups.max(1.0), "ratio"),
    ];
    metrics.extend(round_metrics(&round));
    metrics.extend([
        metric(
            "obs.trace_overhead_frac",
            traced_ms / untraced_ms - 1.0,
            "ratio",
        ),
        metric("trace.point_ms", untraced_ms / n, "ms"),
        metric("trace.coverage", coverage, "ratio"),
    ]);
    let notes = vec![
        context(args, draws.back_pin_ratio),
        format!(
            "traced point u={utilization} seed={seed} attempts={attempts} pairs={pairs} \
             untraced_ms={:.1} traced_ms={:.1} layers_ms={:.1} round_points={} round_wall_s={:.3}",
            untraced_ms / n,
            traced_ms / n,
            spans_ms / n,
            round.jobs().count(),
            round.wall_s,
        ),
    ];
    Ok(Output {
        verdict,
        metrics,
        notes,
    })
}

fn render(out: &Output) -> Result<String, String> {
    let mut fields = Vec::new();
    for m in &out.metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite ({})", m.name, m.value));
        }
        fields.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    let v = &out.verdict;
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        v.problems.is_empty(),
        v.attempted.max(1),
        v.failed,
        fields.join(", ")
    ))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    match run.and_then(|out| render(&out).map(|json| (out, json))) {
        Ok((out, json)) => {
            for p in &out.verdict.problems {
                eprintln!("perfbench: FAILED CHECK: {p}");
            }
            for n in &out.notes {
                println!("# {n}");
            }
            for m in &out.metrics {
                println!("# {:<28} {:>14.6} {}", m.name, m.value, m.unit);
            }
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
