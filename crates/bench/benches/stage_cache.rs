//! Stage-cache payoff on a fig11-class sweep: the same experiment run
//! cold (empty cache, every stage computes and stores) vs warm (every
//! point replays its stages from the content-addressed store, DESIGN
//! §14). The warm rerun must both be faster and execute ≥ 30% fewer
//! stage invocations; `results/BENCH_stage_cache.json` records the
//! measured wall times, stage-invocation counts, and whether the
//! reduction target held.

use ffet_bench::BenchGroup;
use ffet_core::ckpt;
use ffet_core::experiments::{self, DesignKind};
use ffet_core::runner::Pool;
use std::time::{Duration, Instant};

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Sums every `cache.{kind}.*` counter from the process-global registry.
fn stat_total(kind: &str) -> u64 {
    let prefix = format!("cache.{kind}.");
    ffet_obs::cache_stats()
        .iter()
        .filter(|(name, _)| name.starts_with(&prefix))
        .map(|&(_, n)| n)
        .sum()
}

#[allow(clippy::print_stderr, clippy::cast_precision_loss)] // bench harness output
fn main() {
    let t0 = Instant::now();
    let scratch = std::env::temp_dir().join(format!("ffet-bench-scache-{}", std::process::id()));
    let objects = scratch.join("objects");
    // Configs are built deep inside the experiment runners and read the
    // cache root from the env; set it before any flow runs (the bench is
    // single-threaded here, pool workers only read configs handed to them).
    std::env::set_var(ffet_core::STAGE_CACHE_ENV, &objects);
    let pool = Pool::new(4);
    let fig11 = experiments::find("fig11").expect("fig11 is registered");

    // Instrumented single runs first: a cold run's misses count the stage
    // invocations it executed; the warm rerun's misses count what the
    // cache could not absorb. The ≥30% reduction claim is about these
    // counts, not wall clock.
    ffet_obs::cache_stats_reset();
    let _ = fig11.run(DesignKind::CounterSmall, &pool);
    let cold_execs = stat_total("miss");
    let cold_hits = stat_total("hit");
    ffet_obs::cache_stats_reset();
    let _ = fig11.run(DesignKind::CounterSmall, &pool);
    let warm_execs = stat_total("miss");
    let warm_hits = stat_total("hit");
    let reduction_pct = if cold_execs > 0 {
        (1.0 - warm_execs as f64 / cold_execs as f64) * 100.0
    } else {
        0.0
    };

    let mut group = BenchGroup::new("stage_cache");
    group.sample_size(5);

    let cold_med = group.bench_function_timed("fig11_counter_cold", || {
        // Wiping the store inside the closure keeps every sample cold;
        // the removal itself is microseconds against a sweep.
        let _ = std::fs::remove_dir_all(&objects);
        fig11.run(DesignKind::CounterSmall, &pool).table
    });

    // The harness's untimed warmup call primes the store, so every timed
    // sample replays from a fully warm cache.
    let warm_med = group.bench_function_timed("fig11_counter_warm", || {
        fig11.run(DesignKind::CounterSmall, &pool).table
    });
    let legs = group.finish();

    let speedup = ms(cold_med) / ms(warm_med).max(1e-9);
    let json = format!(
        "{{\n  \"experiment\": \"fig11_counter\",\n  \"cold_median_ms\": {:.4},\n  \
         \"warm_median_ms\": {:.4},\n  \"warm_speedup\": {speedup:.3},\n  \
         \"cold_stage_execs\": {cold_execs},\n  \"cold_stage_hits\": {cold_hits},\n  \
         \"warm_stage_execs\": {warm_execs},\n  \"warm_stage_hits\": {warm_hits},\n  \
         \"stage_exec_reduction_pct\": {reduction_pct:.3},\n  \
         \"reduction_target_pct\": 30.0,\n  \"reduction_within_target\": {}\n}}\n",
        ms(cold_med),
        ms(warm_med),
        reduction_pct >= 30.0,
    );
    let out = ffet_bench::results_dir().join("BENCH_stage_cache.json");
    if let Err(e) = ckpt::atomic_write(&out, json.as_bytes()) {
        eprintln!("stage_cache: could not write BENCH_stage_cache.json: {e}");
    }
    ffet_bench::append_bench_ledger("stage_cache", legs, t0.elapsed());
    let _ = std::fs::remove_dir_all(&scratch);
}
