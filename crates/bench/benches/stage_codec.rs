//! Benchmarks the stage-cache codec on one RV32 point (DESIGN §14.5). The
//! point runs once through `run_flow` with a scratch stage cache; then,
//! for each of its six stored payloads, the bench times
//! `StageCache::lookup` (read the blob and check its address), the
//! stage's `decode_*` (dropping the value included) and its `encode_*` on
//! the decoded value. A `run_flow` stage hit is exactly `lookup` and then
//! `decode_*`. Medians, payload bytes and MB/s land in
//! `results/BENCH_stage_codec.json` with `host_cores`.

use ffet_bench::BenchGroup;
use ffet_core::stagecache::{self, Stage, StageCache};
use ffet_core::{designs, run_flow, FaultPlan, FlowConfig};
use ffet_obs::PointData;
use ffet_tech::{RoutingPattern, TechKind};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One stage's payload size and median lookup/decode/encode times.
struct Row {
    stage: &'static str,
    bytes: usize,
    lookup: Duration,
    decode: Duration,
    encode: Duration,
}

/// Times one stored payload; returns its address (the next key's input).
fn time_stage<T>(
    group: &mut BenchGroup,
    rows: &mut Vec<Row>,
    cache: &StageCache,
    stage: Stage,
    key: &str,
    decode: fn(&str) -> Option<(T, PointData)>,
    encode: fn(&T, &PointData) -> String,
) -> String {
    let name = stage.name();
    let (addr, body) = cache
        .lookup(key)
        .expect("the RV32 point stored every stage");
    let (value, data) = decode(&body).expect("a stored payload decodes");
    assert_eq!(encode(&value, &data), body, "{name}: re-encoding drifted");
    let lookup = group.bench_function_timed(&format!("{name}.lookup"), || cache.lookup(key));
    let decode = group.bench_function_timed(&format!("{name}.decode"), || decode(&body));
    let encode = group.bench_function_timed(&format!("{name}.encode"), || encode(&value, &data));
    rows.push(Row {
        stage: name,
        bytes: body.len(),
        lookup,
        decode,
        encode,
    });
    addr
}

#[allow(clippy::print_stderr)] // bench harness output
fn main() {
    let t0 = Instant::now();
    let root = std::env::temp_dir().join(format!("ffet-bench-codec-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    // An rv32_place-class point with every field explicit, so no `FFET_*`
    // variable reaches the flow.
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
    let cache = StageCache::new(&root);

    let mut group = BenchGroup::new("stage_codec");
    group.sample_size(15);
    let mut rows = Vec::new();
    let g = &mut group;
    let key = stagecache::synth_key(&config, &netlist);
    let synth = time_stage(
        g,
        &mut rows,
        &cache,
        Stage::Synth,
        &key,
        stagecache::decode_synth,
        stagecache::encode_synth,
    );
    let key = stagecache::pnr_key(&config, &synth);
    let pnr = time_stage(
        g,
        &mut rows,
        &cache,
        Stage::Pnr,
        &key,
        stagecache::decode_pnr,
        stagecache::encode_pnr,
    );
    let key = stagecache::merge_key(&pnr);
    let merge = time_stage(
        g,
        &mut rows,
        &cache,
        Stage::Merge,
        &key,
        stagecache::decode_merge,
        stagecache::encode_merge,
    );
    let key = stagecache::signoff_key(&config, &pnr, &merge);
    time_stage(
        g,
        &mut rows,
        &cache,
        Stage::Signoff,
        &key,
        stagecache::decode_signoff_payload,
        stagecache::encode_signoff_payload,
    );
    let key = stagecache::rcx_key(&config, &pnr, &merge);
    let rcx = time_stage(
        g,
        &mut rows,
        &cache,
        Stage::Rcx,
        &key,
        stagecache::decode_rcx,
        |v, d| stagecache::encode_rcx(v, d),
    );
    let key = stagecache::sta_key(&config, &pnr, &rcx);
    time_stage(
        g,
        &mut rows,
        &cache,
        Stage::Sta,
        &key,
        stagecache::decode_sta,
        stagecache::encode_sta,
    );
    let ledger_legs = group.finish();
    let _ = std::fs::remove_dir_all(&root);

    let total = Row {
        stage: "total",
        bytes: rows.iter().map(|r| r.bytes).sum(),
        lookup: rows.iter().map(|r| r.lookup).sum(),
        decode: rows.iter().map(|r| r.decode).sum(),
        encode: rows.iter().map(|r| r.encode).sum(),
    };
    let stages: Vec<String> = rows.iter().map(row_json).collect();
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let json = format!(
        "{{\n  \"design\": \"rv32_core\",\n  \"pattern\": \"FM12BM12\",\n  \"back_pin_ratio\": 0.5,\n  \"utilization\": {},\n  \"seed\": {},\n  \"samples\": 15,\n  \"stages\": [\n    {}\n  ],\n  \"total\": {},\n  \"host_cores\": {cores}\n}}\n",
        config.utilization,
        config.seed,
        stages.join(",\n    "),
        row_json(&total),
    );
    let out = ffet_bench::results_dir().join("BENCH_stage_codec.json");
    if let Err(e) = ffet_core::ckpt::atomic_write(&out, json.as_bytes()) {
        eprintln!("stage_codec: could not write {}: {e}", out.display());
    }
    ffet_bench::append_bench_ledger("stage_codec", ledger_legs, t0.elapsed());
}

/// One row as a JSON object: bytes, then median ms and MB/s per operation.
#[allow(clippy::cast_precision_loss)]
fn row_json(row: &Row) -> String {
    let mut out = format!("{{\"stage\": \"{}\", \"bytes\": {}", row.stage, row.bytes);
    for (op, d) in [
        ("lookup", row.lookup),
        ("decode", row.decode),
        ("encode", row.encode),
    ] {
        let ms = d.as_secs_f64() * 1e3;
        let mb_s = row.bytes as f64 / 1e6 / d.as_secs_f64().max(1e-9);
        let _ = write!(out, ", \"{op}_ms\": {ms:.3}, \"{op}_mb_s\": {mb_s:.1}");
    }
    out.push('}');
    out
}
