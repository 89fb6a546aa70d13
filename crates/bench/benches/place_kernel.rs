//! Benchmarks the placer on the RV32 core: the two `place` calls of every
//! flow point, before CTS and after it (the clock buffers CTS inserts make
//! the second netlist larger). Each call runs 32 SimPL outer iterations,
//! each an x and a y QP solve (DESIGN §15). Medians land in
//! `results/BENCH_place.json` with the cell counts and `host_cores`.

use ffet_bench::BenchGroup;
use ffet_core::{designs, synthesize, FlowConfig, SynthConfig};
use ffet_netlist::Netlist;
use ffet_pnr::{floorplan, place, powerplan, synthesize_clock_tree};
use ffet_tech::{RoutingPattern, TechKind};
use std::time::{Duration, Instant};

#[allow(clippy::print_stderr)] // bench harness output
fn main() {
    let t0 = Instant::now();
    // An rv32_place-class point: FM12BM12, BPy 0.5, mid-band utilization.
    let config = FlowConfig {
        pattern: RoutingPattern::new(12, 12).expect("static"),
        back_pin_ratio: 0.5,
        utilization: 0.625,
        ..FlowConfig::baseline(TechKind::Ffet3p5t)
    };
    let library = config.build_library().expect("valid config");
    let mut netlist = designs::rv32_core(&library);
    synthesize(
        &mut netlist,
        &library,
        &SynthConfig::for_target(config.target_freq_ghz),
    )
    .expect("library has the synthesis cells");
    let plan = |nl: &Netlist| {
        let fp = floorplan(nl, &library, config.utilization, config.aspect_ratio)
            .expect("RV32 floorplan fits");
        let pp = powerplan(&fp, &library, config.pattern);
        (fp, pp)
    };

    let mut group = BenchGroup::new("place_kernel");
    group.sample_size(10);
    let (fp0, pp0) = plan(&netlist);
    let pre_cells = netlist.instances().len();
    let pre_med = group.bench_function_timed("rv32_pre_cts", || {
        place(&netlist, &library, &fp0, &pp0, config.seed)
    });
    let pl0 = place(&netlist, &library, &fp0, &pp0, config.seed);
    synthesize_clock_tree(&mut netlist, &library, &pl0).expect("library has CKBUFD4");
    let (fp, pp) = plan(&netlist);
    let post_cells = netlist.instances().len();
    let post_med = group.bench_function_timed("rv32_post_cts", || {
        place(&netlist, &library, &fp, &pp, config.seed)
    });
    let ledger_legs = group.finish();

    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let json = format!(
        "{{\n  \"design\": \"rv32_core\",\n  \"pattern\": \"FM12BM12\",\n  \"back_pin_ratio\": 0.5,\n  \"utilization\": {},\n  \"pre_cts_cells\": {pre_cells},\n  \"pre_cts_ms\": {:.3},\n  \"post_cts_cells\": {post_cells},\n  \"post_cts_ms\": {:.3},\n  \"pair_ms\": {:.3},\n  \"host_cores\": {cores}\n}}\n",
        config.utilization,
        ms(pre_med),
        ms(post_med),
        ms(pre_med) + ms(post_med),
    );
    let out = ffet_bench::results_dir().join("BENCH_place.json");
    if let Err(e) = ffet_core::ckpt::atomic_write(&out, json.as_bytes()) {
        eprintln!("place_kernel: could not write {}: {e}", out.display());
    }
    ffet_bench::append_bench_ledger("place_kernel", ledger_legs, t0.elapsed());
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
