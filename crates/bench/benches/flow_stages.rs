//! Per-stage performance of the physical-implementation flow on the real
//! RV32 benchmark: placement, CTS, dual-sided routing, DEF merge, RC
//! extraction and STA — the numbers that determine how long the paper's
//! experiment sweeps take.

use ffet_bench::BenchGroup;
use ffet_cells::Library;
use ffet_core::designs;
use ffet_lefdef::merge_defs;
use ffet_pnr::{
    decompose_nets, export_defs, floorplan, place, powerplan, route_nets_opts,
    synthesize_clock_tree, RouteOpts, RoutingGrid,
};
use ffet_rcx::extract_net;
use ffet_sta::{analyze_timing, StaConfig};
use ffet_tech::{RoutingPattern, Technology};
use std::time::Instant;

fn main() {
    let t0 = Instant::now();
    let mut group = BenchGroup::new("flow_stages");
    group.sample_size(10);

    let mut library = Library::new(Technology::ffet_3p5t());
    library.redistribute_input_pins(0.5, 42).expect("ffet");
    let pattern = RoutingPattern::new(6, 6).expect("static");

    // Shared pre-computed stages (built once, benched individually).
    let mut netlist = designs::rv32_core(&library);
    let fp = floorplan(&netlist, &library, 0.7, 1.0).expect("floorplan");
    let pp = powerplan(&fp, &library, pattern);

    group.bench_function("rv32_generate", || designs::rv32_core(&library));
    group.bench_function("placement_rv32", || place(&netlist, &library, &fp, &pp, 42));

    let pl = place(&netlist, &library, &fp, &pp, 42);
    group.bench_function("cts_rv32", || {
        let mut nl = netlist.clone();
        synthesize_clock_tree(&mut nl, &library, &pl).expect("cts")
    });
    synthesize_clock_tree(&mut netlist, &library, &pl).expect("cts");
    let fp = floorplan(&netlist, &library, 0.7, 1.0).expect("floorplan");
    let pp = powerplan(&fp, &library, pattern);
    let pl = place(&netlist, &library, &fp, &pp, 42);
    let side_nets = decompose_nets(&netlist, &library, &pl, pattern).expect("decompose");

    group.bench_function("dual_sided_routing_rv32", || {
        let mut grid = RoutingGrid::new(library.tech(), fp.die, pattern);
        route_nets_opts(
            library.tech(),
            &mut grid,
            &side_nets,
            pattern,
            &RouteOpts::default(),
        )
    });

    // The same kernel with an ambient ffet-obs collector recording its
    // spans and metrics. Comparing this line against the one above shows
    // the tracing overhead directly (the contract is < 5%; CI enforces it
    // through the ignored `tracing_overhead_is_under_five_percent` test).
    group.bench_function("dual_sided_routing_rv32_traced", || {
        let collector = ffet_obs::Collector::new();
        let routing = {
            let _guard = collector.install();
            let mut grid = RoutingGrid::new(library.tech(), fp.die, pattern);
            route_nets_opts(
                library.tech(),
                &mut grid,
                &side_nets,
                pattern,
                &RouteOpts::default(),
            )
        };
        (routing, collector.finish())
    });

    let mut grid = RoutingGrid::new(library.tech(), fp.die, pattern);
    let routing = route_nets_opts(
        library.tech(),
        &mut grid,
        &side_nets,
        pattern,
        &RouteOpts::default(),
    );
    let (front, back) = export_defs(&netlist, &library, &fp, &pp, &pl, &routing);
    group.bench_function("def_merge_rv32", || {
        merge_defs(&front, &back).expect("merge")
    });

    let merged = merge_defs(&front, &back).expect("merge");
    group.bench_function("rc_extraction_rv32", || {
        let mut total = 0.0f64;
        for net in &merged.nets {
            // Extraction without pin mapping: source at the first wire end.
            if let Some(w) = net.wires.first() {
                let p = extract_net(net, library.tech(), w.from, &[w.to]);
                total += p.total_cap_ff;
            }
        }
        total
    });

    let parasitics = vec![None; netlist.nets().len()];
    group.bench_function("sta_rv32_no_wires", || {
        analyze_timing(&netlist, &library, &parasitics, &StaConfig::default()).expect("levelizes")
    });
    let legs = group.finish();
    ffet_bench::append_bench_ledger("flow_stages", legs, t0.elapsed());
}
