//! Demonstrates the paper's Algorithm 1 in isolation: input-pin
//! redistribution, net decomposition into frontside/backside sub-nets,
//! independent routing, and the two-DEF → merged-DEF hand-off to RC
//! extraction.
//!
//! ```text
//! cargo run --release --example dual_sided_routing
//! ```
// Examples are demonstration CLIs: stdout is their output channel.
#![allow(clippy::print_stdout)]

use ffet_cells::Library;
use ffet_lefdef::{merge_defs, write_lef};
use ffet_netlist::NetlistBuilder;
use ffet_pnr::{
    decompose_nets, floorplan, place, powerplan, route_nets_opts, RouteOpts, RoutingGrid,
};
use ffet_tech::{RoutingPattern, Side, Technology};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A library with half the input pins redistributed to the backside —
    // the paper's "modified standard cell LEF".
    let mut library = Library::new(Technology::ffet_3p5t());
    let moved = library.redistribute_input_pins(0.5, 42)?;
    println!(
        "redistributed {moved} input pins to the backside (measured ratio {:.2})",
        library.measured_backside_ratio()
    );
    let lef = write_lef(&library);
    println!(
        "modified LEF: {} lines (pins carry FM0/BM0 sides)\n",
        lef.lines().count()
    );

    // A small design with mixed gate types.
    let mut b = NetlistBuilder::new(&library, "demo");
    let a = b.input("a");
    let c = b.input("b");
    let mut v = b.xor2(a, c);
    let mut w = b.nand2(a, c);
    for _ in 0..30 {
        let t = b.aoi21(v, w, a);
        w = b.nor2(v, w);
        v = t;
    }
    b.output("y", v);
    b.output("z", w);
    let netlist = b.finish();

    // Floorplan, powerplan (Power Tap Cells!), placement.
    let pattern = RoutingPattern::new(6, 6)?;
    let fp = floorplan(&netlist, &library, 0.7, 1.0)?;
    let pp = powerplan(&fp, &library, pattern);
    println!(
        "floorplan: die {}×{} nm, {} rows, {} Power Tap Cells",
        fp.die.width(),
        fp.die.height(),
        fp.rows.len(),
        pp.taps.len()
    );
    let pl = place(&netlist, &library, &fp, &pp, 1);

    // Algorithm 1: decompose nets by sink pin side.
    let side_nets = decompose_nets(&netlist, &library, &pl, pattern)?;
    let front = side_nets.iter().filter(|n| n.side == Side::Front).count();
    let back = side_nets.iter().filter(|n| n.side == Side::Back).count();
    println!("decomposition: {front} frontside sub-nets, {back} backside sub-nets");

    // Route both sides independently on the shared congestion grid.
    let mut grid = RoutingGrid::new(library.tech(), fp.die, pattern);
    let routing = route_nets_opts(
        library.tech(),
        &mut grid,
        &side_nets,
        pattern,
        &RouteOpts::default(),
    );
    println!(
        "routing: {:.1} µm total ({:.1} µm backside), {} vias, overflow {:.0}",
        routing.wirelength_nm as f64 / 1e3,
        routing.back_wirelength_nm as f64 / 1e3,
        routing.via_count,
        routing.overflow_tracks
    );

    // Export one DEF per side and merge them for extraction.
    let (front_def, back_def) = ffet_pnr::export_defs(&netlist, &library, &fp, &pp, &pl, &routing);
    let merged = merge_defs(&front_def, &back_def)?;
    println!(
        "DEFs: front {} nets, back {} nets → merged {} nets, {:.1} µm wire",
        front_def.nets.len(),
        back_def.nets.len(),
        merged.nets.len(),
        merged.total_wirelength() as f64 / 1e3
    );
    Ok(())
}
