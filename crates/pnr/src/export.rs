//! DEF export: assembles placement + powerplan + per-side routing into the
//! two DEF files the paper's flow hands to RC extraction.

use crate::floorplan::Floorplan;
use crate::placement::Placement;
use crate::powerplan::PowerPlan;
use crate::route::RoutingResult;
use ffet_cells::{CellFunction, CellKind, DriveStrength, Library};
use ffet_geom::Point;
use ffet_lefdef::{Def, DefComponent, DefConnection, DefNet};
use ffet_netlist::Netlist;
use ffet_tech::Side;

/// Builds one DEF per wafer side from a finished P&R run. Components and
/// PDN appear in both (the die is one physical object); each side's DEF
/// carries only that side's routing — exactly the "two separate DEF files"
/// of the paper's Algorithm 1 output, ready for [`ffet_lefdef::merge_defs`].
#[must_use]
pub fn export_defs(
    netlist: &Netlist,
    library: &Library,
    floorplan: &Floorplan,
    powerplan: &PowerPlan,
    placement: &Placement,
    routing: &RoutingResult,
) -> (Def, Def) {
    let tech = library.tech();
    let mut base = Def::new(netlist.name(), floorplan.die);

    for (i, inst) in netlist.instances().iter().enumerate() {
        base.components.push(DefComponent {
            name: inst.name.clone(),
            macro_name: library.cell(inst.cell).name.clone(),
            origin: placement.origins[i],
            orient: placement.orients[i],
            fixed: inst.fixed,
        });
    }
    // Power Tap Cells are physical components too.
    let tap_name = library
        .cell_by_kind(CellKind::new(CellFunction::PowerTap, DriveStrength::D1))
        .map_or_else(|| "PWRTAP".to_owned(), |c| c.name.clone());
    for (ti, tap) in powerplan.taps.iter().enumerate() {
        base.components.push(DefComponent {
            name: format!("pwrtap_{ti}"),
            macro_name: tap_name.clone(),
            origin: Point::new(tap.site * tech.cpp(), floorplan.rows[tap.row].y),
            orient: floorplan.rows[tap.row].orient,
            fixed: true,
        });
    }
    base.special_nets = powerplan.special_nets.clone();

    let mut front = base.clone();
    let mut back = base;

    for routed in &routing.nets {
        let net = &netlist.nets()[routed.net.0 as usize];
        let mut connections: Vec<DefConnection> = Vec::new();
        if let Some(d) = net.driver {
            let inst = &netlist.instances()[d.inst.0 as usize];
            let cell = library.cell(inst.cell);
            connections.push(DefConnection {
                instance: inst.name.clone(),
                pin: cell.pins[d.pin].name.clone(),
            });
        }
        for s in &net.sinks {
            let inst = &netlist.instances()[s.inst.0 as usize];
            let cell = library.cell(inst.cell);
            connections.push(DefConnection {
                instance: inst.name.clone(),
                pin: cell.pins[s.pin].name.clone(),
            });
        }
        let def_net = DefNet {
            name: net.name.clone(),
            connections,
            wires: routed.wires.clone(),
            vias: routed.vias.clone(),
        };
        match routed.side {
            Side::Front => front.nets.push(def_net),
            Side::Back => back.nets.push(def_net),
        }
    }
    (front, back)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::floorplan::floorplan;
    use crate::placement::place;
    use crate::powerplan::powerplan;
    use crate::route::{route_nets_opts, RouteOpts};
    use crate::{dualside::decompose_nets, grid::RoutingGrid};
    use ffet_lefdef::{merge_defs, parse_def, write_def};
    use ffet_netlist::NetlistBuilder;
    use ffet_tech::{RoutingPattern, Technology};

    #[test]
    fn export_and_merge_roundtrip() {
        let mut lib = Library::new(Technology::ffet_3p5t());
        lib.redistribute_input_pins(0.5, 42).unwrap();
        let mut b = NetlistBuilder::new(&lib, "exp");
        let x = b.input("x");
        let mut v = x;
        let mut w = x;
        // Mixed gate types so the per-cell pin redistribution puts a good
        // share of sink pins on the backside.
        for i in 0..40 {
            let t = match i % 5 {
                0 => b.nand2(v, w),
                1 => b.nor2(v, w),
                2 => b.xor2(v, w),
                3 => b.aoi21(v, w, x),
                _ => b.not(v),
            };
            w = v;
            v = t;
        }
        b.output("y", v);
        let nl = b.finish();

        let pattern = RoutingPattern::new(6, 6).unwrap();
        let fp = floorplan(&nl, &lib, 0.6, 1.0).unwrap();
        let pp = powerplan(&fp, &lib, pattern);
        let pl = place(&nl, &lib, &fp, &pp, 1);
        let side_nets = decompose_nets(&nl, &lib, &pl, pattern).unwrap();
        let mut grid = RoutingGrid::new(lib.tech(), fp.die, pattern);
        let routing = route_nets_opts(
            lib.tech(),
            &mut grid,
            &side_nets,
            pattern,
            &RouteOpts::default(),
        );
        let (front, back) = export_defs(&nl, &lib, &fp, &pp, &pl, &routing);

        // Both sides agree on components; merge succeeds.
        let merged = merge_defs(&front, &back).expect("merge");
        assert_eq!(
            merged.total_wirelength(),
            front.total_wirelength() + back.total_wirelength()
        );
        // Text round trip of the merged database.
        let reparsed = parse_def(&write_def(&merged)).expect("parse back");
        assert_eq!(reparsed, merged);
        // Power taps present as FIXED components.
        assert!(merged
            .components
            .iter()
            .any(|c| c.fixed && c.macro_name == "PWRTAP"));
        // Backside routing exists (pins were redistributed 50/50).
        assert!(back.total_wirelength() > 0);
    }
}
