//! Bridging-cell insertion: the conventional way to move a signal to the
//! wafer backside.
//!
//! FinFET/nanosheet/CFET flows that want backside signal routing must
//! transfer each net through a *bridging cell* (paper refs \[4\], \[7\]) —
//! a buffer whose input is reached from the backside. The FFET's inherent
//! dual-sided output pins make this unnecessary (paper §III.A: "we can do
//! the signal routing without using the bridging cells"), and the paper
//! explicitly skips them "to minimize the area cost".
//!
//! This module implements the bridging alternative anyway, so the claim is
//! testable: enable it via [`crate::PnrConfig::bridging_min_nm`] and
//! compare against Algorithm 1 (see the `ablation` experiment).

use crate::dualside::pin_position;
use crate::placement::Placement;
use ffet_cells::{CellFunction, CellKind, DriveStrength, Library};
use ffet_geom::{Nm, Rect};
use ffet_netlist::{NetId, Netlist};
use ffet_tech::Side;

/// What bridging insertion did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BridgingStats {
    /// Bridging cells inserted (one per re-routed net).
    pub bridges_inserted: usize,
}

/// Inserts a bridging cell into every non-clock signal net whose placed
/// half-perimeter exceeds `min_length_nm`: the driver's long haul then
/// reaches the bridge's *backside* input pin (routing that hop on the
/// backside stack), and the bridge re-drives the original sinks on the
/// front.
///
/// Nets touching instances without placement data (CTS buffers inserted
/// after the reference placement) are left alone — they are clock nets,
/// which bridging never applies to anyway.
///
/// Returns the number of bridges inserted. A technology without backside
/// pins (CFET) gets none: there is nothing to transfer to.
#[must_use]
pub fn insert_bridging_cells(
    netlist: &mut Netlist,
    library: &Library,
    placement: &Placement,
    min_length_nm: Nm,
) -> BridgingStats {
    if !library.tech().supports_pins_on(Side::Back) {
        return BridgingStats::default();
    }
    let bridge = library
        .id(CellKind::new(CellFunction::Bridge, DriveStrength::D2))
        .expect("BRIDGED2 in library");
    let placed = placement.origins.len();
    let mut inserted = 0;

    let net_count = netlist.nets().len();
    for ni in 0..net_count {
        let net_id = NetId(ni as u32);
        {
            let net = netlist.net(net_id);
            if net.is_clock || net.sinks.is_empty() {
                continue;
            }
            let all_placed = net
                .driver
                .iter()
                .map(|d| d.inst.0 as usize)
                .chain(net.sinks.iter().map(|s| s.inst.0 as usize))
                .all(|i| i < placed);
            if !all_placed || net.driver.is_none() {
                continue;
            }
        }
        let pins: Vec<_> = {
            let net = netlist.net(net_id);
            net.driver
                .iter()
                .chain(net.sinks.iter())
                .map(|&p| pin_position(netlist, library, placement, p))
                .collect()
        };
        let hpwl = Rect::bounding(pins).map_or(0, |bb| bb.half_perimeter());
        if hpwl <= min_length_nm {
            continue;
        }
        // driver ── (backside haul) ──▶ BRIDGE ── (front) ──▶ sinks
        let out = netlist.add_net(format!("_bridge{inserted}_{ni}"));
        let bridge_inst = netlist.add_instance(
            library,
            format!("bridge_{ni}"),
            bridge,
            &[Some(net_id), Some(out)],
        );
        let sinks: Vec<_> = netlist.net(net_id).sinks.clone();
        for pin in sinks {
            // The bridge's own input stays on the original net.
            if pin.inst != bridge_inst {
                netlist.move_sink(net_id, pin, out);
            }
        }
        inserted += 1;
    }
    BridgingStats {
        bridges_inserted: inserted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::floorplan::floorplan;
    use crate::placement::place;
    use crate::powerplan::powerplan;
    use ffet_netlist::NetlistBuilder;
    use ffet_tech::{RoutingPattern, Technology};

    fn placed_design(lib: &Library) -> (Netlist, Placement) {
        let mut b = NetlistBuilder::new(lib, "t");
        let x = b.input("x");
        let mut v = b.not(x);
        for _ in 0..400 {
            v = b.not(v);
        }
        b.output("y", v);
        let nl = b.finish();
        let fp = floorplan(&nl, lib, 0.6, 1.0).unwrap();
        let pp = powerplan(&fp, lib, RoutingPattern::new(6, 6).unwrap());
        let pl = place(&nl, lib, &fp, &pp, 1);
        (nl, pl)
    }

    /// Longest placed net HPWL in the design (to pick test thresholds
    /// robustly against placement-quality changes).
    fn max_net_hpwl(nl: &Netlist, lib: &Library, pl: &Placement) -> i64 {
        nl.nets()
            .iter()
            .filter(|n| !n.is_clock && n.driver.is_some() && !n.sinks.is_empty())
            .map(|n| {
                let pins: Vec<_> = n
                    .driver
                    .iter()
                    .chain(n.sinks.iter())
                    .map(|&p| pin_position(nl, lib, pl, p))
                    .collect();
                Rect::bounding(pins).map_or(0, |bb| bb.half_perimeter())
            })
            .max()
            .unwrap_or(0)
    }

    #[test]
    fn long_nets_get_bridged() {
        let lib = Library::new(Technology::ffet_3p5t());
        let (mut nl, pl) = placed_design(&lib);
        let before = nl.instances().len();
        let threshold = max_net_hpwl(&nl, &lib, &pl) / 2;
        let stats = insert_bridging_cells(&mut nl, &lib, &pl, threshold);
        assert!(
            stats.bridges_inserted > 0,
            "nets above half the max must bridge"
        );
        assert_eq!(nl.instances().len(), before + stats.bridges_inserted);
        nl.check_consistency(&lib).unwrap();
        // Bridged nets now sink only into the bridge's backside input.
        let bridged = nl
            .instances()
            .iter()
            .filter(|i| lib.cell(i.cell).kind.function == CellFunction::Bridge)
            .count();
        assert_eq!(bridged, stats.bridges_inserted);
    }

    #[test]
    fn threshold_controls_count() {
        let lib = Library::new(Technology::ffet_3p5t());
        let (nl0, pl) = placed_design(&lib);
        let mut aggressive = nl0.clone();
        let mut lazy = nl0.clone();
        let max_len = max_net_hpwl(&nl0, &lib, &pl);
        let many = insert_bridging_cells(&mut aggressive, &lib, &pl, max_len / 8);
        let few = insert_bridging_cells(&mut lazy, &lib, &pl, max_len + 1);
        assert!(many.bridges_inserted > few.bridges_inserted);
        assert_eq!(few.bridges_inserted, 0);
    }

    #[test]
    fn cfet_gets_no_bridges() {
        let lib = Library::new(Technology::cfet_4t());
        let (mut nl, pl) = placed_design(&lib);
        let stats = insert_bridging_cells(&mut nl, &lib, &pl, 500);
        assert_eq!(stats.bridges_inserted, 0);
    }

    #[test]
    fn functionality_preserved() {
        use ffet_netlist::Simulator;
        let lib = Library::new(Technology::ffet_3p5t());
        let (mut nl, pl) = placed_design(&lib);
        let x = nl.net_by_name("x").unwrap();
        let y = nl.ports().iter().find(|p| p.name == "y").unwrap().net;
        let expected = {
            let mut sim = Simulator::new(&nl, &lib).unwrap();
            sim.set(x, true);
            sim.settle();
            sim.get(y)
        };
        let _ = insert_bridging_cells(&mut nl, &lib, &pl, 1_000);
        let mut sim = Simulator::new(&nl, &lib).unwrap();
        sim.set(x, true);
        sim.settle();
        assert_eq!(sim.get(y), expected);
    }
}
