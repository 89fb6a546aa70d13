//! Route and placement DRC: geometric checks over a completed P&R
//! result, recomputed from the artifacts alone (no router state).

use crate::{Severity, Violation};
use ffet_cells::Library;
use ffet_geom::{Axis, Point, Rect};
use ffet_geom::{FxHashMap, FxHashSet};
use ffet_lefdef::{DefVia, DefWire};
use ffet_netlist::Netlist;
use ffet_pnr::{
    add_pin_demand, calib, check_legality, decompose_nets, GCell, LegalityViolation, PnrResult,
    RoutingGrid, SideNet,
};
use ffet_tech::{RoutingPattern, Side, Technology};

/// Per-side routing context derived from the pattern and layer stack.
struct SideRules {
    max_index: u8,
    has_h: bool,
    has_v: bool,
}

impl SideRules {
    fn new(tech: &Technology, pattern: RoutingPattern, side: Side) -> SideRules {
        let max_index = match side {
            Side::Front => pattern.front_layers(),
            Side::Back => pattern.back_layers(),
        };
        let layers = tech.stack().routing_layers(side, max_index);
        SideRules {
            max_index,
            has_h: layers.iter().any(|l| l.id.axis() == Axis::Horizontal),
            has_v: layers.iter().any(|l| l.id.axis() == Axis::Vertical),
        }
    }

    fn has_axis(&self, axis: Axis) -> bool {
        match axis {
            Axis::Horizontal => self.has_h,
            Axis::Vertical => self.has_v,
        }
    }
}

/// Checks the routed geometry of a P&R result: layer legality, preferred
/// directions, track discipline, die containment, GCell capacity
/// (shorts), and per-side open nets (the routed topology must connect
/// every decomposed pin, front and back independently).
#[must_use]
pub fn check_routing(
    netlist: &Netlist,
    library: &Library,
    pattern: RoutingPattern,
    pnr: &PnrResult,
) -> Vec<Violation> {
    let tech = library.tech();
    let die = pnr.floorplan.die;
    let mut out = Vec::new();

    // The same Algorithm 1 decomposition the router consumed: it is pure
    // analysis over netlist + placement, so recomputing it here gives the
    // reference topology without re-running any flow stage.
    let side_nets = match decompose_nets(netlist, library, &pnr.placement, pattern) {
        Ok(s) => s,
        Err(e) => {
            out.push(Violation {
                rule: "drc.decompose",
                severity: Severity::Error,
                subject: netlist.name().to_owned(),
                location: None,
                message: format!("net decomposition failed: {e}"),
            });
            return out;
        }
    };

    let rules = [
        SideRules::new(tech, pattern, Side::Front),
        SideRules::new(tech, pattern, Side::Back),
    ];
    let side_rules = |side: Side| match side {
        Side::Front => &rules[0],
        Side::Back => &rules[1],
    };

    // Track-discipline anchors: routed geometry may only sit on GCell
    // center lines or on actual pin coordinates (wire ends and bends).
    let grid = RoutingGrid::new(tech, die, pattern);
    // The grid is quantized upward from the die, so legal GCell centers in
    // the last row/column may sit past the die edge: containment is
    // checked against the grid extent, not the raw die.
    let bounds = die.union(&Rect::new(
        die.lo.x,
        die.lo.y,
        grid.cols as i64 * grid.gcell_w,
        grid.rows as i64 * grid.gcell_h,
    ));
    let mut on_track_x: FxHashSet<i64> = (0..grid.cols)
        .map(|gx| gx as i64 * grid.gcell_w + grid.gcell_w / 2)
        .collect();
    let mut on_track_y: FxHashSet<i64> = (0..grid.rows)
        .map(|gy| gy as i64 * grid.gcell_h + grid.gcell_h / 2)
        .collect();
    for sn in &side_nets {
        for p in &sn.pins {
            on_track_x.insert(p.x);
            on_track_y.insert(p.y);
        }
    }

    // Independent congestion model for the capacity (short) check,
    // seeded exactly as the router's grid was.
    let mut demand = RoutingGrid::new(tech, die, pattern);
    add_pin_demand(netlist, library, &pnr.placement, &mut demand, pattern);

    for routed in &pnr.routing.nets {
        let name = &netlist.net(routed.net).name;
        let side = routed.side;
        let sr = side_rules(side);

        for wire in &routed.wires {
            check_wire(
                &mut out,
                name,
                side,
                sr,
                tech,
                bounds,
                &on_track_x,
                &on_track_y,
                wire,
            );
            add_wire_demand(&mut demand, side, wire);
        }
        for via in &routed.vias {
            check_via(&mut out, name, side, sr, bounds, via);
        }
    }

    // Open nets: every decomposed side-net with two or more pins must be
    // connected by the routed geometry of its (net, side).
    let routed_by_key: FxHashMap<(u32, Side), usize> = pnr
        .routing
        .nets
        .iter()
        .enumerate()
        .map(|(i, r)| ((r.net.0, r.side), i))
        .collect();
    for sn in &side_nets {
        let name = &netlist.net(sn.net).name;
        let wires: &[DefWire] = routed_by_key
            .get(&(sn.net.0, sn.side))
            .map_or(&[], |&i| &pnr.routing.nets[i].wires);
        if let Some(message) = open_net_message(sn, wires) {
            out.push(Violation {
                rule: "drc.open",
                severity: Severity::Error,
                subject: format!("{name}/{}", sn.side),
                location: Some(sn.pins[0]),
                message,
            });
        }
    }
    // Routed geometry with no decomposed counterpart is extra topology.
    let decomposed: FxHashSet<(u32, Side)> =
        side_nets.iter().map(|sn| (sn.net.0, sn.side)).collect();
    for routed in &pnr.routing.nets {
        if !decomposed.contains(&(routed.net.0, routed.side)) {
            out.push(Violation {
                rule: "drc.extra-routing",
                severity: Severity::Error,
                subject: format!("{}/{}", netlist.net(routed.net).name, routed.side),
                location: None,
                message: "routed geometry for a net the decomposition does not produce".to_owned(),
            });
        }
    }

    // GCell capacity: demand above the Table II track capacity is a short
    // the detailed router could not have fixed (the DRV proxy).
    for side in Side::BOTH {
        for gy in 0..demand.rows {
            for gx in 0..demand.cols {
                let g = GCell {
                    x: gx as u16,
                    y: gy as u16,
                };
                if demand.is_overflowed(side, g) {
                    out.push(Violation {
                        rule: "drc.gcell-capacity",
                        severity: Severity::Warning,
                        subject: format!("gcell({gx},{gy})/{side}"),
                        location: Some(demand.center(g)),
                        message: "routing demand exceeds track capacity".to_owned(),
                    });
                }
            }
        }
    }

    out
}

#[allow(clippy::too_many_arguments)]
fn check_wire(
    out: &mut Vec<Violation>,
    net: &str,
    side: Side,
    rules: &SideRules,
    tech: &Technology,
    bounds: Rect,
    on_track_x: &FxHashSet<i64>,
    on_track_y: &FxHashSet<i64>,
    wire: &DefWire,
) {
    // Built only for a violation: most wires have none.
    let subject = || format!("{net}/{}", wire.layer);
    if wire.from.x != wire.to.x && wire.from.y != wire.to.y {
        out.push(Violation {
            rule: "drc.non-manhattan",
            severity: Severity::Error,
            subject: subject(),
            location: Some(wire.from),
            message: format!(
                "wire ({},{})→({},{}) is not axis-aligned",
                wire.from.x, wire.from.y, wire.to.x, wire.to.y
            ),
        });
        return;
    }
    for p in [wire.from, wire.to] {
        if !bounds.contains(p) {
            out.push(Violation {
                rule: "drc.off-die",
                severity: Severity::Error,
                subject: subject(),
                location: Some(p),
                message: "wire endpoint outside the routable area".to_owned(),
            });
        }
    }

    // Layer-range validity against the active routing pattern.
    let id = wire.layer;
    if id.side != side {
        out.push(Violation {
            rule: "drc.layer-range",
            severity: Severity::Error,
            subject: subject(),
            location: Some(wire.from),
            message: format!("{side}side net routed on {id}"),
        });
        return;
    }
    let layer = tech.stack().layer(id);
    let routable = layer.is_some_and(ffet_tech::Layer::is_signal_routable);
    if id.index == 0 || id.index > rules.max_index || !routable {
        out.push(Violation {
            rule: "drc.layer-range",
            severity: Severity::Error,
            subject: subject(),
            location: Some(wire.from),
            message: format!(
                "{id} is outside the routable range (max index {})",
                rules.max_index
            ),
        });
        return;
    }

    if wire.from == wire.to {
        return; // degenerate stub: no direction or track to check
    }
    let axis = if wire.from.y == wire.to.y {
        Axis::Horizontal
    } else {
        Axis::Vertical
    };
    if axis != id.axis() {
        // Wrong-way routing is an error only when the side actually has a
        // layer of the needed axis; otherwise the router legitimately fell
        // back (e.g. a one-layer backside pattern has a single direction).
        let severity = if rules.has_axis(axis) {
            Severity::Error
        } else {
            Severity::Warning
        };
        out.push(Violation {
            rule: "drc.wrong-direction",
            severity,
            subject: subject(),
            location: Some(wire.from),
            message: format!("{axis} wire on {id} (preferred {})", id.axis()),
        });
    }
    let on_track = match axis {
        Axis::Horizontal => on_track_y.contains(&wire.from.y),
        Axis::Vertical => on_track_x.contains(&wire.from.x),
    };
    if !on_track {
        out.push(Violation {
            rule: "drc.off-track",
            severity: Severity::Warning,
            subject: subject(),
            location: Some(wire.from),
            message: "wire is on neither a GCell center line nor a pin track".to_owned(),
        });
    }
}

fn check_via(
    out: &mut Vec<Violation>,
    net: &str,
    side: Side,
    rules: &SideRules,
    bounds: Rect,
    via: &DefVia,
) {
    let subject = || format!("{net}/{}-{}", via.from_layer, via.to_layer);
    if !bounds.contains(via.at) {
        out.push(Violation {
            rule: "drc.off-die",
            severity: Severity::Error,
            subject: subject(),
            location: Some(via.at),
            message: "via outside the routable area".to_owned(),
        });
    }
    for id in [via.from_layer, via.to_layer] {
        // Via stacks may start at the intra-cell M0 (pin access), so
        // index 0 is legal here, unlike for wires.
        if id.side != side || id.index > rules.max_index {
            out.push(Violation {
                rule: "drc.layer-range",
                severity: Severity::Error,
                subject: subject(),
                location: Some(via.at),
                message: format!(
                    "via touches {id}, outside the {side}side routable range (max index {})",
                    rules.max_index
                ),
            });
        }
    }
}

/// Adds one wire's demand to the congestion model, stepping GCell by
/// GCell exactly as the router commits paths.
fn add_wire_demand(grid: &mut RoutingGrid, side: Side, wire: &DefWire) {
    let share = 0.5 * calib::STEINER_SHARING;
    let from = grid.gcell_at(wire.from);
    let to = grid.gcell_at(wire.to);
    let axis = if from.y == to.y {
        Axis::Horizontal
    } else {
        Axis::Vertical
    };
    let mut g = from;
    while g != to {
        let next = GCell {
            x: step_toward(g.x, to.x),
            y: step_toward(g.y, to.y),
        };
        grid.add_demand(side, g, axis, share);
        grid.add_demand(side, next, axis, share);
        g = next;
    }
}

fn step_toward(from: u16, to: u16) -> u16 {
    match from.cmp(&to) {
        std::cmp::Ordering::Less => from + 1,
        std::cmp::Ordering::Equal => from,
        std::cmp::Ordering::Greater => from - 1,
    }
}

/// Checks one decomposed side-net against its routed wires; returns a
/// description of the open if the geometry does not connect all pins.
///
/// Connectivity is 2D per side: any point lying *on* a wire segment joins
/// that wire's component (bends and merged collinear trunks put pins and
/// T-junctions mid-segment, not only at endpoints). Via stacks never span
/// nets, so layers can be ignored.
///
/// The points are indexed per track: sorted by `(x, y)`, a vertical
/// wire's points are one range, and sorted by `(y, x)`, a horizontal
/// wire's. A wire that is neither (none is routed) tests every point.
fn open_net_message(sn: &SideNet, wires: &[DefWire]) -> Option<String> {
    let distinct_pins: FxHashSet<Point> = sn.pins.iter().copied().collect();
    if distinct_pins.len() < 2 {
        return None; // a lone (or fully coincident) pin set needs no wire
    }
    if wires.is_empty() {
        return Some(format!("{} pins but no routed wires", sn.pins.len()));
    }

    // Every wire end and pin once, by (x, y); a point's id is its index.
    let mut by_x: Vec<(i64, i64)> = wires
        .iter()
        .flat_map(|w| [w.from, w.to])
        .chain(sn.pins.iter().copied())
        .map(|p| (p.x, p.y))
        .collect();
    by_x.sort_unstable();
    by_x.dedup();
    let id = |p: Point| by_x.partition_point(|&q| q < (p.x, p.y));
    let mut by_y: Vec<(i64, i64, usize)> = by_x
        .iter()
        .enumerate()
        .map(|(i, &(x, y))| (y, x, i))
        .collect();
    by_y.sort_unstable();
    let mut parent: Vec<usize> = (0..by_x.len()).collect();
    for w in wires {
        let a = id(w.from);
        let (lo, hi) = (
            (w.from.x.min(w.to.x), w.from.y.min(w.to.y)),
            (w.from.x.max(w.to.x), w.from.y.max(w.to.y)),
        );
        if lo.0 == hi.0 {
            let first = by_x.partition_point(|&q| q < lo);
            let last = by_x.partition_point(|&q| q <= hi);
            for b in first..last {
                union(&mut parent, a, b);
            }
        } else if lo.1 == hi.1 {
            let first = by_y.partition_point(|&(y, x, _)| (y, x) < (lo.1, lo.0));
            let last = by_y.partition_point(|&(y, x, _)| (y, x) <= (hi.1, hi.0));
            for &(.., b) in &by_y[first..last] {
                union(&mut parent, a, b);
            }
        } else {
            for (b, &(x, y)) in by_x.iter().enumerate() {
                if on_segment(Point::new(x, y), w) {
                    union(&mut parent, a, b);
                }
            }
        }
    }

    let source = find(&mut parent, id(sn.pins[0]));
    let unreached = sn
        .pins
        .iter()
        .filter(|&&p| find(&mut parent, id(p)) != source)
        .count();
    (unreached > 0).then(|| {
        format!(
            "{unreached} of {} pins not connected to the source",
            sn.pins.len()
        )
    })
}

/// The all-pairs open-net check that [`open_net_message`] replaced, kept
/// as the oracle of its differential test.
#[cfg(test)]
fn reference_open_net_message(sn: &SideNet, wires: &[DefWire]) -> Option<String> {
    let distinct_pins: FxHashSet<Point> = sn.pins.iter().copied().collect();
    if distinct_pins.len() < 2 {
        return None; // a lone (or fully coincident) pin set needs no wire
    }
    if wires.is_empty() {
        return Some(format!("{} pins but no routed wires", sn.pins.len()));
    }

    let mut ids: FxHashMap<Point, usize> = FxHashMap::default();
    let mut parent: Vec<usize> = Vec::new();
    for p in wires
        .iter()
        .flat_map(|w| [w.from, w.to])
        .chain(sn.pins.iter().copied())
    {
        ids.entry(p).or_insert_with(|| {
            parent.push(parent.len());
            parent.len() - 1
        });
    }
    // Union-find reduction: every on-segment point is unioned into the
    // same component regardless of visit order, so the key order cannot
    // reach the verdict.
    let all_points: Vec<Point> = ids.keys().copied().collect();
    for w in wires {
        let a = ids[&w.from];
        for &p in &all_points {
            if on_segment(p, w) {
                union(&mut parent, a, ids[&p]);
            }
        }
    }

    let source = find(&mut parent, ids[&sn.pins[0]]);
    let unreached = sn
        .pins
        .iter()
        .filter(|p| find(&mut parent, ids[p]) != source)
        .count();
    (unreached > 0).then(|| {
        format!(
            "{unreached} of {} pins not connected to the source",
            sn.pins.len()
        )
    })
}

fn on_segment(p: Point, w: &DefWire) -> bool {
    let (lo_x, hi_x) = (w.from.x.min(w.to.x), w.from.x.max(w.to.x));
    let (lo_y, hi_y) = (w.from.y.min(w.to.y), w.from.y.max(w.to.y));
    (lo_x..=hi_x).contains(&p.x) && (lo_y..=hi_y).contains(&p.y)
}

fn find(parent: &mut [usize], mut i: usize) -> usize {
    while parent[i] != i {
        parent[i] = parent[parent[i]];
        i = parent[i];
    }
    i
}

fn union(parent: &mut [usize], a: usize, b: usize) {
    let ra = find(parent, a);
    let rb = find(parent, b);
    if ra != rb {
        parent[ra] = rb;
    }
}

/// Checks placement legality statically: site/row alignment, overlaps,
/// Power Tap blockages (all via the shared legalizer checker) plus
/// core-boundary containment.
#[must_use]
pub fn check_placement(netlist: &Netlist, library: &Library, pnr: &PnrResult) -> Vec<Violation> {
    let mut out = Vec::new();
    let tech = library.tech();

    if pnr.placement.origins.len() != netlist.instances().len() {
        out.push(Violation {
            rule: "place.count",
            severity: Severity::Error,
            subject: netlist.name().to_owned(),
            location: None,
            message: format!(
                "placement has {} origins for {} instances",
                pnr.placement.origins.len(),
                netlist.instances().len()
            ),
        });
        return out;
    }

    for v in check_legality(
        netlist,
        library,
        &pnr.floorplan,
        &pnr.powerplan,
        &pnr.placement,
    ) {
        let (rule, subject, message) = match v {
            LegalityViolation::OffGrid { instance } => (
                "place.off-site",
                instance,
                "origin is not on a placement site".to_owned(),
            ),
            LegalityViolation::OutOfRow { instance } => (
                "place.off-row",
                instance,
                "cell extends outside its row".to_owned(),
            ),
            LegalityViolation::Overlap { a, b } => {
                ("place.overlap", a, format!("overlaps instance {b}"))
            }
            LegalityViolation::TapOverlap { instance } => (
                "place.tap-overlap",
                instance,
                "overlaps a Power Tap Cell blockage".to_owned(),
            ),
        };
        out.push(Violation {
            rule,
            severity: Severity::Warning,
            subject,
            location: None,
            message,
        });
    }

    for (i, inst) in netlist.instances().iter().enumerate() {
        let cell = library.cell(inst.cell);
        let origin = pnr.placement.origins[i];
        let rect = Rect::from_origin_size(origin, cell.width_cpp * tech.cpp(), tech.cell_height());
        if !pnr.floorplan.core.contains_rect(&rect) {
            out.push(Violation {
                rule: "place.boundary",
                severity: Severity::Warning,
                subject: inst.name.clone(),
                location: Some(origin),
                message: "cell is not fully inside the core area".to_owned(),
            });
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffet_geom::Point;
    use ffet_netlist::NetId;
    use ffet_tech::LayerId;

    fn wire(layer: LayerId, from: (i64, i64), to: (i64, i64)) -> DefWire {
        DefWire {
            layer,
            from: Point::new(from.0, from.1),
            to: Point::new(to.0, to.1),
        }
    }

    #[test]
    fn open_check_accepts_t_junctions_and_through_pins() {
        let fm2 = LayerId::new(Side::Front, 2);
        let fm1 = LayerId::new(Side::Front, 1);
        // Trunk passes *through* pin B; branch T-joins mid-trunk to pin C.
        let sn = SideNet {
            net: NetId(0),
            side: Side::Front,
            pins: vec![Point::new(0, 0), Point::new(50, 0), Point::new(70, 40)],
            is_clock: false,
        };
        let wires = vec![wire(fm2, (0, 0), (100, 0)), wire(fm1, (70, 0), (70, 40))];
        assert_eq!(open_net_message(&sn, &wires), None);
    }

    #[test]
    fn open_check_flags_disconnected_pin() {
        let fm2 = LayerId::new(Side::Front, 2);
        let sn = SideNet {
            net: NetId(0),
            side: Side::Front,
            pins: vec![Point::new(0, 0), Point::new(100, 0), Point::new(500, 500)],
            is_clock: false,
        };
        let wires = vec![wire(fm2, (0, 0), (100, 0))];
        let msg = open_net_message(&sn, &wires).expect("pin (500,500) is open");
        assert!(msg.contains("1 of 3"), "{msg}");
    }

    #[test]
    fn open_check_flags_unrouted_multi_pin_net() {
        let sn = SideNet {
            net: NetId(0),
            side: Side::Back,
            pins: vec![Point::new(0, 0), Point::new(9, 9)],
            is_clock: false,
        };
        assert!(open_net_message(&sn, &[]).is_some());
        // A single-pin side net needs no geometry.
        let lone = SideNet {
            net: NetId(0),
            side: Side::Back,
            pins: vec![Point::new(0, 0)],
            is_clock: false,
        };
        assert_eq!(open_net_message(&lone, &[]), None);
    }

    #[test]
    fn open_check_matches_the_all_pairs_oracle() {
        // Pins and wire ends on an 8×8 lattice, so pins land on wire ends,
        // mid-segment and off every wire; wires are mostly on one track,
        // some are points and some run diagonally.
        let fm1 = LayerId::new(Side::Front, 1);
        let mut rng = ffet_geom::Rng64::new(0x0be7);
        let at = |rng: &mut ffet_geom::Rng64| {
            Point::new(10 * rng.range_i64(0, 8), 10 * rng.range_i64(0, 8))
        };
        let mut verdicts = [0usize; 2];
        for case in 0..2_000 {
            let pins: Vec<Point> = (0..rng.range_usize(1, 7)).map(|_| at(&mut rng)).collect();
            let wires: Vec<DefWire> = (0..rng.range_usize(0, 9))
                .map(|_| {
                    let from = at(&mut rng);
                    let to = match rng.range_usize(0, 10) {
                        0 => from,
                        1 => at(&mut rng),
                        2..=5 => Point::new(from.x, at(&mut rng).y),
                        _ => Point::new(at(&mut rng).x, from.y),
                    };
                    DefWire {
                        layer: fm1,
                        from,
                        to,
                    }
                })
                .collect();
            let sn = SideNet {
                net: NetId(0),
                side: Side::Front,
                pins,
                is_clock: false,
            };
            let got = open_net_message(&sn, &wires);
            assert_eq!(
                got,
                reference_open_net_message(&sn, &wires),
                "case {case}: pins {:?}, wires {wires:?}",
                sn.pins
            );
            verdicts[usize::from(got.is_some())] += 1;
        }
        assert!(verdicts.iter().all(|&v| v > 200), "{verdicts:?}");
    }
}
