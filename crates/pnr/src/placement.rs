use crate::calib::{MAX_LEGALIZE_DISPLACEMENT_CPP, PLACEMENT_ITERATIONS};
use crate::floorplan::Floorplan;
use crate::powerplan::PowerPlan;
use ffet_cells::Library;
use ffet_geom::Rng64;
use ffet_geom::{Nm, Orientation, Point, Rect};
use ffet_netlist::Netlist;

/// A legalized placement of every netlist instance.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    /// Lower-left origin per instance (indexed by `InstId`), nm.
    pub origins: Vec<Point>,
    /// Row orientation per instance.
    pub orients: Vec<Orientation>,
    /// Cells that could not be legalized within the displacement bound —
    /// the "placement violations between standard cells and Power Tap
    /// Cells" that cap utilization in the paper's Fig. 8.
    pub violations: u32,
    /// Half-perimeter wirelength estimate after legalization, nm.
    pub hpwl_nm: i64,
    /// Port positions on the die boundary (indexed by `PortId`), nm.
    pub port_positions: Vec<Point>,
}

impl Placement {
    /// Center of an instance given its library cell width.
    #[must_use]
    pub fn center(&self, inst: usize, width_nm: Nm, row_height: Nm) -> Point {
        Point::new(
            self.origins[inst].x + width_nm / 2,
            self.origins[inst].y + row_height / 2,
        )
    }
}

/// One free interval of sites in a row (between Power Tap Cells):
/// `cursor` is the next free site, `end` one past the last.
#[derive(Debug, Clone)]
struct Segment {
    end: i64,
    cursor: i64,
}

/// Places the netlist: seeded initial spread, force-directed refinement
/// with row-projection spreading, then Tetris-style legalization that
/// respects Power Tap Cell blockages and the bounded-displacement rule.
#[must_use]
pub fn place(
    netlist: &Netlist,
    library: &Library,
    floorplan: &Floorplan,
    powerplan: &PowerPlan,
    seed: u64,
) -> Placement {
    let tech = library.tech();
    let cpp = tech.cpp() as f64;
    let row_h = tech.cell_height();
    let n = netlist.instances().len();
    let die = floorplan.die;
    let widths: Vec<i64> = netlist
        .instances()
        .iter()
        .map(|inst| library.cell(inst.cell).width_cpp)
        .collect();

    // IO planning: ports spread evenly around the die boundary.
    let port_positions = plan_ports(netlist, die);

    // ---- Initial placement: connectivity-driven serpentine fill ----
    // A Cuthill–McKee-style BFS over the cell adjacency graph produces an
    // ordering in which connected cells are close; mapping that order
    // serpentine onto the rows gives the force-directed refinement a
    // structured starting point instead of a random one.
    let mut rng = Rng64::new(seed);
    let order = connectivity_order(netlist, &mut rng);
    let mut x = vec![0.0f64; n];
    let mut y = vec![0.0f64; n];
    {
        let sites_per_row = floorplan.rows.first().map_or(1, |r| r.sites) as f64;
        let mut cur_x = 0.0f64;
        let mut cur_row = 0usize;
        let fill = floorplan.target_utilization.max(0.05);
        for &i in &order {
            let w = widths[i] as f64 / fill;
            if cur_x + w > sites_per_row {
                cur_x = 0.0;
                cur_row = (cur_row + 1) % floorplan.rows.len().max(1);
            }
            // Serpentine: odd rows fill right-to-left so the order stays
            // contiguous across row boundaries.
            let along = if cur_row.is_multiple_of(2) {
                cur_x + w / 2.0
            } else {
                sites_per_row - cur_x - w / 2.0
            };
            x[i] = floorplan.rows[cur_row].x as f64 + along * cpp;
            y[i] = floorplan.rows[cur_row].y as f64 + 0.5 * row_h as f64;
            cur_x += w;
        }
    }

    // ---- SimPL-style quadratic refinement ----
    // Each outer iteration: solve the B2B quadratic program per axis
    // (wirelength lower bound), then compute a density-feasible spread of
    // the solution (upper bound) and use it as the anchor set of the next
    // solve, with geometrically increasing anchor weight.
    let qp_nets = crate::qp::QpNets::build(netlist, &port_positions);
    let fixed_mask: Vec<bool> = netlist.instances().iter().map(|i| i.fixed).collect();
    if !qp_nets.is_empty() {
        let mut anchor_x = x.clone();
        let mut anchor_y = y.clone();
        let mut solver = crate::qp::QpSolver::default();
        let mut spread_scratch = SpreadScratch::default();
        for outer in 0..PLACEMENT_ITERATIONS {
            let anchor_w = 1e-5 * (1.55f64).powi(outer as i32);
            solver.solve(
                &qp_nets,
                &mut x,
                &mut y,
                &anchor_x,
                &anchor_y,
                anchor_w,
                &fixed_mask,
            );
            anchor_x.copy_from_slice(&x);
            anchor_y.copy_from_slice(&y);
            spread(
                floorplan,
                &widths,
                &mut anchor_x,
                &mut anchor_y,
                cpp,
                row_h,
                &mut spread_scratch,
            );
        }
        // Hand the legalizer the density-feasible upper-bound positions.
        x = anchor_x;
        y = anchor_y;
    }

    // ---- Legalization ----
    legalize(
        netlist,
        library,
        floorplan,
        powerplan,
        &x,
        &y,
        &widths,
        port_positions,
    )
}

/// BFS (Cuthill–McKee-like) ordering of the instances over the net
/// adjacency graph. Clock nets and very-high-fanout nets are skipped (they
/// connect everything and carry no locality information).
fn connectivity_order(netlist: &Netlist, rng: &mut Rng64) -> Vec<usize> {
    let n = netlist.instances().len();
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
    for net in netlist.nets() {
        if net.is_clock || net.degree() > 24 {
            continue;
        }
        let mut members: Vec<u32> = Vec::with_capacity(net.degree());
        if let Some(d) = net.driver {
            members.push(d.inst.0);
        }
        for s in &net.sinks {
            members.push(s.inst.0);
        }
        // Star connectivity around the first member keeps the graph sparse.
        for &m in &members[1..] {
            if m != members[0] {
                adj[members[0] as usize].push(m);
                adj[m as usize].push(members[0]);
            }
        }
    }
    let mut seeds: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut seeds);
    let mut order = Vec::with_capacity(n);
    let mut visited = vec![false; n];
    for seed in seeds {
        if visited[seed] {
            continue;
        }
        visited[seed] = true;
        let mut queue = std::collections::VecDeque::from([seed]);
        while let Some(u) = queue.pop_front() {
            order.push(u);
            let mut next: Vec<u32> = adj[u]
                .iter()
                .copied()
                .filter(|&v| !visited[v as usize])
                .collect();
            next.sort_unstable();
            next.dedup();
            // Lower-degree neighbours first (classic Cuthill–McKee).
            next.sort_by_key(|&v| adj[v as usize].len());
            for v in next {
                if !visited[v as usize] {
                    visited[v as usize] = true;
                    queue.push_back(v as usize);
                }
            }
        }
    }
    order
}

/// Buffers of [`spread`], reused across the outer iterations of `place`.
#[derive(Debug, Default)]
struct SpreadScratch {
    /// Sort keys `(y, x, cell)` of every cell.
    keys: Vec<(i64, i64, u32)>,
    /// Per row, its cells' sort keys `(x, y, cell)`.
    row_members: Vec<Vec<(i64, i64, u32)>>,
}

/// `v` as an integer that orders like [`f64::total_cmp`], by the same bit
/// trick: negative values have their magnitude bits flipped.
fn total_key(v: f64) -> i64 {
    let bits = v.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// Density projection: bins cells into rows by y order, then spreads each
/// row's cells along x in sorted order proportionally to capacity.
///
/// Cells are ordered by `(y, x, index)` and then, per row, by
/// `(x, y, index)`: the orders of stable `total_cmp` sorts by `(y, x)`
/// from index order and then by `x`. The keys are unique, so an unstable
/// sort finds that order.
fn spread(
    floorplan: &Floorplan,
    widths: &[i64],
    x: &mut [f64],
    y: &mut [f64],
    cpp: f64,
    row_h: Nm,
    scratch: &mut SpreadScratch,
) {
    let n_rows = floorplan.rows.len().max(1);
    let SpreadScratch { keys, row_members } = scratch;
    keys.clear();
    keys.extend((0..x.len()).map(|i| (total_key(y[i]), total_key(x[i]), i as u32)));
    keys.sort_unstable();
    // Allocate cells to rows with equal total width per row.
    let total_w: i64 = widths.iter().sum();
    let per_row = total_w as f64 / n_rows as f64;
    let mut row = 0usize;
    let mut acc = 0.0;
    row_members.resize_with(n_rows, Vec::new);
    for members in row_members.iter_mut() {
        members.clear();
    }
    for &(ky, kx, i) in keys.iter() {
        if acc > per_row && row + 1 < n_rows {
            row += 1;
            acc = 0.0;
        }
        acc += widths[i as usize] as f64;
        row_members[row].push((kx, ky, i));
    }
    for (r, members) in row_members.iter_mut().enumerate() {
        members.sort_unstable();
        let row_sites = floorplan.rows[r].sites as f64;
        let used: f64 = members
            .iter()
            .map(|&(.., i)| widths[i as usize] as f64)
            .sum();
        // Keep ~4% of the row free: Power Tap Cells occupy ~3% of the
        // sites and the legalizer needs slack to pack around them.
        let usable = row_sites * 0.96;
        let scale = if used > 0.0 {
            (usable / used).min(1.0 / floorplan.target_utilization.max(0.05))
        } else {
            1.0
        };
        let mut cursor = 0.0;
        // Center the packed row.
        let span = used * scale;
        let offset = ((row_sites - span) / 2.0).max(0.0);
        for &(.., i) in members.iter() {
            let i = i as usize;
            let w = widths[i] as f64 * scale;
            x[i] = floorplan.rows[r].x as f64 + (offset + cursor + w / 2.0) * cpp;
            y[i] = floorplan.rows[r].y as f64 + 0.5 * row_h as f64;
            cursor += w;
        }
    }
}

/// Tetris legalization over tap-free segments, with bounded displacement.
#[allow(clippy::too_many_arguments)]
fn legalize(
    netlist: &Netlist,
    library: &Library,
    floorplan: &Floorplan,
    powerplan: &PowerPlan,
    x: &[f64],
    y: &[f64],
    widths: &[i64],
    port_positions: Vec<Point>,
) -> Placement {
    let tech = library.tech();
    let cpp = tech.cpp();
    let row_h = tech.cell_height();
    let n = x.len();
    let n_rows = floorplan.rows.len();

    // Build free segments per row from tap blockages.
    let mut segments: Vec<Vec<Segment>> = Vec::with_capacity(n_rows);
    for (r, row) in floorplan.rows.iter().enumerate() {
        let mut blocked: Vec<(i64, i64)> = powerplan
            .taps
            .iter()
            .filter(|t| t.row == r)
            .map(|t| (t.site, t.site + t.width_sites))
            .collect();
        blocked.sort_unstable();
        // Sites are indexed in absolute CPP units (row.x is CPP-aligned).
        let base = row.x / cpp;
        let row_end = base + row.sites;
        let mut segs = Vec::new();
        let mut start = base;
        for (b0, b1) in blocked {
            if b0 > start {
                segs.push(Segment {
                    end: b0.min(row_end),
                    cursor: start,
                });
            }
            start = start.max(b1);
        }
        if start < row_end {
            segs.push(Segment {
                end: row_end,
                cursor: start,
            });
        }
        segments.push(segs);
    }

    // Process cells in x order (Tetris sweep).
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| x[a].total_cmp(&x[b]));
    let mut origins = vec![Point::ORIGIN; n];
    let mut orients = vec![Orientation::North; n];
    let mut violations = 0u32;

    for &i in &order {
        let w = widths[i];
        let want_site = (x[i] / cpp as f64).round() as i64 - w / 2;
        let row0_y = floorplan.rows.first().map_or(0, |r| r.y) as f64;
        let want_row =
            (((y[i] - row0_y) / row_h as f64 - 0.5).round() as i64).clamp(0, n_rows as i64 - 1);

        let mut best: Option<(i64, usize, usize)> = None; // (cost, row, seg)
        for dr in 0..n_rows as i64 {
            for cand in [want_row - dr, want_row + dr] {
                if cand < 0 || cand >= n_rows as i64 || (dr > 0 && cand == want_row) {
                    continue;
                }
                let r = cand as usize;
                let row_cost = dr * (row_h / cpp).max(1) * 2;
                if let Some((c0, _, _)) = best {
                    if row_cost >= c0 {
                        continue;
                    }
                }
                for (si, seg) in segments[r].iter().enumerate() {
                    if seg.end - seg.cursor < w {
                        continue;
                    }
                    let site = want_site.clamp(seg.cursor, seg.end - w);
                    let cost = (site - want_site).abs() + row_cost;
                    if best.is_none_or(|(c0, _, _)| cost < c0) {
                        best = Some((cost, r, si));
                    }
                }
            }
            if let Some((c, _, _)) = best {
                // Rows farther out cost at least (dr+1) × row step even with
                // zero displacement; stop once the incumbent beats that.
                if c <= (dr + 1) * (row_h / cpp).max(1) * 2 {
                    break;
                }
            }
        }

        match best {
            Some((cost, r, si)) => {
                ffet_obs::observe("place.displacement_cpp", cost as f64);
                if cost > MAX_LEGALIZE_DISPLACEMENT_CPP {
                    violations += 1;
                    ffet_obs::counter_add("place.legalize_violations", 1);
                }
                let seg = &mut segments[r][si];
                let site = want_site.clamp(seg.cursor, seg.end - w);
                seg.cursor = site + w;
                origins[i] = Point::new(site * cpp, floorplan.rows[r].y);
                orients[i] = floorplan.rows[r].orient;
            }
            None => {
                // Nowhere to put it at all: count and stack at origin.
                violations += 1;
                ffet_obs::counter_add("place.legalize_violations", 1);
                origins[i] = Point::new(0, 0);
            }
        }
    }

    let hpwl = hpwl(netlist, library, &origins, &port_positions, row_h);
    Placement {
        origins,
        orients,
        violations,
        hpwl_nm: hpwl,
        port_positions,
    }
}

/// Half-perimeter wirelength of all signal nets.
fn hpwl(
    netlist: &Netlist,
    library: &Library,
    origins: &[Point],
    ports: &[Point],
    row_h: Nm,
) -> i64 {
    let cpp = library.tech().cpp();
    let mut total = 0i64;
    let port_net: ffet_geom::FxHashMap<u32, Point> = netlist
        .ports()
        .iter()
        .enumerate()
        .map(|(pi, p)| (p.net.0, ports[pi]))
        .collect();
    for (ni, net) in netlist.nets().iter().enumerate() {
        if net.degree() < 2 && !port_net.contains_key(&(ni as u32)) {
            continue;
        }
        let mut pts: Vec<Point> = Vec::with_capacity(net.degree() + 1);
        let mut push_pin = |inst: u32, pin: usize| {
            let cell = library.cell(netlist.instances()[inst as usize].cell);
            let px = origins[inst as usize].x + cell.pins[pin].offset_cpp * cpp;
            pts.push(Point::new(px, origins[inst as usize].y + row_h / 2));
        };
        if let Some(d) = net.driver {
            push_pin(d.inst.0, d.pin);
        }
        for s in &net.sinks {
            push_pin(s.inst.0, s.pin);
        }
        if let Some(p) = port_net.get(&(ni as u32)) {
            pts.push(*p);
        }
        if let Some(bb) = Rect::bounding(pts) {
            total += bb.half_perimeter();
        }
    }
    total
}

/// Spreads ports evenly around the die boundary (IO planning).
fn plan_ports(netlist: &Netlist, die: Rect) -> Vec<Point> {
    let n = netlist.ports().len();
    if n == 0 {
        return Vec::new();
    }
    let perimeter = 2 * (die.width() + die.height());
    let step = perimeter / n as i64;
    let mut positions = Vec::with_capacity(n);
    // All ports interleave around the perimeter in declaration order —
    // bus bits stay contiguous (as a real floorplan keeps them) but no
    // single edge collects a whole direction's traffic.
    let along = |dist: i64| -> Point {
        let d = dist.rem_euclid(perimeter);
        if d < die.width() {
            Point::new(die.lo.x + d, die.lo.y)
        } else if d < die.width() + die.height() {
            Point::new(die.hi.x, die.lo.y + (d - die.width()))
        } else if d < 2 * die.width() + die.height() {
            Point::new(die.hi.x - (d - die.width() - die.height()), die.hi.y)
        } else {
            Point::new(die.lo.x, die.hi.y - (d - 2 * die.width() - die.height()))
        }
    };
    for (i, _port) in netlist.ports().iter().enumerate() {
        positions.push(along(i as i64 * step));
    }
    positions
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::floorplan::floorplan;
    use crate::powerplan::powerplan;
    use ffet_netlist::NetlistBuilder;
    use ffet_tech::{RoutingPattern, Technology};

    fn chain_netlist(lib: &Library, n: usize) -> Netlist {
        let mut b = NetlistBuilder::new(lib, "chain");
        let mut x = b.input("x");
        for _ in 0..n {
            x = b.not(x);
        }
        b.output("y", x);
        b.finish()
    }

    fn setup(util: f64) -> (Library, Netlist, Floorplan, PowerPlan) {
        let lib = Library::new(Technology::ffet_3p5t());
        let nl = chain_netlist(&lib, 600);
        let fp = floorplan(&nl, &lib, util, 1.0).unwrap();
        let pp = powerplan(&fp, &lib, RoutingPattern::new(12, 12).unwrap());
        (lib, nl, fp, pp)
    }

    #[test]
    fn total_key_orders_like_total_cmp() {
        let values = [
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            -f64::MAX,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            1e-310,
            -1e-310,
            0.0,
            -0.0,
            1.0,
            -1.0,
            135.0,
            135.0,
            -2.5e9,
        ];
        for a in values {
            for b in values {
                assert_eq!(
                    total_key(a).cmp(&total_key(b)),
                    a.total_cmp(&b),
                    "{a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn placement_is_legal_no_overlaps() {
        let (lib, nl, fp, pp) = setup(0.6);
        let pl = place(&nl, &lib, &fp, &pp, 1);
        assert_eq!(pl.violations, 0);
        let tech = lib.tech();
        // No two cells in the same row overlap.
        let mut rects: Vec<Rect> = Vec::new();
        for (i, inst) in nl.instances().iter().enumerate() {
            let w = lib.cell(inst.cell).width_cpp * tech.cpp();
            let r = Rect::from_origin_size(pl.origins[i], w, tech.cell_height());
            assert!(fp.die.contains_rect(&r), "cell {i} out of die");
            rects.push(r);
        }
        for i in 0..rects.len() {
            for j in (i + 1)..rects.len() {
                assert!(
                    !rects[i].overlaps_strictly(&rects[j]),
                    "cells {i} and {j} overlap"
                );
            }
        }
    }

    #[test]
    fn cells_avoid_power_taps() {
        let (lib, nl, fp, pp) = setup(0.7);
        let pl = place(&nl, &lib, &fp, &pp, 2);
        let tech = lib.tech();
        let tap_rects: Vec<Rect> = pp
            .taps
            .iter()
            .map(|t| {
                Rect::from_origin_size(
                    Point::new(t.site * tech.cpp(), fp.rows[t.row].y),
                    t.width_sites * tech.cpp(),
                    tech.cell_height(),
                )
            })
            .collect();
        for (i, inst) in nl.instances().iter().enumerate() {
            let w = lib.cell(inst.cell).width_cpp * tech.cpp();
            let r = Rect::from_origin_size(pl.origins[i], w, tech.cell_height());
            for (ti, t) in tap_rects.iter().enumerate() {
                assert!(!r.overlaps_strictly(t), "cell {i} overlaps tap {ti}");
            }
        }
    }

    #[test]
    fn placement_is_deterministic() {
        let (lib, nl, fp, pp) = setup(0.6);
        let a = place(&nl, &lib, &fp, &pp, 7);
        let b = place(&nl, &lib, &fp, &pp, 7);
        assert_eq!(a.origins, b.origins);
        let c = place(&nl, &lib, &fp, &pp, 8);
        assert_ne!(a.origins, c.origins, "different seeds differ");
    }

    #[test]
    fn refinement_beats_random_wirelength() {
        // A chain netlist placed well has far lower HPWL than a shuffled
        // spread; the refinement must capture most of that.
        let (lib, nl, fp, pp) = setup(0.5);
        let pl = place(&nl, &lib, &fp, &pp, 3);
        // Lower bound: perfectly ordered chain ≈ sum of cell widths.
        let ideal: i64 = nl
            .instances()
            .iter()
            .map(|i| lib.cell(i.cell).width_cpp * lib.tech().cpp())
            .sum();
        // Random placement on this die would be ~ n_nets × die_span / 3.
        let die_span = (fp.die.width() + fp.die.height()) / 2;
        let random_est = nl.nets().len() as i64 * die_span / 3;
        assert!(
            pl.hpwl_nm < random_est * 3 / 4,
            "hpwl {} not clearly better than random {}",
            pl.hpwl_nm,
            random_est
        );
        assert!(pl.hpwl_nm >= ideal / 2, "hpwl below physical lower bound?");
    }

    #[test]
    fn extreme_utilization_reports_violations() {
        let lib = Library::new(Technology::ffet_3p5t());
        let nl = chain_netlist(&lib, 600);
        let fp = floorplan(&nl, &lib, 0.99, 1.0).unwrap();
        let pp = powerplan(&fp, &lib, RoutingPattern::new(12, 12).unwrap());
        let pl = place(&nl, &lib, &fp, &pp, 1);
        assert!(pl.violations > 0, "99% util with taps must violate");
    }
}
