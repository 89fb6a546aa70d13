//! Equivalence tests of the routing hot-path rewrite.
//!
//! The zero-allocation kernels (epoch-stamped scratch, windowed A*,
//! incremental candidate costing, dirty-set rip-up) are all claimed to be
//! *bit-identical* to the straightforward implementations they replaced —
//! not approximations. These tests pin that claim against the retained
//! reference kernel on seeded random congestion landscapes, and check the
//! dirty-set bookkeeping through the observability counters.

use ffet_geom::{Axis, Point, Rect, Rng64};
use ffet_netlist::NetId;
use ffet_pnr::maze::{self, MazeScratch};
use ffet_pnr::{pattern_path, route_nets_opts, RouteOpts, RoutingGrid, SideNet};
use ffet_tech::{RoutingPattern, Side, Technology};

/// A grid over a `die`-nm square with seeded random demand sprinkled on
/// both sides: some smooth background load plus a few saturated hotspot
/// cells that force maze detours.
fn random_grid(rng: &mut Rng64, die: i64) -> RoutingGrid {
    let tech = Technology::ffet_3p5t();
    let pattern = RoutingPattern::new(6, 6).expect("legal");
    let mut grid = RoutingGrid::new(&tech, Rect::new(0, 0, die, die), pattern);
    for _ in 0..200 {
        let at = Point::new(rng.range_i64(0, die - 1), rng.range_i64(0, die - 1));
        let side = if rng.next_u64() & 1 == 0 {
            Side::Front
        } else {
            Side::Back
        };
        let g = grid.gcell_at(at);
        let axis = if rng.next_u64() & 1 == 0 {
            Axis::Horizontal
        } else {
            Axis::Vertical
        };
        // Mostly light demand, occasionally enough to saturate the cell.
        let amount = if rng.next_u64().is_multiple_of(5) {
            40.0
        } else {
            3.0
        };
        grid.add_demand(side, g, axis, amount);
    }
    for _ in 0..40 {
        let at = Point::new(rng.range_i64(0, die - 1), rng.range_i64(0, die - 1));
        grid.add_pin(Side::Front, at);
    }
    grid
}

/// Windowed + scratch-backed searches return exactly the reference kernel's
/// path (same cells, same cost) on random congestion landscapes, and the
/// scratch behaves identically whether fresh or reused across calls.
#[test]
fn maze_kernels_match_reference_on_random_grids() {
    let die = 60_000i64;
    let mut rng = Rng64::new(0x3a2e);
    let mut reused = MazeScratch::new();
    for case in 0..20 {
        let grid = random_grid(&mut rng, die);
        for pair in 0..8 {
            let from = Point::new(rng.range_i64(0, die - 1), rng.range_i64(0, die - 1));
            let to = Point::new(rng.range_i64(0, die - 1), rng.range_i64(0, die - 1));
            let side = if rng.next_u64() & 1 == 0 {
                Side::Front
            } else {
                Side::Back
            };
            let reference = maze::reference_path(&grid, side, from, to);
            let mut fresh = MazeScratch::new();
            let full = maze::maze_path_full(&grid, side, from, to, &mut fresh);
            let windowed = maze::maze_path(&grid, side, from, to, &mut reused);
            assert_eq!(
                full, reference,
                "scratch full-grid diverged (case {case}, pair {pair})"
            );
            assert_eq!(
                windowed, reference,
                "windowed search diverged (case {case}, pair {pair})"
            );
            if let (Some(w), Some(r)) = (&windowed, &reference) {
                let wc = maze::path_cost(&grid, side, w);
                let rc = maze::path_cost(&grid, side, r);
                assert_eq!(
                    wc.to_bits(),
                    rc.to_bits(),
                    "windowed cost not bit-identical (case {case}, pair {pair})"
                );
            }
        }
    }
}

/// The incremental (run-cost accumulator) pattern router picks the same
/// path as summing materialized candidates would: its winner's cost equals
/// `path_cost` of itself, and no maze detour beats it on an uncongested
/// grid (where pattern candidates are optimal).
#[test]
fn pattern_path_agrees_with_path_cost_and_maze_on_empty_grid() {
    let die = 40_000i64;
    let tech = Technology::ffet_3p5t();
    let pattern = RoutingPattern::new(6, 6).expect("legal");
    let grid = RoutingGrid::new(&tech, Rect::new(0, 0, die, die), pattern);
    let mut rng = Rng64::new(0xface);
    let mut scratch = MazeScratch::new();
    for _ in 0..50 {
        let from = Point::new(rng.range_i64(0, die - 1), rng.range_i64(0, die - 1));
        let to = Point::new(rng.range_i64(0, die - 1), rng.range_i64(0, die - 1));
        let p = pattern_path(&grid, Side::Front, from, to);
        assert!(!p.is_empty());
        let pc = maze::path_cost(&grid, Side::Front, &p);
        let m = maze::maze_path(&grid, Side::Front, from, to, &mut scratch).expect("reachable");
        let mc = maze::path_cost(&grid, Side::Front, &m);
        // On a uniform-cost grid every monotone path is optimal, so the
        // pattern winner must tie the maze optimum exactly.
        assert_eq!(pc.to_bits(), mc.to_bits(), "pattern beat/lost to maze");
    }
}

/// A congestion-free routing run never enters a rip-up round: the dirty-set
/// counters are absent from the collected metrics.
#[test]
fn congestion_free_run_visits_no_connections() {
    let collector = ffet_obs::Collector::new();
    let guard = collector.install();
    let die = 30_000i64;
    let tech = Technology::ffet_3p5t();
    let pattern = RoutingPattern::new(6, 6).expect("legal");
    let mut grid = RoutingGrid::new(&tech, Rect::new(0, 0, die, die), pattern);
    let side_nets = vec![SideNet {
        net: NetId(0),
        side: Side::Front,
        pins: vec![Point::new(1_000, 1_000), Point::new(20_000, 18_000)],
        is_clock: false,
    }];
    let result = route_nets_opts(&tech, &mut grid, &side_nets, pattern, &RouteOpts::default());
    drop(guard);
    assert_eq!(result.drv_count, 0, "single net must route cleanly");
    let data = collector.finish();
    assert!(
        !data.metrics.counters.contains_key("route.dirty.visited"),
        "no rip-up round should have run: {:?}",
        data.metrics.counters
    );
    assert!(!data.metrics.counters.contains_key("route.ripups"));
}

/// Overflow that no connection's path crosses (pin-access demand in a far
/// corner) forces rip-up rounds to run, but the dirty-set worklist stays
/// empty: the inverted index proves no connection is affected without
/// scanning any paths.
#[test]
fn unrelated_overflow_keeps_dirty_set_empty() {
    let collector = ffet_obs::Collector::new();
    let guard = collector.install();
    let die = 30_000i64;
    let tech = Technology::ffet_3p5t();
    let pattern = RoutingPattern::new(6, 6).expect("legal");
    let mut grid = RoutingGrid::new(&tech, Rect::new(0, 0, die, die), pattern);
    // Saturate a far-corner GCell with pin demand no route will touch.
    let corner = Point::new(die - 200, die - 200);
    for _ in 0..100 {
        grid.add_pin(Side::Front, corner);
    }
    assert!(grid.total_overflow() > 0.0, "corner must overflow");
    let side_nets = vec![SideNet {
        net: NetId(0),
        side: Side::Front,
        pins: vec![Point::new(500, 500), Point::new(4_000, 3_000)],
        is_clock: false,
    }];
    let _ = route_nets_opts(&tech, &mut grid, &side_nets, pattern, &RouteOpts::default());
    drop(guard);
    let data = collector.finish();
    assert!(
        data.metrics.counters["route.rounds"] > 0,
        "overflow must trigger rounds"
    );
    assert_eq!(
        data.metrics.counters["route.dirty.visited"], 0,
        "no connection crosses the hotspot, so the worklist must stay empty"
    );
    assert_eq!(data.metrics.counters["route.ripups"], 0);
}
