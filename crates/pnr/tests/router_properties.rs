//! Property tests of the global router's public invariants, driven by the
//! workspace's deterministic PRNG.

use ffet_geom::{Point, Rng64};
use ffet_netlist::NetId;
use ffet_pnr::{route_nets_opts, RouteOpts, RoutingGrid, SideNet};
use ffet_tech::{RoutingPattern, Side, Technology};

fn random_side_net(rng: &mut Rng64, idx: u32, die: i64) -> SideNet {
    let k = rng.range_usize(2, 6);
    let pins: Vec<Point> = (0..k)
        .map(|_| Point::new(rng.range_i64(100, die - 100), rng.range_i64(100, die - 100)))
        .collect();
    SideNet {
        net: NetId(idx),
        side: if rng.next_u64() & 1 == 0 {
            Side::Front
        } else {
            Side::Back
        },
        pins,
        is_clock: false,
    }
}

/// Every net gets connected geometry at least as long as its MST lower
/// bound, on its own side only, and routing is deterministic.
#[test]
fn routed_geometry_is_sound() {
    let die = 30_000i64;
    let tech = Technology::ffet_3p5t();
    let pattern = RoutingPattern::new(6, 6).expect("legal");
    let mut rng = Rng64::new(0x5027e);

    for _case in 0..12 {
        let n_nets = rng.range_usize(4, 12);
        let side_nets: Vec<SideNet> = (0..n_nets)
            .map(|i| random_side_net(&mut rng, i as u32, die))
            .collect();

        let mut grid = RoutingGrid::new(&tech, ffet_geom::Rect::new(0, 0, die, die), pattern);
        let r1 = route_nets_opts(&tech, &mut grid, &side_nets, pattern, &RouteOpts::default());
        let mut grid2 = RoutingGrid::new(&tech, ffet_geom::Rect::new(0, 0, die, die), pattern);
        let r2 = route_nets_opts(
            &tech,
            &mut grid2,
            &side_nets,
            pattern,
            &RouteOpts::default(),
        );
        // Determinism.
        assert_eq!(r1.wirelength_nm, r2.wirelength_nm);
        assert_eq!(r1.drv_count, r2.drv_count);

        for (sn, routed) in side_nets.iter().zip(&r1.nets) {
            // MST lower bound: wirelength at least the span of the pins.
            let bb = ffet_geom::Rect::bounding(sn.pins.iter().copied()).expect("pins");
            let wl: i64 = routed.wires.iter().map(ffet_lefdef::DefWire::length).sum();
            assert!(
                wl >= bb.half_perimeter() / 2,
                "net wl {} below half the bbox {}",
                wl,
                bb.half_perimeter()
            );
            // Geometry stays on the declared side.
            assert!(routed.wires.iter().all(|w| w.layer.side == sn.side));
            assert!(routed
                .vias
                .iter()
                .all(|v| v.from_layer.side == sn.side && v.to_layer.side == sn.side));
        }
    }
}

/// The generator itself produces structurally valid nets (documents the
/// generator contract used above).
#[test]
fn random_side_net_generates() {
    let mut rng = Rng64::new(0);
    for i in 0..8 {
        let net = random_side_net(&mut rng, i, 10_000);
        assert!(net.pins.len() >= 2);
        assert!(net
            .pins
            .iter()
            .all(|p| (100..9_900).contains(&p.x) && (100..9_900).contains(&p.y)));
    }
}
