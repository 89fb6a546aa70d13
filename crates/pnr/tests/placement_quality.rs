//! Placement-quality diagnostics on the real RV32 benchmark: the router's
//! congestion (and with it every Fig. 8–13 shape) depends on the placer
//! producing substantially better-than-random wirelength.

use ffet_cells::Library;
use ffet_geom::Orientation;
use ffet_pnr::{floorplan, place, powerplan, synthesize_clock_tree, Placement};
use ffet_rv32::build_core;
use ffet_tech::{RoutingPattern, Technology};

/// FNV-1a over everything `place` decides: origins, orients, violations
/// and HPWL.
fn placement_digest(pl: &Placement) -> u64 {
    let mut bytes = Vec::with_capacity(pl.origins.len() * 17 + 12);
    for p in &pl.origins {
        bytes.extend_from_slice(&p.x.to_le_bytes());
        bytes.extend_from_slice(&p.y.to_le_bytes());
    }
    bytes.extend(pl.orients.iter().map(|o| match o {
        Orientation::North => 0u8,
        Orientation::FlippedSouth => 1,
    }));
    bytes.extend_from_slice(&pl.violations.to_le_bytes());
    bytes.extend_from_slice(&pl.hpwl_nm.to_le_bytes());
    ffet_obs::fnv1a64(&bytes)
}

/// Pins the RV32 placements bit for bit: `run_pnr`'s place → CTS → place
/// sequence on FM12BM12 with input pins redistributed at BPy 0.5. Any
/// change to the placer's arithmetic (QP assembly order, CG reductions,
/// spreading) moves these digests; a kernel rewrite must keep them.
#[test]
fn rv32_place_cts_place_is_pinned() {
    // (placement seed, pre-CTS digest, post-CTS digest)
    const PINNED: [(u64, u64, u64); 2] = [
        (1, 0xc761_d422_432d_91cb, 0x7baf_c3b0_3b8e_4c18),
        (42, 0x6950_8d8d_0807_aaff, 0xa7b8_0f1f_664b_8887),
    ];
    let mut lib = Library::new(Technology::ffet_3p5t());
    lib.redistribute_input_pins(0.5, 42).unwrap();
    let pattern = RoutingPattern::new(12, 12).unwrap();
    let got: Vec<(u64, u64, u64)> = PINNED
        .iter()
        .map(|&(seed, _, _)| {
            let mut nl = build_core(&lib, "rv32").netlist;
            let fp0 = floorplan(&nl, &lib, 0.65, 1.0).unwrap();
            let pp0 = powerplan(&fp0, &lib, pattern);
            let pl0 = place(&nl, &lib, &fp0, &pp0, seed);
            synthesize_clock_tree(&mut nl, &lib, &pl0).unwrap();
            let fp = floorplan(&nl, &lib, 0.65, 1.0).unwrap();
            let pp = powerplan(&fp, &lib, pattern);
            let pl = place(&nl, &lib, &fp, &pp, seed);
            (seed, placement_digest(&pl0), placement_digest(&pl))
        })
        .collect();
    assert_eq!(got, PINNED, "placement digests {got:x?}");
}

#[test]
fn rv32_placement_beats_random_by_2x() {
    let lib = Library::new(Technology::ffet_3p5t());
    let nl = build_core(&lib, "rv32").netlist;
    let fp = floorplan(&nl, &lib, 0.7, 1.0).unwrap();
    let pp = powerplan(&fp, &lib, RoutingPattern::new(12, 12).unwrap());
    let pl = place(&nl, &lib, &fp, &pp, 1);
    // Random-placement expectation: every net's bounding box is a random
    // sample of the die; for small nets HPWL ≈ (W+H)/3 per net.
    let random_est = nl.nets().len() as i64 * (fp.die.width() + fp.die.height()) / 3;
    assert!(
        pl.hpwl_nm * 2 < random_est,
        "placement ratio {:.2} worse than half-random",
        pl.hpwl_nm as f64 / random_est as f64
    );
}
