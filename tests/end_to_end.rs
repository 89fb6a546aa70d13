//! Cross-crate integration tests: the complete paper flow from a verified
//! gate-level core to a PPA report, exercising every substrate together.

use ffet_core::{designs, run_flow, FaultPlan, FlowConfig};
use ffet_lefdef::write_def;
use ffet_netlist::to_verilog;
use ffet_obs::fnv1a64;
use ffet_rv32::{build_core, cosimulate, programs};
use ffet_tech::{RoutingPattern, Side, TechKind};

/// The cosimulated RV32 core carried all the way through the FFET
/// dual-sided flow on a small utilization: functional correctness and
/// physical implementation of the same netlist.
#[test]
fn verified_core_flows_to_valid_ppa() {
    let config = FlowConfig {
        utilization: 0.6,
        pattern: RoutingPattern::new(8, 4).expect("legal"),
        back_pin_ratio: 0.3,
        ..FlowConfig::baseline(TechKind::Ffet3p5t)
    };
    let library = config.build_library().expect("valid config");

    // Functional proof first.
    let core = build_core(&library, "rv32_core");
    let cosim = cosimulate(&core, &library, &programs::sum_loop(20), 1_000)
        .expect("core executes sum loop");
    assert!(cosim.retired > 40);

    // Physical implementation of that same netlist.
    let outcome = run_flow(&core.netlist, &library, &config).expect("flow completes");
    let r = &outcome.report;
    assert!(r.core_area_um2 > 100.0, "rv32 core is not tiny");
    assert!(r.achieved_freq_ghz > 0.05);
    assert!(r.power_mw > 0.1);
    assert!(r.back_wirelength_mm > 0.0, "backside routing used");
    assert!(r.cells > 8_000, "rv32 post-synthesis size: {}", r.cells);
}

/// The merged DEF loses nothing: split by wafer side, each merged net's
/// wires and vias give back that side DEF's routing, and the wirelengths
/// of the two sides add up.
#[test]
fn merged_def_roundtrips_and_carries_both_sides() {
    let config = FlowConfig {
        utilization: 0.6,
        pattern: RoutingPattern::new(6, 6).expect("legal"),
        back_pin_ratio: 0.5,
        ..FlowConfig::baseline(TechKind::Ffet3p5t)
    };
    let library = config.build_library().expect("valid config");
    let netlist = designs::counter_pipeline(&library, 16);
    let outcome = run_flow(&netlist, &library, &config).expect("flow completes");

    let merged = &outcome.merged_def;
    for (side, def) in [
        (Side::Front, &outcome.pnr.front_def),
        (Side::Back, &outcome.pnr.back_def),
    ] {
        for net in &def.nets {
            let m = merged.nets.iter().find(|m| m.name == net.name);
            let m = m.unwrap_or_else(|| panic!("net {} is merged", net.name));
            let wires = m.wires.iter().filter(|w| w.layer.side == side);
            let vias = m.vias.iter().filter(|v| v.from_layer.side == side);
            assert!(wires.eq(&net.wires), "{side} wires of {}", net.name);
            assert!(vias.eq(&net.vias), "{side} vias of {}", net.name);
        }
    }

    let front_wl: i64 = outcome.pnr.front_def.total_wirelength();
    let back_wl: i64 = outcome.pnr.back_def.total_wirelength();
    assert!(front_wl > 0 && back_wl > 0);
    assert_eq!(merged.total_wirelength(), front_wl + back_wl);
}

/// The interchange files' bytes, pinned as (length, FNV-1a 64): the merged
/// DEF of a counter flow and the RV32 core's structural Verilog. Nothing
/// reads these files back, so the pin is what keeps the writers, the merge
/// and everything they are fed checkable. Every config field is spelled
/// out so no environment variable can move the pin.
#[test]
fn interchange_writer_bytes_are_pinned() {
    let config = FlowConfig {
        tech: TechKind::Ffet3p5t,
        pattern: RoutingPattern::new(6, 6).expect("legal"),
        back_pin_ratio: 0.5,
        utilization: 0.6,
        aspect_ratio: 1.0,
        target_freq_ghz: 1.5,
        activity: 0.15,
        seed: 42,
        bridging_min_nm: None,
        extra_reroute_rounds: 0,
        max_attempts: 1,
        route_jobs: 1,
        deadline_ms: None,
        fault_plan: FaultPlan::default(),
        stage_cache: None,
    };
    let library = config.build_library().expect("valid config");
    let netlist = designs::counter_pipeline(&library, 16);
    let outcome = run_flow(&netlist, &library, &config).expect("flow completes");
    let pin = |text: String| (text.len(), fnv1a64(text.as_bytes()));

    let def = pin(write_def(&outcome.merged_def));
    assert_eq!(
        def,
        (56_096, 0x8350_b550_028a_ab79),
        "merged DEF bytes drifted"
    );
    let verilog = pin(to_verilog(&designs::rv32_core(&library), &library));
    assert_eq!(
        verilog,
        (662_884, 0xd322_1aaa_a234_ddea),
        "RV32 Verilog bytes drifted"
    );
}

/// CFET and FFET implement the *same* netlist (library cell ids are
/// technology-independent), and the FFET core is smaller at equal
/// utilization — the Fig. 8 area mechanism.
#[test]
fn same_netlist_smaller_ffet_core() {
    let cfet_cfg = FlowConfig {
        utilization: 0.6,
        ..FlowConfig::baseline(TechKind::Cfet4t)
    };
    let ffet_cfg = FlowConfig {
        utilization: 0.6,
        ..FlowConfig::baseline(TechKind::Ffet3p5t)
    };
    let cfet_lib = cfet_cfg.build_library().expect("valid config");
    let ffet_lib = ffet_cfg.build_library().expect("valid config");
    // One netlist, built once, implemented twice.
    let netlist = designs::counter_pipeline(&cfet_lib, 16);
    let c = run_flow(&netlist, &cfet_lib, &cfet_cfg).expect("cfet flow");
    let f = run_flow(&netlist, &ffet_lib, &ffet_cfg).expect("ffet flow");
    assert!(
        f.report.core_area_um2 < c.report.core_area_um2 * 0.9,
        "ffet {} vs cfet {}",
        f.report.core_area_um2,
        c.report.core_area_um2
    );
    // Leakage power never differs by technology (Table I mechanism) by
    // more than sizing noise.
    assert!((f.report.leakage_mw - c.report.leakage_mw).abs() / c.report.leakage_mw < 0.2);
}

/// Determinism across the whole pipeline: identical configs produce
/// identical reports (placement, routing, extraction and STA are all
/// seed-driven, never time- or address-dependent).
#[test]
fn full_flow_is_deterministic() {
    let config = FlowConfig {
        utilization: 0.55,
        pattern: RoutingPattern::new(6, 6).expect("legal"),
        back_pin_ratio: 0.5,
        ..FlowConfig::baseline(TechKind::Ffet3p5t)
    };
    let library = config.build_library().expect("valid config");
    let netlist = designs::counter_pipeline(&library, 12);
    let a = run_flow(&netlist, &library, &config).expect("flow");
    let b = run_flow(&netlist, &library, &config).expect("flow");
    assert_eq!(a.report, b.report);
    assert_eq!(a.merged_def, b.merged_def);
}
