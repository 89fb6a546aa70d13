//! The traced run: one representative point per workload replayed stage
//! by stage through each layer's public function, with every call wrapped
//! in a span the benchmark records itself. The composition mirrors
//! `run_flow` (and `run_flow_resilient`'s ladder) step for step, so its
//! `PpaReport` must equal the one the untraced flow produces.

use crate::sweep::ms_since;
use ffet_cells::{Library, PinSides};
use ffet_core::recover::config_for_attempt;
use ffet_core::stagecache::{self, Stage, StageCache};
use ffet_core::{synthesize, FlowConfig, PpaReport, SynthConfig};
use ffet_geom::FxHashMap;
use ffet_lefdef::{merge_defs, Def};
use ffet_netlist::{InstId, Netlist, PinRef, PortDirection};
use ffet_obs::{AttrValue, PointData};
use ffet_pnr::{
    calib, decompose_nets, export_defs, floorplan, pin_position, pin_sides, place, powerplan,
    route_nets_opts, synthesize_clock_tree, PnrResult, RouteOpts, RoutingGrid,
};
use ffet_rcx::{extract_net_with, ExtractScratch, NetParasitics};
use ffet_sta::{analyze_power, analyze_timing, StaConfig};
use ffet_tech::{RoutingPattern, Side, TechKind};
use ffet_verify::run_signoff;
use std::collections::BTreeMap;
use std::time::Instant;

/// Span durations (ms) and counts, keyed by the per-layer metric name.
#[derive(Debug, Default)]
pub struct Spans {
    pub ms: BTreeMap<&'static str, f64>,
    pub counts: BTreeMap<&'static str, f64>,
}

impl Spans {
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        *self.ms.entry(name).or_default() += ms_since(t);
        out
    }

    fn add(&mut self, name: &'static str, n: usize) {
        *self.counts.entry(name).or_default() += n as f64;
    }

    fn set(&mut self, name: &'static str, n: usize) {
        self.counts.insert(name, n as f64);
    }

    pub fn ms(&self, name: &str) -> f64 {
        self.ms.get(name).copied().unwrap_or(0.0)
    }

    pub fn count(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Sum of every recorded span: the layer-accounted share of a point.
    pub fn total_ms(&self) -> f64 {
        self.ms.values().sum()
    }
}

type Codec<T> = (
    fn(&T, &PointData) -> String,
    fn(&str) -> Option<(T, PointData)>,
);

/// One stage through the cache, as `stagecache::run_stage` runs it:
/// lookup → (decode + replay) on a hit, else compute under a capture,
/// replay, strip timing, encode and store.
fn stage<T>(
    s: &mut Spans,
    cache: &StageCache,
    key: Option<String>,
    stage: Stage,
    codec: Codec<T>,
    compute: impl FnOnce(&mut Spans) -> Result<T, String>,
) -> Result<(T, Option<String>), String> {
    let Some(key) = key else {
        return Ok((compute(s)?, None));
    };
    s.add("stagecache.lookups", 1);
    if let Some((addr, body)) = s.time("stagecache.lookup", || cache.lookup(&key)) {
        let decoded = s.time("stagecache.decode", || {
            let (value, data) = (codec.1)(&body)?;
            ffet_obs::replay(
                &data,
                ffet_obs::ambient_elapsed_us(),
                &[("cached".to_owned(), AttrValue::Bool(true))],
            );
            Some(value)
        });
        if let Some(value) = decoded {
            s.add("stagecache.hits", 1);
            s.add("stagecache.read_bytes", body.len());
            return Ok((value, Some(addr)));
        }
    }
    let offset_us = ffet_obs::ambient_elapsed_us();
    let (result, mut data) = ffet_obs::capture(|| compute(s));
    let value = result?;
    let payload = s.time("stagecache.encode", || {
        ffet_obs::replay(
            &data,
            offset_us,
            &[("cached".to_owned(), AttrValue::Bool(false))],
        );
        ffet_obs::strip_point_timing(&mut data);
        (codec.0)(&value, &data)
    });
    let addr = s.time("stagecache.store", || {
        cache.store(&key, stage.name(), &payload)
    });
    if addr.is_some() {
        s.add("stagecache.write_bytes", payload.len());
    }
    Ok((value, addr))
}

/// Pin-access demand and CFET supervia blockage, as `run_pnr` seeds the
/// routing grid (its helper is private, so this uses the public grid API).
fn add_pin_demand(
    netlist: &Netlist,
    library: &Library,
    placement: &ffet_pnr::Placement,
    grid: &mut RoutingGrid,
    pattern: RoutingPattern,
) {
    let has_layers = |side: Side| match side {
        Side::Front => pattern.front_layers() > 0,
        Side::Back => pattern.back_layers() > 0,
    };
    let tech = library.tech();
    if tech.kind() == TechKind::Cfet4t {
        for (i, inst) in netlist.instances().iter().enumerate() {
            let w = library.cell(inst.cell).width_cpp * tech.cpp();
            let at = placement.center(i, w, tech.cell_height());
            grid.add_blockage(Side::Front, at, calib::CFET_SUPERVIA_BLOCKAGE);
        }
    }
    for (i, inst) in netlist.instances().iter().enumerate() {
        for (pi, conn) in inst.conns.iter().enumerate() {
            if conn.is_none() {
                continue;
            }
            let pin = PinRef::new(InstId(i as u32), pi);
            let pos = pin_position(netlist, library, placement, pin);
            let sides: &[Side] = match pin_sides(netlist, library, pin) {
                PinSides::One(side) => &[side],
                PinSides::Both => &Side::BOTH,
            };
            for &side in sides.iter().filter(|&&side| has_layers(side)) {
                grid.add_pin(side, pos);
            }
        }
    }
}

/// Floorplan → powerplan → place → CTS → floorplan → powerplan → place →
/// decompose → route → export, as `run_pnr` sequences them.
fn pnr(
    s: &mut Spans,
    library: &Library,
    cfg: &FlowConfig,
    mut nl: Netlist,
) -> Result<(Netlist, PnrResult), String> {
    if cfg.bridging_min_nm.is_some() {
        return Err("bridging-cell points are not composed".to_owned());
    }
    library
        .tech()
        .check_pattern(cfg.pattern)
        .map_err(|e| e.to_string())?;
    let plan = |s: &mut Spans, nl: &Netlist| {
        s.time("pnr.floorplan", || {
            let fp = floorplan(nl, library, cfg.utilization, cfg.aspect_ratio)
                .map_err(|e| e.to_string())?;
            let pp = powerplan(&fp, library, cfg.pattern);
            Ok::<_, String>((fp, pp))
        })
    };
    let (fp0, pp0) = plan(s, &nl)?;
    s.add("pnr.place.calls", 1);
    let pl0 = s.time("pnr.place", || place(&nl, library, &fp0, &pp0, cfg.seed));
    let clock = s
        .time("pnr.cts", || synthesize_clock_tree(&mut nl, library, &pl0))
        .map_err(|e| e.to_string())?;
    let (fp, pp) = plan(s, &nl)?;
    s.add("pnr.place.calls", 1);
    let pl = s.time("pnr.place", || place(&nl, library, &fp, &pp, cfg.seed));
    let side_nets = s
        .time("pnr.decompose", || {
            decompose_nets(&nl, library, &pl, cfg.pattern)
        })
        .map_err(|e| e.to_string())?;
    s.set("pnr.side_nets", side_nets.len());
    let routing = s.time("pnr.route", || {
        let mut grid = RoutingGrid::new(library.tech(), fp.die, cfg.pattern);
        add_pin_demand(&nl, library, &pl, &mut grid, cfg.pattern);
        route_nets_opts(
            library.tech(),
            &mut grid,
            &side_nets,
            cfg.pattern,
            &RouteOpts {
                extra_rounds: cfg.extra_reroute_rounds,
                route_jobs: cfg.route_jobs,
                ..RouteOpts::default()
            },
        )
    });
    s.set("pnr.route.drv", routing.drv_count as usize);
    s.set("pnr.route.vias", routing.via_count);
    let (front_def, back_def) = s.time("pnr.export", || {
        export_defs(&nl, library, &fp, &pp, &pl, &routing)
    });
    let result = PnrResult {
        floorplan: fp,
        powerplan: pp,
        placement: pl,
        clock,
        routing,
        front_def,
        back_def,
    };
    Ok((nl, result))
}

/// Every net's parasitics from the merged DEF, sinks in `net.sinks` order
/// (the extraction `run_flow` performs before STA).
fn extract_all(
    netlist: &Netlist,
    library: &Library,
    pnr: &PnrResult,
    merged: &Def,
) -> Vec<Option<NetParasitics>> {
    let by_name: FxHashMap<&str, &ffet_lefdef::DefNet> =
        merged.nets.iter().map(|n| (n.name.as_str(), n)).collect();
    let mut scratch = ExtractScratch::new();
    netlist
        .nets()
        .iter()
        .map(|net| {
            let def_net = by_name.get(net.name.as_str())?;
            let source = net
                .driver
                .map(|d| pin_position(netlist, library, &pnr.placement, d))
                .or_else(|| {
                    netlist
                        .ports()
                        .iter()
                        .position(|p| {
                            netlist.nets()[p.net.0 as usize].name == net.name
                                && p.direction == PortDirection::Input
                        })
                        .map(|pi| pnr.placement.port_positions[pi])
                })?;
            let sinks: Vec<_> = net
                .sinks
                .iter()
                .map(|&p| pin_position(netlist, library, &pnr.placement, p))
                .collect();
            Some(extract_net_with(
                def_net,
                library.tech(),
                source,
                &sinks,
                &mut scratch,
            ))
        })
        .collect()
}

/// One flow attempt, stage by stage, through `cache`.
fn compose_attempt(
    s: &mut Spans,
    library: &Library,
    netlist: &Netlist,
    cfg: &FlowConfig,
    cache: &StageCache,
) -> Result<PpaReport, String> {
    let key = s.time("stagecache.lookup", || stagecache::synth_key(cfg, netlist));
    let (nl, synth_addr) = stage(
        s,
        cache,
        Some(key),
        Stage::Synth,
        (stagecache::encode_synth, stagecache::decode_synth),
        |s| {
            let mut nl = netlist.clone();
            s.time("synth", || {
                synthesize(
                    &mut nl,
                    library,
                    &SynthConfig::for_target(cfg.target_freq_ghz),
                )
            })?;
            s.set("synth.cells", nl.instances().len());
            Ok(nl)
        },
    )?;
    let key = synth_addr.as_deref().map(|a| stagecache::pnr_key(cfg, a));
    let ((nl, pnr), pnr_addr) = stage(
        s,
        cache,
        key,
        Stage::Pnr,
        (stagecache::encode_pnr, stagecache::decode_pnr),
        |s| pnr(s, library, cfg, nl),
    )?;
    let key = pnr_addr.as_deref().map(stagecache::merge_key);
    let (merged, merge_addr) = stage(
        s,
        cache,
        key,
        Stage::Merge,
        (stagecache::encode_merge, stagecache::decode_merge),
        |s| {
            s.time("lefdef.merge", || merge_defs(&pnr.front_def, &pnr.back_def))
                .map_err(|e| e.to_string())
        },
    )?;
    let (p, m) = (pnr_addr.as_deref(), merge_addr.as_deref());
    let key = p.zip(m).map(|(p, m)| stagecache::signoff_key(cfg, p, m));
    let (signoff, _) = stage(
        s,
        cache,
        key,
        Stage::Signoff,
        (
            stagecache::encode_signoff_payload,
            stagecache::decode_signoff_payload,
        ),
        |s| {
            let report = s.time("verify.signoff", || {
                run_signoff(&nl, library, cfg.pattern, &pnr, &merged)
            });
            if report.is_clean() {
                Ok(report)
            } else {
                Err(format!("signoff failed: {} error(s)", report.error_count()))
            }
        },
    )?;
    let key = p.zip(m).map(|(p, m)| stagecache::rcx_key(cfg, p, m));
    let (parasitics, rcx_addr) = stage(
        s,
        cache,
        key,
        Stage::Rcx,
        (
            |v: &Vec<Option<NetParasitics>>, d| stagecache::encode_rcx(v, d),
            stagecache::decode_rcx,
        ),
        |s| {
            let parasitics = s.time("rcx.extract", || extract_all(&nl, library, &pnr, &merged));
            s.set("rcx.nets", parasitics.iter().flatten().count());
            Ok(parasitics)
        },
    )?;
    let sta_config = StaConfig {
        clock_period_ps: 1000.0 / cfg.target_freq_ghz,
        activity: cfg.activity,
        input_slew_ps: 10.0,
    };
    let key = p
        .zip(rcx_addr.as_deref())
        .map(|(p, r)| stagecache::sta_key(cfg, p, r));
    let ((timing, power), _) = stage(
        s,
        cache,
        key,
        Stage::Sta,
        (stagecache::encode_sta, stagecache::decode_sta),
        |s| {
            s.time("sta", || {
                let timing = analyze_timing(&nl, library, &parasitics, &sta_config)
                    .map_err(|e| format!("combinational loop through {}", e.instance))?;
                let power =
                    analyze_power(&nl, library, &parasitics, &sta_config, cfg.target_freq_ghz);
                Ok((timing, power))
            })
        },
    )?;
    Ok(PpaReport {
        tech: library.tech().to_string(),
        pattern: cfg.pattern,
        back_pin_ratio: cfg.back_pin_ratio,
        target_freq_ghz: cfg.target_freq_ghz,
        utilization: cfg.utilization,
        core_area_um2: pnr.floorplan.core_area_nm2() as f64 / 1e6,
        achieved_freq_ghz: timing.max_frequency_ghz,
        power_mw: power.total_mw(),
        leakage_mw: power.leakage_mw,
        clock_mw: power.clock_mw,
        drv: pnr.drv_count(),
        valid: pnr.is_valid(library),
        signoff_warnings: signoff.drv_warnings(),
        signoff: signoff.verdict().to_owned(),
        wirelength_mm: pnr.routing.wirelength_nm as f64 / 1e6,
        back_wirelength_mm: pnr.routing.back_wirelength_nm as f64 / 1e6,
        vias: pnr.routing.via_count,
        cells: nl.instances().len(),
    })
}

/// One point through the recovery ladder, attempt by attempt, as
/// `run_flow_resilient` escalates it. Returns the final report and the
/// attempts spent.
pub fn compose_point(
    s: &mut Spans,
    library: &Library,
    netlist: &Netlist,
    base: &FlowConfig,
    cache: &StageCache,
) -> Result<(PpaReport, u32), String> {
    let max_attempts = base.max_attempts.max(1);
    let mut best_invalid: Option<PpaReport> = None;
    let mut last_error = String::from("no attempt ran");
    for attempt in 0..max_attempts {
        let (cfg, _) = config_for_attempt(base, attempt);
        match compose_attempt(s, library, netlist, &cfg, cache) {
            Ok(r) if r.valid => return Ok((r, attempt + 1)),
            Ok(r) => {
                if best_invalid.as_ref().is_none_or(|b| r.drv < b.drv) {
                    best_invalid = Some(r);
                }
            }
            Err(e) => last_error = e,
        }
    }
    best_invalid.map(|r| (r, max_attempts)).ok_or(last_error)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::ScratchDir;
    use crate::workload::{base_config, Workload};
    use ffet_core::{designs, run_flow_resilient};

    #[test]
    fn composition_matches_the_flow_cold_and_warm() {
        let (a, b) = (
            ScratchDir::new("test-compose-a").expect("scratch dir"),
            ScratchDir::new("test-compose-b").expect("scratch dir"),
        );
        let base = base_config(Workload::Route, 0.5, None);
        let library = base.build_library().expect("library");
        let netlist = designs::counter_pipeline(&library, 12);
        let with = |dir: &ScratchDir| FlowConfig {
            utilization: 0.6,
            stage_cache: Some(dir.path().to_path_buf()),
            ..base.clone()
        };
        let flow = run_flow_resilient(&netlist, &library, &with(&a));
        let flow = (
            flow.outcome.expect("flow runs").report,
            flow.recovery.attempts,
        );

        let mut cold = Spans::default();
        let composed = compose_point(
            &mut cold,
            &library,
            &netlist,
            &with(&b),
            &StageCache::new(b.path()),
        );
        assert_eq!(composed.as_ref(), Ok(&flow));
        assert!(cold.ms("pnr.place") > 0.0 && cold.count("stagecache.hits") == 0.0);

        // Replaying the flow's own cache touches no compute layer.
        let mut warm = Spans::default();
        let composed = compose_point(
            &mut warm,
            &library,
            &netlist,
            &with(&a),
            &StageCache::new(a.path()),
        );
        assert_eq!(composed, Ok(flow));
        assert_eq!(
            warm.count("stagecache.hits"),
            warm.count("stagecache.lookups")
        );
        assert_eq!(
            warm.ms("pnr.place") + warm.ms("pnr.route") + warm.ms("synth"),
            0.0
        );
    }
}
