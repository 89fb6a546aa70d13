//! Physical implementation for dual-sided technologies: floorplan, BSPDN
//! powerplan with Power Tap Cells, placement, CTS, and dual-sided global
//! routing (the paper's Algorithm 1).
//!
//! The [`run_pnr`] convenience drives the whole sequence of paper §III.C:
//!
//! ```text
//! floorplan → powerplan → placement → CTS → (re)placement → dual-sided
//! routing → two DEFs
//! ```
//!
//! # Example
//!
//! ```no_run
//! use ffet_cells::Library;
//! use ffet_netlist::NetlistBuilder;
//! use ffet_pnr::{run_pnr, PnrConfig};
//! use ffet_pool::CancelToken;
//! use ffet_tech::{RoutingPattern, Technology};
//!
//! let lib = Library::new(Technology::ffet_3p5t());
//! let mut b = NetlistBuilder::new(&lib, "demo");
//! let x = b.input("x");
//! let y = b.not(x);
//! b.output("y", y);
//! let mut netlist = b.finish();
//!
//! let config = PnrConfig {
//!     utilization: 0.7,
//!     aspect_ratio: 1.0,
//!     pattern: RoutingPattern::new(12, 12)?,
//!     seed: 42,
//!     bridging_min_nm: None,
//!     extra_reroute_rounds: 0,
//!     route_jobs: 1,
//!     route_panic: false,
//!     cancel: CancelToken::none(),
//! };
//! let result = run_pnr(&mut netlist, &lib, &config)?;
//! println!("DRVs: {}", result.drv_count());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod bridging;
pub mod calib;
mod cts;
mod dualside;
mod export;
mod fillers;
mod floorplan;
mod grid;
mod integrity;
pub mod maze;
mod placement;
mod powerplan;
mod qp;
mod route;

pub use bridging::{insert_bridging_cells, BridgingStats};
pub use cts::{synthesize_clock_tree, ClockTree, CtsError};
pub use dualside::{decompose_nets, pin_position, pin_sides, DecomposeError, SideNet};
pub use export::export_defs;
pub use fillers::{check_legality, insert_fillers, Filler, LegalityViolation};
pub use floorplan::{floorplan, Floorplan, FloorplanError, Row};
pub use grid::{GCell, HotGcell, RoutingGrid};
pub use integrity::{analyze_pdn, PdnReport};
pub use placement::{place, Placement};
pub use powerplan::{powerplan, PowerPlan, TapCell};
pub use route::{pattern_path, route_nets_opts, RouteOpts, RoutedNet, RoutingResult};

use ffet_cells::{Library, PinSides};
use ffet_lefdef::Def;
use ffet_netlist::Netlist;
pub use ffet_pool::CancelToken;
use ffet_tech::{PatternError, RoutingPattern, Side};

/// Configuration of one P&R run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PnrConfig {
    /// Target placement utilization (cell area / core area), `(0, 1]`.
    pub utilization: f64,
    /// Die aspect ratio, width/height.
    pub aspect_ratio: f64,
    /// BEOL routing-layer pattern (`FMnBMm`).
    pub pattern: RoutingPattern,
    /// Seed for the deterministic placement heuristics.
    pub seed: u64,
    /// When set, nets longer than this (placed HPWL, nm) are moved to the
    /// backside through conventional bridging cells instead of relying on
    /// redistributed input pins — the ablation of the paper's Algorithm 1.
    pub bridging_min_nm: Option<i64>,
    /// Additional rip-up-and-reroute rounds beyond the calibrated budget
    /// (the recovery ladder's first escalation; 0 in normal runs).
    pub extra_reroute_rounds: u32,
    /// Worker count for the router's batched rip-up rounds (`--route-jobs`
    /// / `FFET_ROUTE_JOBS`; 1 = fully inline). Wall-clock only: routing
    /// results are bit-identical at any value (see [`RouteOpts`]).
    pub route_jobs: usize,
    /// Deterministic fault injection (`FFET_FAULTS=panic-route`): panic
    /// inside the router's batch workers. Never set in normal runs.
    pub route_panic: bool,
    /// Cooperative deadline token, polled at rip-up-round and route-batch
    /// boundaries and re-checked after routing. Expiry aborts the run with
    /// [`PnrError::Cancelled`]. The default token never cancels.
    pub cancel: CancelToken,
}

/// Everything a finished P&R run produced.
#[derive(Debug, Clone)]
pub struct PnrResult {
    /// The floorplan (die, rows, utilization bookkeeping).
    pub floorplan: Floorplan,
    /// The power plan (BSPDN + Power Tap Cells).
    pub powerplan: PowerPlan,
    /// Final legalized placement (after CTS).
    pub placement: Placement,
    /// The synthesized clock tree.
    pub clock: ClockTree,
    /// Routing result (geometry + congestion metrics).
    pub routing: RoutingResult,
    /// Frontside DEF.
    pub front_def: Def,
    /// Backside DEF.
    pub back_def: Def,
}

impl PnrResult {
    /// Total DRV count: routing overflow plus placement violations —
    /// checked against the paper's "valid iff below 10" rule.
    #[must_use]
    pub fn drv_count(&self) -> u32 {
        self.routing.drv_count + self.placement.violations
    }

    /// Whether this run is valid under the design rules.
    #[must_use]
    pub fn is_valid(&self, library: &Library) -> bool {
        library.tech().rules().is_valid_run(self.drv_count())
    }
}

/// Error from [`run_pnr`].
#[derive(Debug, Clone, PartialEq)]
pub enum PnrError {
    /// Floorplanning failed.
    Floorplan(FloorplanError),
    /// Net decomposition failed (backside pins without backside layers).
    Decompose(DecomposeError),
    /// The pattern is illegal for the library's technology.
    Pattern(PatternError),
    /// Clock-tree synthesis failed (e.g. no clock buffer in the library).
    Cts(CtsError),
    /// The run's [`PnrConfig::cancel`] token expired: the router stopped
    /// cooperatively and the partial result was discarded. The flow maps
    /// this to its `timeout(pnr)` disposition.
    Cancelled,
}

impl std::fmt::Display for PnrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PnrError::Floorplan(e) => write!(f, "floorplan: {e}"),
            PnrError::Decompose(e) => write!(f, "net decomposition: {e}"),
            PnrError::Pattern(e) => write!(f, "routing pattern: {e}"),
            PnrError::Cts(e) => write!(f, "clock-tree synthesis: {e}"),
            PnrError::Cancelled => f.write_str("deadline cancelled the run"),
        }
    }
}

impl std::error::Error for PnrError {}

impl From<FloorplanError> for PnrError {
    fn from(e: FloorplanError) -> PnrError {
        PnrError::Floorplan(e)
    }
}

impl From<DecomposeError> for PnrError {
    fn from(e: DecomposeError) -> PnrError {
        PnrError::Decompose(e)
    }
}

impl From<PatternError> for PnrError {
    fn from(e: PatternError) -> PnrError {
        PnrError::Pattern(e)
    }
}

impl From<CtsError> for PnrError {
    fn from(e: CtsError) -> PnrError {
        PnrError::Cts(e)
    }
}

/// Runs the complete physical-implementation sequence on `netlist`
/// (mutated: CTS inserts clock buffers).
///
/// # Errors
///
/// [`PnrError`] if the floorplan, pattern, or decomposition is infeasible.
/// Congestion and placement violations do **not** error — they surface as
/// the DRV count, matching how the paper treats invalid runs.
pub fn run_pnr(
    netlist: &mut Netlist,
    library: &Library,
    config: &PnrConfig,
) -> Result<PnrResult, PnrError> {
    library.tech().check_pattern(config.pattern)?;
    // First placement pass positions the clock sinks for CTS.
    let sp = ffet_obs::span("pnr.floorplan");
    let fp0 = floorplan(netlist, library, config.utilization, config.aspect_ratio)?;
    sp.close();
    let sp = ffet_obs::span("pnr.powerplan");
    let pp0 = powerplan(&fp0, library, config.pattern);
    sp.close();
    let sp = ffet_obs::span("pnr.place");
    let pl0 = place(netlist, library, &fp0, &pp0, config.seed);
    sp.close();
    let sp = ffet_obs::span("pnr.cts");
    let clock = synthesize_clock_tree(netlist, library, &pl0)?;
    sp.attr("levels", clock.levels)
        .attr("buffers", clock.buffers.len())
        .attr("sinks", clock.sink_count)
        .close();
    ffet_obs::gauge_set("cts.levels", f64::from(clock.levels));
    ffet_obs::counter_add("cts.buffers", clock.buffers.len() as i64);
    ffet_obs::counter_add("cts.sinks", clock.sink_count as i64);
    if let Some(min_len) = config.bridging_min_nm {
        let sp = ffet_obs::span("pnr.bridging");
        let stats = insert_bridging_cells(netlist, library, &pl0, min_len);
        sp.attr("inserted", stats.bridges_inserted).close();
        ffet_obs::counter_add("pnr.bridging_cells", stats.bridges_inserted as i64);
    }

    // Final floorplan/placement including the clock and bridging cells.
    let sp = ffet_obs::span("pnr.floorplan2");
    let fp = floorplan(netlist, library, config.utilization, config.aspect_ratio)?;
    sp.close();
    let pp = powerplan(&fp, library, config.pattern);
    let sp = ffet_obs::span("pnr.place2");
    let pl = place(netlist, library, &fp, &pp, config.seed);
    sp.close();
    ffet_obs::gauge_set("place.hpwl_nm", pl.hpwl_nm as f64);
    ffet_obs::gauge_set("place.violations", f64::from(pl.violations));

    // Dual-sided routing.
    let sp = ffet_obs::span("pnr.decompose");
    let side_nets = decompose_nets(netlist, library, &pl, config.pattern)?;
    sp.attr("side_nets", side_nets.len()).close();
    let sp = ffet_obs::span("pnr.route");
    let mut grid = RoutingGrid::new(library.tech(), fp.die, config.pattern);
    add_pin_demand(netlist, library, &pl, &mut grid, config.pattern);
    let routing = route_nets_opts(
        library.tech(),
        &mut grid,
        &side_nets,
        config.pattern,
        &RouteOpts {
            extra_rounds: config.extra_reroute_rounds,
            route_jobs: config.route_jobs,
            fault_panic: config.route_panic,
            cancel: config.cancel,
            ..RouteOpts::default()
        },
    );
    sp.attr("drv", routing.drv_count)
        .attr("vias", routing.via_count)
        .close();
    // The router exits cooperatively on expiry (best-effort partial
    // state); a cancelled run must not masquerade as a routed one.
    if config.cancel.cancelled() {
        return Err(PnrError::Cancelled);
    }

    let sp = ffet_obs::span("pnr.export");
    let (front_def, back_def) = export_defs(netlist, library, &fp, &pp, &pl, &routing);
    sp.close();
    Ok(PnrResult {
        floorplan: fp,
        powerplan: pp,
        placement: pl,
        clock,
        routing,
        front_def,
        back_def,
    })
}

/// Seeds the congestion grid with pin-access demand: every connected pin
/// consumes local routing resource on each side it is accessible from
/// (dual-sided output pins load both sides — but only sides that have
/// routing layers at all). Signoff's capacity check seeds its independent
/// grid with this same call, so it sees the grid the router saw.
pub fn add_pin_demand(
    netlist: &Netlist,
    library: &Library,
    placement: &Placement,
    grid: &mut RoutingGrid,
    pattern: RoutingPattern,
) {
    let side_has_layers = |side: Side| match side {
        Side::Front => pattern.front_layers() > 0,
        Side::Back => pattern.back_layers() > 0,
    };
    // CFET-only: supervia stacks and the BPR shadow block lower-metal
    // tracks above every cell (calib::CFET_SUPERVIA_BLOCKAGE).
    if library.tech().kind() == ffet_tech::TechKind::Cfet4t {
        let tech = library.tech();
        for (i, inst) in netlist.instances().iter().enumerate() {
            let cell = library.cell(inst.cell);
            let w = cell.width_cpp * tech.cpp();
            let at = placement.center(i, w, tech.cell_height());
            grid.add_blockage(Side::Front, at, calib::CFET_SUPERVIA_BLOCKAGE);
        }
    }
    for (i, inst) in netlist.instances().iter().enumerate() {
        for (pi, conn) in inst.conns.iter().enumerate() {
            if conn.is_none() {
                continue;
            }
            let pin = ffet_netlist::PinRef::new(ffet_netlist::InstId(i as u32), pi);
            let pos = pin_position(netlist, library, placement, pin);
            match pin_sides(netlist, library, pin) {
                PinSides::One(side) => {
                    if side_has_layers(side) {
                        grid.add_pin(side, pos);
                    }
                }
                PinSides::Both => {
                    for side in Side::BOTH {
                        if side_has_layers(side) {
                            grid.add_pin(side, pos);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffet_netlist::NetlistBuilder;
    use ffet_tech::Technology;

    fn mixed_netlist(lib: &Library, n: usize) -> Netlist {
        let mut b = NetlistBuilder::new(lib, "mixed");
        let clk = b.input("clk");
        b.netlist_mut().mark_clock(clk);
        let mut x = b.input("x");
        let mut y = b.input("z");
        for i in 0..n {
            let t = b.nand2(x, y);
            y = x;
            x = if i % 5 == 0 { b.dff(t, clk) } else { t };
        }
        b.output("y", x);
        b.finish()
    }

    #[test]
    fn full_pnr_on_ffet_dual_sided() {
        let mut lib = Library::new(Technology::ffet_3p5t());
        lib.redistribute_input_pins(0.5, 42).unwrap();
        let mut nl = mixed_netlist(&lib, 300);
        let config = PnrConfig {
            utilization: 0.6,
            aspect_ratio: 1.0,
            pattern: RoutingPattern::new(6, 6).unwrap(),
            seed: 1,
            bridging_min_nm: None,
            extra_reroute_rounds: 0,
            route_jobs: 1,
            route_panic: false,
            cancel: CancelToken::none(),
        };
        let result = run_pnr(&mut nl, &lib, &config).expect("pnr runs");
        assert!(result.is_valid(&lib), "drv = {}", result.drv_count());
        assert!(
            result.routing.back_wirelength_nm > 0,
            "dual-sided routing used"
        );
        assert!(!result.clock.buffers.is_empty());
        assert!(result.front_def.nets.len() + result.back_def.nets.len() >= nl.nets().len() / 2);
        nl.check_consistency(&lib).unwrap();
    }

    #[test]
    fn full_pnr_on_cfet_baseline() {
        let lib = Library::new(Technology::cfet_4t());
        let mut nl = mixed_netlist(&lib, 300);
        let config = PnrConfig {
            utilization: 0.6,
            aspect_ratio: 1.0,
            pattern: RoutingPattern::new(12, 0).unwrap(),
            seed: 1,
            bridging_min_nm: None,
            extra_reroute_rounds: 0,
            route_jobs: 1,
            route_panic: false,
            cancel: CancelToken::none(),
        };
        let result = run_pnr(&mut nl, &lib, &config).expect("pnr runs");
        assert!(result.is_valid(&lib));
        assert_eq!(result.routing.back_wirelength_nm, 0);
        assert!(result.powerplan.taps.is_empty());
    }

    #[test]
    fn cfet_rejects_dual_sided_pattern() {
        let lib = Library::new(Technology::cfet_4t());
        let mut nl = mixed_netlist(&lib, 50);
        let config = PnrConfig {
            utilization: 0.6,
            aspect_ratio: 1.0,
            pattern: RoutingPattern::new(6, 6).unwrap(),
            seed: 1,
            bridging_min_nm: None,
            extra_reroute_rounds: 0,
            route_jobs: 1,
            route_panic: false,
            cancel: CancelToken::none(),
        };
        assert!(matches!(
            run_pnr(&mut nl, &lib, &config),
            Err(PnrError::Pattern(_))
        ));
    }
}
