//! Deterministic fault injection at flow stage boundaries.
//!
//! A [`FaultPlan`] (default: empty, so normal runs are untouched) rides in
//! [`crate::FlowConfig`] and corrupts the flow's intermediate artifacts at
//! well-defined points of [`crate::run_flow`]: the netlist and P&R result
//! right after physical implementation, and the merged DEF right after the
//! merge. Every corruption is *seeded* — victim selection draws from a
//! [`Rng64`] keyed on the flow seed and the plan seed — so the same config
//! plus the same plan reproduces the same fault, bit for bit, at any pool
//! width.
//!
//! The taxonomy is the coverage contract of the signoff gate: each
//! error-severity rule in [`ffet_verify::ERROR_RULES`] is triggerable by at
//! least one [`FaultKind`] (proved by the `fault_matrix` test), and
//! [`FaultKind::StagePanic`] exercises the DoE pool's panic containment
//! ([`FaultKind::RoutePanic`] the routing pool's, through the batched
//! parallel path inside P&R).
//! Faults can be windowed with [`Fault::until_attempt`] so the recovery
//! ladder in [`crate::recover`] has transient failures to recover from.

use ffet_cells::{CellFunction, CellKind, DriveStrength, Library};
use ffet_geom::{FxHashMap, FxHashSet};
use ffet_geom::{Orientation, Point, Rng64};
use ffet_lefdef::{Def, DefComponent, DefConnection, DefNet, DefVia, DefWire};
use ffet_netlist::{InstId, NetId, Netlist, PinRef, PortDirection};
use ffet_pnr::{PnrResult, RoutedNet};
use ffet_tech::{LayerId, Side};

/// The stage boundaries of [`crate::run_flow`] where faults are injected
/// (and where [`FaultKind::StagePanic`] panics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowStage {
    /// After synthesis-lite.
    Synth,
    /// After physical implementation.
    Pnr,
    /// After the dual-sided DEF merge.
    Merge,
    /// After static signoff ran (before its verdict gates the flow).
    Signoff,
}

impl std::fmt::Display for FlowStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FlowStage::Synth => "synth",
            FlowStage::Pnr => "pnr",
            FlowStage::Merge => "merge",
            FlowStage::Signoff => "signoff",
        })
    }
}

/// DRV increment applied by [`FaultKind::DrvInflate`].
pub const DRV_INFLATE: u32 = 50;

/// How many copies of the longest routed wire [`FaultKind::DemandInflate`]
/// adds (enough to push any GCell it crosses far past Table II capacity).
const DEMAND_INFLATE_COPIES: usize = 2_500;

/// One injectable corruption, named after the artifact it breaks and the
/// signoff rule (or runner behavior) it provably triggers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    // --- netlist corruptions (post-P&R) ---
    /// Detach a net's driver → `lint.undriven`.
    NetUndriven,
    /// Add a second driver (an input port) to a driven net →
    /// `lint.multi-driven`.
    NetMultiDriven,
    /// Disconnect one instance input pin → `lint.floating-input`.
    PinFloat,
    /// Rewire a combinational input to the cell's own output →
    /// `lint.comb-loop`.
    CombLoop,
    /// Add an instance the DEF has never heard of →
    /// `lvs.missing-component`.
    GhostInstance,
    /// Add a bridging-cell sink (backside-only input pin) under a
    /// front-only pattern → `drc.decompose`. No-op when the library has no
    /// bridge cell (CFET).
    BridgeOrphan,
    // --- P&R-result corruptions ---
    /// Nudge a placed cell off its site grid → `place.off-site` (warning;
    /// the stranded pin stubs usually open the net too).
    CellDisplace,
    /// Placement bookkeeping loses sync with the netlist → `place.count`.
    PlacementCountMismatch,
    /// Drop all routed geometry of a multi-pin side-net → `drc.open`.
    RouteOpen,
    /// Routed entry for a (net, side) the decomposition never produced →
    /// `drc.extra-routing`.
    RoutePhantom,
    /// A diagonal wire segment → `drc.non-manhattan`.
    WireNonManhattan,
    /// A wire far outside the die → `drc.off-die`.
    WireOffDie,
    /// A wire on the unroutable M0 → `drc.layer-range`.
    WireIllegalLayer,
    /// A wire perpendicular to its layer's preferred direction →
    /// `drc.wrong-direction`.
    WireWrongDirection,
    /// Displace (or conjure) a via far outside the die → `drc.off-die`.
    ViaDisplace,
    /// Duplicate the longest routed wire until its GCells overflow →
    /// `drc.gcell-capacity` warnings (the flow completes; DRV-proxy path).
    DemandInflate,
    /// Add [`DRV_INFLATE`] to the router's DRV count → an *invalid* (but
    /// structurally clean) point, exercising the recovery ladder's
    /// invalid-retry path.
    DrvInflate,
    // --- merged-DEF corruptions ---
    /// Remove a component → `lvs.missing-component`.
    DefDropComponent,
    /// Duplicate a component row → `lvs.duplicate-component`.
    DefDupComponent,
    /// Swap a component's macro → `lvs.macro-mismatch`.
    DefMacroSwap,
    /// Add a component the netlist has never heard of →
    /// `lvs.extra-component`.
    DefGhostComponent,
    /// Remove a routed net → `lvs.missing-net`.
    DefDropNet,
    /// Duplicate a net row → `lvs.duplicate-net`.
    DefDupNet,
    /// Add a net the netlist has never heard of → `lvs.extra-net`.
    DefGhostNet,
    /// Remove one pin connection from a net → `lvs.missing-connection`.
    DefDropConnection,
    /// Add a bogus pin connection to a net → `lvs.extra-connection`.
    DefAddConnection,
    // --- runner corruption ---
    /// Panic at the named stage boundary → the pool's `panicked:` /
    /// the recovery ladder's per-attempt containment.
    StagePanic(FlowStage),
    /// Panic *inside* a router batch worker (not at a stage boundary):
    /// exercises the routing pool's panic containment through the batched
    /// parallel path. The payload is re-raised on the flow thread, so the
    /// ladder sees the same disposition as [`FaultKind::StagePanic`] at
    /// any `route_jobs`.
    RoutePanic,
    // --- watchdog corruption ---
    /// Force the deadline watchdog to expire at the named stage: the run
    /// sees an already-cancelled token and lands a deterministic
    /// `timeout(stage)` disposition (`FlowError::Timeout`), which the
    /// recovery ladder retries like any other recoverable failure. Unlike
    /// a real `FFET_DEADLINE` expiry this is bit-reproducible at any
    /// `FFET_JOBS` × `FFET_ROUTE_JOBS`.
    StageTimeout(FlowStage),
}

/// One fault plus its activity window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// What to corrupt.
    pub kind: FaultKind,
    /// Active while `FaultPlan::attempt < until_attempt` (`None` = every
    /// attempt). A window of `Some(1)` makes a *transient* fault the
    /// recovery ladder's first retry no longer sees.
    pub until_attempt: Option<u32>,
}

impl Fault {
    /// A fault active on every attempt.
    #[must_use]
    pub fn always(kind: FaultKind) -> Fault {
        Fault {
            kind,
            until_attempt: None,
        }
    }

    /// A fault active only on attempts `< until`.
    #[must_use]
    pub fn until(kind: FaultKind, until: u32) -> Fault {
        Fault {
            kind,
            until_attempt: Some(until),
        }
    }
}

/// The seeded fault schedule of one flow run. `Default` is empty — the
/// golden path never sees this module.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Faults to inject, applied in order.
    pub faults: Vec<Fault>,
    /// Extra seed mixed into victim selection (on top of the flow seed).
    pub seed: u64,
    /// Current recovery attempt (set by `run_flow_resilient` before each
    /// attempt; gates windowed faults).
    pub attempt: u32,
}

/// Environment variable carrying a fault spec for the `repro` driver.
pub const FAULTS_ENV: &str = "FFET_FAULTS";

impl FaultPlan {
    /// Whether the plan injects nothing (the golden path).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Parses a comma-separated fault spec: `name[@until]` per entry, e.g.
    /// `route-open,panic-pnr@1`. `@until` bounds the activity window (the
    /// fault disappears from recovery attempt `until` onward).
    ///
    /// # Errors
    ///
    /// A message naming the unparsable entry.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut faults = Vec::new();
        for entry in spec.split(',').map(str::trim).filter(|e| !e.is_empty()) {
            let (name, window) = match entry.split_once('@') {
                Some((n, w)) => {
                    let until: u32 = w
                        .parse()
                        .map_err(|_| format!("bad fault window in {entry:?}"))?;
                    (n, Some(until))
                }
                None => (entry, None),
            };
            let kind = kind_from_name(name).ok_or_else(|| format!("unknown fault {name:?}"))?;
            faults.push(Fault {
                kind,
                until_attempt: window,
            });
        }
        Ok(FaultPlan {
            faults,
            seed: 0,
            attempt: 0,
        })
    }

    /// The plan from `FFET_FAULTS`, or empty when unset.
    ///
    /// # Panics
    ///
    /// On an unparsable spec — the variable is programmer-set, so a typo
    /// should fail loudly rather than silently run faultless.
    #[must_use]
    pub fn from_env() -> FaultPlan {
        match std::env::var(FAULTS_ENV) {
            Ok(spec) => FaultPlan::parse(&spec).unwrap_or_else(|e| panic!("{FAULTS_ENV}: {e}")),
            Err(_) => FaultPlan::default(),
        }
    }

    /// Faults active on the current attempt.
    fn active(&self) -> impl Iterator<Item = &Fault> {
        self.faults
            .iter()
            .filter(|f| f.until_attempt.is_none_or(|u| self.attempt < u))
    }

    /// Whether an active [`FaultKind::RoutePanic`] should arm the router's
    /// batch-worker panic (plumbed into `PnrConfig::route_panic`).
    #[must_use]
    pub fn has_route_panic(&self) -> bool {
        self.active().any(|f| f.kind == FaultKind::RoutePanic)
    }

    /// The stage an active [`FaultKind::StageTimeout`] forces to expire,
    /// if any (plumbed into the flow's cancellation token).
    #[must_use]
    pub fn timeout_stage(&self) -> Option<FlowStage> {
        self.active().find_map(|f| match f.kind {
            FaultKind::StageTimeout(stage) => Some(stage),
            _ => None,
        })
    }

    /// Panics when an active [`FaultKind::StagePanic`] names `stage`.
    pub fn maybe_panic(&self, stage: FlowStage) {
        if self
            .active()
            .any(|f| f.kind == FaultKind::StagePanic(stage))
        {
            panic!("fault: injected panic at {stage} stage boundary");
        }
    }

    /// Applies the active netlist and P&R-result corruptions (between the
    /// P&R and merge stages of `run_flow`).
    pub fn apply_post_pnr(
        &self,
        netlist: &mut Netlist,
        pnr: &mut PnrResult,
        library: &Library,
        flow_seed: u64,
    ) {
        for (i, fault) in self.active().enumerate() {
            let mut rng = self.victim_rng(flow_seed, i);
            apply_pnr_fault(fault.kind, netlist, pnr, library, &mut rng);
        }
    }

    /// Applies the active merged-DEF corruptions (between the merge and
    /// signoff stages of `run_flow`).
    pub fn apply_post_merge(
        &self,
        merged: &mut Def,
        netlist: &Netlist,
        library: &Library,
        flow_seed: u64,
    ) {
        for (i, fault) in self.active().enumerate() {
            let mut rng = self.victim_rng(flow_seed, i);
            apply_def_fault(fault.kind, merged, netlist, library, &mut rng);
        }
    }

    /// Victim-selection stream for the `i`-th active fault: keyed on the
    /// flow seed, the plan seed, and the fault's position, so co-injected
    /// faults pick victims independently yet reproducibly.
    fn victim_rng(&self, flow_seed: u64, i: usize) -> Rng64 {
        Rng64::new(flow_seed ^ self.seed ^ ((i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
    }
}

fn kind_from_name(name: &str) -> Option<FaultKind> {
    Some(match name {
        "net-undriven" => FaultKind::NetUndriven,
        "net-multi-driven" => FaultKind::NetMultiDriven,
        "pin-float" => FaultKind::PinFloat,
        "comb-loop" => FaultKind::CombLoop,
        "ghost-instance" => FaultKind::GhostInstance,
        "bridge-orphan" => FaultKind::BridgeOrphan,
        "cell-displace" => FaultKind::CellDisplace,
        "placement-count" => FaultKind::PlacementCountMismatch,
        "route-open" => FaultKind::RouteOpen,
        "route-phantom" => FaultKind::RoutePhantom,
        "wire-non-manhattan" => FaultKind::WireNonManhattan,
        "wire-off-die" => FaultKind::WireOffDie,
        "wire-illegal-layer" => FaultKind::WireIllegalLayer,
        "wire-wrong-direction" => FaultKind::WireWrongDirection,
        "via-displace" => FaultKind::ViaDisplace,
        "demand-inflate" => FaultKind::DemandInflate,
        "drv-inflate" => FaultKind::DrvInflate,
        "def-drop-component" => FaultKind::DefDropComponent,
        "def-dup-component" => FaultKind::DefDupComponent,
        "def-macro-swap" => FaultKind::DefMacroSwap,
        "def-ghost-component" => FaultKind::DefGhostComponent,
        "def-drop-net" => FaultKind::DefDropNet,
        "def-dup-net" => FaultKind::DefDupNet,
        "def-ghost-net" => FaultKind::DefGhostNet,
        "def-drop-connection" => FaultKind::DefDropConnection,
        "def-add-connection" => FaultKind::DefAddConnection,
        "panic-synth" => FaultKind::StagePanic(FlowStage::Synth),
        "panic-pnr" => FaultKind::StagePanic(FlowStage::Pnr),
        "panic-merge" => FaultKind::StagePanic(FlowStage::Merge),
        "panic-signoff" => FaultKind::StagePanic(FlowStage::Signoff),
        "panic-route" => FaultKind::RoutePanic,
        "stage-timeout" => FaultKind::StageTimeout(FlowStage::Pnr),
        "timeout-synth" => FaultKind::StageTimeout(FlowStage::Synth),
        "timeout-merge" => FaultKind::StageTimeout(FlowStage::Merge),
        "timeout-signoff" => FaultKind::StageTimeout(FlowStage::Signoff),
        _ => return None,
    })
}

/// Picks a deterministic victim index in `0..n` (`n > 0`).
fn pick(rng: &mut Rng64, n: usize) -> usize {
    (rng.next_u64() % n as u64) as usize
}

/// A point far outside any die (all dies here are well under 10 mm).
fn far_outside(die: ffet_geom::Rect) -> Point {
    Point::new(die.hi.x + 10_000_000, die.hi.y + 10_000_000)
}

fn apply_pnr_fault(
    kind: FaultKind,
    netlist: &mut Netlist,
    pnr: &mut PnrResult,
    library: &Library,
    rng: &mut Rng64,
) {
    match kind {
        FaultKind::NetUndriven => {
            let victims: Vec<usize> = netlist
                .nets()
                .iter()
                .enumerate()
                .filter(|(_, n)| n.driver.is_some() && !n.sinks.is_empty() && !n.is_clock)
                .map(|(i, _)| i)
                .collect();
            if victims.is_empty() {
                return;
            }
            let ni = victims[pick(rng, victims.len())];
            // Victims were filtered on `driver.is_some()` above.
            let Some(driver) = netlist.net_mut(NetId(ni as u32)).driver.take() else {
                return;
            };
            netlist.instance_mut(driver.inst).conns[driver.pin] = None;
        }
        FaultKind::NetMultiDriven => {
            let victims: Vec<usize> = netlist
                .nets()
                .iter()
                .enumerate()
                .filter(|(_, n)| n.driver.is_some() && !n.is_clock)
                .map(|(i, _)| i)
                .collect();
            if victims.is_empty() {
                return;
            }
            let ni = victims[pick(rng, victims.len())];
            netlist.add_port("fault_driver", PortDirection::Input, NetId(ni as u32));
            // Keep placement bookkeeping consistent: decomposition indexes
            // port positions by port index.
            let pos = pnr
                .placement
                .port_positions
                .first()
                .copied()
                .unwrap_or(pnr.floorplan.die.lo);
            pnr.placement.port_positions.push(pos);
        }
        FaultKind::PinFloat => {
            let victims: Vec<PinRef> = connected_input_pins(netlist, library);
            if victims.is_empty() {
                return;
            }
            let pin = victims[pick(rng, victims.len())];
            // Victims came from `connected_input_pins`, so the slot is
            // occupied.
            let Some(net) = netlist.instance_mut(pin.inst).conns[pin.pin].take() else {
                return;
            };
            netlist.net_mut(net).sinks.retain(|&s| s != pin);
        }
        FaultKind::CombLoop => {
            let victims: Vec<(InstId, usize, NetId, NetId)> = comb_loop_victims(netlist, library);
            if victims.is_empty() {
                return;
            }
            let (inst, in_pin, old_net, out_net) = victims[pick(rng, victims.len())];
            let pin = PinRef::new(inst, in_pin);
            netlist.net_mut(old_net).sinks.retain(|&s| s != pin);
            netlist.instance_mut(inst).conns[in_pin] = Some(out_net);
            netlist.net_mut(out_net).sinks.push(pin);
        }
        FaultKind::GhostInstance => {
            let inv = CellKind::new(CellFunction::Inv, DriveStrength::D1);
            add_ghost_sink(netlist, pnr, library, rng, inv, "fault_ghost");
        }
        FaultKind::BridgeOrphan => {
            let bridge = CellKind::new(CellFunction::Bridge, DriveStrength::D2);
            add_ghost_sink(netlist, pnr, library, rng, bridge, "fault_bridge");
        }
        FaultKind::CellDisplace => {
            let n = pnr.placement.origins.len();
            if n == 0 {
                return;
            }
            // One site off the row grid: small enough to stay on-die,
            // large enough that legality flags the origin.
            pnr.placement.origins[pick(rng, n)].y += 7;
        }
        FaultKind::PlacementCountMismatch => {
            let die = pnr.floorplan.die;
            pnr.placement.origins.push(die.lo);
            pnr.placement.orients.push(Orientation::default());
        }
        FaultKind::RouteOpen => {
            let victims: Vec<usize> = pnr
                .routing
                .nets
                .iter()
                .enumerate()
                .filter(|(_, rn)| rn.wires.iter().any(|w| w.from != w.to))
                .map(|(i, _)| i)
                .collect();
            if victims.is_empty() {
                return;
            }
            let rn = &mut pnr.routing.nets[victims[pick(rng, victims.len())]];
            rn.wires.clear();
            rn.vias.clear();
        }
        FaultKind::RoutePhantom => {
            let routed: FxHashSet<(u32, Side)> = pnr
                .routing
                .nets
                .iter()
                .map(|rn| (rn.net.0, rn.side))
                .collect();
            let victims: Vec<(u32, Side)> = (0..netlist.nets().len() as u32)
                .flat_map(|ni| Side::BOTH.map(|s| (ni, s)))
                .filter(|key| !routed.contains(key))
                .collect();
            if victims.is_empty() {
                return;
            }
            let (ni, side) = victims[pick(rng, victims.len())];
            pnr.routing.nets.push(RoutedNet {
                net: NetId(ni),
                side,
                wires: Vec::new(),
                vias: Vec::new(),
            });
        }
        FaultKind::WireNonManhattan => {
            if let Some((ri, layer, at)) = wire_anchor(pnr) {
                pnr.routing.nets[ri].wires.push(DefWire {
                    layer,
                    from: at,
                    to: Point::new(at.x + 31, at.y + 17),
                });
            }
        }
        FaultKind::WireOffDie => {
            if let Some((ri, layer, _)) = wire_anchor(pnr) {
                let far = far_outside(pnr.floorplan.die);
                // Axis-aligned along the layer's preferred direction so
                // only the die check can fire.
                let to = match layer.axis() {
                    ffet_geom::Axis::Horizontal => Point::new(far.x + 100, far.y),
                    ffet_geom::Axis::Vertical => Point::new(far.x, far.y + 100),
                };
                pnr.routing.nets[ri].wires.push(DefWire {
                    layer,
                    from: far,
                    to,
                });
            }
        }
        FaultKind::WireIllegalLayer => {
            if let Some((ri, layer, at)) = wire_anchor(pnr) {
                pnr.routing.nets[ri].wires.push(DefWire {
                    layer: LayerId::new(layer.side, 0),
                    from: at,
                    to: Point::new(at.x + 60, at.y),
                });
            }
        }
        FaultKind::WireWrongDirection => {
            if let Some((ri, layer, at)) = wire_anchor(pnr) {
                // Perpendicular to the layer's preferred direction.
                let to = match layer.axis() {
                    ffet_geom::Axis::Horizontal => Point::new(at.x, at.y + 64),
                    ffet_geom::Axis::Vertical => Point::new(at.x + 64, at.y),
                };
                pnr.routing.nets[ri].wires.push(DefWire {
                    layer,
                    from: at,
                    to,
                });
            }
        }
        FaultKind::ViaDisplace => {
            let far = far_outside(pnr.floorplan.die);
            if let Some(rn) = pnr.routing.nets.iter_mut().find(|rn| !rn.vias.is_empty()) {
                rn.vias[0].at = far;
            } else if let Some((ri, layer, _)) = wire_anchor(pnr) {
                pnr.routing.nets[ri].vias.push(DefVia {
                    at: far,
                    from_layer: layer,
                    to_layer: layer,
                });
            }
        }
        FaultKind::DemandInflate => {
            let longest = pnr
                .routing
                .nets
                .iter()
                .enumerate()
                .flat_map(|(ri, rn)| rn.wires.iter().map(move |w| (ri, *w)))
                .max_by_key(|(_, w)| w.length());
            if let Some((ri, wire)) = longest {
                pnr.routing.nets[ri]
                    .wires
                    .extend(std::iter::repeat_n(wire, DEMAND_INFLATE_COPIES));
            }
        }
        FaultKind::DrvInflate => {
            pnr.routing.drv_count += DRV_INFLATE;
        }
        FaultKind::StagePanic(_) => {}   // handled at stage boundaries
        FaultKind::RoutePanic => {}      // armed via PnrConfig::route_panic before P&R runs
        FaultKind::StageTimeout(_) => {} // armed as a forced cancel token before the flow runs
        _ => {}                          // merged-DEF faults are applied in apply_def_fault
    }
}

/// Connected input pins of every instance (victim pool for `PinFloat`).
fn connected_input_pins(netlist: &Netlist, library: &Library) -> Vec<PinRef> {
    let mut out = Vec::new();
    for (i, inst) in netlist.instances().iter().enumerate() {
        let output = library.cell(inst.cell).output_pin();
        for (pi, conn) in inst.conns.iter().enumerate() {
            if conn.is_some() && Some(pi) != output {
                out.push(PinRef::new(InstId(i as u32), pi));
            }
        }
    }
    out
}

/// Combinational instances whose first connected input can be rewired to
/// their own output net: `(inst, input_pin, current_net, output_net)`.
fn comb_loop_victims(netlist: &Netlist, library: &Library) -> Vec<(InstId, usize, NetId, NetId)> {
    let mut out = Vec::new();
    for (i, inst) in netlist.instances().iter().enumerate() {
        let cell = library.cell(inst.cell);
        if cell.kind.function.is_sequential() {
            continue;
        }
        let Some(out_pin) = cell.output_pin() else {
            continue;
        };
        let Some(out_net) = inst.conns[out_pin] else {
            continue;
        };
        if netlist.net(out_net).is_clock {
            continue;
        }
        let input = inst
            .conns
            .iter()
            .enumerate()
            .find(|&(pi, c)| pi != out_pin && c.is_some() && *c != Some(out_net));
        if let Some((pi, &Some(old_net))) = input {
            out.push((InstId(i as u32), pi, old_net, out_net));
        }
    }
    out
}

/// Adds a post-P&R instance of `kind` (sinking an existing net, driving a
/// fresh one) plus a placement origin so downstream analysis stays
/// index-consistent. No-op when the library lacks the cell (e.g. bridge
/// cells on CFET).
fn add_ghost_sink(
    netlist: &mut Netlist,
    pnr: &mut PnrResult,
    library: &Library,
    rng: &mut Rng64,
    kind: CellKind,
    name: &str,
) {
    let Some(cell) = library.id(kind) else {
        return;
    };
    let victims: Vec<usize> = netlist
        .nets()
        .iter()
        .enumerate()
        .filter(|(_, n)| n.driver.is_some() && !n.is_clock)
        .map(|(i, _)| i)
        .collect();
    if victims.is_empty() || pnr.placement.origins.is_empty() {
        return;
    }
    let in_net = NetId(victims[pick(rng, victims.len())] as u32);
    let out_net = netlist.add_net(format!("{name}_out"));
    netlist.add_instance(library, name, cell, &[Some(in_net), Some(out_net)]);
    pnr.placement.origins.push(pnr.placement.origins[0]);
    pnr.placement.orients.push(Orientation::default());
}

/// First routed net carrying real geometry: `(index, layer, endpoint)` —
/// the anchor injected wires attach near so they stay on legal, on-die
/// coordinates except for the one property each fault violates.
fn wire_anchor(pnr: &PnrResult) -> Option<(usize, LayerId, Point)> {
    pnr.routing.nets.iter().enumerate().find_map(|(ri, rn)| {
        rn.wires
            .iter()
            .find(|w| w.from != w.to)
            .map(|w| (ri, w.layer, w.from))
    })
}

fn apply_def_fault(
    kind: FaultKind,
    merged: &mut Def,
    netlist: &Netlist,
    library: &Library,
    rng: &mut Rng64,
) {
    // Only netlist-backed components are corrupted: tap/filler rows have
    // their own LVS exemptions and would not map to a unique rule.
    let macro_of: FxHashMap<&str, &str> = netlist
        .instances()
        .iter()
        .map(|inst| (inst.name.as_str(), library.cell(inst.cell).name.as_str()))
        .collect();
    let component_victims = |merged: &Def| -> Vec<usize> {
        merged
            .components
            .iter()
            .enumerate()
            .filter(|(_, c)| macro_of.contains_key(c.name.as_str()))
            .map(|(i, _)| i)
            .collect()
    };
    match kind {
        FaultKind::DefDropComponent => {
            let victims = component_victims(merged);
            if victims.is_empty() {
                return;
            }
            merged.components.remove(victims[pick(rng, victims.len())]);
        }
        FaultKind::DefDupComponent => {
            let victims = component_victims(merged);
            if victims.is_empty() {
                return;
            }
            let dup = merged.components[victims[pick(rng, victims.len())]].clone();
            merged.components.push(dup);
        }
        FaultKind::DefMacroSwap => {
            let victims = component_victims(merged);
            if victims.is_empty() {
                return;
            }
            let c = &mut merged.components[victims[pick(rng, victims.len())]];
            c.macro_name = if c.macro_name == "INVD1" {
                "BUFD1"
            } else {
                "INVD1"
            }
            .to_owned();
        }
        FaultKind::DefGhostComponent => {
            merged.components.push(DefComponent {
                name: "fault_ghost_component".to_owned(),
                macro_name: "INVD1".to_owned(),
                origin: merged.die.lo,
                orient: Orientation::default(),
                fixed: false,
            });
        }
        FaultKind::DefDropNet => {
            let required: FxHashSet<&str> = netlist
                .nets()
                .iter()
                .filter(|n| n.driver.is_some() && !n.sinks.is_empty())
                .map(|n| n.name.as_str())
                .collect();
            let victims: Vec<usize> = merged
                .nets
                .iter()
                .enumerate()
                .filter(|(_, n)| required.contains(n.name.as_str()))
                .map(|(i, _)| i)
                .collect();
            if victims.is_empty() {
                return;
            }
            merged.nets.remove(victims[pick(rng, victims.len())]);
        }
        FaultKind::DefDupNet => {
            if merged.nets.is_empty() {
                return;
            }
            let dup = merged.nets[pick(rng, merged.nets.len())].clone();
            merged.nets.push(dup);
        }
        FaultKind::DefGhostNet => {
            merged.nets.push(DefNet {
                name: "fault_ghost_net".to_owned(),
                ..DefNet::default()
            });
        }
        FaultKind::DefDropConnection => {
            let victims: Vec<(usize, usize)> = merged
                .nets
                .iter()
                .enumerate()
                .flat_map(|(ni, n)| {
                    n.connections
                        .iter()
                        .enumerate()
                        .filter(|(_, c)| c.instance != "PIN")
                        .map(move |(ci, _)| (ni, ci))
                })
                .collect();
            if victims.is_empty() {
                return;
            }
            let (ni, ci) = victims[pick(rng, victims.len())];
            merged.nets[ni].connections.remove(ci);
        }
        FaultKind::DefAddConnection => {
            if merged.nets.is_empty() {
                return;
            }
            let ni = pick(rng, merged.nets.len());
            merged.nets[ni].connections.push(DefConnection {
                instance: "fault_ghost_component".to_owned(),
                pin: "A".to_owned(),
            });
        }
        _ => {} // netlist/P&R faults were applied in apply_pnr_fault
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_empty() {
        let plan = FaultPlan::default();
        assert!(plan.is_empty());
        assert_eq!(plan.active().count(), 0);
    }

    #[test]
    fn parse_round_trips_names_and_windows() {
        let plan = FaultPlan::parse("route-open, panic-pnr@1 ,drv-inflate").expect("parses");
        assert_eq!(
            plan.faults,
            vec![
                Fault::always(FaultKind::RouteOpen),
                Fault::until(FaultKind::StagePanic(FlowStage::Pnr), 1),
                Fault::always(FaultKind::DrvInflate),
            ]
        );
        assert!(FaultPlan::parse("").expect("empty ok").is_empty());
        assert!(FaultPlan::parse("no-such-fault").is_err());
        assert!(FaultPlan::parse("route-open@x").is_err());
    }

    #[test]
    fn windowed_fault_deactivates_at_attempt() {
        let mut plan = FaultPlan {
            faults: vec![Fault::until(FaultKind::RouteOpen, 1)],
            seed: 0,
            attempt: 0,
        };
        assert_eq!(plan.active().count(), 1);
        plan.attempt = 1;
        assert_eq!(plan.active().count(), 0);
    }

    #[test]
    fn timeout_faults_parse_and_gate_on_attempt() {
        let mut plan = FaultPlan::parse("stage-timeout@1").expect("parses");
        assert_eq!(plan.timeout_stage(), Some(FlowStage::Pnr));
        // The window gates the timeout off from attempt 1 on — the ladder's
        // first retry no longer expires.
        plan.attempt = 1;
        assert_eq!(plan.timeout_stage(), None);
        assert_eq!(
            FaultPlan::parse("timeout-synth")
                .expect("parses")
                .timeout_stage(),
            Some(FlowStage::Synth)
        );
        assert_eq!(FaultPlan::default().timeout_stage(), None);
    }

    #[test]
    #[should_panic(expected = "injected panic at merge stage")]
    fn stage_panic_fires_at_its_boundary() {
        let plan = FaultPlan {
            faults: vec![Fault::always(FaultKind::StagePanic(FlowStage::Merge))],
            seed: 0,
            attempt: 0,
        };
        plan.maybe_panic(FlowStage::Pnr); // different stage: no panic
        plan.maybe_panic(FlowStage::Merge);
    }
}
