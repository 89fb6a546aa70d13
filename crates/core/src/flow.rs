//! The end-to-end evaluation flow of the paper's Fig. 7: synthesis-lite →
//! floorplan → powerplan → placement → CTS → dual-sided routing → DEF merge
//! → dual-sided RC extraction → STA + power.

use crate::faults::{FaultPlan, FlowStage};
use crate::recover::max_attempts_from_env;
use crate::report::PpaReport;
use crate::runner::CancelToken;
use crate::synth::{synthesize, SynthConfig};
use ffet_cells::Library;
use ffet_geom::FxHashMap;
use ffet_lefdef::{merge_defs, Def};
use ffet_netlist::Netlist;
use ffet_pnr::{pin_position, run_pnr, PnrConfig, PnrError, PnrResult};
use ffet_rcx::{extract_net_with, NetParasitics};
use ffet_sta::{analyze_power, analyze_timing, StaConfig};
use ffet_tech::{RoutingPattern, TechKind, Technology};
use ffet_verify::{run_signoff, SignoffReport};

/// Full flow configuration — one DoE point.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowConfig {
    /// Technology to implement in.
    pub tech: TechKind,
    /// Routing-layer pattern (`FMnBMm`).
    pub pattern: RoutingPattern,
    /// Backside input-pin density (`BPy` of the DoEs); 0.0 for CFET and
    /// for single-sided FFET runs.
    pub back_pin_ratio: f64,
    /// Placement utilization target.
    pub utilization: f64,
    /// Die aspect ratio.
    pub aspect_ratio: f64,
    /// Synthesis target frequency, GHz.
    pub target_freq_ghz: f64,
    /// Switching activity for power analysis.
    pub activity: f64,
    /// Seed for every stochastic stage.
    pub seed: u64,
    /// Enable conventional bridging cells for nets longer than this placed
    /// HPWL (nm) — the ablation against Algorithm 1's redistributed pins.
    pub bridging_min_nm: Option<i64>,
    /// Additional rip-up-and-reroute rounds beyond the calibrated budget
    /// (0 in normal runs; raised by the recovery ladder).
    pub extra_reroute_rounds: u32,
    /// Attempt budget for [`crate::run_flow_resilient`] (≥ 1; plain
    /// [`run_flow`] ignores it).
    pub max_attempts: u32,
    /// Worker count for the router's batched rip-up rounds
    /// (`--route-jobs` / `FFET_ROUTE_JOBS`; 1 = fully inline). Intra-point
    /// parallelism, orthogonal to the DoE pool's `--jobs`: it changes
    /// wall-clock only, never an artifact byte.
    pub route_jobs: usize,
    /// Per-attempt wall-clock budget in milliseconds (`--deadline` /
    /// `FFET_DEADLINE`, in seconds). `None` (the default) never expires.
    /// Expiry is cooperative — checked at stage boundaries and inside the
    /// router's rip-up/batch loops — and surfaces as
    /// [`FlowError::Timeout`], which the recovery ladder retries with a
    /// fresh budget. Real expiry depends on the host's wall clock and is
    /// therefore outside the DESIGN §7 byte-identity contract; the
    /// `stage-timeout` fault forces the same paths deterministically.
    pub deadline_ms: Option<u64>,
    /// Seeded fault schedule (empty by default — the golden path).
    pub fault_plan: FaultPlan,
    /// Root directory of the content-addressed stage cache
    /// (`FFET_STAGE_CACHE` for drivers; DESIGN §14). `None` (the default
    /// outside the `repro` driver) runs every stage inline, byte-identical
    /// to the pre-cache flow. Like `route_jobs`/`deadline_ms` this knob
    /// never changes an artifact byte — a warm run rehydrates exactly what
    /// a cold run computes — so it is excluded from cache keys and
    /// checkpoint signatures. Ignored (forced off) when `fault_plan` is
    /// non-empty: faulted artifacts must never enter or leave the cache.
    pub stage_cache: Option<std::path::PathBuf>,
}

/// Environment variable carrying the router worker count for the `repro`
/// driver (`--route-jobs`). Unset or invalid → the DoE pool width
/// ([`crate::runner::JOBS_ENV`] / available parallelism).
pub const ROUTE_JOBS_ENV: &str = "FFET_ROUTE_JOBS";

/// The router worker count from `FFET_ROUTE_JOBS`, defaulting to the DoE
/// pool width (so a machine-wide `FFET_JOBS=1` also serializes the
/// router).
#[must_use]
pub fn route_jobs_from_env() -> usize {
    std::env::var(ROUTE_JOBS_ENV)
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| {
            crate::runner::width_from(std::env::var(crate::runner::JOBS_ENV).ok().as_deref())
        })
}

/// Environment variable carrying the per-attempt deadline (in seconds,
/// fractional allowed) for the `repro` driver (`--deadline`).
pub const DEADLINE_ENV: &str = "FFET_DEADLINE";

/// The per-attempt deadline from `FFET_DEADLINE` (seconds → milliseconds),
/// or `None` when unset, unparsable, or non-positive.
#[must_use]
pub fn deadline_ms_from_env() -> Option<u64> {
    std::env::var(DEADLINE_ENV)
        .ok()
        .and_then(|v| v.trim().parse::<f64>().ok())
        .filter(|s| s.is_finite() && *s > 0.0)
        .map(|s| (s * 1000.0).ceil() as u64)
}

impl FlowConfig {
    /// The paper's baseline configuration for a technology: 1.5 GHz
    /// target, 70% utilization, square die, maximal single-sided routing.
    #[must_use]
    pub fn baseline(tech: TechKind) -> FlowConfig {
        FlowConfig {
            tech,
            pattern: RoutingPattern::max_single_sided(),
            back_pin_ratio: 0.0,
            utilization: 0.7,
            // Narrower-than-square: the row-based placement makes block
            // wiring H-heavy while the alternating stack gives H only
            // ⌈n/2⌉ layers; the floorplan aspect balances the two (the
            // paper's floorplan stage sets utilization *and* aspect).
            aspect_ratio: 1.0,
            target_freq_ghz: 1.5,
            activity: 0.15,
            seed: 42,
            bridging_min_nm: None,
            extra_reroute_rounds: 0,
            // The driver-facing knobs (`--max-attempts` / `--route-jobs` /
            // `FFET_FAULTS`) enter here; experiment code sets the fields
            // directly.
            max_attempts: max_attempts_from_env(),
            route_jobs: route_jobs_from_env(),
            deadline_ms: deadline_ms_from_env(),
            fault_plan: FaultPlan::from_env(),
            stage_cache: crate::stagecache::root_from_env(),
        }
    }

    /// Builds the (possibly pin-redistributed) library for this config.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Config`] if `back_pin_ratio` is invalid for the
    /// technology (outside 0..=1, or nonzero on a stack without backside
    /// pins).
    pub fn build_library(&self) -> Result<Library, FlowError> {
        let tech = match self.tech {
            TechKind::Ffet3p5t => Technology::ffet_3p5t(),
            TechKind::Cfet4t => Technology::cfet_4t(),
        };
        let mut lib = Library::new(tech);
        if self.back_pin_ratio > 0.0 {
            lib.redistribute_input_pins(self.back_pin_ratio, self.seed)
                .map_err(|e| FlowError::Config(e.to_string()))?;
        }
        Ok(lib)
    }
}

/// Everything one flow run produced (report + artifacts for inspection).
#[derive(Debug, Clone)]
pub struct FlowOutcome {
    /// The PPA data point.
    pub report: PpaReport,
    /// The merged dual-sided DEF (paper §III.C).
    pub merged_def: Def,
    /// The raw P&R result.
    pub pnr: PnrResult,
    /// The full timing report (critical path and slack detail).
    pub timing: ffet_sta::TimingReport,
    /// Extracted parasitics, aligned to the (post-synthesis, post-CTS)
    /// netlist's nets.
    pub parasitics: Vec<Option<NetParasitics>>,
    /// Static signoff over the finished implementation (lint + DRC +
    /// LVS-lite). Always clean of errors when this outcome is returned;
    /// its warnings are the signoff view of the DRV proxy.
    pub signoff: SignoffReport,
}

impl FlowOutcome {
    /// Serializes the extracted parasitics as SPEF text (the artifact the
    /// paper's StarRC stage hands to STA).
    #[must_use]
    pub fn write_spef(&self) -> String {
        let nets: Vec<NetParasitics> = self.parasitics.iter().flatten().cloned().collect();
        ffet_rcx::write_spef(&self.report.tech, &nets)
    }
}

/// Error from [`run_flow`].
#[derive(Debug, Clone, PartialEq)]
pub enum FlowError {
    /// The configuration itself is invalid for the technology (bad DoE
    /// pin ratio, backside pins on a stack without them).
    Config(String),
    /// Synthesis-lite failed structurally (the library lacks a cell the
    /// transform relies on — a malformed library, not a design property).
    Synth(String),
    /// Physical implementation failed structurally.
    Pnr(PnrError),
    /// The netlist has a combinational loop.
    CombLoop(String),
    /// The two side DEFs did not merge (internal invariant).
    Merge(String),
    /// Static signoff found error-severity violations (opens, LVS
    /// mismatches, illegal layers…). Carries the full structured report so
    /// recovery logic and tests can match on rule ids.
    Signoff(SignoffReport),
    /// The flow panicked; caught and carried by
    /// [`crate::run_flow_resilient`] (plain [`run_flow`] propagates).
    Panicked(String),
    /// The per-attempt deadline expired (or a `stage-timeout` fault forced
    /// expiry) at the named stage. Recoverable: the ladder retries with a
    /// fresh budget, and `runlog.csv` renders it as `timeout(stage)`.
    Timeout(String),
}

impl std::fmt::Display for FlowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlowError::Config(e) => write!(f, "invalid flow config: {e}"),
            FlowError::Synth(e) => write!(f, "synthesis: {e}"),
            FlowError::Pnr(e) => write!(f, "physical implementation: {e}"),
            FlowError::CombLoop(i) => write!(f, "combinational loop through {i}"),
            FlowError::Merge(e) => write!(f, "DEF merge: {e}"),
            FlowError::Signoff(report) => {
                let rules: Vec<String> = report
                    .rule_counts()
                    .into_iter()
                    .filter(|(_, sev, _)| *sev == ffet_verify::Severity::Error)
                    .map(|(rule, _, n)| format!("{rule}×{n}"))
                    .collect();
                write!(
                    f,
                    "signoff failed: {} error(s) [{}]",
                    report.error_count(),
                    rules.join(", ")
                )
            }
            FlowError::Panicked(m) => write!(f, "flow panicked: {m}"),
            FlowError::Timeout(stage) => write!(f, "deadline exceeded at {stage} stage"),
        }
    }
}

impl std::error::Error for FlowError {}

impl From<PnrError> for FlowError {
    fn from(e: PnrError) -> FlowError {
        FlowError::Pnr(e)
    }
}

/// Runs the complete flow on (a clone of) `netlist` under `library`.
///
/// The library must come from [`FlowConfig::build_library`] (or otherwise
/// match `config.tech` and `config.back_pin_ratio`).
///
/// The body is an explicit stage DAG ([`crate::stagecache::Stage`]): each
/// stage runs through [`crate::stagecache::run_stage`], which either
/// replays a memoized artifact (when `config.stage_cache` is set and the
/// stage's input key hits) or computes it inline. With the cache off the
/// event stream and artifacts are byte-identical to the pre-cache flow;
/// with it on, only wall clock and the `cached` span attribute change.
///
/// # Errors
///
/// [`FlowError`] on structural failures. Congestion/placement violations
/// are *not* errors: they surface as `report.drv` / `report.valid`,
/// matching the paper's treatment of invalid P&R results.
pub fn run_flow(
    netlist: &Netlist,
    library: &Library,
    config: &FlowConfig,
) -> Result<FlowOutcome, FlowError> {
    use crate::stagecache::{self, run_stage, StageCache};

    let faults = &config.fault_plan;

    // The stage cache is forcibly off under any fault plan: faulted or
    // recovery-perturbed artifacts must never enter it, and fault-injected
    // panics must unwind the plain inline path.
    let cache: Option<StageCache> = if faults.is_empty() {
        config.stage_cache.as_deref().map(StageCache::new)
    } else {
        None
    };
    let cache = cache.as_ref();

    // Deadline watchdog: one cooperative token per attempt (the ladder
    // retries a timed-out point with a fresh budget). A `stage-timeout`
    // fault expires *at its named stage*, deterministically at any pool
    // width; a real `FFET_DEADLINE` budget expires wherever the wall
    // clock says it does.
    let timeout_fault = faults.timeout_stage();
    let deadline = CancelToken::with_deadline_ms(config.deadline_ms);
    let check_deadline = |stage: FlowStage| -> Result<(), FlowError> {
        if timeout_fault == Some(stage) || deadline.cancelled() {
            ffet_obs::counter_add("flow.timeout", 1);
            return Err(FlowError::Timeout(stage.to_string()));
        }
        Ok(())
    };

    // Root span for the whole point. Declared first so that on an early
    // return it drops (and records) after every stage span. Seeds are
    // stringified: perturbed recovery seeds can exceed `i64`.
    let root = ffet_obs::span("flow")
        .attr("tech", format!("{:?}", config.tech))
        .attr("pattern", config.pattern.to_string())
        .attr("back_pin_ratio", config.back_pin_ratio)
        .attr("utilization", config.utilization)
        .attr("target_freq_ghz", config.target_freq_ghz)
        .attr("seed", config.seed.to_string());
    ffet_obs::counter_add("flow.runs", 1);

    // Synthesis-lite toward the target frequency. The key omits
    // `back_pin_ratio` and `seed` (synthesis never sees pin geometry), so
    // every point of a BP/seed axis shares one entry.
    let synth_cache_key = cache.map(|_| stagecache::synth_key(config, netlist));
    let (netlist, synth_addr) = run_stage::<_, FlowError>(
        cache,
        synth_cache_key,
        stagecache::Stage::Synth.name(),
        stagecache::encode_synth,
        stagecache::decode_synth,
        || {
            let mut netlist = netlist.clone();
            let sp = ffet_obs::span("flow.synth");
            synthesize(
                &mut netlist,
                library,
                &SynthConfig::for_target(config.target_freq_ghz),
            )
            .map_err(FlowError::Synth)?;
            sp.close();
            ffet_obs::gauge_set("flow.cells", netlist.instances().len() as f64);
            Ok(netlist)
        },
    )?;
    faults.maybe_panic(FlowStage::Synth);
    check_deadline(FlowStage::Synth)?;

    // Physical implementation (floorplan → powerplan → place → CTS →
    // dual-sided route). CTS mutates the netlist (clock buffers), so the
    // payload carries the post-CTS netlist alongside the P&R result.
    let pnr_config = PnrConfig {
        utilization: config.utilization,
        aspect_ratio: config.aspect_ratio,
        pattern: config.pattern,
        seed: config.seed,
        bridging_min_nm: config.bridging_min_nm,
        extra_reroute_rounds: config.extra_reroute_rounds,
        route_jobs: config.route_jobs,
        route_panic: faults.has_route_panic(),
        // The router polls this token at rip-up-round and batch
        // boundaries; a forced P&R timeout rides the same plumbing so the
        // deterministic fault exercises the real cancellation path.
        cancel: if timeout_fault == Some(FlowStage::Pnr) {
            CancelToken::forced()
        } else {
            deadline
        },
    };
    let pnr_cache_key = synth_addr
        .as_deref()
        .map(|a| stagecache::pnr_key(config, a));
    let ((mut netlist, mut pnr), pnr_addr) = run_stage::<_, FlowError>(
        cache,
        pnr_cache_key,
        stagecache::Stage::Pnr.name(),
        stagecache::encode_pnr,
        stagecache::decode_pnr,
        || {
            let mut netlist = netlist;
            let sp = ffet_obs::span("flow.pnr");
            let pnr = match run_pnr(&mut netlist, library, &pnr_config) {
                Err(PnrError::Cancelled) => {
                    ffet_obs::counter_add("flow.timeout", 1);
                    return Err(FlowError::Timeout(FlowStage::Pnr.to_string()));
                }
                r => r?,
            };
            sp.close();
            Ok((netlist, pnr))
        },
    )?;
    faults.maybe_panic(FlowStage::Pnr);
    check_deadline(FlowStage::Pnr)?;
    if !faults.is_empty() {
        faults.apply_post_pnr(&mut netlist, &mut pnr, library, config.seed);
    }

    // DEF merge (paper: "we first merged the two DEFs into one DEF"). A
    // pure function of the two side DEFs, so the key is the pnr address
    // alone.
    let (mut merged_def, merge_addr) = run_stage::<_, FlowError>(
        cache,
        pnr_addr.as_deref().map(stagecache::merge_key),
        stagecache::Stage::Merge.name(),
        stagecache::encode_merge,
        stagecache::decode_merge,
        || {
            let sp = ffet_obs::span("flow.merge");
            let merged = merge_defs(&pnr.front_def, &pnr.back_def)
                .map_err(|e| FlowError::Merge(e.to_string()))?;
            sp.close();
            Ok(merged)
        },
    )?;
    faults.maybe_panic(FlowStage::Merge);
    check_deadline(FlowStage::Merge)?;
    if !faults.is_empty() {
        faults.apply_post_merge(&mut merged_def, &netlist, library, config.seed);
    }

    // Static signoff over the finished artifacts: netlist lint, route and
    // placement DRC, LVS-lite of the merged DEF. Error severity means the
    // implementation is structurally broken — congestion and legality
    // overflow stay warnings and feed the DRV validity proxy instead.
    // Failed signoff returns an error, which `run_stage` never stores, so
    // only clean reports populate the cache.
    let signoff_cache_key = match (pnr_addr.as_deref(), merge_addr.as_deref()) {
        (Some(p), Some(m)) => Some(stagecache::signoff_key(config, p, m)),
        _ => None,
    };
    let (signoff, _signoff_addr) = run_stage::<_, FlowError>(
        cache,
        signoff_cache_key,
        stagecache::Stage::Signoff.name(),
        stagecache::encode_signoff_payload,
        stagecache::decode_signoff_payload,
        || {
            let mut sp = ffet_obs::span("flow.signoff");
            let signoff = run_signoff(&netlist, library, config.pattern, &pnr, &merged_def);
            sp.set_attr("errors", signoff.error_count());
            sp.set_attr("warnings", signoff.warning_count());
            faults.maybe_panic(FlowStage::Signoff);
            check_deadline(FlowStage::Signoff)?;
            if !signoff.is_clean() {
                // `sp` drops here, recording the span.
                return Err(FlowError::Signoff(signoff));
            }
            sp.close();
            Ok(signoff)
        },
    )?;

    // Dual-sided RC extraction from the merged DEF.
    let rcx_cache_key = match (pnr_addr.as_deref(), merge_addr.as_deref()) {
        (Some(p), Some(m)) => Some(stagecache::rcx_key(config, p, m)),
        _ => None,
    };
    let (parasitics, rcx_addr) = run_stage::<_, FlowError>(
        cache,
        rcx_cache_key,
        stagecache::Stage::Rcx.name(),
        |parasitics, data| stagecache::encode_rcx(parasitics, data),
        stagecache::decode_rcx,
        || {
            let sp = ffet_obs::span("flow.rcx");
            let parasitics = extract_all(&netlist, library, &pnr, &merged_def);
            sp.close();
            Ok(parasitics)
        },
    )?;

    // STA + power at the achieved frequency.
    let sta_config = StaConfig {
        clock_period_ps: 1000.0 / config.target_freq_ghz,
        activity: config.activity,
        input_slew_ps: 10.0,
    };
    let sta_cache_key = match (pnr_addr.as_deref(), rcx_addr.as_deref()) {
        (Some(p), Some(r)) => Some(stagecache::sta_key(config, p, r)),
        _ => None,
    };
    let ((timing, power), _sta_addr) = run_stage::<_, FlowError>(
        cache,
        sta_cache_key,
        stagecache::Stage::Sta.name(),
        stagecache::encode_sta,
        stagecache::decode_sta,
        || {
            let sp = ffet_obs::span("flow.sta");
            let timing = analyze_timing(&netlist, library, &parasitics, &sta_config)
                .map_err(|e| FlowError::CombLoop(e.instance))?;
            // Power is evaluated at the synthesis target clock (the
            // block's operating point); the achieved frequency is the
            // timing margin. This matches the paper's Table III, where
            // dual-sided DoEs gain >10% frequency with ~±1% power: power
            // reflects capacitance and cell composition, not the maximum
            // speed.
            let power = analyze_power(
                &netlist,
                library,
                &parasitics,
                &sta_config,
                config.target_freq_ghz,
            );
            sp.close();
            Ok((timing, power))
        },
    )?;

    let report = PpaReport {
        tech: library.tech().to_string(),
        pattern: config.pattern,
        back_pin_ratio: config.back_pin_ratio,
        target_freq_ghz: config.target_freq_ghz,
        utilization: config.utilization,
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
        cells: netlist.instances().len(),
    };
    root.attr("drv", i64::from(report.drv))
        .attr("valid", report.valid)
        .close();
    Ok(FlowOutcome {
        report,
        merged_def,
        pnr,
        timing,
        parasitics,
        signoff,
    })
}

/// Nets per `rcx.batch` span: coarse enough that span overhead is noise,
/// fine enough that a hot extraction region shows up in the trace.
const RCX_BATCH: usize = 256;

/// Extracts parasitics for every net from the merged DEF, with sink order
/// matching `net.sinks` (the STA contract). Runs in [`RCX_BATCH`]-sized
/// batches, each under an `rcx.batch` child span.
fn extract_all(
    netlist: &Netlist,
    library: &Library,
    pnr: &PnrResult,
    merged: &Def,
) -> Vec<Option<NetParasitics>> {
    let tech = library.tech();
    let by_name: FxHashMap<&str, &ffet_lefdef::DefNet> =
        merged.nets.iter().map(|n| (n.name.as_str(), n)).collect();
    let extract_one = |net: &ffet_netlist::Net, scratch: &mut ffet_rcx::ExtractScratch| {
        let def_net = by_name.get(net.name.as_str())?;
        let source = net
            .driver
            .map(|d| pin_position(netlist, library, &pnr.placement, d))
            .or_else(|| {
                netlist
                    .ports()
                    .iter()
                    .enumerate()
                    .find(|(_, p)| {
                        netlist.nets()[p.net.0 as usize].name == net.name
                            && p.direction == ffet_netlist::PortDirection::Input
                    })
                    .map(|(pi, _)| pnr.placement.port_positions[pi])
            })?;
        let sinks: Vec<_> = net
            .sinks
            .iter()
            .map(|&s| pin_position(netlist, library, &pnr.placement, s))
            .collect();
        Some(extract_net_with(def_net, tech, source, &sinks, scratch))
    };
    let mut out = Vec::with_capacity(netlist.nets().len());
    // One scratch for the whole extraction: every net after the first
    // reuses the hash tables grown by its predecessors.
    let mut scratch = ffet_rcx::ExtractScratch::new();
    for (bi, batch) in netlist.nets().chunks(RCX_BATCH).enumerate() {
        let sp = ffet_obs::span("rcx.batch")
            .attr("batch", bi)
            .attr("nets", batch.len());
        for net in batch {
            out.push(extract_one(net, &mut scratch));
        }
        sp.close();
    }
    out
}
