//! Experiment runners regenerating every table and figure of the paper's
//! evaluation (§IV), declared as data in [`EXPERIMENTS`]. Each entry names
//! the series it runs (a label, a base [`FlowConfig`], labelled points and
//! the placement seeds each point tries) and a renderer, a pure function
//! from the assembled [`SeriesResult`]s to an [`ExpTable`]. One
//! engine, [`Experiment::run`], runs every entry and returns an [`ExpRun`];
//! the analytic tables (Table I, Table II, Fig. 4) have no series. Tables
//! render with [`ExpTable::render`] or serialize with [`ExpTable::to_csv`];
//! flow experiments additionally carry per-point traces (spans + metrics
//! from `ffet-obs`) for the run artifacts. The `repro` binary in
//! `ffet-bench` is the command-line driver.
//!
//! The benchmark design is the gate-level RV32I core
//! ([`crate::designs::rv32_core`]); set [`DesignKind::CounterSmall`] for
//! fast smoke tests of the experiment plumbing.

use crate::designs;
use crate::flow::{FlowConfig, FlowError};
use crate::recover::{run_flow_resilient, PointFailure, PointRecovery};
use crate::report::{pct_diff, PpaReport};
use crate::runner::{JobError, JobOutcome, Pool, RunLogRow};
use ffet_cells::{fig4_area_comparison, CellFunction, CellKind, DriveStrength, Library};
use ffet_netlist::Netlist;
use ffet_obs::LabeledPoint;
use ffet_tech::{RoutingPattern, Side, TechKind, Technology};

/// Which benchmark design the flow experiments run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DesignKind {
    /// The paper's 32-bit RISC-V core (~10k cells).
    #[default]
    Rv32,
    /// A small counter pipeline (fast smoke tests).
    CounterSmall,
}

fn build_design(library: &Library, kind: DesignKind) -> Netlist {
    match kind {
        DesignKind::Rv32 => designs::rv32_core(library),
        DesignKind::CounterSmall => designs::counter_pipeline(library, 24),
    }
}

/// A printable experiment table.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ExpTable {
    /// Table title.
    pub title: String,
    /// Column headers.
    pub header: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
    /// Footnotes (paper-vs-measured commentary).
    pub notes: Vec<String>,
}

impl ExpTable {
    /// Serializes the table as CSV (header row first; notes become
    /// `#`-prefixed trailer lines) — the plottable artifact of each
    /// experiment.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let quote = |cell: &str| -> String {
            if cell.contains([',', '"', '\n']) {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_owned()
            }
        };
        let mut out = String::new();
        out.push_str(
            &self
                .header
                .iter()
                .map(|h| quote(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| quote(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        for note in &self.notes {
            out.push_str("# ");
            out.push_str(note);
            out.push('\n');
        }
        out
    }

    /// Renders the table as aligned text (title, header rule, rows, notes).
    /// The caller decides where it goes; only the `repro` CLI prints.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "\n== {} ==", self.title);
        let widths: Vec<usize> = self
            .header
            .iter()
            .enumerate()
            .map(|(i, h)| {
                self.rows
                    .iter()
                    .map(|r| r.get(i).map_or(0, String::len))
                    .chain([h.len()])
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:width$}", c, width = widths.get(i).copied().unwrap_or(0)))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", fmt_row(&self.header));
        let _ = writeln!(
            out,
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
        );
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row));
        }
        for note in &self.notes {
            let _ = writeln!(out, "  * {note}");
        }
        out
    }
}

fn f2(v: f64) -> String {
    format!("{v:.2}")
}

fn pct(v: f64) -> String {
    format!("{v:+.1}%")
}

// ---------------------------------------------------------------------
// Table I — library characterization KPI diffs
// ---------------------------------------------------------------------

/// Result of the Table I reproduction.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1 {
    /// Rendered table.
    pub table: ExpTable,
    /// (cell, metric) → percent diff FFET vs CFET.
    pub diffs: Vec<(String, String, f64)>,
}

/// Reproduces Table I: KPI diffs of the FFET libraries w.r.t. CFET for
/// INV/BUF at D1/D2/D4, measured at nominal conditions (10 ps input slew,
/// a fanout-4-style load scaled with drive).
#[must_use]
pub fn table1() -> Table1 {
    let ffet = Library::new(Technology::ffet_3p5t());
    let cfet = Library::new(Technology::cfet_4t());
    let cells = [
        (CellFunction::Inv, DriveStrength::D1, "INVD1"),
        (CellFunction::Inv, DriveStrength::D2, "INVD2"),
        (CellFunction::Inv, DriveStrength::D4, "INVD4"),
        (CellFunction::Buf, DriveStrength::D1, "BUFD1"),
        (CellFunction::Buf, DriveStrength::D2, "BUFD2"),
        (CellFunction::Buf, DriveStrength::D4, "BUFD4"),
    ];
    let slew = 10.0;
    let mut diffs = Vec::new();
    let mut rows = Vec::new();
    type Kpi = fn(&ffet_cells::Cell, f64, f64) -> f64;
    let metrics: [(&str, Kpi); 6] = [
        ("Transition power", |c, s, l| {
            c.timing.transition_energy(s, l)
        }),
        ("Leakage power", |c, _, _| c.timing.leakage_nw),
        ("Rise timing", |c, s, l| {
            c.timing.arcs[0].delay_rise.lookup(s, l)
        }),
        ("Fall timing", |c, s, l| {
            c.timing.arcs[0].delay_fall.lookup(s, l)
        }),
        ("Rise transition", |c, s, l| {
            c.timing.arcs[0].slew_rise.lookup(s, l)
        }),
        ("Fall transition", |c, s, l| {
            c.timing.arcs[0].slew_fall.lookup(s, l)
        }),
    ];
    for (name, f) in metrics {
        let mut row = vec![name.to_owned()];
        for (func, drive, cell_name) in cells {
            let kind = CellKind::new(func, drive);
            // Both libraries carry the full kind set by construction.
            let (Some(fc), Some(cc)) = (ffet.cell_by_kind(kind), cfet.cell_by_kind(kind)) else {
                continue;
            };
            let load = 4.0 * drive.multiple();
            let d = pct_diff(f(fc, slew, load), f(cc, slew, load));
            diffs.push((cell_name.to_owned(), name.to_owned(), d));
            row.push(pct(d));
        }
        rows.push(row);
    }
    let mut header = vec!["KPI diff FFET w.r.t. CFET".to_owned()];
    header.extend(cells.iter().map(|(_, _, n)| (*n).to_owned()));
    Table1 {
        table: ExpTable {
            title: "Table I — library characterization (FFET vs CFET)".into(),
            header,
            rows,
            notes: vec![
                "paper: leakage 0.0% everywhere; INV transition power ≈ flat; BUF timing −10..−16%"
                    .into(),
            ],
        },
        diffs,
    }
}

// ---------------------------------------------------------------------
// Table II — design rules
// ---------------------------------------------------------------------

/// Result of the Table II dump.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2 {
    /// Rendered table.
    pub table: ExpTable,
}

/// Dumps the encoded Table II layer stacks for verification.
#[must_use]
pub fn table2() -> Table2 {
    let ffet = Technology::ffet_3p5t();
    let cfet = Technology::cfet_4t();
    let mut rows = Vec::new();
    for side in [Side::Front, Side::Back] {
        for index in (0..=12u8).rev() {
            let id = ffet_tech::LayerId::new(side, index);
            let f = ffet.stack().layer(id).map(|l| l.pitch);
            let c = cfet.stack().layer(id).map(|l| l.pitch);
            if f.is_none() && c.is_none() {
                continue;
            }
            rows.push(vec![
                id.name(),
                c.map_or_else(|| "/".into(), |p| p.to_string()),
                f.map_or_else(|| "/".into(), |p| p.to_string()),
            ]);
        }
    }
    rows.push(vec![
        "Poly".into(),
        cfet.stack().poly_pitch.to_string(),
        ffet.stack().poly_pitch.to_string(),
    ]);
    rows.push(vec![
        "BPR".into(),
        cfet.stack()
            .bpr_pitch
            .map_or_else(|| "/".into(), |p| p.to_string()),
        "/".into(),
    ]);
    Table2 {
        table: ExpTable {
            title: "Table II — layer pitches (nm), virtual 5nm PDK".into(),
            header: header_row(&["Layer", "4T CFET", "3.5T FFET"]),
            rows,
            notes: vec!["CFET BM1/BM2 are PDN-only (3200/2400 nm)".into()],
        },
    }
}

// ---------------------------------------------------------------------
// Fig. 4 — standard-cell area comparison
// ---------------------------------------------------------------------

/// Result of the Fig. 4 reproduction.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4 {
    /// Rendered table.
    pub table: ExpTable,
    /// Per-cell scaling (1 − FFET/CFET).
    pub scalings: Vec<(String, f64)>,
}

/// Reproduces Fig. 4: cell-area comparison between 3.5T FFET and 4T CFET.
#[must_use]
pub fn fig4() -> Fig4 {
    let rows_data = fig4_area_comparison();
    let mut rows = Vec::new();
    let mut scalings = Vec::new();
    for r in &rows_data {
        rows.push(vec![
            r.function.to_string(),
            format!("{:.4}", r.cfet_nm2 as f64 / 1e6),
            format!("{:.4}", r.ffet_nm2 as f64 / 1e6),
            pct(-r.scaling * 100.0),
        ]);
        scalings.push((r.function.to_string(), r.scaling));
    }
    let avg = scalings.iter().map(|(_, s)| s).sum::<f64>() / scalings.len() as f64;
    Fig4 {
        table: ExpTable {
            title: "Fig. 4 — standard-cell area, 3.5T FFET vs 4T CFET".into(),
            header: header_row(&["Cell", "CFET µm²", "FFET µm²", "FFET Δarea"]),
            rows,
            notes: vec![format!(
                "average scaling {:.1}% (paper: ~12.5% plus extra MUX/DFF savings)",
                avg * 100.0
            )],
        },
        scalings,
    }
}

// ---------------------------------------------------------------------
// The registry
// ---------------------------------------------------------------------

/// One experiment of the paper's evaluation, declared as data: the series
/// it runs and the renderer that turns their results into its table.
#[derive(Debug)]
pub struct Experiment {
    /// CLI name (`repro <name>`), CSV stem and trace-label prefix.
    pub name: &'static str,
    /// The series to run, in table order; empty for the analytic tables,
    /// which read the cell libraries and run no flow.
    series: fn() -> Vec<Series>,
    /// Renders the assembled series (pure: no flow runs here).
    render: fn(&[SeriesResult]) -> ExpTable,
}

/// Every experiment, in `repro all` order.
pub static EXPERIMENTS: &[Experiment] = &[
    Experiment::new("table1", Vec::new, |_| table1().table),
    Experiment::new("table2", Vec::new, |_| table2().table),
    Experiment::new("fig4", Vec::new, |_| fig4().table),
    Experiment::new("fig8", fig8_series, render_fig8),
    Experiment::new("fig9", fig9_series, render_fig9),
    Experiment::new("fig10", fig10_series, render_fig10),
    Experiment::new("fig11", fig11_series, render_fig11),
    Experiment::new("table3", table3_series, render_table3),
    Experiment::new("fig12", fig12_series, render_fig12),
    Experiment::new("fig13", fig13_series, render_fig13),
    Experiment::new("ablation", ablation_series, render_ablation),
];

/// Looks an experiment up by name.
#[must_use]
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

/// One experiment's outputs.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpRun {
    /// Rendered table.
    pub table: ExpTable,
    /// Every series' best-of-seeds results (empty for the analytic tables).
    pub series: Vec<SeriesResult>,
    /// Per-job telemetry (outside the determinism contract).
    pub runlog: Vec<RunLogRow>,
    /// Per-point spans and metrics for the run artifacts (metric values
    /// deterministic, span timings wall-clock).
    pub traces: Vec<LabeledPoint>,
}

impl Experiment {
    const fn new(
        name: &'static str,
        series: fn() -> Vec<Series>,
        render: fn(&[SeriesResult]) -> ExpTable,
    ) -> Experiment {
        Experiment {
            name,
            series,
            render,
        }
    }

    /// Runs the experiment on `pool`: each series' library and netlist are
    /// built as pool jobs (logged as `build:<series>` rows), then every
    /// series × point × seed flow job is submitted as one flat grid so the
    /// pool stays saturated across series boundaries. Results are
    /// reassembled in submission order, so the outcome is identical for
    /// every pool width.
    ///
    /// A failed build fails its series' points with a zero-attempt
    /// [`PointFailure`] instead of aborting the experiment.
    #[must_use]
    pub fn run(&self, design: DesignKind, pool: &Pool) -> ExpRun {
        let series = (self.series)();
        let mut runlog = Vec::new();
        let mut traces = Vec::new();
        let built = pool.run(series.iter().collect(), |s: &&Series| {
            let library = s.base.build_library()?;
            let netlist = build_design(&library, design);
            Ok::<_, FlowError>((library, netlist))
        });
        let contexts: Vec<Result<(Library, Netlist), FlowError>> = built
            .into_iter()
            .zip(&series)
            .map(|(o, s)| {
                runlog.push(RunLogRow::from_stats(
                    self.name,
                    format!("build:{}", s.label),
                    &o.stats,
                    None,
                ));
                o.result.map_err(|e| match e {
                    JobError::Failed(e) => e,
                    JobError::Panicked(m) => FlowError::Panicked(m),
                })
            })
            .collect();
        let contexts: Vec<Result<(&Library, &Netlist), FlowError>> = contexts
            .iter()
            .map(|c| c.as_ref().map(|(l, n)| (l, n)).map_err(Clone::clone))
            .collect();
        let results = run_grid(
            pool,
            self.name,
            &series,
            &contexts,
            &mut runlog,
            &mut traces,
        );
        ExpRun {
            table: (self.render)(&results),
            series: results,
            runlog,
            traces,
        }
    }
}

// ---------------------------------------------------------------------
// The engine
// ---------------------------------------------------------------------

/// Placement seeds tried per utilization point. A physical designer
/// iterates seeds/settings until the block closes; like the paper's
/// implementations, each reported point is the best (fewest-DRV) run of the
/// attempts.
const SWEEP_SEEDS: [u64; 3] = [42, 1042, 9042];

/// One labelled DoE point of a [`Series`].
struct Point {
    /// Label segment after the series label (`u0.44`, `t1.50`, `FM8BM4`;
    /// empty for a single-point series).
    label: String,
    /// The point's flow configuration; each run only swaps in its seed.
    config: FlowConfig,
}

/// One curve of an experiment: the context (library + netlist) built from
/// `base`, and the points that run on it.
struct Series {
    /// Label segment after the experiment name (empty for a bare sweep).
    label: String,
    /// Configuration the series' library, and with it the netlist, is built
    /// from.
    base: FlowConfig,
    /// Points, in table order.
    points: Vec<Point>,
    /// Placement seeds each point runs at: [`SWEEP_SEEDS`] on utilization
    /// axes, else the base seed alone. With several seeds every run's label
    /// gains an `s{seed}` segment and the point keeps the best run.
    seeds: Vec<u64>,
}

impl Series {
    /// One run per point, at the base seed.
    fn points(label: &str, base: FlowConfig, points: Vec<(String, FlowConfig)>) -> Series {
        Series {
            label: label.to_owned(),
            points: points
                .into_iter()
                .map(|(label, config)| Point { label, config })
                .collect(),
            seeds: vec![base.seed],
            base,
        }
    }

    /// A single run of `base`.
    fn single(label: &str, base: FlowConfig) -> Series {
        Series::points(label, base.clone(), vec![(String::new(), base)])
    }

    /// A utilization sweep: one point per utilization, each tried at every
    /// [`SWEEP_SEEDS`] seed.
    fn utilization(label: &str, base: FlowConfig, utils: &[f64]) -> Series {
        let points = utils
            .iter()
            .map(|&u| {
                let config = FlowConfig {
                    utilization: u,
                    ..base.clone()
                };
                (format!("u{u:.2}"), config)
            })
            .collect();
        Series {
            seeds: SWEEP_SEEDS.to_vec(),
            ..Series::points(label, base, points)
        }
    }
}

/// A point's best-of-seeds result.
#[derive(Debug, Clone, PartialEq)]
pub struct PointResult {
    /// The point's configuration (at the base seed).
    pub config: FlowConfig,
    /// The best run's report.
    pub report: PpaReport,
}

/// One series after the engine ran it.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesResult {
    /// The series' label.
    pub label: String,
    /// Highest utilization whose best run is valid and closed on-spec (the
    /// paper's "maximum utilization" metric).
    pub max_util: Option<f64>,
    /// Every point at least one seed closed, in series order; a point no
    /// seed closed is dropped and logged as `skipped`.
    pub points: Vec<PointResult>,
}

/// One (utilization, report) point of a sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct UtilPoint {
    /// Requested utilization.
    pub utilization: f64,
    /// Flow result.
    pub report: PpaReport,
}

/// A flow job's distilled result: the PPA point and how the recovery ladder
/// disposed of it.
type FlowPoint = (PpaReport, PointRecovery);

/// Wraps a [`FlowError`] from a context build (before any flow attempt
/// ran) as a zero-attempt [`PointFailure`].
fn config_failure(error: FlowError) -> PointFailure {
    PointFailure { error, attempts: 0 }
}

/// Runs one flow through the recovery ladder and keeps only what the sweeps
/// need, dropping the heavy DEF/parasitics artifacts so large DoE grids stay
/// memory-bounded. A clean point takes exactly one attempt, so sweeps with
/// no injected faults behave byte-for-byte as before.
fn flow_job(
    netlist: &Netlist,
    library: &Library,
    config: &FlowConfig,
) -> Result<FlowPoint, PointFailure> {
    let r = run_flow_resilient(netlist, library, config);
    match r.outcome {
        Ok(o) => Ok((o.report, r.recovery)),
        Err(error) => Err(PointFailure {
            error,
            attempts: r.recovery.attempts,
        }),
    }
}

/// Builds the runlog row for one resilient flow point: pool telemetry, the
/// stage times of every attempt (from the job's trace), and the recovery
/// ladder's attempt count and final disposition.
fn flow_row(experiment: &str, label: String, o: &JobOutcome<FlowPoint, PointFailure>) -> RunLogRow {
    let mut row = RunLogRow::from_stats(experiment, label, &o.stats, Some(&o.trace));
    match &o.result {
        Ok((_, rec)) => {
            row.attempts = rec.attempts;
            row.disposition = rec.disposition.to_cell();
        }
        Err(JobError::Failed(pf)) => {
            row.attempts = pf.attempts;
            // A point whose last attempt hit the deadline gets the
            // structured `timeout(stage)` disposition the watchdog
            // contract promises (recovered timeouts render `recovered(n)`
            // like any other recovered failure).
            row.disposition = match &pf.error {
                FlowError::Timeout(stage) => format!("timeout({stage})"),
                e => format!("failed({}): {}", pf.attempts.saturating_sub(1), e),
            };
        }
        // The pool already rendered the panic message; a contained panic
        // means the ladder never ran, so a single attempt is charged.
        Err(JobError::Panicked(_)) => row.attempts = 1,
    }
    row
}

/// Records one flow point into both observability sinks: the runlog row
/// (pool telemetry) and the labeled trace (spans + metrics) for the run
/// artifacts. Trace labels are `{experiment}/{label}` so points stay unique
/// when several experiments share one artifact file.
fn record_point(
    experiment: &str,
    label: String,
    o: &JobOutcome<FlowPoint, PointFailure>,
    runlog: &mut Vec<RunLogRow>,
    traces: &mut Vec<LabeledPoint>,
) {
    traces.push(LabeledPoint {
        label: format!("{experiment}/{label}"),
        data: o.trace.clone(),
    });
    runlog.push(flow_row(experiment, label, o));
}

/// Joins label segments with `/`, dropping empty ones.
fn join_label(parts: &[&str]) -> String {
    parts
        .iter()
        .filter(|p| !p.is_empty())
        .copied()
        .collect::<Vec<_>>()
        .join("/")
}

/// Submits every series × point × seed flow job as one flat grid on the
/// given per-series contexts and folds the outcomes back into one
/// [`SeriesResult`] per series.
fn run_grid(
    pool: &Pool,
    experiment: &str,
    series: &[Series],
    contexts: &[Result<(&Library, &Netlist), FlowError>],
    runlog: &mut Vec<RunLogRow>,
    traces: &mut Vec<LabeledPoint>,
) -> Vec<SeriesResult> {
    let jobs: Vec<(usize, &FlowConfig, u64)> = series
        .iter()
        .enumerate()
        .flat_map(|(si, s)| {
            s.points
                .iter()
                .flat_map(move |p| s.seeds.iter().map(move |&seed| (si, &p.config, seed)))
        })
        .collect();
    let mut outcomes = pool
        .run(jobs, |&(si, config, seed)| {
            let (library, netlist) = contexts[si].clone().map_err(config_failure)?;
            flow_job(
                netlist,
                library,
                &FlowConfig {
                    seed,
                    ..config.clone()
                },
            )
        })
        .into_iter();
    series
        .iter()
        .map(|s| assemble(experiment, s, &mut outcomes, runlog, traces))
        .collect()
}

/// Folds one series' job outcomes (point-major, seed-minor) back into
/// best-of-seeds points, replicating the serial semantics exactly: failed
/// seeds are dropped, ties on DRV keep the earliest seed, and a point with
/// no surviving seed is skipped (and logged as such). A seed that only
/// closed at a *relaxed* utilization ran off-spec, so it loses to any
/// on-spec run regardless of DRV and never backs the max-utilization claim.
fn assemble(
    experiment: &str,
    series: &Series,
    outcomes: &mut impl Iterator<Item = JobOutcome<FlowPoint, PointFailure>>,
    runlog: &mut Vec<RunLogRow>,
    traces: &mut Vec<LabeledPoint>,
) -> SeriesResult {
    let mut points = Vec::new();
    let mut max_util = None;
    for point in &series.points {
        let label = join_label(&[&series.label, &point.label]);
        let mut runs: Vec<FlowPoint> = Vec::new();
        // `zip` stops at the seeds without pulling a further outcome.
        for (&seed, o) in series.seeds.iter().zip(&mut *outcomes) {
            let seed_label = if series.seeds.len() > 1 {
                format!("s{seed}")
            } else {
                String::new()
            };
            record_point(
                experiment,
                join_label(&[&label, &seed_label]),
                &o,
                runlog,
                traces,
            );
            if let Ok(run) = o.result {
                runs.push(run);
            }
        }
        if runs.is_empty() {
            runlog.push(RunLogRow::skipped(
                experiment,
                label,
                runlog.len(),
                "no placement seed produced a routable run",
            ));
            continue;
        }
        runs.sort_by_key(|(r, rec)| (rec.relaxed, r.drv));
        let (report, rec) = runs.swap_remove(0);
        // A point that only closed at a relaxed utilization did not close
        // at its own, so it must not back the max-utilization claim.
        let u = point.config.utilization;
        if report.valid && !rec.relaxed {
            max_util = Some(max_util.map_or(u, |m: f64| m.max(u)));
        }
        points.push(PointResult {
            config: point.config.clone(),
            report,
        });
    }
    SeriesResult {
        label: series.label.clone(),
        max_util,
        points,
    }
}

/// Runs the flow across a utilization grid on `pool` over the caller's
/// library and netlist, returning all points plus the maximum valid
/// utilization (the paper's "maximum utilization" metric).
///
/// This is one unlabelled utilization series of the experiment engine
/// (experiment `sweep`, no `build:` row): each point tries three placement
/// seeds and keeps the fewest-DRV run. The returned runlog rows carry each
/// job's attempt count and recovery disposition (`clean` / `recovered(n)` /
/// `failed(n)`); the returned traces carry each job's spans and metrics
/// (metric values deterministic, span timings wall-clock).
#[must_use]
pub fn utilization_sweep(
    pool: &Pool,
    netlist: &Netlist,
    library: &Library,
    base: &FlowConfig,
    utils: &[f64],
) -> (
    Option<f64>,
    Vec<UtilPoint>,
    Vec<RunLogRow>,
    Vec<LabeledPoint>,
) {
    let series = [Series::utilization("", base.clone(), utils)];
    let mut runlog = Vec::new();
    let mut traces = Vec::new();
    let results = run_grid(
        pool,
        "sweep",
        &series,
        &[Ok((library, netlist))],
        &mut runlog,
        &mut traces,
    );
    let (max_util, points) = results.into_iter().next().map_or_else(
        || (None, Vec::new()),
        |s| {
            let points = s
                .points
                .into_iter()
                .map(|p| UtilPoint {
                    utilization: p.config.utilization,
                    report: p.report,
                })
                .collect();
            (s.max_util, points)
        },
    );
    (max_util, points, runlog, traces)
}

// ---------------------------------------------------------------------
// Flow experiments: series and renderers
// ---------------------------------------------------------------------

fn header_row(names: &[&str]) -> Vec<String> {
    names.iter().map(|&n| n.to_owned()).collect()
}

/// One table row per closed point, in series order.
fn point_rows(
    series: &[SeriesResult],
    row: impl Fn(&SeriesResult, &PointResult) -> Vec<String>,
) -> Vec<Vec<String>> {
    let row = &row;
    series
        .iter()
        .flat_map(|s| s.points.iter().map(move |p| row(s, p)))
        .collect()
}

fn validity(report: &PpaReport) -> String {
    if report.valid {
        "valid".into()
    } else {
        "INVALID".into()
    }
}

fn util_cell(max_util: Option<f64>) -> String {
    max_util.map_or_else(|| "none".into(), |u| format!("{:.0}%", u * 100.0))
}

/// The first point's report of series `index`, if that point closed.
fn first_report(series: &[SeriesResult], index: usize) -> Option<&PpaReport> {
    series
        .get(index)
        .and_then(|s| s.points.first())
        .map(|p| &p.report)
}

/// Fig. 8: core area vs utilization and the maximum-utilization limits of
/// CFET, single-sided FFET and dual-sided FFET.
fn fig8_series() -> Vec<Series> {
    let utils: Vec<f64> = (1..=13).map(|i| 0.40 + 0.04 * i as f64).collect(); // 0.44..0.92
    let dual = FlowConfig {
        pattern: RoutingPattern::fixed(12, 12),
        back_pin_ratio: 0.5,
        ..FlowConfig::baseline(TechKind::Ffet3p5t)
    };
    vec![
        Series::utilization(
            "4T CFET (FM12)",
            FlowConfig::baseline(TechKind::Cfet4t),
            &utils,
        ),
        Series::utilization(
            "3.5T FFET FM12 (single-sided)",
            FlowConfig::baseline(TechKind::Ffet3p5t),
            &utils,
        ),
        Series::utilization("3.5T FFET FM12BM12 (FP0.5BP0.5)", dual, &utils),
    ]
}

fn render_fig8(series: &[SeriesResult]) -> ExpTable {
    let rows = point_rows(series, |s, p| {
        vec![
            s.label.clone(),
            format!("{:.0}%", p.config.utilization * 100.0),
            format!("{:.1}", p.report.core_area_um2),
            p.report.drv.to_string(),
            validity(&p.report),
        ]
    });
    let mut notes: Vec<String> = series
        .iter()
        .map(|s| format!("max utilization {}: {}", s.label, util_cell(s.max_util)))
        .collect();
    if let (Some(cfet), Some(ffet)) = (series.first(), series.get(2)) {
        // Area reduction at the highest common valid utilization.
        let cfet_max = cfet.points.iter().rfind(|p| p.report.valid);
        if let Some((c, f)) = cfet_max.and_then(|c| {
            ffet.points
                .iter()
                .find(|p| p.config.utilization == c.config.utilization)
                .map(|f| (c, f))
        }) {
            notes.push(format!(
                "FFET FM12BM12 core area at CFET's max utilization: {:+.1}% (paper: −23.3% at same utilization)",
                pct_diff(f.report.core_area_um2, c.report.core_area_um2)
            ));
        }
        let min_area = |s: &SeriesResult| {
            s.points
                .iter()
                .filter(|p| p.report.valid)
                .map(|p| p.report.core_area_um2)
                .fold(f64::INFINITY, f64::min)
        };
        let (ca, fa) = (min_area(cfet), min_area(ffet));
        if ca.is_finite() && fa.is_finite() {
            notes.push(format!(
                "minimum valid core area FFET vs CFET: {:+.1}% (paper: −25.1%)",
                pct_diff(fa, ca)
            ));
        }
    }
    notes.push("paper: max util FFET FM12BM12 = 86% (Power-Tap-Cell-limited), FFET FM12 = 76%, both above/below CFET respectively".into());
    ExpTable {
        title: "Fig. 8 — core area vs utilization & maximum utilization".into(),
        header: header_row(&["Config", "Util", "Area µm²", "DRV", "Validity"]),
        rows,
        notes,
    }
}

/// Fig. 9: power–frequency comparison of CFET vs single-sided FFET,
/// sweeping the synthesis target from 0.5 to 3 GHz at 76% utilization.
fn fig9_series() -> Vec<Series> {
    let targets = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0];
    [
        ("4T CFET", TechKind::Cfet4t),
        ("3.5T FFET FM12", TechKind::Ffet3p5t),
    ]
    .into_iter()
    .map(|(label, tech)| {
        let base = FlowConfig {
            utilization: 0.76,
            ..FlowConfig::baseline(tech)
        };
        let points = targets
            .iter()
            .map(|&t| {
                let config = FlowConfig {
                    target_freq_ghz: t,
                    ..base.clone()
                };
                (format!("t{t:.2}"), config)
            })
            .collect();
        Series::points(label, base, points)
    })
    .collect()
}

fn render_fig9(series: &[SeriesResult]) -> ExpTable {
    let rows = point_rows(series, |s, p| {
        vec![
            s.label.clone(),
            f2(p.config.target_freq_ghz),
            format!("{:.3}", p.report.achieved_freq_ghz),
            format!("{:.3}", p.report.power_mw),
            p.report.drv.to_string(),
        ]
    });
    let mut notes = vec![
        "paper: FFET FM12 +25.0% frequency and −11.9% power vs CFET at 76% utilization".into(),
    ];
    let best = |s: Option<&SeriesResult>| {
        s.map_or(0.0, |s| {
            s.points
                .iter()
                .map(|p| p.report.achieved_freq_ghz)
                .fold(0.0f64, f64::max)
        })
    };
    let (fc, ff) = (best(series.first()), best(series.get(1)));
    if fc > 0.0 {
        notes.push(format!(
            "measured best achieved frequency: FFET {:+.1}% vs CFET",
            pct_diff(ff, fc)
        ));
    }
    ExpTable {
        title: "Fig. 9 — power–frequency, CFET vs FFET FM12 (util 76%)".into(),
        header: header_row(&["Config", "Target GHz", "Achieved GHz", "Power mW", "DRV"]),
        rows,
        notes,
    }
}

/// Fig. 10: frequency–area at a 1.5 GHz synthesis target (the area axis is
/// swept through the utilization).
fn fig10_series() -> Vec<Series> {
    let utils: Vec<f64> = (0..8).map(|i| 0.46 + 0.06 * i as f64).collect(); // 0.46..0.88
    vec![
        Series::utilization("4T CFET", FlowConfig::baseline(TechKind::Cfet4t), &utils),
        Series::utilization(
            "3.5T FFET FM12",
            FlowConfig::baseline(TechKind::Ffet3p5t),
            &utils,
        ),
    ]
}

fn render_fig10(series: &[SeriesResult]) -> ExpTable {
    let rows = point_rows(series, |s, p| {
        vec![
            s.label.clone(),
            format!("{:.0}%", p.config.utilization * 100.0),
            format!("{:.1}", p.report.core_area_um2),
            format!("{:.3}", p.report.achieved_freq_ghz),
            validity(&p.report),
        ]
    });
    ExpTable {
        title: "Fig. 10 — frequency–area at 1.5 GHz target".into(),
        header: header_row(&["Config", "Util", "Area µm²", "Achieved GHz", "Validity"]),
        rows,
        notes: vec![
            "paper: FFET FM12 +16.0% frequency at CFET's best area; +23.4% at respective maxima"
                .into(),
        ],
    }
}

/// The five input-pin-density DoEs of Fig. 11.
const PIN_DENSITY_DOES: [f64; 5] = [0.04, 0.16, 0.30, 0.40, 0.50];

/// Fig. 11: power–frequency distributions of the five backside pin-density
/// DoEs under FM12BM12, sweeping utilization 46–76%.
fn fig11_series() -> Vec<Series> {
    let utils: Vec<f64> = (0..6).map(|i| 0.46 + 0.06 * i as f64).collect(); // 0.46..0.76
    PIN_DENSITY_DOES
        .iter()
        .map(|&bp| {
            let base = FlowConfig {
                pattern: RoutingPattern::fixed(12, 12),
                back_pin_ratio: bp,
                ..FlowConfig::baseline(TechKind::Ffet3p5t)
            };
            Series::utilization(&format!("FP{:.2}BP{bp:.2}", 1.0 - bp), base, &utils)
        })
        .collect()
}

fn render_fig11(series: &[SeriesResult]) -> ExpTable {
    let mut rows = Vec::new();
    let mut notes = vec![
        "paper: FP0.5BP0.5 and FP0.6BP0.4 best, FP0.7BP0.3 next, FP0.84/FP0.96 trailing".into(),
    ];
    for s in series {
        let (mut fsum, mut psum) = (0.0, 0.0);
        for p in &s.points {
            rows.push(vec![
                s.label.clone(),
                format!("{:.0}%", p.config.utilization * 100.0),
                format!("{:.3}", p.report.achieved_freq_ghz),
                format!("{:.3}", p.report.power_mw),
                p.report.drv.to_string(),
            ]);
            fsum += p.report.achieved_freq_ghz;
            psum += p.report.power_mw;
        }
        if let Some(p) = s.points.first() {
            let n = s.points.len() as f64;
            notes.push(format!(
                "BP{:.2}: mean achieved {:.3} GHz at mean {:.3} mW",
                p.config.back_pin_ratio,
                fsum / n,
                psum / n
            ));
        }
    }
    ExpTable {
        title: "Fig. 11 — pin-density DoEs under FM12BM12 (util 46–76%)".into(),
        header: header_row(&["DoE", "Util", "Achieved GHz", "Power mW", "DRV"]),
        rows,
        notes,
    }
}

/// The paper's Table III DoE rows: each input-pin density with the layer
/// patterns (12 layers in total) it is paired with.
const TABLE3_DOES: [(f64, &[(u8, u8)]); 5] = [
    (0.04, &[(10, 2), (9, 3)]),
    (0.16, &[(9, 3), (8, 4)]),
    (0.30, &[(9, 3), (8, 4), (7, 5)]),
    (0.40, &[(8, 4), (7, 5), (6, 6)]),
    (0.50, &[(8, 4), (7, 5), (6, 6)]),
];

/// Table III: pin density × routing-layer co-optimization with a 12-layer
/// total budget, relative to the single-sided FFET FM12 baseline at 1.5 GHz
/// target. The first series is the baseline; each further series is one
/// pin density whose points are its layer patterns.
fn table3_series() -> Vec<Series> {
    // 72% utilization: high enough to stress routability, low enough that
    // the well-matched pin-density/layer pairings stay valid (our router
    // weighs backside pin access harder than the paper's, so the exact
    // paper point of 76% leaves only the front-heavy rows valid).
    let base = FlowConfig {
        utilization: 0.72,
        ..FlowConfig::baseline(TechKind::Ffet3p5t)
    };
    let mut series = vec![Series::points(
        "baseline",
        base.clone(),
        vec![("FM12".into(), base.clone())],
    )];
    series.extend(TABLE3_DOES.iter().map(|&(bp, patterns)| {
        let doe = FlowConfig {
            back_pin_ratio: bp,
            ..base.clone()
        };
        let points = patterns
            .iter()
            .map(|&(fm, bm)| {
                let pattern = RoutingPattern::fixed(fm, bm);
                let config = FlowConfig {
                    pattern,
                    ..doe.clone()
                };
                (pattern.to_string(), config)
            })
            .collect();
        Series::points(&format!("FP{:.2}BP{bp:.2}", 1.0 - bp), doe, points)
    }));
    series
}

fn render_table3(series: &[SeriesResult]) -> ExpTable {
    let mut notes = vec![
        "paper: best Δfreq without power degradation +10.6% (FP0.5BP0.5 FM6BM6); best Δfreq +12.8% (FP0.7BP0.3 FM8BM4/FM7BM5, +1.4% power)".into(),
    ];
    let rows = match first_report(series, 0) {
        Some(base) => series
            .iter()
            .skip(1)
            .flat_map(|s| &s.points)
            .map(|p| {
                let bp = p.config.back_pin_ratio;
                vec![
                    format!("FP{:.2}BP{bp:.2}", 1.0 - bp),
                    p.config.pattern.to_string(),
                    pct(pct_diff(p.report.achieved_freq_ghz, base.achieved_freq_ghz)),
                    pct(pct_diff(p.report.power_mw, base.power_mw)),
                    p.report.drv.to_string(),
                ]
            })
            .collect(),
        None => {
            notes.push("the FFET FM12 baseline did not close: no row has a reference".into());
            Vec::new()
        }
    };
    ExpTable {
        title: "Table III — pin density × routing layers vs FFET FM12 baseline".into(),
        header: header_row(&["Input pin density", "Pattern", "Δfreq", "Δpower", "DRV"]),
        rows,
        notes,
    }
}

/// Fig. 12: maximum utilization of FFET FP0.5BP0.5 as the number of routing
/// layers per side shrinks from 12 to 2.
fn fig12_series() -> Vec<Series> {
    // A coarser grid than Fig. 8 keeps this 11-pattern sweep tractable;
    // the paper's plateau (86% down to 4 layers/side, ~70% at 2) is still
    // resolvable.
    let utils = [0.48, 0.56, 0.64, 0.72, 0.80, 0.84, 0.88];
    (2..=12u8)
        .rev()
        .map(|n| {
            let base = FlowConfig {
                pattern: RoutingPattern::fixed(n, n),
                back_pin_ratio: 0.5,
                ..FlowConfig::baseline(TechKind::Ffet3p5t)
            };
            Series::utilization(&format!("FM{n}BM{n}"), base, &utils)
        })
        .collect()
}

fn render_fig12(series: &[SeriesResult]) -> ExpTable {
    ExpTable {
        title: "Fig. 12 — max utilization vs routing layers per side (FP0.5BP0.5)".into(),
        header: header_row(&["Pattern", "Max utilization"]),
        rows: series
            .iter()
            .map(|s| vec![s.label.clone(), util_cell(s.max_util)])
            .collect(),
        notes: vec!["paper: constant 86% down to 4 layers/side, ~70% at 2 layers/side".into()],
    }
}

/// Fig. 13: power efficiency of FFET FP0.5BP0.5 vs routing layers per side
/// at 76% utilization / 1.5 GHz target.
fn fig13_series() -> Vec<Series> {
    (3..=12u8)
        .rev()
        .map(|n| {
            let config = FlowConfig {
                pattern: RoutingPattern::fixed(n, n),
                back_pin_ratio: 0.5,
                utilization: 0.76,
                ..FlowConfig::baseline(TechKind::Ffet3p5t)
            };
            Series::single(&format!("FM{n}BM{n}"), config)
        })
        .collect()
}

fn render_fig13(series: &[SeriesResult]) -> ExpTable {
    let twelve = RoutingPattern::fixed(12, 12);
    let anchor = series
        .iter()
        .flat_map(|s| &s.points)
        .find(|p| p.config.pattern == twelve)
        .map(|p| p.report.efficiency_ghz_per_mw());
    let rows = point_rows(series, |s, p| {
        let e = p.report.efficiency_ghz_per_mw();
        vec![
            s.label.clone(),
            format!("{e:.4}"),
            anchor.map_or_else(String::new, |a| pct(pct_diff(e, a))),
        ]
    });
    let mut notes =
        vec!["paper: only −0.68% efficiency when reduced from 12 to 5 layers per side".into()];
    if anchor.is_none() {
        notes.push(format!("{twelve} did not close: Δ vs 12 layers left empty"));
    }
    ExpTable {
        title: "Fig. 13 — power efficiency vs routing layers per side".into(),
        header: header_row(&["Pattern", "GHz/mW", "Δ vs 12 layers"]),
        rows,
        notes,
    }
}

/// Ablation of the paper's key design choice (§III.A): dual-sided signals
/// via redistributed input pins (Algorithm 1) against the conventional
/// bridging-cell transfer, and against staying single-sided. The paper
/// skipped bridging cells "to minimize the area cost" — this experiment
/// measures that cost.
fn ablation_series() -> Vec<Series> {
    let base = FlowConfig {
        utilization: 0.7,
        ..FlowConfig::baseline(TechKind::Ffet3p5t)
    };
    vec![
        Series::single("single-sided FM12 (baseline)", base.clone()),
        Series::single(
            "Algorithm 1: FM6BM6 FP0.5BP0.5",
            FlowConfig {
                pattern: RoutingPattern::fixed(6, 6),
                back_pin_ratio: 0.5,
                ..base.clone()
            },
        ),
        Series::single(
            "bridging cells: FM6BM6 FP1.0",
            FlowConfig {
                pattern: RoutingPattern::fixed(6, 6),
                back_pin_ratio: 0.0,
                bridging_min_nm: Some(2_000),
                ..base
            },
        ),
    ]
}

fn render_ablation(series: &[SeriesResult]) -> ExpTable {
    let rows = point_rows(series, |s, p| {
        let r = &p.report;
        vec![
            s.label.clone(),
            r.cells.to_string(),
            format!("{:.1}", r.core_area_um2),
            format!("{:.3}", r.achieved_freq_ghz),
            format!("{:.3}", r.power_mw),
            format!("{:.2}", r.back_wirelength_mm),
            r.drv.to_string(),
        ]
    });
    let mut notes = vec![
        "paper: bridging cells cost area and design complexity; FFET's dual-sided pins avoid them entirely".into(),
    ];
    if let (Some(alg1), Some(bridged)) = (first_report(series, 1), first_report(series, 2)) {
        notes.push(format!(
            "bridging vs Algorithm 1: {:+.1}% cells, {:+.1}% area, {:+.1}% frequency",
            pct_diff(bridged.cells as f64, alg1.cells as f64),
            pct_diff(bridged.core_area_um2, alg1.core_area_um2),
            pct_diff(bridged.achieved_freq_ghz, alg1.achieved_freq_ghz),
        ));
    }
    ExpTable {
        title: "Ablation — dual-sided pins (Algorithm 1) vs bridging cells".into(),
        header: header_row(&[
            "Config",
            "Cells",
            "Area µm²",
            "GHz",
            "mW",
            "Back wl mm",
            "DRV",
        ]),
        rows,
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_counter(name: &str) -> ExpRun {
        find(name)
            .expect("registered experiment")
            .run(DesignKind::CounterSmall, &Pool::from_env())
    }

    /// A hand-built series result holding one closed point.
    fn closed(label: &str, config: FlowConfig, report: PpaReport) -> SeriesResult {
        SeriesResult {
            label: label.into(),
            max_util: None,
            points: vec![PointResult { config, report }],
        }
    }

    fn report(freq_ghz: f64, power_mw: f64) -> PpaReport {
        PpaReport {
            tech: "3.5T FFET".into(),
            pattern: RoutingPattern::max_single_sided(),
            back_pin_ratio: 0.0,
            target_freq_ghz: 1.5,
            utilization: 0.7,
            core_area_um2: 1.0,
            achieved_freq_ghz: freq_ghz,
            power_mw,
            leakage_mw: 0.0,
            clock_mw: 0.0,
            drv: 0,
            valid: true,
            signoff_warnings: 0,
            signoff: "PASS".into(),
            wirelength_mm: 0.0,
            back_wirelength_mm: 0.0,
            vias: 0,
            cells: 0,
        }
    }

    #[test]
    fn bridging_ablation_smoke() {
        let a = run_counter("ablation");
        assert_eq!(a.series.len(), 3);
        let [_, alg1, bridged] = [0, 1, 2].map(|i| {
            assert_eq!(a.series[i].points.len(), 1, "{}", a.series[i].label);
            &a.series[i].points[0].report
        });
        // The bridging config physically uses the backside.
        assert!(bridged.back_wirelength_mm >= 0.0);
        // And costs cells relative to Algorithm 1.
        assert!(bridged.cells >= alg1.cells);
    }

    #[test]
    fn registry_names_are_unique_and_found() {
        for (i, e) in EXPERIMENTS.iter().enumerate() {
            assert!(std::ptr::eq(find(e.name).expect("found"), e));
            assert!(EXPERIMENTS[..i].iter().all(|f| f.name != e.name));
        }
        assert!(find("bogus").is_none());
    }

    #[test]
    fn fig13_anchors_delta_on_the_twelve_layer_point() {
        let pattern = |n| FlowConfig {
            pattern: RoutingPattern::fixed(n, n),
            ..FlowConfig::baseline(TechKind::Ffet3p5t)
        };
        let results = vec![
            closed("FM12BM12", pattern(12), report(2.0, 1.0)),
            closed("FM11BM11", pattern(11), report(1.0, 1.0)),
        ];
        let t = render_fig13(&results);
        assert_eq!(t.rows[0][2], "+0.0%");
        assert_eq!(t.rows[1][2], "-50.0%");
        assert_eq!(t.notes.len(), 1);

        // FM12BM12 did not close: its series has no point. The Δ cells stay
        // empty rather than silently anchoring on FM11BM11.
        let mut failed = results;
        failed[0].points.clear();
        let t = render_fig13(&failed);
        assert_eq!(t.rows.len(), 1);
        assert_eq!(t.rows[0][0], "FM11BM11");
        assert_eq!(t.rows[0][2], "");
        assert!(t.notes.iter().any(|n| n.contains("FM12BM12 did not close")));
    }

    #[test]
    fn table3_without_a_baseline_renders_header_and_note() {
        let doe = FlowConfig {
            pattern: RoutingPattern::fixed(6, 6),
            back_pin_ratio: 0.5,
            ..FlowConfig::baseline(TechKind::Ffet3p5t)
        };
        let mut results = vec![
            closed(
                "baseline",
                FlowConfig::baseline(TechKind::Ffet3p5t),
                report(1.0, 1.0),
            ),
            closed("FP0.50BP0.50", doe, report(1.1, 0.9)),
        ];
        let t = render_table3(&results);
        assert_eq!(
            t.rows,
            vec![vec!["FP0.50BP0.50", "FM6BM6", "+10.0%", "-10.0%", "0"]]
        );

        results[0].points.clear();
        let t = render_table3(&results);
        assert_eq!(t.header.len(), 5);
        assert!(t.rows.is_empty());
        assert!(t.notes.iter().any(|n| n.contains("baseline did not close")));
    }

    #[test]
    fn table1_leakage_is_identical() {
        let t = table1();
        for (cell, metric, diff) in &t.diffs {
            if metric == "Leakage power" {
                assert_eq!(*diff, 0.0, "{cell}");
            }
        }
        // Timing improves (negative diffs) for BUF cells.
        let buf_fall: Vec<f64> = t
            .diffs
            .iter()
            .filter(|(c, m, _)| c.starts_with("BUF") && m == "Fall timing")
            .map(|&(_, _, d)| d)
            .collect();
        assert!(buf_fall.iter().all(|&d| d < -3.0), "{buf_fall:?}");
    }

    #[test]
    fn fig4_has_all_cells_and_dff_extra_saving() {
        let f = fig4();
        assert_eq!(f.scalings.len(), CellFunction::FIG4_SET.len());
        let dff = f.scalings.iter().find(|(n, _)| n == "DFF").unwrap().1;
        let inv = f.scalings.iter().find(|(n, _)| n == "INV").unwrap().1;
        assert!(dff > inv);
    }

    #[test]
    fn csv_escapes_and_rounds_trips_shape() {
        let t = ExpTable {
            title: "t".into(),
            header: vec!["a".into(), "b,c".into()],
            rows: vec![vec!["1".into(), "x\"y".into()]],
            notes: vec!["note".into()],
        };
        let csv = t.to_csv();
        assert!(csv.starts_with("a,\"b,c\"\n"));
        assert!(csv.contains("1,\"x\"\"y\"\n"));
        assert!(csv.trim_end().ends_with("# note"));
    }

    #[test]
    fn table2_lists_both_stacks() {
        let t = table2();
        assert!(t.table.rows.iter().any(|r| r[0] == "FM12"));
        assert!(t.table.rows.iter().any(|r| r[0] == "BM12" && r[1] == "/"));
    }

    #[test]
    fn smoke_fig9_on_small_design() {
        // Plumbing check on the fast design: both configs produce points
        // and the FFET points are not slower across the board.
        let f = run_counter("fig9");
        assert_eq!(f.series.len(), 2);
        assert!(f.series.iter().map(|s| s.points.len()).sum::<usize>() >= 8);
        let mean = |s: &SeriesResult| {
            s.points
                .iter()
                .map(|p| p.report.achieved_freq_ghz)
                .sum::<f64>()
                / s.points.len() as f64
        };
        assert_eq!(f.series[0].label, "4T CFET");
        assert_eq!(f.series[1].label, "3.5T FFET FM12");
        assert!(mean(&f.series[1]) > mean(&f.series[0]) * 0.95);
    }
}
