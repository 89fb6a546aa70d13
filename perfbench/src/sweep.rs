//! Set-up, the measured (untraced) sweep rounds, and the output checks
//! that turn every sweep point into a pass or a counted failure.

use crate::workload::{base_config, Draws, Workload, POOL_WIDTH, WARM_ROUNDS};
use ffet_cells::Library;
use ffet_core::experiments::{utilization_sweep, UtilPoint};
use ffet_core::runner::Pool;
use ffet_core::{designs, stagecache, FlowConfig, RunLogRow};
use ffet_netlist::Netlist;
use ffet_obs::{fnv1a64, hash_hex};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-up repetitions before the first sweep round and again after every
/// round.
pub const SETUP_REPS: usize = 5;

/// Placement seeds `utilization_sweep` runs per utilization point.
pub const SEEDS_PER_UTIL: usize = 3;

/// The workload seed the checked-in reference digests were recorded with.
pub const DEFAULT_SEED: u64 = 1;

/// Where the reference digests live (rewritten by `--bless`).
pub const REFERENCE_FILE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/reference.txt");

/// The `q` quantile (0 ≤ q ≤ 1), interpolating linearly between ranks.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    let Some(last) = values.len().checked_sub(1) else {
        return f64::NAN;
    };
    let rank = q * last as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    values[lo] + (values[hi] - values[lo]) * (rank - lo as f64)
}

pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// A stage-cache root inside the benchmark's own directory, created empty
/// and removed again when dropped. Never `results/ckpt/objects`.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(tag: &str) -> std::io::Result<ScratchDir> {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(".scratch")
            .join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }

    /// Payload bytes the cache holds.
    pub fn blob_bytes(&self) -> u64 {
        stagecache::stats(&self.0).map_or(0, |s| s.blob_bytes)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Set-up time samples. Set-up is ~7 ms of allocation-heavy work whose
/// samples fall into a fast and a slow cluster as the host's two cores
/// change speed, so the samples are spread over the whole run (a batch
/// after every sweep round) and their median follows the run's mix of the
/// two rather than whichever one a single batch met.
#[derive(Debug, Default)]
pub struct SetupTimes {
    library_ms: Vec<f64>,
    netlist_ms: Vec<f64>,
}

impl SetupTimes {
    /// Builds (and times) the library and the RV32 netlist once.
    pub fn sample(&mut self, config: &FlowConfig) -> Result<(Library, Netlist), String> {
        let t = Instant::now();
        let library = config.build_library().map_err(|e| format!("set-up: {e}"))?;
        self.library_ms.push(ms_since(t));
        let t = Instant::now();
        let netlist = designs::rv32_core(&library);
        self.netlist_ms.push(ms_since(t));
        Ok((library, netlist))
    }

    pub fn library_ms(&self) -> f64 {
        median(&mut self.library_ms.clone())
    }

    pub fn netlist_ms(&self) -> f64 {
        median(&mut self.netlist_ms.clone())
    }

    /// Median of the per-sample library + netlist totals, s.
    pub fn setup_s(&self) -> f64 {
        let mut totals: Vec<f64> = self
            .library_ms
            .iter()
            .zip(&self.netlist_ms)
            .map(|(l, n)| (l + n) / 1e3)
            .collect();
        median(&mut totals)
    }
}

/// The library and netlist every point of a run shares.
pub struct Setup {
    pub library: Library,
    pub netlist: Netlist,
    pub times: SetupTimes,
}

/// Builds the library and the RV32 netlist [`SETUP_REPS`] times.
pub fn setup(config: &FlowConfig) -> Result<Setup, String> {
    let mut times = SetupTimes::default();
    let mut built = times.sample(config)?;
    for _ in 1..SETUP_REPS {
        built = times.sample(config)?;
    }
    Ok(Setup {
        library: built.0,
        netlist: built.1,
        times,
    })
}

/// One `utilization_sweep` call: every utilization × every placement seed.
pub struct Round {
    /// Round index within the run: the reference digests' round key.
    pub index: usize,
    pub utils: Vec<f64>,
    pub points: Vec<UtilPoint>,
    pub rows: Vec<RunLogRow>,
    pub wall_s: f64,
}

impl Round {
    /// Job rows (one per config × placement seed), skipping the synthetic
    /// rows of utilization points no seed closed.
    pub fn jobs(&self) -> impl Iterator<Item = &RunLogRow> {
        self.rows
            .iter()
            .filter(|r| !r.disposition.starts_with("skipped"))
    }
}

pub fn run_round(
    pool: &Pool,
    setup: &Setup,
    base: &FlowConfig,
    index: usize,
    utils: Vec<f64>,
) -> Round {
    let t = Instant::now();
    let (_, points, rows, _) =
        utilization_sweep(pool, &setup.netlist, &setup.library, base, &utils);
    Round {
        index,
        utils,
        points,
        rows,
        wall_s: t.elapsed().as_secs_f64(),
    }
}

/// Digest of one utilization point's output: the best-of-seeds report plus
/// the attempt count of each seed's recovery ladder.
pub fn point_digest(point: &UtilPoint, attempts: &[u32]) -> String {
    hash_hex(fnv1a64(
        format!("{:?}|{attempts:?}", point.report).as_bytes(),
    ))
}

/// Reference digests per `(workload, round, utilization index)`, each with
/// the utilization it was recorded at.
#[derive(Debug, Clone, Default)]
pub struct Reference {
    entries: BTreeMap<(String, usize, usize), (f64, String)>,
}

impl Reference {
    pub fn parse(text: &str) -> Reference {
        let mut entries = BTreeMap::new();
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let f: Vec<&str> = line.split_whitespace().collect();
            if let [w, r, i, u, d] = f[..] {
                if let (Ok(r), Ok(i), Ok(u)) = (r.parse(), i.parse(), u.parse()) {
                    entries.insert((w.to_owned(), r, i), (u, d.to_owned()));
                }
            }
        }
        Reference { entries }
    }

    /// The checked-in digests when `seed` is the one they were recorded
    /// with, else none (other seeds draw other points).
    pub fn for_seed(seed: u64) -> Reference {
        if seed == DEFAULT_SEED {
            Reference::parse(include_str!("../reference.txt"))
        } else {
            Reference::default()
        }
    }

    pub fn get(&self, workload: &str, round: usize, index: usize) -> Option<&(f64, String)> {
        self.entries.get(&(workload.to_owned(), round, index))
    }

    pub fn insert(
        &mut self,
        workload: &str,
        round: usize,
        index: usize,
        util: f64,
        digest: String,
    ) {
        self.entries
            .insert((workload.to_owned(), round, index), (util, digest));
    }

    /// Adds (and overwrites with) every entry of `other`.
    pub fn extend(&mut self, other: Reference) {
        self.entries.extend(other.entries);
    }

    pub fn render(&self) -> String {
        let mut out = format!(
            "# workload round util_index utilization digest (workload seed {DEFAULT_SEED})\n"
        );
        for ((w, r, i), (u, d)) in &self.entries {
            out.push_str(&format!("{w} {r} {i} {u:?} {d}\n"));
        }
        out
    }
}

/// What the checks found over some set of sweep points.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Verdict {
    /// Points (config × placement seed) attempted.
    pub attempted: usize,
    /// Points that errored, panicked, timed out, failed signoff, or whose
    /// utilization point failed an output check.
    pub failed: usize,
    /// Points whose ladder ended invalid (DRV ≥ 10): a valid data point of
    /// the paper's evaluation, not a failure, but reported.
    pub invalid: usize,
    /// One line per problem found.
    pub problems: Vec<String>,
}

impl Verdict {
    pub fn absorb(&mut self, other: Verdict) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.invalid += other.invalid;
        self.problems.extend(other.problems);
    }
}

fn job_error(row: &RunLogRow) -> bool {
    let d = row.disposition.as_str();
    !(d == "clean" || d.starts_with("recovered(") || (d.starts_with("failed(") && !d.contains(':')))
}

/// Structural sanity of a finished report.
fn report_problem(point: &UtilPoint, dual_sided: bool) -> Option<String> {
    let r = &point.report;
    let ok = r.signoff == "PASS"
        && r.cells > 0
        && r.core_area_um2 > 0.0
        && r.achieved_freq_ghz > 0.0
        && r.power_mw > 0.0
        && r.wirelength_mm > 0.0
        && (!dual_sided || r.back_wirelength_mm > 0.0);
    (!ok).then(|| format!("implausible report {r:?}"))
}

/// Checks one round. `reference` is consulted under `(ref_workload,
/// round.index, i)`; `expected` (warm replays) holds the cold digests the
/// replayed points must reproduce. A problem at a utilization point is
/// charged to each of its seeds that had not already failed.
pub fn check_round(
    round: &Round,
    ref_workload: &str,
    reference: &Reference,
    expected: Option<&[String]>,
) -> (Verdict, Vec<String>) {
    let mut v = Verdict::default();
    let mut digests = Vec::new();
    let mut rows = round.rows.iter().peekable();
    let mut points = round.points.iter().peekable();
    for (i, &u) in round.utils.iter().enumerate() {
        let jobs: Vec<&RunLogRow> = rows.by_ref().take(SEEDS_PER_UTIL).collect();
        if rows
            .peek()
            .is_some_and(|r| r.disposition.starts_with("skipped"))
        {
            rows.next();
        }
        v.attempted += jobs.len();
        let mut errored = 0;
        for job in &jobs {
            if job_error(job) {
                errored += 1;
                v.problems.push(format!(
                    "round {} {}: {}",
                    round.index, job.label, job.disposition
                ));
            } else if job.disposition.starts_with("failed(") {
                v.invalid += 1;
            }
        }
        let point = points.next_if(|p| p.utilization == u);
        let attempts: Vec<u32> = jobs.iter().map(|j| j.attempts).collect();
        let digest = point.map(|p| point_digest(p, &attempts));
        let mut problem = match point {
            None => Some(format!("round {} u{u}: no seed closed", round.index)),
            Some(p) => report_problem(p, round_dual_sided(p)),
        };
        if let (Some(d), Some((ru, rd))) = (&digest, reference.get(ref_workload, round.index, i)) {
            if *ru != u || rd != d {
                problem.get_or_insert(format!(
                    "round {} u{u}: digest {d} differs from reference {rd} (u{ru})",
                    round.index
                ));
            }
        }
        if let Some(exp) = expected.and_then(|e| e.get(i)) {
            if digest.as_deref() != Some(exp.as_str()) {
                problem.get_or_insert(format!(
                    "round {} u{u}: warm replay differs from its cold report",
                    round.index
                ));
            }
        }
        if let Some(p) = problem {
            v.problems.push(p);
            errored = jobs.len();
        }
        v.failed += errored;
        digests.push(digest.unwrap_or_default());
    }
    (v, digests)
}

fn round_dual_sided(p: &UtilPoint) -> bool {
    p.report.back_pin_ratio > 0.0 && p.report.pattern.back_layers() > 0
}

/// Everything the untraced run measured.
pub struct Measured {
    pub setup_s: f64,
    pub rounds: Vec<Round>,
    /// Stage-cache payload bytes per point the workload wrote.
    pub cache_bytes_per_point: f64,
    pub verdict: Verdict,
    pub back_pin_ratio: f64,
}

impl Measured {
    pub fn points(&self) -> usize {
        self.rounds.iter().map(|r| r.jobs().count()).sum()
    }

    pub fn wall_s(&self) -> f64 {
        self.rounds.iter().map(|r| r.wall_s).sum()
    }

    pub fn point_walls_s(&self) -> Vec<f64> {
        self.rounds
            .iter()
            .flat_map(Round::jobs)
            .map(|r| r.wall_ms / 1e3)
            .collect()
    }
}

/// Runs `workload` for about `seconds` of sweep wall time: set-up, then
/// whole sweep rounds until the budget is spent.
pub fn measure(
    workload: Workload,
    seed: u64,
    seconds: f64,
    reference: &Reference,
    bless: Option<&mut Reference>,
) -> Result<Measured, String> {
    let pool = Pool::new(POOL_WIDTH);
    let mut draws = Draws::new(workload, seed);
    let ref_name = workload.draws_from().name();
    let base = base_config(workload, draws.back_pin_ratio, None);
    let mut setup = setup(&base)?;
    let mut verdict = Verdict::default();
    let mut rounds = Vec::new();
    let mut blessed = Vec::new();
    // `rv32_warm` primes one cache in set-up and replays it every round;
    // the cold workloads give every round a fresh, empty cache.
    let warm = match workload {
        Workload::Warm => Some(ScratchDir::new("primed").map_err(|e| e.to_string())?),
        _ => None,
    };
    let primed = match &warm {
        Some(cache) => {
            let base = FlowConfig {
                stage_cache: Some(cache.path().to_path_buf()),
                ..base.clone()
            };
            let primed = prime(
                &pool,
                &setup,
                &base,
                &mut draws,
                ref_name,
                reference,
                &mut verdict,
            );
            Some((primed, cache.blob_bytes()))
        }
        None => None,
    };
    let mut written = 0;
    let started = Instant::now();
    // Whole rounds only; a round starts while it is expected to end less
    // than half a round past the budget.
    let mut last_round_s = 0.0;
    while started.elapsed().as_secs_f64() + 0.5 * last_round_s < seconds {
        let cold;
        let cache = match &warm {
            Some(primed) => primed,
            None => {
                cold = ScratchDir::new("round").map_err(|e| e.to_string())?;
                &cold
            }
        };
        let base = FlowConfig {
            stage_cache: Some(cache.path().to_path_buf()),
            ..base.clone()
        };
        let round = match &primed {
            Some((p, _)) => {
                let round = run_round(&pool, &setup, &base, rounds.len(), p.utils.clone());
                verdict.absorb(check_round(&round, "-", reference, Some(&p.digests)).0);
                round
            }
            None => {
                let round = run_round(&pool, &setup, &base, rounds.len(), draws.next_round());
                written += cache.blob_bytes();
                let (v, digests) = check_round(&round, ref_name, reference, None);
                verdict.absorb(v);
                blessed.extend(
                    digests
                        .into_iter()
                        .enumerate()
                        .map(|(i, d)| (round.index, i, round.utils[i], d)),
                );
                round
            }
        };
        last_round_s = round.wall_s;
        rounds.push(round);
        for _ in 0..SETUP_REPS {
            setup.times.sample(&base)?;
        }
    }
    let points: usize = rounds.iter().map(|r| r.jobs().count()).sum();
    let (setup_s, cache_bytes_per_point) = match primed {
        Some((p, bytes)) => {
            blessed = p.blessed;
            (
                setup.times.setup_s() + p.wall_s,
                bytes as f64 / p.points.max(1) as f64,
            )
        }
        None => (setup.times.setup_s(), written as f64 / points.max(1) as f64),
    };
    if let Some(out) = bless {
        for (r, i, u, d) in blessed {
            out.insert(ref_name, r, i, u, d);
        }
    }
    Ok(Measured {
        setup_s,
        rounds,
        cache_bytes_per_point,
        verdict,
        back_pin_ratio: draws.back_pin_ratio,
    })
}

/// The primed `rv32_place` point set of a warm run.
pub struct Primed {
    pub utils: Vec<f64>,
    /// Cold digests, in `utils` order.
    pub digests: Vec<String>,
    pub points: usize,
    pub wall_s: f64,
    blessed: Vec<(usize, usize, f64, String)>,
}

/// Computes the first [`WARM_ROUNDS`] `rv32_place` rounds cold into the
/// configured cache, checking them against the `rv32_place` reference.
pub fn prime(
    pool: &Pool,
    setup: &Setup,
    base: &FlowConfig,
    draws: &mut Draws,
    ref_name: &str,
    reference: &Reference,
    verdict: &mut Verdict,
) -> Primed {
    let mut primed = Primed {
        utils: Vec::new(),
        digests: Vec::new(),
        points: 0,
        wall_s: 0.0,
        blessed: Vec::new(),
    };
    for index in 0..WARM_ROUNDS {
        let round = run_round(pool, setup, base, index, draws.next_round());
        let (v, digests) = check_round(&round, ref_name, reference, None);
        verdict.absorb(v);
        primed.points += round.jobs().count();
        primed.wall_s += round.wall_s;
        for (i, d) in digests.into_iter().enumerate() {
            primed.blessed.push((index, i, round.utils[i], d.clone()));
            primed.digests.push(d);
        }
        primed.utils.extend(round.utils);
    }
    primed
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffet_core::FaultPlan;

    /// A small design through the benchmark's own round and check path.
    fn small(faults: &str) -> (Setup, FlowConfig, ScratchDir) {
        let dir = ScratchDir::new(&format!("test-{faults}")).expect("scratch dir");
        let base = FlowConfig {
            fault_plan: FaultPlan::parse(faults).expect("fault spec"),
            stage_cache: Some(dir.path().to_path_buf()),
            ..base_config(Workload::Place, 0.5, None)
        };
        let library = base.build_library().expect("library");
        let netlist = designs::counter_pipeline(&library, 8);
        let setup = Setup {
            library,
            netlist,
            times: SetupTimes::default(),
        };
        (setup, base, dir)
    }

    #[test]
    fn corrupted_reference_entry_counts_as_failure() {
        let (setup, base, _dir) = small("");
        let round = run_round(&Pool::new(POOL_WIDTH), &setup, &base, 0, vec![0.55, 0.65]);
        let (clean, digests) = check_round(&round, "t", &Reference::default(), None);
        assert_eq!(
            (clean.attempted, clean.failed),
            (6, 0),
            "{:?}",
            clean.problems
        );

        let mut reference = Reference::default();
        reference.insert("t", 0, 0, 0.55, digests[0].clone());
        reference.insert("t", 0, 1, 0.65, "0000000000000000".to_owned());
        let reference = Reference::parse(&reference.render());
        let (v, _) = check_round(&round, "t", &reference, None);
        assert_eq!((v.attempted, v.failed), (6, 3));
        assert_eq!(v.problems.len(), 1);
        assert!(v.problems[0].contains("differs from reference"));

        // A warm replay that does not reproduce its cold digest fails the
        // same way.
        let expected = [digests[0].clone(), "0000000000000000".to_owned()];
        let (v, _) = check_round(&round, "-", &Reference::default(), Some(&expected));
        assert_eq!((v.attempted, v.failed), (6, 3));
        assert!(v.problems[0].contains("warm replay"));
    }

    #[test]
    fn injected_flow_error_is_counted_and_the_run_goes_on() {
        let pool = Pool::new(POOL_WIDTH);
        let mut total = Verdict::default();
        let (setup, base, _dir) = small("route-open");
        let round = run_round(&pool, &setup, &base, 0, vec![0.6]);
        total.absorb(check_round(&round, "t", &Reference::default(), None).0);
        assert_eq!((total.attempted, total.failed), (3, 3));
        assert!(total.problems.iter().any(|p| p.contains("signoff failed")));

        let (setup, base, _dir) = small("");
        let round = run_round(&pool, &setup, &base, 1, vec![0.6]);
        total.absorb(check_round(&round, "t", &Reference::default(), None).0);
        assert_eq!((total.attempted, total.failed), (6, 3));
    }
}
