//! The three RV32 workloads: which DoE region each one sweeps, and the
//! seeded draws that turn a workload seed into concrete sweep points.

use ffet_core::{FaultPlan, FlowConfig};
use ffet_geom::Rng64;
use ffet_tech::{RoutingPattern, TechKind};
use std::path::PathBuf;

/// Pool width: the DoE level of the thread budget (width × `ROUTE_JOBS`
/// stays at or under the host's core count on the 2-core reference host).
pub const POOL_WIDTH: usize = 2;

/// Router workers per point: the intra-point level of the thread budget.
pub const ROUTE_JOBS: usize = 1;

/// Recovery-ladder attempt budget (`recover::DEFAULT_MAX_ATTEMPTS`, set
/// explicitly so `FFET_MAX_ATTEMPTS` cannot leak in).
pub const MAX_ATTEMPTS: u32 = 3;

/// Rounds of `rv32_place` points that `rv32_warm` primes and then replays.
pub const WARM_ROUNDS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// FM12BM12 paper sweep: placement-bound, stage-cache write path.
    Place,
    /// Few-layer dual-sided pattern at the routability wall: routing and
    /// the recovery ladder dominate. Too few ~9 s points fit in a run for
    /// its end-to-end figures to gate a change, so `BENCHMARK.json` leaves
    /// it out; it serves traced and manual runs.
    Route,
    /// The `Place` point set replayed from a primed stage cache.
    Warm,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Place, Workload::Route, Workload::Warm];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Place => "rv32_place",
            Workload::Route => "rv32_route",
            Workload::Warm => "rv32_warm",
        }
    }

    /// The workload whose draws generate this one's points (`rv32_warm`
    /// replays exactly the `rv32_place` point set of the same seed).
    pub fn draws_from(self) -> Workload {
        match self {
            Workload::Warm => Workload::Place,
            w => w,
        }
    }

    fn pattern(self) -> RoutingPattern {
        let (front, back) = match self.draws_from() {
            Workload::Route => (6, 6),
            _ => (12, 12),
        };
        RoutingPattern::fixed(front, back)
    }

    /// Utilization band `[lo, hi)` the seed draws sweep points from.
    fn util_band(self) -> (f64, f64) {
        match self.draws_from() {
            // Past the wall by less than the ladder's relaxation step: the
            // baseline and extra-reroute rungs stay invalid and the relaxed
            // third attempt closes, so every point climbs the whole ladder
            // (the regime is narrow; wider bands mix in 1-attempt points and
            // unrecoverable ones, and the per-run cost stops being steady).
            Workload::Route => (0.700, 0.710),
            _ => (0.55, 0.70),
        }
    }

    /// Back-pin-ratio band `[lo, hi)` the seed draws the workload's BPy from.
    fn bp_band(self) -> (f64, f64) {
        match self.draws_from() {
            // The routability wall moves with the backside pin share.
            Workload::Route => (0.49, 0.51),
            _ => (0.3, 0.7),
        }
    }

    /// Utilization points per sweep round; each round submits them × the
    /// sweep's three placement seeds to the pool at once. A `rv32_route`
    /// point costs about 9 s, so its rounds hold one utilization (three
    /// points on two workers: the uneven tail is part of what it measures).
    pub fn utils_per_round(self) -> usize {
        match self.draws_from() {
            Workload::Route => 1,
            _ => 2,
        }
    }
}

/// The seeded inputs of one run: the back-pin ratio, then one stratified
/// utilization draw per round (each round covers the whole band, one point
/// per stratum, so every round has the same expected cost).
pub struct Draws {
    workload: Workload,
    rng: Rng64,
    pub back_pin_ratio: f64,
}

impl Draws {
    pub fn new(workload: Workload, seed: u64) -> Draws {
        let workload = workload.draws_from();
        let mut rng = Rng64::new(seed);
        let (lo, hi) = workload.bp_band();
        let back_pin_ratio = lo + (hi - lo) * rng.f64();
        Draws {
            workload,
            rng,
            back_pin_ratio,
        }
    }

    pub fn next_round(&mut self) -> Vec<f64> {
        let (lo, hi) = self.workload.util_band();
        let k = self.workload.utils_per_round();
        (0..k)
            .map(|i| lo + (hi - lo) * (i as f64 + self.rng.f64()) / k as f64)
            .collect()
    }
}

/// The sweep's base config with every field set explicitly: nothing is
/// read from `FFET_*` variables (`FlowConfig::baseline` would pick up
/// `FFET_STAGE_CACHE`, `FFET_FAULTS`, `FFET_JOBS`, `FFET_ROUTE_JOBS`,
/// `FFET_DEADLINE` and `FFET_MAX_ATTEMPTS` from the caller's shell).
pub fn base_config(workload: Workload, back_pin_ratio: f64, cache: Option<PathBuf>) -> FlowConfig {
    let (lo, hi) = workload.util_band();
    FlowConfig {
        tech: TechKind::Ffet3p5t,
        pattern: workload.pattern(),
        back_pin_ratio,
        utilization: 0.5 * (lo + hi),
        aspect_ratio: 1.0,
        target_freq_ghz: 1.5,
        activity: 0.15,
        seed: 42,
        bridging_min_nm: None,
        extra_reroute_rounds: 0,
        max_attempts: MAX_ATTEMPTS,
        route_jobs: ROUTE_JOBS,
        deadline_ms: None,
        fault_plan: FaultPlan::default(),
        stage_cache: cache,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_are_seeded_and_stratified() {
        let mut a = Draws::new(Workload::Place, 7);
        let mut b = Draws::new(Workload::Place, 7);
        assert_eq!(a.back_pin_ratio, b.back_pin_ratio);
        let (lo, hi) = Workload::Place.util_band();
        for _ in 0..20 {
            let round = a.next_round();
            assert_eq!(round, b.next_round());
            let width = (hi - lo) / round.len() as f64;
            for (i, u) in round.iter().enumerate() {
                let stratum = lo + width * i as f64;
                assert!(
                    *u >= stratum && *u < stratum + width,
                    "{u} outside stratum {i}"
                );
            }
        }
        assert_ne!(
            Draws::new(Workload::Route, 8).next_round(),
            Draws::new(Workload::Route, 7).next_round()
        );
    }

    #[test]
    fn warm_replays_the_place_point_set() {
        let mut place = Draws::new(Workload::Place, 3);
        let mut warm = Draws::new(Workload::Warm, 3);
        assert_eq!(place.back_pin_ratio, warm.back_pin_ratio);
        assert_eq!(place.next_round(), warm.next_round());
    }
}
