//! The DoE engine's determinism contract, enforced end to end:
//!
//! * an experiment produces **byte-identical** CSV tables and identical
//!   `PpaReport`s at every pool width (submission-order reassembly,
//!   per-job seeds, no cross-job communication);
//! * a single `run_flow` call is bit-reproducible, down to the signoff and
//!   timing reports;
//! * the DoE pool width (`FFET_JOBS`) and the router's intra-point worker
//!   count (`FFET_ROUTE_JOBS`) are *independent* knobs — every point of
//!   the {1,4} × {1,4} cross-matrix agrees byte for byte.

use ffet_core::experiments::{self, utilization_sweep, DesignKind, ExpRun};
use ffet_core::runner::Pool;
use ffet_core::{designs, run_flow, FlowConfig};
use ffet_tech::{RoutingPattern, TechKind};

fn run_counter(name: &str, jobs: usize) -> ExpRun {
    experiments::find(name)
        .expect("registered experiment")
        .run(DesignKind::CounterSmall, &Pool::new(jobs))
}

/// The same seeded sweep at `jobs=1` and `jobs=4` must agree byte for byte
/// on every table artifact and on every underlying report.
#[test]
fn fig8_sweep_is_pool_width_invariant() {
    let serial = run_counter("fig8", 1);
    let parallel = run_counter("fig8", 4);
    assert_eq!(
        serial.table.to_csv(),
        parallel.table.to_csv(),
        "CSV must be byte-identical at jobs=1 and jobs=4"
    );
    // Each series' max utilization and every point's full PpaReport, not
    // just the rendered table.
    assert_eq!(serial.series, parallel.series);
}

/// A mixed grid (a baseline series plus 13 DoE rows in five pin-density
/// series) reassembles identically at any width, including the
/// diff-vs-baseline columns.
#[test]
fn table3_is_pool_width_invariant() {
    let serial = run_counter("table3", 1);
    let parallel = run_counter("table3", 4);
    assert_eq!(serial.table.to_csv(), parallel.table.to_csv());
    assert_eq!(serial.series, parallel.series);
}

/// The {`FFET_JOBS`} × {`FFET_ROUTE_JOBS`} cross-matrix: a sweep's full
/// per-point results (reports, signoff, recovery dispositions) must be
/// identical at every combination of DoE pool width and router worker
/// count — the two levels of parallelism compose without touching a byte.
#[test]
fn sweep_is_invariant_across_jobs_and_route_jobs_matrix() {
    let base = FlowConfig {
        pattern: RoutingPattern::new(12, 12).expect("legal"),
        back_pin_ratio: 0.5,
        utilization: 0.6,
        route_jobs: 1,
        ..FlowConfig::baseline(TechKind::Ffet3p5t)
    };
    let library = base.build_library().expect("valid config");
    let netlist = designs::counter_pipeline(&library, 16);
    let utils = [0.58, 0.62];
    let reference = utilization_sweep(&Pool::new(1), &netlist, &library, &base, &utils).1;
    assert_eq!(reference.len(), utils.len(), "sweep closes at both points");
    for jobs in [1usize, 4] {
        for route_jobs in [1usize, 4] {
            if (jobs, route_jobs) == (1, 1) {
                continue;
            }
            let mut config = base.clone();
            config.route_jobs = route_jobs;
            let points = utilization_sweep(&Pool::new(jobs), &netlist, &library, &config, &utils).1;
            assert_eq!(
                reference, points,
                "jobs={jobs} route_jobs={route_jobs} diverged from jobs=1 route_jobs=1"
            );
        }
    }
}

/// Two `run_flow` calls with the same `FlowConfig` produce identical
/// signoff and timing reports (not just the summary PPA numbers).
#[test]
fn run_flow_reproduces_signoff_and_timing_reports() {
    let config = FlowConfig {
        utilization: 0.6,
        pattern: RoutingPattern::new(6, 6).expect("legal"),
        back_pin_ratio: 0.5,
        ..FlowConfig::baseline(TechKind::Ffet3p5t)
    };
    let library = config.build_library().expect("valid config");
    let netlist = designs::counter_pipeline(&library, 16);
    let a = run_flow(&netlist, &library, &config).expect("flow completes");
    let b = run_flow(&netlist, &library, &config).expect("flow completes");
    assert_eq!(a.report, b.report);
    assert_eq!(a.signoff, b.signoff, "signoff report is reproducible");
    assert_eq!(a.timing, b.timing, "timing report is reproducible");
    assert_eq!(a.merged_def.nets.len(), b.merged_def.nets.len());
}
