//! The fault matrix: every injectable corruption must provably trip the
//! signoff rule (or runner behavior) it is named for, the union of the
//! error-class faults must cover every error-severity rule the signoff
//! crate can emit, and the recovery ladder must dispose of transient,
//! persistent, invalid, and panicking points deterministically.

use ffet_core::faults::DRV_INFLATE;
use ffet_core::recover::EXTRA_REROUTE_ROUNDS;
use ffet_core::{
    designs, run_flow, run_flow_resilient, Fault, FaultKind, FaultPlan, FlowConfig, FlowError,
    FlowOutcome, FlowStage, JobError, PointDisposition, Pool, RecoveryRung,
};
use ffet_tech::{RoutingPattern, TechKind};
use ffet_verify::{Severity, SignoffReport, ERROR_RULES};
use std::collections::BTreeSet;

/// The golden-proven dual-sided configuration every fault is injected
/// into: FM12BM12 BP0.5 at 60% utilization closes cleanly on the 24-bit
/// counter pipeline, so any signoff failure is the fault's doing.
fn base_config() -> FlowConfig {
    FlowConfig {
        pattern: RoutingPattern::new(12, 12).expect("static"),
        back_pin_ratio: 0.5,
        utilization: 0.6,
        max_attempts: 1,
        ..FlowConfig::baseline(TechKind::Ffet3p5t)
    }
}

fn run_with_plan(config: &FlowConfig) -> Result<FlowOutcome, FlowError> {
    let library = config.build_library().expect("valid config");
    let netlist = designs::counter_pipeline(&library, 24);
    run_flow(&netlist, &library, config)
}

fn run_with(kind: FaultKind) -> Result<FlowOutcome, FlowError> {
    let mut config = base_config();
    config.fault_plan = FaultPlan {
        faults: vec![Fault::always(kind)],
        ..FaultPlan::default()
    };
    run_with_plan(&config)
}

/// Unwraps the signoff report a faulted run must fail with.
fn failed_signoff(kind: FaultKind, result: Result<FlowOutcome, FlowError>) -> SignoffReport {
    match result {
        Err(FlowError::Signoff(report)) => report,
        Ok(o) => panic!(
            "{kind:?}: flow passed signoff instead of failing:\n{}",
            o.signoff.text_table()
        ),
        Err(e) => panic!("{kind:?}: flow failed before signoff: {e}"),
    }
}

/// Folds a report's error-severity rules into the coverage set.
fn collect_errors(report: &SignoffReport, tripped: &mut BTreeSet<&'static str>) {
    for (rule, sev, _) in report.rule_counts() {
        if sev == Severity::Error {
            tripped.insert(rule);
        }
    }
}

#[test]
fn every_error_fault_trips_its_expected_rule() {
    let cases: &[(FaultKind, &str)] = &[
        (FaultKind::NetUndriven, "lint.undriven"),
        (FaultKind::NetMultiDriven, "lint.multi-driven"),
        (FaultKind::PinFloat, "lint.floating-input"),
        (FaultKind::CombLoop, "lint.comb-loop"),
        (FaultKind::GhostInstance, "lvs.missing-component"),
        (FaultKind::PlacementCountMismatch, "place.count"),
        (FaultKind::RouteOpen, "drc.open"),
        (FaultKind::RoutePhantom, "drc.extra-routing"),
        (FaultKind::WireNonManhattan, "drc.non-manhattan"),
        (FaultKind::WireOffDie, "drc.off-die"),
        (FaultKind::WireIllegalLayer, "drc.layer-range"),
        (FaultKind::WireWrongDirection, "drc.wrong-direction"),
        (FaultKind::ViaDisplace, "drc.off-die"),
        (FaultKind::DefDropComponent, "lvs.missing-component"),
        (FaultKind::DefDupComponent, "lvs.duplicate-component"),
        (FaultKind::DefMacroSwap, "lvs.macro-mismatch"),
        (FaultKind::DefGhostComponent, "lvs.extra-component"),
        (FaultKind::DefDropNet, "lvs.missing-net"),
        (FaultKind::DefDupNet, "lvs.duplicate-net"),
        (FaultKind::DefGhostNet, "lvs.extra-net"),
        (FaultKind::DefDropConnection, "lvs.missing-connection"),
        (FaultKind::DefAddConnection, "lvs.extra-connection"),
    ];
    let mut tripped: BTreeSet<&'static str> = BTreeSet::new();
    for &(kind, rule) in cases {
        let report = failed_signoff(kind, run_with(kind));
        assert!(
            !report.by_rule(rule).is_empty(),
            "{kind:?} did not trip {rule}:\n{}",
            report.text_table()
        );
        collect_errors(&report, &mut tripped);
    }

    // BridgeOrphan plants a backside-only bridge pin, which only breaks
    // net decomposition when the pattern has no backside layers.
    let mut config = FlowConfig {
        pattern: RoutingPattern::new(12, 0).expect("static"),
        back_pin_ratio: 0.0,
        ..base_config()
    };
    config.fault_plan = FaultPlan {
        faults: vec![Fault::always(FaultKind::BridgeOrphan)],
        ..FaultPlan::default()
    };
    let report = failed_signoff(FaultKind::BridgeOrphan, run_with_plan(&config));
    assert!(
        !report.by_rule("drc.decompose").is_empty(),
        "BridgeOrphan did not trip drc.decompose:\n{}",
        report.text_table()
    );
    collect_errors(&report, &mut tripped);

    // The matrix is the coverage proof: every error-severity rule the
    // signoff crate can emit must be reachable by at least one fault.
    for &rule in ERROR_RULES {
        assert!(
            tripped.contains(rule),
            "no fault trips error rule {rule} (tripped: {tripped:?})"
        );
    }
}

#[test]
fn warning_faults_degrade_without_failing_structurally() {
    // CellDisplace knocks a cell off its site grid: place.off-site fires,
    // and the stranded pin stubs may additionally open nets (an error),
    // so accept either verdict but require the warning.
    let report = match run_with(FaultKind::CellDisplace) {
        Ok(o) => o.signoff,
        Err(FlowError::Signoff(report)) => report,
        Err(e) => panic!("CellDisplace: flow failed before signoff: {e}"),
    };
    assert!(
        !report.by_rule("place.off-site").is_empty(),
        "CellDisplace did not trip place.off-site:\n{}",
        report.text_table()
    );

    // DemandInflate overloads GCells without breaking connectivity: the
    // flow completes with capacity warnings only.
    let outcome = run_with(FaultKind::DemandInflate).expect("warnings do not fail the flow");
    assert!(
        !outcome.signoff.by_rule("drc.gcell-capacity").is_empty(),
        "DemandInflate did not trip drc.gcell-capacity:\n{}",
        outcome.signoff.text_table()
    );
}

#[test]
fn drv_inflate_invalidates_a_structurally_clean_point() {
    let outcome = run_with(FaultKind::DrvInflate).expect("signoff stays clean");
    assert!(outcome.signoff.is_clean());
    assert!(
        outcome.report.drv >= DRV_INFLATE,
        "drv {}",
        outcome.report.drv
    );
    assert!(!outcome.report.valid);
}

#[test]
fn pool_contains_stage_panics() {
    let mut config = base_config();
    config.fault_plan = FaultPlan {
        faults: vec![Fault::always(FaultKind::StagePanic(FlowStage::Pnr))],
        ..FaultPlan::default()
    };
    let library = config.build_library().expect("valid config");
    let netlist = designs::counter_pipeline(&library, 24);
    let pool = Pool::new(2);
    let outcomes = pool.run(vec![0u8], |_| {
        run_flow(&netlist, &library, &config).map(|o| o.report)
    });
    assert_eq!(outcomes.len(), 1);
    let o = &outcomes[0];
    assert!(
        matches!(o.result, Err(JobError::Panicked(_))),
        "pool should contain the stage panic"
    );
    let cell = o.stats.disposition.to_cell();
    assert!(
        cell.starts_with("panicked: fault: injected panic at pnr"),
        "disposition cell: {cell}"
    );
}

#[test]
fn transient_fault_recovers_on_first_retry() {
    let mut config = base_config();
    config.max_attempts = 3;
    config.fault_plan = FaultPlan {
        faults: vec![Fault::until(FaultKind::RouteOpen, 1)],
        ..FaultPlan::default()
    };
    let library = config.build_library().expect("valid config");
    let netlist = designs::counter_pipeline(&library, 24);
    let r = run_flow_resilient(&netlist, &library, &config);
    assert!(r.outcome.is_ok(), "recovered outcome: {:?}", r.recovery);
    assert_eq!(r.recovery.disposition, PointDisposition::Recovered(1));
    assert_eq!(r.recovery.attempts, 2);
    assert!(
        !r.recovery.relaxed,
        "first retry does not relax utilization"
    );
    let rungs: Vec<RecoveryRung> = r.log.attempts.iter().map(|a| a.rung).collect();
    assert_eq!(
        rungs,
        vec![RecoveryRung::Baseline, RecoveryRung::ExtraReroute]
    );
    assert!(r.log.attempts[0].outcome.starts_with("error:"));
    assert_eq!(r.log.attempts[1].outcome, "valid");
}

#[test]
fn persistent_fault_exhausts_the_whole_ladder() {
    let mut config = base_config();
    config.max_attempts = 4;
    config.fault_plan = FaultPlan {
        faults: vec![Fault::always(FaultKind::RouteOpen)],
        ..FaultPlan::default()
    };
    let library = config.build_library().expect("valid config");
    let netlist = designs::counter_pipeline(&library, 24);
    let r = run_flow_resilient(&netlist, &library, &config);
    assert_eq!(r.recovery.disposition, PointDisposition::Failed(3));
    assert_eq!(r.recovery.attempts, 4);
    let log = &r.log.attempts;
    assert_eq!(log.len(), 4);
    assert_eq!(
        log.iter().map(|a| a.rung).collect::<Vec<_>>(),
        vec![
            RecoveryRung::Baseline,
            RecoveryRung::ExtraReroute,
            RecoveryRung::RelaxUtilization,
            RecoveryRung::PerturbSeed,
        ]
    );
    assert_eq!(log[0].extra_reroute_rounds, 0);
    assert_eq!(log[1].extra_reroute_rounds, EXTRA_REROUTE_ROUNDS);
    assert!(log[2].utilization < log[0].utilization);
    assert_ne!(log[3].seed, log[0].seed, "rung 3 perturbs the seed");
    match r.outcome {
        Err(FlowError::Signoff(report)) => assert!(
            !report.by_rule("drc.open").is_empty(),
            "final error keeps the fault's signature"
        ),
        other => panic!(
            "persistent open should fail signoff, got {}",
            match other {
                Ok(_) => "Ok".to_owned(),
                Err(e) => format!("Err({e})"),
            }
        ),
    }
}

#[test]
fn invalid_point_recovers_when_fault_clears() {
    let mut config = base_config();
    config.max_attempts = 2;
    config.fault_plan = FaultPlan {
        faults: vec![Fault::until(FaultKind::DrvInflate, 1)],
        ..FaultPlan::default()
    };
    let library = config.build_library().expect("valid config");
    let netlist = designs::counter_pipeline(&library, 24);
    let r = run_flow_resilient(&netlist, &library, &config);
    assert_eq!(r.recovery.disposition, PointDisposition::Recovered(1));
    let outcome = r.outcome.expect("second attempt is valid");
    assert!(outcome.report.valid);
    assert!(r.log.attempts[0].outcome.starts_with("invalid (drv"));
}

#[test]
fn exhausted_invalid_point_returns_best_attempt() {
    let mut config = base_config();
    config.max_attempts = 2;
    config.fault_plan = FaultPlan {
        faults: vec![Fault::always(FaultKind::DrvInflate)],
        ..FaultPlan::default()
    };
    let library = config.build_library().expect("valid config");
    let netlist = designs::counter_pipeline(&library, 24);
    let r = run_flow_resilient(&netlist, &library, &config);
    assert_eq!(r.recovery.disposition, PointDisposition::Failed(1));
    let outcome = r.outcome.expect("best invalid attempt is still reported");
    assert!(!outcome.report.valid);
    assert!(outcome.report.drv >= DRV_INFLATE);
}

#[test]
fn panicking_stage_is_contained_and_recovered() {
    let mut config = base_config();
    config.max_attempts = 2;
    config.fault_plan = FaultPlan {
        faults: vec![Fault::until(FaultKind::StagePanic(FlowStage::Merge), 1)],
        ..FaultPlan::default()
    };
    let library = config.build_library().expect("valid config");
    let netlist = designs::counter_pipeline(&library, 24);
    let r = run_flow_resilient(&netlist, &library, &config);
    assert_eq!(r.recovery.disposition, PointDisposition::Recovered(1));
    assert!(
        r.log.attempts[0].outcome.starts_with("panicked:"),
        "attempt 0 outcome: {}",
        r.log.attempts[0].outcome
    );
    assert!(r.outcome.is_ok());
}

/// `FaultKind::RoutePanic` panics inside a routing *batch worker* — the
/// panic crosses the batch pool's containment boundary (worker
/// `catch_unwind` → re-raise on the routing thread) before the DoE pool
/// sees it. The DoE pool must still contain it, and the disposition cell
/// must carry the worker's message verbatim, identically at `route_jobs`
/// 1 (inline batch execution) and 4 (pool threads).
#[test]
fn pool_contains_route_batch_panics_at_any_worker_count() {
    let mut cells: Vec<String> = Vec::new();
    for route_jobs in [1usize, 4] {
        let mut config = base_config();
        config.route_jobs = route_jobs;
        config.fault_plan = FaultPlan {
            faults: vec![Fault::always(FaultKind::RoutePanic)],
            ..FaultPlan::default()
        };
        let library = config.build_library().expect("valid config");
        let netlist = designs::counter_pipeline(&library, 24);
        let pool = Pool::new(2);
        let outcomes = pool.run(vec![0u8], |_| {
            run_flow(&netlist, &library, &config).map(|o| o.report)
        });
        assert_eq!(outcomes.len(), 1);
        let o = &outcomes[0];
        assert!(
            matches!(o.result, Err(JobError::Panicked(_))),
            "route_jobs={route_jobs}: pool should contain the batch-worker panic"
        );
        let cell = o.stats.disposition.to_cell();
        assert!(
            cell.starts_with("panicked: fault: injected panic in route batch worker"),
            "route_jobs={route_jobs}: disposition cell: {cell}"
        );
        cells.push(cell);
    }
    assert_eq!(cells[0], cells[1], "disposition is route_jobs-invariant");
}

/// A transient batch-worker panic rides the recovery ladder exactly like a
/// flow-thread stage panic: attempt 0 is logged as panicked with the
/// worker's message, attempt 1 recovers — and the whole `AttemptLog`
/// disposition (rungs, outcome strings, final report) is byte-identical
/// whether the panicking batch ran inline or on pool workers.
#[test]
fn route_batch_panic_recovery_is_route_jobs_invariant() {
    let run = |route_jobs: usize| {
        let mut config = base_config();
        config.max_attempts = 2;
        config.route_jobs = route_jobs;
        config.fault_plan = FaultPlan {
            faults: vec![Fault::until(FaultKind::RoutePanic, 1)],
            ..FaultPlan::default()
        };
        let library = config.build_library().expect("valid config");
        let netlist = designs::counter_pipeline(&library, 24);
        let r = run_flow_resilient(&netlist, &library, &config);
        assert_eq!(
            r.recovery.disposition,
            PointDisposition::Recovered(1),
            "route_jobs={route_jobs}"
        );
        assert!(
            r.log.attempts[0]
                .outcome
                .starts_with("panicked: fault: injected panic in route batch worker"),
            "route_jobs={route_jobs}: attempt 0 outcome: {}",
            r.log.attempts[0].outcome
        );
        let rungs: Vec<RecoveryRung> = r.log.attempts.iter().map(|a| a.rung).collect();
        let outcomes: Vec<String> = r.log.attempts.iter().map(|a| a.outcome.clone()).collect();
        let report = r.outcome.expect("second attempt is valid").report;
        (r.recovery.disposition.to_cell(), rungs, outcomes, report)
    };
    assert_eq!(run(1), run(4), "recovery log diverged across route_jobs");
}

/// `stage-timeout` forces the cooperative deadline watchdog to fire at the
/// named stage boundary: the attempt is logged with the structured
/// `timeout(stage)` outcome, and a later fault-free attempt recovers the
/// point through the normal ladder.
#[test]
fn stage_timeout_lands_structured_outcome_and_recovers() {
    let mut config = base_config();
    config.max_attempts = 2;
    config.fault_plan = FaultPlan {
        faults: vec![Fault::until(FaultKind::StageTimeout(FlowStage::Pnr), 1)],
        ..FaultPlan::default()
    };
    let library = config.build_library().expect("valid config");
    let netlist = designs::counter_pipeline(&library, 24);
    let r = run_flow_resilient(&netlist, &library, &config);
    assert_eq!(r.recovery.disposition, PointDisposition::Recovered(1));
    assert_eq!(r.log.attempts[0].outcome, "timeout(pnr)");
    assert_eq!(r.log.attempts[1].outcome, "valid");
    assert!(r.outcome.is_ok());
}

/// A persistent timeout exhausts the ladder and surfaces as
/// `FlowError::Timeout` with the stage name intact — never a panic.
#[test]
fn persistent_stage_timeout_exhausts_ladder_without_panicking() {
    for (kind, stage) in [
        (FaultKind::StageTimeout(FlowStage::Synth), "synth"),
        (FaultKind::StageTimeout(FlowStage::Pnr), "pnr"),
        (FaultKind::StageTimeout(FlowStage::Merge), "merge"),
        (FaultKind::StageTimeout(FlowStage::Signoff), "signoff"),
    ] {
        let mut config = base_config();
        config.max_attempts = 2;
        config.fault_plan = FaultPlan {
            faults: vec![Fault::always(kind)],
            ..FaultPlan::default()
        };
        let library = config.build_library().expect("valid config");
        let netlist = designs::counter_pipeline(&library, 24);
        let r = run_flow_resilient(&netlist, &library, &config);
        assert_eq!(
            r.recovery.disposition,
            PointDisposition::Failed(1),
            "{stage}"
        );
        for a in &r.log.attempts {
            assert_eq!(a.outcome, format!("timeout({stage})"));
        }
        match r.outcome {
            Err(FlowError::Timeout(s)) => assert_eq!(s, stage),
            other => panic!(
                "{stage}: expected FlowError::Timeout, got {}",
                match other {
                    Ok(_) => "Ok".to_owned(),
                    Err(e) => format!("Err({e})"),
                }
            ),
        }
    }
}

/// The forced cancellation fires at the router's round boundary, which is
/// reached identically whether batches run inline or on pool workers: the
/// whole recovery log and final report are `route_jobs`-invariant.
#[test]
fn stage_timeout_recovery_is_route_jobs_invariant() {
    let run = |route_jobs: usize| {
        let mut config = base_config();
        config.max_attempts = 2;
        config.route_jobs = route_jobs;
        config.fault_plan = FaultPlan {
            faults: vec![Fault::until(FaultKind::StageTimeout(FlowStage::Pnr), 1)],
            ..FaultPlan::default()
        };
        let library = config.build_library().expect("valid config");
        let netlist = designs::counter_pipeline(&library, 24);
        let r = run_flow_resilient(&netlist, &library, &config);
        let rungs: Vec<RecoveryRung> = r.log.attempts.iter().map(|a| a.rung).collect();
        let outcomes: Vec<String> = r.log.attempts.iter().map(|a| a.outcome.clone()).collect();
        let report = r.outcome.expect("second attempt is valid").report;
        (r.recovery.disposition.to_cell(), rungs, outcomes, report)
    };
    let one = run(1);
    assert_eq!(one.2[0], "timeout(pnr)", "attempt 0 timed out: {:?}", one.2);
    assert_eq!(
        one,
        run(4),
        "timeout disposition diverged across route_jobs"
    );
}

/// A persistent timeout's `timeout(stage)` disposition reaches the sweep
/// runlog rows identically at every pool width — the runlog column the
/// `repro` CSV renders is exactly this string.
#[test]
fn stage_timeout_disposition_reaches_runlog_at_any_width() {
    let mut base = base_config();
    base.fault_plan = FaultPlan {
        faults: vec![Fault::always(FaultKind::StageTimeout(FlowStage::Pnr))],
        ..FaultPlan::default()
    };
    let library = base.build_library().expect("valid config");
    let netlist = designs::counter_pipeline(&library, 24);
    let utils = [0.56, 0.60];
    let run = |width: usize| {
        let pool = Pool::new(width);
        let (_, _, log, _) =
            ffet_core::experiments::utilization_sweep(&pool, &netlist, &library, &base, &utils);
        // A timed-out point still reports the time it spent: synth and P&R
        // ran (P&R until the deadline), nothing downstream did.
        for r in log.iter().filter(|r| r.attempts > 0) {
            let ms = r.stage_ms.expect("flow rows carry stage cells");
            assert!(
                ms[0] > 0.0 && ms[1] > 0.0,
                "{} at width {width}: {ms:?}",
                r.label
            );
            assert_eq!(ms[2..], [0.0; 4], "{} at width {width}", r.label);
        }
        log.iter()
            .map(|r| (r.label.clone(), r.attempts, r.disposition.clone()))
            .collect::<Vec<_>>()
    };
    let rows = run(1);
    // One row per (util × seed) plus one skipped row per util whose seeds
    // all timed out.
    let (timed_out, skipped): (Vec<_>, Vec<_>) =
        rows.iter().partition(|(_, attempts, _)| *attempts > 0);
    assert_eq!(skipped.len(), utils.len(), "rows: {rows:?}");
    for (label, attempts, disposition) in &timed_out {
        assert_eq!(*attempts, 1, "{label}");
        assert_eq!(disposition, "timeout(pnr)", "{label}");
    }
    assert!(
        skipped.iter().all(|(_, _, d)| d.starts_with("skipped")),
        "rows: {rows:?}"
    );
    assert_eq!(rows, run(4), "timeout rows diverged across pool widths");
}

/// The tentpole determinism guarantee: a sweep whose points go through the
/// recovery ladder (including a transient fault) produces byte-identical
/// results and identical dispositions at every pool width.
#[test]
fn recovered_sweep_is_identical_across_pool_widths() {
    let mut base = base_config();
    base.max_attempts = 2;
    base.fault_plan = FaultPlan {
        faults: vec![Fault::until(FaultKind::RouteOpen, 1)],
        ..FaultPlan::default()
    };
    let library = base.build_library().expect("valid config");
    let netlist = designs::counter_pipeline(&library, 24);
    let utils = [0.56, 0.60];

    let run = |width: usize| {
        let pool = Pool::new(width);
        ffet_core::experiments::utilization_sweep(&pool, &netlist, &library, &base, &utils)
    };
    let (max1, points1, log1, _traces1) = run(1);
    let (max4, points4, log4, _traces4) = run(4);

    assert_eq!(max1, max4);
    assert_eq!(points1, points4);
    assert_eq!(points1.len(), utils.len(), "rows survive recovery");
    // Telemetry (worker, wall) legitimately differs; the experiment-facing
    // columns must not.
    let key = |log: &[ffet_core::RunLogRow]| -> Vec<(String, u32, String)> {
        log.iter()
            .map(|r| (r.label.clone(), r.attempts, r.disposition.clone()))
            .collect()
    };
    assert_eq!(key(&log1), key(&log4));
    // Every point needed exactly one retry to clear the transient open.
    for (label, attempts, disposition) in key(&log1) {
        assert_eq!(attempts, 2, "{label}");
        assert_eq!(disposition, "recovered(1)", "{label}");
    }
}
