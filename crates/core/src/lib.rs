//! `ffet-core` — the FFET evaluation framework of the paper: physical
//! implementation plus block-level PPA assessment with dual-sided signals.
//!
//! This crate ties the substrates together into the paper's Fig. 7 flow:
//!
//! 1. **Synthesis-lite** ([`synthesize`]): fanout buffering + drive sizing
//!    toward a synthesis target frequency.
//! 2. **Physical implementation** ([`ffet_pnr`]): floorplan, BSPDN
//!    powerplan with Power Tap Cells, placement, CTS, and the dual-sided
//!    signal routing of Algorithm 1.
//! 3. **Power-performance** ([`run_flow`]): DEF merging, dual-sided RC
//!    extraction, STA and power analysis.
//!
//! The [`experiments`] module regenerates every table and figure of the
//! paper's evaluation on the [`designs::rv32_core`] benchmark.
//!
//! # Example
//!
//! ```no_run
//! use ffet_core::{designs, run_flow, FlowConfig};
//! use ffet_tech::TechKind;
//!
//! let config = FlowConfig::baseline(TechKind::Ffet3p5t);
//! let library = config.build_library()?;
//! let netlist = designs::rv32_core(&library);
//! let outcome = run_flow(&netlist, &library, &config)?;
//! println!("{}", outcome.report.summary());
//! # Ok::<(), ffet_core::FlowError>(())
//! ```

pub mod ckpt;
pub mod designs;
pub mod experiments;
pub mod faults;
mod flow;
pub mod recover;
mod report;
pub mod runner;
pub mod stagecache;
mod synth;

pub use faults::{Fault, FaultKind, FaultPlan, FlowStage, FAULTS_ENV};
pub use flow::{
    deadline_ms_from_env, route_jobs_from_env, run_flow, FlowConfig, FlowError, FlowOutcome,
    DEADLINE_ENV, ROUTE_JOBS_ENV,
};
pub use recover::{
    run_flow_resilient, AttemptLog, AttemptRecord, PointDisposition, PointFailure, PointRecovery,
    RecoveryRung, ResilientOutcome, MAX_ATTEMPTS_ENV,
};
pub use report::{pct_diff, PpaReport};
pub use runner::{JobError, JobOutcome, JobStats, Pool, RunLog, RunLogRow};
pub use stagecache::{
    CacheStatsReport, GcReport, Stage, StageCache, VerifyReport, STAGE_CACHE_ENV,
};
pub use synth::{synthesize, SynthConfig, SynthStats};

#[cfg(test)]
mod tests {
    use super::*;
    use ffet_tech::{RoutingPattern, TechKind};

    #[test]
    fn flow_runs_end_to_end_on_small_design() {
        let mut config = FlowConfig::baseline(TechKind::Ffet3p5t);
        config.pattern = RoutingPattern::new(6, 6).unwrap();
        config.back_pin_ratio = 0.5;
        config.utilization = 0.6;
        let library = config.build_library().expect("valid config");
        let netlist = designs::counter_pipeline(&library, 16);
        let outcome = run_flow(&netlist, &library, &config).expect("flow completes");
        let r = &outcome.report;
        assert!(r.achieved_freq_ghz > 0.2, "freq {}", r.achieved_freq_ghz);
        assert!(r.power_mw > 0.0);
        assert!(r.core_area_um2 > 0.0);
        assert!(r.wirelength_mm > 0.0);
        assert!(r.back_wirelength_mm > 0.0, "dual-sided routing used");
        assert!(!outcome.merged_def.nets.is_empty());
    }

    #[test]
    fn cfet_flow_runs_end_to_end() {
        let mut config = FlowConfig::baseline(TechKind::Cfet4t);
        config.utilization = 0.6;
        let library = config.build_library().expect("valid config");
        let netlist = designs::counter_pipeline(&library, 16);
        let outcome = run_flow(&netlist, &library, &config).expect("flow completes");
        assert_eq!(outcome.report.back_wirelength_mm, 0.0);
        assert!(outcome.report.valid, "drv {}", outcome.report.drv);
    }

    #[test]
    fn flow_is_deterministic() {
        let mut config = FlowConfig::baseline(TechKind::Ffet3p5t);
        config.utilization = 0.55;
        let library = config.build_library().expect("valid config");
        let netlist = designs::counter_pipeline(&library, 12);
        let a = run_flow(&netlist, &library, &config).unwrap();
        let b = run_flow(&netlist, &library, &config).unwrap();
        assert_eq!(a.report, b.report);
    }
}
