//! Golden-run regression tests: the table of every experiment in
//! `experiments::EXPERIMENTS` (flow experiments on the CounterSmall design),
//! one test each, diffed byte-for-byte against checked-in CSVs under
//! `tests/golden/`.
//!
//! These pin the full pipeline — synthesis, P&R, extraction, STA, table
//! formatting — so any unintended numeric or formatting drift fails CI.
//! They run on the env-configured DoE pool (`FFET_JOBS`), so the CI matrix
//! exercises the byte-identical-at-any-width contract for free.
//!
//! After an *intentional* change to flow numerics, re-bless the goldens:
//!
//! ```text
//! FFET_BLESS=1 cargo test -p ffet-core --test golden_experiments
//! ```

use ffet_core::experiments::{find, DesignKind, EXPERIMENTS};
use ffet_core::runner::Pool;
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("../../tests/golden/{name}.csv"))
}

/// Diffs `fresh` against the checked-in golden, or regenerates the golden
/// when `FFET_BLESS=1` is set. A missing golden is a failure.
fn check_golden(name: &str, fresh: &str) -> Result<(), String> {
    let path = golden_path(name);
    if std::env::var("FFET_BLESS").as_deref() == Ok("1") {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir golden");
        std::fs::write(&path, fresh).expect("write golden");
        // Bless-mode feedback for the human running FFET_BLESS=1.
        #[allow(clippy::print_stderr)]
        {
            eprintln!("blessed {}", path.display());
        }
        return Ok(());
    }
    let want = std::fs::read_to_string(&path).map_err(|e| {
        format!(
            "missing golden {} ({e}); regenerate with FFET_BLESS=1 cargo test -p ffet-core --test golden_experiments",
            path.display()
        )
    })?;
    if want == fresh {
        return Ok(());
    }
    let diff_line = want
        .lines()
        .zip(fresh.lines())
        .position(|(a, b)| a != b)
        .map_or_else(
            || {
                format!(
                    "line counts differ ({} vs {})",
                    want.lines().count(),
                    fresh.lines().count()
                )
            },
            |i| {
                format!(
                    "first difference at line {}:\n  golden: {}\n  fresh:  {}",
                    i + 1,
                    want.lines().nth(i).unwrap_or(""),
                    fresh.lines().nth(i).unwrap_or("")
                )
            },
        );
    Err(format!(
        "{name} drifted from tests/golden/{name}.csv — {diff_line}\n\
         If the change is intentional, re-bless with FFET_BLESS=1."
    ))
}

/// Runs the registered experiment `name` on the CounterSmall design and
/// diffs its table against its golden: `<name>.csv` for the analytic tables
/// (no series), `<name>_counter.csv` for the flow experiments.
fn check_experiment(name: &str) {
    let exp = find(name).unwrap_or_else(|| panic!("no registered experiment {name}"));
    let run = exp.run(DesignKind::CounterSmall, &Pool::from_env());
    let golden = if run.series.is_empty() {
        name.to_owned()
    } else {
        format!("{name}_counter")
    };
    if let Err(msg) = check_golden(&golden, &run.table.to_csv()) {
        panic!("{msg}");
    }
}

/// One test per registered experiment, named after its golden, and the
/// list of names they cover.
macro_rules! golden_tests {
    ($($test:ident => $name:literal,)*) => {
        $(
            #[test]
            fn $test() {
                check_experiment($name);
            }
        )*
        const COVERED: &[&str] = &[$($name),*];
    };
}

golden_tests! {
    golden_table1 => "table1",
    golden_table2 => "table2",
    golden_fig4 => "fig4",
    golden_fig8_counter => "fig8",
    golden_fig9_counter => "fig9",
    golden_fig10_counter => "fig10",
    golden_fig11_counter => "fig11",
    golden_table3_counter => "table3",
    golden_fig12_counter => "fig12",
    golden_fig13_counter => "fig13",
    golden_ablation_counter => "ablation",
}

/// Every registered experiment is pinned: a new registry entry without a
/// golden test above fails here.
#[test]
fn every_registered_experiment_has_a_golden_test() {
    let registered: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    assert_eq!(registered, COVERED);
}
