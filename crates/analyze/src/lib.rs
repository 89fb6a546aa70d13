//! `ffet-analyze` — zero-dependency determinism & robustness source
//! analyzer gating the workspace's byte-identity contract.
//!
//! The repo's core guarantee is that every sweep CSV and timing-stripped
//! `metrics.json` is byte-identical at any `--jobs` width. Golden-file
//! tests catch violations *after* they ship; this crate makes the
//! underlying discipline a checked property of the source itself:
//!
//! - **D001** no default-hasher `HashMap`/`HashSet` in pipeline crates;
//! - **D002** no unsorted hash-map iteration in artifact-producing crates;
//! - **D003** no wall-clock reads outside the timing modules;
//! - **D004** no thread spawning outside the `ffet-pool` work-stealing pool;
//! - **R001** no `unwrap()`/`expect()`/`panic!` outside tests (existing
//!   debt frozen in a checked-in baseline, see [`baseline`]; none at all,
//!   frozen or waived, in the [`rules::BYTE_READERS`]);
//! - **M001** metric/span names in code ⇆ the DESIGN §9 catalog.
//!
//! Violations are waived inline with
//! `// ffet-analyze: allow(CODE) -- justification` (justification
//! mandatory, see [`waivers`]). The `ffet-analyze` binary walks
//! `crates/*/src`, prints a deterministic `path:line: CODE message`
//! report, and exits non-zero on any non-waived finding — the CI gate.

pub mod baseline;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod waivers;

use baseline::Baseline;
use report::{Analysis, Finding};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Relative path of the metric/span catalog document.
pub const DESIGN_MD: &str = "DESIGN.md";

/// Default relative path of the R001 baseline file.
pub const BASELINE_PATH: &str = "crates/analyze/r001.baseline";

/// The analyzer's own crate directory — excluded from the walk (it is the
/// measuring instrument, not the measured pipeline, and its fixtures and
/// rule tables would self-trip every rule).
const SELF_CRATE: &str = "analyze";

/// One workspace analysis: the gate result plus the per-file R001 counts
/// that `--bless-baseline` freezes.
#[derive(Debug, Default)]
pub struct Workspace {
    /// Findings, stats, and renderers.
    pub analysis: Analysis,
    /// Post-waiver R001 occurrences per file (input to the baseline). The
    /// [`rules::BYTE_READERS`] never appear: they take no baseline.
    pub r001_counts: BTreeMap<String, u32>,
}

impl Workspace {
    /// The `--bless-baseline` text for this analysis (made against an empty
    /// baseline), or the R001 findings in files that read on-disk bytes,
    /// which no baseline may freeze.
    ///
    /// # Errors
    ///
    /// The byte-reader R001 findings that block the bless.
    pub fn bless(&self) -> Result<String, Vec<&Finding>> {
        let blocked: Vec<&Finding> = (self.analysis.findings.iter())
            .filter(|f| f.code == "R001" && rules::reads_bytes(&f.file))
            .collect();
        if blocked.is_empty() {
            Ok(Baseline::render(&self.r001_counts))
        } else {
            Err(blocked)
        }
    }
}

/// Scans one source file (already read) through the full per-file pipeline:
/// lex → waiver collection → test stripping → rules → waiver application.
/// Returns (findings, metric uses, findings waived).
#[must_use]
pub fn scan_source(relpath: &str, source: &str) -> (Vec<Finding>, Vec<rules::MetricUse>, usize) {
    let lexed = lexer::lex(source);
    let (mut file_waivers, mut findings) = waivers::collect(relpath, &lexed.comments, &lexed.toks);
    let toks = lexer::strip_test_regions(lexed.toks);
    let (rule_findings, uses) = rules::scan_tokens(relpath, &toks);
    findings.extend(rule_findings);
    let waived = waivers::apply(relpath, &mut file_waivers, &mut findings);
    (findings, uses, waived)
}

/// Analyzes the workspace rooted at `root` against `baseline`.
///
/// # Errors
///
/// Returns a message when the tree cannot be read (missing `crates/` or
/// `DESIGN.md`, unreadable file) — I/O problems are operator errors, not
/// findings.
pub fn analyze_workspace(root: &Path, baseline: &Baseline) -> Result<Workspace, String> {
    let mut ws = Workspace::default();
    let mut findings: Vec<Finding> = Vec::new();
    let mut uses: BTreeMap<String, Vec<(String, u32)>> = BTreeMap::new();

    for file in workspace_sources(root)? {
        let text =
            std::fs::read_to_string(root.join(&file)).map_err(|e| format!("read {file}: {e}"))?;
        let (file_findings, file_uses, waived) = scan_source(&file, &text);
        ws.analysis.files_scanned += 1;
        ws.analysis.waived += waived;
        for u in file_uses {
            uses.entry(u.name).or_default().push((file.clone(), u.line));
        }
        findings.extend(file_findings);
    }

    // M001: reconcile recorded names against the DESIGN §9 catalog.
    let design = std::fs::read_to_string(root.join(DESIGN_MD))
        .map_err(|e| format!("read {DESIGN_MD}: {e}"))?;
    rules::m001(
        DESIGN_MD,
        &rules::Catalog::parse(&design),
        &uses,
        &mut findings,
    );

    // R001: apply the frozen-debt baseline. Files that read on-disk bytes
    // take none: their findings always stay in the report.
    let frozen_debt = |f: &Finding| f.code == "R001" && !rules::reads_bytes(&f.file);
    for f in findings.iter().filter(|f| frozen_debt(f)) {
        *ws.r001_counts.entry(f.file.clone()).or_default() += 1;
    }
    for f in &mut findings {
        if frozen_debt(f) {
            let have = ws.r001_counts.get(&f.file).copied().unwrap_or(0);
            let frozen = baseline.allowance(&f.file);
            if have > frozen {
                f.message.push_str(&format!(
                    " (file has {have} non-waived, baseline allows {frozen})"
                ));
            }
        } else if f.code == "R001" {
            f.message
                .push_str(" (this file reads on-disk bytes: no baseline or waiver covers R001)");
        }
    }
    let counts = &ws.r001_counts;
    findings.retain(|f| {
        !frozen_debt(f) || counts.get(&f.file).copied().unwrap_or(0) > baseline.allowance(&f.file)
    });
    ws.analysis.baselined = baseline.reconcile(BASELINE_PATH, counts, &mut findings);

    ws.analysis.findings = findings;
    ws.analysis.sort();
    Ok(ws)
}

/// Every `.rs` file under `crates/*/src`, workspace-relative with `/`
/// separators, sorted — the deterministic scan order the report inherits.
///
/// # Errors
///
/// Returns a message when `crates/` cannot be enumerated.
pub fn workspace_sources(root: &Path) -> Result<Vec<String>, String> {
    let crates_dir = root.join("crates");
    let mut crate_names: Vec<String> = std::fs::read_dir(&crates_dir)
        .map_err(|e| format!("read {}: {e}", crates_dir.display()))?
        .filter_map(Result::ok)
        .filter(|e| e.path().is_dir())
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| n != SELF_CRATE)
        .collect();
    crate_names.sort();

    let mut files = Vec::new();
    for name in crate_names {
        let src = crates_dir.join(&name).join("src");
        if src.is_dir() {
            collect_rs(&src, &format!("crates/{name}/src"), &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn collect_rs(dir: &Path, rel: &str, out: &mut Vec<String>) -> Result<(), String> {
    let mut entries: Vec<(String, PathBuf)> = std::fs::read_dir(dir)
        .map_err(|e| format!("read {}: {e}", dir.display()))?
        .filter_map(Result::ok)
        .filter_map(|e| e.file_name().into_string().ok().map(|n| (n, e.path())))
        .collect();
    entries.sort();
    for (name, path) in entries {
        if path.is_dir() {
            collect_rs(&path, &format!("{rel}/{name}"), out)?;
        } else if name.ends_with(".rs") {
            out.push(format!("{rel}/{name}"));
        }
    }
    Ok(())
}
