//! The checked-in R001 baseline: existing `unwrap()`/`expect()`/`panic!`
//! debt is frozen per file, so new debt fails CI while old debt is paid
//! down deliberately. The ratchet is two-sided: a file whose debt *shrinks*
//! (or disappears) makes its baseline entry stale, which is also a gate
//! failure (`B001`) — the baseline can never drift above reality.

use crate::report::{Finding, CODE_BYTE_READER_BASELINE, CODE_STALE_BASELINE};
use crate::rules::reads_bytes;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Parsed baseline: per-file frozen R001 counts, plus each entry's line in
/// the baseline file (for precise `B001` findings).
#[derive(Debug, Default, Clone)]
pub struct Baseline {
    entries: BTreeMap<String, (u32, u32)>, // path -> (count, baseline-file line)
}

impl Baseline {
    /// Parses the baseline text. Lines are `R001 <count> <path>`; blank
    /// lines and `#` comments are ignored.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first malformed line.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let mut entries = BTreeMap::new();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            let (code, count, path) = (parts.next(), parts.next(), parts.next());
            match (code, count.and_then(|c| c.parse::<u32>().ok()), path) {
                (Some("R001"), Some(n), Some(p)) if parts.next().is_none() && n > 0 => {
                    if entries.insert(p.to_owned(), (n, i as u32 + 1)).is_some() {
                        return Err(format!("line {}: duplicate entry for {p}", i + 1));
                    }
                }
                _ => {
                    return Err(format!(
                        "line {}: expected `R001 <count> <path>`, got `{line}`",
                        i + 1
                    ))
                }
            }
        }
        Ok(Baseline { entries })
    }

    /// Renders the canonical baseline text for the given per-file counts
    /// (zero-count files are omitted).
    #[must_use]
    pub fn render(counts: &BTreeMap<String, u32>) -> String {
        let mut out = String::from(
            "# ffet-analyze R001 baseline: frozen unwrap()/expect()/panic! debt per file.\n\
             # New debt fails the gate; paying debt down makes the entry stale (B001),\n\
             # so re-bless with: cargo run -p ffet-analyze -- --bless-baseline\n",
        );
        for (path, n) in counts {
            if *n > 0 {
                let _ = writeln!(out, "R001 {n} {path}");
            }
        }
        out
    }

    /// Frozen count for `path` (0 when absent).
    #[must_use]
    pub fn allowance(&self, path: &str) -> u32 {
        self.entries.get(path).map_or(0, |&(n, _)| n)
    }

    /// Reconciles actual per-file R001 counts against the baseline.
    ///
    /// - `actual > frozen`: the file's R001 findings stay in the report
    ///   (handled by the caller via [`Baseline::allowance`]).
    /// - `actual < frozen` or file missing: emits a `B001` stale-entry
    ///   finding pointing at the baseline file line.
    /// - the entry names a file that reads on-disk bytes: emits a `B002`
    ///   finding; such a file may hold no R001 debt at all.
    ///
    /// Returns the number of findings suppressed as baselined.
    pub fn reconcile(
        &self,
        baseline_path: &str,
        actual: &BTreeMap<String, u32>,
        findings: &mut Vec<Finding>,
    ) -> usize {
        let mut baselined = 0usize;
        for (path, &(frozen, bline)) in &self.entries {
            if reads_bytes(path) {
                findings.push(Finding::new(
                    baseline_path,
                    bline,
                    CODE_BYTE_READER_BASELINE,
                    format!(
                        "{path} reads on-disk bytes and may hold no R001 debt: fix its \
                         findings and delete this entry"
                    ),
                ));
                continue;
            }
            let have = actual.get(path).copied().unwrap_or(0);
            if have < frozen {
                findings.push(Finding::new(
                    baseline_path,
                    bline,
                    CODE_STALE_BASELINE,
                    format!(
                        "stale baseline: {path} records {frozen} R001 finding(s) but source has \
                         {have} — re-bless with --bless-baseline to ratchet down"
                    ),
                ));
                baselined += have as usize;
            } else if have == frozen {
                baselined += frozen as usize;
            }
            // have > frozen: nothing baselined — the caller keeps every
            // R001 finding for the file in the report.
        }
        baselined
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips() {
        let mut counts = BTreeMap::new();
        counts.insert("crates/a/src/lib.rs".to_owned(), 3u32);
        counts.insert("crates/b/src/x.rs".to_owned(), 0u32);
        let text = Baseline::render(&counts);
        let b = Baseline::parse(&text).expect("canonical text parses");
        assert_eq!(b.allowance("crates/a/src/lib.rs"), 3);
        assert_eq!(b.allowance("crates/b/src/x.rs"), 0, "zero entries omitted");
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(Baseline::parse("R001 x crates/a.rs").is_err());
        assert!(Baseline::parse("D001 2 crates/a.rs").is_err());
        assert!(Baseline::parse("R001 2").is_err());
        assert!(Baseline::parse("R001 0 crates/a.rs").is_err(), "zero count");
        assert!(Baseline::parse("R001 1 a.rs\nR001 2 a.rs").is_err(), "dup");
        assert!(Baseline::parse("# comment\n\nR001 2 crates/a.rs\n").is_ok());
    }

    #[test]
    fn stale_entries_reported_with_baseline_line() {
        let b = Baseline::parse("R001 5 crates/a.rs\nR001 2 crates/gone.rs").expect("parses");
        let mut actual = BTreeMap::new();
        actual.insert("crates/a.rs".to_owned(), 3u32); // paid down 2
        let mut findings = Vec::new();
        let baselined = b.reconcile("r001.baseline", &actual, &mut findings);
        assert_eq!(findings.len(), 2);
        assert!(findings.iter().all(|f| f.code == CODE_STALE_BASELINE));
        assert_eq!(findings[0].line, 1);
        assert_eq!(findings[1].line, 2);
        assert_eq!(baselined, 3, "the 3 remaining findings stay suppressed");
    }

    #[test]
    fn within_budget_counts_as_baselined() {
        let b = Baseline::parse("R001 4 crates/a.rs").expect("parses");
        let mut actual = BTreeMap::new();
        actual.insert("crates/a.rs".to_owned(), 4u32);
        let mut findings = Vec::new();
        assert_eq!(b.reconcile("r001.baseline", &actual, &mut findings), 4);
        assert!(findings.is_empty());
    }
}
