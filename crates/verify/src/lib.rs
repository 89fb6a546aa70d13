//! Static physical signoff for completed FFET/CFET implementations.
//!
//! The flow of the paper ends with signoff: after routing and DEF merge,
//! the result is checked *statically* — no stage is re-run — against three
//! families of rules:
//!
//! * **netlist lint** ([`lint_netlist`]): undriven and multiply-driven
//!   nets, floating inputs, dangling outputs, fanout limits, and
//!   combinational loops (reported with the full cycle path),
//! * **route & placement DRC** ([`check_routing`], [`check_placement`]):
//!   per-layer direction rules, off-track geometry, GCell capacity
//!   overflow (shorts), open nets per wafer side, layer-range validity
//!   against the active [`RoutingPattern`], die containment, and
//!   placement legality (off-site, off-row, overlaps, Power Tap
//!   blockages, core-boundary containment),
//! * **LVS-lite** ([`compare_def_netlist`]): the merged dual-sided DEF
//!   must contain every netlist component and connection exactly once,
//!   and nothing else (Power Tap cells excepted).
//!
//! Every check emits a uniform [`Violation`]; [`run_signoff`] aggregates
//! them into a [`SignoffReport`]. [`Severity::Error`] marks structural
//! breakage and fails the flow; [`Severity::Warning`] marks
//! congestion/legality overflow — the class of violations the paper's
//! "valid iff total DRV < 10" rule counts.

mod drc;
mod lint;
mod lvs;

pub use drc::{check_placement, check_routing};
pub use lint::{lint_netlist, MAX_FANOUT};
pub use lvs::compare_def_netlist;

use ffet_cells::Library;
use ffet_geom::Point;
use ffet_lefdef::Def;
use ffet_netlist::Netlist;
use ffet_pnr::PnrResult;
use ffet_tech::RoutingPattern;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// How bad a violation is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Severity {
    /// Counts toward the design-rule-violation total (the paper's
    /// validity proxy) but does not structurally invalidate the result.
    Warning,
    /// Structural breakage — opens, shorts against the source netlist,
    /// illegal layers. Fails signoff.
    Error,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Severity::Warning => f.write_str("warning"),
            Severity::Error => f.write_str("error"),
        }
    }
}

/// One signoff finding, uniform across all check families.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Stable rule identifier, e.g. `drc.open` or `lint.undriven`.
    pub rule: &'static str,
    /// Whether this fails signoff or only counts toward the DRV proxy.
    pub severity: Severity,
    /// What the violation is on: a net, instance, component or GCell.
    pub subject: String,
    /// Die location, when the rule is geometric.
    pub location: Option<Point>,
    /// Human-readable detail.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {} {}", self.severity, self.rule, self.subject)?;
        if let Some(p) = self.location {
            write!(f, " @({},{})", p.x, p.y)?;
        }
        write!(f, ": {}", self.message)
    }
}

/// Aggregated signoff result: every violation plus per-rule summaries.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SignoffReport {
    /// All violations, errors first, then by rule name.
    pub violations: Vec<Violation>,
}

impl SignoffReport {
    /// Builds a report, sorting errors first and then by rule/subject so
    /// output is deterministic.
    #[must_use]
    pub fn from_violations(mut violations: Vec<Violation>) -> SignoffReport {
        violations.sort_by(|a, b| {
            b.severity
                .cmp(&a.severity)
                .then_with(|| a.rule.cmp(b.rule))
                .then_with(|| a.subject.cmp(&b.subject))
        });
        SignoffReport { violations }
    }

    /// Number of [`Severity::Error`] violations.
    #[must_use]
    pub fn error_count(&self) -> usize {
        self.violations
            .iter()
            .filter(|v| v.severity == Severity::Error)
            .count()
    }

    /// Number of [`Severity::Warning`] violations.
    #[must_use]
    pub fn warning_count(&self) -> usize {
        self.violations.len() - self.error_count()
    }

    /// Whether signoff passes (no errors; warnings allowed).
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.error_count() == 0
    }

    /// `PASS`/`FAIL` verdict string for experiment tables.
    #[must_use]
    pub fn verdict(&self) -> &'static str {
        if self.is_clean() {
            "PASS"
        } else {
            "FAIL"
        }
    }

    /// The warning total as the signoff contribution to the paper's DRV
    /// validity proxy (`drv < 10` ⇒ valid run).
    #[must_use]
    pub fn drv_warnings(&self) -> u32 {
        u32::try_from(self.warning_count()).unwrap_or(u32::MAX)
    }

    /// Violation count per `(rule, severity)`, alphabetical by rule.
    #[must_use]
    pub fn rule_counts(&self) -> Vec<(&'static str, Severity, usize)> {
        let mut counts: BTreeMap<(&'static str, Severity), usize> = BTreeMap::new();
        for v in &self.violations {
            *counts.entry((v.rule, v.severity)).or_insert(0) += 1;
        }
        counts
            .into_iter()
            .map(|((rule, sev), n)| (rule, sev, n))
            .collect()
    }

    /// Violations for one rule.
    #[must_use]
    pub fn by_rule(&self, rule: &str) -> Vec<&Violation> {
        self.violations.iter().filter(|v| v.rule == rule).collect()
    }

    /// Fixed-width per-rule summary table, ending in the verdict line.
    #[must_use]
    pub fn text_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{:<24} {:<8} {:>6}", "rule", "severity", "count");
        for (rule, sev, n) in self.rule_counts() {
            let _ = writeln!(out, "{rule:<24} {sev:<8} {n:>6}");
        }
        let _ = writeln!(
            out,
            "signoff: {} — {} errors, {} warnings",
            self.verdict(),
            self.error_count(),
            self.warning_count()
        );
        out
    }

    /// Full violation list as CSV (`rule,severity,subject,x,y,message`).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::from("rule,severity,subject,x,y,message\n");
        for v in &self.violations {
            let (x, y) = v.location.map_or((String::new(), String::new()), |p| {
                (p.x.to_string(), p.y.to_string())
            });
            let _ = writeln!(
                out,
                "{},{},{},{},{},{}",
                v.rule,
                v.severity,
                csv_escape(&v.subject),
                x,
                y,
                csv_escape(&v.message)
            );
        }
        out
    }
}

/// Every error-severity rule the signoff can emit, one per failure mode.
///
/// This is the coverage contract of the fault-injection matrix in
/// `ffet-core`: each rule here must be provably triggerable by at least one
/// injected fault. Warning-severity rules (congestion, legality overflow,
/// fanout…) feed the DRV validity proxy instead and are not listed.
pub const ERROR_RULES: &[&str] = &[
    "drc.decompose",
    "drc.extra-routing",
    "drc.layer-range",
    "drc.non-manhattan",
    "drc.off-die",
    "drc.open",
    "drc.wrong-direction",
    "lint.comb-loop",
    "lint.floating-input",
    "lint.multi-driven",
    "lint.undriven",
    "lvs.duplicate-component",
    "lvs.duplicate-net",
    "lvs.extra-component",
    "lvs.extra-connection",
    "lvs.extra-net",
    "lvs.macro-mismatch",
    "lvs.missing-component",
    "lvs.missing-connection",
    "lvs.missing-net",
    "place.count",
];

/// Every rule id the signoff can emit, sorted: the closed set
/// [`Violation::rule`] draws from. Readers of stored reports (the stage
/// cache) map an id back to its `&'static str` here, so an unknown id is
/// a parse failure rather than a new string. A test holds this list
/// equal to the rule literals of the check modules.
pub const RULES: &[&str] = &[
    "drc.decompose",
    "drc.extra-routing",
    "drc.gcell-capacity",
    "drc.layer-range",
    "drc.non-manhattan",
    "drc.off-die",
    "drc.off-track",
    "drc.open",
    "drc.wrong-direction",
    "lint.comb-loop",
    "lint.dangling-output",
    "lint.fanout",
    "lint.floating-input",
    "lint.multi-driven",
    "lint.unconnected-output",
    "lint.undriven",
    "lvs.duplicate-component",
    "lvs.duplicate-net",
    "lvs.extra-component",
    "lvs.extra-connection",
    "lvs.extra-net",
    "lvs.macro-mismatch",
    "lvs.missing-component",
    "lvs.missing-connection",
    "lvs.missing-net",
    "place.boundary",
    "place.count",
    "place.off-row",
    "place.off-site",
    "place.overlap",
    "place.tap-overlap",
];

fn csv_escape(field: &str) -> String {
    if field.contains([',', '"', '\n']) {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_owned()
    }
}

/// Runs the full static signoff over a completed implementation.
///
/// `netlist` must be the final (post-synthesis, post-CTS) netlist the
/// P&R result was produced from, and `merged` the merged dual-sided DEF.
/// Nothing is re-run: every check works from the artifacts alone.
#[must_use]
pub fn run_signoff(
    netlist: &Netlist,
    library: &Library,
    pattern: RoutingPattern,
    pnr: &PnrResult,
    merged: &Def,
) -> SignoffReport {
    let mut violations = lint_netlist(netlist, library);
    violations.extend(check_routing(netlist, library, pattern, pnr));
    violations.extend(check_placement(netlist, library, pnr));
    violations.extend(compare_def_netlist(netlist, library, pnr, merged));
    let report = SignoffReport::from_violations(violations);
    for (rule, _, count) in report.rule_counts() {
        ffet_obs::counter_add(&format!("signoff.{rule}"), count as i64);
    }
    ffet_obs::gauge_set("signoff.errors", report.error_count() as f64);
    ffet_obs::gauge_set("signoff.warnings", report.warning_count() as f64);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn violation(rule: &'static str, severity: Severity) -> Violation {
        Violation {
            rule,
            severity,
            subject: "x".to_owned(),
            location: None,
            message: "m".to_owned(),
        }
    }

    #[test]
    fn report_sorts_errors_first_and_counts() {
        let r = SignoffReport::from_violations(vec![
            violation("drc.gcell-capacity", Severity::Warning),
            violation("drc.open", Severity::Error),
            violation("drc.gcell-capacity", Severity::Warning),
        ]);
        assert_eq!(r.violations[0].rule, "drc.open");
        assert_eq!(r.error_count(), 1);
        assert_eq!(r.warning_count(), 2);
        assert_eq!(r.drv_warnings(), 2);
        assert!(!r.is_clean());
        assert_eq!(r.verdict(), "FAIL");
        assert_eq!(
            r.rule_counts(),
            vec![
                ("drc.gcell-capacity", Severity::Warning, 2),
                ("drc.open", Severity::Error, 1),
            ]
        );
    }

    #[test]
    fn error_rules_are_sorted_and_unique() {
        let mut sorted = ERROR_RULES.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted, ERROR_RULES, "ERROR_RULES must be sorted and unique");
    }

    #[test]
    fn rules_are_sorted_unique_and_cover_the_error_rules() {
        let mut sorted = RULES.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted, RULES, "RULES must be sorted and unique");
        for rule in ERROR_RULES {
            assert!(RULES.contains(rule), "{rule} is in ERROR_RULES only");
        }
    }

    /// The `"<family>.<name>"` string literals of `source`, for the four
    /// rule families, with `<name>` of lowercase letters, digits and `-`.
    fn rule_literals(source: &str) -> BTreeSet<&str> {
        let name_char = |c: char| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-';
        let mut out = BTreeSet::new();
        for family in ["drc.", "lint.", "lvs.", "place."] {
            for (at, _) in source.match_indices(&format!("\"{family}")) {
                let id = &source[at + 1..];
                let len = family.len() + id[family.len()..].find(|c| !name_char(c)).unwrap_or(0);
                if len > family.len() && id[len..].starts_with('"') {
                    out.insert(&id[..len]);
                }
            }
        }
        out
    }

    #[test]
    fn rules_are_exactly_the_rule_literals_of_the_sources() {
        let checks = [
            include_str!("drc.rs"),
            include_str!("lint.rs"),
            include_str!("lvs.rs"),
        ];
        let emitted: BTreeSet<&str> = checks.iter().flat_map(|s| rule_literals(s)).collect();
        let rules: BTreeSet<&str> = RULES.iter().copied().collect();
        assert_eq!(
            emitted, rules,
            "RULES differs from the check modules' rule ids"
        );
    }

    #[test]
    fn empty_report_passes() {
        let r = SignoffReport::default();
        assert!(r.is_clean());
        assert_eq!(r.verdict(), "PASS");
        assert!(r.text_table().contains("PASS"));
    }

    #[test]
    fn csv_escapes_commas_and_quotes() {
        let mut v = violation("lint.undriven", Severity::Error);
        v.message = "a, \"b\"".to_owned();
        let r = SignoffReport::from_violations(vec![v]);
        assert!(r.to_csv().contains("\"a, \"\"b\"\"\""));
    }

    #[test]
    fn violation_display_includes_location() {
        let mut v = violation("drc.off-die", Severity::Error);
        v.location = Some(Point::new(3, 4));
        assert_eq!(v.to_string(), "[error] drc.off-die x @(3,4): m");
    }
}
