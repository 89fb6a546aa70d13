//! Findings and the deterministic report renderers.
//!
//! Everything here is sorted and byte-stable: the same workspace state
//! produces the same text and JSON reports on every run, on every machine —
//! the analyzer gates a byte-identity contract, so its own output honors one.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Malformed waiver tag (bad syntax or missing justification).
pub const CODE_MALFORMED_WAIVER: &str = "W001";
/// Waiver tag that matched no finding.
pub const CODE_UNUSED_WAIVER: &str = "W002";
/// Stale R001 baseline entry (debt paid down or file gone — re-bless).
pub const CODE_STALE_BASELINE: &str = "B001";
/// R001 baseline entry naming a file that reads on-disk bytes.
pub const CODE_BYTE_READER_BASELINE: &str = "B002";
/// `allow(R001)` waiver in a file that reads on-disk bytes.
pub const CODE_BYTE_READER_WAIVER: &str = "W003";

/// One analyzer finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path, `/`-separated on every platform.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule code (`D001`…`M001`, `W00x`, `B00x`).
    pub code: String,
    /// Human-readable message.
    pub message: String,
}

impl Finding {
    /// Convenience constructor.
    pub fn new(file: &str, line: u32, code: &str, message: String) -> Finding {
        Finding {
            file: file.to_owned(),
            line,
            code: code.to_owned(),
            message,
        }
    }

    /// Sort key: file, then line, then code, then message.
    fn key(&self) -> (&str, u32, &str, &str) {
        (&self.file, self.line, &self.code, &self.message)
    }
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: {} {}",
            self.file, self.line, self.code, self.message
        )
    }
}

/// The complete result of one analyzer run.
#[derive(Debug, Default)]
pub struct Analysis {
    /// Non-waived, non-baselined findings (sorted; non-empty ⇒ gate fails).
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Findings suppressed by a justified waiver.
    pub waived: usize,
    /// R001 findings frozen by the checked-in baseline.
    pub baselined: usize,
}

impl Analysis {
    /// Sorts findings into the canonical report order.
    pub fn sort(&mut self) {
        self.findings.sort_by(|a, b| a.key().cmp(&b.key()));
    }

    /// True when the gate passes.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Renders the rustc-style text report (trailing newline included).
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let _ = writeln!(out, "{f}");
        }
        if self.is_clean() {
            let _ = writeln!(
                out,
                "ffet-analyze: clean ({} files scanned, {} waived, {} baselined)",
                self.files_scanned, self.waived, self.baselined
            );
        } else {
            let mut by_code: BTreeMap<&str, usize> = BTreeMap::new();
            for f in &self.findings {
                *by_code.entry(&f.code).or_default() += 1;
            }
            let summary: Vec<String> = by_code
                .iter()
                .map(|(code, n)| format!("{code}×{n}"))
                .collect();
            let _ = writeln!(
                out,
                "ffet-analyze: {} finding(s) [{}] across {} files ({} waived, {} baselined)",
                self.findings.len(),
                summary.join(", "),
                self.files_scanned,
                self.waived,
                self.baselined
            );
        }
        out
    }

    /// Renders the JSON report (schema v1, keys and findings in fixed order).
    #[must_use]
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\"v\":1,\"clean\":");
        out.push_str(if self.is_clean() { "true" } else { "false" });
        let _ = write!(
            out,
            ",\"files_scanned\":{},\"waived\":{},\"baselined\":{},\"findings\":[",
            self.files_scanned, self.waived, self.baselined
        );
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"file\":{},\"line\":{},\"code\":{},\"message\":{}}}",
                json_str(&f.file),
                f.line,
                json_str(&f.code),
                json_str(&f.message)
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// Minimal JSON string escaping (the only JSON writer this crate needs).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_is_sorted_and_stable() {
        let mut a = Analysis {
            findings: vec![
                Finding::new("b.rs", 2, "D001", "x".into()),
                Finding::new("a.rs", 9, "R001", "y".into()),
                Finding::new("a.rs", 9, "D002", "z".into()),
            ],
            files_scanned: 3,
            waived: 1,
            baselined: 0,
        };
        a.sort();
        let text = a.render_text();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "a.rs:9: D002 z");
        assert_eq!(lines[1], "a.rs:9: R001 y");
        assert_eq!(lines[2], "b.rs:2: D001 x");
        assert!(lines[3].contains("3 finding(s) [D001×1, D002×1, R001×1]"));
        // Rendering twice is byte-identical.
        assert_eq!(a.render_text(), text);
        assert_eq!(a.render_json(), a.render_json());
    }

    #[test]
    fn json_escapes_specials() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }
}
