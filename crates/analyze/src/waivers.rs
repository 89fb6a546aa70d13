//! Inline waiver tags.
//!
//! A finding is waived by a line comment of the form
//!
//! ```text
//! // ffet-analyze: allow(D002) -- union-find result is order-independent
//! // ffet-analyze: allow(D001, D002) -- justification covering both codes
//! ```
//!
//! A trailing waiver covers findings on its own line; a waiver on a line of
//! its own covers the next line that holds any code. The justification after
//! `--` is **mandatory**: a tag without one is itself reported (`W001`) and
//! waives nothing, and a tag that matched no finding is reported as unused
//! (`W002`) so stale waivers cannot accumulate.

use crate::lexer::{Comment, Tok};
use crate::report::{Finding, CODE_BYTE_READER_WAIVER, CODE_MALFORMED_WAIVER, CODE_UNUSED_WAIVER};
use crate::rules::reads_bytes;

/// The comment marker that introduces a waiver tag.
pub const MARKER: &str = "ffet-analyze:";

/// A parsed, line-resolved waiver.
#[derive(Debug, Clone)]
pub struct Waiver {
    /// Line of the waiver comment itself.
    pub line: u32,
    /// Source line whose findings this waiver covers.
    pub covers_line: u32,
    /// Rule codes the waiver allows.
    pub codes: Vec<String>,
    /// Whether any finding was actually waived (for `W002`).
    pub used: bool,
}

/// Extracts waivers from a file's comments, resolving which source line each
/// covers. Malformed tags (bad syntax, missing `-- justification`) are
/// returned as findings instead of waivers.
pub fn collect(path: &str, comments: &[Comment], toks: &[Tok]) -> (Vec<Waiver>, Vec<Finding>) {
    let mut waivers = Vec::new();
    let mut findings = Vec::new();
    for c in comments {
        let Some(pos) = c.text.find(MARKER) else {
            continue;
        };
        let body = c.text[pos + MARKER.len()..].trim();
        match parse_tag(body) {
            Ok(codes) => {
                // Trailing tag (code earlier on the same line) covers its own
                // line; a standalone tag covers the next line holding code.
                let has_code_on_line = toks.iter().any(|t| t.line == c.line);
                let covers_line = if has_code_on_line {
                    c.line
                } else {
                    toks.iter()
                        .map(|t| t.line)
                        .find(|&l| l > c.line)
                        .unwrap_or(c.line)
                };
                waivers.push(Waiver {
                    line: c.line,
                    covers_line,
                    codes,
                    used: false,
                });
            }
            Err(why) => findings.push(Finding::new(
                path,
                c.line,
                CODE_MALFORMED_WAIVER,
                format!("malformed waiver tag ({why}); findings on this line are NOT waived"),
            )),
        }
    }
    if reads_bytes(path) {
        // R001 is a hard zero where on-disk bytes are decoded: the tag is
        // reported and waives nothing.
        for w in &mut waivers {
            if let Some(i) = w.codes.iter().position(|c| c == "R001") {
                w.codes.remove(i);
                findings.push(Finding::new(
                    path,
                    w.line,
                    CODE_BYTE_READER_WAIVER,
                    "`allow(R001)` in a file that reads on-disk bytes: return an error instead"
                        .to_owned(),
                ));
            }
        }
        waivers.retain(|w| !w.codes.is_empty());
    }
    (waivers, findings)
}

/// Parses the tag body after the marker: `allow(CODE[, CODE…]) -- why`.
fn parse_tag(body: &str) -> Result<Vec<String>, String> {
    let rest = body
        .strip_prefix("allow(")
        .ok_or_else(|| "expected `allow(CODE, …)`".to_owned())?;
    let close = rest
        .find(')')
        .ok_or_else(|| "unclosed `allow(`".to_owned())?;
    let codes: Vec<String> = rest[..close]
        .split(',')
        .map(|c| c.trim().to_owned())
        .filter(|c| !c.is_empty())
        .collect();
    if codes.is_empty() {
        return Err("empty code list".to_owned());
    }
    for code in &codes {
        if !code
            .chars()
            .all(|ch| ch.is_ascii_alphanumeric() || ch == '_')
        {
            return Err(format!("invalid rule code `{code}`"));
        }
    }
    let after = rest[close + 1..].trim();
    let justification = after
        .strip_prefix("--")
        .map(str::trim)
        .ok_or_else(|| "missing `-- <justification>`".to_owned())?;
    if justification.is_empty() {
        return Err("empty justification after `--`".to_owned());
    }
    Ok(codes)
}

/// Applies waivers to `findings`: removes covered findings (marking their
/// waivers used), then reports any waiver that covered nothing as `W002`.
/// Returns the number of findings waived.
pub fn apply(path: &str, waivers: &mut [Waiver], findings: &mut Vec<Finding>) -> usize {
    let before = findings.len();
    findings.retain(|f| {
        // W-codes are never waivable — the waiver machinery must not be
        // able to silence its own integrity checks.
        if f.code.starts_with('W') {
            return true;
        }
        let covered = waivers
            .iter_mut()
            .find(|w| w.covers_line == f.line && w.codes.iter().any(|c| c == &f.code));
        match covered {
            Some(w) => {
                w.used = true;
                false
            }
            None => true,
        }
    });
    let waived = before - findings.len();
    for w in waivers.iter().filter(|w| !w.used) {
        findings.push(Finding::new(
            path,
            w.line,
            CODE_UNUSED_WAIVER,
            format!(
                "unused waiver for {}: no matching finding on line {}",
                w.codes.join(", "),
                w.covers_line
            ),
        ));
    }
    waived
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn scan(src: &str) -> (Vec<Waiver>, Vec<Finding>) {
        let lexed = lex(src);
        collect("t.rs", &lexed.comments, &lexed.toks)
    }

    #[test]
    fn trailing_tag_covers_its_own_line() {
        let (w, f) = scan("let x = 1; // ffet-analyze: allow(D001) -- reason\n");
        assert!(f.is_empty());
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].covers_line, 1);
        assert_eq!(w[0].codes, vec!["D001"]);
    }

    #[test]
    fn standalone_tag_covers_next_code_line() {
        let (w, f) = scan("// ffet-analyze: allow(D002) -- reason\n\n// other\nlet x = 1;\n");
        assert!(f.is_empty());
        assert_eq!(w[0].covers_line, 4);
    }

    #[test]
    fn missing_justification_is_a_finding_not_a_waiver() {
        let (w, f) = scan("// ffet-analyze: allow(D001)\nlet x = 1;\n");
        assert!(w.is_empty());
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].code, CODE_MALFORMED_WAIVER);
    }

    #[test]
    fn empty_justification_is_malformed() {
        let (w, f) = scan("// ffet-analyze: allow(D001) --   \nlet x = 1;\n");
        assert!(w.is_empty());
        assert_eq!(f[0].code, CODE_MALFORMED_WAIVER);
    }

    #[test]
    fn multi_code_tags_parse() {
        let (w, _) = scan("// ffet-analyze: allow(D001, D002) -- both\nlet x = 1;\n");
        assert_eq!(w[0].codes, vec!["D001", "D002"]);
    }

    #[test]
    fn unused_waiver_reported() {
        let (mut w, mut f) = scan("let x = 1; // ffet-analyze: allow(D001) -- reason\n");
        let waived = apply("t.rs", &mut w, &mut f);
        assert_eq!(waived, 0);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].code, CODE_UNUSED_WAIVER);
    }

    #[test]
    fn waiver_consumes_matching_finding() {
        let (mut w, mut f) = scan("let x = 1; // ffet-analyze: allow(D001) -- reason\n");
        f.push(Finding::new(
            "t.rs",
            1,
            "D001",
            "default-hasher map".to_owned(),
        ));
        let waived = apply("t.rs", &mut w, &mut f);
        assert_eq!(waived, 1);
        assert!(f.is_empty());
    }
}
