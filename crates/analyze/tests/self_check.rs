//! The analyzer analyzing its own workspace: the tree must be clean, the
//! report must be byte-stable, and an injected violation must fail the gate.

use ffet_analyze::baseline::Baseline;
use ffet_analyze::{analyze_workspace, BASELINE_PATH};
use std::path::{Path, PathBuf};

/// The real workspace root (two levels above this crate).
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/analyze sits two levels below the root")
        .to_path_buf()
}

fn load_baseline(root: &Path) -> Baseline {
    let text = std::fs::read_to_string(root.join(BASELINE_PATH)).expect("baseline is checked in");
    Baseline::parse(&text).expect("checked-in baseline parses")
}

#[test]
fn workspace_is_clean_under_its_own_gate() {
    let root = workspace_root();
    let ws = analyze_workspace(&root, &load_baseline(&root)).expect("workspace analyzes");
    assert!(
        ws.analysis.is_clean(),
        "the workspace must pass its own gate:\n{}",
        ws.analysis.render_text()
    );
    assert!(ws.analysis.files_scanned > 50, "the walk found the tree");
}

#[test]
fn report_is_byte_identical_across_runs() {
    let root = workspace_root();
    let baseline = load_baseline(&root);
    let a = analyze_workspace(&root, &baseline).expect("first run");
    let b = analyze_workspace(&root, &baseline).expect("second run");
    assert_eq!(a.analysis.render_text(), b.analysis.render_text());
    assert_eq!(a.analysis.render_json(), b.analysis.render_json());
    assert_eq!(a.r001_counts, b.r001_counts);
}

#[test]
fn blessed_baseline_matches_reality() {
    // The checked-in baseline must be exactly what --bless-baseline would
    // write today — neither understating debt (gate failure) nor
    // overstating it (stale entries).
    let root = workspace_root();
    let ws = analyze_workspace(&root, &Baseline::default()).expect("workspace analyzes");
    let checked_in =
        std::fs::read_to_string(root.join(BASELINE_PATH)).expect("baseline is checked in");
    assert_eq!(
        Baseline::render(&ws.r001_counts),
        checked_in,
        "r001.baseline is stale — re-bless with: cargo run -p ffet-analyze -- --bless-baseline"
    );
}

#[test]
fn injected_violations_fail_the_gate() {
    // A synthetic workspace with one hazard of each kind; the gate must
    // report every one and exit dirty.
    let dir = std::env::temp_dir().join(format!("ffet-analyze-selfcheck-{}", std::process::id()));
    let src = dir.join("crates/demo/src");
    std::fs::create_dir_all(&src).expect("temp tree");
    std::fs::write(
        dir.join("DESIGN.md"),
        "# doc\n\n```metrics\ndemo.known\n```\n",
    )
    .expect("write DESIGN.md");
    std::fs::write(
        src.join("lib.rs"),
        r#"
use std::collections::HashMap;
fn f() {
    let m: HashMap<u32, u32> = HashMap::new();
    let v = m.get(&1).unwrap();
    let t = std::time::Instant::now();
    std::thread::spawn(|| {});
    ffet_obs::counter_add("demo.unknown", 1);
    ffet_obs::counter_add("demo.known", 1);
}
"#,
    )
    .expect("write lib.rs");

    let ws = analyze_workspace(&dir, &Baseline::default()).expect("synthetic tree analyzes");
    let codes: Vec<&str> = ws
        .analysis
        .findings
        .iter()
        .map(|f| f.code.as_str())
        .collect();
    for expected in ["D001", "R001", "D003", "D004", "M001"] {
        assert!(
            codes.contains(&expected),
            "expected {expected} among {codes:?}"
        );
    }
    assert!(!ws.analysis.is_clean());
    std::fs::remove_dir_all(&dir).ok();
}

/// A synthetic workspace holding `files` (workspace-relative path, text)
/// and an empty metric catalog, under a temp directory named by `tag`.
fn synthetic_tree(tag: &str, files: &[(&str, &str)]) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ffet-analyze-{tag}-{}", std::process::id()));
    for (rel, text) in files {
        let path = dir.join(rel);
        std::fs::create_dir_all(path.parent().expect("file has a parent")).expect("temp tree");
        std::fs::write(path, text).expect("write fixture");
    }
    std::fs::write(dir.join("DESIGN.md"), "# doc\n\n```metrics\n```\n").expect("write DESIGN.md");
    dir
}

const PANICS: &str = "fn f(x: Option<u8>) -> u8 {\n    x.unwrap()\n}\n";

#[test]
fn r001_in_a_byte_reader_fails_the_gate_even_when_blessed() {
    let dir = synthetic_tree(
        "byte-reader-r001",
        &[
            ("crates/obs/src/json.rs", PANICS),
            ("crates/core/src/stagecache.rs", PANICS),
            ("crates/core/src/flow.rs", PANICS),
        ],
    );
    let ws = analyze_workspace(&dir, &Baseline::default()).expect("synthetic tree analyzes");
    let blocked: Vec<String> = match ws.bless() {
        Ok(text) => panic!("blessed a byte reader's R001:\n{text}"),
        Err(blocked) => blocked.iter().map(|f| f.file.clone()).collect(),
    };
    assert_eq!(
        blocked,
        ["crates/core/src/stagecache.rs", "crates/obs/src/json.rs"],
        "only the byte readers block the bless"
    );
    assert_eq!(
        ws.r001_counts.keys().collect::<Vec<_>>(),
        ["crates/core/src/flow.rs"],
        "only other files are baseline debt"
    );

    // A baseline that allows one finding per file still fails the gate on
    // the byte readers, and only on them.
    let baseline = Baseline::parse(&Baseline::render(&ws.r001_counts)).expect("parses");
    let ws = analyze_workspace(&dir, &baseline).expect("synthetic tree analyzes");
    let failing: Vec<&str> = ws
        .analysis
        .findings
        .iter()
        .map(|f| f.file.as_str())
        .collect();
    assert_eq!(failing, blocked);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn baseline_entry_for_a_byte_reader_is_a_finding() {
    let dir = synthetic_tree(
        "byte-reader-baseline",
        &[("crates/obs/src/ledger.rs", PANICS)],
    );
    let baseline = Baseline::parse("R001 1 crates/obs/src/ledger.rs\n").expect("parses");
    let ws = analyze_workspace(&dir, &baseline).expect("synthetic tree analyzes");
    let codes: Vec<(&str, &str)> = (ws.analysis.findings.iter())
        .map(|f| (f.file.as_str(), f.code.as_str()))
        .collect();
    assert_eq!(
        codes,
        [
            (BASELINE_PATH, "B002"),
            ("crates/obs/src/ledger.rs", "R001")
        ],
        "the entry is reported and allows nothing"
    );
    assert_eq!(ws.analysis.baselined, 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn r001_waiver_in_a_byte_reader_is_a_finding() {
    let waived = "fn f(x: Option<u8>) -> u8 {\n    \
                  x.unwrap() // ffet-analyze: allow(R001) -- the caller checked\n}\n";
    let dir = synthetic_tree(
        "byte-reader-waiver",
        &[
            ("crates/core/src/stagecache.rs", waived),
            ("crates/core/src/flow.rs", waived),
        ],
    );
    let ws = analyze_workspace(&dir, &Baseline::default()).expect("synthetic tree analyzes");
    let codes: Vec<(&str, u32, &str)> = (ws.analysis.findings.iter())
        .map(|f| (f.file.as_str(), f.line, f.code.as_str()))
        .collect();
    assert_eq!(
        codes,
        [
            ("crates/core/src/stagecache.rs", 2, "R001"),
            ("crates/core/src/stagecache.rs", 2, "W003"),
        ],
        "the tag is reported and waives nothing; elsewhere it still waives"
    );
    assert_eq!(ws.analysis.waived, 1);
    std::fs::remove_dir_all(&dir).ok();
}
