//! Cross-run performance ledger: an append-only, schema-versioned record of
//! every `repro`/bench invocation.
//!
//! `results/metrics.json` and `results/BENCH_*.json` are overwritten in
//! place on every run, so on their own they carry no performance
//! *trajectory*. The ledger fixes that: each invocation appends exactly one
//! checksummed record to `results/ledger/ledger.jsonl`, and nothing ever
//! rewrites or truncates it, so the file is the repo's durable
//! machine-readable performance history (the substrate `ffet perf
//! compare`/`report` and a future `ffet serve` stream from).
//!
//! ## Record format
//!
//! One record per line, in the shared [`crate::record`] envelope:
//!
//! ```text
//! v1 <crc16hex> {"v":1,"kind":…,"key":…,"design":…,"cfg":…,"digest":…,
//!                "counters":{…},"gauges":{…},"timing":{…}}\n
//! ```
//!
//! The checksum is [`crate::fnv1a64`] over the JSON body. Ledger entries are
//! independent observations: a torn or corrupt line is skipped (and
//! counted) and every later valid line is kept. Loading never rewrites
//! the file.
//!
//! ## Determinism contract (DESIGN §13)
//!
//! Everything outside the `timing` key is deterministic for a given config
//! signature: two runs of the same sweep at any `FFET_JOBS` ×
//! `FFET_ROUTE_JOBS` produce entries whose [`LedgerEntry::deterministic_body`]
//! renderings are byte-identical. Pool widths, host parallelism, wall/stage
//! times and bench-leg medians all live under `timing`.

use std::collections::BTreeMap;
use std::fs;
use std::io::Write as _;
use std::path::Path;

use crate::json::{parse_json, Json};
use crate::metrics::MetricsSnapshot;
use crate::record;

/// Ledger schema version; bumped on any incompatible record change.
pub const LEDGER_VERSION: i64 = 1;

/// Default ledger file, relative to the run's working directory.
pub const LEDGER_PATH: &str = "results/ledger/ledger.jsonl";

/// The wall-clock (non-deterministic) section of a ledger entry. Everything
/// in here varies run to run and is excluded from the byte-identity
/// contract and from `ffet perf compare`'s strict checks; timings are
/// compared against a percentage noise band instead.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LedgerTiming {
    /// DoE pool width the run used.
    pub jobs: i64,
    /// Intra-point routing pool width.
    pub route_jobs: i64,
    /// Host parallelism (`available_parallelism`) — the denominator any
    /// speedup claim is only meaningful against.
    pub host_cores: i64,
    /// Total wall clock of the invocation, ms.
    pub wall_ms: f64,
    /// Aggregate per-stage wall times (name → ms), in insertion order.
    pub stages: Vec<(String, f64)>,
    /// Bench-leg medians (leg name → ms), in bench order. Empty for
    /// `repro` entries.
    pub bench: Vec<(String, f64)>,
}

/// One ledger record: the invocation's identity, its deterministic metric
/// snapshot, and its wall-clock telemetry.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LedgerEntry {
    /// Invocation family: `repro` or `bench`.
    pub kind: String,
    /// Invocation key within the family (`all`, `fig9`, `route_kernel`, …).
    pub key: String,
    /// Design the flow ran (`Rv32`, `CounterSmall`); empty for pure-kernel
    /// bench entries.
    pub design: String,
    /// Config-signature hash (`ffet_core::ckpt::config_signature`): records
    /// match for comparison only when their signatures match (DESIGN §13).
    pub cfg: String,
    /// `fnv1a64` digest of the timing-stripped metric snapshot the run
    /// produced (for `repro`: `strip_timing(metrics.json)`), so drift in
    /// any per-point value — not just the merged counters below — is
    /// detectable.
    pub digest: String,
    /// Merged counters of the run (deterministic; compared exactly).
    pub counters: BTreeMap<String, i64>,
    /// Merged gauges of the run (deterministic; compared exactly).
    pub gauges: BTreeMap<String, f64>,
    /// Wall-clock telemetry (outside the determinism contract).
    pub timing: LedgerTiming,
}

impl LedgerEntry {
    /// Builds the deterministic half of an entry from a merged metrics
    /// snapshot (histograms participate through `digest`, not inline).
    #[must_use]
    pub fn from_metrics(
        kind: &str,
        key: &str,
        design: &str,
        cfg: &str,
        digest: &str,
        metrics: &MetricsSnapshot,
    ) -> LedgerEntry {
        LedgerEntry {
            kind: kind.to_owned(),
            key: key.to_owned(),
            design: design.to_owned(),
            cfg: cfg.to_owned(),
            digest: digest.to_owned(),
            counters: metrics.counters.clone(),
            gauges: metrics.gauges.clone(),
            timing: LedgerTiming::default(),
        }
    }

    fn timing_json(&self) -> Json {
        let pairs = |v: &[(String, f64)]| {
            Json::Obj(v.iter().map(|(k, x)| (k.clone(), Json::Num(*x))).collect())
        };
        Json::Obj(vec![
            ("jobs".into(), Json::Int(self.timing.jobs)),
            ("route_jobs".into(), Json::Int(self.timing.route_jobs)),
            ("host_cores".into(), Json::Int(self.timing.host_cores)),
            ("wall_ms".into(), Json::Num(self.timing.wall_ms)),
            ("stages".into(), pairs(&self.timing.stages)),
            ("bench".into(), pairs(&self.timing.bench)),
        ])
    }

    fn fields(&self, with_timing: bool) -> Json {
        let mut fields = vec![
            ("v".to_owned(), Json::Int(LEDGER_VERSION)),
            ("kind".to_owned(), Json::Str(self.kind.clone())),
            ("key".to_owned(), Json::Str(self.key.clone())),
            ("design".to_owned(), Json::Str(self.design.clone())),
            ("cfg".to_owned(), Json::Str(self.cfg.clone())),
            ("digest".to_owned(), Json::Str(self.digest.clone())),
            (
                "counters".to_owned(),
                Json::Obj(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Int(*v)))
                        .collect(),
                ),
            ),
            (
                "gauges".to_owned(),
                Json::Obj(
                    self.gauges
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v)))
                        .collect(),
                ),
            ),
        ];
        if with_timing {
            fields.push(("timing".to_owned(), self.timing_json()));
        }
        Json::Obj(fields)
    }

    /// The full single-line JSON body of the record.
    #[must_use]
    pub fn to_json(&self) -> Json {
        self.fields(true)
    }

    /// The record body with the `timing` key removed — the part under the
    /// byte-identity contract (identical at any pool width; DESIGN §13).
    #[must_use]
    pub fn deterministic_body(&self) -> String {
        self.fields(false).render()
    }

    /// Parses a record body; any schema mismatch is an error (the caller
    /// counts it as corrupt and skips the line).
    pub fn from_json(json: &Json) -> Result<LedgerEntry, String> {
        if json.get("v").and_then(Json::as_i64) != Some(LEDGER_VERSION) {
            return Err(format!(
                "ledger entry is not schema v{LEDGER_VERSION}: {}",
                json.render()
            ));
        }
        let text = |name: &str| -> Result<String, String> {
            json.get(name)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("ledger entry missing string {name:?}"))
        };
        let mut entry = LedgerEntry {
            kind: text("kind")?,
            key: text("key")?,
            design: text("design")?,
            cfg: text("cfg")?,
            digest: text("digest")?,
            ..LedgerEntry::default()
        };
        match json.get("counters") {
            Some(Json::Obj(fields)) => {
                for (k, v) in fields {
                    let value = v
                        .as_i64()
                        .ok_or_else(|| format!("counter {k:?} is not an integer"))?;
                    entry.counters.insert(k.clone(), value);
                }
            }
            _ => return Err("ledger entry missing object \"counters\"".into()),
        }
        match json.get("gauges") {
            Some(Json::Obj(fields)) => {
                for (k, v) in fields {
                    let value = v
                        .as_f64()
                        .ok_or_else(|| format!("gauge {k:?} is not a number"))?;
                    entry.gauges.insert(k.clone(), value);
                }
            }
            _ => return Err("ledger entry missing object \"gauges\"".into()),
        }
        let timing = json
            .get("timing")
            .ok_or_else(|| "ledger entry missing object \"timing\"".to_owned())?;
        let int = |name: &str| -> Result<i64, String> {
            timing
                .get(name)
                .and_then(Json::as_i64)
                .ok_or_else(|| format!("timing missing integer {name:?}"))
        };
        entry.timing.jobs = int("jobs")?;
        entry.timing.route_jobs = int("route_jobs")?;
        entry.timing.host_cores = int("host_cores")?;
        entry.timing.wall_ms = timing
            .get("wall_ms")
            .and_then(Json::as_f64)
            .ok_or_else(|| "timing missing number \"wall_ms\"".to_owned())?;
        let pairs = |name: &str| -> Result<Vec<(String, f64)>, String> {
            match timing.get(name) {
                Some(Json::Obj(fields)) => fields
                    .iter()
                    .map(|(k, v)| {
                        v.as_f64()
                            .map(|x| (k.clone(), x))
                            .ok_or_else(|| format!("timing {name}.{k} is not a number"))
                    })
                    .collect(),
                _ => Err(format!("timing missing object {name:?}")),
            }
        };
        entry.timing.stages = pairs("stages")?;
        entry.timing.bench = pairs("bench")?;
        Ok(entry)
    }

    /// Renders the full record line, checksum envelope and trailing
    /// newline included.
    #[must_use]
    pub fn render_line(&self) -> String {
        record::seal(&self.to_json().render())
    }

    /// Parses one newline-stripped record line, validating the version tag
    /// and checksum.
    pub fn parse_line(line: &str) -> Result<LedgerEntry, String> {
        let body = record::open(line).map_err(|e| e.to_string())?;
        LedgerEntry::from_json(&parse_json(body)?)
    }
}

/// The loaded ledger: every valid entry in file order, plus counts of what
/// loading skipped.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    /// Valid entries, in append order (oldest first).
    pub entries: Vec<LedgerEntry>,
    /// Trailing chunk with no newline (a torn append), skipped.
    pub torn: usize,
    /// Complete lines that failed version/checksum/schema validation,
    /// skipped.
    pub corrupt: usize,
}

impl Ledger {
    /// Loads the ledger at `path`. A missing file loads as empty. Invalid
    /// lines are *skipped*, never repaired in place: ledger entries are
    /// independent observations, so one bad line must not discard the
    /// history after it — and an observability artifact should never
    /// rewrite itself.
    pub fn load(path: &Path) -> std::io::Result<Ledger> {
        let text = match fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
            Err(e) => return Err(e),
        };
        let mut ledger = Ledger::default();
        let mut rest = text.as_str();
        while !rest.is_empty() {
            let Some(nl) = rest.find('\n') else {
                ledger.torn += 1;
                crate::counter_add("ledger.torn", 1);
                break;
            };
            match LedgerEntry::parse_line(&rest[..nl]) {
                Ok(entry) => ledger.entries.push(entry),
                Err(_) => {
                    ledger.corrupt += 1;
                    crate::counter_add("ledger.corrupt", 1);
                }
            }
            rest = &rest[nl + 1..];
        }
        Ok(ledger)
    }

    /// Appends one record to the ledger at `path`, creating parents as
    /// needed. The append is a single `write_all` of one line, so a
    /// mid-append kill leaves at worst a torn final line, which
    /// [`Ledger::load`] skips.
    pub fn append(path: &Path, entry: &LedgerEntry) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                fs::create_dir_all(parent)?;
            }
        }
        let line = entry.render_line();
        let mut file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        file.write_all(line.as_bytes())?;
        crate::counter_add("ledger.appends", 1);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{fnv1a64, hash_hex, RecordError};
    use std::path::PathBuf;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ffet-ledger-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    fn sample_entry() -> LedgerEntry {
        let mut entry = LedgerEntry {
            kind: "repro".into(),
            key: "all".into(),
            design: "CounterSmall".into(),
            cfg: "00ff00ff00ff00ff".into(),
            digest: "0123456789abcdef".into(),
            ..LedgerEntry::default()
        };
        entry.counters.insert("route.ripups".into(), 42);
        entry.counters.insert("flow.runs".into(), 7);
        entry.gauges.insert("place.hpwl_nm".into(), 1234.5);
        entry.timing = LedgerTiming {
            jobs: 4,
            route_jobs: 2,
            host_cores: 8,
            wall_ms: 98.25,
            stages: vec![("synth_ms".into(), 1.5), ("pnr_ms".into(), 80.0)],
            bench: vec![("maze_windowed".into(), 1.47)],
        };
        entry
    }

    #[test]
    fn fnv_matches_ckpt_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hash_hex(fnv1a64(b"a")), "af63dc4c8601ec8c");
    }

    #[test]
    fn entry_round_trips_byte_exactly_and_order_preserving() {
        let entry = sample_entry();
        let line = entry.render_line();
        let parsed = LedgerEntry::parse_line(line.trim_end()).expect("parse");
        assert_eq!(parsed, entry);
        // Re-rendering the parsed entry reproduces the exact bytes: field
        // order is schema-fixed, map keys are BTreeMap-sorted, and the
        // ordered stage/bench vectors survive the round trip in order.
        assert_eq!(parsed.render_line(), line);
        assert_eq!(parsed.timing.stages, entry.timing.stages);
        // The envelope is the shared record frame: its body is the entry
        // JSON, and each way of breaking the frame has its own error.
        let body = entry.to_json().render();
        assert_eq!(record::open(line.trim_end()), Ok(body.as_str()));
        let crc = hash_hex(fnv1a64(body.as_bytes()));
        assert_eq!(
            record::open(&format!("v2 {crc} {body}")),
            Err(RecordError::Tag)
        );
        assert_eq!(
            record::open(&format!("v1 0000000000000000 {body}")),
            Err(RecordError::Checksum)
        );
        assert_eq!(
            record::open(&format!("v1 {crc}")),
            Err(RecordError::Separator)
        );
        for broken in ["v2 0 {}", "v1 0000000000000000 {}", "v1 nobody"] {
            assert!(LedgerEntry::parse_line(broken).is_err(), "{broken}");
        }
    }

    #[test]
    fn deterministic_body_excludes_only_timing() {
        let entry = sample_entry();
        let mut other = entry.clone();
        other.timing = LedgerTiming {
            jobs: 1,
            route_jobs: 1,
            host_cores: 1,
            wall_ms: 1e6,
            stages: Vec::new(),
            bench: Vec::new(),
        };
        assert_eq!(entry.deterministic_body(), other.deterministic_body());
        assert!(!entry.deterministic_body().contains("timing"));
        assert!(entry.deterministic_body().contains("route.ripups"));
        // But a deterministic field difference shows.
        other.counters.insert("route.ripups".into(), 43);
        assert_ne!(entry.deterministic_body(), other.deterministic_body());
    }

    #[test]
    fn append_load_round_trip() {
        let dir = scratch("roundtrip");
        let path = dir.join("ledger.jsonl");
        let a = sample_entry();
        let mut b = sample_entry();
        b.key = "fig9".into();
        Ledger::append(&path, &a).expect("append a");
        Ledger::append(&path, &b).expect("append b");
        let ledger = Ledger::load(&path).expect("load");
        assert_eq!(ledger.entries, vec![a, b]);
        assert_eq!(ledger.torn, 0);
        assert_eq!(ledger.corrupt, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_skips_corrupt_lines_without_discarding_suffix() {
        let dir = scratch("corrupt");
        let path = dir.join("ledger.jsonl");
        let a = sample_entry();
        let mut b = sample_entry();
        b.key = "fig11".into();
        Ledger::append(&path, &a).expect("append a");
        // A complete line with a bad checksum, then a valid entry, then a
        // torn (newline-less) tail.
        let mut text = fs::read_to_string(&path).expect("read");
        text.push_str("v1 0000000000000000 {\"v\":1}\n");
        text.push_str(&b.render_line());
        text.push_str("v1 deadbeef");
        fs::write(&path, &text).expect("tamper");
        let ledger = Ledger::load(&path).expect("load");
        assert_eq!(ledger.entries, vec![a, b]);
        assert_eq!(ledger.corrupt, 1);
        assert_eq!(ledger.torn, 1);
        // Loading never rewrites the file.
        assert_eq!(fs::read_to_string(&path).expect("reread"), text);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_skips_a_sealed_line_nested_past_the_parser_bound() {
        let dir = scratch("nested");
        let path = dir.join("ledger.jsonl");
        let a = sample_entry();
        let mut b = sample_entry();
        b.key = "fig8".into();
        // 200,000 nested `[` under a valid checksum: deep enough to overflow
        // the stack of an unbounded recursive parser.
        let mut text = a.render_line();
        text.push_str(&record::seal(&"[".repeat(200_000)));
        text.push_str(&b.render_line());
        fs::write(&path, &text).expect("write");
        let ledger = Ledger::load(&path).expect("load");
        assert_eq!(ledger.entries, vec![a, b]);
        assert_eq!(ledger.corrupt, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_ledger_loads_empty() {
        let dir = scratch("missing");
        let ledger = Ledger::load(&dir.join("nope.jsonl")).expect("load");
        assert!(ledger.entries.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn schema_mismatches_are_corrupt() {
        assert!(LedgerEntry::parse_line("v2 0 {}").is_err());
        let body = r#"{"v":2,"kind":"x","key":"y","design":"","cfg":"","digest":"","counters":{},"gauges":{},"timing":{"jobs":1,"route_jobs":1,"host_cores":1,"wall_ms":0.0,"stages":{},"bench":{}}}"#;
        let line = format!("v1 {} {body}", hash_hex(fnv1a64(body.as_bytes())));
        assert!(LedgerEntry::parse_line(&line).is_err());
    }
}
