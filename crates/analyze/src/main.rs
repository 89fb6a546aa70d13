//! The `ffet-analyze` CLI — the CI gate.
//!
//! ```text
//! ffet-analyze [--check] [--root <dir>] [--baseline <path>]
//!              [--json <path|->] [--bless-baseline]
//! ```
//!
//! Exit codes: 0 clean, 1 findings, 2 usage/IO error.
#![allow(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "the analyzer CLI reports to the terminal by design"
)]

use ffet_analyze::baseline::Baseline;
use ffet_analyze::{analyze_workspace, Workspace, BASELINE_PATH};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    root: PathBuf,
    baseline: Option<PathBuf>,
    json: Option<String>,
    bless: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: PathBuf::from("."),
        baseline: None,
        json: None,
        bless: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--check" => {} // the default (and only) mode; accepted for clarity
            "--root" => args.root = PathBuf::from(it.next().ok_or("--root needs a value")?),
            "--baseline" => {
                args.baseline = Some(PathBuf::from(it.next().ok_or("--baseline needs a value")?));
            }
            "--json" => args.json = Some(it.next().ok_or("--json needs a value")?),
            "--bless-baseline" => args.bless = true,
            "--help" | "-h" => {
                return Err(
                    "usage: ffet-analyze [--check] [--root <dir>] [--baseline <path>] \
                     [--json <path|->] [--bless-baseline]"
                        .to_owned(),
                )
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    Ok(args)
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let baseline_path = args
        .baseline
        .clone()
        .unwrap_or_else(|| args.root.join(BASELINE_PATH));

    if args.bless {
        // Bless against an empty baseline: every current R001 count is the
        // new frozen debt, unless a file that reads on-disk bytes has any.
        let ws: Workspace = analyze_workspace(&args.root, &Baseline::default())?;
        let text = match ws.bless() {
            Ok(text) => text,
            Err(blocked) => {
                for f in blocked {
                    println!("{f}");
                }
                eprintln!("ffet-analyze: nothing blessed: R001 in a byte reader must be fixed");
                return Ok(false);
            }
        };
        std::fs::write(&baseline_path, &text)
            .map_err(|e| format!("write {}: {e}", baseline_path.display()))?;
        println!(
            "ffet-analyze: blessed {} file(s) of R001 debt into {}",
            ws.r001_counts.len(),
            baseline_path.display()
        );
        return Ok(true);
    }

    let baseline = match std::fs::read_to_string(&baseline_path) {
        Ok(text) => {
            Baseline::parse(&text).map_err(|e| format!("{}: {e}", baseline_path.display()))?
        }
        // No baseline yet: run with zero allowance everywhere.
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Baseline::default(),
        Err(e) => return Err(format!("read {}: {e}", baseline_path.display())),
    };

    let ws = analyze_workspace(&args.root, &baseline)?;
    print!("{}", ws.analysis.render_text());
    if let Some(json) = &args.json {
        let body = ws.analysis.render_json();
        if json == "-" {
            print!("{body}");
        } else {
            std::fs::write(json, body).map_err(|e| format!("write {json}: {e}"))?;
        }
    }
    Ok(ws.analysis.is_clean())
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("ffet-analyze: {msg}");
            ExitCode::from(2)
        }
    }
}
