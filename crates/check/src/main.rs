//! CLI for the static-analysis gate:
//! `cargo run -p sc-check [--json] [ROOT]` (or
//! `cargo check-repo` via the workspace alias).
//!
//! Default output is one `file:line: [rule] message` diagnostic per
//! violation, a summary on stderr, and a `sc-check: ok (N manifests,
//! M source files)` line on stdout for a clean run. `--json` instead
//! prints a single sc-json object (`{ok, manifests, sources,
//! violations}`) to stdout for CI annotation. Unknown `--flags` are
//! rejected (exit 2) rather than being misread as ROOT.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut json = false;
    let mut root: Option<PathBuf> = None;
    for arg in std::env::args_os().skip(1) {
        if arg == "--json" {
            json = true;
        } else if arg.to_string_lossy().starts_with('-') {
            eprintln!(
                "sc-check: unknown flag {:?}\nusage: sc-check [--json] [ROOT]",
                arg.to_string_lossy()
            );
            return ExitCode::from(2);
        } else if root.is_none() {
            root = Some(PathBuf::from(arg));
        } else {
            eprintln!("sc-check: usage: sc-check [--json] [ROOT]");
            return ExitCode::from(2);
        }
    }
    let root = root.unwrap_or_else(|| PathBuf::from("."));
    let report = match sc_check::check_repo(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("sc-check: {e}");
            return ExitCode::from(2);
        }
    };
    if json {
        println!("{}", report.to_json().to_pretty());
    } else {
        for v in &report.violations {
            println!("{v}");
        }
        if report.violations.is_empty() {
            println!(
                "sc-check: ok ({} manifests, {} source files, 0 violations)",
                report.manifests, report.sources
            );
        } else {
            eprintln!(
                "sc-check: {} violation(s) across {} manifests and {} source files",
                report.violations.len(),
                report.manifests,
                report.sources
            );
        }
    }
    if report.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
