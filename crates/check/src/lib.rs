//! `sc-check` — the repo's own invariant gate.
//!
//! A scope-aware static-analysis engine (see [`lexer`] and [`engine`])
//! enforcing eight rules that encode this codebase's architectural
//! contract with the paper. Each rule keeps its id (in parentheses).
//! Ids 7 and 9 are retired: the hash-once and zero-alloc request path
//! they policed lexically is pinned at run time instead, by the MD5
//! block counters in `core/src/probe.rs`, `bloom/src/key.rs`,
//! `proxy/src/router.rs` and `proxy/src/daemon.rs`, and by the counting
//! allocator in `proxy/tests/zero_alloc.rs`.
//!
//! * **deps** (1) — every dependency in every `Cargo.toml` is path-local;
//!   no registry crates, so tier-1 verification needs zero network
//!   ([`manifest`]).
//! * **panic** (2) — no `.unwrap()` / `.expect(` in `crates/proxy/src` or
//!   `crates/wire/src` runtime paths; a malformed ICP datagram or a
//!   peer hangup must degrade gracefully, never kill the daemon.
//! * **determinism** (3) — no ambient time or entropy (`Instant::now`,
//!   `SystemTime::now`, `rand::`, …) in `crates/sim`, `crates/core`,
//!   `crates/bloom`; simulations replay bit-for-bit from traces and
//!   seeds.
//! * **counters** (4) — `crates/bloom/src/counting.rs` must not use
//!   wrapping or bare `+`/`-` arithmetic on the 4-bit counters
//!   (paper §V-C: saturate, never wrap).
//! * **metrics** (5) — a metric name is registered at exactly one source
//!   site across the workspace; the registry get-or-creates by name,
//!   so a second site silently aliases.
//! * **sans_io** (6) — `machine.rs` / `simnet.rs` / `router.rs` /
//!   `trace/src/scenario.rs` stay free of `std::net`, wall clocks and
//!   sleeps; I/O belongs to the daemon shell and the simnet scheduler.
//! * **locks** (8) — in `crates/proxy/src`, no `MutexGuard` live across
//!   `thread::sleep`, channel send/recv, socket I/O, a re-acquisition
//!   of the same lock, or an acquisition order inverting one recorded
//!   elsewhere. Guard liveness is scope-based: binding → end of the
//!   enclosing block, truncated by an explicit `drop(guard)`.
//! * **wire** (10) — every `ICP_OP_*` constant in `crates/wire/src/icp.rs`
//!   appears in an encode-side match arm, a decode-side match arm,
//!   and at least one test, so an opcode cannot ship half-wired.
//!
//! Everything is hand-rolled on `std` (plus the path-local `sc-json`
//! for `--json` output) — no `syn`, no registry crates — so the gate
//! itself can never break the firewall it enforces. Test context
//! (resolved from real item structure: `#[cfg(test)]`,
//! `cfg(all(test, …))`, `#[test]` fns, un-attributed `mod tests`, and
//! whole `tests/`/`benches/`/`examples/` files) is exempt from the
//! source rules. Nothing else is: there is no per-site escape hatch,
//! so a finding is fixed, not silenced.

pub mod engine;
pub mod lexer;
pub mod manifest;
pub mod rules;

use std::fmt;
use std::path::{Path, PathBuf};

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Short rule name (`deps`, `panic`, …, `wire`).
    pub rule: &'static str,
    /// File the violation is in, relative to the checked root.
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable explanation with the fix direction.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// The outcome of checking a tree.
pub struct Report {
    /// Number of `Cargo.toml` manifests scanned.
    pub manifests: usize,
    /// Number of `.rs` sources scanned.
    pub sources: usize,
    /// All violations, in deterministic order.
    pub violations: Vec<Violation>,
}

impl Report {
    /// Machine-readable form for CI annotation (`sc-check --json`).
    pub fn to_json(&self) -> sc_json::Value {
        use sc_json::Value;
        let violations = self
            .violations
            .iter()
            .map(|v| {
                let unix = v
                    .file
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy())
                    .collect::<Vec<_>>()
                    .join("/");
                Value::Object(vec![
                    ("rule".to_string(), Value::Str(v.rule.to_string())),
                    ("file".to_string(), Value::Str(unix)),
                    ("line".to_string(), Value::UInt(v.line as u64)),
                    ("message".to_string(), Value::Str(v.message.clone())),
                ])
            })
            .collect();
        Value::Object(vec![
            ("ok".to_string(), Value::Bool(self.violations.is_empty())),
            ("manifests".to_string(), Value::UInt(self.manifests as u64)),
            ("sources".to_string(), Value::UInt(self.sources as u64)),
            ("violations".to_string(), Value::Array(violations)),
        ])
    }
}

/// Should a directory be skipped entirely?
///
/// By *name* anywhere: build output and VCS metadata. By *exact
/// relative path*: the gate's own violation fixtures and the repo-root
/// `results/` corpus — scoped precisely so a future source directory
/// that happens to be called `fixtures` or `results` is still scanned.
fn skip_dir(rel_unix: &str, name: &str) -> bool {
    matches!(name, "target" | ".git" | ".cargo")
        || matches!(rel_unix, "crates/check/tests/fixtures" | "results")
}

/// Recursively collect manifests and sources under `dir`, tracking the
/// `/`-separated path relative to the scanned root.
fn collect(
    dir: &Path,
    rel: &str,
    manifests: &mut Vec<PathBuf>,
    sources: &mut Vec<PathBuf>,
) -> std::io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?.filter_map(|e| e.ok()).collect();
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        let child_rel = if rel.is_empty() {
            name.clone()
        } else {
            format!("{rel}/{name}")
        };
        let ty = entry.file_type()?;
        if ty.is_dir() {
            if skip_dir(&child_rel, &name) {
                continue;
            }
            collect(&path, &child_rel, manifests, sources)?;
        } else if name == "Cargo.toml" {
            manifests.push(path);
        } else if name.ends_with(".rs") {
            sources.push(path);
        }
    }
    Ok(())
}

/// Check the workspace rooted at `root` against all eight rules.
pub fn check_repo(root: &Path) -> std::io::Result<Report> {
    let mut manifests = Vec::new();
    let mut source_paths = Vec::new();
    collect(root, "", &mut manifests, &mut source_paths)?;

    let mut violations = Vec::new();
    for m in &manifests {
        manifest::check_manifest(root, m, &mut violations);
    }

    let mut files = Vec::new();
    for path in &source_paths {
        let Ok(src) = std::fs::read_to_string(path) else {
            continue;
        };
        let rel = path.strip_prefix(root).unwrap_or(path).to_path_buf();
        files.push(engine::SourceFile::parse(rel, src));
    }

    let mut cross = rules::CrossFile::default();
    for f in &files {
        rules::check_file(f, &mut violations, &mut cross);
    }
    rules::finish(&cross, &mut violations);

    Ok(Report {
        manifests: manifests.len(),
        sources: files.len(),
        violations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skip_is_scoped_to_exact_paths() {
        assert!(skip_dir("crates/check/tests/fixtures", "fixtures"));
        assert!(skip_dir("results", "results"));
        // The same names elsewhere are scanned (the old scanner skipped
        // any dir called fixtures/results anywhere in the tree).
        assert!(!skip_dir("crates/proxy/src/fixtures", "fixtures"));
        assert!(!skip_dir("crates/sim/results", "results"));
        // Build output and VCS dirs are skipped at any depth.
        assert!(skip_dir("target", "target"));
        assert!(skip_dir("crates/x/target", "target"));
        assert!(skip_dir(".git", ".git"));
    }

    #[test]
    fn report_serializes_to_sc_json() {
        let report = Report {
            manifests: 3,
            sources: 7,
            violations: vec![Violation {
                rule: "panic",
                file: PathBuf::from("crates/proxy/src/daemon.rs"),
                line: 42,
                message: "boom".to_string(),
            }],
        };
        let text = report.to_json().to_compact();
        let back = sc_json::Value::parse(&text).expect("round-trips");
        assert_eq!(back.get("ok").and_then(|v| v.as_bool()), Some(false));
        assert_eq!(back.get("manifests").and_then(|v| v.as_u64()), Some(3));
        assert_eq!(back.get("sources").and_then(|v| v.as_u64()), Some(7));
        let vs = back.get("violations").and_then(|v| v.as_array()).unwrap();
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].get("rule").and_then(|v| v.as_str()), Some("panic"));
        assert_eq!(vs[0].get("line").and_then(|v| v.as_u64()), Some(42));
    }

    #[test]
    fn violation_display_is_stable() {
        let v = Violation {
            rule: "panic",
            file: PathBuf::from("crates/proxy/src/daemon.rs"),
            line: 7,
            message: "msg".to_string(),
        };
        assert_eq!(v.to_string(), "crates/proxy/src/daemon.rs:7: [panic] msg");
    }
}
