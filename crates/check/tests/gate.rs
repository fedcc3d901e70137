//! End-to-end tests for the `sc-check` binary: each fixture tree seeds
//! one class of violation, and the gate must exit nonzero with a
//! `file:line: [rule] …` diagnostic pointing at the seeded site —
//! while the clean fixture (and the real workspace) pass.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn run_gate(root: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sc-check"))
        .arg(root)
        .output()
        .expect("spawn sc-check")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn clean_fixture_passes() {
    let out = run_gate(&fixture("clean"));
    assert!(
        out.status.success(),
        "clean fixture must pass, got:\n{}",
        stdout(&out)
    );
    let text = stdout(&out);
    assert!(
        !text.contains("[") && text.contains("sc-check: ok ("),
        "a clean tree prints only the ok/count line:\n{text}"
    );
    assert!(
        text.contains("manifests") && text.contains("source files"),
        "success reports scanned counts:\n{text}"
    );
}

#[test]
fn real_workspace_passes() {
    // CARGO_MANIFEST_DIR is crates/check; the workspace root is ../..
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out = run_gate(&root);
    assert!(
        out.status.success(),
        "the shipped workspace must satisfy its own gate, got:\n{}",
        stdout(&out)
    );
}

#[test]
fn registry_dep_flagged_with_file_and_line() {
    let out = run_gate(&fixture("registry_dep"));
    assert!(!out.status.success(), "registry deps must fail the gate");
    let text = stdout(&out);
    assert!(
        text.contains("Cargo.toml:8: [deps]") && text.contains("`serde`"),
        "inline-table registry dep flagged at its line:\n{text}"
    );
    assert!(
        text.contains("Cargo.toml:12: [deps]") && text.contains("`proptest`"),
        "bare-version dev-dependency flagged:\n{text}"
    );
    assert!(
        text.contains("Cargo.toml:14: [deps]") && text.contains("`tokio`"),
        "[dependencies.tokio] section flagged at its header:\n{text}"
    );
    assert!(
        !text.contains("local-ok"),
        "path-local dep must not be flagged:\n{text}"
    );
}

#[test]
fn unwrap_in_proxy_flagged_tests_exempt() {
    let out = run_gate(&fixture("unwrap_in_proxy"));
    assert!(!out.status.success(), "runtime unwrap must fail the gate");
    let text = stdout(&out);
    assert!(
        text.contains("daemon.rs:5: [panic]") && text.contains(".unwrap()"),
        "unwrap flagged at its line:\n{text}"
    );
    assert!(
        text.contains("daemon.rs:6: [panic]") && text.contains(".expect("),
        "expect flagged at its line:\n{text}"
    );
    assert_eq!(
        text.matches("[panic]").count(),
        2,
        "the cfg(test) unwrap is exempt:\n{text}"
    );
}

#[test]
fn wallclock_in_sim_flagged() {
    let out = run_gate(&fixture("wallclock_in_sim"));
    assert!(!out.status.success(), "ambient time must fail the gate");
    let text = stdout(&out);
    assert!(
        text.contains("lib.rs:6: [determinism]") && text.contains("Instant::now"),
        "Instant::now flagged:\n{text}"
    );
    assert!(
        text.contains("lib.rs:7: [determinism]") && text.contains("SystemTime::now"),
        "SystemTime::now flagged:\n{text}"
    );
}

#[test]
fn counter_arith_flagged() {
    let out = run_gate(&fixture("counter_arith"));
    assert!(!out.status.success(), "wrapping counters must fail the gate");
    let text = stdout(&out);
    assert!(
        text.contains("counting.rs:15: [counters]") && text.contains("wrapping_add"),
        "wrapping_add flagged:\n{text}"
    );
    assert!(
        text.contains("counting.rs:20: [counters]") && text.contains("set_count"),
        "bare arithmetic into set_count flagged:\n{text}"
    );
}

#[test]
fn duplicate_metric_registration_flagged_at_both_sites() {
    let out = run_gate(&fixture("dup_metric"));
    assert!(!out.status.success(), "duplicate metric names must fail the gate");
    let text = stdout(&out);
    assert!(
        text.contains("crates/a/src/lib.rs:5: [metrics]") && text.contains("`sc_dup_total`"),
        "first counter registration site flagged:\n{text}"
    );
    assert!(
        text.contains("crates/b/src/lib.rs:8: [metrics]"),
        "second counter registration site flagged:\n{text}"
    );
    // Histograms are held to the same one-owner rule as counters.
    assert!(
        text.contains("crates/a/src/lib.rs:7: [metrics]") && text.contains("`sc_dup_bytes`"),
        "first histogram registration site flagged:\n{text}"
    );
    assert!(
        text.contains("crates/b/src/lib.rs:9: [metrics]"),
        "second histogram registration site flagged:\n{text}"
    );
    assert_eq!(
        text.matches("[metrics]").count(),
        4,
        "single-site `sc_only_here` and the cfg(test) re-registrations are exempt:\n{text}"
    );
}

#[test]
fn net_in_machine_flagged_tests_exempt() {
    let out = run_gate(&fixture("net_in_machine"));
    assert!(
        !out.status.success(),
        "transport/clock use in the protocol machine must fail the gate"
    );
    let text = stdout(&out);
    assert!(
        text.contains("machine.rs:4: [sans_io]") && text.contains("std::net"),
        "std::net import flagged:\n{text}"
    );
    assert!(
        text.contains("machine.rs:7: [sans_io]") && text.contains("Instant::now"),
        "wall-clock read flagged:\n{text}"
    );
    assert!(
        text.contains("machine.rs:8: [sans_io]") && text.contains("thread::sleep"),
        "sleep flagged:\n{text}"
    );
    assert_eq!(
        text.matches("[sans_io]").count(),
        3,
        "the cfg(test) uses are exempt:\n{text}"
    );
}

#[test]
fn net_in_scenario_flagged_tests_exempt() {
    let out = run_gate(&fixture("net_in_scenario"));
    assert!(
        !out.status.success(),
        "transport/clock use in the scenario generators must fail the gate"
    );
    let text = stdout(&out);
    assert!(
        text.contains("scenario.rs:4: [sans_io]") && text.contains("std::net"),
        "std::net import flagged:\n{text}"
    );
    assert!(
        text.contains("scenario.rs:7: [sans_io]") && text.contains("Instant::now"),
        "wall-clock read flagged:\n{text}"
    );
    assert!(
        text.contains("scenario.rs:8: [sans_io]") && text.contains("thread::sleep"),
        "sleep flagged:\n{text}"
    );
    assert_eq!(
        text.matches("[sans_io]").count(),
        3,
        "the cfg(test) uses are exempt:\n{text}"
    );
}

#[test]
fn md5_in_probe_flagged_tests_exempt() {
    let out = run_gate(&fixture("md5_in_probe"));
    assert!(
        !out.status.success(),
        "direct digest calls on the probe path must fail the gate"
    );
    let text = stdout(&out);
    assert!(
        text.contains("probe.rs:5: [hash_once]") && text.contains("md5("),
        "md5( call flagged:\n{text}"
    );
    assert!(
        text.contains("probe.rs:6: [hash_once]") && text.contains("md5_repeated("),
        "md5_repeated( call flagged:\n{text}"
    );
    assert_eq!(
        text.matches("[hash_once]").count(),
        2,
        "the cfg(test) digest is exempt:\n{text}"
    );
}

#[test]
fn redigest_in_daemon_flagged_entry_and_tests_exempt() {
    let out = run_gate(&fixture("redigest_in_daemon"));
    assert!(
        !out.status.success(),
        "re-keying a URL downstream of request entry must fail the gate"
    );
    let text = stdout(&out);
    assert!(
        text.contains("daemon.rs:8: [hash_once]") && text.contains("UrlKey::new("),
        "the second UrlKey::new flagged at its line:\n{text}"
    );
    assert_eq!(
        text.matches("[hash_once]").count(),
        1,
        "the allow-marked entry digest and the cfg(test) digest are exempt:\n{text}"
    );
}

#[test]
fn missing_root_is_a_usage_error() {
    let out = run_gate(Path::new("/nonexistent/definitely-not-a-repo"));
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
}

#[test]
fn unknown_flag_is_rejected_not_treated_as_root() {
    let out = Command::new(env!("CARGO_BIN_EXE_sc-check"))
        .arg("--bogus")
        .arg(fixture("clean"))
        .output()
        .expect("spawn sc-check");
    assert_eq!(out.status.code(), Some(2), "unknown flags exit 2");
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(
        err.contains("unknown flag") && err.contains("--bogus") && err.contains("usage:"),
        "the error names the flag and prints usage:\n{err}"
    );
}

#[test]
fn lock_discipline_flagged_with_drop_and_scope_negatives() {
    let out = run_gate(&fixture("lock_discipline"));
    assert!(!out.status.success(), "guards across blocking calls must fail");
    let text = stdout(&out);
    assert!(
        text.contains("daemon.rs:17: [locks]") && text.contains("thread::sleep"),
        "sleep under a live guard flagged:\n{text}"
    );
    assert!(
        text.contains("daemon.rs:24: [locks]") && text.contains(".send("),
        "channel send under a live guard flagged (drop_hint must not truncate):\n{text}"
    );
    assert!(
        text.contains("daemon.rs:31: [locks]") && text.contains("self-deadlock"),
        "re-acquiring the held lock flagged:\n{text}"
    );
    assert!(
        text.contains("daemon.rs:37: [locks]")
            && text.contains("daemon.rs:43: [locks]")
            && text.matches("inversion").count() == 2,
        "the a→b / b→a inversion is flagged at both sites:\n{text}"
    );
    assert_eq!(
        text.matches("[locks]").count(),
        5,
        "drop(), block scoping, the allow(locks) hold and the test module are all clean:\n{text}"
    );
    assert!(
        !text.contains("[suppression]"),
        "the allow(locks) suppression fired, so it is not stale:\n{text}"
    );
}

#[test]
fn alloc_in_probe_flagged_with_boundary_and_cfg_negatives() {
    let out = run_gate(&fixture("alloc_in_probe"));
    assert!(!out.status.success(), "hot-path allocations must fail");
    let text = stdout(&out);
    for (line, token) in [
        (9, "Vec::new("),
        (11, "vec!["),
        (12, ".to_string()"),
        (13, "format!("),
        (14, "Box::new("),
        (15, ".clone()"),
    ] {
        assert!(
            text.contains(&format!("key.rs:{line}: [alloc]")) && text.contains(token),
            "`{token}` flagged at line {line}:\n{text}"
        );
    }
    assert_eq!(
        text.matches("[alloc]").count(),
        6,
        "allow(alloc) setup, BitVec::new word boundary, cfg(all(test,…)) and bare mod tests are clean:\n{text}"
    );
}

#[test]
fn scratch_leak_flagged_with_suppression_and_test_negatives() {
    let out = run_gate(&fixture("scratch_leak"));
    assert!(!out.status.success(), "per-request scratch allocations must fail");
    let text = stdout(&out);
    for (line, token) in [
        (14, "vec!["),
        (20, ".to_string()"),
        (21, "Vec::new("),
    ] {
        assert!(
            text.contains(&format!("scratch.rs:{line}: [alloc]")) && text.contains(token),
            "`{token}` flagged at line {line}:\n{text}"
        );
    }
    assert_eq!(
        text.matches("[alloc]").count(),
        3,
        "the allow(alloc) construction line and the test module are clean:\n{text}"
    );
}

#[test]
fn half_wired_opcode_flagged_per_missing_side() {
    let out = run_gate(&fixture("half_wired_opcode"));
    assert!(!out.status.success(), "half-wired opcodes must fail");
    let text = stdout(&out);
    assert!(
        text.contains("icp.rs:5: [wire]")
            && text.contains("ICP_OP_HIT")
            && text.contains("encode-side"),
        "constant missing from the encode match flagged:\n{text}"
    );
    assert!(
        text.contains("icp.rs:6: [wire]")
            && text.contains("ICP_OP_SECHO")
            && text.contains("any test"),
        "constant never named in a test flagged:\n{text}"
    );
    assert_eq!(
        text.matches("[wire]").count(),
        2,
        "the fully wired ICP_OP_QUERY is clean:\n{text}"
    );
}

#[test]
fn stale_suppressions_flagged_and_nested_fixtures_dir_scanned() {
    let out = run_gate(&fixture("suppressions"));
    assert!(!out.status.success(), "stale suppressions must fail");
    let text = stdout(&out);
    assert!(
        text.contains("daemon.rs:4: [suppression]") && text.contains("never fired"),
        "unused allow(panic) flagged:\n{text}"
    );
    assert!(
        text.contains("daemon.rs:9: [suppression]") && text.contains("unknown rule `nosuchrule`"),
        "unknown rule name flagged:\n{text}"
    );
    // The satellite-1 regression: a *source* directory named `fixtures`
    // is scanned (the old scanner skipped any dir with that name).
    assert!(
        text.contains("fixtures/helper.rs:5: [panic]"),
        "code under crates/proxy/src/fixtures must still be checked:\n{text}"
    );
}

#[test]
fn json_output_is_valid_sc_json() {
    let out = Command::new(env!("CARGO_BIN_EXE_sc-check"))
        .arg("--json")
        .arg(fixture("lock_discipline"))
        .output()
        .expect("spawn sc-check");
    assert!(!out.status.success(), "violations still fail in --json mode");
    let text = stdout(&out);
    let v = sc_json::Value::parse(&text).expect("stdout parses as sc-json");
    assert_eq!(v.get("ok").and_then(|x| x.as_bool()), Some(false));
    assert_eq!(v.get("manifests").and_then(|x| x.as_u64()), Some(1));
    assert!(v.get("sources").and_then(|x| x.as_u64()).unwrap_or(0) >= 1);
    let violations = v
        .get("violations")
        .and_then(|x| x.as_array())
        .expect("violations array");
    assert_eq!(violations.len(), 5, "same count as the human output");
    for item in violations {
        assert_eq!(item.get("rule").and_then(|x| x.as_str()), Some("locks"));
        assert_eq!(
            item.get("file").and_then(|x| x.as_str()),
            Some("crates/proxy/src/daemon.rs"),
            "file paths are /-separated in JSON"
        );
        assert!(item.get("line").and_then(|x| x.as_u64()).is_some());
        assert!(item.get("message").and_then(|x| x.as_str()).is_some());
    }

    // A clean tree: ok=true, empty violations, exit 0, still valid JSON.
    let out = Command::new(env!("CARGO_BIN_EXE_sc-check"))
        .arg("--json")
        .arg(fixture("clean"))
        .output()
        .expect("spawn sc-check");
    assert!(out.status.success());
    let v = sc_json::Value::parse(&stdout(&out)).expect("clean JSON parses");
    assert_eq!(v.get("ok").and_then(|x| x.as_bool()), Some(true));
    assert_eq!(
        v.get("violations").and_then(|x| x.as_array()).map(<[_]>::len),
        Some(0)
    );
}
