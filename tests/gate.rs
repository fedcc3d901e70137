//! The architecture gate: `cargo clippy` over every workspace target
//! with warnings denied.
//!
//! `crates/clippy.toml` bans wall clocks, sleeps, sockets and OS-seeded
//! hashing in every crate under `crates/`, so sans-I/O is the default
//! and only the socket shells opt out with `#[allow(..)]`. `sc-proxy`
//! and `sc-wire` deny `unwrap`/`expect` outside tests. A fixture crate
//! with one violation of each banned item keeps the config honest: an
//! entry dropped from it fails here. The source rules clippy cannot
//! express live in `tests/source_rules.rs`.
//!
//! The nested cargo runs use their own target directory, so they never
//! wait on the build lock of the `cargo test` that runs them. A missing
//! clippy fails the tests: the gate is not optional.

use std::path::Path;
use std::process::{Command, Output};

/// `cargo clippy --all-targets -D warnings` in `dir`, short messages.
fn clippy(dir: &Path, extra: &[&str]) -> Output {
    let target = Path::new(env!("CARGO_TARGET_TMPDIR")).join("clippy");
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    Command::new(cargo)
        .current_dir(dir)
        .args([
            "clippy",
            "--all-targets",
            "--offline",
            "--quiet",
            "--message-format=short",
        ])
        .args(extra)
        .arg("--target-dir")
        .arg(target)
        .args(["--", "-D", "warnings"])
        .output()
        .expect("spawn cargo clippy")
}

#[test]
fn real_workspace_passes() {
    let out = clippy(Path::new(env!("CARGO_MANIFEST_DIR")), &["--workspace"]);
    assert!(
        out.status.success(),
        "cargo clippy -D warnings failed ({}):\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
}

/// One violation of each banned item, in a crate that sits under a copy
/// of `crates/clippy.toml`; the test module's `unwrap` is exempt.
const FIXTURE: &str = r#"#![deny(clippy::unwrap_used, clippy::expect_used)]
use std::time::{Instant, SystemTime};
pub fn wallclock() -> bool {
    Instant::now() < Instant::now() || SystemTime::now() < SystemTime::UNIX_EPOCH
}
pub fn io() {
    std::thread::sleep(std::time::Duration::ZERO);
    let _: Option<(std::net::UdpSocket, std::net::TcpStream, std::net::TcpListener)> = None;
    let _ = std::hash::RandomState::new();
}
pub fn panics(buf: &[u8]) -> u8 {
    buf.first().copied().unwrap() + buf.get(1).copied().expect("two bytes")
}
#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_unwrap() {
        assert_eq!(super::panics(&[1, 2]), [3u8].first().copied().unwrap());
    }
}
"#;

#[test]
fn clippy_config_rejects_each_banned_item() {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("gate-fixture");
    let krate = root.join("crates/sim");
    std::fs::create_dir_all(krate.join("src")).expect("fixture dirs");
    let config = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/clippy.toml");
    std::fs::copy(config, root.join("crates/clippy.toml")).expect("copy clippy.toml");
    let manifest = "[package]\nname = \"gate-fixture\"\nversion = \"0.0.0\"\nedition = \"2021\"\n\n[workspace]\n";
    std::fs::write(krate.join("Cargo.toml"), manifest).expect("fixture manifest");
    std::fs::write(krate.join("src/lib.rs"), FIXTURE).expect("fixture source");

    let out = clippy(&krate, &[]);
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(
        !out.status.success(),
        "the fixture must fail clippy:\n{text}"
    );
    for (line, item) in [
        (4, "Instant::now"),
        (4, "SystemTime::now"),
        (7, "thread::sleep"),
        (8, "UdpSocket"),
        (8, "TcpStream"),
        (8, "TcpListener"),
        (9, "RandomState"),
        (12, "unwrap()"),
        (12, "expect()"),
    ] {
        let at = format!("src/lib.rs:{line}:");
        let hit = text.lines().any(|l| l.starts_with(&at) && l.contains(item));
        assert!(hit, "{item} at line {line} not rejected:\n{text}");
    }
    assert!(
        !text.contains("src/lib.rs:18:"),
        "tests may unwrap:\n{text}"
    );
}
