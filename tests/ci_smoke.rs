//! Keeps `scripts/ci-smoke.sh` honest: the script is the single owner
//! of the CI smoke steps, so its own plumbing (binary resolution, usage
//! errors, the corpus subcommand with its per-format vacuity guard)
//! gets the same test coverage as the code it drives.
//!
//! Only the fast `corpus` subcommand runs here — the fault/counters/serve
//! smokes route a ~400-track benchmark and are exercised by CI itself.

use std::process::Command;

fn smoke() -> Command {
    let mut cmd = Command::new("bash");
    cmd.arg(concat!(env!("CARGO_MANIFEST_DIR"), "/scripts/ci-smoke.sh"));
    cmd.env("SADP_BIN", env!("CARGO_BIN_EXE_sadp"));
    cmd
}

#[test]
fn corpus_smoke_replays_native_and_imported_fixtures() {
    let out = smoke().arg("corpus").output().expect("bash runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stdout: {stdout}\nstderr: {stderr}");
    // The guard counted at least one imported fixture per format.
    assert!(stdout.contains("corpus smoke: OK ("), "{stdout}");
    // Both imported formats actually replayed.
    assert!(stdout.contains("led-matrix.dsn: clean ("), "{stdout}");
    assert!(stdout.contains("macro-block.def: clean ("), "{stdout}");
    // The top-level fixtures replay under the same oracle.
    assert!(stdout.contains("clock_tree.layout: clean ("), "{stdout}");
    assert!(stdout.contains("odd_cycle.layout: clean ("), "{stdout}");
}

#[test]
fn an_unknown_subcommand_is_a_usage_error() {
    let out = smoke().arg("frobnicate").output().expect("bash runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn a_missing_binary_is_reported_not_hidden() {
    let out = smoke()
        .arg("corpus")
        .env("SADP_BIN", "/nonexistent/sadp")
        .output()
        .expect("bash runs");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("binary not found"), "{stderr}");
    assert!(stderr.contains("SADP_BIN"), "{stderr}");
}
