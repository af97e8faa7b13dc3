//! Keeps `scripts/ci-smoke.sh` honest: the script is the single owner
//! of the CI smoke steps, so its own plumbing (binary resolution, usage
//! errors, the corpus subcommand with its per-format vacuity guard)
//! gets the same test coverage as the code it drives.
//!
//! Only the fast `corpus` subcommand runs here — the fault/counters/serve
//! smokes route a ~400-track benchmark and are exercised by CI itself;
//! their command lines are checked here as text.
//! The `paper` smoke's filter and diff run against a stand-in `table3`
//! next to the `sadp` binary that prints the committed fixture back with
//! a CPU column; the real table runs in CI.

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
fn the_script_passes_no_removed_flag_and_guards_on_live_events() {
    // The CLI reads the flags it knows and skips the rest, so a removed
    // flag left in the script would do nothing without failing. Every
    // net routes on one thread now: no `--threads`, and the fault smoke
    // guards on the budget failures the fault plan still injects.
    let script =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/scripts/ci-smoke.sh"))
            .expect("script readable");
    assert!(!script.contains("--threads"), "the script passes --threads");
    assert!(
        !script.contains("band_recovered"),
        "the script guards on a removed event"
    );
    assert!(
        script.contains(r#""reason":"budget_exceeded""#),
        "the fault smoke must guard on an injected budget failure"
    );
}

#[test]
fn an_unknown_subcommand_is_a_usage_error() {
    let out = smoke().arg("frobnicate").output().expect("bash runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage:"), "{stderr}");
    assert!(stderr.contains("|paper|"), "{stderr}");
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

/// A binary directory holding the real `sadp` and, unless `edit` is
/// `None`, an executable stand-in for `table3` that prints the paper
/// fixture as the real binary would (a CPU column after every `|` row,
/// rules between circuits), with `edit` applied as a sed expression.
fn bin_dir(name: &str, edit: Option<&str>) -> std::path::PathBuf {
    use std::os::unix::fs::PermissionsExt;
    let dir = std::env::temp_dir().join(format!("sadp-ci-smoke-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    std::os::unix::fs::symlink(env!("CARGO_BIN_EXE_sadp"), dir.join("sadp")).expect("symlink");
    if let Some(edit) = edit {
        let fixture = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/fixtures/counters/paper-scale0.2.txt"
        );
        let script = format!(
            "#!/bin/sh\nsed -e '{edit}' -e '/|/s/$/ | 1.23s/' -e '/^Test[0-9] /a\\\n----' '{fixture}'\n"
        );
        let bin = dir.join("table3");
        std::fs::write(&bin, script).expect("write stand-in");
        std::fs::set_permissions(&bin, std::fs::Permissions::from_mode(0o755)).expect("chmod");
    }
    dir
}

/// Runs the paper smoke against the binaries in `dir`, then removes it.
fn paper_smoke(dir: std::path::PathBuf) -> std::process::Output {
    let out = smoke()
        .arg("paper")
        .env("SADP_BIN", dir.join("sadp"))
        .output()
        .expect("bash runs");
    let _ = std::fs::remove_dir_all(dir);
    out
}

#[test]
fn paper_smoke_ignores_cpu_and_catches_a_changed_column() {
    let out = paper_smoke(bin_dir("same", Some("")));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stdout: {stdout}\nstderr: {stderr}");
    assert!(stdout.contains("paper smoke: OK"), "{stdout}");

    let out = paper_smoke(bin_dir("changed", Some("s/|      274 |/|      275 |/")));
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("differ from fixtures/counters/paper-scale0.2.txt"),
        "{stderr}"
    );
}

#[test]
fn a_missing_table3_binary_is_reported_not_hidden() {
    let out = paper_smoke(bin_dir("missing", None));
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("table3 binary not found"), "{stderr}");
    assert!(stderr.contains("--bin table3"), "{stderr}");
}
