//! Smoke tests for the `sadp` command-line binary.

use std::process::Command;

fn sadp() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sadp"))
}

#[test]
fn verify_accepts_a_good_fixture() {
    let out = sadp()
        .args(["verify", "fixtures/odd_cycle.layout"])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "stdout: {stdout}");
    assert!(stdout.contains("verdict: decomposable"), "{stdout}");
    assert!(stdout.contains("0 cut conflicts"));
}

#[test]
fn route_writes_svg_and_masks() {
    let dir = std::env::temp_dir().join("sadp_cli_test");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let svg_dir = dir.join("svg");
    let masks = dir.join("masks.txt");
    let out = sadp()
        .args([
            "route",
            "fixtures/clock_tree.layout",
            "--svg",
            svg_dir.to_str().unwrap(),
            "--masks",
            masks.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let svg = std::fs::read_to_string(svg_dir.join("m1.svg")).expect("m1.svg written");
    assert!(svg.starts_with("<svg"));
    let mask_text = std::fs::read_to_string(&masks).expect("masks written");
    assert!(mask_text.lines().any(|l| l.starts_with("core ")));
    assert!(mask_text.lines().any(|l| l.starts_with("cut ")));
}

#[test]
fn svg_and_masks_together_match_two_single_flag_runs() {
    // Both flags share one simulator pass per layer; the files must not
    // differ from what each flag writes on its own.
    let dir = std::env::temp_dir().join("sadp_cli_svg_masks");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let route = |flags: &[(&str, &std::path::Path)]| {
        let mut cmd = sadp();
        cmd.args(["route", "fixtures/odd_cycle.layout"]);
        for (flag, path) in flags {
            cmd.arg(flag).arg(path);
        }
        let out = cmd.output().expect("binary runs");
        assert!(out.status.success(), "{out:?}");
        String::from_utf8(out.stdout).unwrap()
    };
    let (both_svg, both_masks) = (dir.join("both-svg"), dir.join("both-masks.txt"));
    let (one_svg, one_masks) = (dir.join("one-svg"), dir.join("one-masks.txt"));
    let both = route(&[("--svg", &both_svg), ("--masks", &both_masks)]);
    route(&[("--svg", &one_svg)]);
    route(&[("--masks", &one_masks)]);
    for layer in ["m1.svg", "m2.svg"] {
        let a = std::fs::read(both_svg.join(layer)).expect("svg with both flags");
        let b = std::fs::read(one_svg.join(layer)).expect("svg alone");
        assert_eq!(a, b, "{layer} differs");
    }
    assert_eq!(
        std::fs::read(&both_masks).unwrap(),
        std::fs::read(&one_masks).unwrap()
    );
    // The SVG lines come first, the masks line last.
    let wrote: Vec<&str> = both.lines().filter(|l| l.starts_with("wrote ")).collect();
    let masks_line = format!("wrote {}", both_masks.display());
    assert_eq!(wrote.len(), 3, "{both}");
    assert_eq!(wrote[2], masks_line);
}

#[test]
fn bench_subcommand_reports_conflict_free() {
    let out = sadp()
        .args(["bench", "--scale", "0.04"])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("0 cut conflicts"), "{stdout}");
}

#[test]
fn trace_matches_golden_jsonl() {
    // The JSONL schema is a stable interface: field names, order and
    // formatting are pinned by `fixtures/odd_cycle.trace.jsonl`. A diff
    // here means the trace format changed and the golden file (plus any
    // downstream consumers) must be updated deliberately.
    let dir = std::env::temp_dir().join("sadp_cli_trace_test");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("trace.jsonl");
    let out = sadp()
        .args([
            "route",
            "fixtures/odd_cycle.layout",
            "--trace",
            trace.to_str().unwrap(),
            "--profile",
        ])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    // The profile table prints every stage with its work count.
    for stage in ["search", "commit", "recolor", "ripup", "merge", "decompose"] {
        assert!(
            stdout.contains(stage),
            "profile table missing {stage}: {stdout}"
        );
    }
    let got = std::fs::read_to_string(&trace).expect("trace written");
    let want = std::fs::read_to_string("fixtures/odd_cycle.trace.jsonl").expect("golden exists");
    assert_eq!(got, want, "trace JSONL diverged from the golden file");
}

#[test]
fn bad_usage_fails_with_code_2() {
    let out = sadp().output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage:"));
}

/// A value flag with its value missing or unparsable is a usage error
/// (exit 2) naming the flag, never a run that silently ignores it.
#[test]
fn a_value_flag_without_a_usable_value_is_a_usage_error() {
    let route = |rest: &[&str]| {
        let mut args = vec!["route", "fixtures/odd_cycle.layout"];
        args.extend_from_slice(rest);
        args.into_iter().map(String::from).collect::<Vec<_>>()
    };
    let bench = |rest: &[&str]| {
        let mut args = vec!["bench"];
        args.extend_from_slice(rest);
        args.into_iter().map(String::from).collect::<Vec<_>>()
    };
    let cases = [
        (route(&["--faults"]), "--faults wants a value"),
        (route(&["--net-nodes"]), "--net-nodes wants a value"),
        (route(&["--trace"]), "--trace wants a value"),
        (route(&["--trace", "--profile"]), "--trace wants a value"),
        (
            route(&["--net-nodes", "-1"]),
            "--net-nodes wants a non-negative integer",
        ),
        (
            bench(&["--scale", "abc"]),
            "--scale wants a positive number",
        ),
        (
            bench(&["--scale", "inf"]),
            "--scale wants a positive number",
        ),
        (
            bench(&["--seed", "abc"]),
            "--seed wants a non-negative integer",
        ),
        (bench(&["--test", "9"]), "--test wants 1..=5"),
        (
            bench(&["--run-deadline-ms"]),
            "--run-deadline-ms wants a value",
        ),
    ];
    for (args, message) in cases {
        let out = sadp().args(&args).output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran anyway");
    }
}

/// A flag the subcommand does not declare is a usage error (exit 2)
/// naming it, before any work: a typo or a removed flag (`--threads`)
/// must not route as if it were absent.
#[test]
fn an_unknown_flag_is_a_usage_error() {
    let cases: [&[&str]; 5] = [
        &["route", "fixtures/odd_cycle.layout", "--bogus-flag", "3"],
        &["bench", "--threads", "2"],
        &["verify", "fixtures/odd_cycle.layout", "--svg", "out"],
        &["fuzz", "--wire", "--minimize"],
        &["table2", "--profile"],
    ];
    for args in cases {
        let out = sadp().args(args).output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let flag = args.iter().find(|a| a.starts_with("--") && **a != "--wire");
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("unknown flag {}", flag.unwrap())),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} ran anyway");
    }
}

/// Each subcommand takes at most its one `<design>` or `<id>`: a second
/// positional argument is a usage error naming it, before any work.
#[test]
fn a_stray_positional_argument_is_a_usage_error() {
    let cases: [&[&str]; 2] = [
        &[
            "route",
            "fixtures/odd_cycle.layout",
            "fixtures/clock_tree.layout",
        ],
        &["bench", "stray", "--scale", "0.04"],
    ];
    for args in cases {
        let out = sadp().args(args).output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let stray = if args[0] == "route" { args[2] } else { args[1] };
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("unexpected argument {stray}")),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} ran anyway");
    }
}

/// `sadp job` sends one request: asking for two of its actions is a usage
/// error before it connects (no daemon listens on the address given).
#[test]
fn job_rejects_more_than_one_action() {
    let out = sadp()
        .args(["job", "7", "--addr", "127.0.0.1:9", "--cancel", "--resume"])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("--cancel and --resume"), "{stderr}");
    assert!(out.stdout.is_empty());
}

#[test]
fn unknown_command_fails_with_code_2() {
    let out = sadp().arg("frobnicate").output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown command"), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn missing_file_fails_with_input_code_3() {
    let out = sadp()
        .args(["route", "/nonexistent.layout"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(3));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error:"));
}

#[test]
fn malformed_layout_fails_with_input_code_3() {
    let dir = std::env::temp_dir().join("sadp_cli_badlayout");
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.layout");
    std::fs::write(&bad, "this is not a layout file\n").unwrap();
    let out = sadp()
        .args(["route", bad.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(3));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error:"), "{stderr}");
    // A parse failure is reported, never a panic backtrace.
    assert!(!stderr.contains("panicked"), "{stderr}");
}

/// Every committed `.layout` design: the last snapshot a checkpointed
/// route writes is taken after finalize, and resuming it must print the
/// same result without finalizing a second time.
#[test]
fn checkpoint_then_resume_reproduces_the_run() {
    let dir = std::env::temp_dir().join("sadp_cli_ckpt");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let snap = dir.join("run.ckpt");
    let mut designs: Vec<std::path::PathBuf> = ["fixtures", "fixtures/corpus"]
        .iter()
        .flat_map(|d| std::fs::read_dir(d).expect("fixture dir").flatten())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "layout"))
        .collect();
    designs.sort();
    assert!(designs.len() >= 8, "committed designs: {designs:?}");
    // Everything but the wall-clock line must match byte for byte.
    let strip_cpu = |bytes: &[u8]| -> String {
        String::from_utf8_lossy(bytes)
            .lines()
            .filter(|l| !l.starts_with("cpu "))
            .collect::<Vec<_>>()
            .join("\n")
    };
    for design in &designs {
        let design = design.to_str().unwrap();
        let first = sadp()
            .args(["route", design, "--checkpoint", snap.to_str().unwrap()])
            .output()
            .expect("binary runs");
        assert!(first.status.success(), "{design}");
        let text = std::fs::read_to_string(&snap).expect("checkpoint written");
        assert!(text.starts_with("SADPCKPT v5"), "{design}: {text}");

        let resumed = sadp()
            .args(["route", design, "--resume", snap.to_str().unwrap()])
            .output()
            .expect("binary runs");
        assert!(resumed.status.success(), "{design}");
        assert_eq!(
            strip_cpu(&first.stdout),
            strip_cpu(&resumed.stdout),
            "{design}: resumed stdout diverged"
        );
    }
}

#[test]
fn resume_with_wrong_layout_fails_with_routing_code_4() {
    let dir = std::env::temp_dir().join("sadp_cli_ckpt_mismatch");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let snap = dir.join("run.ckpt");
    let first = sadp()
        .args([
            "route",
            "fixtures/odd_cycle.layout",
            "--checkpoint",
            snap.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(first.status.success());
    let out = sadp()
        .args([
            "route",
            "fixtures/clock_tree.layout",
            "--resume",
            snap.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(4));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("fingerprint"), "{stderr}");
}

#[test]
fn foreign_checkpoint_version_is_rejected_with_a_versioned_error() {
    let dir = std::env::temp_dir().join("sadp_cli_ckpt_v4");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let snap = dir.join("old.ckpt");
    std::fs::write(&snap, "SADPCKPT v4\nchecksum 0\nend\n").unwrap();
    let out = sadp()
        .args([
            "route",
            "fixtures/odd_cycle.layout",
            "--resume",
            snap.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(3));
    let stderr = String::from_utf8_lossy(&out.stderr);
    // The message names the version it found, the version it wants, and
    // what to do about it.
    assert!(stderr.contains("SADPCKPT v4"), "{stderr}");
    assert!(stderr.contains("SADPCKPT v5"), "{stderr}");
    assert!(stderr.contains("re-route"), "{stderr}");
}

#[test]
fn error_messages_are_pinned_and_actionable() {
    // The user-facing error strings are an interface: scripts and
    // humans match on them. Each case pins the load-bearing phrases —
    // what failed plus what to do — so a reword is a deliberate act.
    let dir = std::env::temp_dir().join("sadp_cli_errmsg");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // A malformed layout names the offending line.
    let bad = dir.join("bad.layout");
    std::fs::write(&bad, "plane 3 32 32\nnet broken\n").unwrap();
    let out = sadp()
        .args(["route", bad.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(3));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("line 2"), "{stderr}");

    // A corrupt checkpoint is reported as such, not as a parse error
    // deeper in.
    let snap = dir.join("corrupt.ckpt");
    let first = sadp()
        .args([
            "route",
            "fixtures/odd_cycle.layout",
            "--checkpoint",
            snap.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(first.status.success());
    let text = std::fs::read_to_string(&snap).unwrap();
    let truncated: String = text.lines().take(3).collect::<Vec<_>>().join("\n");
    std::fs::write(&snap, truncated).unwrap();
    let out = sadp()
        .args([
            "route",
            "fixtures/odd_cycle.layout",
            "--resume",
            snap.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(3));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("checksum") || stderr.contains("truncated"),
        "{stderr}"
    );

    // Resuming against the wrong layout names the fingerprint mismatch
    // (pinned in resume_with_wrong_layout_fails_with_routing_code_4);
    // a submit of garbage to a daemon names the layout parse failure.
    let out = sadp()
        .args(["submit", bad.to_str().unwrap(), "--addr", "127.0.0.1:1"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1), "connection refused is exit 1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("127.0.0.1:1"),
        "names the address: {stderr}"
    );
}

#[test]
fn fault_injection_flag_keeps_the_route_conflict_free() {
    // Faults are a recovery test-bench: the injected budget failures
    // must degrade gracefully, never crash the CLI.
    let out = sadp()
        .args(["bench", "--scale", "0.04", "--faults", "1"])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stdout: {stdout}\nstderr: {stderr}");
    assert!(stdout.contains("0 cut conflicts"), "{stdout}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn budget_flags_degrade_gracefully() {
    let out = sadp()
        .args(["bench", "--scale", "0.04", "--net-nodes", "5"])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(
        stdout.contains("over search budget"),
        "expected budget-failure line: {stdout}"
    );
}

#[test]
fn a_closed_stdout_ends_the_command_quietly() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;
    // `sadp fuzz | head -1`: the reader goes away after the first line
    // while the campaign still has lines to print.
    let mut child = sadp()
        .args(["fuzz", "--seeds", "2"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let mut first = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut first)
        .expect("first line");
    assert!(first.contains("seeds"), "{first}");
    let out = child.wait_with_output().expect("exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_ne!(out.status.code(), Some(4), "stderr: {stderr}");
    assert!(!stderr.contains("internal panic"), "{stderr}");
}
