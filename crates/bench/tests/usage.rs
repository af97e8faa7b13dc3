//! A table or figure binary given a bad scale must refuse to run, not
//! fall back to some default instance: it prints the error and its usage
//! line and exits 2, before any routing starts.

use std::process::Command;

const BINS: [&str; 5] = [
    env!("CARGO_BIN_EXE_table3"),
    env!("CARGO_BIN_EXE_table4"),
    env!("CARGO_BIN_EXE_fig20"),
    env!("CARGO_BIN_EXE_ablation"),
    env!("CARGO_BIN_EXE_param_sweep"),
];

fn assert_usage_error(bin: &str, args: &[&str], env: Option<&str>, culprit: &str) {
    let mut cmd = Command::new(bin);
    cmd.args(args).env_remove("SADP_SCALE");
    if let Some(v) = env {
        cmd.env("SADP_SCALE", v);
    }
    let out = cmd.output().expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
    assert!(stderr.contains(culprit), "{bin} {args:?}: {stderr}");
    assert!(stderr.contains("usage: "), "{bin} {args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{bin} {args:?} printed a table");
}

#[test]
fn a_missing_or_bad_scale_is_a_usage_error() {
    for bin in BINS {
        assert_usage_error(bin, &["--scale"], None, "--scale needs a value");
        for bad in ["abc", "0", "-0.2"] {
            assert_usage_error(
                bin,
                &["--scale", bad],
                None,
                "--scale needs a positive number",
            );
            assert_usage_error(bin, &[], Some(bad), "SADP_SCALE needs a positive number");
        }
    }
}
