//! A table or figure binary given a bad scale, a flag without a usable
//! value, a flag it does not declare or an argument too many must refuse
//! to run, not fall back to some default instance: it prints the error
//! and its usage line and exits 2, before any routing starts.

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

#[test]
fn a_missing_or_bad_flag_value_is_a_usage_error() {
    let table4 = env!("CARGO_BIN_EXE_table4");
    let sweep = env!("CARGO_BIN_EXE_sweep");
    assert_usage_error(table4, &["--du-budget"], None, "--du-budget needs a value");
    assert_usage_error(
        table4,
        &["--du-budget", "abc"],
        None,
        "--du-budget needs a number",
    );
    assert_usage_error(
        table4,
        &["--du-budget", "-5"],
        None,
        "--du-budget needs a non-negative",
    );
    assert_usage_error(sweep, &["--nets"], None, "--nets needs a value");
    assert_usage_error(sweep, &["--nets", "many"], None, "--nets needs a number");
    assert_usage_error(sweep, &["--seed", "x1"], None, "--seed needs a number");
    assert_usage_error(sweep, &["--seed"], None, "--seed needs a value");
    let fig21 = env!("CARGO_BIN_EXE_fig21");
    assert_usage_error(fig21, &["--svg"], None, "--svg needs a value");
}

#[test]
fn a_bad_seed_count_is_a_usage_error() {
    let fuzz = env!("CARGO_BIN_EXE_fuzz");
    assert_usage_error(fuzz, &["lots"], None, "SEEDS needs a number");
}

#[test]
fn an_unknown_flag_or_a_stray_argument_is_a_usage_error() {
    let every_bin = [
        env!("CARGO_BIN_EXE_ablation"),
        env!("CARGO_BIN_EXE_fig20"),
        env!("CARGO_BIN_EXE_fig21"),
        env!("CARGO_BIN_EXE_fig_appendix"),
        env!("CARGO_BIN_EXE_fuzz"),
        env!("CARGO_BIN_EXE_param_sweep"),
        env!("CARGO_BIN_EXE_sweep"),
        env!("CARGO_BIN_EXE_table2"),
        env!("CARGO_BIN_EXE_table3"),
        env!("CARGO_BIN_EXE_table4"),
    ];
    for bin in every_bin {
        assert_usage_error(
            bin,
            &["--bogus-flag", "3"],
            None,
            "unknown flag --bogus-flag",
        );
    }
    // A typo for `--nets` must not run the default sweep.
    let sweep = env!("CARGO_BIN_EXE_sweep");
    assert_usage_error(sweep, &["--net", "5"], None, "unknown flag --net");
    let table3 = env!("CARGO_BIN_EXE_table3");
    assert_usage_error(table3, &["0.2"], None, "unexpected argument 0.2");
    let fuzz = env!("CARGO_BIN_EXE_fuzz");
    assert_usage_error(fuzz, &["5", "6"], None, "unexpected argument 6");
}
