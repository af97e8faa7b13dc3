//! Regenerates Table IV: the multiple-pin-candidate suite Test6–Test10,
//! our router vs baseline \[10\] (Du et al.), with the paper's reference
//! numbers printed alongside.
//!
//! Usage: `table4 [--scale X | --full] [--du-budget SECS]`.

use sadp_baselines::BaselineKind;
use sadp_bench::{run_baseline, run_ours, scale_or_exit, PaperRow, TABLE4_DU, TABLE4_OURS};
use sadp_grid::BenchmarkSpec;
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = scale_or_exit(&args, 0.2, "table4 [--scale X | --full] [--du-budget SECS]");
    let du_budget = args
        .iter()
        .position(|a| a == "--du-budget")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(120.0 + 600.0 * scale);

    println!("Table IV: multiple-pin-candidate benchmarks (scale {scale})");
    println!("circuit    nets | router                 | Rout.  | overlay  |  #C  | CPU");
    println!("{}", "-".repeat(84));

    let mut speedups: Vec<f64> = Vec::new();
    for (i, spec) in BenchmarkSpec::paper_multi_suite().into_iter().enumerate() {
        let spec = spec.scaled(scale);
        let ours = run_ours(&spec);
        let du = run_baseline(
            BaselineKind::DuTrim,
            &spec,
            Some(Duration::from_secs_f64(du_budget)),
        );
        println!("{}", ours.formatted());
        println!("{}", du.formatted());
        if !du.timed_out && ours.report.cpu.as_secs_f64() > 0.0 {
            speedups.push(du.report.cpu.as_secs_f64() / ours.report.cpu.as_secs_f64());
        }
        print_paper_reference(&TABLE4_OURS[i], "paper ours");
        print_paper_reference(&TABLE4_DU[i], "paper [10]");
        println!("{}", "-".repeat(84));
    }
    if !speedups.is_empty() {
        let mean = speedups.iter().sum::<f64>() / speedups.len() as f64;
        println!("measured mean speedup vs [10]: {mean:.0}x (paper: 2520x; grows with size)");
    }
}

fn print_paper_reference(row: &PaperRow, label: &str) {
    let fmt_opt_f = |v: Option<f64>| v.map_or("NA".into(), |x| format!("{x:5.1}"));
    let fmt_opt_u = |v: Option<u64>| v.map_or("NA".into(), |x| x.to_string());
    println!(
        "  ({label:10}: Rout {}%, overlay {}, #C {}, CPU {}s)",
        fmt_opt_f(row.routability),
        fmt_opt_u(row.overlay),
        fmt_opt_u(row.conflicts),
        fmt_opt_f(row.cpu_s),
    );
}
