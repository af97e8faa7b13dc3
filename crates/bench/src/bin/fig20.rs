//! Regenerates Fig. 20: our router's runtime as a function of the net
//! count, with the least-squares power-law exponent (paper: ≈ n^1.42).
//!
//! Usage: `fig20 [--scale X | --full] [--check]`.
//!
//! With `--check` the run doubles as the scaling regression gate: it exits
//! nonzero if the fitted exponent exceeds
//! [`sadp_bench::scaling::MAX_EXPONENT`] or any circuit reports a cut
//! conflict, so CI catches superlinear regressions in the routing hot
//! path.

use sadp_bench::scaling::{check_scaling, ScalingPoint};
use sadp_bench::{fit_power_law, paper::FIG20_EXPONENT, run_ours, scale_or_exit};
use sadp_grid::BenchmarkSpec;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = scale_or_exit(&args, 0.2, "fig20 [--scale X | --full] [--check]");
    let check = args.iter().any(|a| a == "--check");
    println!("Fig. 20: running time vs number of nets (scale {scale})");
    println!(
        "{:>8} | {:>10} | {:>8} | {:>8} | {:>4}",
        "nets", "cpu (s)", "rout %", "overlay", "#C"
    );

    let mut points = Vec::new();
    for spec in BenchmarkSpec::paper_fixed_suite() {
        let spec = spec.scaled(scale);
        let row = run_ours(&spec);
        let secs = row.report.cpu.as_secs_f64();
        println!(
            "{:>8} | {:>10.3} | {:>8.1} | {:>8} | {:>4}",
            row.nets,
            secs,
            row.report.routability(),
            row.report.overlay_units,
            row.report.cut_conflicts
        );
        points.push(ScalingPoint {
            nets: row.nets,
            seconds: secs,
            cut_conflicts: row.report.cut_conflicts,
        });
    }

    let xy: Vec<(f64, f64)> = points.iter().map(|p| (p.nets as f64, p.seconds)).collect();
    let (k, c) = fit_power_law(&xy);
    println!("\nleast-squares fit: T(n) = {c:.3e} * n^{k:.2}");
    println!("paper reports n^{FIG20_EXPONENT} on its benchmark suite");

    if check {
        match check_scaling(&points) {
            Ok(summary) => println!("scaling check OK: {summary}"),
            Err(why) => {
                eprintln!("scaling check FAILED: {why}");
                std::process::exit(1);
            }
        }
    }
}
