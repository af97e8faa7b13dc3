//! Regenerates Table III: the fixed-pin suite Test1–Test5, our router vs
//! the trim baseline \[11\] (Gao & Pan) and the cut baseline \[16\].
//!
//! Usage: `table3 [--scale X | --full]` (default scale 0.2). Baselines get
//! a per-circuit wall-clock budget scaled with the instance.

use sadp_baselines::BaselineKind;
use sadp_bench::{args_or_exit, run_baseline, run_ours, scale_or_exit, RunRow};
use sadp_grid::BenchmarkSpec;
use std::time::Duration;

fn main() {
    let usage = "table3 [--scale X | --full]";
    let args = args_or_exit(&["--scale"], &["--full"], 0, usage);
    let scale = scale_or_exit(&args, 0.2, usage);
    println!("Table III: fixed-pin benchmarks (scale {scale})");
    println!("circuit    nets | router                 | Rout.  | overlay  |  #C  | CPU");
    println!("{}", "-".repeat(84));

    // (router, routability sum, circuits, overlay, conflicts, cpu)
    let mut totals: Vec<(String, f64, u32, u64, u64, f64)> = Vec::new();
    for spec in BenchmarkSpec::paper_fixed_suite() {
        let spec = spec.scaled(scale);
        let ours = run_ours(&spec);
        let budget = Duration::from_secs_f64(60.0 + 600.0 * scale);
        let gp = run_baseline(BaselineKind::GaoPanTrim, &spec, Some(budget));
        let cut = run_baseline(BaselineKind::CutNoMerge, &spec, Some(budget));
        for row in [&ours, &gp, &cut] {
            println!("{}", row.formatted());
            accumulate(&mut totals, row);
        }
        println!("{}", "-".repeat(84));
    }

    println!("\nTotals across the suite:");
    println!("router                 | Rout.  | overlay  |  #C  | CPU");
    for (name, rout_sum, circuits, overlay, conflicts, cpu) in &totals {
        let mean = rout_sum / f64::from((*circuits).max(1));
        println!("{name:22} | {mean:5.1}% | {overlay:8} | {conflicts:4} | {cpu:8.2}s");
    }
    if let (Some(ours), Some(gp)) = (
        totals.iter().find(|t| t.0.starts_with("ours")),
        totals.iter().find(|t| t.0.contains("[11]")),
    ) {
        if ours.3 > 0 {
            println!(
                "\noverlay reduction vs [11]: {:.1}% (paper: >90%), conflicts: {} vs {}",
                100.0 * (1.0 - ours.3 as f64 / gp.3.max(1) as f64),
                ours.4,
                gp.4
            );
        }
    }
}

fn accumulate(totals: &mut Vec<(String, f64, u32, u64, u64, f64)>, row: &RunRow) {
    if row.timed_out {
        return;
    }
    let entry = totals.iter_mut().find(|t| t.0 == row.router);
    let routability = row.report.routability();
    match entry {
        Some(t) => {
            t.1 += routability;
            t.2 += 1;
            t.3 += row.report.overlay_units;
            t.4 += row.report.cut_conflicts;
            t.5 += row.report.cpu.as_secs_f64();
        }
        None => totals.push((
            row.router.clone(),
            routability,
            1,
            row.report.overlay_units,
            row.report.cut_conflicts,
            row.report.cpu.as_secs_f64(),
        )),
    }
}
