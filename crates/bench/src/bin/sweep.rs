//! Congestion sweep (extension study, not in the paper): routability,
//! overlay and rip-up effort as functions of net density, for our router
//! and the two Table III baselines.
//!
//! Usage: `sweep [--nets N] [--seed S]` — the die area is held at the
//! Test1 aspect while the net count sweeps a density range.

use sadp_baselines::{BaselineKind, BaselineRouter};
use sadp_bench::{args_or_exit, flag_or_exit};
use sadp_core::{Router, RouterConfig};
use sadp_grid::BenchmarkSpec;

fn main() {
    let usage = "sweep [--nets N] [--seed S]";
    let args = args_or_exit(&["--nets", "--seed"], &[], 0, usage);
    let base: usize = flag_or_exit(&args, "--nets", 220, usage);
    let seed: u64 = flag_or_exit(&args, "--seed", 2024, usage);

    println!("Density sweep on a 64x64-track 3-layer block (seed {seed})");
    println!(
        "{:>6} | {:>24} | {:>6} | {:>8} | {:>5} | {:>7}",
        "nets", "router", "Rout.", "overlay", "#C", "ripups"
    );
    println!("{}", "-".repeat(72));
    for factor in [50u32, 75, 100, 125, 150] {
        let nets = base * factor as usize / 100;
        let spec = BenchmarkSpec::new(format!("d{factor}"), nets, 64, 64).with_seed(seed);

        let (mut plane, netlist) = spec.generate();
        let mut ours = Router::new(RouterConfig::paper_defaults());
        let r = ours.route_all(&mut plane, &netlist);
        println!(
            "{:>6} | {:>24} | {:5.1}% | {:8} | {:5} | {:7}",
            nets,
            "ours",
            r.routability(),
            r.overlay_units,
            r.cut_conflicts,
            r.ripups
        );
        for kind in [BaselineKind::GaoPanTrim, BaselineKind::CutNoMerge] {
            let (mut plane, netlist) = spec.generate();
            let mut b = BaselineRouter::new(kind);
            let r = b.route_all(&mut plane, &netlist);
            println!(
                "{:>6} | {:>24} | {:5.1}% | {:8} | {:5} | {:7}",
                nets,
                kind.name(),
                r.routability(),
                r.overlay_units,
                r.cut_conflicts,
                r.ripups
            );
        }
        println!("{}", "-".repeat(72));
    }
    println!("expected shape: our routability degrades gracefully with density");
    println!("while the baselines' conflict counts explode.");
}
