//! Fuzz-oracle throughput benchmark: how fast the nightly gate burns
//! through seeds, per regime.
//!
//! The nightly workflow budgets `--seeds 500` across all five regimes;
//! this bin measures what that costs (instances/s and routed nets/s per
//! regime, oracle without the baseline check) so the budget can be tuned
//! against CI wall-clock. Usage:
//!
//! ```text
//! cargo run --release -p sadp-bench --bin fuzz [SEEDS]
//! ```

use sadp_bench::{args_or_exit, parse_or_exit};
use sadp_fuzz::{check_instance, generate, OracleConfig, Regime};
use std::time::Instant;

fn main() {
    let usage = "fuzz [SEEDS]";
    let args = args_or_exit(&[], &[], 1, usage);
    let seeds: u64 = args
        .first()
        .map_or(25, |v| parse_or_exit("SEEDS", v, usage));
    // Our router's oracle only: the baseline cross-check routes the
    // instance a second time with another router.
    let cfg = OracleConfig {
        baseline: false,
        ..OracleConfig::default()
    };

    println!("fuzz-oracle throughput, {seeds} seeds per regime");
    println!(
        "{:<12} {:>8} {:>8} {:>9} {:>11} {:>11}",
        "regime", "nets", "routed", "wall s", "inst/s", "nets/s"
    );
    let mut grand_nets = 0usize;
    let mut grand_routed = 0usize;
    let t_all = Instant::now();
    for regime in Regime::ALL {
        let mut nets = 0usize;
        let mut routed = 0usize;
        let t = Instant::now();
        for seed in 0..seeds {
            let inst = generate(regime, seed);
            nets += inst.netlist.len();
            match check_instance(&inst, &cfg) {
                Ok(stats) => routed += stats.routed,
                Err(v) => {
                    eprintln!(
                        "{} seed {seed}: {}: {}",
                        regime.name(),
                        v.invariant.name(),
                        v.detail
                    );
                    std::process::exit(1);
                }
            }
        }
        let dt = t.elapsed().as_secs_f64();
        println!(
            "{:<12} {:>8} {:>8} {:>9.2} {:>11.1} {:>11.0}",
            regime.name(),
            nets,
            routed,
            dt,
            seeds as f64 / dt,
            nets as f64 / dt
        );
        grand_nets += nets;
        grand_routed += routed;
    }
    let dt = t_all.elapsed().as_secs_f64();
    println!(
        "{:<12} {:>8} {:>8} {:>9.2} {:>11.1} {:>11.0}",
        "total",
        grand_nets,
        grand_routed,
        dt,
        (seeds as usize * Regime::ALL.len()) as f64 / dt,
        grand_nets as f64 / dt
    );
}
