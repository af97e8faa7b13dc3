//! Sensitivity of the router to its user-defined parameters (§III-E /
//! §IV: α = β = 1, γ = 1.5, f_threshold = 10, B = 3). Extension study.
//!
//! Usage: `param_sweep [--scale X | --full]` (default 0.15).

use sadp_bench::scale_or_exit;
use sadp_core::{Router, RouterConfig};
use sadp_grid::BenchmarkSpec;

fn run(spec: &BenchmarkSpec, config: RouterConfig) -> (f64, u64, u64, u64) {
    let (mut plane, netlist) = spec.generate();
    let mut router = Router::new(config);
    let r = router.route_all(&mut plane, &netlist);
    (r.routability(), r.overlay_units, r.cut_conflicts, r.ripups)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = scale_or_exit(&args, 0.15, "param_sweep [--scale X | --full]");
    let spec = BenchmarkSpec::paper_fixed_suite().remove(0).scaled(scale);
    println!(
        "Parameter sensitivity on {} x{scale} ({} nets); paper values marked *",
        spec.name, spec.net_count
    );

    println!("\nγ (type 2-b penalty):");
    println!("{:>8} | Rout.  | overlay | ripups", "gamma");
    for gamma in [0.0, 0.5, 1.5, 3.0, 6.0] {
        let (rout, overlay, _, ripups) = run(
            &spec,
            RouterConfig {
                gamma,
                ..RouterConfig::paper_defaults()
            },
        );
        let mark = if gamma == 1.5 { "*" } else { " " };
        println!("{gamma:>7}{mark} | {rout:5.1}% | {overlay:7} | {ripups}");
    }

    println!("\nf_threshold (flip trigger):");
    println!("{:>8} | Rout.  | overlay | ripups", "f");
    for f in [0u64, 5, 10, 40, u64::MAX] {
        let (rout, overlay, _, ripups) = run(
            &spec,
            RouterConfig {
                flip_threshold: f,
                ..RouterConfig::paper_defaults()
            },
        );
        let label = if f == u64::MAX {
            "inf".into()
        } else {
            f.to_string()
        };
        let mark = if f == 10 { "*" } else { " " };
        println!("{label:>7}{mark} | {rout:5.1}% | {overlay:7} | {ripups}");
    }

    println!("\nB (max rip-up iterations):");
    println!("{:>8} | Rout.  | overlay | ripups", "B");
    for b in [0u32, 1, 3, 6, 10] {
        let (rout, overlay, _, ripups) = run(
            &spec,
            RouterConfig {
                max_ripup: b,
                ..RouterConfig::paper_defaults()
            },
        );
        let mark = if b == 3 { "*" } else { " " };
        println!("{b:>7}{mark} | {rout:5.1}% | {overlay:7} | {ripups}");
    }
}
