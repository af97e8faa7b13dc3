//! Ablation study of the router's design choices (DESIGN.md §4): each row
//! disables one mechanism and reports the damage on a Test1-family
//! instance.
//!
//! Usage: `ablation [--scale X | --full]`
//!
//! | variant | what is removed |
//! |---------|-----------------|
//! | `full router` | nothing (paper configuration) |
//! | `no color flipping` | Section III-C (greedy colors stay fixed) |
//! | `no T2b penalty` | the γ term of eq. (5) |
//! | `no merge technique` | type 1-b decomposition (the \[16\] handicap) |
//! | `no pin guards` | soft keep-out halos around unrouted pins |
//! | `no preferred dirs` | per-layer direction bias |

use sadp_bench::{args_or_exit, scale_or_exit};
use sadp_core::{Router, RouterConfig};
use sadp_grid::BenchmarkSpec;

fn main() {
    let usage = "ablation [--scale X | --full]";
    let args = args_or_exit(&["--scale"], &["--full"], 0, usage);
    let scale = scale_or_exit(&args, 0.2, usage);
    let spec = BenchmarkSpec::paper_fixed_suite().remove(0).scaled(scale);
    println!(
        "Ablation on {} x{scale} ({} nets)",
        spec.name, spec.net_count
    );
    println!("variant               | Rout.  | overlay  |  #C  | ripups | CPU");
    println!("{}", "-".repeat(72));

    let paper = RouterConfig::paper_defaults();
    let variants: Vec<(&str, RouterConfig)> = vec![
        ("full router", paper.clone()),
        (
            "no color flipping",
            RouterConfig {
                flip_threshold: u64::MAX,
                final_flip: false,
                ..paper.clone()
            },
        ),
        (
            "no T2b penalty",
            RouterConfig {
                gamma: 0.0,
                ..paper.clone()
            },
        ),
        (
            "no merge technique",
            RouterConfig {
                allow_merge: false,
                ..paper.clone()
            },
        ),
        (
            "no pin guards",
            RouterConfig {
                pin_guard: 0.0,
                ..paper.clone()
            },
        ),
        (
            "no preferred dirs",
            RouterConfig {
                wrong_way: 1.0,
                ..paper.clone()
            },
        ),
    ];

    for (name, config) in variants {
        let (mut plane, netlist) = spec.generate();
        let mut router = Router::new(config);
        let report = router.route_all(&mut plane, &netlist);
        println!(
            "{name:21} | {:5.1}% | {:8} | {:4} | {:6} | {:6.2}s",
            report.routability(),
            report.overlay_units,
            report.cut_conflicts,
            report.ripups,
            report.cpu.as_secs_f64()
        );
    }
}
