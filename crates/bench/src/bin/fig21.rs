//! Regenerates Figs. 21 and 22: a partial routing result containing an
//! odd cycle that only the merge-and-cut technique can decompose.
//!
//! Our router merges the collinear pair on the core mask and separates it
//! with a cut (Fig. 21, side overlays ≤ 1 unit); the cut baseline \[16\]
//! lacks the merge technique and must detour or leave conflicts (Fig. 22).

use sadp_baselines::{BaselineKind, BaselineRouter};
use sadp_bench::{args_or_exit, flag_or_exit};
use sadp_core::{Router, RouterConfig};
use sadp_decomp::{render_ascii, render_svg, ColoredPattern, CutSimulator};
use sadp_geom::{DesignRules, GridPoint, Layer};
use sadp_grid::{Netlist, RoutingPlane};

fn netlist() -> (RoutingPlane, Netlist) {
    // A single metal layer keeps the whole demonstration on M1, as in the
    // paper's figure.
    let plane = RoutingPlane::new(1, 24, 16, DesignRules::node_10nm()).expect("valid dims");
    let mut nl = Netlist::new();
    let p = |x, y| GridPoint::new(Layer(0), x, y);
    // A and B collinear tip-to-tip at minimum spacing, C alongside both:
    // A-C and B-C must differ (type 1-a), A-B must match (type 1-b) — a
    // cycle only the cut process can decompose, by merging A and B.
    nl.add_two_pin("A", p(2, 5), p(6, 5));
    nl.add_two_pin("B", p(7, 5), p(12, 5));
    nl.add_two_pin("C", p(2, 6), p(12, 6));
    (plane, nl)
}

fn render(
    patterns: Vec<(u32, sadp_scenario::Color, Vec<sadp_geom::TrackRect>)>,
    svg_path: Option<&str>,
) {
    if patterns.is_empty() {
        println!("  (no routed patterns on M1)");
        return;
    }
    let pats: Vec<ColoredPattern> = patterns
        .into_iter()
        .map(|(net, color, rects)| ColoredPattern::new(net, color, rects))
        .collect();
    let sim = CutSimulator::new(DesignRules::node_10nm());
    let decomp = sim.run(&pats);
    println!(
        "  side overlay: {} units, hard runs: {}, cut conflicts: {}",
        decomp.report.side_overlay_units(),
        decomp.report.hard_overlay_runs,
        decomp.report.cut_conflicts
    );
    println!("{}", render_ascii(&decomp, &pats));
    if let Some(path) = svg_path {
        if let Err(e) = std::fs::write(path, render_svg(&decomp, &pats)) {
            eprintln!("fig21: cannot write {path}: {e}");
            std::process::exit(1);
        }
        println!("  (SVG written to {path})");
    }
}

fn main() {
    // `--svg DIR` additionally writes fig21.svg / fig22.svg into DIR.
    let usage = "fig21 [--svg DIR]";
    let args = args_or_exit(&["--svg"], &[], 0, usage);
    let svg_dir = args
        .iter()
        .any(|a| a == "--svg")
        .then(|| flag_or_exit::<String>(&args, "--svg", String::new(), usage));
    let svg = |name: &str| svg_dir.as_ref().map(|d| format!("{d}/{name}"));

    println!("Fig. 21: our router — odd cycle decomposed by merge-and-cut");
    let (mut plane, nl) = netlist();
    let config = RouterConfig {
        pin_guard: 0.0,
        ..RouterConfig::paper_defaults()
    };
    let mut router = Router::new(config);
    let report = router.route_all(&mut plane, &nl);
    println!(
        "  routed {}/{} nets, overlay {} units, {} conflicts",
        report.routed_nets, report.total_nets, report.overlay_units, report.cut_conflicts
    );
    render(
        router.patterns_on_layer(Layer(0)),
        svg("fig21.svg").as_deref(),
    );

    println!("Fig. 22: baseline [16] — no merge technique available");
    let (mut plane, nl) = netlist();
    let mut baseline = BaselineRouter::new(BaselineKind::CutNoMerge);
    let report = baseline.route_all(&mut plane, &nl);
    println!(
        "  routed {}/{} nets, overlay {} units, {} conflicts",
        report.routed_nets, report.total_nets, report.overlay_units, report.cut_conflicts
    );
    render(
        baseline.patterns_on_layer(Layer(0)),
        svg("fig22.svg").as_deref(),
    );
}
