//! Routing → pixel decomposition: the router's outputs must survive the
//! independent mask-synthesis oracle.

use sadp::decomp::{ColoredPattern, CutSimulator};
use sadp::prelude::*;
use sadp_grid::BenchmarkSpec;

fn decompose_layer(router: &Router, layer: Layer) -> Option<sadp::decomp::Decomposition> {
    let patterns: Vec<ColoredPattern> = router
        .patterns_on_layer(layer)
        .into_iter()
        .map(|(net, color, rects)| ColoredPattern::new(net, color, rects))
        .collect();
    if patterns.is_empty() {
        return None;
    }
    let sim = CutSimulator::new(DesignRules::node_10nm());
    Some(sim.run(&patterns))
}

#[test]
fn small_benchmark_decomposes_without_destroying_targets() {
    let spec = BenchmarkSpec::paper_fixed_suite().remove(0).scaled(0.04);
    let (mut plane, netlist) = spec.generate();
    let mut router = Router::new(RouterConfig::paper_defaults());
    let report = router.route_all(&mut plane, &netlist);
    assert_eq!(report.cut_conflicts, 0);

    for layer in 0..3 {
        let Some(d) = decompose_layer(&router, Layer(layer)) else {
            continue;
        };
        // The spacer must never overlap a target pattern: every routed
        // wire prints.
        assert_eq!(
            d.report.spacer_violations,
            0,
            "layer M{} destroys targets",
            layer + 1
        );
    }
}

#[test]
fn parallel_bus_decomposes_cleanly() {
    // An alternating 6-wire bus: the canonical SADP use case must produce
    // zero overlay and zero conflicts end to end.
    let mut plane = RoutingPlane::new(1, 40, 24, DesignRules::node_10nm()).unwrap();
    let mut netlist = Netlist::new();
    for i in 0..6 {
        netlist.add_two_pin(
            format!("bus{i}"),
            GridPoint::new(Layer(0), 4, 6 + i),
            GridPoint::new(Layer(0), 34, 6 + i),
        );
    }
    let mut router = Router::new(RouterConfig {
        pin_guard: 0.0,
        ..RouterConfig::paper_defaults()
    });
    let report = router.route_all(&mut plane, &netlist);
    assert_eq!(report.routed_nets, 6);
    assert_eq!(report.overlay_units, 0, "an alternating bus has no overlay");

    let d = decompose_layer(&router, Layer(0)).expect("patterns exist");
    assert_eq!(d.report.side_overlay_px, 0);
    assert!(d.report.is_clean());

    // Colors must alternate along the bus.
    let colors: Vec<_> = (0..6)
        .map(|i| router.color_of(NetId(i), Layer(0)).expect("routed"))
        .collect();
    for w in colors.windows(2) {
        assert_ne!(w[0], w[1], "adjacent bus wires share a mask");
    }
}

#[test]
fn tip_to_side_layout_measures_one_unit() {
    // A T-shaped meeting: the unavoidable type 2-b scenario must measure
    // exactly one friendly unit in the simulator when colored same.
    let mut plane = RoutingPlane::new(1, 24, 24, DesignRules::node_10nm()).unwrap();
    let mut netlist = Netlist::new();
    netlist.add_two_pin(
        "bar",
        GridPoint::new(Layer(0), 2, 4),
        GridPoint::new(Layer(0), 20, 4),
    );
    netlist.add_two_pin(
        "stem",
        GridPoint::new(Layer(0), 10, 6),
        GridPoint::new(Layer(0), 10, 18),
    );
    let mut router = Router::new(RouterConfig {
        pin_guard: 0.0,
        ..RouterConfig::paper_defaults()
    });
    let report = router.route_all(&mut plane, &netlist);
    assert_eq!(report.routed_nets, 2);

    let d = decompose_layer(&router, Layer(0)).expect("patterns exist");
    assert!(d.report.side_overlay_units() <= 2);
    assert_eq!(d.report.hard_overlay_runs, 0);
    assert_eq!(d.report.cut_conflicts, 0);
}

/// The router's cut repair reads [`CutSimulator::conflicts`]; on every
/// layer of each committed `.layout` design after routing, and on seeded
/// recolorings of it that do conflict, that pass must report what the
/// full pass does.
#[test]
fn conflicts_pass_matches_the_full_pass_on_routed_fixtures() {
    let mut designs: Vec<std::path::PathBuf> = ["fixtures", "fixtures/corpus"]
        .iter()
        .flat_map(|d| std::fs::read_dir(d).expect("fixture dir").flatten())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "layout"))
        .collect();
    designs.sort();
    assert!(designs.len() >= 8, "committed designs: {designs:?}");
    let mut rng = sadp::geom::Rng::seed_from_u64(0xf1c7);
    let mut recolored_conflicts = 0;
    for design in &designs {
        let text = std::fs::read_to_string(design).expect("fixture readable");
        let (mut plane, netlist) = sadp::grid::read_layout(&text).expect("fixture parses");
        let sim = CutSimulator::new(*plane.rules());
        let mut router = Router::new(RouterConfig::paper_defaults());
        router.route_all(&mut plane, &netlist);
        for l in 0..plane.layers() {
            let pats: Vec<ColoredPattern> = router
                .patterns_on_layer(Layer(l))
                .into_iter()
                .map(|(net, color, rects)| ColoredPattern::new(net, color, rects))
                .collect();
            if pats.is_empty() {
                continue;
            }
            for round in 0..5 {
                let mut pats = pats.clone();
                if round > 0 {
                    for p in &mut pats {
                        if rng.flip() {
                            p.color = p.color.flipped();
                        }
                    }
                }
                let (full, fast) = (sim.run(&pats), sim.conflicts(&pats));
                let at = format!("{} M{} round {round}", design.display(), l + 1);
                assert_eq!(fast.cells, full.conflict_cells(), "{at}");
                assert_eq!(fast.cut_conflicts, full.report.cut_conflicts, "{at}");
                assert_eq!(
                    fast.spacer_violations, full.report.spacer_violations,
                    "{at}"
                );
                if round == 0 {
                    assert!(fast.cells.is_empty(), "{at}: the routed layout conflicts");
                } else {
                    recolored_conflicts += fast.cut_conflicts;
                }
            }
        }
    }
    assert!(
        recolored_conflicts > 0,
        "the recolorings must exercise conflicts"
    );
}

/// A via pad pinned on its pin cell keeps its cut conflict however often
/// its own net is re-routed; only widening the rip-up to the dependence
/// radius around that stuck cell moves the neighbours that cause it. A
/// repair without the widening still ends conflict-free, but by giving a
/// net up, so the route count is the check here.
#[test]
fn a_stuck_conflict_is_repaired_without_giving_a_net_up() {
    let text = std::fs::read_to_string("fixtures/corpus/dense-clock-pad-assist-merge.layout")
        .expect("fixture readable");
    let (mut plane, netlist) = sadp::grid::read_layout(&text).expect("fixture parses");
    let mut router = Router::new(RouterConfig::paper_defaults());
    let report = router.route_all(&mut plane, &netlist);
    assert_eq!(report.routed_nets, 4, "{report}");
    assert!(router.failed().is_empty());
    for l in 0..plane.layers() {
        let d = decompose_layer(&router, Layer(l)).expect("every layer is used");
        assert!(d.report.is_clean(), "M{}: {:?}", l + 1, d.report);
    }
}
