//! Behavioural tests of the router's mechanisms: merge technique,
//! pin guards, rip-up bookkeeping, ablation switches.

use sadp_core::{Router, RouterConfig, ScenarioCensus};
use sadp_geom::{DesignRules, GridPoint, Layer, TrackRect};
use sadp_grid::{Netlist, RoutingPlane};
use sadp_scenario::ScenarioKind;

fn p0(x: i32, y: i32) -> GridPoint {
    GridPoint::new(Layer(0), x, y)
}

fn channel_plane() -> RoutingPlane {
    // A single-layer 2-track channel: rows 5 and 6 only.
    let mut plane = RoutingPlane::new(1, 24, 16, DesignRules::node_10nm()).unwrap();
    plane.add_blockage(Layer(0), TrackRect::new(0, 0, 23, 4));
    plane.add_blockage(Layer(0), TrackRect::new(0, 7, 23, 15));
    plane
}

fn odd_cycle_netlist() -> Netlist {
    let mut nl = Netlist::new();
    nl.add_two_pin("A", p0(2, 5), p0(6, 5));
    nl.add_two_pin("B", p0(7, 5), p0(12, 5));
    nl.add_two_pin("C", p0(2, 6), p0(12, 6));
    nl
}

fn no_guard() -> RouterConfig {
    RouterConfig {
        pin_guard: 0.0,
        ..RouterConfig::paper_defaults()
    }
}

#[test]
fn merge_technique_resolves_the_channel() {
    let mut plane = channel_plane();
    let mut router = Router::new(no_guard());
    let report = router.route_all(&mut plane, &odd_cycle_netlist());
    assert_eq!(report.routed_nets, 3, "{report}");
    assert_eq!(report.cut_conflicts, 0);
    // A and B are hard-linked same-color (1-b), C differs from both.
    let census = ScenarioCensus::of(&router);
    assert!(census.counts.contains_key(&ScenarioKind::OneB));
    assert!(census.counts.contains_key(&ScenarioKind::OneA));
}

#[test]
fn disabling_merge_reproduces_the_16_handicap() {
    let mut plane = channel_plane();
    let mut router = Router::new(RouterConfig {
        allow_merge: false,
        ..no_guard()
    });
    let report = router.route_all(&mut plane, &odd_cycle_netlist());
    // Without merge-and-cut the tip-to-tip pair cannot exist and the
    // channel leaves no room to detour: one net must fail.
    assert!(report.routed_nets < 3, "{report}");
    assert_eq!(report.cut_conflicts, 0, "conflict-free is still guaranteed");
}

#[test]
fn pin_guards_keep_pin_neighborhoods_clear() {
    // A long net routed first would hug the later net's pin without
    // guards; with guards its route leaves the pin cell approachable.
    let build = |guard: f64| {
        let mut plane = RoutingPlane::new(1, 32, 16, DesignRules::node_10nm()).unwrap();
        let mut nl = Netlist::new();
        // Long net passes right next to `victim`'s source pin.
        nl.add_two_pin("long", p0(1, 6), p0(30, 6));
        nl.add_two_pin("victim", p0(15, 5), p0(15, 2));
        let mut router = Router::new(RouterConfig {
            pin_guard: guard,
            ..RouterConfig::paper_defaults()
        });
        let report = router.route_all(&mut plane, &nl);
        report.routed_nets
    };
    // Both configurations route (rip-up handles the conflict), but the
    // guarded run must never do worse.
    assert!(build(2.0) >= build(0.0));
}

#[test]
fn failed_nets_leave_no_trace() {
    let mut plane = RoutingPlane::new(1, 16, 16, DesignRules::node_10nm()).unwrap();
    // Wall the middle completely.
    plane.add_blockage(Layer(0), TrackRect::new(8, 0, 8, 15));
    let mut nl = Netlist::new();
    nl.add_two_pin("blocked", p0(2, 5), p0(14, 5));
    nl.add_two_pin("fine", p0(2, 8), p0(6, 8));
    let mut router = Router::new(RouterConfig::paper_defaults());
    let report = router.route_all(&mut plane, &nl);
    assert_eq!(report.routed_nets, 1);
    assert_eq!(router.failed().len(), 1);
    // The failed net holds no cells except its reserved pins and no graph
    // vertices.
    for g in router.graphs() {
        assert!(!g.contains(0) || g.neighbors(0).is_empty());
    }
    let (_, _, occupied) = plane.usage();
    // fine's path (5 cells) + reserved pin cells of the failed net (2).
    assert_eq!(occupied, 7);
}

#[test]
fn report_counters_add_up() {
    let mut plane = RoutingPlane::new(3, 48, 48, DesignRules::node_10nm()).unwrap();
    let mut nl = Netlist::new();
    for i in 0..10 {
        nl.add_two_pin(format!("n{i}"), p0(2 + 4 * (i % 5), 2 + i), p0(40, 40 - i));
    }
    let mut router = Router::new(RouterConfig::paper_defaults());
    let report = router.route_all(&mut plane, &nl);
    assert_eq!(
        report.ripups,
        report.ripups_type_b + report.ripups_graph + report.ripups_risk
    );
    assert_eq!(report.total_nets, 10);
    assert!(report.nodes_expanded > 0);
    assert_eq!(
        report.total_nets,
        report.routed_nets + router.failed().len()
    );
}

#[test]
fn via_rich_route_counts_layers() {
    let mut plane = RoutingPlane::new(3, 24, 24, DesignRules::node_10nm()).unwrap();
    // Block all direct planar routes on M1.
    plane.add_blockage(Layer(0), TrackRect::new(10, 0, 10, 23));
    let mut nl = Netlist::new();
    nl.add_two_pin("v", p0(2, 5), p0(20, 5));
    let mut router = Router::new(RouterConfig::paper_defaults());
    let report = router.route_all(&mut plane, &nl);
    assert_eq!(report.routed_nets, 1);
    assert!(report.vias >= 2);
    let routed = router.routed().values().next().unwrap();
    let layers: std::collections::HashSet<u8> = routed.fragments.iter().map(|(l, _)| l.0).collect();
    assert!(layers.len() >= 2, "route uses multiple layers");
}

#[test]
fn rerun_resets_state() {
    let mut nl = Netlist::new();
    nl.add_two_pin("a", p0(2, 2), p0(12, 2));
    let mut router = Router::new(RouterConfig::paper_defaults());
    let mut plane1 = RoutingPlane::new(3, 24, 24, DesignRules::node_10nm()).unwrap();
    let r1 = router.route_all(&mut plane1, &nl);
    let mut plane2 = RoutingPlane::new(3, 24, 24, DesignRules::node_10nm()).unwrap();
    let r2 = router.route_all(&mut plane2, &nl);
    assert_eq!(r1.routed_nets, r2.routed_nets);
    assert_eq!(r1.wirelength, r2.wirelength);
    assert_eq!(router.routed().len(), 1);
}
