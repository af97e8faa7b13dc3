//! The driver's determinism contract: every net routes one at a time, in
//! the canonical shortest-first (HPWL, id) order, so the routed result —
//! report, paths, colors, failures, trace — depends only on the plane and
//! the netlist, never on how the run was sliced into steps.

use sadp::core::{RoutingSession, SessionStatus, StepBudget};
use sadp::grid::{read_layout, BenchmarkSpec};
use sadp::obs::{events_to_jsonl, RouterEvent};
use sadp::prelude::*;
use sadp_geom::TrackRect;
use std::time::Duration;

/// Everything observable about one routed run.
type RunResult = (
    RoutingReport,
    Vec<Vec<(u32, Color, Vec<TrackRect>)>>,
    Vec<NetId>,
    (usize, usize, usize),
);

/// Routes `spec` under `config` and returns everything observable.
fn route_config(spec: &BenchmarkSpec, config: RouterConfig) -> RunResult {
    let (mut plane, netlist) = spec.generate();
    let mut router = Router::new(config);
    let mut report = router.route_all(&mut plane, &netlist);
    // The report compares CPU time too; zero it so only results count.
    report.cpu = Duration::ZERO;
    let patterns = (0..plane.layers())
        .map(|l| router.patterns_on_layer(Layer(l)))
        .collect();
    (report, patterns, router.failed().to_vec(), plane.usage())
}

/// Routes `spec` under `config` and a tracing recorder and returns the
/// report plus the serialized event stream. Timing stays off so the
/// report's stage profile holds only deterministic counts.
fn route_traced(spec: &BenchmarkSpec, config: RouterConfig) -> (RoutingReport, String) {
    let (mut plane, netlist) = spec.generate();
    let mut router = Router::new(config);
    let mut rec = BufferRecorder::with_flags(true, false);
    let mut report = router.route_all_with(&mut plane, &netlist, &mut rec);
    report.cpu = Duration::ZERO;
    (report, events_to_jsonl(&rec.take_events()))
}

#[test]
fn nets_route_in_hpwl_order() {
    // The 471-track corpus design: wide enough that nets far apart on the
    // plane could be routed out of turn, as a column-band schedule did.
    let text = std::fs::read_to_string("fixtures/corpus/multi-band-fault-recovery.layout")
        .expect("fixture readable");
    let (plane, netlist) = read_layout(&text).expect("fixture parses");
    let want = netlist.ids_by_hpwl();
    let mut session =
        RoutingSession::create(RouterConfig::paper_defaults(), plane, netlist, true, false)
            .expect("session creates");
    // Exactly one step per net: the schedule runs dry without starting
    // finalize, whose cleanup re-routes would add later lines.
    let (_, total) = session.progress();
    assert_eq!(total, want.len() as u64, "one step per net");
    assert!(matches!(
        session.advance(StepBudget::steps(total)),
        SessionStatus::Running
    ));
    let order: Vec<NetId> = session
        .drain_events()
        .into_iter()
        .filter_map(|ev| match ev {
            RouterEvent::NetRouted { net, .. } | RouterEvent::NetFailed { net, .. } => {
                Some(NetId(net))
            }
            _ => None,
        })
        .collect();
    assert_eq!(order, want, "nets must route at their HPWL turn");
}

#[test]
fn budget_exhaustion_is_graceful_and_deterministic() {
    // A tiny per-net node budget fails most nets with BudgetExceeded but
    // never aborts the run; node counts are logical, so the degraded
    // result is byte-identical from run to run.
    let spec = BenchmarkSpec::new("det-wide", 110, 400, 120).with_seed(11);
    let mut config = RouterConfig::paper_defaults();
    config.net_node_budget = 40;
    let starved = route_config(&spec, config.clone());
    assert!(
        starved.0.failed_budget > 0,
        "a 40-node budget should starve some nets"
    );
    assert!(
        starved.0.routed_nets + starved.2.len() == spec.net_count,
        "every net is either routed or accounted failed"
    );
    assert_eq!(
        starved,
        route_config(&spec, config.clone()),
        "budget-degraded run diverged"
    );
    // Every failed net is recorded exactly once: the failed list, the sum
    // of the per-reason failure counters and the trace's `net_failed`
    // lines agree.
    let (report, trace) = route_traced(&spec, config);
    let mut failed: Vec<u32> = starved.2.iter().map(|n| n.0).collect();
    failed.sort_unstable();
    failed.dedup();
    assert_eq!(failed.len(), starved.2.len(), "a net failed twice");
    assert_eq!(
        report.failed_no_path
            + report.failed_exhausted
            + report.failed_cleanup
            + report.failed_budget,
        failed.len() as u64,
        "failure counters disagree with the failed list"
    );
    let lines = trace
        .lines()
        .filter(|l| l.starts_with(r#"{"event":"net_failed""#))
        .count();
    assert_eq!(
        lines,
        failed.len(),
        "net_failed lines disagree with the failed list"
    );
    for net in &failed {
        let line = format!(r#"{{"event":"net_failed","net":{net},"#);
        assert_eq!(trace.matches(&line).count(), 1, "net#{net} traced once");
    }
    // The clean run routes strictly more than the starved one.
    let clean = route_config(&spec, RouterConfig::paper_defaults());
    assert!(clean.0.routed_nets > starved.0.routed_nets);
}

/// Routes one net (`pins[0]` to `pins[1]`, then a branch to each later
/// pin) on a 3-layer 32×32 plane whose every layer is walled off along
/// `wall_y`, under a per-net node budget of `net_nodes` (0: unlimited).
/// Returns the report and the serialized trace.
fn route_one_net(pins: &[(i32, i32)], wall_y: i32, net_nodes: u64) -> (RoutingReport, String) {
    let mut plane = RoutingPlane::new(3, 32, 32, DesignRules::node_10nm()).expect("valid plane");
    for l in 0..3 {
        plane.add_blockage(Layer(l), TrackRect::new(0, wall_y, 31, wall_y));
    }
    let pin = |&(x, y): &(i32, i32)| sadp::grid::Pin::fixed(GridPoint::new(Layer(0), x, y));
    let mut netlist = Netlist::new();
    netlist.add_multi_pin("n", pins.iter().map(pin).collect());
    let mut config = RouterConfig::paper_defaults();
    config.net_node_budget = net_nodes;
    let mut router = Router::new(config);
    let mut rec = BufferRecorder::with_flags(true, false);
    let report = router.route_all_with(&mut plane, &netlist, &mut rec);
    (report, events_to_jsonl(&rec.take_events()))
}

#[test]
fn a_branch_search_fails_a_net_for_its_own_reason() {
    const TRUNK: [(i32, i32); 2] = [(2, 5), (12, 5)];
    const BRANCHED: [(i32, i32); 3] = [(2, 5), (12, 5), (7, 15)];
    // The trunk alone needs `trunk` nodes; the branch is reachable.
    let (alone, _) = route_one_net(&TRUNK, 25, 0);
    let trunk = alone.nodes_expanded;
    assert_eq!(alone.routed_nets, 1);
    let (open, _) = route_one_net(&BRANCHED, 25, 0);
    assert_eq!(open.routed_nets, 1, "the branch is reachable");
    assert!(open.nodes_expanded > trunk);

    // A budget the trunk fits but the branch exhausts fails the net as
    // budget_exceeded, not no_path.
    let (alone, _) = route_one_net(&TRUNK, 25, trunk);
    assert_eq!(alone.routed_nets, 1, "the trunk fits a {trunk}-node budget");
    let (starved, trace) = route_one_net(&BRANCHED, 25, trunk);
    assert_eq!(starved.routed_nets, 0);
    assert_eq!((starved.failed_budget, starved.failed_no_path), (1, 0));
    assert!(
        trace.contains(r#""event":"net_failed","net":0,"reason":"budget_exceeded""#),
        "{trace}"
    );

    // A branch pin walled off from the trunk fails the net as no_path.
    let (walled, trace) = route_one_net(&BRANCHED, 10, 0);
    assert_eq!(walled.routed_nets, 0);
    assert_eq!((walled.failed_budget, walled.failed_no_path), (0, 1));
    assert!(
        trace.contains(r#""event":"net_failed","net":0,"reason":"no_path""#),
        "{trace}"
    );
}

/// Drives `spec` through a stepwise [`RoutingSession`] in slices of
/// `slice` steps and returns everything observable plus the streamed
/// event JSONL.
fn route_stepped(spec: &BenchmarkSpec, slice: u64) -> (RunResult, String) {
    let (plane, netlist) = spec.generate();
    let mut session =
        RoutingSession::create(RouterConfig::paper_defaults(), plane, netlist, true, false)
            .expect("session creates");
    let mut events = Vec::new();
    let mut report = loop {
        let status = session.advance(StepBudget::steps(slice));
        events.extend(session.drain_events());
        match status {
            SessionStatus::Running => {}
            SessionStatus::Done(report) => break *report,
            other => panic!("session did not finish: {other:?}"),
        }
    };
    report.cpu = Duration::ZERO;
    let patterns = (0..session.plane().layers())
        .map(|l| session.router().patterns_on_layer(Layer(l)))
        .collect();
    let failed = session.router().failed().to_vec();
    let usage = session.plane().usage();
    ((report, patterns, failed, usage), events_to_jsonl(&events))
}

#[test]
fn stepped_session_is_byte_identical_to_blocking_route_at_every_slice_size() {
    // The session pauses only *between* canonical commits, so slicing the
    // run into tiny budgets must change nothing — not the report, not the
    // geometry, not even the trace bytes.
    let spec = BenchmarkSpec::new("det-wide", 110, 400, 120).with_seed(11);
    let (blocking, trace) = route_traced(&spec, RouterConfig::paper_defaults());
    assert!(trace
        .lines()
        .any(|l| l.contains("\"event\":\"net_routed\"")));
    let (by_three, by_three_trace) = route_stepped(&spec, 3);
    assert_eq!(blocking, by_three.0, "stepped report diverged");
    assert_eq!(trace, by_three_trace, "stepped trace diverged");
    // And stepped runs agree with each other on everything observable.
    let (by_seven, by_seven_trace) = route_stepped(&spec, 7);
    assert_eq!(
        by_three, by_seven,
        "stepped runs diverged across slice sizes"
    );
    assert_eq!(by_three_trace, by_seven_trace);
}
