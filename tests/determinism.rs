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

/// Routes `spec` under a tracing recorder and returns the report plus the
/// serialized event stream. Timing stays off so the report's stage
/// profile holds only deterministic counts.
fn route_traced(spec: &BenchmarkSpec) -> (RoutingReport, String) {
    let (mut plane, netlist) = spec.generate();
    let mut router = Router::new(RouterConfig::paper_defaults());
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
        route_config(&spec, config),
        "budget-degraded run diverged"
    );
    // The clean run routes strictly more than the starved one.
    let clean = route_config(&spec, RouterConfig::paper_defaults());
    assert!(clean.0.routed_nets > starved.0.routed_nets);
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
    let (blocking, trace) = route_traced(&spec);
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
