//! The parallel driver's determinism contract: for any thread count the
//! routed result is *identical* to the serial run — same report, same
//! paths, same colors, same failures. The band partition, the boundary
//! nets' place in the serial tail, and the commit order depend only on
//! the plane geometry and the netlist, never on scheduling.

use sadp::core::FaultPlan;
use sadp::grid::{BandPlan, BenchmarkSpec};
use sadp::obs::events_to_jsonl;
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

/// Routes `spec` with `threads` workers and returns everything observable.
fn route_with(spec: &BenchmarkSpec, threads: usize) -> RunResult {
    let mut config = RouterConfig::paper_defaults();
    config.threads = threads;
    route_config(spec, config)
}

#[test]
fn sharded_run_is_byte_identical_to_serial() {
    // Wide enough for a multi-band partition: this is the parallel path,
    // not the single-band fast path.
    let spec = BenchmarkSpec::new("det-wide", 110, 400, 120).with_seed(11);
    let halo = sadp::scenario::interaction_radius_tracks(&DesignRules::node_10nm());
    assert!(
        BandPlan::for_plane(spec.width_tracks, halo).len() >= 2,
        "fixture must exercise the banded schedule"
    );

    let serial = route_with(&spec, 1);
    for threads in [2, 4] {
        let sharded = route_with(&spec, threads);
        assert_eq!(serial.0, sharded.0, "report diverged at threads={threads}");
        assert_eq!(
            serial.1, sharded.1,
            "patterns/colors diverged at threads={threads}"
        );
        assert_eq!(
            serial.2, sharded.2,
            "failed nets diverged at threads={threads}"
        );
        assert_eq!(
            serial.3, sharded.3,
            "plane occupancy diverged at threads={threads}"
        );
    }
    // The conflict-free guarantee holds for the parallel path too.
    assert_eq!(serial.0.cut_conflicts, 0);
    assert_eq!(serial.0.hard_overlay_violations, 0);
    assert!(serial.0.routed_nets > 0);
}

/// Routes `spec` with `threads` workers under a tracing recorder and
/// returns the report plus the serialized event stream. Timing stays off
/// so the report's stage profile holds only deterministic counts.
fn route_traced(spec: &BenchmarkSpec, threads: usize) -> (RoutingReport, String) {
    let (mut plane, netlist) = spec.generate();
    let mut config = RouterConfig::paper_defaults();
    config.threads = threads;
    let mut router = Router::new(config);
    let mut rec = BufferRecorder::with_flags(true, false);
    let mut report = router.route_all_with(&mut plane, &netlist, &mut rec);
    report.cpu = Duration::ZERO;
    (report, events_to_jsonl(&rec.take_events()))
}

#[test]
fn report_counters_identical_across_thread_counts() {
    // Band workers count into private ledgers that `merge_band` folds into
    // the global one; every counter must come out equal to the serial run.
    let spec = BenchmarkSpec::new("det-wide", 110, 400, 120).with_seed(11);
    let (serial, _) = route_traced(&spec, 1);
    let (sharded, _) = route_traced(&spec, 4);
    assert_eq!(serial.ripups, sharded.ripups);
    assert_eq!(serial.ripups_type_b, sharded.ripups_type_b);
    assert_eq!(serial.ripups_graph, sharded.ripups_graph);
    assert_eq!(serial.ripups_risk, sharded.ripups_risk);
    assert_eq!(serial.failed_no_path, sharded.failed_no_path);
    assert_eq!(serial.failed_exhausted, sharded.failed_exhausted);
    assert_eq!(serial.failed_cleanup, sharded.failed_cleanup);
    assert_eq!(serial.flips, sharded.flips);
    assert_eq!(serial.nodes_expanded, sharded.nodes_expanded);
    assert_eq!(serial.color_fallbacks, sharded.color_fallbacks);
    // Stage work counts are part of the contract too (times are zero here
    // because timing is off, so whole-profile equality is meaningful).
    assert_eq!(serial.profile, sharded.profile);
    assert_eq!(serial, sharded, "full reports diverged");
}

#[test]
fn trace_is_byte_identical_across_thread_counts() {
    // Events carry only logical routing facts and band buffers are
    // replayed in band order, so the JSONL stream is byte-stable.
    let spec = BenchmarkSpec::new("det-wide", 110, 400, 120).with_seed(11);
    let (_, serial) = route_traced(&spec, 1);
    let (_, sharded) = route_traced(&spec, 2);
    assert!(!serial.is_empty(), "trace should record events");
    assert!(serial
        .lines()
        .any(|l| l.contains("\"event\":\"net_routed\"")));
    assert_eq!(serial, sharded, "event streams diverged");
}

/// Routes `spec` with `threads` workers and the fault plan for `seed`.
fn route_faulted(spec: &BenchmarkSpec, threads: usize, seed: u64) -> RunResult {
    let mut config = RouterConfig::paper_defaults();
    config.threads = threads;
    config.faults = Some(FaultPlan::new(seed));
    route_config(spec, config)
}

#[test]
fn injected_band_panics_recover_to_the_clean_result() {
    // The recovery contract: a band worker that panics is re-routed on
    // the serial fallback, and the final output is byte-identical to a
    // run where the panic never happened — the only trace it leaves is
    // the `bands_recovered` counter.
    let spec = BenchmarkSpec::new("det-wide", 110, 400, 120).with_seed(11);
    let clean = route_with(&spec, 1);

    // Find a fault seed that panics at least one band worker without
    // also injecting budget faults (those legitimately change the
    // result, so they would muddy the comparison).
    let seed = (0..32u64)
        .find(|&s| {
            let r = route_faulted(&spec, 1, s);
            r.0.bands_recovered > 0 && r.0.failed_budget == 0
        })
        .expect("some seed in 0..32 panics a band without budget faults");
    let faulted = route_faulted(&spec, 1, seed);

    // Recovery itself is deterministic across thread counts.
    for threads in [2, 4] {
        assert_eq!(
            faulted,
            route_faulted(&spec, threads, seed),
            "faulted run diverged at threads={threads}"
        );
    }

    // Modulo the recovery counter, the faulted run IS the clean run.
    let mut masked = faulted.clone();
    masked.0.bands_recovered = 0;
    assert_eq!(masked, clean, "recovery altered the routed result");
}

/// Twelve identical-length nets that all straddle the x=200 band edge of
/// a two-band 400-track plane, on twelve rows, so each net's search
/// window (pin bbox grown by `search_margin` 24 per side) overlaps some
/// of the others and misses the rest. No net fits one band: the band
/// phase is empty and every net routes in the serial tail. Equal lengths make the
/// canonical (HPWL, id) order the insertion order.
fn boundary_net_fixture() -> (RoutingPlane, Netlist) {
    let plane = RoutingPlane::new(3, 400, 300, DesignRules::node_10nm()).expect("valid plane");
    let mut nl = Netlist::new();
    let rows: [i32; 12] = [10, 70, 130, 190, 250, 40, 100, 160, 220, 280, 25, 85];
    for (i, &y) in rows.iter().enumerate() {
        nl.add_two_pin(
            format!("b{i}"),
            GridPoint::new(Layer(0), 150, y),
            GridPoint::new(Layer(0), 250, y),
        );
    }
    (plane, nl)
}

/// Routes the boundary-net fixture under `config` with a tracing
/// recorder; returns everything observable plus the JSONL event stream.
fn route_boundary(mut config: RouterConfig, threads: usize) -> (RunResult, String) {
    let (mut plane, netlist) = boundary_net_fixture();
    config.threads = threads;
    let mut router = Router::new(config);
    let mut rec = BufferRecorder::with_flags(true, false);
    let mut report = router.route_all_with(&mut plane, &netlist, &mut rec);
    report.cpu = Duration::ZERO;
    let patterns = (0..plane.layers())
        .map(|l| router.patterns_on_layer(Layer(l)))
        .collect();
    (
        (report, patterns, router.failed().to_vec(), plane.usage()),
        events_to_jsonl(&rec.take_events()),
    )
}

/// The `net_routed` lines after the last `band_merged` line of `trace`
/// (all of them when no band folded): the nets of the serial tail.
fn tail_commits(trace: &str) -> usize {
    trace
        .lines()
        .rev()
        .take_while(|l| !l.contains("\"event\":\"band_merged\""))
        .filter(|l| l.contains("\"event\":\"net_routed\""))
        .count()
}

#[test]
fn boundary_nets_are_byte_identical_across_thread_counts() {
    // Boundary nets route in exact canonical order after the band phase,
    // so report, colors, patterns, occupancy AND the full event trace
    // are byte-stable at any worker count.
    let (serial, serial_trace) = route_boundary(RouterConfig::paper_defaults(), 1);
    assert!(serial.0.routed_nets > 0, "fixture must route");

    // Vacuity guards: the plane is banded, and every routed net was
    // committed in the tail after the band phase.
    let halo = sadp::scenario::interaction_radius_tracks(&DesignRules::node_10nm());
    assert!(BandPlan::for_plane(400, halo).len() >= 2, "banded plane");
    assert_eq!(
        tail_commits(&serial_trace),
        serial.0.routed_nets,
        "every routed net must commit in the boundary tail"
    );

    for threads in [2, 4] {
        let (sharded, trace) = route_boundary(RouterConfig::paper_defaults(), threads);
        assert_eq!(
            serial, sharded,
            "boundary run diverged at threads={threads}"
        );
        assert_eq!(
            serial_trace, trace,
            "boundary trace diverged at threads={threads}"
        );
    }
    assert_eq!(serial.0.cut_conflicts, 0);
    assert_eq!(serial.0.hard_overlay_violations, 0);
}

#[test]
fn budget_starved_boundary_nets_fail_identically_across_thread_counts() {
    // Per-net node budgets are charged as boundary nets search at their
    // turn; the budget-starved failure set must be identical at every
    // thread count even when every failing net is a boundary net.
    let mut config = RouterConfig::paper_defaults();
    config.net_node_budget = 40;
    let (starved, starved_trace) = route_boundary(config.clone(), 1);
    assert!(
        starved.0.failed_budget > 0,
        "a 40-node budget should starve boundary nets"
    );
    assert_eq!(
        starved.0.routed_nets + starved.2.len(),
        12,
        "every net is either routed or accounted failed"
    );
    assert_eq!(
        tail_commits(&starved_trace),
        starved.0.routed_nets,
        "every routed net must commit in the boundary tail"
    );
    for threads in [2, 4] {
        let (run, trace) = route_boundary(config.clone(), threads);
        assert_eq!(
            starved, run,
            "budget-starved boundary run diverged at threads={threads}"
        );
        assert_eq!(
            starved_trace, trace,
            "budget-starved trace diverged at threads={threads}"
        );
    }
    // The unstarved run routes strictly more.
    let (clean, _) = route_boundary(RouterConfig::paper_defaults(), 1);
    assert!(clean.0.routed_nets > starved.0.routed_nets);
}

#[test]
fn budget_exhaustion_is_graceful_and_deterministic() {
    // A tiny per-net node budget fails most nets with BudgetExceeded but
    // never aborts the run; node counts are logical, so the degraded
    // result is still byte-identical across thread counts.
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
    for threads in [2, 4] {
        let mut c = config.clone();
        c.threads = threads;
        assert_eq!(
            starved,
            route_config(&spec, c),
            "budget-degraded run diverged at threads={threads}"
        );
    }
    // The clean run routes strictly more than the starved one.
    let clean = route_with(&spec, 1);
    assert!(clean.0.routed_nets > starved.0.routed_nets);
}

#[test]
fn narrow_plane_ignores_thread_count() {
    // Below one band width the driver routes directly on the real plane;
    // extra workers must change nothing.
    let spec = BenchmarkSpec::new("det-narrow", 40, 64, 64).with_seed(7);
    assert_eq!(
        BandPlan::for_plane(
            spec.width_tracks,
            sadp::scenario::interaction_radius_tracks(&DesignRules::node_10nm())
        )
        .len(),
        1
    );
    let serial = route_with(&spec, 1);
    let many = route_with(&spec, 8);
    assert_eq!(serial, many);
}

/// Drives `spec` through a stepwise [`RoutingSession`] in small slices
/// and returns everything observable plus the streamed event JSONL.
fn route_stepped(spec: &BenchmarkSpec, threads: usize, slice: u64) -> (RunResult, String) {
    use sadp::core::{RoutingSession, SessionStatus, StepBudget};
    let (plane, netlist) = spec.generate();
    let mut config = RouterConfig::paper_defaults();
    config.threads = threads;
    let mut session =
        RoutingSession::create(config, plane, netlist, true, false).expect("session creates");
    let mut events = Vec::new();
    let mut report = loop {
        let status = session.advance(StepBudget::steps(slice));
        events.extend(session.drain_events());
        match status {
            SessionStatus::Running | SessionStatus::CheckpointReady => {}
            SessionStatus::Done(report) => break *report,
            SessionStatus::Failed(e) => panic!("session failed: {e}"),
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
fn stepped_session_is_byte_identical_to_blocking_route_at_every_thread_count() {
    // The session pauses only *between* canonical commits, so slicing the
    // run into tiny budgets must change nothing — not the report, not the
    // geometry, not even the trace bytes — at any thread count.
    let spec = BenchmarkSpec::new("det-wide", 110, 400, 120).with_seed(11);
    for threads in [1, 2, 4] {
        let (blocking, trace) = route_traced(&spec, threads);
        let (stepped, stepped_trace) = route_stepped(&spec, threads, 3);
        assert_eq!(
            blocking, stepped.0,
            "stepped report diverged at threads={threads}"
        );
        assert_eq!(
            trace, stepped_trace,
            "stepped trace diverged at threads={threads}"
        );
    }
    // And the stepped runs agree with each other on everything observable.
    let (serial, _) = route_stepped(&spec, 1, 3);
    let (sharded, _) = route_stepped(&spec, 4, 7);
    assert_eq!(serial, sharded, "stepped runs diverged across threads");
}
