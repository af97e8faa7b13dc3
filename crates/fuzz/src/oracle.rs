//! The oracle harness: route → decompose → verify, with the full
//! invariant set and the differential checks.
//!
//! The router's headline claim (zero cut conflicts, zero unresolved odd
//! cycles after merge-and-cut) is checked here against the *independent*
//! pixel-simulator oracle [`sadp_decomp::verify_layers`] — the two sides
//! share no conflict-detection code — plus a set of structural invariants
//! that must hold for every input, routable or not.

use crate::generator::FuzzInstance;
use sadp_baselines::{BaselineKind, BaselineRouter};
use sadp_core::checkpoint::fingerprint;
use sadp_core::{
    FaultPlan, RouterConfig, RoutingReport, RoutingSession, SessionError, SessionStatus, Snapshot,
    StepBudget,
};
use sadp_decomp::verify_layers;
use sadp_geom::{Layer, Rng, TrackRect};
use sadp_grid::{Netlist, RoutingPlane};
use sadp_obs::events_to_jsonl;
use sadp_scenario::Color;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// Which invariant a [`Violation`] breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Invariant {
    /// Creating or running the routing session panicked.
    NoPanic,
    /// `RoutingSession::create` rejected an in-range plane, or the
    /// session failed to finish.
    RouterAccepts,
    /// `routed + failed` must partition the netlist, without duplicates,
    /// and every failed net is recorded exactly once: the failed list,
    /// the report's failure counters and the trace's `net_failed` lines
    /// agree.
    NetAccounting,
    /// The report must claim zero hard overlay violations.
    NoHardOverlay,
    /// The report must claim zero cut conflicts (the paper's `#C`).
    NoCutConflicts,
    /// Every routed `(net, layer)` pair must have a color.
    NoColorFallbacks,
    /// Every routed fragment cell must be occupied by its net on the plane.
    OccupancyConsistent,
    /// Each trunk path must be at least as long as the best candidate-pair
    /// Manhattan distance (A* admissibility sanity).
    WirelengthBound,
    /// The decomposition oracle must find zero spacer violations.
    SpacerClean,
    /// The oracle verdict must agree with the report's conflict counters.
    VerdictAgrees,
    /// The baseline router must accept the same instance without
    /// panicking and produce a self-consistent report.
    BaselineSane,
    /// Under an injected [`FaultPlan`] the run must recover: no abort, no
    /// net silently lost, and every injected budget failure counted
    /// exactly once.
    FaultRecovery,
    /// A serial run killed at a seeded step, snapshotted and resumed in
    /// a fresh session must finish exactly like the uninterrupted run:
    /// report (stage profile aside), patterns, failed list, occupancy
    /// and final snapshot bytes.
    ResumeIdentity,
}

impl Invariant {
    /// Stable display name (artifact files, CI logs).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Invariant::NoPanic => "no-panic",
            Invariant::RouterAccepts => "router-accepts",
            Invariant::NetAccounting => "net-accounting",
            Invariant::NoHardOverlay => "no-hard-overlay",
            Invariant::NoCutConflicts => "no-cut-conflicts",
            Invariant::NoColorFallbacks => "no-color-fallbacks",
            Invariant::OccupancyConsistent => "occupancy-consistent",
            Invariant::WirelengthBound => "wirelength-bound",
            Invariant::SpacerClean => "spacer-clean",
            Invariant::VerdictAgrees => "verdict-agrees",
            Invariant::BaselineSane => "baseline-sane",
            Invariant::FaultRecovery => "fault-recovery",
            Invariant::ResumeIdentity => "resume-identity",
        }
    }
}

/// One invariant violation, with human-readable detail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The broken invariant.
    pub invariant: Invariant,
    /// What exactly went wrong.
    pub detail: String,
}

impl Violation {
    fn new(invariant: Invariant, detail: impl Into<String>) -> Violation {
        Violation {
            invariant,
            detail: detail.into(),
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.invariant.name(), self.detail)
    }
}

/// Oracle configuration.
#[derive(Debug, Clone)]
pub struct OracleConfig {
    /// Whether to run the baseline cross-check.
    pub baseline: bool,
    /// When set, additionally route the instance under the
    /// [`FaultPlan`] for this seed (injected budget exhaustion) and
    /// check the recovery invariants.
    pub fault_seed: Option<u64>,
}

impl Default for OracleConfig {
    fn default() -> OracleConfig {
        OracleConfig {
            baseline: true,
            fault_seed: None,
        }
    }
}

/// Summary statistics of one clean oracle run (for throughput reporting;
/// all fields are deterministic for a given instance).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OracleStats {
    /// Nets in the instance.
    pub nets: usize,
    /// Nets the router committed.
    pub routed: usize,
    /// Total side overlay claimed by the report.
    pub overlay_units: u64,
    /// Total wirelength.
    pub wirelength: u64,
    /// Hard overlay runs measured by the pixel oracle (accepted yield
    /// risk, not an invariant — see `check_verdict`).
    pub hard_runs: usize,
}

/// Everything observable from one routing run, normalised for comparison
/// (wall-clock fields zeroed).
struct RunResult {
    report: RoutingReport,
    patterns: Vec<Vec<(u32, Color, Vec<TrackRect>)>>,
    failed: Vec<sadp_grid::NetId>,
    usage: (usize, usize, usize),
    routed_plane: RoutingPlane,
    trace: String,
    /// The snapshot of the finished run.
    snapshot: String,
    /// `(net, trunk wirelength, best candidate-pair Manhattan distance)`
    /// per routed net, for the wirelength lower-bound check.
    trunk_bounds: Vec<(u32, u64, u64)>,
}

fn route_once(
    plane: &RoutingPlane,
    netlist: &Netlist,
    faults: Option<u64>,
) -> Result<RunResult, Violation> {
    let run = catch_unwind(AssertUnwindSafe(|| {
        let mut config = RouterConfig::paper_defaults();
        config.faults = faults.map(FaultPlan::new);
        let session = RoutingSession::create(config, plane.clone(), netlist.clone(), true, false)?;
        finish(session, netlist)
    }));
    match run {
        Err(payload) => Err(Violation::new(
            Invariant::NoPanic,
            format!("router panicked: {}", panic_message(&payload)),
        )),
        Ok(Err(e)) => Err(Violation::new(
            Invariant::RouterAccepts,
            format!("router rejected the plane: {e}"),
        )),
        Ok(Ok(run)) => Ok(run),
    }
}

/// Runs `session` to the end and observes the result.
fn finish(mut session: RoutingSession, netlist: &Netlist) -> Result<RunResult, SessionError> {
    let mut report = match session.advance(StepBudget::unbounded()) {
        SessionStatus::Done(report) => *report,
        SessionStatus::Failed(e) => return Err(e),
        SessionStatus::Running | SessionStatus::CheckpointReady => {
            unreachable!("an unbounded advance finishes the schedule")
        }
    };
    report.cpu = Duration::ZERO;
    report.profile = report.profile.counts_only();
    let router = session.router();
    let patterns: Vec<_> = (0..session.plane().layers())
        .map(|l| router.patterns_on_layer(Layer(l)))
        .collect();
    let trunk_bounds = router
        .routed()
        .values()
        .map(|r| {
            let net = netlist.net(r.id);
            let best = net
                .source
                .candidates()
                .iter()
                .flat_map(|s| {
                    net.target
                        .candidates()
                        .iter()
                        .map(move |t| s.x.abs_diff(t.x) as u64 + s.y.abs_diff(t.y) as u64)
                })
                .min()
                .unwrap_or(0);
            (r.id.0, r.path.wirelength(), best)
        })
        .collect();
    let failed = router.failed().to_vec();
    let trace = events_to_jsonl(&session.drain_events());
    let snapshot = session.snapshot();
    let (routed_plane, _) = session.into_parts();
    Ok(RunResult {
        report,
        patterns,
        failed,
        usage: routed_plane.usage(),
        routed_plane,
        trace,
        snapshot,
        trunk_bounds,
    })
}

pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Runs the full oracle on one `(plane, netlist)` pair: route, check the
/// structural invariants, decompose through the pixel simulator, and run
/// the resume and baseline checks. The resume check's kill step is
/// drawn from the layout's fingerprint.
///
/// # Errors
///
/// Returns the first [`Violation`] found.
pub fn check_layout(
    plane: &RoutingPlane,
    netlist: &Netlist,
    cfg: &OracleConfig,
) -> Result<OracleStats, Violation> {
    check_seeded(plane, netlist, cfg, fingerprint(plane, netlist))
}

/// [`check_layout`] with the resume check's kill step drawn from
/// `kill_seed`.
fn check_seeded(
    plane: &RoutingPlane,
    netlist: &Netlist,
    cfg: &OracleConfig,
    kill_seed: u64,
) -> Result<OracleStats, Violation> {
    let serial = route_once(plane, netlist, None)?;
    check_structure(netlist, &serial)?;
    let hard_runs = check_verdict(plane, &serial)?;
    check_resume(plane, netlist, &serial, kill_seed)?;
    if cfg.baseline {
        check_baseline(plane, netlist)?;
    }
    if let Some(seed) = cfg.fault_seed {
        check_faults(plane, netlist, seed)?;
    }
    Ok(OracleStats {
        nets: netlist.len(),
        routed: serial.report.routed_nets,
        overlay_units: serial.report.overlay_units,
        wirelength: serial.report.wirelength,
        hard_runs,
    })
}

/// [`check_layout`] for a generated instance, with the resume check's
/// kill step drawn from the instance seed.
///
/// # Errors
///
/// Returns the first [`Violation`] found.
pub fn check_instance(inst: &FuzzInstance, cfg: &OracleConfig) -> Result<OracleStats, Violation> {
    check_seeded(&inst.plane, &inst.netlist, cfg, inst.seed)
}

/// Kills a serial run at a step drawn from `kill_seed` — before the
/// first step, at any pause of the schedule, or after finalize —
/// resumes its snapshot in a fresh session, and requires the finish to
/// equal the uninterrupted `serial` run (the stage profile, which counts
/// only the resumed suffix, aside).
fn check_resume(
    plane: &RoutingPlane,
    netlist: &Netlist,
    serial: &RunResult,
    kill_seed: u64,
) -> Result<(), Violation> {
    let mut kill = 0;
    let run = catch_unwind(AssertUnwindSafe(|| {
        let config = RouterConfig::paper_defaults();
        let mut first =
            RoutingSession::create(config.clone(), plane.clone(), netlist.clone(), false, false)?;
        kill = Rng::seed_from_u64(kill_seed).index(first.progress().1 as usize + 2) as u64;
        if kill > 0 {
            first.advance(StepBudget::steps(kill));
        }
        let snap = Snapshot::parse(&first.snapshot()).map_err(SessionError::Snapshot)?;
        let resumed =
            RoutingSession::resume(config, plane.clone(), netlist.clone(), &snap, false, false)?;
        finish(resumed, netlist)
    }));
    let bad = |what: String| Err(Violation::new(Invariant::ResumeIdentity, what));
    let resumed = match run {
        Err(payload) => return bad(format!("kill step {kill}: {}", panic_message(&payload))),
        Ok(Err(e)) => return bad(format!("kill step {kill}: resume failed: {e}")),
        Ok(Ok(run)) => run,
    };
    let unprofiled = |r: &RoutingReport| RoutingReport {
        profile: Default::default(),
        ..r.clone()
    };
    let diverged = [
        (
            "report",
            unprofiled(&serial.report) != unprofiled(&resumed.report),
        ),
        ("patterns/colors", serial.patterns != resumed.patterns),
        ("failed-net list", serial.failed != resumed.failed),
        ("plane occupancy", serial.usage != resumed.usage),
        ("final snapshot", serial.snapshot != resumed.snapshot),
    ];
    match diverged.iter().find(|(_, differs)| *differs) {
        Some((what, _)) => bad(format!("kill step {kill}: resumed {what} diverged")),
        None => Ok(()),
    }
}

fn check_structure(netlist: &Netlist, run: &RunResult) -> Result<(), Violation> {
    let r = &run.report;
    if r.routed_nets + run.failed.len() != netlist.len() {
        return Err(Violation::new(
            Invariant::NetAccounting,
            format!(
                "{} routed + {} failed != {} total",
                r.routed_nets,
                run.failed.len(),
                netlist.len()
            ),
        ));
    }
    let mut failed = run.failed.clone();
    failed.sort_unstable();
    failed.dedup();
    if failed.len() != run.failed.len() {
        return Err(Violation::new(
            Invariant::NetAccounting,
            "failed list contains duplicates",
        ));
    }
    failure_records(run).map_err(|e| Violation::new(Invariant::NetAccounting, e))?;
    if r.hard_overlay_violations != 0 {
        return Err(Violation::new(
            Invariant::NoHardOverlay,
            format!(
                "{} hard overlay violations reported",
                r.hard_overlay_violations
            ),
        ));
    }
    if r.cut_conflicts != 0 {
        return Err(Violation::new(
            Invariant::NoCutConflicts,
            format!("{} cut conflicts reported", r.cut_conflicts),
        ));
    }
    if r.color_fallbacks != 0 {
        return Err(Violation::new(
            Invariant::NoColorFallbacks,
            format!("{} color fallbacks reported", r.color_fallbacks),
        ));
    }
    for (net, wl, bound) in &run.trunk_bounds {
        if wl < bound {
            return Err(Violation::new(
                Invariant::WirelengthBound,
                format!("net#{net}: trunk wirelength {wl} below Manhattan bound {bound}"),
            ));
        }
    }
    // Occupancy: every fragment cell of every routed net must be marked
    // as occupied *by that net* on the routed plane (catches both leaked
    // rip-ups and phantom fragments). Fragments may overlap at bends and
    // vias, so the check is per cell, not a cell-count comparison.
    for (layer, layer_patterns) in run.patterns.iter().enumerate() {
        for (net, _, rects) in layer_patterns {
            for rect in rects {
                for (x, y) in rect.cells() {
                    let p = sadp_geom::GridPoint::new(Layer(layer as u8), x, y);
                    let occupant = run.routed_plane.occupant(p);
                    if occupant != Some(sadp_grid::NetId(*net)) {
                        return Err(Violation::new(
                            Invariant::OccupancyConsistent,
                            format!("net#{net} fragment cell {p} is held by {occupant:?}"),
                        ));
                    }
                }
            }
        }
    }
    Ok(())
}

/// Every failed net is recorded exactly once: the failed list, the sum
/// of the report's per-reason failure counters and the `net_failed`
/// lines of the trace must all agree.
fn failure_records(run: &RunResult) -> Result<(), String> {
    let r = &run.report;
    let counted = r.failed_no_path + r.failed_exhausted + r.failed_cleanup + r.failed_budget;
    let events = run
        .trace
        .lines()
        .filter(|l| l.starts_with(r#"{"event":"net_failed""#))
        .count();
    if run.failed.len() as u64 != counted || events != run.failed.len() {
        return Err(format!(
            "{} failed nets, {counted} counted failures ({} no_path + {} exhausted + {} cleanup + {} budget), {events} net_failed events",
            run.failed.len(),
            r.failed_no_path,
            r.failed_exhausted,
            r.failed_cleanup,
            r.failed_budget
        ));
    }
    Ok(())
}

fn check_verdict(plane: &RoutingPlane, run: &RunResult) -> Result<usize, Violation> {
    let verdict = verify_layers(&run.patterns, plane.rules());
    if verdict.layers.iter().any(|l| l.spacer_violations > 0) {
        return Err(Violation::new(
            Invariant::SpacerClean,
            format!("spacer violations in the decomposition: {verdict}"),
        ));
    }
    // The report claims a conflict-free result (checked above); the
    // independent pixel simulator must agree on decomposability. Hard
    // overlay *runs* are deliberately not an invariant: the cost model
    // scores 2-a CS/SC as two soft units (Fig. 26) while the simulator
    // honestly measures the cut-defined run the assist merge leaves —
    // that is accepted yield risk, returned as a statistic instead.
    let clean = run.report.cut_conflicts == 0 && run.report.hard_overlay_violations == 0;
    if clean && !verdict.is_decomposable() {
        return Err(Violation::new(
            Invariant::VerdictAgrees,
            format!("report claims clean but oracle disagrees: {verdict}"),
        ));
    }
    Ok(verdict.total_hard_runs())
}

fn check_baseline(plane: &RoutingPlane, netlist: &Netlist) -> Result<(), Violation> {
    let run = catch_unwind(AssertUnwindSafe(|| {
        let mut plane = plane.clone();
        let mut baseline = BaselineRouter::new(BaselineKind::CutNoMerge);
        baseline.route_all(&mut plane, netlist)
    }));
    match run {
        Err(payload) => Err(Violation::new(
            Invariant::BaselineSane,
            format!("baseline panicked: {}", panic_message(&payload)),
        )),
        Ok(report) => {
            if report.routed_nets > report.total_nets || report.total_nets != netlist.len() {
                return Err(Violation::new(
                    Invariant::BaselineSane,
                    format!(
                        "baseline accounting: routed {} of {} (netlist {})",
                        report.routed_nets,
                        report.total_nets,
                        netlist.len()
                    ),
                ));
            }
            Ok(())
        }
    }
}

/// Routes the instance under the [`FaultPlan`] for `seed` (injected
/// per-net budget exhaustion) and checks the recovery invariants:
///
/// * the faulted run completes — a panic is a `no-panic` violation from
///   [`route_once`],
/// * no net is silently lost (`routed + failed` still partitions the
///   netlist),
/// * every injected budget fault is counted exactly once in
///   `failed_budget`,
/// * every failed net is recorded exactly once (failed list, failure
///   counters and `net_failed` trace lines agree).
fn check_faults(plane: &RoutingPlane, netlist: &Netlist, seed: u64) -> Result<(), Violation> {
    let bad = |what: String| Err(Violation::new(Invariant::FaultRecovery, what));
    let faulted = route_once(plane, netlist, Some(seed))?;
    let r = &faulted.report;
    if r.routed_nets + faulted.failed.len() != netlist.len() {
        return bad(format!(
            "faults seed {seed}: {} routed + {} failed != {} total",
            r.routed_nets,
            faulted.failed.len(),
            netlist.len()
        ));
    }
    if let Err(e) = failure_records(&faulted) {
        return bad(format!("faults seed {seed}: {e}"));
    }
    let plan = FaultPlan::new(seed);
    let injected = netlist
        .iter()
        .filter(|n| plan.injects_net_budget(n.id.0))
        .count() as u64;
    if r.failed_budget != injected {
        return bad(format!(
            "faults seed {seed}: failed_budget {} but {injected} nets had budget faults injected",
            r.failed_budget
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate, Regime};

    fn quick_cfg() -> OracleConfig {
        OracleConfig::default()
    }

    #[test]
    fn clean_instances_pass_every_regime() {
        for regime in Regime::ALL {
            let inst = generate(regime, 1);
            let stats = check_instance(&inst, &quick_cfg())
                .unwrap_or_else(|v| panic!("{regime} seed 1: {v}"));
            assert_eq!(stats.nets, inst.netlist.len());
        }
    }

    #[test]
    fn oracle_is_deterministic() {
        let inst = generate(Regime::OddCycleRich, 5);
        let a = check_instance(&inst, &quick_cfg());
        let b = check_instance(&inst, &quick_cfg());
        assert_eq!(a, b);
    }

    #[test]
    fn hand_built_bad_coloring_is_caught_by_the_oracle() {
        // Sanity that the pixel oracle used here actually rejects a bad
        // layout: the same-color 1-a pair of the verify.rs tests.
        use sadp_geom::DesignRules;
        let m1 = vec![
            (0, Color::Core, vec![TrackRect::new(0, 0, 9, 0)]),
            (1, Color::Core, vec![TrackRect::new(0, 1, 9, 1)]),
        ];
        let verdict = verify_layers(&[m1], &DesignRules::node_10nm());
        assert!(verdict.total_hard_runs() > 0);
    }

    #[test]
    fn violation_formats_with_invariant_name() {
        let v = Violation::new(Invariant::NoPanic, "boom");
        assert_eq!(v.to_string(), "[no-panic] boom");
        for inv in [
            Invariant::NoPanic,
            Invariant::RouterAccepts,
            Invariant::NetAccounting,
            Invariant::NoHardOverlay,
            Invariant::NoCutConflicts,
            Invariant::NoColorFallbacks,
            Invariant::OccupancyConsistent,
            Invariant::WirelengthBound,
            Invariant::SpacerClean,
            Invariant::VerdictAgrees,
            Invariant::BaselineSane,
            Invariant::FaultRecovery,
            Invariant::ResumeIdentity,
        ] {
            assert!(!inv.name().is_empty());
        }
    }

    #[test]
    fn clean_instances_recover_from_injected_faults() {
        // A couple of (regime, fault seed) pairs; the recovery invariants
        // must hold for every seed, whether or not it triggers a fault.
        for fault_seed in [0u64, 1, 7] {
            let cfg = OracleConfig {
                fault_seed: Some(fault_seed),
                ..quick_cfg()
            };
            let inst = generate(Regime::DenseClock, 3);
            check_instance(&inst, &cfg).unwrap_or_else(|v| panic!("fault seed {fault_seed}: {v}"));
        }
    }
}
