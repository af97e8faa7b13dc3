//! Stepwise routing sessions: the batch pipeline as a resumable state
//! machine.
//!
//! [`RoutingSession`] owns everything one routing run needs — the plane,
//! the netlist, the [`Router`] (ledger + workspace + budgets) and an
//! event/span recorder — and exposes the schedule as bounded increments:
//!
//! ```text
//!   create / resume ──▶ Routing ──advance──▶ Running
//!                          │                     │
//!                          │ (schedule done:     │ advance
//!                          │  finalize runs)     ▼
//!                          ├───────────────▶ Done(report)
//!                          └──cancel───────▶ Cancelled
//! ```
//!
//! [`RoutingSession::advance`] drives the driver's schedule machine for
//! at most [`StepBudget::steps`] increments and returns. One increment is
//! one net routed at its canonical turn, so pausing between `advance`
//! calls can never reorder the canonical commit sequence, and the final
//! result (report, colors, patterns, JSONL trace) is the same for every
//! step budget.
//!
//! This stepper is the router's only routing engine: the blocking
//! [`Router::route_all_with`] runs the same step function in one
//! unbounded call.
//!
//! Every pause point is also a valid checkpoint:
//! [`RoutingSession::snapshot`] serializes the router's state in the
//! `SADPCKPT v5` format and [`RoutingSession::resume`] loads it back
//! exactly ([`crate::checkpoint`]). Callers choose the checkpoint cadence
//! by the step budget they pass to `advance`. A session cancelled
//! mid-run and resumed from its last snapshot therefore finishes
//! byte-identical to an uninterrupted run, and a snapshot of a finished
//! session resumes as finished.

use crate::checkpoint::{self, Snapshot, SnapshotError};
use crate::config::RouterConfig;
use crate::driver::{ScheduleMachine, StepArgs, StepEvent};
use crate::report::RoutingReport;
use crate::router::Router;
use sadp_grid::{Netlist, RoutingPlane};
use sadp_obs::{BufferRecorder, Recorder, RouterEvent};
use std::error::Error;
use std::fmt;
use std::time::Instant;

/// How much work one [`RoutingSession::advance`] call may do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepBudget {
    /// Maximum schedule increments (nets) to execute. Clamped to at
    /// least 1 so an `advance` always makes progress.
    pub steps: u64,
}

impl StepBudget {
    /// A budget of `steps` schedule increments.
    #[must_use]
    pub fn steps(steps: u64) -> StepBudget {
        StepBudget { steps }
    }

    /// An unbounded budget: `advance` runs the whole remaining schedule.
    #[must_use]
    pub fn unbounded() -> StepBudget {
        StepBudget { steps: u64::MAX }
    }
}

/// What a [`RoutingSession::advance`] call left behind.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionStatus {
    /// The budget ran out mid-schedule; call `advance` again.
    Running,
    /// Inert: never returned. It marked a slice that crossed a band fold
    /// of the removed column-band schedule; the variant stays because the
    /// benchmark harness still matches on it.
    CheckpointReady,
    /// The schedule and the finalize stage completed; the session is
    /// finished and further `advance` calls return this same report.
    Done(Box<RoutingReport>),
    /// The session cannot advance (it was cancelled).
    Failed(SessionError),
}

/// Errors of the session API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionError {
    /// Creating or resuming the session failed (oversized plane,
    /// fingerprint mismatch, corrupt snapshot, state that does not fit
    /// the input).
    Snapshot(SnapshotError),
    /// `advance` was called on a cancelled session. Take a final
    /// [`RoutingSession::snapshot`] and resume a fresh session instead.
    Cancelled,
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Snapshot(e) => write!(f, "{e}"),
            SessionError::Cancelled => {
                write!(
                    f,
                    "session is cancelled; snapshot it and resume a new session to continue"
                )
            }
        }
    }
}

impl Error for SessionError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SessionError::Snapshot(e) => Some(e),
            SessionError::Cancelled => None,
        }
    }
}

impl From<SnapshotError> for SessionError {
    fn from(e: SnapshotError) -> SessionError {
        SessionError::Snapshot(e)
    }
}

enum State {
    Routing,
    Done(Box<RoutingReport>),
    Cancelled,
}

/// A resumable routing run. See the [module docs](crate::session).
pub struct RoutingSession {
    router: Router,
    plane: RoutingPlane,
    netlist: Netlist,
    machine: ScheduleMachine,
    rec: BufferRecorder,
    /// The input fingerprint, stamped into every snapshot so a resume
    /// against a different plane/netlist is rejected.
    fingerprint: u64,
    started: Instant,
    state: State,
}

// A session must be able to migrate between a job server's worker
// threads; this fails to compile if any field loses `Send`.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<RoutingSession>();
};

impl RoutingSession {
    /// Creates a session for routing `netlist` on `plane`, taking
    /// ownership of both (retrieve the routed plane with
    /// [`RoutingSession::into_parts`]). Event tracing and stage timing
    /// are controlled by `trace` / `timing` exactly like
    /// [`BufferRecorder::with_flags`].
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Router`] (inside [`SessionError::Snapshot`]) when
    /// the plane is too large for the packed search indices.
    pub fn create(
        config: RouterConfig,
        plane: RoutingPlane,
        netlist: Netlist,
        trace: bool,
        timing: bool,
    ) -> Result<RoutingSession, SessionError> {
        RoutingSession::build(config, plane, netlist, None, trace, timing)
    }

    /// [`RoutingSession::create`] starting from a parsed `SADPCKPT v5`
    /// snapshot: the router's state is loaded as the snapshot wrote it
    /// (no searching) and only the nets it had not yet routed or failed
    /// are scheduled. A snapshot taken after finalize schedules nothing
    /// and its first `advance` returns the finished report.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::FingerprintMismatch`] when the snapshot was taken
    /// from a different plane/netlist, [`SnapshotError::StateMismatch`]
    /// when its state does not fit the input, and
    /// [`SnapshotError::Router`] for an oversized plane — all inside
    /// [`SessionError::Snapshot`].
    pub fn resume(
        config: RouterConfig,
        plane: RoutingPlane,
        netlist: Netlist,
        snapshot: &Snapshot,
        trace: bool,
        timing: bool,
    ) -> Result<RoutingSession, SessionError> {
        RoutingSession::build(config, plane, netlist, Some(snapshot), trace, timing)
    }

    fn build(
        config: RouterConfig,
        mut plane: RoutingPlane,
        netlist: Netlist,
        resume: Option<&Snapshot>,
        trace: bool,
        timing: bool,
    ) -> Result<RoutingSession, SessionError> {
        let started = Instant::now();
        let mut router = Router::new(config);
        let (machine, fp) = router.prepare_run(&mut plane, &netlist, resume, true)?;
        Ok(RoutingSession {
            router,
            plane,
            netlist,
            machine,
            rec: BufferRecorder::with_flags(trace, timing),
            fingerprint: fp.expect("fingerprint is always requested"),
            started,
            state: State::Routing,
        })
    }

    /// Executes up to `budget` schedule increments. When the schedule
    /// runs dry the finalize stage (flipping, cleanup, cut repair) runs
    /// in the same call and the session transitions to `Done`.
    pub fn advance(&mut self, budget: StepBudget) -> SessionStatus {
        match &self.state {
            State::Done(report) => return SessionStatus::Done(report.clone()),
            State::Cancelled => return SessionStatus::Failed(SessionError::Cancelled),
            State::Routing => {}
        }
        let status = run_steps(
            &mut self.router,
            &mut self.machine,
            &mut self.plane,
            &self.netlist,
            &mut self.rec,
            budget,
            self.started,
        );
        if let SessionStatus::Done(report) = &status {
            self.state = State::Done(report.clone());
        }
        status
    }

    /// Stops the session: further [`RoutingSession::advance`] calls
    /// return [`SessionStatus::Failed`]. The state stays intact, so a
    /// final [`RoutingSession::snapshot`] can still be taken and resumed
    /// later. Cancelling a `Done` session is a no-op.
    pub fn cancel(&mut self) {
        if !matches!(self.state, State::Done(_)) {
            self.state = State::Cancelled;
        }
    }

    /// Serializes the current state as `SADPCKPT v5` text. Valid at any
    /// pause point — every increment ends between canonical commits —
    /// and after the session is done.
    #[must_use]
    pub fn snapshot(&self) -> String {
        checkpoint::serialize(&self.router, &self.plane, &self.netlist, self.fingerprint)
    }

    /// `(done, total)` schedule increments — a coarse progress gauge.
    /// The finalize stage runs after the last increment and is not
    /// counted.
    #[must_use]
    pub fn progress(&self) -> (u64, u64) {
        (self.machine.steps_done(), self.machine.steps_total())
    }

    /// Whether the session reached `Done`.
    #[must_use]
    pub fn is_done(&self) -> bool {
        matches!(self.state, State::Done(_))
    }

    /// Whether the session was cancelled.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        matches!(self.state, State::Cancelled)
    }

    /// The final report, once the session is `Done`.
    #[must_use]
    pub fn report(&self) -> Option<&RoutingReport> {
        match &self.state {
            State::Done(report) => Some(report),
            _ => None,
        }
    }

    /// Drains the structured events recorded since the last drain (or
    /// since creation), in canonical order. Streaming consumers (the job
    /// server) call this between `advance` slices; batch consumers call
    /// it once at the end. Empty when tracing is off.
    pub fn drain_events(&mut self) -> Vec<RouterEvent> {
        self.rec.take_events()
    }

    /// The router, for post-run inspection (colors, patterns, graphs).
    #[must_use]
    pub fn router(&self) -> &Router {
        &self.router
    }

    /// The routing plane (routed so far, up to the last pause point).
    #[must_use]
    pub fn plane(&self) -> &RoutingPlane {
        &self.plane
    }

    /// The session's recorder, so downstream stages (e.g. pixel
    /// verification) can append to the same trace and profile before
    /// the events are drained.
    pub fn recorder_mut(&mut self) -> &mut BufferRecorder {
        &mut self.rec
    }

    /// Consumes the session and returns the (routed) plane and the
    /// netlist.
    #[must_use]
    pub fn into_parts(self) -> (RoutingPlane, Netlist) {
        (self.plane, self.netlist)
    }

    /// Consumes the session and returns the live router alongside the
    /// plane, netlist and recorder — the full routing state, for layers
    /// (the ECO engine) that keep editing where the batch run stopped.
    #[must_use]
    pub(crate) fn into_router_parts(self) -> (Router, RoutingPlane, Netlist, BufferRecorder) {
        (self.router, self.plane, self.netlist, self.rec)
    }
}

/// The routing engine: executes up to `budget` increments of `machine`
/// against the router's state and, once the schedule runs dry, the
/// finalize stage (flipping, cleanup, cut repair; skipped when the
/// state was already finalized) and the report, whose
/// `cpu` is measured from `started`. The only caller of
/// [`ScheduleMachine::step`]: [`RoutingSession::advance`] runs it in
/// slices, [`Router::route_all_with`] in one unbounded call. Returns
/// `Running` or `Done`.
pub(crate) fn run_steps(
    router: &mut Router,
    machine: &mut ScheduleMachine,
    plane: &mut RoutingPlane,
    netlist: &Netlist,
    rec: &mut dyn Recorder,
    budget: StepBudget,
    started: Instant,
) -> SessionStatus {
    for _ in 0..budget.steps.max(1) {
        let Router {
            config,
            ledger,
            workspace,
            failed,
            run_budget,
            ..
        } = &mut *router;
        let ws = workspace.as_mut().expect("prepare_run sets the workspace");
        let ev = machine.step(&mut StepArgs {
            config,
            ledger,
            ws,
            plane: &mut *plane,
            netlist,
            failed,
            run_budget,
            rec: &mut *rec,
        });
        if ev == StepEvent::Complete {
            if !router.finalized {
                router.finalize(plane, netlist, rec);
            }
            let mut report = router.report(netlist, started);
            if let Some(profile) = rec.profile() {
                report.profile = profile;
            }
            return SessionStatus::Done(Box::new(report));
        }
    }
    SessionStatus::Running
}

impl fmt::Debug for RoutingSession {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (done, total) = self.progress();
        f.debug_struct("RoutingSession")
            .field("steps_done", &done)
            .field("steps_total", &total)
            .field(
                "state",
                &match self.state {
                    State::Routing => "routing",
                    State::Done(_) => "done",
                    State::Cancelled => "cancelled",
                },
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sadp_geom::{DesignRules, GridPoint, Layer};

    fn plane(w: i32, h: i32) -> RoutingPlane {
        RoutingPlane::new(3, w, h, DesignRules::node_10nm()).expect("valid")
    }

    fn p0(x: i32, y: i32) -> GridPoint {
        GridPoint::new(Layer(0), x, y)
    }

    fn small_netlist() -> Netlist {
        let mut nl = Netlist::new();
        nl.add_two_pin("a", p0(2, 2), p0(14, 9));
        nl.add_two_pin("b", p0(2, 12), p0(18, 12));
        nl.add_two_pin("c", p0(20, 3), p0(28, 14));
        nl
    }

    #[test]
    fn stepped_session_matches_blocking_route_all() {
        let nl = small_netlist();
        let mut plane_a = plane(32, 32);
        let mut router = Router::new(RouterConfig::paper_defaults());
        // The baseline records through the same recorder shape the
        // session uses, so the profiles are comparable.
        let mut base_rec = BufferRecorder::with_flags(false, false);
        let blocking = router.route_all_with(&mut plane_a, &nl, &mut base_rec);

        let mut session = RoutingSession::create(
            RouterConfig::paper_defaults(),
            plane(32, 32),
            nl,
            false,
            false,
        )
        .expect("create");
        let mut advances = 0u32;
        let report = loop {
            advances += 1;
            match session.advance(StepBudget::steps(1)) {
                SessionStatus::Done(r) => break r,
                SessionStatus::Running => {}
                SessionStatus::Failed(e) => panic!("unexpected failure: {e}"),
                SessionStatus::CheckpointReady => unreachable!("never returned"),
            }
        };
        assert!(advances >= 3, "one advance per net plus the finishing one");
        assert_eq!(report.routed_nets, blocking.routed_nets);
        assert_eq!(report.wirelength, blocking.wirelength);
        assert_eq!(report.nodes_expanded, blocking.nodes_expanded);
        assert_eq!(report.profile.counts_only(), blocking.profile.counts_only());
    }

    #[test]
    fn progress_counts_schedule_increments() {
        let nl = small_netlist();
        let mut session = RoutingSession::create(
            RouterConfig::paper_defaults(),
            plane(32, 32),
            nl,
            false,
            false,
        )
        .expect("create");
        assert_eq!(session.progress(), (0, 3));
        session.advance(StepBudget::steps(1));
        assert_eq!(session.progress(), (1, 3));
        let status = session.advance(StepBudget::unbounded());
        assert!(matches!(status, SessionStatus::Done(_)));
        assert_eq!(session.progress(), (3, 3));
        assert!(session.is_done());
    }

    #[test]
    fn cancel_then_snapshot_resumes_byte_identical() {
        let nl = small_netlist();
        // Uninterrupted reference run.
        let mut reference = RoutingSession::create(
            RouterConfig::paper_defaults(),
            plane(32, 32),
            nl.clone(),
            false,
            false,
        )
        .expect("create");
        let SessionStatus::Done(want) = reference.advance(StepBudget::unbounded()) else {
            panic!("reference must finish in one unbounded advance");
        };

        // Cancel after one increment, snapshot, resume in a new session.
        let mut first = RoutingSession::create(
            RouterConfig::paper_defaults(),
            plane(32, 32),
            nl.clone(),
            false,
            false,
        )
        .expect("create");
        assert!(matches!(
            first.advance(StepBudget::steps(1)),
            SessionStatus::Running
        ));
        first.cancel();
        assert!(session_is_cancelled(&mut first));
        let snap_text = first.snapshot();
        let snap = Snapshot::parse(&snap_text).expect("own snapshot parses");

        let mut resumed = RoutingSession::resume(
            RouterConfig::paper_defaults(),
            plane(32, 32),
            nl,
            &snap,
            false,
            false,
        )
        .expect("resume");
        let SessionStatus::Done(got) = resumed.advance(StepBudget::unbounded()) else {
            panic!("resumed session must finish");
        };
        assert_eq!(got.routed_nets, want.routed_nets);
        assert_eq!(got.wirelength, want.wirelength);
        assert_eq!(got.vias, want.vias);
        assert_eq!(got.overlay_units, want.overlay_units);
    }

    fn session_is_cancelled(s: &mut RoutingSession) -> bool {
        s.is_cancelled()
            && matches!(
                s.advance(StepBudget::steps(1)),
                SessionStatus::Failed(SessionError::Cancelled)
            )
    }

    #[test]
    fn resume_rejects_foreign_fingerprint() {
        let nl = small_netlist();
        let mut s = RoutingSession::create(
            RouterConfig::paper_defaults(),
            plane(32, 32),
            nl,
            false,
            false,
        )
        .expect("create");
        s.advance(StepBudget::steps(1));
        let snap = Snapshot::parse(&s.snapshot()).expect("parses");
        // A different netlist: the fingerprint must not match.
        let mut other = Netlist::new();
        other.add_two_pin("x", p0(2, 2), p0(10, 2));
        let err = RoutingSession::resume(
            RouterConfig::paper_defaults(),
            plane(32, 32),
            other,
            &snap,
            false,
            false,
        )
        .expect_err("foreign fingerprint must be rejected");
        assert_eq!(
            err,
            SessionError::Snapshot(SnapshotError::FingerprintMismatch)
        );
    }

    #[test]
    fn done_session_replays_its_report() {
        let nl = small_netlist();
        let mut s = RoutingSession::create(
            RouterConfig::paper_defaults(),
            plane(32, 32),
            nl,
            false,
            false,
        )
        .expect("create");
        let SessionStatus::Done(first) = s.advance(StepBudget::unbounded()) else {
            panic!("must finish");
        };
        let SessionStatus::Done(second) = s.advance(StepBudget::steps(1)) else {
            panic!("done sessions stay done");
        };
        assert_eq!(first, second);
        assert_eq!(s.report(), Some(&*first));
        // Cancel after done is a no-op.
        s.cancel();
        assert!(s.is_done());
    }

    #[test]
    fn trace_events_stream_across_slices() {
        let nl = small_netlist();
        let mut s = RoutingSession::create(
            RouterConfig::paper_defaults(),
            plane(32, 32),
            nl.clone(),
            true,
            false,
        )
        .expect("create");
        let mut streamed: Vec<RouterEvent> = Vec::new();
        loop {
            let status = s.advance(StepBudget::steps(1));
            streamed.extend(s.drain_events());
            match status {
                SessionStatus::Done(_) => break,
                SessionStatus::Failed(e) => panic!("unexpected: {e}"),
                _ => {}
            }
        }
        // The streamed concatenation equals the blocking trace.
        let mut batch = BufferRecorder::with_flags(true, false);
        let mut router = Router::new(RouterConfig::paper_defaults());
        let mut pl = plane(32, 32);
        router.route_all_with(&mut pl, &nl, &mut batch);
        assert_eq!(streamed, batch.take_events());
    }
}
