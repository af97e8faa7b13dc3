//! Checkpoint/resume equivalence: a run killed after any checkpoint
//! write and resumed from that snapshot on a fresh process produces the
//! byte-identical final result. Resuming loads the router's state as the
//! snapshot wrote it, so the loaded router equals the live one field by
//! field — graphs with their adjacency order and union–find, fragment
//! index, routed store, failed list, counters, workspace grids and plane.

use sadp::core::{
    RoutingSession, SessionError, SessionStatus, Snapshot, SnapshotError, StepBudget,
};
use sadp::grid::BenchmarkSpec;
use sadp::prelude::*;
use sadp_geom::TrackRect;
use std::time::Duration;

type RunResult = (
    RoutingReport,
    Vec<Vec<(u32, Color, Vec<TrackRect>)>>,
    Vec<NetId>,
    (usize, usize, usize),
);

fn observe(mut report: RoutingReport, router: &Router, plane: &RoutingPlane) -> RunResult {
    report.cpu = Duration::ZERO;
    let patterns = (0..plane.layers())
        .map(|l| router.patterns_on_layer(Layer(l)))
        .collect();
    (report, patterns, router.failed().to_vec(), plane.usage())
}

/// Schedule increments per `advance` slice. One snapshot follows every
/// slice, so the kill-points include the first net and the end of the
/// schedule (before finalize).
const SLICE_STEPS: u64 = 1;

/// Advances `session` to completion in [`SLICE_STEPS`] slices, handing
/// the snapshot taken after every mid-run slice to `on_slice`.
fn finish(session: &mut RoutingSession, mut on_slice: impl FnMut(String)) -> RunResult {
    let mut report = loop {
        match session.advance(StepBudget::steps(SLICE_STEPS)) {
            SessionStatus::Running | SessionStatus::CheckpointReady => on_slice(session.snapshot()),
            SessionStatus::Done(report) => break *report,
            SessionStatus::Failed(e) => panic!("session failed: {e}"),
        }
    };
    // The stage profile counts work done in *this* session; a resumed
    // session loads the prefix instead of searching, so its profile
    // legitimately differs. Everything else must be byte-identical.
    report.profile = StageProfile::default();
    observe(report, session.router(), session.plane())
}

/// Loads `text` into a fresh session for `spec`.
fn resume_session(spec: &BenchmarkSpec, text: &str) -> RoutingSession {
    let snap = Snapshot::parse(text).expect("snapshot parses");
    let (plane, netlist) = spec.generate();
    RoutingSession::resume(
        RouterConfig::paper_defaults(),
        plane,
        netlist,
        &snap,
        false,
        false,
    )
    .expect("resumed run")
}

/// The "by construction" guard: at every kill point of a run — every
/// one-step slice and the finished run — the router loaded from the
/// snapshot equals the live router field by field, on an equal plane,
/// and writes the same snapshot back. The union–find and neighbour order
/// carry the history of every rip-up, which a route-by-route replay would
/// get wrong; finishing from the kill points must then give the
/// uninterrupted result.
#[test]
fn every_kill_point_restores_the_live_state_exactly() {
    let spec = BenchmarkSpec::new("ckpt-dense", 400, 400, 120).with_seed(1);
    let (plane, netlist) = spec.generate();
    let mut live =
        RoutingSession::create(RouterConfig::paper_defaults(), plane, netlist, false, false)
            .expect("clean run");
    let mut snaps = Vec::new();
    let mut report = loop {
        let status = live.advance(StepBudget::steps(1));
        let text = live.snapshot();
        let loaded = resume_session(&spec, &text);
        let at = snaps.len();
        assert!(
            loaded.router() == live.router(),
            "kill point {at}: loaded router differs from the live one"
        );
        assert!(
            loaded.plane() == live.plane(),
            "kill point {at}: loaded plane differs"
        );
        assert_eq!(loaded.snapshot(), text, "kill point {at}: snapshot text");
        snaps.push(text);
        match status {
            SessionStatus::Running | SessionStatus::CheckpointReady => {}
            SessionStatus::Done(report) => break *report,
            SessionStatus::Failed(e) => panic!("session failed: {e}"),
        }
    };
    report.profile = StageProfile::default();
    let reference = observe(report, live.router(), live.plane());
    assert!(
        snaps.len() > 20,
        "one kill point per step ({})",
        snaps.len()
    );
    // Equal state at a kill point already implies an equal finish (the
    // run is deterministic); finishing from a spread of them checks it.
    for (at, text) in snaps.iter().enumerate().step_by(18) {
        let mut resumed = resume_session(&spec, text);
        assert_eq!(
            reference,
            finish(&mut resumed, |_| {}),
            "resume from kill point {at} diverged from the uninterrupted run"
        );
        assert_eq!(
            resumed.snapshot(),
            *snaps.last().unwrap(),
            "kill point {at}"
        );
    }
}

/// A snapshot written after finalize resumes as finished: finalize does
/// not run a second time, so the report and the state are the live ones.
#[test]
fn a_finished_snapshot_resumes_as_finished() {
    let spec = BenchmarkSpec::new("ckpt-wide", 110, 400, 120).with_seed(11);
    let (reference, _) = reference_run(&spec);
    let (plane, netlist) = spec.generate();
    let mut session =
        RoutingSession::create(RouterConfig::paper_defaults(), plane, netlist, false, false)
            .expect("clean run");
    finish(&mut session, |_| {});
    let text = session.snapshot();
    assert!(Snapshot::parse(&text).expect("parses").finalized());
    let mut resumed = resume_session(&spec, &text);
    assert_eq!(resumed.progress(), (0, 0), "nothing left to schedule");
    assert_eq!(reference, finish(&mut resumed, |_| {}));
    assert_eq!(resumed.snapshot(), text);
}

/// One uninterrupted run, capturing the snapshot after every mid-run
/// slice.
fn reference_run(spec: &BenchmarkSpec) -> (RunResult, Vec<String>) {
    let (plane, netlist) = spec.generate();
    let mut session =
        RoutingSession::create(RouterConfig::paper_defaults(), plane, netlist, false, false)
            .expect("clean run");
    let mut snaps: Vec<String> = Vec::new();
    let result = finish(&mut session, |s| snaps.push(s));
    (result, snaps)
}

/// Resumes `spec` from `snapshot` text in a completely fresh session —
/// exactly what a new process does after the old one was killed.
fn resumed_run(spec: &BenchmarkSpec, snapshot: &str) -> RunResult {
    let snap = Snapshot::parse(snapshot).expect("snapshot parses");
    let (plane, netlist) = spec.generate();
    let mut session = RoutingSession::resume(
        RouterConfig::paper_defaults(),
        plane,
        netlist,
        &snap,
        false,
        false,
    )
    .expect("resumed run");
    finish(&mut session, |_| {})
}

#[test]
fn resume_from_any_checkpoint_is_byte_identical() {
    let spec = BenchmarkSpec::new("ckpt-wide", 110, 400, 120).with_seed(11);
    let (reference, snaps) = reference_run(&spec);
    assert!(
        snaps.len() >= 2,
        "the run should checkpoint more than once (got {})",
        snaps.len()
    );

    // Kill-points: right after the first, a middle, and the final write.
    for idx in [0, snaps.len() / 2, snaps.len() - 1] {
        let resumed = resumed_run(&spec, &snaps[idx]);
        assert_eq!(
            reference, resumed,
            "resume from checkpoint #{idx} diverged from the uninterrupted run"
        );
    }
}

#[test]
fn mid_run_snapshot_actually_skips_work() {
    // The resumed run must not silently re-route everything: a snapshot
    // taken mid-run already carries committed nets.
    let spec = BenchmarkSpec::new("ckpt-wide", 110, 400, 120).with_seed(11);
    let (_, snaps) = reference_run(&spec);
    let mid = Snapshot::parse(&snaps[snaps.len() / 2]).expect("snapshot parses");
    assert!(
        mid.committed() > 0,
        "mid-run snapshot should carry committed nets"
    );
}

#[test]
fn snapshot_rejects_a_foreign_layout() {
    let spec = BenchmarkSpec::new("ckpt-wide", 110, 400, 120).with_seed(11);
    let (_, snaps) = reference_run(&spec);
    let snap = Snapshot::parse(snaps.last().unwrap()).expect("snapshot parses");

    let other = BenchmarkSpec::new("ckpt-other", 40, 64, 64).with_seed(7);
    let (plane, netlist) = other.generate();
    let err = RoutingSession::resume(
        RouterConfig::paper_defaults(),
        plane,
        netlist,
        &snap,
        false,
        false,
    )
    .expect_err("fingerprint mismatch must be detected");
    assert!(
        err.to_string().contains("fingerprint"),
        "unexpected error: {err}"
    );
}

/// Cancellation determinism: a session cancelled mid-run, snapshotted,
/// and resumed in a fresh session finishes byte-identical to the
/// uninterrupted run — same report, geometry, colors and occupancy —
/// and the two legs' traces spliced together are the uninterrupted
/// trace.
#[test]
fn cancelled_session_resumed_is_byte_identical_to_uninterrupted() {
    use sadp::obs::events_to_jsonl;

    let spec = BenchmarkSpec::new("ckpt-wide", 110, 400, 120).with_seed(11);
    let config = RouterConfig::paper_defaults();

    // Uninterrupted reference, streamed through the same session API.
    let (plane, netlist) = spec.generate();
    let mut session = RoutingSession::create(config.clone(), plane, netlist, true, false)
        .expect("session creates");
    let mut want_events = Vec::new();
    let want_report = loop {
        match session.advance(StepBudget::steps(5)) {
            SessionStatus::Running | SessionStatus::CheckpointReady => {
                want_events.extend(session.drain_events());
            }
            SessionStatus::Done(report) => {
                want_events.extend(session.drain_events());
                break *report;
            }
            SessionStatus::Failed(e) => panic!("reference failed: {e}"),
        }
    };
    // The stage profile counts work done in *this* process; a resumed
    // session loads the prefix instead of searching, so its profile
    // legitimately differs. Everything else must be byte-identical.
    let mut want_report = want_report;
    want_report.profile = StageProfile::default();
    let want = observe(want_report, session.router(), session.plane());
    let want_trace = events_to_jsonl(&want_events);

    // Cancel after a third of the schedule, snapshot, resume fresh.
    let (plane, netlist) = spec.generate();
    let mut first = RoutingSession::create(config.clone(), plane, netlist, true, false)
        .expect("session creates");
    let cancel_at = first.progress().1 / 3;
    let mut events = Vec::new();
    while first.progress().0 < cancel_at {
        match first.advance(StepBudget::steps(5)) {
            SessionStatus::Running | SessionStatus::CheckpointReady => {
                events.extend(first.drain_events());
            }
            SessionStatus::Done(_) => panic!("cancelled too late to be interesting"),
            SessionStatus::Failed(e) => panic!("first leg failed: {e}"),
        }
    }
    first.cancel();
    // A cancelled session refuses to advance but still snapshots.
    match first.advance(StepBudget::unbounded()) {
        SessionStatus::Failed(SessionError::Cancelled) => {}
        other => panic!("cancelled session advanced: {other:?}"),
    }
    let snapshot = first.snapshot();
    drop(first);

    let snap = Snapshot::parse(&snapshot).expect("snapshot parses");
    let (plane, netlist) = spec.generate();
    let mut second = RoutingSession::resume(config, plane, netlist, &snap, true, false)
        .expect("session resumes");
    let report = loop {
        match second.advance(StepBudget::steps(5)) {
            SessionStatus::Running | SessionStatus::CheckpointReady => {
                events.extend(second.drain_events());
            }
            SessionStatus::Done(report) => {
                events.extend(second.drain_events());
                break *report;
            }
            SessionStatus::Failed(e) => panic!("resumed leg failed: {e}"),
        }
    };
    let mut report = report;
    report.profile = StageProfile::default();
    let got = observe(report, second.router(), second.plane());
    assert_eq!(want, got, "cancel + resume diverged from uninterrupted run");
    // Loading emits no events, and the resumed leg walks exactly the
    // remaining steps, so the spliced stream is the uninterrupted one.
    assert_eq!(
        want_trace,
        events_to_jsonl(&events),
        "spliced trace diverged"
    );
}

/// A resumed trace is the exact suffix of the uninterrupted one: at every
/// one-step kill point of a design, a fresh session resumed from the
/// snapshot emits the events the uninterrupted run emitted from that
/// point on, and no others — no re-route of a net the snapshot already
/// holds, no regrouped bookkeeping.
#[test]
fn a_resumed_trace_is_the_suffix_of_the_uninterrupted_one() {
    use sadp::grid::read_layout;
    use sadp::obs::events_to_jsonl;

    let text = include_str!("../fixtures/corpus/multi-band-fault-recovery.layout");
    let design = || read_layout(text).expect("fixture parses");
    let (plane, netlist) = design();
    let mut live =
        RoutingSession::create(RouterConfig::paper_defaults(), plane, netlist, true, false)
            .expect("session creates");
    // The whole trace, and per kill point (every pause and the finished
    // run) the events drained before it and the snapshot taken there.
    let mut trace = Vec::new();
    let mut kills: Vec<(usize, String)> = Vec::new();
    loop {
        let status = live.advance(StepBudget::steps(1));
        trace.extend(live.drain_events());
        kills.push((trace.len(), live.snapshot()));
        match status {
            SessionStatus::Running | SessionStatus::CheckpointReady => {}
            SessionStatus::Done(_) => break,
            SessionStatus::Failed(e) => panic!("session failed: {e}"),
        }
    }
    assert_eq!(
        kills.len(),
        design().1.len() + 1,
        "one kill point per net, one when done"
    );

    for (at, (emitted, snap)) in kills.iter().enumerate() {
        let snap = Snapshot::parse(snap).expect("snapshot parses");
        let (plane, netlist) = design();
        let mut resumed = RoutingSession::resume(
            RouterConfig::paper_defaults(),
            plane,
            netlist,
            &snap,
            true,
            false,
        )
        .expect("session resumes");
        match resumed.advance(StepBudget::unbounded()) {
            SessionStatus::Done(_) => {}
            other => panic!("kill point {at}: resumed run did not finish: {other:?}"),
        }
        assert_eq!(
            events_to_jsonl(&resumed.drain_events()),
            events_to_jsonl(&trace[*emitted..]),
            "kill point {at}: resumed trace is not the uninterrupted suffix"
        );
    }
}

/// `text` with its checksum line recomputed over the edited body (FNV-1a
/// 64, as the writer computes it), so only the edit itself can be
/// rejected.
fn rechecksummed(text: &str) -> String {
    let mut parts = text.splitn(3, '\n');
    let magic = parts.next().expect("magic line");
    let body = parts.nth(1).expect("body");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in body.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{magic}\nchecksum {h:016x}\n{body}")
}

/// A finished snapshot of a small design, its netlist size, and the
/// largest vertex id of its first layer graph.
fn small_snapshot() -> (BenchmarkSpec, String, usize, u32) {
    let spec = BenchmarkSpec::new("ckpt-small", 40, 64, 64).with_seed(7);
    let (plane, netlist) = spec.generate();
    let nets = netlist.len();
    let mut session =
        RoutingSession::create(RouterConfig::paper_defaults(), plane, netlist, false, false)
            .expect("clean run");
    finish(&mut session, |_| {});
    let text = session.snapshot();
    let top = text
        .lines()
        .skip_while(|l| !l.starts_with("graph "))
        .skip(1)
        .take_while(|l| l.starts_with("v "))
        .map(|l| l.split(' ').nth(1).unwrap().parse::<u32>().unwrap())
        .max()
        .expect("the first layer graph has vertices");
    (spec, text, nets, top)
}

/// Renames vertex `from` of the first graph section to `to` wherever it
/// appears as a net (vertex ids, neighbours, edge ends, dirty list).
fn rename_in_first_graph(text: &str, from: u32, to: u32) -> String {
    let from = from.to_string();
    let mut in_graph = false;
    let mut done = false;
    let mut out = String::new();
    for line in text.lines() {
        if !done && line.starts_with("graph ") {
            in_graph = true;
        }
        let toks: Vec<&str> = line.split(' ').collect();
        // Token positions holding net ids: the slot and color of a
        // vertex line and the costs of an edge line are left alone.
        let is_net = |i: usize| match toks[0] {
            "v" => i == 1 || i >= 4,
            "e" => i == 1 || i == 2,
            "dirty" => i >= 2,
            _ => false,
        };
        let renamed: Vec<String> = toks
            .iter()
            .enumerate()
            .map(|(i, &t)| {
                if in_graph && is_net(i) && t == from {
                    to.to_string()
                } else {
                    t.to_string()
                }
            })
            .collect();
        out.push_str(&renamed.join(" "));
        out.push('\n');
        if in_graph && line.starts_with("dirty ") {
            in_graph = false;
            done = true;
        }
    }
    out
}

/// Graph vertices index dense per-net storage, so a checkpoint naming a
/// huge net id must be refused by the parser before anything is sized
/// for it — not abort the process on a 4-billion-entry allocation.
#[test]
fn a_snapshot_naming_a_huge_net_id_is_refused_at_parse() {
    let (_, text, _, top) = small_snapshot();
    let edited = rechecksummed(&rename_in_first_graph(&text, top, u32::MAX));
    assert_ne!(edited, text);
    let err = Snapshot::parse(&edited).expect_err("net 4294967295 must be refused");
    let msg = err.to_string();
    assert!(
        msg.contains("4294967295") && msg.contains("exceeds"),
        "{msg}"
    );
}

/// A graph vertex one past the netlist parses (it is a plausible id)
/// but does not fit the input it is resumed against.
#[test]
fn a_snapshot_naming_a_net_past_the_netlist_is_a_state_mismatch() {
    let (spec, text, nets, top) = small_snapshot();
    let edited = rechecksummed(&rename_in_first_graph(&text, top, nets as u32));
    assert_ne!(edited, text);
    let snap = Snapshot::parse(&edited).expect("the edited snapshot is well formed");
    let (plane, netlist) = spec.generate();
    let err = RoutingSession::resume(
        RouterConfig::paper_defaults(),
        plane,
        netlist,
        &snap,
        false,
        false,
    )
    .expect_err("a vertex past the netlist must be refused");
    assert!(
        matches!(err, SessionError::Snapshot(SnapshotError::StateMismatch)),
        "{err:?}"
    );
}
