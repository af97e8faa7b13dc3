//! Dependency-free observability for the staged routing pipeline.
//!
//! The container has no crate registry, so this layer is hand-rolled (like
//! `sadp_geom::Rng`) instead of pulling in `tracing`/`log`/`metrics`. It
//! provides four things:
//!
//! 1. **Timing spans and counters** behind the cheap [`Recorder`] trait.
//!    The pipeline wraps each stage in a [`SpanClock`]; a recorder whose
//!    [`Recorder::timing`] is `false` never reads the monotonic clock
//!    and a [`NoopRecorder`] makes every call a no-op —
//!    the hot path allocates nothing and pays one virtual call per *net*
//!    (never per A\*-node).
//! 2. **A structured event sink** ([`RouterEvent`]). Events carry only
//!    logical routing facts — never wall-clock times or thread ids — so an
//!    event stream is a pure function of the input.
//! 3. **[`StageProfile`]**: per-stage wall time and invocation counts
//!    (search, commit, recolor, ripup, merge, decompose), aggregated into
//!    the routing report and printable as a table
//!    ([`StageProfile::table`]) or as JSON ([`StageProfile::to_json`]).
//! 4. **[`json`]**: the workspace's one JSON writer and parser, here
//!    because every emitting crate depends on this one.
//!
//! Counters saturate instead of wrapping: a profile that has been
//! accumulated across many runs degrades to a pinned `u64::MAX`, never to
//! a small lying number.

pub mod json;

use json::Obj;
use std::fmt;
use std::time::{Duration, Instant};

/// The stages of the routing pipeline that get separate attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// Pure pathfinding: one span per net attempt covering its A\*
    /// searches over read-only views, trunk and branches.
    Search,
    /// Scenario scan, proposal staging and the durable commit through the
    /// ledger.
    Commit,
    /// Trial coloring, on-demand flips, and the finalize/cleanup flipping
    /// passes.
    Recolor,
    /// Rip-up bookkeeping: penalty seeding and proposal rollbacks.
    Ripup,
    /// Reserved and always zero: nothing records it. It timed the fold
    /// of the removed column-band schedule; the variant and its table row
    /// stay so that profile readers that name them (the benchmark
    /// harness) keep working.
    Merge,
    /// Pixel decomposition: each cut-repair simulator pass over the
    /// layers in finalize, and the verification of the routed result.
    Decompose,
    /// Reserved and always zero: nothing records it. Every net routes
    /// one at a time at its canonical turn, and its work counts under the
    /// other stages. The variant and its table row stay so that profile
    /// readers that name them (the benchmark harness) keep working.
    Boundary,
}

impl Stage {
    /// Every stage, in fixed report order.
    pub const ALL: [Stage; 7] = [
        Stage::Search,
        Stage::Commit,
        Stage::Recolor,
        Stage::Ripup,
        Stage::Merge,
        Stage::Decompose,
        Stage::Boundary,
    ];

    /// Stable lowercase name (used as the JSON key and the table label).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Stage::Search => "search",
            Stage::Commit => "commit",
            Stage::Recolor => "recolor",
            Stage::Ripup => "ripup",
            Stage::Merge => "merge",
            Stage::Decompose => "decompose",
            Stage::Boundary => "boundary",
        }
    }

    #[inline]
    fn index(self) -> usize {
        match self {
            Stage::Search => 0,
            Stage::Commit => 1,
            Stage::Recolor => 2,
            Stage::Ripup => 3,
            Stage::Merge => 4,
            Stage::Decompose => 5,
            Stage::Boundary => 6,
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Accumulated time and invocation count of one stage.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StageStat {
    /// Total wall time spent in the stage.
    pub time: Duration,
    /// Number of span invocations attributed to the stage (saturating).
    pub count: u64,
}

/// Per-stage time and count aggregate of one routing run.
///
/// Counts are deterministic (a function of the input and the schedule);
/// times are wall-clock measurements and vary run to run. Comparisons
/// that must be run-invariant should use [`StageProfile::counts_only`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StageProfile {
    stats: [StageStat; Stage::ALL.len()],
}

impl StageProfile {
    /// The zero profile.
    #[must_use]
    pub fn new() -> StageProfile {
        StageProfile::default()
    }

    /// The aggregate of one stage.
    #[must_use]
    pub fn stage(&self, stage: Stage) -> StageStat {
        self.stats[stage.index()]
    }

    /// Records one span: `count` invocations totalling `elapsed`.
    pub fn add_span(&mut self, stage: Stage, elapsed: Duration, count: u64) {
        let s = &mut self.stats[stage.index()];
        s.time = s.time.saturating_add(elapsed);
        s.count = s.count.saturating_add(count);
    }

    /// Adds another profile, stage-wise (saturating).
    pub fn accumulate(&mut self, other: &StageProfile) {
        for stage in Stage::ALL {
            let o = other.stage(stage);
            self.add_span(stage, o.time, o.count);
        }
    }

    /// Total time across all stages.
    #[must_use]
    pub fn total_time(&self) -> Duration {
        self.stats
            .iter()
            .fold(Duration::ZERO, |acc, s| acc.saturating_add(s.time))
    }

    /// True if nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.stats.iter().all(|s| s.count == 0 && s.time.is_zero())
    }

    /// A copy with every time zeroed — the deterministic part, for
    /// run-to-run comparisons.
    #[must_use]
    pub fn counts_only(&self) -> StageProfile {
        let mut out = StageProfile::new();
        for stage in Stage::ALL {
            out.add_span(stage, Duration::ZERO, self.stage(stage).count);
        }
        out
    }

    /// The `--profile` summary table: one row per stage plus a total.
    #[must_use]
    pub fn table(&self) -> String {
        let total = self.total_time().as_secs_f64().max(f64::MIN_POSITIVE);
        let mut out = String::from("stage      |    time (s) |  share |      count\n");
        out.push_str("-----------+-------------+--------+-----------\n");
        for stage in Stage::ALL {
            let s = self.stage(stage);
            let secs = s.time.as_secs_f64();
            out.push_str(&format!(
                "{:<10} | {:>11.6} | {:>5.1}% | {:>10}\n",
                stage.name(),
                secs,
                100.0 * secs / total,
                s.count
            ));
        }
        out.push_str(&format!(
            "{:<10} | {:>11.6} | 100.0% | {:>10}\n",
            "total",
            self.total_time().as_secs_f64(),
            self.stats
                .iter()
                .fold(0u64, |acc, s| acc.saturating_add(s.count)),
        ));
        out
    }

    /// The profile as one JSON object
    /// (`{"search":{"seconds":…,"count":…},…}`), stages in report order.
    pub fn to_json(&self) -> Obj {
        Stage::ALL.iter().fold(Obj::default(), |out, &stage| {
            let s = self.stage(stage);
            out.obj(
                stage.name(),
                Obj::default().secs("seconds", s.time).int("count", s.count),
            )
        })
    }
}

/// Why a routing attempt was ripped up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RipReason {
    /// Unavoidable type-B cut conflict on the tentative route.
    TypeB,
    /// Constraint-graph rejection: hard odd cycle, infeasible pair, or a
    /// forbidden merge (ablation mode).
    Graph,
    /// Trial coloring could not avoid a realized risk.
    Risk,
}

impl RipReason {
    /// Stable lowercase name used in the JSONL schema.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            RipReason::TypeB => "type_b",
            RipReason::Graph => "graph",
            RipReason::Risk => "risk",
        }
    }
}

/// Why a net ended up unrouted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailReason {
    /// No path existed at all.
    NoPath,
    /// The rip-up budget was exhausted.
    Exhausted,
    /// The post-routing repair gave the net up.
    Cleanup,
    /// The per-net or whole-run search budget ran out before a route was
    /// found.
    BudgetExceeded,
}

impl FailReason {
    /// Stable lowercase name used in the JSONL schema.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FailReason::NoPath => "no_path",
            FailReason::Exhausted => "exhausted",
            FailReason::Cleanup => "cleanup",
            FailReason::BudgetExceeded => "budget_exceeded",
        }
    }
}

/// One structured pipeline event.
///
/// Events carry logical routing facts only — no timestamps, thread ids or
/// pointers — so a trace is deterministic: the same input and config
/// produce the same stream for every worker count. The JSONL schema
/// ([`RouterEvent::to_json_line`]) is part of the public contract and is
/// golden-file tested.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouterEvent {
    /// A net committed. `attempts` counts searches (1 = first try),
    /// `flipped` whether its trial coloring needed a flip pass.
    NetRouted {
        /// Net id.
        net: u32,
        /// Search attempts used (1 = routed on the first try).
        attempts: u32,
        /// Whether trial coloring triggered a neighborhood flip.
        flipped: bool,
    },
    /// One rip-up-and-re-route iteration.
    NetRipped {
        /// Net id.
        net: u32,
        /// The failed attempt number (0-based).
        attempt: u32,
        /// Why the attempt was rejected.
        reason: RipReason,
    },
    /// A net ended unrouted.
    NetFailed {
        /// Net id.
        net: u32,
        /// Why the net failed.
        reason: FailReason,
    },
    /// One finalize/cleanup color-flipping pass over a layer.
    FlipPass {
        /// Layer index.
        layer: u8,
        /// Dirty components re-flipped by the pass.
        components: u64,
    },
    /// A hard-constraint odd cycle was broken by ripping up the proposing
    /// net (the re-route decomposes the cycle geometrically).
    OddCycleDecomposed {
        /// The proposing net.
        net: u32,
        /// Layer of the offending constraint graph.
        layer: u8,
        /// The other net of the rejected edge.
        other: u32,
    },
    /// An ECO edit invalidated the routed nets whose dependence
    /// footprints intersect the edit region. Emitted before the rip-up,
    /// so the id list *is* the re-routing scope proof: nets outside it
    /// are untouched by the edit.
    NetsInvalidated {
        /// Edit sequence number within the ECO session (0-based).
        edit: u32,
        /// Invalidated net ids, ascending.
        nets: Vec<u32>,
    },
    /// An ECO edit finished applying (rip-up + scoped re-route done).
    EditApplied {
        /// Edit sequence number within the ECO session (0-based).
        edit: u32,
        /// What the edit did.
        kind: EditKind,
        /// Nets invalidated by the dependence-radius query.
        invalidated: u64,
        /// Nets re-routed successfully (invalidated survivors plus the
        /// added/moved net itself).
        rerouted: u64,
        /// Nets left unrouted after the edit.
        failed: u64,
    },
}

/// What an ECO edit did, for the `edit_applied` trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EditKind {
    /// A net was added to the netlist and routed.
    AddNet,
    /// A net was removed and its occupancy released.
    RemoveNet,
    /// A net's pins were moved and the net re-routed.
    MoveNet,
    /// A rectangular blockage was added.
    AddObstacle,
    /// A previously added blockage was removed.
    RemoveObstacle,
}

impl EditKind {
    /// Stable lowercase name used in the JSONL schema.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EditKind::AddNet => "add_net",
            EditKind::RemoveNet => "remove_net",
            EditKind::MoveNet => "move_net",
            EditKind::AddObstacle => "add_obstacle",
            EditKind::RemoveObstacle => "remove_obstacle",
        }
    }
}

impl RouterEvent {
    /// Stable event-kind name (the `"event"` field of the JSONL schema).
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            RouterEvent::NetRouted { .. } => "net_routed",
            RouterEvent::NetRipped { .. } => "net_ripped",
            RouterEvent::NetFailed { .. } => "net_failed",
            RouterEvent::FlipPass { .. } => "flip_pass",
            RouterEvent::OddCycleDecomposed { .. } => "odd_cycle_decomposed",
            RouterEvent::NetsInvalidated { .. } => "nets_invalidated",
            RouterEvent::EditApplied { .. } => "edit_applied",
        }
    }

    /// Serializes the event as one JSON object (no trailing newline).
    ///
    /// Every value is a number, boolean or fixed enum name, so the output
    /// is byte-stable.
    #[must_use]
    pub fn to_json_line(&self) -> String {
        let out = Obj::default().str("event", self.kind());
        match *self {
            RouterEvent::NetRouted {
                net,
                attempts,
                flipped,
            } => out
                .int("net", net)
                .int("attempts", attempts)
                .bool("flipped", flipped),
            RouterEvent::NetRipped {
                net,
                attempt,
                reason,
            } => out
                .int("net", net)
                .int("attempt", attempt)
                .str("reason", reason.name()),
            RouterEvent::NetFailed { net, reason } => {
                out.int("net", net).str("reason", reason.name())
            }
            RouterEvent::FlipPass { layer, components } => {
                out.int("layer", layer).int("components", components)
            }
            RouterEvent::OddCycleDecomposed { net, layer, other } => {
                out.int("net", net).int("layer", layer).int("other", other)
            }
            RouterEvent::NetsInvalidated { edit, ref nets } => {
                out.int("edit", edit).arr("nets", nets.iter().copied())
            }
            RouterEvent::EditApplied {
                edit,
                kind,
                invalidated,
                rerouted,
                failed,
            } => out
                .int("edit", edit)
                .str("kind", kind.name())
                .int("invalidated", invalidated)
                .int("rerouted", rerouted)
                .int("failed", failed),
        }
        .to_string()
    }
}

/// Serializes an event stream as JSONL (one event per line, trailing
/// newline after each), the `--trace` file format.
#[must_use]
pub fn events_to_jsonl(events: &[RouterEvent]) -> String {
    let mut out = String::new();
    for ev in events {
        out.push_str(&ev.to_json_line());
        out.push('\n');
    }
    out
}

/// One job-lifecycle event of the serving layer (`sadp serve`).
///
/// These sit a level above [`RouterEvent`]: a job *contains* one routing
/// session, whose `RouterEvent` stream is forwarded separately. Like the
/// router events they carry numbers and fixed names only, so no string
/// escaping is ever required and the JSONL schema
/// ([`SessionEvent::to_json_line`]) is byte-stable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionEvent {
    /// A job entered the queue.
    JobSubmitted {
        /// Server-assigned job id.
        job: u64,
        /// Queue priority (lower runs first).
        priority: u8,
        /// Nets in the submitted netlist.
        nets: u64,
    },
    /// A worker started (or restarted) advancing the job's session.
    JobStarted {
        /// Server-assigned job id.
        job: u64,
    },
    /// A restarted daemon resumed the job from its persisted checkpoint.
    JobResumed {
        /// Server-assigned job id.
        job: u64,
        /// Journaled nets replayed from the checkpoint (searching
        /// skipped).
        nets_replayed: u64,
    },
    /// The job finished; its report is available.
    JobDone {
        /// Server-assigned job id.
        job: u64,
        /// Nets routed.
        routed: u64,
        /// Nets left unrouted.
        failed: u64,
    },
    /// The job was cancelled by a client (a final checkpoint, if any,
    /// stays on disk for a later resume).
    JobCancelled {
        /// Server-assigned job id.
        job: u64,
    },
    /// The job could not run (e.g. its layout failed to parse or its
    /// checkpoint was rejected). The human-readable cause travels in the
    /// protocol response, not in the event stream.
    JobFailed {
        /// Server-assigned job id.
        job: u64,
    },
}

impl SessionEvent {
    /// Stable event-kind name (the `"event"` field of the JSONL schema).
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            SessionEvent::JobSubmitted { .. } => "job_submitted",
            SessionEvent::JobStarted { .. } => "job_started",
            SessionEvent::JobResumed { .. } => "job_resumed",
            SessionEvent::JobDone { .. } => "job_done",
            SessionEvent::JobCancelled { .. } => "job_cancelled",
            SessionEvent::JobFailed { .. } => "job_failed",
        }
    }

    /// Serializes the event as one JSON object (no trailing newline).
    #[must_use]
    pub fn to_json_line(&self) -> String {
        let out = Obj::default().str("event", self.kind());
        match *self {
            SessionEvent::JobSubmitted {
                job,
                priority,
                nets,
            } => out
                .int("job", job)
                .int("priority", priority)
                .int("nets", nets),
            SessionEvent::JobStarted { job }
            | SessionEvent::JobCancelled { job }
            | SessionEvent::JobFailed { job } => out.int("job", job),
            SessionEvent::JobResumed { job, nets_replayed } => {
                out.int("job", job).int("nets_replayed", nets_replayed)
            }
            SessionEvent::JobDone {
                job,
                routed,
                failed,
            } => out
                .int("job", job)
                .int("routed", routed)
                .int("failed", failed),
        }
        .to_string()
    }
}

/// The pipeline's observer. All methods default to no-ops so a recorder
/// implements only what it wants; [`NoopRecorder`] implements nothing.
///
/// The two gates let call sites skip work entirely:
/// [`Recorder::timing`] gates monotonic-clock reads (a [`SpanClock`] on a
/// non-timing recorder never calls [`Instant::now`]), and
/// [`Recorder::enabled`] gates event construction (callers should not
/// build event payloads when it is `false`).
pub trait Recorder {
    /// Whether the recorder wants events (gate event construction on
    /// this).
    fn enabled(&self) -> bool {
        false
    }

    /// Whether the recorder wants span timings (gate clock reads on
    /// this).
    fn timing(&self) -> bool {
        false
    }

    /// Records `count` invocations of `stage` totalling `elapsed`.
    fn span(&mut self, stage: Stage, elapsed: Duration, count: u64) {
        let _ = (stage, elapsed, count);
    }

    /// Records one structured event.
    fn event(&mut self, event: RouterEvent) {
        let _ = event;
    }

    /// The aggregated per-stage profile, if the recorder keeps one.
    fn profile(&self) -> Option<StageProfile> {
        None
    }
}

/// The default recorder: every call is a no-op, nothing is allocated,
/// no clock is ever read.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {}

/// A buffering recorder: aggregates spans into a [`StageProfile`] and
/// collects events in arrival order.
#[derive(Debug, Default, Clone)]
pub struct BufferRecorder {
    trace: bool,
    timing: bool,
    /// Aggregated per-stage time and counts.
    pub profile: StageProfile,
    /// Collected events, in arrival order.
    pub events: Vec<RouterEvent>,
}

impl BufferRecorder {
    /// A recorder collecting both events and timings.
    #[must_use]
    pub fn new() -> BufferRecorder {
        BufferRecorder::with_flags(true, true)
    }

    /// A recorder collecting events iff `trace` and timings iff `timing`.
    #[must_use]
    pub fn with_flags(trace: bool, timing: bool) -> BufferRecorder {
        BufferRecorder {
            trace,
            timing,
            profile: StageProfile::new(),
            events: Vec::new(),
        }
    }

    /// Takes the collected events, leaving the buffer empty.
    pub fn take_events(&mut self) -> Vec<RouterEvent> {
        std::mem::take(&mut self.events)
    }
}

impl Recorder for BufferRecorder {
    fn enabled(&self) -> bool {
        self.trace
    }

    fn timing(&self) -> bool {
        self.timing
    }

    fn span(&mut self, stage: Stage, elapsed: Duration, count: u64) {
        self.profile.add_span(stage, elapsed, count);
    }

    fn event(&mut self, event: RouterEvent) {
        if self.trace {
            self.events.push(event);
        }
    }

    fn profile(&self) -> Option<StageProfile> {
        Some(self.profile)
    }
}

/// A started (or suppressed) stage timer. On a non-timing recorder the
/// clock is never read; [`SpanClock::stop`] still records the invocation
/// count so stage counts stay deterministic whether or not timing is on.
#[derive(Debug)]
#[must_use = "a SpanClock measures nothing until stopped"]
pub struct SpanClock {
    start: Option<Instant>,
}

impl SpanClock {
    /// Starts a span; reads the clock only if the recorder keeps time.
    pub fn start(rec: &dyn Recorder) -> SpanClock {
        SpanClock {
            start: if rec.timing() {
                Some(Instant::now())
            } else {
                None
            },
        }
    }

    /// Stops the span and attributes it to `stage`.
    pub fn stop(self, rec: &mut dyn Recorder, stage: Stage) {
        let elapsed = self.start.map_or(Duration::ZERO, |t| t.elapsed());
        rec.span(stage, elapsed, 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_recorder_ignores_everything() {
        let mut rec = NoopRecorder;
        assert!(!rec.enabled());
        assert!(!rec.timing());
        rec.span(Stage::Search, Duration::from_secs(1), 3);
        rec.event(RouterEvent::NetFailed {
            net: 1,
            reason: FailReason::NoPath,
        });
        assert!(rec.profile().is_none());
    }

    #[test]
    fn noop_span_clock_never_reads_the_clock() {
        let rec = NoopRecorder;
        let clock = SpanClock::start(&rec);
        assert!(clock.start.is_none(), "no-op recorder must skip the clock");
    }

    #[test]
    fn spans_aggregate_per_stage() {
        let mut rec = BufferRecorder::new();
        rec.span(Stage::Search, Duration::from_millis(5), 1);
        rec.span(Stage::Search, Duration::from_millis(7), 1);
        rec.span(Stage::Commit, Duration::from_millis(1), 1);
        let p = rec.profile().unwrap();
        assert_eq!(p.stage(Stage::Search).count, 2);
        assert_eq!(p.stage(Stage::Search).time, Duration::from_millis(12));
        assert_eq!(p.stage(Stage::Commit).count, 1);
        assert_eq!(p.stage(Stage::Ripup).count, 0);
    }

    #[test]
    fn span_nesting_attributes_both_levels() {
        // A span nested in another must attribute time to both the outer
        // and the inner stage, and the outer total must cover the inner one.
        let mut rec = BufferRecorder::new();
        let outer = SpanClock::start(&rec);
        let inner = SpanClock::start(&rec);
        std::thread::sleep(Duration::from_millis(2));
        inner.stop(&mut rec, Stage::Recolor);
        outer.stop(&mut rec, Stage::Commit);
        let p = rec.profile().unwrap();
        assert_eq!(p.stage(Stage::Commit).count, 1);
        assert_eq!(p.stage(Stage::Recolor).count, 1);
        assert!(p.stage(Stage::Recolor).time >= Duration::from_millis(2));
        assert!(
            p.stage(Stage::Commit).time >= p.stage(Stage::Recolor).time,
            "outer span must cover the nested span"
        );
    }

    #[test]
    fn counters_saturate_instead_of_wrapping() {
        let mut p = StageProfile::new();
        p.add_span(Stage::Merge, Duration::ZERO, u64::MAX - 1);
        p.add_span(Stage::Merge, Duration::ZERO, 5);
        assert_eq!(p.stage(Stage::Merge).count, u64::MAX);
        // Time saturates too.
        p.add_span(Stage::Merge, Duration::MAX, 0);
        p.add_span(Stage::Merge, Duration::MAX, 0);
        assert_eq!(p.stage(Stage::Merge).time, Duration::MAX);
        // Accumulating a saturated profile stays saturated.
        let mut q = StageProfile::new();
        q.accumulate(&p);
        q.accumulate(&p);
        assert_eq!(q.stage(Stage::Merge).count, u64::MAX);
    }

    #[test]
    fn jsonl_schema_is_stable() {
        let events = [
            RouterEvent::NetRouted {
                net: 7,
                attempts: 2,
                flipped: true,
            },
            RouterEvent::NetRipped {
                net: 7,
                attempt: 0,
                reason: RipReason::TypeB,
            },
            RouterEvent::NetFailed {
                net: 8,
                reason: FailReason::Cleanup,
            },
            RouterEvent::FlipPass {
                layer: 1,
                components: 4,
            },
            RouterEvent::OddCycleDecomposed {
                net: 5,
                layer: 0,
                other: 2,
            },
            RouterEvent::NetFailed {
                net: 9,
                reason: FailReason::BudgetExceeded,
            },
            RouterEvent::NetsInvalidated {
                edit: 0,
                nets: vec![1, 5, 9],
            },
            RouterEvent::NetsInvalidated {
                edit: 1,
                nets: vec![],
            },
            RouterEvent::EditApplied {
                edit: 0,
                kind: EditKind::MoveNet,
                invalidated: 3,
                rerouted: 4,
                failed: 0,
            },
        ];
        let jsonl = events_to_jsonl(&events);
        let expected = concat!(
            "{\"event\":\"net_routed\",\"net\":7,\"attempts\":2,\"flipped\":true}\n",
            "{\"event\":\"net_ripped\",\"net\":7,\"attempt\":0,\"reason\":\"type_b\"}\n",
            "{\"event\":\"net_failed\",\"net\":8,\"reason\":\"cleanup\"}\n",
            "{\"event\":\"flip_pass\",\"layer\":1,\"components\":4}\n",
            "{\"event\":\"odd_cycle_decomposed\",\"net\":5,\"layer\":0,\"other\":2}\n",
            "{\"event\":\"net_failed\",\"net\":9,\"reason\":\"budget_exceeded\"}\n",
            "{\"event\":\"nets_invalidated\",\"edit\":0,\"nets\":[1,5,9]}\n",
            "{\"event\":\"nets_invalidated\",\"edit\":1,\"nets\":[]}\n",
            "{\"event\":\"edit_applied\",\"edit\":0,\"kind\":\"move_net\",\"invalidated\":3,\"rerouted\":4,\"failed\":0}\n",
        );
        assert_eq!(jsonl, expected);
        for kind in [
            EditKind::AddNet,
            EditKind::RemoveNet,
            EditKind::MoveNet,
            EditKind::AddObstacle,
            EditKind::RemoveObstacle,
        ] {
            let ev = RouterEvent::EditApplied {
                edit: 0,
                kind,
                invalidated: 0,
                rerouted: 0,
                failed: 0,
            };
            assert!(ev.to_json_line().contains(&format!("\"{}\"", kind.name())));
        }
    }

    #[test]
    fn session_jsonl_schema_is_stable() {
        let events = [
            SessionEvent::JobSubmitted {
                job: 1,
                priority: 5,
                nets: 120,
            },
            SessionEvent::JobStarted { job: 1 },
            SessionEvent::JobResumed {
                job: 1,
                nets_replayed: 38,
            },
            SessionEvent::JobDone {
                job: 1,
                routed: 118,
                failed: 2,
            },
            SessionEvent::JobCancelled { job: 2 },
            SessionEvent::JobFailed { job: 3 },
        ];
        let expected = [
            "{\"event\":\"job_submitted\",\"job\":1,\"priority\":5,\"nets\":120}",
            "{\"event\":\"job_started\",\"job\":1}",
            "{\"event\":\"job_resumed\",\"job\":1,\"nets_replayed\":38}",
            "{\"event\":\"job_done\",\"job\":1,\"routed\":118,\"failed\":2}",
            "{\"event\":\"job_cancelled\",\"job\":2}",
            "{\"event\":\"job_failed\",\"job\":3}",
        ];
        for (ev, want) in events.iter().zip(expected) {
            assert_eq!(ev.to_json_line(), want);
            // The kind name matches the serialized "event" field.
            assert!(ev.to_json_line().contains(&format!("\"{}\"", ev.kind())));
        }
    }

    #[test]
    fn profile_table_and_json() {
        let mut p = StageProfile::new();
        p.add_span(Stage::Search, Duration::from_millis(250), 10);
        p.add_span(Stage::Merge, Duration::from_millis(50), 2);
        let table = p.table();
        assert!(table.contains("search"));
        assert!(table.contains("0.250000"));
        assert!(table.lines().count() == 2 + Stage::ALL.len() + 1);
        let json = p.to_json().to_string();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"search\":{\"seconds\":0.250000,\"count\":10}"));
        assert!(json.contains("\"decompose\":{\"seconds\":0.000000,\"count\":0}"));
    }

    #[test]
    fn counts_only_zeroes_times() {
        let mut p = StageProfile::new();
        p.add_span(Stage::Ripup, Duration::from_secs(3), 4);
        let c = p.counts_only();
        assert_eq!(c.stage(Stage::Ripup).count, 4);
        assert_eq!(c.stage(Stage::Ripup).time, Duration::ZERO);
        assert_eq!(c.total_time(), Duration::ZERO);
    }
}
