//! Routing one design through the public session API, and the
//! session-layer metrics every workload reports on its own designs.
//!
//! An untraced route is what `sadp route` does: parse, create, then
//! `advance` in 64-step slices until `Done`. A traced route steps with
//! `StepBudget::steps(1)` and stage timing on, with one span per call,
//! so the call that returns `Done` isolates finalize (flip, cleanup and
//! cut repair).

use crate::hostspeed::{self, Interval};
use crate::trace::Tracer;
use crate::{metric, projection, ratio, Design, Metric};
use sadp_core::{RouterConfig, RoutingReport, RoutingSession, SessionStatus, Snapshot, StepBudget};
use sadp_decomp::{verify_layers, Verdict};
use sadp_geom::{DesignRules, Layer, TrackRect};
use sadp_grid::NetId;
use sadp_obs::{Stage, StageProfile};
use sadp_scenario::Color;
use std::time::{Duration, Instant};

/// One layer's colored patterns, as `Router::patterns_on_layer` gives them.
pub type LayerPatterns = Vec<(u32, Color, Vec<TrackRect>)>;

/// Slice size of an untraced route (`sadp route` uses the same).
pub const SLICE_STEPS: u64 = 64;

/// What one route of one design produced.
#[derive(Debug, Clone)]
pub struct Routed {
    /// Parsing the design text.
    pub parse: Duration,
    /// `RoutingSession::create`.
    pub create: Duration,
    /// The `advance` calls, summed: the route itself.
    pub wall: Duration,
    /// From the first `advance` call to the end of the last, with the
    /// CPU time of the calls.
    pub advance: Interval,
    /// The final report.
    pub report: RoutingReport,
    /// Nets left unrouted.
    pub failed: Vec<NetId>,
    /// Colored patterns of every layer.
    pub patterns: Vec<LayerPatterns>,
    /// The plane's design rules.
    pub rules: DesignRules,
    /// Traced routes only: the snapshot taken after the last band fold,
    /// as the daemon persists one, or at the last pause before finalize
    /// when the schedule has no band fold.
    pub ckpt: Option<String>,
}

impl Routed {
    /// Parse plus create: the set-up a user waits for before routing.
    #[must_use]
    pub fn setup(&self) -> Duration {
        self.parse + self.create
    }

    /// Pixel-verifies the final layout with the cut-process simulator.
    #[must_use]
    pub fn verify(&self) -> Verdict {
        verify_layers(&self.patterns, &self.rules)
    }

    /// Whether two routes of one design produced the same result: report
    /// projection, failed list and every layer's patterns.
    #[must_use]
    pub fn same_result(&self, other: &Routed) -> bool {
        projection(&self.report) == projection(&other.report)
            && self.failed == other.failed
            && self.patterns == other.patterns
    }
}

/// The router configuration of every route: the paper's defaults.
#[must_use]
pub fn config(threads: usize) -> RouterConfig {
    let mut config = RouterConfig::paper_defaults();
    config.threads = threads;
    config
}

/// Routes `design` at `threads`. With a tracer, steps one increment per
/// call with stage timing on and records `ingest.parse`,
/// `session.create`, one span per `advance` (named by the status it
/// returned) and one `checkpoint.serialize` per band fold, all under
/// one `route` span.
///
/// # Errors
///
/// The design did not parse, or the session could not be built or
/// advanced.
pub fn route(
    design: &Design,
    threads: usize,
    mut tracer: Option<&mut Tracer>,
) -> Result<Routed, String> {
    let top = tracer.as_deref_mut().map(|t| t.open("route", None));
    let traced = top.is_some();
    let mut span = |name: &'static str, start: Instant, end: Instant| {
        if let Some(t) = tracer.as_deref_mut() {
            t.record(name, start, end, top);
        }
    };

    let t = Instant::now();
    let imported = design.ingest()?;
    let parsed = Instant::now();
    span("ingest.parse", t, parsed);
    let mut session = RoutingSession::create(
        config(threads),
        imported.plane,
        imported.netlist,
        false,
        traced,
    )
    .map_err(|e| format!("{}: {e}", design.name))?;
    let created = Instant::now();
    span("session.create", parsed, created);

    let budget = StepBudget::steps(if traced { 1 } else { SLICE_STEPS });
    let mut wall = Duration::ZERO;
    let mut advance = Interval {
        start: Instant::now(),
        end: Instant::now(),
        cpu: Duration::ZERO,
    };
    let mut ckpt = None;
    let report = loop {
        let (done, total) = session.progress();
        // A schedule without band folds is checkpointed at its last pause.
        let last_pause = ckpt.is_none() && done == total;
        if traced && last_pause {
            let start = Instant::now();
            ckpt = Some(session.snapshot());
            span("checkpoint.serialize", start, Instant::now());
        }
        let (status, call) = hostspeed::time(|| session.advance(budget));
        let (start, end) = (call.start, call.end);
        wall += end - start;
        advance.end = end;
        advance.cpu += call.cpu;
        let name = match status {
            SessionStatus::Running => "session.boundary",
            SessionStatus::CheckpointReady => "session.band_phase",
            SessionStatus::Done(_) => "session.finalize",
            SessionStatus::Failed(e) => return Err(format!("{}: {e}", design.name)),
        };
        span(name, start, end);
        match status {
            SessionStatus::Done(report) => break *report,
            SessionStatus::CheckpointReady if traced => {
                let start = Instant::now();
                ckpt = Some(session.snapshot());
                span("checkpoint.serialize", start, Instant::now());
            }
            _ => {}
        }
    };
    if let (Some(t), Some(top)) = (tracer, top) {
        t.close(top);
    }
    let router = session.router();
    Ok(Routed {
        parse: parsed - t,
        create: created - parsed,
        wall,
        advance,
        failed: router.failed().to_vec(),
        patterns: (0..session.plane().layers())
            .map(|l| router.patterns_on_layer(Layer(l)))
            .collect(),
        rules: *session.plane().rules(),
        report,
        ckpt,
    })
}

/// `(cut conflicts, spacer violations)` over every layer of a verdict.
#[must_use]
pub fn conflicts(v: &Verdict) -> (usize, usize) {
    (
        v.layers.iter().map(|l| l.cut_conflicts).sum(),
        v.layers.iter().map(|l| l.spacer_violations).sum(),
    )
}

/// The session-layer metrics, accumulated over the designs a workload
/// routes in-process and reported as means per route.
#[derive(Debug, Default)]
pub struct SessionLayers {
    reports: Vec<RoutingReport>,
    cut_conflicts: usize,
    spacer_violations: usize,
    input_bytes: usize,
    probes: u32,
    resume_failed: u32,
    ckpt_bytes: usize,
    traced_s: f64,
    untraced_s: f64,
    t2_s: f64,
    mismatches: u32,
}

impl SessionLayers {
    /// Routes `design` traced and verifies it (a `decomp.verify` span
    /// and the `decomp.*` metrics). With `probe`, also times
    /// the checkpoint round trip (the traced route's snapshot parsed and
    /// replayed by `RoutingSession::resume`), an untraced route, and an
    /// untraced threads-2 route, which must give the same result.
    ///
    /// # Errors
    ///
    /// See [`route`].
    pub fn route(
        &mut self,
        design: &Design,
        tracer: &mut Tracer,
        probe: bool,
    ) -> Result<Routed, String> {
        let routed = route(design, 1, Some(tracer))?;
        let verdict = tracer.time("decomp.verify", None, || routed.verify());
        let (cut, spacer) = conflicts(&verdict);
        self.reports.push(routed.report.clone());
        self.cut_conflicts += cut;
        self.spacer_violations += spacer;
        self.input_bytes += design.text.len();
        if probe {
            self.probe(design, &routed, tracer)?;
        }
        Ok(routed)
    }

    fn probe(
        &mut self,
        design: &Design,
        traced: &Routed,
        tracer: &mut Tracer,
    ) -> Result<(), String> {
        let ckpt = traced
            .ckpt
            .as_ref()
            .ok_or_else(|| format!("{}: the traced route took no snapshot", design.name))?;
        let snap = tracer
            .time("checkpoint.parse", None, || Snapshot::parse(ckpt))
            .map_err(|e| format!("{}: {e}", design.name))?;
        let imported = design.ingest()?;
        // A replay that diverges (see README, open findings) is timed up
        // to the divergence and counted, not fatal.
        let resumed = tracer.time("checkpoint.replay", None, || {
            RoutingSession::resume(
                config(1),
                imported.plane,
                imported.netlist,
                &snap,
                false,
                false,
            )
        });
        self.resume_failed += u32::from(resumed.is_err());
        self.ckpt_bytes += ckpt.len();

        let t1 = route(design, 1, None)?;
        let t2 = route(design, 2, None)?;
        self.probes += 1;
        self.traced_s += (traced.create + traced.wall).as_secs_f64();
        self.untraced_s += (t1.create + t1.wall).as_secs_f64();
        self.t2_s += (t2.create + t2.wall).as_secs_f64();
        if !t1.same_result(&t2) {
            self.mismatches += 1;
        }
        Ok(())
    }

    /// Whether every probed design routed identically at threads 1 and 2.
    #[must_use]
    pub fn threads_identical(&self) -> bool {
        self.probes > 0 && self.mismatches == 0
    }

    /// The session, stage, search, ledger, decomp, checkpoint, driver,
    /// ingest and obs metrics, from the accumulated routes and the
    /// tracer's spans.
    #[must_use]
    pub fn metrics(&self, tracer: &Tracer) -> Vec<Metric> {
        let n = self.reports.len().max(1) as f64;
        let p = f64::from(self.probes.max(1));
        let per_route = |name: &str| tracer.total(name) / n;
        let per_probe = |name: &str| tracer.total(name) / p;
        let sum =
            |field: fn(&RoutingReport) -> u64| self.reports.iter().map(field).sum::<u64>() as f64;
        let mut profile = StageProfile::new();
        for r in &self.reports {
            profile.accumulate(&r.profile);
        }
        let advances = ["session.band_phase", "session.boundary", "session.finalize"];
        let session_s =
            tracer.total("session.create") + advances.iter().map(|a| tracer.total(a)).sum::<f64>();
        let search_n = profile.stage(Stage::Search).count as f64;
        let mut out = vec![
            metric("session.create_s", per_route("session.create"), "s"),
            metric("session.band_phase_s", per_route("session.band_phase"), "s"),
            metric("session.boundary_s", per_route("session.boundary"), "s"),
            metric("session.finalize_s", per_route("session.finalize"), "s"),
            metric(
                "session.steps",
                advances.iter().map(|a| tracer.count(a)).sum::<usize>() as f64 / n,
                "count",
            ),
        ];
        let stages = [
            Stage::Search,
            Stage::Commit,
            Stage::Recolor,
            Stage::Ripup,
            Stage::Merge,
            Stage::Boundary,
        ];
        for stage in stages {
            let time = profile.stage(stage).time.as_secs_f64();
            out.push(metric(format!("stage.{stage}_s"), time / n, "s"));
        }
        for stage in stages {
            let count = profile.stage(stage).count as f64;
            out.push(metric(format!("stage.{stage}_n"), count / n, "count"));
        }
        let ledger = [
            ("ledger.ripups", sum(|r| r.ripups)),
            ("ledger.ripups_type_b", sum(|r| r.ripups_type_b)),
            ("ledger.ripups_graph", sum(|r| r.ripups_graph)),
            ("ledger.ripups_risk", sum(|r| r.ripups_risk)),
            ("ledger.flips", sum(|r| r.flips)),
            ("ledger.failed_no_path", sum(|r| r.failed_no_path)),
            ("ledger.failed_exhausted", sum(|r| r.failed_exhausted)),
            ("ledger.failed_cleanup", sum(|r| r.failed_cleanup)),
        ];
        let nodes = sum(|r| r.nodes_expanded);
        let stage_s = profile.total_time().as_secs_f64();
        let coverage = 1.0 - ratio(tracer.self_total("route"), tracer.total("route"));
        out.extend([
            metric("stage.other_s", (session_s - stage_s) / n, "s"),
            metric("search.nodes_expanded", nodes / n, "count"),
            metric("search.nodes_per_search", ratio(nodes, search_n), "count"),
            metric(
                "search.useful_ratio",
                ratio(sum(|r| r.routed_nets as u64), search_n),
                "ratio",
            ),
        ]);
        out.extend(ledger.map(|(name, total)| metric(name, total / n, "count")));
        out.extend([
            metric("decomp.verify_s", per_route("decomp.verify"), "s"),
            metric(
                "decomp.cut_conflicts",
                self.cut_conflicts as f64 / n,
                "count",
            ),
            metric(
                "decomp.spacer_violations",
                self.spacer_violations as f64 / n,
                "count",
            ),
            metric(
                "checkpoint.serialize_s",
                ratio(
                    tracer.total("checkpoint.serialize"),
                    tracer.count("checkpoint.serialize") as f64,
                ),
                "s",
            ),
            metric("checkpoint.parse_s", per_probe("checkpoint.parse"), "s"),
            metric("checkpoint.replay_s", per_probe("checkpoint.replay"), "s"),
            metric(
                "checkpoint.resume_failed",
                f64::from(self.resume_failed),
                "count",
            ),
            metric("checkpoint.bytes", self.ckpt_bytes as f64 / p, "bytes"),
            metric("driver.t2_route_s", self.t2_s / p, "s"),
            metric(
                "driver.parallel_speedup",
                ratio(self.untraced_s, self.t2_s),
                "ratio",
            ),
            metric("ingest.parse_ms", per_route("ingest.parse") * 1e3, "ms"),
            metric("ingest.bytes", self.input_bytes as f64 / n, "bytes"),
            metric(
                "obs.timing_overhead",
                ratio(self.traced_s, self.untraced_s),
                "ratio",
            ),
            metric("obs.session_coverage", coverage, "ratio"),
        ]);
        out
    }
}
