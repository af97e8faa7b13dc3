//! `route-test5`: the paper's Table III runtime.
//!
//! The run generates [`DESIGNS`] Test5-class designs from its seed (5600
//! nets on 402×402×3 tracks at scale 0.2; design `k` from seed
//! `seed + 7919k`, so seed 105 starts with the paper suite's own Test5)
//! and routes each once. A route parses the design's layout text, creates
//! a `RoutingSession` at threads 1 and advances it to `Done` in 64-step
//! slices, as `sadp route` does. Search, recolor and finalize/cut repair
//! do nearly all the work; ingest and protocol do almost none.
//!
//! Timings are CPU time of the pinned benchmark thread at the reference
//! host speed (see [`hostspeed`]):
//!
//! - set-up: parse plus create, median of [`SETUPS_PER_DESIGN`] set-ups
//!   before each route (spread over the run, so a brief host slowdown
//!   cannot set it);
//! - operation: one route (the `advance` calls). `op_p50_ms` is the
//!   median over the designs; with five samples, the nearest-rank
//!   `op_p90_ms` (printed and recorded) is the slowest. The raw
//!   wall-clock median is recorded as `op_wall_p50_ms`;
//! - quality: overlay summed over the designs, and routed over total
//!   nets of all of them;
//! - ops: routes. A route whose layout does not pixel-verify fails.
//!
//! Several designs, rather than repeats of one, keep the median from
//! resting on one design's density: over seeds 1–10, single designs'
//! scaled route times spread about a tenth.
//!
//! Checks: every layout verifies with 0 cut conflicts. A traced run also
//! routes the first design at threads 2, which must give the threads-1
//! result; untraced runs leave that route out, because it would add a
//! fifth to their length. A traced run is not pinned (the threads-2
//! route needs both cores), so its end-to-end timings, which only its
//! record holds, are raw CPU time.
//!
//! [`hostspeed`]: crate::hostspeed

use crate::hostspeed::{self, HostClock};
use crate::session::{self, config, SessionLayers};
use crate::{design_seed, end_to_end, Design, Outcome, Run, Size, Tracer};
use sadp_core::RoutingSession;

/// Test5's scale in the toy size: ~110 nets.
pub(crate) const TOY_SCALE: f64 = 0.004;

/// Test5's scale in the full size (the Table III instance at 0.2).
pub(crate) const FULL_SCALE: f64 = 0.2;

/// Designs routed per run, each once.
pub const DESIGNS: usize = 5;

/// Set-ups (parse plus create) behind `setup_s`, before each route.
const SETUPS_PER_DESIGN: usize = 3;

/// Runs the workload.
///
/// # Errors
///
/// A design failed to parse or route.
pub fn run(run: &Run) -> Result<Outcome, String> {
    let scale = match run.size {
        Size::Full => FULL_SCALE,
        Size::Toy => TOY_SCALE,
    };
    let mut out = Outcome::default();
    let mut tracer = run.trace.then(Tracer::new);
    let clock = (!run.trace).then(HostClock::start);
    let mut layers = SessionLayers::default();
    let (mut setup, mut routes) = (Vec::new(), Vec::new());
    let (mut overlay, mut routed, mut total) = (0, 0, 0);
    let (mut cut, mut spacer, mut reported) = (0, 0, 0);
    for k in 0..DESIGNS {
        let design = Design::test5(design_seed(run.seed, k), scale);
        for _ in 0..SETUPS_PER_DESIGN {
            let (created, interval) = hostspeed::time(|| {
                let imported = design.ingest()?;
                RoutingSession::create(config(1), imported.plane, imported.netlist, false, false)
                    .map_err(|e| format!("{}: {e}", design.name))
            });
            created?;
            if let Some(tr) = tracer.as_mut() {
                tr.record("route.setup", interval.start, interval.end, None);
            }
            setup.push(interval);
        }
        let r = match tracer.as_mut() {
            Some(t) => layers.route(&design, t, k == 0)?,
            None => session::route(&design, 1, None)?,
        };
        routes.push(r.advance);

        let verdict = r.verify();
        let (c, s) = session::conflicts(&verdict);
        if !verdict.is_decomposable() || r.report.cut_conflicts > 0 {
            out.failed_ops += 1;
        }
        cut += c;
        spacer += s;
        reported += r.report.cut_conflicts;
        overlay += r.report.overlay_units;
        routed += r.report.routed_nets;
        total += r.report.total_nets;
    }
    let speed = clock.map(HostClock::finish).unwrap_or_default();
    out.check(
        "every design verifies",
        out.failed_ops == 0,
        format!(
            "{} of {DESIGNS} layouts fail: {cut} pixel cut conflicts, {spacer} spacer \
             violations, {reported} in the reports",
            out.failed_ops
        ),
    );
    out.ops = DESIGNS as u64;

    out.samples = vec![
        ("op", routes.len()),
        ("setup", setup.len()),
        ("host", speed.len()),
    ];
    out.metrics = end_to_end(
        &speed.scale(&setup),
        &speed.scale(&routes),
        overlay,
        routed,
        total,
    );
    out.metrics.extend(speed.metrics(&routes));
    if let Some(t) = &tracer {
        out.check(
            "threads 2 routes like threads 1",
            layers.threads_identical(),
            "the first design",
        );
        out.metrics.extend(layers.metrics(t));
    }
    out.tracer = tracer;
    Ok(out)
}
