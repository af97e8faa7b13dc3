//! `eco-test5`: the ECO engine on Test5-class designs.
//!
//! The run edits [`DESIGNS`] designs generated from its seed, one after
//! the other; the first is the design `route-test5` routes for the same
//! seed. Set-up is each design's `EcoSession::create`, a full batch
//! route; `setup_s` is the median over the designs. Each design then
//! takes an edit-then-restore history: [`EDITS`] seeded edits, half of
//! them remove/re-add pairs of a random net and half add/remove pairs of
//! a 6×6-track obstacle on layer 1 or 2, pairs in seeded order (draws
//! the session rejects are redrawn and counted); then `EDITS / 2` undos,
//! which walk that deep into the journal, and `EDITS / 2` redos back.
//! Writes are a scoped rip-up and re-route of the few hundred nets near
//! the edit, without finalize; restores are journal rebuilds (checkpoint
//! parse plus replay, no search). Several designs, rather than one,
//! keep a run's numbers from resting on one design's density.
//!
//! An operation is one edit, undo or redo, and `op_p50_ms`/`op_p90_ms`
//! are over all of them; the edit and restore medians are per-layer
//! metrics.
//!
//! Every 10th edit of a design is pixel-verified outside the timed
//! region. ECO edits skip cleanup and cut repair, so cut conflicts
//! accumulate: they are reported (`eco.cut_conflicts`), not failed. A
//! block of 10 edits fails when its verify finds destroyed target
//! patterns (spacer violations).
//!
//! Checks: after each undo the state digest equals the one taken after
//! the edit it returns to, and after each redo the one taken after the
//! edit it re-applies; a mismatch fails its restore.

use crate::hostspeed::{self, HostClock, Interval};
use crate::route::{FULL_SCALE, TOY_SCALE};
use crate::session::{config, conflicts, SessionLayers};
use crate::{
    design_seed, end_to_end, median, metric, percentile, ratio, Design, Outcome, Run, Size, Tracer,
};
use sadp_core::eco::{EcoEdit, EcoError, EcoSession};
use sadp_decomp::verify_layers;
use sadp_geom::{Layer, Rng, TrackRect};
use sadp_grid::NetId;
use std::collections::BTreeMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::time::Instant;

/// Designs edited per run.
const DESIGNS: usize = 3;

/// Edits of each design in a full run: 5 net pairs and 5 obstacle
/// pairs. With their restores the run has 120 operations, so its p90
/// has 12 beyond it.
pub const EDITS: usize = 20;

/// Edits of each design in a toy run.
const TOY_EDITS: usize = 8;

/// Edge of an obstacle edit, in tracks.
const OBSTACLE_TRACKS: i32 = 6;

/// Edits of one design between two pixel verifications.
const VERIFY_EVERY: usize = 10;

/// The span and metric stem of each edit kind.
fn kind(edit: &EcoEdit) -> &'static str {
    match edit {
        EcoEdit::RemoveNet { .. } => "eco.remove",
        EcoEdit::AddNet { .. } => "eco.add",
        EcoEdit::AddObstacle { .. } => "eco.obstacle_add",
        EcoEdit::RemoveObstacle { .. } => "eco.obstacle_remove",
        EcoEdit::MoveNet { .. } => "eco.move",
    }
}

/// `(cut conflicts, spacer violations)` of the session's layout.
fn verify(eco: &EcoSession) -> (usize, usize) {
    let layers: Vec<_> = (0..eco.plane().layers())
        .map(|l| eco.router().patterns_on_layer(Layer(l)))
        .collect();
    conflicts(&verify_layers(&layers, eco.plane().rules()))
}

/// A hash of the session's state digest: the digest of a Test5-size
/// layout is megabytes, and one is kept per edit.
fn digest(eco: &EcoSession) -> u64 {
    let mut h = DefaultHasher::new();
    eco.state_digest().hash(&mut h);
    h.finish()
}

/// The series over every design: the seeded draws and what they cost.
#[derive(Default)]
struct Series {
    tracer: Option<Tracer>,
    /// `(kind, timing)` of every applied edit.
    edits: Vec<(&'static str, Interval)>,
    /// `(kind, timing)` of every undo and redo.
    restores: Vec<(&'static str, Interval)>,
    /// The current design's state digest before its first edit and
    /// after each one.
    digests: Vec<u64>,
    invalidated: Vec<f64>,
    rerouted: u64,
    rejected: u64,
    /// Edit blocks with spacer violations, times [`VERIFY_EVERY`].
    failed_edits: u64,
    /// Restores whose digest did not match.
    mismatches: u64,
    /// Cut conflicts after a design's n-th edit, summed over designs.
    trajectory: BTreeMap<usize, usize>,
}

impl Series {
    fn span(&mut self, name: &'static str, start: Instant, end: Instant) {
        if let Some(t) = self.tracer.as_mut() {
            t.record(name, start, end, None);
        }
    }

    fn timed(&mut self, name: &'static str, interval: Interval) {
        self.span(name, interval.start, interval.end);
    }

    /// Applies one edit, timed; its digest and the pixel check are taken
    /// outside the timing.
    fn apply(&mut self, eco: &mut EcoSession, edit: EcoEdit) -> Result<(), EcoError> {
        let name = kind(&edit);
        let (outcome, interval) = hostspeed::time(|| eco.apply(edit));
        let outcome = outcome?;
        self.timed(name, interval);
        self.edits.push((name, interval));
        self.invalidated.push(outcome.invalidated.len() as f64);
        self.rerouted += outcome.rerouted;
        self.digests.push(digest(eco));
        let applied = eco.undo_depth();
        if applied.is_multiple_of(VERIFY_EVERY) {
            let t = Instant::now();
            let (cut, spacer) = verify(eco);
            self.span("eco.verify", t, Instant::now());
            *self.trajectory.entry(applied).or_default() += cut;
            if spacer > 0 {
                self.failed_edits += VERIFY_EVERY as u64;
            }
        }
        Ok(())
    }

    /// The first edit of a pair: a random net removed, or a random
    /// obstacle added (an obstacle draw the session rejects because it
    /// covers a pin candidate is redrawn). Returns the edit undoing it.
    fn first(&mut self, eco: &mut EcoSession, net: bool, rng: &mut Rng) -> Result<EcoEdit, String> {
        if net {
            let active: Vec<NetId> = eco.active_nets().collect();
            let id = active[rng.index(active.len())];
            let n = eco.netlist().net(id);
            let add = EcoEdit::AddNet {
                name: n.name.clone(),
                pins: n.pins().cloned().collect(),
            };
            self.apply(eco, EcoEdit::RemoveNet { net: id })
                .map_err(|e| e.to_string())?;
            return Ok(add);
        }
        let (w, h) = (eco.plane().width(), eco.plane().height());
        loop {
            let layer = Layer(1 + rng.index(2) as u8);
            let x = rng.range_i32(0..(w - OBSTACLE_TRACKS + 1).max(1));
            let y = rng.range_i32(0..(h - OBSTACLE_TRACKS + 1).max(1));
            let rect = TrackRect::new(x, y, x + OBSTACLE_TRACKS - 1, y + OBSTACLE_TRACKS - 1);
            match self.apply(eco, EcoEdit::AddObstacle { layer, rect }) {
                Ok(()) => return Ok(EcoEdit::RemoveObstacle { layer, rect }),
                Err(EcoError::BadEdit(_)) => self.rejected += 1,
                Err(e) => return Err(e.to_string()),
            }
        }
    }

    /// An undo or a redo, timed; the state digest must then equal the
    /// one taken after the design's edit `edit` (0: before the first).
    fn restore(&mut self, eco: &mut EcoSession, undo: bool, edit: usize) -> Result<(), String> {
        let name = if undo { "eco.undo" } else { "eco.redo" };
        let (restored, interval) = hostspeed::time(|| if undo { eco.undo() } else { eco.redo() });
        restored.map_err(|e| format!("{name}: {e}"))?;
        self.timed(name, interval);
        self.restores.push((name, interval));
        self.mismatches += u64::from(digest(eco) != self.digests[edit]);
        Ok(())
    }

    /// One design's history: `edits` edits in pairs, half of each kind
    /// in seeded order, then `edits / 2` undos and as many redos.
    fn design(&mut self, eco: &mut EcoSession, edits: usize, rng: &mut Rng) -> Result<(), String> {
        let mut nets: Vec<bool> = (0..edits / 2).map(|i| i % 2 == 0).collect();
        for i in (1..nets.len()).rev() {
            nets.swap(i, rng.index(i + 1));
        }
        self.digests = vec![digest(eco)];
        for net in nets {
            let undo = self.first(eco, net, rng)?;
            self.apply(eco, undo).map_err(|e| e.to_string())?;
        }
        let depth = edits / 2;
        for k in 1..=depth {
            self.restore(eco, true, edits - k)?;
        }
        for k in 1..=depth {
            self.restore(eco, false, edits - depth + k)?;
        }
        Ok(())
    }

    fn latencies(samples: &[(&'static str, Interval)], kind: Option<&str>) -> Vec<Interval> {
        samples
            .iter()
            .filter(|(n, _)| kind.is_none_or(|k| k == *n))
            .map(|&(_, t)| t)
            .collect()
    }
}

/// Runs the workload.
///
/// # Errors
///
/// A design failed to route, or a drawn edit or a restore failed to
/// apply.
pub fn run(run: &Run) -> Result<Outcome, String> {
    let (scale, edits) = match run.size {
        Size::Full => (FULL_SCALE, EDITS),
        Size::Toy => (TOY_SCALE, TOY_EDITS),
    };
    let mut out = Outcome::default();
    let mut s = Series {
        tracer: run.trace.then(Tracer::new),
        ..Series::default()
    };
    let mut rng = Rng::seed_from_u64(run.seed ^ 0x0EC0_5E1E5);
    let clock = (!run.trace).then(HostClock::start);
    let mut setup = Vec::with_capacity(DESIGNS);
    let (mut overlay, mut routed, mut active) = (0, 0, 0);
    let (mut cut, mut spacer, mut nodes_expanded) = (0, 0, 0);
    let mut first_design = None;
    for k in 0..DESIGNS {
        let design = Design::test5(design_seed(run.seed, k), scale);
        let imported = design.ingest()?;
        let (created, interval) = hostspeed::time(|| {
            EcoSession::create(config(1), imported.plane, imported.netlist, false)
        });
        let mut eco = created.map_err(|e| format!("{}: {e}", design.name))?;
        s.timed("eco.create", interval);
        setup.push(interval);

        let nodes_before = eco.router().ledger().counters.nodes_expanded;
        s.design(&mut eco, edits, &mut rng)?;
        nodes_expanded += eco.router().ledger().counters.nodes_expanded - nodes_before;
        let (c, sv) = verify(&eco);
        cut += c;
        spacer += sv;
        overlay += eco
            .router()
            .report(eco.netlist(), Instant::now())
            .overlay_units;
        let (r, _, a) = eco.stats();
        routed += r;
        active += a;
        first_design.get_or_insert(design);
    }
    let speed = clock.map(HostClock::finish).unwrap_or_default();
    let restores = s.restores.len();
    out.check(
        "every undo and redo restores its state digest",
        s.mismatches == 0,
        format!("{} of {restores} restores mismatched", s.mismatches),
    );
    out.check(
        "post-series layouts keep every target pattern",
        spacer == 0,
        format!("{spacer} spacer violations, {cut} cut conflicts"),
    );

    let edit_lat = speed.scale(&Series::latencies(&s.edits, None));
    let restore_lat = speed.scale(&Series::latencies(&s.restores, None));
    let ops: Vec<f64> = edit_lat.iter().chain(&restore_lat).copied().collect();
    let ms = |xs: &[f64], q: f64| percentile(xs, q) * 1e3;
    let p50 = |samples: &[(&'static str, Interval)], k: &str| {
        median(&speed.scale(&Series::latencies(samples, Some(k)))) * 1e3
    };
    let invalidated: f64 = s.invalidated.iter().sum();

    out.ops = ops.len() as u64;
    out.failed_ops = s.failed_edits + s.mismatches;
    out.samples = vec![
        ("op", ops.len()),
        ("setup", setup.len()),
        ("edit", edit_lat.len()),
        ("restore", restore_lat.len()),
        ("host", speed.len()),
    ];
    out.metrics = end_to_end(&speed.scale(&setup), &ops, overlay, routed, active);
    let intervals: Vec<Interval> = s.edits.iter().chain(&s.restores).map(|e| e.1).collect();
    out.metrics.extend(speed.metrics(&intervals));
    out.metrics.extend([
        metric(
            "eco.invalidated_mean",
            ratio(invalidated, s.invalidated.len() as f64),
            "count",
        ),
        metric(
            "eco.invalidated_max",
            s.invalidated.iter().copied().fold(0.0, f64::max),
            "count",
        ),
        metric("eco.rerouted", s.rerouted as f64, "count"),
        metric("eco.nodes_expanded", nodes_expanded as f64, "count"),
        metric("eco.rejected_draws", s.rejected as f64, "count"),
        metric("eco.cut_conflicts", cut as f64, "count"),
        metric("eco.edit_p50_ms", ms(&edit_lat, 0.5), "ms"),
        metric("eco.restore_p50_ms", ms(&restore_lat, 0.5), "ms"),
        metric("eco.edit_p90_ms", ms(&edit_lat, 0.9), "ms"),
        metric("eco.restore_p90_ms", ms(&restore_lat, 0.9), "ms"),
        metric("eco.remove_p50_ms", p50(&s.edits, "eco.remove"), "ms"),
        metric("eco.add_p50_ms", p50(&s.edits, "eco.add"), "ms"),
        metric(
            "eco.obstacle_add_p50_ms",
            p50(&s.edits, "eco.obstacle_add"),
            "ms",
        ),
        metric(
            "eco.obstacle_remove_p50_ms",
            p50(&s.edits, "eco.obstacle_remove"),
            "ms",
        ),
        metric("eco.undo_p50_ms", p50(&s.restores, "eco.undo"), "ms"),
        metric("eco.redo_p50_ms", p50(&s.restores, "eco.redo"), "ms"),
        metric(
            "eco.ms_per_invalidated",
            ratio(edit_lat.iter().sum::<f64>() * 1e3, invalidated),
            "ms",
        ),
    ]);
    for (&edit, &cut) in &s.trajectory {
        out.metrics.push(metric(
            format!("eco.cut_conflicts.e{edit}"),
            cut as f64,
            "count",
        ));
    }
    if let Some(t) = s.tracer.as_mut() {
        let design = first_design.expect("at least one design");
        let mut layers = SessionLayers::default();
        layers.route(&design, t, true)?;
        out.check(
            "threads 2 routes like threads 1",
            layers.threads_identical(),
            design.name,
        );
        out.metrics.extend(layers.metrics(t));
    }
    out.tracer = s.tracer;
    Ok(out)
}
