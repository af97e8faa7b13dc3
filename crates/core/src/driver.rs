//! The staged routing driver (Fig. 18 / Fig. 19 as a pipeline).
//!
//! Per net, [`route_net`] runs the stages in order: pure **search**
//! ([`SearchStage`](crate::search::SearchStage)), scenario **scan**
//! ([`scan_fragments`]), the type-B cut-conflict check, then the
//! **propose → trial-color → commit/abort** protocol of the
//! [`CommitLedger`].
//!
//! [`ScheduleMachine`] drives the whole netlist, one step at a time: a
//! band phase, then a serial tail. On planes wide enough for more than
//! one column band (see [`BandPlan`]) nets whose influence region (pin
//! bounding box + search margin + scenario halo) fits one band are
//! routed by per-band workers on `std::thread::scope` against fully
//! private state (a plane clone, a fresh ledger and grids; the pin guards
//! are shared read-only — they never change after the reservation
//! pre-pass). Band results are merged in ascending band order.
//!
//! Every other net — all of them on a single-band plane, the
//! band-straddling boundary nets otherwise — then routes serially at its
//! canonical turn against the merged state, as the paper's flow routes
//! one net at a time: each commit feeds the constraint graph that the
//! next net's trial coloring reads.
//!
//! The schedule — band count, net classification, per-band net order,
//! merge order — depends only on the plane geometry and the netlist,
//! never on the worker count, so any `threads` value produces
//! byte-identical results. Workers only change how many bands are *in
//! flight* at once.

use crate::astar::SearchScratch;
use crate::budget::{Budget, RunBudget};
use crate::config::RouterConfig;
use crate::grids::{DirGrid, GuardGrid, PenaltyGrid, NO_GUARD};
use crate::ledger::CommitLedger;
use crate::router::Workspace;
use crate::scan::{scan_fragments, FoundScenario};
use crate::search::SearchStage;
use sadp_geom::{GridPoint, Layer, Orientation, TrackRect};
use sadp_grid::{BandPlan, Net, NetId, Netlist, RoutingPlane};
use sadp_obs::{BufferRecorder, FailReason, Recorder, RipReason, RouterEvent, SpanClock, Stage};
use sadp_scenario::ScenarioKind;
use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Mutable context of one routing stream (the global one, or one band
/// worker's private one).
pub(crate) struct RouteCtx<'a> {
    pub config: &'a RouterConfig,
    pub ledger: &'a mut CommitLedger,
    pub dir_map: &'a mut DirGrid,
    pub guards: &'a GuardGrid,
    pub penalties: &'a mut PenaltyGrid,
    pub scratch: &'a mut SearchScratch,
    /// The whole-run budget, shared (read-mostly atomics) across every
    /// stream of the run including band workers.
    pub run_budget: &'a RunBudget,
    /// Observability sink of this stream: the caller's recorder on the
    /// serial paths, a private [`BufferRecorder`] inside a band worker.
    pub rec: &'a mut dyn Recorder,
}

impl<'a> RouteCtx<'a> {
    /// The context of the global stream: the router's ledger and its
    /// workspace grids.
    pub(crate) fn new(
        config: &'a RouterConfig,
        ledger: &'a mut CommitLedger,
        ws: &'a mut Workspace,
        run_budget: &'a RunBudget,
        rec: &'a mut dyn Recorder,
    ) -> RouteCtx<'a> {
        RouteCtx {
            config,
            ledger,
            dir_map: &mut ws.dir_map,
            guards: &ws.guards,
            penalties: &mut ws.penalties,
            scratch: &mut ws.scratch,
            run_budget,
            rec,
        }
    }
}

/// Records one failed net: bumps the ledger counter of `reason` and
/// emits the `net_failed` event. Every failure the router records goes
/// through here, so the per-reason counters and the trace always agree.
pub(crate) fn net_failed(
    ledger: &mut CommitLedger,
    rec: &mut dyn Recorder,
    net: NetId,
    reason: FailReason,
) {
    let c = &mut ledger.counters;
    *match reason {
        FailReason::NoPath => &mut c.failed_no_path,
        FailReason::Exhausted => &mut c.failed_exhausted,
        FailReason::Cleanup => &mut c.failed_cleanup,
        FailReason::BudgetExceeded => &mut c.failed_budget,
    } += 1;
    if rec.enabled() {
        rec.event(RouterEvent::NetFailed { net: net.0, reason });
    }
}

/// Occupies every pin candidate cell of `net` up front so earlier nets
/// cannot route over the pins of later ones (the owner may still enter
/// its own reserved cells), and claims the soft guard halo around each
/// candidate (first reserver wins).
pub(crate) fn reserve_pins(
    config: &RouterConfig,
    guards: &mut GuardGrid,
    plane: &mut RoutingPlane,
    net: &Net,
) {
    for pin in net.pins() {
        for &c in pin.candidates() {
            let _ = plane.occupy(c, net.id);
        }
    }
    claim_pin_guards(config, guards, net);
}

/// The guard-halo half of [`reserve_pins`]: claims the soft 3×3 keep-out
/// around every pin candidate of `net` (first reserver wins) without
/// touching plane occupancy. The checkpoint loader uses this alone to
/// rebuild the reservation pre-pass's guards, where occupancy comes from
/// the snapshot instead.
pub(crate) fn claim_pin_guards(config: &RouterConfig, guards: &mut GuardGrid, net: &Net) {
    let guard = config.pin_guard_cost();
    for g in guard_halo(config, net) {
        // First reserver wins, as with the map's entry().or_insert this
        // replaced.
        if guards.contains(g) && guards.get(g) == NO_GUARD {
            guards.set(g, (net.id, guard));
        }
    }
}

/// The cells [`claim_pin_guards`] tries to claim for `net`, in claim
/// order: the 3×3 block around every pin candidate, unclipped. Empty
/// when the config turns pin guards off.
pub(crate) fn guard_halo<'a>(
    config: &RouterConfig,
    net: &'a Net,
) -> impl Iterator<Item = GridPoint> + 'a {
    let on = config.pin_guard_cost() > 0;
    net.pins()
        .filter(move |_| on)
        .flat_map(|pin| pin.candidates())
        .flat_map(|&c| {
            (-1..=1).flat_map(move |dx| {
                (-1..=1).map(move |dy| GridPoint::new(c.layer, c.x + dx, c.y + dy))
            })
        })
}

/// Undoes [`reserve_pins`] for one net: frees every pin candidate cell
/// still owned by `net` and returns its guard-halo claims to
/// [`NO_GUARD`]. Called on the ECO re-route's failure path (and when the
/// ECO engine removes a net) so an unroutable net does not pin its
/// candidate cells forever.
pub(crate) fn release_pins(
    config: &RouterConfig,
    guards: &mut GuardGrid,
    plane: &mut RoutingPlane,
    net: &Net,
) {
    let guard = config.pin_guard_cost();
    for pin in net.pins() {
        for &c in pin.candidates() {
            if plane.occupant(c) == Some(net.id) {
                plane.clear_path(&[c], net.id);
            }
            if guard > 0 {
                for dx in -1..=1 {
                    for dy in -1..=1 {
                        let g = GridPoint::new(c.layer, c.x + dx, c.y + dy);
                        if guards.contains(g) && guards.get(g).0 == net.id {
                            guards.set(g, NO_GUARD);
                        }
                    }
                }
            }
        }
    }
}

/// Records one rip-up: penalises the offending cells (timed as the
/// `ripup` stage), bumps the aggregate and per-reason counters and emits
/// the `net_ripped` event.
fn rip_up(
    ctx: &mut RouteCtx<'_>,
    net: u32,
    attempt: u32,
    reason: RipReason,
    cells: &[(Layer, TrackRect)],
) {
    let clock = SpanClock::start(&*ctx.rec);
    penalize(ctx.config, ctx.penalties, cells);
    ctx.ledger.counters.ripups += 1;
    match reason {
        RipReason::TypeB => ctx.ledger.counters.ripups_type_b += 1,
        RipReason::Graph => ctx.ledger.counters.ripups_graph += 1,
        RipReason::Risk => ctx.ledger.counters.ripups_risk += 1,
    }
    clock.stop(ctx.rec, Stage::Ripup);
    if ctx.rec.enabled() {
        ctx.rec.event(RouterEvent::NetRipped {
            net,
            attempt,
            reason,
        });
    }
}

/// Routes one net through the full stage pipeline with up to `max_ripup`
/// rip-up-and-re-route iterations; returns whether the net was committed.
/// `seed_penalties` pre-loads the penalty grid (used by the finalize
/// re-route to steer the net away from its old corridor).
/// `count_failures` is false for finalize re-routes: their casualties are
/// recorded once as `failed_cleanup` by the caller, not a second time as
/// initial-routing failures.
pub(crate) fn route_net(
    ctx: &mut RouteCtx<'_>,
    plane: &mut RoutingPlane,
    net: &Net,
    seed_penalties: &[(GridPoint, u64)],
    count_failures: bool,
) -> bool {
    match try_route(ctx, plane, net, seed_penalties, count_failures) {
        Ok(()) => true,
        Err(reason) => {
            if count_failures {
                net_failed(ctx.ledger, ctx.rec, net.id, reason);
            }
            false
        }
    }
}

/// The body of [`route_net`]: commits the net or says why it failed.
fn try_route(
    ctx: &mut RouteCtx<'_>,
    plane: &mut RoutingPlane,
    net: &Net,
    seed_penalties: &[(GridPoint, u64)],
    count_failures: bool,
) -> Result<(), FailReason> {
    let key = net.id.0;
    ctx.penalties.clear();
    for &(p, v) in seed_penalties {
        if ctx.penalties.contains(p) {
            ctx.penalties.update(p, |old| old + v);
        }
    }

    // Graceful degradation: once the run is over its global budget (or a
    // fault plan says this net's budget is exhausted), remaining nets
    // fail fast instead of searching, and the run finalizes whatever is
    // already committed. Injection is keyed by net id only, so serial,
    // banded, and recovered schedules see the identical fault set.
    let injected = count_failures && ctx.config.faults.is_some_and(|f| f.injects_net_budget(key));
    if injected || ctx.run_budget.tripped() {
        return Err(FailReason::BudgetExceeded);
    }

    // One per-net budget spans every rip-up attempt and branch search.
    let mut budget = Budget::for_net(ctx.config);

    for attempt in 0..=ctx.config.max_ripup {
        // Stage 1: pure search over read-only views.
        let stage = SearchStage {
            plane: &*plane,
            dir_map: &*ctx.dir_map,
            guards: ctx.guards,
            config: ctx.config,
        };
        let outcome = stage.search_net(net, ctx.penalties, ctx.scratch, &mut budget, ctx.rec);
        ctx.ledger.counters.nodes_expanded += outcome.expanded;
        ctx.run_budget.add_nodes(outcome.expanded);
        if outcome.budget_exceeded {
            ctx.ledger.forget(net.id);
            return Err(FailReason::BudgetExceeded);
        }
        let Some(candidate) = outcome.candidate else {
            return Err(FailReason::NoPath);
        };

        // Stages 2-5: scenario scan, type-B check, propose, trial-color,
        // commit.
        match commit_candidate(ctx, plane, net, candidate) {
            Ok(flipped) => {
                if ctx.rec.enabled() {
                    ctx.rec.event(RouterEvent::NetRouted {
                        net: key,
                        attempts: attempt + 1,
                        flipped,
                    });
                }
                return Ok(());
            }
            Err(StageReject::Merge(cells)) => {
                rip_up(ctx, key, attempt, RipReason::Graph, &cells);
            }
            Err(StageReject::TypeB(cells)) => {
                rip_up(ctx, key, attempt, RipReason::TypeB, &cells);
            }
            Err(StageReject::Graph {
                layer,
                other,
                cells,
            }) => {
                if ctx.rec.enabled() {
                    ctx.rec.event(RouterEvent::OddCycleDecomposed {
                        net: key,
                        layer: layer.index() as u8,
                        other,
                    });
                }
                rip_up(ctx, key, attempt, RipReason::Graph, &cells);
            }
            Err(StageReject::Risk(cells)) => {
                rip_up(ctx, key, attempt, RipReason::Risk, &cells);
            }
        }
    }
    // Attempts exhausted; leave the graphs clean.
    ctx.ledger.forget(net.id);
    Err(FailReason::Exhausted)
}

/// Why [`commit_candidate`] rejected a tentative route. Each variant
/// carries the offending cells so the caller can penalise them; the
/// ledger proposal is already aborted when one of these is returned.
enum StageReject {
    /// Merge-and-cut is disabled and the route formed 1-b pairs (the
    /// \[16\] ablation behaviour).
    Merge(Vec<(Layer, TrackRect)>),
    /// Unavoidable type-B cut conflict (Fig. 16).
    TypeB(Vec<(Layer, TrackRect)>),
    /// Constraint-graph rejection: odd cycle or infeasible pair.
    Graph {
        layer: Layer,
        other: u32,
        cells: Vec<(Layer, TrackRect)>,
    },
    /// The trial coloring could not avoid a realized risk.
    Risk(Vec<(Layer, TrackRect)>),
}

/// Stages 2-5 of the pipeline for one attempt's candidate: scenario
/// scan, type-B cut-conflict check, propose, trial coloring, commit.
/// Returns whether the committed net's component was flipped, or the
/// rejection (with the proposal aborted and the graphs rolled back).
fn commit_candidate(
    ctx: &mut RouteCtx<'_>,
    plane: &mut RoutingPlane,
    net: &Net,
    candidate: crate::search::RouteCandidate,
) -> Result<bool, StageReject> {
    let key = net.id.0;

    // Stage 2: classify the tentative route against the routed layout
    // (BTreeMap: layer order must be deterministic).
    let clock = SpanClock::start(&*ctx.rec);
    let mut found: Vec<FoundScenario> = Vec::new();
    let mut per_layer: BTreeMap<Layer, Vec<TrackRect>> = BTreeMap::new();
    for &(layer, rect) in &candidate.fragments {
        per_layer.entry(layer).or_default().push(rect);
    }
    for (layer, frags) in &per_layer {
        found.extend(scan_fragments(
            *layer,
            key,
            frags,
            ctx.ledger.frag_index(*layer),
            plane.rules(),
        ));
    }
    clock.stop(ctx.rec, Stage::Commit);

    // Ablation: without the merge technique every tip-to-tip pair is
    // undecomposable (the \[16\] behaviour) and must be routed away
    // from.
    if !ctx.config.allow_merge {
        let merges: Vec<(Layer, TrackRect)> = found
            .iter()
            .filter(|f| f.scenario.kind == ScenarioKind::OneB)
            .map(|f| (f.layer, f.our_rect))
            .collect();
        if !merges.is_empty() {
            return Err(StageReject::Merge(merges));
        }
    }

    // Cut conflict check (type B, Fig. 16).
    if let Some(bad) = type_b_conflict(&found, plane.rules()) {
        return Err(StageReject::TypeB(bad));
    }

    // Stage 3: propose — stage the scenario edges in the ledger; odd
    // cycles or infeasible pairs abort the proposal and trigger rip-up
    // (Fig. 19 lines 6-9). The union-find checkpoints inside the
    // proposal make the abort O(net) instead of O(E).
    let clock = SpanClock::start(&*ctx.rec);
    let proposal = ctx.ledger.propose(net.id);
    let mut offender: Option<(Layer, u32)> = None;
    for f in &found {
        if !f.scenario.is_constraining() {
            continue;
        }
        if ctx
            .ledger
            .add_scenario(
                &proposal,
                f.layer,
                f.other_net,
                f.scenario.kind,
                f.scenario.table,
            )
            .is_err()
        {
            offender = Some((f.layer, f.other_net));
            break;
        }
    }
    clock.stop(ctx.rec, Stage::Commit);
    if let Some((layer, bad_net)) = offender {
        ctx.ledger.abort(proposal);
        let cells: Vec<(Layer, TrackRect)> = found
            .iter()
            .filter(|f| f.layer == layer && f.other_net == bad_net)
            .map(|f| (layer, f.our_rect))
            .collect();
        return Err(StageReject::Graph {
            layer,
            other: bad_net,
            cells,
        });
    }

    // Stage 4: trial coloring — pseudo-color, flip on demand, and
    // verify no hard overlay or type-A cut risk remains realized. A
    // risk the coloring cannot avoid is a cut conflict in the making —
    // abort and steer away (Fig. 19 lines 6-9).
    let clock = SpanClock::start(&*ctx.rec);
    let layers: Vec<Layer> = per_layer.keys().copied().collect();
    let (overlay, needs_flip) = ctx.ledger.trial_color(&proposal, &layers);
    let mut flipped = false;
    if needs_flip || overlay > ctx.config.flip_threshold {
        ctx.ledger.flip_trial(&proposal, &layers);
        flipped = true;
    }
    let risky_layers = ctx.ledger.risky_layers(&proposal, &layers);
    clock.stop(ctx.rec, Stage::Recolor);
    if !risky_layers.is_empty() {
        let cells: Vec<(Layer, TrackRect)> = found
            .iter()
            .filter(|f| risky_layers.contains(&f.layer))
            .map(|f| (f.layer, f.our_rect))
            .collect();
        ctx.ledger.abort(proposal);
        return Err(StageReject::Risk(cells));
    }
    if flipped {
        ctx.ledger.counters.flips += 1;
    }

    // Stage 5: commit.
    let clock = SpanClock::start(&*ctx.rec);
    ctx.ledger
        .commit(proposal, plane, ctx.dir_map, net, candidate);
    clock.stop(ctx.rec, Stage::Commit);
    Ok(flipped)
}

/// Adds rip-up penalties around the given cells so the re-route leaves
/// the conflicting corridor instead of shifting by a single track into
/// the same scenario (the whole dependence-radius neighbourhood is
/// penalised, decaying with distance).
pub(crate) fn penalize(
    config: &RouterConfig,
    penalties: &mut PenaltyGrid,
    cells: &[(Layer, TrackRect)],
) {
    let p = config.ripup_penalty_cost();
    for (layer, rect) in cells {
        for (x, y) in rect.expanded(2).cells() {
            let cell = GridPoint::new(*layer, x, y);
            if !penalties.contains(cell) {
                continue;
            }
            let d = rect.track_gap(&TrackRect::cell(x, y));
            let scale = 2 - (d.0.max(d.1)).min(2) as u64 + 1;
            penalties.update(cell, |v| v + p * scale / 2);
        }
    }
}

/// The conservative interaction footprint of `net`.
///
/// The rectangle covers everything routing this net can read or write:
///
/// * the bounding box of **all** pin candidates (every candidate can
///   seed or terminate the search),
/// * expanded by the search window margin once per pin beyond the
///   first: the A\* window of the trunk is the pin bounding box grown by
///   `search_margin`, and each branch search may extend the window by
///   another margin (its targets are points of the previous windows),
/// * expanded by `halo` extra tracks so that neighbour reads just
///   outside the window (the `T2b` cost term inspects adjacent cells,
///   and scenario scans reach `dependence_radius_tracks`) stay inside,
///
/// clipped to the plane. The schedule classifies nets into bands by its
/// column range at `halo` 0 ([`BandPlan::band_of_span`] adds the band
/// halo itself); the ECO engine invalidates by it.
pub(crate) fn net_footprint(
    net: &Net,
    config: &RouterConfig,
    halo: i32,
    plane: &RoutingPlane,
) -> TrackRect {
    let mut bbox: Option<TrackRect> = None;
    for pin in net.pins() {
        for c in pin.candidates() {
            let cell = TrackRect::cell(c.x, c.y);
            bbox = Some(match bbox {
                Some(b) => b.union_bbox(&cell),
                None => cell,
            });
        }
    }
    let margin = config
        .search_margin
        .saturating_mul(1 + net.extra.len() as i32)
        .saturating_add(halo);
    let plane_rect = TrackRect::new(0, 0, plane.width() - 1, plane.height() - 1);
    bbox.expect("a net has at least two pins")
        .expanded(margin)
        .intersection(&plane_rect)
        .unwrap_or(plane_rect)
}

/// The result of one band worker.
struct BandOutcome {
    ledger: CommitLedger,
    failed: Vec<NetId>,
    /// The worker's private event/span buffer, replayed into the caller's
    /// recorder in band order so traces are thread-count-invariant.
    rec: BufferRecorder,
}

/// What one [`ScheduleMachine::step`] call did. Every non-`Complete`
/// increment ends *between* canonical commits, so pausing after any step
/// leaves a state [`crate::checkpoint::serialize`] can capture and a
/// resumed run reproduces byte-identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StepEvent {
    /// One net of the serial tail was routed at its canonical turn.
    Net,
    /// One band's private ledger was folded into the global state — a
    /// boundary whose snapshot is worth persisting. The first fold also
    /// runs (and pays for) the entire parallel band phase, recovery
    /// included.
    BandFold,
    /// The schedule is finished; no work was done. Further calls keep
    /// returning `Complete`.
    Complete,
}

/// The borrowed router state one schedule step executes against.
pub(crate) struct StepArgs<'a> {
    pub config: &'a RouterConfig,
    pub ledger: &'a mut CommitLedger,
    pub ws: &'a mut Workspace,
    pub plane: &'a mut RoutingPlane,
    pub netlist: &'a Netlist,
    pub failed: &'a mut Vec<NetId>,
    pub run_budget: &'a RunBudget,
    pub rec: &'a mut dyn Recorder,
}

/// The routing schedule as a resumable state machine: repeated
/// [`ScheduleMachine::step`] calls run the canonical schedule — the same
/// commit order, events and counters for every thread count — and hand
/// control back to the caller between canonical commits. The session's
/// step function ([`crate::session`]) is its only driver.
///
/// The schedule is a band phase, possibly empty, then a serial tail. The
/// band phase has one `BandFold` step per band with nets to route; its
/// parallelism happens *within* a step, never across steps: the first
/// fold runs every band worker (and the serial panic recovery, which
/// must see the pre-merge plane) before folding. Each tail net is one
/// `Net` step. Pausing between steps therefore cannot reorder or
/// interleave any part of the canonical commit sequence, and a run
/// resumed from a snapshot walks exactly the remaining steps: a band the
/// snapshot already folded has no nets left and gets no step.
///
/// Fault tolerance: band workers run under `catch_unwind`. A band whose
/// worker panics is discarded wholesale and re-run serially *before* any
/// fold, by the identical worker closure with fault injection disabled —
/// so the recovered band's outcome is bit-for-bit the one a clean worker
/// would have produced, and the merged result stays byte-identical for
/// every thread count. A panic that survives the clean retry is a
/// deterministic bug that would abort the serial run too; it propagates.
pub(crate) struct ScheduleMachine {
    /// The band-local nets of every band that has any, tagged with the
    /// band index, in ascending band order. Empty on a single-band plane.
    bands: Vec<(usize, Vec<NetId>)>,
    /// Outcomes of the parallel band phase, one per entry of `bands`,
    /// tagged with their recovery flag. Produced lazily by the first
    /// `BandFold` step, consumed front to back by the folds.
    outcomes: Option<VecDeque<(bool, BandOutcome)>>,
    /// Next entry of `bands` to fold.
    next_band: usize,
    /// The nets routed one at a time after the band phase: every net on
    /// a single-band plane, the band-straddling boundary nets otherwise.
    tail: Vec<NetId>,
    /// Next net of `tail`.
    next: usize,
}

impl ScheduleMachine {
    /// Plans the schedule for `order` on the plane. Band classification
    /// is fixed here, before any routing: it depends only on the plane
    /// geometry, the config and the netlist, never on routed state or the
    /// worker count.
    pub(crate) fn new(
        config: &RouterConfig,
        plane: &RoutingPlane,
        netlist: &Netlist,
        order: Vec<NetId>,
    ) -> ScheduleMachine {
        let halo = sadp_scenario::interaction_radius_tracks(plane.rules());
        let plan = BandPlan::for_plane(plane.width(), halo);
        let mut machine = ScheduleMachine::finished();
        if plan.len() <= 1 {
            machine.tail = order;
            return machine;
        }
        // Classify: a net is band-local when its influence region, grown
        // by the scenario halo, fits one band's columns — then its
        // searches, scans and commits provably cannot interact with any
        // other band.
        let mut band_nets: Vec<Vec<NetId>> = vec![Vec::new(); plan.len()];
        for id in order {
            let fp = net_footprint(netlist.net(id), config, 0, plane);
            match plan.band_of_span(fp.x0, fp.x1) {
                Some(j) => band_nets[j].push(id),
                None => machine.tail.push(id),
            }
        }
        machine.bands = band_nets
            .into_iter()
            .enumerate()
            .filter(|(_, nets)| !nets.is_empty())
            .collect();
        machine
    }

    /// A schedule with nothing left to do: the first step completes it.
    /// A run resumed from a finished snapshot starts here.
    pub(crate) fn finished() -> ScheduleMachine {
        ScheduleMachine {
            bands: Vec::new(),
            outcomes: None,
            next_band: 0,
            tail: Vec::new(),
            next: 0,
        }
    }

    /// Steps completed so far (band folds + tail nets).
    pub(crate) fn steps_done(&self) -> u64 {
        (self.next_band + self.next) as u64
    }

    /// Total steps the schedule will take.
    pub(crate) fn steps_total(&self) -> u64 {
        (self.bands.len() + self.tail.len()) as u64
    }

    /// Executes the next increment of the schedule against `a`.
    pub(crate) fn step(&mut self, a: &mut StepArgs<'_>) -> StepEvent {
        // Band phase: the whole parallel run (workers + serial panic
        // recovery) happens with the first fold — recovery must see the
        // pre-merge plane. Each later step folds one band.
        if let Some(&(j, _)) = self.bands.get(self.next_band) {
            let bands = &self.bands;
            let (recovered, outcome) = self
                .outcomes
                .get_or_insert_with(|| {
                    run_bands(
                        a.config,
                        a.plane,
                        &a.ws.guards,
                        a.netlist,
                        bands,
                        a.run_budget,
                        a.rec.enabled(),
                        a.rec.timing(),
                    )
                })
                .pop_front()
                .expect("one outcome per band");
            self.next_band += 1;
            fold_band(a, j, recovered, outcome);
            return StepEvent::BandFold;
        }
        // The tail: one net at its canonical turn, against the merged
        // state.
        let Some(&id) = self.tail.get(self.next) else {
            return StepEvent::Complete;
        };
        self.next += 1;
        let mut ctx = RouteCtx::new(a.config, a.ledger, a.ws, a.run_budget, &mut *a.rec);
        if !route_net(&mut ctx, a.plane, a.netlist.net(id), &[], true) {
            a.failed.push(id);
        }
        StepEvent::Net
    }
}

/// Folds one band's outcome into the global state (one `BandFold` step).
fn fold_band(a: &mut StepArgs<'_>, j: usize, recovered: bool, outcome: BandOutcome) {
    let nets = outcome.ledger.routed().len() as u64;
    let clock = SpanClock::start(&*a.rec);
    a.ledger
        .merge_band(outcome.ledger, a.plane, &mut a.ws.dir_map, a.netlist);
    clock.stop(&mut *a.rec, Stage::Merge);
    // Replay the band's buffered stream, then mark the merge: the trace
    // reads as "band j's routing, then band j folded in", in ascending
    // band order for every worker count.
    outcome.rec.replay_into(&mut *a.rec);
    if recovered {
        a.ledger.counters.bands_recovered += 1;
        if a.rec.enabled() {
            a.rec.event(RouterEvent::BandRecovered {
                band: j as u32,
                nets,
            });
        }
    } else if a.rec.enabled() {
        a.rec.event(RouterEvent::BandMerged {
            band: j as u32,
            nets,
        });
    }
    a.failed.extend(outcome.failed);
}

/// The parallel band phase: routes every band's nets on fully private
/// state across `config.threads` workers, re-runs panicked bands serially
/// (fault injection off) against the identical pre-merge state, and
/// returns the outcomes in the order of `bands` tagged with their
/// recovery flag. The ledger tile size uses the global net count so the
/// fragment index behaves exactly like the serial one.
#[allow(clippy::too_many_arguments)]
fn run_bands(
    config: &RouterConfig,
    plane: &RoutingPlane,
    guards: &GuardGrid,
    netlist: &Netlist,
    bands: &[(usize, Vec<NetId>)],
    run_budget: &RunBudget,
    trace: bool,
    timing: bool,
) -> VecDeque<(bool, BandOutcome)> {
    let expected = netlist.len();
    // `inject` arms the fault plan's band panics; the recovery retry runs
    // the same closure with it off. (The scratch allocation can only
    // panic on an oversized plane, which `prepare_run` already rejected.)
    let run_band = move |k: usize, inject: bool| -> BandOutcome {
        let (j, ref nets) = bands[k];
        let panic_at = if inject {
            config.faults.and_then(|f| f.band_panic(j, nets.len()))
        } else {
            None
        };
        let mut band_plane = plane.clone();
        let mut band_ledger = CommitLedger::new(plane, expected);
        let mut dir_map = DirGrid::new(plane, None);
        let mut penalties = PenaltyGrid::new(plane, 0);
        let mut scratch = SearchScratch::new(plane);
        let mut band_failed = Vec::new();
        let mut band_rec = BufferRecorder::with_flags(trace, timing);
        for (i, &id) in nets.iter().enumerate() {
            if panic_at == Some(i) {
                panic!("injected fault: band {j} worker dies before net {i}");
            }
            let mut ctx = RouteCtx {
                config,
                ledger: &mut band_ledger,
                dir_map: &mut dir_map,
                guards,
                penalties: &mut penalties,
                scratch: &mut scratch,
                run_budget,
                rec: &mut band_rec,
            };
            if !route_net(&mut ctx, &mut band_plane, netlist.net(id), &[], true) {
                band_failed.push(id);
            }
        }
        BandOutcome {
            ledger: band_ledger,
            failed: band_failed,
            rec: band_rec,
        }
    };
    // The isolation boundary: a worker panic poisons only its own band's
    // private state, which is discarded. Applied on the sequential path
    // too, so behavior is thread-count-invariant.
    let guarded = |k: usize| -> Option<BandOutcome> {
        catch_unwind(AssertUnwindSafe(|| run_band(k, true))).ok()
    };

    let results = parallel_map(bands.len(), config.threads, guarded);
    // Recovery pass, before any merge mutates the plane: each poisoned
    // band re-runs serially through the identical closure (injection
    // off), so the retried outcome is the one a clean worker produces.
    results
        .into_iter()
        .enumerate()
        .map(|(k, out)| match out {
            Some(out) => (false, out),
            None => (true, run_band(k, false)),
        })
        .collect()
}

/// The worker pool of the band phase: maps `f` over `0..n` on up to
/// `workers` scoped threads and returns the results in index order,
/// whichever worker ran which index. With one worker (or one item)
/// everything runs inline on the caller's thread.
fn parallel_map<R: Send>(n: usize, workers: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let workers = workers.min(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        if k >= n {
                            break;
                        }
                        out.push((k, f(k)));
                    }
                    out
                })
            })
            .collect();
        for h in handles {
            let batch = h
                .join()
                .expect("worker panicked outside the isolation boundary");
            for (k, r) in batch {
                slots[k] = Some(r);
            }
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("every index is mapped exactly once"))
        .collect()
}

/// Detects unavoidable type-B cut conflicts in the tentative route's
/// scenarios: two cut-defined boundary sections of the same fragment
/// within `d_cut` of each other. Returns the offending fragments.
fn type_b_conflict(
    found: &[FoundScenario],
    rules: &sadp_geom::DesignRules,
) -> Option<Vec<(Layer, TrackRect)>> {
    // Tips of routed nets pointing at a side of one of our fragments, from
    // which direction, and at which axial position.
    struct TipHit {
        layer: Layer,
        our: TrackRect,
        pos: i32,
        positive_side: bool,
    }
    let mut hits: Vec<TipHit> = Vec::new();
    for f in found {
        match f.scenario.kind {
            ScenarioKind::TwoB if f.scenario.swapped => {
                // Canonical A (the tip) is the other net; we are the side.
                let (pos, positive_side) = match f.our_rect.orientation() {
                    Orientation::Horizontal | Orientation::Point => {
                        (f.other_rect.x0, f.other_rect.y0 > f.our_rect.y1)
                    }
                    Orientation::Vertical => (f.other_rect.y0, f.other_rect.x0 > f.our_rect.x1),
                };
                hits.push(TipHit {
                    layer: f.layer,
                    our: f.our_rect,
                    pos,
                    positive_side,
                });
            }
            // A one-cell fragment tip-to-tip with routed nets on both ends:
            // the two separating cuts are only w_line apart (< d_cut).
            ScenarioKind::OneB if f.our_rect.len_cells() == 1 => {
                let twin = found.iter().any(|g| {
                    g.scenario.kind == ScenarioKind::OneB
                        && g.layer == f.layer
                        && g.our_rect == f.our_rect
                        && g.other_rect != f.other_rect
                        && opposite_ends(&f.our_rect, &f.other_rect, &g.other_rect)
                });
                if twin {
                    return Some(vec![(f.layer, f.our_rect)]);
                }
            }
            _ => {}
        }
    }
    // Two tips on opposite sides of the same fragment within d_cut.
    let d_tracks = (rules.d_cut().0 / rules.pitch().0 + 1) as i32;
    for (i, a) in hits.iter().enumerate() {
        for b in hits.iter().skip(i + 1) {
            if a.layer == b.layer
                && a.our == b.our
                && a.positive_side != b.positive_side
                && (a.pos - b.pos).abs() < d_tracks
            {
                return Some(vec![(a.layer, a.our)]);
            }
        }
    }
    None
}

fn opposite_ends(ours: &TrackRect, a: &TrackRect, b: &TrackRect) -> bool {
    // For a single-cell fragment, tips approach along one axis from both
    // directions.
    let (ax, ay) = (a.x0.max(a.x1.min(ours.x0)), a.y0.max(a.y1.min(ours.y0)));
    let (bx, by) = (b.x0.max(b.x1.min(ours.x0)), b.y0.max(b.y1.min(ours.y0)));
    let da = ((ax - ours.x0).signum(), (ay - ours.y0).signum());
    let db = ((bx - ours.x0).signum(), (by - ours.y0).signum());
    da.0 == -db.0 && da.1 == -db.1 && (da != (0, 0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sadp_geom::DesignRules;

    fn plane(width: i32, height: i32) -> RoutingPlane {
        RoutingPlane::new(3, width, height, DesignRules::node_10nm()).unwrap()
    }

    fn two_pin(nl: &mut Netlist, x0: i32, x1: i32, y: i32) -> NetId {
        let p = |x| GridPoint::new(Layer(0), x, y);
        nl.add_two_pin(format!("n{x0}-{x1}-{y}"), p(x0), p(x1))
    }

    #[test]
    fn footprint_covers_pins_and_clips_to_plane() {
        let pl = plane(100, 50);
        let mut nl = Netlist::new();
        let id = two_pin(&mut nl, 2, 90, 5);
        let config = RouterConfig::paper_defaults();
        let fp = net_footprint(nl.net(id), &config, 2, &pl);
        assert!(fp.contains_cell(2, 5) && fp.contains_cell(90, 5));
        assert!(fp.x0 >= 0 && fp.y0 >= 0);
        assert!(fp.x1 < pl.width() && fp.y1 < pl.height());
    }

    #[test]
    fn only_bands_with_nets_get_a_fold_step() {
        // Two bands on a 400-track plane: one net deep inside band 0,
        // one straddling the edge, none in band 1.
        let pl = plane(400, 64);
        let halo = sadp_scenario::interaction_radius_tracks(pl.rules());
        assert_eq!(BandPlan::for_plane(400, halo).len(), 2);
        let mut nl = Netlist::new();
        let inner = two_pin(&mut nl, 40, 60, 10);
        let straddler = two_pin(&mut nl, 150, 250, 20);
        let config = RouterConfig::paper_defaults();
        let machine = ScheduleMachine::new(&config, &pl, &nl, vec![inner, straddler]);
        assert_eq!(machine.bands, vec![(0, vec![inner])]);
        assert_eq!(machine.tail, vec![straddler]);
        assert_eq!(machine.steps_total(), 2);
    }
}
