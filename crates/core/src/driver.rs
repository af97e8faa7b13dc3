//! The staged routing driver (Fig. 18 / Fig. 19 as a pipeline).
//!
//! Per net, [`Router::route_net`] runs the stages in order: pure
//! **search** ([`SearchStage`](crate::search::SearchStage)), scenario
//! **scan** ([`scan_fragments`]), the type-B cut-conflict check, then the
//! **propose → trial-color → commit/abort** protocol of the
//! [`CommitLedger`](crate::ledger::CommitLedger), all against the
//! router's own ledger and workspace grids.
//!
//! [`Router::advance`] drives the whole netlist one net at a time, in
//! the canonical order, as the paper's flow routes: each commit feeds the
//! constraint graph that the next net's trial coloring reads.

use crate::budget::Budget;
use crate::config::RouterConfig;
use crate::grids::{GuardGrid, PenaltyGrid};
use crate::report::RoutingReport;
use crate::router::Router;
use crate::scan::{scan_fragments, FoundScenario};
use crate::search::SearchStage;
use sadp_geom::{GridPoint, Layer, Orientation, TrackRect};
use sadp_grid::{Net, NetId, Netlist, RoutingPlane};
use sadp_obs::{FailReason, Recorder, RipReason, RouterEvent, SpanClock, Stage};
use sadp_scenario::ScenarioKind;
use std::collections::BTreeMap;
use std::time::Instant;

/// The `expect` message of every workspace access: routing runs only
/// after a run (or a restore) sized the router for its plane.
const SIZED: &str = "a run sized the router";

/// Why [`Router::commit_candidate`] rejected a tentative route. Each variant
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

impl Router {
    /// Routes up to `steps` (at least one) nets of the schedule, each at
    /// its canonical turn. Once the schedule runs dry it runs finalize
    /// (flipping, cleanup, cut repair; skipped when the state was already
    /// finalized) and returns the report, whose `cpu` is measured from
    /// `started` and whose profile is `rec`'s. `None` means nets are
    /// still scheduled. Every step ends *between* canonical commits, so
    /// pausing after any of them leaves a state
    /// [`crate::checkpoint::serialize`] can capture and a resumed run
    /// reproduces byte-identically.
    /// [`RoutingSession::advance`](crate::session::RoutingSession::advance)
    /// runs it in slices, [`Router::route_all_with`] in one unbounded call.
    pub(crate) fn advance(
        &mut self,
        plane: &mut RoutingPlane,
        netlist: &Netlist,
        rec: &mut dyn Recorder,
        steps: u64,
        started: Instant,
    ) -> Option<RoutingReport> {
        for _ in 0..steps.max(1) {
            let Some(&id) = self.schedule.get(self.next) else {
                if !self.finalized {
                    self.finalize(plane, netlist, rec);
                }
                let mut report = self.report(netlist, started);
                if let Some(profile) = rec.profile() {
                    report.profile = profile;
                }
                return Some(report);
            };
            self.next += 1;
            if !self.route_net(plane, netlist.net(id), &[], true, rec) {
                self.failed.push(id);
            }
        }
        None
    }

    /// `(done, total)` nets of the schedule: routed or failed so far, and
    /// all the run routes (a resumed run schedules only the nets its
    /// snapshot had not reached).
    pub(crate) fn progress(&self) -> (u64, u64) {
        (self.next as u64, self.schedule.len() as u64)
    }

    /// Records one failed net: bumps the ledger counter of `reason` and
    /// emits the `net_failed` event. Every failure the router records
    /// goes through here, so the per-reason counters and the trace always
    /// agree.
    pub(crate) fn net_failed(&mut self, net: NetId, reason: FailReason, rec: &mut dyn Recorder) {
        let c = &mut self.ledger.counters;
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

    /// Occupies every pin candidate cell of `net` so earlier nets cannot
    /// route over the pins of later ones (the owner may still enter its
    /// own reserved cells), and claims the soft guard halo around each
    /// candidate (first reserver wins).
    pub(crate) fn reserve_pins(&mut self, plane: &mut RoutingPlane, net: &Net) {
        for pin in net.pins() {
            for &c in pin.candidates() {
                let _ = plane.occupy(c, net.id);
            }
        }
        let ws = self.workspace.as_mut().expect(SIZED);
        claim_pin_guards(&self.config, &mut ws.guards, net);
    }

    /// Undoes [`Router::reserve_pins`] for one net: frees every pin
    /// candidate cell still owned by `net` and returns its guard-halo
    /// claims. Called on the ECO re-route's failure path
    /// (and when the ECO engine removes a net) so an unroutable net does
    /// not pin its candidate cells forever.
    pub(crate) fn release_pins(&mut self, plane: &mut RoutingPlane, net: &Net) {
        for pin in net.pins() {
            for &c in pin.candidates() {
                if plane.occupant(c) == Some(net.id) {
                    plane.clear_path(&[c], net.id);
                }
            }
        }
        let guards = &mut self.workspace.as_mut().expect(SIZED).guards;
        for g in guard_halo(&self.config, net) {
            if guards.contains(g) && guards.get(g) == Some(net.id) {
                guards.set(g, None);
            }
        }
    }

    /// Rips the routed net `id` up: its cells (the pin cells its route
    /// used included), direction hints, fragments and constraint-graph
    /// vertices go; its guard halo stays claimed. Returns whether it was
    /// routed.
    pub(crate) fn unroute(&mut self, plane: &mut RoutingPlane, id: NetId) -> bool {
        let ws = self.workspace.as_mut().expect(SIZED);
        self.ledger.unroute(plane, &mut ws.dir_map, id)
    }

    /// Records one rip-up: penalises the offending cells (timed as the
    /// `ripup` stage), bumps the aggregate and per-reason counters and
    /// emits the `net_ripped` event.
    fn rip_up(
        &mut self,
        net: u32,
        attempt: u32,
        reason: RipReason,
        cells: &[(Layer, TrackRect)],
        rec: &mut dyn Recorder,
    ) {
        let clock = SpanClock::start(&*rec);
        let ws = self.workspace.as_mut().expect(SIZED);
        penalize(&self.config, &mut ws.penalties, cells);
        self.ledger.counters.ripups += 1;
        match reason {
            RipReason::TypeB => self.ledger.counters.ripups_type_b += 1,
            RipReason::Graph => self.ledger.counters.ripups_graph += 1,
            RipReason::Risk => self.ledger.counters.ripups_risk += 1,
        }
        clock.stop(rec, Stage::Ripup);
        if rec.enabled() {
            rec.event(RouterEvent::NetRipped {
                net,
                attempt,
                reason,
            });
        }
    }

    /// Routes one net through the full stage pipeline with up to
    /// `max_ripup` rip-up-and-re-route iterations; returns whether the
    /// net was committed. `seed_penalties` pre-loads the penalty grid
    /// (used by the finalize re-route to steer the net away from its old
    /// corridor). `count_failures` is false for finalize re-routes: their
    /// casualties are recorded once as `failed_cleanup` by the caller,
    /// not a second time as initial-routing failures.
    pub(crate) fn route_net(
        &mut self,
        plane: &mut RoutingPlane,
        net: &Net,
        seed_penalties: &[(GridPoint, u64)],
        count_failures: bool,
        rec: &mut dyn Recorder,
    ) -> bool {
        match self.try_route(plane, net, seed_penalties, rec) {
            Ok(()) => true,
            Err(reason) => {
                if count_failures {
                    self.net_failed(net.id, reason, rec);
                }
                false
            }
        }
    }

    /// The body of [`Router::route_net`]: commits the net or says why it
    /// failed.
    fn try_route(
        &mut self,
        plane: &mut RoutingPlane,
        net: &Net,
        seed_penalties: &[(GridPoint, u64)],
        rec: &mut dyn Recorder,
    ) -> Result<(), FailReason> {
        let key = net.id.0;
        let penalties = &mut self.workspace.as_mut().expect(SIZED).penalties;
        penalties.clear();
        for &(p, v) in seed_penalties {
            if penalties.contains(p) {
                penalties.update(p, |old| old + v);
            }
        }

        // Graceful degradation: once the run is over its global budget,
        // remaining nets fail fast instead of searching, and the run
        // finalizes whatever is already committed.
        if self.run_budget.tripped(self.ledger.counters.nodes_expanded) {
            return Err(FailReason::BudgetExceeded);
        }

        // One per-net budget spans every rip-up attempt and branch search.
        let mut budget = Budget::for_net(&self.config);

        for attempt in 0..=self.config.max_ripup {
            // Stage 1: pure search over read-only views.
            let ws = self.workspace.as_mut().expect(SIZED);
            let stage = SearchStage {
                plane: &*plane,
                dir_map: &ws.dir_map,
                guards: &ws.guards,
                config: &self.config,
            };
            let outcome = stage.search_net(net, &ws.penalties, &mut ws.scratch, &mut budget, rec);
            self.ledger.counters.nodes_expanded += outcome.expanded;
            if outcome.budget_exceeded {
                self.ledger.forget(net.id);
                return Err(FailReason::BudgetExceeded);
            }
            let Some(candidate) = outcome.candidate else {
                return Err(FailReason::NoPath);
            };

            // Stages 2-5: scenario scan, type-B check, propose,
            // trial-color, commit.
            match self.commit_candidate(plane, net, candidate, rec) {
                Ok(flipped) => {
                    if rec.enabled() {
                        rec.event(RouterEvent::NetRouted {
                            net: key,
                            attempts: attempt + 1,
                            flipped,
                        });
                    }
                    return Ok(());
                }
                Err(StageReject::Merge(cells)) => {
                    self.rip_up(key, attempt, RipReason::Graph, &cells, rec);
                }
                Err(StageReject::TypeB(cells)) => {
                    self.rip_up(key, attempt, RipReason::TypeB, &cells, rec);
                }
                Err(StageReject::Graph {
                    layer,
                    other,
                    cells,
                }) => {
                    if rec.enabled() {
                        rec.event(RouterEvent::OddCycleDecomposed {
                            net: key,
                            layer: layer.index() as u8,
                            other,
                        });
                    }
                    self.rip_up(key, attempt, RipReason::Graph, &cells, rec);
                }
                Err(StageReject::Risk(cells)) => {
                    self.rip_up(key, attempt, RipReason::Risk, &cells, rec);
                }
            }
        }
        // Attempts exhausted; leave the graphs clean.
        self.ledger.forget(net.id);
        Err(FailReason::Exhausted)
    }

    /// Stages 2-5 of the pipeline for one attempt's candidate: scenario
    /// scan, type-B cut-conflict check, propose, trial coloring, commit.
    /// Returns whether the committed net's component was flipped, or the
    /// rejection (with the proposal aborted and the graphs rolled back).
    fn commit_candidate(
        &mut self,
        plane: &mut RoutingPlane,
        net: &Net,
        candidate: crate::search::RouteCandidate,
        rec: &mut dyn Recorder,
    ) -> Result<bool, StageReject> {
        let key = net.id.0;

        // Stage 2: classify the tentative route against the routed layout
        // (BTreeMap: layer order must be deterministic).
        let clock = SpanClock::start(&*rec);
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
                self.ledger.frag_index(*layer),
                plane.rules(),
            ));
        }
        clock.stop(rec, Stage::Commit);

        // Ablation: without the merge technique every tip-to-tip pair is
        // undecomposable (the \[16\] behaviour) and must be routed away
        // from.
        if !self.config.allow_merge {
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
        let clock = SpanClock::start(&*rec);
        let proposal = self.ledger.propose(net.id);
        let mut offender: Option<(Layer, u32)> = None;
        for f in &found {
            if !f.scenario.is_constraining() {
                continue;
            }
            if self
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
        clock.stop(rec, Stage::Commit);
        if let Some((layer, bad_net)) = offender {
            self.ledger.abort(proposal);
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
        let clock = SpanClock::start(&*rec);
        let layers: Vec<Layer> = per_layer.keys().copied().collect();
        let (overlay, needs_flip) = self.ledger.trial_color(&proposal, &layers);
        let mut flipped = false;
        if needs_flip || overlay > self.config.flip_threshold {
            self.ledger.flip_trial(&proposal, &layers);
            flipped = true;
        }
        let risky_layers = self.ledger.risky_layers(&proposal, &layers);
        clock.stop(rec, Stage::Recolor);
        if !risky_layers.is_empty() {
            let cells: Vec<(Layer, TrackRect)> = found
                .iter()
                .filter(|f| risky_layers.contains(&f.layer))
                .map(|f| (f.layer, f.our_rect))
                .collect();
            self.ledger.abort(proposal);
            return Err(StageReject::Risk(cells));
        }
        if flipped {
            self.ledger.counters.flips += 1;
        }

        // Stage 5: commit.
        let clock = SpanClock::start(&*rec);
        let ws = self.workspace.as_mut().expect(SIZED);
        self.ledger
            .commit(proposal, plane, &mut ws.dir_map, net, candidate);
        clock.stop(rec, Stage::Commit);
        Ok(flipped)
    }
}

/// The guard-halo half of [`Router::reserve_pins`]: claims the soft 3×3 keep-out
/// around every pin candidate of `net` (first reserver wins) without
/// touching plane occupancy. The checkpoint loader uses this alone to
/// rebuild the reservation pre-pass's guards, where occupancy comes from
/// the snapshot instead.
pub(crate) fn claim_pin_guards(config: &RouterConfig, guards: &mut GuardGrid, net: &Net) {
    for g in guard_halo(config, net) {
        // First reserver wins, as with the map's entry().or_insert this
        // replaced.
        if guards.contains(g) && guards.get(g).is_none() {
            guards.set(g, Some(net.id));
        }
    }
}

/// The cells [`claim_pin_guards`] tries to claim for `net`, in claim
/// order, and [`Router::release_pins`] returns: the 3×3 block around
/// every pin candidate, unclipped. Empty when the config turns pin
/// guards off.
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
/// clipped to the plane. The ECO engine invalidates by it.
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
}
