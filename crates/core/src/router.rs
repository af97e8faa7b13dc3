//! The routing façade over the staged pipeline (Fig. 18 / Fig. 19).
//!
//! [`Router`] owns the [`CommitLedger`] (all shared routing state) and a
//! `Workspace` (plane-sized dense working grids) and orchestrates the
//! stages of the internal driver module: pin reservation, the
//! one-net-at-a-time routing schedule (each net's [`crate::astar`]
//! searches, commit or rip-up), the final flipping passes and the repair
//! loop. See DESIGN.md, "Pipeline
//! architecture".

use crate::budget::RunBudget;
use crate::checkpoint::{self, Snapshot, SnapshotError};
use crate::config::RouterConfig;
use crate::grids::{DirGrid, GuardGrid, PenaltyGrid};
use crate::ledger::{CommitLedger, FLIP_NEIGHBORHOOD};
use crate::report::RoutingReport;
use sadp_decomp::{ColoredPattern, CutSimulator};
use sadp_geom::{GridPoint, Layer, TrackRect};
use sadp_graph::{flip, OverlayGraph};
use sadp_grid::{Net, NetId, Netlist, RoutingPlane};
use sadp_obs::{FailReason, NoopRecorder, Recorder, RouterEvent, SpanClock, Stage};
use sadp_scenario::Color;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::time::Instant;

pub use crate::ledger::RoutedNet;

use crate::astar::SearchScratch;

/// Errors of sizing the router for a plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouterError {
    /// The plane has too many cells for the packed 32-bit search indices
    /// (`layers * width * height >= u32::MAX`). Returned (inside
    /// [`SnapshotError::Router`]) by
    /// [`RoutingSession::create`](crate::session::RoutingSession::create);
    /// [`Router::route_all`] panics with the same message.
    PlaneTooLarge {
        /// The offending cell count (`u128`: the product can exceed
        /// `usize` arithmetic on the way in).
        cells: u128,
    },
}

impl fmt::Display for RouterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouterError::PlaneTooLarge { cells } => {
                write!(
                    f,
                    "plane has {cells} cells but the packed search indices \
                     hold at most {} (32-bit cell ids); shrink the plane or \
                     split the layout into separate runs",
                    u32::MAX - 1
                )
            }
        }
    }
}

impl Error for RouterError {}

/// Plane-sized dense working state, allocated when a run first sizes the
/// router for a plane and reused for every net. The direction map and
/// the pin guards hold run-long state and are refilled when a run starts
/// on a reused workspace; the penalty grid and the search scratch are
/// reset before every net, in `O(1)` through generation stamps.
///
/// Two workspaces compare equal when their direction maps and pin
/// guards read the same at every cell; the penalty grid and the search
/// scratch are reset before every net and carry no state between nets.
#[derive(Debug)]
pub(crate) struct Workspace {
    /// Per-cell wire direction of committed nets (the `T2b` hint map).
    pub(crate) dir_map: DirGrid,
    /// Soft pin keep-out halos: the owning net per cell.
    pub(crate) guards: GuardGrid,
    /// Rip-up penalties for the net currently being routed.
    pub(crate) penalties: PenaltyGrid,
    /// A\*-search state (g-costs, came-from, open list).
    pub(crate) scratch: SearchScratch,
}

impl Workspace {
    fn try_new(plane: &RoutingPlane) -> Result<Workspace, RouterError> {
        // Check the size before touching the other grids so an oversized
        // plane allocates nothing at all.
        let scratch = SearchScratch::try_new(plane)?;
        Ok(Workspace {
            dir_map: DirGrid::new(plane),
            guards: GuardGrid::new(plane),
            penalties: PenaltyGrid::new(plane, 0),
            scratch,
        })
    }

    fn fits(&self, plane: &RoutingPlane) -> bool {
        self.scratch.fits(plane)
    }

    fn clear(&mut self) {
        self.dir_map.clear();
        self.guards.clear();
        self.penalties.clear();
    }
}

impl PartialEq for Workspace {
    fn eq(&self, other: &Workspace) -> bool {
        self.dir_map == other.dir_map && self.guards == other.guards
    }
}

/// The overlay-aware detailed router.
///
/// One instance routes one netlist; the per-layer overlay constraint
/// graphs, the fragment spatial index and the routed-net store live in
/// its [`CommitLedger`] and can be inspected after routing (e.g. to feed
/// the decomposition simulator).
///
/// Two routers compare equal when their routing state does: config,
/// ledger, direction map and pin guards, failed list and `finalized`
/// flag. A router restored from a snapshot equals the one that wrote it.
#[derive(Debug)]
pub struct Router {
    pub(crate) config: RouterConfig,
    pub(crate) ledger: CommitLedger,
    pub(crate) workspace: Option<Workspace>,
    pub(crate) failed: Vec<NetId>,
    /// Whether finalize ran on the current state (a resumed finished run
    /// must not run it again).
    pub(crate) finalized: bool,
    /// The whole-run budget, re-armed from the config at the start of
    /// every run (unlimited before the first).
    pub(crate) run_budget: RunBudget,
    /// The run's nets to route, in canonical order (`Router::advance`).
    pub(crate) schedule: Vec<NetId>,
    /// Next net of `schedule`.
    pub(crate) next: usize,
}

impl PartialEq for Router {
    fn eq(&self, other: &Router) -> bool {
        self.config == other.config
            && self.ledger == other.ledger
            && self.workspace == other.workspace
            && self.failed == other.failed
            && self.finalized == other.finalized
    }
}

impl Router {
    /// Creates a router with the given configuration.
    #[must_use]
    pub fn new(config: RouterConfig) -> Router {
        Router {
            config,
            ledger: CommitLedger::empty(),
            workspace: None,
            failed: Vec::new(),
            finalized: false,
            run_budget: RunBudget::unlimited(),
            schedule: Vec::new(),
            next: 0,
        }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &RouterConfig {
        &self.config
    }

    /// The commit ledger: all shared routing state, including the commit
    /// journal (valid after [`Router::route_all`]).
    #[must_use]
    pub fn ledger(&self) -> &CommitLedger {
        &self.ledger
    }

    /// The per-layer overlay constraint graphs (valid after
    /// [`Router::route_all`]).
    #[must_use]
    pub fn graphs(&self) -> &[OverlayGraph] {
        self.ledger.graphs()
    }

    /// The routed nets, ordered by [`NetId`].
    #[must_use]
    pub fn routed(&self) -> &BTreeMap<NetId, RoutedNet> {
        self.ledger.routed()
    }

    /// The committed wire-direction hints (the `T2b` map the search
    /// reads), once a run has sized the router for a plane.
    #[must_use]
    pub fn dir_map(&self) -> Option<&DirGrid> {
        self.workspace.as_ref().map(|ws| &ws.dir_map)
    }

    /// Nets that could not be routed without violations.
    #[must_use]
    pub fn failed(&self) -> &[NetId] {
        &self.failed
    }

    /// The mask color assigned to `net` on `layer`, if it is routed there.
    #[must_use]
    pub fn color_of(&self, net: NetId, layer: Layer) -> Option<Color> {
        let g = self.ledger.graphs().get(layer.index())?;
        g.contains(net.0).then(|| g.color(net.0))
    }

    /// The colored patterns of one layer, as
    /// `(net, color, fragment rects)` triples — the input format of the
    /// decomposition simulator.
    ///
    /// A routed net missing from the layer's constraint graph is reported
    /// with [`Color::Core`]; that should never happen for a consistent
    /// router state, so it asserts in dev builds, and [`Router::report`]
    /// counts such pairs as [`RoutingReport::color_fallbacks`].
    #[must_use]
    pub fn patterns_on_layer(&self, layer: Layer) -> Vec<(u32, Color, Vec<TrackRect>)> {
        let mut layers = Vec::new();
        self.colored_patterns_into(|l| l == layer, &mut layers);
        layers
            .into_iter()
            .nth(layer.index())
            .unwrap_or_default()
            .into_iter()
            .map(|p| (p.net, p.color, p.rects))
            .collect()
    }

    /// [`Router::patterns_on_layer`] as simulator input for every layer
    /// `wanted` accepts (the others stay empty), into `out` indexed by
    /// layer, in one walk of the routed store. The patterns already in
    /// `out` are overwritten in place, so their rect vectors are reused
    /// rather than allocated again.
    fn colored_patterns_into(
        &self,
        wanted: impl Fn(Layer) -> bool,
        out: &mut Vec<Vec<ColoredPattern>>,
    ) {
        out.resize_with(self.ledger.layer_count(), Vec::new);
        let mut filled = vec![0; out.len()];
        // The ledger store is a BTreeMap: iteration is NetId-ordered, and
        // a net's fragments on a layer join the pattern it last filled.
        for r in self.ledger.routed().values() {
            for &(layer, rect) in r.fragments.iter().filter(|(l, _)| wanted(*l)) {
                let (Some(pats), Some(n)) =
                    (out.get_mut(layer.index()), filled.get_mut(layer.index()))
                else {
                    continue;
                };
                if *n > 0 && pats[*n - 1].net == r.id.0 {
                    pats[*n - 1].rects.push(rect);
                    continue;
                }
                let color = self.color_of(r.id, layer).unwrap_or_else(|| {
                    debug_assert!(
                        false,
                        "{} has fragments on {layer} but no color there; defaulting to Core",
                        r.id
                    );
                    Color::Core
                });
                match pats.get_mut(*n) {
                    Some(p) => {
                        (p.net, p.color) = (r.id.0, color);
                        p.rects.clear();
                        p.rects.push(rect);
                    }
                    None => pats.push(ColoredPattern::new(r.id.0, color, vec![rect])),
                }
                *n += 1;
            }
        }
        for (pats, n) in out.iter_mut().zip(filled) {
            pats.truncate(n);
        }
    }

    /// Routes every net of the netlist (shortest first) on the plane,
    /// one at a time, running the full flow of Fig. 19, and returns the
    /// aggregate report.
    pub fn route_all(&mut self, plane: &mut RoutingPlane, netlist: &Netlist) -> RoutingReport {
        self.route_all_with(plane, netlist, &mut NoopRecorder)
    }

    /// [`Router::route_all`] with an observability [`Recorder`]: timing
    /// spans and counters land in [`RoutingReport::profile`], structured
    /// [`RouterEvent`] records in the recorder's sink.
    ///
    /// It runs the schedule of
    /// [`RoutingSession`](crate::session::RoutingSession) in one unbounded
    /// call, on a borrowed plane and netlist.
    pub fn route_all_with(
        &mut self,
        plane: &mut RoutingPlane,
        netlist: &Netlist,
        rec: &mut dyn Recorder,
    ) -> RoutingReport {
        let started = Instant::now();
        self.prepare_run(plane, netlist, None, false)
            .unwrap_or_else(|e| panic!("{e}"));
        self.advance(plane, netlist, rec, u64::MAX, started)
            .expect("an unbounded run finishes the schedule")
    }

    /// The shared run preamble of [`Router::route_all_with`] and
    /// [`crate::session::RoutingSession`]: sizes the router for the
    /// plane, arms the run budget, verifies the resume fingerprint,
    /// then either reserves every pin (a fresh run) or restores the
    /// snapshot (`Router::restore`), and schedules the canonical net
    /// order minus the nets the snapshot already routed or failed.
    /// Returns the input fingerprint when checkpointing asked for it.
    pub(crate) fn prepare_run(
        &mut self,
        plane: &mut RoutingPlane,
        netlist: &Netlist,
        resume: Option<&Snapshot>,
        want_fingerprint: bool,
    ) -> Result<Option<u64>, SnapshotError> {
        self.try_begin_sized(plane, netlist.len())?;
        self.run_budget = RunBudget::from_config(&self.config);
        // The input fingerprint costs a serialization pass, so it is
        // computed only when checkpointing or resuming asks for it.
        let fp =
            (resume.is_some() || want_fingerprint).then(|| checkpoint::fingerprint(plane, netlist));
        if let (Some(snap), Some(fp)) = (resume, fp) {
            if snap.fingerprint() != fp {
                return Err(SnapshotError::FingerprintMismatch);
            }
        }
        let mut order = netlist.ids_by_hpwl();
        if let Some(snap) = resume {
            self.restore(plane, netlist, snap)?;
            let failed: std::collections::HashSet<NetId> = self.failed.iter().copied().collect();
            let routed = self.ledger.routed();
            let finalized = self.finalized;
            order.retain(|id| !finalized && !routed.contains_key(id) && !failed.contains(id));
        } else {
            // Reserve every pin candidate cell up front so earlier nets
            // cannot route over the pins of later ones (the owner may
            // still enter its own reserved cells).
            for net in netlist {
                self.reserve_pins(plane, net);
            }
        }
        self.schedule = order;
        self.next = 0;
        Ok(fp)
    }

    /// Resets the router state for the plane, with a hint of how many
    /// nets will be routed so the fragment spatial index can pick a
    /// density-matched tile size.
    ///
    /// # Errors
    ///
    /// Returns [`RouterError::PlaneTooLarge`] if the plane's cells do not
    /// fit the packed 32-bit search indices; the router state is left
    /// untouched in that case.
    pub(crate) fn try_begin_sized(
        &mut self,
        plane: &RoutingPlane,
        expected_nets: usize,
    ) -> Result<(), RouterError> {
        SearchScratch::check_plane(plane)?;
        self.ledger = CommitLedger::new(plane, expected_nets);
        match self.workspace.as_mut() {
            Some(ws) if ws.fits(plane) => ws.clear(),
            _ => self.workspace = Some(Workspace::try_new(plane)?),
        }
        self.failed.clear();
        self.finalized = false;
        Ok(())
    }

    /// Routes one net against the already-routed layout, reserving its
    /// pins first, and returns whether the net was committed. This is
    /// the ECO engine's re-route step: the caller controls the net order
    /// and no flipping or cleanup runs. The net emits the same
    /// `net_routed` / `net_failed` / rip-up trace events as the batch
    /// path.
    ///
    /// On failure the pin reservations taken for this net are released
    /// again (cells and guard halo), so an unroutable net does not block
    /// its candidate cells for later nets; a retry that succeeds clears
    /// the net's earlier entry in [`Router::failed`], and repeated
    /// failures record it only once.
    pub(crate) fn reroute_net(
        &mut self,
        plane: &mut RoutingPlane,
        net: &Net,
        rec: &mut dyn Recorder,
    ) -> bool {
        self.reserve_pins(plane, net);
        let ok = self.route_net(plane, net, &[], true, rec);
        if ok {
            // A retry that made it clears the earlier failure record so
            // report counters see the net exactly once.
            self.failed.retain(|&id| id != net.id);
        } else {
            self.release_pins(plane, net);
            if !self.failed.contains(&net.id) {
                self.failed.push(net.id);
            }
        }
        ok
    }

    /// Runs the final color flipping (Fig. 19 line 16) on every component
    /// touched since the last finalize, the hill-climbing refinement, and
    /// the repair loop that guarantees a conflict-free result.
    /// `netlist` is used to re-route nets the repair has to move.
    ///
    /// The flipping is scoped to *dirty* components — those containing a
    /// vertex whose edges changed since the previous finalize. The
    /// passes are timed as the `recolor` stage and emit one `flip_pass`
    /// event per layer that had dirty components.
    pub(crate) fn finalize(
        &mut self,
        plane: &mut RoutingPlane,
        netlist: &Netlist,
        rec: &mut dyn Recorder,
    ) {
        if self.config.final_flip {
            let clock = SpanClock::start(rec);
            for (layer, g) in self.ledger.graphs_mut().iter_mut().enumerate() {
                // Graph vertices are nets of `netlist`, so its size bounds
                // their ids.
                let mut visited = vec![false; netlist.len()];
                let mut components: u64 = 0;
                for v in g.take_dirty() {
                    if visited[v as usize] {
                        continue;
                    }
                    let members = g.component_of(v);
                    for &m in &members {
                        visited[m as usize] = true;
                    }
                    flip::flip_members(g, &members);
                    flip::refine_members(g, &members, 4);
                    components += 1;
                }
                if rec.enabled() && components > 0 {
                    rec.event(RouterEvent::FlipPass {
                        layer: layer as u8,
                        components,
                    });
                }
            }
            clock.stop(rec, Stage::Recolor);
        }
        self.repair(plane, netlist, rec);
        self.finalized = true;
    }

    /// Post-routing repair, the one rip-up and re-route loop of finalize.
    ///
    /// Each of up to five rounds first runs the graph-risk passes: a net
    /// whose coloring still realizes a forbidden assignment or a type-A
    /// cut risk gets its neighbourhood re-flipped, is re-routed away if
    /// the flip cannot fix it, and is given up if that fails too. Then
    /// one cut simulator pass checks the synthesised masks, and the nets
    /// owning a type-B conflicted or spacer-destroyed target are re-routed
    /// away. The overlay constraint graph is a pairwise model; a few
    /// multi-pattern interactions (e.g. an assist core of one wire merging
    /// over a via pad that is itself tip-merged with a third net) only
    /// appear in the masks, so the simulator closes that gap.
    ///
    /// A cell that is still conflicted in the next simulator pass is
    /// stuck: its owners moved and it stayed (a via pad on a pin cell
    /// cannot move). Only there does the rip-up widen to the nets within
    /// the dependence radius. The backstop then gives up every routed net
    /// either check still names until both are clean; removing a net adds
    /// no constraint-graph edge, and every pass removes one, so it ends.
    fn repair(&mut self, plane: &mut RoutingPlane, netlist: &Netlist, rec: &mut dyn Recorder) {
        // One simulator and one set of pattern buffers serve every pass:
        // both keep their storage between passes.
        let sim = CutSimulator::new(*plane.rules());
        let mut patterns = Vec::new();
        let radius = plane.rules().dependence_radius_tracks();
        let layer_count = self.ledger.layer_count();
        // The conflicted cells of the previous simulator pass.
        let mut previous = Vec::new();
        let mut sim_clean = false;
        for _ in 0..5 {
            for _ in 0..8 {
                let risky = self.risky_nets();
                if risky.is_empty() {
                    break;
                }
                // One flip+refine per neighbourhood per pass: several
                // risky nets usually share a region, and re-flipping it
                // for each of them repeated `O(component)` work per net.
                let mut flipped = vec![vec![false; netlist.len()]; layer_count];
                for id in risky {
                    if !self.ledger.routed().contains_key(&id) {
                        continue;
                    }
                    let net = id.0;
                    let clock = SpanClock::start(rec);
                    for (l, done) in flipped.iter_mut().enumerate() {
                        let g = &mut self.ledger.graphs_mut()[l];
                        if !g.contains(net) || done[net as usize] {
                            continue;
                        }
                        let members = flip::flip_neighborhood(g, net, FLIP_NEIGHBORHOOD);
                        flip::refine_members(g, &members, 2);
                        for m in members {
                            done[m as usize] = true;
                        }
                    }
                    clock.stop(rec, Stage::Recolor);
                    let has_risk =
                        |r: &Router| r.ledger.graphs().iter().any(|g| g.net_has_risk(net));
                    // Re-route away from the old corridor; give the net
                    // up only if that fails too or the new route is risky
                    // again.
                    if has_risk(self)
                        && (!self.reroute_away(plane, netlist.net(id), rec) || has_risk(self))
                    {
                        self.give_up(plane, id, rec);
                    }
                }
            }
            let (offenders, cells) =
                self.sim_offenders(&sim, &mut patterns, &previous, radius, rec);
            sim_clean = offenders.is_empty();
            if sim_clean {
                break;
            }
            for id in offenders {
                if self.ledger.routed().contains_key(&id)
                    && !self.reroute_away(plane, netlist.net(id), rec)
                {
                    self.give_up(plane, id, rec);
                }
            }
            previous = cells;
        }
        loop {
            let mut ids = self.risky_nets();
            if !sim_clean {
                ids.extend(self.sim_offenders(&sim, &mut patterns, &[], 0, rec).0);
            }
            if ids.is_empty() {
                return;
            }
            for id in ids {
                if self.ledger.routed().contains_key(&id) {
                    self.give_up(plane, id, rec);
                }
            }
            sim_clean = false;
        }
    }

    /// Runs the cut simulator's conflicts pass on every occupied layer
    /// and returns the nets owning target cells the decomposition fails
    /// on (sorted, deduplicated) and those `(layer, x, y)` cells (sorted).
    /// A cell that `previous` lists too is stuck and also names the nets
    /// with any fragment within `radius` tracks of it. Each call is one
    /// `decompose` span on `rec`.
    fn sim_offenders(
        &self,
        sim: &CutSimulator,
        patterns: &mut Vec<Vec<ColoredPattern>>,
        previous: &[(usize, i32, i32)],
        radius: i32,
        rec: &mut dyn Recorder,
    ) -> (Vec<NetId>, Vec<(usize, i32, i32)>) {
        let clock = SpanClock::start(rec);
        let mut offenders: Vec<NetId> = Vec::new();
        let mut cells = Vec::new();
        self.colored_patterns_into(|_| true, patterns);
        for (l, pats) in patterns.iter().enumerate() {
            let layer = Layer(l as u8);
            if pats.is_empty() {
                continue;
            }
            for (cx, cy) in sim.conflicts(pats).cells {
                let stuck = previous.binary_search(&(l, cx, cy)).is_ok();
                let window = TrackRect::cell(cx, cy).expanded(if stuck { radius } else { 0 });
                for (id, rect) in self.ledger.frag_index(layer).query_entries(&window) {
                    if rect.intersects(&window) {
                        offenders.push(NetId(crate::scan::net_of_frag_id(id)));
                    }
                }
                cells.push((l, cx, cy));
            }
        }
        offenders.sort_unstable();
        offenders.dedup();
        clock.stop(rec, Stage::Decompose);
        (offenders, cells)
    }

    /// Nets whose coloring realizes a forbidden assignment or a type-A
    /// cut risk on some layer (sorted, deduplicated).
    fn risky_nets(&self) -> Vec<NetId> {
        let mut risky: Vec<NetId> = Vec::new();
        for g in self.ledger.graphs() {
            risky.extend(g.nets_with_realized_risk().into_iter().map(NetId));
        }
        risky.sort_unstable();
        risky.dedup();
        risky
    }

    /// The one re-route of finalize: rips up the routed `net` and routes
    /// it again with `2 × ripup_penalty` seeded on its old corridor, so it
    /// leaves the offending region. The unroute freed the net's pin
    /// cells; they are reserved again first (its guard halo is still
    /// claimed, so only the cells change). Failures are not
    /// counted here (`count_failures = false`): the caller decides
    /// whether the net becomes a cleanup casualty.
    fn reroute_away(
        &mut self,
        plane: &mut RoutingPlane,
        net: &Net,
        rec: &mut dyn Recorder,
    ) -> bool {
        let old_cells = self.ledger.routed()[&net.id].fragments.clone();
        self.unroute(plane, net.id);
        let p = self.config.ripup_penalty_cost() * 2;
        let seeds: Vec<(GridPoint, u64)> = old_cells
            .iter()
            .flat_map(|(layer, rect)| {
                rect.cells()
                    .map(move |(x, y)| (GridPoint::new(*layer, x, y), p))
            })
            .collect();
        self.reserve_pins(plane, net);
        self.route_net(plane, net, &seeds, false, rec)
    }

    /// Gives `id` up as a cleanup casualty: unroutes it if it is still
    /// routed, lists it failed and records the `cleanup` failure.
    fn give_up(&mut self, plane: &mut RoutingPlane, id: NetId, rec: &mut dyn Recorder) {
        self.unroute(plane, id);
        self.failed.push(id);
        self.net_failed(id, FailReason::Cleanup, rec);
    }

    /// Builds the aggregate report for the current state, with the `cpu`
    /// field measured from `since`. A run's session reports through it
    /// when the schedule finishes; callers may also inspect the router
    /// after ECO edits.
    #[must_use]
    pub fn report(&self, netlist: &Netlist, since: Instant) -> RoutingReport {
        let c = &self.ledger.counters;
        let mut report = RoutingReport {
            total_nets: netlist.len(),
            routed_nets: self.ledger.routed().len(),
            ripups: c.ripups,
            ripups_type_b: c.ripups_type_b,
            ripups_graph: c.ripups_graph,
            ripups_risk: c.ripups_risk,
            failed_no_path: c.failed_no_path,
            failed_exhausted: c.failed_exhausted,
            failed_cleanup: c.failed_cleanup,
            failed_budget: c.failed_budget,
            flips: c.flips,
            nodes_expanded: c.nodes_expanded,
            cpu: since.elapsed(),
            ..RoutingReport::default()
        };
        for r in self.ledger.routed().values() {
            report.wirelength += r.wirelength();
            report.vias += r.via_count();
        }
        for g in self.ledger.graphs() {
            let e = g.evaluate();
            report.overlay_units += e.overlay_units;
            report.hard_overlay_violations += e.hard_violations;
            report.cut_conflicts += e.cut_risks;
        }
        // Consistency sweep: every routed net must have a color on every
        // layer it occupies. The count is taken here, from the state, so
        // the report does not depend on how many times the caller asked
        // for patterns.
        let mut fallbacks = 0u64;
        for r in self.ledger.routed().values() {
            let mut layers: Vec<Layer> = r.fragments.iter().map(|&(l, _)| l).collect();
            layers.sort_unstable();
            layers.dedup();
            for l in layers {
                if self.color_of(r.id, l).is_none() {
                    fallbacks += 1;
                    debug_assert!(false, "{} routed on {l} without a color", r.id);
                }
            }
        }
        report.color_fallbacks = fallbacks;
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sadp_geom::DesignRules;

    fn plane(w: i32, h: i32) -> RoutingPlane {
        RoutingPlane::new(3, w, h, DesignRules::node_10nm()).expect("valid")
    }

    fn p0(x: i32, y: i32) -> GridPoint {
        GridPoint::new(Layer(0), x, y)
    }

    #[test]
    fn routes_single_net() {
        let mut plane = plane(32, 32);
        let mut nl = Netlist::new();
        nl.add_two_pin("a", p0(2, 2), p0(14, 9));
        let mut router = Router::new(RouterConfig::paper_defaults());
        let report = router.route_all(&mut plane, &nl);
        assert_eq!(report.routed_nets, 1);
        assert_eq!(report.wirelength, 19);
        assert_eq!(report.overlay_units, 0);
        assert_eq!(report.color_fallbacks, 0);
        assert!(router.failed().is_empty());
    }

    #[test]
    fn adjacent_nets_get_different_colors() {
        let mut plane = plane(32, 32);
        let mut nl = Netlist::new();
        let a = nl.add_two_pin("a", p0(2, 5), p0(20, 5));
        let b = nl.add_two_pin("b", p0(2, 6), p0(20, 6));
        let mut router = Router::new(RouterConfig::paper_defaults());
        let report = router.route_all(&mut plane, &nl);
        assert_eq!(report.routed_nets, 2);
        assert_eq!(report.hard_overlay_violations, 0);
        // Straight rails side by side: a hard 1-a constraint.
        let ca = router.color_of(a, Layer(0)).unwrap();
        let cb = router.color_of(b, Layer(0)).unwrap();
        assert_ne!(ca, cb);
    }

    #[test]
    fn odd_cycle_resolved_by_merge_or_detour() {
        // Three parallel rails pairwise adjacent would be an odd cycle in a
        // trim process; the middle spacing here forms 1-a chains (even), so
        // add a third rail adjacent to both others via wrap-around is not
        // possible on a grid — instead verify a 3-rail bus routes clean.
        let mut plane = plane(32, 32);
        let mut nl = Netlist::new();
        for i in 0..3 {
            nl.add_two_pin(format!("r{i}"), p0(2, 5 + i), p0(20, 5 + i));
        }
        let mut router = Router::new(RouterConfig::paper_defaults());
        let report = router.route_all(&mut plane, &nl);
        assert_eq!(report.routed_nets, 3);
        assert_eq!(report.hard_overlay_violations, 0);
        assert_eq!(report.cut_conflicts, 0);
    }

    #[test]
    fn patterns_on_layer_reflect_routes() {
        let mut plane = plane(32, 32);
        let mut nl = Netlist::new();
        nl.add_two_pin("a", p0(2, 2), p0(10, 2));
        let mut router = Router::new(RouterConfig::paper_defaults());
        router.route_all(&mut plane, &nl);
        let pats = router.patterns_on_layer(Layer(0));
        assert_eq!(pats.len(), 1);
        assert_eq!(pats[0].2, vec![TrackRect::new(2, 2, 10, 2)]);
        assert!(router.patterns_on_layer(Layer(2)).is_empty());
    }

    #[test]
    fn dense_block_routes_conflict_free() {
        let mut plane = plane(48, 48);
        let mut nl = Netlist::new();
        for i in 0..12 {
            nl.add_two_pin(format!("n{i}"), p0(2 + i, 2 + i), p0(30 + (i % 5), 20 + i));
        }
        let mut router = Router::new(RouterConfig::paper_defaults());
        let report = router.route_all(&mut plane, &nl);
        assert!(report.routed_nets >= 9, "report: {report}");
        assert_eq!(report.hard_overlay_violations, 0);
        assert_eq!(report.cut_conflicts, 0);
    }

    #[test]
    fn multi_candidate_pins_route() {
        use sadp_grid::Pin;
        let mut plane = plane(32, 32);
        let mut nl = Netlist::new();
        nl.add_net(
            "m",
            Pin::with_candidates(vec![p0(2, 2), p0(2, 8)]),
            Pin::with_candidates(vec![p0(20, 8), p0(20, 2)]),
        );
        let mut router = Router::new(RouterConfig::paper_defaults());
        let report = router.route_all(&mut plane, &nl);
        assert_eq!(report.routed_nets, 1);
        // The straight pairing wins.
        let routed = router.routed().values().next().unwrap();
        assert_eq!(routed.path.wirelength(), 18);
    }

    #[test]
    fn unroutable_net_reported_failed() {
        let mut plane = plane(16, 16);
        for l in 0..3 {
            plane.add_blockage(Layer(l), TrackRect::new(8, 0, 8, 15));
        }
        let mut nl = Netlist::new();
        let id = nl.add_two_pin("x", p0(2, 2), p0(14, 2));
        let mut router = Router::new(RouterConfig::paper_defaults());
        let report = router.route_all(&mut plane, &nl);
        assert_eq!(report.routed_nets, 0);
        assert_eq!(router.failed(), &[id]);
        assert!(report.routability() < 1.0);
    }

    #[test]
    fn route_all_twice_reuses_workspace() {
        // A second route_all on the same-shaped plane must behave exactly
        // like a fresh router (workspace reuse + epoch clears).
        let mut nl = Netlist::new();
        nl.add_two_pin("a", p0(2, 2), p0(14, 9));
        nl.add_two_pin("b", p0(2, 12), p0(18, 12));
        let mut router = Router::new(RouterConfig::paper_defaults());
        let mut plane_a = plane(32, 32);
        let first = router.route_all(&mut plane_a, &nl);
        let mut plane_b = plane(32, 32);
        let second = router.route_all(&mut plane_b, &nl);
        assert_eq!(first.routed_nets, second.routed_nets);
        assert_eq!(first.wirelength, second.wirelength);
        assert_eq!(first.overlay_units, second.overlay_units);
        assert_eq!(first.nodes_expanded, second.nodes_expanded);
    }

    #[test]
    fn a_given_up_reroute_keeps_every_pin_reserved() {
        // A multi-terminal net whose finalize re-route cannot run (the
        // run budget is spent) is given up. Its pins, the extra
        // terminal's included, must stay reserved, so later re-routes
        // cannot run over them.
        use sadp_grid::Pin;
        let mut plane = plane(32, 32);
        let mut nl = Netlist::new();
        let pins = vec![
            Pin::fixed(p0(2, 5)),
            Pin::fixed(p0(20, 5)),
            Pin::with_candidates(vec![p0(10, 12), p0(11, 12)]),
        ];
        let id = nl.add_multi_pin("m", pins);
        let mut config = RouterConfig::paper_defaults();
        let mut router = Router::new(config.clone());
        router.route_all(&mut plane, &nl);
        assert!(router.routed().contains_key(&id));

        // The run budget counts the run's expansions: the route above
        // already spent more than one node.
        config.run_node_budget = 1;
        router.run_budget = RunBudget::from_config(&config);
        assert!(router.ledger().counters.nodes_expanded >= 1);
        assert!(!router.reroute_away(&mut plane, nl.net(id), &mut NoopRecorder));
        router.give_up(&mut plane, id, &mut NoopRecorder);
        assert!(router.routed().is_empty());
        assert_eq!(router.failed(), &[id]);
        assert_eq!(router.ledger().counters.failed_cleanup, 1);
        for pin in nl.net(id).pins() {
            for &c in pin.candidates() {
                assert_eq!(plane.occupant(c), Some(id), "pin cell {c} was released");
            }
        }
    }

    #[test]
    fn commit_journal_covers_routed_nets() {
        let mut plane = plane(32, 32);
        let mut nl = Netlist::new();
        nl.add_two_pin("a", p0(2, 2), p0(14, 9));
        nl.add_two_pin("b", p0(2, 12), p0(18, 12));
        let mut router = Router::new(RouterConfig::paper_defaults());
        let report = router.route_all(&mut plane, &nl);
        assert_eq!(report.routed_nets, 2);
        let journal = router.ledger().journal();
        assert_eq!(journal.len(), 2);
        for id in journal {
            assert!(router.routed().contains_key(id));
        }
    }
}
