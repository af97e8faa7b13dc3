//! The shared baseline routing engine with per-baseline decision policies.

use crate::metrics::{cut_merge_exposure, trim_exposure, LayerPatterns};
use sadp_core::astar::{astar_search, AstarRequest, SearchScratch};
use sadp_core::scan::{pack_frag_id, scan_fragments};
use sadp_core::{Budget, DirGrid, GuardGrid, PenaltyGrid, RouterConfig, RoutingReport};
use sadp_geom::{GridPoint, Layer, SpatialHash, TrackRect};
use sadp_grid::{Net, NetId, Netlist, RoutePath, RoutingPlane};
use sadp_obs::{FailReason, NoopRecorder, Recorder, RouterEvent, SpanClock, Stage};
use sadp_scenario::{Assignment, Color, CostTable, ScenarioKind};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Which baseline policy to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaselineKind {
    /// Du et al. \[10\]: trim process, multiple pin candidate locations,
    /// exhaustive candidate enumeration with full-layout rechecks, no
    /// rip-up.
    DuTrim,
    /// Gao & Pan \[11\]: trim process, simultaneous routing and greedy
    /// decomposition, no assist cores, no flipping.
    GaoPanTrim,
    /// The cut-process router of \[16\]: no odd-cycle merge technique,
    /// aggressive assist merging, colors fixed at route time.
    CutNoMerge,
}

impl BaselineKind {
    /// Display name used in the result tables.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            BaselineKind::DuTrim => "Du et al. [10] (trim)",
            BaselineKind::GaoPanTrim => "Gao-Pan [11] (trim)",
            BaselineKind::CutNoMerge => "cut w/o merge [16]",
        }
    }

    fn is_trim(self) -> bool {
        matches!(self, BaselineKind::DuTrim | BaselineKind::GaoPanTrim)
    }
}

/// Merged pair constraints recorded per layer.
#[derive(Debug, Default, Clone)]
struct PairStore {
    edges: HashMap<(u32, u32), (CostTable, Vec<ScenarioKind>)>,
}

impl PairStore {
    fn add(&mut self, a: u32, b: u32, kind: ScenarioKind, table: CostTable) {
        let key = if a <= b { (a, b) } else { (b, a) };
        let oriented = if key.0 == a { table } else { table.swapped() };
        let entry = self
            .edges
            .entry(key)
            .or_insert_with(|| (CostTable::zero(), Vec::new()));
        entry.0 = entry.0.merged(&oriented);
        entry.1.push(kind);
    }
}

/// The baseline router. One instance routes one netlist.
#[derive(Debug)]
pub struct BaselineRouter {
    kind: BaselineKind,
    config: RouterConfig,
    /// Wall-clock budget for the whole run; `None` = unlimited. \[10\] blows
    /// through any practical budget on the large benchmarks, exactly as in
    /// Table IV ("> 100000 s"); the harness reports `NA` when exceeded.
    time_budget: Option<Duration>,
    index: Vec<SpatialHash>,
    pairs: Vec<PairStore>,
    colors: Vec<HashMap<u32, Color>>,
    routed: HashMap<NetId, (RoutePath, Vec<(Layer, TrackRect)>)>,
    frag_seq: u32,
    nodes_expanded: u64,
    ripups: u64,
    recheck_pairs: u64,
    timed_out: bool,
}

impl BaselineRouter {
    /// Creates a baseline router with paper-comparable parameters (the
    /// baselines have no γ·T2b term and no flipping).
    #[must_use]
    pub fn new(kind: BaselineKind) -> BaselineRouter {
        let config = RouterConfig {
            gamma: 0.0,
            ..RouterConfig::paper_defaults()
        };
        BaselineRouter {
            kind,
            config,
            time_budget: None,
            index: Vec::new(),
            pairs: Vec::new(),
            colors: Vec::new(),
            routed: HashMap::new(),
            frag_seq: 0,
            nodes_expanded: 0,
            ripups: 0,
            recheck_pairs: 0,
            timed_out: false,
        }
    }

    /// Sets a wall-clock budget; when exceeded the run stops and
    /// [`BaselineRouter::timed_out`] reports true.
    #[must_use]
    pub fn with_time_budget(mut self, budget: Duration) -> BaselineRouter {
        self.time_budget = Some(budget);
        self
    }

    /// The baseline kind.
    #[must_use]
    pub fn kind(&self) -> BaselineKind {
        self.kind
    }

    /// Whether the last run exceeded its time budget.
    #[must_use]
    pub fn timed_out(&self) -> bool {
        self.timed_out
    }

    /// Fragment pairs visited by \[10\]'s full-layout rechecks — a
    /// deterministic proxy for its runtime blow-up.
    #[must_use]
    pub fn recheck_work(&self) -> u64 {
        self.recheck_pairs
    }

    /// The colored patterns of one layer (see
    /// [`Router::patterns_on_layer`](sadp_core::Router::patterns_on_layer)).
    #[must_use]
    pub fn patterns_on_layer(&self, layer: Layer) -> LayerPatterns {
        let mut out = Vec::new();
        let mut ids: Vec<&NetId> = self.routed.keys().collect();
        ids.sort();
        for id in ids {
            let (_, fragments) = &self.routed[id];
            let rects: Vec<TrackRect> = fragments
                .iter()
                .filter(|(l, _)| *l == layer)
                .map(|(_, r)| *r)
                .collect();
            if !rects.is_empty() {
                let color = self.colors[layer.index()]
                    .get(&id.0)
                    .copied()
                    .unwrap_or(Color::Core);
                out.push((id.0, color, rects));
            }
        }
        out
    }

    /// Routes the whole netlist under the baseline's policy.
    pub fn route_all(&mut self, plane: &mut RoutingPlane, netlist: &Netlist) -> RoutingReport {
        self.route_all_with(plane, netlist, &mut NoopRecorder)
    }

    /// [`BaselineRouter::route_all`] with an observability recorder: each
    /// net's pathfinding is timed as one `search` span and emits a
    /// `net_routed`/`net_failed` event. The baselines run serially, so the
    /// stream is trivially deterministic; failures are all reported as
    /// `no_path` (the baseline policies do not distinguish an exhausted
    /// retry budget from an unroutable net).
    pub fn route_all_with(
        &mut self,
        plane: &mut RoutingPlane,
        netlist: &Netlist,
        rec: &mut dyn Recorder,
    ) -> RoutingReport {
        let start = Instant::now();
        let layers = plane.layers();
        self.index = (0..layers).map(|_| SpatialHash::new(16)).collect();
        self.pairs = (0..layers).map(|_| PairStore::default()).collect();
        self.colors = (0..layers).map(|_| HashMap::new()).collect();
        self.routed.clear();
        self.frag_seq = 0;
        self.nodes_expanded = 0;
        self.ripups = 0;
        self.recheck_pairs = 0;
        self.timed_out = false;

        // Pin reservation, as for the main router.
        for net in netlist {
            for pin in [&net.source, &net.target] {
                for &c in pin.candidates() {
                    let _ = plane.occupy(c, net.id);
                }
            }
        }

        // Shared search state: the baselines never place guards and the
        // penalty grid is cleared (O(1)) before each net. The scratch is
        // likewise reused across nets — allocating full-plane vectors per
        // search would itself be superlinear in the netlist size.
        let mut penalties = PenaltyGrid::new(plane, 0);
        let guards = GuardGrid::new(plane);
        let dir_map = DirGrid::new(plane);
        let mut scratch = SearchScratch::new(plane);

        for id in netlist.ids_by_hpwl() {
            if let Some(budget) = self.time_budget {
                if start.elapsed() > budget {
                    self.timed_out = true;
                    break;
                }
            }
            let net = netlist.net(id);
            penalties.clear();
            let clock = SpanClock::start(&*rec);
            let routed = match self.kind {
                BaselineKind::DuTrim => {
                    self.route_du(plane, net, &penalties, &guards, &dir_map, &mut scratch)
                }
                BaselineKind::GaoPanTrim | BaselineKind::CutNoMerge => self.route_sequential(
                    plane,
                    net,
                    &mut penalties,
                    &guards,
                    &dir_map,
                    &mut scratch,
                ),
            };
            clock.stop(rec, Stage::Search);
            if let Some(path) = routed {
                self.commit(plane, net, path);
                if rec.enabled() {
                    rec.event(RouterEvent::NetRouted {
                        net: id.0,
                        attempts: 1,
                        flipped: false,
                    });
                }
            } else if rec.enabled() {
                rec.event(RouterEvent::NetFailed {
                    net: id.0,
                    reason: FailReason::NoPath,
                });
            }
        }

        let mut report = self.build_report(netlist, start);
        if let Some(profile) = rec.profile() {
            report.profile = profile;
        }
        report
    }

    /// Gao-Pan \[11\] and \[16\]: one search (plus 1-b avoidance re-routes for
    /// the kinds that cannot tolerate tip-to-tip pairs).
    fn route_sequential(
        &mut self,
        plane: &mut RoutingPlane,
        net: &Net,
        penalties: &mut PenaltyGrid,
        guards: &GuardGrid,
        dir_map: &DirGrid,
        scratch: &mut SearchScratch,
    ) -> Option<RoutePath> {
        let attempts = match self.kind {
            BaselineKind::GaoPanTrim => 2,
            _ => self.config.max_ripup + 1,
        };
        for _ in 0..attempts {
            let req = AstarRequest {
                plane,
                dir_map,
                guards,
                penalties,
                config: &self.config,
                net: net.id,
                sources: net.source.candidates(),
                targets: net.target.candidates(),
            };
            let (path, stats) = astar_search(&req, scratch, &mut Budget::unlimited());
            self.nodes_expanded += stats.expanded;
            let path = path?;
            // Both trim routers and \[16\] must avoid tip-to-tip pairs at
            // minimum spacing: the trim process cannot print the facing
            // line ends, and \[16\] lacks the merge technique.
            let line_ends = self.line_end_rects(plane, net.id.0, &path);
            if line_ends.is_empty() {
                return Some(path);
            }
            for (layer, rect) in line_ends {
                for (x, y) in rect.expanded(1).cells() {
                    let p = GridPoint::new(layer, x, y);
                    if penalties.contains(p) {
                        penalties.update(p, |v| v + self.config.ripup_penalty_cost());
                    }
                }
            }
            self.ripups += 1;
        }
        None
    }

    /// Du et al. \[10\]: route every source×target candidate pair separately
    /// and keep the pair whose route adds the fewest conflicts, verified
    /// with a full-layout recheck per candidate — the faithful source of
    /// its runtime blow-up.
    fn route_du(
        &mut self,
        plane: &mut RoutingPlane,
        net: &Net,
        penalties: &PenaltyGrid,
        guards: &GuardGrid,
        dir_map: &DirGrid,
        scratch: &mut SearchScratch,
    ) -> Option<RoutePath> {
        let mut best: Option<(u64, RoutePath)> = None;
        for &s in net.source.candidates() {
            for &t in net.target.candidates() {
                let req = AstarRequest {
                    plane,
                    dir_map,
                    guards,
                    penalties,
                    config: &self.config,
                    net: net.id,
                    sources: &[s],
                    targets: &[t],
                };
                let (path, stats) = astar_search(&req, scratch, &mut Budget::unlimited());
                self.nodes_expanded += stats.expanded;
                let Some(path) = path else { continue };
                let line_ends = self.line_end_rects(plane, net.id.0, &path);
                if !line_ends.is_empty() {
                    continue; // the trim process cannot decompose this pair
                }
                // Full-layout recheck: re-scan every routed fragment for
                // conflicts given the tentative route (O(F) per candidate).
                let recheck = self.full_recheck_conflicts(plane);
                let cost = path.wirelength()
                    + path.via_count()
                    + recheck * 4
                    + self.tentative_conflicts(plane, net.id.0, &path) * 1000;
                if best.as_ref().is_none_or(|(c, _)| cost < *c) {
                    best = Some((cost, path));
                }
            }
        }
        best.map(|(_, p)| p)
    }

    /// 1-b (tip-to-tip at minimum spacing) fragments of a tentative path.
    fn line_end_rects(
        &self,
        plane: &RoutingPlane,
        net: u32,
        path: &RoutePath,
    ) -> Vec<(Layer, TrackRect)> {
        let mut out = Vec::new();
        for (layer, frags) in per_layer(path) {
            for f in scan_fragments(
                layer,
                net,
                &frags,
                &self.index[layer.index()],
                plane.rules(),
            ) {
                if f.scenario.kind == ScenarioKind::OneB {
                    out.push((layer, f.our_rect));
                }
            }
        }
        out
    }

    /// Number of trim coloring conflicts the tentative route would add.
    fn tentative_conflicts(&self, plane: &RoutingPlane, net: u32, path: &RoutePath) -> u64 {
        let mut conflicts = 0;
        for (layer, frags) in per_layer(path) {
            for f in scan_fragments(
                layer,
                net,
                &frags,
                &self.index[layer.index()],
                plane.rules(),
            ) {
                if f.scenario.kind == ScenarioKind::OneA
                    && f.scenario.table.hard_parity() == Some(true)
                {
                    conflicts += 1;
                }
            }
        }
        conflicts
    }

    /// Re-derives the conflict graph of the entire routed layout — \[10\]'s
    /// per-candidate global verification step: every routed fragment is
    /// re-queried against the spatial index and every dependent pair
    /// re-classified with the current colors. This O(layout) pass per
    /// candidate pair is the faithful source of \[10\]'s runtime blow-up
    /// (Table IV: > 100 000 s on the two largest circuits).
    fn full_recheck_conflicts(&mut self, plane: &RoutingPlane) -> u64 {
        let radius = plane.rules().dependence_radius_tracks();
        let mut conflicts = 0u64;
        let mut work = 0u64;
        for (layer_idx, index) in self.index.iter().enumerate() {
            let colors = &self.colors[layer_idx];
            for (id, (_, fragments)) in &self.routed {
                for (l, rect) in fragments {
                    if l.index() != layer_idx {
                        continue;
                    }
                    let window = rect.expanded(radius);
                    for (fid, other) in index.query_entries(&window) {
                        work += 1;
                        let other_net = sadp_core::scan::net_of_frag_id(fid);
                        if other_net == id.0 {
                            continue;
                        }
                        let Some(s) = sadp_scenario::classify(rect, &other, plane.rules()) else {
                            continue;
                        };
                        match s.kind {
                            ScenarioKind::OneB => conflicts += 1,
                            ScenarioKind::OneA if colors.get(&id.0) == colors.get(&other_net) => {
                                conflicts += 1
                            }
                            _ => {}
                        }
                    }
                }
            }
        }
        self.recheck_pairs += work;
        // Each pair is visited from both sides.
        conflicts / 2
    }

    fn commit(&mut self, plane: &mut RoutingPlane, net: &Net, path: RoutePath) {
        let id = net.id;
        for &p in path.points() {
            plane.occupy(p, id).expect("A* walks free or own cells");
        }
        for pin in [&net.source, &net.target] {
            for &c in pin.candidates() {
                if !path.points().contains(&c) {
                    plane.clear_path(&[c], id);
                }
            }
        }
        let fragments: Vec<(Layer, TrackRect)> = path.fragments();
        for (layer, frags) in per_layer(&path) {
            // Record the scenarios against the already-routed layout.
            let found: Vec<_> = scan_fragments(
                layer,
                id.0,
                &frags,
                &self.index[layer.index()],
                plane.rules(),
            );
            for f in &found {
                if f.scenario.is_constraining() {
                    self.pairs[layer.index()].add(
                        id.0,
                        f.other_net,
                        f.scenario.kind,
                        f.scenario.table,
                    );
                }
            }
            // Fixed greedy coloring at route time (no flipping, ever).
            let color = self.greedy_color(layer, id.0);
            self.colors[layer.index()].insert(id.0, color);
        }
        for &(layer, rect) in &fragments {
            self.index[layer.index()].insert(pack_frag_id(id.0, self.frag_seq), rect);
            self.frag_seq += 1;
        }
        self.routed.insert(id, (path, fragments));
    }

    /// Greedy color for a newly routed net: trim baselines prefer core and
    /// switch to trim only under 1-a pressure; \[16\] minimises the local
    /// scenario weight. The color never changes afterwards.
    fn greedy_color(&self, layer: Layer, net: u32) -> Color {
        let store = &self.pairs[layer.index()];
        let colors = &self.colors[layer.index()];
        let mut weight = [0u64; 2];
        for (&(a, b), (table, kinds)) in &store.edges {
            let (other, mine_first) = if a == net {
                (b, true)
            } else if b == net {
                (a, false)
            } else {
                continue;
            };
            let Some(&oc) = colors.get(&other) else {
                continue;
            };
            for (ci, &c) in Color::ALL.iter().enumerate() {
                let asg = if mine_first {
                    Assignment::from_colors(c, oc)
                } else {
                    Assignment::from_colors(oc, c)
                };
                weight[ci] += match self.kind {
                    BaselineKind::CutNoMerge => table.entry(asg).weight(),
                    // Trim: only the coloring rule (1-a) matters.
                    _ => {
                        if kinds.contains(&ScenarioKind::OneA)
                            && table.hard_parity() == Some(true)
                            && asg.is_same_color()
                        {
                            1_000_000
                        } else {
                            0
                        }
                    }
                };
            }
        }
        if weight[1] < weight[0] {
            Color::Second
        } else {
            Color::Core
        }
    }

    fn build_report(&self, netlist: &Netlist, start: Instant) -> RoutingReport {
        let mut report = RoutingReport {
            total_nets: netlist.len(),
            routed_nets: self.routed.len(),
            ripups: self.ripups,
            nodes_expanded: self.nodes_expanded,
            cpu: start.elapsed(),
            ..RoutingReport::default()
        };
        for (path, _) in self.routed.values() {
            report.wirelength += path.wirelength();
            report.vias += path.via_count();
        }
        for (layer_idx, store) in self.pairs.iter().enumerate() {
            let colors = &self.colors[layer_idx];
            for (&(a, b), (table, kinds)) in &store.edges {
                let (Some(&ca), Some(&cb)) = (colors.get(&a), colors.get(&b)) else {
                    continue;
                };
                let asg = Assignment::from_colors(ca, cb);
                let cost = table.entry(asg);
                if self.kind.is_trim() {
                    // Trim conflicts: undecomposable line ends plus violated
                    // coloring rules.
                    if kinds.contains(&ScenarioKind::OneB) {
                        report.cut_conflicts += 1;
                    }
                    if table.hard_parity() == Some(true) && asg.is_same_color() {
                        report.cut_conflicts += 1;
                    }
                } else {
                    match cost.overlay_units() {
                        Some(u) => {
                            report.overlay_units += u64::from(u);
                            if cost.has_cut_risk() {
                                report.cut_conflicts += 1;
                            }
                        }
                        None => {
                            report.hard_overlay_violations += 1;
                            report.cut_conflicts += 1;
                        }
                    }
                }
            }
        }
        // Process-specific physical overlay.
        for layer in 0..self.index.len() {
            let pats = self.patterns_on_layer(Layer(layer as u8));
            if pats.is_empty() {
                continue;
            }
            let rules = sadp_geom::DesignRules::node_10nm();
            report.overlay_units += if self.kind.is_trim() {
                trim_exposure(&pats, &rules)
            } else {
                cut_merge_exposure(&pats, &rules)
            };
        }
        report
    }
}

fn per_layer(path: &RoutePath) -> Vec<(Layer, Vec<TrackRect>)> {
    let mut map: HashMap<Layer, Vec<TrackRect>> = HashMap::new();
    for (layer, rect) in path.fragments() {
        map.entry(layer).or_default().push(rect);
    }
    let mut out: Vec<_> = map.into_iter().collect();
    out.sort_by_key(|(l, _)| *l);
    out
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
    fn gao_pan_routes_and_colors() {
        let mut plane = plane(32, 32);
        let mut nl = Netlist::new();
        nl.add_two_pin("a", p0(2, 5), p0(20, 5));
        nl.add_two_pin("b", p0(2, 6), p0(20, 6));
        let mut router = BaselineRouter::new(BaselineKind::GaoPanTrim);
        let report = router.route_all(&mut plane, &nl);
        assert_eq!(report.routed_nets, 2);
        // 1-a forces different colors; the second one goes to trim and its
        // exposed sides count as overlay.
        let pats = router.patterns_on_layer(Layer(0));
        let trims = pats.iter().filter(|(_, c, _)| *c == Color::Second).count();
        assert_eq!(trims, 1);
        assert!(report.overlay_units > 0, "trim exposure must show up");
        assert_eq!(report.cut_conflicts, 0);
    }

    #[test]
    fn gao_pan_counts_coloring_conflicts() {
        // Three parallel rails: trim 2-coloring works (alternate), so no
        // conflicts; but a same-color forced pair appears with 4 rails in a
        // sandwich? Use a tighter construction: rails at y=5,6,7 and a
        // 4th wire adjacent to both outer rails cannot exist on a grid, so
        // instead verify the simple case stays conflict-free.
        let mut plane = plane(32, 32);
        let mut nl = Netlist::new();
        for i in 0..3 {
            nl.add_two_pin(format!("r{i}"), p0(2, 5 + i), p0(20, 5 + i));
        }
        let mut router = BaselineRouter::new(BaselineKind::GaoPanTrim);
        let report = router.route_all(&mut plane, &nl);
        assert_eq!(report.routed_nets, 3);
        assert_eq!(report.cut_conflicts, 0);
    }

    #[test]
    fn trim_baseline_avoids_line_ends() {
        // Collinear pins that tempt a tip-to-tip: the baseline re-routes or
        // drops rather than committing an undecomposable pair.
        let mut plane = plane(32, 32);
        let mut nl = Netlist::new();
        nl.add_two_pin("a", p0(2, 5), p0(10, 5));
        nl.add_two_pin("b", p0(12, 5), p0(20, 5));
        let mut router = BaselineRouter::new(BaselineKind::GaoPanTrim);
        let report = router.route_all(&mut plane, &nl);
        // Both routable: the second wire detours around the line end.
        assert_eq!(report.cut_conflicts, 0);
        assert!(report.routed_nets >= 1);
    }

    #[test]
    fn du_uses_candidates() {
        use sadp_grid::Pin;
        let mut plane = plane(32, 32);
        let mut nl = Netlist::new();
        nl.add_net(
            "m",
            Pin::with_candidates(vec![p0(2, 2), p0(2, 8)]),
            Pin::with_candidates(vec![p0(20, 8), p0(20, 2)]),
        );
        let mut router = BaselineRouter::new(BaselineKind::DuTrim);
        let report = router.route_all(&mut plane, &nl);
        assert_eq!(report.routed_nets, 1);
    }

    #[test]
    fn cut_no_merge_reports_cut_metrics() {
        let mut plane = plane(32, 32);
        let mut nl = Netlist::new();
        nl.add_two_pin("a", p0(2, 5), p0(20, 5));
        nl.add_two_pin("b", p0(2, 7), p0(20, 7));
        let mut router = BaselineRouter::new(BaselineKind::CutNoMerge);
        let report = router.route_all(&mut plane, &nl);
        assert_eq!(report.routed_nets, 2);
        // Parallel at gap 2 (2-a): greedy colors them same -> no overlay,
        // or different -> merge exposure; either way the report is defined.
        assert_eq!(report.hard_overlay_violations, 0);
    }

    #[test]
    fn time_budget_short_circuits() {
        let mut plane = plane(48, 48);
        let mut nl = Netlist::new();
        for i in 0..20 {
            nl.add_two_pin(format!("n{i}"), p0(2, 2 + i), p0(40, 2 + i));
        }
        let mut router = BaselineRouter::new(BaselineKind::DuTrim).with_time_budget(Duration::ZERO);
        let report = router.route_all(&mut plane, &nl);
        assert!(router.timed_out());
        assert!(report.routed_nets < 20);
    }

    #[test]
    fn kind_names() {
        assert!(BaselineKind::DuTrim.name().contains("[10]"));
        assert!(BaselineKind::GaoPanTrim.name().contains("[11]"));
        assert!(BaselineKind::CutNoMerge.name().contains("[16]"));
    }
}
