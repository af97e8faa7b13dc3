//! The overlay-aware A\*-search (`OverlayAwareAStarSearch`, Fig. 19
//! line 4).
//!
//! Hot-path layout: all per-cell search state (g-costs, came-from links,
//! target membership) lives in generation-stamped dense vectors inside
//! [`SearchScratch`], indexed by the plane's own cell linearisation, and
//! the open list is a monotone [`BucketQueue`] — so one node expansion
//! costs a handful of array reads instead of several hash lookups and a
//! `O(log n)` heap operation. Neighbours are walked by raw cell index,
//! and a step's `T2b` term is one byte of the [`DirGrid`]'s maintained
//! neighbour counts rather than eight probes of the plane and the hints. The heuristic is an `O(1)` bounding-box
//! lower bound rather than a min over all target points (branch routing
//! passes entire trunk paths as targets, which made the per-push
//! heuristic itself `O(|path|)` and the whole search superlinear).

use crate::bucket::BucketQueue;
use crate::budget::Budget;
use crate::config::RouterConfig;
use crate::grids::{DirGrid, GuardGrid, PenaltyGrid};
use crate::router::RouterError;
use sadp_geom::{Dir, GridPoint, Layer, TrackRect};
use sadp_grid::{NetId, RoutePath, RoutingPlane};

/// A single search request: everything one multi-source, multi-target
/// search reads (pin candidate locations route to whichever pair is
/// cheapest).
#[derive(Debug, Clone, Copy)]
pub struct AstarRequest<'a> {
    /// The routing plane (occupancy and blockages).
    pub plane: &'a RoutingPlane,
    /// Committed wire directions of already-routed nets (the `T2b` hints).
    pub dir_map: &'a DirGrid,
    /// Soft keep-out halos around pins: the owning net per cell; entering
    /// a guarded cell costs every net except the owner the config's
    /// `pin_guard_cost`, so early nets leave later pins approachable.
    pub guards: &'a GuardGrid,
    /// Extra per-cell penalties accumulated by rip-up iterations
    /// (scaled cost units).
    pub penalties: &'a PenaltyGrid,
    /// The cost weights and search margin.
    pub config: &'a RouterConfig,
    /// The net being routed (its own cells are passable).
    pub net: NetId,
    /// Source candidate points.
    pub sources: &'a [GridPoint],
    /// Target candidate points.
    pub targets: &'a [GridPoint],
}

/// Statistics of one search.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SearchStats {
    /// Nodes popped from the open list.
    pub expanded: u64,
    /// Whether the search stopped because its [`Budget`] ran out. When
    /// set, no path is returned regardless of whether one existed.
    pub budget_exceeded: bool,
}

/// Came-from sentinel: the cell is a search source.
const NO_PREV: u32 = u32::MAX;

/// Reusable dense search state sized to one routing plane.
///
/// Construct once and pass to [`astar_search`] for every net; clearing
/// between searches is `O(1)` via generation stamps.
#[derive(Debug)]
pub struct SearchScratch {
    width: i32,
    height: i32,
    layers: u8,
    g: Vec<u64>,
    came: Vec<u32>,
    stamp: Vec<u32>,
    target_stamp: Vec<u32>,
    generation: u32,
    queue: BucketQueue,
}

impl SearchScratch {
    /// Builds scratch state shaped like `plane`.
    ///
    /// # Panics
    ///
    /// Panics if the plane is too large for packed search indices; use
    /// [`SearchScratch::try_new`] to get the error as a value instead.
    #[must_use]
    pub fn new(plane: &RoutingPlane) -> Self {
        SearchScratch::try_new(plane).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Checks that a plane's cells fit the packed 32-bit search indices
    /// (the open list and came-from links store cell ids as `u32`).
    ///
    /// # Errors
    ///
    /// Returns [`RouterError::PlaneTooLarge`] when they do not. The check
    /// runs *before* any search state is allocated, so an oversized plane
    /// fails cleanly instead of overflowing the index arithmetic (or
    /// aborting mid-allocation) deep inside a routing run.
    pub fn check_plane(plane: &RoutingPlane) -> Result<usize, RouterError> {
        checked_cell_count(plane.layers(), plane.width(), plane.height())
    }

    /// Builds scratch state shaped like `plane`.
    ///
    /// # Errors
    ///
    /// Returns [`RouterError::PlaneTooLarge`] if the plane has
    /// `u32::MAX` cells or more — the search packs cell indices into 32
    /// bits, and such a plane would need tens of gigabytes of search
    /// state anyway.
    pub fn try_new(plane: &RoutingPlane) -> Result<Self, RouterError> {
        let cells = SearchScratch::check_plane(plane)?;
        Ok(Self {
            width: plane.width(),
            height: plane.height(),
            layers: plane.layers(),
            g: vec![0; cells],
            came: vec![0; cells],
            stamp: vec![0; cells],
            target_stamp: vec![0; cells],
            generation: 0,
            queue: BucketQueue::new(),
        })
    }

    /// True if this scratch matches the plane's dimensions.
    #[must_use]
    pub fn fits(&self, plane: &RoutingPlane) -> bool {
        self.width == plane.width()
            && self.height == plane.height()
            && self.layers == plane.layers()
    }

    /// Starts a fresh search: bumps the generation and empties the queue.
    fn begin(&mut self) {
        self.generation = match self.generation.checked_add(1) {
            Some(g) => g,
            None => {
                self.stamp.fill(0);
                self.target_stamp.fill(0);
                1
            }
        };
        self.queue.clear();
    }

    #[inline]
    fn g_of(&self, i: u32) -> u64 {
        if self.stamp[i as usize] == self.generation {
            self.g[i as usize]
        } else {
            u64::MAX
        }
    }

    #[inline]
    fn record(&mut self, i: u32, g: u64, prev: u32) {
        let i = i as usize;
        self.stamp[i] = self.generation;
        self.g[i] = g;
        self.came[i] = prev;
    }

    #[inline]
    fn is_target(&self, i: u32) -> bool {
        self.target_stamp[i as usize] == self.generation
    }
}

/// Runs the overlay-aware A\*-search of eq. (5).
///
/// The cost of entering grid `j` from `i` is
/// `α·C_wl + β·C_via + γ·T2b(j) + penalty(j)`, where `T2b(j)` is 1 when
/// occupying `j` would create a type 2-b potential overlay scenario with a
/// routed net (a tip of the new wire one track from the side of a routed
/// wire, or vice versa).
///
/// The heuristic is `h(p) = planar_floor · bbox_dist(p) + β ·
/// layer_range_dist(p)` against the target bounding box, where
/// `planar_floor = min(α, wrong_way)` is the cheapest possible planar
/// step. Every edge cost is at least the matching per-step floor, so `h`
/// is consistent and the popped `f` keys are monotone — which is what
/// allows the radix-heap open list.
///
/// **Target entry.** When every entry of `req.targets` is the same cell,
/// entering it charges no `req.penalties` and no foreign `req.guards`
/// term. This is exact: every complete path enters that cell once, as its
/// last step, so the two terms add one constant to every candidate. The
/// open list pops the least key, newest first among equal keys, so the
/// non-target pops up to the target's are the ones a charging search
/// makes, the same predecessor sets the target's came-from link, and the
/// same path comes back, only sooner: a re-route that penalises its
/// old cells, its own pin among them, no longer expands every node
/// within that penalty of the optimum. The entry still costs at least
/// the step floor, so `h` stays consistent. With several target cells
/// (pin candidates, or a branch search aimed at the trunk) the terms are
/// charged as usual, since there they choose between targets.
///
/// **Settled neighbours.** Before pricing a step, the search compares
/// `g + base` with the neighbour's recorded `g`, where `base` is the
/// step's `α` or wrong-way planar cost, or `β` for a via. The `γ·T2b`,
/// penalty and guard terms are never negative, so every step costs at
/// least its base; a neighbour at or below `g + base` would fail the
/// `ng < g` test anyway. Skipping it early is exact: the same nodes are
/// recorded and pushed, in the same order, and only the `T2b` read and
/// the penalty and guard lookups of a step that cannot win are saved.
///
/// **Step kernel.** A popped cell is decoded to `(layer, x, y)` once;
/// its neighbours are then `±1`, `±width` and `±width·height` away in
/// the plane's cell order, and passability, `T2b`, penalty and guard are
/// read by that index. `T2b` comes from the neighbour counts the
/// [`DirGrid`] maintains, one byte per cell; it equals the
/// plane-probing count because every hinted cell is occupied by a
/// committed net other than the one searching (debug builds assert it
/// on every priced step). Neighbours are tried in
/// [`Step::ALL`](sadp_geom::Step::ALL) order,
/// which fixes the push order the routes depend on.
///
/// The search runs under `budget`, charged once per expanded node: an
/// exhausted budget stops it with `SearchStats::budget_exceeded` set (no
/// path is returned). An unlimited budget costs one predictable branch
/// per node. `scratch` is reused across searches; clearing it is `O(1)`.
///
/// Returns the cheapest path from any source to any target, or `None`.
#[must_use]
pub fn astar_search(
    req: &AstarRequest<'_>,
    scratch: &mut SearchScratch,
    budget: &mut Budget,
) -> (Option<RoutePath>, SearchStats) {
    let (plane, dir_map, config) = (req.plane, req.dir_map, req.config);
    let mut stats = SearchStats::default();
    if req.targets.is_empty() || req.sources.is_empty() {
        return (None, stats);
    }
    debug_assert!(scratch.fits(plane), "scratch sized for a different plane");
    scratch.begin();

    // Bound the search window to the pin bounding box plus a margin.
    let window = search_window(req);

    let alpha = config.alpha_cost();
    let beta = config.beta_cost();
    let gamma = config.gamma_cost();
    let wrong_way = config.wrong_way_cost();
    let pin_guard = config.pin_guard_cost();
    let planar_floor = alpha.min(wrong_way);

    // Target bounding box (planar + layer range) for the O(1) heuristic.
    let mut bbox: Option<TrackRect> = None;
    let (mut lmin, mut lmax) = (u8::MAX, 0u8);
    for t in req.targets {
        let cell = TrackRect::cell(t.x, t.y);
        bbox = Some(match bbox {
            Some(b) => b.union_bbox(&cell),
            None => cell,
        });
        lmin = lmin.min(t.layer.0);
        lmax = lmax.max(t.layer.0);
        scratch.target_stamp[plane.index(*t)] = scratch.generation;
    }
    let bbox = bbox.expect("targets non-empty");
    // The lone target whose entry is not charged (see "Target entry"
    // above); `usize::MAX` is never a cell index (`checked_cell_count`).
    let free_target = if req.targets.iter().all(|t| *t == req.targets[0]) {
        plane.index(req.targets[0])
    } else {
        usize::MAX
    };
    let h = |layer: u8, x: i32, y: i32| -> u64 {
        let dx = (bbox.x0 - x).max(x - bbox.x1).max(0) as u64;
        let dy = (bbox.y0 - y).max(y - bbox.y1).max(0) as u64;
        let dl = if layer < lmin {
            (lmin - layer) as u64
        } else if layer > lmax {
            (layer - lmax) as u64
        } else {
            0
        };
        (dx + dy) * planar_floor + dl * beta
    };

    for &s in req.sources {
        if plane.is_free(s) || plane.occupant(s) == Some(req.net) {
            let i = plane.index(s) as u32;
            scratch.record(i, 0, NO_PREV);
            scratch.queue.push(h(s.layer.0, s.x, s.y), 0, i);
        }
    }

    let w = plane.width() as usize;
    let layer_cells = w * plane.height() as usize;
    let top = plane.layers() - 1;
    while let Some((_, gc, ci)) = scratch.queue.pop() {
        if scratch.g_of(ci) < gc {
            continue; // stale queue entry
        }
        stats.expanded += 1;
        if !budget.charge() {
            stats.budget_exceeded = true;
            return (None, stats);
        }
        if scratch.is_target(ci) {
            let mut pts = Vec::new();
            let mut cur = ci;
            loop {
                pts.push(plane.point(cur as usize));
                let prev = scratch.came[cur as usize];
                if prev == NO_PREV {
                    break;
                }
                cur = prev;
            }
            pts.reverse();
            let path = RoutePath::new(pts).expect("A* emits contiguous paths");
            return (Some(path), stats);
        }
        let i = ci as usize;
        let p = plane.point(i);
        let (layer, x, y) = (p.layer.0, p.x, p.y);
        let (h_base, v_base) = match preferred_dir(Layer(layer)) {
            Dir::Horizontal => (alpha, wrong_way),
            Dir::Vertical => (wrong_way, alpha),
        };
        // Prices the step into cell `qi` at `(ql, qx, qy)`; `axis` is the
        // planar axis of the step (`None` for a via) and `base` its floor
        // ("Settled neighbours").
        let mut relax = |qi: usize, ql: u8, qx: i32, qy: i32, axis: Option<Dir>, base: u64| {
            if !plane.is_open_at(qi, req.net) {
                return;
            }
            let gq = scratch.g_of(qi as u32);
            if gc + base >= gq {
                return;
            }
            let mut cost = base;
            if let Some(axis) = axis {
                let t2b = dir_map.t2b_at(qi, axis);
                let q = GridPoint::new(Layer(ql), qx, qy);
                debug_assert_eq!(
                    t2b,
                    t2b_count(plane, dir_map, req.net, q, axis),
                    "T2b neighbour count of {q:?} stale for {axis:?}"
                );
                cost += gamma * t2b;
            }
            if qi != free_target {
                cost += req.penalties.get_at(qi);
                if req.guards.foreign_at(qi, req.net) {
                    cost += pin_guard;
                }
            }
            let ng = gc + cost;
            if ng < gq {
                scratch.record(qi as u32, ng, ci);
                scratch.queue.push(ng + h(ql, qx, qy), ng, qi as u32);
            }
        };
        if x < window.x1 {
            relax(i + 1, layer, x + 1, y, Some(Dir::Horizontal), h_base);
        }
        if x > window.x0 {
            relax(i - 1, layer, x - 1, y, Some(Dir::Horizontal), h_base);
        }
        if y < window.y1 {
            relax(i + w, layer, x, y + 1, Some(Dir::Vertical), v_base);
        }
        if y > window.y0 {
            relax(i - w, layer, x, y - 1, Some(Dir::Vertical), v_base);
        }
        if layer < top {
            relax(i + layer_cells, layer + 1, x, y, None, beta);
        }
        if layer > 0 {
            relax(i - layer_cells, layer - 1, x, y, None, beta);
        }
    }
    (None, stats)
}

/// Preferred routing direction per layer: M1 horizontal, M2 vertical, M3
/// horizontal, alternating upward.
#[must_use]
pub fn preferred_dir(layer: sadp_geom::Layer) -> Dir {
    if layer.0.is_multiple_of(2) {
        Dir::Horizontal
    } else {
        Dir::Vertical
    }
}

fn search_window(req: &AstarRequest<'_>) -> TrackRect {
    let plane = req.plane;
    let mut rect: Option<TrackRect> = None;
    for p in req.sources.iter().chain(req.targets) {
        let cell = TrackRect::cell(p.x, p.y);
        rect = Some(match rect {
            Some(r) => r.union_bbox(&cell),
            None => cell,
        });
    }
    let r = rect
        .expect("pins exist")
        .expanded(req.config.search_margin)
        .intersection(&TrackRect::new(0, 0, plane.width() - 1, plane.height() - 1));
    r.unwrap_or_else(|| TrackRect::new(0, 0, plane.width() - 1, plane.height() - 1))
}

/// Counts the type 2-b scenarios that occupying `q` while running along
/// `axis` would create with routed nets (the `T2b(j)` of eq. (5)) by
/// probing the plane and the hints of `q`'s four neighbours:
///
/// * a routed wire one track *ahead* running perpendicular to us — our tip
///   would face its side,
/// * a routed wire one track to the *side* running perpendicular to us —
///   its tip would face our side.
///
/// The search reads the same number from [`DirGrid`]'s neighbour counts;
/// this direct count is their oracle, in the tests and in the debug
/// assertion on every priced step.
fn t2b_count(plane: &RoutingPlane, dir_map: &DirGrid, net: NetId, q: GridPoint, axis: Dir) -> u64 {
    let mut count = 0;
    let neighbors: [(i32, i32); 4] = [(1, 0), (-1, 0), (0, 1), (0, -1)];
    for (dx, dy) in neighbors {
        let n = GridPoint::new(q.layer, q.x + dx, q.y + dy);
        let Some(occ) = plane.occupant(n) else {
            continue;
        };
        if occ == net {
            continue;
        }
        let Some(neighbor_axis) = dir_map.get(n) else {
            continue;
        };
        let approach = if dx != 0 {
            Dir::Horizontal
        } else {
            Dir::Vertical
        };
        if approach == axis {
            // The neighbour is ahead of or behind us along our axis: our
            // tip faces it. 2-b if it runs perpendicular to us.
            if neighbor_axis != axis {
                count += 1;
            }
        } else {
            // The neighbour is beside us: 2-b if its wire runs toward us
            // (perpendicular to our axis), i.e. its tip faces our side.
            if neighbor_axis == approach {
                count += 1;
            }
        }
    }
    count
}

/// Computes `layers * width * height` and checks it fits the packed
/// 32-bit cell indices. Kept separate from [`SearchScratch::try_new`] so
/// the limit is testable from raw dimensions without allocating tens of
/// gigabytes of scratch state. The product is taken in `u128`:
/// `RoutingPlane` itself admits planes of up to 2^33 cells, which would
/// already overflow a 32-bit (and on some targets a pathological
/// intermediate) multiply.
fn checked_cell_count(layers: u8, width: i32, height: i32) -> Result<usize, RouterError> {
    let cells = layers as u128 * width as u128 * height as u128;
    if cells >= u32::MAX as u128 {
        return Err(RouterError::PlaneTooLarge { cells });
    }
    Ok(cells as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sadp_geom::{DesignRules, Layer, Step};

    fn plane(w: i32, h: i32) -> RoutingPlane {
        RoutingPlane::new(3, w, h, DesignRules::node_10nm()).expect("valid")
    }

    /// Empty penalty, guard and hint grids for one plane, and the paper's
    /// config: the views of a search on an unrouted plane.
    struct Empty {
        penalties: PenaltyGrid,
        guards: GuardGrid,
        dir_map: DirGrid,
        config: RouterConfig,
    }

    impl Empty {
        fn new(plane: &RoutingPlane) -> Empty {
            Empty {
                penalties: PenaltyGrid::new(plane, 0),
                guards: GuardGrid::new(plane),
                dir_map: DirGrid::new(plane),
                config: RouterConfig::paper_defaults(),
            }
        }

        /// Net 0's search from `sources` to `targets` on `plane`.
        fn request<'a>(
            &'a self,
            plane: &'a RoutingPlane,
            sources: &'a [GridPoint],
            targets: &'a [GridPoint],
        ) -> AstarRequest<'a> {
            AstarRequest {
                plane,
                dir_map: &self.dir_map,
                guards: &self.guards,
                penalties: &self.penalties,
                config: &self.config,
                net: NetId(0),
                sources,
                targets,
            }
        }
    }

    fn search(
        plane: &RoutingPlane,
        from: GridPoint,
        to: GridPoint,
    ) -> (Option<RoutePath>, SearchStats) {
        fresh_search(&Empty::new(plane).request(plane, &[from], &[to]))
    }

    /// One unbudgeted search on throwaway scratch.
    fn fresh_search(req: &AstarRequest<'_>) -> (Option<RoutePath>, SearchStats) {
        let mut scratch = SearchScratch::new(req.plane);
        astar_search(req, &mut scratch, &mut Budget::unlimited())
    }

    #[test]
    fn straight_route() {
        let p = plane(32, 32);
        let (path, stats) = search(
            &p,
            GridPoint::new(Layer(0), 2, 5),
            GridPoint::new(Layer(0), 12, 5),
        );
        let path = path.expect("path found");
        assert!(!stats.budget_exceeded);
        assert_eq!(path.wirelength(), 10);
        assert_eq!(path.via_count(), 0);
        assert_eq!(path.source(), GridPoint::new(Layer(0), 2, 5));
        assert_eq!(path.target(), GridPoint::new(Layer(0), 12, 5));
    }

    #[test]
    fn detours_around_blockage() {
        let mut p = plane(32, 32);
        p.add_blockage(Layer(0), TrackRect::new(6, 0, 6, 31));
        // Layer 0 is fully walled: the router must via up and back down.
        let (path, _) = search(
            &p,
            GridPoint::new(Layer(0), 2, 5),
            GridPoint::new(Layer(0), 12, 5),
        );
        let path = path.expect("path found");
        assert!(path.via_count() >= 2);
    }

    #[test]
    fn unreachable_returns_none() {
        let mut p = plane(16, 16);
        for l in 0..3 {
            p.add_blockage(Layer(l), TrackRect::new(6, 0, 6, 15));
        }
        let (path, stats) = search(
            &p,
            GridPoint::new(Layer(0), 2, 5),
            GridPoint::new(Layer(0), 12, 5),
        );
        assert!(path.is_none());
        assert!(!stats.budget_exceeded);
        assert!(stats.expanded > 0);
    }

    #[test]
    fn multi_candidate_picks_cheapest_pair() {
        let p = plane(32, 32);
        let (path, _) = fresh_search(&Empty::new(&p).request(
            &p,
            &[
                GridPoint::new(Layer(0), 0, 0),
                GridPoint::new(Layer(0), 10, 10),
            ],
            &[
                GridPoint::new(Layer(0), 30, 30),
                GridPoint::new(Layer(0), 12, 10),
            ],
        ));
        let path = path.expect("path found");
        assert_eq!(path.source(), GridPoint::new(Layer(0), 10, 10));
        assert_eq!(path.target(), GridPoint::new(Layer(0), 12, 10));
        assert_eq!(path.wirelength(), 2);
    }

    #[test]
    fn penalties_steer_the_route() {
        let p = plane(32, 32);
        let mut penalties = PenaltyGrid::new(&p, 0);
        // Penalise the straight row so the path must leave it.
        for x in 3..12 {
            penalties.set(GridPoint::new(Layer(0), x, 5), 50_000u64);
        }
        let empty = Empty::new(&p);
        let (path, _) = fresh_search(&AstarRequest {
            penalties: &penalties,
            ..empty.request(
                &p,
                &[GridPoint::new(Layer(0), 2, 5)],
                &[GridPoint::new(Layer(0), 12, 5)],
            )
        });
        let path = path.expect("path found");
        assert!(
            path.wirelength() > 10 || path.via_count() > 0,
            "path should avoid the penalised row: {path}"
        );
    }

    #[test]
    fn t2b_penalty_avoids_tip_to_side() {
        // A routed vertical wire whose tip points at the straight row the
        // new net would take: with the gamma penalty the router prefers a
        // small detour over the 2-b scenario.
        let mut p = plane(32, 32);
        let mut dir_map = DirGrid::new(&p);
        for y in 7..12 {
            let c = GridPoint::new(Layer(0), 7, y);
            p.occupy(c, NetId(9)).unwrap();
            dir_map.set(c, Dir::Vertical);
        }
        // Tip at (7,7); the straight row y=6 passes right under it.
        let empty = Empty::new(&p);
        let (from, to) = (
            [GridPoint::new(Layer(0), 2, 6)],
            [GridPoint::new(Layer(0), 12, 6)],
        );
        let req = AstarRequest {
            dir_map: &dir_map,
            ..empty.request(&p, &from, &to)
        };
        let mut cheap = RouterConfig::paper_defaults();
        cheap.gamma = 0.0;
        let (path_free, _) = fresh_search(&AstarRequest {
            config: &cheap,
            ..req
        });
        let expensive = RouterConfig {
            gamma: 100.0,
            ..RouterConfig::paper_defaults()
        };
        let (path_avoid, _) = fresh_search(&AstarRequest {
            config: &expensive,
            ..req
        });
        let free = path_free.expect("found");
        let avoid = path_avoid.expect("found");
        // Without the penalty the straight row (through the 2-b cell) wins.
        assert_eq!(free.wirelength(), 10);
        // With the penalty the path never *enters* (7,6) horizontally (the
        // move eq. (5) charges for); a vertical entry forms a 1-b
        // (merge-and-cut) relation instead, which is free of side overlay.
        let pts = avoid.points();
        if let Some(i) = pts
            .iter()
            .position(|&p| p == GridPoint::new(Layer(0), 7, 6))
        {
            assert!(i > 0);
            let prev = pts[i - 1];
            assert_eq!(prev.x, 7, "must not enter the 2-b cell sideways");
        }
    }

    /// `T2b` of a step along `axis` into `q` from the direction map's
    /// neighbour counts, after checking it against the direct count.
    fn t2b_both(p: &RoutingPlane, dm: &DirGrid, q: GridPoint, axis: Dir) -> u64 {
        let direct = t2b_count(p, dm, NetId(0), q, axis);
        assert_eq!(dm.t2b_at(p.index(q), axis), direct, "{q:?} along {axis:?}");
        direct
    }

    #[test]
    fn t2b_count_direct() {
        let mut p = plane(16, 16);
        let mut dm = DirGrid::new(&p);
        // Vertical wire tip just north of (5,5).
        for y in 6..9 {
            let c = GridPoint::new(Layer(0), 5, y);
            p.occupy(c, NetId(1)).unwrap();
            dm.set(c, Dir::Vertical);
        }
        let q = GridPoint::new(Layer(0), 5, 5);
        // Moving horizontally through (5,5): its side faces the tip -> 1.
        assert_eq!(t2b_both(&p, &dm, q, Dir::Horizontal), 1);
        // Moving vertically through (5,5): tip-to-tip (1-b), not 2-b -> 0.
        assert_eq!(t2b_both(&p, &dm, q, Dir::Vertical), 0);
        // A horizontal neighbour beside us while we move horizontally is
        // 1-a (side-side), not 2-b.
        let mut p2 = plane(16, 16);
        let mut dm2 = DirGrid::new(&p2);
        for x in 3..8 {
            let c = GridPoint::new(Layer(0), x, 6);
            p2.occupy(c, NetId(1)).unwrap();
            dm2.set(c, Dir::Horizontal);
        }
        assert_eq!(t2b_both(&p2, &dm2, q, Dir::Horizontal), 0);
        assert_eq!(t2b_both(&p2, &dm2, q, Dir::Vertical), 1);
        // Every cell of every seeded instance, in both axes, including
        // the plane's edges and cells between several hinted wires. The
        // hinted cells there belong to net 7, never to the searching
        // net 0, so the two counts must agree everywhere.
        let mut nonzero = 0;
        for seed in 0..60 {
            let inst = instance(seed);
            for l in 0..3u8 {
                for y in 0..inst.plane.height() {
                    for x in 0..inst.plane.width() {
                        for axis in [Dir::Horizontal, Dir::Vertical] {
                            let q = GridPoint::new(Layer(l), x, y);
                            nonzero +=
                                usize::from(t2b_both(&inst.plane, &inst.dir_map, q, axis) > 0);
                        }
                    }
                }
            }
        }
        assert!(nonzero > 1000, "only {nonzero} cells saw a 2-b neighbour");
    }

    #[test]
    fn scratch_reuse_matches_fresh_search() {
        // The same scratch across several searches must give identical
        // results to throwaway scratch (generation stamping correctness).
        let mut p = plane(24, 24);
        p.add_blockage(Layer(0), TrackRect::new(10, 0, 10, 20));
        let empty = Empty::new(&p);
        let mut scratch = SearchScratch::new(&p);
        for i in 0..6 {
            let from = [GridPoint::new(Layer(0), 2, 2 + i)];
            let to = [GridPoint::new(Layer(0), 20, 3 + i)];
            let req = AstarRequest {
                net: NetId(i as u32),
                ..empty.request(&p, &from, &to)
            };
            let (fresh, fs) = fresh_search(&req);
            let (reused, rs) = astar_search(&req, &mut scratch, &mut Budget::unlimited());
            let fresh = fresh.expect("found");
            let reused = reused.expect("found");
            assert_eq!(fresh.wirelength(), reused.wirelength());
            assert_eq!(fresh.via_count(), reused.via_count());
            assert_eq!(fs.expanded, rs.expanded);
        }
    }

    #[test]
    fn bbox_heuristic_expands_no_more_than_needed_on_open_grid() {
        // On an empty grid the consistent heuristic should drive the
        // search almost straight to the target: the expansion count must
        // stay near the path length, not the window area.
        let p = plane(64, 64);
        let (path, stats) = search(
            &p,
            GridPoint::new(Layer(0), 2, 30),
            GridPoint::new(Layer(0), 60, 30),
        );
        let path = path.expect("found");
        assert_eq!(path.wirelength(), 58);
        assert!(
            stats.expanded <= 4 * 58 + 16,
            "expanded {} nodes for a 58-step straight route",
            stats.expanded
        );
    }

    #[test]
    fn exhausted_budget_stops_the_search() {
        let p = plane(64, 64);
        let empty = Empty::new(&p);
        let (from, to) = (
            [GridPoint::new(Layer(0), 2, 30)],
            [GridPoint::new(Layer(0), 60, 30)],
        );
        let req = empty.request(&p, &from, &to);
        let mut scratch = SearchScratch::new(&p);
        let mut limited = RouterConfig::paper_defaults();
        limited.net_node_budget = 3;
        let mut budget = Budget::for_net(&limited);
        let (path, stats) = astar_search(&req, &mut scratch, &mut budget);
        assert!(path.is_none());
        assert!(stats.budget_exceeded);
        assert!(stats.expanded <= 4);
        // The same search with an unlimited budget still succeeds on the
        // reused scratch (the aborted search left no stale state behind).
        let (path, stats) = astar_search(&req, &mut scratch, &mut Budget::unlimited());
        assert!(path.is_some());
        assert!(!stats.budget_exceeded);
    }

    #[test]
    fn cell_count_within_packed_index_limit_is_ok() {
        assert_eq!(checked_cell_count(3, 64, 64), Ok(3 * 64 * 64));
        // Just under the limit: (2^32 - 2) cells.
        assert_eq!(
            checked_cell_count(2, i32::MAX, 1),
            Ok(2 * (i32::MAX as usize))
        );
    }

    #[test]
    fn cell_count_at_or_above_packed_index_limit_errors() {
        // Exactly u32::MAX cells: the NO_PREV sentinel needs that value.
        let err = checked_cell_count(1, 65_537, 65_535).expect_err("at limit");
        assert_eq!(
            err,
            RouterError::PlaneTooLarge {
                cells: u32::MAX as u128
            }
        );
        // Far above: the product must not wrap.
        let err = checked_cell_count(255, i32::MAX, i32::MAX).expect_err("huge");
        let RouterError::PlaneTooLarge { cells } = err;
        assert_eq!(cells, 255u128 * i32::MAX as u128 * i32::MAX as u128);
        let msg = err.to_string();
        assert!(
            msg.contains("packed"),
            "error should explain the limit: {msg}"
        );
    }

    /// A seeded small instance: blockages, foreign wires with direction
    /// hints (so the γ term fires), penalties, and guards owned by the
    /// routed net or by a foreign one. The target cell always carries a
    /// penalty and a foreign guard.
    struct Instance {
        plane: RoutingPlane,
        dir_map: DirGrid,
        penalties: PenaltyGrid,
        guards: GuardGrid,
        source: GridPoint,
        target: GridPoint,
    }

    fn instance(seed: u64) -> Instance {
        let mut rng = sadp_geom::Rng::seed_from_u64(seed);
        let cfg = RouterConfig::paper_defaults();
        let alpha = cfg.alpha_cost();
        let (w, h) = (rng.range_i32(5..12), rng.range_i32(5..12));
        let mut plane = plane(w, h);
        let mut dir_map = DirGrid::new(&plane);
        let mut penalties = PenaltyGrid::new(&plane, 0);
        let mut guards = GuardGrid::new(&plane);
        let random_cell = |rng: &mut sadp_geom::Rng| {
            GridPoint::new(
                Layer(rng.index(3) as u8),
                rng.range_i32(0..w),
                rng.range_i32(0..h),
            )
        };
        let source = random_cell(&mut rng);
        let target = loop {
            let t = random_cell(&mut rng);
            if t != source {
                break t;
            }
        };
        for l in 0..3u8 {
            for y in 0..h {
                for x in 0..w {
                    let c = GridPoint::new(Layer(l), x, y);
                    if c == source || c == target {
                        continue;
                    }
                    match rng.bounded(100) {
                        0..=9 => plane.add_blockage(Layer(l), TrackRect::new(x, y, x, y)),
                        10..=17 => {
                            plane.occupy(c, NetId(7)).unwrap();
                            let dir = if rng.flip() {
                                Dir::Horizontal
                            } else {
                                Dir::Vertical
                            };
                            dir_map.set(c, dir);
                        }
                        _ => {}
                    }
                    if rng.chance(0.3) {
                        penalties.set(c, rng.bounded(4 * alpha));
                    }
                    if rng.chance(0.2) {
                        let owner = if rng.flip() { NetId(0) } else { NetId(5) };
                        guards.set(c, Some(owner));
                    }
                }
            }
        }
        penalties.set(target, 1 + rng.bounded(16 * alpha));
        guards.set(target, Some(NetId(5)));
        Instance {
            plane,
            dir_map,
            penalties,
            guards,
            source,
            target,
        }
    }

    /// The full eq. (5) cost of entering `q` by `step`, penalty and
    /// foreign guard included: an oracle written apart from the search.
    fn entry_cost(inst: &Instance, cfg: &RouterConfig, q: GridPoint, step: Step) -> u64 {
        let mut cost = match step.axis() {
            Some(axis) => {
                let planar = if axis == preferred_dir(q.layer) {
                    cfg.alpha_cost()
                } else {
                    cfg.wrong_way_cost()
                };
                planar + cfg.gamma_cost() * t2b_count(&inst.plane, &inst.dir_map, NetId(0), q, axis)
            }
            None => cfg.beta_cost(),
        };
        cost += inst.penalties.get(q);
        if inst.guards.get(q).is_some_and(|owner| owner != NetId(0)) {
            cost += cfg.pin_guard_cost();
        }
        cost
    }

    fn path_cost(inst: &Instance, cfg: &RouterConfig, path: &RoutePath) -> u64 {
        path.points()
            .windows(2)
            .map(|w| {
                let step = Step::ALL
                    .into_iter()
                    .find(|&s| w[0].offset(s) == w[1])
                    .expect("contiguous path");
                entry_cost(inst, cfg, w[1], step)
            })
            .sum()
    }

    /// Net 0's search on `inst` from its source to `targets` under `cfg`.
    fn instance_request<'a>(
        inst: &'a Instance,
        targets: &'a [GridPoint],
        cfg: &'a RouterConfig,
    ) -> AstarRequest<'a> {
        AstarRequest {
            plane: &inst.plane,
            dir_map: &inst.dir_map,
            guards: &inst.guards,
            penalties: &inst.penalties,
            config: cfg,
            net: NetId(0),
            sources: std::slice::from_ref(&inst.source),
            targets,
        }
    }

    /// Brute-force Dijkstra over the search window: the cheapest full
    /// cost from `source` to any of `targets`.
    fn dijkstra(inst: &Instance, cfg: &RouterConfig, targets: &[GridPoint]) -> Option<u64> {
        use std::cmp::Reverse;
        use std::collections::{BinaryHeap, HashMap};
        let window = search_window(&instance_request(inst, targets, cfg));
        let mut dist: HashMap<GridPoint, u64> = HashMap::from([(inst.source, 0)]);
        let mut heap = BinaryHeap::from([Reverse((0u64, inst.source))]);
        while let Some(Reverse((d, p))) = heap.pop() {
            if dist[&p] < d {
                continue;
            }
            for step in Step::ALL {
                let q = p.offset(step);
                let in_window = q.layer.0 < inst.plane.layers() && window.contains_cell(q.x, q.y);
                let open = inst.plane.is_free(q) || inst.plane.occupant(q) == Some(NetId(0));
                if !in_window || !open {
                    continue;
                }
                let nd = d + entry_cost(inst, cfg, q, step);
                if dist.get(&q).is_none_or(|&old| nd < old) {
                    dist.insert(q, nd);
                    heap.push(Reverse((nd, q)));
                }
            }
        }
        targets.iter().filter_map(|t| dist.get(t).copied()).min()
    }

    fn search_instance(
        inst: &Instance,
        targets: &[GridPoint],
        cfg: &RouterConfig,
    ) -> (Option<RoutePath>, SearchStats) {
        fresh_search(&instance_request(inst, targets, cfg))
    }

    #[test]
    fn a_lone_targets_penalty_and_guard_change_neither_path_nor_work() {
        let cfg = RouterConfig::paper_defaults();
        let (mut routed, mut steered) = (0, 0);
        for seed in 0..300 {
            let mut inst = instance(seed);
            let target = inst.target;
            let (base, base_stats) = search_instance(&inst, &[target], &cfg);
            for (penalty, guard) in [
                (0, None),
                (1_000_000, Some(NetId(5))),
                (inst.penalties.get(target), Some(NetId(0))),
            ] {
                inst.penalties.set(target, penalty);
                inst.guards.set(target, guard);
                let (path, stats) = search_instance(&inst, &[target], &cfg);
                assert_eq!(path, base, "seed {seed}: path changed");
                assert_eq!(stats, base_stats, "seed {seed}: work changed");
            }
            if let Some(path) = &base {
                routed += 1;
                let straight = path.wirelength() as i64
                    == i64::from(
                        (target.x - inst.source.x).abs() + (target.y - inst.source.y).abs(),
                    );
                steered += usize::from(!straight || path.via_count() > 0);
            }
        }
        // Non-vacuity: most instances route, and penalties, guards and
        // blockages bend a good share of the routes.
        assert!(routed >= 200, "only {routed} of 300 instances routed");
        assert!(steered >= 50, "only {steered} routes left the bounding box");
    }

    #[test]
    fn returned_paths_cost_the_brute_force_optimum() {
        let cfg = RouterConfig::paper_defaults();
        let mut checked = 0;
        for seed in 0..300 {
            let inst = instance(seed);
            let mut rng = sadp_geom::Rng::seed_from_u64(seed ^ 0x5eed);
            let other = GridPoint::new(
                Layer(rng.index(3) as u8),
                rng.range_i32(0..inst.plane.width()),
                rng.range_i32(0..inst.plane.height()),
            );
            for targets in [vec![inst.target], vec![inst.target, other]] {
                let (path, _) = search_instance(&inst, &targets, &cfg);
                let optimum = dijkstra(&inst, &cfg, &targets);
                assert_eq!(
                    path.as_ref().map(|p| path_cost(&inst, &cfg, p)),
                    optimum,
                    "seed {seed}, targets {targets:?}"
                );
                checked += usize::from(optimum.is_some());
            }
        }
        assert!(checked >= 400, "only {checked} searches found a path");
    }

    #[test]
    fn with_two_targets_a_charged_target_loses_at_equal_distance() {
        let p = plane(24, 24);
        let empty = Empty::new(&p);
        let cfg = &empty.config;
        let mut rng = sadp_geom::Rng::seed_from_u64(11);
        for _ in 0..40 {
            let (x, y, d) = (
                rng.range_i32(8..16),
                rng.range_i32(0..24),
                rng.range_i32(1..8),
            );
            let source = GridPoint::new(Layer(0), x, y);
            let west = GridPoint::new(Layer(0), x - d, y);
            let east = GridPoint::new(Layer(0), x + d, y);
            for (charged, free) in [(west, east), (east, west)] {
                let mut penalties = PenaltyGrid::new(&p, 0);
                let mut guards = GuardGrid::new(&p);
                if rng.flip() {
                    penalties.set(charged, 1 + rng.bounded(cfg.alpha_cost()));
                } else {
                    guards.set(charged, Some(NetId(5)));
                }
                for targets in [[west, east], [east, west]] {
                    let (path, _) = fresh_search(&AstarRequest {
                        penalties: &penalties,
                        guards: &guards,
                        ..empty.request(&p, &[source], &targets)
                    });
                    assert_eq!(path.expect("open plane").target(), free);
                }
            }
        }
    }
}
