//! Dense per-cell grids for the routing hot path.
//!
//! The router and the A\* search used to keep per-cell state (g-costs,
//! came-from links, penalties, pin guards, preferred directions) in
//! `HashMap<GridPoint, _>` tables. On large circuits the hash lookups in
//! the innermost expansion loop dominated the runtime and pushed the
//! Fig. 20 scaling towards quadratic. Every grid here stores one slot per
//! grid cell, indexed by the same `(layer * height + y) * width + x`
//! linearisation the [`RoutingPlane`] uses, so a lookup is one
//! multiply-add and one array read — or, from the search's raw-index
//! neighbour walk, just the array read.
//!
//! The grids clear in two ways. The rip-up penalties are reset before
//! every net, and a fill of the whole grid per net would cost more than
//! the search itself, so the [`PenaltyGrid`] carries generation stamps:
//! [`DenseGrid::clear`] bumps the generation counter in `O(1)` and a slot
//! whose stamp is stale reads as the default value. The [`DirGrid`] and
//! the [`GuardGrid`] hold state for a whole run, so they carry no stamps
//! and are refilled only when a run starts on a reused workspace.

use sadp_geom::{Dir, GridPoint};
use sadp_grid::{NetId, RoutingPlane};

/// The dimensions of a plane, and the cell linearisation all grids share.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Shape {
    width: i32,
    height: i32,
    layers: u8,
}

impl Shape {
    fn of(plane: &RoutingPlane) -> Shape {
        Shape {
            width: plane.width(),
            height: plane.height(),
            layers: plane.layers(),
        }
    }

    fn cells(self) -> usize {
        self.layers as usize * self.height as usize * self.width as usize
    }

    fn contains(self, p: GridPoint) -> bool {
        p.layer.index() < self.layers as usize
            && (0..self.width).contains(&p.x)
            && (0..self.height).contains(&p.y)
    }

    #[inline]
    fn index(self, p: GridPoint) -> usize {
        debug_assert!(self.contains(p), "point {p:?} outside the grid");
        (p.layer.index() * self.height as usize + p.y as usize) * self.width as usize + p.x as usize
    }
}

/// A dense per-cell store with `O(1)` epoch-based clearing.
#[derive(Debug, Clone)]
pub struct DenseGrid<T: Copy> {
    shape: Shape,
    default: T,
    slots: Vec<T>,
    stamps: Vec<u32>,
    generation: u32,
}

impl<T: Copy> DenseGrid<T> {
    /// Builds a grid shaped like `plane`, with every cell reading as
    /// `default` until written.
    pub fn new(plane: &RoutingPlane, default: T) -> Self {
        let shape = Shape::of(plane);
        Self {
            shape,
            default,
            slots: vec![default; shape.cells()],
            stamps: vec![0; shape.cells()],
            generation: 1,
        }
    }

    /// Resets every cell to the default in `O(1)`.
    pub fn clear(&mut self) {
        self.generation = match self.generation.checked_add(1) {
            Some(g) => g,
            None => {
                self.stamps.fill(0);
                1
            }
        };
    }

    /// True if `p` lies inside the grid (and thus may be read or
    /// written). Out-of-grid points come from seed penalties recorded
    /// against a previous, larger plane.
    #[inline]
    #[must_use]
    pub fn contains(&self, p: GridPoint) -> bool {
        self.shape.contains(p)
    }

    #[inline]
    pub fn get(&self, p: GridPoint) -> T {
        self.get_at(self.shape.index(p))
    }

    /// The value of the cell at plane index `i`.
    #[inline]
    pub(crate) fn get_at(&self, i: usize) -> T {
        if self.stamps[i] == self.generation {
            self.slots[i]
        } else {
            self.default
        }
    }

    #[inline]
    pub fn set(&mut self, p: GridPoint, value: T) {
        let i = self.shape.index(p);
        self.stamps[i] = self.generation;
        self.slots[i] = value;
    }

    /// Read-modify-write in one index computation.
    #[inline]
    pub fn update(&mut self, p: GridPoint, f: impl FnOnce(T) -> T) {
        let i = self.shape.index(p);
        let old = self.get_at(i);
        self.stamps[i] = self.generation;
        self.slots[i] = f(old);
    }
}

/// Extra grid-cost milli-units added by rip-up (`penalize`).
pub type PenaltyGrid = DenseGrid<u64>;

/// The owner stored in a [`GuardGrid`] cell no net has claimed. Never a
/// net id: a netlist holds fewer than `u32::MAX - 1` nets.
const UNCLAIMED: u32 = u32::MAX;

/// Pin-guard ownership per cell: the net whose soft keep-out halo covers
/// it, if any. Every guard charges the same
/// [`RouterConfig::pin_guard_cost`](crate::RouterConfig::pin_guard_cost),
/// so the owner is all a cell needs to store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GuardGrid {
    shape: Shape,
    owners: Vec<u32>,
}

impl GuardGrid {
    /// Builds a grid shaped like `plane` with no cell claimed.
    #[must_use]
    pub fn new(plane: &RoutingPlane) -> Self {
        let shape = Shape::of(plane);
        Self {
            shape,
            owners: vec![UNCLAIMED; shape.cells()],
        }
    }

    /// Releases every claim (`O(cells)`; done once per run).
    pub fn clear(&mut self) {
        self.owners.fill(UNCLAIMED);
    }

    /// True if `p` lies inside the grid.
    #[inline]
    #[must_use]
    pub fn contains(&self, p: GridPoint) -> bool {
        self.shape.contains(p)
    }

    /// The net whose guard covers `p`, if any.
    #[must_use]
    pub fn get(&self, p: GridPoint) -> Option<NetId> {
        let owner = self.owners[self.shape.index(p)];
        (owner != UNCLAIMED).then_some(NetId(owner))
    }

    /// Claims `p` for `owner`, or releases it with `None`.
    pub fn set(&mut self, p: GridPoint, owner: Option<NetId>) {
        let i = self.shape.index(p);
        self.owners[i] = owner.map_or(UNCLAIMED, |id| id.0);
    }

    /// Whether the cell at plane index `i` is guarded for a net other
    /// than `net`: the cells whose entry pays the guard cost.
    #[inline]
    pub(crate) fn foreign_at(&self, i: usize, net: NetId) -> bool {
        let owner = self.owners[i];
        owner != net.0 && owner != UNCLAIMED
    }

    /// Every cell's owner, in index order.
    pub fn owners(&self) -> impl Iterator<Item = Option<NetId>> + '_ {
        self.owners
            .iter()
            .map(|&o| (o != UNCLAIMED).then_some(NetId(o)))
    }
}

/// The committed preferred routing direction per cell (`None` =
/// unrouted), plus, for every cell, the `T2b` term of eq. (5) for a
/// planar step into it.
///
/// `T2b(q, axis)` counts the 4-neighbours of `q` whose hint makes a type
/// 2-b scenario with a wire through `q` along `axis`. A neighbour ahead
/// or behind along `axis` counts when its wire runs perpendicular (our
/// tip faces its side); a neighbour beside us counts when its wire runs
/// toward us (its tip faces our side), i.e. also perpendicular to
/// `axis`. So `T2b(q, Horizontal)` is the number of vertically hinted
/// neighbours and `T2b(q, Vertical)` the number of horizontally hinted
/// ones. [`DirGrid::set`] and [`DirGrid::remove`] keep both counts of the
/// four neighbours up to date, so the search reads the term in one byte.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirGrid {
    shape: Shape,
    hints: Vec<Option<Dir>>,
    /// Per cell: the number of vertically hinted 4-neighbours in the low
    /// nibble, of horizontally hinted ones in the high nibble (each ≤ 4).
    t2b: Vec<u8>,
}

/// The nibble of [`DirGrid::t2b`] that counts neighbours hinted `hint`
/// (low for vertical, high for horizontal), as a shift.
#[inline]
fn count_shift(hint: Dir) -> u32 {
    match hint {
        Dir::Vertical => 0,
        Dir::Horizontal => 4,
    }
}

impl DirGrid {
    /// Builds a grid shaped like `plane` with no cell hinted.
    #[must_use]
    pub fn new(plane: &RoutingPlane) -> Self {
        let shape = Shape::of(plane);
        Self {
            shape,
            hints: vec![None; shape.cells()],
            t2b: vec![0; shape.cells()],
        }
    }

    /// Removes every hint (`O(cells)`; done once per run).
    pub fn clear(&mut self) {
        self.hints.fill(None);
        self.t2b.fill(0);
    }

    /// The hint at `p`.
    #[must_use]
    pub fn get(&self, p: GridPoint) -> Option<Dir> {
        self.hints[self.shape.index(p)]
    }

    /// Hints `p` with `axis`, replacing any hint it had.
    pub fn set(&mut self, p: GridPoint, axis: Dir) {
        self.replace(p, Some(axis));
    }

    /// Removes the hint at `p`, if any.
    pub fn remove(&mut self, p: GridPoint) {
        self.replace(p, None);
    }

    fn replace(&mut self, p: GridPoint, hint: Option<Dir>) {
        let i = self.shape.index(p);
        let old = std::mem::replace(&mut self.hints[i], hint);
        if old == hint {
            return;
        }
        let (w, h) = (self.shape.width, self.shape.height);
        let neighbours = [
            (p.x > 0).then(|| i - 1),
            (p.x + 1 < w).then(|| i + 1),
            (p.y > 0).then(|| i - w as usize),
            (p.y + 1 < h).then(|| i + w as usize),
        ];
        for n in neighbours.into_iter().flatten() {
            if let Some(old) = old {
                self.t2b[n] -= 1 << count_shift(old);
            }
            if let Some(new) = hint {
                self.t2b[n] += 1 << count_shift(new);
            }
        }
    }

    /// `T2b` of a step along `axis` into the cell at plane index `i`:
    /// its 4-neighbours hinted perpendicular to `axis`. Equals the
    /// plane-probing count whenever every hinted cell is occupied by a
    /// net other than the one searching, which holds for committed
    /// routes: hints are published on commit and removed on unroute.
    #[inline]
    pub(crate) fn t2b_at(&self, i: usize, axis: Dir) -> u64 {
        u64::from((self.t2b[i] >> count_shift(axis.perpendicular())) & 0xF)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sadp_geom::{DesignRules, Layer, Rng};

    fn plane() -> RoutingPlane {
        RoutingPlane::new(2, 8, 6, DesignRules::node_10nm()).unwrap()
    }

    fn p(l: u8, x: i32, y: i32) -> GridPoint {
        GridPoint::new(Layer(l), x, y)
    }

    #[test]
    fn reads_default_until_written() {
        let mut g = PenaltyGrid::new(&plane(), 0);
        assert_eq!(g.get(p(1, 7, 5)), 0);
        g.set(p(1, 7, 5), 42);
        assert_eq!(g.get(p(1, 7, 5)), 42);
        assert_eq!(g.get(p(0, 7, 5)), 0);
    }

    #[test]
    fn clear_is_epoch_based() {
        let mut g = PenaltyGrid::new(&plane(), 0);
        for x in 0..8 {
            g.set(p(0, x, 0), x as u64 + 1);
        }
        g.clear();
        for x in 0..8 {
            assert_eq!(g.get(p(0, x, 0)), 0);
        }
        g.set(p(0, 3, 0), 9);
        assert_eq!(g.get(p(0, 3, 0)), 9);
    }

    #[test]
    fn update_accumulates() {
        let mut g = PenaltyGrid::new(&plane(), 0);
        g.update(p(0, 1, 1), |v| v + 10);
        g.update(p(0, 1, 1), |v| v + 10);
        assert_eq!(g.get(p(0, 1, 1)), 20);
    }

    #[test]
    fn remove_restores_default() {
        let mut g = DirGrid::new(&plane());
        g.set(p(0, 2, 2), Dir::Horizontal);
        g.remove(p(0, 2, 2));
        assert_eq!(g.get(p(0, 2, 2)), None);
        assert_eq!(g, DirGrid::new(&plane()));
    }

    #[test]
    fn generation_wraparound_survives() {
        let mut g = PenaltyGrid::new(&plane(), 7);
        g.set(p(0, 0, 0), 1);
        g.generation = u32::MAX;
        g.set(p(0, 1, 0), 2);
        g.clear();
        assert_eq!(g.generation, 1);
        assert_eq!(g.get(p(0, 0, 0)), 7);
        assert_eq!(g.get(p(0, 1, 0)), 7);
    }

    #[test]
    fn guard_grid_claims_and_releases() {
        let mut g = GuardGrid::new(&plane());
        assert_eq!(g.get(p(0, 0, 0)), None);
        g.set(p(1, 3, 2), Some(NetId(4)));
        assert_eq!(g.get(p(1, 3, 2)), Some(NetId(4)));
        let i = g.shape.index(p(1, 3, 2));
        assert!(g.foreign_at(i, NetId(5)));
        assert!(!g.foreign_at(i, NetId(4)));
        assert!(
            !g.foreign_at(0, NetId(5)),
            "an unclaimed cell charges no one"
        );
        g.set(p(1, 3, 2), None);
        assert_eq!(g, GuardGrid::new(&plane()));
        g.set(p(0, 1, 1), Some(NetId(0)));
        g.clear();
        assert!(g.owners().all(|o| o.is_none()));
    }

    /// Both `T2b` counts of every cell, recounted from the hints alone.
    fn recount(g: &DirGrid) -> Vec<(u64, u64)> {
        let s = g.shape;
        let mut out = Vec::with_capacity(s.cells());
        for l in 0..s.layers {
            for y in 0..s.height {
                for x in 0..s.width {
                    let mut count = [0u64; 2];
                    for (dx, dy) in [(1, 0), (-1, 0), (0, 1), (0, -1)] {
                        let n = p(l, x + dx, y + dy);
                        match s.contains(n).then(|| g.get(n)).flatten() {
                            Some(Dir::Vertical) => count[0] += 1,
                            Some(Dir::Horizontal) => count[1] += 1,
                            None => {}
                        }
                    }
                    out.push((count[0], count[1]));
                }
            }
        }
        out
    }

    fn counts(g: &DirGrid) -> Vec<(u64, u64)> {
        (0..g.shape.cells())
            .map(|i| (g.t2b_at(i, Dir::Horizontal), g.t2b_at(i, Dir::Vertical)))
            .collect()
    }

    #[test]
    fn t2b_counts_match_a_recount_after_random_edits() {
        let shape = plane();
        let (w, h) = (shape.width(), shape.height());
        let mut rng = Rng::seed_from_u64(30);
        let mut g = DirGrid::new(&shape);
        let (mut edge_edits, mut overwrites, mut nonzero) = (0, 0, 0);
        for round in 0..4000 {
            // Bias towards the border rows and columns so the clipped
            // neighbourhoods of edge and corner cells see many edits.
            let coord = |rng: &mut Rng, n: i32| {
                if rng.flip() {
                    [0, n - 1][rng.index(2)]
                } else {
                    rng.range_i32(0..n)
                }
            };
            let c = p(rng.index(2) as u8, coord(&mut rng, w), coord(&mut rng, h));
            edge_edits += usize::from(c.x == 0 || c.y == 0 || c.x == w - 1 || c.y == h - 1);
            match rng.bounded(3) {
                0 => g.remove(c),
                _ => {
                    let axis = if rng.flip() {
                        Dir::Horizontal
                    } else {
                        Dir::Vertical
                    };
                    overwrites += usize::from(g.get(c).is_some_and(|old| old != axis));
                    g.set(c, axis);
                }
            }
            if round % 97 == 0 {
                let now = counts(&g);
                assert_eq!(now, recount(&g), "after edit {round}");
                nonzero += now.iter().filter(|&&(a, b)| a + b > 0).count();
            }
        }
        assert_eq!(counts(&g), recount(&g));
        assert!(edge_edits > 1000 && overwrites > 300 && nonzero > 0);
        g.clear();
        assert!(counts(&g).iter().all(|&c| c == (0, 0)));
    }

    #[test]
    fn l_corner_hinted_by_two_fragments_counts_its_last_axis() {
        // An L route: a horizontal fragment along y = 0 and a vertical
        // one up x = 3, both covering the corner (3, 0). The corner keeps
        // the axis published last, and so do its neighbours' counts.
        let mut g = DirGrid::new(&plane());
        for x in 0..=3 {
            g.set(p(0, x, 0), Dir::Horizontal);
        }
        for y in 0..=3 {
            g.set(p(0, 3, y), Dir::Vertical);
        }
        assert_eq!(g.get(p(0, 3, 0)), Some(Dir::Vertical));
        assert_eq!(counts(&g), recount(&g));
        // (4, 0) sits beside the corner at the plane's bottom edge.
        let east = g.shape.index(p(0, 4, 0));
        assert_eq!(g.t2b_at(east, Dir::Horizontal), 1);
        assert_eq!(g.t2b_at(east, Dir::Vertical), 0);
        // Ripping the route up fragment by fragment (the corner removed
        // twice) leaves nothing behind.
        for x in 0..=3 {
            g.remove(p(0, x, 0));
        }
        for y in 0..=3 {
            g.remove(p(0, 3, y));
        }
        assert_eq!(g, DirGrid::new(&plane()));
    }
}
