//! Generation-stamped dense per-cell grids for the routing hot path.
//!
//! The router and the A\* search used to keep per-cell state (g-costs,
//! came-from links, penalties, pin guards, preferred directions) in
//! `HashMap<GridPoint, _>` tables. On large circuits the hash lookups in
//! the innermost expansion loop dominated the runtime and pushed the
//! Fig. 20 scaling towards quadratic. A [`DenseGrid`] stores one slot per
//! grid cell, indexed by the same `(layer * height + y) * width + x`
//! linearisation the [`RoutingPlane`] uses, so a
//! lookup is one multiply-add and one array read.
//!
//! Clearing a dense grid between nets would itself be `O(cells)` — worse
//! than the hash maps it replaces — so every slot carries a generation
//! stamp: [`DenseGrid::clear`] bumps the generation counter and a slot
//! whose stamp is stale reads as the default value. A full rewrite of the
//! stamp vector only happens on the (never in practice) generation
//! wrap-around.

use sadp_geom::{Dir, GridPoint};
use sadp_grid::{NetId, RoutingPlane};

/// A dense per-cell store with `O(1)` epoch-based clearing.
#[derive(Debug, Clone)]
pub struct DenseGrid<T: Copy> {
    width: i32,
    height: i32,
    layers: u8,
    default: T,
    slots: Vec<T>,
    stamps: Vec<u32>,
    generation: u32,
}

impl<T: Copy> DenseGrid<T> {
    /// Builds a grid shaped like `plane`, with every cell reading as
    /// `default` until written.
    pub fn new(plane: &RoutingPlane, default: T) -> Self {
        let cells = plane.layers() as usize * plane.height() as usize * plane.width() as usize;
        Self {
            width: plane.width(),
            height: plane.height(),
            layers: plane.layers(),
            default,
            slots: vec![default; cells],
            stamps: vec![0; cells],
            generation: 1,
        }
    }

    /// True if this grid matches the plane's dimensions (used to decide
    /// whether a cached grid can be reused by the next run).
    pub fn fits(&self, plane: &RoutingPlane) -> bool {
        self.width == plane.width()
            && self.height == plane.height()
            && self.layers == plane.layers()
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
        p.layer.index() < self.layers as usize
            && (0..self.width).contains(&p.x)
            && (0..self.height).contains(&p.y)
    }

    #[inline]
    fn index(&self, p: GridPoint) -> usize {
        debug_assert!(
            p.layer.index() < self.layers as usize
                && (0..self.width).contains(&p.x)
                && (0..self.height).contains(&p.y),
            "point {p:?} outside the grid"
        );
        (p.layer.index() * self.height as usize + p.y as usize) * self.width as usize + p.x as usize
    }

    #[inline]
    pub fn get(&self, p: GridPoint) -> T {
        let i = self.index(p);
        if self.stamps[i] == self.generation {
            self.slots[i]
        } else {
            self.default
        }
    }

    #[inline]
    pub fn set(&mut self, p: GridPoint, value: T) {
        let i = self.index(p);
        self.stamps[i] = self.generation;
        self.slots[i] = value;
    }

    /// Read-modify-write in one index computation.
    #[inline]
    pub fn update(&mut self, p: GridPoint, f: impl FnOnce(T) -> T) {
        let i = self.index(p);
        let old = if self.stamps[i] == self.generation {
            self.slots[i]
        } else {
            self.default
        };
        self.stamps[i] = self.generation;
        self.slots[i] = f(old);
    }

    /// Every cell's value, in index order.
    pub fn values(&self) -> impl Iterator<Item = T> + '_ {
        self.slots.iter().zip(&self.stamps).map(|(&v, &s)| {
            if s == self.generation {
                v
            } else {
                self.default
            }
        })
    }

    /// Removes a single cell's value (it reads as the default again).
    #[inline]
    pub fn remove(&mut self, p: GridPoint) {
        let i = self.index(p);
        self.slots[i] = self.default;
        self.stamps[i] = self.generation;
    }
}

/// Grids are equal when they have the same shape and default and every
/// cell reads the same, whatever the generation stamps behind the reads.
impl<T: Copy + PartialEq> PartialEq for DenseGrid<T> {
    fn eq(&self, other: &DenseGrid<T>) -> bool {
        (self.width, self.height, self.layers) == (other.width, other.height, other.layers)
            && self.default == other.default
            && self.values().eq(other.values())
    }
}

/// Extra grid-cost milli-units added by rip-up (`penalize`).
pub type PenaltyGrid = DenseGrid<u64>;

/// Pin-guard ownership: `(owner net, penalty)`; [`NO_GUARD`] = no guard.
pub type GuardGrid = DenseGrid<(NetId, u64)>;

/// No-guard sentinel for [`GuardGrid`] cells.
pub const NO_GUARD: (NetId, u64) = (NetId(u32::MAX), 0);

/// Committed preferred routing direction per cell (`None` = unrouted).
pub type DirGrid = DenseGrid<Option<Dir>>;

#[cfg(test)]
mod tests {
    use super::*;
    use sadp_geom::{DesignRules, Layer};

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
        let mut g = DirGrid::new(&plane(), None);
        g.set(p(0, 2, 2), Some(Dir::Horizontal));
        g.remove(p(0, 2, 2));
        assert_eq!(g.get(p(0, 2, 2)), None);
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
    fn guard_grid_sentinel() {
        let g = GuardGrid::new(&plane(), NO_GUARD);
        assert_eq!(g.get(p(0, 0, 0)), NO_GUARD);
    }
}
