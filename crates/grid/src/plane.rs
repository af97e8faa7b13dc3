//! The multi-layer grid routing plane.

use crate::net::NetId;
use sadp_geom::{DesignRules, GridPoint, Layer, TrackRect};
use std::error::Error;
use std::fmt;

const FREE: u32 = u32::MAX;
const BLOCKED: u32 = u32::MAX - 1;

/// The state of one routing-grid cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellState {
    /// Unoccupied and routable.
    Free,
    /// Covered by a blockage.
    Blocked,
    /// Occupied by a routed net.
    Occupied(NetId),
}

/// Errors produced when constructing or mutating a routing plane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlaneError {
    /// The requested dimensions are empty or too large.
    BadDimensions {
        /// Requested layers.
        layers: u8,
        /// Requested width in tracks.
        width: i32,
        /// Requested height in tracks.
        height: i32,
    },
    /// A point lies outside the plane.
    OutOfBounds(GridPoint),
    /// The cell is not in the expected state for the mutation.
    CellBusy(GridPoint),
}

impl fmt::Display for PlaneError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlaneError::BadDimensions {
                layers,
                width,
                height,
            } => write!(f, "bad plane dimensions {layers}x{width}x{height}"),
            PlaneError::OutOfBounds(p) => write!(f, "point {p} out of bounds"),
            PlaneError::CellBusy(p) => write!(f, "cell {p} is not free"),
        }
    }
}

impl Error for PlaneError {}

/// A grid-based routing plane with a fixed number of metal layers
/// (the routing map *M* of the paper).
///
/// Every cell is one routing-track segment of length and width `w_line`
/// with `w_spacer` gaps to its neighbours; cells are free, blocked by an
/// obstacle, or occupied by a routed net.
///
/// # Example
///
/// ```
/// use sadp_grid::{RoutingPlane, CellState, NetId};
/// use sadp_geom::{DesignRules, GridPoint, Layer};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut plane = RoutingPlane::new(3, 64, 64, DesignRules::node_10nm())?;
/// let p = GridPoint::new(Layer(0), 3, 4);
/// plane.occupy(p, NetId(0))?;
/// assert_eq!(plane.cell(p), CellState::Occupied(NetId(0)));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutingPlane {
    layers: u8,
    width: i32,
    height: i32,
    rules: DesignRules,
    cells: Vec<u32>,
    /// One bit per cell, set when the cell is *not* free (blocked or
    /// occupied). Mirrors `cells` exactly; kept in sync by the three
    /// mutation paths. The A\*-search neighbour test probes free-ness 64
    /// cells per word, so the passability working set is 1/32 the size
    /// of `cells` and stays cache-resident on large planes.
    busy: Vec<u64>,
}

impl RoutingPlane {
    /// Creates a free plane of `layers × width × height` cells.
    ///
    /// # Errors
    ///
    /// Returns [`PlaneError::BadDimensions`] for empty or absurdly large
    /// planes.
    pub fn new(
        layers: u8,
        width: i32,
        height: i32,
        rules: DesignRules,
    ) -> Result<RoutingPlane, PlaneError> {
        let cell_count = (layers as i64) * (width as i64) * (height as i64);
        if layers == 0 || width <= 0 || height <= 0 || cell_count > 1 << 33 {
            return Err(PlaneError::BadDimensions {
                layers,
                width,
                height,
            });
        }
        Ok(RoutingPlane {
            layers,
            width,
            height,
            rules,
            cells: vec![FREE; cell_count as usize],
            busy: vec![0; (cell_count as usize).div_ceil(64)],
        })
    }

    #[inline]
    fn busy_bit(&self, i: usize) -> bool {
        self.busy[i >> 6] & (1u64 << (i & 63)) != 0
    }

    #[inline]
    fn set_busy(&mut self, i: usize, v: bool) {
        if v {
            self.busy[i >> 6] |= 1u64 << (i & 63);
        } else {
            self.busy[i >> 6] &= !(1u64 << (i & 63));
        }
    }

    /// Number of metal layers.
    #[must_use]
    pub fn layers(&self) -> u8 {
        self.layers
    }

    /// Width in tracks.
    #[must_use]
    pub fn width(&self) -> i32 {
        self.width
    }

    /// Height in tracks.
    #[must_use]
    pub fn height(&self) -> i32 {
        self.height
    }

    /// The design rules of the plane.
    #[must_use]
    pub fn rules(&self) -> &DesignRules {
        &self.rules
    }

    /// Whether `p` lies inside the plane.
    #[must_use]
    pub fn in_bounds(&self, p: GridPoint) -> bool {
        p.layer.0 < self.layers && p.x >= 0 && p.x < self.width && p.y >= 0 && p.y < self.height
    }

    fn index(&self, p: GridPoint) -> usize {
        debug_assert!(self.in_bounds(p));
        (p.layer.index() * self.height as usize + p.y as usize) * self.width as usize + p.x as usize
    }

    /// The state of the cell at `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of bounds.
    #[must_use]
    pub fn cell(&self, p: GridPoint) -> CellState {
        assert!(self.in_bounds(p), "point {p} out of bounds");
        match self.cells[self.index(p)] {
            FREE => CellState::Free,
            BLOCKED => CellState::Blocked,
            id => CellState::Occupied(NetId(id)),
        }
    }

    /// Whether the cell at `p` is in bounds and free. This is the A\*
    /// hot-path probe: it reads the packed busy bitplane, not `cells`.
    #[inline]
    #[must_use]
    pub fn is_free(&self, p: GridPoint) -> bool {
        self.in_bounds(p) && !self.busy_bit(self.index(p))
    }

    /// The net occupying `p`, if any.
    #[must_use]
    pub fn occupant(&self, p: GridPoint) -> Option<NetId> {
        if !self.in_bounds(p) {
            return None;
        }
        match self.cells[self.index(p)] {
            FREE | BLOCKED => None,
            id => Some(NetId(id)),
        }
    }

    /// Marks the cell at `p` as occupied by `net`.
    ///
    /// A cell already occupied by the *same* net is accepted (paths may
    /// revisit their via cells on both layers).
    ///
    /// # Errors
    ///
    /// Returns [`PlaneError::OutOfBounds`] or [`PlaneError::CellBusy`].
    pub fn occupy(&mut self, p: GridPoint, net: NetId) -> Result<(), PlaneError> {
        if !self.in_bounds(p) {
            return Err(PlaneError::OutOfBounds(p));
        }
        let i = self.index(p);
        match self.cells[i] {
            FREE => {
                self.cells[i] = net.0;
                self.set_busy(i, true);
                Ok(())
            }
            id if id == net.0 => Ok(()),
            _ => Err(PlaneError::CellBusy(p)),
        }
    }

    /// Frees every cell occupied by `net` along `path` (rip-up).
    pub fn clear_path(&mut self, path: &[GridPoint], net: NetId) {
        for &p in path {
            if self.in_bounds(p) {
                let i = self.index(p);
                if self.cells[i] == net.0 {
                    self.cells[i] = FREE;
                    self.set_busy(i, false);
                }
            }
        }
    }

    /// Blocks every cell of `rect` on `layer` (clipped to the plane).
    pub fn add_blockage(&mut self, layer: Layer, rect: TrackRect) {
        for (x, y) in rect.cells() {
            let p = GridPoint::new(layer, x, y);
            if self.in_bounds(p) {
                let i = self.index(p);
                if self.cells[i] == FREE {
                    self.cells[i] = BLOCKED;
                    self.set_busy(i, true);
                }
            }
        }
    }

    /// Frees every *blocked* cell of `rect` on `layer` (clipped to the
    /// plane). Occupied cells are untouched, mirroring how
    /// [`RoutingPlane::add_blockage`] only blocks free ones; a caller
    /// removing one of several overlapping blockages must re-apply the
    /// survivors afterwards.
    pub fn clear_blockage(&mut self, layer: Layer, rect: TrackRect) {
        for (x, y) in rect.cells() {
            let p = GridPoint::new(layer, x, y);
            if self.in_bounds(p) {
                let i = self.index(p);
                if self.cells[i] == BLOCKED {
                    self.cells[i] = FREE;
                    self.set_busy(i, false);
                }
            }
        }
    }

    /// Counts cells in each state: `(free, blocked, occupied)`.
    #[must_use]
    pub fn usage(&self) -> (usize, usize, usize) {
        let mut free = 0;
        let mut blocked = 0;
        let mut occupied = 0;
        for &c in &self.cells {
            match c {
                FREE => free += 1,
                BLOCKED => blocked += 1,
                _ => occupied += 1,
            }
        }
        (free, blocked, occupied)
    }

    /// Iterates over the occupied cells of one layer as
    /// `(x, y, net)` triples, row-major.
    pub fn occupied_cells(&self, layer: Layer) -> impl Iterator<Item = (i32, i32, NetId)> + '_ {
        let base = layer.index() * self.height as usize * self.width as usize;
        let w = self.width as usize;
        self.cells[base..base + self.height as usize * w]
            .iter()
            .enumerate()
            .filter_map(move |(i, &c)| match c {
                FREE | BLOCKED => None,
                id => Some(((i % w) as i32, (i / w) as i32, NetId(id))),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plane() -> RoutingPlane {
        RoutingPlane::new(3, 16, 16, DesignRules::node_10nm()).expect("valid dims")
    }

    #[test]
    fn construction_and_bounds() {
        let p = plane();
        assert_eq!(p.layers(), 3);
        assert!(p.in_bounds(GridPoint::new(Layer(2), 15, 15)));
        assert!(!p.in_bounds(GridPoint::new(Layer(3), 0, 0)));
        assert!(!p.in_bounds(GridPoint::new(Layer(0), -1, 0)));
        assert!(!p.in_bounds(GridPoint::new(Layer(0), 16, 0)));
    }

    #[test]
    fn bad_dimensions() {
        assert!(RoutingPlane::new(0, 4, 4, DesignRules::node_10nm()).is_err());
        assert!(RoutingPlane::new(1, 0, 4, DesignRules::node_10nm()).is_err());
    }

    #[test]
    fn occupy_and_clear() {
        let mut p = plane();
        let a = GridPoint::new(Layer(0), 1, 1);
        p.occupy(a, NetId(3)).unwrap();
        assert_eq!(p.cell(a), CellState::Occupied(NetId(3)));
        assert_eq!(p.occupant(a), Some(NetId(3)));
        // Same net may re-occupy.
        p.occupy(a, NetId(3)).unwrap();
        // Other nets may not.
        assert_eq!(p.occupy(a, NetId(4)), Err(PlaneError::CellBusy(a)));
        p.clear_path(&[a], NetId(3));
        assert!(p.is_free(a));
    }

    #[test]
    fn clear_blockage_frees_blocked_cells_only() {
        let mut p = plane();
        let occupied = GridPoint::new(Layer(1), 3, 3);
        p.occupy(occupied, NetId(7)).unwrap();
        p.add_blockage(Layer(1), TrackRect::new(2, 2, 5, 5));
        let (_, blocked, _) = p.usage();
        assert_eq!(blocked, 15); // 4x4 minus the occupied cell
                                 // Clearing a sub-rect (clipped past the plane edge) frees only
                                 // blocked cells; the occupied one keeps its owner.
        p.clear_blockage(Layer(1), TrackRect::new(2, 2, 20, 3));
        assert!(p.is_free(GridPoint::new(Layer(1), 2, 2)));
        assert!(p.is_free(GridPoint::new(Layer(1), 5, 3)));
        assert_eq!(p.occupant(occupied), Some(NetId(7)));
        assert_eq!(p.cell(GridPoint::new(Layer(1), 2, 4)), CellState::Blocked);
        // Freed cells are routable again (busy bit back in sync).
        p.occupy(GridPoint::new(Layer(1), 2, 2), NetId(9)).unwrap();
    }

    #[test]
    fn clear_path_only_touches_own_cells() {
        let mut p = plane();
        let a = GridPoint::new(Layer(0), 1, 1);
        let b = GridPoint::new(Layer(0), 2, 1);
        p.occupy(a, NetId(1)).unwrap();
        p.occupy(b, NetId(2)).unwrap();
        p.clear_path(&[a, b], NetId(1));
        assert!(p.is_free(a));
        assert_eq!(p.occupant(b), Some(NetId(2)));
    }

    #[test]
    fn blockages() {
        let mut p = plane();
        p.add_blockage(Layer(1), TrackRect::new(0, 0, 3, 3));
        let q = GridPoint::new(Layer(1), 2, 2);
        assert_eq!(p.cell(q), CellState::Blocked);
        assert!(!p.is_free(q));
        assert_eq!(p.occupant(q), None);
        assert!(p.occupy(q, NetId(0)).is_err());
        let (_, blocked, _) = p.usage();
        assert_eq!(blocked, 16);
    }

    #[test]
    fn blockage_clipped_and_skips_occupied() {
        let mut p = plane();
        let a = GridPoint::new(Layer(0), 0, 0);
        p.occupy(a, NetId(9)).unwrap();
        p.add_blockage(Layer(0), TrackRect::new(-5, -5, 0, 0));
        // The occupied cell is preserved.
        assert_eq!(p.occupant(a), Some(NetId(9)));
    }

    #[test]
    fn occupied_cells_iteration() {
        let mut p = plane();
        p.occupy(GridPoint::new(Layer(1), 3, 4), NetId(7)).unwrap();
        p.occupy(GridPoint::new(Layer(1), 4, 4), NetId(7)).unwrap();
        p.occupy(GridPoint::new(Layer(0), 0, 0), NetId(1)).unwrap();
        let cells: Vec<_> = p.occupied_cells(Layer(1)).collect();
        assert_eq!(cells, vec![(3, 4, NetId(7)), (4, 4, NetId(7))]);
    }

    #[test]
    fn busy_bitplane_mirrors_cells_through_every_mutation() {
        let mut p = plane();
        let a = GridPoint::new(Layer(0), 1, 1);
        let b = GridPoint::new(Layer(2), 15, 15);
        p.occupy(a, NetId(3)).unwrap();
        p.occupy(b, NetId(4)).unwrap();
        p.add_blockage(Layer(1), TrackRect::new(0, 0, 3, 3));
        p.clear_path(&[a], NetId(3));
        // Failed occupy of a busy cell must not flip any bit either.
        let blocked = GridPoint::new(Layer(1), 2, 2);
        assert!(p.occupy(blocked, NetId(9)).is_err());
        for l in 0..p.layers() {
            for y in 0..p.height() {
                for x in 0..p.width() {
                    let q = GridPoint::new(Layer(l), x, y);
                    assert_eq!(
                        p.is_free(q),
                        p.cell(q) == CellState::Free,
                        "bitplane out of sync at {q}"
                    );
                }
            }
        }
    }

    #[test]
    fn out_of_bounds_errors() {
        let mut p = plane();
        let q = GridPoint::new(Layer(0), 99, 0);
        assert_eq!(p.occupy(q, NetId(0)), Err(PlaneError::OutOfBounds(q)));
        assert!(PlaneError::OutOfBounds(q)
            .to_string()
            .contains("out of bounds"));
    }
}
