//! A bucketed spatial hash over track rectangles.

use crate::rect::TrackRect;
use std::collections::HashMap;

/// A spatial hash that buckets [`TrackRect`]s into fixed-size tiles for
/// fast neighbourhood queries.
///
/// The router stores every routed wire fragment here, keyed by an arbitrary
/// `id` (fragment index), and queries the expanded bounding box of a new
/// fragment to find candidate dependent neighbours.
///
/// # Example
///
/// ```
/// use sadp_geom::{SpatialHash, TrackRect};
/// let mut hash = SpatialHash::new(8);
/// hash.insert(0, TrackRect::new(0, 0, 5, 0));
/// hash.insert(1, TrackRect::new(40, 40, 45, 40));
/// let near: Vec<_> = hash.query(&TrackRect::new(0, 0, 2, 2)).collect();
/// assert_eq!(near, vec![0]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpatialHash {
    tile: i32,
    buckets: HashMap<(i32, i32), Vec<(u64, TrackRect)>>,
    len: usize,
}

impl SpatialHash {
    /// Creates an empty hash with the given tile size (tracks per bucket).
    ///
    /// # Panics
    ///
    /// Panics if `tile_size` is not positive.
    #[must_use]
    pub fn new(tile_size: i32) -> SpatialHash {
        assert!(tile_size > 0, "tile size must be positive");
        SpatialHash {
            tile: tile_size,
            buckets: HashMap::new(),
            len: 0,
        }
    }

    /// Creates an empty hash with a tile size chosen from the expected
    /// item density: roughly two items per tile on average, clamped to
    /// `4..=16` tracks. A fixed tile of 16 made every bucket hold `O(n)`
    /// fragments on dense circuits, turning neighbourhood queries —
    /// nominally `O(items in window)` — into linear scans.
    #[must_use]
    pub fn with_density(width: i32, height: i32, expected_items: usize) -> SpatialHash {
        let area = (width.max(1) as f64) * (height.max(1) as f64);
        let per_tile_area = area / (2.0 * expected_items.max(1) as f64);
        SpatialHash::new((per_tile_area.sqrt() as i32).clamp(4, 16))
    }

    /// The tile size in tracks.
    #[must_use]
    pub fn tile(&self) -> i32 {
        self.tile
    }

    /// Number of stored rectangles.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the hash is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn tile_range(&self, rect: &TrackRect) -> (i32, i32, i32, i32) {
        (
            rect.x0.div_euclid(self.tile),
            rect.y0.div_euclid(self.tile),
            rect.x1.div_euclid(self.tile),
            rect.y1.div_euclid(self.tile),
        )
    }

    /// Inserts a rectangle under `id`. Ids need not be unique; a fragment
    /// replaced under the same id must be [`SpatialHash::remove`]d first.
    pub fn insert(&mut self, id: u64, rect: TrackRect) {
        let (tx0, ty0, tx1, ty1) = self.tile_range(&rect);
        for ty in ty0..=ty1 {
            for tx in tx0..=tx1 {
                self.buckets.entry((tx, ty)).or_default().push((id, rect));
            }
        }
        self.len += 1;
    }

    /// Removes the rectangle stored under `id` with exactly the bounds
    /// `rect`. Returns whether anything was removed.
    pub fn remove(&mut self, id: u64, rect: &TrackRect) -> bool {
        let (tx0, ty0, tx1, ty1) = self.tile_range(rect);
        let mut removed = false;
        for ty in ty0..=ty1 {
            for tx in tx0..=tx1 {
                if let Some(v) = self.buckets.get_mut(&(tx, ty)) {
                    let before = v.len();
                    v.retain(|(i, r)| !(*i == id && r == rect));
                    removed |= v.len() != before;
                    if v.is_empty() {
                        self.buckets.remove(&(tx, ty));
                    }
                }
            }
        }
        if removed {
            self.len -= 1;
        }
        removed
    }

    /// Iterates over the ids of all rectangles intersecting `window`.
    ///
    /// A rectangle spanning several tiles is reported once per query even
    /// though it is stored in each tile it covers.
    pub fn query<'a>(&'a self, window: &TrackRect) -> impl Iterator<Item = u64> + 'a {
        self.query_entries(window).map(|(id, _)| id)
    }

    /// Iterates over `(id, rect)` pairs intersecting `window`.
    pub fn query_entries<'a>(
        &'a self,
        window: &TrackRect,
    ) -> impl Iterator<Item = (u64, TrackRect)> + 'a {
        let (tx0, ty0, tx1, ty1) = self.tile_range(window);
        let w = *window;
        let mut out: Vec<(u64, TrackRect)> = Vec::new();
        for ty in ty0..=ty1 {
            for tx in tx0..=tx1 {
                if let Some(v) = self.buckets.get(&(tx, ty)) {
                    for &(id, r) in v {
                        if !r.intersects(&w) {
                            continue;
                        }
                        // Deduplicate without a seen-set: of the tiles an
                        // entry shares with the query window, exactly one
                        // is the per-axis maximum of the two range starts;
                        // report the entry only from that anchor tile.
                        let ax = r.x0.div_euclid(self.tile).max(tx0);
                        let ay = r.y0.div_euclid(self.tile).max(ty0);
                        if (ax, ay) == (tx, ty) {
                            out.push((id, r));
                        }
                    }
                }
            }
        }
        out.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_query_remove() {
        let mut h = SpatialHash::new(4);
        let a = TrackRect::new(0, 0, 10, 0); // spans several tiles
        let b = TrackRect::new(0, 5, 0, 5);
        h.insert(1, a);
        h.insert(2, b);
        assert_eq!(h.len(), 2);

        let hits: Vec<_> = h.query(&TrackRect::new(8, 0, 9, 1)).collect();
        assert_eq!(hits, vec![1]);

        // Query window covering several tiles reports each id once.
        let hits: Vec<_> = h.query(&TrackRect::new(0, 0, 12, 12)).collect();
        assert_eq!(hits.len(), 2);

        assert!(h.remove(1, &a));
        assert!(!h.remove(1, &a));
        assert_eq!(h.len(), 1);
        assert!(h.query(&TrackRect::new(8, 0, 9, 1)).next().is_none());
    }

    #[test]
    fn negative_coordinates() {
        let mut h = SpatialHash::new(8);
        h.insert(7, TrackRect::new(-10, -10, -5, -10));
        let hits: Vec<_> = h.query(&TrackRect::new(-6, -11, -4, -9)).collect();
        assert_eq!(hits, vec![7]);
    }

    #[test]
    fn empty_query() {
        let h = SpatialHash::new(8);
        assert!(h.is_empty());
        assert_eq!(h.query(&TrackRect::cell(0, 0)).count(), 0);
    }

    #[test]
    #[should_panic(expected = "tile size")]
    fn zero_tile_panics() {
        let _ = SpatialHash::new(0);
    }

    #[test]
    fn density_tile_shrinks_with_item_count() {
        // Few items on a big plane: coarse tiles (clamped high).
        assert_eq!(SpatialHash::with_density(512, 512, 10).tile(), 16);
        // Dense plane: fine tiles (clamped low).
        assert_eq!(SpatialHash::with_density(64, 64, 10_000).tile(), 4);
        // Mid density lands between the clamps.
        let t = SpatialHash::with_density(256, 256, 500).tile();
        assert!((4..=16).contains(&t), "tile {t}");
        // Degenerate inputs must not panic.
        assert!(SpatialHash::with_density(0, 0, 0).tile() >= 4);
    }

    #[test]
    fn multi_tile_entries_dedup_in_partial_windows() {
        let mut h = SpatialHash::new(4);
        // Spans tiles x = 0..=3 on row 0.
        let long = TrackRect::new(1, 1, 14, 1);
        h.insert(9, long);
        // Window starting mid-rectangle: anchor is clamped to the window.
        for window in [
            TrackRect::new(0, 0, 15, 3),
            TrackRect::new(5, 0, 15, 3),
            TrackRect::new(5, 0, 9, 3),
            TrackRect::new(13, 1, 14, 1),
        ] {
            let hits: Vec<_> = h.query(&window).collect();
            assert_eq!(hits, vec![9], "window {window:?}");
        }
    }
}
