//! Colored layout patterns fed to the decomposition simulators.

use sadp_geom::TrackRect;
use sadp_scenario::Color;

/// One target pattern of a single-layer layout: a rectilinear polygon
/// (given as its wire-fragment rectangles) with a mask color.
///
/// Fragments of the same pattern may overlap (turn cells belong to both
/// adjacent fragments), exactly as produced by
/// [`RoutePath::fragments`](sadp_grid::RoutePath::fragments).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColoredPattern {
    /// Owning net id (used in reports and rendering).
    pub net: u32,
    /// Mask color: core or second.
    pub color: Color,
    /// Wire-fragment rectangles (track coordinates).
    pub rects: Vec<TrackRect>,
}

impl ColoredPattern {
    /// Creates a pattern.
    ///
    /// # Panics
    ///
    /// Panics if `rects` is empty.
    #[must_use]
    pub fn new(net: u32, color: Color, rects: Vec<TrackRect>) -> ColoredPattern {
        assert!(!rects.is_empty(), "a pattern needs at least one rectangle");
        ColoredPattern { net, color, rects }
    }

    /// The bounding box of the pattern.
    #[must_use]
    pub fn bbox(&self) -> TrackRect {
        self.rects
            .iter()
            .skip(1)
            .fold(self.rects[0], |acc, r| acc.union_bbox(r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bbox_unions_fragments() {
        let p = ColoredPattern::new(
            0,
            Color::Core,
            vec![TrackRect::new(0, 0, 4, 0), TrackRect::new(4, 0, 4, 3)],
        );
        assert_eq!(p.bbox(), TrackRect::new(0, 0, 4, 3));
    }

    #[test]
    #[should_panic(expected = "at least one rectangle")]
    fn empty_pattern_panics() {
        let _ = ColoredPattern::new(0, Color::Core, vec![]);
    }
}
