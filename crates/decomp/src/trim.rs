//! SADP trim-process conflict checking, for the trim process of the
//! baselines \[10\], \[11\]. The baseline routers count their conflicts
//! with their own `scan_fragments` passes; this checker serves
//! `examples/odd_cycle.rs`, which contrasts the trim process with the
//! cut process on one layout.
//!
//! In the trim process a pattern is generated either by a core pattern or
//! by a trim pattern; patterns closer than the minimum coloring distance
//! must be assigned different masks, and — crucially — tip-to-tip pattern
//! pairs at minimum spacing cannot be separated at all, because the trim
//! process has no merge-and-cut technique: the facing trim line ends
//! violate spacing ("trim conflicts induced by parallel line ends",
//! Section IV).

use crate::layout::ColoredPattern;
use sadp_geom::DesignRules;
use sadp_scenario::{classify, ScenarioKind};

/// Trim-process conflict counts for a colored single-layer layout.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TrimConflicts {
    /// Same-mask pattern pairs within the minimum coloring distance
    /// (side-by-side pairs that a correct trim decomposition must color
    /// differently).
    pub coloring: usize,
    /// Parallel-line-end conflicts: tip-to-tip pairs at minimum spacing,
    /// which the trim process cannot decompose for any coloring.
    pub line_end: usize,
}

impl TrimConflicts {
    /// Total conflict count (the `#C` column of Table III for the trim
    /// baselines).
    #[must_use]
    pub fn total(&self) -> usize {
        self.coloring + self.line_end
    }
}

/// Counts trim-process conflicts over all dependent pattern pairs.
///
/// Pairs are classified with the cut-process geometry classifier; the
/// trim-specific interpretation is:
///
/// * type 1-a geometry with equal colors → a coloring conflict,
/// * type 1-b geometry (tip-to-tip at minimum spacing) → a line-end
///   conflict regardless of colors.
///
/// # Example
///
/// ```
/// use sadp_decomp::{trim_conflicts, ColoredPattern};
/// use sadp_geom::{DesignRules, TrackRect};
/// use sadp_scenario::Color;
///
/// let pats = vec![
///     ColoredPattern::new(0, Color::Core, vec![TrackRect::new(0, 0, 4, 0)]),
///     ColoredPattern::new(1, Color::Core, vec![TrackRect::new(5, 0, 9, 0)]),
/// ];
/// let c = trim_conflicts(&pats, &DesignRules::node_10nm());
/// assert_eq!(c.line_end, 1);
/// ```
#[must_use]
pub fn trim_conflicts(patterns: &[ColoredPattern], rules: &DesignRules) -> TrimConflicts {
    let mut out = TrimConflicts::default();
    for (i, a) in patterns.iter().enumerate() {
        for b in patterns.iter().skip(i + 1) {
            if a.net == b.net {
                continue;
            }
            let mut saw_1a_conflict = false;
            let mut saw_1b = false;
            for ra in &a.rects {
                for rb in &b.rects {
                    let Some(s) = classify(ra, rb, rules) else {
                        continue;
                    };
                    match s.kind {
                        ScenarioKind::OneA if a.color == b.color => saw_1a_conflict = true,
                        ScenarioKind::OneB => saw_1b = true,
                        _ => {}
                    }
                }
            }
            if saw_1a_conflict {
                out.coloring += 1;
            }
            if saw_1b {
                out.line_end += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sadp_geom::TrackRect;
    use sadp_scenario::Color;

    fn wire(net: u32, color: Color, r: TrackRect) -> ColoredPattern {
        ColoredPattern::new(net, color, vec![r])
    }

    #[test]
    fn same_color_adjacent_is_coloring_conflict() {
        let pats = vec![
            wire(0, Color::Core, TrackRect::new(0, 0, 5, 0)),
            wire(1, Color::Core, TrackRect::new(0, 1, 5, 1)),
        ];
        let c = trim_conflicts(&pats, &DesignRules::node_10nm());
        assert_eq!(c.coloring, 1);
        assert_eq!(c.line_end, 0);
        assert_eq!(c.total(), 1);
    }

    #[test]
    fn different_colors_resolve_coloring() {
        let pats = vec![
            wire(0, Color::Core, TrackRect::new(0, 0, 5, 0)),
            wire(1, Color::Second, TrackRect::new(0, 1, 5, 1)),
        ];
        assert_eq!(trim_conflicts(&pats, &DesignRules::node_10nm()).total(), 0);
    }

    #[test]
    fn tip_to_tip_conflicts_for_any_coloring() {
        for (ca, cb) in [
            (Color::Core, Color::Core),
            (Color::Core, Color::Second),
            (Color::Second, Color::Second),
        ] {
            let pats = vec![
                wire(0, ca, TrackRect::new(0, 0, 4, 0)),
                wire(1, cb, TrackRect::new(5, 0, 9, 0)),
            ];
            let c = trim_conflicts(&pats, &DesignRules::node_10nm());
            assert_eq!(c.line_end, 1, "{ca:?}/{cb:?}");
        }
    }

    #[test]
    fn same_net_pairs_and_distant_pairs_ignored() {
        let pats = vec![
            ColoredPattern::new(
                0,
                Color::Core,
                vec![TrackRect::new(0, 0, 4, 0), TrackRect::new(0, 1, 4, 1)],
            ),
            wire(1, Color::Core, TrackRect::new(0, 5, 4, 5)),
        ];
        assert_eq!(trim_conflicts(&pats, &DesignRules::node_10nm()).total(), 0);
    }

    #[test]
    fn pair_counted_once_even_with_many_fragments() {
        // Two L-shaped patterns with several 1-a fragment adjacencies still
        // count as one conflicting pair.
        let pats = vec![
            ColoredPattern::new(0, Color::Core, vec![TrackRect::new(0, 0, 6, 0)]),
            ColoredPattern::new(
                1,
                Color::Core,
                vec![TrackRect::new(0, 1, 3, 1), TrackRect::new(3, 1, 6, 1)],
            ),
        ];
        let c = trim_conflicts(&pats, &DesignRules::node_10nm());
        assert_eq!(c.coloring, 1);
    }
}
