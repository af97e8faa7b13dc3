//! Standalone layout decomposition: optimal mask coloring of an
//! *already-routed* (or hand-drawn) layout, without touching the router.
//!
//! This is the problem solved by the layout-decomposition line of work the
//! paper builds on (its refs. 5–9): given the final patterns, build the
//! overlay constraint graph, check hard-constraint feasibility, and find a
//! coloring minimising side overlay with the same spanning-tree DP +
//! refinement used inside the router.

use sadp_geom::{DesignRules, SpatialHash, TrackRect};
use sadp_graph::{flip, GraphError, OverlayGraph};
use sadp_scenario::{classify, Color};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// One input pattern: a net id and its wire-fragment rectangles (one
/// rectilinear polygon per net on this layer).
pub type LayoutPattern = (u32, Vec<TrackRect>);

/// The result of a standalone decomposition.
#[derive(Debug, Clone)]
pub struct LayoutColoring {
    /// The chosen color per net.
    pub colors: HashMap<u32, Color>,
    /// Total nonhard side overlay of the coloring, in `w_line` units.
    pub overlay_units: u64,
    /// Number of constraint edges in the overlay constraint graph.
    pub edges: usize,
}

/// Error: the layout has no legal coloring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UndecomposableLayout {
    /// The two nets whose relation closed a hard odd cycle (or formed a
    /// contradictory pair).
    pub nets: (u32, u32),
}

impl fmt::Display for UndecomposableLayout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "layout is not SADP-decomposable: hard constraint cycle through nets {} and {}",
            self.nets.0, self.nets.1
        )
    }
}

impl Error for UndecomposableLayout {}

/// Colors a single-layer layout optimally with respect to the overlay
/// constraint graph (flipping DP + hill-climbing refinement).
///
/// # Errors
///
/// Returns [`UndecomposableLayout`] if the hard constraints (types 1-a and
/// 1-b) contain an odd cycle — the layout cannot be printed by the SADP
/// cut process for any coloring.
///
/// # Example
///
/// ```
/// use sadp_core::decompose_layout;
/// use sadp_geom::{DesignRules, TrackRect};
///
/// // Three wires: 0-1 tip-to-tip (merge), 1-2 and 0-2 side-by-side.
/// let layout = vec![
///     (0, vec![TrackRect::new(0, 0, 4, 0)]),
///     (1, vec![TrackRect::new(5, 0, 12, 0)]),
///     (2, vec![TrackRect::new(0, 1, 12, 1)]),
/// ];
/// let coloring = decompose_layout(&layout, &DesignRules::node_10nm())?;
/// assert_eq!(coloring.colors[&0], coloring.colors[&1]); // merged pair
/// assert_ne!(coloring.colors[&0], coloring.colors[&2]);
/// # Ok::<(), sadp_core::UndecomposableLayout>(())
/// ```
pub fn decompose_layout(
    patterns: &[LayoutPattern],
    rules: &DesignRules,
) -> Result<LayoutColoring, UndecomposableLayout> {
    let mut index = SpatialHash::new(16);
    for (pi, (_, rects)) in patterns.iter().enumerate() {
        for r in rects {
            index.insert(pi as u64, *r);
        }
    }

    // The graph stores vertices by id, so caller-chosen net ids are
    // remapped to their rank among the distinct ids: the map keeps their
    // order, and with it every tie-break the coloring makes.
    let mut ids: Vec<u32> = patterns.iter().map(|(net, _)| *net).collect();
    ids.sort_unstable();
    ids.dedup();
    let dense = |net: u32| ids.binary_search(&net).expect("every net is listed") as u32;
    let mut graph = OverlayGraph::new();
    let radius = rules.dependence_radius_tracks();
    for (pi, (net, rects)) in patterns.iter().enumerate() {
        graph.ensure_vertex(dense(*net));
        for r in rects {
            for (qi, other) in index.query_entries(&r.expanded(radius)) {
                // Each unordered fragment pair once; same-polygon pairs are
                // skipped (Theorem 3).
                if qi as usize <= pi {
                    continue;
                }
                let other_net = patterns[qi as usize].0;
                if other_net == *net {
                    continue;
                }
                if let Some(s) = classify(r, &other, rules) {
                    if !s.is_constraining() {
                        continue;
                    }
                    match graph.add_scenario_with_kind(
                        dense(*net),
                        dense(other_net),
                        Some(s.kind),
                        s.table,
                    ) {
                        Ok(()) => {}
                        Err(GraphError::HardOddCycle { a, b })
                        | Err(GraphError::Infeasible { a, b }) => {
                            return Err(UndecomposableLayout {
                                nets: (ids[a as usize], ids[b as usize]),
                            });
                        }
                    }
                }
            }
        }
    }

    flip::flip_all(&mut graph);
    flip::greedy_refine(&mut graph, 4);

    let eval = graph.evaluate();
    debug_assert_eq!(eval.hard_violations, 0, "feasible graphs color cleanly");
    let colors = patterns
        .iter()
        .map(|(net, _)| (*net, graph.color(dense(*net))))
        .collect();
    Ok(LayoutColoring {
        colors,
        overlay_units: eval.overlay_units,
        edges: graph.edge_count(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules() -> DesignRules {
        DesignRules::node_10nm()
    }

    #[test]
    fn alternating_bus_colors_cleanly() {
        let layout: Vec<LayoutPattern> = (0..6)
            .map(|i| (i, vec![TrackRect::new(0, i as i32, 20, i as i32)]))
            .collect();
        let c = decompose_layout(&layout, &rules()).expect("decomposable");
        assert_eq!(c.overlay_units, 0);
        for w in layout.windows(2) {
            assert_ne!(c.colors[&w[0].0], c.colors[&w[1].0]);
        }
    }

    #[test]
    fn merge_cycle_decomposes() {
        // The Fig. 2 odd cycle: trim-undecomposable, cut-decomposable.
        let layout = vec![
            (0, vec![TrackRect::new(0, 0, 4, 0)]),
            (1, vec![TrackRect::new(5, 0, 12, 0)]),
            (2, vec![TrackRect::new(0, 1, 12, 1)]),
        ];
        let c = decompose_layout(&layout, &rules()).expect("decomposable");
        assert_eq!(c.colors[&0], c.colors[&1]);
        assert_ne!(c.colors[&0], c.colors[&2]);
        assert!(c.edges >= 3);
    }

    #[test]
    fn genuinely_undecomposable_layout_is_reported() {
        // A hard odd cycle: 0-1 side-by-side (diff), 1-2 side-by-side
        // (diff), 0-2 tip-to-tip (same) -> odd.
        let layout = vec![
            (0, vec![TrackRect::new(0, 0, 6, 0)]),
            (1, vec![TrackRect::new(0, 1, 6, 1)]),
            (
                2,
                vec![TrackRect::new(7, 0, 14, 0), TrackRect::new(7, 1, 7, 1)],
            ),
        ];
        // net 2 is tip-to-tip with net 0 (same color) and its stub at
        // (7,1) is tip-to-tip with net 1 (same color) -> 0 and 1 must
        // match, but they are side-by-side (diff): odd cycle.
        let err = decompose_layout(&layout, &rules()).unwrap_err();
        let (a, b) = err.nets;
        assert!(a != b);
        assert!(err.to_string().contains("not SADP-decomposable"));
    }

    #[test]
    fn multi_fragment_polygons_do_not_self_constrain() {
        // An L-shaped single net: its own fragments never constrain each
        // other (Theorem 3).
        let layout = vec![(
            7,
            vec![
                TrackRect::new(0, 0, 6, 0),
                TrackRect::new(6, 0, 6, 6),
                TrackRect::new(0, 2, 4, 2), // close to its own arm
            ],
        )];
        let c = decompose_layout(&layout, &rules()).expect("decomposable");
        assert_eq!(c.edges, 0);
        assert_eq!(c.overlay_units, 0);
    }

    #[test]
    fn sparse_net_ids_color_like_dense_ones() {
        // Ids up to 4e9 are remapped, not used as storage indices: the
        // coloring matches the same layout under ids 0, 1, 2 (the map
        // keeps their order), and errors name the caller's ids.
        let rects = [
            vec![TrackRect::new(0, 0, 4, 0)],
            vec![TrackRect::new(5, 0, 12, 0)],
            vec![TrackRect::new(0, 1, 12, 1)],
        ];
        let sparse_ids = [0, 2_000_000_000, 4_000_000_000];
        let dense: Vec<LayoutPattern> = (0..3).map(|i| (i, rects[i as usize].clone())).collect();
        let sparse: Vec<LayoutPattern> = sparse_ids
            .iter()
            .zip(&rects)
            .map(|(&id, r)| (id, r.clone()))
            .collect();
        let want = decompose_layout(&dense, &rules()).expect("decomposable");
        let got = decompose_layout(&sparse, &rules()).expect("decomposable");
        assert_eq!(
            (got.overlay_units, got.edges),
            (want.overlay_units, want.edges)
        );
        for (i, id) in sparse_ids.iter().enumerate() {
            assert_eq!(got.colors[id], want.colors[&(i as u32)]);
        }

        let odd = vec![
            (4_000_000_000, vec![TrackRect::new(0, 0, 6, 0)]),
            (7, vec![TrackRect::new(0, 1, 6, 1)]),
            (
                u32::MAX,
                vec![TrackRect::new(7, 0, 14, 0), TrackRect::new(7, 1, 7, 1)],
            ),
        ];
        let (a, b) = decompose_layout(&odd, &rules()).unwrap_err().nets;
        for net in [a, b] {
            assert!([4_000_000_000, 7, u32::MAX].contains(&net), "{net}");
        }
    }

    #[test]
    fn empty_layout() {
        let c = decompose_layout(&[], &rules()).expect("trivially decomposable");
        assert!(c.colors.is_empty());
        assert_eq!(c.overlay_units, 0);
    }
}
