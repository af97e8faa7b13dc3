//! The overlay constraint graph and the linear-time color flipping
//! algorithm (Sections III-B and III-C of the paper).
//!
//! * [`ParityDsu`] — a union–find with parities implementing the
//!   constant-time hard-constraint odd-cycle detection (the LELE conflict
//!   cycle test of \[18\], extended to the dummy-vertex/same-color edges of
//!   the overlay constraint graph). Merging the vertices of hard
//!   same/different chains also subsumes the paper's even-cycle
//!   super-vertex reduction.
//! * [`OverlayGraph`] — one constraint graph per routing layer: vertices
//!   are routed nets, edges carry the merged [`CostTable`]s of every
//!   potential overlay scenario the pair induces.
//! * [`flip`] — the maximum-spanning-tree extraction and the
//!   flipping-graph dynamic program of eq. (4), optimal on trees
//!   (Theorem 4) and `O(V + E)`.
//!
//! # Example
//!
//! ```
//! use sadp_graph::{OverlayGraph, flip};
//! use sadp_scenario::{Color, ScenarioKind};
//!
//! let mut g = OverlayGraph::new();
//! // Nets 0-1 side-by-side (type 1-a, hard different), nets 1-2 diagonal
//! // (type 3-a, prefer different).
//! g.add_scenario(0, 1, ScenarioKind::OneA.table()).unwrap();
//! g.add_scenario(1, 2, ScenarioKind::ThreeA.table()).unwrap();
//! flip::flip_all(&mut g);
//! assert_ne!(g.color(0), g.color(1));
//! assert_eq!(g.evaluate().overlay_units, 0);
//! ```

pub mod dsu;
pub mod flip;
pub mod graph;
pub mod state;

pub use dsu::ParityDsu;
pub use flip::{
    brute_force_color, flip_all, flip_component, flip_members, flip_neighborhood, greedy_refine,
    neighborhood_of, refine_members, FlipOutcome,
};
pub use graph::{EdgeData, EvalStats, GraphError, OverlayGraph};

pub use sadp_scenario::{Assignment, Color, Cost, CostTable, ScenarioKind};
