//! Potential-overlay-scenario analysis for SADP cut-process decomposition.
//!
//! This crate implements Section II–III-A of the paper:
//!
//! * [`Color`] / [`Assignment`] — the core/second mask colors of a pattern
//!   pair and the `CC`/`CS`/`SC`/`SS` notation of Table I,
//! * [`ScenarioKind`] — the **11 potential overlay scenarios** of Fig. 9
//!   (types 1-a/1-b, 2-a…2-d, 3-a…3-e), complete for any pair of dependent
//!   rectangles by Theorems 1–3,
//! * [`CostTable`] — the per-assignment side-overlay cost (and cut-conflict
//!   risk) of each scenario, reconstructed from the paper's Figs. 24–34 and
//!   Table II,
//! * [`classify()`](fn@classify) — the geometric classifier mapping a pair of wire-fragment
//!   rectangles to its scenario.
//!
//! # Example
//!
//! ```
//! use sadp_geom::{DesignRules, TrackRect};
//! use sadp_scenario::{classify, Assignment, ScenarioKind};
//!
//! let rules = DesignRules::node_10nm();
//! // Side-by-side parallel wires on adjacent tracks: type 1-a.
//! let a = TrackRect::new(0, 0, 5, 0);
//! let b = TrackRect::new(1, 1, 7, 1);
//! let s = classify(&a, &b, &rules).expect("dependent pair");
//! assert_eq!(s.kind, ScenarioKind::OneA);
//! assert!(s.table.entry(Assignment::CC).is_forbidden());
//! assert!(!s.table.entry(Assignment::CS).is_forbidden());
//! ```

pub mod classify;
pub mod color;
pub mod cost;
pub mod kind;
pub mod table;

pub use classify::{classify, Scenario};
pub use color::{Assignment, Color};
pub use cost::{Cost, CostTable};
pub use kind::{EdgeKind, ScenarioKind};
pub use table::{scenario_summary, ScenarioSummary};

#[cfg(test)]
mod interaction_tests {
    use super::*;
    use sadp_geom::{DesignRules, TrackRect};

    #[test]
    fn interaction_radius_bounds_every_scenario() {
        // No pair of fragments with a track gap beyond the dependence
        // radius may classify into a scenario, for both rule sets
        // (Theorem 1): the ECO engine's invalidation halo rests on it.
        for rules in [DesignRules::node_10nm(), DesignRules::node_14nm()] {
            let r = rules.dependence_radius_tracks();
            assert!(r >= 1);
            let a = TrackRect::new(0, 0, 4, 0);
            // Just beyond the radius: independent.
            let b = TrackRect::new(0, r + 1, 4, r + 1);
            assert!(classify(&a, &b, &rules).is_none());
            // On the radius: at least some geometries classify.
            let c = TrackRect::new(0, 1, 4, 1);
            assert!(classify(&a, &c, &rules).is_some());
        }
    }
}
