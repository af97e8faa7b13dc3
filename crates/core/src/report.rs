//! Routing result metrics (the columns of Tables III and IV).

use sadp_obs::StageProfile;
use std::fmt;
use std::time::Duration;

/// Aggregate metrics of one routing run.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct RoutingReport {
    /// Nets in the input netlist.
    pub total_nets: usize,
    /// Nets routed without violations.
    pub routed_nets: usize,
    /// Total planar wirelength in tracks.
    pub wirelength: u64,
    /// Total via count.
    pub vias: u64,
    /// Total side overlay in `w_line` units ("overlay length").
    pub overlay_units: u64,
    /// Realized hard-overlay assignments (0 for a legal result).
    pub hard_overlay_violations: u64,
    /// Cut conflicts (`#C` of Table III; 0 for our router by construction).
    pub cut_conflicts: u64,
    /// Rip-up-and-re-route iterations performed.
    pub ripups: u64,
    /// Rip-ups caused by type-B cut-conflict checks.
    pub ripups_type_b: u64,
    /// Rip-ups caused by hard-constraint odd cycles / infeasible pairs.
    pub ripups_graph: u64,
    /// Rip-ups caused by colorings that could not avoid a realized risk.
    pub ripups_risk: u64,
    /// Nets failed because no path existed.
    pub failed_no_path: u64,
    /// Nets failed after exhausting the rip-up budget.
    pub failed_exhausted: u64,
    /// Nets dropped by the post-routing repair.
    pub failed_cleanup: u64,
    /// Nets failed because a search budget (per-net or whole-run) ran
    /// out. Always 0 when no budget is configured.
    pub failed_budget: u64,
    /// Color-flipping passes triggered by the threshold.
    pub flips: u64,
    /// A\*-search nodes expanded.
    pub nodes_expanded: u64,
    /// Routed `(net, layer)` pairs whose color lookup fell back to
    /// [`Core`](sadp_scenario::Color::Core) because the net was missing
    /// from that layer's constraint graph. Always 0 for a consistent
    /// router state; a nonzero count means the decomposition input was
    /// silently defaulted.
    pub color_fallbacks: u64,
    /// Wall-clock routing time.
    pub cpu: Duration,
    /// Per-stage time and work counts, filled when the run used a
    /// recorder with timing on ([`Router::route_all_with`]); all zeros —
    /// and equal across runs — with the default no-op recorder. Stage
    /// *counts* are deterministic for a given input regardless of thread
    /// count; stage *times* are wall-clock and are not.
    ///
    /// [`Router::route_all_with`]: crate::router::Router::route_all_with
    pub profile: StageProfile,
}

impl RoutingReport {
    /// Routability in percent (`Rout.` of Tables III/IV).
    #[must_use]
    pub fn routability(&self) -> f64 {
        if self.total_nets == 0 {
            100.0
        } else {
            self.routed_nets as f64 * 100.0 / self.total_nets as f64
        }
    }
}

impl fmt::Display for RoutingReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "routed {}/{} nets ({:.1}%)",
            self.routed_nets,
            self.total_nets,
            self.routability()
        )?;
        writeln!(
            f,
            "wirelength {} tracks, {} vias, {} rip-ups, {} flips",
            self.wirelength, self.vias, self.ripups, self.flips
        )?;
        writeln!(
            f,
            "overlay {} units, {} hard violations, {} cut conflicts",
            self.overlay_units, self.hard_overlay_violations, self.cut_conflicts
        )?;
        if self.color_fallbacks > 0 {
            writeln!(
                f,
                "WARNING: {} color lookups fell back to Core",
                self.color_fallbacks
            )?;
        }
        if self.failed_budget > 0 {
            writeln!(
                f,
                "{} nets failed over search budget (partial result)",
                self.failed_budget
            )?;
        }
        write!(f, "cpu {:.3}s", self.cpu.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routability_percent() {
        let mut r = RoutingReport {
            total_nets: 200,
            routed_nets: 188,
            ..RoutingReport::default()
        };
        assert!((r.routability() - 94.0).abs() < 1e-9);
        r.total_nets = 0;
        assert_eq!(r.routability(), 100.0);
    }

    #[test]
    fn display_reports_counts() {
        let r = RoutingReport {
            total_nets: 10,
            routed_nets: 10,
            overlay_units: 3,
            cpu: Duration::from_millis(1500),
            ..RoutingReport::default()
        };
        let s = r.to_string();
        assert!(s.contains("10/10"));
        assert!(s.contains("overlay 3 units"));
    }
}
