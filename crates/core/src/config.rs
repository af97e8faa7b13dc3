//! Router configuration (the user-defined parameters of eq. (5)).

/// Fixed-point scale for search costs (milli-units), so that the paper's
/// fractional `γ = 1.5` stays exact in integer arithmetic.
pub const COST_SCALE: u64 = 1000;

/// Configuration of the overlay-aware router.
///
/// The defaults follow Section IV of the paper: `α = β = 1`, `γ = 1.5`,
/// flipping threshold 10, at most 3 rip-up iterations per net.
///
/// # Example
///
/// ```
/// use sadp_core::RouterConfig;
/// let cfg = RouterConfig::paper_defaults();
/// assert_eq!(cfg.alpha, 1.0);
/// assert_eq!(cfg.gamma, 1.5);
/// assert_eq!(cfg.max_ripup, 3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RouterConfig {
    /// Wirelength weight (α of eq. (5)).
    pub alpha: f64,
    /// Via weight (β of eq. (5)).
    pub beta: f64,
    /// Type 2-b scenario penalty weight (γ of eq. (5)).
    pub gamma: f64,
    /// Side-overlay threshold (in `w_line` units) above which color
    /// flipping runs on the net's component (`f_threshold`).
    pub flip_threshold: u64,
    /// Maximum rip-up-and-re-route iterations per net (`B`).
    pub max_ripup: u32,
    /// Extra tracks around the pin bounding box the search may explore.
    pub search_margin: i32,
    /// Additional cost (in α units) added to a grid cell each time a net is
    /// ripped up because of it (`IncreaseCost`, Fig. 19 line 8).
    pub ripup_penalty: f64,
    /// Soft keep-out penalty (in α units) for routing next to another
    /// net's pin, keeping pin neighbourhoods approachable.
    pub pin_guard: f64,
    /// Wrong-way multiplier for planar steps against a layer's preferred
    /// direction (1.0 disables preferred-direction routing). Layers
    /// alternate horizontal/vertical starting with horizontal on M1.
    pub wrong_way: f64,
    /// Whether to run the final full-layout flipping pass.
    pub final_flip: bool,
    /// Whether the merge-and-cut technique is available: when disabled the
    /// router treats type 1-b (tip-to-tip) pairs as conflicts and routes
    /// away from them, like baseline \[16\]. Ablation switch.
    pub allow_merge: bool,
    /// Inert: every net routes on the caller's thread, one at a time, so
    /// no value changes anything. The field stays because the benchmark
    /// harness still sets it.
    pub threads: usize,
    /// Per-net A* node-expansion budget spanning all rip-up attempts
    /// and branch searches; `0` means unlimited. A net over budget
    /// fails cleanly with `FailReason::BudgetExceeded`. Node budgets
    /// are byte-deterministic.
    pub net_node_budget: u64,
    /// Per-net wall-clock deadline in milliseconds; `0` means
    /// unlimited. Checked every ~1024 expanded nodes — a liveness
    /// guard, not a deterministic one.
    pub net_deadline_ms: u64,
    /// Whole-run node-expansion budget; `0` means unlimited. Once
    /// tripped, remaining nets fail fast and the run finalizes its
    /// committed work (partial results).
    pub run_node_budget: u64,
    /// Whole-run wall-clock deadline in milliseconds; `0` means
    /// unlimited. Like `run_node_budget`, a liveness guard.
    pub run_deadline_ms: u64,
}

impl RouterConfig {
    /// The parameter set used in the paper's experiments.
    #[must_use]
    pub fn paper_defaults() -> RouterConfig {
        RouterConfig {
            alpha: 1.0,
            beta: 1.0,
            gamma: 1.5,
            flip_threshold: 10,
            max_ripup: 3,
            search_margin: 24,
            ripup_penalty: 8.0,
            pin_guard: 2.0,
            wrong_way: 2.0,
            final_flip: true,
            allow_merge: true,
            threads: 1,
            net_node_budget: 0,
            net_deadline_ms: 0,
            run_node_budget: 0,
            run_deadline_ms: 0,
        }
    }

    /// Scaled integer α.
    #[must_use]
    pub fn alpha_cost(&self) -> u64 {
        (self.alpha * COST_SCALE as f64).round() as u64
    }

    /// Scaled integer β.
    #[must_use]
    pub fn beta_cost(&self) -> u64 {
        (self.beta * COST_SCALE as f64).round() as u64
    }

    /// Scaled integer γ.
    #[must_use]
    pub fn gamma_cost(&self) -> u64 {
        (self.gamma * COST_SCALE as f64).round() as u64
    }

    /// Scaled integer rip-up penalty.
    #[must_use]
    pub fn ripup_penalty_cost(&self) -> u64 {
        (self.ripup_penalty * COST_SCALE as f64).round() as u64
    }

    /// Scaled integer pin-guard penalty.
    #[must_use]
    pub fn pin_guard_cost(&self) -> u64 {
        (self.pin_guard * COST_SCALE as f64).round() as u64
    }

    /// Scaled integer planar cost for a step against the preferred
    /// direction.
    #[must_use]
    pub fn wrong_way_cost(&self) -> u64 {
        (self.alpha * self.wrong_way.max(1.0) * COST_SCALE as f64).round() as u64
    }
}

impl Default for RouterConfig {
    fn default() -> RouterConfig {
        RouterConfig::paper_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_section_iv() {
        let c = RouterConfig::paper_defaults();
        assert_eq!(c.alpha, 1.0);
        assert_eq!(c.beta, 1.0);
        assert_eq!(c.gamma, 1.5);
        assert_eq!(c.flip_threshold, 10);
        assert_eq!(c.max_ripup, 3);
        assert!(c.final_flip);
        assert!(c.allow_merge);
        // Robustness knobs are off by default: the paper configuration
        // carries no budgets.
        assert_eq!(c.net_node_budget, 0);
        assert_eq!(c.net_deadline_ms, 0);
        assert_eq!(c.run_node_budget, 0);
        assert_eq!(c.run_deadline_ms, 0);
        assert_eq!(RouterConfig::default(), c);
    }

    #[test]
    fn scaled_costs_are_exact() {
        let c = RouterConfig::paper_defaults();
        assert_eq!(c.alpha_cost(), 1000);
        assert_eq!(c.beta_cost(), 1000);
        assert_eq!(c.gamma_cost(), 1500);
        assert_eq!(c.ripup_penalty_cost(), 8000);
    }
}
