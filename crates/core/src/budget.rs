//! Search budgets with graceful degradation.
//!
//! A pathological net can burn unbounded wall-clock inside A*; a
//! production run needs a way to give up on one net — or on the whole
//! run — without aborting or corrupting committed work. Two budget
//! scopes exist:
//!
//! * [`Budget`] — per-net. Created once per net (covering every rip-up
//!   attempt and branch search) and charged once per expanded node
//!   inside the A* pop loop. Node limits are a plain counter compare;
//!   deadlines are checked only every `DEADLINE_STRIDE` nodes so the
//!   hot loop never pays an `Instant::now()` per node.
//! * [`RunBudget`] — whole-run. Each net checks it *once* before
//!   searching and adds its expansion count after, so the per-node cost
//!   is zero. Once tripped,
//!   every remaining net fails fast with
//!   [`FailReason::BudgetExceeded`](sadp_obs::FailReason) and the run
//!   finalizes whatever is committed.
//!
//! Determinism: node budgets are a pure function of the search and
//! therefore byte-deterministic. Deadlines trade that for liveness —
//! which nets observe the trip depends on wall-clock. The determinism
//! test suite and the fuzz oracle only ever set per-net node budgets.

use crate::config::RouterConfig;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// How many nodes are expanded between deadline checks. A stride of
/// 1024 bounds the overshoot to microseconds while keeping the common
/// path to one increment and compare.
const DEADLINE_STRIDE: u64 = 1024;

/// A per-net search budget, charged once per expanded A* node.
#[derive(Debug, Clone)]
pub struct Budget {
    /// Nodes still available; `u64::MAX` means unlimited.
    nodes_left: u64,
    /// Wall-clock cutoff, checked every [`DEADLINE_STRIDE`] nodes.
    deadline: Option<Instant>,
    /// Countdown to the next deadline check.
    stride_left: u64,
    /// Set once a limit is hit; later charges keep failing.
    exhausted: bool,
}

impl Budget {
    /// A budget that never runs out.
    #[must_use]
    pub fn unlimited() -> Budget {
        Budget {
            nodes_left: u64::MAX,
            deadline: None,
            stride_left: DEADLINE_STRIDE,
            exhausted: false,
        }
    }

    /// The per-net budget configured in `config` (`0` fields mean
    /// unlimited). Call once per net so the budget spans all rip-up
    /// attempts and branch searches of that net.
    #[must_use]
    pub fn for_net(config: &RouterConfig) -> Budget {
        let mut b = Budget::unlimited();
        if config.net_node_budget > 0 {
            b.nodes_left = config.net_node_budget;
        }
        if config.net_deadline_ms > 0 {
            b.deadline = Some(Instant::now() + Duration::from_millis(config.net_deadline_ms));
        }
        b
    }

    /// Whether any limit is actually set. When `false` the search loop
    /// pays one predictable branch per node and nothing else.
    #[must_use]
    pub fn is_limited(&self) -> bool {
        self.nodes_left != u64::MAX || self.deadline.is_some()
    }

    /// Charges one expanded node. Returns `false` once the budget is
    /// exhausted; the caller must stop the search and report
    /// `BudgetExceeded`.
    #[inline]
    pub fn charge(&mut self) -> bool {
        if self.exhausted {
            return false;
        }
        if self.nodes_left != u64::MAX {
            if self.nodes_left == 0 {
                self.exhausted = true;
                return false;
            }
            self.nodes_left -= 1;
        }
        if let Some(deadline) = self.deadline {
            self.stride_left -= 1;
            if self.stride_left == 0 {
                self.stride_left = DEADLINE_STRIDE;
                if Instant::now() >= deadline {
                    self.exhausted = true;
                    return false;
                }
            }
        }
        true
    }

    /// Whether a limit was hit.
    #[must_use]
    pub fn exhausted(&self) -> bool {
        self.exhausted
    }
}

impl Default for Budget {
    fn default() -> Budget {
        Budget::unlimited()
    }
}

/// The whole-run budget.
///
/// Nets poll [`RunBudget::tripped`] once before searching and report
/// their expansion count after, so enforcement costs nothing per node.
/// The trip is sticky: once over budget, the run stays over budget.
#[derive(Debug)]
pub struct RunBudget {
    /// Total nodes expanded so far.
    nodes: AtomicU64,
    /// Sticky over-budget flag.
    tripped: AtomicBool,
    /// Node ceiling; `u64::MAX` means unlimited.
    node_limit: u64,
    /// Wall-clock cutoff for the whole run.
    deadline: Option<Instant>,
}

impl RunBudget {
    /// A run budget that never trips.
    #[must_use]
    pub fn unlimited() -> RunBudget {
        RunBudget {
            nodes: AtomicU64::new(0),
            tripped: AtomicBool::new(false),
            node_limit: u64::MAX,
            deadline: None,
        }
    }

    /// Arms the budget from `config` at the start of a run (`0` fields
    /// mean unlimited). The deadline clock starts now.
    #[must_use]
    pub fn from_config(config: &RouterConfig) -> RunBudget {
        let mut b = RunBudget::unlimited();
        if config.run_node_budget > 0 {
            b.node_limit = config.run_node_budget;
        }
        if config.run_deadline_ms > 0 {
            b.deadline = Some(Instant::now() + Duration::from_millis(config.run_deadline_ms));
        }
        b
    }

    /// Whether any limit is set; when `false`, [`RunBudget::tripped`]
    /// and [`RunBudget::add_nodes`] are branch-predictable no-ops.
    #[must_use]
    pub fn is_limited(&self) -> bool {
        self.node_limit != u64::MAX || self.deadline.is_some()
    }

    /// Whether the run is over budget. Checked once per net; this is the
    /// only place the deadline reads the clock.
    pub fn tripped(&self) -> bool {
        if !self.is_limited() {
            return false;
        }
        if self.tripped.load(Ordering::Relaxed) {
            return true;
        }
        let over_nodes = self.nodes.load(Ordering::Relaxed) >= self.node_limit;
        let over_time = self.deadline.is_some_and(|d| Instant::now() >= d);
        if over_nodes || over_time {
            self.tripped.store(true, Ordering::Relaxed);
            return true;
        }
        false
    }

    /// Adds a finished search's expansion count to the shared total.
    pub fn add_nodes(&self, n: u64) {
        if self.is_limited() {
            self.nodes.fetch_add(n, Ordering::Relaxed);
        }
    }
}

impl Default for RunBudget {
    fn default() -> RunBudget {
        RunBudget::unlimited()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_exhausts() {
        let mut b = Budget::unlimited();
        assert!(!b.is_limited());
        for _ in 0..100_000 {
            assert!(b.charge());
        }
        assert!(!b.exhausted());
    }

    #[test]
    fn node_limit_is_exact() {
        let mut config = RouterConfig::paper_defaults();
        config.net_node_budget = 5;
        let mut b = Budget::for_net(&config);
        assert!(b.is_limited());
        for _ in 0..5 {
            assert!(b.charge());
        }
        assert!(!b.charge(), "sixth node must exceed a budget of 5");
        assert!(b.exhausted());
        assert!(!b.charge(), "exhaustion is sticky");
    }

    #[test]
    fn expired_deadline_trips_within_one_stride() {
        let mut b = Budget::unlimited();
        b.deadline = Some(Instant::now() - Duration::from_millis(1));
        let mut charged = 0u64;
        while b.charge() {
            charged += 1;
            assert!(charged <= DEADLINE_STRIDE, "deadline check never fired");
        }
        assert!(b.exhausted());
    }

    #[test]
    fn run_budget_trips_on_nodes_and_stays_tripped() {
        let mut config = RouterConfig::paper_defaults();
        config.run_node_budget = 10;
        let b = RunBudget::from_config(&config);
        assert!(!b.tripped());
        b.add_nodes(9);
        assert!(!b.tripped());
        b.add_nodes(1);
        assert!(b.tripped());
        assert!(b.tripped(), "trip is sticky");
    }

    #[test]
    fn unarmed_run_budget_is_inert() {
        let b = RunBudget::from_config(&RouterConfig::paper_defaults());
        assert!(!b.is_limited());
        b.add_nodes(u64::MAX / 2);
        assert!(!b.tripped());
    }
}
