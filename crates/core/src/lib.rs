//! The overlay-aware SADP cut-process detailed router (Section III-E).
//!
//! The router is an A\*-search maze router guided by the per-layer
//! [overlay constraint graphs](sadp_graph::OverlayGraph):
//!
//! * the search cost follows eq. (5):
//!   `C(j) = C(i) + α·C_wl + β·C_via + γ·T2b(j)`, where the `T2b` term
//!   discourages creating type 2-b scenarios (the only scenario with
//!   unavoidable side overlay),
//! * after each net is routed, its wire fragments are classified against
//!   every dependent neighbour (Theorems 1–3) and the scenarios are added
//!   to the constraint graph of their layer,
//! * a hard-constraint odd cycle or an unavoidable cut conflict triggers
//!   rip-up-and-re-route with increased grid costs (at most
//!   [`RouterConfig::max_ripup`] iterations, 3 in the paper),
//! * the net is then pseudo-colored greedily; if its induced side overlay
//!   exceeds [`RouterConfig::flip_threshold`], the linear-time color
//!   flipping runs on its component,
//! * after all nets, a full-layout flipping pass minimises overlay
//!   globally.
//!
//! # Example
//!
//! ```
//! use sadp_core::{Router, RouterConfig};
//! use sadp_geom::{DesignRules, GridPoint, Layer};
//! use sadp_grid::{Netlist, RoutingPlane};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut plane = RoutingPlane::new(3, 32, 32, DesignRules::node_10nm())?;
//! let mut netlist = Netlist::new();
//! netlist.add_two_pin("a", GridPoint::new(Layer(0), 2, 2), GridPoint::new(Layer(0), 12, 8));
//! let mut router = Router::new(RouterConfig::paper_defaults());
//! let report = router.route_all(&mut plane, &netlist);
//! assert_eq!(report.routed_nets, 1);
//! assert_eq!(report.hard_overlay_violations, 0);
//! # Ok(())
//! # }
//! ```

pub mod astar;
pub mod bucket;
pub mod budget;
pub mod checkpoint;
pub mod config;
mod driver;
pub mod eco;
pub mod fault;
pub mod grids;
pub mod ledger;
pub mod report;
pub mod router;
pub mod scan;
pub mod session;
pub mod stats;

pub use astar::{AstarRequest, SearchScratch, SearchStats};
pub use bucket::BucketQueue;
pub use budget::{Budget, RunBudget};
pub use checkpoint::{Snapshot, SnapshotError};
pub use config::RouterConfig;
pub use eco::{
    parse_edit_script, EcoEdit, EcoError, EcoSession, EditOutcome, NetRef, OpOutcome, ScriptOp,
};
pub use fault::{atomic_write, FaultPlan, IoFault, PersistKind};
pub use grids::{DenseGrid, DirGrid, GuardGrid, PenaltyGrid};
pub use ledger::{CommitLedger, LedgerCounters, Proposal, RouteCandidate, RoutedNet};
pub use report::RoutingReport;
pub use router::{Router, RouterError};
pub use scan::{scan_fragments, FoundScenario};
pub use session::{RoutingSession, SessionError, SessionStatus, StepBudget};
pub use stats::ScenarioCensus;
