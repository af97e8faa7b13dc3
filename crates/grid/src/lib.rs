//! Routing plane, netlist and benchmark generation for the SADP
//! detailed-routing workspace.
//!
//! * [`RoutingPlane`] — a multi-layer grid of routing cells with obstacle
//!   and occupancy tracking (the "routing map M" of the paper's Fig. 19),
//! * [`Net`] / [`Netlist`] — two-pin nets, optionally with multiple pin
//!   candidate locations (the benchmark style of baseline \[10\]),
//! * [`RoutePath`] — a validated grid path with fragmentation into maximal
//!   wire rectangles (the inputs of the scenario classifier),
//! * [`benchmark`] — a deterministic generator reproducing the scale of the
//!   paper's Test1–Test10 benchmarks (see DESIGN.md §5 on substitutions).
//!
//! # Example
//!
//! ```
//! use sadp_grid::{benchmark::BenchmarkSpec, RoutingPlane};
//!
//! let spec = BenchmarkSpec::paper_fixed_suite().remove(0).scaled(0.1);
//! let (plane, netlist) = spec.generate();
//! assert!(netlist.len() > 0);
//! assert_eq!(plane.layers(), 3);
//! ```

pub mod benchmark;
pub mod io;
pub mod net;
pub mod netlist;
pub mod path;
pub mod plane;

pub use benchmark::BenchmarkSpec;
pub use io::{read_layout, write_layout, ParseLayoutError};
pub use net::{Net, NetId, Pin};
pub use netlist::Netlist;
pub use path::RoutePath;
pub use plane::{CellState, PlaneError, RoutingPlane};
