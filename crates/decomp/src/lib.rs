//! Pixel-level SADP decomposition simulator.
//!
//! This crate is the *independent oracle* of the workspace: given a colored
//! layout (every pattern assigned core or second), it synthesises the SADP
//! cut-process masks at 10 nm pixel resolution —
//!
//! 1. paint the core mask (core-colored patterns),
//! 2. generate **assist core patterns** around every second pattern where
//!    clearance allows,
//! 3. **merge** core patterns (including assists) closer than `d_core`
//!    (morphological closing — the merge-and-cut technique of Fig. 2),
//! 4. grow the conformal **spacer** of width `w_spacer` on all core
//!    sidewalls,
//! 5. derive the metal (`NOT spacer`) and the required **cut regions**
//!    (`metal − target`),
//!
//! — and then *measures* what the paper's metrics talk about: side/tip
//! overlay runs (target boundary not protected by a spacer), **hard
//! overlays** (side runs longer than `w_line`), spacer violations, and
//! **type-B cut conflicts** (two parallel cut-defined boundary sections of
//! one target within `d_cut`).
//!
//! The simulator is deliberately *stricter* than the paper's per-scenario
//! accounting for grossly violated colorings (a violated long side-by-side
//! pair measures its full facing length, where Table II counts scenario
//! units); on rule-respecting layouts the two agree. See DESIGN.md §3.2.
//!
//! # Example
//!
//! ```
//! use sadp_decomp::{ColoredPattern, CutSimulator};
//! use sadp_geom::{DesignRules, TrackRect};
//! use sadp_scenario::Color;
//!
//! // An isolated second pattern is fully protected by its assist cores.
//! let pattern = ColoredPattern::new(0, Color::Second, vec![TrackRect::new(2, 2, 8, 2)]);
//! let sim = CutSimulator::new(DesignRules::node_10nm());
//! let result = sim.run(&[pattern]);
//! assert_eq!(result.report.side_overlay_units(), 0);
//! assert_eq!(result.report.cut_conflicts, 0);
//! ```

pub mod bitmap;
pub mod cutmask;
pub mod cutsim;
pub mod export;
pub mod layout;
pub mod render;
pub mod trim;
pub mod trimsim;
pub mod verify;
pub mod window;

pub use bitmap::Bitmap;
pub use cutmask::{critical_cuts, CutPattern};
pub use cutsim::{Conflicts, CutSimulator, DecompReport, Decomposition, MaskStats};
pub use export::{bitmap_to_rects, export_masks, PxRect};
pub use layout::ColoredPattern;
pub use render::{render_ascii, render_svg};
pub use trim::trim_conflicts;
pub use trimsim::TrimSimulator;
pub use verify::{verify_layers, verify_layers_observed, LayerVerdict, Verdict};
pub use window::{replay_all_scenarios, replay_scenario, ScenarioReplay};
