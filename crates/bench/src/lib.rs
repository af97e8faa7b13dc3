//! Harness library for regenerating the paper's evaluation tables and
//! figures (see DESIGN.md §4 for the experiment index).
//!
//! The binaries in `src/bin/` print each table/figure:
//!
//! | Binary | Reproduces |
//! |--------|------------|
//! | `table2` | Table II — scenario color rules, min/max side overlay |
//! | `table3` | Table III — fixed-pin suite vs baselines \[11\] and \[16\] |
//! | `table4` | Table IV — multi-candidate suite vs baseline \[10\] |
//! | `fig20` | Fig. 20 — runtime vs net count, least-squares exponent |
//! | `fig21` | Figs. 21/22 — partial routing result, ours vs \[16\] |
//! | `fig_appendix` | Figs. 23–34 — all scenario color assignments |
//!
//! Table binaries accept a scale factor (`SADP_SCALE` env var or `--scale
//! 0.2`); the default 0.2 finishes in seconds, `--full` runs the paper's
//! sizes. A missing or non-positive scale is a usage error (exit 2). Measured-vs-paper numbers are recorded in `EXPERIMENTS.md`.

pub mod harness;
pub mod lsq;
pub mod paper;
pub mod scaling;
pub mod timing;

pub use harness::{run_baseline, run_ours, scale_or_exit, threads_from_env, RunRow};
pub use lsq::fit_power_law;
pub use paper::{PaperRow, TABLE3_BASELINES, TABLE4_DU, TABLE4_OURS};
