//! Shared benchmark-run plumbing for the table/figure binaries.

use sadp_baselines::{BaselineKind, BaselineRouter};
use sadp_core::{Router, RouterConfig, RoutingReport};
use sadp_grid::BenchmarkSpec;
use std::time::Duration;

/// One measured table row.
#[derive(Debug, Clone)]
pub struct RunRow {
    /// Circuit name.
    pub circuit: String,
    /// Router label.
    pub router: String,
    /// Nets in the instance.
    pub nets: usize,
    /// The measured report.
    pub report: RoutingReport,
    /// Whether the run hit its time budget (printed as `NA`).
    pub timed_out: bool,
}

impl RunRow {
    /// Formats the row for the tables: name, nets, routability, overlay,
    /// conflicts, cpu.
    #[must_use]
    pub fn formatted(&self) -> String {
        if self.timed_out {
            return format!(
                "{:8} {:>6} | {:22} |     NA |       NA |   NA |       NA",
                self.circuit, self.nets, self.router
            );
        }
        format!(
            "{:8} {:>6} | {:22} | {:5.1}% | {:8} | {:4} | {:8.2}s",
            self.circuit,
            self.nets,
            self.router,
            self.report.routability(),
            self.report.overlay_units,
            self.report.cut_conflicts,
            self.report.cpu.as_secs_f64()
        )
    }
}

/// Worker threads for the bench binaries, from the `SADP_THREADS`
/// environment variable (default: serial). The routed result is identical
/// for any value; only the wall-clock changes.
#[must_use]
pub fn threads_from_env() -> usize {
    std::env::var("SADP_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(1)
}

/// Routes one benchmark with our router and returns the row.
#[must_use]
pub fn run_ours(spec: &BenchmarkSpec) -> RunRow {
    let (mut plane, netlist) = spec.generate();
    let mut config = RouterConfig::paper_defaults();
    config.threads = threads_from_env();
    let report = Router::new(config).route_all(&mut plane, &netlist);
    RunRow {
        circuit: spec.name.clone(),
        router: "ours (cut, overlay-aware)".into(),
        nets: netlist.len(),
        report,
        timed_out: false,
    }
}

/// Routes one benchmark with a baseline and returns the row.
#[must_use]
pub fn run_baseline(kind: BaselineKind, spec: &BenchmarkSpec, budget: Option<Duration>) -> RunRow {
    let (mut plane, netlist) = spec.generate();
    let mut router = BaselineRouter::new(kind);
    if let Some(b) = budget {
        router = router.with_time_budget(b);
    }
    let report = router.route_all(&mut plane, &netlist);
    RunRow {
        circuit: spec.name.clone(),
        router: kind.name().into(),
        nets: netlist.len(),
        report,
        timed_out: router.timed_out(),
    }
}

/// Resolves the benchmark scale from CLI args / environment:
/// `--full` → 1.0, `--scale X` → X, `SADP_SCALE` env var, default 0.2.
#[must_use]
pub fn scale_from_args(args: &[String]) -> f64 {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--full" {
            return 1.0;
        }
        if a == "--scale" {
            if let Some(v) = it.next().and_then(|v| v.parse::<f64>().ok()) {
                return v;
            }
        }
    }
    std::env::var("SADP_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_resolution_order() {
        let s = |v: &[&str]| scale_from_args(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        assert_eq!(s(&["--full"]), 1.0);
        assert_eq!(s(&["--scale", "0.5"]), 0.5);
        assert_eq!(s(&["--scale"]), 0.2); // malformed falls back
        assert_eq!(s(&[]), 0.2);
    }

    #[test]
    fn rows_run_and_format() {
        let spec = BenchmarkSpec::new("mini", 25, 48, 48).with_seed(3);
        let ours = run_ours(&spec);
        assert_eq!(ours.nets, 25);
        assert!(ours.formatted().contains("mini"));
        let base = run_baseline(BaselineKind::GaoPanTrim, &spec, None);
        assert!(base.formatted().contains("[11]"));
        let na = run_baseline(BaselineKind::DuTrim, &spec, Some(Duration::ZERO));
        assert!(na.timed_out);
        assert!(na.formatted().contains("NA"));
    }
}
