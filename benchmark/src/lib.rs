//! End-to-end benchmark of the SADP router.
//!
//! One binary (`bench`) runs one of three workloads per invocation,
//! measures it from outside — by timing calls into the crates' public
//! functions and reading the program's own outputs — checks that the
//! outputs are correct, and prints every metric as `name value unit`,
//! then one JSON result line. See `README.md` for the workloads, the
//! metric tables and the comparison rule.
//!
//! | workload | module | what runs |
//! |---|---|---|
//! | `route-test5` | [`route`] | Test5 at scale 0.2 through `RoutingSession`, as `sadp route` does |
//! | `eco-test5` | [`eco`] | seeded `EcoSession` edits, then undo/redo |
//! | `serve-fleet` | [`serve`] | the committed designs through an in-process daemon, open loop |
//!
//! An untraced run reports the [`END_TO_END`] metrics; a traced run
//! (`--trace 1`) keeps bench-side spans in memory, writes them as JSONL
//! at exit, and reports the [`PER_LAYER`] metrics. The route and ECO
//! workloads state their timings as CPU time at a reference host speed
//! ([`hostspeed`]); the serve workload's are wall-clock latencies.

pub mod eco;
pub mod hostspeed;
pub mod route;
pub mod serve;
mod session;
pub mod trace;

use sadp_core::RoutingReport;
use sadp_grid::{write_layout, BenchmarkSpec};
use sadp_ingest::{ingest_text, lef::LefLibrary, Imported};
use sadp_serve::json::Json;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;
pub use trace::Tracer;

/// Schema tag of the per-run record.
pub const SCHEMA: &str = "sadp-bench/v5";

/// The end-to-end metrics, `(name, unit)`. Every workload reports every
/// one of them on an untraced run; what "the operation" is differs per
/// workload (see the workload modules).
///
/// `op_p90_ms` is printed and recorded but not declared: on the
/// baseline host its run-to-run spread exceeds the largest regression
/// bound a metric may carry (see `README.md`, Baseline).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("overlay_units", "units"),
    ("routability", "ratio"),
];

/// The per-layer metrics of a traced run, `(name, unit)`. The session,
/// stage, search, ledger, decomp, checkpoint, driver, ingest and obs
/// layers are measured on every workload's own designs; the `eco.` and
/// `serve.` layers only run in their workload and read 0 elsewhere.
pub const PER_LAYER: [(&str, &str); 57] = [
    ("session.create_s", "s"),
    ("session.band_phase_s", "s"),
    ("session.boundary_s", "s"),
    ("session.finalize_s", "s"),
    ("session.steps", "count"),
    ("stage.search_s", "s"),
    ("stage.commit_s", "s"),
    ("stage.recolor_s", "s"),
    ("stage.ripup_s", "s"),
    ("stage.merge_s", "s"),
    ("stage.boundary_s", "s"),
    ("stage.search_n", "count"),
    ("stage.commit_n", "count"),
    ("stage.recolor_n", "count"),
    ("stage.ripup_n", "count"),
    ("stage.merge_n", "count"),
    ("stage.boundary_n", "count"),
    ("stage.other_s", "s"),
    ("search.nodes_expanded", "count"),
    ("search.nodes_per_search", "count"),
    ("search.useful_ratio", "ratio"),
    ("ledger.ripups", "count"),
    ("ledger.ripups_type_b", "count"),
    ("ledger.ripups_graph", "count"),
    ("ledger.ripups_risk", "count"),
    ("ledger.flips", "count"),
    ("ledger.failed_no_path", "count"),
    ("ledger.failed_exhausted", "count"),
    ("ledger.failed_cleanup", "count"),
    ("decomp.verify_s", "s"),
    ("decomp.cut_conflicts", "count"),
    ("decomp.spacer_violations", "count"),
    ("checkpoint.serialize_s", "s"),
    ("checkpoint.parse_s", "s"),
    ("checkpoint.replay_s", "s"),
    ("checkpoint.resume_failed", "count"),
    ("checkpoint.bytes", "bytes"),
    ("driver.t2_route_s", "s"),
    ("driver.parallel_speedup", "ratio"),
    ("ingest.parse_ms", "ms"),
    ("ingest.bytes", "bytes"),
    ("obs.timing_overhead", "ratio"),
    ("obs.session_coverage", "ratio"),
    ("eco.invalidated_mean", "count"),
    ("eco.invalidated_max", "count"),
    ("eco.rerouted", "count"),
    ("eco.nodes_expanded", "count"),
    ("eco.rejected_draws", "count"),
    ("eco.cut_conflicts", "count"),
    ("eco.edit_p50_ms", "ms"),
    ("eco.restore_p50_ms", "ms"),
    ("serve.max_rate", "1/s"),
    ("serve.overhead_ratio", "ratio"),
    ("serve.rtt_share", "ratio"),
    ("serve.cpu_share", "ratio"),
    ("serve.shed", "count"),
    ("serve.state_bytes", "bytes"),
];

/// Layers that only one workload runs; the others report them as 0.
const WORKLOAD_LAYERS: [&str; 2] = ["eco.", "serve."];

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// See [`route`].
    Route,
    /// See [`eco`].
    Eco,
    /// See [`serve`].
    Serve,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Route, Workload::Eco, Workload::Serve];

    /// The `--workload` name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Route => "route-test5",
            Workload::Eco => "eco-test5",
            Workload::Serve => "serve-fleet",
        }
    }

    /// Parses a `--workload` name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Runs the workload once.
    ///
    /// # Errors
    ///
    /// A call into the program failed outright (a design did not parse,
    /// the daemon did not start, a socket broke). Failed correctness
    /// checks are not errors: they come back in [`Outcome::checks`].
    pub fn run(self, run: &Run) -> Result<Outcome, String> {
        match self {
            Workload::Route => route::run(run),
            Workload::Eco => eco::run(run),
            Workload::Serve => serve::run(run),
        }
    }
}

/// The one run length the workloads are sized for, in seconds: a full
/// run measures about this long on the baseline host. The work is fixed
/// by constants in the workload modules, not by the clock, so a parent
/// and a change do identical work.
pub const RUN_SECONDS: u64 = 20;

/// How much work one invocation does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The recorded benchmark: Test5 at scale 0.2, and loads sized for
    /// [`RUN_SECONDS`].
    Full,
    /// A load of a few seconds in a debug build, for the smoke tests.
    Toy,
}

/// One invocation's settings.
#[derive(Debug, Clone)]
pub struct Run {
    /// Seed of every generated input.
    pub seed: u64,
    /// Load size.
    pub size: Size,
    /// Record bench-side spans and report the per-layer metrics.
    pub trace: bool,
    /// The benchmark package directory: designs are read from
    /// `designs/`, run state and records go to `out/`.
    pub dir: PathBuf,
}

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// The value, as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Shorthand constructor for a [`Metric`].
#[must_use]
pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// One correctness check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// What was seen.
    pub detail: String,
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub ops: u64,
    /// Operations that failed.
    pub failed_ops: u64,
    /// Correctness checks; the run is correct when all hold.
    pub checks: Vec<Check>,
    /// Every metric measured: the declared ones plus record-only detail.
    pub metrics: Vec<Metric>,
    /// Sample count behind each percentile family.
    pub samples: Vec<(&'static str, usize)>,
    /// Bench-side spans (traced runs only).
    pub tracer: Option<Tracer>,
}

impl Outcome {
    /// Adds a check.
    pub fn check(&mut self, name: impl Into<String>, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.into(),
            ok,
            detail: detail.into(),
        });
    }

    /// Whether every check held.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// The metrics declared for this kind of run, in declaration order:
    /// [`END_TO_END`] untraced, [`PER_LAYER`] traced. A workload-specific
    /// layer this workload does not run reads 0.
    ///
    /// # Errors
    ///
    /// A declared metric is missing or has the wrong unit — a bug in
    /// the workload module.
    pub fn declared(&self, traced: bool) -> Result<Vec<Metric>, String> {
        let table: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        table
            .iter()
            .map(
                |&(name, unit)| match self.metrics.iter().find(|m| m.name == name) {
                    Some(m) if m.unit == unit => Ok(m.clone()),
                    Some(m) => Err(format!(
                        "metric {name} has unit {}, declared {unit}",
                        m.unit
                    )),
                    None if WORKLOAD_LAYERS.iter().any(|p| name.starts_with(p)) => {
                        Ok(metric(name, 0.0, unit))
                    }
                    None => Err(format!("metric {name} was not measured")),
                },
            )
            .collect()
    }

    /// The final stdout line: `correct`, `attempted`, `failed` and the
    /// declared metrics.
    ///
    /// # Errors
    ///
    /// See [`Outcome::declared`].
    pub fn result_line(&self, traced: bool) -> Result<String, String> {
        Ok(Json::Obj(BTreeMap::from([
            ("correct".to_string(), Json::Bool(self.correct())),
            ("attempted".to_string(), Json::Num(self.ops as f64)),
            ("failed".to_string(), Json::Num(self.failed_ops as f64)),
            ("metrics".to_string(), metrics_json(&self.declared(traced)?)),
        ]))
        .to_string())
    }

    /// The `sadp-bench/v5` record of this run: settings, checks, sample
    /// counts, `ops`/`failed_ops` and every metric measured.
    #[must_use]
    pub fn record(&self, workload: Workload, run: &Run) -> String {
        let seconds = match run.size {
            Size::Full => Json::Num(RUN_SECONDS as f64),
            Size::Toy => Json::Str("toy".to_string()),
        };
        let checks = self
            .checks
            .iter()
            .map(|c| {
                Json::Obj(BTreeMap::from([
                    ("name".to_string(), Json::Str(c.name.clone())),
                    ("ok".to_string(), Json::Bool(c.ok)),
                    ("detail".to_string(), Json::Str(c.detail.clone())),
                ]))
            })
            .collect();
        let samples = self
            .samples
            .iter()
            .map(|&(k, n)| (k.to_string(), Json::Num(n as f64)))
            .collect();
        let mut metrics = self.metrics.clone();
        for m in self.declared(run.trace).unwrap_or_default() {
            if !metrics.iter().any(|have| have.name == m.name) {
                metrics.push(m);
            }
        }
        let fields = [
            ("schema", Json::Str(SCHEMA.to_string())),
            ("workload", Json::Str(workload.name().to_string())),
            ("seed", Json::Num(run.seed as f64)),
            ("seconds", seconds),
            ("trace", Json::Bool(run.trace)),
            ("nproc", Json::Num(nproc() as f64)),
            ("correct", Json::Bool(self.correct())),
            ("ops", Json::Num(self.ops as f64)),
            ("failed_ops", Json::Num(self.failed_ops as f64)),
            (
                "failed_share",
                Json::Num(ratio(self.failed_ops as f64, self.ops as f64)),
            ),
            ("checks", Json::Arr(checks)),
            ("samples", Json::Obj(samples)),
            ("metrics", metrics_json(&metrics)),
        ];
        let obj: BTreeMap<String, Json> = fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        format!("{}\n", Json::Obj(obj))
    }
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                let v = BTreeMap::from([
                    ("value".to_string(), Json::Num(m.value)),
                    ("unit".to_string(), Json::Str(m.unit.to_string())),
                ]);
                (m.name.clone(), Json::Obj(v))
            })
            .collect(),
    )
}

/// The end-to-end metrics, and `op_p90_ms`, from a workload's raw
/// samples: setup times and operation latencies in seconds, plus the
/// quality of its final layouts. Peak RSS is read here, at the end of
/// the run.
#[must_use]
pub fn end_to_end(
    setup: &[f64],
    ops: &[f64],
    overlay_units: u64,
    routed: usize,
    total: usize,
) -> Vec<Metric> {
    vec![
        metric("setup_s", median(setup), "s"),
        metric("op_p50_ms", percentile(ops, 0.5) * 1e3, "ms"),
        metric("op_p90_ms", percentile(ops, 0.9) * 1e3, "ms"),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
        metric("overlay_units", overlay_units as f64, "units"),
        metric("routability", ratio(routed as f64, total as f64), "ratio"),
    ]
}

/// Nearest-rank percentile: the smallest sample such that at least a
/// share `q` of the samples is at or below it, i.e. the sample of
/// 1-based rank `ceil(q·n)` in ascending order. `q` is clamped to
/// `(0, 1]`; an empty sample gives 0.
///
/// With `n` samples, the value has `n − ceil(q·n)` samples beyond it:
/// a p90 has 10 samples beyond it from `n = 100` on.
#[must_use]
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// The nearest-rank median.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// `a / b`, or 0 when `b` is 0.
#[must_use]
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Peak resident set size of this process (`VmHWM`) in MiB, or 0 where
/// `/proc/self/status` is unavailable.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cores available to this process.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The deterministic projection of a report: wall time zeroed, stage
/// times dropped, stage counts kept. Equal across thread counts.
#[must_use]
pub fn projection(report: &RoutingReport) -> RoutingReport {
    let mut r = report.clone();
    r.cpu = Duration::ZERO;
    r.profile = r.profile.counts_only();
    r
}

/// Seed of a run's `k`-th generated design: design 0 uses the run seed
/// itself, so `route-test5` and `eco-test5` start from the same design.
#[must_use]
pub fn design_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_add(7919 * k as u64)
}

/// One input design, as text the program ingests.
#[derive(Debug, Clone)]
pub struct Design {
    /// Display name.
    pub name: String,
    /// The design file's text (native layout, Specctra DSN or DEF).
    pub text: String,
    /// The LEF library a DEF design's components need.
    pub lef: Option<LefLibrary>,
}

impl Design {
    /// The paper's Test5 at `scale`, generated from `seed`.
    #[must_use]
    pub fn test5(seed: u64, scale: f64) -> Design {
        let spec = BenchmarkSpec::paper_fixed_suite()
            .pop()
            .expect("the fixed suite ends with Test5")
            .scaled(scale)
            .with_seed(seed);
        let (plane, netlist) = spec.generate();
        Design {
            name: format!("test5@{scale}/seed{seed}"),
            text: write_layout(&plane, &netlist),
            lef: None,
        }
    }

    /// Parses the design through the program's ingest layer.
    ///
    /// # Errors
    ///
    /// The ingest error, naming the design.
    pub fn ingest(&self) -> Result<Imported, String> {
        ingest_text(&self.text, None, self.lef.as_ref()).map_err(|e| format!("{}: {e}", self.name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sadp_serve::json;

    #[test]
    fn nearest_rank_percentile() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&xs, 0.9), 90.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
        // Order of the input does not matter.
        let rev: Vec<f64> = xs.iter().rev().copied().collect();
        assert_eq!(percentile(&rev, 0.9), 90.0);
        // Small samples: rank ceil(q·n).
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.9), 5.0);
        assert_eq!(percentile(&[7.0], 0.1), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        // q is clamped.
        assert_eq!(percentile(&[1.0, 2.0], 0.0), 1.0);
        assert_eq!(percentile(&[1.0, 2.0], 2.0), 2.0);
    }

    #[test]
    fn declared_metrics_fill_only_workload_layers() {
        let mut out = Outcome {
            metrics: END_TO_END.iter().map(|&(n, u)| metric(n, 1.0, u)).collect(),
            ..Outcome::default()
        };
        assert_eq!(
            out.declared(false).expect("all present").len(),
            END_TO_END.len()
        );
        // A traced run missing a shared layer is a bug...
        let err = out.declared(true).unwrap_err();
        assert!(err.contains("session.create_s"), "{err}");
        // ...but the eco/serve layers read 0 outside their workload.
        out.metrics = PER_LAYER
            .iter()
            .filter(|(n, _)| !n.starts_with("serve."))
            .map(|&(n, u)| metric(n, 1.0, u))
            .collect();
        let declared = out.declared(true).expect("serve layers default to 0");
        assert_eq!(declared.len(), PER_LAYER.len());
        let shed = declared.iter().find(|m| m.name == "serve.shed").unwrap();
        assert_eq!(shed.value, 0.0);
    }

    #[test]
    fn a_wrong_unit_is_rejected() {
        let out = Outcome {
            metrics: END_TO_END
                .iter()
                .map(|&(n, u)| metric(n, 1.0, if n == "setup_s" { "ms" } else { u }))
                .collect(),
            ..Outcome::default()
        };
        let err = out.declared(false).unwrap_err();
        assert!(err.contains("setup_s"), "{err}");
    }

    #[test]
    fn result_line_has_exactly_four_keys() {
        let mut out = Outcome {
            ops: 10,
            failed_ops: 1,
            ..Outcome::default()
        };
        out.metrics = END_TO_END.iter().map(|&(n, u)| metric(n, 1.5, u)).collect();
        out.check("x", true, "fine");
        let v = json::parse(&out.result_line(false).unwrap()).unwrap();
        let Json::Obj(map) = &v else {
            panic!("not an object")
        };
        let keys: Vec<&str> = map.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(v.get("attempted").and_then(Json::as_u64), Some(10));
        let setup = v.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
        assert_eq!(setup.get("value"), Some(&Json::Num(1.5)));
    }
}
