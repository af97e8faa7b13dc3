//! Shared benchmark-run plumbing for the table/figure binaries.

use sadp_baselines::{BaselineKind, BaselineRouter};
use sadp_core::{Router, RouterConfig, RoutingReport};
use sadp_grid::BenchmarkSpec;
use std::str::FromStr;
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

/// Routes one benchmark with our router and returns the row.
#[must_use]
pub fn run_ours(spec: &BenchmarkSpec) -> RunRow {
    let (mut plane, netlist) = spec.generate();
    let report = Router::new(RouterConfig::paper_defaults()).route_all(&mut plane, &netlist);
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

/// The benchmark scale for a binary's `main`: `--full` → 1.0, `--scale X`
/// → X, the `SADP_SCALE` environment variable, else `default`. A missing,
/// unparsable or non-positive scale prints the error and `usage` to
/// stderr and exits with status 2, the usage-error code of the `sadp`
/// CLI.
#[must_use]
pub fn scale_or_exit(args: &[String], default: f64, usage: &str) -> f64 {
    let env = std::env::var_os("SADP_SCALE");
    let env = env.as_ref().map(|v| v.to_string_lossy());
    scale_from_args(args, env.as_deref(), default).unwrap_or_else(|e| usage_exit(&e, usage))
}

/// The value of `flag` in `args` for a binary's `main`, or `default`
/// when the flag is absent. A flag without a value, or with a value that
/// does not parse, exits 2 like [`scale_or_exit`].
#[must_use]
pub fn flag_or_exit<T: FromStr>(args: &[String], flag: &str, default: T, usage: &str) -> T {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return default;
    };
    match args.get(i + 1) {
        Some(v) => parse_or_exit(flag, v, usage),
        None => usage_exit(&format!("{flag} needs a value"), usage),
    }
}

/// `v` parsed as the value of `what` (a flag or positional argument
/// name); a value that does not parse exits 2 like [`scale_or_exit`].
#[must_use]
pub fn parse_or_exit<T: FromStr>(what: &str, v: &str, usage: &str) -> T {
    v.parse()
        .unwrap_or_else(|_| usage_exit(&format!("{what} needs a number, got `{v}`"), usage))
}

/// The arguments of a binary's `main` (past the program name), checked
/// first, as the `sadp` CLI checks a subcommand's: `values` are the
/// flags that take a value, `switches` the bare flags, and `positionals`
/// how many plain arguments the binary reads. An unknown `--flag` or one
/// positional too many exits 2 like [`scale_or_exit`]: an ignored flag
/// (a typo for a real one) would run some other instance than the one
/// asked for. A value flag takes the next argument unless that is
/// another `--flag`; the value is read, and refused, by its own parser.
#[must_use]
pub fn args_or_exit(
    values: &[&str],
    switches: &[&str],
    positionals: usize,
    usage: &str,
) -> Vec<String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut seen = 0;
    let mut it = args.iter().map(String::as_str).peekable();
    while let Some(a) = it.next() {
        if values.contains(&a) {
            it.next_if(|v| !v.starts_with("--"));
        } else if a.starts_with("--") {
            if !switches.contains(&a) {
                usage_exit(&format!("unknown flag {a}"), usage);
            }
        } else if seen == positionals {
            usage_exit(&format!("unexpected argument {a}"), usage);
        } else {
            seen += 1;
        }
    }
    args
}

/// Prints `error` and the `usage` line to stderr and exits 2, the
/// usage-error code of the `sadp` CLI.
pub fn usage_exit(error: &str, usage: &str) -> ! {
    eprintln!("error: {error}\nusage: {usage}");
    std::process::exit(2)
}

/// Resolves the benchmark scale: `--full` → 1.0, `--scale X` → X, the
/// `SADP_SCALE` value `env`, else `default`.
///
/// # Errors
///
/// A `--scale` without a value, or a `--scale` or `SADP_SCALE` value that
/// is not a finite positive number, is an error naming the culprit: a
/// silent fallback would run some other instance than the one asked for.
fn scale_from_args(args: &[String], env: Option<&str>, default: f64) -> Result<f64, String> {
    let positive = |what: &str, v: &str| match v.parse::<f64>() {
        Ok(x) if x.is_finite() && x > 0.0 => Ok(x),
        _ => Err(format!("{what} needs a positive number, got `{v}`")),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--full" => return Ok(1.0),
            "--scale" => {
                return it
                    .next()
                    .ok_or_else(|| "--scale needs a value".to_string())
                    .and_then(|v| positive("--scale", v))
            }
            _ => {}
        }
    }
    env.map_or(Ok(default), |v| positive("SADP_SCALE", v))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resolve(args: &[&str], env: Option<&str>) -> Result<f64, String> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        scale_from_args(&args, env, 0.2)
    }

    #[test]
    fn scale_resolution_order() {
        assert_eq!(resolve(&["--full"], Some("0.5")), Ok(1.0));
        assert_eq!(resolve(&["--scale", "0.5"], Some("0.7")), Ok(0.5));
        assert_eq!(resolve(&["--check"], Some("0.7")), Ok(0.7));
        assert_eq!(resolve(&[], None), Ok(0.2));
        let args = vec!["--check".to_string()];
        assert_eq!(scale_from_args(&args, None, 0.15), Ok(0.15));
    }

    #[test]
    fn a_bad_scale_is_an_error_not_a_fallback() {
        let err = resolve(&["--scale"], None).expect_err("missing value");
        assert!(err.contains("--scale needs a value"), "{err}");
        for bad in ["abc", "0", "-1", "NaN", "inf", ""] {
            let err = resolve(&["--scale", bad], None).expect_err(bad);
            assert!(err.contains("--scale") && err.contains(bad), "{err}");
            let err = resolve(&[], Some(bad)).expect_err(bad);
            assert!(err.contains("SADP_SCALE"), "{err}");
        }
        // A flag that comes first wins over a bad environment value.
        assert_eq!(resolve(&["--full"], Some("abc")), Ok(1.0));
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
