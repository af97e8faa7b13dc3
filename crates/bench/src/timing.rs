//! Minimal micro-benchmark loop used by the `benches/` entry points.
//!
//! The workspace builds hermetically (no crate registry), so the bench
//! harnesses cannot depend on criterion; this module provides the small
//! subset they need: warmup, a timed batch, and a median-of-runs report.

use std::io::{ErrorKind, Write};
use std::time::Instant;

/// Times `f` and prints `name: <median> ns/iter (<runs> runs of <iters>)`.
///
/// Runs `iters` warmup iterations, then `runs` timed batches of `iters`
/// iterations each, and reports the median batch. Returns the median
/// nanoseconds per iteration so callers can assert coarse bounds.
///
/// If stdout is closed (say, piped into `head`), the process exits
/// quietly: nobody reads the remaining reports.
///
/// # Panics
///
/// Panics if writing the report fails for any other reason.
pub fn bench<T>(name: &str, iters: u32, mut f: impl FnMut() -> T) -> f64 {
    const RUNS: usize = 5;
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    let mut samples: Vec<f64> = (0..RUNS)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(f());
            }
            start.elapsed().as_nanos() as f64 / f64::from(iters)
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let median = samples[RUNS / 2];
    let line = format!("{name:<40} {median:>12.0} ns/iter  ({RUNS} runs of {iters})\n");
    let mut out = std::io::stdout().lock();
    match out.write_all(line.as_bytes()).and_then(|()| out.flush()) {
        Ok(()) => median,
        Err(e) if e.kind() == ErrorKind::BrokenPipe => std::process::exit(0),
        Err(e) => panic!("writing the {name} report: {e}"),
    }
}
