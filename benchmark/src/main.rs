//! `bench --workload <name> --seed <n> --seconds 20 --trace <0|1> [--out FILE]`
//!
//! Runs one workload, prints every metric as `name value unit`, writes
//! the `sadp-bench/v5` record (default `out/<workload>-s<seed>.json` in
//! the benchmark directory) and, traced, the spans as JSONL next to it.
//! The last stdout line is the JSON result. Exit status: 0 when every
//! check held, 1 when one failed or the run broke (no result line), 2
//! on a usage error.
//!
//! The workloads are sized for one run length, `RUN_SECONDS`; `--seconds`
//! is accepted so the caller can state it, and any other value is a
//! usage error.

use sadp_benchmark::{Run, Size, Workload, RUN_SECONDS};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: bench --workload <route-test5|eco-test5|serve-fleet> \
                     [--seed N] [--seconds 20] [--trace 0|1] [--out FILE]";

struct Args {
    workload: Workload,
    seed: u64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut trace, mut out) = (105, false, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = number()?,
            "--seconds" => {
                if number()? != RUN_SECONDS {
                    return Err(format!(
                        "--seconds: the workloads are sized for {RUN_SECONDS}, not {value}"
                    ));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: `{value}` is not 0 or 1")),
                };
            }
            "--out" => out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        trace,
        out,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let run = Run {
        seed: args.seed,
        size: Size::Full,
        trace: args.trace,
        dir: dir.clone(),
    };
    let name = args.workload.name();
    let outcome = match args.workload.run(&run) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("bench: {name}: {e}");
            return ExitCode::FAILURE;
        }
    };

    for m in &outcome.metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    for (family, n) in &outcome.samples {
        println!("samples {family} {n}");
    }
    for c in &outcome.checks {
        let verdict = if c.ok { "ok" } else { "FAILED" };
        println!("check {verdict}: {} ({})", c.name, c.detail);
    }
    println!("ops {} failed_ops {}", outcome.ops, outcome.failed_ops);

    let suffix = if args.trace { "-trace" } else { "" };
    let record = args.out.unwrap_or_else(|| {
        dir.join("out")
            .join(format!("{name}-s{}{suffix}.json", args.seed))
    });
    let mut written = record
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&record, outcome.record(args.workload, &run)));
    if let (Ok(()), Some(tracer)) = (&written, &outcome.tracer) {
        written = std::fs::write(record.with_extension("jsonl"), tracer.to_jsonl());
    }
    if let Err(e) = written {
        eprintln!("bench: {}: {e}", record.display());
        return ExitCode::FAILURE;
    }

    match outcome.result_line(args.trace) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("bench: {name}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
