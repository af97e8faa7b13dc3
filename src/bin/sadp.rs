//! `sadp` — command-line front end for the overlay-aware SADP router.
//!
//! ```text
//! sadp route <design> [--svg DIR] [--masks FILE]
//!            [--trace FILE] [--profile] [--checkpoint FILE] [--resume FILE]
//!                                                      route + verify a design file
//! sadp verify <design> [--trace FILE] [--profile]
//!                                                      route, then pixel-verify only
//! sadp convert <design> [--lef FILE] [--out FILE]      emit the native .layout form
//! sadp edit <design> --script FILE [--trace FILE]
//!                                                      route, then apply an ECO edit script
//! sadp bench [--test K] [--scale X] [--seed N] [--trace FILE]
//!            [--profile]                               route a TestK-family instance
//! sadp fuzz [--seeds N] [--start S] [--regime R] [--minimize]
//!           [--out DIR] [--replay FILE]                deterministic fuzzing campaign
//! sadp fuzz --wire [--seeds N] [--start S] [--regime R] [--no-live] [--out DIR]
//!                                                      wire/ingest hostile-input fuzzing
//! sadp table2                                          print the scenario table
//! sadp serve [--addr A] [--workers N] [--state-dir DIR] [--slice-steps N]
//!            [--max-request-bytes N] [--io-timeout-ms MS] [--max-conns N]
//!            [--max-queue N] [--faults SEED]           run the TCP job daemon
//! sadp submit <layout.txt> [--addr A] [--priority P]
//!             [--node-budget N] [--deadline-ms MS] [--trace FILE] [--wait]
//!                                                      submit a job to a daemon
//! sadp job <id> [--addr A] [--status|--cancel|--resume] manage a submitted job
//! ```
//!
//! `sadp fuzz` runs the generative oracle of `sadp_fuzz`: `--seeds N`
//! instances per regime (all five unless `--regime R` narrows it),
//! counting up from `--start`. Standard output is byte-identical for a
//! given flag set (timing goes to stderr). On a violation the (optionally
//! `--minimize`d) instance is written to `<out>/fuzz-<regime>-<seed>.layout`
//! together with a `.trace.jsonl` event stream, and the exit code is
//! nonzero. `--replay FILE` re-checks one such fixture instead of running
//! a campaign.
//!
//! `sadp fuzz --wire` targets the untrusted-bytes surface instead of the
//! router core: seed corpora of wire-protocol request lines and
//! DSN/DEF/LEF/layout inputs are mutated per `(regime, seed)` and every
//! parser must classify the result without panicking, deterministically.
//! The `protocol` regime additionally probes a live in-process daemon
//! over TCP (skip with `--no-live`): each input must be answered with
//! one parseable JSON line within the deadline. Failures are written to
//! `<out>/fuzz-wire-<regime>-<seed>.txt`.
//!
//! Every command routes its nets one at a time, in the canonical
//! shortest-first order, on one thread.
//!
//! `--trace FILE` writes the structured pipeline event stream as JSONL
//! (one event per line; see `sadp_obs::RouterEvent`). Events carry only
//! logical routing facts, so the file is byte-identical from run to run.
//! `--profile` prints the per-stage time/count table
//! after routing, then `nodes_expanded <N>`, the run's A\* node
//! expansions.
//!
//! Budget flags (route/verify/edit/bench): `--net-nodes N` caps A* node
//! expansions per net (deterministic), `--net-deadline-ms MS` caps
//! wall-clock per net, `--run-nodes N` / `--run-deadline-ms MS` cap the
//! whole run; over-budget nets fail gracefully and the run finalises what
//! it committed.
//!
//! `--checkpoint FILE` (route) periodically snapshots the commit ledger
//! to `FILE` (atomic tmp+rename). `--resume FILE` starts from such a
//! snapshot instead of from scratch; the final output is byte-identical
//! to the uninterrupted run. Under the hood `route` drives a stepwise
//! `sadp_core::RoutingSession` in bounded slices — the same machinery
//! the job daemon uses.
//!
//! `sadp serve` runs the zero-dependency TCP job daemon of `sadp_serve`:
//! jobs are submitted as layout text over a newline-delimited JSON
//! protocol (see `sadp_serve::protocol`), queued by priority, advanced
//! in bounded slices by a worker pool, and checkpointed to `--state-dir`
//! so a restarted daemon resumes them byte-identically. `sadp submit`
//! and `sadp job` are the matching client commands; `sadp submit --wait
//! --trace FILE` streams the job's event trace, which (lifecycle lines
//! aside) is byte-identical to `sadp route --trace` of the same layout.
//!
//! The daemon's hostile-input limits (0 disables each):
//! `--max-request-bytes N` caps one request line (default 16 MiB; a
//! longer line gets a structured error and the connection closes),
//! `--io-timeout-ms MS` bounds socket reads/writes (default 10000;
//! slow-loris clients get a timeout error instead of a parked thread),
//! `--max-conns N` caps concurrent connections (default 256), and
//! `--max-queue N` caps ready jobs (default 1024) — a submit past the
//! cap is shed with `{"ok":false,"overloaded":true,...}` before its
//! layout is parsed. On restart, corrupt `job-<id>.*` state files are
//! moved to `<state-dir>/quarantine/` and the job surfaces as
//! `failed:corrupt-state` rather than resurrecting with empty state.
//! `--faults SEED` arms deterministic persistence-fault injection
//! (short writes, ENOSPC-style errors) for recovery testing.
//!
//! `sadp edit` routes the layout, then drives a `sadp_core::eco::EcoSession`
//! through the operations of `--script` (one per line: `add`, `remove`,
//! `move`, `obstacle`, `clear`, `undo`, `redo` — see
//! `sadp_core::eco::parse_edit_script`). Each edit re-routes only the nets
//! inside the edit's dependence radius; `undo`/`redo` restore the router
//! state byte-identically.
//!
//! Exit codes: 0 success, 1 failed check (verification, fuzz violation),
//! 2 usage error, 3 unreadable/malformed input, 4 routing failure
//! (router error, checkpoint mismatch, internal panic). Each subcommand
//! accepts only the flags listed above for it (`--lef` wherever a
//! `<design>` is read); any other `--flag`, and any argument past its one
//! `<design>` or `<id>`, is a usage error. `sadp job` sends one of
//! `--status`, `--cancel` and `--resume`; asking for two is a usage error.
//!
//! `<design>` inputs accept three formats, auto-detected by *content*
//! (the extension is only a fallback hint): the native `.layout` text
//! format of `sadp_grid::io`, Specctra DSN boards, and DEF blocks
//! (macro footprints from `--lef FILE` or a same-stem `.lef` sidecar) —
//! see `sadp_ingest`. Imported designs print a one-line import summary;
//! native layouts print nothing extra, so their output is stable.
//! `sadp convert` emits the ingested design as a native `.layout`
//! fixture with a provenance comment header.

use sadp::core::{
    atomic_write, RoutingSession, ScenarioCensus, SessionStatus, Snapshot, StepBudget,
};
use sadp::decomp::{
    export_masks, render_svg, verify_layers_observed, ColoredPattern, CutSimulator,
};
use sadp::grid::write_layout;
use sadp::ingest::{ingest_text, lef::read_lef, sidecar_lef, Format, Imported};
use sadp::obs::events_to_jsonl;
use sadp::prelude::*;
use sadp::serve::{serve, Client, Json, Request, ServeConfig};
use sadp_grid::BenchmarkSpec;
use std::path::Path;
use std::process::ExitCode;

/// A CLI failure, classified so the process exit code tells scripts
/// *what kind* of failure happened without parsing stderr.
enum CliError {
    /// Bad flags or arguments (exit 2). An empty message prints only
    /// the usage block.
    Usage(String),
    /// Unreadable or malformed input — missing file, bad layout or
    /// snapshot text (exit 3).
    Input(String),
    /// The router failed: router/checkpoint error or internal panic
    /// (exit 4).
    Routing(String),
    /// A check found what it was looking for: verification failure,
    /// fuzz violation, or an output-side I/O error (exit 1).
    Other(String),
}

impl CliError {
    fn exit_code(&self) -> ExitCode {
        match self {
            CliError::Usage(_) => ExitCode::from(2),
            CliError::Input(_) => ExitCode::from(3),
            CliError::Routing(_) => ExitCode::from(4),
            CliError::Other(_) => ExitCode::FAILURE,
        }
    }

    fn message(&self) -> &str {
        match self {
            CliError::Usage(m) | CliError::Input(m) | CliError::Routing(m) | CliError::Other(m) => {
                m
            }
        }
    }
}

type CliResult = Result<(), CliError>;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // The CLI never surfaces a raw panic: the default hook's backtrace
    // banner is silenced and the payload is reported once below, as an
    // ordinary error with the routing exit code.
    std::panic::set_hook(Box::new(|_| {}));
    let result = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| dispatch(&args))) {
        Ok(result) => result,
        // A closed stdout (`sadp fuzz | head -1`) ends the command
        // quietly, as a reader that stops early expects: `print!` panics
        // with this message when the write fails with EPIPE.
        Err(payload) if is_broken_stdout(&panic_message(payload.as_ref())) => Ok(()),
        Err(payload) => Err(CliError::Routing(format!(
            "internal panic: {}",
            panic_message(payload.as_ref())
        ))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            if !e.message().is_empty() {
                eprintln!("error: {}", e.message());
            }
            if matches!(e, CliError::Usage(_)) {
                print_usage();
            }
            e.exit_code()
        }
    }
}

fn dispatch(args: &[String]) -> CliResult {
    match args.first().map(String::as_str) {
        Some("route") => cmd_route(&args[1..], false),
        Some("verify") => cmd_route(&args[1..], true),
        Some("convert") => cmd_convert(&args[1..]),
        Some("edit") => cmd_edit(&args[1..]),
        Some("bench") => cmd_bench(&args[1..]),
        Some("fuzz") => cmd_fuzz(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("submit") => cmd_submit(&args[1..]),
        Some("job") => cmd_job(&args[1..]),
        Some("table2") => {
            check_flags(&args[1..], 0, &[], &[])?;
            for row in sadp::scenario::scenario_summary() {
                println!("{row}");
            }
            Ok(())
        }
        Some(other) => Err(CliError::Usage(format!("unknown command {other:?}"))),
        None => Err(CliError::Usage(String::new())),
    }
}

fn print_usage() {
    eprintln!("usage: sadp <route|verify|convert|edit|bench|fuzz|table2|serve|submit|job> [args]");
    eprintln!(
        "  route <design> [--svg DIR] [--masks FILE] \
         [--trace FILE] [--profile] [--checkpoint FILE] [--resume FILE]"
    );
    eprintln!("  verify <design> [--trace FILE] [--profile]");
    eprintln!("  convert <design> [--lef FILE] [--out FILE]");
    eprintln!("  edit <design> --script FILE [--trace FILE]");
    eprintln!(
        "  <design> is a .layout, Specctra .dsn or .def file; the format is \
         sniffed from the content. DEF macros come from --lef FILE or a \
         FILE.lef sidecar."
    );
    eprintln!("  bench [--test K] [--scale X] [--seed N] [--trace FILE] [--profile]");
    eprintln!(
        "  fuzz [--seeds N] [--start S] [--regime R] [--minimize] \
         [--out DIR] [--replay FILE]"
    );
    eprintln!("  fuzz --wire [--seeds N] [--start S] [--regime R] [--no-live] [--out DIR]");
    eprintln!(
        "  route/verify/edit/bench budgets: [--net-nodes N] [--net-deadline-ms MS] \
         [--run-nodes N] [--run-deadline-ms MS]"
    );
    eprintln!(
        "  serve [--addr A] [--workers N] [--state-dir DIR] [--slice-steps N] \
         [--max-request-bytes N] [--io-timeout-ms MS] [--max-conns N] \
         [--max-queue N] [--faults SEED]"
    );
    eprintln!(
        "  submit <layout.txt> [--addr A] [--priority P] \
         [--node-budget N] [--deadline-ms MS] [--trace FILE] [--wait]"
    );
    eprintln!("  job <id> [--addr A] [--status|--cancel|--resume]");
    eprintln!("  --trace FILE   write the pipeline event stream as JSONL");
    eprintln!("  --profile      print the per-stage time/count table and the A* nodes expanded");
    eprintln!("exit codes: 0 ok, 1 failed check, 2 usage, 3 bad input, 4 routing failure");
}

/// Whether a caught panic is `print!` failing on a stdout whose reader
/// has gone.
fn is_broken_stdout(message: &str) -> bool {
    message.starts_with("failed printing to stdout") && message.contains("Broken pipe")
}

/// Best-effort text of a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic payload".to_string()
    }
}

/// The value flags of the router budgets (route/verify/edit/bench),
/// read by [`config_from`].
const BUDGET_FLAGS: [&str; 4] = [
    "--net-nodes",
    "--net-deadline-ms",
    "--run-nodes",
    "--run-deadline-ms",
];

/// Rejects every `--flag` the command does not declare: `values` take the
/// next argument (whose checks are [`flag_value`]'s), `switches` stand
/// alone. A flag the command would not read is a usage error naming it,
/// never silently skipped; so is any argument past the command's
/// `positionals` (its `<design>` or `<id>`, or none).
fn check_flags(
    args: &[String],
    positionals: usize,
    values: &[&str],
    switches: &[&str],
) -> CliResult {
    let mut i = 0;
    let mut seen = 0;
    while let Some(a) = args.get(i) {
        let a = a.as_str();
        i += 1;
        if values.contains(&a) {
            if args.get(i).is_some_and(|v| !v.starts_with("--")) {
                i += 1;
            }
        } else if a.starts_with("--") {
            if !switches.contains(&a) {
                return Err(CliError::Usage(format!("unknown flag {a}")));
            }
        } else if seen == positionals {
            return Err(CliError::Usage(format!("unexpected argument {a}")));
        } else {
            seen += 1;
        }
    }
    Ok(())
}

/// The value of the value flag `flag`, or `None` when the flag is
/// absent. A flag with no value — the last argument, or followed by
/// another `--flag` — is a usage error, never silently ignored.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Result<Option<&'a str>, CliError> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    match args.get(i + 1) {
        Some(v) if !v.starts_with("--") => Ok(Some(v)),
        _ => Err(CliError::Usage(format!("{flag} wants a value"))),
    }
}

/// The value of `flag` parsed as a `T` that passes `valid`, or `None`
/// when the flag is absent. A missing, unparsable or invalid value is a
/// usage error saying what the flag `wants`.
fn parsed_flag<T: std::str::FromStr>(
    args: &[String],
    flag: &str,
    wants: &str,
    valid: impl Fn(&T) -> bool,
) -> Result<Option<T>, CliError> {
    let Some(v) = flag_value(args, flag)? else {
        return Ok(None);
    };
    match v.parse::<T>() {
        Ok(x) if valid(&x) => Ok(Some(x)),
        _ => Err(CliError::Usage(format!("{flag} wants {wants}, got {v:?}"))),
    }
}

/// A `u64` value flag, or `None` when absent.
fn u64_flag(args: &[String], flag: &str) -> Result<Option<u64>, CliError> {
    parsed_flag(args, flag, "a non-negative integer", |_| true)
}

/// Router configuration honouring the budget flags.
fn config_from(args: &[String]) -> Result<RouterConfig, CliError> {
    let mut config = RouterConfig::paper_defaults();
    if let Some(n) = u64_flag(args, "--net-nodes")? {
        config.net_node_budget = n;
    }
    if let Some(n) = u64_flag(args, "--net-deadline-ms")? {
        config.net_deadline_ms = n;
    }
    if let Some(n) = u64_flag(args, "--run-nodes")? {
        config.run_node_budget = n;
    }
    if let Some(n) = u64_flag(args, "--run-deadline-ms")? {
        config.run_deadline_ms = n;
    }
    Ok(config)
}

/// The recorder for the `--trace`/`--profile` flags: collecting events
/// iff a trace file was asked for, timing iff the profile table was.
fn recorder_from(args: &[String]) -> Result<(Option<&str>, bool, BufferRecorder), CliError> {
    let trace_path = flag_value(args, "--trace")?;
    let profile = args.iter().any(|a| a == "--profile");
    let rec = BufferRecorder::with_flags(trace_path.is_some(), profile);
    Ok((trace_path, profile, rec))
}

fn write_trace(path: &str, rec: &mut BufferRecorder) -> CliResult {
    let jsonl = events_to_jsonl(&rec.take_events());
    std::fs::write(path, jsonl).map_err(|e| CliError::Other(format!("{path}: {e}")))?;
    println!("wrote {path}");
    Ok(())
}

/// How many schedule increments `route` advances per session slice.
/// `--checkpoint` writes one snapshot per slice, so this is also the
/// checkpoint cadence: at most one save per 64 nets.
const ROUTE_SLICE_STEPS: u64 = 64;

/// Reads and ingests a design file in any supported format (native
/// `.layout`, Specctra DSN, DEF). The format is sniffed from the file
/// content, with the extension as fallback hint. DEF macros come from
/// `--lef FILE` or, failing that, the `.lef` sidecar next to the DEF.
fn ingest_file(path: &str, args: &[String]) -> Result<Imported, CliError> {
    let text =
        std::fs::read_to_string(path).map_err(|e| CliError::Input(format!("{path}: {e}")))?;
    let lef_path = match flag_value(args, "--lef")? {
        Some(p) => Some(std::path::PathBuf::from(p)),
        None => sidecar_lef(std::path::Path::new(path)),
    };
    let lef_lib = match &lef_path {
        Some(p) => {
            let lef_text = std::fs::read_to_string(p)
                .map_err(|e| CliError::Input(format!("{}: {e}", p.display())))?;
            Some(
                read_lef(&lef_text)
                    .map_err(|e| CliError::Input(format!("{}: lef: {e}", p.display())))?,
            )
        }
        None => None,
    };
    ingest_text(&text, Some(std::path::Path::new(path)), lef_lib.as_ref())
        .map_err(|e| CliError::Input(format!("{path}: {e}")))
}

/// The import summary printed for non-native formats. Native layouts
/// print nothing, keeping `route` stdout byte-identical to before.
fn print_import_summary(path: &str, imported: &Imported) {
    if imported.format != Format::Layout {
        println!(
            "imported {path} ({}): {}",
            imported.format.name(),
            imported.notes.join("; ")
        );
    }
}

fn cmd_route(args: &[String], verify_only: bool) -> CliResult {
    let mut values = [
        &BUDGET_FLAGS[..],
        &["--lef", "--trace", "--checkpoint", "--resume"],
    ]
    .concat();
    if !verify_only {
        values.extend(["--svg", "--masks"]);
    }
    check_flags(args, 1, &values, &["--profile"])?;
    let path = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or_else(|| CliError::Usage("missing layout file".into()))?;
    let imported = ingest_file(path, args)?;
    print_import_summary(path, &imported);
    let (plane, netlist) = (imported.plane, imported.netlist);

    let resume = match flag_value(args, "--resume")? {
        Some(p) => {
            let snap_text =
                std::fs::read_to_string(p).map_err(|e| CliError::Input(format!("{p}: {e}")))?;
            Some(Snapshot::parse(&snap_text).map_err(|e| CliError::Input(format!("{p}: {e}")))?)
        }
        None => None,
    };
    let checkpoint_path = flag_value(args, "--checkpoint")?;
    let trace_path = flag_value(args, "--trace")?;
    let profile = args.iter().any(|a| a == "--profile");
    let (svg_dir, masks_file) = (flag_value(args, "--svg")?, flag_value(args, "--masks")?);
    let config = config_from(args)?;

    // The route is a stepwise session advanced in bounded slices; every
    // slice boundary sits between canonical commits, so `--checkpoint`
    // snapshots there. A failed checkpoint write must not abort the
    // route: the run is still correct without it, it just loses
    // resumability from here on.
    let mut session = match &resume {
        Some(snap) => {
            RoutingSession::resume(config, plane, netlist, snap, trace_path.is_some(), profile)
        }
        None => RoutingSession::create(config, plane, netlist, trace_path.is_some(), profile),
    }
    .map_err(|e| CliError::Routing(e.to_string()))?;
    let report = loop {
        let status = session.advance(StepBudget::steps(ROUTE_SLICE_STEPS));
        if let Some(ckpt) = checkpoint_path {
            if let Err(e) = atomic_write(Path::new(ckpt), &session.snapshot(), None) {
                eprintln!("warning: checkpoint {ckpt}: {e}");
            }
        }
        match status {
            SessionStatus::Running | SessionStatus::CheckpointReady => {}
            SessionStatus::Done(report) => break *report,
            SessionStatus::Failed(e) => return Err(CliError::Routing(e.to_string())),
        }
    };
    println!("{report}\n");

    let layers: Vec<_> = (0..session.plane().layers())
        .map(|l| session.router().patterns_on_layer(Layer(l)))
        .collect();
    let rules = *session.plane().rules();
    let verdict = verify_layers_observed(&layers, &rules, session.recorder_mut());
    println!("{verdict}");

    if let Some(file) = trace_path {
        let jsonl = events_to_jsonl(&session.drain_events());
        std::fs::write(file, jsonl).map_err(|e| CliError::Other(format!("{file}: {e}")))?;
        println!("wrote {file}");
    }
    if profile {
        print_profile(&session.recorder_mut().profile, &report);
    }

    if verify_only {
        if verdict.is_decomposable() && report.cut_conflicts == 0 {
            return Ok(());
        }
        return Err(CliError::Other("layout did not verify".into()));
    }

    println!("\n{}", ScenarioCensus::of(session.router()));

    if svg_dir.is_none() && masks_file.is_none() {
        return Ok(());
    }
    if let Some(dir) = svg_dir {
        std::fs::create_dir_all(dir).map_err(|e| CliError::Other(format!("{dir}: {e}")))?;
    }
    // One simulator pass per layer feeds both the SVG and the mask export.
    let sim = CutSimulator::new(rules);
    let mut masks = String::new();
    for (l, layer_patterns) in layers.iter().enumerate() {
        if layer_patterns.is_empty() {
            continue;
        }
        let pats: Vec<ColoredPattern> = layer_patterns
            .iter()
            .map(|(n, c, r)| ColoredPattern::new(*n, *c, r.clone()))
            .collect();
        let d = sim.run(&pats);
        if let Some(dir) = svg_dir {
            let file = format!("{dir}/m{}.svg", l + 1);
            std::fs::write(&file, render_svg(&d, &pats))
                .map_err(|e| CliError::Other(format!("{file}: {e}")))?;
            println!("wrote {file}");
        }
        if masks_file.is_some() {
            masks.push_str(&format!("# layer M{}\n", l + 1));
            masks.push_str(&export_masks(&d));
        }
    }
    if let Some(file) = masks_file {
        std::fs::write(file, masks).map_err(|e| CliError::Other(format!("{file}: {e}")))?;
        println!("wrote {file}");
    }
    Ok(())
}

/// `sadp convert <file> [--lef FILE] [--out FILE]` — ingest any
/// supported format and emit the equivalent native `.layout` fixture
/// (stdout by default), with a provenance comment header.
fn cmd_convert(args: &[String]) -> CliResult {
    check_flags(args, 1, &["--lef", "--out"], &[])?;
    let path = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or_else(|| CliError::Usage("missing input file".into()))?;
    let out_file = flag_value(args, "--out")?;
    let imported = ingest_file(path, args)?;
    let name = std::path::Path::new(path)
        .file_name()
        .map_or_else(|| path.to_string(), |n| n.to_string_lossy().into_owned());
    let mut out = format!(
        "# converted from {name} ({} reader)\n",
        imported.format.name()
    );
    for note in &imported.notes {
        out.push_str(&format!("# {note}\n"));
    }
    out.push_str(&write_layout(&imported.plane, &imported.netlist));
    match out_file {
        Some(file) => {
            std::fs::write(file, out).map_err(|e| CliError::Other(format!("{file}: {e}")))?;
            println!("wrote {file}");
        }
        None => print!("{out}"),
    }
    Ok(())
}

fn cmd_edit(args: &[String]) -> CliResult {
    use sadp::core::eco::{parse_edit_script, EcoError, EcoSession, OpOutcome};

    let values = [&BUDGET_FLAGS[..], &["--lef", "--script", "--trace"]].concat();
    check_flags(args, 1, &values, &[])?;
    let path = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or_else(|| CliError::Usage("missing layout file".into()))?;
    let imported = ingest_file(path, args)?;
    print_import_summary(path, &imported);
    let (plane, netlist) = (imported.plane, imported.netlist);
    let script_path =
        flag_value(args, "--script")?.ok_or_else(|| CliError::Usage("missing --script".into()))?;
    let script = std::fs::read_to_string(script_path)
        .map_err(|e| CliError::Input(format!("{script_path}: {e}")))?;
    let ops =
        parse_edit_script(&script).map_err(|e| CliError::Input(format!("{script_path}: {e}")))?;

    let trace_path = flag_value(args, "--trace")?;
    let config = config_from(args)?;
    let mut eco = EcoSession::create(config, plane, netlist, trace_path.is_some())
        .map_err(|e| CliError::Routing(e.to_string()))?;
    let (routed, failed, active) = eco.stats();
    println!("batch: {active} nets, {routed} routed, {failed} failed");

    // Ops run one at a time so an error mid-script still prints what the
    // earlier operations did — those stay applied.
    let mut result: Result<(), EcoError> = Ok(());
    for op in &ops {
        match eco.run(op) {
            Ok(outcome) => match outcome {
                OpOutcome::Edit(e) => println!(
                    "edit {} {}: invalidated {}, rerouted {}, failed {}",
                    e.edit,
                    e.kind.name(),
                    e.invalidated.len(),
                    e.rerouted,
                    e.failed
                ),
                OpOutcome::Undo => println!("undo"),
                OpOutcome::Redo => println!("redo"),
            },
            Err(e) => {
                result = Err(e);
                break;
            }
        }
    }
    let (routed, failed, active) = eco.stats();
    println!("final: {active} nets, {routed} routed, {failed} failed");
    println!(
        "journal: {} undoable, {} redoable",
        eco.undo_depth(),
        eco.redo_depth()
    );

    if let Some(file) = trace_path {
        let jsonl = events_to_jsonl(&eco.drain_events());
        std::fs::write(file, jsonl).map_err(|e| CliError::Other(format!("{file}: {e}")))?;
        println!("wrote {file}");
    }
    match result {
        Ok(_) => Ok(()),
        Err(e @ EcoError::Session(_)) => Err(CliError::Routing(format!("{script_path}: {e}"))),
        Err(e) => Err(CliError::Input(format!("{script_path}: {e}"))),
    }
}

fn cmd_serve(args: &[String]) -> CliResult {
    check_flags(
        args,
        0,
        &[
            "--addr",
            "--workers",
            "--state-dir",
            "--slice-steps",
            "--max-request-bytes",
            "--io-timeout-ms",
            "--max-conns",
            "--max-queue",
            "--faults",
        ],
        &[],
    )?;
    let mut config = ServeConfig {
        addr: client_addr(args)?.to_string(),
        ..ServeConfig::default()
    };
    // 0 workers is legal: a queue-only daemon that accepts and persists
    // jobs for a later run to execute.
    if let Some(n) = parsed_flag(args, "--workers", "a non-negative integer", |_| true)? {
        config.workers = n;
    }
    config.state_dir = flag_value(args, "--state-dir")?.map(std::path::PathBuf::from);
    if let Some(n) = u64_flag(args, "--slice-steps")? {
        config.slice_steps = n.max(1);
    }
    // Hostile-input / overload limits. 0 disables the respective limit.
    if let Some(n) = u64_flag(args, "--max-request-bytes")? {
        config.max_request_bytes = n as usize;
    }
    if let Some(n) = u64_flag(args, "--io-timeout-ms")? {
        config.io_timeout_ms = n;
    }
    if let Some(n) = u64_flag(args, "--max-conns")? {
        config.max_conns = n as usize;
    }
    if let Some(n) = u64_flag(args, "--max-queue")? {
        config.max_queue = n as usize;
    }
    // A recovery test-bench, not a production mode: state-dir writes
    // suffer deterministic short writes / ENOSPC-style failures.
    config.fault_seed = u64_flag(args, "--faults")?;
    let workers = config.workers;
    let addr = config.addr.clone();
    let handle = serve(config).map_err(|e| CliError::Other(format!("{addr}: {e}")))?;
    println!(
        "sadp serve: listening on {} ({workers} workers)",
        handle.addr()
    );
    handle.join();
    println!("sadp serve: shut down");
    Ok(())
}

/// The daemon address `--addr` names (default `127.0.0.1:7463`).
fn client_addr(args: &[String]) -> Result<&str, CliError> {
    Ok(flag_value(args, "--addr")?.unwrap_or("127.0.0.1:7463"))
}

fn cmd_submit(args: &[String]) -> CliResult {
    check_flags(
        args,
        1,
        &[
            "--addr",
            "--priority",
            "--node-budget",
            "--deadline-ms",
            "--trace",
        ],
        &["--wait"],
    )?;
    let path = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or_else(|| CliError::Usage("missing layout file".into()))?;
    let layout =
        std::fs::read_to_string(path).map_err(|e| CliError::Input(format!("{path}: {e}")))?;
    let priority =
        parsed_flag(args, "--priority", "0-255 (lower runs first)", |_| true)?.unwrap_or(100u8);
    let node_budget = u64_flag(args, "--node-budget")?;
    let deadline_ms = u64_flag(args, "--deadline-ms")?;
    let trace_path = flag_value(args, "--trace")?;
    let addr = client_addr(args)?;
    let mut client = Client::connect(addr).map_err(|e| CliError::Other(format!("{addr}: {e}")))?;
    let resp = client
        .call(&Request::Submit {
            layout,
            priority,
            threads: None,
            node_budget,
            deadline_ms,
        })
        .map_err(|e| CliError::Other(e.to_string()))?;
    let job = resp
        .get("job")
        .and_then(Json::as_u64)
        .ok_or_else(|| CliError::Other("malformed server response to submit".into()))?;
    println!("job {job}");

    if trace_path.is_none() && !args.iter().any(|a| a == "--wait") {
        return Ok(());
    }
    // Stream to completion. The trace file keeps only router events, so
    // it is byte-identical to `sadp route --trace` of the same layout;
    // `job_*` lifecycle lines are daemon-side bookkeeping.
    let mut jsonl = String::new();
    let done = client
        .subscribe(job, |line| {
            if !line.contains("\"event\":\"job_") {
                jsonl.push_str(line);
                jsonl.push('\n');
            }
        })
        .map_err(|e| CliError::Other(e.to_string()))?;
    if let Some(file) = trace_path {
        std::fs::write(file, jsonl).map_err(|e| CliError::Other(format!("{file}: {e}")))?;
        println!("wrote {file}");
    }
    let state = done
        .get("state")
        .and_then(Json::as_str)
        .unwrap_or("unknown");
    println!("job {job}: {state}");
    if state == "done" {
        Ok(())
    } else {
        Err(CliError::Other(format!("job {job} finished as {state}")))
    }
}

/// The switches of `sadp job`, of which it sends one.
const ACTIONS: [&str; 3] = ["--status", "--cancel", "--resume"];

fn cmd_job(args: &[String]) -> CliResult {
    check_flags(args, 1, &["--addr"], &ACTIONS)?;
    let id = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or_else(|| CliError::Usage("missing job id".into()))?;
    let id: u64 = id
        .parse()
        .map_err(|_| CliError::Usage(format!("job id must be a number, got {id:?}")))?;
    let asked: Vec<&str> = ACTIONS
        .into_iter()
        .filter(|f| args.iter().any(|a| a == f))
        .collect();
    let req = match asked[..] {
        [] | ["--status"] => Request::Status { job: id },
        ["--cancel"] => Request::Cancel { job: id },
        ["--resume"] => Request::Resume { job: id },
        _ => {
            return Err(CliError::Usage(format!(
                "{} exclude each other; give one",
                asked.join(" and ")
            )))
        }
    };
    let addr = client_addr(args)?;
    let mut client = Client::connect(addr).map_err(|e| CliError::Other(format!("{addr}: {e}")))?;
    let resp = client
        .call(&req)
        .map_err(|e| CliError::Other(e.to_string()))?;
    println!("{resp}");
    Ok(())
}

fn cmd_fuzz(args: &[String]) -> CliResult {
    use sadp::fuzz::{check_layout, run_campaign, CampaignConfig, Regime};

    if args.iter().any(|a| a == "--wire") {
        return cmd_fuzz_wire(args);
    }
    check_flags(
        args,
        0,
        &[
            "--replay", "--lef", "--seeds", "--start", "--regime", "--out",
        ],
        &["--minimize"],
    )?;

    let mut cfg = CampaignConfig::default();

    if let Some(path) = flag_value(args, "--replay")? {
        let imported = ingest_file(path, args)?;
        print_import_summary(path, &imported);
        let (plane, netlist) = (imported.plane, imported.netlist);
        return match check_layout(&plane, &netlist, &cfg.oracle) {
            Ok(stats) => {
                println!(
                    "{path}: clean ({} nets, {} routed)",
                    stats.nets, stats.routed
                );
                Ok(())
            }
            Err(v) => Err(CliError::Other(format!(
                "{path}: {}: {}",
                v.invariant.name(),
                v.detail
            ))),
        };
    }

    if let Some(n) = parsed_flag(args, "--seeds", "a positive integer", |&n| n >= 1)? {
        cfg.seeds = n;
    }
    if let Some(n) = u64_flag(args, "--start")? {
        cfg.start = n;
    }
    if let Some(v) = flag_value(args, "--regime")? {
        let regime = Regime::parse(v).ok_or_else(|| {
            let names: Vec<&str> = Regime::ALL.iter().map(|r| r.name()).collect();
            CliError::Usage(format!(
                "unknown regime {v:?} (one of: {})",
                names.join(", ")
            ))
        })?;
        cfg.regimes = vec![regime];
    }
    cfg.minimize = args.iter().any(|a| a == "--minimize");
    let out_dir = flag_value(args, "--out")?.unwrap_or("fuzz-out");

    let started = std::time::Instant::now();
    let report = run_campaign(&cfg, |line| println!("{line}"));
    eprintln!(
        "campaign wall-clock: {:.1}s",
        started.elapsed().as_secs_f64()
    );

    println!(
        "checked {} instances ({} nets, {} routed)",
        report.instances, report.total_nets, report.total_routed
    );
    if report.is_clean() {
        println!("clean");
        return Ok(());
    }
    std::fs::create_dir_all(out_dir).map_err(|e| CliError::Other(format!("{out_dir}: {e}")))?;
    for failure in &report.failures {
        let stem = format!("{out_dir}/fuzz-{}-{}", failure.regime, failure.seed);
        println!(
            "FAIL {} seed {}: {}: {}",
            failure.regime,
            failure.seed,
            failure.violation.invariant.name(),
            failure.violation.detail
        );
        let layout = format!("{stem}.layout");
        std::fs::write(&layout, failure.fixture_text())
            .map_err(|e| CliError::Other(format!("{layout}: {e}")))?;
        println!("wrote {layout}");
        if let Some(trace) = failure_trace(failure) {
            let path = format!("{stem}.trace.jsonl");
            std::fs::write(&path, trace).map_err(|e| CliError::Other(format!("{path}: {e}")))?;
            println!("wrote {path}");
        }
    }
    Err(CliError::Other(format!(
        "{} invariant violations",
        report.failures.len()
    )))
}

/// The wire/ingest half of `sadp fuzz` (`--wire`): mutate protocol
/// request lines and DSN/DEF/LEF/layout inputs from seed corpora, and
/// require every parser — and, unless `--no-live`, a real in-process
/// daemon probed over TCP — to answer with no panic, no hang, and a
/// classified error. Failures are written to
/// `<out>/fuzz-wire-<regime>-<seed>.txt` as replayable artifacts.
fn cmd_fuzz_wire(args: &[String]) -> CliResult {
    use sadp::fuzz::{run_wire_campaign, WireCampaignConfig, WireRegime};

    check_flags(
        args,
        0,
        &["--seeds", "--start", "--regime", "--out"],
        &["--wire", "--no-live"],
    )?;
    let mut cfg = WireCampaignConfig::default();
    if let Some(n) = parsed_flag(args, "--seeds", "a positive integer", |&n| n >= 1)? {
        cfg.seeds = n;
    }
    if let Some(n) = u64_flag(args, "--start")? {
        cfg.start = n;
    }
    if let Some(v) = flag_value(args, "--regime")? {
        let regime = WireRegime::parse(v).ok_or_else(|| {
            let names: Vec<&str> = WireRegime::ALL.iter().map(|r| r.name()).collect();
            CliError::Usage(format!(
                "unknown wire regime {v:?} (one of: {})",
                names.join(", ")
            ))
        })?;
        cfg.regimes = vec![regime];
    }
    cfg.live = !args.iter().any(|a| a == "--no-live");
    let out_dir = flag_value(args, "--out")?.unwrap_or("fuzz-out");

    let started = std::time::Instant::now();
    let report = run_wire_campaign(&cfg, |line| println!("{line}"));
    eprintln!(
        "campaign wall-clock: {:.1}s",
        started.elapsed().as_secs_f64()
    );

    println!(
        "checked {} inputs ({} accepted, {} rejected with classified errors)",
        report.instances, report.accepted, report.rejected
    );
    if report.is_clean() {
        println!("clean");
        return Ok(());
    }
    std::fs::create_dir_all(out_dir).map_err(|e| CliError::Other(format!("{out_dir}: {e}")))?;
    for failure in &report.failures {
        println!(
            "FAIL wire/{} seed {}: {}",
            failure.regime, failure.seed, failure.detail
        );
        let path = format!(
            "{out_dir}/fuzz-wire-{}-{}.txt",
            failure.regime, failure.seed
        );
        std::fs::write(&path, failure.artifact_text())
            .map_err(|e| CliError::Other(format!("{path}: {e}")))?;
        println!("wrote {path}");
    }
    Err(CliError::Other(format!(
        "{} wire contract violations",
        report.failures.len()
    )))
}

/// The JSONL event trace of routing a failed instance (the minimised one
/// when shrinking ran), or `None` when routing itself panics.
fn failure_trace(failure: &sadp::fuzz::Failure) -> Option<String> {
    let (plane, netlist) = match &failure.shrunk {
        Some(s) => (s.plane.clone(), s.netlist.clone()),
        None => {
            let inst = sadp::fuzz::generate(failure.regime, failure.seed);
            (inst.plane, inst.netlist)
        }
    };
    std::panic::catch_unwind(move || {
        let mut plane = plane;
        let mut rec = BufferRecorder::with_flags(true, false);
        let mut router = Router::new(RouterConfig::paper_defaults());
        let _ = router.route_all_with(&mut plane, &netlist, &mut rec);
        events_to_jsonl(&rec.take_events())
    })
    .ok()
}

/// The `--profile` block: the stage table, then the run's A\* node
/// expansions from the report. Both counts are deterministic; the times
/// are not.
fn print_profile(profile: &sadp::obs::StageProfile, report: &RoutingReport) {
    println!(
        "\n{}nodes_expanded {}",
        profile.table(),
        report.nodes_expanded
    );
}

fn cmd_bench(args: &[String]) -> CliResult {
    let values = [
        &BUDGET_FLAGS[..],
        &["--test", "--scale", "--seed", "--trace"],
    ]
    .concat();
    check_flags(args, 0, &values, &["--profile"])?;
    let scale = parsed_flag(args, "--scale", "a positive number", |x: &f64| {
        x.is_finite() && *x > 0.0
    })?
    .unwrap_or(0.1);
    let suite = BenchmarkSpec::paper_fixed_suite();
    let wants = format!("1..={}", suite.len());
    let test =
        parsed_flag(args, "--test", &wants, |n| (1..=suite.len()).contains(n))?.unwrap_or(1usize);
    let seed = u64_flag(args, "--seed")?.unwrap_or(100 + test as u64);
    let (trace_path, profile, mut rec) = recorder_from(args)?;
    let config = config_from(args)?;
    let spec = suite
        .into_iter()
        .nth(test - 1)
        .expect("index validated above")
        .scaled(scale)
        .with_seed(seed);
    println!(
        "benchmark {}: {} nets on {}x{}x{} tracks",
        spec.name, spec.net_count, spec.width_tracks, spec.height_tracks, spec.layers
    );
    let (mut plane, netlist) = spec.generate();
    let mut router = Router::new(config);
    let report = router.route_all_with(&mut plane, &netlist, &mut rec);
    println!("{report}");
    if let Some(file) = trace_path {
        write_trace(file, &mut rec)?;
    }
    if profile {
        print_profile(&rec.profile, &report);
    }
    if report.cut_conflicts != 0 {
        return Err(CliError::Routing(
            "cut conflicts remained (this should be impossible)".into(),
        ));
    }
    Ok(())
}
