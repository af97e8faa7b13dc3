//! Fleet benchmark: routes every committed design at 1/2/4 threads.
//!
//! Instances come from [`sadp_bench::fleet::discover`]: the top-level
//! `.layout` fixtures, the replay corpus, and the imported DSN/DEF
//! suite (DEF files resolve their conventional `.lef` sidecar). Each
//! instance is routed at every thread count; the deterministic
//! projection of the report (CPU time zeroed, stage times dropped) and
//! the failed-net list must be byte-identical across thread counts or
//! the binary panics.
//!
//! The consolidated record (`BENCH_<rev>.json`, schema
//! `sadp-fleet-bench/v4`) carries per-instance routability, stage
//! seconds, wave statistics, per-format instance counts, and an ECO
//! edit-series section on the largest instance. It is self-checked
//! through [`sadp_bench::fleet::validate_record`] before writing, which
//! also enforces the non-vacuity gate: at least one DSN and one DEF
//! instance must each route at least one net.
//!
//! Usage: `fleet [--root PATH] [--out PATH]` (default root: the current
//! directory; default output: `BENCH_<rev>.json`).

use sadp_bench::fleet::{self, Instance, THREADS};
use sadp_core::eco::{EcoEdit, EcoSession};
use sadp_core::{Router, RouterConfig, RoutingReport};
use sadp_grid::{NetId, Netlist, RoutingPlane};
use sadp_obs::{BufferRecorder, RouterEvent, Stage};
use sadp_serve::json::escape;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// Everything measured about one `(instance, threads)` routing run.
struct RunStats {
    threads: usize,
    wall_s: f64,
    report: RoutingReport,
    failed: Vec<NetId>,
    waves: u64,
    max_wave: u64,
}

fn route(plane: &RoutingPlane, netlist: &Netlist, threads: usize) -> RunStats {
    let mut plane = plane.clone();
    let mut config = RouterConfig::paper_defaults();
    config.threads = threads;
    let mut router = Router::new(config);
    let mut rec = BufferRecorder::with_flags(true, true);
    let start = Instant::now();
    let report = router.route_all_with(&mut plane, netlist, &mut rec);
    let wall_s = start.elapsed().as_secs_f64();

    let (mut waves, mut max_wave) = (0u64, 0u64);
    for ev in rec.take_events() {
        if let RouterEvent::WaveScheduled { nets, .. } = ev {
            waves += 1;
            max_wave = max_wave.max(nets);
        }
    }
    RunStats {
        threads,
        wall_s,
        report,
        failed: router.failed().to_vec(),
        waves,
        max_wave,
    }
}

/// The deterministic projection of a report: CPU time zeroed, stage
/// times dropped (counts kept). Must be equal across thread counts.
fn deterministic(report: &RoutingReport) -> RoutingReport {
    let mut r = report.clone();
    r.cpu = Duration::ZERO;
    r.profile = r.profile.counts_only();
    r
}

/// Nearest-rank percentile of an already-sorted sample, in milliseconds.
fn percentile_ms(sorted: &[Duration], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx].as_secs_f64() * 1e3
}

struct EcoStats {
    instance: String,
    nets: usize,
    edits: usize,
    edit_p50_ms: f64,
    edit_p95_ms: f64,
    invalidated_mean: f64,
    invalidated_max: u64,
}

/// A deterministic remove/re-add edit series over the largest fleet
/// instance, same shape as the scaling benchmark's ECO section.
fn eco_bench(name: &str, plane: &RoutingPlane, netlist: &Netlist, pairs: usize) -> EcoStats {
    let mut eco = EcoSession::create(
        RouterConfig::paper_defaults(),
        plane.clone(),
        netlist.clone(),
        false,
    )
    .expect("eco session builds");
    let targets: Vec<NetId> = {
        let active: Vec<NetId> = eco.active_nets().collect();
        let stride = (active.len() / pairs.max(1)).max(1);
        active.into_iter().step_by(stride).take(pairs).collect()
    };

    let mut edit_lat: Vec<Duration> = Vec::new();
    let mut invalidated: Vec<u64> = Vec::new();
    for id in targets {
        let net = eco.netlist().net(id);
        let (net_name, pins) = (net.name.clone(), net.pins().cloned().collect::<Vec<_>>());
        for edit in [
            EcoEdit::RemoveNet { net: id },
            EcoEdit::AddNet {
                name: net_name,
                pins,
            },
        ] {
            let start = Instant::now();
            let outcome = eco.apply(edit).expect("series edits are valid");
            edit_lat.push(start.elapsed());
            invalidated.push(outcome.invalidated.len() as u64);
        }
    }

    let edits = edit_lat.len();
    edit_lat.sort();
    EcoStats {
        instance: name.to_string(),
        nets: netlist.len(),
        edits,
        edit_p50_ms: percentile_ms(&edit_lat, 0.50),
        edit_p95_ms: percentile_ms(&edit_lat, 0.95),
        invalidated_mean: invalidated.iter().sum::<u64>() as f64 / (edits as f64).max(1.0),
        invalidated_max: invalidated.iter().copied().max().unwrap_or(0),
    }
}

fn json_instance(inst: &Instance, plane: &RoutingPlane, nets: usize, runs: &[RunStats]) -> String {
    let mut out = String::new();
    let serial = &runs[0];
    write!(
        out,
        "    {{\"name\":{},\"format\":\"{}\",\"nets\":{nets},\
         \"tracks\":[{},{},{}],\"waves\":{},\"max_wave_width\":{},\"runs\":[",
        escape(&inst.name),
        inst.format.name(),
        plane.width(),
        plane.height(),
        plane.layers(),
        serial.waves,
        serial.max_wave,
    )
    .expect("write to string");
    for (k, r) in runs.iter().enumerate() {
        let routability = r.report.routed_nets as f64 / (nets as f64).max(1.0);
        write!(
            out,
            "{}\n      {{\"threads\":{},\"wall_s\":{:.6},\"routability\":{routability:.6},\
             \"routed\":{},\"failed\":{},\"stages\":{{",
            if k == 0 { "" } else { "," },
            r.threads,
            r.wall_s,
            r.report.routed_nets,
            r.failed.len(),
        )
        .expect("write to string");
        for (j, stage) in Stage::ALL.iter().enumerate() {
            let s = r.report.profile.stage(*stage);
            write!(
                out,
                "{}\"{}\":{{\"s\":{:.6},\"count\":{}}}",
                if j == 0 { "" } else { "," },
                stage.name(),
                s.time.as_secs_f64(),
                s.count
            )
            .expect("write to string");
        }
        out.push_str("}}");
    }
    out.push_str("\n    ]}");
    out
}

fn json_eco(e: &EcoStats) -> String {
    format!(
        "{{\"instance\":{},\"nets\":{},\"edits\":{},\
         \"edit_latency_ms\":{{\"p50\":{:.3},\"p95\":{:.3}}},\
         \"invalidated\":{{\"mean\":{:.2},\"max\":{}}}}}",
        escape(&e.instance),
        e.nets,
        e.edits,
        e.edit_p50_ms,
        e.edit_p95_ms,
        e.invalidated_mean,
        e.invalidated_max,
    )
}

/// The consolidated record: per-format counts (`layout`, `dsn`, `def`
/// order), the [`json_instance`] entries and the ECO section.
fn json_record(
    rev: &str,
    cores: usize,
    counts: &[(&str, usize); 3],
    instances: &[String],
    eco: &EcoStats,
) -> String {
    format!(
        "{{\n  \"schema\":\"{}\",\n  \"rev\":{},\n  \"cores\":{cores},\n  \
         \"threads\":[1,2,4],\n  \
         \"formats\":{{\"layout\":{},\"dsn\":{},\"def\":{}}},\n  \
         \"instances\":[\n{}\n  ],\n  \"eco\":{}\n}}\n",
        fleet::SCHEMA,
        escape(rev),
        counts[0].1,
        counts[1].1,
        counts[2].1,
        instances.join(",\n"),
        json_eco(eco)
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let root = flag("--root").unwrap_or_else(|| ".".to_string());
    let rev = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "local".to_string());
    let out_path = flag("--out").unwrap_or_else(|| format!("BENCH_{rev}.json"));

    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);

    let instances = fleet::discover(Path::new(&root));
    assert!(
        !instances.is_empty(),
        "no instances under {root}/fixtures — wrong --root?"
    );
    println!(
        "fleet: {} instances at threads {THREADS:?}",
        instances.len()
    );

    let mut counts = [("layout", 0usize), ("dsn", 0), ("def", 0)];
    let mut instance_json = Vec::new();
    // The largest successfully-loaded instance hosts the ECO section.
    let mut largest: Option<(String, RoutingPlane, Netlist)> = None;
    for inst in &instances {
        let imported = match fleet::load(inst) {
            Ok(imported) => imported,
            Err(e) => panic!("fleet instance failed to ingest: {e}"),
        };
        let (plane, netlist) = (imported.plane, imported.netlist);
        let runs: Vec<RunStats> = THREADS
            .iter()
            .map(|&t| route(&plane, &netlist, t))
            .collect();

        // Identity gate: thread count must not change the result.
        let serial = &runs[0];
        for r in &runs[1..] {
            assert_eq!(
                deterministic(&serial.report),
                deterministic(&r.report),
                "{}: report diverged at threads={}",
                inst.name,
                r.threads
            );
            assert_eq!(
                serial.failed, r.failed,
                "{}: failed nets diverged at threads={}",
                inst.name, r.threads
            );
        }

        println!(
            "  {} ({}): {}/{} routed, {} waves, wall {:.3}s/{:.3}s/{:.3}s",
            inst.name,
            inst.format.name(),
            serial.report.routed_nets,
            netlist.len(),
            serial.waves,
            runs[0].wall_s,
            runs[1].wall_s,
            runs[2].wall_s,
        );

        counts
            .iter_mut()
            .find(|(f, _)| *f == inst.format.name())
            .expect("known format")
            .1 += 1;
        instance_json.push(json_instance(inst, &plane, netlist.len(), &runs));
        if largest
            .as_ref()
            .is_none_or(|(_, _, nl)| netlist.len() > nl.len())
        {
            largest = Some((inst.name.clone(), plane, netlist));
        }
    }

    let (eco_name, eco_plane, eco_netlist) = largest.expect("at least one instance");
    let eco = eco_bench(&eco_name, &eco_plane, &eco_netlist, 8);
    println!(
        "  eco on {}: {} edits, p50 {:.2}ms p95 {:.2}ms, invalidated mean {:.1} max {}",
        eco.instance,
        eco.edits,
        eco.edit_p50_ms,
        eco.edit_p95_ms,
        eco.invalidated_mean,
        eco.invalidated_max
    );

    let json = json_record(&rev, cores, &counts, &instance_json, &eco);
    // Self-check doubles as the vacuity gate: an imported suite that
    // routes nothing fails here, not in a later CI grep.
    if let Err(e) = fleet::validate_record(&json) {
        eprintln!("fleet record failed validation: {e}");
        std::process::exit(1);
    }
    std::fs::write(&out_path, &json).expect("write benchmark json");
    println!("wrote {out_path}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use sadp_geom::DesignRules;
    use sadp_ingest::Format;
    use sadp_serve::json::Json;

    #[test]
    fn names_with_quotes_and_backslashes_still_validate() {
        let plane = RoutingPlane::new(1, 8, 8, DesignRules::node_10nm()).expect("valid plane");
        let run = |threads: usize| RunStats {
            threads,
            wall_s: 0.1,
            report: RoutingReport {
                routed_nets: 1,
                ..RoutingReport::default()
            },
            failed: Vec::new(),
            waves: 0,
            max_wave: 0,
        };
        let runs: Vec<RunStats> = THREADS.iter().map(|&t| run(t)).collect();
        let odd = "dir\\\"quoted\" name";
        let instances: Vec<String> = [Format::Layout, Format::Dsn, Format::Def]
            .into_iter()
            .map(|format| {
                let inst = Instance {
                    name: format!("{odd}.{}", format.name()),
                    path: format!("{odd}.{}", format.name()).into(),
                    format,
                };
                json_instance(&inst, &plane, 1, &runs)
            })
            .collect();
        let eco = EcoStats {
            instance: odd.to_string(),
            nets: 1,
            edits: 2,
            edit_p50_ms: 0.5,
            edit_p95_ms: 0.9,
            invalidated_mean: 1.0,
            invalidated_max: 1,
        };
        let counts = [("layout", 1), ("dsn", 1), ("def", 1)];
        let record = json_record("r\"ev", 2, &counts, &instances, &eco);
        fleet::validate_record(&record).expect("escaped names keep the record valid");
        let root = sadp_serve::json::parse(&record).expect("record parses");
        let Some(Json::Arr(items)) = root.get("instances") else {
            panic!("instances is an array");
        };
        let name = items[0].get("name").and_then(Json::as_str);
        assert_eq!(name, Some("dir\\\"quoted\" name.layout"));
    }
}
