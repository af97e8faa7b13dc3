//! `serve-fleet`: the daemon's protocol, queue, persistence and ingest.
//!
//! An in-process daemon (`workers = 2`, a state directory under `out/`)
//! receives the ten committed designs (frozen copies under `designs/`)
//! as jobs, in seeded order. DSN is sent raw, so the daemon's ingest
//! runs; the DEF is converted with its LEF sidecar first, because the
//! daemon rejects DEF that needs one. Routing takes milliseconds here,
//! so protocol, queue, persistence and ingest dominate: a router
//! speed-up should leave these numbers flat, and a protocol fix should
//! move only these.
//!
//! Open loop: phases at 8, 16, 32 and 64 jobs/s, each drained before
//! the next. A submitter thread sends on schedule over one connection;
//! a subscriber thread opens one connection per job, in submission
//! order, so at most two connections are open. A job's latency runs
//! from the time it was due to the `done` line its subscriber observes;
//! the generator's lateness is send time minus due time.
//!
//! - set-up: a daemon restart on the state directory the phases left
//!   behind (it reloads and validates every finished job) until its
//!   first `ping` reply, median of [`STARTS`] restarts. A fresh daemon
//!   answers in a fraction of a millisecond, too little work to time
//!   steadily; a restart is what an operator waits for, and it grows
//!   with state;
//! - operation: one job of the 8 jobs/s phase, p50/p90;
//! - quality: overlay and routability over every finished job;
//! - ops: jobs. A job fails if it is refused, ends in a state other
//!   than `done`, or its report differs from the same design routed
//!   in-process.
//!
//! Checks: each design's in-process reference has 0 cut conflicts, and
//! every finished job's report equals its reference.

use crate::session::{self, SessionLayers};
use crate::{end_to_end, median, metric, percentile, ratio, Design, Outcome, Run, Size, Tracer};
use sadp_core::RoutingReport;
use sadp_grid::write_layout;
use sadp_ingest::{lef::read_lef, sidecar_lef};
use sadp_serve::{serve, Client, Json, Request, ServeConfig, ServerHandle};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// The committed designs, relative to `designs/`.
pub(crate) const FLEET: [&str; 10] = [
    "clock_tree.layout",
    "odd_cycle.layout",
    "corpus/clock-tree-multi-terminal.layout",
    "corpus/dense-clock-pad-assist-merge.layout",
    "corpus/imported-dsn-board.layout",
    "corpus/multi-band-fault-recovery.layout",
    "corpus/odd-cycle-merge-and-cut.layout",
    "corpus/sparse-pairs-flanked-pad.layout",
    "imported/led-matrix.dsn",
    "imported/macro-block.def",
];

/// Arrival rates of the phases, jobs per second.
pub(crate) const RATES: [f64; 4] = [8.0, 16.0, 32.0, 64.0];

/// The latency limit of [`max_rate`]: p90 of a phase's jobs.
pub(crate) const P90_LIMIT_MS: f64 = 250.0;

/// The lateness limit of [`max_rate`]: p90 of the generator's lateness.
pub(crate) const LATE_LIMIT_MS: f64 = 50.0;

/// Jobs of the 8 jobs/s phase, whose latencies are `op_p50_ms` and
/// `op_p90_ms`: 100, so that the p90 has 10 jobs beyond it. Whole
/// passes over the ten designs.
const LIGHT_JOBS: usize = 100;

/// Jobs of each faster phase.
const HEAVY_JOBS: usize = 20;

/// Daemon restarts behind `setup_s`.
const STARTS: usize = 25;

/// Pause before each restart. A restart takes about 10 ms; on a shared
/// host a core's speed changes over seconds, so 25 back-to-back restarts
/// would all see the speed of one moment. Spread over 5 s, their median
/// does not.
const RESTART_GAP: Duration = Duration::from_millis(200);

/// Pings on the idle daemon, in a traced run.
const PINGS: usize = 50;

/// In-process routes per design for its direct time.
const DIRECT_ROUTES: usize = 3;

/// One design of the fleet.
struct Fixture {
    /// What the job submits: the file's text, or for a DEF that needs
    /// its LEF, the converted layout.
    wire: String,
    reference: RoutingReport,
    /// Median in-process parse + create + route, seconds.
    direct_s: f64,
}

/// What one phase measured.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Phase {
    /// Arrival rate, jobs per second.
    pub rate: f64,
    /// Due-to-done latency of every job that finished correctly, ms.
    pub latency_ms: Vec<f64>,
    /// Send-minus-due lateness of every submit, ms.
    pub late_ms: Vec<f64>,
    /// Submit-to-ack time of every submit, ms.
    pub ack_ms: Vec<f64>,
    /// `cpu_s` of every finished job, ms.
    pub cpu_ms: Vec<f64>,
    /// Direct in-process time of every finished job's design, ms.
    pub direct_ms: Vec<f64>,
    /// Jobs refused, unfinished or wrong.
    pub failed: usize,
    /// Submits shed by admission control.
    pub shed: usize,
    /// Overlay, routed and total nets summed over finished jobs.
    pub quality: (u64, usize, usize),
}

/// The highest phase rate at which that phase and every slower one meet
/// p90 ≤ [`P90_LIMIT_MS`] and generator lateness p90 ≤
/// [`LATE_LIMIT_MS`] with no failed job; 0 if none does.
#[must_use]
pub(crate) fn max_rate(phases: &[Phase]) -> f64 {
    let mut sorted: Vec<&Phase> = phases.iter().collect();
    sorted.sort_by(|a, b| a.rate.total_cmp(&b.rate));
    let mut best = 0.0;
    for p in sorted {
        let meets = p.failed == 0
            && !p.latency_ms.is_empty()
            && percentile(&p.latency_ms, 0.9) <= P90_LIMIT_MS
            && percentile(&p.late_ms, 0.9) <= LATE_LIMIT_MS;
        if !meets {
            break;
        }
        best = p.rate;
    }
    best
}

fn io_err(what: &str) -> impl Fn(io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// A protocol-level refusal (`{"ok":false}`), as opposed to a broken
/// socket.
fn refused(e: &io::Error) -> bool {
    e.kind() == io::ErrorKind::Other
}

fn load_fleet(dir: &Path) -> Result<Vec<Design>, String> {
    FLEET
        .iter()
        .map(|rel| {
            let path = dir.join("designs").join(rel);
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let lef = match sidecar_lef(&path) {
                Some(lef) => {
                    let t = std::fs::read_to_string(&lef)
                        .map_err(|e| format!("{}: {e}", lef.display()))?;
                    Some(read_lef(&t).map_err(|e| format!("{}: {e}", lef.display()))?)
                }
                None => None,
            };
            Ok(Design {
                name: (*rel).to_string(),
                text,
                lef,
            })
        })
        .collect()
}

/// Whether a `done` line reports `state: done` with the reference's
/// deterministic fields.
fn matches(done: &Json, r: &RoutingReport) -> bool {
    let Some(rep) = done.get("report") else {
        return false;
    };
    let want = [
        ("total_nets", r.total_nets as u64),
        ("routed_nets", r.routed_nets as u64),
        ("wirelength", r.wirelength),
        ("vias", r.vias),
        ("overlay_units", r.overlay_units),
        ("hard_overlay_violations", r.hard_overlay_violations),
        ("cut_conflicts", r.cut_conflicts),
        ("ripups", r.ripups),
        ("failed_budget", r.failed_budget),
        ("nodes_expanded", r.nodes_expanded),
    ];
    done.get("state").and_then(Json::as_str) == Some("done")
        && want
            .iter()
            .all(|&(k, v)| rep.get(k).and_then(Json::as_u64) == Some(v))
}

/// Starts a daemon on `state_dir` and waits for its first `ping` reply;
/// returns how long that took.
fn start(state_dir: PathBuf) -> Result<(ServerHandle, String, Duration), String> {
    let t = Instant::now();
    let handle = serve(ServeConfig {
        workers: 2,
        state_dir: Some(state_dir),
        ..ServeConfig::default()
    })
    .map_err(io_err("daemon start"))?;
    let addr = handle.addr().to_string();
    Client::connect(&addr)
        .and_then(|mut c| c.call(&Request::Ping))
        .map_err(io_err("first ping"))?;
    Ok((handle, addr, t.elapsed()))
}

/// A submitted job and, when its subscriber saw one, the time it
/// subscribed, the time the `done` line arrived, and that line.
type Seen = (Sent, Option<(Instant, Instant, Json)>);

/// A submitted job, as the subscriber thread receives it.
struct Sent {
    fixture: usize,
    due: Instant,
    sent: Instant,
    acked: Instant,
    /// The job id, or the refusal message.
    job: Result<u64, String>,
}

/// One phase: `order.len()` jobs due at `rate`, drained before return.
/// Records per-job spans when tracing.
fn phase(
    addr: &str,
    rate: f64,
    order: &[usize],
    fleet: &[Fixture],
    tracer: &mut Option<Tracer>,
) -> Result<Phase, String> {
    let origin = Instant::now() + Duration::from_millis(10);
    let (tx, rx) = mpsc::channel::<Sent>();
    let (submitted, observed) = std::thread::scope(|s| {
        let submitter = s.spawn(move || -> Result<(), String> {
            let mut client = Client::connect(addr).map_err(io_err("submitter connect"))?;
            for (i, &fixture) in order.iter().enumerate() {
                let due = origin + Duration::from_secs_f64(i as f64 / rate);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let sent = Instant::now();
                let reply = client.call(&Request::Submit {
                    layout: fleet[fixture].wire.clone(),
                    priority: 100,
                    threads: None,
                    node_budget: None,
                    deadline_ms: None,
                });
                let acked = Instant::now();
                let job = match reply {
                    Ok(v) => v
                        .get("job")
                        .and_then(Json::as_u64)
                        .ok_or_else(|| format!("submit reply without a job id: {v}")),
                    Err(e) if refused(&e) => Err(e.to_string()),
                    Err(e) => return Err(format!("submit: {e}")),
                };
                let msg = Sent {
                    fixture,
                    due,
                    sent,
                    acked,
                    job,
                };
                if tx.send(msg).is_err() {
                    return Err("subscriber thread ended early".to_string());
                }
            }
            Ok(())
        });
        let subscriber = s.spawn(move || -> Result<Vec<Seen>, String> {
            let mut seen = Vec::new();
            for sent in rx {
                let done = match sent.job {
                    Ok(id) => {
                        let mut client =
                            Client::connect(addr).map_err(io_err("subscriber connect"))?;
                        let start = Instant::now();
                        match client.subscribe(id, |_| {}) {
                            Ok(done) => Some((start, Instant::now(), done)),
                            Err(e) if refused(&e) => None,
                            Err(e) => return Err(format!("subscribe {id}: {e}")),
                        }
                    }
                    Err(_) => None,
                };
                seen.push((sent, done));
            }
            Ok(seen)
        });
        (submitter.join(), subscriber.join())
    });
    submitted.map_err(|_| "submitter thread panicked".to_string())??;
    let seen = observed.map_err(|_| "subscriber thread panicked".to_string())??;

    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let mut p = Phase {
        rate,
        latency_ms: Vec::new(),
        late_ms: Vec::new(),
        ack_ms: Vec::new(),
        cpu_ms: Vec::new(),
        direct_ms: Vec::new(),
        failed: 0,
        shed: 0,
        quality: (0, 0, 0),
    };
    for (sent, done) in seen {
        p.late_ms
            .push(ms(sent.sent.saturating_duration_since(sent.due)));
        p.ack_ms.push(ms(sent.acked - sent.sent));
        if let Err(msg) = &sent.job {
            p.shed += usize::from(msg.contains("overloaded"));
        }
        let fixture = &fleet[sent.fixture];
        let Some((subscribed, end, done)) = done else {
            p.failed += 1;
            continue;
        };
        if let Some(t) = tracer.as_mut() {
            let job = t.record("serve.job", sent.due, end, None);
            t.record("serve.submit", sent.sent, sent.acked, Some(job));
            t.record("serve.subscribe", subscribed, end, Some(job));
        }
        if !matches(&done, &fixture.reference) {
            p.failed += 1;
            continue;
        }
        let report = done.get("report");
        let num = |k: &str| {
            report
                .and_then(|r| r.get(k))
                .and_then(Json::as_u64)
                .unwrap_or(0)
        };
        p.latency_ms
            .push(ms(end.saturating_duration_since(sent.due)));
        if let Some(Json::Num(cpu)) = report.and_then(|r| r.get("cpu_s")) {
            p.cpu_ms.push(cpu * 1e3);
        }
        p.direct_ms.push(fixture.direct_s * 1e3);
        p.quality.0 += num("overlay_units");
        p.quality.1 += num("routed_nets") as usize;
        p.quality.2 += num("total_nets") as usize;
    }
    Ok(p)
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir).map_or(0, |entries| {
        entries
            .flatten()
            .map(|e| match e.metadata() {
                Ok(m) if m.is_dir() => dir_bytes(&e.path()),
                Ok(m) => m.len(),
                Err(_) => 0,
            })
            .sum()
    })
}

/// Runs the workload.
///
/// # Errors
///
/// A design failed to load or route in-process, the daemon failed to
/// start, or a connection broke.
pub fn run(run: &Run) -> Result<Outcome, String> {
    let (light, heavy) = match run.size {
        Size::Full => (LIGHT_JOBS, HEAVY_JOBS),
        Size::Toy => (FLEET.len(), FLEET.len()),
    };
    let mut tracer = run.trace.then(Tracer::new);
    let mut out = Outcome::default();
    let mut layers = SessionLayers::default();

    let mut fleet = Vec::new();
    for design in load_fleet(&run.dir)? {
        let wire = if design.lef.is_some() {
            let imported = design.ingest()?;
            write_layout(&imported.plane, &imported.netlist)
        } else {
            design.text.clone()
        };
        let mut direct = Vec::new();
        let mut reference = None;
        for _ in 0..DIRECT_ROUTES {
            let r = session::route(&design, 1, None)?;
            direct.push((r.setup() + r.wall).as_secs_f64());
            reference.get_or_insert(r.report);
        }
        let reference = reference.expect("at least one direct route");
        out.check(
            format!("{} reference has no cut conflicts", design.name),
            reference.cut_conflicts == 0,
            format!("{} cut conflicts", reference.cut_conflicts),
        );
        if let Some(t) = tracer.as_mut() {
            layers.route(&design, t, true)?;
        }
        fleet.push(Fixture {
            direct_s: median(&direct),
            wire,
            reference,
        });
    }

    let state_dir = run
        .dir
        .join("out")
        .join(format!("serve-state-{}", std::process::id()));
    let (handle, addr, _) = start(state_dir.clone())?;
    let result = (|| -> Result<(Vec<f64>, Vec<Phase>), String> {
        let mut pings = Vec::new();
        if let Some(tr) = tracer.as_mut() {
            let mut client = Client::connect(&addr).map_err(io_err("ping connect"))?;
            for _ in 0..PINGS {
                let t = Instant::now();
                client.call(&Request::Ping).map_err(io_err("ping"))?;
                let end = Instant::now();
                tr.record("serve.ping", t, end, None);
                pings.push((end - t).as_secs_f64() * 1e3);
            }
        }

        let mut rng = sadp_geom::Rng::seed_from_u64(run.seed ^ 0x5E_4E);
        let mut next = move || {
            let mut pass: Vec<usize> = (0..FLEET.len()).collect();
            for i in (1..pass.len()).rev() {
                pass.swap(i, rng.index(i + 1));
            }
            pass
        };
        let mut phases = Vec::new();
        for (k, &rate) in RATES.iter().enumerate() {
            let jobs = if k == 0 { light } else { heavy };
            let order: Vec<usize> = (0..jobs / FLEET.len()).flat_map(|_| next()).collect();
            phases.push(phase(&addr, rate, &order, &fleet, &mut tracer)?);
        }
        Ok((pings, phases))
    })();
    handle.shutdown();
    let state_bytes = dir_bytes(&state_dir);
    let restarts = result.and_then(|done| {
        let mut setup = Vec::with_capacity(STARTS);
        for _ in 0..STARTS {
            std::thread::sleep(RESTART_GAP);
            let t = Instant::now();
            let (handle, _, took) = start(state_dir.clone())?;
            handle.shutdown();
            if let Some(tr) = tracer.as_mut() {
                tr.record("serve.restart", t, t + took, None);
            }
            setup.push(took.as_secs_f64());
        }
        Ok((done, setup))
    });
    let _ = std::fs::remove_dir_all(&state_dir);
    let ((pings, phases), setup) = restarts?;

    let light_phase = &phases[0];
    let lat: Vec<f64> = light_phase.latency_ms.iter().map(|ms| ms / 1e3).collect();
    let jobs: usize = phases.iter().map(|p| p.late_ms.len()).sum();
    let failed: usize = phases.iter().map(|p| p.failed).sum();
    let (mut overlay, mut routed, mut total) = (0, 0, 0);
    for p in &phases {
        overlay += p.quality.0;
        routed += p.quality.1;
        total += p.quality.2;
    }
    let all = |f: fn(&Phase) -> &Vec<f64>| -> Vec<f64> {
        phases.iter().flat_map(|p| f(p).iter().copied()).collect()
    };
    let job_p50 = median(&light_phase.latency_ms);
    let cpu_p50 = median(&light_phase.cpu_ms);
    let direct_p50 = median(&light_phase.direct_ms);

    out.ops = jobs as u64;
    out.failed_ops = failed as u64;
    out.check(
        "every finished job reports what the in-process route does",
        failed == phases.iter().map(|p| p.shed).sum::<usize>(),
        format!("{failed} of {jobs} jobs failed"),
    );
    out.samples = vec![("op", lat.len()), ("setup", setup.len())];
    out.metrics = end_to_end(&setup, &lat, overlay, routed, total);
    out.metrics.extend([
        metric("serve.max_rate", max_rate(&phases), "1/s"),
        metric("serve.overhead_ratio", ratio(job_p50, direct_p50), "ratio"),
        metric("serve.cpu_share", ratio(cpu_p50, job_p50), "ratio"),
        metric(
            "serve.shed",
            phases.iter().map(|p| p.shed).sum::<usize>() as f64,
            "count",
        ),
        metric("serve.state_bytes", state_bytes as f64, "bytes"),
        metric("serve.submit_ack_p50_ms", median(&all(|p| &p.ack_ms)), "ms"),
        metric("serve.job_cpu_p50_ms", cpu_p50, "ms"),
        metric("serve.direct_route_p50_ms", direct_p50, "ms"),
    ]);
    for p in &phases {
        let r = p.rate;
        out.metrics.extend([
            metric(format!("serve.p50_ms.r{r}"), median(&p.latency_ms), "ms"),
            metric(
                format!("serve.p90_ms.r{r}"),
                percentile(&p.latency_ms, 0.9),
                "ms",
            ),
            metric(
                format!("serve.late_p90_ms.r{r}"),
                percentile(&p.late_ms, 0.9),
                "ms",
            ),
        ]);
        out.samples.push(("phase", p.late_ms.len()));
    }
    if let Some(t) = &tracer {
        out.check(
            "threads 2 routes like threads 1",
            layers.threads_identical(),
            "every fleet design",
        );
        let ping_p50 = median(&pings);
        out.samples.push(("ping", pings.len()));
        out.metrics.extend([
            metric("serve.rtt_share", ratio(ping_p50, job_p50), "ratio"),
            metric("serve.ping_rtt_p50_ms", ping_p50, "ms"),
        ]);
        out.metrics.extend(layers.metrics(t));
    }
    out.tracer = tracer;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(rate: f64, p90: f64, late: f64, failed: usize) -> Phase {
        Phase {
            rate,
            latency_ms: vec![p90; 10],
            late_ms: vec![late; 10],
            ack_ms: Vec::new(),
            cpu_ms: Vec::new(),
            direct_ms: Vec::new(),
            failed,
            shed: 0,
            quality: (0, 0, 0),
        }
    }

    #[test]
    fn max_rate_is_the_last_rate_before_the_first_miss() {
        let ok = |r| stats(r, 100.0, 5.0, 0);
        assert_eq!(max_rate(&[ok(8.0), ok(16.0), ok(32.0), ok(64.0)]), 64.0);
        // The p90 limit, the lateness limit and a failed job each stop it.
        let slow = stats(32.0, 300.0, 5.0, 0);
        assert_eq!(max_rate(&[ok(8.0), ok(16.0), slow, ok(64.0)]), 16.0);
        let late = stats(16.0, 100.0, 60.0, 0);
        assert_eq!(max_rate(&[ok(8.0), late, ok(32.0)]), 8.0);
        let failing = stats(8.0, 100.0, 5.0, 1);
        assert_eq!(max_rate(&[failing, ok(16.0)]), 0.0);
        // The limits are inclusive, and phase order does not matter.
        let edge = stats(16.0, P90_LIMIT_MS, LATE_LIMIT_MS, 0);
        assert_eq!(max_rate(&[edge, ok(8.0)]), 16.0);
        assert_eq!(max_rate(&[]), 0.0);
    }
}
