//! End-to-end tests for the job daemon: submit/subscribe over real TCP,
//! concurrent jobs, cancel + resume, and restart-from-state-dir — each
//! checked for byte-identical traces / identical reports against a
//! direct in-process route of the same layout.

use sadp_core::{Router, RouterConfig, RoutingReport};
use sadp_grid::io::read_layout;
use sadp_obs::BufferRecorder;
use sadp_serve::{serve, Client, Json, Request, ServeConfig};
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn fixture(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../fixtures/corpus")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Routes the layout directly (no daemon) and returns the report plus
/// the canonical JSONL trace — the byte-level reference for streams.
fn route_direct(layout: &str) -> (RoutingReport, Vec<String>) {
    let (mut plane, netlist) = read_layout(layout).expect("fixture parses");
    let mut router = Router::new(RouterConfig::paper_defaults());
    let mut rec = BufferRecorder::with_flags(true, true);
    let report = router.route_all_with(&mut plane, &netlist, &mut rec);
    let trace: Vec<String> = rec.take_events().iter().map(|e| e.to_json_line()).collect();
    (report, trace)
}

fn submit(client: &mut Client, layout: &str, priority: u8) -> u64 {
    let resp = client
        .call(&Request::Submit {
            layout: layout.to_string(),
            priority,
            // Ignored by the daemon; older clients still send it.
            threads: Some(2),
            node_budget: None,
            deadline_ms: None,
        })
        .expect("submit succeeds");
    resp.get("job").and_then(Json::as_u64).expect("job id")
}

/// Streams a job to completion, returning the router-event lines (the
/// `job_*` lifecycle lines filtered out) and the terminal line.
fn stream_job(addr: &str, job: u64) -> (Vec<String>, Json) {
    let mut client = Client::connect(addr).expect("connect");
    let mut lines = Vec::new();
    let done = client
        .subscribe(job, |line| lines.push(line.to_string()))
        .expect("job reaches a terminal state");
    let router_lines: Vec<String> = lines
        .into_iter()
        .filter(|l| !l.contains("\"event\":\"job_"))
        .collect();
    (router_lines, done)
}

fn report_fields(done: &Json) -> (u64, u64, u64, u64) {
    let report = done.get("report").expect("done line has a report");
    let get = |k: &str| report.get(k).and_then(Json::as_u64).unwrap();
    (
        get("routed_nets"),
        get("wirelength"),
        get("vias"),
        get("nodes_expanded"),
    )
}

#[test]
fn served_job_streams_the_exact_route_trace() {
    let layout = fixture("clock-tree-multi-terminal.layout");
    let (report, want_trace) = route_direct(&layout);

    let server = serve(ServeConfig::default()).expect("bind");
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");
    let job = submit(&mut client, &layout, 100);

    let (trace, done) = stream_job(&addr, job);
    assert_eq!(
        trace, want_trace,
        "served trace must be byte-identical to sadp route --trace"
    );
    assert_eq!(done.get("state").and_then(Json::as_str), Some("done"));
    let (routed, wl, vias, nodes) = report_fields(&done);
    assert_eq!(routed, report.routed_nets as u64);
    assert_eq!(wl, report.wirelength);
    assert_eq!(vias, report.vias);
    assert_eq!(nodes, report.nodes_expanded);
    server.shutdown();
}

#[test]
fn two_concurrent_jobs_interleave_and_both_match_direct_routes() {
    let layout_a = fixture("clock-tree-multi-terminal.layout");
    let layout_b = fixture("odd-cycle-merge-and-cut.layout");
    let (_, want_a) = route_direct(&layout_a);
    let (_, want_b) = route_direct(&layout_b);

    // One worker and small slices: the two jobs MUST interleave, which
    // is exactly what per-job stream isolation has to survive.
    let server = serve(ServeConfig {
        workers: 1,
        slice_steps: 1,
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");
    let job_a = submit(&mut client, &layout_a, 100);
    let job_b = submit(&mut client, &layout_b, 100);

    let ta = {
        let addr = addr.clone();
        std::thread::spawn(move || stream_job(&addr, job_a))
    };
    let (trace_b, done_b) = stream_job(&addr, job_b);
    let (trace_a, done_a) = ta.join().unwrap();
    assert_eq!(trace_a, want_a, "job A trace");
    assert_eq!(trace_b, want_b, "job B trace");
    assert_eq!(done_a.get("state").and_then(Json::as_str), Some("done"));
    assert_eq!(done_b.get("state").and_then(Json::as_str), Some("done"));
    server.shutdown();
}

#[test]
fn priorities_run_strictly_ordered_on_one_worker() {
    let layout = fixture("odd-cycle-merge-and-cut.layout");
    // Queue-only daemon first so the queue is fully formed before any
    // worker exists; then a restart with a worker drains it.
    let dir = tempdir("serve-prio");
    let server = serve(ServeConfig {
        workers: 0,
        state_dir: Some(dir.clone()),
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");
    let low = submit(&mut client, &layout, 200);
    let high = submit(&mut client, &layout, 10);
    server.shutdown();

    let server = serve(ServeConfig {
        workers: 1,
        state_dir: Some(dir),
        ..ServeConfig::default()
    })
    .expect("rebind");
    let addr = server.addr().to_string();
    let (_, done_high) = stream_job(&addr, high);
    let (_, done_low) = stream_job(&addr, low);
    assert_eq!(done_high.get("state").and_then(Json::as_str), Some("done"));
    assert_eq!(done_low.get("state").and_then(Json::as_str), Some("done"));
    assert_eq!(done_high.get("job").and_then(Json::as_u64), Some(high));
    assert_eq!(done_low.get("job").and_then(Json::as_u64), Some(low));
    server.shutdown();
}

#[test]
fn cancel_then_resume_matches_the_uninterrupted_report() {
    let layout = fixture("multi-band-fault-recovery.layout");
    let (want, _) = route_direct(&layout);

    let dir = tempdir("serve-cancel");
    let server = serve(ServeConfig {
        workers: 1,
        slice_steps: 1,
        state_dir: Some(dir),
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");
    let job = submit(&mut client, &layout, 100);

    // Wait for the first routed net, then cancel mid-run.
    {
        let mut sub = Client::connect(&addr).expect("connect");
        let mut saw_progress = false;
        let _ = sub.subscribe(job, |line| {
            if !saw_progress && line.contains("\"event\":\"net_routed\"") {
                saw_progress = true;
                let mut c = Client::connect(&addr).expect("connect");
                c.call(&Request::Cancel { job }).expect("cancel accepted");
            }
        });
        assert!(saw_progress, "job produced progress before cancelling");
    }
    let status = client.call(&Request::Status { job }).expect("status");
    assert_eq!(
        status.get("state").and_then(Json::as_str),
        Some("cancelled")
    );
    assert_eq!(
        status.get("has_checkpoint").and_then(Json::as_bool),
        Some(true)
    );

    client
        .call(&Request::Resume { job })
        .expect("resume accepted");
    let (_, done) = stream_job(&addr, job);
    assert_eq!(done.get("state").and_then(Json::as_str), Some("done"));
    let (routed, wl, vias, _) = report_fields(&done);
    assert_eq!(routed, want.routed_nets as u64, "resumed result identical");
    assert_eq!(wl, want.wirelength);
    assert_eq!(vias, want.vias);
    server.shutdown();
}

#[test]
fn killed_daemon_resumes_mid_job_from_its_state_dir() {
    let layout = fixture("multi-band-fault-recovery.layout");
    let (want, _) = route_direct(&layout);

    let dir = tempdir("serve-restart");
    let server = serve(ServeConfig {
        workers: 1,
        slice_steps: 1,
        state_dir: Some(dir.clone()),
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");
    let job = submit(&mut client, &layout, 100);

    // Shut the daemon down as soon as the job makes progress: the
    // in-flight session must be parked as a checkpoint.
    loop {
        let status = client.call(&Request::Status { job }).expect("status");
        let state = status
            .get("state")
            .and_then(Json::as_str)
            .unwrap()
            .to_string();
        let steps = status.get("steps_done").and_then(Json::as_u64).unwrap();
        if state == "done" || steps >= 1 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    server.shutdown();

    let ckpt = std::fs::read_to_string(dir.join(format!("job-{job}.ckpt"))).ok();
    let finished = std::fs::read_to_string(dir.join(format!("job-{job}.final"))).ok();
    assert!(
        ckpt.is_some() || finished.is_some(),
        "shutdown persisted either a checkpoint or the final result"
    );
    if let Some(ckpt) = &ckpt {
        assert!(ckpt.starts_with("SADPCKPT v5"), "current checkpoint format");
    }

    // Restart on the same state dir: the job finishes with the same
    // result as an uninterrupted route.
    let server = serve(ServeConfig {
        workers: 1,
        slice_steps: 1,
        state_dir: Some(dir),
        ..ServeConfig::default()
    })
    .expect("rebind");
    let addr = server.addr().to_string();
    let (_, done) = stream_job(&addr, job);
    assert_eq!(done.get("state").and_then(Json::as_str), Some("done"));
    let (routed, wl, vias, _) = report_fields(&done);
    assert_eq!(routed, want.routed_nets as u64);
    assert_eq!(wl, want.wirelength);
    assert_eq!(vias, want.vias);
    server.shutdown();
}

/// A checkpoint written by an older build (`SADPCKPT v4`) cannot be
/// loaded; on reload the daemon drops it and re-queues the job from its
/// persisted layout instead of quarantining it, and the job finishes
/// with the uninterrupted result. The job's meta is the older build's
/// too, with the `threads=` line this build no longer writes.
#[test]
fn an_old_version_checkpoint_re_routes_its_job_from_the_layout() {
    let layout = fixture("multi-band-fault-recovery.layout");
    let (want, _) = route_direct(&layout);
    let dir = tempdir("serve-upgrade");
    // A queue-only daemon persists the job without routing it.
    let server = serve(ServeConfig {
        workers: 0,
        state_dir: Some(dir.clone()),
        ..ServeConfig::default()
    })
    .expect("bind");
    let mut client = Client::connect(&server.addr().to_string()).expect("connect");
    let job = submit(&mut client, &layout, 100);
    server.shutdown();
    let ckpt = dir.join(format!("job-{job}.ckpt"));
    std::fs::write(
        &ckpt,
        "SADPCKPT v4\nchecksum 0000000000000000\nfingerprint 0000000000000000\n\
         counters 0 0 0 0 0 0 0 0 0 0 0\nfailed 0\nend\n",
    )
    .expect("write the old checkpoint");
    std::fs::write(
        dir.join(format!("job-{job}.meta")),
        "priority=100\nthreads=2\nstate=queued\n",
    )
    .expect("write the old meta");

    let server = serve(ServeConfig {
        workers: 1,
        slice_steps: 1,
        state_dir: Some(dir.clone()),
        ..ServeConfig::default()
    })
    .expect("rebind");
    let (_, done) = stream_job(&server.addr().to_string(), job);
    assert_eq!(done.get("state").and_then(Json::as_str), Some("done"));
    let (routed, wl, vias, nodes) = report_fields(&done);
    assert_eq!(
        (routed, wl, vias, nodes),
        (
            want.routed_nets as u64,
            want.wirelength,
            want.vias,
            want.nodes_expanded
        )
    );
    assert!(
        !dir.join("quarantine")
            .join(format!("job-{job}.layout"))
            .exists(),
        "the job was not quarantined"
    );
    server.shutdown();
}

#[test]
fn round_trips_do_not_wait_on_delayed_acks() {
    // A line written in pieces waits on Nagle until the peer's delayed
    // ACK fires (~40 ms on Linux), on each side of every round trip:
    // 50 pings would then take over 2 s. One write per line with
    // TCP_NODELAY on both ends costs well under a millisecond each.
    let layout = fixture("multi-band-fault-recovery.layout");
    let (_, want_trace) = route_direct(&layout);
    let server = serve(ServeConfig {
        workers: 1,
        slice_steps: 1,
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");

    let start = Instant::now();
    for _ in 0..50 {
        client.call(&Request::Ping).expect("ping");
    }
    let pings = start.elapsed();
    assert!(pings < Duration::from_secs(1), "50 pings took {pings:?}");

    let start = Instant::now();
    let jobs: Vec<u64> = (0..20).map(|_| submit(&mut client, &layout, 100)).collect();
    let submits = start.elapsed();
    assert!(
        submits < Duration::from_secs(1),
        "20 submits took {submits:?}"
    );

    // Batched subscribe writes still deliver a multi-slice job's whole
    // trace, in order, before its final line.
    let (trace, done) = stream_job(&addr, jobs[0]);
    assert_eq!(trace, want_trace, "streamed trace");
    assert_eq!(done.get("state").and_then(Json::as_str), Some("done"));
    // A fresh connection: the first one sat idle while twenty one-net
    // slice jobs interleaved, long enough in a debug build to reach the
    // daemon's idle timeout.
    let status = Client::connect(&addr)
        .and_then(|mut c| c.call(&Request::Status { job: jobs[0] }))
        .expect("status");
    let steps = status.get("steps_done").and_then(Json::as_u64).unwrap();
    assert!(steps > 1, "the job ran in {steps} slices");
    server.shutdown();
}

#[test]
fn bad_layout_and_unknown_job_fail_with_actionable_errors() {
    let server = serve(ServeConfig::default()).expect("bind");
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");

    let err = client
        .call(&Request::Submit {
            layout: "not a layout".into(),
            priority: 100,
            threads: None,
            node_budget: None,
            deadline_ms: None,
        })
        .unwrap_err();
    assert!(err.to_string().contains("layout rejected"), "{err}");

    let err = client.call(&Request::Status { job: 999 }).unwrap_err();
    assert!(err.to_string().contains("no such job 999"), "{err}");

    let err = client.call(&Request::Cancel { job: 999 }).unwrap_err();
    assert!(err.to_string().contains("no such job 999"), "{err}");
    server.shutdown();
}

#[test]
fn budgeted_job_finishes_with_a_valid_partial_result() {
    let layout = fixture("clock-tree-multi-terminal.layout");
    let server = serve(ServeConfig::default()).expect("bind");
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");
    let resp = client
        .call(&Request::Submit {
            layout,
            priority: 100,
            threads: Some(1),
            node_budget: Some(1), // exhausted immediately
            deadline_ms: None,
        })
        .expect("submit");
    let job = resp.get("job").and_then(Json::as_u64).unwrap();
    let (_, done) = stream_job(&addr, job);
    assert_eq!(done.get("state").and_then(Json::as_str), Some("done"));
    let report = done.get("report").expect("report");
    let failed_budget = report.get("failed_budget").and_then(Json::as_u64).unwrap();
    assert!(failed_budget > 0, "budget of 1 node must trip");
    server.shutdown();
}

/// A unique, self-cleaning temp dir per test (std-only; no tempfile crate).
fn tempdir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU32, Ordering};
    static N: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "sadp-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn eco_verbs_edit_undo_redo_a_done_job() {
    let layout = fixture("clock-tree-multi-terminal.layout");

    // ECO verbs are refused until the job completes. A queue-only
    // daemon (zero workers) pins the job in its unfinished state — on a
    // worker-backed daemon this small layout can finish before the undo
    // request arrives, making the refusal check racy.
    let queue_only = serve(ServeConfig {
        workers: 0,
        ..ServeConfig::default()
    })
    .expect("bind");
    let mut client = Client::connect(&queue_only.addr().to_string()).expect("connect");
    let parked = submit(&mut client, &layout, 100);
    let err = client
        .call(&Request::Undo { job: parked })
        .expect_err("undo on an unfinished job fails");
    assert!(err.to_string().contains("completed job"), "{err}");
    queue_only.shutdown();

    let server = serve(ServeConfig::default()).expect("bind");
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");
    let job = submit(&mut client, &layout, 100);
    stream_job(&addr, job);

    // A fresh session has nothing to undo.
    let err = client
        .call(&Request::Undo { job })
        .expect_err("empty journal");
    assert!(err.to_string().contains("nothing to undo"), "{err}");

    // An edit script: add a net, then move it.
    let resp = client
        .call(&Request::Edit {
            job,
            script: "add eco0 0:30,4 0:44,4\nmove eco0 0:30,2 0:44,2\n".into(),
        })
        .expect("edit succeeds");
    assert_eq!(resp.get("routed").and_then(Json::as_u64), Some(6));
    assert_eq!(resp.get("failed").and_then(Json::as_u64), Some(0));
    assert_eq!(resp.get("undoable").and_then(Json::as_u64), Some(2));
    let results = resp.get("results").expect("edit reports results");
    let rendered = format!("{results}");
    assert!(rendered.contains("\"kind\":\"add_net\""), "{rendered}");
    assert!(rendered.contains("\"kind\":\"move_net\""), "{rendered}");

    // Undo both edits: back to the batch result.
    for left in [1, 0] {
        let resp = client.call(&Request::Undo { job }).expect("undo succeeds");
        assert_eq!(resp.get("undoable").and_then(Json::as_u64), Some(left));
        assert_eq!(resp.get("redoable").and_then(Json::as_u64), Some(2 - left));
    }
    let resp = client
        .call(&Request::Status { job })
        .expect("status succeeds");
    assert_eq!(
        resp.get("state").and_then(Json::as_str),
        Some("done"),
        "ECO edits do not disturb the job lifecycle"
    );

    // Redo one edit, and a bad script line is an error.
    let resp = client.call(&Request::Redo { job }).expect("redo succeeds");
    assert_eq!(resp.get("redoable").and_then(Json::as_u64), Some(1));
    let err = client
        .call(&Request::Edit {
            job,
            script: "frobnicate\n".into(),
        })
        .expect_err("bad script rejected");
    assert!(err.to_string().contains("line 1"), "{err}");

    server.shutdown();
}

#[test]
fn submitted_dsn_is_canonicalised_and_routes_like_its_converted_layout() {
    let dsn = {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../fixtures/imported/led-matrix.dsn");
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
    };
    // The daemon canonicalises the DSN at the door, so the served trace
    // matches a direct route of the converted fixture byte for byte.
    let (_, want_trace) = route_direct(&fixture("imported-dsn-board.layout"));

    let server = serve(ServeConfig::default()).expect("bind");
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");
    let job = submit(&mut client, &dsn, 100);
    let (trace, done) = stream_job(&addr, job);
    assert_eq!(done.get("state").and_then(Json::as_str), Some("done"));
    assert_eq!(
        trace, want_trace,
        "canonicalised DSN must route identically"
    );
    server.shutdown();
}

#[test]
fn submitted_def_without_lef_is_rejected_with_the_subset_message() {
    let def = "VERSION 5.8 ;\nDESIGN d ;\nUNITS DISTANCE MICRONS 1000 ;\n\
               DIEAREA ( 0 0 ) ( 64000 48000 ) ;\nCOMPONENTS 1 ;\n\
               - u1 RAM1 + PLACED ( 4000 4000 ) N ;\nEND COMPONENTS\nEND DESIGN\n";
    let server = serve(ServeConfig::default()).expect("bind");
    let mut client = Client::connect(&server.addr().to_string()).expect("connect");
    let err = client
        .call(&Request::Submit {
            layout: def.to_string(),
            priority: 100,
            threads: None,
            node_budget: None,
            deadline_ms: None,
        })
        .expect_err("DEF with components cannot be served without a LEF");
    let msg = err.to_string();
    assert!(msg.contains("layout rejected"), "{msg}");
    assert!(msg.contains("need a LEF library"), "{msg}");
    server.shutdown();
}
