//! Hostile-client and overload tests for the job daemon, driven over
//! real TCP: oversized request lines, raw garbage bytes, slow-loris
//! half-requests, connection floods, submit floods past `--max-queue`,
//! and crash recovery from corrupted state files. Every case must yield
//! a structured (JSON-parseable) error or shed response — never a
//! panic, a hang, or a silently resurrected job.

use sadp_core::{FaultPlan, IoFault, PersistKind};
use sadp_serve::{json, serve, Client, Json, Request, ServeConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

const TINY_LAYOUT: &str = "plane 3 16 16\nnet a 0:1,1 0:14,14\n";

/// A raw (non-`Client`) connection with a generous client-side read
/// timeout: if the daemon ever stops answering, the test fails with a
/// timeout error instead of hanging the suite.
fn raw_connect(addr: &str) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    stream
        .set_write_timeout(Some(Duration::from_secs(30)))
        .expect("write timeout");
    stream
}

/// Reads one response line and requires it to be valid JSON.
fn read_json_line(reader: &mut BufReader<TcpStream>) -> Json {
    let mut line = String::new();
    let n = reader.read_line(&mut line).expect("daemon answers");
    assert!(n > 0, "daemon closed the connection without a response");
    json::parse(line.trim()).unwrap_or_else(|e| panic!("response is not JSON ({e}): {line:?}"))
}

/// The daemon must still answer a well-formed ping after hostile input.
fn assert_alive(addr: &str) {
    let mut client = Client::connect(addr).expect("daemon accepts connections");
    let resp = client.call(&Request::Ping).expect("daemon answers ping");
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
}

#[test]
fn oversized_request_line_is_refused_with_a_structured_error() {
    let server = serve(ServeConfig {
        workers: 0,
        max_request_bytes: 4096,
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.addr().to_string();

    let mut stream = raw_connect(&addr);
    // 64 KiB of newline-less JSON-ish bytes: the daemon must refuse
    // after its 4 KiB cap without buffering the rest.
    let big = format!(
        "{{\"cmd\":\"submit\",\"layout\":\"{}\"}}",
        "x".repeat(65536)
    );
    stream.write_all(big.as_bytes()).expect("send oversized");
    stream.write_all(b"\n").ok();
    let mut reader = BufReader::new(stream);
    let resp = read_json_line(&mut reader);
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
    let msg = resp.get("error").and_then(Json::as_str).unwrap();
    assert!(msg.contains("4096"), "names the limit: {msg}");
    assert!(msg.contains("--max-request-bytes"), "names the flag: {msg}");
    // The connection is closed, not drained.
    let mut rest = String::new();
    assert_eq!(reader.read_to_string(&mut rest).expect("clean close"), 0);

    assert_alive(&addr);
    server.shutdown();
}

#[test]
fn garbage_bytes_get_classified_errors_and_the_daemon_survives() {
    let server = serve(ServeConfig {
        workers: 0,
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.addr().to_string();

    // Raw non-UTF-8 bytes: structured refusal, then close.
    let mut stream = raw_connect(&addr);
    stream
        .write_all(b"\xff\xfe\x80garbage bytes\x00\x01\n")
        .expect("send garbage");
    let mut reader = BufReader::new(stream);
    let resp = read_json_line(&mut reader);
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
    let msg = resp.get("error").and_then(Json::as_str).unwrap();
    assert!(msg.contains("UTF-8"), "{msg}");

    // Valid UTF-8 that is not JSON / not a known command: classified
    // error, and the connection stays usable for the next request.
    let mut stream = raw_connect(&addr);
    stream
        .write_all(b"GET / HTTP/1.1\n{\"cmd\":\"warp\"}\n{\"cmd\":\"ping\"}\n")
        .expect("send");
    let mut reader = BufReader::new(stream);
    let resp = read_json_line(&mut reader);
    let msg = resp.get("error").and_then(Json::as_str).unwrap();
    assert!(msg.contains("not valid JSON"), "{msg}");
    let resp = read_json_line(&mut reader);
    let msg = resp.get("error").and_then(Json::as_str).unwrap();
    assert!(msg.contains("unknown command"), "{msg}");
    let resp = read_json_line(&mut reader);
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));

    assert_alive(&addr);
    server.shutdown();
}

#[test]
fn deeply_nested_request_is_refused_and_the_daemon_survives() {
    let server = serve(ServeConfig {
        workers: 0,
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.addr().to_string();

    // 64 KiB of brackets, far under the request cap: the parser must
    // refuse the depth instead of overflowing the handler's stack.
    let depth = 32 * 1024;
    let line = format!("{{\"cmd\":{}{}}}\n", "[".repeat(depth), "]".repeat(depth));
    let mut stream = raw_connect(&addr);
    stream
        .write_all(line.as_bytes())
        .expect("send nested request");
    let mut reader = BufReader::new(stream);
    let resp = read_json_line(&mut reader);
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
    let msg = resp.get("error").and_then(Json::as_str).unwrap();
    assert!(msg.contains("nesting deeper than"), "{msg}");

    assert_alive(&addr);
    server.shutdown();
}

#[test]
fn slow_loris_half_request_times_out_with_a_structured_error() {
    let server = serve(ServeConfig {
        workers: 0,
        io_timeout_ms: 300,
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.addr().to_string();

    let mut stream = raw_connect(&addr);
    // Half a request, then silence: the server's read timeout must
    // fire and answer; the handler thread must not stay parked.
    stream
        .write_all(b"{\"cmd\":\"sub")
        .expect("send half request");
    let mut reader = BufReader::new(stream);
    let resp = read_json_line(&mut reader);
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
    let msg = resp.get("error").and_then(Json::as_str).unwrap();
    assert!(msg.contains("timed out"), "{msg}");
    assert!(msg.contains("300"), "names the timeout: {msg}");
    let mut rest = String::new();
    assert_eq!(reader.read_to_string(&mut rest).expect("clean close"), 0);

    assert_alive(&addr);
    server.shutdown();
}

#[test]
fn connection_flood_past_max_conns_is_refused_with_a_structured_error() {
    let server = serve(ServeConfig {
        workers: 0,
        max_conns: 2,
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.addr().to_string();

    // Fill both slots, proving each handler is live with a ping.
    let mut held = Vec::new();
    for _ in 0..2 {
        let mut client = Client::connect(&addr).expect("connect");
        let resp = client.call(&Request::Ping).expect("ping");
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
        held.push(client);
    }
    // Connection 3: structured refusal, then close.
    let stream = raw_connect(&addr);
    let mut reader = BufReader::new(stream);
    let resp = read_json_line(&mut reader);
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
    let msg = resp.get("error").and_then(Json::as_str).unwrap();
    assert!(msg.contains("too many connections"), "{msg}");
    assert!(msg.contains("limit 2"), "{msg}");

    // Dropping a held connection frees its slot (poll briefly: the
    // handler thread notices the close asynchronously).
    drop(held.pop());
    let freed = (0..100).any(|_| {
        std::thread::sleep(Duration::from_millis(10));
        Client::connect(&addr)
            .and_then(|mut c| c.call(&Request::Ping))
            .is_ok()
    });
    assert!(freed, "closing a connection frees a slot");
    server.shutdown();
}

#[test]
fn submit_flood_past_max_queue_is_shed_with_an_overloaded_response() {
    let server = serve(ServeConfig {
        workers: 0, // queue-only: submits accumulate, nothing drains
        max_queue: 2,
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.addr().to_string();

    let submit_line = Request::Submit {
        layout: TINY_LAYOUT.to_string(),
        priority: 100,
        threads: None,
        node_budget: None,
        deadline_ms: None,
    }
    .to_json_line();

    let mut stream = raw_connect(&addr);
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    // The first two fill the queue.
    for i in 0..2 {
        writeln!(stream, "{submit_line}").expect("send submit");
        let resp = read_json_line(&mut reader);
        assert_eq!(
            resp.get("ok").and_then(Json::as_bool),
            Some(true),
            "submit {i} admitted"
        );
    }
    // Every further submit is shed with the overloaded marker.
    for _ in 0..3 {
        writeln!(stream, "{submit_line}").expect("send submit");
        let resp = read_json_line(&mut reader);
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(
            resp.get("overloaded").and_then(Json::as_bool),
            Some(true),
            "shed response carries the overloaded marker: {resp}"
        );
        let msg = resp.get("error").and_then(Json::as_str).unwrap();
        assert!(msg.contains("limit 2"), "{msg}");
    }
    // Non-submit traffic is NOT shed: status still answers.
    writeln!(stream, "{}", Request::Status { job: 1 }.to_json_line()).expect("send status");
    let resp = read_json_line(&mut reader);
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
    server.shutdown();
}

#[test]
fn corrupt_state_files_are_quarantined_not_silently_resurrected() {
    let dir = tempdir("hostile-quarantine");
    // A plausible daemon crash artifact: a valid meta next to a layout
    // that was torn mid-write (the regression case for the old
    // `unwrap_or_default()` which resurrected it as an EMPTY layout).
    std::fs::write(
        dir.join("job-7.meta"),
        "priority=100\nthreads=1\nstate=queued\n",
    )
    .unwrap();
    std::fs::write(dir.join("job-7.layout"), "plane 3 16 16\nnet a 0:1,1 0:").unwrap();

    let server = serve(ServeConfig {
        workers: 1,
        state_dir: Some(dir.clone()),
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");

    // The job surfaces as failed:corrupt-state, never as a routable
    // empty layout.
    let resp = client.call(&Request::Status { job: 7 }).expect("status");
    assert_eq!(
        resp.get("state").and_then(Json::as_str),
        Some("failed:corrupt-state"),
        "{resp}"
    );
    // Its artifacts moved to quarantine/ ...
    assert!(
        dir.join("quarantine").join("job-7.layout").exists(),
        "layout lands in quarantine/"
    );
    assert!(
        dir.join("quarantine").join("job-7.meta").exists(),
        "meta lands in quarantine/"
    );
    // ... and the verdict was re-persisted under the original name.
    let meta = std::fs::read_to_string(dir.join("job-7.meta")).expect("verdict meta");
    assert!(meta.contains("state=failed:corrupt-state"), "{meta}");

    // Resume is refused: there is nothing left to resume from.
    let err = client
        .call(&Request::Resume { job: 7 })
        .expect_err("resume refused");
    assert!(err.to_string().contains("quarantined"), "{err}");

    // The terminal line tells the client what to do.
    let mut sub = Client::connect(&addr).expect("connect");
    let done = sub.subscribe(7, |_| {}).expect("terminal line");
    assert_eq!(
        done.get("state").and_then(Json::as_str),
        Some("failed:corrupt-state")
    );
    let msg = done.get("error").and_then(Json::as_str).unwrap();
    assert!(msg.contains("resubmit"), "{msg}");

    // A fresh submit works: id space was advanced past the corpse.
    let resp = client
        .call(&Request::Submit {
            layout: TINY_LAYOUT.to_string(),
            priority: 100,
            threads: None,
            node_budget: None,
            deadline_ms: None,
        })
        .expect("submit");
    let job = resp.get("job").and_then(Json::as_u64).unwrap();
    assert!(job > 7, "fresh job id {job} must not collide with job 7");
    server.shutdown();

    // Restart on the same dir: the persisted verdict is reloaded as-is
    // (no re-quarantine of files that are no longer there).
    let server = serve(ServeConfig {
        workers: 1,
        state_dir: Some(dir.clone()),
        ..ServeConfig::default()
    })
    .expect("re-bind");
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");
    let resp = client.call(&Request::Status { job: 7 }).expect("status");
    assert_eq!(
        resp.get("state").and_then(Json::as_str),
        Some("failed:corrupt-state")
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn injected_short_write_corruption_is_caught_by_restart_quarantine() {
    // Pick a seed whose plan tears job 1's layout write but leaves its
    // meta write alone — the exact shape of a real torn-write crash.
    let seed = (0..10_000u64)
        .find(|&s| {
            let plan = FaultPlan::new(s);
            plan.io_fault(1, PersistKind::Layout) == Some(IoFault::ShortWrite)
                && plan.io_fault(1, PersistKind::Meta).is_none()
        })
        .expect("some seed tears the layout and spares the meta");

    let dir = tempdir("hostile-faults");
    let server = serve(ServeConfig {
        workers: 0, // queue-only: the job must survive in persisted form
        state_dir: Some(dir.clone()),
        fault_seed: Some(seed),
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");
    let resp = client
        .call(&Request::Submit {
            layout: TINY_LAYOUT.to_string(),
            priority: 100,
            threads: None,
            node_budget: None,
            deadline_ms: None,
        })
        .expect("submit reports success — the torn write is silent");
    assert_eq!(resp.get("job").and_then(Json::as_u64), Some(1));
    server.shutdown();

    // The persisted layout really is torn.
    let torn = std::fs::read_to_string(dir.join("job-1.layout")).expect("layout file exists");
    assert!(torn.len() < TINY_LAYOUT.len(), "short write truncated it");

    // A faultless restart must catch the corruption and quarantine it.
    let server = serve(ServeConfig {
        workers: 1,
        state_dir: Some(dir.clone()),
        ..ServeConfig::default()
    })
    .expect("re-bind");
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");
    let resp = client.call(&Request::Status { job: 1 }).expect("status");
    assert_eq!(
        resp.get("state").and_then(Json::as_str),
        Some("failed:corrupt-state"),
        "{resp}"
    );
    assert!(dir.join("quarantine").join("job-1.layout").exists());
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
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
