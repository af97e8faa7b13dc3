//! The job daemon: a `std::net` TCP server advancing routing sessions.
//!
//! ## Architecture
//!
//! One listener thread accepts connections and spawns one handler thread
//! per connection (requests are line-oriented; see [`crate::protocol`]).
//! A pool of `workers` job threads shares a priority queue of jobs; each
//! worker pops the best ready job, advances its [`RoutingSession`] by one
//! bounded slice ([`ServeConfig::slice_steps`] schedule increments),
//! appends the drained trace events to the job's stream, and re-enqueues
//! the job *behind* its priority class — so several jobs make
//! interleaved progress and one huge job cannot starve the queue.
//!
//! ## Persistence and crash recovery
//!
//! With a [`ServeConfig::state_dir`], every job persists its layout and
//! metadata at submit time and a `SADPCKPT v5` snapshot after every
//! slice (written atomically: temp file + rename). A restarted daemon
//! scans the directory, reloads finished jobs' final results, and
//! re-enqueues unfinished jobs — the router state in their snapshot is
//! loaded as written (no searching) and routing continues from the last
//! slice boundary. Because sessions only pause *between* canonical
//! commits and the load is exact, the resumed result is byte-identical
//! to an uninterrupted run; the streamed trace after a resume is the
//! suffix from the checkpoint on (loading emits no events). A snapshot
//! from an older build (`VersionUnsupported`) is dropped and its job
//! re-routes from the persisted layout, which gives the same result.

use crate::json::{self, Json, Obj};
use crate::protocol::{error_line, overloaded_line, Request};
use sadp_core::eco::{parse_edit_script, EcoSession, OpOutcome};
use sadp_core::{
    FaultPlan, IoFault, PersistKind, RouterConfig, RoutingReport, RoutingSession, SessionStatus,
    Snapshot, SnapshotError, StepBudget,
};
use sadp_grid::io::{read_layout, write_layout};
use sadp_ingest::{ingest_text, Format};
use sadp_obs::SessionEvent;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7463` (port 0 picks a free port;
    /// read the actual one from [`ServerHandle::addr`]).
    pub addr: String,
    /// Job worker threads. `0` makes a queue-only daemon: jobs are
    /// accepted and persisted but never advanced — useful for staging
    /// work to be executed by a later daemon run.
    pub workers: usize,
    /// Directory for job persistence (layouts, metadata, checkpoints,
    /// final results). `None` keeps everything in memory.
    pub state_dir: Option<PathBuf>,
    /// Schedule increments per worker slice. Smaller slices interleave
    /// jobs more fairly and checkpoint more often; larger slices have
    /// less queue overhead.
    pub slice_steps: u64,
    /// Hard cap on one request line's byte length (`--max-request-bytes`).
    /// A longer line gets a structured error and the connection is
    /// closed; the oversized tail is never buffered. `0` disables the
    /// cap (not recommended on an untrusted network).
    pub max_request_bytes: usize,
    /// Socket read/write timeout in milliseconds (`--io-timeout-ms`).
    /// A half-written request followed by silence (slow-loris) times
    /// out with a structured error instead of pinning a handler thread
    /// forever; a subscriber that stops draining its stream is
    /// disconnected the same way. `0` disables the timeouts.
    pub io_timeout_ms: u64,
    /// Maximum concurrently served connections (`--max-conns`).
    /// Connection number `max_conns + 1` is answered with a structured
    /// refusal line and closed immediately. Subscribers count. `0`
    /// disables the cap.
    pub max_conns: usize,
    /// Maximum queued (ready-to-run) jobs (`--max-queue`). A submit
    /// past the cap is shed with `{"ok":false,"overloaded":true,...}`
    /// before the layout is even parsed, so a submit flood costs the
    /// daemon almost nothing. `0` disables admission control.
    pub max_queue: usize,
    /// Deterministic persistence-fault injection (`--faults SEED`):
    /// state-dir writes consult [`FaultPlan::io_fault`] and suffer
    /// seeded short writes / ENOSPC-style failures. A recovery
    /// test-bench, not a production mode.
    pub fault_seed: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            state_dir: None,
            slice_steps: 32,
            max_request_bytes: 16 * 1024 * 1024,
            io_timeout_ms: 10_000,
            max_conns: 256,
            max_queue: 1024,
            fault_seed: None,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum JobState {
    #[default]
    Queued,
    Running,
    Done,
    Cancelled,
    Failed,
}

impl JobState {
    fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Cancelled => "cancelled",
            JobState::Failed => "failed",
        }
    }

    fn parse(name: &str) -> Option<JobState> {
        match name {
            "queued" | "running" => Some(JobState::Queued),
            "done" => Some(JobState::Done),
            "cancelled" => Some(JobState::Cancelled),
            "failed" => Some(JobState::Failed),
            _ => None,
        }
    }
}

/// Parses a persisted/wire state string, splitting a `failed:<reason>`
/// qualifier (e.g. `failed:corrupt-state` from the quarantine path) off
/// the base state.
fn parse_state(name: &str) -> Option<(JobState, Option<String>)> {
    if let Some(reason) = name.strip_prefix("failed:") {
        if reason.is_empty() {
            return None;
        }
        return Some((JobState::Failed, Some(reason.to_string())));
    }
    JobState::parse(name).map(|s| (s, None))
}

/// The reason tag of a job whose persisted artifacts were quarantined.
const CORRUPT_STATE: &str = "corrupt-state";

#[derive(Default)]
struct Job {
    id: u64,
    priority: u8,
    layout: String,
    node_budget: Option<u64>,
    deadline_ms: Option<u64>,
    state: JobState,
    /// Why a failed job failed, when the failure deserves a qualified
    /// state string (`failed:corrupt-state` for quarantined artifacts).
    fail_reason: Option<String>,
    cancel_requested: bool,
    /// The live session, parked between slices. `None` before the first
    /// slice, after a terminal state, and across daemon restarts (the
    /// checkpoint then carries the state).
    session: Option<RoutingSession>,
    /// The latest `SADPCKPT v5` snapshot (mirrored to disk when a state
    /// dir is configured).
    ckpt: Option<String>,
    /// Streamed JSONL lines (router events + `job_*` lifecycle events),
    /// in canonical order. Subscribers read by cursor.
    trace: Vec<String>,
    /// The terminal `{"done":...}` line, once the job finished.
    final_line: Option<String>,
    steps_done: u64,
    steps_total: u64,
    /// The job's ECO session, opened lazily by the first `edit` request
    /// after the job is done. In-memory only: a daemon restart keeps the
    /// batch result but forgets the edit journal.
    eco: Option<Box<EcoSession>>,
    /// An `edit`/`undo`/`redo` holds the session outside the lock while
    /// it routes; concurrent requests are refused instead of queued.
    eco_busy: bool,
}

impl Job {
    fn config(&self) -> RouterConfig {
        let mut config = RouterConfig::paper_defaults();
        config.run_node_budget = self.node_budget.unwrap_or(0);
        config.run_deadline_ms = self.deadline_ms.unwrap_or(0);
        config
    }

    /// The wire state string: the base state, plus the failure reason
    /// qualifier when there is one (`failed:corrupt-state`).
    fn state_string(&self) -> String {
        match (&self.state, &self.fail_reason) {
            (JobState::Failed, Some(reason)) => format!("failed:{reason}"),
            (state, _) => state.name().to_string(),
        }
    }

    /// Appends the job's summary fields (shared by `status` and `list`).
    fn fields(&self, out: Obj) -> Obj {
        out.int("job", self.id)
            .str("state", &self.state_string())
            .int("priority", self.priority)
            .int("steps_done", self.steps_done)
            .int("steps_total", self.steps_total)
    }

    /// Settles the job as failed, with `error` in its final line.
    fn settle_failed(&mut self, error: &str) {
        self.state = JobState::Failed;
        self.trace
            .push(SessionEvent::JobFailed { job: self.id }.to_json_line());
        let line = final_head(self.id, "failed").str("error", error);
        self.final_line = Some(line.to_string());
    }

    /// Settles the job as cancelled.
    fn settle_cancelled(&mut self) {
        self.state = JobState::Cancelled;
        self.trace
            .push(SessionEvent::JobCancelled { job: self.id }.to_json_line());
        self.final_line = Some(final_head(self.id, "cancelled").to_string());
    }
}

struct Core {
    jobs: BTreeMap<u64, Job>,
    /// Ready jobs as `(priority, seq, id)`: lexicographic order gives
    /// strict priority first, then FIFO within a class. Re-enqueued
    /// jobs get a fresh `seq`, which is the round-robin.
    queue: BTreeSet<(u8, u64, u64)>,
    next_id: u64,
    next_seq: u64,
    shutdown: bool,
}

struct Shared {
    core: Mutex<Core>,
    /// Signals workers: queue or shutdown changed.
    work_cv: Condvar,
    /// Signals subscribers: a job's trace or terminal state changed.
    event_cv: Condvar,
    state_dir: Option<PathBuf>,
    slice_steps: u64,
    /// Per-connection limits and admission control (see [`ServeConfig`]).
    max_request_bytes: usize,
    io_timeout: Option<Duration>,
    max_conns: usize,
    max_queue: usize,
    /// Live handler-thread count, for the connection cap.
    conns: AtomicUsize,
    /// Seeded persistence-fault injection, when armed.
    faults: Option<FaultPlan>,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Core> {
        self.core.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn io_fault(&self, job: u64, kind: PersistKind) -> Option<IoFault> {
        self.faults.as_ref().and_then(|p| p.io_fault(job, kind))
    }

    /// Queues a job behind its priority class. Waking a worker is left
    /// to the caller: a protocol handler wakes one only after its reply
    /// is sent (see [`reply_then_wake`]).
    fn enqueue(&self, g: &mut Core, id: u64) {
        let priority = g.jobs[&id].priority;
        let seq = g.next_seq;
        g.next_seq += 1;
        g.queue.insert((priority, seq, id));
    }

    fn persist_meta(&self, job: &Job) {
        let Some(dir) = &self.state_dir else { return };
        let mut meta = format!("priority={}\nstate={}\n", job.priority, job.state_string());
        if let Some(n) = job.node_budget {
            meta.push_str(&format!("node_budget={n}\n"));
        }
        if let Some(d) = job.deadline_ms {
            meta.push_str(&format!("deadline_ms={d}\n"));
        }
        log_io_err(atomic_write(
            &dir.join(format!("job-{}.meta", job.id)),
            &meta,
            self.io_fault(job.id, PersistKind::Meta),
        ));
    }

    fn persist_layout(&self, job: &Job) {
        let Some(dir) = &self.state_dir else { return };
        log_io_err(atomic_write(
            &dir.join(format!("job-{}.layout", job.id)),
            &job.layout,
            self.io_fault(job.id, PersistKind::Layout),
        ));
    }

    fn persist_ckpt(&self, job: &Job) {
        let (Some(dir), Some(ckpt)) = (&self.state_dir, &job.ckpt) else {
            return;
        };
        log_io_err(atomic_write(
            &dir.join(format!("job-{}.ckpt", job.id)),
            ckpt,
            self.io_fault(job.id, PersistKind::Checkpoint),
        ));
    }

    fn persist_final(&self, job: &Job) {
        let (Some(dir), Some(line)) = (&self.state_dir, &job.final_line) else {
            return;
        };
        log_io_err(atomic_write(
            &dir.join(format!("job-{}.final", job.id)),
            line,
            self.io_fault(job.id, PersistKind::Final),
        ));
    }
}

/// A persistence failure must not take the daemon down mid-route; the
/// in-memory state stays authoritative and the next slice retries.
fn log_io_err(r: io::Result<()>) {
    if let Err(e) = r {
        eprintln!("sadp serve: state persistence failed: {e}");
    }
}

/// Writes `text` to `path` via a sibling temp file + rename. An armed
/// fault plan can corrupt the write deterministically: `ShortWrite`
/// truncates the payload but still reports success (a torn write that
/// survives a crash — only a read-back can catch it), `Enospc` fails the
/// write outright and leaves the previous file contents intact.
fn atomic_write(path: &Path, text: &str, fault: Option<IoFault>) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    match fault {
        Some(IoFault::Enospc) => {
            return Err(io::Error::other(format!(
                "injected ENOSPC writing {} (fault plan)",
                path.display()
            )));
        }
        Some(IoFault::ShortWrite) => {
            let keep = FaultPlan::short_write_len(text.len());
            std::fs::write(&tmp, &text.as_bytes()[..keep])?;
        }
        None => std::fs::write(&tmp, text)?,
    }
    std::fs::rename(&tmp, path)
}

/// A running daemon. Dropping the handle does NOT stop the server; call
/// [`ServerHandle::shutdown`] (or send the protocol `shutdown` command
/// and [`ServerHandle::join`]).
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The actually bound address (resolves port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signals shutdown, waits for workers to finish their in-flight
    /// slices, and persists a final checkpoint for every unfinished job
    /// before returning.
    pub fn shutdown(mut self) {
        {
            let mut g = self.shared.lock();
            g.shutdown = true;
            self.shared.work_cv.notify_all();
            self.shared.event_cv.notify_all();
        }
        // Unblock the accept loop.
        let _ = TcpStream::connect(self.addr);
        self.join_inner();
    }

    /// Waits for the daemon to exit (a client must send `shutdown`).
    /// Like [`ServerHandle::shutdown`], persists final checkpoints for
    /// unfinished jobs before returning.
    pub fn join(mut self) {
        self.join_inner();
    }

    fn join_inner(&mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        // All threads are gone: park every live session as a checkpoint
        // so a restarted daemon resumes from the last slice boundary.
        let mut g = self.shared.lock();
        let ids: Vec<u64> = g.jobs.keys().copied().collect();
        for id in ids {
            // Never trust the listing across map mutations: a job that
            // vanished (e.g. a concurrent cancel settled it) is skipped,
            // not unwrapped into a panic.
            let Some(job) = g.jobs.get_mut(&id) else {
                eprintln!("sadp serve: job {id} disappeared during shutdown; skipping");
                continue;
            };
            if let Some(session) = job.session.take() {
                job.ckpt = Some(session.snapshot());
                job.state = JobState::Queued;
                let job = &g.jobs[&id];
                self.shared.persist_ckpt(job);
                self.shared.persist_meta(job);
            }
        }
    }
}

/// Starts the daemon: binds the listener, loads persisted jobs from the
/// state directory, and spawns the worker pool.
///
/// # Errors
///
/// Forwards the bind/listen error; a corrupt state directory entry is
/// skipped with a warning rather than refusing to start.
pub fn serve(config: ServeConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    if let Some(dir) = &config.state_dir {
        std::fs::create_dir_all(dir)?;
    }
    let shared = Arc::new(Shared {
        core: Mutex::new(Core {
            jobs: BTreeMap::new(),
            queue: BTreeSet::new(),
            next_id: 1,
            next_seq: 0,
            shutdown: false,
        }),
        work_cv: Condvar::new(),
        event_cv: Condvar::new(),
        state_dir: config.state_dir.clone(),
        slice_steps: config.slice_steps.max(1),
        max_request_bytes: config.max_request_bytes,
        io_timeout: (config.io_timeout_ms > 0).then(|| Duration::from_millis(config.io_timeout_ms)),
        max_conns: config.max_conns,
        max_queue: config.max_queue,
        conns: AtomicUsize::new(0),
        faults: config.fault_seed.map(FaultPlan::new),
    });
    if let Some(dir) = &config.state_dir {
        load_state(&shared, dir);
    }

    let mut threads = Vec::new();
    for _ in 0..config.workers {
        let shared = Arc::clone(&shared);
        threads.push(std::thread::spawn(move || worker_loop(&shared)));
    }
    {
        let shared = Arc::clone(&shared);
        threads.push(std::thread::spawn(move || accept_loop(&listener, &shared)));
    }
    Ok(ServerHandle {
        addr,
        shared,
        threads,
    })
}

/// Reloads jobs from a previous daemon run. Unfinished jobs re-enter
/// the queue; their checkpoint (if any) is picked up on first slice.
///
/// Every persisted artifact is validated before it is trusted: a job
/// with an unreadable/unparsable meta, layout, checkpoint, or final
/// record has its files moved to `state-dir/quarantine/` (with the
/// reason logged) and is surfaced as `failed:corrupt-state` — never
/// silently resurrected with default-empty state. The one exception is
/// a checkpoint of an unsupported version, which is dropped so the job
/// re-routes from its layout. The quarantine
/// verdict itself is persisted, so later restarts remember it without
/// the (moved) artifacts.
fn load_state(shared: &Arc<Shared>, dir: &Path) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut metas: Vec<(u64, PathBuf)> = Vec::new();
    for entry in entries.flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy().into_owned();
        if let Some(id) = name
            .strip_prefix("job-")
            .and_then(|s| s.strip_suffix(".meta"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            metas.push((id, entry.path()));
        }
    }
    metas.sort_unstable();
    let mut g = shared.lock();
    for (id, meta_path) in metas {
        match load_job(dir, id, &meta_path) {
            Ok(job) => {
                g.next_id = g.next_id.max(id + 1);
                let requeue = job.state == JobState::Queued;
                g.jobs.insert(id, job);
                if requeue {
                    shared.enqueue(&mut g, id);
                }
            }
            Err(reason) => {
                quarantine_job(dir, id, &reason);
                g.next_id = g.next_id.max(id + 1);
                let job = corrupt_state_job(id, &reason);
                // Persist the verdict so the next restart reloads the
                // failed job directly instead of re-quarantining files
                // that are no longer there.
                shared.persist_meta(&job);
                shared.persist_final(&job);
                g.jobs.insert(id, job);
            }
        }
    }
}

/// Loads and validates one persisted job. Any corrupt artifact is an
/// `Err(reason)` — the caller quarantines the job's files.
fn load_job(dir: &Path, id: u64, meta_path: &Path) -> Result<Job, String> {
    let meta = std::fs::read_to_string(meta_path).map_err(|e| format!("meta unreadable: {e}"))?;
    let field = |key: &str| -> Option<String> {
        meta.lines()
            .find_map(|l| l.strip_prefix(&format!("{key}=")))
            .map(str::to_string)
    };
    let state_text = field("state").ok_or("meta has no state field")?;
    let (state, fail_reason) =
        parse_state(&state_text).ok_or(format!("meta has bad state `{state_text}`"))?;
    // Fields are looked up by key, so keys this build no longer writes
    // (the `threads=` line of older state dirs) are read past.
    let mut job = Job {
        id,
        priority: field("priority")
            .and_then(|v| v.parse().ok())
            .unwrap_or(100),
        node_budget: field("node_budget").and_then(|v| v.parse().ok()),
        deadline_ms: field("deadline_ms").and_then(|v| v.parse().ok()),
        state,
        fail_reason,
        ..Job::default()
    };
    if job.fail_reason.is_some() {
        // An already-quarantined job: its artifacts were moved on a
        // previous restart; only the verdict meta/final remain.
        job.final_line = std::fs::read_to_string(dir.join(format!("job-{id}.final"))).ok();
        return Ok(job);
    }
    job.layout = match std::fs::read_to_string(dir.join(format!("job-{id}.layout"))) {
        Ok(text) => {
            read_layout(&text).map_err(|e| format!("layout does not parse: {e}"))?;
            text
        }
        Err(e) => return Err(format!("layout unreadable: {e}")),
    };
    let ckpt_path = dir.join(format!("job-{id}.ckpt"));
    job.ckpt = match std::fs::read_to_string(&ckpt_path) {
        Ok(text) => match Snapshot::parse(&text) {
            Ok(_) => Some(text),
            // An older build's checkpoint cannot be loaded, but the job's
            // layout is intact: drop the checkpoint and route from the
            // start. Routing is deterministic, so the result is the one
            // the interrupted run would have reached.
            Err(SnapshotError::VersionUnsupported { found }) => {
                eprintln!(
                    "sadp serve: job {id}: dropping its `{found}` checkpoint from an \
                     older build; the job re-routes from its layout"
                );
                let _ = std::fs::remove_file(&ckpt_path);
                None
            }
            Err(e) => return Err(format!("checkpoint does not parse: {e}")),
        },
        Err(_) => None,
    };
    job.final_line = match std::fs::read_to_string(dir.join(format!("job-{id}.final"))) {
        Ok(line) => {
            json::parse(line.trim()).map_err(|e| format!("final record does not parse: {e}"))?;
            Some(line)
        }
        Err(_) => None,
    };
    Ok(job)
}

/// Moves every artifact of job `id` into `dir/quarantine/`, logging the
/// reason. Rename failures are logged and the file left behind — the
/// job is still registered as `failed:corrupt-state` either way.
fn quarantine_job(dir: &Path, id: u64, reason: &str) {
    let qdir = dir.join("quarantine");
    if let Err(e) = std::fs::create_dir_all(&qdir) {
        eprintln!("sadp serve: cannot create {}: {e}", qdir.display());
        return;
    }
    eprintln!(
        "sadp serve: job {id}: {reason}; moving its artifacts to {}",
        qdir.display()
    );
    for ext in ["layout", "meta", "ckpt", "final"] {
        let name = format!("job-{id}.{ext}");
        let from = dir.join(&name);
        if !from.exists() {
            continue;
        }
        if let Err(e) = std::fs::rename(&from, qdir.join(&name)) {
            eprintln!("sadp serve: quarantine of {name} failed: {e}");
        }
    }
}

/// The in-memory record of a quarantined job: terminal, resumable only
/// by resubmitting the layout, with the reason in its final line.
fn corrupt_state_job(id: u64, reason: &str) -> Job {
    let error = format!(
        "persisted state was corrupt ({reason}); artifacts quarantined — resubmit the layout"
    );
    let final_line = final_head(id, &format!("failed:{CORRUPT_STATE}")).str("error", &error);
    Job {
        id,
        priority: 100,
        state: JobState::Failed,
        fail_reason: Some(CORRUPT_STATE.to_string()),
        final_line: Some(final_line.to_string()),
        ..Job::default()
    }
}

/// Decrements the live-connection count when a handler thread exits,
/// however it exits.
struct ConnGuard(Arc<Shared>);

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.0.conns.fetch_sub(1, Ordering::SeqCst);
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.lock().shutdown {
            return;
        }
        let Ok(mut stream) = stream else { continue };
        // The wire rule (see `send_lines`): no Nagle on any reply.
        let _ = stream.set_nodelay(true);
        // Admission check before spawning: connection max_conns + 1 is
        // answered with a structured refusal and closed. The refusal
        // write gets a short timeout of its own so a client that never
        // reads cannot wedge the accept loop.
        let active = shared.conns.fetch_add(1, Ordering::SeqCst) + 1;
        if shared.max_conns > 0 && active > shared.max_conns {
            shared.conns.fetch_sub(1, Ordering::SeqCst);
            let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
            let _ = send_line(
                &mut stream,
                error_line(&format!(
                    "too many connections ({} active, limit {}); retry later",
                    active - 1,
                    shared.max_conns
                )),
            );
            continue;
        }
        let shared = Arc::clone(shared);
        // Handler threads are detached: they exit when their client
        // disconnects, misbehaves (oversized line, timeout), or the
        // daemon shuts down.
        std::thread::spawn(move || {
            let _guard = ConnGuard(Arc::clone(&shared));
            let _ = handle_conn(stream, &shared);
        });
    }
}

/// One bounded, timeout-aware request-line read.
enum LineRead {
    /// A complete line (CR/LF stripped).
    Line(String),
    /// Clean end of stream (also: EOF after a partial line — the client
    /// hung up mid-request, nobody is left to answer).
    Eof,
    /// The line exceeded the byte cap before a newline arrived.
    TooLong,
    /// The line is not valid UTF-8.
    NotUtf8,
    /// The socket read timed out (slow-loris or idle keep-alive).
    TimedOut,
    /// Any other socket error.
    Failed(io::Error),
}

/// Reads one `\n`-terminated line, buffering at most `max` bytes. Unlike
/// `BufRead::read_line`, a hostile line can never grow the buffer past
/// the cap, and a read timeout surfaces as [`LineRead::TimedOut`]
/// instead of an opaque error. `max == 0` disables the cap.
fn read_request_line(reader: &mut BufReader<TcpStream>, max: usize) -> LineRead {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let chunk = match reader.fill_buf() {
            Ok(chunk) => chunk,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                return LineRead::TimedOut;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return LineRead::Failed(e),
        };
        if chunk.is_empty() {
            return LineRead::Eof;
        }
        let newline = chunk.iter().position(|&b| b == b'\n');
        let take = newline.unwrap_or(chunk.len());
        if max > 0 && buf.len() + take > max {
            // Consume what we peeked so the refusal write goes out on a
            // socket with no pending input, then stop reading: the
            // connection is closed, never drained.
            let consumed = chunk.len();
            reader.consume(consumed);
            return LineRead::TooLong;
        }
        buf.extend_from_slice(&chunk[..take]);
        let consumed = take + usize::from(newline.is_some());
        reader.consume(consumed);
        if newline.is_some() {
            if buf.last() == Some(&b'\r') {
                buf.pop();
            }
            return match String::from_utf8(buf) {
                Ok(line) => LineRead::Line(line),
                Err(_) => LineRead::NotUtf8,
            };
        }
    }
}

fn handle_conn(stream: TcpStream, shared: &Arc<Shared>) -> io::Result<()> {
    // Slow-loris defense: both directions time out. A half-written
    // request followed by silence gets a structured error and the
    // connection closed; a subscriber that stops draining its stream is
    // disconnected rather than pinning a handler thread forever.
    if let Some(timeout) = shared.io_timeout {
        let _ = stream.set_read_timeout(Some(timeout));
        let _ = stream.set_write_timeout(Some(timeout));
    }
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut out = stream;
    loop {
        let line = match read_request_line(&mut reader, shared.max_request_bytes) {
            LineRead::Line(line) => line,
            LineRead::Eof => return Ok(()),
            LineRead::TooLong => {
                send_line(
                    &mut out,
                    error_line(&format!(
                        "request line exceeds {} bytes; closing the connection \
                         (raise --max-request-bytes for larger layouts)",
                        shared.max_request_bytes
                    )),
                )?;
                // Drain whatever oversized tail already arrived before
                // closing: a close with unread bytes in the receive
                // buffer turns into an RST that can destroy the error
                // line before the client reads it. Non-blocking, so a
                // client that keeps streaming can't pin this thread.
                let _ = out.set_nonblocking(true);
                let mut sink = [0u8; 8192];
                while matches!(reader.get_mut().read(&mut sink), Ok(n) if n > 0) {}
                return Ok(());
            }
            LineRead::NotUtf8 => {
                send_line(
                    &mut out,
                    error_line("request is not valid UTF-8; closing the connection"),
                )?;
                return Ok(());
            }
            LineRead::TimedOut => {
                send_line(
                    &mut out,
                    error_line(&format!(
                        "timed out waiting for a complete request line ({} ms); \
                         closing the connection",
                        shared.io_timeout.map_or(0, |t| t.as_millis() as u64)
                    )),
                )?;
                return Ok(());
            }
            LineRead::Failed(e) => return Err(e),
        };
        if line.trim().is_empty() {
            continue;
        }
        let req = match Request::parse(&line) {
            Ok(req) => req,
            Err(e) => {
                send_line(&mut out, error_line(&e))?;
                continue;
            }
        };
        match req {
            Request::Ping => send_line(&mut out, ok())?,
            Request::Submit {
                layout,
                priority,
                threads: _,
                node_budget,
                deadline_ms,
            } => {
                let resp = submit(shared, layout, priority, node_budget, deadline_ms);
                reply_then_wake(&mut out, shared, resp)?;
            }
            Request::Status { job } => {
                let g = shared.lock();
                let resp = match g.jobs.get(&job) {
                    Some(j) => j.fields(ok()).bool("has_checkpoint", j.ckpt.is_some()),
                    None => error_line(&format!("no such job {job}")),
                };
                drop(g);
                send_line(&mut out, resp)?;
            }
            Request::Cancel { job } => send_line(&mut out, cancel(shared, job))?,
            Request::Resume { job } => reply_then_wake(&mut out, shared, resume(shared, job))?,
            Request::List => {
                let g = shared.lock();
                let resp = ok().arr("jobs", g.jobs.values().map(|j| j.fields(Obj::default())));
                drop(g);
                send_line(&mut out, resp)?;
            }
            Request::Edit { job, script } => {
                send_line(&mut out, eco_op(shared, job, &EcoOp::Edit(script)))?;
            }
            Request::Undo { job } => send_line(&mut out, eco_op(shared, job, &EcoOp::Undo))?,
            Request::Redo { job } => send_line(&mut out, eco_op(shared, job, &EcoOp::Redo))?,
            Request::Subscribe { job } => {
                return subscribe(shared, job, out);
            }
            Request::Shutdown => {
                send_line(&mut out, ok())?;
                {
                    let mut g = shared.lock();
                    g.shutdown = true;
                    shared.work_cv.notify_all();
                    shared.event_cv.notify_all();
                }
                // The accept loop is blocked in `incoming()`; this
                // connection's server-side local address IS the listen
                // address, so a dummy connect wakes it to observe the
                // shutdown flag.
                if let Ok(addr) = out.local_addr() {
                    let _ = TcpStream::connect(addr);
                }
                return Ok(());
            }
        }
    }
}

fn submit(
    shared: &Arc<Shared>,
    layout: String,
    priority: u8,
    node_budget: Option<u64>,
    deadline_ms: Option<u64>,
) -> Obj {
    // Admission control first, BEFORE the layout parse: shedding a
    // submit during overload must cost the daemon a queue-length check,
    // not a full parse of however many megabytes the flood is pushing.
    {
        let g = shared.lock();
        if g.shutdown {
            return error_line("daemon is shutting down");
        }
        if shared.max_queue > 0 && g.queue.len() >= shared.max_queue {
            return overloaded_line(g.queue.len(), shared.max_queue);
        }
    }
    // Validate the layout up front so a typo'd submit fails on the spot
    // with the parser's line-numbered message, not later in the queue.
    // Non-native formats (Specctra DSN, DEF) are canonicalised to
    // layout text at the door, so queued and persisted jobs are always
    // the native format and the resume/checkpoint paths stay untouched.
    // A DEF whose components need a LEF library is rejected here: the
    // daemon receives bare text and has no sidecar file to consult.
    let (layout, nets) = match ingest_text(&layout, None, None) {
        Ok(imported) => {
            let nets = imported.netlist.len() as u64;
            let text = if imported.format == Format::Layout {
                layout
            } else {
                write_layout(&imported.plane, &imported.netlist)
            };
            (text, nets)
        }
        Err(e) => return error_line(&format!("layout rejected: {e}")),
    };
    let mut g = shared.lock();
    if g.shutdown {
        return error_line("daemon is shutting down");
    }
    // Re-check under the lock: the queue may have filled while we were
    // parsing (admission is advisory outside the lock, binding inside).
    if shared.max_queue > 0 && g.queue.len() >= shared.max_queue {
        return overloaded_line(g.queue.len(), shared.max_queue);
    }
    let id = g.next_id;
    g.next_id += 1;
    let mut job = Job {
        id,
        priority,
        layout,
        node_budget,
        deadline_ms,
        ..Job::default()
    };
    job.trace.push(
        SessionEvent::JobSubmitted {
            job: id,
            priority,
            nets,
        }
        .to_json_line(),
    );
    shared.persist_layout(&job);
    shared.persist_meta(&job);
    g.jobs.insert(id, job);
    shared.enqueue(&mut g, id);
    shared.event_cv.notify_all();
    ok().int("job", id)
}

fn cancel(shared: &Arc<Shared>, id: u64) -> Obj {
    let mut g = shared.lock();
    let Some(job) = g.jobs.get_mut(&id) else {
        return error_line(&format!("no such job {id}"));
    };
    match job.state {
        JobState::Done | JobState::Failed | JobState::Cancelled => {
            return error_line(&format!(
                "job {id} is already {} and cannot be cancelled",
                job.state.name()
            ));
        }
        JobState::Queued => {
            // Not started (or parked between slices): settle it here.
            if let Some(session) = job.session.take() {
                job.ckpt = Some(session.snapshot());
            }
            job.settle_cancelled();
            let job = &g.jobs[&id];
            shared.persist_ckpt(job);
            shared.persist_meta(job);
            shared.persist_final(job);
            g.queue.retain(|&(_, _, j)| j != id);
            shared.event_cv.notify_all();
        }
        JobState::Running => {
            // A worker owns the session; it cancels at the slice
            // boundary and writes the final checkpoint.
            job.cancel_requested = true;
        }
    }
    ok().int("job", id)
}

fn resume(shared: &Arc<Shared>, id: u64) -> Obj {
    let mut g = shared.lock();
    let Some(job) = g.jobs.get_mut(&id) else {
        return error_line(&format!("no such job {id}"));
    };
    match job.state {
        JobState::Cancelled | JobState::Failed => {
            if job.fail_reason.as_deref() == Some(CORRUPT_STATE) {
                // Nothing left to resume: the layout itself was moved to
                // quarantine. Only a fresh submit can revive this work.
                return error_line(&format!(
                    "job {id} failed with corrupt persisted state; its artifacts \
                     were quarantined — resubmit the layout"
                ));
            }
            job.state = JobState::Queued;
            job.fail_reason = None;
            job.cancel_requested = false;
            job.final_line = None;
            if let Some(dir) = &shared.state_dir {
                let _ = std::fs::remove_file(dir.join(format!("job-{id}.final")));
            }
            shared.persist_meta(&g.jobs[&id]);
            shared.enqueue(&mut g, id);
            ok().int("job", id)
        }
        JobState::Queued | JobState::Running => ok().int("job", id),
        JobState::Done => error_line(&format!("job {id} is already done")),
    }
}

/// One ECO request against a completed job.
enum EcoOp {
    Edit(String),
    Undo,
    Redo,
}

/// Runs an `edit`/`undo`/`redo` request. The session is taken out of the
/// job and driven outside the lock (an edit re-routes nets, which can
/// take a while); a concurrent ECO request on the same job is refused.
fn eco_op(shared: &Arc<Shared>, id: u64, op: &EcoOp) -> Obj {
    // Phase 1: claim the job's ECO session (or the makings of one).
    let (eco, layout, config) = {
        let mut g = shared.lock();
        let Some(job) = g.jobs.get_mut(&id) else {
            return error_line(&format!("no such job {id}"));
        };
        if job.state != JobState::Done {
            return error_line(&format!(
                "job {id} is {}; ECO edits need a completed job",
                job.state.name()
            ));
        }
        if job.eco_busy {
            return error_line(&format!("job {id} has an ECO request in progress"));
        }
        job.eco_busy = true;
        (job.eco.take(), job.layout.clone(), job.config())
    };
    let release = |eco: Option<Box<EcoSession>>, events: Vec<String>| {
        let mut g = shared.lock();
        if let Some(job) = g.jobs.get_mut(&id) {
            job.eco = eco;
            job.eco_busy = false;
            job.trace.extend(events);
            if !job.trace.is_empty() {
                shared.event_cv.notify_all();
            }
        }
    };

    // Phase 2: bring the session up (first request routes the layout
    // from scratch — deterministic, so it reproduces the job's result).
    let mut eco = match eco {
        Some(eco) => eco,
        None => {
            let built = read_layout(&layout)
                .map_err(|e| format!("layout rejected: {e}"))
                .and_then(|(plane, netlist)| {
                    EcoSession::create(config, plane, netlist, true).map_err(|e| e.to_string())
                });
            match built {
                Ok(mut eco) => {
                    // The batch events duplicate the job's original
                    // trace; only edit events should stream.
                    let _ = eco.drain_events();
                    Box::new(eco)
                }
                Err(message) => {
                    release(None, Vec::new());
                    return error_line(&format!("job {id}: {message}"));
                }
            }
        }
    };

    // Phase 3: the operation itself.
    let mut results = Vec::new();
    let outcome: Result<(), String> = match op {
        EcoOp::Undo => eco.undo().map_err(|e| e.to_string()),
        EcoOp::Redo => eco.redo().map_err(|e| e.to_string()),
        EcoOp::Edit(script) => parse_edit_script(script)
            .map_err(|e| e.to_string())
            .and_then(|ops| {
                // One at a time: ops before a failure stay applied and
                // reported.
                for op in &ops {
                    match eco.run_script(std::slice::from_ref(op)) {
                        Ok(outcomes) => results.push(match &outcomes[0] {
                            OpOutcome::Edit(e) => Obj::default()
                                .int("edit", e.edit)
                                .str("kind", e.kind.name())
                                .int("invalidated", e.invalidated.len() as u64)
                                .int("rerouted", e.rerouted)
                                .int("failed", e.failed),
                            OpOutcome::Undo => Obj::default().str("op", "undo"),
                            OpOutcome::Redo => Obj::default().str("op", "redo"),
                        }),
                        Err(e) => return Err(e.to_string()),
                    }
                }
                Ok(())
            }),
    };

    let (routed, failed, _) = eco.stats();
    let (undoable, redoable) = (eco.undo_depth(), eco.redo_depth());
    let events: Vec<String> = eco
        .drain_events()
        .iter()
        .map(sadp_obs::RouterEvent::to_json_line)
        .collect();
    release(Some(eco), events);
    match outcome {
        Err(message) => error_line(&format!("job {id}: {message}")),
        Ok(()) => {
            let mut resp = ok().int("job", id);
            if let EcoOp::Edit(_) = op {
                resp = resp.arr("results", results);
            }
            resp.int("routed", routed as u64)
                .int("failed", failed as u64)
                .int("undoable", undoable as u64)
                .int("redoable", redoable as u64)
        }
    }
}

fn subscribe(shared: &Arc<Shared>, id: u64, mut out: TcpStream) -> io::Result<()> {
    if !shared.lock().jobs.contains_key(&id) {
        return send_line(&mut out, error_line(&format!("no such job {id}")));
    }
    let mut cursor = 0usize;
    loop {
        let (mut lines, final_line, ended) = {
            let mut g = shared.lock();
            loop {
                let job = &g.jobs[&id];
                if job.trace.len() > cursor || job.final_line.is_some() || g.shutdown {
                    break;
                }
                g = shared.event_cv.wait(g).unwrap_or_else(|e| e.into_inner());
            }
            let job = &g.jobs[&id];
            let lines: Vec<String> = job.trace[cursor..].to_vec();
            cursor = job.trace.len();
            (lines, job.final_line.clone(), g.shutdown)
        };
        // One write per wake-up: the trace lines gathered under the
        // lock, then the closing line if the stream ends here.
        let closing = final_line.or_else(|| {
            ended.then(|| {
                error_line("daemon is shutting down; job checkpointed for the next run").to_string()
            })
        });
        let last = closing.is_some();
        lines.extend(closing);
        send_lines(&mut out, &lines)?;
        if last {
            return Ok(());
        }
    }
}

/// What a worker needs to bring a job's session to life, gathered under
/// the lock and executed outside it.
enum SliceWork {
    Advance(Box<RoutingSession>),
    Create {
        layout: String,
        config: RouterConfig,
        ckpt: Option<String>,
    },
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        // Pop the best ready job.
        let (id, work) = {
            let mut g = shared.lock();
            let key = loop {
                if g.shutdown {
                    return;
                }
                if let Some(&key) = g.queue.iter().next() {
                    g.queue.remove(&key);
                    break key;
                }
                g = shared.work_cv.wait(g).unwrap_or_else(|e| e.into_inner());
            };
            let id = key.2;
            let Some(job) = g.jobs.get_mut(&id) else {
                continue;
            };
            if !matches!(job.state, JobState::Queued | JobState::Running) {
                // A cancel settled the job while it sat in the queue.
                continue;
            }
            let first_slice = job.state == JobState::Queued && job.session.is_none();
            job.state = JobState::Running;
            let work = match job.session.take() {
                Some(session) => SliceWork::Advance(Box::new(session)),
                None => SliceWork::Create {
                    layout: job.layout.clone(),
                    config: job.config(),
                    ckpt: job.ckpt.clone(),
                },
            };
            if first_slice {
                job.trace
                    .push(SessionEvent::JobStarted { job: id }.to_json_line());
                shared.event_cv.notify_all();
            }
            (id, work)
        };

        // Bring the session up (parsing and loading the checkpoint are
        // the expensive parts; they run without the lock).
        let mut session = match work {
            SliceWork::Advance(session) => *session,
            SliceWork::Create {
                layout,
                config,
                ckpt,
            } => match create_session(&layout, config, ckpt.as_deref()) {
                Ok((session, resumed_nets)) => {
                    if let Some(nets_replayed) = resumed_nets {
                        let mut g = shared.lock();
                        if let Some(job) = g.jobs.get_mut(&id) {
                            job.trace.push(
                                SessionEvent::JobResumed {
                                    job: id,
                                    nets_replayed,
                                }
                                .to_json_line(),
                            );
                        }
                        shared.event_cv.notify_all();
                    }
                    session
                }
                Err(message) => {
                    let mut g = shared.lock();
                    if let Some(job) = g.jobs.get_mut(&id) {
                        job.settle_failed(&message);
                        let job = &g.jobs[&id];
                        shared.persist_meta(job);
                        shared.persist_final(job);
                    }
                    shared.event_cv.notify_all();
                    continue;
                }
            },
        };

        // One bounded slice.
        let status = session.advance(StepBudget::steps(shared.slice_steps));
        let events = session.drain_events();
        let (steps_done, steps_total) = session.progress();

        let mut g = shared.lock();
        let shutting_down = g.shutdown;
        let Some(job) = g.jobs.get_mut(&id) else {
            continue;
        };
        job.steps_done = steps_done;
        job.steps_total = steps_total;
        for ev in &events {
            job.trace.push(ev.to_json_line());
        }
        match status {
            SessionStatus::Done(report) => {
                job.state = JobState::Done;
                job.ckpt = None;
                job.trace.push(
                    SessionEvent::JobDone {
                        job: id,
                        routed: report.routed_nets as u64,
                        failed: (report.total_nets - report.routed_nets) as u64,
                    }
                    .to_json_line(),
                );
                job.final_line = Some(done_line(id, &report));
                let job = &g.jobs[&id];
                shared.persist_meta(job);
                shared.persist_final(job);
                if let Some(dir) = &shared.state_dir {
                    let _ = std::fs::remove_file(dir.join(format!("job-{id}.ckpt")));
                }
            }
            SessionStatus::Running | SessionStatus::CheckpointReady => {
                if job.cancel_requested {
                    session.cancel();
                    job.ckpt = Some(session.snapshot());
                    job.cancel_requested = false;
                    job.settle_cancelled();
                    let job = &g.jobs[&id];
                    shared.persist_ckpt(job);
                    shared.persist_meta(job);
                    shared.persist_final(job);
                } else if shutting_down {
                    // Park the session; join_inner persists it.
                    job.session = Some(session);
                } else {
                    // Every slice boundary is checkpoint-aligned; persist
                    // it when there is a state dir (cancel and shutdown
                    // take their own snapshot) and rotate to the back of
                    // the priority class so concurrent jobs interleave.
                    if shared.state_dir.is_some() {
                        job.ckpt = Some(session.snapshot());
                        shared.persist_ckpt(job);
                    }
                    job.session = Some(session);
                    shared.enqueue(&mut g, id);
                    shared.work_cv.notify_one();
                }
            }
            SessionStatus::Failed(e) => {
                // Unreachable in practice: workers never advance a
                // cancelled session. Settle the job anyway.
                job.settle_failed(&e.to_string());
                let job = &g.jobs[&id];
                shared.persist_meta(job);
                shared.persist_final(job);
            }
        }
        shared.event_cv.notify_all();
    }
}

/// Builds (or resumes) the session for one job. Returns the session and,
/// for a resume, the number of routed nets the checkpoint restored.
fn create_session(
    layout: &str,
    config: RouterConfig,
    ckpt: Option<&str>,
) -> Result<(RoutingSession, Option<u64>), String> {
    let (plane, netlist) = read_layout(layout).map_err(|e| format!("layout rejected: {e}"))?;
    match ckpt {
        None => {
            let session = RoutingSession::create(config, plane, netlist, true, true)
                .map_err(|e| e.to_string())?;
            Ok((session, None))
        }
        Some(text) => {
            let snap = Snapshot::parse(text).map_err(|e| format!("checkpoint rejected: {e}"))?;
            let session = RoutingSession::resume(config, plane, netlist, &snap, true, true)
                .map_err(|e| e.to_string())?;
            let replayed = session.router().ledger().routed().len() as u64;
            Ok((session, Some(replayed)))
        }
    }
}

fn done_line(id: u64, report: &RoutingReport) -> String {
    let summary = Obj::default()
        .int("total_nets", report.total_nets as u64)
        .int("routed_nets", report.routed_nets as u64)
        .int("wirelength", report.wirelength)
        .int("vias", report.vias)
        .int("overlay_units", report.overlay_units)
        .int("hard_overlay_violations", report.hard_overlay_violations)
        .int("cut_conflicts", report.cut_conflicts)
        .int("ripups", report.ripups)
        .int("failed_budget", report.failed_budget)
        .int("nodes_expanded", report.nodes_expanded)
        .secs("cpu_s", report.cpu);
    final_head(id, "done")
        .obj("report", summary)
        .obj("profile", report.profile.to_json())
        .to_string()
}

/// Sends one protocol line; see [`send_lines`].
fn send_line(out: &mut impl Write, line: impl fmt::Display) -> io::Result<()> {
    send_lines(out, [line])
}

/// Sends protocol lines, each `\n`-terminated, in one `write_all`: the
/// only way the daemon and [`Client`] put bytes on a socket.
///
/// The wire rule is one write per line (or per batch of lines) on a
/// socket with `TCP_NODELAY` set at both ends. `writeln!` on a raw
/// `TcpStream` issues a `write` per formatted piece, so a line leaves as
/// several small segments; Nagle's algorithm then holds the tail until
/// the peer's delayed ACK fires, about 40 ms later, and every round trip
/// pays that stall instead of the route it asked for.
fn send_lines<L: fmt::Display>(
    out: &mut impl Write,
    lines: impl IntoIterator<Item = L>,
) -> io::Result<()> {
    let mut buf = String::new();
    for line in lines {
        buf.push_str(&line.to_string());
        buf.push('\n');
    }
    out.write_all(buf.as_bytes())
}

/// Sends the reply to a request that may have queued a job, then wakes a
/// worker for it. In that order: the woken worker can preempt this thread
/// on a busy host, and a reply sent after the wake-up would wait out the
/// worker's whole slice.
fn reply_then_wake(out: &mut impl Write, shared: &Shared, reply: Obj) -> io::Result<()> {
    let sent = send_line(out, reply);
    shared.work_cv.notify_one();
    sent
}

/// The head of every success response: `{"ok":true,...}`.
fn ok() -> Obj {
    Obj::default().bool("ok", true)
}

/// The head of a job's terminal line: `{"done":true,"job":N,"state":...}`.
fn final_head(id: u64, state: &str) -> Obj {
    Obj::default()
        .bool("done", true)
        .int("job", id)
        .str("state", state)
}

/// Parses one response line; an `{"ok":false,...}` refusal becomes an
/// error carrying the server's message.
fn parse_response(line: &str) -> io::Result<Json> {
    let v = json::parse(line).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    if v.get("ok").and_then(Json::as_bool) == Some(false) {
        let msg = v.get("error").and_then(Json::as_str);
        return Err(io::Error::other(
            msg.unwrap_or("unknown server error").to_string(),
        ));
    }
    Ok(v)
}

/// A line-oriented protocol client (the `sadp submit` / `sadp job` half;
/// also the in-process test harness).
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to a daemon.
    ///
    /// # Errors
    ///
    /// Forwards the connect error.
    pub fn connect(addr: &str) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Sends one request and reads one response line.
    ///
    /// # Errors
    ///
    /// Socket errors, or a protocol-level `{"ok":false}` response
    /// (returned as the error message).
    pub fn call(&mut self, req: &Request) -> io::Result<Json> {
        send_line(&mut self.writer, req.to_json_line())?;
        parse_response(&self.read_line()?)
    }

    /// Reads one line (for streaming `subscribe` responses).
    ///
    /// # Errors
    ///
    /// Socket errors; a closed connection is `UnexpectedEof`.
    pub fn read_line(&mut self) -> io::Result<String> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(line)
    }

    /// Sends `subscribe` and streams lines into `on_line` until the
    /// terminal `{"done":...}` line, which is returned parsed.
    ///
    /// # Errors
    ///
    /// Socket errors, or an `{"ok":false}` line (e.g. unknown job or
    /// daemon shutdown), returned as the error message.
    pub fn subscribe(&mut self, job: u64, mut on_line: impl FnMut(&str)) -> io::Result<Json> {
        send_line(&mut self.writer, Request::Subscribe { job }.to_json_line())?;
        loop {
            let line = self.read_line()?;
            let v = parse_response(&line)?;
            if v.get("done").is_some() {
                return Ok(v);
            }
            on_line(&line);
        }
    }
}
