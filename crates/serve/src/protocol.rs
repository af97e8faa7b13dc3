//! The newline-delimited JSON wire protocol of `sadp serve`.
//!
//! Every client request is one JSON object on one line; every server
//! response is one JSON object on one line. A `subscribe` request
//! switches the connection to streaming mode: the server sends the job's
//! event backlog and then live events as JSONL (the same schema as
//! `sadp route --trace`, plus `job_*` lifecycle events from
//! [`sadp_obs::SessionEvent`]), terminated by one `{"done":true,...}`
//! line carrying the final state — and, for a completed job, the report
//! and stage profile.
//!
//! The daemon sends each line in one write with `TCP_NODELAY` set, and
//! so does [`crate::Client`]. Other clients should do the same: a request
//! line written in pieces waits for the daemon's delayed ACK, about
//! 40 ms, before its tail leaves.
//!
//! ## Requests
//!
//! | command | fields | response |
//! |---|---|---|
//! | `ping` | — | `{"ok":true}` |
//! | `submit` | `layout` (text), `priority`? (0-255, lower first, default 100), `threads`?, `node_budget`?, `deadline_ms`? | `{"ok":true,"job":N}` |
//! | `status` | `job` | `{"ok":true,"job":N,"state":...,"steps_done":...,"steps_total":...}` |
//! | `cancel` | `job` | `{"ok":true,"job":N}` |
//! | `resume` | `job` | `{"ok":true,"job":N}` (re-enqueues a cancelled/failed job from its checkpoint) |
//! | `subscribe` | `job` | event stream, then a final `done` line |
//! | `list` | — | `{"ok":true,"jobs":[{...},...]}` |
//! | `edit` | `job`, `script` (edit-script text) | `{"ok":true,"job":N,"results":[...],"routed":...,"failed":...,"undoable":...,"redoable":...}` |
//! | `undo` | `job` | `{"ok":true,"job":N,"routed":...,"failed":...,"undoable":...,"redoable":...}` |
//! | `redo` | `job` | same as `undo` |
//! | `shutdown` | — | `{"ok":true}`; the daemon drains in-flight slices, checkpoints unfinished jobs and exits |
//!
//! Errors are `{"ok":false,"error":"<message>"}`. A submit shed by
//! admission control additionally carries `"overloaded":true`
//! (`{"ok":false,"overloaded":true,"error":...}`) so clients can
//! distinguish "back off and retry" from "your request is wrong".
//!
//! `edit` targets a **completed** job: the daemon lazily opens an ECO
//! session over the job's routed layout ([`sadp_core::eco::EcoSession`])
//! and runs the `script` operations (see
//! [`sadp_core::eco::parse_edit_script`] for the line format). Each
//! `results` entry is either an edit summary
//! (`{"edit":N,"kind":"add_net","invalidated":K,"rerouted":R,"failed":F}`)
//! or `{"op":"undo"}` / `{"op":"redo"}`. `undo`/`redo` requests revert or
//! re-apply one edit. The ECO session lives in memory only — a daemon
//! restart keeps the job's batch result but forgets its edit journal.
//!
//! `node_budget` and `deadline_ms` map onto the router's whole-run
//! budgets ([`RouterConfig::run_node_budget`] /
//! [`RouterConfig::run_deadline_ms`]): a job over budget still finishes
//! with a valid partial result (unrouted nets are reported as
//! `failed_budget`), it is never killed mid-commit.
//!
//! [`RouterConfig::run_node_budget`]: sadp_core::RouterConfig
//! [`RouterConfig::run_deadline_ms`]: sadp_core::RouterConfig

use crate::json::{self, Json, Obj};

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Enqueue a routing job.
    Submit {
        /// The `.layout` text (plane + blockages + nets).
        layout: String,
        /// Queue priority: lower runs first. Defaults to 100.
        priority: u8,
        /// Worker threads for the job's session (defaults to the
        /// server's per-job default).
        threads: Option<usize>,
        /// Whole-run A*-node budget.
        node_budget: Option<u64>,
        /// Whole-run wall-clock deadline in milliseconds.
        deadline_ms: Option<u64>,
    },
    /// Query one job's state and progress.
    Status {
        /// The job id returned by `submit`.
        job: u64,
    },
    /// Stop a job. A running job checkpoints at its next slice boundary.
    Cancel {
        /// The job id.
        job: u64,
    },
    /// Re-enqueue a cancelled (or failed) job; a persisted checkpoint is
    /// picked up automatically.
    Resume {
        /// The job id.
        job: u64,
    },
    /// Stream the job's trace until it reaches a terminal state.
    Subscribe {
        /// The job id.
        job: u64,
    },
    /// Summarize all known jobs.
    List,
    /// Run an ECO edit script against a completed job.
    Edit {
        /// The job id.
        job: u64,
        /// The edit-script text (see `sadp_core::eco::parse_edit_script`).
        script: String,
    },
    /// Revert the most recent edit of a completed job's ECO session.
    Undo {
        /// The job id.
        job: u64,
    },
    /// Re-apply the most recently undone edit.
    Redo {
        /// The job id.
        job: u64,
    },
    /// Drain and exit.
    Shutdown,
}

impl Request {
    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// A message suitable for the `{"ok":false,"error":...}` response:
    /// it names the missing/invalid field or the unknown command.
    pub fn parse(line: &str) -> Result<Request, String> {
        let v = json::parse(line).map_err(|e| format!("request is not valid JSON: {e}"))?;
        let cmd = v
            .get("cmd")
            .and_then(Json::as_str)
            .ok_or("request needs a string `cmd` field")?;
        let job_of = |v: &Json| {
            v.get("job")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("`{cmd}` needs a numeric `job` field"))
        };
        match cmd {
            "ping" => Ok(Request::Ping),
            "submit" => {
                let layout = v
                    .get("layout")
                    .and_then(Json::as_str)
                    .ok_or("`submit` needs a string `layout` field")?
                    .to_string();
                let priority = match v.get("priority") {
                    None => 100,
                    Some(p) => u8::try_from(p.as_u64().ok_or("`priority` must be 0-255")?)
                        .map_err(|_| "`priority` must be 0-255")?,
                };
                let field = |name: &str| -> Result<Option<u64>, String> {
                    match v.get(name) {
                        None | Some(Json::Null) => Ok(None),
                        Some(f) => f
                            .as_u64()
                            .map(Some)
                            .ok_or(format!("`{name}` must be a non-negative integer")),
                    }
                };
                Ok(Request::Submit {
                    layout,
                    priority,
                    threads: field("threads")?.map(|t| t as usize),
                    node_budget: field("node_budget")?,
                    deadline_ms: field("deadline_ms")?,
                })
            }
            "status" => Ok(Request::Status { job: job_of(&v)? }),
            "cancel" => Ok(Request::Cancel { job: job_of(&v)? }),
            "resume" => Ok(Request::Resume { job: job_of(&v)? }),
            "subscribe" => Ok(Request::Subscribe { job: job_of(&v)? }),
            "list" => Ok(Request::List),
            "edit" => Ok(Request::Edit {
                job: job_of(&v)?,
                script: v
                    .get("script")
                    .and_then(Json::as_str)
                    .ok_or("`edit` needs a string `script` field")?
                    .to_string(),
            }),
            "undo" => Ok(Request::Undo { job: job_of(&v)? }),
            "redo" => Ok(Request::Redo { job: job_of(&v)? }),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!(
                "unknown command `{other}` (expected ping, submit, status, \
                 cancel, resume, subscribe, list, edit, undo, redo, or shutdown)"
            )),
        }
    }

    /// Serializes the request as one protocol line (no trailing newline).
    /// This is the client half of the protocol; the CLI and the tests
    /// use it so requests always parse back.
    #[must_use]
    pub fn to_json_line(&self) -> String {
        let cmd = |name: &str| Obj::default().str("cmd", name);
        match self {
            Request::Ping => cmd("ping"),
            Request::Submit {
                layout,
                priority,
                threads,
                node_budget,
                deadline_ms,
            } => {
                let mut out = cmd("submit")
                    .str("layout", layout)
                    .int("priority", *priority);
                if let Some(t) = threads {
                    out = out.int("threads", *t as u64);
                }
                if let Some(n) = node_budget {
                    out = out.int("node_budget", *n);
                }
                if let Some(d) = deadline_ms {
                    out = out.int("deadline_ms", *d);
                }
                out
            }
            Request::Status { job } => cmd("status").int("job", *job),
            Request::Cancel { job } => cmd("cancel").int("job", *job),
            Request::Resume { job } => cmd("resume").int("job", *job),
            Request::Subscribe { job } => cmd("subscribe").int("job", *job),
            Request::List => cmd("list"),
            Request::Edit { job, script } => cmd("edit").int("job", *job).str("script", script),
            Request::Undo { job } => cmd("undo").int("job", *job),
            Request::Redo { job } => cmd("redo").int("job", *job),
            Request::Shutdown => cmd("shutdown"),
        }
        .to_string()
    }
}

/// The standard error response line.
pub fn error_line(message: &str) -> Obj {
    Obj::default().bool("ok", false).str("error", message)
}

/// The admission-control shed response for a submit that found the job
/// queue full: an error line with an extra `"overloaded":true` marker so
/// clients can tell a retryable overload apart from a malformed request.
pub fn overloaded_line(queued: usize, limit: usize) -> Obj {
    Obj::default()
        .bool("ok", false)
        .bool("overloaded", true)
        .str(
            "error",
            &format!(
            "overloaded: {queued} jobs queued (limit {limit}); retry later or raise --max-queue"
        ),
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let requests = [
            Request::Ping,
            Request::Submit {
                layout: "plane 3 32 32\nnet a 0:2,2 0:20,9\n".into(),
                priority: 7,
                threads: Some(2),
                node_budget: Some(1_000_000),
                deadline_ms: None,
            },
            Request::Submit {
                layout: String::new(),
                priority: 100,
                threads: None,
                node_budget: None,
                deadline_ms: None,
            },
            Request::Status { job: 3 },
            Request::Cancel { job: 4 },
            Request::Resume { job: 4 },
            Request::Subscribe { job: 5 },
            Request::List,
            Request::Edit {
                job: 6,
                script: "add x 0:2,2 0:9,2\nundo\nredo\n".into(),
            },
            Request::Undo { job: 6 },
            Request::Redo { job: 6 },
            Request::Shutdown,
        ];
        for req in requests {
            let line = req.to_json_line();
            assert!(!line.contains('\n'), "one line per request: {line}");
            assert_eq!(Request::parse(&line).unwrap(), req, "{line}");
        }
    }

    #[test]
    fn parse_rejects_malformed_requests_with_actionable_messages() {
        let err = Request::parse("not json").unwrap_err();
        assert!(err.contains("not valid JSON"), "{err}");
        let err = Request::parse("{\"cmd\":\"warp\"}").unwrap_err();
        assert!(err.contains("unknown command `warp`"), "{err}");
        assert!(err.contains("submit"), "lists the valid commands: {err}");
        let err = Request::parse("{\"cmd\":\"submit\"}").unwrap_err();
        assert!(err.contains("`layout`"), "{err}");
        let err = Request::parse("{\"cmd\":\"status\"}").unwrap_err();
        assert!(err.contains("`job`"), "{err}");
        let err = Request::parse("{\"cmd\":\"edit\",\"job\":1}").unwrap_err();
        assert!(err.contains("`script`"), "{err}");
        let err = Request::parse("{\"cmd\":\"undo\"}").unwrap_err();
        assert!(err.contains("`job`"), "{err}");
        let err =
            Request::parse("{\"cmd\":\"submit\",\"layout\":\"x\",\"priority\":999}").unwrap_err();
        assert!(err.contains("0-255"), "{err}");
    }

    #[test]
    fn overloaded_line_parses_and_carries_the_marker() {
        let line = overloaded_line(1024, 1024).to_string();
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(v.get("overloaded").and_then(Json::as_bool), Some(true));
        let msg = v.get("error").and_then(Json::as_str).unwrap();
        assert!(msg.contains("1024"), "{msg}");
        assert!(msg.contains("--max-queue"), "{msg}");
    }

    #[test]
    fn error_line_escapes_the_message() {
        let line = error_line("bad \"layout\"\nline 2").to_string();
        assert!(!line.contains('\n'));
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(
            v.get("error").and_then(Json::as_str),
            Some("bad \"layout\"\nline 2")
        );
    }
}
