//! Structure-aware fuzzing of the untrusted-bytes surface: the
//! `sadp serve` wire protocol and the DSN/DEF/LEF/layout ingest parsers.
//!
//! The router-core campaign ([`crate::run_campaign`]) generates *valid*
//! instances and checks semantic invariants; this module does the
//! opposite — it mutates *real* inputs (seed corpora drawn from the
//! repo's fixtures) into hostile ones and checks the total-function
//! contract of every parser that faces raw network bytes:
//!
//! * **no panics** — every mutated input is parsed under
//!   `catch_unwind`; a panic is a campaign failure,
//! * **classified errors** — a rejected input must carry a non-empty
//!   error message,
//! * **determinism** — parsing the same input twice must classify it
//!   identically (byte-equal error messages),
//! * **round-trip** — a wire request that parses must re-serialize and
//!   re-parse to the same request,
//! * **live daemon discipline** (protocol regime) — each input is also
//!   written to a real in-process daemon over TCP; the daemon must
//!   answer every probe with one parseable JSON line within the
//!   deadline — no hang, no crash, no garbage.
//!
//! Everything is a pure function of `(regime, seed)`: the same seed
//! range replays the same inputs and the same verdicts on every machine.

use crate::oracle::panic_message;
use sadp_geom::Rng;
use sadp_ingest::ingest_text;
use sadp_serve::protocol::Request;
use sadp_serve::server::{serve, ServeConfig, ServerHandle};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// Which untrusted-input surface a campaign seed targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireRegime {
    /// `sadp serve` request lines (newline-delimited JSON).
    Protocol,
    /// Specctra DSN boards (s-expression subset).
    Dsn,
    /// DEF placed designs.
    Def,
    /// LEF macro libraries (ingested standalone: always a classified
    /// error, never a crash).
    Lef,
    /// Native `.layout` text.
    Layout,
}

impl WireRegime {
    /// Every regime, in campaign order.
    pub const ALL: [WireRegime; 5] = [
        WireRegime::Protocol,
        WireRegime::Dsn,
        WireRegime::Def,
        WireRegime::Lef,
        WireRegime::Layout,
    ];

    /// The CLI name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            WireRegime::Protocol => "protocol",
            WireRegime::Dsn => "dsn",
            WireRegime::Def => "def",
            WireRegime::Lef => "lef",
            WireRegime::Layout => "layout",
        }
    }

    /// Parses a CLI name.
    #[must_use]
    pub fn parse(name: &str) -> Option<WireRegime> {
        WireRegime::ALL.iter().copied().find(|r| r.name() == name)
    }

    /// The seed corpus: small *valid* (or near-valid) inputs that the
    /// mutator grows hostile variants from. Real repo fixtures where
    /// they exist; the protocol corpus is the request vocabulary minus
    /// `shutdown` (a live daemon answers the probes, and a valid
    /// shutdown would kill it mid-campaign).
    #[must_use]
    pub fn corpus(self) -> &'static [&'static str] {
        const PROTOCOL: &[&str] = &[
            "{\"cmd\":\"ping\"}",
            "{\"cmd\":\"submit\",\"layout\":\"plane 3 8 8\\nnet a 0:1,1 0:6,6\\n\",\"priority\":100}",
            "{\"cmd\":\"submit\",\"layout\":\"plane\",\"priority\":7,\"threads\":2,\"node_budget\":100000,\"deadline_ms\":500}",
            "{\"cmd\":\"status\",\"job\":1}",
            "{\"cmd\":\"cancel\",\"job\":18446744073709551615}",
            "{\"cmd\":\"resume\",\"job\":2}",
            "{\"cmd\":\"subscribe\",\"job\":999}",
            "{\"cmd\":\"list\"}",
            "{\"cmd\":\"edit\",\"job\":3,\"script\":\"add x 0:2,2 0:9,2\\nundo\\nredo\\n\"}",
            "{\"cmd\":\"undo\",\"job\":3}",
            "{\"cmd\":\"redo\",\"job\":3}",
        ];
        const DSN: &[&str] = &[
            include_str!("../../../fixtures/imported/led-matrix.dsn"),
            "(pcb tiny (structure (layer F.Cu) (boundary (rect pcb 0 0 800 600)) (grid wire 100)))",
        ];
        const DEF: &[&str] = &[
            include_str!("../../../fixtures/imported/macro-block.def"),
            "VERSION 5.8 ;\nDESIGN t ;\nUNITS DISTANCE MICRONS 1000 ;\nDIEAREA ( 0 0 ) ( 8000 8000 ) ;\nEND DESIGN\n",
        ];
        const LEF: &[&str] = &[include_str!("../../../fixtures/imported/macro-block.lef")];
        const LAYOUT: &[&str] = &[
            include_str!("../../../fixtures/clock_tree.layout"),
            "plane 3 16 16\nblock 0 4,4 6,6\nnet a 0:1,1 0:14,14\nnet b 0:1,14 0:14,1\n",
        ];
        match self {
            WireRegime::Protocol => PROTOCOL,
            WireRegime::Dsn => DSN,
            WireRegime::Def => DEF,
            WireRegime::Lef => LEF,
            WireRegime::Layout => LAYOUT,
        }
    }

    fn salt(self) -> u64 {
        match self {
            WireRegime::Protocol => 0x9120,
            WireRegime::Dsn => 0xD5A1,
            WireRegime::Def => 0xDEF0,
            WireRegime::Lef => 0x1EF0,
            WireRegime::Layout => 0x1A02,
        }
    }
}

impl std::fmt::Display for WireRegime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Generates the hostile input for `(regime, seed)` — a pure function:
/// one corpus entry pushed through 0–3 structure-aware mutations (0
/// keeps the valid entry, so the accept paths stay covered too).
///
/// Corpora are ASCII and mutations only insert ASCII bytes, so the
/// result is always a valid `String` (the live daemon's non-UTF-8
/// handling is covered by the hostile-client e2e tests instead).
#[must_use]
pub fn generate_wire_input(regime: WireRegime, seed: u64) -> String {
    let mut rng = Rng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ regime.salt());
    let corpus = regime.corpus();
    let mut bytes = corpus[rng.index(corpus.len())].as_bytes().to_vec();
    for _ in 0..rng.index(4) {
        mutate(&mut bytes, &mut rng, corpus);
    }
    String::from_utf8(bytes).unwrap_or_default()
}

/// One mutation step. Every arm is byte-oriented and ASCII-only.
fn mutate(bytes: &mut Vec<u8>, rng: &mut Rng, corpus: &[&str]) {
    // Structural bytes that steer parsers into their interesting states.
    const STRUCTURAL: &[u8] = b"{}[]()\"\\:,.-+eE0123456789 \t\r\n\0";
    if bytes.is_empty() {
        bytes.extend_from_slice(corpus[rng.index(corpus.len())].as_bytes());
        return;
    }
    match rng.index(9) {
        // Truncate: torn transmissions and half-written requests.
        0 => bytes.truncate(rng.index(bytes.len())),
        // Duplicate a slice: repeated keys, repeated sections.
        1 => {
            let a = rng.index(bytes.len());
            let b = (a + 1 + rng.index(64)).min(bytes.len());
            let slice = bytes[a..b].to_vec();
            let at = rng.index(bytes.len() + 1);
            bytes.splice(at..at, slice);
        }
        // Replace one byte with an arbitrary ASCII byte (controls and
        // NUL included).
        2 => {
            let at = rng.index(bytes.len());
            bytes[at] = (rng.bounded(128)) as u8;
        }
        // Sprinkle structural bytes.
        3 => {
            for _ in 0..1 + rng.index(8) {
                let at = rng.index(bytes.len() + 1);
                bytes.insert(at, STRUCTURAL[rng.index(STRUCTURAL.len())]);
            }
        }
        // Inflate a digit run: overlong/overflowing numeric literals
        // (the `json.rs` number-parsing hardening target).
        4 => {
            if let Some(at) = bytes.iter().position(u8::is_ascii_digit) {
                let digit = bytes[at];
                let run = vec![digit; 1 << (2 + rng.index(12))];
                bytes.splice(at..at, run);
            }
        }
        // Deep nesting, up to 2^16 levels: far past the depth at which
        // a parser that recursed without a limit would overflow its stack.
        5 => {
            let (open, close) = *[(b'(', b')'), (b'{', b'}'), (b'[', b']')]
                .get(rng.index(3))
                .unwrap_or(&(b'(', b')'));
            let depth = 1 << (2 + rng.index(15));
            let mut wrapped = vec![open; depth];
            wrapped.append(bytes);
            wrapped.extend(std::iter::repeat_n(close, depth));
            *bytes = wrapped;
        }
        // Huge token: a single identifier far past any sane length.
        6 => {
            let at = rng.index(bytes.len() + 1);
            let token = vec![b'a' + (rng.bounded(26)) as u8; 1 << (4 + rng.index(10))];
            bytes.splice(at..at, token);
        }
        // Splice: the head of this input onto the tail of another
        // corpus entry (format confusion).
        7 => {
            let other = corpus[rng.index(corpus.len())].as_bytes();
            let cut = rng.index(bytes.len());
            let other_cut = rng.index(other.len() + 1);
            bytes.truncate(cut);
            bytes.extend_from_slice(&other[other_cut..]);
        }
        // Delete a slice: missing sections, unbalanced brackets.
        _ => {
            let a = rng.index(bytes.len());
            let b = (a + 1 + rng.index(64)).min(bytes.len());
            bytes.drain(a..b);
        }
    }
}

/// How a (non-panicking, deterministic) parser classified an input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireClass {
    /// The input parsed.
    Accepted,
    /// The input was rejected with the carried message.
    Rejected(String),
}

/// Parses `input` once under `catch_unwind` and classifies the outcome.
/// `Err` carries the violation detail (panic payload, empty error
/// message, or a broken protocol round-trip).
fn classify_once(regime: WireRegime, input: &str) -> Result<WireClass, String> {
    let run = catch_unwind(AssertUnwindSafe(|| match regime {
        WireRegime::Protocol => match Request::parse(input) {
            Ok(req) => {
                // A request that parses must survive the client
                // serializer round-trip; `to_json_line` is what the CLI
                // actually sends.
                let line = req.to_json_line();
                match Request::parse(&line) {
                    Ok(back) if back == req => Ok(WireClass::Accepted),
                    Ok(_) => Err(format!("round-trip changed the request: {line}")),
                    Err(e) => Err(format!("serialized request does not re-parse: {e}")),
                }
            }
            Err(e) => Ok(WireClass::Rejected(e)),
        },
        _ => match ingest_text(input, None, None) {
            Ok(_) => Ok(WireClass::Accepted),
            Err(e) => Ok(WireClass::Rejected(e.to_string())),
        },
    }));
    match run {
        Err(payload) => Err(format!("parser panicked: {}", panic_message(&payload))),
        Ok(Err(detail)) => Err(detail),
        Ok(Ok(WireClass::Rejected(msg))) if msg.trim().is_empty() => {
            Err("rejection carried an empty error message".into())
        }
        Ok(Ok(class)) => Ok(class),
    }
}

/// Classifies `input` for `regime`, checking the full contract: no
/// panic, classified rejection, and identical classification on a
/// second run.
///
/// # Errors
///
/// The violation detail.
pub fn check_wire_input(regime: WireRegime, input: &str) -> Result<WireClass, String> {
    let first = classify_once(regime, input)?;
    let second = classify_once(regime, input)?;
    if first != second {
        return Err(format!(
            "nondeterministic classification: {first:?} then {second:?}"
        ));
    }
    Ok(first)
}

/// Configuration of a wire/ingest fuzz campaign.
#[derive(Debug, Clone)]
pub struct WireCampaignConfig {
    /// Seeds per regime.
    pub seeds: u64,
    /// First seed; the campaign covers `start..start + seeds`.
    pub start: u64,
    /// Regimes to run.
    pub regimes: Vec<WireRegime>,
    /// Whether the protocol regime also probes a live in-process daemon
    /// over real TCP (one response line per probe, bounded wait).
    pub live: bool,
}

impl Default for WireCampaignConfig {
    fn default() -> WireCampaignConfig {
        WireCampaignConfig {
            seeds: 100,
            start: 0,
            regimes: WireRegime::ALL.to_vec(),
            live: true,
        }
    }
}

/// One wire-campaign failure: replay with `generate_wire_input(regime,
/// seed)` or from the recorded input text.
#[derive(Debug)]
pub struct WireFailure {
    /// The regime of the failing input.
    pub regime: WireRegime,
    /// Its seed.
    pub seed: u64,
    /// What went wrong.
    pub detail: String,
    /// The input that triggered it.
    pub input: String,
}

impl WireFailure {
    /// A replayable failure artifact: commented header + raw input.
    #[must_use]
    pub fn artifact_text(&self) -> String {
        format!(
            "# wire fuzz failure: regime={} seed={}\n# detail: {}\n# replay: sadp fuzz --wire --regime {} --seeds 1 --start {}\n{}",
            self.regime, self.seed, self.detail, self.regime, self.seed, self.input
        )
    }
}

/// Aggregate result of a wire campaign.
#[derive(Debug, Default)]
pub struct WireReport {
    /// Inputs checked.
    pub instances: usize,
    /// Inputs the parser accepted.
    pub accepted: usize,
    /// Inputs rejected with a classified error.
    pub rejected: usize,
    /// Contract violations (empty for a clean campaign).
    pub failures: Vec<WireFailure>,
}

impl WireReport {
    /// Whether the campaign found no violations.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }
}

/// The in-process daemon the protocol regime probes: queue-only (no
/// workers), tight limits, short timeouts — a probe must never be able
/// to park a handler thread for long.
fn live_daemon() -> std::io::Result<(ServerHandle, SocketAddr)> {
    let handle = serve(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 0,
        state_dir: None,
        slice_steps: 1,
        default_threads: 1,
        max_request_bytes: 1 << 20,
        io_timeout_ms: 2_000,
        max_conns: 0,
        max_queue: 8,
        fault_seed: None,
    })?;
    let addr = handle.addr();
    Ok((handle, addr))
}

/// How long a live probe waits for the daemon's response line. Must
/// exceed the daemon's own 2 s read timeout: a newline-less probe is
/// only answered once the *server* side times it out.
const PROBE_DEADLINE: Duration = Duration::from_secs(10);

/// Sends `input` to the live daemon and requires one parseable JSON
/// line (or a clean close after it) within the deadline.
fn probe_live(addr: SocketAddr, input: &str) -> Result<(), String> {
    let mut stream = TcpStream::connect_timeout(&addr, PROBE_DEADLINE)
        .map_err(|e| format!("daemon refused the connection: {e}"))?;
    stream
        .set_read_timeout(Some(PROBE_DEADLINE))
        .and_then(|()| stream.set_write_timeout(Some(PROBE_DEADLINE)))
        .and_then(|()| stream.set_nodelay(true))
        .map_err(|e| format!("socket setup failed: {e}"))?;
    // The daemon's wire rule: the line and its newline in one write.
    // A write error is legal: the daemon may have rejected the line and
    // closed (e.g. over the request cap) while we were still sending.
    let sent = stream.write_all(format!("{input}\n").as_bytes());
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(0) => match sent {
            // Closed without a response line AND the request went
            // through: the daemon dropped a client silently.
            Ok(()) => Err("daemon closed the connection with no response line".into()),
            Err(_) => Ok(()),
        },
        Ok(_) => sadp_serve::json::parse(line.trim())
            .map(|_| ())
            .map_err(|e| format!("daemon response is not JSON ({e}): {line:?}")),
        Err(e)
            if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) =>
        {
            Err(format!(
                "daemon sent nothing for {}s (hang)",
                PROBE_DEADLINE.as_secs()
            ))
        }
        Err(e) => Err(format!("read failed: {e}")),
    }
}

/// Whether any line of `input` is a valid `shutdown` request — those
/// are checked at the parse level but never sent to the live daemon.
fn is_shutdown(input: &str) -> bool {
    input
        .lines()
        .any(|l| Request::parse(l) == Ok(Request::Shutdown))
}

/// Runs a wire/ingest fuzz campaign. The `progress` sink receives one
/// deterministic line per regime.
pub fn run_wire_campaign(cfg: &WireCampaignConfig, mut progress: impl FnMut(&str)) -> WireReport {
    let mut report = WireReport::default();
    let live = (cfg.live && cfg.regimes.contains(&WireRegime::Protocol))
        .then(live_daemon)
        .transpose()
        .unwrap_or_else(|e| {
            progress(&format!("live daemon unavailable ({e}); parse-level only"));
            None
        });
    for &regime in &cfg.regimes {
        let mut regime_failures = 0usize;
        for seed in cfg.start..cfg.start + cfg.seeds {
            let input = generate_wire_input(regime, seed);
            report.instances += 1;
            let mut fail = |detail: String, failures: &mut Vec<WireFailure>| {
                regime_failures += 1;
                failures.push(WireFailure {
                    regime,
                    seed,
                    detail,
                    input: input.clone(),
                });
            };
            match check_wire_input(regime, &input) {
                Ok(WireClass::Accepted) => report.accepted += 1,
                Ok(WireClass::Rejected(_)) => report.rejected += 1,
                Err(detail) => {
                    fail(detail, &mut report.failures);
                    continue;
                }
            }
            if regime == WireRegime::Protocol && !is_shutdown(&input) {
                if let Some((_, addr)) = &live {
                    if let Err(detail) = probe_live(*addr, &input) {
                        fail(format!("live probe: {detail}"), &mut report.failures);
                    }
                }
            }
        }
        progress(&format!(
            "wire/{:<9} {} seeds, {} failures",
            regime.name(),
            cfg.seeds,
            regime_failures
        ));
    }
    if let Some((handle, _)) = live {
        handle.shutdown();
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpora_are_ascii_and_nonempty() {
        for regime in WireRegime::ALL {
            let corpus = regime.corpus();
            assert!(!corpus.is_empty(), "{regime} corpus is empty");
            for entry in corpus {
                assert!(entry.is_ascii(), "{regime} corpus entry is not ASCII");
                assert!(!entry.is_empty(), "{regime} corpus entry is empty");
            }
        }
    }

    #[test]
    fn inputs_are_pure_functions_of_the_seed() {
        for regime in WireRegime::ALL {
            for seed in 0..50 {
                assert_eq!(
                    generate_wire_input(regime, seed),
                    generate_wire_input(regime, seed),
                    "{regime} seed {seed}"
                );
            }
        }
    }

    #[test]
    fn mutations_actually_mutate() {
        // Across a modest seed range every regime must produce inputs
        // that differ from every corpus entry — otherwise the mutator
        // is vacuous and the campaign only ever sees valid inputs.
        for regime in WireRegime::ALL {
            let corpus = regime.corpus();
            let mutated = (0..50).any(|seed| {
                let input = generate_wire_input(regime, seed);
                corpus.iter().all(|entry| *entry != input)
            });
            assert!(mutated, "{regime}: no seed in 0..50 mutated its input");
        }
    }

    #[test]
    fn parse_level_campaign_is_clean_and_deterministic() {
        let cfg = WireCampaignConfig {
            seeds: 40,
            live: false,
            ..WireCampaignConfig::default()
        };
        let mut lines_a = Vec::new();
        let a = run_wire_campaign(&cfg, |l| lines_a.push(l.to_string()));
        assert!(
            a.is_clean(),
            "violations: {:?}",
            a.failures
                .iter()
                .map(|f| format!("{}/{}: {}", f.regime, f.seed, f.detail))
                .collect::<Vec<_>>()
        );
        assert_eq!(a.instances, 40 * WireRegime::ALL.len());
        // Both accept and reject paths are exercised.
        assert!(a.accepted > 0, "no input was accepted");
        assert!(a.rejected > 0, "no input was rejected");
        let mut lines_b = Vec::new();
        let b = run_wire_campaign(&cfg, |l| lines_b.push(l.to_string()));
        assert_eq!(lines_a, lines_b);
        assert_eq!(a.accepted, b.accepted);
        assert_eq!(a.rejected, b.rejected);
    }

    #[test]
    fn live_protocol_campaign_is_clean() {
        let cfg = WireCampaignConfig {
            seeds: 30,
            regimes: vec![WireRegime::Protocol],
            live: true,
            ..WireCampaignConfig::default()
        };
        let report = run_wire_campaign(&cfg, |_| {});
        assert!(
            report.is_clean(),
            "violations: {:?}",
            report
                .failures
                .iter()
                .map(|f| format!("{}/{}: {}", f.regime, f.seed, f.detail))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn shutdown_requests_are_detected_and_skipped() {
        assert!(is_shutdown("{\"cmd\":\"shutdown\"}"));
        assert!(is_shutdown("{\"cmd\":\"ping\"}\n{\"cmd\":\"shutdown\"}"));
        assert!(!is_shutdown("{\"cmd\":\"ping\"}"));
        // The corpus must not contain one: probes would assassinate the
        // live daemon.
        for entry in WireRegime::Protocol.corpus() {
            assert!(!is_shutdown(entry), "shutdown in protocol corpus: {entry}");
        }
    }

    #[test]
    fn failure_artifacts_carry_the_replay_command() {
        let f = WireFailure {
            regime: WireRegime::Dsn,
            seed: 17,
            detail: "parser panicked: boom".into(),
            input: "(pcb".into(),
        };
        let text = f.artifact_text();
        assert!(text.contains("--wire --regime dsn --seeds 1 --start 17"));
        assert!(text.ends_with("(pcb"));
    }
}
