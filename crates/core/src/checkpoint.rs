//! Checkpoint/resume: versioned, checksummed snapshots of the commit
//! ledger's journal.
//!
//! A snapshot captures the replayable prefix of a run — the committed
//! routes in journal order plus the failures and counters so far — as a
//! line-oriented text artifact. Resuming parses the snapshot, re-commits
//! every journaled route through the *identical* stage pipeline
//! (`commit_candidate` in the driver, without
//! searching), and then routes only the remaining nets. Because
//! checkpoints are only taken at schedule-aligned boundaries (after a
//! band fold, or between serial nets), the resumed run walks a canonical
//! suffix of the original schedule and its final output is byte-identical
//! to an uninterrupted run.
//!
//! Format (`SADPCKPT v2`):
//!
//! ```text
//! SADPCKPT v2
//! checksum <16-hex FNV-64 of everything below this line>
//! fingerprint <16-hex FNV-64 of the serialized plane+netlist>
//! counters <12 space-separated u64, LedgerCounters field order>
//! net <id> <branch count>
//! p <point count> <layer,x,y> ...
//! b <point count> <layer,x,y> ...   (one line per branch)
//! failed <count> <id> ...
//! end
//! ```
//!
//! The checksum rejects truncated or corrupted files; the fingerprint
//! rejects resuming against a different plane or netlist than the one
//! the snapshot was taken from. Both are FNV-64: not cryptographic, but
//! this is an integrity check against accidents, not an authenticator.

use crate::ledger::{CommitLedger, LedgerCounters};
use crate::router::RouterError;
use sadp_geom::{GridPoint, Layer};
use sadp_grid::{Netlist, RoutePath, RoutingPlane};
use std::error::Error;
use std::fmt;
use std::fmt::Write as _;

/// The magic + version line. Bump the version when the body layout
/// changes; old readers reject newer snapshots instead of misparsing.
const MAGIC: &str = "SADPCKPT v2";

/// FNV-1a 64-bit, the same construction the fuzz corpus uses: stable,
/// dependency-free, good enough to catch truncation and bit rot.
#[must_use]
pub(crate) fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Identity of a routing problem: the FNV-64 of its canonical `.layout`
/// serialization. A snapshot only resumes against the exact plane and
/// netlist it was taken from. Costs one serialization pass, so it is
/// computed only when checkpointing or resuming is actually requested.
#[must_use]
pub fn fingerprint(plane: &RoutingPlane, netlist: &Netlist) -> u64 {
    fnv64(sadp_grid::io::write_layout(plane, netlist).as_bytes())
}

/// One journaled route: the committed paths of a net, point by point.
/// Fragments are not stored — they are recomputed from the paths, the
/// same way the search stage builds them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SnapshotNet {
    pub(crate) id: sadp_grid::NetId,
    pub(crate) path: Vec<GridPoint>,
    pub(crate) branches: Vec<Vec<GridPoint>>,
}

/// A parsed (or captured) checkpoint: the replayable prefix of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    fingerprint: u64,
    counters: LedgerCounters,
    pub(crate) nets: Vec<SnapshotNet>,
    pub(crate) failed: Vec<sadp_grid::NetId>,
}

/// Why a snapshot could not be produced, parsed, or resumed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The underlying router rejected the plane (forwarded unchanged so
    /// the panicking entry points keep their exact messages).
    Router(RouterError),
    /// The snapshot text does not parse.
    Format {
        /// 1-based line number of the offending line.
        line: usize,
        /// What was wrong with it.
        message: String,
    },
    /// The body does not match its checksum line (truncation, bit rot).
    ChecksumMismatch,
    /// The magic line names a version this build does not read (e.g. a
    /// `SADPCKPT v1` file written by an older build).
    VersionUnsupported {
        /// The magic line that was found.
        found: String,
    },
    /// The snapshot was taken from a different plane/netlist.
    FingerprintMismatch,
    /// A journaled route no longer commits cleanly — the snapshot does
    /// not belong to this input, or it was edited.
    ReplayDiverged,
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Router(e) => e.fmt(f),
            SnapshotError::Format { line, message } => {
                write!(f, "checkpoint line {line}: {message}")
            }
            SnapshotError::ChecksumMismatch => {
                write!(
                    f,
                    "checkpoint body does not match its checksum (truncated or corrupt)"
                )
            }
            SnapshotError::VersionUnsupported { found } => {
                write!(
                    f,
                    "checkpoint version `{found}` is not supported by this \
                     build (expected `{MAGIC}`); delete the stale checkpoint \
                     and re-route to write a current one"
                )
            }
            SnapshotError::FingerprintMismatch => {
                write!(
                    f,
                    "checkpoint was taken from a different plane/netlist \
                     (fingerprint mismatch)"
                )
            }
            SnapshotError::ReplayDiverged => {
                write!(
                    f,
                    "checkpoint replay diverged: a journaled route no longer \
                     commits cleanly against this input"
                )
            }
        }
    }
}

impl Error for SnapshotError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SnapshotError::Router(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RouterError> for SnapshotError {
    fn from(e: RouterError) -> SnapshotError {
        SnapshotError::Router(e)
    }
}

fn push_points(out: &mut String, tag: char, points: &[GridPoint]) {
    let _ = write!(out, "{tag} {}", points.len());
    for p in points {
        let _ = write!(out, " {},{},{}", p.layer.index(), p.x, p.y);
    }
    out.push('\n');
}

/// Serializes the ledger's current journal into snapshot text. Taken at
/// a schedule-aligned boundary by the checkpoint hook; `fingerprint` is
/// the value of [`fingerprint`] for the run's plane and netlist.
#[must_use]
pub fn serialize(ledger: &CommitLedger, failed: &[sadp_grid::NetId], fingerprint: u64) -> String {
    let c = &ledger.counters;
    let mut body = String::new();
    let _ = writeln!(body, "fingerprint {fingerprint:016x}");
    let _ = writeln!(
        body,
        "counters {} {} {} {} {} {} {} {} {} {} {} {}",
        c.ripups,
        c.ripups_type_b,
        c.ripups_graph,
        c.ripups_risk,
        c.failed_no_path,
        c.failed_exhausted,
        c.failed_cleanup,
        c.flips,
        c.nodes_expanded,
        c.failed_budget,
        c.bands_recovered,
        c.waves_recovered
    );
    let mut seen: std::collections::HashSet<sadp_grid::NetId> = std::collections::HashSet::new();
    for rec in ledger.records() {
        // Routing-phase journals always have their routed net; a record
        // whose net was unrouted later (cleanup) is not replayable and
        // is skipped — hooks never fire that late, this is belt and
        // braces for direct callers.
        let Some(r) = ledger.routed().get(&rec.net) else {
            continue;
        };
        // An ECO session re-commits ripped-up nets, so its journal can
        // hold several records per net. Each net is emitted once, at its
        // first journal position, with its *current* geometry — replay
        // then reproduces the live plane exactly.
        if !seen.insert(rec.net) {
            continue;
        }
        let _ = writeln!(body, "net {} {}", rec.net.0, r.branches.len());
        push_points(&mut body, 'p', r.path.points());
        for b in &r.branches {
            push_points(&mut body, 'b', b.points());
        }
    }
    let _ = write!(body, "failed {}", failed.len());
    for id in failed {
        let _ = write!(body, " {}", id.0);
    }
    body.push('\n');
    body.push_str("end\n");
    format!("{MAGIC}\nchecksum {:016x}\n{body}", fnv64(body.as_bytes()))
}

/// Splits off the first line (without its newline) from `s`.
fn split_line(s: &str) -> (&str, &str) {
    match s.find('\n') {
        Some(i) => (&s[..i], &s[i + 1..]),
        None => (s, ""),
    }
}

fn parse_u64(tok: &str, line: usize, what: &str) -> Result<u64, SnapshotError> {
    tok.parse().map_err(|_| SnapshotError::Format {
        line,
        message: format!("bad {what}: `{tok}`"),
    })
}

fn parse_hex64(tok: &str, line: usize, what: &str) -> Result<u64, SnapshotError> {
    u64::from_str_radix(tok, 16).map_err(|_| SnapshotError::Format {
        line,
        message: format!("bad {what}: `{tok}`"),
    })
}

fn parse_point(tok: &str, line: usize) -> Result<GridPoint, SnapshotError> {
    let bad = || SnapshotError::Format {
        line,
        message: format!("bad point: `{tok}`"),
    };
    let mut it = tok.split(',');
    let l: u8 = it.next().and_then(|s| s.parse().ok()).ok_or_else(bad)?;
    let x: i32 = it.next().and_then(|s| s.parse().ok()).ok_or_else(bad)?;
    let y: i32 = it.next().and_then(|s| s.parse().ok()).ok_or_else(bad)?;
    if it.next().is_some() {
        return Err(bad());
    }
    Ok(GridPoint::new(Layer(l), x, y))
}

fn parse_point_line(text: &str, lineno: usize, tag: char) -> Result<Vec<GridPoint>, SnapshotError> {
    let mut toks = text.split_whitespace();
    let head = toks.next().unwrap_or("");
    if head.len() != 1 || !head.starts_with(tag) {
        return Err(SnapshotError::Format {
            line: lineno,
            message: format!("expected a `{tag}` point line, got `{text}`"),
        });
    }
    let n = parse_u64(toks.next().unwrap_or(""), lineno, "point count")? as usize;
    let mut points = Vec::with_capacity(n);
    for tok in toks {
        points.push(parse_point(tok, lineno)?);
    }
    if points.len() != n {
        return Err(SnapshotError::Format {
            line: lineno,
            message: format!("point count says {n}, line has {}", points.len()),
        });
    }
    Ok(points)
}

impl Snapshot {
    /// The plane/netlist fingerprint the snapshot was taken under.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The counters at the checkpoint (restored verbatim on resume).
    #[must_use]
    pub(crate) fn counters(&self) -> LedgerCounters {
        self.counters
    }

    /// How many committed routes the snapshot carries.
    #[must_use]
    pub fn committed(&self) -> usize {
        self.nets.len()
    }

    /// Every net the checkpointed prefix already handled — committed or
    /// failed. Resume removes these from the remaining schedule.
    #[must_use]
    pub(crate) fn processed(&self) -> Vec<sadp_grid::NetId> {
        let mut out: Vec<sadp_grid::NetId> = self.nets.iter().map(|n| n.id).collect();
        out.extend(self.failed.iter().copied());
        out
    }

    /// Parses snapshot text, verifying the version and the checksum
    /// (the fingerprint is checked later, against the actual input).
    ///
    /// # Errors
    ///
    /// [`SnapshotError::VersionUnsupported`] for a foreign magic line,
    /// [`SnapshotError::ChecksumMismatch`] when the body was altered,
    /// [`SnapshotError::Format`] for anything that does not parse.
    pub fn parse(text: &str) -> Result<Snapshot, SnapshotError> {
        let (magic, rest) = split_line(text);
        if magic.trim_end() != MAGIC {
            return Err(if magic.starts_with("SADPCKPT") {
                SnapshotError::VersionUnsupported {
                    found: magic.trim_end().to_string(),
                }
            } else {
                SnapshotError::Format {
                    line: 1,
                    message: format!("expected `{MAGIC}` magic, got `{magic}`"),
                }
            });
        }
        let (checksum_line, body) = split_line(rest);
        let declared = checksum_line
            .strip_prefix("checksum ")
            .ok_or(SnapshotError::Format {
                line: 2,
                message: "expected a `checksum` line".into(),
            })?;
        let declared = parse_hex64(declared.trim(), 2, "checksum")?;
        if fnv64(body.as_bytes()) != declared {
            return Err(SnapshotError::ChecksumMismatch);
        }

        let mut lines = body.lines().enumerate().map(|(i, l)| (i + 3, l));
        let mut next = |what: &str| {
            lines.next().ok_or_else(|| SnapshotError::Format {
                line: 0,
                message: format!("snapshot ends before the {what} line"),
            })
        };

        let (ln, fp_line) = next("fingerprint")?;
        let fp = fp_line
            .strip_prefix("fingerprint ")
            .ok_or(SnapshotError::Format {
                line: ln,
                message: "expected a `fingerprint` line".into(),
            })?;
        let fingerprint = parse_hex64(fp.trim(), ln, "fingerprint")?;

        let (ln, counters_line) = next("counters")?;
        let toks: Vec<&str> = counters_line.split_whitespace().collect();
        if toks.first() != Some(&"counters") || toks.len() != 13 {
            return Err(SnapshotError::Format {
                line: ln,
                message: "expected `counters` with 12 values".into(),
            });
        }
        let mut v = [0u64; 12];
        for (slot, tok) in v.iter_mut().zip(&toks[1..]) {
            *slot = parse_u64(tok, ln, "counter")?;
        }
        let counters = LedgerCounters {
            ripups: v[0],
            ripups_type_b: v[1],
            ripups_graph: v[2],
            ripups_risk: v[3],
            failed_no_path: v[4],
            failed_exhausted: v[5],
            failed_cleanup: v[6],
            flips: v[7],
            nodes_expanded: v[8],
            failed_budget: v[9],
            bands_recovered: v[10],
            waves_recovered: v[11],
        };

        let mut nets = Vec::new();
        let failed;
        loop {
            let (ln, line) = next("failed")?;
            if let Some(restf) = line.strip_prefix("failed ") {
                let mut toks = restf.split_whitespace();
                let n = parse_u64(toks.next().unwrap_or(""), ln, "failed count")? as usize;
                let mut ids = Vec::with_capacity(n);
                for tok in toks {
                    ids.push(sadp_grid::NetId(parse_u64(tok, ln, "net id")? as u32));
                }
                if ids.len() != n {
                    return Err(SnapshotError::Format {
                        line: ln,
                        message: format!("failed count says {n}, line has {}", ids.len()),
                    });
                }
                failed = ids;
                break;
            }
            let Some(net_rest) = line.strip_prefix("net ") else {
                return Err(SnapshotError::Format {
                    line: ln,
                    message: format!("expected a `net` or `failed` line, got `{line}`"),
                });
            };
            let mut toks = net_rest.split_whitespace();
            let id = parse_u64(toks.next().unwrap_or(""), ln, "net id")? as u32;
            let nbranches = parse_u64(toks.next().unwrap_or(""), ln, "branch count")? as usize;
            let (pln, pline) = next("trunk path")?;
            let path = parse_point_line(pline, pln, 'p')?;
            let mut branches = Vec::with_capacity(nbranches);
            for _ in 0..nbranches {
                let (bln, bline) = next("branch path")?;
                branches.push(parse_point_line(bline, bln, 'b')?);
            }
            nets.push(SnapshotNet {
                id: sadp_grid::NetId(id),
                path,
                branches,
            });
        }
        let (ln, end) = next("end")?;
        if end.trim_end() != "end" {
            return Err(SnapshotError::Format {
                line: ln,
                message: format!("expected the `end` marker, got `{end}`"),
            });
        }
        Ok(Snapshot {
            fingerprint,
            counters,
            nets,
            failed,
        })
    }

    /// Rebuilds one journaled route as a [`RouteCandidate`], exactly the
    /// shape the search stage would have produced (fragments recomputed
    /// from the paths).
    ///
    /// [`RouteCandidate`]: crate::search::RouteCandidate
    pub(crate) fn candidate_of(
        net: &SnapshotNet,
    ) -> Result<crate::search::RouteCandidate, SnapshotError> {
        let path = RoutePath::new(net.path.clone()).map_err(|_| SnapshotError::ReplayDiverged)?;
        let mut branches = Vec::with_capacity(net.branches.len());
        for b in &net.branches {
            branches.push(RoutePath::new(b.clone()).map_err(|_| SnapshotError::ReplayDiverged)?);
        }
        let mut fragments = crate::search::FragmentList::new();
        path.fragments_into(|layer, rect| fragments.push((layer, rect)));
        for b in &branches {
            b.fragments_into(|layer, rect| fragments.push((layer, rect)));
        }
        Ok(crate::search::RouteCandidate {
            path,
            branches,
            fragments,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RouterConfig;
    use crate::Router;
    use sadp_geom::DesignRules;

    fn routed_ledger() -> (Router, RoutingPlane, Netlist) {
        let mut plane = RoutingPlane::new(3, 32, 32, DesignRules::node_10nm()).expect("valid");
        let mut nl = Netlist::new();
        nl.add_two_pin(
            "a",
            GridPoint::new(Layer(0), 2, 2),
            GridPoint::new(Layer(0), 14, 9),
        );
        nl.add_two_pin(
            "b",
            GridPoint::new(Layer(0), 2, 12),
            GridPoint::new(Layer(0), 18, 12),
        );
        let mut router = Router::new(RouterConfig::paper_defaults());
        router.route_all(&mut plane, &nl);
        (router, plane, nl)
    }

    #[test]
    fn snapshot_round_trips() {
        let (router, plane, nl) = routed_ledger();
        let fp = fingerprint(&plane, &nl);
        let text = serialize(router.ledger(), router.failed(), fp);
        let snap = Snapshot::parse(&text).expect("round trip");
        assert_eq!(snap.fingerprint(), fp);
        assert_eq!(snap.committed(), router.ledger().records().len());
        assert_eq!(snap.counters(), router.ledger().counters);
        assert_eq!(snap.failed, router.failed());
        // Serializing what we parsed yields the identical text.
        for (n, rec) in snap.nets.iter().zip(router.ledger().records()) {
            assert_eq!(n.id, rec.net);
            assert_eq!(n.path, router.ledger().routed()[&rec.net].path.points());
        }
    }

    #[test]
    fn corrupt_body_is_rejected_by_checksum() {
        let (router, plane, nl) = routed_ledger();
        let text = serialize(router.ledger(), router.failed(), fingerprint(&plane, &nl));
        let tampered = text.replace("counters 0", "counters 7");
        assert_ne!(text, tampered, "fixture must actually tamper");
        assert_eq!(
            Snapshot::parse(&tampered),
            Err(SnapshotError::ChecksumMismatch)
        );
        // Truncation is also caught.
        let truncated = &text[..text.len() - 5];
        assert_eq!(
            Snapshot::parse(truncated),
            Err(SnapshotError::ChecksumMismatch)
        );
    }

    #[test]
    fn foreign_version_is_rejected() {
        // A v1 file from an older build must fail on the version line,
        // with the found version in the message — not fall through to a
        // checksum or parse error.
        let err = Snapshot::parse("SADPCKPT v1\nchecksum 0\nend\n").unwrap_err();
        assert_eq!(
            err,
            SnapshotError::VersionUnsupported {
                found: "SADPCKPT v1".into()
            }
        );
        let msg = err.to_string();
        assert!(
            msg.contains("SADPCKPT v1"),
            "names the found version: {msg}"
        );
        assert!(msg.contains(MAGIC), "names the expected version: {msg}");
        assert!(msg.contains("re-route"), "says what to do: {msg}");
        assert_eq!(
            Snapshot::parse("SADPCKPT v99\nchecksum 0\nend\n"),
            Err(SnapshotError::VersionUnsupported {
                found: "SADPCKPT v99".into()
            })
        );
        assert!(matches!(
            Snapshot::parse("not a checkpoint\n"),
            Err(SnapshotError::Format { line: 1, .. })
        ));
    }

    #[test]
    fn errors_display_and_chain() {
        let inner = RouterError::PlaneTooLarge { cells: 1 << 33 };
        let e = SnapshotError::Router(inner);
        // The Router variant forwards the inner message unchanged, so the
        // panicking wrappers keep their exact wording.
        assert_eq!(e.to_string(), inner.to_string());
        assert!(std::error::Error::source(&e).is_some());
        assert!(SnapshotError::ChecksumMismatch
            .to_string()
            .contains("checksum"));
        assert!(SnapshotError::FingerprintMismatch
            .to_string()
            .contains("fingerprint"));
    }

    #[test]
    fn fingerprint_tracks_the_input() {
        let (_, plane, nl) = routed_ledger();
        let fp = fingerprint(&plane, &nl);
        assert_eq!(fp, fingerprint(&plane, &nl), "deterministic");
        let mut other = nl.clone();
        other.add_two_pin(
            "c",
            GridPoint::new(Layer(0), 4, 4),
            GridPoint::new(Layer(0), 8, 8),
        );
        assert_ne!(fp, fingerprint(&plane, &other));
    }
}
