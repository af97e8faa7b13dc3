//! Checkpoint/resume: versioned, checksummed snapshots of the router's
//! state, and the one loader that reads them back.
//!
//! The paper's flow colors incrementally and rips up and re-routes
//! (Fig. 19), so the router's state depends on the order of commits,
//! and rip-ups, not only on which routes survived: the
//! neighbour order of every graph vertex, the union–find forest, the
//! fragment index's bucket order and the pin reservations all carry
//! history. A snapshot therefore writes that state down as it is, and
//! `Router::restore` loads it as it is — nothing is re-committed or
//! re-derived, so a restored router equals the live one field by field
//! (`Router: PartialEq`). Session resume, daemon restart and ECO
//! undo/redo all restore through it. A resumed run then walks the
//! remaining suffix of the canonical schedule, and a snapshot taken
//! after finalize (`finalized 1`) resumes as finished.
//!
//! Format (`SADPCKPT v5`):
//!
//! ```text
//! SADPCKPT v5
//! checksum <16-hex FNV-64 of everything below this line>
//! fingerprint <16-hex FNV-64 of the serialized plane+netlist>
//! finalized <0|1>
//! counters <10 space-separated u64, LedgerCounters field order>
//! ledger <layers> <index tile> <next fragment seq> <routed nets>
//! graph ...                     one graph section per layer, see
//!                               OverlayGraph::write_state
//! net <id> <first fragment seq> <branch count>   one per routed net,
//! p <point count> <layer,x,y> ...                in journal order
//! b <point count> <layer,x,y> ...   (one line per branch)
//! failed <count> <id> ...
//! held <count> <layer,x,y,net> ...    occupied cells off their net's route
//! guards <count> <layer,x,y,net|-> ...  pin-guard cells that differ from
//!                                       the reservation pre-pass
//! end
//! ```
//!
//! Fragments are recomputed from the paths (the search stage builds them
//! the same way) and take consecutive fragment ids from the net's first
//! sequence number; re-inserting them in journal order rebuilds the
//! index bucket for bucket. The direction map follows from the
//! fragments. Plane occupancy is the routes plus the `held` cells (pin
//! reservations); the pin guards are the reservation pre-pass over the
//! netlist plus the `guards` exceptions, which only ECO edits create.
//!
//! The checksum rejects truncated or corrupted files; the fingerprint
//! rejects resuming against a different plane or netlist than the one
//! the snapshot was taken from. Both are FNV-64: not cryptographic, but
//! this is an integrity check against accidents, not an authenticator.
//! Snapshots of other versions are rejected with
//! [`SnapshotError::VersionUnsupported`]; there is no reader for them.

use crate::driver;
use crate::grids::NO_GUARD;
use crate::ledger::{self, CommitLedger, LedgerCounters, RoutedNet};
use crate::router::{Router, RouterError};
use crate::scan::pack_frag_id;
use sadp_geom::{GridPoint, Layer};
use sadp_graph::{state, OverlayGraph};
use sadp_grid::{NetId, Netlist, RoutePath, RoutingPlane};
use std::error::Error;
use std::fmt;
use std::fmt::Write as _;
use std::str::SplitWhitespace;

/// The magic + version line. Bump the version when the body layout
/// changes; old readers reject newer snapshots instead of misparsing.
const MAGIC: &str = "SADPCKPT v5";

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

/// A parsed checkpoint: the router's state at a pause point, ready for
/// `Router::restore`.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    fingerprint: u64,
    finalized: bool,
    counters: LedgerCounters,
    tile: i32,
    frag_seq: u32,
    graphs: Vec<OverlayGraph>,
    /// The routed nets in journal order.
    nets: Vec<RoutedNet>,
    failed: Vec<NetId>,
    /// Occupied cells that are not on their net's route.
    held: Vec<(GridPoint, NetId)>,
    /// Pin-guard cells whose owner differs from the reservation pre-pass.
    guards: Vec<(GridPoint, Option<NetId>)>,
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
    /// `SADPCKPT v4` file written by an older build).
    VersionUnsupported {
        /// The magic line that was found.
        found: String,
    },
    /// The snapshot was taken from a different plane/netlist.
    FingerprintMismatch,
    /// The state does not fit this input: a route or reservation lies
    /// off the plane or on a taken cell, or a route, reservation, graph
    /// vertex or failed entry names an unknown net.
    StateMismatch,
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
            SnapshotError::StateMismatch => {
                write!(
                    f,
                    "checkpoint state does not fit this input: a route or \
                     reservation lies on a taken or missing cell, or the \
                     state names a net the netlist does not have"
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

/// Serializes the router's state on `plane` into snapshot text.
/// `netlist` is the run's netlist (the guard exceptions are taken
/// against its reservation pre-pass); `fingerprint` is the value of
/// [`fingerprint`] for the run's plane and netlist.
#[must_use]
pub(crate) fn serialize(
    router: &Router,
    plane: &RoutingPlane,
    netlist: &Netlist,
    fingerprint: u64,
) -> String {
    let ledger = router.ledger();
    let c = &ledger.counters;
    let mut body = String::new();
    let _ = writeln!(body, "fingerprint {fingerprint:016x}");
    let _ = writeln!(body, "finalized {}", u8::from(router.finalized));
    let _ = writeln!(
        body,
        "counters {} {} {} {} {} {} {} {} {} {}",
        c.ripups,
        c.ripups_type_b,
        c.ripups_graph,
        c.ripups_risk,
        c.failed_no_path,
        c.failed_exhausted,
        c.failed_cleanup,
        c.flips,
        c.nodes_expanded,
        c.failed_budget
    );
    let _ = writeln!(
        body,
        "ledger {} {} {} {}",
        ledger.layer_count(),
        ledger.tile(),
        ledger.frag_seq(),
        ledger.journal().len()
    );
    for g in ledger.graphs() {
        g.write_state(&mut body);
    }
    for id in ledger.journal() {
        let r = &ledger.routed()[id];
        let first = r.frag_ids.first().map_or(0, |fid| (fid >> 32) as u32);
        debug_assert!(
            r.frag_ids
                .iter()
                .zip(first..)
                .all(|(&fid, seq)| fid == pack_frag_id(id.0, seq)),
            "a commit numbers its fragments consecutively"
        );
        let _ = writeln!(body, "net {} {first} {}", id.0, r.branches.len());
        push_points(&mut body, 'p', r.path.points());
        for b in &r.branches {
            push_points(&mut body, 'b', b.points());
        }
    }
    let _ = write!(body, "failed {}", router.failed.len());
    for id in &router.failed {
        let _ = write!(body, " {}", id.0);
    }
    body.push('\n');
    let held = held_cells(ledger, plane);
    let _ = write!(body, "held {}", held.len());
    for (p, id) in held {
        let _ = write!(body, " {},{},{},{}", p.layer.index(), p.x, p.y, id.0);
    }
    body.push('\n');
    let guards = guard_exceptions(router, plane, netlist);
    let _ = write!(body, "guards {}", guards.len());
    for (p, owner) in guards {
        let _ = write!(body, " {},{},{},", p.layer.index(), p.x, p.y);
        match owner {
            Some(id) => {
                let _ = write!(body, "{}", id.0);
            }
            None => body.push('-'),
        }
    }
    body.push('\n');
    body.push_str("end\n");
    format!("{MAGIC}\nchecksum {:016x}\n{body}", fnv64(body.as_bytes()))
}

/// The index of `p` in the plane's layer-major, row-major cell order.
fn cell_index(plane: &RoutingPlane, p: GridPoint) -> usize {
    let (w, h) = (plane.width() as usize, plane.height() as usize);
    (p.layer.index() * h + p.y as usize) * w + p.x as usize
}

/// The point at cell index `i` (the inverse of [`cell_index`]).
fn cell_point(plane: &RoutingPlane, i: usize) -> GridPoint {
    let (w, h) = (plane.width() as usize, plane.height() as usize);
    GridPoint::new(
        Layer((i / (w * h)) as u8),
        (i % w) as i32,
        (i / w % h) as i32,
    )
}

/// The occupied cells that no route covers: pin reservations, which a
/// run holds until the net's commit releases the unused ones.
fn held_cells(ledger: &CommitLedger, plane: &RoutingPlane) -> Vec<(GridPoint, NetId)> {
    let mut on_route =
        vec![false; plane.layers() as usize * plane.width() as usize * plane.height() as usize];
    for r in ledger.routed().values() {
        for p in r.all_points() {
            on_route[cell_index(plane, p)] = true;
        }
    }
    let mut out = Vec::new();
    for l in 0..plane.layers() {
        for (x, y, id) in plane.occupied_cells(Layer(l)) {
            let p = GridPoint::new(Layer(l), x, y);
            if !on_route[cell_index(plane, p)] {
                out.push((p, id));
            }
        }
    }
    out
}

/// The guard cells whose owner differs from the reservation pre-pass —
/// every net's halo claimed in netlist order, first claim wins, as
/// [`driver::claim_pin_guards`] does — with `None` for an unclaimed
/// cell. Empty for a batch run, which never releases a claim; ECO edits
/// release and re-claim.
fn guard_exceptions(
    router: &Router,
    plane: &RoutingPlane,
    netlist: &Netlist,
) -> Vec<(GridPoint, Option<NetId>)> {
    let Some(ws) = &router.workspace else {
        return Vec::new();
    };
    let unclaimed = NO_GUARD.0;
    let mut canonical =
        vec![unclaimed; plane.layers() as usize * plane.width() as usize * plane.height() as usize];
    for net in netlist {
        for g in driver::guard_halo(&router.config, net) {
            if plane.in_bounds(g) {
                let owner = &mut canonical[cell_index(plane, g)];
                if *owner == unclaimed {
                    *owner = net.id;
                }
            }
        }
    }
    ws.guards
        .values()
        .zip(canonical)
        .enumerate()
        .filter(|(_, ((live, _), canonical))| live != canonical)
        .map(|(i, ((live, _), _))| (cell_point(plane, i), (live != unclaimed).then_some(live)))
        .collect()
}

impl Router {
    /// The checkpoint loader: sizes the router for `plane` and loads
    /// `snap` into it exactly — graphs, fragment index, routed store,
    /// failed list, counters and the `finalized` flag as written, the
    /// routes and held reservations onto `plane`'s occupancy, the
    /// direction map from the fragments, and the pin guards as the
    /// pre-pass over `netlist` plus the snapshot's exceptions. `plane`
    /// must carry the input's blockages and nothing routed. Session
    /// resume, daemon restart and ECO undo/redo all restore through
    /// here.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Router`] for an oversized plane,
    /// [`SnapshotError::StateMismatch`] when the state does not fit
    /// `plane` and `netlist`.
    pub(crate) fn restore(
        &mut self,
        plane: &mut RoutingPlane,
        netlist: &Netlist,
        snap: &Snapshot,
    ) -> Result<(), SnapshotError> {
        self.try_begin_sized(plane, netlist.len())?;
        let known = |id: NetId| id.index() < netlist.len();
        if snap.graphs.len() != plane.layers() as usize
            || !snap.failed.iter().all(|&id| known(id))
            || !snap
                .graphs
                .iter()
                .all(|g| g.vertices().all(|v| known(NetId(v))))
        {
            return Err(SnapshotError::StateMismatch);
        }
        let ws = self
            .workspace
            .as_mut()
            .expect("try_begin_sized sets the workspace");
        for net in netlist {
            driver::claim_pin_guards(&self.config, &mut ws.guards, net);
        }
        for r in &snap.nets {
            if !known(r.id) {
                return Err(SnapshotError::StateMismatch);
            }
            for p in r.all_points() {
                plane
                    .occupy(p, r.id)
                    .map_err(|_| SnapshotError::StateMismatch)?;
            }
            ledger::publish_dirs(&mut ws.dir_map, r);
        }
        for &(p, id) in &snap.held {
            if !known(id) || plane.occupy(p, id).is_err() {
                return Err(SnapshotError::StateMismatch);
            }
        }
        let guard = self.config.pin_guard_cost();
        for &(p, owner) in &snap.guards {
            if !ws.guards.contains(p) {
                return Err(SnapshotError::StateMismatch);
            }
            ws.guards.set(p, owner.map_or(NO_GUARD, |id| (id, guard)));
        }
        self.ledger = CommitLedger::restore(
            snap.graphs.clone(),
            snap.tile,
            snap.nets.clone(),
            snap.frag_seq,
            snap.counters,
        );
        self.failed.clone_from(&snap.failed);
        self.finalized = snap.finalized;
        Ok(())
    }
}

/// Splits off the first line (without its newline) from `s`.
fn split_line(s: &str) -> (&str, &str) {
    match s.find('\n') {
        Some(i) => (&s[..i], &s[i + 1..]),
        None => (s, ""),
    }
}

fn hex(tok: &str) -> Result<u64, String> {
    u64::from_str_radix(tok, 16).map_err(|_| format!("bad hex number `{tok}`"))
}

/// A `layer,x,y` token.
fn point(tok: &str) -> Result<GridPoint, String> {
    let bad = || format!("bad point `{tok}`");
    let mut it = tok.split(',');
    let mut next = || it.next().ok_or_else(bad);
    let p = GridPoint::new(
        Layer(state::num(next()?)?),
        state::num(next()?)?,
        state::num(next()?)?,
    );
    match it.next() {
        None => Ok(p),
        Some(_) => Err(bad()),
    }
}

/// A `layer,x,y,owner` token.
fn owned_point(tok: &str) -> Result<(GridPoint, &str), String> {
    let (p, owner) = tok
        .rsplit_once(',')
        .ok_or_else(|| format!("bad cell `{tok}`"))?;
    Ok((point(p)?, owner))
}

/// The snapshot body's lines, counting the file's line numbers.
struct Lines<'a> {
    inner: std::str::Lines<'a>,
    /// The number of the line returned last.
    line: usize,
}

impl<'a> Iterator for Lines<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        self.line += 1;
        self.inner.next()
    }
}

impl<'a> Lines<'a> {
    /// The tokens after the leading `tag` of the next line.
    fn fields(&mut self, tag: &str) -> Result<SplitWhitespace<'a>, String> {
        let line = self
            .next()
            .ok_or_else(|| format!("snapshot ends before the `{tag}` line"))?;
        state::fields(line, tag)
    }

    /// The `N` numbers of the next `tag` line.
    fn values<const N: usize>(&mut self, tag: &str) -> Result<[u64; N], String> {
        let vals = self
            .fields(tag)?
            .map(state::num)
            .collect::<Result<Vec<u64>, String>>()?;
        vals.try_into()
            .map_err(|_| format!("`{tag}` wants {N} values"))
    }

    /// The tokens of the next `tag count token...` line.
    fn counted(&mut self, tag: &str) -> Result<Vec<&'a str>, String> {
        let mut toks = self.fields(tag)?;
        let n: usize = state::next(&mut toks, "count")?;
        let rest: Vec<&str> = toks.collect();
        if rest.len() != n {
            return Err(format!("`{tag}` count says {n}, line has {}", rest.len()));
        }
        Ok(rest)
    }

    /// The next `tag` path line.
    fn path(&mut self, tag: &str) -> Result<RoutePath, String> {
        let points = self
            .counted(tag)?
            .into_iter()
            .map(point)
            .collect::<Result<Vec<GridPoint>, String>>()?;
        RoutePath::new(points).map_err(|e| format!("bad path: {e}"))
    }

    /// The body after the checksum line.
    fn snapshot(&mut self) -> Result<Snapshot, String> {
        let fingerprint = hex(self.fields("fingerprint")?.next().unwrap_or(""))?;
        let [finalized] = self.values("finalized")?;
        if finalized > 1 {
            return Err("`finalized` is 0 or 1".into());
        }
        let [ripups, ripups_type_b, ripups_graph, ripups_risk, failed_no_path, failed_exhausted, failed_cleanup, flips, nodes_expanded, failed_budget] =
            self.values("counters")?;
        let counters = LedgerCounters {
            ripups,
            ripups_type_b,
            ripups_graph,
            ripups_risk,
            failed_no_path,
            failed_exhausted,
            failed_cleanup,
            flips,
            nodes_expanded,
            failed_budget,
        };
        let [layers, tile, frag_seq, net_count] = self.values("ledger")?;
        let range = |what: &str| format!("{what} out of range");
        if layers > 256 {
            return Err(range("layers"));
        }
        let tile = i32::try_from(tile)
            .ok()
            .filter(|&t| t > 0)
            .ok_or_else(|| range("tile"))?;
        let frag_seq = u32::try_from(frag_seq).map_err(|_| range("fragment seq"))?;
        let graphs = (0..layers)
            .map(|_| OverlayGraph::read_state(self))
            .collect::<Result<Vec<_>, String>>()?;

        let mut nets: Vec<RoutedNet> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..net_count {
            let [id, first, branches] = self.values("net")?;
            let id = NetId(u32::try_from(id).map_err(|_| range("net id"))?);
            let first = u32::try_from(first).map_err(|_| range("fragment seq"))?;
            if !seen.insert(id) {
                return Err(format!("net {} is listed twice", id.0));
            }
            let path = self.path("p")?;
            let branches = (0..branches)
                .map(|_| self.path("b"))
                .collect::<Result<Vec<_>, String>>()?;
            let mut fragments = Vec::new();
            for p in std::iter::once(&path).chain(&branches) {
                p.fragments_into(|layer, rect| fragments.push((layer, rect)));
            }
            let frag_ids = (0..fragments.len() as u32)
                .map(|k| pack_frag_id(id.0, first.wrapping_add(k)))
                .collect();
            nets.push(RoutedNet {
                id,
                path,
                branches,
                fragments,
                frag_ids,
            });
        }

        let failed = self
            .counted("failed")?
            .into_iter()
            .map(|t| state::num(t).map(NetId))
            .collect::<Result<Vec<NetId>, String>>()?;
        let mut held = Vec::new();
        for tok in self.counted("held")? {
            let (p, owner) = owned_point(tok)?;
            held.push((p, NetId(state::num(owner)?)));
        }
        let mut guards = Vec::new();
        for tok in self.counted("guards")? {
            let (p, owner) = owned_point(tok)?;
            let owner = match owner {
                "-" => None,
                id => Some(NetId(state::num(id)?)),
            };
            guards.push((p, owner));
        }
        self.fields("end")?;
        Ok(Snapshot {
            fingerprint,
            finalized: finalized == 1,
            counters,
            tile,
            frag_seq,
            graphs,
            nets,
            failed,
            held,
            guards,
        })
    }
}

impl Snapshot {
    /// The plane/netlist fingerprint the snapshot was taken under.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// How many committed routes the snapshot carries.
    #[must_use]
    pub fn committed(&self) -> usize {
        self.nets.len()
    }

    /// Whether the snapshot was taken after finalize: it resumes as a
    /// finished run.
    #[must_use]
    pub fn finalized(&self) -> bool {
        self.finalized
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
            .ok_or_else(|| "expected a `checksum` line".to_string())
            .and_then(|tok| hex(tok.trim()))
            .map_err(|message| SnapshotError::Format { line: 2, message })?;
        if fnv64(body.as_bytes()) != declared {
            return Err(SnapshotError::ChecksumMismatch);
        }
        let mut lines = Lines {
            inner: body.lines(),
            line: 2,
        };
        lines.snapshot().map_err(|message| SnapshotError::Format {
            line: lines.line,
            message,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RouterConfig;
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

    fn blank(plane: &RoutingPlane) -> RoutingPlane {
        RoutingPlane::new(
            plane.layers(),
            plane.width(),
            plane.height(),
            *plane.rules(),
        )
        .expect("valid")
    }

    #[test]
    fn snapshot_round_trips() {
        let (router, plane, nl) = routed_ledger();
        let fp = fingerprint(&plane, &nl);
        let text = serialize(&router, &plane, &nl, fp);
        let snap = Snapshot::parse(&text).expect("round trip");
        assert_eq!(snap.fingerprint(), fp);
        assert!(snap.finalized());
        assert_eq!(snap.committed(), router.ledger().journal().len());
        // Loading yields the same router on the same plane, and the same
        // text again.
        let mut restored = Router::new(RouterConfig::paper_defaults());
        let mut restored_plane = blank(&plane);
        restored
            .restore(&mut restored_plane, &nl, &snap)
            .expect("loads");
        assert!(restored == router, "restored router differs");
        assert_eq!(restored_plane, plane);
        assert_eq!(serialize(&restored, &restored_plane, &nl, fp), text);
    }

    #[test]
    fn state_that_does_not_fit_is_rejected() {
        let (router, plane, nl) = routed_ledger();
        let snap = Snapshot::parse(&serialize(&router, &plane, &nl, 0)).expect("parses");
        // The routes collide with a blockage on the target plane.
        let mut blocked = blank(&plane);
        blocked.add_blockage(Layer(0), sadp_geom::TrackRect::new(0, 0, 31, 31));
        let mut r = Router::new(RouterConfig::paper_defaults());
        assert_eq!(
            r.restore(&mut blocked, &nl, &snap),
            Err(SnapshotError::StateMismatch)
        );
    }

    #[test]
    fn corrupt_body_is_rejected_by_checksum() {
        let (router, plane, nl) = routed_ledger();
        let text = serialize(&router, &plane, &nl, fingerprint(&plane, &nl));
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
        // A v4 file from an older build must fail on the version line,
        // with the found version in the message — not fall through to a
        // checksum or parse error.
        let err = Snapshot::parse("SADPCKPT v4\nchecksum 0\nend\n").unwrap_err();
        assert_eq!(
            err,
            SnapshotError::VersionUnsupported {
                found: "SADPCKPT v4".into()
            }
        );
        let msg = err.to_string();
        assert!(
            msg.contains("SADPCKPT v4"),
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
