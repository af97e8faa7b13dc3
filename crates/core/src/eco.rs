//! The dependence-scoped incremental (ECO) routing engine.
//!
//! An [`EcoSession`] starts from a finished batch run (it drives a
//! [`RoutingSession`] to completion) and then accepts edits: nets can be
//! added, removed or moved, and rectangular blockages added or removed.
//! Each edit re-routes *only* the nets whose interaction footprints
//! (the driver's `net_footprint`, expanded by the dependence radius
//! [`DesignRules::dependence_radius_tracks`](sadp_geom::DesignRules::dependence_radius_tracks),
//! beyond which no two fragments form a scenario) intersect the edit's
//! region — the TRIAD-style dependence-radius argument: a net whose
//! footprint is disjoint from the edited region can neither read nor
//! write any cell, fragment or scenario the edit touches, so its route
//! and constraints are provably unaffected.
//!
//! The session keeps a history of versions: the state after creation and
//! after every edit, each the router's `SADPCKPT v5` snapshot
//! ([`crate::checkpoint`]) plus the netlist, active-net set and dynamic
//! obstacles. A cursor marks the live version. [`EcoSession::undo`] /
//! [`EcoSession::redo`] move the cursor and load that version through
//! the checkpoint loader (`Router::restore`) onto the pristine base
//! plane re-blocked with the version's obstacles. The loader reads the
//! state back exactly, so a restored session equals the one the version
//! was taken from — an edit applied after an undo behaves as it would
//! have on the never-edited session — and edit *i*'s after-state is edit
//! *i + 1*'s before-state, which is why one version per edit suffices.
//! An edit applied below the top of the history drops the versions
//! above the cursor, as any redo stack does.
//! [`EcoSession::state_digest`] checks that exactness: it is the
//! plane's occupancy and blockages followed by the same snapshot,
//! serialized from the live router, so an undo that did not restore
//! the state field by field shows as a changed digest.
//!
//! Steady-state invariant: between edits, plane occupancy is exactly
//! *committed route cells plus blockages*. Unused pin candidates are
//! released at commit and an unrouted net's reservations are released on
//! its failure path, so nothing else holds cells.
//!
//! The scripted form ([`parse_edit_script`], run one operation at a time
//! by [`EcoSession::run`], as `sadp edit` and the daemon's `edit` do)
//! makes editing sessions replayable and byte-for-byte comparable from
//! run to run, like every other entry point of the router.

use crate::checkpoint::{self, Snapshot};
use crate::config::RouterConfig;
use crate::driver::net_footprint;
use crate::router::Router;
use crate::session::{RoutingSession, SessionError, SessionStatus, StepBudget};
use sadp_geom::{GridPoint, Layer, SpatialHash, TrackRect};
use sadp_grid::io::parse_pin;
use sadp_grid::{CellState, Net, NetId, Netlist, Pin, RoutingPlane};
use sadp_obs::{BufferRecorder, EditKind, Recorder, RouterEvent};
use std::collections::{BTreeSet, HashSet};
use std::error::Error;
use std::fmt;
use std::fmt::Write as _;

/// One ECO edit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EcoEdit {
    /// Add a net (≥ 2 pins; first two are the trunk) and route it.
    AddNet {
        /// Net name (must not collide with an active net's name).
        name: String,
        /// Pins in [`sadp_grid::Net::multi`] order.
        pins: Vec<Pin>,
    },
    /// Remove a net: unroute it and release its reservations. The net
    /// stays in the netlist as a tombstone so ids remain stable.
    RemoveNet {
        /// The net to remove.
        net: NetId,
    },
    /// Replace a net's pins and re-route it.
    MoveNet {
        /// The net to move.
        net: NetId,
        /// The new pins, in [`sadp_grid::Net::multi`] order.
        pins: Vec<Pin>,
    },
    /// Block a rectangle on one layer.
    AddObstacle {
        /// Layer of the blockage.
        layer: Layer,
        /// Blocked cell rectangle (clipped to the plane).
        rect: TrackRect,
    },
    /// Remove a previously added [`EcoEdit::AddObstacle`] rectangle
    /// (must match one exactly; layout-file blockages cannot be removed).
    RemoveObstacle {
        /// Layer of the blockage.
        layer: Layer,
        /// The exact rectangle passed to `AddObstacle`.
        rect: TrackRect,
    },
}

impl EcoEdit {
    /// The observability kind tag of this edit.
    #[must_use]
    pub fn kind(&self) -> EditKind {
        match self {
            EcoEdit::AddNet { .. } => EditKind::AddNet,
            EcoEdit::RemoveNet { .. } => EditKind::RemoveNet,
            EcoEdit::MoveNet { .. } => EditKind::MoveNet,
            EcoEdit::AddObstacle { .. } => EditKind::AddObstacle,
            EcoEdit::RemoveObstacle { .. } => EditKind::RemoveObstacle,
        }
    }
}

/// Errors of the ECO engine.
#[derive(Debug)]
pub enum EcoError {
    /// The initial batch routing failed to build.
    Session(SessionError),
    /// A net reference did not resolve to an active net.
    UnknownNet(String),
    /// An edit failed validation (out-of-bounds pin, blocked candidate,
    /// obstacle over a pin, …). The message says what and where.
    BadEdit(String),
    /// `undo()` with no edit left to undo.
    NothingToUndo,
    /// `redo()` with no undone edit left to re-apply.
    NothingToRedo,
    /// An edit script failed to parse.
    Script {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        message: String,
    },
}

impl fmt::Display for EcoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EcoError::Session(e) => write!(f, "initial routing failed: {e}"),
            EcoError::UnknownNet(what) => write!(f, "no active net matches `{what}`"),
            EcoError::BadEdit(msg) => write!(f, "invalid edit: {msg}"),
            EcoError::NothingToUndo => write!(f, "nothing to undo"),
            EcoError::NothingToRedo => write!(f, "nothing to redo"),
            EcoError::Script { line, message } => {
                write!(f, "edit script line {line}: {message}")
            }
        }
    }
}

impl Error for EcoError {}

impl From<SessionError> for EcoError {
    fn from(e: SessionError) -> EcoError {
        EcoError::Session(e)
    }
}

/// What one applied edit did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EditOutcome {
    /// Session-wide edit sequence number (monotonic, not reused after
    /// undo), matching the `edit` field of the trace events.
    pub edit: u32,
    /// The edit's kind tag.
    pub kind: EditKind,
    /// Nets invalidated by the dependence-radius query, ascending.
    pub invalidated: Vec<NetId>,
    /// Nets re-routed successfully (invalidated survivors plus an
    /// added/moved net).
    pub rerouted: u64,
    /// Nets left unrouted after the edit (session-wide).
    pub failed: u64,
}

/// A net reference in an edit script: by name or by `#id`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetRef {
    /// Resolve by net name among active nets (lowest id wins).
    Name(String),
    /// Resolve by raw net id.
    Id(u32),
}

impl fmt::Display for NetRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetRef::Name(n) => write!(f, "{n}"),
            NetRef::Id(i) => write!(f, "#{i}"),
        }
    }
}

/// One operation of a parsed edit script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScriptOp {
    /// `add NAME PIN PIN [PIN...]`
    Add {
        /// Net name.
        name: String,
        /// Parsed pins.
        pins: Vec<Pin>,
    },
    /// `remove NET`
    Remove {
        /// Net reference.
        net: NetRef,
    },
    /// `move NET PIN PIN [PIN...]`
    Move {
        /// Net reference.
        net: NetRef,
        /// The new pins.
        pins: Vec<Pin>,
    },
    /// `obstacle L X0 Y0 X1 Y1`
    Obstacle {
        /// Layer.
        layer: Layer,
        /// Rectangle.
        rect: TrackRect,
    },
    /// `clear L X0 Y0 X1 Y1`
    Clear {
        /// Layer.
        layer: Layer,
        /// Rectangle.
        rect: TrackRect,
    },
    /// `undo`
    Undo,
    /// `redo`
    Redo,
}

/// What one script operation did when run by [`EcoSession::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpOutcome {
    /// An edit was applied.
    Edit(EditOutcome),
    /// An `undo` line ran.
    Undo,
    /// A `redo` line ran.
    Redo,
}

/// A captured session state: the router's snapshot and what the editor
/// changes beside it.
struct EcoVersion {
    ckpt: String,
    netlist: Netlist,
    active: BTreeSet<NetId>,
    obstacles: Vec<(Layer, TrackRect)>,
}

/// A live editing session over a routed layout. See the module docs.
pub struct EcoSession {
    router: Router,
    plane: RoutingPlane,
    /// The plane as loaded (layout blockages only, nothing routed) —
    /// the rebuild root for restores.
    base_plane: RoutingPlane,
    netlist: Netlist,
    /// Nets that exist from the editor's point of view. Removed nets
    /// stay in `netlist` as tombstones (ids must not shift) but leave
    /// this set.
    active: BTreeSet<NetId>,
    /// Dynamic blockages added by edits, in application order.
    obstacles: Vec<(Layer, TrackRect)>,
    rec: BufferRecorder,
    /// The state after creation, then after each journaled edit.
    versions: Vec<EcoVersion>,
    /// Index of the live version; the edits below it are undoable.
    cursor: usize,
    edit_seq: u32,
}

impl EcoSession {
    /// Routes `netlist` on `plane` to completion (the standard batch
    /// schedule) and opens an editing
    /// session on the result. With `trace` on, the batch events and all
    /// later edit events accumulate in one stream for
    /// [`EcoSession::drain_events`].
    ///
    /// Entering the session normalises reservations: pin cells held by
    /// *unrouted* nets are released (they are re-reserved on retry), so
    /// the steady-state invariant above holds from the first edit.
    ///
    /// # Errors
    ///
    /// [`EcoError::Session`] when the batch session cannot be built
    /// (oversized plane).
    pub fn create(
        config: RouterConfig,
        plane: RoutingPlane,
        netlist: Netlist,
        trace: bool,
    ) -> Result<EcoSession, EcoError> {
        let base_plane = plane.clone();
        let mut session = RoutingSession::create(config, plane, netlist, trace, false)?;
        match session.advance(StepBudget::unbounded()) {
            SessionStatus::Done(_) => {}
            SessionStatus::Failed(e) => return Err(EcoError::Session(e)),
            SessionStatus::Running | SessionStatus::CheckpointReady => {
                unreachable!("an unbounded advance finishes the schedule")
            }
        }
        let (mut router, mut plane, netlist, rec) = session.into_router_parts();
        // Normalise: unrouted nets must not hold pin reservations (the
        // batch flow leaves them reserved; the ECO re-route releases them
        // on failure — adopt the re-route semantics).
        for id in router.failed.clone() {
            router.release_pins(&mut plane, netlist.net(id));
        }
        let active = netlist.iter().map(|n| n.id).collect();
        let mut eco = EcoSession {
            router,
            plane,
            base_plane,
            netlist,
            active,
            obstacles: Vec::new(),
            rec,
            versions: Vec::new(),
            cursor: 0,
            edit_seq: 0,
        };
        eco.versions.push(eco.capture_version());
        Ok(eco)
    }

    /// Applies one edit: validates it, computes the dependence-scoped
    /// invalidated set, rips those nets up, applies the structural
    /// change and re-routes — then journals the version it produced.
    /// A successful apply drops every redoable version.
    ///
    /// # Errors
    ///
    /// [`EcoError::UnknownNet`] / [`EcoError::BadEdit`] when validation
    /// rejects the edit; the session state is untouched in that case.
    pub fn apply(&mut self, edit: EcoEdit) -> Result<EditOutcome, EcoError> {
        self.validate(&edit)?;
        let outcome = self.apply_live(&edit);
        self.versions.truncate(self.cursor + 1);
        self.versions.push(self.capture_version());
        self.cursor += 1;
        Ok(outcome)
    }

    /// Reverts the most recent edit by loading the version before it.
    ///
    /// # Errors
    ///
    /// [`EcoError::NothingToUndo`] when the journal is empty.
    pub fn undo(&mut self) -> Result<(), EcoError> {
        if self.cursor == 0 {
            return Err(EcoError::NothingToUndo);
        }
        self.restore(self.cursor - 1);
        Ok(())
    }

    /// Re-applies the most recently undone edit by loading the version
    /// after it (no re-routing happens — the journaled result is
    /// restored exactly).
    ///
    /// # Errors
    ///
    /// [`EcoError::NothingToRedo`] when nothing was undone.
    pub fn redo(&mut self) -> Result<(), EcoError> {
        if self.cursor + 1 == self.versions.len() {
            return Err(EcoError::NothingToRedo);
        }
        self.restore(self.cursor + 1);
        Ok(())
    }

    /// Runs one operation of a parsed edit script. A script runs one
    /// operation at a time, so an error mid-script leaves the operations
    /// before it applied (each individually undoable).
    ///
    /// # Errors
    ///
    /// The operation's error: an unresolved net, a rejected edit, or an
    /// `undo`/`redo` with nothing to restore.
    pub fn run(&mut self, op: &ScriptOp) -> Result<OpOutcome, EcoError> {
        let edit = match op {
            ScriptOp::Add { name, pins } => EcoEdit::AddNet {
                name: name.clone(),
                pins: pins.clone(),
            },
            ScriptOp::Remove { net } => EcoEdit::RemoveNet {
                net: self.resolve(net)?,
            },
            ScriptOp::Move { net, pins } => EcoEdit::MoveNet {
                net: self.resolve(net)?,
                pins: pins.clone(),
            },
            ScriptOp::Obstacle { layer, rect } => EcoEdit::AddObstacle {
                layer: *layer,
                rect: *rect,
            },
            ScriptOp::Clear { layer, rect } => EcoEdit::RemoveObstacle {
                layer: *layer,
                rect: *rect,
            },
            ScriptOp::Undo => return self.undo().map(|()| OpOutcome::Undo),
            ScriptOp::Redo => return self.redo().map(|()| OpOutcome::Redo),
        };
        self.apply(edit).map(OpOutcome::Edit)
    }

    /// Resolves a script net reference against the active nets.
    ///
    /// # Errors
    ///
    /// [`EcoError::UnknownNet`] when nothing matches.
    pub fn resolve(&self, net: &NetRef) -> Result<NetId, EcoError> {
        match net {
            NetRef::Id(raw) => {
                let id = NetId(*raw);
                if self.active.contains(&id) {
                    Ok(id)
                } else {
                    Err(EcoError::UnknownNet(format!("#{raw}")))
                }
            }
            NetRef::Name(name) => self
                .active
                .iter()
                .copied()
                .find(|id| self.netlist.net(*id).name == *name)
                .ok_or_else(|| EcoError::UnknownNet(name.clone())),
        }
    }

    /// A text digest of the live session state: per-layer occupancy and
    /// blockages (plane state a snapshot does not carry), then the
    /// router's `SADPCKPT v5` snapshot serialized from the live router,
    /// as a version is captured. The snapshot holds the constraint
    /// graphs, the routes in journal order, the failed nets, the pin
    /// reservations and guards and the counters as they are, so equal
    /// digests mean equal routers, not only equal routes; the undo
    /// property test pins `digest(before) == digest(undo(apply(e)))`
    /// byte for byte.
    #[must_use]
    pub fn state_digest(&self) -> String {
        let mut out = String::new();
        for li in 0..self.plane.layers() {
            let layer = Layer(li);
            let _ = write!(out, "occ {li}");
            for (x, y, net) in self.plane.occupied_cells(layer) {
                let _ = write!(out, " {x},{y}:{}", net.0);
            }
            out.push('\n');
            let _ = write!(out, "blk {li}");
            for y in 0..self.plane.height() {
                for x in 0..self.plane.width() {
                    if self.plane.cell(GridPoint::new(layer, x, y)) == CellState::Blocked {
                        let _ = write!(out, " {x},{y}");
                    }
                }
            }
            out.push('\n');
        }
        out.push_str(&checkpoint::serialize(
            &self.router,
            &self.plane,
            &self.netlist,
            0,
        ));
        out
    }

    /// Drains the trace events accumulated since the last drain (batch
    /// routing plus every edit). Empty when tracing is off.
    pub fn drain_events(&mut self) -> Vec<RouterEvent> {
        self.rec.take_events()
    }

    /// The live router, for inspection (colors, patterns, report).
    #[must_use]
    pub fn router(&self) -> &Router {
        &self.router
    }

    /// The live plane.
    #[must_use]
    pub fn plane(&self) -> &RoutingPlane {
        &self.plane
    }

    /// The netlist, including tombstoned (removed) nets.
    #[must_use]
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Ids of the active (non-removed) nets, ascending.
    pub fn active_nets(&self) -> impl Iterator<Item = NetId> + '_ {
        self.active.iter().copied()
    }

    /// Routed / failed / active net counts, a cheap status triple.
    #[must_use]
    pub fn stats(&self) -> (usize, usize, usize) {
        (
            self.router.ledger().routed().len(),
            self.router.failed().len(),
            self.active.len(),
        )
    }

    /// The session obstacles currently in force, in application order.
    #[must_use]
    pub fn obstacles(&self) -> &[(Layer, TrackRect)] {
        &self.obstacles
    }

    /// Edits currently undoable.
    #[must_use]
    pub fn undo_depth(&self) -> usize {
        self.cursor
    }

    /// Undone edits currently redoable.
    #[must_use]
    pub fn redo_depth(&self) -> usize {
        self.versions.len() - 1 - self.cursor
    }

    // ---- internals ----------------------------------------------------

    fn validate(&self, edit: &EcoEdit) -> Result<(), EcoError> {
        match edit {
            EcoEdit::AddNet { name, pins } => {
                if let Some(id) = self
                    .active
                    .iter()
                    .find(|id| self.netlist.net(**id).name == *name)
                {
                    return Err(EcoError::BadEdit(format!(
                        "net name `{name}` is already in use by net #{}",
                        id.0
                    )));
                }
                self.validate_pins(pins, None)
            }
            EcoEdit::RemoveNet { net } => self.check_active(*net),
            EcoEdit::MoveNet { net, pins } => {
                self.check_active(*net)?;
                self.validate_pins(pins, Some(*net))
            }
            EcoEdit::AddObstacle { layer, rect } => {
                if layer.index() >= self.plane.layers() as usize {
                    return Err(EcoError::BadEdit(format!(
                        "layer {} out of range (plane has {})",
                        layer.index(),
                        self.plane.layers()
                    )));
                }
                if self.clip(rect).is_none() {
                    return Err(EcoError::BadEdit(format!(
                        "obstacle {rect} lies outside the plane"
                    )));
                }
                // A blockage over a pin candidate would strand its net
                // permanently (and silently skip occupied candidate
                // cells); reject instead.
                for &id in &self.active {
                    for pin in self.netlist.net(id).pins() {
                        for c in pin.candidates() {
                            if c.layer == *layer && rect.contains_cell(c.x, c.y) {
                                return Err(EcoError::BadEdit(format!(
                                    "obstacle {rect} on layer {} covers pin candidate \
                                     {},{} of net #{}",
                                    layer.index(),
                                    c.x,
                                    c.y,
                                    id.0
                                )));
                            }
                        }
                    }
                }
                Ok(())
            }
            EcoEdit::RemoveObstacle { layer, rect } => {
                if self.obstacles.contains(&(*layer, *rect)) {
                    Ok(())
                } else {
                    Err(EcoError::BadEdit(format!(
                        "no session obstacle {rect} on layer {} to remove \
                         (layout-file blockages cannot be cleared)",
                        layer.index()
                    )))
                }
            }
        }
    }

    fn check_active(&self, net: NetId) -> Result<(), EcoError> {
        if self.active.contains(&net) {
            Ok(())
        } else {
            Err(EcoError::UnknownNet(format!("#{}", net.0)))
        }
    }

    fn validate_pins(&self, pins: &[Pin], moving: Option<NetId>) -> Result<(), EcoError> {
        if pins.len() < 2 {
            return Err(EcoError::BadEdit(format!(
                "a net needs at least two pins, got {}",
                pins.len()
            )));
        }
        let mut new_cells: HashSet<GridPoint> = HashSet::new();
        for pin in pins {
            for &c in pin.candidates() {
                if !self.plane.in_bounds(c) {
                    return Err(EcoError::BadEdit(format!(
                        "pin candidate {},{},{} is out of bounds",
                        c.layer.index(),
                        c.x,
                        c.y
                    )));
                }
                if self.plane.cell(c) == CellState::Blocked {
                    return Err(EcoError::BadEdit(format!(
                        "pin candidate {},{},{} is blocked",
                        c.layer.index(),
                        c.x,
                        c.y
                    )));
                }
                new_cells.insert(c);
            }
        }
        // Sharing a candidate cell with another net's pin makes
        // reservation outcomes order-dependent; keep edits unambiguous.
        for &id in &self.active {
            if Some(id) == moving {
                continue;
            }
            for pin in self.netlist.net(id).pins() {
                for c in pin.candidates() {
                    if new_cells.contains(c) {
                        return Err(EcoError::BadEdit(format!(
                            "pin candidate {},{},{} collides with a pin of net #{}",
                            c.layer.index(),
                            c.x,
                            c.y,
                            id.0
                        )));
                    }
                }
            }
        }
        Ok(())
    }

    fn clip(&self, rect: &TrackRect) -> Option<TrackRect> {
        let plane_rect = TrackRect::new(0, 0, self.plane.width() - 1, self.plane.height() - 1);
        rect.intersection(&plane_rect)
    }

    /// The regions an edit perturbs, already halo-expanded where the
    /// edit is not itself a net footprint (footprints carry the halo).
    fn edit_regions(&self, edit: &EcoEdit, halo: i32) -> Vec<TrackRect> {
        let config = self.router.config();
        match edit {
            EcoEdit::AddNet { name, pins } => {
                let probe = Net::multi(NetId(self.netlist.len() as u32), name, pins.clone());
                vec![net_footprint(&probe, config, halo, &self.plane)]
            }
            EcoEdit::RemoveNet { net } => {
                vec![net_footprint(
                    self.netlist.net(*net),
                    config,
                    halo,
                    &self.plane,
                )]
            }
            EcoEdit::MoveNet { net, pins } => {
                let old = net_footprint(self.netlist.net(*net), config, halo, &self.plane);
                let probe = Net::multi(*net, &self.netlist.net(*net).name, pins.clone());
                vec![old, net_footprint(&probe, config, halo, &self.plane)]
            }
            EcoEdit::AddObstacle { rect, .. } | EcoEdit::RemoveObstacle { rect, .. } => {
                match self.clip(&rect.expanded(halo)) {
                    Some(r) => vec![r],
                    None => Vec::new(),
                }
            }
        }
    }

    /// The dependence-radius query: every active net whose interaction
    /// footprint, expanded by `halo`, intersects one of the regions
    /// (excluding `exclude`, the edited net itself — it is handled
    /// structurally).
    fn invalidated_by(
        &self,
        regions: &[TrackRect],
        exclude: Option<NetId>,
        halo: i32,
    ) -> Vec<NetId> {
        let config = self.router.config();
        let mut index = SpatialHash::with_density(
            self.plane.width(),
            self.plane.height(),
            self.active.len().max(1),
        );
        for &id in &self.active {
            if Some(id) == exclude {
                continue;
            }
            index.insert(
                u64::from(id.0),
                net_footprint(self.netlist.net(id), config, halo, &self.plane),
            );
        }
        let mut hit: BTreeSet<NetId> = BTreeSet::new();
        for region in regions {
            for (raw, rect) in index.query_entries(region) {
                if rect.intersects(region) {
                    hit.insert(NetId(raw as u32));
                }
            }
        }
        hit.into_iter().collect()
    }

    /// The live edit path. Validation has already passed, so every step
    /// here is infallible; routing failures are recorded per net, not
    /// surfaced as errors.
    fn apply_live(&mut self, edit: &EcoEdit) -> EditOutcome {
        let seq = self.edit_seq;
        self.edit_seq += 1;
        let kind = edit.kind();
        let halo = self.plane.rules().dependence_radius_tracks();
        let exclude = match edit {
            EcoEdit::RemoveNet { net } | EcoEdit::MoveNet { net, .. } => Some(*net),
            _ => None,
        };
        let regions = self.edit_regions(edit, halo);
        let invalidated = self.invalidated_by(&regions, exclude, halo);
        if self.rec.enabled() {
            self.rec.event(RouterEvent::NetsInvalidated {
                edit: seq,
                nets: invalidated.iter().map(|id| id.0).collect(),
            });
        }

        // Rip up the invalidated nets (freed cells stay reserved where
        // they are pin candidates — commit released the unused ones) and
        // clear their failure records; the re-route below re-records.
        {
            let router = &mut self.router;
            for &id in &invalidated {
                router.unroute(&mut self.plane, id);
                router.failed.retain(|f| *f != id);
            }
            // The structural change.
            match edit {
                EcoEdit::AddNet { name, pins } => {
                    let id = self.netlist.add_multi_pin(name.clone(), pins.clone());
                    self.active.insert(id);
                }
                EcoEdit::RemoveNet { net } => {
                    router.unroute(&mut self.plane, *net);
                    router.release_pins(&mut self.plane, self.netlist.net(*net));
                    self.active.remove(net);
                    router.failed.retain(|f| f != net);
                }
                EcoEdit::MoveNet { net, pins } => {
                    router.unroute(&mut self.plane, *net);
                    router.release_pins(&mut self.plane, self.netlist.net(*net));
                    router.failed.retain(|f| f != net);
                    let mut pins = pins.clone();
                    let extra = pins.split_off(2);
                    let n = self.netlist.net_mut(*net);
                    n.target = pins.pop().expect("validated: two pins");
                    n.source = pins.pop().expect("validated: two pins");
                    n.extra = extra;
                }
                EcoEdit::AddObstacle { layer, rect } => {
                    self.obstacles.push((*layer, *rect));
                    self.plane.add_blockage(*layer, *rect);
                }
                EcoEdit::RemoveObstacle { layer, rect } => {
                    let pos = self
                        .obstacles
                        .iter()
                        .position(|o| o == &(*layer, *rect))
                        .expect("validated: obstacle present");
                    self.obstacles.remove(pos);
                    self.plane.clear_blockage(*layer, *rect);
                    // Cells also covered by the base layout or another
                    // session obstacle stay blocked.
                    for (x, y) in rect.cells() {
                        let p = GridPoint::new(*layer, x, y);
                        if self.base_plane.in_bounds(p)
                            && self.base_plane.cell(p) == CellState::Blocked
                        {
                            self.plane.add_blockage(*layer, TrackRect::cell(x, y));
                        }
                    }
                    for &(l, r) in &self.obstacles {
                        if l == *layer && r.intersects(rect) {
                            self.plane.add_blockage(l, r);
                        }
                    }
                }
            }
        }

        // Re-route: the invalidated survivors plus an added/moved net,
        // in the canonical net order. Pins are re-reserved for the whole
        // set up front (ascending id, as the batch pre-pass does) so an
        // early re-route cannot run over a later net's pins.
        let mut targets: BTreeSet<NetId> = invalidated.iter().copied().collect();
        match edit {
            EcoEdit::AddNet { .. } => {
                targets.insert(NetId(self.netlist.len() as u32 - 1));
            }
            EcoEdit::MoveNet { net, .. } => {
                targets.insert(*net);
            }
            EcoEdit::RemoveNet { net } => {
                targets.remove(net);
            }
            _ => {}
        }
        for &id in &targets {
            self.router
                .reserve_pins(&mut self.plane, self.netlist.net(id));
        }
        let order = self.netlist.ids_by_hpwl();
        let mut rerouted: u64 = 0;
        for id in order {
            if !targets.contains(&id) {
                continue;
            }
            let net = self.netlist.net(id);
            if self.router.reroute_net(&mut self.plane, net, &mut self.rec) {
                rerouted += 1;
            }
        }
        let failed = self.router.failed().len() as u64;
        if self.rec.enabled() {
            self.rec.event(RouterEvent::EditApplied {
                edit: seq,
                kind,
                invalidated: invalidated.len() as u64,
                rerouted,
                failed,
            });
        }
        EditOutcome {
            edit: seq,
            kind,
            invalidated,
            rerouted,
            failed,
        }
    }

    fn capture_version(&self) -> EcoVersion {
        // The fingerprint field is unused on this path (restores load
        // onto the session's own base plane, not external files).
        EcoVersion {
            ckpt: checkpoint::serialize(&self.router, &self.plane, &self.netlist, 0),
            netlist: self.netlist.clone(),
            active: self.active.clone(),
            obstacles: self.obstacles.clone(),
        }
    }

    /// Makes version `at` live: the base plane re-blocked with its
    /// obstacles, then its snapshot loaded by the checkpoint loader.
    fn restore(&mut self, at: usize) {
        let v = &self.versions[at];
        self.netlist = v.netlist.clone();
        self.active = v.active.clone();
        self.obstacles = v.obstacles.clone();
        let mut plane = self.base_plane.clone();
        for &(layer, rect) in &self.obstacles {
            plane.add_blockage(layer, rect);
        }
        let snap = Snapshot::parse(&v.ckpt).expect("eco versions hold self-produced snapshots");
        self.router
            .restore(&mut plane, &self.netlist, &snap)
            .expect("a version loads onto the plane it was taken on");
        self.plane = plane;
        self.cursor = at;
    }
}

impl fmt::Debug for EcoSession {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (routed, failed, active) = self.stats();
        f.debug_struct("EcoSession")
            .field("routed", &routed)
            .field("failed", &failed)
            .field("active", &active)
            .field("edits", &self.undo_depth())
            .field("redoable", &self.redo_depth())
            .finish()
    }
}

// ---- edit-script parsing ----------------------------------------------

fn parse_i32(tok: &str, line: usize, what: &str) -> Result<i32, EcoError> {
    tok.parse().map_err(|_| EcoError::Script {
        line,
        message: format!("bad {what}: `{tok}`"),
    })
}

fn parse_net_ref(tok: &str) -> NetRef {
    match tok.strip_prefix('#').and_then(|s| s.parse::<u32>().ok()) {
        Some(id) => NetRef::Id(id),
        None => NetRef::Name(tok.to_string()),
    }
}

fn parse_rect_op(toks: &[&str], line: usize) -> Result<(Layer, TrackRect), EcoError> {
    if toks.len() != 5 {
        return Err(EcoError::Script {
            line,
            message: format!("want `L X0 Y0 X1 Y1`, got {} fields", toks.len()),
        });
    }
    let layer: u8 = toks[0].parse().map_err(|_| EcoError::Script {
        line,
        message: format!("bad layer: `{}`", toks[0]),
    })?;
    let x0 = parse_i32(toks[1], line, "x0")?;
    let y0 = parse_i32(toks[2], line, "y0")?;
    let x1 = parse_i32(toks[3], line, "x1")?;
    let y1 = parse_i32(toks[4], line, "y1")?;
    Ok((Layer(layer), TrackRect::new(x0, y0, x1, y1)))
}

/// Parses an edit script: one operation per line, `#` comments and blank
/// lines skipped. Pin syntax matches the `.layout` format.
///
/// ```text
/// add NAME PIN PIN [PIN...]   # add a net and route it
/// remove NET                  # NET = name or #id
/// move NET PIN PIN [PIN...]   # replace pins, re-route
/// obstacle L X0 Y0 X1 Y1      # block a rect on layer L
/// clear L X0 Y0 X1 Y1         # remove that exact obstacle again
/// undo
/// redo
/// ```
///
/// # Errors
///
/// [`EcoError::Script`] with the 1-based line number of the first bad
/// line.
pub fn parse_edit_script(text: &str) -> Result<Vec<ScriptOp>, EcoError> {
    let mut ops = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = i + 1;
        // `#` starts a comment — except `#<digit>`, which is a net id.
        let cut = raw
            .char_indices()
            .find(|&(i, c)| {
                c == '#'
                    && !raw[i + 1..]
                        .chars()
                        .next()
                        .is_some_and(|next| next.is_ascii_digit())
            })
            .map_or(raw.len(), |(i, _)| i);
        let content = raw[..cut].trim();
        if content.is_empty() {
            continue;
        }
        let toks: Vec<&str> = content.split_whitespace().collect();
        let op = match toks[0] {
            "add" | "move" => {
                if toks.len() < 4 {
                    return Err(EcoError::Script {
                        line,
                        message: format!("`{}` wants a net and at least two pins", toks[0]),
                    });
                }
                let pins = toks[2..]
                    .iter()
                    .map(|t| parse_pin(t).map_err(|message| EcoError::Script { line, message }))
                    .collect::<Result<Vec<Pin>, EcoError>>()?;
                if toks[0] == "add" {
                    ScriptOp::Add {
                        name: toks[1].to_string(),
                        pins,
                    }
                } else {
                    ScriptOp::Move {
                        net: parse_net_ref(toks[1]),
                        pins,
                    }
                }
            }
            "remove" => {
                if toks.len() != 2 {
                    return Err(EcoError::Script {
                        line,
                        message: "`remove` wants exactly one net".to_string(),
                    });
                }
                ScriptOp::Remove {
                    net: parse_net_ref(toks[1]),
                }
            }
            "obstacle" => {
                let (layer, rect) = parse_rect_op(&toks[1..], line)?;
                ScriptOp::Obstacle { layer, rect }
            }
            "clear" => {
                let (layer, rect) = parse_rect_op(&toks[1..], line)?;
                ScriptOp::Clear { layer, rect }
            }
            "undo" => ScriptOp::Undo,
            "redo" => ScriptOp::Redo,
            other => {
                return Err(EcoError::Script {
                    line,
                    message: format!(
                        "unknown operation `{other}` (want add, remove, move, \
                         obstacle, clear, undo or redo)"
                    ),
                })
            }
        };
        ops.push(op);
    }
    Ok(ops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sadp_geom::DesignRules;

    fn plane(w: i32, h: i32) -> RoutingPlane {
        RoutingPlane::new(3, w, h, DesignRules::node_10nm()).expect("valid")
    }

    fn p0(x: i32, y: i32) -> GridPoint {
        GridPoint::new(Layer(0), x, y)
    }

    type NetSpec<'a> = (&'a str, (i32, i32), (i32, i32));

    fn session(nets: &[NetSpec<'_>]) -> EcoSession {
        let mut nl = Netlist::new();
        for (name, s, t) in nets {
            nl.add_two_pin(*name, p0(s.0, s.1), p0(t.0, t.1));
        }
        EcoSession::create(RouterConfig::paper_defaults(), plane(96, 96), nl, true)
            .expect("session builds")
    }

    #[test]
    fn add_net_routes_and_scopes_invalidation() {
        let mut eco = session(&[("a", (2, 2), (20, 2)), ("far", (2, 88), (20, 88))]);
        eco.drain_events();
        let out = eco
            .apply(EcoEdit::AddNet {
                name: "b".into(),
                pins: vec![Pin::fixed(p0(2, 4)), Pin::fixed(p0(20, 4))],
            })
            .expect("valid edit");
        assert_eq!(out.kind, EditKind::AddNet);
        // `far` is 84 tracks away — beyond search margin plus halo.
        assert!(!out.invalidated.contains(&NetId(1)));
        let (routed, failed, active) = eco.stats();
        assert_eq!((routed, failed, active), (3, 0, 3));
        let events = eco.drain_events();
        assert!(events
            .iter()
            .any(|e| matches!(e, RouterEvent::NetsInvalidated { edit: 0, .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e, RouterEvent::EditApplied { edit: 0, .. })));
    }

    #[test]
    fn undo_redo_restore_digests() {
        let mut eco = session(&[("a", (2, 2), (20, 2)), ("b", (2, 4), (20, 4))]);
        let before = eco.state_digest();
        eco.apply(EcoEdit::MoveNet {
            net: NetId(0),
            pins: vec![Pin::fixed(p0(2, 8)), Pin::fixed(p0(20, 8))],
        })
        .expect("valid edit");
        let after = eco.state_digest();
        assert_ne!(before, after);
        eco.undo().expect("one edit to undo");
        assert_eq!(eco.state_digest(), before);
        eco.redo().expect("one edit to redo");
        assert_eq!(eco.state_digest(), after);
        eco.undo().expect("undoable again");
        assert_eq!(eco.state_digest(), before);
    }

    #[test]
    fn obstacle_roundtrip_restores_plane() {
        let mut eco = session(&[("a", (2, 10), (40, 10))]);
        let before = eco.state_digest();
        let rect = TrackRect::new(10, 8, 14, 12);
        eco.apply(EcoEdit::AddObstacle {
            layer: Layer(0),
            rect,
        })
        .expect("valid edit");
        // The route crossed the rect's columns, so it must have moved.
        assert_ne!(eco.state_digest(), before);
        eco.apply(EcoEdit::RemoveObstacle {
            layer: Layer(0),
            rect,
        })
        .expect("obstacle exists");
        eco.undo().expect("undo clear");
        eco.undo().expect("undo obstacle");
        assert_eq!(eco.state_digest(), before);
    }

    #[test]
    fn remove_net_frees_cells_and_rejects_double_remove() {
        let mut eco = session(&[("a", (2, 2), (20, 2))]);
        eco.apply(EcoEdit::RemoveNet { net: NetId(0) })
            .expect("active");
        let (routed, _, active) = eco.stats();
        assert_eq!((routed, active), (0, 0));
        assert!(eco.plane().is_free(p0(2, 2)));
        let err = eco.apply(EcoEdit::RemoveNet { net: NetId(0) }).unwrap_err();
        assert!(matches!(err, EcoError::UnknownNet(_)));
    }

    #[test]
    fn validation_rejects_bad_edits() {
        let eco = session(&[("a", (2, 2), (20, 2))]);
        let mut eco = eco;
        // Obstacle over a's pin.
        assert!(matches!(
            eco.apply(EcoEdit::AddObstacle {
                layer: Layer(0),
                rect: TrackRect::new(1, 1, 3, 3),
            }),
            Err(EcoError::BadEdit(_))
        ));
        // Duplicate name.
        assert!(matches!(
            eco.apply(EcoEdit::AddNet {
                name: "a".into(),
                pins: vec![Pin::fixed(p0(2, 30)), Pin::fixed(p0(20, 30))],
            }),
            Err(EcoError::BadEdit(_))
        ));
        // Pin collision.
        assert!(matches!(
            eco.apply(EcoEdit::AddNet {
                name: "c".into(),
                pins: vec![Pin::fixed(p0(2, 2)), Pin::fixed(p0(20, 30))],
            }),
            Err(EcoError::BadEdit(_))
        ));
        // Out-of-bounds pin.
        assert!(matches!(
            eco.apply(EcoEdit::AddNet {
                name: "d".into(),
                pins: vec![Pin::fixed(p0(2, 120)), Pin::fixed(p0(20, 30))],
            }),
            Err(EcoError::BadEdit(_))
        ));
        // A failed validation must not burn an undo slot.
        assert_eq!(eco.undo_depth(), 0);
    }

    #[test]
    fn script_parses_and_runs() {
        let text = "\
# a comment
add b 0:2,6 0:20,6   # trailing comment
move #0 0:2,12|1:2,12 0:20,12
obstacle 0 30 30 34 34
clear 0 30 30 34 34
remove b
undo
redo
";
        let ops = parse_edit_script(text).expect("parses");
        assert_eq!(ops.len(), 7);
        assert_eq!(
            ops[0],
            ScriptOp::Add {
                name: "b".into(),
                pins: vec![Pin::fixed(p0(2, 6)), Pin::fixed(p0(20, 6))],
            }
        );
        let mut eco = session(&[("a", (2, 2), (20, 2))]);
        let outcomes: Vec<OpOutcome> = ops.iter().map(|op| eco.run(op).expect("runs")).collect();
        assert_eq!(outcomes.len(), 7);
        assert!(matches!(outcomes[5], OpOutcome::Undo));
        // After remove+undo+redo, `b` is removed again.
        assert!(eco.resolve(&NetRef::Name("b".into())).is_err());
        assert!(eco.resolve(&NetRef::Id(0)).is_ok());
    }

    #[test]
    fn script_errors_carry_line_numbers() {
        let err = parse_edit_script("add x 0:1,1 0:5,1\nfrobnicate\n").unwrap_err();
        match err {
            EcoError::Script { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other}"),
        }
    }
}
