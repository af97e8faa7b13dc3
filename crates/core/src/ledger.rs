//! The commit ledger: the single mutation point of the routing pipeline.
//!
//! Every piece of shared routing state that outlives one net — the
//! per-layer [`OverlayGraph`]s with their union–find, the fragment
//! [`SpatialHash`] index and the routed-net store — lives behind a
//! [`CommitLedger`]. The driver interacts with it through an explicit
//! `propose → commit / abort` protocol:
//!
//! 1. [`CommitLedger::propose`] checkpoints the graphs (union–find marks)
//!    and returns a [`Proposal`] token,
//! 2. scenario edges are staged with [`CommitLedger::add_scenario`] and
//!    trial-colored with [`CommitLedger::trial_color`] /
//!    [`CommitLedger::flip_trial`],
//! 3. [`CommitLedger::abort`] rolls everything back to the checkpoint
//!    (rip-up), or [`CommitLedger::commit`] makes the route durable:
//!    plane occupancy, direction map, spatial index, routed-net store —
//!    and appends the net to the ledger's journal.
//!
//! Commits are strictly serialized (every mutator takes `&mut self`). The
//! journal lists the routed nets in the order their fragments entered the
//! index, which is the order the index's buckets hold them in:
//! `CommitLedger::restore` rebuilds the index from it.

use crate::grids::DirGrid;
use crate::scan::pack_frag_id;
use crate::search::RouteCandidate;
use sadp_geom::{GridPoint, Layer, SpatialHash, TrackRect};
use sadp_graph::{flip, GraphError, OverlayGraph};
use sadp_grid::{Net, NetId, RoutePath, RoutingPlane};
use sadp_obs::json::Obj;
use sadp_scenario::{CostTable, ScenarioKind};
use std::collections::BTreeMap;

/// Member cap for the per-net trial flips and the cleanup flips. On dense
/// circuits the soft scenarios fuse nearly every net into one connected
/// component, so an uncapped `flip_component` per routed net costs
/// `O(n)` each — the dominant quadratic term of the old Fig. 20 series.
/// The finalize stage at the end of a run still flips whole components
/// once.
pub(crate) const FLIP_NEIGHBORHOOD: usize = 256;

/// A successfully routed net: its path(s) and per-layer wire fragments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutedNet {
    /// The net.
    pub id: NetId,
    /// The trunk path (source pin to target pin).
    pub path: RoutePath,
    /// Branch paths connecting the extra terminals of a multi-pin net to
    /// the trunk (empty for two-pin nets).
    pub branches: Vec<RoutePath>,
    /// Maximal wire-fragment rectangles per layer, over all paths.
    pub fragments: Vec<(Layer, TrackRect)>,
    /// Spatial-index ids of the fragments (parallel to `fragments`).
    pub(crate) frag_ids: Vec<u64>,
}

impl RoutedNet {
    /// Total planar wirelength over trunk and branches.
    #[must_use]
    pub fn wirelength(&self) -> u64 {
        self.path.wirelength() + self.branches.iter().map(RoutePath::wirelength).sum::<u64>()
    }

    /// Total via count over trunk and branches.
    #[must_use]
    pub fn via_count(&self) -> u64 {
        self.path.via_count() + self.branches.iter().map(RoutePath::via_count).sum::<u64>()
    }

    /// Iterates over every grid point of the net (trunk then branches;
    /// branch tap points repeat their trunk cell).
    pub fn all_points(&self) -> impl Iterator<Item = GridPoint> + '_ {
        self.path.points().iter().copied().chain(
            self.branches
                .iter()
                .flat_map(|b| b.points().iter().copied()),
        )
    }
}

/// Event counters aggregated by the ledger (they feed the
/// [`RoutingReport`](crate::RoutingReport)).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LedgerCounters {
    /// Rip-up-and-re-route iterations.
    pub ripups: u64,
    /// Rip-ups caused by unavoidable type-B cut conflicts.
    pub ripups_type_b: u64,
    /// Rip-ups caused by constraint-graph rejections (odd cycles,
    /// infeasible pairs, forbidden merges).
    pub ripups_graph: u64,
    /// Rip-ups caused by unavoidable realized risks after trial coloring.
    pub ripups_risk: u64,
    /// Nets with no path at all.
    pub failed_no_path: u64,
    /// Nets that exhausted their rip-up budget.
    pub failed_exhausted: u64,
    /// Nets given up by the post-routing repair.
    pub failed_cleanup: u64,
    /// Nets whose trial coloring triggered a flip.
    pub flips: u64,
    /// Total A\*-nodes expanded.
    pub nodes_expanded: u64,
    /// Nets that ran out of their search budget (per-net or whole-run).
    pub failed_budget: u64,
}

impl LedgerCounters {
    /// The counters as one JSON object with a fixed key order (the
    /// `counters` line of the ECO state digest).
    pub fn to_json(&self) -> Obj {
        Obj::default()
            .int("ripups", self.ripups)
            .int("ripups_type_b", self.ripups_type_b)
            .int("ripups_graph", self.ripups_graph)
            .int("ripups_risk", self.ripups_risk)
            .int("failed_no_path", self.failed_no_path)
            .int("failed_exhausted", self.failed_exhausted)
            .int("failed_cleanup", self.failed_cleanup)
            .int("flips", self.flips)
            .int("nodes_expanded", self.nodes_expanded)
            .int("failed_budget", self.failed_budget)
    }
}

/// A checkpoint token of an in-flight route proposal. Obtained from
/// [`CommitLedger::propose`]; consumed by [`CommitLedger::commit`] or
/// [`CommitLedger::abort`]. Holding it is proof that the per-graph
/// union–find marks were taken, so a rollback is always possible.
#[derive(Debug)]
pub struct Proposal {
    net: NetId,
    marks: Vec<usize>,
}

impl Proposal {
    /// The net this proposal is for.
    #[must_use]
    pub fn net(&self) -> NetId {
        self.net
    }
}

/// Serialized owner of all shared routing state (see the module docs for
/// the protocol). Two ledgers compare equal when every field does,
/// adjacency order and index bucket order included.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct CommitLedger {
    graphs: Vec<OverlayGraph>,
    index: Vec<SpatialHash>,
    routed: BTreeMap<NetId, RoutedNet>,
    /// The routed nets in the order their fragments entered the index.
    journal: Vec<NetId>,
    frag_seq: u32,
    /// Event counters.
    pub counters: LedgerCounters,
}

impl CommitLedger {
    /// An unsized ledger (zero layers); [`CommitLedger::new`] replaces it
    /// once the plane is known.
    #[must_use]
    pub fn empty() -> CommitLedger {
        CommitLedger::default()
    }

    /// Creates a ledger sized for `plane`, with the fragment index tile
    /// size matched to `expected_nets` (`0` = unknown, coarsest tile).
    #[must_use]
    pub fn new(plane: &RoutingPlane, expected_nets: usize) -> CommitLedger {
        CommitLedger {
            graphs: (0..plane.layers()).map(|_| OverlayGraph::new()).collect(),
            index: (0..plane.layers())
                .map(|_| SpatialHash::with_density(plane.width(), plane.height(), expected_nets))
                .collect(),
            routed: BTreeMap::new(),
            journal: Vec::new(),
            frag_seq: 0,
            counters: LedgerCounters::default(),
        }
    }

    /// A ledger holding exactly the given state: the checkpoint loader's
    /// constructor. `nets` come in journal order; re-inserting their
    /// fragments in that order reproduces every index bucket, because
    /// inserts append and removals keep the survivors' order.
    pub(crate) fn restore(
        graphs: Vec<OverlayGraph>,
        tile: i32,
        nets: Vec<RoutedNet>,
        frag_seq: u32,
        counters: LedgerCounters,
    ) -> CommitLedger {
        let mut ledger = CommitLedger {
            index: graphs.iter().map(|_| SpatialHash::new(tile)).collect(),
            graphs,
            frag_seq,
            counters,
            ..CommitLedger::default()
        };
        for r in nets {
            ledger.insert_routed(r);
        }
        ledger
    }

    /// The tile size of the fragment index (`0` before sizing).
    pub(crate) fn tile(&self) -> i32 {
        self.index.first().map_or(0, SpatialHash::tile)
    }

    /// The next fragment sequence number.
    pub(crate) fn frag_seq(&self) -> u32 {
        self.frag_seq
    }

    /// Indexes a routed net's fragments, stores it and journals it.
    fn insert_routed(&mut self, r: RoutedNet) {
        for (&(layer, rect), &fid) in r.fragments.iter().zip(&r.frag_ids) {
            self.index[layer.index()].insert(fid, rect);
        }
        self.journal.push(r.id);
        self.routed.insert(r.id, r);
    }

    /// Number of layers the ledger is sized for (`0` before sizing).
    #[must_use]
    pub fn layer_count(&self) -> usize {
        self.graphs.len()
    }

    /// The per-layer overlay constraint graphs.
    #[must_use]
    pub fn graphs(&self) -> &[OverlayGraph] {
        &self.graphs
    }

    /// Mutable graph access for the finalize/cleanup flipping passes (the
    /// one consumer outside the proposal protocol; runs strictly serially
    /// after all commits).
    pub(crate) fn graphs_mut(&mut self) -> &mut [OverlayGraph] {
        &mut self.graphs
    }

    /// The fragment spatial index of one layer.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range for the sized plane.
    #[must_use]
    pub fn frag_index(&self, layer: Layer) -> &SpatialHash {
        &self.index[layer.index()]
    }

    /// The routed nets, ordered by [`NetId`].
    #[must_use]
    pub fn routed(&self) -> &BTreeMap<NetId, RoutedNet> {
        &self.routed
    }

    /// The commit journal: every routed net once, in the order its
    /// fragments entered the index. A net that is unrouted leaves it; a
    /// net committed again after a rip-up re-enters at the end.
    #[must_use]
    pub fn journal(&self) -> &[NetId] {
        &self.journal
    }

    /// Opens a proposal for `net`: checkpoints every layer graph so the
    /// staged scenario edges and trial colors can be rolled back.
    #[must_use]
    pub fn propose(&self, net: NetId) -> Proposal {
        Proposal {
            net,
            marks: self.graphs.iter().map(OverlayGraph::mark).collect(),
        }
    }

    /// Stages one scenario edge between the proposal's net and
    /// `other_net` on `layer`.
    ///
    /// # Errors
    ///
    /// Propagates [`GraphError`] when the edge closes a hard odd cycle or
    /// makes the pair infeasible; the caller should [`CommitLedger::abort`]
    /// and rip up.
    pub fn add_scenario(
        &mut self,
        proposal: &Proposal,
        layer: Layer,
        other_net: u32,
        kind: ScenarioKind,
        table: CostTable,
    ) -> Result<(), GraphError> {
        self.graphs[layer.index()].add_scenario_with_kind(
            proposal.net.0,
            other_net,
            Some(kind),
            table,
        )
    }

    /// Trial-colors the proposal's net on each of `layers` (pseudo-color,
    /// Fig. 19 line 11) and returns `(side overlay units, has realized
    /// risk)` summed/or-ed over the layers.
    pub fn trial_color(&mut self, proposal: &Proposal, layers: &[Layer]) -> (u64, bool) {
        let key = proposal.net.0;
        let mut overlay = 0u64;
        let mut has_risk = false;
        for layer in layers {
            let g = &mut self.graphs[layer.index()];
            g.ensure_vertex(key);
            g.pseudo_color(key);
            overlay += g.net_overlay_units(key);
            has_risk |= g.net_has_risk(key);
        }
        (overlay, has_risk)
    }

    /// Runs the bounded neighborhood color flipping around the proposal's
    /// net on each of `layers` (Fig. 19 line 13).
    pub fn flip_trial(&mut self, proposal: &Proposal, layers: &[Layer]) {
        let key = proposal.net.0;
        for layer in layers {
            flip::flip_neighborhood(&mut self.graphs[layer.index()], key, FLIP_NEIGHBORHOOD);
        }
    }

    /// The subset of `layers` on which the proposal's net still realizes a
    /// forbidden assignment or a type-A cut risk after trial coloring.
    #[must_use]
    pub fn risky_layers(&self, proposal: &Proposal, layers: &[Layer]) -> Vec<Layer> {
        let key = proposal.net.0;
        layers
            .iter()
            .copied()
            .filter(|l| self.graphs[l.index()].net_has_risk(key))
            .collect()
    }

    /// Aborts the proposal: rolls every layer graph back to the
    /// checkpoint, removing the staged vertex, edges and trial colors.
    pub fn abort(&mut self, proposal: Proposal) {
        debug_assert_eq!(proposal.marks.len(), self.graphs.len());
        for (g, &mark) in self.graphs.iter_mut().zip(&proposal.marks) {
            g.rollback_net(proposal.net.0, mark);
        }
    }

    /// Commits the proposal: occupies the candidate's cells on `plane`,
    /// releases unused pin-candidate reservations, publishes the wire
    /// directions and the fragments, stores the routed net and journals
    /// it. The graphs are left exactly as the trial phase validated them.
    pub fn commit(
        &mut self,
        proposal: Proposal,
        plane: &mut RoutingPlane,
        dir_map: &mut DirGrid,
        net: &Net,
        candidate: RouteCandidate,
    ) {
        debug_assert_eq!(proposal.net, net.id);
        let RouteCandidate {
            path,
            branches,
            fragments,
        } = candidate;
        let id = net.id;
        for &p in path.points() {
            plane
                .occupy(p, id)
                .expect("A* only walks free or own cells");
        }
        for b in &branches {
            for &p in b.points() {
                plane
                    .occupy(p, id)
                    .expect("branch A* only walks free or own cells");
            }
        }
        let fragments = fragments.into_vec();
        let frag_ids = (0..fragments.len() as u32)
            .map(|k| pack_frag_id(id.0, self.frag_seq + k))
            .collect();
        self.frag_seq += fragments.len() as u32;
        let r = RoutedNet {
            id,
            path,
            branches,
            fragments,
            frag_ids,
        };
        release_unused_pins(plane, net, &r);
        publish_dirs(dir_map, &r);
        self.insert_routed(r);
    }

    /// Drops a net that exhausted its rip-up budget from every layer graph
    /// (nothing was committed for it).
    pub fn forget(&mut self, net: NetId) {
        for g in &mut self.graphs {
            g.remove_net(net.0);
        }
    }

    /// Unroutes a committed net: frees its plane cells, clears its wire
    /// directions, drops its fragments from the index and removes it from
    /// every layer graph. Returns whether the net was routed.
    pub fn unroute(&mut self, plane: &mut RoutingPlane, dir_map: &mut DirGrid, id: NetId) -> bool {
        let Some(r) = self.routed.remove(&id) else {
            return false;
        };
        self.journal.retain(|&n| n != id);
        plane.clear_path(r.path.points(), id);
        for b in &r.branches {
            plane.clear_path(b.points(), id);
        }
        for ((layer, rect), fid) in r.fragments.iter().zip(&r.frag_ids) {
            self.index[layer.index()].remove(*fid, rect);
            for (x, y) in rect.cells() {
                dir_map.remove(GridPoint::new(*layer, x, y));
            }
        }
        for g in &mut self.graphs {
            g.remove_net(id.0);
        }
        true
    }
}

/// Frees the pin-candidate cells of `net` that its route `r` does not
/// use (only those `net` still holds).
fn release_unused_pins(plane: &mut RoutingPlane, net: &Net, r: &RoutedNet) {
    for pin in net.pins() {
        for &c in pin.candidates() {
            if !r.all_points().any(|p| p == c) {
                plane.clear_path(&[c], net.id);
            }
        }
    }
}

/// Records the wire direction of every straight fragment cell of `r`.
pub(crate) fn publish_dirs(dir_map: &mut DirGrid, r: &RoutedNet) {
    for &(layer, rect) in &r.fragments {
        if let Some(axis) = rect.orientation().axis() {
            for (x, y) in rect.cells() {
                dir_map.set(GridPoint::new(layer, x, y), axis);
            }
        }
    }
}
