//! The per-layer overlay constraint graph.

use crate::dsu::ParityDsu;
use crate::flip::FlipScratch;
use crate::state;
use sadp_scenario::{Assignment, Color, Cost, CostTable, ScenarioKind};
use std::error::Error;
use std::fmt;
use std::fmt::Write as _;

/// Aggregated constraint data of one vertex pair.
///
/// A pattern pair may induce several potential overlay scenarios
/// (Fig. 10(b)); their cost tables are merged entry-wise, which also makes
/// a nonhard edge redundant next to a hard one (Fig. 10(c)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeData {
    /// Merged cost table, oriented for the ordered key `(lo, hi)`.
    pub table: CostTable,
    /// The scenario kinds that contributed (for reporting).
    pub kinds: Vec<ScenarioKind>,
}

/// Errors reported while updating the constraint graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphError {
    /// The new scenario closes an odd cycle of hard constraint edges
    /// (Fig. 11(g)): no legal color assignment exists.
    HardOddCycle {
        /// One endpoint net of the offending relation.
        a: u32,
        /// The other endpoint net.
        b: u32,
    },
    /// Every color assignment of the pair is forbidden (the pair induces
    /// contradictory hard scenarios).
    Infeasible {
        /// One endpoint net.
        a: u32,
        /// The other endpoint net.
        b: u32,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::HardOddCycle { a, b } => {
                write!(
                    f,
                    "hard-constraint odd cycle closed between nets {a} and {b}"
                )
            }
            GraphError::Infeasible { a, b } => {
                write!(f, "no legal color assignment for nets {a} and {b}")
            }
        }
    }
}

impl Error for GraphError {}

/// Evaluation of the current coloring of the graph.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EvalStats {
    /// Total nonhard side overlay, in `w_line` units.
    pub overlay_units: u64,
    /// Number of realized hard-overlay assignments (must be 0 for a legal
    /// routing result).
    pub hard_violations: u64,
    /// Number of realized assignments that risk a type-A cut conflict.
    pub cut_risks: u64,
}

/// The overlay constraint graph of one routing layer (Section III-B).
///
/// Vertices are routed nets (identified by `u32` ids), each carrying its
/// current mask [`Color`]. Edges carry merged scenario [`CostTable`]s.
/// Hard constraints are tracked incrementally in a [`ParityDsu`], which
/// both detects hard-constraint odd cycles in near-constant time and plays
/// the role of the paper's even-cycle super-vertex reduction.
///
/// Storage is dense: net ids are the router's `0..n` netlist indices, so
/// vertex state lives in a vector indexed by net id and every adjacency
/// entry carries the index of its edge in one edge arena. Looking up a
/// color, a neighbour list or an incident edge does no hashing.
#[derive(Debug, Clone, Default)]
pub struct OverlayGraph {
    /// Indexed by net id; ids without a vertex hold [`Vertex::ABSENT`].
    verts: Vec<Vertex>,
    vertex_count: usize,
    /// Every edge once, in no particular order: removing an edge moves
    /// the last one into its place.
    edges: Vec<Edge>,
    next_slot: u32,
    dsu: ParityDsu,
    /// The flipping algorithm's working storage, lent out for the span of
    /// a member numbering (see [`OverlayGraph::number_members`]).
    flip_scratch: FlipScratch,
}

/// One vertex's state. `slot == NO_SLOT` marks a net id with no vertex.
#[derive(Debug, Clone)]
struct Vertex {
    /// The vertex's element in the union–find.
    slot: u32,
    color: Color,
    /// The vertex's constraint edges changed since the last
    /// [`OverlayGraph::take_dirty`] (used to scope the final recoloring to
    /// the components actually touched).
    dirty: bool,
    /// The vertex's position in the member list of the flip in progress
    /// (see [`OverlayGraph::number_members`]), `NOT_MEMBER` otherwise.
    member: u32,
    /// Neighbours in insertion order, which the flipping traversals follow.
    adj: Vec<u32>,
    /// `edge_of[i]` is the arena index of the edge to `adj[i]`.
    edge_of: Vec<u32>,
}

impl Vertex {
    const ABSENT: Vertex = Vertex {
        slot: NO_SLOT,
        color: Color::Core,
        dirty: false,
        member: NOT_MEMBER,
        adj: Vec::new(),
        edge_of: Vec::new(),
    };

    fn present(&self) -> bool {
        self.slot != NO_SLOT
    }
}

const NO_SLOT: u32 = u32::MAX;
const NOT_MEMBER: u32 = u32::MAX;

/// One edge of the arena, keyed by its ordered endpoints.
#[derive(Debug, Clone)]
struct Edge {
    lo: u32,
    hi: u32,
    data: EdgeData,
}

/// Two graphs are equal when they hold the same vertices with the same
/// slots, colors, dirty flags and neighbour order, the same edge data
/// and the same union–find; where the edge arena keeps each edge and how
/// long the vertex vector has grown are history, not state.
impl PartialEq for OverlayGraph {
    fn eq(&self, other: &OverlayGraph) -> bool {
        let same_vertex = |net: usize| match (self.vertex(net as u32), other.vertex(net as u32)) {
            (None, None) => true,
            (Some(a), Some(b)) => {
                a.slot == b.slot
                    && a.color == b.color
                    && a.dirty == b.dirty
                    && a.adj == b.adj
                    && a.edge_of
                        .iter()
                        .zip(&b.edge_of)
                        .all(|(&x, &y)| self.edges[x as usize].data == other.edges[y as usize].data)
            }
            _ => false,
        };
        self.next_slot == other.next_slot
            && self.vertex_count == other.vertex_count
            && self.edges.len() == other.edges.len()
            && self.dsu == other.dsu
            && (0..self.verts.len().max(other.verts.len())).all(same_vertex)
    }
}

impl Eq for OverlayGraph {}

impl OverlayGraph {
    /// Creates an empty graph.
    #[must_use]
    pub fn new() -> OverlayGraph {
        OverlayGraph::default()
    }

    /// Number of vertices (routed nets) in the graph.
    #[must_use]
    pub fn vertex_count(&self) -> usize {
        self.vertex_count
    }

    /// Number of pair edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The vertex of `net`, if present.
    fn vertex(&self, net: u32) -> Option<&Vertex> {
        self.verts.get(net as usize).filter(|v| v.present())
    }

    /// The vertex of `net`, which must be present.
    fn vertex_mut(&mut self, net: u32) -> &mut Vertex {
        let v = &mut self.verts[net as usize];
        debug_assert!(v.present(), "net {net} has no vertex");
        v
    }

    /// One past the largest net id the vertex storage covers: every
    /// vertex id is below it, so a bitset over `0..id_bound()` can hold
    /// any set of vertices.
    pub(crate) fn id_bound(&self) -> usize {
        self.verts.len()
    }

    /// Numbers the vertices of `members` by their position in it, for
    /// [`OverlayGraph::member_index`], until
    /// [`OverlayGraph::clear_members`], and lends out the flipping
    /// algorithm's scratch for as long: member-indexed storage without a
    /// map from net id to position, reused from flip to flip.
    pub(crate) fn number_members(&mut self, members: &[u32]) -> FlipScratch {
        for (i, &m) in members.iter().enumerate() {
            self.vertex_mut(m).member = i as u32;
        }
        std::mem::take(&mut self.flip_scratch)
    }

    /// The position of `net` in the numbered member list, if it is in it.
    pub(crate) fn member_index(&self, net: u32) -> Option<usize> {
        self.verts
            .get(net as usize)
            .map(|v| v.member)
            .filter(|&i| i != NOT_MEMBER)
            .map(|i| i as usize)
    }

    /// Ends a [`OverlayGraph::number_members`] numbering and takes the
    /// scratch back.
    pub(crate) fn clear_members(&mut self, members: &[u32], scratch: FlipScratch) {
        for &m in members {
            self.vertex_mut(m).member = NOT_MEMBER;
        }
        self.flip_scratch = scratch;
    }

    /// Inserts a vertex for `net` if absent (initial color: core).
    pub fn ensure_vertex(&mut self, net: u32) {
        let i = net as usize;
        if i >= self.verts.len() {
            self.verts.resize(i + 1, Vertex::ABSENT);
        } else if self.verts[i].present() {
            return;
        }
        let v = &mut self.verts[i];
        v.slot = self.next_slot;
        v.color = Color::Core;
        v.dirty = true;
        self.next_slot += 1;
        self.vertex_count += 1;
        self.dsu.grow(self.next_slot as usize);
    }

    /// Whether the graph has a vertex for `net`.
    #[must_use]
    pub fn contains(&self, net: u32) -> bool {
        self.vertex(net).is_some()
    }

    /// The current color of `net`.
    ///
    /// # Panics
    ///
    /// Panics if `net` is not in the graph.
    #[must_use]
    pub fn color(&self, net: u32) -> Color {
        self.vertex(net)
            .unwrap_or_else(|| panic!("net {net} has no vertex"))
            .color
    }

    /// Sets the color of `net` (inserting the vertex if needed).
    pub fn set_color(&mut self, net: u32, color: Color) {
        self.ensure_vertex(net);
        self.verts[net as usize].color = color;
    }

    /// The neighbours of `net`.
    #[must_use]
    pub fn neighbors(&self, net: u32) -> &[u32] {
        self.vertex(net).map_or(&[], |v| v.adj.as_slice())
    }

    /// The neighbours of `net` with the data of the edge to each, in
    /// adjacency order. Tables are oriented for `(min, max)` of the pair.
    pub(crate) fn incident(&self, net: u32) -> impl Iterator<Item = (u32, &EdgeData)> + '_ {
        let (adj, edge_of) = self
            .vertex(net)
            .map_or((&[][..], &[][..]), |v| (&v.adj[..], &v.edge_of[..]));
        adj.iter()
            .zip(edge_of)
            .map(|(&n, &e)| (n, &self.edges[e as usize].data))
    }

    /// The arena index of the edge between `a` and `b`, if dependent.
    fn edge_index(&self, a: u32, b: u32) -> Option<u32> {
        let (va, vb) = (self.vertex(a)?, self.vertex(b)?);
        // Scan the shorter list.
        let (v, other) = if va.adj.len() <= vb.adj.len() {
            (va, b)
        } else {
            (vb, a)
        };
        let i = v.adj.iter().position(|&n| n == other)?;
        Some(v.edge_of[i])
    }

    /// The merged edge data between two nets, if dependent.
    #[must_use]
    pub fn edge(&self, a: u32, b: u32) -> Option<&EdgeData> {
        self.edge_index(a, b).map(|e| &self.edges[e as usize].data)
    }

    /// All vertices, ascending.
    pub fn vertices(&self) -> impl Iterator<Item = u32> + '_ {
        self.verts
            .iter()
            .enumerate()
            .filter(|(_, v)| v.present())
            .map(|(i, _)| i as u32)
    }

    /// All edges as `(a, b, data)` with `a < b`, in unspecified order.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32, &EdgeData)> + '_ {
        self.edges.iter().map(|e| (e.lo, e.hi, &e.data))
    }

    /// The assignment the current colors of `a` and `b` realize on their
    /// edge, oriented `(min, max)` like the edge tables.
    fn realized(&self, a: u32, b: u32) -> Assignment {
        let (lo, hi) = ordered(a, b);
        Assignment::from_colors(self.verts[lo as usize].color, self.verts[hi as usize].color)
    }

    /// The forced hard color relation between two nets, if any
    /// (`Some(true)` = must differ, `Some(false)` = must match).
    #[must_use]
    pub fn hard_relation(&self, a: u32, b: u32) -> Option<bool> {
        let sa = self.vertex(a)?.slot;
        let sb = self.vertex(b)?.slot;
        self.dsu.relation_ref(sa, sb)
    }

    /// The hard-component root and parity of `net`, used by the flipping
    /// algorithm to form super vertices.
    pub(crate) fn hard_root(&self, net: u32) -> (u32, bool) {
        self.dsu.find_ref(self.verts[net as usize].slot)
    }

    /// Adds one potential overlay scenario between `a` and `b`, with
    /// `table` oriented for the order `(a, b)`, and records its kind.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::HardOddCycle`] if a hard constraint of the
    /// scenario closes an odd cycle of hard edges, or
    /// [`GraphError::Infeasible`] if the merged pair table forbids all four
    /// assignments. In both cases the graph is rolled back to its previous
    /// state; the caller is expected to rip up the offending net.
    pub fn add_scenario_with_kind(
        &mut self,
        a: u32,
        b: u32,
        kind: Option<ScenarioKind>,
        table: CostTable,
    ) -> Result<(), GraphError> {
        assert_ne!(a, b, "a net cannot constrain itself");
        self.ensure_vertex(a);
        self.ensure_vertex(b);
        let (lo, hi) = ordered(a, b);
        let oriented = if lo == a { table } else { table.swapped() };

        let found = self.edge_index(lo, hi);
        let prev = found.map(|e| self.edges[e as usize].data.table);
        let merged = match &prev {
            Some(t) => t.merged(&oriented),
            None => oriented,
        };
        if merged.min_so().is_none() {
            return Err(GraphError::Infeasible { a, b });
        }

        let prev_parity = prev.and_then(|t| t.hard_parity());
        if let Some(parity) = merged.table_parity_delta(prev_parity) {
            let sa = self.verts[lo as usize].slot;
            let sb = self.verts[hi as usize].slot;
            if self.dsu.union(sa, sb, parity).is_err() {
                return Err(GraphError::HardOddCycle { a, b });
            }
        }

        let e = match found {
            Some(e) => e,
            None => {
                let e = self.edges.len() as u32;
                self.edges.push(Edge {
                    lo,
                    hi,
                    data: EdgeData {
                        table: CostTable::zero(),
                        kinds: Vec::new(),
                    },
                });
                self.link(lo, hi, e);
                e
            }
        };
        let data = &mut self.edges[e as usize].data;
        data.table = merged;
        if let Some(k) = kind {
            data.kinds.push(k);
        }
        self.verts[a as usize].dirty = true;
        self.verts[b as usize].dirty = true;
        Ok(())
    }

    /// Appends edge `e` between `lo` and `hi` to both adjacency lists,
    /// `lo`'s first.
    fn link(&mut self, lo: u32, hi: u32, e: u32) {
        for (x, y) in [(lo, hi), (hi, lo)] {
            let v = self.vertex_mut(x);
            v.adj.push(y);
            v.edge_of.push(e);
        }
    }

    /// Adds one scenario without recording its kind.
    ///
    /// # Errors
    ///
    /// Same as [`OverlayGraph::add_scenario_with_kind`].
    pub fn add_scenario(&mut self, a: u32, b: u32, table: CostTable) -> Result<(), GraphError> {
        self.add_scenario_with_kind(a, b, None, table)
    }

    /// A checkpoint for [`OverlayGraph::rollback_net`]: call before
    /// inserting a net's scenarios, roll back with it if the net must be
    /// ripped up. Avoids even the component-scoped union–find repair of
    /// [`OverlayGraph::remove_net`] on the hot rip-up path.
    #[must_use]
    pub fn mark(&self) -> usize {
        self.dsu.mark()
    }

    /// Removes `net` and its edges like [`OverlayGraph::remove_net`], but
    /// restores the union–find by rolling back to `mark` instead of
    /// marking it dirty. Only valid when no *other* net inserted hard
    /// edges after `mark` — exactly the rip-up situation of Fig. 19.
    pub fn rollback_net(&mut self, net: u32, mark: usize) {
        if !self.contains(net) {
            return;
        }
        self.detach(net);
        self.dsu.rollback(mark);
    }

    /// Drops the vertex of `net` (present) with every incident edge,
    /// marking the former neighbours dirty. The union–find is left to
    /// the caller.
    fn detach(&mut self, net: u32) {
        let Vertex {
            adj, mut edge_of, ..
        } = std::mem::replace(&mut self.verts[net as usize], Vertex::ABSENT);
        self.vertex_count -= 1;
        for n in adj {
            let nv = self.vertex_mut(n);
            let i = nv
                .adj
                .iter()
                .position(|&x| x == net)
                .expect("adjacency is symmetric");
            nv.adj.remove(i);
            nv.edge_of.remove(i);
            nv.dirty = true;
        }
        // Highest index first: the edge `swap_remove` moves down is then
        // never one of `net`'s own, whose indices are still pending here.
        edge_of.sort_unstable_by(|a, b| b.cmp(a));
        for e in edge_of {
            self.edges.swap_remove(e as usize);
            let Some(moved) = self.edges.get(e as usize) else {
                continue;
            };
            let old = self.edges.len() as u32;
            for x in [moved.lo, moved.hi] {
                let entry = self
                    .vertex_mut(x)
                    .edge_of
                    .iter_mut()
                    .find(|i| **i == old)
                    .expect("a moved edge is listed by both ends");
                *entry = e;
            }
        }
    }

    /// Removes `net` and every incident edge (rip-up). The hard-constraint
    /// union–find is repaired eagerly, scoped to the hard-connected
    /// component of `net`: its members are detached and the surviving hard
    /// edges among them re-unioned, so a removal costs `O(component)`
    /// instead of the `O(E)` full rebuild it used to schedule.
    pub fn remove_net(&mut self, net: u32) {
        if !self.contains(net) {
            return;
        }
        // The hard-connected component of `net` (over graph hard edges) is
        // a superset of its union–find component: every committed union
        // corresponds to an edge whose merged table is hard, and merging
        // never un-hardens a table. Resetting the whole component is
        // therefore union-closed, as `ParityDsu::reset_nodes` requires.
        let members = self.hard_members(net);
        let member_slots: Vec<u32> = members
            .iter()
            .map(|&m| self.verts[m as usize].slot)
            .collect();

        // The slot is dropped with the vertex; a re-inserted net gets a
        // fresh slot.
        self.detach(net);

        self.dsu.reset_nodes(&member_slots);
        // Deterministic union order, as in a from-scratch rebuild: the
        // root identities feed tie-breaking in the flipping algorithm.
        let mut hard: Vec<(u32, u32, bool)> = Vec::new();
        for &m in &members {
            if m == net {
                continue;
            }
            for (n, d) in self.incident(m) {
                if n <= m {
                    continue;
                }
                if let Some(p) = d.table.hard_parity() {
                    hard.push((m, n, p));
                }
            }
        }
        hard.sort_unstable();
        for (a, b, parity) in hard {
            self.dsu
                .union(
                    self.verts[a as usize].slot,
                    self.verts[b as usize].slot,
                    parity,
                )
                .expect("surviving graph is hard-consistent");
        }
    }

    /// The hard-connected component of `net`: every vertex reachable from
    /// it over edges whose merged table carries a hard constraint
    /// (including `net` itself).
    fn hard_members(&self, net: u32) -> Vec<u32> {
        let mut seen = NetSet::new(self.id_bound());
        seen.insert(net);
        let mut out = vec![net];
        let mut stack = vec![net];
        while let Some(v) = stack.pop() {
            for (n, d) in self.incident(v) {
                if d.table.hard_parity().is_some() && seen.insert(n) {
                    out.push(n);
                    stack.push(n);
                }
            }
        }
        out
    }

    /// Drains the set of vertices whose constraint edges changed since the
    /// last call (insertions, new or merged scenarios, and neighbours of
    /// removed nets; plain recoloring does not count), ascending. Used to
    /// scope the final flipping passes to the components actually touched.
    pub fn take_dirty(&mut self) -> Vec<u32> {
        let mut out = Vec::new();
        for (i, v) in self.verts.iter_mut().enumerate() {
            if v.dirty {
                v.dirty = false;
                out.push(i as u32);
            }
        }
        out
    }

    /// Evaluates the current coloring (Table III/IV "overlay length" in
    /// `w_line` units, plus violation counters).
    #[must_use]
    pub fn evaluate(&self) -> EvalStats {
        let mut stats = EvalStats::default();
        for e in &self.edges {
            let cost = e.data.table.entry(self.realized(e.lo, e.hi));
            match cost.overlay_units() {
                Some(u) => {
                    stats.overlay_units += u64::from(u);
                    if cost.has_cut_risk() {
                        stats.cut_risks += 1;
                    }
                }
                None => stats.hard_violations += 1,
            }
        }
        stats
    }

    /// The side overlay (in units) currently induced by the edges incident
    /// to `net`, used for the `SideOverlay(n_i) > f_threshold` test of the
    /// routing flow (Fig. 19 line 12).
    #[must_use]
    pub fn net_overlay_units(&self, net: u32) -> u64 {
        self.incident(net)
            .map(|(n, d)| {
                let cost = d.table.entry(self.realized(net, n));
                u64::from(cost.overlay_units().unwrap_or(0))
            })
            .sum()
    }

    /// Whether any edge incident to `net` currently realizes a forbidden
    /// assignment or a type-A cut risk.
    #[must_use]
    pub fn net_has_risk(&self, net: u32) -> bool {
        self.incident(net).any(|(n, d)| {
            let cost = d.table.entry(self.realized(net, n));
            cost.is_forbidden() || cost.has_cut_risk()
        })
    }

    /// Nets with at least one incident edge currently realizing a
    /// forbidden assignment or a type-A cut risk.
    #[must_use]
    pub fn nets_with_realized_risk(&self) -> Vec<u32> {
        let mut out = Vec::new();
        for e in &self.edges {
            let cost = e.data.table.entry(self.realized(e.lo, e.hi));
            if cost.is_forbidden() || cost.has_cut_risk() {
                out.push(e.lo);
                out.push(e.hi);
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Greedily colors `net` with the choice minimising the weight of its
    /// incident edges given the neighbours' current colors
    /// (`Pseudocoloring(n_i)`, Fig. 19 line 11). Returns the chosen color.
    pub fn pseudo_color(&mut self, net: u32) -> Color {
        self.ensure_vertex(net);
        let mut best = (Color::Core, u64::MAX);
        for color in Color::ALL {
            let mut w = 0u64;
            for (n, d) in self.incident(net) {
                let other = self.verts[n as usize].color;
                let (ca, cb) = if net < n {
                    (color, other)
                } else {
                    (other, color)
                };
                w = w.saturating_add(d.table.entry(Assignment::from_colors(ca, cb)).weight());
            }
            if w < best.1 {
                best = (color, w);
            }
        }
        self.verts[net as usize].color = best.0;
        best.0
    }

    /// Net ids of the connected component containing `seed` (over all
    /// edges, hard and nonhard).
    #[must_use]
    pub fn component_of(&self, seed: u32) -> Vec<u32> {
        if !self.contains(seed) {
            return Vec::new();
        }
        let mut order = vec![seed];
        let mut seen = NetSet::new(self.id_bound());
        seen.insert(seed);
        let mut stack = vec![seed];
        while let Some(v) = stack.pop() {
            for &n in self.neighbors(v) {
                if seen.insert(n) {
                    order.push(n);
                    stack.push(n);
                }
            }
        }
        order
    }

    /// The hard-constraint components in canonical form: one entry per
    /// component, keyed by its minimum member net id, with members listed
    /// ascending alongside their parity *relative to that minimum member*
    /// (`false` = same color forced, `true` = opposite forced).
    ///
    /// Unlike the raw union–find internals (tree shape, root choice,
    /// slot numbering) this representation depends only on which hard
    /// relations hold, so two graphs built along different edit histories
    /// compare equal exactly when they force the same colorings. Used by
    /// the ECO engine's state digest.
    #[must_use]
    pub fn hard_components(&self) -> Vec<(u32, Vec<(u32, bool)>)> {
        let mut keyed: Vec<(u32, u32, bool)> = self
            .vertices()
            .map(|v| {
                let (root, parity) = self.hard_root(v);
                (root, v, parity)
            })
            .collect();
        // Grouped by root, members ascending within each group.
        keyed.sort_unstable();
        let mut out: Vec<(u32, Vec<(u32, bool)>)> = keyed
            .chunk_by(|x, y| x.0 == y.0)
            .map(|group| {
                // The first member is the minimum; re-express parities
                // relative to it.
                let (_, min, min_parity) = group[0];
                let rel = group
                    .iter()
                    .map(|&(_, v, p)| (v, p != min_parity))
                    .collect();
                (min, rel)
            })
            .collect();
        out.sort_unstable_by_key(|(min, _)| *min);
        out
    }

    /// Appends the graph's complete state as text, read back by
    /// [`OverlayGraph::read_state`] into an equal graph:
    ///
    /// ```text
    /// graph <next slot> <vertex count> <edge count>
    /// v <net> <slot> <C|S> <neighbour> ...      one per vertex, ascending net
    /// e <a> <b> <CC> <CS> <SC> <SS> <kinds>      one per edge, ascending (a, b)
    /// dsu ... / log ...                          see ParityDsu::write_state
    /// dirty <count> <net> ...                    ascending
    /// ```
    ///
    /// Neighbours keep their adjacency order, which the flipping
    /// algorithm's traversals follow. Costs print as in [`Cost`]'s
    /// `Display` (`3`, `3+cut`, `hard`); kinds are one letter each, `a`
    /// for the first of [`ScenarioKind::ALL`], or `-` for none. Edges are
    /// written sorted, so equal graphs write equal text.
    pub fn write_state(&self, out: &mut String) {
        let _ = writeln!(
            out,
            "graph {} {} {}",
            self.next_slot,
            self.vertex_count,
            self.edges.len()
        );
        for net in self.vertices() {
            let v = &self.verts[net as usize];
            let _ = write!(out, "v {net} {} {}", v.slot, v.color.letter());
            for n in &v.adj {
                let _ = write!(out, " {n}");
            }
            out.push('\n');
        }
        let mut order: Vec<&Edge> = self.edges.iter().collect();
        order.sort_unstable_by_key(|e| (e.lo, e.hi));
        for e in order {
            let _ = write!(out, "e {} {}", e.lo, e.hi);
            for asg in Assignment::ALL {
                let _ = write!(out, " {}", e.data.table.entry(asg));
            }
            out.push(' ');
            if e.data.kinds.is_empty() {
                out.push('-');
            }
            for k in &e.data.kinds {
                let i = ScenarioKind::ALL.iter().position(|x| x == k).unwrap_or(0);
                out.push(char::from(b'a' + i as u8));
            }
            out.push('\n');
        }
        self.dsu.write_state(out);
        let dirty: Vec<u32> = self
            .vertices()
            .filter(|&v| self.verts[v as usize].dirty)
            .collect();
        let _ = write!(out, "dirty {}", dirty.len());
        for v in dirty {
            let _ = write!(out, " {v}");
        }
        out.push('\n');
    }

    /// Reads one graph written by [`OverlayGraph::write_state`], taking
    /// its lines from `lines`. The result is checked for the internal
    /// consistency every graph operation relies on (each edge listed by
    /// both ends, neighbours and dirty nets are vertices, slots and
    /// union–find indices in range). Net ids must lie below a fixed
    /// bound of 2^22, because they index the vertex storage: that bounds
    /// what a malformed text can make the reader allocate.
    ///
    /// # Errors
    ///
    /// A message naming the first malformed or inconsistent item.
    pub fn read_state<'a>(
        lines: &mut impl Iterator<Item = &'a str>,
    ) -> Result<OverlayGraph, String> {
        let mut line = |what: &str| {
            lines
                .next()
                .ok_or_else(|| format!("state ends before the {what} line"))
        };
        let mut toks = state::fields(line("graph")?, "graph")?;
        let next_slot: u32 = state::next(&mut toks, "next slot")?;
        if next_slot > MAX_SLOTS {
            return Err(format!(
                "{next_slot} slots exceed the {MAX_SLOTS} a graph may hold"
            ));
        }
        let vertices: usize = state::next(&mut toks, "vertex count")?;
        let edge_count: usize = state::next(&mut toks, "edge count")?;
        let mut g = OverlayGraph {
            next_slot,
            ..OverlayGraph::new()
        };
        for _ in 0..vertices {
            let mut toks = state::fields(line("vertex")?, "v")?;
            let v: u32 = state::next(&mut toks, "net")?;
            if v >= MAX_NETS {
                return Err(format!(
                    "net {v} exceeds the {MAX_NETS} nets a graph may hold"
                ));
            }
            let slot = state::index(toks.next().unwrap_or(""), next_slot as usize)? as u32;
            let color = match toks.next() {
                Some("C") => Color::Core,
                Some("S") => Color::Second,
                other => return Err(format!("bad color {other:?} of net {v}")),
            };
            let adj = toks.map(state::num).collect::<Result<Vec<u32>, String>>()?;
            if g.contains(v) {
                return Err(format!("net {v} is listed twice"));
            }
            if v as usize >= g.verts.len() {
                g.verts.resize(v as usize + 1, Vertex::ABSENT);
            }
            g.verts[v as usize] = Vertex {
                slot,
                color,
                adj,
                ..Vertex::ABSENT
            };
            g.vertex_count += 1;
        }
        for _ in 0..edge_count {
            let mut toks = state::fields(line("edge")?, "e")?;
            let a: u32 = state::next(&mut toks, "edge end")?;
            let b: u32 = state::next(&mut toks, "edge end")?;
            let mut entries = [Cost::units(0); 4];
            for asg in Assignment::ALL {
                entries[asg.index()] = parse_cost(toks.next().unwrap_or(""))?;
            }
            let kinds = match toks.next() {
                Some("-") => Vec::new(),
                Some(letters) => letters
                    .bytes()
                    .map(|c| {
                        ScenarioKind::ALL
                            .get(usize::from(c.wrapping_sub(b'a')))
                            .copied()
                            .ok_or_else(|| format!("bad scenario kind `{}`", char::from(c)))
                    })
                    .collect::<Result<Vec<_>, String>>()?,
                None => return Err(format!("edge {a}-{b} has no kinds")),
            };
            // Ascending, as written: the linking below binary-searches.
            if a >= b || g.edges.last().is_some_and(|e| (e.lo, e.hi) >= (a, b)) {
                return Err(format!("bad, repeated or unsorted edge {a}-{b}"));
            }
            g.edges.push(Edge {
                lo: a,
                hi: b,
                data: EdgeData {
                    table: CostTable::new(entries),
                    kinds,
                },
            });
        }
        g.link_read_edges()?;
        let dsu = line("dsu")?;
        g.dsu = ParityDsu::read_state(next_slot as usize, dsu, line("log")?)?;
        let mut toks = state::fields(line("dirty")?, "dirty")?;
        let count: usize = state::next(&mut toks, "dirty count")?;
        let mut listed = 0;
        for tok in toks {
            let v: u32 = state::num(tok)?;
            match g.verts.get_mut(v as usize).filter(|x| x.present()) {
                Some(x) if !x.dirty => x.dirty = true,
                _ => return Err(format!("dirty net {v} is repeated or not a vertex")),
            }
            listed += 1;
        }
        if listed != count {
            return Err(format!("dirty count says {count}, line has {listed}"));
        }
        Ok(g)
    }

    /// Fills in the edge index of every adjacency entry of a graph whose
    /// vertices and (ascending) edge arena were just read, checking that
    /// each edge appears exactly once in each of its two ends' lists and
    /// nowhere else.
    fn link_read_edges(&mut self) -> Result<(), String> {
        // Which end has listed each edge so far: bit 0 the low end, bit 1
        // the high end.
        let mut listed = vec![0u8; self.edges.len()];
        let mismatch = || "adjacency lists do not match the edges".to_string();
        for v in 0..self.verts.len() as u32 {
            if !self.contains(v) {
                continue;
            }
            let mut edge_of = Vec::with_capacity(self.verts[v as usize].adj.len());
            for &n in &self.verts[v as usize].adj {
                let (lo, hi) = ordered(v, n);
                let e = self
                    .edges
                    .binary_search_by_key(&(lo, hi), |e| (e.lo, e.hi))
                    .map_err(|_| mismatch())?;
                let bit = if v == lo { 1 } else { 2 };
                if listed[e] & bit != 0 {
                    return Err(mismatch());
                }
                listed[e] |= bit;
                edge_of.push(e as u32);
            }
            self.verts[v as usize].edge_of = edge_of;
        }
        if listed.iter().any(|&b| b != 3) {
            return Err(mismatch());
        }
        Ok(())
    }
}

/// A set of net ids below a fixed bound, as a bitset: the visited sets
/// of graph traversals, which used to be hash sets.
pub(crate) struct NetSet(Vec<u64>);

impl NetSet {
    /// An empty set for ids below `bound`.
    pub(crate) fn new(bound: usize) -> NetSet {
        NetSet(vec![0; bound.div_ceil(64)])
    }

    /// Whether `net` is in the set.
    pub(crate) fn contains(&self, net: u32) -> bool {
        self.0
            .get(net as usize / 64)
            .is_some_and(|w| w >> (net % 64) & 1 == 1)
    }

    /// Inserts `net`, which must lie below the bound; returns whether it
    /// was absent.
    pub(crate) fn insert(&mut self, net: u32) -> bool {
        let w = &mut self.0[net as usize / 64];
        let bit = 1u64 << (net % 64);
        let absent = *w & bit == 0;
        *w |= bit;
        absent
    }
}

/// One past the largest net id [`OverlayGraph::read_state`] accepts. Ids
/// index the vertex storage, so this bounds what a malformed text can
/// make the reader allocate: 2^22 vertices of 64 bytes are less than the
/// 2^26 union–find elements of 6 bytes that [`MAX_SLOTS`] allows.
const MAX_NETS: u32 = 1 << 22;

/// The most vertex slots [`OverlayGraph::read_state`] accepts: it bounds
/// the union–find a malformed text can make the reader allocate.
const MAX_SLOTS: u32 = 1 << 26;

/// Parses one cost as printed by [`Cost`]'s `Display`.
fn parse_cost(tok: &str) -> Result<Cost, String> {
    if tok == "hard" {
        return Ok(Cost::HardOverlay);
    }
    match tok.strip_suffix("+cut") {
        Some(units) => Ok(Cost::units_with_cut_risk(state::num(units)?)),
        None => Ok(Cost::units(state::num(tok)?)),
    }
}

trait ParityDelta {
    /// The parity to feed the union–find, given the parity the edge already
    /// contributed (`prev`). Returns `None` if no *new* hard relation
    /// appears.
    fn table_parity_delta(&self, prev: Option<bool>) -> Option<bool>;
}

impl ParityDelta for CostTable {
    fn table_parity_delta(&self, prev: Option<bool>) -> Option<bool> {
        match (self.hard_parity(), prev) {
            (Some(p), None) => Some(p),
            // Same parity as already registered: nothing new.
            (Some(p), Some(q)) if p == q => None,
            // Parity flip would require contradictory hard scenarios, which
            // merge into an all-forbidden table and is caught earlier.
            (Some(_), Some(_)) => unreachable!("contradictory hard tables merge to infeasible"),
            (None, _) => None,
        }
    }
}

fn ordered(a: u32, b: u32) -> (u32, u32) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sadp_scenario::ScenarioKind;

    #[test]
    fn vertices_and_colors() {
        let mut g = OverlayGraph::new();
        g.ensure_vertex(3);
        assert!(g.contains(3));
        assert_eq!(g.color(3), Color::Core);
        g.set_color(3, Color::Second);
        assert_eq!(g.color(3), Color::Second);
        assert_eq!(g.vertex_count(), 1);
    }

    #[test]
    fn hard_edges_feed_dsu() {
        let mut g = OverlayGraph::new();
        g.add_scenario(0, 1, ScenarioKind::OneA.table()).unwrap();
        g.add_scenario(1, 2, ScenarioKind::OneB.table()).unwrap();
        assert_eq!(g.hard_relation(0, 2), Some(true));
        assert_eq!(g.hard_relation(0, 3), None);
    }

    #[test]
    fn hard_components_are_order_canonical() {
        // Same hard relations built along two different edge orders (and
        // with different union sequences) yield identical canonical
        // components.
        let mut a = OverlayGraph::new();
        a.add_scenario(0, 1, ScenarioKind::OneA.table()).unwrap();
        a.add_scenario(1, 2, ScenarioKind::OneB.table()).unwrap();
        a.ensure_vertex(7);
        let mut b = OverlayGraph::new();
        b.ensure_vertex(7);
        b.add_scenario(1, 2, ScenarioKind::OneB.table()).unwrap();
        b.add_scenario(0, 1, ScenarioKind::OneA.table()).unwrap();
        let ca = a.hard_components();
        assert_eq!(ca, b.hard_components());
        // 0≠1, 0≠2 (via 1=2), 7 isolated.
        assert_eq!(
            ca,
            vec![
                (0, vec![(0, false), (1, true), (2, true)]),
                (7, vec![(7, false)]),
            ]
        );
    }

    #[test]
    fn odd_cycle_rejected_and_rolled_back() {
        let mut g = OverlayGraph::new();
        g.add_scenario(0, 1, ScenarioKind::OneA.table()).unwrap();
        g.add_scenario(1, 2, ScenarioKind::OneA.table()).unwrap();
        let err = g
            .add_scenario(0, 2, ScenarioKind::OneA.table())
            .unwrap_err();
        assert!(matches!(err, GraphError::HardOddCycle { .. }));
        // The offending edge was not committed.
        assert!(g.edge(0, 2).is_none());
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn contradictory_hard_pair_is_infeasible() {
        let mut g = OverlayGraph::new();
        g.add_scenario(0, 1, ScenarioKind::OneA.table()).unwrap();
        let err = g
            .add_scenario(0, 1, ScenarioKind::OneB.table())
            .unwrap_err();
        assert!(matches!(err, GraphError::Infeasible { .. }));
        // Edge still holds only the 1-a table.
        assert_eq!(g.edge(0, 1).unwrap().table.hard_parity(), Some(true));
    }

    #[test]
    fn parallel_edges_merge() {
        let mut g = OverlayGraph::new();
        g.add_scenario_with_kind(
            0,
            1,
            Some(ScenarioKind::ThreeA),
            ScenarioKind::ThreeA.table(),
        )
        .unwrap();
        g.add_scenario_with_kind(0, 1, Some(ScenarioKind::TwoB), ScenarioKind::TwoB.table())
            .unwrap();
        let e = g.edge(0, 1).unwrap();
        assert_eq!(e.kinds, vec![ScenarioKind::ThreeA, ScenarioKind::TwoB]);
        // CC: 1 (3-a) + 1 (2-b) = 2.
        assert_eq!(e.table.entry(Assignment::CC).overlay_units(), Some(2));
        // CS: 0 + 2 = 2 with the 2-b cut risk.
        assert_eq!(e.table.entry(Assignment::CS).overlay_units(), Some(2));
        assert!(e.table.entry(Assignment::CS).has_cut_risk());
    }

    #[test]
    fn edge_orientation_respects_argument_order() {
        let mut g = OverlayGraph::new();
        // Add with arguments reversed relative to the stored (lo, hi) key:
        // 3-c penalises CS of the caller's order (5, 2).
        g.add_scenario(5, 2, ScenarioKind::ThreeC.table()).unwrap();
        g.set_color(5, Color::Core);
        g.set_color(2, Color::Second);
        assert_eq!(g.evaluate().overlay_units, 1);
        g.set_color(5, Color::Second);
        g.set_color(2, Color::Core);
        assert_eq!(g.evaluate().overlay_units, 0);
    }

    #[test]
    fn evaluate_counts_all_categories() {
        let mut g = OverlayGraph::new();
        g.add_scenario(0, 1, ScenarioKind::OneA.table()).unwrap();
        g.add_scenario(2, 3, ScenarioKind::TwoB.table()).unwrap();
        // 1-a with CC: hard violation.
        g.set_color(0, Color::Core);
        g.set_color(1, Color::Core);
        // 2-b with CS: 2 units + cut risk.
        g.set_color(2, Color::Core);
        g.set_color(3, Color::Second);
        let e = g.evaluate();
        assert_eq!(e.hard_violations, 1);
        assert_eq!(e.overlay_units, 2);
        assert_eq!(e.cut_risks, 1);
    }

    #[test]
    fn pseudo_color_avoids_penalty() {
        let mut g = OverlayGraph::new();
        g.add_scenario(0, 1, ScenarioKind::OneA.table()).unwrap();
        g.set_color(0, Color::Core);
        assert_eq!(g.pseudo_color(1), Color::Second);
        g.set_color(0, Color::Second);
        assert_eq!(g.pseudo_color(1), Color::Core);
    }

    #[test]
    fn remove_net_clears_edges_and_dsu() {
        let mut g = OverlayGraph::new();
        g.add_scenario(0, 1, ScenarioKind::OneA.table()).unwrap();
        g.add_scenario(1, 2, ScenarioKind::OneA.table()).unwrap();
        g.remove_net(1);
        assert!(!g.contains(1));
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.hard_relation(0, 2), None);
        // After rip-up the closing edge becomes legal again.
        g.add_scenario(0, 2, ScenarioKind::OneA.table()).unwrap();
    }

    #[test]
    fn ripup_then_reroute_resolves_odd_cycle() {
        let mut g = OverlayGraph::new();
        g.add_scenario(0, 1, ScenarioKind::OneA.table()).unwrap();
        g.add_scenario(1, 2, ScenarioKind::OneA.table()).unwrap();
        assert!(g.add_scenario(0, 2, ScenarioKind::OneA.table()).is_err());
        // Rip up net 2 and re-add with a merge-friendly (1-b) relation to 0:
        g.remove_net(2);
        g.add_scenario(1, 2, ScenarioKind::OneA.table()).unwrap();
        g.add_scenario(0, 2, ScenarioKind::OneB.table()).unwrap();
        assert_eq!(g.hard_relation(0, 2), Some(false));
    }

    #[test]
    fn state_text_round_trips_exactly() {
        let mut g = OverlayGraph::new();
        g.add_scenario(4, 1, ScenarioKind::OneA.table()).unwrap();
        g.add_scenario_with_kind(1, 2, Some(ScenarioKind::TwoB), ScenarioKind::TwoB.table())
            .unwrap();
        g.add_scenario_with_kind(2, 3, Some(ScenarioKind::OneB), ScenarioKind::OneB.table())
            .unwrap();
        let mark = g.mark();
        g.add_scenario(3, 5, ScenarioKind::OneA.table()).unwrap();
        g.rollback_net(5, mark);
        g.add_scenario(4, 3, ScenarioKind::ThreeC.table()).unwrap();
        g.remove_net(2);
        g.set_color(1, Color::Second);
        let mut text = String::new();
        g.write_state(&mut text);
        let back = OverlayGraph::read_state(&mut text.lines()).expect("own text reads back");
        assert_eq!(back, g, "every field, adjacency order included");
        let mut again = String::new();
        back.write_state(&mut again);
        assert_eq!(again, text);

        let broken = text.replace("\nv 3 ", "\nv 9 ");
        assert!(OverlayGraph::read_state(&mut broken.lines()).is_err());
    }

    #[test]
    fn read_state_refuses_net_ids_past_the_storage_bound() {
        // The worst case the bound lets a text allocate stays under the
        // union–find's own worst case.
        let worst = std::mem::size_of::<Vertex>() as u64 * u64::from(MAX_NETS);
        assert!(worst <= 6 * u64::from(MAX_SLOTS), "{worst} bytes");
        for net in [MAX_NETS, u32::MAX] {
            let text = format!("graph 1 1 0\nv {net} 0 C\ndsu 0\nlog 0\ndirty 0\n");
            let err = OverlayGraph::read_state(&mut text.lines()).unwrap_err();
            assert!(err.contains("exceeds"), "{err}");
        }
        let text = "graph 1 1 0\nv 70000 0 C\ndsu 0\nlog 0\ndirty 0\n";
        let g = OverlayGraph::read_state(&mut text.lines()).expect("a sparse id reads back");
        assert_eq!(g.vertices().collect::<Vec<_>>(), vec![70000]);
    }

    #[test]
    fn component_and_net_overlay() {
        let mut g = OverlayGraph::new();
        g.add_scenario(0, 1, ScenarioKind::ThreeA.table()).unwrap();
        g.add_scenario(1, 2, ScenarioKind::ThreeA.table()).unwrap();
        g.ensure_vertex(9);
        let mut comp = g.component_of(0);
        comp.sort_unstable();
        assert_eq!(comp, vec![0, 1, 2]);
        assert_eq!(g.component_of(9), vec![9]);
        // All core: each 3-a edge costs 1 on net 1.
        assert_eq!(g.net_overlay_units(1), 2);
        g.set_color(1, Color::Second);
        assert_eq!(g.net_overlay_units(1), 0);
    }
}
