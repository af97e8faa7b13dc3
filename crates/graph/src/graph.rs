//! The per-layer overlay constraint graph.

use crate::dsu::ParityDsu;
use crate::state;
use sadp_scenario::{Assignment, Color, Cost, CostTable, ScenarioKind};
use std::collections::{HashMap, HashSet};
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

impl EvalStats {
    /// Adds another evaluation, component-wise.
    #[must_use]
    pub fn merged(self, other: EvalStats) -> EvalStats {
        EvalStats {
            overlay_units: self.overlay_units + other.overlay_units,
            hard_violations: self.hard_violations + other.hard_violations,
            cut_risks: self.cut_risks + other.cut_risks,
        }
    }
}

/// The overlay constraint graph of one routing layer (Section III-B).
///
/// Vertices are routed nets (identified by `u32` ids), each carrying its
/// current mask [`Color`]. Edges carry merged scenario [`CostTable`]s.
/// Hard constraints are tracked incrementally in a [`ParityDsu`], which
/// both detects hard-constraint odd cycles in near-constant time and plays
/// the role of the paper's even-cycle super-vertex reduction.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OverlayGraph {
    colors: HashMap<u32, Color>,
    adj: HashMap<u32, Vec<u32>>,
    edges: HashMap<(u32, u32), EdgeData>,
    slot: HashMap<u32, u32>,
    next_slot: u32,
    dsu: ParityDsu,
    /// Vertices whose constraint edges changed since the last
    /// [`OverlayGraph::take_dirty`] (used to scope the final recoloring to
    /// the components actually touched).
    dirty: HashSet<u32>,
}

impl OverlayGraph {
    /// Creates an empty graph.
    #[must_use]
    pub fn new() -> OverlayGraph {
        OverlayGraph {
            colors: HashMap::new(),
            adj: HashMap::new(),
            edges: HashMap::new(),
            slot: HashMap::new(),
            next_slot: 0,
            dsu: ParityDsu::new(0),
            dirty: HashSet::new(),
        }
    }

    /// Number of vertices (routed nets) in the graph.
    #[must_use]
    pub fn vertex_count(&self) -> usize {
        self.colors.len()
    }

    /// Number of pair edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Inserts a vertex for `net` if absent (initial color: core).
    pub fn ensure_vertex(&mut self, net: u32) {
        if let std::collections::hash_map::Entry::Vacant(e) = self.colors.entry(net) {
            e.insert(Color::Core);
            self.adj.entry(net).or_default();
            let s = self.next_slot;
            self.next_slot += 1;
            self.slot.insert(net, s);
            self.dsu.grow(self.next_slot as usize);
            self.dirty.insert(net);
        }
    }

    /// Whether the graph has a vertex for `net`.
    #[must_use]
    pub fn contains(&self, net: u32) -> bool {
        self.colors.contains_key(&net)
    }

    /// The current color of `net`.
    ///
    /// # Panics
    ///
    /// Panics if `net` is not in the graph.
    #[must_use]
    pub fn color(&self, net: u32) -> Color {
        self.colors[&net]
    }

    /// Sets the color of `net` (inserting the vertex if needed).
    pub fn set_color(&mut self, net: u32, color: Color) {
        self.ensure_vertex(net);
        self.colors.insert(net, color);
    }

    /// The neighbours of `net`.
    #[must_use]
    pub fn neighbors(&self, net: u32) -> &[u32] {
        self.adj.get(&net).map_or(&[], Vec::as_slice)
    }

    /// The merged edge data between two nets, if dependent.
    #[must_use]
    pub fn edge(&self, a: u32, b: u32) -> Option<&EdgeData> {
        self.edges.get(&ordered(a, b))
    }

    /// All vertices, in unspecified order.
    pub fn vertices(&self) -> impl Iterator<Item = u32> + '_ {
        self.colors.keys().copied()
    }

    /// All edges as `(a, b, data)` with `a < b`.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32, &EdgeData)> + '_ {
        self.edges.iter().map(|(&(a, b), d)| (a, b, d))
    }

    /// The forced hard color relation between two nets, if any
    /// (`Some(true)` = must differ, `Some(false)` = must match).
    #[must_use]
    pub fn hard_relation(&self, a: u32, b: u32) -> Option<bool> {
        let sa = *self.slot.get(&a)?;
        let sb = *self.slot.get(&b)?;
        self.dsu.relation_ref(sa, sb)
    }

    /// The hard-component root and parity of `net`, used by the flipping
    /// algorithm to form super vertices.
    pub(crate) fn hard_root(&self, net: u32) -> (u32, bool) {
        self.dsu.find_ref(self.slot[&net])
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
        let key = ordered(a, b);
        let oriented = if key.0 == a { table } else { table.swapped() };

        let prev = self.edges.get(&key).cloned();
        let merged = match &prev {
            Some(e) => e.table.merged(&oriented),
            None => oriented,
        };
        if merged.min_so().is_none() {
            return Err(GraphError::Infeasible { a, b });
        }

        let prev_parity = prev.as_ref().and_then(|e| e.table.hard_parity());
        if let Some(parity) = merged.table_parity_delta(prev_parity) {
            let sa = self.slot[&key.0];
            let sb = self.slot[&key.1];
            if self.dsu.union(sa, sb, parity).is_err() {
                return Err(GraphError::HardOddCycle { a, b });
            }
        }

        let entry = self.edges.entry(key).or_insert_with(|| {
            let (x, y) = key;
            self.adj.get_mut(&x).expect("vertex exists").push(y);
            self.adj.get_mut(&y).expect("vertex exists").push(x);
            EdgeData {
                table: CostTable::zero(),
                kinds: Vec::new(),
            }
        });
        entry.table = merged;
        if let Some(k) = kind {
            entry.kinds.push(k);
        }
        self.dirty.insert(a);
        self.dirty.insert(b);
        Ok(())
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
        if self.colors.remove(&net).is_none() {
            return;
        }
        if let Some(nbrs) = self.adj.remove(&net) {
            for n in nbrs {
                self.edges.remove(&ordered(net, n));
                if let Some(v) = self.adj.get_mut(&n) {
                    v.retain(|&x| x != net);
                }
                self.dirty.insert(n);
            }
        }
        self.slot.remove(&net);
        self.dirty.remove(&net);
        self.dsu.rollback(mark);
    }

    /// Removes `net` and every incident edge (rip-up). The hard-constraint
    /// union–find is repaired eagerly, scoped to the hard-connected
    /// component of `net`: its members are detached and the surviving hard
    /// edges among them re-unioned, so a removal costs `O(component)`
    /// instead of the `O(E)` full rebuild it used to schedule.
    pub fn remove_net(&mut self, net: u32) {
        if !self.colors.contains_key(&net) {
            return;
        }
        // The hard-connected component of `net` (over graph hard edges) is
        // a superset of its union–find component: every committed union
        // corresponds to an edge whose merged table is hard, and merging
        // never un-hardens a table. Resetting the whole component is
        // therefore union-closed, as `ParityDsu::reset_nodes` requires.
        let members = self.hard_members(net);
        let member_slots: Vec<u32> = members.iter().map(|m| self.slot[m]).collect();

        self.colors.remove(&net);
        if let Some(nbrs) = self.adj.remove(&net) {
            for n in nbrs {
                self.edges.remove(&ordered(net, n));
                if let Some(v) = self.adj.get_mut(&n) {
                    v.retain(|&x| x != net);
                }
                self.dirty.insert(n);
            }
        }
        // The slot is dropped with the vertex; a re-inserted net gets a
        // fresh slot.
        self.slot.remove(&net);
        self.dirty.remove(&net);

        self.dsu.reset_nodes(&member_slots);
        // Deterministic union order, as in a from-scratch rebuild: the
        // root identities feed tie-breaking in the flipping algorithm.
        let mut hard: Vec<(u32, u32, bool)> = Vec::new();
        for &m in &members {
            if m == net {
                continue;
            }
            for &n in self.adj.get(&m).map_or(&[][..], Vec::as_slice) {
                if n <= m {
                    continue;
                }
                if let Some(p) = self.edges[&ordered(m, n)].table.hard_parity() {
                    hard.push((m, n, p));
                }
            }
        }
        hard.sort_unstable();
        for (a, b, parity) in hard {
            self.dsu
                .union(self.slot[&a], self.slot[&b], parity)
                .expect("surviving graph is hard-consistent");
        }
    }

    /// The hard-connected component of `net`: every vertex reachable from
    /// it over edges whose merged table carries a hard constraint
    /// (including `net` itself).
    fn hard_members(&self, net: u32) -> Vec<u32> {
        let mut seen: HashSet<u32> = HashSet::new();
        seen.insert(net);
        let mut out = vec![net];
        let mut stack = vec![net];
        while let Some(v) = stack.pop() {
            for &n in self.adj.get(&v).map_or(&[][..], Vec::as_slice) {
                if seen.contains(&n) {
                    continue;
                }
                if self.edges[&ordered(v, n)].table.hard_parity().is_some() {
                    seen.insert(n);
                    out.push(n);
                    stack.push(n);
                }
            }
        }
        out
    }

    /// Drains the set of vertices whose constraint edges changed since the
    /// last call (insertions, new or merged scenarios, and neighbours of
    /// removed nets; plain recoloring does not count). Used to scope the
    /// final flipping passes to the components actually touched.
    pub fn take_dirty(&mut self) -> Vec<u32> {
        self.dirty.drain().collect()
    }

    /// Evaluates the current coloring (Table III/IV "overlay length" in
    /// `w_line` units, plus violation counters).
    #[must_use]
    pub fn evaluate(&self) -> EvalStats {
        let mut stats = EvalStats::default();
        for (&(a, b), data) in &self.edges {
            let asg = Assignment::from_colors(self.colors[&a], self.colors[&b]);
            let cost = data.table.entry(asg);
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
        let Some(nbrs) = self.adj.get(&net) else {
            return 0;
        };
        let mut total = 0;
        for &n in nbrs {
            let key = ordered(net, n);
            let data = &self.edges[&key];
            let asg = Assignment::from_colors(self.colors[&key.0], self.colors[&key.1]);
            total += u64::from(data.table.entry(asg).overlay_units().unwrap_or(0));
        }
        total
    }

    /// Whether any edge incident to `net` currently realizes a forbidden
    /// (hard-overlay) assignment.
    #[must_use]
    pub fn net_has_forbidden(&self, net: u32) -> bool {
        let Some(nbrs) = self.adj.get(&net) else {
            return false;
        };
        nbrs.iter().any(|&n| {
            let key = ordered(net, n);
            let asg = Assignment::from_colors(self.colors[&key.0], self.colors[&key.1]);
            self.edges[&key].table.entry(asg).is_forbidden()
        })
    }

    /// Whether any edge incident to `net` currently realizes a forbidden
    /// assignment or a type-A cut risk.
    #[must_use]
    pub fn net_has_risk(&self, net: u32) -> bool {
        let Some(nbrs) = self.adj.get(&net) else {
            return false;
        };
        nbrs.iter().any(|&n| {
            let key = ordered(net, n);
            let asg = Assignment::from_colors(self.colors[&key.0], self.colors[&key.1]);
            let cost = self.edges[&key].table.entry(asg);
            cost.is_forbidden() || cost.has_cut_risk()
        })
    }

    /// Nets with at least one incident edge currently realizing a
    /// forbidden assignment or a type-A cut risk.
    #[must_use]
    pub fn nets_with_realized_risk(&self) -> Vec<u32> {
        let mut out = Vec::new();
        for (&(a, b), data) in &self.edges {
            let asg = Assignment::from_colors(self.colors[&a], self.colors[&b]);
            let cost = data.table.entry(asg);
            if cost.is_forbidden() || cost.has_cut_risk() {
                out.push(a);
                out.push(b);
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
            for &n in self.adj.get(&net).map_or(&[][..], Vec::as_slice) {
                let key = ordered(net, n);
                let data = &self.edges[&key];
                let (ca, cb) = if key.0 == net {
                    (color, self.colors[&n])
                } else {
                    (self.colors[&n], color)
                };
                w = w.saturating_add(data.table.entry(Assignment::from_colors(ca, cb)).weight());
            }
            if w < best.1 {
                best = (color, w);
            }
        }
        self.colors.insert(net, best.0);
        best.0
    }

    /// Merges a vertex-disjoint graph into this one (the sharded driver
    /// folding a band's graph into the global one).
    ///
    /// Vertices and edges are inserted in ascending net-id order so slot
    /// assignment — and with it the union–find root identities that feed
    /// tie-breaking in the flipping algorithm — is deterministic and
    /// independent of `other`'s internal hash-map order.
    ///
    /// # Panics
    ///
    /// May panic (in debug builds) if the vertex sets overlap; the caller
    /// guarantees disjointness (each net is committed in exactly one band).
    pub fn absorb(&mut self, other: &OverlayGraph) {
        debug_assert!(
            other.colors.keys().all(|k| !self.colors.contains_key(k)),
            "absorb requires vertex-disjoint graphs"
        );
        let mut verts: Vec<u32> = other.colors.keys().copied().collect();
        verts.sort_unstable();
        for &v in &verts {
            self.ensure_vertex(v);
            self.colors.insert(v, other.colors[&v]);
        }
        let mut keys: Vec<(u32, u32)> = other.edges.keys().copied().collect();
        keys.sort_unstable();
        for key in keys {
            let data = &other.edges[&key];
            if let Some(parity) = data.table.hard_parity() {
                self.dsu
                    .union(self.slot[&key.0], self.slot[&key.1], parity)
                    .expect("absorbed graph is hard-consistent");
            }
            self.adj.get_mut(&key.0).expect("vertex exists").push(key.1);
            self.adj.get_mut(&key.1).expect("vertex exists").push(key.0);
            self.edges.insert(key, data.clone());
        }
    }

    /// Net ids of the connected component containing `seed` (over all
    /// edges, hard and nonhard).
    #[must_use]
    pub fn component_of(&self, seed: u32) -> Vec<u32> {
        if !self.colors.contains_key(&seed) {
            return Vec::new();
        }
        let mut order = vec![seed];
        let mut seen: std::collections::HashSet<u32> = std::collections::HashSet::new();
        seen.insert(seed);
        let mut stack = vec![seed];
        while let Some(v) = stack.pop() {
            for &n in self.adj.get(&v).map_or(&[][..], Vec::as_slice) {
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
        let mut groups: std::collections::HashMap<u32, Vec<(u32, bool)>> =
            std::collections::HashMap::new();
        let mut nets: Vec<u32> = self.colors.keys().copied().collect();
        nets.sort_unstable();
        for v in nets {
            let (root, parity) = self.hard_root(v);
            groups.entry(root).or_default().push((v, parity));
        }
        let mut out: Vec<(u32, Vec<(u32, bool)>)> = groups
            .into_values()
            .map(|members| {
                // Members were inserted ascending, so the first one is the
                // minimum; re-express parities relative to it.
                let (min, min_parity) = members[0];
                let rel = members
                    .into_iter()
                    .map(|(v, p)| (v, p != min_parity))
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
    /// for the first of [`ScenarioKind::ALL`], or `-` for none. The hash
    /// maps are written sorted, so equal graphs write equal text.
    pub fn write_state(&self, out: &mut String) {
        let mut verts: Vec<u32> = self.colors.keys().copied().collect();
        verts.sort_unstable();
        let _ = writeln!(
            out,
            "graph {} {} {}",
            self.next_slot,
            verts.len(),
            self.edges.len()
        );
        for v in &verts {
            let _ = write!(out, "v {v} {} {}", self.slot[v], self.colors[v].letter());
            for n in &self.adj[v] {
                let _ = write!(out, " {n}");
            }
            out.push('\n');
        }
        let mut keys: Vec<(u32, u32)> = self.edges.keys().copied().collect();
        keys.sort_unstable();
        for key in keys {
            let e = &self.edges[&key];
            let _ = write!(out, "e {} {}", key.0, key.1);
            for asg in Assignment::ALL {
                let _ = write!(out, " {}", e.table.entry(asg));
            }
            out.push(' ');
            if e.kinds.is_empty() {
                out.push('-');
            }
            for k in &e.kinds {
                let i = ScenarioKind::ALL.iter().position(|x| x == k).unwrap_or(0);
                out.push(char::from(b'a' + i as u8));
            }
            out.push('\n');
        }
        self.dsu.write_state(out);
        let mut dirty: Vec<u32> = self.dirty.iter().copied().collect();
        dirty.sort_unstable();
        let _ = write!(out, "dirty {}", dirty.len());
        for v in dirty {
            let _ = write!(out, " {v}");
        }
        out.push('\n');
    }

    /// Reads one graph written by [`OverlayGraph::write_state`], taking
    /// its lines from `lines`. The result is checked for the internal
    /// consistency every graph operation relies on (adjacency matches
    /// the edges, slots and union–find indices are in range).
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
            let slot = state::index(toks.next().unwrap_or(""), next_slot as usize)? as u32;
            let color = match toks.next() {
                Some("C") => Color::Core,
                Some("S") => Color::Second,
                other => return Err(format!("bad color {other:?} of net {v}")),
            };
            let adj = toks.map(state::num).collect::<Result<Vec<u32>, String>>()?;
            if g.colors.insert(v, color).is_some() {
                return Err(format!("net {v} is listed twice"));
            }
            g.slot.insert(v, slot);
            g.adj.insert(v, adj);
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
            let data = EdgeData {
                table: CostTable::new(entries),
                kinds,
            };
            if a >= b || g.edges.insert((a, b), data).is_some() {
                return Err(format!("bad or repeated edge {a}-{b}"));
            }
        }
        let degree: usize = g.adj.values().map(Vec::len).sum();
        let consistent = degree == 2 * g.edges.len()
            && g.adj.iter().all(|(&v, nbrs)| {
                nbrs.iter()
                    .all(|&n| g.colors.contains_key(&n) && g.edges.contains_key(&ordered(v, n)))
            });
        if !consistent {
            return Err("adjacency lists do not match the edges".into());
        }
        let dsu = line("dsu")?;
        g.dsu = ParityDsu::read_state(next_slot as usize, dsu, line("log")?)?;
        let mut toks = state::fields(line("dirty")?, "dirty")?;
        let count: usize = state::next(&mut toks, "dirty count")?;
        g.dirty = toks
            .map(state::num)
            .collect::<Result<HashSet<u32>, String>>()?;
        if g.dirty.len() != count {
            return Err(format!(
                "dirty count says {count}, line has {}",
                g.dirty.len()
            ));
        }
        Ok(g)
    }
}

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
    fn absorb_merges_disjoint_graphs() {
        let mut a = OverlayGraph::new();
        a.add_scenario(0, 1, ScenarioKind::OneA.table()).unwrap();
        a.set_color(0, Color::Second);
        let mut b = OverlayGraph::new();
        b.add_scenario(10, 11, ScenarioKind::OneA.table()).unwrap();
        b.add_scenario(11, 12, ScenarioKind::OneB.table()).unwrap();
        b.add_scenario(12, 13, ScenarioKind::ThreeA.table())
            .unwrap();
        b.set_color(10, Color::Second);
        b.set_color(11, Color::Core);

        a.absorb(&b);
        assert_eq!(a.vertex_count(), 6);
        assert_eq!(a.edge_count(), 4);
        // Colors carried over.
        assert_eq!(a.color(10), Color::Second);
        assert_eq!(a.color(11), Color::Core);
        // Hard relations carried over, including transitive ones.
        assert_eq!(a.hard_relation(0, 1), Some(true));
        assert_eq!(a.hard_relation(10, 12), Some(true));
        assert_eq!(a.hard_relation(10, 13), None);
        // No cross relations between the two sides.
        assert_eq!(a.hard_relation(1, 10), None);
        // Nonhard edge data carried over.
        assert!(a.edge(12, 13).unwrap().table.hard_parity().is_none());
        // The merged graph evaluates like the two parts did.
        let expected = {
            let mut fresh_b = OverlayGraph::new();
            fresh_b
                .add_scenario(10, 11, ScenarioKind::OneA.table())
                .unwrap();
            fresh_b
                .add_scenario(11, 12, ScenarioKind::OneB.table())
                .unwrap();
            fresh_b
                .add_scenario(12, 13, ScenarioKind::ThreeA.table())
                .unwrap();
            fresh_b.set_color(10, Color::Second);
            fresh_b.set_color(11, Color::Core);
            fresh_b.evaluate()
        };
        let mut only_a = OverlayGraph::new();
        only_a
            .add_scenario(0, 1, ScenarioKind::OneA.table())
            .unwrap();
        only_a.set_color(0, Color::Second);
        assert_eq!(a.evaluate(), only_a.evaluate().merged(expected));
        // The absorbed component stays mutable: 10 and 12 are transitively
        // forced to differ, so a same-color (1-b) edge between them is the
        // odd cycle and must still be detected after the merge.
        assert!(a.add_scenario(10, 12, ScenarioKind::OneB.table()).is_err());
        // …while the consistent different-color edge is accepted.
        assert!(a.add_scenario(10, 12, ScenarioKind::OneA.table()).is_ok());
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
