//! The linear-time color flipping algorithm (Section III-C, Theorem 4).
//!
//! For each connected component of the overlay constraint graph:
//!
//! 1. quotient the component by its hard constraints into *super vertices*
//!    (each member net has a parity relative to the super-vertex root),
//! 2. extract a **maximum spanning tree** over the super vertices, with the
//!    cost of each nonhard edge set to the side-overlay stake of the
//!    potential overlay scenarios it aggregates,
//! 3. build the *flipping graph* — each super vertex split into a C-state
//!    and an S-state — and run the dynamic program of eq. (4) from the
//!    leaves to the root,
//! 4. backtrace the minimum-cost root state and assign colors.
//!
//! The result is optimal whenever the (reduced) constraint graph is a tree;
//! edges outside the spanning tree are ignored during the DP, exactly as in
//! Fig. 14. As an engineering safeguard the new coloring is kept only if it
//! does not evaluate worse than the old one on the *full* component
//! (including non-tree edges).

use crate::graph::{EdgeData, NetSet, OverlayGraph};
use sadp_scenario::{Assignment, Color};
use std::cmp::Reverse;
use std::collections::HashMap;

/// Result of a color flipping pass.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FlipOutcome {
    /// Number of connected components processed.
    pub components: usize,
    /// Total edge weight (overlay units + penalties) before flipping.
    pub weight_before: u64,
    /// Total edge weight after flipping.
    pub weight_after: u64,
}

impl FlipOutcome {
    /// Weight saved by the pass.
    #[must_use]
    pub fn improvement(&self) -> u64 {
        self.weight_before.saturating_sub(self.weight_after)
    }
}

/// A 2×2 weight table between two super vertices, indexed by root colors.
type SuperTable = [[u64; 2]; 2];

/// An edge `((s, t), table)` between super vertices `s < t`; `table[x][y]`
/// has the root of `s` in color `x` and the root of `t` in color `y`.
type SuperEdge = ((u32, u32), SuperTable);

fn table_stake(t: &SuperTable) -> u64 {
    let flat = [t[0][0], t[0][1], t[1][0], t[1][1]];
    flat.iter().max().unwrap() - flat.iter().min().unwrap()
}

/// Runs color flipping on the component containing `seed`
/// (`ColorFlipping(G, n_i, M)`, Fig. 19 line 13).
pub fn flip_component(graph: &mut OverlayGraph, seed: u32) -> FlipOutcome {
    let members = graph.component_of(seed);
    if members.is_empty() {
        return FlipOutcome::default();
    }
    flip_members(graph, &members)
}

/// Up to ≈ `max_members` vertices around `seed`, breadth-first, always
/// closed under hard constraints: a hard edge is followed even past the
/// cap, so hard-constraint groups are never split. Returns a sorted list
/// (empty if `seed` is not in the graph).
///
/// The per-net trial flipping and the post-routing repair optimize these
/// bounded neighbourhoods instead of whole connected components: on dense
/// circuits the soft scenarios fuse nearly all nets into one giant
/// component, and an `O(component)` flip per routed net is exactly the
/// quadratic blow-up the Fig. 20 series used to show.
#[must_use]
pub fn neighborhood_of(graph: &OverlayGraph, seed: u32, max_members: usize) -> Vec<u32> {
    if !graph.contains(seed) {
        return Vec::new();
    }
    let mut set = NetSet::new(graph.id_bound());
    set.insert(seed);
    let mut taken = 1;
    // `out` is the breadth-first queue as well: vertices leave it in the
    // order they entered.
    let mut out = vec![seed];
    let mut head = 0;
    while let Some(&v) = out.get(head) {
        head += 1;
        for (n, data) in graph.incident(v) {
            if set.contains(n) {
                continue;
            }
            if taken < max_members || data.table.hard_parity().is_some() {
                set.insert(n);
                taken += 1;
                out.push(n);
            }
        }
    }
    out.sort_unstable();
    out
}

/// [`flip_component`] restricted to the bounded neighbourhood of `seed`:
/// the DP optimizes the neighbourhood's colors with every boundary
/// neighbour's color held fixed (boundary hard edges carry the usual
/// prohibitive weight, so they are respected).
pub fn flip_neighborhood(graph: &mut OverlayGraph, seed: u32, max_members: usize) -> Vec<u32> {
    let members = neighborhood_of(graph, seed, max_members);
    if !members.is_empty() {
        flip_members(graph, &members);
    }
    members
}

/// [`greedy_refine`] restricted to a member list produced by
/// [`neighborhood_of`] or [`OverlayGraph::component_of`] (must be closed
/// under hard constraints — groups flip whole).
pub fn refine_members(graph: &mut OverlayGraph, members: &[u32], max_passes: usize) {
    refine_verts(graph, members, max_passes);
}

/// Runs color flipping on every component of the graph (Fig. 19 line 16).
pub fn flip_all(graph: &mut OverlayGraph) -> FlipOutcome {
    let mut outcome = FlipOutcome {
        weight_before: total_weight(graph),
        ..FlipOutcome::default()
    };
    let mut visited = NetSet::new(graph.id_bound());
    let verts: Vec<u32> = graph.vertices().collect();
    for v in verts {
        if visited.contains(v) {
            continue;
        }
        let members = graph.component_of(v);
        for &m in &members {
            visited.insert(m);
        }
        flip_members(graph, &members);
        outcome.components += 1;
    }
    outcome.weight_after = total_weight(graph);
    outcome
}

fn total_weight(graph: &OverlayGraph) -> u64 {
    graph
        .edges()
        .map(|(a, b, d)| {
            let asg = Assignment::from_colors(graph.color(a), graph.color(b));
            d.table.entry(asg).weight()
        })
        .sum()
}

/// The weight `data` (oriented low id first) realizes when `a` has color
/// `ca` and `b` has color `cb`.
fn edge_weight(data: &EdgeData, a: u32, ca: Color, b: u32, cb: Color) -> u64 {
    let asg = if a < b {
        Assignment::from_colors(ca, cb)
    } else {
        Assignment::from_colors(cb, ca)
    };
    data.table.entry(asg).weight()
}

/// Total weight of the edges incident to `members` (numbered in the
/// graph), boundary edges (one endpoint outside the set) included once.
/// The flip reads this from its aggregation sweep and tables; debug
/// builds check both readings against this direct sum.
fn member_weight(graph: &OverlayGraph, members: &[u32]) -> u64 {
    let mut w = 0;
    for &a in members {
        for (b, d) in graph.incident(a) {
            if a >= b && graph.member_index(b).is_some() {
                continue; // internal edge, counted from its low endpoint
            }
            w += edge_weight(d, a, graph.color(a), b, graph.color(b));
        }
    }
    w
}

/// Runs the flipping DP on `members`, which must be closed under hard
/// constraints (a whole connected component, or a [`neighborhood_of`]
/// set). Edges to vertices outside the set contribute with the outside
/// color held fixed. The order of `members` does not matter.
///
/// Returns the weight of the edges incident to `members` before and
/// after the flip, as one processed component.
pub fn flip_members(graph: &mut OverlayGraph, members: &[u32]) -> FlipOutcome {
    let mut scratch = graph.number_members(members);
    let (weight_before, weight_after) = flip_numbered(graph, members, &mut scratch);
    if members.len() > KEPT_SCRATCH_MEMBERS {
        scratch = FlipScratch::default();
    }
    graph.clear_members(members, scratch);
    FlipOutcome {
        components: 1,
        weight_before,
        weight_after,
    }
}

/// The largest flip whose scratch the graph keeps for the next one. The
/// router's neighbourhood flips (256 members plus their hard closure, at
/// most about 400 on Test5) stay below it. Keeping the scratch of a whole
/// giant component (the final pass, [`flip_all`]) in every layer's graph
/// for the rest of the run raised the peak memory of a Test5 route at
/// scale 0.2 by about 1 MB.
const KEPT_SCRATCH_MEMBERS: usize = 512;

/// The flipping algorithm's working storage. The graph owns one and lends
/// it to each flip, so a flip allocates only when it outgrows every
/// earlier one (up to [`KEPT_SCRATCH_MEMBERS`]). A clone starts empty:
/// between flips the contents mean nothing.
#[derive(Debug, Default)]
pub(crate) struct FlipScratch {
    /// Per member: its super vertex (its hard root until the roots are
    /// numbered) and its parity relative to that root.
    sup: Vec<u32>,
    parity: Vec<bool>,
    /// The members' distinct hard roots, ascending: super vertex `s` is
    /// the hard component of `roots[s]`.
    roots: Vec<u32>,
    /// Per super vertex and root color index: the weight of its
    /// intra-super and boundary edges.
    self_weight: Vec<[u64; 2]>,
    /// Inter-super edges, one per pair once merged.
    super_edges: Vec<SuperEdge>,
    /// Kruskal's union–find over the super vertices.
    dsu: Vec<u32>,
    /// Indices into `super_edges` of the spanning-forest edges.
    tree: Vec<u32>,
    /// The forest in compressed rows: `adj[start[v]..start[v + 1]]` lists
    /// the neighbours of super vertex `v`, each with the index of the
    /// super edge to it.
    start: Vec<u32>,
    adj: Vec<(u32, u32)>,
    dp: TreeDp,
}

impl Clone for FlipScratch {
    fn clone(&self) -> FlipScratch {
        FlipScratch::default()
    }
}

/// [`flip_members`] while the graph numbers the members: all scratch is
/// indexed by member position or by super vertex. Returns the members'
/// incident weight before and after.
fn flip_numbered(
    graph: &mut OverlayGraph,
    members: &[u32],
    scratch: &mut FlipScratch,
) -> (u64, u64) {
    let FlipScratch {
        sup,
        parity,
        roots,
        self_weight,
        super_edges,
        dsu,
        tree,
        start,
        adj,
        dp,
    } = scratch;

    // 1. Quotient by hard constraints: member i belongs to super vertex
    //    `sup[i]` with parity `parity[i]` relative to its root.
    sup.clear();
    parity.clear();
    for &m in members {
        let (root, p) = graph.hard_root(m);
        sup.push(root);
        parity.push(p);
    }
    roots.clear();
    roots.extend_from_slice(sup);
    roots.sort_unstable();
    roots.dedup();
    for s in sup.iter_mut() {
        *s = roots.binary_search(s).expect("root is listed") as u32;
    }
    let n = roots.len();

    // 2. Aggregate edge tables onto super vertices: self weights for
    //    intra-super and boundary edges, 2x2 tables for inter-super edges.
    //    The same sweep sums the weight the current colors realize.
    self_weight.clear();
    self_weight.resize(n, [0; 2]);
    super_edges.clear();
    let mut weight_before = 0;
    for (i, &a) in members.iter().enumerate() {
        let (ia, pa) = (sup[i], parity[i]);
        let ca_now = graph.color(a);
        for (b, data) in graph.incident(a) {
            let Some(j) = graph.member_index(b) else {
                // Boundary edge: b keeps its current color; the edge cost
                // folds into a's super-vertex self weight.
                let cb = graph.color(b);
                weight_before += edge_weight(data, a, ca_now, b, cb);
                for (ci, &root_color) in Color::ALL.iter().enumerate() {
                    let ca = apply_parity(root_color, pa);
                    self_weight[ia as usize][ci] += edge_weight(data, a, ca, b, cb);
                }
                continue;
            };
            if a >= b {
                continue; // internal edge, aggregated from its low endpoint
            }
            let asg_now = Assignment::from_colors(ca_now, graph.color(b));
            weight_before += data.table.entry(asg_now).weight();
            let (ib, pb) = (sup[j], parity[j]);
            if ia == ib {
                // Colors of a and b are both determined by the root color.
                for (ci, &root_color) in Color::ALL.iter().enumerate() {
                    let ca = apply_parity(root_color, pa);
                    let cb = apply_parity(root_color, pb);
                    self_weight[ia as usize][ci] +=
                        data.table.entry(Assignment::from_colors(ca, cb)).weight();
                }
            } else {
                // entry[x][y]: the lower super vertex's root has color x and
                // the higher one's color y, whichever of the two holds a.
                let mut entry = [[0; 2]; 2];
                for (x, row) in entry.iter_mut().enumerate() {
                    for (y, w) in row.iter_mut().enumerate() {
                        let (ra, rb) = if ia < ib { (x, y) } else { (y, x) };
                        let ca = apply_parity(Color::ALL[ra], pa);
                        let cb = apply_parity(Color::ALL[rb], pb);
                        *w = data.table.entry(Assignment::from_colors(ca, cb)).weight();
                    }
                }
                super_edges.push(((ia.min(ib), ia.max(ib)), entry));
            }
        }
    }
    // Parallel member edges between the same two super vertices add up.
    super_edges.sort_unstable_by_key(|e| e.0);
    super_edges.dedup_by(|later, kept| {
        let same = later.0 == kept.0;
        if same {
            for (row, add) in kept.1.iter_mut().zip(later.1) {
                row[0] += add[0];
                row[1] += add[1];
            }
        }
        same
    });

    // 3. Maximum spanning forest over the super vertices (Kruskal):
    //    highest stake first, ties by super-vertex pair. The pairs are
    //    unique after the merge, so the order is total.
    super_edges.sort_unstable_by_key(|&(key, table)| (Reverse(table_stake(&table)), key));
    dsu.clear();
    dsu.extend(0..n as u32);
    tree.clear();
    for (e, &((u, v), _)) in super_edges.iter().enumerate() {
        if tree.len() + 1 >= n {
            break;
        }
        let (ru, rv) = (find(dsu, u), find(dsu, v));
        if ru != rv {
            dsu[ru as usize] = rv;
            tree.push(e as u32);
        }
    }
    // Each row lists its neighbours in the order their edges joined the
    // forest. `start[v]` first counts, then ends, v's row; filling the
    // rows back to front leaves it at the row's beginning.
    start.clear();
    start.resize(n + 1, 0);
    for &e in tree.iter() {
        let (u, v) = super_edges[e as usize].0;
        start[u as usize] += 1;
        start[v as usize] += 1;
    }
    for v in 1..=n {
        start[v] += start[v - 1];
    }
    adj.clear();
    adj.resize(start[n] as usize, (0, 0));
    for &e in tree.iter().rev() {
        let (u, v) = super_edges[e as usize].0;
        for (from, to) in [(v, u), (u, v)] {
            start[from as usize] -= 1;
            adj[start[from as usize] as usize] = (to, e);
        }
    }

    // 4. DP of eq. (4) over each tree of the super-vertex forest.
    dp.reset(n);
    for root in 0..n {
        if !dp.seen[root] {
            dp.solve(start, adj, super_edges, self_weight, root);
        }
    }

    // Keep-if-better on all incident edges, non-tree and boundary edges
    // included, read from the aggregated tables: the self weights hold
    // every intra-super and boundary edge, the merged super edges the rest.
    let state = &dp.state;
    let weight_after = self_weight
        .iter()
        .zip(state)
        .map(|(w, &q)| w[q])
        .sum::<u64>()
        + super_edges
            .iter()
            .map(|&((u, v), table)| table[state[u as usize]][state[v as usize]])
            .sum::<u64>();
    debug_assert_eq!(weight_before, member_weight(graph, members));
    if weight_after > weight_before {
        return (weight_before, weight_before);
    }

    // 5. Push colors down to the nets (color = root color ^ parity).
    for (i, &m) in members.iter().enumerate() {
        let c = apply_parity(Color::ALL[state[sup[i] as usize]], parity[i]);
        graph.set_color(m, c);
    }
    debug_assert_eq!(weight_after, member_weight(graph, members));
    (weight_before, weight_after)
}

/// The root of `x` in Kruskal's union–find, halving the path on the way.
fn find(dsu: &mut [u32], mut x: u32) -> u32 {
    while dsu[x as usize] != x {
        let grandparent = dsu[dsu[x as usize] as usize];
        dsu[x as usize] = grandparent;
        x = grandparent;
    }
    x
}

fn apply_parity(color: Color, parity: bool) -> Color {
    if parity {
        color.flipped()
    } else {
        color
    }
}

/// The dynamic program of eq. (4) over a super-vertex forest, with its
/// scratch indexed by super vertex and shared by all trees of the forest
/// (each vertex belongs to one tree).
#[derive(Debug, Default)]
struct TreeDp {
    seen: Vec<bool>,
    /// The parent in the traversal, `u32::MAX` for a root.
    parent: Vec<u32>,
    /// `cost[v][q]`: the subtree of `v` at its cheapest with `v` in state `q`.
    cost: Vec<[u64; 2]>,
    /// `choice[u][q]`: the best state of `u` when its parent is in state `q`.
    choice: Vec<[usize; 2]>,
    /// The chosen color index of every solved vertex.
    state: Vec<usize>,
    /// The tree being solved, parents before children.
    order: Vec<u32>,
}

impl TreeDp {
    /// Readies the scratch for a forest of `n` super vertices.
    fn reset(&mut self, n: usize) {
        self.seen.clear();
        self.seen.resize(n, false);
        self.parent.clear();
        self.parent.resize(n, u32::MAX);
        self.cost.clear();
        self.cost.resize(n, [0; 2]);
        self.choice.clear();
        self.choice.resize(n, [0; 2]);
        self.state.clear();
        self.state.resize(n, 0);
    }

    /// Iterative post-order DP over the tree containing `root` of the
    /// forest in compressed rows `start`/`adj` over `super_edges`:
    /// `Cost(v, q) = Σ_children min_p { Cost(child, p) + w(v=q, child=p) }`.
    fn solve(
        &mut self,
        start: &[u32],
        adj: &[(u32, u32)],
        super_edges: &[SuperEdge],
        self_weight: &[[u64; 2]],
        root: usize,
    ) {
        let row = |v: u32| &adj[start[v as usize] as usize..start[v as usize + 1] as usize];
        // Build a parent-order traversal.
        self.order.clear();
        self.order.push(root as u32);
        self.seen[root] = true;
        let mut i = 0;
        while let Some(&v) = self.order.get(i) {
            i += 1;
            for &(u, _) in row(v) {
                if !self.seen[u as usize] {
                    self.seen[u as usize] = true;
                    self.parent[u as usize] = v;
                    self.order.push(u);
                }
            }
        }

        for &v in self.order.iter().rev() {
            let mut c = self_weight[v as usize];
            for &(u, e) in row(v) {
                if self.parent[u as usize] != v {
                    continue; // u is v's parent
                }
                let cu = self.cost[u as usize];
                let table = &super_edges[e as usize].1;
                for (q, cq) in c.iter_mut().enumerate() {
                    // w(v=q, u=p), the table oriented lower super vertex first.
                    let w = |p: usize| if v < u { table[q][p] } else { table[p][q] };
                    let (p_best, w_best) = (0..2)
                        .map(|p| (p, cu[p] + w(p)))
                        .min_by_key(|&(_, w)| w)
                        .expect("two states");
                    *cq += w_best;
                    self.choice[u as usize][q] = p_best;
                }
            }
            self.cost[v as usize] = c;
        }

        // Backtrace from the cheaper root state.
        let root_cost = self.cost[root];
        self.state[root] = usize::from(root_cost[1] < root_cost[0]);
        for &v in &self.order {
            let q = self.state[v as usize];
            for &(u, _) in row(v) {
                if self.parent[u as usize] == v {
                    self.state[u as usize] = self.choice[u as usize][q];
                }
            }
        }
    }
}

/// Hill-climbing refinement: repeatedly flips whole hard-constraint
/// super-vertices whose flip strictly lowers the total edge weight, until
/// a fixpoint (or `max_passes`). Complements the tree DP by cleaning up
/// the non-tree edges the DP cannot see; hard constraints are preserved
/// because members of a super vertex flip together.
///
/// Returns the total weight improvement.
pub fn greedy_refine(graph: &mut OverlayGraph, max_passes: usize) -> u64 {
    let before = total_weight(graph);
    let verts: Vec<u32> = graph.vertices().collect();
    refine_verts(graph, &verts, max_passes);
    before.saturating_sub(total_weight(graph))
}

fn refine_verts(graph: &mut OverlayGraph, verts: &[u32], max_passes: usize) {
    // Group members by hard-component root, groups in root order and
    // members ascending within each. Refinement recolors but never
    // changes the union–find, so the groups hold for every pass.
    let mut keyed: Vec<(u32, u32)> = verts
        .iter()
        .filter(|&&v| graph.contains(v))
        .map(|&v| (graph.hard_root(v).0, v))
        .collect();
    keyed.sort_unstable();
    let nets: Vec<u32> = keyed.iter().map(|&(_, v)| v).collect();
    let mut groups: Vec<&[u32]> = Vec::new();
    let mut rest = nets.as_slice();
    for run in keyed.chunk_by(|x, y| x.0 == y.0) {
        let (group, tail) = rest.split_at(run.len());
        groups.push(group);
        rest = tail;
    }
    for _ in 0..max_passes {
        let mut improved = false;
        for &members in &groups {
            // Weight of edges incident to the group, before and after a
            // group flip. Edges inside the group keep their relative
            // parity, so only boundary edges change.
            if group_flip_delta(graph, members) < 0 {
                for &m in members {
                    let c = graph.color(m);
                    graph.set_color(m, c.flipped());
                }
                improved = true;
            }
        }
        if !improved {
            break;
        }
    }
}

/// The change in weight if every net of `members` (ascending) flipped.
fn group_flip_delta(graph: &OverlayGraph, members: &[u32]) -> i128 {
    let mut delta: i128 = 0;
    for &m in members {
        let cm = graph.color(m);
        for (n, d) in graph.incident(m) {
            let cn = graph.color(n);
            let inside = members.binary_search(&n).is_ok();
            if inside && m > n {
                continue; // internal edge, counted from its low endpoint
            }
            // Internal edges: both endpoints flip, and every edge table
            // of a hard component is parity-symmetric only for its hard
            // part; nonhard costs can change.
            let new_cn = if inside { cn.flipped() } else { cn };
            let old = edge_weight(d, m, cm, n, cn);
            let new = edge_weight(d, m, cm.flipped(), n, new_cn);
            delta += new as i128 - old as i128;
        }
    }
    delta
}

/// Exhaustively finds an optimal coloring of the given nets by enumerating
/// all `2^n` assignments. Intended for tests and small components only.
///
/// Returns the best coloring and its total edge weight (only edges with
/// both endpoints in `nets` are counted).
///
/// # Panics
///
/// Panics if more than 24 nets are given.
#[must_use]
pub fn brute_force_color(graph: &OverlayGraph, nets: &[u32]) -> (HashMap<u32, Color>, u64) {
    assert!(nets.len() <= 24, "brute force limited to 24 nets");
    let mut best: Option<(u64, u32)> = None;
    for mask in 0..(1u32 << nets.len()) {
        let color = |net: u32| -> Color {
            let i = nets.iter().position(|&n| n == net).expect("net in set");
            if mask >> i & 1 == 1 {
                Color::Second
            } else {
                Color::Core
            }
        };
        let mut w = 0u64;
        for &a in nets {
            for &b in graph.neighbors(a) {
                if a < b && nets.contains(&b) {
                    if let Some(d) = graph.edge(a, b) {
                        let asg = Assignment::from_colors(color(a), color(b));
                        w = w.saturating_add(d.table.entry(asg).weight());
                    }
                }
            }
        }
        if best.is_none_or(|(bw, _)| w < bw) {
            best = Some((w, mask));
        }
    }
    let (w, mask) = best.expect("at least one assignment");
    let mut out = HashMap::new();
    for (i, &n) in nets.iter().enumerate() {
        out.insert(
            n,
            if mask >> i & 1 == 1 {
                Color::Second
            } else {
                Color::Core
            },
        );
    }
    (out, w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sadp_scenario::ScenarioKind;

    #[test]
    fn flip_resolves_paper_fig13() {
        // Fig. 13: nets A (second) and B (core) routed; C between them must
        // differ from both adjacent wires (1-a). Flipping B allows C.
        let mut g = OverlayGraph::new();
        g.add_scenario(0, 2, ScenarioKind::OneA.table()).unwrap(); // A-C
        g.add_scenario(1, 2, ScenarioKind::OneA.table()).unwrap(); // B-C
        g.set_color(0, Color::Second);
        g.set_color(1, Color::Core);
        g.set_color(2, Color::Core); // violates both
        let out = flip_all(&mut g);
        let e = g.evaluate();
        assert_eq!(e.hard_violations, 0);
        assert_ne!(g.color(2), g.color(0));
        assert_ne!(g.color(2), g.color(1));
        assert!(out.improvement() > 0);
    }

    #[test]
    fn flip_tree_matches_brute_force() {
        // A path of nonhard scenarios: DP must be optimal (Theorem 4).
        let mut g = OverlayGraph::new();
        let kinds = [
            ScenarioKind::ThreeA,
            ScenarioKind::TwoA,
            ScenarioKind::ThreeB,
            ScenarioKind::TwoB,
            ScenarioKind::ThreeC,
        ];
        for (i, k) in kinds.iter().enumerate() {
            g.add_scenario(i as u32, i as u32 + 1, k.table()).unwrap();
        }
        flip_all(&mut g);
        let nets: Vec<u32> = (0..=kinds.len() as u32).collect();
        let (_, best_w) = brute_force_color(&g, &nets);
        let got: u64 = total_weight(&g);
        assert_eq!(got, best_w);
    }

    #[test]
    fn flip_handles_super_vertices() {
        // 0 =1-b= 1 (same color), 1 =1-a= 2 (diff), and a nonhard 3-a
        // between 0 and 3.
        let mut g = OverlayGraph::new();
        g.add_scenario(0, 1, ScenarioKind::OneB.table()).unwrap();
        g.add_scenario(1, 2, ScenarioKind::OneA.table()).unwrap();
        g.add_scenario(0, 3, ScenarioKind::ThreeA.table()).unwrap();
        flip_all(&mut g);
        assert_eq!(g.color(0), g.color(1));
        assert_ne!(g.color(1), g.color(2));
        let e = g.evaluate();
        assert_eq!(e.hard_violations, 0);
        assert_eq!(e.overlay_units, 0);
    }

    #[test]
    fn flip_cycle_like_fig14() {
        // Fig. 14: a cycle of nonhard edges; the weakest edge is dropped by
        // the maximum spanning tree and the DP still reaches the optimum of
        // the full graph here.
        let mut g = OverlayGraph::new();
        g.add_scenario(0, 1, ScenarioKind::TwoA.table()).unwrap(); // B-C prefer same
        g.add_scenario(1, 2, ScenarioKind::ThreeA.table()).unwrap(); // C-E prefer diff
        g.add_scenario(0, 2, ScenarioKind::ThreeA.table()).unwrap(); // B-E prefer diff
        flip_all(&mut g);
        let e = g.evaluate();
        // Optimum: B=C same, E different from both -> 0 units.
        assert_eq!(e.overlay_units, 0);
    }

    #[test]
    fn flip_component_only_touches_component() {
        let mut g = OverlayGraph::new();
        g.add_scenario(0, 1, ScenarioKind::OneA.table()).unwrap();
        g.ensure_vertex(9);
        g.set_color(9, Color::Second);
        g.set_color(0, Color::Core);
        g.set_color(1, Color::Core);
        flip_component(&mut g, 0);
        assert_ne!(g.color(0), g.color(1));
        assert_eq!(g.color(9), Color::Second);
    }

    #[test]
    fn flip_component_reports_the_weight_it_saves() {
        let mut g = OverlayGraph::new();
        g.add_scenario(0, 1, ScenarioKind::OneA.table()).unwrap();
        g.add_scenario(1, 2, ScenarioKind::ThreeB.table()).unwrap();
        g.ensure_vertex(9);
        for v in [0, 1, 2, 9] {
            g.set_color(v, Color::Core);
        }
        let before = total_weight(&g);
        let outcome = flip_component(&mut g, 0);
        let after = total_weight(&g);
        assert!(after < before, "the flip improves the component");
        assert_eq!(outcome.components, 1);
        assert_eq!(
            (outcome.weight_before, outcome.weight_after),
            (before, after)
        );
        assert_eq!(outcome.improvement(), before - after);
    }

    #[test]
    fn keep_if_better_never_regresses() {
        // Dense cycle where the MST heuristic could regress; the safeguard
        // must keep the evaluation from getting worse.
        let mut g = OverlayGraph::new();
        for (a, b) in [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)] {
            g.add_scenario(a, b, ScenarioKind::ThreeB.table()).unwrap();
        }
        // Start from the global optimum: everything second.
        for v in 0..4 {
            g.set_color(v, Color::Second);
        }
        let before = g.evaluate();
        flip_all(&mut g);
        let after = g.evaluate();
        assert!(after.overlay_units <= before.overlay_units);
        assert_eq!(after.overlay_units, 0);
    }

    #[test]
    fn brute_force_small() {
        let mut g = OverlayGraph::new();
        g.add_scenario(0, 1, ScenarioKind::ThreeB.table()).unwrap();
        let (colors, w) = brute_force_color(&g, &[0, 1]);
        assert_eq!(w, 0);
        assert_eq!(colors[&0], Color::Second);
        assert_eq!(colors[&1], Color::Second);
    }

    #[test]
    fn neighborhood_caps_but_closes_hard_groups() {
        // A soft chain 0-1-2-3-4 with a hard 1-b pair hanging off vertex 1.
        let mut g = OverlayGraph::new();
        for i in 0..4 {
            g.add_scenario(i, i + 1, ScenarioKind::ThreeA.table())
                .unwrap();
        }
        g.add_scenario(1, 10, ScenarioKind::OneB.table()).unwrap();
        let n = neighborhood_of(&g, 0, 2);
        // Cap 2 stops the soft BFS quickly, but once 1 is in, its hard
        // partner 10 must come along.
        assert!(n.contains(&0) && n.contains(&1) && n.contains(&10), "{n:?}");
        assert!(n.len() < 6, "cap ignored: {n:?}");
        assert!(neighborhood_of(&g, 99, 8).is_empty());
    }

    #[test]
    fn neighborhood_flip_respects_fixed_boundary() {
        // Chain of hard 1-a edges: 0-1-2. Flip only {0}'s neighbourhood
        // with cap 1: hard closure pulls the whole chain in anyway, so
        // colors stay legal. Then a soft case: 0 =3-a= 1 =3-a= 2 with 2
        // outside the flipped set; 1 must pick a color compatible with
        // the *fixed* color of 2.
        let mut g = OverlayGraph::new();
        g.add_scenario(0, 1, ScenarioKind::ThreeA.table()).unwrap(); // prefer diff
        g.add_scenario(1, 2, ScenarioKind::ThreeA.table()).unwrap(); // prefer diff
        g.set_color(0, Color::Core);
        g.set_color(1, Color::Core);
        g.set_color(2, Color::Second);
        // Neighbourhood of 0 with cap 2 = {0, 1}; 2 stays fixed Second.
        let members = flip_neighborhood(&mut g, 0, 2);
        assert_eq!(members, vec![0, 1]);
        assert_eq!(g.color(2), Color::Second, "boundary vertex must not move");
        let e = g.evaluate();
        assert_eq!(
            e.overlay_units, 0,
            "both 3-a edges satisfiable: 0=S,1=C,2=S or equiv"
        );
    }

    #[test]
    fn flip_empty_and_singleton() {
        let mut g = OverlayGraph::new();
        let out = flip_all(&mut g);
        assert_eq!(out.components, 0);
        g.ensure_vertex(5);
        let out = flip_all(&mut g);
        assert_eq!(out.components, 1);
        assert_eq!(flip_component(&mut g, 77).components, 0);
    }
}
