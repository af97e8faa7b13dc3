//! Randomized property tests for the constraint graph and coloring
//! algorithms, driven by the deterministic [`Rng`] from `sadp-geom`.

use sadp_geom::Rng;
use sadp_graph::{
    brute_force_color, flip_all, greedy_refine, OverlayGraph, ParityDsu, ScenarioKind,
};
use sadp_scenario::{Assignment, Color};

const NONHARD: [ScenarioKind; 6] = [
    ScenarioKind::TwoA,
    ScenarioKind::TwoB,
    ScenarioKind::ThreeA,
    ScenarioKind::ThreeB,
    ScenarioKind::ThreeC,
    ScenarioKind::ThreeD,
];

fn total_weight(g: &OverlayGraph) -> u64 {
    g.edges()
        .map(|(a, b, d)| {
            d.table
                .entry(Assignment::from_colors(g.color(a), g.color(b)))
                .weight()
        })
        .sum()
}

/// Random nonhard edge list `(a, b, kind-index)` over `verts` vertices.
fn random_edges(rng: &mut Rng, verts: u32, max_edges: usize) -> Vec<(u32, u32, usize)> {
    (0..rng.index(max_edges))
        .map(|_| {
            (
                rng.bounded(u64::from(verts)) as u32,
                rng.bounded(u64::from(verts)) as u32,
                rng.index(NONHARD.len()),
            )
        })
        .collect()
}

/// flip_all never worsens the coloring (keep-if-better safeguard) and
/// greedy refinement on top never worsens it either — on arbitrary
/// graphs, not just trees.
#[test]
fn flipping_never_regresses() {
    let mut rng = Rng::seed_from_u64(0xF11);
    for _ in 0..256 {
        let edges = random_edges(&mut rng, 10, 31);
        let mut g = OverlayGraph::new();
        for &(a, b, k) in &edges {
            if a != b {
                // Nonhard edges always insert successfully.
                g.add_scenario(a, b, NONHARD[k].table()).expect("nonhard");
            }
        }
        for i in 0..10u32 {
            let second = rng.flip();
            if g.contains(i) {
                g.set_color(i, if second { Color::Second } else { Color::Core });
            }
        }
        let before = total_weight(&g);
        flip_all(&mut g);
        let mid = total_weight(&g);
        assert!(mid <= before, "flip_all regressed {before} -> {mid}");
        greedy_refine(&mut g, 3);
        let after = total_weight(&g);
        assert!(after <= mid, "greedy_refine regressed {mid} -> {after}");
    }
}

/// With hard edges mixed in, flipping always produces a coloring that
/// satisfies every hard constraint (when one exists, which is
/// guaranteed because rejected edges are never inserted).
#[test]
fn flipping_respects_hard_constraints() {
    let mut rng = Rng::seed_from_u64(0xF22);
    for _ in 0..256 {
        let mut g = OverlayGraph::new();
        for _ in 0..rng.index(13) {
            let a = rng.bounded(10) as u32;
            let b = rng.bounded(10) as u32;
            if a != b {
                let kind = if rng.flip() {
                    ScenarioKind::OneA
                } else {
                    ScenarioKind::OneB
                };
                let _ = g.add_scenario(a, b, kind.table()); // odd cycles rejected
            }
        }
        for (a, b, k) in random_edges(&mut rng, 10, 13) {
            if a != b {
                let _ = g.add_scenario(a, b, NONHARD[k].table());
            }
        }
        flip_all(&mut g);
        for (a, b, d) in g.edges() {
            let asg = Assignment::from_colors(g.color(a), g.color(b));
            assert!(
                !d.table.entry(asg).is_forbidden(),
                "hard constraint between {a} and {b} violated"
            );
        }
    }
}

/// On small graphs, flip_all + refinement lands within the brute-force
/// optimum plus the documented heuristic slack on cycles (never below
/// the optimum, trivially).
#[test]
fn flipping_bounded_by_brute_force() {
    let mut rng = Rng::seed_from_u64(0xF33);
    for _ in 0..200 {
        let count = 1 + rng.index(15);
        let mut g = OverlayGraph::new();
        for _ in 0..count {
            let a = rng.bounded(7) as u32;
            let b = rng.bounded(7) as u32;
            if a != b {
                g.add_scenario(a, b, NONHARD[rng.index(NONHARD.len())].table())
                    .expect("nonhard");
            }
        }
        let nets: Vec<u32> = {
            let mut v: Vec<u32> = g.vertices().collect();
            v.sort_unstable();
            v
        };
        if nets.is_empty() {
            continue;
        }
        flip_all(&mut g);
        greedy_refine(&mut g, 4);
        let got = total_weight(&g);
        let (_, best) = brute_force_color(&g, &nets);
        assert!(got >= best, "better than the optimum is impossible");
        // Heuristic quality bound: within 3x + small constant of optimal
        // on these tiny instances.
        assert!(
            got <= best * 3 + 6,
            "flip quality too poor: {got} vs optimum {best}"
        );
    }
}

/// `ParityDsu::rollback` under randomized union/rollback interleavings:
/// after any rollback the live relations must match a fresh forest
/// rebuilt from the unions still committed — this exercises the
/// rank-bump undo on arbitrary merge shapes, not just the hand-written
/// case in the unit tests.
#[test]
fn dsu_randomized_union_rollback_interleaving() {
    const N: u64 = 24;
    let mut rng = Rng::seed_from_u64(0xD50);
    for _case in 0..64 {
        let mut dsu = ParityDsu::new(N as usize);
        // Unions still committed, and (mark, committed-length) checkpoints.
        let mut committed: Vec<(u32, u32, bool)> = Vec::new();
        let mut marks: Vec<(usize, usize)> = Vec::new();
        for _op in 0..200 {
            match rng.index(8) {
                0 => marks.push((dsu.mark(), committed.len())),
                1 => {
                    if let Some((mark, len)) = marks.pop() {
                        dsu.rollback(mark);
                        committed.truncate(len);
                        let mut reference = ParityDsu::new(N as usize);
                        for &(a, b, p) in &committed {
                            assert_eq!(reference.union(a, b, p), Ok(true), "replay diverged");
                        }
                        for a in 0..N as u32 {
                            for b in a + 1..N as u32 {
                                assert_eq!(
                                    dsu.relation_ref(a, b),
                                    reference.relation_ref(a, b),
                                    "relation {a}-{b} after rollback"
                                );
                            }
                        }
                    }
                }
                _ => {
                    let a = rng.bounded(N) as u32;
                    let b = rng.bounded(N) as u32;
                    if a == b {
                        continue;
                    }
                    let parity = rng.flip();
                    if dsu.union(a, b, parity) == Ok(true) {
                        committed.push((a, b, parity));
                    }
                }
            }
        }
    }
}

/// remove_net really removes everything it touched.
#[test]
fn remove_net_is_complete() {
    let mut rng = Rng::seed_from_u64(0xF44);
    for _ in 0..256 {
        let edges = random_edges(&mut rng, 8, 21);
        let victim = rng.bounded(8) as u32;
        let mut g = OverlayGraph::new();
        for &(a, b, k) in &edges {
            if a != b {
                g.add_scenario(a, b, NONHARD[k].table()).expect("nonhard");
            }
        }
        g.remove_net(victim);
        assert!(!g.contains(victim));
        for (a, b, _) in g.edges() {
            assert!(a != victim && b != victim);
        }
        for v in g.vertices() {
            assert!(!g.neighbors(v).contains(&victim));
        }
    }
}

/// Sparse net ids with large gaps: the dense vertex storage must treat
/// the ids between them as absent, not as vertices.
const SPARSE_IDS: [u32; 12] = [
    0, 1, 7, 63, 64, 65, 1_000, 4_095, 4_096, 9_000, 15_000, 19_999,
];

/// The storage invariants every graph operation must keep.
fn check_invariants(g: &OverlayGraph, ctx: &str) {
    let verts: Vec<u32> = g.vertices().collect();
    assert_eq!(g.vertex_count(), verts.len(), "{ctx}: vertex count");
    assert!(verts.windows(2).all(|w| w[0] < w[1]), "{ctx}: ascending");
    let mut degree = 0;
    for &v in &verts {
        for &n in g.neighbors(v) {
            degree += 1;
            assert!(g.contains(n), "{ctx}: neighbour {n} of {v} is no vertex");
            let back = g.neighbors(n).iter().filter(|&&x| x == v).count();
            assert_eq!(back, 1, "{ctx}: {v}-{n} is not listed once by {n}");
            let (ab, ba) = (g.edge(v, n), g.edge(n, v));
            assert!(ab.is_some() && ab == ba, "{ctx}: edge({v}, {n})");
        }
    }
    let edges: Vec<(u32, u32)> = g.edges().map(|(a, b, _)| (a, b)).collect();
    assert_eq!(g.edge_count(), edges.len(), "{ctx}: edge count");
    assert_eq!(degree, 2 * edges.len(), "{ctx}: degree sum");
    let mut weight = 0;
    let mut hard_violations = 0;
    for (a, b, d) in g.edges() {
        assert!(a < b, "{ctx}: edge {a}-{b} not ordered");
        assert!(g.neighbors(a).contains(&b), "{ctx}: {a} misses {b}");
        assert_eq!(g.edge(a, b), Some(d), "{ctx}: edge({a}, {b}) data");
        if let Some(p) = d.table.hard_parity() {
            assert_eq!(g.hard_relation(a, b), Some(p), "{ctx}: union–find");
        }
        let cost = d
            .table
            .entry(Assignment::from_colors(g.color(a), g.color(b)));
        match cost.overlay_units() {
            Some(u) => weight += u64::from(u),
            None => hard_violations += 1,
        }
    }
    let eval = g.evaluate();
    assert_eq!(
        (eval.overlay_units, eval.hard_violations),
        (weight, hard_violations),
        "{ctx}: evaluate"
    );
    let mut text = String::new();
    g.write_state(&mut text);
    let back = OverlayGraph::read_state(&mut text.lines()).expect("own text reads back");
    assert!(back == *g, "{ctx}: read_state gives a different graph");
    let mut again = String::new();
    back.write_state(&mut again);
    assert_eq!(again, text, "{ctx}: state text changed on a round trip");
}

/// Seeded sequences of every mutating operation over sparse ids: trial
/// commits that are kept or rolled back, rip-ups, pseudo coloring and
/// bounded flips. After each step adjacency is symmetric
/// and agrees with `edge()`, the counts match iteration, `evaluate()`
/// matches a sum over the edges, and the state text round-trips.
#[test]
fn storage_invariants_hold_over_random_operations() {
    let mut rng = Rng::seed_from_u64(0xDE45E);
    let pick = |rng: &mut Rng| SPARSE_IDS[rng.index(SPARSE_IDS.len())];
    for round in 0..32 {
        let mut g = OverlayGraph::new();
        for step in 0..40 {
            let ctx = format!("round {round} step {step}");
            let verts: Vec<u32> = g.vertices().collect();
            match rng.index(5) {
                // A trial commit of a new net, kept or rolled back.
                0 | 1 => {
                    let net = pick(&mut rng);
                    if g.contains(net) {
                        continue;
                    }
                    let mark = g.mark();
                    g.ensure_vertex(net);
                    for _ in 0..1 + rng.index(4) {
                        let Some(&other) = verts.get(rng.index(verts.len().max(1))) else {
                            break;
                        };
                        let kind = ScenarioKind::ALL[rng.index(ScenarioKind::ALL.len())];
                        if g.add_scenario_with_kind(net, other, Some(kind), kind.table())
                            .is_err()
                        {
                            break;
                        }
                    }
                    if rng.flip() {
                        g.rollback_net(net, mark);
                        assert!(!g.contains(net), "{ctx}: rolled back");
                    }
                }
                2 => {
                    if let Some(&v) = verts.get(rng.index(verts.len().max(1))) {
                        g.remove_net(v);
                        assert!(!g.contains(v), "{ctx}: removed");
                    }
                }
                3 => {
                    if let Some(&v) = verts.get(rng.index(verts.len().max(1))) {
                        g.pseudo_color(v);
                    }
                }
                _ => {
                    if let Some(&v) = verts.get(rng.index(verts.len().max(1))) {
                        let members = sadp_graph::flip_neighborhood(&mut g, v, 1 + rng.index(6));
                        assert!(members.contains(&v), "{ctx}: seed in its neighbourhood");
                    }
                }
            }
            check_invariants(&g, &ctx);
        }
        // Draining the dirty set leaves nothing to drain.
        let _ = g.take_dirty();
        assert!(g.take_dirty().is_empty());
        check_invariants(&g, &format!("round {round} drained"));
    }
}
