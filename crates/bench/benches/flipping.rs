//! Micro-bench: the linear-time color flipping DP (Theorem 4) and the
//! hill-climbing refinement, on chain-shaped constraint graphs; and the
//! per-net calls of the routing flow (bounded neighbourhood flip,
//! pseudo-coloring, side-overlay query) on a graph shaped like one
//! Test5 layer at scale 0.2, and the neighbourhood flip on the graphs a
//! routed Test5 at scale 0.2 really leaves.

use sadp_bench::timing::bench;
use sadp_core::{Router, RouterConfig};
use sadp_graph::{flip, OverlayGraph, ScenarioKind};
use sadp_grid::BenchmarkSpec;

fn chain_graph(n: u32) -> OverlayGraph {
    let mut g = OverlayGraph::new();
    let kinds = [
        ScenarioKind::ThreeA,
        ScenarioKind::TwoA,
        ScenarioKind::TwoB,
        ScenarioKind::ThreeB,
    ];
    for i in 0..n - 1 {
        let k = kinds[i as usize % kinds.len()];
        g.add_scenario(i, i + 1, k.table()).unwrap();
    }
    g
}

/// About 5,600 vertices on a 75×75 grid, each tied to its right and
/// lower neighbour (degree about 4) by a soft scenario, with every 16th
/// tie hard instead (ties that would close a hard odd cycle are left
/// out, as the router rips those nets up).
fn test5_layer() -> OverlayGraph {
    const SIDE: u32 = 75;
    let soft = [
        ScenarioKind::ThreeA,
        ScenarioKind::TwoA,
        ScenarioKind::TwoB,
        ScenarioKind::ThreeB,
        ScenarioKind::ThreeC,
    ];
    let mut g = OverlayGraph::new();
    let mut k = 0usize;
    for v in 0..SIDE * SIDE {
        let (x, y) = (v % SIDE, v / SIDE);
        for (ok, n) in [(x + 1 < SIDE, v + 1), (y + 1 < SIDE, v + SIDE)] {
            if !ok {
                continue;
            }
            k += 1;
            let kind = if k.is_multiple_of(16) {
                if k.is_multiple_of(32) {
                    ScenarioKind::OneA
                } else {
                    ScenarioKind::OneB
                }
            } else {
                soft[k % soft.len()]
            };
            let _ = g.add_scenario_with_kind(v, n, Some(kind), kind.table());
        }
    }
    g
}

fn main() {
    let mut g = test5_layer();
    let n = g.vertex_count() as u32;
    // Seeds spread over the layer, as routed nets are.
    let mut seed = 0u32;
    let mut next_seed = move || {
        seed = (seed + 97) % n;
        seed
    };
    bench("color_flipping/test5_flip_neighborhood_256", 200, || {
        flip::flip_neighborhood(&mut g, next_seed(), 256).len()
    });
    bench("color_flipping/test5_pseudo_color", 200_000, || {
        g.pseudo_color(next_seed())
    });
    bench("color_flipping/test5_net_overlay_units", 200_000, || {
        g.net_overlay_units(next_seed())
    });

    // The constraint graphs of every layer after routing Test5 at scale
    // 0.2: the member counts, degrees and hard groups the router's flips
    // meet. Seeds walk every routed net of every layer in turn.
    let spec = BenchmarkSpec::paper_fixed_suite().remove(4).scaled(0.2);
    let (mut plane, netlist) = spec.generate();
    let mut router = Router::new(RouterConfig::paper_defaults());
    router.route_all(&mut plane, &netlist);
    let mut graphs = router.graphs().to_vec();
    let seeds: Vec<(usize, u32)> = graphs
        .iter()
        .enumerate()
        .flat_map(|(l, g)| g.vertices().map(move |v| (l, v)))
        .collect();
    let mut at = 0;
    bench(
        "color_flipping/test5_0.2_routed_flip_neighborhood_256",
        500,
        || {
            let (l, v) = seeds[at];
            at = (at + 97) % seeds.len();
            flip::flip_neighborhood(&mut graphs[l], v, 256).len()
        },
    );

    for &n in &[100u32, 1000, 5000] {
        let g = chain_graph(n);
        let iters = (200_000 / n).max(5);
        bench(&format!("color_flipping/flip_all_chain/{n}"), iters, || {
            let mut g = g.clone();
            flip::flip_all(&mut g)
        });
        bench(
            &format!("color_flipping/greedy_refine_chain/{n}"),
            iters,
            || {
                let mut g = g.clone();
                flip::greedy_refine(&mut g, 2)
            },
        );
    }
}
