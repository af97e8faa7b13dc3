//! Micro-bench: pixel decomposition simulator (scenario window, a
//! medium multi-net layout, one full routed layer at the canvas size the
//! router's cut-repair pass simulates, through both the full pass and
//! the conflicts pass, and the repair's whole pass over every layer).

use sadp_bench::timing::bench;
use sadp_core::{Router, RouterConfig};
use sadp_decomp::{ColoredPattern, CutSimulator};
use sadp_geom::{DesignRules, Layer, TrackRect};
use sadp_grid::BenchmarkSpec;
use sadp_scenario::Color;

fn main() {
    let sim = CutSimulator::new(DesignRules::node_10nm());

    let window = vec![
        ColoredPattern::new(0, Color::Core, vec![TrackRect::new(0, 0, 5, 0)]),
        ColoredPattern::new(1, Color::Second, vec![TrackRect::new(1, 1, 7, 1)]),
    ];
    bench("decomp_scenario_window", 500, || sim.run(&window));

    // A 32-wire comb layout with alternating colors.
    let comb: Vec<ColoredPattern> = (0..32)
        .map(|i| {
            let color = if i % 2 == 0 {
                Color::Core
            } else {
                Color::Second
            };
            ColoredPattern::new(
                i,
                color,
                vec![TrackRect::new(0, i as i32 * 2, 40, i as i32 * 2)],
            )
        })
        .collect();
    bench("decomp_comb_32_wires", 20, || sim.run(&comb));

    // The busiest layer of Test5 at scale 0.2 (402×402 tracks, a canvas of
    // about 1630×1630 pixels). The full pass is what `verify_layers`
    // runs per layer; the conflicts pass is what each cut-repair round
    // runs per layer. Both synthesise the same masks, so the gap between
    // them is the owner map and the overlay-run measurement.
    let spec = BenchmarkSpec::paper_fixed_suite().remove(4).scaled(0.2);
    let (mut plane, netlist) = spec.generate();
    let mut router = Router::new(RouterConfig::paper_defaults());
    router.route_all(&mut plane, &netlist);
    let layers: Vec<Vec<ColoredPattern>> = (0..plane.layers())
        .map(|l| {
            router
                .patterns_on_layer(Layer(l))
                .into_iter()
                .map(|(net, color, rects)| ColoredPattern::new(net, color, rects))
                .collect()
        })
        .collect();
    let layer = layers
        .iter()
        .max_by_key(|l| l.len())
        .expect("the plane has layers");
    bench("decomp_test5_0.2_full_layer", 3, || sim.run(layer));
    bench("decomp_test5_0.2_full_layer_conflicts", 3, || {
        sim.conflicts(layer)
    });
    // One pass of the router's cut repair: the conflicts pass on every
    // occupied layer with one simulator, which keeps its masks between
    // layers and passes.
    let repair = CutSimulator::new(*plane.rules());
    bench("decomp_test5_0.2_repair_pass", 3, || {
        layers
            .iter()
            .filter(|l| !l.is_empty())
            .map(|l| repair.conflicts(l).cells.len())
            .sum::<usize>()
    });
}
