//! Regenerates the appendix Figs. 23–34: every color assignment of every
//! potential overlay scenario, rendered through the pixel decomposition
//! simulator with its measured side overlay.

use sadp_bench::args_or_exit;
use sadp_decomp::{render_ascii, window::canonical_window, ColoredPattern, CutSimulator};
use sadp_geom::DesignRules;
use sadp_scenario::{Assignment, ScenarioKind};

fn main() {
    let _ = args_or_exit(&[], &[], 0, "fig_appendix");
    let rules = DesignRules::node_10nm();
    let sim = CutSimulator::new(rules);
    for kind in ScenarioKind::ALL {
        let (a, b) = canonical_window(kind);
        println!("==== {kind} (rule: {}) ====", kind.color_rule());
        for asg in Assignment::ALL {
            let pats = vec![
                ColoredPattern::new(0, asg.color_a(), vec![a]),
                ColoredPattern::new(1, asg.color_b(), vec![b]),
            ];
            let d = sim.run(&pats);
            println!(
                "-- {asg}: side overlay {} units{}{}",
                d.report.side_overlay_units(),
                if d.report.hard_overlay_runs > 0 {
                    " (HARD, forbidden)"
                } else {
                    ""
                },
                if d.report.cut_conflicts > 0 {
                    " (cut conflict)"
                } else {
                    ""
                },
            );
            println!("{}", render_ascii(&d, &pats));
        }
    }
}
