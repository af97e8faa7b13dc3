//! Regenerates Table I (color-assignment notation) and Table II (the 11
//! potential overlay scenarios with color rules and side-overlay bounds),
//! cross-checked against the pixel decomposition simulator.

use sadp_bench::args_or_exit;
use sadp_decomp::replay_all_scenarios;
use sadp_geom::DesignRules;
use sadp_scenario::{scenario_summary, Assignment};

fn main() {
    let _ = args_or_exit(&[], &[], 0, "table2");
    println!("Table I: color assignment notation");
    println!("  C = core pattern, S = second pattern");
    for asg in Assignment::ALL {
        println!(
            "  {asg}: A is a {} pattern, B is a {} pattern",
            asg.color_a(),
            asg.color_b()
        );
    }

    println!();
    println!("Table II: potential overlay scenarios (units of w_line)");
    println!("type  | color rule               | min SO | max SO | note");
    println!("------+--------------------------+--------+--------+-----------------");
    for row in scenario_summary() {
        println!("{row}");
    }

    println!();
    println!("Cross-check: pixel decomposition simulator, canonical windows");
    println!("type  |   CC |   CS |   SC |   SS   (measured side overlay, units; * = hard)");
    println!("------+------+------+------+------");
    for replay in replay_all_scenarios(&DesignRules::node_10nm()) {
        let cell = |a: Assignment| {
            format!(
                "{:3}{}",
                replay.side_units(a),
                if replay.is_hard(a) { "*" } else { " " }
            )
        };
        println!(
            "{:5} | {} | {} | {} | {}",
            replay.kind.name(),
            cell(Assignment::CC),
            cell(Assignment::CS),
            cell(Assignment::SC),
            cell(Assignment::SS),
        );
    }
}
