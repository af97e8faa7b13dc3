//! The conflicts pass against the full pass: on seeded random multi-net
//! layouts, [`CutSimulator::conflicts`] must report exactly the conflict
//! cells, type-B count and spacer-violation count of
//! [`CutSimulator::run`], since both start from the same masks.

use sadp_decomp::{ColoredPattern, CutSimulator};
use sadp_geom::{DesignRules, Rng, TrackRect};
use sadp_scenario::Color;

/// What one generated layout exercised, for the vacuity guards.
#[derive(Default)]
struct Coverage {
    colors: [bool; 2],
    points: bool,
    abutting: bool,
}

/// A random layout of `nets` nets on a `size`×`size` track area. Each net
/// is a horizontal or vertical wire, a via-landing point, or two
/// fragments of one net on abutting tracks with overlapping projections
/// (the case the simulator bridges into one polygon).
fn random_layout(rng: &mut Rng, nets: u32, size: i32, seen: &mut Coverage) -> Vec<ColoredPattern> {
    (0..nets)
        .map(|net| {
            let color = if rng.flip() {
                Color::Core
            } else {
                Color::Second
            };
            seen.colors[usize::from(color == Color::Second)] = true;
            let (x, y) = (rng.range_i32(0..size), rng.range_i32(0..size));
            let len = rng.range_i32(1..6);
            let rects = match rng.index(4) {
                0 => vec![TrackRect::new(x, y, x + len, y)],
                1 => vec![TrackRect::new(x, y, x, y + len)],
                2 => {
                    seen.points = true;
                    vec![TrackRect::cell(x, y)]
                }
                _ => {
                    seen.abutting = true;
                    let shift = rng.range_i32_inclusive(0..=len);
                    if rng.flip() {
                        vec![
                            TrackRect::new(x, y, x + len, y),
                            TrackRect::new(x + shift, y + 1, x + shift + len, y + 1),
                        ]
                    } else {
                        vec![
                            TrackRect::new(x, y, x, y + len),
                            TrackRect::new(x + 1, y + shift, x + 1, y + shift + len),
                        ]
                    }
                }
            };
            ColoredPattern::new(net, color, rects)
        })
        .collect()
}

#[test]
fn conflicts_pass_matches_the_full_pass() {
    let mut rng = Rng::seed_from_u64(0xc0f1_1c75);
    let mut seen = Coverage::default();
    let (mut clean, mut failing) = (0, 0);
    for rules in [DesignRules::node_10nm(), DesignRules::node_14nm()] {
        let sim = CutSimulator::new(rules);
        for case in 0..120 {
            // Sparse layouts are mostly clean, dense ones mostly fail.
            let nets = 1 + rng.index(12) as u32;
            let size = if case % 2 == 0 { 40 } else { 8 };
            let pats = random_layout(&mut rng, nets, size, &mut seen);
            let full = sim.run(&pats);
            let fast = sim.conflicts(&pats);
            assert_eq!(fast.cells, full.conflict_cells(), "cells, case {case}");
            assert_eq!(fast.cut_conflicts, full.report.cut_conflicts, "case {case}");
            assert_eq!(
                fast.spacer_violations, full.report.spacer_violations,
                "case {case}"
            );
            if fast.cells.is_empty() {
                clean += 1;
            } else {
                failing += 1;
            }
        }
    }
    assert!(seen.colors == [true, true], "both colors generated");
    assert!(seen.points, "point rects generated");
    assert!(seen.abutting, "abutting same-net fragments generated");
    assert!(clean > 0, "no conflict-free case");
    assert!(failing > 0, "no conflicted case");
}
