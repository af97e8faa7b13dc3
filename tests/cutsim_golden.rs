//! Golden digest of the cut-process simulator's masks.
//!
//! Runs [`CutSimulator::run`] on a seeded set of layouts and hashes every
//! mask pixel, the ownership map, every report counter and the overlay
//! runs. The expected digest descends from the original per-pixel
//! `Vec<bool>` simulator (re-recorded on unchanged simulator code when the
//! assist-free pipeline and the always-zero canvas margin left the hash),
//! so any optimisation of the bitmap kernels that moves a single pixel
//! fails here.

use sadp::decomp::{Bitmap, ColoredPattern, CutSimulator, Decomposition};
use sadp::geom::Rng;
use sadp::grid::read_layout;
use sadp::prelude::*;

/// FNV-1a, 64-bit: a stable hash independent of the std hasher.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn bitmap(&mut self, b: &Bitmap) {
        self.u64(b.width() as u64);
        self.u64(b.height() as u64);
        // Pack per-pixel reads into words so the digest does not depend
        // on the bitmap's storage.
        let mut word = 0u64;
        let mut n = 0;
        for y in 0..b.height() as i64 {
            for x in 0..b.width() as i64 {
                word = word << 1 | u64::from(b.get(x, y));
                n += 1;
                if n == 64 {
                    self.u64(word);
                    (word, n) = (0, 0);
                }
            }
        }
        self.u64(word);
    }

    fn decomposition(&mut self, d: &Decomposition) {
        for b in [&d.target, &d.core, &d.spacer, &d.cut, &d.conflicts] {
            self.bitmap(b);
        }
        self.u64(d.owner.len() as u64);
        for &o in &d.owner {
            self.u64(u64::from(o));
        }
        let r = &d.report;
        for v in [
            r.side_overlay_px,
            r.tip_overlay_px,
            r.hard_overlay_runs,
            r.cut_conflicts,
            r.spacer_violations,
        ] {
            self.u64(v as u64);
        }
        self.u64(r.side_overlay_units());
        // Run order is not part of the contract being pinned here (it was
        // hash-map order when the digest was recorded): hash the multiset.
        let mut runs: Vec<(usize, usize, bool)> = r
            .runs
            .iter()
            .map(|run| (run.pattern, run.len_px, run.is_side))
            .collect();
        runs.sort_unstable();
        self.u64(runs.len() as u64);
        for (p, len, side) in runs {
            self.u64(p as u64);
            self.u64(len as u64);
            self.u64(u64::from(side));
        }
        for (x, y) in d.conflict_cells() {
            self.u64(x as u64);
            self.u64(y as u64);
        }
        self.u64(d.origin.0 as u64);
        self.u64(d.origin.1 as u64);
        self.u64(d.pitch_px as u64);
    }
}

/// A random layout of 1..=12 patterns of 1..=3 fragments each (wires of
/// either orientation and point pads), random colors, overlaps allowed.
fn random_layout(rng: &mut Rng) -> Vec<ColoredPattern> {
    let span = rng.range_i32(4..48);
    (0..1 + rng.index(12))
        .map(|i| {
            let color = if rng.flip() {
                Color::Core
            } else {
                Color::Second
            };
            let rects = (0..1 + rng.index(3))
                .map(|_| {
                    let x = rng.range_i32(0..span);
                    let y = rng.range_i32(0..span);
                    let len = rng.range_i32(0..12);
                    match rng.index(3) {
                        0 => TrackRect::new(x, y, x + len, y),
                        1 => TrackRect::new(x, y, x, y + len),
                        _ => TrackRect::cell(x, y),
                    }
                })
                .collect();
            ColoredPattern::new(i as u32, color, rects)
        })
        .collect()
}

#[test]
fn random_layouts_match_the_recorded_digest() {
    let mut h = Fnv::new();
    let mut widths = Vec::new();
    let (mut conflicts, mut destroyed) = (0, 0);
    for (seed, rules) in [
        (0x601d_0010, DesignRules::node_10nm()),
        (0x601d_0014, DesignRules::node_14nm()),
    ] {
        let cut = CutSimulator::new(rules);
        let mut rng = Rng::seed_from_u64(seed);
        for _ in 0..150 {
            let pats = random_layout(&mut rng);
            let d = cut.run(&pats);
            widths.push(d.target.width());
            conflicts += d.report.cut_conflicts;
            destroyed += d.report.spacer_violations;
            h.decomposition(&d);
        }
    }
    // The set exercises partial last words and multi-word rows.
    assert!(widths.iter().any(|w| w % 64 != 0 && *w > 128));
    assert!(widths.iter().any(|w| *w < 64));
    assert!(
        conflicts > 0 && destroyed > 0,
        "{conflicts} conflicts, {destroyed} destroyed"
    );
    assert_eq!(h.0, 0x2b78_dee8_c7b5_e55a, "digest {:#018x}", h.0);
}

#[test]
fn recolored_fixture_matches_the_recorded_digest() {
    let text = include_str!("../fixtures/corpus/sparse-pairs-flanked-pad.layout");
    let (mut plane, netlist) = read_layout(text).expect("fixture parses");
    let rules = *plane.rules();
    let mut router = Router::new(RouterConfig::paper_defaults());
    let report = router.route_all(&mut plane, &netlist);
    assert!(report.routed_nets > 0);
    let sim = CutSimulator::new(rules);
    let mut rng = Rng::seed_from_u64(0x601d_f1a9);
    let mut h = Fnv::new();
    let mut conflicts = 0;
    for l in 0..plane.layers() {
        let pats: Vec<ColoredPattern> = router
            .patterns_on_layer(Layer(l))
            .into_iter()
            .map(|(net, color, rects)| ColoredPattern::new(net, color, rects))
            .collect();
        if pats.is_empty() {
            continue;
        }
        h.decomposition(&sim.run(&pats));
        for _ in 0..16 {
            let flipped: Vec<ColoredPattern> = pats
                .iter()
                .map(|p| {
                    let mut p = p.clone();
                    if rng.flip() {
                        p.color = p.color.flipped();
                    }
                    p
                })
                .collect();
            let d = sim.run(&flipped);
            conflicts += d.report.cut_conflicts;
            h.decomposition(&d);
        }
    }
    assert!(conflicts > 0, "the recolorings must exercise conflicts");
    assert_eq!(h.0, 0x0a74_7244_dd1d_e2c8, "digest {:#018x}", h.0);
}
