//! Deterministic benchmark generation at the scale of the paper's
//! Test1–Test10 circuits.
//!
//! The paper's benchmarks are proprietary; this generator synthesises
//! instances with the same net counts, die sizes and layer count, a
//! short-range net-span distribution, and optional multiple pin candidate
//! locations (the Table IV family). See DESIGN.md §5 for the substitution
//! rationale.

use crate::net::Pin;
use crate::netlist::Netlist;
use crate::plane::RoutingPlane;
use sadp_geom::{DesignRules, GridPoint, Layer, Rng, TrackRect};

/// Parameters of one synthetic benchmark.
///
/// # Example
///
/// ```
/// use sadp_grid::BenchmarkSpec;
/// let spec = BenchmarkSpec::new("tiny", 40, 64, 64).with_seed(7);
/// let (plane, netlist) = spec.generate();
/// assert_eq!(netlist.len(), 40);
/// assert_eq!(plane.width(), 64);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkSpec {
    /// Benchmark name (e.g. `"Test1"`).
    pub name: String,
    /// Number of two-pin nets.
    pub net_count: usize,
    /// Plane width in tracks.
    pub width_tracks: i32,
    /// Plane height in tracks.
    pub height_tracks: i32,
    /// Number of routing layers (3 in all paper experiments).
    pub layers: u8,
    /// RNG seed (generation is fully deterministic).
    pub seed: u64,
    /// Candidate locations per pin (1 = fixed pins, 4 in the Table IV
    /// family).
    pub candidates_per_pin: usize,
    /// Mean net span in tracks.
    pub span_mean: i32,
    /// Number of rectangular blockages scattered over the layers.
    pub blockage_count: usize,
    /// Pin placement pitch in tracks: pin cells snap to a subgrid of this
    /// pitch, modelling the regular pin rows of industrial designs and
    /// guaranteeing a minimum spacing between pins of different nets.
    pub pin_pitch: i32,
}

impl BenchmarkSpec {
    /// Creates a spec with fixed pins and defaults derived from the size.
    #[must_use]
    pub fn new(name: impl Into<String>, net_count: usize, width: i32, height: i32) -> Self {
        BenchmarkSpec {
            name: name.into(),
            net_count,
            width_tracks: width,
            height_tracks: height,
            layers: 3,
            seed: 0xDAC_2014,
            candidates_per_pin: 1,
            span_mean: 8,
            blockage_count: (width as usize * height as usize) / 8000,
            pin_pitch: 2,
        }
    }

    /// Replaces the seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the candidate count per pin.
    #[must_use]
    pub fn with_candidates(mut self, k: usize) -> Self {
        self.candidates_per_pin = k.max(1);
        self
    }

    /// Scales net count and die edge by `factor` (≥ 0.01), preserving the
    /// density regime. Useful for quick benches of the Test1–5 family.
    #[must_use]
    pub fn scaled(mut self, factor: f64) -> Self {
        let f = factor.max(0.01);
        self.net_count = ((self.net_count as f64 * f).round() as usize).max(1);
        // Area scales with net count, so the edge scales with sqrt(f).
        let edge = f.sqrt();
        self.width_tracks = ((self.width_tracks as f64 * edge).round() as i32).max(16);
        self.height_tracks = ((self.height_tracks as f64 * edge).round() as i32).max(16);
        self.blockage_count = (self.blockage_count as f64 * f).round() as usize;
        self
    }

    /// The fixed-pin suite of Table III: Test1–Test5 at the paper's net
    /// counts and die sizes (6.8² – 36² µm², 40 nm pitch).
    #[must_use]
    pub fn paper_fixed_suite() -> Vec<BenchmarkSpec> {
        vec![
            BenchmarkSpec::new("Test1", 1500, 170, 170).with_seed(101),
            BenchmarkSpec::new("Test2", 2700, 240, 240).with_seed(102),
            BenchmarkSpec::new("Test3", 5500, 400, 400).with_seed(103),
            BenchmarkSpec::new("Test4", 12000, 600, 600).with_seed(104),
            BenchmarkSpec::new("Test5", 28000, 900, 900).with_seed(105),
        ]
    }

    /// The multiple-pin-candidate suite of Table IV: Test6–Test10. Each pin
    /// is a two-cell pin shape, either tap being a legal connection (the
    /// benchmark style of \[10\]); larger shapes do not fit the paper's pin
    /// density.
    #[must_use]
    pub fn paper_multi_suite() -> Vec<BenchmarkSpec> {
        vec![
            BenchmarkSpec::new("Test6", 1500, 170, 170)
                .with_seed(106)
                .with_candidates(2),
            BenchmarkSpec::new("Test7", 2700, 240, 240)
                .with_seed(107)
                .with_candidates(2),
            BenchmarkSpec::new("Test8", 5500, 400, 400)
                .with_seed(108)
                .with_candidates(2),
            BenchmarkSpec::new("Test9", 12000, 600, 600)
                .with_seed(109)
                .with_candidates(2),
            BenchmarkSpec::new("Test10", 28000, 900, 900)
                .with_seed(110)
                .with_candidates(2),
        ]
    }

    /// Generates the routing plane (with blockages) and netlist.
    ///
    /// # Panics
    ///
    /// Panics if the spec dimensions are invalid or the plane is too dense
    /// to place the requested pins.
    #[must_use]
    pub fn generate(&self) -> (RoutingPlane, Netlist) {
        let mut rng = Rng::seed_from_u64(self.seed);
        let mut plane = RoutingPlane::new(
            self.layers,
            self.width_tracks,
            self.height_tracks,
            DesignRules::node_10nm(),
        )
        .expect("benchmark spec dimensions are valid");

        // Blockages first, so pins land on free cells.
        for _ in 0..self.blockage_count {
            let layer = Layer(rng.index(self.layers as usize) as u8);
            let w = rng.range_i32_inclusive(2..=8);
            let h = rng.range_i32_inclusive(2..=8);
            let x = rng.range_i32(0..(self.width_tracks - w).max(1));
            let y = rng.range_i32(0..(self.height_tracks - h).max(1));
            plane.add_blockage(layer, TrackRect::new(x, y, x + w - 1, y + h - 1));
        }

        // Pin cells used so far, keyed by owning net index: a candidate
        // must keep one track of clearance from every *other* net's pins.
        let mut used: std::collections::HashMap<(i32, i32), usize> =
            std::collections::HashMap::new();
        let mut netlist = Netlist::new();
        let mut placed = 0usize;
        let mut attempts = 0usize;
        let max_attempts = self.net_count * 400;
        while placed < self.net_count {
            attempts += 1;
            assert!(
                attempts < max_attempts,
                "benchmark too dense: cannot place pins for {}",
                self.name
            );
            let pitch = self.pin_pitch.max(1);
            let sx = rng.range_i32(0..self.width_tracks / pitch) * pitch;
            let sy = rng.range_i32(0..self.height_tracks / pitch) * pitch;
            let (dx, dy) = self.sample_span(&mut rng);
            // Spans stay in tracks; the target snaps back to the pin grid.
            let snap = |v: i32| v / pitch * pitch;
            let (tx, ty) = (snap(sx + dx), snap(sy + dy));
            if tx < 0 || tx >= self.width_tracks || ty < 0 || ty >= self.height_tracks {
                continue;
            }
            if (sx, sy) == (tx, ty) {
                continue;
            }
            let source = self.make_pin(&mut rng, &plane, &mut used, sx, sy, placed);
            let Some(source) = source else { continue };
            let target = self.make_pin(&mut rng, &plane, &mut used, tx, ty, placed);
            let Some(target) = target else {
                // Roll back the source cells so density stays consistent.
                for c in source.candidates() {
                    used.remove(&(c.x, c.y));
                }
                continue;
            };
            netlist.add_net(format!("n{placed}"), source, target);
            placed += 1;
        }
        (plane, netlist)
    }

    fn sample_span(&self, rng: &mut Rng) -> (i32, i32) {
        let m = self.span_mean.max(2);
        let mag = |rng: &mut Rng| -> i32 {
            // Sum of two uniforms: triangular around the mean.
            let a = rng.range_i32_inclusive(1..=m);
            let b = rng.range_i32_inclusive(0..=m);
            a + b
        };
        let sign = |rng: &mut Rng| if rng.flip() { 1 } else { -1 };
        let mut dx = mag(rng) * sign(rng);
        let mut dy = mag(rng) * sign(rng);
        // A share of mostly-straight nets keeps the instance realistic.
        match rng.index(10) {
            0 | 1 => dx = rng.range_i32_inclusive(-2..=2),
            2 | 3 => dy = rng.range_i32_inclusive(-2..=2),
            _ => {}
        }
        (dx, dy)
    }

    fn make_pin(
        &self,
        rng: &mut Rng,
        plane: &RoutingPlane,
        used: &mut std::collections::HashMap<(i32, i32), usize>,
        x: i32,
        y: i32,
        net_index: usize,
    ) -> Option<Pin> {
        // A pin cell must be free, unused, and at least one track away
        // from every other net's pin cells (own candidates may cluster:
        // only one of them ends up used).
        let free = |used: &std::collections::HashMap<(i32, i32), usize>, x: i32, y: i32| {
            plane.is_free(GridPoint::new(Layer(0), x, y))
                && !used.contains_key(&(x, y))
                && !(-1..=1).any(|dx| {
                    (-1..=1).any(|dy| used.get(&(x + dx, y + dy)).is_some_and(|&n| n != net_index))
                })
        };
        if !free(used, x, y) {
            return None;
        }
        if self.candidates_per_pin <= 1 {
            used.insert((x, y), net_index);
            return Some(Pin::with_candidates(vec![GridPoint::new(Layer(0), x, y)]));
        }
        // Multi-candidate pins model a contiguous pin *shape*: a strip of
        // cells the router may tap anywhere (the benchmark style of \[10\]).
        // Strips only need exact-cell clearance — the unused taps are
        // released once the net is routed.
        let horizontal = rng.flip();
        let k = self.candidates_per_pin as i32;
        let cell_ok = |used: &std::collections::HashMap<(i32, i32), usize>, cx: i32, cy: i32| {
            cx >= 0
                && cx < self.width_tracks
                && cy >= 0
                && cy < self.height_tracks
                && plane.is_free(GridPoint::new(Layer(0), cx, cy))
                && !used.contains_key(&(cx, cy))
        };
        let strip: Vec<(i32, i32)> = (0..k)
            .map(|i| if horizontal { (x + i, y) } else { (x, y + i) })
            .collect();
        if !strip.iter().all(|&(cx, cy)| cell_ok(used, cx, cy)) {
            return None;
        }
        let mut cands = Vec::with_capacity(strip.len());
        for (cx, cy) in strip {
            used.insert((cx, cy), net_index);
            cands.push(GridPoint::new(Layer(0), cx, cy));
        }
        Some(Pin::with_candidates(cands))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let spec = BenchmarkSpec::new("t", 30, 48, 48).with_seed(42);
        let (_, a) = spec.generate();
        let (_, b) = spec.generate();
        assert_eq!(a, b);
        let (_, c) = spec.clone().with_seed(43).generate();
        assert_ne!(a, c);
    }

    #[test]
    fn pins_are_distinct_and_free() {
        let spec = BenchmarkSpec::new("t", 50, 64, 64).with_seed(1);
        let (plane, nl) = spec.generate();
        let mut seen = std::collections::HashSet::new();
        for net in &nl {
            for pin in [&net.source, &net.target] {
                for c in pin.candidates() {
                    assert!(plane.is_free(*c), "pin cell blocked: {c}");
                    assert!(seen.insert((c.x, c.y)), "pin cell reused: {c}");
                }
            }
        }
    }

    #[test]
    fn multi_candidate_generation() {
        let spec = BenchmarkSpec::new("t", 25, 64, 64)
            .with_seed(5)
            .with_candidates(2);
        let (_, nl) = spec.generate();
        let multi = nl.iter().filter(|n| n.source.is_multi()).count();
        assert!(multi > 20, "most pins should get multiple candidates");
    }

    #[test]
    fn paper_suites_match_table_sizes() {
        let fixed = BenchmarkSpec::paper_fixed_suite();
        assert_eq!(fixed.len(), 5);
        assert_eq!(fixed[0].net_count, 1500);
        assert_eq!(fixed[4].net_count, 28000);
        assert_eq!(fixed[0].width_tracks, 170);
        assert_eq!(fixed[4].width_tracks, 900);
        let multi = BenchmarkSpec::paper_multi_suite();
        assert!(multi.iter().all(|s| s.candidates_per_pin == 2));
        assert_eq!(multi[2].net_count, 5500);
    }

    #[test]
    fn scaled_preserves_density_regime() {
        let spec = BenchmarkSpec::paper_fixed_suite().remove(2); // Test3
        let small = spec.clone().scaled(0.04);
        assert_eq!(small.net_count, 220);
        // Density (nets per cell) within 2x of the original.
        let d0 = spec.net_count as f64 / (spec.width_tracks * spec.height_tracks) as f64;
        let d1 = small.net_count as f64 / (small.width_tracks * small.height_tracks) as f64;
        assert!(d1 / d0 < 2.0 && d0 / d1 < 2.0);
        let (_, nl) = small.generate();
        assert_eq!(nl.len(), 220);
    }

    #[test]
    fn blockages_present() {
        let mut spec = BenchmarkSpec::new("t", 10, 100, 100).with_seed(9);
        spec.blockage_count = 5;
        let (plane, _) = spec.generate();
        let (_, blocked, _) = plane.usage();
        assert!(blocked > 0);
    }
}
