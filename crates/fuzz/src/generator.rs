//! Deterministic workload generation across stratified regimes.
//!
//! Every instance is a pure function of `(Regime, u64 seed)`: the
//! generator draws from [`sadp_geom::Rng`] (SplitMix64) only, so the same
//! pair reproduces the same plane and netlist byte-for-byte on every
//! machine and toolchain. Each regime stresses a different part of the
//! router:
//!
//! * [`Regime::DenseClock`] — clock-tree-like multi-terminal nets over a
//!   dense field of short datapath pairs,
//! * [`Regime::SparsePairs`] — low-density random two-pin nets with long
//!   spans and scattered blockages,
//! * [`Regime::OddCycleRich`] — collinear tip-to-tip segments packed into
//!   narrow blockage channels (the Fig. 21 odd-cycle family),
//! * [`Regime::NarrowBand`] — a narrow, tall plane of mostly-vertical
//!   nets, so contention comes from the narrow dimension,
//! * [`Regime::MultiBandWide`] — a wide, short plane with a few long
//!   east-west nets spanning most of its width.

use sadp_geom::{DesignRules, GridPoint, Layer, Rng, TrackRect};
use sadp_grid::{Netlist, Pin, RoutingPlane};
use std::collections::HashMap;
use std::fmt;

/// One stratified workload family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Regime {
    /// Dense clock-tree-like instances: a few multi-terminal nets plus a
    /// dense field of short two-pin nets.
    DenseClock,
    /// Sparse random two-pin nets with unconstrained spans.
    SparsePairs,
    /// Pathological odd-cycle-rich channels of tip-to-tip segments.
    OddCycleRich,
    /// A narrow, tall plane (16–32 tracks wide).
    NarrowBand,
    /// A wide, short plane (400–520 tracks wide) with long crossers.
    MultiBandWide,
}

impl Regime {
    /// Every regime, in the canonical fuzzing order.
    pub const ALL: [Regime; 5] = [
        Regime::DenseClock,
        Regime::SparsePairs,
        Regime::OddCycleRich,
        Regime::NarrowBand,
        Regime::MultiBandWide,
    ];

    /// The stable CLI name (`--regime` value, artifact file names).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Regime::DenseClock => "dense-clock",
            Regime::SparsePairs => "sparse-pairs",
            Regime::OddCycleRich => "odd-cycle",
            Regime::NarrowBand => "narrow-band",
            Regime::MultiBandWide => "multi-band",
        }
    }

    /// Parses a CLI name back into a regime.
    #[must_use]
    pub fn parse(name: &str) -> Option<Regime> {
        Regime::ALL.iter().copied().find(|r| r.name() == name)
    }

    /// A per-regime salt so the regimes draw independent streams from the
    /// same user-facing seed.
    fn salt(self) -> u64 {
        match self {
            Regime::DenseClock => 0xC10C_1000,
            Regime::SparsePairs => 0x5BA2_5E00,
            Regime::OddCycleRich => 0x0DDC_7C1E,
            Regime::NarrowBand => 0x0A22_08A9,
            Regime::MultiBandWide => 0x3B1D_3B1D,
        }
    }
}

impl fmt::Display for Regime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One generated fuzzing instance.
#[derive(Debug, Clone)]
pub struct FuzzInstance {
    /// The regime that produced it.
    pub regime: Regime,
    /// The user-facing seed (`sadp fuzz` counts these up from `--start`).
    pub seed: u64,
    /// The plane, with blockages applied.
    pub plane: RoutingPlane,
    /// The netlist.
    pub netlist: Netlist,
}

/// Generates the instance for `(regime, seed)`. Never panics: a seed that
/// fails to place all requested pins simply yields fewer nets.
#[must_use]
pub fn generate(regime: Regime, seed: u64) -> FuzzInstance {
    let mut rng = Rng::seed_from_u64(seed ^ regime.salt());
    let (plane, netlist) = match regime {
        Regime::DenseClock => gen_dense_clock(&mut rng),
        Regime::SparsePairs => gen_sparse_pairs(&mut rng),
        Regime::OddCycleRich => gen_odd_cycle(&mut rng),
        Regime::NarrowBand => gen_narrow_band(&mut rng),
        Regime::MultiBandWide => gen_multi_band(&mut rng),
    };
    FuzzInstance {
        regime,
        seed,
        plane,
        netlist,
    }
}

/// Pin-cell bookkeeping: a candidate must be free, unused, and one track
/// clear of every *other* net's pins (the same spacing rule as the
/// Test1–10 benchmark generator).
struct Placer {
    used: HashMap<(i32, i32), usize>,
}

impl Placer {
    fn new() -> Placer {
        Placer {
            used: HashMap::new(),
        }
    }

    fn ok(&self, plane: &RoutingPlane, x: i32, y: i32, net: usize) -> bool {
        plane.is_free(GridPoint::new(Layer(0), x, y))
            && !self.used.contains_key(&(x, y))
            && !(-1..=1).any(|dx| {
                (-1..=1).any(|dy| self.used.get(&(x + dx, y + dy)).is_some_and(|&n| n != net))
            })
    }

    fn take(&mut self, x: i32, y: i32, net: usize) -> Pin {
        self.used.insert((x, y), net);
        Pin::fixed(GridPoint::new(Layer(0), x, y))
    }
}

fn new_plane(layers: u8, w: i32, h: i32) -> RoutingPlane {
    RoutingPlane::new(layers, w, h, DesignRules::node_10nm()).expect("generator dims are valid")
}

/// Scatters `count` small rectangular blockages over random layers.
fn scatter_blockages(rng: &mut Rng, plane: &mut RoutingPlane, count: usize) {
    for _ in 0..count {
        let layer = Layer(rng.index(plane.layers() as usize) as u8);
        let w = rng.range_i32_inclusive(2..=6);
        let h = rng.range_i32_inclusive(2..=6);
        let x = rng.range_i32(0..(plane.width() - w).max(1));
        let y = rng.range_i32(0..(plane.height() - h).max(1));
        plane.add_blockage(layer, TrackRect::new(x, y, x + w - 1, y + h - 1));
    }
}

/// Places `count` two-pin nets with spans up to `max_span`, skipping
/// placements that collide (bounded attempts, never panics).
fn place_pairs(
    rng: &mut Rng,
    plane: &RoutingPlane,
    placer: &mut Placer,
    netlist: &mut Netlist,
    count: usize,
    max_span: i32,
) {
    let (w, h) = (plane.width(), plane.height());
    let mut attempts = 0usize;
    let budget = count * 60;
    while netlist.len() < count && attempts < budget {
        attempts += 1;
        let net = netlist.len();
        let sx = rng.range_i32(0..w);
        let sy = rng.range_i32(0..h);
        let dx = rng.range_i32_inclusive(-max_span..=max_span);
        let dy = rng.range_i32_inclusive(-max_span..=max_span);
        let (tx, ty) = (sx + dx, sy + dy);
        if (dx == 0 && dy == 0) || tx < 0 || tx >= w || ty < 0 || ty >= h {
            continue;
        }
        if !placer.ok(plane, sx, sy, net) || !placer.ok(plane, tx, ty, net) || (sx, sy) == (tx, ty)
        {
            continue;
        }
        let source = placer.take(sx, sy, net);
        let target = placer.take(tx, ty, net);
        netlist.add_net(format!("p{net}"), source, target);
    }
}

fn gen_dense_clock(rng: &mut Rng) -> (RoutingPlane, Netlist) {
    let w = rng.range_i32_inclusive(44..=72);
    let h = rng.range_i32_inclusive(44..=72);
    let mut plane = new_plane(3, w, h);
    let blockages = rng.index(4);
    scatter_blockages(rng, &mut plane, blockages);
    let mut placer = Placer::new();
    let mut netlist = Netlist::new();

    // A few clock-tree-like nets: a central hub plus 2–4 spread terminals.
    let trees = rng.range_i32_inclusive(1..=3) as usize;
    for t in 0..trees {
        let net = netlist.len();
        let hub = (
            rng.range_i32(w / 4..3 * w / 4),
            rng.range_i32(h / 4..3 * h / 4),
        );
        if !placer.ok(&plane, hub.0, hub.1, net) {
            continue;
        }
        let terminals = rng.range_i32_inclusive(2..=4) as usize;
        let mut pins = vec![placer.take(hub.0, hub.1, net)];
        for _ in 0..terminals * 8 {
            if pins.len() > terminals {
                break;
            }
            let x = rng.range_i32(0..w);
            let y = rng.range_i32(0..h);
            if placer.ok(&plane, x, y, net) {
                pins.push(placer.take(x, y, net));
            }
        }
        if pins.len() >= 2 {
            netlist.add_multi_pin(format!("clk{t}"), pins);
        }
    }

    // The dense datapath field: short spans, ~1 net per 30 cells.
    let pairs = (w as usize * h as usize) / 30;
    place_pairs(rng, &plane, &mut placer, &mut netlist, pairs, 9);
    (plane, netlist)
}

fn gen_sparse_pairs(rng: &mut Rng) -> (RoutingPlane, Netlist) {
    let w = rng.range_i32_inclusive(32..=96);
    let h = rng.range_i32_inclusive(32..=96);
    let mut plane = new_plane(3, w, h);
    let blockages = rng.index(7);
    scatter_blockages(rng, &mut plane, blockages);
    let mut placer = Placer::new();
    let mut netlist = Netlist::new();
    let pairs = (w as usize * h as usize) / 160;
    // Long spans allowed: up to half the die edge.
    place_pairs(rng, &plane, &mut placer, &mut netlist, pairs, w.max(h) / 2);
    (plane, netlist)
}

fn gen_odd_cycle(rng: &mut Rng) -> (RoutingPlane, Netlist) {
    // Horizontal channels of 2–3 free tracks separated by full-width
    // blockage walls; channels are filled with collinear tip-to-tip
    // segments and parallel neighbours — the 1-a / 1-b chain and
    // odd-cycle factory of Figs. 2 and 21.
    let w = rng.range_i32_inclusive(24..=48);
    let channels = rng.range_i32_inclusive(2..=4);
    let channel_h = rng.range_i32_inclusive(2..=3);
    let wall = 2;
    let h = channels * (channel_h + wall) + wall;
    let layers = if rng.chance(0.3) { 1 } else { 2 };
    let mut plane = new_plane(layers, w, h);
    for c in 0..=channels {
        let y0 = c * (channel_h + wall);
        // Walls block every layer so the channels are genuinely narrow.
        for l in 0..layers {
            plane.add_blockage(Layer(l), TrackRect::new(0, y0, w - 1, y0 + wall - 1));
        }
    }
    let mut placer = Placer::new();
    let mut netlist = Netlist::new();
    for c in 0..channels {
        let base = c * (channel_h + wall) + wall;
        for row in 0..channel_h {
            let y = base + row;
            // Chop the row into tip-to-tip segments with 1-cell gaps.
            let mut x = rng.range_i32_inclusive(1..=3);
            while x + 3 < w {
                let len = rng.range_i32_inclusive(3..=8).min(w - 1 - x);
                if len < 2 {
                    break;
                }
                let net = netlist.len();
                let (sx, tx) = (x, x + len - 1);
                if placer.ok(&plane, sx, y, net) && placer.ok(&plane, tx, y, net) {
                    let source = placer.take(sx, y, net);
                    let target = placer.take(tx, y, net);
                    netlist.add_net(format!("s{net}"), source, target);
                }
                // Tip-to-tip: the next segment starts one cell after this
                // one ends (the merge-and-cut distance), sometimes two.
                x += len + rng.range_i32_inclusive(1..=2);
            }
        }
    }
    (plane, netlist)
}

fn gen_narrow_band(rng: &mut Rng) -> (RoutingPlane, Netlist) {
    let w = rng.range_i32_inclusive(16..=32);
    let h = rng.range_i32_inclusive(64..=128);
    let mut plane = new_plane(3, w, h);
    let blockages = rng.index(3);
    scatter_blockages(rng, &mut plane, blockages);
    let mut placer = Placer::new();
    let mut netlist = Netlist::new();
    let pairs = (w as usize * h as usize) / 90;
    // Mostly-vertical nets: the narrow dimension forces contention.
    let (ww, hh) = (plane.width(), plane.height());
    let mut attempts = 0usize;
    while netlist.len() < pairs && attempts < pairs * 60 {
        attempts += 1;
        let net = netlist.len();
        let sx = rng.range_i32(0..ww);
        let sy = rng.range_i32(0..hh);
        let tx = (sx + rng.range_i32_inclusive(-3..=3)).clamp(0, ww - 1);
        let ty = (sy + rng.range_i32_inclusive(-20..=20)).clamp(0, hh - 1);
        if (sx, sy) == (tx, ty)
            || !placer.ok(&plane, sx, sy, net)
            || !placer.ok(&plane, tx, ty, net)
        {
            continue;
        }
        let source = placer.take(sx, sy, net);
        let target = placer.take(tx, ty, net);
        netlist.add_net(format!("v{net}"), source, target);
    }
    (plane, netlist)
}

fn gen_multi_band(rng: &mut Rng) -> (RoutingPlane, Netlist) {
    let w = rng.range_i32_inclusive(400..=520);
    let h = rng.range_i32_inclusive(40..=64);
    let mut plane = new_plane(3, w, h);
    let blockages = rng.index(6);
    scatter_blockages(rng, &mut plane, blockages);
    let mut placer = Placer::new();
    let mut netlist = Netlist::new();
    let pairs = (w as usize) / 6;
    place_pairs(rng, &plane, &mut placer, &mut netlist, pairs, 14);
    // A handful of long east-west nets spanning most of the width.
    let crossers = rng.range_i32_inclusive(2..=5) as usize;
    let mut attempts = 0usize;
    let mut placed = 0usize;
    while placed < crossers && attempts < crossers * 60 {
        attempts += 1;
        let net = netlist.len();
        let sx = rng.range_i32(0..w / 4);
        let tx = rng.range_i32(3 * w / 4..w);
        let sy = rng.range_i32(0..h);
        let ty = rng.range_i32(0..h);
        if !placer.ok(&plane, sx, sy, net) || !placer.ok(&plane, tx, ty, net) {
            continue;
        }
        let source = placer.take(sx, sy, net);
        let target = placer.take(tx, ty, net);
        netlist.add_net(format!("x{net}"), source, target);
        placed += 1;
    }
    (plane, netlist)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for regime in Regime::ALL {
            let a = generate(regime, 7);
            let b = generate(regime, 7);
            assert_eq!(a.netlist, b.netlist, "{regime}");
            assert_eq!(a.plane.usage(), b.plane.usage(), "{regime}");
            let c = generate(regime, 8);
            assert!(
                a.netlist != c.netlist || a.plane.usage() != c.plane.usage(),
                "{regime}: different seeds should differ"
            );
        }
    }

    #[test]
    fn regimes_have_distinct_streams() {
        let a = generate(Regime::DenseClock, 1);
        let b = generate(Regime::SparsePairs, 1);
        assert_ne!(a.netlist, b.netlist);
    }

    #[test]
    fn every_regime_yields_nets() {
        for regime in Regime::ALL {
            for seed in 0..5 {
                let inst = generate(regime, seed);
                assert!(
                    inst.netlist.len() >= 2,
                    "{regime} seed {seed}: only {} nets",
                    inst.netlist.len()
                );
            }
        }
    }

    #[test]
    fn pins_are_free_cells() {
        for regime in Regime::ALL {
            let inst = generate(regime, 3);
            for net in &inst.netlist {
                for pin in net.pins() {
                    for &c in pin.candidates() {
                        assert!(inst.plane.is_free(c), "{regime}: pin on blocked cell {c}");
                    }
                }
            }
        }
    }

    #[test]
    fn regime_names_round_trip() {
        for regime in Regime::ALL {
            assert_eq!(Regime::parse(regime.name()), Some(regime));
        }
        assert_eq!(Regime::parse("nope"), None);
    }

    #[test]
    fn width_regimes_have_the_advertised_widths() {
        for seed in 0..3 {
            let narrow = generate(Regime::NarrowBand, seed);
            assert!((16..=32).contains(&narrow.plane.width()));
            let wide = generate(Regime::MultiBandWide, seed);
            assert!((400..=520).contains(&wide.plane.width()));
        }
    }
}
