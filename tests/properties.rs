//! Randomized tests on the core invariants, driven by the deterministic
//! [`Rng`] from `sadp-geom` (the workspace builds hermetically, with no
//! external property-testing framework).

use sadp::decomp::Bitmap;
use sadp::geom::{DesignRules, GridPoint, Layer, Rng, TrackRect};
use sadp::graph::{brute_force_color, flip_all, OverlayGraph, ParityDsu};
use sadp::scenario::{classify, Assignment, ScenarioKind};
use sadp_grid::RoutePath;

const CASES: usize = 384;

fn rules() -> DesignRules {
    DesignRules::node_10nm()
}

/// A random 1-track-wide wire fragment near the origin.
fn wire(rng: &mut Rng) -> TrackRect {
    let x = rng.range_i32(0..12);
    let y = rng.range_i32(0..12);
    let len = rng.range_i32(0..8);
    if rng.flip() {
        TrackRect::new(x, y, x + len, y)
    } else {
        TrackRect::new(x, y, x, y + len)
    }
}

/// Theorem 2: every dependent, non-touching pair classifies into one
/// of the 11 scenarios; independent or touching pairs never do.
#[test]
fn classifier_is_total_on_dependent_pairs() {
    let mut rng = Rng::seed_from_u64(0x61);
    let r = rules();
    for _ in 0..CASES {
        let a = wire(&mut rng);
        let b = wire(&mut rng);
        let (dx, dy) = a.track_gap(&b);
        let classified = classify(&a, &b, &r);
        if dx == 0 && dy == 0 {
            assert!(classified.is_none());
        } else if r.gap_is_dependent(dx, dy) {
            assert!(classified.is_some(), "dependent pair unclassified: {a} {b}");
        } else {
            assert!(classified.is_none(), "independent pair classified: {a} {b}");
        }
    }
}

/// Classification is symmetric: the kind is order-independent and the
/// cost tables of the two orders are swaps of each other.
#[test]
fn classifier_is_symmetric() {
    let mut rng = Rng::seed_from_u64(0x62);
    let r = rules();
    for _ in 0..CASES {
        let a = wire(&mut rng);
        let b = wire(&mut rng);
        match (classify(&a, &b, &r), classify(&b, &a, &r)) {
            (Some(s1), Some(s2)) => {
                assert_eq!(s1.kind, s2.kind);
                assert_eq!(s1.table.swapped(), s2.table);
            }
            (None, None) => {}
            _ => panic!("asymmetric classification for {a} / {b}"),
        }
    }
}

/// Theorem 4: on trees of nonhard constraints, the flipping DP matches
/// exhaustive enumeration.
#[test]
fn flipping_dp_is_optimal_on_trees() {
    let nonhard = [
        ScenarioKind::TwoA,
        ScenarioKind::TwoB,
        ScenarioKind::ThreeA,
        ScenarioKind::ThreeB,
        ScenarioKind::ThreeC,
        ScenarioKind::ThreeD,
    ];
    let mut rng = Rng::seed_from_u64(0x63);
    for _ in 0..CASES {
        let n = 1 + rng.index(9);
        let mut g = OverlayGraph::new();
        g.ensure_vertex(0);
        for i in 0..n {
            // Parent strictly smaller: a random tree.
            let parent = rng.index(i + 1) as u32;
            let kind = nonhard[rng.index(nonhard.len())];
            g.add_scenario(parent, i as u32 + 1, kind.table())
                .expect("nonhard edges never fail");
        }
        flip_all(&mut g);
        let nets: Vec<u32> = (0..=n as u32).collect();
        let (_, best) = brute_force_color(&g, &nets);
        let got: u64 = g
            .edges()
            .map(|(a, b, d)| {
                d.table
                    .entry(Assignment::from_colors(g.color(a), g.color(b)))
                    .weight()
            })
            .sum();
        assert_eq!(got, best, "DP not optimal on a tree");
    }
}

/// The parity union-find accepts a hard-edge set iff it is
/// parity-2-colorable (brute force over all colorings).
#[test]
fn parity_dsu_matches_brute_force() {
    let mut rng = Rng::seed_from_u64(0x64);
    for _ in 0..CASES {
        let mut dsu = ParityDsu::new(8);
        let mut accepted = Vec::new();
        for _ in 0..rng.index(17) {
            let a = rng.bounded(8) as u32;
            let b = rng.bounded(8) as u32;
            let parity = rng.flip();
            if a == b {
                continue;
            }
            if dsu.union(a, b, parity).is_ok() {
                accepted.push((a, b, parity));
            } else {
                // The rejected edge must genuinely contradict the accepted
                // set: no 2-coloring satisfies accepted + this edge.
                let mut all = accepted.clone();
                all.push((a, b, parity));
                assert!(!two_colorable(&all), "DSU rejected a satisfiable edge");
            }
        }
        // The accepted set is always satisfiable.
        assert!(two_colorable(&accepted));
    }
}

/// Path fragments cover exactly the path cells of each layer and
/// bookkeeping adds up.
#[test]
fn path_fragments_cover_path() {
    let mut rng = Rng::seed_from_u64(0x65);
    for _ in 0..CASES {
        let mut pts = vec![GridPoint::new(Layer(1), 50, 50)];
        for _ in 0..1 + rng.index(29) {
            let p = *pts.last().unwrap();
            let q = match rng.index(6) as u8 {
                0 => GridPoint::new(p.layer, p.x + 1, p.y),
                1 => GridPoint::new(p.layer, p.x - 1, p.y),
                2 => GridPoint::new(p.layer, p.x, p.y + 1),
                3 => GridPoint::new(p.layer, p.x, p.y - 1),
                4 if p.layer.0 < 2 => GridPoint::new(Layer(p.layer.0 + 1), p.x, p.y),
                _ if p.layer.0 > 0 => GridPoint::new(Layer(p.layer.0 - 1), p.x, p.y),
                _ => GridPoint::new(p.layer, p.x + 1, p.y),
            };
            if q != *pts.last().unwrap() && !pts.contains(&q) {
                pts.push(q);
            }
        }
        let path = RoutePath::new(pts.clone()).expect("constructed stepwise");
        assert_eq!(path.wirelength() + path.via_count(), pts.len() as u64 - 1);
        // Every point is covered by a fragment on its layer.
        let frags = path.fragments();
        for p in &pts {
            assert!(
                frags
                    .iter()
                    .any(|(l, r)| *l == p.layer && r.contains_cell(p.x, p.y)),
                "point {p} not covered"
            );
        }
        // Every fragment cell is on the path.
        for (l, r) in &frags {
            for (x, y) in r.cells() {
                assert!(pts.contains(&GridPoint::new(*l, x, y)));
            }
        }
    }
}

/// Morphology: dilation is extensive and monotone, closing never
/// removes original pixels.
#[test]
fn bitmap_morphology_laws() {
    let mut rng = Rng::seed_from_u64(0x66);
    for _ in 0..CASES {
        let mut b = Bitmap::new(28, 28);
        for _ in 0..1 + rng.index(5) {
            let x = i64::from(rng.range_i32(0..20));
            let y = i64::from(rng.range_i32(0..20));
            let w = i64::from(rng.range_i32(0..6));
            let h = i64::from(rng.range_i32(0..6));
            b.fill_rect(x, y, x + w, y + h);
        }
        let r = 1 + rng.index(2);
        let d = b.dilated(r);
        assert!(b.minus(&d).is_empty(), "dilation is extensive");
        let e = b.eroded(r);
        assert!(e.minus(&b).is_empty(), "erosion is anti-extensive");
        let c = b.closed(r);
        assert!(b.minus(&c).is_empty(), "closing keeps original pixels");
    }
}

/// Per-pixel reference model of [`Bitmap`]: the plain definitions the
/// word-packed implementation must reproduce exactly.
#[derive(Clone)]
struct PixelModel {
    w: usize,
    h: usize,
    px: Vec<bool>,
}

impl PixelModel {
    fn of(b: &Bitmap) -> PixelModel {
        let (w, h) = (b.width(), b.height());
        let px = (0..w * h)
            .map(|i| b.get((i % w) as i64, (i / w) as i64))
            .collect();
        PixelModel { w, h, px }
    }

    fn get(&self, x: i64, y: i64) -> Option<bool> {
        let inside = x >= 0 && y >= 0 && x < self.w as i64 && y < self.h as i64;
        inside.then(|| self.px[y as usize * self.w + x as usize])
    }

    fn map(&self, f: impl Fn(i64, i64) -> bool) -> PixelModel {
        let px = (0..self.w * self.h)
            .map(|i| f((i % self.w) as i64, (i / self.w) as i64))
            .collect();
        PixelModel { px, ..*self }
    }

    /// Per pixel: the set pixels and the canvas pixels of its `(2r+1)²`
    /// window, counted from a summed-area table so that radii past the
    /// canvas cost no more than small ones.
    fn window(&self, r: i64) -> impl Fn(i64, i64) -> (usize, usize) + '_ {
        let (w, h) = (self.w as i64, self.h as i64);
        // `sat[y][x]`: the set pixels of `[0, x) × [0, y)`.
        let at = move |sat: &[usize], x: i64, y: i64| sat[(y * (w + 1) + x) as usize];
        let mut sat = vec![0; (self.w + 1) * (self.h + 1)];
        for y in 0..h {
            for x in 0..w {
                let px = usize::from(self.get(x, y) == Some(true));
                sat[((y + 1) * (w + 1) + x + 1) as usize] =
                    px + at(&sat, x + 1, y) + at(&sat, x, y + 1) - at(&sat, x, y);
            }
        }
        move |x, y| {
            let (x0, x1) = ((x - r).max(0), (x + r + 1).min(w));
            let (y0, y1) = ((y - r).max(0), (y + r + 1).min(h));
            let set = at(&sat, x1, y1) + at(&sat, x0, y0) - at(&sat, x0, y1) - at(&sat, x1, y0);
            (set, ((x1 - x0) * (y1 - y0)) as usize)
        }
    }

    /// Any set pixel in the `(2r+1)²` window.
    fn dilated(&self, r: i64) -> PixelModel {
        let window = self.window(r);
        self.map(|x, y| window(x, y).0 > 0)
    }

    /// Every window pixel set, off-canvas pixels counting as set.
    fn eroded(&self, r: i64) -> PixelModel {
        let window = self.window(r);
        self.map(|x, y| {
            let (set, canvas) = window(x, y);
            set == canvas
        })
    }

    fn zip(&self, o: &PixelModel, f: impl Fn(bool, bool) -> bool) -> PixelModel {
        let px = self.px.iter().zip(&o.px).map(|(&a, &b)| f(a, b)).collect();
        PixelModel { px, ..*self }
    }

    /// 4-connected labels, numbered in row-major order of first pixel.
    fn components(&self) -> (Vec<u32>, u32) {
        let mut labels = vec![0u32; self.px.len()];
        let mut next = 0;
        for start in 0..self.px.len() {
            if !self.px[start] || labels[start] != 0 {
                continue;
            }
            next += 1;
            labels[start] = next;
            let mut queue = vec![start];
            while let Some(i) = queue.pop() {
                let (x, y) = ((i % self.w) as i64, (i / self.w) as i64);
                for (nx, ny) in [(x - 1, y), (x + 1, y), (x, y - 1), (x, y + 1)] {
                    if self.get(nx, ny) == Some(true) {
                        let j = ny as usize * self.w + nx as usize;
                        if labels[j] == 0 {
                            labels[j] = next;
                            queue.push(j);
                        }
                    }
                }
            }
        }
        (labels, next)
    }

    fn count(&self) -> usize {
        self.px.iter().filter(|&&p| p).count()
    }
}

fn assert_matches(b: &Bitmap, m: &PixelModel, what: &str) {
    assert_eq!((b.width(), b.height()), (m.w, m.h), "{what}: size");
    assert_eq!(b.count(), m.count(), "{what}: count");
    assert!(
        PixelModel::of(b).px == m.px,
        "{what}: pixels differ on {}x{}",
        m.w,
        m.h
    );
}

/// A bitmap of random rectangles, some reaching past every border.
fn random_bitmap(rng: &mut Rng, w: usize, h: usize) -> Bitmap {
    let mut b = Bitmap::new(w, h);
    let mut m = PixelModel::of(&b);
    for _ in 0..rng.index(7) {
        let x0 = i64::from(rng.range_i32(-4..w as i32 + 4));
        let y0 = i64::from(rng.range_i32(-4..h as i32 + 4));
        let x1 = x0 + i64::from(rng.range_i32(-2..40));
        let y1 = y0 + i64::from(rng.range_i32(-2..8));
        b.fill_rect(x0, y0, x1, y1);
        m = m.map(|x, y| {
            m.get(x, y) == Some(true) || (x0..=x1).contains(&x) && (y0..=y1).contains(&y)
        });
        assert_matches(&b, &m, "fill_rect");
    }
    b
}

/// The word-packed bitmap equals the per-pixel model on widths around
/// the 64-pixel word boundary, for every operation the simulator uses.
/// Radii 64 and past it take the dilation's word-sized shifts to their
/// limit and past the canvas.
#[test]
fn bitmap_matches_per_pixel_model() {
    let mut rng = Rng::seed_from_u64(0x6b);
    for w in [1, 63, 64, 65, 127, 128, 129, 191, 192, 193] {
        for _ in 0..24 {
            let h = 1 + rng.index(12);
            let a = random_bitmap(&mut rng, w, h);
            let b = random_bitmap(&mut rng, w, h);
            let (ma, mb) = (PixelModel::of(&a), PixelModel::of(&b));
            for r in [1, 2, 3, 7, 64, 65, 70] {
                assert_matches(&a.dilated(r), &ma.dilated(r as i64), "dilated");
                assert_matches(&a.eroded(r), &ma.eroded(r as i64), "eroded");
                let closed = ma.dilated(r as i64).eroded(r as i64);
                assert_matches(&a.closed(r), &closed, "closed");
            }
            assert_matches(&a.union(&b), &ma.zip(&mb, |p, q| p | q), "union");
            assert_matches(&a.minus(&b), &ma.zip(&mb, |p, q| p & !q), "minus");
            assert_matches(&a.intersect(&b), &ma.zip(&mb, |p, q| p & q), "intersect");
            let c = a.complement();
            assert_matches(
                &c,
                &ma.map(|x, y| ma.get(x, y) == Some(false)),
                "complement",
            );
            // Padding bits past `width` stay clear.
            assert_eq!(c.count(), w * h - a.count());
            assert_eq!(c.complement(), a);
            assert_eq!(a.is_empty(), ma.count() == 0);
            assert_eq!(a.components(), ma.components(), "components");
        }
    }
}

/// Brute-force parity 2-colorability.
fn two_colorable(edges: &[(u32, u32, bool)]) -> bool {
    for mask in 0u32..256 {
        if edges.iter().all(|&(a, b, parity)| {
            let ca = mask >> a & 1;
            let cb = mask >> b & 1;
            (ca != cb) == parity
        }) {
            return true;
        }
    }
    false
}

/// End-to-end invariant fuzzing: any random small netlist routes to a
/// conflict-free, hard-overlay-free layout with exclusive cell
/// ownership and pin-connected paths.
#[test]
fn router_invariants_on_random_netlists() {
    use sadp::prelude::*;
    let mut rng = Rng::seed_from_u64(0x67);
    for _ in 0..8 {
        let mut plane = RoutingPlane::new(3, 32, 32, DesignRules::node_10nm()).unwrap();
        let mut netlist = Netlist::new();
        let mut used = std::collections::HashSet::new();
        for i in 0..1 + rng.index(13) {
            let (sx, sy) = (rng.range_i32(2..30), rng.range_i32(2..30));
            let (tx, ty) = (rng.range_i32(2..30), rng.range_i32(2..30));
            // Distinct pin cells only; skip colliding samples.
            if (sx, sy) == (tx, ty) || !used.insert((sx, sy)) || !used.insert((tx, ty)) {
                continue;
            }
            netlist.add_two_pin(
                format!("n{i}"),
                GridPoint::new(Layer(0), sx, sy),
                GridPoint::new(Layer(0), tx, ty),
            );
        }
        if netlist.is_empty() {
            continue;
        }
        let mut router = Router::new(RouterConfig::paper_defaults());
        let report = router.route_all(&mut plane, &netlist);
        assert_eq!(report.hard_overlay_violations, 0);
        assert_eq!(report.cut_conflicts, 0);
        // Exclusive cell ownership + pin connectivity.
        let mut seen = std::collections::HashMap::new();
        for (id, routed) in router.routed() {
            let net = netlist.net(*id);
            assert!(net.source.candidates().contains(&routed.path.source()));
            assert!(net.target.candidates().contains(&routed.path.target()));
            for p in routed.all_points() {
                if let Some(prev) = seen.insert(p, *id) {
                    assert_eq!(prev, *id, "cell {p} double-owned");
                }
            }
        }
        // Final coloring satisfies every hard constraint.
        for g in router.graphs() {
            assert_eq!(g.evaluate().hard_violations, 0);
        }
    }
}
