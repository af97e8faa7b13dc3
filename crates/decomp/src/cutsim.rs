//! The SADP cut-process decomposition simulator.

use crate::bitmap::{Axis, Bitmap};
use crate::layout::ColoredPattern;
use sadp_geom::{DesignRules, Orientation, TrackRect};
use sadp_scenario::Color;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;

/// Pixel resolution of the simulator, in nanometres.
pub const PX_NM: i64 = 10;

/// One contiguous run of unprotected (cut-defined) target boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverlayRun {
    /// Index of the pattern (into the simulator input) the run lies on.
    pub pattern: usize,
    /// Run length in pixels.
    pub len_px: usize,
    /// Whether the run lies on a side boundary (vs. a line-end tip).
    pub is_side: bool,
}

/// Measured metrics of one decomposition.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct DecompReport {
    /// Total side-overlay length in pixels.
    pub side_overlay_px: usize,
    /// Total tip-overlay length in pixels (noncritical).
    pub tip_overlay_px: usize,
    /// Number of side-overlay runs strictly longer than `w_line`
    /// (hard overlays, strictly forbidden).
    pub hard_overlay_runs: usize,
    /// Number of type-B cut conflicts (two parallel cut-defined boundary
    /// sections of one target within `d_cut`).
    pub cut_conflicts: usize,
    /// Pixels where a spacer overlaps a target pattern (the decomposition
    /// destroys the target; must be 0).
    pub spacer_violations: usize,
    /// All overlay runs, ordered by pattern, then boundary direction
    /// (east, west, north, south), boundary line and position.
    pub runs: Vec<OverlayRun>,
    w_line_px: usize,
}

impl DecompReport {
    /// Side overlay in `w_line` units (the paper's "overlay length").
    #[must_use]
    pub fn side_overlay_units(&self) -> u64 {
        (self.side_overlay_px / self.w_line_px.max(1)) as u64
    }

    /// Whether the layout decomposed without destroying any target and
    /// without hard overlays or cut conflicts.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.hard_overlay_runs == 0 && self.cut_conflicts == 0 && self.spacer_violations == 0
    }
}

/// The mask set produced by one simulation.
#[derive(Debug, Clone)]
pub struct Decomposition {
    /// Target metal pixels.
    pub target: Bitmap,
    /// Final core mask (core patterns + assists, after merging).
    pub core: Bitmap,
    /// Spacer pixels.
    pub spacer: Bitmap,
    /// Required cut pixels (`NOT spacer − target`).
    pub cut: Bitmap,
    /// Pattern index + 1 per pixel, row-major (0 = no pattern).
    pub owner: Vec<u32>,
    /// Measured metrics.
    pub report: DecompReport,
    /// Target pixels the decomposition fails on: type-B conflicted runs
    /// plus spacer-destroyed target. Empty iff
    /// [`DecompReport::cut_conflicts`] and
    /// [`DecompReport::spacer_violations`] are both zero.
    pub conflicts: Bitmap,
    /// Cell origin: the track coordinate mapped to the canvas margin.
    pub origin: (i32, i32),
    /// Pixels per track pitch.
    pub pitch_px: usize,
}

impl Decomposition {
    /// The track cells whose target pixels the decomposition fails on
    /// (see [`Decomposition::conflicts`]), deduplicated and sorted.
    #[must_use]
    pub fn conflict_cells(&self) -> Vec<(i32, i32)> {
        cells_of(&self.conflicts, self.origin, self.pitch_px)
    }
}

/// Where one decomposition fails, without its overlay measurement: the
/// result of [`CutSimulator::conflicts`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Conflicts {
    /// Track cells holding type-B conflicted or spacer-destroyed target
    /// pixels, deduplicated and sorted.
    pub cells: Vec<(i32, i32)>,
    /// Number of type-B cut conflicts.
    pub cut_conflicts: usize,
    /// Target pixels a spacer overlaps.
    pub spacer_violations: usize,
}

/// The track cells of the set pixels of `marked`, deduplicated and
/// sorted. Marked pixels are target pixels, which only exist inside the
/// `w_line` band of a cell, so flooring by the pitch is exact.
fn cells_of(marked: &Bitmap, origin: (i32, i32), pitch_px: usize) -> Vec<(i32, i32)> {
    let mut cells: Vec<(i32, i32)> = marked
        .ones()
        .map(|(x, y)| {
            let cx = (x / pitch_px) as i32 + origin.0;
            let cy = (y / pitch_px) as i32 + origin.1;
            (cx, cy)
        })
        .collect();
    cells.sort_unstable();
    cells.dedup();
    cells
}

/// The simulator input after same-net bridging (see [`Bridged::new`]),
/// without copying the patterns.
struct Bridged<'p> {
    patterns: &'p [ColoredPattern],
    /// The bridge rects, `(pattern index, rect)` in pattern order.
    bridges: Vec<(usize, TrackRect)>,
}

impl<'p> Bridged<'p> {
    /// Adds a connecting rectangle between any two fragments of the same
    /// pattern on abutting tracks (track gap 1) with overlapping
    /// projections. Such fragments occupy adjacent cells — only the
    /// pixel-level spacer band between the tracks separates them — so the
    /// bridge introduces no new cells; it merely makes the polygon
    /// contiguous on the pixel canvas, as a real same-net shape would be
    /// drawn.
    fn new(patterns: &'p [ColoredPattern]) -> Bridged<'p> {
        let mut bridges = Vec::new();
        for (pi, p) in patterns.iter().enumerate() {
            for (i, a) in p.rects.iter().enumerate() {
                for b in p.rects.iter().skip(i + 1) {
                    let (dx, dy) = a.track_gap(b);
                    let bridge = if dx == 1 && dy == 0 && a.overlap_y(b) > 0 {
                        TrackRect::new(
                            a.x1.min(b.x1),
                            a.y0.max(b.y0),
                            a.x0.max(b.x0),
                            a.y1.min(b.y1),
                        )
                    } else if dy == 1 && dx == 0 && a.overlap_x(b) > 0 {
                        TrackRect::new(
                            a.x0.max(b.x0),
                            a.y1.min(b.y1),
                            a.x1.min(b.x1),
                            a.y0.max(b.y0),
                        )
                    } else {
                        continue;
                    };
                    bridges.push((pi, bridge));
                }
            }
        }
        Bridged { patterns, bridges }
    }

    /// The rects of pattern `pi` after bridging: its own, then its
    /// bridges.
    fn rects(&self, pi: usize) -> impl Iterator<Item = &TrackRect> {
        let lo = self.bridges.partition_point(|&(p, _)| p < pi);
        let hi = self.bridges.partition_point(|&(p, _)| p <= pi);
        let bridges = self.bridges[lo..hi].iter().map(|(_, r)| r);
        self.patterns[pi].rects.iter().chain(bridges)
    }
}

/// The masks of steps 1-5 of the pipeline, on a canvas whose cell
/// `origin` maps to pixel 0.
struct Masks<'p> {
    input: Bridged<'p>,
    target: Bitmap,
    core: Bitmap,
    spacer: Bitmap,
    cut: Bitmap,
    origin: (i32, i32),
}

/// The most masks one pass holds at once: the assist step of
/// [`CutSimulator::synthesize`] (targets, second-color targets, core,
/// merge zone and both strip sets).
const LIVE_MASKS: usize = 6;

/// The masks a simulator keeps between passes. A pass takes every mask
/// it works on from here and gives it back when done, so once a pass on
/// a canvas of the same size has run, the next allocates none. It keeps
/// at most [`LIVE_MASKS`], the most one pass holds at once, and goes
/// with its simulator. A clone starts empty: between passes the contents
/// mean nothing.
#[derive(Default)]
struct MaskPool {
    free: Vec<Bitmap>,
    /// The few rows a stencil sweep builds (see [`Bitmap::row_stencil`]).
    rows: Vec<u64>,
}

impl MaskPool {
    /// An all-false `width × height` mask.
    fn take(&mut self, width: usize, height: usize) -> Bitmap {
        let mut b = self.free.pop().unwrap_or_else(|| Bitmap::new(0, 0));
        b.reset(width, height);
        b
    }

    /// A copy of `of`.
    fn take_copy(&mut self, of: &Bitmap) -> Bitmap {
        let mut b = self.free.pop().unwrap_or_else(|| Bitmap::new(0, 0));
        b.clone_from(of);
        b
    }

    fn give(&mut self, masks: impl IntoIterator<Item = Bitmap>) {
        for b in masks {
            if self.free.len() < LIVE_MASKS {
                self.free.push(b);
            }
        }
    }
}

impl Clone for MaskPool {
    fn clone(&self) -> MaskPool {
        MaskPool::default()
    }
}

impl fmt::Debug for MaskPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MaskPool({} free)", self.free.len())
    }
}

/// The cut-process simulator (see the crate-level docs for the pipeline).
///
/// It owns the masks its passes work on (see [`CutSimulator::conflicts`]),
/// so a caller that checks many layouts, as the router's cut repair
/// does, keeps one simulator for all of them.
#[derive(Debug, Clone)]
pub struct CutSimulator {
    rules: DesignRules,
    /// Behind a `RefCell` so that passes take `&self`: a pass never
    /// borrows it across another borrow.
    pool: RefCell<MaskPool>,
}

impl CutSimulator {
    /// Creates a simulator for the given rule set.
    ///
    /// # Panics
    ///
    /// Panics if any rule dimension is not a multiple of the 10 nm pixel
    /// size, or if `d_core` exceeds 64 pixels (640 nm), the farthest
    /// the merge and type-B kernels shift a mask in one word step.
    #[must_use]
    pub fn new(rules: DesignRules) -> CutSimulator {
        for v in [
            rules.w_line().0,
            rules.w_spacer().0,
            rules.w_cut().0,
            rules.w_core().0,
            rules.d_cut().0,
            rules.d_core().0,
        ] {
            assert!(
                v % PX_NM == 0,
                "rule dimension {v}nm not a {PX_NM}nm multiple"
            );
        }
        let sim = CutSimulator {
            rules,
            pool: RefCell::default(),
        };
        assert!(
            sim.d_core_px().max(sim.d_cut_px()) <= 64,
            "d_core/d_cut past 64 pixels"
        );
        sim
    }

    fn w_line_px(&self) -> usize {
        (self.rules.w_line().0 / PX_NM) as usize
    }
    fn w_spacer_px(&self) -> usize {
        (self.rules.w_spacer().0 / PX_NM) as usize
    }
    fn w_core_px(&self) -> usize {
        (self.rules.w_core().0 / PX_NM) as usize
    }
    fn d_core_px(&self) -> usize {
        (self.rules.d_core().0 / PX_NM) as usize
    }
    fn d_cut_px(&self) -> usize {
        (self.rules.d_cut().0 / PX_NM) as usize
    }
    fn pitch_px(&self) -> usize {
        (self.rules.pitch().0 / PX_NM) as usize
    }

    fn take(&self, width: usize, height: usize) -> Bitmap {
        self.pool.borrow_mut().take(width, height)
    }

    fn take_copy(&self, of: &Bitmap) -> Bitmap {
        self.pool.borrow_mut().take_copy(of)
    }

    fn give(&self, masks: impl IntoIterator<Item = Bitmap>) {
        self.pool.borrow_mut().give(masks);
    }

    fn take_rows(&self) -> Vec<u64> {
        std::mem::take(&mut self.pool.borrow_mut().rows)
    }

    fn give_rows(&self, rows: Vec<u64>) {
        self.pool.borrow_mut().rows = rows;
    }

    /// Runs the full cut-process pipeline on a colored single-layer
    /// layout, then measures every overlay run.
    ///
    /// # Panics
    ///
    /// Panics if `patterns` is empty.
    #[must_use]
    pub fn run(&self, patterns: &[ColoredPattern]) -> Decomposition {
        let masks = self.synthesize(patterns);
        let owner = self.owner_map(&masks);
        let mut report = self.measure(&masks, &owner);
        let (cut_conflicts, spacer_violations, conflicts) =
            self.failures(&masks.target, &masks.spacer, &masks.cut);
        report.cut_conflicts = cut_conflicts;
        report.spacer_violations = spacer_violations;
        let Masks {
            target,
            core,
            spacer,
            cut,
            origin,
            ..
        } = masks;
        Decomposition {
            target,
            core,
            spacer,
            cut,
            owner,
            report,
            conflicts,
            origin,
            pitch_px: self.pitch_px(),
        }
    }

    /// Synthesises the masks of `patterns` and reports only where the
    /// decomposition fails: the type-B conflicted and spacer-destroyed
    /// target cells with their two counts. These equal
    /// [`Decomposition::conflict_cells`] and the report's
    /// `cut_conflicts`/`spacer_violations` of [`CutSimulator::run`], but
    /// skip the per-pixel owner map and the overlay runs, which only the
    /// overlay measurement reads.
    ///
    /// Every mask of the pass comes from the simulator and goes back to
    /// it, so repeated passes on canvases of one size allocate no mask.
    ///
    /// # Panics
    ///
    /// Panics if `patterns` is empty.
    #[must_use]
    pub fn conflicts(&self, patterns: &[ColoredPattern]) -> Conflicts {
        let Masks {
            target,
            core,
            spacer,
            cut,
            origin,
            ..
        } = self.synthesize(patterns);
        self.give([core]);
        let (cut_conflicts, spacer_violations, marked) = self.failures(&target, &spacer, &cut);
        let cells = cells_of(&marked, origin, self.pitch_px());
        self.give([marked, target, spacer, cut]);
        Conflicts {
            cells,
            cut_conflicts,
            spacer_violations,
        }
    }

    /// The pixel rectangle (inclusive corners) that track rect `r` paints
    /// on a canvas whose cell `origin` maps to pixel 0.
    fn px_rect(&self, origin: (i32, i32), r: &TrackRect) -> (i64, i64, i64, i64) {
        let pitch = self.pitch_px() as i64;
        let wline = self.w_line_px() as i64;
        let (x0, y0) = (
            (r.x0 - origin.0) as i64 * pitch,
            (r.y0 - origin.1) as i64 * pitch,
        );
        let (x1, y1) = (
            (r.x1 - origin.0) as i64 * pitch + wline - 1,
            (r.y1 - origin.1) as i64 * pitch + wline - 1,
        );
        (x0, y0, x1, y1)
    }

    /// Steps 1-5 of the pipeline: bridge, paint, assists, merge, spacer,
    /// cut. Both consumers, [`CutSimulator::run`] and
    /// [`CutSimulator::conflicts`], start from its masks.
    fn synthesize<'p>(&self, patterns: &'p [ColoredPattern]) -> Masks<'p> {
        assert!(!patterns.is_empty(), "nothing to decompose");
        // Same-net fragments on abutting tracks (islands that connect on
        // another layer) are bridged into one contiguous polygon first:
        // shorting a net to itself is free metal, while cutting the spacer
        // band between them would manufacture spurious overlays and
        // type-B conflicts.
        let input = Bridged::new(patterns);
        let pitch = self.pitch_px();
        let wspacer = self.w_spacer_px();

        // Canvas: pattern bbox plus a margin wide enough for assists.
        let bbox = patterns
            .iter()
            .map(ColoredPattern::bbox)
            .chain(input.bridges.iter().map(|&(_, r)| r))
            .reduce(|a, b| a.union_bbox(&b))
            .expect("non-empty");
        let margin_cells = 3i32;
        let origin = (bbox.x0 - margin_cells, bbox.y0 - margin_cells);
        let width = (bbox.width_x() + 2 * margin_cells) as usize * pitch;
        let height = (bbox.width_y() + 2 * margin_cells) as usize * pitch;

        // 1. Paint targets, each into its color's mask. 2. Core mask:
        //    core-colored patterns.
        let mut second = self.take(width, height);
        let mut core = self.take(width, height);
        for (pi, p) in patterns.iter().enumerate() {
            let dst = match p.color {
                Color::Second => &mut second,
                Color::Core => &mut core,
            };
            for r in input.rects(pi) {
                let (x0, y0, x1, y1) = self.px_rect(origin, r);
                dst.fill_rect(x0, y0, x1, y1);
            }
        }
        let mut target = self.take_copy(&core);
        target.or_assign(&second);

        // 3. Assist cores: one strip per pattern-rectangle side, at a gap
        //    of exactly w_spacer and w_core wide. Side strips (protecting
        //    long boundaries) are always attempted — if they end up within
        //    d_core of a core pattern, the merging step below resolves them
        //    and the resulting cut-defined overlay is measured honestly.
        //    Tip strips are dropped when they would merge into a core
        //    pattern: an unprotected line end is only a (noncritical) tip
        //    overlay, which the decomposer prefers over a merge.
        let mut merge_zone = self.take_copy(&core);
        merge_zone.dilate(self.d_core_px());
        let mut side_strips = self.take(width, height);
        let mut tip_strips = self.take(width, height);
        let wcore = self.w_core_px() as i64;
        let gap = wspacer as i64;
        for (pi, _) in patterns
            .iter()
            .enumerate()
            .filter(|(_, p)| p.color == Color::Second)
        {
            for r in input.rects(pi) {
                let (x0, y0, x1, y1) = self.px_rect(origin, r);
                // (strip rect, protects-a-side?) for west/east/south/north.
                // Point fragments (via landings) have no droppable tips:
                // a 20nm pad must be spacer-protected on every side or two
                // cuts end up w_line apart over it — so all four strips
                // count as side strips and merging is the lesser evil.
                let (horizontal, vertical) = match r.orientation() {
                    Orientation::Horizontal => (true, false),
                    Orientation::Vertical => (false, true),
                    Orientation::Point => (true, true),
                };
                let strips = [
                    ((x0 - gap - wcore, y0, x0 - gap - 1, y1), vertical),
                    ((x1 + gap + 1, y0, x1 + gap + wcore, y1), vertical),
                    ((x0, y0 - gap - wcore, x1, y0 - gap - 1), horizontal),
                    ((x0, y1 + gap + 1, x1, y1 + gap + wcore), horizontal),
                ];
                for ((sx0, sy0, sx1, sy1), is_side) in strips {
                    let dst = if is_side {
                        &mut side_strips
                    } else {
                        &mut tip_strips
                    };
                    dst.fill_rect(sx0, sy0, sx1, sy1);
                }
            }
        }
        // Assists: side strips and the tip strips outside the merge zone,
        // minus the clearance around second-color targets.
        second.dilate(wspacer);
        tip_strips.and_not_assign(&merge_zone);
        side_strips.or_assign(&tip_strips);
        side_strips.and_not_assign(&second);
        core.or_assign(&side_strips);
        self.give([second, merge_zone, side_strips, tip_strips]);

        // 4. Merge core patterns closer than d_core: exact straight-gap
        //    fills (a plain morphological closing cannot hit an arbitrary
        //    `< d_core` threshold), plus corner closing when the diagonal
        //    track gap is itself below d_core (true at the 10 nm node:
        //    √2·w_spacer ≈ 28 nm < 30 nm; false at the 14 nm set).
        let core = self.merge_cores(core);

        // 5. Spacer on all core sidewalls; metal is everything not spacer.
        let mut spacer = self.take_copy(&core);
        spacer.dilate(wspacer);
        spacer.and_not_assign(&core);
        let mut cut = self.take_copy(&spacer);
        cut.invert();
        cut.and_not_assign(&target);

        Masks {
            input,
            target,
            core,
            spacer,
            cut,
            origin,
        }
    }

    /// Pattern index + 1 per pixel of the masks' canvas, row-major (0 =
    /// no pattern). Later patterns overwrite earlier ones where they
    /// overlap.
    fn owner_map(&self, masks: &Masks) -> Vec<u32> {
        let (width, height) = (masks.target.width(), masks.target.height());
        let mut owner = vec![0u32; width * height];
        for pi in 0..masks.input.patterns.len() {
            for r in masks.input.rects(pi) {
                let (x0, y0, x1, y1) = self.px_rect(masks.origin, r);
                for y in y0.max(0)..=y1.min(height as i64 - 1) {
                    let row = y as usize * width;
                    for x in x0.max(0)..=x1.min(width as i64 - 1) {
                        owner[row + x as usize] = pi as u32 + 1;
                    }
                }
            }
        }
        owner
    }

    /// Step 6's failure half, which both consumers read: the type-B
    /// conflict count, the spacer-violation pixel count, and the union of
    /// the conflicted runs with the spacer-destroyed target pixels.
    fn failures(&self, target: &Bitmap, spacer: &Bitmap, cut: &Bitmap) -> (usize, usize, Bitmap) {
        let (cut_conflicts, mut marked) = self.count_type_b(target, cut);
        let destroyed = marked.or_intersection(spacer, target);
        (cut_conflicts, destroyed, marked)
    }

    /// Fills every straight gap of width `< d_core` between core pixels
    /// (rows then columns, twice, so L-shaped fills compose), then closes
    /// diagonal corners when the corner-to-corner distance of adjacent
    /// tracks is below `d_core`.
    fn merge_cores(&self, mut core: Bitmap) -> Bitmap {
        let d = self.d_core_px();
        let (width, height) = (core.width(), core.height());
        let mut snapshot = self.take(width, height);
        let mut empty = self.take(width, height);
        let mut rows = self.take_rows();
        for _ in 0..2 {
            // Both directions fill from the same snapshot.
            snapshot.clone_from(&core);
            empty.clone_from(&core);
            empty.invert();
            for axis in [Axis::X, Axis::Y] {
                bounded_runs(&mut core, &empty, &snapshot, d, axis, &mut rows);
            }
        }
        self.give([snapshot, empty]);
        self.give_rows(rows);
        let diag2 = self.rules.w_spacer().squared() * 2;
        if diag2 < self.rules.d_core().squared() {
            core.close(1);
        }
        core
    }

    /// Step 6's overlay half: every unprotected boundary run, with the
    /// side/tip totals and the hard-overlay count (the failure counts are
    /// left zero for [`CutSimulator::failures`]).
    fn measure(&self, masks: &Masks, owner: &[u32]) -> DecompReport {
        let (target, cut) = (&masks.target, &masks.cut);
        let width = target.width();
        let wline = self.w_line_px();
        let pitch = self.pitch_px() as i64;
        let mut report = DecompReport {
            w_line_px: wline,
            ..DecompReport::default()
        };

        // Unprotected boundary edges, grouped into runs per
        // (pattern, direction, boundary line). A target pixel's boundary
        // edge toward a neighbour is unprotected iff that neighbour is
        // cut (cut excludes target and spacer, and is unset off-canvas).
        // key: (pattern, dir 0..4, line coordinate) -> positions
        let mut edges: BTreeMap<(u32, u8, i64), Vec<(i64, bool)>> = BTreeMap::new();
        let dirs: [(i64, i64); 4] = [(1, 0), (-1, 0), (0, 1), (0, -1)];
        let mut exposed = self.take_copy(target);
        for (di, &(dx, dy)) in dirs.iter().enumerate() {
            exposed.clone_from(target);
            exposed.and_shifted(cut, -dx, -dy);
            for (x, y) in exposed.ones() {
                let own = owner[y * width + x];
                let (x, y) = (x as i64, y as i64);
                let is_side = self.edge_is_side(masks, own, x, y, dx, dy, pitch);
                let (line, pos) = if dx != 0 { (x, y) } else { (y, x) };
                edges
                    .entry((own, di as u8, line))
                    .or_default()
                    .push((pos, is_side));
            }
        }
        self.give([exposed]);

        for ((own, _dir, _line), mut positions) in edges {
            positions.sort_unstable();
            let mut i = 0;
            while i < positions.len() {
                let mut j = i;
                while j + 1 < positions.len()
                    && positions[j + 1].0 == positions[j].0 + 1
                    && positions[j + 1].1 == positions[i].1
                {
                    j += 1;
                }
                let len = j - i + 1;
                let is_side = positions[i].1;
                report.runs.push(OverlayRun {
                    pattern: own as usize - 1,
                    len_px: len,
                    is_side,
                });
                if is_side {
                    report.side_overlay_px += len;
                    if len > wline {
                        report.hard_overlay_runs += 1;
                    }
                } else {
                    report.tip_overlay_px += len;
                }
                i = j + 1;
            }
        }

        report
    }

    /// Classifies a boundary edge as side (normal perpendicular to the wire
    /// axis) or tip (normal along the axis). Corner cells belonging to two
    /// fragments classify as side if any containing fragment does.
    #[allow(clippy::too_many_arguments)]
    fn edge_is_side(
        &self,
        masks: &Masks,
        owner: u32,
        x: i64,
        y: i64,
        dx: i64,
        dy: i64,
        pitch: i64,
    ) -> bool {
        if owner == 0 {
            return true;
        }
        // Pixel -> cell (target pixels only exist in the w_line band of a
        // cell, so flooring by the pitch is exact). The pattern was painted
        // relative to the canvas origin, which offsets whole cells only.
        let cx = (x / pitch) as i32 + masks.origin.0;
        let cy = (y / pitch) as i32 + masks.origin.1;
        let mut any_side = false;
        let mut any_rect = false;
        for r in masks.input.rects(owner as usize - 1) {
            if r.contains_cell(cx, cy) {
                any_rect = true;
                let side = match r.orientation() {
                    Orientation::Horizontal => dy != 0,
                    Orientation::Vertical => dx != 0,
                    Orientation::Point => false,
                };
                any_side |= side;
            }
        }
        // Unknown cells (shouldn't happen) count as side, conservatively.
        if !any_rect {
            return true;
        }
        any_side
    }

    /// Counts type-B cut conflicts: a target run of width < d_cut flanked
    /// by cut pixels on both sides (two parallel cut-defined boundary
    /// sections over one pattern). Contiguous conflicting positions count
    /// once. Also returns the union of the marked runs so callers can
    /// locate the conflicts.
    fn count_type_b(&self, target: &Bitmap, cut: &Bitmap) -> (usize, Bitmap) {
        let d_cut = self.d_cut_px();
        let (width, height) = (target.width(), target.height());
        let mut marked = self.take(width, height);
        let mut runs = self.take(width, height);
        let mut rows = self.take_rows();
        let mut n = 0;
        for axis in [Axis::X, Axis::Y] {
            bounded_runs(&mut runs, target, cut, d_cut, axis, &mut rows);
            marked.or_assign(&runs);
            // Counting drains `runs`, so the next axis starts empty.
            n += runs.drain_components() as usize;
        }
        self.give([runs]);
        self.give_rows(rows);
        (n, marked)
    }
}

/// Adds to `marked` the pixels of every run of fewer than `max_len`
/// consecutive `inner` pixels along `axis` that has an `ends` pixel on
/// both sides, inside the canvas. `inner` and `ends` must be disjoint, so
/// each such run is a maximal run of `inner`. One row-stencil sweep
/// ([`Bitmap::row_stencil`]); `rows` is its scratch.
fn bounded_runs(
    marked: &mut Bitmap,
    inner: &Bitmap,
    ends: &Bitmap,
    max_len: usize,
    axis: Axis,
    rows: &mut Vec<u64>,
) {
    if max_len < 2 {
        return;
    }
    let reach = max_len - 1;
    marked.row_stencil(inner, ends, reach, axis, rows, |out, inner, ends, run| {
        // Row `reach + t` of `inner`/`ends` holds the pixels `t` steps
        // along the axis. A pixel lies on the run from offset `1 - first`
        // to `last - reach` when `first ≥ 1` and `last ≥ reach`.
        fn row(rows: &[u64], i: usize, stride: usize) -> &[u64] {
            &rows[i * stride..(i + 1) * stride]
        }
        let stride = out.len();
        for first in 1..=reach {
            run.copy_from_slice(row(ends, reach - first, stride));
            for last in reach + 1 - first..=2 * reach - first {
                for (r, &w) in run.iter_mut().zip(row(inner, last, stride)) {
                    *r &= w;
                }
                if last >= reach {
                    let after = row(ends, last + 1, stride);
                    for ((o, &r), &e) in out.iter_mut().zip(&*run).zip(after) {
                        *o |= r & e;
                    }
                }
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use sadp_geom::TrackRect;

    fn sim() -> CutSimulator {
        CutSimulator::new(DesignRules::node_10nm())
    }

    fn wire(net: u32, color: Color, r: TrackRect) -> ColoredPattern {
        ColoredPattern::new(net, color, vec![r])
    }

    #[test]
    fn isolated_core_pattern_is_clean() {
        let d = sim().run(&[wire(0, Color::Core, TrackRect::new(2, 2, 8, 2))]);
        assert!(d.report.is_clean());
        assert_eq!(d.report.side_overlay_px, 0);
        assert_eq!(d.report.tip_overlay_px, 0);
        // The spacer fully wraps the core.
        assert!(d.spacer.count() > 0);
    }

    #[test]
    fn isolated_second_pattern_protected_by_assists() {
        let d = sim().run(&[wire(0, Color::Second, TrackRect::new(2, 2, 8, 2))]);
        assert!(d.report.is_clean(), "report: {:?}", d.report);
        assert_eq!(d.report.side_overlay_px, 0);
        // Assists exist on the core mask even though no pattern is core.
        assert!(d.core.count() > 0);
    }

    #[test]
    fn type_1a_same_color_is_hard() {
        // Side-by-side wires on adjacent tracks, both core: they merge and
        // the separating cut defines long side overlays on both.
        let d = sim().run(&[
            wire(0, Color::Core, TrackRect::new(0, 0, 6, 0)),
            wire(1, Color::Core, TrackRect::new(0, 1, 6, 1)),
        ]);
        assert!(d.report.hard_overlay_runs >= 2, "report: {:?}", d.report);
        assert!(d.report.side_overlay_px > 0);
    }

    #[test]
    fn type_1a_different_colors_is_clean() {
        let d = sim().run(&[
            wire(0, Color::Core, TrackRect::new(0, 0, 6, 0)),
            wire(1, Color::Second, TrackRect::new(0, 1, 6, 1)),
        ]);
        assert_eq!(d.report.side_overlay_px, 0, "report: {:?}", d.report);
        assert!(d.report.is_clean());
    }

    #[test]
    fn type_1b_same_color_merges_via_cut() {
        // Tip-to-tip, both core: merged core separated by one cut; only tip
        // overlays appear, no side overlay.
        let d = sim().run(&[
            wire(0, Color::Core, TrackRect::new(0, 0, 4, 0)),
            wire(1, Color::Core, TrackRect::new(5, 0, 9, 0)),
        ]);
        assert_eq!(d.report.side_overlay_px, 0, "report: {:?}", d.report);
        assert!(d.report.tip_overlay_px > 0);
        assert_eq!(d.report.cut_conflicts, 0);
        assert_eq!(d.report.hard_overlay_runs, 0);
    }

    #[test]
    fn type_2b_core_core_gives_one_unit() {
        // Tip-to-side, both core: the tip merges into the side pattern and
        // the separating cut leaves a w_line-long (friendly) side overlay.
        let d = sim().run(&[
            wire(0, Color::Core, TrackRect::new(0, 0, 6, 0)),
            wire(1, Color::Core, TrackRect::new(3, 1, 3, 5)),
        ]);
        assert_eq!(d.report.hard_overlay_runs, 0, "report: {:?}", d.report);
        assert_eq!(d.report.side_overlay_units(), 1);
    }

    #[test]
    fn spacer_never_overlaps_targets_in_legal_layouts() {
        let d = sim().run(&[
            wire(0, Color::Core, TrackRect::new(0, 0, 6, 0)),
            wire(1, Color::Second, TrackRect::new(0, 2, 6, 2)),
            wire(2, Color::Core, TrackRect::new(0, 4, 6, 4)),
        ]);
        assert_eq!(d.report.spacer_violations, 0);
    }

    #[test]
    fn runs_are_deterministic_and_pattern_ordered() {
        // Core wires on adjacent tracks merge, so cuts define both long
        // sides of every inner wire: many (pattern, dir, line) groups,
        // whose order used to follow a randomly seeded hash map.
        let pats: Vec<ColoredPattern> = (0..24)
            .map(|i| wire(i, Color::Core, TrackRect::new(0, i as i32, 5, i as i32)))
            .collect();
        let a = sim().run(&pats);
        let b = sim().run(&pats);
        // One cut-defined side run on each face of the 23 merged pairs.
        assert_eq!(a.report.runs.len(), 2 * 23);
        assert_eq!(a.report.runs, b.report.runs);
        assert!(a
            .report
            .runs
            .windows(2)
            .all(|w| w[0].pattern <= w[1].pattern));
    }

    #[test]
    fn owners_do_not_wrap_past_u16() {
        // 65,537 one-cell patterns: indices past u16::MAX must keep their
        // own owner ids instead of wrapping onto "no pattern" or pattern 0.
        let n = 65_537usize;
        let pats: Vec<ColoredPattern> = (0..n)
            .map(|i| {
                let cell = TrackRect::cell((i % 257) as i32, (i / 257) as i32);
                wire(i as u32, Color::Core, cell)
            })
            .collect();
        let d = sim().run(&pats);
        assert!(d.report.runs.iter().all(|r| r.pattern < n));
        assert!(d.report.runs.iter().any(|r| r.pattern == n - 1));
        let last = pats[n - 1].rects[0];
        let pitch = d.pitch_px as i64;
        let x = i64::from(last.x0 - d.origin.0) * pitch;
        let y = i64::from(last.y0 - d.origin.1) * pitch;
        assert!(d.target.get(x, y));
        assert_eq!(
            d.owner[y as usize * d.target.width() + x as usize],
            n as u32
        );
    }

    #[test]
    #[should_panic(expected = "nothing to decompose")]
    fn empty_input_panics() {
        let _ = sim().run(&[]);
    }
}

#[cfg(test)]
mod bridge_tests {
    use super::*;
    use sadp_geom::TrackRect;

    #[test]
    fn same_net_islands_on_abutting_tracks_merge_cleanly() {
        // Two fragments of one net connected on another layer: one track
        // apart on this layer. Bridging makes them a single polygon; no
        // cut (and no type-B conflict) between them.
        let sim = CutSimulator::new(DesignRules::node_10nm());
        let pats = vec![ColoredPattern::new(
            0,
            Color::Core,
            vec![TrackRect::new(0, 0, 8, 0), TrackRect::new(4, 1, 4, 1)],
        )];
        let d = sim.run(&pats);
        assert_eq!(d.report.cut_conflicts, 0, "{:?}", d.report);
        assert_eq!(d.report.side_overlay_px, 0);
        assert_eq!(d.report.spacer_violations, 0);
    }

    #[test]
    fn core_pad_flanked_by_second_wires_conflicts() {
        // Fuzz-found (sparse-pairs seed 1, shrunk): a core via landing pad
        // with second wires two tracks away on BOTH sides. Each wire's
        // assist strip merges into the pad's spacer zone, leaving the pad
        // bounded by cut-defined edges within d_cut — a type-A conflict.
        // Either pairwise combination alone is clean, which is why the
        // point-tip 2-d table must carry the cut risk (see
        // sadp_scenario::classify).
        let sim = CutSimulator::new(DesignRules::node_10nm());
        let flanked = |pad: Color| {
            sim.run(&[
                ColoredPattern::new(0, Color::Second, vec![TrackRect::new(0, 0, 0, 8)]),
                ColoredPattern::new(1, pad, vec![TrackRect::cell(2, 4)]),
                ColoredPattern::new(2, Color::Second, vec![TrackRect::new(4, 0, 4, 8)]),
            ])
        };
        assert!(
            flanked(Color::Core).report.cut_conflicts >= 1,
            "core pad between two second wires must conflict"
        );
        assert_eq!(flanked(Color::Second).report.cut_conflicts, 0);
        // Pairwise (single flanking wire) is clean for every assignment.
        for pad in [Color::Core, Color::Second] {
            for w in [Color::Core, Color::Second] {
                let d = sim.run(&[
                    ColoredPattern::new(0, pad, vec![TrackRect::cell(2, 4)]),
                    ColoredPattern::new(1, w, vec![TrackRect::new(4, 0, 4, 8)]),
                ]);
                assert_eq!(d.report.cut_conflicts, 0, "pad={pad:?} wire={w:?}");
            }
        }
    }

    #[test]
    fn different_net_neighbours_are_untouched_by_bridging() {
        let sim = CutSimulator::new(DesignRules::node_10nm());
        let pats = vec![
            ColoredPattern::new(0, Color::Core, vec![TrackRect::new(0, 0, 8, 0)]),
            ColoredPattern::new(1, Color::Second, vec![TrackRect::new(0, 1, 8, 1)]),
        ];
        let d = sim.run(&pats);
        // The 1-a CS pair still decomposes by spacer protection; no bridge
        // crossed the net boundary.
        assert_eq!(d.report.side_overlay_px, 0);
    }
}

/// The word-parallel kernels against their per-pixel definitions on
/// arbitrary bitmaps, including the odd gap and run lengths that
/// track-aligned layouts never produce.
#[cfg(test)]
mod kernel_tests {
    use super::*;
    use sadp_geom::Rng;

    /// Per pixel: fill each row and column gap of `< d` unset pixels
    /// that has set pixels on both ends, reading only `snapshot`.
    fn gap_fill_reference(snapshot: &Bitmap, d: i64) -> Bitmap {
        let (w, h) = (snapshot.width() as i64, snapshot.height() as i64);
        let mut out = snapshot.clone();
        for (dx, dy) in [(1i64, 0i64), (0, 1)] {
            for y in 0..h {
                for x in 0..w {
                    if snapshot.get(x, y) || !snapshot.get(x - dx, y - dy) {
                        continue;
                    }
                    let mut len = 1;
                    while x + len * dx < w
                        && y + len * dy < h
                        && !snapshot.get(x + len * dx, y + len * dy)
                    {
                        len += 1;
                    }
                    if len < d && snapshot.get(x + len * dx, y + len * dy) {
                        for j in 0..len {
                            out.set(x + j * dx, y + j * dy, true);
                        }
                    }
                }
            }
        }
        out
    }

    /// Per pixel: mark maximal target runs shorter than `d` with cut on
    /// both ends, rows and columns separately.
    fn type_b_reference(target: &Bitmap, cut: &Bitmap, d: i64) -> (Bitmap, Bitmap) {
        let (w, h) = (target.width() as i64, target.height() as i64);
        let mut marks = [
            Bitmap::new(w as usize, h as usize),
            Bitmap::new(w as usize, h as usize),
        ];
        for (k, (dx, dy)) in [(1i64, 0i64), (0, 1)].into_iter().enumerate() {
            for y in 0..h {
                for x in 0..w {
                    if !target.get(x, y) || target.get(x - dx, y - dy) {
                        continue;
                    }
                    let mut len = 1;
                    while target.get(x + len * dx, y + len * dy) {
                        len += 1;
                    }
                    if len < d && cut.get(x - dx, y - dy) && cut.get(x + len * dx, y + len * dy) {
                        for j in 0..len {
                            marks[k].set(x + j * dx, y + j * dy, true);
                        }
                    }
                }
            }
        }
        let [mh, mv] = marks;
        (mh, mv)
    }

    fn noise(rng: &mut Rng, w: usize, h: usize, density: u64) -> Bitmap {
        let mut b = Bitmap::new(w, h);
        for y in 0..h as i64 {
            for x in 0..w as i64 {
                b.set(x, y, rng.bounded(100) < density);
            }
        }
        b
    }

    #[test]
    fn kernels_match_per_pixel_definitions() {
        let mut rng = Rng::seed_from_u64(0x6e);
        for rules in [DesignRules::node_10nm(), DesignRules::node_14nm()] {
            let sim = CutSimulator::new(rules);
            let (d_core, d_cut) = (sim.d_core_px() as i64, sim.d_cut_px() as i64);
            for _ in 0..60 {
                let (w, h) = (1 + rng.index(140), 1 + rng.index(24));
                let density = 10 + rng.bounded(60);
                let core = noise(&mut rng, w, h, density);
                let mut expect = gap_fill_reference(&gap_fill_reference(&core, d_core), d_core);
                if rules.w_spacer().squared() * 2 < rules.d_core().squared() {
                    expect = expect.closed(1);
                }
                assert_eq!(sim.merge_cores(core.clone()), expect, "merge {w}x{h}");

                let target = noise(&mut rng, w, h, 50);
                let cut = noise(&mut rng, w, h, 70).minus(&target);
                let (mh, mv) = type_b_reference(&target, &cut, d_cut);
                let (n, marked) = sim.count_type_b(&target, &cut);
                assert_eq!(marked, mh.union(&mv), "type-B marks {w}x{h}");
                let expect_n = mh.components().1 + mv.components().1;
                assert_eq!(n, expect_n as usize, "type-B count {w}x{h}");
            }
        }
    }
}
