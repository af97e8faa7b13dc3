//! A dense boolean pixel grid with the morphological operations the
//! decomposition simulator is built on.
//!
//! Rows are stored as packed `u64` words, pixel `x` of a row at bit
//! `x % 64` of word `x / 64`, so every operation below works on 64
//! pixels at a time. Every row ends in one extra *guard* word. Three
//! invariants hold after every public operation:
//!
//! * the padding bits past `width` in each row's last canvas word are
//!   zero, so `count`, equality and the set operations see only canvas
//!   pixels;
//! * every guard word is zero, so the words read as one flat stream in
//!   which at least 64 unset pixels separate the end of one row from the
//!   start of the next: shifting a mask by `(dx, dy)` with `|dx| ≤ 64` is
//!   one offset of `dy` rows into that stream plus a funnel shift between
//!   neighbouring words, with no per-row bounds;
//! * every result equals the per-pixel definition in the method's doc
//!   (the out-of-canvas neighbourhood reads as unset, except where
//!   [`Bitmap::eroded`] says otherwise).

use std::fmt;

/// A row-major boolean pixel grid.
///
/// # Example
///
/// ```
/// use sadp_decomp::Bitmap;
/// let mut b = Bitmap::new(8, 8);
/// b.fill_rect(2, 2, 3, 3);
/// assert_eq!(b.count(), 4);
/// let d = b.dilated(1);
/// assert!(d.get(1, 1) && d.get(4, 4) && !d.get(5, 5));
/// ```
#[derive(Debug, PartialEq, Eq)]
pub struct Bitmap {
    width: usize,
    height: usize,
    /// Words per row: `width.div_ceil(64)` canvas words and the guard.
    stride: usize,
    words: Vec<u64>,
}

/// A clone reuses the destination's allocation in `clone_from`, which is
/// how the simulator copies one of its masks into another.
impl Clone for Bitmap {
    fn clone(&self) -> Bitmap {
        Bitmap {
            words: self.words.clone(),
            ..*self
        }
    }

    fn clone_from(&mut self, source: &Bitmap) {
        (self.width, self.height, self.stride) = (source.width, source.height, source.stride);
        self.words.clone_from(&source.words);
    }
}

/// `dst[k] = op(dst[k], src[k] shifted dx pixels)`, `src` read as one
/// stream of bits with zero words before and after it, `|dx| ≤ 64`.
fn zip_stream(dst: &mut [u64], src: &[u64], dx: i64, op: impl Fn(u64, u64) -> u64) {
    debug_assert_eq!(dst.len(), src.len());
    let n = src.len();
    if n == 0 {
        return;
    }
    // A word's own bits move `s` places and its neighbour's `64 - s`; a
    // shift by 64 places leaves nothing.
    let s = dx.unsigned_abs() as u32;
    let own = |w: u64| {
        let moved = if dx > 0 {
            w.checked_shl(s)
        } else {
            w.checked_shr(s)
        };
        moved.unwrap_or(0)
    };
    // The end word reads one zero neighbour; the body reads pairs of
    // neighbouring words in one flat slice loop.
    if dx > 0 {
        dst[0] = op(dst[0], own(src[0]));
        for ((d, &cur), &prev) in dst[1..].iter_mut().zip(&src[1..]).zip(src) {
            *d = op(*d, own(cur) | prev >> (64 - s));
        }
    } else if dx < 0 {
        for ((d, &cur), &next) in dst.iter_mut().zip(src).zip(&src[1..]) {
            *d = op(*d, own(cur) | next << (64 - s));
        }
        dst[n - 1] = op(dst[n - 1], own(src[n - 1]));
    } else {
        for (d, &w) in dst.iter_mut().zip(src) {
            *d = op(*d, w);
        }
    }
}

/// The axis a [`Bitmap::row_stencil`] reads along.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Axis {
    X,
    Y,
}

/// The set bits of one word, as `base + bit index`, ascending.
fn word_bits(mut w: u64, base: usize) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (w != 0).then(|| {
            let b = w.trailing_zeros() as usize;
            w &= w - 1;
            base + b
        })
    })
}

impl Bitmap {
    /// Creates an all-false bitmap.
    #[must_use]
    pub fn new(width: usize, height: usize) -> Bitmap {
        let stride = width.div_ceil(64) + 1;
        Bitmap {
            width,
            height,
            stride,
            words: vec![0; stride * height],
        }
    }

    /// Makes this an all-false `width × height` bitmap, reusing its
    /// allocation.
    pub(crate) fn reset(&mut self, width: usize, height: usize) {
        self.width = width;
        self.height = height;
        self.stride = width.div_ceil(64) + 1;
        self.words.clear();
        self.words.resize(self.stride * height, 0);
    }

    /// Width in pixels.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Height in pixels.
    #[must_use]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Word index and bit mask of an in-bounds pixel.
    fn bit(&self, x: usize, y: usize) -> (usize, u64) {
        (y * self.stride + x / 64, 1 << (x % 64))
    }

    fn in_bounds(&self, x: i64, y: i64) -> bool {
        x >= 0 && y >= 0 && x < self.width as i64 && y < self.height as i64
    }

    /// The pixel at `(x, y)`; out-of-bounds reads are `false`.
    #[must_use]
    pub fn get(&self, x: i64, y: i64) -> bool {
        if !self.in_bounds(x, y) {
            return false;
        }
        let (i, m) = self.bit(x as usize, y as usize);
        self.words[i] & m != 0
    }

    /// Sets the pixel at `(x, y)`; out-of-bounds writes are ignored.
    pub fn set(&mut self, x: i64, y: i64, value: bool) {
        if !self.in_bounds(x, y) {
            return;
        }
        let (i, m) = self.bit(x as usize, y as usize);
        if value {
            self.words[i] |= m;
        } else {
            self.words[i] &= !m;
        }
    }

    /// Clears an in-bounds pixel and returns whether it was set.
    fn take(&mut self, x: usize, y: usize) -> bool {
        let (i, m) = self.bit(x, y);
        let hit = self.words[i] & m != 0;
        self.words[i] &= !m;
        hit
    }

    /// Sets the inclusive pixel rectangle `[x0..=x1] × [y0..=y1]` to true,
    /// clipped to the bitmap.
    pub fn fill_rect(&mut self, x0: i64, y0: i64, x1: i64, y1: i64) {
        let xa = x0.max(0) as usize;
        let ya = y0.max(0) as usize;
        let xb = (x1.min(self.width as i64 - 1)).max(-1);
        let yb = (y1.min(self.height as i64 - 1)).max(-1);
        if xb < xa as i64 || yb < ya as i64 {
            return;
        }
        let (xb, yb) = (xb as usize, yb as usize);
        for i in xa / 64..=xb / 64 {
            let lo = if i == xa / 64 { xa % 64 } else { 0 };
            let hi = if i == xb / 64 { xb % 64 } else { 63 };
            let mask = (u64::MAX >> (63 - hi)) & (u64::MAX << lo);
            for w in self.words[ya * self.stride + i..=yb * self.stride + i]
                .iter_mut()
                .step_by(self.stride)
            {
                *w |= mask;
            }
        }
    }

    /// Number of set pixels.
    #[must_use]
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether no pixel is set.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// The set pixels as `(x, y)`, in row-major order.
    pub(crate) fn ones(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.words.iter().enumerate().flat_map(move |(i, &w)| {
            let y = i / self.stride;
            word_bits(w, i % self.stride * 64).map(move |x| (x, y))
        })
    }

    /// Zeroes every guard word and the bits past `width` in every row's
    /// last canvas word.
    fn clear_edges(&mut self) {
        let stride = self.stride;
        let mask = match self.width % 64 {
            0 => u64::MAX,
            w => (1u64 << w) - 1,
        };
        for row in self.words.chunks_exact_mut(stride) {
            row[stride - 1] = 0;
            if stride > 1 {
                row[stride - 2] &= mask;
            }
        }
    }

    /// `self(x, y) = op(self(x, y), other(x - dx, y - dy))` for every
    /// pixel, with `other` unset outside its canvas; `|dx| ≤ 64`.
    ///
    /// Row `y - dy` of `other` starts `dy` strides before row `y` of
    /// `self`, so the rows both canvases hold are one slice of each, and
    /// the rows shifted in from outside read as unset. Bits shifted past
    /// either end of a row land in padding or guard bits, which are clear
    /// afterwards, and the bits shifted in from there are the zero
    /// padding and guard bits of `other`.
    fn zip_shifted(&mut self, other: &Bitmap, dx: i64, dy: i64, op: impl Fn(u64, u64) -> u64) {
        assert_eq!(
            (self.width, self.height),
            (other.width, other.height),
            "bitmap sizes must match"
        );
        assert!(
            dx.unsigned_abs() <= 64,
            "a shift of {dx} pixels spans words"
        );
        let len = self.words.len();
        let offset = usize::try_from(dy.unsigned_abs())
            .ok()
            .and_then(|rows| rows.checked_mul(self.stride))
            .map_or(len, |o| o.min(len));
        let (body, src, outside) = if dy >= 0 {
            let (outside, body) = self.words.split_at_mut(offset);
            (body, &other.words[..len - offset], outside)
        } else {
            let (body, outside) = self.words.split_at_mut(len - offset);
            (body, &other.words[offset..], outside)
        };
        for w in outside {
            *w = op(*w, 0);
        }
        zip_stream(body, src, dx, op);
        self.clear_edges();
    }

    /// `self(x, y) &= other(x - dx, y - dy)`, with `other` unset outside
    /// its canvas; `|dx| ≤ 64`.
    pub(crate) fn and_shifted(&mut self, other: &Bitmap, dx: i64, dy: i64) {
        self.zip_shifted(other, dx, dy, |a, b| a & b);
    }

    /// `self |= other`, pixel-wise.
    pub(crate) fn or_assign(&mut self, other: &Bitmap) {
        self.zip_shifted(other, 0, 0, |a, b| a | b);
    }

    /// `self &= !other`, pixel-wise.
    pub(crate) fn and_not_assign(&mut self, other: &Bitmap) {
        self.zip_shifted(other, 0, 0, |a, b| a & !b);
    }

    /// `self |= a & b` pixel-wise; returns the number of pixels of `a & b`.
    pub(crate) fn or_intersection(&mut self, a: &Bitmap, b: &Bitmap) -> usize {
        assert!(
            (self.width, self.height) == (a.width, a.height)
                && (a.width, a.height) == (b.width, b.height),
            "bitmap sizes must match"
        );
        let mut n = 0;
        for ((d, &x), &y) in self.words.iter_mut().zip(&a.words).zip(&b.words) {
            let both = x & y;
            n += both.count_ones() as usize;
            *d |= both;
        }
        n
    }

    /// Complements every canvas pixel in place.
    pub(crate) fn invert(&mut self) {
        for w in &mut self.words {
            *w = !*w;
        }
        self.clear_edges();
    }

    /// L∞ dilation along x by `r` pixels in place: toward higher x, then
    /// toward lower x, each by doubling (a step of `s` ORs in the mask
    /// shifted by `s`, growing the covered offsets `0..c` to `0..c + s`
    /// for `s ≤ c`). Each step is one flat sweep in which every word reads
    /// its neighbour's value from before the sweep.
    fn dilate_x(&mut self, r: usize) {
        for toward_higher in [true, false] {
            let mut covered = 1;
            while covered <= r {
                let s = covered.min(r + 1 - covered).min(63) as u32;
                if toward_higher {
                    let mut prev = 0;
                    for w in &mut self.words {
                        let cur = *w;
                        *w = cur | cur << s | prev >> (64 - s);
                        prev = cur;
                    }
                } else {
                    let mut next = 0;
                    for w in self.words.iter_mut().rev() {
                        let cur = *w;
                        *w = cur | cur >> s | next << (64 - s);
                        next = cur;
                    }
                }
                // Bits shifted into padding and guard words must not
                // reach the next row in the next step.
                self.clear_edges();
                covered += s as usize;
            }
        }
    }

    /// L∞ dilation along y by `r` pixels in place, in two sweeps: each
    /// row ORs the `r` rows above it bottom-up, while those still hold
    /// their old values, then the `r` rows below it top-down.
    fn dilate_y(&mut self, r: usize) {
        let (stride, height) = (self.stride, self.height);
        let or_into = |dst: &mut [u64], src: &[u64]| {
            for (d, &s) in dst.iter_mut().zip(src) {
                *d |= s;
            }
        };
        for y in (1..height).rev() {
            let (above, rest) = self.words.split_at_mut(y * stride);
            for t in 1..=r.min(y) {
                or_into(&mut rest[..stride], &above[(y - t) * stride..]);
            }
        }
        for y in 0..height.saturating_sub(1) {
            let (upto, below) = self.words.split_at_mut((y + 1) * stride);
            for t in 1..=r.min(height - 1 - y) {
                or_into(&mut upto[y * stride..], &below[(t - 1) * stride..]);
            }
        }
    }

    /// L∞ (square structuring element) dilation by `r` pixels in place,
    /// separably: `2 ⌈log2(r + 1)⌉` sweeps along x, then two along y. L∞
    /// dilation composes exactly on a box canvas.
    pub(crate) fn dilate(&mut self, r: usize) {
        // Shifts past the canvas contribute nothing.
        let rx = r.min(self.width);
        if rx > 0 {
            self.dilate_x(rx);
        }
        let ry = r.min(self.height);
        if ry > 0 {
            self.dilate_y(ry);
        }
    }

    /// One sweep of row stencils along `axis`: for every row, calls
    /// `f(out, a_near, b_near, tmp)` with `out` that row of `self` and
    /// `tmp` a row of scratch. `a_near` holds `2 reach + 1` rows, `reach < 64`:
    /// its row `reach + t` holds `a(x + t, y)` at pixel `x` along
    /// [`Axis::X`], or `a(x, y + t)` along [`Axis::Y`], unset outside the
    /// canvas; `b_near` likewise. `f` may only set bits of `a_near`'s row
    /// `reach`, the row of `a` itself: rows where that is empty are
    /// skipped. `rows` is scratch space for the rows that must be built.
    pub(crate) fn row_stencil(
        &mut self,
        a: &Bitmap,
        b: &Bitmap,
        reach: usize,
        axis: Axis,
        rows: &mut Vec<u64>,
        f: impl Fn(&mut [u64], &[u64], &[u64], &mut [u64]),
    ) {
        assert!(
            (self.width, self.height) == (a.width, a.height)
                && (a.width, a.height) == (b.width, b.height),
            "bitmap sizes must match"
        );
        assert!(reach < 64, "a stencil reaches {reach} pixels");
        let (stride, height, n) = (self.stride, self.height, 2 * reach + 1);
        rows.clear();
        rows.resize((2 * n + 1) * stride, 0);
        let (built, tmp) = rows.split_at_mut(2 * n * stride);
        let (a_built, b_built) = built.split_at_mut(n * stride);
        for y in 0..height {
            let row = y * stride..(y + 1) * stride;
            if a.words[row.clone()].iter().all(|&w| w == 0) {
                continue;
            }
            let out = &mut self.words[row.clone()];
            match axis {
                Axis::X => {
                    for (src, built) in [(a, &mut *a_built), (b, &mut *b_built)] {
                        for (dst, t) in built.chunks_exact_mut(stride).zip(-(reach as i64)..) {
                            zip_stream(dst, &src.words[row.clone()], -t, |_, w| w);
                        }
                    }
                    f(out, a_built, b_built, tmp);
                }
                Axis::Y if y >= reach && y + reach < height => {
                    let near = (y - reach) * stride..(y + reach + 1) * stride;
                    f(out, &a.words[near.clone()], &b.words[near], tmp);
                }
                Axis::Y => {
                    // Near the top or bottom edge: the rows past it read
                    // as unset.
                    for (src, built) in [(a, &mut *a_built), (b, &mut *b_built)] {
                        for (dst, t) in built.chunks_exact_mut(stride).zip(-(reach as i64)..) {
                            match usize::try_from(y as i64 + t).ok().filter(|&r| r < height) {
                                Some(r) => dst.copy_from_slice(&src.words[r * stride..][..stride]),
                                None => dst.fill(0),
                            }
                        }
                    }
                    f(out, a_built, b_built, tmp);
                }
            }
        }
    }

    /// [`Bitmap::closed`] in place.
    pub(crate) fn close(&mut self, r: usize) {
        self.dilate(r);
        self.invert();
        self.dilate(r);
        self.invert();
    }

    /// L∞ (square structuring element) dilation by `r` pixels.
    #[must_use]
    pub fn dilated(&self, r: usize) -> Bitmap {
        let mut out = self.clone();
        out.dilate(r);
        out
    }

    /// L∞ erosion by `r` pixels. Out-of-canvas pixels count as foreground,
    /// so regions touching the border do not erode from that direction and
    /// [`Bitmap::closed`] is extensive (never removes original pixels).
    #[must_use]
    pub fn eroded(&self, r: usize) -> Bitmap {
        // Erode = complement of dilation of the complement; the complement
        // is background outside the canvas, so borders are preserved.
        let mut out = self.clone();
        out.invert();
        out.dilate(r);
        out.invert();
        out
    }

    /// Morphological closing (dilation then erosion) by `r`: fills gaps of
    /// width ≤ `2r` between set regions.
    #[must_use]
    pub fn closed(&self, r: usize) -> Bitmap {
        let mut out = self.clone();
        out.close(r);
        out
    }

    /// Pixel-wise union.
    #[must_use]
    pub fn union(&self, other: &Bitmap) -> Bitmap {
        self.zip(other, |a, b| a | b)
    }

    /// Pixel-wise difference (`self AND NOT other`).
    #[must_use]
    pub fn minus(&self, other: &Bitmap) -> Bitmap {
        self.zip(other, |a, b| a & !b)
    }

    /// Pixel-wise intersection.
    #[must_use]
    pub fn intersect(&self, other: &Bitmap) -> Bitmap {
        self.zip(other, |a, b| a & b)
    }

    /// Pixel-wise complement (within the canvas).
    #[must_use]
    pub fn complement(&self) -> Bitmap {
        let mut out = self.clone();
        out.invert();
        out
    }

    fn zip(&self, other: &Bitmap, f: impl Fn(u64, u64) -> u64) -> Bitmap {
        let mut out = self.clone();
        out.zip_shifted(other, 0, 0, f);
        out
    }

    /// Labels 4-connected components; returns `(labels, count)` where
    /// unset pixels get label 0 and components are labelled `1..=count`
    /// in row-major order of their first pixel.
    #[must_use]
    pub fn components(&self) -> (Vec<u32>, u32) {
        let mut labels = vec![0u32; self.width * self.height];
        let width = self.width;
        let count = self
            .clone()
            .drain_flood(|x, y, label| labels[y * width + x] = label);
        (labels, count)
    }

    /// The number of 4-connected components; leaves the bitmap empty.
    pub(crate) fn drain_components(&mut self) -> u32 {
        self.drain_flood(|_, _, _| {})
    }

    /// Flood-fills every 4-connected component, starting each at its
    /// first pixel in row-major order, clearing each pixel it reaches and
    /// calling `visit(x, y, label)` once per set pixel. Returns the
    /// component count and leaves the bitmap empty.
    fn drain_flood(&mut self, mut visit: impl FnMut(usize, usize, u32)) -> u32 {
        let (width, height) = (self.width, self.height);
        let mut count = 0u32;
        let mut stack = Vec::new();
        for i in 0..self.words.len() {
            while self.words[i] != 0 {
                let x = i % self.stride * 64 + self.words[i].trailing_zeros() as usize;
                let y = i / self.stride;
                self.take(x, y);
                count += 1;
                visit(x, y, count);
                stack.push((x, y));
                while let Some((x, y)) = stack.pop() {
                    let mut reach = |nx: usize, ny: usize| {
                        if self.take(nx, ny) {
                            visit(nx, ny, count);
                            stack.push((nx, ny));
                        }
                    };
                    if x > 0 {
                        reach(x - 1, y);
                    }
                    if x + 1 < width {
                        reach(x + 1, y);
                    }
                    if y > 0 {
                        reach(x, y - 1);
                    }
                    if y + 1 < height {
                        reach(x, y + 1);
                    }
                }
            }
        }
        count
    }
}

impl fmt::Display for Bitmap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for y in (0..self.height as i64).rev() {
            for x in 0..self.width as i64 {
                write!(f, "{}", if self.get(x, y) { '#' } else { '.' })?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_and_bounds() {
        let mut b = Bitmap::new(4, 4);
        b.set(1, 2, true);
        assert!(b.get(1, 2));
        assert!(!b.get(0, 0));
        assert!(!b.get(-1, 0));
        assert!(!b.get(9, 9));
        b.set(-1, 0, true); // ignored
        assert_eq!(b.count(), 1);
    }

    #[test]
    fn fill_rect_clipped() {
        let mut b = Bitmap::new(4, 4);
        b.fill_rect(-2, -2, 1, 1);
        assert_eq!(b.count(), 4);
        b.fill_rect(3, 3, 10, 10);
        assert_eq!(b.count(), 5);
        let mut c = Bitmap::new(4, 4);
        c.fill_rect(5, 5, 6, 6); // fully outside
        assert!(c.is_empty());
    }

    #[test]
    fn dilation_and_erosion() {
        let mut b = Bitmap::new(9, 9);
        b.set(4, 4, true);
        let d = b.dilated(2);
        assert_eq!(d.count(), 25);
        assert!(d.get(2, 2) && d.get(6, 6));
        let e = d.eroded(2);
        assert_eq!(e, b);
    }

    #[test]
    fn erosion_treats_outside_as_foreground() {
        // A full canvas does not erode at all: out-of-canvas pixels count
        // as foreground so closing stays extensive.
        let mut b = Bitmap::new(4, 4);
        b.fill_rect(0, 0, 3, 3);
        assert_eq!(b.eroded(1), b);
        // An interior island erodes normally.
        let mut c = Bitmap::new(8, 8);
        c.fill_rect(2, 2, 5, 5);
        let e = c.eroded(1);
        assert_eq!(e.count(), 4);
        assert!(e.get(3, 3) && !e.get(2, 2));
    }

    #[test]
    fn closing_fills_small_gaps_only() {
        // Two vertical bars separated by a 2px gap close; a 3px gap does not.
        let mut b = Bitmap::new(16, 8);
        b.fill_rect(1, 0, 2, 7);
        b.fill_rect(5, 0, 6, 7); // gap 2 (columns 3,4)
        b.fill_rect(10, 0, 11, 7); // gap 3 from previous (columns 7,8,9)
        let c = b.closed(1);
        assert!(c.get(3, 4) && c.get(4, 4), "2px gap filled");
        assert!(!c.get(8, 4), "3px gap preserved");
        // Closing never shrinks the original.
        assert!(c.minus(&b).count() > 0 || c == b);
        assert!(b.minus(&c).is_empty());
    }

    #[test]
    fn set_ops() {
        let mut a = Bitmap::new(3, 1);
        a.set(0, 0, true);
        a.set(1, 0, true);
        let mut b = Bitmap::new(3, 1);
        b.set(1, 0, true);
        b.set(2, 0, true);
        assert_eq!(a.union(&b).count(), 3);
        assert_eq!(a.intersect(&b).count(), 1);
        assert_eq!(a.minus(&b).count(), 1);
        assert_eq!(a.complement().count(), 1);
    }

    #[test]
    fn components_labelling() {
        let mut b = Bitmap::new(8, 8);
        b.fill_rect(0, 0, 1, 1);
        b.fill_rect(4, 4, 6, 4);
        b.set(7, 7, true);
        let (labels, n) = b.components();
        assert_eq!(n, 3);
        assert_eq!(labels[0], labels[8 + 1]);
        assert_ne!(labels[0], labels[4 * 8 + 4]);
    }

    /// Every row's guard word and padding bits are clear.
    fn edges_clear(b: &Bitmap) -> bool {
        let pad = match b.width % 64 {
            0 => 0,
            w => u64::MAX << w,
        };
        b.words.chunks_exact(b.stride).all(|row| {
            let last = row.len().checked_sub(2).map_or(0, |i| row[i]);
            row[b.stride - 1] == 0 && last & pad == 0
        })
    }

    /// The flat shifts against their per-pixel definition, for every
    /// `|dx| ≤ 64` and every `|dy|` up to past the canvas, with `or`,
    /// `and` and `copy`, on widths around the word boundary: the guard
    /// word must keep every row's bits out of its neighbours.
    #[test]
    fn shifts_match_per_pixel_definition() {
        let mut rng = sadp_geom::Rng::seed_from_u64(0x5b1f);
        type Op = fn(u64, u64) -> u64;
        let ops: [(&str, Op); 3] = [
            ("or", |a, b| a | b),
            ("and", |a, b| a & b),
            ("copy", |_, b| b),
        ];
        for w in [1, 2, 63, 64, 65, 127, 128, 129] {
            let h = 1 + rng.index(4);
            let noise = |rng: &mut sadp_geom::Rng| {
                let mut b = Bitmap::new(w, h);
                for y in 0..h as i64 {
                    for x in 0..w as i64 {
                        b.set(x, y, rng.flip());
                    }
                }
                b
            };
            let (a, b) = (noise(&mut rng), noise(&mut rng));
            let reach = h as i64 + 1;
            for dx in -64..=64 {
                for dy in -reach..=reach {
                    for (name, op) in ops {
                        let mut got = a.clone();
                        got.zip_shifted(&b, dx, dy, op);
                        assert!(edges_clear(&got), "{name} ({dx}, {dy}) on {w}x{h}: edges");
                        for y in 0..h as i64 {
                            for x in 0..w as i64 {
                                let want =
                                    op(u64::from(a.get(x, y)), u64::from(b.get(x - dx, y - dy)));
                                assert_eq!(
                                    got.get(x, y),
                                    want == 1,
                                    "{name} ({dx}, {dy}) on {w}x{h} at ({x}, {y})"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn display_renders_grid() {
        let mut b = Bitmap::new(2, 2);
        b.set(0, 1, true);
        let s = b.to_string();
        assert_eq!(s, "#.\n..\n");
    }
}
