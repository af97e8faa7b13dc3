//! A dense boolean pixel grid with the morphological operations the
//! decomposition simulator is built on.
//!
//! Rows are stored as packed `u64` words, pixel `x` of a row at bit
//! `x % 64` of word `x / 64`, so every operation below works on 64
//! pixels at a time. Two invariants hold after every public operation:
//!
//! * the padding bits past `width` in each row's last word are zero, so
//!   `count`, equality and the set operations see only canvas pixels;
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
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitmap {
    width: usize,
    height: usize,
    /// Words per row: `width.div_ceil(64)`.
    stride: usize,
    words: Vec<u64>,
}

/// Word `i` of `row` shifted by `dx` pixels (toward higher x when
/// `dx > 0`): bit `b` of the result is pixel `64 i + b - dx` of the row,
/// and pixels outside the row read as unset.
#[inline]
fn shifted_word(row: &[u64], i: usize, dx: i64) -> u64 {
    let at = |j: i64| {
        usize::try_from(j)
            .ok()
            .and_then(|j| row.get(j))
            .copied()
            .unwrap_or(0)
    };
    let (q, r) = (dx.div_euclid(64), dx.rem_euclid(64) as u32);
    let j = i as i64 - q;
    if r == 0 {
        at(j)
    } else {
        at(j) << r | at(j - 1) >> (64 - r)
    }
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
        let stride = width.div_ceil(64);
        Bitmap {
            width,
            height,
            stride,
            words: vec![0; stride * height],
        }
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
        let xb = xb as usize;
        for y in ya..=yb as usize {
            let row = &mut self.words[y * self.stride..(y + 1) * self.stride];
            for (i, w) in row.iter_mut().enumerate().take(xb / 64 + 1).skip(xa / 64) {
                let lo = if i == xa / 64 { xa % 64 } else { 0 };
                let hi = if i == xb / 64 { xb % 64 } else { 63 };
                *w |= (u64::MAX >> (63 - hi)) & (u64::MAX << lo);
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

    /// Zeroes the bits past `width` in every row's last word.
    fn clear_padding(&mut self) {
        if self.width.is_multiple_of(64) {
            return;
        }
        let mask = (1u64 << (self.width % 64)) - 1;
        for row in self.words.chunks_exact_mut(self.stride) {
            row[self.stride - 1] &= mask;
        }
    }

    /// `self(x, y) = op(self(x, y), other(x - dx, y - dy))` for every
    /// pixel, with `other` unset outside its canvas.
    fn zip_shifted(&mut self, other: &Bitmap, dx: i64, dy: i64, op: impl Fn(u64, u64) -> u64) {
        assert_eq!(
            (self.width, self.height),
            (other.width, other.height),
            "bitmap sizes must match"
        );
        if self.stride == 0 {
            return;
        }
        for (y, dst) in self.words.chunks_exact_mut(self.stride).enumerate() {
            let src = usize::try_from(y as i64 - dy)
                .ok()
                .filter(|&sy| sy < other.height)
                .map(|sy| &other.words[sy * other.stride..(sy + 1) * other.stride]);
            for (i, d) in dst.iter_mut().enumerate() {
                let w = src.map_or(0, |row| shifted_word(row, i, dx));
                *d = op(*d, w);
            }
        }
        self.clear_padding();
    }

    /// `self(x, y) |= other(x - dx, y - dy)`, with `other` unset outside
    /// its canvas.
    pub(crate) fn or_shifted(&mut self, other: &Bitmap, dx: i64, dy: i64) {
        self.zip_shifted(other, dx, dy, |a, b| a | b);
    }

    /// `self(x, y) &= other(x - dx, y - dy)`, with `other` unset outside
    /// its canvas.
    pub(crate) fn and_shifted(&mut self, other: &Bitmap, dx: i64, dy: i64) {
        self.zip_shifted(other, dx, dy, |a, b| a & b);
    }

    /// L∞ (square structuring element) dilation by `r` pixels, computed
    /// separably.
    #[must_use]
    pub fn dilated(&self, r: usize) -> Bitmap {
        // Shifts past the canvas contribute nothing.
        let mut rows = self.clone();
        for k in 1..=r.min(self.width) as i64 {
            rows.or_shifted(self, k, 0);
            rows.or_shifted(self, -k, 0);
        }
        let mut out = rows.clone();
        for k in 1..=r.min(self.height) as i64 {
            out.or_shifted(&rows, 0, k);
            out.or_shifted(&rows, 0, -k);
        }
        out
    }

    /// L∞ erosion by `r` pixels. Out-of-canvas pixels count as foreground,
    /// so regions touching the border do not erode from that direction and
    /// [`Bitmap::closed`] is extensive (never removes original pixels).
    #[must_use]
    pub fn eroded(&self, r: usize) -> Bitmap {
        // Erode = complement of dilation of the complement; the complement
        // is background outside the canvas, so borders are preserved.
        self.complement().dilated(r).complement()
    }

    /// Morphological closing (dilation then erosion) by `r`: fills gaps of
    /// width ≤ `2r` between set regions.
    #[must_use]
    pub fn closed(&self, r: usize) -> Bitmap {
        self.dilated(r).eroded(r)
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
        for w in &mut out.words {
            *w = !*w;
        }
        out.clear_padding();
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
        let count = self.flood(|x, y, label| labels[y * self.width + x] = label);
        (labels, count)
    }

    /// The number of 4-connected components.
    pub(crate) fn component_count(&self) -> u32 {
        self.flood(|_, _, _| {})
    }

    /// Flood-fills every 4-connected component, starting each at its
    /// first pixel in row-major order, and calls `visit(x, y, label)` once
    /// per set pixel. Returns the component count.
    fn flood(&self, mut visit: impl FnMut(usize, usize, u32)) -> u32 {
        let mut left = self.clone();
        let mut count = 0u32;
        let mut stack = Vec::new();
        for i in 0..left.words.len() {
            while left.words[i] != 0 {
                let x = i % self.stride * 64 + left.words[i].trailing_zeros() as usize;
                let y = i / self.stride;
                left.take(x, y);
                count += 1;
                visit(x, y, count);
                stack.push((x, y));
                while let Some((x, y)) = stack.pop() {
                    let mut reach = |nx: usize, ny: usize| {
                        if left.take(nx, ny) {
                            visit(nx, ny, count);
                            stack.push((nx, ny));
                        }
                    };
                    if x > 0 {
                        reach(x - 1, y);
                    }
                    if x + 1 < self.width {
                        reach(x + 1, y);
                    }
                    if y > 0 {
                        reach(x, y - 1);
                    }
                    if y + 1 < self.height {
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

    #[test]
    fn display_renders_grid() {
        let mut b = Bitmap::new(2, 2);
        b.set(0, 1, true);
        let s = b.to_string();
        assert_eq!(s, "#.\n..\n");
    }
}
