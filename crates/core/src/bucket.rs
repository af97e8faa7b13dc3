//! Monotone bucket queue (radix heap) for the A\* open list.
//!
//! The eq. (5) search cost is a sum of non-negative integer milli-unit
//! terms, so the keys popped from the open list are monotonically
//! non-decreasing. That lets us replace the `BinaryHeap` — whose `O(log
//! n)` push/pop and tuple comparisons dominated the per-node cost on
//! large circuits — with a radix heap: 65 buckets indexed by the highest
//! bit in which a key differs from the last popped key. Push and pop are
//! `O(1)` amortised (each entry is redistributed at most 64 times over
//! its lifetime, in practice once or twice).
//!
//! The monotonicity requirement is met because the heuristic used by the
//! search is consistent (every planar step costs at least
//! `min(alpha, wrong_way)`, every via at least `beta`, and the heuristic
//! is a lower bound built from those same per-step floors). As a
//! belt-and-braces guard, [`BucketQueue::push`] clamps keys below the
//! last popped key up to it — that keeps the structure valid even if a
//! caller supplies an inconsistent heuristic, at the cost of expanding
//! such nodes slightly out of order (A\* then behaves like the standard
//! re-expansion variant and still terminates with a valid route).

/// One open-list entry: `(f, g, cell)` where `cell` is the packed plane
/// index of the grid node.
type Entry = (u64, u64, u32);

/// Monotone priority queue keyed on the `f` cost.
#[derive(Debug)]
pub struct BucketQueue {
    /// `buckets[0]` holds keys equal to `last`; `buckets[b]` (b ≥ 1)
    /// holds keys whose highest differing bit from `last` is `b - 1`.
    buckets: Vec<Vec<Entry>>,
    /// Bit `b` is set exactly when `buckets[b]` is non-empty, so a pop
    /// finds the lowest non-empty bucket, and a clear the occupied ones,
    /// without scanning all 65.
    occupied: u128,
    /// Last key handed out by [`pop`](Self::pop); the floor for pushes.
    last: u64,
    len: usize,
}

impl Default for BucketQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl BucketQueue {
    pub fn new() -> Self {
        Self {
            buckets: (0..65).map(|_| Vec::new()).collect(),
            occupied: 0,
            last: 0,
            len: 0,
        }
    }

    /// Removes all entries but keeps the allocated bucket storage, so a
    /// queue can be reused across nets without churning the allocator.
    /// Touches only the occupied buckets.
    pub fn clear(&mut self) {
        while self.occupied != 0 {
            let b = self.occupied.trailing_zeros() as usize;
            self.buckets[b].clear();
            self.occupied &= self.occupied - 1;
        }
        self.last = 0;
        self.len = 0;
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn bucket_of(&self, key: u64) -> usize {
        if key == self.last {
            0
        } else {
            64 - (key ^ self.last).leading_zeros() as usize
        }
    }

    /// Pushes an entry. Keys below the last popped key are clamped up to
    /// it (see the module docs for why that is safe).
    pub fn push(&mut self, f: u64, g: u64, cell: u32) {
        debug_assert!(
            f >= self.last,
            "bucket queue key {f} below last popped {} (inconsistent heuristic?)",
            self.last
        );
        let f = f.max(self.last);
        self.put((f, g, cell));
        self.len += 1;
    }

    /// Pops an entry with the minimum `f`. Among equal-`f` entries the
    /// most recently pushed one comes out first, whatever the bucket
    /// layout: equal keys always share a bucket, a redistribution moves a
    /// bucket in push order into empty lower buckets, and pops take from
    /// the end of bucket 0. The search's routes depend on this order.
    pub fn pop(&mut self) -> Option<Entry> {
        if self.len == 0 {
            return None;
        }
        if self.buckets[0].is_empty() {
            // Take the lowest non-empty bucket, advance `last` to its
            // minimum key, and redistribute it into lower buckets. Its
            // storage goes back in place, empty, for later pushes.
            let b = self.occupied.trailing_zeros() as usize;
            let mut moved = std::mem::take(&mut self.buckets[b]);
            self.occupied &= !(1 << b);
            self.last = moved.iter().map(|e| e.0).min().expect("bucket non-empty");
            for e in moved.drain(..) {
                debug_assert!(self.bucket_of(e.0) < b);
                self.put(e);
            }
            self.buckets[b] = moved;
        }
        self.len -= 1;
        let bucket = &mut self.buckets[0];
        let e = bucket.pop();
        if bucket.is_empty() {
            self.occupied &= !1;
        }
        e
    }

    /// Files `e` in its bucket against the current floor.
    #[inline]
    fn put(&mut self, e: Entry) {
        let b = self.bucket_of(e.0);
        self.buckets[b].push(e);
        self.occupied |= 1 << b;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_nondecreasing_key_order() {
        let mut q = BucketQueue::new();
        let keys = [5u64, 1, 9, 3, 3, 1 << 40, 7, 0, 2, 1 << 20];
        for (i, &k) in keys.iter().enumerate() {
            q.push(k, 0, i as u32);
        }
        let mut popped = Vec::new();
        while let Some((f, _, _)) = q.pop() {
            popped.push(f);
        }
        let mut sorted = keys.to_vec();
        sorted.sort_unstable();
        assert_eq!(popped, sorted);
    }

    #[test]
    fn interleaved_push_pop_stays_monotone() {
        // Simulates a consistent-heuristic search: every push is >= the
        // last popped key.
        let mut q = BucketQueue::new();
        q.push(10, 0, 0);
        let mut last = 0;
        let mut seeded = 1u64;
        for _ in 0..1000 {
            let (f, _, _) = q.pop().unwrap();
            assert!(f >= last);
            last = f;
            // Deterministic pseudo-random offsets.
            seeded = seeded.wrapping_mul(6364136223846793005).wrapping_add(1);
            q.push(f + (seeded >> 59), 0, 1);
            seeded = seeded.wrapping_mul(6364136223846793005).wrapping_add(1);
            q.push(f + (seeded >> 57), 0, 2);
        }
    }

    #[test]
    fn equal_keys_pop_last_pushed_first() {
        let mut q = BucketQueue::new();
        // Three 4s and a 5 all land in one high bucket; the first pop
        // redistributes it, and the 4s still leave newest first.
        q.push(4, 1, 10);
        q.push(4, 9, 11);
        q.push(5, 0, 12);
        q.push(4, 0, 13);
        assert_eq!(q.pop(), Some((4, 0, 13)));
        // A 4 pushed after the redistribution is the newest of all.
        q.push(4, 5, 14);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|e| e.2).collect();
        assert_eq!(order, [14, 11, 10, 12]);

        // Equal keys pushed on either side of a pop that moved the floor
        // (9 lands in the same bucket against floor 0 and floor 2).
        let mut q = BucketQueue::new();
        q.push(2, 0, 1);
        q.push(9, 0, 2);
        assert_eq!(q.pop(), Some((2, 0, 1)));
        q.push(9, 7, 3);
        q.push(9, 0, 4);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|e| e.2).collect();
        assert_eq!(order, [4, 3, 2]);
    }

    #[test]
    fn clear_resets_for_reuse() {
        let mut q = BucketQueue::new();
        q.push(1 << 30, 0, 0);
        q.pop();
        q.clear();
        assert!(q.is_empty());
        // After clear the floor is back at 0.
        q.push(3, 0, 1);
        assert_eq!(q.pop(), Some((3, 0, 1)));
        assert_eq!(q.pop(), None);
    }

    /// Pops the reference model's next entry: least `f`, and among equal
    /// keys the newest push (highest sequence number).
    fn model_pop(model: &mut Vec<(u64, u64, Entry)>) -> Option<Entry> {
        let i = (0..model.len()).min_by_key(|&i| (model[i].0, u64::MAX - model[i].1))?;
        Some(model.swap_remove(i).2)
    }

    #[test]
    fn pop_order_matches_a_reference_model_across_clears() {
        let mut rng = sadp_geom::Rng::seed_from_u64(29);
        let mut q = BucketQueue::new();
        let (mut cleared_nonempty, mut popped) = (0, 0);
        for round in 0..400 {
            let mut model = Vec::new();
            let (mut floor, mut seq) = (0u64, 0u64);
            for _ in 0..rng.range_i32(1..200) {
                if model.is_empty() || rng.chance(0.55) {
                    // Monotone pushes: at or above the last pop, often
                    // equal to it, sometimes far above.
                    let f = floor
                        + match rng.bounded(4) {
                            0 => 0,
                            1 => rng.bounded(8),
                            2 => rng.bounded(1 << 12),
                            _ => rng.bounded(1 << 40),
                        };
                    let e = (f, rng.bounded(100), rng.bounded(1000) as u32);
                    q.push(e.0, e.1, e.2);
                    model.push((f, seq, e));
                    seq += 1;
                } else {
                    let want = model_pop(&mut model);
                    assert_eq!(q.pop(), want, "round {round}");
                    floor = want.expect("model non-empty").0;
                    popped += 1;
                }
                assert_eq!(q.len(), model.len());
            }
            // Drain every other round; otherwise clear with entries left.
            if round % 2 == 0 {
                while let Some(want) = model_pop(&mut model) {
                    assert_eq!(q.pop(), Some(want), "round {round} drain");
                }
                assert_eq!(q.pop(), None);
            } else {
                cleared_nonempty += usize::from(!q.is_empty());
            }
            q.clear();
            assert!(q.is_empty());
            assert_eq!(q.occupied, 0);
        }
        assert!(cleared_nonempty > 150 && popped > 5000);
    }

    #[test]
    fn clamps_below_floor_keys() {
        let mut q = BucketQueue::new();
        q.push(100, 0, 0);
        assert_eq!(q.pop().unwrap().0, 100);
        // Key below the floor: clamped to 100 rather than corrupting
        // bucket 0 ordering. (debug_assert fires in debug builds; this
        // test exercises the release-mode clamp path.)
        if cfg!(not(debug_assertions)) {
            q.push(40, 0, 1);
            assert_eq!(q.pop().unwrap().0, 100);
        }
    }
}
