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
            last: 0,
            len: 0,
        }
    }

    /// Removes all entries but keeps the allocated bucket storage, so a
    /// queue can be reused across nets without churning the allocator.
    pub fn clear(&mut self) {
        for b in &mut self.buckets {
            b.clear();
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
        let b = self.bucket_of(f);
        self.buckets[b].push((f, g, cell));
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
            // Find the first non-empty bucket, advance `last` to its
            // minimum key, and redistribute it into lower buckets.
            let b = self.buckets.iter().position(|v| !v.is_empty())?;
            let moved = std::mem::take(&mut self.buckets[b]);
            self.last = moved.iter().map(|e| e.0).min().expect("bucket non-empty");
            for e in moved {
                let nb = self.bucket_of(e.0);
                debug_assert!(nb < b || (nb == 0 && b == 0));
                self.buckets[nb].push(e);
            }
        }
        self.len -= 1;
        self.buckets[0].pop()
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
