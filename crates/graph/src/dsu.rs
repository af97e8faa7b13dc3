//! Union–find with parities: constant-time hard-constraint odd-cycle
//! detection.
//!
//! Each element carries a parity relative to its component root. A hard
//! *different-color* edge (type 1-a) relates two elements with parity 1; a
//! hard *same-color* edge (type 1-b, the paper's dummy-vertex edge) relates
//! them with parity 0. A new hard edge whose endpoints are already in the
//! same component with an inconsistent parity closes an odd cycle of hard
//! constraint edges — exactly the infeasibility of Fig. 11(g).

use crate::state;
use std::fmt::Write as _;

/// A disjoint-set forest whose elements carry a color parity relative to
/// their root.
///
/// # Example
///
/// ```
/// use sadp_graph::ParityDsu;
/// let mut dsu = ParityDsu::new(4);
/// dsu.union(0, 1, true).unwrap();   // different colors
/// dsu.union(1, 2, true).unwrap();   // different colors
/// assert_eq!(dsu.relation(0, 2), Some(false)); // same color forced
/// // Closing the triangle with another "different" edge is an odd cycle.
/// assert!(dsu.union(0, 2, true).is_err());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ParityDsu {
    parent: Vec<u32>,
    rank: Vec<u8>,
    /// Parity of the element relative to its parent.
    parity: Vec<bool>,
    /// Undo log of committed unions: `(absorbed root, rank bump on the
    /// surviving root)`. `find` never mutates (union by rank without path
    /// compression), so rolling back the unions restores the forest
    /// exactly.
    log: Vec<(u32, bool)>,
}

/// Error returned when a union would close an odd cycle of hard edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OddCycle {
    /// One endpoint of the offending edge.
    pub a: u32,
    /// The other endpoint.
    pub b: u32,
}

impl std::fmt::Display for OddCycle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "hard-constraint odd cycle closed by edge ({}, {})",
            self.a, self.b
        )
    }
}

impl std::error::Error for OddCycle {}

impl ParityDsu {
    /// Creates a forest of `n` singleton elements.
    #[must_use]
    pub fn new(n: usize) -> ParityDsu {
        ParityDsu {
            parent: (0..n as u32).collect(),
            rank: vec![0; n],
            parity: vec![false; n],
            log: Vec::new(),
        }
    }

    /// Number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether the forest has no elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Grows the forest to hold at least `n` elements.
    pub fn grow(&mut self, n: usize) {
        let old = self.parent.len();
        if n > old {
            self.parent.extend(old as u32..n as u32);
            self.rank.resize(n, 0);
            self.parity.resize(n, false);
        }
    }

    /// Finds the root of `x` and the parity of `x` relative to it.
    ///
    /// Union-by-rank keeps trees `O(log n)` deep; `find` does not compress
    /// paths so that [`ParityDsu::rollback`] can undo unions exactly.
    pub fn find(&mut self, x: u32) -> (u32, bool) {
        self.find_ref(x)
    }

    /// Non-mutating find (see [`ParityDsu::find`]).
    pub fn find_ref(&self, x: u32) -> (u32, bool) {
        let mut cur = x;
        let mut par = false;
        loop {
            let p = self.parent[cur as usize];
            if p == cur {
                return (cur, par);
            }
            par ^= self.parity[cur as usize];
            cur = p;
        }
    }

    /// A checkpoint for [`ParityDsu::rollback`]: the number of committed
    /// unions so far.
    #[must_use]
    pub fn mark(&self) -> usize {
        self.log.len()
    }

    /// Rolls the forest back to a previous [`ParityDsu::mark`], undoing
    /// every union committed since.
    ///
    /// # Panics
    ///
    /// Panics if `mark` is newer than the current log.
    pub fn rollback(&mut self, mark: usize) {
        assert!(mark <= self.log.len(), "rollback into the future");
        while self.log.len() > mark {
            let (lo, rank_bumped) = self.log.pop().expect("len checked");
            let hi = self.parent[lo as usize];
            debug_assert_ne!(hi, lo, "log entry must be an absorbed root");
            self.parent[lo as usize] = lo;
            self.parity[lo as usize] = false;
            if rank_bumped {
                self.rank[hi as usize] -= 1;
            }
        }
    }

    /// The forced color relation between `a` and `b`, if they are hard
    /// connected: `Some(true)` = must differ, `Some(false)` = must match,
    /// `None` = unconstrained.
    pub fn relation(&mut self, a: u32, b: u32) -> Option<bool> {
        self.relation_ref(a, b)
    }

    /// Non-mutating relation query (see [`ParityDsu::relation`]).
    #[must_use]
    pub fn relation_ref(&self, a: u32, b: u32) -> Option<bool> {
        let (ra, pa) = self.find_ref(a);
        let (rb, pb) = self.find_ref(b);
        (ra == rb).then_some(pa ^ pb)
    }

    /// Detaches every element of `nodes` back into a singleton (parent =
    /// self, parity false, rank 0), so a caller can re-union the surviving
    /// edges of just one component instead of rebuilding the whole forest.
    ///
    /// The caller must pass a union-closed set: every element whose root
    /// path runs through a reset element must itself be reset (resetting a
    /// full component, as [`OverlayGraph::remove_net`] does, satisfies
    /// this). Marks taken before the call are invalidated — only roll back
    /// to marks taken afterwards.
    ///
    /// [`OverlayGraph::remove_net`]: crate::OverlayGraph::remove_net
    pub fn reset_nodes(&mut self, nodes: &[u32]) {
        for &x in nodes {
            self.parent[x as usize] = x;
            self.parity[x as usize] = false;
            self.rank[x as usize] = 0;
        }
        debug_assert!(
            (0..self.parent.len() as u32).all(|x| {
                let p = self.parent[x as usize];
                p == x || !nodes.contains(&p) || nodes.contains(&x)
            }),
            "reset set must be union-closed (a whole component)"
        );
    }

    /// Adds a hard edge between `a` and `b` with the given parity
    /// (`true` = different colors, `false` = same color).
    ///
    /// Returns `Ok(true)` if two components were merged, `Ok(false)` if the
    /// edge was already implied.
    ///
    /// # Errors
    ///
    /// Returns [`OddCycle`] if the edge contradicts the existing relation,
    /// i.e. closes an odd cycle of hard constraint edges. The forest is
    /// left unchanged in that case.
    pub fn union(&mut self, a: u32, b: u32, parity: bool) -> Result<bool, OddCycle> {
        let (ra, pa) = self.find(a);
        let (rb, pb) = self.find(b);
        if ra == rb {
            return if pa ^ pb == parity {
                Ok(false)
            } else {
                Err(OddCycle { a, b })
            };
        }
        // Union by rank; fix up the parity of the absorbed root so that
        // parity(a) ^ parity(b) == parity holds afterwards.
        let (hi, lo, plo) = if self.rank[ra as usize] >= self.rank[rb as usize] {
            (ra, rb, pa ^ pb ^ parity)
        } else {
            (rb, ra, pa ^ pb ^ parity)
        };
        self.parent[lo as usize] = hi;
        self.parity[lo as usize] = plo;
        let bump = self.rank[hi as usize] == self.rank[lo as usize];
        if bump {
            self.rank[hi as usize] += 1;
        }
        self.log.push((lo, bump));
        Ok(true)
    }

    /// Appends the forest as two text lines, `dsu` and `log`: every
    /// element that is not a rank-0 singleton as `x,parent,rank,parity`,
    /// then the undo log as `absorbed,bump` pairs. Together with
    /// [`ParityDsu::len`] this is the whole state, read back by
    /// [`ParityDsu::read_state`].
    pub fn write_state(&self, out: &mut String) {
        let moved: Vec<usize> = (0..self.parent.len())
            .filter(|&x| self.parent[x] != x as u32 || self.rank[x] != 0)
            .collect();
        let _ = write!(out, "dsu {}", moved.len());
        for x in moved {
            let _ = write!(
                out,
                " {x},{},{},{}",
                self.parent[x],
                self.rank[x],
                u8::from(self.parity[x])
            );
        }
        let _ = write!(out, "\nlog {}", self.log.len());
        for &(lo, bump) in &self.log {
            let _ = write!(out, " {lo},{}", u8::from(bump));
        }
        out.push('\n');
    }

    /// Rebuilds a forest of `len` elements from the `dsu` and `log`
    /// lines of [`ParityDsu::write_state`].
    ///
    /// # Errors
    ///
    /// A message naming the malformed token.
    pub fn read_state(len: usize, dsu: &str, log: &str) -> Result<ParityDsu, String> {
        let mut out = ParityDsu::new(len);
        for fields in state::record(dsu, "dsu", 4)? {
            let [x, parent, rank, parity] = fields[..] else {
                unreachable!("record checks the arity")
            };
            let x = state::index(x, len)?;
            out.parent[x] = state::index(parent, len)? as u32;
            out.rank[x] = state::num(rank)?;
            out.parity[x] = state::flag(parity)?;
        }
        // Union by rank makes every parent outrank its children, so a
        // forest read back with that order is acyclic and `find` ends.
        if (0..len).any(|x| {
            let p = out.parent[x] as usize;
            p != x && out.rank[p] <= out.rank[x]
        }) {
            return Err("dsu forest is not rank-ordered".into());
        }
        for fields in state::record(log, "log", 2)? {
            out.log.push((
                state::index(fields[0], len)? as u32,
                state::flag(fields[1])?,
            ));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singleton_relations() {
        let mut d = ParityDsu::new(3);
        assert_eq!(d.relation(0, 1), None);
        assert_eq!(d.relation(0, 0), Some(false));
    }

    #[test]
    fn chain_parity_propagates() {
        let mut d = ParityDsu::new(5);
        d.union(0, 1, true).unwrap();
        d.union(1, 2, false).unwrap();
        d.union(2, 3, true).unwrap();
        assert_eq!(d.relation(0, 2), Some(true));
        assert_eq!(d.relation(0, 3), Some(false));
        assert_eq!(d.relation(1, 3), Some(true));
        assert_eq!(d.relation(0, 4), None);
    }

    #[test]
    fn redundant_edge_is_ok() {
        let mut d = ParityDsu::new(3);
        d.union(0, 1, true).unwrap();
        assert_eq!(d.union(0, 1, true), Ok(false));
        assert!(d.union(0, 1, false).is_err());
    }

    #[test]
    fn odd_cycle_detected_and_state_preserved() {
        let mut d = ParityDsu::new(4);
        d.union(0, 1, true).unwrap();
        d.union(1, 2, true).unwrap();
        d.union(2, 3, true).unwrap();
        // 0-3 parity is true (3 diff edges); adding same-color edge is fine,
        // adding nothing contradictory first:
        assert_eq!(d.relation(0, 3), Some(true));
        let err = d.union(0, 3, false).unwrap_err();
        assert_eq!((err.a, err.b), (0, 3));
        // Forest unchanged: relation still intact.
        assert_eq!(d.relation(0, 3), Some(true));
    }

    #[test]
    fn even_cycle_accepted() {
        let mut d = ParityDsu::new(4);
        d.union(0, 1, true).unwrap();
        d.union(1, 2, true).unwrap();
        d.union(2, 3, true).unwrap();
        assert_eq!(d.union(3, 0, true), Ok(false));
    }

    #[test]
    fn grow_preserves_state() {
        let mut d = ParityDsu::new(2);
        d.union(0, 1, true).unwrap();
        d.grow(10);
        assert_eq!(d.len(), 10);
        assert_eq!(d.relation(0, 1), Some(true));
        assert_eq!(d.relation(0, 9), None);
        d.union(9, 0, false).unwrap();
        assert_eq!(d.relation(9, 1), Some(true));
    }

    #[test]
    fn display_error() {
        let e = OddCycle { a: 1, b: 2 };
        assert!(e.to_string().contains("odd cycle"));
    }

    #[test]
    fn rollback_restores_the_forest() {
        let mut d = ParityDsu::new(6);
        d.union(0, 1, true).unwrap();
        d.union(2, 3, false).unwrap();
        let mark = d.mark();
        d.union(1, 2, true).unwrap();
        d.union(4, 5, true).unwrap();
        assert_eq!(d.relation(0, 3), Some(false));
        d.rollback(mark);
        assert_eq!(d.relation(0, 3), None);
        assert_eq!(d.relation(4, 5), None);
        assert_eq!(d.relation(0, 1), Some(true));
        assert_eq!(d.relation(2, 3), Some(false));
        // The forest behaves exactly like a fresh one with the same edges.
        d.union(1, 2, false).unwrap();
        assert_eq!(d.relation(0, 3), Some(true));
    }

    #[test]
    fn rollback_to_zero_is_full_reset() {
        let mut d = ParityDsu::new(4);
        d.union(0, 1, true).unwrap();
        d.union(2, 3, true).unwrap();
        d.rollback(0);
        for a in 0..4u32 {
            for b in 0..4u32 {
                if a != b {
                    assert_eq!(d.relation(a, b), None);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "future")]
    fn rollback_into_future_panics() {
        let mut d = ParityDsu::new(2);
        d.rollback(1);
    }

    #[test]
    fn reset_nodes_detaches_a_component() {
        let mut d = ParityDsu::new(6);
        d.union(0, 1, true).unwrap();
        d.union(1, 2, false).unwrap();
        d.union(4, 5, true).unwrap();
        // Reset the {0,1,2} component and re-union a subset of its edges.
        d.reset_nodes(&[0, 1, 2]);
        assert_eq!(d.relation(0, 1), None);
        assert_eq!(d.relation(1, 2), None);
        assert_eq!(d.relation(4, 5), Some(true), "other components untouched");
        d.union(1, 2, false).unwrap();
        assert_eq!(d.relation(1, 2), Some(false));
        assert_eq!(d.relation(0, 2), None);
    }

    #[test]
    fn redundant_unions_do_not_log() {
        let mut d = ParityDsu::new(3);
        d.union(0, 1, true).unwrap();
        let mark = d.mark();
        assert_eq!(d.union(0, 1, true), Ok(false));
        assert_eq!(d.mark(), mark, "implied edges leave no log entry");
    }
}
