//! The pure search stage of the routing pipeline.
//!
//! [`SearchStage`] bundles the read-only views a per-net pathfinding call
//! needs — the routing plane, the committed direction map, the pin guards
//! and the configuration — and produces a [`RouteCandidate`] without
//! touching any shared router state. The only thing it mutates is the
//! caller-provided [`SearchScratch`] (per-search A\* working memory) and
//! it never writes the plane, the spatial index or the constraint graphs:
//! those mutations happen later, through the
//! [`CommitLedger`](crate::ledger::CommitLedger).
//!
//! Because the stage is a pure function of its inputs, the sharded driver
//! can run one instance per worker thread against clones/snapshots of the
//! shared state with no coordination.

use crate::astar::{astar_search, AstarRequest, SearchScratch, SearchStats};
use crate::budget::Budget;
use crate::config::RouterConfig;
use crate::grids::{DirGrid, GuardGrid, PenaltyGrid};
use sadp_geom::{GridPoint, Layer, TrackRect};
use sadp_grid::{Net, NetId, RoutePath, RoutingPlane};
use sadp_obs::{Recorder, SpanClock, Stage};

/// Read-only views for one pathfinding call.
#[derive(Debug, Clone, Copy)]
pub struct SearchStage<'a> {
    /// The routing plane (occupancy and blockages).
    pub plane: &'a RoutingPlane,
    /// Committed wire directions of already-routed nets (the `T2b` hints).
    pub dir_map: &'a DirGrid,
    /// Soft pin keep-out halos.
    pub guards: &'a GuardGrid,
    /// The router configuration (cost weights, search margin).
    pub config: &'a RouterConfig,
}

/// Inline capacity of a [`FragmentList`]. Eight covers the vast majority
/// of routed nets: a straight trunk is one fragment, and each bend or
/// via landing adds only one or two more.
const FRAGMENTS_INLINE: usize = 8;

/// The maximal wire-fragment rectangles of a candidate route, with
/// inline storage for short lists.
///
/// A [`RouteCandidate`] is built once per search attempt and moved
/// through the propose → commit pipeline, so its fragment list is one of
/// the hottest allocations in the router. Up to `FRAGMENTS_INLINE` (8)
/// entries live in the struct itself; longer lists spill to the heap
/// transparently, preserving order.
#[derive(Debug, Clone)]
pub struct FragmentList {
    repr: FragRepr,
}

#[derive(Debug, Clone)]
enum FragRepr {
    Inline {
        buf: [(Layer, TrackRect); FRAGMENTS_INLINE],
        len: u8,
    },
    Heap(Vec<(Layer, TrackRect)>),
}

impl FragmentList {
    /// An empty list (inline, no allocation).
    #[must_use]
    pub fn new() -> FragmentList {
        FragmentList {
            repr: FragRepr::Inline {
                buf: [(Layer(0), TrackRect::cell(0, 0)); FRAGMENTS_INLINE],
                len: 0,
            },
        }
    }

    /// Appends one fragment, spilling to the heap past the inline
    /// capacity.
    pub fn push(&mut self, frag: (Layer, TrackRect)) {
        match &mut self.repr {
            FragRepr::Inline { buf, len } => {
                let l = usize::from(*len);
                if l < FRAGMENTS_INLINE {
                    buf[l] = frag;
                    *len += 1;
                } else {
                    let mut v = Vec::with_capacity(FRAGMENTS_INLINE * 2);
                    v.extend_from_slice(buf);
                    v.push(frag);
                    self.repr = FragRepr::Heap(v);
                }
            }
            FragRepr::Heap(v) => v.push(frag),
        }
    }

    /// The fragments as a slice, in insertion order.
    #[must_use]
    pub fn as_slice(&self) -> &[(Layer, TrackRect)] {
        match &self.repr {
            FragRepr::Inline { buf, len } => &buf[..usize::from(*len)],
            FragRepr::Heap(v) => v,
        }
    }

    /// Number of fragments.
    #[must_use]
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Whether the list holds no fragments.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// Iterates over the fragments.
    pub fn iter(&self) -> std::slice::Iter<'_, (Layer, TrackRect)> {
        self.as_slice().iter()
    }

    /// Moves the fragments into a plain `Vec` (no copy once spilled).
    #[must_use]
    pub fn into_vec(self) -> Vec<(Layer, TrackRect)> {
        match self.repr {
            FragRepr::Inline { buf, len } => buf[..usize::from(len)].to_vec(),
            FragRepr::Heap(v) => v,
        }
    }
}

impl Default for FragmentList {
    fn default() -> FragmentList {
        FragmentList::new()
    }
}

impl<'a> IntoIterator for &'a FragmentList {
    type Item = &'a (Layer, TrackRect);
    type IntoIter = std::slice::Iter<'a, (Layer, TrackRect)>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// A tentative route produced by the search stage: trunk, branches, and
/// the maximal wire-fragment rectangles of all of them. Nothing about it
/// is committed yet.
#[derive(Debug, Clone)]
pub struct RouteCandidate {
    /// The trunk path (source pin to target pin).
    pub path: RoutePath,
    /// Branch paths of a multi-terminal net (empty for two-pin nets).
    pub branches: Vec<RoutePath>,
    /// Maximal wire-fragment rectangles per layer, over all paths.
    pub fragments: FragmentList,
}

/// The result of [`SearchStage::search_net`].
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// The candidate route, or `None` if the net (or one of its branches)
    /// has no path.
    pub candidate: Option<RouteCandidate>,
    /// Total A\* nodes expanded across trunk and branch searches.
    pub expanded: u64,
    /// Whether the net's search [`Budget`] ran out mid-search. When set,
    /// `candidate` is `None` and the net must fail with
    /// `FailReason::BudgetExceeded`, not `NoPath`.
    pub budget_exceeded: bool,
}

impl SearchStage<'_> {
    /// One multi-source multi-target A\* search for `net` under a
    /// caller-owned [`Budget`], charged once per expanded node.
    pub fn search(
        &self,
        net: NetId,
        sources: &[GridPoint],
        targets: &[GridPoint],
        penalties: &PenaltyGrid,
        scratch: &mut SearchScratch,
        budget: &mut Budget,
    ) -> (Option<RoutePath>, SearchStats) {
        let req = AstarRequest {
            net,
            sources,
            targets,
            penalties,
            guards: self.guards,
        };
        astar_search(self.plane, &req, self.dir_map, self.config, scratch, budget)
    }

    /// Searches a full candidate route for `net`, timed as one `search`
    /// span on `rec`: the trunk between the source and target pins, then
    /// one branch per extra terminal (each may tap any already-found
    /// point of the net), and fragments the result into maximal wire
    /// rectangles. The net's [`Budget`] spans the trunk and every branch
    /// search; once it runs out the outcome carries `budget_exceeded`
    /// and no candidate. One virtual call per net attempt — the per-node
    /// inner loop stays observation-free.
    #[must_use]
    pub fn search_net(
        &self,
        net: &Net,
        penalties: &PenaltyGrid,
        scratch: &mut SearchScratch,
        budget: &mut Budget,
        rec: &mut dyn Recorder,
    ) -> SearchOutcome {
        let clock = SpanClock::start(&*rec);
        let outcome = 'search: {
            let (path, stats) = self.search(
                net.id,
                net.source.candidates(),
                net.target.candidates(),
                penalties,
                scratch,
                budget,
            );
            let mut expanded = stats.expanded;
            let Some(path) = path else {
                break 'search SearchOutcome {
                    candidate: None,
                    expanded,
                    budget_exceeded: stats.budget_exceeded,
                };
            };

            let mut branches: Vec<RoutePath> = Vec::new();
            for pin in &net.extra {
                let mut targets: Vec<GridPoint> = path.points().to_vec();
                for b in &branches {
                    targets.extend_from_slice(b.points());
                }
                let (bpath, bstats) = self.search(
                    net.id,
                    pin.candidates(),
                    &targets,
                    penalties,
                    scratch,
                    budget,
                );
                expanded += bstats.expanded;
                match bpath {
                    Some(bp) => branches.push(bp),
                    None => {
                        break 'search SearchOutcome {
                            candidate: None,
                            expanded,
                            budget_exceeded: bstats.budget_exceeded,
                        }
                    }
                }
            }

            let mut fragments = FragmentList::new();
            path.fragments_into(|layer, rect| fragments.push((layer, rect)));
            for b in &branches {
                b.fragments_into(|layer, rect| fragments.push((layer, rect)));
            }
            SearchOutcome {
                candidate: Some(RouteCandidate {
                    path,
                    branches,
                    fragments,
                }),
                expanded,
                budget_exceeded: false,
            }
        };
        clock.stop(rec, Stage::Search);
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frag(i: i32) -> (Layer, TrackRect) {
        (Layer(0), TrackRect::cell(i, i))
    }

    #[test]
    fn fragment_list_starts_empty_and_inline() {
        let list = FragmentList::new();
        assert!(list.is_empty());
        assert_eq!(list.len(), 0);
        assert_eq!(list.as_slice(), &[]);
        assert!(FragmentList::default().is_empty());
    }

    #[test]
    fn fragment_list_spills_past_inline_capacity_preserving_order() {
        let mut list = FragmentList::new();
        let n = FRAGMENTS_INLINE as i32 + 5;
        for i in 0..n {
            list.push(frag(i));
        }
        assert_eq!(list.len(), n as usize);
        let expect: Vec<_> = (0..n).map(frag).collect();
        assert_eq!(list.as_slice(), expect.as_slice());
        assert_eq!(list.iter().count(), n as usize);
        assert_eq!((&list).into_iter().count(), n as usize);
        assert_eq!(list.into_vec(), expect);
    }

    #[test]
    fn fragment_list_into_vec_at_exact_inline_boundary() {
        let mut list = FragmentList::new();
        for i in 0..FRAGMENTS_INLINE as i32 {
            list.push(frag(i));
        }
        assert_eq!(list.len(), FRAGMENTS_INLINE);
        let expect: Vec<_> = (0..FRAGMENTS_INLINE as i32).map(frag).collect();
        assert_eq!(list.into_vec(), expect);
    }
}
