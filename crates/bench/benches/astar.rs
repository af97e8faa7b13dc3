//! Micro-bench: overlay-aware A*-search (eq. (5)) on empty and congested
//! planes.

use sadp_bench::timing::bench;
use sadp_core::astar::{astar_search, AstarRequest, DirMap};
use sadp_core::{Budget, GuardGrid, PenaltyGrid, RouterConfig, SearchScratch, NO_GUARD};
use sadp_geom::{DesignRules, GridPoint, Layer};
use sadp_grid::{NetId, RoutingPlane};

fn main() {
    let config = RouterConfig::paper_defaults();

    let plane = RoutingPlane::new(3, 128, 128, DesignRules::node_10nm()).unwrap();
    let penalties = PenaltyGrid::new(&plane, 0);
    let guards = GuardGrid::new(&plane, NO_GUARD);
    // One scratch per plane, reused across searches as the router does.
    let mut scratch = SearchScratch::new(&plane);
    bench("astar/empty_plane_40_tracks", 200, || {
        let req = AstarRequest {
            net: NetId(0),
            sources: &[GridPoint::new(Layer(0), 10, 60)],
            targets: &[GridPoint::new(Layer(0), 50, 70)],
            penalties: &penalties,
            guards: &guards,
        };
        let dir_map = DirMap::new(&plane, None);
        let budget = &mut Budget::unlimited();
        let (p, _) = astar_search(&plane, &req, &dir_map, &config, &mut scratch, budget);
        p
    });

    // Congested: a field of parallel blockers forcing detours.
    let mut congested = RoutingPlane::new(3, 128, 128, DesignRules::node_10nm()).unwrap();
    let mut dir_map = DirMap::new(&congested, None);
    for i in 0..20 {
        let y = 10 + i * 5;
        for x in 15..110 {
            let p = GridPoint::new(Layer(0), x, y);
            congested.occupy(p, NetId(999)).unwrap();
            dir_map.set(p, Some(sadp_geom::Dir::Horizontal));
        }
    }
    let mut scratch = SearchScratch::new(&congested);
    bench("astar/congested_plane_40_tracks", 100, || {
        let req = AstarRequest {
            net: NetId(0),
            sources: &[GridPoint::new(Layer(0), 10, 60)],
            targets: &[GridPoint::new(Layer(0), 50, 70)],
            penalties: &penalties,
            guards: &guards,
        };
        let budget = &mut Budget::unlimited();
        let (p, _) = astar_search(&congested, &req, &dir_map, &config, &mut scratch, budget);
        p
    });
}
