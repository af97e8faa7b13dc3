//! Micro-bench: overlay-aware A*-search (eq. (5)) on empty and congested
//! planes, and replayed on the plane a full Test5 route leaves behind.

use sadp_bench::timing::bench;
use sadp_core::astar::{astar_search, AstarRequest};
use sadp_core::{Budget, DirGrid, GuardGrid, PenaltyGrid, Router, RouterConfig, SearchScratch};
use sadp_geom::{DesignRules, GridPoint, Layer, Rng};
use sadp_grid::{BenchmarkSpec, NetId, RoutingPlane};

fn main() {
    let config = RouterConfig::paper_defaults();

    let plane = RoutingPlane::new(3, 128, 128, DesignRules::node_10nm()).unwrap();
    let penalties = PenaltyGrid::new(&plane, 0);
    let guards = GuardGrid::new(&plane);
    let dir_map = DirGrid::new(&plane);
    // One scratch per plane, reused across searches as the router does.
    let mut scratch = SearchScratch::new(&plane);
    bench("astar/empty_plane_40_tracks", 200, || {
        let req = AstarRequest {
            plane: &plane,
            dir_map: &dir_map,
            guards: &guards,
            penalties: &penalties,
            config: &config,
            net: NetId(0),
            sources: &[GridPoint::new(Layer(0), 10, 60)],
            targets: &[GridPoint::new(Layer(0), 50, 70)],
        };
        let (p, _) = astar_search(&req, &mut scratch, &mut Budget::unlimited());
        p
    });

    // Congested: a field of parallel blockers forcing detours.
    let mut congested = RoutingPlane::new(3, 128, 128, DesignRules::node_10nm()).unwrap();
    let mut dir_map = DirGrid::new(&congested);
    for i in 0..20 {
        let y = 10 + i * 5;
        for x in 15..110 {
            let p = GridPoint::new(Layer(0), x, y);
            congested.occupy(p, NetId(999)).unwrap();
            dir_map.set(p, sadp_geom::Dir::Horizontal);
        }
    }
    let mut scratch = SearchScratch::new(&congested);
    bench("astar/congested_plane_40_tracks", 100, || {
        let req = AstarRequest {
            plane: &congested,
            dir_map: &dir_map,
            guards: &guards,
            penalties: &penalties,
            config: &config,
            net: NetId(0),
            sources: &[GridPoint::new(Layer(0), 10, 60)],
            targets: &[GridPoint::new(Layer(0), 50, 70)],
        };
        let (p, _) = astar_search(&req, &mut scratch, &mut Budget::unlimited());
        p
    });

    routed_replay(&config);
}

/// Routes Test5 at scale 0.2 once, then times a seeded batch of searches
/// between free cells, under a net id no routed net has, on the plane
/// and hint map that route left: the congested, hint-dense case the
/// synthetic planes above miss.
fn routed_replay(config: &RouterConfig) {
    const SEARCHES: usize = 64;
    const MAX_SPAN: i32 = 24;
    let spec = BenchmarkSpec::paper_fixed_suite().remove(4).scaled(0.2);
    let (mut plane, netlist) = spec.generate();
    let mut router = Router::new(config.clone());
    router.route_all(&mut plane, &netlist);
    let dir_map = router.dir_map().expect("the run sized the router");
    let net = NetId(netlist.len() as u32);

    let mut rng = Rng::seed_from_u64(30);
    let mut free_cell = |near: Option<GridPoint>| loop {
        let p = match near {
            None => GridPoint::new(
                Layer(rng.index(plane.layers() as usize) as u8),
                rng.range_i32(0..plane.width()),
                rng.range_i32(0..plane.height()),
            ),
            Some(c) => GridPoint::new(
                c.layer,
                c.x + rng.range_i32_inclusive(-MAX_SPAN..=MAX_SPAN),
                c.y + rng.range_i32_inclusive(-MAX_SPAN..=MAX_SPAN),
            ),
        };
        if plane.is_free(p) && Some(p) != near {
            break p;
        }
    };
    let pairs: Vec<(GridPoint, GridPoint)> = (0..SEARCHES)
        .map(|_| {
            let from = free_cell(None);
            (from, free_cell(Some(from)))
        })
        .collect();

    let penalties = PenaltyGrid::new(&plane, 0);
    let guards = GuardGrid::new(&plane);
    let mut scratch = SearchScratch::new(&plane);
    bench("astar/test5_0.2_routed_replay", 10, || {
        let mut found = 0;
        for (from, to) in &pairs {
            let req = AstarRequest {
                plane: &plane,
                dir_map,
                guards: &guards,
                penalties: &penalties,
                config,
                net,
                sources: std::slice::from_ref(from),
                targets: std::slice::from_ref(to),
            };
            let (p, _) = astar_search(&req, &mut scratch, &mut Budget::unlimited());
            found += usize::from(p.is_some());
        }
        found
    });
}
