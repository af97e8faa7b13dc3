//! The ECO undo/redo contract, property-tested on the corpus fixtures:
//! for every edit, `apply` → `undo` restores the pre-edit state digest
//! byte-identically (occupancy, blockages, colors, patterns, DSU
//! components, failure list and counters), and `undo` → `redo` restores
//! the post-edit digest. Edit scripts are generated from seeded
//! [`sadp_geom::Rng`] streams, so failures replay exactly.
//!
//! The tail of the file pins the per-edit re-route semantics: a failed
//! net releases its pin cells, a net's failure is recorded once and
//! cleared by a successful retry, and edits trace into the session's
//! recorder.

use sadp_core::eco::{parse_edit_script, EcoEdit, EcoSession, NetRef, OpOutcome};
use sadp_core::RouterConfig;
use sadp_geom::{DesignRules, GridPoint, Layer, Rng, TrackRect};
use sadp_grid::io::read_layout;
use sadp_grid::{BenchmarkSpec, Netlist, Pin, RoutingPlane};
use sadp_obs::events_to_jsonl;
use std::path::PathBuf;
use std::time::Instant;

fn corpus(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../fixtures/corpus")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn session(fixture: &str) -> EcoSession {
    let (plane, netlist) = read_layout(&corpus(fixture)).expect("fixture parses");
    EcoSession::create(RouterConfig::paper_defaults(), plane, netlist, false)
        .expect("fixture routes")
}

/// Draws a random edit. Validation may still reject it (blocked cell,
/// pin collision) — the property loop simply skips those draws.
fn random_edit(rng: &mut Rng, eco: &EcoSession, step: usize) -> EcoEdit {
    let plane = eco.plane();
    let (w, h) = (plane.width(), plane.height());
    let pin = |rng: &mut Rng| {
        Pin::fixed(GridPoint::new(
            Layer(0),
            rng.range_i32(1..w - 1),
            rng.range_i32(1..h - 1),
        ))
    };
    let active: Vec<_> = eco.active_nets().collect();
    match rng.index(5) {
        0 => EcoEdit::AddNet {
            name: format!("eco{step}"),
            pins: vec![pin(rng), pin(rng)],
        },
        1 if !active.is_empty() => EcoEdit::RemoveNet {
            net: active[rng.index(active.len())],
        },
        2 if !active.is_empty() => EcoEdit::MoveNet {
            net: active[rng.index(active.len())],
            pins: vec![pin(rng), pin(rng)],
        },
        3 if !eco.obstacles().is_empty() => {
            let (layer, rect) = eco.obstacles()[rng.index(eco.obstacles().len())];
            EcoEdit::RemoveObstacle { layer, rect }
        }
        _ => {
            let x = rng.range_i32(0..w - 3);
            let y = rng.range_i32(0..h - 3);
            EcoEdit::AddObstacle {
                layer: Layer(rng.index(plane.layers() as usize) as u8),
                rect: TrackRect::new(x, y, x + rng.range_i32(1..4), y + rng.range_i32(1..4)),
            }
        }
    }
}

/// The property: run `steps` seeded edits; around each accepted edit,
/// undo restores the before-digest and redo the after-digest; at the
/// end, unwinding the whole journal restores every earlier digest in
/// reverse order, down to the pristine batch result.
fn check_fixture(fixture: &str, seed: u64, steps: usize) {
    let mut eco = session(fixture);
    let mut rng = Rng::seed_from_u64(seed);
    // Digest after each applied edit; index 0 is the batch result.
    let mut digests = vec![eco.state_digest()];
    let mut applied = 0usize;
    for step in 0..steps {
        let edit = random_edit(&mut rng, &eco, step);
        let before = eco.state_digest();
        assert_eq!(
            before,
            digests[digests.len() - 1],
            "{fixture}/{seed}: digest drifted between edits"
        );
        let Ok(outcome) = eco.apply(edit.clone()) else {
            continue; // validation rejected the draw
        };
        applied += 1;
        let after = eco.state_digest();
        eco.undo().expect("just applied");
        assert_eq!(
            eco.state_digest(),
            before,
            "{fixture}/{seed} step {step}: undo of {:?} (invalidated {:?}) \
             did not restore the pre-edit state",
            edit.kind(),
            outcome.invalidated,
        );
        eco.redo().expect("just undone");
        assert_eq!(
            eco.state_digest(),
            after,
            "{fixture}/{seed} step {step}: redo of {:?} did not restore \
             the post-edit state",
            edit.kind(),
        );
        digests.push(after);
    }
    assert!(
        applied >= steps / 2,
        "{fixture}/{seed}: only {applied}/{steps} draws were valid — \
         the generator is too weak to mean anything"
    );
    // Unwind the whole session.
    while eco.undo_depth() > 0 {
        eco.undo().expect("journal non-empty");
        digests.pop();
        assert_eq!(
            eco.state_digest(),
            digests[digests.len() - 1],
            "{fixture}/{seed}: unwinding depth {} diverged",
            digests.len() - 1,
        );
    }
}

#[test]
fn undo_is_byte_identical_on_clock_tree() {
    check_fixture("clock-tree-multi-terminal.layout", 1, 8);
    check_fixture("clock-tree-multi-terminal.layout", 2, 8);
}

#[test]
fn undo_is_byte_identical_on_dense_clock() {
    check_fixture("dense-clock-pad-assist-merge.layout", 3, 8);
}

#[test]
fn undo_is_byte_identical_on_odd_cycle() {
    check_fixture("odd-cycle-merge-and-cut.layout", 4, 8);
}

#[test]
fn undo_is_byte_identical_on_sparse_pairs() {
    check_fixture("sparse-pairs-flanked-pad.layout", 5, 6);
}

/// Regression: undo on a dense generated layout whose batch run ripped
/// up nets and left failures (the corpus fixtures route 100% and never
/// caught a restore that only held for clean runs).
#[test]
fn undo_is_byte_identical_with_failed_nets() {
    let spec = BenchmarkSpec::paper_fixed_suite()
        .pop()
        .expect("suite is non-empty")
        .scaled(0.05);
    let (plane, netlist) = spec.generate();
    let mut eco = EcoSession::create(RouterConfig::paper_defaults(), plane, netlist, false)
        .expect("dense layout batches");
    let (_, failed, _) = eco.stats();
    assert!(failed > 0, "vacuous fixture: the batch must leave failures");
    let id = eco.active_nets().next().expect("nets exist");
    let before = eco.state_digest();
    eco.apply(EcoEdit::RemoveNet { net: id }).expect("valid");
    eco.undo().expect("just applied");
    assert_eq!(eco.state_digest(), before);
}

/// An undo restores the state the edit started from exactly, so an edit
/// applied after it behaves as on the never-edited session: the same
/// outcome and the same state digest. The reproducer removes a net,
/// undoes, and blocks a region the removal had re-routed around.
#[test]
fn an_edit_after_undo_equals_the_edit_on_the_untouched_session() {
    let fresh = || {
        let (plane, netlist) = BenchmarkSpec::new("eco-after-undo", 200, 96, 96)
            .with_seed(1)
            .generate();
        EcoSession::create(RouterConfig::paper_defaults(), plane, netlist, false)
            .expect("design routes")
    };
    let b = EcoEdit::AddObstacle {
        layer: Layer(2),
        rect: TrackRect::new(73, 51, 78, 56),
    };
    let mut untouched = fresh();
    let want = untouched.apply(b.clone()).expect("valid edit");

    let mut edited = fresh();
    edited
        .apply(EcoEdit::RemoveNet {
            net: sadp_grid::NetId(110),
        })
        .expect("valid edit");
    edited.undo().expect("one edit to undo");
    let got = edited.apply(b).expect("valid edit");
    assert_eq!(
        (got.invalidated, got.rerouted, got.failed),
        (want.invalidated, want.rerouted, want.failed)
    );
    assert_eq!(edited.state_digest(), untouched.state_digest());
    assert_eq!(edited.undo_depth(), 1, "the undone edit left the history");
}

#[test]
fn anchor_script_round_trips() {
    // The shrunk anchor: a fixed script over the clock-tree fixture.
    let ops = parse_edit_script(&corpus("eco-undo-redo-roundtrip.edits")).expect("anchor parses");
    let mut eco = session("clock-tree-multi-terminal.layout");
    let initial = eco.state_digest();
    let outcomes = eco.run_script(&ops).expect("anchor applies cleanly");
    // Non-vacuity: the anchor exercises every edit kind and both verbs.
    let edits = outcomes
        .iter()
        .filter(|o| matches!(o, OpOutcome::Edit(_)))
        .count();
    assert_eq!(edits, 5);
    assert!(outcomes.iter().any(|o| matches!(o, OpOutcome::Undo)));
    assert!(outcomes.iter().any(|o| matches!(o, OpOutcome::Redo)));
    let settled = eco.state_digest();
    // Unwind everything: back to the pristine batch result.
    let depth = eco.undo_depth();
    for _ in 0..depth {
        eco.undo().expect("journal non-empty");
    }
    assert_eq!(eco.state_digest(), initial);
    // Replay everything: forward to the settled state again.
    for _ in 0..depth {
        eco.redo().expect("redo available");
    }
    assert_eq!(eco.state_digest(), settled);
}

fn p0(x: i32, y: i32) -> GridPoint {
    GridPoint::new(Layer(0), x, y)
}

fn two_pin(name: &str, a: GridPoint, b: GridPoint) -> EcoEdit {
    EcoEdit::AddNet {
        name: name.to_string(),
        pins: vec![Pin::fixed(a), Pin::fixed(b)],
    }
}

/// A session over an empty 32×32×3 plane with no nets.
fn blank_session(trace: bool) -> EcoSession {
    let plane = RoutingPlane::new(3, 32, 32, DesignRules::node_10nm()).expect("valid plane");
    EcoSession::create(RouterConfig::paper_defaults(), plane, Netlist::new(), trace)
        .expect("empty netlist routes")
}

/// The wall rectangle: column `x` across the whole plane.
fn wall(x: i32) -> TrackRect {
    TrackRect::new(x, 0, x, 31)
}

/// Walls every layer at column `x`, so nothing crosses it.
fn add_wall(eco: &mut EcoSession, x: i32) {
    for l in 0..eco.plane().layers() {
        eco.apply(EcoEdit::AddObstacle {
            layer: Layer(l),
            rect: wall(x),
        })
        .expect("the wall covers no pin");
    }
}

#[test]
fn added_net_after_a_batch_route_stays_conflict_free() {
    let mut nl = Netlist::new();
    nl.add_two_pin("a", p0(2, 5), p0(20, 5));
    nl.add_two_pin("b", p0(2, 6), p0(20, 6));
    nl.add_two_pin("c", p0(4, 10), p0(18, 14));
    let plane = RoutingPlane::new(3, 32, 32, DesignRules::node_10nm()).expect("valid plane");
    let mut eco =
        EcoSession::create(RouterConfig::paper_defaults(), plane, nl, false).expect("batch routes");
    let outcome = eco
        .apply(two_pin("eco", p0(25, 2), p0(25, 20)))
        .expect("valid edit");
    assert_eq!(outcome.failed, 0);
    let report = eco.router().report(eco.netlist(), Instant::now());
    assert_eq!(report.routed_nets, 4);
    assert_eq!(report.cut_conflicts, 0);
}

#[test]
fn failed_net_releases_its_pin_reservations() {
    // Net `a` cannot cross the wall and fails; its reserved pin cells
    // must be released, or net `b` — whose straight path runs through
    // `a`'s source — would be blocked by a net that isn't there. Adding
    // `b` re-routes `a` too, first (its HPWL is smaller), so `a` fails
    // and frees its source before `b` searches.
    let mut eco = blank_session(false);
    add_wall(&mut eco, 20);
    let a = eco
        .apply(two_pin("a", p0(18, 2), p0(22, 2)))
        .expect("valid");
    assert_eq!((a.rerouted, a.failed), (0, 1));
    assert!(
        eco.plane().is_free(p0(18, 2)),
        "failed net must release its pins"
    );
    let b = eco.apply(two_pin("b", p0(1, 2), p0(19, 2))).expect("valid");
    assert_eq!((b.rerouted, b.failed), (1, 1));
    let b_id = eco.resolve(&NetRef::Name("b".into())).expect("b is active");
    assert_eq!(eco.plane().occupant(p0(18, 2)), Some(b_id));
    let report = eco.router().report(eco.netlist(), Instant::now());
    assert_eq!(report.routed_nets, 1);
    assert_eq!(report.total_nets - report.routed_nets, 1);
}

#[test]
fn retries_neither_duplicate_failures_nor_keep_stale_ones() {
    let mut eco = blank_session(false);
    add_wall(&mut eco, 8);
    let pins = vec![Pin::fixed(p0(2, 2)), Pin::fixed(p0(12, 2))];
    eco.apply(EcoEdit::AddNet {
        name: "a".into(),
        pins: pins.clone(),
    })
    .expect("valid");
    let a = eco.resolve(&NetRef::Name("a".into())).expect("a is active");
    // A second failed attempt records the net once, not twice.
    eco.apply(EcoEdit::MoveNet { net: a, pins }).expect("valid");
    assert_eq!(eco.router().failed(), &[a]);
    // Tear the wall down: the retry succeeds and clears the record.
    for l in 0..eco.plane().layers() {
        eco.apply(EcoEdit::RemoveObstacle {
            layer: Layer(l),
            rect: wall(8),
        })
        .expect("the wall is a session obstacle");
    }
    assert_eq!(eco.router().failed(), &[]);
    let report = eco.router().report(eco.netlist(), Instant::now());
    assert_eq!(report.routed_nets, 1);
    assert_eq!(report.total_nets, report.routed_nets);
}

#[test]
fn edits_trace_into_the_session_recorder() {
    // Two nets that route first try, so the edit trace is a stable
    // golden. Adding `b` invalidates `a` (their footprints overlap), so
    // the second edit re-routes both.
    let mut eco = blank_session(true);
    assert!(
        eco.drain_events().is_empty(),
        "an empty batch emits nothing"
    );
    eco.apply(two_pin("a", p0(2, 2), p0(12, 2))).expect("valid");
    eco.apply(two_pin("b", p0(2, 20), p0(12, 20)))
        .expect("valid");
    assert_eq!(
        events_to_jsonl(&eco.drain_events()),
        "{\"event\":\"nets_invalidated\",\"edit\":0,\"nets\":[]}\n\
         {\"event\":\"net_routed\",\"net\":0,\"attempts\":1,\"flipped\":false}\n\
         {\"event\":\"edit_applied\",\"edit\":0,\"kind\":\"add_net\",\"invalidated\":0,\
         \"rerouted\":1,\"failed\":0}\n\
         {\"event\":\"nets_invalidated\",\"edit\":1,\"nets\":[0]}\n\
         {\"event\":\"net_routed\",\"net\":0,\"attempts\":1,\"flipped\":false}\n\
         {\"event\":\"net_routed\",\"net\":1,\"attempts\":1,\"flipped\":false}\n\
         {\"event\":\"edit_applied\",\"edit\":1,\"kind\":\"add_net\",\"invalidated\":1,\
         \"rerouted\":2,\"failed\":0}\n"
    );
}
