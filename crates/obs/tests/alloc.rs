//! The no-op hot path must not allocate: a routing run with the default
//! recorder pays zero observability overhead on the allocator.
//!
//! Measured with a counting global allocator. The whole test binary runs
//! under it, and the harness runs the tests on concurrent threads, so
//! each thread keeps its own count: a bracket sees only the allocations
//! made by the code under test on its own thread, never those of the
//! harness or of another test running at the same time.

use sadp_obs::{
    events_to_jsonl, FailReason, NoopRecorder, Recorder, RouterEvent, SpanClock, Stage,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Duration;

struct CountingAlloc;

thread_local! {
    // Const-initialised and drop-free, so counting never allocates and
    // the slot stays usable while a thread is being torn down.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn noop_recorder_hot_path_allocates_nothing() {
    let mut rec = NoopRecorder;
    let n = allocations_during(|| {
        for i in 0..10_000u32 {
            let clock = SpanClock::start(&rec);
            clock.stop(&mut rec, Stage::Search);
            rec.span(Stage::Commit, Duration::ZERO, 1);
            if rec.enabled() {
                // Event construction is gated exactly like in the driver;
                // with a no-op recorder this arm never runs.
                rec.event(RouterEvent::NetFailed {
                    net: i,
                    reason: FailReason::NoPath,
                });
            }
        }
    });
    assert_eq!(n, 0, "no-op recorder hot path must not allocate");
}

#[test]
fn event_serialization_does_allocate_as_a_control() {
    // Sanity check that the counter actually observes allocations,
    // so the zero above is meaningful.
    let events = vec![RouterEvent::BandMerged { band: 0, nets: 3 }];
    let n = allocations_during(|| {
        let s = events_to_jsonl(&events);
        assert!(!s.is_empty());
    });
    assert!(n > 0, "control section should have allocated");
}
