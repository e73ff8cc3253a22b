//! Zero-allocation contract of the steady-state window path.
//!
//! The whole per-window pipeline — `Simulation::step_snapshot_partitioned`
//! (demand sampling, load balancing, per-server model evaluation, snapshot
//! assembly) followed by `SweepEngine::sweep` (shard fan-out, estimator
//! updates, deterministic merge) — reuses its buffers once warmed, and so
//! do its columnar sibling (`step_columns_partitioned` →
//! `observe_columns`) and the streamed pipeline (`step_streamed` →
//! `observe_streamed`, which generates metric columns tile-at-a-time
//! inside the sweep from `PassScratch`-resident buffers). This test
//! installs a counting global allocator and asserts that a warmed,
//! non-replan window performs **zero** heap allocations in all three
//! layouts, sequentially and through the persistent worker pool. The
//! workload is the shared fixture in `headroom_bench::alloc_fixture`, the
//! same one the `repro sweep` and `repro colsim` CI gates measure.
//!
//! Kept as its own integration-test binary on purpose: a process-global
//! allocation counter only means something when nothing else is
//! allocating. The harness still runs this file's tests concurrently, so
//! the fixture serialises them itself: each measurement holds the
//! fixture's lock from warm-up to the final count.

use headroom_bench::alloc_fixture::{
    measure_steady_state_allocs, measure_steady_state_allocs_scenario, measure_tail_refill_allocs,
    tail_refill_period, MEASURED_WINDOWS,
};
use headroom_cluster::sim::SnapshotLayout;
use headroom_exec::alloc_track::{is_tracking, CountingAllocator};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

const LAYOUTS: [SnapshotLayout; 3] =
    [SnapshotLayout::Rows, SnapshotLayout::Columnar, SnapshotLayout::Streamed];

#[test]
fn steady_state_window_allocates_nothing() {
    assert!(is_tracking(), "the counting allocator is installed");
    for layout in LAYOUTS {
        for threads in [1usize, 2, 4] {
            let delta = measure_steady_state_allocs(threads, layout);
            assert_eq!(
                delta, 0,
                "a warmed non-replan window must not allocate \
                 (threads={threads}, layout={layout:?}: {delta} allocations over \
                 {MEASURED_WINDOWS} windows)"
            );
        }
    }
}

/// The same contract with an adversarial scenario live: a `DatacenterLoss`
/// plus a global demand surge are active across every measured window, so
/// the event-evaluation and loss-redistribution paths must also be
/// allocation-free once warm.
#[test]
fn scenario_active_steady_state_window_allocates_nothing() {
    assert!(is_tracking(), "the counting allocator is installed");
    for layout in LAYOUTS {
        for threads in [1usize, 2, 4] {
            let delta = measure_steady_state_allocs_scenario(threads, layout);
            assert_eq!(
                delta, 0,
                "a warmed scenario-active non-replan window must not allocate \
                 (threads={threads}, layout={layout:?}: {delta} allocations over \
                 {MEASURED_WINDOWS} windows)"
            );
        }
    }
}

/// The same contract across a totals-tail refill: under a strictly
/// falling workload every pool's tail runs short once per
/// `tail_refill_period()` windows and is refilled from the aggregate ring,
/// and the measured span is exactly that long.
#[test]
fn tail_refill_window_allocates_nothing() {
    assert!(is_tracking(), "the counting allocator is installed");
    for threads in [1usize, 2, 4] {
        let delta = measure_tail_refill_allocs(threads);
        assert_eq!(
            delta,
            0,
            "a warmed window span with a totals-tail refill must not allocate \
             (threads={threads}: {delta} allocations over {} windows)",
            tail_refill_period()
        );
    }
}
