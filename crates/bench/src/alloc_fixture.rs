//! The shared steady-state zero-allocation fixture.
//!
//! Three gates measure the same contract — a warmed, non-replan window of
//! the full simulator→ingestion pipeline performs zero heap allocations —
//! on the row layout (`repro sweep`), the columnar and streamed layouts
//! (`repro colsim`), and all three across thread counts (the
//! `alloc_steady_state` integration test). They must all drive the *same*
//! workload, or a layout-specific allocation regression could hide behind
//! a fixture drift; this module is the single definition of that workload.
//!
//! A fourth measurement, [`measure_tail_refill_allocs`], drives the
//! engine alone through a window span that provably includes a refill of
//! the totals tail from the aggregate ring — the one totals path the
//! simulator-fed fixture is not guaranteed to reach while it measures.
//!
//! The counter it reads is process-global, so a measurement only means
//! something while no other thread in the process is building or running
//! a fixture: every measurement holds one process-wide lock from warm-up
//! to the final count, so concurrent callers (libtest runs `#[test]`s in
//! parallel) take turns instead of counting each other's allocations.

use std::sync::{Mutex, MutexGuard};

use headroom_cluster::catalog::MicroserviceKind;
use headroom_cluster::maintenance::AvailabilityPractice;
use headroom_cluster::sim::{RecordingPolicy, SimConfig, Simulation, SnapshotLayout};
use headroom_cluster::topology::FleetBuilder;
use headroom_core::slo::QosRequirement;
use headroom_exec::alloc_track;
use headroom_online::planner::{OnlinePlannerConfig, PoolWindowAggregate};
use headroom_online::store::{tail_capacity, PEAK_PERCENTILE};
use headroom_online::sweep::SweepEngine;
use headroom_stats::percentile::top_values_needed;
use headroom_telemetry::ids::{DatacenterId, PoolId};
use headroom_telemetry::time::{SimTime, WindowIndex};
use headroom_workload::events::{EventEffect, EventScript, ScheduledEvent};

/// Windows per replan in the fixture; measured windows dodge the cadence.
pub const REPLAN_EVERY: u64 = 16;
/// Warm-up length: fills the sliding window, the fits, and every scratch
/// buffer, includes many replans (so output buffers hold capacity), and
/// ends exactly on a replan tick.
pub const WARM_WINDOWS: u64 = 25 * REPLAN_EVERY;
/// Windows measured after warm-up.
pub const MEASURED_WINDOWS: u64 = 10;

/// Serialises measurements within the process; see the module docs.
static MEASURE_LOCK: Mutex<()> = Mutex::new(());

/// Takes `MEASURE_LOCK`. A measurement that panicked while holding it
/// (a failed assertion) leaves no state behind, so poisoning is ignored.
fn exclusive() -> MutexGuard<'static, ()> {
    MEASURE_LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// One warmed simulator + engine pair on the canonical fixture fleet
/// (3 DCs × service B × 12 servers, no failures/incidents, SnapshotOnly,
/// replan every 16 windows), driven through the requested snapshot layout.
pub fn warmed(threads: usize, layout: SnapshotLayout) -> (Simulation, SweepEngine) {
    warmed_with(threads, layout, false)
}

/// The scenario-active twin of [`warmed`]: the same pipeline with a
/// `DatacenterLoss` *and* a global demand multiplier active across every
/// warmed and measured window, so the event-evaluation and loss-
/// redistribution paths are on the measured steady state. The fleet is
/// deployed with extra headroom (demand at 55% of the catalog peak) so
/// the survivors stay non-urgent under the rerouted load — a nonzero
/// count is then an allocation-contract violation, not urgency replans.
pub fn warmed_scenario(threads: usize, layout: SnapshotLayout) -> (Simulation, SweepEngine) {
    warmed_with(threads, layout, true)
}

/// Drives one window of the pipeline through the requested layout.
fn observe_window(sim: &mut Simulation, engine: &mut SweepEngine, layout: SnapshotLayout) {
    match layout {
        SnapshotLayout::Streamed => {
            let win = sim.step_streamed();
            engine.observe_streamed(&win);
        }
        SnapshotLayout::Columnar => {
            let snap = sim.step_columns_partitioned();
            engine.observe_columns(&snap);
        }
        SnapshotLayout::Rows => {
            let snap = sim.step_snapshot_partitioned();
            engine.observe_partitioned(&snap);
        }
    }
}

fn warmed_with(
    threads: usize,
    layout: SnapshotLayout,
    scenario: bool,
) -> (Simulation, SweepEngine) {
    let mut builder = FleetBuilder::new(11).datacenters(3).without_failures().without_incidents();
    builder = if scenario {
        let spec = MicroserviceKind::B.spec().with_practice(AvailabilityPractice::WellManaged);
        builder
            .deploy_with_spec(&spec, 12, spec.peak_rps_per_server * 0.55)
            .expect("catalog service deploys")
    } else {
        builder.deploy_service(MicroserviceKind::B, 12).expect("catalog service deploys")
    };
    let fleet = builder.build();
    let events = if scenario {
        // Active from window 0 through far past the measured span.
        let forever = 30 * 86_400;
        EventScript::new(vec![
            ScheduledEvent::new(
                SimTime::ZERO,
                forever,
                EventEffect::DatacenterLoss { datacenter: DatacenterId(2) },
            ),
            ScheduledEvent::new(
                SimTime::ZERO,
                forever,
                EventEffect::GlobalDemandMultiplier { factor: 1.1 },
            ),
        ])
    } else {
        EventScript::empty()
    };
    let sim_config = SimConfig {
        seed: 11,
        recording: RecordingPolicy::SnapshotOnly,
        track_availability: false,
        ..SimConfig::default()
    };
    let mut sim = Simulation::new(fleet, events, sim_config);
    let mut engine = fixture_engine(threads);
    for _ in 0..WARM_WINDOWS {
        observe_window(&mut sim, &mut engine, layout);
    }
    engine.drain_recommendations();
    (sim, engine)
}

/// Ring capacity of the fixture's planner (a 12-value totals tail).
const WINDOW_CAPACITY: usize = 64;

/// The fixture's planner, replanning every [`REPLAN_EVERY`] windows.
fn fixture_engine(threads: usize) -> SweepEngine {
    let config = OnlinePlannerConfig {
        window_capacity: WINDOW_CAPACITY,
        min_fit_windows: 32,
        replan_every: REPLAN_EVERY,
        threads,
        // The fixture fleet is tiny (3 pools), so the small-fleet fan-out
        // clamp would pin it sequential; force one-pool chunks so the
        // multi-thread variants actually measure the parallel path.
        min_pool_chunk: 1,
        ..OnlinePlannerConfig::default()
    };
    SweepEngine::new(config, QosRequirement::latency(50.0).with_cpu_ceiling(90.0))
}

/// Windows between totals-tail refills under a strictly falling stream
/// once the window is full: each window evicts the tail's maximum and the
/// arrival (the new minimum) never joins, so a refilled tail of
/// [`tail_capacity`] values shrinks by one per window and is refilled on
/// the window it drops below what the peak reads. Any run of this many
/// consecutive windows therefore contains a refill for every pool.
pub fn tail_refill_period() -> u64 {
    let need = top_values_needed(WINDOW_CAPACITY, PEAK_PERCENTILE);
    (tail_capacity(WINDOW_CAPACITY) - need + 1) as u64
}

/// Pools in the refill fixture.
const REFILL_POOLS: u32 = 3;

/// One window of the refill fixture: every pool's per-server workload
/// falls by one RPS a window (from 900), on the service-B response curves.
fn falling_window(w: u64) -> Vec<(PoolId, PoolWindowAggregate)> {
    (0..REFILL_POOLS)
        .map(|p| {
            let rps = 900.0 - w as f64 + f64::from(p) * 0.25;
            let agg = PoolWindowAggregate {
                window: WindowIndex(w),
                rps_per_server: rps,
                cpu_pct: 0.028 * rps + 1.37,
                latency_p95_ms: 4.028e-5 * rps * rps - 0.031 * rps + 36.68,
                disk_queue: 1.0,
                memory_pages_per_sec: 4000.0,
                network_mbps: 0.32 * rps,
                active_servers: 8,
            };
            (PoolId(p), agg)
        })
        .collect()
}

/// Counts heap allocations over [`tail_refill_period`] warmed, non-replan
/// windows of the engine fed a strictly falling workload (pre-aggregated,
/// so the count covers the sweep alone) — a span that includes a totals
/// tail refill from the aggregate ring in every pool. The inputs are built
/// before the count starts. Same fixture contract as
/// [`measure_steady_state_allocs`].
///
/// # Panics
///
/// Panics when the fixture is broken: the span would cross a replan tick,
/// warm-up did not end on one, or the fleet is unplanned or urgent.
pub fn measure_tail_refill_allocs(threads: usize) -> u64 {
    let _exclusive = exclusive();
    let period = tail_refill_period();
    assert!(period < REPLAN_EVERY, "alloc fixture: the refill span must dodge the replan tick");
    let mut engine = fixture_engine(threads);
    for w in 0..WARM_WINDOWS {
        engine.observe_aggregates(WindowIndex(w), &falling_window(w));
    }
    engine.drain_recommendations();
    assert_fixture_ready(&engine);
    let inputs: Vec<_> = (WARM_WINDOWS..WARM_WINDOWS + period).map(falling_window).collect();
    let before = alloc_track::allocations();
    for (w, window) in (WARM_WINDOWS..).zip(&inputs) {
        engine.observe_aggregates(WindowIndex(w), window);
    }
    alloc_track::allocations() - before
}

/// Counts heap allocations over [`MEASURED_WINDOWS`] warmed, non-replan
/// windows of the full pipeline in the requested layout. Meaningful only
/// when [`alloc_track::is_tracking`] (the `repro` binary or the dedicated
/// integration test install the counting allocator); always 0 otherwise.
///
/// # Panics
///
/// Panics when the fixture itself is broken — warm-up not ending on a
/// replan tick, or the fleet unplanned/urgent (an urgent pool legitimately
/// replans every window, which would make a nonzero count a fixture bug,
/// not an allocation-contract violation).
pub fn measure_steady_state_allocs(threads: usize, layout: SnapshotLayout) -> u64 {
    let _exclusive = exclusive();
    measure(warmed(threads, layout), layout)
}

/// [`measure_steady_state_allocs`] on the scenario-active fixture: the
/// same contract while a `DatacenterLoss` + global surge are live.
pub fn measure_steady_state_allocs_scenario(threads: usize, layout: SnapshotLayout) -> u64 {
    let _exclusive = exclusive();
    measure(warmed_scenario(threads, layout), layout)
}

/// The measured span starts right after a replan tick, on a planned fleet
/// none of whose pools is urgent (urgent pools replan every window).
fn assert_fixture_ready(engine: &SweepEngine) {
    assert!(
        engine.windows_seen().is_multiple_of(REPLAN_EVERY),
        "alloc fixture: warm-up must end on a replan tick"
    );
    assert!(
        !engine.assessments().is_empty()
            && engine.assessments().values().all(|a| !a.band.needs_capacity()),
        "alloc fixture: the measured fleet must be planned and non-urgent"
    );
}

fn measure((mut sim, mut engine): (Simulation, SweepEngine), layout: SnapshotLayout) -> u64 {
    assert_fixture_ready(&engine);
    let before = alloc_track::allocations();
    for _ in 0..MEASURED_WINDOWS {
        observe_window(&mut sim, &mut engine, layout);
    }
    alloc_track::allocations() - before
}
