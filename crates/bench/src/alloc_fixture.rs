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
use headroom_online::planner::OnlinePlannerConfig;
use headroom_online::sweep::SweepEngine;
use headroom_telemetry::ids::DatacenterId;
use headroom_telemetry::time::SimTime;
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
    let config = OnlinePlannerConfig {
        window_capacity: 64,
        min_fit_windows: 32,
        replan_every: REPLAN_EVERY,
        threads,
        // The fixture fleet is tiny (3 pools), so the small-fleet fan-out
        // clamp would pin it sequential; force one-pool chunks so the
        // multi-thread variants actually measure the parallel path.
        min_pool_chunk: 1,
        ..OnlinePlannerConfig::default()
    };
    let mut engine = SweepEngine::new(config, QosRequirement::latency(50.0).with_cpu_ceiling(90.0));
    for _ in 0..WARM_WINDOWS {
        observe_window(&mut sim, &mut engine, layout);
    }
    engine.drain_recommendations();
    (sim, engine)
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

fn measure((mut sim, mut engine): (Simulation, SweepEngine), layout: SnapshotLayout) -> u64 {
    assert!(
        engine.windows_seen().is_multiple_of(REPLAN_EVERY),
        "alloc fixture: warm-up must end on a replan tick"
    );
    assert!(
        !engine.assessments().is_empty()
            && engine.assessments().values().all(|a| !a.band.needs_capacity()),
        "alloc fixture: the measured fleet must be planned and non-urgent"
    );
    let before = alloc_track::allocations();
    for _ in 0..MEASURED_WINDOWS {
        observe_window(&mut sim, &mut engine, layout);
    }
    alloc_track::allocations() - before
}
