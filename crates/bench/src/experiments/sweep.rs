//! The shard-and-merge sweep engine at paper fleet scale.
//!
//! Not a paper artifact: this experiment validates the three contracts of
//! `headroom_online::sweep::SweepEngine`:
//!
//! 1. **determinism** — on the paper-shaped fleet (9 datacenters × 9
//!    services = 81 pools), the sharded sweep produces recommendations and
//!    assessments *identical* to the sequential planner, across seeds;
//! 2. **scaling** — a synthetic-fleet grid (8/81/512/4096/16384 pools ×
//!    1/2/4 threads × both snapshot layouts, persistent worker pool with
//!    scoped contrast cells) measures per-window cost: the spawn
//!    amortization, where `threads > 1` crosses below sequential, and the
//!    columnar-vs-row trajectory at fleet scale. A per-pass breakdown
//!    (single-thread columnar cells through
//!    `SweepEngine::enable_pass_timing`) records where the window goes —
//!    aggregate build, the four plane passes, the scalar estimator pass,
//!    and replanning; a totals-pass trajectory times the totals pass
//!    while the default 1440-window ring fills and for half a ring past
//!    it, where evictions and tail refills run. Full-scale release runs
//!    extend the grid with a 65536-pool row and the million-pool stretch
//!    window, and a regression guard fails the experiment when 16384-pool
//!    per-pool cost exceeds [`PER_POOL_RATIO_CEILING`]× the 512-pool
//!    figure;
//! 3. **zero steady-state allocation** — a warmed, non-replan window
//!    through `step_snapshot_partitioned` → `SweepEngine::sweep` must not
//!    touch the heap, and neither must the columnar twin
//!    (`step_columns_partitioned` → `observe_columns`). When the `repro`
//!    binary's counting allocator is installed, a nonzero count **fails
//!    the experiment** (and therefore CI); under plain `cargo test` the
//!    counter is inert and only the determinism/scaling contracts are
//!    exercised.
//!
//! On the 4096-pool persistent-vs-scoped inversion PR 4's grid recorded
//! (scoped 4.79 ms vs persistent 5.14 ms at 4 threads): profiling showed
//! it was not chunk geometry — chunks already scale as `pools / threads`
//! (now pinned by `headroom_exec::chunk_len`'s unit test) — but
//! measurement noise on top of a window cost dominated by the planner's
//! pointer-chasing treap, whose cache misses swamped the ~100 µs/window
//! exec-mode delta. With the treap replaced by the sorted totals column
//! and assessments written in place (PR 5), per-window cost at 4096 pools
//! dropped ~2.5× and the persistent pool measures at or below the scoped
//! shape again at every width; the grid keeps both cells so any
//! re-inversion stays visible.
//!
//! `repro sweep` also emits the machine-readable `BENCH_sweep.json`
//! (per-window ns by fleet size × thread count, plus the allocation
//! count), checked in per PR so the perf trajectory is tracked.
//!
//! Seeds are swept in parallel — each seed owns two simulations and two
//! engines on its own worker thread, so the harness itself exercises the
//! scenario-level parallelism the ROADMAP asked of the experiment suite.

use std::error::Error;
use std::fmt;
use std::time::{Duration, Instant};

use headroom_cluster::columns::ColumnarSnapshot;
use headroom_cluster::scenario::FleetScenario;
use headroom_cluster::sim::{PartitionedSnapshot, RecordingPolicy, SnapshotLayout};
use headroom_core::report::render_table;
use headroom_core::slo::QosRequirement;
use headroom_exec::alloc_track;
use headroom_online::planner::{OnlinePlannerConfig, PoolWindowAggregate, SweepExec};
use headroom_online::sweep::{SweepEngine, PASS_COUNT, PASS_NAMES};
use headroom_service::checkpoint;
use headroom_telemetry::ids::PoolId;
use headroom_telemetry::time::WindowIndex;

use crate::csv::CsvTable;
use crate::synthetic::{
    synthetic_columns, synthetic_snapshots, synthetic_streamed, warmed_engine,
    warmed_engine_columns, warmed_engine_streamed, RecordedColumns, RecordedWindow,
    StreamedFixture,
};
use crate::Scale;

/// Fan-out width of the sharded engine under test.
pub const SHARDED_THREADS: usize = 4;

/// One seed's sequential-vs-sharded comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSeedRow {
    /// Seed driving both simulations.
    pub seed: u64,
    /// Whether assessments *and* recommendations matched exactly.
    pub identical: bool,
    /// Recommendations both engines emitted.
    pub recommendations: usize,
    /// Pools the engines planned.
    pub pools_planned: usize,
    /// Mean per-window planning cost, sequential engine.
    pub per_window_seq: Duration,
    /// Mean per-window planning cost, sharded engine.
    pub per_window_sharded: Duration,
}

/// One cell of the scaling grid: per-window planning cost for one
/// synthetic fleet size at one fan-out width, execution mode, and snapshot
/// layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScalingCell {
    /// Pools in the synthetic fleet.
    pub pools: u32,
    /// Fan-out width.
    pub threads: usize,
    /// Execution mode: `"persistent"` (worker pool) or `"scoped"` (legacy
    /// spawn-per-window, measured for the amortization headline).
    pub exec: &'static str,
    /// Snapshot layout ingested: `"columns"` (the struct-of-arrays hot
    /// path) or `"rows"` (the legacy layout, kept measured for the A/B
    /// trajectory).
    pub path: &'static str,
    /// Per-window cost in nanoseconds: the fastest of `GRID_REPEATS`
    /// repeats, each the mean over enough warmed windows to hold total
    /// work per repeat constant across fleet sizes
    /// (`POOL_WINDOWS_PER_REPEAT` pool-windows — equal-length repeats keep
    /// min-of-N comparable between cells; see the constant's doc).
    /// Minimum-of-N, *not* a grand mean — interference only ever slows a
    /// run, so the minimum is the least-noisy estimator for a checked-in
    /// artifact.
    pub per_window_ns: u64,
}

/// Checkpoint cost at one fleet size: the serialized size of a warmed
/// engine's full-state checkpoint (`headroom_service::checkpoint`) and the
/// fastest-of-`GRID_REPEATS` restore latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointCell {
    /// Pools in the synthetic fleet.
    pub pools: u32,
    /// Checkpoint size, bytes.
    pub bytes: usize,
    /// Fastest observed `checkpoint::load` latency, nanoseconds.
    pub restore_ns: u64,
}

/// The million-pool stretch measurement: steady-state window cost of the
/// slot-major store at 2^20 pools, one server per pool, single thread —
/// the materialised columnar path (comparable with the checked-in
/// trajectory) and its streamed tile-fused twin, whose per-pass breakdown
/// carries the `sim_kernel` pass the fused pipeline adds. Measured only at
/// full scale (release, not `--quick`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MillionPoolCell {
    /// Pools in the stretch fleet (2^20).
    pub pools: u32,
    /// Servers per pool (1 — the window cost is per-pool dominated).
    pub servers_per_pool: u32,
    /// Fastest-of-repeats mean per-window cost, nanoseconds (columns).
    pub per_window_ns: u64,
    /// Fastest-of-repeats mean per-window cost of the streamed path:
    /// kernel generation fused into the tile passes, metric columns never
    /// materialised.
    pub streamed_per_window_ns: u64,
    /// Per-pass breakdown of the streamed window (a separate timed run —
    /// the untimed repeats above carry no clock reads), indexed like
    /// [`PASS_NAMES`].
    pub streamed_pass_ns: [u64; PASS_COUNT],
}

/// Per-pass timing at one breakdown shape: the per-window nanoseconds each
/// plane-at-a-time pass of the sweep spent, measured single-thread (the
/// engine times only single-chunk windows, where the calling thread
/// observes every pass).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassBreakdownCell {
    /// Pools in the synthetic fleet.
    pub pools: u32,
    /// Fan-out width (always 1 — multi-chunk windows are untimed).
    pub threads: usize,
    /// Ingestion path timed: `"columns"` (materialised; the `sim_kernel`
    /// pass is structurally zero) or `"streamed"` (tile-fused kernel
    /// generation, `sim_kernel` broken out).
    pub path: &'static str,
    /// Per-window nanoseconds per pass, indexed like [`PASS_NAMES`]. The
    /// fastest-of-`GRID_REPEATS` repeat's whole array is recorded — one
    /// repeat's passes stay mutually consistent, whereas per-pass minima
    /// across repeats would fabricate a window no run produced.
    pub per_window_pass_ns: [u64; PASS_COUNT],
}

/// The totals pass across the life of a default-capacity window: its
/// single-thread cost per window over three equal spans — the first and
/// second half of the ring's fill, and the same length past capacity,
/// where every window evicts and drained tails refill from the ring.
/// Flat across the three is the top-K tail's contract; a sorted-window
/// store grows with the window's length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TotalsTrajectory {
    /// Pools in the synthetic fleet.
    pub pools: u32,
    /// Ring capacity (the default `window_capacity`).
    pub window_capacity: usize,
    /// Totals-pass nanoseconds per window over each span, in order.
    pub per_window_ns: [u64; 3],
}

/// The experiment report.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// Pools in the fleet.
    pub pools: usize,
    /// Servers in the fleet.
    pub servers: usize,
    /// Windows driven per seed.
    pub windows: u64,
    /// Fan-out width of the sharded engine.
    pub threads: usize,
    /// Per-seed rows.
    pub rows: Vec<SweepSeedRow>,
    /// Spawn-amortization grid: fleet size × thread count.
    pub scaling: Vec<ScalingCell>,
    /// Checkpoint size and restore latency at the identity (81) and
    /// fleet (4096) shapes — plus 16384 at full scale.
    pub checkpoint: Vec<CheckpointCell>,
    /// The million-pool window measurement, when run at full scale.
    pub million_pool: Option<MillionPoolCell>,
    /// Per-pass window-cost breakdown at the [`BREAKDOWN_POOLS`] shapes
    /// (debug builds keep the 4096 row only, like the scaling grid).
    pub pass_breakdown: Vec<PassBreakdownCell>,
    /// The totals pass filling and past the default window capacity.
    pub totals_trajectory: TotalsTrajectory,
    /// Heap allocations counted over the steady-state measurement windows
    /// of the row path (must be 0 when `alloc_tracking`).
    pub steady_state_allocs: u64,
    /// Heap allocations over the steady-state windows of the columnar path
    /// (must equally be 0 when `alloc_tracking`).
    pub columnar_steady_state_allocs: u64,
    /// Whether the counting allocator was installed (true under `repro`,
    /// false under plain `cargo test`, where the count is meaningless).
    pub alloc_tracking: bool,
    /// Logical cores of the host the artifact was measured on.
    pub host_cores: usize,
    /// Build profile the numbers were taken under (`release` / `debug`).
    pub build: &'static str,
    /// Run scale (`full` / `quick`) — quick and debug runs skip the
    /// extended rows, so the artifact records which kind produced it.
    pub run_scale: &'static str,
}

/// PR 4's checked-in per-window figure at 4096 pools, threads 1 (row
/// layout) — the pre-columnar baseline the pipeline's ≥1.5× per-window
/// acceptance bar is measured against.
///
/// Methodology caveat: PR 4 recorded a *single* 24-window mean, while the
/// current grid records the fastest of five such means, which on this
/// host's ±20% noise band can sit 10–20% below a comparable single
/// sample. The derived speedup is therefore an upper-ish estimate; even
/// the noisiest observed runs (single samples right after heavy load)
/// still measured ≥2×, so the ≥1.5× bar clears under either methodology.
pub const BASELINE_PR4_4096X1_NS: u64 = 5_252_105;

/// PR 6's checked-in checkpoint size at 4096 pools — the per-shard-buffer
/// encoding the slot-major plane store's checkpoint is compared against.
pub const CHECKPOINT_BASELINE_PR6_BYTES_4096: usize = 23_847_105;

/// Ceiling on the 16384-pool per-pool window cost relative to the
/// 512-pool figure. The slot-major store's contract is near-flat per-pool
/// cost past cache capacity; a regression re-introducing per-shard pointer
/// chasing trips this guard and fails the experiment. PR 6 measured ~2.4×
/// here; the plane store landed at ~1.3× (DRAM-latency tax from the ~8
/// access streams the fused per-pool observe interleaved), and the
/// pass-structured window kernels — one plane at a time over the whole
/// lane range, with a cache-resident inter-pass scratch, tile-local
/// replanning, and a single fused scalar+replan walk over the shard
/// array — brought the measured ratio down to ~1.05× (essentially flat).
/// The ceiling keeps margin over run-to-run host noise while still
/// catching a slide back toward the fused per-pool figure.
pub const PER_POOL_RATIO_CEILING: f64 = 1.35;

impl SweepReport {
    /// Whether every seed matched bit-for-bit.
    pub fn all_identical(&self) -> bool {
        self.rows.iter().all(|r| r.identical)
    }

    /// Mean sequential-over-sharded per-window cost ratio (> 1 means the
    /// fan-out won).
    pub fn speedup(&self) -> f64 {
        let (mut seq, mut sharded) = (0.0, 0.0);
        for r in &self.rows {
            seq += r.per_window_seq.as_secs_f64();
            sharded += r.per_window_sharded.as_secs_f64();
        }
        if sharded <= 0.0 {
            f64::INFINITY
        } else {
            seq / sharded
        }
    }
}

fn engine_for(
    fleet: &headroom_cluster::topology::Fleet,
    config: OnlinePlannerConfig,
) -> SweepEngine {
    // Per-pool QoS from the service catalog, as the batch fleet experiments
    // derive it.
    let mut engine = SweepEngine::new(config, QosRequirement::latency(50.0).with_cpu_ceiling(90.0));
    for pool in fleet.pools() {
        engine.set_qos(
            pool.id,
            QosRequirement::latency(pool.service.spec().latency_slo_ms).with_cpu_ceiling(90.0),
        );
    }
    engine
}

fn run_seed(seed: u64, fraction: f64, windows: u64) -> SweepSeedRow {
    let drive = |threads: usize| {
        let scenario = FleetScenario::paper_scale(seed, fraction)
            .with_recording(RecordingPolicy::SnapshotOnly);
        let config = OnlinePlannerConfig {
            window_capacity: windows as usize,
            min_fit_windows: 180.min(windows as usize / 2),
            threads,
            ..OnlinePlannerConfig::default()
        };
        let mut sim = scenario.into_simulation();
        let mut engine = engine_for(sim.fleet(), config);
        let mut recs = Vec::new();
        let mut spent = Duration::ZERO;
        for _ in 0..windows {
            let snap = sim.step_snapshot_partitioned();
            let t = Instant::now();
            engine.observe_partitioned(&snap);
            spent += t.elapsed();
            recs.extend(engine.drain_recommendations());
        }
        (engine, recs, spent / windows.max(1) as u32)
    };
    let (seq_engine, seq_recs, per_window_seq) = drive(1);
    let (sharded_engine, sharded_recs, per_window_sharded) = drive(SHARDED_THREADS);
    let identical =
        seq_engine.assessments() == sharded_engine.assessments() && seq_recs == sharded_recs;
    SweepSeedRow {
        seed,
        identical,
        recommendations: seq_recs.len(),
        pools_planned: seq_engine.assessments().len(),
        per_window_seq,
        per_window_sharded,
    }
}

/// Fleet sizes of the scaling grid. 16384 entered with the columnar
/// pipeline: the ROADMAP's 100k-server shapes need per-pool cost to stay
/// flat well past cache capacity, so the grid must keep measuring it.
pub const SCALING_POOLS: [u32; 5] = [8, 81, 512, 4096, 16384];
/// The extended grid row, measured only at full scale (release `repro`
/// without `--quick`): single-thread persistent cells at both layouts,
/// one order past the always-measured 16384.
pub const EXTENDED_POOLS: u32 = 65_536;
/// The million-pool stretch fleet: 2^20 pools, one server each.
pub const MILLION_POOLS: u32 = 1_048_576;
/// Fan-out widths of the scaling grid.
pub const SCALING_THREADS: [usize; 3] = [1, 2, 4];
/// Ingestion paths of the scaling grid: the materialised columnar path,
/// the legacy row layout it is A/B'd against, and the streamed tile-fused
/// path (kernel generation inside the sweep — the closed-loop default).
pub const SCALING_PATHS: [&str; 3] = ["columns", "rows", "streamed"];

const GRID_WARM_WINDOWS: u64 = 72;
const GRID_MEASURE_WINDOWS: u64 = 24;
/// Timing repeats per cell; the cell records the fastest repeat. A single
/// 24-window sample on a busy host carries ±20% scheduler/frequency noise
/// — enough to invert adjacent cells spuriously (PR 4's 4096-pool
/// "scoped beats persistent" inversion was exactly such an artifact).
/// Minimum-of-N is the standard cure: interference only ever slows a run.
const GRID_REPEATS: u32 = 5;
/// Work per timing repeat, in pool-windows: every cell measures the same
/// total work per repeat ([`measure_windows`] scales the window count
/// down as fleets grow, floored at [`GRID_MEASURE_WINDOWS`]). With a
/// fixed window count instead, a small fleet's repeat spans a few ms of
/// wall-clock — short enough for one of five repeats to land in a quiet
/// scheduler slot — while a 16384-pool repeat spans ~200 ms and averages
/// over every noise burst; min-of-N is then biased *down* for small cells
/// and *up* for large ones, and the per-pool scaling ratio the guard
/// checks inflates with host noise rather than planner cost. Equal work
/// per repeat removes that asymmetry.
const POOL_WINDOWS_PER_REPEAT: u64 = 16_384 * GRID_MEASURE_WINDOWS;

/// Windows per timing repeat at one fleet size (see
/// [`POOL_WINDOWS_PER_REPEAT`]). Debug builds (the `cargo test` path)
/// keep the flat [`GRID_MEASURE_WINDOWS`] — their numbers never become
/// the artifact, and unoptimized equal-work repeats would take minutes.
fn measure_windows(pools: u32) -> u64 {
    if cfg!(debug_assertions) {
        GRID_MEASURE_WINDOWS
    } else {
        (POOL_WINDOWS_PER_REPEAT / u64::from(pools)).max(GRID_MEASURE_WINDOWS)
    }
}

/// Measures one grid cell: the fastest-of-[`GRID_REPEATS`] warmed
/// per-window cost of one (fleet size, width, exec mode, layout)
/// combination (each repeat averages [`measure_windows`] windows — equal
/// work per repeat at every fleet size).
fn measure_cell(
    snapshots: &[RecordedWindow],
    columns: &[RecordedColumns],
    streamed: &StreamedFixture,
    pools: u32,
    threads: usize,
    exec: SweepExec,
    path: &'static str,
) -> ScalingCell {
    let config = OnlinePlannerConfig {
        window_capacity: 48,
        min_fit_windows: 24,
        threads,
        exec,
        ..OnlinePlannerConfig::default()
    };
    let mut engine = match path {
        "columns" => warmed_engine_columns(columns, config),
        "streamed" => warmed_engine_streamed(streamed, config),
        _ => warmed_engine(snapshots, config),
    };
    let mut next_window = GRID_WARM_WINDOWS;
    let mut per_window_ns = u64::MAX;
    let windows = measure_windows(pools);
    for _ in 0..GRID_REPEATS {
        let t = Instant::now();
        for _ in 0..windows {
            let window = WindowIndex(next_window);
            let recorded = (next_window % GRID_WARM_WINDOWS) as usize;
            match path {
                "columns" => {
                    let (cols, slices) = &columns[recorded];
                    engine.observe_columns(&headroom_cluster::columns::ColumnarSnapshot {
                        window,
                        columns: cols,
                        pools: slices,
                    });
                }
                "streamed" => {
                    engine.observe_streamed(&streamed.window(recorded, window));
                }
                _ => {
                    let (rows, slices) = &snapshots[recorded];
                    engine.observe_partitioned(&PartitionedSnapshot {
                        window,
                        rows,
                        pools: slices,
                    });
                }
            }
            engine.drain_recommendations();
            next_window += 1;
        }
        per_window_ns = per_window_ns.min((t.elapsed().as_nanos() / windows as u128) as u64);
    }
    let exec = match exec {
        SweepExec::Persistent => "persistent",
        SweepExec::Scoped => "scoped",
    };
    ScalingCell { pools, threads, exec, path, per_window_ns }
}

/// Fleet sizes the checkpoint cost is measured at: the paper-shaped
/// identity fleet and the largest always-measured grid shape.
pub const CHECKPOINT_POOLS: [u32; 2] = [81, 4096];
/// The extended checkpoint shape, measured only at full scale.
pub const EXTENDED_CHECKPOINT_POOLS: u32 = 16_384;

/// Measures checkpoint size and restore latency of a warmed engine at the
/// [`CHECKPOINT_POOLS`] shapes (plus [`EXTENDED_CHECKPOINT_POOLS`] at full
/// scale), on the same synthetic fixture and planner config as the scaling
/// grid so the numbers describe the same engines.
fn measure_checkpoints(full: bool) -> Vec<CheckpointCell> {
    let mut shapes: Vec<u32> = CHECKPOINT_POOLS.to_vec();
    if full {
        shapes.push(EXTENDED_CHECKPOINT_POOLS);
    }
    shapes
        .iter()
        .map(|&pools| {
            let snapshots = synthetic_snapshots(pools, 3, GRID_WARM_WINDOWS);
            let config = OnlinePlannerConfig {
                window_capacity: 48,
                min_fit_windows: 24,
                ..OnlinePlannerConfig::default()
            };
            let engine = warmed_engine(&snapshots, config);
            let bytes = checkpoint::save(&engine);
            let mut restore_ns = u64::MAX;
            for _ in 0..GRID_REPEATS {
                let t = Instant::now();
                let restored = checkpoint::load(&bytes).expect("own checkpoint loads");
                restore_ns = restore_ns.min(t.elapsed().as_nanos() as u64);
                drop(restored);
            }
            CheckpointCell { pools, bytes: bytes.len(), restore_ns }
        })
        .collect()
}

/// Measures the scaling grid: persistent workers at every fleet size ×
/// thread count × snapshot layout, plus the legacy scoped shape at
/// `threads > 1` so the removed spawn cost stays visible (and tracked) per
/// PR.
///
/// Deliberately *not* scaled by `--quick`: the grid is the checked-in
/// `BENCH_sweep.json` artifact, and cross-PR comparability requires every
/// run to measure the same fleet sizes. It is sized to stay in low seconds
/// per cell even at 16384 pools. `full` (release `repro` without
/// `--quick`) additionally measures the [`EXTENDED_POOLS`] row:
/// single-thread persistent cells at both layouts, recorded in the
/// artifact but outside the cross-thread grid.
fn measure_scaling(full: bool) -> Vec<ScalingCell> {
    // Debug builds (the `cargo test` path) skip the 16384-pool row — it
    // costs ~45 s unoptimized and proves nothing the 4096-pool row does
    // not. The checked-in artifact is always produced by the release
    // `repro` binary, which measures the full grid.
    let measured: &[u32] =
        if cfg!(debug_assertions) { &SCALING_POOLS[..4] } else { &SCALING_POOLS };
    let mut cells = Vec::new();
    for &pools in measured {
        let snapshots = synthetic_snapshots(pools, 3, GRID_WARM_WINDOWS);
        let columns = synthetic_columns(&snapshots);
        let streamed = synthetic_streamed(&columns);
        for &path in &SCALING_PATHS {
            for &threads in &SCALING_THREADS {
                cells.push(measure_cell(
                    &snapshots,
                    &columns,
                    &streamed,
                    pools,
                    threads,
                    SweepExec::Persistent,
                    path,
                ));
                if threads > 1 {
                    cells.push(measure_cell(
                        &snapshots,
                        &columns,
                        &streamed,
                        pools,
                        threads,
                        SweepExec::Scoped,
                        path,
                    ));
                }
            }
        }
    }
    if full {
        let snapshots = synthetic_snapshots(EXTENDED_POOLS, 3, GRID_WARM_WINDOWS);
        let columns = synthetic_columns(&snapshots);
        let streamed = synthetic_streamed(&columns);
        for &path in &SCALING_PATHS {
            cells.push(measure_cell(
                &snapshots,
                &columns,
                &streamed,
                EXTENDED_POOLS,
                1,
                SweepExec::Persistent,
                path,
            ));
        }
    }
    cells
}

/// Fleet sizes the per-pass breakdown is measured at: both ends of the
/// per-pool scaling guard (512 and 16384) plus the fleet shape, so a
/// guard trip attributes to the exact pass that stopped scaling. Debug
/// builds (the `cargo test` path) keep the 4096 row only, matching the
/// scaling grid's economy; the checked-in artifact carries all three.
pub const BREAKDOWN_POOLS: [u32; 3] = [4096, 512, 16384];

/// Measures the per-pass window-cost breakdown: single-thread cells at the
/// [`BREAKDOWN_POOLS`] shapes with [`SweepEngine::enable_pass_timing`] on
/// — the materialised columnar path and its streamed tile-fused twin —
/// same fixture and planner config as the scaling grid so the pass sums
/// line up with the grid's single-thread cells (modulo the timer's own
/// `Instant` reads).
fn measure_pass_breakdown() -> Vec<PassBreakdownCell> {
    let measured: &[u32] =
        if cfg!(debug_assertions) { &BREAKDOWN_POOLS[..1] } else { &BREAKDOWN_POOLS };
    let mut cells = Vec::new();
    for &pools in measured {
        let snapshots = synthetic_snapshots(pools, 3, GRID_WARM_WINDOWS);
        let columns = synthetic_columns(&snapshots);
        let streamed = synthetic_streamed(&columns);
        let config = OnlinePlannerConfig {
            window_capacity: 48,
            min_fit_windows: 24,
            threads: 1,
            ..OnlinePlannerConfig::default()
        };
        for path in ["columns", "streamed"] {
            let columnar = path == "columns";
            let mut engine = if columnar {
                warmed_engine_columns(&columns, config)
            } else {
                warmed_engine_streamed(&streamed, config)
            };
            let mut next_window = GRID_WARM_WINDOWS;
            let mut best_total = u64::MAX;
            let mut best = [0u64; PASS_COUNT];
            let windows = measure_windows(pools);
            for _ in 0..GRID_REPEATS {
                engine.enable_pass_timing();
                for _ in 0..windows {
                    let recorded = (next_window % GRID_WARM_WINDOWS) as usize;
                    let window = WindowIndex(next_window);
                    if columnar {
                        let (cols, slices) = &columns[recorded];
                        engine.observe_columns(&ColumnarSnapshot {
                            window,
                            columns: cols,
                            pools: slices,
                        });
                    } else {
                        engine.observe_streamed(&streamed.window(recorded, window));
                    }
                    engine.drain_recommendations();
                    next_window += 1;
                }
                let mut pass_ns = engine.pass_ns();
                for ns in &mut pass_ns {
                    *ns /= windows;
                }
                let total: u64 = pass_ns.iter().sum();
                if total < best_total {
                    best_total = total;
                    best = pass_ns;
                }
            }
            cells.push(PassBreakdownCell { pools, threads: 1, path, per_window_pass_ns: best });
        }
    }
    cells
}

/// Pools in the totals trajectory (debug builds use fewer: the test path
/// only checks the figure exists).
const TRAJECTORY_POOLS: u32 = if cfg!(debug_assertions) { 32 } else { 1024 };

/// Times the totals pass over [`TotalsTrajectory`]'s three spans: an
/// engine at the default config (one thread, so every window is timed)
/// fed pre-aggregated diurnal-plus-noise workload, so the cost is the
/// store's alone.
fn measure_totals_trajectory() -> TotalsTrajectory {
    let config = OnlinePlannerConfig { threads: 1, ..OnlinePlannerConfig::default() };
    let cap = config.window_capacity;
    let span = (cap / 2) as u64;
    let mut engine = SweepEngine::new(config, QosRequirement::latency(32.5).with_cpu_ceiling(90.0));
    let totals = PASS_NAMES.iter().position(|&n| n == "totals").expect("a totals pass");
    let mut per_window_ns = [0u64; 3];
    let mut inputs = Vec::with_capacity(TRAJECTORY_POOLS as usize);
    let mut w = 0u64;
    for ns in &mut per_window_ns {
        engine.enable_pass_timing();
        for _ in 0..span {
            inputs.clear();
            inputs.extend((0..TRAJECTORY_POOLS).map(|p| {
                // One sinusoid period per ring length, phase-shifted per
                // pool, plus hashed jitter: tops arrive and leave all
                // through the window.
                let phase = (w + 37 * u64::from(p)) as f64 * std::f64::consts::TAU / cap as f64;
                let jitter = ((w * 2_654_435_761 + u64::from(p) * 40_503) % 1000) as f64 / 50.0;
                let rps = 300.0 + 120.0 * phase.sin() + jitter;
                let agg = PoolWindowAggregate {
                    window: WindowIndex(w),
                    rps_per_server: rps,
                    cpu_pct: 0.028 * rps + 1.37,
                    latency_p95_ms: 4.028e-5 * rps * rps - 0.031 * rps + 36.68,
                    disk_queue: 1.0,
                    memory_pages_per_sec: 4000.0,
                    network_mbps: 0.32 * rps,
                    active_servers: 4,
                };
                (PoolId(p), agg)
            }));
            engine.observe_aggregates(WindowIndex(w), &inputs);
            engine.drain_recommendations();
            w += 1;
        }
        *ns = engine.pass_ns()[totals] / span;
    }
    TotalsTrajectory { pools: TRAJECTORY_POOLS, window_capacity: cap, per_window_ns }
}

/// Recorded windows of the million-pool fixture; the drive cycles them.
const MILLION_RECORDED_WINDOWS: u64 = 12;
/// Warm-up windows at the million-pool shape. Must exceed every ring
/// capacity — the 24-slot aggregate window *and* the 90-slot drift
/// sub-window — so each slot-major plane is fully first-touched before
/// timing starts; at 16 B × 2^20 lanes per drift slot, a cold slot costs
/// ~16 MiB of page faults per window, which is measurement noise, not
/// window cost. 120 also fills the fits and has replans behind it.
const MILLION_WARM_WINDOWS: u64 = 120;
/// Measured windows per repeat at the million-pool shape.
const MILLION_MEASURE_WINDOWS: u64 = 8;
/// Timing repeats at the million-pool shape (each repeat is seconds, so
/// fewer than [`GRID_REPEATS`]). Four repeats spread the min over ~20 s
/// per path, so a transient host-contention burst cannot inflate the
/// recorded trajectory figure the way it could with two.
const MILLION_REPEATS: u32 = 4;

/// Measures the million-pool stretch window: 2^20 pools × 1 server,
/// single thread, a shorter 24-slot window so the fixture stays in memory
/// — first the materialised columnar path (the checked-in trajectory),
/// then the streamed tile-fused twin on the same workload stream, with a
/// final timed run recording the streamed per-pass breakdown (`sim_kernel`
/// broken out). Full scale only — the fixture alone is ~2 GiB and a
/// debug-build window takes minutes.
fn measure_million(full: bool) -> Option<MillionPoolCell> {
    if !full {
        return None;
    }
    let snapshots = synthetic_snapshots(MILLION_POOLS, 1, MILLION_RECORDED_WINDOWS);
    let columns = synthetic_columns(&snapshots);
    drop(snapshots);
    let config = OnlinePlannerConfig {
        window_capacity: 24,
        min_fit_windows: 12,
        ..OnlinePlannerConfig::default()
    };
    let mut engine = SweepEngine::new(config, QosRequirement::latency(50.0).with_cpu_ceiling(90.0));
    let mut next_window = 0u64;
    let mut drive = |engine: &mut SweepEngine, windows: u64| {
        for _ in 0..windows {
            let (cols, slices) = &columns[(next_window % MILLION_RECORDED_WINDOWS) as usize];
            engine.observe_columns(&ColumnarSnapshot {
                window: WindowIndex(next_window),
                columns: cols,
                pools: slices,
            });
            engine.drain_recommendations();
            next_window += 1;
        }
    };
    drive(&mut engine, MILLION_WARM_WINDOWS);
    let mut per_window_ns = u64::MAX;
    for _ in 0..MILLION_REPEATS {
        let t = Instant::now();
        drive(&mut engine, MILLION_MEASURE_WINDOWS);
        per_window_ns =
            per_window_ns.min((t.elapsed().as_nanos() / MILLION_MEASURE_WINDOWS as u128) as u64);
    }
    drop(engine);
    // The streamed twin: same workload stream (the fixture copies each
    // window's RPS column, online bitmask, and partition), metric columns
    // generated tile-at-a-time inside the sweep instead of replayed.
    let streamed = synthetic_streamed(&columns);
    drop(columns);
    let mut engine = SweepEngine::new(config, QosRequirement::latency(50.0).with_cpu_ceiling(90.0));
    let mut next_window = 0u64;
    let mut drive = |engine: &mut SweepEngine, windows: u64| {
        for _ in 0..windows {
            let recorded = (next_window % MILLION_RECORDED_WINDOWS) as usize;
            engine.observe_streamed(&streamed.window(recorded, WindowIndex(next_window)));
            engine.drain_recommendations();
            next_window += 1;
        }
    };
    drive(&mut engine, MILLION_WARM_WINDOWS);
    let mut streamed_per_window_ns = u64::MAX;
    for _ in 0..MILLION_REPEATS {
        let t = Instant::now();
        drive(&mut engine, MILLION_MEASURE_WINDOWS);
        streamed_per_window_ns = streamed_per_window_ns
            .min((t.elapsed().as_nanos() / MILLION_MEASURE_WINDOWS as u128) as u64);
    }
    // Pass attribution from one further timed span; the untimed repeats
    // above stay free of the timer's per-pool clock reads.
    engine.enable_pass_timing();
    drive(&mut engine, MILLION_MEASURE_WINDOWS);
    let mut streamed_pass_ns = engine.pass_ns();
    for ns in &mut streamed_pass_ns {
        *ns /= MILLION_MEASURE_WINDOWS;
    }
    Some(MillionPoolCell {
        pools: MILLION_POOLS,
        servers_per_pool: 1,
        per_window_ns,
        streamed_per_window_ns,
        streamed_pass_ns,
    })
}

/// Runs the sequential-vs-sharded identity comparison over three seeds in
/// parallel, then the spawn-amortization grid and the steady-state
/// allocation count.
///
/// # Errors
///
/// Propagates worker panics, fails outright when any seed's sharded run
/// diverges from the sequential one, and — when the counting allocator is
/// installed (the `repro` binary) — fails when a warmed non-replan window
/// allocated. These are acceptance criteria, so a CI smoke run must go
/// red, not print a sad table and exit 0.
pub fn run(scale: &Scale) -> Result<SweepReport, Box<dyn Error>> {
    let windows = scale.observe_windows();
    let fraction = scale.fleet_fraction;
    let probe = FleetScenario::paper_scale(scale.seed, fraction);
    let pools = probe.fleet().pools().len();
    let servers = probe.fleet().server_count();
    drop(probe);

    let seeds: Vec<u64> = (0..3).map(|i| scale.seed + i).collect();
    let rows: Vec<SweepSeedRow> = std::thread::scope(|scope| {
        let handles: Vec<_> = seeds
            .iter()
            .map(|&seed| scope.spawn(move || run_seed(seed, fraction, windows)))
            .collect();
        handles.into_iter().map(|h| h.join()).collect::<Result<Vec<_>, _>>()
    })
    .map_err(|_| "sweep seed worker panicked")?;

    // Extended rows (65536 pools, the million-pool window) are release +
    // full-scale only: they exist for the checked-in artifact, and a debug
    // or --quick run would spend minutes proving nothing new.
    let full = !cfg!(debug_assertions) && !scale.is_quick();
    let scaling = measure_scaling(full);
    let checkpoint = measure_checkpoints(full);
    let million_pool = measure_million(full);
    let pass_breakdown = measure_pass_breakdown();
    let totals_trajectory = measure_totals_trajectory();
    let alloc_tracking = alloc_track::is_tracking();
    // Both layouts measured on the one shared fixture (crate::alloc_fixture)
    // so the two counts always describe the same workload. The streamed
    // layout's count lives in the colsim gate alongside the other streamed
    // identity contracts.
    let steady_state_allocs =
        crate::alloc_fixture::measure_steady_state_allocs(2, SnapshotLayout::Rows);
    let columnar_steady_state_allocs =
        crate::alloc_fixture::measure_steady_state_allocs(2, SnapshotLayout::Columnar);
    let report = SweepReport {
        pools,
        servers,
        windows,
        threads: SHARDED_THREADS,
        rows,
        scaling,
        checkpoint,
        million_pool,
        pass_breakdown,
        totals_trajectory,
        steady_state_allocs,
        columnar_steady_state_allocs,
        alloc_tracking,
        host_cores: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        build: if cfg!(debug_assertions) { "debug" } else { "release" },
        run_scale: if scale.is_quick() { "quick" } else { "full" },
    };
    if !report.all_identical() {
        return Err(format!("sharded sweep diverged from the sequential planner:\n{report}").into());
    }
    // Scaling-regression guard: per-pool cost must stay near-flat from 512
    // to 16384 pools — the slot-major store's contract, enforced on the
    // materialised columnar path and the streamed tile-fused path alike.
    // Only enforceable when the 16384 row was measured (release builds).
    for path in ["columns", "streamed"] {
        if let (Some(small), Some(large)) =
            (report.cell(512, 1, "persistent", path), report.cell(16384, 1, "persistent", path))
        {
            let small_pp = small as f64 / 512.0;
            let large_pp = large as f64 / 16384.0;
            if large_pp > PER_POOL_RATIO_CEILING * small_pp {
                return Err(format!(
                    "per-pool scaling regression ({path} path): {large_pp:.0} ns/pool at 16384 \
                     pools exceeds {PER_POOL_RATIO_CEILING}x the 512-pool figure ({small_pp:.0} \
                     ns/pool):\n{report}"
                )
                .into());
            }
        }
    }
    if alloc_tracking && steady_state_allocs + columnar_steady_state_allocs > 0 {
        return Err(format!(
            "steady-state window path allocated (rows {steady_state_allocs}, columns \
             {columnar_steady_state_allocs}) — the zero-allocation contract is broken:\n{report}"
        )
        .into());
    }
    Ok(report)
}

impl SweepReport {
    /// CSV export of the comparison and the scaling grid.
    pub fn tables(&self) -> Vec<CsvTable> {
        vec![
            CsvTable {
                name: "sweep_engine".into(),
                headers: vec![
                    "seed".into(),
                    "identical".into(),
                    "pools_planned".into(),
                    "recommendations".into(),
                    "per_window_seq_us".into(),
                    "per_window_sharded_us".into(),
                ],
                rows: self
                    .rows
                    .iter()
                    .map(|r| {
                        vec![
                            r.seed.to_string(),
                            r.identical.to_string(),
                            r.pools_planned.to_string(),
                            r.recommendations.to_string(),
                            format!("{:.1}", r.per_window_seq.as_secs_f64() * 1e6),
                            format!("{:.1}", r.per_window_sharded.as_secs_f64() * 1e6),
                        ]
                    })
                    .collect(),
            },
            CsvTable {
                name: "sweep_scaling".into(),
                headers: vec![
                    "pools".into(),
                    "threads".into(),
                    "exec".into(),
                    "path".into(),
                    "per_window_ns".into(),
                ],
                rows: self
                    .scaling
                    .iter()
                    .map(|c| {
                        vec![
                            c.pools.to_string(),
                            c.threads.to_string(),
                            c.exec.to_string(),
                            c.path.to_string(),
                            c.per_window_ns.to_string(),
                        ]
                    })
                    .collect(),
            },
            CsvTable {
                name: "sweep_pass_breakdown".into(),
                headers: vec![
                    "pools".into(),
                    "threads".into(),
                    "path".into(),
                    "pass".into(),
                    "per_window_ns".into(),
                ],
                rows: self
                    .pass_breakdown
                    .iter()
                    .flat_map(|c| {
                        PASS_NAMES.iter().zip(c.per_window_pass_ns).map(move |(name, ns)| {
                            vec![
                                c.pools.to_string(),
                                c.threads.to_string(),
                                c.path.to_string(),
                                (*name).to_string(),
                                ns.to_string(),
                            ]
                        })
                    })
                    .collect(),
            },
            CsvTable {
                name: "sweep_checkpoint".into(),
                headers: vec!["pools".into(), "bytes".into(), "restore_ns".into()],
                rows: self
                    .checkpoint
                    .iter()
                    .map(|c| {
                        vec![c.pools.to_string(), c.bytes.to_string(), c.restore_ns.to_string()]
                    })
                    .collect(),
            },
        ]
    }

    /// The per-window cost of one grid cell, if measured.
    pub fn cell(&self, pools: u32, threads: usize, exec: &str, path: &str) -> Option<u64> {
        self.scaling
            .iter()
            .find(|c| c.pools == pools && c.threads == threads && c.exec == exec && c.path == path)
            .map(|c| c.per_window_ns)
    }

    /// The measured per-window speedup of the columnar pipeline at the
    /// 4096-pool, single-thread shape against PR 4's checked-in row-path
    /// figure ([`BASELINE_PR4_4096X1_NS`]) — the headline acceptance
    /// number.
    pub fn speedup_vs_baseline_4096(&self) -> Option<f64> {
        self.cell(4096, 1, "persistent", "columns")
            .filter(|&ns| ns > 0)
            .map(|ns| BASELINE_PR4_4096X1_NS as f64 / ns as f64)
    }

    /// The machine-readable `BENCH_sweep.json` payload: the scaling grid
    /// (fleet size × threads × exec × snapshot layout) plus the
    /// steady-state allocation counts of both layouts and the colsim
    /// headline fields, checked in per PR so the perf trajectory is
    /// diffable. All values are numbers/booleans/fixed strings, so the
    /// formatting needs no escaping.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str("  \"experiment\": \"sweep\",\n");
        // Host context: grid numbers are only comparable across artifacts
        // measured under the same profile and scale on similar hardware.
        s.push_str(&format!(
            "  \"host\": {{\"cores\": {}, \"build\": \"{}\", \"scale\": \"{}\"}},\n",
            self.host_cores, self.build, self.run_scale
        ));
        s.push_str(&format!("  \"identity_pools\": {},\n", self.pools));
        s.push_str(&format!("  \"identity_threads\": {},\n", self.threads));
        s.push_str(&format!("  \"identical\": {},\n", self.all_identical()));
        s.push_str(&format!("  \"alloc_tracking\": {},\n", self.alloc_tracking));
        s.push_str(&format!("  \"steady_state_allocations\": {},\n", self.steady_state_allocs));
        s.push_str("  \"colsim\": {\n");
        s.push_str(&format!(
            "    \"columnar_steady_state_allocations\": {},\n",
            self.columnar_steady_state_allocs
        ));
        s.push_str(&format!(
            "    \"baseline_pr4_per_window_ns_4096x1\": {BASELINE_PR4_4096X1_NS},\n"
        ));
        s.push_str(&format!(
            "    \"speedup_vs_baseline_4096x1\": {:.2}\n",
            self.speedup_vs_baseline_4096().unwrap_or(0.0)
        ));
        s.push_str("  },\n");
        if let Some(m) = &self.million_pool {
            s.push_str(&format!(
                "  \"million_pool\": {{\"pools\": {}, \"servers_per_pool\": {}, \
                 \"per_window_ns\": {}, \"streamed_per_window_ns\": {}, \
                 \"streamed_pass_ns\": {{",
                m.pools, m.servers_per_pool, m.per_window_ns, m.streamed_per_window_ns
            ));
            for (j, (name, ns)) in PASS_NAMES.iter().zip(m.streamed_pass_ns).enumerate() {
                s.push_str(&format!(
                    "\"{name}\": {ns}{}",
                    if j + 1 < PASS_COUNT { ", " } else { "" }
                ));
            }
            s.push_str("}},\n");
        }
        s.push_str(&format!(
            "  \"checkpoint_baseline_pr6_bytes_4096\": {CHECKPOINT_BASELINE_PR6_BYTES_4096},\n"
        ));
        s.push_str("  \"checkpoint\": [\n");
        for (i, c) in self.checkpoint.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"pools\": {}, \"bytes\": {}, \"restore_ns\": {}}}{}\n",
                c.pools,
                c.bytes,
                c.restore_ns,
                if i + 1 < self.checkpoint.len() { "," } else { "" }
            ));
        }
        s.push_str("  ],\n");
        s.push_str("  \"pass_ns_breakdown\": [\n");
        for (i, c) in self.pass_breakdown.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"pools\": {}, \"threads\": {}, \"path\": \"{}\", \
                 \"per_window_pass_ns\": {{",
                c.pools, c.threads, c.path
            ));
            for (j, (name, ns)) in PASS_NAMES.iter().zip(c.per_window_pass_ns).enumerate() {
                s.push_str(&format!(
                    "\"{name}\": {ns}{}",
                    if j + 1 < PASS_COUNT { ", " } else { "" }
                ));
            }
            s.push_str(&format!(
                "}}}}{}\n",
                if i + 1 < self.pass_breakdown.len() { "," } else { "" }
            ));
        }
        s.push_str("  ],\n");
        let t = &self.totals_trajectory;
        s.push_str(&format!(
            "  \"totals_trajectory\": {{\"pools\": {}, \"window_capacity\": {}, \
             \"per_window_ns\": {{\"first_half_fill\": {}, \"second_half_fill\": {}, \
             \"past_capacity\": {}}}}},\n",
            t.pools, t.window_capacity, t.per_window_ns[0], t.per_window_ns[1], t.per_window_ns[2]
        ));
        s.push_str("  \"per_window_ns\": [\n");
        for (i, c) in self.scaling.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"pools\": {}, \"threads\": {}, \"exec\": \"{}\", \"path\": \"{}\", \
                 \"per_window_ns\": {}}}{}\n",
                c.pools,
                c.threads,
                c.exec,
                c.path,
                c.per_window_ns,
                if i + 1 < self.scaling.len() { "," } else { "" }
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }
}

impl fmt::Display for SweepReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Shard-and-merge sweep engine: {} pools / {} servers, {} windows, {} threads sharded",
            self.pools, self.servers, self.windows, self.threads
        )?;
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.seed.to_string(),
                    if r.identical { "yes".into() } else { "NO".into() },
                    r.pools_planned.to_string(),
                    r.recommendations.to_string(),
                    format!("{:?}", r.per_window_seq),
                    format!("{:?}", r.per_window_sharded),
                ]
            })
            .collect();
        writeln!(
            f,
            "{}",
            render_table(
                &["Seed", "Identical", "Pools", "Recs", "Seq/window", "Sharded/window"],
                &rows
            )
        )?;
        writeln!(
            f,
            "sequential/sharded per-window ratio: {:.2}x; byte-identical: {}",
            self.speedup(),
            if self.all_identical() { "yes (all seeds)" } else { "NO" }
        )?;

        for &path in &SCALING_PATHS {
            writeln!(
                f,
                "\nScaling grid, {path} layout, per-window (vs = persistent-over-scoped speedup \
                 at the same width — the amortized spawn cost):"
            )?;
            let mut grid_rows: Vec<Vec<String>> = Vec::new();
            for &pools in &SCALING_POOLS {
                let mut row = vec![pools.to_string()];
                for &threads in &SCALING_THREADS {
                    match self.cell(pools, threads, "persistent", path) {
                        Some(p) if p > 0 => {
                            let vs = match self.cell(pools, threads, "scoped", path) {
                                Some(s) => format!(" (vs {:.2}x)", s as f64 / p as f64),
                                None => String::new(),
                            };
                            row.push(format!("{:.1}µs{vs}", p as f64 / 1e3));
                        }
                        _ => row.push("-".into()),
                    }
                }
                grid_rows.push(row);
            }
            // Headers derive from the same constant as the cells, so
            // retuning SCALING_THREADS cannot mislabel a column.
            let headers: Vec<String> = std::iter::once("Pools".to_string())
                .chain(SCALING_THREADS.iter().map(|t| {
                    if *t == 1 {
                        "1 thread".to_string()
                    } else {
                        format!("{t} threads")
                    }
                }))
                .collect();
            let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
            writeln!(f, "{}", render_table(&header_refs, &grid_rows))?;
        }
        if let (Some(small), Some(large)) = (
            self.cell(512, 1, "persistent", "columns"),
            self.cell(16384, 1, "persistent", "columns"),
        ) {
            writeln!(
                f,
                "per-pool window cost: {:.0} ns at 512 pools, {:.0} ns at 16384 pools \
                 ({:.2}x; guard ceiling {PER_POOL_RATIO_CEILING}x)",
                small as f64 / 512.0,
                large as f64 / 16384.0,
                (large as f64 / 16384.0) / (small as f64 / 512.0)
            )?;
        }
        for c in &self.pass_breakdown {
            let total: u64 = c.per_window_pass_ns.iter().sum::<u64>().max(1);
            let parts: Vec<String> = PASS_NAMES
                .iter()
                .zip(c.per_window_pass_ns)
                .map(|(name, ns)| {
                    format!(
                        "{name} {:.1}µs ({:.0}%)",
                        ns as f64 / 1e3,
                        ns as f64 * 100.0 / total as f64
                    )
                })
                .collect();
            writeln!(
                f,
                "pass breakdown at {} pools ({}, {} thread): {}",
                c.pools,
                c.path,
                c.threads,
                parts.join(", ")
            )?;
        }
        let t = &self.totals_trajectory;
        writeln!(
            f,
            "totals pass at {} pools, window capacity {}: {:.1}µs/window first half of the \
             fill, {:.1}µs second half, {:.1}µs past capacity",
            t.pools,
            t.window_capacity,
            t.per_window_ns[0] as f64 / 1e3,
            t.per_window_ns[1] as f64 / 1e3,
            t.per_window_ns[2] as f64 / 1e3
        )?;
        if let Some(ext) = self.cell(EXTENDED_POOLS, 1, "persistent", "columns") {
            writeln!(
                f,
                "extended row at {EXTENDED_POOLS} pools (columns, 1 thread): {:.1}ms/window \
                 ({:.0} ns/pool)",
                ext as f64 / 1e6,
                ext as f64 / EXTENDED_POOLS as f64
            )?;
        }
        if let Some(m) = &self.million_pool {
            writeln!(
                f,
                "million-pool window ({} pools x {} server, 1 thread): columns \
                 {:.1}ms/window, streamed {:.1}ms/window ({:.2}x)",
                m.pools,
                m.servers_per_pool,
                m.per_window_ns as f64 / 1e6,
                m.streamed_per_window_ns as f64 / 1e6,
                m.per_window_ns as f64 / m.streamed_per_window_ns.max(1) as f64
            )?;
            let parts: Vec<String> = PASS_NAMES
                .iter()
                .zip(m.streamed_pass_ns)
                .map(|(name, ns)| format!("{name} {:.1}ms", ns as f64 / 1e6))
                .collect();
            writeln!(f, "million-pool streamed pass breakdown: {}", parts.join(", "))?;
        }
        for c in &self.checkpoint {
            let baseline = if c.pools == 4096 {
                format!(
                    " (plane store vs PR 6's {:.1} MiB: {:.2}x)",
                    CHECKPOINT_BASELINE_PR6_BYTES_4096 as f64 / (1024.0 * 1024.0),
                    c.bytes as f64 / CHECKPOINT_BASELINE_PR6_BYTES_4096 as f64
                )
            } else {
                String::new()
            };
            writeln!(
                f,
                "checkpoint at {} pools: {:.1} KiB, restore {:.1}µs{baseline}",
                c.pools,
                c.bytes as f64 / 1024.0,
                c.restore_ns as f64 / 1e3
            )?;
        }
        if let Some(speedup) = self.speedup_vs_baseline_4096() {
            writeln!(
                f,
                "columnar per-window speedup at 4096x1 vs PR 4 baseline ({:.2}ms): {speedup:.2}x",
                BASELINE_PR4_4096X1_NS as f64 / 1e6
            )?;
        }
        writeln!(
            f,
            "steady-state allocations/10 windows: rows {}, columns {}{}",
            self.steady_state_allocs,
            self.columnar_steady_state_allocs,
            if self.alloc_tracking {
                " (counted — must be 0)"
            } else {
                " (allocator not installed; run via `repro` to count)"
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Diagnostic, not a gate: prints the per-pass breakdown without the
    /// rest of the experiment, for chasing a scaling-guard trip by hand
    /// (`cargo test --release -p headroom-bench -- --ignored print_pass`).
    #[test]
    #[ignore]
    fn print_pass_breakdown() {
        for c in measure_pass_breakdown() {
            let total: u64 = c.per_window_pass_ns.iter().sum();
            println!(
                "pools={} path={} total={}ns ({:.0} ns/pool)",
                c.pools,
                c.path,
                total,
                total as f64 / c.pools as f64
            );
            for (name, ns) in PASS_NAMES.iter().zip(c.per_window_pass_ns) {
                println!(
                    "  {name:10} {ns:>9} ns/window  {:>6.1} ns/pool",
                    ns as f64 / c.pools as f64
                );
            }
        }
    }

    #[test]
    fn sharded_sweep_is_identical_across_seeds() {
        // A reduced fleet keeps the test fast; the 81-pool shape is intact.
        let scale = Scale { observe_days: 0.5, ..Scale::quick() };
        let r = run(&scale).unwrap();
        assert_eq!(r.pools, 81, "paper-shaped fleet");
        assert_eq!(r.rows.len(), 3, "three seeds swept");
        assert!(r.all_identical(), "sharded != sequential: {r}");
        assert!(r.rows.iter().all(|row| row.pools_planned == 81), "every pool planned: {r}");
        assert!(
            r.rows.iter().any(|row| row.recommendations > 0),
            "the overprovisioned fleet yields recommendations: {r}"
        );
        // Per layout: persistent cells at every measured (pools, threads),
        // scoped contrast cells at every (pools, threads > 1). Debug test
        // builds measure the grid without the 16384 row (release `repro`
        // always measures all of it).
        let measured_pools =
            if cfg!(debug_assertions) { SCALING_POOLS.len() - 1 } else { SCALING_POOLS.len() };
        assert_eq!(
            r.scaling.len(),
            SCALING_PATHS.len() * measured_pools * (2 * SCALING_THREADS.len() - 1),
            "full fleet-size × thread × exec × layout grid measured: {r}"
        );
        assert!(r.scaling.iter().all(|c| c.per_window_ns > 0), "grid cells are real timings");
        assert!(!r.alloc_tracking, "plain cargo test has no counting allocator");
        assert!(r.speedup_vs_baseline_4096().is_some(), "headline speedup derivable");
        let json = r.to_json();
        if !cfg!(debug_assertions) {
            assert!(json.contains("\"pools\": 16384"), "extended grid serialized: {json}");
        }
        assert!(json.contains("\"pools\": 4096"), "grid serialized: {json}");
        assert!(json.contains("\"path\": \"columns\""), "layout field serialized");
        assert!(json.contains("\"path\": \"streamed\""), "streamed path measured: {json}");
        assert_eq!(r.checkpoint.len(), 2, "checkpoint cost at 81 and 4096 pools");
        assert!(
            r.checkpoint.iter().all(|c| c.bytes > 0 && c.restore_ns > 0),
            "checkpoint cells are real measurements: {r}"
        );
        assert!(json.contains("\"checkpoint\": ["), "checkpoint array serialized: {json}");
        assert!(json.contains("\"restore_ns\""), "restore latency serialized");
        assert!(
            json.contains("\"checkpoint_baseline_pr6_bytes_4096\""),
            "checkpoint baseline serialized: {json}"
        );
        // The per-pass breakdown mirrors the grid's debug economy: 4096
        // only under `cargo test`, every shape in the release artifact —
        // each shape timed on both the columnar and the streamed path.
        let breakdown_shapes = 2 * if cfg!(debug_assertions) { 1 } else { BREAKDOWN_POOLS.len() };
        assert_eq!(r.pass_breakdown.len(), breakdown_shapes, "pass breakdown measured: {r}");
        for c in &r.pass_breakdown {
            assert_eq!(c.threads, 1, "breakdown cells are single-thread (timed) windows");
            assert!(
                c.per_window_pass_ns.iter().sum::<u64>() > 0,
                "pass timings are real measurements: {r}"
            );
            let sim_kernel = c.per_window_pass_ns[0];
            let aggregate = c.per_window_pass_ns[1];
            let scalar = c.per_window_pass_ns[6];
            assert!(aggregate > 0 && scalar > 0, "hot passes timed nonzero: {r}");
            if c.path == "streamed" {
                assert!(sim_kernel > 0, "streamed cells break out the sim_kernel pass: {r}");
            } else {
                assert_eq!(sim_kernel, 0, "materialised cells run no sim kernels: {r}");
            }
        }
        assert!(json.contains("\"pass_ns_breakdown\": ["), "pass breakdown serialized: {json}");
        assert!(json.contains("\"aggregate\":"), "pass names keyed in JSON: {json}");
        let t = &r.totals_trajectory;
        assert_eq!(t.window_capacity, OnlinePlannerConfig::default().window_capacity);
        assert!(t.per_window_ns.iter().all(|&ns| ns > 0), "every span timed: {t:?}");
        assert!(json.contains("\"past_capacity\": "), "trajectory serialized: {json}");
        assert!(r.million_pool.is_none(), "quick runs skip the million-pool stretch window");
        assert!(
            r.scaling.iter().all(|c| c.pools != EXTENDED_POOLS),
            "quick runs skip the 65536-pool extended row"
        );
        assert!(json.contains("\"columnar_steady_state_allocations\": 0"), "colsim fields");
        assert!(json.contains("\"steady_state_allocations\": 0"), "alloc count serialized");
        let build = if cfg!(debug_assertions) { "debug" } else { "release" };
        assert!(
            json.contains(&format!(
                "\"host\": {{\"cores\": {}, \"build\": \"{build}\"",
                r.host_cores
            )),
            "host context serialized: {json}"
        );
        assert!(r.host_cores >= 1, "host core count probed");
    }
}
