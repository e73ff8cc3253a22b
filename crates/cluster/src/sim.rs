//! The window-stepped simulation engine.
//!
//! One `step` simulates one 120-second measurement window for the whole
//! fleet:
//!
//! 1. sample each pool's regional demand (diurnal curve × event factors);
//! 2. reroute demand away from lost datacenters ([`crate::routing`]);
//! 3. decide which servers are online (interventions ∩ maintenance ∩
//!    failures ∩ datacenter loss);
//! 4. split each pool's demand across its online servers
//!    ([`crate::pool::LoadBalancer`]);
//! 5. evaluate each server's black-box [`crate::service_model::ServiceModel`]
//!    and record the counters into a [`MetricStore`] plus the
//!    [`AvailabilityLog`].
//!
//! Capacity interventions (the paper's server-reduction experiments) are
//! scheduled with [`Simulation::schedule_resize`] and applied at window
//! granularity.

use std::collections::HashMap;

use headroom_telemetry::availability::AvailabilityLog;
use headroom_telemetry::counter::{CounterKind, WorkloadTag};
use headroom_telemetry::ids::{DatacenterId, PoolId, ServerId};
use headroom_telemetry::store::MetricStore;
use headroom_telemetry::time::{SimTime, WindowIndex, WINDOWS_PER_DAY};
use headroom_workload::events::EventScript;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::catalog::MicroserviceKind;
use crate::columns::{ColumnarSnapshot, SnapshotColumns};
use crate::error::ClusterError;
use crate::hardware::HardwareGeneration;
use crate::pool::{LoadBalancer, Pool};
use crate::routing::redistribute;
use crate::service_model::{LiteColumnsIn, LiteColumnsOut, LiteNoise, ServiceModel};
use crate::topology::Fleet;

/// Which counters the simulation stores.
///
/// Full fleet runs over many days generate far too much data to keep every
/// counter; the paper's own pipeline discarded raw 100 ns samples for the
/// same reason.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecordingPolicy {
    /// Everything: the six Fig. 2 resource panels, workload, QoS, memory,
    /// and per-table tagged series.
    Full,
    /// Workload and QoS only (RPS, CPU, latency) — the planner's diet.
    #[default]
    Workload,
    /// Nothing is stored, but per-window snapshots still carry CPU/latency —
    /// for streaming observers at fleet scale (Figs. 12–13).
    SnapshotOnly,
    /// Nothing but the availability log (for 90-day availability studies);
    /// snapshot rows carry zeros for CPU/latency.
    AvailabilityOnly,
}

/// The in-memory snapshot layout used by layout-generic drivers.
///
/// All layouts are produced by the same window phases, share the same RNG
/// stream, and carry bit-identical values (`repro colsim` gates this for
/// every recording policy), so the switch is purely a data-layout knob:
/// [`Streamed`] defers the metric kernels to the consumer's tile passes
/// (the default hot path — fleet columns never round-trip DRAM),
/// [`Columnar`] materialises per-pool-contiguous columns, and [`Rows`]
/// materialises the legacy [`SnapshotRow`] structs; the two materialised
/// layouts are kept for A/B property tests and row-oriented observers.
///
/// Explicit calls pick their own layout regardless
/// ([`Simulation::step_snapshot`] / [`Simulation::step_snapshot_partitioned`]
/// are always rows, [`Simulation::step_columns_partitioned`] always
/// columns, [`Simulation::step_streamed`] always streams); the config
/// switch steers drivers that accept any, such as `OnlinePlanner::run`.
///
/// [`Streamed`]: SnapshotLayout::Streamed
/// [`Columnar`]: SnapshotLayout::Columnar
/// [`Rows`]: SnapshotLayout::Rows
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SnapshotLayout {
    /// Metric generation fused into the consumer: the simulator runs only
    /// the sequential prefix (demand, routing, online flags, noise) and
    /// hands out kernel inputs; the observer evaluates the response-model
    /// kernels tile-at-a-time via [`StreamedKernels::step_tile_columns`].
    #[default]
    Streamed,
    /// Struct-of-arrays column buffers, reused across windows.
    Columnar,
    /// Array of [`SnapshotRow`] structs — the legacy layout.
    Rows,
}

/// Simulation configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Master seed; every run with the same fleet/config/seed is identical.
    pub seed: u64,
    /// Which counters to store.
    pub recording: RecordingPolicy,
    /// Whether to fill the availability log.
    pub track_availability: bool,
    /// The snapshot layout used by layout-generic drivers.
    pub layout: SnapshotLayout,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0,
            recording: RecordingPolicy::Workload,
            track_availability: true,
            layout: SnapshotLayout::default(),
        }
    }
}

/// Per-server state visible to observers for one window.
///
/// The six metric fields are the streaming subset of the paper's Fig. 2
/// counter set: workload (RPS), the two QoS-side signals (CPU, p95
/// latency), and the three secondary resources the multi-resource planner
/// fits (disk queue, paging rate, network throughput) — in that order.
/// Every metric is `0.0` when the server is offline, and *all six* are
/// `0.0` except RPS under [`RecordingPolicy::AvailabilityOnly`] (the RPS
/// field always carries the routed share, so availability studies still
/// see demand). On the other cheap recording paths the three secondary
/// resources are noise-free means — no extra RNG draws, so the recorded
/// CPU/latency streams match the pre-multi-resource simulator exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SnapshotRow {
    /// Server identity.
    pub server: ServerId,
    /// Owning pool.
    pub pool: PoolId,
    /// Hosting datacenter.
    pub datacenter: DatacenterId,
    /// Whether the server served traffic this window.
    pub online: bool,
    /// Requests per second routed to it (0 when offline; carried under
    /// every recording policy).
    pub rps: f64,
    /// CPU percent (0 when offline or under
    /// [`RecordingPolicy::AvailabilityOnly`]).
    pub cpu_pct: f64,
    /// p95 latency in ms (0 when offline or under
    /// [`RecordingPolicy::AvailabilityOnly`]).
    pub latency_p95_ms: f64,
    /// Disk queue length (0 when offline or under
    /// [`RecordingPolicy::AvailabilityOnly`]).
    pub disk_queue: f64,
    /// Memory paging rate, pages/sec (0 when offline or under
    /// [`RecordingPolicy::AvailabilityOnly`]).
    pub memory_pages_per_sec: f64,
    /// Network throughput, Mbps both directions (0 when offline or under
    /// [`RecordingPolicy::AvailabilityOnly`]).
    pub network_mbps: f64,
}

/// One window's fleet-wide observation, passed to observers.
#[derive(Debug, Clone, Copy)]
pub struct WindowSnapshot<'a> {
    /// The window just simulated.
    pub window: WindowIndex,
    /// One row per server in the fleet.
    pub rows: &'a [SnapshotRow],
}

/// The contiguous run of snapshot rows belonging to one pool.
///
/// The simulator evaluates pools one after another, so each pool's rows are
/// naturally contiguous; recording the boundaries costs nothing and lets a
/// parallel observer hand each worker its pools' rows as plain sub-slices —
/// no per-row re-grouping serialization point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolSlice {
    /// The pool owning the rows.
    pub pool: PoolId,
    /// Index of the pool's first row in the snapshot.
    pub start: usize,
    /// Number of rows (the pool's physical size this window).
    pub len: usize,
}

/// A [`WindowSnapshot`] plus its pool partition, for sharded ingestion.
///
/// Produced by [`Simulation::step_snapshot_partitioned`]. Slices appear in
/// fleet deployment order (ascending pool id for built fleets) and cover
/// `rows` exactly, each pool once.
#[derive(Debug, Clone, Copy)]
pub struct PartitionedSnapshot<'a> {
    /// The window just simulated.
    pub window: WindowIndex,
    /// One row per server in the fleet, grouped by pool.
    pub rows: &'a [SnapshotRow],
    /// One entry per pool, delimiting its rows.
    pub pools: &'a [PoolSlice],
}

impl<'a> PartitionedSnapshot<'a> {
    /// The rows of one pool.
    pub fn pool_rows(&self, slice: &PoolSlice) -> &'a [SnapshotRow] {
        &self.rows[slice.start..slice.start + slice.len]
    }

    /// The flat, partition-less view of the same window.
    pub fn as_snapshot(&self) -> WindowSnapshot<'a> {
        WindowSnapshot { window: self.window, rows: self.rows }
    }
}

/// One window handed out by [`Simulation::step_streamed`]: the pool
/// partition plus either kernel inputs (the streaming hot path) or
/// already-materialised columns (the recording policies whose sequential
/// store writes cannot be deferred).
///
/// The streamed pipeline's contract is bit-identity with the materialised
/// paths: the sequential prefix draws the exact RNG stream of
/// [`Simulation::step_columns_partitioned`], and
/// [`StreamedKernels::step_tile_columns`] evaluates the exact element-wise
/// kernels the materialised step would, so whatever the consumer computes
/// from a streamed window equals what it would have computed from the
/// columns — without the fleet-sized column round-trip through DRAM.
#[derive(Debug, Clone, Copy)]
pub struct StreamedWindow<'a> {
    /// The window just simulated.
    pub window: WindowIndex,
    /// One entry per pool, delimiting its lanes; identical geometry to the
    /// materialised layouts' partition. Slice `i` belongs to fleet pool
    /// index `i` (the order pools were deployed), which is how
    /// [`StreamedKernels::step_tile_columns`] finds a slice's model.
    pub pools: &'a [PoolSlice],
    /// Where this window's metrics live (or how to compute them).
    pub source: StreamedSource<'a>,
}

/// The backing of a [`StreamedWindow`].
#[derive(Debug, Clone, Copy)]
pub enum StreamedSource<'a> {
    /// Metrics are already materialised in column buffers.
    /// [`RecordingPolicy::Full`] and [`RecordingPolicy::Workload`] land
    /// here: their per-server store writes interleave with metric
    /// evaluation and cannot move into a consumer's parallel tiles (and
    /// [`RecordingPolicy::AvailabilityOnly`], whose "metrics" are zeros,
    /// costs nothing to materialise). Trivially bit-identical.
    Columns(&'a SnapshotColumns),
    /// Kernel inputs only — [`RecordingPolicy::SnapshotOnly`], the
    /// fleet-scale policy: the consumer evaluates the response-model
    /// kernels per tile while the slice is cache-resident.
    Kernels(StreamedKernels<'a>),
}

/// The kernel inputs of one streamed window: workload and noise columns,
/// the online bitmask, hardware generations, and per-pool response models.
/// `Copy` + `Sync` — workers share it read-only across a parallel sweep.
#[derive(Debug, Clone, Copy)]
pub struct StreamedKernels<'a> {
    /// RPS column + online bitmask (+ identity columns); the six metric
    /// columns are stale and deliberately unreachable through this view.
    columns: &'a SnapshotColumns,
    hw: &'a [HardwareGeneration],
    noise_cpu: &'a [f64],
    noise_p95: &'a [f64],
    noise_avg: &'a [f64],
    /// Deduplicated per-pool response models — entry `i` models partition
    /// slice `i`.
    cache: &'a KernelCache,
}

/// Deduplicated per-pool kernel parameters for the streamed path: one
/// [`ServiceModel`] per *distinct* model, a dense pool-index → model map,
/// and a dense per-pool `net_scale` column. Fleets deploy a handful of
/// service specs across up to millions of pools, so the per-tile kernel
/// evaluation reads a few cache-resident models through 12 bytes per pool
/// (index + scale) instead of streaming the full fleet-length [`Pool`]
/// array (hundreds of bytes per pool, of which the kernels use ~150)
/// through DRAM every window.
///
/// Deduplication compares models **bit for bit**
/// ([`ServiceModel::bits_eq`]), so evaluating a shared model is guaranteed
/// to produce exactly the bytes the pool's own model would have — the
/// cache cannot perturb the streamed path's bit-identity contract.
/// Building is `O(pools × distinct models)`; a pathological fleet where
/// every pool's model differs degrades the build to quadratic but keeps
/// lookups exact (and such a fleet gains nothing from any cache).
#[derive(Debug, Clone, Default)]
pub struct KernelCache {
    models: Vec<ServiceModel>,
    index: Vec<u32>,
    net_scales: Vec<f64>,
}

impl KernelCache {
    /// Builds a cache over `pools` (deployment order — lane `i` answers
    /// for partition slice `i`, matching [`StreamedWindow::pools`]).
    pub fn build(pools: &[Pool]) -> KernelCache {
        let mut cache = KernelCache::default();
        cache.rebuild(pools);
        cache
    }

    /// Rebuilds in place, reusing the allocations of a previous build
    /// where possible. Call after anything that can change a pool's model
    /// or network shape (a scheduled model swap); per-window state —
    /// demand, online servers, resizes — never touches the cache.
    pub fn rebuild(&mut self, pools: &[Pool]) {
        self.models.clear();
        self.index.clear();
        self.net_scales.clear();
        self.index.reserve(pools.len());
        self.net_scales.reserve(pools.len());
        for pool in pools {
            let found = self.models.iter().position(|m| m.bits_eq(&pool.model));
            let mi = found.unwrap_or_else(|| {
                self.models.push(pool.model.clone());
                self.models.len() - 1
            });
            self.index.push(u32::try_from(mi).expect("model count fits u32"));
            self.net_scales.push(pool.net_scale);
        }
    }

    /// Pools covered by the cache.
    pub fn pools(&self) -> usize {
        self.index.len()
    }

    /// Distinct models after deduplication.
    pub fn distinct(&self) -> usize {
        self.models.len()
    }

    fn entry(&self, pool_index: usize) -> (&ServiceModel, f64) {
        (&self.models[self.index[pool_index] as usize], self.net_scales[pool_index])
    }
}

/// Caller-provided output slices for one pool's
/// [`StreamedKernels::step_tile_columns`] evaluation, each exactly the
/// pool's slice length. On return they hold what the materialised columnar
/// step would have written for those lanes (offline lanes `+0.0`).
#[derive(Debug)]
pub struct StreamedTileOut<'a> {
    /// CPU percent per lane.
    pub cpu: &'a mut [f64],
    /// Average latency per lane, ms (scratch — the materialised column
    /// path never stores it either under `SnapshotOnly`).
    pub latency_avg: &'a mut [f64],
    /// p95 latency per lane, ms.
    pub latency_p95: &'a mut [f64],
    /// Disk queue length per lane.
    pub disk_queue: &'a mut [f64],
    /// Memory paging rate per lane, pages/sec.
    pub memory_pages_per_sec: &'a mut [f64],
    /// Network throughput per lane, Mbps.
    pub network_mbps: &'a mut [f64],
}

impl<'a> StreamedKernels<'a> {
    /// Assembles a streamed-kernel view from recorded parts — the replay
    /// entry point for harnesses that drive the streamed ingestion path
    /// over pre-recorded windows (workload + online + noise) without a
    /// live simulation. `columns` needs only its RPS column and online
    /// bitmask filled (offline lanes `0.0`); the metric columns are never
    /// read. `cache` ([`KernelCache::build`] over the fleet's pools) must
    /// cover partition slice `i` of the window at entry `i`, and `hw` plus
    /// the three noise slices are fleet-length, lane-aligned with the
    /// columns.
    ///
    /// # Panics
    ///
    /// Panics when `hw` or a noise slice is shorter than the RPS column.
    pub fn from_parts(
        columns: &'a SnapshotColumns,
        hw: &'a [HardwareGeneration],
        noise_cpu: &'a [f64],
        noise_p95: &'a [f64],
        noise_avg: &'a [f64],
        cache: &'a KernelCache,
    ) -> StreamedKernels<'a> {
        let lanes = columns.rps().len();
        assert!(
            hw.len() >= lanes
                && noise_cpu.len() >= lanes
                && noise_p95.len() >= lanes
                && noise_avg.len() >= lanes,
            "streamed kernel inputs must cover every lane"
        );
        StreamedKernels { columns, hw, noise_cpu, noise_p95, noise_avg, cache }
    }

    /// The fleet-length RPS column (offline lanes `0.0`).
    pub fn rps(&self) -> &'a [f64] {
        self.columns.rps()
    }

    /// Serving-server count over lanes `start..start + len` — the masked
    /// popcount the materialised columnar aggregation uses.
    pub fn online_count(&self, start: usize, len: usize) -> usize {
        self.columns.online_count(start, len)
    }

    /// Evaluates the response-model kernels for pool `pool_index`'s lanes
    /// `start..start + len` into `out` — the per-tile half of the fused
    /// pipeline: `lite_columns` (CPU/latency from workload + pre-drawn
    /// noise), `resource_mean_columns` (disk/paging/network means), then
    /// the offline zero contract, exactly as the materialised columnar
    /// step applies them. Bit-identical to the column slice
    /// [`Simulation::step_columns_partitioned`] would have produced.
    ///
    /// # Panics
    ///
    /// Panics when the lane range exceeds the fleet or an `out` slice's
    /// length differs from `len`.
    pub fn step_tile_columns(
        &self,
        pool_index: usize,
        start: usize,
        len: usize,
        out: StreamedTileOut<'_>,
    ) {
        let range = start..start + len;
        let (model, net_scale) = self.cache.entry(pool_index);
        model.lite_columns(
            LiteColumnsIn {
                rps: &self.columns.rps[range.clone()],
                hw: &self.hw[range.clone()],
                noise_cpu: &self.noise_cpu[range.clone()],
                noise_p95: &self.noise_p95[range.clone()],
                noise_avg: &self.noise_avg[range.clone()],
            },
            LiteColumnsOut {
                cpu: out.cpu,
                latency_avg: out.latency_avg,
                latency_p95: out.latency_p95,
            },
        );
        model.resource_mean_columns(
            &self.columns.rps[range],
            net_scale,
            out.disk_queue,
            out.memory_pages_per_sec,
            out.network_mbps,
        );
        // The kernels wrote every lane (offline lanes computed on rps = 0);
        // restore the offline zero contract in the tile buffers.
        for k in 0..len {
            let i = start + k;
            if self.columns.online[i / 64] >> (i % 64) & 1 == 0 {
                out.cpu[k] = 0.0;
                out.latency_avg[k] = 0.0;
                out.latency_p95[k] = 0.0;
                out.disk_queue[k] = 0.0;
                out.memory_pages_per_sec[k] = 0.0;
                out.network_mbps[k] = 0.0;
            }
        }
    }
}

/// The fleet simulator.
///
/// # Example
///
/// ```
/// use headroom_cluster::catalog::MicroserviceKind;
/// use headroom_cluster::sim::{SimConfig, Simulation};
/// use headroom_cluster::topology::FleetBuilder;
/// use headroom_telemetry::counter::CounterKind;
/// use headroom_telemetry::time::WindowRange;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let fleet = FleetBuilder::new(1)
///     .datacenters(2)
///     .deploy_service(MicroserviceKind::B, 10)?
///     .build();
/// let mut sim = Simulation::new(fleet, Default::default(), SimConfig::default());
/// sim.run_windows(60);
/// let pool = sim.fleet().pools()[0].id;
/// let obs = sim.store().pool_paired_observations(
///     pool,
///     CounterKind::RequestsPerSec,
///     CounterKind::CpuPercent,
///     WindowRange::days(1.0),
/// );
/// assert!(!obs.is_empty());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Simulation {
    fleet: Fleet,
    events: EventScript,
    config: SimConfig,
    store: MetricStore,
    availability: AvailabilityLog,
    rng: StdRng,
    next_window: WindowIndex,
    interventions: HashMap<u64, Vec<(PoolId, usize)>>,
    /// Scheduled response-profile changes (releases, hardware refreshes).
    model_swaps: HashMap<u64, Vec<(PoolId, ServiceModel)>>,
    lb: LoadBalancer,
    /// Pool indices grouped by service, each sorted by datacenter index.
    service_groups: Vec<(MicroserviceKind, Vec<usize>)>,
    snapshot: Vec<SnapshotRow>,
    /// Columnar window buffers (the struct-of-arrays sibling of
    /// `snapshot`), filled by the columnar step and reused every window.
    columns: SnapshotColumns,
    /// Static per-row hardware generation column (parallel to `columns`),
    /// built lazily on the first columnar step.
    hw_col: Vec<HardwareGeneration>,
    pool_slices: Vec<PoolSlice>,
    /// Stateful failure tracking, indexed by server id (fleets number
    /// servers densely): the first window each server is repaired, 0 when
    /// it has never failed.
    failed_until: Vec<u64>,
    /// Per-pool datacenter routing weight, precomputed at construction
    /// (topology never changes mid-run).
    pool_weight: Vec<f64>,
    /// Reusable per-window scratch, cleared and refilled every step — the
    /// warmed window path performs no heap allocation (asserted by a
    /// counting-allocator test in `crates/bench`).
    pool_demand: Vec<f64>,
    group_demands: Vec<f64>,
    group_lost: Vec<bool>,
    group_weights: Vec<f64>,
    online_flags: Vec<bool>,
    shares: Vec<f64>,
    /// Per-pool pre-drawn lite-noise columns (CPU / p95 / avg draws, in
    /// server order) plus the avg-latency output lane — columnar-step
    /// scratch, reused across pools and windows.
    noise_cpu: Vec<f64>,
    noise_p95: Vec<f64>,
    noise_avg: Vec<f64>,
    lat_avg_col: Vec<f64>,
    /// Fleet-length lite-noise columns for the streamed step (the per-pool
    /// `noise_*` scratch above only outlives one pool; a streamed window
    /// hands the whole fleet's draws to the consumer's tile passes).
    /// Offline lanes carry `0.0`. Reused across windows.
    stream_noise_cpu: Vec<f64>,
    stream_noise_p95: Vec<f64>,
    stream_noise_avg: Vec<f64>,
    /// Deduplicated per-pool kernel parameters for the streamed step,
    /// rebuilt lazily after a model swap lands (the only mid-run mutation
    /// that can move a pool's response curves — topology and `net_scale`
    /// are fixed at construction).
    kernel_cache: KernelCache,
    kernel_cache_dirty: bool,
}

impl Simulation {
    /// Creates a simulation over `fleet` with scripted `events`.
    pub fn new(fleet: Fleet, events: EventScript, config: SimConfig) -> Self {
        let mut store = MetricStore::new();
        for pool in fleet.pools() {
            for server in &pool.servers {
                store.register_server(server.id, pool.id, pool.datacenter);
            }
        }
        let mut by_service: HashMap<MicroserviceKind, Vec<usize>> = HashMap::new();
        for (i, pool) in fleet.pools().iter().enumerate() {
            by_service.entry(pool.service).or_default().push(i);
        }
        let mut service_groups: Vec<(MicroserviceKind, Vec<usize>)> =
            by_service.into_iter().collect();
        service_groups.sort_by_key(|(k, _)| *k);
        for (_, idxs) in &mut service_groups {
            idxs.sort_by_key(|&i| fleet.pools()[i].datacenter);
        }
        let pool_weight: Vec<f64> = fleet
            .pools()
            .iter()
            .map(|p| {
                fleet
                    .datacenters()
                    .iter()
                    .find(|d| d.id == p.datacenter)
                    .map(|d| d.weight)
                    .unwrap_or(1.0)
            })
            .collect();
        let server_ids = fleet
            .pools()
            .iter()
            .flat_map(|p| p.servers.iter().map(|s| s.id.0 as usize + 1))
            .max()
            .unwrap_or(0);
        Simulation {
            fleet,
            events,
            config,
            store,
            availability: AvailabilityLog::new(),
            rng: StdRng::seed_from_u64(config.seed),
            next_window: WindowIndex(0),
            interventions: HashMap::new(),
            model_swaps: HashMap::new(),
            lb: LoadBalancer::default(),
            service_groups,
            snapshot: Vec::new(),
            columns: SnapshotColumns::new(),
            hw_col: Vec::new(),
            pool_slices: Vec::new(),
            failed_until: vec![0; server_ids],
            pool_weight,
            pool_demand: Vec::new(),
            group_demands: Vec::new(),
            group_lost: Vec::new(),
            group_weights: Vec::new(),
            online_flags: Vec::new(),
            shares: Vec::new(),
            noise_cpu: Vec::new(),
            noise_p95: Vec::new(),
            noise_avg: Vec::new(),
            lat_avg_col: Vec::new(),
            stream_noise_cpu: Vec::new(),
            stream_noise_p95: Vec::new(),
            stream_noise_avg: Vec::new(),
            kernel_cache: KernelCache::default(),
            kernel_cache_dirty: true,
        }
    }

    /// The configuration in effect (including the snapshot layout switch
    /// layout-generic drivers consult).
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The fleet being simulated.
    pub fn fleet(&self) -> &Fleet {
        &self.fleet
    }

    /// The recorded metrics.
    pub fn store(&self) -> &MetricStore {
        &self.store
    }

    /// The availability log.
    pub fn availability(&self) -> &AvailabilityLog {
        &self.availability
    }

    /// The next window to be simulated.
    pub fn current_window(&self) -> WindowIndex {
        self.next_window
    }

    /// Schedules a pool resize: from `window` on, only `active` servers
    /// serve traffic. This is the paper's server-reduction experiment lever.
    ///
    /// # Errors
    ///
    /// - [`ClusterError::UnknownPool`] for a pool not in the fleet.
    /// - [`ClusterError::InvalidResize`] when `active` is zero or exceeds
    ///   the pool size.
    pub fn schedule_resize(
        &mut self,
        pool: PoolId,
        window: WindowIndex,
        active: usize,
    ) -> Result<(), ClusterError> {
        let p = self.fleet.pool(pool).ok_or(ClusterError::UnknownPool(pool))?;
        if active == 0 || active > p.size() {
            return Err(ClusterError::InvalidResize {
                pool,
                requested: active,
                available: p.size(),
            });
        }
        self.interventions.entry(window.0).or_default().push((pool, active));
        Ok(())
    }

    /// Schedules a response-profile change: from `window` on, `pool`'s
    /// servers respond per `model` — the shape of a software release or
    /// hardware refresh. Demand is untouched; only the workload→resource
    /// curves move, which is exactly what a streaming planner's drift
    /// detector must catch.
    ///
    /// # Errors
    ///
    /// [`ClusterError::UnknownPool`] for a pool not in the fleet.
    pub fn schedule_model_swap(
        &mut self,
        pool: PoolId,
        window: WindowIndex,
        model: ServiceModel,
    ) -> Result<(), ClusterError> {
        if self.fleet.pool(pool).is_none() {
            return Err(ClusterError::UnknownPool(pool));
        }
        self.model_swaps.entry(window.0).or_default().push((pool, model));
        Ok(())
    }

    /// Runs `n` windows.
    pub fn run_windows(&mut self, n: u64) {
        self.run_windows_observed(n, |_| {});
    }

    /// Runs `days` simulated days.
    pub fn run_days(&mut self, days: f64) {
        self.run_windows((days * WINDOWS_PER_DAY as f64).round() as u64);
    }

    /// Runs `n` windows, invoking `observer` after each with the full
    /// per-server snapshot (for streaming aggregation at fleet scale).
    pub fn run_windows_observed<F: FnMut(&WindowSnapshot<'_>)>(&mut self, n: u64, mut observer: F) {
        for _ in 0..n {
            let snap = self.step_snapshot();
            observer(&snap);
        }
    }

    /// Simulates exactly one window and returns its snapshot.
    ///
    /// This is the single-step form of [`Simulation::run_windows_observed`]:
    /// because it returns control between windows, a caller can feed the
    /// snapshot to a streaming planner *and* act on the planner's output
    /// (e.g. [`Simulation::schedule_resize`]) before the next window runs —
    /// the closed control loop that a callback observer cannot express.
    pub fn step_snapshot(&mut self) -> WindowSnapshot<'_> {
        self.step();
        WindowSnapshot { window: WindowIndex(self.next_window.0 - 1), rows: &self.snapshot }
    }

    /// Simulates exactly one window and returns its snapshot with the pool
    /// partition attached — [`Simulation::step_snapshot`] for sharded
    /// observers (e.g. a parallel sweep engine) that want per-pool row
    /// slices without re-grouping the flat row array.
    pub fn step_snapshot_partitioned(&mut self) -> PartitionedSnapshot<'_> {
        self.step();
        PartitionedSnapshot {
            window: WindowIndex(self.next_window.0 - 1),
            rows: &self.snapshot,
            pools: &self.pool_slices,
        }
    }

    /// Simulates exactly one window and returns its snapshot as
    /// per-pool-contiguous columns — the struct-of-arrays sibling of
    /// [`Simulation::step_snapshot_partitioned`], and the hot path at fleet
    /// scale: response-model kernels run element-wise over column slices,
    /// the column buffers are reused window over window (no steady-state
    /// allocation), and sharded observers aggregate each pool's counters
    /// from contiguous memory.
    ///
    /// Values, stored counters, availability log, and RNG stream are
    /// *bit-identical* to the row path under every recording policy
    /// (`repro colsim` gates this); only the in-memory layout differs.
    pub fn step_columns_partitioned(&mut self) -> ColumnarSnapshot<'_> {
        self.step_cols();
        ColumnarSnapshot {
            window: WindowIndex(self.next_window.0 - 1),
            columns: &self.columns,
            pools: &self.pool_slices,
        }
    }

    /// Simulates exactly one window and returns it *streamed*: the
    /// sequential prefix (demand, routing, online flags, ticks, and the
    /// noise draws — everything that shares the row path's RNG stream)
    /// runs here, while the element-wise metric kernels are deferred to
    /// the consumer via [`StreamedKernels::step_tile_columns`], evaluated
    /// tile-at-a-time inside the consumer's own passes where the slice is
    /// still cache-resident. The fleet's metric columns never round-trip
    /// DRAM — the structural win of the fused closed-loop pipeline.
    ///
    /// Only [`RecordingPolicy::SnapshotOnly`] — the fleet-scale policy —
    /// actually defers the kernels. The other policies' windows interleave
    /// sequential store writes (or zero metrics) with evaluation, so they
    /// fall back to the materialised columnar step and hand out
    /// [`StreamedSource::Columns`]; consumers observe identical values
    /// either way, just later bytes. RNG stream, recorded counters, and
    /// computed metrics are bit-identical to both materialised layouts
    /// under every policy (`repro colsim` gates this).
    pub fn step_streamed(&mut self) -> StreamedWindow<'_> {
        match self.config.recording {
            RecordingPolicy::SnapshotOnly => {
                self.step_streamed_prefix();
                // Rebuild after the prefix so a model swap landing this
                // window is already applied to the fleet it reads.
                if self.kernel_cache_dirty {
                    self.kernel_cache.rebuild(self.fleet.pools());
                    self.kernel_cache_dirty = false;
                }
                StreamedWindow {
                    window: WindowIndex(self.next_window.0 - 1),
                    pools: &self.pool_slices,
                    source: StreamedSource::Kernels(StreamedKernels {
                        columns: &self.columns,
                        hw: &self.hw_col,
                        noise_cpu: &self.stream_noise_cpu,
                        noise_p95: &self.stream_noise_p95,
                        noise_avg: &self.stream_noise_avg,
                        cache: &self.kernel_cache,
                    }),
                }
            }
            _ => {
                self.step_cols();
                StreamedWindow {
                    window: WindowIndex(self.next_window.0 - 1),
                    pools: &self.pool_slices,
                    source: StreamedSource::Columns(&self.columns),
                }
            }
        }
    }

    /// Consumes the simulation, returning the fleet, metric store and
    /// availability log.
    pub fn into_parts(self) -> (Fleet, MetricStore, AvailabilityLog) {
        (self.fleet, self.store, self.availability)
    }

    /// Advances the window clock, applies scheduled interventions and model
    /// swaps, and fills the per-pool demand scratch — the phases shared by
    /// both snapshot layouts, byte for byte (one implementation, so the RNG
    /// stream cannot diverge between them).
    fn begin_window(&mut self) -> (WindowIndex, SimTime, f64) {
        let w = self.next_window;
        self.next_window = WindowIndex(w.0 + 1);
        let t = w.midpoint();
        let utc_hour = t.hour_of_day();

        // Apply interventions scheduled for this window.
        if let Some(resizes) = self.interventions.remove(&w.0) {
            for (pool_id, active) in resizes {
                if let Some(pool) = self.fleet.pool_mut(pool_id) {
                    // Validated at scheduling time; ignore failure defensively.
                    let _ = pool.resize_active(active);
                }
            }
        }

        // Apply scheduled response-profile changes (releases / hardware
        // refreshes): the pool's black-box curves move, demand does not.
        if let Some(swaps) = self.model_swaps.remove(&w.0) {
            for (pool_id, model) in swaps {
                if let Some(pool) = self.fleet.pool_mut(pool_id) {
                    pool.model = model;
                    self.kernel_cache_dirty = true;
                }
            }
        }

        // Demand per pool, grouped by service for failover rerouting.
        // Everything here runs on reusable field buffers: a warmed window
        // touches no allocator.
        self.pool_demand.clear();
        self.pool_demand.resize(self.fleet.pools().len(), 0.0);
        for gi in 0..self.service_groups.len() {
            self.group_demands.clear();
            self.group_lost.clear();
            self.group_weights.clear();
            for k in 0..self.service_groups[gi].1.len() {
                let pi = self.service_groups[gi].1[k];
                let pool = &self.fleet.pools()[pi];
                let base = pool.demand.demand(t, &mut self.rng);
                let factor = self.events.demand_factor(pool.datacenter, t);
                self.group_demands.push(base * factor);
                self.group_lost.push(self.events.datacenter_lost(pool.datacenter, t));
                self.group_weights.push(self.pool_weight[pi]);
            }
            redistribute(&mut self.group_demands, &self.group_lost, &self.group_weights);
            for k in 0..self.service_groups[gi].1.len() {
                let pi = self.service_groups[gi].1[k];
                self.pool_demand[pi] = self.group_demands[k];
            }
        }
        (w, t, utc_hour)
    }

    /// One pool's per-window header: identity, local hour, size, loss
    /// status, and network shape.
    fn pool_header(
        &self,
        pi: usize,
        t: SimTime,
        utc_hour: f64,
    ) -> (PoolId, DatacenterId, f64, usize, bool, f64) {
        let pool = &self.fleet.pools()[pi];
        (
            pool.id,
            pool.datacenter,
            pool.local_hour(utc_hour),
            pool.size(),
            self.events.datacenter_lost(pool.datacenter, t),
            pool.net_scale,
        )
    }

    /// Decides online status per server of pool `pi` into `online_flags`.
    /// Failures are tracked statefully: one hash draw per server-window,
    /// with the repair interval carried in `failed_until`. Shared verbatim
    /// by both snapshot layouts.
    fn fill_online_flags(
        &mut self,
        pi: usize,
        pool_size: usize,
        w: WindowIndex,
        local_hour: f64,
        dc_lost: bool,
    ) {
        self.online_flags.clear();
        let pool = &self.fleet.pools()[pi];
        for (idx, server) in pool.servers.iter().enumerate() {
            let maint = pool.maintenance.is_offline(idx, pool_size, w, local_hour);
            let failed = match pool.failures {
                Some(f) => {
                    let until = &mut self.failed_until[server.id.0 as usize];
                    if w.0 < *until {
                        true
                    } else if f.fails_at(u64::from(server.id.0), w) {
                        *until = w.0 + f.repair_windows;
                        true
                    } else {
                        false
                    }
                }
                None => false,
            };
            self.online_flags.push(server.is_active() && !maint && !failed && !dc_lost);
        }
    }

    /// Evaluates one online server under [`RecordingPolicy::Full`]: the
    /// complete counter row, recorded into the store, returning the
    /// snapshot metric tuple `(cpu, lat_avg, lat_p95, disk_queue, pages,
    /// mbps)`. Shared by both snapshot layouts (the Full path is the
    /// heavyweight archival path; it is not columnarized).
    fn eval_full(
        &mut self,
        pi: usize,
        server_id: ServerId,
        generation: HardwareGeneration,
        windows_online: u64,
        rps: f64,
        w: WindowIndex,
    ) -> (f64, f64, f64, f64, f64, f64) {
        let m = {
            let pool = &self.fleet.pools()[pi];
            pool.model.window_metrics(
                rps,
                generation,
                w,
                windows_online,
                server_id.0 as u64 % 97,
                pool.net_scale,
                &mut self.rng,
            )
        };
        self.store.record(server_id, CounterKind::CpuPercent, w, m.cpu_pct);
        self.store.record(server_id, CounterKind::RequestsPerSec, w, rps);
        self.store.record(server_id, CounterKind::LatencyAvgMs, w, m.latency_avg_ms);
        self.store.record(server_id, CounterKind::LatencyP95Ms, w, m.latency_p95_ms);
        self.store.record(server_id, CounterKind::DiskReadBytesPerSec, w, m.disk_read_bytes);
        self.store.record(server_id, CounterKind::DiskWriteBytesPerSec, w, m.disk_write_bytes);
        self.store.record(server_id, CounterKind::DiskQueueLength, w, m.disk_queue);
        self.store.record(server_id, CounterKind::MemoryPagesPerSec, w, m.memory_pages_per_sec);
        self.store.record(server_id, CounterKind::NetworkBytesPerSec, w, m.network_bytes);
        self.store.record(server_id, CounterKind::NetworkPacketsPerSec, w, m.network_pkts);
        self.store.record(server_id, CounterKind::ErrorsPerSec, w, m.errors_per_sec);
        self.store.record(server_id, CounterKind::MemoryResidentMb, w, m.memory_resident_mb);
        for (ti, (&t_rps, &t_cpu)) in m.table_rps.iter().zip(&m.table_cpu).enumerate() {
            let tag = WorkloadTag::Workload(ti as u8);
            self.store.record_tagged(server_id, CounterKind::RequestsPerSec, tag, w, t_rps);
            self.store.record_tagged(server_id, CounterKind::CpuPercent, tag, w, t_cpu);
        }
        (
            m.cpu_pct,
            m.latency_avg_ms,
            m.latency_p95_ms,
            m.disk_queue,
            m.memory_pages_per_sec,
            m.network_bytes * 8.0 / 1e6,
        )
    }

    fn step(&mut self) {
        let (w, t, utc_hour) = self.begin_window();
        self.snapshot.clear();
        self.pool_slices.clear();

        // Simulate each pool.
        let track_availability = self.config.track_availability;
        let recording = self.config.recording;
        for pi in 0..self.fleet.pools().len() {
            let slice_start = self.snapshot.len();
            let demand = self.pool_demand[pi];
            let (pool_id, dc, local_hour, pool_size, dc_lost, net_scale) =
                self.pool_header(pi, t, utc_hour);

            self.fill_online_flags(pi, pool_size, w, local_hour, dc_lost);
            let online_count = self.online_flags.iter().filter(|&&o| o).count();
            let lb = self.lb;
            lb.distribute_into(&mut self.shares, demand, online_count, &mut self.rng);

            // Evaluate servers.
            let mut next_share = 0usize;
            for idx in 0..pool_size {
                let online = self.online_flags[idx];
                let (server_id, generation, windows_online) = {
                    let s = &self.fleet.pools()[pi].servers[idx];
                    (s.id, s.generation, s.windows_online)
                };

                if track_availability {
                    self.availability.record(server_id, w, online);
                }

                if !online {
                    if let Some(pool) = self.fleet.pools_mut().get_mut(pi) {
                        pool.servers[idx].tick_offline();
                    }
                    self.snapshot.push(SnapshotRow {
                        server: server_id,
                        pool: pool_id,
                        datacenter: dc,
                        online: false,
                        rps: 0.0,
                        cpu_pct: 0.0,
                        latency_p95_ms: 0.0,
                        disk_queue: 0.0,
                        memory_pages_per_sec: 0.0,
                        network_mbps: 0.0,
                    });
                    continue;
                }

                let rps = self.shares.get(next_share).copied().unwrap_or(0.0);
                next_share += 1;
                let (cpu, lat_avg, lat_p95, disk_queue, mem_pages, net_mbps) = match recording {
                    RecordingPolicy::Full => {
                        self.eval_full(pi, server_id, generation, windows_online, rps, w)
                    }
                    RecordingPolicy::Workload => {
                        let (cpu, lat_avg, lat_p95, dq, pg, nm) = {
                            let model = &self.fleet.pools()[pi].model;
                            let (cpu, lat_avg, lat_p95) =
                                model.window_metrics_lite(rps, generation, &mut self.rng);
                            // Noise-free resource means: no extra RNG draws,
                            // so the recorded CPU/latency stream is identical
                            // to the pre-multi-resource simulator.
                            (
                                cpu,
                                lat_avg,
                                lat_p95,
                                model.disk_queue_mean(rps),
                                model.paging_mean(rps),
                                model.network_mbps_mean(rps, net_scale),
                            )
                        };
                        self.store.record(server_id, CounterKind::CpuPercent, w, cpu);
                        self.store.record(server_id, CounterKind::RequestsPerSec, w, rps);
                        self.store.record(server_id, CounterKind::LatencyAvgMs, w, lat_avg);
                        self.store.record(server_id, CounterKind::LatencyP95Ms, w, lat_p95);
                        (cpu, lat_avg, lat_p95, dq, pg, nm)
                    }
                    RecordingPolicy::SnapshotOnly => {
                        let model = &self.fleet.pools()[pi].model;
                        let (cpu, lat_avg, lat_p95) =
                            model.window_metrics_lite(rps, generation, &mut self.rng);
                        (
                            cpu,
                            lat_avg,
                            lat_p95,
                            model.disk_queue_mean(rps),
                            model.paging_mean(rps),
                            model.network_mbps_mean(rps, net_scale),
                        )
                    }
                    RecordingPolicy::AvailabilityOnly => (0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
                };
                let _ = lat_avg;

                if let Some(pool) = self.fleet.pools_mut().get_mut(pi) {
                    pool.servers[idx].tick_online();
                }
                self.snapshot.push(SnapshotRow {
                    server: server_id,
                    pool: pool_id,
                    datacenter: dc,
                    online: true,
                    rps,
                    cpu_pct: cpu,
                    latency_p95_ms: lat_p95,
                    disk_queue,
                    memory_pages_per_sec: mem_pages,
                    network_mbps: net_mbps,
                });
            }
            self.pool_slices.push(PoolSlice {
                pool: pool_id,
                start: slice_start,
                len: self.snapshot.len() - slice_start,
            });
        }
    }

    /// Sizes the column buffers and (once) builds the static identity and
    /// hardware columns. Row layout is static for a fleet — every server
    /// appears every window, online or not — so after the first columnar
    /// step this only clears the bitmask.
    fn ensure_columns(&mut self) {
        let n = self.fleet.server_count();
        self.columns.resize(n);
        if self.hw_col.len() != n {
            self.hw_col.clear();
            let mut i = 0usize;
            for pool in self.fleet.pools() {
                for s in &pool.servers {
                    self.columns.server[i] = s.id;
                    self.columns.pool[i] = pool.id;
                    self.columns.datacenter[i] = pool.datacenter;
                    self.hw_col.push(s.generation);
                    i += 1;
                }
            }
        }
    }

    /// Ticks every server of pool `pi` per its online flag — the
    /// per-server age bookkeeping of the lite recording paths, where no
    /// metric reads `windows_online` and the ticks can run up front. The
    /// `Full` path must NOT use this: it reads `windows_online` (the leak
    /// model) *before* ticking, per server, in row-path order.
    fn tick_pool_servers(&mut self, pi: usize, pool_size: usize) {
        if let Some(pool) = self.fleet.pools_mut().get_mut(pi) {
            for idx in 0..pool_size {
                if self.online_flags[idx] {
                    pool.servers[idx].tick_online();
                } else {
                    pool.servers[idx].tick_offline();
                }
            }
        }
    }

    /// The columnar window step: identical phases, identical RNG stream,
    /// and bit-identical values to [`Simulation::step`], but metrics are
    /// written straight into per-pool-contiguous column buffers and the
    /// cheap recording paths evaluate the response-model kernels
    /// element-wise over column slices instead of per-server row structs.
    ///
    /// Noise is inherently sequential (one gaussian stream shared with the
    /// row path), so each pool runs a short sequential noise pass first;
    /// everything after it is branch-light columnar arithmetic.
    fn step_cols(&mut self) {
        let (w, t, utc_hour) = self.begin_window();
        self.pool_slices.clear();
        self.ensure_columns();

        let track_availability = self.config.track_availability;
        let recording = self.config.recording;
        let mut base = 0usize;
        for pi in 0..self.fleet.pools().len() {
            let demand = self.pool_demand[pi];
            let (pool_id, _dc, local_hour, pool_size, dc_lost, net_scale) =
                self.pool_header(pi, t, utc_hour);

            self.fill_online_flags(pi, pool_size, w, local_hour, dc_lost);
            let online_count = self.online_flags.iter().filter(|&&o| o).count();
            let lb = self.lb;
            lb.distribute_into(&mut self.shares, demand, online_count, &mut self.rng);

            // Identity phase: availability, online bits, workload column.
            let mut next_share = 0usize;
            for idx in 0..pool_size {
                let online = self.online_flags[idx];
                if track_availability {
                    let server_id = self.fleet.pools()[pi].servers[idx].id;
                    self.availability.record(server_id, w, online);
                }
                self.columns.set_online(base + idx, online);
                self.columns.rps[base + idx] = if online {
                    let r = self.shares.get(next_share).copied().unwrap_or(0.0);
                    next_share += 1;
                    r
                } else {
                    0.0
                };
            }

            match recording {
                RecordingPolicy::Full => {
                    // The archival path stays scalar (its per-server metrics
                    // and tagged series do not columnarize), evaluated in
                    // exactly the row path's order — including the
                    // before-tick `windows_online` read the leak model needs.
                    for idx in 0..pool_size {
                        let online = self.online_flags[idx];
                        let (server_id, generation, windows_online) = {
                            let s = &self.fleet.pools()[pi].servers[idx];
                            (s.id, s.generation, s.windows_online)
                        };
                        let i = base + idx;
                        if !online {
                            if let Some(pool) = self.fleet.pools_mut().get_mut(pi) {
                                pool.servers[idx].tick_offline();
                            }
                            self.columns.cpu_pct[i] = 0.0;
                            self.columns.latency_p95_ms[i] = 0.0;
                            self.columns.disk_queue[i] = 0.0;
                            self.columns.memory_pages_per_sec[i] = 0.0;
                            self.columns.network_mbps[i] = 0.0;
                            continue;
                        }
                        let rps = self.columns.rps[i];
                        let (cpu, _lat_avg, lat_p95, dq, pg, nm) =
                            self.eval_full(pi, server_id, generation, windows_online, rps, w);
                        if let Some(pool) = self.fleet.pools_mut().get_mut(pi) {
                            pool.servers[idx].tick_online();
                        }
                        self.columns.cpu_pct[i] = cpu;
                        self.columns.latency_p95_ms[i] = lat_p95;
                        self.columns.disk_queue[i] = dq;
                        self.columns.memory_pages_per_sec[i] = pg;
                        self.columns.network_mbps[i] = nm;
                    }
                }
                RecordingPolicy::Workload | RecordingPolicy::SnapshotOnly => {
                    // Lite metrics never read `windows_online`, so server
                    // ticks can run up front.
                    self.tick_pool_servers(pi, pool_size);
                    // Sequential noise pass: the exact gaussian draws (and
                    // order) of the row path's per-server lite calls.
                    self.noise_cpu.clear();
                    self.noise_cpu.resize(pool_size, 0.0);
                    self.noise_p95.clear();
                    self.noise_p95.resize(pool_size, 0.0);
                    self.noise_avg.clear();
                    self.noise_avg.resize(pool_size, 0.0);
                    for idx in 0..pool_size {
                        if self.online_flags[idx] {
                            let n = LiteNoise::draw(&mut self.rng);
                            self.noise_cpu[idx] = n.cpu;
                            self.noise_p95[idx] = n.p95;
                            self.noise_avg[idx] = n.avg;
                        }
                    }
                    // Columnar kernels over the pool's slice.
                    self.lat_avg_col.clear();
                    self.lat_avg_col.resize(pool_size, 0.0);
                    let range = base..base + pool_size;
                    let model = &self.fleet.pools()[pi].model;
                    model.lite_columns(
                        LiteColumnsIn {
                            rps: &self.columns.rps[range.clone()],
                            hw: &self.hw_col[range.clone()],
                            noise_cpu: &self.noise_cpu,
                            noise_p95: &self.noise_p95,
                            noise_avg: &self.noise_avg,
                        },
                        LiteColumnsOut {
                            cpu: &mut self.columns.cpu_pct[range.clone()],
                            latency_avg: &mut self.lat_avg_col,
                            latency_p95: &mut self.columns.latency_p95_ms[range.clone()],
                        },
                    );
                    model.resource_mean_columns(
                        &self.columns.rps[range.clone()],
                        net_scale,
                        &mut self.columns.disk_queue[range.clone()],
                        &mut self.columns.memory_pages_per_sec[range.clone()],
                        &mut self.columns.network_mbps[range],
                    );
                    // The kernels wrote every lane (offline lanes computed
                    // on rps = 0); restore the offline zero contract.
                    self.columns.zero_offline(base, pool_size);

                    if recording == RecordingPolicy::Workload {
                        for idx in 0..pool_size {
                            if !self.online_flags[idx] {
                                continue;
                            }
                            let i = base + idx;
                            let server_id = self.columns.server[i];
                            self.store.record(
                                server_id,
                                CounterKind::CpuPercent,
                                w,
                                self.columns.cpu_pct[i],
                            );
                            self.store.record(
                                server_id,
                                CounterKind::RequestsPerSec,
                                w,
                                self.columns.rps[i],
                            );
                            self.store.record(
                                server_id,
                                CounterKind::LatencyAvgMs,
                                w,
                                self.lat_avg_col[idx],
                            );
                            self.store.record(
                                server_id,
                                CounterKind::LatencyP95Ms,
                                w,
                                self.columns.latency_p95_ms[i],
                            );
                        }
                    }
                }
                RecordingPolicy::AvailabilityOnly => {
                    self.tick_pool_servers(pi, pool_size);
                    for i in base..base + pool_size {
                        self.columns.cpu_pct[i] = 0.0;
                        self.columns.latency_p95_ms[i] = 0.0;
                        self.columns.disk_queue[i] = 0.0;
                        self.columns.memory_pages_per_sec[i] = 0.0;
                        self.columns.network_mbps[i] = 0.0;
                    }
                }
            }

            self.pool_slices.push(PoolSlice { pool: pool_id, start: base, len: pool_size });
            base += pool_size;
        }
    }

    /// The sequential prefix of a streamed `SnapshotOnly` window: exactly
    /// [`Simulation::step_cols`]'s phases *up to* the metric kernels —
    /// demand, routing, online flags, availability, RPS fill, server
    /// ticks, and the per-server noise draws (the complete RNG
    /// consumption of a window, in the row path's order, so the stream
    /// stays bit-identical) — writing the noise into fleet-length columns
    /// instead of per-pool scratch. The metric columns are *not* touched;
    /// the consumer evaluates the kernels per tile from the RPS, noise,
    /// hardware, and online-mask columns this leaves behind.
    fn step_streamed_prefix(&mut self) {
        let (w, t, utc_hour) = self.begin_window();
        self.pool_slices.clear();
        self.ensure_columns();
        let n = self.fleet.server_count();
        // No clear before resize: every lane is written in the loop below.
        self.stream_noise_cpu.resize(n, 0.0);
        self.stream_noise_p95.resize(n, 0.0);
        self.stream_noise_avg.resize(n, 0.0);

        let track_availability = self.config.track_availability;
        let mut base = 0usize;
        for pi in 0..self.fleet.pools().len() {
            let demand = self.pool_demand[pi];
            let (pool_id, _dc, local_hour, pool_size, dc_lost, _net_scale) =
                self.pool_header(pi, t, utc_hour);

            self.fill_online_flags(pi, pool_size, w, local_hour, dc_lost);
            let online_count = self.online_flags.iter().filter(|&&o| o).count();
            let lb = self.lb;
            lb.distribute_into(&mut self.shares, demand, online_count, &mut self.rng);

            // Identity + noise in one walk: the noise draws still happen
            // in server order after the pool's routing draw, so the
            // gaussian stream matches the materialised paths exactly.
            let mut next_share = 0usize;
            for idx in 0..pool_size {
                let online = self.online_flags[idx];
                if track_availability {
                    let server_id = self.fleet.pools()[pi].servers[idx].id;
                    self.availability.record(server_id, w, online);
                }
                let i = base + idx;
                self.columns.set_online(i, online);
                if online {
                    self.columns.rps[i] = self.shares.get(next_share).copied().unwrap_or(0.0);
                    next_share += 1;
                    let noise = LiteNoise::draw(&mut self.rng);
                    self.stream_noise_cpu[i] = noise.cpu;
                    self.stream_noise_p95[i] = noise.p95;
                    self.stream_noise_avg[i] = noise.avg;
                } else {
                    self.columns.rps[i] = 0.0;
                    self.stream_noise_cpu[i] = 0.0;
                    self.stream_noise_p95[i] = 0.0;
                    self.stream_noise_avg[i] = 0.0;
                }
            }
            self.tick_pool_servers(pi, pool_size);

            self.pool_slices.push(PoolSlice { pool: pool_id, start: base, len: pool_size });
            base += pool_size;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::FleetBuilder;
    use headroom_telemetry::time::WindowRange;
    use headroom_workload::events;

    fn small_fleet(seed: u64) -> Fleet {
        let spec = MicroserviceKind::B
            .spec()
            .with_practice(crate::maintenance::AvailabilityPractice::WellManaged);
        FleetBuilder::new(seed)
            .datacenters(3)
            .without_failures()
            .without_incidents()
            .deploy_with_spec(&spec, 10, spec.peak_rps_per_server)
            .unwrap()
            .build()
    }

    #[test]
    fn deterministic_across_runs() {
        let mk = || {
            let mut sim =
                Simulation::new(small_fleet(3), EventScript::empty(), SimConfig::default());
            sim.run_windows(50);
            sim
        };
        let a = mk();
        let b = mk();
        let pool = a.fleet().pools()[0].id;
        let range = WindowRange::new(WindowIndex(0), WindowIndex(50));
        assert_eq!(
            a.store().pool_mean_series(pool, CounterKind::CpuPercent, range),
            b.store().pool_mean_series(pool, CounterKind::CpuPercent, range)
        );
    }

    #[test]
    fn cpu_tracks_workload_linearly() {
        let mut sim = Simulation::new(small_fleet(1), EventScript::empty(), SimConfig::default());
        sim.run_days(1.0);
        let pool = sim.fleet().pools()[0].id;
        let obs = sim.store().pool_paired_observations(
            pool,
            CounterKind::RequestsPerSec,
            CounterKind::CpuPercent,
            WindowRange::days(1.0),
        );
        assert!(obs.len() > 700);
        let fit = headroom_stats::LinearFit::fit_paired(&obs).unwrap();
        assert!(fit.r_squared > 0.95, "r2 {}", fit.r_squared);
        assert!((fit.slope - 0.028).abs() < 0.004, "slope {}", fit.slope);
    }

    #[test]
    fn resize_increases_per_server_load() {
        let mut sim = Simulation::new(small_fleet(2), EventScript::empty(), SimConfig::default());
        let pool = sim.fleet().pools()[0].id;
        sim.schedule_resize(pool, WindowIndex(720), 7).unwrap();
        sim.run_days(2.0);
        let store = sim.store();
        let day1: Vec<f64> = store
            .pool_mean_series(pool, CounterKind::RequestsPerSec, WindowRange::day(0))
            .iter()
            .map(|(_, v)| *v)
            .collect();
        let day2: Vec<f64> = store
            .pool_mean_series(pool, CounterKind::RequestsPerSec, WindowRange::day(1))
            .iter()
            .map(|(_, v)| *v)
            .collect();
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let ratio = mean(&day2) / mean(&day1);
        assert!((ratio - 10.0 / 7.0).abs() < 0.12, "per-server load ratio {ratio}");
        // Active-server count drops in the store too.
        assert_eq!(store.pool_active_servers(pool, WindowIndex(800)), 7);
    }

    #[test]
    fn resize_validation() {
        let mut sim = Simulation::new(small_fleet(2), EventScript::empty(), SimConfig::default());
        let pool = sim.fleet().pools()[0].id;
        let len = sim.fleet().pools().len() as u32;
        for unknown in [PoolId(len), PoolId(999), PoolId(u32::MAX)] {
            assert_eq!(
                sim.schedule_resize(unknown, WindowIndex(0), 5),
                Err(ClusterError::UnknownPool(unknown))
            );
        }
        assert!(matches!(
            sim.schedule_resize(pool, WindowIndex(0), 0),
            Err(ClusterError::InvalidResize { .. })
        ));
        assert!(matches!(
            sim.schedule_resize(pool, WindowIndex(0), 11),
            Err(ClusterError::InvalidResize { .. })
        ));
    }

    #[test]
    fn dc_loss_reroutes_demand() {
        let fleet = small_fleet(4);
        let dc0 = fleet.datacenters()[0].id;
        let survivor_pool = fleet.pools()[1].id;
        let lost_pool = fleet.pools()[0].id;
        // Event in the middle of day 0, lasting 2 hours.
        let script =
            events::two_hour_dc_loss(dc0, headroom_telemetry::time::SimTime::from_hours(12.0));
        let mut sim = Simulation::new(fleet, script, SimConfig::default());
        sim.run_days(1.0);
        let store = sim.store();
        // During the event the lost pool has no active servers.
        let event_window = WindowIndex(13 * 30); // 13:00
        assert_eq!(store.pool_active_servers(lost_pool, event_window), 0);
        // The survivor sees elevated RPS/server vs the same hour next...
        // compare event hour to one hour before event start.
        let before = store
            .pool_window_mean(survivor_pool, CounterKind::RequestsPerSec, WindowIndex(11 * 30))
            .unwrap();
        let during = store
            .pool_window_mean(survivor_pool, CounterKind::RequestsPerSec, event_window)
            .unwrap();
        assert!(during > before * 1.2, "before {before}, during {during}");
    }

    #[test]
    fn availability_tracks_maintenance_practice() {
        let fleet = FleetBuilder::new(9)
            .datacenters(1)
            .without_failures()
            .deploy_service(MicroserviceKind::C, 40) // Heavy ⇒ ~90.5%
            .unwrap()
            .build();
        let mut sim = Simulation::new(
            fleet,
            EventScript::empty(),
            SimConfig { recording: RecordingPolicy::AvailabilityOnly, ..SimConfig::default() },
        );
        sim.run_days(7.0);
        let mean = sim.availability().fleet_mean_availability().unwrap();
        assert!((mean - 0.905).abs() < 0.04, "availability {mean}");
        // AvailabilityOnly stores no counters.
        assert_eq!(sim.store().sample_count(), 0);
    }

    #[test]
    fn observer_sees_every_server() {
        let fleet = small_fleet(5);
        let total_servers = fleet.server_count();
        let mut sim = Simulation::new(fleet, EventScript::empty(), SimConfig::default());
        let mut rows_seen = 0usize;
        let mut windows = Vec::new();
        sim.run_windows_observed(3, |snap| {
            rows_seen += snap.rows.len();
            windows.push(snap.window);
        });
        assert_eq!(rows_seen, 3 * total_servers);
        assert_eq!(windows, vec![WindowIndex(0), WindowIndex(1), WindowIndex(2)]);
    }

    #[test]
    fn full_recording_includes_fig2_counters() {
        let mut sim = Simulation::new(
            small_fleet(6),
            EventScript::empty(),
            SimConfig { recording: RecordingPolicy::Full, ..SimConfig::default() },
        );
        sim.run_windows(10);
        let server = sim.fleet().pools()[0].servers[0].id;
        for counter in CounterKind::FIG2_RESOURCES {
            assert!(sim.store().series(server, counter).is_some(), "missing counter {counter}");
        }
    }

    #[test]
    fn partitioned_snapshot_covers_rows_pool_by_pool() {
        let fleet = small_fleet(8);
        let pool_count = fleet.pools().len();
        let total_servers = fleet.server_count();
        let mut sim = Simulation::new(fleet, EventScript::empty(), SimConfig::default());
        let snap = sim.step_snapshot_partitioned();
        assert_eq!(snap.pools.len(), pool_count);
        assert_eq!(snap.rows.len(), total_servers);
        let mut cursor = 0usize;
        for slice in snap.pools {
            assert_eq!(slice.start, cursor, "slices tile the row array in order");
            let rows = snap.pool_rows(slice);
            assert!(!rows.is_empty());
            assert!(rows.iter().all(|r| r.pool == slice.pool), "slice rows belong to its pool");
            cursor += slice.len;
        }
        assert_eq!(cursor, snap.rows.len(), "every row is covered exactly once");
        // The flat view is the same window.
        assert_eq!(snap.as_snapshot().window, snap.window);
        assert_eq!(snap.as_snapshot().rows.len(), total_servers);
    }

    #[test]
    fn snapshot_rows_carry_resource_counters() {
        use headroom_workload::resource_profile::ResourceProfile;
        let mut fleet = small_fleet(13);
        // Make pool 0 disk-coupled so its counters respond to workload.
        fleet.pools_mut()[0].model =
            fleet.pools()[0].model.clone().with_resource_profile(&ResourceProfile::disk_heavy());
        let mut sim = Simulation::new(fleet, EventScript::empty(), SimConfig::default());
        let snap = sim.step_snapshot();
        let online: Vec<&SnapshotRow> = snap.rows.iter().filter(|r| r.online).collect();
        assert!(!online.is_empty());
        for row in &online {
            assert!(row.network_mbps > 0.0, "network tracks workload: {row:?}");
            assert!(row.memory_pages_per_sec > 0.0);
            assert!(row.disk_queue > 0.0);
        }
        // Disk-coupled pool: queue depth grows with per-server RPS.
        let p0: Vec<&&SnapshotRow> =
            online.iter().filter(|r| r.pool == snap.rows[0].pool).collect();
        let expected = 1.0 + 0.02 * p0[0].rps;
        assert!(
            (p0[0].disk_queue - expected).abs() < 1e-9,
            "disk queue follows the profile: {} vs {expected}",
            p0[0].disk_queue
        );
    }

    #[test]
    fn availability_only_snapshot_resources_are_zero() {
        let mut sim = Simulation::new(
            small_fleet(14),
            EventScript::empty(),
            SimConfig { recording: RecordingPolicy::AvailabilityOnly, ..SimConfig::default() },
        );
        let snap = sim.step_snapshot();
        assert!(snap.rows.iter().all(|r| r.disk_queue == 0.0
            && r.memory_pages_per_sec == 0.0
            && r.network_mbps == 0.0));
    }

    #[test]
    fn partitioned_and_flat_stepping_agree() {
        let mk = |partitioned: bool| {
            let mut sim =
                Simulation::new(small_fleet(11), EventScript::empty(), SimConfig::default());
            let mut rows = Vec::new();
            for _ in 0..30 {
                if partitioned {
                    rows.extend(sim.step_snapshot_partitioned().rows.to_vec());
                } else {
                    rows.extend(sim.step_snapshot().rows.to_vec());
                }
            }
            rows
        };
        assert_eq!(mk(true), mk(false), "partitioning changes nothing but the view");
    }

    /// Drives one simulation stepping rows and a twin stepping columns and
    /// asserts byte-identical rows, stores, and availability per window.
    fn assert_columnar_identity(recording: RecordingPolicy, windows: u64) {
        let fleet = || {
            let spec = MicroserviceKind::B
                .spec()
                .with_practice(crate::maintenance::AvailabilityPractice::Moderate);
            FleetBuilder::new(21)
                .datacenters(2)
                .deploy_with_spec(&spec, 8, spec.peak_rps_per_server)
                .unwrap()
                .deploy_service(MicroserviceKind::D, 5)
                .unwrap()
                .build()
        };
        let config = SimConfig { seed: 9, recording, ..SimConfig::default() };
        let mut rows_sim = Simulation::new(fleet(), EventScript::empty(), config);
        let mut cols_sim = Simulation::new(fleet(), EventScript::empty(), config);
        let mut cols_rows = Vec::new();
        for i in 0..windows {
            let row_snap = rows_sim.step_snapshot_partitioned();
            let expect_rows = row_snap.rows.to_vec();
            let expect_slices = row_snap.pools.to_vec();
            let col_snap = cols_sim.step_columns_partitioned();
            assert_eq!(col_snap.pools, &expect_slices[..], "partition diverged at window {i}");
            col_snap.columns.to_rows(&mut cols_rows);
            assert_eq!(cols_rows, expect_rows, "{recording:?} rows diverged at window {i}");
        }
        // Recorded state converges too: counters and availability.
        assert_eq!(rows_sim.store().sample_count(), cols_sim.store().sample_count());
        let pool = rows_sim.fleet().pools()[0].id;
        let range = WindowRange::new(WindowIndex(0), WindowIndex(windows));
        for counter in [CounterKind::CpuPercent, CounterKind::LatencyAvgMs] {
            assert_eq!(
                rows_sim.store().pool_mean_series(pool, counter, range),
                cols_sim.store().pool_mean_series(pool, counter, range),
                "{recording:?} stored {counter} series diverged"
            );
        }
        assert_eq!(
            rows_sim.availability().fleet_mean_availability(),
            cols_sim.availability().fleet_mean_availability()
        );
    }

    #[test]
    fn columnar_step_is_bit_identical_workload() {
        assert_columnar_identity(RecordingPolicy::Workload, 40);
    }

    #[test]
    fn columnar_step_is_bit_identical_full() {
        assert_columnar_identity(RecordingPolicy::Full, 12);
    }

    #[test]
    fn columnar_step_is_bit_identical_snapshot_only() {
        assert_columnar_identity(RecordingPolicy::SnapshotOnly, 40);
    }

    #[test]
    fn columnar_step_is_bit_identical_availability_only() {
        assert_columnar_identity(RecordingPolicy::AvailabilityOnly, 40);
    }

    #[test]
    fn layout_switch_defaults_to_streamed() {
        assert_eq!(SimConfig::default().layout, SnapshotLayout::Streamed);
        let sim = Simulation::new(small_fleet(1), EventScript::empty(), SimConfig::default());
        assert_eq!(sim.config().layout, SnapshotLayout::Streamed);
    }

    /// Drives a streamed twin against a materialised-columns twin: the
    /// streamed prefix + per-pool `step_tile_columns` must reproduce the
    /// materialised column values, partition, RNG stream, and availability
    /// log bit for bit.
    #[test]
    fn streamed_step_matches_materialized_columns_snapshot_only() {
        let fleet = || {
            let spec = MicroserviceKind::B
                .spec()
                .with_practice(crate::maintenance::AvailabilityPractice::Moderate);
            FleetBuilder::new(21)
                .datacenters(2)
                .deploy_with_spec(&spec, 8, spec.peak_rps_per_server)
                .unwrap()
                .deploy_service(MicroserviceKind::D, 5)
                .unwrap()
                .build()
        };
        let config =
            SimConfig { seed: 9, recording: RecordingPolicy::SnapshotOnly, ..SimConfig::default() };
        let mut cols_sim = Simulation::new(fleet(), EventScript::empty(), config);
        let mut streamed_sim = Simulation::new(fleet(), EventScript::empty(), config);
        // A mid-run release: the streamed path's kernel cache must pick up
        // the swapped model the same window the materialised path does.
        let release = MicroserviceKind::B.spec().model.with_cpu_per_rps_scaled(1.3);
        let target = cols_sim.fleet().pools()[0].id;
        cols_sim.schedule_model_swap(target, WindowIndex(20), release.clone()).unwrap();
        streamed_sim.schedule_model_swap(target, WindowIndex(20), release).unwrap();
        let (mut cpu, mut lat_avg, mut lat_p95) = (Vec::new(), Vec::new(), Vec::new());
        let (mut dq, mut pg, mut nm) = (Vec::new(), Vec::new(), Vec::new());
        for i in 0..40u64 {
            let col_snap = cols_sim.step_columns_partitioned();
            let expect_slices = col_snap.pools.to_vec();
            let expect_cols = col_snap.columns.clone();
            let win = streamed_sim.step_streamed();
            assert_eq!(win.pools, &expect_slices[..], "partition diverged at window {i}");
            let StreamedSource::Kernels(kernels) = win.source else {
                panic!("SnapshotOnly must stream kernels");
            };
            for (pi, slice) in win.pools.iter().enumerate() {
                let (start, len) = (slice.start, slice.len);
                assert_eq!(
                    &kernels.rps()[start..start + len],
                    &expect_cols.rps()[start..start + len],
                    "rps diverged at window {i} pool {pi}"
                );
                assert_eq!(
                    kernels.online_count(start, len),
                    expect_cols.online_count(start, len),
                    "online mask diverged at window {i} pool {pi}"
                );
                for buf in [&mut cpu, &mut lat_avg, &mut lat_p95, &mut dq, &mut pg, &mut nm] {
                    buf.clear();
                    buf.resize(len, f64::NAN);
                }
                kernels.step_tile_columns(
                    pi,
                    start,
                    len,
                    StreamedTileOut {
                        cpu: &mut cpu,
                        latency_avg: &mut lat_avg,
                        latency_p95: &mut lat_p95,
                        disk_queue: &mut dq,
                        memory_pages_per_sec: &mut pg,
                        network_mbps: &mut nm,
                    },
                );
                assert_eq!(cpu, &expect_cols.cpu_pct()[start..start + len], "cpu w{i} p{pi}");
                assert_eq!(
                    lat_p95,
                    &expect_cols.latency_p95_ms()[start..start + len],
                    "p95 w{i} p{pi}"
                );
                assert_eq!(dq, &expect_cols.disk_queue()[start..start + len], "disk w{i} p{pi}");
                assert_eq!(
                    pg,
                    &expect_cols.memory_pages_per_sec()[start..start + len],
                    "pages w{i} p{pi}"
                );
                assert_eq!(nm, &expect_cols.network_mbps()[start..start + len], "net w{i} p{pi}");
            }
        }
        // The RNG streams stayed in lockstep: further materialised windows
        // on both twins still agree.
        let mut back = Vec::new();
        let expect = cols_sim.step_columns_partitioned().columns.clone();
        streamed_sim.step_columns_partitioned().columns.to_rows(&mut back);
        assert_eq!(SnapshotColumns::from_rows(&back), expect, "streams diverged after streaming");
        assert_eq!(
            cols_sim.availability().fleet_mean_availability(),
            streamed_sim.availability().fleet_mean_availability()
        );
    }

    /// The non-streaming recording policies fall back to materialised
    /// columns under `step_streamed`, with identical values and stores.
    /// The kernel cache must collapse a fleet deployed from a handful of
    /// specs to that many entries, index every pool, and pick up a model
    /// mutation on rebuild.
    #[test]
    fn kernel_cache_dedups_by_exact_parameters() {
        let mut fleet = FleetBuilder::new(3)
            .datacenters(3)
            .deploy_service(MicroserviceKind::B, 6)
            .unwrap()
            .deploy_service(MicroserviceKind::D, 6)
            .unwrap()
            .build();
        let pools = fleet.pools().len();
        let mut cache = KernelCache::build(fleet.pools());
        assert_eq!(cache.pools(), pools);
        // Two service specs: the per-datacenter `net_scale` variation
        // lives in the dense scale column, not the deduplicated models.
        assert_eq!(cache.distinct(), 2, "one model per deployed spec");
        // A release on one pool splits its entry off on rebuild.
        fleet.pools_mut()[0].model = MicroserviceKind::B.spec().model.with_cpu_per_rps_scaled(1.5);
        cache.rebuild(fleet.pools());
        assert_eq!(cache.pools(), pools);
        assert_eq!(cache.distinct(), 3, "swapped model gets its own entry");
    }

    #[test]
    fn streamed_step_falls_back_for_recording_policies() {
        for recording in
            [RecordingPolicy::Workload, RecordingPolicy::Full, RecordingPolicy::AvailabilityOnly]
        {
            let config = SimConfig { seed: 5, recording, ..SimConfig::default() };
            let mut cols_sim = Simulation::new(small_fleet(3), EventScript::empty(), config);
            let mut streamed_sim = Simulation::new(small_fleet(3), EventScript::empty(), config);
            for i in 0..12u64 {
                let col_snap = cols_sim.step_columns_partitioned();
                let expect_cols = col_snap.columns.clone();
                let win = streamed_sim.step_streamed();
                let StreamedSource::Columns(cols) = win.source else {
                    panic!("{recording:?} must fall back to materialised columns");
                };
                assert_eq!(*cols, expect_cols, "{recording:?} columns diverged at window {i}");
            }
            assert_eq!(
                cols_sim.store().sample_count(),
                streamed_sim.store().sample_count(),
                "{recording:?} stores diverged"
            );
        }
    }

    #[test]
    fn interleaved_layouts_share_one_stream() {
        // Alternating row and columnar steps on one simulation advances one
        // underlying stream: a pure-row twin sees the same rows at the same
        // windows, whichever layout produced them.
        let mut mixed = Simulation::new(small_fleet(6), EventScript::empty(), SimConfig::default());
        let mut pure = Simulation::new(small_fleet(6), EventScript::empty(), SimConfig::default());
        let mut buf = Vec::new();
        for i in 0..20u64 {
            let expect = pure.step_snapshot().rows.to_vec();
            let got = if i % 2 == 0 {
                mixed.step_columns_partitioned().columns.to_rows(&mut buf);
                buf.clone()
            } else {
                mixed.step_snapshot().rows.to_vec()
            };
            assert_eq!(got, expect, "window {i}");
        }
    }

    #[test]
    fn model_swap_changes_response_profile_at_window() {
        let mut sim = Simulation::new(small_fleet(12), EventScript::empty(), SimConfig::default());
        let pool = sim.fleet().pools()[0].id;
        // A release that makes every request twice as dear, mid-run.
        let release = sim.fleet().pools()[0].model.clone().with_cpu_per_rps_scaled(2.0);
        sim.schedule_model_swap(pool, WindowIndex(360), release).unwrap();
        sim.run_days(1.0);
        let store = sim.store();
        let fit_over = |lo: u64, hi: u64| {
            let obs = store.pool_paired_observations(
                pool,
                CounterKind::RequestsPerSec,
                CounterKind::CpuPercent,
                WindowRange::new(WindowIndex(lo), WindowIndex(hi)),
            );
            headroom_stats::LinearFit::fit_paired(&obs).unwrap().slope
        };
        let before = fit_over(0, 360);
        let after = fit_over(360, 720);
        assert!(
            (after / before - 2.0).abs() < 0.25,
            "cpu-per-rps slope doubled: before {before:.4}, after {after:.4}"
        );
    }

    #[test]
    fn model_swap_validates_pool() {
        let mut sim = Simulation::new(small_fleet(12), EventScript::empty(), SimConfig::default());
        let model = sim.fleet().pools()[0].model.clone();
        let len = sim.fleet().pools().len() as u32;
        for unknown in [PoolId(len), PoolId(999), PoolId(u32::MAX)] {
            assert!(matches!(
                sim.schedule_model_swap(unknown, WindowIndex(0), model.clone()),
                Err(ClusterError::UnknownPool(p)) if p == unknown
            ));
        }
    }

    #[test]
    fn table_service_records_tagged_series() {
        let fleet = FleetBuilder::new(7)
            .datacenters(1)
            .without_failures()
            .without_incidents()
            .deploy_service(MicroserviceKind::A, 5)
            .unwrap()
            .build();
        let mut sim = Simulation::new(
            fleet,
            EventScript::empty(),
            SimConfig { recording: RecordingPolicy::Full, ..SimConfig::default() },
        );
        sim.run_windows(5);
        let server = sim.fleet().pools()[0].servers[0].id;
        assert!(sim
            .store()
            .series_tagged(server, CounterKind::RequestsPerSec, WorkloadTag::Workload(0))
            .is_some());
        assert!(sim
            .store()
            .series_tagged(server, CounterKind::CpuPercent, WorkloadTag::Workload(1))
            .is_some());
    }
}
