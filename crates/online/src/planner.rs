//! The streaming capacity planner and its simulation control loop.
//!
//! [`OnlinePlanner`] consumes one fleet snapshot per 120-second window and
//! maintains, per pool, a [`crate::shard::PoolShard`]:
//!
//! - a sliding window of pool-aggregate observations (ring-buffered);
//! - one workload→utilization line per resource — CPU, disk queue, memory
//!   paging, network ([`headroom_stats::FitArray`] of
//!   [`headroom_stats::StreamingLinReg`], O(1) each) — so the *binding*
//!   constraint is discovered, not assumed;
//! - the workload→latency quadratic ([`headroom_stats::StreamingQuadFit`],
//!   O(1));
//! - the top of the windowed total workload — a short ascending tail of
//!   its largest values, enough for the exact p99 peak (see
//!   [`crate::store`]) — and a monotonic max-deque of the serving
//!   allocation;
//! - a whole-stream P² tracker of the pool's p95 latency;
//! - a [`crate::drift::DriftDetector`] that discards stale history when the
//!   response profile shifts;
//! - an [`crate::exhaustion::ExhaustionProjector`] for days-to-exhaustion.
//!
//! Each window the planner re-derives every pool's minimum server count
//! with exactly the batch optimizer's formula — p99 of windowed total
//! workload divided by the per-server workload at the QoS limit — so a
//! window covering the same observations reproduces
//! `headroom_core::optimizer::optimize_pool` while updating orders of
//! magnitude faster than a batch refit. The fleet-level work is delegated
//! to a [`crate::sweep::SweepEngine`], which fans the pools out across
//! scoped threads and merges deterministically: results are bit-identical
//! for any thread count.

use std::collections::BTreeMap;

use headroom_cluster::columns::{ColumnarSnapshot, SnapshotColumns};
use headroom_cluster::sim::{
    PartitionedSnapshot, Simulation, SnapshotLayout, SnapshotRow, WindowSnapshot,
};
use headroom_core::sizing::{PoolSizing, SizingPlanner};
use headroom_core::slo::QosRequirement;
use headroom_stats::persist::{Persist, PersistError, Reader, Writer};
use headroom_telemetry::counter::Resource;
use headroom_telemetry::ids::PoolId;
use headroom_telemetry::time::WindowIndex;

use crate::drift::DriftConfig;
use crate::exhaustion::{ExhaustionProjection, HeadroomBand};
use crate::sweep::{AssessmentView, SweepEngine};

/// How the sweep engine executes its per-window fan-out.
///
/// Both modes share one chunk geometry and one merge order, so they are
/// *bit-identical* in output for any fleet and any thread count (property
/// tested); the choice is purely an execution-cost knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SweepExec {
    /// Long-lived workers, spawned once and parked between windows; the
    /// per-window hand-off is allocation-free. The default: fan-out costs
    /// ~µs, so `threads > 1` pays off even on small fleets.
    #[default]
    Persistent,
    /// Scoped threads spawned (and joined) every window — the pre-pool
    /// legacy shape, ~100µs/window of spawn overhead. Kept for A/B
    /// regression tests and for callers that must not hold threads.
    Scoped,
}

/// Streaming-planner tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlinePlannerConfig {
    /// Sliding-window length in 120-second windows (default 1440 = 2 days).
    pub window_capacity: usize,
    /// Windows required before a pool is first planned (default 180 = 6 h).
    pub min_fit_windows: usize,
    /// Re-derive sizings every this many windows (default 1 = every window).
    pub replan_every: u64,
    /// A recommendation is emitted only when the target differs from the
    /// current allocation by at least this many servers (default 1).
    pub deadband_servers: usize,
    /// Dwell-time hysteresis: a changed target must persist this many
    /// consecutive replans before a recommendation is emitted (default 0 =
    /// announce immediately). Growth out of an exhausted/critical band is
    /// never delayed. With `replan_every = 1`, one unit is one window.
    pub dwell_windows: u64,
    /// Sweep fan-out width: number of worker threads the pools are sharded
    /// across per window (default 1 = sequential; 0 = one per available
    /// core). Results are bit-identical for every setting.
    pub threads: usize,
    /// How the fan-out executes (persistent worker pool vs per-window
    /// scoped threads). Results are bit-identical for every setting.
    pub exec: SweepExec,
    /// Minimum pools per worker before another worker is engaged: the
    /// effective fan-out is `min(threads, ceil(pools / min_pool_chunk))`
    /// (default 64). Stops a small fleet from paying cross-thread hand-off
    /// per window for a handful of pools each — purely an execution knob,
    /// results are bit-identical for every setting.
    pub min_pool_chunk: usize,
    /// Drift-detector tuning.
    pub drift: DriftConfig,
}

impl Default for OnlinePlannerConfig {
    fn default() -> Self {
        OnlinePlannerConfig {
            window_capacity: 1440,
            min_fit_windows: 180,
            replan_every: 1,
            deadband_servers: 1,
            dwell_windows: 0,
            threads: 1,
            exec: SweepExec::default(),
            min_pool_chunk: 64,
            drift: DriftConfig::default(),
        }
    }
}

/// One pool's aggregate observation for one window: the workload, the QoS
/// signal, and the full Fig. 2 resource counter vector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoolWindowAggregate {
    /// The window observed.
    pub window: WindowIndex,
    /// Mean RPS per serving server.
    pub rps_per_server: f64,
    /// Mean CPU percent across serving servers.
    pub cpu_pct: f64,
    /// Mean p95 latency across serving servers (ms).
    pub latency_p95_ms: f64,
    /// Mean disk queue length across serving servers.
    pub disk_queue: f64,
    /// Mean paging rate across serving servers (pages/sec).
    pub memory_pages_per_sec: f64,
    /// Mean network throughput across serving servers (Mbps).
    pub network_mbps: f64,
    /// Serving server count.
    pub active_servers: usize,
}

impl PoolWindowAggregate {
    /// Total pool workload this window (RPS).
    pub fn total_rps(&self) -> f64 {
        self.rps_per_server * self.active_servers as f64
    }

    /// This window's mean utilization of one [`Resource`], in that
    /// resource's units.
    pub fn utilization(&self, resource: Resource) -> f64 {
        match resource {
            Resource::Cpu => self.cpu_pct,
            Resource::DiskQueue => self.disk_queue,
            Resource::MemoryPages => self.memory_pages_per_sec,
            Resource::Network => self.network_mbps,
        }
    }

    /// Aggregates one pool's snapshot rows (offline rows skipped). `None`
    /// when no server served this window, matching the batch collector's
    /// treatment of empty windows.
    ///
    /// Accumulation runs in row order, so for pool-contiguous snapshots the
    /// result is bit-identical to [`PoolWindowAggregate::from_snapshot`].
    pub fn from_rows(window: WindowIndex, rows: &[SnapshotRow]) -> Option<PoolWindowAggregate> {
        let (mut rps, mut cpu, mut lat, mut n) = (0.0f64, 0.0f64, 0.0f64, 0usize);
        let (mut dq, mut pg, mut nm) = (0.0f64, 0.0f64, 0.0f64);
        for row in rows {
            if !row.online {
                continue;
            }
            rps += row.rps;
            cpu += row.cpu_pct;
            lat += row.latency_p95_ms;
            dq += row.disk_queue;
            pg += row.memory_pages_per_sec;
            nm += row.network_mbps;
            n += 1;
        }
        if n == 0 {
            return None;
        }
        let nf = n as f64;
        Some(PoolWindowAggregate {
            window,
            rps_per_server: rps / nf,
            cpu_pct: cpu / nf,
            latency_p95_ms: lat / nf,
            disk_queue: dq / nf,
            memory_pages_per_sec: pg / nf,
            network_mbps: nm / nf,
            active_servers: n,
        })
    }

    /// Aggregates one pool's rows from a columnar snapshot's `start..start
    /// + len` slice — the struct-of-arrays counterpart of
    /// [`PoolWindowAggregate::from_rows`], and bit-identical to it.
    ///
    /// Each counter is summed *unconditionally* over its contiguous column
    /// slice: the columnar offline contract (offline lanes carry exactly
    /// `+0.0`) makes the extra terms bit-exact no-ops on the non-negative
    /// partial sums, so the loop needs no per-row branch, streams dense
    /// memory, and auto-vectorizes. The serving count is a masked popcount.
    /// `None` when no server served this window.
    pub fn from_columns(
        window: WindowIndex,
        cols: &SnapshotColumns,
        start: usize,
        len: usize,
    ) -> Option<PoolWindowAggregate> {
        let n = cols.online_count(start, len);
        if n == 0 {
            return None;
        }
        // One fused pass over the six column slices: each accumulator still
        // adds its column's values in index order (bit-identical to summing
        // the column alone, and to the row loop), but small pools pay the
        // loop overhead once instead of six times. Equal slice lengths let
        // the bounds checks vanish.
        let range = start..start + len;
        let (rps_c, cpu_c, lat_c) = (
            &cols.rps()[range.clone()],
            &cols.cpu_pct()[range.clone()],
            &cols.latency_p95_ms()[range.clone()],
        );
        let (dq_c, pg_c, nm_c) = (
            &cols.disk_queue()[range.clone()],
            &cols.memory_pages_per_sec()[range.clone()],
            &cols.network_mbps()[range],
        );
        let (mut rps, mut cpu, mut lat) = (0.0f64, 0.0f64, 0.0f64);
        let (mut dq, mut pg, mut nm) = (0.0f64, 0.0f64, 0.0f64);
        for i in 0..len {
            rps += rps_c[i];
            cpu += cpu_c[i];
            lat += lat_c[i];
            dq += dq_c[i];
            pg += pg_c[i];
            nm += nm_c[i];
        }
        let nf = n as f64;
        Some(PoolWindowAggregate {
            window,
            rps_per_server: rps / nf,
            cpu_pct: cpu / nf,
            latency_p95_ms: lat / nf,
            disk_queue: dq / nf,
            memory_pages_per_sec: pg / nf,
            network_mbps: nm / nf,
            active_servers: n,
        })
    }

    /// Aggregates a fleet snapshot into per-pool rows (pools with no
    /// serving server this window are omitted, matching the batch
    /// collector's treatment of empty windows).
    pub fn from_snapshot(snap: &WindowSnapshot<'_>) -> Vec<(PoolId, PoolWindowAggregate)> {
        // Σrps, Σcpu, Σlatency, Σdisk-queue, Σpages/s, ΣMbps, serving count.
        type PoolSums = (f64, f64, f64, f64, f64, f64, usize);
        let mut acc: BTreeMap<PoolId, PoolSums> = BTreeMap::new();
        for row in snap.rows {
            if !row.online {
                continue;
            }
            let e = acc.entry(row.pool).or_insert((0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0));
            e.0 += row.rps;
            e.1 += row.cpu_pct;
            e.2 += row.latency_p95_ms;
            e.3 += row.disk_queue;
            e.4 += row.memory_pages_per_sec;
            e.5 += row.network_mbps;
            e.6 += 1;
        }
        acc.into_iter()
            .map(|(pool, (rps, cpu, lat, dq, pg, nm, n))| {
                let nf = n as f64;
                (
                    pool,
                    PoolWindowAggregate {
                        window: snap.window,
                        rps_per_server: rps / nf,
                        cpu_pct: cpu / nf,
                        latency_p95_ms: lat / nf,
                        disk_queue: dq / nf,
                        memory_pages_per_sec: pg / nf,
                        network_mbps: nm / nf,
                        active_servers: n,
                    },
                )
            })
            .collect()
    }
}

/// The constraint that limited a pool's sizing — discovered live, per pool,
/// per window, from the fitted response curves (§II-A1's "limiting
/// resource" loop, done online).
///
/// The planner fits one workload→utilization line per [`Resource`] plus the
/// workload→latency quadratic, inverts each at its safety threshold, and
/// the constraint reached at the *lowest* per-server workload binds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BindingConstraint {
    /// The latency SLO binds before any resource threshold.
    Latency,
    /// A resource safety threshold binds first.
    Resource(Resource),
}

impl BindingConstraint {
    /// The binding resource, when a resource (rather than the latency SLO)
    /// binds.
    pub fn resource(&self) -> Option<Resource> {
        match self {
            BindingConstraint::Latency => None,
            BindingConstraint::Resource(r) => Some(*r),
        }
    }
}

impl std::fmt::Display for BindingConstraint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BindingConstraint::Latency => f.write_str("latency"),
            BindingConstraint::Resource(r) => write!(f, "{r}"),
        }
    }
}

/// Why a resize was recommended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResizeAction {
    /// The pool carries removable headroom.
    Shrink,
    /// The pool is critically low on headroom.
    Grow,
}

/// A sizing change the planner wants applied.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResizeRecommendation {
    /// The pool.
    pub pool: PoolId,
    /// Window the recommendation was derived in.
    pub window: WindowIndex,
    /// Current serving allocation.
    pub from_servers: usize,
    /// Recommended allocation.
    pub to_servers: usize,
    /// Direction.
    pub action: ResizeAction,
    /// Headroom band that motivated it.
    pub band: HeadroomBand,
}

/// The planner's current view of one pool.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolAssessment {
    /// The sizing decision, in the shared batch/online vocabulary.
    pub sizing: PoolSizing,
    /// Window the assessment was derived in.
    pub window: WindowIndex,
    /// Headroom band.
    pub band: HeadroomBand,
    /// The constraint that limited this sizing: the resource whose fitted
    /// utilization curve first crosses its safety threshold, or the latency
    /// SLO when it binds before any resource.
    pub binding: BindingConstraint,
    /// Exhaustion projection.
    pub projection: ExhaustionProjection,
    /// R² of the streaming CPU fit.
    pub cpu_r_squared: f64,
    /// R² of the streaming latency fit.
    pub latency_r_squared: f64,
    /// P² estimate of the p95 of per-window pool latency (ms).
    pub latency_p95_stream_ms: Option<f64>,
    /// Drift resets this pool has experienced.
    pub drift_events: usize,
    /// Whether the latency SLO was reachable on the fitted curve.
    pub slo_reachable: bool,
}

// ---------------------------------------------------------------------------
// Checkpoint encodings. Foreign vocabulary types (`PoolId`, `WindowIndex`,
// `PoolSizing`, `QosRequirement`, `Resource`) have all-public fields, so they
// are written field-wise inline here rather than growing the telemetry/core
// crates a persistence dependency.
// ---------------------------------------------------------------------------

pub(crate) fn persist_pool_id(p: &PoolId, w: &mut Writer) {
    w.put_u32(p.0);
}

pub(crate) fn restore_pool_id(r: &mut Reader<'_>) -> Result<PoolId, PersistError> {
    Ok(PoolId(r.take_u32()?))
}

pub(crate) fn persist_window_index(v: &WindowIndex, w: &mut Writer) {
    w.put_u64(v.0);
}

pub(crate) fn restore_window_index(r: &mut Reader<'_>) -> Result<WindowIndex, PersistError> {
    Ok(WindowIndex(r.take_u64()?))
}

pub(crate) fn persist_qos(q: &QosRequirement, w: &mut Writer) {
    w.put_f64(q.latency_p95_ms);
    w.put_f64(q.cpu_ceiling_pct);
    w.put_f64(q.min_availability);
    w.put_f64(q.disk_queue_limit);
    w.put_f64(q.memory_pages_limit);
    w.put_f64(q.network_mbps_limit);
}

pub(crate) fn restore_qos(r: &mut Reader<'_>) -> Result<QosRequirement, PersistError> {
    Ok(QosRequirement {
        latency_p95_ms: r.take_f64()?,
        cpu_ceiling_pct: r.take_f64()?,
        min_availability: r.take_f64()?,
        disk_queue_limit: r.take_f64()?,
        memory_pages_limit: r.take_f64()?,
        network_mbps_limit: r.take_f64()?,
    })
}

impl Persist for SweepExec {
    fn persist(&self, w: &mut Writer) {
        w.put_u8(match self {
            SweepExec::Persistent => 0,
            SweepExec::Scoped => 1,
        });
    }

    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(match r.take_u8()? {
            0 => SweepExec::Persistent,
            1 => SweepExec::Scoped,
            _ => return Err(PersistError::Invalid("unknown SweepExec tag")),
        })
    }
}

impl Persist for OnlinePlannerConfig {
    fn persist(&self, w: &mut Writer) {
        w.put_usize(self.window_capacity);
        w.put_usize(self.min_fit_windows);
        w.put_u64(self.replan_every);
        w.put_usize(self.deadband_servers);
        w.put_u64(self.dwell_windows);
        w.put_usize(self.threads);
        self.exec.persist(w);
        self.drift.persist(w);
        w.put_usize(self.min_pool_chunk);
    }

    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(OnlinePlannerConfig {
            window_capacity: r.take_usize()?,
            min_fit_windows: r.take_usize()?,
            replan_every: r.take_u64()?,
            deadband_servers: r.take_usize()?,
            dwell_windows: r.take_u64()?,
            threads: r.take_usize()?,
            exec: SweepExec::restore(r)?,
            drift: DriftConfig::restore(r)?,
            min_pool_chunk: r.take_usize()?,
        })
    }
}

impl Persist for PoolWindowAggregate {
    fn persist(&self, w: &mut Writer) {
        persist_window_index(&self.window, w);
        w.put_f64(self.rps_per_server);
        w.put_f64(self.cpu_pct);
        w.put_f64(self.latency_p95_ms);
        w.put_f64(self.disk_queue);
        w.put_f64(self.memory_pages_per_sec);
        w.put_f64(self.network_mbps);
        w.put_usize(self.active_servers);
    }

    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(PoolWindowAggregate {
            window: restore_window_index(r)?,
            rps_per_server: r.take_f64()?,
            cpu_pct: r.take_f64()?,
            latency_p95_ms: r.take_f64()?,
            disk_queue: r.take_f64()?,
            memory_pages_per_sec: r.take_f64()?,
            network_mbps: r.take_f64()?,
            active_servers: r.take_usize()?,
        })
    }
}

impl Persist for BindingConstraint {
    fn persist(&self, w: &mut Writer) {
        match self {
            BindingConstraint::Latency => w.put_u8(0),
            BindingConstraint::Resource(res) => {
                w.put_u8(1);
                w.put_u8(res.index() as u8);
            }
        }
    }

    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        match r.take_u8()? {
            0 => Ok(BindingConstraint::Latency),
            1 => {
                let idx = r.take_u8()? as usize;
                let res = *Resource::ALL
                    .get(idx)
                    .ok_or(PersistError::Invalid("unknown Resource index"))?;
                Ok(BindingConstraint::Resource(res))
            }
            _ => Err(PersistError::Invalid("unknown BindingConstraint tag")),
        }
    }
}

impl Persist for ResizeAction {
    fn persist(&self, w: &mut Writer) {
        w.put_u8(match self {
            ResizeAction::Shrink => 0,
            ResizeAction::Grow => 1,
        });
    }

    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(match r.take_u8()? {
            0 => ResizeAction::Shrink,
            1 => ResizeAction::Grow,
            _ => return Err(PersistError::Invalid("unknown ResizeAction tag")),
        })
    }
}

impl Persist for ResizeRecommendation {
    fn persist(&self, w: &mut Writer) {
        persist_pool_id(&self.pool, w);
        persist_window_index(&self.window, w);
        w.put_usize(self.from_servers);
        w.put_usize(self.to_servers);
        self.action.persist(w);
        self.band.persist(w);
    }

    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(ResizeRecommendation {
            pool: restore_pool_id(r)?,
            window: restore_window_index(r)?,
            from_servers: r.take_usize()?,
            to_servers: r.take_usize()?,
            action: ResizeAction::restore(r)?,
            band: HeadroomBand::restore(r)?,
        })
    }
}

impl Persist for PoolAssessment {
    fn persist(&self, w: &mut Writer) {
        persist_pool_id(&self.sizing.pool, w);
        w.put_usize(self.sizing.current_servers);
        w.put_usize(self.sizing.min_servers);
        w.put_f64(self.sizing.peak_total_rps);
        persist_window_index(&self.window, w);
        self.band.persist(w);
        self.binding.persist(w);
        self.projection.persist(w);
        w.put_f64(self.cpu_r_squared);
        w.put_f64(self.latency_r_squared);
        self.latency_p95_stream_ms.persist(w);
        w.put_usize(self.drift_events);
        w.put_bool(self.slo_reachable);
    }

    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(PoolAssessment {
            sizing: PoolSizing {
                pool: restore_pool_id(r)?,
                current_servers: r.take_usize()?,
                min_servers: r.take_usize()?,
                peak_total_rps: r.take_f64()?,
            },
            window: restore_window_index(r)?,
            band: HeadroomBand::restore(r)?,
            binding: BindingConstraint::restore(r)?,
            projection: ExhaustionProjection::restore(r)?,
            cpu_r_squared: r.take_f64()?,
            latency_r_squared: r.take_f64()?,
            latency_p95_stream_ms: Option::restore(r)?,
            drift_events: r.take_usize()?,
            slo_reachable: r.take_bool()?,
        })
    }
}

/// The streaming incremental capacity planner.
///
/// A facade over [`SweepEngine`]: per-pool state lives in
/// [`crate::shard::PoolShard`]s and fleet sweeps fan out across threads
/// per `config.threads`. Feed it snapshots with [`observe`] /
/// [`observe_partitioned`], or let it drive a simulation with [`run`] /
/// [`run_closed_loop`]. Read decisions through [`assessments`],
/// [`drain_recommendations`], or the shared [`SizingPlanner`] interface.
///
/// [`observe`]: OnlinePlanner::observe
/// [`observe_partitioned`]: OnlinePlanner::observe_partitioned
/// [`run`]: OnlinePlanner::run
/// [`run_closed_loop`]: OnlinePlanner::run_closed_loop
/// [`assessments`]: OnlinePlanner::assessments
/// [`drain_recommendations`]: OnlinePlanner::drain_recommendations
#[derive(Debug, Clone)]
pub struct OnlinePlanner {
    engine: SweepEngine,
}

impl OnlinePlanner {
    /// A planner applying `default_qos` to every pool not overridden with
    /// [`set_qos`].
    ///
    /// [`set_qos`]: OnlinePlanner::set_qos
    pub fn new(config: OnlinePlannerConfig, default_qos: QosRequirement) -> Self {
        OnlinePlanner { engine: SweepEngine::new(config, default_qos) }
    }

    /// Overrides the QoS requirement for one pool.
    pub fn set_qos(&mut self, pool: PoolId, qos: QosRequirement) -> &mut Self {
        self.engine.set_qos(pool, qos);
        self
    }

    /// Builder form of [`OnlinePlanner::set_qos`].
    pub fn with_qos(mut self, pool: PoolId, qos: QosRequirement) -> Self {
        self.engine.set_qos(pool, qos);
        self
    }

    /// The tuning in effect.
    pub fn config(&self) -> &OnlinePlannerConfig {
        self.engine.config()
    }

    /// The underlying sweep engine.
    pub fn engine(&self) -> &SweepEngine {
        &self.engine
    }

    /// Changes the fan-out width mid-run. Purely an execution knob: the
    /// planner's outputs are bit-identical before, across, and after the
    /// change (property tested).
    pub fn set_threads(&mut self, threads: usize) -> &mut Self {
        self.engine.set_threads(threads);
        self
    }

    /// Windows observed so far.
    pub fn windows_seen(&self) -> u64 {
        self.engine.windows_seen()
    }

    /// The QoS requirement used for `pool`.
    pub fn qos_for(&self, pool: PoolId) -> QosRequirement {
        self.engine.qos_for(pool)
    }

    /// Consumes one fleet snapshot: O(servers) aggregation plus O(log W)
    /// shard updates per pool, and (on replan windows) the O(log W) sizing
    /// re-derivation.
    pub fn observe(&mut self, snap: &WindowSnapshot<'_>) {
        self.engine.observe(snap);
    }

    /// Consumes one pool-partitioned snapshot — the fan-out-friendly path
    /// where even row aggregation runs inside the worker threads.
    pub fn observe_partitioned(&mut self, snap: &PartitionedSnapshot<'_>) {
        self.engine.observe_partitioned(snap);
    }

    /// Consumes one columnar snapshot — the struct-of-arrays hot path:
    /// workers aggregate each pool's counters from contiguous column
    /// slices. Bit-identical to the row paths for the same window data.
    pub fn observe_columns(&mut self, snap: &ColumnarSnapshot<'_>) {
        self.engine.observe_columns(snap);
    }

    /// Consumes one streamed window — the tile-fused hot path: workers
    /// *generate* each pool's metric columns into tile-resident scratch
    /// and aggregate them while still in cache, so the fleet's columns
    /// never round-trip DRAM. Bit-identical to the materialised paths.
    pub fn observe_streamed(&mut self, win: &headroom_cluster::sim::StreamedWindow<'_>) {
        self.engine.observe_streamed(win);
    }

    /// The latest per-pool assessments (a borrowed, pool-ordered view).
    pub fn assessments(&self) -> AssessmentView<'_> {
        self.engine.assessments()
    }

    /// Takes the recommendations queued since the last drain.
    pub fn drain_recommendations(&mut self) -> Vec<ResizeRecommendation> {
        self.engine.drain_recommendations()
    }

    /// Steps `sim` one window and ingests the snapshot in the layout the
    /// simulation is configured for — streamed (tile-fused kernel
    /// generation inside the sweep) on the default hot path, materialised
    /// columns or rows when the A/B layouts are selected. Planner outputs
    /// are bit-identical across all three.
    fn observe_sim_window(&mut self, sim: &mut Simulation) {
        match sim.config().layout {
            SnapshotLayout::Streamed => {
                let win = sim.step_streamed();
                self.engine.observe_streamed(&win);
            }
            SnapshotLayout::Columnar => {
                let snap = sim.step_columns_partitioned();
                self.engine.observe_columns(&snap);
            }
            SnapshotLayout::Rows => {
                let snap = sim.step_snapshot_partitioned();
                self.engine.observe_partitioned(&snap);
            }
        }
    }

    /// Drives `sim` for `windows` windows, observing every snapshot
    /// (open loop: recommendations accumulate but are not applied). The
    /// snapshot layout follows `sim`'s [`SnapshotLayout`] switch.
    pub fn run(&mut self, sim: &mut Simulation, windows: u64) -> Vec<ResizeRecommendation> {
        let mut all = Vec::new();
        for _ in 0..windows {
            self.observe_sim_window(sim);
            all.extend(self.engine.drain_recommendations());
        }
        all
    }

    /// Drives `sim` for `windows` windows and *applies* each shrink
    /// recommendation via [`Simulation::schedule_resize`] for the following
    /// window — the paper's server-reduction lever under streaming control.
    /// Grow recommendations are clamped to the pool's physical size.
    /// Returns every recommendation applied.
    pub fn run_closed_loop(
        &mut self,
        sim: &mut Simulation,
        windows: u64,
    ) -> Vec<ResizeRecommendation> {
        let mut applied = Vec::new();
        for _ in 0..windows {
            self.observe_sim_window(sim);
            let next = sim.current_window();
            for mut rec in self.engine.drain_recommendations() {
                let physical = sim.fleet().pool(rec.pool).map(|p| p.size()).unwrap_or(0);
                if physical == 0 {
                    continue;
                }
                // Record what is actually scheduled, not the raw ask.
                rec.to_servers = rec.to_servers.clamp(1, physical);
                if sim.schedule_resize(rec.pool, next, rec.to_servers).is_ok() {
                    applied.push(rec);
                }
            }
        }
        applied
    }
}

impl SizingPlanner for OnlinePlanner {
    fn planner_name(&self) -> &'static str {
        "online"
    }

    fn sizings(&self) -> Vec<PoolSizing> {
        // BTreeMap iteration keeps pools sorted.
        self.engine.assessments().values().map(|a| a.sizing).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use headroom_telemetry::ids::{DatacenterId, ServerId};

    /// Synthetic snapshot rows for one pool on the paper's pool-B response
    /// curves at the given per-server workload.
    fn rows_at(rps: f64, servers: u32) -> Vec<SnapshotRow> {
        (0..servers)
            .map(|s| SnapshotRow {
                server: ServerId(s),
                pool: PoolId(0),
                datacenter: DatacenterId(0),
                online: true,
                rps,
                cpu_pct: 0.028 * rps + 1.37,
                latency_p95_ms: 4.028e-5 * rps * rps - 0.031 * rps + 36.68,
                // Workload-flat disk/paging (never bind) and a network line
                // far below its default limit: CPU/latency decide sizing.
                disk_queue: 1.0,
                memory_pages_per_sec: 4_000.0,
                network_mbps: 0.32 * rps,
            })
            .collect()
    }

    /// Pool-B-curve rows with an explicit resource shape.
    fn rows_shaped(
        pool: u32,
        rps: f64,
        servers: u32,
        disk: impl Fn(f64) -> f64,
        pages: impl Fn(f64) -> f64,
        net: impl Fn(f64) -> f64,
    ) -> Vec<SnapshotRow> {
        (0..servers)
            .map(|s| SnapshotRow {
                server: ServerId(pool * 1000 + s),
                pool: PoolId(pool),
                datacenter: DatacenterId(0),
                online: true,
                rps,
                cpu_pct: 0.028 * rps + 1.37,
                latency_p95_ms: 4.028e-5 * rps * rps - 0.031 * rps + 36.68,
                disk_queue: disk(rps),
                memory_pages_per_sec: pages(rps),
                network_mbps: net(rps),
            })
            .collect()
    }

    #[test]
    fn from_columns_matches_from_rows_bitwise() {
        // Mixed online/offline rows across bitmask word boundaries: the
        // branch-free columnar aggregation must reproduce the row loop bit
        // for bit (offline lanes carry +0.0, so unconditional sums are
        // exact), and agree on the serving count.
        let rows: Vec<SnapshotRow> = (0..70u32)
            .map(|i| {
                let online = i % 5 != 2;
                let v = if online { 100.0 + i as f64 * 3.7 } else { 0.0 };
                SnapshotRow {
                    server: ServerId(i),
                    pool: PoolId(0),
                    datacenter: DatacenterId(0),
                    online,
                    rps: v,
                    cpu_pct: if online { 0.028 * v + 1.37 } else { 0.0 },
                    latency_p95_ms: if online { 30.0 + 0.01 * v } else { 0.0 },
                    disk_queue: if online { 1.0 } else { 0.0 },
                    memory_pages_per_sec: if online { 4_000.0 } else { 0.0 },
                    network_mbps: if online { 0.32 * v } else { 0.0 },
                }
            })
            .collect();
        let cols = headroom_cluster::columns::SnapshotColumns::from_rows(&rows);
        for (start, len) in [(0usize, 70usize), (0, 64), (63, 7), (10, 50), (69, 1), (3, 0)] {
            let from_rows =
                PoolWindowAggregate::from_rows(WindowIndex(4), &rows[start..start + len]);
            let from_cols = PoolWindowAggregate::from_columns(WindowIndex(4), &cols, start, len);
            assert_eq!(from_rows, from_cols, "range {start}+{len}");
        }
        // An all-offline range is an empty window in both layouts.
        assert_eq!(PoolWindowAggregate::from_columns(WindowIndex(4), &cols, 2, 1), None);
    }

    #[test]
    fn binding_constraint_discovered_per_pool() {
        // Four pools on identical CPU/latency curves (latency would bind at
        // ~595 RPS/server under a 32.5 ms SLO) but different resource
        // shapes; the planner must discover, per pool, which constraint
        // actually binds — at a lower per-server workload than latency.
        let config = OnlinePlannerConfig {
            window_capacity: 300,
            min_fit_windows: 30,
            ..OnlinePlannerConfig::default()
        };
        let qos = QosRequirement::latency(32.5).with_cpu_ceiling(90.0);
        let mut planner = OnlinePlanner::new(config, qos);
        for i in 0..120u64 {
            let rps = 200.0 + 150.0 * ((i as f64 / 60.0) * std::f64::consts::PI).sin().abs();
            let mut rows = Vec::new();
            // Pool 0: workload-flat disk/paging, light network — latency binds.
            rows.extend(rows_shaped(0, rps, 8, |_| 1.0, |_| 4_000.0, |r| 0.32 * r));
            // Pool 1: disk queue grows with RPS, crossing 24 at 470 RPS/server.
            rows.extend(rows_shaped(1, rps, 8, |r| 0.5 + 0.05 * r, |_| 4_000.0, |r| 0.32 * r));
            // Pool 2: paging tracks RPS, crossing 60k pages/s at ~387.
            rows.extend(rows_shaped(2, rps, 8, |_| 1.0, |r| 2_000.0 + 150.0 * r, |r| 0.32 * r));
            // Pool 3: 20 Mbps per RPS crosses the 9 Gbps limit at 450.
            rows.extend(rows_shaped(3, rps, 8, |_| 1.0, |_| 4_000.0, |r| 20.0 * r));
            planner.observe(&WindowSnapshot { window: WindowIndex(i), rows: &rows });
        }
        let a = planner.assessments();
        assert_eq!(a[&PoolId(0)].binding, BindingConstraint::Latency);
        assert_eq!(a[&PoolId(1)].binding, BindingConstraint::Resource(Resource::DiskQueue));
        assert_eq!(a[&PoolId(2)].binding, BindingConstraint::Resource(Resource::MemoryPages));
        assert_eq!(a[&PoolId(3)].binding, BindingConstraint::Resource(Resource::Network));
        // A tighter constraint means more servers for the same demand: the
        // disk-bound pool sizes off 470 RPS/server, the latency pool off ~595.
        assert!(
            a[&PoolId(1)].sizing.min_servers > a[&PoolId(0)].sizing.min_servers,
            "disk-bound pool needs more capacity: {} vs {}",
            a[&PoolId(1)].sizing.min_servers,
            a[&PoolId(0)].sizing.min_servers
        );
        assert_eq!(BindingConstraint::Latency.resource(), None);
        assert_eq!(
            a[&PoolId(1)].binding.resource(),
            Some(Resource::DiskQueue),
            "accessor agrees with the variant"
        );
    }

    #[test]
    fn baseline_saturated_resource_reports_unreachable() {
        // Disk queue sits above its limit even at zero workload (intercept
        // 30 > limit 24) while still workload-coupled: no allocation can
        // satisfy the disk SLO, so — exactly like an unreachable latency
        // SLO — the planner must keep the allocation, flag the pool, and
        // name the resource, not silently size from CPU/latency.
        let config = OnlinePlannerConfig {
            window_capacity: 300,
            min_fit_windows: 30,
            ..OnlinePlannerConfig::default()
        };
        let mut planner =
            OnlinePlanner::new(config, QosRequirement::latency(32.5).with_cpu_ceiling(90.0));
        let mut recs = Vec::new();
        for i in 0..120u64 {
            let rps = 200.0 + 150.0 * ((i as f64 / 60.0) * std::f64::consts::PI).sin().abs();
            let rows = rows_shaped(0, rps, 8, |r| 30.0 + 0.01 * r, |_| 4_000.0, |r| 0.32 * r);
            planner.observe(&WindowSnapshot { window: WindowIndex(i), rows: &rows });
            recs.extend(planner.drain_recommendations());
        }
        let a = &planner.assessments()[&PoolId(0)];
        assert!(!a.slo_reachable, "disk SLO is unreachable at any size");
        assert_eq!(a.binding, BindingConstraint::Resource(Resource::DiskQueue));
        assert_eq!(a.sizing.min_servers, a.sizing.current_servers);
        assert_eq!(a.band, HeadroomBand::Exhausted);
        assert!(recs.is_empty(), "no recommendation from an unreachable SLO: {recs:?}");
    }

    #[test]
    fn undersized_pool_gets_grow_recommendation() {
        // Four servers whose workload ramps far past what they can serve
        // within a 32.5 ms SLO (~595 RPS/server on the pool-B curve): the
        // planner must ask for *more* capacity than exists.
        let config = OnlinePlannerConfig {
            window_capacity: 300,
            min_fit_windows: 30,
            ..OnlinePlannerConfig::default()
        };
        let mut planner =
            OnlinePlanner::new(config, QosRequirement::latency(32.5).with_cpu_ceiling(90.0));
        let mut recs = Vec::new();
        for i in 0..200u64 {
            let rps = 100.0 + 3.5 * i as f64; // ramps to 800 RPS/server
            let rows = rows_at(rps, 4);
            planner.observe(&WindowSnapshot { window: WindowIndex(i), rows: &rows });
            recs.extend(planner.drain_recommendations());
        }
        let assessment = &planner.assessments()[&PoolId(0)];
        assert!(
            assessment.sizing.min_servers > assessment.sizing.current_servers,
            "undersized: needs {} > has {}",
            assessment.sizing.min_servers,
            assessment.sizing.current_servers
        );
        assert!(assessment.band.needs_capacity(), "band {}", assessment.band);
        let grow = recs
            .iter()
            .find(|r| r.action == ResizeAction::Grow)
            .expect("a grow recommendation was emitted");
        assert!(grow.to_servers > grow.from_servers);
        // Peak total ≈ 800×4 = 3200 RPS; ~595 RPS/server at the SLO ⇒ 6.
        assert_eq!(grow.from_servers, 4);
        assert!(grow.to_servers >= 5 && grow.to_servers <= 7, "to {}", grow.to_servers);
    }

    #[test]
    fn unreachable_latency_slo_keeps_current_allocation() {
        // The pool-B latency curve bottoms out around 30.7 ms: a 5 ms SLO
        // is unreachable at any workload. Like the batch optimizer, the
        // planner must keep the current allocation and must not size (or
        // shrink) from the CPU constraint alone.
        let config = OnlinePlannerConfig {
            window_capacity: 300,
            min_fit_windows: 30,
            ..OnlinePlannerConfig::default()
        };
        let mut planner =
            OnlinePlanner::new(config, QosRequirement::latency(5.0).with_cpu_ceiling(90.0));
        let mut recs = Vec::new();
        for i in 0..120u64 {
            let rps = 150.0 + 2.0 * i as f64;
            let rows = rows_at(rps, 10);
            planner.observe(&WindowSnapshot { window: WindowIndex(i), rows: &rows });
            recs.extend(planner.drain_recommendations());
        }
        let assessment = &planner.assessments()[&PoolId(0)];
        assert!(!assessment.slo_reachable);
        assert_eq!(assessment.sizing.min_servers, assessment.sizing.current_servers);
        assert_eq!(assessment.band, HeadroomBand::Exhausted, "cannot meet QoS");
        assert!(recs.is_empty(), "no recommendation from an unreachable SLO: {recs:?}");
    }

    #[test]
    fn overprovisioned_pool_still_clamps_nothing_but_recommends_shrink() {
        let config = OnlinePlannerConfig {
            window_capacity: 300,
            min_fit_windows: 30,
            ..OnlinePlannerConfig::default()
        };
        let mut planner =
            OnlinePlanner::new(config, QosRequirement::latency(32.5).with_cpu_ceiling(90.0));
        let mut recs = Vec::new();
        for i in 0..120u64 {
            // Gentle diurnal sweep well under the SLO workload.
            let rps = 150.0 + 100.0 * ((i as f64 / 60.0) * std::f64::consts::PI).sin().abs();
            let rows = rows_at(rps, 10);
            planner.observe(&WindowSnapshot { window: WindowIndex(i), rows: &rows });
            recs.extend(planner.drain_recommendations());
        }
        let shrink =
            recs.iter().find(|r| r.action == ResizeAction::Shrink).expect("shrink recommended");
        assert!(shrink.to_servers < 10);
        assert!(shrink.to_servers >= 1);
    }

    /// Drives a 20-server pool whose workload flaps across a one-server
    /// sizing boundary every 15 windows, then settles. Without hysteresis
    /// the planner announces every flip; with a dwell longer than the flap
    /// period it stays silent until the target settles.
    fn flapping_recommendations(dwell_windows: u64) -> Vec<ResizeRecommendation> {
        let config = OnlinePlannerConfig {
            window_capacity: 12,
            min_fit_windows: 8,
            dwell_windows,
            ..OnlinePlannerConfig::default()
        };
        let mut planner =
            OnlinePlanner::new(config, QosRequirement::latency(32.5).with_cpu_ceiling(90.0));
        let mut recs = Vec::new();
        let mut w = 0u64;
        let mut feed = |planner: &mut OnlinePlanner, recs: &mut Vec<_>, rps: f64, n: u64| {
            for _ in 0..n {
                // Tiny deterministic ripple keeps the quadratic fit solvable.
                let ripple = (w % 3) as f64 * 0.8;
                let rows = rows_at(rps + ripple, 20);
                planner.observe(&WindowSnapshot { window: WindowIndex(w), rows: &rows });
                recs.extend(planner.drain_recommendations());
                w += 1;
            }
        };
        // Warm-up, then ~20 flaps across the 13⇄14-server boundary
        // (~595 RPS/server at the SLO), then a decisive settle.
        feed(&mut planner, &mut recs, 380.0, 30);
        for _ in 0..10 {
            feed(&mut planner, &mut recs, 392.0, 15);
            feed(&mut planner, &mut recs, 380.0, 15);
        }
        feed(&mut planner, &mut recs, 392.0, 80);
        recs
    }

    #[test]
    fn dwell_policy_collapses_target_flaps() {
        let noisy = flapping_recommendations(0);
        let damped = flapping_recommendations(40);
        assert!(
            noisy.len() >= 8,
            "without hysteresis the flapping trace floods: {} recs",
            noisy.len()
        );
        assert!(damped.len() <= 2, "dwell collapses the flood to decisive calls: {:?}", damped);
        // The settled regime is still announced, at the settled target.
        let last = damped.last().expect("the settle phase emits");
        assert_eq!(last.to_servers, 14, "settled target announced: {last:?}");
    }

    #[test]
    fn exhausted_growth_bypasses_dwell() {
        // Same undersized ramp as above, but with an hour-scale dwell: the
        // grow recommendation must not wait out the dwell.
        let config = OnlinePlannerConfig {
            window_capacity: 300,
            min_fit_windows: 30,
            dwell_windows: 10_000,
            ..OnlinePlannerConfig::default()
        };
        let mut planner =
            OnlinePlanner::new(config, QosRequirement::latency(32.5).with_cpu_ceiling(90.0));
        let mut recs = Vec::new();
        for i in 0..200u64 {
            let rps = 100.0 + 3.5 * i as f64;
            let rows = rows_at(rps, 4);
            planner.observe(&WindowSnapshot { window: WindowIndex(i), rows: &rows });
            recs.extend(planner.drain_recommendations());
        }
        assert!(
            recs.iter().any(|r| r.action == ResizeAction::Grow),
            "urgent growth is never dwell-delayed: {recs:?}"
        );
    }
}
