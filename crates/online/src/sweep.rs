//! The parallel sweep engine: shard fan-out, deterministic merge.
//!
//! [`SweepEngine`] is the fleet-level half of the shard-and-merge planner
//! core. It owns one [`PoolShard`] per pool (kept sorted by pool id) plus
//! the fleet's [`ShardStore`] — the slot-major planes holding every pool's
//! windowed buffers — and each window it *sweeps* the fleet: pools are
//! partitioned into contiguous chunks, the chunks are fanned out across a
//! long-lived [`headroom_exec::WorkerPool`], and each worker aggregates its
//! pools' snapshot rows, updates its shards through their store lanes, and
//! (on replan windows, or every window for pools urgently short of
//! capacity) re-derives sizing decisions. The per-chunk outputs are then
//! merged in pool order.
//!
//! Chunks are contiguous runs of the pool-sorted shard list, so each worker
//! owns a contiguous *lane range* of every store plane: a pool's planes are
//! touched by exactly one worker per window (thread-affine ownership) and
//! the per-plane traffic is a streaming pass over a dense slice. The
//! effective fan-out is clamped to `min(threads, ceil(pools /
//! min_pool_chunk))`, so a small fleet never pays hand-off overhead to
//! workers that would each receive a handful of pools.
//!
//! **Determinism is a hard invariant, not an aspiration.** A shard's update
//! touches only its own state (scalar state in the shard, windowed state in
//! its store lane), every floating-point operation happens inside exactly
//! one shard regardless of how pools are chunked, chunk boundaries are a
//! pure function of `(pool count, threads)`, and the merge reads the
//! per-chunk output buffers in chunk order — so the engine's assessments
//! and recommendations are *bit-identical* for any thread count, any
//! [`SweepExec`] mode, and any scheduling, including thread counts changed
//! mid-run via [`SweepEngine::set_threads`]. The sequential path drives the
//! very same lane-view kernels as the parallel one. Property tests pin
//! this.
//!
//! **The steady-state window path is allocation-free.** The input index,
//! the per-worker output buffers, the store planes, and the worker hand-off
//! (see `headroom_exec`) all reuse their storage window over window; a
//! warmed engine consuming partitioned snapshots allocates nothing on
//! non-replan windows (asserted by a counting-allocator test in
//! `crates/bench`).
//!
//! Ingestion is partition-friendly: feed
//! [`headroom_cluster::sim::PartitionedSnapshot`]s (from
//! `Simulation::step_snapshot_partitioned`) and each worker reads its
//! pools' rows as plain sub-slices — aggregation itself parallelizes and
//! the engine has no serialization point beyond the final merge.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::Index;
use std::time::Instant;

use headroom_cluster::columns::{ColumnarSnapshot, SnapshotColumns};
use headroom_cluster::sim::{
    PartitionedSnapshot, SnapshotRow, StreamedKernels, StreamedSource, StreamedTileOut,
    StreamedWindow, WindowSnapshot,
};
use headroom_core::slo::QosRequirement;
use headroom_exec::WorkerPool;
use headroom_stats::persist::{Persist, PersistError, Reader, Writer};
use headroom_telemetry::ids::PoolId;
use headroom_telemetry::time::WindowIndex;

use crate::planner::{
    persist_pool_id, persist_qos, restore_pool_id, restore_qos, OnlinePlannerConfig,
    PoolAssessment, PoolWindowAggregate, ResizeRecommendation, SweepExec,
};
use crate::shard::PoolShard;
use crate::store::{PassScratch, ShardStore, StoreView};

/// Per-pool input of one sweep: either a pre-computed aggregate or a
/// `(start, len)` range of the window's snapshot (rows or columns,
/// aggregated inside the owning worker against [`WindowData`]).
/// Range-based rather than slice-based so the engine's reusable input
/// buffer carries no borrow of the snapshot.
#[derive(Debug, Clone, Copy)]
enum PoolInput {
    Aggregate(PoolWindowAggregate),
    Rows {
        start: usize,
        len: usize,
    },
    /// A streamed slice: the metric columns do not exist yet — the worker
    /// evaluates the sim kernels for the slice into its pass scratch and
    /// aggregates from there. `pool_index` is the fleet partition index
    /// (slice order), which locates the pool's response model.
    Streamed {
        start: usize,
        len: usize,
        pool_index: usize,
    },
}

/// The window's backing snapshot storage, shared read-only with every
/// worker. Whichever layout backs the ranges, the per-pool aggregates are
/// bit-identical (columnar aggregation sums each counter column in the
/// same order the row loop would).
#[derive(Debug, Clone, Copy)]
enum WindowData<'a> {
    /// Inputs are pre-aggregated; there is nothing to index.
    None,
    /// Legacy row structs.
    Rows(&'a [SnapshotRow]),
    /// Struct-of-arrays columns — workers stream contiguous memory.
    Columns(&'a SnapshotColumns),
    /// Streamed kernel inputs — workers *generate* each pool's metric
    /// columns into tile-resident scratch (the sim-kernel pass) and
    /// aggregate them while still in cache; the fleet's metric columns
    /// are never materialised.
    Streamed(StreamedKernels<'a>),
}

/// Passes of the pass-structured window, in execution order: streamed
/// sim-kernel evaluation (pass 0, zero for materialised inputs), per-pool
/// aggregate computation (pass 1), the four windowed-plane passes, the
/// scalar shard pass, and replanning. Indexes into the per-pass timing
/// array [`SweepEngine::pass_ns`] returns; [`PASS_NAMES`] labels them.
pub const PASS_COUNT: usize = 8;

/// Human-readable labels for the [`PASS_COUNT`] passes, index-aligned with
/// [`SweepEngine::pass_ns`].
pub const PASS_NAMES: [&str; PASS_COUNT] =
    ["sim_kernel", "aggregate", "agg_ring", "totals", "alloc", "drift_ring", "scalar", "replan"];

/// Lanes per pass tile: passes 0–5 run over sub-ranges of this width so the
/// inter-pass scratch stays cache-resident while each pass within a tile
/// still walks its plane contiguously. Purely an execution knob — per-lane
/// work is independent of tile boundaries, so results are bit-identical for
/// any width.
const PASS_TILE: usize = 512;

/// One chunk's per-window working state: the recommendations its pools
/// emitted (in pool order), the inter-pass scratch, and the count of pools
/// that gained their *first* assessment this window (summed into the
/// engine's O(1) assessed-pool counter at merge). Assessments themselves
/// are *not* merged — each worker writes its pools' assessments in place
/// inside the [`PoolShard`]s (see [`AssessmentView`]), so the only
/// fleet-level per-window copy is the (rare) recommendation.
#[derive(Debug, Default)]
struct ChunkState {
    out: Vec<ResizeRecommendation>,
    scratch: PassScratch,
    newly_assessed: usize,
}

/// The parallel shard-and-merge planner core.
///
/// Wraps the planning state of a whole fleet; [`crate::OnlinePlanner`] is a
/// thin facade over this type. Use it directly when driving partitioned
/// snapshots or tuning the fan-out width.
///
/// # Example
///
/// Two pools planned from hand-rolled snapshot rows; the fan-out width is
/// purely an execution knob:
///
/// ```
/// use headroom_cluster::sim::{SnapshotRow, WindowSnapshot};
/// use headroom_core::slo::QosRequirement;
/// use headroom_online::planner::OnlinePlannerConfig;
/// use headroom_online::sweep::SweepEngine;
/// use headroom_telemetry::ids::{DatacenterId, PoolId, ServerId};
/// use headroom_telemetry::time::WindowIndex;
///
/// let config = OnlinePlannerConfig {
///     window_capacity: 48,
///     min_fit_windows: 12,
///     threads: 2,
///     min_pool_chunk: 1, // a 2-pool demo fleet still fans out
///     ..OnlinePlannerConfig::default()
/// };
/// let qos = QosRequirement::latency(32.5).with_cpu_ceiling(90.0);
/// let mut engine = SweepEngine::new(config, qos);
/// for w in 0..40u64 {
///     let mut rows = Vec::new();
///     for pool in 0..2u32 {
///         let rps = 250.0 + 40.0 * pool as f64 + (w % 13) as f64 * 9.0;
///         rows.extend((0..6).map(|s| SnapshotRow {
///             server: ServerId(pool * 100 + s),
///             pool: PoolId(pool),
///             datacenter: DatacenterId(0),
///             online: true,
///             rps,
///             cpu_pct: 0.028 * rps + 1.37,
///             latency_p95_ms: 4.028e-5 * rps * rps - 0.031 * rps + 36.68,
///             disk_queue: 1.0,
///             memory_pages_per_sec: 4_000.0,
///             network_mbps: 0.32 * rps,
///         }));
///     }
///     engine.observe(&WindowSnapshot { window: WindowIndex(w), rows: &rows });
/// }
/// assert_eq!(engine.assessments().len(), 2, "both pools planned");
/// assert!(engine.live_workers() > 0, "persistent workers parked between windows");
/// ```
#[derive(Debug)]
pub struct SweepEngine {
    config: OnlinePlannerConfig,
    default_qos: QosRequirement,
    qos: BTreeMap<PoolId, QosRequirement>,
    /// One shard per pool, sorted by pool id — the chunked fan-out and the
    /// in-order merge both lean on this ordering. Each shard also carries
    /// its own latest assessment, so this array *is* the fleet state;
    /// [`SweepEngine::assessments`] borrows it instead of copying.
    shards: Vec<(PoolId, PoolShard)>,
    /// The fleet's windowed shard state, slot-major: lane *i* of every
    /// plane belongs to `shards[i]`. Kept in lockstep with `shards` — a
    /// pool arrival remaps the lanes to match the new sorted order.
    store: ShardStore,
    pending: Vec<ResizeRecommendation>,
    windows_seen: u64,
    /// Pools whose shard currently holds an assessment. An assessment is
    /// written once and only ever overwritten (never cleared — see
    /// [`PoolShard::assessment`]), so this is a monotonic count maintained
    /// at merge time, making [`AssessmentView::len`] O(1).
    assessed: usize,
    /// Reusable per-window input index (cleared, never dropped).
    input_buf: Vec<(PoolId, PoolInput)>,
    /// Reusable per-chunk working state, indexed by chunk; reading the
    /// output buffers in index order *is* the deterministic merge.
    chunk_outs: Vec<ChunkState>,
    /// Accumulated per-pass nanoseconds (see [`PASS_NAMES`]), populated on
    /// single-chunk windows when [`enable_pass_timing`] was called.
    /// Execution telemetry only — never part of the planner's logical
    /// state.
    ///
    /// [`enable_pass_timing`]: SweepEngine::enable_pass_timing
    pass_ns: [u64; PASS_COUNT],
    time_passes: bool,
    /// Long-lived workers (persistent mode). Execution state only — never
    /// part of the planner's logical state.
    workers: WorkerPool,
}

impl Clone for SweepEngine {
    /// Clones the planner state. The clone starts with an empty worker
    /// pool and scratch buffers — threads and caches are execution detail,
    /// rebuilt lazily on the clone's first sweep.
    fn clone(&self) -> Self {
        SweepEngine {
            config: self.config,
            default_qos: self.default_qos,
            qos: self.qos.clone(),
            shards: self.shards.clone(),
            store: self.store.clone(),
            pending: self.pending.clone(),
            windows_seen: self.windows_seen,
            assessed: self.assessed,
            input_buf: Vec::new(),
            chunk_outs: Vec::new(),
            pass_ns: [0; PASS_COUNT],
            time_passes: false,
            workers: WorkerPool::new(),
        }
    }
}

impl SweepEngine {
    /// An engine applying `default_qos` to every pool not overridden with
    /// [`set_qos`].
    ///
    /// [`set_qos`]: SweepEngine::set_qos
    pub fn new(config: OnlinePlannerConfig, default_qos: QosRequirement) -> Self {
        SweepEngine {
            store: ShardStore::new(config.window_capacity, config.drift.short_window.max(2)),
            config,
            default_qos,
            qos: BTreeMap::new(),
            shards: Vec::new(),
            pending: Vec::new(),
            windows_seen: 0,
            assessed: 0,
            input_buf: Vec::new(),
            chunk_outs: Vec::new(),
            pass_ns: [0; PASS_COUNT],
            time_passes: false,
            workers: WorkerPool::new(),
        }
    }

    /// Overrides the QoS requirement for one pool.
    pub fn set_qos(&mut self, pool: PoolId, qos: QosRequirement) -> &mut Self {
        self.qos.insert(pool, qos);
        self
    }

    /// Changes the fan-out width mid-run. Purely an execution knob: the
    /// worker pool grows (or idles surplus workers) lazily, and outputs are
    /// bit-identical before, across, and after the change.
    pub fn set_threads(&mut self, threads: usize) -> &mut Self {
        self.config.threads = threads;
        self
    }

    /// Changes the execution mode mid-run. Like [`set_threads`], purely an
    /// execution knob — a restored checkpoint can be driven in either mode
    /// and the outputs stay bit-identical.
    ///
    /// [`set_threads`]: SweepEngine::set_threads
    pub fn set_exec(&mut self, exec: SweepExec) -> &mut Self {
        self.config.exec = exec;
        self
    }

    /// The tuning in effect.
    pub fn config(&self) -> &OnlinePlannerConfig {
        &self.config
    }

    /// Windows observed so far.
    pub fn windows_seen(&self) -> u64 {
        self.windows_seen
    }

    /// Pools currently tracked.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The QoS requirement used for `pool`.
    pub fn qos_for(&self, pool: PoolId) -> QosRequirement {
        self.qos.get(&pool).copied().unwrap_or(self.default_qos)
    }

    /// The fan-out width in effect: `config.threads`, with `0` resolving to
    /// the machine's available parallelism. The per-window sweep further
    /// clamps this to `ceil(pools / min_pool_chunk)` so a small fleet is
    /// never oversubscribed.
    pub fn effective_threads(&self) -> usize {
        match self.config.threads {
            0 => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            n => n,
        }
    }

    /// Worker threads currently alive in the persistent pool (0 before the
    /// first parallel sweep, and always 0 in [`SweepExec::Scoped`] mode).
    pub fn live_workers(&self) -> usize {
        self.workers.spawned_workers()
    }

    /// The latest per-pool assessments — a borrowed, ordered view over the
    /// shard array (assessments live inside their shards; nothing is
    /// copied to read them).
    pub fn assessments(&self) -> AssessmentView<'_> {
        AssessmentView { shards: &self.shards, assessed: self.assessed }
    }

    /// Starts recording per-pass wall time (and zeroes any prior counts).
    /// Only single-chunk windows are timed — at more than one chunk the
    /// passes run concurrently across workers and a per-pass wall-clock sum
    /// would be meaningless — so measure at `threads: 1`. Timing costs a
    /// few `Instant` reads per tile and allocates nothing.
    pub fn enable_pass_timing(&mut self) -> &mut Self {
        self.time_passes = true;
        self.pass_ns = [0; PASS_COUNT];
        self
    }

    /// Accumulated nanoseconds per pass since [`enable_pass_timing`],
    /// index-aligned with [`PASS_NAMES`]. All zero unless timing is enabled
    /// and single-chunk windows ran.
    ///
    /// [`enable_pass_timing`]: SweepEngine::enable_pass_timing
    pub fn pass_ns(&self) -> [u64; PASS_COUNT] {
        self.pass_ns
    }

    /// Takes the recommendations queued since the last drain.
    pub fn drain_recommendations(&mut self) -> Vec<ResizeRecommendation> {
        std::mem::take(&mut self.pending)
    }

    /// Consumes one flat fleet snapshot (aggregation on the calling thread,
    /// shard updates fanned out).
    pub fn observe(&mut self, snap: &WindowSnapshot<'_>) {
        let aggregates = PoolWindowAggregate::from_snapshot(snap);
        let mut inputs = std::mem::take(&mut self.input_buf);
        inputs.clear();
        inputs.extend(aggregates.iter().map(|&(pool, agg)| (pool, PoolInput::Aggregate(agg))));
        inputs.sort_unstable_by_key(|&(pool, _)| pool);
        self.sweep(snap.window, WindowData::None, &inputs);
        self.input_buf = inputs;
    }

    /// Consumes one pool-partitioned fleet snapshot: row aggregation happens
    /// inside each worker, so ingestion has no serialization point. This is
    /// the allocation-free steady-state path of the legacy row layout.
    pub fn observe_partitioned(&mut self, snap: &PartitionedSnapshot<'_>) {
        let mut inputs = std::mem::take(&mut self.input_buf);
        inputs.clear();
        inputs.extend(
            snap.pools
                .iter()
                .map(|slice| (slice.pool, PoolInput::Rows { start: slice.start, len: slice.len })),
        );
        // Built fleets emit pools in ascending-id order already; sorting is
        // cheap insurance for hand-rolled snapshots. Unstable sort: keys are
        // unique (one slice per pool), so the result is deterministic and no
        // merge buffer is allocated.
        inputs.sort_unstable_by_key(|&(pool, _)| pool);
        self.sweep(snap.window, WindowData::Rows(snap.rows), &inputs);
        self.input_buf = inputs;
    }

    /// Consumes one columnar fleet snapshot — the struct-of-arrays hot
    /// path: each worker aggregates its pools' counters from contiguous
    /// column slices (dense streaming reads, no per-row branch), and the
    /// resulting aggregates are bit-identical to the row paths'. Equally
    /// allocation-free in the steady state.
    pub fn observe_columns(&mut self, snap: &ColumnarSnapshot<'_>) {
        let mut inputs = std::mem::take(&mut self.input_buf);
        inputs.clear();
        inputs.extend(
            snap.pools
                .iter()
                .map(|slice| (slice.pool, PoolInput::Rows { start: slice.start, len: slice.len })),
        );
        inputs.sort_unstable_by_key(|&(pool, _)| pool);
        self.sweep(snap.window, WindowData::Columns(snap.columns), &inputs);
        self.input_buf = inputs;
    }

    /// Consumes one streamed window (from `Simulation::step_streamed`) —
    /// the fused closed-loop hot path: for kernel-backed windows each
    /// worker *generates* its pools' metric columns into tile-resident
    /// scratch and aggregates them in the same tile pass, so the fleet's
    /// columns never round-trip DRAM between simulator and planner.
    /// Materialised fallbacks (recording policies whose store writes are
    /// inherently sequential) take the columnar path unchanged. Planner
    /// outputs are bit-identical to both materialised layouts either way.
    pub fn observe_streamed(&mut self, win: &StreamedWindow<'_>) {
        let mut inputs = std::mem::take(&mut self.input_buf);
        inputs.clear();
        match win.source {
            StreamedSource::Columns(cols) => {
                inputs.extend(win.pools.iter().map(|slice| {
                    (slice.pool, PoolInput::Rows { start: slice.start, len: slice.len })
                }));
                inputs.sort_unstable_by_key(|&(pool, _)| pool);
                self.sweep(win.window, WindowData::Columns(cols), &inputs);
            }
            StreamedSource::Kernels(kernels) => {
                inputs.extend(win.pools.iter().enumerate().map(|(pool_index, slice)| {
                    (
                        slice.pool,
                        PoolInput::Streamed { start: slice.start, len: slice.len, pool_index },
                    )
                }));
                inputs.sort_unstable_by_key(|&(pool, _)| pool);
                self.sweep(win.window, WindowData::Streamed(kernels), &inputs);
            }
        }
        self.input_buf = inputs;
    }

    /// Feeds pre-aggregated per-pool rows (the shard-level unit test hook).
    pub fn observe_aggregates(
        &mut self,
        window: WindowIndex,
        aggregates: &[(PoolId, PoolWindowAggregate)],
    ) {
        let mut inputs = std::mem::take(&mut self.input_buf);
        inputs.clear();
        inputs.extend(aggregates.iter().map(|&(pool, agg)| (pool, PoolInput::Aggregate(agg))));
        inputs.sort_unstable_by_key(|&(pool, _)| pool);
        self.sweep(window, WindowData::None, &inputs);
        self.input_buf = inputs;
    }

    /// Registers pools seen for the first time: rebuilds the sorted shard
    /// list in one linear merge and remaps the store so every surviving
    /// lane follows its pool to its new position. O(pools + arrivals) — a
    /// burst of arrivals costs one merge, not one `Vec::insert` each — and
    /// a window without arrivals does nothing beyond the lookups the sweep
    /// needed anyway.
    fn admit_new_pools(&mut self, inputs: &[(PoolId, PoolInput)]) {
        // Arrival detection is a linear merge over the two pool-sorted
        // lists, not a binary search per input: per-input probes gather
        // ~log n cold cache lines each from the ~1 KiB shard elements,
        // which at fleet scale costs more per window than a whole observe
        // pass, while the cursor walk below is one constant-stride read
        // the prefetcher covers.
        let mut missing: Vec<PoolId> = Vec::new();
        let mut cursor = 0usize;
        for &(pool, _) in inputs {
            while cursor < self.shards.len() && self.shards[cursor].0 < pool {
                cursor += 1;
            }
            if !(cursor < self.shards.len() && self.shards[cursor].0 == pool) {
                missing.push(pool);
            }
        }
        if missing.is_empty() {
            return;
        }
        missing.sort_unstable();
        missing.dedup();
        let old = std::mem::take(&mut self.shards);
        let mut mapping = Vec::with_capacity(old.len());
        self.shards.reserve(old.len() + missing.len());
        let mut arrivals = missing.iter().peekable();
        for (pool, shard) in old {
            while let Some(&p) = arrivals.next_if(|&&p| p < pool) {
                self.shards.push((p, PoolShard::new(&self.config)));
            }
            mapping.push(self.shards.len());
            self.shards.push((pool, shard));
        }
        for &p in arrivals {
            self.shards.push((p, PoolShard::new(&self.config)));
        }
        self.store.remap(&mapping, self.shards.len());
    }

    /// One window of fleet work: fan shard chunks out, merge in pool order.
    fn sweep(&mut self, window: WindowIndex, data: WindowData<'_>, inputs: &[(PoolId, PoolInput)]) {
        self.windows_seen += 1;
        self.admit_new_pools(inputs);
        if self.shards.is_empty() {
            return;
        }
        let replan = self.windows_seen.is_multiple_of(self.config.replan_every);
        // Clamp the fan-out so every worker gets at least `min_pool_chunk`
        // pools: an 8-pool fleet at threads=4 runs on the calling thread
        // alone instead of paying three hand-offs for two pools each.
        let min_chunk = self.config.min_pool_chunk.max(1);
        let threads = self.effective_threads().min(self.shards.len().div_ceil(min_chunk)).max(1);
        // One contiguous chunk per thread (the canonical geometry — see
        // `headroom_exec::chunk_len`): chunk size grows with pools/threads,
        // so a 16384-pool fleet still hands each worker exactly one long
        // streaming run per window.
        let chunk_len = headroom_exec::chunk_len(self.shards.len(), threads);
        let chunks = self.shards.len().div_ceil(chunk_len);
        if self.chunk_outs.len() < chunks {
            self.chunk_outs.resize_with(chunks, ChunkState::default);
        }

        // Split the borrows: workers mutate shards and their own output
        // buffer, share the rest. The store is handed out as a raw view;
        // chunk `i` touches exactly lanes `[i*chunk_len, (i+1)*chunk_len)`
        // — the same pairwise-disjoint ranges the shard slices split into —
        // which is precisely the view's safety contract (see
        // `crate::store`). The view borrows nothing, so the sequential path
        // below drives the identical kernels.
        let view = self.store.view();
        let config = &self.config;
        let qos = &self.qos;
        let default_qos = self.default_qos;
        let run = |chunk: usize, shards: &mut [(PoolId, PoolShard)], state: &mut ChunkState| {
            sweep_chunk(
                shards,
                chunk * chunk_len,
                view,
                inputs,
                data,
                window,
                replan,
                config,
                qos,
                default_qos,
                state,
                None,
            );
        };
        if chunks <= 1 {
            // The single-chunk path runs on the calling thread, where
            // per-pass wall time is well-defined; hand it the timing array
            // when enabled (the closure above is shared across workers and
            // always passes None).
            let timer = self.time_passes.then_some(&mut self.pass_ns);
            sweep_chunk(
                &mut self.shards,
                0,
                view,
                inputs,
                data,
                window,
                replan,
                config,
                qos,
                default_qos,
                &mut self.chunk_outs[0],
                timer,
            );
        } else {
            match self.config.exec {
                SweepExec::Persistent => self.workers.run_chunks(
                    &mut self.shards,
                    chunk_len,
                    &mut self.chunk_outs[..chunks],
                    run,
                ),
                SweepExec::Scoped => headroom_exec::scoped_chunks(
                    &mut self.shards,
                    chunk_len,
                    &mut self.chunk_outs[..chunks],
                    &run,
                ),
            }
        }

        // Chunks are contiguous runs of the pool-sorted shard list, so
        // draining the chunk buffers in index order *is* the deterministic
        // merge (and keeps their capacity for the next window). Assessments
        // were written into their shards by the workers; only the (rare)
        // recommendations and the first-assessment counts cross the merge.
        for state in &mut self.chunk_outs[..chunks] {
            self.pending.append(&mut state.out);
            self.assessed += state.newly_assessed;
        }
    }
}

impl Persist for SweepEngine {
    /// Persists the planner's *logical* state — config, QoS table, shards
    /// with their store lanes, pending recommendations, window cursor. Each
    /// shard's scalar state is immediately followed by its lane's windowed
    /// state, serialized in normalized (rotation-free) form — so the bytes
    /// are a pure function of logical state, regardless of where the ring
    /// cursors physically sit. Execution state (scratch buffers, the worker
    /// pool) is never written: like [`SweepEngine::clone`], a restored
    /// engine rebuilds threads and caches lazily on its first sweep, which
    /// is exactly why a checkpoint taken under one `(threads, exec)`
    /// setting restores bit-identically under any other.
    fn persist(&self, w: &mut Writer) {
        self.config.persist(w);
        persist_qos(&self.default_qos, w);
        w.put_usize(self.qos.len());
        for (pool, qos) in &self.qos {
            persist_pool_id(pool, w);
            persist_qos(qos, w);
        }
        w.put_usize(self.shards.len());
        for (lane, (pool, shard)) in self.shards.iter().enumerate() {
            persist_pool_id(pool, w);
            shard.persist(w);
            self.store.persist_lane(lane, w);
        }
        self.pending.persist(w);
        w.put_u64(self.windows_seen);
    }

    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let config = OnlinePlannerConfig::restore(r)?;
        let default_qos = restore_qos(r)?;
        let qos_len = r.take_usize()?;
        if qos_len > r.remaining() {
            return Err(PersistError::Invalid("qos table length exceeds remaining stream"));
        }
        let mut qos = BTreeMap::new();
        for _ in 0..qos_len {
            let pool = restore_pool_id(r)?;
            qos.insert(pool, restore_qos(r)?);
        }
        let shard_len = r.take_usize()?;
        if shard_len > r.remaining() {
            return Err(PersistError::Invalid("shard list length exceeds remaining stream"));
        }
        let mut store = ShardStore::with_lanes(
            config.window_capacity,
            config.drift.short_window.max(2),
            shard_len,
        );
        let mut shards: Vec<(PoolId, PoolShard)> = Vec::with_capacity(shard_len);
        for lane in 0..shard_len {
            let pool = restore_pool_id(r)?;
            if let Some(&(last, _)) = shards.last() {
                if last >= pool {
                    return Err(PersistError::Invalid("shard list not sorted by pool id"));
                }
            }
            shards.push((pool, PoolShard::restore(r)?));
            store.restore_lane(lane, r)?;
        }
        // Derived, not serialized: recount so checkpoints from before the
        // counter existed restore correctly too.
        let assessed = shards.iter().filter(|(_, s)| s.assessment().is_some()).count();
        Ok(SweepEngine {
            config,
            default_qos,
            qos,
            shards,
            store,
            pending: Vec::restore(r)?,
            windows_seen: r.take_u64()?,
            assessed,
            input_buf: Vec::new(),
            chunk_outs: Vec::new(),
            pass_ns: [0; PASS_COUNT],
            time_passes: false,
            workers: WorkerPool::new(),
        })
    }
}

/// Processes one contiguous chunk of shards for one window, appending the
/// pools' due recommendations to `state.out` in pool order (assessments
/// are written in place inside the shards). `lane_base` is the chunk's
/// first lane in the store — shard `i` of the chunk owns lane
/// `lane_base + i` of the `view`, a range disjoint from every other
/// chunk's by the same geometry that made the shard slices disjoint. Pure
/// function of the chunk's own state plus shared read-only context — the
/// unit over which the engine parallelizes. Allocation-free once the chunk
/// state has capacity.
///
/// The window runs **plane-at-a-time**, not pool-at-a-time: over each
/// [`PASS_TILE`]-lane tile, pass 0 computes every pool's aggregate into
/// the scratch, passes 1–4 push each windowed plane across the whole tile
/// (aggregate ring, totals tail, alloc deque, drift ring — see
/// [`StoreView`]'s pass entry points), and pass 5 applies the scalar shard
/// updates ([`PoolShard::observe_scalar`]); replanning (pass 6) then runs
/// over the whole chunk. Each pass walks one or two contiguous streams
/// instead of the ~8 the fused per-pool observe interleaved. Because every
/// operation touches only pool-local state and per-structure per-lane
/// order is preserved, the output is bit-identical to the fused
/// [`PoolShard::observe`] order — pinned by the `OwnedLane` reference
/// proptests.
///
/// Both the chunk's shards and the window's inputs are sorted by pool id,
/// so pairing them is a linear merge: one `partition_point` to find the
/// chunk's first input, then an O(1)-amortized cursor — no per-pool binary
/// search re-walking the input index from the root (which at 16k pools was
/// ~14 scattered probes per pool per window).
#[allow(clippy::too_many_arguments)]
fn sweep_chunk(
    shards: &mut [(PoolId, PoolShard)],
    lane_base: usize,
    view: StoreView,
    inputs: &[(PoolId, PoolInput)],
    data: WindowData<'_>,
    window: WindowIndex,
    replan: bool,
    config: &OnlinePlannerConfig,
    qos: &BTreeMap<PoolId, QosRequirement>,
    default_qos: QosRequirement,
    state: &mut ChunkState,
    mut timer: Option<&mut [u64; PASS_COUNT]>,
) {
    state.out.clear();
    state.newly_assessed = 0;
    let Some(first_pool) = shards.first().map(|&(p, _)| p) else {
        return;
    };
    // Every pool can emit on *any* window — replan windows re-derive every
    // sizing, and urgent pools bypass the cadence — so the buffer must
    // hold the whole chunk even on non-replan windows (a replan-gated hint
    // of 0 under-sized it exactly when an urgent recommendation arrived
    // between ticks).
    state.out.reserve(shards.len());
    let mut cursor = inputs.partition_point(|&(p, _)| p < first_pool);
    let scratch = &mut state.scratch;
    let mut tile_start = 0;
    while tile_start < shards.len() {
        let tile_end = (tile_start + PASS_TILE).min(shards.len());
        let tile = &mut shards[tile_start..tile_end];
        let first_lane = lane_base + tile_start;
        let mut mark = timer.is_some().then(Instant::now);
        // Passes 0–1: pair the tile's pools with their inputs and build
        // each aggregate. For streamed inputs, pass 0 first *generates*
        // the pool's metric columns into the kernel scratch (the sim
        // kernels the simulator deferred), and pass 1 aggregates them
        // while the slice is still in L1/L2 — the fused pipeline's whole
        // point. For materialised inputs pass 0 is empty and all time
        // accrues to the aggregate pass, as before.
        scratch.reset(tile.len());
        for (i, (pool, _)) in tile.iter().enumerate() {
            while cursor < inputs.len() && inputs[cursor].0 < *pool {
                cursor += 1;
            }
            if !(cursor < inputs.len() && inputs[cursor].0 == *pool) {
                continue;
            }
            let aggregate = match inputs[cursor].1 {
                PoolInput::Aggregate(agg) => Some(agg),
                PoolInput::Rows { start, len } => match data {
                    WindowData::Rows(rows) => {
                        PoolWindowAggregate::from_rows(window, &rows[start..start + len])
                    }
                    WindowData::Columns(cols) => {
                        PoolWindowAggregate::from_columns(window, cols, start, len)
                    }
                    WindowData::None | WindowData::Streamed(_) => None,
                },
                PoolInput::Streamed { start, len, pool_index } => match data {
                    WindowData::Streamed(kernels) => {
                        // Serving count first: a fully offline pool yields
                        // no aggregate (matching `from_columns`), so the
                        // kernels need not run at all.
                        let n = kernels.online_count(start, len);
                        if n == 0 {
                            None
                        } else {
                            let (cpu, lat_avg, lat_p95, dq, pg, nm) = scratch.kernel_columns(len);
                            kernels.step_tile_columns(
                                pool_index,
                                start,
                                len,
                                StreamedTileOut {
                                    cpu,
                                    latency_avg: lat_avg,
                                    latency_p95: lat_p95,
                                    disk_queue: dq,
                                    memory_pages_per_sec: pg,
                                    network_mbps: nm,
                                },
                            );
                            lap(&mut timer, &mut mark, 0);
                            let rps = &kernels.rps()[start..start + len];
                            Some(aggregate_from_tile(window, n, rps, cpu, lat_p95, dq, pg, nm))
                        }
                    }
                    _ => None,
                },
            };
            if let Some(agg) = aggregate {
                scratch.set_input(i, agg);
            }
            lap(&mut timer, &mut mark, 1);
        }
        // Passes 2–5: each windowed plane across the whole tile.
        view.pass_agg_push(first_lane, scratch);
        lap(&mut timer, &mut mark, 2);
        view.pass_totals(first_lane, scratch);
        lap(&mut timer, &mut mark, 3);
        view.pass_alloc(first_lane, scratch);
        lap(&mut timer, &mut mark, 4);
        view.pass_drift_push(first_lane, scratch);
        lap(&mut timer, &mut mark, 5);
        // Passes 6 (scalar shard updates: fits, latency stream, projector,
        // drift check with the lane clear on a drift hit) and 7
        // (replanning) run fused, per pool, in one walk over the tile's
        // shards. The shard array is the fattest stream of the window
        // (~0.9 KiB per pool), so at fleet scale a second separate replan
        // walk would re-read the whole tile from beyond L2; fusing halves
        // that traffic while the tile's lane segments are also still
        // cache-resident from passes 3–5. The per-pool order is exactly
        // the fused reference's (observe, then replan if due), and
        // replanning reads only its own pool's state, so where the pass
        // boundary falls is an execution detail (the tile-boundary and
        // reference proptests pin this). Timing still attributes the two
        // halves separately — under the diagnostic timer `lap` reads the
        // clock per pool; untimed windows pay nothing.
        for (i, (pool, shard)) in tile.iter_mut().enumerate() {
            if let Some(&agg) = scratch.input(i) {
                let mut lane = view.lane(first_lane + i);
                shard.observe_scalar(&agg, scratch.evicted(i), scratch.drift_evicted(i), &mut lane);
            }
            lap(&mut timer, &mut mark, 6);
            if !(replan || shard.urgent()) {
                continue;
            }
            let lane = view.lane(first_lane + i);
            let pool_qos = qos.get(pool).copied().unwrap_or(default_qos);
            let had_assessment = shard.assessment().is_some();
            if let Some(recommendation) = shard.replan(*pool, window, &pool_qos, config, &lane) {
                state.out.push(recommendation);
            }
            // Assessments are monotonic (written once, never cleared), so
            // the None→Some transitions counted here sum to the fleet
            // total.
            if !had_assessment && shard.assessment().is_some() {
                state.newly_assessed += 1;
            }
            lap(&mut timer, &mut mark, 7);
        }
        tile_start = tile_end;
    }
}

/// Aggregates one pool's freshly generated tile columns — the streamed
/// counterpart of [`PoolWindowAggregate::from_columns`], and bit-identical
/// to it: the same fused six-accumulator loop, each counter summed
/// unconditionally in index order (the kernel zeroes offline lanes to
/// `+0.0`, the same offline contract the materialised columns carry), with
/// the serving count `n` computed up front by the caller.
#[allow(clippy::too_many_arguments)]
fn aggregate_from_tile(
    window: WindowIndex,
    n: usize,
    rps_c: &[f64],
    cpu_c: &[f64],
    lat_c: &[f64],
    dq_c: &[f64],
    pg_c: &[f64],
    nm_c: &[f64],
) -> PoolWindowAggregate {
    let len = rps_c.len();
    let (cpu_c, lat_c) = (&cpu_c[..len], &lat_c[..len]);
    let (dq_c, pg_c, nm_c) = (&dq_c[..len], &pg_c[..len], &nm_c[..len]);
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
    PoolWindowAggregate {
        window,
        rps_per_server: rps / nf,
        cpu_pct: cpu / nf,
        latency_p95_ms: lat / nf,
        disk_queue: dq / nf,
        memory_pages_per_sec: pg / nf,
        network_mbps: nm / nf,
        active_servers: n,
    }
}

/// Accumulates the time since `mark` into `timer[pass]` and restarts the
/// mark. No clock reads when timing is disabled.
fn lap(timer: &mut Option<&mut [u64; PASS_COUNT]>, mark: &mut Option<Instant>, pass: usize) {
    if let (Some(timer), Some(started)) = (timer.as_deref_mut(), *mark) {
        let now = Instant::now();
        timer[pass] += now.duration_since(started).as_nanos() as u64;
        *mark = Some(now);
    }
}

/// A borrowed, pool-ordered view of the fleet's latest assessments.
///
/// Assessments live *inside* their [`PoolShard`]s: the worker that replans
/// a pool writes the result in place, right next to the state it just
/// touched, so the per-window merge copies nothing and reading the fleet
/// state allocates nothing. This view adapts the shard array into the
/// map-shaped read API callers expect — ordered iteration, lookup,
/// indexing, equality — and [`AssessmentView::to_map`] snapshots it into an
/// owned `BTreeMap` when a caller needs to keep it across further sweeps.
#[derive(Clone, Copy)]
pub struct AssessmentView<'a> {
    shards: &'a [(PoolId, PoolShard)],
    /// Engine-maintained assessed-pool count, so [`AssessmentView::len`]
    /// is O(1) instead of a filter-count over the shard array.
    assessed: usize,
}

impl<'a> AssessmentView<'a> {
    /// `(pool, assessment)` pairs in ascending pool order, pools without an
    /// assessment yet (still warming) skipped.
    pub fn iter(&self) -> impl Iterator<Item = (&'a PoolId, &'a PoolAssessment)> + 'a {
        self.shards.iter().filter_map(|(p, s)| s.assessment().map(|a| (p, a)))
    }

    /// Assessments in ascending pool order.
    pub fn values(&self) -> impl Iterator<Item = &'a PoolAssessment> + 'a {
        self.iter().map(|(_, a)| a)
    }

    /// Pools assessed so far — O(1), read from the engine's counter.
    pub fn len(&self) -> usize {
        debug_assert_eq!(self.assessed, self.iter().count(), "assessed-pool counter drifted");
        self.assessed
    }

    /// True when no pool has been assessed yet — O(1).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The assessment of one pool, if derived yet.
    pub fn get(&self, pool: PoolId) -> Option<&'a PoolAssessment> {
        let i = self.shards.binary_search_by_key(&pool, |&(p, _)| p).ok()?;
        self.shards[i].1.assessment()
    }

    /// An owned snapshot of the current assessments.
    pub fn to_map(&self) -> BTreeMap<PoolId, PoolAssessment> {
        self.iter().map(|(p, a)| (*p, a.clone())).collect()
    }

    /// Pools whose latest assessment is urgently short of capacity
    /// (exhausted/critical band) — the scorer's detection signal for
    /// demand-side scenarios.
    pub fn urgent_count(&self) -> usize {
        self.values().filter(|a| a.band.needs_capacity()).count()
    }

    /// Total drift resets across all assessed pools — the scorer's
    /// detection signal for response-profile (model-swap) scenarios.
    pub fn drift_event_total(&self) -> usize {
        self.values().map(|a| a.drift_events).sum()
    }
}

impl Index<&PoolId> for AssessmentView<'_> {
    type Output = PoolAssessment;

    /// # Panics
    ///
    /// Panics when the pool has no assessment (mirroring `BTreeMap`
    /// indexing).
    fn index(&self, pool: &PoolId) -> &PoolAssessment {
        self.get(*pool).unwrap_or_else(|| panic!("no assessment for {pool:?}"))
    }
}

impl PartialEq for AssessmentView<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl fmt::Debug for AssessmentView<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::ResizeAction;
    use headroom_telemetry::ids::{DatacenterId, ServerId};

    fn rows_for(pool: u32, rps: f64, servers: u32) -> Vec<SnapshotRow> {
        (0..servers)
            .map(|s| SnapshotRow {
                server: ServerId(pool * 1000 + s),
                pool: PoolId(pool),
                datacenter: DatacenterId(0),
                online: true,
                rps,
                cpu_pct: 0.028 * rps + 1.37,
                latency_p95_ms: 4.028e-5 * rps * rps - 0.031 * rps + 36.68,
                disk_queue: 1.0,
                memory_pages_per_sec: 4_000.0,
                network_mbps: 0.32 * rps,
            })
            .collect()
    }

    fn drive_with(config: OnlinePlannerConfig, pools: u32, windows: u64) -> SweepEngine {
        let mut engine =
            SweepEngine::new(config, QosRequirement::latency(32.5).with_cpu_ceiling(90.0));
        drive_more(&mut engine, pools, 0, windows);
        engine
    }

    fn drive_more(engine: &mut SweepEngine, pools: u32, from: u64, to: u64) {
        for w in from..to {
            let mut rows = Vec::new();
            let mut slices = Vec::new();
            for p in 0..pools {
                // Distinct diurnal-ish phase per pool.
                let rps = 200.0
                    + 150.0
                        * (((w + 20 * p as u64) as f64 / 80.0) * std::f64::consts::PI).sin().abs();
                let start = rows.len();
                rows.extend(rows_for(p, rps, 8 + p % 3));
                slices.push(headroom_cluster::sim::PoolSlice {
                    pool: PoolId(p),
                    start,
                    len: rows.len() - start,
                });
            }
            let snap = PartitionedSnapshot { window: WindowIndex(w), rows: &rows, pools: &slices };
            engine.observe_partitioned(&snap);
        }
    }

    fn drive(threads: usize, pools: u32, windows: u64) -> SweepEngine {
        let config = OnlinePlannerConfig {
            window_capacity: 120,
            min_fit_windows: 30,
            threads,
            min_pool_chunk: 1,
            ..OnlinePlannerConfig::default()
        };
        drive_with(config, pools, windows)
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let mut sequential = drive(1, 7, 90);
        let expected_assessments = sequential.assessments().to_map();
        let expected_recs = sequential.drain_recommendations();
        assert!(!expected_assessments.is_empty(), "the sweep planned pools");
        for threads in [2, 3, 5, 8] {
            let mut sharded = drive(threads, 7, 90);
            assert_eq!(
                expected_assessments,
                sharded.assessments().to_map(),
                "assessments differ at {threads} threads"
            );
            assert_eq!(
                expected_recs,
                sharded.drain_recommendations(),
                "recommendations differ at {threads} threads"
            );
        }
    }

    #[test]
    fn exec_mode_does_not_change_results() {
        let mut persistent = drive_with(
            OnlinePlannerConfig {
                window_capacity: 120,
                min_fit_windows: 30,
                threads: 3,
                min_pool_chunk: 1,
                exec: SweepExec::Persistent,
                ..OnlinePlannerConfig::default()
            },
            7,
            90,
        );
        let mut scoped = drive_with(
            OnlinePlannerConfig {
                window_capacity: 120,
                min_fit_windows: 30,
                threads: 3,
                min_pool_chunk: 1,
                exec: SweepExec::Scoped,
                ..OnlinePlannerConfig::default()
            },
            7,
            90,
        );
        assert!(persistent.live_workers() > 0, "persistent mode spawned workers");
        assert_eq!(scoped.live_workers(), 0, "scoped mode holds no threads");
        assert_eq!(persistent.assessments(), scoped.assessments());
        assert_eq!(persistent.drain_recommendations(), scoped.drain_recommendations());
    }

    #[test]
    fn workers_persist_across_windows_and_thread_changes() {
        let mut engine = drive(4, 6, 60);
        let spawned = engine.live_workers();
        // 6 pools at threads=4 → chunk_len 2 → 3 chunks: the caller takes
        // one, two live on workers.
        assert_eq!(spawned, 2, "chunks minus the calling thread");
        // Thousands more windows reuse those exact workers.
        drive_more(&mut engine, 6, 60, 2_060);
        assert_eq!(engine.live_workers(), spawned, "no churn across 2000 windows");
        // Narrowing parks workers; widening grows the pool lazily.
        engine.set_threads(2);
        drive_more(&mut engine, 6, 2_060, 2_070);
        assert_eq!(engine.live_workers(), spawned, "surplus workers stay parked");
        engine.set_threads(6);
        drive_more(&mut engine, 6, 2_070, 2_080);
        assert_eq!(engine.live_workers(), 5, "pool grew to the new width");
    }

    #[test]
    fn small_fleets_are_not_oversubscribed() {
        // With the default `min_pool_chunk` (64), an 8-pool fleet at
        // threads=4 collapses to one chunk on the calling thread — no
        // hand-off overhead — while producing bit-identical results to a
        // forced fan-out.
        let config = OnlinePlannerConfig {
            window_capacity: 120,
            min_fit_windows: 30,
            threads: 4,
            ..OnlinePlannerConfig::default()
        };
        assert_eq!(config.min_pool_chunk, 64, "default clamp in effect");
        let mut clamped = drive_with(config, 8, 90);
        assert_eq!(clamped.live_workers(), 0, "small fleet stays on the calling thread");
        let mut wide = drive_with(OnlinePlannerConfig { min_pool_chunk: 1, ..config }, 8, 90);
        assert!(wide.live_workers() > 0, "min_pool_chunk=1 restores the old fan-out");
        assert_eq!(clamped.assessments(), wide.assessments());
        assert_eq!(clamped.drain_recommendations(), wide.drain_recommendations());
    }

    #[test]
    fn mid_run_thread_change_does_not_change_results() {
        let mut fixed = drive(1, 7, 90);
        let config = OnlinePlannerConfig {
            window_capacity: 120,
            min_fit_windows: 30,
            threads: 3,
            min_pool_chunk: 1,
            ..OnlinePlannerConfig::default()
        };
        let mut changed =
            SweepEngine::new(config, QosRequirement::latency(32.5).with_cpu_ceiling(90.0));
        drive_more(&mut changed, 7, 0, 30);
        changed.set_threads(5);
        drive_more(&mut changed, 7, 30, 60);
        changed.set_threads(2);
        drive_more(&mut changed, 7, 60, 90);
        assert_eq!(fixed.assessments(), changed.assessments());
        assert_eq!(fixed.drain_recommendations(), changed.drain_recommendations());
    }

    #[test]
    fn late_arriving_pool_does_not_perturb_existing_pools() {
        // Pool 3 first reports at window 40 and lands *between* existing
        // pools in the sorted order, forcing a store remap. The veterans'
        // state must be bit-identical to a run where pool 3 never existed
        // (shard state is pool-local; the remap moves lanes, not contents).
        let config = OnlinePlannerConfig {
            window_capacity: 120,
            min_fit_windows: 30,
            threads: 2,
            min_pool_chunk: 1,
            ..OnlinePlannerConfig::default()
        };
        let qos = QosRequirement::latency(32.5).with_cpu_ceiling(90.0);
        let mut without = SweepEngine::new(config, qos);
        let mut with = SweepEngine::new(config, qos);
        for w in 0..90u64 {
            let veterans = [0u32, 2, 4];
            let feed = |engine: &mut SweepEngine, include_late: bool| {
                let mut rows = Vec::new();
                let mut slices = Vec::new();
                let mut pools: Vec<u32> = veterans.to_vec();
                if include_late && w >= 40 {
                    pools.insert(2, 3); // keep ascending order: 0, 2, 3, 4
                }
                for p in pools {
                    let rps = 200.0
                        + 150.0
                            * (((w + 20 * p as u64) as f64 / 80.0) * std::f64::consts::PI)
                                .sin()
                                .abs();
                    let start = rows.len();
                    rows.extend(rows_for(p, rps, 8 + p % 3));
                    slices.push(headroom_cluster::sim::PoolSlice {
                        pool: PoolId(p),
                        start,
                        len: rows.len() - start,
                    });
                }
                let snap =
                    PartitionedSnapshot { window: WindowIndex(w), rows: &rows, pools: &slices };
                engine.observe_partitioned(&snap);
            };
            feed(&mut without, false);
            feed(&mut with, true);
        }
        for p in [0u32, 2, 4] {
            assert_eq!(
                without.assessments().get(PoolId(p)),
                with.assessments().get(PoolId(p)),
                "pool {p} perturbed by the arrival"
            );
        }
        assert!(with.assessments().get(PoolId(3)).is_some(), "the late pool was planned");
        let with_recs: Vec<_> =
            with.drain_recommendations().into_iter().filter(|r| r.pool != PoolId(3)).collect();
        assert_eq!(without.drain_recommendations(), with_recs);
    }

    #[test]
    fn partitioned_and_flat_ingestion_agree() {
        let config = OnlinePlannerConfig {
            window_capacity: 120,
            min_fit_windows: 30,
            threads: 2,
            min_pool_chunk: 1,
            ..OnlinePlannerConfig::default()
        };
        let qos = QosRequirement::latency(32.5).with_cpu_ceiling(90.0);
        let mut part = SweepEngine::new(config, qos);
        let mut flat = SweepEngine::new(config, qos);
        for w in 0..90u64 {
            let rps = 250.0 + 2.0 * w as f64;
            let mut rows = rows_for(0, rps, 6);
            rows.extend(rows_for(1, rps * 0.8, 9));
            let slices = vec![
                headroom_cluster::sim::PoolSlice { pool: PoolId(0), start: 0, len: 6 },
                headroom_cluster::sim::PoolSlice { pool: PoolId(1), start: 6, len: 9 },
            ];
            let snap = PartitionedSnapshot { window: WindowIndex(w), rows: &rows, pools: &slices };
            part.observe_partitioned(&snap);
            flat.observe(&snap.as_snapshot());
        }
        assert_eq!(part.assessments(), flat.assessments());
        assert_eq!(part.drain_recommendations(), flat.drain_recommendations());
    }

    #[test]
    fn columnar_and_row_ingestion_agree() {
        // The same windows fed as rows and as columns (at different thread
        // counts) must produce identical planner state — the engine-level
        // half of the colsim bit-identity contract.
        let config = OnlinePlannerConfig {
            window_capacity: 120,
            min_fit_windows: 30,
            threads: 2,
            min_pool_chunk: 1,
            ..OnlinePlannerConfig::default()
        };
        let qos = QosRequirement::latency(32.5).with_cpu_ceiling(90.0);
        let mut by_rows = SweepEngine::new(config, qos);
        let mut by_cols = SweepEngine::new(OnlinePlannerConfig { threads: 3, ..config }, qos);
        for w in 0..90u64 {
            let rps = 250.0 + 2.0 * w as f64;
            let mut rows = rows_for(0, rps, 6);
            rows.extend(rows_for(1, rps * 0.8, 9));
            // A partially offline pool exercises the popcount path.
            rows.extend(rows_for(2, rps * 1.1, 5));
            for r in rows.iter_mut().skip(17) {
                *r = SnapshotRow {
                    online: false,
                    rps: 0.0,
                    cpu_pct: 0.0,
                    latency_p95_ms: 0.0,
                    disk_queue: 0.0,
                    memory_pages_per_sec: 0.0,
                    network_mbps: 0.0,
                    ..*r
                };
            }
            let slices = vec![
                headroom_cluster::sim::PoolSlice { pool: PoolId(0), start: 0, len: 6 },
                headroom_cluster::sim::PoolSlice { pool: PoolId(1), start: 6, len: 9 },
                headroom_cluster::sim::PoolSlice { pool: PoolId(2), start: 15, len: 5 },
            ];
            let cols = SnapshotColumns::from_rows(&rows);
            by_rows.observe_partitioned(&PartitionedSnapshot {
                window: WindowIndex(w),
                rows: &rows,
                pools: &slices,
            });
            by_cols.observe_columns(&ColumnarSnapshot {
                window: WindowIndex(w),
                columns: &cols,
                pools: &slices,
            });
        }
        assert!(!by_rows.assessments().is_empty(), "pools were planned");
        assert_eq!(by_rows.assessments(), by_cols.assessments());
        assert_eq!(by_rows.drain_recommendations(), by_cols.drain_recommendations());
    }

    #[test]
    fn streamed_and_columnar_ingestion_agree() {
        // Twin simulations stepped in lockstep: one materialises columns,
        // the other hands the engine deferred kernels via the streamed
        // path. The engines (at different thread counts) must land in
        // identical planner state — the engine-level half of the streamed
        // bit-identity contract. SnapshotOnly is the policy that actually
        // defers kernels; the other policies fall back to materialised
        // columns inside `step_streamed` and are covered by the colsim
        // repro gate.
        use headroom_cluster::catalog::MicroserviceKind;
        use headroom_cluster::scenario::FleetScenario;
        use headroom_cluster::sim::{RecordingPolicy, SnapshotLayout};
        let sim_with = |layout| {
            FleetScenario::single_service(MicroserviceKind::B, 2, 7, 23)
                .with_layout(layout)
                .with_recording(RecordingPolicy::SnapshotOnly)
                .into_simulation()
        };
        let config = OnlinePlannerConfig {
            window_capacity: 120,
            min_fit_windows: 30,
            threads: 2,
            min_pool_chunk: 1,
            ..OnlinePlannerConfig::default()
        };
        let qos = QosRequirement::latency(32.5).with_cpu_ceiling(90.0);
        let mut by_cols = SweepEngine::new(config, qos);
        let mut by_stream = SweepEngine::new(OnlinePlannerConfig { threads: 3, ..config }, qos);
        let mut cols_sim = sim_with(SnapshotLayout::Columnar);
        let mut stream_sim = sim_with(SnapshotLayout::Streamed);
        for _ in 0..140u64 {
            let snap = cols_sim.step_columns_partitioned();
            by_cols.observe_columns(&snap);
            let win = stream_sim.step_streamed();
            assert!(
                matches!(win.source, StreamedSource::Kernels(_)),
                "SnapshotOnly streams kernels"
            );
            by_stream.observe_streamed(&win);
        }
        assert!(!by_cols.assessments().is_empty(), "pools were planned");
        assert_eq!(by_cols.assessments(), by_stream.assessments());
        assert_eq!(by_cols.drain_recommendations(), by_stream.drain_recommendations());
    }

    /// The O(1) assessed-pool counter must agree with a recount through
    /// arrivals, checkpoint round-trips, and clones. (`len()` itself
    /// debug-asserts against `iter().count()`, so every call in the test
    /// suite cross-checks the counter.)
    #[test]
    fn assessed_count_survives_restore_and_arrivals() {
        let mut engine = drive(2, 5, 90);
        assert_eq!(engine.assessments().len(), 5, "all warmed pools assessed");
        // Two late pools arrive: unassessed shards must not move the count.
        drive_more(&mut engine, 7, 90, 92);
        assert_eq!(engine.assessments().len(), 5, "unwarmed arrivals not counted");
        assert!(!engine.assessments().is_empty());
        let mut w = Writer::new();
        engine.persist(&mut w);
        let bytes = w.into_bytes();
        let restored = SweepEngine::restore(&mut Reader::new(&bytes)).expect("clean restore");
        assert_eq!(restored.assessments().len(), 5, "restore recounts");
        assert_eq!(engine.clone().assessments().len(), 5, "clone carries the counter");
        drive_more(&mut engine, 7, 92, 182);
        assert_eq!(engine.assessments().len(), 7, "arrivals counted once warmed");
    }

    /// Pass timing is pure execution telemetry: it accumulates on
    /// single-chunk windows, stays zero on multi-chunk ones, and never
    /// changes planner output.
    #[test]
    fn pass_timing_records_single_chunk_windows_only() {
        let config = OnlinePlannerConfig {
            window_capacity: 48,
            min_fit_windows: 12,
            threads: 1,
            min_pool_chunk: 1,
            ..OnlinePlannerConfig::default()
        };
        let qos = QosRequirement::latency(32.5).with_cpu_ceiling(90.0);
        let mut timed = SweepEngine::new(config, qos);
        timed.enable_pass_timing();
        drive_more(&mut timed, 3, 0, 40);
        let ns = timed.pass_ns();
        assert!(ns.iter().sum::<u64>() > 0, "single-chunk windows were timed");
        assert!(ns[PASS_COUNT - 1] > 0, "the replan pass registered");
        let mut untimed = SweepEngine::new(config, qos);
        drive_more(&mut untimed, 3, 0, 40);
        assert_eq!(timed.assessments(), untimed.assessments());
        assert_eq!(timed.drain_recommendations(), untimed.drain_recommendations());
        let mut wide = SweepEngine::new(OnlinePlannerConfig { threads: 3, ..config }, qos);
        wide.enable_pass_timing();
        drive_more(&mut wide, 3, 0, 40);
        assert_eq!(wide.pass_ns(), [0; PASS_COUNT], "multi-chunk windows are untimed");
    }

    /// A fleet wide enough that one chunk spans several [`PASS_TILE`]
    /// tiles: tile boundaries are an execution detail and must not change
    /// results (the narrower-chunk run crosses them at different lanes).
    #[test]
    fn tile_boundaries_do_not_change_results() {
        let pools = 2 * PASS_TILE + 173; // threads=1: three tiles, one partial
        let agg_for = |w: u64, p: usize| {
            let rps = 210.0 + (((w * 31 + p as u64 * 17) % 83) as f64) * 3.0;
            PoolWindowAggregate {
                window: WindowIndex(w),
                rps_per_server: rps,
                cpu_pct: 0.028 * rps + 1.37,
                latency_p95_ms: 4.028e-5 * rps * rps - 0.031 * rps + 36.68,
                disk_queue: 1.0,
                memory_pages_per_sec: 4_000.0,
                network_mbps: 0.32 * rps,
                active_servers: 5 + p % 4,
            }
        };
        let config = OnlinePlannerConfig {
            window_capacity: 8,
            min_fit_windows: 4,
            threads: 1,
            min_pool_chunk: 1,
            ..OnlinePlannerConfig::default()
        };
        let qos = QosRequirement::latency(32.5).with_cpu_ceiling(90.0);
        let mut one_chunk = SweepEngine::new(config, qos);
        let mut sharded = SweepEngine::new(OnlinePlannerConfig { threads: 4, ..config }, qos);
        for w in 0..12u64 {
            let aggs: Vec<_> = (0..pools).map(|p| (PoolId(p as u32), agg_for(w, p))).collect();
            one_chunk.observe_aggregates(WindowIndex(w), &aggs);
            sharded.observe_aggregates(WindowIndex(w), &aggs);
        }
        assert_eq!(one_chunk.assessments().len(), pools, "every pool planned");
        assert_eq!(one_chunk.assessments(), sharded.assessments());
        assert_eq!(one_chunk.drain_recommendations(), sharded.drain_recommendations());
    }

    /// An undersized pool under a ramping load, planned on a coarse replan
    /// cadence: the urgent-band bypass must emit grow recommendations on
    /// windows *between* the cadence ticks.
    #[test]
    fn urgent_growth_bypasses_replan_cadence() {
        let config = OnlinePlannerConfig {
            window_capacity: 300,
            min_fit_windows: 30,
            replan_every: 50,
            ..OnlinePlannerConfig::default()
        };
        let mut engine =
            SweepEngine::new(config, QosRequirement::latency(32.5).with_cpu_ceiling(90.0));
        let mut recs = Vec::new();
        for w in 0..300u64 {
            // Ramps far past what 4 servers can serve within the SLO.
            let rps = 100.0 + 3.0 * w as f64;
            let rows = rows_for(0, rps, 4);
            let slices =
                vec![headroom_cluster::sim::PoolSlice { pool: PoolId(0), start: 0, len: 4 }];
            let snap = PartitionedSnapshot { window: WindowIndex(w), rows: &rows, pools: &slices };
            engine.observe_partitioned(&snap);
            recs.extend(engine.drain_recommendations());
        }
        let grow: Vec<_> = recs.iter().filter(|r| r.action == ResizeAction::Grow).collect();
        assert!(!grow.is_empty(), "the ramp forced growth: {recs:?}");
        assert!(
            grow.iter().any(|r| !(r.window.0 + 1).is_multiple_of(50)),
            "growth was emitted between replan ticks, not only on them: {grow:?}"
        );
    }
}
