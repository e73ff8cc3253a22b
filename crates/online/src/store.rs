//! The slot-major shard-state store.
//!
//! [`crate::shard::PoolShard`] used to own four small heap side buffers —
//! the aggregate ring, the sorted totals window, the drift sub-window, and
//! the allocation max-deque. At fleet scale that layout is the bottleneck:
//! a steady-state sweep touches 3–4 scattered heap objects per pool per
//! window, and BENCH_sweep.json showed the 16384-pool per-pool cost at ~2×
//! the 512-pool figure from those dependent cache/TLB misses alone.
//!
//! [`ShardStore`] hoists all four buffers into engine-owned planes
//! ([`headroom_stats::plane`]): the aggregate ring and drift sub-window as
//! slot-major [`RingPlane`]s (all pools' slot-k entries contiguous — the
//! lockstep steady state streams them), the totals tail and allocation
//! deque as lane-major segments. A pool's *lane* is its position in the
//! engine's pool-sorted shard list; pool arrivals rebuild the planes under
//! an old→new lane mapping ([`ShardStore::remap`]), and steady-state
//! windows never allocate.
//!
//! Shards reach their lane through the [`ShardLane`] trait, which has two
//! backends:
//!
//! - [`LaneView`] — a raw, lane-disjoint view into the shared store. The
//!   sweep engine hands each worker chunk a contiguous lane range of the
//!   same [`StoreView`]; thread-affinity falls out of the chunk geometry
//!   (a pool's planes are always touched by the worker that owns its
//!   chunk). This is the only `unsafe` in the crate, scoped to the `view`
//!   module and justified the same way `headroom_exec`'s chunk hand-off
//!   is: chunk lane ranges are pairwise disjoint and the dispatch outlives
//!   the borrow.
//! - [`OwnedLane`] — the original per-pool heap buffers, kept as the
//!   *reference* backend: property tests drive both backends through the
//!   identical generic shard code and assert bit-identical results.
//!
//! Both backends implement the exact semantics of the structures they
//! replaced (FIFO ring, [`headroom_stats::MonotonicMaxDeque`]), so
//! swapping the storage layout changes no planner output — the engine's
//! bit-identity contract over threads, exec modes, and checkpoint
//! round-trips is preserved.
//!
//! # The totals tail
//!
//! The planner reads one order statistic of a pool's windowed total
//! workload: its [`PEAK_PERCENTILE`]th percentile, which for a window of
//! `n` values reads only the top [`top_values_needed`]`(n)` of them (16 of
//! a full 1440-window day). So the store keeps, per lane, the window's
//! finite-value count `n` and an ascending *tail* of its largest values in
//! [`tail_capacity`] slots — twice what the peak needs at full window,
//! plus slack — instead of the whole sorted window. Arrivals at or above
//! the tail's minimum join it; evictions of held values leave it; when
//! evictions have drained it below what the peak reads, it is refilled
//! from the lane's aggregate ring, which holds exactly the window. A
//! refill scans the lane's whole ring; the totals pass refills all of a
//! tile's short lanes in one walk, slot by slot, so lanes in step read
//! ring rows contiguously. The worst case is a strictly falling stream,
//! where every eviction takes a top value and no arrival joins: a refill
//! every `tail_capacity − need + 1` windows (25 at the default capacity).
//! Workloads with a daily cycle refill about once per peak leaving the
//! window.
//!
//! The tail answers the peak **exactly**, bit for bit, as the sorted
//! window [`OwnedLane`] keeps — with one caveat: `+0.0` and `-0.0` compare
//! equal, and a sorted window's order among equal values follows its
//! insert history, so when both zeros sit at the tail's edge the sign of a
//! zero peak may differ. The tail is exact at [`PEAK_PERCENTILE`] only;
//! it cannot answer lower percentiles (a median needs half the window),
//! and [`ShardLane`] offers none.

use headroom_stats::percentile::top_values_needed;
use headroom_stats::persist::{PersistError, Reader, Writer};
use headroom_stats::plane::{DequePlane, RingCursors, RingPlane, TailPlane};
use headroom_stats::{MonotonicMaxDeque, SortedWindow};
use headroom_telemetry::time::WindowIndex;

use crate::planner::PoolWindowAggregate;
use crate::ring::RingWindow;

/// One pool's window-state buffers, however they are stored.
///
/// [`crate::shard::PoolShard`] is generic over this trait: the production
/// path passes a [`LaneView`] into the shared [`ShardStore`], tests can
/// pass an [`OwnedLane`]. Implementations must agree bit-for-bit — the
/// store proptests pin them against each other.
pub trait ShardLane {
    /// Aggregate windows currently held.
    fn agg_len(&self) -> usize;

    /// Pushes one window aggregate into the ring, returning the evicted
    /// aggregate when the ring was full. The evicted value's `window` field
    /// is not meaningful (the plane backend does not store it); callers
    /// only read the counter fields.
    fn agg_push(&mut self, agg: &PoolWindowAggregate) -> Option<PoolWindowAggregate>;

    /// Adds the total of the aggregate just pushed to the totals window
    /// (non-finite ignored).
    fn totals_insert(&mut self, v: f64);

    /// Evicts `old` — the total of the aggregate the ring push just
    /// evicted — from the totals window and adds `new`: the steady-state
    /// shape, where every arriving window also evicts one.
    fn totals_replace(&mut self, old: f64, new: f64);

    /// The [`PEAK_PERCENTILE`]th percentile of the totals window, `None`
    /// when it holds no finite value.
    fn totals_peak(&self) -> Option<f64>;

    /// Feeds the allocation entering the window into the max-deque.
    fn alloc_push(&mut self, servers: usize);

    /// Feeds the allocation leaving the window.
    fn alloc_evict(&mut self, servers: usize);

    /// The maximum allocation over the window.
    fn alloc_max(&self) -> Option<usize>;

    /// Pushes one (x, y) pair into the drift sub-window ring, returning the
    /// evicted pair when it was full.
    fn drift_push(&mut self, x: f64, y: f64) -> Option<(f64, f64)>;

    /// Empties every buffer (the drift-reset path).
    fn clear(&mut self);
}

/// Aggregate counters stored per (slot, lane) cell of the fused aggregate
/// plane. `window` is deliberately not stored: an evicted aggregate's window
/// index is never read, so the plane store drops it (and checkpoints shrink
/// by one u64 per held window).
const AGG_FIELDS: usize = 7;

/// (x, y) pair width of the fused drift plane.
const DRIFT_FIELDS: usize = 2;

/// The percentile of windowed total workload a pool is sized against —
/// the paper's p99 peak, as in the batch optimizer.
pub const PEAK_PERCENTILE: f64 = 99.0;

/// Slots per lane of the totals tail for windows of `window_cap`
/// aggregates: twice the top values the peak reads at full window, plus
/// slack (40 at the default 1440-window day). See the module docs.
pub fn tail_capacity(window_cap: usize) -> usize {
    2 * top_values_needed(window_cap, PEAK_PERCENTILE) + 8
}

/// Expands an old-lane → new-lane mapping to the sub-lane mapping of a
/// plane that packs `fields` values per lane.
fn expand_mapping(mapping: &[usize], fields: usize) -> Vec<usize> {
    mapping.iter().flat_map(|&new| (0..fields).map(move |k| new * fields + k)).collect()
}

/// The engine-owned slot-major store backing every pool's side buffers.
///
/// Lane `l` is the pool at position `l` of the engine's pool-sorted shard
/// list. See the module docs for the layout.
#[derive(Debug, Clone)]
pub struct ShardStore {
    window_cap: usize,
    drift_cap: usize,
    /// Shared cursors for the fused aggregate plane (one set per lane; the
    /// cursor arithmetic is paid once per push).
    agg: RingCursors,
    /// One [`RingPlane`] with [`AGG_FIELDS`] sub-lanes per pool lane, so a
    /// pool's seven counters for one slot — rps_per_server, cpu_pct,
    /// latency_p95_ms, disk_queue, memory_pages_per_sec, network_mbps,
    /// active_servers (as f64) — sit in 56 contiguous bytes. Seven separate
    /// planes cost seven cache lines and seven prefetch streams per pool
    /// per window; the fused layout costs one of each.
    agg_plane: RingPlane,
    /// Per-lane top-[`tail_capacity`] totals tails with their window
    /// counts (see the module docs).
    totals: TailPlane,
    alloc: DequePlane,
    drift: RingCursors,
    /// Fused (x, y) drift plane, [`DRIFT_FIELDS`] sub-lanes per pool lane.
    drift_plane: RingPlane,
}

impl ShardStore {
    /// An empty store (no lanes yet) for rings of `window_cap` aggregates
    /// and drift sub-windows of `drift_cap` pairs.
    pub fn new(window_cap: usize, drift_cap: usize) -> Self {
        ShardStore::with_lanes(window_cap, drift_cap, 0)
    }

    /// A store with `lanes` empty lanes.
    pub fn with_lanes(window_cap: usize, drift_cap: usize, lanes: usize) -> Self {
        let window_cap = window_cap.max(1);
        let drift_cap = drift_cap.max(2);
        ShardStore {
            window_cap,
            drift_cap,
            agg: RingCursors::new(window_cap, lanes),
            agg_plane: RingPlane::new(window_cap, lanes * AGG_FIELDS),
            totals: TailPlane::new(tail_capacity(window_cap), lanes),
            alloc: DequePlane::new(window_cap, lanes),
            drift: RingCursors::new(drift_cap, lanes),
            drift_plane: RingPlane::new(drift_cap, lanes * DRIFT_FIELDS),
        }
    }

    /// Lanes currently held.
    pub fn lanes(&self) -> usize {
        self.agg.lanes()
    }

    /// Aggregate-ring capacity per lane.
    pub fn window_cap(&self) -> usize {
        self.window_cap
    }

    /// Rebuilds every plane under an old-lane → new-lane `mapping`
    /// (`mapping[old] = new`, strictly increasing); lanes nothing maps to
    /// start empty. Called on pool arrival — the one path that allocates.
    pub fn remap(&mut self, mapping: &[usize], new_lanes: usize) {
        self.agg = self.agg.remap(mapping, new_lanes);
        self.agg_plane =
            self.agg_plane.remap(&expand_mapping(mapping, AGG_FIELDS), new_lanes * AGG_FIELDS);
        self.totals = self.totals.remap(mapping, new_lanes);
        self.alloc = self.alloc.remap(mapping, new_lanes);
        self.drift = self.drift.remap(mapping, new_lanes);
        self.drift_plane = self
            .drift_plane
            .remap(&expand_mapping(mapping, DRIFT_FIELDS), new_lanes * DRIFT_FIELDS);
    }

    /// Serializes one lane's buffers in canonical logical order (rings
    /// oldest→newest with the physical start normalized away), so the bytes
    /// are a pure function of logical state — the checkpoint determinism
    /// contract.
    pub fn persist_lane(&self, lane: usize, w: &mut Writer) {
        let n = self.agg.len(lane);
        w.put_u32(n as u32);
        for i in 0..n {
            let slot = self.agg.slot_of(lane, i);
            for k in 0..AGG_FIELDS {
                w.put_f64(self.agg_plane.get(slot, lane * AGG_FIELDS + k));
            }
        }
        let tail = self.totals.as_slice(lane);
        w.put_u32(self.totals.count(lane) as u32);
        w.put_u32(tail.len() as u32);
        for &v in tail {
            w.put_f64(v);
        }
        let a = self.alloc.len(lane);
        w.put_u32(a as u32);
        for i in 0..a {
            w.put_u64(self.alloc.get(lane, i));
        }
        let d = self.drift.len(lane);
        w.put_u32(d as u32);
        for i in 0..d {
            let slot = self.drift.slot_of(lane, i);
            w.put_f64(self.drift_plane.get(slot, lane * DRIFT_FIELDS));
            w.put_f64(self.drift_plane.get(slot, lane * DRIFT_FIELDS + 1));
        }
    }

    /// Restores one lane from [`persist_lane`] bytes, validating every
    /// structural invariant (lengths within capacity, a totals window that
    /// counts the ring's finite totals, a tail that is finite, ascending,
    /// and long enough to answer the peak, deque non-increasing) before
    /// accepting. The tail is taken as persisted, never rebuilt from the
    /// ring: a load costs one pass over the bytes.
    ///
    /// [`persist_lane`]: ShardStore::persist_lane
    pub fn restore_lane(&mut self, lane: usize, r: &mut Reader<'_>) -> Result<(), PersistError> {
        let n = r.take_u32()? as usize;
        if n > self.window_cap {
            return Err(PersistError::Invalid("aggregate ring length exceeds capacity"));
        }
        // Finite totals (rps_per_server × active_servers, as `total_rps`)
        // among the held aggregates: what the totals window must count.
        let mut finite = 0;
        for i in 0..n {
            let mut cell = [0.0; AGG_FIELDS];
            for (k, v) in cell.iter_mut().enumerate() {
                *v = r.take_f64()?;
                self.agg_plane.set(i, lane * AGG_FIELDS + k, *v);
            }
            finite += usize::from((cell[0] * cell[6]).is_finite());
        }
        if !self.agg.restore_lane(lane, n) {
            return Err(PersistError::Invalid("aggregate ring length exceeds capacity"));
        }

        let count = r.take_u32()? as usize;
        let m = r.take_u32()? as usize;
        if m > self.totals.cap() {
            return Err(PersistError::Invalid("totals tail exceeds capacity"));
        }
        if m > count {
            return Err(PersistError::Invalid("totals tail longer than its window"));
        }
        // A refill takes the tail from the ring's finite totals, so the
        // window must count exactly those.
        if count != finite {
            return Err(PersistError::Invalid("totals window disagrees with the aggregate ring"));
        }
        if m < top_values_needed(count, PEAK_PERCENTILE) {
            return Err(PersistError::Invalid("totals tail too short for the peak"));
        }
        let mut tail = Vec::with_capacity(m);
        for _ in 0..m {
            tail.push(r.take_f64()?);
        }
        if !self.totals.restore_lane(lane, count, &tail) {
            return Err(PersistError::Invalid("totals tail values not finite ascending"));
        }

        let a = r.take_u32()? as usize;
        if a > self.window_cap {
            return Err(PersistError::Invalid("allocation deque length exceeds capacity"));
        }
        let mut alloc = Vec::with_capacity(a);
        for _ in 0..a {
            alloc.push(r.take_u64()?);
        }
        if !self.alloc.restore_lane(lane, &alloc) {
            return Err(PersistError::Invalid("allocation deque not non-increasing"));
        }

        let d = r.take_u32()? as usize;
        if d > self.drift_cap {
            return Err(PersistError::Invalid("drift sub-window length exceeds capacity"));
        }
        for i in 0..d {
            self.drift_plane.set(i, lane * DRIFT_FIELDS, r.take_f64()?);
            self.drift_plane.set(i, lane * DRIFT_FIELDS + 1, r.take_f64()?);
        }
        if !self.drift.restore_lane(lane, d) {
            return Err(PersistError::Invalid("drift sub-window length exceeds capacity"));
        }
        Ok(())
    }

    /// A raw lane-addressed view over every plane. See [`StoreView`] for
    /// the aliasing contract.
    pub fn view(&mut self) -> StoreView {
        StoreView::new(self)
    }
}

/// The original per-pool heap buffers as a [`ShardLane`] backend.
///
/// This is the *reference* implementation the plane store is pinned
/// against: the store proptests drive a sequential engine of `OwnedLane`s
/// and a parallel [`StoreView`] engine through identical inputs and assert
/// bit-identical outputs. It is not used on the production path.
#[derive(Debug, Clone)]
pub struct OwnedLane {
    window: RingWindow<PoolWindowAggregate>,
    totals: SortedWindow,
    alloc: MonotonicMaxDeque<usize>,
    drift: RingWindow<(f64, f64)>,
}

impl OwnedLane {
    /// Empty buffers with the same capacities a [`ShardStore`] lane has.
    pub fn new(window_cap: usize, drift_cap: usize) -> Self {
        OwnedLane {
            window: RingWindow::new(window_cap.max(1)),
            totals: SortedWindow::with_capacity(window_cap),
            alloc: MonotonicMaxDeque::new(),
            drift: RingWindow::new(drift_cap.max(2)),
        }
    }
}

impl ShardLane for OwnedLane {
    fn agg_len(&self) -> usize {
        self.window.len()
    }

    fn agg_push(&mut self, agg: &PoolWindowAggregate) -> Option<PoolWindowAggregate> {
        self.window.push(*agg)
    }

    fn totals_insert(&mut self, v: f64) {
        self.totals.insert(v);
    }

    fn totals_replace(&mut self, old: f64, new: f64) {
        self.totals.remove(old);
        self.totals.insert(new);
    }

    fn totals_peak(&self) -> Option<f64> {
        self.totals.percentile(PEAK_PERCENTILE).ok()
    }

    fn alloc_push(&mut self, servers: usize) {
        self.alloc.push(servers);
    }

    fn alloc_evict(&mut self, servers: usize) {
        self.alloc.evict(servers);
    }

    fn alloc_max(&self) -> Option<usize> {
        self.alloc.max()
    }

    fn drift_push(&mut self, x: f64, y: f64) -> Option<(f64, f64)> {
        self.drift.push((x, y))
    }

    fn clear(&mut self) {
        self.window.clear();
        self.totals.clear();
        self.alloc.clear();
        self.drift.clear();
    }
}

/// Reusable per-chunk scratch for the pass-structured window: the inputs
/// and evictions one pass produces and a later pass consumes, packed as
/// dense flag + value arrays indexed by lane *within the pass range*.
///
/// Owned by the sweep engine's per-chunk output slot and resized once to
/// the pass-tile width — steady-state windows reuse the storage and
/// allocate nothing (the counting-allocator gate covers this path).
#[derive(Debug, Clone, Default)]
pub struct PassScratch {
    /// Lanes of the range that have an input this window.
    present: Vec<bool>,
    /// The arriving aggregate per present lane.
    aggs: Vec<PoolWindowAggregate>,
    /// Physical ring slot each present lane's aggregate push writes.
    slots: Vec<u32>,
    /// Whether that push evicted the lane's oldest aggregate.
    evicting: Vec<bool>,
    /// The evicted aggregate per evicting lane (`window` not meaningful,
    /// as with [`ShardLane::agg_push`]).
    evicted: Vec<PoolWindowAggregate>,
    /// Drift-ring analogues of `slots`/`evicting`/`evicted`.
    drift_slots: Vec<u32>,
    drift_evicting: Vec<bool>,
    drift_evicted: Vec<(f64, f64)>,
    /// Store lanes of the range whose totals tails ran short this window
    /// (pass 2's refill list); room for every lane of the range.
    short: Vec<usize>,
    /// Streamed-tile kernel outputs: one pool's metric columns, evaluated
    /// by the sim-kernel pass and consumed by the aggregate pass while
    /// still cache-resident — the whole point of the streamed pipeline.
    /// Sized to the largest pool seen (never shrunk), untouched by
    /// [`PassScratch::reset`].
    kernel_cpu: Vec<f64>,
    kernel_lat_avg: Vec<f64>,
    kernel_lat_p95: Vec<f64>,
    kernel_disk: Vec<f64>,
    kernel_pages: Vec<f64>,
    kernel_net: Vec<f64>,
}

/// An all-zero aggregate used to back scratch slots whose flag is unset.
const ZERO_AGG: PoolWindowAggregate = PoolWindowAggregate {
    window: WindowIndex(0),
    rps_per_server: 0.0,
    cpu_pct: 0.0,
    latency_p95_ms: 0.0,
    disk_queue: 0.0,
    memory_pages_per_sec: 0.0,
    network_mbps: 0.0,
    active_servers: 0,
};

impl PassScratch {
    /// Empties the scratch and sizes every array for a range of `lanes`.
    /// Allocation-free once capacity is established.
    pub fn reset(&mut self, lanes: usize) {
        self.present.clear();
        self.present.resize(lanes, false);
        self.aggs.resize(lanes, ZERO_AGG);
        self.slots.resize(lanes, 0);
        self.evicting.clear();
        self.evicting.resize(lanes, false);
        self.evicted.resize(lanes, ZERO_AGG);
        self.drift_slots.resize(lanes, 0);
        self.drift_evicting.clear();
        self.drift_evicting.resize(lanes, false);
        self.drift_evicted.resize(lanes, (0.0, 0.0));
        self.short.clear();
        self.short.reserve(lanes);
    }

    /// Lanes covered by the current range.
    pub fn lanes(&self) -> usize {
        self.present.len()
    }

    /// Records range lane `i`'s arriving aggregate (pass 0).
    pub fn set_input(&mut self, i: usize, agg: PoolWindowAggregate) {
        self.present[i] = true;
        self.aggs[i] = agg;
    }

    /// Range lane `i`'s arriving aggregate, if it has one this window.
    pub fn input(&self, i: usize) -> Option<&PoolWindowAggregate> {
        self.present[i].then(|| &self.aggs[i])
    }

    /// The aggregate lane `i`'s ring push evicted, if any (pass 1 output).
    pub fn evicted(&self, i: usize) -> Option<&PoolWindowAggregate> {
        self.evicting[i].then(|| &self.evicted[i])
    }

    /// The pair lane `i`'s drift push evicted, if any (pass 4 output).
    pub fn drift_evicted(&self, i: usize) -> Option<(f64, f64)> {
        self.drift_evicting[i].then(|| self.drift_evicted[i])
    }

    /// The streamed-tile kernel output buffers, each sized to `len` lanes
    /// (one pool's slice), in `(cpu, latency_avg, latency_p95, disk_queue,
    /// memory_pages_per_sec, network_mbps)` order. Contents are
    /// uninitialised leftovers — the kernel pass writes every lane.
    /// Allocation-free once the largest pool has established capacity.
    #[allow(clippy::type_complexity)]
    pub fn kernel_columns(
        &mut self,
        len: usize,
    ) -> (&mut [f64], &mut [f64], &mut [f64], &mut [f64], &mut [f64], &mut [f64]) {
        self.kernel_cpu.resize(len.max(self.kernel_cpu.len()), 0.0);
        self.kernel_lat_avg.resize(len.max(self.kernel_lat_avg.len()), 0.0);
        self.kernel_lat_p95.resize(len.max(self.kernel_lat_p95.len()), 0.0);
        self.kernel_disk.resize(len.max(self.kernel_disk.len()), 0.0);
        self.kernel_pages.resize(len.max(self.kernel_pages.len()), 0.0);
        self.kernel_net.resize(len.max(self.kernel_net.len()), 0.0);
        (
            &mut self.kernel_cpu[..len],
            &mut self.kernel_lat_avg[..len],
            &mut self.kernel_lat_p95[..len],
            &mut self.kernel_disk[..len],
            &mut self.kernel_pages[..len],
            &mut self.kernel_net[..len],
        )
    }
}

pub use view::{LaneView, StoreView};

/// The one `unsafe` corner of the crate: raw, `Copy`, `Send + Sync`
/// pointers into a [`ShardStore`], so worker chunks can drive disjoint
/// lane ranges of the shared planes without splitting borrows per plane.
#[allow(unsafe_code)]
mod view {
    use super::*;

    /// Raw pointers into every plane of one [`ShardStore`].
    ///
    /// # Safety contract
    ///
    /// This follows the same discipline as `headroom_exec`'s chunk
    /// hand-off (its `SendPtr`): the view is created from `&mut ShardStore`
    /// immediately before a sweep's fan-out and used only inside it.
    /// Soundness rests on three invariants the sweep engine upholds:
    ///
    /// - **disjoint lanes**: chunk `i` touches exactly the lanes
    ///   `[i * chunk_len, min((i + 1) * chunk_len, lanes))` — the same
    ///   pairwise-disjoint geometry `headroom_exec::chunk_len` gives the
    ///   shard slices, so no two threads ever touch the same lane;
    /// - **no concurrent safe access**: the engine does not read or write
    ///   the store through its safe API while any view is live;
    /// - **stable storage**: the planes are not resized between view
    ///   creation and last use (remap happens strictly before the fan-out).
    #[derive(Debug, Clone, Copy)]
    pub struct StoreView {
        lanes: usize,
        window_cap: usize,
        tail_cap: usize,
        drift_cap: usize,
        agg_start: *mut u32,
        agg_len: *mut u32,
        agg: *mut f64,
        totals_count: *mut u32,
        totals_len: *mut u32,
        totals: *mut f64,
        alloc_head: *mut u32,
        alloc_len: *mut u32,
        alloc: *mut u64,
        drift_start: *mut u32,
        drift_len: *mut u32,
        drift: *mut f64,
    }

    // SAFETY: the view is a bag of raw pointers; all dereferences happen
    // through LaneView under the lane-disjointness contract above, which
    // makes cross-thread use race-free.
    unsafe impl Send for StoreView {}
    // SAFETY: as above — `&StoreView` only hands out lane-scoped access.
    unsafe impl Sync for StoreView {}

    impl StoreView {
        pub(super) fn new(store: &mut ShardStore) -> StoreView {
            StoreView {
                lanes: store.lanes(),
                window_cap: store.window_cap,
                tail_cap: store.totals.cap(),
                drift_cap: store.drift_cap,
                agg_start: store.agg.starts_mut().as_mut_ptr(),
                agg_len: store.agg.lens_mut().as_mut_ptr(),
                agg: store.agg_plane.data_mut().as_mut_ptr(),
                totals_count: store.totals.counts_mut().as_mut_ptr(),
                totals_len: store.totals.lens_mut().as_mut_ptr(),
                totals: store.totals.data_mut().as_mut_ptr(),
                alloc_head: store.alloc.heads_mut().as_mut_ptr(),
                alloc_len: store.alloc.lens_mut().as_mut_ptr(),
                alloc: store.alloc.data_mut().as_mut_ptr(),
                drift_start: store.drift.starts_mut().as_mut_ptr(),
                drift_len: store.drift.lens_mut().as_mut_ptr(),
                drift: store.drift_plane.data_mut().as_mut_ptr(),
            }
        }

        /// The [`ShardLane`] for one lane. The caller must uphold the
        /// lane-disjointness contract: at most one live `LaneView` per lane
        /// across all threads.
        pub fn lane(&self, lane: usize) -> LaneView {
            debug_assert!(lane < self.lanes, "lane {lane} out of {} lanes", self.lanes);
            LaneView { v: *self, lane }
        }

        /// Pass 1 of the pass-structured window: one aggregate-ring push
        /// per present lane of `[first_lane, first_lane + scratch.lanes())`,
        /// evicted aggregates recorded in the scratch. Per-lane semantics
        /// are exactly [`ShardLane::agg_push`]; the batched shape runs the
        /// cursor kernel over the range's contiguous cursor slices and then
        /// streams the cell exchange (in the lockstep steady state every
        /// present lane writes the same slot row, so consecutive lanes hit
        /// consecutive cells).
        ///
        /// The caller must own the lane range exclusively, exactly as with
        /// [`StoreView::lane`].
        pub fn pass_agg_push(&self, first_lane: usize, scratch: &mut PassScratch) {
            let n = scratch.lanes();
            debug_assert!(first_lane + n <= self.lanes, "pass range exceeds store lanes");
            let lanes = self.lanes;
            // SAFETY: lane-disjointness puts the range's cursor words and
            // every touched (slot, lane) cell under this caller's exclusive
            // ownership; evicted cells are read before being overwritten.
            unsafe {
                let starts = std::slice::from_raw_parts_mut(self.agg_start.add(first_lane), n);
                let lens = std::slice::from_raw_parts_mut(self.agg_len.add(first_lane), n);
                headroom_stats::plane::ring_push_slots(
                    self.window_cap as u32,
                    starts,
                    lens,
                    &scratch.present,
                    &mut scratch.slots,
                    &mut scratch.evicting,
                );
                for i in 0..n {
                    if !scratch.present[i] {
                        continue;
                    }
                    let lane = first_lane + i;
                    let cell =
                        self.agg.add((scratch.slots[i] as usize * lanes + lane) * AGG_FIELDS);
                    if scratch.evicting[i] {
                        scratch.evicted[i] = PoolWindowAggregate {
                            window: WindowIndex(0),
                            rps_per_server: *cell,
                            cpu_pct: *cell.add(1),
                            latency_p95_ms: *cell.add(2),
                            disk_queue: *cell.add(3),
                            memory_pages_per_sec: *cell.add(4),
                            network_mbps: *cell.add(5),
                            active_servers: *cell.add(6) as usize,
                        };
                    }
                    let a = &scratch.aggs[i];
                    *cell = a.rps_per_server;
                    *cell.add(1) = a.cpu_pct;
                    *cell.add(2) = a.latency_p95_ms;
                    *cell.add(3) = a.disk_queue;
                    *cell.add(4) = a.memory_pages_per_sec;
                    *cell.add(5) = a.network_mbps;
                    *cell.add(6) = a.active_servers as f64;
                }
            }
        }

        /// Pass 2: totals replace/insert across every present lane's tail —
        /// [`ShardLane::totals_replace`] when pass 1 evicted,
        /// [`ShardLane::totals_insert`] otherwise, per lane. One streaming
        /// walk over the lane-major totals plane; the lanes whose tails ran
        /// short are then refilled together from their aggregate rings,
        /// which pass 1 has already brought up to this window.
        pub fn pass_totals(&self, first_lane: usize, scratch: &mut PassScratch) {
            scratch.short.clear();
            for i in 0..scratch.lanes() {
                if !scratch.present[i] {
                    continue;
                }
                let lane = first_lane + i;
                let old = scratch.evicting[i].then(|| scratch.evicted[i].total_rps());
                // SAFETY: the caller owns the range's lanes exclusively.
                if unsafe { self.totals_update(lane, old, scratch.aggs[i].total_rps()) } {
                    scratch.short.push(lane);
                }
            }
            // SAFETY: as above.
            unsafe { self.refill_tails(&scratch.short) };
        }

        /// One lane's totals update for one window: evict `old` (when the
        /// ring push evicted) and insert `new`. Returns whether the tail is
        /// now too short to answer the peak, so it needs
        /// [`StoreView::refill_tails`].
        ///
        /// # Safety
        ///
        /// The caller must own `lane` exclusively — the view's
        /// lane-disjointness contract, as for [`StoreView::lane`].
        unsafe fn totals_update(&self, lane: usize, old: Option<f64>, new: f64) -> bool {
            use headroom_stats::plane::{tail_seg_evict, tail_seg_insert};
            // SAFETY: per the view contract, this lane's tail segment
            // [lane*tail_cap, (lane+1)*tail_cap) and its two cursors are
            // accessed by this caller only.
            unsafe {
                let seg = std::slice::from_raw_parts_mut(
                    self.totals.add(lane * self.tail_cap),
                    self.tail_cap,
                );
                let len = &mut *self.totals_len.add(lane);
                let count = &mut *self.totals_count.add(lane);
                if let Some(old) = old {
                    tail_seg_evict(seg, len, count, old);
                }
                tail_seg_insert(seg, len, count, new);
                (*len as usize) < top_values_needed(*count as usize, PEAK_PERCENTILE)
            }
        }

        /// Refills each of `lanes`' tails with the top of the finite totals
        /// its aggregate ring holds (the product `total_rps` takes), offered
        /// oldest first: a pure function of the lane's logical window, so a
        /// restored lane refills exactly as a live one. The rings must
        /// already hold this window's aggregates. The lanes are walked
        /// slot by slot together, so lanes whose rings are in step (every
        /// pool observed every window) read each ring row contiguously
        /// rather than one row — a different page at fleet scale — per
        /// slot per lane. Allocation-free.
        ///
        /// # Safety
        ///
        /// The caller must own every lane in `lanes` exclusively, as for
        /// [`StoreView::lane`].
        unsafe fn refill_tails(&self, lanes: &[usize]) {
            use headroom_stats::plane::tail_seg_offer;
            // SAFETY: per the view contract, these lanes' tail segments,
            // cursors, and ring cells (slot, lane) are accessed by this
            // caller only; every slot read is below the ring capacity.
            unsafe {
                let mut held_max = 0;
                for &lane in lanes {
                    *self.totals_len.add(lane) = 0;
                    held_max = held_max.max(*self.agg_len.add(lane) as usize);
                }
                for i in 0..held_max {
                    for &lane in lanes {
                        if i >= *self.agg_len.add(lane) as usize {
                            continue;
                        }
                        // start < cap and i < cap: one conditional
                        // subtraction wraps the slot, no division.
                        let mut slot = *self.agg_start.add(lane) as usize + i;
                        if slot >= self.window_cap {
                            slot -= self.window_cap;
                        }
                        let cell = self.agg.add((slot * self.lanes + lane) * AGG_FIELDS);
                        let total = *cell * *cell.add(6);
                        if total.is_finite() {
                            let seg = std::slice::from_raw_parts_mut(
                                self.totals.add(lane * self.tail_cap),
                                self.tail_cap,
                            );
                            tail_seg_offer(seg, &mut *self.totals_len.add(lane), total);
                        }
                    }
                }
            }
        }

        /// Pass 3: allocation deque evict (when pass 1 evicted) then push,
        /// per present lane — the same evict-before-push order the fused
        /// observe issues. One streaming walk over the deque plane.
        pub fn pass_alloc(&self, first_lane: usize, scratch: &PassScratch) {
            for i in 0..scratch.lanes() {
                if !scratch.present[i] {
                    continue;
                }
                let lane = first_lane + i;
                // SAFETY: lane-disjoint segment access, as
                // `LaneView::alloc_seg`.
                unsafe {
                    let seg = std::slice::from_raw_parts_mut(
                        self.alloc.add(lane * self.window_cap),
                        self.window_cap,
                    );
                    let head = &mut *self.alloc_head.add(lane);
                    let len = &mut *self.alloc_len.add(lane);
                    if scratch.evicting[i] {
                        headroom_stats::plane::deque_seg_evict(
                            seg,
                            head,
                            len,
                            scratch.evicted[i].active_servers as u64,
                        );
                    }
                    headroom_stats::plane::deque_seg_push(
                        seg,
                        head,
                        len,
                        scratch.aggs[i].active_servers as u64,
                    );
                }
            }
        }

        /// Pass 4: drift sub-window push per present lane, evicted pairs
        /// recorded in the scratch — [`ShardLane::drift_push`] batched the
        /// same way [`StoreView::pass_agg_push`] batches the aggregate
        /// ring.
        pub fn pass_drift_push(&self, first_lane: usize, scratch: &mut PassScratch) {
            let n = scratch.lanes();
            debug_assert!(first_lane + n <= self.lanes, "pass range exceeds store lanes");
            let lanes = self.lanes;
            // SAFETY: as pass_agg_push, over the drift cursors and plane.
            unsafe {
                let starts = std::slice::from_raw_parts_mut(self.drift_start.add(first_lane), n);
                let lens = std::slice::from_raw_parts_mut(self.drift_len.add(first_lane), n);
                headroom_stats::plane::ring_push_slots(
                    self.drift_cap as u32,
                    starts,
                    lens,
                    &scratch.present,
                    &mut scratch.drift_slots,
                    &mut scratch.drift_evicting,
                );
                for i in 0..n {
                    if !scratch.present[i] {
                        continue;
                    }
                    let lane = first_lane + i;
                    let cell = self
                        .drift
                        .add((scratch.drift_slots[i] as usize * lanes + lane) * DRIFT_FIELDS);
                    if scratch.drift_evicting[i] {
                        scratch.drift_evicted[i] = (*cell, *cell.add(1));
                    }
                    *cell = scratch.aggs[i].rps_per_server;
                    *cell.add(1) = scratch.aggs[i].cpu_pct;
                }
            }
        }
    }

    /// One lane of a [`StoreView`] — the production [`ShardLane`] backend.
    /// All plane kernels run through the same `headroom_stats::plane`
    /// segment functions the safe methods use.
    #[derive(Debug)]
    pub struct LaneView {
        v: StoreView,
        lane: usize,
    }

    impl LaneView {
        /// The lane's contiguous deque segment plus its cursors.
        ///
        /// SAFETY (callers): lane-disjointness makes this the only live
        /// reference to any of them.
        unsafe fn alloc_seg(&mut self) -> (&mut [u64], &mut u32, &mut u32) {
            // SAFETY: per the view contract the lane segment
            // [lane*cap, (lane+1)*cap) and the lane's cursors are accessed
            // by exactly this LaneView.
            unsafe {
                let seg = std::slice::from_raw_parts_mut(
                    self.v.alloc.add(self.lane * self.v.window_cap),
                    self.v.window_cap,
                );
                (seg, &mut *self.v.alloc_head.add(self.lane), &mut *self.v.alloc_len.add(self.lane))
            }
        }

        /// [`StoreView::totals_update`] on this lane, refilling its tail
        /// when it ran short — [`StoreView::pass_totals`] for one lane.
        fn update_totals(&mut self, old: Option<f64>, new: f64) {
            // SAFETY: lane-disjointness makes this LaneView the only
            // accessor of its lane's tail, cursors and ring cells.
            unsafe {
                if self.v.totals_update(self.lane, old, new) {
                    self.v.refill_tails(&[self.lane]);
                }
            }
        }
    }

    impl ShardLane for LaneView {
        fn agg_len(&self) -> usize {
            // SAFETY: lane-disjoint read of this lane's cursor.
            unsafe { *self.v.agg_len.add(self.lane) as usize }
        }

        fn agg_push(&mut self, agg: &PoolWindowAggregate) -> Option<PoolWindowAggregate> {
            let lanes = self.v.lanes;
            let cap = self.v.window_cap as u32;
            // SAFETY: all accesses are to this lane's cursor entries and to
            // plane elements (slot, lane) — disjoint across lanes. The
            // evicted slot equals the write slot when full, so the reads
            // happen before the writes.
            unsafe {
                let start = &mut *self.v.agg_start.add(self.lane);
                let len = &mut *self.v.agg_len.add(self.lane);
                let (slot, evicting) = if *len == cap {
                    (*start as usize, true)
                } else {
                    (((*start + *len) % cap) as usize, false)
                };
                let cell = self.v.agg.add((slot * lanes + self.lane) * AGG_FIELDS);
                let evicted = evicting.then(|| PoolWindowAggregate {
                    window: WindowIndex(0),
                    rps_per_server: *cell,
                    cpu_pct: *cell.add(1),
                    latency_p95_ms: *cell.add(2),
                    disk_queue: *cell.add(3),
                    memory_pages_per_sec: *cell.add(4),
                    network_mbps: *cell.add(5),
                    active_servers: *cell.add(6) as usize,
                });
                *cell = agg.rps_per_server;
                *cell.add(1) = agg.cpu_pct;
                *cell.add(2) = agg.latency_p95_ms;
                *cell.add(3) = agg.disk_queue;
                *cell.add(4) = agg.memory_pages_per_sec;
                *cell.add(5) = agg.network_mbps;
                *cell.add(6) = agg.active_servers as f64;
                if evicting {
                    *start = (*start + 1) % cap;
                } else {
                    *len += 1;
                }
                evicted
            }
        }

        fn totals_insert(&mut self, v: f64) {
            self.update_totals(None, v);
        }

        fn totals_replace(&mut self, old: f64, new: f64) {
            self.update_totals(Some(old), new);
        }

        fn totals_peak(&self) -> Option<f64> {
            // SAFETY: lane-disjoint shared read of this lane's tail.
            unsafe {
                let seg = std::slice::from_raw_parts(
                    self.v.totals.add(self.lane * self.v.tail_cap),
                    self.v.tail_cap,
                );
                headroom_stats::plane::tail_seg_percentile(
                    seg,
                    *self.v.totals_len.add(self.lane),
                    *self.v.totals_count.add(self.lane),
                    PEAK_PERCENTILE,
                )
            }
        }

        fn alloc_push(&mut self, servers: usize) {
            // SAFETY: lane-disjoint segment access.
            let (seg, head, len) = unsafe { self.alloc_seg() };
            headroom_stats::plane::deque_seg_push(seg, head, len, servers as u64);
        }

        fn alloc_evict(&mut self, servers: usize) {
            // SAFETY: lane-disjoint segment access.
            let (seg, head, len) = unsafe { self.alloc_seg() };
            headroom_stats::plane::deque_seg_evict(seg, head, len, servers as u64);
        }

        fn alloc_max(&self) -> Option<usize> {
            // SAFETY: lane-disjoint shared read of this lane's segment.
            unsafe {
                let head = *self.v.alloc_head.add(self.lane);
                let len = *self.v.alloc_len.add(self.lane);
                let seg = std::slice::from_raw_parts(
                    self.v.alloc.add(self.lane * self.v.window_cap),
                    self.v.window_cap,
                );
                headroom_stats::plane::deque_seg_max(seg, head, len).map(|v| v as usize)
            }
        }

        fn drift_push(&mut self, x: f64, y: f64) -> Option<(f64, f64)> {
            let lanes = self.v.lanes;
            let cap = self.v.drift_cap as u32;
            // SAFETY: as agg_push, over the drift cursors and planes.
            unsafe {
                let start = &mut *self.v.drift_start.add(self.lane);
                let len = &mut *self.v.drift_len.add(self.lane);
                let (slot, evicting) = if *len == cap {
                    (*start as usize, true)
                } else {
                    (((*start + *len) % cap) as usize, false)
                };
                let cell = self.v.drift.add((slot * lanes + self.lane) * DRIFT_FIELDS);
                let evicted = evicting.then(|| (*cell, *cell.add(1)));
                *cell = x;
                *cell.add(1) = y;
                if evicting {
                    *start = (*start + 1) % cap;
                } else {
                    *len += 1;
                }
                evicted
            }
        }

        fn clear(&mut self) {
            // SAFETY: lane-disjoint cursor writes; plane data beyond a
            // lane's length is never read, so cursors are all that clears.
            unsafe {
                *self.v.agg_start.add(self.lane) = 0;
                *self.v.agg_len.add(self.lane) = 0;
                *self.v.totals_count.add(self.lane) = 0;
                *self.v.totals_len.add(self.lane) = 0;
                *self.v.alloc_head.add(self.lane) = 0;
                *self.v.alloc_len.add(self.lane) = 0;
                *self.v.drift_start.add(self.lane) = 0;
                *self.v.drift_len.add(self.lane) = 0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use headroom_stats::persist::{Reader, Writer};
    use proptest::prelude::*;

    fn agg(w: u64, rps: f64, servers: usize) -> PoolWindowAggregate {
        PoolWindowAggregate {
            window: WindowIndex(w),
            rps_per_server: rps,
            cpu_pct: 0.028 * rps + 1.37,
            latency_p95_ms: 4.028e-5 * rps * rps - 0.031 * rps + 36.68,
            disk_queue: 1.0,
            memory_pages_per_sec: 4000.0,
            network_mbps: 0.32 * rps,
            active_servers: servers,
        }
    }

    /// Drives one lane of each backend through the exact op sequence
    /// `PoolShard::observe` issues and asserts every returned value agrees.
    fn drive_both(lane: &mut impl ShardLane, reference: &mut OwnedLane, windows: u64) {
        for w in 0..windows {
            let a = agg(w, 200.0 + (w % 37) as f64 * 9.0, 4 + (w % 3) as usize);
            let ev_a = lane.agg_push(&a);
            let ev_b = reference.agg_push(&a);
            // Compare everything but the window index, which the plane
            // backend does not store.
            assert_eq!(ev_a.map(|e| e.rps_per_server), ev_b.map(|e| e.rps_per_server));
            assert_eq!(ev_a.map(|e| e.active_servers), ev_b.map(|e| e.active_servers));
            if let (Some(ea), Some(eb)) = (ev_a, ev_b) {
                lane.totals_replace(ea.total_rps(), a.total_rps());
                reference.totals_replace(eb.total_rps(), a.total_rps());
                lane.alloc_evict(ea.active_servers);
                reference.alloc_evict(eb.active_servers);
            } else {
                lane.totals_insert(a.total_rps());
                reference.totals_insert(a.total_rps());
            }
            lane.alloc_push(a.active_servers);
            reference.alloc_push(a.active_servers);
            assert_eq!(
                lane.drift_push(a.rps_per_server, a.cpu_pct),
                reference.drift_push(a.rps_per_server, a.cpu_pct)
            );
            assert_eq!(lane.agg_len(), reference.agg_len());
            assert_eq!(lane.alloc_max(), reference.alloc_max());
            assert_eq!(
                lane.totals_peak().map(f64::to_bits),
                reference.totals_peak().map(f64::to_bits)
            );
        }
    }

    #[test]
    fn lane_view_matches_owned_lane() {
        let mut store = ShardStore::with_lanes(12, 5, 3);
        let view = store.view();
        for l in 0..3 {
            let mut lane = view.lane(l);
            let mut reference = OwnedLane::new(12, 5);
            drive_both(&mut lane, &mut reference, 40 + l as u64 * 7);
        }
    }

    #[test]
    fn clear_resets_one_lane_only() {
        let mut store = ShardStore::with_lanes(8, 4, 2);
        let view = store.view();
        for l in 0..2 {
            let mut lane = view.lane(l);
            let mut reference = OwnedLane::new(8, 4);
            drive_both(&mut lane, &mut reference, 20);
        }
        view.lane(0).clear();
        assert_eq!(view.lane(0).agg_len(), 0);
        assert_eq!(view.lane(0).alloc_max(), None);
        assert_eq!(view.lane(0).totals_peak(), None);
        assert_eq!(view.lane(1).agg_len(), 8, "clearing lane 0 leaves lane 1");
        // A cleared lane accepts a fresh stream identically to a fresh one.
        let mut reference = OwnedLane::new(8, 4);
        drive_both(&mut view.lane(0), &mut reference, 25);
    }

    #[test]
    fn pass_kernels_match_per_lane_ops() {
        // The plane-at-a-time passes against the per-lane ShardLane calls
        // (issued in the fused observe order), over lanes that skip windows
        // on their own cadence so fill levels and evictions diverge. The
        // window (40) is longer than the totals tail (12), and lane 4's
        // totals fall every window, so tails run short and refill.
        let lanes = 5;
        let cap = 40;
        assert!(tail_capacity(cap) < cap);
        let mut by_passes = ShardStore::with_lanes(cap, 3, lanes);
        let mut by_lane = ShardStore::with_lanes(cap, 3, lanes);
        let mut scratch = PassScratch::default();
        for w in 0..160u64 {
            let pv = by_passes.view();
            let lv = by_lane.view();
            scratch.reset(lanes);
            for l in 0..lanes {
                if !(w as usize + l).is_multiple_of(l + 1) {
                    continue; // lanes observe on their own cadence
                }
                let rps = if l == 4 {
                    5000.0 - w as f64 * 3.0
                } else {
                    180.0 + (w % 23) as f64 * 7.0 + l as f64
                };
                scratch.set_input(l, agg(w, rps, 3 + l % 4));
            }
            pv.pass_agg_push(0, &mut scratch);
            pv.pass_totals(0, &mut scratch);
            pv.pass_alloc(0, &scratch);
            pv.pass_drift_push(0, &mut scratch);
            for l in 0..lanes {
                let Some(&a) = scratch.input(l) else { continue };
                let mut lane = lv.lane(l);
                let evicted = lane.agg_push(&a);
                if let Some(e) = &evicted {
                    lane.totals_replace(e.total_rps(), a.total_rps());
                    lane.alloc_evict(e.active_servers);
                } else {
                    lane.totals_insert(a.total_rps());
                }
                lane.alloc_push(a.active_servers);
                let pair = lane.drift_push(a.rps_per_server, a.cpu_pct);
                assert_eq!(
                    scratch.evicted(l).map(|e| (e.rps_per_server, e.active_servers)),
                    evicted.as_ref().map(|e| (e.rps_per_server, e.active_servers)),
                    "lane {l} window {w}: evicted aggregate diverged"
                );
                assert_eq!(
                    scratch.drift_evicted(l),
                    pair,
                    "lane {l} window {w}: evicted drift pair diverged"
                );
                assert_eq!(
                    pv.lane(l).totals_peak().map(f64::to_bits),
                    lv.lane(l).totals_peak().map(f64::to_bits),
                    "lane {l} window {w}: peak diverged"
                );
            }
            // A mid-run clear (the drift-reset path) must leave both sides
            // identical too.
            if w == 85 {
                by_passes.view().lane(2).clear();
                by_lane.view().lane(2).clear();
            }
        }
        for l in 0..lanes {
            let (mut wa, mut wb) = (Writer::new(), Writer::new());
            by_passes.persist_lane(l, &mut wa);
            by_lane.persist_lane(l, &mut wb);
            assert_eq!(wa.into_bytes(), wb.into_bytes(), "lane {l} state diverged");
        }
    }

    #[test]
    fn persist_lane_roundtrips_and_normalizes() {
        // Drive a lane far enough to rotate both rings, so the physical
        // start is nonzero; the persisted form must normalize it away.
        let mut store = ShardStore::with_lanes(6, 3, 2);
        {
            let view = store.view();
            let mut lane = view.lane(1);
            let mut reference = OwnedLane::new(6, 3);
            drive_both(&mut lane, &mut reference, 23);
        }
        let mut w = Writer::new();
        store.persist_lane(1, &mut w);
        let bytes = w.into_bytes();

        let mut restored = ShardStore::with_lanes(6, 3, 2);
        let mut r = Reader::new(&bytes);
        restored.restore_lane(1, &mut r).expect("clean lane restores");
        assert!(r.is_empty());

        // The restored lane re-serializes to the same bytes (normalized
        // physical layout) and behaves identically under further pushes.
        let mut w2 = Writer::new();
        restored.persist_lane(1, &mut w2);
        assert_eq!(bytes, w2.into_bytes(), "persisted form is canonical");
        let (va, vb) = (store.view(), restored.view());
        let (mut a, mut b) = (va.lane(1), vb.lane(1));
        for w in 0..9u64 {
            let x = agg(w, 311.0 + w as f64, 5);
            let (ea, eb) = (a.agg_push(&x), b.agg_push(&x));
            assert_eq!(ea.map(|e| e.rps_per_server), eb.map(|e| e.rps_per_server));
            assert_eq!(a.drift_push(1.0 + w as f64, 2.0), b.drift_push(1.0 + w as f64, 2.0));
        }
        assert_eq!(a.alloc_max(), b.alloc_max());
    }

    #[test]
    fn restore_lane_rejects_corrupt_payloads() {
        let mut store = ShardStore::with_lanes(4, 2, 1);
        let corrupt = |bytes: &[u8]| {
            let mut fresh = ShardStore::with_lanes(4, 2, 1);
            let mut r = Reader::new(bytes);
            fresh.restore_lane(0, &mut r).unwrap_err()
        };
        // Over-capacity aggregate ring.
        let mut w = Writer::new();
        w.put_u32(5);
        corrupt(&w.into_bytes());
        // Totals tails: a ring of `ring` aggregates, then the window count
        // and the tail, then empty deque and drift sub-window. The window
        // capacity 4 keeps a tail of up to 12 values; p99 of 4 reads 2.
        assert_eq!(tail_capacity(4), 12);
        let lane_bytes = |ring: u32, count: u32, tail: &[f64]| {
            let mut w = Writer::new();
            w.put_u32(ring);
            for i in 0..ring * AGG_FIELDS as u32 {
                w.put_f64(f64::from(i));
            }
            w.put_u32(count);
            w.put_u32(tail.len() as u32);
            for &v in tail {
                w.put_f64(v);
            }
            w.put_u32(0);
            w.put_u32(0);
            w.into_bytes()
        };
        let invalid = PersistError::Invalid;
        for (ring, count, tail, why) in [
            (4, 4, &[1.0; 13][..], "totals tail exceeds capacity"),
            (4, 2, &[1.0, 2.0, 3.0][..], "totals tail longer than its window"),
            (2, 3, &[1.0, 2.0, 3.0][..], "totals window disagrees with the aggregate ring"),
            (4, 3, &[1.0, 2.0][..], "totals window disagrees with the aggregate ring"),
            (4, 4, &[5.0][..], "totals tail too short for the peak"),
            (4, 4, &[1.0, f64::NAN][..], "totals tail values not finite ascending"),
            (4, 4, &[1.0, f64::INFINITY][..], "totals tail values not finite ascending"),
            (4, 4, &[2.0, 1.0][..], "totals tail values not finite ascending"),
        ] {
            assert_eq!(corrupt(&lane_bytes(ring, count, tail)), invalid(why), "{why}");
        }
        let mut fresh = ShardStore::with_lanes(4, 2, 1);
        let clean = lane_bytes(4, 4, &[1.0, 2.0]);
        fresh.restore_lane(0, &mut Reader::new(&clean)).expect("a short clean tail restores");
        // Increasing alloc deque violates the monotonic invariant.
        let mut w = Writer::new();
        w.put_u32(0);
        w.put_u32(0);
        w.put_u32(0);
        w.put_u32(2);
        w.put_u64(1);
        w.put_u64(9);
        corrupt(&w.into_bytes());
        // Over-capacity drift sub-window.
        let mut w = Writer::new();
        w.put_u32(0);
        w.put_u32(0);
        w.put_u32(0);
        w.put_u32(0);
        w.put_u32(3);
        corrupt(&w.into_bytes());
        // And a clean empty lane restores fine.
        let mut w = Writer::new();
        for _ in 0..5 {
            w.put_u32(0);
        }
        let clean = w.into_bytes();
        let mut r = Reader::new(&clean);
        store.restore_lane(0, &mut r).expect("empty lane restores");
    }

    #[test]
    fn remap_carries_lane_state() {
        let mut store = ShardStore::with_lanes(6, 3, 2);
        {
            let view = store.view();
            for l in 0..2 {
                let mut lane = view.lane(l);
                let mut reference = OwnedLane::new(6, 3);
                drive_both(&mut lane, &mut reference, 15 + l as u64);
            }
        }
        let before: Vec<Vec<u8>> = (0..2)
            .map(|lane| {
                let mut w = Writer::new();
                store.persist_lane(lane, &mut w);
                w.into_bytes()
            })
            .collect();

        // Two pools arrive, interleaving: old lanes 0, 1 → new lanes 1, 2.
        store.remap(&[1, 2], 4);
        assert_eq!(store.lanes(), 4);
        for (old, new) in [(0usize, 1usize), (1, 2)] {
            let mut after = Writer::new();
            store.persist_lane(new, &mut after);
            assert_eq!(
                before[old],
                after.into_bytes(),
                "lane {old} state survives remap to lane {new}"
            );
        }
        for fresh in [0usize, 3] {
            assert_eq!(store.view().lane(fresh).agg_len(), 0);
        }
    }

    /// Drives one lane the way `PoolShard::observe` does — ring push, then
    /// totals replace (or insert while the ring fills) — with one total per
    /// window (`rps` on one server).
    fn push_total(lane: &mut impl ShardLane, w: u64, rps: f64, servers: usize) {
        let a = agg(w, rps, servers);
        match lane.agg_push(&a) {
            Some(e) => lane.totals_replace(e.total_rps(), a.total_rps()),
            None => lane.totals_insert(a.total_rps()),
        }
    }

    #[test]
    fn depleted_tail_roundtrips_and_keeps_refilling() {
        // A falling stream past capacity drains the tail: every arrival is
        // the window's minimum and every eviction its maximum.
        let cap = 64;
        let mut store = ShardStore::with_lanes(cap, 3, 1);
        for w in 0..100u64 {
            push_total(&mut store.view().lane(0), w, 1e5 - w as f64, 1);
        }
        let tail_len = store.totals.as_slice(0).len();
        assert!(tail_len < tail_capacity(cap), "tail depleted ({tail_len} values)");
        assert_eq!(store.totals.count(0), cap);

        let mut w = Writer::new();
        store.persist_lane(0, &mut w);
        let bytes = w.into_bytes();
        let mut restored = ShardStore::with_lanes(cap, 3, 1);
        let mut r = Reader::new(&bytes);
        restored.restore_lane(0, &mut r).expect("depleted tail restores");
        assert!(r.is_empty());
        let mut w2 = Writer::new();
        restored.persist_lane(0, &mut w2);
        assert_eq!(bytes, w2.into_bytes(), "byte-identical round trip");
        assert_eq!(restored.totals.as_slice(0).len(), tail_len, "no refill on load");

        // Both keep falling in lockstep through several refills.
        for w in 100..200u64 {
            push_total(&mut store.view().lane(0), w, 1e5 - w as f64, 1);
            push_total(&mut restored.view().lane(0), w, 1e5 - w as f64, 1);
            assert_eq!(
                store.view().lane(0).totals_peak().map(f64::to_bits),
                restored.view().lane(0).totals_peak().map(f64::to_bits)
            );
        }
        let (mut a, mut b) = (Writer::new(), Writer::new());
        store.persist_lane(0, &mut a);
        restored.persist_lane(0, &mut b);
        assert_eq!(a.into_bytes(), b.into_bytes());
    }

    #[test]
    fn signed_zero_peaks_agree_in_value() {
        // The documented caveat: +0.0 and -0.0 compare equal, so which
        // one a sorted window reports depends on its insert history. The
        // tail agrees in value (and in every other bit pattern).
        let cap = 200;
        let mut store = ShardStore::with_lanes(cap, 3, 1);
        let mut reference = OwnedLane::new(cap, 3);
        for w in 0..500u64 {
            let rps = if w % 3 == 0 { -1.0 } else { 1.0 };
            let servers = usize::from(w % 7 != 0);
            push_total(&mut store.view().lane(0), w, rps, servers);
            push_total(&mut reference, w, rps, servers);
            assert_eq!(store.view().lane(0).totals_peak(), reference.totals_peak(), "window {w}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        /// The tail against the sorted window it replaced, bit for bit at
        /// the peak percentile, through the exact per-window op sequence:
        /// window capacities from 1 (tail longer than the window) to 2000
        /// (tail ~2% of it), tie-heavy, continuous, strictly falling and
        /// sawtooth totals, NaN and ±∞ totals, and a mid-stream clear.
        fn tail_peak_matches_sorted_window(
            small_cap in 1usize..=24,
            large_cap in 1usize..2000,
            pick_small in 0u32..3,
            mode in 0u32..4,
            seed in 0u64..1_000_000,
            clear_frac in 0.0f64..1.5,
        ) {
            let cap = if pick_small == 0 { small_cap } else { large_cap };
            let windows = 2 * cap as u64 + 100;
            let clear_at = (clear_frac * windows as f64) as u64;
            let mut store = ShardStore::with_lanes(cap, 3, 1);
            let mut reference = OwnedLane::new(cap, 3);
            let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut draw = move |m: u64| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x % m
            };
            for w in 0..windows {
                let (rps, servers) = match mode {
                    0 => match draw(30) {
                        0 => (f64::NAN, 2),
                        1 => (f64::INFINITY, 1),
                        2 => (f64::NEG_INFINITY, 3),
                        _ => (draw(4) as f64 * 50.0, draw(3) as usize),
                    },
                    1 => (draw(1 << 20) as f64 / 1024.0, 1 + draw(8) as usize),
                    2 => (1e7 - w as f64, 1),
                    _ => ((w % 300).abs_diff(150) as f64 + draw(3) as f64, 2),
                };
                if w == clear_at {
                    store.view().lane(0).clear();
                    reference.clear();
                }
                push_total(&mut store.view().lane(0), w, rps, servers);
                push_total(&mut reference, w, rps, servers);
                let (got, want) = (store.view().lane(0).totals_peak(), reference.totals_peak());
                prop_assert_eq!(
                    got.map(f64::to_bits),
                    want.map(f64::to_bits),
                    "cap {} window {}: {:?} vs {:?}", cap, w, got, want
                );
            }
        }
    }
}
