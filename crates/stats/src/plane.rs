//! Engine-owned state planes: many sliding windows, one allocation.
//!
//! The streaming planner keeps four small side buffers *per pool* —
//! aggregate ring, top-K totals tail, drift sub-window, allocation
//! max-deque. Owned individually (a `VecDeque`/`Vec` per pool) each is a
//! separate heap object, so a fleet sweep pays a dependent cache/TLB miss
//! per pool per buffer per window: at 16k pools the planner spent ~2× the
//! 512-pool per-pool cost purely on pointer-chasing its own state.
//!
//! A *plane* is the struct-of-arrays counterpart: one flat allocation
//! holding every pool's buffer, indexed by `lane` (the pool's position in
//! the engine's sorted shard list). Two layouts are used:
//!
//! - **slot-major** ([`RingPlane`] + [`RingCursors`]): element `(slot,
//!   lane)` lives at `slot * lanes + lane`, so in the lockstep steady state
//!   (every pool pushes into the same ring slot each window) consecutive
//!   lanes hit consecutive addresses — the sweep *streams* the plane;
//! - **lane-major** ([`TailPlane`], [`DequePlane`]): each lane owns the
//!   contiguous segment `[lane * cap, (lane + 1) * cap)`, the right shape
//!   for structures whose per-window work is a short `memmove` within one
//!   lane (top-K tail insert/evict) or a head/tail walk (monotonic deque).
//!
//! The per-lane operations are exposed as free `*_seg_*` functions over
//! raw `(segment, cursor)` pairs (the deque's also as methods), so a caller that
//! partitions lanes across threads can drive disjoint lanes through the
//! exact same code path the single-threaded methods use — semantics (and
//! results) are bit-identical by construction to the per-pool structures
//! they replace ([`crate::monotonic::MonotonicMaxDeque`], a FIFO ring, and
//! — for the percentiles its tail can answer —
//! [`crate::sorted_window::SortedWindow`]), which the unit tests pin
//! differentially.
//!
//! Lane count changes only when pools arrive: [`RingPlane::remap`] and
//! friends rebuild the planes under an old-lane → new-lane mapping (a
//! growth-window allocation; steady-state windows never reallocate).

use crate::percentile::{percentile_of_sorted_top, top_values_needed};

/// Shared ring-buffer geometry for a family of [`RingPlane`]s: per-lane
/// `start`/`len` cursors over a common capacity.
///
/// Several planes that advance in lockstep (e.g. the seven aggregate
/// counter planes) share one `RingCursors`, so the cursor arithmetic is
/// paid once per push, not once per plane.
///
/// Push protocol (see [`push_slot`]): when the lane is full, the evicted
/// entry occupies exactly the slot the new entry will overwrite — the
/// caller must *read* the evicted values before *writing* the new ones,
/// then [`advance`].
///
/// [`push_slot`]: RingCursors::push_slot
/// [`advance`]: RingCursors::advance
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RingCursors {
    cap: u32,
    start: Vec<u32>,
    len: Vec<u32>,
}

impl RingCursors {
    /// Cursors for `lanes` empty rings of `cap` slots each.
    pub fn new(cap: usize, lanes: usize) -> Self {
        let cap = u32::try_from(cap.max(1)).expect("ring capacity fits u32");
        RingCursors { cap, start: vec![0; lanes], len: vec![0; lanes] }
    }

    /// Slots per lane.
    pub fn cap(&self) -> usize {
        self.cap as usize
    }

    /// Lanes tracked.
    pub fn lanes(&self) -> usize {
        self.len.len()
    }

    /// Entries currently held in `lane`.
    pub fn len(&self, lane: usize) -> usize {
        self.len[lane] as usize
    }

    /// True when `lane` holds nothing.
    pub fn is_empty(&self, lane: usize) -> bool {
        self.len[lane] == 0
    }

    /// The physical slot the next push into `lane` writes, and whether that
    /// write evicts (the lane is full and the slot still holds the oldest
    /// entry). Read evicted values from the slot *before* overwriting, then
    /// call [`advance`].
    ///
    /// [`advance`]: RingCursors::advance
    pub fn push_slot(&self, lane: usize) -> (usize, bool) {
        let (start, len) = (self.start[lane], self.len[lane]);
        if len == self.cap {
            (start as usize, true)
        } else {
            (((start + len) % self.cap) as usize, false)
        }
    }

    /// Commits the push [`push_slot`] prepared.
    ///
    /// [`push_slot`]: RingCursors::push_slot
    pub fn advance(&mut self, lane: usize) {
        if self.len[lane] == self.cap {
            self.start[lane] = (self.start[lane] + 1) % self.cap;
        } else {
            self.len[lane] += 1;
        }
    }

    /// The physical slot of the `i`-th oldest entry in `lane`.
    pub fn slot_of(&self, lane: usize, i: usize) -> usize {
        debug_assert!(i < self.len(lane));
        (self.start[lane] as usize + i) % self.cap as usize
    }

    /// Empties `lane`.
    pub fn clear_lane(&mut self, lane: usize) {
        self.start[lane] = 0;
        self.len[lane] = 0;
    }

    /// Marks `lane` as holding `len` entries starting at physical slot 0 —
    /// the restore hook: the caller has just written `len` entries into
    /// slots `0..len` of every plane sharing these cursors. Returns false
    /// (and leaves the lane empty) when `len` exceeds the capacity.
    pub fn restore_lane(&mut self, lane: usize, len: usize) -> bool {
        self.clear_lane(lane);
        if len > self.cap as usize {
            return false;
        }
        self.len[lane] = len as u32;
        true
    }

    /// Rebuilds the cursors under an old-lane → new-lane `mapping`; lanes
    /// of the new geometry that nothing maps to start empty.
    pub fn remap(&self, mapping: &[usize], new_lanes: usize) -> RingCursors {
        let mut out = RingCursors::new(self.cap as usize, new_lanes);
        for (old, &new) in mapping.iter().enumerate() {
            out.start[new] = self.start[old];
            out.len[new] = self.len[old];
        }
        out
    }

    /// Per-lane start slots (raw view hook).
    pub fn starts_mut(&mut self) -> &mut [u32] {
        &mut self.start
    }

    /// Per-lane lengths (raw view hook).
    pub fn lens_mut(&mut self) -> &mut [u32] {
        &mut self.len
    }
}

/// One slot-major `f64` plane: element `(slot, lane)` at `slot * lanes +
/// lane`. Cursor state lives in a (possibly shared) [`RingCursors`].
#[derive(Debug, Clone, PartialEq)]
pub struct RingPlane {
    /// Slots per lane — held explicitly (not derived from `data.len() /
    /// lanes`), so a plane created with zero lanes still remaps to its
    /// intended geometry when the first pools arrive.
    cap: usize,
    lanes: usize,
    data: Vec<f64>,
}

impl RingPlane {
    /// A zeroed plane of `cap` slots × `lanes` lanes.
    pub fn new(cap: usize, lanes: usize) -> Self {
        let cap = cap.max(1);
        RingPlane { cap, lanes, data: vec![0.0; cap * lanes] }
    }

    /// Lanes per slot.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Reads element `(slot, lane)`.
    pub fn get(&self, slot: usize, lane: usize) -> f64 {
        self.data[slot * self.lanes + lane]
    }

    /// Writes element `(slot, lane)`.
    pub fn set(&mut self, slot: usize, lane: usize, v: f64) {
        self.data[slot * self.lanes + lane] = v;
    }

    /// Rebuilds the plane under an old-lane → new-lane `mapping` (all slots
    /// copied; stale slots beyond a lane's length are never read).
    pub fn remap(&self, mapping: &[usize], new_lanes: usize) -> RingPlane {
        let cap = self.cap;
        let mut out = RingPlane::new(cap, new_lanes);
        for slot in 0..cap {
            let (old_row, new_row) = (slot * self.lanes, slot * new_lanes);
            for (old, &new) in mapping.iter().enumerate() {
                out.data[new_row + new] = self.data[old_row + old];
            }
        }
        out
    }

    /// The backing storage (raw view hook).
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }
}

/// Prepares and commits one ring push for every flagged lane of a
/// contiguous cursor range — the batched counterpart of
/// [`RingCursors::push_slot`] + [`RingCursors::advance`], for
/// plane-at-a-time pass kernels that update a whole lane range per window
/// instead of interleaving cursor math with other structures pool by pool.
///
/// All slices cover the same lane range (`starts[i]`/`lens[i]` are lane
/// `i`'s cursors). For each lane with `present[i]`, writes the physical
/// slot the push lands in to `slots[i]`, whether that slot still holds the
/// evicted oldest entry to `evicting[i]`, and advances the cursors. The
/// caller must read evicted cell values from `slots[i]` *before*
/// overwriting them — same protocol as `push_slot`, which this matches
/// bit-for-bit per lane. Lanes without `present[i]` are untouched (their
/// `slots`/`evicting` entries are left stale; callers gate on `present`).
pub fn ring_push_slots(
    cap: u32,
    starts: &mut [u32],
    lens: &mut [u32],
    present: &[bool],
    slots: &mut [u32],
    evicting: &mut [bool],
) {
    debug_assert!(
        starts.len() == present.len()
            && lens.len() == present.len()
            && slots.len() == present.len()
            && evicting.len() == present.len()
    );
    for i in 0..present.len() {
        if !present[i] {
            continue;
        }
        let (start, len) = (starts[i], lens[i]);
        if len == cap {
            slots[i] = start;
            evicting[i] = true;
            starts[i] = (start + 1) % cap;
        } else {
            slots[i] = (start + len) % cap;
            evicting[i] = false;
            lens[i] = len + 1;
        }
    }
}

/// Offers `v` to the ascending top-`K` segment `seg[..*len]` (`K =
/// seg.len()`): inserted while there is room, otherwise swapped in for the
/// minimum only if strictly larger. Equal values are placed before their
/// equals, as [`crate::sorted_window::SortedWindow::insert`] places them.
/// The building block of [`tail_seg_insert`] and of a tail rebuild.
pub fn tail_seg_offer(seg: &mut [f64], len: &mut u32, v: f64) {
    let m = *len as usize;
    if m < seg.len() {
        let at = seg[..m].partition_point(|&x| x < v);
        seg.copy_within(at..m, at + 1);
        seg[at] = v;
        *len = (m + 1) as u32;
    } else if v > seg[0] {
        let at = seg.partition_point(|&x| x < v);
        seg.copy_within(1..at, 0);
        seg[at - 1] = v;
    }
}

/// Adds one value to a window tracked by its *top-`K` tail*: `*count` is
/// the number of finite values in the window and `seg[..*len]` holds, in
/// ascending order, exactly its `*len` largest. Non-finite values are
/// ignored, as [`crate::sorted_window::SortedWindow::insert`] ignores them.
///
/// `v` joins the tail when the tail was the whole window or when `v` is at
/// least the tail's minimum (a full tail swaps it in for the minimum only
/// when strictly larger) — either way the tail stays the exact top of the
/// window. It never shrinks here; see [`tail_seg_evict`].
pub fn tail_seg_insert(seg: &mut [f64], len: &mut u32, count: &mut u32, v: f64) {
    if !v.is_finite() {
        return;
    }
    let (n, m) = (*count, *len);
    *count = n + 1;
    if m == n || (m > 0 && v >= seg[0]) {
        tail_seg_offer(seg, len, v);
    }
}

/// Removes one value that is leaving the window: a value at least the
/// tail's minimum is one of the held top values, so one copy of it leaves
/// the tail; anything smaller was never held. The tail therefore shrinks
/// by one each time a top value leaves, and the owner refills it (from the
/// window itself) once it is too short to answer its percentile.
pub fn tail_seg_evict(seg: &mut [f64], len: &mut u32, count: &mut u32, v: f64) {
    if !v.is_finite() || *count == 0 {
        return;
    }
    *count -= 1;
    let m = *len as usize;
    if m > 0 && v >= seg[0] {
        let at = seg[..m].partition_point(|&x| x < v);
        if at < m && seg[at] == v {
            seg.copy_within(at + 1..m, at);
            *len = (m - 1) as u32;
        }
    }
}

/// The `p`-th percentile of a `count`-value window from its tail
/// `seg[..len]` — [`percentile_of_sorted_top`], so bit-identical to the
/// sorted window's R-7 answer. `None` on an empty window, `p` outside
/// `0..=100`, or a tail shorter than [`top_values_needed`]`(count, p)` or
/// longer than the window.
pub fn tail_seg_percentile(seg: &[f64], len: u32, count: u32, p: f64) -> Option<f64> {
    let (n, m) = (count as usize, len as usize);
    if n == 0 || m > n || !(0.0..=100.0).contains(&p) || m < top_values_needed(n, p) {
        return None;
    }
    Some(percentile_of_sorted_top(&seg[..m], n, p))
}

/// Lane-major top-`K` tails: lane `l` owns the ascending prefix
/// `data[l * cap ..][..len[l]]` of a `cap`-slot segment, holding the
/// largest `len[l]` of the `count[l]` finite values in its window (see
/// [`tail_seg_insert`]).
#[derive(Debug, Clone, PartialEq)]
pub struct TailPlane {
    cap: usize,
    count: Vec<u32>,
    len: Vec<u32>,
    data: Vec<f64>,
}

impl TailPlane {
    /// `lanes` empty tails of at most `cap` values each.
    pub fn new(cap: usize, lanes: usize) -> Self {
        let cap = cap.max(1);
        TailPlane { cap, count: vec![0; lanes], len: vec![0; lanes], data: vec![0.0; cap * lanes] }
    }

    /// Tail slots per lane (`K`).
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Finite values in `lane`'s window.
    pub fn count(&self, lane: usize) -> usize {
        self.count[lane] as usize
    }

    /// The held top values of `lane`, ascending.
    pub fn as_slice(&self, lane: usize) -> &[f64] {
        &self.data[lane * self.cap..][..self.len[lane] as usize]
    }

    /// Restores `lane` to a window of `count` finite values whose top is
    /// exactly `values` (must be finite, ascending, no longer than the
    /// capacity or than `count` — returns false and leaves the lane empty
    /// otherwise).
    pub fn restore_lane(&mut self, lane: usize, count: usize, values: &[f64]) -> bool {
        use std::cmp::Ordering::{Equal, Less};
        self.count[lane] = 0;
        self.len[lane] = 0;
        if values.len() > self.cap
            || values.len() > count
            || u32::try_from(count).is_err()
            || values.iter().any(|v| !v.is_finite())
            || !values.windows(2).all(|p| matches!(p[0].partial_cmp(&p[1]), Some(Less | Equal)))
        {
            return false;
        }
        self.data[lane * self.cap..][..values.len()].copy_from_slice(values);
        self.count[lane] = count as u32;
        self.len[lane] = values.len() as u32;
        true
    }

    /// Rebuilds the plane under an old-lane → new-lane `mapping`.
    pub fn remap(&self, mapping: &[usize], new_lanes: usize) -> TailPlane {
        let mut out = TailPlane::new(self.cap, new_lanes);
        for (old, &new) in mapping.iter().enumerate() {
            out.count[new] = self.count[old];
            out.len[new] = self.len[old];
            out.data[new * self.cap..][..self.cap]
                .copy_from_slice(&self.data[old * self.cap..][..self.cap]);
        }
        out
    }

    /// The backing storage (raw view hook).
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Per-lane window counts (raw view hook).
    pub fn counts_mut(&mut self) -> &mut [u32] {
        &mut self.count
    }

    /// Per-lane tail lengths (raw view hook).
    pub fn lens_mut(&mut self) -> &mut [u32] {
        &mut self.len
    }
}

/// Feeds the value entering a lane's FIFO window into its monotonic
/// max-deque ring segment (`seg.len()` is the ring capacity) — exactly
/// [`crate::monotonic::MonotonicMaxDeque::push`]: strictly smaller tail
/// entries are discarded, equals kept.
pub fn deque_seg_push(seg: &mut [u64], head: &mut u32, len: &mut u32, v: u64) {
    let cap = seg.len() as u32;
    while *len > 0 && seg[((*head + *len - 1) % cap) as usize] < v {
        *len -= 1;
    }
    debug_assert!(*len < cap, "deque lane overflow: window outgrew its plane");
    if *len < cap {
        seg[((*head + *len) % cap) as usize] = v;
        *len += 1;
    }
}

/// Feeds the value leaving a lane's FIFO window — exactly
/// [`crate::monotonic::MonotonicMaxDeque::evict`]: pops the front iff it
/// equals `v`.
pub fn deque_seg_evict(seg: &mut [u64], head: &mut u32, len: &mut u32, v: u64) {
    let cap = seg.len() as u32;
    if *len > 0 && seg[*head as usize] == v {
        *head = (*head + 1) % cap;
        *len -= 1;
    }
}

/// The window maximum of a deque lane — its front entry.
pub fn deque_seg_max(seg: &[u64], head: u32, len: u32) -> Option<u64> {
    (len > 0).then(|| seg[head as usize])
}

/// Lane-major monotonic max-deques over `u64` values: lane `l` owns the
/// ring segment `data[l * cap .. (l + 1) * cap]` with its own `head`/`len`.
/// Per-lane semantics are exactly
/// [`crate::monotonic::MonotonicMaxDeque`] driven by a FIFO window of at
/// most `cap` values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DequePlane {
    cap: usize,
    head: Vec<u32>,
    len: Vec<u32>,
    data: Vec<u64>,
}

impl DequePlane {
    /// `lanes` empty deques tracking windows of at most `cap` values.
    pub fn new(cap: usize, lanes: usize) -> Self {
        let cap = cap.max(1);
        DequePlane { cap, head: vec![0; lanes], len: vec![0; lanes], data: vec![0; cap * lanes] }
    }

    /// Values retained in `lane` (≤ the window length, often far fewer).
    pub fn len(&self, lane: usize) -> usize {
        self.len[lane] as usize
    }

    /// The `i`-th retained value of `lane`, front (maximum) first.
    pub fn get(&self, lane: usize, i: usize) -> u64 {
        debug_assert!(i < self.len(lane));
        self.data[lane * self.cap + (self.head[lane] as usize + i) % self.cap]
    }

    /// Feeds the value entering `lane`'s window ([`deque_seg_push`]).
    pub fn push(&mut self, lane: usize, v: u64) {
        let seg = &mut self.data[lane * self.cap..][..self.cap];
        deque_seg_push(seg, &mut self.head[lane], &mut self.len[lane], v);
    }

    /// Feeds the value leaving `lane`'s window ([`deque_seg_evict`]).
    pub fn evict(&mut self, lane: usize, v: u64) {
        let seg = &mut self.data[lane * self.cap..][..self.cap];
        deque_seg_evict(seg, &mut self.head[lane], &mut self.len[lane], v);
    }

    /// The maximum of `lane`'s window ([`deque_seg_max`]).
    pub fn max(&self, lane: usize) -> Option<u64> {
        deque_seg_max(&self.data[lane * self.cap..][..self.cap], self.head[lane], self.len[lane])
    }

    /// Empties `lane`.
    pub fn clear_lane(&mut self, lane: usize) {
        self.head[lane] = 0;
        self.len[lane] = 0;
    }

    /// Restores `lane` to exactly `values`, front first (must be
    /// non-increasing — the monotonic invariant — and within capacity;
    /// returns false and leaves the lane empty otherwise).
    pub fn restore_lane(&mut self, lane: usize, values: &[u64]) -> bool {
        self.clear_lane(lane);
        if values.len() > self.cap || values.windows(2).any(|p| p[1] > p[0]) {
            return false;
        }
        self.data[lane * self.cap..][..values.len()].copy_from_slice(values);
        self.len[lane] = values.len() as u32;
        true
    }

    /// Rebuilds the plane under an old-lane → new-lane `mapping`.
    pub fn remap(&self, mapping: &[usize], new_lanes: usize) -> DequePlane {
        let mut out = DequePlane::new(self.cap, new_lanes);
        for (old, &new) in mapping.iter().enumerate() {
            out.head[new] = self.head[old];
            out.len[new] = self.len[old];
            out.data[new * self.cap..][..self.cap]
                .copy_from_slice(&self.data[old * self.cap..][..self.cap]);
        }
        out
    }

    /// The backing storage (raw view hook).
    pub fn data_mut(&mut self) -> &mut [u64] {
        &mut self.data
    }

    /// Per-lane heads (raw view hook).
    pub fn heads_mut(&mut self) -> &mut [u32] {
        &mut self.head
    }

    /// Per-lane lengths (raw view hook).
    pub fn lens_mut(&mut self) -> &mut [u32] {
        &mut self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monotonic::MonotonicMaxDeque;
    use crate::sorted_window::SortedWindow;
    use std::collections::VecDeque;

    fn lcg(x: &mut u64) -> f64 {
        *x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        (*x >> 11) as f64 / (1u64 << 53) as f64 * 1e4
    }

    #[test]
    fn ring_cursors_match_fifo_ring() {
        // Two lanes pushed at different rates, differentially against a
        // VecDeque-backed FIFO ring of the same capacity.
        let cap = 7;
        let mut cursors = RingCursors::new(cap, 2);
        let mut plane = RingPlane::new(cap, 2);
        let mut reference: [VecDeque<f64>; 2] = [VecDeque::new(), VecDeque::new()];
        let mut x = 9u64;
        for step in 0..200 {
            for (lane, fifo) in reference.iter_mut().enumerate() {
                if (step + lane) % (lane + 1) != 0 {
                    continue; // lanes advance on their own cadence
                }
                let v = lcg(&mut x);
                let (slot, evicting) = cursors.push_slot(lane);
                let evicted = evicting.then(|| plane.get(slot, lane));
                plane.set(slot, lane, v);
                cursors.advance(lane);

                let expect_evicted = if fifo.len() == cap { fifo.pop_front() } else { None };
                fifo.push_back(v);
                assert_eq!(evicted, expect_evicted, "lane {lane} step {step}");
                assert_eq!(cursors.len(lane), fifo.len());
                for (i, &want) in fifo.iter().enumerate() {
                    assert_eq!(plane.get(cursors.slot_of(lane, i), lane), want);
                }
            }
        }
        cursors.clear_lane(0);
        assert!(cursors.is_empty(0));
        assert_eq!(cursors.len(1), cap, "clearing one lane leaves the other");
    }

    #[test]
    fn ring_push_slots_matches_per_lane_protocol() {
        // The batched kernel against push_slot + advance, over lanes that
        // skip windows on their own cadence so fill levels diverge and some
        // lanes wrap while others are still filling.
        let cap = 5;
        let lanes = 6;
        let mut batched = RingCursors::new(cap, lanes);
        let mut reference = RingCursors::new(cap, lanes);
        let mut slots = vec![0u32; lanes];
        let mut evicting = vec![false; lanes];
        for step in 0..40usize {
            let present: Vec<bool> = (0..lanes).map(|l| (step + l) % (l + 1) == 0).collect();
            {
                let mut starts = std::mem::take(&mut batched.start);
                ring_push_slots(
                    cap as u32,
                    &mut starts,
                    batched.lens_mut(),
                    &present,
                    &mut slots,
                    &mut evicting,
                );
                batched.start = starts;
            }
            for (lane, &p) in present.iter().enumerate() {
                if !p {
                    continue;
                }
                let (slot, evict) = reference.push_slot(lane);
                reference.advance(lane);
                assert_eq!(slots[lane] as usize, slot, "lane {lane} step {step}");
                assert_eq!(evicting[lane], evict, "lane {lane} step {step}");
            }
            assert_eq!(batched, reference, "cursor state diverged at step {step}");
        }
    }

    /// One tail driven the way its owner drives it: insert each arrival,
    /// evict the value leaving a `cap`-value FIFO window, and refill the
    /// tail from the window once it is shorter than the percentile needs.
    /// Returns how many refills ran.
    fn drive_tail(cap: usize, k: usize, p: f64, values: &[f64]) -> usize {
        let mut seg = vec![0.0; k];
        let (mut len, mut count) = (0u32, 0u32);
        let mut window: VecDeque<f64> = VecDeque::new();
        let mut reference = SortedWindow::new();
        let mut refills = 0;
        for (step, &v) in values.iter().enumerate() {
            if window.len() == cap {
                let old = window.pop_front().unwrap();
                tail_seg_evict(&mut seg, &mut len, &mut count, old);
                reference.remove(old);
            }
            window.push_back(v);
            tail_seg_insert(&mut seg, &mut len, &mut count, v);
            reference.insert(v);
            if (len as usize) < top_values_needed(count as usize, p) {
                refills += 1;
                len = 0;
                for &w in window.iter().filter(|w| w.is_finite()) {
                    tail_seg_offer(&mut seg, &mut len, w);
                }
            }
            let sorted = reference.as_sorted_slice();
            assert_eq!(count as usize, sorted.len(), "step {step}: window count");
            assert_eq!(&seg[..len as usize], &sorted[sorted.len() - len as usize..], "step {step}");
            assert_eq!(
                tail_seg_percentile(&seg, len, count, p).map(f64::to_bits),
                reference.percentile(p).ok().map(f64::to_bits),
                "step {step}: p{p}"
            );
        }
        refills
    }

    #[test]
    fn tail_matches_sorted_window_at_its_percentile() {
        let mut x = 3u64;
        // Heavy ties, with NaN and ±∞ sprinkled in (ignored by both sides).
        let noisy: Vec<f64> = (0..3000)
            .map(|i| match i % 97 {
                5 => f64::NAN,
                11 => f64::INFINITY,
                13 => f64::NEG_INFINITY,
                _ => (lcg(&mut x) as u64 % 23) as f64,
            })
            .collect();
        for (cap, p) in [(33usize, 99.0), (300, 99.0), (1440, 99.0), (200, 50.0)] {
            let k = 2 * top_values_needed(cap, p) + 8;
            drive_tail(cap, k, p, &noisy);
        }
        // A strictly falling stream evicts a top value every window once
        // the window is full, so the tail keeps running short.
        let falling: Vec<f64> = (0..2000).map(|i| 1e6 - i as f64).collect();
        let k = 2 * top_values_needed(300, 99.0) + 8;
        assert!(drive_tail(300, k, 99.0, &falling) > 100, "falling stream refills repeatedly");
    }

    #[test]
    fn tail_percentile_refuses_what_it_cannot_answer() {
        let mut seg = [0.0; 4];
        let (mut len, mut count) = (0u32, 0u32);
        assert_eq!(tail_seg_percentile(&seg, len, count, 99.0), None, "empty window");
        for v in [5.0, 1.0, 9.0, 9.0, 3.0, 7.0] {
            tail_seg_insert(&mut seg, &mut len, &mut count, v);
        }
        assert_eq!((len, count), (4, 6));
        assert_eq!(&seg, &[5.0, 7.0, 9.0, 9.0], "the four largest of six");
        assert_eq!(tail_seg_percentile(&seg, len, count, 100.0), Some(9.0));
        assert_eq!(tail_seg_percentile(&seg, len, count, 101.0), None);
        assert_eq!(tail_seg_percentile(&seg, len, count, 0.0), None, "the minimum is not held");
        tail_seg_insert(&mut seg, &mut len, &mut count, f64::NAN);
        tail_seg_evict(&mut seg, &mut len, &mut count, f64::INFINITY);
        assert_eq!((len, count), (4, 6), "non-finite values are ignored");
    }

    #[test]
    fn deque_plane_matches_monotonic_deque() {
        let cap = 23;
        let mut plane = DequePlane::new(cap, 2);
        let mut reference: [MonotonicMaxDeque<u64>; 2] =
            [MonotonicMaxDeque::new(), MonotonicMaxDeque::new()];
        let mut windows: [VecDeque<u64>; 2] = [VecDeque::new(), VecDeque::new()];
        for step in 0..500u64 {
            for lane in 0..2 {
                let v = (step * 37 + 11 * lane as u64) % 97;
                if windows[lane].len() == cap {
                    let evicted = windows[lane].pop_front().unwrap();
                    plane.evict(lane, evicted);
                    reference[lane].evict(evicted);
                }
                windows[lane].push_back(v);
                plane.push(lane, v);
                reference[lane].push(v);
                assert_eq!(plane.max(lane), reference[lane].max(), "lane {lane} step {step}");
                assert_eq!(plane.len(lane), reference[lane].len());
            }
        }
        plane.clear_lane(0);
        assert_eq!(plane.max(0), None);
        assert!(plane.max(1).is_some(), "clearing one lane leaves the other");
    }

    #[test]
    fn remap_preserves_lane_state_and_opens_new_lanes() {
        let cap = 5;
        let mut cursors = RingCursors::new(cap, 2);
        let mut ring = RingPlane::new(cap, 2);
        let mut tail = TailPlane::new(cap, 2);
        let mut deque = DequePlane::new(cap, 2);
        for i in 0..8u64 {
            // Wrap lane 1 past capacity so remap must carry a rotated ring.
            for lane in [1, usize::from(i % 2 == 0)] {
                let v = (i * 13 + lane as u64 * 7) % 29;
                let (slot, evicting) = cursors.push_slot(lane);
                if evicting {
                    let old = ring.get(slot, lane);
                    tail_seg_evict(
                        &mut tail.data[lane * cap..][..cap],
                        &mut tail.len[lane],
                        &mut tail.count[lane],
                        old,
                    );
                    deque.evict(lane, old as u64);
                }
                ring.set(slot, lane, v as f64);
                cursors.advance(lane);
                tail_seg_insert(
                    &mut tail.data[lane * cap..][..cap],
                    &mut tail.len[lane],
                    &mut tail.count[lane],
                    v as f64,
                );
                deque.push(lane, v);
            }
        }
        let held: Vec<Vec<f64>> = (0..2)
            .map(|lane| {
                (0..cursors.len(lane)).map(|i| ring.get(cursors.slot_of(lane, i), lane)).collect()
            })
            .collect();

        // Old lane 0 → new lane 1, old lane 1 → new lane 3; lanes 0/2 fresh.
        let mapping = [1usize, 3];
        let cursors2 = cursors.remap(&mapping, 4);
        let ring2 = ring.remap(&mapping, 4);
        let tail2 = tail.remap(&mapping, 4);
        let deque2 = deque.remap(&mapping, 4);
        for (old, &new) in mapping.iter().enumerate() {
            assert_eq!(cursors2.len(new), cursors.len(old));
            let got: Vec<f64> =
                (0..cursors2.len(new)).map(|i| ring2.get(cursors2.slot_of(new, i), new)).collect();
            assert_eq!(got, held[old], "ring content survives remap");
            assert_eq!(tail2.as_slice(new), tail.as_slice(old));
            assert_eq!(tail2.count(new), tail.count(old));
            assert_eq!(deque2.max(new), deque.max(old));
        }
        for fresh in [0usize, 2] {
            assert!(cursors2.is_empty(fresh));
            assert_eq!((tail2.count(fresh), tail2.as_slice(fresh)), (0, &[][..]));
            assert_eq!(deque2.max(fresh), None);
        }
    }

    #[test]
    fn restore_lane_validates() {
        let mut cursors = RingCursors::new(4, 1);
        assert!(cursors.restore_lane(0, 4));
        assert_eq!(cursors.len(0), 4);
        assert_eq!(cursors.slot_of(0, 0), 0, "restored lanes start at slot 0");
        assert!(!cursors.restore_lane(0, 5), "over-capacity length rejected");
        assert!(cursors.is_empty(0));

        let mut tail = TailPlane::new(4, 1);
        assert!(tail.restore_lane(0, 9, &[1.0, 2.0, 2.0, 7.5]));
        assert_eq!((tail.count(0), tail.as_slice(0)), (9, &[1.0, 2.0, 2.0, 7.5][..]));
        assert!(!tail.restore_lane(0, 9, &[2.0, 1.0]), "descending rejected");
        assert!(!tail.restore_lane(0, 9, &[1.0, f64::NAN]), "non-finite rejected");
        assert!(!tail.restore_lane(0, 9, &[1.0; 5]), "over-capacity rejected");
        assert!(!tail.restore_lane(0, 2, &[1.0; 3]), "tail longer than its window rejected");
        assert_eq!((tail.count(0), tail.as_slice(0)), (0, &[][..]));

        let mut deque = DequePlane::new(4, 1);
        assert!(deque.restore_lane(0, &[9, 9, 3]));
        assert_eq!(deque.max(0), Some(9));
        assert_eq!((0..3).map(|i| deque.get(0, i)).collect::<Vec<_>>(), vec![9, 9, 3]);
        assert!(!deque.restore_lane(0, &[3, 9]), "increasing run rejected");
        assert!(!deque.restore_lane(0, &[1; 5]), "over-capacity rejected");
        assert_eq!(deque.len(0), 0);
    }
}
