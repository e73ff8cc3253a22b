//! The per-pool planner state machine.
//!
//! [`PoolShard`] is the unit of the shard-and-merge planner core: it owns
//! the *scalar* planner state of one pool — one response fit per resource
//! plus the latency quadratic, the streaming latency quantile, drift
//! detection, exhaustion projection, and the recommendation hysteresis
//! state. The pool's *windowed* state (aggregate ring, totals tail,
//! allocation max-deque, drift sub-window) lives in the
//! engine-owned [`crate::store::ShardStore`] planes and is reached through
//! the [`ShardLane`] passed into [`observe`]/[`replan`] — the slot-major
//! layout that lets a fleet sweep stream shard state instead of
//! pointer-chasing 3–4 heap buffers per pool (see `crate::store`).
//!
//! Because a shard (and its lane) never reads another pool's state, any
//! number of shards can be driven concurrently and the fleet view is a
//! deterministic merge of their outputs (see [`crate::sweep::SweepEngine`]).
//!
//! Relative to the original monolithic `OnlinePlanner` loop, the per-window
//! sizing path re-derives nothing from scratch:
//!
//! - the windowed total-workload peak (the
//!   [`crate::store::PEAK_PERCENTILE`]th percentile) comes from the lane's
//!   top-K totals tail — a short `memmove` only when a top value arrives
//!   or leaves, percentile by plain indexing, bit-identical to the
//!   sort-based percentile (see `crate::store` for the one caveat, signed
//!   zeros);
//! - the maximum serving allocation comes from the lane's monotonic
//!   max-deque (O(1) amortized);
//! - both fits and the P² quantile were already O(1).
//!
//! [`observe`]: PoolShard::observe
//! [`replan`]: PoolShard::replan

use headroom_core::sizing::PoolSizing;
use headroom_core::slo::QosRequirement;
use headroom_stats::persist::{Persist, PersistError, Reader, Writer};
use headroom_stats::quantile_stream::P2Quantile;
use headroom_stats::{FitArray, LinearFit, StreamingLinReg, StreamingQuadFit};
use headroom_telemetry::counter::Resource;
use headroom_telemetry::ids::PoolId;
use headroom_telemetry::time::WindowIndex;

use crate::drift::DriftDetector;
use crate::exhaustion::ExhaustionProjector;
use crate::planner::{
    BindingConstraint, OnlinePlannerConfig, PoolAssessment, PoolWindowAggregate, ResizeAction,
    ResizeRecommendation,
};
use crate::store::ShardLane;

/// One pool's streaming-planner scalar state.
///
/// Feed one [`PoolWindowAggregate`] per window with [`observe`]; derive the
/// sizing decision (and any due recommendation) with [`replan`]. Both take
/// the pool's [`ShardLane`] — its windowed buffers in the engine's plane
/// store. All state is pool-local, so shards compose across threads
/// without locks.
///
/// [`observe`]: PoolShard::observe
/// [`replan`]: PoolShard::replan
#[derive(Debug, Clone)]
pub struct PoolShard {
    /// One workload→utilization line per [`Resource`] (CPU, disk queue,
    /// paging, network), indexed by [`Resource::index`]. A fixed-size
    /// inline array: updating every resource costs no allocation.
    resources: FitArray<StreamingLinReg, { Resource::COUNT }>,
    latency: StreamingQuadFit,
    latency_stream: P2Quantile,
    drift: DriftDetector,
    projector: ExhaustionProjector,
    drift_events: usize,
    /// The most recent full assessment, written in place by whichever
    /// worker replanned this pool. Keeping it here (rather than merging
    /// per-pool copies into a fleet-level map every window) means the
    /// fleet's assessment state *is* the shard array — reading it is a
    /// borrow, and the per-window merge moves only recommendations.
    last_assessment: Option<PoolAssessment>,
    /// Target of the last *emitted* recommendation.
    last_target: Option<usize>,
    /// Dwell-time hysteresis: a changed target and how many consecutive
    /// replans it has persisted.
    dwell: Option<(usize, u64)>,
    /// Whether the last assessment put this pool in a band that needs
    /// capacity. Urgent pools re-derive their sizing *every* window, not
    /// just on the `replan_every` cadence — running out of capacity must
    /// not wait out a coarse replan interval.
    urgent: bool,
    /// The CPU fit derived by this window's drift check, reused by
    /// [`assess`] so the default `replan_every: 1` cadence does not solve
    /// the same normal equations twice per pool per window. Purely a
    /// cache: `None` whenever the fit is unsolvable (or after a restore),
    /// and [`assess`] recomputes on `None` — so it never changes a
    /// decision, is not persisted, and checkpoint bytes are unchanged.
    ///
    /// [`assess`]: PoolShard::assess
    cpu_fit: Option<LinearFit>,
}

impl PoolShard {
    /// A fresh shard tuned by `config`.
    pub fn new(config: &OnlinePlannerConfig) -> Self {
        let _ = config;
        PoolShard {
            resources: FitArray::new(),
            latency: StreamingQuadFit::new(),
            latency_stream: P2Quantile::new(0.95).expect("0.95 is a valid quantile"),
            drift: DriftDetector::new(config.drift),
            projector: ExhaustionProjector::new(),
            drift_events: 0,
            last_assessment: None,
            last_target: None,
            dwell: None,
            urgent: false,
            cpu_fit: None,
        }
    }

    /// Drift resets this pool has experienced.
    pub fn drift_events(&self) -> usize {
        self.drift_events
    }

    /// Whether the last assessment left this pool urgently short of
    /// capacity (exhausted/critical band). The sweep engine replans urgent
    /// pools every window, bypassing the `replan_every` cadence.
    pub fn urgent(&self) -> bool {
        self.urgent
    }

    /// The most recent assessment [`replan`] derived for this pool, if any.
    /// Survives until the next successful replan (a drift reset clears the
    /// fits but the last fleet-visible assessment stays current until
    /// re-derived, exactly as a merged fleet map would).
    ///
    /// [`replan`]: PoolShard::replan
    pub fn assessment(&self) -> Option<&PoolAssessment> {
        self.last_assessment.as_ref()
    }

    /// Consumes one window's pool aggregate: O(1) apart from the lane's
    /// totals tail (a short `memmove` when a top value arrives or leaves,
    /// a scan of the ring in the rare window the tail runs short).
    pub fn observe(&mut self, agg: PoolWindowAggregate, lane: &mut impl ShardLane) {
        if let Some(evicted) = lane.agg_push(&agg) {
            for r in Resource::ALL {
                self.resources[r.index()].remove(evicted.rps_per_server, evicted.utilization(r));
            }
            self.latency.remove(evicted.rps_per_server, evicted.latency_p95_ms);
            // total_rps() is a pure function of the evicted row, so the
            // eviction hits the exact value inserted when it arrived.
            lane.totals_replace(evicted.total_rps(), agg.total_rps());
            lane.alloc_evict(evicted.active_servers);
        } else {
            lane.totals_insert(agg.total_rps());
        }
        for r in Resource::ALL {
            self.resources[r.index()].push(agg.rps_per_server, agg.utilization(r));
        }
        self.latency.push(agg.rps_per_server, agg.latency_p95_ms);
        self.latency_stream.observe(agg.latency_p95_ms);
        self.projector.observe(agg.window, agg.total_rps());
        lane.alloc_push(agg.active_servers);

        // Change-point handling: the drift detector compares its short
        // sub-window (ring-buffered in the lane) against the established
        // long fit and, on a hit, invalidates everything the fits learned
        // before the shift.
        let evicted_pair = lane.drift_push(agg.rps_per_server, agg.cpu_pct);
        self.drift.observe(agg.rps_per_server, agg.cpu_pct, evicted_pair);
        let cpu_len = self.resources[Resource::Cpu.index()].len();
        self.cpu_fit = self.resources[Resource::Cpu.index()].fit().ok();
        if let Some(reference) = self.cpu_fit {
            if self.drift.check(&reference, cpu_len).is_some() {
                lane.clear();
                self.resources.clear();
                self.latency.clear();
                self.latency_stream = P2Quantile::new(0.95).expect("valid quantile");
                self.drift.reset();
                self.cpu_fit = None;
                // A half-counted dwell from the old regime must not let the
                // first post-drift target skip the hysteresis wait.
                self.dwell = None;
                // Urgency was judged on the old response profile; the next
                // full assessment re-derives it from post-drift data.
                self.urgent = false;
                self.drift_events += 1;
                // Demand history survives: a release changes the response
                // profile, not how much traffic users send.
            }
        }
    }

    /// The scalar half of [`observe`] — pass 5 of the pass-structured
    /// window: fit removes for the evicted aggregate, fit pushes for the
    /// arriving one, latency-stream/projector updates, and the drift
    /// check, with `lane.clear()` on a drift hit exactly as the fused
    /// path. The windowed halves (ring/totals/deque/drift pushes) must
    /// already have run for this window, with `evicted`/`drift_evicted`
    /// being what they returned (see `crate::store::StoreView`'s pass
    /// entry points).
    ///
    /// Every floating-point operation on shard state happens in the same
    /// per-structure order the fused [`observe`] issues, and all state is
    /// pool-local — so pass-structured windows are bit-identical to fused
    /// ones, which the engine proptests pin against the [`observe`]-driven
    /// `OwnedLane` reference.
    ///
    /// [`observe`]: PoolShard::observe
    pub fn observe_scalar(
        &mut self,
        agg: &PoolWindowAggregate,
        evicted: Option<&PoolWindowAggregate>,
        drift_evicted: Option<(f64, f64)>,
        lane: &mut impl ShardLane,
    ) {
        if let Some(evicted) = evicted {
            for r in Resource::ALL {
                self.resources[r.index()].remove(evicted.rps_per_server, evicted.utilization(r));
            }
            self.latency.remove(evicted.rps_per_server, evicted.latency_p95_ms);
        }
        for r in Resource::ALL {
            self.resources[r.index()].push(agg.rps_per_server, agg.utilization(r));
        }
        self.latency.push(agg.rps_per_server, agg.latency_p95_ms);
        self.latency_stream.observe(agg.latency_p95_ms);
        self.projector.observe(agg.window, agg.total_rps());
        self.drift.observe(agg.rps_per_server, agg.cpu_pct, drift_evicted);
        let cpu_len = self.resources[Resource::Cpu.index()].len();
        self.cpu_fit = self.resources[Resource::Cpu.index()].fit().ok();
        if let Some(reference) = self.cpu_fit {
            if self.drift.check(&reference, cpu_len).is_some() {
                lane.clear();
                self.resources.clear();
                self.latency.clear();
                self.latency_stream = P2Quantile::new(0.95).expect("valid quantile");
                self.drift.reset();
                self.cpu_fit = None;
                self.dwell = None;
                self.urgent = false;
                self.drift_events += 1;
            }
        }
    }

    /// The batch optimizer's sizing formula over the current window
    /// (except that the answer is not clamped to the current allocation —
    /// see the Grow comment below).
    fn assess(
        &self,
        window: WindowIndex,
        qos: &QosRequirement,
        lane: &impl ShardLane,
    ) -> Option<PoolAssessment> {
        // The drift check in this window's observe already solved the CPU
        // normal equations; reuse that fit. `None` (restore, or an
        // unsolvable fit) falls back to recomputing — identical outcome
        // either way, since no observation lands between observe and
        // assess.
        let cpu_fit = match self.cpu_fit {
            Some(fit) => fit,
            None => self.resources[Resource::Cpu.index()].fit().ok()?,
        };
        let (lat_quad, lat_r2) = self.latency.fit_quadratic().ok()?;

        let current_servers = lane.alloc_max()?.max(1);
        let peak_total = lane.totals_peak()?;

        // Per-server workload at the QoS limit — and *which* constraint
        // binds there. As in the batch CapacityForecaster::max_rps_per_server,
        // the latency SLO and the CPU guardrail must both be invertible —
        // an unreachable latency SLO keeps the current allocation rather
        // than silently sizing from CPU alone. The secondary resources
        // (disk queue, paging, network) participate only when their fitted
        // response actually correlates with workload (positive slope): a
        // workload-flat counter — Fig. 2's "vertical patterns" — can never
        // be satisfied by adding servers, so it never binds.
        let rps_latency = lat_quad.solve(qos.latency_p95_ms).ok();
        let rps_cpu = cpu_fit.solve_for_x(qos.cpu_ceiling_pct).ok();
        let (rps_at_slo, binding) = match (rps_latency, rps_cpu) {
            (Some(lat), Some(cpu)) => {
                let (mut best, mut binding) = if cpu < lat {
                    (cpu, BindingConstraint::Resource(Resource::Cpu))
                } else {
                    (lat, BindingConstraint::Latency)
                };
                // A workload-coupled resource already over its limit at
                // zero workload (positive slope, crossing at rps <= 0) can
                // never be satisfied by adding servers — that is the
                // unreachable-SLO case, not a constraint to skip.
                let mut unreachable = None;
                for r in [Resource::DiskQueue, Resource::MemoryPages, Resource::Network] {
                    let Ok(fit) = self.resources[r.index()].fit() else { continue };
                    if fit.slope <= 0.0 {
                        continue;
                    }
                    let Ok(rps) = fit.solve_for_x(qos.resource_limit(r)) else { continue };
                    if rps <= 0.0 {
                        unreachable.get_or_insert(r);
                    } else if rps < best {
                        best = rps;
                        binding = BindingConstraint::Resource(r);
                    }
                }
                match unreachable {
                    Some(r) => (None, BindingConstraint::Resource(r)),
                    None => (Some(best).filter(|r| *r > 0.0), binding),
                }
            }
            // Whichever of the two mandatory constraints failed to invert
            // is reported as binding on the unreachable path.
            (None, _) => (None, BindingConstraint::Latency),
            (_, None) => (None, BindingConstraint::Resource(Resource::Cpu)),
        };

        let (min_servers, supportable, slo_reachable) = match rps_at_slo {
            Some(rps) => {
                // The batch optimizer clamps its answer to the current
                // allocation because it reports *savings*; a live planner
                // must also be able to ask for more capacity than exists,
                // so an undersized pool yields min_servers > current and a
                // Grow recommendation.
                let fractional = (peak_total / rps).max(1e-9);
                let n = (fractional.ceil() as usize).max(1);
                (n, current_servers as f64 * rps, true)
            }
            // SLO unreachable on the fitted curves: keep the allocation and
            // report the pool as out of headroom — it cannot meet QoS.
            None => (current_servers, peak_total, false),
        };

        let projection = self.projector.project(supportable);
        Some(PoolAssessment {
            sizing: PoolSizing {
                pool: PoolId(0), // stamped by the caller
                current_servers,
                min_servers,
                peak_total_rps: peak_total,
            },
            window,
            band: projection.band,
            binding,
            projection,
            cpu_r_squared: cpu_fit.r_squared,
            latency_r_squared: lat_r2,
            latency_p95_stream_ms: self.latency_stream.estimate(),
            drift_events: self.drift_events,
            slo_reachable,
        })
    }

    /// Re-derives this pool's assessment (stored in place, readable via
    /// [`assessment`]) and decides whether a resize recommendation is due,
    /// applying the deadband and (when configured) the dwell-time
    /// hysteresis policy.
    ///
    /// Leaves the stored assessment untouched and returns `None` while the
    /// lane has fewer than `min_fit_windows` observations or the fits are
    /// not yet solvable.
    ///
    /// [`assessment`]: PoolShard::assessment
    pub fn replan(
        &mut self,
        pool: PoolId,
        window: WindowIndex,
        qos: &QosRequirement,
        config: &OnlinePlannerConfig,
        lane: &impl ShardLane,
    ) -> Option<ResizeRecommendation> {
        if lane.agg_len() < config.min_fit_windows {
            return None;
        }
        let mut assessment = self.assess(window, qos, lane)?;
        assessment.sizing.pool = pool;
        self.urgent = assessment.band.needs_capacity();

        let current = assessment.sizing.current_servers;
        let target = assessment.sizing.min_servers;
        let diff = current.abs_diff(target);
        let changed = self.last_target != Some(target);
        let mut recommendation = None;
        if changed && diff >= config.deadband_servers.max(1) {
            // Dwell-time hysteresis: a *changed* target must persist this
            // many consecutive replans before it is announced, so a target
            // oscillating faster than the dwell produces no flood of
            // single-server flip-flops. Exhausted/critical growth skips the
            // wait — running out of capacity is not a flap.
            let urgent = target > current && assessment.band.needs_capacity();
            let due = if config.dwell_windows == 0 || urgent {
                true
            } else {
                match self.dwell {
                    Some((candidate, seen)) if candidate == target => {
                        let seen = seen + 1;
                        self.dwell = Some((candidate, seen));
                        seen >= config.dwell_windows
                    }
                    _ => {
                        self.dwell = Some((target, 1));
                        config.dwell_windows <= 1
                    }
                }
            };
            if due {
                recommendation = Some(ResizeRecommendation {
                    pool,
                    window,
                    from_servers: current,
                    to_servers: target,
                    action: if target < current {
                        ResizeAction::Shrink
                    } else {
                        ResizeAction::Grow
                    },
                    band: assessment.band,
                });
                self.last_target = Some(target);
                self.dwell = None;
            }
        } else {
            // The target returned to the last announced value (or moved
            // within the deadband): the tentative change was a flap.
            self.dwell = None;
        }
        self.last_assessment = Some(assessment);
        recommendation
    }
}

impl Persist for PoolShard {
    /// Scalar state only — the pool's windowed buffers are serialized by
    /// the engine from its [`crate::store::ShardStore`] lane, interleaved
    /// right after each shard.
    fn persist(&self, w: &mut Writer) {
        self.resources.persist(w);
        self.latency.persist(w);
        self.latency_stream.persist(w);
        self.drift.persist(w);
        self.projector.persist(w);
        w.put_usize(self.drift_events);
        self.last_assessment.persist(w);
        self.last_target.persist(w);
        self.dwell.persist(w);
        w.put_bool(self.urgent);
    }

    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(PoolShard {
            resources: FitArray::restore(r)?,
            latency: StreamingQuadFit::restore(r)?,
            latency_stream: P2Quantile::restore(r)?,
            drift: DriftDetector::restore(r)?,
            projector: ExhaustionProjector::restore(r)?,
            drift_events: r.take_usize()?,
            last_assessment: Option::restore(r)?,
            last_target: Option::restore(r)?,
            dwell: Option::restore(r)?,
            urgent: r.take_bool()?,
            // Not persisted: a restored shard recomputes its CPU fit on
            // the next observe (or assess falls back to a fresh solve).
            cpu_fit: None,
        })
    }
}
