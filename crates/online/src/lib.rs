//! # headroom-online — streaming incremental capacity planning
//!
//! The batch pipeline in `headroom_core` refits every model from scratch
//! over a full `MetricStore` — the right shape for a quarterly capacity
//! review, the wrong one for a planner tracking live traffic. This crate is
//! the streaming half: it consumes the fleet simulator's per-window
//! snapshots incrementally and keeps every fitted model current in O(1)
//! work per window (the sizing re-derivation itself is O(window) for its
//! peak percentile — still orders of magnitude under a batch refit).
//!
//! - [`ring`] — the fixed-capacity sliding window backing all estimators;
//! - [`estimators`] — incremental workload→CPU line and workload→latency
//!   quadratic ([`estimators::WindowedLinReg`],
//!   [`estimators::StreamingQuadFit`]);
//! - [`drift`] — a change-point detector that invalidates stale fits when a
//!   release or hardware swap shifts the response profile;
//! - [`exhaustion`] — headroom banding (ample → exhausted) and streaming
//!   days-to-exhaustion projection;
//! - [`shard`] — [`shard::PoolShard`], one pool's planner state machine:
//!   one workload→utilization fit per resource (CPU, disk queue, paging,
//!   network — the multi-resource fit vector) plus the latency quadratic;
//!   each assessment reports the discovered
//!   [`planner::BindingConstraint`]. The shard holds only *scalar* state —
//!   its windowed buffers live in the store and reach it through a
//!   [`store::ShardLane`];
//! - [`store`] — [`store::ShardStore`], the slot-major shard-state store:
//!   every pool's aggregate ring, top-K totals tail (the exact p99 peak
//!   without the whole sorted window), allocation max-deque, and drift
//!   sub-window hoisted into engine-owned planes
//!   (struct-of-arrays over the fleet), so a steady-state window *streams*
//!   shard state instead of taking a dependent cache miss per heap buffer
//!   per pool;
//! - [`sweep`] — [`sweep::SweepEngine`], the shard-and-merge fleet core:
//!   pools fan out across a *persistent* worker pool (`headroom_exec`,
//!   workers spawned once and parked between windows; per-window scoped
//!   threads remain available as [`planner::SweepExec::Scoped`]) and the
//!   per-chunk outputs merge deterministically, so results are
//!   bit-identical for any thread count and either execution mode. The
//!   hand-off is a mailbox write and the whole warmed window path reuses
//!   its buffers — steady-state windows allocate nothing;
//! - [`planner`] — [`planner::OnlinePlanner`], the control-loop facade:
//!   per-window observation, re-derived minimum pool sizes (the batch
//!   optimizer's formula, reproduced incrementally), dwell-time
//!   recommendation hysteresis, and a closed-loop driver for
//!   `headroom_cluster::sim::Simulation`.
//!
//! Both planners expose the shared `headroom_core::sizing::SizingPlanner`
//! interface, so downstream consumers cannot tell which one produced a
//! sizing — and the two agree: driven over the same windows, the online
//! planner reproduces the batch minimum pool size within ±1 server (see
//! `tests/online_vs_batch.rs`).
//!
//! # Quickstart
//!
//! Plan a small fleet live, window by window:
//!
//! ```
//! use headroom_cluster::scenario::FleetScenario;
//! use headroom_core::sizing::SizingPlanner;
//! use headroom_core::slo::QosRequirement;
//! use headroom_online::planner::{OnlinePlanner, OnlinePlannerConfig};
//! use headroom_telemetry::ids::PoolId;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut sim = FleetScenario::small(7).into_simulation();
//!
//! // Pools 0-2 run service B (tight SLO); pools 3-5 run service D.
//! let config = OnlinePlannerConfig { min_fit_windows: 120, ..Default::default() };
//! let mut planner =
//!     OnlinePlanner::new(config, QosRequirement::latency(32.5).with_cpu_ceiling(90.0));
//! for pool in 3..6 {
//!     planner.set_qos(PoolId(pool), QosRequirement::latency(58.0).with_cpu_ceiling(90.0));
//! }
//!
//! // Half a simulated day, one 120-second window at a time.
//! let recommendations = planner.run(&mut sim, 360);
//!
//! let sizings = planner.sizings();
//! assert_eq!(sizings.len(), 6, "every pool was planned");
//! for s in &sizings {
//!     assert!(s.min_servers >= 1 && s.min_servers <= s.current_servers);
//! }
//! // The small fleet is deliberately overprovisioned: the planner notices.
//! assert!(!recommendations.is_empty(), "headroom found");
//! # Ok(())
//! # }
//! ```

// Unsafe is denied crate-wide and allowed in exactly one place: the raw
// store view in `store` that hands disjoint plane lanes to sweep workers
// (see the safety contract there).
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod drift;
pub mod estimators;
pub mod exhaustion;
pub mod planner;
pub mod ring;
pub mod shard;
pub mod store;
pub mod sweep;

pub use drift::{DriftConfig, DriftDetector, DriftEvent, DriftKind};
pub use estimators::{StreamingQuadFit, WindowedLinReg};
pub use exhaustion::{ExhaustionProjection, ExhaustionProjector, HeadroomBand};
pub use planner::{
    BindingConstraint, OnlinePlanner, OnlinePlannerConfig, PoolAssessment, PoolWindowAggregate,
    ResizeAction, ResizeRecommendation, SweepExec,
};
pub use shard::PoolShard;
pub use store::{LaneView, OwnedLane, ShardLane, ShardStore, StoreView};
pub use sweep::SweepEngine;
