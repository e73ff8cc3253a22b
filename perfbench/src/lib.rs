//! Closed-loop planner benchmark.
//!
//! Drives the real closed loop (simulator step, sweep, drain, event-log
//! append, reconciler ingest and tick, checkpoint and restart on their
//! cadence) through the public API of `cluster`, `online` and `service`,
//! on two workloads. An untraced run gives the end-to-end metrics; a
//! traced run gives the per-layer metrics and the waterfall. See
//! `README.md` in this directory.

pub mod run;
pub mod trace;
pub mod workload;

pub use run::{run, Metric, Options, Report, END_TO_END, PER_LAYER};
pub use workload::{Length, Workload};
