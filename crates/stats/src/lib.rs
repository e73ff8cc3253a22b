//! Statistics substrate for the `headroom` capacity planner.
//!
//! The ICDCS'18 headroom methodology is deliberately *black-box*: it never
//! models the service internals, only the externally observable relationship
//! between workload, resource usage, and quality of service. That relationship
//! is recovered with a small set of classical statistical tools, all of which
//! are implemented here from scratch:
//!
//! - [`linreg`] — ordinary least-squares simple linear regression (workload →
//!   limiting-resource validation, §II-A1 of the paper);
//! - [`streaming`] — the same fit with O(1) insert/evict updates, for
//!   planners revising their model every measurement window;
//! - [`quadfit`] — the quadratic counterpart with O(1) insert/evict and
//!   shard merge;
//! - [`order_stats`], [`sorted_window`], [`monotonic`] — incremental order
//!   statistics (pointer-linked treap and cache-friendly sorted column, both
//!   bit-identical to sort-based percentiles) and O(1) sliding-window
//!   maxima, the structures behind the streaming planner's per-window
//!   sizing path;
//! - [`plane`] — the struct-of-arrays counterparts of those windows: one
//!   flat allocation holding *every* pool's ring/top-K tail/max-deque,
//!   indexed by lane, so a fleet-wide sweep streams its state instead of
//!   pointer-chasing one heap buffer per pool;
//! - [`combine`] — the canonical shard-and-combine trait those streaming
//!   accumulators implement;
//! - [`fit_array`] — fixed-size per-resource arrays of accumulators (the
//!   multi-resource fit vector), combining element-wise;
//! - [`persist`] — bit-exact binary checkpointing for the streaming
//!   accumulators, so a restarted planner resumes mid-stream;
//! - [`polyfit`] — least-squares polynomial fitting (the quadratic latency
//!   models of §II-B);
//! - [`ransac`] — RANSAC robust regression (the paper fits latency curves with
//!   RANSAC to survive deployment-induced outliers, §II-B2);
//! - [`dtree`] — a CART decision tree with k-fold cross-validation and ROC
//!   AUC, used to auto-group servers within pools (§II-A2);
//! - [`kmeans`] — k-means clustering for hardware-generation discovery
//!   (Fig. 3);
//! - [`percentile`], [`histogram`], [`quantile_stream`], [`summary`],
//!   [`correlation`] — descriptive statistics used throughout the evaluation.
//!
//! # Example
//!
//! ```
//! use headroom_stats::linreg::LinearFit;
//!
//! # fn main() -> Result<(), headroom_stats::StatsError> {
//! // CPU utilisation responds linearly to requests per second.
//! let rps = [100.0, 200.0, 300.0, 400.0];
//! let cpu = [4.2, 7.0, 9.8, 12.6];
//! let fit = LinearFit::fit(&rps, &cpu)?;
//! assert!((fit.slope - 0.028).abs() < 1e-9);
//! assert!(fit.r_squared > 0.999);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod combine;
pub mod correlation;
pub mod dtree;
pub mod error;
pub mod fit_array;
pub mod histogram;
pub mod kmeans;
pub mod linreg;
pub mod matrix;
pub mod monotonic;
pub mod order_stats;
pub mod percentile;
pub mod persist;
pub mod plane;
pub mod polyfit;
pub mod quadfit;
pub mod quantile_stream;
pub mod ransac;
pub mod sorted_window;
pub mod streaming;
pub mod summary;

pub use combine::Combine;
pub use error::StatsError;
pub use fit_array::FitArray;
pub use linreg::LinearFit;
pub use monotonic::MonotonicMaxDeque;
pub use order_stats::OrderStatsMultiset;
pub use persist::{Persist, PersistError, Reader, Writer};
pub use plane::{DequePlane, RingCursors, RingPlane, TailPlane};
pub use polyfit::{Polynomial, Quadratic};
pub use quadfit::StreamingQuadFit;
pub use sorted_window::SortedWindow;
pub use streaming::StreamingLinReg;
pub use summary::Summary;
