//! Shared synthetic-drive helpers for the service tests: a small
//! multi-pool fleet on the service-B response curves, driven by
//! phase-shifted |sin| workloads so per-pool targets move (and dwell
//! countdowns start) at different windows.

use std::f64::consts::PI;

use headroom_core::slo::QosRequirement;
use headroom_online::planner::{OnlinePlannerConfig, PoolWindowAggregate, ResizeRecommendation};
use headroom_online::sweep::SweepEngine;
use headroom_telemetry::ids::PoolId;
use headroom_telemetry::time::WindowIndex;

use crate::checkpoint::{CheckpointError, HEADER_LEN};

/// Pools in the synthetic fleet.
pub const POOLS: u32 = 5;

/// The service-B QoS used throughout the workspace's tests.
pub fn b_qos() -> QosRequirement {
    QosRequirement::latency(32.5).with_cpu_ceiling(90.0)
}

/// A config that warms up fast (12 windows) on a short (24-window) ring.
/// The ring is much shorter than the drive's 160-window |sin| period on
/// purpose: the trailing peak rises and falls as the window slides, so
/// targets keep moving and recommendations keep flowing mid-run.
pub fn test_config(dwell_windows: u64) -> OnlinePlannerConfig {
    OnlinePlannerConfig {
        window_capacity: 24,
        min_fit_windows: 12,
        dwell_windows,
        ..OnlinePlannerConfig::default()
    }
}

/// A fresh engine under [`b_qos`].
pub fn engine(config: OnlinePlannerConfig) -> SweepEngine {
    SweepEngine::new(config, b_qos())
}

/// One synthetic window for one pool.
pub fn aggregate(w: u64, p: u32) -> PoolWindowAggregate {
    let rps = 200.0 + 150.0 * ((((w + 20 * u64::from(p)) as f64 / 80.0) * PI).sin()).abs();
    PoolWindowAggregate {
        window: WindowIndex(w),
        rps_per_server: rps,
        cpu_pct: 0.028 * rps + 1.37,
        latency_p95_ms: 4.028e-5 * rps * rps - 0.031 * rps + 36.68,
        disk_queue: 1.0,
        memory_pages_per_sec: 4000.0,
        network_mbps: 0.32 * rps,
        active_servers: 8 + (p % 3) as usize,
    }
}

/// All pools' aggregates for window `w`, in pool order.
pub fn window_aggregates(w: u64) -> Vec<(PoolId, PoolWindowAggregate)> {
    (0..POOLS).map(|p| (PoolId(p), aggregate(w, p))).collect()
}

/// Feeds one synthetic window (all pools) without draining.
pub fn feed_window(engine: &mut SweepEngine, w: u64) {
    engine.observe_aggregates(WindowIndex(w), &window_aggregates(w));
}

/// Drives windows `[from, to)`, draining after each; returns every
/// recommendation emitted, in order.
pub fn drive(engine: &mut SweepEngine, from: u64, to: u64) -> Vec<ResizeRecommendation> {
    let mut out = Vec::new();
    for w in from..to {
        feed_window(engine, w);
        out.extend(engine.drain_recommendations());
    }
    out
}

/// Flips every bit of the framed `bytes` in turn and asserts `decode`
/// rejects each copy with a typed error — a checksum mismatch whenever the
/// flipped bit lies in a payload of at least 64 bytes.
pub fn assert_every_bit_flip_rejected<T: std::fmt::Debug>(
    bytes: &[u8],
    decode: impl Fn(&[u8]) -> Result<T, CheckpointError>,
) {
    assert!(bytes.len() >= HEADER_LEN + 64, "payload of at least 64 bytes");
    decode(bytes).expect("the unflipped frame decodes");
    let mut flipped = bytes.to_vec();
    for bit in 0..bytes.len() * 8 {
        let (byte, mask) = (bit / 8, 1u8 << (bit % 8));
        flipped[byte] ^= mask;
        let err = decode(&flipped).expect_err("a flipped bit must be rejected");
        if byte >= HEADER_LEN {
            assert!(
                matches!(err, CheckpointError::ChecksumMismatch { .. }),
                "payload bit {bit}: {err:?}"
            );
        }
        flipped[byte] ^= mask;
    }
}
