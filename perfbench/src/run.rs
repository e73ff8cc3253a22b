//! Repetitions, metrics and the waterfall.
//!
//! A run repeats one workload: each repetition builds the fleet and warms
//! the planner up (the set-up), then times a fixed number of closed-loop
//! windows. The number of repetitions is planned from the requested
//! seconds and the workload alone. An untraced run reports the end-to-end
//! metrics; a traced run alternates untraced and traced repetitions,
//! reports the per-layer metrics from the traced ones, and compares the two
//! for the tracing overhead.

use std::fmt::Write as _;
use std::time::Instant;

use headroom_online::sweep::{PASS_COUNT, PASS_NAMES};

use crate::trace::{Layer, Tracer};
use crate::workload::{ClosedLoop, Length, LoopCounts, Shape, Workload};

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed of the fleet, its demand and its events.
    pub seed: u64,
    /// Measured seconds to gather.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or untraced (end-to-end metrics).
    pub trace: bool,
    /// Workload length.
    pub length: Length,
}

/// Repetitions made whatever the seconds, time permitting: in a traced
/// run two of each kind.
const MIN_REPS: usize = 4;

/// Repetitions in a run of `seconds`: as many as the workload's nominal
/// repetition length fits, and at least [`MIN_REPS`]. The count depends on
/// the workload and `seconds` only, so every run of a workload times the
/// same number of windows and `window_p99_ms` is the same percentile of
/// them, however fast the host is.
fn planned_reps(shape: &Shape, seconds: f64) -> usize {
    ((seconds / shape.rep_seconds).round() as usize).max(MIN_REPS)
}

/// Set-ups timed in an untraced run, time permitting: after the
/// repetitions, set-up-only ones (fleet build and warm-up, no measured
/// windows) make up the rest, so `setup_s` is a median of this many.
const MIN_SETUPS: usize = 6;

/// A run starts no repetition after this long (beyond one of each kind it
/// needs), so it ends well inside its time limit on a slow host. A run cut
/// short says so.
const MAX_RUN_SECONDS: f64 = 100.0;

/// Windows of the 1-thread segment that reads the pass timers on a
/// multi-threaded workload (they only run on single-chunk windows).
const PASS_SEGMENT_WINDOWS: u64 = 30;

/// Every end-to-end metric, with its unit.
pub const END_TO_END: [(&str, &str); 8] = [
    ("window_p50_ms", "ms"),
    ("window_p99_ms", "ms"),
    ("pool_windows_per_s", "pool-windows/s"),
    ("recovery_ms", "ms"),
    ("server_hours", "server-h"),
    ("urgent_pool_windows", "pool-windows"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Every per-layer metric, with its unit.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("cluster.step_ms.p50", "ms"),
    ("cluster.step_ms.p99", "ms"),
    ("cluster.servers", "count"),
    ("cluster.resizes_scheduled", "count"),
    ("online.observe_ms.p50", "ms"),
    ("online.observe_ms.p99", "ms"),
    ("online.drain_ms.p50", "ms"),
    ("online.pools_assessed", "count"),
    ("online.recs_emitted", "count"),
    ("online.pass.sim_kernel_ms", "ms"),
    ("online.pass.aggregate_ms", "ms"),
    ("online.pass.agg_ring_ms", "ms"),
    ("online.pass.totals_ms", "ms"),
    ("online.pass.alloc_ms", "ms"),
    ("online.pass.drift_ring_ms", "ms"),
    ("online.pass.scalar_ms", "ms"),
    ("online.pass.replan_ms", "ms"),
    ("exec.effective_threads", "count"),
    ("exec.live_workers", "count"),
    ("service.reconcile.ingest_ms.p50", "ms"),
    ("service.reconcile.tick_ms.p50", "ms"),
    ("service.reconcile.tick_ms.p99", "ms"),
    ("service.reconcile.offers", "count"),
    ("service.reconcile.accepted", "count"),
    ("service.reconcile.accept_ratio", "ratio"),
    ("service.reconcile.applies", "count"),
    ("service.reconcile.apply_failures", "count"),
    ("service.reconcile.converged_frac", "ratio"),
    ("service.checkpoint.save_ms.p50", "ms"),
    ("service.checkpoint.bytes", "bytes"),
    ("service.checkpoint.saves", "count"),
    ("service.checkpoint.load_ms.p50", "ms"),
    ("service.event_log.replay_ms.p50", "ms"),
    ("service.event_log.replayed_events", "count"),
    ("service.event_log.append_ms.p50", "ms"),
    ("service.event_log.events", "count"),
    ("service.event_log.encode_ms", "ms"),
    ("service.event_log.decode_ms", "ms"),
    ("bench.unattributed_ms.p50", "ms"),
    ("bench.trace_overhead_frac", "ratio"),
    ("ops_failed_frac", "ratio"),
];

/// Layers timed inside a window, in waterfall order.
const WINDOW_LAYERS: [Layer; 11] = [
    Layer::ClusterStep,
    Layer::OnlineAggregate,
    Layer::OnlineObserve,
    Layer::OnlineDrain,
    Layer::EventLogAppend,
    Layer::ReconcileIngest,
    Layer::ReconcileTick,
    Layer::CheckpointSave,
    Layer::CheckpointLoad,
    Layer::EventLogReplay,
    Layer::Window,
];

/// One repetition's measurements.
struct Rep {
    traced: bool,
    setup_ns: u64,
    window_ns: Vec<u64>,
    /// Per-window self time by layer (traced repetitions only).
    layer_ns: Vec<[u64; Layer::COUNT]>,
    recovery_ns: Vec<u64>,
    counts: LoopCounts,
    /// Digest of the recommendation stream at the end of the measured
    /// windows, and after the twin prefix.
    digest: u64,
    prefix_digest: Option<u64>,
    /// Pass-timer ns and the windows they cover (traced repetitions only).
    pass_ns: [u64; PASS_COUNT],
    pass_windows: u64,
    encode_ns: u64,
    decode_ns: u64,
    pools_assessed: usize,
    effective_threads: usize,
    live_workers: usize,
    checkpoint_bytes: usize,
    log_events: usize,
    pools: usize,
    servers: usize,
}

/// One metric as printed.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// A finished run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Whether every output check passed and every metric is finite.
    pub correct: bool,
    /// Operations attempted: windows, reconciler applies, restores, checks.
    pub attempted: u64,
    /// Operations failed: check mismatches, apply errors, diverged pools,
    /// decode errors.
    pub failed: u64,
    /// The metrics of this kind of run, in listing order.
    pub metrics: Vec<Metric>,
    /// Human-readable context, checks and waterfall.
    pub text: String,
    /// The traced run's spans as CSV (empty for an untraced run).
    pub spans_csv: Vec<u8>,
}

impl Report {
    /// The metric named `name`.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Median of `values` (0 when empty).
fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Nearest-rank percentile `p` of `values` (0 when empty).
fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest percentile with at least ten of `n` samples beyond it.
fn tail_percentile(n: usize) -> f64 {
    (1.0 - 10.0 / n as f64).max(0.0)
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The set-up: builds the fleet and planner, sized for `windows` windows
/// of events, and runs the warm-up windows untraced. Returns the loop and
/// the set-up time, ns.
fn set_up(opts: &Options, shape: Shape, windows: u64, tr: &mut Tracer) -> (ClosedLoop, u64) {
    let setup = Instant::now();
    tr.set_enabled(false);
    let mut lp = ClosedLoop::new(opts.workload, shape, opts.seed, windows, shape.threads, true);
    for _ in 0..shape.warmup_windows {
        lp.window(tr);
    }
    (lp, setup.elapsed().as_nanos() as u64)
}

/// Runs one repetition: set-up, measured windows, a load of the last
/// checkpoint where the loop has no restarts, end-of-run checks, and in a
/// traced repetition the pass-timer readout.
fn repetition(opts: &Options, shape: Shape, traced: bool, tr: &mut Tracer) -> Rep {
    let segment = if traced && shape.threads > 1 { PASS_SEGMENT_WINDOWS } else { 0 };
    let windows = shape.warmup_windows + shape.measured_windows + segment;
    let (mut lp, setup_ns) = set_up(opts, shape, windows, tr);
    // Warm-up counts are not measured, but its restores were checked.
    let (warmup, _) = lp.take_counts();

    tr.set_enabled(traced);
    if traced && shape.threads == 1 {
        lp.enable_pass_timing();
    }
    let mut rep = Rep {
        traced,
        setup_ns,
        window_ns: Vec::with_capacity(shape.measured_windows as usize),
        layer_ns: Vec::new(),
        recovery_ns: Vec::new(),
        counts: LoopCounts::default(),
        digest: 0,
        prefix_digest: None,
        pass_ns: [0; PASS_COUNT],
        pass_windows: 0,
        encode_ns: 0,
        decode_ns: 0,
        pools_assessed: 0,
        effective_threads: 0,
        live_workers: 0,
        checkpoint_bytes: 0,
        log_events: 0,
        pools: lp.pools(),
        servers: lp.servers(),
    };
    for i in 1..=shape.measured_windows {
        let mark = tr.mark();
        rep.window_ns.push(lp.window(tr));
        if traced {
            rep.layer_ns.push(tr.self_ns_since(mark));
        }
        if shape.twin_prefix == Some(i) {
            rep.prefix_digest = Some(lp.digest());
        }
    }
    if shape.restart_every.is_none() {
        lp.load_last_checkpoint(tr);
    }
    rep.digest = lp.digest();
    rep.pools_assessed = lp.engine().assessments().len();
    rep.effective_threads = lp.engine().effective_threads();
    rep.live_workers = lp.engine().live_workers();
    rep.checkpoint_bytes = lp.checkpoint_bytes();
    rep.log_events = lp.log_events();
    (rep.encode_ns, rep.decode_ns) = lp.finish(tr);
    (rep.counts, rep.recovery_ns) = lp.take_counts();
    rep.counts.checks += warmup.checks;
    rep.counts.check_failures += warmup.check_failures;
    tr.set_enabled(false);

    if traced && shape.threads == 1 {
        rep.pass_ns = lp.pass_ns();
        rep.pass_windows = shape.measured_windows;
    } else if traced {
        lp.set_threads(1);
        lp.enable_pass_timing();
        for _ in 0..segment {
            lp.window(tr);
        }
        rep.pass_ns = lp.pass_ns();
        rep.pass_windows = segment;
    }
    rep
}

/// Drives an untimed 1-thread twin through the warm-up and the prefix, and
/// returns its recommendation-stream digest.
fn twin_digest(opts: &Options, shape: Shape, prefix: u64) -> u64 {
    let windows = shape.warmup_windows + prefix;
    let mut tr = Tracer::new(false);
    let mut lp = ClosedLoop::new(opts.workload, shape, opts.seed, windows, 1, false);
    for _ in 0..windows {
        lp.window(&mut tr);
    }
    lp.digest()
}

/// Runs the workload and gathers its report.
pub fn run(opts: &Options) -> Report {
    let shape = opts.workload.shape(opts.length);
    let started = Instant::now();
    let mut tr = Tracer::new(false);
    let mut reps: Vec<Rep> = Vec::new();
    let needed = if opts.trace { 2 } else { 1 };
    let planned = planned_reps(&shape, opts.seconds);
    let mut peak_rss = 0.0;
    while reps.len() < needed
        || (reps.len() < planned && started.elapsed().as_secs_f64() < MAX_RUN_SECONDS)
    {
        let traced = opts.trace && reps.len() % 2 == 1;
        let rep = repetition(opts, shape, traced, &mut tr);
        if reps.is_empty() {
            // One repetition is one pass over the workload; later ones
            // only add allocator reuse.
            peak_rss = peak_rss_mb();
        }
        reps.push(rep);
    }
    let mut setups: Vec<f64> = reps.iter().map(|r| r.setup_ns as f64 / 1e9).collect();
    while !opts.trace
        && setups.len() < MIN_SETUPS
        && started.elapsed().as_secs_f64() < MAX_RUN_SECONDS
    {
        let windows = shape.warmup_windows + shape.measured_windows;
        setups.push(set_up(opts, shape, windows, &mut tr).1 as f64 / 1e9);
    }

    let mut text = String::new();
    let (pools, servers) = (reps[0].pools, reps[0].servers);
    let restarts = match shape.restart_every {
        Some(every) => format!("restart every {every} windows"),
        None => "no restart in the loop (the last checkpoint is loaded after it)".to_string(),
    };
    let _ = writeln!(
        text,
        "workload {}: seed {}, {pools} pools, {servers} servers, {} sweep thread(s), checkpoint every \
         {} windows, {restarts}, {} warm-up + {} measured windows per repetition, {} of {planned} \
         planned repetition(s){}",
        opts.workload.name(),
        opts.seed,
        shape.threads,
        shape.checkpoint_every,
        shape.warmup_windows,
        shape.measured_windows,
        reps.len(),
        if reps.len() < planned { " (cut short at the time limit)" } else { "" },
    );
    let _ = writeln!(text, "why: {}", opts.workload.why());
    for (i, r) in reps.iter().enumerate() {
        let window_ms: Vec<f64> = r.window_ns.iter().map(|&ns| ms(ns)).collect();
        let _ = writeln!(
            text,
            "repetition {i}{}: set-up {:.4} s, window p50 {:.4} ms",
            if r.traced { " (traced)" } else { "" },
            r.setup_ns as f64 / 1e9,
            median(&window_ms),
        );
    }

    // Output checks.
    let first = &reps[0];
    let mut checks = 0u64;
    let mut check_failures = 0u64;
    let mut check = |name: &str, ok: bool, text: &mut String| {
        checks += 1;
        check_failures += !ok as u64;
        let _ = writeln!(text, "check {name}: {}", if ok { "pass" } else { "FAIL" });
    };
    let same_stream = reps.iter().all(|r| {
        r.digest == first.digest
            && r.counts.server_hours == first.counts.server_hours
            && r.counts.urgent_pool_windows == first.counts.urgent_pool_windows
    });
    check("repetitions_identical", same_stream, &mut text);
    if let (Some(prefix), Some(live)) = (shape.twin_prefix, first.prefix_digest) {
        let twin = twin_digest(opts, shape, prefix);
        check("twin_1_thread_digest", twin == live, &mut text);
    }
    let restores: u64 = reps.iter().map(|r| r.counts.restarts).sum();
    let loop_checks: u64 = reps.iter().map(|r| r.counts.checks).sum();
    let loop_failures: u64 = reps.iter().map(|r| r.counts.check_failures).sum();
    let _ = writeln!(
        text,
        "check restores_byte_identical + event_log_round_trip + no_pool_diverged: {}/{} pass",
        loop_checks - loop_failures,
        loop_checks
    );
    let windows: u64 = reps.iter().map(|r| r.counts.windows).sum();
    let applies: u64 = reps.iter().map(|r| r.counts.applies).sum();
    let apply_failures: u64 = reps.iter().map(|r| r.counts.apply_failures).sum();
    let attempted = windows + applies + restores + loop_checks + checks;
    let failed = apply_failures + loop_failures + check_failures;

    let untraced: Vec<&Rep> = reps.iter().filter(|r| !r.traced).collect();
    let traced: Vec<&Rep> = reps.iter().filter(|r| r.traced).collect();
    let window_ms = |reps: &[&Rep]| -> Vec<f64> {
        reps.iter().flat_map(|r| r.window_ns.iter().map(|&ns| ms(ns))).collect()
    };
    let untraced_ms = window_ms(&untraced);
    let mut metrics = Vec::new();
    let mut push = |name: &'static str, value: f64| {
        let table: &[(&str, &str)] = if opts.trace { &PER_LAYER } else { &END_TO_END };
        let unit = table.iter().find(|(n, _)| *n == name).expect("metric is listed").1;
        metrics.push(Metric { name, value, unit });
    };
    let ops_failed_frac = failed as f64 / attempted as f64;

    if !opts.trace {
        let p = tail_percentile(untraced_ms.len());
        let busy_ns: u64 = untraced.iter().flat_map(|r| &r.window_ns).sum();
        let recovery: Vec<f64> =
            untraced.iter().flat_map(|r| r.recovery_ns.iter().map(|&ns| ms(ns))).collect();
        push("window_p50_ms", median(&untraced_ms));
        push("window_p99_ms", percentile(&untraced_ms, p));
        push(
            "pool_windows_per_s",
            (pools as u64 * untraced_ms.len() as u64) as f64 / (busy_ns as f64 / 1e9),
        );
        push("recovery_ms", median(&recovery));
        push("server_hours", first.counts.server_hours);
        push("urgent_pool_windows", first.counts.urgent_pool_windows as f64);
        push("peak_rss_mb", peak_rss);
        push("setup_s", median(&setups));
        let _ = writeln!(
            text,
            "window_p99_ms is the p{:.2} of {} measured windows (the highest percentile with at \
             least 10 beyond it); recovery_ms is the median of {} restores; setup_s is the median \
             of {} set-ups; ops_failed_frac = {failed}/{attempted} = {ops_failed_frac}",
            p * 100.0,
            untraced_ms.len(),
            recovery.len(),
            setups.len(),
        );
    } else {
        let traced_ms = window_ms(&traced);
        let p = tail_percentile(traced_ms.len()).min(0.99);
        // Per-window totals of one layer, across traced repetitions.
        let layer_ms = |layer: Layer| -> Vec<f64> {
            traced
                .iter()
                .flat_map(|r| r.layer_ns.iter().map(move |row| ms(row[layer as usize])))
                .collect()
        };
        // Individual spans of one layer (for the occasional ones).
        let span_ms = |layer: Layer| -> Vec<f64> {
            tr.spans().iter().filter(|s| s.layer == layer).map(|s| ms(s.ns())).collect()
        };
        let t = traced[0];
        let c = &t.counts;
        push("cluster.step_ms.p50", median(&layer_ms(Layer::ClusterStep)));
        push("cluster.step_ms.p99", percentile(&layer_ms(Layer::ClusterStep), p));
        push("cluster.servers", servers as f64);
        push("cluster.resizes_scheduled", c.resizes_scheduled as f64);
        push("online.observe_ms.p50", median(&layer_ms(Layer::OnlineObserve)));
        push("online.observe_ms.p99", percentile(&layer_ms(Layer::OnlineObserve), p));
        push("online.drain_ms.p50", median(&layer_ms(Layer::OnlineDrain)));
        push("online.pools_assessed", t.pools_assessed as f64);
        push("online.recs_emitted", c.recs_emitted as f64);
        let pass_ns = traced.iter().fold([0u64; PASS_COUNT], |mut acc, r| {
            for (a, ns) in acc.iter_mut().zip(r.pass_ns) {
                *a += ns;
            }
            acc
        });
        let pass_windows: u64 = traced.iter().map(|r| r.pass_windows).sum();
        const PASS_METRICS: [&str; PASS_COUNT] = [
            "online.pass.sim_kernel_ms",
            "online.pass.aggregate_ms",
            "online.pass.agg_ring_ms",
            "online.pass.totals_ms",
            "online.pass.alloc_ms",
            "online.pass.drift_ring_ms",
            "online.pass.scalar_ms",
            "online.pass.replan_ms",
        ];
        for (name, ns) in PASS_METRICS.iter().zip(pass_ns) {
            push(name, ms(ns) / pass_windows.max(1) as f64);
        }
        push("exec.effective_threads", t.effective_threads as f64);
        push("exec.live_workers", t.live_workers as f64);
        push("service.reconcile.ingest_ms.p50", median(&layer_ms(Layer::ReconcileIngest)));
        push("service.reconcile.tick_ms.p50", median(&layer_ms(Layer::ReconcileTick)));
        push("service.reconcile.tick_ms.p99", percentile(&layer_ms(Layer::ReconcileTick), p));
        push("service.reconcile.offers", c.offers as f64);
        push("service.reconcile.accepted", c.accepted as f64);
        push("service.reconcile.accept_ratio", c.accepted as f64 / c.offers.max(1) as f64);
        push("service.reconcile.applies", c.applies as f64);
        push("service.reconcile.apply_failures", c.apply_failures as f64);
        push("service.reconcile.converged_frac", c.converged_frac_sum / c.windows.max(1) as f64);
        push("service.checkpoint.save_ms.p50", median(&span_ms(Layer::CheckpointSave)));
        push("service.checkpoint.bytes", t.checkpoint_bytes as f64);
        push("service.checkpoint.saves", c.saves as f64);
        push("service.checkpoint.load_ms.p50", median(&span_ms(Layer::CheckpointLoad)));
        push("service.event_log.replay_ms.p50", median(&span_ms(Layer::EventLogReplay)));
        push("service.event_log.replayed_events", c.replayed_events as f64);
        push("service.event_log.append_ms.p50", median(&layer_ms(Layer::EventLogAppend)));
        push("service.event_log.events", t.log_events as f64);
        push(
            "service.event_log.encode_ms",
            median(&traced.iter().map(|r| ms(r.encode_ns)).collect::<Vec<_>>()),
        );
        push(
            "service.event_log.decode_ms",
            median(&traced.iter().map(|r| ms(r.decode_ns)).collect::<Vec<_>>()),
        );
        push("bench.unattributed_ms.p50", median(&layer_ms(Layer::Window)));
        push("bench.trace_overhead_frac", median(&traced_ms) / median(&untraced_ms) - 1.0);
        push("ops_failed_frac", ops_failed_frac);
        waterfall(&mut text, &traced, &traced_ms, &pass_ns, pass_windows);
    }

    let correct = failed == 0 && metrics.iter().all(|m| m.value.is_finite());
    let mut spans_csv = Vec::new();
    if opts.trace {
        tr.write_csv(&mut spans_csv).expect("writing to memory cannot fail");
    }
    Report { correct, attempted, failed, metrics, text, spans_csv }
}

/// Appends the traced window's waterfall: each layer's mean self time per
/// window and its share. The layers plus `bench.unattributed` sum to the
/// mean traced window.
fn waterfall(
    text: &mut String,
    traced: &[&Rep],
    traced_ms: &[f64],
    pass_ns: &[u64; PASS_COUNT],
    pass_windows: u64,
) {
    let n = traced_ms.len().max(1) as f64;
    let mean_window = traced_ms.iter().sum::<f64>() / n;
    let _ = writeln!(text, "waterfall of the mean traced window ({} windows):", traced_ms.len());
    let _ = writeln!(text, "  {:<28} {:>12} {:>8}", "layer", "self ms", "share");
    let mut total = 0.0;
    for layer in WINDOW_LAYERS {
        let self_ms: f64 = traced
            .iter()
            .flat_map(|r| r.layer_ns.iter().map(|row| ms(row[layer as usize])))
            .sum::<f64>()
            / n;
        total += self_ms;
        let name = if layer == Layer::Window { "bench.unattributed" } else { layer.name() };
        let _ =
            writeln!(text, "  {name:<28} {self_ms:>12.6} {:>7.2}%", 100.0 * self_ms / mean_window);
    }
    let _ = writeln!(text, "  {:<28} {total:>12.6} (mean window {mean_window:.6} ms)", "sum");
    let note = if pass_ns[0] > 0 {
        "under the streamed layout online.observe contains the simulator's metric kernels \
         (pass sim_kernel below)"
    } else {
        "on the aggregate path the simulator's metric kernels run in cluster.step"
    };
    let _ = writeln!(text, "  note: {note}");
    let _ = writeln!(text, "engine pass timers, {pass_windows} single-chunk windows at 1 thread:");
    for (name, ns) in PASS_NAMES.iter().zip(pass_ns) {
        let _ = writeln!(
            text,
            "  online.pass.{name:<18} {:>12.6} ms/window",
            ms(*ns) / pass_windows.max(1) as f64
        );
    }
}
