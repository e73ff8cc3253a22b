//! The two workloads and the closed loop that drives them.
//!
//! Every workload is a closed loop over 120-second telemetry windows: the
//! simulator produces window *w* only after the planner, the reconciler and
//! the service layer have finished window *w − 1*, and the resizes the
//! reconciler applies land in the simulator from the next window on. Each
//! step is one public call into `cluster`, `online` or `service`, wrapped in
//! a [`Tracer`] span.

use std::time::Instant;

use headroom_cluster::catalog::MicroserviceKind;
use headroom_cluster::scenario::FleetScenario;
use headroom_cluster::sim::{RecordingPolicy, SimConfig, Simulation, SnapshotLayout};
use headroom_cluster::topology::{Fleet, FleetBuilder};
use headroom_core::slo::QosRequirement;
use headroom_online::planner::{OnlinePlannerConfig, PoolWindowAggregate, ResizeRecommendation};
use headroom_online::sweep::{SweepEngine, PASS_COUNT};
use headroom_service::checkpoint;
use headroom_service::event_log::{replay, EventLog};
use headroom_service::reconcile::{
    ActuationError, Actuator, PoolState, Reconciler, ReconcilerConfig, SimActuator,
};
use headroom_stats::persist::{Persist, Writer};
use headroom_telemetry::ids::PoolId;
use headroom_telemetry::time::WINDOWS_PER_DAY;
use headroom_workload::events::daily_growth;
use headroom_workload::scenarios::regional_failover;

use crate::trace::{Layer, Tracer};

/// Datacenters (regions) in every workload's fleet.
pub const REGIONS: usize = 9;

/// Compound daily demand growth of `fleet_closed_loop`.
pub const GROWTH_PER_DAY: f64 = 0.04;

/// Windows per simulated hour.
const WINDOWS_PER_HOUR: u64 = WINDOWS_PER_DAY / 24;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// ~4k pools of 2 servers each: per-pool layers dominate.
    FleetClosedLoop,
    /// The paper fleet through a regional failover, with every observation
    /// logged and the planner killed and restored on a cadence.
    FailoverRestart,
}

impl Workload {
    /// Every workload, in the order the benchmark lists them.
    pub const ALL: [Workload; 2] = [Workload::FleetClosedLoop, Workload::FailoverRestart];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetClosedLoop => "fleet_closed_loop",
            Workload::FailoverRestart => "failover_restart",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload is in the benchmark.
    pub fn why(self) -> &'static str {
        match self {
            Workload::FleetClosedLoop => {
                "pools far outnumber servers per pool, so the per-pool layers (sweep, exec \
                 fan-out, reconciler, checkpoint size) dominate; per-pool and parallel-sweep \
                 optimisations show here"
            }
            Workload::FailoverRestart => {
                "the only workload where the service layer reads back what it writes: \
                 observation logging, hourly checkpoints, restores and replay, plus the \
                 failover's urgent grow burst through the reconciler"
            }
        }
    }

    /// The workload's fixed shape at `length`.
    pub fn shape(self, length: Length) -> Shape {
        let tiny = length == Length::Tiny;
        match self {
            Workload::FleetClosedLoop => Shape {
                deployments: if tiny { 18 } else { 455 },
                threads: 2,
                checkpoint_every: 6 * WINDOWS_PER_HOUR,
                restart_every: None,
                warmup_windows: if tiny { 200 } else { 240 },
                measured_windows: if tiny { 360 } else { 540 },
                rep_seconds: 10.0,
                ingest: Ingest::Engine,
                twin_prefix: Some(if tiny { 20 } else { 60 }),
            },
            Workload::FailoverRestart => Shape {
                deployments: MicroserviceKind::ALL.len(),
                threads: 1,
                checkpoint_every: WINDOWS_PER_HOUR,
                restart_every: Some(100),
                warmup_windows: if tiny { 200 } else { 240 },
                measured_windows: if tiny { 120 } else { 1200 },
                rep_seconds: 2.5,
                ingest: Ingest::Aggregates,
                twin_prefix: None,
            },
        }
    }
}

/// How long a workload runs: the benchmark's own length, or a tiny one for
/// smoke tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Length {
    /// The benchmark's measured length.
    Full,
    /// A few hundred windows on a reduced fleet.
    Tiny,
}

/// How telemetry reaches the planner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ingest {
    /// The simulator's snapshot goes straight into the engine, in the
    /// layout the simulation is configured for.
    Engine,
    /// The snapshot is reduced to per-pool aggregates first, which are
    /// appended to the event log and enter through `observe_aggregates`:
    /// the external-ingest path replay uses.
    Aggregates,
}

/// A workload's fixed parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shape {
    /// Catalog-service deployments, each one pool per region. Only
    /// `fleet_closed_loop` builds its fleet from it; the paper fleet deploys
    /// every catalog service once.
    pub deployments: usize,
    /// Sweep threads.
    pub threads: usize,
    /// Windows between checkpoints.
    pub checkpoint_every: u64,
    /// Windows between planner restarts (kill, load, replay) inside the
    /// loop. Without them, the last checkpoint is loaded after the measured
    /// windows instead.
    pub restart_every: Option<u64>,
    /// Closed-loop windows before measurement starts.
    pub warmup_windows: u64,
    /// Measured windows per repetition.
    pub measured_windows: u64,
    /// Seconds the measured windows of one repetition take on the 2-vCPU
    /// host the bounds were set on. A run of `--seconds s` plans
    /// `s / rep_seconds` repetitions, so its sample count does not depend
    /// on the speed of the host it runs on.
    pub rep_seconds: f64,
    /// How telemetry reaches the planner. Recommendations are always
    /// logged; observations only on the aggregate path.
    pub ingest: Ingest,
    /// Measured windows whose recommendation stream is compared against an
    /// untimed 1-thread twin.
    pub twin_prefix: Option<u64>,
}

/// Counts over one repetition's measured windows. Every field is a
/// deterministic function of the workload and seed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LoopCounts {
    /// Windows run.
    pub windows: u64,
    /// Σ active servers × window length, in hours.
    pub server_hours: f64,
    /// Σ urgent pools per window.
    pub urgent_pool_windows: u64,
    /// Recommendations drained from the planner.
    pub recs_emitted: u64,
    /// Recommendations offered to the reconciler.
    pub offers: u64,
    /// Offers the reconciler accepted as new targets.
    pub accepted: u64,
    /// Applies the reconciler issued.
    pub applies: u64,
    /// Applies that failed.
    pub apply_failures: u64,
    /// Resizes the simulator scheduled.
    pub resizes_scheduled: u64,
    /// Σ converged ÷ managed pools after each tick.
    pub converged_frac_sum: f64,
    /// Checkpoints saved.
    pub saves: u64,
    /// Planner restarts, and loads of the last checkpoint after the
    /// measured windows.
    pub restarts: u64,
    /// Log events replayed on restarts.
    pub replayed_events: u64,
    /// Output checks run.
    pub checks: u64,
    /// Output checks that failed.
    pub check_failures: u64,
}

/// A simulation plus everything the planner side keeps across windows.
pub struct ClosedLoop {
    shape: Shape,
    /// Whether checkpoints and restarts run (off for the untimed twin).
    service: bool,
    sim: Simulation,
    engine: SweepEngine,
    reconciler: Reconciler,
    log: EventLog,
    /// Physical pool sizes, indexed by pool id: the ceiling a grow
    /// recommendation is clamped to before it is offered.
    pool_sizes: Vec<usize>,
    pools: usize,
    servers: usize,
    aggregates: Vec<(PoolId, PoolWindowAggregate)>,
    offers: Vec<ResizeRecommendation>,
    checkpoint: Vec<u8>,
    /// Log length when `checkpoint` was saved: replay starts there.
    checkpoint_log_len: usize,
    windows: u64,
    digest: u64,
    pass_timing: bool,
    retired_pass_ns: [u64; PASS_COUNT],
    /// Counts since the last [`ClosedLoop::take_counts`].
    counts: LoopCounts,
    /// Durations of the restarts since the last take, ns.
    recovery_ns: Vec<u64>,
}

/// The planner's per-pool QoS: the catalog latency SLO and a 90% CPU
/// ceiling.
fn engine_for(fleet: &Fleet, config: OnlinePlannerConfig) -> SweepEngine {
    let mut engine = SweepEngine::new(config, QosRequirement::latency(50.0).with_cpu_ceiling(90.0));
    for pool in fleet.pools() {
        engine.set_qos(
            pool.id,
            QosRequirement::latency(pool.service.spec().latency_slo_ms).with_cpu_ceiling(90.0),
        );
    }
    engine
}

/// Builds the workload's simulation for `seed`, with events covering
/// `windows` windows.
fn simulation(workload: Workload, shape: &Shape, seed: u64, windows: u64) -> Simulation {
    let days = windows.div_ceil(WINDOWS_PER_DAY) + 1;
    match workload {
        Workload::FleetClosedLoop => {
            let mut builder = FleetBuilder::new(seed).datacenters(REGIONS);
            for i in 0..shape.deployments {
                let spec = MicroserviceKind::ALL[i % MicroserviceKind::ALL.len()].spec();
                builder = builder
                    .deploy_with_spec(&spec, 2, spec.peak_rps_per_server)
                    .expect("datacenters were added");
            }
            let config =
                SimConfig { seed, recording: RecordingPolicy::SnapshotOnly, ..Default::default() };
            Simulation::new(builder.build(), daily_growth(GROWTH_PER_DAY, days), config)
        }
        Workload::FailoverRestart => FleetScenario::paper_scale(seed, 1.0)
            .with_recording(RecordingPolicy::SnapshotOnly)
            .with_scenario(&regional_failover(seed, REGIONS as u16))
            .into_simulation(),
    }
}

/// Steps the simulator one window and feeds it to the planner.
///
/// This is the only function that knows the simulator has several snapshot
/// layouts: it maps `SimConfig::layout` to the matching `step_*`/`observe_*`
/// pair. On the aggregate path it reduces the window to per-pool aggregates,
/// appends them to `log`, and feeds them to `observe_aggregates`.
/// Under the default streamed layout, `observe_streamed` evaluates the
/// simulator's metric kernels inside the sweep, so the `online.observe`
/// span holds them.
fn step_and_observe(
    sim: &mut Simulation,
    engine: &mut SweepEngine,
    ingest: Ingest,
    aggregates: &mut Vec<(PoolId, PoolWindowAggregate)>,
    log: &mut EventLog,
    tr: &mut Tracer,
) {
    let layout = sim.config().layout;
    if ingest == Ingest::Engine {
        let span = tr.begin(Layer::ClusterStep);
        match layout {
            SnapshotLayout::Streamed => {
                let win = sim.step_streamed();
                tr.end(span);
                let span = tr.begin(Layer::OnlineObserve);
                engine.observe_streamed(&win);
                tr.end(span);
            }
            SnapshotLayout::Columnar => {
                let snap = sim.step_columns_partitioned();
                tr.end(span);
                let span = tr.begin(Layer::OnlineObserve);
                engine.observe_columns(&snap);
                tr.end(span);
            }
            SnapshotLayout::Rows => {
                let snap = sim.step_snapshot_partitioned();
                tr.end(span);
                let span = tr.begin(Layer::OnlineObserve);
                engine.observe_partitioned(&snap);
                tr.end(span);
            }
        }
        return;
    }
    // Streamed kernels evaluate only inside the engine, so the aggregate
    // path reads the materialised columns for both column layouts.
    aggregates.clear();
    let span = tr.begin(Layer::ClusterStep);
    let window = if layout == SnapshotLayout::Rows {
        let snap = sim.step_snapshot();
        tr.end(span);
        let span = tr.begin(Layer::OnlineAggregate);
        aggregates.extend(PoolWindowAggregate::from_snapshot(&snap));
        tr.end(span);
        snap.window
    } else {
        let snap = sim.step_columns_partitioned();
        tr.end(span);
        let span = tr.begin(Layer::OnlineAggregate);
        aggregates.extend(snap.pools.iter().filter_map(|slice| {
            PoolWindowAggregate::from_columns(snap.window, snap.columns, slice.start, slice.len)
                .map(|agg| (slice.pool, agg))
        }));
        tr.end(span);
        snap.window
    };
    let span = tr.begin(Layer::EventLogAppend);
    log.record_observations(window, aggregates);
    tr.end(span);
    let span = tr.begin(Layer::OnlineObserve);
    engine.observe_aggregates(window, aggregates);
    tr.end(span);
}

/// The simulator actuator, counting the resizes it schedules.
struct CountingActuator<'a> {
    inner: SimActuator<'a>,
    scheduled: u64,
}

impl Actuator for CountingActuator<'_> {
    fn apply(&mut self, pool: PoolId, target: usize) -> Result<(), ActuationError> {
        self.inner.apply(pool, target)?;
        self.scheduled += 1;
        Ok(())
    }

    fn actual(&self, pool: PoolId) -> Option<usize> {
        self.inner.actual(pool)
    }
}

/// FNV-1a, folded over the bytes of each window's recommendations.
fn fold_digest(digest: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(digest, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

impl ClosedLoop {
    /// Builds the workload's fleet and planner for `seed`, sized for
    /// `windows` windows of events. `threads` overrides the shape's sweep
    /// threads; `service` turns checkpoints and restarts on.
    pub fn new(
        workload: Workload,
        shape: Shape,
        seed: u64,
        windows: u64,
        threads: usize,
        service: bool,
    ) -> Self {
        let sim = simulation(workload, &shape, seed, windows);
        let config = OnlinePlannerConfig { threads, ..OnlinePlannerConfig::default() };
        let engine = engine_for(sim.fleet(), config);
        let pools = sim.fleet().pools();
        let mut pool_sizes = vec![0; pools.iter().map(|p| p.id.0 as usize + 1).max().unwrap_or(0)];
        for p in pools {
            pool_sizes[p.id.0 as usize] = p.size();
        }
        ClosedLoop {
            shape,
            service,
            pools: pools.len(),
            servers: sim.fleet().server_count(),
            sim,
            engine,
            reconciler: Reconciler::new(ReconcilerConfig::default()),
            log: EventLog::new(),
            pool_sizes,
            aggregates: Vec::new(),
            offers: Vec::new(),
            checkpoint: Vec::new(),
            checkpoint_log_len: 0,
            windows: 0,
            digest: 0xcbf2_9ce4_8422_2325,
            pass_timing: false,
            retired_pass_ns: [0; PASS_COUNT],
            counts: LoopCounts::default(),
            recovery_ns: Vec::new(),
        }
    }

    /// Pools in the fleet.
    pub fn pools(&self) -> usize {
        self.pools
    }

    /// Servers in the fleet.
    pub fn servers(&self) -> usize {
        self.servers
    }

    /// The planner.
    pub fn engine(&self) -> &SweepEngine {
        &self.engine
    }

    /// Digest of every recommendation drained so far.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Size of the latest checkpoint, bytes.
    pub fn checkpoint_bytes(&self) -> usize {
        self.checkpoint.len()
    }

    /// Events in the event log.
    pub fn log_events(&self) -> usize {
        self.log.len()
    }

    /// Takes the counts and restart durations gathered so far.
    pub fn take_counts(&mut self) -> (LoopCounts, Vec<u64>) {
        (std::mem::take(&mut self.counts), std::mem::take(&mut self.recovery_ns))
    }

    /// Runs one closed-loop window and returns its wall time in ns: step,
    /// observe, drain, log append, reconciler ingest and tick, and the
    /// checkpoint and the restart when they are due. The check of the
    /// restored engine, the digest and the server-hour and urgency readouts
    /// run after the timed section.
    pub fn window(&mut self, tr: &mut Tracer) -> u64 {
        let start = Instant::now();
        let root = tr.begin(Layer::Window);
        step_and_observe(
            &mut self.sim,
            &mut self.engine,
            self.shape.ingest,
            &mut self.aggregates,
            &mut self.log,
            tr,
        );
        let span = tr.begin(Layer::OnlineDrain);
        let recs = self.engine.drain_recommendations();
        tr.end(span);
        let span = tr.begin(Layer::EventLogAppend);
        self.log.record_recommendations(&recs);
        tr.end(span);

        // A grow past the pool's physical size cannot be actuated; offer
        // what can.
        self.offers.clear();
        self.offers.extend(recs.iter().map(|&rec| ResizeRecommendation {
            to_servers: rec.to_servers.clamp(1, self.pool_sizes[rec.pool.0 as usize]),
            ..rec
        }));
        let span = tr.begin(Layer::ReconcileIngest);
        let accepted = self.reconciler.ingest(&self.offers);
        tr.end(span);
        let span = tr.begin(Layer::ReconcileTick);
        let mut actuator =
            CountingActuator { inner: SimActuator::new(&mut self.sim), scheduled: 0 };
        let report = self.reconciler.tick(&mut actuator);
        let scheduled = actuator.scheduled;
        tr.end(span);

        self.windows += 1;
        let checkpoint_due =
            self.service && self.windows.is_multiple_of(self.shape.checkpoint_every);
        if checkpoint_due {
            let span = tr.begin(Layer::CheckpointSave);
            self.checkpoint = checkpoint::save(&self.engine);
            tr.end(span);
            self.checkpoint_log_len = self.log.len();
        }
        // A restart stalls the window it happens in.
        let restart_due = self.service
            && self.shape.restart_every.is_some_and(|every| self.windows.is_multiple_of(every));
        let restored = if restart_due { self.restore(tr) } else { None };
        tr.end(root);
        let ns = start.elapsed().as_nanos() as u64;

        let c = &mut self.counts;
        c.windows += 1;
        c.recs_emitted += recs.len() as u64;
        c.offers += self.offers.len() as u64;
        c.accepted += accepted as u64;
        c.applies += report.applies as u64;
        c.apply_failures += report.failures as u64;
        c.resizes_scheduled += scheduled;
        let managed = report.converged + report.converging + report.diverged;
        if managed > 0 {
            c.converged_frac_sum += report.converged as f64 / managed as f64;
        }
        c.saves += checkpoint_due as u64;
        let active: usize = self.sim.fleet().pools().iter().map(|p| p.active_count()).sum();
        c.server_hours += active as f64 / WINDOWS_PER_HOUR as f64;
        c.urgent_pool_windows += self.engine.assessments().urgent_count() as u64;

        let mut w = Writer::new();
        w.put_usize(recs.len());
        for rec in &recs {
            rec.persist(&mut w);
        }
        self.digest = fold_digest(self.digest, &w.into_bytes());

        if restart_due {
            self.adopt(restored);
        }
        ns
    }

    /// Restarts the planner as a killed process would: `checkpoint::load`
    /// of the last checkpoint plus `event_log::replay` of the log since it.
    /// `None` when the checkpoint does not decode.
    fn restore(&mut self, tr: &mut Tracer) -> Option<SweepEngine> {
        let start = Instant::now();
        let span = tr.begin(Layer::CheckpointLoad);
        let loaded = checkpoint::load(&self.checkpoint);
        tr.end(span);
        let engine = loaded.ok()?;
        let tail = &self.log.events()[self.checkpoint_log_len..];
        let span = tr.begin(Layer::EventLogReplay);
        let outcome = replay(engine, tail);
        tr.end(span);
        self.recovery_ns.push(start.elapsed().as_nanos() as u64);
        self.counts.replayed_events += tail.len() as u64;
        Some(outcome.engine)
    }

    /// Loads the last checkpoint as a restarted planner would, outside any
    /// window, and checks that the loaded engine checkpoints to the same
    /// bytes. For workloads without restarts inside the loop: their log
    /// holds only recommendations, so the tail since the checkpoint cannot
    /// be replayed and the live engine is not restored.
    pub fn load_last_checkpoint(&mut self, tr: &mut Tracer) {
        let start = Instant::now();
        let span = tr.begin(Layer::CheckpointLoad);
        let loaded = checkpoint::load(&self.checkpoint);
        tr.end(span);
        self.recovery_ns.push(start.elapsed().as_nanos() as u64);
        self.counts.restarts += 1;
        self.counts.checks += 1;
        let same = loaded.is_ok_and(|engine| checkpoint::save(&engine) == self.checkpoint);
        self.counts.check_failures += !same as u64;
    }

    /// Replaces the live engine with the restored one, after checking that
    /// it checkpoints to the same bytes as the live engine.
    fn adopt(&mut self, restored: Option<SweepEngine>) {
        self.counts.restarts += 1;
        self.counts.checks += 1;
        let Some(mut restored) = restored else {
            self.counts.check_failures += 1;
            return;
        };
        // With an empty tail the live engine is still in the checkpointed
        // state, so the checkpoint's own bytes stand for it.
        let tail_empty = self.checkpoint_log_len == self.log.len();
        let live = if tail_empty { None } else { Some(checkpoint::save(&self.engine)) };
        if checkpoint::save(&restored) != *live.as_ref().unwrap_or(&self.checkpoint) {
            self.counts.check_failures += 1;
            return;
        }
        if self.pass_timing {
            restored.enable_pass_timing();
            for (acc, ns) in self.retired_pass_ns.iter_mut().zip(self.engine.pass_ns()) {
                *acc += ns;
            }
        }
        self.engine = restored;
    }

    /// Starts the engine's per-pass timers (traced runs only).
    pub fn enable_pass_timing(&mut self) {
        self.pass_timing = true;
        self.retired_pass_ns = [0; PASS_COUNT];
        self.engine.enable_pass_timing();
    }

    /// Per-pass ns since [`ClosedLoop::enable_pass_timing`], across
    /// restarts.
    pub fn pass_ns(&self) -> [u64; PASS_COUNT] {
        let mut out = self.retired_pass_ns;
        for (acc, ns) in out.iter_mut().zip(self.engine.pass_ns()) {
            *acc += ns;
        }
        out
    }

    /// Changes the sweep's thread count (an execution knob: outputs are
    /// identical for every setting).
    pub fn set_threads(&mut self, threads: usize) {
        self.engine.set_threads(threads);
    }

    /// Checks the end-of-run invariants: no pool diverged, and the event
    /// log round-trips through its byte form. Returns the encode and decode
    /// times, ns.
    pub fn finish(&mut self, tr: &mut Tracer) -> (u64, u64) {
        self.counts.checks += 2;
        let diverged = self.reconciler.states().any(|(_, s)| s == PoolState::Diverged);
        self.counts.check_failures += diverged as u64;
        let start = Instant::now();
        let span = tr.begin(Layer::EventLogEncode);
        let bytes = self.log.to_bytes();
        tr.end(span);
        let encode_ns = start.elapsed().as_nanos() as u64;
        let start = Instant::now();
        let span = tr.begin(Layer::EventLogDecode);
        let decoded = EventLog::from_bytes(&bytes);
        tr.end(span);
        let decode_ns = start.elapsed().as_nanos() as u64;
        if decoded.as_ref() != Ok(&self.log) {
            self.counts.check_failures += 1;
        }
        (encode_ns, decode_ns)
    }
}
