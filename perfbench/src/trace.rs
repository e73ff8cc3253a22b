//! In-memory spans around the public calls the benchmark makes.
//!
//! A [`Tracer`] records one [`Span`] per `begin`/`end` pair: its layer, its
//! start and end on a monotonic clock, and the span that was open when it
//! began (its parent). Each closed-loop window opens one root span,
//! [`Layer::Window`], so every layer span of that window hangs under it.
//! Spans stay in memory while the benchmark runs and are written out at the
//! end ([`Tracer::write_csv`]). A disabled tracer records nothing and costs
//! one branch per call, which is how the untraced run stays untraced.

use std::io::Write;
use std::time::Instant;

/// The layer boundaries the benchmark times: one per public call it makes
/// into `cluster`, `online` and `service`, plus the per-window root.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Root span of one closed-loop window.
    Window,
    /// `Simulation::step_*`: the simulator producing the window.
    ClusterStep,
    /// `PoolWindowAggregate::from_*`: telemetry reduced to per-pool
    /// aggregates on the external-ingest path.
    OnlineAggregate,
    /// `SweepEngine::observe_*`: the sweep over every pool.
    OnlineObserve,
    /// `SweepEngine::drain_recommendations`.
    OnlineDrain,
    /// `EventLog::record_*`.
    EventLogAppend,
    /// `Reconciler::ingest`.
    ReconcileIngest,
    /// `Reconciler::tick` against the simulator's actuator.
    ReconcileTick,
    /// `checkpoint::save`.
    CheckpointSave,
    /// `checkpoint::load` on a planner restart, or of the last checkpoint
    /// after the measured windows.
    CheckpointLoad,
    /// `event_log::replay` of the log tail on a planner restart.
    EventLogReplay,
    /// `EventLog::to_bytes` of the final log.
    EventLogEncode,
    /// `EventLog::from_bytes` of the final log.
    EventLogDecode,
}

impl Layer {
    /// Number of layers.
    pub const COUNT: usize = Layer::EventLogDecode as usize + 1;

    /// The span name: the crate, then the call.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Window => "bench.window",
            Layer::ClusterStep => "cluster.step",
            Layer::OnlineAggregate => "online.aggregate",
            Layer::OnlineObserve => "online.observe",
            Layer::OnlineDrain => "online.drain",
            Layer::EventLogAppend => "service.event_log.append",
            Layer::ReconcileIngest => "service.reconcile.ingest",
            Layer::ReconcileTick => "service.reconcile.tick",
            Layer::CheckpointSave => "service.checkpoint.save",
            Layer::CheckpointLoad => "service.checkpoint.load",
            Layer::EventLogReplay => "service.event_log.replay",
            Layer::EventLogEncode => "service.event_log.encode",
            Layer::EventLogDecode => "service.event_log.decode",
        }
    }
}

/// Marks no parent.
const NO_PARENT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The layer this span times.
    pub layer: Layer,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns (0 while the span is open).
    pub end_ns: u64,
    /// Index of the enclosing span, or `u32::MAX` for a root.
    pub parent: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle to an open span, returned by [`Tracer::begin`].
#[derive(Debug, Clone, Copy)]
#[must_use = "an open span must be ended"]
pub struct Open(u32);

/// Records spans when enabled; records nothing otherwise.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    /// A tracer that records spans only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, origin: Instant::now(), spans: Vec::new(), stack: Vec::new() }
    }

    /// Turns recording on or off between windows.
    pub fn set_enabled(&mut self, enabled: bool) {
        debug_assert!(self.stack.is_empty(), "toggled with a span open");
        self.enabled = enabled;
    }

    /// Opens a span for `layer`, nested under the innermost open span.
    pub fn begin(&mut self, layer: Layer) -> Open {
        if !self.enabled {
            return Open(NO_PARENT);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            layer,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
        });
        self.stack.push(id);
        Open(id)
    }

    /// Closes a span opened by [`Tracer::begin`]. Spans close innermost
    /// first.
    pub fn end(&mut self, open: Open) {
        if open.0 == NO_PARENT {
            return;
        }
        let top = self.stack.pop();
        assert_eq!(top, Some(open.0), "spans must close innermost first");
        self.spans[open.0 as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
    }

    /// Every span recorded so far, in begin order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Index the next recorded span will get.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Per-layer self time of the spans recorded since `mark`, in ns,
    /// indexed by `Layer as usize`. A span's self time is its duration
    /// minus the durations of its children, so the self times of a window
    /// root and everything under it sum to the root's duration.
    pub fn self_ns_since(&self, mark: usize) -> [u64; Layer::COUNT] {
        let spans = &self.spans[mark..];
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if s.parent != NO_PARENT && s.parent as usize >= mark {
                child_ns[s.parent as usize - mark] += s.ns();
            }
        }
        let mut out = [0u64; Layer::COUNT];
        for (s, children) in spans.iter().zip(child_ns) {
            out[s.layer as usize] += s.ns().saturating_sub(children);
        }
        out
    }

    /// Writes every span as CSV: `id,name,start_ns,end_ns,parent`, with an
    /// empty parent for roots.
    pub fn write_csv(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "id,name,start_ns,end_ns,parent")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT { String::new() } else { s.parent.to_string() };
            writeln!(out, "{i},{},{},{},{parent}", s.layer.name(), s.start_ns, s.end_ns)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_sum_to_the_root() {
        let mut tr = Tracer::new(true);
        let mark = tr.mark();
        let root = tr.begin(Layer::Window);
        let a = tr.begin(Layer::ClusterStep);
        tr.end(a);
        let b = tr.begin(Layer::OnlineObserve);
        std::hint::black_box((0..1000).sum::<u64>());
        tr.end(b);
        tr.end(root);
        let root_ns = tr.spans()[0].ns();
        let self_ns = tr.self_ns_since(mark);
        assert_eq!(self_ns.iter().sum::<u64>(), root_ns);
        assert_eq!(tr.spans()[1].parent, 0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let s = tr.begin(Layer::Window);
        tr.end(s);
        assert!(tr.spans().is_empty());
    }
}
