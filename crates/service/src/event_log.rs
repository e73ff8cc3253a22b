//! Append-only event log: the planner's inputs and outputs as sequenced,
//! self-describing envelopes.
//!
//! Every observation the planner consumes and every recommendation or
//! assessment it produces is recorded as an [`EventEnvelope`]: a globally
//! dense event id, the window it belongs to, the pool it touches, and a
//! per-pool monotonic sequence number. Two properties follow:
//!
//! - **Audit**: "why did pool 1731 shrink at window 5040" is answered by
//!   filtering the log for that pool and reading the observation events
//!   leading up to the recommendation event — nothing else is needed.
//! - **Recovery**: because the sweep engine is a deterministic function of
//!   its observation stream, [`replay`]ing the logged observations through
//!   a fresh engine re-derives the planner's entire output — recommendation
//!   for recommendation, bit for bit (property-tested across thread counts
//!   and execution modes). The log *is* a checkpoint, traded the other way:
//!   larger and slower to restore than [`crate::checkpoint`], but
//!   incremental to write and human-auditable.
//!
//! The serialized form reuses the checkpoint frame (magic `b"HREL"`,
//! version 2, [`checksum64`](headroom_stats::persist::checksum64) of the
//! payload, length) around a length-prefixed envelope array, and decoding
//! re-validates both sequencing invariants.

use std::collections::BTreeMap;

use headroom_online::planner::{PoolAssessment, PoolWindowAggregate, ResizeRecommendation};
use headroom_online::sweep::SweepEngine;
use headroom_stats::persist::{Persist, PersistError, Reader, Writer};
use headroom_telemetry::ids::PoolId;
use headroom_telemetry::time::WindowIndex;

use crate::checkpoint::{frame, unframe, CheckpointError};

/// First four bytes of a serialized event log.
pub const EVENT_LOG_MAGIC: [u8; 4] = *b"HREL";

/// Current event-log format version (v2: the frame checksum went from
/// FNV-1a 64 to `checksum64`, as in checkpoint v4).
pub const EVENT_LOG_VERSION: u32 = 2;

/// What an event carries.
#[derive(Debug, Clone, PartialEq)]
pub enum EventPayload {
    /// One pool's aggregate observation for one window (planner input).
    Observation(PoolWindowAggregate),
    /// A sizing change the planner emitted (planner output).
    Recommendation(ResizeRecommendation),
    /// A full per-pool assessment snapshot (planner output, optional —
    /// logged when an auditor wants the *why* next to the *what*).
    Assessment(PoolAssessment),
}

impl Persist for EventPayload {
    fn persist(&self, w: &mut Writer) {
        match self {
            EventPayload::Observation(a) => {
                w.put_u8(0);
                a.persist(w);
            }
            EventPayload::Recommendation(r) => {
                w.put_u8(1);
                r.persist(w);
            }
            EventPayload::Assessment(a) => {
                w.put_u8(2);
                a.persist(w);
            }
        }
    }

    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(match r.take_u8()? {
            0 => EventPayload::Observation(PoolWindowAggregate::restore(r)?),
            1 => EventPayload::Recommendation(ResizeRecommendation::restore(r)?),
            2 => EventPayload::Assessment(PoolAssessment::restore(r)?),
            _ => return Err(PersistError::Invalid("unknown EventPayload tag")),
        })
    }
}

/// One sequenced log entry.
#[derive(Debug, Clone, PartialEq)]
pub struct EventEnvelope {
    /// Log-global id: dense, ascending from zero.
    pub event_id: u64,
    /// The window this event belongs to.
    pub window: WindowIndex,
    /// The pool this event touches.
    pub pool: PoolId,
    /// Per-pool monotonic sequence: the n-th event touching this pool,
    /// counted from zero. Lets a per-pool consumer detect gaps without
    /// scanning the whole log.
    pub pool_seq: u64,
    /// The event itself.
    pub payload: EventPayload,
}

impl Persist for EventEnvelope {
    fn persist(&self, w: &mut Writer) {
        w.put_u64(self.event_id);
        w.put_u64(self.window.0);
        w.put_u32(self.pool.0);
        w.put_u64(self.pool_seq);
        self.payload.persist(w);
    }

    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(EventEnvelope {
            event_id: r.take_u64()?,
            window: WindowIndex(r.take_u64()?),
            pool: PoolId(r.take_u32()?),
            pool_seq: r.take_u64()?,
            payload: EventPayload::restore(r)?,
        })
    }
}

/// The append-only log. Construction is append-only by design: events get
/// their ids and per-pool sequence numbers at record time and are never
/// renumbered or removed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EventLog {
    events: Vec<EventEnvelope>,
    pool_seqs: BTreeMap<PoolId, u64>,
}

impl EventLog {
    /// An empty log.
    pub fn new() -> Self {
        EventLog::default()
    }

    /// Events recorded so far, in order.
    pub fn events(&self) -> &[EventEnvelope] {
        &self.events
    }

    /// Number of events recorded.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    fn push(&mut self, window: WindowIndex, pool: PoolId, payload: EventPayload) {
        let seq = self.pool_seqs.entry(pool).or_insert(0);
        self.events.push(EventEnvelope {
            event_id: self.events.len() as u64,
            window,
            pool,
            pool_seq: *seq,
            payload,
        });
        *seq += 1;
    }

    /// Records one window's observations (planner input), in the given
    /// order — pass the same slice that goes to
    /// [`SweepEngine::observe_aggregates`] and the log captures exactly
    /// what the planner saw.
    pub fn record_observations(
        &mut self,
        window: WindowIndex,
        aggregates: &[(PoolId, PoolWindowAggregate)],
    ) {
        for &(pool, agg) in aggregates {
            self.push(window, pool, EventPayload::Observation(agg));
        }
    }

    /// Records drained recommendations (planner output).
    pub fn record_recommendations(&mut self, recommendations: &[ResizeRecommendation]) {
        for rec in recommendations {
            self.push(rec.window, rec.pool, EventPayload::Recommendation(*rec));
        }
    }

    /// Records one pool's assessment snapshot (planner output).
    pub fn record_assessment(&mut self, pool: PoolId, assessment: &PoolAssessment) {
        self.push(assessment.window, pool, EventPayload::Assessment(assessment.clone()));
    }

    /// Serializes the log into its framed binary form.
    pub fn to_bytes(&self) -> Vec<u8> {
        frame(EVENT_LOG_MAGIC, EVENT_LOG_VERSION, |w| self.events.persist(w))
    }

    /// Decodes a log serialized by [`EventLog::to_bytes`], re-validating
    /// both sequencing invariants (dense ascending event ids, per-pool
    /// monotonic sequence numbers).
    ///
    /// # Errors
    ///
    /// Any [`CheckpointError`] — the event log shares the checkpoint frame,
    /// so the same magic/version/checksum/truncation checks apply, plus
    /// [`CheckpointError::Codec`] when an envelope or the sequencing is
    /// corrupt.
    pub fn from_bytes(bytes: &[u8]) -> Result<EventLog, CheckpointError> {
        let payload = unframe(EVENT_LOG_MAGIC, &[EVENT_LOG_VERSION], bytes)?;
        let mut r = Reader::new(payload);
        let events: Vec<EventEnvelope> = Vec::restore(&mut r)?;
        if !r.is_empty() {
            return Err(CheckpointError::TrailingBytes(r.remaining()));
        }
        let mut pool_seqs: BTreeMap<PoolId, u64> = BTreeMap::new();
        for (i, event) in events.iter().enumerate() {
            if event.event_id != i as u64 {
                return Err(PersistError::Invalid("event ids not dense ascending").into());
            }
            let seq = pool_seqs.entry(event.pool).or_insert(0);
            if event.pool_seq != *seq {
                return Err(PersistError::Invalid("per-pool sequence broken").into());
            }
            *seq += 1;
        }
        Ok(EventLog { events, pool_seqs })
    }
}

/// What [`replay`] produced.
#[derive(Debug)]
pub struct ReplayOutcome {
    /// The engine after consuming every logged observation — state-identical
    /// to the live engine at the same point in the stream.
    pub engine: SweepEngine,
    /// Every recommendation the replayed engine emitted, in order.
    pub recommendations: Vec<ResizeRecommendation>,
}

/// Re-derives the planner's outputs from the log alone.
///
/// Feeds every logged observation through `engine` (a fresh engine built
/// with the live run's config and QoS table), batching consecutive
/// observation events of the same window into one
/// [`SweepEngine::observe_aggregates`] call — exactly the shape the live
/// run used — and draining after each window. Logged output events
/// (recommendations, assessments) are skipped: they are what replay
/// re-derives, not what it consumes.
///
/// Determinism makes this exact: the returned recommendations equal the
/// live run's byte for byte, and the returned engine checkpoints to the
/// same bytes as the live engine (given equal configs).
pub fn replay(mut engine: SweepEngine, events: &[EventEnvelope]) -> ReplayOutcome {
    let mut recommendations = Vec::new();
    let mut batch: Vec<(PoolId, PoolWindowAggregate)> = Vec::new();
    let mut batch_window = WindowIndex(0);
    for event in events {
        let agg = match &event.payload {
            EventPayload::Observation(agg) => *agg,
            _ => continue,
        };
        if !batch.is_empty() && event.window != batch_window {
            engine.observe_aggregates(batch_window, &batch);
            recommendations.extend(engine.drain_recommendations());
            batch.clear();
        }
        batch_window = event.window;
        batch.push((event.pool, agg));
    }
    if !batch.is_empty() {
        engine.observe_aggregates(batch_window, &batch);
        recommendations.extend(engine.drain_recommendations());
    }
    ReplayOutcome { engine, recommendations }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint;
    use crate::testutil::{assert_every_bit_flip_rejected, engine, test_config, window_aggregates};
    use headroom_online::planner::{OnlinePlannerConfig, SweepExec};
    use proptest::prelude::*;

    /// Drives a live engine `windows` windows, logging inputs and outputs.
    fn logged_run(mut live: SweepEngine, windows: u64) -> (SweepEngine, EventLog) {
        let mut log = EventLog::new();
        for w in 0..windows {
            let aggs = window_aggregates(w);
            log.record_observations(WindowIndex(w), &aggs);
            live.observe_aggregates(WindowIndex(w), &aggs);
            log.record_recommendations(&live.drain_recommendations());
        }
        (live, log)
    }

    #[test]
    fn sequencing_invariants_hold() {
        let (_, log) = logged_run(engine(test_config(0)), 40);
        assert!(!log.is_empty());
        for (i, event) in log.events().iter().enumerate() {
            assert_eq!(event.event_id, i as u64);
        }
        let mut seqs: BTreeMap<PoolId, u64> = BTreeMap::new();
        for event in log.events() {
            let seq = seqs.entry(event.pool).or_insert(0);
            assert_eq!(event.pool_seq, *seq);
            *seq += 1;
        }
    }

    #[test]
    fn serialization_roundtrips() {
        let (live, mut log) = logged_run(engine(test_config(0)), 40);
        // Mix an assessment event in.
        let assessment = live.assessments().values().next().expect("pools planned").clone();
        log.record_assessment(assessment.sizing.pool, &assessment);
        let decoded = EventLog::from_bytes(&log.to_bytes()).expect("clean log decodes");
        assert_eq!(decoded, log);
    }

    #[test]
    fn decode_rejects_broken_sequencing() {
        let (_, log) = logged_run(engine(test_config(0)), 20);
        let mut events = log.events().to_vec();
        events[3].pool_seq += 1;
        let bytes = frame(EVENT_LOG_MAGIC, EVENT_LOG_VERSION, |w| events.persist(w));
        assert_eq!(
            EventLog::from_bytes(&bytes),
            Err(PersistError::Invalid("per-pool sequence broken").into())
        );
    }

    #[test]
    fn rejects_previous_version() {
        let (_, log) = logged_run(engine(test_config(0)), 3);
        let mut bytes = log.to_bytes();
        bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
        assert_eq!(EventLog::from_bytes(&bytes), Err(CheckpointError::UnsupportedVersion(1)));
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        let (_, log) = logged_run(engine(test_config(0)), 1);
        assert_every_bit_flip_rejected(&log.to_bytes(), EventLog::from_bytes);
    }

    #[test]
    fn checkpoint_magic_is_not_an_event_log() {
        let mut live = engine(test_config(0));
        crate::testutil::drive(&mut live, 0, 10);
        let bytes = checkpoint::save(&live);
        assert_eq!(EventLog::from_bytes(&bytes), Err(CheckpointError::BadMagic));
    }

    #[test]
    fn replay_rederives_the_live_run() {
        let (live, log) = logged_run(engine(test_config(2)), 120);
        let outcome = replay(engine(test_config(2)), log.events());
        let logged: Vec<ResizeRecommendation> = log
            .events()
            .iter()
            .filter_map(|e| match &e.payload {
                EventPayload::Recommendation(r) => Some(*r),
                _ => None,
            })
            .collect();
        assert!(!logged.is_empty(), "the run emitted recommendations");
        assert_eq!(outcome.recommendations, logged);
        // State equality, bit for bit, via the checkpoint encoding.
        assert_eq!(checkpoint::save(&outcome.engine), checkpoint::save(&live));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Satellite invariant: replaying a logged run is *byte-identical*
        /// to the live run — recommendations and final checkpoint bytes —
        /// for any thread count 1–8 and either execution mode on the live
        /// side (the replay side always runs sequentially, which is the
        /// point: the log alone reproduces a parallel run's output).
        #[test]
        fn replay_is_byte_identical_across_exec(
            threads in 1usize..9,
            scoped in any::<bool>(),
            dwell in 0u64..4,
            windows in 40u64..100,
        ) {
            let exec = if scoped { SweepExec::Scoped } else { SweepExec::Persistent };
            let config = OnlinePlannerConfig { threads, exec, ..test_config(dwell) };
            let (live, log) = logged_run(engine(config), windows);
            let outcome = replay(engine(config), log.events());
            let logged: Vec<ResizeRecommendation> = log
                .events()
                .iter()
                .filter_map(|e| match &e.payload {
                    EventPayload::Recommendation(r) => Some(*r),
                    _ => None,
                })
                .collect();
            prop_assert_eq!(&outcome.recommendations, &logged);
            prop_assert_eq!(checkpoint::save(&outcome.engine), checkpoint::save(&live));
        }
    }
}
