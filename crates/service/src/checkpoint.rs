//! Versioned, checksummed planner checkpoints.
//!
//! A checkpoint is the [`headroom_stats::Persist`] encoding of a
//! [`SweepEngine`] wrapped in a small self-describing frame:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"HRCP"
//! 4       4     format version, u32 LE (currently 5)
//! 8       8     checksum64 (XXH64) of the payload, u64 LE
//! 16      8     payload length in bytes, u64 LE
//! 24      n     payload: SweepEngine::persist
//! ```
//!
//! The frame is what makes the bytes safe to park on disk: a reader can
//! reject a foreign file (magic), a future format it does not understand
//! (version), a torn or bit-flipped write (checksum, length), and junk
//! appended by a concatenating copy (trailing bytes) — all *before* the
//! payload decoder runs. Writing the frame never copies the payload: the
//! engine encodes straight into the frame buffer behind a header
//! placeholder, and the checksum and length are patched in afterwards.
//!
//! The payload itself is the engine's logical state only; worker threads
//! and scratch buffers are rebuilt lazily on the first sweep after
//! [`load`], which is why a checkpoint taken at `threads = 8` restores
//! bit-identically at `threads = 1` (or under the other
//! [`headroom_online::SweepExec`] mode).

use headroom_online::sweep::SweepEngine;
use headroom_stats::persist::{checksum64, Persist, PersistError, Reader, Writer};

/// First four bytes of every checkpoint file.
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"HRCP";

/// Current checkpoint format version. Bumped whenever the frame or the
/// payload encoding changes shape (v3: `StreamingLinReg` moved from
/// centered moments to shift-pinned power sums; v4: the frame checksum
/// went from FNV-1a 64 to [`checksum64`]; v5: each pool's totals window
/// is persisted as its finite-value count plus the top-K tail the p99
/// peak reads, instead of the whole sorted window); [`load`] refuses
/// versions it does not know rather than guessing.
pub const CHECKPOINT_VERSION: u32 = 5;

/// Bytes of frame before the payload: magic + version + checksum + length.
pub(crate) const HEADER_LEN: usize = 4 + 4 + 8 + 8;

/// Why a checkpoint could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The buffer does not start with [`CHECKPOINT_MAGIC`] — not a
    /// checkpoint at all.
    BadMagic,
    /// The frame declares a format version this build cannot decode.
    UnsupportedVersion(u32),
    /// The buffer ends before the declared payload does (torn write).
    Truncated {
        /// Bytes the frame declared.
        declared: usize,
        /// Bytes actually present after the header.
        available: usize,
    },
    /// The payload's [`checksum64`] does not match the frame's.
    ChecksumMismatch {
        /// Checksum recorded in the frame.
        expected: u64,
        /// Checksum of the bytes actually read.
        actual: u64,
    },
    /// Extra bytes follow the declared payload.
    TrailingBytes(usize),
    /// The frame was intact but the payload failed to decode.
    Codec(PersistError),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::BadMagic => f.write_str("not a checkpoint: bad magic"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported checkpoint version {v} (this build reads {CHECKPOINT_VERSION})"
                )
            }
            CheckpointError::Truncated { declared, available } => {
                write!(f, "truncated checkpoint: frame declares {declared} payload bytes, {available} present")
            }
            CheckpointError::ChecksumMismatch { expected, actual } => {
                write!(f, "checkpoint checksum mismatch: frame says {expected:#018x}, payload hashes to {actual:#018x}")
            }
            CheckpointError::TrailingBytes(n) => {
                write!(f, "{n} trailing bytes after checkpoint payload")
            }
            CheckpointError::Codec(e) => write!(f, "checkpoint payload corrupt: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PersistError> for CheckpointError {
    fn from(e: PersistError) -> Self {
        CheckpointError::Codec(e)
    }
}

/// Encodes a framed buffer: writes the header with placeholder checksum
/// and length, lets `payload` encode behind it in the same buffer, then
/// patches both fields in place, so the payload is never copied. Shared
/// with the event log, which uses the same frame under its own
/// magic/version.
pub(crate) fn frame(magic: [u8; 4], version: u32, payload: impl FnOnce(&mut Writer)) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u32(u32::from_le_bytes(magic));
    w.put_u32(version);
    w.put_u64(0); // checksum, patched below
    w.put_u64(0); // payload length, patched below
    payload(&mut w);
    let mut out = w.into_bytes();
    let (header, body) = out.split_at_mut(HEADER_LEN);
    header[8..16].copy_from_slice(&checksum64(body).to_le_bytes());
    header[16..24].copy_from_slice(&(body.len() as u64).to_le_bytes());
    out
}

/// Validates a frame and returns the payload slice. `versions` is the set
/// the caller can decode (currently always a single element).
pub(crate) fn unframe<'a>(
    magic: [u8; 4],
    versions: &[u32],
    bytes: &'a [u8],
) -> Result<&'a [u8], CheckpointError> {
    if bytes.len() < 4 || bytes[..4] != magic {
        return Err(CheckpointError::BadMagic);
    }
    if bytes.len() < HEADER_LEN {
        return Err(CheckpointError::Truncated { declared: HEADER_LEN, available: bytes.len() });
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4-byte slice"));
    if !versions.contains(&version) {
        return Err(CheckpointError::UnsupportedVersion(version));
    }
    let expected = u64::from_le_bytes(bytes[8..16].try_into().expect("8-byte slice"));
    let declared = u64::from_le_bytes(bytes[16..24].try_into().expect("8-byte slice"));
    let declared = usize::try_from(declared).map_err(|_| CheckpointError::Truncated {
        declared: usize::MAX,
        available: bytes.len() - HEADER_LEN,
    })?;
    let body = &bytes[HEADER_LEN..];
    if body.len() < declared {
        return Err(CheckpointError::Truncated { declared, available: body.len() });
    }
    if body.len() > declared {
        return Err(CheckpointError::TrailingBytes(body.len() - declared));
    }
    let actual = checksum64(body);
    if actual != expected {
        return Err(CheckpointError::ChecksumMismatch { expected, actual });
    }
    Ok(body)
}

/// Serializes the engine's full logical state into a framed checkpoint.
pub fn save(engine: &SweepEngine) -> Vec<u8> {
    frame(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, |w| engine.persist(w))
}

/// Decodes a checkpoint produced by [`save`] back into a ready-to-run
/// engine.
///
/// The restored engine is *logically* identical to the one that was saved:
/// fed the same subsequent windows, it emits byte-identical
/// recommendations, regardless of the thread count or execution mode in
/// effect on either side of the restore.
///
/// # Errors
///
/// Any [`CheckpointError`]: wrong magic, unknown version, torn or corrupt
/// payload, trailing bytes, or a payload that decodes to invalid planner
/// state.
pub fn load(bytes: &[u8]) -> Result<SweepEngine, CheckpointError> {
    let payload = unframe(CHECKPOINT_MAGIC, &[CHECKPOINT_VERSION], bytes)?;
    let mut r = Reader::new(payload);
    let engine = SweepEngine::restore(&mut r)?;
    if !r.is_empty() {
        return Err(CheckpointError::TrailingBytes(r.remaining()));
    }
    Ok(engine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{
        assert_every_bit_flip_rejected, b_qos, drive, engine, feed_window, test_config,
    };
    use headroom_online::planner::SweepExec;

    #[test]
    fn roundtrip_restores_mid_stream() {
        let mut live = engine(test_config(0));
        drive(&mut live, 0, 40);
        let bytes = save(&live);
        let mut restored = load(&bytes).expect("clean checkpoint loads");

        assert_eq!(restored.windows_seen(), live.windows_seen());
        assert_eq!(restored.shard_count(), live.shard_count());
        // No re-warming: continuing both engines in lockstep produces
        // byte-identical recommendation streams.
        let a = drive(&mut live, 40, 120);
        let b = drive(&mut restored, 40, 120);
        assert!(!a.is_empty(), "the drive pattern produces recommendations");
        assert_eq!(a, b);
    }

    #[test]
    fn restore_is_exec_and_thread_agnostic() {
        let mut live = engine(test_config(0));
        live.set_threads(4);
        drive(&mut live, 0, 50);
        let bytes = save(&live);
        let reference = drive(&mut live, 50, 110);

        for (threads, exec) in
            [(1, SweepExec::Scoped), (3, SweepExec::Persistent), (8, SweepExec::Scoped)]
        {
            let mut restored = load(&bytes).expect("clean checkpoint loads");
            restored.set_threads(threads);
            restored.set_exec(exec);
            assert_eq!(drive(&mut restored, 50, 110), reference, "threads={threads} exec={exec:?}");
        }
    }

    /// Regression: a checkpoint taken *mid-dwell* must carry the pending
    /// (dwell-suppressed) recommendation and the last-emitted targets. If
    /// either were dropped, the restored engine would re-emit an already
    /// announced change or lose one that was about to clear its dwell; both
    /// show up as a diverging recommendation stream at some kill window.
    #[test]
    fn restore_mid_dwell_neither_reemits_nor_drops() {
        // Reference run, never interrupted.
        let mut reference_engine = engine(test_config(3));
        drive(&mut reference_engine, 0, 30);
        let mut reference = Vec::new();
        let mut checkpoints = Vec::new();
        {
            let mut live = load(&save(&reference_engine)).expect("clean checkpoint loads");
            for w in 30..120 {
                checkpoints.push((w, save(&live)));
                feed_window(&mut live, w);
                reference.push((w, live.drain_recommendations()));
            }
        }
        let emitted: usize = reference.iter().map(|(_, r)| r.len()).sum();
        assert!(emitted > 0, "the window range exercises at least one emission");

        // Kill-and-restore at *every* window of the run — including each
        // window of every dwell countdown — and compare the remainder.
        for (kill_at, bytes) in &checkpoints {
            let mut restored = load(bytes).expect("clean checkpoint loads");
            for (w, expected) in reference.iter().filter(|(w, _)| w >= kill_at) {
                feed_window(&mut restored, *w);
                let got = restored.drain_recommendations();
                assert_eq!(&got, expected, "killed at window {kill_at}, diverged at window {w}");
            }
        }
    }

    #[test]
    fn rejects_bad_magic() {
        let mut engine = engine(test_config(0));
        drive(&mut engine, 0, 10);
        let mut bytes = save(&engine);
        bytes[0] = b'X';
        assert_eq!(load(&bytes).unwrap_err(), CheckpointError::BadMagic);
        assert_eq!(load(b"HR").unwrap_err(), CheckpointError::BadMagic);
    }

    #[test]
    fn rejects_unknown_version() {
        let mut engine = engine(test_config(0));
        drive(&mut engine, 0, 10);
        let mut bytes = save(&engine);
        // v3 (FNV-1a 64 checksum) and v4 (whole sorted totals windows) are
        // earlier formats: no reader remains.
        for version in [3u32, 4, 99] {
            bytes[4..8].copy_from_slice(&version.to_le_bytes());
            assert_eq!(load(&bytes).unwrap_err(), CheckpointError::UnsupportedVersion(version));
        }
    }

    /// The frame is the header followed by the engine's encoding, verbatim:
    /// encoding in place changes no byte relative to framing a separately
    /// encoded payload.
    #[test]
    fn save_is_header_plus_unframed_payload() {
        let mut engine = engine(test_config(0));
        drive(&mut engine, 0, 30);
        let mut w = Writer::new();
        engine.persist(&mut w);
        let payload = w.into_bytes();

        let mut expected = Vec::new();
        expected.extend_from_slice(&CHECKPOINT_MAGIC);
        expected.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
        expected.extend_from_slice(&checksum64(&payload).to_le_bytes());
        expected.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        expected.extend_from_slice(&payload);
        assert_eq!(save(&engine), expected);
    }

    #[test]
    fn rejects_flipped_payload_bit() {
        // Every bit of the frame, one at a time. One window in: every pool
        // has a shard and every ring one entry, and the frame stays small.
        let mut engine = engine(test_config(0));
        drive(&mut engine, 0, 1);
        assert_every_bit_flip_rejected(&save(&engine), load);
    }

    #[test]
    fn rejects_truncation_and_trailing_bytes() {
        let mut engine = engine(test_config(0));
        drive(&mut engine, 0, 10);
        let bytes = save(&engine);
        let cut = bytes.len() - 7;
        assert!(matches!(load(&bytes[..cut]), Err(CheckpointError::Truncated { .. })));

        let mut padded = bytes.clone();
        padded.extend_from_slice(&[0u8; 3]);
        assert_eq!(load(&padded).unwrap_err(), CheckpointError::TrailingBytes(3));
    }

    #[test]
    fn save_is_deterministic() {
        let mut a = engine(test_config(0));
        let mut b = engine(test_config(0));
        b.set_threads(6);
        drive(&mut a, 0, 60);
        drive(&mut b, 0, 60);
        // Same logical state under different execution settings — the
        // checkpoint bytes differ only where config.threads is encoded,
        // so normalize that and the encodings must agree.
        b.set_threads(1);
        assert_eq!(save(&a), save(&b));
    }

    #[test]
    fn qos_overrides_survive() {
        let mut live = engine(test_config(0));
        let tight = headroom_core::slo::QosRequirement::latency(20.0).with_cpu_ceiling(50.0);
        live.set_qos(headroom_telemetry::ids::PoolId(1), tight);
        drive(&mut live, 0, 10);
        let restored = load(&save(&live)).expect("clean checkpoint loads");
        assert_eq!(restored.qos_for(headroom_telemetry::ids::PoolId(1)), tight);
        assert_eq!(restored.qos_for(headroom_telemetry::ids::PoolId(0)), b_qos());
    }
}
