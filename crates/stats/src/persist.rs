//! Bit-exact binary persistence for streaming-planner state.
//!
//! A planner that restarts must resume *exactly* where it stopped: the
//! restored accumulators have to reproduce every subsequent decision bit
//! for bit, or the kill-and-restore identity gate (`repro service`) cannot
//! hold. That rules out any text round-trip — `f64` values are stored as
//! their raw IEEE-754 bit patterns ([`f64::to_bits`]), never formatted —
//! and any platform-dependent width — `usize` travels as `u64`.
//!
//! The codec is deliberately tiny and hand-rolled (the workspace vendors no
//! serialization framework): a [`Writer`] appends little-endian fields to a
//! byte buffer, a [`Reader`] consumes them, and the [`Persist`] trait pairs
//! the two per type. Because most planner state types keep their fields
//! private (their invariants are real), each type implements [`Persist`]
//! in its own module, next to the invariants the encoding must respect;
//! this module provides the primitives and the generic container impls.
//!
//! # Example
//!
//! ```
//! use headroom_stats::persist::{Persist, Reader, Writer};
//! use headroom_stats::StreamingLinReg;
//!
//! let mut reg = StreamingLinReg::new();
//! reg.push(100.0, 4.2);
//! reg.push(200.0, 7.0);
//!
//! let mut w = Writer::new();
//! reg.persist(&mut w);
//! let bytes = w.into_bytes();
//!
//! let restored = StreamingLinReg::restore(&mut Reader::new(&bytes)).unwrap();
//! assert_eq!(restored, reg);
//! ```

use std::fmt;

/// Why a restore failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PersistError {
    /// The byte stream ended before the field it should contain.
    UnexpectedEof {
        /// Bytes the field needed.
        needed: usize,
        /// Bytes actually remaining.
        remaining: usize,
    },
    /// A decoded value violates the target type's invariants.
    Invalid(&'static str),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::UnexpectedEof { needed, remaining } => {
                write!(f, "unexpected end of state: needed {needed} bytes, {remaining} remain")
            }
            PersistError::Invalid(what) => write!(f, "invalid persisted state: {what}"),
        }
    }
}

impl std::error::Error for PersistError {}

/// Append-only encoder over a growable byte buffer.
///
/// All integers are little-endian; floats are raw IEEE-754 bit patterns.
#[derive(Debug, Clone, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The encoded bytes so far.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the writer, yielding the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64` (platform-independent width).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends a `bool` as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Appends an `f64` as its raw IEEE-754 bit pattern — the value restored
    /// is bit-identical, including signed zeros and NaN payloads.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }
}

/// Consuming decoder over a byte slice.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { buf: bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        if self.remaining() < n {
            return Err(PersistError::UnexpectedEof { needed: n, remaining: self.remaining() });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Consumes one byte.
    ///
    /// # Errors
    ///
    /// [`PersistError::UnexpectedEof`] when the stream is exhausted.
    pub fn take_u8(&mut self) -> Result<u8, PersistError> {
        Ok(self.take(1)?[0])
    }

    /// Consumes a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`PersistError::UnexpectedEof`] when the stream is exhausted.
    pub fn take_u32(&mut self) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    /// Consumes a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`PersistError::UnexpectedEof`] when the stream is exhausted.
    pub fn take_u64(&mut self) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Consumes a `usize` stored as `u64`.
    ///
    /// # Errors
    ///
    /// [`PersistError::UnexpectedEof`] on exhaustion;
    /// [`PersistError::Invalid`] when the value exceeds this platform's
    /// `usize`.
    pub fn take_usize(&mut self) -> Result<usize, PersistError> {
        usize::try_from(self.take_u64()?)
            .map_err(|_| PersistError::Invalid("usize value exceeds platform width"))
    }

    /// Consumes a `bool` stored as one byte.
    ///
    /// # Errors
    ///
    /// [`PersistError::UnexpectedEof`] on exhaustion;
    /// [`PersistError::Invalid`] on a byte that is neither 0 nor 1.
    pub fn take_bool(&mut self) -> Result<bool, PersistError> {
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(PersistError::Invalid("bool byte is neither 0 nor 1")),
        }
    }

    /// Consumes an `f64` stored as its raw bit pattern.
    ///
    /// # Errors
    ///
    /// [`PersistError::UnexpectedEof`] when the stream is exhausted.
    pub fn take_f64(&mut self) -> Result<f64, PersistError> {
        Ok(f64::from_bits(self.take_u64()?))
    }
}

/// Bit-exact binary round-trip for one type.
///
/// The contract: `restore(persist(x)) == x` *bit for bit* — a restored
/// value must behave identically to the original on every future input.
/// Implementations on types with private fields live in the type's own
/// module, next to the invariants they must preserve.
pub trait Persist: Sized {
    /// Appends this value's complete state to `w`.
    fn persist(&self, w: &mut Writer);

    /// Reconstructs a value from `r`.
    ///
    /// # Errors
    ///
    /// [`PersistError`] on a truncated stream or invariant-violating data.
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError>;
}

impl Persist for u32 {
    fn persist(&self, w: &mut Writer) {
        w.put_u32(*self);
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        r.take_u32()
    }
}

impl Persist for u64 {
    fn persist(&self, w: &mut Writer) {
        w.put_u64(*self);
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        r.take_u64()
    }
}

impl Persist for usize {
    fn persist(&self, w: &mut Writer) {
        w.put_usize(*self);
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        r.take_usize()
    }
}

impl Persist for bool {
    fn persist(&self, w: &mut Writer) {
        w.put_bool(*self);
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        r.take_bool()
    }
}

impl Persist for f64 {
    fn persist(&self, w: &mut Writer) {
        w.put_f64(*self);
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        r.take_f64()
    }
}

impl<T: Persist> Persist for Option<T> {
    fn persist(&self, w: &mut Writer) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.persist(w);
            }
        }
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        match r.take_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::restore(r)?)),
            _ => Err(PersistError::Invalid("Option tag is neither 0 nor 1")),
        }
    }
}

impl<T: Persist> Persist for Vec<T> {
    fn persist(&self, w: &mut Writer) {
        w.put_usize(self.len());
        for v in self {
            v.persist(w);
        }
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let len = r.take_usize()?;
        // Every element costs at least one byte, so a hostile length cannot
        // force an allocation larger than the stream backing it.
        if len > r.remaining() {
            return Err(PersistError::Invalid("sequence length exceeds remaining stream"));
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::restore(r)?);
        }
        Ok(out)
    }
}

impl<A: Persist, B: Persist> Persist for (A, B) {
    fn persist(&self, w: &mut Writer) {
        self.0.persist(w);
        self.1.persist(w);
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok((A::restore(r)?, B::restore(r)?))
    }
}

/// XXH64's five 64-bit primes.
const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

/// The checkpoint container's corruption check: XXH64 with seed 0.
///
/// Reads the input as 8-byte little-endian words in four independent
/// lanes (32-byte stripes), so the lanes' multiplies overlap instead of
/// queueing behind one accumulator byte by byte. Each lane round
/// `acc = rotl(acc + w·P2, 31)·P1` is a bijection in the word `w`, as is
/// each tail step, so changing any single word changes its lane's state;
/// the lanes are then folded with the length and the tail bytes and
/// avalanched.
///
/// Not cryptographic; it guards against truncation and bit rot, not
/// adversaries.
pub fn checksum64(bytes: &[u8]) -> u64 {
    fn round(acc: u64, word: u64) -> u64 {
        acc.wrapping_add(word.wrapping_mul(P2)).rotate_left(31).wrapping_mul(P1)
    }
    fn word(b: &[u8]) -> u64 {
        u64::from_le_bytes(b.try_into().expect("8-byte word"))
    }

    let mut stripes = bytes.chunks_exact(32);
    let mut h = if bytes.len() >= 32 {
        let mut lanes = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
        for stripe in &mut stripes {
            for (lane, w) in lanes.iter_mut().zip(stripe.chunks_exact(8)) {
                *lane = round(*lane, word(w));
            }
        }
        let [a, b, c, d] = lanes;
        let mut h = a
            .rotate_left(1)
            .wrapping_add(b.rotate_left(7))
            .wrapping_add(c.rotate_left(12))
            .wrapping_add(d.rotate_left(18));
        for lane in lanes {
            h = (h ^ round(0, lane)).wrapping_mul(P1).wrapping_add(P4);
        }
        h
    } else {
        P5
    };
    h = h.wrapping_add(bytes.len() as u64);

    let mut words = stripes.remainder().chunks_exact(8);
    for w in &mut words {
        h = (h ^ round(0, word(w))).rotate_left(27).wrapping_mul(P1).wrapping_add(P4);
    }
    let mut tail = words.remainder();
    if tail.len() >= 4 {
        let half = u32::from_le_bytes(tail[..4].try_into().expect("4-byte half-word"));
        h = (h ^ u64::from(half).wrapping_mul(P1))
            .rotate_left(23)
            .wrapping_mul(P2)
            .wrapping_add(P3);
        tail = &tail[4..];
    }
    for &b in tail {
        h = (h ^ u64::from(b).wrapping_mul(P5)).rotate_left(11).wrapping_mul(P1);
    }

    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Persist + PartialEq + std::fmt::Debug>(v: T) {
        let mut w = Writer::new();
        v.persist(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(T::restore(&mut r).unwrap(), v);
        assert!(r.is_empty(), "restore consumed everything");
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0u32);
        roundtrip(u32::MAX);
        roundtrip(u64::MAX);
        roundtrip(usize::MAX);
        roundtrip(true);
        roundtrip(false);
        roundtrip(1.5f64);
    }

    #[test]
    fn f64_is_bit_exact() {
        for v in [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN, 1e-308, f64::MAX] {
            let mut w = Writer::new();
            v.persist(&mut w);
            let restored = f64::restore(&mut Reader::new(w.bytes())).unwrap();
            assert_eq!(restored.to_bits(), v.to_bits(), "{v} lost bits");
        }
    }

    #[test]
    fn containers_roundtrip() {
        roundtrip(Option::<f64>::None);
        roundtrip(Some(2.5f64));
        roundtrip(vec![1u64, 2, 3]);
        roundtrip(Vec::<f64>::new());
        roundtrip((7usize, 3.25f64));
        roundtrip(vec![(1.0f64, 2.0f64), (3.0, 4.0)]);
    }

    #[test]
    fn truncated_stream_errors() {
        let mut w = Writer::new();
        w.put_u64(42);
        let bytes = &w.bytes()[..5];
        let err = u64::restore(&mut Reader::new(bytes)).unwrap_err();
        assert_eq!(err, PersistError::UnexpectedEof { needed: 8, remaining: 5 });
    }

    #[test]
    fn invalid_tags_error() {
        let err = bool::restore(&mut Reader::new(&[7])).unwrap_err();
        assert!(matches!(err, PersistError::Invalid(_)));
        let err = Option::<u32>::restore(&mut Reader::new(&[9])).unwrap_err();
        assert!(matches!(err, PersistError::Invalid(_)));
    }

    #[test]
    fn hostile_vec_length_rejected() {
        let mut w = Writer::new();
        w.put_usize(usize::MAX / 2);
        let err = Vec::<u64>::restore(&mut Reader::new(w.bytes())).unwrap_err();
        assert!(matches!(err, PersistError::Invalid(_)));
    }

    #[test]
    fn checksum_matches_published_xxh64_vectors() {
        assert_eq!(checksum64(b""), 0xef46_db37_51d8_e999);
        assert_eq!(checksum64(b"a"), 0xd24e_c4f1_a98c_6e5b);
        assert_eq!(checksum64(b"abc"), 0x44bc_2cf5_ad77_0999);
    }

    /// Known answers on the bytes `0, 1, 2, …` at every boundary: below
    /// one stripe (words, half-word and byte tail), exactly one stripe,
    /// one stripe plus one byte, one stripe plus a word, half-word and byte
    /// tail, and two stripes.
    #[test]
    fn checksum_known_answers_at_lane_and_tail_boundaries() {
        let cases: [(usize, u64); 7] = [
            (0, 0xef46_db37_51d8_e999),
            (1, 0xe934_a84a_db05_2768),
            (31, 0xc346_d2b5_9b4d_8ee1),
            (32, 0xcbf5_9c51_16ff_32b4),
            (33, 0x0c53_5d1a_cafb_8ead),
            (45, 0x10fd_d84d_6409_abdf),
            (64, 0xf7c6_7301_db67_13f0),
        ];
        for (len, expected) in cases {
            let input: Vec<u8> = (0..len as u8).collect();
            assert_eq!(checksum64(&input), expected, "{len}-byte input");
        }
    }

    #[test]
    fn display_formats() {
        let eof = PersistError::UnexpectedEof { needed: 8, remaining: 2 };
        assert!(eof.to_string().contains("needed 8"));
        assert!(PersistError::Invalid("x").to_string().contains("x"));
    }
}
