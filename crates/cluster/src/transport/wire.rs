//! Versioned little-endian wire codec for transport frames.
//!
//! Every message the collective engine exchanges — rank hellos at bootstrap,
//! per-round contributions, the root's reduced results, poison notices and
//! raw side-channel bytes — is one *frame*: a fixed header (magic, version,
//! kind, flags) followed by kind-specific little-endian fields and an `f64`
//! payload. On byte streams (the TCP backend) frames travel length-prefixed
//! through [`write_frame`] / [`read_frame_into`]; the in-process thread
//! backend hands the same encoded bytes through shared memory, so both
//! backends exercise one codec.
//!
//! Decoding is strict and failures are *typed*: a truncated or garbled frame
//! yields a [`WireError`] naming the offending field instead of a silent
//! wrong answer — the same philosophy as the model-artifact loader.

use std::io::{IoSlice, Read, Write};

/// Leading magic of every frame.
pub const WIRE_MAGIC: [u8; 4] = *b"NADW";

/// Current codec version. Decoders reject anything else loudly: the payload
/// layout is not self-describing, so guessing would corrupt consensus state.
pub const WIRE_VERSION: u16 = 2;

/// Hard ceiling on one frame's encoded size (1 GiB). A length prefix beyond
/// this is treated as stream corruption, not an allocation request.
pub const MAX_FRAME_BYTES: usize = 1 << 30;

const FLAG_TOMBSTONE: u8 = 0b0000_0001;

/// What the round's reduction computes over the deposited contributions.
/// Carried on every contribution frame so the root can reject mismatched
/// collectives (the MPI "same collective in the same order" contract).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoundOp {
    /// No payload; synchronisation only.
    Barrier,
    /// Element-wise sum of all contributions (uniform length).
    Sum,
    /// Element-wise max of all contributions (uniform length).
    Max,
    /// Mixed reduction (uniform length): element-wise sum over the first
    /// `sum_len` elements, element-wise max over the rest — the classic
    /// "user-defined MPI op" trick that packs several instrumentation
    /// reductions into one collective.
    SumMax {
        /// Number of leading elements reduced by sum.
        sum_len: usize,
    },
    /// The root's contribution verbatim (broadcast source).
    CopyRoot,
}

impl RoundOp {
    fn tag(self) -> u8 {
        match self {
            RoundOp::Barrier => 0,
            RoundOp::Sum => 1,
            RoundOp::Max => 2,
            RoundOp::SumMax { .. } => 3,
            RoundOp::CopyRoot => 4,
        }
    }

    fn sum_len(self) -> u64 {
        match self {
            RoundOp::SumMax { sum_len } => sum_len as u64,
            _ => 0,
        }
    }

    fn from_wire(tag: u8, sum_len: u64) -> Result<Self, WireError> {
        Ok(match tag {
            0 => RoundOp::Barrier,
            1 => RoundOp::Sum,
            2 => RoundOp::Max,
            3 => RoundOp::SumMax {
                sum_len: sum_len as usize,
            },
            4 => RoundOp::CopyRoot,
            found => return Err(WireError::BadOp { found }),
        })
    }
}

const KIND_HELLO: u8 = 0;
const KIND_CONTRIBUTION: u8 = 1;
const KIND_RESULT: u8 = 2;
const KIND_ERROR: u8 = 3;
const KIND_RAW: u8 = 4;

/// A decoding failure, naming the offending field — corrupt frames must
/// diagnose themselves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The frame ended before `field` could be read.
    Truncated {
        /// The field being decoded when the bytes ran out.
        field: &'static str,
        /// Bytes the field needs.
        needed: usize,
        /// Bytes that were left.
        have: usize,
    },
    /// The frame does not start with [`WIRE_MAGIC`].
    BadMagic {
        /// The four bytes found instead.
        found: [u8; 4],
    },
    /// The frame was encoded by a different codec version.
    UnsupportedVersion {
        /// Version stamped on the frame.
        found: u16,
        /// Version this decoder speaks.
        supported: u16,
    },
    /// Unknown frame kind tag.
    BadKind {
        /// The tag found.
        found: u8,
    },
    /// Unknown round-operation tag on a contribution frame.
    BadOp {
        /// The tag found.
        found: u8,
    },
    /// Reserved flag bits were set.
    BadFlags {
        /// The flags byte found.
        found: u8,
    },
    /// A payload section's byte count disagrees with its declared length.
    PayloadSizeMismatch {
        /// The payload section at fault.
        field: &'static str,
        /// Bytes the declared length implies.
        expected_bytes: usize,
        /// Bytes actually present.
        found_bytes: usize,
    },
    /// An error-frame message was not valid UTF-8.
    BadUtf8 {
        /// The field at fault.
        field: &'static str,
    },
    /// Bytes were left over after the last declared field.
    TrailingBytes {
        /// The frame kind that over-ran.
        field: &'static str,
        /// Number of unconsumed bytes.
        count: usize,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { field, needed, have } => {
                write!(f, "frame truncated at field `{field}`: needed {needed} bytes, have {have}")
            }
            WireError::BadMagic { found } => {
                write!(f, "bad frame magic {found:?}, expected {WIRE_MAGIC:?}")
            }
            WireError::UnsupportedVersion { found, supported } => {
                write!(f, "unsupported wire version {found} (this codec speaks {supported})")
            }
            WireError::BadKind { found } => write!(f, "unknown frame kind tag {found}"),
            WireError::BadOp { found } => write!(f, "unknown round-op tag {found}"),
            WireError::BadFlags { found } => write!(f, "reserved flag bits set: {found:#010b}"),
            WireError::PayloadSizeMismatch {
                field,
                expected_bytes,
                found_bytes,
            } => write!(
                f,
                "payload size mismatch at field `{field}`: declared length implies {expected_bytes} bytes, found {found_bytes}"
            ),
            WireError::BadUtf8 { field } => write!(f, "field `{field}` is not valid UTF-8"),
            WireError::TrailingBytes { field, count } => {
                write!(f, "{count} trailing bytes after the last field of a `{field}` frame")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Borrowed view over a frame's `f64` payload section (little-endian bytes,
/// 8 per element). Reading through the view never allocates.
#[derive(Debug, Clone, Copy)]
pub struct PayloadView<'a>(&'a [u8]);

impl<'a> PayloadView<'a> {
    /// Number of `f64` elements.
    pub fn count(&self) -> usize {
        self.0.len() / 8
    }

    /// Whether the payload carries no elements.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The `i`-th element.
    ///
    /// # Panics
    /// Panics if `i >= count()`.
    pub fn get(&self, i: usize) -> f64 {
        f64::from_le_bytes(self.0[i * 8..i * 8 + 8].try_into().expect("f64 payload slice is 8 bytes"))
    }

    /// Copies every element into `out`.
    ///
    /// # Panics
    /// Panics if `out.len() != count()`.
    pub fn copy_to(&self, out: &mut [f64]) {
        assert_eq!(out.len(), self.count(), "payload copy_to: length mismatch");
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = self.get(i);
        }
    }

    /// Appends every element to `out` (capacity permitting, no allocation).
    pub fn extend_into(&self, out: &mut Vec<f64>) {
        for i in 0..self.count() {
            out.push(self.get(i));
        }
    }
}

/// One decoded frame, borrowing its payload sections from the encoded bytes.
#[derive(Debug, Clone, Copy)]
pub enum Frame<'a> {
    /// Bootstrap handshake: identifies the connecting rank and its view of
    /// the cluster size.
    Hello {
        /// The sender's rank.
        rank: u64,
        /// The sender's cluster size (must agree everywhere).
        size: u64,
    },
    /// One rank's deposit into a collective round.
    Contribution {
        /// The sender's round counter (collective-order check).
        round: u64,
        /// The collective operation the sender is executing.
        op: RoundOp,
        /// Whether this is a dead rank's empty tombstone: `len` logical
        /// elements, all treated as exact zeros, no payload bytes on the
        /// wire.
        tombstone: bool,
        /// The sender's simulated arrival clock.
        time: f64,
        /// Logical element count.
        len: u64,
        /// The payload elements (empty for tombstones/expectations).
        payload: PayloadView<'a>,
    },
    /// The root's reply closing a collective round.
    Result {
        /// The root's round counter.
        round: u64,
        /// Latest simulated arrival across ranks (gates completion).
        max_time: f64,
        /// Earliest arrival (the spread is the round's skew).
        min_time: f64,
        /// The reduced or copied result elements.
        payload: PayloadView<'a>,
    },
    /// A fatal notice: the sender is panicking and every peer should too,
    /// instead of deadlocking in a round that can never complete.
    Error {
        /// The originating panic message.
        message: &'a str,
    },
    /// Uninterpreted bytes (side channels such as the final stats gather).
    Raw {
        /// The bytes.
        bytes: &'a [u8],
    },
}

fn header(buf: &mut Vec<u8>, kind: u8, flags: u8) {
    buf.clear();
    buf.extend_from_slice(&WIRE_MAGIC);
    buf.extend_from_slice(&WIRE_VERSION.to_le_bytes());
    buf.push(kind);
    buf.push(flags);
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64s(buf: &mut Vec<u8>, vs: &[f64]) {
    let start = buf.len();
    buf.resize(start + vs.len() * 8, 0);
    for (dst, v) in buf[start..].chunks_exact_mut(8).zip(vs) {
        dst.copy_from_slice(&v.to_le_bytes());
    }
}

/// Encodes a bootstrap hello into `buf` (cleared first; capacity is kept).
pub fn encode_hello(buf: &mut Vec<u8>, rank: u64, size: u64) {
    header(buf, KIND_HELLO, 0);
    put_u64(buf, rank);
    put_u64(buf, size);
}

/// Encodes a round contribution into `buf` (cleared first; capacity is
/// kept). Tombstones carry `len` without payload bytes; the payload slice
/// must otherwise hold exactly `len` elements or be empty (an
/// expectation-only deposit).
pub fn encode_contribution(buf: &mut Vec<u8>, round: u64, op: RoundOp, tombstone: bool, time: f64, len: u64, payload: &[f64]) {
    debug_assert!(
        payload.is_empty() || payload.len() as u64 == len,
        "contribution payload/len disagreement"
    );
    debug_assert!(!tombstone || payload.is_empty(), "tombstones carry no payload");
    header(buf, KIND_CONTRIBUTION, if tombstone { FLAG_TOMBSTONE } else { 0 });
    put_u64(buf, round);
    buf.push(op.tag());
    put_u64(buf, op.sum_len());
    put_f64(buf, time);
    put_u64(buf, len);
    put_f64s(buf, payload);
}

/// Encodes the root's round result into `buf` (cleared first; capacity is
/// kept).
pub fn encode_result(buf: &mut Vec<u8>, round: u64, max_time: f64, min_time: f64, payload: &[f64]) {
    header(buf, KIND_RESULT, 0);
    put_u64(buf, round);
    put_f64(buf, max_time);
    put_f64(buf, min_time);
    put_u64(buf, payload.len() as u64);
    put_f64s(buf, payload);
}

/// Encodes a poison notice into `buf` (cleared first).
pub fn encode_error(buf: &mut Vec<u8>, message: &str) {
    header(buf, KIND_ERROR, 0);
    buf.extend_from_slice(message.as_bytes());
}

/// Encodes uninterpreted bytes into `buf` (cleared first).
pub fn encode_raw(buf: &mut Vec<u8>, bytes: &[u8]) {
    header(buf, KIND_RAW, 0);
    buf.extend_from_slice(bytes);
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize, field: &'static str) -> Result<&'a [u8], WireError> {
        let have = self.bytes.len() - self.pos;
        if have < n {
            return Err(WireError::Truncated { field, needed: n, have });
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self, field: &'static str) -> Result<u8, WireError> {
        Ok(self.take(1, field)?[0])
    }

    fn u16(&mut self, field: &'static str) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(
            self.take(2, field)?.try_into().expect("take(2) returned 2 bytes"),
        ))
    }

    fn u64(&mut self, field: &'static str) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(
            self.take(8, field)?.try_into().expect("take(8) returned 8 bytes"),
        ))
    }

    fn f64(&mut self, field: &'static str) -> Result<f64, WireError> {
        Ok(f64::from_le_bytes(
            self.take(8, field)?.try_into().expect("take(8) returned 8 bytes"),
        ))
    }

    fn rest(&mut self) -> &'a [u8] {
        let out = &self.bytes[self.pos..];
        self.pos = self.bytes.len();
        out
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }
}

/// Decodes one frame, borrowing payload sections from `frame`.
pub fn decode(frame: &[u8]) -> Result<Frame<'_>, WireError> {
    let mut r = Reader { bytes: frame, pos: 0 };
    let magic = r.take(4, "magic")?;
    if magic != WIRE_MAGIC {
        return Err(WireError::BadMagic {
            found: magic.try_into().expect("take(4) returned 4 bytes of magic"),
        });
    }
    let version = r.u16("version")?;
    if version != WIRE_VERSION {
        return Err(WireError::UnsupportedVersion {
            found: version,
            supported: WIRE_VERSION,
        });
    }
    let kind = r.u8("kind")?;
    let flags = r.u8("flags")?;
    let tombstone = flags & FLAG_TOMBSTONE != 0;
    if flags & !FLAG_TOMBSTONE != 0 || (tombstone && kind != KIND_CONTRIBUTION) {
        return Err(WireError::BadFlags { found: flags });
    }
    match kind {
        KIND_HELLO => {
            let rank = r.u64("hello rank")?;
            let size = r.u64("hello size")?;
            if r.remaining() > 0 {
                return Err(WireError::TrailingBytes {
                    field: "hello",
                    count: r.remaining(),
                });
            }
            Ok(Frame::Hello { rank, size })
        }
        KIND_CONTRIBUTION => {
            let round = r.u64("contribution round")?;
            let op_tag = r.u8("contribution op")?;
            let sum_len = r.u64("contribution sum_len")?;
            let op = RoundOp::from_wire(op_tag, sum_len)?;
            let time = r.f64("contribution time")?;
            let len = r.u64("contribution len")?;
            let payload = r.rest();
            if tombstone && !payload.is_empty() {
                return Err(WireError::PayloadSizeMismatch {
                    field: "tombstone contribution payload",
                    expected_bytes: 0,
                    found_bytes: payload.len(),
                });
            }
            if !payload.is_empty() && payload.len() as u64 != len.saturating_mul(8) {
                return Err(WireError::PayloadSizeMismatch {
                    field: "contribution payload",
                    expected_bytes: len.saturating_mul(8) as usize,
                    found_bytes: payload.len(),
                });
            }
            Ok(Frame::Contribution {
                round,
                op,
                tombstone,
                time,
                len,
                payload: PayloadView(payload),
            })
        }
        KIND_RESULT => {
            let round = r.u64("result round")?;
            let max_time = r.f64("result max_time")?;
            let min_time = r.f64("result min_time")?;
            let payload_count = r.u64("result payload count")? as usize;
            let payload = PayloadView(r.take(payload_count.saturating_mul(8), "result payload")?);
            if r.remaining() > 0 {
                return Err(WireError::TrailingBytes {
                    field: "result",
                    count: r.remaining(),
                });
            }
            Ok(Frame::Result {
                round,
                max_time,
                min_time,
                payload,
            })
        }
        KIND_ERROR => {
            let bytes = r.rest();
            let message = std::str::from_utf8(bytes).map_err(|_| WireError::BadUtf8 { field: "error message" })?;
            Ok(Frame::Error { message })
        }
        KIND_RAW => Ok(Frame::Raw { bytes: r.rest() }),
        found => Err(WireError::BadKind { found }),
    }
}

/// Writes `frame` to a byte stream with a little-endian `u32` length prefix.
///
/// Prefix and frame go down in one vectored write, so a socket that has
/// room sends them as one segment, and neither is copied. Partial writes
/// resume where the stream stopped and `Interrupted` is retried, until the
/// stream has taken every byte or fails.
pub fn write_frame<W: Write>(w: &mut W, frame: &[u8]) -> std::io::Result<()> {
    assert!(frame.len() <= MAX_FRAME_BYTES, "frame exceeds MAX_FRAME_BYTES");
    let prefix = (frame.len() as u32).to_le_bytes();
    let mut slices = [IoSlice::new(&prefix), IoSlice::new(frame)];
    let mut pending = &mut slices[..];
    while !pending.is_empty() {
        match w.write_vectored(pending) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut pending, n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Reads one length-prefixed frame from a byte stream into `buf` (resized in
/// place; capacity is kept across calls). A length prefix beyond
/// [`MAX_FRAME_BYTES`] is reported as `InvalidData`, not allocated.
pub fn read_frame_into<R: Read>(r: &mut R, buf: &mut Vec<u8>) -> std::io::Result<()> {
    let mut len_bytes = [0u8; 4];
    r.read_exact(&mut len_bytes)?;
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame length prefix {len} exceeds the {MAX_FRAME_BYTES}-byte cap"),
        ));
    }
    buf.resize(len, 0);
    r.read_exact(buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hello_round_trips() {
        let mut buf = Vec::new();
        encode_hello(&mut buf, 3, 8);
        match decode(&buf).unwrap() {
            Frame::Hello { rank, size } => {
                assert_eq!(rank, 3);
                assert_eq!(size, 8);
            }
            other => panic!("decoded {other:?}"),
        }
    }

    #[test]
    fn contribution_round_trips_with_payload() {
        let payload = [1.5, -0.0, f64::INFINITY, f64::NAN, 1e-310];
        let mut buf = Vec::new();
        encode_contribution(&mut buf, 7, RoundOp::SumMax { sum_len: 2 }, false, 0.25, 5, &payload);
        match decode(&buf).unwrap() {
            Frame::Contribution {
                round,
                op,
                tombstone,
                time,
                len,
                payload: view,
            } => {
                assert_eq!(round, 7);
                assert_eq!(op, RoundOp::SumMax { sum_len: 2 });
                assert!(!tombstone);
                assert_eq!(time, 0.25);
                assert_eq!(len, 5);
                assert_eq!(view.count(), 5);
                for (i, &want) in payload.iter().enumerate() {
                    assert_eq!(view.get(i).to_bits(), want.to_bits());
                }
            }
            other => panic!("decoded {other:?}"),
        }
    }

    #[test]
    fn tombstone_contribution_carries_length_without_payload() {
        let mut buf = Vec::new();
        encode_contribution(&mut buf, 2, RoundOp::Sum, true, 1.0, 400, &[]);
        match decode(&buf).unwrap() {
            Frame::Contribution {
                tombstone, len, payload, ..
            } => {
                assert!(tombstone);
                assert_eq!(len, 400);
                assert!(payload.is_empty());
            }
            other => panic!("decoded {other:?}"),
        }
    }

    #[test]
    fn result_round_trips() {
        let mut buf = Vec::new();
        encode_result(&mut buf, 9, 2.0, 0.5, &[1.0, 2.0, 3.0]);
        // Header, round, two clocks, payload count, three elements.
        assert_eq!(buf.len(), 8 + 8 + 16 + 8 + 3 * 8);
        match decode(&buf).unwrap() {
            Frame::Result {
                round,
                max_time,
                min_time,
                payload,
            } => {
                assert_eq!(round, 9);
                assert_eq!(max_time, 2.0);
                assert_eq!(min_time, 0.5);
                let mut out = vec![0.0; 3];
                payload.copy_to(&mut out);
                assert_eq!(out, vec![1.0, 2.0, 3.0]);
            }
            other => panic!("decoded {other:?}"),
        }
    }

    #[test]
    fn error_and_raw_round_trip() {
        let mut buf = Vec::new();
        encode_error(&mut buf, "rank 2 is on fire");
        match decode(&buf).unwrap() {
            Frame::Error { message } => assert_eq!(message, "rank 2 is on fire"),
            other => panic!("decoded {other:?}"),
        }
        encode_raw(&mut buf, &[1, 2, 3]);
        match decode(&buf).unwrap() {
            Frame::Raw { bytes } => assert_eq!(bytes, &[1, 2, 3]),
            other => panic!("decoded {other:?}"),
        }
    }

    #[test]
    fn bad_magic_is_named() {
        let mut buf = Vec::new();
        encode_hello(&mut buf, 0, 1);
        buf[0] = b'X';
        assert!(matches!(decode(&buf), Err(WireError::BadMagic { .. })));
    }

    #[test]
    fn the_deleted_concat_tag_is_an_unknown_op() {
        let mut buf = Vec::new();
        encode_contribution(&mut buf, 0, RoundOp::CopyRoot, false, 0.0, 0, &[]);
        // The op byte follows the 8-byte header and the 8-byte round.
        buf[16] = 5;
        assert_eq!(decode(&buf).unwrap_err(), WireError::BadOp { found: 5 });
    }

    #[test]
    fn future_version_is_rejected() {
        let mut buf = Vec::new();
        encode_hello(&mut buf, 0, 1);
        buf[4] = 0xFF;
        assert_eq!(
            decode(&buf).unwrap_err(),
            WireError::UnsupportedVersion {
                found: u16::from_le_bytes([0xFF, buf[5]]),
                supported: WIRE_VERSION
            }
        );
        // A version-1 peer, whose result frames carried a length table, is
        // turned away by version instead of misparsed.
        buf[4..6].copy_from_slice(&1u16.to_le_bytes());
        assert_eq!(
            decode(&buf).unwrap_err(),
            WireError::UnsupportedVersion {
                found: 1,
                supported: WIRE_VERSION
            }
        );
    }

    #[test]
    fn truncation_names_the_field() {
        let mut buf = Vec::new();
        encode_result(&mut buf, 1, 0.0, 0.0, &[1.0, 2.0, 3.0, 4.0]);
        let err = decode(&buf[..buf.len() - 1]).unwrap_err();
        assert_eq!(
            err,
            WireError::Truncated {
                field: "result payload",
                needed: 32,
                have: 31
            }
        );
        let err = decode(&buf[..10]).unwrap_err();
        assert!(matches!(
            err,
            WireError::Truncated {
                field: "result round",
                ..
            }
        ));
    }

    #[test]
    fn reserved_flags_are_rejected() {
        let mut buf = Vec::new();
        encode_hello(&mut buf, 0, 1);
        buf[7] = 0b100;
        assert_eq!(decode(&buf).unwrap_err(), WireError::BadFlags { found: 0b100 });
        // A tombstone flag on a non-contribution frame is equally bogus.
        buf[7] = FLAG_TOMBSTONE;
        assert_eq!(decode(&buf).unwrap_err(), WireError::BadFlags { found: FLAG_TOMBSTONE });
    }

    #[test]
    fn payload_length_disagreement_is_rejected() {
        let mut buf = Vec::new();
        encode_contribution(&mut buf, 0, RoundOp::Sum, false, 0.0, 3, &[1.0, 2.0, 3.0]);
        // Chop one payload byte: 23 bytes can no longer be 3 elements.
        buf.pop();
        assert_eq!(
            decode(&buf).unwrap_err(),
            WireError::PayloadSizeMismatch {
                field: "contribution payload",
                expected_bytes: 24,
                found_bytes: 23
            }
        );
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut buf = Vec::new();
        encode_hello(&mut buf, 0, 1);
        buf.push(0);
        assert_eq!(
            decode(&buf).unwrap_err(),
            WireError::TrailingBytes {
                field: "hello",
                count: 1
            }
        );
    }

    /// Appends `vs` one element at a time: the reference the bulk
    /// `put_f64s` must match byte for byte.
    fn put_f64s_per_element(buf: &mut Vec<u8>, vs: &[f64]) {
        for &v in vs {
            buf.extend_from_slice(&v.to_le_bytes());
        }
    }

    #[test]
    fn bulk_payload_encode_matches_the_per_element_reference() {
        let specials = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7FF0_0000_0000_0001), // signalling NaN
            f64::MIN_POSITIVE / 4.0,               // subnormal
            -f64::from_bits(1),                    // smallest negative subnormal
            f64::MAX,
            1.5,
        ];
        let long: Vec<f64> = (0..7056).map(|i| (i as f64 * 0.37).sin() * 1e3).collect();
        let payloads: [&[f64]; 4] = [&[], &specials, &specials[..1], &long];
        let (mut bulk, mut reference) = (Vec::new(), Vec::new());
        for payload in payloads {
            let len = payload.len() as u64;
            encode_contribution(&mut bulk, 5, RoundOp::Sum, false, -0.0, len, payload);
            header(&mut reference, KIND_CONTRIBUTION, 0);
            put_u64(&mut reference, 5);
            reference.push(RoundOp::Sum.tag());
            put_u64(&mut reference, RoundOp::Sum.sum_len());
            put_f64(&mut reference, -0.0);
            put_u64(&mut reference, len);
            put_f64s_per_element(&mut reference, payload);
            assert_eq!(bulk, reference, "contribution of {len} elements");

            encode_result(&mut bulk, 6, f64::INFINITY, f64::NAN, payload);
            header(&mut reference, KIND_RESULT, 0);
            put_u64(&mut reference, 6);
            put_f64(&mut reference, f64::INFINITY);
            put_f64(&mut reference, f64::NAN);
            put_u64(&mut reference, len);
            put_f64s_per_element(&mut reference, payload);
            assert_eq!(bulk, reference, "result of {len} elements");
        }
    }

    /// A stream that takes at most 3 bytes per call and fails every other
    /// call with `Interrupted`, as a signal-interrupted socket write can.
    struct Trickle {
        taken: Vec<u8>,
        interrupt: bool,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.interrupt = !self.interrupt;
            if self.interrupt {
                return Err(std::io::ErrorKind::Interrupted.into());
            }
            let n = buf.len().min(3);
            self.taken.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn framing_survives_partial_and_interrupted_writes() {
        let mut frame = Vec::new();
        encode_result(&mut frame, 1, 0.0, 0.0, &[1.0, -2.0]);
        for frame in [&frame[..], &[]] {
            let mut whole = Vec::new();
            write_frame(&mut whole, frame).unwrap();
            let mut trickle = Trickle {
                taken: Vec::new(),
                interrupt: false,
            };
            write_frame(&mut trickle, frame).unwrap();
            assert_eq!(trickle.taken, whole);
            let mut out = vec![9];
            read_frame_into(&mut std::io::Cursor::new(&trickle.taken), &mut out).unwrap();
            assert_eq!(out, frame);
        }
    }

    #[test]
    fn stream_framing_round_trips() {
        let mut frame = Vec::new();
        encode_error(&mut frame, "hi");
        let mut stream = Vec::new();
        write_frame(&mut stream, &frame).unwrap();
        write_frame(&mut stream, &frame).unwrap();
        let mut cursor = std::io::Cursor::new(stream);
        let mut out = Vec::new();
        read_frame_into(&mut cursor, &mut out).unwrap();
        assert_eq!(out, frame);
        read_frame_into(&mut cursor, &mut out).unwrap();
        assert_eq!(out, frame);
        // The stream is exhausted: a third read fails cleanly.
        assert!(read_frame_into(&mut cursor, &mut out).is_err());
    }

    #[test]
    fn oversized_length_prefix_is_stream_corruption() {
        let mut stream = Vec::new();
        stream.extend_from_slice(&(u32::MAX).to_le_bytes());
        let mut cursor = std::io::Cursor::new(stream);
        let mut out = Vec::new();
        let err = read_frame_into(&mut cursor, &mut out).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }
}
