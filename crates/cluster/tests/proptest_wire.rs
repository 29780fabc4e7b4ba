//! Property tests for the transport wire codec.
//!
//! Mirrors the artifact-format suite (`proptest_artifact.rs`) for frames:
//!
//! 1. **Round trip** — contribution/result/error/raw frames over arbitrary
//!    payloads (empty, large, f16-compressed values, NaN payloads, ±∞,
//!    negative zero, subnormals) decode back bit-identically.
//! 2. **Corruption is typed** — truncating a frame anywhere, or flipping any
//!    header bit, never panics and never silently succeeds: decoding yields
//!    the specific [`WireError`] variant documented for that region, naming
//!    the field that failed.
//! 3. **Stream framing** — length-prefixed frames round-trip over byte
//!    streams; a truncated stream is a clean IO error, not a hang or panic.

use nadmm_cluster::transport::wire::{
    decode, encode_contribution, encode_error, encode_hello, encode_raw, encode_result, read_frame_into, write_frame, Frame,
    RoundOp, WireError, WIRE_MAGIC, WIRE_VERSION,
};
use nadmm_cluster::Compression;
use proptest::prelude::*;

/// Deterministic payload from sampled parameters: cycles through the bit
/// patterns most likely to break a codec that round-trips through text or
/// arithmetic instead of raw bits.
fn build_payload(len: usize, seed: u64) -> Vec<f64> {
    (0..len)
        .map(|i| match (i as u64 + seed) % 9 {
            0 => -0.0,
            1 => f64::NAN,
            2 => f64::from_bits(0x7ff8_dead_beef_cafe), // NaN with payload bits
            3 => f64::INFINITY,
            4 => f64::NEG_INFINITY,
            5 => f64::MIN_POSITIVE / 4.0, // subnormal
            6 => Compression::F16.round((i as f64 * 0.37).sin() * 1e3),
            7 => f64::from_bits(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(i as u64)),
            _ => i as f64 - seed as f64 * 0.5,
        })
        .collect()
}

/// The op under test, indexed so proptest can sample it.
fn build_op(idx: usize, sum_len: usize) -> RoundOp {
    match idx % 5 {
        0 => RoundOp::Barrier,
        1 => RoundOp::Sum,
        2 => RoundOp::Max,
        3 => RoundOp::SumMax { sum_len },
        _ => RoundOp::CopyRoot,
    }
}

fn bits(payload: &[f64]) -> Vec<u64> {
    payload.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn contributions_round_trip_bit_for_bit(
        len in 0usize..600,
        seed in 0u64..1_000_000,
        round in 0u64..1_000_000,
        op_idx in 0usize..5,
        sum_len in 0usize..600,
        time_seed in 0u64..1_000_000,
    ) {
        let payload = build_payload(len, seed);
        let op = build_op(op_idx, sum_len);
        let time = (time_seed as f64) * 1e-7;
        let mut buf = Vec::new();
        encode_contribution(&mut buf, round, op, false, time, len as u64, &payload);
        match decode(&buf).map_err(|e| format!("decode failed: {e}"))? {
            Frame::Contribution { round: r, op: o, tombstone, time: t, len: l, payload: view } => {
                prop_assert_eq!(r, round);
                prop_assert_eq!(o, op);
                prop_assert!(!tombstone);
                prop_assert_eq!(t.to_bits(), time.to_bits());
                prop_assert_eq!(l, len as u64);
                let out: Vec<f64> = view.values().collect();
                prop_assert_eq!(bits(&out), bits(&payload), "payload must survive bit-for-bit");
            }
            other => return Err(format!("expected a contribution, decoded {other:?}")),
        }
    }

    #[test]
    fn tombstones_round_trip_any_logical_length(
        len in 0u64..u64::MAX / 2,
        round in 0u64..1_000_000,
    ) {
        let mut buf = Vec::new();
        encode_contribution(&mut buf, round, RoundOp::Sum, true, 0.0, len, &[]);
        match decode(&buf).map_err(|e| format!("decode failed: {e}"))? {
            Frame::Contribution { tombstone, len: l, payload, .. } => {
                prop_assert!(tombstone);
                prop_assert_eq!(l, len);
                prop_assert!(payload.is_empty(), "tombstones never carry payload bytes");
            }
            other => return Err(format!("expected a contribution, decoded {other:?}")),
        }
    }

    #[test]
    fn results_round_trip_bit_for_bit(
        payload_len in 0usize..600,
        seed in 0u64..1_000_000,
        round in 0u64..1_000_000,
    ) {
        let payload = build_payload(payload_len, seed);
        let max_time = f64::from_bits(seed.wrapping_mul(3) | 1);
        let min_time = -0.0;
        let mut buf = Vec::new();
        encode_result(&mut buf, round, max_time, min_time, &payload);
        match decode(&buf).map_err(|e| format!("decode failed: {e}"))? {
            Frame::Result { round: r, max_time: mx, min_time: mn, payload: view } => {
                prop_assert_eq!(r, round);
                prop_assert_eq!(mx.to_bits(), max_time.to_bits());
                prop_assert_eq!(mn.to_bits(), min_time.to_bits());
                let out: Vec<f64> = view.values().collect();
                prop_assert_eq!(bits(&out), bits(&payload));
            }
            other => return Err(format!("expected a result, decoded {other:?}")),
        }
    }

    #[test]
    fn error_and_raw_frames_round_trip(
        msg_seed in 0usize..6,
        raw_len in 0usize..2_000,
        raw_seed in 0u64..1_000_000,
    ) {
        let message = ["", "rank 3 died", "π≈3.14159", "multi\nline\npanic", "ζ/0", "tab\tseparated"][msg_seed];
        let mut buf = Vec::new();
        encode_error(&mut buf, message);
        match decode(&buf).map_err(|e| format!("decode failed: {e}"))? {
            Frame::Error { message: m } => prop_assert_eq!(m, message),
            other => return Err(format!("expected an error frame, decoded {other:?}")),
        }
        let raw: Vec<u8> = (0..raw_len).map(|i| (i as u64 ^ raw_seed) as u8).collect();
        encode_raw(&mut buf, &raw);
        match decode(&buf).map_err(|e| format!("decode failed: {e}"))? {
            Frame::Raw { bytes } => prop_assert_eq!(bytes, &raw[..]),
            other => return Err(format!("expected a raw frame, decoded {other:?}")),
        }
    }

    #[test]
    fn truncation_is_always_a_typed_error_naming_a_field(
        len in 0usize..64,
        seed in 0u64..1_000_000,
        cut_fraction in 0.0f64..1.0,
    ) {
        let payload = build_payload(len, seed);
        let mut buf = Vec::new();
        encode_result(&mut buf, 5, 1.0, 0.5, &payload);
        let cut = ((buf.len() as f64 * cut_fraction) as usize).min(buf.len() - 1);
        match decode(&buf[..cut]) {
            Err(WireError::Truncated { field, needed, have }) => {
                prop_assert!(!field.is_empty(), "a truncation must name its field");
                prop_assert!(have < needed, "truncation arithmetic must be consistent");
            }
            other => return Err(format!("truncation at {cut}/{} must be Truncated, got {other:?}", buf.len())),
        }
    }

    #[test]
    fn contribution_truncation_is_typed_too(
        len in 1usize..64,
        seed in 0u64..1_000_000,
        cut_fraction in 0.0f64..1.0,
    ) {
        let payload = build_payload(len, seed);
        let mut buf = Vec::new();
        encode_contribution(&mut buf, 3, RoundOp::Sum, false, 0.125, len as u64, &payload);
        let cut = ((buf.len() as f64 * cut_fraction) as usize).min(buf.len() - 1);
        // A cut inside the payload section leaves a byte count that cannot
        // match the declared element count; a cut inside the header is a
        // plain truncation. Both are typed, neither panics or succeeds.
        match decode(&buf[..cut]) {
            Err(WireError::Truncated { field, .. }) => prop_assert!(!field.is_empty()),
            Err(WireError::PayloadSizeMismatch { field, expected_bytes, found_bytes }) => {
                prop_assert_eq!(field, "contribution payload");
                prop_assert!(found_bytes < expected_bytes);
            }
            other => return Err(format!("truncation at {cut}/{} must be typed, got {other:?}", buf.len())),
        }
    }

    #[test]
    fn header_bit_flips_land_on_the_documented_error(
        pos in 0usize..8,
        flip_bit in 0u32..8,
        len in 0usize..16,
        seed in 0u64..1_000_000,
    ) {
        let payload = build_payload(len, seed);
        let mut buf = Vec::new();
        encode_contribution(&mut buf, 1, RoundOp::Max, false, 0.0, len as u64, &payload);
        buf[pos] ^= 1u8 << flip_bit;
        let result = decode(&buf);
        if pos < WIRE_MAGIC.len() {
            prop_assert!(
                matches!(result, Err(WireError::BadMagic { .. })),
                "flip in magic at {} must be BadMagic, got {:?}", pos, result
            );
        } else if pos < 6 {
            match result {
                Err(WireError::UnsupportedVersion { found, supported }) => {
                    prop_assert!(found != WIRE_VERSION);
                    prop_assert_eq!(supported, WIRE_VERSION);
                }
                other => return Err(format!("flip in version at {pos} must be UnsupportedVersion, got {other:?}")),
            }
        } else if pos == 6 {
            // The kind byte: the flip either lands on another valid kind tag
            // (the frame then decodes as that kind or fails its stricter
            // field checks) or on an unknown tag. Either way: typed, no
            // panic, and the error — when the tag is unknown — names it.
            if let Err(WireError::BadKind { found }) = result {
                prop_assert_eq!(found, buf[6]);
            }
        } else {
            // The flags byte: only the tombstone bit is defined, and a
            // tombstone with payload bytes is itself a size mismatch.
            prop_assert!(
                matches!(
                    result,
                    Err(WireError::BadFlags { .. }) | Err(WireError::PayloadSizeMismatch { .. }) | Ok(Frame::Contribution { .. })
                ),
                "flip in flags must stay typed, got {:?}", result
            );
        }
    }

    #[test]
    fn stream_framing_round_trips_arbitrary_frame_sequences(
        lens in prop::collection::vec(0usize..80, 1..6),
        seed in 0u64..1_000_000,
    ) {
        // Write a heterogeneous sequence of frames to one stream, then read
        // them all back: every frame must come back byte-identical, in
        // order, and the exhausted stream must fail cleanly.
        let mut stream = Vec::new();
        let mut frames = Vec::new();
        for (i, &len) in lens.iter().enumerate() {
            let payload = build_payload(len, seed + i as u64);
            let mut frame = Vec::new();
            match i % 3 {
                0 => encode_contribution(&mut frame, i as u64, RoundOp::Sum, false, 0.5, len as u64, &payload),
                1 => encode_result(&mut frame, i as u64, 1.0, 0.0, &payload),
                _ => encode_hello(&mut frame, i as u64, lens.len() as u64),
            }
            write_frame(&mut stream, &frame).map_err(|e| format!("write failed: {e}"))?;
            frames.push(frame);
        }
        let mut cursor = std::io::Cursor::new(&stream);
        let mut out = Vec::new();
        for frame in &frames {
            read_frame_into(&mut cursor, &mut out).map_err(|e| format!("read failed: {e}"))?;
            prop_assert_eq!(&out, frame, "framing must be transparent");
            decode(&out).map_err(|e| format!("reread frame must decode: {e}"))?;
        }
        prop_assert!(read_frame_into(&mut cursor, &mut out).is_err(), "the exhausted stream must error");
        // A truncated stream (cut inside the last frame) is an IO error.
        let cut = stream.len() - 1;
        let mut cursor = std::io::Cursor::new(&stream[..cut]);
        let mut last_err = None;
        for _ in 0..frames.len() {
            if let Err(e) = read_frame_into(&mut cursor, &mut out) {
                last_err = Some(e);
                break;
            }
        }
        prop_assert!(last_err.is_some(), "a truncated stream must surface an IO error");
    }
}
