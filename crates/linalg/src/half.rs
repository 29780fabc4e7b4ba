//! Reduced-precision scalar conversions: IEEE 754 binary16 (`f16`), the
//! one reduced width the compressed collectives and the model artifacts use.
//!
//! No `half` crate is available offline, so the conversions are hand-rolled
//! bit manipulation with round-to-nearest-even, full subnormal support, and
//! inf/NaN preservation. Everything downstream (the compressed collectives,
//! the artifact weight blocks) routes through
//! these few functions, so their semantics are pinned by exhaustive and
//! property tests here and in `proptest_collectives.rs` /
//! `proptest_artifact.rs`.
//!
//! The simulation carries all numeric state as `f64`; "storing in f16"
//! means rounding through the 16-bit format and back (`f64 → f32 → f16 →
//! f32 → f64`, the same double rounding a real accelerator performs when
//! staging through single precision).

/// Converts an `f32` to IEEE 754 binary16 bits with round-to-nearest-even.
///
/// Overflow rounds to ±inf, underflow denormalizes and eventually flushes
/// to ±0, and NaNs stay NaNs (payload truncated, quiet bit forced).
pub fn f32_to_f16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xff) as i32;
    let man = bits & 0x007f_ffff;
    if exp == 0xff {
        // Inf keeps its form; NaN keeps the quiet bit so it cannot collapse
        // into an infinity when the payload truncates away.
        return if man == 0 { sign | 0x7c00 } else { sign | 0x7e00 };
    }
    let unbiased = exp - 127;
    if unbiased >= 16 {
        return sign | 0x7c00; // overflow → ±inf
    }
    if unbiased >= -14 {
        // Normal f16 range: 23-bit mantissa → 10-bit, round to nearest even.
        let mut m = man >> 13;
        let rest = man & 0x1fff;
        if rest > 0x1000 || (rest == 0x1000 && (m & 1) == 1) {
            m += 1;
        }
        let mut e = (unbiased + 15) as u32;
        if m == 0x400 {
            // Mantissa rounded up past 1.0: carry into the exponent.
            m = 0;
            e += 1;
        }
        if e >= 31 {
            return sign | 0x7c00; // rounded up into ±inf
        }
        sign | ((e << 10) as u16) | (m as u16)
    } else if unbiased >= -25 {
        // Subnormal f16: the value is m·2⁻²⁴ for m in 0..1024. Shift the
        // 24-bit significand (implicit 1 restored) down and round.
        let full = man | 0x0080_0000;
        let shift = (-14 - unbiased + 13) as u32;
        let mut m = full >> shift;
        let rest = full & ((1u32 << shift) - 1);
        let half = 1u32 << (shift - 1);
        if rest > half || (rest == half && (m & 1) == 1) {
            m += 1; // may carry into the smallest normal — the encoding lines up
        }
        sign | (m as u16)
    } else {
        sign // underflow → ±0
    }
}

/// Converts IEEE 754 binary16 bits back to `f32` (exact — every f16 value
/// is representable in f32).
pub fn f16_bits_to_f32(h: u16) -> f32 {
    let sign = ((h as u32) & 0x8000) << 16;
    let exp = (h >> 10) & 0x1f;
    let man = (h & 0x3ff) as u32;
    let bits = if exp == 0x1f {
        sign | 0x7f80_0000 | (man << 13)
    } else if exp == 0 {
        if man == 0 {
            sign
        } else {
            // Subnormal: normalize m·2⁻²⁴ into an f32 normal.
            let mut e = 113u32; // 127 − 15 + 1, decremented per shift below
            let mut m = man;
            while m & 0x400 == 0 {
                m <<= 1;
                e -= 1;
            }
            sign | (e << 23) | ((m & 0x3ff) << 13)
        }
    } else {
        sign | (((exp as u32) + 127 - 15) << 23) | (man << 13)
    };
    f32::from_bits(bits)
}

/// Rounds an `f64` through f16 storage and back (staging through f32, as
/// real hardware does).
pub fn round_f16(x: f64) -> f64 {
    f16_bits_to_f32(f32_to_f16_bits(x as f32)) as f64
}

/// Relative error bound of one f16 rounding for values in the normal range
/// (half an ulp of a 10-bit mantissa), with slack for the extra f64→f32 step.
pub const F16_RELATIVE_ERROR: f64 = 1.0 / 2048.0 + 1e-7;

/// Largest finite f16 value.
pub const F16_MAX: f64 = 65504.0;

/// Smallest positive *normal* f16 value (below this, absolute error is
/// bounded by the subnormal step 2⁻²⁴ instead of the relative bound).
pub const F16_MIN_NORMAL: f64 = 6.103515625e-5; // 2⁻¹⁴

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f16_special_values_round_trip() {
        assert_eq!(f32_to_f16_bits(0.0), 0x0000);
        assert_eq!(f32_to_f16_bits(-0.0), 0x8000);
        assert_eq!(f32_to_f16_bits(1.0), 0x3c00);
        assert_eq!(f32_to_f16_bits(-2.0), 0xc000);
        assert_eq!(f32_to_f16_bits(65504.0), 0x7bff);
        assert_eq!(f32_to_f16_bits(65536.0), 0x7c00, "overflow → inf");
        assert_eq!(f32_to_f16_bits(f32::INFINITY), 0x7c00);
        assert_eq!(f32_to_f16_bits(f32::NEG_INFINITY), 0xfc00);
        assert!(f16_bits_to_f32(f32_to_f16_bits(f32::NAN)).is_nan());
        // Smallest positive subnormal and normal.
        assert_eq!(f32_to_f16_bits(2.0f32.powi(-24)), 0x0001);
        assert_eq!(f32_to_f16_bits(2.0f32.powi(-14)), 0x0400);
        // Below half the smallest subnormal → +0.
        assert_eq!(f32_to_f16_bits(2.0f32.powi(-26)), 0x0000);
    }

    #[test]
    fn every_f16_bit_pattern_survives_decode_encode() {
        // f16 → f32 is exact, so encode(decode(h)) must reproduce every
        // pattern except that NaN payloads may be re-quieted.
        for h in 0..=u16::MAX {
            let back = f32_to_f16_bits(f16_bits_to_f32(h));
            let exp = (h >> 10) & 0x1f;
            let man = h & 0x3ff;
            if exp == 0x1f && man != 0 {
                assert!(f16_bits_to_f32(back).is_nan(), "NaN pattern {h:#06x} must stay NaN");
            } else {
                assert_eq!(back, h, "pattern {h:#06x} must round-trip exactly");
            }
        }
    }

    #[test]
    fn rounding_is_to_nearest_even() {
        // 1 + 2⁻¹¹ sits exactly between 1.0 and the next f16 (1 + 2⁻¹⁰);
        // ties go to the even mantissa (1.0).
        assert_eq!(round_f16(1.0 + 2f64.powi(-11)), 1.0);
        // 1 + 3·2⁻¹¹ ties between 1+2⁻¹⁰ and 1+2·2⁻¹⁰ → even (1+2·2⁻¹⁰).
        assert_eq!(round_f16(1.0 + 3.0 * 2f64.powi(-11)), 1.0 + 2.0 * 2f64.powi(-10));
        // Just above the tie rounds up.
        assert_eq!(round_f16(1.0 + 2f64.powi(-11) + 2f64.powi(-20)), 1.0 + 2f64.powi(-10));
    }

    #[test]
    fn relative_error_bounds_hold_across_the_normal_range() {
        // Stay below F16_MAX / 1.34 so the scaled probe cannot overflow into
        // ±inf (overflow is exercised separately).
        let mut x = F16_MIN_NORMAL;
        while x < F16_MAX / 2.0 {
            for v in [x, -x, x * 1.3371] {
                let r16 = round_f16(v);
                assert!(
                    (r16 - v).abs() <= F16_RELATIVE_ERROR * v.abs(),
                    "f16 relative error blown at {v}: {r16}"
                );
            }
            x *= 1.7;
        }
    }
}
