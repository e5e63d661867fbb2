//! The ideal exponential law the PWL staircase approximates.
//!
//! Amplitude regulation with a constant *relative* voltage step needs an
//! exponential current control `Iₙ = I₀·(1+δ)ⁿ` (paper eq 5/6). The PWL
//! staircase doubles every 16 codes, so the equivalent per-code ratio is
//! `(1+δ) = 2^(1/16)`, i.e. δ ≈ 4.43 %.

use crate::code::Code;
use crate::transfer::multiplication_factor;

/// Per-code growth factor δ of the equivalent ideal exponential DAC:
/// `(1+δ)^16 = 2` ⇒ δ = 2^(1/16) − 1 ≈ 4.427 %.
pub fn equivalent_delta() -> f64 {
    2f64.powf(1.0 / 16.0) - 1.0
}

/// Ideal exponential multiplication factor matched to the staircase at the
/// segment-start codes: `M_ideal(n) = 16·2^((n−16)/16)` for `n ≥ 1`
/// (and 0 at code 0, where the staircase is linear by construction).
pub fn ideal_exponential(code: Code) -> f64 {
    if code == Code::MIN {
        return 0.0;
    }
    16.0 * 2f64.powf((code.value() as f64 - 16.0) / 16.0)
}

/// Number of bits a *linear* DAC would need to cover the same dynamic range
/// at the resolution of the finest step: `ceil(log2(full_scale + 1))`.
///
/// The staircase spans 0..=1984 with unit resolution at the bottom, so this
/// returns 11 — the paper's "corresponding to an 11-bit linear DAC".
pub fn equivalent_linear_bits() -> u32 {
    let full_scale = multiplication_factor(Code::MAX);
    32 - full_scale.leading_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_is_about_4_4_percent() {
        let d = equivalent_delta();
        assert!((d - 0.04427).abs() < 1e-4, "delta {d}");
    }

    #[test]
    fn sixteen_steps_double() {
        let d = equivalent_delta();
        assert!(((1.0 + d).powi(16) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn ideal_matches_staircase_at_segment_starts() {
        for seg_start in (16..=112u32).step_by(16) {
            let c = Code::new(seg_start).unwrap();
            let ideal = ideal_exponential(c);
            let actual = multiplication_factor(c) as f64;
            assert!(
                (ideal / actual - 1.0).abs() < 1e-12,
                "code {seg_start}: {ideal} vs {actual}"
            );
        }
    }

    #[test]
    fn pwl_error_stays_within_chord_bound() {
        // A linear chord under-approximates 2^x between breakpoints by at
        // most 1 − (ln 2 / (2^(x) ...)) ≈ 6 % for a one-octave chord; the
        // 16-step staircase tracks much closer.
        let e = Code::all()
            .filter(|c| c.value() >= 16)
            .map(|c| (multiplication_factor(c) as f64 / ideal_exponential(c) - 1.0).abs())
            .fold(0.0, f64::max);
        assert!(e < 0.0625, "pwl error {e}");
        assert!(e > 0.01, "error should be visible: {e}");
    }

    #[test]
    fn staircase_is_above_or_near_ideal_within_segments() {
        // The chord of a convex function lies above it: staircase >= ideal
        // (up to rounding) inside each segment.
        for n in 17..=127u32 {
            let c = Code::new(n).unwrap();
            let ratio = multiplication_factor(c) as f64 / ideal_exponential(c);
            assert!(ratio > 0.999, "code {n}: ratio {ratio}");
        }
    }

    #[test]
    fn eleven_equivalent_linear_bits() {
        assert_eq!(equivalent_linear_bits(), 11);
    }

    #[test]
    fn ideal_is_zero_at_code_zero() {
        assert_eq!(ideal_exponential(Code::MIN), 0.0);
    }
}
