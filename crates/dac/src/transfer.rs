//! Nominal (design) transfer curve of the PWL exponential DAC — the data
//! behind the paper's Fig 3 (multiplication factor) and Fig 4 (relative
//! voltage step).

use crate::code::Code;
use crate::segment::Segment;
use lcosc_num::units::Amps;

/// Ideal multiplication factor `Mₙ` for a code, in units of the LSB current
/// (Fig 3's y-axis): `0..=1984`.
pub fn multiplication_factor(code: Code) -> u32 {
    let seg = Segment::of(code);
    seg.range_min + code.lsbs() as u32 * seg.step
}

/// Relative output step from `code` to `code + 1`:
/// `(M(n+1) − M(n)) / M(n)`.
///
/// Returns `None` at the last code or while `M(n) == 0`.
///
/// Because the regulated amplitude is proportional to the limited current
/// (paper eq 4), this is also the *relative voltage step* of Fig 4; above
/// code 16 it stays within the paper's 3.23 %…6.25 % band.
pub fn relative_step(code: Code) -> Option<f64> {
    if code == Code::MAX {
        return None;
    }
    let m0 = multiplication_factor(code);
    if m0 == 0 {
        return None;
    }
    let m1 = multiplication_factor(code.increment());
    Some((m1 as f64 - m0 as f64) / m0 as f64)
}

/// The full nominal transfer curve with unit current scaling.
///
/// # Example
///
/// ```
/// use lcosc_dac::TransferCurve;
/// use lcosc_num::units::Amps;
///
/// let curve = TransferCurve::new(Amps::from_micro(12.5)); // the chip's LSB
/// let amps = curve.current(lcosc_dac::Code::MAX);
/// assert!((amps.value() - 0.0248).abs() < 1e-6); // 1984 × 12.5 µA = 24.8 mA
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferCurve {
    lsb: Amps,
}

impl TransferCurve {
    /// Creates a curve scaled by the unit (LSB) current.
    ///
    /// # Panics
    ///
    /// Panics unless the LSB current is positive and finite.
    pub fn new(lsb: Amps) -> Self {
        assert!(
            lsb.value() > 0.0 && lsb.is_finite(),
            "lsb current must be positive and finite"
        );
        TransferCurve { lsb }
    }

    /// Unit current.
    pub fn lsb(&self) -> Amps {
        self.lsb
    }

    /// Limited output current at a code.
    pub fn current(&self, code: Code) -> Amps {
        Amps(multiplication_factor(code) as f64 * self.lsb.value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staircase_endpoints() {
        assert_eq!(multiplication_factor(Code::MIN), 0);
        assert_eq!(multiplication_factor(Code::MAX), 1984);
        assert_eq!(multiplication_factor(Code::new(16).unwrap()), 16);
        assert_eq!(multiplication_factor(Code::new(64).unwrap()), 128);
    }

    #[test]
    fn staircase_is_strictly_monotone_above_zero() {
        let mut prev = multiplication_factor(Code::MIN);
        for code in Code::all().skip(1) {
            let m = multiplication_factor(code);
            assert!(m > prev, "code {code}");
            prev = m;
        }
    }

    #[test]
    fn doubles_every_16_codes_from_16() {
        // Fig 3 log-scale: a straight line -> M(n+16) = 2 M(n) for n >= 16.
        for n in 16..=111u32 {
            let m0 = multiplication_factor(Code::new(n).unwrap());
            let m1 = multiplication_factor(Code::new(n + 16).unwrap());
            assert_eq!(m1, 2 * m0, "code {n}");
        }
    }

    #[test]
    fn relative_step_band_above_code_16() {
        // Paper: "For codes above 16 the amplitude step varies between
        // 3.23 % and 6.25 %".
        for n in 16..127u32 {
            let s = relative_step(Code::new(n).unwrap()).unwrap();
            assert!(
                (0.0323 - 1e-4..=0.0625 + 1e-9).contains(&s),
                "code {n}: step {s}"
            );
        }
    }

    #[test]
    fn relative_step_extremes_hit_paper_bounds() {
        let steps: Vec<f64> = (16..127u32)
            .map(|n| relative_step(Code::new(n).unwrap()).unwrap())
            .collect();
        let max = steps.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let min = steps.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!((max - 0.0625).abs() < 1e-12, "max {max}");
        assert!((min - 1.0 / 31.0).abs() < 1e-12, "min {min}"); // 3.23 %
    }

    #[test]
    fn relative_step_none_at_edges() {
        assert!(relative_step(Code::MAX).is_none());
        assert!(relative_step(Code::MIN).is_none()); // M(0) = 0
    }

    #[test]
    fn datasheet_scaling() {
        // The paper's chip: 1 LSB = 12.5 µA (Fig 13 caption).
        let c = TransferCurve::new(Amps::from_micro(12.5));
        assert!((c.current(Code::MAX).value() - 24.8e-3).abs() < 1e-9);
        assert!((c.current(Code::new(16).unwrap()).value() - 200e-6).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_lsb() {
        let _ = TransferCurve::new(Amps(0.0));
    }
}
