//! Ratioed current mirrors.
//!
//! The paper's current-limitation DAC (Fig 5/6) is built from a prescaler
//! (ratios 1/2/4/8), two fixed mirror banks (16+16+32+64 units) and a 7-bit
//! binary-weighted bank (1..64 units). This module models a mirror leg as a
//! nominal ratio plus sampled mismatch.

use crate::mismatch::MismatchModel;

/// One output leg of a current mirror: `i_out = ratio · i_ref`.
#[derive(Debug, Clone, PartialEq)]
pub struct CurrentMirror {
    actual: f64,
}

impl CurrentMirror {
    /// Creates an ideal mirror leg with the given nominal ratio.
    ///
    /// # Panics
    ///
    /// Panics if `nominal` is not positive.
    pub fn ideal(nominal: f64) -> Self {
        assert!(nominal > 0.0, "mirror ratio must be positive");
        CurrentMirror { actual: nominal }
    }

    /// Creates a mirror leg whose actual ratio is drawn from `die`.
    ///
    /// # Panics
    ///
    /// Panics if `nominal` is not positive.
    pub fn sampled(nominal: f64, die: &mut MismatchModel) -> Self {
        assert!(nominal > 0.0, "mirror ratio must be positive");
        CurrentMirror {
            actual: die.ratio(nominal),
        }
    }

    /// Actual (mismatched) ratio.
    pub fn actual(&self) -> f64 {
        self.actual
    }
}

/// A bank of binary-weighted mirror legs forming a current DAC:
/// leg `k` has nominal ratio `2^k` and is enabled by bit `k` of the code.
#[derive(Debug, Clone, PartialEq)]
pub struct BinaryWeightedBank {
    legs: Vec<CurrentMirror>,
}

impl BinaryWeightedBank {
    /// Creates an ideal bank with `bits` legs (ratios 1, 2, 4, ...).
    ///
    /// # Panics
    ///
    /// Panics if `bits == 0` or `bits > 16`.
    pub fn ideal(bits: u32) -> Self {
        assert!(bits > 0 && bits <= 16, "bits must be in 1..=16");
        BinaryWeightedBank {
            legs: (0..bits)
                .map(|k| CurrentMirror::ideal((1u32 << k) as f64))
                .collect(),
        }
    }

    /// Creates a mismatched bank sampled from `die`.
    ///
    /// # Panics
    ///
    /// Panics if `bits == 0` or `bits > 16`.
    pub fn sampled(bits: u32, die: &mut MismatchModel) -> Self {
        assert!(bits > 0 && bits <= 16, "bits must be in 1..=16");
        BinaryWeightedBank {
            legs: (0..bits)
                .map(|k| CurrentMirror::sampled((1u32 << k) as f64, die))
                .collect(),
        }
    }

    /// Total multiplication for a digital `code` (bit `k` enables leg `k`)
    /// at unit reference current.
    ///
    /// # Panics
    ///
    /// Panics if `code` has bits beyond the bank width.
    pub fn multiplication(&self, code: u32) -> f64 {
        assert!(
            code < (1u32 << self.legs.len()),
            "code {code} exceeds bank width"
        );
        self.legs
            .iter()
            .enumerate()
            .filter(|(k, _)| code & (1 << k) != 0)
            .map(|(_, leg)| leg.actual())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampled_mirror_is_near_nominal() {
        let mut die = MismatchModel::new(0.01, 11);
        let m = CurrentMirror::sampled(16.0, &mut die);
        assert!((m.actual() / 16.0 - 1.0).abs() < 0.05);
        assert_ne!(m.actual(), 16.0);
    }

    #[test]
    fn ideal_bank_reproduces_binary_code() {
        let bank = BinaryWeightedBank::ideal(7);
        for code in 0..128u32 {
            assert_eq!(bank.multiplication(code), code as f64);
        }
    }

    #[test]
    fn sampled_bank_close_to_code() {
        let mut die = MismatchModel::new(0.005, 3);
        let bank = BinaryWeightedBank::sampled(7, &mut die);
        for code in [1u32, 5, 64, 127] {
            let m = bank.multiplication(code);
            assert!((m / code as f64 - 1.0).abs() < 0.05, "code {code}: {m}");
        }
    }

    #[test]
    fn bank_zero_code_gives_zero() {
        let bank = BinaryWeightedBank::ideal(7);
        assert_eq!(bank.multiplication(0), 0.0);
    }

    #[test]
    #[should_panic(expected = "exceeds bank width")]
    fn bank_rejects_wide_code() {
        let bank = BinaryWeightedBank::ideal(4);
        let _ = bank.multiplication(16);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn mirror_rejects_zero_ratio() {
        let _ = CurrentMirror::ideal(0.0);
    }
}
