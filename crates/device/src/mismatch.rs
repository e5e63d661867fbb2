//! Pelgrom-style random mismatch for matched device ratios.
//!
//! The paper's Fig 13/14 "measured" DAC transfer differs from the ideal
//! staircase because the prescaler, the fixed mirror legs and the binary
//! weights are built from finite-area matched devices. Mismatch between two
//! nominally identical devices has a standard deviation `σ ∝ 1/√(W·L)`
//! (Pelgrom's law); we expose that as a per-component relative sigma and a
//! seeded sampler so every "die" is reproducible.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Mismatch sampler: draws relative errors for matched-device ratios.
///
/// # Example
///
/// ```
/// use lcosc_device::mismatch::MismatchModel;
///
/// let mut die = MismatchModel::new(0.01, 42); // 1 % sigma, die seed 42
/// let ratio = die.ratio(8.0);                 // a nominal 8:1 mirror
/// assert!((ratio / 8.0 - 1.0).abs() < 0.1);
/// ```
#[derive(Debug, Clone)]
pub struct MismatchModel {
    sigma_rel: f64,
    rng: StdRng,
}

impl MismatchModel {
    /// Creates a sampler with the given relative sigma (e.g. `0.005` for
    /// 0.5 %) and die seed.
    ///
    /// # Panics
    ///
    /// Panics if `sigma_rel` is negative or not finite.
    pub fn new(sigma_rel: f64, seed: u64) -> Self {
        assert!(
            sigma_rel >= 0.0 && sigma_rel.is_finite(),
            "sigma must be finite and non-negative"
        );
        MismatchModel {
            sigma_rel,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// An ideal sampler that never produces mismatch (sigma = 0).
    pub fn ideal() -> Self {
        MismatchModel::new(0.0, 0)
    }

    /// Draws one standard normal variate (Box–Muller).
    pub fn standard_normal(&mut self) -> f64 {
        // Box–Muller; u1 in (0, 1] to avoid ln(0).
        let u1: f64 = 1.0 - self.rng.gen::<f64>();
        let u2: f64 = self.rng.gen();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Samples an actual ratio for a nominal matched-device ratio.
    ///
    /// Larger ratios are built from more unit devices, so their relative
    /// error shrinks as `1/√ratio` (unit errors average out).
    ///
    /// # Panics
    ///
    /// Panics if `nominal` is not positive.
    pub fn ratio(&mut self, nominal: f64) -> f64 {
        assert!(nominal > 0.0, "nominal ratio must be positive");
        let sigma_eff = self.sigma_rel / nominal.sqrt();
        nominal * (1.0 + sigma_eff * self.standard_normal()).max(1e-6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_sampler_returns_exact_values() {
        let mut m = MismatchModel::ideal();
        assert_eq!(m.ratio(8.0), 8.0);
    }

    #[test]
    fn same_seed_reproduces_same_die() {
        let mut a = MismatchModel::new(0.01, 7);
        let mut b = MismatchModel::new(0.01, 7);
        for _ in 0..32 {
            assert_eq!(a.ratio(8.0), b.ratio(8.0));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = MismatchModel::new(0.01, 1);
        let mut b = MismatchModel::new(0.01, 2);
        let same = (0..16).all(|_| a.ratio(8.0) == b.ratio(8.0));
        assert!(!same);
    }

    #[test]
    fn standard_normal_moments() {
        let mut m = MismatchModel::new(1.0, 99);
        let xs: Vec<f64> = (0..20_000).map(|_| m.standard_normal()).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn ratio_error_shrinks_with_nominal() {
        // Empirical sigma of ratio/nominal should scale ~ 1/sqrt(nominal).
        let spread = |nominal: f64| {
            let mut m = MismatchModel::new(0.05, 1234);
            let xs: Vec<f64> = (0..5000)
                .map(|_| m.ratio(nominal) / nominal - 1.0)
                .collect();
            (xs.iter().map(|x| x * x).sum::<f64>() / xs.len() as f64).sqrt()
        };
        let s1 = spread(1.0);
        let s16 = spread(16.0);
        assert!((s1 / s16 - 4.0).abs() < 0.5, "s1 {s1}, s16 {s16}");
    }

    #[test]
    fn ratio_never_non_positive() {
        let mut m = MismatchModel::new(5.0, 3); // absurd sigma
        for _ in 0..1000 {
            assert!(m.ratio(1.0) > 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn rejects_negative_sigma() {
        let _ = MismatchModel::new(-0.1, 0);
    }
}
