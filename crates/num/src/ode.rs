//! ODE integration for behavioral circuit models.
//!
//! Provides a generic classic fixed-step RK4 ([`rk4_step`]) over any
//! [`OdeSystem`], the exact one-step propagator of a linear ODE with
//! constant input ([`affine_propagator`]), and a zero-crossing event
//! scanner used for oscillation frequency measurement. The oscillator's
//! cycle stepper (`lcosc_core::oscillator`) steps each linear region of its
//! piecewise-linear ODE with an `affine_propagator` and falls back to a
//! fixed-size, inlined copy of the RK4 arithmetic, whose bit-for-bit test
//! reference is `rk4_step`.

use crate::linalg::expm4;

/// A first-order ODE system `x' = f(t, x)`.
///
/// Implementors describe only the dynamics; integration state is owned by
/// the caller so the same system can be integrated from many initial
/// conditions.
pub trait OdeSystem {
    /// Number of state variables.
    fn dim(&self) -> usize;

    /// Writes `f(t, x)` into `dx`. `dx.len() == x.len() == self.dim()`.
    fn derivatives(&self, t: f64, x: &[f64], dx: &mut [f64]);
}

/// Performs one classic fourth-order Runge–Kutta step of size `dt` in place.
///
/// `scratch` must have length `5 * sys.dim()` and is used to avoid per-step
/// allocation in hot loops.
///
/// # Panics
///
/// Panics if `x.len() != sys.dim()` or `scratch` is too small.
pub fn rk4_step<S: OdeSystem + ?Sized>(
    sys: &S,
    t: f64,
    dt: f64,
    x: &mut [f64],
    scratch: &mut [f64],
) {
    let n = sys.dim();
    assert_eq!(x.len(), n, "state length mismatch");
    assert!(scratch.len() >= 5 * n, "scratch must hold 5*dim values");
    let (k1, rest) = scratch.split_at_mut(n);
    let (k2, rest) = rest.split_at_mut(n);
    let (k3, rest) = rest.split_at_mut(n);
    let (k4, xt) = rest.split_at_mut(n);
    let xt = &mut xt[..n];

    sys.derivatives(t, x, k1);
    for i in 0..n {
        xt[i] = x[i] + 0.5 * dt * k1[i];
    }
    sys.derivatives(t + 0.5 * dt, xt, k2);
    for i in 0..n {
        xt[i] = x[i] + 0.5 * dt * k2[i];
    }
    sys.derivatives(t + 0.5 * dt, xt, k3);
    for i in 0..n {
        xt[i] = x[i] + dt * k3[i];
    }
    sys.derivatives(t + dt, xt, k4);
    for i in 0..n {
        x[i] += dt / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
    }
}

/// Exact one-step propagator of the linear ODE `x' = A·x + b` over `dt`:
/// `x(t + dt) = Φ·x(t) + Γ` with `Φ = e^{A·dt}` and
/// `Γ = (∫₀^dt e^{A·s} ds)·b`, both read off the exponential of the 4×4
/// augmented matrix `[[A, b], [0, 0]]·dt` ([`expm4`]), which needs no
/// inverse of `A` and so stays valid when `A` is singular.
///
/// # Example
///
/// ```
/// use lcosc_num::ode::affine_propagator;
///
/// // x' = −x + 1 from x = 0: x(t) = 1 − e^{−t}.
/// let a = [[-1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]];
/// let (phi, gamma) = affine_propagator(&a, &[1.0, 0.0, 0.0], 0.5);
/// assert!((phi[0][0] - (-0.5f64).exp()).abs() < 1e-15);
/// assert!((gamma[0] - (1.0 - (-0.5f64).exp())).abs() < 1e-15);
/// ```
pub fn affine_propagator(a: &[[f64; 3]; 3], b: &[f64; 3], dt: f64) -> ([[f64; 3]; 3], [f64; 3]) {
    let mut m = [[0.0; 4]; 4];
    for ((mi, ai), bi) in m.iter_mut().zip(a).zip(b) {
        for (mij, aij) in mi.iter_mut().zip(ai) {
            *mij = aij * dt;
        }
        mi[3] = bi * dt;
    }
    let e = expm4(&m);
    let mut phi = [[0.0; 3]; 3];
    let mut gamma = [0.0; 3];
    for ((pi, gi), ei) in phi.iter_mut().zip(&mut gamma).zip(&e) {
        pi.copy_from_slice(&ei[..3]);
        *gi = ei[3];
    }
    (phi, gamma)
}

/// A detected zero crossing of a sampled signal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZeroCrossing {
    /// Linearly interpolated crossing time.
    pub t: f64,
    /// `true` when the signal crosses from negative to positive.
    pub rising: bool,
}

/// Scans a uniformly sampled signal for zero crossings with linear
/// interpolation of the crossing time.
///
/// Samples exactly at zero are treated as part of the following half-wave.
/// Returns crossings in time order.
pub(crate) fn zero_crossings(t0: f64, dt: f64, samples: &[f64]) -> Vec<ZeroCrossing> {
    let mut out = Vec::new();
    for w in 1..samples.len() {
        let (a, b) = (samples[w - 1], samples[w]);
        if (a < 0.0 && b >= 0.0) || (a > 0.0 && b <= 0.0) {
            let frac = a / (a - b);
            out.push(ZeroCrossing {
                t: t0 + dt * ((w - 1) as f64 + frac),
                rising: a < 0.0,
            });
        }
    }
    out
}

/// Estimates the fundamental frequency of a sampled signal from the mean
/// period between same-direction zero crossings.
///
/// Returns `None` when fewer than two rising crossings are present, or when
/// the crossings do not span a positive time interval (degenerate `dt = 0`
/// sampling or NaN-polluted signals would otherwise divide by zero here).
pub fn frequency_from_crossings(t0: f64, dt: f64, samples: &[f64]) -> Option<f64> {
    let rising: Vec<f64> = zero_crossings(t0, dt, samples)
        .into_iter()
        .filter(|z| z.rising)
        .map(|z| z.t)
        .collect();
    let (first, last) = (rising.first()?, rising.last()?);
    if rising.len() < 2 {
        return None;
    }
    let span = last - first;
    if !(span > 0.0) || !span.is_finite() {
        return None;
    }
    Some((rising.len() - 1) as f64 / span)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn affine_propagator_integrates_a_constant_input_through_a_singular_matrix() {
        // A = 0: Φ = I and Γ = b·dt.
        let (phi, gamma) = affine_propagator(&[[0.0; 3]; 3], &[1.0, -2.0, 3.0], 0.25);
        assert_eq!(phi, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]);
        assert_eq!(gamma, [0.25, -0.5, 0.75]);
    }

    #[test]
    fn affine_propagator_composes_like_the_flow() {
        // Two steps of dt equal one step of 2·dt.
        let a = [[-0.3, 1.2, -0.5], [-0.9, -0.1, 0.4], [0.2, -0.7, -0.6]];
        let b = [0.5, -1.0, 0.25];
        let (p1, g1) = affine_propagator(&a, &b, 0.1);
        let (p2, g2) = affine_propagator(&a, &b, 0.2);
        let x0 = [1.0, -0.5, 2.0];
        let step = |p: &[[f64; 3]; 3], g: &[f64; 3], x: [f64; 3]| {
            let mut y = *g;
            for i in 0..3 {
                for j in 0..3 {
                    y[i] += p[i][j] * x[j];
                }
            }
            y
        };
        let twice = step(&p1, &g1, step(&p1, &g1, x0));
        let once = step(&p2, &g2, x0);
        for i in 0..3 {
            assert!((twice[i] - once[i]).abs() < 1e-14, "{twice:?} vs {once:?}");
        }
    }

    struct Decay;
    impl OdeSystem for Decay {
        fn dim(&self) -> usize {
            1
        }
        fn derivatives(&self, _t: f64, x: &[f64], dx: &mut [f64]) {
            dx[0] = -x[0];
        }
    }

    /// Undamped harmonic oscillator with unit angular frequency.
    struct Harmonic;
    impl OdeSystem for Harmonic {
        fn dim(&self) -> usize {
            2
        }
        fn derivatives(&self, _t: f64, x: &[f64], dx: &mut [f64]) {
            dx[0] = x[1];
            dx[1] = -x[0];
        }
    }

    #[test]
    fn rk4_matches_exponential_decay() {
        let sys = Decay;
        let mut x = [1.0];
        let mut scratch = vec![0.0; 5];
        let dt = 1e-2;
        for s in 0..100 {
            rk4_step(&sys, s as f64 * dt, dt, &mut x, &mut scratch);
        }
        assert!((x[0] - (-1.0f64).exp()).abs() < 1e-9);
    }

    #[test]
    fn rk4_conserves_harmonic_energy_to_fourth_order() {
        let sys = Harmonic;
        let mut x = [1.0, 0.0];
        let mut scratch = vec![0.0; 10];
        let dt = 1e-3;
        for s in 0..10_000 {
            rk4_step(&sys, s as f64 * dt, dt, &mut x, &mut scratch);
        }
        let energy = x[0] * x[0] + x[1] * x[1];
        assert!((energy - 1.0).abs() < 1e-9, "energy drift {energy}");
    }

    #[test]
    fn zero_crossings_of_sine_alternate() {
        let n = 1000;
        let dt = 2.0 * std::f64::consts::PI / n as f64;
        // 1.1 periods: crossings at pi (falling) and 2*pi (rising); the t=0
        // start sample is exactly zero and belongs to the first half-wave.
        let samples: Vec<f64> = (0..=(11 * n / 10)).map(|i| (i as f64 * dt).sin()).collect();
        let zc = zero_crossings(0.0, dt, &samples);
        assert_eq!(zc.len(), 2);
        assert!(!zc[0].rising);
        assert!((zc[0].t - std::f64::consts::PI).abs() < 1e-4);
        assert!(zc[1].rising);
        assert!((zc[1].t - 2.0 * std::f64::consts::PI).abs() < 1e-4);
    }

    #[test]
    fn frequency_estimate_matches_sine() {
        let f = 3.0;
        let fs = 1000.0;
        let samples: Vec<f64> = (0..4000)
            .map(|i| (2.0 * std::f64::consts::PI * f * i as f64 / fs).sin())
            .collect();
        let est = frequency_from_crossings(0.0, 1.0 / fs, &samples).unwrap();
        assert!((est - f).abs() < 1e-3, "estimated {est}");
    }

    #[test]
    fn frequency_needs_two_rising_crossings() {
        let samples = [1.0, 0.5, 0.25];
        assert!(frequency_from_crossings(0.0, 1.0, &samples).is_none());
    }

    #[test]
    fn frequency_rejects_zero_span_instead_of_dividing_by_zero() {
        // dt = 0 collapses every crossing onto t0: used to return Some(inf).
        let samples = [-1.0, 1.0, -1.0, 1.0, -1.0, 1.0];
        assert!(frequency_from_crossings(0.0, 0.0, &samples).is_none());
        // NaN sampling period must not leak a NaN frequency either.
        assert!(frequency_from_crossings(0.0, f64::NAN, &samples).is_none());
    }
}
