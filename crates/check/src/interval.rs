//! Sound outward-rounded interval arithmetic — the abstract numeric
//! domain of the `--prove` pass.
//!
//! Every operation widens its result by one ulp on each side
//! ([`next_down`]/`next_up`) so the returned interval *contains* the
//! exact real result of applying the operation to any points of the
//! operands, regardless of the rounding direction the hardware picked.
//! That over-approximation is the entire soundness story: a property
//! proved on these intervals ("`hi < window`") holds for every concrete
//! value they contain, floats included.
//!
//! The domain is deliberately minimal: closed finite intervals, the four
//! arithmetic operations (division requires a strictly positive divisor —
//! every denominator in the prover is a physical current or capacitance),
//! monotone `sqrt`, lattice joins (`hull`) and a widening operator for
//! fixpoint acceleration.

/// The next representable `f64` strictly above `x` (saturates at +∞).
pub(crate) fn next_up(x: f64) -> f64 {
    if x.is_nan() || x == f64::INFINITY {
        x
    } else if x == 0.0 {
        // Covers -0.0 as well: the smallest positive subnormal is the
        // successor of both zeros.
        f64::from_bits(1)
    } else if x > 0.0 {
        f64::from_bits(x.to_bits() + 1)
    } else {
        f64::from_bits(x.to_bits() - 1)
    }
}

/// The next representable `f64` strictly below `x` (saturates at −∞).
pub fn next_down(x: f64) -> f64 {
    if x.is_nan() || x == f64::NEG_INFINITY {
        x
    } else if x == 0.0 {
        -f64::from_bits(1)
    } else if x > 0.0 {
        f64::from_bits(x.to_bits() - 1)
    } else {
        f64::from_bits(x.to_bits() + 1)
    }
}

/// A closed interval `[lo, hi]` of reals, the abstract value of the
/// prover's numeric domain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Lower bound (inclusive).
    pub lo: f64,
    /// Upper bound (inclusive).
    pub hi: f64,
}

impl Interval {
    /// Builds `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics when the bounds are not finite or are inverted — an
    /// inverted interval is always a prover bug, never an input
    /// condition.
    pub fn new(lo: f64, hi: f64) -> Interval {
        assert!(
            lo.is_finite() && hi.is_finite() && lo <= hi,
            "invalid interval [{lo}, {hi}]"
        );
        Interval { lo, hi }
    }

    /// The degenerate interval `[x, x]`.
    pub fn point(x: f64) -> Interval {
        Interval::new(x, x)
    }

    /// `nominal · [1 − tol, 1 + tol]`, outward rounded: the abstract
    /// value of a device with relative tolerance `tol ≥ 0`.
    ///
    /// # Panics
    ///
    /// Panics when `nominal < 0` or `tol < 0` (all modelled devices are
    /// non-negative quantities).
    pub fn from_rel_tol(nominal: f64, tol: f64) -> Interval {
        assert!(nominal >= 0.0 && tol >= 0.0, "negative device model");
        Interval::point(nominal) * Interval::new(1.0 - tol, 1.0 + tol)
    }

    /// Width `hi − lo` (exact subtraction, not outward rounded — used
    /// for reporting, not for proofs).
    pub fn width(self) -> f64 {
        self.hi - self.lo
    }

    /// Whether the concrete value `x` lies inside the interval.
    pub fn contains(self, x: f64) -> bool {
        self.lo <= x && x <= self.hi
    }

    /// Whether `other` lies entirely inside `self`.
    pub fn encloses(self, other: Interval) -> bool {
        self.lo <= other.lo && other.hi <= self.hi
    }

    /// Outward-rounded square root (monotone, so endpoints suffice).
    ///
    /// # Panics
    ///
    /// Panics on negative intervals.
    #[must_use]
    pub fn sqrt(self) -> Interval {
        assert!(self.lo >= 0.0, "sqrt of negative interval {self:?}");
        Interval::new(next_down(self.lo.sqrt()).max(0.0), next_up(self.hi.sqrt()))
    }

    /// Lattice join: the smallest interval containing both operands.
    #[must_use]
    pub fn hull(self, rhs: Interval) -> Interval {
        Interval::new(self.lo.min(rhs.lo), self.hi.max(rhs.hi))
    }

    /// Widening operator: returns `self` when `rhs` is already enclosed;
    /// otherwise jumps past the join by doubling the escaped side's
    /// distance, guaranteeing ascending chains stabilise in finitely
    /// many steps. Always encloses `self.hull(rhs)`.
    #[must_use]
    pub fn widen(self, rhs: Interval) -> Interval {
        if self.encloses(rhs) {
            return self;
        }
        let joined = self.hull(rhs);
        let lo = if joined.lo < self.lo {
            next_down(joined.lo - joined.width())
        } else {
            joined.lo
        };
        let hi = if joined.hi > self.hi {
            next_up(joined.hi + joined.width())
        } else {
            joined.hi
        };
        Interval::new(lo, hi)
    }
}

impl std::ops::Add for Interval {
    type Output = Interval;

    /// Outward-rounded sum.
    fn add(self, rhs: Interval) -> Interval {
        Interval::new(next_down(self.lo + rhs.lo), next_up(self.hi + rhs.hi))
    }
}

impl std::ops::Sub for Interval {
    type Output = Interval;

    /// Outward-rounded difference.
    fn sub(self, rhs: Interval) -> Interval {
        Interval::new(next_down(self.lo - rhs.hi), next_up(self.hi - rhs.lo))
    }
}

impl std::ops::Mul for Interval {
    type Output = Interval;

    /// Outward-rounded product (sign-general: all four endpoint
    /// products are considered).
    fn mul(self, rhs: Interval) -> Interval {
        let p = [
            self.lo * rhs.lo,
            self.lo * rhs.hi,
            self.hi * rhs.lo,
            self.hi * rhs.hi,
        ];
        let lo = p.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = p.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Interval::new(next_down(lo), next_up(hi))
    }
}

impl std::ops::Div for Interval {
    type Output = Interval;

    /// Outward-rounded quotient.
    ///
    /// # Panics
    ///
    /// Panics unless the divisor is strictly positive (`rhs.lo > 0`);
    /// the prover establishes positivity of every denominator before
    /// dividing, so a zero-straddling divisor is a bug.
    fn div(self, rhs: Interval) -> Interval {
        assert!(rhs.lo > 0.0, "division by non-positive interval {rhs:?}");
        let p = [
            self.lo / rhs.lo,
            self.lo / rhs.hi,
            self.hi / rhs.lo,
            self.hi / rhs.hi,
        ];
        let lo = p.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = p.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Interval::new(next_down(lo), next_up(hi))
    }
}

/// Largest value of the fraction `(s + n) / (s + d)` over `s ∈ s_box`,
/// with scalar numerator offset `n` and denominator offset `d`, rounded
/// up. The fraction is monotone in `s` with the sign of `d − n`, so one
/// endpoint of `s_box` attains the maximum.
///
/// # Panics
///
/// Panics when the denominator can reach zero or below.
pub fn frac_hi(s_box: Interval, n: f64, d: f64) -> f64 {
    assert!(s_box.lo + d > 0.0, "denominator not provably positive");
    let s = if d - n < 0.0 { s_box.lo } else { s_box.hi };
    next_up(next_up(s + n) / next_down(s + d))
}

/// Smallest value of `(s + n) / (s + d)` over `s ∈ s_box`, rounded down.
/// See [`frac_hi`] for the monotonicity argument.
///
/// # Panics
///
/// Panics when the denominator can reach zero or below.
pub fn frac_lo(s_box: Interval, n: f64, d: f64) -> f64 {
    assert!(s_box.lo + d > 0.0, "denominator not provably positive");
    let s = if d - n > 0.0 { s_box.lo } else { s_box.hi };
    next_down(next_down(s + n) / next_up(s + d))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neighbours_bracket_every_float() {
        for x in [0.0, -0.0, 1.0, -1.0, 1e-300, -3.5e7, f64::MIN_POSITIVE] {
            assert!(next_up(x) > x, "next_up({x})");
            assert!(next_down(x) < x, "next_down({x})");
        }
        assert_eq!(next_up(f64::INFINITY), f64::INFINITY);
        assert_eq!(next_down(f64::NEG_INFINITY), f64::NEG_INFINITY);
    }

    #[test]
    fn arithmetic_contains_exact_results() {
        let a = Interval::new(1.0, 2.0);
        let b = Interval::new(3.0, 4.0);
        assert!((a + b).contains(1.0 + 3.0) && (a + b).contains(2.0 + 4.0));
        assert!((a - b).contains(1.0 - 4.0) && (a - b).contains(2.0 - 3.0));
        assert!((a * b).contains(3.0) && (a * b).contains(8.0));
        assert!((a / b).contains(0.25) && (a / b).contains(2.0 / 3.0));
        assert!(b.sqrt().contains(3.0f64.sqrt()) && b.sqrt().contains(2.0));
    }

    #[test]
    fn mul_handles_mixed_signs() {
        let a = Interval::new(-2.0, 3.0);
        let b = Interval::new(-5.0, 4.0);
        let p = a * b;
        assert!(p.contains(10.0), "(-2)·(-5)");
        assert!(p.contains(-15.0), "3·(-5)");
        assert!(p.contains(12.0), "3·4");
    }

    #[test]
    fn rel_tol_brackets_the_nominal() {
        let d = Interval::from_rel_tol(16.0, 0.032);
        assert!(d.contains(16.0));
        assert!(d.lo <= 16.0 * (1.0 - 0.032) && d.hi >= 16.0 * (1.0 + 0.032));
    }

    #[test]
    fn hull_and_enclosure() {
        let a = Interval::new(1.0, 2.0);
        let b = Interval::new(1.5, 3.0);
        let h = a.hull(b);
        assert!(h.encloses(a) && h.encloses(b));
        assert_eq!(h, Interval::new(1.0, 3.0));
    }

    #[test]
    fn widen_is_an_upper_bound_and_stabilises() {
        let mut w = Interval::new(0.0, 1.0);
        for k in 1..100 {
            let sample = Interval::new(0.0, 1.0 + k as f64 * 0.1);
            let next = w.widen(sample);
            assert!(next.encloses(w.hull(sample)), "widen covers the join");
            w = next;
        }
        // Doubling jumps: the chain must have stabilised long before 100
        // iterations of +0.1 growth.
        assert!(w.encloses(Interval::new(0.0, 10.9)));
    }

    #[test]
    fn frac_bounds_bracket_interior_points() {
        let s = Interval::new(15.0, 17.0);
        let (n, d) = (2.0, 1.0);
        for k in 0..=10 {
            let sv = 15.0 + 0.2 * k as f64;
            let exact = (sv + n) / (sv + d);
            assert!(frac_lo(s, n, d) <= exact && exact <= frac_hi(s, n, d));
        }
    }

    #[test]
    #[should_panic(expected = "non-positive")]
    fn div_rejects_zero_straddling_divisor() {
        let _ = Interval::new(1.0, 2.0) / Interval::new(-1.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "invalid interval")]
    fn inverted_bounds_are_rejected() {
        let _ = Interval::new(2.0, 1.0);
    }
}
