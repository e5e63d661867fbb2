//! Piece-wise-linear tables.
//!
//! The paper's exponential DAC is a PWL approximation of `(1+δ)ⁿ`
//! (its Fig 3); this module supplies the generic PWL machinery used to
//! compare the implemented staircase against the ideal exponential.

use crate::{NumError, Result};

/// A piece-wise-linear function defined by sorted `(x, y)` breakpoints.
///
/// Evaluation clamps outside the table range (flat extrapolation), matching
/// how a saturating DAC behaves at its code extremes.
///
/// # Example
///
/// ```
/// use lcosc_num::interp::PwlTable;
///
/// # fn main() -> Result<(), lcosc_num::NumError> {
/// let t = PwlTable::new(vec![(0.0, 0.0), (1.0, 10.0), (2.0, 40.0)])?;
/// assert_eq!(t.eval(0.5), 5.0);
/// assert_eq!(t.eval(1.5), 25.0);
/// assert_eq!(t.eval(-1.0), 0.0);   // clamped
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PwlTable {
    points: Vec<(f64, f64)>,
}

impl PwlTable {
    /// Creates a table from breakpoints.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::InvalidInput`] if fewer than two points are given,
    /// the x values are not strictly increasing, or any value is non-finite.
    pub fn new(points: Vec<(f64, f64)>) -> Result<Self> {
        if points.len() < 2 {
            return Err(NumError::InvalidInput("pwl table needs >= 2 points"));
        }
        for w in points.windows(2) {
            if !(w[1].0 > w[0].0) {
                return Err(NumError::InvalidInput(
                    "pwl x values must strictly increase",
                ));
            }
        }
        if points.iter().any(|(x, y)| !x.is_finite() || !y.is_finite()) {
            return Err(NumError::InvalidInput("pwl points must be finite"));
        }
        Ok(PwlTable { points })
    }

    /// Evaluates the PWL function at `x`, clamping outside the range.
    pub fn eval(&self, x: f64) -> f64 {
        let pts = &self.points;
        if x <= pts[0].0 {
            return pts[0].1;
        }
        if x >= pts[pts.len() - 1].0 {
            return pts[pts.len() - 1].1;
        }
        // Binary search for the segment.
        let idx = pts.partition_point(|p| p.0 <= x);
        let (x0, y0) = pts[idx - 1];
        let (x1, y1) = pts[idx];
        y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> PwlTable {
        PwlTable::new(vec![(0.0, 0.0), (1.0, 10.0), (2.0, 40.0)]).unwrap()
    }

    #[test]
    fn eval_interpolates_within_segments() {
        let t = table();
        assert_eq!(t.eval(0.25), 2.5);
        assert_eq!(t.eval(1.0), 10.0);
        assert_eq!(t.eval(1.75), 32.5);
    }

    #[test]
    fn eval_clamps_outside_range() {
        let t = table();
        assert_eq!(t.eval(-5.0), 0.0);
        assert_eq!(t.eval(99.0), 40.0);
    }

    #[test]
    fn eval_exact_breakpoints() {
        let t = table();
        for (x, y) in [(0.0, 0.0), (1.0, 10.0), (2.0, 40.0)] {
            assert_eq!(t.eval(x), y);
        }
    }

    #[test]
    fn rejects_too_few_points() {
        assert!(PwlTable::new(vec![(0.0, 1.0)]).is_err());
    }

    #[test]
    fn rejects_non_increasing_x() {
        assert!(PwlTable::new(vec![(0.0, 0.0), (0.0, 1.0)]).is_err());
        assert!(PwlTable::new(vec![(1.0, 0.0), (0.0, 1.0)]).is_err());
    }

    #[test]
    fn rejects_nan() {
        assert!(PwlTable::new(vec![(0.0, f64::NAN), (1.0, 1.0)]).is_err());
    }
}
