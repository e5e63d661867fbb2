//! Descriptive statistics for measurement post-processing: mean, RMS,
//! peak-to-peak span and percentiles.

use crate::{NumError, Result};

/// Arithmetic mean. Returns `None` for an empty slice.
pub fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        None
    } else {
        Some(xs.iter().sum::<f64>() / xs.len() as f64)
    }
}

/// Root-mean-square value. Returns `None` for an empty slice.
pub fn rms(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        None
    } else {
        Some((xs.iter().map(|x| x * x).sum::<f64>() / xs.len() as f64).sqrt())
    }
}

/// Peak-to-peak span (max − min). Returns `None` for an empty slice.
pub fn peak_to_peak(xs: &[f64]) -> Option<f64> {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for &x in xs {
        lo = lo.min(x);
        hi = hi.max(x);
    }
    if xs.is_empty() {
        None
    } else {
        Some(hi - lo)
    }
}

/// Linear-interpolated percentile, `p` in `[0, 100]`.
///
/// # Errors
///
/// Returns [`NumError::InvalidInput`] for an empty slice, `p` outside
/// `[0, 100]`, or any non-finite sample. Non-finite samples are rejected
/// rather than sorted into place: `total_cmp` orders NaN above +inf, so a
/// single NaN would otherwise make high percentiles silently return (or
/// interpolate against) NaN instead of erroring.
pub fn percentile(xs: &[f64], p: f64) -> Result<f64> {
    if xs.is_empty() {
        return Err(NumError::InvalidInput("percentile of empty slice"));
    }
    if !(0.0..=100.0).contains(&p) {
        return Err(NumError::InvalidInput("percentile must be in [0, 100]"));
    }
    if xs.iter().any(|x| !x.is_finite()) {
        return Err(NumError::InvalidInput("percentile of non-finite sample"));
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    Ok(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_basic() {
        assert_eq!(mean(&[1.0, 2.0, 3.0, 4.0]), Some(2.5));
    }

    #[test]
    fn empty_slices_give_none() {
        assert_eq!(mean(&[]), None);
        assert_eq!(rms(&[]), None);
        assert_eq!(peak_to_peak(&[]), None);
    }

    #[test]
    fn rms_of_sine_samples() {
        let xs: Vec<f64> = (0..1000)
            .map(|i| (2.0 * std::f64::consts::PI * i as f64 / 1000.0).sin())
            .collect();
        assert!((rms(&xs).unwrap() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-3);
    }

    #[test]
    fn peak_to_peak_of_cosine_is_two() {
        let xs: Vec<f64> = (0..1000)
            .map(|i| (2.0 * std::f64::consts::PI * i as f64 / 1000.0).cos())
            .collect();
        assert!((peak_to_peak(&xs).unwrap() - 2.0).abs() < 1e-4);
    }

    #[test]
    fn percentile_median_and_bounds() {
        let xs = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&xs, 50.0).unwrap(), 3.0);
        assert_eq!(percentile(&xs, 0.0).unwrap(), 1.0);
        assert_eq!(percentile(&xs, 100.0).unwrap(), 5.0);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [0.0, 10.0];
        assert_eq!(percentile(&xs, 25.0).unwrap(), 2.5);
    }

    #[test]
    fn percentile_rejects_bad_input() {
        assert!(percentile(&[], 50.0).is_err());
        assert!(percentile(&[1.0], 101.0).is_err());
    }

    #[test]
    fn percentile_rejects_non_finite_samples() {
        // A NaN sorts above +inf under total_cmp, so before the finiteness
        // guard p=100 returned NaN instead of an error. Pin the typed error
        // for NaN and both infinities, at low and high percentiles alike.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let xs = [1.0, 2.0, bad, 3.0];
            for p in [0.0, 50.0, 99.0, 100.0] {
                let e = percentile(&xs, p).unwrap_err();
                assert!(matches!(e, NumError::InvalidInput(_)), "p={p} bad={bad}");
            }
        }
    }
}
