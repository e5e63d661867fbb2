//! Ratiometric position decoding.
//!
//! The two demodulated channels are proportional to `k·sin(θ)` and
//! `k·cos(θ)`; `atan2` recovers θ independent of the absolute excitation
//! amplitude (the regulation loop keeps it stable anyway, which the
//! magnitude check exploits as a diagnostic).

/// A decoded position sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecodedPosition {
    /// Electrical angle in radians, wrapped to `(-π, π]`.
    pub angle: f64,
    /// Signal-vector magnitude `√(sin² + cos²)` in the demodulator's units.
    pub magnitude: f64,
}

/// Stateless angle decoder with a magnitude window for validity checks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PositionDecoder {
    magnitude_nominal: f64,
    magnitude_tolerance: f64,
}

impl PositionDecoder {
    /// Creates a decoder expecting the signal-vector magnitude
    /// `magnitude_nominal` within a relative `tolerance`.
    ///
    /// # Panics
    ///
    /// Panics unless both parameters are positive.
    pub fn new(magnitude_nominal: f64, tolerance: f64) -> Self {
        assert!(
            magnitude_nominal > 0.0,
            "nominal magnitude must be positive"
        );
        assert!(tolerance > 0.0, "tolerance must be positive");
        PositionDecoder {
            magnitude_nominal,
            magnitude_tolerance: tolerance,
        }
    }

    /// Decodes one sample pair from the sine/cosine channels.
    pub fn decode(&self, ch_sin: f64, ch_cos: f64) -> DecodedPosition {
        DecodedPosition {
            angle: ch_sin.atan2(ch_cos),
            magnitude: ch_sin.hypot(ch_cos),
        }
    }

    /// Whether a decoded sample's magnitude is inside the validity window.
    pub fn is_valid(&self, p: &DecodedPosition) -> bool {
        (p.magnitude / self.magnitude_nominal - 1.0).abs() <= self.magnitude_tolerance
    }
}

/// Smallest signed difference `a − b` between two wrapped angles.
pub fn angle_difference(a: f64, b: f64) -> f64 {
    let mut d = a - b;
    while d > std::f64::consts::PI {
        d -= 2.0 * std::f64::consts::PI;
    }
    while d <= -std::f64::consts::PI {
        d += 2.0 * std::f64::consts::PI;
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn decodes_all_quadrants() {
        let d = PositionDecoder::new(0.25, 0.2);
        for i in 0..16 {
            let theta = -PI + (i as f64 + 0.5) * 2.0 * PI / 16.0;
            let p = d.decode(0.25 * theta.sin(), 0.25 * theta.cos());
            assert!(angle_difference(p.angle, theta).abs() < 1e-12, "at {theta}");
            assert!((p.magnitude - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn decode_is_amplitude_independent() {
        let d = PositionDecoder::new(0.25, 0.2);
        let theta = 1.234f64;
        for scale in [0.5, 1.0, 3.0] {
            let p = d.decode(scale * theta.sin(), scale * theta.cos());
            assert!(
                angle_difference(p.angle, theta).abs() < 1e-12,
                "scale {scale}"
            );
        }
    }

    #[test]
    fn validity_window() {
        let d = PositionDecoder::new(1.0, 0.1);
        assert!(d.is_valid(&d.decode(0.0, 1.0)));
        assert!(d.is_valid(&d.decode(0.0, 1.09)));
        assert!(!d.is_valid(&d.decode(0.0, 1.2)));
        assert!(!d.is_valid(&d.decode(0.0, 0.5)));
        assert!(!d.is_valid(&d.decode(0.0, 0.0)));
    }

    #[test]
    fn angle_difference_wraps() {
        assert!((angle_difference(3.0, -3.0) - (6.0 - 2.0 * PI)).abs() < 1e-12);
        assert!((angle_difference(-3.0, 3.0) + (6.0 - 2.0 * PI)).abs() < 1e-12);
        assert_eq!(angle_difference(1.0, 1.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_nominal() {
        let _ = PositionDecoder::new(0.0, 0.1);
    }
}
