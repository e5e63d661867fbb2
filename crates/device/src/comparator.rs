//! Behavioral window comparator.
//!
//! [`WindowComparator`] is the amplitude-regulation window (§4): it reports
//! whether the filtered amplitude is below, inside or above [low, high].

/// Output state of a [`WindowComparator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WindowState {
    /// Input below the lower threshold — the loop must increase amplitude.
    Below,
    /// Input inside the window — hold.
    Inside,
    /// Input above the upper threshold — the loop must decrease amplitude.
    Above,
}

impl std::fmt::Display for WindowState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WindowState::Below => write!(f, "below"),
            WindowState::Inside => write!(f, "inside"),
            WindowState::Above => write!(f, "above"),
        }
    }
}

/// Window comparator for the amplitude-regulation loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowComparator {
    low: f64,
    high: f64,
}

impl WindowComparator {
    /// Creates a window `[low, high]`.
    ///
    /// # Panics
    ///
    /// Panics unless `high > low`.
    pub fn new(low: f64, high: f64) -> Self {
        assert!(high > low, "window must have high > low");
        WindowComparator { low, high }
    }

    /// Creates a window centered on `target` with total relative width
    /// `rel_width` (e.g. `0.15` for ±7.5 %).
    ///
    /// # Panics
    ///
    /// Panics unless `target > 0` and `rel_width > 0`.
    pub fn centered(target: f64, rel_width: f64) -> Self {
        assert!(target > 0.0, "target must be positive");
        assert!(rel_width > 0.0, "relative width must be positive");
        let half = 0.5 * rel_width * target;
        WindowComparator::new(target - half, target + half)
    }

    /// Lower threshold.
    pub fn low(&self) -> f64 {
        self.low
    }

    /// Upper threshold.
    pub fn high(&self) -> f64 {
        self.high
    }

    /// Window width relative to its center.
    pub fn relative_width(&self) -> f64 {
        (self.high - self.low) / (0.5 * (self.high + self.low))
    }

    /// Classifies an input against the window.
    pub fn classify(&self, v: f64) -> WindowState {
        if v < self.low {
            WindowState::Below
        } else if v > self.high {
            WindowState::Above
        } else {
            WindowState::Inside
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_classification() {
        let w = WindowComparator::new(1.0, 2.0);
        assert_eq!(w.classify(0.5), WindowState::Below);
        assert_eq!(w.classify(1.5), WindowState::Inside);
        assert_eq!(w.classify(2.5), WindowState::Above);
        assert_eq!(w.classify(1.0), WindowState::Inside); // inclusive edges
        assert_eq!(w.classify(2.0), WindowState::Inside);
    }

    #[test]
    fn centered_window_width() {
        let w = WindowComparator::centered(2.0, 0.15);
        assert!((w.low() - 1.85).abs() < 1e-12);
        assert!((w.high() - 2.15).abs() < 1e-12);
        assert!((w.relative_width() - 0.15).abs() < 1e-12);
    }

    #[test]
    fn window_state_display() {
        assert_eq!(WindowState::Below.to_string(), "below");
        assert_eq!(WindowState::Inside.to_string(), "inside");
        assert_eq!(WindowState::Above.to_string(), "above");
    }

    #[test]
    #[should_panic(expected = "high > low")]
    fn window_rejects_inverted_bounds() {
        let _ = WindowComparator::new(2.0, 1.0);
    }
}
