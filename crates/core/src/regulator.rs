//! The digital amplitude-regulation state machine (paper §4).
//!
//! Every 1 ms the current-limitation code is increased by one, decreased by
//! one, or held, depending on the window comparator. Because the window is
//! wider than the largest DAC step, the code can never jump across the
//! window and the loop cannot hunt — even a non-monotonic DAC is tolerated.

use lcosc_dac::Code;
use lcosc_device::comparator::WindowState;

/// One regulation decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegulationAction {
    /// Amplitude below the window: code incremented.
    Increment,
    /// Amplitude above the window: code decremented.
    Decrement,
    /// Amplitude inside the window: code held.
    Hold,
}

/// The ±1/hold regulation state machine.
#[derive(Debug, Clone, PartialEq)]
pub struct RegulationFsm {
    code: Code,
    tick_period: f64,
    ticks: u64,
    saturated_low: bool,
    saturated_high: bool,
}

impl RegulationFsm {
    /// Creates the FSM at an initial code with the given tick period
    /// (1 ms on the chip).
    ///
    /// # Panics
    ///
    /// Panics if `tick_period` is not positive.
    pub fn new(initial: Code, tick_period: f64) -> Self {
        assert!(tick_period > 0.0, "tick period must be positive");
        RegulationFsm {
            code: initial,
            tick_period,
            ticks: 0,
            saturated_low: false,
            saturated_high: false,
        }
    }

    /// Current code.
    pub fn code(&self) -> Code {
        self.code
    }

    /// Overrides the code (POR preset / NVM load / safe-state reaction).
    /// Any latched saturation indication is cleared: it described the
    /// regulation trajectory that the override just discarded.
    pub fn set_code(&mut self, code: Code) {
        self.code = code;
        self.saturated_low = false;
        self.saturated_high = false;
    }

    /// Number of ticks executed.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Whether the code has hit the top of the range while still asking for
    /// more amplitude (a symptom of a poor tank or failing components —
    /// feeds the low-amplitude safety detector).
    ///
    /// The indication **latches**: it stays set through `Inside`/hold
    /// ticks and clears only when the window direction reverses (an
    /// `Above` tick — the loop is demonstrably no longer pinned against
    /// the top stop) or the code is overridden via
    /// [`RegulationFsm::set_code`]. A safety path that samples the flag
    /// once per reaction period therefore cannot miss a saturation that a
    /// single intervening hold tick would otherwise have erased.
    pub fn saturated_high(&self) -> bool {
        self.saturated_high
    }

    /// Whether the code has hit zero while still asking for less
    /// amplitude. Latches like [`RegulationFsm::saturated_high`], clearing
    /// on a `Below` tick or a code override.
    pub fn saturated_low(&self) -> bool {
        self.saturated_low
    }

    /// Executes one 1 ms tick given the window comparator state; returns
    /// the action taken.
    pub fn tick(&mut self, window: WindowState) -> RegulationAction {
        self.ticks += 1;
        match window {
            WindowState::Below => {
                // Asking for more amplitude: any low-side saturation story
                // is over, but a latched high-side saturation must survive
                // hold ticks until the direction truly reverses.
                self.saturated_low = false;
                if self.code == Code::MAX {
                    self.saturated_high = true;
                    RegulationAction::Hold
                } else {
                    self.code = self.code.increment();
                    RegulationAction::Increment
                }
            }
            WindowState::Above => {
                self.saturated_high = false;
                if self.code == Code::MIN {
                    self.saturated_low = true;
                    RegulationAction::Hold
                } else {
                    self.code = self.code.decrement();
                    RegulationAction::Decrement
                }
            }
            WindowState::Inside => RegulationAction::Hold,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn increments_when_below() {
        let mut fsm = RegulationFsm::new(Code::new(50).unwrap(), 1e-3);
        assert_eq!(fsm.tick(WindowState::Below), RegulationAction::Increment);
        assert_eq!(fsm.code().value(), 51);
    }

    #[test]
    fn decrements_when_above() {
        let mut fsm = RegulationFsm::new(Code::new(50).unwrap(), 1e-3);
        assert_eq!(fsm.tick(WindowState::Above), RegulationAction::Decrement);
        assert_eq!(fsm.code().value(), 49);
    }

    #[test]
    fn holds_when_inside() {
        let mut fsm = RegulationFsm::new(Code::new(50).unwrap(), 1e-3);
        assert_eq!(fsm.tick(WindowState::Inside), RegulationAction::Hold);
        assert_eq!(fsm.code().value(), 50);
        assert_eq!(fsm.ticks(), 1);
    }

    #[test]
    fn saturates_at_max_and_flags() {
        let mut fsm = RegulationFsm::new(Code::MAX, 1e-3);
        assert_eq!(fsm.tick(WindowState::Below), RegulationAction::Hold);
        assert_eq!(fsm.code(), Code::MAX);
        assert!(fsm.saturated_high());
        assert!(!fsm.saturated_low());
        // The latch survives hold ticks and clears only when the window
        // direction reverses.
        fsm.tick(WindowState::Inside);
        assert!(fsm.saturated_high(), "Inside must not erase the latch");
        fsm.tick(WindowState::Above);
        assert!(!fsm.saturated_high());
    }

    #[test]
    fn saturation_survives_hold_until_sampled() {
        // Regression for the low-amplitude safety path: the detector
        // samples saturation once per reaction period; a single Inside
        // tick between the saturation and the sample used to erase the
        // indication entirely.
        let mut fsm = RegulationFsm::new(Code::MAX, 1e-3);
        fsm.tick(WindowState::Below); // pinned at the top
        fsm.tick(WindowState::Inside); // brief comparator flicker
        fsm.tick(WindowState::Inside);
        assert!(
            fsm.saturated_high(),
            "sample-after-hold must still see the saturation"
        );
    }

    #[test]
    fn saturates_at_min_and_flags() {
        let mut fsm = RegulationFsm::new(Code::MIN, 1e-3);
        assert_eq!(fsm.tick(WindowState::Above), RegulationAction::Hold);
        assert_eq!(fsm.code(), Code::MIN);
        assert!(fsm.saturated_low());
        // Latched through holds; cleared by a direction reversal.
        fsm.tick(WindowState::Inside);
        assert!(fsm.saturated_low());
        fsm.tick(WindowState::Below);
        assert!(!fsm.saturated_low());
    }

    #[test]
    fn set_code_clears_saturation_latches() {
        let mut fsm = RegulationFsm::new(Code::MAX, 1e-3);
        fsm.tick(WindowState::Below);
        assert!(fsm.saturated_high());
        fsm.set_code(Code::POR_PRESET);
        assert!(!fsm.saturated_high(), "override discards the trajectory");
    }

    #[test]
    fn converges_from_any_start_against_monotone_plant() {
        // Plant: amplitude proportional to code; window [58, 62].
        let classify = |code: Code| {
            if (code.value() as i32) < 58 {
                WindowState::Below
            } else if code.value() as i32 > 62 {
                WindowState::Above
            } else {
                WindowState::Inside
            }
        };
        for start in [0u32, 30, 60, 100, 127] {
            let mut fsm = RegulationFsm::new(Code::new(start).unwrap(), 1e-3);
            for _ in 0..200 {
                let w = classify(fsm.code());
                fsm.tick(w);
            }
            let c = fsm.code().value();
            assert!((58..=62).contains(&c), "start {start} settled at {c}");
        }
    }

    #[test]
    fn steady_state_changes_are_rare_with_window() {
        // Once inside, the comparator reports Inside and the code freezes —
        // the paper's motivation for a window comparator.
        let mut fsm = RegulationFsm::new(Code::new(60).unwrap(), 1e-3);
        let mut changes = 0;
        for _ in 0..1000 {
            let before = fsm.code();
            fsm.tick(WindowState::Inside);
            if fsm.code() != before {
                changes += 1;
            }
        }
        assert_eq!(changes, 0);
    }

    #[test]
    fn set_code_overrides() {
        let mut fsm = RegulationFsm::new(Code::MIN, 1e-3);
        fsm.set_code(Code::POR_PRESET);
        assert_eq!(fsm.code(), Code::POR_PRESET);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_tick() {
        let _ = RegulationFsm::new(Code::MIN, 0.0);
    }
}
