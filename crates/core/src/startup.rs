//! Startup sequencing (paper §4).
//!
//! On power-on reset the current limitation is preset to **code 105** —
//! below maximum (reducing inrush to ≈40 % of maximum consumption) yet high
//! enough to start the oscillator even when full amplitude would need the
//! maximum code. A few microseconds later the non-volatile memory is read
//! and a predefined code close to the expected operating point takes over,
//! speeding up amplitude settling. Regulation ticks begin afterwards.

use lcosc_dac::Code;

/// Startup phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StartupPhase {
    /// POR released; code forced to the preset (105).
    PorPreset,
    /// NVM value loaded; code forced to the stored value.
    NvmLoaded,
    /// Regulation loop owns the code.
    Regulating,
}

/// POR/NVM startup sequencer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StartupSequencer {
    nvm_code: Code,
    nvm_delay: f64,
    regulation_start: f64,
}

impl StartupSequencer {
    /// Creates a sequencer: the NVM code is applied `nvm_delay` seconds
    /// after POR release, and regulation begins at `regulation_start`
    /// (the first 1 ms tick boundary on the chip).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < nvm_delay <= regulation_start`.
    pub fn new(nvm_code: Code, nvm_delay: f64, regulation_start: f64) -> Self {
        assert!(nvm_delay > 0.0, "nvm delay must be positive");
        assert!(
            regulation_start >= nvm_delay,
            "regulation must start after the nvm load"
        );
        StartupSequencer {
            nvm_code,
            nvm_delay,
            regulation_start,
        }
    }

    /// The NVM-stored code.
    pub fn nvm_code(&self) -> Code {
        self.nvm_code
    }

    /// Phase at time `t` after POR release.
    pub fn phase(&self, t: f64) -> StartupPhase {
        if t < self.nvm_delay {
            StartupPhase::PorPreset
        } else if t < self.regulation_start {
            StartupPhase::NvmLoaded
        } else {
            StartupPhase::Regulating
        }
    }

    /// Code forced at time `t`, or `None` once regulation owns the code.
    pub fn forced_code(&self, t: f64) -> Option<Code> {
        match self.phase(t) {
            StartupPhase::PorPreset => Some(Code::POR_PRESET),
            StartupPhase::NvmLoaded => Some(self.nvm_code),
            StartupPhase::Regulating => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Chip-like timing: NVM read 5 µs after POR, regulation from 1 ms.
    fn chip(nvm_code: u32) -> StartupSequencer {
        StartupSequencer::new(Code::new(nvm_code).unwrap(), 5e-6, 1e-3)
    }

    #[test]
    fn phases_in_order() {
        let s = chip(60);
        assert_eq!(s.phase(0.0), StartupPhase::PorPreset);
        assert_eq!(s.phase(1e-6), StartupPhase::PorPreset);
        assert_eq!(s.phase(10e-6), StartupPhase::NvmLoaded);
        assert_eq!(s.phase(2e-3), StartupPhase::Regulating);
    }

    #[test]
    fn por_preset_is_code_105() {
        let s = chip(60);
        assert_eq!(s.forced_code(0.0), Some(Code::POR_PRESET));
        assert_eq!(s.forced_code(0.0).unwrap().value(), 105);
    }

    #[test]
    fn nvm_code_takes_over() {
        let s = chip(60);
        assert_eq!(s.forced_code(100e-6), Some(Code::new(60).unwrap()));
        assert_eq!(s.nvm_code().value(), 60);
    }

    #[test]
    fn regulation_owns_code_after_start() {
        let s = chip(60);
        assert_eq!(s.forced_code(1e-3), None);
    }

    #[test]
    fn por_preset_is_about_40_percent_of_max_consumption() {
        // Paper: the preset reduces startup consumption to ≈40 % of max.
        let preset = lcosc_dac::multiplication_factor(Code::POR_PRESET) as f64;
        let max = lcosc_dac::multiplication_factor(Code::MAX) as f64;
        let ratio = preset / max;
        assert!((0.35..0.45).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    #[should_panic(expected = "after the nvm load")]
    fn rejects_regulation_before_nvm() {
        let _ = StartupSequencer::new(Code::MIN, 1e-3, 1e-6);
    }
}
