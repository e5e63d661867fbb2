//! Redundant dual-system simulation (paper §8, Fig 9).
//!
//! Two oscillator systems run at the same frequency with mutually coupled
//! excitation coils. When one system loses its supply, its pad drivers
//! present a non-linear load to the coil; through the coupling this load
//! reflects into the survivor's tank as extra loss. The survivor's
//! regulation loop must absorb that loss without leaving its amplitude
//! window — which it only can if the dead chip uses the Fig 11 output
//! stage.
//!
//! The partner's load conductance is computed from the pad-level DC sweep
//! ([`lcosc_pad::UnsuppliedBench`]) as the secant at the survivor's
//! operating swing, then reflected with `k²` (transformer coupling) and
//! injected into the survivor's model as a pin leak.

use crate::SafetyError;
use lcosc_core::config::OscillatorConfig;
use lcosc_core::sim::ClosedLoopSim;
use lcosc_pad::topology::PadTopology;
use lcosc_pad::unsupplied::UnsuppliedBench;

/// Outcome of the partner-supply-loss experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DualOutcome {
    /// Pad topology of the (dead) partner.
    pub partner_topology: PadTopology,
    /// Survivor amplitude before the partner died, volts pp.
    pub vpp_before: f64,
    /// Survivor amplitude after re-settling, volts pp.
    pub vpp_after: f64,
    /// Survivor code before.
    pub code_before: u8,
    /// Survivor code after.
    pub code_after: u8,
    /// Whether the survivor re-settled inside its window.
    pub survivor_settled: bool,
    /// Reflected load conductance injected into the survivor, siemens.
    pub reflected_conductance: f64,
}

impl DualOutcome {
    /// Relative amplitude disturbance caused by the dead partner.
    pub fn influence(&self) -> f64 {
        (self.vpp_after / self.vpp_before - 1.0).abs()
    }
}

/// Two coupled oscillator systems; system B loses its supply.
#[derive(Debug, Clone)]
pub struct DualSystem {
    survivor: ClosedLoopSim,
    coupling_k: f64,
    partner_topology: PadTopology,
}

impl DualSystem {
    /// Creates the pair: both systems use `config`; the partner's pad
    /// topology decides its unsupplied behavior. `coupling_k` is the coil
    /// coupling factor (≈0.8 for coils on the same rotor).
    ///
    /// # Errors
    ///
    /// Returns [`SafetyError`] for invalid configurations or coupling.
    pub fn new(
        config: OscillatorConfig,
        partner_topology: PadTopology,
        coupling_k: f64,
    ) -> Result<Self, SafetyError> {
        if !(0.0..=1.0).contains(&coupling_k) {
            return Err(SafetyError::InvalidInput("coupling k must be in [0, 1]"));
        }
        let survivor = ClosedLoopSim::new(config)?;
        Ok(DualSystem {
            survivor,
            coupling_k,
            partner_topology,
        })
    }

    /// Runs the full experiment: settle both systems, kill the partner's
    /// supply, let the survivor re-regulate.
    ///
    /// # Errors
    ///
    /// Returns [`SafetyError`] when either the oscillator simulation or the
    /// pad-level DC sweep fails.
    pub fn run_supply_loss(&mut self) -> Result<DualOutcome, SafetyError> {
        let before = self.survivor.run_until_settled()?;

        // Secant load conductance of the dead partner at the survivor's
        // differential peak swing.
        let v_peak = (before.final_vpp / 2.0).max(0.1);
        let bench = UnsuppliedBench::new(self.partner_topology);
        let pts = bench.sweep(&[v_peak])?;
        let g_load = pts[0].i_loop / v_peak;

        // Reflect through the coupling and inject as a pin leak (the sim
        // folds it into equivalent series loss for the envelope model).
        let g_reflected = self.coupling_k * self.coupling_k * g_load;
        self.survivor.inject_pin_leak(0, 2.0 * g_reflected.max(0.0));

        let after = self.survivor.run_until_settled()?;

        Ok(DualOutcome {
            partner_topology: self.partner_topology,
            vpp_before: before.final_vpp,
            vpp_after: after.final_vpp,
            code_before: before.final_code.value(),
            code_after: after.final_code.value(),
            survivor_settled: after.settled,
            reflected_conductance: g_reflected,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fast-test tank regulated to the paper's 2.7 Vpp operating amplitude
    /// (±0.675 V per pin, where the partner's pad knees start to matter).
    fn cfg() -> OscillatorConfig {
        let mut c = OscillatorConfig::fast_test();
        c.target_vpp = 2.7;
        c.nvm_code = c.recommended_nvm_code();
        c
    }

    fn run(topology: PadTopology) -> DualOutcome {
        DualSystem::new(cfg(), topology, 0.8)
            .unwrap()
            .run_supply_loss()
            .unwrap()
    }

    #[test]
    fn bulk_switched_partner_does_not_disturb_survivor() {
        // The paper's §8 claim: the unsupplied system does not
        // significantly influence the other one.
        let o = run(PadTopology::BulkSwitched);
        assert!(o.survivor_settled, "{o:?}");
        assert!(o.influence() < 0.1, "influence {}", o.influence());
    }

    #[test]
    fn plain_cmos_partner_loads_survivor_more() {
        let plain = run(PadTopology::PlainCmos);
        let bulk = run(PadTopology::BulkSwitched);
        assert!(
            plain.reflected_conductance > 5.0 * bulk.reflected_conductance,
            "plain {} vs bulk {}",
            plain.reflected_conductance,
            bulk.reflected_conductance
        );
        // The survivor has to burn more current to stay in the window.
        assert!(
            plain.code_after >= bulk.code_after,
            "plain code {} vs bulk code {}",
            plain.code_after,
            bulk.code_after
        );
    }

    #[test]
    fn survivor_code_rises_to_cover_reflected_loss() {
        let o = run(PadTopology::PlainCmos);
        assert!(
            o.code_after > o.code_before,
            "code {} -> {}",
            o.code_before,
            o.code_after
        );
    }

    #[test]
    fn zero_coupling_means_zero_influence() {
        let o = DualSystem::new(cfg(), PadTopology::PlainCmos, 0.0)
            .unwrap()
            .run_supply_loss()
            .unwrap();
        assert!(o.influence() < 0.05, "influence {}", o.influence());
        assert_eq!(o.reflected_conductance, 0.0);
    }

    #[test]
    fn invalid_coupling_rejected() {
        assert!(matches!(
            DualSystem::new(cfg(), PadTopology::BulkSwitched, 1.5),
            Err(SafetyError::InvalidInput(_))
        ));
    }
}
