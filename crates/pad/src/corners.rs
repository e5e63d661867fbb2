//! Process-corner / temperature qualification of the unsupplied-pad
//! isolation (the automotive sign-off behind the paper's §8 claim).

use crate::topology::{PadDriver, PadTopology};
use crate::unsupplied::{UnsuppliedBench, UnsuppliedPoint};
use lcosc_circuit::analysis::dc::{solve_dc_with, DcOptions};
use lcosc_circuit::analysis::sweep::linspace;
use lcosc_circuit::netlist::{Netlist, Waveform};
use lcosc_circuit::Result;
use lcosc_device::process::{Corner, ProcessParams};

/// Result of one corner/temperature qualification point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CornerResult {
    /// Process corner.
    pub corner: Corner,
    /// Junction temperature, kelvin.
    pub temp_k: f64,
    /// Peak loop-current magnitude over the ±3 V sweep, amps.
    pub peak_current: f64,
}

/// Runs the Fig 17 sweep for one topology at a given process condition.
///
/// # Errors
///
/// Propagates DC solver failures.
pub(crate) fn unsupplied_sweep_at(
    topology: PadTopology,
    process: &ProcessParams,
    points: usize,
) -> Result<Vec<UnsuppliedPoint>> {
    let bench = UnsuppliedBench::new(topology);
    let mut nl = Netlist::new();
    let lc1 = nl.node("lc1");
    let lc2 = nl.node("lc2");
    let vdd = nl.node("vdd");
    let f1 = nl.node("force1");
    let f2 = nl.node("force2");
    let src1 = nl.voltage_source(f1, Netlist::GROUND, Waveform::Dc(0.0));
    let src2 = nl.voltage_source(f2, Netlist::GROUND, Waveform::Dc(0.0));
    nl.resistor(f1, lc1, bench.r_couple);
    nl.resistor(f2, lc2, bench.r_couple);
    nl.resistor(vdd, Netlist::GROUND, bench.r_internal);
    PadDriver::build_unpowered_at(&mut nl, "d1", lc1, vdd, topology, process);
    PadDriver::build_unpowered_at(&mut nl, "d2", lc2, vdd, topology, process);

    let opts = DcOptions::default();
    let mut warm: Option<Vec<f64>> = None;
    let mut out = Vec::with_capacity(points);
    for v in linspace(-3.0, 3.0, points) {
        if let lcosc_circuit::netlist::Element::VoltageSource { wave, .. } = nl.element_mut(src1) {
            *wave = Waveform::Dc(0.5 * v);
        }
        if let lcosc_circuit::netlist::Element::VoltageSource { wave, .. } = nl.element_mut(src2) {
            *wave = Waveform::Dc(-0.5 * v);
        }
        let sol = solve_dc_with(&nl, &opts, warm.as_deref())?;
        warm = Some(sol.raw().to_vec());
        let i_lc1 = -sol.current(src1);
        let i_lc2 = -sol.current(src2);
        out.push(UnsuppliedPoint {
            v_diff: v,
            i_loop: 0.5 * (i_lc1 - i_lc2),
            v_lc1: sol.voltage(lc1),
            v_lc2: sol.voltage(lc2),
            v_vdd: sol.voltage(vdd),
        });
    }
    Ok(out)
}

/// Qualifies a topology across all five corners and the automotive
/// temperature range (−40 °C, 27 °C, 125 °C).
///
/// # Errors
///
/// Propagates DC solver failures.
pub fn qualify(topology: PadTopology) -> Result<Vec<CornerResult>> {
    let temps = [233.15, 300.0, 398.15];
    let mut out = Vec::with_capacity(Corner::ALL.len() * temps.len());
    for corner in Corner::ALL {
        for &temp_k in &temps {
            let process = ProcessParams::new(corner, temp_k);
            let pts = unsupplied_sweep_at(topology, &process, 31)?;
            out.push(CornerResult {
                corner,
                temp_k,
                peak_current: UnsuppliedBench::peak_current(&pts),
            });
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bulk_switched_isolation_holds_at_all_corners() {
        let results = qualify(PadTopology::BulkSwitched).unwrap();
        assert_eq!(results.len(), 15);
        for r in &results {
            assert!(
                r.peak_current < 2.5e-3,
                "{} at {} K: {}",
                r.corner,
                r.temp_k,
                r.peak_current
            );
        }
    }

    #[test]
    fn hot_fast_corner_leaks_most() {
        let results = qualify(PadTopology::BulkSwitched).unwrap();
        let worst = results
            .iter()
            .max_by(|a, b| a.peak_current.total_cmp(&b.peak_current))
            .expect("non-empty");
        // Lower thresholds (FF, hot) conduct earliest.
        assert!(worst.temp_k > 300.0, "worst at {} K", worst.temp_k);
    }

    #[test]
    fn plain_cmos_fails_at_every_corner() {
        // The Fig 10a clamp is catastrophic regardless of corner — the
        // qualification would reject it everywhere, not marginally.
        for corner in lcosc_device::process::Corner::ALL {
            let process = ProcessParams::new(corner, 300.0);
            let pts = unsupplied_sweep_at(PadTopology::PlainCmos, &process, 13).unwrap();
            let peak = UnsuppliedBench::peak_current(&pts);
            assert!(peak > 3e-3, "{corner}: {peak}");
        }
    }
}
