//! Frequency-domain view of the sensor tank: build the paper's Fig 1
//! network in the MNA simulator and sweep it with the AC analysis —
//! the resonance peak and bandwidth must match the analytic `LcTank`.
//!
//! ```text
//! cargo run --release --example ac_tank_analysis
//! ```

use lcosc::circuit::analysis::ac::{ac_sweep, logspace};
use lcosc::circuit::netlist::{Netlist, Waveform};
use lcosc::core::tank::LcTank;
use lcosc::spice::render_netlist;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let tank = LcTank::datasheet_3mhz();
    println!("analytic: {tank}\n");

    // Fig 1's passive network, driven through a weak source so the tank's
    // own impedance shapes the response.
    let mut nl = Netlist::new();
    let lc1 = nl.node("lc1");
    let lc2 = nl.node("lc2");
    let mid = nl.node("mid");
    let drv = nl.node("drv");
    let src = nl.voltage_source(drv, Netlist::GROUND, Waveform::Dc(0.0));
    nl.resistor(drv, lc1, 100e3);
    nl.capacitor(lc1, Netlist::GROUND, tank.c1().value());
    nl.capacitor(lc2, Netlist::GROUND, tank.c2().value());
    nl.inductor(lc1, mid, tank.l().value());
    nl.resistor(mid, lc2, tank.rs().value());

    println!("netlist:\n{}", render_netlist(&nl, "fig 1 tank", None));

    let f0 = tank.f0().value();
    let freqs = logspace(f0 / 4.0, f0 * 4.0, 41);
    let pts = ac_sweep(&nl, src, &freqs)?;

    println!("{:>12} {:>10} {:>10}", "f [Hz]", "|V(lc1)|dB", "phase");
    let mut peak = (0.0f64, 0.0f64);
    for p in &pts {
        let mag = p.magnitude_db(lc1);
        if p.voltage(lc1).abs() > peak.1 {
            peak = (p.frequency, p.voltage(lc1).abs());
        }
        let bar = "#".repeat(((mag + 75.0).max(0.0) / 2.0) as usize);
        println!(
            "{:>12.0} {:>9.2} {:>9.1}°  {}",
            p.frequency,
            mag,
            p.phase(lc1).to_degrees(),
            bar
        );
    }

    println!(
        "\nMNA resonance at {:.3} MHz vs analytic f0 {:.3} MHz ({:+.2} %)",
        peak.0 / 1e6,
        f0 / 1e6,
        100.0 * (peak.0 / f0 - 1.0)
    );
    assert!((peak.0 / f0 - 1.0).abs() < 0.1);

    // Q from the -3 dB bandwidth on a finer sweep.
    let fine = ac_sweep(&nl, src, &logspace(f0 * 0.8, f0 * 1.25, 801))?;
    let m_peak = fine
        .iter()
        .map(|p| p.voltage(lc1).abs())
        .fold(0.0f64, f64::max);
    let half = m_peak / std::f64::consts::SQRT_2;
    let in_band: Vec<f64> = fine
        .iter()
        .filter(|p| p.voltage(lc1).abs() >= half)
        .map(|p| p.frequency)
        .collect();
    let bw = in_band.last().unwrap_or(&f0) - in_band.first().unwrap_or(&f0);
    println!("MNA Q = {:.1} vs analytic Q = {:.1}", peak.0 / bw, tank.q());
    Ok(())
}
