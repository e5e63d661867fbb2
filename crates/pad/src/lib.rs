//! # lcosc-pad — output pad driver topologies (paper §8)
//!
//! In redundant dual systems the two oscillators share mutually coupled
//! coils; if one chip loses its supply, its LC pins are still driven by the
//! live partner and must not load it. The paper compares three output
//! stages:
//!
//! - **Plain CMOS** (Fig 10a) — the intrinsic drain–bulk diodes pump the
//!   floating Vdd rail and the PMOS channel then shorts the pins: heavy
//!   loading.
//! - **Series PMOS** (Fig 10b) — an extra series device isolates the PMOS
//!   path at the cost of output swing; one extra junction drop on the
//!   positive side, while the NMOS bulk diode still clamps negative swings.
//! - **Bulk-switched** (Fig 11) — the production topology: the NMOS bulk
//!   (`Nbulk`) and gate follow the pin when it swings negative (MN5/MN3)
//!   and the PMOS gate is lifted to the pumped rail (MP3), so within the
//!   ±3 V operating range only the unavoidable Vdd-pump rectification
//!   current flows (paper Fig 17: |I| < ~0.8 mA).
//!
//! [`UnsuppliedBench`] reproduces the paper's Fig 17 (pin current) and
//! Fig 18 (pin and Vdd voltages) as DC sweeps of the netlists built on
//! [`lcosc_circuit`].

#![warn(missing_docs)]

pub mod corners;
pub mod topology;
pub mod unsupplied;

pub use corners::{qualify, CornerResult};
pub use topology::{PadDriver, PadTopology};
pub use unsupplied::{UnsuppliedBench, UnsuppliedPoint};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_enum_roundtrip_display() {
        for t in PadTopology::ALL {
            assert!(!t.to_string().is_empty());
        }
    }
}
