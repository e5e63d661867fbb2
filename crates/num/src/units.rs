//! SI unit newtypes for API boundaries.
//!
//! Internal math uses raw `f64` SI values; public configuration and results
//! use these newtypes so a capacitance can never be passed where an
//! inductance is expected (C-NEWTYPE).

macro_rules! unit {
    ($(#[$meta:meta])* $name:ident, $symbol:expr) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(pub f64);

        impl $name {
            /// Raw `f64` value in base SI units.
            pub fn value(self) -> f64 {
                self.0
            }

            /// Absolute value.
            pub fn abs(self) -> Self {
                $name(self.0.abs())
            }

            /// Returns `true` when the value is finite (not NaN/inf).
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }
        }

        impl From<f64> for $name {
            fn from(v: f64) -> Self {
                $name(v)
            }
        }

        impl From<$name> for f64 {
            fn from(v: $name) -> f64 {
                v.0
            }
        }

        impl std::ops::Add for $name {
            type Output = $name;
            fn add(self, o: $name) -> $name {
                $name(self.0 + o.0)
            }
        }

        impl std::ops::Sub for $name {
            type Output = $name;
            fn sub(self, o: $name) -> $name {
                $name(self.0 - o.0)
            }
        }

        impl std::ops::Mul<f64> for $name {
            type Output = $name;
            fn mul(self, s: f64) -> $name {
                $name(self.0 * s)
            }
        }

        impl std::ops::Div<f64> for $name {
            type Output = $name;
            fn div(self, s: f64) -> $name {
                $name(self.0 / s)
            }
        }

        impl std::ops::Neg for $name {
            type Output = $name;
            fn neg(self) -> $name {
                $name(-self.0)
            }
        }

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "{} {}", format_engineering(self.0), $symbol)
            }
        }
    };
}

unit!(
    /// Electric potential in volts.
    Volts,
    "V"
);
unit!(
    /// Electric current in amperes.
    Amps,
    "A"
);
unit!(
    /// Resistance in ohms.
    Ohms,
    "Ω"
);
unit!(
    /// Capacitance in farads.
    Farads,
    "F"
);
unit!(
    /// Inductance in henries.
    Henries,
    "H"
);
unit!(
    /// Frequency in hertz.
    Hertz,
    "Hz"
);
unit!(
    /// Time in seconds.
    Seconds,
    "s"
);

impl Amps {
    /// Constructs from microamps.
    pub fn from_micro(ua: f64) -> Self {
        Amps(ua * 1e-6)
    }
}

impl Farads {
    /// Constructs from nanofarads.
    pub fn from_nano(nf: f64) -> Self {
        Farads(nf * 1e-9)
    }
    /// Constructs from picofarads.
    pub fn from_pico(pf: f64) -> Self {
        Farads(pf * 1e-12)
    }
}

impl Henries {
    /// Constructs from microhenries.
    pub fn from_micro(uh: f64) -> Self {
        Henries(uh * 1e-6)
    }
}

impl Seconds {
    /// Constructs from microseconds.
    pub fn from_micro(us: f64) -> Self {
        Seconds(us * 1e-6)
    }
    /// Constructs from nanoseconds.
    pub fn from_nano(ns: f64) -> Self {
        Seconds(ns * 1e-9)
    }
}

/// Formats a value in engineering notation (exponent a multiple of 3) with
/// the standard SI prefix.
pub fn format_engineering(v: f64) -> String {
    if v == 0.0 {
        return "0".to_string();
    }
    if !v.is_finite() {
        return format!("{v}");
    }
    const PREFIXES: [(i32, &str); 9] = [
        (-12, "p"),
        (-9, "n"),
        (-6, "µ"),
        (-3, "m"),
        (0, ""),
        (3, "k"),
        (6, "M"),
        (9, "G"),
        (12, "T"),
    ];
    let exp3 = ((v.abs().log10() / 3.0).floor() * 3.0) as i32;
    let exp3 = exp3.clamp(-12, 12);
    let scaled = v / 10f64.powi(exp3);
    let prefix = PREFIXES
        .iter()
        .find(|(e, _)| *e == exp3)
        .map(|(_, p)| *p)
        .unwrap_or("");
    format!("{scaled:.4}{prefix}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_on_units() {
        let v = Volts(1.5) + Volts(0.5) - Volts(1.0);
        assert_eq!(v, Volts(1.0));
        assert_eq!(Volts(2.0) * 3.0, Volts(6.0));
        assert_eq!(Volts(6.0) / 3.0, Volts(2.0));
        assert_eq!(-Volts(1.0), Volts(-1.0));
        assert_eq!(Volts(-2.0).abs(), Volts(2.0));
    }

    #[test]
    fn conversion_constructors() {
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-12 * b.abs();
        assert!(close(Amps::from_micro(12.5).value(), 12.5e-6));
        assert!(close(Farads::from_nano(2.2).value(), 2.2e-9));
        assert!(close(Farads::from_pico(10.0).value(), 1e-11));
        assert!(close(Henries::from_micro(4.7).value(), 4.7e-6));
        assert!(close(Seconds::from_nano(2.0).value(), 2e-9));
        assert!(close(Seconds::from_micro(3.0).value(), 3e-6));
    }

    #[test]
    fn from_into_f64_roundtrip() {
        let v: Volts = 3.3.into();
        let raw: f64 = v.into();
        assert_eq!(raw, 3.3);
    }

    #[test]
    fn engineering_format() {
        assert_eq!(format_engineering(0.0), "0");
        assert_eq!(format_engineering(12.5e-6), "12.5000µ");
        assert_eq!(format_engineering(2.2e-9), "2.2000n");
        assert_eq!(format_engineering(5e6), "5.0000M");
        assert_eq!(format_engineering(-0.025), "-25.0000m");
    }

    #[test]
    fn display_carries_symbol() {
        assert_eq!(format!("{}", Amps::from_micro(12.5)), "12.5000µ A");
    }

    #[test]
    fn is_finite_detects_nan() {
        assert!(!Volts(f64::NAN).is_finite());
        assert!(Volts(1.0).is_finite());
    }
}
