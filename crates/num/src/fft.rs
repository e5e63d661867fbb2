//! Radix-2 FFT and derived spectral measurements (power spectrum, dominant
//! frequency, total harmonic distortion).
//!
//! Used to verify the oscillator's spectral purity and to cross-check the
//! zero-crossing frequency estimator.

/// Minimal complex number for FFT work.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Creates a complex number from rectangular parts.
    pub fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// Magnitude `|z|`.
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared magnitude, cheaper than [`Complex::abs`].
    pub fn norm_sq(self) -> f64 {
        self.re * self.re + self.im * self.im
    }
}

impl std::ops::Add for Complex {
    type Output = Complex;
    fn add(self, o: Complex) -> Complex {
        Complex::new(self.re + o.re, self.im + o.im)
    }
}

impl std::ops::Sub for Complex {
    type Output = Complex;
    fn sub(self, o: Complex) -> Complex {
        Complex::new(self.re - o.re, self.im - o.im)
    }
}

impl std::ops::Mul for Complex {
    type Output = Complex;
    fn mul(self, o: Complex) -> Complex {
        Complex::new(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )
    }
}

impl std::ops::Div for Complex {
    type Output = Complex;
    fn div(self, o: Complex) -> Complex {
        let d = o.norm_sq();
        Complex::new(
            (self.re * o.re + self.im * o.im) / d,
            (self.im * o.re - self.re * o.im) / d,
        )
    }
}

impl std::ops::Neg for Complex {
    type Output = Complex;
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

impl std::ops::Mul<f64> for Complex {
    type Output = Complex;
    fn mul(self, s: f64) -> Complex {
        Complex::new(self.re * s, self.im * s)
    }
}

impl Complex {
    /// The imaginary unit.
    pub const I: Complex = Complex { re: 0.0, im: 1.0 };

    /// Phase angle in radians.
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }
}

/// In-place iterative radix-2 Cooley–Tukey FFT.
///
/// # Panics
///
/// Panics unless `data.len()` is a power of two (and non-zero).
pub fn fft_in_place(data: &mut [Complex]) {
    let n = data.len();
    assert!(
        n.is_power_of_two() && n > 0,
        "fft length must be a power of two"
    );
    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = (i.reverse_bits() >> (usize::BITS - bits)) & (n - 1);
        if j > i {
            data.swap(i, j);
        }
    }
    // Butterflies.
    let mut len = 2;
    while len <= n {
        let ang = -2.0 * std::f64::consts::PI / len as f64;
        let wl = Complex::new(ang.cos(), ang.sin());
        for start in (0..n).step_by(len) {
            let mut w = Complex::new(1.0, 0.0);
            for k in 0..len / 2 {
                let a = data[start + k];
                let b = data[start + k + len / 2] * w;
                data[start + k] = a + b;
                data[start + k + len / 2] = a - b;
                w = w * wl;
            }
        }
        len <<= 1;
    }
}

/// One bin of a real-signal power spectrum.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpectrumBin {
    /// Bin center frequency in hertz.
    pub frequency: f64,
    /// One-sided power in the bin (arbitrary units, amplitude²/2 scaling).
    pub power: f64,
}

/// Computes the one-sided power spectrum of a real signal sampled at `fs`.
///
/// The input is truncated to the largest power-of-two length and windowed
/// with a Hann window. DC is bin 0.
///
/// # Panics
///
/// Panics if fewer than 2 samples are supplied.
pub fn power_spectrum(samples: &[f64], fs: f64) -> Vec<SpectrumBin> {
    assert!(samples.len() >= 2, "need at least two samples");
    let n = 1usize << (usize::BITS - 1 - samples.len().leading_zeros());
    let mut buf: Vec<Complex> = (0..n)
        .map(|i| {
            let w = 0.5 * (1.0 - (2.0 * std::f64::consts::PI * i as f64 / n as f64).cos());
            Complex::new(samples[i] * w, 0.0)
        })
        .collect();
    fft_in_place(&mut buf);
    let scale = 2.0 / (n as f64 * n as f64 / 4.0); // Hann coherent gain 0.5
    (0..n / 2)
        .map(|k| SpectrumBin {
            frequency: k as f64 * fs / n as f64,
            power: buf[k].norm_sq() * scale,
        })
        .collect()
}

/// Finds the dominant (largest-power, non-DC) frequency of a real signal.
///
/// Uses parabolic interpolation around the peak bin for sub-bin resolution.
/// Returns `None` when the spectrum is empty or flat (all-zero signal).
pub fn dominant_frequency(samples: &[f64], fs: f64) -> Option<f64> {
    let spec = power_spectrum(samples, fs);
    if spec.len() < 3 {
        return None;
    }
    let (k, peak) = spec
        .iter()
        .enumerate()
        .skip(1)
        .max_by(|a, b| a.1.power.total_cmp(&b.1.power))?;
    if peak.power <= 0.0 {
        return None;
    }
    if k == 0 || k + 1 >= spec.len() {
        return Some(peak.frequency);
    }
    // Parabolic interpolation on log power.
    let (pl, pc, pr) = (
        spec[k - 1].power.max(1e-300).ln(),
        spec[k].power.max(1e-300).ln(),
        spec[k + 1].power.max(1e-300).ln(),
    );
    let denom = pl - 2.0 * pc + pr;
    let delta = if denom.abs() > 1e-12 {
        0.5 * (pl - pr) / denom
    } else {
        0.0
    };
    let bin = k as f64 + delta.clamp(-0.5, 0.5);
    // Bin spacing is fs / n with n == 2 * spec.len().
    Some(bin * fs / (2.0 * spec.len() as f64))
}

/// Total harmonic distortion of a real signal, as the ratio of the RMS of
/// harmonics 2..=`n_harmonics` to the fundamental RMS.
///
/// Returns `None` when the fundamental cannot be identified.
pub fn thd(samples: &[f64], fs: f64, n_harmonics: usize) -> Option<f64> {
    let spec = power_spectrum(samples, fs);
    let n = spec.len();
    if n < 4 {
        return None;
    }
    let (kf, fundamental) = spec
        .iter()
        .enumerate()
        .skip(1)
        .max_by(|a, b| a.1.power.total_cmp(&b.1.power))?;
    if fundamental.power <= 0.0 {
        return None;
    }
    // Sum power in a small neighborhood of each harmonic bin (window leakage).
    let band = 2usize;
    let power_at = |k: usize| -> f64 {
        let lo = k.saturating_sub(band);
        let hi = (k + band).min(n - 1);
        spec[lo..=hi].iter().map(|b| b.power).sum()
    };
    let p1 = power_at(kf);
    let mut ph = 0.0;
    for h in 2..=n_harmonics {
        let k = kf * h;
        if k >= n {
            break;
        }
        ph += power_at(k);
    }
    Some((ph / p1).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sine(f: f64, fs: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * f * i as f64 / fs).sin())
            .collect()
    }

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut d = vec![Complex::default(); 8];
        d[0] = Complex::new(1.0, 0.0);
        fft_in_place(&mut d);
        for z in d {
            assert!((z.re - 1.0).abs() < 1e-12 && z.im.abs() < 1e-12);
        }
    }

    #[test]
    fn fft_of_dc_concentrates_in_bin_zero() {
        let mut d = vec![Complex::new(1.0, 0.0); 16];
        fft_in_place(&mut d);
        assert!((d[0].re - 16.0).abs() < 1e-9);
        for z in &d[1..] {
            assert!(z.abs() < 1e-9);
        }
    }

    #[test]
    fn fft_parseval_holds() {
        let x = sine(5.0, 64.0, 64);
        let time_energy: f64 = x.iter().map(|v| v * v).sum();
        let mut d: Vec<Complex> = x.iter().map(|&v| Complex::new(v, 0.0)).collect();
        fft_in_place(&mut d);
        let freq_energy: f64 = d.iter().map(|z| z.norm_sq()).sum::<f64>() / 64.0;
        assert!((time_energy - freq_energy).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn fft_rejects_non_power_of_two() {
        let mut d = vec![Complex::default(); 6];
        fft_in_place(&mut d);
    }

    #[test]
    fn dominant_frequency_of_pure_sine() {
        let fs = 1.0e6;
        let f = 37_500.0;
        let x = sine(f, fs, 4096);
        let est = dominant_frequency(&x, fs).unwrap();
        assert!((est - f).abs() < fs / 4096.0, "est {est}");
    }

    #[test]
    fn dominant_frequency_of_silence_is_none() {
        let x = vec![0.0; 1024];
        assert!(dominant_frequency(&x, 1e6).is_none());
    }

    #[test]
    fn dominant_frequency_off_bin_interpolates() {
        let fs = 1.0e6;
        // deliberately between bins for n = 4096
        let f = 37_987.3;
        let x = sine(f, fs, 4096);
        let est = dominant_frequency(&x, fs).unwrap();
        assert!((est - f).abs() < 0.6 * fs / 4096.0, "est {est}");
    }

    #[test]
    fn thd_of_pure_sine_is_small() {
        let fs = 1.0e6;
        let x = sine(31_250.0, fs, 8192); // exactly on a bin
        let t = thd(&x, fs, 5).unwrap();
        assert!(t < 1e-3, "thd {t}");
    }

    #[test]
    fn thd_of_square_wave_near_48_percent() {
        let fs = 1.0e6;
        let f = 31_250.0;
        let x: Vec<f64> = (0..8192)
            .map(|i| {
                if (2.0 * std::f64::consts::PI * f * i as f64 / fs).sin() >= 0.0 {
                    1.0
                } else {
                    -1.0
                }
            })
            .collect();
        // Ideal square wave THD (first 9 harmonics) ~ sqrt(1/9+1/25+1/49+1/81) ~ 0.43;
        // all harmonics -> ~0.483.
        let t = thd(&x, fs, 9).unwrap();
        assert!((t - 0.43).abs() < 0.06, "thd {t}");
    }

    #[test]
    fn power_spectrum_peak_is_at_signal_frequency() {
        let fs = 1.0e6;
        let f = 62_500.0;
        let spec = power_spectrum(&sine(f, fs, 2048), fs);
        let peak = spec
            .iter()
            .skip(1)
            .max_by(|a, b| a.power.total_cmp(&b.power))
            .unwrap();
        assert!((peak.frequency - f).abs() <= fs / 2048.0);
    }
}
