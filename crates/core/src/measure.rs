//! Measurement helpers: amplitude, frequency and settling extraction from
//! recorded waveforms and code histories.

use lcosc_num::ode::frequency_from_crossings;
use lcosc_num::stats::peak_to_peak;

/// Peak-to-peak value of the trailing `tail_fraction` of a trace (the
/// settled portion). Returns `None` for an empty trace.
///
/// # Panics
///
/// Panics unless `0 < tail_fraction <= 1`.
pub fn amplitude_pp(samples: &[f64], tail_fraction: f64) -> Option<f64> {
    assert!(
        tail_fraction > 0.0 && tail_fraction <= 1.0,
        "tail fraction must be in (0, 1]"
    );
    if samples.is_empty() {
        return None;
    }
    let start = ((1.0 - tail_fraction) * samples.len() as f64) as usize;
    peak_to_peak(&samples[start.min(samples.len() - 1)..])
}

/// Fundamental frequency of the trailing half of a uniformly sampled trace
/// via zero crossings of its AC component. Returns `None` when too few
/// crossings exist.
pub fn frequency_of(samples: &[f64], dt: f64) -> Option<f64> {
    if samples.len() < 4 {
        return None;
    }
    let tail = &samples[samples.len() / 2..];
    let mean = tail.iter().sum::<f64>() / tail.len() as f64;
    let ac: Vec<f64> = tail.iter().map(|v| v - mean).collect();
    frequency_from_crossings(0.0, dt, &ac)
}

/// First index after which a code history stays within ±1 of its final
/// value (the regulation loop's ±1 hunting is "settled" by design).
/// Returns `None` if the history never settles or is empty.
pub fn settling_tick(codes: &[u8]) -> Option<usize> {
    let last = *codes.last()?;
    let settled = |c: u8| (c as i32 - last as i32).abs() <= 1;
    // Walk backwards to the first violation.
    let mut idx = codes.len();
    for (k, &c) in codes.iter().enumerate().rev() {
        if !settled(c) {
            idx = k + 1;
            break;
        }
        idx = k;
    }
    // A lone settled final sample does not count — the code only just
    // arrived there.
    if idx + 1 >= codes.len() {
        None
    } else {
        Some(idx)
    }
}

/// Mean absolute code activity per tick over the trailing half of a code
/// history (0 = frozen, 1 = toggling every tick).
pub fn steady_state_activity(codes: &[u8]) -> f64 {
    if codes.len() < 2 {
        return 0.0;
    }
    let tail = &codes[codes.len() / 2..];
    if tail.len() < 2 {
        return 0.0;
    }
    let changes: u32 = tail
        .windows(2)
        .map(|w| (w[1] as i32 - w[0] as i32).unsigned_abs())
        .sum();
    changes as f64 / (tail.len() - 1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amplitude_pp_of_sine_tail() {
        let xs: Vec<f64> = (0..1000)
            .map(|i| 2.0 * (2.0 * std::f64::consts::PI * i as f64 / 100.0).sin())
            .collect();
        let a = amplitude_pp(&xs, 0.5).unwrap();
        assert!((a - 4.0).abs() < 1e-2);
    }

    #[test]
    fn amplitude_pp_ignores_transient_head() {
        let mut xs = vec![100.0; 10];
        xs.extend((0..990).map(|i| (2.0 * std::f64::consts::PI * i as f64 / 100.0).sin()));
        let a = amplitude_pp(&xs, 0.5).unwrap();
        assert!((a - 2.0).abs() < 1e-2, "{a}");
    }

    #[test]
    fn amplitude_pp_empty_is_none() {
        assert!(amplitude_pp(&[], 0.5).is_none());
    }

    #[test]
    fn frequency_of_offset_sine() {
        let f = 5.0e3;
        let fs = 1.0e6;
        let xs: Vec<f64> = (0..10_000)
            .map(|i| 1.65 + (2.0 * std::f64::consts::PI * f * i as f64 / fs).sin())
            .collect();
        let est = frequency_of(&xs, 1.0 / fs).unwrap();
        assert!((est / f - 1.0).abs() < 1e-3, "est {est}");
    }

    #[test]
    fn frequency_of_flat_trace_is_none() {
        assert!(frequency_of(&[1.0; 100], 1e-6).is_none());
    }

    #[test]
    fn settling_tick_finds_convergence() {
        // 10, 20, ..., then hovers around 61/60.
        let codes = [10u8, 20, 30, 40, 50, 60, 61, 60, 61, 60];
        assert_eq!(settling_tick(&codes), Some(5));
        // ±1 hunting around the final code is settled from the first tick.
        assert_eq!(settling_tick(&[5u8, 6, 5, 6, 5, 6]), Some(0));
    }

    #[test]
    fn settling_tick_none_when_still_moving() {
        let codes = [10u8, 20, 30, 40, 50];
        assert_eq!(settling_tick(&codes), None);
        assert_eq!(settling_tick(&[]), None);
    }

    #[test]
    fn settling_tick_immediate_when_constant() {
        assert_eq!(settling_tick(&[42u8; 10]), Some(0));
    }

    #[test]
    fn steady_state_activity_of_frozen_code_is_zero() {
        assert_eq!(steady_state_activity(&[60u8; 100]), 0.0);
    }

    #[test]
    fn steady_state_activity_of_toggling_code_is_one() {
        let codes: Vec<u8> = (0..100).map(|i| 60 + (i % 2) as u8).collect();
        assert!((steady_state_activity(&codes) - 1.0).abs() < 0.05);
    }
}
