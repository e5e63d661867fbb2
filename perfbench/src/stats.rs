//! Order statistics shared by every workload.

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `percent` % of the population at or below it.
///
/// # Panics
///
/// Panics on an empty slice or a percentile outside `1..=100`.
pub fn nearest_rank(sorted: &[f64], percent: usize) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!(
        (1..=100).contains(&percent),
        "percentile {percent} out of range"
    );
    let rank = (percent * sorted.len()).div_ceil(100);
    sorted[rank - 1]
}

/// Sorts a copy and returns its nearest-rank median.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    nearest_rank(&sorted, 50)
}

/// Arithmetic mean; 0 for an empty sample (a layer no request reached).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_smallest_sample_covering_the_share() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&hundred, 50), 50.0);
        assert_eq!(nearest_rank(&hundred, 99), 99.0);
        assert_eq!(nearest_rank(&hundred, 100), 100.0);
        assert_eq!(nearest_rank(&hundred, 1), 1.0);
        // 7 samples: 50 % of 7 is 3.5, so rank 4; 99 % needs all 7.
        let seven = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0];
        assert_eq!(nearest_rank(&seven, 50), 4.0);
        assert_eq!(nearest_rank(&seven, 99), 7.0);
        assert_eq!(nearest_rank(&[42.0], 99), 42.0);
    }

    #[test]
    fn p99_of_a_thousand_leaves_ten_samples_beyond_it() {
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = nearest_rank(&thousand, 99);
        assert_eq!(thousand.iter().filter(|&&v| v > p99).count(), 10);
    }

    #[test]
    fn median_sorts_and_mean_handles_empty() {
        assert_eq!(median(&[5.0, 1.0, 3.0, 2.0, 4.0]), 3.0);
        // Even count: the lower of the two middle samples.
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
