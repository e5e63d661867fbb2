//! The campaign engine's central contract, tested end-to-end: reduced
//! results are a pure function of `(campaign_seed, jobs)` — independent of
//! thread count, scheduling order and per-job runtime.

use lcosc::campaign::{job_seed, Campaign};
use lcosc::core::config::OscillatorConfig;
use lcosc::dac::{yield_analysis_campaign, DacMismatchParams};
use lcosc::safety::FmeaReport;
use proptest::prelude::*;
use std::time::Duration;

/// A job whose result depends on every bit of its seed: a few rounds of a
/// splitmix-style scramble feeding a float accumulation.
fn scrambled_sum(seed: u64) -> f64 {
    let mut x = seed;
    let mut acc = 0.0f64;
    for _ in 0..16 {
        x = x.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(29) ^ 0xb549_7a3f;
        acc += (x >> 11) as f64 / (1u64 << 53) as f64;
    }
    acc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any campaign seed: threads 1, 2 and 8 reduce to bit-identical
    /// output, even though the reduction (float sum + string concat) is
    /// non-commutative under reordering.
    #[test]
    fn reduction_is_thread_count_invariant(seed in 0u64..u64::MAX) {
        let jobs: Vec<u32> = (0..64).collect();
        let run = |threads: usize| {
            Campaign::new("prop", jobs.clone())
                .seed(seed)
                .threads(threads)
                .run_reduce(
                    |ctx, &job| (scrambled_sum(ctx.seed), format!("{job}:{:x};", ctx.seed)),
                    (0.0f64, String::new()),
                    |(sum, mut log), (x, entry)| {
                        log.push_str(&entry);
                        (sum + x, log)
                    },
                )
                .0
        };
        let serial = run(1);
        prop_assert_eq!(&run(2), &serial);
        prop_assert_eq!(&run(8), &serial);
    }

    /// Per-job seeds depend only on (campaign_seed, index): shuffling which
    /// *worker* claims a job cannot change what the job computes.
    #[test]
    fn job_seeds_are_schedule_free(seed in 0u64..u64::MAX, index in 0u64..10_000) {
        prop_assert_eq!(job_seed(seed, index), job_seed(seed, index));
        prop_assert_ne!(job_seed(seed, index), job_seed(seed.wrapping_add(1), index));
    }
}

/// Jobs that deliberately finish out of index order (early indices sleep
/// longest) still reduce in index order.
#[test]
fn scheduling_order_does_not_leak_into_results() {
    let jobs: Vec<usize> = (0..24).collect();
    let run = |threads: usize| {
        Campaign::new("scramble", jobs.clone())
            .seed(7)
            .threads(threads)
            .run(|ctx, &job| {
                // Invert completion order vs index order under parallelism.
                std::thread::sleep(Duration::from_micros(((24 - job) * 200) as u64));
                (job, ctx.seed)
            })
            .results
    };
    let serial = run(1);
    assert_eq!(run(4), serial);
    assert_eq!(run(8), serial);
    // Results arrive in index order regardless of completion order.
    for (i, (job, _)) in serial.iter().enumerate() {
        assert_eq!(*job, i);
    }
}

/// The acceptance criterion verbatim: FMEA and yield campaigns produce
/// byte-identical JSON for `--threads 1` and `--threads 8`. The 8-thread
/// runs must really fan out (the requested count, clamped to the job
/// count), or the compare would set serial against serial.
#[test]
fn fmea_and_yield_json_byte_identical_threads_1_vs_8() {
    let cfg = OscillatorConfig::fast_test();
    let fmea1 = FmeaReport::run_with_threads(&cfg, 1).expect("valid config");
    let fmea8 = FmeaReport::run_with_threads(&cfg, 8).expect("valid config");
    assert_eq!(
        fmea1.report.to_json().render(),
        fmea8.report.to_json().render()
    );
    assert_eq!(fmea1.stats.threads, 1);
    assert_eq!(fmea8.stats.threads, 8.min(fmea8.stats.jobs));
    assert!(fmea8.stats.threads > 1, "FMEA ran serially");

    let params = DacMismatchParams::default();
    for dies in [64, 150] {
        let y1 = yield_analysis_campaign(&params, dies, 42, 0.15, 1);
        let y8 = yield_analysis_campaign(&params, dies, 42, 0.15, 8);
        assert_eq!(y1.report.to_json().render(), y8.report.to_json().render());
        assert_eq!(y1.stats.threads, 1);
        assert_eq!(y8.stats.threads, 8, "{dies}-die yield ran on fewer threads");
    }
}
