//! Monte-Carlo yield analysis.
//!
//! The paper's §4 argument — "The regulation loop allows a relaxed
//! differential non-linearity of the DAC. The maximum step must only remain
//! below a limit given by the regulation window and the converter can even
//! be non-monotonic" — is a *yield* argument: a conventional DAC spec
//! (monotonicity, tight DNL) would scrap dies that regulate perfectly well.
//! This module quantifies that by sampling many dies and scoring them
//! against both acceptance criteria.

use crate::analysis::LinearityReport;
use crate::mismatch::{DacMismatchParams, MismatchedDac};
use lcosc_campaign::{Campaign, CampaignStats, Json};

/// Yield of a die population under two acceptance criteria.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct YieldReport {
    /// Dies sampled.
    pub dies: u32,
    /// Fraction passing a conventional spec: strictly monotonic.
    pub monotonic_yield: f64,
    /// Fraction usable by the regulation loop: max step below the window
    /// (monotonicity not required).
    pub regulation_yield: f64,
    /// Worst |INL| observed across the population (relative).
    pub worst_inl: f64,
    /// Mean number of non-monotonic codes per die.
    pub mean_non_monotonic: f64,
}

impl YieldReport {
    /// Serializes the summary as an ordered [`Json`] tree with byte-stable
    /// float formatting (golden-file and `repro` report payload).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("dies", Json::from(self.dies)),
            ("monotonic_yield", Json::from(self.monotonic_yield)),
            ("regulation_yield", Json::from(self.regulation_yield)),
            ("worst_inl", Json::from(self.worst_inl)),
            ("mean_non_monotonic", Json::from(self.mean_non_monotonic)),
        ])
    }
}

/// A yield report paired with the execution statistics of the Monte-Carlo
/// campaign that produced it. Only [`CampaignStats::wall`] is
/// machine-dependent; the report is thread-count invariant.
#[derive(Debug, Clone)]
pub struct YieldRun {
    /// The population summary.
    pub report: YieldReport,
    /// Wall-clock / job-count statistics.
    pub stats: CampaignStats,
}

/// Per-die metrics produced by one Monte-Carlo job.
struct DieOutcome {
    monotonic: bool,
    regulable: bool,
    non_monotonic: usize,
    inl_abs: f64,
}

/// Samples `dies` dies with the given mismatch and scores them against a
/// regulation window of total relative width `window_rel_width`.
///
/// Deterministic: die `k` uses the campaign engine's seed
/// `job_seed(seed_base, k)`, derived from the die's index — never inside
/// the worker — so no threading choice can perturb the draws.
///
/// # Panics
///
/// Panics if `dies == 0` or `window_rel_width` is not positive.
pub fn yield_analysis(
    params: &DacMismatchParams,
    dies: u32,
    seed_base: u64,
    window_rel_width: f64,
) -> YieldReport {
    yield_analysis_campaign(params, dies, seed_base, window_rel_width, 1).report
}

/// [`yield_analysis`] as an explicit parallel campaign: die draws fan out
/// over `threads` worker threads (`1` = serial, `0` = all cores).
///
/// Die `k` draws from `job_seed(seed_base, k)` — handed to the worker in
/// the die's [`lcosc_campaign::JobCtx`], not re-derived inside it — and the
/// population metrics are folded in die order, so the returned
/// [`YieldReport`] is bit-identical for every thread count. The
/// `seed-stability` golden pins the first seeds so the mapping can never
/// drift silently.
///
/// # Panics
///
/// Panics if `dies == 0` or `window_rel_width` is not positive.
pub fn yield_analysis_campaign(
    params: &DacMismatchParams,
    dies: u32,
    seed_base: u64,
    window_rel_width: f64,
    threads: usize,
) -> YieldRun {
    assert!(dies > 0, "need at least one die");
    assert!(window_rel_width > 0.0, "window must be positive");
    let ((monotonic, regulable, non_monotonic_total, worst_inl), stats) =
        Campaign::new("dac-yield", (0..dies).collect::<Vec<u32>>())
            .seed(seed_base)
            .threads(threads)
            .run_reduce(
                |ctx, _die| {
                    // The die's seed comes from the engine's job context,
                    // not from re-deriving `seed_base + k` in the worker.
                    let die = MismatchedDac::sampled(params, ctx.seed);
                    let report = LinearityReport::analyze(&die);
                    DieOutcome {
                        monotonic: report.non_monotonic.is_empty(),
                        regulable: report.regulation_compatible(window_rel_width),
                        non_monotonic: report.non_monotonic.len(),
                        inl_abs: report.inl_worst_rel.abs(),
                    }
                },
                (0u32, 0u32, 0usize, 0.0f64),
                |(mut mono, mut reg, mut nm, mut worst), die| {
                    if die.monotonic {
                        mono += 1;
                    }
                    if die.regulable {
                        reg += 1;
                    }
                    nm += die.non_monotonic;
                    if die.inl_abs > worst {
                        worst = die.inl_abs;
                    }
                    (mono, reg, nm, worst)
                },
            );
    YieldRun {
        report: YieldReport {
            dies,
            monotonic_yield: f64::from(monotonic) / f64::from(dies),
            regulation_yield: f64::from(regulable) / f64::from(dies),
            worst_inl,
            mean_non_monotonic: non_monotonic_total as f64 / f64::from(dies),
        },
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_process_yields_well_on_both_criteria() {
        let r = yield_analysis(&DacMismatchParams::default(), 200, 1, 0.15);
        assert!(r.monotonic_yield > 0.7, "monotonic {}", r.monotonic_yield);
        assert_eq!(r.regulation_yield, 1.0, "regulation {}", r.regulation_yield);
        assert!(r.worst_inl < 0.1, "inl {}", r.worst_inl);
    }

    #[test]
    fn sloppy_process_still_regulates_when_monotonicity_dies() {
        // The paper's core yield argument: push the mismatch until
        // monotonicity yield collapses — the regulation criterion barely
        // moves because single-step errors stay below the window.
        let sloppy = DacMismatchParams {
            sigma_prescale: 0.05,
            sigma_fixed: 0.04,
            sigma_unit: 0.05,
            ..DacMismatchParams::default()
        };
        let r = yield_analysis(&sloppy, 200, 7, 0.15);
        assert!(
            r.monotonic_yield < 0.7,
            "monotonicity should suffer: {}",
            r.monotonic_yield
        );
        assert!(
            r.regulation_yield > r.monotonic_yield + 0.2,
            "regulation {} vs monotonic {}",
            r.regulation_yield,
            r.monotonic_yield
        );
    }

    #[test]
    fn narrow_window_reduces_regulation_yield() {
        let sloppy = DacMismatchParams {
            sigma_prescale: 0.08,
            sigma_fixed: 0.06,
            sigma_unit: 0.08,
            ..DacMismatchParams::default()
        };
        let wide = yield_analysis(&sloppy, 150, 3, 0.20);
        let narrow = yield_analysis(&sloppy, 150, 3, 0.08);
        assert!(
            wide.regulation_yield >= narrow.regulation_yield,
            "wide {} vs narrow {}",
            wide.regulation_yield,
            narrow.regulation_yield
        );
    }

    #[test]
    fn analysis_is_deterministic() {
        let a = yield_analysis(&DacMismatchParams::default(), 50, 11, 0.15);
        let b = yield_analysis(&DacMismatchParams::default(), 50, 11, 0.15);
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_campaign_is_bit_identical_to_serial() {
        let params = DacMismatchParams::default();
        for (dies, threads) in [(120, 2), (120, 8), (70, 4)] {
            let serial = yield_analysis(&params, dies, 11, 0.15);
            let par = yield_analysis_campaign(&params, dies, 11, 0.15, threads);
            assert_eq!(par.report, serial, "dies = {dies}, threads = {threads}");
            assert_eq!(
                par.report.to_json().render(),
                serial.to_json().render(),
                "dies = {dies}, threads = {threads}"
            );
            assert_eq!(par.stats.jobs, dies as usize);
            assert_eq!(par.stats.threads, threads);
        }
    }

    #[test]
    fn die_seed_schedule_is_pinned() {
        // Seed-stability golden: die `k` must draw from the engine's
        // `job_seed(seed_base, k)`. If the seed derivation drifts, every
        // yield number in the repo's goldens silently shifts — this pin
        // makes that loud.
        let expected: Vec<u64> = (0..4).map(|k| lcosc_campaign::job_seed(1, k)).collect();
        assert_eq!(
            expected,
            vec![
                4255832498587421698,
                14768775971271679275,
                1580213099363181288,
                10922158750852487306,
            ]
        );
        for (k, &seed) in expected.iter().enumerate() {
            let direct = LinearityReport::analyze(&MismatchedDac::sampled(
                &DacMismatchParams::default(),
                seed,
            ));
            let via_campaign = yield_analysis(&DacMismatchParams::default(), k as u32 + 1, 1, 0.15);
            // The k-th die's INL must be visible in the population worst
            // when it is the worst so far; cheaper and stronger: one-die
            // population == the direct draw.
            if k == 0 {
                let one = yield_analysis(&DacMismatchParams::default(), 1, 1, 0.15);
                assert_eq!(one.worst_inl, direct.inl_worst_rel.abs());
            }
            assert!(via_campaign.dies == k as u32 + 1);
        }
    }

    #[test]
    fn json_summary_is_ordered_and_complete() {
        let j = yield_analysis(&DacMismatchParams::default(), 10, 3, 0.15)
            .to_json()
            .render();
        assert!(j.starts_with("{\"dies\":10,\"monotonic_yield\":"), "{j}");
        assert!(j.contains("\"worst_inl\":"));
    }

    #[test]
    #[should_panic(expected = "at least one die")]
    fn rejects_zero_dies() {
        let _ = yield_analysis(&DacMismatchParams::default(), 0, 0, 0.15);
    }
}
