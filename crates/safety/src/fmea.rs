//! The failure-mode-and-effects matrix (paper §7: "Deep failure mode effect
//! analysis (FMEA) on design and system levels ... for every external error
//! condition the application must remain safe").

use crate::fault::Fault;
use crate::scenario::{run_scenario_mission, ScenarioResult, SCENARIO_POST_FAULT_TICKS};
use lcosc_campaign::{Campaign, CampaignStats, Json};
use lcosc_core::config::{Fidelity, OscillatorConfig};
use lcosc_core::Result;

/// One row of the FMEA matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct FmeaEntry {
    /// Scenario outcome (fault, triggered detectors, amplitudes).
    pub result: ScenarioResult,
    /// Whether the system remains safe (detected, or regulation fully
    /// compensates).
    pub safe: bool,
}

/// The complete fault × detector matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct FmeaReport {
    entries: Vec<FmeaEntry>,
}

/// An FMEA matrix paired with the execution statistics of the campaign
/// that produced it. The report itself is deterministic; only
/// [`CampaignStats::wall`] depends on the machine and thread count.
#[derive(Debug, Clone)]
pub struct FmeaRun {
    /// The (thread-count-invariant) fault × detector matrix.
    pub report: FmeaReport,
    /// Wall-clock / job-count statistics of the campaign run.
    pub stats: CampaignStats,
}

impl FmeaReport {
    /// Runs every cataloged fault against the base configuration, serially
    /// (equivalent to [`FmeaReport::run_with_threads`] with 1 thread).
    ///
    /// # Errors
    ///
    /// Propagates simulation setup errors.
    pub fn run(base: &OscillatorConfig) -> Result<Self> {
        Self::run_with_threads(base, 1).map(|run| run.report)
    }

    /// [`FmeaReport::run`] with the analysis fidelity pinned explicitly
    /// instead of the multi-rate scenario default. The paper's sign-off
    /// table is a describing-function result — [`Fidelity::Envelope`]
    /// reproduces it — while [`Fidelity::Cycle`] / [`Fidelity::MultiRate`]
    /// report cycle-truth verdicts, which differ on some operating points
    /// (see `DESIGN.md` §14).
    ///
    /// # Errors
    ///
    /// Propagates simulation setup errors.
    pub fn run_at(base: &OscillatorConfig, fidelity: Fidelity) -> Result<Self> {
        Self::run_campaign(base, 1, &lcosc_trace::Trace::off(), fidelity).map(|run| run.report)
    }

    /// Runs the full fault catalog as a parallel campaign on `threads`
    /// worker threads (`1` = serial in-line execution, `0` = all cores).
    ///
    /// Each fault scenario is one independent job; the assembled matrix is
    /// bit-identical for every thread count because the campaign engine
    /// collects results in catalog order.
    ///
    /// # Errors
    ///
    /// Propagates the simulation setup error of the lowest-indexed failing
    /// scenario.
    pub fn run_with_threads(base: &OscillatorConfig, threads: usize) -> Result<FmeaRun> {
        Self::run_with_threads_traced(base, threads, &lcosc_trace::Trace::off())
    }

    /// [`FmeaReport::run_with_threads`] with campaign-level observability:
    /// the engine emits one `CampaignJob` (golden) and one
    /// `CampaignJobTiming` (machine-dependent) event per fault scenario,
    /// always in catalog order from the coordinator thread.
    ///
    /// The per-tick simulation streams of the worker scenarios are *not*
    /// attached to `tracer` here: workers run concurrently, and their
    /// interleaved events would break the golden stream's thread-count
    /// invariance. Use [`crate::scenario::run_scenario_with_trace`]
    /// serially for full per-scenario detail.
    ///
    /// # Errors
    ///
    /// Propagates the simulation setup error of the lowest-indexed failing
    /// scenario.
    pub fn run_with_threads_traced(
        base: &OscillatorConfig,
        threads: usize,
        tracer: &lcosc_trace::Trace,
    ) -> Result<FmeaRun> {
        Self::run_campaign(base, threads, tracer, Fidelity::MultiRate)
    }

    /// The campaign body shared by every entry point: `fidelity` selects
    /// the analysis level each fault scenario runs at.
    fn run_campaign(
        base: &OscillatorConfig,
        threads: usize,
        tracer: &lcosc_trace::Trace,
        fidelity: Fidelity,
    ) -> Result<FmeaRun> {
        // One precheck for the whole matrix: every fault scenario shares
        // `base`, so this is equivalent to the per-scenario check the
        // serial `run_scenario` path performs.
        let report = crate::scenario::check_scenario(base);
        if report.has_errors() {
            return Err(lcosc_core::CoreError::CheckFailed(report));
        }
        let outcome = Campaign::new("fmea", Fault::catalog())
            .threads(threads)
            .trace(tracer.clone())
            .try_run(|_ctx, &fault| {
                run_scenario_mission(
                    fault,
                    base,
                    &lcosc_trace::Trace::off(),
                    fidelity,
                    SCENARIO_POST_FAULT_TICKS,
                )
                .map(|result| FmeaEntry {
                    safe: result.is_safe(),
                    result,
                })
            })?;
        Ok(FmeaRun {
            report: FmeaReport {
                entries: outcome.results,
            },
            stats: outcome.stats,
        })
    }

    /// All rows.
    pub fn entries(&self) -> &[FmeaEntry] {
        &self.entries
    }

    /// Fraction of faults that leave the system safe.
    pub(crate) fn safety_coverage(&self) -> f64 {
        if self.entries.is_empty() {
            return 1.0;
        }
        self.entries.iter().filter(|e| e.safe).count() as f64 / self.entries.len() as f64
    }

    /// Fraction of *hard* faults (those that break regulation) that are
    /// detected by at least one on-chip detector.
    pub fn detection_coverage(&self) -> f64 {
        let hard: Vec<&FmeaEntry> = self
            .entries
            .iter()
            .filter(|e| {
                (e.result.final_vpp / e.result.vpp_before - 1.0).abs() >= 0.2
                    || e.result.code_saturated
            })
            .collect();
        if hard.is_empty() {
            return 1.0;
        }
        hard.iter().filter(|e| e.result.detected).count() as f64 / hard.len() as f64
    }

    /// Rows where the system is unsafe (must be empty for sign-off).
    pub fn unsafe_entries(&self) -> Vec<&FmeaEntry> {
        self.entries.iter().filter(|e| !e.safe).collect()
    }

    /// Serializes the matrix as an ordered [`Json`] tree with byte-stable
    /// float formatting — the payload of the golden-file regression tests
    /// and of the `repro` campaign report.
    pub fn to_json(&self) -> Json {
        let rows: Vec<Json> = self
            .entries
            .iter()
            .map(|e| {
                Json::obj([
                    ("fault", Json::from(e.result.fault.to_string())),
                    (
                        "detectors",
                        Json::Array(
                            e.result
                                .triggered
                                .iter()
                                .map(|k| Json::from(k.to_string()))
                                .collect(),
                        ),
                    ),
                    ("detected", Json::from(e.result.detected)),
                    ("code_saturated", Json::from(e.result.code_saturated)),
                    ("vpp_before", Json::from(e.result.vpp_before)),
                    ("final_vpp", Json::from(e.result.final_vpp)),
                    ("safe", Json::from(e.safe)),
                ])
            })
            .collect();
        Json::obj([
            ("faults", Json::from(self.entries.len())),
            ("safety_coverage", Json::from(self.safety_coverage())),
            ("detection_coverage", Json::from(self.detection_coverage())),
            ("entries", Json::Array(rows)),
        ])
    }
}

impl std::fmt::Display for FmeaReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{:<28} {:>9} {:>9} {:>10}  detectors",
            "fault", "vpp", "saturated", "safe"
        )?;
        for e in &self.entries {
            let detectors: Vec<String> =
                e.result.triggered.iter().map(ToString::to_string).collect();
            writeln!(
                f,
                "{:<28} {:>8.3}V {:>9} {:>10}  {}",
                e.result.fault.to_string(),
                e.result.final_vpp,
                if e.result.code_saturated { "yes" } else { "no" },
                if e.safe { "SAFE" } else { "UNSAFE" },
                if detectors.is_empty() {
                    "-".to_string()
                } else {
                    detectors.join(", ")
                }
            )?;
        }
        writeln!(
            f,
            "safety coverage {:.0}%, hard-fault detection {:.0}%",
            100.0 * self.safety_coverage(),
            100.0 * self.detection_coverage()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detectors::DetectorKind;

    fn report() -> FmeaReport {
        FmeaReport::run(&OscillatorConfig::fast_test()).unwrap()
    }

    #[test]
    fn full_safety_coverage() {
        // The paper's headline safety claim: every external error condition
        // leaves the application safe.
        let r = report();
        assert!(
            r.unsafe_entries().is_empty(),
            "unsafe faults: {:?}",
            r.unsafe_entries()
                .iter()
                .map(|e| e.result.fault.to_string())
                .collect::<Vec<_>>()
        );
        assert_eq!(r.safety_coverage(), 1.0);
    }

    #[test]
    fn all_hard_faults_are_detected() {
        let r = report();
        assert_eq!(
            r.detection_coverage(),
            1.0,
            "undetected hard faults exist:\n{r}"
        );
    }

    #[test]
    fn every_detector_earns_its_keep() {
        // Each of the three detectors must be the one catching *something*
        // (otherwise the paper would not have built it).
        let r = report();
        for kind in [
            DetectorKind::MissingOscillation,
            DetectorKind::LowAmplitude,
            DetectorKind::Asymmetry,
        ] {
            assert!(
                r.entries.iter().any(|e| e.result.triggered.contains(&kind)),
                "{kind} detector never fires"
            );
        }
    }

    #[test]
    fn report_covers_full_catalog() {
        let r = report();
        assert_eq!(r.entries().len(), Fault::catalog().len());
    }

    #[test]
    fn parallel_run_matches_serial_exactly() {
        let base = OscillatorConfig::fast_test();
        let serial = FmeaReport::run(&base).unwrap();
        for threads in [2, 8] {
            let par = FmeaReport::run_with_threads(&base, threads).unwrap();
            assert_eq!(par.report, serial, "threads = {threads}");
            assert_eq!(par.stats.jobs, Fault::catalog().len());
            // JSON payloads must be byte-identical, not just structurally
            // equal — the golden regression layer compares bytes.
            assert_eq!(
                par.report.to_json().render(),
                serial.to_json().render(),
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn json_has_summary_and_all_rows() {
        let j = report().to_json().render();
        assert!(j.contains("\"safety_coverage\":1.0"), "{j}");
        assert!(j.contains("open coil connection"));
        assert_eq!(j.matches("\"fault\":").count(), Fault::catalog().len());
    }

    #[test]
    fn display_renders_table() {
        let s = report().to_string();
        assert!(s.contains("open coil connection"));
        assert!(s.contains("safety coverage 100%"));
        assert!(s.lines().count() >= Fault::catalog().len() + 2);
    }
}
