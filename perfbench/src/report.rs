//! Run outcome and the result line.
//!
//! `BENCHMARK.json` is the one list of metric names and units: the result
//! line carries exactly its `end_to_end` metrics (untraced run) or its
//! `per_layer` metrics (traced run), in file order.

use lcosc_campaign::Json;

/// The benchmark declaration, compiled in so the binary and the file can
/// never disagree about names or units.
const DECLARATION: &str = include_str!("../../BENCHMARK.json");

/// One measured value.
#[derive(Debug)]
pub struct Metric {
    /// Name as declared in `BENCHMARK.json`.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit as declared in `BENCHMARK.json`.
    pub unit: &'static str,
    /// How many samples the value summarizes.
    pub samples: usize,
}

/// What one run measured and whether its outputs were right.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the measured phase.
    pub attempted: u64,
    /// Failed operations plus failed checks.
    pub failed: u64,
    /// The first failure messages, for the log.
    pub problems: Vec<String>,
    /// Measured metrics.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Records a failure: a bad status, a transport error or a check that
    /// did not hold.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(what.into());
        }
    }

    /// Records a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    /// Prints the metric table and the result line (stdout, last line)
    /// and the failure messages (stderr). Returns whether the run was
    /// correct.
    pub fn finish(mut self, traced: bool) -> bool {
        let declared = declared(if traced { "per_layer" } else { "end_to_end" });
        let measured = std::mem::take(&mut self.metrics);
        let mut values = Vec::with_capacity(declared.len());
        for (name, unit) in &declared {
            match measured.iter().find(|m| &m.name == name) {
                Some(m) if m.unit == unit.as_str() => {
                    values.push((name.clone(), m.value, m.samples));
                }
                Some(m) => {
                    let msg = format!("metric {name}: unit {} but declared {unit}", m.unit);
                    self.fail(msg);
                    values.push((name.clone(), m.value, m.samples));
                }
                // A layer this workload never calls reads zero.
                None if traced => values.push((name.clone(), 0.0, 0)),
                None => {
                    self.fail(format!("end-to-end metric {name} was not measured"));
                    values.push((name.clone(), 0.0, 0));
                }
            }
        }
        for m in &measured {
            if !declared.iter().any(|(name, _)| name == &m.name) {
                let msg = format!("metric {} is not declared in BENCHMARK.json", m.name);
                self.fail(msg);
            }
        }
        println!(
            "# {:<36} {:>16} {:<6} {:>8}",
            "metric", "value", "unit", "samples"
        );
        for ((name, value, samples), (_, unit)) in values.iter().zip(&declared) {
            println!("# {name:<36} {value:>16.6} {unit:<6} {samples:>8}");
        }
        let error_rate = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "# attempted {} failed {} error_rate {error_rate}",
            self.attempted, self.failed
        );
        for p in &self.problems {
            eprintln!("perfbench: FAILED: {p}");
        }
        let correct = self.failed == 0 && self.attempted > 0;
        let metrics = values
            .iter()
            .zip(&declared)
            .map(|((name, value, _), (_, unit))| {
                (
                    name.clone(),
                    Json::Object(vec![
                        ("value".to_string(), Json::Float(*value)),
                        ("unit".to_string(), Json::from(unit.as_str())),
                    ]),
                )
            })
            .collect();
        let line = Json::Object(vec![
            ("correct".to_string(), Json::Bool(correct)),
            ("attempted".to_string(), Json::Int(self.attempted as i64)),
            ("failed".to_string(), Json::Int(self.failed as i64)),
            ("metrics".to_string(), Json::Object(metrics)),
        ]);
        println!("{}", line.render());
        correct
    }
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
pub fn declared(section: &str) -> Vec<(String, String)> {
    let doc = Json::parse(DECLARATION).expect("BENCHMARK.json is valid JSON");
    let Some(Json::Array(items)) = doc.get(section) else {
        panic!("BENCHMARK.json lacks the {section} list");
    };
    items
        .iter()
        .map(|m| {
            let field = |key| {
                m.get(key)
                    .and_then(Json::as_str)
                    .unwrap_or_else(|| panic!("{section} entry lacks {key}"))
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// `run_seconds` of `BENCHMARK.json`: the default measuring time.
pub fn run_seconds() -> u64 {
    let doc = Json::parse(DECLARATION).expect("BENCHMARK.json is valid JSON");
    doc.get("run_seconds")
        .and_then(Json::as_int)
        .and_then(|s| u64::try_from(s).ok())
        .expect("BENCHMARK.json has a whole run_seconds")
}

/// Names of the workloads `BENCHMARK.json` declares.
pub fn workloads() -> Vec<String> {
    let doc = Json::parse(DECLARATION).expect("BENCHMARK.json is valid JSON");
    let Some(Json::Array(items)) = doc.get("workloads") else {
        panic!("BENCHMARK.json lacks the workloads list");
    };
    items
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declaration_names_are_unique_and_setup_is_declared() {
        for section in ["end_to_end", "per_layer"] {
            let mut names: Vec<String> = declared(section).into_iter().map(|(n, _)| n).collect();
            let count = names.len();
            names.sort();
            names.dedup();
            assert_eq!(names.len(), count, "{section} repeats a name");
        }
        assert!(declared("end_to_end").contains(&("setup_s".to_string(), "s".to_string())));
        assert_eq!(workloads(), ["missions", "serve_cold", "serve_hot"]);
        assert!((1..=60).contains(&run_seconds()));
    }
}
