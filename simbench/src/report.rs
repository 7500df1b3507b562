//! Metrics, their summary statistics, and the report lines.

/// One named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// The metric's name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// What one workload reports: operations attempted and failed, and its
/// metrics.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Runs attempted.
    pub attempted: u64,
    /// Runs that did not complete or whose digest did not match.
    pub failed: u64,
    /// The metrics.
    pub metrics: Vec<Metric>,
}

/// The median (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The smallest value.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn min(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "minimum of nothing");
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The arithmetic mean.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of nothing");
    values.iter().sum::<f64>() / values.len() as f64
}

/// The final report line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`. With one workload the metric names are bare;
/// with several, each is prefixed by its workload's name and a `/`.
pub fn json_line(results: &[(&str, Outcome)]) -> String {
    let attempted: u64 = results.iter().map(|(_, o)| o.attempted).sum();
    let failed: u64 = results.iter().map(|(_, o)| o.failed).sum();
    let metrics: Vec<String> = results
        .iter()
        .flat_map(|(workload, o)| {
            o.metrics.iter().map(move |m| {
                let name = if results.len() == 1 {
                    m.name.to_string()
                } else {
                    format!("{workload}/{}", m.name)
                };
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    json_number(m.value),
                    m.unit
                )
            })
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && attempted > 0,
        metrics.join(", ")
    )
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives (non-finite values, which JSON cannot hold, as 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn min_is_the_smallest_value() {
        assert_eq!(min(&[3.0, 1.5, 2.0]), 1.5);
        assert_eq!(min(&[7.0]), 7.0);
    }

    #[test]
    fn json_line_has_the_four_keys_and_bare_names_for_one_workload() {
        let o = Outcome {
            attempted: 3,
            failed: 0,
            metrics: vec![Metric::new("run_s", 1.25, "s")],
        };
        let line = json_line(&[("observed", o.clone())]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"run_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
        let two = json_line(&[("a", o.clone()), ("b", o)]);
        assert!(
            two.contains("\"a/run_s\"") && two.contains("\"b/run_s\""),
            "{two}"
        );
        assert!(two.contains("\"attempted\": 6"), "{two}");
    }

    #[test]
    fn a_failure_makes_the_report_incorrect() {
        let o = Outcome {
            attempted: 2,
            failed: 1,
            metrics: Vec::new(),
        };
        assert!(json_line(&[("w", o)]).starts_with("{\"correct\": false"));
    }
}
