//! The run's result: named metrics with units, plus the failure tally,
//! printed as the one-line JSON object that ends standard output.

use std::collections::BTreeMap;

#[derive(Default)]
pub struct Report {
    metrics: BTreeMap<String, (f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    /// Set when an output check disagrees.
    pub mismatches: u64,
    /// Human-readable notes (stderr), e.g. which percentile a tail is.
    pub notes: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.insert(name.into(), (value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).map(|m| m.0)
    }

    /// Counts one operation; `ok == false` counts it failed.
    pub fn tally(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Records an output check; a disagreement is a failed operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.mismatches += 1;
            self.failed += 1;
            self.notes.push(format!("MISMATCH: {}", what()));
        }
    }

    pub fn correct(&self) -> bool {
        self.mismatches == 0 && self.failed == 0
    }

    /// The result line, restricted to `keep` when given.
    pub fn json(&self, keep: Option<&[&str]>) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .filter(|(k, _)| keep.is_none_or(|names| names.contains(&k.as_str())))
            .map(|(k, (v, unit))| format!("\"{k}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_result_keys() {
        let mut r = Report::default();
        r.set("setup_s", 1.25, "s");
        r.set("extra", 2.0, "count");
        r.tally(true);
        r.tally(false);
        let line = r.json(Some(&["setup_s"]));
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 2, \"failed\": 1, \
             \"metrics\": {\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }
}
