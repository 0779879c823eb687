//! Metric collection, output checks, and the one-line JSON result.

use valentine_core::obs::json::Json;

use crate::stats::{valid_name, valid_unit};

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Dotted name, e.g. `lake.open_s`.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<Metric>,
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Checked operations that failed or answered wrongly.
    pub failed: u64,
}

impl Report {
    /// Records a metric, replacing an earlier value of the same name.
    ///
    /// # Panics
    /// Panics on an invalid name or unit: those are bugs in this program.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(valid_name(name), "invalid metric name {name:?}");
        assert!(valid_unit(unit), "invalid unit {unit:?}");
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// The value of a metric recorded earlier.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Counts one checked operation; a failing check is also logged to
    /// stderr (only the first few, to keep a broken run readable).
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 10 {
                eprintln!("check failed: {what}");
            }
        }
    }

    /// Counts `n` operations of which `failed` failed.
    pub fn checks(&mut self, n: u64, failed: u64, what: &str) {
        self.attempted += n;
        self.failed += failed;
        if failed > 0 {
            eprintln!("check failed: {failed} of {n} {what}");
        }
    }

    /// Keeps only the named metrics, in the given order; returns the names
    /// that were never recorded.
    pub fn select(&mut self, names: &[&str]) -> Vec<String> {
        let mut kept = Vec::new();
        let mut missing = Vec::new();
        for &name in names {
            match self.metrics.iter().find(|m| m.name == name) {
                Some(m) => kept.push(m.clone()),
                None => missing.push(name.to_string()),
            }
        }
        self.metrics = kept;
        missing
    }

    /// The metrics, in recording order.
    pub fn metrics(&self) -> &[Metric] {
        &self.metrics
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn json_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::Obj(vec![
                        ("value".to_string(), Json::Float(m.value)),
                        ("unit".to_string(), Json::Str(m.unit.to_string())),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("correct".to_string(), Json::Bool(self.failed == 0)),
            ("attempted".to_string(), Json::UInt(self.attempted.max(1))),
            ("failed".to_string(), Json::UInt(self.failed)),
            ("metrics".to_string(), Json::Obj(metrics)),
        ])
        .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_four_keys_and_full_digits() {
        let mut r = Report::default();
        r.put("lake.open_s", 0.123_456_789, "s");
        r.check(true, "fine");
        r.check(false, "broken");
        let parsed = Json::parse(&r.json_line()).unwrap();
        assert_eq!(parsed.get("correct").and_then(Json::as_bool), Some(false));
        assert_eq!(parsed.get("attempted").and_then(Json::as_u64), Some(2));
        assert_eq!(parsed.get("failed").and_then(Json::as_u64), Some(1));
        let m = parsed.get("metrics").and_then(|m| m.get("lake.open_s"));
        assert_eq!(
            m.and_then(|m| m.get("value")).and_then(Json::as_f64),
            Some(0.123_456_789)
        );
        assert_eq!(
            m.and_then(|m| m.get("unit")).and_then(Json::as_str),
            Some("s")
        );
    }

    #[test]
    fn select_reports_missing_names() {
        let mut r = Report::default();
        r.put("a", 1.0, "s");
        r.put("b", 2.0, "s");
        assert_eq!(r.select(&["b", "c"]), vec!["c".to_string()]);
        assert_eq!(r.metrics().len(), 1);
        assert_eq!(r.get("b"), Some(2.0));
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn slashed_names_are_refused() {
        Report::default().put("index/lsh_ms", 1.0, "ms");
    }
}
