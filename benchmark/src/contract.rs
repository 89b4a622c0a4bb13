//! `BENCHMARK.json`, compiled in: the one place metric names, units,
//! directions and regression bounds are written down. The harness takes
//! every unit and bound from here, so what it prints cannot drift from what
//! the file promises.

use crate::json::{parse_json, Json};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    /// Metric name.
    pub name: String,
    /// Unit printed beside every value.
    pub unit: String,
    /// True when larger values are better.
    pub higher_is_better: bool,
    /// Share of the baseline median by which the metric may worsen;
    /// `None` for per-layer metrics, which are not gated.
    pub bound: Option<f64>,
}

/// The parsed file.
#[derive(Debug, Clone, PartialEq)]
pub struct Contract {
    /// Workload names in reporting order.
    pub workloads: Vec<String>,
    /// Metrics a user of the system sees; gated.
    pub end_to_end: Vec<MetricDef>,
    /// Metrics of single layers, from the traced run; not gated.
    pub per_layer: Vec<MetricDef>,
    /// Seconds one run measures for.
    pub run_seconds: f64,
}

fn metric_defs(doc: &Json, key: &str) -> Vec<MetricDef> {
    let Some(Json::Arr(items)) = doc.get(key) else { panic!("BENCHMARK.json: no {key} list") };
    items
        .iter()
        .map(|m| {
            let text = |k: &str| {
                m.get(k).and_then(Json::as_str).unwrap_or_else(|| panic!("{key}: missing {k}"))
            };
            MetricDef {
                name: text("name").to_owned(),
                unit: text("unit").to_owned(),
                higher_is_better: text("better") == "higher",
                bound: m.get("bound").and_then(Json::as_f64),
            }
        })
        .collect()
}

impl Contract {
    /// Parses the compiled-in file.
    ///
    /// # Panics
    ///
    /// Panics when the file is malformed — a build-time mistake, caught by
    /// the unit tests.
    pub fn load() -> Contract {
        let doc = parse_json(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
        let Some(Json::Arr(workloads)) = doc.get("workloads") else {
            panic!("BENCHMARK.json: no workloads list")
        };
        Contract {
            workloads: workloads
                .iter()
                .map(|w| w.get("name").and_then(Json::as_str).expect("workload name").to_owned())
                .collect(),
            end_to_end: metric_defs(&doc, "end_to_end"),
            per_layer: metric_defs(&doc, "per_layer"),
            run_seconds: doc.get("run_seconds").and_then(Json::as_f64).expect("run_seconds"),
        }
    }

    /// The unit of metric `name`, end-to-end or per-layer.
    pub fn unit(&self, name: &str) -> Option<&str> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
            .map(|m| m.unit.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::NAMES;

    #[test]
    fn the_file_names_the_workloads_the_harness_runs() {
        let c = Contract::load();
        assert_eq!(c.workloads, NAMES);
        assert!((1.0..=60.0).contains(&c.run_seconds));
    }

    #[test]
    fn every_gated_metric_has_a_bound_and_setup_has_the_largest() {
        let c = Contract::load();
        let setup = c.end_to_end.iter().find(|m| m.name == "setup_s").expect("setup_s");
        assert_eq!((setup.unit.as_str(), setup.higher_is_better), ("s", false));
        for m in &c.end_to_end {
            let bound = m.bound.unwrap_or_else(|| panic!("{} has no bound", m.name));
            assert!(bound > 0.0 && bound <= 0.25, "{}: {bound}", m.name);
            assert!(bound <= setup.bound.expect("setup bound"), "{}", m.name);
        }
        assert!(c.per_layer.iter().all(|m| m.bound.is_none()));
        assert_eq!(c.unit("frame_ms_p50"), Some("ms"));
        assert_eq!(c.unit("nope"), None);
    }
}
