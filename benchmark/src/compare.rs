//! `compare <a.json> <b.json>`: per workload and end-to-end metric, both
//! medians, the ratio with its base, and a verdict against the bound in
//! `BENCHMARK.json`.

use crate::contract::{Contract, MetricDef};
use crate::json::Json;
use crate::stats::{median, spread};
use std::collections::BTreeMap;

/// `workload → metric → values`, one value per run.
pub type Values = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// Reads a result document: either one run's file (`workload` +
/// `metrics: {name: {value, unit}}`) or a suite file
/// (`workloads: {name: {metric: [values]}}`).
pub fn load(doc: &Json) -> Result<Values, String> {
    let mut out = Values::new();
    if let Some(Json::Obj(workloads)) = doc.get("workloads") {
        for (workload, metrics) in workloads {
            let Json::Obj(metrics) = metrics else {
                return Err(format!("{workload}: not an object"));
            };
            for (metric, values) in metrics {
                let Json::Arr(values) = values else { return Err(format!("{metric}: not a list")) };
                let values: Option<Vec<f64>> = values.iter().map(Json::as_f64).collect();
                out.entry(workload.clone())
                    .or_default()
                    .insert(metric.clone(), values.ok_or(format!("{metric}: non-numeric value"))?);
            }
        }
    } else {
        let workload = doc.get("workload").and_then(Json::as_str).ok_or("no workload field")?;
        let Some(Json::Obj(metrics)) = doc.get("metrics") else { return Err("no metrics".into()) };
        for (metric, m) in metrics {
            let v = m.get("value").and_then(Json::as_f64).ok_or(format!("{metric}: no value"))?;
            out.entry(workload.to_owned()).or_default().insert(metric.clone(), vec![v]);
        }
    }
    Ok(out)
}

/// How B stands against A on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is worse than A's by more than the bound, and the
    /// run-to-run spread is small enough to believe it.
    Regressed,
    /// B's median is no worse than A's by more than the bound.
    WithinBound,
    /// Either side's spread exceeds the bound, so the medians cannot
    /// settle it — unless every B run beats every A run.
    Unresolved,
}

impl Verdict {
    /// The word printed in the table.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Regressed => "regressed",
            Verdict::WithinBound => "within_bound",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Median of A's runs — the base of the ratio.
    pub a: f64,
    /// Median of B's runs.
    pub b: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// By what share of A's median B is worse (negative when better).
fn worse_by(def: &MetricDef, a: f64, b: f64) -> f64 {
    let change = if a == 0.0 { 0.0 } else { (b - a) / a.abs() };
    if def.higher_is_better {
        -change
    } else {
        change
    }
}

/// Judges one metric from both sides' runs.
pub fn judge(def: &MetricDef, a: &[f64], b: &[f64]) -> Verdict {
    let bound = def.bound.expect("only end-to-end metrics are judged");
    let noisy = spread(a) > bound || spread(b) > bound;
    let all_better = a.iter().all(|&x| b.iter().all(|&y| worse_by(def, x, y) < 0.0));
    if noisy && !all_better {
        Verdict::Unresolved
    } else if worse_by(def, median(a), median(b)) > bound {
        Verdict::Regressed
    } else {
        Verdict::WithinBound
    }
}

/// Compares every workload and end-to-end metric present on both sides.
pub fn compare(contract: &Contract, a: &Values, b: &Values) -> Vec<Row> {
    let mut rows = Vec::new();
    for workload in &contract.workloads {
        let (Some(wa), Some(wb)) = (a.get(workload), b.get(workload)) else { continue };
        for def in &contract.end_to_end {
            let (Some(va), Some(vb)) = (wa.get(&def.name), wb.get(&def.name)) else { continue };
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            rows.push(Row {
                workload: workload.clone(),
                metric: def.name.clone(),
                a: median(va),
                b: median(vb),
                verdict: judge(def, va, vb),
            });
        }
    }
    rows
}

/// The table `compare` prints.
pub fn table(contract: &Contract, rows: &[Row]) -> String {
    let mut out = format!(
        "{:<14} {:<18} {:>12} {:>12} {:>9} {:>7}  verdict\n",
        "workload", "metric", "A median", "B median", "B/A", "bound"
    );
    for r in rows {
        let def = contract.end_to_end.iter().find(|d| d.name == r.metric).expect("judged metric");
        out.push_str(&format!(
            "{:<14} {:<18} {:>12.4} {:>12.4} {:>9.4} {:>6.0}%  {}\n",
            r.workload,
            format!("{} [{}]", r.metric, def.unit),
            r.a,
            r.b,
            if r.a == 0.0 { 0.0 } else { r.b / r.a },
            def.bound.unwrap_or(0.0) * 100.0,
            r.verdict.label()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, parse_json};

    fn def(higher: bool, bound: f64) -> MetricDef {
        MetricDef {
            name: "m".into(),
            unit: "ms".into(),
            higher_is_better: higher,
            bound: Some(bound),
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let lower = def(false, 0.08);
        assert_eq!(judge(&lower, &[10.0, 10.1, 10.2], &[10.5, 10.6, 10.7]), Verdict::WithinBound);
        assert_eq!(judge(&lower, &[10.0, 10.1, 10.2], &[11.5, 11.6, 11.7]), Verdict::Regressed);
        assert_eq!(judge(&lower, &[10.0, 10.1, 10.2], &[5.0, 5.1, 5.2]), Verdict::WithinBound);
        // A's own runs spread over 40 %: the medians settle nothing...
        assert_eq!(judge(&lower, &[8.0, 10.0, 12.0], &[11.5, 11.6, 11.7]), Verdict::Unresolved);
        // ...unless every B run beats every A run.
        assert_eq!(judge(&lower, &[8.0, 10.0, 12.0], &[5.0, 5.1, 5.2]), Verdict::WithinBound);
        let higher = def(true, 0.08);
        assert_eq!(judge(&higher, &[80.0], &[70.0]), Verdict::Regressed);
        assert_eq!(judge(&higher, &[80.0], &[90.0]), Verdict::WithinBound);
    }

    #[test]
    fn run_and_suite_files_load_through_the_writer() {
        let run = json::obj([
            ("workload", json::string("pnpp_delayed")),
            ("metrics", json::obj([("frame_ms_p50", json::obj([("value", json::num(12.5))]))])),
        ]);
        let run = load(&parse_json(&json::pretty(&run)).expect("parses")).expect("loads");
        assert_eq!(run["pnpp_delayed"]["frame_ms_p50"], vec![12.5]);

        let values = Json::Arr(vec![json::num(20.0), json::num(20.5), json::num(21.0)]);
        let suite = json::obj([(
            "workloads",
            json::obj([("pnpp_delayed", json::obj([("frame_ms_p50", values)]))]),
        )]);
        let suite = load(&parse_json(&json::compact(&suite)).expect("parses")).expect("loads");
        assert_eq!(suite["pnpp_delayed"]["frame_ms_p50"].len(), 3);

        let contract = Contract::load();
        let rows = compare(&contract, &run, &suite);
        assert_eq!(rows.len(), 1);
        assert_eq!((rows[0].a, rows[0].b), (12.5, 20.5));
        assert_eq!(
            rows[0].verdict,
            Verdict::Regressed,
            "+64 % is past any bound the contract allows"
        );
        assert!(table(&contract, &rows).contains("regressed"));
        assert!(load(&json::obj([("x", json::num(1.0))])).is_err());
    }
}
