//! Bench-trajectory regression diff (`repro bench-diff`).
//!
//! Compares a freshly measured `BENCH_<date>.json` against a committed
//! baseline from an earlier PR, record by record, and fails when any
//! shared configuration got more than `threshold`× slower. This is the
//! longitudinal complement to the smoke gate in [`crate::perf`]: that one
//! compares configurations against each other *within* one run (parallel
//! vs sequential); this module compares the same
//! configuration against its own past, so a kernel that silently loses
//! its vectorized path — still self-consistent, still passing every
//! smoke gate — shows up as a trajectory regression.
//!
//! Records are matched on their full identity: `(op, backend, threads,
//! points, mode)` (see [`crate::perf::BenchRecord`]), plus the `dtype` that
//! records of older artifacts carry where they timed an `f64` tier; an
//! artifact that carries one identity twice is rejected when it is read. Keys
//! present on only one side are reported but never fail the gate — new
//! kernels appear and old ones retire as the repo grows, and a trajectory
//! gate that punished adding a benchmark would teach people not to add
//! benchmarks.
//!
//! Smoke and full runs use different workload sizes, so their times are
//! not comparable; [`diff`] refuses to cross them rather than emitting a
//! table of meaningless ratios.
//!
//! The parser is hand-rolled like the writer in [`crate::perf`] (this
//! environment has no JSON dependency) but general: it accepts any JSON
//! document and then projects out the bench fields, so field order,
//! whitespace, and unknown extras never break the gate. `benchmark/`
//! reads its suite and contract files through the same [`parse_json`].

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// Regression tolerance the CI gate applies when `--threshold` is not
/// given: a record may be up to 1.5× slower than the baseline (the
/// repo's standard tolerance, absorbing runner-to-runner jitter) before
/// the diff fails.
pub const DEFAULT_THRESHOLD: f64 = 1.5;

// ---------------------------------------------------------------------
// Minimal JSON reader.
// ---------------------------------------------------------------------

/// A parsed JSON value. Numbers are `f64` (the bench schema never needs
/// more than 53 bits of integer precision).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string (escape sequences decoded).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up `key` in an object; `None` on missing key or non-object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Arrays and objects may nest this deep; the reader recurses per level,
/// so unbounded input would otherwise overflow the stack. Bench, suite and
/// contract documents nest fewer than 10 levels.
const MAX_DEPTH: usize = 128;

/// Parses a JSON document. Errors carry the byte offset so a truncated
/// or hand-edited baseline fails with a pointer, not a shrug.
pub fn parse_json(src: &str) -> Result<Json, String> {
    let bytes = src.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("expected `{lit}` at byte {pos}", pos = *pos))
    }
}

/// `depth` counts the arrays and objects enclosing this value.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(b, pos);
    if depth >= MAX_DEPTH && matches!(b.get(*pos), Some(b'[' | b'{')) {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}", pos = *pos));
    }
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => expect(b, pos, "null").map(|()| Json::Null),
        Some(b't') => expect(b, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect(b, pos, "false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(b, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, ":")?;
                let value = parse_value(b, pos, depth + 1)?;
                fields.push((key, value));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(_) => parse_number(b, pos).map(Json::Num),
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}", pos = *pos));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape digits")?;
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        *pos += 4;
                    }
                    other => return Err(format!("unsupported escape {other:?}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (the input is a &str, so byte
                // boundaries are valid).
                let start = *pos;
                *pos += 1;
                while *pos < b.len() && (b[*pos] & 0xC0) == 0x80 {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&b[start..*pos]).expect("input was a str"));
            }
        }
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<f64, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse().ok())
        .ok_or(format!("malformed number at byte {start}"))
}

// ---------------------------------------------------------------------
// Bench-report projection.
// ---------------------------------------------------------------------

/// One record as read back from a bench artifact — only the identity
/// fields and the measurement the trajectory gate compares.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffRecord {
    /// Kernel / phase name.
    pub op: String,
    /// Implementation / network the op ran on.
    pub backend: String,
    /// Thread count of the measurement.
    pub threads: u64,
    /// Element type: `"f32"` when the record carries no `dtype` field, as
    /// every record written now; older artifacts also hold `"f64"` rows,
    /// which match nothing a current run measures.
    pub dtype: String,
    /// Cloud size, on large-cloud records.
    pub points: Option<u64>,
    /// Configuration variant (`"deep"`); `None` when the record carries no
    /// `mode`.
    pub mode: Option<String>,
    /// Mean wall time per operation, nanoseconds.
    pub ns_per_op: f64,
}

impl DiffRecord {
    /// Human-readable identity, used as the match key and in tables.
    pub fn key(&self) -> String {
        let mut k = format!("{}/{}", self.op, self.backend);
        if self.dtype != "f32" {
            let _ = write!(k, "[{}]", self.dtype);
        }
        if let Some(n) = self.points {
            let _ = write!(k, "[n={n}]");
        }
        if let Some(m) = &self.mode {
            let _ = write!(k, "[{m}]");
        }
        let _ = write!(k, " @{}t", self.threads);
        k
    }
}

/// A bench artifact read back for diffing.
#[derive(Debug, Clone)]
pub struct ParsedReport {
    /// The artifact's `schema` string (`mesorasi-bench/9`).
    pub schema: String,
    /// The artifact's run date.
    pub date: String,
    /// Whether the run used the reduced smoke workloads.
    pub smoke: bool,
    /// The measurements.
    pub records: Vec<DiffRecord>,
}

/// Reads a bench JSON artifact back into diffable form.
///
/// # Errors
///
/// Malformed JSON, a missing header or record field, or two records with
/// the same [`DiffRecord::key`] — a trajectory cannot say which of the
/// two a later run should be compared against.
pub fn parse_report(src: &str) -> Result<ParsedReport, String> {
    let doc = parse_json(src)?;
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("missing `schema` field — not a bench artifact?")?;
    if !schema.starts_with("mesorasi-bench/") {
        return Err(format!("unrecognized schema {schema:?} (want mesorasi-bench/N)"));
    }
    let date = doc.get("date").and_then(Json::as_str).unwrap_or("unknown").to_owned();
    let smoke = doc.get("smoke").and_then(Json::as_bool).unwrap_or(false);
    let records = doc
        .get("records")
        .and_then(|r| match r {
            Json::Arr(items) => Some(items),
            _ => None,
        })
        .ok_or("missing `records` array")?;
    let mut out = Vec::with_capacity(records.len());
    let mut seen = BTreeSet::new();
    for (i, r) in records.iter().enumerate() {
        let field_str = |k: &str| {
            r.get(k)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or(format!("record {i}: missing string field `{k}`"))
        };
        let field_num = |k: &str| {
            r.get(k).and_then(Json::as_f64).ok_or(format!("record {i}: missing number field `{k}`"))
        };
        let record = DiffRecord {
            op: field_str("op")?,
            backend: field_str("backend")?,
            threads: field_num("threads")? as u64,
            dtype: r.get("dtype").and_then(Json::as_str).unwrap_or("f32").to_owned(),
            points: r.get("points").and_then(Json::as_f64).map(|n| n as u64),
            mode: r.get("mode").and_then(Json::as_str).map(str::to_owned),
            ns_per_op: field_num("ns_per_op")?,
        };
        if !seen.insert(record.key()) {
            return Err(format!("record {i}: duplicate key `{}`", record.key()));
        }
        out.push(record);
    }
    Ok(ParsedReport { schema: schema.to_owned(), date, smoke, records: out })
}

// ---------------------------------------------------------------------
// The diff itself.
// ---------------------------------------------------------------------

/// One matched configuration: the same key measured in both runs.
#[derive(Debug, Clone)]
pub struct DiffRow {
    /// The shared record identity (see [`DiffRecord::key`]).
    pub key: String,
    /// Baseline time, ns/op.
    pub base_ns: f64,
    /// Current time, ns/op.
    pub cur_ns: f64,
    /// `cur_ns / base_ns` — above 1.0 is slower than the baseline.
    pub ratio: f64,
}

/// The full comparison of two bench artifacts.
#[derive(Debug)]
pub struct DiffReport {
    /// Matched configurations, worst ratio first.
    pub rows: Vec<DiffRow>,
    /// Keys only the baseline has (retired benchmarks — informational).
    pub only_baseline: Vec<String>,
    /// Keys only the current run has (new benchmarks — informational).
    pub only_current: Vec<String>,
    /// The failure threshold the gate applies.
    pub threshold: f64,
}

impl DiffReport {
    /// Rows slower than the threshold. Empty means the gate passes.
    pub fn regressions(&self) -> Vec<&DiffRow> {
        self.rows.iter().filter(|r| r.ratio > self.threshold).collect()
    }

    /// Plain-text table, worst ratio first, regressions flagged.
    pub fn to_table(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{:<44} {:>14} {:>14} {:>8}",
            "op/backend @threads", "baseline ns", "current ns", "ratio"
        );
        for r in &self.rows {
            let flag = if r.ratio > self.threshold {
                "  REGRESSION"
            } else if r.ratio < 1.0 / self.threshold {
                "  improved"
            } else {
                ""
            };
            let _ = writeln!(
                s,
                "{:<44} {:>14.0} {:>14.0} {:>7.2}x{flag}",
                r.key, r.base_ns, r.cur_ns, r.ratio
            );
        }
        for k in &self.only_baseline {
            let _ = writeln!(s, "{k:<44}  (baseline only — retired?)");
        }
        for k in &self.only_current {
            let _ = writeln!(s, "{k:<44}  (current only — new)");
        }
        let n_reg = self.regressions().len();
        let _ = writeln!(
            s,
            "{} configurations compared, {} regression(s) past {:.2}x",
            self.rows.len(),
            n_reg,
            self.threshold
        );
        s
    }
}

/// Compares `current` against `baseline` at `threshold`.
///
/// # Errors
///
/// Refuses to compare a smoke run against a full run — their workload
/// sizes differ, so every ratio would be noise.
pub fn diff(
    baseline: &ParsedReport,
    current: &ParsedReport,
    threshold: f64,
) -> Result<DiffReport, String> {
    if baseline.smoke != current.smoke {
        return Err(format!(
            "cannot compare a {} baseline against a {} run — workload sizes differ \
             (regenerate the baseline with the matching `repro bench` mode)",
            mode(baseline.smoke),
            mode(current.smoke)
        ));
    }
    // BTreeMap keeps key order deterministic; `parse_report` has already
    // refused artifacts that measure one key twice.
    let base: BTreeMap<String, f64> =
        baseline.records.iter().map(|r| (r.key(), r.ns_per_op)).collect();
    let cur: BTreeMap<String, f64> =
        current.records.iter().map(|r| (r.key(), r.ns_per_op)).collect();

    let mut rows = Vec::new();
    for (key, &base_ns) in &base {
        if let Some(&cur_ns) = cur.get(key) {
            let ratio = if base_ns > 0.0 { cur_ns / base_ns } else { 1.0 };
            rows.push(DiffRow { key: key.clone(), base_ns, cur_ns, ratio });
        }
    }
    rows.sort_by(|a, b| b.ratio.total_cmp(&a.ratio));
    let only_baseline = base.keys().filter(|k| !cur.contains_key(*k)).cloned().collect();
    let only_current = cur.keys().filter(|k| !base.contains_key(*k)).cloned().collect();
    Ok(DiffReport { rows, only_baseline, only_current, threshold })
}

fn mode(smoke: bool) -> &'static str {
    if smoke {
        "smoke"
    } else {
        "full"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf::{BenchRecord, BenchReport};

    fn record(op: &'static str, backend: &'static str, threads: usize, ns: f64) -> BenchRecord {
        BenchRecord {
            op,
            backend,
            threads,
            points: None,
            mode: None,
            ns_per_op: ns,
            speedup_vs_1t: 1.0,
        }
    }

    fn report(smoke: bool, records: Vec<BenchRecord>) -> BenchReport {
        BenchReport { date: "2026-10-01".into(), unix_time: 1, host_threads: 2, smoke, records }
    }

    fn keys(records: Vec<BenchRecord>) -> Vec<String> {
        let parsed = parse_report(&report(false, records).to_json()).expect("writer output parses");
        parsed.records.iter().map(DiffRecord::key).collect()
    }

    #[test]
    fn roundtrips_the_writers_own_output() {
        let rep = report(
            false,
            vec![record("matmul", "tensor", 2, 1000.0), record("matmul", "naive", 1, 9000.0)],
        );
        let parsed = parse_report(&rep.to_json()).expect("writer output parses");
        assert_eq!(parsed.schema, "mesorasi-bench/9");
        assert!(!parsed.smoke);
        assert_eq!(parsed.records.len(), 2);
        assert!(parsed.records.iter().all(|r| r.dtype == "f32"));
        assert_eq!(parsed.records[0].key(), "matmul/tensor @2t");
        assert_eq!(parsed.records[1].key(), "matmul/naive @1t");
    }

    #[test]
    fn legacy_f64_rows_are_read_apart_and_never_gate() {
        // Older artifacts timed the matmul tier at f64 too: such a row keeps
        // its own key, so it neither collides with the f32 row of the same
        // configuration nor is compared against it.
        let baseline = parse_report(
            r#"{ "schema": "mesorasi-bench/9", "smoke": false, "records": [
            { "op": "matmul", "backend": "tensor", "threads": 1, "ns_per_op": 1000.0 },
            { "op": "matmul", "backend": "tensor", "threads": 1, "dtype": "f64",
              "ns_per_op": 10.0 }
        ] }"#,
        )
        .expect("a legacy baseline parses");
        assert_eq!(baseline.records[1].dtype, "f64");
        assert_eq!(baseline.records[1].key(), "matmul/tensor[f64] @1t");
        let current =
            parse_report(&report(false, vec![record("matmul", "tensor", 1, 1000.0)]).to_json())
                .unwrap();
        let d = diff(&baseline, &current, DEFAULT_THRESHOLD).unwrap();
        assert!(d.regressions().is_empty());
        assert_eq!(d.only_baseline, vec!["matmul/tensor[f64] @1t"]);
        assert!(d.only_current.is_empty());

        // The committed baseline is such an artifact.
        let committed = parse_report(include_str!("../../../BENCH_2026-10-05.json"))
            .expect("the committed baseline parses");
        assert_eq!(committed.records.iter().filter(|r| r.dtype == "f64").count(), 4);
    }

    #[test]
    fn injected_2x_slowdown_fails_the_gate() {
        let base =
            parse_report(&report(false, vec![record("matmul", "tensor", 2, 1000.0)]).to_json())
                .unwrap();
        let slow =
            parse_report(&report(false, vec![record("matmul", "tensor", 2, 2000.0)]).to_json())
                .unwrap();
        let d = diff(&base, &slow, DEFAULT_THRESHOLD).unwrap();
        assert_eq!(d.regressions().len(), 1);
        assert!((d.regressions()[0].ratio - 2.0).abs() < 1e-9);
        assert!(d.to_table().contains("REGRESSION"), "{}", d.to_table());
    }

    #[test]
    fn jitter_inside_the_threshold_passes() {
        let base = parse_report(&report(false, vec![record("knn", "octree", 1, 1000.0)]).to_json())
            .unwrap();
        let cur = parse_report(&report(false, vec![record("knn", "octree", 1, 1400.0)]).to_json())
            .unwrap();
        assert!(diff(&base, &cur, DEFAULT_THRESHOLD).unwrap().regressions().is_empty());
    }

    #[test]
    fn unmatched_keys_inform_but_never_fail() {
        let base =
            parse_report(&report(false, vec![record("old_op", "x", 1, 10.0)]).to_json()).unwrap();
        let cur =
            parse_report(&report(false, vec![record("new_op", "y", 1, 10.0)]).to_json()).unwrap();
        let d = diff(&base, &cur, DEFAULT_THRESHOLD).unwrap();
        assert!(d.rows.is_empty());
        assert!(d.regressions().is_empty());
        assert_eq!(d.only_baseline, vec!["old_op/x @1t"]);
        assert_eq!(d.only_current, vec!["new_op/y @1t"]);
    }

    #[test]
    fn smoke_vs_full_refuses_to_compare() {
        let base = parse_report(&report(true, vec![]).to_json()).unwrap();
        let cur = parse_report(&report(false, vec![]).to_json()).unwrap();
        let err = diff(&base, &cur, DEFAULT_THRESHOLD).unwrap_err();
        assert!(err.contains("smoke"), "{err}");
    }

    #[test]
    fn point_counts_get_distinct_keys() {
        // The large-cloud sweep repeats (op, backend, threads) per cloud
        // size; `points` keeps the trajectories apart, and the small-cloud
        // kernel record of the same backend stays a plain key.
        let at = |points| BenchRecord { points, ..record("query", "octree", 2, 100.0) };
        assert_eq!(
            keys(vec![at(Some(1 << 17)), at(Some(1 << 20)), at(None)]),
            ["query/octree[n=131072] @2t", "query/octree[n=1048576] @2t", "query/octree @2t"]
        );
    }

    #[test]
    fn modes_get_distinct_keys() {
        let octree = |mode| BenchRecord {
            points: Some(1 << 20),
            mode,
            ..record("query", "octree", 2, 100.0)
        };
        assert_eq!(
            keys(vec![octree(None), octree(Some("deep"))]),
            ["query/octree[n=1048576] @2t", "query/octree[n=1048576][deep] @2t"]
        );
    }

    #[test]
    fn duplicate_keys_are_rejected() {
        let doc = r#"{ "schema": "mesorasi-bench/9", "smoke": false, "records": [
            { "op": "query", "backend": "octree", "threads": 2, "points": 1048576,
              "mode": "deep", "ns_per_op": 10.0 },
            { "op": "query", "backend": "octree", "threads": 2, "points": 1048576,
              "mode": "deep", "ns_per_op": 20.0 }
        ] }"#;
        let err = parse_report(doc).unwrap_err();
        assert!(err.contains("duplicate key `query/octree[n=1048576][deep] @2t`"), "{err}");
    }

    #[test]
    fn parser_survives_escapes_and_unknown_fields() {
        let doc = r#"{
            "schema": "mesorasi-bench/6", "date": "2026-08-08", "smoke": false,
            "future_field": [1, {"nested": null}],
            "records": [
                { "op": "knn", "backend": "a \"quoted\" grid", "threads": 4,
                  "ns_per_op": 12.5, "whatever": true }
            ]
        }"#;
        let parsed = parse_report(doc).expect("tolerant of unknown fields");
        assert_eq!(parsed.records[0].backend, "a \"quoted\" grid");
        assert_eq!(parsed.records[0].threads, 4);
    }

    #[test]
    fn malformed_json_errors_with_position() {
        let err = parse_report("{ \"schema\": \"mesorasi-bench/6\", ").unwrap_err();
        assert!(err.contains("byte") || err.contains("end of input"), "{err}");
        let err = parse_report("{}").unwrap_err();
        assert!(err.contains("schema"), "{err}");
    }

    #[test]
    fn nesting_is_bounded_not_a_stack_overflow() {
        let err = parse_json(&"[".repeat(100_000)).unwrap_err();
        assert_eq!(err, format!("nesting deeper than {MAX_DEPTH} at byte {MAX_DEPTH}"));
        let err = parse_json(&"{\"k\":".repeat(100_000)).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");

        // 100 levels, arrays and objects alternating, is an ordinary document.
        let deep = format!("{}7{}", "[{\"k\":".repeat(50), "}]".repeat(50));
        let mut v = &parse_json(&deep).expect("100-deep document parses");
        for _ in 0..50 {
            let Json::Arr(items) = v else { panic!("expected an array, got {v:?}") };
            v = items[0].get("k").expect("object level");
        }
        assert_eq!(v, &Json::Num(7.0));
    }
}
