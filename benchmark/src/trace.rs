//! In-memory spans recorded by the harness around its calls into each
//! layer. Spans inside the program are a later change (ROADMAP item 1);
//! these see only what an outside caller can time.

use crate::json::{self, Json};
use std::collections::BTreeMap;
use std::time::Instant;

/// Span id meaning "no parent" / "not part of a frame".
pub const NONE: i64 = -1;

/// One timed interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.what[detail]`, e.g. `tensor.matmul[sa1.0]`.
    pub name: String,
    /// Frame the span belongs to, or [`NONE`] for replay and set-up spans.
    pub frame: i64,
    /// Index of the span that caused this one, or [`NONE`] for a root.
    pub parent: i64,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

/// Collects spans in memory; written out once, when the run ends.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer { epoch: Instant::now(), spans: Vec::new() }
    }

    /// Nanoseconds from the epoch to `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        name: &str,
        frame: i64,
        parent: i64,
        start: Instant,
        end: Instant,
    ) -> i64 {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span { name: name.to_owned(), frame, parent, start_ns, end_ns });
        self.spans.len() as i64 - 1
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans plus a per-name roll-up, as the trace file's document.
    pub fn to_json(&self, workload: &str) -> Json {
        let spans = self.spans.iter().map(|s| {
            json::obj([
                ("name", json::string(s.name.as_str())),
                ("frame", json::num(s.frame as f64)),
                ("parent", json::num(s.parent as f64)),
                ("start_ns", json::count(s.start_ns)),
                ("end_ns", json::count(s.end_ns)),
            ])
        });
        let summary = summarize(&self.spans).into_iter().map(|(name, s)| {
            let fields = [
                ("count", json::count(s.count)),
                ("total_ms", json::num(s.total_ns as f64 / 1e6)),
                ("self_ms", json::num(s.self_ns as f64 / 1e6)),
            ];
            (name, json::obj(fields))
        });
        json::obj([
            ("schema", json::string("mesorasi-benchmark-trace/1")),
            ("workload", json::string(workload)),
            ("summary", json::obj(summary)),
            ("spans", Json::Arr(spans.collect())),
        ])
    }
}

/// A span's self time: its duration minus the part of it its direct
/// children cover. The harness never overlaps siblings, so the children's
/// durations simply add.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns.saturating_sub(s.start_ns)).collect();
    for s in spans {
        if let Ok(parent) = usize::try_from(s.parent) {
            own[parent] = own[parent].saturating_sub(s.end_ns.saturating_sub(s.start_ns));
        }
    }
    own
}

/// Per-name totals.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed self time.
    pub self_ns: u64,
}

/// Rolls spans up by name, sorted by name so the file is stable.
pub fn summarize(spans: &[Span]) -> BTreeMap<String, NameTotals> {
    let own = self_times(spans);
    let mut by_name: BTreeMap<String, NameTotals> = BTreeMap::new();
    for (s, own_ns) in spans.iter().zip(own) {
        let t = by_name.entry(s.name.clone()).or_default();
        t.count += 1;
        t.total_ns += s.end_ns.saturating_sub(s.start_ns);
        t.self_ns += own_ns;
    }
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: i64, start_ns: u64, end_ns: u64) -> Span {
        Span { name: name.into(), frame: 0, parent, start_ns, end_ns }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span("frame", NONE, 0, 100),
            span("pointcloud.decode", 0, 0, 10),
            span("networks.infer", 0, 10, 95),
            span("frame", NONE, 100, 150),
        ];
        assert_eq!(self_times(&spans), vec![5, 10, 85, 50]);
        let summary = summarize(&spans);
        assert_eq!(summary["frame"], NameTotals { count: 2, total_ns: 150, self_ns: 55 });
        assert_eq!(summary["networks.infer"].self_ns, 85);
    }

    #[test]
    fn tracer_links_children_to_parents_and_serializes() {
        let mut tracer = Tracer::new();
        let start = Instant::now();
        let frame = tracer.record("frame", 3, NONE, start, Instant::now());
        tracer.record("pointcloud.decode", 3, frame, start, Instant::now());
        assert_eq!(tracer.spans()[1].parent, 0);
        assert_eq!(tracer.spans()[1].frame, 3);
        let doc = json::parse_json(&json::pretty(&tracer.to_json("w"))).expect("valid JSON");
        assert_eq!(doc.get("workload").and_then(Json::as_str), Some("w"));
        assert!(doc.get("summary").and_then(|s| s.get("frame")).is_some());
    }
}
