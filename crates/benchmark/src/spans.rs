//! Spans recorded by the benchmark around its calls into each layer, and
//! the self-time accounting that turns them into per-layer numbers.
//!
//! Spans are kept in memory and written out once the run ends. A layer's
//! self time is its span's duration minus the part of that interval its
//! child spans cover; each instant is attributed to the deepest span open
//! at that instant, so the self times of one trace add up to its root's
//! wall time exactly, in whole nanoseconds. The root's own self time is
//! the time no layer accounts for.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

pub type SpanId = usize;

#[derive(Clone, Debug)]
pub struct Span {
    /// All spans of one session (or one in-process replay) share a trace.
    pub trace: u64,
    pub parent: Option<SpanId>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span; parents are recorded before children.
    pub fn record(
        &mut self,
        trace: u64,
        parent: Option<SpanId>,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let span = Span {
            trace,
            parent,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.push(span)
    }

    pub fn push(&mut self, span: Span) -> SpanId {
        self.spans.push(span);
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self-time accounting over every trace whose root span has one name.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Accounting {
    /// Σ root durations.
    pub wall_ns: u64,
    /// Self time of the roots: wall time no layer span covers.
    pub unaccounted_ns: u64,
    /// Self time per layer (non-root span name).
    pub self_ns: BTreeMap<&'static str, u64>,
}

impl Accounting {
    pub fn layers_ns(&self) -> u64 {
        self.self_ns.values().sum()
    }

    pub fn unaccounted_share(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.unaccounted_ns as f64 / self.wall_ns as f64
        }
    }
}

pub fn account(spans: &[Span], root_name: &str) -> Accounting {
    let mut by_trace: BTreeMap<u64, Vec<SpanId>> = BTreeMap::new();
    for (id, s) in spans.iter().enumerate() {
        by_trace.entry(s.trace).or_default().push(id);
    }
    let mut acc = Accounting::default();
    for ids in by_trace.values() {
        let is_root = |id: SpanId| spans[id].parent.is_none();
        let rooted_here = ids
            .iter()
            .any(|&id| is_root(id) && spans[id].name == root_name);
        if !rooted_here {
            continue;
        }
        let depth = |mut id: SpanId| {
            let mut d = 0u32;
            while let Some(p) = spans[id].parent {
                id = p;
                d += 1;
            }
            d
        };
        let depths: Vec<u32> = ids.iter().map(|&id| depth(id)).collect();
        for &id in ids {
            if is_root(id) {
                acc.wall_ns += spans[id].end_ns - spans[id].start_ns;
            }
        }
        let mut bounds: Vec<u64> = ids
            .iter()
            .flat_map(|&id| [spans[id].start_ns, spans[id].end_ns])
            .collect();
        bounds.sort_unstable();
        bounds.dedup();
        for w in bounds.windows(2) {
            let (a, b) = (w[0], w[1]);
            // The deepest span open over [a, b); later starts win ties, so
            // a sibling that begins where another ends takes the instant.
            let owner = ids
                .iter()
                .zip(&depths)
                .filter(|(&id, _)| spans[id].start_ns <= a && spans[id].end_ns >= b)
                .max_by_key(|(&id, &d)| (d, spans[id].start_ns, id));
            if let Some((&id, _)) = owner {
                if is_root(id) {
                    acc.unaccounted_ns += b - a;
                } else {
                    *acc.self_ns.entry(spans[id].name).or_default() += b - a;
                }
            }
        }
    }
    acc
}

/// The span file written by `--trace-out`: every span plus the accounting
/// for each root kind.
pub fn to_json(workload: &str, spans: &[Span], roots: &[&str]) -> String {
    let mut out = String::with_capacity(64 + spans.len() * 96);
    out.push_str("{\"schema\":\"jmpax-benchmark-spans/v1\",\"workload\":");
    jmpax_telemetry::json::write_string(&mut out, workload);
    out.push_str(",\"accounting\":{");
    for (i, root) in roots.iter().enumerate() {
        let acc = account(spans, root);
        if i > 0 {
            out.push(',');
        }
        jmpax_telemetry::json::write_string(&mut out, root);
        let _ = write!(
            out,
            ":{{\"wall_ns\":{},\"unaccounted_ns\":{},\"self_ns\":{{",
            acc.wall_ns, acc.unaccounted_ns
        );
        for (j, (name, ns)) in acc.self_ns.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            jmpax_telemetry::json::write_string(&mut out, name);
            let _ = write!(out, ":{ns}");
        }
        out.push_str("}}");
    }
    out.push_str("},\"spans\":[");
    for (id, s) in spans.iter().enumerate() {
        if id > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{{\"id\":{id},\"trace\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.trace, s.name, s.start_ns, s.end_ns
        );
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(trace: u64, parent: Option<SpanId>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            trace,
            parent,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_times_and_unaccounted_add_up_to_wall_exactly() {
        let mut spans = Spans::new();
        // Trace 1: root [0, 1000) with decode [10, 300), suite [300, 990)
        // and a grandchild of suite [400, 700).
        let r = spans.push(span(1, None, "replay", 0, 1000));
        spans.push(span(1, Some(r), "decode", 10, 300));
        let s = spans.push(span(1, Some(r), "suite", 300, 990));
        spans.push(span(1, Some(s), "ltl", 400, 700));
        // Trace 2: root [5000, 5333) with one child flush with both ends.
        let r2 = spans.push(span(2, None, "replay", 5000, 5333));
        spans.push(span(2, Some(r2), "decode", 5000, 5333));
        // Trace 3 has another root name and must not be counted.
        spans.push(span(3, None, "session", 0, 77));

        let acc = account(spans.spans(), "replay");
        assert_eq!(acc.wall_ns, 1000 + 333);
        assert_eq!(acc.self_ns["decode"], 290 + 333);
        assert_eq!(acc.self_ns["suite"], 690 - 300);
        assert_eq!(acc.self_ns["ltl"], 300);
        assert_eq!(acc.unaccounted_ns, 10 + 10);
        assert_eq!(acc.layers_ns() + acc.unaccounted_ns, acc.wall_ns);

        let other = account(spans.spans(), "session");
        assert_eq!((other.wall_ns, other.unaccounted_ns), (77, 77));
    }

    #[test]
    fn overlapping_siblings_still_add_up() {
        // Siblings that overlap (a layer running while another finishes)
        // split the shared interval instead of counting it twice.
        let mut spans = Spans::new();
        let r = spans.push(span(9, None, "replay", 100, 200));
        spans.push(span(9, Some(r), "a", 100, 160));
        spans.push(span(9, Some(r), "b", 150, 200));
        let acc = account(spans.spans(), "replay");
        assert_eq!(acc.layers_ns() + acc.unaccounted_ns, acc.wall_ns);
        assert_eq!(acc.self_ns["a"], 50);
        assert_eq!(acc.self_ns["b"], 50);
        assert_eq!(acc.unaccounted_ns, 0);
        let json = to_json("w", spans.spans(), &["replay"]);
        assert!(jmpax_telemetry::json::parse(&json).is_ok(), "{json}");
    }
}
