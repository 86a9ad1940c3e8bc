//! Every metric the benchmark reports: name, unit, direction and, for
//! end-to-end metrics, the regression bound. `BENCHMARK.json` at the
//! repository root lists the same end-to-end and per-layer metrics; a
//! smoke test keeps the two equal. The README defines each metric and
//! which end-to-end metric each layer metric should move.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use jmpax_telemetry::json;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// Measured with tracing off; every workload reports every one of them.
/// Neighbour load on the shared 2-core reference host moved wide-lattice's
/// spread over ten seeds (interquartile range over median) up to about
/// 0.2, so the bounds are the widest allowed.
pub const END_TO_END: &[MetricDef] = &[
    e2e("verdict_ms.p50", "ms", Lower, 0.25),
    e2e("events_per_s", "msg/s", Higher, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
];

/// From the traced run (`--trace 1`); every workload reports every one.
pub const PER_LAYER: &[MetricDef] = &[
    layer("instrument.write_ns.p50", "ns", Lower),
    layer("instrument.write_ns.p99", "ns", Lower),
    layer("instrument.irrelevant_ns.p50", "ns", Lower),
    layer("instrument.emit_ns.p50", "ns", Lower),
    layer("instrument.emit_ns.p99", "ns", Lower),
    layer("instrument.emit_share", "ratio", Lower),
    layer("instrument.msgs_per_access", "ratio", Lower),
    layer("core.process_ns", "ns", Lower),
    layer("core.process_ns.t2", "ns", Lower),
    layer("core.process_ns.t8", "ns", Lower),
    layer("core.process_ns.t32", "ns", Lower),
    layer("core.process_ns.t64", "ns", Lower),
    layer("codec.encode_ns_per_frame", "ns", Lower),
    layer("codec.decode_ns_per_frame", "ns", Lower),
    layer("codec.bytes_per_msg", "bytes", Lower),
    layer("reassemble.ns_per_msg", "ns", Lower),
    layer("lattice.ltl_ms", "ms", Lower),
    layer("lattice.states", "count", Lower),
    layer("lattice.levels", "count", Lower),
    layer("lattice.peak_frontier", "count", Lower),
    layer("lattice.states_per_s", "states/s", Higher),
    layer("lattice.non_writes_skipped", "count", Lower),
    layer("spec.formula_evals", "count", Lower),
    layer("spec.eval_cache_hits", "count", Higher),
    layer("spec.compile_us", "us", Lower),
    layer("analyses.race_ms", "ms", Lower),
    layer("analyses.atomicity_ms", "ms", Lower),
    layer("pipeline.suite_ms", "ms", Lower),
    layer("pipeline.sharing_gain", "ratio", Higher),
    layer("serve.connect_us", "us", Lower),
    layer("serve.upload_us", "us", Lower),
    layer("serve.wait_ms", "ms", Lower),
    layer("serve.overhead_ms", "ms", Lower),
    layer("unaccounted_share", "ratio", Lower),
    layer("trace.overhead_pct", "pct", Lower),
];

/// Printed and written to `--out`, and judged by `compare`, but not part
/// of the result line: metrics only some workloads have, and the tail
/// latency and peak memory, whose spread over ten seeds on the reference
/// host (0.27 and up to 0.23 on wide-lattice) exceeds any bound worth
/// gating on.
pub const EXTRAS: &[MetricDef] = &[
    layer("verdict_ms.p90", "ms", Lower),
    layer("peak_rss_mb", "MB", Lower),
    layer("sessions", "count", Higher),
    layer("slowdown", "x", Lower),
    layer("program_ms.p50", "ms", Lower),
    layer("control_ms.p50", "ms", Lower),
    layer("session_ms.p50", "ms", Lower),
    layer("verdict_ms.p99", "ms", Lower),
    layer("max_ok_rate", "sessions/s", Higher),
    layer("loadgen.late_ms.p99", "ms", Lower),
    layer("loadgen.backlog_max", "count", Lower),
    layer("failed_share", "ratio", Lower),
];

pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .chain(EXTRAS)
        .find(|m| m.name == name)
}

/// What one workload run measured.
#[derive(Clone, Debug, Default)]
pub struct Report {
    pub workload: String,
    pub trace: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Why the run is not correct, when it is not (first few reasons).
    pub problems: Vec<String>,
    /// FNV-1a of every input's session bytes, in hex.
    pub input_digest: String,
    pub values: BTreeMap<String, f64>,
}

impl Report {
    pub fn new(workload: &str, trace: bool) -> Self {
        Self {
            workload: workload.to_string(),
            trace,
            ..Self::default()
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        debug_assert!(find(name).is_some(), "unknown metric {name}");
        self.values.insert(name.to_string(), value);
    }

    pub fn problem(&mut self, what: String) {
        if self.problems.len() < 8 {
            self.problems.push(what);
        }
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    /// The metrics the result line must carry in this mode.
    pub fn required(&self) -> &'static [MetricDef] {
        if self.trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// `workload metric value unit` lines, required metrics first.
    pub fn lines(&self) -> Vec<String> {
        let mut out = Vec::new();
        for def in self.required().iter().chain(EXTRAS) {
            if let Some(v) = self.values.get(def.name) {
                out.push(format!(
                    "{} {} {} {}",
                    self.workload,
                    def.name,
                    fmt(*v),
                    def.unit
                ));
            }
        }
        out.push(format!(
            "{} input_digest {} fnv64",
            self.workload, self.input_digest
        ));
        for p in &self.problems {
            out.push(format!("{} problem {p}", self.workload));
        }
        out
    }

    /// The full report, extras included (`--out`, `compare`, `calibrate`).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"workload\":");
        json::write_string(&mut out, &self.workload);
        let _ = write!(
            out,
            ",\"trace\":{},\"correct\":{},\"attempted\":{},\"failed\":{}",
            self.trace,
            self.correct(),
            self.attempted,
            self.failed
        );
        out.push_str(",\"input_digest\":");
        json::write_string(&mut out, &self.input_digest);
        out.push_str(",\"problems\":[");
        for (i, p) in self.problems.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_string(&mut out, p);
        }
        out.push_str("],\"metrics\":");
        out.push_str(&self.metrics_json(self.values.keys().map(String::as_str)));
        out.push('}');
        out
    }

    /// The last line of standard output: exactly `correct`, `attempted`,
    /// `failed` and `metrics`, the metrics being the required set.
    pub fn result_line(&self) -> String {
        let names = self.required().iter().map(|d| d.name);
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            self.metrics_json(names)
        )
    }

    fn metrics_json<'a>(&self, names: impl Iterator<Item = &'a str>) -> String {
        let mut out = String::from("{");
        let mut first = true;
        for name in names {
            let Some(v) = self.values.get(name) else {
                continue;
            };
            let unit = find(name).map_or("", |d| d.unit);
            if !first {
                out.push(',');
            }
            first = false;
            json::write_string(&mut out, name);
            let _ = write!(out, ":{{\"value\":{},\"unit\":", fmt(*v));
            json::write_string(&mut out, unit);
            out.push('}');
        }
        out.push('}');
        out
    }

    /// Reads back a report written by [`Report::to_json`].
    pub fn from_json(value: &json::Value) -> Result<Self, String> {
        let workload = value
            .get("workload")
            .and_then(json::Value::as_str)
            .ok_or("report without a workload")?;
        let mut report = Report::new(
            workload,
            value.get("trace").and_then(json::Value::as_bool) == Some(true),
        );
        report.attempted = value
            .get("attempted")
            .and_then(json::Value::as_u64)
            .unwrap_or(0);
        report.failed = value
            .get("failed")
            .and_then(json::Value::as_u64)
            .unwrap_or(0);
        report.input_digest = value
            .get("input_digest")
            .and_then(json::Value::as_str)
            .unwrap_or("")
            .to_string();
        for p in value
            .get("problems")
            .and_then(json::Value::as_array)
            .into_iter()
            .flatten()
        {
            report.problem(p.as_str().unwrap_or("?").to_string());
        }
        let metrics = value
            .get("metrics")
            .and_then(json::Value::as_object)
            .ok_or("report without metrics")?;
        for (name, m) in metrics {
            let v = m
                .get("value")
                .and_then(json::Value::as_f64)
                .ok_or_else(|| format!("metric {name} without a value"))?;
            report.values.insert(name.clone(), v);
        }
        Ok(report)
    }
}

/// A finite number with all its digits; JSON has no NaN or infinity.
pub fn fmt(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let all: Vec<&MetricDef> = END_TO_END.iter().chain(PER_LAYER).chain(EXTRAS).collect();
        for (i, m) in all.iter().enumerate() {
            assert!(
                all[i + 1..].iter().all(|o| o.name != m.name),
                "duplicate {}",
                m.name
            );
            assert!(m.name.len() <= 64 && m.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(
                m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn report_round_trips_through_json() {
        let mut r = Report::new("w", false);
        r.attempted = 3;
        r.set("verdict_ms.p50", 1.25);
        r.set("slowdown", 2.0);
        let back = Report::from_json(&json::parse(&r.to_json()).unwrap()).unwrap();
        assert_eq!(back.values, r.values);
        assert_eq!(back.attempted, 3);
        let line = json::parse(&r.result_line()).unwrap();
        let metrics = line.get("metrics").unwrap().as_object().unwrap();
        assert_eq!(metrics.len(), 1, "extras stay out of the result line");
    }
}
