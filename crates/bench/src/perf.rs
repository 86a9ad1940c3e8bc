//! Continuous performance observability: the stable [`BenchReport`] JSON
//! schema, the measurement runner behind `jmpax bench`, and the baseline
//! comparison that gates CI.
//!
//! A report is a versioned, machine-checked artifact: `jmpax bench --json`
//! (or `harness baseline` for a sweep) emits one, the first is committed
//! as `BENCH_baseline.json`, and `jmpax bench --baseline <file>
//! --tolerance <pct>` re-measures and fails on regression. The schema id
//! (`jmpax-bench-report/v1`) is embedded so readers can reject reports
//! they do not understand.
//!
//! Noise discipline: every run records the **minimum** wall time over
//! `repeat` repeats (the minimum is the least noisy location statistic for
//! wall clocks), comparisons gate only on wall time (stage histograms are
//! informational), and parallel runs are not gated when the baseline was
//! recorded on a host with a different core count.

use std::time::Instant;

use bytes::BytesMut;
use jmpax_instrument::{encode_frame_v2, ResilientFrameDecoder};
use jmpax_lattice::{Reassembler, StreamingAnalyzer};
use jmpax_telemetry::json::{self, Value};
use jmpax_telemetry::{MetricValue, Registry, Snapshot};

use crate::generators::{banded_computation_telemetered, BandedConfig};

/// Schema identifier embedded in (and required of) every report.
pub const SCHEMA: &str = "jmpax-bench-report/v1";

/// The machine a report was measured on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HostInfo {
    /// `std::env::consts::OS`, e.g. `"linux"`.
    pub os: String,
    /// `std::env::consts::ARCH`, e.g. `"x86_64"`.
    pub arch: String,
    /// Available parallelism (1 when undetectable).
    pub cores: usize,
}

impl HostInfo {
    /// Probes the current machine.
    #[must_use]
    pub fn current() -> Self {
        Self {
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
            cores: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        }
    }
}

/// Workload parameters of one measured run (a [`BandedConfig`] by value,
/// kept separate so the report schema is self-contained).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Workload {
    /// Number of threads in the banded computation.
    pub threads: usize,
    /// Rounds of private writes.
    pub rounds: usize,
    /// Barrier period (`0` = pure hypercube).
    pub period: usize,
}

impl From<BandedConfig> for Workload {
    fn from(c: BandedConfig) -> Self {
        Self {
            threads: c.threads,
            rounds: c.rounds,
            period: c.period,
        }
    }
}

impl From<Workload> for BandedConfig {
    fn from(w: Workload) -> Self {
        Self {
            threads: w.threads,
            rounds: w.rounds,
            period: w.period,
        }
    }
}

/// One per-stage latency profile: a named `*_ns` histogram reduced to its
/// aggregates and estimated percentiles.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StageStat {
    /// Registry metric name, e.g. `lattice.stage.expand_ns`.
    pub name: String,
    /// Samples recorded.
    pub count: u64,
    /// Total nanoseconds across samples.
    pub sum_ns: u64,
    /// Estimated median latency.
    pub p50_ns: u64,
    /// Estimated 95th-percentile latency.
    pub p95_ns: u64,
    /// Estimated 99th-percentile latency.
    pub p99_ns: u64,
}

/// One measured configuration: a workload analyzed with a worker count.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchRun {
    /// Workload parameters.
    pub workload: Workload,
    /// Frontier-expansion workers the analyzer was configured with.
    pub workers: usize,
    /// Messages fed through the observer pipeline.
    pub events: u64,
    /// Lattice nodes explored.
    pub states: u64,
    /// Lattice levels built.
    pub levels: u64,
    /// Peak frontier width.
    pub peak_frontier: u64,
    /// Violations found (0 for the bench invariant).
    pub violations: u64,
    /// True when the report is bit-identical to the run's 1-worker
    /// baseline (always true for the baseline itself).
    pub identical: bool,
    /// Minimum wall time over the repeats, decode → verdict, nanoseconds.
    pub wall_ns: u64,
    /// Events per second at `wall_ns`.
    pub events_per_sec: f64,
    /// Lattice nodes per second at `wall_ns`.
    pub nodes_per_sec: f64,
    /// Full property evaluations per repeat (`spec.formula_evals`): monitor
    /// runs that actually walked the formula DAG. Step-cache hits do not
    /// count, so this is the number the interning layer exists to shrink.
    pub formula_evals: u64,
    /// Step-cache hits per repeat (`spec.eval_cache_hits`): monitor steps
    /// answered by the per-level `(state, valuation)` memo table.
    pub eval_cache_hits: u64,
    /// Chunks stolen per repeat beyond the fair share
    /// (`lattice.parallel.steals`); always 0 for sequential runs.
    pub steals: u64,
    /// Per-stage latency profiles (every `*_ns` histogram with samples).
    pub stages: Vec<StageStat>,
}

/// A versioned performance report: host, measurement parameters, runs.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchReport {
    /// Always [`SCHEMA`] when produced by this module.
    pub schema: String,
    /// Machine the report was measured on.
    pub host: HostInfo,
    /// Repeats per run (minimum wall time is kept).
    pub repeat: usize,
    /// All measured runs.
    pub runs: Vec<BenchRun>,
}

/// Measures one banded workload at each worker count, `repeat` times each,
/// keeping the minimum wall time. Every repeat drives the full observer
/// path — v2 frame decode, causal reassembly, streaming lattice analysis —
/// against a telemetry registry, so the report's [`StageStat`]s carry the
/// decode / reassemble / Algorithm A / expand / seal / eval latency
/// profile of the ISSUE's stage list.
#[must_use]
pub fn measure(config: BandedConfig, worker_counts: &[usize], repeat: usize) -> BenchReport {
    measure_with_options(config, worker_counts, repeat, true)
}

/// [`measure`] with the monitor-state step cache explicitly enabled or
/// disabled. `eval_cache = false` reproduces the pre-interning evaluation
/// count (`formula_evals` with zero `eval_cache_hits`), which is what the
/// CI perf gate compares against.
#[must_use]
pub fn measure_with_options(
    config: BandedConfig,
    worker_counts: &[usize],
    repeat: usize,
    eval_cache: bool,
) -> BenchReport {
    let repeat = repeat.max(1);
    let mut runs = Vec::new();
    let mut baseline: Option<(u64, u64, u64, u64)> = None;
    for &workers in worker_counts {
        let registry = Registry::enabled();
        // Generation (Algorithm A) populates `core.event_update_ns`.
        let (messages, initial) = banded_computation_telemetered(config, &registry);
        let events = messages.len() as u64;
        let mut frames = BytesMut::new();
        for m in &messages {
            encode_frame_v2(m, &mut frames);
        }
        let frames = frames.freeze();

        let mut syms = jmpax_core::SymbolTable::new();
        for v in 0..=config.threads {
            syms.intern(&format!("v{v}"));
        }
        let monitor = jmpax_spec::parse("[*] v0 >= 0", &mut syms)
            .expect("static spec parses")
            .monitor()
            .expect("static spec monitors")
            .with_telemetry(&registry);

        let mut wall_ns = u64::MAX;
        let mut last = None;
        for _ in 0..repeat {
            let start = Instant::now();
            let decode_span = registry.histogram("observer.stage.decode_ns").start_span();
            // The daemon's socket read size: 8 KiB chunks.
            let mut decoder = ResilientFrameDecoder::new();
            let mut decoded = Vec::with_capacity(messages.len());
            for chunk in frames.chunks(8192) {
                decoded.extend(decoder.push(chunk));
            }
            decode_span.finish();
            let reassemble_span = registry
                .histogram("observer.stage.reassemble_ns")
                .start_span();
            let mut reassembler = Reassembler::new();
            reassembler.push_all(decoded);
            let (ordered, _reassembly) = reassembler.finish();
            reassemble_span.finish();
            let mut analyzer =
                StreamingAnalyzer::with_telemetry(monitor.clone(), &initial, config.threads, &registry)
                    .with_parallelism(workers)
                    .with_eval_cache(eval_cache);
            analyzer.push_all(ordered);
            let report = analyzer.finish();
            let elapsed = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            wall_ns = wall_ns.min(elapsed);
            last = Some(report);
        }
        let report = last.expect("repeat >= 1");
        let shape = (
            report.states_explored,
            u64::from(report.levels_built),
            report.peak_frontier as u64,
            report.violations.len() as u64,
        );
        let identical = match &baseline {
            None => {
                baseline = Some(shape);
                true
            }
            Some(base) => *base == shape,
        };
        let wall_s = wall_ns.max(1) as f64 / 1e9;
        // Counters accumulate across the repeat loop over one registry;
        // normalizing by `repeat` reports the deterministic per-run count.
        let snapshot = registry.snapshot();
        let per_repeat = |name: &str| counter_value(&snapshot, name) / repeat as u64;
        runs.push(BenchRun {
            workload: config.into(),
            workers,
            events,
            states: shape.0,
            levels: shape.1,
            peak_frontier: shape.2,
            violations: shape.3,
            identical,
            wall_ns,
            events_per_sec: events as f64 / wall_s,
            nodes_per_sec: shape.0 as f64 / wall_s,
            formula_evals: per_repeat("spec.formula_evals"),
            eval_cache_hits: per_repeat("spec.eval_cache_hits"),
            steals: per_repeat("lattice.parallel.steals"),
            stages: stage_stats(&snapshot),
        });
    }
    BenchReport {
        schema: SCHEMA.to_string(),
        host: HostInfo::current(),
        repeat,
        runs,
    }
}

/// The value of a named counter in `snapshot` (0 when absent or not a
/// counter). Label-free lookup: the bench registry records base metrics.
#[must_use]
pub fn counter_value(snapshot: &Snapshot, name: &str) -> u64 {
    snapshot
        .entries
        .iter()
        .find(|e| e.name == name)
        .and_then(|e| match e.value {
            MetricValue::Counter(v) => Some(v),
            _ => None,
        })
        .unwrap_or(0)
}

/// Reduces every sampled `*_ns` histogram in `snapshot` to a [`StageStat`].
#[must_use]
pub fn stage_stats(snapshot: &Snapshot) -> Vec<StageStat> {
    snapshot
        .entries
        .iter()
        .filter(|e| e.name.ends_with("_ns"))
        .filter_map(|e| match &e.value {
            MetricValue::Histogram { count, sum, .. } if *count > 0 => Some(StageStat {
                name: e.name.clone(),
                count: *count,
                sum_ns: *sum,
                p50_ns: e.value.quantile(0.50).unwrap_or(0),
                p95_ns: e.value.quantile(0.95).unwrap_or(0),
                p99_ns: e.value.quantile(0.99).unwrap_or(0),
            }),
            _ => None,
        })
        .collect()
}

impl BenchReport {
    /// Serializes to the schema-stable JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{\"schema\":");
        json::write_string(&mut out, &self.schema);
        out.push_str(",\"host\":{\"os\":");
        json::write_string(&mut out, &self.host.os);
        out.push_str(",\"arch\":");
        json::write_string(&mut out, &self.host.arch);
        let _ = write!(out, ",\"cores\":{}}}", self.host.cores);
        let _ = write!(out, ",\"repeat\":{},\"runs\":[", self.repeat);
        for (i, run) in self.runs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let w = &run.workload;
            let _ = write!(
                out,
                "{{\"workload\":{{\"threads\":{},\"rounds\":{},\"period\":{}}},\
                 \"workers\":{},\"events\":{},\"states\":{},\"levels\":{},\
                 \"peak_frontier\":{},\"violations\":{},\"identical\":{},\
                 \"wall_ns\":{},\"events_per_sec\":{:.3},\"nodes_per_sec\":{:.3},\
                 \"formula_evals\":{},\"eval_cache_hits\":{},\"steals\":{},\
                 \"stages\":[",
                w.threads,
                w.rounds,
                w.period,
                run.workers,
                run.events,
                run.states,
                run.levels,
                run.peak_frontier,
                run.violations,
                run.identical,
                run.wall_ns,
                run.events_per_sec,
                run.nodes_per_sec,
                run.formula_evals,
                run.eval_cache_hits,
                run.steals,
            );
            for (j, s) in run.stages.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str("{\"name\":");
                json::write_string(&mut out, &s.name);
                let _ = write!(
                    out,
                    ",\"count\":{},\"sum_ns\":{},\"p50_ns\":{},\"p95_ns\":{},\"p99_ns\":{}}}",
                    s.count, s.sum_ns, s.p50_ns, s.p95_ns, s.p99_ns
                );
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }

    /// Parses a report, validating the schema id and every required field.
    ///
    /// # Errors
    /// [`SchemaError`] naming the first missing/mistyped field, or the
    /// underlying JSON syntax error.
    pub fn from_json(text: &str) -> Result<Self, SchemaError> {
        let doc = json::parse(text).map_err(|e| SchemaError(e.to_string()))?;
        let schema = req_str(&doc, "schema")?;
        if schema != SCHEMA {
            return Err(SchemaError(format!(
                "unsupported schema {schema:?} (expected {SCHEMA:?})"
            )));
        }
        let host = doc
            .get("host")
            .ok_or_else(|| SchemaError("missing field \"host\"".into()))?;
        let host = HostInfo {
            os: req_str(host, "os")?.to_string(),
            arch: req_str(host, "arch")?.to_string(),
            cores: req_usize(host, "cores")?,
        };
        let repeat = req_usize(&doc, "repeat")?;
        let runs_value = doc
            .get("runs")
            .and_then(Value::as_array)
            .ok_or_else(|| SchemaError("missing array \"runs\"".into()))?;
        let mut runs = Vec::with_capacity(runs_value.len());
        for (i, r) in runs_value.iter().enumerate() {
            runs.push(parse_run(r).map_err(|e| SchemaError(format!("runs[{i}]: {}", e.0)))?);
        }
        Ok(Self {
            schema: schema.to_string(),
            host,
            repeat,
            runs,
        })
    }
}

fn parse_run(r: &Value) -> Result<BenchRun, SchemaError> {
    let w = r
        .get("workload")
        .ok_or_else(|| SchemaError("missing field \"workload\"".into()))?;
    let stages_value = r
        .get("stages")
        .and_then(Value::as_array)
        .ok_or_else(|| SchemaError("missing array \"stages\"".into()))?;
    let mut stages = Vec::with_capacity(stages_value.len());
    for s in stages_value {
        stages.push(StageStat {
            name: req_str(s, "name")?.to_string(),
            count: req_u64(s, "count")?,
            sum_ns: req_u64(s, "sum_ns")?,
            p50_ns: req_u64(s, "p50_ns")?,
            p95_ns: req_u64(s, "p95_ns")?,
            p99_ns: req_u64(s, "p99_ns")?,
        });
    }
    Ok(BenchRun {
        workload: Workload {
            threads: req_usize(w, "threads")?,
            rounds: req_usize(w, "rounds")?,
            period: req_usize(w, "period")?,
        },
        workers: req_usize(r, "workers")?,
        events: req_u64(r, "events")?,
        states: req_u64(r, "states")?,
        levels: req_u64(r, "levels")?,
        peak_frontier: req_u64(r, "peak_frontier")?,
        violations: req_u64(r, "violations")?,
        identical: r
            .get("identical")
            .and_then(Value::as_bool)
            .ok_or_else(|| SchemaError("missing bool \"identical\"".into()))?,
        wall_ns: req_u64(r, "wall_ns")?,
        events_per_sec: req_f64(r, "events_per_sec")?,
        nodes_per_sec: req_f64(r, "nodes_per_sec")?,
        // Additive v1 fields: absent in reports recorded before the
        // interning/work-stealing work, so they default to 0 on parse.
        formula_evals: opt_u64(r, "formula_evals"),
        eval_cache_hits: opt_u64(r, "eval_cache_hits"),
        steals: opt_u64(r, "steals"),
        stages,
    })
}

/// A report failed schema validation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SchemaError(pub String);

impl std::fmt::Display for SchemaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bench report schema error: {}", self.0)
    }
}

impl std::error::Error for SchemaError {}

fn opt_u64(v: &Value, key: &str) -> u64 {
    v.get(key).and_then(Value::as_u64).unwrap_or(0)
}

fn req_u64(v: &Value, key: &str) -> Result<u64, SchemaError> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| SchemaError(format!("missing integer \"{key}\"")))
}

fn req_usize(v: &Value, key: &str) -> Result<usize, SchemaError> {
    req_u64(v, key).map(|n| usize::try_from(n).unwrap_or(usize::MAX))
}

fn req_f64(v: &Value, key: &str) -> Result<f64, SchemaError> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| SchemaError(format!("missing number \"{key}\"")))
}

fn req_str<'a>(v: &'a Value, key: &str) -> Result<&'a str, SchemaError> {
    v.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| SchemaError(format!("missing string \"{key}\"")))
}

/// One row of a baseline comparison.
#[derive(Clone, Debug, PartialEq)]
pub struct RunDelta {
    /// Workload of the matched runs.
    pub workload: Workload,
    /// Worker count of the matched runs.
    pub workers: usize,
    /// Baseline minimum wall time.
    pub baseline_wall_ns: u64,
    /// Current minimum wall time.
    pub current_wall_ns: u64,
    /// `current / baseline` (`>1` = slower than baseline).
    pub ratio: f64,
    /// False when the row is informational only — parallel runs are not
    /// gated across hosts with different core counts.
    pub gated: bool,
    /// True when gated and the ratio exceeded the tolerance.
    pub regressed: bool,
}

/// Outcome of comparing a fresh report against a committed baseline.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Comparison {
    /// One row per current run with a matching baseline run.
    pub deltas: Vec<RunDelta>,
    /// Current runs with no `(workload, workers)` match in the baseline.
    pub missing_in_baseline: usize,
    /// Rows exempted from gating by the core-count mismatch rule.
    pub skipped_core_mismatch: usize,
}

impl Comparison {
    /// Number of gated rows that exceeded the tolerance.
    #[must_use]
    pub fn regressions(&self) -> usize {
        self.deltas.iter().filter(|d| d.regressed).count()
    }
}

/// Compares `current` against `baseline`: a gated row regresses when its
/// minimum wall time exceeds the baseline's by more than `tolerance_pct`
/// percent. Runs are matched by `(workload, workers)`. Stage timings are
/// deliberately not gated — per-stage sums are far noisier than the
/// end-to-end minimum. Single-core-host awareness: when the two reports
/// disagree on the host core count, rows with `workers > 1` are reported
/// but exempt from gating, because parallel speedups do not transfer
/// between hosts of different widths.
#[must_use]
pub fn compare(current: &BenchReport, baseline: &BenchReport, tolerance_pct: f64) -> Comparison {
    let limit = 1.0 + tolerance_pct.max(0.0) / 100.0;
    let cores_match = current.host.cores == baseline.host.cores;
    let mut out = Comparison::default();
    for run in &current.runs {
        let Some(base) = baseline
            .runs
            .iter()
            .find(|b| b.workload == run.workload && b.workers == run.workers)
        else {
            out.missing_in_baseline += 1;
            continue;
        };
        let ratio = run.wall_ns as f64 / base.wall_ns.max(1) as f64;
        let gated = cores_match || run.workers == 1;
        if !gated {
            out.skipped_core_mismatch += 1;
        }
        out.deltas.push(RunDelta {
            workload: run.workload,
            workers: run.workers,
            baseline_wall_ns: base.wall_ns,
            current_wall_ns: run.wall_ns,
            ratio,
            gated,
            regressed: gated && ratio > limit,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> BenchReport {
        BenchReport {
            schema: SCHEMA.to_string(),
            host: HostInfo {
                os: "linux".into(),
                arch: "x86_64".into(),
                cores: 4,
            },
            repeat: 3,
            runs: vec![BenchRun {
                workload: Workload {
                    threads: 8,
                    rounds: 3,
                    period: 0,
                },
                workers: 1,
                events: 24,
                states: 6561,
                levels: 24,
                peak_frontier: 1107,
                violations: 0,
                identical: true,
                wall_ns: 1_000_000,
                events_per_sec: 24000.0,
                nodes_per_sec: 6561000.0,
                formula_evals: 120_000,
                eval_cache_hits: 80_000,
                steals: 0,
                stages: vec![StageStat {
                    name: "lattice.stage.expand_ns".into(),
                    count: 24,
                    sum_ns: 900_000,
                    p50_ns: 30_000,
                    p95_ns: 80_000,
                    p99_ns: 95_000,
                }],
            }],
        }
    }

    #[test]
    fn json_round_trip_preserves_every_field() {
        let report = sample_report();
        let text = report.to_json();
        let parsed = BenchReport::from_json(&text).expect("round trip parses");
        assert_eq!(parsed, report);
        // Serialization is idempotent after one parse.
        assert_eq!(parsed.to_json(), text);
    }

    #[test]
    fn from_json_rejects_malformed_documents() {
        assert!(BenchReport::from_json("not json").is_err());
        assert!(BenchReport::from_json("{}").is_err());
        assert!(
            BenchReport::from_json("{\"schema\":\"other/v9\"}")
                .unwrap_err()
                .0
                .contains("unsupported schema")
        );
        // A structurally-valid document missing a run field.
        let mut report = sample_report().to_json();
        report = report.replace("\"wall_ns\"", "\"wrong_ns\"");
        let err = BenchReport::from_json(&report).unwrap_err();
        assert!(err.0.contains("wall_ns"), "{err}");
    }

    #[test]
    fn measured_reports_parse_and_carry_stage_percentiles() {
        let report = measure(
            BandedConfig {
                threads: 4,
                rounds: 3,
                period: 0,
            },
            &[1, 2],
            2,
        );
        assert_eq!(report.runs.len(), 2);
        assert!(report.runs.iter().all(|r| r.identical), "{report:?}");
        assert!(report.runs.iter().all(|r| r.wall_ns > 0));
        let round_trip = BenchReport::from_json(&report.to_json()).unwrap();
        assert_eq!(round_trip.runs.len(), 2);
        // The stage list must include the full decode → eval profile.
        let names: Vec<&str> = report.runs[0]
            .stages
            .iter()
            .map(|s| s.name.as_str())
            .collect();
        for stage in [
            "core.event_update_ns",
            "observer.stage.decode_ns",
            "observer.stage.reassemble_ns",
            "lattice.stage.expand_ns",
            "lattice.stage.seal_ns",
            "spec.stage.eval_ns",
        ] {
            assert!(names.contains(&stage), "missing {stage} in {names:?}");
        }
        assert!(report.runs[0]
            .stages
            .iter()
            .all(|s| s.p50_ns <= s.p95_ns && s.p95_ns <= s.p99_ns));
    }

    #[test]
    fn compare_flags_regressions_and_respects_tolerance() {
        let baseline = sample_report();
        let mut current = sample_report();
        // 10% slower: inside a 25% tolerance, outside a 5% one.
        current.runs[0].wall_ns = 1_100_000;
        let ok = compare(&current, &baseline, 25.0);
        assert_eq!(ok.regressions(), 0);
        assert_eq!(ok.deltas.len(), 1);
        assert!(ok.deltas[0].gated);
        let bad = compare(&current, &baseline, 5.0);
        assert_eq!(bad.regressions(), 1);
        // A halved-timings baseline reads as a 2x regression at 25%.
        let mut halved = sample_report();
        halved.runs[0].wall_ns = 500_000;
        assert_eq!(compare(&baseline, &halved, 25.0).regressions(), 1);
    }

    #[test]
    fn compare_skips_parallel_rows_across_core_counts() {
        let mut baseline = sample_report();
        baseline.runs[0].workers = 2;
        let mut current = baseline.clone();
        current.host.cores = 1;
        current.runs[0].wall_ns = 10_000_000; // 10x slower, but workers=2
        let cmp = compare(&current, &baseline, 25.0);
        assert_eq!(cmp.regressions(), 0);
        assert_eq!(cmp.skipped_core_mismatch, 1);
        assert!(!cmp.deltas[0].gated);
        // The sequential row still gates across hosts.
        current.runs[0].workers = 1;
        baseline.runs[0].workers = 1;
        let cmp = compare(&current, &baseline, 25.0);
        assert_eq!(cmp.regressions(), 1);
    }

    #[test]
    fn compare_counts_unmatched_runs() {
        let baseline = sample_report();
        let mut current = sample_report();
        current.runs[0].workload.threads = 99;
        let cmp = compare(&current, &baseline, 25.0);
        assert!(cmp.deltas.is_empty());
        assert_eq!(cmp.missing_in_baseline, 1);
        assert_eq!(cmp.regressions(), 0);
    }
}
