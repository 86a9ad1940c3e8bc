//! End-to-end telemetry tests: the CLI's `--telemetry json` report parses
//! and carries the documented metric names, and the streaming analyzer's
//! live gauges agree with its final [`StreamReport`].

use jmpax_cli::args::Args;
use jmpax_cli::commands;
use jmpax_core::{AnalysisKind, Message, Relevance};
use jmpax_lattice::{Exactness, StreamReport, SuiteBuilder};
use jmpax_spec::{parse, Monitor, ProgramState};
use jmpax_telemetry::{json, Registry};
use jmpax_workloads as workloads;

/// The ptLTL report of an LTL-only suite reporting live into `registry`.
fn stream(
    monitor: Monitor,
    initial: &ProgramState,
    threads: usize,
    registry: &Registry,
    messages: Vec<Message>,
) -> StreamReport {
    let mut suite = SuiteBuilder::new(&[AnalysisKind::Ltl], threads)
        .telemetry(registry)
        .build(Some((monitor, initial)));
    suite.push_all(messages);
    suite.finish(Exactness::Exact).into_ltl()
}

fn run_cli(argv: &[&str], trace: Option<&str>) -> commands::RunOutput {
    let args = Args::parse(argv.iter().map(ToString::to_string));
    commands::run_with_telemetry(&args, trace)
}

/// `check --telemetry json` on a generated bank trace emits one JSON
/// object that round-trips through the crate's own parser and names
/// metrics from every pipeline layer.
#[test]
fn cli_json_report_round_trips_and_spans_all_layers() {
    let gen = run_cli(&["gen", "bank"], None);
    assert_eq!(gen.code, 0);
    let w = workloads::bank::workload(false);
    let out = run_cli(
        &["check", "--spec", &w.spec, "--telemetry", "json"],
        Some(&gen.output),
    );
    let report = out.telemetry.expect("--telemetry json must yield a report");
    let value = json::parse(&report).expect("telemetry report must be valid JSON");
    let metrics = value
        .get("metrics")
        .and_then(json::Value::as_object)
        .expect("report must be {\"metrics\": {...}}");
    assert!(
        metrics.len() >= 10,
        "expected >= 10 metrics, got {}: {:?}",
        metrics.len(),
        metrics.keys().collect::<Vec<_>>()
    );
    for name in [
        "instrument.frames_encoded",
        "instrument.bytes_encoded",
        "core.events_processed",
        "core.messages_emitted",
        "core.mvc_joins",
        "core.event_update_ns",
        "lattice.states_explored",
        "lattice.levels_built",
        "lattice.peak_frontier",
        "observer.stage.instrument_ns",
        "observer.stage.jpax_ns",
        "observer.stage.analysis_ns",
        "spec.formula_evals",
    ] {
        assert!(metrics.contains_key(name), "missing metric `{name}`");
    }
}

/// Every analysis selection runs through the pipeline's stages, so a
/// race-only check times its instrumentation and analysis too; only the
/// JPaX observed-run check is left out without ltl.
#[test]
fn stage_timings_cover_every_selection() {
    let gen = run_cli(&["gen", "racy"], None);
    assert_eq!(gen.code, 0);
    let out = run_cli(
        &["check", "--analysis", "race", "--telemetry", "json"],
        Some(&gen.output),
    );
    assert_eq!(out.code, 1, "{}", out.output);
    let report = out.telemetry.expect("--telemetry json must yield a report");
    let value = json::parse(&report).expect("telemetry report must be valid JSON");
    let count = |name: &str| {
        value
            .get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|h| h.get("count"))
            .and_then(json::Value::as_u64)
            .unwrap_or_else(|| panic!("missing histogram `{name}`: {report}"))
    };
    assert!(count("observer.stage.instrument_ns") >= 1, "{report}");
    assert!(count("observer.stage.analysis_ns") >= 1, "{report}");
    assert_eq!(count("observer.stage.jpax_ns"), 0, "{report}");
}

/// Text mode renders one aligned line per metric; no flag means no report.
#[test]
fn cli_text_mode_and_disabled_default() {
    let gen = run_cli(&["gen", "xyz"], None);
    let out = run_cli(
        &["check", "--spec", "x >= -1", "--telemetry", "text"],
        Some(&gen.output),
    );
    let report = out.telemetry.expect("text report");
    assert!(report.contains("core.events_processed"), "{report}");
    assert!(report.lines().count() >= 10, "{report}");

    let out = run_cli(&["check", "--spec", "x >= -1"], Some(&gen.output));
    assert!(out.telemetry.is_none());

    let out = run_cli(
        &["check", "--spec", "x >= -1", "--telemetry", "xml"],
        Some(&gen.output),
    );
    assert_eq!(out.code, 2);
    assert!(
        out.output.contains("unknown --telemetry mode"),
        "{}",
        out.output
    );
}

/// The streaming analyzer's live telemetry agrees with the numbers in its
/// own final report, on the bank and dining workloads.
#[test]
fn streaming_telemetry_agrees_with_report_on_bank_and_dining() {
    for (name, w) in [
        ("bank", workloads::bank::workload(false)),
        ("dining", workloads::dining::workload(3, false)),
    ] {
        let run = jmpax_sched::run_random(&w.program, 7, 2000);
        let mut symbols = w.symbols.clone();
        let formula = parse(&w.spec, &mut symbols).unwrap();
        let monitor = formula.monitor().unwrap();
        let relevance = Relevance::WritesOf(formula.variables().into_iter().collect());
        let messages = run.execution.instrument(relevance);
        let initial = ProgramState::from_map(run.execution.initial.clone());

        let registry = Registry::enabled();
        let threads = run.execution.thread_count();
        let report = stream(monitor, &initial, threads, &registry, messages);

        let snap = registry.snapshot();
        let (_, peak) = snap.gauge("lattice.peak_frontier").unwrap();
        assert_eq!(peak, report.peak_frontier as u64, "workload {name}");
        assert_eq!(
            snap.counter("lattice.levels_built").unwrap(),
            u64::from(report.levels_built),
            "workload {name}"
        );
        assert_eq!(
            snap.counter("lattice.states_explored").unwrap(),
            report.states_explored,
            "workload {name}"
        );
    }
}

/// `StreamReport::record` publishes the same numbers a live-telemetered
/// run reports (peak gauge aside, which record() can only set once).
#[test]
fn stream_report_record_matches_live_wiring() {
    let w = workloads::bank::workload(false);
    let run = jmpax_sched::run_random(&w.program, 3, 2000);
    let mut symbols = w.symbols.clone();
    let formula = parse(&w.spec, &mut symbols).unwrap();
    let monitor = formula.monitor().unwrap();
    let relevance = Relevance::WritesOf(formula.variables().into_iter().collect());
    let messages = run.execution.instrument(relevance);
    let initial = ProgramState::from_map(run.execution.initial.clone());

    let live = Registry::enabled();
    let threads = run.execution.thread_count();
    let report = stream(monitor.clone(), &initial, threads, &live, messages.clone());

    let offline = Registry::enabled();
    report.record(&offline);

    let a = live.snapshot();
    let b = offline.snapshot();
    for name in [
        "lattice.states_explored",
        "lattice.levels_built",
        "lattice.violations",
    ] {
        assert_eq!(
            a.counter(name).unwrap_or(0),
            b.counter(name).unwrap_or(0),
            "metric {name}"
        );
    }
    assert_eq!(
        a.gauge("lattice.peak_frontier").unwrap().1,
        b.gauge("lattice.peak_frontier").unwrap().1
    );
}

/// Each `lattice.*` counter is published once per analysis: with and
/// without a tracer, the 7-state Fig. 6 lattice reports 7 states under
/// both the legacy and the per-analysis name.
#[test]
fn lattice_counters_are_published_once_per_analysis() {
    let dir = std::env::temp_dir().join(format!("jmpax-telemetry-once-{}", std::process::id()));
    let out_dir = dir.to_str().unwrap().to_owned();
    for argv in [
        vec![
            "trace",
            "xyz",
            "--out",
            out_dir.as_str(),
            "--telemetry",
            "json",
        ],
        vec!["demo", "xyz", "--telemetry", "json"],
    ] {
        let out = run_cli(&argv, None);
        let report = out.telemetry.expect("--telemetry json must yield a report");
        let value = json::parse(&report).expect("valid JSON");
        let counter = |name: &str| {
            value
                .get("metrics")
                .and_then(|m| m.get(name))
                .and_then(|m| m.get("value"))
                .and_then(json::Value::as_u64)
        };
        assert_eq!(counter("lattice.states_explored"), Some(7), "{argv:?}");
        assert_eq!(counter("analysis.ltl.states_explored"), Some(7), "{argv:?}");
        assert_eq!(counter("lattice.total_runs"), Some(3), "{argv:?}");
        assert_eq!(counter("lattice.violating_runs"), Some(1), "{argv:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
