//! The `jmpax` subcommands.

use std::fmt::Write as _;

use jmpax_core::{AnalysisKind, Message, Relevance, SymbolTable};
use jmpax_instrument::EventSink as _;
use jmpax_lattice::{to_dot, AnalysisConfig, DotOptions, Lattice, LatticeInput, Violation};
use jmpax_observer::{render_analysis, Pipeline, PipelineConfig, PipelineError};
use jmpax_spec::{parse, ProgramState};
use jmpax_telemetry::Registry;
use jmpax_workloads as workloads;

use crate::args::Args;
use crate::report;
use crate::trace_text;

/// Usage text.
pub const USAGE: &str = "\
jmpax — predictive runtime analysis of multithreaded programs
(Rosu & Sen, 'An Instrumentation Technique for Online Analysis of
Multithreaded Programs', IPDPS/PADTAD 2004)

USAGE:
    jmpax check --spec <FORMULA> --trace <FILE>
                [--analysis <ltl,race,atomicity>] [--locks <name,...>]
                [--dot <OUT>] [--history <N>]
                [--frontier-cap <N>]
                [--telemetry <text|json>] [--json]
        Check a safety property against EVERY interleaving consistent with
        the recorded trace. The trace is the text format of
        `jmpax gen` (one event per line, `init v = k` headers).
        --analysis selects the checkers (default ltl): any comma list of
        ltl, race, atomicity runs in ONE causal pass over the stream with
        a per-analysis verdict section (exit 1 if any analysis fails;
        --json emits the machine-readable report, for the default ltl
        selection too). race and atomicity
        build their happens-before from program order plus the --locks
        variables only; --spec is needed only when ltl is selected.
        The lattice is built level by level; by default every level is
        kept so counterexamples start at the initial state. --history N
        keeps only N retired levels (counterexamples become trails of
        their last steps; 0 is the constant-memory two-level mode);
        --frontier-cap N bounds the frontier to its N smallest cuts (beam
        search) — pruned cuts are counted and the verdict is reported
        as Degraded instead of exhausting memory.

    jmpax deadlocks --trace <FILE> --locks <name,name,...>
        Predictive deadlock detection: build the lock-order graph from the
        trace (lock vars written 1 on acquire, 0 on release) and report
        cross-thread cycles.

    jmpax demo <landing|xyz|bank|bank-locked|dining|handoff|peterson
                |racy|racy-locked|nonatomic|nonatomic-locked>
                [--telemetry <text|json>]
        Run a built-in demonstration and print its analysis.

    jmpax chaos <landing|xyz|bank|bank-locked|dining|handoff|peterson
                 |racy|racy-locked|nonatomic|nonatomic-locked>
                [--seed <N>] [--drop <RATE>] [--dup <RATE>]
                [--corrupt <RATE>] [--reorder-window <N>]
                [--stall-budget <N>] [--telemetry <text|json>]
        Run a workload, ship its messages through a fault-injecting
        channel (seeded PRNG; rates in [0,1]) and analyze what survives
        with the resilient observer: CRC-validated v2 frames, resync past
        corruption, causal reassembly with gap skipping after
        --stall-budget arrivals (default 64). Prints transport and
        reassembly accounting plus the verdict, marked Exact when nothing
        was lost and Degraded otherwise. Exits 0 when the analysis
        completes, regardless of the verdict.

    jmpax serve --spec <FORMULA> [--port <N>] [--metrics-port <N>]
                [--analysis <ltl,race,atomicity>]
                [--sessions <N>] [--max-concurrent <N>]
                [--frontier-cap <N>] [--stall-budget <N>]
                [--read-timeout-ms <N>] [--idle-timeout-ms <N>]
                [--handshake-timeout-ms <N>] [--json]
                [--ops-log <FILE|->] [--flight-capacity <N>]
        Run the multi-tenant observer daemon: accept concurrent framed
        event streams over TCP on 127.0.0.1 (--port 0 picks an ephemeral
        port, announced on stderr before serving) and analyze each
        session online on its own thread, chunk by chunk as it arrives
        (a tenant that outpaces its analysis gets TCP backpressure).
        Each tenant gets a one-line JSON verdict on its own socket —
        Exact, Degraded or Error; a lossy, slow, idle or hostile tenant
        degrades only itself, never the process. Idle tenants are
        evicted after --idle-timeout-ms; tenant-requested frontier caps
        are clamped to --frontier-cap. --metrics-port serves the
        daemon's live state over HTTP while it runs: /metrics
        (Prometheus text with one {tenant=\"...\"} labeled series per
        live session), /tenants (per-tenant status JSON for `jmpax
        top`) and /healthz (readiness JSON; 503 once shutdown begins).
        --ops-log writes a structured JSON-lines operations log — one
        rate-limited event per session state transition
        (accept/handshake/evict/degrade/panic/verdict) — to FILE, or to
        stderr with `-`; any session leaving Exact dumps its
        flight-recorder ring (recent frames, gaps, transitions; ring
        size --flight-capacity, default 64) into the log and its final
        report. --sessions N shuts down after N session verdicts
        (default: serve until killed) and prints a shutdown report;
        --json makes it machine-readable. --analysis
        sets the checker suite for tenants that request none in their
        handshake (default ltl); a handshake naming an unknown analysis
        is rejected with a clean Error verdict.

    jmpax top --connect <HOST:PORT> [--interval-ms <N>] [--once] [--json]
        Watch a serve daemon's tenants live: poll /tenants on the
        daemon's metrics endpoint (--metrics-port) and render a
        refreshing per-tenant table — state, verdict, throughput, gaps,
        violations, last transition — every --interval-ms
        (default 1000). --once prints a single snapshot and exits;
        --once --json prints the raw /tenants document for scripting.

    jmpax load <landing|xyz|bank|bank-locked|dining|handoff|peterson
                |racy|racy-locked|nonatomic|nonatomic-locked>
                --connect <HOST:PORT> [--sessions <N>] [--seed <N>]
                [--drop <RATE>] [--dup <RATE>] [--corrupt <RATE>]
                [--reorder-window <N>] [--frontier-cap <N>]
                [--tenant <PREFIX>] [--analysis <ltl,race,atomicity>]
        Drive a serve daemon: run the workload once, then replay its
        framed messages over N concurrent TCP sessions, each through an
        independently seeded fault injector (the per-session seed is
        derived from --seed, so any session replays identically on its
        own), printing every tenant's verdict line. --analysis requests
        those checkers in the handshake (the daemon rejects kinds it
        does not recognize). Exits 0 iff every session received a
        verdict.

    --telemetry <text|json> (check, demo)
        Collect pipeline metrics — instrumentation counters, MVC join and
        per-event timing histograms, lattice level/frontier statistics,
        observer stage timings and verdict counts — and print a final
        report to STDERR after the analysis output. Without the flag no
        metrics are collected (the disabled path reads no clocks and
        touches no atomics).

    jmpax trace <landing|xyz|bank|bank-locked|dining|handoff|peterson
                 |racy|racy-locked|nonatomic|nonatomic-locked>
                --out <DIR> [--seed <N>] [--serve-metrics <PORT>]
                [--telemetry <text|json>]
        Run a workload with full causal tracing and write to <DIR>:
          trace.json   Chrome trace-event / Perfetto JSON — per-lane spans
                       and instants, happens-before edges as flow events
                       (every flow edge satisfies Theorem 3);
          causal.dot   the causal DAG of emitted messages (Graphviz);
          profile.json per-level lattice profile (width, states, prunes,
                       property evaluations, wall time).
        --serve-metrics PORT additionally serves the final snapshot over
        HTTP on 127.0.0.1:PORT — `/metrics` in Prometheus text format,
        `/trace` as a status JSON — until interrupted (port 0 picks an
        ephemeral port, printed to stderr). Exits 0 when the run
        completes, regardless of the verdict.

    jmpax gen <landing|xyz|bank|bank-locked|dining|handoff|peterson
               |racy|racy-locked|nonatomic|nonatomic-locked> [--seed <N>]
        Print a trace of the chosen workload under a random schedule
        (redirect to a file, then `jmpax check` it). racy/nonatomic are
        purpose-built inputs for `jmpax check --analysis race` and
        `--analysis atomicity` (their -locked variants are the clean
        controls; at seed 0, nonatomic uses the deterministic
        interleaving that exhibits the bug).

SPEC SYNTAX:
    atoms        x > 0, y = 1, balance >= 150, x + 2*y != z
    boolean      !f, f /\\ g, f \\/ g, f -> g, true, false
    past-time    @ f (previously), [*] f (always), <*> f (eventually),
                 f S g (since), f Sw g (weak since),
                 [p, q)  — p held in the past and q never since,
                 start(f), end(f)

EXAMPLES:
    jmpax gen xyz > xyz.trace
    jmpax check --spec '(x > 0) -> [y = 0, y > z)' --trace xyz.trace
";

/// How `--telemetry` asked for the metrics report to be rendered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TelemetryMode {
    /// Aligned human-readable table.
    Text,
    /// A single JSON object (`{"metrics": {...}}`).
    Json,
}

/// The full result of a CLI invocation.
#[derive(Clone, Debug)]
pub struct RunOutput {
    /// Process exit code.
    pub code: i32,
    /// Analysis output (stdout).
    pub output: String,
    /// Rendered telemetry report (stderr), present iff `--telemetry` was
    /// given and valid.
    pub telemetry: Option<String>,
    /// Endpoint to serve after printing, present iff `--serve-metrics` was
    /// given (only `jmpax trace` sets it).
    pub serve: Option<ServeMetrics>,
}

/// What `--serve-metrics <PORT>` asked `main` to expose once the run is
/// done: the final snapshot, pre-rendered, served until interrupted.
#[derive(Clone, Debug)]
pub struct ServeMetrics {
    /// Port to bind on 127.0.0.1 (0 = ephemeral).
    pub port: u16,
    /// `/metrics` body — Prometheus text exposition format.
    pub metrics: String,
    /// `/trace` body — the run's status JSON.
    pub status: String,
}

/// The routes a [`ServeMetrics`] serves — shared by `main` and the
/// integration tests so a scrape test exercises exactly what ships.
#[must_use]
pub fn metrics_routes(serve: &ServeMetrics) -> Vec<jmpax_telemetry::serve::Route> {
    vec![
        jmpax_telemetry::serve::Route::new(
            "/metrics",
            "text/plain; version=0.0.4",
            serve.metrics.clone(),
        ),
        jmpax_telemetry::serve::Route::new("/trace", "application/json", serve.status.clone()),
    ]
}

fn telemetry_mode(args: &Args) -> Result<Option<TelemetryMode>, String> {
    match args.get("telemetry") {
        None => Ok(None),
        Some("" | "text") => Ok(Some(TelemetryMode::Text)),
        Some("json") => Ok(Some(TelemetryMode::Json)),
        Some(other) => Err(format!(
            "unknown --telemetry mode `{other}` (expected `text` or `json`)\n"
        )),
    }
}

/// Runs the CLI; returns the process exit code and the full output text.
/// Telemetry, if requested, is collected but not rendered — use
/// [`run_with_telemetry`] to also get the report.
pub fn run(args: &Args, trace_source: Option<&str>) -> (i32, String) {
    let out = run_with_telemetry(args, trace_source);
    (out.code, out.output)
}

/// Runs the CLI with an optional `--telemetry <text|json>` metrics report.
pub fn run_with_telemetry(args: &Args, trace_source: Option<&str>) -> RunOutput {
    let mode = match telemetry_mode(args) {
        Ok(m) => m,
        Err(e) => {
            return RunOutput {
                code: 2,
                output: e,
                telemetry: None,
                serve: None,
            }
        }
    };
    // `trace` always collects metrics: its endpoint and status document
    // need them even without `--telemetry`. `serve` does too: its
    // `/metrics` endpoint must reflect the daemon live.
    let registry = if mode.is_some() || matches!(args.command(), Some("trace" | "serve")) {
        Registry::enabled()
    } else {
        Registry::disabled()
    };
    let (code, output, serve) = run_inner(args, trace_source, &registry);
    let telemetry = mode.map(|m| report::render_telemetry(&registry.snapshot(), m));
    RunOutput {
        code,
        output,
        telemetry,
        serve,
    }
}

fn run_inner(
    args: &Args,
    trace_source: Option<&str>,
    registry: &Registry,
) -> (i32, String, Option<ServeMetrics>) {
    let (code, output) = match args.command() {
        Some("check") => check(args, trace_source, registry),
        Some("deadlocks") => deadlocks(args, trace_source),
        Some("demo") => demo(args, registry),
        Some("chaos") => chaos(args, registry),
        Some("serve") => serve(args, registry),
        Some("load") => load(args),
        Some("top") => top(args),
        Some("trace") => return trace_cmd(args, registry),
        Some("gen") => gen(args),
        Some("help") | None => (0, USAGE.to_owned()),
        Some(other) => (2, format!("unknown command `{other}`\n\n{USAGE}")),
    };
    (code, output, None)
}

/// Models the wire between instrumented program and observer: encodes
/// `messages` through a telemetered [`jmpax_instrument::FrameSink`] so
/// `instrument.frames_encoded` / `instrument.bytes_encoded` reflect what a
/// live deployment would have shipped. Skipped when telemetry is off.
fn account_frames(messages: &[jmpax_core::Message], registry: &Registry) {
    if !registry.is_enabled() {
        return;
    }
    let mut sink = jmpax_instrument::FrameSink::builder()
        .telemetry(registry)
        .build();
    for m in messages {
        sink.emit(m);
    }
}

/// Parses `--locks a,b,c` against already-interned names.
fn lock_vars(
    args: &Args,
    symbols: &jmpax_core::SymbolTable,
) -> Result<std::collections::BTreeSet<jmpax_core::VarId>, String> {
    let Some(spec) = args.get("locks") else {
        return Ok(std::collections::BTreeSet::new());
    };
    let mut out = std::collections::BTreeSet::new();
    for name in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        match symbols.lookup(name) {
            Some(v) => {
                out.insert(v);
            }
            None => return Err(format!("lock variable `{name}` not in the trace")),
        }
    }
    Ok(out)
}

fn deadlocks(args: &Args, trace_source: Option<&str>) -> (i32, String) {
    let Some(trace) = trace_source else {
        return (2, "deadlocks: missing --trace <FILE>\n".to_owned());
    };
    let mut symbols = SymbolTable::new();
    let execution = match trace_text::parse_trace(trace, &mut symbols) {
        Ok(e) => e,
        Err(e) => return (2, format!("deadlocks: {e}\n")),
    };
    let locks = match lock_vars(args, &symbols) {
        Ok(s) if !s.is_empty() => s,
        Ok(_) => return (2, "deadlocks: missing --locks <name,...>\n".to_owned()),
        Err(e) => return (2, format!("deadlocks: {e}\n")),
    };
    let cycles = jmpax_observer::predict_deadlocks(&execution, &locks);
    let mut out = String::new();
    if cycles.is_empty() {
        let _ = writeln!(out, "no deadlock cycles predicted");
        return (0, out);
    }
    for c in &cycles {
        let names: Vec<String> = c
            .locks
            .iter()
            .map(|&l| symbols.name_or_default(l))
            .collect();
        let _ = writeln!(
            out,
            "potential deadlock: cycle {} across {} threads",
            names.join(" -> "),
            c.threads.len()
        );
    }
    (1, out)
}

/// `jmpax check`: one path for every `--analysis` selection. The trace
/// goes through [`Pipeline::check_execution`] and `--dot` draws the
/// lattice of the very stream it analysed; the report then differs only
/// in rendering: ltl alone as the lattice summary with counterexamples,
/// any other selection as per-analysis sections, `--json` as the
/// machine-readable report.
fn check(args: &Args, trace_source: Option<&str>, registry: &Registry) -> (i32, String) {
    let kinds = match args.get("analysis") {
        Some(list) => match AnalysisKind::parse_list(list) {
            Ok(kinds) => kinds,
            Err(name) => {
                return (
                    2,
                    format!("check: unknown analysis `{name}` (expected ltl, race, atomicity)\n"),
                )
            }
        },
        // No selection is ltl alone.
        None => Vec::new(),
    };
    let Some(trace) = trace_source else {
        return (2, "check: missing --trace <FILE>\n".to_owned());
    };

    let mut symbols = SymbolTable::new();
    let execution = match trace_text::parse_trace(trace, &mut symbols) {
        Ok(e) => e,
        Err(e) => return (2, format!("check: {e}\n")),
    };
    // Only the text report of ltl alone shows counterexamples.
    let counterexamples = !args.has("json") && matches!(kinds.as_slice(), [] | [AnalysisKind::Ltl]);
    let config = match analysis_config(args, counterexamples) {
        Ok(config) => config,
        Err(e) => return (2, e),
    };
    let sync = match lock_vars(args, &symbols) {
        Ok(s) => s,
        Err(e) => return (2, format!("check: {e}\n")),
    };
    let pipeline = Pipeline::new(
        PipelineConfig::new()
            .telemetry(registry)
            .analysis(config)
            .sync_vars(sync),
    );
    let spec = args.get("spec");
    let report = match pipeline.check_execution(&execution, &kinds, spec, &mut symbols) {
        Ok(report) => report,
        Err(PipelineError::MissingSpec) => {
            return (
                2,
                "check: missing --spec <FORMULA> (the ltl analysis needs one)\n".to_owned(),
            )
        }
        Err(e) => return (2, format!("check: {e}\n")),
    };
    account_frames(&report.messages, registry);

    // The LTL violations, when LTL ran, are the lattice's highlights.
    let dot_note = args.get("dot").map(|path| {
        let violations = report.ltl().map(|ltl| ltl.violations.as_slice());
        write_lattice_dot(
            path,
            report.messages.clone(),
            ProgramState::from_map(execution.initial.clone()),
            violations.unwrap_or_default(),
            &symbols,
        )
    });
    let code = i32::from(report.predicted());
    if args.has("json") {
        // Stdout stays one JSON object; the DOT note goes to stderr.
        if let Some(note) = dot_note {
            eprint!("{note}");
        }
        let json = report::check_report_json(&report.suite, &symbols);
        return (code, format!("{json}\n"));
    }
    let mut out = if counterexamples {
        report::ltl_text(&report, &symbols)
    } else {
        report::check_suite_text(&report.suite, &symbols)
    };
    out.push_str(&dot_note.unwrap_or_default());
    (code, out)
}

/// Writes the computation lattice of `messages` from `initial` to `path`
/// as Graphviz DOT, highlighting the cuts of `violations`, and returns the
/// line that says so (or why it could not). Nothing is written when the
/// messages do not form a valid lattice input.
fn write_lattice_dot(
    path: &str,
    messages: Vec<Message>,
    initial: ProgramState,
    violations: &[Violation],
    symbols: &SymbolTable,
) -> String {
    let Ok(input) = LatticeInput::from_messages(messages, initial) else {
        return String::new();
    };
    let lattice = Lattice::build(input);
    let highlights = violations.iter().map(|v| v.cut.clone()).collect();
    let dot = to_dot(&lattice, symbols, &DotOptions::with_highlights(highlights));
    match std::fs::write(path, dot) {
        Ok(()) => format!("lattice written to {path}\n"),
        Err(e) => format!("warning: could not write {path}: {e}\n"),
    }
}

/// The analysis knobs of `check`: `--frontier-cap` and `--history`. A
/// malformed number is a usage error. Without `--history`, a report that
/// shows `counterexamples` keeps every lattice level (the pipeline's
/// default); any other keeps only the paper's two, since retired levels
/// serve nothing but counterexamples.
fn analysis_config(args: &Args, counterexamples: bool) -> Result<AnalysisConfig, String> {
    let history = parsed(args, "check", "history", "a level count")?;
    Ok(AnalysisConfig {
        frontier_cap: parsed(args, "check", "frontier-cap", "a state count")?.unwrap_or(0),
        history: if counterexamples {
            history
        } else {
            history.or(Some(0))
        },
        ..AnalysisConfig::default()
    })
}

type MakeWorkload = fn() -> workloads::Workload;

/// Every built-in workload `demo`, `chaos`, `load`, `trace` and `gen`
/// accept: the one list `workload_by_name` resolves against and the
/// usage errors name.
const WORKLOADS: [(&str, MakeWorkload); 11] = [
    ("landing", workloads::landing::workload),
    ("xyz", workloads::xyz::workload),
    ("bank", || workloads::bank::workload(false)),
    ("bank-locked", || workloads::bank::workload(true)),
    ("dining", || workloads::dining::workload(3, false)),
    ("handoff", || workloads::handoff::workload(2, true)),
    ("peterson", workloads::peterson::workload),
    ("racy", || workloads::racy::workload(false)),
    ("racy-locked", || workloads::racy::workload(true)),
    ("nonatomic", || workloads::nonatomic::workload(false)),
    ("nonatomic-locked", || workloads::nonatomic::workload(true)),
];

fn workload_by_name(name: &str) -> Option<workloads::Workload> {
    WORKLOADS
        .iter()
        .find(|&&(known, _)| known == name)
        .map(|&(_, make)| make())
}

/// The usage error for a command that was given no workload name.
fn missing_workload(command: &str) -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|&(name, _)| name).collect();
    format!(
        "{command}: expected a workload name ({})\n",
        names.join("|")
    )
}

fn demo(args: &Args, registry: &Registry) -> (i32, String) {
    let Some(name) = args.positional.get(1) else {
        return (2, missing_workload("demo"));
    };
    let Some(w) = workload_by_name(name) else {
        return (2, format!("demo: unknown workload `{name}`\n"));
    };
    let mut out = String::new();
    let _ = writeln!(out, "workload: {}", w.name);
    let _ = writeln!(out, "property: {}", w.spec);
    let run = match name.as_str() {
        "landing" => jmpax_sched::run_fixed(
            &w.program,
            workloads::landing::observed_success_schedule(),
            300,
        ),
        "xyz" => {
            jmpax_sched::run_fixed(&w.program, workloads::xyz::observed_success_schedule(), 100)
        }
        _ => jmpax_sched::run_random(&w.program, 0, 1000),
    };
    if !run.finished {
        let _ = writeln!(
            out,
            "(schedule did not finish; deadlock = {})",
            run.deadlocked
        );
    }
    let mut symbols = w.symbols.clone();
    match Pipeline::new(PipelineConfig::new().telemetry(registry)).check_execution(
        &run.execution,
        &[AnalysisKind::Ltl],
        Some(&w.spec),
        &mut symbols,
    ) {
        Ok(report) => {
            account_frames(&report.messages, registry);
            let ltl = report.ltl().expect("an ltl check");
            out.push_str(&render_analysis(ltl, &symbols));
            (i32::from(report.predicted()), out)
        }
        Err(e) => (2, format!("demo: {e}\n")),
    }
}

/// Parses a `--<key> <rate>` option of `cmd` as a probability in `[0, 1]`.
fn fault_rate(args: &Args, cmd: &str, key: &str) -> Result<f64, String> {
    let Some(raw) = args.get(key) else {
        return Ok(0.0);
    };
    match raw.parse::<f64>() {
        Ok(r) if (0.0..=1.0).contains(&r) => Ok(r),
        _ => Err(format!(
            "{cmd}: --{key} expects a rate in [0, 1], got `{raw}`\n"
        )),
    }
}

/// Builds a [`jmpax_instrument::ChaosConfig`] from the shared
/// `--seed/--drop/--dup/--corrupt/--reorder-window` options of `cmd`
/// (`chaos` or `load`).
fn chaos_config(args: &Args, cmd: &str) -> Result<jmpax_instrument::ChaosConfig, String> {
    Ok(jmpax_instrument::ChaosConfig {
        seed: parsed(args, cmd, "seed", "an unsigned integer")?.unwrap_or(0),
        drop_rate: fault_rate(args, cmd, "drop")?,
        dup_rate: fault_rate(args, cmd, "dup")?,
        corrupt_rate: fault_rate(args, cmd, "corrupt")?,
        reorder_window: parsed(args, cmd, "reorder-window", "a message count")?.unwrap_or(0),
    })
}

/// Parses an optional typed option, reporting the command and the expected
/// shape on failure.
fn parsed<T: std::str::FromStr>(
    args: &Args,
    cmd: &str,
    key: &str,
    what: &str,
) -> Result<Option<T>, String> {
    match args.get(key) {
        None => Ok(None),
        Some(raw) => raw
            .parse::<T>()
            .map(Some)
            .map_err(|_| format!("{cmd}: --{key} expects {what}, got `{raw}`\n")),
    }
}

fn chaos(args: &Args, registry: &Registry) -> (i32, String) {
    use jmpax_instrument::ChaosSink;

    let Some(name) = args.positional.get(1) else {
        return (2, missing_workload("chaos"));
    };
    let Some(w) = workload_by_name(name) else {
        return (2, format!("chaos: unknown workload `{name}`\n"));
    };
    let config = match chaos_config(args, "chaos") {
        Ok(c) => c,
        Err(e) => return (2, e),
    };
    let seed = config.seed;
    let stall_budget = match parsed(args, "chaos", "stall-budget", "a message count") {
        Ok(n) => n.unwrap_or(jmpax_lattice::reassemble::DEFAULT_STALL_BUDGET),
        Err(e) => return (2, e),
    };

    let mut out = String::new();
    let _ = writeln!(out, "workload: {}", w.name);
    let _ = writeln!(out, "property: {}", w.spec);
    let _ = writeln!(
        out,
        "chaos: seed={seed} drop={} dup={} corrupt={} reorder-window={}",
        config.drop_rate, config.dup_rate, config.corrupt_rate, config.reorder_window
    );

    let run = jmpax_sched::run_random(&w.program, 0, 1000);
    let mut symbols = w.symbols.clone();
    let formula = match parse(&w.spec, &mut symbols) {
        Ok(f) => f,
        Err(e) => return (2, format!("chaos: {e}\n")),
    };
    let monitor = match formula.monitor() {
        Ok(m) => m.with_telemetry(registry),
        Err(e) => return (2, format!("chaos: {e}\n")),
    };
    let relevance = Relevance::WritesOf(formula.variables().into_iter().collect());
    let messages = run.execution.instrument_with_telemetry(relevance, registry);

    let mut sink = ChaosSink::new(config);
    for m in &messages {
        sink.emit(m);
    }
    let bytes = sink.take_bytes();
    let stats = sink.stats();

    // The receiving side: decode, then let the observer's reassembler
    // deliver causally and fold the decoder's losses in.
    let decode_ns = registry.histogram("observer.stage.decode_ns");
    let decode = jmpax_telemetry::Stage::timed(&decode_ns);
    let mut decoder = jmpax_instrument::ResilientFrameDecoder::new();
    let received = decoder.push(&bytes);
    let decoded = decoder.finish();
    drop(decode);
    registry
        .counter("resilience.frames_corrupt")
        .add(decoded.frames_corrupt);
    registry
        .counter("resilience.frames_resynced")
        .add(decoded.frames_resynced);

    let initial = ProgramState::from_map(run.execution.initial.clone());
    let report = Pipeline::new(PipelineConfig::new().telemetry(registry)).check_messages(
        monitor,
        &initial,
        jmpax_lattice::Exactness::degraded(0, decoded.frames_lost()),
        stall_budget,
        received,
    );
    report.suite.reassembly.record(registry);
    out.push_str(&crate::report::chaos_summary(
        &stats,
        &decoded,
        &report.suite.reassembly,
        report.suite.exactness(),
    ));
    out.push_str(&crate::report::ltl_text(&report, &symbols));
    (0, out)
}

/// `jmpax serve`: bind the multi-tenant observer daemon, optionally expose
/// live metrics, block until `--sessions` verdicts (or forever), and render
/// the shutdown report.
///
/// The bound addresses are announced on **stderr before serving** — that
/// is the contract scripts (and the CI chaos-load job) rely on to discover
/// ephemeral ports, and the only reason this function is not pure.
fn serve(args: &Args, registry: &Registry) -> (i32, String) {
    use jmpax_observer::{ServeConfig, Server};
    use std::time::Duration;

    let Some(spec) = args.get("spec").filter(|s| !s.is_empty()) else {
        return (2, "serve: missing --spec <FORMULA>\n".to_owned());
    };
    macro_rules! opt {
        ($ty:ty, $key:literal, $what:literal) => {
            match parsed::<$ty>(args, "serve", $key, $what) {
                Ok(v) => v,
                Err(e) => return (2, e),
            }
        };
    }
    let port = opt!(u16, "port", "a port").unwrap_or(0);
    let metrics_port = opt!(u16, "metrics-port", "a port");
    let target = opt!(usize, "sessions", "a session count");

    let mut config = ServeConfig::new(spec);
    config.telemetry = registry.clone();
    if let Some(list) = args.get("analysis") {
        match AnalysisKind::parse_list(list) {
            Ok(kinds) => config.analyses = kinds,
            Err(bad) => {
                return (
                    2,
                    format!("serve: unknown analysis `{bad}` (expected ltl, race, atomicity)\n"),
                )
            }
        }
    }
    if let Some(n) = opt!(usize, "max-concurrent", "a session count") {
        config.max_sessions = n.max(1);
    }
    if let Some(n) = opt!(u64, "stall-budget", "a message count") {
        config.stall_budget = n;
    }
    if let Some(ms) = opt!(u64, "read-timeout-ms", "milliseconds") {
        config.read_timeout = Duration::from_millis(ms.max(1));
    }
    if let Some(ms) = opt!(u64, "idle-timeout-ms", "milliseconds") {
        config.idle_timeout = Duration::from_millis(ms.max(1));
    }
    if let Some(ms) = opt!(u64, "handshake-timeout-ms", "milliseconds") {
        config.handshake_timeout = Duration::from_millis(ms.max(1));
    }
    if let Some(cap) = opt!(usize, "frontier-cap", "a state count") {
        config.analysis = config.analysis.with_frontier_cap(cap);
    }
    if let Some(n) = opt!(usize, "flight-capacity", "an entry count") {
        config.flight_capacity = n.max(1);
    }
    if let Some(path) = args.get("ops-log").filter(|s| !s.is_empty()) {
        use jmpax_observer::{FileLogSink, OpsLog, StderrLogSink};
        use std::sync::Arc;
        config.ops_log = if path == "-" {
            OpsLog::to_sink(Arc::new(StderrLogSink))
        } else {
            match FileLogSink::append(std::path::Path::new(path)) {
                Ok(sink) => OpsLog::to_sink(Arc::new(sink)),
                Err(e) => return (2, format!("serve: cannot open ops log `{path}`: {e}\n")),
            }
        };
    }

    let server = match Server::bind(port, config) {
        Ok(s) => s,
        Err(e) => return (2, format!("serve: {e}\n")),
    };
    let addr = match server.local_addr() {
        Ok(a) => a,
        Err(e) => return (2, format!("serve: {e}\n")),
    };
    eprintln!("jmpax serve: listening on {addr}");

    if let Some(mport) = metrics_port {
        let metrics = match jmpax_telemetry::serve::MetricsServer::bind(mport) {
            Ok(m) => m,
            Err(e) => return (2, format!("serve: cannot bind metrics port {mport}: {e}\n")),
        };
        if let Ok(maddr) = metrics.local_addr() {
            eprintln!("jmpax serve: metrics on http://{maddr}/metrics (and /tenants, /healthz)");
        }
        let live = registry.clone();
        let obs = server.observability();
        // The endpoint lives exactly as long as the process: the thread is
        // detached and dies with it. Routes are rebuilt per request so
        // every document reflects the daemon *now* — `/metrics` the
        // registry, `/tenants` the live tenant table, `/healthz` the
        // lifecycle (503 once shutdown begins).
        std::thread::spawn(move || {
            metrics.serve_with(
                || {
                    let (health_status, health_body) = obs.healthz();
                    vec![
                        jmpax_telemetry::serve::Route::new(
                            "/metrics",
                            "text/plain; version=0.0.4",
                            live.snapshot().to_prometheus(),
                        ),
                        jmpax_telemetry::serve::Route::new(
                            "/tenants",
                            "application/json",
                            obs.tenants_json(),
                        ),
                        jmpax_telemetry::serve::Route::with_status(
                            "/healthz",
                            "application/json",
                            health_body,
                            health_status,
                        ),
                    ]
                },
                None,
            );
        });
    }

    let summary = server.run(target);
    let out = if args.get("json").is_some() {
        format!("{}\n", report::serve_report_json(&summary))
    } else {
        report::serve_summary_text(&summary)
    };
    (i32::from(summary.errors() > 0), out)
}

/// `jmpax load`: replay one workload's framed messages over many
/// concurrent, independently-seeded lossy TCP sessions against a running
/// `jmpax serve` daemon.
fn load(args: &Args) -> (i32, String) {
    use jmpax_instrument::tcp::{send_raw_session, SessionHello};
    use jmpax_instrument::ChaosSink;

    let Some(name) = args.positional.get(1) else {
        return (2, missing_workload("load"));
    };
    let Some(w) = workload_by_name(name) else {
        return (2, format!("load: unknown workload `{name}`\n"));
    };
    let Some(addr) = args.get("connect").filter(|s| !s.is_empty()) else {
        return (2, "load: missing --connect <HOST:PORT>\n".to_owned());
    };
    let sessions = match parsed::<usize>(args, "load", "sessions", "a session count") {
        Ok(n) => n.unwrap_or(1).max(1),
        Err(e) => return (2, e),
    };
    let frontier_cap = match parsed::<u32>(args, "load", "frontier-cap", "a state count") {
        Ok(n) => n.unwrap_or(0),
        Err(e) => return (2, e),
    };
    let root = match chaos_config(args, "load") {
        Ok(c) => c,
        Err(e) => return (2, e),
    };
    let prefix = args.get("tenant").filter(|s| !s.is_empty()).unwrap_or(name);
    // `--analysis` rides in the handshake; empty means the daemon default.
    let analyses: Vec<u8> = match args.get("analysis") {
        Some(list) => match AnalysisKind::parse_list(list) {
            Ok(kinds) => kinds.iter().map(|k| k.code()).collect(),
            Err(bad) => {
                return (
                    2,
                    format!("load: unknown analysis `{bad}` (expected ltl, race, atomicity)\n"),
                )
            }
        },
        None => Vec::new(),
    };

    let run = jmpax_sched::run_random(&w.program, 0, 1000);
    let mut spec_symbols = w.symbols.clone();
    let formula = match parse(&w.spec, &mut spec_symbols) {
        Ok(f) => f,
        Err(e) => return (2, format!("load: {e}\n")),
    };
    let relevance = Relevance::WritesOf(formula.variables().into_iter().collect());
    let messages = run.execution.instrument(relevance);
    // Declare every workload variable in `VarId` order so the daemon
    // reconstructs this client's symbol table exactly from the handshake.
    let vars: Vec<(String, jmpax_core::Value)> = w
        .symbols
        .iter()
        .map(|(id, n)| {
            let value = run
                .execution
                .initial
                .get(&id)
                .copied()
                .unwrap_or(jmpax_core::Value::Int(0));
            (n.to_string(), value)
        })
        .collect();
    let threads = run.execution.thread_count() as u32;

    let mut out = String::new();
    let _ = writeln!(out, "workload: {} -> {addr}", w.name);
    let _ = writeln!(
        out,
        "load: sessions={sessions} seed={} drop={} dup={} corrupt={} reorder-window={}",
        root.seed, root.drop_rate, root.dup_rate, root.corrupt_rate, root.reorder_window
    );

    let handles: Vec<_> = (0..sessions as u64)
        .map(|session| {
            let addr = addr.to_string();
            let messages = messages.clone();
            let vars = vars.clone();
            let analyses = analyses.clone();
            let tenant = format!("{prefix}-{session}");
            let chaos = root.for_session(session);
            std::thread::spawn(move || {
                let mut sink = ChaosSink::new(chaos);
                for m in &messages {
                    sink.emit(m);
                }
                let bytes = sink.take_bytes();
                let hello = SessionHello {
                    tenant,
                    threads,
                    frontier_cap,
                    analyses,
                    vars,
                };
                send_raw_session(addr.as_str(), &hello, &bytes)
            })
        })
        .collect();

    let mut verdicts = 0usize;
    let mut failures = 0usize;
    for (session, handle) in handles.into_iter().enumerate() {
        match handle.join() {
            Ok(Ok(line)) => {
                verdicts += 1;
                let _ = writeln!(out, "session {session}: {}", line.trim_end());
            }
            Ok(Err(e)) => {
                failures += 1;
                let _ = writeln!(out, "session {session}: transport error: {e}");
            }
            Err(_) => {
                failures += 1;
                let _ = writeln!(out, "session {session}: loader thread panicked");
            }
        }
    }
    let _ = writeln!(
        out,
        "load: {verdicts}/{sessions} verdicts received, {failures} failed"
    );
    (i32::from(verdicts != sessions), out)
}

/// `jmpax top`: poll a serve daemon's `/tenants` route and render a
/// per-tenant status table — refreshing in place every `--interval-ms`,
/// or once with `--once` (`--once --json` prints the raw document).
fn top(args: &Args) -> (i32, String) {
    let Some(addr) = args.get("connect").filter(|s| !s.is_empty()) else {
        return (2, "top: missing --connect <HOST:PORT>\n".to_owned());
    };
    let interval = match parsed::<u64>(args, "top", "interval-ms", "milliseconds") {
        Ok(ms) => std::time::Duration::from_millis(ms.unwrap_or(1000).max(50)),
        Err(e) => return (2, e),
    };
    let json_mode = args.has("json");

    if args.has("once") {
        return match top_snapshot(addr, json_mode) {
            Ok(body) => (0, body),
            Err(e) => (1, format!("top: {e}\n")),
        };
    }
    // Watch mode: redraw in place until interrupted (or the daemon goes
    // away). Frames are printed directly — this loop never returns
    // normally with output to buffer.
    loop {
        match top_snapshot(addr, json_mode) {
            Ok(body) => {
                // ANSI clear + home, then the fresh table.
                print!("\x1b[2J\x1b[H{body}");
                let _ = std::io::Write::flush(&mut std::io::stdout());
            }
            Err(e) => return (1, format!("top: {e}\n")),
        }
        std::thread::sleep(interval);
    }
}

/// One `/tenants` poll, rendered as requested.
fn top_snapshot(addr: &str, json_mode: bool) -> Result<String, String> {
    let (code, body) = http_get(addr, "/tenants")?;
    if code != 200 {
        return Err(format!("/tenants answered HTTP {code}"));
    }
    if json_mode {
        return Ok(format!("{body}\n"));
    }
    render_tenants_table(addr, &body)
}

/// A single HTTP/1.0 GET over a raw socket — `jmpax top` needs no more
/// HTTP client than the daemon's endpoint needs server.
fn http_get(addr: &str, path: &str) -> Result<(u16, String), String> {
    use std::io::{Read as _, Write as _};
    use std::time::Duration;
    let mut stream =
        std::net::TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    write!(
        stream,
        "GET {path} HTTP/1.0\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )
    .map_err(|e| format!("request to {addr} failed: {e}"))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("reading {addr}{path}: {e}"))?;
    let code = response
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|c| c.parse::<u16>().ok())
        .ok_or_else(|| format!("{addr}{path} sent no HTTP status line"))?;
    let body = response
        .split_once("\r\n\r\n")
        .map_or(String::new(), |(_, b)| b.to_string());
    Ok((code, body))
}

/// Renders the `/tenants` document as an aligned table, active sessions
/// first (the daemon emits them first).
fn render_tenants_table(addr: &str, body: &str) -> Result<String, String> {
    use jmpax_telemetry::json::{self, Value};
    let doc = json::parse(body).map_err(|e| format!("malformed /tenants document: {e}"))?;
    let active = doc.get("active").and_then(Value::as_u64).unwrap_or(0);
    let completed = doc.get("completed").and_then(Value::as_u64).unwrap_or(0);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "jmpax top — {addr} — {active} active, {completed} completed"
    );
    let _ = writeln!(
        out,
        "{:<20} {:>4} {:<7} {:<8} {:>8} {:>10} {:>5} {:>5}  LAST TRANSITION",
        "TENANT", "SESS", "STATE", "VERDICT", "AGE", "BYTES/S", "GAPS", "VIOL"
    );
    let empty = Vec::new();
    let tenants = doc
        .get("tenants")
        .and_then(Value::as_array)
        .unwrap_or(&empty);
    for t in tenants {
        let s = |key: &str| t.get(key).and_then(Value::as_str).unwrap_or("-");
        let n = |key: &str| t.get(key).and_then(Value::as_u64).unwrap_or(0);
        let _ = writeln!(
            out,
            "{:<20} {:>4} {:<7} {:<8} {:>8} {:>10} {:>5} {:>5}  {} ({} ago)",
            s("tenant"),
            n("session"),
            s("state"),
            s("verdict"),
            format_ms(n("age_ms")),
            n("bytes_per_sec"),
            n("gaps_skipped"),
            n("violations"),
            s("last_transition"),
            format_ms(n("since_transition_ms")),
        );
    }
    Ok(out)
}

/// `4200` → `"4.2s"`, `350` → `"350ms"`.
fn format_ms(ms: u64) -> String {
    if ms >= 1000 {
        format!("{:.1}s", ms as f64 / 1000.0)
    } else {
        format!("{ms}ms")
    }
}

fn trace_cmd(args: &Args, registry: &Registry) -> (i32, String, Option<ServeMetrics>) {
    let Some(name) = args.positional.get(1) else {
        return (2, missing_workload("trace"), None);
    };
    let Some(w) = workload_by_name(name) else {
        return (2, format!("trace: unknown workload `{name}`\n"), None);
    };
    let Some(out_dir) = args.get("out").filter(|s| !s.is_empty()) else {
        return (2, "trace: missing --out <DIR>\n".to_owned(), None);
    };
    let serve_port = match args.get("serve-metrics") {
        None => None,
        Some(raw) => match raw.parse::<u16>() {
            Ok(p) => Some(p),
            Err(_) => {
                return (
                    2,
                    format!("trace: --serve-metrics expects a port, got `{raw}`\n"),
                    None,
                )
            }
        },
    };
    let seed = match parsed(args, "trace", "seed", "an unsigned integer") {
        Ok(seed) => seed.unwrap_or(0),
        Err(e) => return (2, e, None),
    };

    let mut out = String::new();
    let _ = writeln!(out, "workload: {}", w.name);
    let _ = writeln!(out, "property: {}", w.spec);

    let run = match name.as_str() {
        "xyz" if seed == 0 => {
            jmpax_sched::run_fixed(&w.program, workloads::xyz::observed_success_schedule(), 100)
        }
        "landing" if seed == 0 => jmpax_sched::run_fixed(
            &w.program,
            workloads::landing::observed_success_schedule(),
            300,
        ),
        _ => jmpax_sched::run_random(&w.program, seed, 1000),
    };
    let traced = registry.clone().traced();
    let mut symbols = w.symbols.clone();
    let report = match Pipeline::new(PipelineConfig::new().telemetry(&traced)).check_execution(
        &run.execution,
        &[AnalysisKind::Ltl],
        Some(&w.spec),
        &mut symbols,
    ) {
        Ok(report) => report,
        Err(e) => return (2, format!("trace: {e}\n"), None),
    };
    // Ship the messages through a traced frame sink so the `wire` lane and
    // the frame counters reflect what a live deployment would transmit.
    {
        let mut sink = jmpax_instrument::FrameSink::builder()
            .telemetry(&traced)
            .build();
        for m in &report.messages {
            sink.emit(m);
        }
    }

    let data = traced.tracer().collect();
    let chrome = jmpax_telemetry::chrome::to_chrome_json(&data);
    let dot = jmpax_telemetry::dot::to_causal_dot(&data, |v| {
        symbols.name_or_default(jmpax_core::VarId(v))
    });
    let profile = jmpax_telemetry::profile::lattice_profile(&data);
    let profile_json = jmpax_telemetry::profile::profile_to_json(&profile);

    let dir = std::path::Path::new(out_dir);
    if let Err(e) = std::fs::create_dir_all(dir) {
        return (2, format!("trace: cannot create {out_dir}: {e}\n"), None);
    }
    for (file, body) in [
        ("trace.json", &chrome),
        ("causal.dot", &dot),
        ("profile.json", &profile_json),
    ] {
        if let Err(e) = std::fs::write(dir.join(file), body) {
            return (
                2,
                format!("trace: cannot write {out_dir}/{file}: {e}\n"),
                None,
            );
        }
    }

    let _ = writeln!(
        out,
        "verdict: {}",
        if report.predicted() {
            "violations predicted"
        } else {
            "satisfied on every run"
        }
    );
    let hb_edges = jmpax_telemetry::trace::causal_edges(&data.causal_messages()).len();
    let transport = jmpax_telemetry::chrome::transport_flow_count(&data);
    let _ = writeln!(
        out,
        "traced {} events across {} lanes ({} happens-before edges, {} transport flows)",
        data.len(),
        data.lanes.len(),
        hb_edges,
        transport
    );
    out.push_str(&jmpax_telemetry::profile::profile_to_text(&profile));
    let _ = writeln!(
        out,
        "trace written to {out_dir}/trace.json (open in Perfetto or chrome://tracing)"
    );
    let _ = writeln!(out, "causal DAG written to {out_dir}/causal.dot");
    let _ = writeln!(out, "profile written to {out_dir}/profile.json");

    let serve = serve_port.map(|port| ServeMetrics {
        port,
        metrics: registry.snapshot().to_prometheus(),
        status: crate::report::trace_status_json(w.name, &data, &profile),
    });
    (0, out, serve)
}

fn gen(args: &Args) -> (i32, String) {
    let Some(name) = args.positional.get(1) else {
        return (2, missing_workload("gen"));
    };
    let Some(w) = workload_by_name(name) else {
        return (2, format!("gen: unknown workload `{name}`\n"));
    };
    let seed = match parsed(args, "gen", "seed", "an unsigned integer") {
        Ok(seed) => seed.unwrap_or(0),
        Err(e) => return (2, e),
    };
    let run = match name.as_str() {
        "xyz" if seed == 0 => {
            jmpax_sched::run_fixed(&w.program, workloads::xyz::observed_success_schedule(), 100)
        }
        "landing" if seed == 0 => jmpax_sched::run_fixed(
            &w.program,
            workloads::landing::observed_success_schedule(),
            300,
        ),
        // The interleaving that lands the unguarded write inside the
        // transaction — so the atomicity bug is deterministic at seed 0.
        "nonatomic" | "nonatomic-locked" if seed == 0 => jmpax_sched::run_fixed(
            &w.program,
            workloads::nonatomic::interleaved_schedule(),
            100,
        ),
        _ => jmpax_sched::run_random(&w.program, seed, 1000),
    };
    (0, trace_text::write_trace(&run.execution, &w.symbols))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_cli(argv: &[&str], trace: Option<&str>) -> (i32, String) {
        let args = Args::parse(argv.iter().map(ToString::to_string));
        run(&args, trace)
    }

    const XYZ_TRACE: &str = "\
init x = -1
init y = 0
init z = 0
T0 read x
T0 write x 0
T1 read x
T1 write z 1
T0 read x
T0 write y 1
T1 read x
T1 write x 1
";

    #[test]
    fn help_by_default() {
        let (code, out) = run_cli(&[], None);
        assert_eq!(code, 0);
        assert!(out.contains("USAGE"));
    }

    #[test]
    fn unknown_command_fails() {
        for command in ["frobnicate", "bench"] {
            let (code, out) = run_cli(&[command], None);
            assert_eq!(code, 2, "{command}");
            assert!(out.contains("unknown command"), "{command}");
        }
    }

    #[test]
    fn check_predicts_on_xyz_trace() {
        let (code, out) = run_cli(
            &["check", "--spec", "(x > 0) -> [y = 0, y > z)"],
            Some(XYZ_TRACE),
        );
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("7 states"), "{out}");
        assert!(out.contains("3 total, 1 violating"), "{out}");
        assert!(out.contains("PREDICTED"), "{out}");
    }

    #[test]
    fn check_satisfied_exits_zero() {
        let (code, out) = run_cli(&["check", "--spec", "x >= -1"], Some(XYZ_TRACE));
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("satisfied"), "{out}");
    }

    #[test]
    fn check_streaming_mode() {
        // `--history 0` is the constant-memory two-level mode: same counts
        // and verdict, a two-step trail instead of the whole run.
        let (code, out) = run_cli(
            &[
                "check",
                "--spec",
                "(x > 0) -> [y = 0, y > z)",
                "--history",
                "0",
            ],
            Some(XYZ_TRACE),
        );
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("lattice: 7 states, 5 levels"), "{out}");
        assert!(out.contains("3 total, 1 violating"), "{out}");
        assert!(out.contains("violation at cut S2,2"), "{out}");
        assert!(out.contains("counterexample trail (last 2 steps)"), "{out}");
        assert!(!out.contains("(initial)"), "{out}");
    }

    #[test]
    fn check_streaming_with_history_prints_trail() {
        let (code, out) = run_cli(
            &[
                "check",
                "--spec",
                "(x > 0) -> [y = 0, y > z)",
                "--history",
                "1",
            ],
            Some(XYZ_TRACE),
        );
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("counterexample trail (last 3 steps)"), "{out}");

        // Enough history for the whole run: the full counterexample, as
        // without the flag.
        let argv = ["check", "--spec", "(x > 0) -> [y = 0, y > z)"];
        let (_, full) = run_cli(&argv, Some(XYZ_TRACE));
        let (code, out) = run_cli(&[&argv[..], &["--history", "8"]].concat(), Some(XYZ_TRACE));
        assert_eq!(code, 1, "{out}");
        assert_eq!(out, full);
        assert!(out.contains("counterexample run (4 events)"), "{out}");
        assert!(out.contains("(initial)"), "{out}");
    }

    #[test]
    fn check_saturated_run_count_renders_as_saturated() {
        // C(140, 70) ≈ 9.38e40 runs exceed u128: the count saturates and
        // says so instead of printing C(140, 70) mod 2^128.
        let mut trace = String::new();
        for i in 1..=70 {
            let _ = writeln!(trace, "T0 write a {i}\nT1 write b {i}");
        }
        let (code, out) = run_cli(&["check", "--spec", "a >= 0 /\\ b >= 0"], Some(&trace));
        assert_eq!(code, 0, "{out}");
        assert!(
            out.contains("lattice: 5041 states, 141 levels (peak width 71)"),
            "{out}"
        );
        assert!(
            out.contains("runs: at least 2^128-1 (saturated) total, 0 violating"),
            "{out}"
        );
        assert!(
            !out.contains("243318794581963752357877536770039516200"),
            "{out}"
        );
    }

    #[test]
    fn check_rejects_bad_spec_and_trace() {
        let (code, out) = run_cli(&["check", "--spec", "x >"], Some(XYZ_TRACE));
        assert_eq!(code, 2);
        assert!(out.contains("parse error"), "{out}");
        let (code, _) = run_cli(&["check", "--spec", "x > 0"], Some("garbage\n"));
        assert_eq!(code, 2);
        let (code, _) = run_cli(&["check"], Some(XYZ_TRACE));
        assert_eq!(code, 2);
        let (code, _) = run_cli(&["check", "--spec", "x > 0"], None);
        assert_eq!(code, 2);
    }

    #[test]
    fn check_rejects_a_bad_spec_without_ltl() {
        let (code, trace) = run_cli(&["gen", "racy"], None);
        assert_eq!(code, 0);
        for selection in ["race", "atomicity", "race,atomicity"] {
            for json in [false, true] {
                let mut argv = vec!["check", "--analysis", selection, "--spec", "x >"];
                if json {
                    argv.push("--json");
                }
                let (code, out) = run_cli(&argv, Some(&trace));
                assert_eq!(code, 2, "{argv:?}: {out}");
                assert!(out.contains("specification error"), "{argv:?}: {out}");
            }
        }
        // A valid spec changes nothing for a selection without ltl.
        let (code, out) = run_cli(
            &["check", "--analysis", "race", "--spec", "counter >= 0"],
            Some(&trace),
        );
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("race on counter"), "{out}");
    }

    #[test]
    fn demo_xyz_matches_paper() {
        let (code, out) = run_cli(&["demo", "xyz"], None);
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("7 states"), "{out}");
    }

    #[test]
    fn demo_landing_matches_paper() {
        let (code, out) = run_cli(&["demo", "landing"], None);
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("6 states"), "{out}");
        assert!(out.contains("2 violating"), "{out}");
    }

    #[test]
    fn gen_then_check_round_trips() {
        let (code, trace) = run_cli(&["gen", "xyz"], None);
        assert_eq!(code, 0);
        let (code, out) = run_cli(
            &["check", "--spec", "(x > 0) -> [y = 0, y > z)"],
            Some(&trace),
        );
        assert_eq!(code, 1, "{out}");
    }

    #[test]
    fn check_analysis_race_round_trips() {
        let (code, trace) = run_cli(&["gen", "racy"], None);
        assert_eq!(code, 0);
        let (code, out) = run_cli(&["check", "--analysis", "race"], Some(&trace));
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("race on counter"), "{out}");
        assert!(out.contains("verdict: predicted"), "{out}");

        let (code, locked) = run_cli(&["gen", "racy-locked"], None);
        assert_eq!(code, 0);
        let (code, out) = run_cli(
            &["check", "--analysis", "race", "--locks", "m"],
            Some(&locked),
        );
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("race: 0 races found"), "{out}");
    }

    #[test]
    fn check_analysis_atomicity_round_trips() {
        let (code, trace) = run_cli(&["gen", "nonatomic"], None);
        assert_eq!(code, 0);
        let (code, out) = run_cli(
            &["check", "--analysis", "atomicity", "--locks", "m"],
            Some(&trace),
        );
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("non-atomic on balance"), "{out}");

        let (code, guarded) = run_cli(&["gen", "nonatomic-locked"], None);
        assert_eq!(code, 0);
        let (code, out) = run_cli(
            &["check", "--analysis", "atomicity", "--locks", "m"],
            Some(&guarded),
        );
        assert_eq!(code, 0, "{out}");
    }

    #[test]
    fn check_analysis_suite_json_shape() {
        let (code, trace) = run_cli(&["gen", "nonatomic"], None);
        assert_eq!(code, 0);
        let (code, out) = run_cli(
            &[
                "check",
                "--analysis",
                "ltl,race,atomicity",
                "--locks",
                "m",
                "--spec",
                "balance >= 0",
                "--json",
            ],
            Some(&trace),
        );
        assert_eq!(code, 1, "{out}");
        let v = jmpax_telemetry::json::parse(out.trim()).expect("valid JSON");
        let check = v.get("check").expect("check key");
        assert_eq!(
            check.get("satisfied").and_then(|s| s.as_bool()),
            Some(false)
        );
        let analyses = check.get("analyses").and_then(|a| a.as_array()).unwrap();
        let names: Vec<_> = analyses
            .iter()
            .map(|a| a.get("name").and_then(|n| n.as_str()).unwrap().to_owned())
            .collect();
        assert_eq!(names, ["ltl", "race", "atomicity"], "{out}");
        // The ltl analysis passes (balance never goes negative); the
        // atomicity checker is what fails the suite.
        assert_eq!(
            analyses[0].get("satisfied").and_then(|s| s.as_bool()),
            Some(true)
        );
        assert_eq!(
            analyses[2].get("satisfied").and_then(|s| s.as_bool()),
            Some(false)
        );
    }

    const BANK_SPEC: &str = "start(notified = 1) -> balance >= 150";

    #[test]
    fn check_suite_ltl_section_names_variables_and_counts_levels() {
        let (_, trace) = run_cli(&["gen", "bank"], None);
        let (code, plain) = run_cli(&["check", "--spec", BANK_SPEC], Some(&trace));
        assert_eq!(code, 1, "{plain}");
        assert!(plain.starts_with("lattice: 4 states, 3 levels"), "{plain}");
        let (code, out) = run_cli(
            &["check", "--analysis", "ltl,race", "--spec", BANK_SPEC],
            Some(&trace),
        );
        assert_eq!(code, 1, "{out}");
        assert!(out.starts_with("ltl: 4 states in 3 levels\n"), "{out}");
        assert!(
            out.contains("  violation at cut S0,1 in state <balance=0,notified=1>\n"),
            "{out}"
        );
    }

    #[test]
    fn check_json_reports_the_ltl_lattice_of_the_text_report() {
        // The xyz trace has reads: instrumenting every access would give
        // 24 states instead of the text report's 7.
        let (_, bank) = run_cli(&["gen", "bank"], None);
        let xyz_spec = "(x > 0) -> [y = 0, y > z)";
        for (trace, spec, states) in [(&bank[..], BANK_SPEC, 4), (XYZ_TRACE, xyz_spec, 7)] {
            let (_, text) = run_cli(&["check", "--spec", spec], Some(trace));
            let prefix = format!("lattice: {states} states, ");
            assert!(text.starts_with(&prefix), "{text}");
            let levels: u64 = text[prefix.len()..]
                .split(' ')
                .next()
                .and_then(|n| n.parse().ok())
                .expect("the text report counts levels");
            for argv in [
                &["check", "--spec", spec, "--json"][..],
                &["check", "--analysis", "ltl", "--spec", spec, "--json"],
            ] {
                let (code, out) = run_cli(argv, Some(trace));
                assert_eq!(code, 1, "{out}");
                let v = jmpax_telemetry::json::parse(out.trim()).expect("valid JSON");
                let analyses = v
                    .get("check")
                    .and_then(|c| c.get("analyses"))
                    .and_then(|a| a.as_array())
                    .expect("check.analyses");
                assert_eq!(analyses.len(), 1, "{out}");
                assert_eq!(
                    analyses[0].get("name").and_then(|n| n.as_str()),
                    Some("ltl")
                );
                assert_eq!(
                    analyses[0].get("states_explored").and_then(|n| n.as_u64()),
                    Some(states),
                    "{out}"
                );
                assert_eq!(
                    analyses[0].get("levels").and_then(|n| n.as_u64()),
                    Some(levels),
                    "{out}"
                );
            }
        }
    }

    /// A fresh path under the system temp directory for one test's output.
    fn temp_path(name: &str) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!("jmpax-{}-{name}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn check_dot_writes_the_lattice_on_every_path() {
        let (_, bank) = run_cli(&["gen", "bank"], None);
        let (_, racy) = run_cli(&["gen", "racy"], None);
        let cases: [(&str, &[&str], &str); 4] = [
            ("plain.dot", &["check", "--spec", BANK_SPEC], &bank),
            (
                "ltl-json.dot",
                &["check", "--spec", BANK_SPEC, "--json"],
                &bank,
            ),
            ("race.dot", &["check", "--analysis", "race"], &racy),
            (
                "suite.dot",
                &["check", "--analysis", "ltl,race", "--spec", BANK_SPEC],
                &bank,
            ),
        ];
        for (name, argv, trace) in cases {
            let path = temp_path(name);
            let path_arg = path.to_str().expect("utf-8 temp path");
            let mut argv = argv.to_vec();
            argv.extend(["--dot", path_arg]);
            let (code, out) = run_cli(&argv, Some(trace));
            assert_eq!(code, 1, "{argv:?}: {out}");
            let dot = std::fs::read_to_string(&path).unwrap_or_default();
            let _ = std::fs::remove_file(&path);
            assert!(dot.starts_with("digraph"), "{argv:?} wrote no lattice");
            if argv.contains(&"--json") {
                assert!(jmpax_telemetry::json::parse(out.trim()).is_ok(), "{out}");
            } else {
                assert!(
                    out.ends_with(&format!("lattice written to {path_arg}\n")),
                    "{argv:?}: {out}"
                );
            }
            // An LTL violation is highlighted; a race-only run has none.
            assert_eq!(
                dot.contains("fillcolor"),
                argv.contains(&"--spec"),
                "{argv:?}: {dot}"
            );
        }
    }

    #[test]
    fn check_analysis_rejects_unknown_names_and_missing_spec() {
        let (code, out) = run_cli(
            &["check", "--analysis", "race,taint"],
            Some("init x = 0\nT0 write x 1\n"),
        );
        assert_eq!(code, 2, "{out}");
        assert!(out.contains("unknown analysis `taint`"), "{out}");

        // An empty list selects ltl alone, as no flag does.
        let argv = ["check", "--spec", "x >= 0"];
        let plain = run_cli(&argv, Some("init x = 0\nT0 write x 1\n"));
        let empty = run_cli(
            &[&argv[..], &["--analysis", ""]].concat(),
            Some("init x = 0\nT0 write x 1\n"),
        );
        assert_eq!(empty, plain);
        assert_eq!(plain.0, 0, "{}", plain.1);

        // ltl in the selection needs a spec; race alone does not.
        let (code, out) = run_cli(
            &["check", "--analysis", "ltl,race"],
            Some("init x = 0\nT0 write x 1\n"),
        );
        assert_eq!(code, 2, "{out}");
        assert!(out.contains("missing --spec"), "{out}");
        let (code, out) = run_cli(
            &["check", "--analysis", "race"],
            Some("init x = 0\nT0 write x 1\n"),
        );
        assert_eq!(code, 0, "{out}");
    }

    const RACY_TRACE: &str = "\
T0 write x 1
T1 write y 1
T1 read x
";

    const LOCKED_TRACE: &str = "\
T0 write m 1
T0 write x 1
T0 write m 0
T1 write m 1
T1 read x
T1 write m 0
";

    #[test]
    fn races_detected_and_clean_with_locks() {
        let race = ["check", "--analysis", "race"];
        let (code, out) = run_cli(&race, Some(RACY_TRACE));
        assert_eq!(code, 1, "{out}");
        assert!(
            out.contains("race on x: T0 write #1 vs T1 read #2"),
            "{out}"
        );

        let (code, out) = run_cli(&[&race[..], &["--locks", "m"]].concat(), Some(LOCKED_TRACE));
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("race: 0 races found"), "{out}");

        // Without declaring the lock, the same trace races.
        let (code, _) = run_cli(&race, Some(LOCKED_TRACE));
        assert_eq!(code, 1);

        let (code, out) = run_cli(
            &[&race[..], &["--locks", "nosuch"]].concat(),
            Some(RACY_TRACE),
        );
        assert_eq!(code, 2);
        assert!(out.contains("not in the trace"), "{out}");

        // Race detection is `check --analysis race`; `races` is no command.
        let (code, out) = run_cli(&["races"], Some(RACY_TRACE));
        assert_eq!(code, 2);
        assert!(out.starts_with("unknown command `races`"), "{out}");
    }

    const DEADLOCK_TRACE: &str = "\
T0 write a 1
T0 write b 1
T0 write b 0
T0 write a 0
T1 write b 1
T1 write a 1
T1 write a 0
T1 write b 0
";

    #[test]
    fn deadlocks_predicted_from_cycle() {
        let (code, out) = run_cli(&["deadlocks", "--locks", "a,b"], Some(DEADLOCK_TRACE));
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("potential deadlock"), "{out}");
        assert!(out.contains("across 2 threads"), "{out}");

        // Locks required.
        let (code, _) = run_cli(&["deadlocks"], Some(DEADLOCK_TRACE));
        assert_eq!(code, 2);
    }

    #[test]
    fn check_rejects_a_malformed_frontier_cap() {
        // `1k` is not a number: running unbounded and reporting Exact
        // would claim a bound that was never applied.
        let spec = "(x > 0) -> [y = 0, y > z)";
        for extra in [&[][..], &["--analysis", "ltl,race"]] {
            let mut argv = vec!["check", "--spec", spec, "--frontier-cap", "1k"];
            argv.extend_from_slice(extra);
            let (code, out) = run_cli(&argv, Some(XYZ_TRACE));
            assert_eq!(code, 2, "{out}");
            assert_eq!(
                out, "check: --frontier-cap expects a state count, got `1k`\n",
                "{argv:?}"
            );
        }
        let (code, out) = run_cli(
            &["check", "--spec", spec, "--history", "all"],
            Some(XYZ_TRACE),
        );
        assert_eq!(code, 2, "{out}");
        assert!(out.contains("--history expects"), "{out}");
    }

    #[test]
    fn chaos_rejects_a_malformed_seed() {
        let (code, out) = run_cli(&["chaos", "bank", "--seed", "x"], None);
        assert_eq!(code, 2, "{out}");
        assert_eq!(out, "chaos: --seed expects an unsigned integer, got `x`\n");
        for key in ["--reorder-window", "--stall-budget"] {
            let (code, out) = run_cli(&["chaos", "bank", key, "-1"], None);
            assert_eq!(code, 2, "{out}");
            assert!(out.contains(&format!("{key} expects")), "{out}");
        }
        let (code, out) = run_cli(&["chaos", "bank", "--drop", "2.0"], None);
        assert_eq!(code, 2, "{out}");
        assert_eq!(out, "chaos: --drop expects a rate in [0, 1], got `2.0`\n");
    }

    #[test]
    fn serve_rejects_bad_arguments_before_binding() {
        let (code, out) = run_cli(&["serve"], None);
        assert_eq!(code, 2, "{out}");
        assert!(out.contains("missing --spec"), "{out}");

        let (code, out) = run_cli(&["serve", "--spec", "x > 0", "--port", "ninety"], None);
        assert_eq!(code, 2, "{out}");
        assert!(out.contains("--port expects"), "{out}");

        // A bad spec fails at bind time, before any tenant connects.
        let (code, out) = run_cli(
            &["serve", "--spec", "x >", "--port", "0", "--sessions", "0"],
            None,
        );
        assert_eq!(code, 2, "{out}");
        assert!(out.contains("parse error"), "{out}");
    }

    #[test]
    fn every_listed_workload_resolves() {
        let names = missing_workload("gen");
        for &(name, _) in &WORKLOADS {
            assert!(names.contains(name), "{name} missing from: {names}");
            assert!(workload_by_name(name).is_some(), "{name}");
        }
        assert_eq!(
            names,
            "gen: expected a workload name (landing|xyz|bank|bank-locked|dining|handoff\
             |peterson|racy|racy-locked|nonatomic|nonatomic-locked)\n"
        );
        assert!(workload_by_name("nope").is_none());
        for command in ["demo", "chaos", "trace", "gen", "load"] {
            let (code, out) = run_cli(&[command], None);
            assert_eq!(code, 2, "{out}");
            assert_eq!(out, missing_workload(command));
        }
    }

    #[test]
    fn only_a_report_with_counterexamples_keeps_every_level() {
        let config = |argv: &[&str], counterexamples| {
            let args = Args::parse(argv.iter().map(ToString::to_string));
            analysis_config(&args, counterexamples).unwrap().history
        };
        assert_eq!(config(&["check"], true), None);
        assert_eq!(config(&["check"], false), Some(0));
        for counterexamples in [true, false] {
            assert_eq!(
                config(&["check", "--history", "3"], counterexamples),
                Some(3)
            );
        }
    }

    #[test]
    fn usage_names_every_workload() {
        let names: Vec<&str> = WORKLOADS.iter().map(|&(name, _)| name).collect();
        for command in ["demo", "chaos", "load", "trace", "gen"] {
            let head = format!("    jmpax {command} <");
            let start = USAGE.find(&head).expect("a usage line") + head.len();
            let list = &USAGE[start..start + USAGE[start..].find('>').unwrap()];
            let listed: Vec<&str> = list.split('|').map(str::trim).collect();
            assert_eq!(listed, names, "{command}");
        }
    }

    #[test]
    fn load_rejects_bad_arguments() {
        let (code, out) = run_cli(&["load"], None);
        assert_eq!(code, 2, "{out}");

        let (code, out) = run_cli(&["load", "nope", "--connect", "127.0.0.1:1"], None);
        assert_eq!(code, 2, "{out}");
        assert!(out.contains("unknown workload"), "{out}");

        let (code, out) = run_cli(&["load", "xyz"], None);
        assert_eq!(code, 2, "{out}");
        assert!(out.contains("missing --connect"), "{out}");

        let (code, out) = run_cli(
            &["load", "xyz", "--connect", "127.0.0.1:1", "--drop", "2.0"],
            None,
        );
        assert_eq!(code, 2, "{out}");
        assert!(out.contains("--drop expects a rate"), "{out}");
    }

    #[test]
    fn serve_and_load_round_trip_in_process() {
        use jmpax_observer::{ServeConfig, Server};

        // A daemon from the library API, a loader through the CLI: the
        // CLI's handshake construction must interoperate byte-for-byte.
        let server = Server::bind(0, ServeConfig::new("(x > 0) -> [y = 0, y > z)")).expect("bind");
        let addr = server.local_addr().unwrap();
        let handle = server.spawn();

        let (code, out) = run_cli(
            &[
                "load",
                "xyz",
                "--connect",
                &addr.to_string(),
                "--sessions",
                "3",
                "--seed",
                "9",
                "--corrupt",
                "0.05",
                "--reorder-window",
                "2",
            ],
            None,
        );
        assert_eq!(code, 0, "{out}");
        assert!(
            out.contains("load: 3/3 verdicts received, 0 failed"),
            "{out}"
        );
        assert!(out.contains("\"verdict\":"), "{out}");

        let summary = handle.stop();
        assert_eq!(summary.outcomes.len(), 3);
        assert_eq!(summary.errors(), 0, "{out}");
        // Per-session seeding: tenants are distinct.
        let mut tenants: Vec<_> = summary.outcomes.iter().map(|o| o.tenant.clone()).collect();
        tenants.sort();
        tenants.dedup();
        assert_eq!(tenants.len(), 3);
    }

    #[test]
    fn top_rejects_bad_arguments() {
        let (code, out) = run_cli(&["top"], None);
        assert_eq!(code, 2, "{out}");
        assert!(out.contains("missing --connect"), "{out}");

        let (code, out) = run_cli(
            &["top", "--connect", "127.0.0.1:1", "--interval-ms", "soon"],
            None,
        );
        assert_eq!(code, 2, "{out}");
        assert!(out.contains("--interval-ms expects"), "{out}");
    }

    #[test]
    fn top_reports_unreachable_daemon() {
        // Port 1 is essentially never listening; --once must fail fast
        // with a transport error, not hang or panic.
        let (code, out) = run_cli(&["top", "--connect", "127.0.0.1:1", "--once"], None);
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("top: cannot connect"), "{out}");
    }

    #[test]
    fn tenants_table_renders_all_columns() {
        let body = "{\"active\":1,\"completed\":1,\"tenants\":[\
            {\"tenant\":\"t-live\",\"session\":0,\"state\":\"running\",\
             \"frames_ok\":0,\"messages\":0,\"bytes\":2048,\"bytes_per_sec\":512,\
             \"gaps_skipped\":0,\"violations\":0,\"evicted\":false,\
             \"age_ms\":4200,\"last_transition\":\"handshake_ok\",\"since_transition_ms\":350},\
            {\"tenant\":\"t-done\",\"session\":1,\"state\":\"done\",\"verdict\":\"Degraded\",\
             \"frames_ok\":9,\"messages\":8,\"bytes\":4096,\"bytes_per_sec\":1024,\
             \"gaps_skipped\":3,\"violations\":1,\"evicted\":false,\
             \"age_ms\":9000,\"last_transition\":\"verdict_degraded\",\"since_transition_ms\":1500}\
        ]}";
        let table = render_tenants_table("127.0.0.1:9", body).expect("renders");
        assert!(table.contains("1 active, 1 completed"), "{table}");
        assert!(table.contains("t-live"), "{table}");
        assert!(table.contains("4.2s"), "{table}");
        assert!(table.contains("350ms"), "{table}");
        assert!(table.contains("Degraded"), "{table}");
        assert!(table.contains("verdict_degraded"), "{table}");
        // Running session has no verdict: the column shows a dash.
        let live_row = table.lines().find(|l| l.contains("t-live")).unwrap();
        assert!(live_row.contains(" - "), "{live_row}");

        assert!(render_tenants_table("127.0.0.1:9", "not json").is_err());
    }

    #[test]
    fn gen_unknown_workload() {
        let (code, _) = run_cli(&["gen", "nope"], None);
        assert_eq!(code, 2);
        let (code, _) = run_cli(&["gen"], None);
        assert_eq!(code, 2);
    }
}
