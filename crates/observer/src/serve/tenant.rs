//! One tenant session: a reader thread that owns the socket's read side
//! and a worker thread that owns the analysis, joined by a bounded queue.
//!
//! The split is the isolation boundary. The reader only does I/O — it can
//! always notice timeouts, shutdown, and eviction no matter how expensive
//! this tenant's lattice turns out to be. The worker does the analysis
//! and, once it is complete, writes the verdict line: it touches the
//! socket only after end of stream, when the reader has stopped reading,
//! and only for that one best-effort write — the same exposure the reader
//! had when it wrote the verdict. A wedged client therefore cannot stall
//! the analysis, and a panicking analysis is still contained by the
//! thread boundary: the reader joins the worker and, when it died, writes
//! an `Error` verdict itself and the daemon keeps serving.
//!
//! The worker analyses *online*, as the paper's observer does: it builds
//! the analysis suite at handshake, and after every chunk it pushes each
//! message the reassembler has made causally ready. At end of stream only
//! the tail — messages still waiting on a gap — is left to analyse before
//! the verdict. Writing the verdict from the worker takes one thread
//! hand-off (the reader waking on the worker's exit) off that tail.
//!
//! Every stage is observable per tenant: the pipeline counters carry a
//! `tenant` label, each transition goes to the ops log and the session's
//! flight recorder, and a verdict that leaves `Exact` ships the ring as
//! evidence.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, TrySendError};
use std::sync::Arc;
use std::time::Duration;

use jmpax_core::{AnalysisKind, SymbolTable};
use jmpax_instrument::tcp::SessionHello;
use jmpax_instrument::ResilientFrameDecoder;
use jmpax_lattice::Exactness;
use jmpax_spec::{parse, Monitor, ProgramState};
use jmpax_telemetry::{Counter, Gauge, Stage};

use super::flight::FlightRecorder;
use super::ops::{LogLevel, LogValue};
use super::status::TenantTable;
use super::{AnalysisOutcome, ExactnessVerdict, ServeConfig, ShedPolicy, TenantOutcome};
use crate::pipeline::{Pipeline, PipelineConfig};

/// `serve.verdict_state{tenant=…}` gauge values.
const STATE_RUNNING: u64 = 0;
const STATE_EXACT: u64 = 1;
const STATE_DEGRADED: u64 = 2;
const STATE_ERROR: u64 = 3;

/// What flows through a session's bounded queue.
enum WorkItem<'t> {
    /// Raw bytes read from the socket.
    Chunk(Vec<u8>),
    /// End of input. Eviction and shed chunks are the reader's knowledge;
    /// they ride along so the worker can fold them into the verdict, with
    /// the running `serve.eof_to_verdict_ns` stage, which ends when the
    /// verdict line is written.
    Eof {
        evicted: bool,
        shed_chunks: u64,
        tail: Stage<'t>,
    },
}

/// What the analysis hands to the verdict.
struct WorkerResult {
    exactness: Exactness,
    satisfied: bool,
    violations: usize,
    frames_ok: u64,
    messages: u64,
    gaps_skipped: u64,
    analyses: Vec<AnalysisOutcome>,
}

/// Everything publishing a session's verdict touches. The worker
/// publishes; the reader does only when the worker died.
struct Verdicts<'a> {
    config: &'a ServeConfig,
    tenants: &'a TenantTable,
    flight: &'a FlightRecorder,
    stream: &'a TcpStream,
    tenant: &'a str,
    session: u64,
    state_gauge: &'a Gauge,
    depth_gauge: &'a Gauge,
}

impl Verdicts<'_> {
    /// The outcome of a completed analysis, degraded by what the reader
    /// shed or cut short.
    fn analysed(&self, result: WorkerResult, evicted: bool, shed_chunks: u64) -> TenantOutcome {
        let tel = &self.config.telemetry;
        let mut exactness = result.exactness;
        if shed_chunks > 0 {
            exactness = exactness.combine(Exactness::degraded(0, shed_chunks));
        }
        if evicted {
            exactness = exactness.combine(Exactness::degraded(0, 1));
        }
        let verdict = if exactness.is_exact() {
            tel.counter("serve.verdicts_exact").inc();
            self.state_gauge.set(STATE_EXACT);
            ExactnessVerdict::Exact
        } else {
            tel.counter("serve.verdicts_degraded").inc();
            self.state_gauge.set(STATE_DEGRADED);
            self.config.ops_log.event(
                LogLevel::Warn,
                "degrade",
                Some(self.tenant),
                Some(self.session),
                &[("exactness", LogValue::Str(exactness.to_string()))],
            );
            ExactnessVerdict::Degraded(exactness)
        };
        TenantOutcome {
            tenant: self.tenant.to_string(),
            session: self.session,
            verdict,
            satisfied: result.satisfied,
            violations: result.violations,
            frames_ok: result.frames_ok,
            messages: result.messages,
            evicted,
            shed_chunks,
            gaps_skipped: result.gaps_skipped,
            analyses: result.analyses,
            flight: Vec::new(),
            flight_dropped: 0,
        }
    }

    /// The outcome of a session whose worker died.
    fn died(&self, evicted: bool, shed_chunks: u64) -> TenantOutcome {
        let tel = &self.config.telemetry;
        tel.counter("serve.worker_panics").inc();
        tel.counter("serve.verdicts_error").inc();
        self.state_gauge.set(STATE_ERROR);
        self.config.ops_log.event(
            LogLevel::Error,
            "panic",
            Some(self.tenant),
            Some(self.session),
            &[],
        );
        TenantOutcome {
            tenant: self.tenant.to_string(),
            session: self.session,
            verdict: ExactnessVerdict::Error("analysis worker died".to_string()),
            satisfied: false,
            violations: 0,
            frames_ok: 0,
            messages: 0,
            evicted,
            shed_chunks,
            gaps_skipped: 0,
            analyses: Vec::new(),
            flight: Vec::new(),
            flight_dropped: 0,
        }
    }

    /// Records `outcome` everywhere it is observed and writes it back to
    /// the client as one best-effort JSON line.
    fn publish(&self, outcome: TenantOutcome) -> TenantOutcome {
        let ops = &self.config.ops_log;
        // The moment a session leaves Exact, the flight recorder becomes
        // the evidence: dump it into the ops log and attach it to the
        // outcome.
        let outcome = if matches!(outcome.verdict, ExactnessVerdict::Exact) {
            outcome
        } else {
            let dump = self.flight.dump();
            ops.event(
                LogLevel::Warn,
                "flight",
                Some(self.tenant),
                Some(self.session),
                &[
                    ("verdict", LogValue::from(outcome.verdict.label())),
                    ("dump", LogValue::Raw(dump.to_json())),
                ],
            );
            TenantOutcome {
                flight: dump.entries,
                flight_dropped: dump.dropped,
                ..outcome
            }
        };
        ops.event(
            LogLevel::Info,
            "verdict",
            Some(self.tenant),
            Some(self.session),
            &[
                ("verdict", LogValue::from(outcome.verdict.label())),
                ("satisfied", LogValue::Bool(outcome.satisfied)),
                ("violations", LogValue::from(outcome.violations)),
                ("messages", LogValue::U64(outcome.messages)),
            ],
        );
        self.tenants.complete(&outcome);
        self.depth_gauge.set(0);
        let mut stream = self.stream;
        let _ = writeln!(stream, "{}", outcome.to_json());
        let _ = stream.flush();
        outcome
    }
}

/// Serves one accepted connection end-to-end and returns the outcome that
/// was (best-effort) written back to the client. `None` means the
/// connection never completed a handshake — it was rejected, not served.
pub(super) fn run_session(
    mut stream: TcpStream,
    session: u64,
    config: &Arc<ServeConfig>,
    spec_var_names: &Arc<Vec<String>>,
    stopping: &Arc<AtomicBool>,
    tenants: &TenantTable,
) -> Option<TenantOutcome> {
    let tel = &config.telemetry;
    let ops = &config.ops_log;

    // --- Handshake, under its own deadline. -----------------------------
    let _ = stream.set_read_timeout(Some(config.handshake_timeout));
    let hello = match SessionHello::decode(&mut stream) {
        Ok(h) => h,
        Err(err) => {
            tel.counter("serve.handshake_errors").inc();
            ops.event(
                LogLevel::Error,
                "handshake_failed",
                None,
                Some(session),
                &[("error", LogValue::Str(err.to_string()))],
            );
            reject(&mut stream, session, &format!("bad handshake: {err}"));
            return None;
        }
    };
    // --- Analysis selection: the handshake wins, config is the default. -
    // Unknown codes are a handshake error — the client learns *which*
    // code via a clean `Error` verdict, and no session starts.
    let mut kinds: Vec<AnalysisKind> = Vec::new();
    for &code in &hello.analyses {
        match AnalysisKind::from_code(code) {
            Ok(kind) => {
                if !kinds.contains(&kind) {
                    kinds.push(kind);
                }
            }
            Err(code) => {
                tel.counter("serve.handshake_errors").inc();
                ops.event(
                    LogLevel::Error,
                    "handshake_failed",
                    Some(&hello.tenant),
                    Some(session),
                    &[(
                        "error",
                        LogValue::Str(format!("unsupported analysis code {code}")),
                    )],
                );
                reject(
                    &mut stream,
                    session,
                    &format!("unsupported analysis code {code}"),
                );
                return None;
            }
        }
    }
    if kinds.is_empty() {
        kinds = if config.analyses.is_empty() {
            vec![AnalysisKind::Ltl]
        } else {
            config.analyses.clone()
        };
    }
    let needs_ltl = kinds.contains(&AnalysisKind::Ltl);

    let declared: Vec<&str> = hello.vars.iter().map(|(n, _)| n.as_str()).collect();
    if needs_ltl {
        if let Some(missing) = spec_var_names
            .iter()
            .find(|n| !declared.contains(&n.as_str()))
        {
            tel.counter("serve.handshake_errors").inc();
            ops.event(
                LogLevel::Error,
                "handshake_failed",
                Some(&hello.tenant),
                Some(session),
                &[(
                    "error",
                    LogValue::Str(format!("missing spec variable {missing:?}")),
                )],
            );
            reject(
                &mut stream,
                session,
                &format!("handshake does not declare spec variable {missing:?}"),
            );
            return None;
        }
    }

    // --- Per-tenant monitor, initial state, and analysis config. --------
    // Interning the declared variables in handshake order reconstructs the
    // client's `VarId` assignment, so its encoded events resolve to the
    // right variables here.
    let mut symbols = SymbolTable::new();
    let mut initial_map = BTreeMap::new();
    for (name, value) in &hello.vars {
        let id = symbols.intern(name);
        initial_map.insert(id, *value);
    }
    // The spec was validated at bind time; failures here would mean the
    // tenant's declarations broke parsing in a way the coverage check
    // missed — still the tenant's problem, not the daemon's. Sessions
    // that did not select the LTL analysis never parse the spec.
    let monitor = if needs_ltl {
        match parse(&config.spec, &mut symbols) {
            Ok(formula) => match formula.monitor() {
                Ok(monitor) => Some(monitor.with_telemetry(tel)),
                Err(err) => {
                    tel.counter("serve.handshake_errors").inc();
                    reject(&mut stream, session, &format!("spec rejected: {err}"));
                    return None;
                }
            },
            Err(err) => {
                tel.counter("serve.handshake_errors").inc();
                reject(&mut stream, session, &format!("spec rejected: {err}"));
                return None;
            }
        }
    } else {
        None
    };
    let initial = ProgramState::from_map(initial_map);
    let analysis = config
        .analysis
        .with_requested_frontier_cap(hello.frontier_cap as usize);

    tel.counter("serve.sessions_accepted").inc();

    // --- Per-tenant observability. --------------------------------------
    // The labeled series are registered *before* the tenant enters the
    // status table, so anything `/tenants` lists is already queryable in
    // `/metrics`.
    let tenant = hello.tenant.clone();
    let labels: [(&str, &str); 1] = [("tenant", tenant.as_str())];
    let depth_gauge = tel.gauge_with("serve.queue_depth", &labels);
    let frames_labeled = tel.counter_with("serve.frames_decoded", &labels);
    let shed_labeled = tel.counter_with("serve.chunks_shed", &labels);
    let gaps_labeled = tel.counter_with("serve.gaps_skipped", &labels);
    let analyzed_labeled = tel.counter_with("serve.messages_analyzed", &labels);
    let eof_to_verdict = tel.histogram_with("serve.eof_to_verdict_ns", &labels);
    let state_gauge = tel.gauge_with("serve.verdict_state", &labels);
    state_gauge.set(STATE_RUNNING);
    tenants.insert_active(&tenant, session);
    let flight = FlightRecorder::new(config.flight_capacity);
    flight.transition("handshake_ok");
    tenants.transition(session, "handshake_ok");
    ops.event(
        LogLevel::Info,
        "handshake",
        Some(&tenant),
        Some(session),
        &[
            ("threads", LogValue::U64(u64::from(hello.threads))),
            ("vars", LogValue::U64(hello.vars.len() as u64)),
        ],
    );

    let depth = AtomicU64::new(0);
    let verdicts = Verdicts {
        config,
        tenants,
        flight: &flight,
        stream: &stream,
        tenant: &tenant,
        session,
        state_gauge: &state_gauge,
        depth_gauge: &depth_gauge,
    };
    let (tx, rx) = std::sync::mpsc::sync_channel::<WorkItem<'_>>(config.queue_depth.max(1));
    let threads = hello.threads as usize;

    std::thread::scope(|s| {
        // --- Worker thread: owns the analysis and writes the verdict. ---
        // The receiver moves in, so a dying worker disconnects the queue
        // and the reader's next send fails instead of blocking.
        let worker = s.spawn(|| {
            run_worker(
                config,
                analysis,
                &kinds,
                monitor,
                &initial,
                threads,
                rx,
                &depth,
                &frames_labeled,
                &gaps_labeled,
                &analyzed_labeled,
                &verdicts,
            )
        });

        // --- Reader loop: socket → bounded queue. -----------------------
        let mut reader = &stream;
        let _ = reader.set_read_timeout(Some(config.read_timeout));
        let mut evicted = false;
        let mut shed_chunks = 0u64;
        let mut bytes_ingested = 0u64;
        let mut idle = Duration::ZERO;
        let mut chunk = [0u8; 8192];
        loop {
            use std::io::Read as _;
            match reader.read(&mut chunk) {
                Ok(0) => {
                    flight.transition("eof");
                    break; // clean end of stream
                }
                Ok(n) => {
                    idle = Duration::ZERO;
                    tel.counter("serve.bytes_ingested").add(n as u64);
                    bytes_ingested += n as u64;
                    let item = WorkItem::Chunk(chunk[..n].to_vec());
                    // The counter is raised *before* the send: the worker
                    // decrements after `recv`, and crediting afterwards
                    // would race it below zero. Paths where the item never
                    // enters the queue take the credit back.
                    let claimed = depth.fetch_add(1, Ordering::Relaxed) + 1;
                    match config.shed {
                        ShedPolicy::Block => {
                            if tx.send(item).is_err() {
                                depth.fetch_sub(1, Ordering::Relaxed);
                                break; // the worker died
                            }
                            depth_gauge.set(claimed);
                        }
                        ShedPolicy::DropNewest => match tx.try_send(item) {
                            Ok(()) => {
                                depth_gauge.set(claimed);
                            }
                            Err(TrySendError::Full(_)) => {
                                depth.fetch_sub(1, Ordering::Relaxed);
                                shed_chunks += 1;
                                tel.counter("serve.chunks_shed").inc();
                                shed_labeled.inc();
                                tel.counter("serve.bytes_shed").add(n as u64);
                                flight.shed(n as u64);
                                ops.event(
                                    LogLevel::Debug,
                                    "shed",
                                    Some(&tenant),
                                    Some(session),
                                    &[("bytes", LogValue::U64(n as u64))],
                                );
                            }
                            Err(TrySendError::Disconnected(_)) => {
                                depth.fetch_sub(1, Ordering::Relaxed);
                                break; // the worker died
                            }
                        },
                    }
                    tenants.update(session, |s| {
                        s.bytes = bytes_ingested;
                        s.shed_chunks = shed_chunks;
                    });
                }
                Err(err)
                    if err.kind() == std::io::ErrorKind::WouldBlock
                        || err.kind() == std::io::ErrorKind::TimedOut =>
                {
                    tel.counter("serve.read_timeouts").inc();
                    idle += config.read_timeout;
                    if idle >= config.idle_timeout {
                        tel.counter("serve.tenants_evicted").inc();
                        evicted = true;
                        flight.transition("evicted_idle");
                        tenants.transition(session, "evicted_idle");
                        ops.event(
                            LogLevel::Warn,
                            "evict",
                            Some(&tenant),
                            Some(session),
                            &[("reason", LogValue::from("idle"))],
                        );
                        break;
                    }
                    if stopping.load(Ordering::Relaxed) {
                        // Daemon shutdown: analyze what arrived, marked as
                        // an eviction so the verdict cannot claim
                        // exactness.
                        tel.counter("serve.tenants_evicted").inc();
                        evicted = true;
                        flight.transition("evicted_shutdown");
                        tenants.transition(session, "evicted_shutdown");
                        ops.event(
                            LogLevel::Warn,
                            "evict",
                            Some(&tenant),
                            Some(session),
                            &[("reason", LogValue::from("shutdown"))],
                        );
                        break;
                    }
                }
                Err(_) => {
                    flight.transition("connection_reset");
                    break; // connection reset etc.: analyze what arrived
                }
            }
        }
        // Input is over (EOF, eviction or reset): time the tail to the
        // verdict. The stage travels with `Eof`; the worker ends it once
        // the verdict line is written. A blocking send is fine: Eof is
        // always worth waiting for, and a dead worker fails it at once.
        let eof = WorkItem::Eof {
            evicted,
            shed_chunks,
            tail: Stage::timed(&eof_to_verdict),
        };
        let unsent = tx.send(eof).err();
        drop(tx);
        match worker.join() {
            Ok(Some(outcome)) => Some(outcome),
            _ => {
                let outcome = verdicts.publish(verdicts.died(evicted, shed_chunks));
                drop(unsent); // ends the tail stage if the worker never took it
                Some(outcome)
            }
        }
    })
}

/// The analysis half: decode resiliently, push every decoded chunk into the
/// analysis suite — whose reassembler delivers each message once it is
/// causally ready — fold every loss into one [`Exactness`] at end of
/// stream, and publish the verdict. Returns `None` only when the queue
/// closed without an end-of-stream marker.
#[allow(clippy::too_many_arguments)]
fn run_worker(
    config: &ServeConfig,
    analysis: jmpax_lattice::AnalysisConfig,
    kinds: &[AnalysisKind],
    monitor: Option<Monitor>,
    initial: &ProgramState,
    threads: usize,
    rx: Receiver<WorkItem<'_>>,
    depth: &AtomicU64,
    frames_labeled: &Counter,
    gaps_labeled: &Counter,
    analyzed_labeled: &Counter,
    verdicts: &Verdicts<'_>,
) -> Option<TenantOutcome> {
    let tel = &config.telemetry;
    let flight = verdicts.flight;
    let pipeline = Pipeline::new(PipelineConfig::new().telemetry(tel).analysis(analysis));
    let mut suite = pipeline
        .suite(kinds, monitor.map(|m| (m, initial)), threads)
        .with_stall_budget(config.stall_budget);
    let mut decoder = ResilientFrameDecoder::new();
    let (evicted, shed_chunks, tail) = loop {
        match rx.recv().ok()? {
            WorkItem::Chunk(bytes) => {
                depth.fetch_sub(1, Ordering::Relaxed);
                let messages = decoder.push(&bytes);
                tel.counter("serve.frames_ingested")
                    .add(messages.len() as u64);
                frames_labeled.add(messages.len() as u64);
                flight.frames(messages.len() as u64, bytes.len() as u64);
                analyzed_labeled.add(suite.push_all(messages) as u64);
            }
            WorkItem::Eof {
                evicted,
                shed_chunks,
                tail,
            } => break (evicted, shed_chunks, tail),
        }
    };
    let decoded = decoder.finish();
    tel.counter("serve.frames_corrupt")
        .add(decoded.frames_corrupt);
    tel.counter("serve.frames_resynced")
        .add(decoded.frames_resynced);
    analyzed_labeled.add(suite.end_stream().len() as u64);
    // The suite folds the decoder's losses into every analysis's report.
    let report = pipeline.finish_suite(suite, Exactness::degraded(0, decoded.frames_lost()));
    let reassembly = &report.reassembly;
    reassembly.record(tel);
    for gap in &reassembly.gaps {
        flight.gap(u64::from(gap.thread.0), gap.from, gap.to);
    }
    gaps_labeled.add(reassembly.skipped_gaps());
    // Plain single-LTL sessions keep their historical one-verdict shape;
    // anything else reports per analysis as well.
    let analyses = if kinds == [AnalysisKind::Ltl] {
        Vec::new()
    } else {
        report
            .reports
            .iter()
            .map(|r| AnalysisOutcome {
                kind: r.kind(),
                satisfied: r.satisfied(),
                findings: r.findings(),
                exactness: r.exactness(),
            })
            .collect()
    };
    let result = WorkerResult {
        exactness: report.exactness(),
        satisfied: report.satisfied(),
        violations: report.findings() as usize,
        frames_ok: decoded.frames_ok,
        messages: reassembly.delivered,
        gaps_skipped: reassembly.skipped_gaps(),
        analyses,
    };
    let outcome = verdicts.publish(verdicts.analysed(result, evicted, shed_chunks));
    drop(tail);
    Some(outcome)
}

/// Writes an error verdict line for a connection that never became a
/// session.
pub(super) fn reject(stream: &mut TcpStream, session: u64, reason: &str) {
    let mut line = String::with_capacity(96);
    line.push_str("{\"session\":");
    line.push_str(&session.to_string());
    line.push_str(",\"verdict\":\"Error\",\"error\":");
    jmpax_telemetry::json::write_string(&mut line, reason);
    line.push('}');
    let _ = writeln!(stream, "{line}");
    let _ = stream.flush();
}
