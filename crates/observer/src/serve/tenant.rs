//! One tenant session, served start to finish by one thread.
//!
//! The thread runs the handshake under its own deadline, then reads the
//! socket and hands each chunk to one [`ObserverSession`] as it arrives,
//! as the paper's observer does: the session decodes the chunk and its
//! Theorem-3 reassembler, the session's one buffer, delivers each message
//! to the analyses the moment it is causally ready. At end of stream only
//! the tail (messages still waiting on a gap) is left to analyse before
//! the verdict line is written back on the same socket.
//!
//! Backpressure is the socket's own: while a chunk is being analysed
//! nothing reads, the kernel's receive buffer fills and the client's
//! writes block. Idleness and shutdown are noticed between reads, at
//! read-timeout granularity.
//!
//! Decoding, analysis and publishing run under `catch_unwind`: a panic
//! becomes an `Error` verdict for this tenant and the daemon keeps
//! serving.
//!
//! Every stage is observable per tenant: the pipeline counters carry a
//! `tenant` label, each transition goes to the ops log and the session's
//! flight recorder, and a verdict that leaves `Exact` ships the ring as
//! evidence.

use std::collections::BTreeMap;
use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use jmpax_core::{AnalysisKind, SymbolTable};
use jmpax_instrument::tcp::SessionHello;
use jmpax_lattice::Exactness;
use jmpax_spec::{parse, ProgramState};
use jmpax_telemetry::{Counter, Gauge, Stage};

use super::flight::FlightRecorder;
use super::ops::{LogLevel, LogValue};
use super::status::TenantTable;
use super::{AnalysisOutcome, ExactnessVerdict, ServeConfig, TenantOutcome};
use crate::pipeline::{ObserverSession, Pipeline, PipelineConfig};

/// `serve.verdict_state{tenant=…}` gauge values.
const STATE_RUNNING: u64 = 0;
const STATE_EXACT: u64 = 1;
const STATE_DEGRADED: u64 = 2;
const STATE_ERROR: u64 = 3;

/// What the analysis hands to the verdict.
struct Analysed {
    exactness: Exactness,
    satisfied: bool,
    violations: usize,
    frames_ok: u64,
    messages: u64,
    gaps_skipped: u64,
    analyses: Vec<AnalysisOutcome>,
}

/// Everything an admitted session touches after its handshake.
struct Tenant<'a> {
    config: &'a ServeConfig,
    tenants: &'a TenantTable,
    flight: FlightRecorder,
    stream: &'a TcpStream,
    tenant: &'a str,
    session: u64,
    /// `serve.verdict_state{tenant=…}`.
    state_gauge: Gauge,
    /// `serve.frames_decoded{tenant=…}`.
    frames_decoded: Counter,
    /// `serve.messages_analyzed{tenant=…}`.
    messages_analyzed: Counter,
    /// `serve.gaps_skipped{tenant=…}`.
    gaps_skipped: Counter,
}

impl Tenant<'_> {
    /// Reads the socket until its input is over, handing each chunk to
    /// `on_chunk` as it arrives. Returns whether the tenant was evicted
    /// (idle, or the daemon is shutting down) rather than ending its
    /// stream itself.
    fn read_to_end(&self, stopping: &AtomicBool, mut on_chunk: impl FnMut(&[u8])) -> bool {
        let config = self.config;
        let tel = &config.telemetry;
        let bytes_counter = tel.counter("serve.bytes_ingested");
        let mut reader = self.stream;
        let _ = reader.set_read_timeout(Some(config.read_timeout));
        let mut bytes = 0u64;
        let mut idle = Duration::ZERO;
        let mut chunk = [0u8; 8192];
        loop {
            match reader.read(&mut chunk) {
                Ok(0) => {
                    self.flight.transition("eof");
                    return false; // clean end of stream
                }
                Ok(n) => {
                    idle = Duration::ZERO;
                    bytes_counter.add(n as u64);
                    bytes += n as u64;
                    self.tenants.update(self.session, |s| s.bytes = bytes);
                    on_chunk(&chunk[..n]);
                }
                Err(err)
                    if err.kind() == std::io::ErrorKind::WouldBlock
                        || err.kind() == std::io::ErrorKind::TimedOut =>
                {
                    tel.counter("serve.read_timeouts").inc();
                    idle += config.read_timeout;
                    if idle >= config.idle_timeout {
                        self.evict("idle");
                        return true;
                    }
                    if stopping.load(Ordering::Relaxed) {
                        // Daemon shutdown: analyse what arrived, marked as
                        // an eviction so the verdict cannot claim
                        // exactness.
                        self.evict("shutdown");
                        return true;
                    }
                }
                Err(_) => {
                    self.flight.transition("connection_reset");
                    return false; // connection reset etc.: analyse what arrived
                }
            }
        }
    }

    /// Records an eviction for `reason` (`idle` or `shutdown`).
    fn evict(&self, reason: &str) {
        self.config.telemetry.counter("serve.tenants_evicted").inc();
        let state = format!("evicted_{reason}");
        self.flight.transition(&state);
        self.tenants.transition(self.session, &state);
        self.config.ops_log.event(
            LogLevel::Warn,
            "evict",
            Some(self.tenant),
            Some(self.session),
            &[("reason", LogValue::from(reason))],
        );
    }

    /// Hands one chunk to the observer session, which decodes it and
    /// analyses each message as soon as it is causally ready.
    fn push(&self, session: &mut ObserverSession, chunk: &[u8]) {
        let (frames, delivered) = session.push_bytes(chunk);
        self.config
            .telemetry
            .counter("serve.frames_ingested")
            .add(frames);
        self.frames_decoded.add(frames);
        self.flight.frames(frames, chunk.len() as u64);
        self.messages_analyzed.add(delivered.len() as u64);
    }

    /// Analyses the tail left at end of input and closes the session,
    /// whose reports fold every loss (the decoder's and the
    /// reassembler's) into one [`Exactness`].
    fn finish(&self, mut session: ObserverSession, kinds: &[AnalysisKind]) -> Analysed {
        self.messages_analyzed.add(session.end_input().len() as u64);
        let (report, decoded) = session.finish();
        let reassembly = &report.reassembly;
        for gap in &reassembly.gaps {
            self.flight.gap(u64::from(gap.thread.0), gap.from, gap.to);
        }
        self.gaps_skipped.add(reassembly.skipped_gaps());
        // Plain single-LTL sessions keep their historical one-verdict
        // shape; anything else reports per analysis as well.
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
        Analysed {
            exactness: report.exactness(),
            satisfied: report.satisfied(),
            violations: report.findings() as usize,
            frames_ok: decoded.frames_ok,
            messages: reassembly.delivered,
            gaps_skipped: reassembly.skipped_gaps(),
            analyses,
        }
    }

    /// The outcome of a completed analysis, degraded when the input was
    /// cut short.
    fn analysed(&self, result: Analysed, evicted: bool) -> TenantOutcome {
        let tel = &self.config.telemetry;
        let mut exactness = result.exactness;
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
            gaps_skipped: result.gaps_skipped,
            analyses: result.analyses,
            flight: Vec::new(),
            flight_dropped: 0,
        }
    }

    /// The outcome of a session whose analysis panicked.
    fn died(&self, evicted: bool) -> TenantOutcome {
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
        let mut stream = self.stream;
        let _ = writeln!(stream, "{}", outcome.to_json());
        let _ = stream.flush();
        outcome
    }
}

/// Serves one accepted connection end-to-end on the calling thread and
/// returns the outcome that was (best-effort) written back to the client. `None` means the
/// connection never completed a handshake — it was rejected, not served.
pub(super) fn run_session(
    mut stream: TcpStream,
    session: u64,
    config: &ServeConfig,
    spec_var_names: &[String],
    stopping: &AtomicBool,
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
    let this = Tenant {
        config,
        tenants,
        flight: FlightRecorder::new(config.flight_capacity),
        stream: &stream,
        tenant: &tenant,
        session,
        state_gauge: tel.gauge_with("serve.verdict_state", &labels),
        frames_decoded: tel.counter_with("serve.frames_decoded", &labels),
        messages_analyzed: tel.counter_with("serve.messages_analyzed", &labels),
        gaps_skipped: tel.counter_with("serve.gaps_skipped", &labels),
    };
    let eof_to_verdict = tel.histogram_with("serve.eof_to_verdict_ns", &labels);
    this.state_gauge.set(STATE_RUNNING);
    tenants.insert_active(&tenant, session);
    this.flight.transition("handshake_ok");
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

    // --- Read, decode and analyse, chunk by chunk. ----------------------
    let mut evicted = false;
    // `serve.eof_to_verdict_ns`: from the end of input (EOF, eviction or
    // reset) until the verdict line is written.
    let mut tail = None;
    let served = catch_unwind(AssertUnwindSafe(|| {
        let pipeline = Pipeline::new(PipelineConfig::new().telemetry(tel).analysis(analysis));
        let mut session = pipeline
            .session(
                &kinds,
                monitor.map(|m| (m, &initial)),
                hello.threads as usize,
            )
            .with_stall_budget(config.stall_budget);
        evicted = this.read_to_end(stopping, |chunk| this.push(&mut session, chunk));
        tail = Some(Stage::timed(&eof_to_verdict));
        let result = this.finish(session, &kinds);
        this.publish(this.analysed(result, evicted))
    }));
    let outcome = served.unwrap_or_else(|_| {
        tail.get_or_insert_with(|| Stage::timed(&eof_to_verdict));
        this.publish(this.died(evicted))
    });
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
