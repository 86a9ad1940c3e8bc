//! Chaos load test for `jmpax serve`: one daemon, ≥100 concurrent lossy
//! sessions, a deliberately stalled tenant, and a clean shutdown.
//!
//! This is the acceptance test for the multi-tenant observer daemon:
//! every tenant must end with an `Exact` or `Degraded` verdict (never a
//! process-level failure), the stalled tenant must be idle-evicted
//! without blocking anyone, and `ServerHandle::stop` must return with
//! every session accounted for.

use std::io::{BufRead as _, BufReader, Write as _};
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use jmpax_core::{Execution, Relevance, SymbolTable, ThreadId, Value};
use jmpax_instrument::tcp::{send_raw_session, SessionHello};
use jmpax_instrument::{ChaosConfig, ChaosSink, EventSink as _, ResilientFrameDecoder};
use jmpax_lattice::{Exactness, Reassembler, SuiteBuilder, DEFAULT_STALL_BUDGET};
use jmpax_observer::serve::{
    ExactnessVerdict, ServeConfig, ServeSummary, Server, ServerHandle, TenantOutcome,
};
use jmpax_spec::{parse, ProgramState};
use jmpax_telemetry::{MetricValue, Registry};

const SPEC: &str = "(x > 0) -> [y = 0, y > z)";
const T1: ThreadId = ThreadId(0);
const T2: ThreadId = ThreadId(1);

/// A two-thread workload over x, y, z — big enough to exercise decode,
/// reassembly and the lattice, small enough for 100 concurrent copies.
fn workload(symbols: &mut SymbolTable) -> Execution {
    let x = symbols.intern("x");
    let y = symbols.intern("y");
    let z = symbols.intern("z");
    let mut ex = Execution::new()
        .with_initial(x, -1)
        .with_initial(y, 0)
        .with_initial(z, 0);
    for i in 0..6 {
        ex.write(T1, x, i);
        ex.write(T2, z, i + 1);
        ex.write(T1, y, i + 1);
    }
    ex
}

fn hello_for(tenant: &str) -> SessionHello {
    SessionHello {
        tenant: tenant.to_string(),
        threads: 2,
        frontier_cap: 0,
        analyses: vec![],
        vars: vec![
            ("x".to_string(), Value::Int(-1)),
            ("y".to_string(), Value::Int(0)),
            ("z".to_string(), Value::Int(0)),
        ],
    }
}

/// The workload's messages pushed through a per-session seeded
/// `ChaosSink` — lossy, reordered, bit-flipped wire bytes.
fn chaotic_session_bytes(session: u64) -> Vec<u8> {
    let mut symbols = SymbolTable::new();
    let ex = workload(&mut symbols);
    let vars: Vec<_> = ["x", "y", "z"]
        .iter()
        .map(|n| symbols.lookup(n).unwrap())
        .collect();
    let messages = ex.instrument(Relevance::writes_of(vars));
    let root = ChaosConfig {
        seed: 0xC0FFEE,
        drop_rate: 0.05,
        dup_rate: 0.05,
        corrupt_rate: 0.05,
        reorder_window: 4,
    };
    let sink = ChaosSink::new(root.for_session(session));
    let mut writer = sink.clone();
    for m in &messages {
        writer.emit(m);
    }
    sink.take_bytes().to_vec()
}

/// The verdict fields a batch analysis of `bytes` yields for a session
/// declared by [`hello_for`]: decode everything, reassemble to the end,
/// then run the suite over the whole stream — with the daemon's exactness
/// folding, written against the lattice API so it does not share the
/// daemon's observer session. Returns `(verdict, satisfied, violations, frames_ok, messages,
/// gaps_skipped)`.
fn batch_reference(bytes: &[u8], evicted: bool) -> (ExactnessVerdict, bool, usize, u64, u64, u64) {
    let mut symbols = SymbolTable::new();
    let mut initial = ProgramState::new();
    for (name, value) in &hello_for("reference").vars {
        let id = symbols.intern(name);
        initial.set(id, *value);
    }
    let monitor = parse(SPEC, &mut symbols).unwrap().monitor().unwrap();

    let mut decoder = ResilientFrameDecoder::new();
    let mut reassembler = Reassembler::with_stall_budget(DEFAULT_STALL_BUDGET);
    reassembler.push_all(decoder.push(bytes));
    let decoded = decoder.finish();
    let (messages, reassembly) = reassembler.finish();
    let transport = reassembly.exactness_after(Exactness::degraded(0, decoded.frames_lost()));
    let count = messages.len() as u64;
    let mut suite = SuiteBuilder::new(&[], 2).build(Some((monitor, &initial)));
    suite.push_all(messages);
    let suite = suite.finish(transport);
    let mut exactness = suite.exactness();
    if evicted {
        exactness = exactness.combine(Exactness::degraded(0, 1));
    }
    (
        ExactnessVerdict::from_exactness(exactness),
        suite.satisfied(),
        suite.findings() as usize,
        decoded.frames_ok,
        count,
        reassembly.skipped_gaps(),
    )
}

/// The same fields, as the daemon reported them.
fn served(outcome: &TenantOutcome) -> (ExactnessVerdict, bool, usize, u64, u64, u64) {
    (
        outcome.verdict.clone(),
        outcome.satisfied,
        outcome.violations,
        outcome.frames_ok,
        outcome.messages,
        outcome.gaps_skipped,
    )
}

#[test]
fn hundred_concurrent_lossy_sessions_one_daemon() {
    const SESSIONS: u64 = 100;

    let registry = Registry::enabled();
    let mut config = ServeConfig::new(SPEC);
    config.telemetry = registry.clone();
    config.read_timeout = Duration::from_millis(10);
    config.idle_timeout = Duration::from_millis(300);
    config.handshake_timeout = Duration::from_secs(5);
    config.max_sessions = 512;
    let server = Server::bind(0, config).expect("bind");
    let addr = server.local_addr().unwrap();
    let handle = server.spawn();

    // The hostile tenant: handshake, half a frame, then silence. It holds
    // its socket open for the whole test and must be evicted, not waited
    // on — and must never block the other 100 sessions.
    let stalled = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).expect("connect stalled");
        stream
            .write_all(&hello_for("stalled").encode())
            .expect("stalled hello");
        let frame = chaotic_session_bytes(9999);
        stream.write_all(&frame[..5.min(frame.len())]).unwrap();
        stream.flush().unwrap();
        // Do NOT close; wait for the daemon to give up on us.
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        reader.read_line(&mut line).expect("eviction verdict");
        line
    });

    // 100 concurrent lossy sessions.
    let loaders: Vec<_> = (0..SESSIONS)
        .map(|i| {
            std::thread::spawn(move || {
                let bytes = chaotic_session_bytes(i);
                let hello = hello_for(&format!("tenant-{i}"));
                send_raw_session(addr, &hello, &bytes).expect("session verdict")
            })
        })
        .collect();

    let verdict_lines: Vec<String> = loaders
        .into_iter()
        .map(|h| h.join().expect("loader thread"))
        .collect();
    assert_eq!(verdict_lines.len() as u64, SESSIONS);
    for line in &verdict_lines {
        assert!(
            line.contains("\"verdict\":\"Exact\"") || line.contains("\"verdict\":\"Degraded\""),
            "unexpected verdict line: {line}"
        );
    }

    // The stalled tenant got evicted with a degraded verdict while the
    // others completed.
    let stalled_line = stalled.join().expect("stalled thread");
    assert!(
        stalled_line.contains("\"verdict\":\"Degraded\""),
        "stalled tenant must degrade, got: {stalled_line}"
    );
    assert!(
        stalled_line.contains("\"evicted\":true"),
        "stalled tenant must be marked evicted: {stalled_line}"
    );

    // Clean shutdown with every session accounted for.
    let summary = handle.stop();
    assert_eq!(
        summary.outcomes.len() as u64,
        SESSIONS + 1,
        "one outcome per tenant (100 lossy + 1 stalled)"
    );
    assert_eq!(summary.errors(), 0, "no tenant may end in Error");
    assert_eq!(summary.exact() + summary.degraded(), SESSIONS as usize + 1);
    for outcome in &summary.outcomes {
        match &outcome.verdict {
            ExactnessVerdict::Exact => assert!(!outcome.evicted),
            ExactnessVerdict::Degraded(_) | ExactnessVerdict::Error(_) => {}
        }
    }
    // Online analysis changes when messages are analysed, never what the
    // verdict says: each lossy session matches a batch analysis of the
    // bytes it sent.
    for outcome in &summary.outcomes {
        let Some(i) = outcome.tenant.strip_prefix("tenant-") else {
            continue;
        };
        let bytes = chaotic_session_bytes(i.parse().unwrap());
        assert_eq!(
            served(outcome),
            batch_reference(&bytes, outcome.evicted),
            "tenant {}",
            outcome.tenant
        );
    }

    // Every session registered its labeled series — one per tenant.
    let snapshot = registry.snapshot();
    let state_series = snapshot
        .family("serve.verdict_state")
        .filter(|e| !e.labels.is_empty())
        .count();
    assert_eq!(
        state_series as u64,
        SESSIONS + 1,
        "one labeled verdict-state gauge per tenant"
    );
    // Per-tenant verdict state matches the outcome (1 = Exact, 2 = Degraded).
    for outcome in &summary.outcomes {
        let (state, _) = snapshot
            .gauge_with("serve.verdict_state", &[("tenant", &outcome.tenant)])
            .expect("verdict_state series per tenant");
        match &outcome.verdict {
            ExactnessVerdict::Exact => assert_eq!(state, 1, "tenant {}", outcome.tenant),
            ExactnessVerdict::Degraded(_) => assert_eq!(state, 2, "tenant {}", outcome.tenant),
            ExactnessVerdict::Error(_) => assert_eq!(state, 3, "tenant {}", outcome.tenant),
        }
    }
    // Non-Exact outcomes carry flight-recorder evidence; labeled gap
    // counters agree with the outcome's accounting.
    for outcome in &summary.outcomes {
        if !matches!(outcome.verdict, ExactnessVerdict::Exact) {
            assert!(
                !outcome.flight.is_empty(),
                "non-Exact tenant {} must carry a flight dump",
                outcome.tenant
            );
        }
        if outcome.gaps_skipped > 0 {
            assert_eq!(
                snapshot.counter_with("serve.gaps_skipped", &[("tenant", &outcome.tenant)]),
                Some(outcome.gaps_skipped),
                "labeled gap counter for {}",
                outcome.tenant
            );
        }
    }
    assert_eq!(
        snapshot.counter("serve.sessions_completed"),
        Some(SESSIONS + 1)
    );
    assert!(snapshot.counter("serve.tenants_evicted").unwrap_or(0) >= 1);
    let exact = snapshot.counter("serve.verdicts_exact").unwrap_or(0);
    let degraded = snapshot.counter("serve.verdicts_degraded").unwrap_or(0);
    assert_eq!(exact + degraded, SESSIONS + 1);
}

#[test]
fn tcp_frame_sink_streams_live_to_the_daemon() {
    let mut config = ServeConfig::new(SPEC);
    config.read_timeout = Duration::from_millis(10);
    let server = Server::bind(0, config).expect("bind");
    let addr = server.local_addr().unwrap();
    let handle = server.spawn();

    let mut symbols = SymbolTable::new();
    let ex = workload(&mut symbols);
    let vars: Vec<_> = ["x", "y", "z"]
        .iter()
        .map(|n| symbols.lookup(n).unwrap())
        .collect();
    let messages = ex.instrument(Relevance::writes_of(vars));
    let mut sink =
        jmpax_instrument::TcpFrameSink::connect(addr, &hello_for("live")).expect("connect");
    for m in &messages {
        sink.emit(m);
    }
    assert_eq!(sink.frames_sent(), messages.len() as u64);
    assert!(sink.io_error().is_none());
    let verdict = sink.finish().expect("verdict");
    assert!(verdict.contains("\"tenant\":\"live\""), "{verdict}");
    assert!(verdict.contains("\"verdict\":\"Exact\""), "{verdict}");
    assert!(
        verdict.contains(&format!("\"messages\":{}", messages.len())),
        "{verdict}"
    );

    let summary = handle.stop();
    assert_eq!(summary.outcomes.len(), 1);
    assert_eq!(summary.exact(), 1);
}

#[test]
fn worker_analyses_while_the_tenant_is_still_sending() {
    let registry = Registry::enabled();
    let mut config = ServeConfig::new(SPEC);
    config.telemetry = registry.clone();
    config.read_timeout = Duration::from_millis(10);
    let server = Server::bind(0, config).expect("bind");
    let addr = server.local_addr().unwrap();
    let handle = server.spawn();

    let mut symbols = SymbolTable::new();
    let ex = workload(&mut symbols);
    let vars: Vec<_> = ["x", "y", "z"]
        .iter()
        .map(|n| symbols.lookup(n).unwrap())
        .collect();
    let messages = ex.instrument(Relevance::writes_of(vars));
    let n = messages.len() as u64;
    let mut sink =
        jmpax_instrument::TcpFrameSink::connect(addr, &hello_for("online")).expect("connect");
    for m in &messages {
        sink.emit(m);
    }

    // The socket is still open: every message must reach the analysis
    // before the daemon sees end of stream.
    let deadline = Instant::now() + Duration::from_secs(10);
    let analyzed = || {
        registry
            .snapshot()
            .counter_with("serve.messages_analyzed", &[("tenant", "online")])
            .unwrap_or(0)
    };
    while analyzed() < n {
        assert!(
            Instant::now() < deadline,
            "only {} of {n} messages analysed before end of stream",
            analyzed()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(analyzed(), n);

    let verdict = sink.finish().expect("verdict");
    assert!(verdict.contains("\"verdict\":\"Exact\""), "{verdict}");
    assert!(verdict.contains(&format!("\"messages\":{n}")), "{verdict}");
    let summary = handle.stop();
    assert_eq!(summary.outcomes.len(), 1);
    let snapshot = registry.snapshot();
    assert_eq!(
        snapshot.counter_with("serve.messages_analyzed", &[("tenant", "online")]),
        Some(n),
        "nothing left for end of stream on a clean stream"
    );
    let tail = snapshot
        .get_with("serve.eof_to_verdict_ns", &[("tenant", "online")])
        .expect("eof_to_verdict series");
    assert!(
        matches!(tail, MetricValue::Histogram { count: 1, .. }),
        "{tail:?}"
    );
}

#[test]
fn hostile_handshakes_are_rejected_not_fatal() {
    let registry = Registry::enabled();
    let mut config = ServeConfig::new(SPEC);
    config.telemetry = registry.clone();
    config.read_timeout = Duration::from_millis(10);
    config.idle_timeout = Duration::from_millis(200);
    config.handshake_timeout = Duration::from_millis(300);
    let server = Server::bind(0, config).expect("bind");
    let addr = server.local_addr().unwrap();
    let handle = server.spawn();

    // Garbage instead of a hello.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(b"GET / HTTP/1.0\r\n\r\n").unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).unwrap();
    assert!(line.contains("\"verdict\":\"Error\""), "{line}");

    // A hello that does not declare the spec's variables.
    let hello = SessionHello {
        tenant: "undeclared".to_string(),
        threads: 1,
        frontier_cap: 0,
        analyses: vec![],
        vars: vec![("unrelated".to_string(), Value::Int(0))],
    };
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(&hello.encode()).unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).unwrap();
    assert!(line.contains("\"verdict\":\"Error\""), "{line}");
    assert!(line.contains("spec variable"), "{line}");

    // The daemon is still alive and serves a clean session afterwards.
    let mut symbols = SymbolTable::new();
    let ex = workload(&mut symbols);
    let vars: Vec<_> = ["x", "y", "z"]
        .iter()
        .map(|n| symbols.lookup(n).unwrap())
        .collect();
    let messages = ex.instrument(Relevance::writes_of(vars));
    let mut clean = bytes::BytesMut::new();
    for m in &messages {
        jmpax_instrument::encode_frame_v2(m, &mut clean);
    }
    let verdict = send_raw_session(addr, &hello_for("clean"), &clean).expect("clean session");
    assert!(verdict.contains("\"verdict\":\"Exact\""), "{verdict}");

    let summary = handle.stop();
    assert_eq!(summary.outcomes.len(), 1, "only the clean tenant analyzed");
    assert_eq!(summary.rejected, 2);
    assert!(
        registry
            .snapshot()
            .counter("serve.handshake_errors")
            .unwrap_or(0)
            >= 2
    );
}

/// SplitMix64: a std-only, seedable generator.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo + 1) as u64) as usize
    }
}

/// Sends `bytes` as one connection and returns every line the daemon wrote
/// back. A daemon that rejects a hello early may reset the connection
/// after its verdict line; that ends the read like end of stream does.
fn exchange(addr: std::net::SocketAddr, bytes: &[u8]) -> Vec<String> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let _ = stream.write_all(bytes);
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut reader = BufReader::new(stream);
    let mut lines = Vec::new();
    loop {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => return lines,
            Ok(_) => lines.push(line),
        }
    }
}

/// The serve half of handshake mangling: damaged hellos, each followed by
/// a clean frame stream, against one daemon. Every connection gets exactly
/// one verdict line, nothing panics, every connection is either rejected
/// or served, and the daemon still serves a clean session Exact.
#[test]
fn mangled_handshakes_each_get_exactly_one_verdict() {
    const SESSIONS: usize = 40;

    let registry = Registry::enabled();
    let mut config = ServeConfig::new(SPEC);
    config.telemetry = registry.clone();
    config.read_timeout = Duration::from_millis(10);
    config.idle_timeout = Duration::from_secs(5);
    config.handshake_timeout = Duration::from_secs(5);
    let server = Server::bind(0, config).expect("bind");
    let addr = server.local_addr().unwrap();
    let handle = server.spawn();

    let mut symbols = SymbolTable::new();
    let ex = workload(&mut symbols);
    let vars: Vec<_> = ["x", "y", "z"]
        .iter()
        .map(|n| symbols.lookup(n).unwrap())
        .collect();
    let mut body = bytes::BytesMut::new();
    for m in &ex.instrument(Relevance::writes_of(vars)) {
        jmpax_instrument::encode_frame_v2(m, &mut body);
    }

    let mut rng = SplitMix64(0x0BAD_4E11);
    let mut error_lines = 0;
    for session in 0..SESSIONS {
        let mut hello = hello_for(&format!("mangled-{session}")).encode().to_vec();
        for _ in 0..rng.range(1, 3) {
            let at = rng.range(0, hello.len() - 1);
            match rng.range(0, 4) {
                0 => hello[at] ^= 1 << rng.range(0, 7),
                1 => hello.truncate(at),
                2 => hello.insert(at, rng.next() as u8),
                3 => {
                    hello.remove(at);
                }
                // A length or count field pushed far past its bound.
                _ => {
                    let end = (at + 2).min(hello.len());
                    hello[at..end].fill(0xFF);
                }
            }
        }
        let lines = exchange(addr, &[hello.as_slice(), &body].concat());
        assert_eq!(lines.len(), 1, "session {session}: {lines:?}");
        assert!(
            lines[0].contains("\"verdict\":"),
            "session {session}: {lines:?}"
        );
        if lines[0].contains("\"verdict\":\"Error\"") {
            error_lines += 1;
        }
    }

    let clean = exchange(
        addr,
        &[hello_for("clean").encode().as_ref(), &body].concat(),
    );
    assert_eq!(clean.len(), 1, "{clean:?}");
    assert!(clean[0].contains("\"verdict\":\"Exact\""), "{clean:?}");

    let summary = handle.stop();
    assert_eq!(
        summary.rejected as usize + summary.outcomes.len(),
        SESSIONS + 1,
        "every connection is rejected or served"
    );
    assert_eq!(
        summary.rejected as usize, error_lines,
        "only rejections answer Error"
    );
    assert!(summary.rejected > 0, "the batch exercises rejection");
    assert!(
        summary.outcomes.len() > 1,
        "some damaged hellos are still served"
    );
    assert_eq!(
        registry
            .snapshot()
            .counter("serve.worker_panics")
            .unwrap_or(0),
        0
    );
}

#[test]
fn tenant_frontier_cap_is_clamped_by_server_ceiling() {
    let registry = Registry::enabled();
    let mut config = ServeConfig::new(SPEC);
    config.telemetry = registry.clone();
    config.read_timeout = Duration::from_millis(10);
    config.analysis = config.analysis.with_frontier_cap(2);
    let server = Server::bind(0, config).expect("bind");
    let addr = server.local_addr().unwrap();
    let handle = server.spawn();

    let mut symbols = SymbolTable::new();
    let ex = workload(&mut symbols);
    let vars: Vec<_> = ["x", "y", "z"]
        .iter()
        .map(|n| symbols.lookup(n).unwrap())
        .collect();
    let messages = ex.instrument(Relevance::writes_of(vars));
    let mut clean = bytes::BytesMut::new();
    for m in &messages {
        jmpax_instrument::encode_frame_v2(m, &mut clean);
    }
    // The tenant asks for an enormous cap; the server's ceiling (2) wins.
    // With a clean stream, any degradation can only come from frontier
    // pruning under that tiny cap.
    let mut hello = hello_for("greedy");
    hello.frontier_cap = 1_000_000;
    let verdict = send_raw_session(addr, &hello, &clean).expect("verdict");
    assert!(
        verdict.contains("\"verdict\":\"Degraded\""),
        "cap 2 must prune this workload: {verdict}"
    );
    let summary = handle.stop();
    assert_eq!(summary.outcomes.len(), 1);
}

/// Satellite check: a seeded lossy session's flight-recorder dump must
/// carry exactly one gap event per gap the report counted — in the
/// outcome, in the ops log, and in the labeled gap counter.
#[test]
fn flight_recorder_dump_matches_gaps_skipped() {
    use std::sync::Arc;

    use jmpax_observer::serve::{FlightKind, LogSink, MemoryLogSink, OpsLog};

    let ops_sink = Arc::new(MemoryLogSink::new());
    let registry = Registry::enabled();
    let mut config = ServeConfig::new(SPEC);
    config.telemetry = registry.clone();
    config.read_timeout = Duration::from_millis(10);
    config.ops_log = OpsLog::to_sink(Arc::clone(&ops_sink) as Arc<dyn LogSink>);
    let server = Server::bind(0, config).expect("bind");
    let addr = server.local_addr().unwrap();
    let handle = server.spawn();

    // A long two-thread workload through drop-only chaos: deterministic
    // sequence gaps with no corruption or reordering noise.
    let mut symbols = SymbolTable::new();
    let x = symbols.intern("x");
    let y = symbols.intern("y");
    let z = symbols.intern("z");
    let mut ex = Execution::new()
        .with_initial(x, -1)
        .with_initial(y, 0)
        .with_initial(z, 0);
    for i in 0..40 {
        ex.write(T1, x, i);
        ex.write(T2, z, i + 1);
        ex.write(T1, y, i + 1);
    }
    let messages = ex.instrument(Relevance::writes_of(vec![x, y, z]));
    let chaos = ChaosConfig {
        seed: 0xBADD1E,
        drop_rate: 0.1,
        dup_rate: 0.0,
        corrupt_rate: 0.0,
        reorder_window: 0,
    };
    let sink = ChaosSink::new(chaos);
    let mut writer = sink.clone();
    for m in &messages {
        writer.emit(m);
    }
    let bytes = sink.take_bytes().to_vec();

    let line = send_raw_session(addr, &hello_for("lossy"), &bytes).expect("verdict line");
    assert!(
        line.contains("\"verdict\":\"Degraded\""),
        "seeded drops must degrade, got: {line}"
    );

    let summary = handle.stop();
    let outcome = summary
        .outcomes
        .iter()
        .find(|o| o.tenant == "lossy")
        .expect("lossy outcome");
    assert!(outcome.gaps_skipped > 0, "seeded drops must commit gaps");
    let gap_entries = outcome
        .flight
        .iter()
        .filter(|e| matches!(e.kind, FlightKind::Gap { .. }))
        .count();
    assert_eq!(
        gap_entries as u64, outcome.gaps_skipped,
        "flight gap events must match the report's gaps_skipped"
    );
    assert_eq!(
        outcome.flight_dropped, 0,
        "short session must not wrap the ring"
    );

    // The identical dump went to the ops log the moment the session left
    // Exact.
    let flight_line = ops_sink
        .lines()
        .into_iter()
        .find(|l| l.contains("\"event\":\"flight\""))
        .expect("flight event in ops log");
    let parsed = jmpax_telemetry::json::parse(&flight_line).expect("flight line parses");
    let entries = parsed
        .get("dump")
        .and_then(|d| d.get("entries"))
        .and_then(jmpax_telemetry::json::Value::as_array)
        .expect("dump entries");
    let logged_gaps = entries
        .iter()
        .filter(|e| e.get("kind").and_then(jmpax_telemetry::json::Value::as_str) == Some("gap"))
        .count();
    assert_eq!(logged_gaps as u64, outcome.gaps_skipped);

    // And the labeled per-tenant counter agrees with all of it.
    assert_eq!(
        registry
            .snapshot()
            .counter_with("serve.gaps_skipped", &[("tenant", "lossy")]),
        Some(outcome.gaps_skipped)
    );
}

#[test]
fn handshake_selects_analyses_and_rejects_unknown_codes() {
    let registry = Registry::enabled();
    let mut config = ServeConfig::new(SPEC);
    config.telemetry = registry.clone();
    config.read_timeout = Duration::from_millis(10);
    config.idle_timeout = Duration::from_millis(300);
    let server = Server::bind(0, config).expect("bind");
    let addr = server.local_addr().unwrap();
    let handle = server.spawn();

    // An unknown analysis code is a handshake error: a clean `Error`
    // verdict naming the code, no session, daemon keeps serving.
    let mut unknown = hello_for("unknown-kind");
    unknown.analyses = vec![0, 200];
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(&unknown.encode()).unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).unwrap();
    assert!(line.contains("\"verdict\":\"Error\""), "{line}");
    assert!(line.contains("unsupported analysis code 200"), "{line}");

    // A session requesting the full suite gets one verdict with a
    // per-analysis section for each requested kind, in request order.
    let mut symbols = SymbolTable::new();
    let ex = workload(&mut symbols);
    let vars: Vec<_> = ["x", "y", "z"]
        .iter()
        .map(|n| symbols.lookup(n).unwrap())
        .collect();
    let messages = ex.instrument(Relevance::writes_of(vars));
    let mut clean = bytes::BytesMut::new();
    for m in &messages {
        jmpax_instrument::encode_frame_v2(m, &mut clean);
    }
    let mut suite_hello = hello_for("full-suite");
    suite_hello.analyses = vec![0, 1, 2];
    let verdict = send_raw_session(addr, &suite_hello, &clean).expect("suite session");
    assert!(verdict.contains("\"verdict\":\"Exact\""), "{verdict}");
    let parsed = jmpax_telemetry::json::parse(&verdict).expect("verdict parses");
    let analyses = parsed
        .get("analyses")
        .and_then(jmpax_telemetry::json::Value::as_array)
        .expect("analyses array");
    let names: Vec<_> = analyses
        .iter()
        .map(|a| {
            a.get("name")
                .and_then(jmpax_telemetry::json::Value::as_str)
                .unwrap()
        })
        .collect();
    assert_eq!(names, ["ltl", "race", "atomicity"], "{verdict}");
    for a in analyses {
        assert_eq!(
            a.get("exactness")
                .and_then(jmpax_telemetry::json::Value::as_str),
            Some("Exact"),
            "{verdict}"
        );
    }

    // A race-only session never parses the spec, so it may omit the
    // spec's variables from its handshake entirely.
    let race_only = SessionHello {
        tenant: "race-only".to_string(),
        threads: 2,
        frontier_cap: 0,
        analyses: vec![1],
        vars: vec![("unrelated".to_string(), Value::Int(0))],
    };
    let verdict = send_raw_session(addr, &race_only, &clean).expect("race-only session");
    assert!(verdict.contains("\"verdict\":\"Exact\""), "{verdict}");
    assert!(verdict.contains("\"name\":\"race\""), "{verdict}");
    assert!(!verdict.contains("\"name\":\"ltl\""), "{verdict}");

    let summary = handle.stop();
    assert_eq!(
        summary.outcomes.len(),
        2,
        "rejected hello never became a session"
    );
    assert_eq!(summary.rejected, 1);
}

/// Calls [`ServerHandle::stop`] on another thread and waits at most
/// `bound` for it, so a shutdown that hangs fails the test instead of
/// wedging it.
fn stop_within(handle: ServerHandle, bound: Duration) -> ServeSummary {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(handle.stop());
    });
    rx.recv_timeout(bound)
        .unwrap_or_else(|_| panic!("stop() did not return within {bound:?}"))
}

#[test]
fn stop_evicts_a_tenant_caught_mid_stream() {
    let registry = Registry::enabled();
    let mut config = ServeConfig::new(SPEC);
    config.telemetry = registry.clone();
    config.read_timeout = Duration::from_millis(10);
    config.idle_timeout = Duration::from_secs(60);
    let server = Server::bind(0, config).expect("bind");
    let addr = server.local_addr().unwrap();
    let handle = server.spawn();

    // Half of a clean stream, with the socket left open.
    let mut symbols = SymbolTable::new();
    let ex = workload(&mut symbols);
    let vars: Vec<_> = ["x", "y", "z"]
        .iter()
        .map(|n| symbols.lookup(n).unwrap())
        .collect();
    let messages = ex.instrument(Relevance::writes_of(vars));
    let half = messages.len() / 2;
    let mut body = bytes::BytesMut::new();
    for m in &messages[..half] {
        jmpax_instrument::encode_frame_v2(m, &mut body);
    }
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(&hello_for("midstream").encode()).unwrap();
    stream.write_all(&body).unwrap();
    stream.flush().unwrap();

    // Stop only once the daemon has decoded every frame sent, so the
    // shutdown lands mid-stream rather than mid-handshake.
    let deadline = Instant::now() + Duration::from_secs(10);
    let decoded = || {
        registry
            .snapshot()
            .counter_with("serve.frames_decoded", &[("tenant", "midstream")])
            .unwrap_or(0)
    };
    while decoded() < half as u64 {
        assert!(
            Instant::now() < deadline,
            "only {} of {half} frames decoded",
            decoded()
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    let summary = stop_within(handle, Duration::from_secs(10));
    let mut lines = Vec::new();
    for line in BufReader::new(stream).lines() {
        match line {
            Ok(line) => lines.push(line),
            Err(_) => break,
        }
    }
    assert_eq!(lines.len(), 1, "exactly one verdict line: {lines:?}");
    assert!(lines[0].contains("\"verdict\":\"Degraded\""), "{lines:?}");
    assert!(lines[0].contains("\"evicted\":true"), "{lines:?}");

    assert_eq!(summary.outcomes.len(), 1);
    let outcome = &summary.outcomes[0];
    assert_eq!(outcome.tenant, "midstream");
    assert!(outcome.evicted);
    assert!(matches!(outcome.verdict, ExactnessVerdict::Degraded(_)));
    assert_eq!(outcome.messages, half as u64, "what arrived is analysed");
    assert_eq!(
        registry.snapshot().counter("serve.tenants_evicted"),
        Some(1)
    );
}

#[test]
fn stop_returns_with_no_client_connected() {
    let server = Server::bind(0, ServeConfig::new(SPEC)).expect("bind");
    let handle = server.spawn();
    let summary = stop_within(handle, Duration::from_secs(5));
    assert!(summary.outcomes.is_empty());
    assert_eq!(summary.rejected, 0);
}

/// The paper's Example 2 (`x = -1, y = 0, z = 0`; T1 runs `x++; y = x + 1`,
/// T2 runs `z = x + 1; x++`) as the four frames its relevant writes send.
fn example2_session_bytes() -> Vec<u8> {
    let mut symbols = SymbolTable::new();
    let x = symbols.intern("x");
    let y = symbols.intern("y");
    let z = symbols.intern("z");
    let mut ex = Execution::new()
        .with_initial(x, -1)
        .with_initial(y, 0)
        .with_initial(z, 0);
    ex.read(T1, x);
    ex.write(T1, x, 0);
    ex.read(T2, x);
    ex.write(T2, z, 1);
    ex.read(T1, x);
    ex.write(T1, y, 1);
    ex.read(T2, x);
    ex.write(T2, x, 1);
    let messages = ex.instrument(Relevance::writes_of(vec![x, y, z]));
    assert_eq!(messages.len(), 4);
    let mut body = bytes::BytesMut::new();
    for m in &messages {
        jmpax_instrument::encode_frame_v2(m, &mut body);
    }
    body.to_vec()
}

/// `run(Some(1))` returns once its one outcome is in, with no further
/// client to wake a loop blocked in `accept`: the session that met the
/// target wakes it. The timeout guards against a hang; it is not a timing
/// gate.
#[test]
fn target_outcome_wakes_the_accept_loop() {
    let server = Server::bind(0, ServeConfig::new(SPEC)).expect("bind");
    let addr = server.local_addr().unwrap();
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(server.run(Some(1)));
    });

    let line = send_raw_session(addr, &hello_for("example2"), &example2_session_bytes())
        .expect("verdict line");
    assert!(line.contains("\"verdict\":\"Exact\""), "{line}");
    assert!(line.contains("\"messages\":4"), "{line}");

    let summary = rx
        .recv_timeout(Duration::from_secs(5))
        .expect("run(Some(1)) did not return after its one outcome");
    assert_eq!(summary.outcomes.len(), 1);
    assert_eq!(summary.outcomes[0].tenant, "example2");
    assert_eq!(summary.rejected, 0);
}

/// The connection `stop()` opens to wake the accept loop is dropped
/// unseen: no session, no rejection, no counter, no ops event but the
/// shutdown.
#[test]
fn stop_wake_is_invisible() {
    use std::sync::Arc;

    use jmpax_observer::serve::{LogSink, MemoryLogSink, OpsLog};

    let ops_sink = Arc::new(MemoryLogSink::new());
    let registry = Registry::enabled();
    let mut config = ServeConfig::new(SPEC);
    config.telemetry = registry.clone();
    config.ops_log = OpsLog::to_sink(Arc::clone(&ops_sink) as Arc<dyn LogSink>);
    let server = Server::bind(0, config).expect("bind");
    let handle = server.spawn();
    // Give the loop time to block in `accept`, so the wake is accepted
    // rather than left in the backlog. Either way it must stay invisible.
    std::thread::sleep(Duration::from_millis(50));

    let summary = stop_within(handle, Duration::from_secs(5));
    assert!(summary.outcomes.is_empty());
    assert_eq!(summary.rejected, 0);
    let snapshot = registry.snapshot();
    assert_eq!(snapshot.counter("serve.sessions_rejected").unwrap_or(0), 0);
    assert_eq!(snapshot.counter("serve.handshake_errors").unwrap_or(0), 0);
    let lines = ops_sink.lines();
    assert_eq!(lines.len(), 1, "{lines:?}");
    assert!(lines[0].contains("\"event\":\"shutdown\""), "{lines:?}");
}
