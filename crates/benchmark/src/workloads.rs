//! The four workloads: set-up, the untraced measurement behind the
//! end-to-end metrics, and the traced run behind the per-layer metrics.
//!
//! | workload       | loop                        | stresses                                    |
//! |----------------|-----------------------------|---------------------------------------------|
//! | `wide-lattice` | closed, 1 connection        | lattice expansion (65 536 states, 24 msgs)  |
//! | `live-stream`  | closed, the program itself  | Algorithm A on threads, encode, TCP, decode |
//! | `tenant-churn` | open, 2 connections, seeded | handshake, thread spawns, spec parse        |
//! | `access-mix`   | closed, 2 connections       | reads next to writes, the analysis suite    |

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use jmpax_core::{AnalysisKind, Message, Relevance};
use jmpax_observer::{ServeConfig, Server, ServerHandle};

use crate::client::{self, Timing};
use crate::inputs::{self, Input, Tenant};
use crate::instr::{self, AccessSamples};
use crate::metrics::Report;
use crate::replay;
use crate::rng::Rng;
use crate::spans::{self, Spans};
use crate::stats::{median, quantile, quantile_ns, samples_needed};
use crate::sys;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    WideLattice,
    LiveStream,
    TenantChurn,
    AccessMix,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::WideLattice,
        Workload::LiveStream,
        Workload::TenantChurn,
        Workload::AccessMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WideLattice => "wide-lattice",
            Workload::LiveStream => "live-stream",
            Workload::TenantChurn => "tenant-churn",
            Workload::AccessMix => "access-mix",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

#[derive(Clone, Debug)]
pub struct Options {
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    pub trace: bool,
    pub trace_out: Option<PathBuf>,
    /// Debug-build test sizes.
    pub smoke: bool,
}

/// Input sizes. The full scale is what the benchmark measures; smoke
/// scale keeps the debug-build tests short.
struct Scale {
    wide_threads: usize,
    wide_rounds: usize,
    live_rounds: usize,
    access_inputs: usize,
    access_events: usize,
    churn_warmup: usize,
    warmup: usize,
    setups: usize,
    sweep_events: usize,
}

impl Scale {
    fn new(opts: &Options) -> Self {
        let setups = if opts.trace { 1 } else { 3 };
        if opts.smoke {
            Self {
                wide_threads: 4,
                wide_rounds: 2,
                live_rounds: 30,
                access_inputs: 3,
                access_events: 120,
                churn_warmup: 10,
                warmup: 1,
                setups: 1,
                sweep_events: 200,
            }
        } else {
            Self {
                wide_threads: inputs::WIDE_THREADS,
                wide_rounds: inputs::WIDE_ROUNDS,
                live_rounds: 2200,
                access_inputs: 8,
                access_events: 3000,
                churn_warmup: 200,
                warmup: 3,
                setups,
                sweep_events: 3000,
            }
        }
    }
}

/// Distinct Example 2 schedules (of 70) each tenant-churn run draws.
const CHURN_INPUTS: usize = 16;
/// Open-loop rate at which tenant-churn latency is reported.
const CHURN_RATE: f64 = 250.0;
/// Ladder rates above it, tried in order until one fails.
const CHURN_LADDER: [f64; 5] = [500.0, 1000.0, 2000.0, 4000.0, 8000.0];
/// A ladder step passes when p99 latency stays within this limit.
const CHURN_P99_LIMIT_MS: f64 = 10.0;
/// A step is abandoned once the generator runs this late.
const CHURN_ABORT_LATE: Duration = Duration::from_secs(1);
/// Connections (generator threads) of the two-connection workloads: the
/// reference host has two cores.
const CONNS: usize = 2;

/// Everything a measured window needs, built and checked before timing.
struct Setup {
    tenant: Tenant,
    inputs: Vec<Input>,
    /// Input index of each session, cycled.
    order: Vec<usize>,
    daemon: ServerHandle,
    addr: SocketAddr,
}

impl Setup {
    fn close(self) {
        let _ = self.daemon.stop();
    }
}

pub fn run(workload: Workload, opts: &Options) -> Report {
    let scale = Scale::new(opts);
    let mut report = Report::new(workload.name(), opts.trace);
    let mut setup_s = Vec::new();
    let mut setup = None;
    for _ in 0..scale.setups {
        let start = Instant::now();
        match set_up(workload, opts, &scale) {
            Ok(s) => {
                setup_s.push(start.elapsed().as_secs_f64());
                if let Some(old) = setup.replace(s) {
                    Setup::close(old);
                }
            }
            Err(e) => {
                report.problem(format!("set-up failed: {e}"));
                report.failed = 1;
                break;
            }
        }
    }
    let setup = match setup {
        Some(s) if report.problems.is_empty() => s,
        earlier => {
            if let Some(s) = earlier {
                s.close();
            }
            return report;
        }
    };
    report.input_digest = format!("{:016x}", sys::fnv64(setup.inputs.iter().map(|i| &i.wire)));
    report.set("setup_s", median(&setup_s));
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    if opts.trace {
        traced(workload, &setup, opts, &scale, deadline, &mut report);
    } else {
        match workload {
            Workload::WideLattice => measure_closed(&setup, 1, deadline, &mut report),
            Workload::AccessMix => measure_closed(&setup, CONNS, deadline, &mut report),
            Workload::LiveStream => measure_live(&setup, scale.live_rounds, deadline, &mut report),
            Workload::TenantChurn => measure_churn(&setup, opts, &mut report),
        }
    }
    setup.close();
    report.set("peak_rss_mb", sys::peak_rss_mb());
    report.set(
        "failed_share",
        report.failed as f64 / report.attempted.max(1) as f64,
    );
    report
}

fn set_up(workload: Workload, opts: &Options, scale: &Scale) -> Result<Setup, String> {
    let mut rng = Rng::derive(opts.seed, 1);
    let (tenant, inputs, order) = match workload {
        Workload::WideLattice => {
            let tenant = inputs::wide_tenant(scale.wide_threads);
            let input = inputs::build(
                &tenant,
                inputs::wide_events(scale.wide_threads, scale.wide_rounds),
            )?;
            if !input.expected.satisfied
                || input.messages.len() != scale.wide_threads * scale.wide_rounds
            {
                return Err("wide-lattice reference is not the satisfied 8 × 3 hypercube".into());
            }
            (tenant, vec![input], vec![0])
        }
        Workload::LiveStream => {
            let tenant = inputs::live_tenant();
            let input = inputs::build(&tenant, inputs::live_events(scale.live_rounds))?;
            if !input.expected.satisfied {
                return Err("live-stream reference violates its spec".into());
            }
            (tenant, vec![input], vec![0])
        }
        Workload::TenantChurn => {
            let tenant = inputs::example2_tenant();
            let monitor = tenant.monitor()?;
            let mut schedules = inputs::example2_schedules();
            let mut chosen = Vec::with_capacity(CHURN_INPUTS);
            while chosen.len() < CHURN_INPUTS {
                chosen.push(schedules.swap_remove(rng.below(schedules.len() as u64) as usize));
            }
            let mut built = Vec::with_capacity(chosen.len());
            for s in &chosen {
                let input = inputs::build(&tenant, inputs::example2_events(s))?;
                if inputs::brute_force_satisfied(&monitor, &tenant.initial(), &input.messages)
                    != input.expected.satisfied
                {
                    return Err(format!(
                        "Example 2 schedule {s:?}: lattice verdict differs from enumeration"
                    ));
                }
                built.push(input);
            }
            let order = (0..4096)
                .map(|_| rng.below(built.len() as u64) as usize)
                .collect();
            (tenant, built, order)
        }
        Workload::AccessMix => {
            let tenant = inputs::access_tenant();
            let mut built = Vec::with_capacity(scale.access_inputs);
            for _ in 0..scale.access_inputs {
                let events = inputs::access_events(
                    &mut rng,
                    inputs::ACCESS_THREADS,
                    inputs::ACCESS_VARS,
                    scale.access_events,
                );
                let input = inputs::build(&tenant, events)?;
                if !input.expected.analyses.first().is_some_and(|a| a.1) {
                    return Err("access-mix reference violates v0 >= 0".into());
                }
                built.push(input);
            }
            let order = (0..built.len()).collect();
            (tenant, built, order)
        }
    };
    let daemon = Server::bind(0, ServeConfig::new(&tenant.spec))
        .map_err(|e| format!("bind: {e}"))?
        .spawn();
    let setup = Setup {
        addr: daemon.addr(),
        tenant,
        inputs,
        order,
        daemon,
    };
    // Warm-up: let lazy set-up finish and caches fill before timing.
    let warm = match workload {
        Workload::LiveStream => (0..scale.warmup).try_for_each(|_| {
            instr::live_control(scale.live_rounds);
            let run = instr::live_instrumented(setup.addr, &setup.tenant, scale.live_rounds, false)
                .map_err(|e| format!("warm-up: {e}"))?;
            client::check(run.verdict, &setup.inputs[0].expected)
        }),
        Workload::TenantChurn => {
            let stats = closed_loop(&setup, CONNS, Until::Sessions(scale.churn_warmup));
            stats.problems.first().map_or(Ok(()), |p| Err(p.clone()))
        }
        _ => {
            let stats = closed_loop(&setup, 1, Until::Sessions(scale.warmup));
            stats.problems.first().map_or(Ok(()), |p| Err(p.clone()))
        }
    };
    match warm {
        Ok(()) => Ok(setup),
        Err(e) => {
            setup.close();
            Err(e)
        }
    }
}

/// Latencies and counts of one measured loop.
#[derive(Debug, Default)]
struct LoopStats {
    latency_ms: Vec<f64>,
    /// Completion time (from the loop's start) and messages of every
    /// session whose verdict matched.
    done: Vec<(Duration, u64)>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl LoopStats {
    fn merge(&mut self, other: LoopStats) {
        self.latency_ms.extend(other.latency_ms);
        self.done.extend(other.done);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems);
    }

    fn record(&mut self, outcome: Result<(), String>, latency: Duration, done: (Duration, u64)) {
        self.attempted += 1;
        match outcome {
            Ok(()) => {
                self.latency_ms.push(ms(latency));
                self.done.push(done);
            }
            Err(e) => {
                self.failed += 1;
                self.problems.push(e);
            }
        }
    }

    /// Messages verdicted per second, robust to bursts of interference:
    /// completions in time order are cut into up to ten blocks of equal
    /// count, and the median of the blocks' rates (messages over the time
    /// each block spanned) is reported.
    fn events_per_s(&self) -> f64 {
        let mut done = self.done.clone();
        done.sort_by_key(|d| d.0);
        let blocks = (done.len() / 3).clamp(1, 10);
        let per = done.len() / blocks;
        let mut rates = Vec::with_capacity(blocks);
        let mut since = Duration::ZERO;
        for b in 0..blocks {
            let end = if b + 1 == blocks {
                done.len()
            } else {
                (b + 1) * per
            };
            let Some(&(until, _)) = done[..end].last() else {
                return 0.0;
            };
            let messages: u64 = done[b * per..end].iter().map(|d| d.1).sum();
            rates.push(messages as f64 / (until - since).as_secs_f64().max(1e-9));
            since = until;
        }
        median(&rates)
    }

    fn into_report(self, report: &mut Report) {
        report.attempted += self.attempted;
        report.failed += self.failed;
        for p in self.problems {
            report.problem(p);
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

enum Until {
    Deadline(Instant),
    Sessions(usize),
}

/// Closed loop: each connection sends its next session as soon as the
/// previous verdict arrives.
fn closed_loop(setup: &Setup, conns: usize, until: Until) -> LoopStats {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let per_thread: Vec<LoopStats> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|_| {
                let next = &next;
                let until = &until;
                s.spawn(move || {
                    let mut stats = LoopStats::default();
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        match *until {
                            Until::Deadline(d) if Instant::now() >= d => break,
                            Until::Sessions(n) if k >= n => break,
                            _ => {}
                        }
                        let input = &setup.inputs[setup.order[k % setup.order.len()]];
                        let result = client::session(setup.addr, &input.wire);
                        let latency = result.as_ref().map_or(Duration::ZERO, |(_, t)| t.wall());
                        stats.record(
                            client::check(result.map(|(line, _)| line), &input.expected),
                            latency,
                            (start.elapsed(), input.expected.messages),
                        );
                    }
                    stats
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut all = LoopStats::default();
    for s in per_thread {
        all.merge(s);
    }
    all
}

fn set_latency(report: &mut Report, latency_ms: &[f64]) {
    if latency_ms.len() < samples_needed(0.9) {
        eprintln!(
            "{}: only {} sessions; verdict_ms.p90 has fewer than ten beyond it",
            report.workload,
            latency_ms.len()
        );
    }
    report.set("verdict_ms.p50", quantile(latency_ms, 0.5));
    report.set("verdict_ms.p90", quantile(latency_ms, 0.9));
    report.set("sessions", latency_ms.len() as f64);
}

fn measure_closed(setup: &Setup, conns: usize, deadline: Instant, report: &mut Report) {
    let stats = closed_loop(setup, conns, Until::Deadline(deadline));
    set_latency(report, &stats.latency_ms);
    report.set("events_per_s", stats.events_per_s());
    stats.into_report(report);
}

/// Paired runs of the uninstrumented control and the instrumented,
/// streamed program, alternating which goes first.
fn measure_live(setup: &Setup, rounds: usize, deadline: Instant, report: &mut Report) {
    let input = &setup.inputs[0];
    let mut stats = LoopStats::default();
    let (mut program_ms, mut control_ms, mut ratio, mut session_ms) =
        (vec![], vec![], vec![], vec![]);
    let mut session_wall = Duration::ZERO;
    let mut pair = 0usize;
    while Instant::now() < deadline {
        let control_first = pair.is_multiple_of(2);
        pair += 1;
        let mut control = Duration::ZERO;
        if control_first {
            control = instr::live_control(rounds);
        }
        let run = instr::live_instrumented(setup.addr, &setup.tenant, rounds, false);
        if !control_first {
            control = instr::live_control(rounds);
        }
        let run = match run {
            Ok(run) => run,
            Err(e) => {
                stats.record(
                    Err(format!("transport error: {e}")),
                    Duration::ZERO,
                    (session_wall, 0),
                );
                continue;
            }
        };
        // Throughput counts session time only, not the control runs.
        let wall = run.done - run.start;
        session_wall += wall;
        stats.record(
            client::check(run.verdict, &input.expected),
            run.done - run.exited,
            (session_wall, input.expected.messages),
        );
        program_ms.push(ms(run.program));
        control_ms.push(ms(control));
        ratio.push(run.program.as_secs_f64() / control.as_secs_f64().max(1e-9));
        session_ms.push(ms(wall));
    }
    set_latency(report, &stats.latency_ms);
    report.set("events_per_s", stats.events_per_s());
    report.set("slowdown", median(&ratio));
    report.set("program_ms.p50", median(&program_ms));
    report.set("control_ms.p50", median(&control_ms));
    report.set("session_ms.p50", median(&session_ms));
    stats.into_report(report);
}

/// Open-loop outcome of one rate.
#[derive(Debug, Default)]
struct OpenLoop {
    stats: LoopStats,
    late_ms: Vec<f64>,
    backlog_max: usize,
    unsent: u64,
}

impl OpenLoop {
    /// The rate held: p99 within the limit, the generator on schedule,
    /// nothing failed or left unsent.
    fn passed(&self) -> bool {
        let p99 = |v: &[f64]| {
            if v.is_empty() {
                f64::INFINITY
            } else {
                quantile(v, 0.99)
            }
        };
        self.unsent == 0
            && self.stats.failed == 0
            && p99(&self.stats.latency_ms) <= CHURN_P99_LIMIT_MS
            && p99(&self.late_ms) <= CHURN_P99_LIMIT_MS
    }
}

/// Open loop: sessions are due at seeded Poisson arrival times, whether or
/// not earlier ones finished; each is timed from its due time.
fn open_loop(setup: &Setup, rng: &mut Rng, rate: f64, length: Duration, conns: usize) -> OpenLoop {
    let mut due = Vec::new();
    let mut t = 0.0;
    loop {
        t += -(1.0 - rng.unit()).ln() / rate;
        if t >= length.as_secs_f64() {
            break;
        }
        due.push(Duration::from_secs_f64(t));
    }
    let picks: Vec<usize> = due
        .iter()
        .map(|_| setup.order[rng.below(setup.order.len() as u64) as usize])
        .collect();
    let next = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let start = Instant::now() + Duration::from_millis(2);
    let shared = Mutex::new(OpenLoop::default());
    std::thread::scope(|s| {
        for _ in 0..conns {
            s.spawn(|| {
                let mut local = OpenLoop::default();
                loop {
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    if k >= due.len() {
                        break;
                    }
                    let due_at = start + due[k];
                    if abort.load(Ordering::Relaxed) {
                        local.unsent += 1;
                        continue;
                    }
                    if let Some(wait) = due_at.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    let begin = Instant::now();
                    let late = begin.saturating_duration_since(due_at);
                    if late > CHURN_ABORT_LATE {
                        abort.store(true, Ordering::Relaxed);
                        local.unsent += 1;
                        continue;
                    }
                    local.late_ms.push(ms(late));
                    let due_by_now = due.partition_point(|d| start + *d <= begin);
                    local.backlog_max = local.backlog_max.max(due_by_now.saturating_sub(k + 1));
                    let input = &setup.inputs[picks[k]];
                    let line = client::session(setup.addr, &input.wire).map(|(line, _)| line);
                    let latency = Instant::now() - due_at;
                    local.stats.record(
                        client::check(line, &input.expected),
                        latency,
                        (due[k] + latency, input.expected.messages),
                    );
                }
                let mut all = shared
                    .lock()
                    .expect("no client thread panics holding the lock");
                all.stats.merge(local.stats);
                all.late_ms.extend(local.late_ms);
                all.backlog_max = all.backlog_max.max(local.backlog_max);
                all.unsent += local.unsent;
            });
        }
    });
    shared
        .into_inner()
        .expect("no client thread panics holding the lock")
}

/// Tenant churn: latency at a fixed open-loop rate, capacity from a
/// closed loop, and the highest rate that holds the latency limit.
fn measure_churn(setup: &Setup, opts: &Options, report: &mut Report) {
    let mut rng = Rng::derive(opts.seed, 2);
    let window = Duration::from_secs_f64(opts.seconds);

    let fixed = open_loop(setup, &mut rng, CHURN_RATE, window.mul_f64(0.55), CONNS);
    set_latency(report, &fixed.stats.latency_ms);
    report.set("verdict_ms.p99", quantile(&fixed.stats.latency_ms, 0.99));
    report.set("loadgen.late_ms.p99", quantile(&fixed.late_ms, 0.99));
    report.set("loadgen.backlog_max", fixed.backlog_max as f64);
    let fixed_ok = fixed.passed();
    let mut max_ok = if fixed_ok { CHURN_RATE } else { 0.0 };
    // Due sessions the generator never sent count as failed at the rate
    // the latency is reported for.
    report.attempted += fixed.unsent;
    report.failed += fixed.unsent;
    fixed.stats.into_report(report);

    let capacity = closed_loop(
        setup,
        CONNS,
        Until::Deadline(Instant::now() + window.mul_f64(0.15)),
    );
    report.set("events_per_s", capacity.events_per_s());
    capacity.into_report(report);

    if fixed_ok {
        for rate in CHURN_LADDER {
            let step = open_loop(setup, &mut rng, rate, window.mul_f64(0.06), CONNS);
            let passed = step.passed();
            // Above capacity the generator falls behind and leaves sessions
            // unsent: that is the ladder's answer, not a failure. Wrong
            // verdicts and transport errors still are.
            step.stats.into_report(report);
            if !passed {
                break;
            }
            max_ok = rate;
        }
    }
    report.set("max_ok_rate", max_ok);
}

/// Everything the traced run collects, one entry per iteration.
#[derive(Default)]
struct Collected {
    untraced_ms: Vec<f64>,
    traced_ms: Vec<f64>,
    connect_us: Vec<f64>,
    upload_us: Vec<f64>,
    wait_ms: Vec<f64>,
    daemon_ms: Vec<f64>,
    replay_ms: Vec<f64>,
    compile_us: Vec<f64>,
    decode_ns: Vec<f64>,
    reassemble_ns: Vec<f64>,
    suite_ms: Vec<f64>,
    ltl_ms: Vec<f64>,
    race_ms: Vec<f64>,
    atomicity_ms: Vec<f64>,
    states: Vec<f64>,
    levels: Vec<f64>,
    peak_frontier: Vec<f64>,
    states_per_s: Vec<f64>,
    non_writes: Vec<f64>,
    evals: Vec<f64>,
    hits: Vec<f64>,
    process_ns: Vec<f64>,
    encode_ns: Vec<f64>,
    bytes_per_msg: Vec<f64>,
    access: AccessSamples,
}

/// The traced run: untraced and traced daemon sessions alternate, and each
/// traced session's bytes are replayed in process, layer by layer.
fn traced(
    workload: Workload,
    setup: &Setup,
    opts: &Options,
    scale: &Scale,
    deadline: Instant,
    report: &mut Report,
) {
    let tenant = &setup.tenant;
    let mut spans = Spans::new();
    let mut c = Collected::default();
    let mut stats = LoopStats::default();
    let mut eval_cache: Vec<Option<(u64, u64)>> = vec![None; setup.inputs.len()];
    let mut iteration = 0usize;
    while Instant::now() < deadline || iteration == 0 {
        let idx = setup.order[iteration % setup.order.len()];
        let input = &setup.inputs[idx];
        let trace_id = iteration as u64 * 2;
        // An untraced and a traced daemon session, alternating which goes
        // first so neither always meets the daemon fresh from idling.
        let untraced_first = iteration.is_multiple_of(2);
        iteration += 1;
        let mut untraced = None;
        if untraced_first {
            untraced = daemon_session(workload, setup, input, scale.live_rounds, false).0;
        }
        let (traced, live) = daemon_session(workload, setup, input, scale.live_rounds, true);
        if !untraced_first {
            untraced = daemon_session(workload, setup, input, scale.live_rounds, false).0;
        }
        let (Some(u), Some(t)) = (untraced, traced) else {
            stats.record(
                Err("daemon session failed in the traced run".into()),
                Duration::ZERO,
                (Duration::ZERO, 0),
            );
            continue;
        };
        let (u_wall, t_wall) = (u.timing.wall(), t.timing.wall());
        stats.record(u.check, u_wall, (u_wall, input.expected.messages));
        stats.record(t.check, t_wall, (t_wall, input.expected.messages));
        c.untraced_ms.push(ms(u_wall));
        c.traced_ms.push(ms(t_wall));
        let root = spans.record(trace_id, None, "session", t.timing.start, t.timing.done);
        spans.record(
            trace_id,
            Some(root),
            "serve.connect",
            t.timing.start,
            t.timing.connected,
        );
        spans.record(
            trace_id,
            Some(root),
            "serve.upload",
            t.timing.connected,
            t.timing.uploaded,
        );
        spans.record(
            trace_id,
            Some(root),
            "serve.wait",
            t.timing.uploaded,
            t.timing.done,
        );
        c.connect_us
            .push((t.timing.connected - t.timing.start).as_secs_f64() * 1e6);
        c.upload_us
            .push((t.timing.uploaded - t.timing.connected).as_secs_f64() * 1e6);
        c.wait_ms.push(ms(t.timing.done - t.timing.uploaded));
        c.daemon_ms.push(ms(t_wall - t.program));

        // The bytes the session sent, and the instrumentation that made them.
        let body = match live {
            Some((samples, captured)) => {
                c.access.merge(samples);
                if !same_message_set(&captured, &input.messages) {
                    report.problem("live program emitted a different message set".into());
                }
                inputs::encode(&captured)
            }
            None => {
                let reps = 3000usize.div_ceil(input.events.len()).max(1);
                for _ in 0..reps {
                    let (mut samples, bytes) =
                        instr::replay_instrumented(tenant, &tenant.relevance, &input.events);
                    if bytes != input.body {
                        report.problem("instrumented replay emitted different frames".into());
                    }
                    // Accesses that emit nothing are timed in a replay where
                    // nothing is relevant, so workloads whose every access
                    // emits still measure the clock-only cost.
                    let (silent, _) =
                        instr::replay_instrumented(tenant, &Relevance::Nothing, &input.events);
                    samples.irrelevant_ns = silent.irrelevant_ns;
                    c.access.merge(samples);
                }
                input.body.clone()
            }
        };

        // In process, layer by layer.
        let r = replay::replay(tenant, &body, &input.expected);
        if let Err(e) = r.check {
            report.problem(e);
        }
        let rid = trace_id + 1;
        let root = spans.record(rid, None, "replay", r.start, r.checked);
        spans.record(rid, Some(root), "spec.compile", r.start, r.compiled);
        spans.record(rid, Some(root), "codec.decode", r.compiled, r.decoded);
        spans.record(rid, Some(root), "reassemble", r.decoded, r.reassembled);
        spans.record(rid, Some(root), "pipeline.suite", r.reassembled, r.done);
        c.replay_ms.push(ms(r.checked - r.start));
        c.compile_us
            .push((r.compiled - r.start).as_secs_f64() * 1e6);
        c.decode_ns
            .push((r.decoded - r.compiled).as_nanos() as f64 / r.frames.max(1) as f64);
        c.reassemble_ns
            .push((r.reassembled - r.decoded).as_nanos() as f64 / r.messages.max(1) as f64);
        c.suite_ms.push(ms(r.done - r.reassembled));

        // Each analysis alone over the same stream.
        let (ltl_time, ltl) = replay::single(tenant, AnalysisKind::Ltl, &input.messages);
        if let Some(l) = ltl.get(AnalysisKind::Ltl).and_then(|r| r.as_ltl()) {
            c.ltl_ms.push(ms(ltl_time));
            c.states.push(l.states_explored as f64);
            c.levels.push(f64::from(l.levels_built));
            c.peak_frontier.push(l.peak_frontier as f64);
            c.states_per_s
                .push(l.states_explored as f64 / ltl_time.as_secs_f64().max(1e-9));
            c.non_writes.push(l.non_writes_skipped as f64);
            if workload == Workload::WideLattice
                && scale.wide_threads == inputs::WIDE_THREADS
                && l.states_explored != 65_536
            {
                report.problem(format!(
                    "wide-lattice explored {} states, not 65 536",
                    l.states_explored
                ));
            }
        }
        c.race_ms.push(ms(replay::single(
            tenant,
            AnalysisKind::Race,
            &input.messages,
        )
        .0));
        c.atomicity_ms.push(ms(replay::single(
            tenant,
            AnalysisKind::Atomicity,
            &input.messages,
        )
        .0));
        let (evals, hits) =
            *eval_cache[idx].get_or_insert_with(|| replay::eval_counts(tenant, &input.messages));
        c.evals.push(evals as f64);
        c.hits.push(hits as f64);

        c.process_ns
            .push(replay::process_ns(&tenant.relevance, &input.events, 20_000));
        c.encode_ns.push(replay::encode_ns(&input.messages, 20_000));
        c.bytes_per_msg
            .push(input.body.len() as f64 / input.messages.len().max(1) as f64);
    }
    for (threads, ns) in replay::process_sweep(opts.seed, scale.sweep_events) {
        report.set(&format!("core.process_ns.t{threads}"), ns);
    }

    let a = &c.access;
    report.set("instrument.write_ns.p50", quantile_ns(&a.write_ns, 0.5));
    report.set("instrument.write_ns.p99", quantile_ns(&a.write_ns, 0.99));
    report.set(
        "instrument.irrelevant_ns.p50",
        quantile_ns(&a.irrelevant_ns, 0.5),
    );
    report.set("instrument.emit_ns.p50", quantile_ns(&a.emit_ns, 0.5));
    report.set("instrument.emit_ns.p99", quantile_ns(&a.emit_ns, 0.99));
    let emit_total: u64 = a.emit_ns.iter().map(|&x| u64::from(x)).sum();
    report.set(
        "instrument.emit_share",
        emit_total as f64 / a.access_ns.max(1) as f64,
    );
    report.set(
        "instrument.msgs_per_access",
        a.messages as f64 / a.accesses.max(1) as f64,
    );
    report.set("core.process_ns", median(&c.process_ns));
    report.set("codec.encode_ns_per_frame", median(&c.encode_ns));
    report.set("codec.decode_ns_per_frame", median(&c.decode_ns));
    report.set("codec.bytes_per_msg", median(&c.bytes_per_msg));
    report.set("reassemble.ns_per_msg", median(&c.reassemble_ns));
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    report.set("lattice.ltl_ms", median(&c.ltl_ms));
    report.set("lattice.states", mean(&c.states));
    report.set("lattice.levels", mean(&c.levels));
    report.set("lattice.peak_frontier", mean(&c.peak_frontier));
    report.set("lattice.states_per_s", median(&c.states_per_s));
    report.set("lattice.non_writes_skipped", mean(&c.non_writes));
    report.set("spec.formula_evals", mean(&c.evals));
    report.set("spec.eval_cache_hits", mean(&c.hits));
    report.set("spec.compile_us", median(&c.compile_us));
    report.set("analyses.race_ms", median(&c.race_ms));
    report.set("analyses.atomicity_ms", median(&c.atomicity_ms));
    let suite_ms = median(&c.suite_ms);
    report.set("pipeline.suite_ms", suite_ms);
    let singles: f64 = tenant
        .kinds
        .iter()
        .map(|k| match k {
            AnalysisKind::Ltl => median(&c.ltl_ms),
            AnalysisKind::Race => median(&c.race_ms),
            AnalysisKind::Atomicity => median(&c.atomicity_ms),
        })
        .sum();
    report.set("pipeline.sharing_gain", singles / suite_ms.max(1e-9));
    report.set("serve.connect_us", median(&c.connect_us));
    report.set("serve.upload_us", median(&c.upload_us));
    report.set("serve.wait_ms", median(&c.wait_ms));
    report.set(
        "serve.overhead_ms",
        median(&c.daemon_ms) - median(&c.replay_ms),
    );
    report.set(
        "trace.overhead_pct",
        (median(&c.traced_ms) / median(&c.untraced_ms) - 1.0) * 100.0,
    );
    report.set("sessions", c.traced_ms.len() as f64);

    for root in ["replay", "session"] {
        let acc = spans::account(spans.spans(), root);
        if acc.layers_ns() + acc.unaccounted_ns != acc.wall_ns {
            report.problem(format!("{root} spans do not add up to their wall time"));
        }
        if root == "replay" {
            report.set("unaccounted_share", acc.unaccounted_share());
        }
    }
    if let Some(dir) = &opts.trace_out {
        let path = dir.join(format!("{}.spans.json", workload.name()));
        let written = std::fs::create_dir_all(dir).and_then(|()| {
            std::fs::write(
                &path,
                spans::to_json(workload.name(), spans.spans(), &["replay", "session"]),
            )
        });
        if let Err(e) = written {
            report.problem(format!("writing {}: {e}", path.display()));
        }
    }
    stats.into_report(report);
}

/// One daemon session as the traced run sees it.
struct Observed {
    timing: Timing,
    /// The instrumented program's run inside the session (live-stream).
    program: Duration,
    check: Result<(), String>,
}

type LiveCapture = (AccessSamples, Vec<Message>);

fn daemon_session(
    workload: Workload,
    setup: &Setup,
    input: &Input,
    rounds: usize,
    traced: bool,
) -> (Option<Observed>, Option<LiveCapture>) {
    if workload == Workload::LiveStream {
        let Ok(run) = instr::live_instrumented(setup.addr, &setup.tenant, rounds, traced) else {
            return (None, None);
        };
        let timing = Timing {
            start: run.start,
            connected: run.connected,
            uploaded: run.exited,
            done: run.done,
        };
        let observed = Observed {
            timing,
            program: run.exited - run.connected,
            check: client::check(run.verdict, &input.expected),
        };
        let live = run.samples.zip(run.captured);
        (Some(observed), live)
    } else {
        match client::session(setup.addr, &input.wire) {
            Ok((line, timing)) => (
                Some(Observed {
                    timing,
                    program: Duration::ZERO,
                    check: client::check(Ok(line), &input.expected),
                }),
                None,
            ),
            Err(_) => (None, None),
        }
    }
}

fn same_message_set(a: &[Message], b: &[Message]) -> bool {
    let key = |m: &Message| (m.event.thread, m.clock.as_slice().to_vec());
    let mut a = a.to_vec();
    let mut b = b.to_vec();
    a.sort_by_key(key);
    b.sort_by_key(key);
    a == b
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_is_the_median_block_rate() {
        // 30 sessions of 10 messages, one every 100 ms: 100 msg/s. A stall
        // that delays one block fivefold does not move the median.
        let mut stats = LoopStats::default();
        let mut at = Duration::ZERO;
        for i in 0..30 {
            at += Duration::from_millis(if (3..6).contains(&i) { 500 } else { 100 });
            stats.record(Ok(()), Duration::from_millis(1), (at, 10));
        }
        assert!(
            (stats.events_per_s() - 100.0).abs() < 1e-6,
            "{}",
            stats.events_per_s()
        );
        assert_eq!(LoopStats::default().events_per_s(), 0.0);
        // Completions from two connections arrive out of order.
        let mut two = LoopStats::default();
        two.record(Ok(()), Duration::ZERO, (Duration::from_secs(2), 4));
        two.record(Ok(()), Duration::ZERO, (Duration::from_secs(1), 4));
        assert_eq!(two.events_per_s(), 4.0);
    }
}
