//! Deterministic counters of the wide-lattice workload, pinned.
//!
//! Eight threads each write their own variable three times with no
//! synchronization, so the computation lattice is the full hypercube of
//! `4^8 = 65 536` cuts over 24 levels — the paper's §4 level-by-level
//! analysis at its widest. The stream takes the path `jmpax serve` runs:
//! v2 frames pushed into one observer session in the daemon's 8 KiB socket
//! chunks, under the daemon's default stall budget.
//!
//! Everything asserted here is a count, never a wall time, so it holds on
//! any host. `spec.formula_evals` is what monitor-state interning exists to
//! shrink: with the per-level step cache off, every one of the
//! `25 + 393 192 = 393 217` monitor steps walks the formula.

use bytes::BytesMut;
use jmpax_core::{AnalysisKind, Event, Message, MvcInstrumentor, Relevance, ThreadId, VarId};
use jmpax_instrument::encode_frame_v2;
use jmpax_lattice::{AnalysisReport, DEFAULT_STALL_BUDGET};
use jmpax_observer::{Pipeline, PipelineConfig};
use jmpax_spec::ProgramState;
use jmpax_telemetry::Registry;

const THREADS: usize = 8;
const ROUNDS: usize = 3;
const SPEC: &str = "[*] v0 >= 0";
/// The daemon's socket read size.
const CHUNK: usize = 8192;

/// The banded workload without barriers: thread `t` writes `v<t>` once per
/// round. `v<THREADS>` is the (unused) barrier variable, declared so the
/// symbol table matches the generator the experiments use.
fn workload() -> (Vec<Message>, ProgramState) {
    let mut instr = MvcInstrumentor::new(THREADS, Relevance::AllWrites);
    let mut messages = Vec::new();
    let mut counter = 0i64;
    for _ in 0..ROUNDS {
        for t in 0..THREADS {
            counter += 1;
            let event = Event::write(ThreadId(t as u32), VarId(t as u32), counter);
            messages.extend(instr.process(&event));
        }
    }
    let mut initial = ProgramState::new();
    for v in 0..=THREADS {
        initial.set(VarId(v as u32), 0i64);
    }
    (messages, initial)
}

/// What one run pins: the lattice shape, the verdict, and the physical
/// evaluation split.
#[derive(Debug)]
struct Counts {
    states: u64,
    levels: u32,
    peak_frontier: usize,
    violations: usize,
    exact: bool,
    formula_evals: u64,
    eval_cache_hits: u64,
}

fn run(frames: &[u8], initial: &ProgramState) -> Counts {
    let registry = Registry::enabled();
    let mut symbols = jmpax_core::SymbolTable::new();
    for v in 0..=THREADS {
        symbols.intern(&format!("v{v}"));
    }
    let monitor = jmpax_spec::parse(SPEC, &mut symbols)
        .expect("spec parses")
        .monitor()
        .expect("spec monitors")
        .with_telemetry(&registry);

    let pipeline = Pipeline::new(PipelineConfig::new().telemetry(&registry));
    let mut session = pipeline
        .session(&[AnalysisKind::Ltl], Some((monitor, initial)), THREADS)
        .with_stall_budget(DEFAULT_STALL_BUDGET);
    for chunk in frames.chunks(CHUNK) {
        session.push_bytes(chunk);
    }
    let (suite, _) = session.finish();
    let [AnalysisReport::Ltl(ltl)] = suite.reports.as_slice() else {
        panic!("an LTL-only suite yields one LTL report: {suite:?}");
    };
    let snapshot = registry.snapshot();
    Counts {
        states: ltl.states_explored,
        levels: ltl.levels_built,
        peak_frontier: ltl.peak_frontier,
        violations: ltl.violations.len(),
        exact: ltl.exactness.is_exact(),
        formula_evals: snapshot.counter("spec.formula_evals").unwrap_or(0),
        eval_cache_hits: snapshot.counter("spec.eval_cache_hits").unwrap_or(0),
    }
}

#[test]
fn wide_lattice_counters_are_pinned() {
    let (messages, initial) = workload();
    assert_eq!(messages.len(), THREADS * ROUNDS);
    let mut frames = BytesMut::new();
    for m in &messages {
        encode_frame_v2(m, &mut frames);
    }

    let sequential = run(&frames, &initial);
    assert_eq!(sequential.states, 65_536, "4^8 cuts");
    assert_eq!(sequential.levels, 24);
    assert_eq!(sequential.peak_frontier, 8_092);
    assert_eq!(sequential.violations, 0);
    assert!(sequential.exact, "a clean stream is Exact");
    assert_eq!(sequential.formula_evals, 25);
    assert_eq!(sequential.eval_cache_hits, 393_192);
}
