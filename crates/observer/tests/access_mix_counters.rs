//! Deterministic counters of an access-mix-shaped stream, pinned.
//!
//! Four threads read and write eight variables at random (30 % writes),
//! and every access is relevant, so most lattice edges are reads: the
//! engine steps over them as stutters (`lattice.non_writes_skipped`) while
//! the spec `v0 >= 0` names one variable. The stream takes the path
//! `jmpax serve` runs: v2 frames pushed into one observer session in the
//! daemon's 8 KiB socket chunks, under the daemon's default stall budget.
//! The counts were recorded before the expansion engine's node layout was
//! flattened and must not move with it.
//!
//! Everything asserted here is a count, never a wall time, so it holds on
//! any host.

use bytes::BytesMut;
use jmpax_core::gen::{random_execution, RandomExecutionConfig};
use jmpax_core::{AnalysisKind, Message, Relevance, VarId};
use jmpax_instrument::encode_frame_v2;
use jmpax_lattice::{AnalysisReport, DEFAULT_STALL_BUDGET};
use jmpax_observer::{Pipeline, PipelineConfig};
use jmpax_spec::ProgramState;
use jmpax_telemetry::Registry;

const THREADS: usize = 4;
const VARS: usize = 8;
const EVENTS: usize = 600;
const SEED: u64 = 0xACCE55;
const SPEC: &str = "v0 >= 0";
/// The daemon's socket read size.
const CHUNK: usize = 8192;

/// A seeded read/write mix with every access of every variable relevant.
fn workload() -> (Vec<Message>, ProgramState) {
    let execution = random_execution(RandomExecutionConfig {
        threads: THREADS,
        vars: VARS,
        events: EVENTS,
        write_ratio: 0.3,
        internal_ratio: 0.0,
        seed: SEED,
    });
    let messages = execution.instrument(Relevance::accesses_of((0..VARS as u32).map(VarId)));
    (messages, ProgramState::from_map(execution.initial))
}

/// What one run pins: the lattice shape, the stutters, the verdict, and
/// the physical evaluation split.
#[derive(Debug)]
struct Counts {
    states: u64,
    levels: u32,
    peak_frontier: usize,
    non_writes_skipped: u64,
    violations: usize,
    exact: bool,
    formula_evals: u64,
    eval_cache_hits: u64,
}

fn run(frames: &[u8], initial: &ProgramState) -> Counts {
    let registry = Registry::enabled();
    let mut symbols = jmpax_core::SymbolTable::new();
    for v in 0..VARS {
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
        non_writes_skipped: ltl.non_writes_skipped,
        violations: ltl.violations.len(),
        exact: ltl.exactness.is_exact(),
        formula_evals: snapshot.counter("spec.formula_evals").unwrap_or(0),
        eval_cache_hits: snapshot.counter("spec.eval_cache_hits").unwrap_or(0),
    }
}

#[test]
fn access_mix_counters_are_pinned() {
    let (messages, initial) = workload();
    assert_eq!(messages.len(), EVENTS, "every access is relevant");
    let mut frames = BytesMut::new();
    for m in &messages {
        encode_frame_v2(m, &mut frames);
    }

    let sequential = run(&frames, &initial);
    assert_eq!(sequential.states, 41_558);
    assert_eq!(sequential.levels, 600, "one level per relevant access");
    assert_eq!(sequential.peak_frontier, 295);
    assert_eq!(sequential.non_writes_skipped, 111_444);
    assert_eq!(sequential.violations, 0, "writes are positive");
    assert!(sequential.exact, "a clean stream is Exact");
    // The spec's one atom is true everywhere, so each level evaluates the
    // formula once and every other edge is a step-cache hit.
    assert_eq!(sequential.formula_evals, 601);
    assert_eq!(sequential.eval_cache_hits, 133_396);
}
