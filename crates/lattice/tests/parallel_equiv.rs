//! Equivalence of the sharded parallel frontier expansion with the
//! sequential path: for any workload and any worker count the streaming
//! report (states, levels, peak frontier, run counts, violations with
//! their counterexamples, exactness) must be bit-identical — parallelism
//! is an implementation detail, never an observable one.

use jmpax_core::gen::{random_execution, RandomExecutionConfig};
use jmpax_core::{
    AnalysisKind, Event, Message, MvcInstrumentor, Relevance, SymbolTable, ThreadId, VarId,
};
use jmpax_lattice::{
    analyze, AnalysisConfig, AnalysisSuite, Exactness, LatticeInput, StreamReport, SuiteBuilder,
};
use jmpax_spec::{parse, Monitor, ProgramState};
use jmpax_telemetry::Registry;
use proptest::prelude::*;

const SPECS: &[&str] = &[
    "v0 <= v1 \\/ v2 < 3",
    "[*] v0 >= 0",
    "start(v1 > 2) -> v2 != 0",
    "[v0 = 1, v1 > v2)",
    "v0 = 0 S v1 = 0",
];

fn monitor_for(spec: &str) -> Monitor {
    let mut syms = SymbolTable::new();
    for n in ["v0", "v1", "v2", "v3"] {
        syms.intern(n);
    }
    parse(spec, &mut syms).unwrap().monitor().unwrap()
}

/// An LTL-only suite over `monitor`, tuned by `config`, reporting into
/// `registry`.
fn ltl_suite(
    monitor: &Monitor,
    initial: &ProgramState,
    threads: usize,
    config: &AnalysisConfig,
    registry: &Registry,
) -> AnalysisSuite {
    SuiteBuilder::new(&[AnalysisKind::Ltl], threads)
        .config(config)
        .telemetry(registry)
        .build(Some((monitor.clone(), initial)))
}

/// Runs `msgs` through an LTL-only suite and returns the ptLTL report.
fn run(
    monitor: &Monitor,
    initial: &ProgramState,
    threads: usize,
    msgs: &[Message],
    config: &AnalysisConfig,
    registry: &Registry,
) -> StreamReport {
    let mut suite = ltl_suite(monitor, initial, threads, config, registry);
    suite.push_all(msgs.iter().cloned());
    suite.finish(Exactness::Exact).into_ltl()
}

fn stream(
    monitor: &Monitor,
    initial: &ProgramState,
    threads: usize,
    msgs: &[Message],
    config: &AnalysisConfig,
) -> StreamReport {
    // Granularity 2 forces even the narrow levels of these small test
    // workloads through the sharded path (the default of 64 would keep
    // them inline and make the comparison vacuous).
    let config = config.with_shard_granularity(2);
    run(
        monitor,
        initial,
        threads,
        msgs,
        &config,
        &Registry::disabled(),
    )
}

/// Every observable field of the report, flattened to one comparable
/// string — two reports render identically iff they are bit-identical.
fn fingerprint(r: &StreamReport) -> String {
    format!(
        "states={} levels={} peak={} completed={} exactness={:?} non_writes={} runs={}/{} \
         violations={:?}",
        r.states_explored,
        r.levels_built,
        r.peak_frontier,
        r.completed,
        r.exactness,
        r.non_writes_skipped,
        r.violating_runs,
        r.total_runs,
        r.violations,
    )
}

/// A wide hypercube computation: `threads` threads each writing their
/// private variable `events` times — no cross-thread causality, so the
/// middle levels are wide enough to engage several shard workers.
fn hypercube(threads: usize, events: usize) -> (Vec<Message>, ProgramState) {
    let mut instr = MvcInstrumentor::new(threads, Relevance::AllWrites);
    let mut msgs = Vec::new();
    for round in 0..events {
        for t in 0..threads {
            let e = Event::write(
                ThreadId(t as u32),
                VarId(t as u32),
                (round * threads + t) as i64,
            );
            msgs.extend(instr.process(&e));
        }
    }
    let mut initial = ProgramState::new();
    for v in 0..threads {
        initial.set(VarId(v as u32), 0i64);
    }
    (msgs, initial)
}

/// A deliberately unbalanced computation: thread 0 emits `heavy` writes
/// while every other thread emits exactly one. Level widths swing hard
/// (wide in the middle where thread 0's chain crosses the others, narrow
/// at the ends), so with chunked work-stealing some workers exhaust their
/// fair share and steal the tail — exactly the schedule the determinism
/// argument has to survive.
fn skewed(threads: usize, heavy: usize) -> (Vec<Message>, ProgramState) {
    let mut instr = MvcInstrumentor::new(threads, Relevance::AllWrites);
    let mut msgs = Vec::new();
    for t in 1..threads {
        let e = Event::write(ThreadId(t as u32), VarId(t as u32), t as i64);
        msgs.extend(instr.process(&e));
    }
    for round in 0..heavy {
        let e = Event::write(ThreadId(0), VarId(0), round as i64);
        msgs.extend(instr.process(&e));
    }
    let mut initial = ProgramState::new();
    for v in 0..threads {
        initial.set(VarId(v as u32), 0i64);
    }
    (msgs, initial)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random 4-thread workloads, every spec, workers 1 vs 2 vs 8: the
    /// streaming reports must agree exactly, and with the oracle.
    #[test]
    fn parallel_streaming_is_bit_identical_to_sequential(seed in 0u64..1000) {
        let ex = random_execution(RandomExecutionConfig {
            threads: 4,
            vars: 4,
            events: 24,
            write_ratio: 0.8,
            internal_ratio: 0.0,
            seed,
        });
        let msgs = ex.instrument(Relevance::AllWrites);
        let initial = ProgramState::new();

        for spec in SPECS {
            let monitor = monitor_for(spec);
            let sequential = stream(
                &monitor,
                &initial,
                4,
                &msgs,
                &AnalysisConfig::default(),
            );
            for workers in [2usize, 8] {
                let parallel = stream(
                    &monitor,
                    &initial,
                    4,
                    &msgs,
                    &AnalysisConfig::default().with_parallelism(workers),
                );
                prop_assert_eq!(
                    fingerprint(&sequential),
                    fingerprint(&parallel),
                    "seed {} spec `{}` workers {}",
                    seed,
                    spec,
                    workers
                );
            }

            // And the shared report agrees with the materialized oracle.
            let input = LatticeInput::from_messages(msgs.clone(), initial.clone()).unwrap();
            let oracle = analyze(input, &monitor);
            prop_assert_eq!(sequential.states_explored as usize, oracle.states);
            prop_assert_eq!(sequential.total_runs, oracle.total_runs);
            prop_assert_eq!(sequential.violating_runs, oracle.violating_runs);
        }
    }

    /// Work-stealing determinism: on skewed workloads (thread 0 much
    /// heavier than the rest) the persistent pool's steal schedule varies
    /// run to run, but the report must stay bit-identical at every worker
    /// count — including counts far above the host's cores.
    #[test]
    fn work_stealing_is_bit_identical_across_worker_counts(
        seed in 0u64..500,
        heavy in 6usize..12,
    ) {
        let (skew_msgs, skew_initial) = skewed(4, heavy);
        let ex = random_execution(RandomExecutionConfig {
            threads: 5,
            vars: 4,
            events: 28,
            write_ratio: 0.9,
            internal_ratio: 0.0,
            seed,
        });
        let rand_msgs = ex.instrument(Relevance::AllWrites);
        let rand_initial = ProgramState::new();

        for spec in SPECS {
            let monitor = monitor_for(spec);
            for (threads, msgs, initial) in [
                (4usize, &skew_msgs, &skew_initial),
                (5, &rand_msgs, &rand_initial),
            ] {
                let reference = stream(
                    &monitor,
                    initial,
                    threads,
                    msgs,
                    &AnalysisConfig::default().with_parallelism(1),
                );
                for workers in [3usize, 7, 16] {
                    let got = stream(
                        &monitor,
                        initial,
                        threads,
                        msgs,
                        &AnalysisConfig::default().with_parallelism(workers),
                    );
                    prop_assert_eq!(
                        fingerprint(&reference),
                        fingerprint(&got),
                        "seed {} heavy {} spec `{}` workers {}",
                        seed,
                        heavy,
                        spec,
                        workers
                    );
                }
            }
        }
    }

    /// The monitor step cache is purely physical: reports (and hence
    /// verdicts, violation lists and exactness) are bit-identical with the
    /// cache on and off, sequentially and under parallel expansion.
    #[test]
    fn eval_cache_is_unobservable_in_reports(seed in 0u64..500) {
        let ex = random_execution(RandomExecutionConfig {
            threads: 4,
            vars: 4,
            events: 24,
            write_ratio: 0.8,
            internal_ratio: 0.0,
            seed,
        });
        let msgs = ex.instrument(Relevance::AllWrites);
        let initial = ProgramState::new();

        for spec in SPECS {
            let monitor = monitor_for(spec);
            let cached = stream(
                &monitor,
                &initial,
                4,
                &msgs,
                &AnalysisConfig::default().with_eval_cache(true),
            );
            let uncached = stream(
                &monitor,
                &initial,
                4,
                &msgs,
                &AnalysisConfig::default().with_eval_cache(false),
            );
            prop_assert_eq!(
                fingerprint(&cached),
                fingerprint(&uncached),
                "seed {} spec `{}` (sequential)",
                seed,
                spec
            );
            let parallel_cached = stream(
                &monitor,
                &initial,
                4,
                &msgs,
                &AnalysisConfig::default().with_parallelism(7).with_eval_cache(true),
            );
            let parallel_uncached = stream(
                &monitor,
                &initial,
                4,
                &msgs,
                &AnalysisConfig::default().with_parallelism(7).with_eval_cache(false),
            );
            prop_assert_eq!(
                fingerprint(&cached),
                fingerprint(&parallel_cached),
                "seed {} spec `{}` (parallel, cache on)",
                seed,
                spec
            );
            prop_assert_eq!(
                fingerprint(&cached),
                fingerprint(&parallel_uncached),
                "seed {} spec `{}` (parallel, cache off)",
                seed,
                spec
            );
        }
    }
}

/// Regression: a level must never be expanded before it is sealed, no
/// matter how many workers are configured. Deliver only one thread's
/// messages of a 3-thread computation — the other threads are silent but
/// not ended, so the frontier has to hold at the initial cut on both
/// paths instead of racing ahead on partial information.
#[test]
fn parallel_path_never_expands_an_unsealed_level() {
    let mut instr = MvcInstrumentor::new(3, Relevance::AllWrites);
    let mut t0_msgs = Vec::new();
    let mut rest = Vec::new();
    for round in 0..3 {
        for t in 0..3u32 {
            let e = Event::write(ThreadId(t), VarId(t), round + 1);
            let m = instr.process(&e).unwrap();
            if t == 0 {
                t0_msgs.push(m);
            } else {
                rest.push(m);
            }
        }
    }
    let monitor = monitor_for("[*] v0 >= 0");
    let initial = ProgramState::new();

    let configs = [
        AnalysisConfig::default(),
        AnalysisConfig::default().with_parallelism(4),
    ];
    let mut full_prints = Vec::new();
    for config in &configs {
        let registry = Registry::enabled();
        let config = config.with_shard_granularity(1);
        let mut s = ltl_suite(&monitor, &initial, 3, &config, &registry);
        s.push_all(t0_msgs.iter().cloned());
        // T1/T2 have delivered nothing and have not ended: no cut beyond
        // S0,0,0 is expandable yet, so the frontier must still hold the
        // single initial cut — an unsealed level was never handed to the
        // workers.
        let snap = registry.snapshot();
        assert_eq!(
            (
                snap.counter("lattice.levels_built").unwrap_or(0),
                snap.gauge("lattice.peak_frontier").map(|(_, peak)| peak)
            ),
            (0, Some(1)),
            "frontier advanced past an unsealed level"
        );
        assert_eq!(snap.counter("lattice.violations").unwrap_or(0), 0);
        s.push_all(rest.iter().cloned());
        full_prints.push(fingerprint(&s.finish(Exactness::Exact).into_ltl()));
    }
    assert_eq!(full_prints[0], full_prints[1]);
}

/// The `lattice.parallel.*` telemetry family reports engagement: on a
/// wide hypercube with several workers, at least one level must actually
/// have been sharded.
#[test]
fn parallel_telemetry_reports_engagement() {
    let (msgs, initial) = hypercube(4, 3);
    let monitor = monitor_for("[*] v0 >= 0");

    let registry = Registry::enabled();
    let config = AnalysisConfig::default()
        .with_parallelism(8)
        .with_shard_granularity(2);
    let parallel_report = run(&monitor, &initial, 4, &msgs, &config, &registry);
    let snap = registry.snapshot();
    assert!(
        snap.counter("lattice.parallel.levels").unwrap_or(0) > 0,
        "no level engaged the worker pool on a wide hypercube"
    );

    // A sequential run must not touch the parallel family at all.
    let registry = Registry::enabled();
    let config = AnalysisConfig::default();
    let sequential_report = run(&monitor, &initial, 4, &msgs, &config, &registry);
    let snap = registry.snapshot();
    assert_eq!(snap.counter("lattice.parallel.levels").unwrap_or(0), 0);

    // And engagement is unobservable in the report itself.
    assert_eq!(
        fingerprint(&sequential_report),
        fingerprint(&parallel_report)
    );
}

/// Step-cache accounting: physical evaluations plus cache hits must equal
/// the cache-off evaluation count exactly (every monitor step is one or
/// the other), the report must not change, and on a valuation-dense
/// workload the cache must absorb at least half the physical evals.
#[test]
fn eval_cache_moves_physical_evals_into_hits() {
    let (msgs, initial) = hypercube(4, 3);
    let run = |eval_cache: bool| {
        let registry = Registry::enabled();
        let monitor = monitor_for("[*] v0 >= 0").with_telemetry(&registry);
        let config = AnalysisConfig::default().with_eval_cache(eval_cache);
        let report = run(&monitor, &initial, 4, &msgs, &config, &registry);
        let snap = registry.snapshot();
        (
            fingerprint(&report),
            snap.counter("spec.formula_evals").unwrap_or(0),
            snap.counter("spec.eval_cache_hits").unwrap_or(0),
        )
    };
    let (fp_on, evals_on, hits_on) = run(true);
    let (fp_off, evals_off, hits_off) = run(false);
    assert_eq!(fp_on, fp_off, "cache changed the report");
    assert_eq!(hits_off, 0, "cache off must never record a hit");
    assert!(hits_on > 0, "cache on must hit on a hypercube");
    assert_eq!(
        evals_on + hits_on,
        evals_off,
        "every step is either a physical eval or a hit"
    );
    assert!(
        evals_off >= 2 * evals_on,
        "cache must absorb at least half the physical evals ({evals_on} vs {evals_off})"
    );
}

/// Frontier-cap pruning composes with sharding: the beam search keeps
/// the same cuts, counts the same prunes, and degrades exactness the
/// same way at every worker count.
#[test]
fn frontier_cap_composes_with_parallelism() {
    let (msgs, initial) = hypercube(4, 3);
    let monitor = monitor_for("v0 >= 0");
    let capped = AnalysisConfig::default().with_frontier_cap(6);
    let sequential = stream(&monitor, &initial, 4, &msgs, &capped);
    assert!(
        !sequential.exactness.is_exact(),
        "cap 6 must actually prune a hypercube"
    );
    for workers in [2usize, 4, 8] {
        let parallel = stream(
            &monitor,
            &initial,
            4,
            &msgs,
            &capped.with_parallelism(workers),
        );
        assert_eq!(
            fingerprint(&sequential),
            fingerprint(&parallel),
            "workers {workers}"
        );
    }
}

/// A computation whose lattice keys need more than 128 bits while its
/// levels stay a few cuts wide: `threads` threads pass a token
/// round-robin (a write-write chain on `tok`), and each writes its private
/// variable right after its token write. Thread `t + 2` reads that
/// variable before its own turn, so each private write floats past at most
/// one foreign token write. With 20 threads and 130 rounds every thread
/// emits 260 messages, so each thread's key field takes 9 bits: 180 bits
/// in all.
fn token_ring(threads: usize, rounds: usize) -> (Vec<Message>, ProgramState) {
    let tok = VarId(threads as u32);
    let mut instr = MvcInstrumentor::new(threads, Relevance::AllWrites);
    let mut msgs = Vec::new();
    let mut counter = 0i64;
    for _ in 0..rounds {
        for t in 0..threads {
            let thread = ThreadId(t as u32);
            let behind = (t + threads - 2) % threads;
            instr.process(&Event::read(thread, VarId(behind as u32)));
            counter += 1;
            msgs.extend(instr.process(&Event::write(thread, tok, counter)));
            msgs.extend(instr.process(&Event::write(thread, VarId(t as u32), counter)));
        }
    }
    let mut initial = ProgramState::new();
    for v in 0..=threads {
        initial.set(VarId(v as u32), 0i64);
    }
    (msgs, initial)
}

/// Keys wider than two machine words merge exactly like one-word keys:
/// the sharded reports match the sequential one at 1, 2 and 8 workers for
/// every spec, the parallel path really engages, and the sequential report
/// matches the materialized oracle.
#[test]
fn keys_wider_than_128_bits_are_bit_identical_across_worker_counts() {
    const THREADS: usize = 20;
    let (msgs, initial) = token_ring(THREADS, 130);
    assert_eq!(msgs.len(), THREADS * 260, "260 messages per thread");
    for spec in SPECS {
        let monitor = monitor_for(spec);
        let config = AnalysisConfig::default()
            .with_history(usize::MAX)
            .with_shard_granularity(1);
        let sequential = stream(&monitor, &initial, THREADS, &msgs, &config);
        for workers in [2usize, 8] {
            let registry = Registry::enabled();
            let config = config.with_parallelism(workers);
            let parallel = run(&monitor, &initial, THREADS, &msgs, &config, &registry);
            assert_eq!(
                fingerprint(&sequential),
                fingerprint(&parallel),
                "spec `{spec}` workers {workers}"
            );
            let snap = registry.snapshot();
            assert!(snap.counter("lattice.parallel.levels").unwrap_or(0) > 0);
        }
        let input = LatticeInput::from_messages(msgs.clone(), initial.clone()).unwrap();
        let oracle = analyze(input, &monitor);
        assert_eq!(sequential.states_explored as usize, oracle.states);
        assert_eq!(sequential.satisfied(), oracle.violations.is_empty());
        // 20 interleaved threads saturate the run counts.
        assert_eq!(sequential.total_runs, StreamReport::SATURATED);
        assert_eq!(oracle.total_runs, StreamReport::SATURATED);
    }
}
