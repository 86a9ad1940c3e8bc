//! Equivalence of the multi-analysis suite with single-analysis passes:
//! running `[ltl, race, atomicity]` together over one causal delivery
//! pass must produce, for every analysis, a report bit-identical to the
//! one a dedicated single-analysis pass produces over the same messages
//! in the same arrival order — whether the stream arrives clean or
//! mangled (reordered and lossy). Sharing the pass is an
//! implementation detail, never an observable one. The ptLTL report,
//! counterexamples included, does not depend on arrival order at all.

use jmpax_core::gen::{random_execution, RandomExecutionConfig};
use jmpax_core::{AnalysisKind, Message, Relevance, SymbolTable, VarId};
use jmpax_lattice::{AnalysisConfig, Exactness, SuiteBuilder, SuiteReport};
use jmpax_spec::{parse, Monitor, ProgramState};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

const SPECS: &[&str] = &["[*] v0 >= 0", "v0 <= v1 \\/ v2 < 3"];

const THREADS: usize = 3;

fn monitor_for(spec: &str) -> Monitor {
    let mut syms = SymbolTable::new();
    for n in ["v0", "v1", "v2", "v3"] {
        syms.intern(n);
    }
    parse(spec, &mut syms).unwrap().monitor().unwrap()
}

/// One suite pass over the given messages. `v0` doubles as the sync
/// variable so the race/atomicity happens-before sees lock transfers.
fn pass_with(
    kinds: &[AnalysisKind],
    monitor: &Monitor,
    msgs: &[Message],
    config: &AnalysisConfig,
) -> SuiteReport {
    let initial = ProgramState::new();
    let ltl = kinds
        .contains(&AnalysisKind::Ltl)
        .then(|| (monitor.clone(), &initial));
    let mut suite = SuiteBuilder::new(kinds, THREADS)
        .sync_vars([VarId(0)])
        .config(config)
        .build(ltl);
    suite.push_all(msgs.iter().cloned());
    suite.finish(Exactness::Exact)
}

fn pass(kinds: &[AnalysisKind], monitor: &Monitor, msgs: &[Message]) -> SuiteReport {
    pass_with(kinds, monitor, msgs, &AnalysisConfig::default())
}

/// Deterministically mangle the stream: shuffle within a bounded window
/// and drop a few messages. The suite's reassembler reorders what it can
/// and, at the end of the stream, commits the holes as gaps and releases
/// the survivors — the degraded path every analysis must account for
/// identically.
fn mangle(msgs: &[Message], seed: u64) -> Vec<Message> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out: Vec<Message> = msgs
        .iter()
        .filter(|_| !rng.gen_bool(0.05))
        .cloned()
        .collect();
    for window in out.chunks_mut(6) {
        window.shuffle(&mut rng);
    }
    out
}

fn fingerprint(report: &SuiteReport, kind: AnalysisKind) -> String {
    format!("{:?}", report.get(kind).expect("analysis ran"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The tentpole determinism contract: for random workloads, every
    /// spec, clean and mangled streams, the combined
    /// `[ltl, race, atomicity]` pass matches three dedicated passes
    /// analysis-for-analysis, bit for bit.
    #[test]
    fn combined_suite_matches_single_analysis_passes(seed in 0u64..500) {
        let ex = random_execution(RandomExecutionConfig {
            threads: THREADS,
            vars: 4,
            events: 21,
            write_ratio: 0.7,
            internal_ratio: 0.0,
            seed,
        });
        let clean = ex.instrument(Relevance::Everything);
        let mangled = mangle(&clean, seed ^ 0xDEAD_BEEF);
        let all = AnalysisKind::ALL;

        for spec in SPECS {
            let monitor = monitor_for(spec);
            for (label, msgs) in [("clean", &clean), ("mangled", &mangled)] {
                let combined = pass(&all, &monitor, msgs);
                prop_assert_eq!(combined.reports.len(), all.len());
                for kind in all {
                    let single = pass(&[kind], &monitor, msgs);
                    prop_assert_eq!(
                        fingerprint(&combined, kind),
                        fingerprint(&single, kind),
                        "seed {} spec `{}` {} kind {}",
                        seed, spec, label, kind.name()
                    );
                }
                // The eval cache is an LTL-lattice throughput knob; no
                // report may change when it is switched off.
                let uncached = pass_with(
                    &all,
                    &monitor,
                    msgs,
                    &AnalysisConfig::default().with_eval_cache(false),
                );
                for kind in all {
                    prop_assert_eq!(
                        fingerprint(&combined, kind),
                        fingerprint(&uncached, kind),
                        "eval cache changed seed {} spec `{}` {} kind {}",
                        seed, spec, label, kind.name()
                    );
                }
            }
        }
    }

    /// The ptLTL report depends only on the message set: every arrival
    /// order of the same messages, with a seeded subset duplicated on the
    /// wire, yields an Exact, Debug-identical report, counterexamples
    /// included. (Race and atomicity
    /// reports name accesses in delivery order, so they carry no such
    /// guarantee.)
    #[test]
    fn ltl_report_is_independent_of_arrival_order(seed in 0u64..500) {
        let ex = random_execution(RandomExecutionConfig {
            threads: THREADS,
            vars: 4,
            events: 21,
            write_ratio: 0.7,
            internal_ratio: 0.0,
            seed,
        });
        let msgs = ex.instrument(Relevance::Everything);
        let mut rng = StdRng::seed_from_u64(seed);

        for spec in SPECS {
            let monitor = monitor_for(spec);
            let config = AnalysisConfig::default().with_history(usize::MAX);
            let in_order = pass_with(&[AnalysisKind::Ltl], &monitor, &msgs, &config);
            for round in 0..3 {
                let mut shuffled = msgs.clone();
                let dups: Vec<Message> =
                    msgs.iter().filter(|_| rng.gen_bool(0.2)).cloned().collect();
                shuffled.extend(dups.iter().cloned());
                shuffled.shuffle(&mut rng);
                let got = pass_with(&[AnalysisKind::Ltl], &monitor, &shuffled, &config);
                prop_assert_eq!(got.reassembly.duplicates, dups.len() as u64);
                prop_assert!(
                    got.exactness().is_exact(),
                    "seed {} spec `{}` shuffle {}: {}",
                    seed, spec, round, got.exactness()
                );
                prop_assert_eq!(
                    fingerprint(&in_order, AnalysisKind::Ltl),
                    fingerprint(&got, AnalysisKind::Ltl),
                    "seed {} spec `{}` shuffle {}",
                    seed, spec, round
                );
            }
        }
    }

    /// Selection order is presentation, not semantics: any permutation of
    /// the suite produces the same per-analysis reports.
    #[test]
    fn selection_order_does_not_change_reports(seed in 0u64..200) {
        let ex = random_execution(RandomExecutionConfig {
            threads: THREADS,
            vars: 4,
            events: 18,
            write_ratio: 0.7,
            internal_ratio: 0.0,
            seed,
        });
        let msgs = ex.instrument(Relevance::Everything);
        let monitor = monitor_for(SPECS[0]);

        use AnalysisKind::{Atomicity, Ltl, Race};
        let forward = pass(&[Ltl, Race, Atomicity], &monitor, &msgs);
        let reversed = pass(&[Atomicity, Race, Ltl], &monitor, &msgs);
        for kind in AnalysisKind::ALL {
            prop_assert_eq!(
                fingerprint(&forward, kind),
                fingerprint(&reversed, kind),
                "seed {} kind {}",
                seed,
                kind.name()
            );
        }
    }
}
