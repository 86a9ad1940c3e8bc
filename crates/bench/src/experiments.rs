//! The experiment implementations behind the harness and EXPERIMENTS.md.

use jmpax_core::{AnalysisKind, Event, Relevance};
use jmpax_distsim::DistSim;
use jmpax_lattice::{AnalysisConfig, Exactness, SuiteBuilder};
use jmpax_observer::{Pipeline, PipelineConfig};
use jmpax_sched::{run_fixed, run_random};
use jmpax_workloads::{landing, xyz, Workload};

use crate::generators::{banded_computation, BandedConfig};

/// Shape of a lattice experiment: paper-expected vs measured.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LatticeExperiment {
    /// Distinct global states (lattice nodes).
    pub states: usize,
    /// Total multithreaded runs.
    pub total_runs: u128,
    /// Violating runs.
    pub violating_runs: u128,
    /// Whether the observed run itself was successful.
    pub observed_successful: bool,
}

/// Reproduces Fig. 5: the flight controller's computation lattice from one
/// successful execution.
#[must_use]
pub fn fig5_experiment() -> LatticeExperiment {
    let w = landing::workload();
    let out = run_fixed(&w.program, landing::observed_success_schedule(), 300);
    assert!(out.finished);
    let mut syms = w.symbols.clone();
    let report = Pipeline::new(PipelineConfig::new())
        .check_execution(&out.execution, &w.spec, &mut syms)
        .unwrap();
    let a = report.verdict.analysis();
    LatticeExperiment {
        states: a.states_explored as usize,
        total_runs: a.total_runs,
        violating_runs: a.violating_runs,
        observed_successful: !report.observed(),
    }
}

/// Reproduces Fig. 6: Example 2's computation lattice.
#[must_use]
pub fn fig6_experiment() -> LatticeExperiment {
    let w = xyz::workload();
    let out = run_fixed(&w.program, xyz::observed_success_schedule(), 100);
    assert!(out.finished);
    let mut syms = w.symbols.clone();
    let report = Pipeline::new(PipelineConfig::new())
        .check_execution(&out.execution, &w.spec, &mut syms)
        .unwrap();
    let a = report.verdict.analysis();
    LatticeExperiment {
        states: a.states_explored as usize,
        total_runs: a.total_runs,
        violating_runs: a.violating_runs,
        observed_successful: !report.observed(),
    }
}

/// Fig. 3 equivalence: replays `events` through both Algorithm A and the
/// distributed-processes simulation, returning
/// `(events, total messages exchanged, hidden messages, clocks agree)`.
#[must_use]
pub fn fig3_equivalence(events: &[Event]) -> (usize, usize, usize, bool) {
    let mut alg = jmpax_core::MvcInstrumentor::with_relevance(Relevance::AllWrites);
    let mut sim = DistSim::new(Relevance::AllWrites);
    let threads = events
        .iter()
        .map(|e| e.thread.index() + 1)
        .max()
        .unwrap_or(0);
    let vars = events
        .iter()
        .filter_map(|e| e.var().map(|v| v.index() + 1))
        .max()
        .unwrap_or(0);
    let mut agree = true;
    for e in events {
        alg.process(e);
        sim.process(e);
    }
    for t in 0..threads {
        let t = jmpax_core::ThreadId(t as u32);
        agree &= alg.thread_clock(t).normalized() == sim.thread_clock(t).normalized();
    }
    for v in 0..vars {
        let v = jmpax_core::VarId(v as u32);
        agree &= alg.access_clock(v).normalized() == sim.access_clock(v).normalized();
        agree &= alg.write_clock(v).normalized() == sim.write_clock(v).normalized();
    }
    (events.len(), sim.log().len(), sim.hidden_count(), agree)
}

/// Detection rates over seeded random schedules (experiment Q1).
#[derive(Clone, Copy, Debug, Default)]
pub struct DetectionRates {
    /// Schedules that ran to completion.
    pub finished: usize,
    /// Schedules whose observed trace violated (JPaX-style detection).
    pub observed: usize,
    /// Schedules from which the lattice analysis predicted a violation.
    pub predicted: usize,
}

/// Sweeps `seeds` random schedules of `workload`.
#[must_use]
pub fn detection_sweep(workload: &Workload, seeds: u64, max_steps: usize) -> DetectionRates {
    let mut rates = DetectionRates::default();
    for seed in 0..seeds {
        let out = run_random(&workload.program, seed, max_steps);
        if !out.finished {
            continue;
        }
        rates.finished += 1;
        let mut syms = workload.symbols.clone();
        let report = Pipeline::new(PipelineConfig::new())
            .check_execution(&out.execution, &workload.spec, &mut syms)
            .unwrap();
        rates.observed += usize::from(report.observed());
        rates.predicted += usize::from(report.predicted());
    }
    rates
}

/// One row of the parallel frontier-expansion scaling experiment
/// (Q10): a banded workload analyzed with `workers` shard workers.
#[derive(Clone, Copy, Debug)]
pub struct ParallelScalingRow {
    /// Shard workers the streaming analyzer was configured with.
    pub workers: usize,
    /// Wall time of `push_all` + `finish`.
    pub wall: std::time::Duration,
    /// States explored — must match the 1-worker baseline exactly.
    pub states: u64,
    /// Wall-time speedup over the 1-worker baseline.
    pub speedup: f64,
    /// True when the report is bit-identical to the baseline (states,
    /// levels, peak frontier, violations, exactness).
    pub identical: bool,
}

/// Runs the streaming analysis of one banded computation once per entry
/// of `worker_counts` and compares every report against the first
/// (sequential) run. The monitor is a cheap always-true invariant over
/// the first private variable, so the measurement isolates frontier
/// expansion and monitor stepping, not property complexity.
#[must_use]
pub fn parallel_scaling_sweep(
    config: BandedConfig,
    worker_counts: &[usize],
) -> Vec<ParallelScalingRow> {
    let (messages, initial) = banded_computation(config);
    let mut syms = jmpax_core::SymbolTable::new();
    for v in 0..=config.threads {
        syms.intern(&format!("v{v}"));
    }
    let monitor = jmpax_spec::parse("[*] v0 >= 0", &mut syms)
        .expect("static spec parses")
        .monitor()
        .expect("static spec monitors");

    let run = |workers: usize| {
        let mut suite = SuiteBuilder::new(&[AnalysisKind::Ltl], config.threads)
            .config(&AnalysisConfig::default().with_parallelism(workers))
            .build(Some((monitor.clone(), &initial)));
        let start = std::time::Instant::now();
        suite.push_all(messages.clone());
        let report = suite.finish(Exactness::Exact).into_ltl();
        (start.elapsed(), report)
    };

    let (base_wall, base) = run(1);
    let mut rows = vec![ParallelScalingRow {
        workers: 1,
        wall: base_wall,
        states: base.states_explored,
        speedup: 1.0,
        identical: true,
    }];
    for &workers in worker_counts.iter().filter(|&&w| w > 1) {
        let (wall, report) = run(workers);
        rows.push(ParallelScalingRow {
            workers,
            wall,
            states: report.states_explored,
            speedup: base_wall.as_secs_f64() / wall.as_secs_f64().max(1e-9),
            identical: report.states_explored == base.states_explored
                && report.levels_built == base.levels_built
                && report.peak_frontier == base.peak_frontier
                && report.violations.len() == base.violations.len()
                && report.exactness == base.exactness,
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use jmpax_core::gen::{random_execution, RandomExecutionConfig};

    #[test]
    fn fig5_matches_paper() {
        assert_eq!(
            fig5_experiment(),
            LatticeExperiment {
                states: 6,
                total_runs: 3,
                violating_runs: 2,
                observed_successful: true,
            }
        );
    }

    #[test]
    fn fig6_matches_paper() {
        assert_eq!(
            fig6_experiment(),
            LatticeExperiment {
                states: 7,
                total_runs: 3,
                violating_runs: 1,
                observed_successful: true,
            }
        );
    }

    #[test]
    fn fig3_agrees_on_random_executions() {
        for seed in 0..5 {
            let ex = random_execution(RandomExecutionConfig {
                threads: 3,
                vars: 3,
                events: 100,
                seed,
                ..Default::default()
            });
            let (events, messages, hidden, agree) = fig3_equivalence(&ex.events);
            assert_eq!(events, 100);
            assert!(agree, "seed {seed}");
            // 3 messages per variable access, hidden = one per read.
            assert!(messages >= hidden * 3);
        }
    }

    #[test]
    fn parallel_scaling_reports_stay_identical() {
        let rows = parallel_scaling_sweep(
            BandedConfig {
                threads: 4,
                rounds: 3,
                period: 0,
            },
            &[1, 2, 4],
        );
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| r.identical), "{rows:?}");
        assert!(rows.iter().all(|r| r.states == rows[0].states));
    }

    #[test]
    fn detection_sweep_is_consistent() {
        let rates = detection_sweep(&xyz::workload(), 20, 300);
        assert!(rates.finished >= 18);
        assert!(rates.predicted >= rates.observed);
    }
}
