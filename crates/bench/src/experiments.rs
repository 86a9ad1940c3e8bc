//! The experiment implementations behind the harness and EXPERIMENTS.md.

use jmpax_core::{AnalysisKind, Event, Relevance};
use jmpax_distsim::DistSim;
use jmpax_observer::{Pipeline, PipelineConfig};
use jmpax_sched::{run_fixed, run_random};
use jmpax_workloads::{landing, xyz, Workload};

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
        .check_execution(
            &out.execution,
            &[AnalysisKind::Ltl],
            Some(&w.spec),
            &mut syms,
        )
        .unwrap();
    let a = report.ltl().unwrap();
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
        .check_execution(
            &out.execution,
            &[AnalysisKind::Ltl],
            Some(&w.spec),
            &mut syms,
        )
        .unwrap();
    let a = report.ltl().unwrap();
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
            .check_execution(
                &out.execution,
                &[AnalysisKind::Ltl],
                Some(&workload.spec),
                &mut syms,
            )
            .unwrap();
        rates.observed += usize::from(report.observed());
        rates.predicted += usize::from(report.predicted());
    }
    rates
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
    fn detection_sweep_is_consistent() {
        let rates = detection_sweep(&xyz::workload(), 20, 300);
        assert!(rates.finished >= 18);
        assert!(rates.predicted >= rates.observed);
    }
}
