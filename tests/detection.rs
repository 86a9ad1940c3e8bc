//! Experiment Q1: quantify the paper's claim that "the probability of
//! detecting these bugs only by monitoring the observed run … is very low"
//! while the predictive analysis catches them from (almost) any run.
//!
//! For each workload we sweep seeded random schedules and compare
//!
//! * **JPaX-style**: does the observed trace itself violate?
//! * **JMPaX-style**: does any run of the observed trace's lattice violate?
//!
//! Prediction must dominate observation on every seed, and for the paper's
//! two examples the predictive detection rate must be overwhelmingly
//! higher.

use jmpax::observer::{Pipeline, PipelineConfig};
use jmpax::sched::run_random;
use jmpax::workloads::{bank, landing, xyz, Workload};
use jmpax::AnalysisKind;

struct Rates {
    observed: usize,
    predicted: usize,
    runs: usize,
}

fn sweep(w: &Workload, seeds: u64, max_steps: usize) -> Rates {
    let mut rates = Rates {
        observed: 0,
        predicted: 0,
        runs: 0,
    };
    for seed in 0..seeds {
        let out = run_random(&w.program, seed, max_steps);
        if !out.finished {
            continue;
        }
        rates.runs += 1;
        let mut syms = w.symbols.clone();
        let report = Pipeline::new(PipelineConfig::new())
            .check_execution(
                &out.execution,
                &[AnalysisKind::Ltl],
                Some(&w.spec),
                &mut syms,
            )
            .unwrap();
        if report.observed() {
            rates.observed += 1;
        }
        if report.predicted() {
            rates.predicted += 1;
        }
        // Soundness: prediction dominates observation — an observed
        // violation is in particular a violating run of the lattice.
        assert!(
            !report.observed() || report.predicted(),
            "seed {seed}: observed violation missed by prediction"
        );
    }
    rates
}

#[test]
fn xyz_prediction_dominates_observation() {
    let w = xyz::workload();
    let rates = sweep(&w, 200, 500);
    assert!(rates.runs >= 170, "most runs finish");
    // Measured on seeds 0..200 with the workspace PRNG: observed 145/200,
    // predicted 165/200. (A few schedules produce computations where
    // different read values make every run clean — prediction is exact
    // about the *observed values*, so those are genuine negatives, not
    // misses.)
    assert!(
        rates.predicted > rates.observed + 10,
        "prediction must catch substantially more schedules \
         (observed {}, predicted {}, runs {})",
        rates.observed,
        rates.predicted,
        rates.runs
    );
    assert!(
        rates.observed < rates.runs,
        "some schedules are successful yet the bug is there"
    );
}

#[test]
fn landing_prediction_beats_observation() {
    let w = landing::workload();
    let rates = sweep(&w, 60, 500);
    assert!(rates.runs >= 50);
    assert!(rates.predicted >= rates.observed);
    assert!(
        rates.predicted > rates.observed,
        "prediction must catch schedules observation misses \
         (observed {}/{} vs predicted {}/{})",
        rates.observed,
        rates.runs,
        rates.predicted,
        rates.runs
    );
}

#[test]
fn buggy_bank_predicted_on_every_schedule() {
    let w = bank::workload(false);
    let rates = sweep(&w, 40, 200);
    assert_eq!(rates.predicted, rates.runs, "two causally unrelated writes");
    assert!(rates.observed < rates.runs);
}

#[test]
fn locked_bank_never_flagged() {
    let w = bank::workload(true);
    let rates = sweep(&w, 40, 200);
    assert_eq!(rates.predicted, 0, "the fix removes every violating run");
    assert_eq!(rates.observed, 0);
    assert!(rates.runs >= 35);
}
