//! Detection-rate audit (experiment Q1): sweep random schedules of the
//! buggy and the lock-fixed bank/notifier programs and compare what a
//! single-trace monitor catches against the predictive analysis.
//!
//! ```sh
//! cargo run --example bank_audit
//! ```

use jmpax::observer::{Pipeline, PipelineConfig};
use jmpax::sched::run_random;
use jmpax::workloads::bank;
use jmpax::AnalysisKind;

fn main() {
    const SEEDS: u64 = 100;
    for with_lock in [false, true] {
        let w = bank::workload(with_lock);
        let mut observed = 0usize;
        let mut predicted = 0usize;
        let mut finished = 0usize;
        for seed in 0..SEEDS {
            let out = run_random(&w.program, seed, 200);
            if !out.finished {
                continue;
            }
            finished += 1;
            let mut syms = w.symbols.clone();
            let report = Pipeline::new(PipelineConfig::new())
                .check_execution(
                    &out.execution,
                    &[AnalysisKind::Ltl],
                    Some(&w.spec),
                    &mut syms,
                )
                .unwrap();
            observed += usize::from(report.observed());
            predicted += usize::from(report.predicted());
        }
        println!("workload {:<12} property: {}", w.name, w.spec);
        println!("  schedules finished:            {finished}/{SEEDS}");
        println!("  violations seen on the trace:  {observed}  (JPaX-style)");
        println!("  violations predicted:          {predicted}  (JMPaX)");
        println!();
        if with_lock {
            assert_eq!(predicted, 0, "the lock removes every violating run");
        } else {
            assert_eq!(predicted, finished, "the race is predicted from any run");
        }
    }
    println!(
        "The buggy version is flagged from EVERY schedule even though only\n\
         some schedules exhibit the bug; the locked version is never flagged\n\
         — the lock's pseudo-variable writes (Section 3.1) order the\n\
         critical sections in the causal model."
    );
}
