//! Example 2 of the paper: the x/y/z program and the Fig. 6 lattice,
//! printed with the exact messages `⟨e, i, V⟩` of the figure.
//!
//! ```sh
//! cargo run --example xyz_predictive
//! ```

use jmpax::lattice::{Lattice, LatticeInput};
use jmpax::observer::{render_counterexample, Pipeline, PipelineConfig};
use jmpax::sched::run_fixed;
use jmpax::spec::ProgramState;
use jmpax::workloads::xyz;
use jmpax::{AnalysisKind, Relevance};

fn main() {
    let w = xyz::workload();
    println!("program:  T1: x++; ...; y = x + 1     T2: z = x + 1; ...; x++");
    println!("initially x = -1, y = 0, z = 0");
    println!("property: {}", w.spec);
    println!();

    let out = run_fixed(&w.program, xyz::observed_success_schedule(), 100);
    assert!(out.finished);

    // The messages Algorithm A emits for the observed execution.
    let msgs = out
        .execution
        .instrument(Relevance::writes_of(w.relevant_vars()));
    println!("messages sent to the observer (cf. Fig. 6):");
    for (i, m) in msgs.iter().enumerate() {
        let name = w.symbols.name_or_default(m.var().unwrap());
        println!(
            "  e{}: <{} = {}, {}, {}>",
            i + 1,
            name,
            m.written_value().unwrap(),
            m.thread(),
            m.clock
        );
    }
    println!();

    // The computation lattice.
    let initial = ProgramState::from_map(out.execution.initial.clone());
    let lattice = Lattice::build(LatticeInput::from_messages(msgs, initial).unwrap());
    println!(
        "computation lattice: {} states in {} levels; {} runs",
        lattice.node_count(),
        lattice.level_count(),
        lattice.count_runs()
    );
    for k in 0..lattice.level_count() {
        let row: Vec<String> = lattice
            .level(k)
            .iter()
            .map(|&n| {
                let node = &lattice.nodes()[n];
                format!("{} {}", node.cut, node.state)
            })
            .collect();
        println!("  level {k}: {}", row.join("   "));
    }
    println!();

    // The predictive verdict with the violating run.
    let mut syms = w.symbols.clone();
    let report = Pipeline::new(PipelineConfig::new())
        .check_execution(
            &out.execution,
            &[AnalysisKind::Ltl],
            Some(&w.spec),
            &mut syms,
        )
        .unwrap();
    let analysis = report.ltl().unwrap();
    println!(
        "observed run successful: {} — violating runs in the lattice: {}",
        !report.observed(),
        analysis.violating_runs
    );
    for v in &analysis.violations {
        if let Some(ce) = &v.counterexample {
            println!("predicted counterexample run:");
            print!("{}", render_counterexample(ce, &syms));
        }
    }
    assert_eq!(analysis.violating_runs, 1);
}
