//! Export the paper's computation lattices as Graphviz DOT files —
//! regenerate Figs. 5 and 6 for any program you instrument.
//!
//! ```sh
//! cargo run --example lattice_export
//! dot -Tsvg fig5.dot -o fig5.svg && dot -Tsvg fig6.dot -o fig6.svg
//! ```

use jmpax::lattice::{to_dot, DotOptions, Lattice, LatticeInput};
use jmpax::observer::{Pipeline, PipelineConfig};
use jmpax::sched::run_fixed;
use jmpax::spec::ProgramState;
use jmpax::workloads::{landing, xyz};
use jmpax::{AnalysisKind, Relevance};

fn export(
    name: &str,
    workload: &jmpax::workloads::Workload,
    schedule: Vec<jmpax::ThreadId>,
) -> std::io::Result<()> {
    let out = run_fixed(&workload.program, schedule, 300);
    assert!(out.finished);

    // Analyze to find the violating cuts to highlight.
    let mut syms = workload.symbols.clone();
    let report = Pipeline::new(PipelineConfig::new())
        .check_execution(
            &out.execution,
            &[AnalysisKind::Ltl],
            Some(&workload.spec),
            &mut syms,
        )
        .unwrap();
    let highlights = report
        .ltl()
        .unwrap()
        .violations
        .iter()
        .map(|v| v.cut.clone())
        .collect();

    let msgs = out
        .execution
        .instrument(Relevance::writes_of(workload.relevant_vars()));
    let initial = ProgramState::from_map(out.execution.initial.clone());
    let lattice = Lattice::build(LatticeInput::from_messages(msgs, initial).unwrap());
    let dot = to_dot(&lattice, &syms, &DotOptions::with_highlights(highlights));

    let path = format!("{name}.dot");
    std::fs::write(&path, &dot)?;
    println!(
        "{path}: {} states, {} runs, {} violating — render with `dot -Tsvg {path}`",
        lattice.node_count(),
        lattice.count_runs(),
        report.ltl().unwrap().violating_runs,
    );
    Ok(())
}

fn main() -> std::io::Result<()> {
    export(
        "fig5",
        &landing::workload(),
        landing::observed_success_schedule(),
    )?;
    export("fig6", &xyz::workload(), xyz::observed_success_schedule())?;
    Ok(())
}
