//! Human-readable rendering of verdicts, violations and counterexamples.
//!
//! JMPaX's pitch is that "the user will be given enough information (the
//! entire counterexample execution) to understand the error and to correct
//! it" — this module turns analyses into that information, using the
//! session's [`SymbolTable`] for variable names.

use std::fmt::Write as _;

use jmpax_core::SymbolTable;
use jmpax_lattice::{Counterexample, StreamReport, Violation};
use jmpax_spec::ProgramState;

/// Renders one program state as `<name=value,...>`, variables named
/// through `symbols`.
#[must_use]
pub fn render_state(state: &ProgramState, symbols: &SymbolTable) -> String {
    let mut out = String::from("<");
    for (i, (var, value)) in state.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}={}", symbols.name_or_default(var), value);
    }
    out.push('>');
    out
}

/// Renders one counterexample run, one step per line.
#[must_use]
pub fn render_counterexample(ce: &Counterexample, symbols: &SymbolTable) -> String {
    let mut out = String::new();
    for (i, step) in ce.steps.iter().enumerate() {
        match (&step.thread, &step.message) {
            (Some(t), Some(m)) => {
                let var = m
                    .var()
                    .map_or_else(|| "?".to_owned(), |v| symbols.name_or_default(v));
                let val = m
                    .written_value()
                    .map_or_else(|| "?".to_owned(), |v| v.to_string());
                let _ = writeln!(
                    out,
                    "  {i:>3}. {t} writes {var} = {val:<6} -> {}",
                    render_state(&step.state, symbols)
                );
            }
            _ => {
                let _ = writeln!(
                    out,
                    "  {i:>3}. (initial)              -> {}",
                    render_state(&step.state, symbols)
                );
            }
        }
    }
    out
}

/// Renders one violation (cut, state, optional counterexample). A
/// counterexample cut short by bounded history renders as a trail of its
/// last steps.
#[must_use]
pub fn render_violation(v: &Violation, symbols: &SymbolTable) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "violation at cut {} in state {}",
        v.cut,
        render_state(&v.state, symbols)
    );
    if let Some(ce) = &v.counterexample {
        if ce.is_complete() {
            let _ = writeln!(out, "counterexample run ({} events):", ce.event_count());
        } else {
            let _ = writeln!(out, "counterexample trail (last {} steps):", ce.steps.len());
        }
        out.push_str(&render_counterexample(ce, symbols));
    }
    out
}

/// A run count, marked when it saturated instead of printing a number
/// that is not the count.
fn render_runs(n: u128) -> String {
    if n == StreamReport::SATURATED {
        "at least 2^128-1 (saturated)".to_owned()
    } else {
        n.to_string()
    }
}

/// Renders a whole analysis summary in the shape the paper reports its
/// examples ("6 states to analyze and three corresponding runs").
#[must_use]
pub fn render_analysis(a: &StreamReport, symbols: &SymbolTable) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "lattice: {} states, {} levels (peak width {})",
        a.states_explored,
        a.levels(),
        a.peak_frontier
    );
    let _ = writeln!(
        out,
        "runs: {} total, {} violating",
        render_runs(a.total_runs),
        render_runs(a.violating_runs)
    );
    if !a.exactness.is_exact() {
        let _ = writeln!(out, "confidence: {}", a.exactness);
    }
    if a.violations.is_empty() {
        let _ = writeln!(out, "property satisfied on every run");
    } else {
        for v in &a.violations {
            out.push_str(&render_violation(v, symbols));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use jmpax_core::{AnalysisKind, Execution, ThreadId};

    #[test]
    fn renders_example2_analysis_with_names() {
        let mut syms = SymbolTable::new();
        let x = syms.intern("x");
        let y = syms.intern("y");
        let z = syms.intern("z");
        let mut ex = Execution::new()
            .with_initial(x, -1)
            .with_initial(y, 0)
            .with_initial(z, 0);
        let t1 = ThreadId(0);
        let t2 = ThreadId(1);
        ex.read(t1, x);
        ex.write(t1, x, 0);
        ex.read(t2, x);
        ex.write(t2, z, 1);
        ex.read(t1, x);
        ex.write(t1, y, 1);
        ex.read(t2, x);
        ex.write(t2, x, 1);

        let report = crate::pipeline::Pipeline::new(crate::pipeline::PipelineConfig::new())
            .check_execution(
                &ex,
                &[AnalysisKind::Ltl],
                Some("(x > 0) -> [y = 0, y > z)"),
                &mut syms,
            )
            .unwrap();
        let text = render_analysis(report.ltl().unwrap(), &syms);
        assert!(text.contains("7 states"), "{text}");
        assert!(text.contains("3 total, 1 violating"), "{text}");
        assert!(text.contains("violation at cut S2,2"), "{text}");
        assert!(text.contains("x=1"), "{text}");
        assert!(text.contains("T1 writes"), "{text}");
        assert!(text.contains("counterexample run (4 events)"), "{text}");
    }

    #[test]
    fn bounded_history_renders_a_trail_and_saturated_counts_say_so() {
        let mut syms = SymbolTable::new();
        let x = syms.intern("x");
        let mut ex = Execution::new().with_initial(x, 0);
        for v in 1..=3 {
            ex.write(ThreadId(0), x, v);
        }
        let report = crate::pipeline::Pipeline::new(
            crate::pipeline::PipelineConfig::new()
                .analysis(jmpax_lattice::AnalysisConfig::default().with_history(0)),
        )
        .check_execution(&ex, &[AnalysisKind::Ltl], Some("x < 3"), &mut syms)
        .unwrap();
        let text = render_analysis(report.ltl().unwrap(), &syms);
        assert!(
            text.contains("counterexample trail (last 2 steps)"),
            "{text}"
        );
        assert!(!text.contains("(initial)"), "{text}");

        assert_eq!(
            render_runs(StreamReport::SATURATED),
            "at least 2^128-1 (saturated)"
        );
        assert_eq!(render_runs(3), "3");
    }

    #[test]
    fn satisfied_analysis_renders_cleanly() {
        let mut syms = SymbolTable::new();
        let x = syms.intern("x");
        let mut ex = Execution::new().with_initial(x, 0);
        ex.write(ThreadId(0), x, 1);
        let report = crate::pipeline::Pipeline::new(crate::pipeline::PipelineConfig::new())
            .check_execution(&ex, &[AnalysisKind::Ltl], Some("x >= 0"), &mut syms)
            .unwrap();
        let text = render_analysis(report.ltl().unwrap(), &syms);
        assert!(text.contains("satisfied on every run"), "{text}");
    }
}
