//! The observer's conclusion about one multithreaded computation.

use jmpax_lattice::{Exactness, StreamReport};

/// The observer's conclusion about one multithreaded computation, as
/// produced by [`crate::Pipeline::check_messages`].
#[derive(Clone, Debug)]
pub enum Verdict {
    /// Every consistent run satisfies the property.
    Satisfied(StreamReport),
    /// Some runs violate the property. When `observed_ok` is true the
    /// violation is a *prediction*: the observed run itself was successful
    /// (this is the paper's headline capability).
    Violated {
        /// The full analysis (counts, violations, counterexamples).
        analysis: StreamReport,
        /// Whether the observed run itself satisfied the property.
        observed_ok: bool,
    },
}

impl Verdict {
    /// Classifies `analysis`; `observed_ok` says whether the observed run
    /// satisfied the property.
    #[must_use]
    pub fn new(analysis: StreamReport, observed_ok: bool) -> Self {
        if analysis.satisfied() {
            Verdict::Satisfied(analysis)
        } else {
            Verdict::Violated {
                analysis,
                observed_ok,
            }
        }
    }

    /// The underlying analysis.
    #[must_use]
    pub fn analysis(&self) -> &StreamReport {
        match self {
            Verdict::Satisfied(a) | Verdict::Violated { analysis: a, .. } => a,
        }
    }

    /// True when no run violates.
    #[must_use]
    pub fn is_satisfied(&self) -> bool {
        matches!(self, Verdict::Satisfied(_))
    }

    /// True when the violation was predicted from a successful run.
    #[must_use]
    pub fn is_prediction(&self) -> bool {
        matches!(
            self,
            Verdict::Violated {
                observed_ok: true,
                ..
            }
        )
    }

    /// How much this verdict can be trusted: [`Exactness::Exact`] when every
    /// message arrived and every run was explored, degraded otherwise.
    #[must_use]
    pub fn exactness(&self) -> Exactness {
        self.analysis().exactness
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Pipeline, PipelineConfig};
    use jmpax_core::{Event, Message, MvcInstrumentor, Relevance, SymbolTable, ThreadId};
    use jmpax_spec::{parse, Monitor, ProgramState};

    const T1: ThreadId = ThreadId(0);
    const T2: ThreadId = ThreadId(1);

    fn fig6() -> (Vec<Message>, Monitor, ProgramState) {
        let mut syms = SymbolTable::new();
        let monitor = parse("(x > 0) -> [y = 0, y > z)", &mut syms)
            .unwrap()
            .monitor()
            .unwrap();
        let x = syms.lookup("x").unwrap();
        let y = syms.lookup("y").unwrap();
        let z = syms.lookup("z").unwrap();
        let mut a = MvcInstrumentor::new(2, Relevance::writes_of([x, y, z]));
        let mut msgs = Vec::new();
        a.process(&Event::read(T1, x));
        msgs.extend(a.process(&Event::write(T1, x, 0)));
        a.process(&Event::read(T2, x));
        msgs.extend(a.process(&Event::write(T2, z, 1)));
        a.process(&Event::read(T1, x));
        msgs.extend(a.process(&Event::write(T1, y, 1)));
        a.process(&Event::read(T2, x));
        msgs.extend(a.process(&Event::write(T2, x, 1)));
        let mut init = ProgramState::new();
        init.set(x, -1);
        init.set(y, 0);
        init.set(z, 0);
        (msgs, monitor, init)
    }

    fn conclude(monitor: Monitor, init: &ProgramState, msgs: Vec<Message>) -> Verdict {
        Pipeline::new(PipelineConfig::new())
            .check_messages(monitor, init, Exactness::Exact, msgs)
            .verdict
    }

    #[test]
    fn predicts_from_successful_observed_run() {
        let (msgs, monitor, init) = fig6();
        let verdict = conclude(monitor, &init, msgs);
        assert!(!verdict.is_satisfied());
        assert!(verdict.is_prediction(), "observed run was successful");
        assert!(verdict.exactness().is_exact());
        assert_eq!(verdict.analysis().violating_runs, 1);
        assert_eq!(verdict.analysis().total_runs, 3);
    }

    #[test]
    fn out_of_order_delivery_same_verdict() {
        let (mut msgs, monitor, init) = fig6();
        msgs.reverse();
        let verdict = conclude(monitor, &init, msgs);
        assert_eq!(verdict.analysis().violating_runs, 1);
        assert!(verdict.exactness().is_exact());
    }

    #[test]
    fn gaps_are_visible() {
        let (msgs, monitor, init) = fig6();
        // Deliver only the causally-last message (T2's second, which read
        // T1's first). At the end of the stream the reassembler commits
        // both missing predecessors as gaps and releases the survivor with
        // its clock remapped past them: a one-message computation (one
        // satisfying run over two states), degraded by the two gaps.
        let report = Pipeline::new(PipelineConfig::new()).check_messages(
            monitor,
            &init,
            Exactness::Exact,
            vec![msgs[3].clone()],
        );
        assert_eq!(report.reassembly.skipped_gaps(), 2);
        assert_eq!(report.messages.len(), 1);
        assert_eq!(report.messages[0].clock.as_slice(), &[0, 1]);
        let verdict = report.verdict;
        assert!(verdict.is_satisfied());
        assert_eq!(verdict.analysis().total_runs, 1);
        assert_eq!(verdict.analysis().states_explored, 2);
        assert_eq!(verdict.exactness(), Exactness::degraded(0, 2));
    }

    #[test]
    fn satisfied_verdict() {
        let mut syms = SymbolTable::new();
        let monitor = parse("x >= 0", &mut syms).unwrap().monitor().unwrap();
        let x = syms.lookup("x").unwrap();
        let mut a = MvcInstrumentor::new(1, Relevance::writes_of([x]));
        let m = a.process(&Event::write(T1, x, 5)).unwrap();
        let verdict = conclude(monitor, &ProgramState::new(), vec![m]);
        assert!(verdict.is_satisfied());
        assert!(!verdict.is_prediction());
    }

    #[test]
    fn observed_violation_is_not_a_prediction() {
        // Property x = 0 violated by the observed write itself.
        let mut syms = SymbolTable::new();
        let monitor = parse("x = 0", &mut syms).unwrap().monitor().unwrap();
        let x = syms.lookup("x").unwrap();
        let mut a = MvcInstrumentor::new(1, Relevance::writes_of([x]));
        let m = a.process(&Event::write(T1, x, 5)).unwrap();
        let verdict = conclude(monitor, &ProgramState::new(), vec![m]);
        assert!(!verdict.is_satisfied());
        assert!(!verdict.is_prediction());
    }
}
