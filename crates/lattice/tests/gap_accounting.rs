//! Gap-skip accounting end to end: on a seeded lossy stream, the
//! `resilience.gaps_skipped` telemetry counter, the [`ReassemblyReport`]'s
//! own accounting, and the degradation carried into the analysis verdict
//! must all agree — losing messages silently is the one failure mode the
//! resilience layer promises never to have.

use jmpax_core::{AnalysisKind, Event, Message, MvcInstrumentor, Relevance, ThreadId, VarId};
use jmpax_lattice::{Exactness, Reassembler, SuiteBuilder};
use jmpax_spec::{parse, ProgramState};
use jmpax_telemetry::Registry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const X: VarId = VarId(0);

/// A causally chained stream across `threads` threads: every write of `x`
/// reads the previous value, so per-thread sequences stay dense.
fn chained(n: usize, threads: u32) -> Vec<Message> {
    let mut a = MvcInstrumentor::new(threads as usize, Relevance::AllWrites);
    (0..n)
        .map(|i| {
            let t = ThreadId(i as u32 % threads);
            a.process(&Event::read(t, X));
            a.process(&Event::write(t, X, i as i64)).unwrap()
        })
        .collect()
}

#[test]
fn gaps_skipped_telemetry_agrees_with_reports() {
    let mut rng = StdRng::seed_from_u64(11);
    let mut checked_lossy = 0;
    for round in 0..8 {
        let msgs = chained(40, 2);
        // Seeded loss: drop each message with 10% probability, but never a
        // thread's first or last — a lost *tail* leaves no later message
        // behind it to expose the hole, so only interior losses are ever
        // observable as gaps.
        let last_seq = 20; // 40 events round-robin over 2 threads
        let lossy: Vec<Message> = msgs
            .iter()
            .filter(|m| m.seq() == 1 || m.seq() == last_seq || !rng.gen_bool(0.10))
            .cloned()
            .collect();
        let dropped = msgs.len() - lossy.len();

        let registry = Registry::enabled();
        let mut r = Reassembler::with_stall_budget(4);
        r.push_all(lossy);
        let (out, reassembly) = r.finish();
        reassembly.record(&registry);

        // 1. The telemetry counter equals the report's own accounting.
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter("resilience.gaps_skipped"),
            Some(reassembly.skipped_gaps()),
            "round {round}: counter vs report mismatch"
        );

        // 2. Every dropped message is accounted for inside committed gaps
        //    (the stream ended, so no gap can still be in flight).
        assert_eq!(
            reassembly.messages_lost(),
            dropped as u64,
            "round {round}: lost messages must all be inside gaps"
        );

        // 3. The degradation combined into the final verdict carries the
        //    exact same gap count.
        let mut syms = jmpax_core::SymbolTable::new();
        let monitor = parse("v0 >= -1", &mut syms).unwrap().monitor().unwrap();
        let initial = ProgramState::new();
        let mut suite = SuiteBuilder::new(&[AnalysisKind::Ltl], 2)
            .telemetry(&registry)
            .build(Some((monitor, &initial)));
        suite.push_all(out);
        let stream_report = suite.finish(Exactness::Exact).into_ltl();
        assert!(stream_report.completed, "round {round}");
        let combined = stream_report.exactness.combine(reassembly.exactness());
        let (_, gaps) = combined.losses();
        assert_eq!(
            gaps,
            reassembly.skipped_gaps(),
            "round {round}: verdict degradation vs gap count"
        );
        if dropped == 0 {
            assert_eq!(combined, Exactness::Exact, "round {round}");
        } else {
            assert!(!combined.is_exact(), "round {round}: loss must degrade");
            checked_lossy += 1;
        }
    }
    assert!(checked_lossy >= 3, "seed must produce lossy rounds");
}
