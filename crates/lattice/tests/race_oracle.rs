//! Brute-force oracle for the race detector. Sync-only happens-before is
//! the transitive closure of program order plus "each write of a sync
//! variable follows the previous write of it"; a race is an unordered pair
//! of conflicting accesses (same non-sync variable, different threads, at
//! least one write). On random executions, the `(var, first thread/kind,
//! second thread/kind)` keys [`RaceAnalysis`] reports over the causal
//! delivery of the `Relevance::Everything` stream must equal the oracle's
//! keys, taking trace order as "first": Algorithm A orders every
//! conflicting pair under `Everything`, so delivery keeps their trace
//! order.

use std::collections::BTreeSet;

use jmpax_core::{Event, EventKind, Execution, Relevance, ThreadId, VarId};
use jmpax_lattice::{AnalysisReport, AnalysisSuite, Exactness, RaceAnalysis};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

type Key = (VarId, ThreadId, bool, ThreadId, bool);

/// A random execution: 2–4 threads, 1–3 data variables, 0–2 sync
/// variables (`VarId`s after the data ones) written as lock pseudo-variables
/// and occasionally read.
fn random_execution(seed: u64) -> (Execution, BTreeSet<VarId>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let threads = rng.gen_range(2..=4u32);
    let data = rng.gen_range(1..=3u32);
    let sync: BTreeSet<VarId> = (data..data + rng.gen_range(0..=2u32)).map(VarId).collect();
    let sync_list: Vec<VarId> = sync.iter().copied().collect();
    let mut ex = Execution::new();
    for i in 0..rng.gen_range(0..=16i64) {
        let t = ThreadId(rng.gen_range(0..threads));
        let roll = rng.gen_range(0..10u32);
        if !sync_list.is_empty() && roll >= 7 {
            let s = sync_list[rng.gen_range(0..sync_list.len())];
            if roll == 9 {
                ex.read(t, s);
            } else {
                ex.write(t, s, i % 2);
            }
        } else if roll < 4 {
            ex.read(t, VarId(rng.gen_range(0..data)));
        } else {
            ex.write(t, VarId(rng.gen_range(0..data)), i);
        }
    }
    (ex, sync)
}

fn access(e: &Event) -> Option<(VarId, bool)> {
    match e.kind {
        EventKind::Read { var } => Some((var, false)),
        EventKind::Write { var, .. } => Some((var, true)),
        EventKind::Internal => None,
    }
}

/// The oracle: happens-before as an explicit transitive closure over trace
/// positions, then every conflicting unordered pair.
fn oracle(ex: &Execution, sync: &BTreeSet<VarId>) -> BTreeSet<Key> {
    let events = &ex.events;
    let n = events.len();
    // hb[i][j]: event i happens before event j. Edges only point forward
    // in the trace, so one pass in trace order closes them transitively.
    let mut hb = vec![vec![false; n]; n];
    for j in 0..n {
        for i in 0..j {
            let same_thread = events[i].thread == events[j].thread;
            let sync_chain = match (access(&events[i]), access(&events[j])) {
                (Some((a, true)), Some((b, true))) => a == b && sync.contains(&a),
                _ => false,
            };
            if same_thread || sync_chain {
                hb[i][j] = true;
                for row in &mut hb[..i] {
                    if row[i] {
                        row[j] = true;
                    }
                }
            }
        }
    }
    let mut keys = BTreeSet::new();
    for j in 0..n {
        for i in 0..j {
            let (Some((a, wa)), Some((b, wb))) = (access(&events[i]), access(&events[j])) else {
                continue;
            };
            let (ti, tj) = (events[i].thread, events[j].thread);
            if a == b && !sync.contains(&a) && ti != tj && (wa || wb) && !hb[i][j] {
                keys.insert((a, ti, wa, tj, wb));
            }
        }
    }
    keys
}

fn detected(ex: &Execution, sync: &BTreeSet<VarId>) -> BTreeSet<Key> {
    let threads = ex.thread_count().max(1);
    let race = RaceAnalysis::new(threads, sync.clone()).with_max_findings(usize::MAX);
    let mut suite = AnalysisSuite::new(vec![Box::new(race)]);
    suite.push_all(ex.instrument(Relevance::Everything));
    let report = suite.finish(Exactness::Exact);
    let Some(AnalysisReport::Race(r)) = report.reports.first() else {
        panic!("race suite produced {report:?}");
    };
    assert_eq!(r.races_found as usize, r.findings.len(), "budget lifted");
    r.findings
        .iter()
        .map(|f| {
            (
                f.var,
                f.first.thread,
                f.first.is_write,
                f.second.thread,
                f.second.is_write,
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn race_keys_equal_brute_force_happens_before(seed in any::<u64>()) {
        let (ex, sync) = random_execution(seed);
        prop_assert_eq!(detected(&ex, &sync), oracle(&ex, &sync), "seed {}", seed);
    }
}
