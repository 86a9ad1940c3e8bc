//! End-to-end reproduction of the paper's two worked examples:
//!
//! * **Example 1 / Fig. 5** — the flight controller: from one *successful*
//!   execution, the lattice has 6 states and 3 runs, of which 2 violate
//!   the landing property.
//! * **Example 2 / Fig. 6** — the x/y/z program: 7 states, 3 runs, 1
//!   violating; the emitted messages carry exactly the MVCs printed in the
//!   figure.
//!
//! Both flow through the real pipeline: the structured program runs under a
//! controlled schedule, the recorded execution is instrumented with
//! Algorithm A, and the observer analyzes the resulting lattice.

use jmpax::observer::{Pipeline, PipelineConfig};
use jmpax::sched::run_fixed;
use jmpax::workloads::{landing, xyz};
use jmpax::{AnalysisKind, Relevance, ThreadId};

#[test]
fn example1_fig5_six_states_three_runs_two_violations() {
    let w = landing::workload();
    let out = run_fixed(&w.program, landing::observed_success_schedule(), 300);
    assert!(out.finished, "the controller must terminate");

    let mut syms = w.symbols.clone();
    let report = Pipeline::new(PipelineConfig::new())
        .check_execution(
            &out.execution,
            &[AnalysisKind::Ltl],
            Some(&w.spec),
            &mut syms,
        )
        .unwrap();

    // The observed execution is successful...
    assert!(!report.observed(), "observed run must satisfy the property");
    // ...but the analysis predicts the two violations of Fig. 5.
    let analysis = report.ltl().unwrap();
    assert_eq!(analysis.states_explored, 6, "Fig. 5 has 6 states");
    assert_eq!(analysis.total_runs, 3, "Fig. 5 has 3 runs");
    assert_eq!(analysis.violating_runs, 2, "2 runs violate (Example 1)");
    assert!(report.predicted() && !report.observed());

    // Exactly 3 relevant messages: approved=1, landing=1, radio=0.
    assert_eq!(report.messages.len(), 3);
}

#[test]
fn example1_counterexamples_cover_both_bad_scenarios() {
    let w = landing::workload();
    let out = run_fixed(&w.program, landing::observed_success_schedule(), 300);
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

    // The paper's two bad scenarios ("radio drops before approval" and
    // "radio drops between approval and landing") merge at the state
    // <0,1,0> with identical monitor memory, so the analysis reports two
    // violating runs through one violation point — this merging is exactly
    // the Section 4 technique for checking all runs in parallel.
    assert_eq!(analysis.violating_runs, 2);
    assert_eq!(analysis.violations.len(), 1);
    let radio = syms.lookup("radio").unwrap();
    let landing_var = syms.lookup("landing").unwrap();
    let v = &analysis.violations[0];
    assert_eq!(v.state.get(radio).as_int(), 0, "radio down at violation");
    assert_eq!(v.state.get(landing_var).as_int(), 1, "landing started");
    let ce = v.counterexample.as_ref().expect("counterexample present");
    assert!(
        ce.is_complete(),
        "the counterexample starts at the initial state"
    );
    assert_eq!(ce.event_count(), 3);
}

#[test]
fn example2_fig6_seven_states_three_runs_one_violation() {
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

    assert!(!report.observed(), "the paper's observed run is successful");
    let analysis = report.ltl().unwrap();
    assert_eq!(
        analysis.states_explored, 7,
        "Fig. 6 has 7 states S0,0..S2,2"
    );
    assert_eq!(analysis.total_runs, 3);
    assert_eq!(analysis.violating_runs, 1);
    assert!(report.predicted() && !report.observed());
}

#[test]
fn example2_messages_carry_fig6_mvcs() {
    let w = xyz::workload();
    let out = run_fixed(&w.program, xyz::observed_success_schedule(), 100);
    let x = w.symbols.lookup("x").unwrap();
    let y = w.symbols.lookup("y").unwrap();
    let z = w.symbols.lookup("z").unwrap();
    let msgs = out.execution.instrument(Relevance::writes_of([x, y, z]));

    // e1:<x=0,T1,(1,0)> e2:<z=1,T2,(1,1)> e3:<y=1,T1,(2,0)> e4:<x=1,T2,(1,2)>
    let summary: Vec<(ThreadId, &str, i64, Vec<u32>)> = msgs
        .iter()
        .map(|m| {
            let name = if m.var() == Some(x) {
                "x"
            } else if m.var() == Some(y) {
                "y"
            } else {
                "z"
            };
            (
                m.thread(),
                name,
                m.written_value().unwrap().as_int(),
                m.clock.as_slice().to_vec(),
            )
        })
        .collect();
    assert_eq!(
        summary,
        vec![
            (ThreadId(0), "x", 0, vec![1, 0]),
            (ThreadId(1), "z", 1, vec![1, 1]),
            (ThreadId(0), "y", 1, vec![2, 0]),
            (ThreadId(1), "x", 1, vec![1, 2]),
        ]
    );
}

#[test]
fn example2_lattice_states_match_fig6_values() {
    use jmpax::lattice::{Cut, Lattice, LatticeInput};
    use jmpax::spec::ProgramState;

    let w = xyz::workload();
    let out = run_fixed(&w.program, xyz::observed_success_schedule(), 100);
    let x = w.symbols.lookup("x").unwrap();
    let y = w.symbols.lookup("y").unwrap();
    let z = w.symbols.lookup("z").unwrap();
    let msgs = out.execution.instrument(Relevance::writes_of([x, y, z]));
    let initial = ProgramState::from_map(out.execution.initial.clone());
    let lattice = Lattice::build(LatticeInput::from_messages(msgs, initial).unwrap());

    let expect = [
        ([0u32, 0u32], (-1i64, 0i64, 0i64)), // S0,0
        ([1, 0], (0, 0, 0)),                 // S1,0
        ([1, 1], (0, 0, 1)),                 // S1,1
        ([2, 0], (0, 1, 0)),                 // S2,0
        ([2, 1], (0, 1, 1)),                 // S2,1
        ([1, 2], (1, 0, 1)),                 // S1,2
        ([2, 2], (1, 1, 1)),                 // S2,2
    ];
    for (cut, (ex, ey, ez)) in expect {
        let nid = lattice
            .node_by_cut(&Cut::from_counts(cut.to_vec()))
            .unwrap_or_else(|| panic!("cut {cut:?} missing"));
        let state = &lattice.nodes()[nid].state;
        assert_eq!(state.get(x).as_int(), ex, "x at {cut:?}");
        assert_eq!(state.get(y).as_int(), ey, "y at {cut:?}");
        assert_eq!(state.get(z).as_int(), ez, "z at {cut:?}");
    }
    assert_eq!(lattice.node_count(), 7);
}

#[test]
fn landing_predictions_replay_to_real_violations() {
    use jmpax::sched::{find_schedule_for_writes, TargetWrite};
    use jmpax::Value;

    // Both predicted Fig. 5 scenarios are realizable by actual schedules:
    //
    // * "rightmost": the radio drops *between* thread 1's `radio == 0`
    //   test and the `approved = 1` action — the read of `radio` races
    //   the drop, so the write order radio=0, approved=1 really happens;
    // * "inner": the radio drops between approval and landing.
    let w = landing::workload();
    let approved = w.symbols.lookup("approved").unwrap();
    let radio = w.symbols.lookup("radio").unwrap();
    let landing_var = w.symbols.lookup("landing").unwrap();
    let watched = [landing_var, approved, radio];
    let monitor = w.monitor();

    let rightmost = [
        TargetWrite {
            thread: ThreadId(1),
            var: radio,
            value: Value::Int(0),
        },
        TargetWrite {
            thread: ThreadId(0),
            var: approved,
            value: Value::Int(1),
        },
        TargetWrite {
            thread: ThreadId(0),
            var: landing_var,
            value: Value::Int(1),
        },
    ];
    let out = find_schedule_for_writes(&w.program, &rightmost, &watched, 64)
        .expect("the rightmost Fig. 5 run is realizable (stale radio read)");
    assert!(monitor.first_violation(&out.observed_states()).is_some());

    let inner = [
        TargetWrite {
            thread: ThreadId(0),
            var: approved,
            value: Value::Int(1),
        },
        TargetWrite {
            thread: ThreadId(1),
            var: radio,
            value: Value::Int(0),
        },
        TargetWrite {
            thread: ThreadId(0),
            var: landing_var,
            value: Value::Int(1),
        },
    ];
    let out = find_schedule_for_writes(&w.program, &inner, &watched, 64)
        .expect("the inner counterexample is realizable");
    assert!(
        monitor.first_violation(&out.observed_states()).is_some(),
        "replaying the predicted schedule violates the property for real"
    );
}

#[test]
fn example2_prediction_replays_to_a_real_violation() {
    use jmpax::sched::{find_schedule_for_writes, TargetWrite};
    use jmpax::Value;

    let w = xyz::workload();
    let x = w.symbols.lookup("x").unwrap();
    let y = w.symbols.lookup("y").unwrap();
    let z = w.symbols.lookup("z").unwrap();
    // The violating run of Fig. 6: x=0, y=1, z=1, x=1.
    let targets = [
        TargetWrite {
            thread: ThreadId(0),
            var: x,
            value: Value::Int(0),
        },
        TargetWrite {
            thread: ThreadId(0),
            var: y,
            value: Value::Int(1),
        },
        TargetWrite {
            thread: ThreadId(1),
            var: z,
            value: Value::Int(1),
        },
        TargetWrite {
            thread: ThreadId(1),
            var: x,
            value: Value::Int(1),
        },
    ];
    let out = find_schedule_for_writes(&w.program, &targets, &[x, y, z], 64)
        .expect("Fig. 6's violating run is realizable");
    assert!(w
        .monitor()
        .first_violation(&out.observed_states())
        .is_some());
}
