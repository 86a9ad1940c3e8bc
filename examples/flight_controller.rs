//! Example 1 of the paper: the buggy flight controller (Fig. 1) and its
//! computation lattice (Fig. 5).
//!
//! The controller approves a landing and starts it; the radio drops only
//! *after* the landing has started, so the observed execution satisfies
//! "if the plane has started landing, landing has been approved and since
//! the approval the radio has never been down". JMPaX still predicts the
//! two schedules under which the property breaks — and this example then
//! *replays* one of them to prove the bug is real.
//!
//! ```sh
//! cargo run --example flight_controller
//! ```

use jmpax::observer::{render_analysis, Pipeline, PipelineConfig};
use jmpax::sched::{find_schedule_for_writes, run_fixed, TargetWrite};
use jmpax::workloads::landing;
use jmpax::{AnalysisKind, ThreadId, Value};

fn main() {
    let w = landing::workload();
    println!("property: {}", w.spec);
    println!();

    // 1. One successful execution: thread 1 lands, then the radio drops.
    let out = run_fixed(&w.program, landing::observed_success_schedule(), 300);
    assert!(out.finished);
    println!("observed relevant writes: approved=1, landing=1, radio=0");

    // 2. The observer analyzes the computation extracted by Algorithm A.
    let mut syms = w.symbols.clone();
    let report = Pipeline::new(PipelineConfig::new())
        .check_execution(
            &out.execution,
            &[AnalysisKind::Ltl],
            Some(&w.spec),
            &mut syms,
        )
        .unwrap();
    println!(
        "single-trace (JPaX-style) verdict: {}",
        if report.observed() {
            "VIOLATED"
        } else {
            "successful"
        }
    );
    println!();
    println!("predictive (JMPaX) analysis of the same execution:");
    println!("{}", render_analysis(report.ltl().unwrap(), &syms));

    // 3. Validate the prediction: search for a real schedule realizing the
    //    "radio drops between approval and landing" run.
    let approved = syms.lookup("approved").unwrap();
    let radio = syms.lookup("radio").unwrap();
    let landing_var = syms.lookup("landing").unwrap();
    let predicted_run = [
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
    let witness = find_schedule_for_writes(
        &w.program,
        &predicted_run,
        &[landing_var, approved, radio],
        64,
    )
    .expect("the predicted run is realizable");
    let monitor = w.monitor();
    let violated = monitor
        .first_violation(&witness.observed_states())
        .is_some();
    println!(
        "replayed predicted schedule {:?}: property {}",
        witness.schedule,
        if violated {
            "VIOLATED — the bug is real"
        } else {
            "held"
        }
    );
    assert!(violated);
}
