//! The `harness` binary's command line: a known experiment runs, an
//! unknown one is a usage error rather than a silent success.

use std::process::Command;

fn harness(experiment: &str) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_harness"))
        .arg(experiment)
        .output()
        .expect("harness runs")
}

#[test]
fn unknown_experiment_exits_2_and_lists_the_valid_names() {
    let out = harness("fig7");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(out.stdout.is_empty(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    for name in ["fig2", "fig5", "lattice-scaling", "exhaustive"] {
        assert!(stderr.contains(name), "{name} missing from: {stderr}");
    }
}

#[test]
fn fig5_prints_its_table() {
    let out = harness("fig5");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Fig. 5"), "{stdout}");
}
