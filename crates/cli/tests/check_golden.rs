//! `jmpax check` pinned byte for byte: the full stdout and exit code of
//! every analysis selection on the `gen xyz`, `gen racy` and
//! `gen nonatomic` traces (seed 0). The text report of ltl alone, its
//! two-level `--history 0` form, the suite sections and both JSON
//! reports all come from one path; a change to any of them shows here.
//! The `--locks m` rows on traces without an `m` pin the usage error.

use jmpax_cli::args::Args;
use jmpax_cli::commands;

struct Golden {
    workload: &'static str,
    args: &'static [&'static str],
    code: i32,
    stdout: &'static str,
}

fn run_cli(argv: &[&str], trace: Option<&str>) -> (i32, String) {
    commands::run(&Args::parse(argv.iter().map(ToString::to_string)), trace)
}

#[test]
fn check_output_is_pinned_for_every_selection() {
    for golden in GOLDEN {
        let (code, trace) = run_cli(&["gen", golden.workload], None);
        assert_eq!(code, 0, "gen {}", golden.workload);
        let argv = [&["check"][..], golden.args].concat();
        let (code, stdout) = run_cli(&argv, Some(&trace));
        assert_eq!(
            (code, stdout.as_str()),
            (golden.code, golden.stdout),
            "{} {argv:?}",
            golden.workload
        );
    }
}

const GOLDEN: &[Golden] = &[
    Golden {
        workload: "xyz",
        args: &["--spec", "(x > 0) -> [y = 0, y > z)"],
        code: 1,
        stdout: r#"lattice: 7 states, 5 levels (peak width 2)
runs: 3 total, 1 violating
violation at cut S2,2 in state <x=1,y=1,z=1>
counterexample run (4 events):
    0. (initial)              -> <x=-1,y=0,z=0>
    1. T1 writes x = 0      -> <x=0,y=0,z=0>
    2. T1 writes y = 1      -> <x=0,y=1,z=0>
    3. T2 writes z = 1      -> <x=0,y=1,z=1>
    4. T2 writes x = 1      -> <x=1,y=1,z=1>
the observed run was successful — the violation is PREDICTED
"#,
    },
    Golden {
        workload: "xyz",
        args: &["--spec", "(x > 0) -> [y = 0, y > z)", "--history", "0"],
        code: 1,
        stdout: r#"lattice: 7 states, 5 levels (peak width 2)
runs: 3 total, 1 violating
violation at cut S2,2 in state <x=1,y=1,z=1>
counterexample trail (last 2 steps):
    0. T2 writes z = 1      -> <x=0,y=1,z=1>
    1. T2 writes x = 1      -> <x=1,y=1,z=1>
the observed run was successful — the violation is PREDICTED
"#,
    },
    Golden {
        workload: "xyz",
        args: &["--spec", "(x > 0) -> [y = 0, y > z)", "--json"],
        code: 1,
        stdout: r#"{"check":{"satisfied":false,"exactness":"Exact","analyses":[{"name":"ltl","satisfied":false,"findings":1,"exactness":"Exact","states_explored":7,"levels":5,"violations":1}]}}
"#,
    },
    Golden {
        workload: "xyz",
        args: &["--analysis", "race"],
        code: 1,
        stdout: r#"race: 3 races found (8 accesses checked, 0 lock transfers)
  race on x: T0 write #2 vs T1 read #1
  race on x: T0 write #2 vs T1 write #4
  race on x: T0 read #3 vs T1 write #4
verdict: predicted
"#,
    },
    Golden {
        workload: "xyz",
        args: &["--analysis", "atomicity", "--locks", "m"],
        code: 2,
        stdout: r#"check: lock variable `m` not in the trace
"#,
    },
    Golden {
        workload: "xyz",
        args: &[
            "--analysis",
            "ltl,race,atomicity",
            "--locks",
            "m",
            "--spec",
            "(x > 0) -> [y = 0, y > z)",
        ],
        code: 2,
        stdout: r#"check: lock variable `m` not in the trace
"#,
    },
    Golden {
        workload: "xyz",
        args: &[
            "--analysis",
            "ltl,race,atomicity",
            "--locks",
            "m",
            "--spec",
            "(x > 0) -> [y = 0, y > z)",
            "--json",
        ],
        code: 2,
        stdout: r#"check: lock variable `m` not in the trace
"#,
    },
    Golden {
        workload: "xyz",
        args: &["--analysis", "atomicity"],
        code: 0,
        stdout: r#"atomicity: 0 violations found (0 transactions, 8 accesses checked)
verdict: satisfied
"#,
    },
    Golden {
        workload: "xyz",
        args: &[
            "--analysis",
            "ltl,race,atomicity",
            "--spec",
            "(x > 0) -> [y = 0, y > z)",
        ],
        code: 1,
        stdout: r#"ltl: 24 states in 11 levels
  violation at cut S5,5 in state <x=1,y=1,z=1>
race: 3 races found (8 accesses checked, 0 lock transfers)
  race on x: T0 write #2 vs T1 read #1
  race on x: T0 write #2 vs T1 write #4
  race on x: T0 read #3 vs T1 write #4
atomicity: 0 violations found (0 transactions, 8 accesses checked)
verdict: predicted
"#,
    },
    Golden {
        workload: "xyz",
        args: &[
            "--analysis",
            "ltl,race,atomicity",
            "--spec",
            "(x > 0) -> [y = 0, y > z)",
            "--json",
        ],
        code: 1,
        stdout: r#"{"check":{"satisfied":false,"exactness":"Exact","analyses":[{"name":"ltl","satisfied":false,"findings":1,"exactness":"Exact","states_explored":24,"levels":11,"violations":1},{"name":"race","satisfied":false,"findings":3,"exactness":"Exact","accesses_checked":8,"sync_transfers":0,"races":[{"var":"x","first":{"thread":0,"index":2,"write":true},"second":{"thread":1,"index":1,"write":false}},{"var":"x","first":{"thread":0,"index":2,"write":true},"second":{"thread":1,"index":4,"write":true}},{"var":"x","first":{"thread":0,"index":3,"write":false},"second":{"thread":1,"index":4,"write":true}}]},{"name":"atomicity","satisfied":true,"findings":0,"exactness":"Exact","transactions":0,"accesses_checked":8,"violations":[]}]}}
"#,
    },
    Golden {
        workload: "racy",
        args: &["--spec", "counter >= 0"],
        code: 0,
        stdout: r#"lattice: 3 states, 3 levels (peak width 1)
runs: 1 total, 0 violating
property satisfied on every run
"#,
    },
    Golden {
        workload: "racy",
        args: &["--spec", "counter >= 0", "--history", "0"],
        code: 0,
        stdout: r#"lattice: 3 states, 3 levels (peak width 1)
runs: 1 total, 0 violating
property satisfied on every run
"#,
    },
    Golden {
        workload: "racy",
        args: &["--spec", "counter >= 0", "--json"],
        code: 0,
        stdout: r#"{"check":{"satisfied":true,"exactness":"Exact","analyses":[{"name":"ltl","satisfied":true,"findings":0,"exactness":"Exact","states_explored":3,"levels":3,"violations":0}]}}
"#,
    },
    Golden {
        workload: "racy",
        args: &["--analysis", "race"],
        code: 1,
        stdout: r#"race: 3 races found (6 accesses checked, 0 lock transfers)
  race on counter: T1 write #2 vs T0 read #1
  race on counter: T1 write #2 vs T0 write #2
  race on counter: T1 read #1 vs T0 write #2
verdict: predicted
"#,
    },
    Golden {
        workload: "racy",
        args: &["--analysis", "atomicity", "--locks", "m"],
        code: 2,
        stdout: r#"check: lock variable `m` not in the trace
"#,
    },
    Golden {
        workload: "racy",
        args: &[
            "--analysis",
            "ltl,race,atomicity",
            "--locks",
            "m",
            "--spec",
            "counter >= 0",
        ],
        code: 2,
        stdout: r#"check: lock variable `m` not in the trace
"#,
    },
    Golden {
        workload: "racy",
        args: &[
            "--analysis",
            "ltl,race,atomicity",
            "--locks",
            "m",
            "--spec",
            "counter >= 0",
            "--json",
        ],
        code: 2,
        stdout: r#"check: lock variable `m` not in the trace
"#,
    },
    Golden {
        workload: "racy",
        args: &["--analysis", "atomicity"],
        code: 0,
        stdout: r#"atomicity: 0 violations found (0 transactions, 6 accesses checked)
verdict: satisfied
"#,
    },
    Golden {
        workload: "racy",
        args: &["--analysis", "ltl,race,atomicity", "--spec", "counter >= 0"],
        code: 1,
        stdout: r#"ltl: 10 states in 7 levels
  property satisfied on every run
race: 3 races found (6 accesses checked, 0 lock transfers)
  race on counter: T1 write #2 vs T0 read #1
  race on counter: T1 write #2 vs T0 write #2
  race on counter: T1 read #1 vs T0 write #2
atomicity: 0 violations found (0 transactions, 6 accesses checked)
verdict: predicted
"#,
    },
    Golden {
        workload: "racy",
        args: &[
            "--analysis",
            "ltl,race,atomicity",
            "--spec",
            "counter >= 0",
            "--json",
        ],
        code: 1,
        stdout: r#"{"check":{"satisfied":false,"exactness":"Exact","analyses":[{"name":"ltl","satisfied":true,"findings":0,"exactness":"Exact","states_explored":10,"levels":7,"violations":0},{"name":"race","satisfied":false,"findings":3,"exactness":"Exact","accesses_checked":6,"sync_transfers":0,"races":[{"var":"counter","first":{"thread":1,"index":2,"write":true},"second":{"thread":0,"index":1,"write":false}},{"var":"counter","first":{"thread":1,"index":2,"write":true},"second":{"thread":0,"index":2,"write":true}},{"var":"counter","first":{"thread":1,"index":1,"write":false},"second":{"thread":0,"index":2,"write":true}}]},{"name":"atomicity","satisfied":true,"findings":0,"exactness":"Exact","transactions":0,"accesses_checked":6,"violations":[]}]}}
"#,
    },
    Golden {
        workload: "nonatomic",
        args: &["--spec", "balance >= 0"],
        code: 0,
        stdout: r#"lattice: 3 states, 3 levels (peak width 1)
runs: 1 total, 0 violating
property satisfied on every run
"#,
    },
    Golden {
        workload: "nonatomic",
        args: &["--spec", "balance >= 0", "--history", "0"],
        code: 0,
        stdout: r#"lattice: 3 states, 3 levels (peak width 1)
runs: 1 total, 0 violating
property satisfied on every run
"#,
    },
    Golden {
        workload: "nonatomic",
        args: &["--spec", "balance >= 0", "--json"],
        code: 0,
        stdout: r#"{"check":{"satisfied":true,"exactness":"Exact","analyses":[{"name":"ltl","satisfied":true,"findings":0,"exactness":"Exact","states_explored":3,"levels":3,"violations":0}]}}
"#,
    },
    Golden {
        workload: "nonatomic",
        args: &["--analysis", "race"],
        code: 1,
        stdout: r#"race: 2 races found (7 accesses checked, 0 lock transfers)
  race on balance: T0 read #2 vs T1 write #1
  race on balance: T1 write #1 vs T0 write #5
verdict: predicted
"#,
    },
    Golden {
        workload: "nonatomic",
        args: &["--analysis", "atomicity", "--locks", "m"],
        code: 1,
        stdout: r#"atomicity: 1 violations found (1 transactions, 5 accesses checked)
  non-atomic on balance: T0 block #2..#6 interleaved by T1 at #3
verdict: predicted
"#,
    },
    Golden {
        workload: "nonatomic",
        args: &[
            "--analysis",
            "ltl,race,atomicity",
            "--locks",
            "m",
            "--spec",
            "balance >= 0",
        ],
        code: 1,
        stdout: r#"ltl: 10 states in 8 levels
  property satisfied on every run
race: 2 races found (5 accesses checked, 2 lock transfers)
  race on balance: T0 read #1 vs T1 write #1
  race on balance: T1 write #1 vs T0 write #4
atomicity: 1 violations found (1 transactions, 5 accesses checked)
  non-atomic on balance: T0 block #2..#6 interleaved by T1 at #3
verdict: predicted
"#,
    },
    Golden {
        workload: "nonatomic",
        args: &[
            "--analysis",
            "ltl,race,atomicity",
            "--locks",
            "m",
            "--spec",
            "balance >= 0",
            "--json",
        ],
        code: 1,
        stdout: r#"{"check":{"satisfied":false,"exactness":"Exact","analyses":[{"name":"ltl","satisfied":true,"findings":0,"exactness":"Exact","states_explored":10,"levels":8,"violations":0},{"name":"race","satisfied":false,"findings":2,"exactness":"Exact","accesses_checked":5,"sync_transfers":2,"races":[{"var":"balance","first":{"thread":0,"index":1,"write":false},"second":{"thread":1,"index":1,"write":true}},{"var":"balance","first":{"thread":1,"index":1,"write":true},"second":{"thread":0,"index":4,"write":true}}]},{"name":"atomicity","satisfied":false,"findings":1,"exactness":"Exact","transactions":1,"accesses_checked":5,"violations":[{"var":"balance","thread":0,"other":1,"first":2,"interleaved":3,"second":6}]}]}}
"#,
    },
    Golden {
        workload: "nonatomic",
        args: &["--analysis", "atomicity"],
        code: 0,
        stdout: r#"atomicity: 0 violations found (0 transactions, 7 accesses checked)
verdict: satisfied
"#,
    },
    Golden {
        workload: "nonatomic",
        args: &["--analysis", "ltl,race,atomicity", "--spec", "balance >= 0"],
        code: 1,
        stdout: r#"ltl: 10 states in 8 levels
  property satisfied on every run
race: 2 races found (7 accesses checked, 0 lock transfers)
  race on balance: T0 read #2 vs T1 write #1
  race on balance: T1 write #1 vs T0 write #5
atomicity: 0 violations found (0 transactions, 7 accesses checked)
verdict: predicted
"#,
    },
    Golden {
        workload: "nonatomic",
        args: &[
            "--analysis",
            "ltl,race,atomicity",
            "--spec",
            "balance >= 0",
            "--json",
        ],
        code: 1,
        stdout: r#"{"check":{"satisfied":false,"exactness":"Exact","analyses":[{"name":"ltl","satisfied":true,"findings":0,"exactness":"Exact","states_explored":10,"levels":8,"violations":0},{"name":"race","satisfied":false,"findings":2,"exactness":"Exact","accesses_checked":7,"sync_transfers":0,"races":[{"var":"balance","first":{"thread":0,"index":2,"write":false},"second":{"thread":1,"index":1,"write":true}},{"var":"balance","first":{"thread":1,"index":1,"write":true},"second":{"thread":0,"index":5,"write":true}}]},{"name":"atomicity","satisfied":true,"findings":0,"exactness":"Exact","transactions":0,"accesses_checked":7,"violations":[]}]}}
"#,
    },
];
