//! Smoke runs of the benchmark binary: every workload at smoke scale,
//! untraced and traced. Each run must match every verdict against its
//! reference, print exactly the metric names `BENCHMARK.json` lists, and
//! write output that parses.

use std::path::{Path, PathBuf};
use std::process::Command;

use jmpax_telemetry::json::{self, Value};

const WORKLOADS: [&str; 4] = ["wide-lattice", "live-stream", "tenant-churn", "access-mix"];

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` section.
fn listed(section: &str) -> Vec<(String, String)> {
    let field = |m: &Value, k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
    benchmark_json()
        .get(section)
        .and_then(Value::as_array)
        .expect("section present")
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect()
}

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

struct Run {
    lines: Vec<String>,
    result: Value,
}

fn run(args: &[&str]) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_jmpax-benchmark"))
        .args(args)
        .output()
        .expect("the benchmark starts");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "{args:?} failed ({}):\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<String> = stdout.lines().map(str::to_string).collect();
    let result = json::parse(lines.last().expect("a result line")).expect("the last line is JSON");
    Run { lines, result }
}

/// The result line is correct and carries exactly `metrics`, each with
/// its listed unit.
fn check_result(result: &Value, metrics: &[(String, String)]) {
    assert_eq!(
        result.get("correct").and_then(Value::as_bool),
        Some(true),
        "{result:?}"
    );
    assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
    assert!(result.get("attempted").and_then(Value::as_u64).unwrap_or(0) >= 1);
    let printed = result
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics");
    let mut got: Vec<(String, String)> = printed
        .iter()
        .map(|(name, m)| {
            assert!(
                m.get("value").and_then(Value::as_f64).is_some(),
                "{name} has no value"
            );
            (
                name.clone(),
                m.get("unit")
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_string(),
            )
        })
        .collect();
    let mut want = metrics.to_vec();
    got.sort();
    want.sort();
    assert_eq!(got, want);
}

fn digest(run: &Run, workload: &str) -> String {
    let prefix = format!("{workload} input_digest ");
    run.lines
        .iter()
        .find_map(|l| l.strip_prefix(&prefix))
        .expect("an input digest line")
        .to_string()
}

#[test]
fn every_workload_prints_the_listed_end_to_end_metrics() {
    let dir = scratch("all");
    let out = dir.join("run.json");
    let r = run(&[
        "run",
        "--seed",
        "1",
        "--seconds",
        "0.4",
        "--smoke",
        "--out",
        out.to_str().unwrap(),
    ]);
    let e2e = listed("end_to_end");
    let doc = json::parse(&std::fs::read_to_string(&out).unwrap()).expect("--out parses");
    let reports = doc.get("reports").and_then(Value::as_array).unwrap();
    assert_eq!(reports.len(), WORKLOADS.len());
    for (report, workload) in reports.iter().zip(WORKLOADS) {
        assert_eq!(
            report.get("workload").and_then(Value::as_str),
            Some(workload)
        );
        assert_eq!(
            report.get("correct").and_then(Value::as_bool),
            Some(true),
            "{report:?}"
        );
        for (name, _) in &e2e {
            assert!(
                r.lines
                    .iter()
                    .any(|l| l.starts_with(&format!("{workload} {name} "))),
                "no line for {workload} {name}"
            );
        }
    }
    let combined: Vec<(String, String)> = WORKLOADS
        .iter()
        .flat_map(|w| {
            e2e.iter()
                .map(move |(m, u)| (format!("{w}/{m}"), u.clone()))
        })
        .collect();
    check_result(&r.result, &combined);
}

fn traced(workload: &str) {
    let dir = scratch(workload);
    let r = run(&[
        "run",
        "--workload",
        workload,
        "--seed",
        "1",
        "--seconds",
        "0.3",
        "--smoke",
        "--trace",
        "1",
        "--trace-out",
        dir.to_str().unwrap(),
    ]);
    check_result(&r.result, &listed("per_layer"));
    let spans = std::fs::read_to_string(dir.join(format!("{workload}.spans.json"))).unwrap();
    let spans = json::parse(&spans).expect("span file parses");
    let replay = spans
        .get("accounting")
        .and_then(|a| a.get("replay"))
        .unwrap();
    let num = |v: &Value, k: &str| v.get(k).and_then(Value::as_u64).unwrap();
    let layers: u64 = replay
        .get("self_ns")
        .and_then(Value::as_object)
        .unwrap()
        .values()
        .map(|v| v.as_u64().unwrap())
        .sum();
    assert!(num(replay, "wall_ns") > 0);
    assert_eq!(
        layers + num(replay, "unaccounted_ns"),
        num(replay, "wall_ns")
    );

    let untraced = run(&[
        "run",
        "--workload",
        workload,
        "--seed",
        "1",
        "--seconds",
        "0.3",
        "--smoke",
    ]);
    check_result(&untraced.result, &listed("end_to_end"));
    let reseeded = run(&[
        "run",
        "--workload",
        workload,
        "--seed",
        "2",
        "--seconds",
        "0.3",
        "--smoke",
    ]);
    check_result(&reseeded.result, &listed("end_to_end"));
    let seeded = matches!(workload, "tenant-churn" | "access-mix");
    assert_eq!(
        digest(&untraced, workload) != digest(&reseeded, workload),
        seeded,
        "{workload}: the seed should {}change the inputs",
        if seeded { "" } else { "not " }
    );
}

#[test]
fn wide_lattice_traced_and_seeded() {
    traced("wide-lattice");
}

#[test]
fn live_stream_traced_and_seeded() {
    traced("live-stream");
}

#[test]
fn tenant_churn_traced_and_seeded() {
    traced("tenant-churn");
}

#[test]
fn access_mix_traced_and_seeded() {
    traced("access-mix");
}
