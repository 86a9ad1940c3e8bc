//! End-to-end `jmpax trace`: the written artifacts are valid (the Chrome
//! trace parses, its flow events satisfy Theorem 3, the DOT and profile
//! are well-formed), and `--serve-metrics` answers a real Prometheus
//! scrape over TCP with the documented metric families.

use std::collections::BTreeMap;
use std::io::{BufRead as _, Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;

use jmpax_cli::args::Args;
use jmpax_cli::commands;
use jmpax_telemetry::json;

fn run_cli(argv: &[&str]) -> commands::RunOutput {
    let args = Args::parse(argv.iter().map(ToString::to_string));
    commands::run_with_telemetry(&args, None)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("jmpax-trace-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Flow events in the Chrome export carry their endpoints' clocks in
/// `args.from` / `args.to`; Theorem 3 says the edge `m -> m'` is causal
/// iff `V[i] <= V'[i]` where `i` is `m`'s thread.
fn assert_flows_satisfy_theorem3(trace: &json::Value) -> usize {
    let events = trace
        .get("traceEvents")
        .and_then(json::Value::as_array)
        .expect("traceEvents array");
    let mut flows = 0;
    for e in events {
        if e.get("ph").and_then(json::Value::as_str) != Some("s") {
            continue;
        }
        flows += 1;
        let args = e.get("args").expect("flow start must carry args");
        let from = args.get("from").expect("args.from");
        let to = args.get("to").expect("args.to");
        let i = from
            .get("thread")
            .and_then(json::Value::as_u64)
            .expect("from.thread") as usize;
        let vi = from
            .get("clock")
            .and_then(json::Value::as_array)
            .and_then(|c| c.get(i))
            .and_then(json::Value::as_u64)
            .expect("from.clock[i]");
        let vi_prime = to
            .get("clock")
            .and_then(json::Value::as_array)
            .and_then(|c| c.get(i))
            .and_then(json::Value::as_u64)
            .expect("to.clock[i]");
        assert!(
            vi <= vi_prime,
            "flow edge violates Theorem 3: V[{i}]={vi} > V'[{i}]={vi_prime}"
        );
    }
    flows
}

#[test]
fn trace_bank_writes_valid_artifacts() {
    let dir = temp_dir("artifacts");
    let out = run_cli(&["trace", "bank", "--out", dir.to_str().unwrap()]);
    assert_eq!(out.code, 0, "{}", out.output);
    assert!(out.output.contains("trace written to"), "{}", out.output);
    assert!(out.serve.is_none());

    // trace.json: parses, has at least one flow event, every flow edge
    // satisfies Theorem 3, and every lane got a thread-name record.
    let chrome = std::fs::read_to_string(dir.join("trace.json")).expect("trace.json");
    let trace = json::parse(&chrome).expect("Chrome trace must be valid JSON");
    let flows = assert_flows_satisfy_theorem3(&trace);
    assert!(flows >= 1, "expected at least one flow event");
    let events = trace
        .get("traceEvents")
        .and_then(json::Value::as_array)
        .unwrap();
    assert!(
        events
            .iter()
            .any(|e| e.get("name").and_then(json::Value::as_str) == Some("thread_name")),
        "lane metadata missing"
    );

    // causal.dot: a non-empty digraph. The buggy bank's two relevant
    // events are concurrent, so the sound causal DAG has nodes but no
    // edges — exactly the picture the workload is meant to show.
    let dot = std::fs::read_to_string(dir.join("causal.dot")).expect("causal.dot");
    assert!(dot.starts_with("digraph causal {"), "{dot}");
    assert!(dot.contains("label="), "causal DAG must have nodes:\n{dot}");

    // profile.json: parses and profiles at least one lattice level.
    let profile = std::fs::read_to_string(dir.join("profile.json")).expect("profile.json");
    let levels = json::parse(&profile)
        .expect("profile must be valid JSON")
        .get("levels")
        .and_then(json::Value::as_array)
        .map(Vec::len)
        .expect("levels array");
    assert!(levels >= 1, "expected profiled lattice levels");

    let _ = std::fs::remove_dir_all(&dir);
}

/// The acceptance run: `xyz` at seed 0 replays its fixed (seeded)
/// schedule, whose cross-thread reads produce real happens-before
/// edges — every one must be rendered as an `hb` flow satisfying
/// Theorem 3, and the causal DAG must show the same edges.
#[test]
fn trace_xyz_seeded_run_has_happens_before_flows() {
    let dir = temp_dir("xyz");
    let out = run_cli(&["trace", "xyz", "--out", dir.to_str().unwrap()]);
    assert_eq!(out.code, 0, "{}", out.output);

    let chrome = std::fs::read_to_string(dir.join("trace.json")).expect("trace.json");
    let trace = json::parse(&chrome).expect("valid JSON");
    assert_flows_satisfy_theorem3(&trace);
    let hb_flows = trace
        .get("traceEvents")
        .and_then(json::Value::as_array)
        .unwrap()
        .iter()
        .filter(|e| {
            e.get("ph").and_then(json::Value::as_str) == Some("s")
                && e.get("cat").and_then(json::Value::as_str) == Some("hb")
        })
        .count();
    assert!(hb_flows >= 1, "seeded xyz run must have hb flow events");

    let dot = std::fs::read_to_string(dir.join("causal.dot")).expect("causal.dot");
    assert!(dot.contains("->"), "causal DAG must have edges:\n{dot}");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Per lane of `trace.json`, how many records of each kind it holds. A
/// record's kind is its category plus the first word of its name
/// (`core:process`, `lattice:level`, `observer:<stage>`, `wire:emit`, …);
/// metadata and flow events are not records.
fn lane_shape(trace: &json::Value) -> BTreeMap<String, BTreeMap<String, usize>> {
    let events = trace
        .get("traceEvents")
        .and_then(json::Value::as_array)
        .expect("traceEvents array");
    let str_of =
        |e: &json::Value, key: &str| e.get(key).and_then(json::Value::as_str).map(str::to_owned);
    let lanes: BTreeMap<u64, String> = events
        .iter()
        .filter(|e| str_of(e, "name").as_deref() == Some("thread_name"))
        .map(|e| {
            let tid = e.get("tid").and_then(json::Value::as_u64).expect("tid");
            let name = e
                .get("args")
                .and_then(|a| str_of(a, "name"))
                .expect("lane name");
            (tid, name)
        })
        .collect();
    let mut shape: BTreeMap<String, BTreeMap<String, usize>> = BTreeMap::new();
    for e in events {
        if !matches!(str_of(e, "ph").as_deref(), Some("X" | "i")) {
            continue;
        }
        let tid = e.get("tid").and_then(json::Value::as_u64).expect("tid");
        let name = str_of(e, "name").expect("name");
        let kind = format!(
            "{}:{}",
            str_of(e, "cat").expect("cat"),
            name.split_whitespace().next().unwrap_or("")
        );
        *shape
            .entry(lanes[&tid].clone())
            .or_default()
            .entry(kind)
            .or_default() += 1;
    }
    shape
}

/// Pins what `jmpax trace` records at seed 0: the summary line, the lane
/// set and the per-lane count of each record kind.
#[test]
fn trace_shape_is_pinned() {
    let observer = [
        ("observer:analysis", 1),
        ("observer:instrument", 1),
        ("observer:jpax", 1),
        ("observer:spec", 1),
    ];
    // (workload, summary, [(lane, [(kind, count)])]); `n` is the number
    // of relevant events (messages), `p` processed events, `l` levels
    // and `e` property evaluations.
    let pipeline = |p: usize, n: usize, l: usize, e: usize| {
        vec![
            ("core", vec![("core:process", p), ("wire:emit", n)]),
            (
                "lattice",
                vec![("lattice:level", l), ("spec:eval", e), ("wire:ingest", n)],
            ),
            ("observer", observer.to_vec()),
            ("wire", vec![("observer:encode", n), ("wire:emit", n)]),
        ]
    };
    let cases = [
        (
            "xyz",
            "traced 43 events across 4 lanes (4 happens-before edges, 4 transport flows)",
            pipeline(10, 4, 4, 9),
        ),
        (
            "landing",
            "traced 36 events across 4 lanes (1 happens-before edges, 3 transport flows)",
            pipeline(10, 3, 3, 7),
        ),
        (
            "bank",
            "traced 19 events across 4 lanes (0 happens-before edges, 2 transport flows)",
            pipeline(2, 2, 2, 3),
        ),
        (
            "dining",
            "traced 7 events across 2 lanes (0 happens-before edges, 0 transport flows)",
            vec![
                ("core", vec![("core:process", 3)]),
                ("observer", observer.to_vec()),
            ],
        ),
    ];
    for (workload, summary, lanes) in cases {
        let dir = temp_dir(&format!("shape-{workload}"));
        let out = run_cli(&["trace", workload, "--out", dir.to_str().unwrap()]);
        assert_eq!(out.code, 0, "{}", out.output);
        assert!(
            out.output.lines().any(|l| l == summary),
            "{workload}: expected `{summary}` in\n{}",
            out.output
        );
        let chrome = std::fs::read_to_string(dir.join("trace.json")).expect("trace.json");
        let trace = json::parse(&chrome).expect("valid JSON");
        let expected: BTreeMap<String, BTreeMap<String, usize>> = lanes
            .into_iter()
            .map(|(lane, kinds)| {
                let kinds = kinds.into_iter().map(|(k, n)| (k.to_owned(), n)).collect();
                (lane.to_owned(), kinds)
            })
            .collect();
        assert_eq!(lane_shape(&trace), expected, "{workload}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn trace_requires_out_dir_and_known_workload() {
    let out = run_cli(&["trace", "bank"]);
    assert_eq!(out.code, 2);
    assert!(out.output.contains("--out"), "{}", out.output);
    let out = run_cli(&["trace", "nope", "--out", "/tmp/x"]);
    assert_eq!(out.code, 2);
    let dir = temp_dir("badport");
    let out = run_cli(&[
        "trace",
        "bank",
        "--out",
        dir.to_str().unwrap(),
        "--serve-metrics",
        "notaport",
    ]);
    assert_eq!(out.code, 2);
    assert!(out.output.contains("serve-metrics"), "{}", out.output);
    let _ = std::fs::remove_dir_all(&dir);
}

fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(stream, "GET {path} HTTP/1.0\r\nHost: localhost\r\n\r\n").unwrap();
    let mut reader = std::io::BufReader::new(stream);
    let mut status = String::new();
    reader.read_line(&mut status).unwrap();
    let code: u16 = status
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .expect("status code");
    let mut line = String::new();
    loop {
        line.clear();
        reader.read_line(&mut line).unwrap();
        if line == "\r\n" || line.is_empty() {
            break;
        }
    }
    let mut body = String::new();
    reader.read_to_string(&mut body).unwrap();
    (code, body)
}

#[test]
fn serve_metrics_answers_a_prometheus_scrape() {
    let dir = temp_dir("scrape");
    let out = run_cli(&[
        "trace",
        "bank",
        "--out",
        dir.to_str().unwrap(),
        "--serve-metrics",
        "0",
    ]);
    assert_eq!(out.code, 0, "{}", out.output);
    let serve = out.serve.expect("--serve-metrics must set up an endpoint");

    // Exactly what `main` does: bind the requested port, serve the routes.
    let server = jmpax_telemetry::serve::MetricsServer::bind(serve.port).expect("bind");
    let addr = server.local_addr().unwrap();
    let routes = commands::metrics_routes(&serve);
    let handle = std::thread::spawn(move || server.serve(&routes, Some(2)));

    let (code, body) = http_get(addr, "/metrics");
    assert_eq!(code, 200);
    let mut families: Vec<&str> = body
        .lines()
        .filter(|l| !l.starts_with('#') && l.starts_with("jmpax_"))
        .filter_map(|l| l.split(['{', ' ']).next())
        .map(|name| name.trim_end_matches("_bucket"))
        .collect();
    families.sort_unstable();
    families.dedup();
    assert!(
        families.len() >= 10,
        "expected >= 10 jmpax_ metrics in the scrape, got {}: {families:?}",
        families.len()
    );
    assert!(body.contains("# TYPE"), "{body}");

    let (code, body) = http_get(addr, "/trace");
    assert_eq!(code, 200);
    let status = json::parse(&body).expect("/trace must serve valid JSON");
    assert_eq!(
        status.get("workload").and_then(json::Value::as_str),
        Some("bank-buggy")
    );
    assert!(
        status
            .get("flow_edges")
            .and_then(json::Value::as_u64)
            .unwrap_or(0)
            >= 1
    );

    handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
