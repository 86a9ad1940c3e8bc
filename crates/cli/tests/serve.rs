//! End-to-end smoke for `jmpax serve` + `jmpax load` through the real
//! binary: a daemon on ephemeral ports discovered from its stderr
//! announcements, a live `/healthz` + `/metrics` endpoint, lossy loader
//! sessions, and the machine-readable shutdown report.
//!
//! The heavyweight chaos-load scenario (100 concurrent sessions, a
//! stalled tenant, shutdown mid-stream) lives in
//! `crates/observer/tests/serve_chaos_load.rs` and in the CI
//! `serve-chaos-load` job; this test pins the process-level contract.

use std::io::{BufRead as _, BufReader, Read as _, Write as _};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};

const SPEC: &str = "(x > 0) -> [y = 0, y > z)";

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_jmpax"))
}

/// Reads the daemon's two stderr announcement lines and extracts
/// `(serve_addr, metrics_addr)`.
fn announced_addrs(stderr: &mut BufReader<impl std::io::Read>) -> (String, String) {
    let mut listen = String::new();
    stderr.read_line(&mut listen).expect("read listen line");
    assert!(listen.contains("listening on"), "{listen}");
    let addr = listen
        .rsplit(' ')
        .next()
        .expect("address token")
        .trim()
        .to_string();

    let mut metrics = String::new();
    stderr.read_line(&mut metrics).expect("read metrics line");
    assert!(metrics.contains("/metrics"), "{metrics}");
    let maddr = metrics
        .split("http://")
        .nth(1)
        .expect("metrics url")
        .split('/')
        .next()
        .expect("metrics host")
        .to_string();
    (addr, maddr)
}

fn http_get(addr: &str, path: &str) -> String {
    let mut sock = TcpStream::connect(addr).expect("connect endpoint");
    sock.write_all(
        format!("GET {path} HTTP/1.1\r\nHost: jmpax\r\nConnection: close\r\n\r\n").as_bytes(),
    )
    .expect("write request");
    let mut response = String::new();
    sock.read_to_string(&mut response).expect("read response");
    response
}

/// Kills the daemon before panicking so a failed assertion cannot leave
/// the test hanging on `wait`.
fn guard_fail(daemon: &mut Child, message: &str) -> ! {
    let _ = daemon.kill();
    let _ = daemon.wait();
    panic!("{message}");
}

#[test]
fn serve_and_load_end_to_end_through_the_binary() {
    let mut daemon = bin()
        .args([
            "serve",
            "--spec",
            SPEC,
            "--port",
            "0",
            "--metrics-port",
            "0",
            "--sessions",
            "3",
            "--json",
            "--read-timeout-ms",
            "10",
            "--idle-timeout-ms",
            "5000",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn daemon");
    let mut stderr = BufReader::new(daemon.stderr.take().expect("piped stderr"));
    let (addr, maddr) = announced_addrs(&mut stderr);

    // The metrics endpoint is live before any tenant has connected, and
    // /healthz reports readiness as JSON while the daemon accepts.
    let health = http_get(&maddr, "/healthz");
    if !health.starts_with("HTTP/1.0 200") {
        guard_fail(&mut daemon, &format!("healthz: {health}"));
    }
    let health_body = health.split("\r\n\r\n").nth(1).unwrap_or("");
    let health_json = match jmpax_telemetry::json::parse(health_body) {
        Ok(v) => v,
        Err(e) => guard_fail(
            &mut daemon,
            &format!("healthz body not JSON ({e}): {health}"),
        ),
    };
    if health_json.get("ready").and_then(|v| v.as_bool()) != Some(true)
        || health_json.get("accepting").and_then(|v| v.as_bool()) != Some(true)
    {
        guard_fail(&mut daemon, &format!("healthz not ready: {health_body}"));
    }
    let metrics = http_get(&maddr, "/metrics");
    if !metrics.starts_with("HTTP/1.0 200") {
        guard_fail(&mut daemon, &format!("metrics: {metrics}"));
    }

    // Three lossy sessions; per-session seeding keeps this reproducible.
    let loader = bin()
        .args([
            "load",
            "xyz",
            "--connect",
            &addr,
            "--sessions",
            "3",
            "--seed",
            "7",
            "--drop",
            "0.05",
            "--corrupt",
            "0.05",
            "--reorder-window",
            "4",
        ])
        .output()
        .expect("run loader");
    let loader_out = String::from_utf8_lossy(&loader.stdout).into_owned();
    if !loader.status.success() {
        guard_fail(&mut daemon, &format!("loader failed:\n{loader_out}"));
    }
    assert!(
        loader_out.contains("load: 3/3 verdicts received, 0 failed"),
        "{loader_out}"
    );
    assert!(loader_out.contains("\"verdict\":"), "{loader_out}");

    // --sessions 3 reached: the daemon shuts down and prints the report.
    let out = daemon.wait_with_output().expect("daemon exit");
    assert!(out.status.success(), "daemon exit: {:?}", out.status);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let json = jmpax_telemetry::json::parse(stdout.trim()).expect("report is valid JSON");
    let serve = json.get("serve").expect("top-level serve key");
    assert_eq!(serve.get("sessions").and_then(|v| v.as_u64()), Some(3));
    assert_eq!(serve.get("errors").and_then(|v| v.as_u64()), Some(0));
    let outcomes = serve
        .get("outcomes")
        .and_then(|o| o.as_array())
        .expect("outcomes array");
    assert_eq!(outcomes.len(), 3, "{stdout}");
    for outcome in outcomes {
        let verdict = outcome.get("verdict").and_then(|v| v.as_str()).unwrap();
        assert!(
            verdict == "Exact" || verdict == "Degraded",
            "tenant failed outright: {stdout}"
        );
    }
}

/// The dimensional-observability contract through the real binary: live
/// per-tenant labeled series in `/metrics`, the `/tenants` document,
/// `jmpax top` in both `--once` modes, and the structured ops log.
#[test]
fn tenants_route_top_and_ops_log_reflect_sessions() {
    let ops_path = std::env::temp_dir().join(format!("jmpax-opslog-{}.jsonl", std::process::id()));
    let mut daemon = bin()
        .args([
            "serve",
            "--spec",
            SPEC,
            "--port",
            "0",
            "--metrics-port",
            "0",
            "--sessions",
            "4",
            "--json",
            "--read-timeout-ms",
            "10",
            "--idle-timeout-ms",
            "5000",
            "--ops-log",
            ops_path.to_str().expect("utf-8 temp path"),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn daemon");
    let mut stderr = BufReader::new(daemon.stderr.take().expect("piped stderr"));
    let (addr, maddr) = announced_addrs(&mut stderr);

    // Three seeded lossy sessions complete first.
    let loader = bin()
        .args([
            "load",
            "xyz",
            "--connect",
            &addr,
            "--sessions",
            "3",
            "--seed",
            "42",
            "--drop",
            "0.1",
            "--tenant",
            "probe",
        ])
        .output()
        .expect("run loader");
    if !loader.status.success() {
        let _ = std::fs::remove_file(&ops_path);
        guard_fail(
            &mut daemon,
            &format!("loader: {}", String::from_utf8_lossy(&loader.stdout)),
        );
    }

    // /tenants lists all three completions with their final verdicts...
    let tenants_response = http_get(&maddr, "/tenants");
    let tenants_body = tenants_response.split("\r\n\r\n").nth(1).unwrap_or("");
    let tenants = match jmpax_telemetry::json::parse(tenants_body) {
        Ok(v) => v,
        Err(e) => {
            let _ = std::fs::remove_file(&ops_path);
            guard_fail(
                &mut daemon,
                &format!("/tenants not JSON ({e}): {tenants_response}"),
            )
        }
    };
    if tenants.get("completed").and_then(|v| v.as_u64()) != Some(3) {
        let _ = std::fs::remove_file(&ops_path);
        guard_fail(
            &mut daemon,
            &format!("expected 3 completed: {tenants_body}"),
        );
    }
    let rows = tenants
        .get("tenants")
        .and_then(|t| t.as_array())
        .expect("tenants array");
    for row in rows {
        let verdict = row.get("verdict").and_then(|v| v.as_str()).unwrap_or("");
        if verdict != "Exact" && verdict != "Degraded" {
            let _ = std::fs::remove_file(&ops_path);
            guard_fail(
                &mut daemon,
                &format!("bad verdict in /tenants: {tenants_body}"),
            );
        }
    }

    // ...and every tenant /tenants lists has its labeled series in
    // /metrics (registration happens before the table insert).
    let metrics = http_get(&maddr, "/metrics");
    for row in rows {
        let tenant = row
            .get("tenant")
            .and_then(|v| v.as_str())
            .expect("tenant name");
        let needle = format!("jmpax_serve_verdict_state{{tenant=\"{tenant}\"}}");
        if !metrics.contains(&needle) {
            let _ = std::fs::remove_file(&ops_path);
            guard_fail(&mut daemon, &format!("missing {needle} in /metrics"));
        }
    }

    // `jmpax top --once --json` hands scripts the same document.
    let top_json = bin()
        .args(["top", "--connect", &maddr, "--once", "--json"])
        .output()
        .expect("run top --json");
    let top_json_out = String::from_utf8_lossy(&top_json.stdout).into_owned();
    if !top_json.status.success() {
        let _ = std::fs::remove_file(&ops_path);
        guard_fail(&mut daemon, &format!("top --json failed: {top_json_out}"));
    }
    let top_doc = jmpax_telemetry::json::parse(top_json_out.trim()).expect("top --json parses");
    assert_eq!(
        top_doc.get("completed").and_then(|v| v.as_u64()),
        Some(3),
        "{top_json_out}"
    );

    // `jmpax top --once` renders the human table with one row per tenant.
    let top_table = bin()
        .args(["top", "--connect", &maddr, "--once"])
        .output()
        .expect("run top");
    let table = String::from_utf8_lossy(&top_table.stdout).into_owned();
    if !top_table.status.success() || !table.contains("TENANT") {
        let _ = std::fs::remove_file(&ops_path);
        guard_fail(&mut daemon, &format!("top table: {table}"));
    }
    for row in rows {
        let tenant = row.get("tenant").and_then(|v| v.as_str()).unwrap();
        assert!(table.contains(tenant), "missing {tenant} in:\n{table}");
    }

    // A fourth session reaches --sessions 4 and shuts the daemon down.
    let closer = bin()
        .args(["load", "xyz", "--connect", &addr, "--sessions", "1"])
        .output()
        .expect("run closer");
    if !closer.status.success() {
        let _ = std::fs::remove_file(&ops_path);
        guard_fail(&mut daemon, "closer session failed");
    }
    let out = daemon.wait_with_output().expect("daemon exit");
    assert!(out.status.success(), "daemon exit: {:?}", out.status);

    // The ops log is JSON lines, one event per state transition, flushed
    // by the time the daemon exited.
    let ops = std::fs::read_to_string(&ops_path).expect("read ops log");
    let _ = std::fs::remove_file(&ops_path);
    let mut events = std::collections::BTreeSet::new();
    for line in ops.lines() {
        let parsed = jmpax_telemetry::json::parse(line)
            .unwrap_or_else(|e| panic!("ops line not JSON ({e}): {line}"));
        if let Some(event) = parsed.get("event").and_then(|v| v.as_str()) {
            events.insert(event.to_string());
        }
    }
    for required in ["accept", "handshake", "verdict", "shutdown"] {
        assert!(
            events.contains(required),
            "no `{required}` event in ops log:\n{ops}"
        );
    }
}

#[test]
fn hostile_connection_gets_an_error_line_and_daemon_survives() {
    let mut daemon = bin()
        .args([
            "serve",
            "--spec",
            SPEC,
            "--port",
            "0",
            "--sessions",
            "1",
            "--json",
            "--read-timeout-ms",
            "10",
            "--handshake-timeout-ms",
            "2000",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn daemon");
    let mut stderr = BufReader::new(daemon.stderr.take().expect("piped stderr"));
    let mut listen = String::new();
    stderr.read_line(&mut listen).expect("read listen line");
    let addr = listen.rsplit(' ').next().unwrap().trim().to_string();

    // An HTTP client knocking on the event port: rejected with one JSON
    // error line, not a hang and not a crash.
    let mut hostile = TcpStream::connect(&addr).expect("connect hostile");
    hostile
        .write_all(b"GET / HTTP/1.1\r\nHost: jmpax\r\n\r\n")
        .expect("write garbage");
    hostile.flush().unwrap();
    let mut reply = String::new();
    BufReader::new(&hostile)
        .read_line(&mut reply)
        .expect("read rejection");
    if !reply.contains("\"verdict\":\"Error\"") {
        guard_fail(&mut daemon, &format!("rejection line: {reply}"));
    }
    drop(hostile);

    // A clean session afterwards still gets a real verdict.
    let loader = bin()
        .args(["load", "xyz", "--connect", &addr, "--sessions", "1"])
        .output()
        .expect("run loader");
    if !loader.status.success() {
        guard_fail(
            &mut daemon,
            &format!("loader: {}", String::from_utf8_lossy(&loader.stdout)),
        );
    }

    let out = daemon.wait_with_output().expect("daemon exit");
    assert!(out.status.success(), "daemon exit: {:?}", out.status);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let json = jmpax_telemetry::json::parse(stdout.trim()).expect("report json");
    let serve = json.get("serve").expect("serve key");
    assert_eq!(serve.get("sessions").and_then(|v| v.as_u64()), Some(1));
    assert!(
        serve.get("rejected").and_then(|v| v.as_u64()).unwrap_or(0) >= 1,
        "{stdout}"
    );
}
