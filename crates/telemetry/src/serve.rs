//! A minimal metrics endpoint over a std `TcpListener`.
//!
//! Serves a fixed set of routes — typically `/metrics` with the telemetry
//! snapshot in Prometheus text format and `/trace` with a status JSON —
//! to one client at a time, plus a built-in `/healthz` liveness probe
//! reporting uptime. This is deliberately not a web server: one
//! thread, blocking accepts, HTTP/1.0-style close-after-response
//! semantics, just enough for `curl` and a Prometheus scrape.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Total time a client gets to deliver its request head. A scrape sends
/// its head in one packet; only a stalled or byte-dribbling client runs
/// into this, and it must not be allowed to wedge the accept loop.
const DEFAULT_HEAD_DEADLINE: Duration = Duration::from_secs(2);

/// Time allowed for writing a response before the connection is dropped.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// Longest accepted request line. Anything longer gets `414` — the known
/// paths all fit in a few dozen bytes.
const MAX_REQUEST_LINE: usize = 4096;

/// One servable route: absolute path, content type, body, and status.
#[derive(Clone, Debug)]
pub struct Route {
    /// Absolute request path, e.g. `"/metrics"`.
    pub path: String,
    /// `Content-Type` header value, e.g. `"text/plain; version=0.0.4"`.
    pub content_type: String,
    /// Response body.
    pub body: String,
    /// HTTP status code the route answers with (200 for [`Route::new`]).
    /// Lets a `/healthz` route flip to 503 during shutdown without the
    /// server knowing anything about health semantics.
    pub status: u16,
}

impl Route {
    /// Convenience constructor; the route answers `200 OK`.
    #[must_use]
    pub fn new(path: &str, content_type: &str, body: String) -> Self {
        Self::with_status(path, content_type, body, 200)
    }

    /// A route answering `status` instead of 200.
    #[must_use]
    pub fn with_status(path: &str, content_type: &str, body: String, status: u16) -> Self {
        Self {
            path: path.to_string(),
            content_type: content_type.to_string(),
            body,
            status,
        }
    }
}

/// Canonical reason phrase for the handful of status codes this server
/// emits; anything unknown gets a neutral phrase (the code is what
/// matters to probes).
fn reason_for(code: u16) -> &'static str {
    match code {
        200 => "OK",
        404 => "Not Found",
        408 => "Request Timeout",
        414 => "URI Too Long",
        503 => "Service Unavailable",
        _ => "Status",
    }
}

/// A bound, not-yet-serving metrics endpoint.
pub struct MetricsServer {
    listener: TcpListener,
    started: Instant,
    head_deadline: Duration,
}

impl MetricsServer {
    /// Binds `127.0.0.1:port`. Port 0 picks an ephemeral port — read it
    /// back with [`MetricsServer::local_addr`].
    ///
    /// # Errors
    /// When the bind fails (e.g. the port is taken).
    pub fn bind(port: u16) -> std::io::Result<Self> {
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        Ok(Self {
            listener,
            started: Instant::now(),
            head_deadline: DEFAULT_HEAD_DEADLINE,
        })
    }

    /// Overrides the total time a client gets to deliver its request head
    /// before being answered `408` and dropped (default 2 s).
    #[must_use]
    pub fn with_head_deadline(mut self, deadline: Duration) -> Self {
        self.head_deadline = deadline;
        self
    }

    /// The bound address.
    ///
    /// # Errors
    /// When the socket's address cannot be read.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves `routes` until `max_requests` requests have been answered
    /// (`None` = forever). `/healthz` is always available and answers
    /// `200` with the endpoint uptime, so liveness probes work even when
    /// no routes were registered. Unknown paths get a 404 listing the
    /// known ones. Per-connection I/O errors are swallowed — a
    /// half-closed scrape must not kill the endpoint; a slow one is cut
    /// off at the head deadline.
    pub fn serve(&self, routes: &[Route], max_requests: Option<usize>) {
        self.serve_with(|| routes.to_vec(), max_requests);
    }

    /// Like [`MetricsServer::serve`], but the route set is rebuilt by
    /// `routes_fn` for every request — the shape a live daemon needs,
    /// where `/metrics` must reflect the registry *now*, not at bind
    /// time.
    pub fn serve_with(
        &self,
        mut routes_fn: impl FnMut() -> Vec<Route>,
        max_requests: Option<usize>,
    ) {
        let mut answered = 0usize;
        for stream in self.listener.incoming() {
            let Ok(stream) = stream else { continue };
            let routes = routes_fn();
            let _ = handle_connection(stream, &routes, self.started, self.head_deadline);
            answered += 1;
            if max_requests.is_some_and(|max| answered >= max) {
                break;
            }
        }
    }
}

fn handle_connection(
    mut stream: TcpStream,
    routes: &[Route],
    started: Instant,
    head_deadline: Duration,
) -> std::io::Result<()> {
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    // Read until the end of the request head (or 8 KiB, whichever first),
    // under one overall deadline so a byte-dribbling client cannot hold
    // the accept loop hostage.
    let deadline = Instant::now() + head_deadline;
    let mut buf = [0u8; 8192];
    let mut len = 0;
    loop {
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return write_response(
                &mut stream,
                408,
                "Request Timeout",
                "text/plain",
                "request head timed out\n",
            );
        }
        stream.set_read_timeout(Some(remaining))?;
        let n = match stream.read(&mut buf[len..]) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                return write_response(
                    &mut stream,
                    408,
                    "Request Timeout",
                    "text/plain",
                    "request head timed out\n",
                );
            }
            Err(e) => return Err(e),
        };
        len += n;
        // A request line longer than any legitimate path is rejected
        // before more of it is read.
        if !buf[..len].contains(&b'\n') && len > MAX_REQUEST_LINE {
            return write_response(
                &mut stream,
                414,
                "URI Too Long",
                "text/plain",
                "request line too long\n",
            );
        }
        if buf[..len].windows(4).any(|w| w == b"\r\n\r\n") || len == buf.len() {
            break;
        }
    }
    let head = String::from_utf8_lossy(&buf[..len]);
    // Request line: METHOD SP PATH SP VERSION.
    let path = head
        .lines()
        .next()
        .and_then(|line| line.split_whitespace().nth(1))
        .unwrap_or("/");
    let path = path.split('?').next().unwrap_or(path);

    // Built-in liveness probe; a registered `/healthz` route wins.
    if path == "/healthz" && !routes.iter().any(|r| r.path == "/healthz") {
        let body = format!("ok uptime_s={}\n", started.elapsed().as_secs());
        return write_response(&mut stream, 200, "OK", "text/plain", &body);
    }

    match routes.iter().find(|r| r.path == path) {
        Some(route) => write_response(
            &mut stream,
            route.status,
            reason_for(route.status),
            &route.content_type,
            &route.body,
        ),
        None => {
            let mut body = String::from("404 not found. Known paths:\n");
            for r in routes {
                body.push_str(&r.path);
                body.push('\n');
            }
            write_response(&mut stream, 404, "Not Found", "text/plain", &body)
        }
    }
}

fn write_response(
    stream: &mut TcpStream,
    code: u16,
    reason: &str,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.0 {code} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead as _, BufReader};

    fn get(addr: SocketAddr, path: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(stream, "GET {path} HTTP/1.0\r\nHost: localhost\r\n\r\n").unwrap();
        let mut reader = BufReader::new(stream);
        let mut status_line = String::new();
        reader.read_line(&mut status_line).unwrap();
        let code: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|c| c.parse().ok())
            .expect("status code");
        let mut rest = String::new();
        let mut line = String::new();
        // Skip headers.
        loop {
            line.clear();
            reader.read_line(&mut line).unwrap();
            if line == "\r\n" || line.is_empty() {
                break;
            }
        }
        use std::io::Read as _;
        reader.read_to_string(&mut rest).unwrap();
        (code, rest)
    }

    #[test]
    fn serves_routes_and_404s_unknown_paths() {
        let server = MetricsServer::bind(0).expect("bind ephemeral");
        let addr = server.local_addr().unwrap();
        let routes = vec![
            Route::new(
                "/metrics",
                "text/plain; version=0.0.4",
                "jmpax_up 1\n".to_string(),
            ),
            Route::new("/trace", "application/json", "{\"ok\":true}".to_string()),
        ];
        let handle = std::thread::spawn(move || server.serve(&routes, Some(3)));
        let (code, body) = get(addr, "/metrics");
        assert_eq!(code, 200);
        assert_eq!(body, "jmpax_up 1\n");
        let (code, body) = get(addr, "/trace?pretty=1");
        assert_eq!(code, 200, "query strings are stripped");
        assert_eq!(body, "{\"ok\":true}");
        let (code, body) = get(addr, "/nope");
        assert_eq!(code, 404);
        assert!(body.contains("/metrics"));
        handle.join().unwrap();
    }

    #[test]
    fn healthz_answers_without_a_registered_route() {
        let server = MetricsServer::bind(0).expect("bind ephemeral");
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || server.serve(&[], Some(1)));
        let (code, body) = get(addr, "/healthz");
        assert_eq!(code, 200);
        assert!(body.starts_with("ok uptime_s="), "{body}");
        handle.join().unwrap();
    }

    #[test]
    fn byte_dribbling_client_cannot_wedge_the_endpoint() {
        let server = MetricsServer::bind(0)
            .expect("bind ephemeral")
            .with_head_deadline(Duration::from_millis(100));
        let addr = server.local_addr().unwrap();
        let routes = vec![Route::new("/metrics", "text/plain", "ok\n".to_string())];
        let handle = std::thread::spawn(move || server.serve(&routes, Some(2)));

        // A client that sends half a request line, then stalls.
        let mut slow = TcpStream::connect(addr).expect("connect");
        slow.write_all(b"GET /met").unwrap();
        slow.flush().unwrap();
        let mut reader = BufReader::new(slow);
        let mut status = String::new();
        reader.read_line(&mut status).unwrap();
        assert!(
            status.contains("408"),
            "stalled head must get 408: {status}"
        );

        // The endpoint must still answer the next, honest client.
        let (code, body) = get(addr, "/metrics");
        assert_eq!(code, 200);
        assert_eq!(body, "ok\n");
        handle.join().unwrap();
    }

    #[test]
    fn oversized_request_line_gets_414() {
        let server = MetricsServer::bind(0).expect("bind ephemeral");
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || server.serve(&[], Some(1)));
        let mut stream = TcpStream::connect(addr).expect("connect");
        let long = format!("GET /{} HTTP/1.0", "a".repeat(MAX_REQUEST_LINE + 64));
        stream.write_all(long.as_bytes()).unwrap(); // no newline yet
        stream.flush().unwrap();
        let mut reader = BufReader::new(stream);
        let mut status = String::new();
        reader.read_line(&mut status).unwrap();
        assert!(status.contains("414"), "{status}");
        handle.join().unwrap();
    }

    #[test]
    fn serve_with_rebuilds_routes_per_request() {
        let server = MetricsServer::bind(0).expect("bind ephemeral");
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let mut hits = 0u64;
            server.serve_with(
                move || {
                    hits += 1;
                    vec![Route::new(
                        "/metrics",
                        "text/plain",
                        format!("hits {hits}\n"),
                    )]
                },
                Some(2),
            );
        });
        let (_, first) = get(addr, "/metrics");
        let (_, second) = get(addr, "/metrics");
        assert_eq!(first, "hits 1\n");
        assert_eq!(second, "hits 2\n");
        handle.join().unwrap();
    }

    #[test]
    fn route_status_is_honored() {
        let server = MetricsServer::bind(0).expect("bind ephemeral");
        let addr = server.local_addr().unwrap();
        let routes = vec![Route::with_status(
            "/healthz",
            "application/json",
            "{\"ready\":false}".to_string(),
            503,
        )];
        let handle = std::thread::spawn(move || server.serve(&routes, Some(1)));
        let (code, body) = get(addr, "/healthz");
        assert_eq!(code, 503, "route-declared status must reach the wire");
        assert_eq!(body, "{\"ready\":false}");
        handle.join().unwrap();
    }

    #[test]
    fn registered_healthz_route_overrides_builtin() {
        let server = MetricsServer::bind(0).expect("bind ephemeral");
        let addr = server.local_addr().unwrap();
        let routes = vec![Route::new(
            "/healthz",
            "application/json",
            "{\"status\":\"custom\"}".to_string(),
        )];
        let handle = std::thread::spawn(move || server.serve(&routes, Some(1)));
        let (code, body) = get(addr, "/healthz");
        assert_eq!(code, 200);
        assert_eq!(body, "{\"status\":\"custom\"}");
        handle.join().unwrap();
    }
}
