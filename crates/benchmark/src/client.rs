//! The client half of a `jmpax serve` session for pre-encoded inputs, and
//! the verdict a session is checked against.

use std::io::{self, BufRead as _, BufReader, Write as _};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use jmpax_core::AnalysisKind;
use jmpax_lattice::SuiteReport;
use jmpax_telemetry::json;

/// Longest a client waits on the daemon before counting the session as
/// failed.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// The parts of a verdict line the benchmark checks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Verdict {
    pub label: String,
    pub satisfied: bool,
    pub violations: u64,
    pub messages: u64,
    /// `(name, satisfied, findings, exactness)` per analysis; empty for
    /// LTL-only sessions, as the daemon writes them.
    pub analyses: Vec<(String, bool, u64, String)>,
}

impl Verdict {
    pub fn parse(line: &str) -> Result<Self, String> {
        let v = json::parse(line).map_err(|e| format!("verdict is not JSON ({e}): {line}"))?;
        let field = |k: &str| {
            v.get(k)
                .ok_or_else(|| format!("verdict without {k}: {line}"))
        };
        let mut analyses = Vec::new();
        for a in v
            .get("analyses")
            .and_then(json::Value::as_array)
            .into_iter()
            .flatten()
        {
            analyses.push((
                a.get("name")
                    .and_then(json::Value::as_str)
                    .unwrap_or("")
                    .to_string(),
                a.get("satisfied")
                    .and_then(json::Value::as_bool)
                    .unwrap_or(false),
                a.get("findings")
                    .and_then(json::Value::as_u64)
                    .unwrap_or(u64::MAX),
                a.get("exactness")
                    .and_then(json::Value::as_str)
                    .unwrap_or("")
                    .to_string(),
            ));
        }
        Ok(Self {
            label: field("verdict")?.as_str().unwrap_or("").to_string(),
            satisfied: field("satisfied")?.as_bool().unwrap_or(false),
            violations: field("violations")?.as_u64().unwrap_or(u64::MAX),
            messages: field("messages")?.as_u64().unwrap_or(u64::MAX),
            analyses,
        })
    }

    /// The verdict the daemon must send for a clean stream whose suite
    /// produced `suite` over `messages` messages.
    pub fn expected(kinds: &[AnalysisKind], suite: &SuiteReport, messages: u64) -> Self {
        let analyses = if kinds == [AnalysisKind::Ltl] {
            Vec::new()
        } else {
            suite
                .reports
                .iter()
                .map(|r| {
                    (
                        r.kind().name().to_string(),
                        r.satisfied(),
                        r.findings(),
                        r.exactness().to_string(),
                    )
                })
                .collect()
        };
        Self {
            label: "Exact".to_string(),
            satisfied: suite.satisfied(),
            violations: suite.findings(),
            messages,
            analyses,
        }
    }
}

/// Instants at the client-side boundaries of one session.
#[derive(Clone, Copy, Debug)]
pub struct Timing {
    pub start: Instant,
    pub connected: Instant,
    pub uploaded: Instant,
    pub done: Instant,
}

impl Timing {
    pub fn wall(&self) -> Duration {
        self.done - self.start
    }
}

/// One whole session: connect, write the hello and the frames in one
/// write, half-close, read the verdict line.
pub fn session(addr: SocketAddr, wire: &[u8]) -> io::Result<(String, Timing)> {
    let start = Instant::now();
    let mut stream = TcpStream::connect(addr)?;
    let connected = Instant::now();
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    stream.write_all(wire)?;
    stream.shutdown(Shutdown::Write)?;
    let uploaded = Instant::now();
    let line = read_verdict(stream)?;
    let done = Instant::now();
    Ok((
        line,
        Timing {
            start,
            connected,
            uploaded,
            done,
        },
    ))
}

fn read_verdict(stream: TcpStream) -> io::Result<String> {
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line)?;
    if line.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "daemon closed without a verdict",
        ));
    }
    Ok(line.trim_end().to_string())
}

/// Checks one verdict line against the reference; `Err` says why it
/// counts as failed.
pub fn check(line: io::Result<String>, expected: &Verdict) -> Result<(), String> {
    let line = line.map_err(|e| format!("transport error: {e}"))?;
    let got = Verdict::parse(&line)?;
    if got == *expected {
        Ok(())
    } else {
        Err(format!(
            "verdict {got:?} differs from reference {expected:?}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_suite_and_ltl_verdicts() {
        let ltl = r#"{"tenant":"t","session":3,"verdict":"Exact","satisfied":true,"violations":0,"frames_ok":24,"messages":24}"#;
        let v = Verdict::parse(ltl).unwrap();
        assert_eq!(
            (v.label.as_str(), v.satisfied, v.messages),
            ("Exact", true, 24)
        );
        assert!(v.analyses.is_empty());
        let suite = r#"{"tenant":"t","session":1,"verdict":"Exact","satisfied":false,"violations":5,"frames_ok":9,"messages":9,"analyses":[{"name":"race","satisfied":false,"findings":5,"exactness":"exact"}]}"#;
        let v = Verdict::parse(suite).unwrap();
        assert_eq!(
            v.analyses,
            vec![("race".to_string(), false, 5, "exact".to_string())]
        );
        assert!(check(Ok(suite.to_string()), &v).is_ok());
        assert!(check(Ok(ltl.to_string()), &v).is_err());
        assert!(check(Err(io::Error::other("reset")), &v).is_err());
        assert!(Verdict::parse("not json").is_err());
    }
}
