//! Structured JSON-lines operations log for the daemon.
//!
//! One line per state transition — accept, handshake, evict, degrade,
//! panic, verdict, flight-recorder dump — written through a pluggable
//! [`LogSink`] so the daemon, tests, and embedders each choose where the
//! stream goes. The log is leveled and rate-limited: a burst of thousands
//! of events per second produces a bounded number of lines plus a
//! suppression count, never an unbounded log.
//!
//! Like the telemetry [`jmpax_telemetry::Registry`], a disabled
//! [`OpsLog`] is a one-branch no-op, so the daemon threads it through
//! unconditionally.

use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use jmpax_telemetry::json;

/// Where ops-log lines go. Implementations must tolerate concurrent
/// calls; each `write_line` receives one complete JSON object without a
/// trailing newline.
pub trait LogSink: Send + Sync {
    /// Delivers one log line.
    fn write_line(&self, line: &str);
}

/// Writes each line to stderr — the daemon default.
#[derive(Clone, Copy, Debug, Default)]
pub struct StderrLogSink;

impl LogSink for StderrLogSink {
    fn write_line(&self, line: &str) {
        eprintln!("{line}");
    }
}

/// Collects lines in memory; for tests and report embedding.
#[derive(Debug, Default)]
pub struct MemoryLogSink {
    lines: Mutex<Vec<String>>,
}

impl MemoryLogSink {
    /// An empty in-memory sink.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A copy of every line written so far.
    #[must_use]
    pub fn lines(&self) -> Vec<String> {
        self.lines.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }
}

impl LogSink for MemoryLogSink {
    fn write_line(&self, line: &str) {
        self.lines
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(line.to_string());
    }
}

/// Appends lines to a file, flushing per line so a crash loses at most
/// the line being written.
#[derive(Debug)]
pub struct FileLogSink {
    file: Mutex<std::fs::File>,
}

impl FileLogSink {
    /// Opens `path` for appending, creating it if needed.
    ///
    /// # Errors
    /// The underlying open error.
    pub fn append(path: &std::path::Path) -> std::io::Result<Self> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(Self {
            file: Mutex::new(file),
        })
    }
}

impl LogSink for FileLogSink {
    fn write_line(&self, line: &str) {
        let mut file = self.file.lock().unwrap_or_else(|e| e.into_inner());
        let _ = writeln!(file, "{line}");
        let _ = file.flush();
    }
}

/// Severity of an ops-log event.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum LogLevel {
    /// High-volume detail.
    Debug,
    /// Normal lifecycle transitions.
    Info,
    /// Degradations: eviction, non-Exact verdicts.
    Warn,
    /// Faults: handshake failures, analysis panics. Never rate-limited.
    Error,
}

impl LogLevel {
    /// Stable lowercase label used in the JSON `level` field.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            LogLevel::Debug => "debug",
            LogLevel::Info => "info",
            LogLevel::Warn => "warn",
            LogLevel::Error => "error",
        }
    }
}

/// A typed field value for [`OpsLog::event`].
#[derive(Clone, Debug)]
pub enum LogValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// String, JSON-escaped on write.
    Str(String),
    /// Boolean.
    Bool(bool),
    /// Pre-rendered JSON, spliced verbatim (for nested structures like a
    /// flight-recorder dump).
    Raw(String),
}

impl From<u64> for LogValue {
    fn from(v: u64) -> Self {
        LogValue::U64(v)
    }
}

impl From<usize> for LogValue {
    fn from(v: usize) -> Self {
        LogValue::U64(v as u64)
    }
}

impl From<bool> for LogValue {
    fn from(v: bool) -> Self {
        LogValue::Bool(v)
    }
}

impl From<&str> for LogValue {
    fn from(v: &str) -> Self {
        LogValue::Str(v.to_string())
    }
}

/// Default sustained event rate (lines per second) before suppression.
pub const DEFAULT_OPS_RATE: f64 = 500.0;

struct TokenBucket {
    tokens: f64,
    capacity: f64,
    refill_per_sec: f64,
    last: Instant,
}

impl TokenBucket {
    fn try_take(&mut self) -> bool {
        let now = Instant::now();
        let elapsed = now.duration_since(self.last).as_secs_f64();
        self.last = now;
        self.tokens = (self.tokens + elapsed * self.refill_per_sec).min(self.capacity);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

struct OpsLogInner {
    sink: Arc<dyn LogSink>,
    min_level: LogLevel,
    bucket: Mutex<TokenBucket>,
    emitted: AtomicU64,
    suppressed: AtomicU64,
}

/// The daemon's structured log: cloneable, cheap when disabled, and safe
/// to hammer from every session thread. `Error`-level events bypass the
/// rate limit; everything else shares one token bucket, and suppressed
/// events are counted so the shutdown report can say what was lost.
#[derive(Clone, Default)]
pub struct OpsLog(Option<Arc<OpsLogInner>>);

impl std::fmt::Debug for OpsLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            Some(inner) => write!(
                f,
                "OpsLog(emitted {}, suppressed {})",
                inner.emitted.load(Ordering::Relaxed),
                inner.suppressed.load(Ordering::Relaxed)
            ),
            None => write!(f, "OpsLog(disabled)"),
        }
    }
}

impl OpsLog {
    /// A log that drops everything at zero cost.
    #[must_use]
    pub fn disabled() -> Self {
        Self(None)
    }

    /// A log writing `Info`-and-up to `sink` at [`DEFAULT_OPS_RATE`].
    #[must_use]
    pub fn to_sink(sink: Arc<dyn LogSink>) -> Self {
        Self::new(sink, LogLevel::Info, DEFAULT_OPS_RATE)
    }

    /// A fully-specified log: events below `min_level` are dropped before
    /// the rate limiter; non-`Error` events above it share a token bucket
    /// refilled at `rate_per_sec` with a one-second burst capacity.
    #[must_use]
    pub fn new(sink: Arc<dyn LogSink>, min_level: LogLevel, rate_per_sec: f64) -> Self {
        let capacity = rate_per_sec.max(1.0);
        Self(Some(Arc::new(OpsLogInner {
            sink,
            min_level,
            bucket: Mutex::new(TokenBucket {
                tokens: capacity,
                capacity,
                refill_per_sec: capacity,
                last: Instant::now(),
            }),
            emitted: AtomicU64::new(0),
            suppressed: AtomicU64::new(0),
        })))
    }

    /// True when events are being recorded.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Lines written so far.
    #[must_use]
    pub fn emitted(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |i| i.emitted.load(Ordering::Relaxed))
    }

    /// Events dropped by the rate limiter so far.
    #[must_use]
    pub fn suppressed(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |i| i.suppressed.load(Ordering::Relaxed))
    }

    /// Emits one event line:
    /// `{"ts_ms":…,"level":"info","event":"accept","tenant":"t1","session":3,…fields}`.
    pub fn event(
        &self,
        level: LogLevel,
        event: &str,
        tenant: Option<&str>,
        session: Option<u64>,
        fields: &[(&str, LogValue)],
    ) {
        let Some(inner) = &self.0 else { return };
        if level < inner.min_level {
            return;
        }
        if level < LogLevel::Error {
            let allowed = inner
                .bucket
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .try_take();
            if !allowed {
                inner.suppressed.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
        let ts_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX));
        let mut line = String::with_capacity(96);
        line.push_str("{\"ts_ms\":");
        line.push_str(&ts_ms.to_string());
        line.push_str(",\"level\":\"");
        line.push_str(level.label());
        line.push_str("\",\"event\":");
        json::write_string(&mut line, event);
        if let Some(tenant) = tenant {
            line.push_str(",\"tenant\":");
            json::write_string(&mut line, tenant);
        }
        if let Some(session) = session {
            line.push_str(",\"session\":");
            line.push_str(&session.to_string());
        }
        for (key, value) in fields {
            line.push(',');
            json::write_string(&mut line, key);
            line.push(':');
            match value {
                LogValue::U64(v) => line.push_str(&v.to_string()),
                LogValue::I64(v) => line.push_str(&v.to_string()),
                LogValue::Bool(v) => line.push_str(if *v { "true" } else { "false" }),
                LogValue::Str(v) => json::write_string(&mut line, v),
                LogValue::Raw(v) => line.push_str(v),
            }
        }
        line.push('}');
        inner.emitted.fetch_add(1, Ordering::Relaxed);
        inner.sink.write_line(&line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_log_is_inert() {
        let log = OpsLog::disabled();
        log.event(LogLevel::Error, "panic", Some("t1"), Some(1), &[]);
        assert_eq!(log.emitted(), 0);
        assert_eq!(log.suppressed(), 0);
        assert!(!log.is_enabled());
    }

    #[test]
    fn events_render_as_parseable_json_lines() {
        let sink = Arc::new(MemoryLogSink::new());
        let log = OpsLog::to_sink(Arc::clone(&sink) as Arc<dyn LogSink>);
        log.event(
            LogLevel::Info,
            "accept",
            Some("t\"1"),
            Some(7),
            &[
                ("bytes", LogValue::U64(42)),
                ("ok", LogValue::Bool(true)),
                ("why", LogValue::from("idle")),
                ("dump", LogValue::Raw("[1,2]".to_string())),
            ],
        );
        let lines = sink.lines();
        assert_eq!(lines.len(), 1);
        let parsed = json::parse(&lines[0]).expect("ops line must parse");
        assert_eq!(
            parsed.get("event").and_then(json::Value::as_str),
            Some("accept")
        );
        assert_eq!(
            parsed.get("tenant").and_then(json::Value::as_str),
            Some("t\"1")
        );
        assert_eq!(parsed.get("session").and_then(json::Value::as_u64), Some(7));
        assert_eq!(parsed.get("bytes").and_then(json::Value::as_u64), Some(42));
        assert_eq!(parsed.get("ok").and_then(json::Value::as_bool), Some(true));
        assert!(parsed.get("ts_ms").and_then(json::Value::as_u64).is_some());
        assert_eq!(
            parsed
                .get("dump")
                .and_then(|d| d.index(1))
                .and_then(json::Value::as_u64),
            Some(2)
        );
    }

    #[test]
    fn min_level_filters_below() {
        let sink = Arc::new(MemoryLogSink::new());
        let log = OpsLog::new(
            Arc::clone(&sink) as Arc<dyn LogSink>,
            LogLevel::Warn,
            1000.0,
        );
        log.event(LogLevel::Debug, "frames", None, None, &[]);
        log.event(LogLevel::Info, "accept", None, None, &[]);
        log.event(LogLevel::Warn, "evict", None, None, &[]);
        log.event(LogLevel::Error, "panic", None, None, &[]);
        assert_eq!(log.emitted(), 2);
        assert_eq!(log.suppressed(), 0, "level filtering is not suppression");
    }

    #[test]
    fn rate_limit_suppresses_and_counts_but_errors_pass() {
        let sink = Arc::new(MemoryLogSink::new());
        // Burst capacity of 5 tokens and an effectively-zero refill over
        // the test's lifetime.
        let log = OpsLog::new(Arc::clone(&sink) as Arc<dyn LogSink>, LogLevel::Info, 5.0);
        for _ in 0..100 {
            log.event(LogLevel::Info, "accept", Some("t1"), Some(1), &[]);
        }
        // Refill over a few microseconds is ~0 tokens at 5/s, but allow
        // a little slack.
        let emitted = log.emitted();
        assert!((5..=7).contains(&emitted), "emitted {emitted}");
        assert_eq!(log.suppressed(), 100 - emitted);
        for _ in 0..3 {
            log.event(LogLevel::Error, "panic", Some("t1"), Some(1), &[]);
        }
        assert_eq!(log.emitted(), emitted + 3, "errors bypass the limiter");
    }
}
