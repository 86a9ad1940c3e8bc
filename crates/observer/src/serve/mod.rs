//! `jmpax serve`: a multi-tenant observer daemon.
//!
//! The paper decouples the instrumented program from its observer with a
//! socket (Fig. 4); this module is what stands on the observer end of that
//! socket when there are *many* programs: one long-running process
//! accepting concurrent framed event streams over TCP, serving each
//! session on its own thread with its own [`crate::Pipeline`], and
//! emitting a per-tenant verdict as each session ends.
//!
//! ## Fault isolation (the design headline)
//!
//! A misbehaving tenant degrades *its own* verdict, never the process:
//!
//! * **Corrupt bytes** — the incremental resync scanner
//!   ([`jmpax_instrument::ResilientFrameDecoder`]) steps over garbage and
//!   the analysis suite's Theorem-3 [`jmpax_lattice::Reassembler`] — the
//!   session's one causal-delivery stage, with
//!   [`ServeConfig::stall_budget`] — skips unfillable gaps; the tenant's
//!   verdict degrades to [`jmpax_lattice::Exactness::Degraded`].
//! * **Slow tenants** — a session reads its next chunk only once the
//!   last one is analysed, so a tenant that outpaces its analysis fills
//!   its own socket buffer and feels real TCP backpressure; other
//!   sessions run on their own threads.
//! * **Idle tenants** — a session that stays silent for
//!   [`ServeConfig::idle_timeout`] is evicted; whatever arrived is still
//!   analyzed and reported (degraded).
//! * **Hostile handshakes** — bounded lengths everywhere
//!   ([`jmpax_instrument::tcp`]), a handshake deadline, and a concurrent
//!   session cap with explicit rejection.
//! * **Analysis panics** — a panicking analysis is contained; the tenant
//!   gets an `Error` verdict and the daemon keeps serving.
//!
//! Every failure mode increments a `serve.*` counter in the configured
//! telemetry [`Registry`], so `/metrics` tells the whole story live.

mod flight;
mod ops;
mod server;
mod status;
mod tenant;

use std::time::Duration;

use jmpax_core::AnalysisKind;
use jmpax_lattice::{AnalysisConfig, Exactness};
use jmpax_telemetry::Registry;

pub use flight::{FlightDump, FlightEntry, FlightKind, FlightRecorder, DEFAULT_FLIGHT_CAPACITY};
pub use ops::{
    FileLogSink, LogLevel, LogSink, LogValue, MemoryLogSink, OpsLog, StderrLogSink,
    DEFAULT_OPS_RATE,
};
pub use server::{Server, ServerHandle};
pub use status::{ServeObservability, TenantStatus, TenantTable, DEFAULT_COMPLETED_CAPACITY};

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// The ptLTL specification every tenant is checked against. Parsed
    /// per tenant, against the symbol table its handshake declares.
    pub spec: String,
    /// Analysis knobs applied to every tenant. Its `frontier_cap` acts as
    /// the server-side ceiling for tenant-requested caps
    /// ([`AnalysisConfig::with_requested_frontier_cap`]).
    pub analysis: AnalysisConfig,
    /// Analyses run for tenants whose handshake requests none. Empty
    /// means LTL only. A tenant that *does* request analyses gets exactly
    /// those; unknown codes in a handshake are rejected with a clean
    /// `Error` verdict before a session starts.
    pub analyses: Vec<AnalysisKind>,
    /// Reassembly stall budget (messages a gap may stall before being
    /// skipped).
    pub stall_budget: u64,
    /// Most sessions served concurrently; further connects are rejected
    /// with an error verdict (`serve.sessions_rejected`).
    pub max_sessions: usize,
    /// Per-read socket timeout; also the granularity at which idleness
    /// and shutdown are noticed.
    pub read_timeout: Duration,
    /// Silence longer than this evicts the tenant
    /// (`serve.tenants_evicted`), analyzing what arrived.
    pub idle_timeout: Duration,
    /// Deadline for the whole handshake.
    pub handshake_timeout: Duration,
    /// Telemetry sink for every `serve.*` metric. A disabled registry is
    /// free.
    pub telemetry: Registry,
    /// Structured JSON-lines operations log (one event per state
    /// transition). Disabled by default; a disabled log is free.
    pub ops_log: OpsLog,
    /// Capacity (entries) of each tenant's flight-recorder ring.
    pub flight_capacity: usize,
}

impl ServeConfig {
    /// A config with production-ish defaults for `spec`.
    #[must_use]
    pub fn new(spec: &str) -> Self {
        Self {
            spec: spec.to_string(),
            analysis: AnalysisConfig::default(),
            analyses: Vec::new(),
            stall_budget: jmpax_lattice::DEFAULT_STALL_BUDGET,
            max_sessions: 256,
            read_timeout: Duration::from_millis(50),
            idle_timeout: Duration::from_secs(30),
            handshake_timeout: Duration::from_secs(5),
            telemetry: Registry::disabled(),
            ops_log: OpsLog::disabled(),
            flight_capacity: DEFAULT_FLIGHT_CAPACITY,
        }
    }
}

pub use crate::verdict::ExactnessVerdict;

/// One analysis's slice of a tenant verdict — an entry of the outcome's
/// `"analyses"` JSON array when the session ran a multi-analysis suite.
#[derive(Clone, Debug)]
pub struct AnalysisOutcome {
    /// Which analysis (`ltl`, `race`, `atomicity`).
    pub kind: AnalysisKind,
    /// True when this analysis found nothing.
    pub satisfied: bool,
    /// Findings: LTL violations, races, or atomicity violations.
    pub findings: u64,
    /// This analysis's own exactness (they share transport losses but
    /// degrade independently past that point).
    pub exactness: Exactness,
}

impl AnalysisOutcome {
    fn to_json(&self) -> String {
        let mut out = String::with_capacity(64);
        let _ = std::fmt::Write::write_fmt(
            &mut out,
            format_args!(
                "{{\"name\":\"{}\",\"satisfied\":{},\"findings\":{},\"exactness\":",
                self.kind.name(),
                self.satisfied,
                self.findings
            ),
        );
        jmpax_telemetry::json::write_string(&mut out, &self.exactness.to_string());
        out.push('}');
        out
    }
}

/// One tenant's final accounting — the JSON line the client receives and
/// one row of the daemon's shutdown report.
#[derive(Clone, Debug)]
pub struct TenantOutcome {
    /// Tenant name from the handshake.
    pub tenant: String,
    /// Daemon-assigned session number (accept order).
    pub session: u64,
    /// Exact / Degraded / Error.
    pub verdict: ExactnessVerdict,
    /// True when no violation was found (only meaningful outside
    /// `Error`).
    pub satisfied: bool,
    /// Violations found across all consistent runs of this tenant's
    /// stream.
    pub violations: usize,
    /// Frames decoded intact.
    pub frames_ok: u64,
    /// Messages analyzed after reassembly.
    pub messages: u64,
    /// The tenant was evicted (idle, or the daemon shut down) before it
    /// ended its stream.
    pub evicted: bool,
    /// Sequence gaps the reassembler skipped (Theorem-3 accounting).
    pub gaps_skipped: u64,
    /// Per-analysis verdicts, in the session's selection order. Empty for
    /// plain single-LTL sessions (the top-level fields carry everything);
    /// error outcomes have none.
    pub analyses: Vec<AnalysisOutcome>,
    /// Flight-recorder dump; populated the moment the verdict leaves
    /// `Exact`, empty for exact sessions.
    pub flight: Vec<FlightEntry>,
    /// Flight entries lost to ring wraparound before the dump.
    pub flight_dropped: u64,
}

impl TenantOutcome {
    /// The one-line JSON verdict written back to the client (no trailing
    /// newline).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(128);
        out.push_str("{\"tenant\":");
        jmpax_telemetry::json::write_string(&mut out, &self.tenant);
        out.push_str(&format!(
            ",\"session\":{},\"verdict\":\"{}\"",
            self.session,
            self.verdict.label()
        ));
        if let ExactnessVerdict::Error(reason) = &self.verdict {
            out.push_str(",\"error\":");
            jmpax_telemetry::json::write_string(&mut out, reason);
        }
        out.push_str(&format!(
            ",\"satisfied\":{},\"violations\":{},\"frames_ok\":{},\"messages\":{}",
            self.satisfied, self.violations, self.frames_ok, self.messages
        ));
        if self.evicted {
            out.push_str(",\"evicted\":true");
        }
        if self.gaps_skipped > 0 {
            out.push_str(&format!(",\"gaps_skipped\":{}", self.gaps_skipped));
        }
        if !self.analyses.is_empty() {
            out.push_str(",\"analyses\":[");
            for (i, a) in self.analyses.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&a.to_json());
            }
            out.push(']');
        }
        if !self.flight.is_empty() || self.flight_dropped > 0 {
            out.push_str(&format!(
                ",\"flight_dropped\":{},\"flight\":[",
                self.flight_dropped
            ));
            for (i, entry) in self.flight.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&entry.to_json());
            }
            out.push(']');
        }
        out.push('}');
        out
    }
}

/// Everything a serving run produced, returned when the daemon stops.
#[derive(Clone, Debug, Default)]
pub struct ServeSummary {
    /// Per-tenant outcomes in completion order.
    pub outcomes: Vec<TenantOutcome>,
    /// Connections rejected before becoming sessions (over capacity or
    /// failed handshake).
    pub rejected: u64,
}

impl ServeSummary {
    /// Outcomes with an `Exact` verdict.
    #[must_use]
    pub fn exact(&self) -> usize {
        self.count(|v| matches!(v, ExactnessVerdict::Exact))
    }

    /// Outcomes with a `Degraded` verdict.
    #[must_use]
    pub fn degraded(&self) -> usize {
        self.count(|v| matches!(v, ExactnessVerdict::Degraded(_)))
    }

    /// Outcomes with an `Error` verdict.
    #[must_use]
    pub fn errors(&self) -> usize {
        self.count(|v| matches!(v, ExactnessVerdict::Error(_)))
    }

    fn count(&self, pred: impl Fn(&ExactnessVerdict) -> bool) -> usize {
        self.outcomes.iter().filter(|o| pred(&o.verdict)).count()
    }
}
