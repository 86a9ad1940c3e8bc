//! Live per-tenant status for the `/tenants` route and `jmpax top`.
//!
//! The daemon keeps a [`TenantTable`] — active sessions keyed by session
//! number plus a bounded ring of recently completed ones — that session
//! threads update at each transition. [`ServeObservability`] bundles the
//! table with the daemon's lifecycle state so the metrics endpoint can
//! rebuild `/tenants` and `/healthz` per request without touching the
//! accept loop.

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use jmpax_telemetry::json;

use super::TenantOutcome;

/// Completed sessions retained for `/tenants` after their threads exit.
pub const DEFAULT_COMPLETED_CAPACITY: usize = 256;

/// One tenant session as the status endpoint sees it.
#[derive(Clone, Debug)]
pub struct TenantStatus {
    /// Tenant name from the handshake.
    pub tenant: String,
    /// Daemon-assigned session number.
    pub session: u64,
    /// `"running"` while live, `"done"` once completed.
    pub state: String,
    /// Final verdict label once completed.
    pub verdict: Option<String>,
    /// Frames decoded intact (final; 0 while running — the decoder's
    /// totals are published at completion).
    pub frames_ok: u64,
    /// Messages analyzed after reassembly (final).
    pub messages: u64,
    /// Raw bytes ingested so far (live).
    pub bytes: u64,
    /// Sequence gaps skipped (final).
    pub gaps_skipped: u64,
    /// Violations found (final).
    pub violations: usize,
    /// Evicted for idleness.
    pub evicted: bool,
    /// When the session started.
    pub started: Instant,
    /// Name of the most recent lifecycle transition.
    pub last_transition: String,
    /// When that transition happened.
    pub last_transition_at: Instant,
}

impl TenantStatus {
    fn new(tenant: &str, session: u64) -> Self {
        let now = Instant::now();
        Self {
            tenant: tenant.to_string(),
            session,
            state: "running".to_string(),
            verdict: None,
            frames_ok: 0,
            messages: 0,
            bytes: 0,
            gaps_skipped: 0,
            violations: 0,
            evicted: false,
            started: now,
            last_transition: "accepted".to_string(),
            last_transition_at: now,
        }
    }

    fn write_json(&self, out: &mut String, now: Instant) {
        let age_ms = now.duration_since(self.started).as_millis() as u64;
        let since_transition_ms = now.duration_since(self.last_transition_at).as_millis() as u64;
        let secs = (age_ms as f64 / 1000.0).max(1e-3);
        let bytes_per_sec = (self.bytes as f64 / secs) as u64;
        out.push_str("{\"tenant\":");
        json::write_string(out, &self.tenant);
        let _ = write!(
            out,
            ",\"session\":{},\"state\":\"{}\"",
            self.session, self.state
        );
        if let Some(verdict) = &self.verdict {
            out.push_str(",\"verdict\":");
            json::write_string(out, verdict);
        }
        let _ = write!(
            out,
            ",\"frames_ok\":{},\"messages\":{},\"bytes\":{},\"bytes_per_sec\":{},\
             \"gaps_skipped\":{},\"violations\":{},\"evicted\":{},\
             \"age_ms\":{},\"last_transition\":",
            self.frames_ok,
            self.messages,
            self.bytes,
            bytes_per_sec,
            self.gaps_skipped,
            self.violations,
            self.evicted,
            age_ms,
        );
        json::write_string(out, &self.last_transition);
        let _ = write!(out, ",\"since_transition_ms\":{since_transition_ms}}}");
    }
}

struct TableInner {
    active: BTreeMap<u64, TenantStatus>,
    completed: VecDeque<TenantStatus>,
    completed_cap: usize,
}

/// Shared, cloneable status table.
#[derive(Clone)]
pub struct TenantTable(Arc<Mutex<TableInner>>);

impl Default for TenantTable {
    fn default() -> Self {
        Self::new(DEFAULT_COMPLETED_CAPACITY)
    }
}

impl std::fmt::Debug for TenantTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.0.lock().unwrap_or_else(|e| e.into_inner());
        write!(
            f,
            "TenantTable({} active, {} completed)",
            inner.active.len(),
            inner.completed.len()
        )
    }
}

impl TenantTable {
    /// A table retaining at most `completed_cap` finished sessions.
    #[must_use]
    pub fn new(completed_cap: usize) -> Self {
        Self(Arc::new(Mutex::new(TableInner {
            active: BTreeMap::new(),
            completed: VecDeque::new(),
            completed_cap: completed_cap.max(1),
        })))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, TableInner> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Registers a session as live (post-handshake, when the tenant name
    /// is known).
    pub fn insert_active(&self, tenant: &str, session: u64) {
        self.lock()
            .active
            .insert(session, TenantStatus::new(tenant, session));
    }

    /// Records a lifecycle transition on a live session.
    pub fn transition(&self, session: u64, state: &str) {
        if let Some(status) = self.lock().active.get_mut(&session) {
            status.last_transition = state.to_string();
            status.last_transition_at = Instant::now();
        }
    }

    /// Applies live counter updates (bytes ingested) to a session.
    pub fn update(&self, session: u64, f: impl FnOnce(&mut TenantStatus)) {
        if let Some(status) = self.lock().active.get_mut(&session) {
            f(status);
        }
    }

    /// Moves a session to the completed ring, filling its final fields
    /// from the outcome.
    pub fn complete(&self, outcome: &TenantOutcome) {
        let mut inner = self.lock();
        let mut status = inner
            .active
            .remove(&outcome.session)
            .unwrap_or_else(|| TenantStatus::new(&outcome.tenant, outcome.session));
        status.state = "done".to_string();
        status.verdict = Some(outcome.verdict.label().to_string());
        status.frames_ok = outcome.frames_ok;
        status.messages = outcome.messages;
        status.gaps_skipped = outcome.gaps_skipped;
        status.violations = outcome.violations;
        status.evicted = outcome.evicted;
        status.last_transition = format!("verdict_{}", outcome.verdict.label().to_lowercase());
        status.last_transition_at = Instant::now();
        if inner.completed.len() == inner.completed_cap {
            inner.completed.pop_front();
        }
        inner.completed.push_back(status);
    }

    /// Snapshot of `(active, completed)` statuses, each in session order
    /// (completed in completion order).
    #[must_use]
    pub fn statuses(&self) -> (Vec<TenantStatus>, Vec<TenantStatus>) {
        let inner = self.lock();
        (
            inner.active.values().cloned().collect(),
            inner.completed.iter().cloned().collect(),
        )
    }

    /// The `/tenants` JSON document: active sessions first, then recently
    /// completed ones.
    #[must_use]
    pub fn to_json(&self) -> String {
        let (active, completed) = self.statuses();
        let now = Instant::now();
        let mut out = String::with_capacity(64 + (active.len() + completed.len()) * 160);
        let _ = write!(
            out,
            "{{\"active\":{},\"completed\":{},\"tenants\":[",
            active.len(),
            completed.len()
        );
        for (i, status) in active.iter().chain(completed.iter()).enumerate() {
            if i > 0 {
                out.push(',');
            }
            status.write_json(&mut out, now);
        }
        out.push_str("]}");
        out
    }
}

/// A cloneable handle over the daemon's live state, for wiring status
/// routes into a metrics server without touching the accept loop.
#[derive(Clone, Debug)]
pub struct ServeObservability {
    pub(super) tenants: TenantTable,
    pub(super) stopping: Arc<AtomicBool>,
    pub(super) active: Arc<AtomicUsize>,
    pub(super) started: Instant,
}

impl ServeObservability {
    /// The live tenant table.
    #[must_use]
    pub fn tenants(&self) -> &TenantTable {
        &self.tenants
    }

    /// The `/tenants` JSON document.
    #[must_use]
    pub fn tenants_json(&self) -> String {
        self.tenants.to_json()
    }

    /// Sessions currently being served.
    #[must_use]
    pub fn active_sessions(&self) -> usize {
        self.active.load(Ordering::Relaxed)
    }

    /// False once shutdown has begun.
    #[must_use]
    pub fn accepting(&self) -> bool {
        !self.stopping.load(Ordering::Relaxed)
    }

    /// The `/healthz` response: `(200, body)` while accepting, `(503,
    /// body)` once shutdown begins. The body reports readiness either
    /// way:
    /// `{"ready":true,"accepting":true,"active_sessions":2,"uptime_s":41}`.
    #[must_use]
    pub fn healthz(&self) -> (u16, String) {
        let accepting = self.accepting();
        let body = format!(
            "{{\"ready\":{accepting},\"accepting\":{accepting},\"active_sessions\":{},\"uptime_s\":{}}}",
            self.active_sessions(),
            self.started.elapsed().as_secs()
        );
        (if accepting { 200 } else { 503 }, body)
    }
}

#[cfg(test)]
mod tests {
    use super::super::{ExactnessVerdict, TenantOutcome};
    use super::*;

    fn outcome(session: u64, tenant: &str) -> TenantOutcome {
        TenantOutcome {
            tenant: tenant.to_string(),
            session,
            verdict: ExactnessVerdict::Exact,
            satisfied: true,
            violations: 0,
            frames_ok: 10,
            messages: 9,
            evicted: false,
            gaps_skipped: 0,
            analyses: Vec::new(),
            flight: Vec::new(),
            flight_dropped: 0,
        }
    }

    #[test]
    fn table_tracks_lifecycle_and_renders_json() {
        let table = TenantTable::new(4);
        table.insert_active("t1", 0);
        table.update(0, |s| s.bytes += 4096);
        table.transition(0, "streaming");
        table.insert_active("t2", 1);
        table.complete(&outcome(1, "t2"));

        let (active, completed) = table.statuses();
        assert_eq!(active.len(), 1);
        assert_eq!(completed.len(), 1);
        assert_eq!(active[0].last_transition, "streaming");
        assert_eq!(completed[0].verdict.as_deref(), Some("Exact"));

        let parsed = json::parse(&table.to_json()).expect("tenants JSON must parse");
        assert_eq!(parsed.get("active").and_then(json::Value::as_u64), Some(1));
        assert_eq!(
            parsed.get("completed").and_then(json::Value::as_u64),
            Some(1)
        );
        let tenants = parsed.get("tenants").expect("tenants array");
        assert_eq!(
            tenants
                .index(0)
                .and_then(|t| t.get("tenant"))
                .and_then(json::Value::as_str),
            Some("t1")
        );
        assert_eq!(
            tenants
                .index(0)
                .and_then(|t| t.get("bytes"))
                .and_then(json::Value::as_u64),
            Some(4096)
        );
        assert_eq!(
            tenants
                .index(1)
                .and_then(|t| t.get("verdict"))
                .and_then(json::Value::as_str),
            Some("Exact")
        );
    }

    #[test]
    fn completed_ring_is_bounded() {
        let table = TenantTable::new(2);
        for session in 0..5 {
            table.insert_active("t", session);
            table.complete(&outcome(session, "t"));
        }
        let (_, completed) = table.statuses();
        assert_eq!(completed.len(), 2);
        assert_eq!(completed[0].session, 3, "oldest completions evicted");
    }
}
