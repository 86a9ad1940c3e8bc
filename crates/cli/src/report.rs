//! One place where every CLI report is rendered.
//!
//! The `--telemetry` stderr report, the `jmpax chaos` transport/reassembly
//! summary and the `jmpax trace` status document all funnel through this
//! module, and every JSON the CLI produces is emitted with the same
//! escaping rules (`jmpax_telemetry::json::write_string`) the telemetry
//! snapshot itself uses — no ad-hoc string formatting of JSON anywhere in
//! the command layer.

use std::fmt::Write as _;

use jmpax_core::SymbolTable;
use jmpax_instrument::{ChaosStats, ResilientDecode};
use jmpax_lattice::{AnalysisReport, Exactness, ReassemblyReport, SuiteReport};
use jmpax_observer::{render_analysis, render_state, ServeSummary};
use jmpax_telemetry::json::write_string;
use jmpax_telemetry::profile::LevelProfile;
use jmpax_telemetry::trace::TraceData;
use jmpax_telemetry::Snapshot;

use crate::commands::TelemetryMode;

/// Renders the `--telemetry` report in the requested mode. The JSON form
/// is a single object with a top-level `"metrics"` key — consumed by CI
/// and external dashboards, so its shape is load-bearing.
#[must_use]
pub fn render_telemetry(snapshot: &Snapshot, mode: TelemetryMode) -> String {
    match mode {
        TelemetryMode::Text => snapshot.to_text(),
        TelemetryMode::Json => snapshot.to_json(),
    }
}

/// The `jmpax chaos` stdout accounting block: what the fault injector did,
/// what the transport recovered, what the reassembler gave up on, and the
/// verdict's exactness. Line shapes are asserted by integration tests —
/// change them there first.
#[must_use]
pub fn chaos_summary(
    stats: &ChaosStats,
    decoded: &ResilientDecode,
    reassembly: &ReassemblyReport,
    exactness: Exactness,
) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "injected: {} frames emitted, {} dropped, {} duplicated, {} corrupted, {} reordered",
        stats.emitted, stats.dropped, stats.duplicated, stats.corrupted, stats.reordered
    );
    let _ = writeln!(
        out,
        "transport: {} frames ok, {} corrupt, {} resynced, {} bytes skipped",
        decoded.frames_ok, decoded.frames_corrupt, decoded.frames_resynced, decoded.bytes_skipped
    );
    let _ = writeln!(
        out,
        "reassembly: {} received, {} delivered, {} reordered, {} duplicates, {} gaps skipped ({} messages lost)",
        reassembly.received,
        reassembly.delivered,
        reassembly.reordered,
        reassembly.duplicates,
        reassembly.skipped_gaps(),
        reassembly.messages_lost()
    );
    let _ = writeln!(out, "verdict: {exactness}");
    out
}

/// The `jmpax serve --json` shutdown report: one object under a top-level
/// `"serve"` key, embedding each tenant's verdict exactly as it was
/// written to that tenant's socket ([`jmpax_observer::TenantOutcome::to_json`]).
/// Consumed by the CI chaos-load gate — its shape is load-bearing.
#[must_use]
pub fn serve_report_json(summary: &ServeSummary) -> String {
    let mut out = String::with_capacity(128 + summary.outcomes.len() * 128);
    let _ = write!(
        out,
        "{{\"serve\":{{\"sessions\":{},\"exact\":{},\"degraded\":{},\"errors\":{},\"rejected\":{},\"outcomes\":[",
        summary.outcomes.len(),
        summary.exact(),
        summary.degraded(),
        summary.errors(),
        summary.rejected
    );
    for (i, outcome) in summary.outcomes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&outcome.to_json());
    }
    out.push_str("]}}");
    out
}

/// The human-readable `jmpax serve` shutdown report: a totals line plus
/// one verdict line per session, in completion order.
#[must_use]
pub fn serve_summary_text(summary: &ServeSummary) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "serve: {} sessions ({} exact, {} degraded, {} errors), {} rejected",
        summary.outcomes.len(),
        summary.exact(),
        summary.degraded(),
        summary.errors(),
        summary.rejected
    );
    for outcome in &summary.outcomes {
        let _ = writeln!(out, "  {}", outcome.to_json());
    }
    out
}

fn access_label(is_write: bool) -> &'static str {
    if is_write {
        "write"
    } else {
        "read"
    }
}

/// The ptLTL report of `jmpax check` with ltl alone and of `jmpax chaos`:
/// the lattice summary with counterexamples, then what the observed run
/// shows — its own violation (`observed`, the index of its first
/// violating state), or that the violation is a prediction.
#[must_use]
pub fn ltl_text(suite: &SuiteReport, observed: Option<usize>, symbols: &SymbolTable) -> String {
    let mut out = suite
        .reports
        .iter()
        .find_map(AnalysisReport::as_ltl)
        .map(|ltl| render_analysis(ltl, symbols))
        .unwrap_or_default();
    if let Some(idx) = observed {
        let _ = writeln!(out, "the OBSERVED run violates at state #{idx}");
    } else if !suite.satisfied() {
        let _ = writeln!(
            out,
            "the observed run was successful — the violation is PREDICTED"
        );
    }
    out
}

/// The human-readable `jmpax check --analysis …` report: one section per
/// analysis in selection order, each with its verdict line and findings,
/// then a shared confidence line when the pass was degraded.
#[must_use]
pub fn check_suite_text(suite: &SuiteReport, symbols: &SymbolTable) -> String {
    let mut out = String::new();
    for report in &suite.reports {
        match report {
            AnalysisReport::Ltl(ltl) => {
                let _ = writeln!(
                    out,
                    "ltl: {} states in {} levels",
                    ltl.states_explored,
                    ltl.levels()
                );
                if ltl.satisfied() {
                    let _ = writeln!(out, "  property satisfied on every run");
                }
                for v in &ltl.violations {
                    let _ = writeln!(
                        out,
                        "  violation at cut {} in state {}",
                        v.cut,
                        render_state(&v.state, symbols)
                    );
                }
            }
            AnalysisReport::Race(race) => {
                let _ = writeln!(
                    out,
                    "race: {} races found ({} accesses checked, {} lock transfers)",
                    race.races_found, race.accesses_checked, race.sync_transfers
                );
                for f in &race.findings {
                    let _ = writeln!(
                        out,
                        "  race on {}: T{} {} #{} vs T{} {} #{}",
                        symbols.name_or_default(f.var),
                        f.first.thread.0,
                        access_label(f.first.is_write),
                        f.first.index,
                        f.second.thread.0,
                        access_label(f.second.is_write),
                        f.second.index,
                    );
                }
            }
            AnalysisReport::Atomicity(atom) => {
                let _ = writeln!(
                    out,
                    "atomicity: {} violations found ({} transactions, {} accesses checked)",
                    atom.violations_found, atom.transactions, atom.accesses_checked
                );
                for f in &atom.findings {
                    let _ = writeln!(
                        out,
                        "  non-atomic on {}: T{} block #{}..#{} interleaved by T{} at #{}",
                        symbols.name_or_default(f.var),
                        f.thread.0,
                        f.first,
                        f.second,
                        f.other.0,
                        f.interleaved,
                    );
                }
            }
        }
    }
    let exactness = suite.exactness();
    if !exactness.is_exact() {
        let _ = writeln!(out, "confidence: {exactness}");
    }
    let _ = writeln!(
        out,
        "verdict: {}",
        if suite.satisfied() {
            "satisfied"
        } else {
            "predicted"
        }
    );
    out
}

/// The `jmpax check --analysis … --json` report: one object under a
/// top-level `"check"` key with a per-analysis `"analyses"` array in
/// selection order. Consumed by the CI analysis-matrix gate — its shape
/// is load-bearing.
#[must_use]
pub fn check_report_json(suite: &SuiteReport, symbols: &SymbolTable) -> String {
    let mut out = String::with_capacity(256);
    let _ = write!(
        out,
        "{{\"check\":{{\"satisfied\":{},\"exactness\":",
        suite.satisfied()
    );
    write_string(&mut out, &suite.exactness().to_string());
    out.push_str(",\"analyses\":[");
    for (i, report) in suite.reports.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        write_string(&mut out, report.kind().name());
        let _ = write!(
            out,
            ",\"satisfied\":{},\"findings\":{},\"exactness\":",
            report.satisfied(),
            report.findings()
        );
        write_string(&mut out, &report.exactness().to_string());
        match report {
            AnalysisReport::Ltl(ltl) => {
                let _ = write!(
                    out,
                    ",\"states_explored\":{},\"levels\":{},\"violations\":{}",
                    ltl.states_explored,
                    ltl.levels(),
                    ltl.violations.len()
                );
            }
            AnalysisReport::Race(race) => {
                let _ = write!(
                    out,
                    ",\"accesses_checked\":{},\"sync_transfers\":{},\"races\":[",
                    race.accesses_checked, race.sync_transfers
                );
                for (j, f) in race.findings.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    out.push_str("{\"var\":");
                    write_string(&mut out, &symbols.name_or_default(f.var));
                    let _ = write!(
                        out,
                        ",\"first\":{{\"thread\":{},\"index\":{},\"write\":{}}},\
                         \"second\":{{\"thread\":{},\"index\":{},\"write\":{}}}}}",
                        f.first.thread.0,
                        f.first.index,
                        f.first.is_write,
                        f.second.thread.0,
                        f.second.index,
                        f.second.is_write,
                    );
                }
                out.push(']');
            }
            AnalysisReport::Atomicity(atom) => {
                let _ = write!(
                    out,
                    ",\"transactions\":{},\"accesses_checked\":{},\"violations\":[",
                    atom.transactions, atom.accesses_checked
                );
                for (j, f) in atom.findings.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    out.push_str("{\"var\":");
                    write_string(&mut out, &symbols.name_or_default(f.var));
                    let _ = write!(
                        out,
                        ",\"thread\":{},\"other\":{},\"first\":{},\"interleaved\":{},\"second\":{}}}",
                        f.thread.0, f.other.0, f.first, f.interleaved, f.second
                    );
                }
                out.push(']');
            }
        }
        out.push('}');
    }
    out.push_str("]}}");
    out
}

/// The `/trace` endpoint / `jmpax trace` status document: per-lane event
/// counts and drops, total flow edges (happens-before plus transport,
/// matching the Chrome export), and the per-level lattice profile.
#[must_use]
pub fn trace_status_json(workload: &str, data: &TraceData, profile: &[LevelProfile]) -> String {
    let mut out = String::new();
    out.push_str("{\"workload\":");
    write_string(&mut out, workload);
    let _ = write!(out, ",\"events\":{}", data.len());
    let hb = jmpax_telemetry::trace::causal_edges(&data.causal_messages()).len();
    let transport = jmpax_telemetry::chrome::transport_flow_count(data);
    let _ = write!(out, ",\"hb_edges\":{hb}");
    let _ = write!(out, ",\"flow_edges\":{}", hb + transport);
    out.push_str(",\"lanes\":[");
    for (i, lane) in data.lanes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"lane\":");
        write_string(&mut out, &lane.lane);
        let _ = write!(
            out,
            ",\"events\":{},\"dropped\":{}}}",
            lane.events.len(),
            lane.dropped
        );
    }
    out.push_str("],\"levels\":[");
    for (i, l) in profile.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"level\":{},\"width\":{},\"states\":{},\"pruned\":{},\"evals\":{},\"violations\":{},\"wall_ns\":{}}}",
            l.level, l.width, l.states, l.pruned, l.evals, l.violations, l.wall_ns
        );
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_status_is_valid_json_and_escapes_names() {
        let t = jmpax_telemetry::trace::Tracer::enabled();
        let mut ring = t.ring("lane \"odd\"");
        ring.record(jmpax_telemetry::trace::TraceKind::Stage { name: "x" });
        ring.seal();
        let data = t.collect();
        let json = trace_status_json("bank\n", &data, &[]);
        let v = jmpax_telemetry::json::parse(&json).expect("valid JSON");
        assert_eq!(v.get("workload").and_then(|w| w.as_str()), Some("bank\n"));
        assert_eq!(v.get("events").and_then(|e| e.as_u64()), Some(1));
        let lanes = v.get("lanes").and_then(|l| l.as_array()).unwrap();
        assert_eq!(
            lanes[0].get("lane").and_then(|l| l.as_str()),
            Some("lane \"odd\"")
        );
    }

    #[test]
    fn serve_report_json_shape_and_escaping() {
        use jmpax_observer::{ExactnessVerdict, TenantOutcome};
        let summary = ServeSummary {
            outcomes: vec![
                TenantOutcome {
                    tenant: "ok-tenant".to_string(),
                    session: 0,
                    verdict: ExactnessVerdict::Exact,
                    satisfied: true,
                    violations: 0,
                    frames_ok: 12,
                    messages: 12,
                    evicted: false,
                    gaps_skipped: 0,
                    analyses: Vec::new(),
                    flight: Vec::new(),
                    flight_dropped: 0,
                },
                TenantOutcome {
                    tenant: "weird \"name\"".to_string(),
                    session: 1,
                    verdict: ExactnessVerdict::Error("worker died".to_string()),
                    satisfied: false,
                    violations: 0,
                    frames_ok: 3,
                    messages: 0,
                    evicted: true,
                    gaps_skipped: 0,
                    analyses: Vec::new(),
                    flight: Vec::new(),
                    flight_dropped: 0,
                },
            ],
            rejected: 4,
        };
        let json = serve_report_json(&summary);
        let v = jmpax_telemetry::json::parse(&json).expect("valid JSON");
        let serve = v.get("serve").expect("serve key");
        assert_eq!(serve.get("sessions").and_then(|n| n.as_u64()), Some(2));
        assert_eq!(serve.get("exact").and_then(|n| n.as_u64()), Some(1));
        assert_eq!(serve.get("errors").and_then(|n| n.as_u64()), Some(1));
        assert_eq!(serve.get("rejected").and_then(|n| n.as_u64()), Some(4));
        let outcomes = serve.get("outcomes").and_then(|o| o.as_array()).unwrap();
        assert_eq!(outcomes.len(), 2);
        assert_eq!(
            outcomes[1].get("tenant").and_then(|t| t.as_str()),
            Some("weird \"name\"")
        );
        assert_eq!(
            outcomes[1].get("error").and_then(|e| e.as_str()),
            Some("worker died")
        );

        let text = serve_summary_text(&summary);
        assert!(
            text.contains("2 sessions (1 exact, 0 degraded, 1 errors), 4 rejected"),
            "{text}"
        );
        assert!(text.contains("\"verdict\":\"Exact\""), "{text}");
    }

    #[test]
    fn chaos_summary_line_shapes() {
        let stats = ChaosStats {
            emitted: 5,
            dropped: 1,
            duplicated: 0,
            corrupted: 1,
            reordered: 2,
        };
        let decoded = ResilientDecode {
            frames_ok: 4,
            frames_corrupt: 1,
            frames_resynced: 0,
            bytes_skipped: 12,
            truncated: false,
        };
        let out = chaos_summary(
            &stats,
            &decoded,
            &ReassemblyReport::default(),
            Exactness::Exact,
        );
        assert!(
            out.contains("injected: 5 frames emitted, 1 dropped"),
            "{out}"
        );
        assert!(out.contains("transport: 4 frames ok, 1 corrupt"), "{out}");
        assert!(out.contains("verdict: Exact"), "{out}");
    }
}
