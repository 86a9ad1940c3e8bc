//! Chrome trace-event (Perfetto-compatible) JSON export.
//!
//! The output is one JSON object `{"traceEvents":[...]}` in the
//! [trace-event format]: each lane becomes a named thread track
//! (`ph:"M"` metadata), span-like records render as complete events
//! (`ph:"X"`), instants as `ph:"i"`, and two kinds of flow event pairs
//! (`ph:"s"` → `ph:"f"`) connect the tracks:
//!
//! * category `hb` — every happens-before edge derived from the vector
//!   clocks (Theorem 3);
//! * category `msg` — each message's transport hop from its `Emitted`
//!   record to its `Ingested` record downstream, so even a run whose
//!   relevant events are all concurrent (no `hb` edges) shows how
//!   messages moved through the pipeline.
//!
//! Every flow-start event carries both endpoint clocks in its `args`,
//! so Theorem 3 (`V[i] ≤ V'[i]`) can be re-verified from the JSON
//! alone — trivially for `msg` flows, whose endpoints are the same
//! message.
//!
//! [trace-event format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
//!
//! Timestamps are microseconds (fractional) since the tracer epoch, as
//! the format requires.

use std::fmt::Write as _;

use crate::json::write_string;

use crate::trace::{causal_edges, MsgRef, TraceData, TraceKind};

/// Renders `data` as Chrome trace-event JSON. See the module docs for the
/// mapping.
#[must_use]
pub fn to_chrome_json(data: &TraceData) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;

    // Process + thread name metadata: one track per lane.
    push_event(&mut out, &mut first, |out| {
        out.push_str("{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"jmpax\"}}");
    });
    for (tid, lane) in data.lanes.iter().enumerate() {
        push_event(&mut out, &mut first, |out| {
            let _ = write!(out, "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":");
            write_string(out, &lane.lane);
            out.push_str("}}");
        });
    }

    // Per-lane records.
    for (tid, lane) in data.lanes.iter().enumerate() {
        for record in &lane.events {
            let ts = micros(record.ts_ns);
            match &record.kind {
                TraceKind::Processed { thread, relevant } => {
                    let dur = micros(record.dur_ns);
                    push_event(&mut out, &mut first, |out| {
                        let _ = write!(
                            out,
                            "{{\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{ts},\"dur\":{dur},\
                             \"name\":\"process\",\"cat\":\"core\",\"args\":{{\"thread\":{thread},\
                             \"relevant\":{relevant}}}}}"
                        );
                    });
                }
                TraceKind::LevelSealed {
                    level,
                    width,
                    states,
                    pruned,
                    evals,
                    violations,
                } => {
                    let dur = micros(record.dur_ns);
                    push_event(&mut out, &mut first, |out| {
                        let _ = write!(
                            out,
                            "{{\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{ts},\"dur\":{dur},\
                             \"name\":\"level {level}\",\"cat\":\"lattice\",\"args\":{{\
                             \"level\":{level},\"width\":{width},\"states\":{states},\
                             \"pruned\":{pruned},\"evals\":{evals},\"violations\":{violations}}}}}"
                        );
                    });
                }
                TraceKind::Stage { name } => {
                    let dur = micros(record.dur_ns);
                    push_event(&mut out, &mut first, |out| {
                        let _ = write!(
                            out,
                            "{{\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{ts},\"dur\":{dur},\
                             \"name\":"
                        );
                        write_string(out, name);
                        out.push_str(",\"cat\":\"observer\"}");
                    });
                }
                TraceKind::Emitted(m) | TraceKind::Ingested(m) => {
                    let verb = if matches!(record.kind, TraceKind::Emitted(_)) {
                        "emit"
                    } else {
                        "ingest"
                    };
                    push_event(&mut out, &mut first, |out| {
                        let _ = write!(
                            out,
                            "{{\"ph\":\"i\",\"pid\":1,\"tid\":{tid},\"ts\":{ts},\"s\":\"t\",\
                             \"name\":\"{verb} T{}@{}\",\"cat\":\"wire\",\"args\":",
                            m.thread + 1,
                            m.seq
                        );
                        write_msg(out, m);
                        out.push('}');
                    });
                }
                TraceKind::CutPruned { level, count } => {
                    push_event(&mut out, &mut first, |out| {
                        let _ = write!(
                            out,
                            "{{\"ph\":\"i\",\"pid\":1,\"tid\":{tid},\"ts\":{ts},\"s\":\"t\",\
                             \"name\":\"prune\",\"cat\":\"lattice\",\"args\":{{\"level\":{level},\
                             \"count\":{count}}}}}"
                        );
                    });
                }
                TraceKind::PropertyEvaluated { level, violated } => {
                    push_event(&mut out, &mut first, |out| {
                        let _ = write!(
                            out,
                            "{{\"ph\":\"i\",\"pid\":1,\"tid\":{tid},\"ts\":{ts},\"s\":\"t\",\
                             \"name\":\"eval\",\"cat\":\"spec\",\"args\":{{\"level\":{level},\
                             \"violated\":{violated}}}}}"
                        );
                    });
                }
                TraceKind::Finding { analysis, var } => {
                    push_event(&mut out, &mut first, |out| {
                        let _ = write!(
                            out,
                            "{{\"ph\":\"i\",\"pid\":1,\"tid\":{tid},\"ts\":{ts},\"s\":\"p\",\
                             \"name\":\"{analysis} finding\",\"cat\":\"analysis\",\
                             \"args\":{{\"var\":{}}}}}",
                            var.map_or(-1i64, i64::from)
                        );
                    });
                }
                TraceKind::GapSkipped { thread, from, to } => {
                    push_event(&mut out, &mut first, |out| {
                        let _ = write!(
                            out,
                            "{{\"ph\":\"i\",\"pid\":1,\"tid\":{tid},\"ts\":{ts},\"s\":\"p\",\
                             \"name\":\"gap T{}\",\"cat\":\"resilience\",\"args\":{{\
                             \"thread\":{thread},\"from\":{from},\"to\":{to}}}}}",
                            thread + 1
                        );
                    });
                }
            }
        }
    }

    // Happens-before flow events from the vector clocks.
    let messages = data.causal_messages();
    let anchors = message_anchors(data, &messages);
    let by_key = |key: (u32, u32)| messages.iter().find(|m| (m.thread, m.seq) == key);
    let mut next_id = 0;
    for (id, edge) in causal_edges(&messages).iter().enumerate() {
        let (Some(&(from_ts, from_tid)), Some(&(to_ts, to_tid))) =
            (anchors.get(&edge.from), anchors.get(&edge.to))
        else {
            continue;
        };
        let (Some(from_msg), Some(to_msg)) = (by_key(edge.from), by_key(edge.to)) else {
            continue;
        };
        push_event(&mut out, &mut first, |out| {
            let _ = write!(
                out,
                "{{\"ph\":\"s\",\"pid\":1,\"tid\":{from_tid},\"ts\":{},\"id\":{id},\
                 \"name\":\"hb\",\"cat\":\"hb\",\"args\":{{\"from\":",
                micros(from_ts)
            );
            write_msg(out, from_msg);
            out.push_str(",\"to\":");
            write_msg(out, to_msg);
            out.push_str("}}");
        });
        push_event(&mut out, &mut first, |out| {
            let _ = write!(
                out,
                "{{\"ph\":\"f\",\"pid\":1,\"tid\":{to_tid},\"ts\":{},\"id\":{id},\
                 \"bp\":\"e\",\"name\":\"hb\",\"cat\":\"hb\"}}",
                micros(to_ts)
            );
        });
        next_id = id + 1;
    }

    // Transport flow events: each message's emit → ingest hop.
    for (emit, ingest) in transport_pairs(data) {
        let id = next_id;
        next_id += 1;
        let name = format!("msg T{}@{}", emit.msg.thread + 1, emit.msg.seq);
        push_event(&mut out, &mut first, |out| {
            let _ = write!(
                out,
                "{{\"ph\":\"s\",\"pid\":1,\"tid\":{},\"ts\":{},\"id\":{id},\
                 \"name\":\"{name}\",\"cat\":\"msg\",\"args\":{{\"from\":",
                emit.tid,
                micros(emit.ts_ns)
            );
            write_msg(out, emit.msg);
            out.push_str(",\"to\":");
            write_msg(out, ingest.msg);
            out.push_str("}}");
        });
        push_event(&mut out, &mut first, |out| {
            let _ = write!(
                out,
                "{{\"ph\":\"f\",\"pid\":1,\"tid\":{},\"ts\":{},\"id\":{id},\
                 \"bp\":\"e\",\"name\":\"{name}\",\"cat\":\"msg\"}}",
                ingest.tid,
                micros(ingest.ts_ns)
            );
        });
    }

    out.push_str("]}");
    out
}

/// One endpoint of a transport flow: where (and when) a message record sits.
struct FlowAnchor<'a> {
    ts_ns: u64,
    tid: usize,
    msg: &'a MsgRef,
}

/// The `(emit, ingest)` anchor pairs rendered as `msg` flow events: for
/// each `(thread, seq)` key recorded both as `Emitted` and as `Ingested`,
/// the earliest record of each kind.
fn transport_pairs(data: &TraceData) -> Vec<(FlowAnchor<'_>, FlowAnchor<'_>)> {
    use std::collections::BTreeMap;
    let mut emits: BTreeMap<(u32, u32), FlowAnchor<'_>> = BTreeMap::new();
    let mut ingests: BTreeMap<(u32, u32), FlowAnchor<'_>> = BTreeMap::new();
    for (tid, lane) in data.lanes.iter().enumerate() {
        for record in &lane.events {
            let (map, m) = match &record.kind {
                TraceKind::Emitted(m) => (&mut emits, m),
                TraceKind::Ingested(m) => (&mut ingests, m),
                _ => continue,
            };
            let anchor = FlowAnchor {
                ts_ns: record.ts_ns,
                tid,
                msg: m,
            };
            match map.entry((m.thread, m.seq)) {
                std::collections::btree_map::Entry::Vacant(slot) => {
                    slot.insert(anchor);
                }
                std::collections::btree_map::Entry::Occupied(mut slot) => {
                    if anchor.ts_ns < slot.get().ts_ns {
                        slot.insert(anchor);
                    }
                }
            }
        }
    }
    emits
        .into_iter()
        .filter_map(|(key, emit)| ingests.remove(&key).map(|ingest| (emit, ingest)))
        .collect()
}

/// How many `msg` (emit → ingest) flow events [`to_chrome_json`] will
/// render for `data` — one per message recorded on both sides of the wire.
#[must_use]
pub fn transport_flow_count(data: &TraceData) -> usize {
    transport_pairs(data).len()
}

/// Microseconds with nanosecond precision, as trace-event `ts` wants.
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

fn push_event(out: &mut String, first: &mut bool, f: impl FnOnce(&mut String)) {
    if !*first {
        out.push(',');
    }
    *first = false;
    f(out);
}

/// `(ts_ns, tid)` of the trace record anchoring each message key, matching
/// the record set `messages` was drawn from (ingested when any exist).
fn message_anchors(
    data: &TraceData,
    messages: &[&MsgRef],
) -> std::collections::BTreeMap<(u32, u32), (u64, usize)> {
    let want_ingested = data
        .lanes
        .iter()
        .flat_map(|l| l.events.iter())
        .any(|r| matches!(r.kind, TraceKind::Ingested(_)));
    let keys: std::collections::BTreeSet<(u32, u32)> =
        messages.iter().map(|m| (m.thread, m.seq)).collect();
    let mut anchors = std::collections::BTreeMap::new();
    for (tid, lane) in data.lanes.iter().enumerate() {
        for record in &lane.events {
            let m = match (&record.kind, want_ingested) {
                (TraceKind::Ingested(m), true) | (TraceKind::Emitted(m), false) => m,
                _ => continue,
            };
            let key = (m.thread, m.seq);
            if keys.contains(&key) {
                anchors.entry(key).or_insert((record.ts_ns, tid));
            }
        }
    }
    anchors
}

fn write_msg(out: &mut String, m: &MsgRef) {
    let _ = write!(
        out,
        "{{\"thread\":{},\"seq\":{},\"clock\":[",
        m.thread, m.seq
    );
    for (i, c) in m.clock.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{c}");
    }
    out.push(']');
    if let Some(var) = m.var {
        let _ = write!(out, ",\"var\":{var}");
    }
    if let Some(value) = m.value {
        let _ = write!(out, ",\"value\":{value}");
    }
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::trace::{TraceKind, Tracer};

    fn msg(thread: u32, seq: u32, clock: &[u32]) -> MsgRef {
        MsgRef {
            thread,
            seq,
            clock: clock.to_vec(),
            var: Some(0),
            value: Some(i64::from(seq)),
        }
    }

    fn sample_data() -> TraceData {
        let t = Tracer::enabled();
        let mut t1 = t.ring("T1");
        let mut t2 = t.ring("T2");
        let mut obs = t.ring("observer");
        t1.record(TraceKind::Emitted(msg(0, 1, &[1, 0])));
        t1.record(TraceKind::Emitted(msg(0, 2, &[2, 0])));
        t2.record(TraceKind::Emitted(msg(1, 1, &[1, 1])));
        obs.record(TraceKind::Ingested(msg(0, 1, &[1, 0])));
        obs.record(TraceKind::Ingested(msg(0, 2, &[2, 0])));
        obs.record(TraceKind::Ingested(msg(1, 1, &[1, 1])));
        obs.record(TraceKind::LevelSealed {
            level: 1,
            width: 2,
            states: 2,
            pruned: 0,
            evals: 2,
            violations: 0,
        });
        drop(t1);
        drop(t2);
        drop(obs);
        t.collect()
    }

    #[test]
    fn chrome_json_parses_and_has_flow_events() {
        let text = to_chrome_json(&sample_data());
        let value = json::parse(&text).expect("chrome JSON must parse");
        let events = value
            .get("traceEvents")
            .and_then(json::Value::as_array)
            .expect("traceEvents array");
        let phase = |e: &json::Value| {
            e.get("ph")
                .and_then(json::Value::as_str)
                .unwrap_or_default()
                .to_string()
        };
        assert!(events.iter().any(|e| phase(e) == "M"));
        assert!(events.iter().any(|e| phase(e) == "X"));
        let starts: Vec<_> = events.iter().filter(|e| phase(e) == "s").collect();
        let finishes: Vec<_> = events.iter().filter(|e| phase(e) == "f").collect();
        assert!(!starts.is_empty(), "expected flow events in {text}");
        assert_eq!(starts.len(), finishes.len());
    }

    /// The acceptance property: every rendered flow edge `m → m'`
    /// satisfies Theorem 3, checked from the JSON alone.
    #[test]
    fn flow_events_respect_theorem3() {
        let text = to_chrome_json(&sample_data());
        let value = json::parse(&text).expect("chrome JSON must parse");
        let events = value
            .get("traceEvents")
            .and_then(json::Value::as_array)
            .unwrap();
        let mut checked = 0;
        for e in events {
            if e.get("ph").and_then(json::Value::as_str) != Some("s") {
                continue;
            }
            let args = e.get("args").expect("flow start args");
            let endpoint = |which: &str| {
                let m = args.get(which).expect("endpoint");
                let thread = m.get("thread").and_then(json::Value::as_u64).unwrap();
                let clock: Vec<u64> = m
                    .get("clock")
                    .and_then(json::Value::as_array)
                    .unwrap()
                    .iter()
                    .map(|v| v.as_u64().unwrap())
                    .collect();
                (thread as usize, clock)
            };
            let (from_thread, from_clock) = endpoint("from");
            let (_, to_clock) = endpoint("to");
            assert!(
                from_clock[from_thread] <= to_clock[from_thread],
                "flow edge violates Theorem 3 in {text}"
            );
            checked += 1;
        }
        assert!(checked >= 1, "no flow edges checked");
    }
}
