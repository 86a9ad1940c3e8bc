//! Graphviz (DOT) export of the causal DAG.
//!
//! Renders the happens-before partial order among traced messages in the
//! same visual dialect as `jmpax_lattice`'s lattice export (`rankdir=TB`,
//! monospace boxes, `rank=same` layers): one node per message `⟨e,i,V_i⟩`
//! labeled with its thread, sequence number, clock and (when present) the
//! write it carries; one edge per immediate happens-before relation from
//! [`crate::trace::causal_edges`]. Layers group messages by clock level
//! (the sum of the clock entries), so the drawing reads top-to-bottom in
//! causal order. Pipe through `dot -Tsvg` to visualize.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::trace::{causal_edges, TraceData};

/// Renders the causal DAG of `data`'s messages as a DOT digraph.
/// `var_name` maps variable ids to display names (mirror of the lattice
/// exporter's symbol table).
#[must_use]
pub fn to_causal_dot(data: &TraceData, var_name: impl Fn(u32) -> String) -> String {
    let messages = data.causal_messages();
    let mut out = String::new();
    out.push_str("digraph causal {\n");
    out.push_str("  rankdir=TB;\n  node [shape=box, fontname=\"monospace\"];\n");

    // One node per message, keyed (thread, seq), layered by clock level.
    let mut levels: BTreeMap<u32, Vec<String>> = BTreeMap::new();
    for m in &messages {
        let id = node_id(m.thread, m.seq);
        let mut label = format!("T{}@{}\\nV=[", m.thread + 1, m.seq);
        for (i, c) in m.clock.iter().enumerate() {
            if i > 0 {
                label.push(',');
            }
            let _ = write!(label, "{c}");
        }
        label.push(']');
        if let (Some(var), Some(value)) = (m.var, m.value) {
            let _ = write!(label, "\\n{}={}", var_name(var), value);
        }
        let _ = writeln!(out, "  {id} [label=\"{label}\"];");
        levels
            .entry(m.clock.iter().sum::<u32>())
            .or_default()
            .push(id);
    }

    // Rank nodes by causal level so the drawing is layered like the
    // lattice figures.
    for ids in levels.values() {
        out.push_str("  { rank=same;");
        for id in ids {
            let _ = write!(out, " {id};");
        }
        out.push_str(" }\n");
    }

    for edge in causal_edges(&messages) {
        let _ = writeln!(
            out,
            "  {} -> {};",
            node_id(edge.from.0, edge.from.1),
            node_id(edge.to.0, edge.to.1)
        );
    }
    out.push_str("}\n");
    out
}

fn node_id(thread: u32, seq: u32) -> String {
    format!("m{thread}_{seq}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::MsgRef;
    use crate::trace::{TraceKind, Tracer};

    #[test]
    fn dot_renders_nodes_layers_and_edges() {
        let t = Tracer::enabled();
        let mut ring = t.ring("wire");
        for (thread, seq, clock, var, value) in [
            (0u32, 1u32, vec![1, 0], Some(0u32), Some(1i64)),
            (0, 2, vec![2, 0], Some(0), Some(2)),
            (1, 1, vec![1, 1], Some(1), Some(7)),
        ] {
            ring.record(TraceKind::Emitted(MsgRef {
                thread,
                seq,
                clock,
                var,
                value,
            }));
        }
        ring.seal();
        let dot = to_causal_dot(&t.collect(), |v| format!("v{v}"));
        assert!(dot.starts_with("digraph causal {"));
        assert!(dot.contains("rankdir=TB"));
        assert!(dot.contains("rank=same"));
        assert!(dot.contains("T1@1"));
        assert!(dot.contains("v0=1"));
        assert!(dot.contains("m0_1 -> m0_2;"));
        assert!(dot.contains("m0_1 -> m1_1;"), "{dot}");
        // (0,1)→(0,2) same-thread and (0,1)→(1,1) cross-thread.
        assert_eq!(dot.matches(" -> ").count(), 2);
    }

    #[test]
    fn empty_trace_renders_empty_graph() {
        let dot = to_causal_dot(&TraceData::default(), |v| format!("v{v}"));
        assert!(dot.starts_with("digraph causal {"));
        assert!(!dot.contains(" -> "));
    }
}
