//! Graphviz (DOT) export of computation lattices.
//!
//! Renders the lattice in the visual shape of the paper's Figs. 5 and 6:
//! one node per consistent cut labeled with its global state, edges labeled
//! with the consumed message, violating cuts highlighted. Pipe through
//! `dot -Tsvg` to regenerate the figures for your own programs.

use std::collections::HashSet;
use std::fmt::Write as _;

use jmpax_core::SymbolTable;

use crate::cut::Cut;
use crate::explore::Lattice;

/// Rendering options.
#[derive(Clone, Debug, Default)]
pub struct DotOptions {
    /// Cuts to highlight (double border, filled) — typically violation
    /// points from an analysis.
    pub highlight: Vec<Cut>,
    /// Render state values inside the node labels.
    pub show_states: bool,
}

impl DotOptions {
    /// Options rendering states, with the given cuts highlighted.
    #[must_use]
    pub fn with_highlights(highlight: Vec<Cut>) -> Self {
        Self {
            highlight,
            show_states: true,
        }
    }
}

/// Renders `lattice` as a DOT digraph.
#[must_use]
pub fn to_dot(lattice: &Lattice, symbols: &SymbolTable, options: &DotOptions) -> String {
    let highlighted: HashSet<&Cut> = options.highlight.iter().collect();
    let mut out = String::new();
    out.push_str("digraph lattice {\n");
    out.push_str("  rankdir=TB;\n  node [shape=box, fontname=\"monospace\"];\n");

    for (id, node) in lattice.nodes().iter().enumerate() {
        let mut label = node.cut.to_string();
        if options.show_states {
            label.push_str("\\n<");
            for (i, (var, value)) in node.state.iter().enumerate() {
                if i > 0 {
                    label.push(',');
                }
                let _ = write!(label, "{}={}", symbols.name_or_default(var), value);
            }
            label.push('>');
        }
        let style = if highlighted.contains(&node.cut) {
            ", style=filled, fillcolor=\"#ffdddd\", peripheries=2"
        } else {
            ""
        };
        let _ = writeln!(out, "  n{id} [label=\"{label}\"{style}];");
    }

    // Rank nodes by level so the drawing is layered like the paper's.
    for k in 0..lattice.level_count() {
        out.push_str("  { rank=same;");
        for &nid in lattice.level(k) {
            let _ = write!(out, " n{nid};");
        }
        out.push_str(" }\n");
    }

    for (id, node) in lattice.nodes().iter().enumerate() {
        for &(succ, thread) in &node.succs {
            let label = lattice
                .edge_message(id, thread)
                .and_then(|m| {
                    let name = symbols.name_or_default(m.var()?);
                    Some(match m.written_value() {
                        Some(value) => format!("{}: {name}={value}", m.thread()),
                        None => format!("{}: read {name}", m.thread()),
                    })
                })
                .unwrap_or_default();
            let _ = writeln!(out, "  n{id} -> n{succ} [label=\"{label}\"];");
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::LatticeInput;
    use jmpax_core::{Event, MvcInstrumentor, Relevance, ThreadId};
    use jmpax_spec::ProgramState;

    fn fig6_lattice(syms: &mut SymbolTable) -> Lattice {
        let x = syms.intern("x");
        let y = syms.intern("y");
        let z = syms.intern("z");
        let t1 = ThreadId(0);
        let t2 = ThreadId(1);
        let mut a = MvcInstrumentor::new(2, Relevance::writes_of([x, y, z]));
        let mut msgs = Vec::new();
        a.process(&Event::read(t1, x));
        msgs.extend(a.process(&Event::write(t1, x, 0)));
        a.process(&Event::read(t2, x));
        msgs.extend(a.process(&Event::write(t2, z, 1)));
        a.process(&Event::read(t1, x));
        msgs.extend(a.process(&Event::write(t1, y, 1)));
        a.process(&Event::read(t2, x));
        msgs.extend(a.process(&Event::write(t2, x, 1)));
        let mut init = ProgramState::new();
        init.set(x, -1);
        init.set(y, 0);
        init.set(z, 0);
        Lattice::build(LatticeInput::from_messages(msgs, init).unwrap())
    }

    #[test]
    fn dot_contains_nodes_edges_and_levels() {
        let mut syms = SymbolTable::new();
        let lattice = fig6_lattice(&mut syms);
        let dot = to_dot(
            &lattice,
            &syms,
            &DotOptions {
                highlight: vec![],
                show_states: true,
            },
        );
        assert!(dot.starts_with("digraph lattice {"));
        assert!(dot.contains("S0,0"));
        assert!(dot.contains("S2,2"));
        assert!(dot.contains("x=-1"));
        assert!(dot.contains("T1: x=0"), "{dot}");
        assert!(dot.contains("rank=same"));
        // 7 nodes, 8 edges for Fig. 6.
        assert_eq!(dot.matches(" -> ").count(), 8);
        assert_eq!(dot.matches("label=\"S").count(), 7);
    }

    #[test]
    fn highlights_render_with_fill() {
        let mut syms = SymbolTable::new();
        let lattice = fig6_lattice(&mut syms);
        let dot = to_dot(
            &lattice,
            &syms,
            &DotOptions::with_highlights(vec![Cut::from_counts(vec![2, 2])]),
        );
        assert_eq!(dot.matches("fillcolor").count(), 1);
    }

    #[test]
    fn states_can_be_hidden() {
        let mut syms = SymbolTable::new();
        let lattice = fig6_lattice(&mut syms);
        let dot = to_dot(
            &lattice,
            &syms,
            &DotOptions {
                highlight: vec![],
                show_states: false,
            },
        );
        assert!(!dot.contains("x=-1"));
    }
}
