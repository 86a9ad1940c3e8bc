//! Full materialization of the computation lattice.
//!
//! Every node is a consistent cut with its (uniquely determined) global
//! state; an edge `c → c'` exists when `c'` consumes exactly one more
//! relevant event than `c` and stays consistent. Paths from the bottom to
//! the top cut are exactly the *multithreaded runs* of Section 4. The full
//! lattice is what the paper draws in Figs. 5 and 6. It serves DOT export,
//! liveness lassos, and the test oracle ([`crate::analysis`]); analyses run
//! on the level-by-level [`crate::StreamingAnalyzer`].

use std::collections::HashMap;

use jmpax_core::{Message, ThreadId};
use jmpax_spec::ProgramState;

use crate::cut::Cut;
use crate::input::LatticeInput;

/// Index of a node within a [`Lattice`].
pub type NodeId = usize;

/// One lattice node: a consistent cut and its global state.
#[derive(Clone, Debug)]
pub struct Node {
    /// The cut.
    pub cut: Cut,
    /// The global state at the cut.
    pub state: ProgramState,
    /// Incoming edges: `(predecessor, advancing thread)`.
    pub preds: Vec<(NodeId, ThreadId)>,
    /// Outgoing edges: `(successor, advancing thread)`.
    pub succs: Vec<(NodeId, ThreadId)>,
}

/// The fully materialized computation lattice.
///
/// ```
/// use jmpax_core::{Event, MvcInstrumentor, Relevance, ThreadId, VarId};
/// use jmpax_lattice::{Lattice, LatticeInput};
/// use jmpax_spec::ProgramState;
///
/// // Two causally independent writes: the lattice is a 2×2 diamond.
/// let mut instr = MvcInstrumentor::new(2, Relevance::AllWrites);
/// let m1 = instr.process(&Event::write(ThreadId(0), VarId(0), 1)).unwrap();
/// let m2 = instr.process(&Event::write(ThreadId(1), VarId(1), 2)).unwrap();
///
/// let input = LatticeInput::from_messages([m1, m2], ProgramState::new()).unwrap();
/// let lattice = Lattice::build(input);
/// assert_eq!(lattice.node_count(), 4);
/// assert_eq!(lattice.count_runs(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct Lattice {
    input: LatticeInput,
    nodes: Vec<Node>,
    index: HashMap<Cut, NodeId>,
    /// Node ids per level (level = cut weight).
    levels: Vec<Vec<NodeId>>,
}

impl Lattice {
    /// Builds the lattice breadth-first, level by level.
    #[must_use]
    pub fn build(input: LatticeInput) -> Self {
        let threads = input.threads();
        let bottom_cut = Cut::bottom(threads);
        let bottom_state = input.state_at(&bottom_cut);

        let mut nodes = vec![Node {
            cut: bottom_cut.clone(),
            state: bottom_state,
            preds: Vec::new(),
            succs: Vec::new(),
        }];
        let mut index = HashMap::new();
        index.insert(bottom_cut, 0);
        let mut levels = vec![vec![0usize]];

        loop {
            let current = levels.last().unwrap().clone();
            let mut moves = Vec::new();
            for nid in current {
                for t in 0..threads {
                    let t = ThreadId(t as u32);
                    let cut = &nodes[nid].cut;
                    let Some(msg) = input.enabled(cut, t) else {
                        continue;
                    };
                    let update = msg.var().zip(msg.written_value());
                    moves.push((nid, t, cut.advanced(t), update));
                }
            }

            let mut next: Vec<NodeId> = Vec::new();
            for (nid, t, succ_cut, update) in moves {
                let succ_id = match index.get(&succ_cut) {
                    Some(&id) => id,
                    None => {
                        let id = nodes.len();
                        // A relevant non-write is a stutter step.
                        let state = match update {
                            Some((var, value)) => nodes[nid].state.updated(var, value),
                            None => nodes[nid].state.clone(),
                        };
                        nodes.push(Node {
                            cut: succ_cut.clone(),
                            state,
                            preds: Vec::new(),
                            succs: Vec::new(),
                        });
                        index.insert(succ_cut, id);
                        next.push(id);
                        id
                    }
                };
                nodes[nid].succs.push((succ_id, t));
                nodes[succ_id].preds.push((nid, t));
            }
            if next.is_empty() {
                break;
            }
            levels.push(next);
        }

        Self {
            input,
            nodes,
            index,
            levels,
        }
    }

    /// The input this lattice was built from.
    #[must_use]
    pub fn input(&self) -> &LatticeInput {
        &self.input
    }

    /// All nodes (bottom first, grouped by level).
    #[must_use]
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Node count — the number of distinct global states, as reported for
    /// Fig. 5 ("there are only 6 states to analyze").
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of levels (lattice height + 1).
    #[must_use]
    pub fn level_count(&self) -> usize {
        self.levels.len()
    }

    /// Node ids of one level.
    #[must_use]
    pub fn level(&self, k: usize) -> &[NodeId] {
        self.levels.get(k).map_or(&[], Vec::as_slice)
    }

    /// The widest level's node count (peak memory of a level-by-level scan).
    #[must_use]
    pub fn max_level_width(&self) -> usize {
        self.levels.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// The bottom node id (always 0).
    #[must_use]
    pub fn bottom(&self) -> NodeId {
        0
    }

    /// The top node id, when the lattice is complete (it always is for
    /// validated inputs).
    #[must_use]
    pub fn top(&self) -> NodeId {
        self.index[&self.input.top()]
    }

    /// Looks up a node by cut.
    #[must_use]
    pub fn node_by_cut(&self, cut: &Cut) -> Option<NodeId> {
        self.index.get(cut).copied()
    }

    /// The message consumed along edge `pred → succ`.
    #[must_use]
    pub fn edge_message(&self, pred: NodeId, thread: ThreadId) -> Option<&Message> {
        self.input.next_message(&self.nodes[pred].cut, thread)
    }

    /// Counts the multithreaded runs (bottom→top paths) by dynamic
    /// programming over levels. This is the "exponential number of
    /// potential runs" the paper mentions — counted here without
    /// enumeration, saturating at `u128::MAX`.
    #[must_use]
    pub fn count_runs(&self) -> u128 {
        if self.nodes.is_empty() {
            return 0;
        }
        let mut paths = vec![0u128; self.nodes.len()];
        paths[self.bottom()] = 1;
        for level in &self.levels {
            for &nid in level {
                let inbound = self.nodes[nid]
                    .preds
                    .iter()
                    .fold(0u128, |acc, &(p, _)| acc.saturating_add(paths[p]));
                if nid != self.bottom() {
                    paths[nid] = inbound;
                }
            }
        }
        paths[self.top()]
    }

    /// Enumerates up to `limit` runs as node-id paths from bottom to top.
    #[must_use]
    pub fn enumerate_runs(&self, limit: usize) -> Vec<Vec<NodeId>> {
        let mut out = Vec::new();
        if limit == 0 || self.nodes.is_empty() {
            return out;
        }
        let top = self.top();
        let mut path = vec![self.bottom()];
        self.dfs_runs(self.bottom(), top, &mut path, &mut out, limit);
        out
    }

    fn dfs_runs(
        &self,
        node: NodeId,
        top: NodeId,
        path: &mut Vec<NodeId>,
        out: &mut Vec<Vec<NodeId>>,
        limit: usize,
    ) {
        if out.len() >= limit {
            return;
        }
        if node == top {
            out.push(path.clone());
            return;
        }
        for &(succ, _) in &self.nodes[node].succs {
            path.push(succ);
            self.dfs_runs(succ, top, path, out, limit);
            path.pop();
            if out.len() >= limit {
                return;
            }
        }
    }

    /// The state sequence of a node-id path.
    #[must_use]
    pub fn states_along(&self, path: &[NodeId]) -> Vec<ProgramState> {
        path.iter().map(|&n| self.nodes[n].state.clone()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jmpax_core::{Event, MvcInstrumentor, Relevance, ThreadId, VarId};

    const T1: ThreadId = ThreadId(0);
    const T2: ThreadId = ThreadId(1);
    const X: VarId = VarId(0);
    const Y: VarId = VarId(1);
    const Z: VarId = VarId(2);

    fn fig6_input() -> LatticeInput {
        let mut a = MvcInstrumentor::new(2, Relevance::writes_of([X, Y, Z]));
        let mut out = Vec::new();
        a.process(&Event::read(T1, X));
        out.extend(a.process(&Event::write(T1, X, 0)));
        a.process(&Event::read(T2, X));
        out.extend(a.process(&Event::write(T2, Z, 1)));
        a.process(&Event::read(T1, X));
        out.extend(a.process(&Event::write(T1, Y, 1)));
        a.process(&Event::read(T2, X));
        out.extend(a.process(&Event::write(T2, X, 1)));
        let mut init = ProgramState::new();
        init.set(X, -1);
        init.set(Y, 0);
        init.set(Z, 0);
        LatticeInput::from_messages(out, init).unwrap()
    }

    #[test]
    fn fig6_lattice_shape() {
        let lat = Lattice::build(fig6_input());
        // Fig. 6 has exactly 7 states: S00 S10 S11 S20 S21 S12 S22.
        assert_eq!(lat.node_count(), 7);
        // Levels: {S00}, {S10}, {S11,S20}, {S21,S12}, {S22}.
        assert_eq!(lat.level_count(), 5);
        assert_eq!(lat.level(0).len(), 1);
        assert_eq!(lat.level(1).len(), 1);
        assert_eq!(lat.level(2).len(), 2);
        assert_eq!(lat.level(3).len(), 2);
        assert_eq!(lat.level(4).len(), 1);
        assert_eq!(lat.max_level_width(), 2);
        // Exactly the paper's three runs.
        assert_eq!(lat.count_runs(), 3);
        assert_eq!(lat.enumerate_runs(10).len(), 3);
    }

    #[test]
    fn fig6_missing_s02_is_inconsistent() {
        // S0,2 would consume T2's x++ without T1's x++ it depends on.
        let lat = Lattice::build(fig6_input());
        assert!(lat.node_by_cut(&Cut::from_counts(vec![0, 2])).is_none());
        assert!(lat.node_by_cut(&Cut::from_counts(vec![0, 1])).is_none());
        assert!(lat.node_by_cut(&Cut::from_counts(vec![1, 1])).is_some());
    }

    #[test]
    fn runs_end_at_top_and_have_full_length() {
        let lat = Lattice::build(fig6_input());
        for run in lat.enumerate_runs(10) {
            assert_eq!(run.len(), 5); // 4 events + initial
            assert_eq!(*run.first().unwrap(), lat.bottom());
            assert_eq!(*run.last().unwrap(), lat.top());
        }
    }

    #[test]
    fn enumerate_respects_limit() {
        let lat = Lattice::build(fig6_input());
        assert_eq!(lat.enumerate_runs(2).len(), 2);
        assert_eq!(lat.enumerate_runs(0).len(), 0);
    }

    #[test]
    fn totally_ordered_computation_has_one_run() {
        // Chain of write-write dependencies on one variable.
        let mut a = MvcInstrumentor::new(3, Relevance::AllWrites);
        let msgs: Vec<_> = (0..6)
            .map(|i| {
                a.process(&Event::write(ThreadId(i % 3), X, i64::from(i)))
                    .unwrap()
            })
            .collect();
        let lat = Lattice::build(LatticeInput::from_messages(msgs, ProgramState::new()).unwrap());
        assert_eq!(lat.count_runs(), 1);
        assert_eq!(lat.node_count(), 7); // a chain
        assert_eq!(lat.max_level_width(), 1);
    }

    #[test]
    fn fully_concurrent_computation_is_a_hypercube() {
        // n threads each writing a private variable once: n! runs, 2^n cuts.
        let n = 4u32;
        let mut a = MvcInstrumentor::new(n as usize, Relevance::AllWrites);
        let msgs: Vec<_> = (0..n)
            .map(|i| a.process(&Event::write(ThreadId(i), VarId(i), 1)).unwrap())
            .collect();
        let lat = Lattice::build(LatticeInput::from_messages(msgs, ProgramState::new()).unwrap());
        assert_eq!(lat.node_count(), 16);
        assert_eq!(lat.count_runs(), 24);
    }

    #[test]
    fn empty_input_single_node() {
        let lat = Lattice::build(LatticeInput::from_messages([], ProgramState::new()).unwrap());
        assert_eq!(lat.node_count(), 1);
        assert_eq!(lat.count_runs(), 1);
        assert_eq!(lat.bottom(), lat.top());
    }

    #[test]
    fn edge_message_matches_cut_position() {
        let lat = Lattice::build(fig6_input());
        let bottom = lat.bottom();
        let m = lat.edge_message(bottom, T1).unwrap();
        assert_eq!(m.seq(), 1);
        assert_eq!(m.thread(), T1);
    }
}
