//! Synthesized online monitors for past-time LTL with intervals.
//!
//! Following the monitor-synthesis technique of Havelund & Roşu (TACAS'02)
//! used by JMPaX, each *temporal* subformula compiles to a single bit of
//! monitor memory holding the information about the past that the recursive
//! semantics needs. Stepping the monitor on a new global state costs
//! `O(|φ|)` and the full monitor state is one machine word — small enough to
//! attach whole *sets* of monitor states to computation-lattice nodes and
//! thereby check every consistent run in parallel (Section 4 of the paper).
//!
//! The recursive equations (for step `n > 0`, with `⟦·⟧ₙ` the value at
//! state `n` and `bit` the value stored at `n−1`):
//!
//! ```text
//! ⟦@F⟧ₙ        = bit(F)                      bit' = ⟦F⟧ₙ
//! ⟦[*]F⟧ₙ      = ⟦F⟧ₙ ∧ bit                  bit' = ⟦[*]F⟧ₙ
//! ⟦<*>F⟧ₙ      = ⟦F⟧ₙ ∨ bit                  bit' = ⟦<*>F⟧ₙ
//! ⟦F S G⟧ₙ     = ⟦G⟧ₙ ∨ (⟦F⟧ₙ ∧ bit)         bit' = ⟦F S G⟧ₙ
//! ⟦F Sw G⟧ₙ    = ⟦G⟧ₙ ∨ (⟦F⟧ₙ ∧ bit)         bit' = ⟦F Sw G⟧ₙ
//! ⟦[P,Q)⟧ₙ     = ¬⟦Q⟧ₙ ∧ (⟦P⟧ₙ ∨ bit)        bit' = ⟦[P,Q)⟧ₙ
//! ⟦start(F)⟧ₙ  = ⟦F⟧ₙ ∧ ¬bit(F)              bit' = ⟦F⟧ₙ
//! ⟦end(F)⟧ₙ    = ¬⟦F⟧ₙ ∧ bit(F)              bit' = ⟦F⟧ₙ
//! ```
//!
//! and at the initial state (`n = 0`): `@F = F`, `[*]F = F`, `<*>F = F`,
//! `F S G = G`, `F Sw G = G ∨ F`, `[P,Q) = P ∧ ¬Q`, `start = end = false`.

use std::collections::hash_map::Entry;
use std::fmt;

use jmpax_core::fasthash::FastMap;
use jmpax_core::VarId;

use serde::{Deserialize, Serialize};

use crate::ast::{Atom, Formula};
use crate::state::ProgramState;

/// Maximum number of temporal subformulas per monitor (state is a `u64`).
pub const MAX_BITS: usize = 64;

/// Compilation errors.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MonitorError {
    /// The formula has more than [`MAX_BITS`] temporal subformulas.
    TooManyTemporalOperators {
        /// How many the formula actually has.
        needed: usize,
    },
}

impl fmt::Display for MonitorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MonitorError::TooManyTemporalOperators { needed } => write!(
                f,
                "formula needs {needed} temporal bits but monitors support at most {MAX_BITS}"
            ),
        }
    }
}

impl std::error::Error for MonitorError {}

/// Compact monitor memory: one bit per temporal subformula.
///
/// Two runs that reach the same global state with the same `MonitorState`
/// are indistinguishable to the property from then on — which is exactly
/// what lets the lattice analysis merge them.
#[derive(
    Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Default, Serialize, Deserialize,
)]
pub struct MonitorState(pub u64);

impl MonitorState {
    fn bit(self, i: u16) -> bool {
        (self.0 >> i) & 1 == 1
    }

    fn with_bit(self, i: u16, value: bool) -> MonitorState {
        if value {
            MonitorState(self.0 | (1 << i))
        } else {
            MonitorState(self.0 & !(1 << i))
        }
    }
}

impl fmt::Display for MonitorState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{:x}", self.0)
    }
}

type NodeId = u16;

/// Scratch capacity kept on the stack during evaluation; formulas with more
/// arena nodes fall back to a heap buffer (one allocation per evaluation,
/// exactly the old behavior).
const STACK_NODES: usize = 64;

/// A flattened formula node. Children always have smaller ids, so a single
/// forward pass over the arena evaluates the formula bottom-up.
/// `Atom` carries its *valuation slot*: the bit position this atom occupies
/// in the packed atom valuation that keys the step cache.
#[derive(Clone, Debug)]
enum Node {
    True,
    False,
    Atom(Atom, u16),
    Not(NodeId),
    And(NodeId, NodeId),
    Or(NodeId, NodeId),
    Implies(NodeId, NodeId),
    Prev(NodeId, u16),
    AlwaysPast(NodeId, u16),
    EventuallyPast(NodeId, u16),
    Since(NodeId, NodeId, u16),
    SinceWeak(NodeId, NodeId, u16),
    Interval(NodeId, NodeId, u16),
    Start(NodeId, u16),
    End(NodeId, u16),
}

/// A compiled online monitor; see the module docs for the semantics.
#[derive(Clone, Debug)]
pub struct Monitor {
    nodes: Vec<Node>,
    root: NodeId,
    bits: usize,
    /// Arena ids of every `Node::Atom`, indexed by valuation slot. The step
    /// cache keys on the packed truth values of these atoms, so it is only
    /// usable when they fit a `u64` (see [`Monitor::valuation`]).
    atoms: Vec<NodeId>,
    /// Per variable, ascending, the valuation slots of the atoms that read
    /// it (bit `i` for slot `i`; slots past 64 are not tracked, as such
    /// monitors have no valuation). See [`Monitor::revalued`].
    reads: Vec<(VarId, u64)>,
    /// Counts full formula evaluations (`spec.formula_evals`); disabled
    /// unless attached via [`Monitor::with_telemetry`]. Clones share the
    /// counter, so every cut evaluated across the lattice is counted.
    evals: jmpax_telemetry::Counter,
    /// Per-evaluation latency histogram (`spec.stage.eval_ns`); disabled
    /// unless attached via [`Monitor::with_telemetry`]. Shared across
    /// clones like `evals`, so every clone's samples pool.
    eval_ns: jmpax_telemetry::Histogram,
    /// Counts step-cache hits (`spec.eval_cache_hits`); disabled unless
    /// attached via [`Monitor::with_telemetry`]. Caches created by
    /// [`Monitor::step_cache`] inherit this counter.
    cache_hits: jmpax_telemetry::Counter,
}

impl Monitor {
    /// Compiles `formula` into a monitor.
    pub fn compile(formula: &Formula) -> Result<Self, MonitorError> {
        let mut nodes = Vec::new();
        let mut bits = 0usize;
        let root = Self::lower(formula, &mut nodes, &mut bits);
        if bits > MAX_BITS {
            return Err(MonitorError::TooManyTemporalOperators { needed: bits });
        }
        let mut atoms = Vec::new();
        let mut reads = std::collections::BTreeMap::<VarId, u64>::new();
        for (id, n) in nodes.iter_mut().enumerate() {
            if let Node::Atom(atom, slot) = n {
                *slot = atoms.len() as u16;
                if let Some(bit) = 1u64.checked_shl(u32::from(*slot)) {
                    for var in Formula::Atom(atom.clone()).variables() {
                        *reads.entry(var).or_default() |= bit;
                    }
                }
                atoms.push(id as NodeId);
            }
        }
        Ok(Self {
            nodes,
            root,
            bits,
            atoms,
            reads: reads.into_iter().collect(),
            evals: jmpax_telemetry::Counter::disabled(),
            eval_ns: jmpax_telemetry::Histogram::disabled(),
            cache_hits: jmpax_telemetry::Counter::disabled(),
        })
    }

    /// Attaches this monitor to `registry`, counting every formula
    /// evaluation (each [`initial`](Self::initial) or [`step`](Self::step)
    /// call) as `spec.formula_evals` and recording its latency into the
    /// `spec.stage.eval_ns` histogram.
    #[must_use]
    pub fn with_telemetry(mut self, registry: &jmpax_telemetry::Registry) -> Self {
        self.evals = registry.counter("spec.formula_evals");
        self.eval_ns = registry.histogram("spec.stage.eval_ns");
        self.cache_hits = registry.counter("spec.eval_cache_hits");
        self
    }

    fn lower(f: &Formula, nodes: &mut Vec<Node>, bits: &mut usize) -> NodeId {
        fn fresh_bit(bits: &mut usize) -> u16 {
            let b = *bits as u16;
            *bits += 1;
            b
        }
        let node = match f {
            Formula::True => Node::True,
            Formula::False => Node::False,
            Formula::Atom(a) => Node::Atom(a.clone(), 0), // slot patched by `compile`
            Formula::Not(x) => Node::Not(Self::lower(x, nodes, bits)),
            Formula::And(a, b) => {
                let a = Self::lower(a, nodes, bits);
                let b = Self::lower(b, nodes, bits);
                Node::And(a, b)
            }
            Formula::Or(a, b) => {
                let a = Self::lower(a, nodes, bits);
                let b = Self::lower(b, nodes, bits);
                Node::Or(a, b)
            }
            Formula::Implies(a, b) => {
                let a = Self::lower(a, nodes, bits);
                let b = Self::lower(b, nodes, bits);
                Node::Implies(a, b)
            }
            Formula::Prev(x) => {
                let x = Self::lower(x, nodes, bits);
                Node::Prev(x, fresh_bit(bits))
            }
            Formula::AlwaysPast(x) => {
                let x = Self::lower(x, nodes, bits);
                Node::AlwaysPast(x, fresh_bit(bits))
            }
            Formula::EventuallyPast(x) => {
                let x = Self::lower(x, nodes, bits);
                Node::EventuallyPast(x, fresh_bit(bits))
            }
            Formula::Since(a, b) => {
                let a = Self::lower(a, nodes, bits);
                let b = Self::lower(b, nodes, bits);
                Node::Since(a, b, fresh_bit(bits))
            }
            Formula::SinceWeak(a, b) => {
                let a = Self::lower(a, nodes, bits);
                let b = Self::lower(b, nodes, bits);
                Node::SinceWeak(a, b, fresh_bit(bits))
            }
            Formula::Interval(a, b) => {
                let a = Self::lower(a, nodes, bits);
                let b = Self::lower(b, nodes, bits);
                Node::Interval(a, b, fresh_bit(bits))
            }
            Formula::Start(x) => {
                let x = Self::lower(x, nodes, bits);
                Node::Start(x, fresh_bit(bits))
            }
            Formula::End(x) => {
                let x = Self::lower(x, nodes, bits);
                Node::End(x, fresh_bit(bits))
            }
        };
        nodes.push(node);
        (nodes.len() - 1) as NodeId
    }

    /// Number of temporal bits (the log₂ of the FSM's state-space bound).
    #[must_use]
    pub fn bit_count(&self) -> usize {
        self.bits
    }

    /// Evaluates the monitor on the *initial* state of a run. Returns the
    /// monitor memory and whether the property holds at that state.
    #[must_use]
    pub fn initial(&self, state: &ProgramState) -> (MonitorState, bool) {
        self.run(None, state)
    }

    /// Steps the monitor from memory `prev` on the next state of the run.
    /// Returns the new memory and whether the property holds at that state.
    #[must_use]
    pub fn step(&self, prev: MonitorState, state: &ProgramState) -> (MonitorState, bool) {
        self.run(Some(prev), state)
    }

    /// A fresh [`StepCache`] wired to this monitor's `spec.eval_cache_hits`
    /// counter. The cache memoizes [`Monitor::step_cached`] results per
    /// `(memory, atom valuation)` pair; see [`StepCache`] for the contract.
    #[must_use]
    pub fn step_cache(&self) -> StepCache {
        StepCache::with_counter(self.cache_hits.clone())
    }

    /// [`Monitor::step`] through a memo table: the verdict and next memory
    /// are pure functions of `(prev, valuation(state))`, so distinct lattice
    /// edges that agree on those collapse to one formula evaluation. Hits
    /// count as `spec.eval_cache_hits` and do **not** count as
    /// `spec.formula_evals`. Falls back to a plain [`Monitor::step`] when
    /// the formula has more than 64 atoms.
    #[must_use]
    pub fn step_cached(
        &self,
        prev: MonitorState,
        state: &ProgramState,
        cache: &mut StepCache,
    ) -> (MonitorState, bool) {
        match self.valuation(state) {
            Some(valuation) => self.step_valued(prev, valuation, Some(cache)),
            None => self.step(prev, state),
        }
    }

    /// [`Monitor::step`] on a state whose atoms [`Monitor::valuation`]
    /// already packed, through `cache` when one is given. A lattice node
    /// packs its state once and steps every in-edge with the result, so no
    /// edge re-evaluates an atom; results and the `spec.formula_evals` /
    /// `spec.eval_cache_hits` counts equal those of [`Monitor::step`] and
    /// [`Monitor::step_cached`] on the state itself.
    #[must_use]
    pub fn step_valued(
        &self,
        prev: MonitorState,
        valuation: u64,
        cache: Option<&mut StepCache>,
    ) -> (MonitorState, bool) {
        let Some(cache) = cache else {
            return self.run_valued(Some(prev), valuation);
        };
        match cache.map.entry((prev.0, valuation)) {
            Entry::Occupied(hit) => {
                cache.hits.inc();
                *hit.get()
            }
            Entry::Vacant(miss) => *miss.insert(self.run_valued(Some(prev), valuation)),
        }
    }

    /// Packs the truth values of every atom in `state` into one `u64`, bit
    /// `i` holding atom slot `i`. `None` when the formula has more than 64
    /// atoms — such monitors simply bypass the step cache.
    #[must_use]
    pub fn valuation(&self, state: &ProgramState) -> Option<u64> {
        if self.atoms.len() > 64 {
            return None;
        }
        let mut packed = 0u64;
        for (slot, &id) in self.atoms.iter().enumerate() {
            let Node::Atom(a, _) = &self.nodes[id as usize] else {
                unreachable!("atoms indexes only Node::Atom entries");
            };
            if state.eval_atom(a) {
                packed |= 1 << slot;
            }
        }
        Some(packed)
    }

    /// [`Monitor::valuation`] of `state`, reached by one write of `var`
    /// from a state whose valuation was `prev`: only the atoms that read
    /// `var` are evaluated again, the other bits carry over.
    #[must_use]
    pub fn revalued(&self, prev: Option<u64>, state: &ProgramState, var: VarId) -> Option<u64> {
        let mut packed = prev?;
        let Ok(i) = self.reads.binary_search_by_key(&var, |&(v, _)| v) else {
            return Some(packed);
        };
        let mut slots = self.reads[i].1;
        while slots != 0 {
            let slot = slots.trailing_zeros();
            slots &= slots - 1;
            let Node::Atom(a, _) = &self.nodes[self.atoms[slot as usize] as usize] else {
                unreachable!("atoms indexes only Node::Atom entries");
            };
            if state.eval_atom(a) {
                packed |= 1 << slot;
            } else {
                packed &= !(1 << slot);
            }
        }
        Some(packed)
    }

    fn run(&self, prev: Option<MonitorState>, state: &ProgramState) -> (MonitorState, bool) {
        self.run_impl(prev, AtomInput::State(state))
    }

    fn run_valued(&self, prev: Option<MonitorState>, valuation: u64) -> (MonitorState, bool) {
        self.run_impl(prev, AtomInput::Valuation(valuation))
    }

    fn run_impl(&self, prev: Option<MonitorState>, atoms: AtomInput<'_>) -> (MonitorState, bool) {
        self.evals.inc();
        let _eval = jmpax_telemetry::Stage::timed(&self.eval_ns);
        // Node values live on the stack for every realistic formula; the
        // heap path only triggers past STACK_NODES arena nodes.
        let mut stack_buf = [false; STACK_NODES];
        let mut heap_buf;
        let now: &mut [bool] = if self.nodes.len() <= STACK_NODES {
            &mut stack_buf[..self.nodes.len()]
        } else {
            heap_buf = vec![false; self.nodes.len()];
            &mut heap_buf
        };
        let mut next = MonitorState::default();
        for (id, node) in self.nodes.iter().enumerate() {
            let value = match node {
                Node::True => true,
                Node::False => false,
                Node::Atom(a, slot) => match atoms {
                    AtomInput::State(s) => s.eval_atom(a),
                    AtomInput::Valuation(v) => (v >> slot) & 1 == 1,
                },
                Node::Not(x) => !now[*x as usize],
                Node::And(a, b) => now[*a as usize] && now[*b as usize],
                Node::Or(a, b) => now[*a as usize] || now[*b as usize],
                Node::Implies(a, b) => !now[*a as usize] || now[*b as usize],
                Node::Prev(x, bit) => {
                    let fx = now[*x as usize];
                    next = next.with_bit(*bit, fx);
                    match prev {
                        Some(p) => p.bit(*bit),
                        None => fx, // @F = F at the initial state
                    }
                }
                Node::AlwaysPast(x, bit) => {
                    let fx = now[*x as usize];
                    let v = match prev {
                        Some(p) => fx && p.bit(*bit),
                        None => fx,
                    };
                    next = next.with_bit(*bit, v);
                    v
                }
                Node::EventuallyPast(x, bit) => {
                    let fx = now[*x as usize];
                    let v = match prev {
                        Some(p) => fx || p.bit(*bit),
                        None => fx,
                    };
                    next = next.with_bit(*bit, v);
                    v
                }
                Node::Since(a, b, bit) => {
                    let fa = now[*a as usize];
                    let fb = now[*b as usize];
                    let v = match prev {
                        Some(p) => fb || (fa && p.bit(*bit)),
                        None => fb,
                    };
                    next = next.with_bit(*bit, v);
                    v
                }
                Node::SinceWeak(a, b, bit) => {
                    let fa = now[*a as usize];
                    let fb = now[*b as usize];
                    let v = match prev {
                        Some(p) => fb || (fa && p.bit(*bit)),
                        None => fb || fa,
                    };
                    next = next.with_bit(*bit, v);
                    v
                }
                Node::Interval(p_id, q_id, bit) => {
                    let fp = now[*p_id as usize];
                    let fq = now[*q_id as usize];
                    let v = match prev {
                        Some(p) => !fq && (fp || p.bit(*bit)),
                        None => fp && !fq,
                    };
                    next = next.with_bit(*bit, v);
                    v
                }
                Node::Start(x, bit) => {
                    let fx = now[*x as usize];
                    let v = match prev {
                        Some(p) => fx && !p.bit(*bit),
                        None => false,
                    };
                    next = next.with_bit(*bit, fx);
                    v
                }
                Node::End(x, bit) => {
                    let fx = now[*x as usize];
                    let v = match prev {
                        Some(p) => !fx && p.bit(*bit),
                        None => false,
                    };
                    next = next.with_bit(*bit, fx);
                    v
                }
            };
            now[id] = value;
        }
        (next, now[self.root as usize])
    }

    /// Monitors a complete state sequence, returning the index of the first
    /// violating state, if any.
    #[must_use]
    pub fn first_violation(&self, states: &[ProgramState]) -> Option<usize> {
        let mut mem = None;
        for (i, s) in states.iter().enumerate() {
            let (next, ok) = match mem {
                None => self.initial(s),
                Some(m) => self.step(m, s),
            };
            if !ok {
                return Some(i);
            }
            mem = Some(next);
        }
        None
    }

    /// True when the property holds at every state of the sequence.
    #[must_use]
    pub fn holds_over(&self, states: &[ProgramState]) -> bool {
        self.first_violation(states).is_none()
    }
}

/// How [`Monitor::run_impl`] reads atom truth values: directly from a
/// program state, or from a valuation already packed by
/// [`Monitor::valuation`] (the step-cache miss path, which avoids
/// re-evaluating atoms against the state map).
#[derive(Clone, Copy)]
enum AtomInput<'a> {
    State(&'a ProgramState),
    Valuation(u64),
}

/// A memo table for [`Monitor::step_cached`], keyed by
/// `(monitor memory, packed atom valuation)`.
///
/// Stepping a monitor is a pure function of that pair, so the cache never
/// changes results — it only collapses repeated evaluations. Frontier
/// expansion repeats them constantly: every lattice node with in-degree
/// `k` steps the same memories over the same state `k` times, and sibling
/// nodes frequently share valuations. The cache is deliberately *external*
/// to the monitor (no interior mutability, no locks): each analysis path
/// owns one, scopes it — per level for the streaming analyzer, per pass
/// for the oracle — and clears or drops it when done.
#[derive(Debug, Default)]
pub struct StepCache {
    map: FastMap<(u64, u64), (MonitorState, bool)>,
    hits: jmpax_telemetry::Counter,
}

impl StepCache {
    /// An empty cache with hit counting disabled.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache whose hits increment `hits` (normally the monitor's
    /// `spec.eval_cache_hits` counter — use [`Monitor::step_cache`]).
    #[must_use]
    pub fn with_counter(hits: jmpax_telemetry::Counter) -> Self {
        Self {
            map: FastMap::default(),
            hits,
        }
    }

    /// Drops every memoized transition, keeping the allocation and the hit
    /// counter. Called at level seals so the table tracks the working set
    /// instead of growing for the whole run.
    pub fn clear(&mut self) {
        self.map.clear();
    }

    /// Number of memoized `(memory, valuation)` transitions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing has been memoized since creation or `clear`.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jmpax_core::SymbolTable;

    fn monitor_of(src: &str, syms: &mut SymbolTable) -> Monitor {
        crate::parser::parse(src, syms).unwrap().monitor().unwrap()
    }

    #[test]
    fn revalued_matches_a_full_valuation_after_each_write() {
        let mut syms = SymbolTable::new();
        let m = monitor_of(
            "[*] (x > 0 /\\ y < x) \\/ z = 2 \\/ @ (y + z >= 3)",
            &mut syms,
        );
        let vars: Vec<VarId> = ["x", "y", "z", "w"]
            .iter()
            .map(|n| syms.intern(n))
            .collect();
        let mut state = ProgramState::new();
        let mut valuation = m.valuation(&state);
        for (i, step) in (0..40i64).enumerate() {
            let var = vars[i % vars.len()];
            state.set(var, (step * 7) % 5 - 1);
            valuation = m.revalued(valuation, &state, var);
            assert_eq!(valuation, m.valuation(&state), "after step {step}");
        }
    }

    fn states(syms: &SymbolTable, rows: &[&[(&str, i64)]]) -> Vec<ProgramState> {
        rows.iter()
            .map(|row| {
                let mut s = ProgramState::new();
                for (name, v) in *row {
                    s.set(syms.lookup(name).unwrap(), *v);
                }
                s
            })
            .collect()
    }

    #[test]
    fn interval_paper_reading() {
        // [p, q): p seen in the past, q never since.
        let mut syms = SymbolTable::new();
        let m = monitor_of("[p = 1, q = 1)", &mut syms);
        // p then quiet -> holds.
        let seq = states(&syms, &[&[("p", 1)], &[("p", 0)]]);
        assert!(m.holds_over(&seq));
        // q after p -> violated at that state.
        let seq = states(&syms, &[&[("p", 1)], &[("p", 0), ("q", 1)]]);
        assert_eq!(m.first_violation(&seq), Some(1));
        // p never seen -> violated immediately.
        let seq = states(&syms, &[&[("q", 0)]]);
        assert_eq!(m.first_violation(&seq), Some(0));
        // q at the same instant as p -> interval does not open.
        let seq = states(&syms, &[&[("p", 1), ("q", 1)]]);
        assert_eq!(m.first_violation(&seq), Some(0));
        // ... but a later p re-opens it.
        let seq = states(&syms, &[&[("p", 1), ("q", 1)], &[("p", 1), ("q", 0)]]);
        assert_eq!(m.first_violation(&seq), Some(0));
    }

    #[test]
    fn landing_property_on_paper_runs() {
        // Fig. 5: states are <landing, approved, radio>.
        let mut syms = SymbolTable::new();
        let m = monitor_of("start(landing = 1) -> [approved = 1, radio = 0)", &mut syms);
        let s = |l: i64, a: i64, r: i64| {
            let mut st = ProgramState::new();
            st.set(syms.lookup("landing").unwrap(), l);
            st.set(syms.lookup("approved").unwrap(), a);
            st.set(syms.lookup("radio").unwrap(), r);
            st
        };
        // Observed (leftmost) run: radio drops after landing started — OK.
        let run = vec![s(0, 0, 1), s(0, 1, 1), s(1, 1, 1), s(1, 1, 0)];
        assert!(m.holds_over(&run), "observed run must be successful");
        // Rightmost run: radio drops before approval — violation.
        let run = vec![s(0, 0, 1), s(0, 0, 0), s(0, 1, 0), s(1, 1, 0)];
        assert_eq!(m.first_violation(&run), Some(3));
        // Inner run: radio drops between approval and landing — violation.
        let run = vec![s(0, 0, 1), s(0, 1, 1), s(0, 1, 0), s(1, 1, 0)];
        assert_eq!(m.first_violation(&run), Some(3));
    }

    #[test]
    fn example2_property_on_paper_runs() {
        // Fig. 6: states are (x, y, z), initially (-1, 0, 0).
        let mut syms = SymbolTable::new();
        let m = monitor_of("(x > 0) -> [y = 0, y > z)", &mut syms);
        let s = |x: i64, y: i64, z: i64| {
            let mut st = ProgramState::new();
            st.set(syms.lookup("x").unwrap(), x);
            st.set(syms.lookup("y").unwrap(), y);
            st.set(syms.lookup("z").unwrap(), z);
            st
        };
        // Observed run (S00 S10 S11 S21 S22): successful.
        let run = vec![s(-1, 0, 0), s(0, 0, 0), s(0, 0, 1), s(0, 1, 1), s(1, 1, 1)];
        assert!(m.holds_over(&run));
        // Run via S12 (e4 before e3): also successful.
        let run = vec![s(-1, 0, 0), s(0, 0, 0), s(0, 0, 1), s(1, 0, 1), s(1, 1, 1)];
        assert!(m.holds_over(&run));
        // Run via S20 (y=1 while z=0): y > z becomes true inside the
        // interval — violated once x > 0.
        let run = vec![s(-1, 0, 0), s(0, 0, 0), s(0, 1, 0), s(0, 1, 1), s(1, 1, 1)];
        assert_eq!(m.first_violation(&run), Some(4));
    }

    #[test]
    fn prev_convention_at_initial_state() {
        let mut syms = SymbolTable::new();
        let m = monitor_of("@ p = 1", &mut syms);
        assert!(m.holds_over(&states(&syms, &[&[("p", 1)]])));
        assert!(!m.holds_over(&states(&syms, &[&[("p", 0)]])));
    }

    #[test]
    fn always_past_latches_violations() {
        let mut syms = SymbolTable::new();
        let m = monitor_of("[*] p = 1", &mut syms);
        let seq = states(&syms, &[&[("p", 1)], &[("p", 0)], &[("p", 1)]]);
        // Once p was false, [*]p stays false forever.
        assert_eq!(m.first_violation(&seq), Some(1));
        let mut mem = None;
        let mut values = Vec::new();
        for s in &seq {
            let (next, ok) = match mem {
                None => m.initial(s),
                Some(p) => m.step(p, s),
            };
            values.push(ok);
            mem = Some(next);
        }
        assert_eq!(values, vec![true, false, false]);
    }

    #[test]
    fn eventually_past_latches_success() {
        let mut syms = SymbolTable::new();
        let m = monitor_of("<*> p = 1", &mut syms);
        let seq = states(&syms, &[&[("p", 0)], &[("p", 1)], &[("p", 0)]]);
        assert_eq!(m.first_violation(&seq), Some(0));
        // From the second state on it holds forever.
        let (mem, _) = m.initial(&seq[0]);
        let (mem, ok1) = m.step(mem, &seq[1]);
        let (_, ok2) = m.step(mem, &seq[2]);
        assert!(ok1 && ok2);
    }

    #[test]
    fn since_strong_vs_weak() {
        let mut syms = SymbolTable::new();
        let strong = monitor_of("p = 1 S q = 1", &mut syms);
        let weak = monitor_of("p = 1 Sw q = 1", &mut syms);
        // q never happened, p always true: weak holds, strong does not.
        let seq = states(&syms, &[&[("p", 1)], &[("p", 1)]]);
        assert!(!strong.holds_over(&seq));
        assert!(weak.holds_over(&seq));
        // q at start, p in between: both hold.
        let seq = states(&syms, &[&[("p", 0), ("q", 1)], &[("p", 1)]]);
        assert!(strong.holds_over(&seq));
        assert!(weak.holds_over(&seq));
    }

    #[test]
    fn start_and_end_detect_edges() {
        let mut syms = SymbolTable::new();
        let m = monitor_of("start(p = 1) -> q = 1", &mut syms);
        // p rises at index 1 with q set: fine. p rises again at 3 without q.
        let seq = states(
            &syms,
            &[
                &[("p", 0)],
                &[("p", 1), ("q", 1)],
                &[("p", 0)],
                &[("p", 1), ("q", 0)],
            ],
        );
        assert_eq!(m.first_violation(&seq), Some(3));

        let m = monitor_of("end(p = 1) -> q = 1", &mut syms);
        let seq = states(&syms, &[&[("p", 1)], &[("p", 0), ("q", 0)]]);
        assert_eq!(m.first_violation(&seq), Some(1));
    }

    #[test]
    fn bit_count_counts_temporal_operators() {
        let mut syms = SymbolTable::new();
        assert_eq!(monitor_of("p = 1", &mut syms).bit_count(), 0);
        assert_eq!(monitor_of("[*] p = 1", &mut syms).bit_count(), 1);
        assert_eq!(
            monitor_of("[p = 1, q = 1) /\\ @ r = 1", &mut syms).bit_count(),
            2
        );
    }

    #[test]
    fn too_many_bits_is_an_error() {
        // 65 nested @ operators.
        let mut f = Formula::True;
        for _ in 0..65 {
            f = Formula::Prev(Box::new(f));
        }
        assert!(matches!(
            Monitor::compile(&f),
            Err(MonitorError::TooManyTemporalOperators { needed: 65 })
        ));
    }

    #[test]
    fn monitor_state_is_deterministic_and_mergeable() {
        // Same state + same memory => same verdict and same next memory.
        let mut syms = SymbolTable::new();
        let m = monitor_of("[p = 1, q = 1)", &mut syms);
        let s1 = states(&syms, &[&[("p", 1)]]).remove(0);
        let (mem_a, _) = m.initial(&s1);
        let (mem_b, _) = m.initial(&s1);
        assert_eq!(mem_a, mem_b);
        let s2 = states(&syms, &[&[("p", 0)]]).remove(0);
        assert_eq!(m.step(mem_a, &s2), m.step(mem_b, &s2));
    }
}
