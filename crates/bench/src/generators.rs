//! Synthetic computation generators with controllable lattice width.
//!
//! The lattice of a computation with `n` threads and no cross-thread
//! causality is an `n`-dimensional hypercube — exponential. Real programs
//! synchronize periodically, which bounds the width. [`banded_computation`]
//! interpolates: threads write private variables (fully concurrent bands)
//! and every `period` rounds pass through a serializing barrier (write-
//! write chain on a shared variable), giving lattices whose width is
//! controlled by `threads` and `period` — the knob for experiment Q3.

use jmpax_core::{Event, Message, MvcInstrumentor, Relevance, ThreadId, VarId};
use jmpax_spec::ProgramState;

/// Parameters for [`banded_computation`].
#[derive(Clone, Copy, Debug)]
pub struct BandedConfig {
    /// Number of threads.
    pub threads: usize,
    /// Rounds of private writes (each round: one write per thread).
    pub rounds: usize,
    /// Barrier period: after every `period` rounds the threads serialize
    /// through a shared variable. `0` disables barriers (pure hypercube).
    pub period: usize,
}

impl Default for BandedConfig {
    fn default() -> Self {
        Self {
            threads: 3,
            rounds: 6,
            period: 2,
        }
    }
}

/// Generates the messages of a banded computation plus the initial state.
///
/// Private variables are `VarId(t)` for thread `t`; the barrier variable is
/// `VarId(threads)`. All writes are relevant.
#[must_use]
pub fn banded_computation(config: BandedConfig) -> (Vec<Message>, ProgramState) {
    let barrier_var = VarId(config.threads as u32);
    let mut instr = MvcInstrumentor::new(config.threads, Relevance::AllWrites);
    let mut msgs = Vec::new();
    let mut counter = 0i64;
    for round in 0..config.rounds {
        for t in 0..config.threads {
            counter += 1;
            let e = Event::write(ThreadId(t as u32), VarId(t as u32), counter);
            msgs.extend(instr.process(&e));
        }
        if config.period > 0 && (round + 1) % config.period == 0 {
            // Serializing barrier: write-write chain on the shared var.
            for t in 0..config.threads {
                counter += 1;
                let e = Event::write(ThreadId(t as u32), barrier_var, counter);
                msgs.extend(instr.process(&e));
            }
        }
    }
    let mut initial = ProgramState::new();
    for v in 0..=config.threads {
        initial.set(VarId(v as u32), 0i64);
    }
    (msgs, initial)
}

#[cfg(test)]
mod tests {
    use super::*;
    use jmpax_lattice::{Lattice, LatticeInput};

    fn lattice(config: BandedConfig) -> Lattice {
        let (msgs, initial) = banded_computation(config);
        Lattice::build(LatticeInput::from_messages(msgs, initial).unwrap())
    }

    #[test]
    fn no_barrier_is_a_hypercube() {
        let lat = lattice(BandedConfig {
            threads: 3,
            rounds: 2,
            period: 0,
        });
        // 3 threads × 2 private writes, fully concurrent: (2+1)^3 cuts.
        assert_eq!(lat.node_count(), 27);
    }

    #[test]
    fn barriers_bound_the_width() {
        let free = lattice(BandedConfig {
            threads: 3,
            rounds: 4,
            period: 0,
        });
        let banded = lattice(BandedConfig {
            threads: 3,
            rounds: 4,
            period: 1,
        });
        assert!(banded.max_level_width() < free.max_level_width());
        assert!(banded.node_count() < free.node_count());
    }

    #[test]
    fn message_counts() {
        let (msgs, _) = banded_computation(BandedConfig {
            threads: 2,
            rounds: 3,
            period: 3,
        });
        // 2×3 private + one barrier (2 writes).
        assert_eq!(msgs.len(), 8);
    }
}
