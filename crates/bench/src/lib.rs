//! # jmpax-bench
//!
//! Shared experiment machinery for the Criterion benchmarks and the
//! `harness` binary that regenerates every figure of the paper (see the
//! per-experiment index in `DESIGN.md` and the results in
//! `EXPERIMENTS.md`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod experiments;
pub mod generators;

pub use ablation::{
    compare_symmetric, symmetric_instrument, SymmetricInstrumentor, SymmetricStats,
};
pub use experiments::{
    detection_sweep, fig3_equivalence, fig5_experiment, fig6_experiment, DetectionRates,
    LatticeExperiment,
};
pub use generators::{banded_computation, BandedConfig};
