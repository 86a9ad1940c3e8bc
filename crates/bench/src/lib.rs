//! # jmpax-bench
//!
//! Experiment machinery for the `harness` binary that regenerates every
//! figure and quantified claim of the paper (see the per-experiment index
//! in `DESIGN.md` and the results in `EXPERIMENTS.md`). Speed is measured
//! elsewhere: by the one end-to-end benchmark, `jmpax-benchmark`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod experiments;
pub mod generators;

pub use ablation::{compare_symmetric, SymmetricStats};
pub use experiments::{
    detection_sweep, fig3_equivalence, fig5_experiment, fig6_experiment, DetectionRates,
    LatticeExperiment,
};
pub use generators::{banded_computation, BandedConfig};
