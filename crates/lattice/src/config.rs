//! The one configuration type shared by every analysis entrypoint.
//!
//! Counterexample budget, beam pruning, counterexample history and the
//! step cache all live here: [`AnalysisConfig`] configures the streaming
//! analyzer (through [`crate::SuiteBuilder::config`]) and the test oracle
//! ([`crate::analysis::analyze_lattice`], which reads only the
//! counterexample budget and the step cache), and downstream crates
//! (observer pipeline, CLI) thread it through unchanged.

/// Knobs for predictive analysis. The default is the exact configuration
/// the paper describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AnalysisConfig {
    /// Reconstruct at most this many counterexample runs (violation
    /// summaries are always reported).
    pub max_counterexamples: usize,
    /// Beam width limit for the streaming frontier; `0` is unbounded.
    /// When a level exceeds the cap it is pruned to the `cap` smallest
    /// cuts in lexicographic order and the verdict degrades to
    /// [`crate::Exactness::Degraded`].
    pub frontier_cap: usize,
    /// Retired streaming levels kept for counterexamples. `Some(0)` is the
    /// paper's pure two-level mode and `Some(usize::MAX)` keeps every
    /// level, so counterexamples reach the initial state. `None` (the
    /// default) keeps two levels on an observer session
    /// (`Pipeline::session`, every `jmpax serve` tenant) and every level
    /// on a batch check of a recorded execution
    /// (`Pipeline::check_execution`).
    pub history: Option<usize>,
    /// Memoize monitor steps per `(memory, atom valuation)` within a level
    /// (default `true`). Purely a performance knob: verdicts,
    /// counterexamples and traces are bit-identical either way — only the `spec.formula_evals`
    /// / `spec.eval_cache_hits` split moves.
    pub eval_cache: bool,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        Self {
            max_counterexamples: 16,
            frontier_cap: 0,
            history: None,
            eval_cache: true,
        }
    }
}

impl AnalysisConfig {
    /// Sets the counterexample reconstruction budget.
    #[must_use]
    pub fn with_max_counterexamples(mut self, n: usize) -> Self {
        self.max_counterexamples = n;
        self
    }

    /// Sets the frontier beam cap (`0` = unbounded).
    #[must_use]
    pub fn with_frontier_cap(mut self, cap: usize) -> Self {
        self.frontier_cap = cap;
        self
    }

    /// Sets how many retired levels the streaming analyzer retains.
    #[must_use]
    pub fn with_history(mut self, levels: usize) -> Self {
        self.history = Some(levels);
        self
    }

    /// Enables or disables the per-level monitor step cache.
    #[must_use]
    pub fn with_eval_cache(mut self, enabled: bool) -> Self {
        self.eval_cache = enabled;
        self
    }

    /// Negotiates a tenant-requested frontier cap against this config's
    /// own cap, treating it as a ceiling (`0` = unbounded on either side):
    /// a tenant may tighten the beam below the server's cap but never
    /// widen past it. Used by `jmpax serve` to honor per-tenant caps
    /// without letting one tenant buy unbounded memory.
    #[must_use]
    pub fn with_requested_frontier_cap(self, requested: usize) -> Self {
        let cap = match (self.frontier_cap, requested) {
            (0, r) => r,
            (c, 0) => c,
            (c, r) => c.min(r),
        };
        self.with_frontier_cap(cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_sequential_exact_two_level() {
        let c = AnalysisConfig::default();
        assert_eq!(c.frontier_cap, 0);
        assert_eq!(c.history, None);
        assert_eq!(c.max_counterexamples, 16);
        assert!(c.eval_cache);
    }

    #[test]
    fn builder_methods_compose() {
        let c = AnalysisConfig::default()
            .with_frontier_cap(64)
            .with_history(2)
            .with_eval_cache(false)
            .with_max_counterexamples(0);
        assert_eq!(c.frontier_cap, 64);
        assert_eq!(c.history, Some(2));
        assert!(!c.eval_cache);
        assert_eq!(c.max_counterexamples, 0);
    }

    #[test]
    fn requested_frontier_cap_is_a_ceiling() {
        let base = |cap| AnalysisConfig::default().with_frontier_cap(cap);
        // Unbounded server accepts any request.
        assert_eq!(base(0).with_requested_frontier_cap(0).frontier_cap, 0);
        assert_eq!(base(0).with_requested_frontier_cap(32).frontier_cap, 32);
        // Tenants may tighten but never widen.
        assert_eq!(base(64).with_requested_frontier_cap(0).frontier_cap, 64);
        assert_eq!(base(64).with_requested_frontier_cap(16).frontier_cap, 16);
        assert_eq!(base(64).with_requested_frontier_cap(512).frontier_cap, 64);
    }
}
