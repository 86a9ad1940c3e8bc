//! The one Exact/Degraded/Error trust verdict shared across the observer.
//!
//! [`ExactnessVerdict`] answers "how much can this result be trusted?"
//! for every layer that must report trust: per-tenant outcomes,
//! per-analysis report sections and CLI JSON.

use jmpax_lattice::Exactness;

/// How much a completed analysis or session can be trusted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExactnessVerdict {
    /// Every consistent run was checked; nothing was lost anywhere.
    Exact,
    /// The property was checked over what survived: transport damage
    /// (lost, corrupt or truncated frames and the gaps they leave), a
    /// session evicted while idle or at shutdown, or frontier pruning
    /// cost information.
    Degraded(Exactness),
    /// No analyzable result was produced at all (handshake violation,
    /// unsupported analysis request, a panic in the session's analysis).
    Error(String),
}

impl ExactnessVerdict {
    /// Stable label for reports and JSON.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            ExactnessVerdict::Exact => "Exact",
            ExactnessVerdict::Degraded(_) => "Degraded",
            ExactnessVerdict::Error(_) => "Error",
        }
    }

    /// Classifies an [`Exactness`]: [`ExactnessVerdict::Exact`] when
    /// nothing was lost, [`ExactnessVerdict::Degraded`] otherwise.
    #[must_use]
    pub fn from_exactness(exactness: Exactness) -> Self {
        if exactness.is_exact() {
            ExactnessVerdict::Exact
        } else {
            ExactnessVerdict::Degraded(exactness)
        }
    }

    /// True for [`ExactnessVerdict::Exact`].
    #[must_use]
    pub fn is_exact(&self) -> bool {
        matches!(self, ExactnessVerdict::Exact)
    }

    /// True for [`ExactnessVerdict::Error`].
    #[must_use]
    pub fn is_error(&self) -> bool {
        matches!(self, ExactnessVerdict::Error(_))
    }
}

impl From<Exactness> for ExactnessVerdict {
    fn from(exactness: Exactness) -> Self {
        Self::from_exactness(exactness)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_and_labels() {
        assert_eq!(
            ExactnessVerdict::from_exactness(Exactness::Exact),
            ExactnessVerdict::Exact
        );
        let degraded = ExactnessVerdict::from(Exactness::degraded(1, 2));
        assert_eq!(degraded.label(), "Degraded");
        assert!(!degraded.is_exact());
        assert!(ExactnessVerdict::Error("boom".into()).is_error());
        assert_eq!(ExactnessVerdict::Exact.label(), "Exact");
    }
}
