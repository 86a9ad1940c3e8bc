//! The shared vocabulary of *analyses* that can consume the `⟨e, i, V⟩`
//! instrumentation stream.
//!
//! The paper's central claim is that one instrumented message stream can
//! feed *any* online analysis (Section 4). [`AnalysisKind`] names the
//! analyses this repo ships so every layer — instrumentation-side
//! handshakes (`jmpax-instrument`), the observer pipeline
//! (`jmpax-observer`), the daemon wire protocol and the CLI — can agree on
//! which consumers a stream should be routed to without depending on the
//! analysis implementations themselves (which live in `jmpax-lattice`).

use std::fmt;

use serde::{Deserialize, Serialize};

/// One kind of online analysis runnable over the instrumentation stream.
///
/// The `u8` wire codes are part of the `jmpax serve` handshake format and
/// must never be reused for a different meaning.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub enum AnalysisKind {
    /// The paper's predictive past-time-LTL lattice checker: every
    /// property verdict over every consistent run of the computation
    /// lattice.
    Ltl,
    /// Happens-before data-race detection: per-variable read/write clock
    /// sets over the synchronization-only causal order.
    Race,
    /// Conflict-atomicity checking of lock-delimited transaction blocks.
    Atomicity,
}

impl AnalysisKind {
    /// Every kind, in the canonical (wire-code) order.
    pub const ALL: [AnalysisKind; 3] = [
        AnalysisKind::Ltl,
        AnalysisKind::Race,
        AnalysisKind::Atomicity,
    ];

    /// The stable lower-case name used by `--analysis` lists, report
    /// sections and telemetry metric prefixes (`analysis.<name>.*`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            AnalysisKind::Ltl => "ltl",
            AnalysisKind::Race => "race",
            AnalysisKind::Atomicity => "atomicity",
        }
    }

    /// The handshake wire code (see `jmpax-instrument`'s `SessionHello`).
    #[must_use]
    pub fn code(self) -> u8 {
        match self {
            AnalysisKind::Ltl => 0,
            AnalysisKind::Race => 1,
            AnalysisKind::Atomicity => 2,
        }
    }

    /// Decodes a handshake wire code. Unknown codes are returned as the
    /// error value so a daemon can reject them by name instead of
    /// dropping the connection.
    ///
    /// # Errors
    ///
    /// Returns the unrecognized code itself.
    pub fn from_code(code: u8) -> Result<Self, u8> {
        match code {
            0 => Ok(AnalysisKind::Ltl),
            1 => Ok(AnalysisKind::Race),
            2 => Ok(AnalysisKind::Atomicity),
            other => Err(other),
        }
    }

    /// Parses one `--analysis` list element.
    ///
    /// # Errors
    ///
    /// Returns the unrecognized name.
    pub fn parse(name: &str) -> Result<Self, String> {
        match name.trim() {
            "ltl" => Ok(AnalysisKind::Ltl),
            "race" | "races" => Ok(AnalysisKind::Race),
            "atomicity" => Ok(AnalysisKind::Atomicity),
            other => Err(other.to_owned()),
        }
    }

    /// Parses a comma-separated `--analysis` list (e.g.
    /// `"ltl,race,atomicity"`), preserving order and dropping duplicates.
    ///
    /// # Errors
    ///
    /// Returns the first unrecognized name.
    pub fn parse_list(list: &str) -> Result<Vec<Self>, String> {
        let mut out = Vec::new();
        for part in list.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            let kind = Self::parse(part)?;
            if !out.contains(&kind) {
                out.push(kind);
            }
        }
        Ok(out)
    }
}

impl fmt::Display for AnalysisKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_round_trip() {
        for kind in AnalysisKind::ALL {
            assert_eq!(AnalysisKind::from_code(kind.code()), Ok(kind));
        }
        assert_eq!(AnalysisKind::from_code(200), Err(200));
    }

    #[test]
    fn names_round_trip() {
        for kind in AnalysisKind::ALL {
            assert_eq!(AnalysisKind::parse(kind.name()), Ok(kind));
            assert_eq!(kind.to_string(), kind.name());
        }
    }

    #[test]
    fn list_parses_in_order_and_dedupes() {
        assert_eq!(
            AnalysisKind::parse_list("race, ltl,race,atomicity").unwrap(),
            vec![
                AnalysisKind::Race,
                AnalysisKind::Ltl,
                AnalysisKind::Atomicity
            ]
        );
        assert_eq!(AnalysisKind::parse_list("").unwrap(), vec![]);
        assert_eq!(
            AnalysisKind::parse_list("ltl,bogus"),
            Err("bogus".to_owned())
        );
    }
}
