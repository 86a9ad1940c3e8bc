//! Per-level lattice profile.
//!
//! Aggregates the [`TraceKind::LevelSealed`] / [`TraceKind::CutPruned`] /
//! [`TraceKind::PropertyEvaluated`] records into one row per lattice
//! level: how wide the frontier got, how many states were constructed, how
//! many cuts beam pruning discarded, how many property evaluations (and
//! violations) ran, and how much wall time the level took. This is the data future performance PRs need to decide
//! where level construction time actually goes.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::trace::{TraceData, TraceKind};

/// One lattice level's aggregated profile.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LevelProfile {
    /// Level index `r` (sum of clock entries).
    pub level: u64,
    /// Frontier width when the level sealed.
    pub width: u64,
    /// States constructed while building the level.
    pub states: u64,
    /// Cuts discarded by beam pruning.
    pub pruned: u64,
    /// Monitor steps run at this level.
    pub evals: u64,
    /// Violations found at this level.
    pub violations: u64,
    /// Wall time spent sealing the level, nanoseconds.
    pub wall_ns: u64,
}

/// Builds the per-level profile from a collected trace, sorted by level.
#[must_use]
pub fn lattice_profile(data: &TraceData) -> Vec<LevelProfile> {
    let mut by_level: BTreeMap<u64, LevelProfile> = BTreeMap::new();
    fn row(by_level: &mut BTreeMap<u64, LevelProfile>, level: u64) -> &mut LevelProfile {
        by_level.entry(level).or_insert_with(|| LevelProfile {
            level,
            ..LevelProfile::default()
        })
    }
    for record in data.lanes.iter().flat_map(|l| l.events.iter()) {
        match &record.kind {
            TraceKind::LevelSealed {
                level,
                width,
                states,
                pruned,
                evals,
                violations,
            } => {
                let r = row(&mut by_level, *level);
                r.width = r.width.max(*width);
                r.states += states;
                r.pruned += pruned;
                r.evals += evals;
                r.violations += violations;
                r.wall_ns += record.dur_ns;
            }
            TraceKind::CutPruned { level, count } => {
                // Already folded into LevelSealed.pruned when both are
                // recorded; kept separate so a prune-only trace still
                // profiles. Use max to avoid double counting.
                let r = row(&mut by_level, *level);
                r.pruned = r.pruned.max(*count);
            }
            TraceKind::PropertyEvaluated { level, violated } => {
                let r = row(&mut by_level, *level);
                r.evals = r.evals.max(1);
                if *violated {
                    r.violations = r.violations.max(1);
                }
            }
            _ => {}
        }
    }
    by_level.into_values().collect()
}

/// Renders a profile as a JSON array of per-level objects.
#[must_use]
pub fn profile_to_json(profile: &[LevelProfile]) -> String {
    let mut out = String::from("{\"levels\":[");
    for (i, p) in profile.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"level\":{},\"width\":{},\"states\":{},\"pruned\":{},\
             \"evals\":{},\"violations\":{},\"wall_ns\":{}}}",
            p.level, p.width, p.states, p.pruned, p.evals, p.violations, p.wall_ns
        );
    }
    out.push_str("]}");
    out
}

/// Renders a profile as an aligned text table, one level per row.
#[must_use]
pub fn profile_to_text(profile: &[LevelProfile]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>6} {:>8} {:>8} {:>8} {:>8} {:>10} {:>12}",
        "level", "width", "states", "pruned", "evals", "violations", "wall_ns"
    );
    for p in profile {
        let _ = writeln!(
            out,
            "{:>6} {:>8} {:>8} {:>8} {:>8} {:>10} {:>12}",
            p.level, p.width, p.states, p.pruned, p.evals, p.violations, p.wall_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::trace::Tracer;
    use crate::Stage;

    #[test]
    fn profile_aggregates_per_level() {
        let t = Tracer::enabled();
        let mut ring = t.ring("observer");
        let level = Stage::lane(&ring);
        ring.record(TraceKind::PropertyEvaluated {
            level: 1,
            violated: false,
        });
        level.end(
            &mut ring,
            TraceKind::LevelSealed {
                level: 1,
                width: 2,
                states: 2,
                pruned: 0,
                evals: 2,
                violations: 0,
            },
        );
        let level = Stage::lane(&ring);
        ring.record(TraceKind::CutPruned { level: 2, count: 3 });
        level.end(
            &mut ring,
            TraceKind::LevelSealed {
                level: 2,
                width: 1,
                states: 4,
                pruned: 3,
                evals: 4,
                violations: 1,
            },
        );
        ring.seal();
        let profile = lattice_profile(&t.collect());
        assert_eq!(profile.len(), 2);
        assert_eq!(profile[0].level, 1);
        assert_eq!(profile[0].width, 2);
        assert_eq!(profile[0].evals, 2);
        assert_eq!(profile[1].level, 2);
        assert_eq!(profile[1].pruned, 3, "prune instant must not double count");
        assert_eq!(profile[1].violations, 1);

        let text = profile_to_text(&profile);
        assert_eq!(text.lines().count(), 3);
        assert!(text.lines().next().unwrap().contains("width"));

        let parsed = json::parse(&profile_to_json(&profile)).expect("profile JSON parses");
        let levels = parsed
            .get("levels")
            .and_then(json::Value::as_array)
            .expect("levels array");
        assert_eq!(levels.len(), 2);
        assert_eq!(
            levels[1].get("states").and_then(json::Value::as_u64),
            Some(4)
        );
    }
}
