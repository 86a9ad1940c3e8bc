//! `compare`: the paired rule for claiming a gain or finding a regression.
//!
//! Input is at least ten `run --out` files per side, run alternately; the
//! i-th parent run is paired with the i-th change run. Per workload and
//! metric:
//!
//! * **improved** — the change wins at least nine tenths of the pairs
//!   (ties count for neither) and the medians differ, in the better
//!   direction, by more than the parent's interquartile range;
//! * **worse** — the change's median is worse than the parent's by more
//!   than the metric's bound (metrics without a bound: the rule for
//!   improved, in the other direction);
//! * **unresolved** — neither, and the parent's spread is wider than the
//!   bound, unless every change run reads better than every parent run;
//! * **unchanged** — otherwise.
//!
//! `failed_share` must not rise. Exit code 1 when anything is worse.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use crate::metrics::{self, Better, Report};
use crate::stats::{median, quartiles};

/// Pairs needed before a gain can be claimed.
const MIN_PAIRS: usize = 10;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Worse,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Applies the paired rule to one metric's runs.
pub fn judge(parent: &[f64], change: &[f64], better: Better, bound: Option<f64>) -> Verdict {
    let pairs = parent.len().min(change.len());
    let sign = match better {
        Better::Lower => -1.0,
        Better::Higher => 1.0,
    };
    // Positive = the change reads better.
    let gain = |p: f64, c: f64| sign * (c - p);
    let wins = (0..pairs)
        .filter(|&i| gain(parent[i], change[i]) > 0.0)
        .count();
    let losses = (0..pairs)
        .filter(|&i| gain(parent[i], change[i]) < 0.0)
        .count();
    let (pm, cm) = (median(parent), median(change));
    let iqr = if parent.len() >= 2 {
        let (q1, _, q3) = quartiles(parent);
        q3 - q1
    } else {
        0.0
    };
    let diff = gain(pm, cm);
    let nine_tenths = |n: usize| pairs >= MIN_PAIRS && n * 10 >= pairs * 9;
    if nine_tenths(wins) && diff > iqr {
        return Verdict::Improved;
    }
    let worse = match bound {
        Some(b) => -diff > b * pm.abs(),
        None => nine_tenths(losses) && -diff > iqr,
    };
    if worse {
        return Verdict::Worse;
    }
    let spread = if pm == 0.0 { 0.0 } else { iqr / pm.abs() };
    let all_better = parent
        .iter()
        .all(|&p| change.iter().all(|&c| gain(p, c) > 0.0));
    match bound {
        Some(b) if spread > b && !all_better => Verdict::Unresolved,
        _ => Verdict::Unchanged,
    }
}

fn load(paths: &[PathBuf]) -> Result<Vec<Vec<Report>>, String> {
    paths
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
            let doc =
                jmpax_telemetry::json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))?;
            doc.get("reports")
                .and_then(|r| r.as_array())
                .ok_or(format!("{}: not a `run --out` file", p.display()))?
                .iter()
                .map(Report::from_json)
                .collect()
        })
        .collect()
}

/// `workload -> metric -> values in run order`, plus failure counts.
type Table = BTreeMap<String, (BTreeMap<String, Vec<f64>>, u64, u64)>;

fn tabulate(runs: &[Vec<Report>]) -> Table {
    let mut t = Table::new();
    for run in runs {
        for r in run {
            let entry = t.entry(r.workload.clone()).or_default();
            entry.1 += r.failed;
            entry.2 += r.attempted;
            for (name, v) in &r.values {
                entry.0.entry(name.clone()).or_default().push(*v);
            }
        }
    }
    t
}

pub fn main(parent: &[PathBuf], change: &[PathBuf]) -> Result<ExitCode, String> {
    if parent.is_empty() || parent.len() != change.len() {
        return Err(
            "compare needs the same number (at least one) of --parent and --change files".into(),
        );
    }
    if parent.len() < MIN_PAIRS {
        eprintln!(
            "note: {} pairs; a gain needs at least {MIN_PAIRS}",
            parent.len()
        );
    }
    let (p, c) = (tabulate(&load(parent)?), tabulate(&load(change)?));
    let mut any_worse = false;
    println!(
        "{:<13} {:<28} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "parent", "change", "delta%", "wins"
    );
    for (workload, (pm, pfailed, pattempted)) in &p {
        let Some((cm, cfailed, cattempted)) = c.get(workload) else {
            return Err(format!(
                "workload {workload} is missing from the change runs"
            ));
        };
        for (name, pv) in pm {
            let (Some(def), Some(cv)) = (metrics::find(name), cm.get(name)) else {
                continue;
            };
            if name == "failed_share" {
                continue;
            }
            let verdict = judge(pv, cv, def.better, def.bound);
            any_worse |= verdict == Verdict::Worse;
            let (pmed, cmed) = (median(pv), median(cv));
            let delta = if pmed == 0.0 {
                0.0
            } else {
                (cmed - pmed) / pmed.abs() * 100.0
            };
            let sign = if def.better == Better::Lower {
                -1.0
            } else {
                1.0
            };
            let wins = pv
                .iter()
                .zip(cv)
                .filter(|(a, b)| sign * (*b - *a) > 0.0)
                .count();
            println!(
                "{workload:<13} {name:<28} {:>14} {:>14} {delta:>+8.2} {:>3}/{:<2}  {}",
                metrics::fmt(pmed),
                metrics::fmt(cmed),
                wins,
                pv.len().min(cv.len()),
                verdict.as_str()
            );
        }
        let share = |f: u64, a: u64| f as f64 / a.max(1) as f64;
        let (ps, cs) = (share(*pfailed, *pattempted), share(*cfailed, *cattempted));
        let verdict = if cs > ps {
            Verdict::Worse
        } else {
            Verdict::Unchanged
        };
        any_worse |= verdict == Verdict::Worse;
        println!(
            "{workload:<13} {:<28} {:>14} {:>14} {:>8} {:>6}  {}",
            "failed_share",
            metrics::fmt(ps),
            metrics::fmt(cs),
            "",
            "",
            verdict.as_str()
        );
    }
    Ok(if any_worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn steady(base: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| base + (i % 3) as f64 * 0.01 * base)
            .collect()
    }

    #[test]
    fn paired_rule() {
        let parent = steady(100.0, 10);
        // 20 % faster on every pair: a gain for a lower-is-better metric.
        let faster: Vec<f64> = parent.iter().map(|v| v * 0.8).collect();
        assert_eq!(
            judge(&parent, &faster, Better::Lower, Some(0.1)),
            Verdict::Improved
        );
        assert_eq!(
            judge(&parent, &faster, Better::Higher, Some(0.1)),
            Verdict::Worse
        );
        // Within noise: unchanged.
        let same: Vec<f64> = parent.iter().rev().copied().collect();
        assert_eq!(
            judge(&parent, &same, Better::Lower, Some(0.1)),
            Verdict::Unchanged
        );
        // Better on every pair but by less than the parent's spread: no gain.
        let slightly: Vec<f64> = parent.iter().map(|v| v - 0.001).collect();
        assert_eq!(
            judge(&parent, &slightly, Better::Lower, Some(0.1)),
            Verdict::Unchanged
        );
        // Too few pairs never claim a gain.
        assert_eq!(
            judge(&parent[..5], &faster[..5], Better::Lower, Some(0.1)),
            Verdict::Unchanged
        );
        // A parent spread wider than the bound leaves it unresolved.
        let noisy: Vec<f64> = (0..10)
            .map(|i| if i % 2 == 0 { 50.0 } else { 150.0 })
            .collect();
        let noisy_change: Vec<f64> = noisy.iter().rev().copied().collect();
        assert_eq!(
            judge(&noisy, &noisy_change, Better::Lower, Some(0.1)),
            Verdict::Unresolved
        );
    }
}
