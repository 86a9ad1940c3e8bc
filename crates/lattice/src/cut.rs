//! Consistent cuts of a multithreaded computation.
//!
//! A *cut* records, for each thread, how many relevant events of that thread
//! have been consumed. A cut `c` is **consistent** when it is causally
//! closed: for every consumed event `e` with MVC `V`, all events counted by
//! `V` are also consumed, i.e. `V[j] ≤ c[j]` for every thread `j`. The
//! consistent cuts ordered by component-wise `≤` form the computation
//! lattice; each lattice *level* `k` holds the cuts with `Σ c[j] = k`
//! (the paper's Fig. 5/6 number states `S_{k1,k2}` by these counts).

use std::fmt;

use serde::{Deserialize, Serialize};

use jmpax_core::{CountVec, ThreadId};

/// A cut: per-thread counts of consumed relevant events.
///
/// Counts live in a [`CountVec`], so the one-clone-per-successor pattern of
/// frontier expansion ([`Cut::advanced`]) allocates nothing for programs of
/// up to [`jmpax_core::compact::INLINE_CAP`] threads.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Serialize, Deserialize)]
pub struct Cut {
    counts: CountVec,
}

impl Cut {
    /// The bottom cut (nothing consumed) for `n` threads.
    #[must_use]
    pub fn bottom(n: usize) -> Self {
        Self {
            counts: CountVec::zeros(n),
        }
    }

    /// Builds a cut from explicit counts.
    #[must_use]
    pub fn from_counts(counts: impl Into<Vec<u32>>) -> Self {
        Self {
            counts: CountVec::from_vec(counts.into()),
        }
    }

    /// Number of threads.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.counts.len()
    }

    /// Events consumed from thread `t`.
    #[must_use]
    pub fn get(&self, t: ThreadId) -> u32 {
        self.counts.get(t.index()).copied().unwrap_or(0)
    }

    /// The lattice level: total events consumed.
    #[must_use]
    pub fn level(&self) -> u32 {
        self.counts.iter().sum()
    }

    /// The cut with one more event of thread `t` consumed. Grows the count
    /// vector on demand (dynamically created threads, Section 2).
    #[must_use]
    pub fn advanced(&self, t: ThreadId) -> Cut {
        let mut counts = self.counts.clone();
        if counts.len() <= t.index() {
            counts.resize(t.index() + 1, 0);
        }
        counts[t.index()] += 1;
        Cut { counts }
    }

    /// Component-wise `≤` (the lattice order).
    #[must_use]
    pub fn le(&self, other: &Cut) -> bool {
        self.counts
            .iter()
            .zip(other.counts.as_slice())
            .all(|(a, b)| a <= b)
            && self.counts.len() <= other.counts.len()
    }

    /// Raw counts.
    #[must_use]
    pub fn as_slice(&self) -> &[u32] {
        &self.counts
    }

    /// If `other` is `self` advanced by exactly one event, returns the
    /// thread that advanced.
    #[must_use]
    pub fn advancing_thread(&self, other: &Cut) -> Option<ThreadId> {
        if self.counts.len() != other.counts.len() {
            return None;
        }
        let mut advanced = None;
        for (i, (a, b)) in self.counts.iter().zip(other.counts.as_slice()).enumerate() {
            match b.checked_sub(*a) {
                Some(0) => {}
                Some(1) if advanced.is_none() => advanced = Some(ThreadId(i as u32)),
                _ => return None,
            }
        }
        advanced
    }
}

impl fmt::Display for Cut {
    /// Renders like the paper's `S_{k1,k2}` subscripts: `S2,1`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S")?;
        for (i, c) in self.counts.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bottom_is_level_zero() {
        let c = Cut::bottom(3);
        assert_eq!(c.level(), 0);
        assert_eq!(c.threads(), 3);
        assert_eq!(c.get(ThreadId(2)), 0);
    }

    #[test]
    fn advanced_increments_one_thread() {
        let c = Cut::bottom(2).advanced(ThreadId(1));
        assert_eq!(c.as_slice(), &[0, 1]);
        assert_eq!(c.level(), 1);
        let c = c.advanced(ThreadId(1)).advanced(ThreadId(0));
        assert_eq!(c.as_slice(), &[1, 2]);
        assert_eq!(c.level(), 3);
    }

    #[test]
    fn lattice_order() {
        let a = Cut::from_counts(vec![1, 0]);
        let b = Cut::from_counts(vec![1, 2]);
        assert!(a.le(&b));
        assert!(!b.le(&a));
        let c = Cut::from_counts(vec![0, 1]);
        assert!(!a.le(&c));
        assert!(!c.le(&a));
    }

    #[test]
    fn advancing_thread_detection() {
        let a = Cut::from_counts(vec![1, 1]);
        assert_eq!(
            a.advancing_thread(&Cut::from_counts(vec![1, 2])),
            Some(ThreadId(1))
        );
        assert_eq!(
            a.advancing_thread(&Cut::from_counts(vec![2, 1])),
            Some(ThreadId(0))
        );
        // Not a single-step successor:
        assert_eq!(a.advancing_thread(&Cut::from_counts(vec![2, 2])), None);
        assert_eq!(a.advancing_thread(&Cut::from_counts(vec![1, 1])), None);
        assert_eq!(a.advancing_thread(&Cut::from_counts(vec![0, 1])), None);
        assert_eq!(a.advancing_thread(&Cut::from_counts(vec![1, 3])), None);
    }

    #[test]
    fn display_matches_paper_subscripts() {
        assert_eq!(Cut::from_counts(vec![2, 1]).to_string(), "S2,1");
        assert_eq!(Cut::bottom(2).to_string(), "S0,0");
    }
}
