//! Multithreaded vector clocks (MVCs).
//!
//! The paper (Section 3) associates an `n`-dimensional vector of natural
//! numbers to each thread (`V_i`) and two such vectors to each shared
//! variable (`V^a_x` — *access* MVC — and `V^w_x` — *write* MVC).
//! `V[j]` intuitively counts the relevant events of thread `t_j` that the
//! owner of the clock is causally aware of.
//!
//! Clocks here grow on demand, which supports the dynamic-thread extension
//! mentioned in Section 2 of the paper ("the presented technique can be
//! easily extended to systems consisting of a variable number of threads"):
//! components that were never touched are implicitly zero.
//!
//! Storage is a [`CountVec`]: up to [`crate::compact::INLINE_CAP`] threads
//! live inline, so the pervasive clock clones of lattice expansion never
//! touch the allocator for realistic thread counts.

use std::cmp::Ordering;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::compact::CountVec;
use crate::event::ThreadId;

/// A multithreaded vector clock: a vector of per-thread counters with
/// component-wise join and the usual partial order.
///
/// Missing components are implicitly `0`, so clocks of different lengths can
/// be compared and joined freely.
///
/// ```
/// use jmpax_core::{ThreadId, VectorClock};
///
/// let mut a = VectorClock::new();
/// a.tick(ThreadId(0));                 // (1)
/// let mut b = VectorClock::new();
/// b.tick(ThreadId(1));                 // (0,1)
/// assert!(a.concurrent(&b));
///
/// b.join(&a);                          // (1,1)
/// assert!(a.le(&b));
/// assert_eq!(b.to_string(), "(1,1)");
/// ```
#[derive(Clone, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct VectorClock {
    components: CountVec,
}

impl VectorClock {
    /// The zero clock (all components `0`).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A zero clock pre-sized for `n` threads. Functionally identical to
    /// [`VectorClock::new`]; avoids reallocation in hot paths.
    #[must_use]
    pub fn with_threads(n: usize) -> Self {
        Self {
            components: CountVec::zeros(n),
        }
    }

    /// Builds a clock from explicit components (trailing zeros allowed).
    #[must_use]
    pub fn from_components(components: impl Into<Vec<u32>>) -> Self {
        Self {
            components: CountVec::from_vec(components.into()),
        }
    }

    /// The component for thread `t` (implicitly `0` when never set).
    #[must_use]
    pub fn get(&self, t: ThreadId) -> u32 {
        self.components.get(t.index()).copied().unwrap_or(0)
    }

    /// Sets the component for thread `t`, growing the vector as needed.
    pub fn set(&mut self, t: ThreadId, value: u32) {
        if self.components.len() <= t.index() {
            self.components.resize(t.index() + 1, 0);
        }
        self.components[t.index()] = value;
    }

    /// Increments the component for thread `t` and returns the new value.
    ///
    /// This is step 1 of Algorithm A: `V_i[i] ← V_i[i] + 1`.
    pub fn tick(&mut self, t: ThreadId) -> u32 {
        let v = self.get(t) + 1;
        self.set(t, v);
        v
    }

    /// Component-wise maximum: `self ← max{self, other}`.
    ///
    /// This is the `max` operation used in steps 2 and 3 of Algorithm A.
    pub fn join(&mut self, other: &VectorClock) {
        if self.components.len() < other.components.len() {
            self.components.resize(other.components.len(), 0);
        }
        for (mine, theirs) in self
            .components
            .as_mut_slice()
            .iter_mut()
            .zip(other.components.as_slice())
        {
            if *theirs > *mine {
                *mine = *theirs;
            }
        }
    }

    /// Returns `max{a, b}` without mutating either operand.
    #[must_use]
    pub fn joined(&self, other: &VectorClock) -> VectorClock {
        let mut out = self.clone();
        out.join(other);
        out
    }

    /// `self ≤ other` in the component-wise partial order
    /// (`V ≤ V'` iff `V[j] ≤ V'[j]` for all `j`).
    #[must_use]
    pub fn le(&self, other: &VectorClock) -> bool {
        let n = self.components.len().max(other.components.len());
        (0..n).all(|j| self.component(j) <= other.component(j))
    }

    /// `self < other`: `self ≤ other` and they differ in some component.
    #[must_use]
    pub fn lt(&self, other: &VectorClock) -> bool {
        self.le(other) && self != other
    }

    /// Two clocks are *concurrent* when neither `≤` holds.
    #[must_use]
    pub fn concurrent(&self, other: &VectorClock) -> bool {
        !self.le(other) && !other.le(self)
    }

    /// The number of explicitly stored components.
    #[must_use]
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// True when no component has ever been set.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }

    /// True when every component is zero.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.components.iter().all(|&c| c == 0)
    }

    /// Sum of all components; a useful "how many relevant events am I aware
    /// of" scalar (each relevant event ticks exactly one component once).
    #[must_use]
    pub fn weight(&self) -> u64 {
        self.components.iter().map(|&c| u64::from(c)).sum()
    }

    /// Iterates over `(ThreadId, count)` pairs for explicitly stored
    /// components (including zeros).
    pub fn iter(&self) -> impl Iterator<Item = (ThreadId, u32)> + '_ {
        self.components
            .as_slice()
            .iter()
            .enumerate()
            .map(|(i, &c)| (ThreadId(i as u32), c))
    }

    /// Raw component access by index (implicitly `0` out of range).
    #[must_use]
    pub fn component(&self, j: usize) -> u32 {
        self.components.get(j).copied().unwrap_or(0)
    }

    /// Exposes the raw components slice (trailing zeros may be omitted).
    #[must_use]
    #[inline]
    pub fn as_slice(&self) -> &[u32] {
        &self.components
    }

    /// Normalizes by dropping trailing zeros, so that clocks that compare
    /// equal also hash equal regardless of how they were grown.
    pub fn normalize(&mut self) {
        while self.components.as_slice().last() == Some(&0) {
            self.components.pop();
        }
    }

    /// Returns a normalized copy (no trailing zeros).
    #[must_use]
    pub fn normalized(&self) -> VectorClock {
        let mut c = self.clone();
        c.normalize();
        c
    }
}

impl PartialOrd for VectorClock {
    /// The causal partial order. `None` means the clocks are concurrent.
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        let le = self.le(other);
        let ge = other.le(self);
        match (le, ge) {
            (true, true) => Some(Ordering::Equal),
            (true, false) => Some(Ordering::Less),
            (false, true) => Some(Ordering::Greater),
            (false, false) => None,
        }
    }
}

impl fmt::Debug for VectorClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for VectorClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.components.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, ")")
    }
}

impl FromIterator<u32> for VectorClock {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        Self {
            components: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vc(components: &[u32]) -> VectorClock {
        VectorClock::from_components(components.to_vec())
    }

    #[test]
    fn zero_clock_is_le_everything() {
        let z = VectorClock::new();
        let a = vc(&[3, 1, 4]);
        assert!(z.le(&a));
        assert!(z.le(&z));
        assert!(!a.le(&z));
    }

    #[test]
    fn get_and_set_grow_on_demand() {
        let mut c = VectorClock::new();
        assert_eq!(c.get(ThreadId(7)), 0);
        c.set(ThreadId(7), 42);
        assert_eq!(c.get(ThreadId(7)), 42);
        assert_eq!(c.get(ThreadId(3)), 0);
        assert_eq!(c.len(), 8);
    }

    #[test]
    fn tick_increments_own_component() {
        let mut c = VectorClock::new();
        assert_eq!(c.tick(ThreadId(1)), 1);
        assert_eq!(c.tick(ThreadId(1)), 2);
        assert_eq!(c.tick(ThreadId(0)), 1);
        assert_eq!(c.as_slice(), &[1, 2]);
    }

    #[test]
    fn join_is_componentwise_max() {
        let mut a = vc(&[1, 5, 0]);
        let b = vc(&[3, 2]);
        a.join(&b);
        assert_eq!(a.as_slice(), &[3, 5, 0]);
    }

    #[test]
    fn join_grows_shorter_clock() {
        let mut a = vc(&[1]);
        let b = vc(&[0, 0, 2]);
        a.join(&b);
        assert_eq!(a.as_slice(), &[1, 0, 2]);
    }

    #[test]
    fn partial_order_concurrent() {
        let a = vc(&[1, 0]);
        let b = vc(&[0, 1]);
        assert!(a.concurrent(&b));
        assert_eq!(a.partial_cmp(&b), None);
    }

    #[test]
    fn partial_order_less_greater_equal() {
        let a = vc(&[1, 1]);
        let b = vc(&[1, 2]);
        assert_eq!(a.partial_cmp(&b), Some(Ordering::Less));
        assert_eq!(b.partial_cmp(&a), Some(Ordering::Greater));
        assert_eq!(a.partial_cmp(&a), Some(Ordering::Equal));
        assert!(a.lt(&b));
        assert!(!b.lt(&a));
        assert!(!a.lt(&a));
    }

    #[test]
    fn equal_modulo_trailing_zeros() {
        let a = vc(&[1, 2, 0, 0]);
        let b = vc(&[1, 2]);
        // Structurally different but order-equivalent.
        assert!(a.le(&b) && b.le(&a));
        assert_eq!(a.normalized(), b.normalized());
    }

    #[test]
    fn weight_counts_all_ticks() {
        let mut c = VectorClock::new();
        c.tick(ThreadId(0));
        c.tick(ThreadId(0));
        c.tick(ThreadId(4));
        assert_eq!(c.weight(), 3);
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(vc(&[1, 2]).to_string(), "(1,2)");
        assert_eq!(VectorClock::new().to_string(), "()");
    }

    #[test]
    fn joined_does_not_mutate() {
        let a = vc(&[1, 0]);
        let b = vc(&[0, 2]);
        let j = a.joined(&b);
        assert_eq!(j.as_slice(), &[1, 2]);
        assert_eq!(a.as_slice(), &[1, 0]);
    }
}
