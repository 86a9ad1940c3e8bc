//! A small-buffer vector of `u32` counters.
//!
//! Vector clocks and lattice cuts are short — one counter per thread, and
//! realistic monitored programs have a handful of threads — yet the frontier
//! expansion clones them millions of times. Backing them with a [`Vec`]
//! means every clone is a heap allocation, and `expand_ns` ends up
//! dominated by the allocator. [`CountVec`] stores up to [`INLINE_CAP`]
//! components inline (no allocation at all: construction, clone and drop
//! are plain copies) and spills to a heap `Vec` only for wider programs.
//!
//! The type behaves exactly like `Vec<u32>` for every trait the clock and
//! cut code rely on: `Eq`/`Hash`/`Ord` operate over the logical slice, so
//! an inline and a spilled vector with the same contents are equal and hash
//! identically. Trailing zeros remain structurally significant, exactly as
//! with `Vec` — clock normalization depends on that.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut, Index, IndexMut};

use serde::{Deserialize, Serialize};

/// Components stored without heap allocation. Sized so the inline buffer
/// covers every realistic thread count (the paper's examples use 2–3
/// threads; the stress benches use 8) while keeping the type at 56 bytes.
pub const INLINE_CAP: usize = 12;

#[derive(Clone)]
enum Repr {
    /// Up to [`INLINE_CAP`] counters stored in place; `buf[len..]` is
    /// unspecified and never read.
    Inline { len: u8, buf: [u32; INLINE_CAP] },
    /// Wider vectors fall back to the heap. Once spilled, a vector stays
    /// spilled even if truncated below the cap — re-inlining on every `pop`
    /// would churn for no benefit.
    Spilled(Vec<u32>),
}

/// A `Vec<u32>` drop-in with a small-buffer representation.
///
/// Dereferences to `[u32]`, so all slice methods apply:
///
/// ```
/// use jmpax_core::compact::CountVec;
///
/// let mut v: CountVec = [1u32, 2, 3].into_iter().collect();
/// v.push(4);
/// assert_eq!(v.as_slice(), &[1, 2, 3, 4]);
/// v[0] += 10;
/// assert_eq!(v.iter().sum::<u32>(), 20);
/// ```
#[derive(Clone)]
pub struct CountVec(Repr);

impl CountVec {
    /// The empty vector.
    #[must_use]
    pub fn new() -> Self {
        Self(Repr::Inline {
            len: 0,
            buf: [0; INLINE_CAP],
        })
    }

    /// `n` zero counters.
    #[must_use]
    pub fn zeros(n: usize) -> Self {
        if n <= INLINE_CAP {
            Self(Repr::Inline {
                len: n as u8,
                buf: [0; INLINE_CAP],
            })
        } else {
            Self(Repr::Spilled(vec![0; n]))
        }
    }

    /// Builds from an existing `Vec`, inlining when it fits.
    #[must_use]
    pub fn from_vec(v: Vec<u32>) -> Self {
        if v.len() <= INLINE_CAP {
            Self::from_slice(&v)
        } else {
            Self(Repr::Spilled(v))
        }
    }

    /// Builds from a slice, inlining when it fits.
    #[must_use]
    pub fn from_slice(s: &[u32]) -> Self {
        if s.len() <= INLINE_CAP {
            let mut buf = [0; INLINE_CAP];
            buf[..s.len()].copy_from_slice(s);
            Self(Repr::Inline {
                len: s.len() as u8,
                buf,
            })
        } else {
            Self(Repr::Spilled(s.to_vec()))
        }
    }

    /// The logical contents.
    #[must_use]
    #[inline]
    pub fn as_slice(&self) -> &[u32] {
        match &self.0 {
            Repr::Inline { len, buf } => &buf[..*len as usize],
            Repr::Spilled(v) => v,
        }
    }

    /// The logical contents, mutably.
    #[must_use]
    pub fn as_mut_slice(&mut self) -> &mut [u32] {
        match &mut self.0 {
            Repr::Inline { len, buf } => &mut buf[..*len as usize],
            Repr::Spilled(v) => v,
        }
    }

    /// Number of counters.
    #[must_use]
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::Inline { len, .. } => *len as usize,
            Repr::Spilled(v) => v.len(),
        }
    }

    /// True when there are no counters.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends a counter, spilling to the heap if the inline buffer is full.
    pub fn push(&mut self, value: u32) {
        match &mut self.0 {
            Repr::Inline { len, buf } => {
                let n = *len as usize;
                if n < INLINE_CAP {
                    buf[n] = value;
                    *len += 1;
                } else {
                    let mut v = buf.to_vec();
                    v.push(value);
                    self.0 = Repr::Spilled(v);
                }
            }
            Repr::Spilled(v) => v.push(value),
        }
    }

    /// Removes and returns the last counter.
    pub fn pop(&mut self) -> Option<u32> {
        match &mut self.0 {
            Repr::Inline { len, buf } => {
                if *len == 0 {
                    None
                } else {
                    *len -= 1;
                    Some(buf[*len as usize])
                }
            }
            Repr::Spilled(v) => v.pop(),
        }
    }

    /// Grows or shrinks to `new_len`, filling new slots with `value`.
    pub fn resize(&mut self, new_len: usize, value: u32) {
        match &mut self.0 {
            Repr::Inline { len, buf } => {
                if new_len <= INLINE_CAP {
                    let n = *len as usize;
                    if new_len > n {
                        buf[n..new_len].fill(value);
                    }
                    *len = new_len as u8;
                } else {
                    let mut v = buf[..*len as usize].to_vec();
                    v.resize(new_len, value);
                    self.0 = Repr::Spilled(v);
                }
            }
            Repr::Spilled(v) => v.resize(new_len, value),
        }
    }

    /// True when this vector has spilled to the heap (diagnostics only).
    #[must_use]
    pub fn is_spilled(&self) -> bool {
        matches!(self.0, Repr::Spilled(_))
    }
}

impl Default for CountVec {
    fn default() -> Self {
        Self::new()
    }
}

impl Deref for CountVec {
    type Target = [u32];
    #[inline]
    fn deref(&self) -> &[u32] {
        self.as_slice()
    }
}

impl DerefMut for CountVec {
    fn deref_mut(&mut self) -> &mut [u32] {
        self.as_mut_slice()
    }
}

impl Index<usize> for CountVec {
    type Output = u32;
    fn index(&self, i: usize) -> &u32 {
        &self.as_slice()[i]
    }
}

impl IndexMut<usize> for CountVec {
    fn index_mut(&mut self, i: usize) -> &mut u32 {
        &mut self.as_mut_slice()[i]
    }
}

impl PartialEq for CountVec {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for CountVec {}

impl Hash for CountVec {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Same as Vec<u32>: delegate to the slice (length-prefixed), so a
        // CountVec hashes identically regardless of representation.
        self.as_slice().hash(state);
    }
}

impl PartialOrd for CountVec {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for CountVec {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl fmt::Debug for CountVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_slice(), f)
    }
}

impl From<Vec<u32>> for CountVec {
    fn from(v: Vec<u32>) -> Self {
        Self::from_vec(v)
    }
}

impl From<&[u32]> for CountVec {
    fn from(s: &[u32]) -> Self {
        Self::from_slice(s)
    }
}

impl FromIterator<u32> for CountVec {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        let mut out = Self::new();
        for v in iter {
            out.push(v);
        }
        out
    }
}

impl<'a> IntoIterator for &'a CountVec {
    type Item = &'a u32;
    type IntoIter = std::slice::Iter<'a, u32>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

// The workspace's serde is a marker-trait stub (see `shims/serde`): nothing
// serializes through it — the wire format is the hand-rolled codec in
// `jmpax-instrument`, which reads counters through `as_slice`. The impls
// keep `derive(Serialize, Deserialize)` working on containing types.
impl Serialize for CountVec {}
impl<'de> Deserialize<'de> for CountVec {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of<T: Hash>(t: &T) -> u64 {
        let mut h = DefaultHasher::new();
        t.hash(&mut h);
        h.finish()
    }

    #[test]
    fn inline_until_cap_then_spills() {
        let mut v = CountVec::new();
        for i in 0..INLINE_CAP as u32 {
            v.push(i);
            assert!(!v.is_spilled());
        }
        v.push(99);
        assert!(v.is_spilled());
        assert_eq!(v.len(), INLINE_CAP + 1);
        assert_eq!(v[INLINE_CAP], 99);
    }

    #[test]
    fn eq_and_hash_ignore_representation() {
        let wide: Vec<u32> = (0..20).collect();
        let spilled = CountVec::from_vec(wide.clone());
        assert!(spilled.is_spilled());
        let mut rebuilt = spilled.clone();
        while rebuilt.len() > 3 {
            rebuilt.pop();
        }
        let inline = CountVec::from_slice(&[0, 1, 2]);
        assert!(!inline.is_spilled());
        assert_eq!(rebuilt, inline);
        assert_eq!(hash_of(&rebuilt), hash_of(&inline));
        // And both match Vec's slice-delegated hash.
        assert_eq!(hash_of(&inline), hash_of(&vec![0u32, 1, 2]));
    }

    #[test]
    fn trailing_zeros_stay_structural() {
        // Vec semantics: [1, 2, 0] != [1, 2]. Clock normalization relies on
        // this staying structural.
        assert_ne!(
            CountVec::from_slice(&[1, 2, 0]),
            CountVec::from_slice(&[1, 2])
        );
    }

    #[test]
    fn ord_is_lexicographic_like_vec() {
        let a = CountVec::from_slice(&[1, 2]);
        let b = CountVec::from_slice(&[1, 2, 0]);
        let c = CountVec::from_slice(&[1, 3]);
        assert!(a < b);
        assert!(b < c);
        assert_eq!(
            a.cmp(&c),
            vec![1u32, 2].as_slice().cmp(vec![1u32, 3].as_slice())
        );
    }

    #[test]
    fn resize_grows_shrinks_and_spills() {
        let mut v = CountVec::zeros(3);
        v.resize(5, 7);
        assert_eq!(v.as_slice(), &[0, 0, 0, 7, 7]);
        v.resize(2, 0);
        assert_eq!(v.as_slice(), &[0, 0]);
        v.resize(INLINE_CAP + 4, 1);
        assert!(v.is_spilled());
        assert_eq!(v.len(), INLINE_CAP + 4);
        assert_eq!(v[INLINE_CAP + 3], 1);
        assert_eq!(v[0], 0);
    }

    #[test]
    fn pop_returns_last_and_empties() {
        let mut v = CountVec::from_slice(&[4, 5]);
        assert_eq!(v.pop(), Some(5));
        assert_eq!(v.pop(), Some(4));
        assert_eq!(v.pop(), None);
        assert!(v.is_empty());
    }

    #[test]
    fn zeros_picks_representation_by_width() {
        assert!(!CountVec::zeros(INLINE_CAP).is_spilled());
        assert!(CountVec::zeros(INLINE_CAP + 1).is_spilled());
        assert!(CountVec::zeros(64).iter().all(|&c| c == 0));
    }
}
