//! The next lattice level as a k-way merge of per-thread successor runs.
//!
//! A sealed level holds its cuts in ascending lexicographic order.
//! Advancing every cut enabled on thread `t` by one event of `t` keeps that
//! order, so the successors of a level split into one ascending *run* per
//! thread. Merging the runs yields the next level already sorted and
//! deduplicated: the in-edges of one successor meet at the merge head,
//! adjacent and in ascending thread order. For the in-edges of one cut,
//! ascending thread order is ascending source order (`s − e_t` grows with
//! `t` lexicographically), so every successor sees its edges in the same
//! (source cut, thread) order a walk of the level would apply them in.
//! Neither a successor index nor a sort of the next level is needed.
//!
//! The merge compares packed keys, not cuts. A [`KeyLayout`] gives each
//! thread a bit field wide enough for the level's largest count of that
//! thread plus one, thread 0 most significant, so comparing keys compares
//! cuts lexicographically, and a successor's key is its source's key plus
//! `1 << shift_t`. Fields never straddle a word; keys wider than one word
//! take several, compared most significant word first.

use jmpax_core::{Message, ThreadId};

use crate::builder::{Level, LevelExpansion, Stepper};
use crate::cut::Cut;

/// One word of a packed cut key.
type Word = u128;

/// Where each thread's count lives in a packed key.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct KeyLayout {
    /// Words per key (at least one).
    words: usize,
    /// Per thread: the word holding its field (0 is most significant) and
    /// the field's shift within that word.
    fields: Vec<(usize, u32)>,
}

impl KeyLayout {
    /// Lays out one field per thread, each wide enough to hold `max[t] + 1`
    /// (a missing entry counts as 0), thread 0 in the most significant bits
    /// of word 0. A field that does not fit the rest of a word starts the
    /// next one.
    fn fit(&mut self, max: &[u32], threads: usize) {
        self.fields.clear();
        let (mut word, mut used) = (0usize, 0u32);
        for t in 0..threads {
            let top = u64::from(max.get(t).copied().unwrap_or(0)) + 1;
            let width = u64::BITS - top.leading_zeros();
            if used + width > Word::BITS {
                word += 1;
                used = 0;
            }
            used += width;
            self.fields.push((word, Word::BITS - used));
        }
        self.words = word + 1;
    }

    /// Words per key.
    fn words(&self) -> usize {
        self.words
    }

    /// Packs `cut` into `out` (`words()` long).
    fn pack(&self, cut: &Cut, out: &mut [Word]) {
        out.fill(0);
        for (t, &(word, shift)) in self.fields.iter().enumerate() {
            out[word] |= Word::from(cut.get(ThreadId(t as u32))) << shift;
        }
    }

    /// Writes `key` advanced by one event of thread `t` into `out`.
    fn advance(&self, key: &[Word], t: usize, out: &mut [Word]) {
        out.copy_from_slice(key);
        let (word, shift) = self.fields[t];
        out[word] += 1 << shift;
    }
}

/// A sealed level's packed keys, in level order, under one layout.
#[derive(Debug, Default)]
pub(crate) struct LevelKeys {
    layout: KeyLayout,
    /// `layout.words()` words per source cut.
    keys: Vec<Word>,
}

impl LevelKeys {
    /// Packs every cut of `level` under a layout fit to the level's
    /// per-thread count maxima `max`, reusing the buffers.
    pub(crate) fn index(&mut self, level: &Level, max: &[u32], threads: usize) {
        self.layout.fit(max, threads);
        let words = self.layout.words();
        self.keys.clear();
        self.keys.resize(level.len() * words, 0);
        for ((cut, _), key) in level.iter().zip(self.keys.chunks_exact_mut(words)) {
            self.layout.pack(cut, key);
        }
    }

    /// Words per key of the indexed level.
    fn words(&self) -> usize {
        self.layout.words()
    }

    fn threads(&self) -> usize {
        self.layout.fields.len()
    }

    fn key(&self, src: usize) -> &[Word] {
        let words = self.layout.words();
        &self.keys[src * words..(src + 1) * words]
    }
}

/// The message enabled from `cut` on thread `t`, if causally consistent
/// (Theorem 3): a cut is in run `t` exactly when this is `Some`.
pub(crate) fn enabled<'a>(
    delivered: &'a [Vec<Message>],
    cut: &Cut,
    t: usize,
) -> Option<&'a Message> {
    let counts = cut.as_slice();
    let consumed = counts.get(t).copied().unwrap_or(0);
    let m = delivered.get(t)?.get(consumed as usize)?;
    let consistent = m.clock.as_slice().iter().enumerate().all(|(j, &v)| {
        if j == t {
            v == consumed + 1
        } else {
            v <= counts.get(j).copied().unwrap_or(0)
        }
    });
    consistent.then_some(m)
}

/// Reusable merge state: one run and one head per thread.
#[derive(Debug, Default)]
pub(crate) struct Heads {
    /// Per thread: those of its sources enabled on it, ascending, each
    /// with the index of the message the edge consumes.
    runs: Vec<Vec<(u32, u32)>>,
    /// Threads whose run still has a head, ascending.
    live: Vec<usize>,
    /// Per thread: the head's position in its run.
    pos: Vec<usize>,
    /// Per thread: the head successor's key.
    keys: Vec<Word>,
    /// The key of the successor created last.
    last: Vec<Word>,
}

impl Heads {
    /// Collects each thread's run and loads every head. The enabled
    /// checks take one pass over the level, so each cut is read once.
    fn start(&mut self, input: &MergeInput<'_>) {
        let keys = input.keys;
        let (threads, words) = (keys.threads(), keys.words());
        self.runs.resize_with(threads, Vec::new);
        self.runs.iter_mut().for_each(Vec::clear);
        for (src, (cut, _)) in input.level.iter().enumerate() {
            for (t, run) in self.runs.iter_mut().enumerate() {
                if enabled(input.delivered, cut, t).is_some() {
                    run.push((src as u32, cut.get(ThreadId(t as u32))));
                }
            }
        }
        self.pos.clear();
        self.pos.resize(threads, 0);
        self.keys.clear();
        self.keys.resize(threads * words, 0);
        self.last.clear();
        self.live.clear();
        for t in 0..threads {
            if self.load(keys, t) {
                self.live.push(t);
            }
        }
    }

    /// Run `t`'s head key.
    fn head(&self, t: usize, words: usize) -> &[Word] {
        &self.keys[t * words..(t + 1) * words]
    }

    /// Points run `t`'s head at its `pos[t]`-th source, if any, writing
    /// the successor's key.
    fn load(&mut self, keys: &LevelKeys, t: usize) -> bool {
        let Some(&(src, _)) = self.runs[t].get(self.pos[t]) else {
            return false;
        };
        let words = keys.words();
        let out = &mut self.keys[t * words..(t + 1) * words];
        keys.layout.advance(keys.key(src as usize), t, out);
        true
    }
}

/// `a < b` for keys of equal length.
fn less(a: &[Word], b: &[Word]) -> bool {
    for (x, y) in a.iter().zip(b) {
        if x != y {
            return x < y;
        }
    }
    false
}

/// Everything a merge reads: the sealed level, its keys, and the
/// delivered per-thread prefixes that decide which edges are enabled.
#[derive(Clone, Copy)]
pub(crate) struct MergeInput<'a> {
    pub(crate) level: &'a Level,
    pub(crate) keys: &'a LevelKeys,
    pub(crate) delivered: &'a [Vec<Message>],
}

/// Builds the next level by merging the per-thread runs, feeding every
/// edge to `out` in ascending successor order and, per successor,
/// ascending thread order. Appends the new nodes to `out`'s level in
/// ascending cut order.
pub(crate) fn merge(
    input: MergeInput<'_>,
    heads: &mut Heads,
    stepper: &mut Stepper<'_>,
    out: &mut LevelExpansion,
) {
    let keys = input.keys;
    let words = keys.words();
    heads.start(&input);
    while !heads.live.is_empty() {
        let live = &heads.live;
        // The smallest head, the lowest thread among equal keys. The
        // most significant words decide almost every comparison, so they
        // are compared first, without a branch on the outcome.
        let mut best = 0;
        let mut best_top = heads.keys[live[0] * words];
        for i in 1..live.len() {
            let t = live[i];
            let top = heads.keys[t * words];
            let below = top < best_top
                || (top == best_top
                    && words > 1
                    && less(heads.head(t, words), heads.head(live[best], words)));
            best = if below { i } else { best };
            best_top = if below { top } else { best_top };
        }
        let t = live[best];
        let (src, consumed) = heads.runs[t][heads.pos[t]];
        let new = heads.last.as_slice() != heads.head(t, words);
        if new {
            heads.last.clear();
            heads
                .last
                .extend_from_slice(&heads.keys[t * words..(t + 1) * words]);
        }
        let (cut, node) = &input.level[src as usize];
        let msg = &input.delivered[t][consumed as usize];
        out.edge(
            stepper,
            new,
            src,
            cut,
            node,
            t as u32,
            msg.var().zip(msg.written_value()),
        );
        heads.pos[t] += 1;
        if !heads.load(keys, t) {
            heads.live.remove(best);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout(max: &[u32]) -> KeyLayout {
        let mut l = KeyLayout::default();
        l.fit(max, max.len());
        l
    }

    fn key(l: &KeyLayout, counts: &[u32]) -> Vec<Word> {
        let mut out = vec![0; l.words()];
        l.pack(&Cut::from_counts(counts.to_vec()), &mut out);
        out
    }

    #[test]
    fn fields_fill_words_most_significant_first() {
        // Widths 1, 2, 3 bits: max + 1 = 1, 3, 7.
        let l = layout(&[0, 2, 6]);
        assert_eq!(l.words(), 1);
        assert_eq!(l.fields, [(0, 127), (0, 125), (0, 122)]);
        assert_eq!(key(&l, &[1, 3, 7]), [(1 << 127) | (3 << 125) | (7 << 122)]);
    }

    #[test]
    fn keys_order_like_cuts_across_the_64_and_128_bit_boundaries() {
        // 33-bit fields: thread 1 spans bits 62..95 (crossing bit 64),
        // thread 3 does not fit the 29 bits left and starts word 1.
        let big = u32::MAX - 1;
        let l = layout(&[u32::MAX; 5]);
        assert_eq!(l.words(), 2);
        assert_eq!(l.fields, [(0, 95), (0, 62), (0, 29), (1, 95), (1, 62)]);
        let cuts = [
            [0, 0, 0, 0, 0],
            [0, 0, 0, 0, big],
            [0, 0, 0, 1, 0],
            [0, 0, big, big, big],
            [0, 1, 0, 0, 0],
            [0, u32::MAX >> 1, 0, 0, 0],
            [0, (u32::MAX >> 1) + 1, 0, 0, 0],
            [0, big, 0, 0, 0],
            [1, 0, 0, 0, 0],
            [big, big, big, big, big],
        ];
        for pair in cuts.windows(2) {
            let (a, b) = (Cut::from_counts(pair[0]), Cut::from_counts(pair[1]));
            assert!(a < b);
            assert!(key(&l, &pair[0]) < key(&l, &pair[1]), "{a} vs {b}");
        }
        // Advancing adds 1 << shift in the field's own word, never carrying.
        for t in 0..5 {
            let src = key(&l, &[3, big - 1, 5, big - 1, 7]);
            let mut next = [3, big - 1, 5, big - 1, 7];
            next[t] += 1;
            let mut out = vec![0; 2];
            l.advance(&src, t, &mut out);
            assert_eq!(out, key(&l, &next), "thread {t}");
        }
    }

    #[test]
    fn a_thread_that_joined_mid_stream_packs_as_zero_and_sorts_last() {
        // The level's cuts predate thread 2; its field still gets one bit,
        // so a successor on it stays distinct and ordered.
        let l = layout(&[2, 1]);
        let mut l3 = KeyLayout::default();
        l3.fit(&[2, 1], 3);
        assert_eq!(l3.words(), 1);
        let short = Cut::from_counts(vec![1, 1]);
        let joined = short.advanced(ThreadId(2));
        let mut a = vec![0];
        let mut b = vec![0];
        l3.pack(&short, &mut a);
        l3.pack(&joined, &mut b);
        assert!(short < joined && a < b);
        let mut advanced = vec![0];
        l3.advance(&a, 2, &mut advanced);
        assert_eq!(advanced, b);
        // Without the new thread's field the two-thread layout is unchanged.
        assert_eq!(key(&l, &[1, 1]), key(&l3, &[1, 1]));
    }
}
