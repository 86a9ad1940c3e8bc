//! Fault-tolerant message reassembly: Theorem 3 against an imperfect wire.
//!
//! Theorem 3 guarantees the observer can reconstruct the causal partial
//! order from messages "delivered in any order" — its invariant that
//! `V_i[i]` is thread `i`'s per-message sequence number is what makes that
//! possible. The [`Reassembler`] pushes the same invariant further, against
//! a transport that not only permutes but also *duplicates and loses*
//! messages:
//!
//! * **reordering** — messages are keyed by `(thread, V_i[i])` and released
//!   in causal order, exactly as Theorem 3 intends;
//! * **duplication** — a second message with an already-seen sequence
//!   number is provably a duplicate and is dropped;
//! * **loss** — a hole in a thread's sequence range is a *gap*. The
//!   reassembler waits while the gap might still be in flight; once the
//!   stall budget (messages received since the gap appeared) is exhausted
//!   it commits the gap as lost and **skips** it, renumbering the surviving
//!   messages so downstream lattice construction still sees contiguous
//!   per-thread sequences — at the cost of weakened causal constraints,
//!   which is reported as a [`Exactness::Degraded`] verdict rather than
//!   hidden.
//!
//! Messages are released *online*: [`Reassembler::drain_ready`] hands out
//! every message whose causal predecessors are all committed — delivered
//! or skipped as a gap — so an observer can analyse while the stream is
//! still arriving. Only out-of-order messages and messages still waiting
//! on another thread's predecessor are buffered, never the whole session.
//!
//! Each message's clock is rewritten at release with the monotone
//! per-thread map `V'[j] = |{retained seq s of thread j : s ≤ V[j]}|`.
//! Retained messages count themselves, so every strict inequality of
//! Theorem 3 between two *surviving* messages is preserved: the causal
//! order among what was actually received is exact, and only orderings
//! through lost messages are forgotten. Releasing early is sound because
//! the map is already final for every component the message references:
//! a message is released only once every seq `≤ V[j]` of each thread `j`
//! is released or skipped, and such a seq never changes status again —
//! late arrivals inside a committed gap are dropped, and every later gap
//! lies above it.

use std::collections::{BTreeMap, VecDeque};

use jmpax_core::{Message, ThreadId, VectorClock};
use jmpax_telemetry::trace::{TraceKind, TraceRing};
use jmpax_telemetry::Registry;

/// How much an analysis result can be trusted after transport faults and
/// resource caps have taken their toll.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Exactness {
    /// Every message arrived and every consistent cut was explored: the
    /// verdict is exact.
    #[default]
    Exact,
    /// Some information was lost; verdicts are best-effort over what
    /// survived.
    Degraded {
        /// Consistent cuts pruned by a frontier cap (runs not explored).
        dropped_cuts: u64,
        /// Sequence gaps skipped by the [`Reassembler`] (messages lost in
        /// transit whose causal constraints were forgotten).
        skipped_gaps: u64,
    },
}

impl Exactness {
    /// Builds the appropriate variant, normalizing "nothing lost" to
    /// [`Exactness::Exact`].
    #[must_use]
    pub fn degraded(dropped_cuts: u64, skipped_gaps: u64) -> Self {
        if dropped_cuts == 0 && skipped_gaps == 0 {
            Exactness::Exact
        } else {
            Exactness::Degraded {
                dropped_cuts,
                skipped_gaps,
            }
        }
    }

    /// True when no information was lost.
    #[must_use]
    pub fn is_exact(&self) -> bool {
        matches!(self, Exactness::Exact)
    }

    /// Merges degradation from two pipeline stages (sums the losses).
    #[must_use]
    pub fn combine(self, other: Exactness) -> Exactness {
        let (a_cuts, a_gaps) = self.losses();
        let (b_cuts, b_gaps) = other.losses();
        Exactness::degraded(a_cuts + b_cuts, a_gaps + b_gaps)
    }

    /// `(dropped_cuts, skipped_gaps)`, zero for [`Exactness::Exact`].
    #[must_use]
    pub fn losses(&self) -> (u64, u64) {
        match *self {
            Exactness::Exact => (0, 0),
            Exactness::Degraded {
                dropped_cuts,
                skipped_gaps,
            } => (dropped_cuts, skipped_gaps),
        }
    }
}

impl std::fmt::Display for Exactness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Exactness::Exact => write!(f, "Exact"),
            Exactness::Degraded {
                dropped_cuts,
                skipped_gaps,
            } => write!(
                f,
                "Degraded ({dropped_cuts} cuts dropped, {skipped_gaps} gaps skipped)"
            ),
        }
    }
}

/// One committed sequence gap: thread `thread` never delivered sequence
/// numbers `from..=to`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct GapRecord {
    /// The thread with the hole.
    pub thread: ThreadId,
    /// First missing sequence number.
    pub from: u32,
    /// Last missing sequence number.
    pub to: u32,
}

impl GapRecord {
    /// Number of messages lost in this gap.
    #[must_use]
    pub fn width(&self) -> u64 {
        u64::from(self.to - self.from) + 1
    }
}

/// What the [`Reassembler`] did to the stream.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct ReassemblyReport {
    /// Messages offered.
    pub received: u64,
    /// Messages released downstream (deduplicated, reordered, renumbered).
    pub delivered: u64,
    /// Messages that arrived after a later same-thread message (repaired).
    pub reordered: u64,
    /// Exact duplicates dropped (same thread and sequence number).
    pub duplicates: u64,
    /// Messages that arrived after their gap had already been committed as
    /// lost — too late to use, dropped.
    pub late_dropped: u64,
    /// Every committed gap, in commit order.
    pub gaps: Vec<GapRecord>,
}

impl ReassemblyReport {
    /// Number of gaps committed as lost.
    #[must_use]
    pub fn skipped_gaps(&self) -> u64 {
        self.gaps.len() as u64
    }

    /// Total messages known to be lost inside committed gaps.
    #[must_use]
    pub fn messages_lost(&self) -> u64 {
        self.gaps.iter().map(GapRecord::width).sum()
    }

    /// Threads with at least one committed gap (deduplicated, sorted) —
    /// the threads whose causal constraints the verdict can no longer
    /// fully trust.
    #[must_use]
    pub fn affected_threads(&self) -> Vec<ThreadId> {
        let mut out: Vec<ThreadId> = self.gaps.iter().map(|g| g.thread).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The confidence level this reassembly pass contributes.
    #[must_use]
    pub fn exactness(&self) -> Exactness {
        Exactness::degraded(0, self.skipped_gaps())
    }

    /// The one loss rule: this pass's committed gaps, plus every message
    /// `upstream` lost (one skipped gap per lost frame) that no committed
    /// gap accounts for — a corrupted frame at the end of a thread's stream
    /// leaves no later message to reveal the hole. A loss is counted once;
    /// `upstream`'s dropped cuts pass through.
    #[must_use]
    pub fn exactness_after(&self, upstream: Exactness) -> Exactness {
        let (cuts, lost) = upstream.losses();
        let unaccounted = lost.saturating_sub(self.messages_lost());
        Exactness::degraded(cuts, self.skipped_gaps() + unaccounted)
    }

    /// Publishes `resilience.msgs_reordered`, `resilience.msgs_duplicate`
    /// and `resilience.gaps_skipped` into `registry`.
    pub fn record(&self, registry: &Registry) {
        registry
            .counter("resilience.msgs_reordered")
            .add(self.reordered);
        registry
            .counter("resilience.msgs_duplicate")
            .add(self.duplicates + self.late_dropped);
        registry
            .counter("resilience.gaps_skipped")
            .add(self.skipped_gaps());
    }
}

/// One committed gap of a thread, as the clock remap sees it.
#[derive(Clone, Copy, Debug)]
struct Skipped {
    from: u32,
    to: u32,
    /// Sequence numbers skipped by this thread's earlier gaps.
    before: u64,
}

impl Skipped {
    fn width(&self) -> u64 {
        u64::from(self.to - self.from) + 1
    }
}

/// Per-thread reassembly state.
#[derive(Clone, Debug, Default)]
struct ThreadState {
    /// Committed messages not yet released, tagged with their arrival
    /// index, in sequence order.
    ready: VecDeque<(u64, Message)>,
    /// Committed gaps in sequence order. Every seq `≤ committed` outside
    /// them was retained, so they alone define the clock remap.
    gaps: Vec<Skipped>,
    /// Out-of-order arrivals waiting for their predecessors.
    pending: BTreeMap<u32, (u64, Message)>,
    /// Highest sequence number committed (delivered or skipped).
    committed: u32,
    /// Highest sequence number ever seen from this thread.
    max_seen: u32,
    /// Messages received (stream-wide) since this thread became blocked on
    /// a gap; `None` while not blocked.
    gap_age: Option<u64>,
}

impl ThreadState {
    /// Commits every now-contiguous pending message.
    fn drain_contiguous(&mut self) {
        while let Some(entry) = self
            .committed
            .checked_add(1)
            .and_then(|next| self.pending.remove(&next))
        {
            self.committed += 1;
            self.ready.push_back(entry);
        }
        if self.pending.is_empty() {
            self.gap_age = None;
        }
    }

    /// True when the next expected sequence number is missing while later
    /// ones wait.
    fn blocked(&self) -> bool {
        self.pending
            .keys()
            .next()
            .is_some_and(|&s| u64::from(s) > u64::from(self.committed) + 1)
    }

    /// The highest seq `s` such that every seq `≤ s` of this thread has
    /// been released or skipped.
    fn released_through(&self) -> u32 {
        self.ready
            .front()
            .map_or(self.committed, |(_, m)| m.seq() - 1)
    }

    /// True when `seq` lies inside a committed gap.
    fn is_skipped(&self, seq: u32) -> bool {
        let i = self.gaps.partition_point(|g| g.from <= seq);
        i > 0 && self.gaps[i - 1].to >= seq
    }

    /// `|{retained seq s : s ≤ v}|` — the remapped clock component. Final
    /// once `v ≤ committed`.
    fn retained_through(&self, v: u32) -> u32 {
        let i = self.gaps.partition_point(|g| g.from <= v);
        let skipped = i.checked_sub(1).map_or(0, |k| {
            let g = self.gaps[k];
            g.before + u64::from(v.min(g.to) - g.from) + 1
        });
        (u64::from(v) - skipped) as u32
    }

    /// Adds the gap `from..=to` to the remap, keeping sequence order.
    fn add_gap(&mut self, from: u32, to: u32) {
        let at = self.gaps.partition_point(|g| g.from < from);
        self.gaps.insert(
            at,
            Skipped {
                from,
                to,
                before: 0,
            },
        );
        let mut before = at
            .checked_sub(1)
            .map_or(0, |k| self.gaps[k].before + self.gaps[k].width());
        for g in &mut self.gaps[at..] {
            g.before = before;
            before += g.width();
        }
    }
}

/// Reassembles a faulty message stream into valid lattice input.
///
/// Push every received message (any order, duplicates welcome). Call
/// [`Reassembler::drain_ready`] whenever convenient to take the messages
/// that are already causally ready, and [`Reassembler::finish`] at the end
/// of the stream for the rest. Together they yield a deduplicated, causally
/// ordered message sequence with contiguous per-thread sequence numbers —
/// exactly what [`crate::LatticeInput::from_messages`] requires — plus a
/// [`ReassemblyReport`] accounting for everything the transport did.
#[derive(Clone, Debug)]
pub struct Reassembler {
    threads: Vec<ThreadState>,
    /// Messages released as they arrived, not yet handed out.
    released: Vec<Message>,
    pub(crate) stall_budget: u64,
    arrivals: u64,
    report: ReassemblyReport,
    /// Trace lane `resilience`: one [`TraceKind::GapSkipped`] instant per
    /// committed gap. Disabled (free) unless the owning
    /// [`crate::AnalysisSuite`] reports into a traced registry.
    pub(crate) trace_ring: TraceRing,
}

/// Default stall budget: a gap survives this many subsequent arrivals
/// before being committed as lost.
pub const DEFAULT_STALL_BUDGET: u64 = 64;

impl Default for Reassembler {
    fn default() -> Self {
        Self::new()
    }
}

impl Reassembler {
    /// A reassembler with the default stall budget.
    #[must_use]
    pub fn new() -> Self {
        Self::with_stall_budget(DEFAULT_STALL_BUDGET)
    }

    /// A reassembler committing gaps after `stall_budget` stream-wide
    /// arrivals fail to fill them. A budget of `0` skips gaps eagerly (no
    /// tolerance for reordering across a gap); large budgets trade memory
    /// and latency for a better chance of late fills.
    #[must_use]
    pub fn with_stall_budget(stall_budget: u64) -> Self {
        Self {
            threads: Vec::new(),
            released: Vec::new(),
            stall_budget,
            arrivals: 0,
            report: ReassemblyReport::default(),
            trace_ring: TraceRing::disabled(),
        }
    }

    fn thread_mut(&mut self, t: ThreadId) -> &mut ThreadState {
        if self.threads.len() <= t.index() {
            self.threads
                .resize_with(t.index() + 1, ThreadState::default);
        }
        &mut self.threads[t.index()]
    }

    /// Offers one received message. A message that arrives in order while
    /// nothing is buffered is released at once; the next
    /// [`Reassembler::drain_ready`] hands it out.
    pub fn push(&mut self, message: Message) {
        if let Some(m) = self.offer(message) {
            self.released.push(m);
        }
    }

    /// [`Reassembler::push`], handing the message straight back when it
    /// is released on arrival instead of holding it for
    /// [`Reassembler::drain_ready`]. Such a message precedes everything a
    /// later drain releases.
    pub(crate) fn offer(&mut self, message: Message) -> Option<Message> {
        let mut released = None;
        self.report.received += 1;
        self.arrivals += 1;
        let arrival = self.arrivals;
        let t = message.thread();
        let seq = message.seq();
        if seq == 0 {
            // Algorithm A numbers messages from 1; a zero sequence is not
            // attributable to any position and can never be delivered.
            self.report.late_dropped += 1;
        } else {
            let state = self.thread_mut(t);
            if seq < state.max_seen {
                self.report.reordered += 1;
            }
            let state = self.thread_mut(t);
            state.max_seen = state.max_seen.max(seq);
            if seq <= state.committed {
                // Either already delivered (duplicate) or inside a gap we
                // gave up on (late arrival).
                if state.is_skipped(seq) {
                    self.report.late_dropped += 1;
                } else {
                    self.report.duplicates += 1;
                }
            } else if seq == state.committed + 1 && state.pending.is_empty() {
                // In order: commit directly. When nothing else is held and
                // every cause is released, it is the earliest ready
                // arrival: release it at once.
                state.committed = seq;
                if self.releasable_on_arrival(t, &message) {
                    released = Some(self.remap(message));
                } else {
                    self.threads[t.index()].ready.push_back((arrival, message));
                }
            } else if let std::collections::btree_map::Entry::Vacant(slot) =
                state.pending.entry(seq)
            {
                slot.insert((arrival, message));
                state.drain_contiguous();
                if state.blocked() && state.gap_age.is_none() {
                    state.gap_age = Some(arrival);
                }
            } else {
                self.report.duplicates += 1;
            }
        }
        self.age_gaps();
        released
    }

    /// Offers many messages in arrival order.
    pub fn push_all(&mut self, messages: impl IntoIterator<Item = Message>) {
        for m in messages {
            self.push(m);
        }
    }

    /// Commits every gap whose stall budget is exhausted.
    fn age_gaps(&mut self) {
        let now = self.arrivals;
        let budget = self.stall_budget;
        for t in 0..self.threads.len() {
            let state = &self.threads[t];
            let expired =
                state.blocked() && state.gap_age.is_some_and(|since| now - since > budget);
            if expired {
                self.skip_gap(ThreadId(t as u32));
            }
        }
    }

    /// Commits thread `t`'s first gap as lost and drains what it unblocks.
    fn skip_gap(&mut self, t: ThreadId) {
        let state = &self.threads[t.index()];
        let Some(&next) = state.pending.keys().next() else {
            return;
        };
        debug_assert!(next > state.committed + 1);
        self.commit_gap(t, state.committed + 1, next - 1);
        let state = &mut self.threads[t.index()];
        state.gap_age = None;
        state.drain_contiguous();
        if state.blocked() {
            // Another gap right behind the first: restart its clock now.
            state.gap_age = Some(self.arrivals);
        }
    }

    /// Records thread `t`'s sequence numbers `from..=to` as lost.
    fn commit_gap(&mut self, t: ThreadId, from: u32, to: u32) {
        self.report.gaps.push(GapRecord {
            thread: t,
            from,
            to,
        });
        self.trace_ring.record(TraceKind::GapSkipped {
            thread: t.0,
            from,
            to,
        });
        let state = self.thread_mut(t);
        state.add_gap(from, to);
        state.committed = state.committed.max(to);
    }

    /// Releases every committed message whose causal predecessors are all
    /// released or skipped, in a causal delivery order, with its clock
    /// remapped past the gaps committed so far. Messages that are still
    /// waiting stay buffered for a later call or for
    /// [`Reassembler::finish`].
    ///
    /// Among ready messages the earliest arrival goes first, so a stream
    /// that arrives in a causal order is released in arrival order.
    pub fn drain_ready(&mut self) -> Vec<Message> {
        let mut out = std::mem::take(&mut self.released);
        while let Some(t) = self.next_ready() {
            out.push(self.release(t));
        }
        out
    }

    /// True when nothing is buffered and every causal predecessor of
    /// thread `t`'s just-committed `message` is released.
    fn releasable_on_arrival(&self, t: ThreadId, message: &Message) -> bool {
        self.threads
            .iter()
            .all(|s| s.ready.is_empty() && s.pending.is_empty())
            && message
                .clock
                .iter()
                .all(|(j, v)| j == t || v <= self.threads.get(j.index()).map_or(0, |s| s.committed))
    }

    /// The thread whose buffered head is causally ready and arrived first.
    fn next_ready(&self) -> Option<usize> {
        self.threads
            .iter()
            .enumerate()
            .filter_map(|(t, s)| s.ready.front().map(|(arrival, m)| (*arrival, t, m)))
            .filter(|&(_, t, m)| {
                m.clock.iter().all(|(j, v)| {
                    j.index() == t
                        || v <= self
                            .threads
                            .get(j.index())
                            .map_or(0, ThreadState::released_through)
                })
            })
            .min_by_key(|&(arrival, _, _)| arrival)
            .map(|(_, t, _)| t)
    }

    /// Pops thread `t`'s head and releases it.
    fn release(&mut self, t: usize) -> Message {
        let (_, message) = self.threads[t]
            .ready
            .pop_front()
            .expect("next_ready names a thread with a buffered head");
        self.remap(message)
    }

    /// Counts `message` delivered and rewrites its clock with
    /// `V'[j] = |{retained seq s of thread j : s ≤ V[j]}|`.
    fn remap(&mut self, mut message: Message) -> Message {
        if !self.report.gaps.is_empty() {
            let components: Vec<u32> = message
                .clock
                .iter()
                .map(|(j, v)| {
                    self.threads
                        .get(j.index())
                        .map_or(v, |s| s.retained_through(v))
                })
                .collect();
            message.clock = VectorClock::from_components(components);
        }
        self.report.delivered += 1;
        message
    }

    /// Ends the stream: commits every remaining gap, then drains. Returns
    /// the messages no [`Reassembler::drain_ready`] call has taken yet, in
    /// a causally consistent delivery order, together with the fault
    /// accounting for the whole stream.
    ///
    /// When nothing was lost and the stream arrived in a causal order, the
    /// messages come back in arrival order with clocks untouched — a clean
    /// stream passes through byte-identical.
    #[must_use]
    pub fn finish(mut self) -> (Vec<Message>, ReassemblyReport) {
        for t in 0..self.threads.len() {
            while self.threads[t].blocked() {
                self.skip_gap(ThreadId(t as u32));
            }
        }
        // A sequence number that a buffered clock references but that never
        // arrived was lost at the tail of its thread: Algorithm A numbers
        // only messages it emits.
        let mut referenced: Vec<u32> = Vec::new();
        for (_, m) in self.threads.iter().flat_map(|s| &s.ready) {
            for (j, v) in m.clock.iter() {
                if referenced.len() <= j.index() {
                    referenced.resize(j.index() + 1, 0);
                }
                referenced[j.index()] = referenced[j.index()].max(v);
            }
        }
        for (j, v) in referenced.into_iter().enumerate() {
            let t = ThreadId(j as u32);
            let committed = self.thread_mut(t).committed;
            if v > committed {
                self.commit_gap(t, committed + 1, v);
            }
        }
        let mut out = self.drain_ready();
        // Whatever is still buffered waits on itself: a causal cycle, which
        // no Algorithm A clocks contain. Drop its earliest arrival as a
        // one-message gap until the cycle is broken.
        while let Some((_, t)) = self
            .threads
            .iter()
            .enumerate()
            .filter_map(|(t, s)| s.ready.front().map(|(arrival, _)| (*arrival, t)))
            .min()
        {
            let (_, m) = self.threads[t].ready.pop_front().expect("buffered head");
            self.commit_gap(m.thread(), m.seq(), m.seq());
            out.extend(self.drain_ready());
        }
        (out, self.report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jmpax_core::{Event, MvcInstrumentor, Relevance, VarId};

    const X: VarId = VarId(0);

    /// A causally chained stream: each write of `x` reads the previous one.
    fn chained(n: usize, threads: u32) -> Vec<Message> {
        let mut a = MvcInstrumentor::new(threads as usize, Relevance::AllWrites);
        (0..n)
            .map(|i| {
                let t = ThreadId(i as u32 % threads);
                a.process(&Event::read(t, X));
                a.process(&Event::write(t, X, i as i64)).unwrap()
            })
            .collect()
    }

    #[test]
    fn clean_stream_passes_through_unchanged() {
        let msgs = chained(12, 3);
        let mut r = Reassembler::new();
        r.push_all(msgs.clone());
        let (out, report) = r.finish();
        assert_eq!(out, msgs);
        assert_eq!(report.received, 12);
        assert_eq!(report.delivered, 12);
        assert_eq!(report.exactness(), Exactness::Exact);
        assert!(report.gaps.is_empty());
        assert_eq!(
            report.reordered + report.duplicates + report.late_dropped,
            0
        );
    }

    #[test]
    fn reordering_is_repaired() {
        let msgs = chained(10, 2);
        let mut shuffled = msgs.clone();
        shuffled.reverse();
        let mut r = Reassembler::new();
        r.push_all(shuffled);
        let (out, report) = r.finish();
        assert_eq!(report.reordered, 8, "per-thread inversions counted");
        assert_eq!(report.exactness(), Exactness::Exact);
        assert_eq!(out.len(), msgs.len());
        // Causal delivery: no message before its cause.
        for i in 0..out.len() {
            for j in (i + 1)..out.len() {
                assert!(!out[j].causally_precedes(&out[i]));
            }
        }
    }

    #[test]
    fn duplicates_are_dropped() {
        let msgs = chained(6, 2);
        let mut r = Reassembler::new();
        r.push_all(msgs.clone());
        r.push_all(msgs.iter().take(3).cloned());
        let (out, report) = r.finish();
        assert_eq!(out, msgs);
        assert_eq!(report.duplicates, 3);
        assert_eq!(report.exactness(), Exactness::Exact);
    }

    #[test]
    fn gap_is_skipped_after_stall_budget() {
        let msgs = chained(20, 2);
        // Lose T1's second message (seq 2).
        let lossy: Vec<Message> = msgs
            .iter()
            .filter(|m| !(m.thread() == ThreadId(0) && m.seq() == 2))
            .cloned()
            .collect();
        let mut r = Reassembler::with_stall_budget(4);
        r.push_all(lossy);
        let (out, report) = r.finish();
        assert_eq!(
            report.gaps,
            vec![GapRecord {
                thread: ThreadId(0),
                from: 2,
                to: 2
            }]
        );
        assert_eq!(report.exactness(), Exactness::degraded(0, 1));
        assert_eq!(report.affected_threads(), vec![ThreadId(0)]);
        assert_eq!(out.len(), 19);
        // Survivors renumber contiguously: valid lattice input.
        let input =
            crate::LatticeInput::from_messages(out.clone(), jmpax_spec::ProgramState::new());
        assert!(input.is_ok(), "renumbered stream must validate: {input:?}");
        // And the causal order among survivors is preserved.
        for i in 0..out.len() {
            for j in (i + 1)..out.len() {
                assert!(!out[j].causally_precedes(&out[i]));
            }
        }
    }

    #[test]
    fn gap_fill_within_budget_is_lossless() {
        let msgs = chained(10, 2);
        // Deliver T1 seq 2 late, but within the budget.
        let mut delayed = msgs.clone();
        let pos = delayed
            .iter()
            .position(|m| m.thread() == ThreadId(0) && m.seq() == 2)
            .unwrap();
        let held = delayed.remove(pos);
        delayed.push(held);
        let mut r = Reassembler::with_stall_budget(64);
        r.push_all(delayed);
        let (out, report) = r.finish();
        assert!(report.gaps.is_empty());
        assert_eq!(report.exactness(), Exactness::Exact);
        assert_eq!(out.len(), 10);
    }

    #[test]
    fn late_arrival_after_skip_is_dropped() {
        let msgs = chained(20, 2);
        let pos = msgs
            .iter()
            .position(|m| m.thread() == ThreadId(0) && m.seq() == 2)
            .unwrap();
        let mut lossy = msgs.clone();
        let held = lossy.remove(pos);
        lossy.push(held); // arrives after ~18 later messages
        let mut r = Reassembler::with_stall_budget(2);
        r.push_all(lossy);
        let (out, report) = r.finish();
        assert_eq!(report.late_dropped, 1);
        assert_eq!(report.skipped_gaps(), 1);
        assert_eq!(out.len(), 19);
    }

    #[test]
    fn clean_stream_is_released_online_in_arrival_order() {
        let msgs = chained(12, 3);
        let mut r = Reassembler::new();
        for m in &msgs {
            r.push(m.clone());
            assert_eq!(r.drain_ready(), vec![m.clone()]);
        }
        let (tail, report) = r.finish();
        assert!(tail.is_empty());
        assert_eq!(report.delivered, 12);
        assert_eq!(report.exactness(), Exactness::Exact);
    }

    #[test]
    fn delivery_respects_causality_for_every_permutation() {
        // 4 messages with a diamond causal structure (paper Fig. 6).
        let mut a = MvcInstrumentor::new(2, Relevance::AllWrites);
        let (t1, t2) = (ThreadId(0), ThreadId(1));
        let (y, z) = (VarId(1), VarId(2));
        let mut msgs = Vec::new();
        a.process(&Event::read(t1, X));
        msgs.push(a.process(&Event::write(t1, X, 0)).unwrap());
        a.process(&Event::read(t2, X));
        msgs.push(a.process(&Event::write(t2, z, 1)).unwrap());
        a.process(&Event::read(t1, X));
        msgs.push(a.process(&Event::write(t1, y, 1)).unwrap());
        a.process(&Event::read(t2, X));
        msgs.push(a.process(&Event::write(t2, X, 1)).unwrap());

        // All 24 arrival orders release all 4 messages online, causally.
        let perms = permutations(4);
        assert_eq!(perms.len(), 24);
        for perm in perms {
            let mut r = Reassembler::with_stall_budget(u64::MAX);
            let mut out = Vec::new();
            for &i in &perm {
                r.push(msgs[i].clone());
                out.extend(r.drain_ready());
            }
            let (tail, report) = r.finish();
            assert!(tail.is_empty(), "perm {perm:?} left {tail:?}");
            assert_eq!(out.len(), 4, "perm {perm:?} lost messages");
            assert_eq!(report.exactness(), Exactness::Exact);
            for i in 0..4 {
                for j in (i + 1)..4 {
                    assert!(
                        !out[j].causally_precedes(&out[i]),
                        "perm {perm:?}: released {} before its cause {}",
                        out[i],
                        out[j],
                    );
                }
            }
        }
    }

    /// Heap's algorithm: every permutation of `0..n`.
    fn permutations(n: usize) -> Vec<Vec<usize>> {
        fn heap(items: &mut Vec<usize>, k: usize, out: &mut Vec<Vec<usize>>) {
            if k <= 1 {
                out.push(items.clone());
                return;
            }
            for i in 0..k {
                heap(items, k - 1, out);
                if k.is_multiple_of(2) {
                    items.swap(i, k - 1);
                } else {
                    items.swap(0, k - 1);
                }
            }
        }
        let mut out = Vec::new();
        heap(&mut (0..n).collect(), n, &mut out);
        out
    }

    #[test]
    fn concurrent_messages_are_released_on_arrival() {
        let mut a = MvcInstrumentor::new(2, Relevance::AllWrites);
        let m1 = a.process(&Event::write(ThreadId(0), X, 1)).unwrap();
        let m2 = a.process(&Event::write(ThreadId(1), VarId(1), 2)).unwrap();
        assert!(m1.concurrent_with(&m2));
        let mut r = Reassembler::new();
        r.push(m2.clone());
        assert_eq!(r.drain_ready(), vec![m2]);
        r.push(m1.clone());
        assert_eq!(r.drain_ready(), vec![m1]);
    }

    #[test]
    fn upstream_losses_count_once() {
        let report = ReassemblyReport {
            gaps: vec![GapRecord {
                thread: ThreadId(0),
                from: 2,
                to: 3,
            }],
            ..ReassemblyReport::default()
        };
        // Both lost frames sit inside the committed gap: counted by it.
        assert_eq!(
            report.exactness_after(Exactness::degraded(0, 2)),
            Exactness::degraded(0, 1)
        );
        // A third, unseen loss adds one gap; dropped cuts pass through.
        assert_eq!(
            report.exactness_after(Exactness::degraded(5, 3)),
            Exactness::degraded(5, 2)
        );
        assert_eq!(
            ReassemblyReport::default().exactness_after(Exactness::Exact),
            Exactness::Exact
        );
    }

    #[test]
    fn release_waits_for_a_cross_thread_cause() {
        let msgs = chained(2, 2);
        let mut r = Reassembler::new();
        r.push(msgs[1].clone());
        assert!(r.drain_ready().is_empty(), "T1 read T0's write first");
        r.push(msgs[0].clone());
        assert_eq!(r.drain_ready(), msgs);
        let (tail, report) = r.finish();
        assert!(tail.is_empty());
        assert_eq!(report.reordered, 0, "per-thread order was never violated");
    }

    #[test]
    fn lost_tail_referenced_by_a_survivor_is_a_gap() {
        let msgs = chained(5, 2);
        // T1's last message (seq 2) is lost; T0's last one read it.
        let lossy: Vec<Message> = msgs
            .iter()
            .filter(|m| !(m.thread() == ThreadId(1) && m.seq() == 2))
            .cloned()
            .collect();
        let mut r = Reassembler::new();
        r.push_all(lossy);
        let online = r.drain_ready();
        assert_eq!(online.len(), 3, "the survivor waits for the lost message");
        let (tail, report) = r.finish();
        assert_eq!(
            report.gaps,
            vec![GapRecord {
                thread: ThreadId(1),
                from: 2,
                to: 2
            }]
        );
        assert_eq!(tail.len(), 1);
        assert_eq!(tail[0].clock.as_slice(), &[3, 1], "remapped past the gap");
    }

    #[test]
    fn causal_cycles_are_broken_as_gaps() {
        // Two messages that each claim to follow the other: impossible for
        // Algorithm A, so only hostile input can send them.
        let a = Message {
            event: Event::write(ThreadId(0), X, 1i64),
            clock: VectorClock::from_components(vec![1, 1]),
        };
        let b = Message {
            event: Event::write(ThreadId(1), X, 2i64),
            clock: VectorClock::from_components(vec![1, 1]),
        };
        let mut r = Reassembler::new();
        r.push_all([a, b]);
        assert!(r.drain_ready().is_empty());
        let (out, report) = r.finish();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].clock.as_slice(), &[0, 1]);
        assert_eq!(report.skipped_gaps(), 1);
        assert_eq!(report.delivered, 1);
    }

    #[test]
    fn zero_seq_is_rejected() {
        let mut r = Reassembler::new();
        r.push(Message {
            event: Event::write(ThreadId(0), X, 1i64),
            clock: jmpax_core::VectorClock::new(),
        });
        let (out, report) = r.finish();
        assert!(out.is_empty());
        assert_eq!(report.late_dropped, 1);
    }

    #[test]
    fn exactness_combines_and_normalizes() {
        assert_eq!(Exactness::degraded(0, 0), Exactness::Exact);
        assert!(Exactness::Exact.is_exact());
        let d = Exactness::degraded(3, 0).combine(Exactness::degraded(0, 2));
        assert_eq!(
            d,
            Exactness::Degraded {
                dropped_cuts: 3,
                skipped_gaps: 2
            }
        );
        assert_eq!(d.to_string(), "Degraded (3 cuts dropped, 2 gaps skipped)");
        assert_eq!(Exactness::Exact.combine(Exactness::Exact), Exactness::Exact);
    }

    #[test]
    fn telemetry_counters_are_published() {
        let registry = Registry::enabled();
        let report = ReassemblyReport {
            received: 10,
            delivered: 7,
            reordered: 2,
            duplicates: 1,
            late_dropped: 1,
            gaps: vec![GapRecord {
                thread: ThreadId(1),
                from: 3,
                to: 4,
            }],
        };
        report.record(&registry);
        let text = registry.snapshot().to_text();
        assert!(text.contains("resilience.msgs_reordered"), "{text}");
        assert!(text.contains("resilience.msgs_duplicate"), "{text}");
        assert!(text.contains("resilience.gaps_skipped"), "{text}");
    }
}
