//! Persistent work-stealing pool for sharded parallel expansion of one
//! streaming-frontier level.
//!
//! The level-by-level loop of [`crate::StreamingAnalyzer`] is the hottest
//! code in the pipeline: every cut of the sealed level expands into up to
//! `threads` successors, and every successor steps every alive monitor
//! memory. An [`ExpansionPool`] owns a set of long-lived worker threads —
//! spawned once, parked on their task channels between levels — and runs
//! each level in two phases connected by channels:
//!
//! 1. **Expand** — the sorted source cuts are split into many contiguous
//!    chunks (several per worker); workers *steal* chunks from a shared
//!    atomic cursor, so a worker slowed by a skewed chunk sheds the rest
//!    of the level to its siblings. Each enabled successor (an owned
//!    [`Contribution`] carrying its source's index) is routed to the
//!    worker owning `hash(successor) % workers`, batched per chunk and
//!    target and tagged with the chunk index.
//! 2. **Merge** — each worker owns a disjoint slice of the successor cut
//!    space (a sharded seen-set, so deduplication needs no locks). It
//!    orders the incoming buckets by chunk index and applies them; the
//!    successor's state (computed once per node — states are uniquely
//!    determined by the cut) and all monitor stepping happen here,
//!    through a per-shard [`StepCache`] when the analyzer enables it.
//!
//! # Determinism
//!
//! The merge order is the linchpin: the sequential path applies
//! contributions in ascending `(source cut, thread)` order. Chunks are
//! contiguous slices of the *sorted* source list, every bucket preserves
//! its chunk's walk order, and each shard concatenates its buckets in
//! ascending chunk index — reproducing exactly that global order no
//! matter which worker stole which chunk. Monitor memories are stepped in
//! sorted order on both paths, and the step cache memoizes a pure
//! function, so it can only collapse work, never change a result. Every
//! output is therefore bit-identical to the sequential path regardless of
//! worker count or steal schedule: new-node states (first contribution
//! wins, and "first" is a total order, not hash-map luck), alive/dead
//! memory sets, counterexample parents, violation seeds, and all logical
//! counters. Run counts are sums, which no application order can change.
//! Only the `lattice.parallel.*` metrics (steals, park times, shard
//! widths) and the physical `spec.formula_evals` / `spec.eval_cache_hits`
//! split reflect the schedule.

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::Instant;

use jmpax_core::{Message, ThreadId, Value, VarId};
use jmpax_spec::{Monitor, StepCache};
use jmpax_telemetry::trace::{TraceKind, TraceRing};
use jmpax_telemetry::{Counter, Stage};

use crate::builder::{Level, LevelExpansion, Stepper, Successors};
use crate::cut::Cut;

/// Chunks handed out per worker: oversubscription is what makes stealing
/// possible. More chunks mean finer-grained balancing but more bucket
/// traffic; 4 recovers most of the skew at negligible overhead.
const CHUNKS_PER_WORKER: usize = 4;

/// Everything the pool's workers need for one level, shared behind one
/// `Arc`. Built by the analyzer, reclaimed (sources included) after every
/// worker has reported.
pub(crate) struct LevelShared {
    /// The sealed level in ascending cut order. Indexed by
    /// [`Contribution::src`].
    pub sources: Level,
    /// Causally delivered messages per thread (contiguous prefixes).
    pub delivered: Arc<Vec<Vec<Message>>>,
    /// The property monitor; stepping is `&self`.
    pub monitor: Arc<Monitor>,
    /// Declared thread count of the computation.
    pub threads: usize,
    /// Engaged worker count for this level (also the shard count).
    pub workers: usize,
    /// Level index being sealed, for trace records.
    pub level: u64,
    /// Memoize monitor steps through a per-shard [`StepCache`].
    pub eval_cache: bool,
    /// `spec.eval_cache_hits`, cloned into each shard's cache.
    pub cache_hits: Counter,
    /// Source cuts per steal chunk.
    pub chunk: usize,
    /// Total steal chunks (`ceil(sources / chunk)`).
    pub chunks: usize,
    /// Chunks per worker under a fair static split; anything a worker
    /// takes beyond this counts as a steal.
    pub fair_share: usize,
    /// The steal cursor: next chunk index to claim.
    pub cursor: AtomicUsize,
}

impl LevelShared {
    /// Splits `sources` (already sorted ascending) into steal chunks and
    /// packages one level for the pool.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        sources: Level,
        delivered: Arc<Vec<Vec<Message>>>,
        monitor: Arc<Monitor>,
        threads: usize,
        workers: usize,
        level: u64,
        eval_cache: bool,
        cache_hits: Counter,
    ) -> Self {
        let chunk = sources
            .len()
            .div_ceil(workers * CHUNKS_PER_WORKER)
            .max(1);
        let chunks = sources.len().div_ceil(chunk);
        Self {
            sources,
            delivered,
            monitor,
            threads,
            workers,
            level,
            eval_cache,
            cache_hits,
            chunk,
            chunks,
            fair_share: chunks.div_ceil(workers),
            cursor: AtomicUsize::new(0),
        }
    }
}

/// One `(source, thread)` expansion: the source is an index into
/// [`LevelShared::sources`], so only the successor cut is owned. The
/// successor's state and the monitor steps are deferred to the merge
/// phase, which performs state computation once per *node* rather than
/// once per edge.
struct Contribution {
    src: u32,
    thread: u32,
    succ: Cut,
    /// The write the consumed message applies; `None` for relevant
    /// non-write messages (exotic relevance policies), which stutter.
    update: Option<(VarId, Value)>,
}

/// A batch of contributions for one target shard, tagged with the steal
/// chunk that produced it (the merge sort key).
type Bucket = (usize, Vec<Contribution>);

/// What one shard hands back to the analyzer after expand + merge.
pub(crate) struct ShardReport {
    /// This shard's slice of the next level (disjoint from all others),
    /// its violation seeds in application order, and its counts.
    pub expansion: LevelExpansion,
    /// Source cuts this worker expanded (its chunks' total width).
    pub assigned: u64,
    /// Chunks claimed beyond the fair static share.
    pub steals: u64,
    /// Nanoseconds this worker sat parked before picking up the level.
    pub park_ns: u64,
    /// Wall time of the merge phase, nanoseconds.
    pub merge_ns: u64,
}

/// One unit of pool work: expand-and-merge one shard of one level.
struct ShardTask {
    shared: Arc<LevelShared>,
    shard: usize,
    txs: Vec<mpsc::Sender<Bucket>>,
    rx: mpsc::Receiver<Bucket>,
    ring: TraceRing,
    report: mpsc::Sender<(usize, ShardReport)>,
}

/// A persistent pool of expansion workers.
///
/// Workers are spawned once and parked on their task channels between
/// levels (a blocking `recv`, measured as `lattice.parallel.park_ns`), so
/// per-level cost is a channel send instead of a thread spawn. One pool
/// can serve many analyzers: [`crate::SuiteBuilder::pool`]
/// shares it, and an internal lease serializes levels so shards of
/// different levels never interleave on the same workers (a level's merge
/// phase must be co-scheduled with its own expansion phase). Dropping the
/// pool closes the task channels and joins every worker.
pub struct ExpansionPool {
    txs: Vec<mpsc::Sender<ShardTask>>,
    handles: Vec<thread::JoinHandle<()>>,
    /// Held for the duration of one level; see the type docs.
    lease: Mutex<()>,
}

impl ExpansionPool {
    /// Spawns `size` (at least 1) parked worker threads.
    #[must_use]
    pub fn new(size: usize) -> Self {
        let size = size.max(1);
        let mut txs = Vec::with_capacity(size);
        let mut handles = Vec::with_capacity(size);
        for w in 0..size {
            let (tx, rx) = mpsc::channel::<ShardTask>();
            txs.push(tx);
            handles.push(
                thread::Builder::new()
                    .name(format!("jmpax-expand-{w}"))
                    .spawn(move || worker_main(&rx))
                    .expect("spawn expansion worker"),
            );
        }
        Self {
            txs,
            handles,
            lease: Mutex::new(()),
        }
    }

    /// Number of worker threads.
    #[must_use]
    pub fn size(&self) -> usize {
        self.txs.len()
    }

    /// Runs one level on workers `0..shared.workers` and returns their
    /// reports in shard order. `rings` carries one trace ring per engaged
    /// shard (disabled rings are free).
    pub(crate) fn expand(&self, shared: &Arc<LevelShared>, rings: Vec<TraceRing>) -> Vec<ShardReport> {
        let workers = shared.workers;
        debug_assert!(workers >= 1 && workers <= self.size() && rings.len() == workers);
        let _lease = self.lease.lock().expect("expansion pool lease");
        let (bucket_txs, bucket_rxs): (Vec<_>, Vec<_>) =
            (0..workers).map(|_| mpsc::channel::<Bucket>()).unzip();
        let (report_tx, report_rx) = mpsc::channel();
        for (shard, (rx, ring)) in bucket_rxs.into_iter().zip(rings).enumerate() {
            let task = ShardTask {
                shared: Arc::clone(shared),
                shard,
                txs: bucket_txs.clone(),
                rx,
                ring,
                report: report_tx.clone(),
            };
            self.txs[shard].send(task).expect("pool worker alive");
        }
        // Workers hold clones; dropping the originals lets every merge
        // phase's receive loop (and the report collection below) finish.
        drop(bucket_txs);
        drop(report_tx);
        let mut reports: Vec<(usize, ShardReport)> = report_rx.iter().collect();
        debug_assert_eq!(reports.len(), workers, "a pool worker died mid-level");
        reports.sort_unstable_by_key(|&(shard, _)| shard);
        reports.into_iter().map(|(_, r)| r).collect()
    }
}

impl Drop for ExpansionPool {
    fn drop(&mut self) {
        // Closing the channels unparks every worker with a disconnect.
        self.txs.clear();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl fmt::Debug for ExpansionPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExpansionPool")
            .field("size", &self.size())
            .finish()
    }
}

/// The park-run loop of one pool worker: block on the task channel
/// (that's the park — its duration is reported with the next task), run,
/// repeat until the pool drops the channel.
fn worker_main(rx: &mpsc::Receiver<ShardTask>) {
    let mut parked_at = Instant::now();
    while let Ok(task) = rx.recv() {
        let park_ns = elapsed_ns(parked_at);
        run_shard(task, park_ns);
        parked_at = Instant::now();
    }
}

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The shard owning `cut`: a stable FNV-1a fold over the counts, so
/// assignment is deterministic for a given worker count (and irrelevant
/// to results either way — the merge order is what determinism rests on).
/// This runs once per produced successor, so it avoids the much heavier
/// `DefaultHasher` (SipHash) deliberately.
///
/// The fold's low bit is the parity of the count sum, which every cut of
/// a level shares, so the SplitMix64 finalizer mixes the high bits down
/// before the modulo; without it an even worker count sends a whole level
/// to one shard (two of four at 4 workers).
fn shard_of(cut: &Cut, workers: usize) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &c in cut.as_slice() {
        h = (h ^ u64::from(c)).wrapping_mul(0x0100_0000_01b3);
    }
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^= h >> 31;
    (h % workers as u64) as usize
}

/// The message enabled from `cut` on thread `t`, if causally consistent —
/// the same Theorem-3 check the sequential path performs.
pub(crate) fn enabled<'a>(
    delivered: &'a [Vec<Message>],
    cut: &Cut,
    t: usize,
) -> Option<&'a Message> {
    let tid = ThreadId(t as u32);
    let consumed = cut.get(tid) as usize;
    let m = delivered.get(t)?.get(consumed)?;
    let consistent = m.clock.iter().all(|(j, v)| {
        if j == tid {
            v == cut.get(tid) + 1
        } else {
            v <= cut.get(j)
        }
    });
    consistent.then_some(m)
}

/// One pool task: steal and expand chunks of source cuts, exchange
/// contribution buckets, then merge the slice of the successor space this
/// shard owns, and report back to the analyzer.
fn run_shard(task: ShardTask, park_ns: u64) {
    let ShardTask {
        shared,
        shard,
        txs,
        rx,
        mut ring,
        report,
    } = task;
    let workers = shared.workers;
    let expand = Stage::lane(&ring);
    let mut assigned = 0u64;
    let mut taken = 0u64;
    let mut produced = 0u64;
    loop {
        let c = shared.cursor.fetch_add(1, Ordering::Relaxed);
        if c >= shared.chunks {
            break;
        }
        taken += 1;
        let lo = c * shared.chunk;
        let hi = (lo + shared.chunk).min(shared.sources.len());
        assigned += (hi - lo) as u64;
        // Pre-size for the expected fan-out (≤ threads successors per cut,
        // spread evenly over the shards) to avoid growth reallocations.
        let per_bucket = (hi - lo) * shared.threads / workers + 4;
        let mut buckets: Vec<Vec<Contribution>> = (0..workers)
            .map(|_| Vec::with_capacity(per_bucket))
            .collect();
        for (offset, (cut, _node)) in shared.sources[lo..hi].iter().enumerate() {
            for t in 0..shared.threads {
                let Some(msg) = enabled(&shared.delivered, cut, t) else {
                    continue;
                };
                let succ = cut.advanced(ThreadId(t as u32));
                produced += 1;
                buckets[shard_of(&succ, workers)].push(Contribution {
                    src: (lo + offset) as u32,
                    thread: t as u32,
                    succ,
                    update: msg.var().zip(msg.written_value()),
                });
            }
        }
        for (tx, bucket) in txs.iter().zip(buckets) {
            if !bucket.is_empty() {
                // A shard with no receiver left has already merged.
                let _ = tx.send((c, bucket));
            }
        }
    }
    let steals = taken.saturating_sub(shared.fair_share as u64);
    expand.end(
        &mut ring,
        TraceKind::ShardExpanded {
            level: shared.level,
            shard: shard as u32,
            cuts: assigned,
            contributions: produced,
        },
    );
    drop(txs);

    // Merge: this shard owns every successor hashing to it, so the
    // seen-set below is shard-local and lock-free. Buckets ordered by
    // chunk index concatenate into the sequential application order —
    // ascending (source cut, thread) — because chunks are contiguous
    // slices of the sorted source list.
    let merge_start = Instant::now();
    let mut incoming: Vec<Bucket> = rx.iter().collect();
    incoming.sort_unstable_by_key(|&(chunk, _)| chunk);
    let edges: usize = incoming.iter().map(|(_, bucket)| bucket.len()).sum();
    let mut successors = Successors::default();
    successors.reserve(edges.min(2 * shared.sources.len() / workers + 1));
    let mut cache = shared
        .eval_cache
        .then(|| StepCache::with_counter(shared.cache_hits.clone()));
    let mut stepper = Stepper {
        monitor: &shared.monitor,
        cache: cache.as_mut(),
        ring: &mut ring,
        level: shared.level,
    };
    for (_, bucket) in incoming {
        for c in bucket {
            let (src_cut, src_node) = &shared.sources[c.src as usize];
            successors.edge(
                &mut stepper,
                c.src,
                src_cut,
                src_node,
                c.thread,
                c.succ,
                c.update,
            );
        }
    }
    let expansion = successors.finish();
    let merge_ns = elapsed_ns(merge_start);
    let out = ShardReport {
        expansion,
        assigned,
        steals,
        park_ns,
        merge_ns,
    };
    // Release the level before reporting so the analyzer can reclaim the
    // `Arc<LevelShared>` (and its sources) the moment all reports are in.
    drop(shared);
    let _ = report.send((shard, out));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The cuts of the hypercube `{0..=3}^8` whose counts sum to `level`:
    /// one level of eight threads writing three times each.
    fn hypercube_level(level: u32) -> Vec<Cut> {
        (0u32..4u32.pow(8))
            .map(|n| (0..8).map(|t| (n >> (2 * t)) & 3).collect::<Vec<u32>>())
            .filter(|counts| counts.iter().sum::<u32>() == level)
            .map(Cut::from_counts)
            .collect()
    }

    #[test]
    fn every_shard_receives_cuts_of_a_level() {
        let peak = hypercube_level(12);
        assert_eq!(peak.len(), 8_092, "the widest level of 4^8 cuts");
        for workers in [2usize, 4] {
            let mut per_shard = vec![0usize; workers];
            for cut in &peak {
                per_shard[shard_of(cut, workers)] += 1;
            }
            assert!(
                per_shard.iter().all(|&n| n > 0),
                "{workers} workers: {per_shard:?}"
            );
        }
    }
}
