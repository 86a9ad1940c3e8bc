//! Persistent worker pool for sharded parallel expansion of one
//! streaming-frontier level.
//!
//! The level-by-level loop of [`crate::StreamingAnalyzer`] is the hottest
//! code in the pipeline: every cut of the sealed level expands into up to
//! `threads` successors, and every successor steps every alive monitor
//! memory. An [`ExpansionPool`] owns a set of long-lived worker threads —
//! spawned once, parked on their task channels between levels. The
//! analyzer packs the sealed level's keys once and splits the successor
//! key space into one contiguous range per shard, about equal in edges
//! ([`merge::split`]). Each shard runs the same merge the sequential path
//! runs ([`merge::merge`]), restricted to its range: it finds each
//! thread's run start with a partition point on the sorted source keys,
//! creates its successors' nodes, and steps their memories through a
//! per-shard [`StepCache`] when the analyzer enables it. Shards share
//! nothing mutable and exchange nothing.
//!
//! # Determinism
//!
//! The ranges are disjoint and ordered, so concatenating the shards in
//! range order gives the next level in ascending cut order — the order the
//! sequential merge produces. Every successor lies in exactly one range,
//! and its shard applies its in-edges in ascending thread order, the same
//! per-successor order as the sequential path. Node states, alive and dead
//! memory sets, counterexample parents, violation seeds and all logical
//! counters depend only on that per-successor order, so every output is
//! bit-identical to the sequential path at every worker count. Run counts
//! are sums, which no order can change. Only the `lattice.parallel.*`
//! metrics (park times, shard widths) and the physical
//! `spec.formula_evals` / `spec.eval_cache_hits` split reflect the
//! sharding.

use std::fmt;
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Instant;

use jmpax_core::Message;
use jmpax_spec::{Monitor, StepCache};
use jmpax_telemetry::trace::{TraceKind, TraceRing};
use jmpax_telemetry::{Counter, Stage};

use crate::builder::{Level, LevelExpansion, Stepper};
use crate::merge::{self, Heads, LevelKeys, MergeInput, Word};

/// Everything the pool's workers need for one level, shared behind one
/// `Arc`. Built by the analyzer, reclaimed (sources and keys included)
/// after every worker has reported.
pub(crate) struct LevelShared {
    /// The sealed level in ascending cut order.
    pub sources: Level,
    /// The sources' packed keys.
    pub keys: LevelKeys,
    /// The inner boundaries of the shards' key ranges ([`merge::split`]).
    pub bounds: Vec<Word>,
    /// Causally delivered messages per thread (contiguous prefixes).
    pub delivered: Arc<Vec<Vec<Message>>>,
    /// The property monitor; stepping is `&self`.
    pub monitor: Arc<Monitor>,
    /// Engaged worker count for this level (also the shard count).
    pub workers: usize,
    /// Level index being sealed, for trace records.
    pub level: u64,
    /// Memoize monitor steps through a per-shard [`StepCache`].
    pub eval_cache: bool,
    /// `spec.eval_cache_hits`, cloned into each shard's cache.
    pub cache_hits: Counter,
}

/// What one shard hands back to the analyzer.
pub(crate) struct ShardReport {
    /// This shard's key range of the next level, its violation seeds in
    /// application order, and its counts.
    pub expansion: LevelExpansion,
    /// Nanoseconds this worker sat parked before picking up the level.
    pub park_ns: u64,
    /// Wall time of the shard's merge, nanoseconds.
    pub merge_ns: u64,
}

/// One unit of pool work: merge one shard's key range of one level.
struct ShardTask {
    shared: Arc<LevelShared>,
    shard: usize,
    ring: TraceRing,
    report: mpsc::Sender<(usize, ShardReport)>,
}

/// A persistent pool of expansion workers.
///
/// Workers are spawned once and parked on their task channels between
/// levels (a blocking `recv`, measured as `lattice.parallel.park_ns`), so
/// per-level cost is a channel send instead of a thread spawn. One pool
/// can serve many analyzers: [`crate::SuiteBuilder::pool`] shares it.
/// Shards never wait on each other, so tasks of different levels may
/// queue on the same workers in any order. Dropping the pool closes the
/// task channels and joins every worker.
pub struct ExpansionPool {
    txs: Vec<mpsc::Sender<ShardTask>>,
    handles: Vec<thread::JoinHandle<()>>,
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
        Self { txs, handles }
    }

    /// Number of worker threads.
    #[must_use]
    pub fn size(&self) -> usize {
        self.txs.len()
    }

    /// Runs one level on workers `0..shared.workers` and returns their
    /// reports in shard order. `rings` carries one trace ring per engaged
    /// shard (disabled rings are free).
    pub(crate) fn expand(
        &self,
        shared: &Arc<LevelShared>,
        rings: Vec<TraceRing>,
    ) -> Vec<ShardReport> {
        let workers = shared.workers;
        debug_assert!(workers >= 1 && workers <= self.size() && rings.len() == workers);
        let (report_tx, report_rx) = mpsc::channel();
        for (shard, ring) in rings.into_iter().enumerate() {
            let task = ShardTask {
                shared: Arc::clone(shared),
                shard,
                ring,
                report: report_tx.clone(),
            };
            self.txs[shard].send(task).expect("pool worker alive");
        }
        // Workers hold clones; dropping the original lets the report
        // collection below finish.
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
    // The merge heads keep their buffers from level to level.
    let mut heads = Heads::default();
    let mut parked_at = Instant::now();
    while let Ok(task) = rx.recv() {
        let park_ns = elapsed_ns(parked_at);
        run_shard(task, &mut heads, park_ns);
        parked_at = Instant::now();
    }
}

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// One pool task: merge the shard's key range of the level and report
/// back to the analyzer.
fn run_shard(task: ShardTask, heads: &mut Heads, park_ns: u64) {
    let ShardTask {
        shared,
        shard,
        mut ring,
        report,
    } = task;
    let span = Stage::lane(&ring);
    let merge_start = Instant::now();
    let mut cache = shared
        .eval_cache
        .then(|| StepCache::with_counter(shared.cache_hits.clone()));
    let mut stepper = Stepper {
        monitor: &shared.monitor,
        cache: cache.as_mut(),
        ring: &mut ring,
        level: shared.level,
    };
    let input = MergeInput {
        level: &shared.sources,
        keys: &shared.keys,
        delivered: &shared.delivered,
    };
    let range = merge::shard_range(&shared.bounds, shared.keys.words(), shard);
    // About one successor per source, as in the sequential level.
    let width = shared.sources.len() / shared.workers + 1;
    let mut expansion = LevelExpansion::into_buffer(Level::with_capacity(width));
    merge::merge(input, range, heads, &mut stepper, &mut expansion);
    let merge_ns = elapsed_ns(merge_start);
    span.end(
        &mut ring,
        TraceKind::ShardExpanded {
            level: shared.level,
            shard: shard as u32,
            cuts: expansion.new_states(),
            contributions: expansion.edges(),
        },
    );
    let out = ShardReport {
        expansion,
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
    use crate::builder::FrontierNode;
    use crate::cut::Cut;
    use jmpax_core::{Event, MvcInstrumentor, Relevance, SymbolTable, ThreadId, VarId};

    /// The cuts of the hypercube `{0..=3}^8` whose counts sum to `level`,
    /// in ascending order: one level of eight threads writing three times
    /// each.
    fn hypercube_level(level: u32) -> Level {
        (0u32..4u32.pow(8))
            .map(|n| {
                (0..8)
                    .map(|t| (n >> (2 * (7 - t))) & 3)
                    .collect::<Vec<u32>>()
            })
            .filter(|counts| counts.iter().sum::<u32>() == level)
            .map(|counts| (Cut::from_counts(counts), FrontierNode::default()))
            .collect()
    }

    #[test]
    fn every_shard_key_range_is_non_empty_on_the_widest_level() {
        let peak = hypercube_level(12);
        assert_eq!(peak.len(), 8_092, "the widest level of 4^8 cuts");
        assert!(peak.windows(2).all(|w| w[0].0 < w[1].0));
        let mut instr = MvcInstrumentor::new(8, Relevance::AllWrites);
        let delivered: Vec<Vec<Message>> = (0..8u32)
            .map(|t| {
                (0..3)
                    .filter_map(|v| instr.process(&Event::write(ThreadId(t), VarId(t), v)))
                    .collect()
            })
            .collect();
        let mut symbols = SymbolTable::new();
        let monitor = jmpax_spec::parse("[*] v0 >= 0", &mut symbols)
            .unwrap()
            .monitor()
            .unwrap();
        let mut keys = LevelKeys::default();
        keys.index(&peak, &[3; 8], 8);
        let input = MergeInput {
            level: &peak,
            keys: &keys,
            delivered: &delivered,
        };
        let mut ring = TraceRing::disabled();
        let mut expand = |range: (Option<&[Word]>, Option<&[Word]>)| {
            let mut stepper = Stepper {
                monitor: &monitor,
                cache: None,
                ring: &mut ring,
                level: 13,
            };
            let mut out = LevelExpansion::default();
            merge::merge(input, range, &mut Heads::default(), &mut stepper, &mut out);
            (out.new_states(), out.edges())
        };
        let whole = expand((None, None));
        assert_eq!(whole.0, 7_728, "the next level of 4^8 cuts");
        for workers in [2usize, 8] {
            let bounds = merge::split(&keys, workers);
            let shards: Vec<(u64, u64)> = (0..workers)
                .map(|shard| expand(merge::shard_range(&bounds, keys.words(), shard)))
                .collect();
            assert!(
                shards.iter().all(|&(states, _)| states > 0),
                "{workers} workers: {shards:?}"
            );
            let states = shards.iter().map(|s| s.0).sum::<u64>();
            let edges = shards.iter().map(|s| s.1).sum::<u64>();
            assert_eq!(
                (states, edges),
                whole,
                "{workers} workers: the ranges partition"
            );
        }
    }
}
