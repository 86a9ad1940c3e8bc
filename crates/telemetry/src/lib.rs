//! std-only metrics, span timing and causal tracing for the jmpax
//! pipeline.
//!
//! A [`Registry`] owns a set of named metrics — [`Counter`]s, [`Gauge`]s,
//! and log2-bucketed [`Histogram`]s — and hands out cheap cloneable handles
//! that instrumented code hot paths update with single atomic operations.
//! The same registry carries the [`trace::Tracer`] that components open
//! their trace lanes from: disabled unless the registry was built with
//! [`Registry::traced`]. A [`Stage`] guard times one pipeline stage into a
//! histogram and, as a span, into a lane from the same two clock readings.
//! [`Registry::snapshot`] freezes every metric into a [`Snapshot`]
//! renderable as aligned text, JSON or Prometheus text (all hand-rolled;
//! no serde); [`trace::Tracer::collect`] freezes the lanes for the
//! [`chrome`], [`dot`] and [`profile`] exporters. [`serve`] is the
//! minimal HTTP endpoint that exposes either.
//!
//! # Disabled-path cost model
//!
//! `Registry::disabled()` (also `Default`) allocates nothing and hands out
//! handles whose inner `Option` is `None`. Every update on a disabled
//! handle is one branch on an immediate — no atomic traffic, no `Instant`
//! reads (a [`Stage`] whose histogram and lane are both disabled never
//! calls `Instant::now`), no lock, no allocation. Instrumented code
//! therefore threads handles through unconditionally and stays within
//! noise of un-instrumented builds when telemetry is off.

#![forbid(unsafe_code)]

pub mod chrome;
pub mod dot;
pub mod json;
pub mod profile;
pub mod serve;
pub mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use trace::{TraceKind, TraceRing, Tracer};

/// Number of histogram buckets: one for zero plus one per power of two of
/// the `u64` domain.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A monotonically increasing count.
#[derive(Clone, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// A no-op handle, identical to those a disabled registry hands out.
    #[must_use]
    pub fn disabled() -> Self {
        Self(None)
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 when disabled).
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            Some(_) => write!(f, "Counter({})", self.get()),
            None => write!(f, "Counter(disabled)"),
        }
    }
}

struct GaugeCell {
    value: AtomicU64,
    peak: AtomicU64,
}

/// A last-value metric that also remembers its high-water mark.
#[derive(Clone, Default)]
pub struct Gauge(Option<Arc<GaugeCell>>);

impl Gauge {
    /// A no-op handle, identical to those a disabled registry hands out.
    #[must_use]
    pub fn disabled() -> Self {
        Self(None)
    }

    /// Records the current value and folds it into the peak.
    #[inline]
    pub fn set(&self, v: u64) {
        if let Some(cell) = &self.0 {
            cell.value.store(v, Ordering::Relaxed);
            cell.peak.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Current value (0 when disabled).
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |c| c.value.load(Ordering::Relaxed))
    }

    /// Largest value ever set (0 when disabled).
    #[must_use]
    pub fn peak(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |c| c.peak.load(Ordering::Relaxed))
    }
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            Some(_) => write!(f, "Gauge({}, peak {})", self.get(), self.peak()),
            None => write!(f, "Gauge(disabled)"),
        }
    }
}

struct HistogramCell {
    /// `buckets[0]` counts zeros; `buckets[i]` counts values in
    /// `[2^(i-1), 2^i - 1]`.
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl HistogramCell {
    fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

/// Index of the log2 bucket covering `v`.
#[must_use]
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive upper bound of bucket `i` (`2^i - 1`; bucket 0 holds only 0).
#[must_use]
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// Inclusive lower bound of the bucket whose upper bound is `bound`.
fn bucket_lower_bound(bound: u64) -> u64 {
    if bound == 0 {
        0
    } else if bound == u64::MAX {
        1u64 << 63
    } else {
        bound / 2 + 1
    }
}

/// Estimates the `q`-quantile (`0.0..=1.0`) of a log2-bucketed histogram
/// given its sparse `(inclusive upper bound, sample count)` buckets and
/// aggregates. The rank-`ceil(q*count)` sample is located by a cumulative
/// walk, linearly interpolated inside its bucket, and clamped to the
/// observed `[min, max]` so estimates never leave the sampled range.
/// Returns 0 for an empty histogram.
#[must_use]
pub fn histogram_quantile(buckets: &[(u64, u64)], count: u64, min: u64, max: u64, q: f64) -> u64 {
    if count == 0 {
        return 0;
    }
    let q = q.clamp(0.0, 1.0);
    let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
    let mut cumulative = 0u64;
    for &(bound, n) in buckets {
        if cumulative + n >= rank {
            let lower = bucket_lower_bound(bound);
            let frac = (rank - cumulative) as f64 / n as f64;
            let est = lower as f64 + (bound - lower) as f64 * frac;
            return (est as u64).clamp(min, max);
        }
        cumulative += n;
    }
    max
}

/// A distribution of `u64` samples in power-of-two buckets.
#[derive(Clone, Default)]
pub struct Histogram(Option<Arc<HistogramCell>>);

impl Histogram {
    /// A no-op handle, identical to those a disabled registry hands out.
    #[must_use]
    pub fn disabled() -> Self {
        Self(None)
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        if let Some(cell) = &self.0 {
            cell.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
            cell.count.fetch_add(1, Ordering::Relaxed);
            cell.sum.fetch_add(v, Ordering::Relaxed);
            cell.min.fetch_min(v, Ordering::Relaxed);
            cell.max.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Number of recorded samples (0 when disabled).
    #[must_use]
    pub fn count(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |c| c.count.load(Ordering::Relaxed))
    }

    /// Sum of recorded samples (0 when disabled).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.sum.load(Ordering::Relaxed))
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            Some(_) => write!(f, "Histogram({} samples)", self.count()),
            None => write!(f, "Histogram(disabled)"),
        }
    }
}

/// Whole nanoseconds in `d`, saturating at `u64::MAX`.
pub(crate) fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Times one pipeline stage into a [`Histogram`] and a trace lane.
///
/// The clock is read once when the stage starts and once when it ends;
/// both readings feed the histogram sample and the lane's span. With the
/// histogram and the lane both disabled the guard never reads the clock.
/// [`Stage::end`] records into both; dropping the guard records the
/// histogram sample alone.
#[must_use = "a stage is timed until it is ended or dropped"]
pub struct Stage<'h> {
    hist: Option<&'h Histogram>,
    start: Option<Instant>,
}

impl<'h> Stage<'h> {
    /// Starts a stage timed into `hist` and into `ring`'s lane.
    #[inline]
    pub fn start(hist: &'h Histogram, ring: &TraceRing) -> Self {
        Self::begin(Some(hist), ring.is_enabled())
    }

    /// Starts a stage timed into `hist` alone.
    #[inline]
    pub fn timed(hist: &'h Histogram) -> Self {
        Self::begin(Some(hist), false)
    }

    /// Starts a stage timed into `ring`'s lane alone.
    #[inline]
    pub fn lane(ring: &TraceRing) -> Stage<'static> {
        Stage::begin(None, ring.is_enabled())
    }

    #[inline]
    fn begin(hist: Option<&'h Histogram>, traced: bool) -> Self {
        let timed = traced || hist.is_some_and(|h| h.0.is_some());
        Self {
            hist,
            start: timed.then(Instant::now),
        }
    }

    /// Ends the stage: one histogram sample and one `kind` span on
    /// `ring`'s lane, from the same two clock readings.
    #[inline]
    pub fn end(mut self, ring: &mut TraceRing, kind: TraceKind) {
        if let Some(start) = self.start.take() {
            let ns = self.record(start);
            ring.record_stage(kind, start, ns);
        }
    }

    /// Records the histogram sample and returns the elapsed nanoseconds.
    fn record(&self, start: Instant) -> u64 {
        let ns = nanos(start.elapsed());
        if let Some(hist) = self.hist {
            hist.record(ns);
        }
        ns
    }
}

impl Drop for Stage<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start.take() {
            self.record(start);
        }
    }
}

enum Metric {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<GaugeCell>),
    Histogram(Arc<HistogramCell>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }

    /// A second handle onto the same cell.
    fn share(&self) -> Metric {
        match self {
            Metric::Counter(c) => Metric::Counter(Arc::clone(c)),
            Metric::Gauge(g) => Metric::Gauge(Arc::clone(g)),
            Metric::Histogram(h) => Metric::Histogram(Arc::clone(h)),
        }
    }
}

/// Default bound on resident labeled series (flat series are unbounded).
/// Sized so a full daemon chaos load — hundreds of tenants with a handful
/// of labeled series each — fits without eviction, while a hostile or
/// leaky label source cannot grow the registry without bound.
pub const DEFAULT_LABEL_CAPACITY: usize = 2048;

/// The flat counter that records LRU evictions of labeled series.
pub const LABELS_DROPPED: &str = "telemetry.labels_dropped";

/// One registered series: a family name, its canonical (sorted) labels,
/// and the live cell.
struct Series {
    name: String,
    labels: Vec<(String, String)>,
    metric: Metric,
    /// Tick of the most recent registration call. 0 for flat series,
    /// which are pinned and never evicted.
    last_used: u64,
}

struct MetricStore {
    /// Keyed by the composed series key (`name` or `name{k="v",...}`).
    series: BTreeMap<String, Series>,
    /// Family name → kind. A family keeps one kind across every label
    /// set, otherwise the Prometheus exposition would be ill-formed.
    kinds: BTreeMap<String, &'static str>,
    /// Labeled series currently resident.
    labeled: usize,
    /// Bound on `labeled` before LRU eviction kicks in.
    label_capacity: usize,
    /// Monotonic registration tick; orders series for LRU eviction.
    tick: u64,
    /// Cell behind [`LABELS_DROPPED`]; held here so eviction can bump it
    /// while the store lock is already taken.
    labels_dropped: Arc<AtomicU64>,
}

impl MetricStore {
    fn new(label_capacity: usize) -> Self {
        Self {
            series: BTreeMap::new(),
            kinds: BTreeMap::new(),
            labeled: 0,
            label_capacity,
            tick: 0,
            labels_dropped: Arc::new(AtomicU64::new(0)),
        }
    }

    fn register(
        &mut self,
        name: &str,
        labels: &[(&str, &str)],
        kind: &'static str,
        make: impl FnOnce() -> Metric,
    ) -> Metric {
        let labels = canonical_labels(labels);
        let key = composed_key(name, &labels);
        self.tick += 1;
        let tick = self.tick;
        if let Some(existing) = self.series.get_mut(&key) {
            assert!(
                existing.metric.kind() == kind,
                "metric {name:?} is a {}, not a {kind}",
                existing.metric.kind()
            );
            if !existing.labels.is_empty() {
                existing.last_used = tick;
            }
            return existing.metric.share();
        }
        match self.kinds.get(name) {
            Some(k) if *k != kind => panic!("metric {name:?} is a {k}, not a {kind}"),
            Some(_) => {}
            None => {
                self.kinds.insert(name.to_string(), kind);
            }
        }
        let last_used = if labels.is_empty() {
            0
        } else {
            if self.labeled >= self.label_capacity.max(1) {
                self.evict_lru();
            }
            self.labeled += 1;
            // Make the overflow counter visible from the first labeled
            // registration, so a zero reads as "no pressure yet" rather
            // than "not instrumented".
            self.ensure_labels_dropped();
            tick
        };
        // Anyone registering the overflow counter by name gets the shared
        // cell, so eviction accounting stays visible to them.
        let metric = if name == LABELS_DROPPED && kind == "counter" && labels.is_empty() {
            Metric::Counter(Arc::clone(&self.labels_dropped))
        } else {
            make()
        };
        let handle = metric.share();
        self.series.insert(
            key,
            Series {
                name: name.to_string(),
                labels,
                metric,
                last_used,
            },
        );
        handle
    }

    /// Drops the least-recently-registered labeled series and counts it.
    fn evict_lru(&mut self) {
        let victim = self
            .series
            .iter()
            .filter(|(_, s)| !s.labels.is_empty())
            .min_by_key(|(_, s)| s.last_used)
            .map(|(k, _)| k.clone());
        if let Some(key) = victim {
            self.series.remove(&key);
            self.labeled -= 1;
            self.labels_dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn ensure_labels_dropped(&mut self) {
        if !self.series.contains_key(LABELS_DROPPED) {
            self.kinds.insert(LABELS_DROPPED.to_string(), "counter");
            self.series.insert(
                LABELS_DROPPED.to_string(),
                Series {
                    name: LABELS_DROPPED.to_string(),
                    labels: Vec::new(),
                    metric: Metric::Counter(Arc::clone(&self.labels_dropped)),
                    last_used: 0,
                },
            );
        }
    }
}

/// Sorted, owned copy of a label set with Prometheus-safe keys.
fn canonical_labels(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| (sanitize_label_key(k), (*v).to_string()))
        .collect();
    out.sort();
    out.dedup_by(|a, b| a.0 == b.0);
    out
}

/// Label keys must match `[a-zA-Z_][a-zA-Z0-9_]*`; anything else folds
/// to `_`.
fn sanitize_label_key(key: &str) -> String {
    let mut out = String::with_capacity(key.len().max(1));
    for (i, c) in key.chars().enumerate() {
        let ok = c == '_' || c.is_ascii_alphabetic() || (i > 0 && c.is_ascii_digit());
        out.push(if ok { c } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Appends a `{k="v",...}` label block with Prometheus value escaping
/// (`\\`, `\"`, `\n`). `extra_le` appends a trailing `le` label, used by
/// histogram bucket series.
fn write_label_block(out: &mut String, labels: &[(String, String)], extra_le: Option<&str>) {
    if labels.is_empty() && extra_le.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(k);
        out.push_str("=\"");
        for c in v.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    if let Some(le) = extra_le {
        if !first {
            out.push(',');
        }
        out.push_str("le=\"");
        out.push_str(le);
        out.push('"');
    }
    out.push('}');
}

/// The snapshot/JSON/text key for a series: the bare family name for flat
/// series, `name{k="v",...}` for labeled ones.
fn composed_key(name: &str, labels: &[(String, String)]) -> String {
    let mut out = String::with_capacity(name.len() + labels.len() * 16);
    out.push_str(name);
    write_label_block(&mut out, labels, None);
    out
}

/// Public form of the series key used in text/JSON snapshots:
/// `series_key("serve.verdict_state", &[("tenant", "t1")])` is
/// `serve.verdict_state{tenant="t1"}`. Labels are sorted and keys
/// sanitized exactly as registration does it.
#[must_use]
pub fn series_key(name: &str, labels: &[(&str, &str)]) -> String {
    composed_key(name, &canonical_labels(labels))
}

struct RegistryInner {
    store: Mutex<MetricStore>,
}

/// A named collection of metrics, and the tracer its components open
/// their trace lanes from.
///
/// Cloning shares the underlying store and tracer, so one registry can be
/// threaded through every pipeline stage. Registration takes a lock; the
/// handles it returns do not.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Option<Arc<RegistryInner>>,
    tracer: Tracer,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Registry({}{})",
            if self.is_enabled() {
                "enabled"
            } else {
                "disabled"
            },
            if self.tracer.is_enabled() {
                ", traced"
            } else {
                ""
            }
        )
    }
}

impl Registry {
    /// A live registry with the default labeled-series bound
    /// ([`DEFAULT_LABEL_CAPACITY`]).
    #[must_use]
    pub fn enabled() -> Self {
        Self::with_label_capacity(DEFAULT_LABEL_CAPACITY)
    }

    /// A live registry holding at most `label_capacity` labeled series;
    /// registering beyond that evicts the least recently registered
    /// labeled series and bumps [`LABELS_DROPPED`]. Flat (unlabeled)
    /// series are never evicted and do not count toward the bound.
    #[must_use]
    pub fn with_label_capacity(label_capacity: usize) -> Self {
        Self {
            inner: Some(Arc::new(RegistryInner {
                store: Mutex::new(MetricStore::new(label_capacity)),
            })),
            tracer: Tracer::disabled(),
        }
    }

    /// A registry whose handles are all no-ops; allocates nothing.
    #[must_use]
    pub fn disabled() -> Self {
        Self::default()
    }

    /// This registry, with metrics as they are, plus a live tracer: every
    /// component handed the result records its trace lanes into
    /// [`Registry::tracer`]. Every other constructor is untraced.
    #[must_use]
    pub fn traced(mut self) -> Self {
        self.tracer = Tracer::enabled();
        self
    }

    /// The tracer components open their lanes from; disabled unless the
    /// registry was built with [`Registry::traced`].
    #[must_use]
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// True when metrics are being collected.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn with_store<R>(&self, f: impl FnOnce(&mut MetricStore) -> R) -> Option<R> {
        let inner = self.inner.as_ref()?;
        let mut store = inner.store.lock().unwrap_or_else(|e| e.into_inner());
        Some(f(&mut store))
    }

    fn register(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        kind: &'static str,
        make: impl FnOnce() -> Metric,
    ) -> Option<Metric> {
        self.with_store(|store| store.register(name, labels, kind, make))
    }

    /// The counter named `name`, registering it on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        self.counter_with(name, &[])
    }

    /// The counter series `name{labels}`, registering it on first use.
    /// Labels are sorted by key; handing the same set in any order yields
    /// the same cell. Labeled series live under the registry's LRU
    /// cardinality bound — an evicted series' handles keep working but
    /// its counts leave the snapshot.
    ///
    /// # Panics
    /// If the family `name` is already registered as a different kind.
    #[must_use]
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        match self.register(name, labels, "counter", || {
            Metric::Counter(Arc::new(AtomicU64::new(0)))
        }) {
            Some(Metric::Counter(cell)) => Counter(Some(cell)),
            Some(_) | None => Counter(None),
        }
    }

    /// The gauge named `name`, registering it on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Gauge {
        self.gauge_with(name, &[])
    }

    /// The gauge series `name{labels}`, registering it on first use; see
    /// [`Registry::counter_with`] for label semantics.
    ///
    /// # Panics
    /// If the family `name` is already registered as a different kind.
    #[must_use]
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.register(name, labels, "gauge", || {
            Metric::Gauge(Arc::new(GaugeCell {
                value: AtomicU64::new(0),
                peak: AtomicU64::new(0),
            }))
        }) {
            Some(Metric::Gauge(cell)) => Gauge(Some(cell)),
            Some(_) | None => Gauge(None),
        }
    }

    /// The histogram named `name`, registering it on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Histogram {
        self.histogram_with(name, &[])
    }

    /// The histogram series `name{labels}`, registering it on first use;
    /// see [`Registry::counter_with`] for label semantics.
    ///
    /// # Panics
    /// If the family `name` is already registered as a different kind.
    #[must_use]
    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        match self.register(name, labels, "histogram", || {
            Metric::Histogram(Arc::new(HistogramCell::new()))
        }) {
            Some(Metric::Histogram(cell)) => Histogram(Some(cell)),
            Some(_) | None => Histogram(None),
        }
    }

    /// Labeled series evicted so far by the cardinality bound (0 when
    /// disabled or never over capacity).
    #[must_use]
    pub fn labels_dropped(&self) -> u64 {
        self.with_store(|s| s.labels_dropped.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Freezes current metric values into a [`Snapshot`] (empty when
    /// disabled), sorted by family name then label set — so every series
    /// of a family is consecutive, which the Prometheus exposition
    /// format requires.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let mut entries: Vec<MetricSnapshot> = self
            .with_store(|store| {
                store
                    .series
                    .values()
                    .map(|series| MetricSnapshot {
                        name: series.name.clone(),
                        labels: series.labels.clone(),
                        value: match &series.metric {
                            Metric::Counter(c) => MetricValue::Counter(c.load(Ordering::Relaxed)),
                            Metric::Gauge(g) => MetricValue::Gauge {
                                value: g.value.load(Ordering::Relaxed),
                                peak: g.peak.load(Ordering::Relaxed),
                            },
                            Metric::Histogram(h) => {
                                let count = h.count.load(Ordering::Relaxed);
                                let sum = h.sum.load(Ordering::Relaxed);
                                MetricValue::Histogram {
                                    count,
                                    sum,
                                    min: if count == 0 {
                                        0
                                    } else {
                                        h.min.load(Ordering::Relaxed)
                                    },
                                    max: h.max.load(Ordering::Relaxed),
                                    buckets: h
                                        .buckets
                                        .iter()
                                        .enumerate()
                                        .filter_map(|(i, b)| {
                                            let n = b.load(Ordering::Relaxed);
                                            (n > 0).then(|| (bucket_upper_bound(i), n))
                                        })
                                        .collect(),
                                }
                            }
                        },
                    })
                    .collect()
            })
            .unwrap_or_default();
        entries.sort_by(|a, b| a.name.cmp(&b.name).then_with(|| a.labels.cmp(&b.labels)));
        Snapshot { entries }
    }
}

/// One metric's frozen value.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// A counter's total.
    Counter(u64),
    /// A gauge's last value and high-water mark.
    Gauge {
        /// Last value set.
        value: u64,
        /// Largest value ever set.
        peak: u64,
    },
    /// A histogram's aggregates and non-empty buckets.
    Histogram {
        /// Number of samples.
        count: u64,
        /// Sum of samples.
        sum: u64,
        /// Smallest sample (0 when empty).
        min: u64,
        /// Largest sample (0 when empty).
        max: u64,
        /// `(inclusive upper bound, sample count)` per non-empty bucket.
        buckets: Vec<(u64, u64)>,
    },
}

impl MetricValue {
    /// Estimated `q`-quantile for a non-empty histogram; `None` for other
    /// metric kinds or when no samples have been recorded.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<u64> {
        match self {
            MetricValue::Histogram {
                count,
                min,
                max,
                buckets,
                ..
            } if *count > 0 => Some(histogram_quantile(buckets, *count, *min, *max, q)),
            _ => None,
        }
    }
}

/// One named metric in a snapshot.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricSnapshot {
    /// Registered family name, e.g. `lattice.frontier_width`.
    pub name: String,
    /// Canonical (sorted) label set; empty for flat series.
    pub labels: Vec<(String, String)>,
    /// Frozen value.
    pub value: MetricValue,
}

impl MetricSnapshot {
    /// The text/JSON key for this series: the bare name for flat series,
    /// `name{k="v",...}` for labeled ones.
    #[must_use]
    pub fn series_key(&self) -> String {
        composed_key(&self.name, &self.labels)
    }
}

/// A frozen view of a registry, renderable as text or JSON.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// All series, sorted by family name then label set.
    pub entries: Vec<MetricSnapshot>,
}

impl Snapshot {
    /// Looks up the flat (unlabeled) series of `name`.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.get_with(name, &[])
    }

    /// Looks up the series `name{labels}`; label order is irrelevant.
    #[must_use]
    pub fn get_with(&self, name: &str, labels: &[(&str, &str)]) -> Option<&MetricValue> {
        let labels = canonical_labels(labels);
        self.entries
            .iter()
            .find(|e| e.name == name && e.labels == labels)
            .map(|e| &e.value)
    }

    /// All series of the family `name`, flat and labeled.
    pub fn family<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a MetricSnapshot> {
        self.entries.iter().filter(move |e| e.name == name)
    }

    /// Convenience: a counter's value, or `None` if absent / not a counter.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counter_with(name, &[])
    }

    /// Convenience: a labeled counter's value, or `None`.
    #[must_use]
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        match self.get_with(name, labels)? {
            MetricValue::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// Convenience: a gauge's `(value, peak)`, or `None`.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<(u64, u64)> {
        self.gauge_with(name, &[])
    }

    /// Convenience: a labeled gauge's `(value, peak)`, or `None`.
    #[must_use]
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Option<(u64, u64)> {
        match self.get_with(name, labels)? {
            MetricValue::Gauge { value, peak } => Some((*value, *peak)),
            _ => None,
        }
    }

    /// Renders as aligned plain text, one series per line (labeled series
    /// as `name{k="v"}`).
    #[must_use]
    pub fn to_text(&self) -> String {
        let keys: Vec<String> = self
            .entries
            .iter()
            .map(MetricSnapshot::series_key)
            .collect();
        let name_width = keys.iter().map(String::len).max().unwrap_or(0).max(6);
        let mut out = String::new();
        for (entry, key) in self.entries.iter().zip(&keys) {
            let _ = write!(out, "{key:<name_width$}  ");
            match &entry.value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(out, "counter    {v}");
                }
                MetricValue::Gauge { value, peak } => {
                    let _ = writeln!(out, "gauge      value={value} peak={peak}");
                }
                MetricValue::Histogram {
                    count,
                    sum,
                    min,
                    max,
                    buckets,
                } => {
                    let mean = if *count == 0 {
                        0.0
                    } else {
                        *sum as f64 / *count as f64
                    };
                    let p50 = histogram_quantile(buckets, *count, *min, *max, 0.50);
                    let p95 = histogram_quantile(buckets, *count, *min, *max, 0.95);
                    let p99 = histogram_quantile(buckets, *count, *min, *max, 0.99);
                    let _ = writeln!(
                        out,
                        "histogram  count={count} mean={mean:.1} \
                         p50={p50} p95={p95} p99={p99} min={min} max={max}"
                    );
                }
            }
        }
        out
    }

    /// Renders as a JSON object: `{"metrics": {"<series key>": {...}, ...}}`
    /// where the key of a labeled series is `name{k="v",...}`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"metrics\":{");
        for (i, entry) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_string(&mut out, &entry.series_key());
            out.push(':');
            match &entry.value {
                MetricValue::Counter(v) => {
                    let _ = write!(out, "{{\"type\":\"counter\",\"value\":{v}}}");
                }
                MetricValue::Gauge { value, peak } => {
                    let _ = write!(
                        out,
                        "{{\"type\":\"gauge\",\"value\":{value},\"peak\":{peak}}}"
                    );
                }
                MetricValue::Histogram {
                    count,
                    sum,
                    min,
                    max,
                    buckets,
                } => {
                    let mean = if *count == 0 {
                        0.0
                    } else {
                        *sum as f64 / *count as f64
                    };
                    let p50 = histogram_quantile(buckets, *count, *min, *max, 0.50);
                    let p95 = histogram_quantile(buckets, *count, *min, *max, 0.95);
                    let p99 = histogram_quantile(buckets, *count, *min, *max, 0.99);
                    let _ = write!(
                        out,
                        "{{\"type\":\"histogram\",\"count\":{count},\"sum\":{sum},\
                         \"min\":{min},\"max\":{max},\"mean\":{mean:.3},\
                         \"p50\":{p50},\"p95\":{p95},\"p99\":{p99},\"buckets\":["
                    );
                    for (j, (bound, n)) in buckets.iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        let _ = write!(out, "[{bound},{n}]");
                    }
                    out.push_str("]}");
                }
            }
        }
        out.push_str("}}");
        out
    }

    /// Renders in the Prometheus text exposition format (version 0.0.4).
    ///
    /// Metric names are prefixed with `jmpax_` and sanitized: every
    /// character outside `[a-zA-Z0-9_:]` becomes `_`, so
    /// `core.events_processed` is exposed as `jmpax_core_events_processed`.
    /// Labeled series render as `jmpax_name{tenant="t42"} v`. Each family
    /// carries one `# HELP`/`# TYPE` header before its first sample, and
    /// all samples of a family are consecutive, as the format requires —
    /// [`lint_prometheus`] checks both properties. Gauges additionally
    /// expose their high-water mark as a second `<name>_peak` gauge.
    /// Histograms render cumulative `_bucket{le=...}` series from the
    /// non-empty log2 buckets, plus `_sum`/`_count` and estimated
    /// `_p50`/`_p95`/`_p99` gauge families.
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut i = 0;
        while i < self.entries.len() {
            let mut j = i + 1;
            while j < self.entries.len() && self.entries[j].name == self.entries[i].name {
                j += 1;
            }
            prometheus_family(&mut out, &self.entries[i..j]);
            i = j;
        }
        out
    }
}

/// Renders one metric family — every label set of one name — as a block
/// of consecutive samples per exposed series, with `# HELP`/`# TYPE`
/// emitted exactly once per series name before its first sample. For
/// histograms this means all `_bucket`/`_sum`/`_count` samples come
/// first, then each quantile gauge family in turn, so no family's
/// samples interleave with another's.
fn prometheus_family(out: &mut String, family: &[MetricSnapshot]) {
    let Some(first) = family.first() else { return };
    let name = prometheus_name(&first.name);
    let orig = &first.name;
    let block = |entry: &MetricSnapshot| {
        let mut s = String::new();
        write_label_block(&mut s, &entry.labels, None);
        s
    };
    match &first.value {
        MetricValue::Counter(_) => {
            let _ = writeln!(out, "# HELP {name} jmpax counter {orig}");
            let _ = writeln!(out, "# TYPE {name} counter");
            for entry in family {
                if let MetricValue::Counter(v) = &entry.value {
                    let _ = writeln!(out, "{name}{} {v}", block(entry));
                }
            }
        }
        MetricValue::Gauge { .. } => {
            let _ = writeln!(out, "# HELP {name} jmpax gauge {orig}");
            let _ = writeln!(out, "# TYPE {name} gauge");
            for entry in family {
                if let MetricValue::Gauge { value, .. } = &entry.value {
                    let _ = writeln!(out, "{name}{} {value}", block(entry));
                }
            }
            let _ = writeln!(out, "# HELP {name}_peak high-water mark of {orig}");
            let _ = writeln!(out, "# TYPE {name}_peak gauge");
            for entry in family {
                if let MetricValue::Gauge { peak, .. } = &entry.value {
                    let _ = writeln!(out, "{name}_peak{} {peak}", block(entry));
                }
            }
        }
        MetricValue::Histogram { .. } => {
            let _ = writeln!(out, "# HELP {name} jmpax log2 histogram {orig}");
            let _ = writeln!(out, "# TYPE {name} histogram");
            for entry in family {
                let MetricValue::Histogram {
                    count,
                    sum,
                    buckets,
                    ..
                } = &entry.value
                else {
                    continue;
                };
                let mut cumulative = 0u64;
                for (bound, n) in buckets {
                    cumulative += n;
                    let mut labels = String::new();
                    write_label_block(&mut labels, &entry.labels, Some(&bound.to_string()));
                    let _ = writeln!(out, "{name}_bucket{labels} {cumulative}");
                }
                let mut inf = String::new();
                write_label_block(&mut inf, &entry.labels, Some("+Inf"));
                let _ = writeln!(out, "{name}_bucket{inf} {count}");
                let _ = writeln!(out, "{name}_sum{} {sum}", block(entry));
                let _ = writeln!(out, "{name}_count{} {count}", block(entry));
            }
            for (q, label) in [(0.50, "p50"), (0.95, "p95"), (0.99, "p99")] {
                let _ = writeln!(out, "# HELP {name}_{label} estimated {label} of {name}");
                let _ = writeln!(out, "# TYPE {name}_{label} gauge");
                for entry in family {
                    let MetricValue::Histogram {
                        count,
                        min,
                        max,
                        buckets,
                        ..
                    } = &entry.value
                    else {
                        continue;
                    };
                    let est = histogram_quantile(buckets, *count, *min, *max, q);
                    let _ = writeln!(out, "{name}_{label}{} {est}", block(entry));
                }
            }
        }
    }
}

/// Maps a registry metric name onto the Prometheus namespace: prefixes
/// `jmpax_` and replaces every character outside `[a-zA-Z0-9_:]` with `_`.
#[must_use]
pub fn prometheus_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 6);
    out.push_str("jmpax_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Promtool-style lint of a Prometheus text exposition (format 0.0.4).
/// Returns one message per violation; an empty vector means the text is
/// well-formed. Checked properties:
///
/// - every sample belongs to a family announced by `# TYPE` *before* the
///   first sample (histogram `_bucket`/`_sum`/`_count` children resolve
///   to their base family);
/// - every announced family also carries a `# HELP` line, and neither
///   `# HELP` nor `# TYPE` repeats for a family;
/// - all samples of a family are consecutive — once another family's
///   samples begin, the earlier family may not reappear;
/// - metric names, label syntax (`{key="value"}` with `\\`/`\"`/`\n`
///   escapes), and sample values all parse.
#[must_use]
pub fn lint_prometheus(text: &str) -> Vec<String> {
    let mut errors = Vec::new();
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    let mut helps: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    let mut closed: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    let mut current: Option<String> = None;
    for (idx, line) in text.lines().enumerate() {
        let n = idx + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let fam = rest.split_whitespace().next().unwrap_or("");
            if fam.is_empty() {
                errors.push(format!("line {n}: HELP without a metric name"));
            } else if !helps.insert(fam.to_string()) {
                errors.push(format!("line {n}: duplicate HELP for {fam}"));
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let fam = parts.next().unwrap_or("");
            let kind = parts.next().unwrap_or("");
            if fam.is_empty() || !is_valid_metric_name(fam) {
                errors.push(format!("line {n}: TYPE with invalid metric name {fam:?}"));
                continue;
            }
            if !["counter", "gauge", "histogram", "summary", "untyped"].contains(&kind) {
                errors.push(format!("line {n}: unknown TYPE kind {kind:?} for {fam}"));
            }
            if types.insert(fam.to_string(), kind.to_string()).is_some() {
                errors.push(format!("line {n}: duplicate TYPE for {fam}"));
            }
            if current.as_deref() == Some(fam) || closed.contains(fam) {
                errors.push(format!("line {n}: TYPE for {fam} after its samples"));
            }
            continue;
        }
        if line.starts_with('#') {
            continue; // plain comment: legal
        }
        match parse_sample_line(line) {
            Err(why) => errors.push(format!("line {n}: {why}")),
            Ok(series) => {
                let Some(fam) = resolve_family(&series, &types) else {
                    errors.push(format!("line {n}: sample {series} has no preceding TYPE"));
                    continue;
                };
                if !helps.contains(&fam) {
                    errors.push(format!("line {n}: sample {series} has no preceding HELP"));
                }
                if current.as_deref() != Some(fam.as_str()) {
                    if closed.contains(&fam) {
                        errors.push(format!(
                            "line {n}: samples of {fam} are not consecutive (family reopened)"
                        ));
                    }
                    if let Some(prev) = current.take() {
                        closed.insert(prev);
                    }
                    current = Some(fam);
                }
            }
        }
    }
    errors
}

fn is_valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Parses one exposition sample line, returning the metric name; errors
/// describe the first syntax problem found.
fn parse_sample_line(line: &str) -> Result<String, String> {
    let name_end = line
        .find(['{', ' '])
        .ok_or_else(|| format!("sample line has no value: {line:?}"))?;
    let name = &line[..name_end];
    if !is_valid_metric_name(name) {
        return Err(format!("invalid metric name {name:?}"));
    }
    let mut rest = &line[name_end..];
    if let Some(after_brace) = rest.strip_prefix('{') {
        let mut chars = after_brace.char_indices().peekable();
        loop {
            // Label key.
            let mut key_len = 0;
            while let Some(&(_, c)) = chars.peek() {
                if c.is_ascii_alphanumeric() || c == '_' {
                    key_len += 1;
                    chars.next();
                } else {
                    break;
                }
            }
            if key_len == 0 {
                return Err(format!("empty label name in {line:?}"));
            }
            match chars.next() {
                Some((_, '=')) => {}
                _ => return Err(format!("label missing '=' in {line:?}")),
            }
            match chars.next() {
                Some((_, '"')) => {}
                _ => return Err(format!("label value missing opening quote in {line:?}")),
            }
            // Escaped label value.
            loop {
                match chars.next() {
                    Some((_, '\\')) => match chars.next() {
                        Some((_, '\\' | '"' | 'n')) => {}
                        _ => return Err(format!("bad escape in label value in {line:?}")),
                    },
                    Some((_, '"')) => break,
                    Some(_) => {}
                    None => return Err(format!("unterminated label value in {line:?}")),
                }
            }
            match chars.next() {
                Some((_, ',')) => {}
                Some((end, '}')) => {
                    rest = &after_brace[end + 1..];
                    break;
                }
                _ => return Err(format!("label block not closed in {line:?}")),
            }
        }
    }
    let mut tokens = rest.split_whitespace();
    let value = tokens
        .next()
        .ok_or_else(|| format!("sample line has no value: {line:?}"))?;
    if value.parse::<f64>().is_err() {
        return Err(format!("unparseable sample value {value:?} in {line:?}"));
    }
    // Optional timestamp.
    if let Some(ts) = tokens.next() {
        if ts.parse::<i64>().is_err() {
            return Err(format!("unparseable timestamp {ts:?} in {line:?}"));
        }
    }
    if tokens.next().is_some() {
        return Err(format!("trailing tokens in {line:?}"));
    }
    Ok(name.to_string())
}

/// Maps a sample's metric name onto its announced family, resolving
/// histogram/summary child suffixes.
fn resolve_family(name: &str, types: &BTreeMap<String, String>) -> Option<String> {
    if types.contains_key(name) {
        return Some(name.to_string());
    }
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(base) = name.strip_suffix(suffix) {
            if matches!(
                types.get(base).map(String::as_str),
                Some("histogram" | "summary")
            ) {
                return Some(base.to_string());
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use trace::{causal_edges, CausalEdge, MsgRef};

    #[test]
    fn bucket_boundaries_are_exact_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        // Every boundary: 2^k opens bucket k+1, 2^k - 1 closes bucket k.
        for k in 1..64 {
            let pow = 1u64 << k;
            assert_eq!(bucket_index(pow), k + 1, "2^{k} opens bucket {}", k + 1);
            assert_eq!(bucket_index(pow - 1), k, "2^{k}-1 closes bucket {k}");
        }
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(3), 7);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
        // bucket_index and bucket_upper_bound agree: v <= bound(index(v)).
        for v in [0, 1, 2, 3, 4, 5, 127, 128, 129, 1 << 40, u64::MAX] {
            let i = bucket_index(v);
            assert!(v <= bucket_upper_bound(i));
            if i > 0 {
                assert!(v > bucket_upper_bound(i - 1));
            }
        }
    }

    #[test]
    fn histogram_aggregates() {
        let reg = Registry::enabled();
        let h = reg.histogram("h");
        for v in [0u64, 1, 3, 4, 1000] {
            h.record(v);
        }
        let snap = reg.snapshot();
        match snap.get("h").unwrap() {
            MetricValue::Histogram {
                count,
                sum,
                min,
                max,
                buckets,
            } => {
                assert_eq!(*count, 5);
                assert_eq!(*sum, 1008);
                assert_eq!(*min, 0);
                assert_eq!(*max, 1000);
                // 0→bucket 0, 1→1, 3→2, 4→3, 1000→10.
                assert_eq!(buckets, &vec![(0, 1), (1, 1), (3, 1), (7, 1), (1023, 1)]);
            }
            other => panic!("wrong metric kind: {other:?}"),
        }
    }

    #[test]
    fn concurrent_counter_increments_from_many_threads() {
        let reg = Registry::enabled();
        let counter = reg.counter("hits");
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let c = counter.clone();
                thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(counter.get(), 80_000);
        assert_eq!(reg.snapshot().counter("hits"), Some(80_000));
    }

    #[test]
    fn gauge_tracks_value_and_peak() {
        let reg = Registry::enabled();
        let g = reg.gauge("width");
        g.set(3);
        g.set(9);
        g.set(2);
        assert_eq!(g.get(), 2);
        assert_eq!(g.peak(), 9);
        assert_eq!(reg.snapshot().gauge("width"), Some((2, 9)));
    }

    #[test]
    fn disabled_registry_is_inert() {
        let reg = Registry::disabled();
        assert!(!reg.is_enabled());
        let c = reg.counter("c");
        let g = reg.gauge("g");
        let h = reg.histogram("h");
        c.add(10);
        g.set(5);
        h.record(7);
        let stage = Stage::timed(&h);
        assert!(
            stage.start.is_none(),
            "a disabled stage must not read the clock"
        );
        drop(stage);
        assert_eq!(c.get(), 0);
        assert_eq!(g.peak(), 0);
        assert_eq!(h.count(), 0);
        assert!(reg.snapshot().entries.is_empty());
        assert_eq!(reg.snapshot().to_json(), "{\"metrics\":{}}");
    }

    #[test]
    fn stage_records_into_histogram_and_lane() {
        let reg = Registry::enabled().traced();
        let both = reg.histogram("both_ns");
        let timed = reg.histogram("timed_ns");
        let mut ring = reg.tracer().ring("observer");
        Stage::start(&both, &ring).end(&mut ring, TraceKind::Stage { name: "one" });
        drop(Stage::timed(&timed));
        Stage::lane(&ring).end(&mut ring, TraceKind::Stage { name: "two" });
        assert_eq!((both.count(), timed.count()), (1, 1));
        ring.seal();
        let data = reg.tracer().collect();
        let spans = &data.lanes[0].events;
        assert_eq!(spans.len(), 2, "a timed-only stage records no span");
        assert_eq!(
            spans[0].dur_ns,
            both.sum(),
            "the span and the sample come from the same readings"
        );
    }

    /// One stage, one sample: `end` consumes the guard, so its `Drop`
    /// records nothing more.
    #[test]
    fn stage_end_records_exactly_once() {
        let reg = Registry::enabled();
        let h = reg.histogram("ns");
        Stage::timed(&h).end(&mut TraceRing::disabled(), TraceKind::Stage { name: "x" });
        assert_eq!(h.count(), 1, "end must record exactly one sample");
        drop(Stage::timed(&h));
        assert_eq!(h.count(), 2);

        // Untraced registries open disabled lanes.
        let ring = reg.tracer().ring("observer");
        assert!(!ring.is_enabled());
        assert!(Stage::lane(&ring).start.is_none());
        assert!(!Registry::disabled().tracer().is_enabled());
    }

    #[test]
    fn prometheus_names_are_sanitized() {
        assert_eq!(
            prometheus_name("core.events_processed"),
            "jmpax_core_events_processed"
        );
        assert_eq!(
            prometheus_name("observer.stage.jpax_ns"),
            "jmpax_observer_stage_jpax_ns"
        );
        assert_eq!(prometheus_name("weird-name!x"), "jmpax_weird_name_x");
    }

    #[test]
    fn prometheus_rendering_counters_and_gauges() {
        let reg = Registry::enabled();
        reg.counter("core.events_processed").add(12);
        reg.gauge("lattice.frontier_width").set(4);
        let text = reg.snapshot().to_prometheus();
        assert!(text.contains("# TYPE jmpax_core_events_processed counter\n"));
        assert!(text.contains("jmpax_core_events_processed 12\n"));
        assert!(text.contains("# TYPE jmpax_lattice_frontier_width gauge\n"));
        assert!(text.contains("jmpax_lattice_frontier_width 4\n"));
        assert!(text.contains("jmpax_lattice_frontier_width_peak 4\n"));
    }

    /// Histogram buckets must come out cumulative with a closing `+Inf`,
    /// and `_sum`/`_count` must match the aggregates.
    #[test]
    fn prometheus_histogram_buckets_are_cumulative() {
        let reg = Registry::enabled();
        let h = reg.histogram("core.event_update_ns");
        for v in [0u64, 1, 3, 4, 1000] {
            h.record(v);
        }
        let text = reg.snapshot().to_prometheus();
        let lines: Vec<&str> = text.lines().collect();
        let series: Vec<&str> = lines
            .iter()
            .filter(|l| l.starts_with("jmpax_core_event_update_ns_bucket"))
            .copied()
            .collect();
        // Non-empty log2 buckets 0,1,3,7,1023 render cumulatively, then +Inf.
        assert_eq!(
            series,
            vec![
                "jmpax_core_event_update_ns_bucket{le=\"0\"} 1",
                "jmpax_core_event_update_ns_bucket{le=\"1\"} 2",
                "jmpax_core_event_update_ns_bucket{le=\"3\"} 3",
                "jmpax_core_event_update_ns_bucket{le=\"7\"} 4",
                "jmpax_core_event_update_ns_bucket{le=\"1023\"} 5",
                "jmpax_core_event_update_ns_bucket{le=\"+Inf\"} 5",
            ]
        );
        assert!(lines.contains(&"jmpax_core_event_update_ns_sum 1008"));
        assert!(lines.contains(&"jmpax_core_event_update_ns_count 5"));
    }

    #[test]
    fn handles_share_state_by_name() {
        let reg = Registry::enabled();
        reg.counter("x").inc();
        reg.counter("x").add(2);
        assert_eq!(reg.counter("x").get(), 3);
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn kind_mismatch_panics() {
        let reg = Registry::enabled();
        let _ = reg.counter("m");
        let _ = reg.gauge("m");
    }

    #[test]
    fn text_rendering_is_aligned_and_sorted() {
        let reg = Registry::enabled();
        reg.counter("b.count").add(2);
        reg.gauge("a.width").set(4);
        reg.histogram("c.ns").record(100);
        let text = reg.snapshot().to_text();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("a.width"));
        assert!(lines[1].starts_with("b.count"));
        assert!(lines[2].starts_with("c.ns"));
        // Metric kinds line up in the same column.
        let col = lines[0].find("gauge").unwrap();
        assert_eq!(lines[1].find("counter").unwrap(), col);
        assert_eq!(lines[2].find("histogram").unwrap(), col);
    }

    #[test]
    fn quantile_estimates_stay_within_observed_range() {
        let reg = Registry::enabled();
        let h = reg.histogram("h");
        // 100 samples at 100 ns, 5 at ~10_000 ns: p50 must sit in the low
        // cluster and p99 in the high one, all clamped to [min, max].
        for _ in 0..100 {
            h.record(100);
        }
        for _ in 0..5 {
            h.record(10_000);
        }
        let snap = reg.snapshot();
        let value = snap.get("h").unwrap();
        let p50 = value.quantile(0.50).unwrap();
        let p99 = value.quantile(0.99).unwrap();
        // Bucket for 100 is [64, 127]; the estimate is clamped to min=100.
        assert!((100..=127).contains(&p50), "p50={p50}");
        // Bucket for 10_000 is [8192, 16383], clamped to max=10_000.
        assert!((8192..=10_000).contains(&p99), "p99={p99}");
        assert!(p50 <= p99, "quantiles must be monotone");
        // Degenerate cases.
        assert_eq!(value.quantile(0.0).unwrap(), 100, "q=0 is the min bucket");
        assert!(MetricValue::Counter(3).quantile(0.5).is_none());
        let empty = MetricValue::Histogram {
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            buckets: vec![],
        };
        assert!(empty.quantile(0.5).is_none());
        assert_eq!(histogram_quantile(&[], 0, 0, 0, 0.5), 0);
    }

    #[test]
    fn single_valued_histogram_quantiles_are_exact() {
        let reg = Registry::enabled();
        let h = reg.histogram("h");
        for _ in 0..7 {
            h.record(1_000);
        }
        let value = reg.snapshot();
        let value = value.get("h").unwrap();
        for q in [0.01, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(value.quantile(q), Some(1_000), "q={q}");
        }
    }

    #[test]
    fn renderers_surface_quantiles() {
        let reg = Registry::enabled();
        let h = reg.histogram("stage.ns");
        for _ in 0..10 {
            h.record(512);
        }
        let text = reg.snapshot().to_text();
        assert!(text.contains("p50=512 p95=512 p99=512"), "text: {text}");
        let json = reg.snapshot().to_json();
        let parsed = json::parse(&json).unwrap();
        let m = parsed
            .get("metrics")
            .and_then(|m| m.get("stage.ns"))
            .unwrap();
        assert_eq!(m.get("p50").and_then(json::Value::as_u64), Some(512));
        assert_eq!(m.get("p99").and_then(json::Value::as_u64), Some(512));
        let prom = reg.snapshot().to_prometheus();
        assert!(prom.contains("jmpax_stage_ns_p50 512\n"), "prom: {prom}");
        assert!(prom.contains("jmpax_stage_ns_p95 512\n"));
        assert!(prom.contains("jmpax_stage_ns_p99 512\n"));
    }

    /// Scrapers need `# HELP`/`# TYPE` metadata on every exposed series.
    #[test]
    fn prometheus_emits_help_and_type_for_every_series() {
        let reg = Registry::enabled();
        reg.counter("core.events_processed").add(1);
        reg.gauge("lattice.frontier_width").set(2);
        reg.histogram("observer.stage.analysis_ns").record(3);
        let text = reg.snapshot().to_prometheus();
        for series in [
            "jmpax_core_events_processed",
            "jmpax_lattice_frontier_width",
            "jmpax_lattice_frontier_width_peak",
            "jmpax_observer_stage_analysis_ns",
            "jmpax_observer_stage_analysis_ns_p50",
            "jmpax_observer_stage_analysis_ns_p95",
            "jmpax_observer_stage_analysis_ns_p99",
        ] {
            assert!(
                text.contains(&format!("# HELP {series} ")),
                "missing HELP for {series}:\n{text}"
            );
            assert!(
                text.contains(&format!("# TYPE {series} ")),
                "missing TYPE for {series}:\n{text}"
            );
        }
        assert!(text.contains("# TYPE jmpax_observer_stage_analysis_ns histogram\n"));
    }

    #[test]
    fn json_round_trips_through_own_parser() {
        let reg = Registry::enabled();
        reg.counter("core.events_processed").add(12);
        reg.gauge("lattice.peak_frontier").set(4);
        let h = reg.histogram("observer.stage.analysis_ns");
        h.record(900);
        h.record(1200);
        let text = reg.snapshot().to_json();
        let value = json::parse(&text).expect("snapshot JSON must parse");
        let metrics = value.get("metrics").expect("metrics key");
        assert_eq!(
            metrics
                .get("core.events_processed")
                .and_then(|m| m.get("value"))
                .and_then(json::Value::as_u64),
            Some(12)
        );
        assert_eq!(
            metrics
                .get("lattice.peak_frontier")
                .and_then(|m| m.get("peak"))
                .and_then(json::Value::as_u64),
            Some(4)
        );
        assert_eq!(
            metrics
                .get("observer.stage.analysis_ns")
                .and_then(|m| m.get("count"))
                .and_then(json::Value::as_u64),
            Some(2)
        );
    }

    #[test]
    fn labeled_counters_render_in_all_formats() {
        let reg = Registry::enabled();
        reg.counter("serve.gaps_skipped").add(7); // flat aggregate
        reg.counter_with("serve.gaps_skipped", &[("tenant", "t1")])
            .add(3);
        reg.counter_with("serve.gaps_skipped", &[("tenant", "t2")])
            .add(4);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("serve.gaps_skipped"), Some(7));
        assert_eq!(
            snap.counter_with("serve.gaps_skipped", &[("tenant", "t1")]),
            Some(3)
        );
        assert_eq!(snap.family("serve.gaps_skipped").count(), 3);

        let text = snap.to_text();
        assert!(
            text.contains("serve.gaps_skipped{tenant=\"t1\"}"),
            "text: {text}"
        );
        let json_text = snap.to_json();
        let parsed = json::parse(&json_text).unwrap();
        assert_eq!(
            parsed
                .get("metrics")
                .and_then(|m| m.get("serve.gaps_skipped{tenant=\"t2\"}"))
                .and_then(|m| m.get("value"))
                .and_then(json::Value::as_u64),
            Some(4)
        );
        let prom = snap.to_prometheus();
        assert!(
            prom.contains("jmpax_serve_gaps_skipped{tenant=\"t1\"} 3\n"),
            "prom: {prom}"
        );
        assert!(prom.contains("jmpax_serve_gaps_skipped 7\n"));
        // One family header regardless of how many label sets exist.
        assert_eq!(prom.matches("# TYPE jmpax_serve_gaps_skipped ").count(), 1);
        assert_eq!(lint_prometheus(&prom), Vec::<String>::new());
    }

    #[test]
    fn label_order_is_canonical_and_values_are_escaped() {
        let reg = Registry::enabled();
        reg.counter_with("m", &[("b", "2"), ("a", "1")]).inc();
        reg.counter_with("m", &[("a", "1"), ("b", "2")]).inc();
        let snap = reg.snapshot();
        assert_eq!(
            snap.counter_with("m", &[("b", "2"), ("a", "1")]),
            Some(2),
            "one cell regardless of label order"
        );
        assert_eq!(
            series_key("m", &[("b", "2"), ("a", "1")]),
            "m{a=\"1\",b=\"2\"}"
        );

        let hostile = Registry::enabled();
        hostile.gauge_with("g", &[("tenant", "q\"u\\o\nte")]).set(1);
        let prom = hostile.snapshot().to_prometheus();
        assert!(
            prom.contains("jmpax_g{tenant=\"q\\\"u\\\\o\\nte\"} 1\n"),
            "prom: {prom}"
        );
        assert_eq!(lint_prometheus(&prom), Vec::<String>::new());
    }

    /// Satellite: 2× the LRU cap of tenants must evict down to the cap,
    /// count every eviction, and keep registry memory stable.
    #[test]
    fn label_cardinality_overflow_evicts_lru_and_counts_drops() {
        const CAP: usize = 8;
        let reg = Registry::with_label_capacity(CAP);
        for i in 0..CAP * 2 {
            reg.counter_with("serve.gaps_skipped", &[("tenant", &format!("t{i}"))])
                .add(i as u64);
        }
        assert_eq!(reg.labels_dropped(), CAP as u64);
        let snap = reg.snapshot();
        assert_eq!(snap.counter(LABELS_DROPPED), Some(CAP as u64));
        let labeled: Vec<_> = snap
            .family("serve.gaps_skipped")
            .filter(|e| !e.labels.is_empty())
            .collect();
        assert_eq!(labeled.len(), CAP, "resident labeled series == cap");
        // The survivors are the most recently registered half.
        for e in &labeled {
            let id: usize = e.labels[0].1[1..].parse().unwrap();
            assert!(id >= CAP, "t{id} should have been evicted");
        }
        // Memory stability: hammering many more tenants never grows past
        // the cap.
        for i in 0..1000 {
            reg.gauge_with("serve.verdict_state", &[("tenant", &format!("x{i}"))])
                .set(1);
        }
        let snap = reg.snapshot();
        let resident = snap.entries.iter().filter(|e| !e.labels.is_empty()).count();
        assert!(resident <= CAP, "resident {resident} > cap {CAP}");
        // Re-registering an evicted tenant starts a fresh cell.
        assert_eq!(
            reg.counter_with("serve.gaps_skipped", &[("tenant", "t0")])
                .get(),
            0
        );
    }

    #[test]
    fn lru_refresh_protects_recently_touched_series() {
        let reg = Registry::with_label_capacity(2);
        reg.counter_with("c", &[("tenant", "a")]).inc();
        reg.counter_with("c", &[("tenant", "b")]).inc();
        // Touch "a" again: "b" becomes the LRU victim.
        reg.counter_with("c", &[("tenant", "a")]).inc();
        reg.counter_with("c", &[("tenant", "z")]).inc();
        let snap = reg.snapshot();
        assert_eq!(snap.counter_with("c", &[("tenant", "a")]), Some(2));
        assert!(snap.counter_with("c", &[("tenant", "b")]).is_none());
        assert_eq!(snap.counter_with("c", &[("tenant", "z")]), Some(1));
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn labeled_kind_mismatch_panics_across_label_sets() {
        let reg = Registry::enabled();
        let _ = reg.counter_with("m", &[("tenant", "t1")]);
        let _ = reg.gauge_with("m", &[("tenant", "t2")]);
    }

    /// Satellite: quantile HELP lines must reference the escaped metric
    /// name, and `_p50/_p95/_p99` must get TYPE before their first sample
    /// — for flat and labeled histograms alike.
    #[test]
    fn quantile_metadata_references_escaped_name() {
        let reg = Registry::enabled();
        reg.histogram("core.event_update_ns").record(100);
        reg.histogram_with("observer.stage.decode_ns", &[("tenant", "t1")])
            .record(50);
        reg.histogram_with("observer.stage.decode_ns", &[("tenant", "t2")])
            .record(60);
        let prom = reg.snapshot().to_prometheus();
        assert!(
            prom.contains(
                "# HELP jmpax_core_event_update_ns_p50 estimated p50 of jmpax_core_event_update_ns\n"
            ),
            "prom: {prom}"
        );
        assert!(!prom.contains("of core.event_update_ns"), "prom: {prom}");
        for q in ["p50", "p95", "p99"] {
            let type_line = format!("# TYPE jmpax_observer_stage_decode_ns_{q} gauge\n");
            let first_sample = prom
                .find(&format!("jmpax_observer_stage_decode_ns_{q}{{"))
                .unwrap_or_else(|| panic!("no {q} sample in:\n{prom}"));
            let type_at = prom.find(&type_line).expect("TYPE line present");
            assert!(type_at < first_sample, "TYPE after first {q} sample");
            assert_eq!(prom.matches(type_line.as_str()).count(), 1);
        }
        assert_eq!(lint_prometheus(&prom), Vec::<String>::new());
    }

    /// A busy, mixed registry must produce a lint-clean exposition.
    #[test]
    fn rich_registry_exposition_is_lint_clean() {
        let reg = Registry::enabled();
        for t in ["t1", "t2", "t3"] {
            reg.counter_with("serve.frames_decoded", &[("tenant", t)])
                .add(5);
            reg.gauge_with("serve.verdict_state", &[("tenant", t)])
                .set(2);
            reg.histogram_with("serve.chunk_ns", &[("tenant", t)])
                .record(900);
        }
        reg.counter("serve.sessions_accepted").add(3);
        reg.gauge("lattice.frontier_width").set(7);
        reg.histogram("observer.stage.decode_ns").record(123);
        let prom = reg.snapshot().to_prometheus();
        assert_eq!(
            lint_prometheus(&prom),
            Vec::<String>::new(),
            "text:\n{prom}"
        );
    }

    #[test]
    fn lint_catches_common_exposition_bugs() {
        // Sample with no TYPE.
        assert!(!lint_prometheus("jmpax_orphan 1\n").is_empty());
        // TYPE after the family's first sample.
        let late_type = "# HELP m m\nm 1\n# TYPE m counter\n";
        assert!(lint_prometheus(late_type)
            .iter()
            .any(|e| e.contains("no preceding TYPE") || e.contains("after its samples")));
        // Interleaved families.
        let interleaved = "# HELP a a\n# TYPE a counter\n# HELP b b\n# TYPE b counter\n\
                           a 1\nb 1\na{x=\"1\"} 2\n";
        assert!(lint_prometheus(interleaved)
            .iter()
            .any(|e| e.contains("not consecutive")));
        // Bad label syntax and bad value.
        assert!(!lint_prometheus("# HELP c c\n# TYPE c counter\nc{=\"\"} 1\n").is_empty());
        assert!(!lint_prometheus("# HELP d d\n# TYPE d counter\nd notanumber\n").is_empty());
        // Histogram children resolve to their base family.
        let histo = "# HELP h h\n# TYPE h histogram\nh_bucket{le=\"1\"} 1\n\
                     h_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n";
        assert_eq!(lint_prometheus(histo), Vec::<String>::new());
    }

    #[test]
    fn labels_dropped_counter_aliases_shared_cell() {
        let reg = Registry::with_label_capacity(1);
        // User-registered handle first, then evictions must show through it.
        let dropped = reg.counter(LABELS_DROPPED);
        reg.counter_with("c", &[("tenant", "a")]).inc();
        reg.counter_with("c", &[("tenant", "b")]).inc();
        assert_eq!(dropped.get(), 1);
        assert_eq!(reg.labels_dropped(), 1);
    }

    // The tracer behind `Registry::tracer`.

    fn msg(thread: u32, seq: u32, clock: &[u32]) -> MsgRef {
        MsgRef {
            thread,
            seq,
            clock: clock.to_vec(),
            var: None,
            value: None,
        }
    }

    #[test]
    fn disabled_tracer_is_inert() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        let mut ring = t.ring("T1");
        assert!(!ring.is_enabled());
        ring.record(TraceKind::Stage { name: "x" });
        assert_eq!(ring.buffered(), 0);
        drop(ring);
        assert!(t.collect().is_empty());
    }

    #[test]
    fn records_flow_from_rings_to_collector() {
        let t = Tracer::enabled();
        let mut a = t.ring("T1");
        let mut b = t.ring("T2");
        a.record(TraceKind::Processed {
            thread: 0,
            relevant: true,
        });
        b.record(TraceKind::Processed {
            thread: 1,
            relevant: false,
        });
        a.record(TraceKind::Emitted(msg(0, 1, &[1, 0])));
        assert!(t.collect().is_empty(), "unsealed rings are not collected");
        drop(a);
        b.seal();
        let data = t.collect();
        assert_eq!(data.lanes.len(), 2);
        assert_eq!(data.lanes[0].lane, "T1");
        assert_eq!(data.lanes[0].events.len(), 2);
        assert_eq!(data.lanes[1].events.len(), 1);
        assert_eq!(data.len(), 3);
    }

    #[test]
    fn ring_bounds_and_drops_oldest() {
        let t = Tracer::with_capacity(4);
        let mut ring = t.ring("T1");
        for i in 0..10u64 {
            ring.record(TraceKind::CutPruned { level: i, count: 1 });
        }
        assert_eq!(ring.buffered(), 4);
        assert_eq!(ring.dropped(), 6);
        ring.seal();
        let data = t.collect();
        assert_eq!(data.lanes[0].dropped, 6);
        // The survivors are the newest four, in order.
        let levels: Vec<u64> = data.lanes[0]
            .events
            .iter()
            .map(|r| match r.kind {
                TraceKind::CutPruned { level, .. } => level,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(levels, vec![6, 7, 8, 9]);
    }

    #[test]
    fn clone_gives_fresh_ring_same_lane() {
        let t = Tracer::enabled();
        let mut a = t.ring("T1");
        a.record(TraceKind::Stage { name: "one" });
        let mut b = a.clone();
        assert_eq!(b.buffered(), 0, "clone must not alias the buffer");
        b.record(TraceKind::Stage { name: "two" });
        drop(a);
        drop(b);
        let data = t.collect();
        assert_eq!(data.lanes.len(), 1, "same lane merges");
        assert_eq!(data.lanes[0].events.len(), 2);
    }

    #[test]
    fn causal_edges_match_theorem3() {
        // Two threads: T1 writes twice, T2's second message has seen T1's
        // first (clock [1, 2]).
        let msgs = [
            msg(0, 1, &[1, 0]),
            msg(0, 2, &[2, 0]),
            msg(1, 1, &[0, 1]),
            msg(1, 2, &[1, 2]),
        ];
        let refs: Vec<&MsgRef> = msgs.iter().collect();
        let edges = causal_edges(&refs);
        assert_eq!(
            edges,
            vec![
                CausalEdge {
                    from: (0, 1),
                    to: (0, 2)
                },
                CausalEdge {
                    from: (0, 1),
                    to: (1, 2)
                },
                CausalEdge {
                    from: (1, 1),
                    to: (1, 2)
                },
            ]
        );
        // Every derived edge satisfies Theorem 3.
        let by_key = |k: (u32, u32)| msgs.iter().find(|m| (m.thread, m.seq) == k).unwrap();
        for e in &edges {
            assert!(
                by_key(e.from).causally_precedes(by_key(e.to)),
                "edge {e:?} violates Theorem 3"
            );
        }
        // And the reverse direction does not hold for cross-thread edges.
        assert!(!msg(1, 2, &[1, 2]).causally_precedes(&msg(0, 1, &[1, 0])));
    }

    #[test]
    fn causal_messages_prefers_ingested_view() {
        let t = Tracer::enabled();
        let mut ring = t.ring("wire");
        ring.record(TraceKind::Emitted(msg(0, 1, &[1, 0])));
        ring.record(TraceKind::Emitted(msg(0, 2, &[2, 0])));
        ring.record(TraceKind::Ingested(msg(0, 1, &[1, 0])));
        ring.seal();
        let data = t.collect();
        assert_eq!(data.messages(false).len(), 2);
        assert_eq!(data.causal_messages().len(), 1, "ingested view wins");
    }
}
