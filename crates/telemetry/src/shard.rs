//! Per-worker telemetry shards: the contention-free hot path.
//!
//! A [`WorkerCollector`] is a private slice of the metrics plane owned by
//! one worker thread. Every slot is addressed by a pre-registered ID from
//! [`crate::registry`], so a hot-path touch is an array index plus a
//! relaxed atomic add — no mutex, no map lookup, no allocation, and (since
//! each worker writes only its own shard) no cache-line ping-pong between
//! cores.
//!
//! Life cycle: [`crate::worker_shard`] (or
//! [`crate::Collector::install_worker_shard`] for a non-session collector
//! like cc-serve's) registers a fresh shard with its owning collector and
//! binds it to the current thread through a [`ShardGuard`]. While the
//! guard lives, ID-addressed recording calls made *on this thread, against
//! that collector* land in the shard. When the guard drops, the shard is
//! **drained**: its totals are folded into the owning collector's shared
//! slots under the same lock that serializes reporting, so a concurrent
//! report sees each observation exactly once — in the shard or in the
//! collector, never both, never neither.
//!
//! Determinism: shards only ever hold counter/event *sums*, histogram
//! bucket sums, and span rollups — all commutative, associative merges.
//! Draining N shards in any order therefore produces byte-identical
//! `cc-telemetry/v1` deterministic sections to a single unsharded
//! collector (proven by `tests/shard_props.rs`). Gauges are last-write-
//! wins and are deliberately **not** sharded — they go straight to the
//! collector's lock-free gauge slots so cross-worker write ordering is
//! the real wall-clock ordering.

use std::cell::RefCell;
use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::collector::Collector;
use crate::histogram::{bucket_index, ms_to_ns, Histogram, BUCKETS};
use crate::lock;
use crate::registry::{CounterId, EventId, HistogramId};
use crate::span::SpanStat;

/// One counter slot: the running sum plus a flag remembering that the
/// counter was touched with `n == 0` (the legacy map inserted a 0-valued
/// entry on first touch, and reports must keep rendering those).
#[derive(Debug, Default)]
pub(crate) struct CounterCell {
    value: AtomicU64,
    zero_touched: AtomicBool,
}

impl CounterCell {
    pub(crate) fn add(&self, n: u64) {
        if n == 0 {
            self.zero_touched.store(true, Ordering::Relaxed);
        } else {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    pub(crate) fn load(&self) -> (u64, bool) {
        (
            self.value.load(Ordering::Relaxed),
            self.zero_touched.load(Ordering::Relaxed),
        )
    }

    /// Move this cell's state into `dst` (quiesced cells only: the owning
    /// worker has stopped writing by the time a shard drains).
    fn drain_into(&self, dst: &CounterCell) {
        let v = self.value.swap(0, Ordering::Relaxed);
        if v > 0 {
            dst.value.fetch_add(v, Ordering::Relaxed);
        }
        if self.zero_touched.swap(false, Ordering::Relaxed) {
            dst.zero_touched.store(true, Ordering::Relaxed);
        }
    }
}

/// A log-bucketed histogram recordable through `&self`: the atomic twin
/// of [`Histogram`], for the ID-addressed slots. Per-shard sums stay in
/// `u64` nanoseconds (a shard would need ~585 years of recorded latency
/// to overflow); the `u128` widening happens at snapshot time.
#[derive(Debug)]
pub(crate) struct AtomicHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
    min_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        AtomicHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            min_ns: AtomicU64::new(u64::MAX),
            max_ns: AtomicU64::new(0),
        }
    }
}

impl AtomicHistogram {
    pub(crate) fn observe_ms(&self, ms: f64) {
        let ns = ms_to_ns(ms);
        self.buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.min_ns.fetch_min(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.count.load(Ordering::Relaxed) == 0
    }

    /// Non-destructive copy into a plain [`Histogram`].
    pub(crate) fn snapshot(&self) -> Histogram {
        Histogram::from_parts(
            std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            self.count.load(Ordering::Relaxed),
            u128::from(self.sum_ns.load(Ordering::Relaxed)),
            self.min_ns.load(Ordering::Relaxed),
            self.max_ns.load(Ordering::Relaxed),
        )
    }

    /// Move this histogram's observations into `dst` (quiesced only).
    fn drain_into(&self, dst: &AtomicHistogram) {
        let count = self.count.swap(0, Ordering::Relaxed);
        if count == 0 {
            return;
        }
        for (mine, theirs) in dst.buckets.iter().zip(self.buckets.iter()) {
            let n = theirs.swap(0, Ordering::Relaxed);
            if n > 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
        dst.count.fetch_add(count, Ordering::Relaxed);
        dst.sum_ns
            .fetch_add(self.sum_ns.swap(0, Ordering::Relaxed), Ordering::Relaxed);
        dst.min_ns
            .fetch_min(self.min_ns.swap(u64::MAX, Ordering::Relaxed), Ordering::Relaxed);
        dst.max_ns
            .fetch_max(self.max_ns.swap(0, Ordering::Relaxed), Ordering::Relaxed);
    }
}

/// One worker thread's private slice of the metrics plane.
///
/// Writes come only from the owning thread (relaxed atomics, uncontended);
/// reads come from the reporter/sampler thread through the owning
/// collector's merged views.
#[derive(Debug)]
pub struct WorkerCollector {
    counters: Vec<CounterCell>,
    events: Vec<AtomicU64>,
    histograms: Vec<AtomicHistogram>,
    /// Span rollups keyed by path. Paths are dynamic strings, so this
    /// stays a map — but a *per-shard* one: the mutex is uncontended
    /// (owner thread plus the drain), unlike the old process-wide lock
    /// every span completion funneled through.
    spans: Mutex<HashMap<String, SpanStat>>,
}

impl Default for WorkerCollector {
    fn default() -> Self {
        WorkerCollector {
            counters: (0..CounterId::count()).map(|_| CounterCell::default()).collect(),
            events: (0..EventId::count()).map(|_| AtomicU64::new(0)).collect(),
            histograms: (0..HistogramId::count())
                .map(|_| AtomicHistogram::default())
                .collect(),
            spans: Mutex::new(HashMap::new()),
        }
    }
}

impl WorkerCollector {
    pub(crate) fn add_counter(&self, id: CounterId, n: u64) {
        self.counters[id.index()].add(n);
    }

    pub(crate) fn add_event(&self, id: EventId) {
        self.events[id.index()].fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn observe_ms(&self, id: HistogramId, ms: f64) {
        self.histograms[id.index()].observe_ms(ms);
    }

    pub(crate) fn record_span(&self, path: &str, ns: u64, self_ns: u64, tick: u64) {
        let mut spans = lock(&self.spans);
        match spans.get_mut(path) {
            Some(s) => s.record(ns, self_ns, tick),
            None => {
                let mut s = SpanStat::default();
                s.record(ns, self_ns, tick);
                spans.insert(path.to_string(), s);
            }
        }
    }

    pub(crate) fn counter_view(&self, id: CounterId) -> (u64, bool) {
        self.counters[id.index()].load()
    }

    pub(crate) fn event_view(&self, id: EventId) -> u64 {
        self.events[id.index()].load(Ordering::Relaxed)
    }

    pub(crate) fn spans_view(&self) -> Vec<(String, SpanStat)> {
        lock(&self.spans)
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }

    pub(crate) fn histogram_view(&self, id: HistogramId) -> Option<Histogram> {
        let h = &self.histograms[id.index()];
        if h.is_empty() {
            None
        } else {
            Some(h.snapshot())
        }
    }

    /// Fold everything into the shared destination slots. Called with the
    /// owning collector's shard registry locked and the owning worker
    /// thread done writing.
    pub(crate) fn drain_into(
        &self,
        counters: &[CounterCell],
        events: &[AtomicU64],
        histograms: &[AtomicHistogram],
        spans: &mut std::collections::BTreeMap<String, SpanStat>,
    ) {
        for (mine, dst) in self.counters.iter().zip(counters.iter()) {
            mine.drain_into(dst);
        }
        for (mine, dst) in self.events.iter().zip(events.iter()) {
            let n = mine.swap(0, Ordering::Relaxed);
            if n > 0 {
                dst.fetch_add(n, Ordering::Relaxed);
            }
        }
        for (mine, dst) in self.histograms.iter().zip(histograms.iter()) {
            mine.drain_into(dst);
        }
        for (path, stat) in lock(&self.spans).drain() {
            spans.entry(path).or_default().merge(&stat);
        }
    }
}

/// The thread's active shard: which collector it belongs to (by address,
/// so a serve-collector shard never swallows session metrics recorded on
/// the same thread) and the shard itself.
struct ActiveShard {
    owner: usize,
    shard: Arc<WorkerCollector>,
}

thread_local! {
    static ACTIVE_SHARD: RefCell<Option<ActiveShard>> = const { RefCell::new(None) };
}

/// Run `f` against the thread's active shard if it belongs to the
/// collector at `owner`. Returns `None` (caller falls back to the shared
/// slots) otherwise.
pub(crate) fn with_active_shard<R>(owner: usize, f: impl FnOnce(&WorkerCollector) -> R) -> Option<R> {
    ACTIVE_SHARD.with(|cell| {
        let active = cell.borrow();
        match active.as_ref() {
            Some(a) if a.owner == owner => Some(f(&a.shard)),
            _ => None,
        }
    })
}

/// Binds a [`WorkerCollector`] to the current thread; draining and
/// unregistering it on drop.
///
/// Deliberately `!Send`: the shard's cheap relaxed writes are sound
/// because exactly one thread writes, and that thread is whichever one
/// created the guard.
#[must_use = "the shard records nothing once the guard drops"]
pub struct ShardGuard {
    owner: Option<Arc<Collector>>,
    shard: Option<Arc<WorkerCollector>>,
    _single_thread: PhantomData<*const ()>,
}

impl ShardGuard {
    /// A guard that does nothing (recording off).
    pub(crate) fn disabled() -> Self {
        ShardGuard {
            owner: None,
            shard: None,
            _single_thread: PhantomData,
        }
    }

    pub(crate) fn bind(owner: Arc<Collector>, shard: Arc<WorkerCollector>) -> Self {
        ACTIVE_SHARD.with(|cell| {
            *cell.borrow_mut() = Some(ActiveShard {
                owner: Arc::as_ptr(&owner) as usize,
                shard: Arc::clone(&shard),
            });
        });
        ShardGuard {
            owner: Some(owner),
            shard: Some(shard),
            _single_thread: PhantomData,
        }
    }
}

impl Drop for ShardGuard {
    fn drop(&mut self) {
        let (Some(owner), Some(shard)) = (self.owner.take(), self.shard.take()) else {
            return;
        };
        // Unbind first so nothing written during/after the drain can land
        // in the shard, then fold it into the shared slots.
        ACTIVE_SHARD.with(|cell| {
            let mut active = cell.borrow_mut();
            if active
                .as_ref()
                .is_some_and(|a| Arc::ptr_eq(&a.shard, &shard))
            {
                *active = None;
            }
        });
        owner.drain_worker_shard(&shard);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_cell_remembers_zero_touch() {
        let c = CounterCell::default();
        assert_eq!(c.load(), (0, false));
        c.add(0);
        assert_eq!(c.load(), (0, true));
        c.add(3);
        assert_eq!(c.load(), (3, true));
    }

    #[test]
    fn atomic_histogram_matches_plain_histogram() {
        let atomic = AtomicHistogram::default();
        let mut plain = Histogram::default();
        for ms in [0.0, 0.5, 1.0, 17.3, 1000.0, f64::NAN] {
            atomic.observe_ms(ms);
            plain.observe_ms(ms);
        }
        assert_eq!(atomic.snapshot().summarize(), plain.summarize());
    }

    #[test]
    fn drained_shard_is_empty() {
        let shard = WorkerCollector::default();
        shard.add_counter(CounterId::NET_CONNECT_OK, 5);
        shard.add_event(EventId::WEB_SCRIPT_EXECUTED_TRACKER);
        shard.observe_ms(HistogramId::NET_SIM_LATENCY, 3.0);
        shard.record_span("w", 10, 10, 0);

        let counters: Vec<CounterCell> =
            (0..CounterId::count()).map(|_| CounterCell::default()).collect();
        let events: Vec<AtomicU64> = (0..EventId::count()).map(|_| AtomicU64::new(0)).collect();
        let histograms: Vec<AtomicHistogram> = (0..HistogramId::count())
            .map(|_| AtomicHistogram::default())
            .collect();
        let mut spans = std::collections::BTreeMap::new();

        shard.drain_into(&counters, &events, &histograms, &mut spans);
        assert_eq!(counters[CounterId::NET_CONNECT_OK.index()].load(), (5, false));
        assert_eq!(
            events[EventId::WEB_SCRIPT_EXECUTED_TRACKER.index()].load(Ordering::Relaxed),
            1
        );
        assert_eq!(spans["w"].count, 1);

        // Second drain adds nothing: the shard was reset.
        shard.drain_into(&counters, &events, &histograms, &mut spans);
        assert_eq!(counters[CounterId::NET_CONNECT_OK.index()].load(), (5, false));
        assert_eq!(
            histograms[HistogramId::NET_SIM_LATENCY.index()]
                .snapshot()
                .count(),
            1
        );
        assert_eq!(spans["w"].count, 1);
    }
}
