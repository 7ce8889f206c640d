//! The thread-safe collector and the exclusive recording session.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use crate::histogram::Histogram;
use crate::lock;
use crate::registry::{CounterId, EventId, GaugeId, HistogramId};
use crate::report::{DeterministicSection, RunReport, SpanRollup, TimingSection, WorkerSection};
use crate::shard::{with_active_shard, AtomicHistogram, CounterCell, ShardGuard, WorkerCollector};
use crate::span::SpanStat;
use crate::trace_export::TraceSpan;

/// One gauge slot: last-written value (as `f64` bits) plus whether it was
/// ever set. Gauges are not sharded — last-write-wins across workers must
/// follow real wall-clock ordering — but a set is still a lock-free store
/// with no `String` key allocation.
#[derive(Debug, Default)]
struct GaugeCell {
    bits: AtomicU64,
    set: AtomicBool,
}

impl GaugeCell {
    fn set(&self, value: f64) {
        self.bits.store(value.to_bits(), Ordering::Relaxed);
        self.set.store(true, Ordering::Relaxed);
    }

    fn get(&self) -> Option<f64> {
        if self.set.load(Ordering::Relaxed) {
            Some(f64::from_bits(self.bits.load(Ordering::Relaxed)))
        } else {
            None
        }
    }
}

/// Where every recording call lands.
///
/// Two planes coexist:
///
/// * **ID slots** (hot path): metrics pre-registered in
///   [`crate::registry`] live in dense ID-indexed arrays of atomic cells,
///   and worker threads holding a [`ShardGuard`] write to private
///   [`WorkerCollector`] shards that drain into those slots. No lock, no
///   map lookup, no allocation per touch.
/// * **Name-keyed maps** (cold path): everything else — dynamic labels,
///   per-worker gauges, ad-hoc test metrics — lands in the original
///   mutex-guarded `BTreeMap`s. String-keyed calls whose name turns out
///   to be registered are transparently redirected to the ID slots, so a
///   metric's totals can never split across the two planes.
///
/// Reports merge both planes back into one name-sorted view, preserving
/// the `cc-telemetry/v1` shape byte-for-byte.
#[derive(Debug)]
pub struct Collector {
    counters: Mutex<BTreeMap<String, u64>>,
    events: Mutex<BTreeMap<String, u64>>,
    gauges: Mutex<BTreeMap<String, f64>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
    spans: Mutex<BTreeMap<String, SpanStat>>,
    /// ID-indexed hot-path slots (shared fallback when a thread has no
    /// shard, and the destination shards drain into).
    counter_slots: Vec<CounterCell>,
    event_slots: Vec<AtomicU64>,
    gauge_slots: Vec<GaugeCell>,
    hist_slots: Vec<AtomicHistogram>,
    /// Live worker shards. The mutex serializes shard drains against
    /// report snapshots: a report sees every observation exactly once,
    /// either still in a shard or already drained into the slots.
    shards: Mutex<Vec<Arc<WorkerCollector>>>,
    /// Monotonic completion tick: orders span paths by first completion
    /// for the `--trace` tree.
    span_tick: AtomicU64,
    /// When this collector was created — the zero point for trace-span
    /// start offsets.
    epoch: Instant,
    /// Whether individual spans are captured for chrome-trace export
    /// (off by default: capture stores one record per completed span).
    trace_capture: AtomicBool,
    trace_spans: Mutex<Vec<TraceSpan>>,
    /// Track id → track name (the root segment of the first span the
    /// thread completed), for chrome-trace thread-name metadata.
    trace_tracks: Mutex<BTreeMap<u32, String>>,
}

impl Default for Collector {
    fn default() -> Self {
        Collector {
            counters: Mutex::default(),
            events: Mutex::default(),
            gauges: Mutex::default(),
            histograms: Mutex::default(),
            spans: Mutex::default(),
            counter_slots: (0..CounterId::count()).map(|_| CounterCell::default()).collect(),
            event_slots: (0..EventId::count()).map(|_| AtomicU64::new(0)).collect(),
            gauge_slots: (0..GaugeId::count()).map(|_| GaugeCell::default()).collect(),
            hist_slots: (0..HistogramId::count())
                .map(|_| AtomicHistogram::default())
                .collect(),
            shards: Mutex::default(),
            span_tick: AtomicU64::new(0),
            epoch: Instant::now(),
            trace_capture: AtomicBool::new(false),
            trace_spans: Mutex::default(),
            trace_tracks: Mutex::default(),
        }
    }
}

impl Collector {
    /// This collector's identity, for shard-ownership checks.
    fn addr(&self) -> usize {
        self as *const Collector as usize
    }

    /// Add to a pre-registered counter: the thread's shard if it owns one
    /// for this collector, else the shared lock-free slot.
    pub fn add_counter_id(&self, id: CounterId, n: u64) {
        if with_active_shard(self.addr(), |s| s.add_counter(id, n)).is_none() {
            self.counter_slots[id.index()].add(n);
        }
    }

    /// Count one occurrence of a pre-registered event.
    pub fn add_event_id(&self, id: EventId) {
        if with_active_shard(self.addr(), |s| s.add_event(id)).is_none() {
            self.event_slots[id.index()].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Set a pre-registered gauge (last write wins; never sharded, so
    /// cross-worker write ordering is real wall-clock ordering).
    pub fn set_gauge_id(&self, id: GaugeId, value: f64) {
        self.gauge_slots[id.index()].set(value);
    }

    /// Record into a pre-registered histogram.
    pub fn observe_ms_id(&self, id: HistogramId, ms: f64) {
        if with_active_shard(self.addr(), |s| s.observe_ms(id, ms)).is_none() {
            self.hist_slots[id.index()].observe_ms(ms);
        }
    }

    /// Register a fresh worker shard for this collector and bind it to the
    /// calling thread. While the returned guard lives, this thread's
    /// ID-addressed recording against this collector is contention-free;
    /// dropping the guard drains the shard back into the shared slots.
    pub fn install_worker_shard(self: &Arc<Self>) -> ShardGuard {
        let shard = Arc::new(WorkerCollector::default());
        lock(&self.shards).push(Arc::clone(&shard));
        ShardGuard::bind(Arc::clone(self), shard)
    }

    /// Fold a worker shard's totals into the shared slots and unregister
    /// it. Runs under the shard-registry lock so it can never interleave
    /// with a report snapshot.
    pub(crate) fn drain_worker_shard(&self, shard: &Arc<WorkerCollector>) {
        let mut shards = lock(&self.shards);
        shards.retain(|s| !Arc::ptr_eq(s, shard));
        let mut spans = lock(&self.spans);
        shard.drain_into(
            &self.counter_slots,
            &self.event_slots,
            &self.hist_slots,
            &mut spans,
        );
    }

    /// Add to a named counter. Registered names are redirected to their
    /// ID slot so a metric's totals never split across planes; everything
    /// else takes the map (cold) path.
    pub fn add_counter(&self, name: &str, n: u64) {
        if let Some(id) = CounterId::from_name(name) {
            return self.add_counter_id(id, n);
        }
        let mut counters = lock(&self.counters);
        match counters.get_mut(name) {
            Some(v) => *v += n,
            None => {
                counters.insert(name.to_string(), n);
            }
        }
    }

    /// Count one event occurrence, keyed by name and rendered fields.
    pub fn add_event(&self, name: &str, fields: &[(&str, &str)]) {
        // Events fire on the per-script/per-step hot path, so the rendered
        // key is built in a reusable thread-local buffer and only copied
        // into the map the first time a given key is seen.
        thread_local! {
            static KEY_BUF: std::cell::RefCell<String> =
                const { std::cell::RefCell::new(String::new()) };
        }
        KEY_BUF.with(|buf| {
            let mut buf = buf.borrow_mut();
            buf.clear();
            buf.push_str(name);
            if !fields.is_empty() {
                buf.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        buf.push(',');
                    }
                    buf.push_str(k);
                    buf.push('=');
                    buf.push_str(v);
                }
                buf.push('}');
            }
            if let Some(id) = EventId::from_name(buf.as_str()) {
                return self.add_event_id(id);
            }
            let mut events = lock(&self.events);
            match events.get_mut(buf.as_str()) {
                Some(v) => *v += 1,
                None => {
                    events.insert(buf.clone(), 1);
                }
            }
        });
    }

    /// Set a named gauge (last write wins).
    pub fn set_gauge(&self, name: &str, value: f64) {
        if let Some(id) = GaugeId::from_name(name) {
            return self.set_gauge_id(id, value);
        }
        lock(&self.gauges).insert(name.to_string(), value);
    }

    /// Record a histogram observation in milliseconds.
    pub fn observe_ms(&self, name: &str, ms: f64) {
        if let Some(id) = HistogramId::from_name(name) {
            return self.observe_ms_id(id, ms);
        }
        let mut hists = lock(&self.histograms);
        hists.entry(name.to_string()).or_default().observe_ms(ms);
    }

    /// The merged view of one registered histogram: the shared slot plus
    /// every live shard's unflushed observations.
    fn merged_histogram(&self, id: HistogramId) -> Option<Histogram> {
        let shards = lock(&self.shards);
        self.merged_histogram_locked(&shards, id)
    }

    /// [`Collector::merged_histogram`] with the shard registry already
    /// locked by the caller (the registry mutex is not reentrant).
    fn merged_histogram_locked(
        &self,
        shards: &[Arc<WorkerCollector>],
        id: HistogramId,
    ) -> Option<Histogram> {
        let slot = &self.hist_slots[id.index()];
        let mut merged: Option<Histogram> = if slot.is_empty() {
            None
        } else {
            Some(slot.snapshot())
        };
        for shard in shards.iter() {
            if let Some(h) = shard.histogram_view(id) {
                match merged.as_mut() {
                    Some(m) => m.merge(&h),
                    None => merged = Some(h),
                }
            }
        }
        merged
    }

    /// Summarized snapshot of one live histogram, if it exists (the
    /// sampler's latency-quantile source — reads never block recording
    /// for long; registered names read lock-free slots plus live shards,
    /// the rest a short map lock).
    pub fn histogram_summary(&self, name: &str) -> Option<crate::HistogramSummary> {
        if let Some(id) = HistogramId::from_name(name) {
            return self.merged_histogram(id).map(|h| h.summarize());
        }
        lock(&self.histograms).get(name).map(Histogram::summarize)
    }

    /// Read one gauge value, if set.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        if let Some(id) = GaugeId::from_name(name) {
            return self.gauge_slots[id.index()].get();
        }
        lock(&self.gauges).get(name).copied()
    }

    /// Maximum over all gauges whose name starts with `prefix` (the
    /// sampler's worst-worker-starvation read). Spans both planes: slot
    /// gauges and map gauges.
    pub fn gauge_prefix_max(&self, prefix: &str) -> Option<f64> {
        let slot_max = GaugeId::ALL
            .iter()
            .filter(|id| id.name().starts_with(prefix))
            .filter_map(|id| self.gauge_slots[id.index()].get())
            .fold(None, |acc: Option<f64>, v| Some(acc.map_or(v, |a| a.max(v))));
        lock(&self.gauges)
            .range(prefix.to_string()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| *v)
            .fold(slot_max, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
    }

    /// Fold one completed span into its path's rollup. `self_ns` is the
    /// span's duration minus its children's.
    ///
    /// The completion tick always comes from the collector-wide counter —
    /// a single uncontended `fetch_add` — so first-completion ordering
    /// stays global even when the rollup itself lands in a worker shard.
    pub fn record_span(&self, path: &str, ns: u64, self_ns: u64) {
        let tick = self.span_tick.fetch_add(1, Ordering::Relaxed);
        if with_active_shard(self.addr(), |s| s.record_span(path, ns, self_ns, tick)).is_some() {
            return;
        }
        let mut spans = lock(&self.spans);
        spans
            .entry(path.to_string())
            .or_default()
            .record(ns, self_ns, tick);
    }

    /// Whether individual-span capture (chrome-trace export) is on.
    pub fn trace_capture_enabled(&self) -> bool {
        self.trace_capture.load(Ordering::Relaxed)
    }

    /// Turn individual-span capture on or off. Capture stores one record
    /// per completed span, so leave it off unless a trace export was
    /// requested.
    pub fn set_trace_capture(&self, on: bool) {
        self.trace_capture.store(on, Ordering::Relaxed);
    }

    /// Record one completed span as an individual trace event (called by
    /// the span guard when capture is on).
    pub fn record_trace_span(
        &self,
        path: &str,
        track: u32,
        start: Instant,
        dur_ns: u64,
        self_ns: u64,
    ) {
        let start_us = start
            .checked_duration_since(self.epoch)
            .map_or(0, |d| d.as_micros().min(u64::MAX as u128) as u64);
        {
            let mut tracks = lock(&self.trace_tracks);
            tracks.entry(track).or_insert_with(|| {
                let root = path.split('/').next().unwrap_or(path);
                format!("{root} [track {track}]")
            });
        }
        lock(&self.trace_spans).push(TraceSpan {
            path: path.to_string(),
            track,
            start_us,
            dur_ns,
            self_ns,
        });
    }

    /// Snapshot the captured trace spans and the track-name table.
    pub fn trace_snapshot(&self) -> (Vec<TraceSpan>, BTreeMap<u32, String>) {
        (
            lock(&self.trace_spans).clone(),
            lock(&self.trace_tracks).clone(),
        )
    }

    /// Snapshot everything into a report (the collector keeps recording).
    ///
    /// Both planes merge back into one name-sorted view: the cold maps
    /// are cloned, then every registered ID folds in its shared slot plus
    /// any live shards. The shard-registry lock is held across the whole
    /// ID merge, so a concurrently draining shard is seen exactly once —
    /// still live, or already in the slots.
    pub fn report(&self, workers: Option<WorkerSection>) -> RunReport {
        let shards = lock(&self.shards);

        let mut counters = lock(&self.counters).clone();
        for &id in CounterId::ALL {
            let (mut value, mut touched) = self.counter_slots[id.index()].load();
            for shard in shards.iter() {
                let (v, t) = shard.counter_view(id);
                value += v;
                touched |= t;
            }
            if value > 0 || touched {
                counters.insert(id.name().to_string(), value);
            }
        }

        let mut events = lock(&self.events).clone();
        for &id in EventId::ALL {
            let mut value = self.event_slots[id.index()].load(Ordering::Relaxed);
            for shard in shards.iter() {
                value += shard.event_view(id);
            }
            if value > 0 {
                events.insert(id.name().to_string(), value);
            }
        }

        let mut gauges = lock(&self.gauges).clone();
        for &id in GaugeId::ALL {
            if let Some(v) = self.gauge_slots[id.index()].get() {
                gauges.insert(id.name().to_string(), v);
            }
        }

        let mut histograms: BTreeMap<String, crate::HistogramSummary> = lock(&self.histograms)
            .iter()
            .map(|(k, h)| (k.clone(), h.summarize()))
            .collect();
        for &id in HistogramId::ALL {
            if let Some(h) = self.merged_histogram_locked(&shards, id) {
                histograms.insert(id.name().to_string(), h.summarize());
            }
        }

        let mut span_map = lock(&self.spans).clone();
        for shard in shards.iter() {
            for (path, stat) in shard.spans_view() {
                span_map.entry(path).or_default().merge(&stat);
            }
        }
        drop(shards);

        let spans: Vec<SpanRollup> = span_map
            .iter()
            .map(|(path, s)| SpanRollup {
                path: path.clone(),
                count: s.count,
                total_ms: s.total_ns as f64 / 1e6,
                self_ms: s.self_ns as f64 / 1e6,
                mean_ms: if s.count == 0 {
                    0.0
                } else {
                    (s.total_ns as f64 / s.count as f64) / 1e6
                },
                min_ms: if s.count == 0 {
                    0.0
                } else {
                    s.min_ns as f64 / 1e6
                },
                max_ms: s.max_ns as f64 / 1e6,
                first_seen: s.first_seen,
            })
            .collect();
        RunReport {
            schema: RunReport::SCHEMA.to_string(),
            deterministic: DeterministicSection { counters, events },
            timing: TimingSection {
                gauges,
                histograms,
                spans,
            },
            workers,
        }
    }
}

/// Serializes sessions: only one recording session exists at a time, so
/// concurrent tests queue up instead of polluting each other's metrics.
static SESSION_LOCK: Mutex<()> = Mutex::new(());

/// An exclusive recording session.
///
/// [`Session::start`] installs a fresh [`Collector`] as the global sink
/// (blocking until any other session finishes); dropping the session
/// uninstalls it. All recording from all threads lands in this session's
/// collector while it lives.
pub struct Session {
    collector: Arc<Collector>,
    _exclusive: MutexGuard<'static, ()>,
}

impl Session {
    /// Begin recording (blocks while another session is active).
    pub fn start() -> Session {
        let exclusive = lock(&SESSION_LOCK);
        let collector = Arc::new(Collector::default());
        *crate::sink_slot_mut() = Some(Arc::clone(&collector));
        crate::set_enabled(true);
        Session {
            collector,
            _exclusive: exclusive,
        }
    }

    /// [`Session::start`] with individual-span capture enabled, for
    /// chrome-trace export (`--trace-out`).
    pub fn start_with_trace() -> Session {
        let session = Session::start();
        session.collector.set_trace_capture(true);
        session
    }

    /// The session's collector (for direct inspection in tests).
    pub fn collector(&self) -> &Collector {
        &self.collector
    }

    /// A shareable handle to the session's collector — what the live
    /// observer holds to serve `/metrics` while the session runs.
    /// The handle stays readable after the session ends (recording stops,
    /// the data remains).
    pub fn shared_collector(&self) -> Arc<Collector> {
        Arc::clone(&self.collector)
    }

    /// Build the run report collected so far.
    pub fn report(&self) -> RunReport {
        self.collector.report(None)
    }

    /// Build the run report, folding in per-worker crawl progress.
    pub fn report_with_workers(&self, workers: WorkerSection) -> RunReport {
        self.collector.report(Some(workers))
    }

    /// Render the span tree collected so far (the `--trace` output).
    pub fn render_trace(&self) -> String {
        crate::span::render_tree(&self.report().timing.spans)
    }

    /// Render the captured spans as chrome-trace (`trace_event`) JSON,
    /// loadable in Perfetto / `chrome://tracing`. Non-empty only when the
    /// session was started with [`Session::start_with_trace`].
    pub fn chrome_trace(&self) -> String {
        let (spans, tracks) = self.collector.trace_snapshot();
        crate::trace_export::chrome_trace_json(&spans, &tracks)
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        crate::set_enabled(false);
        *crate::sink_slot_mut() = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_keys_render_fields() {
        let c = Collector::default();
        c.add_event("walk.terminated", &[("kind", "sync"), ("retry", "no")]);
        c.add_event("walk.terminated", &[("kind", "sync"), ("retry", "no")]);
        c.add_event("bare", &[]);
        let r = c.report(None);
        assert_eq!(r.deterministic.events["walk.terminated{kind=sync,retry=no}"], 2);
        assert_eq!(r.deterministic.events["bare"], 1);
    }

    #[test]
    fn concurrent_counter_updates_are_lossless() {
        let c = Arc::new(Collector::default());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let c = Arc::clone(&c);
                scope.spawn(move || {
                    for _ in 0..1000 {
                        c.add_counter("hits", 1);
                    }
                });
            }
        });
        assert_eq!(c.report(None).deterministic.counters["hits"], 4000);
    }

    #[test]
    fn sessions_are_exclusive_and_sequential() {
        let a = Session::start();
        a.collector().add_counter("a", 1);
        drop(a);
        let b = Session::start();
        assert!(b.report().deterministic.counters.is_empty());
    }

    #[test]
    fn a_panic_inside_a_session_does_not_block_the_next() {
        let panicked = std::thread::spawn(|| {
            let _session = Session::start();
            panic!("a test failing inside its session");
        })
        .join();
        assert!(panicked.is_err());
        let session = Session::start();
        crate::counter("after.panic", 1);
        assert_eq!(session.report().deterministic.counters["after.panic"], 1);
    }

    #[test]
    fn span_rollups_carry_self_time_and_first_seen() {
        let c = Collector::default();
        c.record_span("outer", 100, 40);
        c.record_span("outer/inner", 60, 60);
        let r = c.report(None);
        let outer = r.timing.spans.iter().find(|s| s.path == "outer").unwrap();
        assert!((outer.self_ms - 40.0 / 1e6).abs() < 1e-12);
        assert_eq!(outer.first_seen, 0);
    }

    #[test]
    fn trace_capture_is_off_by_default_and_records_when_on() {
        let c = Collector::default();
        assert!(!c.trace_capture_enabled());
        c.record_trace_span("study.crawl", 1, Instant::now(), 1_000, 800);
        // record_trace_span is the low-level entry; the guard gates on
        // trace_capture_enabled, but direct records always land.
        let (spans, tracks) = c.trace_snapshot();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].path, "study.crawl");
        assert_eq!(spans[0].self_ns, 800);
        assert_eq!(tracks[&1], "study.crawl [track 1]");
    }

    #[test]
    fn session_with_trace_captures_individual_spans() {
        let session = Session::start_with_trace();
        {
            let _outer = crate::span("trace.outer");
            let _inner = crate::span("trace.inner");
        }
        let (spans, tracks) = session.collector().trace_snapshot();
        assert_eq!(spans.len(), 2, "{spans:?}");
        // Children drop first, so the inner span is captured first.
        assert_eq!(spans[0].path, "trace.outer/trace.inner");
        assert_eq!(spans[1].path, "trace.outer");
        assert!(spans[1].dur_ns >= spans[0].dur_ns);
        assert!(
            spans[1].self_ns <= spans[1].dur_ns - spans[0].dur_ns + 1_000_000,
            "outer self time should exclude the inner span: {spans:?}"
        );
        assert_eq!(tracks.len(), 1, "one thread, one track");
        drop(session);

        // A plain session does not capture.
        let session = Session::start();
        {
            let _s = crate::span("trace.untraced");
        }
        let (spans, _) = session.collector().trace_snapshot();
        assert!(spans.is_empty());
    }
}
