//! # cc-telemetry
//!
//! The observability layer of CrumbCruncher-RS: lightweight hierarchical
//! **spans**, a **metrics registry** (counters, gauges, log-bucketed
//! latency histograms), and structured **events**, all feeding one
//! machine-readable [`RunReport`].
//!
//! The paper's pipeline ran for days across twelve EC2 instances and its
//! authors diagnosed crawl failures, desynchronization, and redirect-chain
//! anomalies from logs (§3.3, §5). This crate gives the reproduction the
//! instrumentation those diagnoses needed: every pipeline stage emits
//! spans and metrics, and the CLI surfaces them via `--metrics-out`
//! (JSON run report) and `--trace` (human-readable span tree).
//!
//! ## Design
//!
//! Recording is **global and session-scoped**, like `tracing`'s subscriber
//! model (the workspace vendors its own dependencies, so this crate is
//! built from scratch):
//!
//! * With no active [`Session`], every recording call is a single relaxed
//!   atomic load and an early return — instrumentation is free when off.
//! * [`Session::start`] installs a fresh [`Collector`]; recording calls
//!   from any thread land in it. Sessions are exclusive (a global lock),
//!   so concurrent tests serialize instead of cross-polluting.
//!
//! ## Determinism contract
//!
//! Telemetry is **observation-only**: no recording call touches an RNG,
//! the simulated clock, or any crawl state, so the byte-identical
//! serial/parallel equivalence guarantee of the crawl executor holds with
//! telemetry enabled (enforced by `tests/telemetry_report.rs` at the
//! workspace root). Telemetry *output* is split accordingly:
//!
//! * [`report::DeterministicSection`] — counters and events whose totals
//!   depend only on the seed and configuration, never on scheduling.
//!   Instrumentation sites must only record schedule-independent totals
//!   as counters/events.
//! * [`report::TimingSection`] — gauges, histograms, and span rollups:
//!   wall-clock facts that legitimately differ run to run.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod collector;
pub mod histogram;
pub mod prom;
pub mod registry;
pub mod report;
pub mod ring;
pub mod shard;
pub mod span;
pub mod trace_export;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock, RwLockWriteGuard};

pub use collector::{Collector, Session};
pub use histogram::{Histogram, HistogramSummary};
pub use prom::{parse_exposition, render_prometheus, ExpositionStats};
pub use registry::{CounterId, EventId, GaugeId, HistogramId};
pub use report::{
    DeterministicSection, RunReport, SpanRollup, TimingSection, WorkerRow, WorkerSection,
};
pub use ring::{ObsSample, SnapshotRing};
pub use shard::{ShardGuard, WorkerCollector};
pub use span::{AdoptedParent, SpanGuard, SpanParent};
pub use trace_export::{chrome_trace_json, TraceSpan};

/// Fast-path switch: `false` means every recording call returns
/// immediately.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// The active session's collector, when one exists.
static SINK: RwLock<Option<Arc<Collector>>> = RwLock::new(None);

/// Whether a recording session is active right now.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

pub(crate) fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

pub(crate) fn sink_slot_mut() -> RwLockWriteGuard<'static, Option<Arc<Collector>>> {
    SINK.write().unwrap_or_else(PoisonError::into_inner)
}

/// The active collector, or `None` when recording is off.
pub(crate) fn sink() -> Option<Arc<Collector>> {
    if !enabled() {
        return None;
    }
    SINK.read().unwrap_or_else(PoisonError::into_inner).clone()
}

/// Lock `m`, taking its data even if a thread panicked while holding it.
/// This crate's locks guard metric maps and buffers, which an update cut
/// short leaves readable; and every session holds `SESSION_LOCK`, so
/// without this one test that panics inside a [`Session`] would fail
/// every later `Session::start`.
pub(crate) fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Add `n` to the named counter.
///
/// Counters land in the **deterministic** report section: only record
/// totals that depend on seed and configuration, never on scheduling
/// (use [`gauge`] for scheduling-dependent readings).
pub fn counter(name: &str, n: u64) {
    if let Some(c) = sink() {
        c.add_counter(name, n);
    }
}

/// Add `n` to the counter `"{name}.{label}"` (the label is appended only
/// when recording is on, so callers pay no formatting cost when off).
pub fn counter_labeled(name: &str, label: &str, n: u64) {
    if let Some(c) = sink() {
        c.add_counter(&format!("{name}.{label}"), n);
    }
}

/// Set the named gauge to `value` (last write wins).
///
/// Gauges land in the **timing** report section and may be
/// scheduling-dependent (e.g. per-worker queue readings).
pub fn gauge(name: &str, value: f64) {
    if let Some(c) = sink() {
        c.set_gauge(name, value);
    }
}

/// Set the gauge `"{name}.{label}"` to `value`.
pub fn gauge_labeled(name: &str, label: &str, value: f64) {
    if let Some(c) = sink() {
        c.set_gauge(&format!("{name}.{label}"), value);
    }
}

/// Record one observation (in milliseconds) into the named log-bucketed
/// histogram. Histograms land in the **timing** report section.
pub fn observe_ms(name: &str, ms: f64) {
    if let Some(c) = sink() {
        c.observe_ms(name, ms);
    }
}

/// Record one structured event: a name plus low-cardinality key–value
/// fields (`event("crawl.walk.terminated", &[("kind", "sync_failure")])`).
///
/// Events are aggregated by name + fields into the **deterministic**
/// report section, so field values must be schedule-independent and
/// low-cardinality (failure kinds, heuristic names — not walk ids).
pub fn event(name: &str, fields: &[(&str, &str)]) {
    if let Some(c) = sink() {
        c.add_event(name, fields);
    }
}

/// Add `n` to a pre-registered counter (hot path: no allocation, no map
/// lookup; contention-free while the thread holds a [`worker_shard`]).
pub fn counter_id(id: CounterId, n: u64) {
    if let Some(c) = sink() {
        c.add_counter_id(id, n);
    }
}

/// Count one occurrence of a pre-registered event (hot path).
pub fn event_id(id: EventId) {
    if let Some(c) = sink() {
        c.add_event_id(id);
    }
}

/// Set a pre-registered gauge (lock-free slot; no `String` key per set).
pub fn gauge_id(id: GaugeId, value: f64) {
    if let Some(c) = sink() {
        c.set_gauge_id(id, value);
    }
}

/// Record into a pre-registered histogram (hot path).
pub fn observe_ms_id(id: HistogramId, ms: f64) {
    if let Some(c) = sink() {
        c.observe_ms_id(id, ms);
    }
}

/// Bind a private [`WorkerCollector`] shard for the active session to the
/// calling thread. While the returned guard lives, ID-addressed recording
/// from this thread touches no shared state; the shard drains into the
/// session's collector when the guard drops. A no-op guard is returned
/// when recording is off.
///
/// Declare the guard **before** any span guards on the same thread, so
/// spans drop (and record into the shard) before the shard drains.
pub fn worker_shard() -> shard::ShardGuard {
    match sink() {
        Some(c) => c.install_worker_shard(),
        None => shard::ShardGuard::disabled(),
    }
}

/// Open a hierarchical span; timing is recorded when the returned guard
/// drops. Nesting follows the per-thread guard stack:
///
/// ```
/// let _study = cc_telemetry::span("study.crawl");
/// {
///     let _walk = cc_telemetry::span("crawl.walk"); // study.crawl/crawl.walk
/// }
/// ```
pub fn span(name: &'static str) -> SpanGuard {
    match sink() {
        Some(c) => SpanGuard::enter(c, name),
        None => SpanGuard::disabled(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recording_is_a_no_op() {
        // No session installed by this test: the calls must not panic and
        // must not allocate a collector.
        counter("nope", 1);
        gauge("nope", 1.0);
        observe_ms("nope", 1.0);
        event("nope", &[("k", "v")]);
        let _g = span("nope");
    }

    #[test]
    fn session_collects_all_signal_kinds() {
        let session = Session::start();
        counter("test.counter", 2);
        counter("test.counter", 3);
        counter_labeled("test.fault", "ECONNRESET", 1);
        gauge("test.gauge", 4.5);
        gauge_labeled("test.worker", "0", 7.0);
        observe_ms("test.latency", 12.0);
        event("test.event", &[("kind", "a")]);
        event("test.event", &[("kind", "a")]);
        {
            let _outer = span("test.outer");
            let _inner = span("test.inner");
        }
        let report = session.report();
        assert_eq!(report.deterministic.counters["test.counter"], 5);
        assert_eq!(report.deterministic.counters["test.fault.ECONNRESET"], 1);
        assert_eq!(report.timing.gauges["test.gauge"], 4.5);
        assert_eq!(report.timing.gauges["test.worker.0"], 7.0);
        assert_eq!(report.timing.histograms["test.latency"].count, 1);
        assert_eq!(report.deterministic.events["test.event{kind=a}"], 2);
        let paths: Vec<&str> = report.timing.spans.iter().map(|s| s.path.as_str()).collect();
        assert!(paths.contains(&"test.outer"), "{paths:?}");
        assert!(paths.contains(&"test.outer/test.inner"), "{paths:?}");
    }

    #[test]
    fn recording_stops_when_session_drops() {
        {
            let session = Session::start();
            counter("drop.counter", 1);
            assert!(enabled());
            drop(session);
        }
        counter("drop.counter", 10);
        let session = Session::start();
        let report = session.report();
        assert!(
            !report.deterministic.counters.contains_key("drop.counter"),
            "stale counter leaked into a fresh session"
        );
    }
}
