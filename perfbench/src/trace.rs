//! The benchmark's own span recorder.
//!
//! Every call the benchmark makes into a layer of the program is timed
//! through [`Tracer::begin`]/[`Open::end`]. Timing always happens (the
//! end-to-end metrics need the durations); spans are *kept* only when
//! the tracer is enabled, in memory, and written out once at exit.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use serde::Serialize;

/// Identifier of a recorded span (0 is never issued).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u64);

/// One finished span.
#[derive(Debug, Clone, Serialize)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    /// The iteration (run) the span belongs to.
    pub run: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Span recorder shared by every thread of one benchmark process.
#[derive(Debug)]
pub struct Tracer {
    enabled: AtomicBool,
    origin: Instant,
    next_id: AtomicU64,
    run: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// A span in progress. Ending it returns its duration whether or not
/// the tracer keeps it.
#[must_use = "an open span records nothing until it is ended"]
pub struct Open<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start: Instant,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            enabled: AtomicBool::new(false),
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            run: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Keep (or stop keeping) the spans that end from now on.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::SeqCst)
    }

    /// Tag spans begun from now on with run id `run`.
    pub fn set_run(&self, run: u64) {
        self.run.store(run, Ordering::SeqCst);
    }

    pub fn begin(&self, name: &'static str, parent: Option<SpanId>) -> Open<'_> {
        Open {
            tracer: self,
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent: parent.map(|p| p.0),
            name,
            start: Instant::now(),
        }
    }

    /// Time `f` as one span.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let open = self.begin(name, parent);
        let out = f();
        (out, open.end())
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Every span kept so far, in end order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    /// Total seconds per span name, per run.
    pub fn totals_by_run(&self) -> BTreeMap<&'static str, BTreeMap<u64, f64>> {
        let mut out: BTreeMap<&'static str, BTreeMap<u64, f64>> = BTreeMap::new();
        for s in self.spans() {
            *out.entry(s.name).or_default().entry(s.run).or_insert(0.0) += s.secs();
        }
        out
    }

    /// For each root span named `root`, the share of its wall time that
    /// none of its direct children covers.
    pub fn uncovered_shares(&self, root: &str) -> Vec<f64> {
        let spans = self.spans();
        spans
            .iter()
            .filter(|s| s.name == root && s.end_ns > s.start_ns)
            .map(|r| {
                let mut kids: Vec<(u64, u64)> = spans
                    .iter()
                    .filter(|c| c.parent == Some(r.id))
                    .map(|c| (c.start_ns.max(r.start_ns), c.end_ns.min(r.end_ns)))
                    .filter(|(a, b)| b > a)
                    .collect();
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = r.start_ns;
                for (a, b) in kids {
                    let a = a.max(reach);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                1.0 - covered as f64 / (r.end_ns - r.start_ns) as f64
            })
            .collect()
    }
}

impl Open<'_> {
    pub fn id(&self) -> SpanId {
        SpanId(self.id)
    }

    /// Close the span; keep it if tracing is on.
    pub fn end(self) -> Duration {
        let end = Instant::now();
        let took = end - self.start;
        if self.tracer.enabled() {
            let span = Span {
                id: self.id,
                parent: self.parent,
                run: self.tracer.run.load(Ordering::SeqCst),
                name: self.name,
                start_ns: self.tracer.ns(self.start),
                end_ns: self.tracer.ns(end),
            };
            self.tracer
                .spans
                .lock()
                .expect("span store poisoned")
                .push(span);
        }
        took
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_are_kept_only_while_enabled() {
        let t = Tracer::new();
        let _ = t.time("off", None, || ());
        t.set_enabled(true);
        t.set_run(3);
        let root = t.begin("root", None);
        let _ = t.time("child", Some(root.id()), || ());
        root.end();
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().all(|s| s.run == 3));
        assert_eq!(spans[0].parent, Some(spans[1].id));
    }

    #[test]
    fn uncovered_share_merges_overlapping_children() {
        let t = Tracer::new();
        let root = Span {
            id: 1,
            parent: None,
            run: 0,
            name: "root",
            start_ns: 0,
            end_ns: 100,
        };
        let kid = |id, a, b| Span {
            id,
            parent: Some(1),
            run: 0,
            name: "k",
            start_ns: a,
            end_ns: b,
        };
        t.spans
            .lock()
            .unwrap()
            .extend([root, kid(2, 10, 40), kid(3, 30, 60), kid(4, 90, 120)]);
        let shares = t.uncovered_shares("root");
        assert_eq!(shares.len(), 1);
        // Covered: [10, 60) and [90, 100) = 60 of 100.
        assert!((shares[0] - 0.4).abs() < 1e-12);
    }
}
