//! Hierarchical spans with wall-clock timing.
//!
//! A span is a guard: [`crate::span`] pushes the span's name onto a
//! per-thread stack and starts a timer; dropping the guard pops the stack
//! and records the elapsed time under the span's **path** — the stack
//! joined with `/` (e.g. `study.crawl/crawl.walk/crawl.step`). The
//! collector aggregates per path ([`SpanStat`]): memory stays bounded no
//! matter how many walks a crawl runs, and the rollup *is* the span tree.
//!
//! Each thread owns its stack, so worker-thread spans form their own
//! trees rooted at whatever span the worker opened first — exactly how
//! per-worker traces should read. A helper thread that does part of its
//! spawner's work instead opens its spans under the spawner's path: the
//! spawner takes a [`SpanParent`] and the helper [adopts](SpanParent::adopt)
//! it.
//!
//! Two timing views are maintained per span:
//!
//! * **total** time — guard creation to drop, children included;
//! * **self** time — total minus the time spent inside child spans, the
//!   number that actually identifies hot code. It is computed exactly at
//!   drop via a per-thread child-time accumulator, not estimated at
//!   render time.
//!
//! When the collector has **trace capture** enabled (`--trace-out`),
//! every completed span is additionally recorded as an individual
//! [`crate::trace_export::TraceSpan`] with its start offset, duration,
//! and thread track — the raw material for chrome-trace export.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::collector::Collector;

thread_local! {
    // The span path as a single reusable `/`-joined buffer. Entering a span
    // appends its name; dropping truncates back. This replaces the former
    // Vec<&str> stack + `join("/")` per enter — the same path strings with
    // zero steady-state allocation, which matters because `crawl.step` and
    // `browser.navigate` spans open thousands of times per second.
    static PATH: RefCell<String> = const { RefCell::new(String::new()) };
    // Child-time accumulator stack, parallel to the span stack: entering a
    // span pushes a zero; dropping pops its own accumulated child time
    // (yielding self time exactly) and adds its total to the new top — the
    // parent's child-time entry.
    static CHILD_NS: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    // This thread's trace track id, assigned on first use (0 = unassigned).
    static TID: Cell<u32> = const { Cell::new(0) };
}

/// Process-wide track-id source for trace capture (ids start at 1).
static NEXT_TID: AtomicU32 = AtomicU32::new(1);

fn thread_track_id() -> u32 {
    TID.with(|t| {
        let id = t.get();
        if id != 0 {
            return id;
        }
        let id = NEXT_TID.fetch_add(1, Ordering::Relaxed);
        t.set(id);
        id
    })
}

/// Aggregated timing for one span path.
#[derive(Debug, Clone, Copy)]
pub struct SpanStat {
    /// Completed spans at this path.
    pub count: u64,
    /// Total nanoseconds across them (children included).
    pub total_ns: u128,
    /// Self nanoseconds across them (children excluded).
    pub self_ns: u128,
    /// Fastest single span.
    pub min_ns: u64,
    /// Slowest single span.
    pub max_ns: u64,
    /// Monotonic tick of the first completion at this path (render
    /// ordering: siblings sort by first appearance, then name).
    pub first_seen: u64,
}

impl Default for SpanStat {
    fn default() -> Self {
        SpanStat {
            count: 0,
            total_ns: 0,
            self_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
            first_seen: u64::MAX,
        }
    }
}

impl SpanStat {
    /// Fold one completed span into the rollup.
    pub fn record(&mut self, ns: u64, self_ns: u64, tick: u64) {
        self.count += 1;
        self.total_ns += u128::from(ns);
        self.self_ns += u128::from(self_ns);
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
        self.first_seen = self.first_seen.min(tick);
    }

    /// Fold another rollup for the same path into this one (worker-shard
    /// drains). Ticks come from the collector-wide counter, so the min
    /// keeps first-completion ordering across shards.
    pub fn merge(&mut self, other: &SpanStat) {
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.self_ns += other.self_ns;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
        self.first_seen = self.first_seen.min(other.first_seen);
    }
}

/// An open span; records its duration into the collector on drop.
#[must_use = "a span measures nothing unless the guard lives to the end of the scope"]
pub struct SpanGuard {
    inner: Option<SpanInner>,
}

struct SpanInner {
    collector: Arc<Collector>,
    start: Instant,
    /// Path-buffer length *before* this span's segment was appended, used
    /// to restore the buffer even if inner guards leaked.
    prev_len: usize,
    /// Path-buffer length including this span's segment; `&PATH[..path_len]`
    /// is this span's full path regardless of what descendants appended.
    path_len: usize,
}

impl SpanGuard {
    /// A guard that does nothing (recording off).
    pub(crate) fn disabled() -> Self {
        SpanGuard { inner: None }
    }

    /// Append `name` to this thread's path buffer and start timing.
    pub(crate) fn enter(collector: Arc<Collector>, name: &'static str) -> Self {
        let (prev_len, path_len) = PATH.with(|p| {
            let mut p = p.borrow_mut();
            let prev_len = p.len();
            if prev_len > 0 {
                p.push('/');
            }
            p.push_str(name);
            (prev_len, p.len())
        });
        CHILD_NS.with(|c| c.borrow_mut().push(0));
        SpanGuard {
            inner: Some(SpanInner {
                collector,
                start: Instant::now(),
                prev_len,
                path_len,
            }),
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        let ns = inner.start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        // Pop this span's accumulated child time (exact self time), then
        // charge our total to the parent's accumulator if one is open.
        let self_ns = CHILD_NS.with(|c| {
            let mut c = c.borrow_mut();
            let child = c.pop().unwrap_or(0);
            if let Some(parent) = c.last_mut() {
                *parent = parent.saturating_add(ns);
            }
            ns.saturating_sub(child)
        });
        PATH.with(|p| {
            let mut p = p.borrow_mut();
            let end = inner.path_len.min(p.len());
            let path = &p[..end];
            inner.collector.record_span(path, ns, self_ns);
            if inner.collector.trace_capture_enabled() {
                inner
                    .collector
                    .record_trace_span(path, thread_track_id(), inner.start, ns, self_ns);
            }
            p.truncate(inner.prev_len);
        });
    }
}

/// A span path handed from one thread to a thread it spawns, so the
/// spawned thread's spans nest under it instead of rooting at their own
/// names. Only the path crosses: the spawner's span times the whole wait,
/// and the helper's spans do not count as its children in its self time.
#[derive(Debug, Clone, Default)]
pub struct SpanParent(String);

impl SpanParent {
    /// The calling thread's open span path (empty when recording is off
    /// or no span is open).
    pub fn current() -> SpanParent {
        if !crate::enabled() {
            return SpanParent::default();
        }
        PATH.with(|p| SpanParent(p.borrow().clone()))
    }

    /// Open the calling thread's spans under this path until the guard
    /// drops. Take the guard before any span guard on the thread.
    pub fn adopt(&self) -> AdoptedParent {
        let prev = PATH.with(|p| std::mem::replace(&mut *p.borrow_mut(), self.0.clone()));
        AdoptedParent { prev }
    }
}

/// The guard of [`SpanParent::adopt`]: restores the thread's own span
/// path on drop.
#[must_use = "the parent path is dropped with the guard"]
pub struct AdoptedParent {
    prev: String,
}

impl Drop for AdoptedParent {
    fn drop(&mut self) {
        PATH.with(|p| *p.borrow_mut() = std::mem::take(&mut self.prev));
    }
}

/// Render span rollups as an indented tree (the `--trace` output).
///
/// Sibling order is well-defined regardless of how the rollups were
/// collected: children sort under their parent by first-completion tick,
/// then path (so the tree reads in execution order, with a stable
/// tie-break), and every row carries a **self-time** column so hot spans
/// are visible without opening the chrome-trace export.
pub fn render_tree(rollups: &[crate::report::SpanRollup]) -> String {
    // Hierarchical sort key: each path segment is keyed by the
    // first-completion tick of the prefix ending at it, then the segment
    // text. A parent's key is a strict prefix of its children's keys, so
    // subtrees stay contiguous while siblings order by execution.
    let ticks: std::collections::BTreeMap<&str, u64> = rollups
        .iter()
        .map(|r| (r.path.as_str(), r.first_seen))
        .collect();
    fn key<'a>(
        ticks: &std::collections::BTreeMap<&str, u64>,
        path: &'a str,
    ) -> Vec<(u64, &'a str)> {
        let mut segments = Vec::new();
        let mut end = 0usize;
        for (i, seg) in path.split('/').enumerate() {
            end += seg.len() + usize::from(i > 0);
            let tick = ticks.get(&path[..end]).copied().unwrap_or(u64::MAX);
            segments.push((tick, seg));
        }
        segments
    }
    let mut sorted: Vec<&crate::report::SpanRollup> = rollups.iter().collect();
    sorted.sort_by(|a, b| key(&ticks, &a.path).cmp(&key(&ticks, &b.path)));
    let mut out = String::new();
    for r in sorted {
        let depth = r.path.matches('/').count();
        let name = r.path.rsplit('/').next().unwrap_or(&r.path);
        out.push_str(&"  ".repeat(depth));
        out.push_str(&format!(
            "{name}  ×{}  total {:.2}ms  self {:.2}ms  mean {:.3}ms  max {:.3}ms\n",
            r.count, r.total_ms, r.self_ms, r.mean_ms, r.max_ms
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::SpanRollup;

    fn rollup(path: &str, first_seen: u64, total_ms: f64, self_ms: f64) -> SpanRollup {
        SpanRollup {
            path: path.into(),
            count: 1,
            total_ms,
            self_ms,
            mean_ms: total_ms,
            min_ms: total_ms,
            max_ms: total_ms,
            first_seen,
        }
    }

    #[test]
    fn span_stat_tracks_extremes() {
        let mut s = SpanStat::default();
        s.record(10, 10, 1);
        s.record(30, 20, 2);
        s.record(20, 5, 3);
        assert_eq!(s.count, 3);
        assert_eq!(s.total_ns, 60);
        assert_eq!(s.self_ns, 35);
        assert_eq!(s.min_ns, 10);
        assert_eq!(s.max_ns, 30);
        assert_eq!(s.first_seen, 1);
    }

    #[test]
    fn a_thread_that_adopts_its_spawners_path_nests_its_spans_under_it() {
        let session = crate::Session::start();
        {
            let _caller = crate::span("adopt.caller");
            let parent = SpanParent::current();
            std::thread::scope(|s| {
                s.spawn(|| {
                    let _under = parent.adopt();
                    let _helper = crate::span("adopt.helper");
                });
                s.spawn(|| {
                    let _own = crate::span("adopt.orphan");
                });
            });
            // The caller's own path is untouched by its helpers.
            let _after = crate::span("adopt.after");
        }
        let report = session.report();
        let paths: Vec<&str> = report
            .timing
            .spans
            .iter()
            .map(|s| s.path.as_str())
            .collect();
        assert!(paths.contains(&"adopt.caller/adopt.helper"), "{paths:?}");
        assert!(!paths.contains(&"adopt.helper"), "{paths:?}");
        assert!(paths.contains(&"adopt.orphan"), "{paths:?}");
        assert!(paths.contains(&"adopt.caller/adopt.after"), "{paths:?}");
    }

    #[test]
    fn tree_rendering_indents_by_path_depth() {
        let rollups = vec![
            rollup("study.crawl", 1, 5.0, 1.0),
            SpanRollup {
                path: "study.crawl/crawl.walk".into(),
                count: 4,
                total_ms: 4.0,
                self_ms: 3.5,
                mean_ms: 1.0,
                min_ms: 0.5,
                max_ms: 2.0,
                first_seen: 2,
            },
        ];
        let text = render_tree(&rollups);
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].starts_with("study.crawl"), "{text}");
        assert!(lines[1].starts_with("  crawl.walk"), "{text}");
        assert!(lines[1].contains("×4"), "{text}");
        assert!(lines[0].contains("self 1.00ms"), "{text}");
        assert!(lines[1].contains("self 3.50ms"), "{text}");
    }

    #[test]
    fn tree_rendering_sorts_siblings_by_first_seen_then_name() {
        // Collection (BTreeMap) order would put `a.analyze` before
        // `z.crawl`; execution order (first_seen) must win, with the name
        // as the tie-break.
        let rollups = vec![
            rollup("a.analyze", 10, 1.0, 1.0),
            rollup("z.crawl", 1, 2.0, 2.0),
            rollup("z.crawl/step", 2, 1.0, 1.0),
            rollup("m.tied", 10, 1.0, 1.0),
        ];
        let text = render_tree(&rollups);
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].starts_with("z.crawl"), "{text}");
        assert!(lines[1].starts_with("  step"), "{text}");
        assert!(lines[2].starts_with("a.analyze"), "{text}");
        assert!(lines[3].starts_with("m.tied"), "{text}");
    }
}
