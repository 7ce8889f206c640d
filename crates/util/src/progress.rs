//! Lock-free crawl progress accounting.
//!
//! The parallel crawl executor updates these counters from every worker
//! thread; a monitor (the CLI, a bench, a test) takes [`ProgressSnapshot`]s
//! at any moment without stopping the crawl. All counters are relaxed
//! atomics — they are throughput telemetry, not synchronization.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Shared crawl-progress counters: aggregate walk/step throughput plus a
/// per-worker breakdown (so a stalled or starved worker is visible, the
/// way load-test harnesses report per-worker request counts).
///
/// The elapsed time (and so the rates) runs from construction, or from
/// the last [`ProgressCounters::start_clock`], until
/// [`ProgressCounters::stop_clock`]. The code that runs a crawl calls
/// both around it, so counters made before world generation and read
/// after the analysis still time the crawl alone.
#[derive(Debug)]
pub struct ProgressCounters {
    /// The instant the clock readings below count from.
    origin: Instant,
    /// Nanoseconds after `origin` when the clock started.
    started_ns: AtomicU64,
    /// Nanoseconds after `origin` when the clock stopped; `RUNNING` until
    /// then.
    stopped_ns: AtomicU64,
    walks: AtomicU64,
    steps: AtomicU64,
    per_worker: Vec<WorkerCounters>,
}

/// One worker's counters.
#[derive(Debug, Default)]
struct WorkerCounters {
    walks: AtomicU64,
    steps: AtomicU64,
}

/// `stopped_ns` while the clock runs.
const RUNNING: u64 = u64::MAX;

impl ProgressCounters {
    /// Counters for a crawl with `n_workers` workers; the clock starts now.
    pub fn new(n_workers: usize) -> Self {
        ProgressCounters {
            origin: Instant::now(),
            started_ns: AtomicU64::new(0),
            stopped_ns: AtomicU64::new(RUNNING),
            walks: AtomicU64::new(0),
            steps: AtomicU64::new(0),
            per_worker: (0..n_workers).map(|_| WorkerCounters::default()).collect(),
        }
    }

    /// Number of workers these counters track.
    pub fn n_workers(&self) -> usize {
        self.per_worker.len()
    }

    /// Record one finished walk (with `steps` completed steps) for a
    /// worker.
    pub fn record_walk(&self, worker: usize, steps: u64) {
        self.walks.fetch_add(1, Ordering::Relaxed);
        self.steps.fetch_add(steps, Ordering::Relaxed);
        if let Some(w) = self.per_worker.get(worker) {
            w.walks.fetch_add(1, Ordering::Relaxed);
            w.steps.fetch_add(steps, Ordering::Relaxed);
        }
    }

    /// (Re)start the clock now: the crawl begins.
    pub fn start_clock(&self) {
        self.started_ns.store(self.now_ns(), Ordering::Relaxed);
        self.stopped_ns.store(RUNNING, Ordering::Relaxed);
    }

    /// Stop the clock now: the crawl is over, and later snapshots report
    /// its elapsed time.
    pub fn stop_clock(&self) {
        self.stopped_ns.store(self.now_ns(), Ordering::Relaxed);
    }

    fn now_ns(&self) -> u64 {
        self.origin
            .elapsed()
            .as_nanos()
            .min(u128::from(RUNNING - 1)) as u64
    }

    /// A consistent-enough view of the counters right now.
    pub fn snapshot(&self) -> ProgressSnapshot {
        let end = match self.stopped_ns.load(Ordering::Relaxed) {
            RUNNING => self.now_ns(),
            stopped => stopped,
        };
        let ns = end.saturating_sub(self.started_ns.load(Ordering::Relaxed));
        self.snapshot_with_elapsed(ns as f64 / 1e9)
    }

    /// [`ProgressCounters::snapshot`] with the elapsed time supplied by the
    /// caller — the testable core, and what a monitor replaying recorded
    /// timings uses. Rates are guarded: a zero (coarse clock), negative, or
    /// non-finite elapsed reports `0.0`, never `inf`/`NaN`.
    pub fn snapshot_with_elapsed(&self, elapsed_secs: f64) -> ProgressSnapshot {
        let walks = self.walks.load(Ordering::Relaxed);
        let steps = self.steps.load(Ordering::Relaxed);
        ProgressSnapshot {
            walks,
            steps,
            elapsed_secs,
            walks_per_sec: rate(walks, elapsed_secs),
            steps_per_sec: rate(steps, elapsed_secs),
            per_worker: self
                .per_worker
                .iter()
                .map(|w| WorkerSnapshot {
                    walks: w.walks.load(Ordering::Relaxed),
                    steps: w.steps.load(Ordering::Relaxed),
                })
                .collect(),
        }
    }
}

/// `count / elapsed`, guarded against the zero-elapsed edge case (a
/// snapshot taken immediately after construction, or a coarse monotonic
/// clock reporting 0) and against non-finite elapsed values.
fn rate(count: u64, elapsed_secs: f64) -> f64 {
    if !elapsed_secs.is_finite() || elapsed_secs <= 0.0 {
        0.0
    } else {
        count as f64 / elapsed_secs
    }
}

/// Point-in-time progress reading. Serializable because the live
/// observer (cc-serve's observer routes, `--obs-addr`) serves it as the
/// `/progress` JSON body.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ProgressSnapshot {
    /// Walks finished so far.
    pub walks: u64,
    /// Steps completed so far.
    pub steps: u64,
    /// Seconds the crawl's clock has run (see [`ProgressCounters`]).
    pub elapsed_secs: f64,
    /// Walk throughput over the whole run.
    pub walks_per_sec: f64,
    /// Step throughput over the whole run.
    pub steps_per_sec: f64,
    /// Per-worker share of the work.
    pub per_worker: Vec<WorkerSnapshot>,
}

/// One worker's share in a snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct WorkerSnapshot {
    /// Walks this worker finished.
    pub walks: u64,
    /// Steps this worker completed.
    pub steps: u64,
}

impl WorkerSnapshot {
    /// This worker's fraction of `total_walks` (0.0 for an empty crawl).
    pub fn walk_share(&self, total_walks: u64) -> f64 {
        if total_walks == 0 {
            0.0
        } else {
            self.walks as f64 / total_walks as f64
        }
    }
}

impl ProgressSnapshot {
    /// One-line human rendering (`42 walks, 180 steps, 12.3 walks/s ...`).
    pub fn render(&self) -> String {
        let workers = self
            .per_worker
            .iter()
            .enumerate()
            .map(|(i, w)| format!("w{i}:{}", w.walks))
            .collect::<Vec<_>>()
            .join(" ");
        format!(
            "{} walks ({:.1}/s), {} steps ({:.1}/s) [{workers}]",
            self.walks, self.walks_per_sec, self.steps, self.steps_per_sec
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates_match_per_worker_sums() {
        let p = ProgressCounters::new(3);
        p.record_walk(0, 5);
        p.record_walk(1, 3);
        p.record_walk(0, 2);
        let s = p.snapshot();
        assert_eq!(s.walks, 3);
        assert_eq!(s.steps, 10);
        assert_eq!(s.per_worker.len(), 3);
        assert_eq!(s.per_worker[0], WorkerSnapshot { walks: 2, steps: 7 });
        assert_eq!(s.per_worker[1], WorkerSnapshot { walks: 1, steps: 3 });
        assert_eq!(s.per_worker[2], WorkerSnapshot { walks: 0, steps: 0 });
        assert_eq!(
            s.walks,
            s.per_worker.iter().map(|w| w.walks).sum::<u64>()
        );
    }

    #[test]
    fn concurrent_updates_are_lossless() {
        let p = ProgressCounters::new(4);
        std::thread::scope(|scope| {
            for w in 0..4 {
                let p = &p;
                scope.spawn(move || {
                    for _ in 0..1000 {
                        p.record_walk(w, 2);
                    }
                });
            }
        });
        let s = p.snapshot();
        assert_eq!(s.walks, 4000);
        assert_eq!(s.steps, 8000);
        for w in &s.per_worker {
            assert_eq!(w.walks, 1000);
        }
    }

    #[test]
    fn out_of_range_worker_counts_aggregate_only() {
        let p = ProgressCounters::new(1);
        p.record_walk(9, 1);
        let s = p.snapshot();
        assert_eq!(s.walks, 1);
        assert_eq!(s.per_worker[0].walks, 0);
    }

    #[test]
    fn the_clock_runs_only_between_start_and_stop() {
        let p = ProgressCounters::new(1);
        std::thread::sleep(std::time::Duration::from_millis(30));
        p.start_clock();
        p.record_walk(0, 1);
        p.stop_clock();
        let crawl = p.snapshot().elapsed_secs;
        assert!(
            crawl < 0.030,
            "the time before start_clock counted: {crawl}"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert_eq!(
            p.snapshot().elapsed_secs,
            crawl,
            "the clock ran after stop_clock"
        );
        p.start_clock();
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert!(p.snapshot().elapsed_secs >= 0.005, "a restarted clock runs");
    }

    #[test]
    fn zero_elapsed_reports_zero_rates() {
        let p = ProgressCounters::new(2);
        p.record_walk(0, 3);
        p.record_walk(1, 2);
        let s = p.snapshot_with_elapsed(0.0);
        assert_eq!(s.walks, 2);
        assert_eq!(s.walks_per_sec, 0.0);
        assert_eq!(s.steps_per_sec, 0.0);
    }

    #[test]
    fn degenerate_elapsed_never_yields_nan_or_inf() {
        let p = ProgressCounters::new(1);
        p.record_walk(0, 1);
        for elapsed in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let s = p.snapshot_with_elapsed(elapsed);
            assert!(s.walks_per_sec.is_finite(), "elapsed={elapsed}");
            assert!(s.steps_per_sec.is_finite(), "elapsed={elapsed}");
        }
        // A sane elapsed still divides through.
        let s = p.snapshot_with_elapsed(0.5);
        assert_eq!(s.walks_per_sec, 2.0);
        assert_eq!(s.steps_per_sec, 2.0);
    }

    #[test]
    fn worker_shares_sum_to_one() {
        let p = ProgressCounters::new(4);
        p.record_walk(0, 1);
        p.record_walk(0, 1);
        p.record_walk(1, 1);
        p.record_walk(3, 1);
        let s = p.snapshot();
        let shares: Vec<f64> = s
            .per_worker
            .iter()
            .map(|w| w.walk_share(s.walks))
            .collect();
        assert_eq!(shares, vec![0.5, 0.25, 0.0, 0.25]);
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_crawl_has_zero_shares() {
        let p = ProgressCounters::new(2);
        let s = p.snapshot();
        for w in &s.per_worker {
            assert_eq!(w.walk_share(s.walks), 0.0);
        }
    }

    #[test]
    fn render_mentions_throughput() {
        let p = ProgressCounters::new(2);
        p.record_walk(0, 4);
        let line = p.snapshot().render();
        assert!(line.contains("1 walks"), "{line}");
        assert!(line.contains("w0:1"), "{line}");
    }
}
