//! Periodic observability sampling into a bounded ring.
//!
//! The sampler is the bridge between the *instantaneous* readings the
//! observer routes serve (`/progress`, `/metrics`) and the *time-series* the
//! dashboard draws: every `interval` it folds one [`ObsSample`] —
//! progress totals plus rates, the serve inflight gauge, the worst
//! queue-starvation gauge, and latency quantiles — into a
//! [`SnapshotRing`], dropping the oldest sample once the retention
//! window fills.
//!
//! Like everything in this crate it is observation-only: relaxed atomic
//! loads and short collector locks, never a write into crawl state.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cc_telemetry::{Collector, ObsSample, SnapshotRing};
use cc_util::ProgressCounters;

/// Gauge read as the inflight-requests series (populated by cc-serve).
const INFLIGHT_GAUGE: &str = "serve.inflight";
/// Gauge prefix whose per-worker max becomes the starvation series
/// (populated by the parallel crawl executor).
const STARVATION_PREFIX: &str = "crawl.worker.queue_starvation";
/// Histograms tried in order for the latency quantile series: a serve
/// session records the first, a crawl the second.
const LATENCY_HISTOGRAMS: [&str; 2] = ["serve.latency", "net.sim_latency"];

/// How a [`Sampler`] paces itself. The retention window is the ring's
/// capacity, fixed where the ring is made.
#[derive(Debug, Clone, Copy)]
pub struct SamplerConfig {
    /// Time between samples.
    pub interval: Duration,
}

impl Default for SamplerConfig {
    fn default() -> Self {
        SamplerConfig {
            interval: Duration::from_millis(250),
        }
    }
}

/// A background thread snapshotting observability signals on a fixed
/// cadence. Create with [`Sampler::start`]; the ring it fills is shared
/// up front so the observer can serve `/timeseries` concurrently.
pub struct Sampler {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Sampler {
    /// Spawn the sampling thread. One sample is taken immediately so even
    /// a sub-interval run has a data point.
    pub fn start(
        config: SamplerConfig,
        ring: Arc<SnapshotRing>,
        collector: Arc<Collector>,
        progress: Arc<ProgressCounters>,
    ) -> Sampler {
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("cc-obs-sampler".into())
                .spawn(move || {
                    let started = Instant::now();
                    loop {
                        // Read the flag before sampling: once shutdown is
                        // seen, the sample after it is the last, so it
                        // counts everything done before the shutdown.
                        let last = stop.load(Ordering::SeqCst);
                        ring.push(take_sample(
                            started.elapsed().as_secs_f64(),
                            &collector,
                            &progress,
                        ));
                        if last {
                            break;
                        }
                        // Sleep in small slices so shutdown never waits a
                        // full interval.
                        let deadline = Instant::now() + config.interval;
                        while Instant::now() < deadline {
                            if stop.load(Ordering::SeqCst) {
                                break;
                            }
                            std::thread::sleep(Duration::from_millis(10));
                        }
                    }
                })
                .ok()
        };
        Sampler { stop, thread }
    }

    /// Stop the thread, take one final sample (so the dashboard's last
    /// point reflects the finished run), and join.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

impl std::fmt::Debug for Sampler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sampler")
            .field("running", &self.thread.is_some())
            .finish()
    }
}

/// Fold the current readings into one sample. Public so tests can take
/// a sample without a thread.
pub fn take_sample(t_s: f64, collector: &Collector, progress: &ProgressCounters) -> ObsSample {
    let snap = progress.snapshot();
    let mut sample = ObsSample {
        t_s,
        walks: snap.walks,
        steps: snap.steps,
        walks_per_sec: snap.walks_per_sec,
        steps_per_sec: snap.steps_per_sec,
        inflight: collector.gauge_value(INFLIGHT_GAUGE).unwrap_or(0.0),
        starvation: collector.gauge_prefix_max(STARVATION_PREFIX).unwrap_or(0.0),
        ..ObsSample::default()
    };
    for name in LATENCY_HISTOGRAMS {
        if let Some(summary) = collector.histogram_summary(name) {
            if summary.count > 0 {
                sample.latency_p50_ms = summary.p50_ms;
                sample.latency_p99_ms = summary.p99_ms;
                break;
            }
        }
    }
    sample
}
