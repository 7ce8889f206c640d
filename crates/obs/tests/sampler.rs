//! The sampler loop: a thread folding live readings into the ring that
//! `/timeseries` and the dashboard read.

use std::sync::Arc;
use std::time::Duration;

use cc_obs::{Sampler, SamplerConfig};
use cc_telemetry::{Collector, SnapshotRing};
use cc_util::ProgressCounters;

#[test]
fn sampler_fills_the_ring_with_monotone_time() {
    let collector = Arc::new(Collector::default());
    let progress = Arc::new(ProgressCounters::new(1));
    let ring = Arc::new(SnapshotRing::new(32));
    collector.observe_ms("net.sim_latency", 4.0);
    collector.observe_ms("net.sim_latency", 8.0);
    progress.record_walk(0, 6);

    let sampler = Sampler::start(
        SamplerConfig {
            interval: Duration::from_millis(10),
        },
        Arc::clone(&ring),
        Arc::clone(&collector),
        Arc::clone(&progress),
    );
    std::thread::sleep(Duration::from_millis(60));
    sampler.shutdown();

    let samples = ring.snapshot();
    assert!(samples.len() >= 2, "expected several samples, got {}", samples.len());
    for pair in samples.windows(2) {
        assert!(pair[1].t_s >= pair[0].t_s);
        assert!(pair[1].walks >= pair[0].walks);
    }
    let last = samples.last().unwrap();
    assert_eq!(last.walks, 1);
    assert_eq!(last.steps, 6);
    // Latency quantiles came from the crawl fallback histogram.
    assert!(last.latency_p50_ms > 0.0);
    assert!(last.latency_p99_ms >= last.latency_p50_ms);
}
